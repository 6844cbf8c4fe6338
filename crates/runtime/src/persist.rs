//! Typed persistence layers over [`accfg_store`]: the module store and the
//! cost store that give a fresh serving process a fleet warm start.
//!
//! Two key namespaces share one [`KeyValueStore`]:
//!
//! - `m` + encoded [`CacheKey`] → a serialized [`CompiledModule`]
//!   (program, launch plan, layout, analytic anchors) keyed by
//!   `(family, shape, opt)`;
//! - `c` + platform name + encoded [`CacheKey`] → one platform row of the
//!   [`CostRefiner`]'s learned EWMA state, keyed by
//!   `(platform, module, bucket)`: the mode-agnostic warmth buckets
//!   followed by one bucket row per DVFS frequency state, packed into
//!   the value.
//!
//! Cost rows are keyed by platform *name*, not the pool-local platform
//! index: indices are assigned per serve call by first appearance, so they
//! do not survive a process restart, while names are pinned to one
//! provisioning by the runtime's ambiguity guard
//! ([`ServeError::AmbiguousVariantName`]). Rows for names the current
//! pool does not field are never asked for — a store written by a bigger
//! heterogeneous fleet safely warm-starts a subset pool.
//!
//! Module rows are validated on load: a module is restored only when the
//! resolving pool family's base descriptor carries the module's
//! accelerator name and the persisted plan's configuration style matches
//! it. Everything else stays on disk.
//!
//! Each namespace has two readers. A serve goes through [`WarmStart`],
//! which reads **per key** ([`load_module`], [`load_cost_row`]): only the
//! modules the stream resolves and the cache misses, only their cost rows
//! on the pool's platforms — so a warm start costs the working set, not
//! the store, and records the stream never names are neither decoded nor
//! rewritten. The whole-store readers ([`load_modules`], [`load_costs`])
//! are for tools and tests.
//!
//! Per piece of that working set ([`WarmStart`] has the detail): a
//! restored module is one cache probe that also installs it, one store
//! lookup and one decode, its decoded key compared with the requested
//! one rather than re-encoded; a seeded cost row is one lookup on each
//! platform that can run its module, not on every pool platform; a cost
//! row reaches the flush only if it moved off its seeded value. The
//! flush's closing `sync` makes the file durable — and, the first time
//! after [`LogStore::open`] created it, its name in the directory too.
//!
//! Values use [`ByteWriter`]'s varints throughout, and a plan is stored as
//! it is held: each launch's register file as its change from the launch
//! before (`put_plan`), since consecutive launches of one module hold
//! mostly the same values, and read back into that form directly
//! (`read_launch`), with no file a launch.
//!
//! Determinism contract: save functions sort rows by encoded key before
//! writing, and the codec is canonical — the decoders refuse every byte
//! string the encoders would not write, so `encode(decode(b)?) == b` —
//! so identical runs drive identical `put` sequences, which
//! [`accfg_store::LogStore`] turns into byte-identical files.
//!
//! [`ServeError::AmbiguousVariantName`]: crate::ServeError::AmbiguousVariantName

use crate::cache::{
    CacheKey, CompiledModule, CostModel, CostRefiner, CostRow, ModuleCache, COST_ROWS,
    WARMTH_BUCKETS,
};
use crate::metrics::WarmStartStats;
use crate::plan::{Change, DispatchPlan, RegMap};
use accfg::pipeline::OptLevel;
use accfg_sim::{AluOp, BranchCond, Inst, Label, Program, Reg, Width};
use accfg_store::{
    ByteCounter, ByteReader, ByteWriter, Encoder, KeyValueStore, LogStore, StoreError,
};
use accfg_targets::{AcceleratorDescriptor, ConfigStyle};
use accfg_workloads::{MatmulLayout, MatmulSpec};
use std::path::Path;
use std::sync::Arc;

/// Key-namespace prefix for compiled-module records.
pub const MODULE_PREFIX: u8 = b'm';
/// Key-namespace prefix for cost-refiner records.
pub const COST_PREFIX: u8 = b'c';

/// One persisted cost-refiner row: the EWMA bucket rows of `module` on
/// the platform named `platform` — the mode-agnostic row followed by one
/// row per DVFS frequency state (raw fixed-point, `-1` for unseen
/// buckets).
pub type CostSnapshotEntry = (String, CacheKey, CostRow);

fn put_spec(w: &mut impl Encoder, spec: &MatmulSpec) {
    w.put_zigzag(spec.m);
    w.put_zigzag(spec.n);
    w.put_zigzag(spec.k);
    w.put_zigzag(spec.tile_m);
    w.put_zigzag(spec.tile_k);
    w.put_zigzag(spec.tile_n);
    w.put_bool(spec.relu);
}

fn read_spec(r: &mut ByteReader) -> Result<MatmulSpec, StoreError> {
    Ok(MatmulSpec {
        m: r.zigzag()?,
        n: r.zigzag()?,
        k: r.zigzag()?,
        tile_m: r.zigzag()?,
        tile_k: r.zigzag()?,
        tile_n: r.zigzag()?,
        relu: r.bool()?,
    })
}

fn put_opt(w: &mut impl Encoder, opt: OptLevel) {
    w.put_u8(match opt {
        OptLevel::Base => 0,
        OptLevel::Dedup => 1,
        OptLevel::Overlap => 2,
        OptLevel::All => 3,
    });
}

fn read_opt(r: &mut ByteReader) -> Result<OptLevel, StoreError> {
    match r.u8()? {
        0 => Ok(OptLevel::Base),
        1 => Ok(OptLevel::Dedup),
        2 => Ok(OptLevel::Overlap),
        3 => Ok(OptLevel::All),
        tag => Err(StoreError::codec(format!("invalid opt-level tag {tag}"))),
    }
}

fn put_cache_key(w: &mut impl Encoder, key: &CacheKey) {
    w.put_str(&key.accelerator);
    put_spec(w, &key.spec);
    put_opt(w, key.opt);
}

fn read_cache_key(r: &mut ByteReader) -> Result<CacheKey, StoreError> {
    Ok(CacheKey {
        accelerator: r.str()?,
        spec: read_spec(r)?,
        opt: read_opt(r)?,
    })
}

/// Runs the encoder statements `$put` over a [`ByteCounter`], then over
/// a [`ByteWriter`] of exactly the length counted, and yields the
/// writer's bytes: a buffer at its length with no formula for it.
macro_rules! encode_exact {
    ($w:ident => $put:expr) => {{
        let mut $w = ByteCounter::new();
        $put;
        let mut $w = ByteWriter::with_capacity($w.bytes());
        $put;
        $w.finish()
    }};
}

/// The store key a module is filed under: `m` + canonical `(family,
/// shape, opt)` encoding.
pub fn module_key_bytes(key: &CacheKey) -> Vec<u8> {
    encode_exact!(w => {
        w.put_u8(MODULE_PREFIX);
        put_cache_key(&mut w, key);
    })
}

/// The store key a cost row is filed under: `c` + platform name +
/// canonical module key encoding.
pub fn cost_key_bytes(platform: &str, key: &CacheKey) -> Vec<u8> {
    encode_exact!(w => {
        w.put_u8(COST_PREFIX);
        w.put_str(platform);
        put_cache_key(&mut w, key);
    })
}

fn put_style(w: &mut impl Encoder, style: ConfigStyle) {
    match style {
        ConfigStyle::Csr => w.put_u8(0),
        ConfigStyle::RoccPairs { launch_funct } => {
            w.put_u8(1);
            w.put_u8(launch_funct);
        }
    }
}

fn read_style(r: &mut ByteReader) -> Result<ConfigStyle, StoreError> {
    match r.u8()? {
        0 => Ok(ConfigStyle::Csr),
        1 => {
            let launch_funct = r.u8()?;
            // the launch command writes the pair (2f, 2f + 1) like any other
            if usize::from(launch_funct) * 2 + 1 >= RegMap::SLOTS {
                return Err(StoreError::codec(format!(
                    "launch funct {launch_funct} names a register pair past the {}-register file",
                    RegMap::SLOTS
                )));
            }
            Ok(ConfigStyle::RoccPairs { launch_funct })
        }
        tag => Err(StoreError::codec(format!("invalid config-style tag {tag}"))),
    }
}

/// Writes the plan as it holds it: each launch's register file as its
/// change from the one before (the first launch against a blank file) —
/// the held-register mask, the count of listed registers, then each
/// listed register — one newly held or holding a new value — ascending,
/// with its zigzagged value. A register the previous launch held at the
/// same value is implied by the mask. So launch 0 lists every register it
/// holds, and each later launch lists its run, as the plan holds it,
/// behind launch 0's mask: every launch of a plan holds the first's set.
fn put_plan(w: &mut impl Encoder, plan: &DispatchPlan) {
    put_style(w, plan.style());
    w.put_varint(plan.launch_count() as u64);
    let first = plan.first();
    if plan.launch_count() > 0 {
        let listed = first.iter().map(|(&reg, &value)| (reg, value));
        put_launch(w, first.mask(), first.len(), listed);
    }
    for run in plan.runs() {
        let listed = run.iter().map(|change| (change.reg, change.value));
        put_launch(w, first.mask(), run.len(), listed);
    }
    w.put_varint(plan.cold_writes());
}

/// One launch as [`put_plan`] lays it out: the held mask, then the
/// `count` entries of `listed`.
fn put_launch(
    w: &mut impl Encoder,
    mask: u32,
    count: usize,
    listed: impl Iterator<Item = (u16, i64)>,
) {
    w.put_varint(u64::from(mask));
    w.put_varint(count as u64);
    for (reg, value) in listed {
        w.put_varint(u64::from(reg));
        w.put_zigzag(value);
    }
}

/// Reads an element count and rejects one the remaining bytes cannot hold
/// (every element encodes to at least one byte) before anything is
/// allocated for it: a record claiming `u32::MAX` instructions must be a
/// codec error, not a 96 GiB allocation that aborts the process.
fn read_count(r: &mut ByteReader, what: &str) -> Result<usize, StoreError> {
    let count = r.varint()?;
    if count > r.remaining() as u64 {
        return Err(StoreError::codec(format!(
            "{what} count {count} exceeds the {} remaining bytes",
            r.remaining()
        )));
    }
    Ok(count as usize)
}

/// Reads launch `index`'s register file as [`put_plan`] writes it into
/// `file`, which holds the previous launch's (a blank file for launch 0),
/// and appends each register a later launch lists to `changes`: the
/// launch's run, read straight into the plan, checked against one running
/// file. Everything `put_plan` never writes is refused, so an accepted
/// launch re-encodes to exactly the bytes it was read from and holds only
/// registers a worker's machine can be told to write: a mask bit past the
/// file or inside a RoCC launch pair, a mask after the first that differs
/// from it, a listed register past the file, out of ascending order,
/// listed twice, outside the mask or repeating the value it would
/// inherit, and a newly held register with no listed value.
fn read_launch(
    r: &mut ByteReader,
    style: ConfigStyle,
    index: u32,
    file: &mut RegMap,
    changes: &mut Vec<Change>,
) -> Result<(), StoreError> {
    let mask: u32 = r.varint_to()?;
    let held = file.mask();
    if index > 0 && mask != held {
        return Err(StoreError::codec(format!(
            "launch {index} holds registers {mask:#x}, not launch 0's {held:#x}"
        )));
    }
    let past = mask & !(u32::MAX >> (32 - RegMap::SLOTS));
    if past != 0 {
        return Err(StoreError::codec(format!(
            "configuration register {} is past the {}-register file",
            past.trailing_zeros(),
            RegMap::SLOTS
        )));
    }
    if let ConfigStyle::RoccPairs { launch_funct } = style {
        let pair = mask & 0b11 << (2 * u32::from(launch_funct));
        if pair != 0 {
            return Err(StoreError::codec(format!(
                "configuration register {} is in the launch pair of funct {launch_funct}",
                pair.trailing_zeros()
            )));
        }
    }
    let mut listed = 0u32;
    for _ in 0..read_count(r, "listed register")? {
        let reg: u16 = r.varint_to()?;
        if usize::from(reg) >= RegMap::SLOTS {
            return Err(StoreError::codec(format!(
                "configuration register {reg} is past the {}-register file",
                RegMap::SLOTS
            )));
        }
        let bit = 1 << reg;
        if listed & !(bit - 1) != 0 {
            return Err(StoreError::codec(format!(
                "configuration register {reg} is listed out of ascending order"
            )));
        }
        if mask & bit == 0 {
            return Err(StoreError::codec(format!(
                "configuration register {reg} is listed but not held"
            )));
        }
        let value = r.zigzag()?;
        // no register listed before this one is `reg`: `file` still holds
        // the previous launch's value there
        if file.get(&reg) == Some(&value) {
            return Err(StoreError::codec(format!(
                "configuration register {reg} is listed with the value it inherits"
            )));
        }
        listed |= bit;
        file.insert(reg, value);
        if index > 0 {
            changes.push(Change {
                launch: index,
                reg,
                value,
            });
        }
    }
    let unset = mask & !held & !listed;
    if unset != 0 {
        return Err(StoreError::codec(format!(
            "configuration register {} is newly held with no listed value",
            unset.trailing_zeros()
        )));
    }
    Ok(())
}

fn read_plan(r: &mut ByteReader) -> Result<DispatchPlan, StoreError> {
    let style = read_style(r)?;
    let count = read_count(r, "launch")?;
    let launches = u32::try_from(count)
        .map_err(|_| StoreError::codec(format!("launch count {count} exceeds u32")))?;
    let mut first = RegMap::new();
    let mut changes = Vec::new();
    if launches > 0 {
        read_launch(r, style, 0, &mut first, &mut changes)?;
        // a later launch lists each register at most once, in at least two
        // bytes; the constructor gives back the room the runs do not use
        changes.reserve_exact(
            (count - 1)
                .saturating_mul(first.len())
                .min(r.remaining() / 2),
        );
        let mut file = first.clone();
        for index in 1..launches {
            read_launch(r, style, index, &mut file, &mut changes)?;
        }
    }
    let stored = r.varint()?;
    // `read_launch` has refused every run the constructor would; should
    // the constructor disagree, the record is still a codec error
    let plan = DispatchPlan::new(style, launches, first, changes)
        .map_err(|launch| StoreError::codec(format!("launch {launch} changes the held set")))?;
    // no build writes any other count, and a cold quote is read from it
    if stored != plan.cold_writes() {
        return Err(StoreError::codec(format!(
            "stored cold-write count {stored} is not the plan's blank-file count {}",
            plan.cold_writes()
        )));
    }
    Ok(plan)
}

fn put_alu_op(w: &mut impl Encoder, op: AluOp) {
    w.put_u8(match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Divu => 3,
        AluOp::Remu => 4,
        AluOp::And => 5,
        AluOp::Or => 6,
        AluOp::Xor => 7,
        AluOp::Sll => 8,
        AluOp::Srl => 9,
        AluOp::Slt => 10,
        AluOp::Sltu => 11,
    });
}

fn read_alu_op(r: &mut ByteReader) -> Result<AluOp, StoreError> {
    Ok(match r.u8()? {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::Divu,
        4 => AluOp::Remu,
        5 => AluOp::And,
        6 => AluOp::Or,
        7 => AluOp::Xor,
        8 => AluOp::Sll,
        9 => AluOp::Srl,
        10 => AluOp::Slt,
        11 => AluOp::Sltu,
        tag => return Err(StoreError::codec(format!("invalid alu-op tag {tag}"))),
    })
}

fn put_width(w: &mut impl Encoder, width: Width) {
    w.put_u8(match width {
        Width::Byte => 0,
        Width::Word => 1,
        Width::Double => 2,
    });
}

fn read_width(r: &mut ByteReader) -> Result<Width, StoreError> {
    Ok(match r.u8()? {
        0 => Width::Byte,
        1 => Width::Word,
        2 => Width::Double,
        tag => return Err(StoreError::codec(format!("invalid width tag {tag}"))),
    })
}

fn put_cond(w: &mut impl Encoder, cond: BranchCond) {
    w.put_u8(match cond {
        BranchCond::Eq => 0,
        BranchCond::Ne => 1,
        BranchCond::Lt => 2,
        BranchCond::Ge => 3,
    });
}

fn read_cond(r: &mut ByteReader) -> Result<BranchCond, StoreError> {
    Ok(match r.u8()? {
        0 => BranchCond::Eq,
        1 => BranchCond::Ne,
        2 => BranchCond::Lt,
        3 => BranchCond::Ge,
        tag => return Err(StoreError::codec(format!("invalid branch-cond tag {tag}"))),
    })
}

fn put_inst(w: &mut impl Encoder, inst: &Inst) {
    match *inst {
        Inst::Li { rd, imm } => {
            w.put_u8(0);
            w.put_varint(u64::from(rd.0));
            w.put_zigzag(imm);
        }
        Inst::Alu { op, rd, rs1, rs2 } => {
            w.put_u8(1);
            put_alu_op(w, op);
            w.put_varint(u64::from(rd.0));
            w.put_varint(u64::from(rs1.0));
            w.put_varint(u64::from(rs2.0));
        }
        Inst::AluI { op, rd, rs1, imm } => {
            w.put_u8(2);
            put_alu_op(w, op);
            w.put_varint(u64::from(rd.0));
            w.put_varint(u64::from(rs1.0));
            w.put_zigzag(imm);
        }
        Inst::Ld {
            rd,
            base,
            offset,
            width,
        } => {
            w.put_u8(3);
            w.put_varint(u64::from(rd.0));
            w.put_varint(u64::from(base.0));
            w.put_zigzag(offset);
            put_width(w, width);
        }
        Inst::St {
            rs,
            base,
            offset,
            width,
        } => {
            w.put_u8(4);
            w.put_varint(u64::from(rs.0));
            w.put_varint(u64::from(base.0));
            w.put_zigzag(offset);
            put_width(w, width);
        }
        Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            w.put_u8(5);
            put_cond(w, cond);
            w.put_varint(u64::from(rs1.0));
            w.put_varint(u64::from(rs2.0));
            w.put_varint(u64::from(target.index()));
        }
        Inst::Jump { target } => {
            w.put_u8(6);
            w.put_varint(u64::from(target.index()));
        }
        Inst::CsrWrite { csr, rs } => {
            w.put_u8(7);
            w.put_varint(u64::from(csr));
            w.put_varint(u64::from(rs.0));
        }
        Inst::RoccCmd { funct, rs1, rs2 } => {
            w.put_u8(8);
            w.put_u8(funct);
            w.put_varint(u64::from(rs1.0));
            w.put_varint(u64::from(rs2.0));
        }
        Inst::Launch => w.put_u8(9),
        Inst::AwaitIdle => w.put_u8(10),
        Inst::Halt => w.put_u8(11),
    }
}

fn read_inst(r: &mut ByteReader) -> Result<Inst, StoreError> {
    Ok(match r.u8()? {
        0 => Inst::Li {
            rd: Reg(r.varint_to()?),
            imm: r.zigzag()?,
        },
        1 => Inst::Alu {
            op: read_alu_op(r)?,
            rd: Reg(r.varint_to()?),
            rs1: Reg(r.varint_to()?),
            rs2: Reg(r.varint_to()?),
        },
        2 => Inst::AluI {
            op: read_alu_op(r)?,
            rd: Reg(r.varint_to()?),
            rs1: Reg(r.varint_to()?),
            imm: r.zigzag()?,
        },
        3 => Inst::Ld {
            rd: Reg(r.varint_to()?),
            base: Reg(r.varint_to()?),
            offset: r.zigzag()?,
            width: read_width(r)?,
        },
        4 => Inst::St {
            rs: Reg(r.varint_to()?),
            base: Reg(r.varint_to()?),
            offset: r.zigzag()?,
            width: read_width(r)?,
        },
        5 => Inst::Branch {
            cond: read_cond(r)?,
            rs1: Reg(r.varint_to()?),
            rs2: Reg(r.varint_to()?),
            target: Label::from_index(r.varint_to()?),
        },
        6 => Inst::Jump {
            target: Label::from_index(r.varint_to()?),
        },
        7 => Inst::CsrWrite {
            csr: r.varint_to()?,
            rs: Reg(r.varint_to()?),
        },
        8 => Inst::RoccCmd {
            funct: r.u8()?,
            rs1: Reg(r.varint_to()?),
            rs2: Reg(r.varint_to()?),
        },
        9 => Inst::Launch,
        10 => Inst::AwaitIdle,
        11 => Inst::Halt,
        tag => return Err(StoreError::codec(format!("invalid instruction tag {tag}"))),
    })
}

fn put_program(w: &mut impl Encoder, program: &Program) {
    w.put_varint(program.reg_count() as u64);
    w.put_varint(program.insts().len() as u64);
    for inst in program.insts() {
        put_inst(w, inst);
    }
    w.put_varint(program.label_targets().len() as u64);
    for &target in program.label_targets() {
        w.put_varint(target as u64);
    }
}

fn read_program(r: &mut ByteReader) -> Result<Program, StoreError> {
    let reg_count = r.varint_to()?;
    let inst_count = read_count(r, "instruction")?;
    let mut insts = Vec::with_capacity(inst_count);
    for _ in 0..inst_count {
        insts.push(read_inst(r)?);
    }
    let label_count = read_count(r, "label-target")?;
    let mut label_targets = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        label_targets.push(r.varint_to()?);
    }
    Program::from_parts(insts, label_targets, reg_count)
        .ok_or_else(|| StoreError::codec("program parts are self-inconsistent"))
}

fn put_cost_model(w: &mut impl Encoder, cost: &CostModel) {
    w.put_varint(cost.cold_writes);
    w.put_varint(cost.cold_cycles);
    w.put_varint(cost.warm_writes);
    w.put_varint(cost.warm_cycles);
}

fn read_cost_model(r: &mut ByteReader) -> Result<CostModel, StoreError> {
    Ok(CostModel {
        cold_writes: r.varint()?,
        cold_cycles: r.varint()?,
        warm_writes: r.varint()?,
        warm_cycles: r.varint()?,
    })
}

fn put_layout(w: &mut impl Encoder, layout: &MatmulLayout) {
    w.put_zigzag(layout.a_addr);
    w.put_zigzag(layout.b_addr);
    w.put_zigzag(layout.c_addr);
    w.put_zigzag(layout.end);
}

fn read_layout(r: &mut ByteReader) -> Result<MatmulLayout, StoreError> {
    Ok(MatmulLayout {
        a_addr: r.zigzag()?,
        b_addr: r.zigzag()?,
        c_addr: r.zigzag()?,
        end: r.zigzag()?,
    })
}

/// Writes `module`'s canonical store value.
fn put_module(w: &mut impl Encoder, module: &CompiledModule) {
    put_cache_key(w, &module.key);
    put_layout(w, &module.layout);
    put_program(w, &module.program);
    put_plan(w, &module.plan);
    put_cost_model(w, &module.cost);
    w.put_varint(module.ir_setup_writes as u64);
}

/// Serializes one compiled module to its canonical store value, in a
/// buffer of exactly its length.
pub fn encode_module(module: &CompiledModule) -> Vec<u8> {
    encode_exact!(w => put_module(&mut w, module))
}

/// Deserializes a compiled module written by [`encode_module`].
///
/// # Errors
/// [`StoreError::Codec`] on any malformed or truncated payload.
pub fn decode_module(bytes: &[u8]) -> Result<CompiledModule, StoreError> {
    let mut r = ByteReader::new(bytes);
    let key = read_cache_key(&mut r)?;
    let layout = read_layout(&mut r)?;
    let program = read_program(&mut r)?;
    let plan = read_plan(&mut r)?;
    let cost = read_cost_model(&mut r)?;
    let ir_setup_writes = r.varint_to()?;
    r.expect_exhausted("compiled module")?;
    Ok(CompiledModule {
        key,
        layout,
        program,
        plan,
        cost,
        ir_setup_writes,
    })
}

/// Writes `modules` as one batch in encoded-key order, so identical
/// inputs drive identical writes whatever order they come in. Only the
/// keys are collected and sorted: each value is encoded into one reused
/// buffer as the store takes the batch. The batch's room is stated
/// exactly — the keys' lengths, and each value's as [`put_module`]
/// counts it over a [`ByteCounter`], which writes nothing — so a
/// [`LogStore`] reserves what the batch writes, and the reused buffer is
/// the widest value's length. Returns the number of modules written
/// (including unchanged ones the store elides).
fn put_modules<'m>(
    store: &mut dyn KeyValueStore,
    modules: impl IntoIterator<Item = &'m CompiledModule>,
) -> Result<u64, StoreError> {
    let mut keyed: Vec<(Vec<u8>, &CompiledModule)> = modules
        .into_iter()
        .map(|module| (module_key_bytes(&module.key), module))
        .collect();
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let (mut bytes, mut widest) = (0, 0);
    for (key, module) in &keyed {
        let mut value = ByteCounter::new();
        put_module(&mut value, module);
        bytes += key.len() + value.bytes();
        widest = widest.max(value.bytes());
    }
    let mut value = ByteWriter::with_capacity(widest);
    store.put_all(keyed.len(), bytes, &mut |sink| {
        for (key, module) in &keyed {
            value.clear();
            put_module(&mut value, module);
            sink(key, value.as_bytes())?;
        }
        Ok(())
    })?;
    Ok(keyed.len() as u64)
}

/// Writes the store `records` as one batch in key order (see
/// [`put_modules`]), their room stated exactly. Returns the number of
/// records written (including unchanged ones the store elides).
fn put_records(
    store: &mut dyn KeyValueStore,
    mut records: Vec<(Vec<u8>, Vec<u8>)>,
) -> Result<u64, StoreError> {
    records.sort_unstable();
    let bytes = records
        .iter()
        .map(|(key, value)| key.len() + value.len())
        .sum();
    store.put_all(records.len(), bytes, &mut |sink| {
        records.iter().try_for_each(|(key, value)| sink(key, value))
    })?;
    Ok(records.len() as u64)
}

/// Persists every cached module, sorted by encoded key so identical
/// caches drive identical write sequences. Returns the number of modules
/// written (including unchanged ones the store elides as no-ops).
///
/// # Errors
/// Propagates store I/O failures.
pub fn save_modules(store: &mut dyn KeyValueStore, cache: &ModuleCache) -> Result<u64, StoreError> {
    put_modules(store, cache.snapshot().iter().map(|module| &**module))
}

/// Whether a pool whose family base is `desc` can field `module`: the
/// names match and the persisted plan's configuration style is executable
/// there.
fn fields(desc: &AcceleratorDescriptor, module: &CompiledModule) -> bool {
    desc.name == module.key.accelerator && module.plan.executable_on(desc)
}

fn filed_under_the_wrong_key() -> StoreError {
    StoreError::codec("module filed under the wrong key")
}

/// Decodes the record filed under `key`, if the store holds one —
/// whether or not the base resolving it can field it — rejecting one
/// whose own key is another. The key encoding is canonical and
/// injective, so comparing the decoded key with `key` is comparing their
/// encodings, without encoding the decoded one.
fn stored_module(
    store: &dyn KeyValueStore,
    key: &CacheKey,
) -> Result<Option<CompiledModule>, StoreError> {
    let Some(value) = store.get(&module_key_bytes(key)) else {
        return Ok(None);
    };
    let module = decode_module(value)?;
    if module.key != *key {
        return Err(filed_under_the_wrong_key());
    }
    Ok(Some(module))
}

/// Loads the one module filed under `key`, if the store holds it and
/// `desc` (the base descriptor of the pool family resolving it) can field
/// it — the per-key reader a store-backed serve restores through. A
/// record `desc` cannot field is left on disk untouched and reported as
/// absent (a serve counts it: [`WarmStartStats::records_unfieldable`]).
///
/// # Errors
/// [`StoreError::Codec`] if the record fails to decode or is filed under
/// a key other than its own.
pub fn load_module(
    store: &dyn KeyValueStore,
    desc: &AcceleratorDescriptor,
    key: &CacheKey,
) -> Result<Option<CompiledModule>, StoreError> {
    Ok(stored_module(store, key)?.filter(|module| fields(desc, module)))
}

/// Loads every persisted module the pool described by `descriptors` (one
/// base descriptor per pool family) can actually field: the module's
/// accelerator name must match a descriptor and its plan's configuration
/// style must be executable there. Non-matching modules are left on disk
/// untouched — that is what makes one store safely shareable across
/// differently-shaped pools. The whole-store reader, for tools and tests;
/// a serve restores per key through [`load_module`].
///
/// # Errors
/// [`StoreError::Codec`] if a live module record fails to decode.
pub fn load_modules(
    store: &dyn KeyValueStore,
    descriptors: &[&AcceleratorDescriptor],
) -> Result<Vec<CompiledModule>, StoreError> {
    let mut modules = Vec::new();
    for key in store.keys_with_prefix(&[MODULE_PREFIX]) {
        let value = store
            .get(&key)
            .ok_or_else(|| StoreError::codec("module key vanished during scan"))?;
        // no `CacheKey` to compare with here: the scanned store key is
        // compared with the decoded key's encoding
        let module = decode_module(value)?;
        if module_key_bytes(&module.key) != key {
            return Err(filed_under_the_wrong_key());
        }
        if descriptors.iter().any(|desc| fields(desc, &module)) {
            modules.push(module);
        }
    }
    Ok(modules)
}

/// Encodes one cost value — every row of a [`CostRow`], the
/// mode-agnostic one first — into a buffer of exactly its length.
fn encode_cost_row(buckets: &CostRow) -> Vec<u8> {
    encode_exact!(w => for &slot in buckets.iter().flatten() {
        w.put_zigzag(slot);
    })
}

/// The store record — key and value — of `module`'s cost row `buckets`
/// on the platform named `platform`: what [`save_costs`] files for an
/// entry, and what a store-backed serve's flush writes for a refiner row
/// that moved ([`WarmStart::flush`]). The one encoder of a cost record.
pub fn cost_record(platform: &str, module: &CacheKey, buckets: &CostRow) -> (Vec<u8>, Vec<u8>) {
    (cost_key_bytes(platform, module), encode_cost_row(buckets))
}

/// Persists cost-refiner rows (platform-name keyed), sorted by encoded
/// key. Returns the number of rows written.
///
/// # Errors
/// Propagates store I/O failures.
pub fn save_costs(
    store: &mut dyn KeyValueStore,
    entries: &[CostSnapshotEntry],
) -> Result<u64, StoreError> {
    let records = entries
        .iter()
        .map(|(platform, key, buckets)| cost_record(platform, key, buckets));
    put_records(store, records.collect())
}

/// Decodes one cost value: every row of a [`CostRow`], the mode-agnostic
/// one first, and nothing after them.
fn decode_cost_row(value: &[u8]) -> Result<CostRow, StoreError> {
    let mut r = ByteReader::new(value);
    let mut buckets: CostRow = [[0; WARMTH_BUCKETS]; COST_ROWS];
    for slot in buckets.iter_mut().flatten() {
        *slot = r.zigzag()?;
    }
    r.expect_exhausted("cost row")?;
    Ok(buckets)
}

/// Loads the one cost row of `module` on the platform named `platform`,
/// if the store holds it — the per-key reader a store-backed serve seeds
/// its refiner through.
///
/// # Errors
/// [`StoreError::Codec`] if the record fails to decode.
pub fn load_cost_row(
    store: &dyn KeyValueStore,
    platform: &str,
    module: &CacheKey,
) -> Result<Option<CostRow>, StoreError> {
    store
        .get(&cost_key_bytes(platform, module))
        .map(decode_cost_row)
        .transpose()
}

/// Loads every persisted cost row, in sorted key order: the full fleet
/// snapshot, for tools and tests (platform names a pool does not field
/// are skipped at seeding time); a serve loads per key through
/// [`load_cost_row`].
///
/// # Errors
/// [`StoreError::Codec`] if a live cost record fails to decode.
pub fn load_costs(store: &dyn KeyValueStore) -> Result<Vec<CostSnapshotEntry>, StoreError> {
    let mut entries = Vec::new();
    for key in store.keys_with_prefix(&[COST_PREFIX]) {
        let value = store
            .get(&key)
            .ok_or_else(|| StoreError::codec("cost key vanished during scan"))?;
        let mut kr = ByteReader::new(&key);
        kr.u8()?; // prefix
        let platform = kr.str()?;
        let cache_key = read_cache_key(&mut kr)?;
        kr.expect_exhausted("cost key")?;
        entries.push((platform, cache_key, decode_cost_row(value)?));
    }
    Ok(entries)
}

/// The store side of one store-backed serve: the opened [`LogStore`], the
/// modules this serve decoded from it, and the provenance it reports.
///
/// Restore is per key, on first resolve: [`WarmStart::restore_module`]
/// reads only keys the stream names and the module cache misses, and
/// [`WarmStart::cost_rows`] only for the modules the stream resolved — so
/// a serve pays for its working set, not for the store. Records the
/// stream never names are neither decoded nor rewritten; a corrupt one
/// among them stays on disk unnoticed, while a corrupt record the stream
/// does resolve is a typed [`StoreError::Codec`].
///
/// What each piece costs a serve:
///
/// - a restored module: one store key encoded and looked up, one decode,
///   and one hash of its [`CacheKey`] — the lookup that misses the module
///   cache is the one that installs the decoded module and hands it back,
///   and the decoded key is compared with the requested one, not
///   re-encoded;
/// - a seeded cost row: one lookup per platform that can run the module
///   (the members of the pool groups sharing its base), never one per
///   pool platform, and the row names its platform by index;
/// - a flushed cost row: only a row that no longer holds the value it was
///   seeded with reaches the flush at all — the others are already the
///   bytes on disk, which the log would elide anyway — and it arrives as
///   its store record, encoded where the refiner holds it.
#[derive(Debug)]
pub struct WarmStart {
    store: LogStore,
    /// The modules decoded from `store` during this serve, as the cache
    /// holds them: their records are already byte-identical to what a
    /// flush would write.
    restored: Vec<Arc<CompiledModule>>,
    /// Cost rows [`WarmStart::cost_rows`] handed out for seeding.
    seeded: u64,
    /// Stored modules the resolving base could not field (then rebuilt).
    unfieldable: u64,
}

impl WarmStart {
    /// Opens (creating if absent) the store at `path`. A corrupt *tail*
    /// is recovered from and reported by [`WarmStart::flush`] as
    /// [`WarmStartStats::torn_tails_recovered`]; anything worse is a
    /// typed error.
    ///
    /// # Errors
    /// See [`LogStore::open`].
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Ok(Self {
            store: LogStore::open(path)?,
            restored: Vec::new(),
            seeded: 0,
            unfieldable: 0,
        })
    }

    /// The module for `(desc, spec, opt)`: the one `cache` holds (a
    /// fresh build wins over a stored record, which is then never looked
    /// up), else the stored one if `desc` can field it, installed into
    /// `cache`. Either way the cache counts the hit. `None` — no counter
    /// moved — leaves the build to the caller: the store holds no record,
    /// or one `desc` cannot field, which is counted.
    ///
    /// # Errors
    /// See [`load_module`].
    pub fn restore_module(
        &mut self,
        cache: &mut ModuleCache,
        desc: &AcceleratorDescriptor,
        spec: MatmulSpec,
        opt: OptLevel,
    ) -> Result<Option<Arc<CompiledModule>>, StoreError> {
        let key = CacheKey {
            accelerator: desc.name.clone(),
            spec,
            opt,
        };
        let mut decoded = false;
        let module = cache.get_or_restore(key, |key| match stored_module(&self.store, key)? {
            Some(module) if fields(desc, &module) => {
                decoded = true;
                Ok(Some(module))
            }
            Some(_) => {
                self.unfieldable += 1;
                Ok(None)
            }
            None => Ok(None),
        })?;
        if decoded {
            let module = module.as_ref().expect("a decoded module is installed");
            self.restored.push(Arc::clone(module));
        }
        Ok(module)
    }

    /// The serve's refiner, seeded with the stored cost rows of the
    /// distinct `modules`, each paired with the distinct platforms that
    /// can run it as indices into `platforms` (the pool's platform
    /// names): a row found is decoded straight into the refiner, as the
    /// row of module id = the module's position in `modules` on that
    /// platform index. The refiner's rows are reserved once, one for each
    /// `(module, platform)` pair of the working set, and its index once,
    /// so neither seeding nor a later first observation of a pair regrows
    /// them, and no list of the seeds is built on the way. A stored row of a module on any
    /// other platform is never looked up: no worker of this pool can
    /// observe it, and the flush leaves it on disk as it is.
    ///
    /// # Errors
    /// See [`load_cost_row`].
    pub fn cost_rows<'a, I>(
        &mut self,
        platforms: &[&str],
        modules: I,
    ) -> Result<CostRefiner, StoreError>
    where
        I: IntoIterator<Item = (&'a CompiledModule, &'a [usize])>,
        I::IntoIter: Clone,
    {
        let modules = modules.into_iter();
        let (ids, pairs) = modules.clone().fold((0, 0), |(ids, pairs), (_, runs_on)| {
            (ids + 1, pairs + runs_on.len())
        });
        let mut refiner = CostRefiner::with_capacity(platforms.len(), ids, pairs);
        for (id, (module, runs_on)) in modules.enumerate() {
            for &platform in runs_on {
                if let Some(row) = load_cost_row(&self.store, platforms[platform], &module.key)? {
                    refiner.seed(id, platform, row);
                    self.seeded += 1;
                }
            }
        }
        Ok(refiner)
    }

    /// Flush-on-finish: persists what the serve built or changed — the
    /// cached modules that were not decoded from this store, and
    /// `cost_records`, the [`cost_record`]s of the refiner's rows that
    /// no longer hold what [`WarmStart::cost_rows`] seeded them with —
    /// syncs, and returns the serve's provenance. Each namespace is one
    /// [`KeyValueStore::put_all`] batch in key order, modules first; a
    /// module is encoded into one reused buffer as the store takes it,
    /// so no list of encoded modules is built beside the log image.
    /// Identical values are elided at the log layer, so an identical
    /// re-run leaves the file byte-for-byte unchanged; skipping the
    /// decoded modules is byte-neutral because
    /// `encode_module(&decode_module(b)?) == b`, and skipping the rows
    /// that hold their seed because each holds the value decoded from the
    /// row it would overwrite (a row that moved and came back is re-put,
    /// and elided there).
    ///
    /// # Errors
    /// Propagates store I/O failures.
    pub fn flush(
        mut self,
        cache: &ModuleCache,
        cost_records: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<WarmStartStats, StoreError> {
        // a restored module is known by its address: the cache holds the
        // very `Arc` restore handed out
        let address = |module: &Arc<CompiledModule>| Arc::as_ptr(module);
        self.restored.sort_unstable_by_key(address);
        let restored = &self.restored;
        let cached = cache.snapshot();
        let built = cached.iter().filter(|&module| {
            restored
                .binary_search_by_key(&address(module), address)
                .is_err()
        });
        put_modules(&mut self.store, built.map(|module| &**module))?;
        put_records(&mut self.store, cost_records)?;
        self.store.sync()?;
        // every decoded module spared exactly one build
        let restored = self.restored.len() as u64;
        Ok(WarmStartStats {
            modules_restored: restored,
            ewma_entries_seeded: self.seeded,
            builds_avoided: restored,
            torn_tails_recovered: u64::from(self.store.recovery().is_some()),
            records_unfieldable: self.unfieldable,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::build_module;
    use crate::plan::LaunchSpec;
    use accfg_sim::FreqState;
    use accfg_store::MemStore;

    #[test]
    fn module_codec_round_trips() {
        for (desc, spec) in [
            (
                AcceleratorDescriptor::opengemm(),
                MatmulSpec::opengemm_paper(16).unwrap(),
            ),
            (
                AcceleratorDescriptor::gemmini(),
                MatmulSpec::gemmini_paper(32).unwrap(),
            ),
        ] {
            for opt in [OptLevel::Base, OptLevel::All] {
                let module = build_module(&desc, spec, opt).unwrap();
                let decoded = decode_module(&encode_module(&module)).unwrap();
                assert_eq!(decoded, module);
            }
        }
    }

    /// A store that records, for each batch, the rows and bytes its
    /// producer states and the rows and key and value bytes the producer
    /// then hands the sink.
    #[derive(Default)]
    struct Recording {
        batches: Vec<[usize; 4]>,
    }

    impl KeyValueStore for Recording {
        fn get(&self, _: &[u8]) -> Option<&[u8]> {
            None
        }

        fn put(&mut self, _: &[u8], _: &[u8]) -> Result<(), StoreError> {
            unreachable!("a flush puts in batches")
        }

        fn put_all(
            &mut self,
            rows: usize,
            bytes: usize,
            produce: &mut accfg_store::Producer<'_>,
        ) -> Result<(), StoreError> {
            let (mut handed_rows, mut handed_bytes) = (0, 0);
            produce(&mut |key, value| {
                handed_rows += 1;
                handed_bytes += key.len() + value.len();
                Ok(())
            })?;
            self.batches.push([rows, bytes, handed_rows, handed_bytes]);
            Ok(())
        }

        fn remove(&mut self, _: &[u8]) -> Result<(), StoreError> {
            Ok(())
        }

        fn keys_with_prefix(&self, _: &[u8]) -> Vec<Vec<u8>> {
            Vec::new()
        }

        fn len(&self) -> usize {
            0
        }
    }

    /// The flush states each module batch exactly — the rows and the key
    /// and value bytes its producer then hands the sink — and keys and
    /// values are encoded at their exact length, over a sample of the
    /// `cold_shapes` grid (6 x 6 x 16 shapes, Gemmini untiled and
    /// OpenGeMM in 8 x 8 x k tiles): a batch alone per module, and all
    /// of them as one.
    #[test]
    fn a_module_batch_states_exactly_the_bytes_it_writes() {
        let (gemmini, opengemm) = (
            AcceleratorDescriptor::gemmini(),
            AcceleratorDescriptor::opengemm(),
        );
        let mut modules = Vec::new();
        for (i, (m, n, k)) in (8..=48)
            .step_by(8)
            .flat_map(|m| (8..=48).step_by(8).map(move |n| (m, n)))
            .flat_map(|(m, n)| (8..=128).step_by(8).map(move |k| (m, n, k)))
            .enumerate()
        {
            // every seventh shape, so each of m, n and k takes every value
            if i % 7 != 0 {
                continue;
            }
            for (desc, tile) in [(&gemmini, (m, n, k)), (&opengemm, (8, 8, k))] {
                let spec = MatmulSpec::new((m, n, k), tile).unwrap();
                modules.push(build_module(desc, spec, OptLevel::All).unwrap());
            }
        }
        assert_eq!(modules.len(), 2 * 576_usize.div_ceil(7));
        let mut store = Recording::default();
        for module in &modules {
            let value = encode_module(module);
            assert_eq!(value.capacity(), value.len());
            let key = module_key_bytes(&module.key);
            assert_eq!(key.capacity(), key.len());
            let cost_key = cost_key_bytes(&module.key.accelerator, &module.key);
            assert_eq!(cost_key.capacity(), cost_key.len());
            assert_eq!(put_modules(&mut store, [module]).unwrap(), 1);
            assert_eq!(
                store.batches.pop(),
                Some([1, key.len() + value.len(), 1, key.len() + value.len()]),
                "{:?}",
                module.key
            );
        }
        put_modules(&mut store, &modules).unwrap();
        let [rows, bytes, handed_rows, handed_bytes] = store.batches[0];
        assert_eq!((rows, bytes), (handed_rows, handed_bytes));
        assert_eq!(rows, modules.len());
    }

    fn varint(v: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_varint(v);
        w.finish()
    }

    fn encoded_len(put: impl FnOnce(&mut ByteCounter)) -> usize {
        let mut n = ByteCounter::new();
        put(&mut n);
        n.bytes()
    }

    /// `bytes` with the varint at `at` — which must read `was` — replaced
    /// by the encoding of `with`.
    fn splice_varint(bytes: &[u8], at: usize, was: u64, with: u64) -> Vec<u8> {
        let mut r = ByteReader::new(&bytes[at..]);
        assert_eq!(r.varint().unwrap(), was, "varint at {at}");
        let end = bytes.len() - r.remaining();
        [&bytes[..at], &varint(with), &bytes[end..]].concat()
    }

    /// Byte offset of the plan inside `encode_module(module)`: the key,
    /// the layout and the program come first.
    fn plan_offset(module: &CompiledModule) -> usize {
        encoded_len(|w| {
            put_cache_key(w, &module.key);
            put_layout(w, &module.layout);
            put_program(w, &module.program);
        })
    }

    /// Byte offset of the plan's first launch: its style and launch count
    /// come first.
    fn first_launch_offset(module: &CompiledModule) -> usize {
        plan_offset(module)
            + encoded_len(|w| put_style(w, module.plan.style()))
            + varint(module.plan.launch_count() as u64).len()
    }

    #[test]
    fn a_host_register_past_u16_is_a_codec_error() {
        // an instruction naming the last register a `Reg` holds decodes
        // and re-encodes to itself; one past it is refused
        let encodings: [fn(&mut ByteWriter, u64); 4] = [
            |w, reg| {
                w.put_u8(0);
                w.put_varint(reg);
                w.put_zigzag(-1);
            },
            |w, reg| {
                w.put_u8(1);
                put_alu_op(w, AluOp::Add);
                w.put_varint(0);
                w.put_varint(1);
                w.put_varint(reg);
            },
            |w, reg| {
                w.put_u8(7);
                w.put_varint(3);
                w.put_varint(reg);
            },
            |w, reg| {
                w.put_u8(8);
                w.put_u8(4);
                w.put_varint(reg);
                w.put_varint(0);
            },
        ];
        for put in encodings {
            let bytes = |reg: u64| {
                let mut w = ByteWriter::new();
                put(&mut w, reg);
                w.finish()
            };
            let top = bytes(u64::from(u16::MAX));
            let inst = read_inst(&mut ByteReader::new(&top)).unwrap();
            let mut again = ByteWriter::new();
            put_inst(&mut again, &inst);
            assert_eq!(again.finish(), top, "{inst:?}");
            let detail = codec_detail(read_inst(&mut ByteReader::new(&bytes(1 << 16))));
            assert!(detail.contains("u16"), "{inst:?}: {detail}");
        }

        // a program claiming more registers than a `Reg` names: the
        // machine would size its register file from the count
        let module = build_module(
            &AcceleratorDescriptor::gemmini(),
            MatmulSpec::gemmini_paper(32).unwrap(),
            OptLevel::All,
        )
        .unwrap();
        let bytes = encode_module(&module);
        let at = encoded_len(|w| {
            put_cache_key(w, &module.key);
            put_layout(w, &module.layout);
        });
        let was = module.program.reg_count() as u64;
        let widest = splice_varint(&bytes, at, was, Reg::LIMIT as u64);
        assert_eq!(
            decode_module(&widest).unwrap().program.reg_count(),
            Reg::LIMIT
        );
        for count in [Reg::LIMIT as u64 + 1, 1 << 32] {
            let detail = codec_detail(decode_module(&splice_varint(&bytes, at, was, count)));
            assert!(detail.contains("self-inconsistent"), "{count}: {detail}");
        }
    }

    #[test]
    fn a_cold_write_count_no_build_writes_is_a_codec_error() {
        // the decoder recomputes the plan's blank-file write count: a
        // record carrying any other would skew every cold quote read from it
        for (desc, spec) in [
            (
                AcceleratorDescriptor::opengemm(),
                MatmulSpec::opengemm_paper(16).unwrap(),
            ),
            (
                AcceleratorDescriptor::gemmini(),
                MatmulSpec::gemmini_paper(32).unwrap(),
            ),
        ] {
            let module = build_module(&desc, spec, OptLevel::All).unwrap();
            let bytes = encode_module(&module);
            assert_eq!(decode_module(&bytes).unwrap(), module);
            // the count is the plan's last field
            let cold = module.plan.cold_writes();
            let at = plan_offset(&module) + encoded_len(|w| put_plan(w, &module.plan))
                - varint(cold).len();
            for wrong in [cold + 7, cold - 1, 0] {
                let detail = codec_detail(decode_module(&splice_varint(&bytes, at, cold, wrong)));
                assert!(
                    detail.contains(&format!("cold-write count {wrong} is not")),
                    "{detail}"
                );
            }
        }
    }

    #[test]
    fn hostile_element_counts_are_codec_errors_not_allocations() {
        // anyone who can write the store file can recompute its checksum,
        // so a count field is outside input: patched to u32::MAX it must
        // be rejected before `Vec::with_capacity` sees it
        for (desc, spec) in [
            (
                AcceleratorDescriptor::opengemm(),
                MatmulSpec::opengemm_paper(16).unwrap(),
            ),
            (
                AcceleratorDescriptor::gemmini(),
                MatmulSpec::gemmini_paper(32).unwrap(),
            ),
        ] {
            let module = build_module(&desc, spec, OptLevel::All).unwrap();
            let bytes = encode_module(&module);
            let program = &module.program;
            // key, layout, then the program: reg_count, insts…
            let program_at = encoded_len(|w| {
                put_cache_key(w, &module.key);
                put_layout(w, &module.layout);
            });
            let labels = program.label_targets();
            let labels_len = encoded_len(|w| {
                w.put_varint(labels.len() as u64);
                labels.iter().for_each(|&t| w.put_varint(t as u64));
            });
            let first = module.plan.first();
            for (what, at, count) in [
                (
                    "instruction",
                    program_at + varint(program.reg_count() as u64).len(),
                    program.insts().len(),
                ),
                (
                    "label-target",
                    plan_offset(&module) - labels_len,
                    labels.len(),
                ),
                (
                    "launch",
                    plan_offset(&module) + encoded_len(|w| put_style(w, module.plan.style())),
                    module.plan.launch_count(),
                ),
                (
                    "listed register",
                    first_launch_offset(&module) + varint(u64::from(first.mask())).len(),
                    first.len(),
                ),
            ] {
                let patched = splice_varint(&bytes, at, count as u64, u64::from(u32::MAX));
                match decode_module(&patched) {
                    Err(StoreError::Codec { detail }) => {
                        assert!(detail.contains(what), "{detail}")
                    }
                    other => panic!("{what} count u32::MAX decoded to {other:?}"),
                }
            }
        }
    }

    #[test]
    fn module_store_restores_only_what_the_pool_fields() {
        let opengemm = AcceleratorDescriptor::opengemm();
        let gemmini = AcceleratorDescriptor::gemmini();
        let mut cache = ModuleCache::new();
        cache
            .get_or_build(
                &opengemm,
                MatmulSpec::opengemm_paper(16).unwrap(),
                OptLevel::All,
            )
            .unwrap();
        cache
            .get_or_build(
                &gemmini,
                MatmulSpec::gemmini_paper(32).unwrap(),
                OptLevel::All,
            )
            .unwrap();

        let mut store = MemStore::new();
        assert_eq!(save_modules(&mut store, &cache).unwrap(), 2);

        // A pool fielding only OpenGeMM restores only the OpenGeMM module.
        let restored = load_modules(&store, &[&opengemm]).unwrap();
        assert_eq!(restored.len(), 1);
        assert_eq!(restored[0].key.accelerator, opengemm.name);
        // The full pool restores both.
        assert_eq!(
            load_modules(&store, &[&opengemm, &gemmini]).unwrap().len(),
            2
        );
        // An empty pool restores nothing, and the store is untouched.
        assert!(load_modules(&store, &[]).unwrap().is_empty());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn cost_rows_round_trip_through_the_store() {
        let module = build_module(
            &AcceleratorDescriptor::opengemm(),
            MatmulSpec::opengemm_paper(16).unwrap(),
            OptLevel::All,
        )
        .unwrap();
        let mut refiner = CostRefiner::new();
        refiner.observe(0, 0, 0, FreqState::Cold, 500);
        refiner.observe(0, 1, WARMTH_BUCKETS - 1, FreqState::Boost, 900);

        // the refiner names the module by id; the store by its key
        let entries: Vec<CostSnapshotEntry> = refiner
            .snapshot()
            .into_iter()
            .map(|(_, platform, buckets)| {
                (format!("variant{platform}"), module.key.clone(), buckets)
            })
            .collect();
        assert_eq!(entries.len(), 2);

        let mut store = MemStore::new();
        save_costs(&mut store, &entries).unwrap();
        let mut loaded = load_costs(&store).unwrap();
        let mut expected = entries.clone();
        loaded.sort_by_key(|(p, k, _)| (p.clone(), cost_key_bytes(p, k)));
        expected.sort_by_key(|(p, k, _)| (p.clone(), cost_key_bytes(p, k)));
        assert_eq!(loaded, expected);
    }

    #[test]
    fn a_cost_value_of_the_agnostic_row_alone_is_a_codec_error() {
        // the shape written before frequency-keyed refinement: only the
        // agnostic warmth buckets, with no keyed rows behind them
        let module = build_module(
            &AcceleratorDescriptor::opengemm(),
            MatmulSpec::opengemm_paper(16).unwrap(),
            OptLevel::All,
        )
        .unwrap();
        let mut w = ByteWriter::new();
        for slot in 0..WARMTH_BUCKETS as i64 {
            w.put_zigzag((slot + 2) << 8);
        }
        let mut store = MemStore::new();
        store
            .put(&cost_key_bytes("opengemm", &module.key), &w.finish())
            .unwrap();

        assert!(matches!(load_costs(&store), Err(StoreError::Codec { .. })));
        assert!(matches!(
            load_cost_row(&store, "opengemm", &module.key),
            Err(StoreError::Codec { .. })
        ));
    }

    #[test]
    fn corrupt_module_payload_is_a_codec_error() {
        let module = build_module(
            &AcceleratorDescriptor::opengemm(),
            MatmulSpec::opengemm_paper(16).unwrap(),
            OptLevel::All,
        )
        .unwrap();
        let mut bytes = encode_module(&module);
        bytes.truncate(bytes.len() / 2);
        assert!(matches!(
            decode_module(&bytes),
            Err(StoreError::Codec { .. })
        ));
    }

    /// `encode_module(module)` with the `index`-th listed register of the
    /// plan's first launch renamed to `reg` (the first launch is written
    /// against a blank file, so it lists every register it holds).
    fn with_plan_register(module: &CompiledModule, index: usize, reg: u16) -> Vec<u8> {
        let bytes = encode_module(module);
        let first = module.plan.first();
        let mut r = ByteReader::new(&bytes[first_launch_offset(module)..]);
        assert_eq!(r.varint().unwrap(), u64::from(first.mask()), "mask offset");
        assert_eq!(r.varint().unwrap(), first.len() as u64, "count offset");
        for _ in 0..index {
            r.varint().unwrap();
            r.zigzag().unwrap();
        }
        let (&was, _) = first
            .iter()
            .nth(index)
            .expect("the first launch programs that many registers");
        let at = bytes.len() - r.remaining();
        splice_varint(&bytes, at, u64::from(was), u64::from(reg))
    }

    /// The plan of `launches`' files, through the path `from_trace` takes.
    fn plan_of(style: ConfigStyle, launches: Vec<LaunchSpec>) -> Result<DispatchPlan, usize> {
        DispatchPlan::from_files(
            style,
            launches.into_iter().map(|launch| Ok(launch.registers)),
            |launch| launch,
        )
    }

    fn codec_detail<T: std::fmt::Debug>(result: Result<T, StoreError>) -> String {
        match result {
            Err(StoreError::Codec { detail }) => detail,
            other => panic!("hostile plan decoded to {other:?}"),
        }
    }

    #[test]
    fn a_plan_register_the_simulator_lacks_is_a_codec_error() {
        // a record's checksum only says the bytes are the bytes that were
        // written: a plan naming register 40 used to decode, re-encode to
        // itself, and panic the worker that first dispatched it
        for (desc, spec) in [
            (
                AcceleratorDescriptor::opengemm(),
                MatmulSpec::opengemm_paper(16).unwrap(),
            ),
            (
                AcceleratorDescriptor::gemmini(),
                MatmulSpec::gemmini_paper(32).unwrap(),
            ),
        ] {
            let module = build_module(&desc, spec, OptLevel::All).unwrap();
            let held = module.plan.first().len();
            assert!(held >= 3);
            let registers: Vec<u16> = module.plan.first().iter().map(|(&reg, _)| reg).collect();
            // renamed to itself the record is the record
            assert_eq!(
                decode_module(&with_plan_register(&module, 1, registers[1])).unwrap(),
                module
            );
            // past the file — the first index that is, and the last u16
            for reg in [RegMap::SLOTS as u16, 40, u16::MAX] {
                let detail =
                    codec_detail(decode_module(&with_plan_register(&module, held - 1, reg)));
                assert!(detail.contains("past the 28-register file"), "{detail}");
            }
            // listed twice, and out of order: `put_plan` writes neither,
            // and neither would re-encode to the bytes it was decoded from
            for (index, reg) in [(1, registers[0]), (1, registers[2]), (0, registers[1])] {
                let detail = codec_detail(decode_module(&with_plan_register(&module, index, reg)));
                assert!(detail.contains("out of ascending order"), "{detail}");
            }
        }

        // a RoCC launch command writes its own pair like any other
        let module = build_module(
            &AcceleratorDescriptor::gemmini(),
            MatmulSpec::gemmini_paper(32).unwrap(),
            OptLevel::All,
        )
        .unwrap();
        let funct_at = plan_offset(&module) + 1;
        let mut bytes = encode_module(&module);
        assert_eq!(bytes[funct_at], 13);
        for funct in [14, 255] {
            bytes[funct_at] = funct;
            let detail = codec_detail(decode_module(&bytes));
            assert!(detail.contains("launch funct"), "{detail}");
        }
    }

    /// One launch as `put_plan` lays it out: the held mask and the listed
    /// `(register, value)` entries, written as given.
    type RawLaunch<'a> = (u32, &'a [(u16, i64)]);

    /// Decodes a plan written field by field, so a test can write what
    /// `put_plan` never would.
    fn read_raw_plan(
        style: ConfigStyle,
        launches: &[RawLaunch],
        cold_writes: u64,
    ) -> Result<DispatchPlan, StoreError> {
        let mut w = ByteWriter::new();
        put_style(&mut w, style);
        w.put_varint(launches.len() as u64);
        for &(mask, listed) in launches {
            w.put_varint(u64::from(mask));
            w.put_varint(listed.len() as u64);
            for &(reg, value) in listed {
                w.put_varint(u64::from(reg));
                w.put_zigzag(value);
            }
        }
        w.put_varint(cold_writes);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let plan = read_plan(&mut r)?;
        r.expect_exhausted("plan")?;
        Ok(plan)
    }

    #[test]
    fn a_plan_that_would_not_re_encode_to_itself_is_a_codec_error() {
        let csr = ConfigStyle::Csr;
        let bits = |regs: &[u16]| regs.iter().fold(0u32, |mask, &reg| mask | 1 << reg);
        // the well-formed shape first: one held set, values that change,
        // change back and stay put
        let plan = read_raw_plan(
            csr,
            &[
                (bits(&[1, 2, 3]), &[(1, 5), (2, 0), (3, 0)]),
                (bits(&[1, 2, 3]), &[(2, -7)]),
                (bits(&[1, 2, 3]), &[]),
                (bits(&[1, 2, 3]), &[(1, 6), (2, 0)]),
            ],
            // 3 onto the blank file, then 1, none and 2
            6,
        )
        .unwrap();
        let files: Vec<RegMap> = plan.launches().map(|l| l.registers).collect();
        assert_eq!(
            files,
            [
                RegMap::from([(1, 5), (2, 0), (3, 0)]),
                RegMap::from([(1, 5), (2, -7), (3, 0)]),
                RegMap::from([(1, 5), (2, -7), (3, 0)]),
                RegMap::from([(1, 6), (2, 0), (3, 0)]),
            ]
        );

        for (style, launches, expected) in [
            (csr, vec![(1 << 28, &[(28, 1)][..])], "register 28 is past"),
            (csr, vec![(1 << 31, &[][..])], "register 31 is past"),
            (
                csr,
                vec![(bits(&[1]), &[(1, 5), (2, 3)][..])],
                "listed but not held",
            ),
            (
                csr,
                vec![(bits(&[1, 2]), &[(2, 3), (1, 5)][..])],
                "out of ascending order",
            ),
            (
                csr,
                vec![(bits(&[1, 2]), &[(1, 3), (1, 3)][..])],
                "out of ascending order",
            ),
            (
                csr,
                vec![(bits(&[1, 2]), &[(1, 5)][..])],
                "register 2 is newly held",
            ),
            (
                csr,
                vec![(bits(&[1]), &[(1, 5)][..]), (bits(&[1]), &[(1, 5)][..])],
                "value it inherits",
            ),
            // a held set that grows, shrinks, or re-holds a register
            // dropped earlier: refused where the mask is read
            (
                csr,
                vec![(bits(&[1]), &[(1, 5)][..]), (bits(&[1, 4]), &[(4, 0)][..])],
                "launch 1 holds registers 0x12, not launch 0's 0x2",
            ),
            (
                csr,
                vec![
                    (bits(&[1, 2]), &[(1, 5), (2, 0)][..]),
                    (bits(&[1, 2]), &[(2, -7)][..]),
                    (bits(&[2]), &[][..]),
                ],
                "launch 2 holds registers 0x4, not launch 0's 0x6",
            ),
            (
                csr,
                vec![
                    (bits(&[1, 2]), &[(1, 5), (2, 0)][..]),
                    (bits(&[2]), &[][..]),
                    (bits(&[1, 2]), &[(1, 5)][..]),
                ],
                "launch 1 holds registers 0x4, not launch 0's 0x6",
            ),
            (
                ConfigStyle::RoccPairs { launch_funct: 13 },
                vec![(bits(&[1, 26]), &[(1, 5), (26, 1)][..])],
                "register 26 is in the launch pair of funct 13",
            ),
            (
                ConfigStyle::RoccPairs { launch_funct: 3 },
                vec![(bits(&[7]), &[(7, 0)][..])],
                "register 7 is in the launch pair of funct 3",
            ),
        ] {
            let detail = codec_detail(read_raw_plan(style, &launches, 0));
            assert!(detail.contains(expected), "{expected}: {detail}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Any plan of 1–8 launches over one held set — any set, the
        /// empty one included, with values that repeat, change and hit the
        /// ends of `i64` — encodes to bytes that decode to the same plan
        /// and re-encode to themselves, in both configuration styles.
        #[test]
        fn plan_deltas_round_trip_canonically(
            held in proptest::collection::vec(0u16..RegMap::SLOTS as u16, 0..RegMap::SLOTS + 8),
            values in proptest::collection::vec(
                proptest::collection::vec(-2i64..3, RegMap::SLOTS..RegMap::SLOTS + 1),
                1..9,
            ),
            rocc in proptest::arbitrary::any::<bool>(),
        ) {
            // the launch command owns the last pair of a RoCC file
            let (style, regs) = if rocc {
                (ConfigStyle::RoccPairs { launch_funct: 13 }, RegMap::SLOTS as u16 - 2)
            } else {
                (ConfigStyle::Csr, RegMap::SLOTS as u16)
            };
            let plan = plan_of(
                style,
                values
                    .iter()
                    .map(|row| LaunchSpec {
                        registers: held
                            .iter()
                            .map(|&reg| {
                                let reg = reg % regs;
                                let value = match row[usize::from(reg)] {
                                    -2 => i64::MIN,
                                    2 => i64::MAX,
                                    small => small,
                                };
                                (reg, value)
                            })
                            .collect(),
                    })
                    .collect(),
            )
            .unwrap();
            let mut w = ByteWriter::new();
            put_plan(&mut w, &plan);
            let bytes = w.finish();
            let mut r = ByteReader::new(&bytes);
            let decoded = read_plan(&mut r).expect("an encoded plan decodes");
            proptest::prop_assert!(r.expect_exhausted("plan").is_ok());
            let mut again = ByteWriter::new();
            put_plan(&mut again, &decoded);
            proptest::prop_assert_eq!(&decoded, &plan);
            proptest::prop_assert_eq!(again.finish(), bytes);
        }
    }

    /// Populates a store by serving `victim` and `bystander` on a pool of
    /// `desc`, plants `hostile(victim's module)` under the victim's key,
    /// and checks a serve that never resolves the victim is unaffected
    /// while one that does fails with a codec error naming `expected`.
    fn a_planted_record_fails_only_its_serve(
        desc: AcceleratorDescriptor,
        (victim, bystander): (MatmulSpec, MatmulSpec),
        hostile: impl Fn(&CompiledModule) -> Vec<u8>,
        expected: &str,
    ) {
        use crate::runtime::{PoolConfig, Runtime, ServeConfig};
        use crate::ServeError;
        use accfg_workloads::TrafficRequest;
        use std::sync::atomic::{AtomicUsize, Ordering};

        // one file per call: the tests calling this run in parallel
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "accfg-runtime-hostile-plan-{}-{}-{}.store",
            desc.name,
            std::process::id(),
            CALLS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);
        let request = |id: u64, spec: MatmulSpec| TrafficRequest {
            id,
            accelerator: desc.name.clone(),
            spec,
            arrival: 100 * id,
            seed: id,
        };
        let serve = |stream: &[TrafficRequest]| {
            Runtime::new(PoolConfig::new(vec![desc.clone()])).serve(
                stream,
                &ServeConfig {
                    store: Some(path.clone()),
                    ..ServeConfig::default()
                },
            )
        };
        let (victim, bystander) = (request(0, victim), request(1, bystander));
        serve(&[victim.clone(), bystander.clone()]).expect("populating serve");

        // plant the hostile record through the store: the checksum is
        // valid, only the typed layer can refuse it
        let module = build_module(&desc, victim.spec, OptLevel::All).unwrap();
        let key = module_key_bytes(&module.key);
        {
            let mut store = LogStore::open(&path).expect("open");
            assert_eq!(store.get(&key), Some(&encode_module(&module)[..]));
            store
                .put(&key, &hostile(&module))
                .expect("plant the record");
            store.sync().expect("sync");
        }

        let unaffected = serve(std::slice::from_ref(&bystander)).expect("never resolves it");
        assert_eq!(unaffected.metrics.cache.misses, 0);
        assert_eq!(unaffected.metrics.sim_failures, 0);
        match serve(&[bystander, victim]) {
            Err(ServeError::Store(StoreError::Codec { detail })) => {
                assert!(detail.contains(expected), "{detail}")
            }
            other => panic!("resolving the hostile record gave {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_hostile_plan_record_fails_only_the_serve_that_resolves_it() {
        a_planted_record_fails_only_its_serve(
            AcceleratorDescriptor::opengemm(),
            (
                MatmulSpec::opengemm_paper(16).unwrap(),
                MatmulSpec::opengemm_paper(24).unwrap(),
            ),
            |module| with_plan_register(module, 0, 40),
            "register 40",
        );
    }

    #[test]
    fn a_plan_holding_the_rocc_launch_pair_fails_only_the_serve_that_resolves_it() {
        // `from_trace` refuses a field in the launch command's pair
        // (`LaunchPairField`); a stored plan holding register 26 under
        // launch funct 13 is refused at the store door the same way
        a_planted_record_fails_only_its_serve(
            AcceleratorDescriptor::gemmini(),
            (
                MatmulSpec::gemmini_paper(16).unwrap(),
                MatmulSpec::gemmini_paper(32).unwrap(),
            ),
            |module| {
                assert_eq!(
                    module.plan.style(),
                    ConfigStyle::RoccPairs { launch_funct: 13 }
                );
                let launches = module.plan.launches().map(|mut launch| {
                    launch.registers.insert(26, 1);
                    launch
                });
                let mut hostile = module.clone();
                hostile.plan = plan_of(module.plan.style(), launches.collect()).unwrap();
                encode_module(&hostile)
            },
            "register 26 is in the launch pair of funct 13",
        );
    }

    /// `encode_module(module)` with launch `index`'s held mask replaced by
    /// `mask`.
    fn with_launch_mask(module: &CompiledModule, index: usize, mask: u32) -> Vec<u8> {
        let bytes = encode_module(module);
        let mut r = ByteReader::new(&bytes[first_launch_offset(module)..]);
        for launch in module.plan.launches().take(index) {
            assert_eq!(r.varint().unwrap(), u64::from(launch.registers.mask()));
            for _ in 0..r.varint().unwrap() {
                r.varint().unwrap();
                r.zigzag().unwrap();
            }
        }
        let was = module.plan.launches().nth(index).unwrap().registers.mask();
        splice_varint(
            &bytes,
            bytes.len() - r.remaining(),
            u64::from(was),
            u64::from(mask),
        )
    }

    #[test]
    fn a_plan_whose_held_set_changes_fails_only_the_serve_that_resolves_it() {
        // `from_trace` refuses such a trace (`HeldSetChanges`); a stored
        // plan whose second launch drops a register, or holds one more, is
        // refused at the store door where its mask is read
        for grows in [false, true] {
            a_planted_record_fails_only_its_serve(
                AcceleratorDescriptor::opengemm(),
                (
                    MatmulSpec::opengemm_paper(16).unwrap(),
                    MatmulSpec::opengemm_paper(24).unwrap(),
                ),
                |module| {
                    let launches: Vec<LaunchSpec> = module.plan.launches().collect();
                    assert!(launches.len() > 1, "{} launches", launches.len());
                    let mask = launches[1].registers.mask();
                    // register 27 lies past every OpenGeMM field
                    let changed = if grows {
                        mask | 1 << 27
                    } else {
                        mask & (mask - 1)
                    };
                    with_launch_mask(module, 1, changed)
                },
                "launch 1 holds registers",
            );
        }
    }
}
