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
//! Values use [`ByteWriter`]'s varints throughout, and a plan stores each
//! launch's register file as its change from the launch before (`put_plan`):
//! consecutive launches of one module hold mostly the same values.
//!
//! Determinism contract: save functions sort rows by encoded key before
//! writing, and the codec is canonical — the decoders refuse every byte
//! string the encoders would not write, so `encode(decode(b)?) == b` —
//! so identical runs drive identical `put` sequences, which
//! [`accfg_store::LogStore`] turns into byte-identical files.
//!
//! [`ServeError::AmbiguousVariantName`]: crate::ServeError::AmbiguousVariantName
//! [`CostRefiner`]: crate::CostRefiner

use crate::cache::{
    CacheKey, CompiledModule, CostModel, CostRow, ModuleCache, COST_ROWS, WARMTH_BUCKETS,
};
use crate::metrics::WarmStartStats;
use crate::plan::{DispatchPlan, LaunchSpec, RegMap};
use accfg::pipeline::OptLevel;
use accfg_sim::{AluOp, BranchCond, Inst, Label, Program, Reg, Width};
use accfg_store::{ByteReader, ByteWriter, KeyValueStore, LogStore, StoreError};
use accfg_targets::{AcceleratorDescriptor, ConfigStyle};
use accfg_workloads::{MatmulLayout, MatmulSpec};
use std::collections::{BTreeSet, HashSet};
use std::path::Path;

/// Key-namespace prefix for compiled-module records.
pub const MODULE_PREFIX: u8 = b'm';
/// Key-namespace prefix for cost-refiner records.
pub const COST_PREFIX: u8 = b'c';

/// One persisted cost-refiner row: the EWMA bucket rows of `module` on
/// the platform named `platform` — the mode-agnostic row followed by one
/// row per DVFS frequency state (raw fixed-point, `-1` for unseen
/// buckets).
pub type CostSnapshotEntry = (String, CacheKey, CostRow);

fn put_spec(w: &mut ByteWriter, spec: &MatmulSpec) {
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

fn put_opt(w: &mut ByteWriter, opt: OptLevel) {
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

fn put_cache_key(w: &mut ByteWriter, key: &CacheKey) {
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

/// The store key a module is filed under: `m` + canonical `(family,
/// shape, opt)` encoding.
pub fn module_key_bytes(key: &CacheKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(MODULE_PREFIX);
    put_cache_key(&mut w, key);
    w.finish()
}

/// The store key a cost row is filed under: `c` + platform name +
/// canonical module key encoding.
pub fn cost_key_bytes(platform: &str, key: &CacheKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(COST_PREFIX);
    w.put_str(platform);
    put_cache_key(&mut w, key);
    w.finish()
}

fn put_style(w: &mut ByteWriter, style: ConfigStyle) {
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

/// Writes each launch's register file as its change from the one before
/// (the first launch against a blank file): the held-register mask, the
/// count of listed registers, then each listed register — one newly held
/// or holding a new value — ascending, with its zigzagged value. A
/// register the previous launch held and this one keeps at the same value
/// is implied by the mask; one outside the mask is dropped.
fn put_plan(w: &mut ByteWriter, plan: &DispatchPlan) {
    put_style(w, plan.style());
    w.put_varint(plan.launches().len() as u64);
    let mut previous = &RegMap::new();
    for launch in plan.launches() {
        let regs = &launch.registers;
        let changed = || {
            regs.iter()
                .filter(|&(reg, value)| previous.get(reg) != Some(value))
        };
        w.put_varint(u64::from(regs.mask()));
        w.put_varint(changed().count() as u64);
        for (&reg, &value) in changed() {
            w.put_varint(u64::from(reg));
            w.put_zigzag(value);
        }
        previous = regs;
    }
    w.put_varint(plan.cold_writes());
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

/// Reads one launch's register file as [`put_plan`] writes it, against
/// the `previous` launch's. Everything `put_plan` never writes is refused,
/// so an accepted launch re-encodes to exactly the bytes it was read from
/// and holds only registers a worker's machine can be told to write: a
/// mask bit past the file or inside a RoCC launch pair, a listed register
/// past the file, out of ascending order, listed twice, outside the mask
/// or repeating the value it would inherit, and a newly held register
/// with no listed value.
fn read_launch(
    r: &mut ByteReader,
    style: ConfigStyle,
    previous: &RegMap,
) -> Result<RegMap, StoreError> {
    let mask: u32 = r.varint_to()?;
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
    let mut regs = previous.clone();
    regs.keep(mask);
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
        if previous.get(&reg) == Some(&value) {
            return Err(StoreError::codec(format!(
                "configuration register {reg} is listed with the value it inherits"
            )));
        }
        listed |= bit;
        regs.insert(reg, value);
    }
    let unset = mask & !previous.mask() & !listed;
    if unset != 0 {
        return Err(StoreError::codec(format!(
            "configuration register {} is newly held with no listed value",
            unset.trailing_zeros()
        )));
    }
    Ok(regs)
}

fn read_plan(r: &mut ByteReader) -> Result<DispatchPlan, StoreError> {
    let style = read_style(r)?;
    let count = read_count(r, "launch")?;
    let mut launches: Vec<LaunchSpec> = Vec::with_capacity(count);
    for _ in 0..count {
        let blank = RegMap::new();
        let previous = launches.last().map_or(&blank, |launch| &launch.registers);
        let registers = read_launch(r, style, previous)?;
        launches.push(LaunchSpec { registers });
    }
    let stored = r.varint()?;
    let plan = DispatchPlan::new(style, launches);
    // no build writes any other count, and a cold quote is read from it
    if stored != plan.cold_writes() {
        return Err(StoreError::codec(format!(
            "stored cold-write count {stored} is not the plan's blank-file count {}",
            plan.cold_writes()
        )));
    }
    Ok(plan)
}

fn put_alu_op(w: &mut ByteWriter, op: AluOp) {
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

fn put_width(w: &mut ByteWriter, width: Width) {
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

fn put_cond(w: &mut ByteWriter, cond: BranchCond) {
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

fn put_inst(w: &mut ByteWriter, inst: &Inst) {
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

fn put_program(w: &mut ByteWriter, program: &Program) {
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

fn put_cost_model(w: &mut ByteWriter, cost: &CostModel) {
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

fn put_layout(w: &mut ByteWriter, layout: &MatmulLayout) {
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

/// Serializes one compiled module to its canonical store value.
pub fn encode_module(module: &CompiledModule) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_cache_key(&mut w, &module.key);
    put_layout(&mut w, &module.layout);
    put_program(&mut w, &module.program);
    put_plan(&mut w, &module.plan);
    put_cost_model(&mut w, &module.cost);
    w.put_varint(module.ir_setup_writes as u64);
    w.finish()
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

/// Writes `rows` as one batch, in encoded-key order, so identical inputs
/// drive identical writes whatever order they were collected in. Returns
/// the number of rows written (including unchanged ones the store elides).
fn put_sorted(
    store: &mut dyn KeyValueStore,
    mut rows: Vec<(Vec<u8>, Vec<u8>)>,
) -> Result<u64, StoreError> {
    rows.sort();
    store.put_all(&rows)?;
    Ok(rows.len() as u64)
}

fn module_row(module: &CompiledModule) -> (Vec<u8>, Vec<u8>) {
    (module_key_bytes(&module.key), encode_module(module))
}

/// Persists every cached module, sorted by encoded key so identical
/// caches drive identical write sequences. Returns the number of modules
/// written (including unchanged ones the store elides as no-ops).
///
/// # Errors
/// Propagates store I/O failures.
pub fn save_modules(store: &mut dyn KeyValueStore, cache: &ModuleCache) -> Result<u64, StoreError> {
    let rows = cache.snapshot().iter().map(|m| module_row(m)).collect();
    put_sorted(store, rows)
}

/// Whether a pool whose family base is `desc` can field `module`: the
/// names match and the persisted plan's configuration style is executable
/// there.
fn fields(desc: &AcceleratorDescriptor, module: &CompiledModule) -> bool {
    desc.name == module.key.accelerator && module.plan.executable_on(desc)
}

/// Decodes the module record stored under `store_key`, rejecting one
/// whose own key encodes differently.
fn decode_filed_module(store_key: &[u8], value: &[u8]) -> Result<CompiledModule, StoreError> {
    let module = decode_module(value)?;
    if module_key_bytes(&module.key) != store_key {
        return Err(StoreError::codec("module filed under the wrong key"));
    }
    Ok(module)
}

/// Decodes the record filed under `key`, if the store holds one —
/// whether or not the base resolving it can field it.
fn stored_module(
    store: &dyn KeyValueStore,
    key: &CacheKey,
) -> Result<Option<CompiledModule>, StoreError> {
    let store_key = module_key_bytes(key);
    store
        .get(&store_key)
        .map(|value| decode_filed_module(&store_key, value))
        .transpose()
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
        let module = decode_filed_module(&key, value)?;
        if descriptors.iter().any(|desc| fields(desc, &module)) {
            modules.push(module);
        }
    }
    Ok(modules)
}

fn cost_row(entry: &CostSnapshotEntry) -> (Vec<u8>, Vec<u8>) {
    let (platform, key, buckets) = entry;
    let mut w = ByteWriter::new();
    for row in buckets {
        for &slot in row {
            w.put_zigzag(slot);
        }
    }
    (cost_key_bytes(platform, key), w.finish())
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
    put_sorted(store, entries.iter().map(cost_row).collect())
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
/// keys this serve decoded from it, and the provenance it reports.
///
/// Restore is per key, on first resolve: [`WarmStart::restore_module`]
/// reads only keys the stream names and the module cache misses, and
/// [`WarmStart::cost_rows`] only for the modules the stream resolved — so
/// a serve pays for its working set, not for the store. Records the
/// stream never names are neither decoded nor rewritten; a corrupt one
/// among them stays on disk unnoticed, while a corrupt record the stream
/// does resolve is a typed [`StoreError::Codec`].
#[derive(Debug)]
pub struct WarmStart {
    store: LogStore,
    /// Module keys decoded from `store` during this serve: their records
    /// are already byte-identical to what a flush would write.
    restored: HashSet<CacheKey>,
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
            restored: HashSet::new(),
            seeded: 0,
            unfieldable: 0,
        })
    }

    /// Installs the stored module for `(desc, spec, opt)` into `cache` if
    /// the cache misses it and the store holds one `desc` can field; one
    /// it cannot field is counted and the caller's build replaces it. A
    /// module the cache already holds is never looked up: a fresh build
    /// wins over a stored record.
    ///
    /// # Errors
    /// See [`load_module`].
    pub fn restore_module(
        &mut self,
        cache: &mut ModuleCache,
        desc: &AcceleratorDescriptor,
        spec: MatmulSpec,
        opt: OptLevel,
    ) -> Result<(), StoreError> {
        let key = CacheKey {
            accelerator: desc.name.clone(),
            spec,
            opt,
        };
        if cache.contains(&key) {
            return Ok(());
        }
        match stored_module(&self.store, &key)? {
            Some(module) if fields(desc, &module) => {
                cache.restore(module);
                self.restored.insert(key);
            }
            Some(_) => self.unfieldable += 1,
            None => {}
        }
        Ok(())
    }

    /// The stored cost rows of the distinct `modules` on the distinct
    /// `platforms` (repeats of a platform are skipped), each as `(the
    /// module's position in modules, platform, row)`; every row found
    /// seeds the serve's refiner.
    ///
    /// # Errors
    /// See [`load_cost_row`].
    pub fn cost_rows<'a>(
        &mut self,
        platforms: impl IntoIterator<Item = &'a str>,
        modules: impl IntoIterator<Item = &'a CompiledModule>,
    ) -> Result<Vec<(usize, String, CostRow)>, StoreError> {
        let platforms: BTreeSet<&str> = platforms.into_iter().collect();
        let mut rows = Vec::new();
        for (position, module) in modules.into_iter().enumerate() {
            for &platform in &platforms {
                if let Some(row) = load_cost_row(&self.store, platform, &module.key)? {
                    rows.push((position, platform.to_string(), row));
                }
            }
        }
        self.seeded = rows.len() as u64;
        Ok(rows)
    }

    /// Flush-on-finish: persists what the serve built or changed — the
    /// cached modules that were not decoded from this store, and the
    /// refiner's `snapshot` (seeded from [`WarmStart::cost_rows`], so it
    /// holds only rows the serve could touch) — syncs, and returns the
    /// serve's provenance. Writes are
    /// sorted and identical values elided at the log layer, so an
    /// identical re-run leaves the file byte-for-byte unchanged; skipping
    /// the decoded modules is byte-neutral because
    /// `encode_module(&decode_module(b)?) == b`.
    ///
    /// # Errors
    /// Propagates store I/O failures.
    pub fn flush(
        mut self,
        cache: &ModuleCache,
        snapshot: &[CostSnapshotEntry],
    ) -> Result<WarmStartStats, StoreError> {
        let built = cache
            .snapshot()
            .iter()
            .filter(|module| !self.restored.contains(&module.key))
            .map(|module| module_row(module))
            .collect();
        put_sorted(&mut self.store, built)?;
        save_costs(&mut self.store, snapshot)?;
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
    use crate::cache::{build_module, CostRefiner};
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

    fn varint(v: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_varint(v);
        w.finish()
    }

    fn encoded_len(put: impl FnOnce(&mut ByteWriter)) -> usize {
        let mut w = ByteWriter::new();
        put(&mut w);
        w.finish().len()
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
            + varint(module.plan.launches().len() as u64).len()
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
            let first = &module.plan.launches()[0].registers;
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
                    module.plan.launches().len(),
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
        let first = &module.plan.launches()[0].registers;
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
            let held = module.plan.launches()[0].registers.len();
            assert!(held >= 3);
            let registers: Vec<u16> = module.plan.launches()[0]
                .registers
                .iter()
                .map(|(&reg, _)| reg)
                .collect();
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
        // the well-formed shape first: held masks that grow, shrink and
        // re-hold a register dropped earlier (listed again, same value)
        let plan = read_raw_plan(
            csr,
            &[
                (bits(&[1, 2]), &[(1, 5), (2, 0)]),
                (bits(&[1, 2, 3]), &[(2, -7), (3, 0)]),
                (bits(&[2]), &[]),
                (bits(&[1, 2]), &[(1, 5)]),
            ],
            // 2 onto the blank file, then 2 and 3; register 1 persists
            4,
        )
        .unwrap();
        let files: Vec<RegMap> = plan
            .launches()
            .iter()
            .map(|l| l.registers.clone())
            .collect();
        assert_eq!(
            files,
            [
                RegMap::from([(1, 5), (2, 0)]),
                RegMap::from([(1, 5), (2, -7), (3, 0)]),
                RegMap::from([(2, -7)]),
                RegMap::from([(1, 5), (2, -7)]),
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
            (
                csr,
                vec![(bits(&[1]), &[(1, 5)][..]), (bits(&[1, 4]), &[][..])],
                "register 4 is newly held",
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

        /// Any plan of 1–8 launches — held masks that grow and shrink,
        /// values that repeat, change and hit the ends of `i64` — encodes
        /// to bytes that decode to the same plan and re-encode to
        /// themselves, in both configuration styles.
        #[test]
        fn plan_deltas_round_trip_canonically(
            launches in proptest::collection::vec(
                proptest::collection::vec((0u16..RegMap::SLOTS as u16, -2i64..3), 0..RegMap::SLOTS + 8),
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
            let plan = DispatchPlan::new(
                style,
                launches
                    .iter()
                    .map(|pairs| LaunchSpec {
                        registers: pairs
                            .iter()
                            .map(|&(reg, value)| {
                                let value = match value {
                                    -2 => i64::MIN,
                                    2 => i64::MAX,
                                    small => small,
                                };
                                (reg % regs, value)
                            })
                            .collect(),
                    })
                    .collect(),
            );
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

        let path = std::env::temp_dir().join(format!(
            "accfg-runtime-hostile-plan-{}-{}.store",
            desc.name,
            std::process::id()
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
                let mut launches = module.plan.launches().to_vec();
                launches[0].registers.insert(26, 1);
                let mut hostile = module.clone();
                hostile.plan = DispatchPlan::new(module.plan.style(), launches);
                encode_module(&hostile)
            },
            "register 26 is in the launch pair of funct 13",
        );
    }
}
