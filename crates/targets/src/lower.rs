//! Lowering accfg-level IR to target instruction streams (step 5 of
//! Figure 8).
//!
//! The only target-specific knowledge lives in the
//! [`AcceleratorDescriptor`]: field-name → configuration-register mapping
//! and the configuration style. CSR targets get one `csrw` per field; RoCC
//! targets get one 16-byte custom command per *register pair*, with the
//! launch-semantic pair deferred to `accfg.launch` (Gemmini has no
//! dedicated launch instruction — the last command of the sequence
//! launches, Section 2.4).
//!
//! For RoCC pair commands that only have one freshly-written half, the
//! lowering reuses the host register that last supplied the other half
//! (hardware cannot write half a pair) — this is exactly why deduplication
//! saves fewer bytes on pair-granular interfaces, an effect the evaluation
//! reproduces.

use crate::descriptor::{AcceleratorDescriptor, ConfigStyle};
use accfg::{accelerator as accfg_accel, setup_fields};
use accfg_ir::{BlockId, CmpPredicate, Module, OpId, Opcode, ValueId, ValueMap};
use accfg_sim::{regmap, AluOp, BranchCond, Program, ProgramBuilder, Reg};
use std::error::Error;
use std::fmt;

/// Why lowering failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The op has no lowering (opaque/foreign ops must be gone by now).
    UnsupportedOp {
        /// The op's dotted name.
        op: String,
    },
    /// A setup references a field the descriptor does not declare.
    UnknownField {
        /// The accelerator named by the setup.
        accelerator: String,
        /// The missing field.
        field: String,
    },
    /// A setup writes a field the descriptor maps to a configuration
    /// register the simulated accelerator does not have
    /// (`reg >= regmap::COUNT`).
    RegisterOutOfRange {
        /// The accelerator named by the setup.
        accelerator: String,
        /// The offending field.
        field: String,
        /// The register index its descriptor entry names.
        reg: u16,
    },
    /// The program drives an accelerator other than the target's.
    WrongAccelerator {
        /// What the descriptor lowers for.
        expected: String,
        /// What the program used.
        found: String,
    },
    /// No function with the requested name.
    NoSuchFunc(String),
    /// Wrong number of argument values for the function.
    ArgCount {
        /// Parameters declared.
        expected: usize,
        /// Values provided.
        provided: usize,
    },
    /// The program needs more host registers than a [`Reg`] can name
    /// ([`Reg::LIMIT`]).
    TooManyRegisters,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnsupportedOp { op } => write!(f, "cannot lower op `{op}`"),
            LowerError::UnknownField { accelerator, field } => {
                write!(f, "accelerator `{accelerator}` has no field `{field}`")
            }
            LowerError::RegisterOutOfRange {
                accelerator,
                field,
                reg,
            } => write!(
                f,
                "field `{field}` of `{accelerator}` maps to configuration register {reg}, \
                 past the {}-register file",
                regmap::COUNT
            ),
            LowerError::WrongAccelerator { expected, found } => {
                write!(
                    f,
                    "program targets `{found}` but descriptor is for `{expected}`"
                )
            }
            LowerError::NoSuchFunc(name) => write!(f, "no function named `{name}`"),
            LowerError::ArgCount { expected, provided } => {
                write!(f, "function expects {expected} arguments, got {provided}")
            }
            LowerError::TooManyRegisters => {
                write!(f, "program needs more than {} host registers", Reg::LIMIT)
            }
        }
    }
}

impl Error for LowerError {}

/// Compiles `func_name` of `m` to a target program, binding the function's
/// arguments to the concrete values `args` (the runtime pointers/sizes the
/// kernel is linked against).
///
/// # Errors
///
/// See [`LowerError`].
pub fn compile(
    m: &Module,
    func_name: &str,
    desc: &AcceleratorDescriptor,
    args: &[i64],
) -> Result<Program, LowerError> {
    let func = m
        .func_by_name(func_name)
        .ok_or_else(|| LowerError::NoSuchFunc(func_name.to_string()))?;
    let body = m.body_block(func, 0);
    let params = &m.block(body).args;
    if params.len() != args.len() {
        return Err(LowerError::ArgCount {
            expected: params.len(),
            provided: args.len(),
        });
    }
    let mut l = Lowerer {
        m,
        desc,
        pb: ProgramBuilder::new(),
        vals: ValueMap::with_capacity(m.value_count()),
        shadow: [None; regmap::COUNT],
        zero: None,
    };
    for (&p, &a) in params.iter().zip(args.iter()) {
        let r = l.reg_for(p)?;
        l.pb.li(r, a);
    }
    l.lower_block(body)?;
    l.pb.halt();
    // a compiled program is kept (a cached module holds it for its life):
    // at its length, not at what its builder grew to
    let mut program = l.pb.finish();
    program.shrink_to_fit();
    Ok(program)
}

struct Lowerer<'a> {
    m: &'a Module,
    desc: &'a AcceleratorDescriptor,
    pb: ProgramBuilder,
    vals: ValueMap<Reg>,
    /// configuration register index → host register that last supplied it
    shadow: [Option<Reg>; regmap::COUNT],
    zero: Option<Reg>,
}

impl<'a> Lowerer<'a> {
    /// A fresh host register, or the error once the file is full.
    fn fresh(&mut self) -> Result<Reg, LowerError> {
        self.pb.try_reg().ok_or(LowerError::TooManyRegisters)
    }

    fn reg_for(&mut self, v: ValueId) -> Result<Reg, LowerError> {
        if let Some(&r) = self.vals.get(v) {
            return Ok(r);
        }
        let r = self.fresh()?;
        self.vals.insert(v, r);
        Ok(r)
    }

    fn zero_reg(&mut self) -> Result<Reg, LowerError> {
        match self.zero {
            Some(r) => Ok(r),
            None => {
                let r = self.fresh()?;
                self.pb.li(r, 0);
                self.zero = Some(r);
                Ok(r)
            }
        }
    }

    /// `rd = rs` via `addi rd, rs, 0`.
    fn mov(&mut self, rd: Reg, rs: Reg) {
        self.pb.alui(AluOp::Add, rd, rs, 0);
    }

    fn lower_block(&mut self, block: BlockId) -> Result<(), LowerError> {
        let m = self.m;
        for &op in m.block_ops(block) {
            self.lower_op(op)?;
        }
        Ok(())
    }

    fn lower_op(&mut self, op: OpId) -> Result<(), LowerError> {
        let m = self.m;
        let data = m.op(op);
        let opcode = data.opcode;
        match opcode {
            Opcode::Constant => {
                let v = m.int_attr(op, "value").expect("verified constant");
                let rd = self.reg_for(data.results[0])?;
                self.pb.li(rd, v);
            }
            o if o.is_binary_arith() => {
                let rs1 = self.reg_for(data.operands[0])?;
                let rs2 = self.reg_for(data.operands[1])?;
                let rd = self.reg_for(data.results[0])?;
                let alu = match o {
                    Opcode::AddI => AluOp::Add,
                    Opcode::SubI => AluOp::Sub,
                    Opcode::MulI => AluOp::Mul,
                    Opcode::DivUI => AluOp::Divu,
                    Opcode::RemUI => AluOp::Remu,
                    Opcode::AndI => AluOp::And,
                    Opcode::OrI => AluOp::Or,
                    Opcode::XOrI => AluOp::Xor,
                    Opcode::ShLI => AluOp::Sll,
                    Opcode::ShRUI => AluOp::Srl,
                    _ => unreachable!("binary arith"),
                };
                self.pb.alu(alu, rd, rs1, rs2);
            }
            Opcode::CmpI => self.lower_cmp(op)?,
            Opcode::Select => {
                let cond = self.reg_for(data.operands[0])?;
                let t = self.reg_for(data.operands[1])?;
                let f = self.reg_for(data.operands[2])?;
                let rd = self.reg_for(data.results[0])?;
                let zero = self.zero_reg()?;
                let skip = self.pb.new_label();
                self.mov(rd, f);
                self.pb.branch(BranchCond::Eq, cond, zero, skip);
                self.mov(rd, t);
                self.pb.bind(skip);
            }
            Opcode::For => self.lower_for(op)?,
            Opcode::If => self.lower_if(op)?,
            Opcode::Yield | Opcode::Return => {} // handled by parents / epilogue
            Opcode::AccfgSetup => self.lower_setup(op)?,
            Opcode::AccfgLaunch => self.lower_launch(op)?,
            Opcode::AccfgAwait => self.pb.await_idle(),
            _ => {
                return Err(LowerError::UnsupportedOp {
                    op: opcode.name().to_string(),
                })
            }
        }
        Ok(())
    }

    fn lower_cmp(&mut self, op: OpId) -> Result<(), LowerError> {
        let data = self.m.op(op);
        let a = self.reg_for(data.operands[0])?;
        let b = self.reg_for(data.operands[1])?;
        let rd = self.reg_for(data.results[0])?;
        let pred = self
            .m
            .str_attr(op, "predicate")
            .and_then(CmpPredicate::from_name)
            .expect("verified predicate");
        match pred {
            CmpPredicate::Eq => {
                let t = self.fresh()?;
                self.pb.alu(AluOp::Xor, t, a, b);
                self.pb.alui(AluOp::Sltu, rd, t, 1);
            }
            CmpPredicate::Ne => {
                let t = self.fresh()?;
                let zero = self.zero_reg()?;
                self.pb.alu(AluOp::Xor, t, a, b);
                self.pb.alu(AluOp::Sltu, rd, zero, t);
            }
            CmpPredicate::Slt => self.pb.alu(AluOp::Slt, rd, a, b),
            CmpPredicate::Sgt => self.pb.alu(AluOp::Slt, rd, b, a),
            CmpPredicate::Sge => {
                self.pb.alu(AluOp::Slt, rd, a, b);
                self.pb.alui(AluOp::Xor, rd, rd, 1);
            }
            CmpPredicate::Sle => {
                self.pb.alu(AluOp::Slt, rd, b, a);
                self.pb.alui(AluOp::Xor, rd, rd, 1);
            }
            CmpPredicate::Ult => self.pb.alu(AluOp::Sltu, rd, a, b),
            CmpPredicate::Ule => {
                self.pb.alu(AluOp::Sltu, rd, b, a);
                self.pb.alui(AluOp::Xor, rd, rd, 1);
            }
        }
        Ok(())
    }

    fn lower_for(&mut self, op: OpId) -> Result<(), LowerError> {
        let m = self.m;
        let data = m.op(op);
        let lb = self.reg_for(data.operands[0])?;
        let ub = self.reg_for(data.operands[1])?;
        let step = self.reg_for(data.operands[2])?;
        let body = m.body_block(op, 0);
        let args = &m.block(body).args;
        let iv = self.reg_for(args[0])?;
        self.mov(iv, lb);
        // integer iter args get registers initialized from inits;
        // state/token iter args are compile-time bookkeeping only
        let mut int_args = Vec::new();
        for (&arg, &init) in args[1..].iter().zip(data.operands[3..].iter()) {
            if m.value_type(arg).is_integer_like() {
                let ar = self.reg_for(arg)?;
                let ir = self.reg_for(init)?;
                self.mov(ar, ir);
                int_args.push(ar);
            }
        }
        let head = self.pb.new_label();
        let end = self.pb.new_label();
        self.pb.bind(head);
        self.pb.branch(BranchCond::Ge, iv, ub, end);
        self.lower_block(body)?;
        // yield: two-phase move into the iteration registers
        let yield_op = m.terminator(body);
        let mut temps = Vec::new();
        let yield_operands = &m.op(yield_op).operands;
        for (&y, &arg) in yield_operands.iter().zip(args[1..].iter()) {
            if m.value_type(arg).is_integer_like() {
                let yr = self.reg_for(y)?;
                let t = self.fresh()?;
                self.mov(t, yr);
                temps.push(t);
            }
        }
        for (&ar, &t) in int_args.iter().zip(temps.iter()) {
            self.mov(ar, t);
        }
        self.pb.alu(AluOp::Add, iv, iv, step);
        self.pb.jump(head);
        self.pb.bind(end);
        // integer results are the final iteration-register values
        let mut int_idx = 0;
        for (&arg, &res) in args[1..].iter().zip(data.results.iter()) {
            if m.value_type(arg).is_integer_like() {
                let r = int_args[int_idx];
                self.vals.insert(res, r);
                int_idx += 1;
            }
        }
        Ok(())
    }

    fn lower_if(&mut self, op: OpId) -> Result<(), LowerError> {
        let m = self.m;
        let data = m.op(op);
        let cond = self.reg_for(data.operands[0])?;
        let zero = self.zero_reg()?;
        // integer results get registers written by both branches
        let result_regs = data
            .results
            .iter()
            .map(|&r| {
                m.value_type(r)
                    .is_integer_like()
                    .then(|| self.reg_for(r))
                    .transpose()
            })
            .collect::<Result<Vec<Option<Reg>>, _>>()?;
        let else_l = self.pb.new_label();
        let end_l = self.pb.new_label();
        self.pb.branch(BranchCond::Eq, cond, zero, else_l);
        for region in 0..2 {
            let block = m.body_block(op, region);
            self.lower_block(block)?;
            let yield_op = m.terminator(block);
            let yields = &m.op(yield_op).operands;
            for (&y, rr) in yields.iter().zip(result_regs.iter()) {
                if let Some(rd) = rr {
                    let yr = self.reg_for(y)?;
                    self.mov(*rd, yr);
                }
            }
            if region == 0 {
                self.pb.jump(end_l);
                self.pb.bind(else_l);
            }
        }
        self.pb.bind(end_l);
        Ok(())
    }

    fn check_accel(&self, op: OpId) -> Result<(), LowerError> {
        let found = self.m.name(accfg_accel(self.m, op));
        if found != self.desc.name {
            return Err(LowerError::WrongAccelerator {
                expected: self.desc.name.clone(),
                found: found.to_string(),
            });
        }
        Ok(())
    }

    /// The configuration register `desc` maps the setup field called
    /// `name` to, checked to be one the accelerator has.
    fn config_register(&self, name: &str) -> Result<u16, LowerError> {
        let spec = self
            .desc
            .field(name)
            .ok_or_else(|| LowerError::UnknownField {
                accelerator: self.desc.name.clone(),
                field: name.to_string(),
            })?;
        if usize::from(spec.reg) >= regmap::COUNT {
            return Err(LowerError::RegisterOutOfRange {
                accelerator: self.desc.name.clone(),
                field: name.to_string(),
                reg: spec.reg,
            });
        }
        Ok(spec.reg)
    }

    fn lower_setup(&mut self, op: OpId) -> Result<(), LowerError> {
        self.check_accel(op)?;
        let fields = setup_fields(self.m, op).named();
        match self.desc.style {
            ConfigStyle::Csr => {
                for (name, value) in fields {
                    let reg = self.config_register(name)?;
                    let vr = self.reg_for(value)?;
                    self.pb.csr_write(reg, vr);
                    self.shadow[usize::from(reg)] = Some(vr);
                }
            }
            ConfigStyle::RoccPairs { launch_funct } => {
                // group freshly-written registers into pairs, in pair order
                let mut written = [None; regmap::COUNT];
                for (name, value) in fields {
                    let reg = self.config_register(name)?;
                    written[usize::from(reg)] = Some(self.reg_for(value)?);
                }
                for funct in 0..(regmap::COUNT / 2) as u16 {
                    let pair = [funct * 2, funct * 2 + 1];
                    if pair.iter().all(|&reg| written[usize::from(reg)].is_none()) {
                        continue;
                    }
                    // the launch-semantic pair is deferred to accfg.launch
                    if funct as u8 == launch_funct {
                        for reg in pair {
                            if let Some(r) = written[usize::from(reg)] {
                                self.remember(reg, r);
                            }
                        }
                        continue;
                    }
                    let rs1 = self.pair_half(&written, pair[0])?;
                    let rs2 = self.pair_half(&written, pair[1])?;
                    self.pb.rocc(funct as u8, rs1, rs2);
                    self.remember(pair[0], rs1);
                    self.remember(pair[1], rs2);
                }
            }
        }
        Ok(())
    }

    /// The host register supplying one half of a RoCC pair: the freshly
    /// written value, the last value that reached this register, or zero.
    /// A register past the file (a launch command a descriptor placed
    /// there) never held anything.
    fn pair_half(
        &mut self,
        written: &[Option<Reg>; regmap::COUNT],
        reg: u16,
    ) -> Result<Reg, LowerError> {
        let reg = usize::from(reg);
        match written
            .get(reg)
            .copied()
            .flatten()
            .or_else(|| self.shadow.get(reg).copied().flatten())
        {
            Some(r) => Ok(r),
            None => self.zero_reg(),
        }
    }

    /// Records that host register `r` last reached configuration register
    /// `reg`; a register past the file keeps no record.
    fn remember(&mut self, reg: u16, r: Reg) {
        if let Some(slot) = self.shadow.get_mut(usize::from(reg)) {
            *slot = Some(r);
        }
    }

    fn lower_launch(&mut self, op: OpId) -> Result<(), LowerError> {
        self.check_accel(op)?;
        match self.desc.style {
            ConfigStyle::Csr => self.pb.launch(),
            ConfigStyle::RoccPairs { launch_funct } => {
                let f = u16::from(launch_funct);
                let rs1 = self.pair_half(&[None; regmap::COUNT], f * 2)?;
                let rs2 = self.pair_half(&[None; regmap::COUNT], f * 2 + 1)?;
                self.pb.rocc(launch_funct, rs1, rs2);
                self.remember(f * 2, rs1);
                self.remember(f * 2 + 1, rs2);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accfg::pipeline::{pipeline, OptLevel};
    use accfg::AccelFilter;
    use accfg_ir::{FuncBuilder, Type};
    use accfg_sim::{AccelSim, Inst, Machine};

    /// Builds the IR for one full-tile invocation: C = A·B with given size.
    fn single_tile_ir(desc: &AcceleratorDescriptor, size: i64) -> Module {
        let mut m = Module::new();
        let (mut b, args) =
            FuncBuilder::new_func(&mut m, "kernel", vec![Type::I64, Type::I64, Type::I64]);
        let n = b.const_index(size);
        let stride_c = b.const_index(4 * size);
        let zero = b.const_index(0);
        let name = |reg: u16| desc.field_by_reg(reg).unwrap().name.clone();
        let fields: Vec<(String, accfg_ir::ValueId)> = vec![
            (name(accfg_sim::regmap::A_ADDR), args[0]),
            (name(accfg_sim::regmap::B_ADDR), args[1]),
            (name(accfg_sim::regmap::C_ADDR), args[2]),
            (name(accfg_sim::regmap::M), n),
            (name(accfg_sim::regmap::N), n),
            (name(accfg_sim::regmap::K), n),
            (name(accfg_sim::regmap::STRIDE_A), n),
            (name(accfg_sim::regmap::STRIDE_B), n),
            (name(accfg_sim::regmap::STRIDE_C), stride_c),
            (name(accfg_sim::regmap::FLAGS), zero),
        ];
        let refs: Vec<(&str, accfg_ir::ValueId)> =
            fields.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let s = b.setup(&desc.name, &refs);
        let t = b.launch(&desc.name, s);
        b.await_token(&desc.name, t);
        b.ret(vec![]);
        m
    }

    fn fill_inputs(machine: &mut Machine, a: u64, b: u64, size: usize) {
        for i in 0..size * size {
            machine
                .mem
                .write_i8(a + i as u64, (i % 5) as i8 - 2)
                .unwrap();
            machine
                .mem
                .write_i8(b + i as u64, (i % 7) as i8 - 3)
                .unwrap();
        }
    }

    fn reference_matmul(machine: &Machine, a: u64, b: u64, size: usize) -> Vec<i32> {
        let mut c = vec![0i32; size * size];
        for i in 0..size {
            for j in 0..size {
                let mut acc = 0i32;
                for k in 0..size {
                    let av = machine.mem.read_i8(a + (i * size + k) as u64).unwrap() as i32;
                    let bv = machine.mem.read_i8(b + (k * size + j) as u64).unwrap() as i32;
                    acc += av * bv;
                }
                c[i * size + j] = acc;
            }
        }
        c
    }

    #[test]
    fn csr_lowering_computes_correct_matmul() {
        let desc = AcceleratorDescriptor::opengemm();
        let m = single_tile_ir(&desc, 8);
        let prog = compile(&m, "kernel", &desc, &[0x100, 0x200, 0x300]).unwrap();
        let mut machine =
            Machine::new(desc.host.clone(), AccelSim::new(desc.accel.clone()), 0x1000);
        fill_inputs(&mut machine, 0x100, 0x200, 8);
        let expected = reference_matmul(&machine, 0x100, 0x200, 8);
        let counters = machine.run(&prog, 100_000).unwrap();
        assert_eq!(counters.launches, 1);
        assert_eq!(machine.mem.read_i32_slice(0x300, 64).unwrap(), expected);
    }

    #[test]
    fn rocc_lowering_computes_correct_matmul() {
        let desc = AcceleratorDescriptor::gemmini();
        let m = single_tile_ir(&desc, 8);
        let prog = compile(&m, "kernel", &desc, &[0x100, 0x200, 0x300]).unwrap();
        let mut machine =
            Machine::new(desc.host.clone(), AccelSim::new(desc.accel.clone()), 0x1000);
        fill_inputs(&mut machine, 0x100, 0x200, 8);
        let expected = reference_matmul(&machine, 0x100, 0x200, 8);
        let counters = machine.run(&prog, 100_000).unwrap();
        assert_eq!(counters.launches, 1);
        assert_eq!(machine.mem.read_i32_slice(0x300, 64).unwrap(), expected);
    }

    #[test]
    fn rocc_lowering_uses_pair_commands() {
        let desc = AcceleratorDescriptor::gemmini();
        let m = single_tile_ir(&desc, 8);
        let prog = compile(&m, "kernel", &desc, &[0x100, 0x200, 0x300]).unwrap();
        let roccs = prog
            .insts()
            .iter()
            .filter(|i| matches!(i, Inst::RoccCmd { .. }))
            .count();
        // core fields cover register pairs 0..=5 (6 commands) + the
        // launch-semantic command itself
        assert_eq!(roccs, 7);
        // no explicit launch instruction on a launch-semantic target
        assert!(!prog.insts().iter().any(|i| matches!(i, Inst::Launch)));
    }

    /// The tiled loop of Section 6: every iteration reconfigures addresses.
    fn tiled_ir(desc: &AcceleratorDescriptor, tiles: i64, tile: i64) -> Module {
        let mut m = Module::new();
        let (mut b, args) =
            FuncBuilder::new_func(&mut m, "tiled", vec![Type::I64, Type::I64, Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(tiles);
        let one = b.const_index(1);
        let name = |reg: u16| desc.field_by_reg(reg).unwrap().name.clone();
        let accel = desc.name.clone();
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            let tile_c = b.const_index(tile);
            let stride_c = b.const_index(4 * tile);
            let zero = b.const_index(0);
            let a_bytes = b.const_index(tile * tile);
            let c_bytes = b.const_index(4 * tile * tile);
            let a_off = b.muli(iv, a_bytes);
            let c_off = b.muli(iv, c_bytes);
            let a = b.addi(args[0], a_off);
            let c = b.addi(args[2], c_off);
            let fields: Vec<(String, accfg_ir::ValueId)> = vec![
                (name(accfg_sim::regmap::A_ADDR), a),
                (name(accfg_sim::regmap::B_ADDR), args[1]),
                (name(accfg_sim::regmap::C_ADDR), c),
                (name(accfg_sim::regmap::M), tile_c),
                (name(accfg_sim::regmap::N), tile_c),
                (name(accfg_sim::regmap::K), tile_c),
                (name(accfg_sim::regmap::STRIDE_A), tile_c),
                (name(accfg_sim::regmap::STRIDE_B), tile_c),
                (name(accfg_sim::regmap::STRIDE_C), stride_c),
                (name(accfg_sim::regmap::FLAGS), zero),
            ];
            let refs: Vec<(&str, accfg_ir::ValueId)> =
                fields.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            let s = b.setup(&accel, &refs);
            let t = b.launch(&accel, s);
            b.await_token(&accel, t);
            vec![]
        });
        b.ret(vec![]);
        m
    }

    #[test]
    fn dedup_reduces_dynamic_config_instructions() {
        let desc = AcceleratorDescriptor::opengemm();
        let run = |level: OptLevel| {
            let mut m = tiled_ir(&desc, 8, 8);
            pipeline(level, AccelFilter::All).run(&mut m).unwrap();
            let prog = compile(&m, "tiled", &desc, &[0x100, 0x4000, 0x8000]).unwrap();
            let mut machine = Machine::new(
                desc.host.clone(),
                AccelSim::new(desc.accel.clone()),
                0x20000,
            );
            fill_inputs(&mut machine, 0x100, 0x4000, 8);
            machine.run(&prog, 1_000_000).unwrap()
        };
        let base = run(OptLevel::Base);
        let dedup = run(OptLevel::Dedup);
        assert!(
            dedup.insts_config < base.insts_config,
            "base={} dedup={}",
            base.insts_config,
            dedup.insts_config
        );
        assert_eq!(base.launches, dedup.launches);
    }

    #[test]
    fn overlap_reduces_cycles_on_concurrent_target() {
        let desc = AcceleratorDescriptor::opengemm();
        let run = |level: OptLevel| {
            let mut m = tiled_ir(&desc, 8, 16);
            pipeline(level, AccelFilter::All).run(&mut m).unwrap();
            let prog = compile(&m, "tiled", &desc, &[0x400, 0x4000, 0x8000]).unwrap();
            let mut machine = Machine::new(
                desc.host.clone(),
                AccelSim::new(desc.accel.clone()),
                0x20000,
            );
            fill_inputs(&mut machine, 0x400, 0x4000, 16);
            machine.run(&prog, 1_000_000).unwrap()
        };
        let base = run(OptLevel::Base);
        let all = run(OptLevel::All);
        assert!(
            all.cycles < base.cycles,
            "base={} all={}",
            base.cycles,
            all.cycles
        );
        assert!(all.overlap_cycles > base.overlap_cycles, "{all:?}");
    }

    #[test]
    fn all_levels_compute_identical_results() {
        let desc = AcceleratorDescriptor::opengemm();
        let mut reference: Option<Vec<i32>> = None;
        for level in OptLevel::ALL_LEVELS {
            let mut m = tiled_ir(&desc, 4, 8);
            pipeline(level, AccelFilter::All).run(&mut m).unwrap();
            let prog = compile(&m, "tiled", &desc, &[0x100, 0x4000, 0x8000]).unwrap();
            let mut machine = Machine::new(
                desc.host.clone(),
                AccelSim::new(desc.accel.clone()),
                0x20000,
            );
            fill_inputs(&mut machine, 0x100, 0x4000, 8);
            machine.run(&prog, 1_000_000).unwrap();
            let c = machine.mem.read_i32_slice(0x8000, 4 * 64).unwrap();
            match &reference {
                None => reference = Some(c),
                Some(r) => assert_eq!(&c, r, "level={level:?}"),
            }
        }
    }

    #[test]
    fn unknown_field_is_reported() {
        let desc = AcceleratorDescriptor::opengemm();
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(1);
        let s = b.setup("opengemm", &[("bogus", x)]);
        let t = b.launch("opengemm", s);
        b.await_token("opengemm", t);
        b.ret(vec![]);
        let e = compile(&m, "f", &desc, &[]).unwrap_err();
        assert!(matches!(e, LowerError::UnknownField { .. }), "{e}");
    }

    #[test]
    fn a_field_past_the_register_file_is_reported() {
        for desc in [
            AcceleratorDescriptor::opengemm(),
            AcceleratorDescriptor::gemmini(),
        ] {
            let m = single_tile_ir(&desc, 8);
            for reg in [regmap::COUNT as u16, 40] {
                let mut past = desc.clone();
                let field = past
                    .fields
                    .iter_mut()
                    .find(|f| f.reg == accfg_sim::regmap::A_ADDR)
                    .unwrap();
                field.reg = reg;
                let name = field.name.clone();
                let e = compile(&m, "kernel", &past, &[0x100, 0x200, 0x300]).unwrap_err();
                assert_eq!(
                    e,
                    LowerError::RegisterOutOfRange {
                        accelerator: desc.name.clone(),
                        field: name,
                        reg,
                    }
                );
            }
        }
    }

    #[test]
    fn a_launch_command_past_the_register_file_lowers_with_zero_halves() {
        // the machine faults on it at run time; the lowering has no
        // register to remember its halves in, and needs none
        let mut desc = AcceleratorDescriptor::gemmini();
        let m = single_tile_ir(&desc, 8);
        desc.style = ConfigStyle::RoccPairs { launch_funct: 14 };
        let prog = compile(&m, "kernel", &desc, &[0x100, 0x200, 0x300]).unwrap();
        let launches: Vec<&Inst> = prog
            .insts()
            .iter()
            .filter(|i| matches!(i, Inst::RoccCmd { funct: 14, .. }))
            .collect();
        assert_eq!(launches.len(), 1);
        let Inst::RoccCmd { rs1, rs2, .. } = launches[0] else {
            unreachable!()
        };
        assert_eq!(rs1, rs2, "both halves read the zero register");
    }

    #[test]
    fn a_program_past_the_register_file_is_reported() {
        // one host register a constant: the 65 537th has none to take
        let desc = AcceleratorDescriptor::opengemm();
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        for i in 0..=Reg::LIMIT as i64 {
            b.const_index(i);
        }
        b.ret(vec![]);
        assert!(m.value_count() > Reg::LIMIT);
        let e = compile(&m, "f", &desc, &[]).unwrap_err();
        assert_eq!(e, LowerError::TooManyRegisters);
        assert!(e.to_string().contains("65536"), "{e}");
    }

    #[test]
    fn wrong_accelerator_is_reported() {
        let desc = AcceleratorDescriptor::opengemm();
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(1);
        let s = b.setup("gemmini", &[("A", x)]);
        let t = b.launch("gemmini", s);
        b.await_token("gemmini", t);
        b.ret(vec![]);
        let e = compile(&m, "f", &desc, &[]).unwrap_err();
        assert!(matches!(e, LowerError::WrongAccelerator { .. }), "{e}");
    }

    #[test]
    fn opaque_ops_are_rejected() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        b.opaque("mystery", vec![], vec![], None);
        b.ret(vec![]);
        let desc = AcceleratorDescriptor::opengemm();
        let e = compile(&m, "f", &desc, &[]).unwrap_err();
        assert!(matches!(e, LowerError::UnsupportedOp { .. }), "{e}");
    }

    #[test]
    fn arg_binding_checked() {
        let desc = AcceleratorDescriptor::opengemm();
        let m = single_tile_ir(&desc, 4);
        assert!(matches!(
            compile(&m, "kernel", &desc, &[1, 2]),
            Err(LowerError::ArgCount {
                expected: 3,
                provided: 2
            })
        ));
        assert!(matches!(
            compile(&m, "nope", &desc, &[]),
            Err(LowerError::NoSuchFunc(_))
        ));
    }

    #[test]
    fn scf_if_lowering_selects_configuration() {
        let desc = AcceleratorDescriptor::opengemm();
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let one = b.const_index(1);
        let cond = b.cmpi(CmpPredicate::Eq, args[0], one);
        let size_a = b.const_index(4);
        let size_b = b.const_index(8);
        let size = b.build_if(cond, |_| vec![size_a], |_| vec![size_b]);
        let stride_c = b.muli(size[0], size_a); // 4·size
        let a = b.const_index(0x100);
        let bb = b.const_index(0x200);
        let c = b.const_index(0x400);
        let s = b.setup(
            "opengemm",
            &[
                ("A", a),
                ("B", bb),
                ("C", c),
                ("M", size[0]),
                ("N", size[0]),
                ("K", size[0]),
                ("stride_A", size[0]),
                ("stride_B", size[0]),
                ("stride_C", stride_c),
            ],
        );
        let t = b.launch("opengemm", s);
        b.await_token("opengemm", t);
        b.ret(vec![]);

        for (arg, want_macs) in [(1i64, 64u64), (0, 512)] {
            let prog = compile(&m, "f", &desc, &[arg]).unwrap();
            let mut machine =
                Machine::new(desc.host.clone(), AccelSim::new(desc.accel.clone()), 0x1000);
            fill_inputs(&mut machine, 0x100, 0x200, 8);
            machine.run(&prog, 100_000).unwrap();
            assert_eq!(machine.accel.stats.macs, want_macs, "arg={arg}");
        }
    }
}
