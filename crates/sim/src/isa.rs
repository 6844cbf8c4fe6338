//! The virtual host ISA.
//!
//! A RISC-V-flavoured instruction set with a virtual register file of up
//! to [`Reg::LIMIT`] (65 536) registers, plus the accelerator-interface
//! instructions the paper's platforms use: memory-mapped/CSR configuration
//! writes (OpenGeMM-style), RoCC custom instructions carrying 16
//! configuration bytes (Gemmini-style), explicit launches, and status
//! polling. A register index is a `u16`, so every [`Inst`] is 16 bytes:
//! the widest (`li`, `addi`, loads and stores) are a tag, two register
//! indices and a 64-bit immediate.
//!
//! Register allocation is intentionally not modeled: the paper's metrics are
//! instruction-class counts and cycles, and the tiled kernels it measures
//! do not spill under -O2.

use std::fmt;

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

impl Reg {
    /// The most registers a program can use: one for every index a `u16`
    /// names. [`ProgramBuilder::try_reg`] and [`Program::from_parts`]
    /// refuse more.
    pub const LIMIT: usize = 1 << 16;
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A branch target, resolved to an instruction index by [`ProgramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub(crate) u32);

impl Label {
    /// The label's index into a program's target table (for serialization).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a label from its table index. Pairs with
    /// [`Program::from_parts`], which validates that every referenced index
    /// resolves; a hand-built label is only meaningful against the program
    /// it was serialized from.
    pub fn from_index(index: u32) -> Self {
        Label(index)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".L{}", self.0)
    }
}

/// ALU operations (two's-complement, 64-bit, RISC-V division semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Unsigned division (`/0` → all ones).
    Divu,
    /// Unsigned remainder (`%0` → dividend).
    Remu,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Sll,
    /// Logical shift right.
    Srl,
    /// Set-less-than, signed (1 or 0).
    Slt,
    /// Set-less-than, unsigned.
    Sltu,
}

impl AluOp {
    /// Evaluates the op on two 64-bit values.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Divu => {
                if b == 0 {
                    -1
                } else {
                    ((a as u64) / (b as u64)) as i64
                }
            }
            AluOp::Remu => {
                if b == 0 {
                    a
                } else {
                    ((a as u64) % (b as u64)) as i64
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => {
                if (b as u64) >= 64 {
                    0
                } else {
                    ((a as u64) << b) as i64
                }
            }
            AluOp::Srl => {
                if (b as u64) >= 64 {
                    0
                } else {
                    ((a as u64) >> b) as i64
                }
            }
            AluOp::Slt => i64::from(a < b),
            AluOp::Sltu => i64::from((a as u64) < (b as u64)),
        }
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Divu => "divu",
            AluOp::Remu => "remu",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
}

impl BranchCond {
    /// Evaluates the condition.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
        }
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
        }
    }
}

/// Memory access widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    Byte,
    /// 4 bytes.
    Word,
    /// 8 bytes.
    Double,
}

impl Width {
    /// Access size in bytes.
    pub fn bytes(self) -> usize {
        match self {
            Width::Byte => 1,
            Width::Word => 4,
            Width::Double => 8,
        }
    }
}

/// One host instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// Load immediate: `rd = imm`.
    Li {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Register-register ALU: `rd = rs1 op rs2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Left source.
        rs1: Reg,
        /// Right source.
        rs2: Reg,
    },
    /// Register-immediate ALU: `rd = rs1 op imm`.
    AluI {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate right operand.
        imm: i64,
    },
    /// Load: `rd = mem[rs1 + offset]`.
    Ld {
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Access width.
        width: Width,
    },
    /// Store: `mem[rs1 + offset] = rs2`.
    St {
        /// Value to store.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Access width.
        width: Width,
    },
    /// Conditional branch to `target`.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// Left comparand.
        rs1: Reg,
        /// Right comparand.
        rs2: Reg,
        /// Branch target.
        target: Label,
    },
    /// Unconditional jump.
    Jump {
        /// Jump target.
        target: Label,
    },
    /// Configuration-register write (MMIO/CSR style): `cfg[csr] = rs`.
    CsrWrite {
        /// Config register index.
        csr: u16,
        /// Source register.
        rs: Reg,
    },
    /// RoCC-style custom instruction: 16 configuration bytes in one shot.
    RoccCmd {
        /// Function selector (which config pair to write; the launch funct
        /// carries launch semantics on Gemmini-style targets).
        funct: u8,
        /// First 8-byte payload.
        rs1: Reg,
        /// Second 8-byte payload.
        rs2: Reg,
    },
    /// Explicit launch (write to the launch register).
    Launch,
    /// Poll the status register until the accelerator is idle.
    AwaitIdle,
    /// Stop execution.
    Halt,
}

// a cached module holds its program for its whole life, so an
// instruction stays at a tag, two `u16` registers and a 64-bit immediate
const _: () = assert!(std::mem::size_of::<Inst>() == 16);

impl Inst {
    /// `true` for the instructions that transfer configuration bytes or
    /// control to the accelerator (the paper's "setup instructions").
    pub fn is_config(self) -> bool {
        matches!(
            self,
            Inst::CsrWrite { .. } | Inst::RoccCmd { .. } | Inst::Launch | Inst::AwaitIdle
        )
    }

    /// Bytes this instruction moves through the shared memory system —
    /// what the contention model charges when the accelerator's tile
    /// traffic holds part of the bandwidth budget. Configuration writes
    /// carry their payload (`csr_payload_bytes` per CSR access, 16 bytes
    /// per RoCC pair), loads/stores their access width; everything else
    /// stays in registers. `Launch` reports its payload for byte
    /// accounting completeness, but never contends in practice: the
    /// machine stalls a launch until the accelerator is idle, so its
    /// traffic cannot overlap a busy window.
    pub fn traffic_bytes(self, csr_payload_bytes: u64) -> u64 {
        match self {
            Inst::CsrWrite { .. } | Inst::Launch => csr_payload_bytes,
            Inst::RoccCmd { .. } => 16,
            Inst::Ld { width, .. } | Inst::St { width, .. } => width.bytes() as u64,
            _ => 0,
        }
    }
}

/// A finished program: instructions with resolved branch targets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    insts: Vec<Inst>,
    /// label index → instruction index
    label_targets: Vec<usize>,
    max_reg: u16,
}

impl Program {
    /// Reassembles a program from serialized parts (the inverse of
    /// [`Program::insts`], [`Program::label_targets`] and
    /// [`Program::reg_count`]).
    ///
    /// Returns `None` unless the parts are self-consistent: every label a
    /// branch or jump references must exist in `label_targets`, every
    /// target must land inside the program (one past the end is legal — a
    /// label bound after the final instruction), `reg_count` must be at
    /// least 1, at most [`Reg::LIMIT`], and cover every register the
    /// instructions touch.
    pub fn from_parts(
        insts: Vec<Inst>,
        label_targets: Vec<usize>,
        reg_count: usize,
    ) -> Option<Self> {
        let max_reg = u16::try_from(reg_count.checked_sub(1)?).ok()?;
        if label_targets.iter().any(|&t| t > insts.len()) {
            return None;
        }
        let reg_ok = |r: Reg| r.0 <= max_reg;
        let label_ok = |l: Label| (l.0 as usize) < label_targets.len();
        for inst in &insts {
            let ok = match *inst {
                Inst::Li { rd, .. } => reg_ok(rd),
                Inst::Alu { rd, rs1, rs2, .. } => reg_ok(rd) && reg_ok(rs1) && reg_ok(rs2),
                Inst::AluI { rd, rs1, .. } => reg_ok(rd) && reg_ok(rs1),
                Inst::Ld { rd, base, .. } => reg_ok(rd) && reg_ok(base),
                Inst::St { rs, base, .. } => reg_ok(rs) && reg_ok(base),
                Inst::Branch {
                    rs1, rs2, target, ..
                } => reg_ok(rs1) && reg_ok(rs2) && label_ok(target),
                Inst::Jump { target } => label_ok(target),
                Inst::CsrWrite { rs, .. } => reg_ok(rs),
                Inst::RoccCmd { rs1, rs2, .. } => reg_ok(rs1) && reg_ok(rs2),
                Inst::Launch | Inst::AwaitIdle | Inst::Halt => true,
            };
            if !ok {
                return None;
            }
        }
        Some(Self {
            insts,
            label_targets,
            max_reg,
        })
    }

    /// The instruction sequence.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The label table: label index → instruction index (for
    /// serialization; use [`Program::resolve`] to follow a single label).
    pub fn label_targets(&self) -> &[usize] {
        &self.label_targets
    }

    /// The instruction index a label points to.
    pub fn resolve(&self, label: Label) -> usize {
        self.label_targets[label.0 as usize]
    }

    /// Number of virtual registers used (max index + 1).
    pub fn reg_count(&self) -> usize {
        self.max_reg as usize + 1
    }

    /// Gives back the instruction list's spare capacity, for a program
    /// kept long after it was built. [`ProgramBuilder::finish`] does not:
    /// a program run once and dropped would pay a reallocation for
    /// nothing.
    pub fn shrink_to_fit(&mut self) {
        self.insts.shrink_to_fit();
    }

    /// Instruction count (static, not dynamic).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// A readable disassembly listing.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            for (li, &t) in self.label_targets.iter().enumerate() {
                if t == i {
                    writeln!(out, ".L{li}:").unwrap();
                }
            }
            let line = match *inst {
                Inst::Li { rd, imm } => format!("li {rd}, {imm}"),
                Inst::Alu { op, rd, rs1, rs2 } => {
                    format!("{} {rd}, {rs1}, {rs2}", op.mnemonic())
                }
                Inst::AluI { op, rd, rs1, imm } => {
                    format!("{}i {rd}, {rs1}, {imm}", op.mnemonic())
                }
                Inst::Ld {
                    rd,
                    base,
                    offset,
                    width,
                } => format!("ld{} {rd}, {offset}({base})", width.bytes()),
                Inst::St {
                    rs,
                    base,
                    offset,
                    width,
                } => format!("st{} {rs}, {offset}({base})", width.bytes()),
                Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => format!("{} {rs1}, {rs2}, {target}", cond.mnemonic()),
                Inst::Jump { target } => format!("j {target}"),
                Inst::CsrWrite { csr, rs } => format!("csrw cfg{csr}, {rs}"),
                Inst::RoccCmd { funct, rs1, rs2 } => {
                    format!("rocc.custom f{funct}, {rs1}, {rs2}")
                }
                Inst::Launch => "launch".to_string(),
                Inst::AwaitIdle => "await_idle".to_string(),
                Inst::Halt => "halt".to_string(),
            };
            writeln!(out, "  {line}").unwrap();
        }
        out
    }
}

/// Incremental program construction with labels.
///
/// # Examples
///
/// ```
/// use accfg_sim::isa::{ProgramBuilder, AluOp, BranchCond};
///
/// let mut p = ProgramBuilder::new();
/// let counter = p.reg();
/// let limit = p.reg();
/// p.li(counter, 0);
/// p.li(limit, 10);
/// let head = p.new_label();
/// p.bind(head);
/// p.alui(AluOp::Add, counter, counter, 1);
/// p.branch(BranchCond::Lt, counter, limit, head);
/// p.halt();
/// let prog = p.finish();
/// assert_eq!(prog.len(), 5);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    label_targets: Vec<Option<usize>>,
    /// registers handed out so far, at most [`Reg::LIMIT`]
    next_reg: u32,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for `insts` instructions, for a
    /// caller that knows the program's length before emitting it.
    pub fn with_capacity(insts: usize) -> Self {
        Self {
            insts: Vec::with_capacity(insts),
            ..Self::default()
        }
    }

    /// Allocates a fresh virtual register.
    ///
    /// # Panics
    /// Panics once [`Reg::LIMIT`] registers are allocated; a caller whose
    /// register count depends on its input uses [`ProgramBuilder::try_reg`].
    pub fn reg(&mut self) -> Reg {
        self.try_reg()
            .unwrap_or_else(|| panic!("more than {} registers", Reg::LIMIT))
    }

    /// Allocates a fresh virtual register, or `None` once [`Reg::LIMIT`]
    /// registers are allocated.
    pub fn try_reg(&mut self) -> Option<Reg> {
        let r = Reg(u16::try_from(self.next_reg).ok()?);
        self.next_reg += 1;
        Some(r)
    }

    /// Creates an unbound label.
    pub fn new_label(&mut self) -> Label {
        let l = Label(self.label_targets.len() as u32);
        self.label_targets.push(None);
        l
    }

    /// Binds `label` to the next emitted instruction.
    ///
    /// # Panics
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.label_targets[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.insts.len());
    }

    /// Emits a raw instruction.
    pub fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    /// Emits `li`.
    pub fn li(&mut self, rd: Reg, imm: i64) {
        self.push(Inst::Li { rd, imm });
    }

    /// Emits a register-register ALU op.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        self.push(Inst::Alu { op, rd, rs1, rs2 });
    }

    /// Emits a register-immediate ALU op.
    pub fn alui(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i64) {
        self.push(Inst::AluI { op, rd, rs1, imm });
    }

    /// Emits a load.
    pub fn ld(&mut self, rd: Reg, base: Reg, offset: i64, width: Width) {
        self.push(Inst::Ld {
            rd,
            base,
            offset,
            width,
        });
    }

    /// Emits a store.
    pub fn st(&mut self, rs: Reg, base: Reg, offset: i64, width: Width) {
        self.push(Inst::St {
            rs,
            base,
            offset,
            width,
        });
    }

    /// Emits a conditional branch.
    pub fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, target: Label) {
        self.push(Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        });
    }

    /// Emits an unconditional jump.
    pub fn jump(&mut self, target: Label) {
        self.push(Inst::Jump { target });
    }

    /// Emits a configuration write.
    pub fn csr_write(&mut self, csr: u16, rs: Reg) {
        self.push(Inst::CsrWrite { csr, rs });
    }

    /// Emits a RoCC custom command.
    pub fn rocc(&mut self, funct: u8, rs1: Reg, rs2: Reg) {
        self.push(Inst::RoccCmd { funct, rs1, rs2 });
    }

    /// Emits a launch.
    pub fn launch(&mut self) {
        self.push(Inst::Launch);
    }

    /// Emits a status poll.
    pub fn await_idle(&mut self) {
        self.push(Inst::AwaitIdle);
    }

    /// Emits a halt.
    pub fn halt(&mut self) {
        self.push(Inst::Halt);
    }

    /// Finalizes the program.
    ///
    /// # Panics
    /// Panics if any created label was never bound.
    pub fn finish(self) -> Program {
        let label_targets: Vec<usize> = self
            .label_targets
            .iter()
            .enumerate()
            .map(|(i, t)| t.unwrap_or_else(|| panic!("label .L{i} never bound")))
            .collect();
        Program {
            insts: self.insts,
            label_targets,
            max_reg: u16::try_from(self.next_reg.max(1) - 1)
                .expect("`try_reg` hands out no index past `u16::MAX`"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics_match_riscv() {
        assert_eq!(AluOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(AluOp::Divu.eval(10, 0), -1);
        assert_eq!(AluOp::Remu.eval(10, 0), 10);
        assert_eq!(AluOp::Sll.eval(1, 63), i64::MIN);
        assert_eq!(AluOp::Sll.eval(1, 64), 0);
        assert_eq!(AluOp::Srl.eval(-1, 63), 1);
        assert_eq!(AluOp::Slt.eval(-1, 0), 1);
        assert_eq!(AluOp::Sltu.eval(-1, 0), 0);
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchCond::Eq.eval(3, 3));
        assert!(BranchCond::Ne.eval(3, 4));
        assert!(BranchCond::Lt.eval(-5, 0));
        assert!(BranchCond::Ge.eval(0, 0));
    }

    #[test]
    fn labels_resolve() {
        let mut p = ProgramBuilder::new();
        let r = p.reg();
        let skip = p.new_label();
        p.li(r, 1);
        p.jump(skip);
        p.li(r, 2);
        p.bind(skip);
        p.halt();
        let prog = p.finish();
        assert_eq!(prog.resolve(skip), 3);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut p = ProgramBuilder::new();
        let l = p.new_label();
        p.jump(l);
        let _ = p.finish();
    }

    #[test]
    fn config_instruction_classification() {
        let r = Reg(0);
        assert!(Inst::CsrWrite { csr: 0, rs: r }.is_config());
        assert!(Inst::RoccCmd {
            funct: 0,
            rs1: r,
            rs2: r
        }
        .is_config());
        assert!(Inst::Launch.is_config());
        assert!(Inst::AwaitIdle.is_config());
        assert!(!Inst::Li { rd: r, imm: 0 }.is_config());
        assert!(!Inst::Halt.is_config());
    }

    #[test]
    fn disassembly_is_readable() {
        let mut p = ProgramBuilder::new();
        let a = p.reg();
        let b = p.reg();
        p.li(a, 64);
        p.alu(AluOp::Mul, b, a, a);
        p.csr_write(3, b);
        p.launch();
        p.await_idle();
        p.halt();
        let text = p.finish().disassemble();
        assert!(text.contains("li x0, 64"));
        assert!(text.contains("mul x1, x0, x0"));
        assert!(text.contains("csrw cfg3, x1"));
        assert!(text.contains("launch"));
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::Byte.bytes(), 1);
        assert_eq!(Width::Word.bytes(), 4);
        assert_eq!(Width::Double.bytes(), 8);
    }

    #[test]
    fn from_parts_round_trips_a_built_program() {
        let mut p = ProgramBuilder::new();
        let i = p.reg();
        let n = p.reg();
        p.li(i, 0);
        p.li(n, 4);
        let top = p.new_label();
        p.bind(top);
        p.alui(AluOp::Add, i, i, 1);
        p.branch(BranchCond::Lt, i, n, top);
        p.halt();
        let original = p.finish();

        let rebuilt = Program::from_parts(
            original.insts().to_vec(),
            original.label_targets().to_vec(),
            original.reg_count(),
        )
        .expect("parts of a valid program must reassemble");
        assert_eq!(rebuilt, original);
        assert_eq!(rebuilt.resolve(Label::from_index(0)), original.resolve(top));
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        let insts = vec![
            Inst::Jump {
                target: Label::from_index(1),
            },
            Inst::Halt,
        ];
        // Referenced label 1 does not exist in a 1-entry table.
        assert!(Program::from_parts(insts.clone(), vec![0], 1).is_none());
        // Label target beyond one-past-the-end.
        assert!(Program::from_parts(insts.clone(), vec![0, 9], 1).is_none());
        // Register outside the declared file.
        let wide = vec![Inst::Li { rd: Reg(5), imm: 0 }];
        assert!(Program::from_parts(wide.clone(), vec![], 2).is_none());
        assert!(Program::from_parts(wide, vec![], 6).is_some());
        // A zero-register program is impossible (reg_count >= 1).
        assert!(Program::from_parts(vec![Inst::Halt], vec![], 0).is_none());
    }

    #[test]
    fn from_parts_refuses_a_register_file_past_the_limit() {
        // a stored record may claim any count; the machine sizes its
        // register file from it, so a count past `u16` is refused
        let top = vec![Inst::Li {
            rd: Reg(u16::MAX),
            imm: 0,
        }];
        let program = Program::from_parts(top.clone(), vec![], Reg::LIMIT).unwrap();
        assert_eq!(program.reg_count(), Reg::LIMIT);
        for count in [Reg::LIMIT + 1, 1 << 32, usize::MAX] {
            assert!(Program::from_parts(top.clone(), vec![], count).is_none());
        }
    }

    #[test]
    fn the_builder_refuses_a_register_past_the_limit() {
        let mut p = ProgramBuilder::new();
        for i in 0..Reg::LIMIT {
            assert_eq!(p.try_reg(), Some(Reg(i as u16)));
        }
        assert_eq!(p.try_reg(), None);
        assert_eq!(p.try_reg(), None);
        p.halt();
        assert_eq!(p.finish().reg_count(), Reg::LIMIT);
    }
}
