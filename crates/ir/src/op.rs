//! Operation definitions: opcodes and per-operation storage.

use crate::attrs::AttrMap;
use crate::module::{BlockId, RegionId};
use crate::symbol::Symbol;
use crate::value_list::ValueList;
use std::fmt;

/// Every operation kind known to the IR.
///
/// The set mirrors the dialects used in the paper's pipeline (Figure 8):
/// `func` and `arith`/`scf` as the host-side input IR, `accfg` as the
/// accelerator abstraction, and a small "target" dialect representing the
/// per-accelerator instruction sequences produced by lowering (step 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Opcode {
    // --- func dialect -----------------------------------------------------
    /// `func.func`: a function definition. Attr `sym_name`; one body region.
    Func,
    /// `func.return`: terminates a function body.
    Return,
    /// `func.call`: call to an external function. Attr `callee`. Opaque to
    /// optimizations unless annotated with `#accfg.effects<none>`.
    Call,

    // --- arith dialect ----------------------------------------------------
    /// `arith.constant`: attr `value` holds the integer constant.
    Constant,
    /// `arith.addi`.
    AddI,
    /// `arith.subi`.
    SubI,
    /// `arith.muli`.
    MulI,
    /// `arith.divui` (unsigned).
    DivUI,
    /// `arith.remui` (unsigned).
    RemUI,
    /// `arith.andi`.
    AndI,
    /// `arith.ori`.
    OrI,
    /// `arith.xori`.
    XOrI,
    /// `arith.shli`.
    ShLI,
    /// `arith.shrui` (logical shift right).
    ShRUI,
    /// `arith.cmpi`: attr `predicate` in {"eq","ne","slt","sle","sgt","sge","ult","ule"}.
    CmpI,
    /// `arith.select`: operands (cond, true_value, false_value).
    Select,

    // --- scf dialect ------------------------------------------------------
    /// `scf.for`: operands (lb, ub, step, init...); one region whose entry
    /// block has args (induction var, iter args...); results = final iter args.
    For,
    /// `scf.if`: operand (cond); two regions (then, else); results from yields.
    If,
    /// `scf.yield`: terminator of `scf.for`/`scf.if` regions.
    Yield,

    // --- accfg dialect (Section 5.1) ---------------------------------------
    /// `accfg.setup`: writes configuration registers. Names its
    /// [`accelerator`](OpData::accelerator) and its
    /// [`fields`](OpData::fields) (parallel to the field operands), and
    /// says whether it [`has_input_state`](OpData::has_input_state).
    /// Operands: `[input_state?, field values...]`. One result of
    /// `!accfg.state`.
    AccfgSetup,
    /// `accfg.launch`: launches its [`accelerator`](OpData::accelerator)
    /// with a given state. Operand: state. Result: `!accfg.token`.
    AccfgLaunch,
    /// `accfg.await`: blocks until the token's computation completes on
    /// its [`accelerator`](OpData::accelerator). Operand: token. No results.
    AccfgAwait,

    // --- target dialect (post-lowering, step 5 of Figure 8) ----------------
    /// `target.csr_write`: a single MMIO/CSR config-register write. Attr
    /// `csr` (Int register index). Operand: the value written.
    CsrWrite,
    /// `target.rocc_cmd`: a Gemmini-style custom instruction carrying two
    /// 64-bit register payloads (16 config bytes). Attr `funct` (Int).
    /// Operands: (rs1, rs2).
    RoccCmd,
    /// `target.launch`: explicit write to the launch register.
    TargetLaunch,
    /// `target.await_poll`: poll the status register until idle.
    TargetAwait,

    // --- escape hatch -------------------------------------------------------
    /// An opaque foreign operation. Attr `name` (Str) and optionally
    /// `effects` ([`crate::Effects`]). Arbitrary operands/results.
    Opaque,
}

impl Opcode {
    /// The full dotted name, as printed in the textual IR.
    pub fn name(self) -> &'static str {
        use Opcode::*;
        match self {
            Func => "func.func",
            Return => "func.return",
            Call => "func.call",
            Constant => "arith.constant",
            AddI => "arith.addi",
            SubI => "arith.subi",
            MulI => "arith.muli",
            DivUI => "arith.divui",
            RemUI => "arith.remui",
            AndI => "arith.andi",
            OrI => "arith.ori",
            XOrI => "arith.xori",
            ShLI => "arith.shli",
            ShRUI => "arith.shrui",
            CmpI => "arith.cmpi",
            Select => "arith.select",
            For => "scf.for",
            If => "scf.if",
            Yield => "scf.yield",
            AccfgSetup => "accfg.setup",
            AccfgLaunch => "accfg.launch",
            AccfgAwait => "accfg.await",
            CsrWrite => "target.csr_write",
            RoccCmd => "target.rocc_cmd",
            TargetLaunch => "target.launch",
            TargetAwait => "target.await_poll",
            Opaque => "opaque.op",
        }
    }

    /// Looks an opcode up by its dotted name.
    pub fn from_name(name: &str) -> Option<Self> {
        use Opcode::*;
        Some(match name {
            "func.func" => Func,
            "func.return" => Return,
            "func.call" => Call,
            "arith.constant" => Constant,
            "arith.addi" => AddI,
            "arith.subi" => SubI,
            "arith.muli" => MulI,
            "arith.divui" => DivUI,
            "arith.remui" => RemUI,
            "arith.andi" => AndI,
            "arith.ori" => OrI,
            "arith.xori" => XOrI,
            "arith.shli" => ShLI,
            "arith.shrui" => ShRUI,
            "arith.cmpi" => CmpI,
            "arith.select" => Select,
            "scf.for" => For,
            "scf.if" => If,
            "scf.yield" => Yield,
            "accfg.setup" => AccfgSetup,
            "accfg.launch" => AccfgLaunch,
            "accfg.await" => AccfgAwait,
            "target.csr_write" => CsrWrite,
            "target.rocc_cmd" => RoccCmd,
            "target.launch" => TargetLaunch,
            "target.await_poll" => TargetAwait,
            "opaque.op" => Opaque,
            _ => return None,
        })
    }

    /// `true` if the op has no side effects and may be freely duplicated,
    /// CSE'd, hoisted, or removed when unused.
    ///
    /// `accfg.setup` is *not* pure — it writes external register state — but
    /// the accfg passes reason about it specially.
    pub fn is_pure(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            Constant
                | AddI
                | SubI
                | MulI
                | DivUI
                | RemUI
                | AndI
                | OrI
                | XOrI
                | ShLI
                | ShRUI
                | CmpI
                | Select
        )
    }

    /// `true` for ops that terminate a block.
    pub fn is_terminator(self) -> bool {
        matches!(self, Opcode::Return | Opcode::Yield)
    }

    /// `true` for binary integer arithmetic ops (two integer operands, one
    /// integer result of the same type).
    pub fn is_binary_arith(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            AddI | SubI | MulI | DivUI | RemUI | AndI | OrI | XOrI | ShLI | ShRUI
        )
    }

    /// `true` for ops of the accfg dialect.
    pub fn is_accfg(self) -> bool {
        matches!(
            self,
            Opcode::AccfgSetup | Opcode::AccfgLaunch | Opcode::AccfgAwait
        )
    }

    /// `true` for ops with nested regions.
    pub fn has_regions(self) -> bool {
        matches!(self, Opcode::Func | Opcode::For | Opcode::If)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Integer comparison predicates for `arith.cmpi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPredicate {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
}

impl CmpPredicate {
    /// The textual form used in the `predicate` attribute.
    pub fn name(self) -> &'static str {
        match self {
            CmpPredicate::Eq => "eq",
            CmpPredicate::Ne => "ne",
            CmpPredicate::Slt => "slt",
            CmpPredicate::Sle => "sle",
            CmpPredicate::Sgt => "sgt",
            CmpPredicate::Sge => "sge",
            CmpPredicate::Ult => "ult",
            CmpPredicate::Ule => "ule",
        }
    }

    /// Parses the textual form.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "eq" => CmpPredicate::Eq,
            "ne" => CmpPredicate::Ne,
            "slt" => CmpPredicate::Slt,
            "sle" => CmpPredicate::Sle,
            "sgt" => CmpPredicate::Sgt,
            "sge" => CmpPredicate::Sge,
            "ult" => CmpPredicate::Ult,
            "ule" => CmpPredicate::Ule,
            _ => return None,
        })
    }

    /// Evaluates the predicate on two 64-bit values.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpPredicate::Eq => lhs == rhs,
            CmpPredicate::Ne => lhs != rhs,
            CmpPredicate::Slt => lhs < rhs,
            CmpPredicate::Sle => lhs <= rhs,
            CmpPredicate::Sgt => lhs > rhs,
            CmpPredicate::Sge => lhs >= rhs,
            CmpPredicate::Ult => (lhs as u64) < (rhs as u64),
            CmpPredicate::Ule => (lhs as u64) <= (rhs as u64),
        }
    }
}

/// The stored data of a single operation.
#[derive(Debug, Clone)]
pub struct OpData {
    /// What kind of operation this is.
    pub opcode: Opcode,
    /// SSA operands, in order.
    pub operands: ValueList,
    /// SSA results, in order.
    pub results: ValueList,
    /// Attribute dictionary.
    pub attrs: AttrMap,
    /// Nested regions (empty for most ops).
    pub regions: Vec<RegionId>,
    /// The block containing this op (`None` while detached).
    pub parent: Option<BlockId>,
    /// Tombstone: erased ops stay in the arena but are skipped everywhere.
    pub alive: bool,
    /// The accelerator an `accfg` op addresses, interned in the module
    /// ([`Module::set_accelerator`](crate::Module::set_accelerator)); `None`
    /// on every other op.
    pub accelerator: Option<Symbol>,
    /// `accfg.setup` only: the interned field names, parallel to the field
    /// operands ([`Module::set_setup_fields`](crate::Module::set_setup_fields)).
    pub fields: Vec<Symbol>,
    /// `accfg.setup` only: operand 0 is the input state the setup is a
    /// delta against.
    pub has_input_state: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_names_round_trip() {
        use Opcode::*;
        for op in [
            Func,
            Return,
            Call,
            Constant,
            AddI,
            SubI,
            MulI,
            DivUI,
            RemUI,
            AndI,
            OrI,
            XOrI,
            ShLI,
            ShRUI,
            CmpI,
            Select,
            For,
            If,
            Yield,
            AccfgSetup,
            AccfgLaunch,
            AccfgAwait,
            CsrWrite,
            RoccCmd,
            TargetLaunch,
            TargetAwait,
            Opaque,
        ] {
            assert_eq!(Opcode::from_name(op.name()), Some(op), "{op}");
        }
        assert_eq!(Opcode::from_name("nonexistent.op"), None);
    }

    #[test]
    fn purity_classification() {
        assert!(Opcode::AddI.is_pure());
        assert!(Opcode::Constant.is_pure());
        assert!(!Opcode::AccfgSetup.is_pure());
        assert!(!Opcode::Call.is_pure());
        assert!(!Opcode::For.is_pure());
        assert!(!Opcode::CsrWrite.is_pure());
    }

    #[test]
    fn terminators() {
        assert!(Opcode::Return.is_terminator());
        assert!(Opcode::Yield.is_terminator());
        assert!(!Opcode::AddI.is_terminator());
    }

    #[test]
    fn cmp_predicates_round_trip_and_eval() {
        for p in [
            CmpPredicate::Eq,
            CmpPredicate::Ne,
            CmpPredicate::Slt,
            CmpPredicate::Sle,
            CmpPredicate::Sgt,
            CmpPredicate::Sge,
            CmpPredicate::Ult,
            CmpPredicate::Ule,
        ] {
            assert_eq!(CmpPredicate::from_name(p.name()), Some(p));
        }
        assert!(CmpPredicate::Slt.eval(-1, 0));
        assert!(!CmpPredicate::Ult.eval(-1, 0)); // -1 as u64 is huge
        assert!(CmpPredicate::Eq.eval(5, 5));
        assert!(CmpPredicate::Ne.eval(5, 6));
        assert!(CmpPredicate::Sge.eval(5, 5));
        assert!(CmpPredicate::Ule.eval(3, 3));
    }

    #[test]
    fn region_holding_ops() {
        assert!(Opcode::For.has_regions());
        assert!(Opcode::If.has_regions());
        assert!(Opcode::Func.has_regions());
        assert!(!Opcode::AddI.has_regions());
    }
}
