//! Generic, target-independent optimization passes.
//!
//! These are the "already implemented optimizations for all major modern CPU
//! architectures" the paper's Section 5.2 says `accfg` programs benefit from
//! once configuration is expressed as proper IR instead of volatile inline
//! assembly: constant folding/canonicalization, common-subexpression
//! elimination, loop-invariant code motion, and dead-code elimination.

mod canonicalize;
mod cse;
mod dce;
mod licm;

pub use canonicalize::Canonicalize;
pub use cse::Cse;
pub use dce::Dce;
pub use licm::Licm;

use crate::module::{Module, OpId, ValueDef, ValueId};
use crate::op::Opcode;

/// A sweep over a snapshot of ops that can tell which of them it has
/// passed. The set of passed ops, by op index, is built when first asked
/// about and then kept up with, so a sweep that never asks allocates
/// nothing beyond its snapshot.
pub(crate) struct Sweep {
    order: Vec<OpId>,
    /// How many ops of `order` [`Sweep::next`] has handed out.
    passed: usize,
    /// How many ops of `order` are set in `marks`.
    marked: usize,
    marks: Vec<bool>,
}

impl Sweep {
    pub(crate) fn new(order: Vec<OpId>) -> Self {
        Self {
            order,
            passed: 0,
            marked: 0,
            marks: Vec::new(),
        }
    }

    /// The next op of the snapshot, which counts as passed from now on.
    pub(crate) fn next(&mut self) -> Option<OpId> {
        let op = *self.order.get(self.passed)?;
        self.passed += 1;
        Some(op)
    }

    /// `true` if `op` was handed out by [`Sweep::next`]. An op created
    /// after the snapshot was taken never was.
    pub(crate) fn has_passed(&mut self, m: &Module, op: OpId) -> bool {
        if self.marks.is_empty() {
            // every op of the snapshot existed when it was taken
            self.marks.resize(m.op_count(), false);
        }
        for &o in &self.order[self.marked..self.passed] {
            self.marks[o.index()] = true;
        }
        self.marked = self.passed;
        self.marks.get(op.index()).copied().unwrap_or(false)
    }
}

/// Returns the defining op of `value` if it is an op result.
pub(crate) fn defining_op(m: &Module, value: ValueId) -> Option<OpId> {
    match m.value(value).def {
        ValueDef::OpResult { op, .. } => Some(op),
        ValueDef::BlockArg { .. } => None,
    }
}

/// If `value` is produced by an `arith.constant`, returns the constant.
pub(crate) fn constant_value(m: &Module, value: ValueId) -> Option<i64> {
    let op = defining_op(m, value)?;
    if m.op(op).opcode == Opcode::Constant {
        m.int_attr(op, "value")
    } else {
        None
    }
}

/// Evaluates a binary arith opcode on two 64-bit values with the same
/// semantics as the simulator: wrapping two's-complement arithmetic, and the
/// RISC-V convention for division by zero (`divui` → all ones, `remui` →
/// the dividend).
pub fn eval_binary(opcode: Opcode, lhs: i64, rhs: i64) -> Option<i64> {
    Some(match opcode {
        Opcode::AddI => lhs.wrapping_add(rhs),
        Opcode::SubI => lhs.wrapping_sub(rhs),
        Opcode::MulI => lhs.wrapping_mul(rhs),
        Opcode::DivUI => {
            if rhs == 0 {
                -1
            } else {
                ((lhs as u64) / (rhs as u64)) as i64
            }
        }
        Opcode::RemUI => {
            if rhs == 0 {
                lhs
            } else {
                ((lhs as u64) % (rhs as u64)) as i64
            }
        }
        Opcode::AndI => lhs & rhs,
        Opcode::OrI => lhs | rhs,
        Opcode::XOrI => lhs ^ rhs,
        Opcode::ShLI => {
            if (rhs as u64) >= 64 {
                0
            } else {
                ((lhs as u64) << rhs) as i64
            }
        }
        Opcode::ShRUI => {
            if (rhs as u64) >= 64 {
                0
            } else {
                ((lhs as u64) >> rhs) as i64
            }
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_binary_matches_riscv_conventions() {
        assert_eq!(eval_binary(Opcode::AddI, i64::MAX, 1), Some(i64::MIN));
        assert_eq!(eval_binary(Opcode::DivUI, 7, 0), Some(-1));
        assert_eq!(eval_binary(Opcode::RemUI, 7, 0), Some(7));
        assert_eq!(eval_binary(Opcode::ShLI, 1, 65), Some(0));
        assert_eq!(eval_binary(Opcode::ShRUI, -1, 1), Some(i64::MAX));
        assert_eq!(eval_binary(Opcode::For, 1, 2), None);
    }
}
