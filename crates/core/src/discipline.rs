//! The accfg usage discipline (Section 5.1): "only one state variable may be
//! live at any point in time per accelerator", and tokens are awaited
//! exactly once.
//!
//! This is a lint on top of the structural verifier in `accfg-ir`. Passes in
//! this crate are tested to preserve it.

use crate::dialect;
use accfg_ir::{BlockId, Module, OpId, Opcode, Type, ValueId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A violation of the accfg discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisciplineError {
    /// The op at which the violation was detected.
    pub op: OpId,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for DisciplineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accfg discipline violated at {}: {}",
            self.op, self.message
        )
    }
}

impl Error for DisciplineError {}

/// Checks the accfg discipline over the whole module:
///
/// - a state value is only used while it is the *newest* state of its
///   accelerator in its block (uses may precede, never follow, the
///   definition of a younger state);
/// - every launch token is awaited exactly once.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_discipline(m: &Module) -> Result<(), DisciplineError> {
    for &func in m.funcs() {
        for op in m.walk_collect(func) {
            if m.op(op).opcode == Opcode::AccfgLaunch {
                let token = m.op(op).results[0];
                let awaits = m
                    .uses_of(token)
                    .iter()
                    .filter(|u| m.op(u.op).opcode == Opcode::AccfgAwait)
                    .count();
                if awaits != 1 {
                    return Err(DisciplineError {
                        op,
                        message: format!(
                            "launch token must be awaited exactly once, found {awaits} awaits"
                        ),
                    });
                }
            }
        }
        let body = m.body_block(func, 0);
        check_block(m, body)?;
    }
    Ok(())
}

fn check_block(m: &Module, block: BlockId) -> Result<(), DisciplineError> {
    // newest state value defined in this block, per accelerator
    let mut newest: HashMap<&str, ValueId> = HashMap::new();
    for &arg in &m.block(block).args {
        if let Type::State(accel) = m.value_type(arg) {
            newest.insert(accel, arg);
        }
    }
    for &op in m.block_ops(block) {
        // a state operand must be the newest known state of its accelerator
        for &operand in &m.op(op).operands {
            if let Type::State(accel) = m.value_type(operand) {
                if let Some(&n) = newest.get(&**accel) {
                    if n != operand {
                        return Err(DisciplineError {
                            op,
                            message: format!(
                                "uses stale state {operand} of accelerator \"{accel}\" \
                                 (newest is {n})"
                            ),
                        });
                    }
                }
            }
        }
        for &result in &m.op(op).results {
            if let Type::State(accel) = m.value_type(result) {
                newest.insert(accel, result);
            }
        }
        for &region in &m.op(op).regions {
            for &b in &m.region(region).blocks {
                check_block(m, b)?;
            }
        }
    }
    Ok(())
}

/// Counts configuration field writes statically reachable in one pass over
/// the IR (each setup's field count, loops counted once). A cheap progress
/// metric used by tests and benches: deduplication must never increase it.
pub fn static_setup_field_count(m: &Module) -> usize {
    let mut count = 0;
    for &func in m.funcs() {
        m.walk(func, &mut |o| {
            if m.op(o).opcode == Opcode::AccfgSetup {
                count += dialect::setup_fields(m, o).len();
            }
        });
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use accfg_ir::{FuncBuilder, Module};

    #[test]
    fn well_formed_program_passes() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(1);
        let s1 = b.setup("acc", &[("a", x)]);
        let t1 = b.launch("acc", s1);
        b.await_token("acc", t1);
        let s2 = b.setup_from("acc", s1, &[("b", x)]);
        let t2 = b.launch("acc", s2);
        b.await_token("acc", t2);
        b.ret(vec![]);
        verify_discipline(&m).unwrap();
    }

    #[test]
    fn stale_state_use_detected() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(1);
        let s1 = b.setup("acc", &[("a", x)]);
        let _s2 = b.setup_from("acc", s1, &[("b", x)]);
        // launching s1 after s2 was defined: stale
        let t = b.launch("acc", s1);
        b.await_token("acc", t);
        b.ret(vec![]);
        let e = verify_discipline(&m).unwrap_err();
        assert!(e.message.contains("stale state"), "{e}");
    }

    #[test]
    fn unawaited_token_detected() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(1);
        let s1 = b.setup("acc", &[("a", x)]);
        b.launch("acc", s1); // never awaited
        b.ret(vec![]);
        let e = verify_discipline(&m).unwrap_err();
        assert!(e.message.contains("awaited exactly once"), "{e}");
    }

    #[test]
    fn different_accelerators_are_independent() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(1);
        let s1 = b.setup("north", &[("a", x)]);
        let s2 = b.setup("south", &[("a", x)]);
        let t1 = b.launch("north", s1); // south's newer state is irrelevant
        b.await_token("north", t1);
        let t2 = b.launch("south", s2);
        b.await_token("south", t2);
        b.ret(vec![]);
        verify_discipline(&m).unwrap();
    }

    #[test]
    fn static_field_count_sums_setups() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(1);
        let s = b.setup("acc", &[("a", x), ("b", x)]);
        let _s2 = b.setup_from("acc", s, &[("c", x)]);
        b.ret(vec![]);
        assert_eq!(static_setup_field_count(&m), 3);
    }
}
