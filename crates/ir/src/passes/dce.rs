//! Dead-code elimination for pure operations.

use super::{defining_op, Sweep};
use crate::module::Module;
use crate::pass::{Changed, Pass};

/// Erases pure operations whose results are all unused, iterating until no
/// more can be removed (so whole dead expression trees disappear).
///
/// # Examples
///
/// ```
/// use accfg_ir::{Module, FuncBuilder, Type, Pass};
/// use accfg_ir::passes::Dce;
///
/// let mut m = Module::new();
/// let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
/// let a = b.const_int(1, Type::I64);
/// b.addi(a, a); // dead
/// b.ret(vec![]);
/// assert_eq!(m.live_op_count(), 4);
/// Dce.run(&mut m);
/// assert_eq!(m.live_op_count(), 2); // func + return
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    /// Sweeps the module in reverse pre-order until a sweep removes
    /// nothing. A pure op the sweep kept had a use when it was visited; a
    /// further sweep removes it only if erasing a later-visited op took
    /// its last use, and the sweep notes when that happens. Without such a
    /// note the sweep that would follow removes nothing and is not run: in
    /// SSA form users precede producers in reverse pre-order, so in
    /// verified IR one sweep kills whole chains.
    fn run(&self, m: &mut Module) -> Changed {
        let mut changed = Changed::No;
        loop {
            let (mut removed_any, mut revisit) = (false, false);
            let mut order = m.walk_module();
            order.reverse();
            let mut sweep = Sweep::new(order);
            while let Some(op) = sweep.next() {
                if !m.is_alive(op) || !m.op(op).opcode.is_pure() || !unused(m, op) {
                    continue;
                }
                let operands = m.op(op).operands.clone();
                m.erase_op(op);
                removed_any = true;
                changed = Changed::Yes;
                for &v in &operands {
                    revisit = revisit
                        || defining_op(m, v).is_some_and(|producer| {
                            m.is_alive(producer)
                                && m.op(producer).opcode.is_pure()
                                && unused(m, producer)
                                && sweep.has_passed(m, producer)
                        });
                }
            }
            if !removed_any || !revisit {
                break;
            }
        }
        changed
    }
}

/// `true` if no live op reads a result of `op`.
fn unused(m: &Module, op: crate::module::OpId) -> bool {
    m.op(op).results.iter().all(|&r| m.uses_of(r).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::types::Type;
    use crate::verifier::verify;

    #[test]
    fn removes_dead_chains() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let a = b.const_int(1, Type::I64);
        let c = b.addi(a, a);
        let d = b.muli(c, c);
        b.shli(d, a); // everything dead
        b.ret(vec![]);
        Dce.run(&mut m);
        assert_eq!(m.live_op_count(), 2);
        verify(&m).unwrap();
    }

    /// A producer placed after its only user (unverified IR): the sweep
    /// keeps it, then erases the user, and must sweep again.
    #[test]
    fn a_producer_freed_after_its_visit_is_swept_again() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let a = b.const_int(1, Type::I64);
        let c = b.addi(a, a);
        b.ret(vec![]);
        let def = |v| crate::passes::defining_op(&m, v).unwrap();
        let (producer, user) = (def(a), def(c));
        m.move_op_before(user, producer);
        assert!(Dce.run(&mut m).changed());
        assert!(!m.is_alive(user) && !m.is_alive(producer));
        assert_eq!(m.live_op_count(), 2);
    }

    #[test]
    fn keeps_used_values() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let a = b.const_int(1, Type::I64);
        let s = b.setup("acc", &[("x", a)]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        assert_eq!(Dce.run(&mut m), Changed::No);
        assert_eq!(m.live_op_count(), 6); // func, const, setup, launch, await, return
    }

    #[test]
    fn never_removes_impure_ops() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let a = b.const_int(1, Type::I64);
        b.csr_write(3, a); // impure, result-less
        b.opaque("mystery", vec![], vec![Type::I64], None); // impure, unused result
        b.ret(vec![]);
        Dce.run(&mut m);
        assert_eq!(m.live_op_count(), 5);
    }

    #[test]
    fn removes_dead_ops_inside_loops() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let step = b.const_index(1);
        b.build_for(lb, ub, step, vec![], |b, iv, _| {
            b.addi(iv, iv); // dead
            vec![]
        });
        b.ret(vec![]);
        Dce.run(&mut m);
        // func, 3 constants, for, yield, return
        assert_eq!(m.live_op_count(), 7);
        verify(&m).unwrap();
    }
}
