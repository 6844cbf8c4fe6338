//! Loop-invariant code motion for pure operations.

use crate::module::{Module, OpId};
use crate::op::Opcode;
use crate::pass::{Changed, Pass};

/// Hoists pure operations whose operands are all defined outside the loop to
/// just before the loop.
///
/// The paper's accfg-specific loop hoisting (Section 5.4.1) "closely follows
/// MLIR's existing LICM pass" — this is that existing pass. The accfg
/// variant for `setup` fields lives in the `accfg` crate.
#[derive(Debug, Clone, Copy, Default)]
pub struct Licm;

impl Pass for Licm {
    fn name(&self) -> &'static str {
        "licm"
    }

    fn run(&self, m: &mut Module) -> Changed {
        let mut changed = Changed::No;
        // iterate to a fixpoint so chains of invariant ops hoist fully, and
        // ops escape multiple nested loops one level per round
        loop {
            let mut local = false;
            let loops: Vec<OpId> = m
                .walk_module()
                .into_iter()
                .filter(|&op| m.op(op).opcode == Opcode::For)
                .collect();
            for for_op in loops {
                if !m.is_alive(for_op) {
                    continue;
                }
                local |= hoist_from_loop(m, for_op);
            }
            if !local {
                break;
            }
            changed = Changed::Yes;
        }
        changed
    }
}

fn hoist_from_loop(m: &mut Module, for_op: OpId) -> bool {
    let body = m.body_block(for_op, 0);
    let mut moved = false;
    for op in m.block_ops(body).to_vec() {
        if !m.is_alive(op) {
            continue;
        }
        let data = m.op(op);
        if !data.opcode.is_pure() || !data.regions.is_empty() {
            continue;
        }
        let invariant = data
            .operands
            .iter()
            .all(|&v| !m.is_defined_inside(v, for_op));
        if invariant {
            m.move_op_before(op, for_op);
            moved = true;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::printer::print_module;
    use crate::types::Type;
    use crate::verifier::verify;

    #[test]
    fn hoists_invariant_chain() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let step = b.const_index(1);
        b.build_for(lb, ub, step, vec![], |b, _iv, _| {
            let eight = b.const_int(8, Type::I64);
            let stride = b.muli(args[0], eight); // invariant chain
            let s = b.setup("acc", &[("stride", stride)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);
        assert!(Licm.run(&mut m).changed());
        verify(&m).unwrap();
        let text = print_module(&m);
        // muli now appears before the loop
        let for_pos = text.find("scf.for").unwrap();
        let mul_pos = text.find("arith.muli").unwrap();
        assert!(mul_pos < for_pos, "{text}");
    }

    #[test]
    fn keeps_iv_dependent_ops_inside() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let step = b.const_index(1);
        b.build_for(lb, ub, step, vec![], |b, iv, _| {
            let addr = b.addi(iv, iv); // iv-dependent: must stay
            let s = b.setup("acc", &[("addr", addr), ("base", args[0])]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);
        Licm.run(&mut m);
        verify(&m).unwrap();
        let text = print_module(&m);
        let for_pos = text.find("scf.for").unwrap();
        let add_pos = text.find("arith.addi").unwrap();
        assert!(add_pos > for_pos, "{text}");
    }

    #[test]
    fn hoists_out_of_nested_loops() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let step = b.const_index(1);
        b.build_for(lb, ub, step, vec![], |b, _i, _| {
            b.build_for(lb, ub, step, vec![], |b, _j, _| {
                let eight = b.const_int(8, Type::I64);
                let inv = b.muli(args[0], eight);
                let s = b.setup("acc", &[("v", inv)]);
                let t = b.launch("acc", s);
                b.await_token("acc", t);
                vec![]
            });
            vec![]
        });
        b.ret(vec![]);
        Licm.run(&mut m);
        verify(&m).unwrap();
        let text = print_module(&m);
        let first_for = text.find("scf.for").unwrap();
        let mul_pos = text.find("arith.muli").unwrap();
        assert!(
            mul_pos < first_for,
            "invariant should escape both loops: {text}"
        );
    }

    #[test]
    fn never_hoists_impure_ops() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let step = b.const_index(1);
        b.build_for(lb, ub, step, vec![], |b, _iv, _| {
            b.csr_write(5, args[0]); // invariant operands but impure
            vec![]
        });
        b.ret(vec![]);
        assert!(!Licm.run(&mut m).changed());
        verify(&m).unwrap();
    }
}
