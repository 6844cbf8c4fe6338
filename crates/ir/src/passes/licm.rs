//! Loop-invariant code motion for pure operations.

use super::defining_op;
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

    /// Rounds over every loop in pre-order, outer loops first, until a
    /// round can hoist nothing more. Ops escape one loop per round, so an
    /// op hoisted into the body of a loop the round has already passed may
    /// go further in the next; that, and an op that used a value defined
    /// after it in its body (never the case in verified IR), are the only
    /// ways a further round can hoist anything, so only they start one.
    fn run(&self, m: &mut Module) -> Changed {
        let mut changed = Changed::No;
        let mut scan = Scan::default();
        let mut loops = Vec::new();
        loop {
            loops.clear();
            for &f in m.funcs() {
                m.walk(f, &mut |op| {
                    if m.op(op).opcode == Opcode::For {
                        loops.push(op);
                    }
                });
            }
            let mut again = false;
            for &for_op in &loops {
                if !m.is_alive(for_op) {
                    continue;
                }
                let hoisted = scan.hoist_from_loop(m, for_op);
                if hoisted {
                    changed = Changed::Yes;
                    again |= m
                        .parent_op(for_op)
                        .is_some_and(|p| m.op(p).opcode == Opcode::For);
                }
                again |= hoisted && scan.forward_use;
            }
            if !again {
                break;
            }
        }
        changed
    }
}

/// What the scan of one loop body knows of an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Unseen,
    Kept,
    Hoisted,
}

/// Buffers of the body scans, kept from loop to loop.
#[derive(Default)]
struct Scan {
    /// By op index.
    marks: Vec<Mark>,
    hoisted: Vec<OpId>,
    /// A kept op of the last body used a value defined after it there.
    forward_use: bool,
}

impl Scan {
    /// Hoists, in body order, every pure op whose operands are defined
    /// outside the loop or by an op hoisted before it, exactly as moving
    /// each in turn would; then moves them all at once.
    fn hoist_from_loop(&mut self, m: &mut Module, for_op: OpId) -> bool {
        let body = m.body_block(for_op, 0);
        self.marks.clear();
        self.marks.resize(m.op_count(), Mark::Unseen);
        self.hoisted.clear();
        self.forward_use = false;
        let mark = |marks: &[Mark], v| defining_op(m, v).map(|d| marks[d.index()]);
        for &op in m.block_ops(body) {
            if !m.is_alive(op) {
                continue;
            }
            let data = m.op(op);
            if !data.opcode.is_pure() || !data.regions.is_empty() {
                continue;
            }
            let invariant = data.operands.iter().all(|&v| {
                mark(&self.marks, v) == Some(Mark::Hoisted) || !m.is_defined_inside(v, for_op)
            });
            if invariant {
                self.marks[op.index()] = Mark::Hoisted;
                self.hoisted.push(op);
            } else {
                self.marks[op.index()] = Mark::Kept;
                self.forward_use |= data.operands.iter().any(|&v| {
                    mark(&self.marks, v) == Some(Mark::Unseen)
                        && defining_op(m, v).and_then(|d| m.op(d).parent) == Some(body)
                });
            }
        }
        m.move_ops_before(&self.hoisted, for_op);
        !self.hoisted.is_empty()
    }
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

    /// A body op placed before the invariant op it uses (unverified IR) is
    /// passed over in the round that hoists its operand, and hoisted in
    /// the next.
    #[test]
    fn an_op_used_before_its_hoisted_definition_follows_in_another_round() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let step = b.const_index(1);
        let mut ops = None;
        b.build_for(lb, ub, step, vec![], |b, _iv, _| {
            let eight = b.const_int(8, Type::I64);
            let stride = b.muli(args[0], eight);
            let s = b.setup("acc", &[("stride", stride)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            ops = Some((eight, stride));
            vec![]
        });
        b.ret(vec![]);
        let (eight, stride) = ops.unwrap();
        let def = |v| defining_op(&m, v).unwrap();
        let (eight, stride) = (def(eight), def(stride));
        m.move_op_before(stride, eight);
        assert!(Licm.run(&mut m).changed());
        let func = m.funcs()[0];
        let top = m.body_block(func, 0);
        assert_eq!(m.op(stride).parent, Some(top));
        assert_eq!(m.op(eight).parent, Some(top));
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
