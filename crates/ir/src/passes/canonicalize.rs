//! Constant folding and algebraic canonicalization.

use super::{constant_value, eval_binary, Sweep};
use crate::module::{Module, OpId, ValueId};
use crate::op::{CmpPredicate, Opcode};
use crate::pass::{Changed, Pass};
use crate::passes::Dce;
use crate::types::Type;

/// Folds constant expressions and applies algebraic identities, then cleans
/// up with [`Dce`].
///
/// Handled patterns:
/// - binary arith with two constant operands → `arith.constant`
/// - `x + 0`, `0 + x`, `x - 0`, `x * 1`, `1 * x`, `x | 0`, `x ^ 0`,
///   `x << 0`, `x >> 0`, `x / 1` → `x`
/// - `x * 0`, `0 * x`, `x & 0` → `0`
/// - `arith.cmpi` on two constants → constant `i1`
/// - `arith.select` with constant condition → selected operand
/// - `scf.if` with constant condition → inlined branch
///
/// Like MLIR's canonicalizer, this is the enabling pass for configuration
/// deduplication: it collapses distinct-but-equal SSA expression trees so
/// that SSA-value equality (the dedup criterion of Section 5.4) fires.
#[derive(Debug, Clone, Copy, Default)]
pub struct Canonicalize;

impl Pass for Canonicalize {
    fn name(&self) -> &'static str {
        "canonicalize"
    }

    /// Sweeps the module in pre-order, folding as it goes, until a sweep
    /// folds nothing. Whether an op folds depends only on its opcode, its
    /// attributes and its operands (and whether those are constants, which
    /// never change), so a further sweep can fold only an op whose operands
    /// were replaced, or became constants, after the sweep had passed it.
    /// Both go through `FoldSweep::rewriting_users_of` (an op folds to a
    /// constant in place, under its users), which notes when it rewrites
    /// an op already passed; without such a note, the sweep that would
    /// follow is known to fold nothing and is not run. In SSA form every
    /// use follows its definition, so in verified IR one sweep does.
    fn run(&self, m: &mut Module) -> Changed {
        let mut changed = Changed::No;
        loop {
            let mut local = Changed::No;
            let mut sweep = FoldSweep {
                ops: Sweep::new(m.walk_module()),
                revisit: false,
            };
            while let Some(op) = sweep.ops.next() {
                if m.is_alive(op) {
                    local = local.or(try_fold(m, op, &mut sweep));
                }
            }
            if !local.changed() {
                break;
            }
            changed = Changed::Yes;
            if !sweep.revisit {
                break;
            }
        }
        changed.or(Dce.run(m))
    }
}

/// One pre-order sweep, and whether it has rewritten an operand of an op
/// it had already passed.
struct FoldSweep {
    ops: Sweep,
    revisit: bool,
}

impl FoldSweep {
    /// Notes that the users of `value` are about to read something else:
    /// one the sweep has passed must be swept again.
    fn rewriting_users_of(&mut self, m: &mut Module, value: ValueId) {
        if !self.revisit {
            self.revisit = m
                .uses_of(value)
                .iter()
                .any(|u| self.ops.has_passed(m, u.op));
        }
    }

    fn replace_all_uses(&mut self, m: &mut Module, old: ValueId, new: ValueId) {
        if old != new {
            self.rewriting_users_of(m, old);
        }
        m.replace_all_uses(old, new);
    }
}

/// Folds `op` to the constant `value` of type `ty` where it stands: its
/// result, now a constant's, keeps its uses.
fn fold_to_constant(
    m: &mut Module,
    sweep: &mut FoldSweep,
    op: OpId,
    value: i64,
    ty: Type,
) -> Changed {
    sweep.rewriting_users_of(m, m.op(op).results[0]);
    m.fold_to_constant(op, value, ty);
    Changed::Yes
}

fn replace_with_value(m: &mut Module, sweep: &mut FoldSweep, op: OpId, value: ValueId) -> Changed {
    let result = m.op(op).results[0];
    if result == value {
        return Changed::No;
    }
    sweep.replace_all_uses(m, result, value);
    m.erase_op(op);
    Changed::Yes
}

fn try_fold(m: &mut Module, op: OpId, sweep: &mut FoldSweep) -> Changed {
    let opcode = m.op(op).opcode;
    match opcode {
        o if o.is_binary_arith() => fold_binary(m, sweep, op, o),
        Opcode::CmpI => fold_cmp(m, sweep, op),
        Opcode::Select => fold_select(m, sweep, op),
        Opcode::If => fold_if(m, sweep, op),
        _ => Changed::No,
    }
}

fn fold_binary(m: &mut Module, sweep: &mut FoldSweep, op: OpId, opcode: Opcode) -> Changed {
    let lhs = m.op(op).operands[0];
    let rhs = m.op(op).operands[1];
    let (cl, cr) = (constant_value(m, lhs), constant_value(m, rhs));

    // full fold
    if let (Some(a), Some(b)) = (cl, cr) {
        if let Some(v) = eval_binary(opcode, a, b) {
            let ty = m.value_type(m.op(op).results[0]).clone();
            return fold_to_constant(m, sweep, op, v, ty);
        }
    }

    // identities
    match (opcode, cl, cr) {
        (Opcode::AddI, Some(0), _) => return replace_with_value(m, sweep, op, rhs),
        (Opcode::AddI, _, Some(0))
        | (Opcode::SubI, _, Some(0))
        | (Opcode::OrI, _, Some(0))
        | (Opcode::XOrI, _, Some(0))
        | (Opcode::ShLI, _, Some(0))
        | (Opcode::ShRUI, _, Some(0))
        | (Opcode::MulI, _, Some(1))
        | (Opcode::DivUI, _, Some(1)) => return replace_with_value(m, sweep, op, lhs),
        (Opcode::OrI, Some(0), _) | (Opcode::XOrI, Some(0), _) | (Opcode::MulI, Some(1), _) => {
            return replace_with_value(m, sweep, op, rhs)
        }
        (Opcode::MulI, Some(0), _)
        | (Opcode::MulI, _, Some(0))
        | (Opcode::AndI, Some(0), _)
        | (Opcode::AndI, _, Some(0)) => {
            let ty = m.value_type(m.op(op).results[0]).clone();
            return fold_to_constant(m, sweep, op, 0, ty);
        }
        _ => {}
    }
    Changed::No
}

fn fold_cmp(m: &mut Module, sweep: &mut FoldSweep, op: OpId) -> Changed {
    let lhs = m.op(op).operands[0];
    let rhs = m.op(op).operands[1];
    if let (Some(a), Some(b)) = (constant_value(m, lhs), constant_value(m, rhs)) {
        let pred = m
            .str_attr(op, "predicate")
            .and_then(CmpPredicate::from_name);
        if let Some(p) = pred {
            return fold_to_constant(m, sweep, op, i64::from(p.eval(a, b)), Type::I1);
        }
    }
    Changed::No
}

fn fold_select(m: &mut Module, sweep: &mut FoldSweep, op: OpId) -> Changed {
    let cond = m.op(op).operands[0];
    if let Some(c) = constant_value(m, cond) {
        let chosen = if c != 0 {
            m.op(op).operands[1]
        } else {
            m.op(op).operands[2]
        };
        return replace_with_value(m, sweep, op, chosen);
    }
    Changed::No
}

/// Inlines `scf.if` with a constant condition: the live branch's ops move in
/// front of the `scf.if`, results are replaced by the branch's yields.
fn fold_if(m: &mut Module, sweep: &mut FoldSweep, op: OpId) -> Changed {
    let cond = m.op(op).operands[0];
    let Some(c) = constant_value(m, cond) else {
        return Changed::No;
    };
    let region_index = if c != 0 { 0 } else { 1 };
    let branch_block = m.body_block(op, region_index);
    let branch_ops = m.block_ops(branch_block).to_vec();
    let (yield_op, body_ops) = branch_ops
        .split_last()
        .expect("verified if-branch has a terminator");
    // move body ops before the scf.if, in order
    for &inner in body_ops {
        m.move_op_before(inner, op);
    }
    let yields = m.op(*yield_op).operands.clone();
    let results = m.op(op).results.clone();
    // yield must be erased first so RAUW of results doesn't touch it
    m.erase_op(*yield_op);
    for (&r, &y) in results.iter().zip(yields.iter()) {
        sweep.replace_all_uses(m, r, y);
    }
    m.erase_op(op);
    Changed::Yes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::op::CmpPredicate;
    use crate::printer::print_module;
    use crate::types::Type;
    use crate::verifier::verify;

    fn canon(m: &mut Module) {
        Canonicalize.run(m);
        verify(m).unwrap();
    }

    #[test]
    fn folds_constant_addition() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let a = b.const_int(40, Type::I64);
        let c = b.const_int(2, Type::I64);
        let sum = b.addi(a, c);
        let s = b.setup("acc", &[("v", sum)]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        canon(&mut m);
        let text = print_module(&m);
        assert!(text.contains("{value = 42}"), "{text}");
        assert!(!text.contains("arith.addi"), "{text}");
    }

    #[test]
    fn applies_identities() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let zero = b.const_int(0, Type::I64);
        let one = b.const_int(1, Type::I64);
        let a = b.addi(args[0], zero); // x + 0 -> x
        let mul = b.muli(a, one); // x * 1 -> x
        let s = b.setup("acc", &[("v", mul)]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        canon(&mut m);
        let text = print_module(&m);
        assert!(!text.contains("arith.addi"), "{text}");
        assert!(!text.contains("arith.muli"), "{text}");
        // the setup now reads the function argument directly
        assert!(
            text.contains("accfg.setup \"acc\" to (\"v\" = %0)"),
            "{text}"
        );
    }

    #[test]
    fn mul_by_zero_becomes_zero() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let zero = b.const_int(0, Type::I64);
        let p = b.muli(args[0], zero);
        let s = b.setup("acc", &[("v", p)]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        canon(&mut m);
        let text = print_module(&m);
        assert!(!text.contains("arith.muli"), "{text}");
    }

    #[test]
    fn folds_cmp_and_select() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let a = b.const_int(3, Type::I64);
        let c = b.const_int(5, Type::I64);
        let cond = b.cmpi(CmpPredicate::Slt, a, c); // true
        let sel = b.select(cond, args[0], a);
        let s = b.setup("acc", &[("v", sel)]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        canon(&mut m);
        let text = print_module(&m);
        assert!(!text.contains("arith.select"), "{text}");
        assert!(text.contains("\"v\" = %0"), "{text}");
    }

    #[test]
    fn inlines_constant_condition_if() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let cond = b.const_int(1, Type::I1);
        let results = b.build_if(
            cond,
            |b| vec![b.const_int(10, Type::I64)],
            |b| vec![b.const_int(20, Type::I64)],
        );
        let s = b.setup("acc", &[("v", results[0])]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        canon(&mut m);
        let text = print_module(&m);
        assert!(!text.contains("scf.if"), "{text}");
        assert!(text.contains("{value = 10}"), "{text}");
        assert!(!text.contains("{value = 20}"), "{text}");
    }

    /// A foldable op placed after its user (unverified IR): folding it
    /// rewrites an op the sweep has passed, which must be swept again.
    #[test]
    fn a_user_rewritten_after_its_visit_is_swept_again() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let one = b.const_int(1, Type::I64);
        let two = b.const_int(2, Type::I64);
        let sum = b.addi(one, two);
        let user = b.addi(sum, one);
        b.setup("acc", &[("v", user)]);
        b.ret(vec![]);
        let def = |v| crate::passes::defining_op(&m, v).unwrap();
        let (sum_op, user_op) = (def(sum), def(user));
        m.move_op_before(user_op, sum_op);
        assert!(Canonicalize.run(&mut m).changed());
        let text = print_module(&m);
        assert!(!text.contains("arith.addi"), "{text}");
        assert!(text.contains("{value = 4}"), "{text}");
    }

    #[test]
    fn folds_nested_expression_trees() {
        // (2 << 4) | 3, all constant — mirrors Gemmini bit-packing
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let two = b.const_int(2, Type::I64);
        let four = b.const_int(4, Type::I64);
        let three = b.const_int(3, Type::I64);
        let shifted = b.shli(two, four);
        let packed = b.ori(shifted, three);
        let s = b.setup("acc", &[("packed", packed)]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        canon(&mut m);
        let text = print_module(&m);
        assert!(text.contains("{value = 35}"), "{text}");
        assert!(!text.contains("arith.shli"), "{text}");
        assert!(!text.contains("arith.ori"), "{text}");
    }
}
