//! Lightweight analyses over the structured IR.

use crate::module::{BlockId, Module, OpId, ValueDef, ValueId};

/// The chain of blocks enclosing `op`, innermost first, each paired with the
/// op at that level: `op` itself, then the ancestor op that contains it.
fn enclosing_blocks(m: &Module, op: OpId) -> impl Iterator<Item = (BlockId, OpId)> + '_ {
    std::iter::successors(Some(op), move |&cur| m.parent_op(cur))
        .map_while(move |cur| m.op(cur).parent.map(|block| (block, cur)))
}

/// `true` if `value` is visible (defined and in scope) at the program point
/// just before `op` — the structured-IR equivalent of SSA dominance.
///
/// A block argument is visible to every op nested under its block; an op
/// result is visible to ops that come later in the same block, and to
/// anything nested under those later ops.
///
/// # Examples
///
/// ```
/// use accfg_ir::{Module, FuncBuilder, Type, analysis::value_visible_at};
///
/// let mut m = Module::new();
/// let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
/// let c = b.const_index(4);
/// let zero = b.const_index(0);
/// let one = b.const_index(1);
/// b.build_for(zero, c, one, vec![], |b, iv, _| {
///     b.addi(iv, c); // `c` from outside is visible here
///     vec![]
/// });
/// b.ret(vec![]);
/// let func = m.func_by_name("f").unwrap();
/// let add = m.walk_collect(func).into_iter()
///     .find(|&o| m.op(o).opcode == accfg_ir::Opcode::AddI).unwrap();
/// assert!(value_visible_at(&m, c, add));
/// ```
pub fn value_visible_at(m: &Module, value: ValueId, op: OpId) -> bool {
    match m.value(value).def {
        ValueDef::BlockArg { block, .. } => {
            // visible iff `block` is one of op's enclosing blocks
            enclosing_blocks(m, op).any(|(b, _)| b == block)
        }
        ValueDef::OpResult { op: def_op, .. } => {
            if def_op == op {
                return false;
            }
            let Some(def_block) = m.op(def_op).parent else {
                return false;
            };
            let Some(def_pos) = m.op_position(def_op) else {
                return false;
            };
            // ... iff the definition precedes, in its own block, the op (or
            // the ancestor of the op) that sits in that block
            enclosing_blocks(m, op)
                .find(|&(b, _)| b == def_block)
                .is_some_and(|(_, at)| def_pos < m.op_position(at).expect("attached"))
        }
    }
}

/// All ops of the given opcode nested under `root` (inclusive), pre-order.
pub fn ops_with_opcode(m: &Module, root: OpId, opcode: crate::Opcode) -> Vec<OpId> {
    m.walk_collect(root)
        .into_iter()
        .filter(|&o| m.op(o).opcode == opcode)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::op::Opcode;
    use crate::types::Type;

    #[test]
    fn earlier_op_results_are_visible() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let a = b.const_int(1, Type::I64);
        let sum = b.addi(a, a);
        b.ret(vec![]);
        let func = m.func_by_name("f").unwrap();
        let add = ops_with_opcode(&m, func, Opcode::AddI)[0];
        assert!(value_visible_at(&m, a, add));
        assert!(!value_visible_at(&m, sum, add)); // own result not visible to itself
    }

    #[test]
    fn later_results_are_not_visible() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let a = b.const_int(1, Type::I64);
        let s = b.addi(a, a);
        b.ret(vec![]);
        let func = m.func_by_name("f").unwrap();
        let const_op = ops_with_opcode(&m, func, Opcode::Constant)[0];
        assert!(!value_visible_at(&m, s, const_op));
    }

    #[test]
    fn loop_locals_invisible_outside() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let zero = b.const_index(0);
        let four = b.const_index(4);
        let one = b.const_index(1);
        let mut inner_val = None;
        b.build_for(zero, four, one, vec![], |b, iv, _| {
            inner_val = Some(b.addi(iv, iv));
            vec![]
        });
        let ret = b.ret(vec![]);
        assert!(!value_visible_at(&m, inner_val.unwrap(), ret));
    }

    #[test]
    fn function_args_visible_everywhere_inside() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let zero = b.const_index(0);
        let four = b.const_index(4);
        let one = b.const_index(1);
        b.build_for(zero, four, one, vec![], |b, _iv, _| {
            b.addi(args[0], args[0]);
            vec![]
        });
        b.ret(vec![]);
        let func = m.func_by_name("f").unwrap();
        let add = ops_with_opcode(&m, func, Opcode::AddI)[0];
        assert!(value_visible_at(&m, args[0], add));
    }
}
