//! Property test: the generic optimization passes (canonicalize, CSE, LICM,
//! DCE) preserve the value of arbitrary arithmetic expression DAGs.
//!
//! A random expression tree over two symbolic inputs is built, anchored by
//! an impure op (`target.csr_write`) so DCE cannot delete it; the anchored
//! value is evaluated with a direct walk before and after the passes.

use accfg_ir::passes::{eval_binary, Canonicalize, Cse, Dce, Licm};
use accfg_ir::{CmpPredicate, FuncBuilder, Module, Opcode, Pass, PassManager, Type, ValueId};
use proptest::prelude::*;
use std::collections::HashMap;

/// A recipe for one expression node.
#[derive(Debug, Clone, Copy)]
enum Node {
    Const(i8),
    Arg(bool),
    /// binary op over two earlier nodes (indices are wrapped)
    Bin(u8, usize, usize),
    Cmp(u8, usize, usize),
    Select(usize, usize, usize),
}

const BIN_OPS: [Opcode; 10] = [
    Opcode::AddI,
    Opcode::SubI,
    Opcode::MulI,
    Opcode::DivUI,
    Opcode::RemUI,
    Opcode::AndI,
    Opcode::OrI,
    Opcode::XOrI,
    Opcode::ShLI,
    Opcode::ShRUI,
];

const PREDS: [CmpPredicate; 8] = [
    CmpPredicate::Eq,
    CmpPredicate::Ne,
    CmpPredicate::Slt,
    CmpPredicate::Sle,
    CmpPredicate::Sgt,
    CmpPredicate::Sge,
    CmpPredicate::Ult,
    CmpPredicate::Ule,
];

fn node() -> impl Strategy<Value = Node> {
    prop_oneof![
        any::<i8>().prop_map(Node::Const),
        any::<bool>().prop_map(Node::Arg),
        (any::<u8>(), 0usize..64, 0usize..64).prop_map(|(o, a, b)| Node::Bin(o, a, b)),
        (any::<u8>(), 0usize..64, 0usize..64).prop_map(|(o, a, b)| Node::Cmp(o, a, b)),
        (0usize..64, 0usize..64, 0usize..64).prop_map(|(c, a, b)| Node::Select(c, a, b)),
    ]
}

/// Builds the DAG, anchored by a csr write of the final node's value.
fn build(nodes: &[Node]) -> Module {
    let mut m = Module::new();
    let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64, Type::I64]);
    let mut values: Vec<ValueId> = Vec::new();
    fn prev(values: &[ValueId], i: usize, b: &mut FuncBuilder<'_>) -> ValueId {
        if values.is_empty() {
            b.const_int(1, Type::I64)
        } else {
            values[i % values.len()]
        }
    }
    for &n in nodes {
        let v = match n {
            Node::Const(c) => b.const_int(i64::from(c), Type::I64),
            Node::Arg(second) => args[usize::from(second)],
            Node::Bin(o, x, y) => {
                let l = prev(&values, x, &mut b);
                let r = prev(&values, y, &mut b);
                b.binary(BIN_OPS[o as usize % BIN_OPS.len()], l, r)
            }
            Node::Cmp(o, x, y) => {
                let l = prev(&values, x, &mut b);
                let r = prev(&values, y, &mut b);
                let c = b.cmpi(PREDS[o as usize % PREDS.len()], l, r);
                // back into i64 land: select(c, l, r)
                b.select(c, l, r)
            }
            Node::Select(c, x, y) => {
                let cv = prev(&values, c, &mut b);
                let zero = b.const_int(0, Type::I64);
                let cond = b.cmpi(CmpPredicate::Ne, cv, zero);
                let l = prev(&values, x, &mut b);
                let r = prev(&values, y, &mut b);
                b.select(cond, l, r)
            }
        };
        values.push(v);
    }
    let root = *values.last().expect("at least one node");
    b.csr_write(0, root);
    b.ret(vec![]);
    m
}

/// Directly evaluates the (straight-line) function body, returning the
/// value written to csr 0.
fn eval(m: &Module, a0: i64, a1: i64) -> i64 {
    let func = m.func_by_name("f").expect("function exists");
    let block = m.body_block(func, 0);
    let params = m.block(block).args.clone();
    let mut env: HashMap<ValueId, i64> = HashMap::new();
    env.insert(params[0], a0);
    env.insert(params[1], a1);
    let mut csr0 = 0;
    for &op in m.block_ops(block) {
        let data = m.op(op);
        let get = |env: &HashMap<ValueId, i64>, v: ValueId| *env.get(&v).unwrap_or(&0);
        match data.opcode {
            Opcode::Constant => {
                env.insert(data.results[0], m.int_attr(op, "value").unwrap());
            }
            o if o.is_binary_arith() => {
                let v = eval_binary(o, get(&env, data.operands[0]), get(&env, data.operands[1]))
                    .unwrap();
                env.insert(data.results[0], v);
            }
            Opcode::CmpI => {
                let pred = CmpPredicate::from_name(m.str_attr(op, "predicate").unwrap()).unwrap();
                let v = pred.eval(get(&env, data.operands[0]), get(&env, data.operands[1]));
                env.insert(data.results[0], i64::from(v));
            }
            Opcode::Select => {
                let v = if get(&env, data.operands[0]) != 0 {
                    get(&env, data.operands[1])
                } else {
                    get(&env, data.operands[2])
                };
                env.insert(data.results[0], v);
            }
            Opcode::CsrWrite => csr0 = get(&env, data.operands[0]),
            Opcode::Return => {}
            other => panic!("unexpected op {other}"),
        }
    }
    csr0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn passes_preserve_expression_values(
        nodes in prop::collection::vec(node(), 1..24),
        a0 in any::<i32>(),
        a1 in any::<i32>(),
    ) {
        let (a0, a1) = (i64::from(a0), i64::from(a1));
        let mut m = build(&nodes);
        let before = eval(&m, a0, a1);

        let mut pm = PassManager::new();
        pm.add(Canonicalize).add(Cse).add(Licm).add(Dce);
        pm.run_to_fixpoint(&mut m, 4).expect("pipeline runs");

        let after = eval(&m, a0, a1);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn dce_makes_unanchored_dags_disappear(nodes in prop::collection::vec(node(), 1..16)) {
        // without the csr anchor, everything but func/return must die
        let mut m = build(&nodes);
        let func = m.func_by_name("f").unwrap();
        let anchor = m
            .walk_collect(func)
            .into_iter()
            .find(|&o| m.op(o).opcode == Opcode::CsrWrite)
            .unwrap();
        m.erase_op(anchor);
        Dce.run(&mut m);
        prop_assert_eq!(m.live_op_count(), 2); // func + return
    }
}
