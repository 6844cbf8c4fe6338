//! Control-flow hoisting rewrites (Section 5.4.1), run right before
//! deduplication to expose more redundant writes:
//!
//! - [`HoistSetupIntoBranch`]: a setup consuming an `scf.if`'s joined state
//!   is sunk into both branches, restoring linear setup chains on each path.
//! - [`HoistInvariantSetupFields`]: setup fields that are written with the
//!   same loop-invariant SSA value by every setup in a loop move to a new
//!   setup in front of the loop (Figure 9, middle) — the accfg analogue of
//!   LICM, with the paper's extra "constant throughout the whole body"
//!   constraint.

use crate::dialect::{
    self, make_setup, setup_fields, setup_input_state, setup_set_fields, setup_state,
};
use accfg_ir::analysis::{value_visible_at, values_visible_at};
use accfg_ir::{Changed, Module, OpId, Opcode, Pass, Symbol, Type, ValueDef, ValueId, ValueMap};

/// Sinks setups into the branches of the `scf.if` producing their input
/// state.
#[derive(Debug, Clone, Copy, Default)]
pub struct HoistSetupIntoBranch;

impl Pass for HoistSetupIntoBranch {
    fn name(&self) -> &'static str {
        "accfg-hoist-setup-into-branch"
    }

    fn run(&self, m: &mut Module) -> Changed {
        let mut changed = Changed::No;
        loop {
            let mut candidate = None;
            for &func in m.funcs() {
                m.walk(func, &mut |op| {
                    if candidate.is_none()
                        && m.op(op).opcode == Opcode::AccfgSetup
                        && can_sink(m, op)
                    {
                        candidate = Some(op);
                    }
                });
            }
            match candidate {
                Some(setup) => {
                    sink_into_branches(m, setup);
                    changed = Changed::Yes;
                }
                None => break,
            }
        }
        changed
    }
}

fn input_if(m: &Module, setup: OpId) -> Option<(OpId, u32)> {
    let input = setup_input_state(m, setup)?;
    match m.value(input).def {
        ValueDef::OpResult { op, index } if m.op(op).opcode == Opcode::If => Some((op, index)),
        _ => None,
    }
}

fn can_sink(m: &Module, setup: OpId) -> bool {
    let Some((if_op, index)) = input_if(m, setup) else {
        return false;
    };
    // the joined state must feed only this setup (a launch in between would
    // observe the pre-setup state and pin the order)
    let state = m.op(if_op).results[index as usize];
    if m.uses_of(state).len() != 1 {
        return false;
    }
    // same block, and every field operand visible inside both branches
    if m.op(setup).parent != m.op(if_op).parent {
        return false;
    }
    setup_fields(m, setup).values().iter().all(|&v| {
        (0..2).all(|r| {
            let yield_op = m.terminator(m.body_block(if_op, r));
            value_visible_at(m, v, yield_op)
        })
    })
}

fn sink_into_branches(m: &mut Module, setup: OpId) {
    let (if_op, index) = input_if(m, setup).expect("checked by can_sink");
    let accel = dialect::accelerator(m, setup);
    let fields: Vec<(Symbol, ValueId)> = setup_fields(m, setup).iter().collect();
    for r in 0..2 {
        let block = m.body_block(if_op, r);
        let yield_op = m.terminator(block);
        let branch_state = m.op(yield_op).operands[index as usize];
        let clone = make_setup(m, accel, Some(branch_state), &fields);
        m.move_op_before(clone, yield_op);
        m.set_operand(yield_op, index as usize, setup_state(m, clone));
    }
    let joined = m.op(if_op).results[index as usize];
    let result = setup_state(m, setup);
    m.replace_all_uses(result, joined);
    m.erase_op(setup);
}

/// Moves loop-invariant setup fields in front of the loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct HoistInvariantSetupFields;

impl Pass for HoistInvariantSetupFields {
    fn name(&self) -> &'static str {
        "accfg-hoist-invariant-setup-fields"
    }

    fn run(&self, m: &mut Module) -> Changed {
        let mut changed = Changed::No;
        // innermost loops first, so fields can bubble out level by level
        let mut loops: Vec<OpId> = m
            .walk_module()
            .into_iter()
            .filter(|&op| m.op(op).opcode == Opcode::For)
            .collect();
        loops.reverse();
        if loops.is_empty() {
            return changed;
        }
        let mut scan = FieldScan {
            fields: Vec::with_capacity(m.symbol_count()),
            candidates: Vec::with_capacity(m.symbol_count()),
            visible: ValueMap::with_capacity(m.value_count()),
        };
        for for_op in loops {
            if !m.is_alive(for_op) {
                continue;
            }
            changed = changed.or(hoist_from_loop(m, for_op, &mut scan));
        }
        changed
    }
}

/// What the scan of one loop's setups knows of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Unseen,
    /// Every setup so far writes it with this invariant value.
    Candidate(ValueId),
    /// Written with a loop-variant value, or with two different values.
    Conflicted,
}

/// Buffers of the field scans, kept from loop to loop.
struct FieldScan {
    /// By field symbol.
    fields: Vec<Field>,
    /// The candidates, in the order they were first written.
    candidates: Vec<(Symbol, ValueId)>,
    /// The values visible in front of the loop.
    visible: ValueMap<()>,
}

fn hoist_from_loop(m: &mut Module, for_op: OpId, scan: &mut FieldScan) -> Changed {
    if dialect::subtree_has_clobber(m, for_op) {
        return Changed::No;
    }
    let mut changed = Changed::No;
    // one threaded state per accelerator: find state-typed iter args
    let body = m.body_block(for_op, 0);
    for arg_index in 0..m.block(body).args.len() {
        // a state type's name is interned: some accfg op of the module
        // produced (or the builder typed) the state this argument carries
        let accel = match m.value_type(m.block(body).args[arg_index]) {
            Type::State(name) => m.symbol(name),
            _ => None,
        };
        if let Some(accel) = accel {
            changed = changed.or(hoist_accel_fields(m, for_op, arg_index, accel, scan));
        }
    }
    changed
}

fn hoist_accel_fields(
    m: &mut Module,
    for_op: OpId,
    arg_index: usize,
    accel: Symbol,
    scan: &mut FieldScan,
) -> Changed {
    let setups = dialect::setups_for(m, for_op, accel);
    if setups.is_empty() {
        return Changed::No;
    }
    // candidate fields: written by some setup with a loop-invariant value
    // that is visible before the loop, and never written with a *different*
    // value by any setup in the body. A value visible in front of the loop
    // is defined outside it, so visibility is the whole invariance test.
    let fields = &mut scan.fields;
    fields.clear();
    fields.resize(m.symbol_count(), Field::Unseen);
    let candidates = &mut scan.candidates;
    candidates.clear();
    values_visible_at(m, for_op, &mut scan.visible);
    for &s in &setups {
        for (name, value) in setup_fields(m, s).iter() {
            let field = &mut fields[name.index()];
            match *field {
                Field::Conflicted => {}
                Field::Candidate(existing) if existing == value => {}
                Field::Candidate(_) => *field = Field::Conflicted,
                Field::Unseen if scan.visible.contains(value) => {
                    *field = Field::Candidate(value);
                    candidates.push((name, value));
                }
                Field::Unseen => *field = Field::Conflicted,
            }
        }
    }
    candidates.retain(|&(name, _)| matches!(fields[name.index()], Field::Candidate(_)));
    if candidates.is_empty() {
        return Changed::No;
    }

    // build the pre-loop setup, splicing it into the loop's init chain
    let init_operand_index = 3 + (arg_index - 1);
    let init = m.op(for_op).operands[init_operand_index];
    let pre = make_setup(m, accel, Some(init), candidates);
    m.move_op_before(pre, for_op);
    m.set_operand(for_op, init_operand_index, setup_state(m, pre));

    // strip the hoisted fields from every in-loop writer
    for &s in &setups {
        let hoisted = |n: Symbol| matches!(fields[n.index()], Field::Candidate(_));
        if setup_fields(m, s).iter().any(|(n, _)| hoisted(n)) {
            let remaining: Vec<(Symbol, ValueId)> = setup_fields(m, s)
                .iter()
                .filter(|&(n, _)| !hoisted(n))
                .collect();
            setup_set_fields(m, s, &remaining);
        }
    }
    Changed::Yes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup::{Deduplicate, MergeSetups, RemoveEmptySetups};
    use crate::interp::interpret;
    use crate::trace_states::TraceStates;
    use accfg_ir::passes::Dce;
    use accfg_ir::{parse_module, print_module, verify, FuncBuilder};

    /// The paper's step-3 sub-pipeline: hoist, then dedup, then clean up.
    fn optimize(m: &mut Module) {
        TraceStates.run(m);
        HoistSetupIntoBranch.run(m);
        HoistInvariantSetupFields.run(m);
        Deduplicate.run(m);
        RemoveEmptySetups.run(m);
        MergeSetups.run(m);
        Dce.run(m);
        verify(m).expect("optimized IR verifies");
    }

    #[test]
    fn figure9_loop_invariant_field_hoists() {
        // the exact scenario of Figure 9: "A" is loop-invariant, "i" is not
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![accfg_ir::Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(10);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            let s = b.setup("acc", &[("A", args[0]), ("i", iv)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);

        let before = interpret(&m, "f", &[77], 10_000).unwrap();
        assert_eq!(before.setup_writes, 20); // 10 × (A, i)
        optimize(&mut m);
        let after = interpret(&m, "f", &[77], 10_000).unwrap();
        assert_eq!(before.launches, after.launches);
        assert_eq!(after.setup_writes, 11); // 1 × A + 10 × i

        let text = print_module(&m);
        // pre-loop setup carries "A"; in-loop setup only "i"
        assert!(
            text.contains("accfg.setup \"acc\" to (\"A\" = %0)"),
            "{text}"
        );
        assert!(text.contains("to (\"i\" ="), "{text}");
    }

    #[test]
    fn conflicting_writers_block_hoisting() {
        // two launches per iteration with different "mode" values: the paper
        // explicitly forbids hoisting even though each value is invariant
        let text = r#"
        func.func @f(%p: i64, %q: i64) {
          %lb = arith.constant() {value = 0} : index
          %ub = arith.constant() {value = 4} : index
          %st = arith.constant() {value = 1} : index
          scf.for %i = %lb to %ub step %st {
            %s1 = accfg.setup "acc" to ("mode" = %p) : !accfg.state<"acc">
            %t1 = accfg.launch "acc" with %s1 : !accfg.token<"acc">
            accfg.await "acc" %t1
            %s2 = accfg.setup "acc" from %s1 to ("mode" = %q) : !accfg.state<"acc">
            %t2 = accfg.launch "acc" with %s2 : !accfg.token<"acc">
            accfg.await "acc" %t2
            scf.yield()
          }
          func.return()
        }
        "#;
        let mut m = parse_module(text).unwrap();
        let before = interpret(&m, "f", &[5, 6], 10_000).unwrap();
        optimize(&mut m);
        let after = interpret(&m, "f", &[5, 6], 10_000).unwrap();
        assert_eq!(before.launches, after.launches);
        // mode flips every launch; no write can be elided
        assert_eq!(after.setup_writes, before.setup_writes);
    }

    #[test]
    fn partial_agreement_hoists_only_agreed_fields() {
        let text = r#"
        func.func @f(%p: i64, %q: i64) {
          %lb = arith.constant() {value = 0} : index
          %ub = arith.constant() {value = 4} : index
          %st = arith.constant() {value = 1} : index
          scf.for %i = %lb to %ub step %st {
            %s1 = accfg.setup "acc" to ("base" = %p, "mode" = %p) : !accfg.state<"acc">
            %t1 = accfg.launch "acc" with %s1 : !accfg.token<"acc">
            accfg.await "acc" %t1
            %s2 = accfg.setup "acc" from %s1 to ("base" = %p, "mode" = %q) : !accfg.state<"acc">
            %t2 = accfg.launch "acc" with %s2 : !accfg.token<"acc">
            accfg.await "acc" %t2
            scf.yield()
          }
          func.return()
        }
        "#;
        let mut m = parse_module(text).unwrap();
        let before = interpret(&m, "f", &[5, 6], 10_000).unwrap();
        assert_eq!(before.setup_writes, 16);
        optimize(&mut m);
        let after = interpret(&m, "f", &[5, 6], 10_000).unwrap();
        assert_eq!(before.launches, after.launches);
        // "base" hoisted (1 write); "mode" alternates (8 writes)
        assert_eq!(after.setup_writes, 9);
    }

    #[test]
    fn sinks_setup_into_branches_for_linear_chains() {
        let text = r#"
        func.func @f(%c: i1, %p: i64, %q: i64) {
          %s0 = accfg.setup "acc" to ("base" = %p) : !accfg.state<"acc">
          %t0 = accfg.launch "acc" with %s0 : !accfg.token<"acc">
          accfg.await "acc" %t0
          %sj = scf.if %c -> (!accfg.state<"acc">) then {
            %s1 = accfg.setup "acc" from %s0 to ("mode" = %p) : !accfg.state<"acc">
            scf.yield(%s1)
          } else {
            scf.yield(%s0)
          }
          %s2 = accfg.setup "acc" from %sj to ("base" = %p, "mode" = %p) : !accfg.state<"acc">
          %t2 = accfg.launch "acc" with %s2 : !accfg.token<"acc">
          accfg.await "acc" %t2
          func.return()
        }
        "#;
        let m = parse_module(text).unwrap();
        for c in [0, 1] {
            let before = interpret(&m, "f", &[c, 3, 4], 1000).unwrap();
            let mut m2 = m.clone();
            optimize(&mut m2);
            let after = interpret(&m2, "f", &[c, 3, 4], 1000).unwrap();
            assert_eq!(before.launches, after.launches, "c={c}");
        }
        let mut m3 = m.clone();
        optimize(&mut m3);
        // after sinking + dedup: the then-branch setup writes "mode" once,
        // the sunk copy dedups "base" (known from s0) and "mode" in the then
        // branch; in the else branch only "mode" survives
        let t = print_module(&m3);
        assert!(
            !t.contains("\"base\" = %1, \"mode\""),
            "base write must be gone: {t}"
        );
    }

    #[test]
    fn does_not_sink_when_state_also_launched() {
        let text = r#"
        func.func @f(%c: i1, %p: i64) {
          %sj = scf.if %c -> (!accfg.state<"acc">) then {
            %s1 = accfg.setup "acc" to ("mode" = %p) : !accfg.state<"acc">
            scf.yield(%s1)
          } else {
            %s2 = accfg.setup "acc" to ("mode" = %p) : !accfg.state<"acc">
            scf.yield(%s2)
          }
          %tj = accfg.launch "acc" with %sj : !accfg.token<"acc">
          accfg.await "acc" %tj
          %s3 = accfg.setup "acc" from %sj to ("mode" = %p) : !accfg.state<"acc">
          %t3 = accfg.launch "acc" with %s3 : !accfg.token<"acc">
          accfg.await "acc" %t3
          func.return()
        }
        "#;
        let mut m = parse_module(text).unwrap();
        assert!(!HoistSetupIntoBranch.run(&mut m).changed());
    }

    #[test]
    fn nested_loops_hoist_through_both_levels() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![accfg_ir::Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(3);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, i, _| {
            b.build_for(lb, ub, one, vec![], |b, j, _| {
                let s = b.setup("acc", &[("A", args[0]), ("i", i), ("j", j)]);
                let t = b.launch("acc", s);
                b.await_token("acc", t);
                vec![]
            });
            vec![]
        });
        b.ret(vec![]);

        let before = interpret(&m, "f", &[42], 100_000).unwrap();
        assert_eq!(before.setup_writes, 27);
        optimize(&mut m);
        let after = interpret(&m, "f", &[42], 100_000).unwrap();
        assert_eq!(before.launches, after.launches);
        // A: 1 write; i: 3 writes (hoisted to outer body); j: 9 writes
        assert_eq!(after.setup_writes, 13);
    }
}
