//! State tracing (Section 5.3): establish the order of setup invocations by
//! threading an explicit state SSA variable between them.
//!
//! The frontend emits disjoint setup/launch/await clusters (Figure 6). This
//! pass connects them: within straight-line code it adds the previous live
//! state as an input to each setup; across `scf.for` it threads the state
//! through a new loop iteration argument (inserting an empty setup before
//! the loop when no state is live yet — exactly the `%state = accfg.setup
//! to ()` of Figure 9); across `scf.if` it adds a state result fed from both
//! branches. Unknown ops (unannotated calls, opaque ops) are assumed to
//! clobber all accelerator state, per the paper's pessimistic default.

use crate::dialect::{
    self, make_setup, setup_input_state, setup_set_input_state, setup_state, StateEffect,
};
use crate::fieldmap::FieldMap;
use accfg_ir::{BlockId, Module, OpId, Opcode, Pass, Symbol, Type, ValueId};

/// Per accelerator (by the symbol of its name), the live configuration
/// state at a program point.
type LiveStates = FieldMap<ValueId>;

/// The state-tracing pass (step 2 of the pipeline in Figure 8).
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceStates;

impl Pass for TraceStates {
    fn name(&self) -> &'static str {
        "accfg-trace-states"
    }

    fn run(&self, m: &mut Module) -> accfg_ir::Changed {
        let mut changed = false;
        for func in m.funcs().to_vec() {
            let block = m.body_block(func, 0);
            let mut live = LiveStates::new();
            changed |= trace_block(m, block, &mut live);
        }
        changed.into()
    }
}

/// Traces one block, updating `live` in place. Returns whether IR changed.
fn trace_block(m: &mut Module, block: BlockId, live: &mut LiveStates) -> bool {
    let mut changed = false;
    for op in m.block_ops(block).to_vec() {
        if !m.is_alive(op) {
            continue;
        }
        match m.op(op).opcode {
            Opcode::AccfgSetup => {
                let accel = dialect::accelerator(m, op);
                if setup_input_state(m, op).is_none() {
                    if let Some(&prev) = live.get(accel) {
                        setup_set_input_state(m, op, Some(prev));
                        changed = true;
                    }
                }
                live.set(accel, setup_state(m, op));
            }
            Opcode::AccfgLaunch | Opcode::AccfgAwait => {}
            Opcode::For => {
                changed |= trace_for(m, op, live);
            }
            Opcode::If => {
                changed |= trace_if(m, op, live);
            }
            _ => match dialect::state_effect(m, op) {
                StateEffect::Preserves => {}
                _ => live.clear(),
            },
        }
    }
    changed
}

/// The accelerators that have a setup under `root`, ordered by name.
fn accels_with_setups(m: &Module, root: OpId) -> Vec<Symbol> {
    dialect::accelerators_where(m, root, |opcode| opcode == Opcode::AccfgSetup)
}

fn trace_for(m: &mut Module, for_op: OpId, live: &mut LiveStates) -> bool {
    if dialect::subtree_has_clobber(m, for_op) {
        // iteration entry state is unknown; trace the body standalone so its
        // straight-line chains still connect, then forget everything
        let body = m.body_block(for_op, 0);
        let mut inner = LiveStates::new();
        let changed = trace_block(m, body, &mut inner);
        live.clear();
        return changed;
    }
    let accels = accels_with_setups(m, for_op);
    if accels.is_empty() {
        // nothing to thread; body can still use outer live states read-only
        let body = m.body_block(for_op, 0);
        let mut inner = live.clone();
        let changed = trace_block(m, body, &mut inner);
        // no setups inside, so outer states survive unchanged
        return changed;
    }
    // ensure a live state exists before the loop for each threaded accel
    // (the `%state = accfg.setup to ()` of Figure 9), each the init of the
    // accel's new iter-arg
    let block = m.op(for_op).parent.expect("loop is attached");
    let pos = m.op_position(for_op).expect("loop is attached");
    let mut operands = m.op(for_op).operands.clone();
    for &accel in &accels {
        let init = match live.get(accel) {
            Some(&s) => s,
            None => {
                let empty = make_setup(m, accel, None, &[]);
                m.insert_op(block, pos, empty);
                setup_state(m, empty)
            }
        };
        operands.push(init);
    }

    // rebuild the loop with one extra iter-arg per accelerator
    let extra_types: Vec<Type> = accels.iter().map(|&a| m.state_type(a)).collect();
    let old_result_count = m.op(for_op).results.len();
    let new_for = m.rebuild_op(for_op, operands, extra_types);

    let body = m.body_block(new_for, 0);
    let mut body_live = live.clone();
    let first_arg = m.block(body).args.len();
    for &accel in &accels {
        let arg = m.add_block_arg(body, m.state_type(accel));
        body_live.set(accel, arg);
    }

    trace_block(m, body, &mut body_live);

    // yield the body's final state for each accel (at minimum the block arg)
    let yield_op = m.terminator(body);
    let mut yield_operands = m.op(yield_op).operands.clone();
    for (accel, &arg) in accels.iter().zip(&m.block(body).args[first_arg..]) {
        yield_operands.push(body_live.get(*accel).copied().unwrap_or(arg));
    }
    m.set_operands(yield_op, yield_operands);

    // after the loop, the live state is the loop's new result
    for (i, accel) in accels.iter().enumerate() {
        let result = m.op(new_for).results[old_result_count + i];
        live.set(*accel, result);
    }
    true
}

fn trace_if(m: &mut Module, if_op: OpId, live: &mut LiveStates) -> bool {
    if dialect::subtree_has_clobber(m, if_op) {
        for ri in 0..2 {
            let block = m.body_block(if_op, ri);
            let mut inner = LiveStates::new();
            trace_block(m, block, &mut inner);
        }
        live.clear();
        return true;
    }
    let accels = accels_with_setups(m, if_op);
    if accels.is_empty() {
        let mut changed = false;
        for ri in 0..2 {
            let block = m.body_block(if_op, ri);
            let mut inner = live.clone();
            changed |= trace_block(m, block, &mut inner);
        }
        return changed;
    }
    let mut changed = false;
    let mut branch_final: Vec<LiveStates> = Vec::with_capacity(2);
    for ri in 0..2 {
        let block = m.body_block(if_op, ri);
        let mut inner = live.clone();
        changed |= trace_block(m, block, &mut inner);
        branch_final.push(inner);
    }

    // accels whose state is known at the end of *both* branches get threaded
    // through new if-results; everything else becomes unknown after the if
    let mut threaded = Vec::new();
    for accel in &accels {
        match (branch_final[0].get(*accel), branch_final[1].get(*accel)) {
            (Some(&a), Some(&b)) => threaded.push((*accel, a, b)),
            _ => {
                live.remove(*accel);
            }
        }
    }
    if threaded.is_empty() {
        return changed;
    }

    let old_result_count = m.op(if_op).results.len();
    let operands = m.op(if_op).operands.clone();
    let extra_types: Vec<Type> = threaded.iter().map(|&(a, _, _)| m.state_type(a)).collect();
    let new_if = m.rebuild_op(if_op, operands, extra_types);
    for (ri, pick) in [0usize, 1].iter().enumerate() {
        let block = m.body_block(new_if, *pick);
        let yield_op = m.terminator(block);
        let mut yield_operands = m.op(yield_op).operands.clone();
        for (_, a, b) in &threaded {
            yield_operands.push(if ri == 0 { *a } else { *b });
        }
        m.set_operands(yield_op, yield_operands);
    }
    for (i, (accel, _, _)) in threaded.iter().enumerate() {
        let result = m.op(new_if).results[old_result_count + i];
        live.set(*accel, result);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::interpret;
    use accfg_ir::{print_module, verify, FuncBuilder, Type};

    fn run_trace(m: &mut Module) {
        TraceStates.run(m);
        verify(m).expect("traced IR verifies");
    }

    #[test]
    fn connects_straight_line_setups() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(1);
        let s1 = b.setup("acc", &[("a", x)]);
        let t1 = b.launch("acc", s1);
        b.await_token("acc", t1);
        let s2 = b.setup("acc", &[("b", x)]); // no input: should get s1
        let t2 = b.launch("acc", s2);
        b.await_token("acc", t2);
        b.ret(vec![]);

        let before = interpret(&m, "f", &[], 1000).unwrap();
        run_trace(&mut m);
        let after = interpret(&m, "f", &[], 1000).unwrap();
        assert_eq!(before.launches, after.launches);

        let text = print_module(&m);
        assert!(text.contains("from"), "{text}");
    }

    #[test]
    fn threads_state_through_loops() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            let s = b.setup("acc", &[("i", iv)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);

        let before = interpret(&m, "f", &[], 10_000).unwrap();
        run_trace(&mut m);
        let after = interpret(&m, "f", &[], 10_000).unwrap();
        assert_eq!(before.launches, after.launches);

        let text = print_module(&m);
        // Figure 9: an empty setup appears before the loop, and the loop
        // carries the state in iter_args
        assert!(text.contains("accfg.setup \"acc\" to ()"), "{text}");
        assert!(text.contains("iter_args"), "{text}");
        assert!(text.contains("-> (!accfg.state<\"acc\">)"), "{text}");
        // the in-loop setup is now chained from the iteration argument
        assert!(text.contains("accfg.setup \"acc\" from"), "{text}");
    }

    #[test]
    fn reuses_live_state_before_loop() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(7);
        let s0 = b.setup("acc", &[("cfg", x)]);
        let t0 = b.launch("acc", s0);
        b.await_token("acc", t0);
        let lb = b.const_index(0);
        let ub = b.const_index(2);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            let s = b.setup("acc", &[("i", iv)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);

        let before = interpret(&m, "f", &[], 10_000).unwrap();
        run_trace(&mut m);
        let after = interpret(&m, "f", &[], 10_000).unwrap();
        assert_eq!(before.launches, after.launches);
        let text = print_module(&m);
        // no extra empty setup: s0 is the init
        assert!(!text.contains("to ()"), "{text}");
    }

    #[test]
    fn threads_state_through_if() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I1]);
        let x = b.const_index(1);
        let y = b.const_index(2);
        let s0 = b.setup("acc", &[("base", x)]);
        let t0 = b.launch("acc", s0);
        b.await_token("acc", t0);
        b.build_if(
            args[0],
            |b| {
                let s = b.setup("acc", &[("mode", x)]);
                let t = b.launch("acc", s);
                b.await_token("acc", t);
                vec![]
            },
            |b| {
                let s = b.setup("acc", &[("mode", y)]);
                let t = b.launch("acc", s);
                b.await_token("acc", t);
                vec![]
            },
        );
        // post-if setup: should chain from the new if state result
        let s2 = b.setup("acc", &[("post", y)]);
        let t2 = b.launch("acc", s2);
        b.await_token("acc", t2);
        b.ret(vec![]);

        for arg in [0, 1] {
            let before = interpret(&m, "f", &[arg], 10_000).unwrap();
            let mut m2 = m.clone();
            run_trace(&mut m2);
            let after = interpret(&m2, "f", &[arg], 10_000).unwrap();
            assert_eq!(before.launches, after.launches, "arg={arg}");
        }
        run_trace(&mut m);
        let text = print_module(&m);
        assert!(
            text.contains("scf.if %0 -> (!accfg.state<\"acc\">)"),
            "{text}"
        );
    }

    #[test]
    fn clobbers_break_chains() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(1);
        let s1 = b.setup("acc", &[("a", x)]);
        let t1 = b.launch("acc", s1);
        b.await_token("acc", t1);
        b.call("mystery", vec![], vec![]);
        let s2 = b.setup("acc", &[("b", x)]);
        let t2 = b.launch("acc", s2);
        b.await_token("acc", t2);
        b.ret(vec![]);
        run_trace(&mut m);
        let text = print_module(&m);
        // the second setup must NOT be chained across the call
        assert_eq!(text.matches("from").count(), 0, "{text}");
    }

    #[test]
    fn clobber_inside_loop_prevents_threading() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let lb = b.const_index(0);
        let ub = b.const_index(2);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            b.call("mystery", vec![], vec![]);
            let s = b.setup("acc", &[("i", iv)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);
        run_trace(&mut m);
        let text = print_module(&m);
        assert!(!text.contains("iter_args"), "{text}");
        let before = interpret(&m, "f", &[], 10_000).unwrap();
        assert_eq!(before.launches.len(), 2);
    }

    #[test]
    fn nested_loops_thread_through_both_levels() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let lb = b.const_index(0);
        let ub = b.const_index(2);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, i, _| {
            b.build_for(lb, ub, one, vec![], |b, j, _| {
                let s = b.setup("acc", &[("i", i), ("j", j)]);
                let t = b.launch("acc", s);
                b.await_token("acc", t);
                vec![]
            });
            vec![]
        });
        b.ret(vec![]);

        let before = interpret(&m, "f", &[], 10_000).unwrap();
        run_trace(&mut m);
        let after = interpret(&m, "f", &[], 10_000).unwrap();
        assert_eq!(before.launches, after.launches);
        let text = print_module(&m);
        assert_eq!(text.matches("iter_args").count(), 2, "{text}");
    }

    #[test]
    fn multiple_accelerators_thread_independently() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let lb = b.const_index(0);
        let ub = b.const_index(2);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            let s1 = b.setup("north", &[("i", iv)]);
            let t1 = b.launch("north", s1);
            b.await_token("north", t1);
            let s2 = b.setup("south", &[("i", iv)]);
            let t2 = b.launch("south", s2);
            b.await_token("south", t2);
            vec![]
        });
        b.ret(vec![]);
        let before = interpret(&m, "f", &[], 10_000).unwrap();
        run_trace(&mut m);
        let after = interpret(&m, "f", &[], 10_000).unwrap();
        assert_eq!(before.launches, after.launches);
        let text = print_module(&m);
        assert!(
            text.contains("!accfg.state<\"north\">, !accfg.state<\"south\">"),
            "{text}"
        );
    }
}
