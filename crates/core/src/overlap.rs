//! Configuration–computation overlap (Section 5.5): schedule configuration
//! to run *while the accelerator is busy*, for concurrent-configuration
//! systems (Section 2.2).
//!
//! Two cooperating rewrites, exactly as the paper describes:
//!
//! 1. [`RotateLoops`] — software pipelining. A loop whose body is
//!    `setup → launch → await` is rotated so each iteration launches the
//!    state prepared by the *previous* one: a copy of the setup sequence
//!    (with the induction variable replaced by the lower bound) primes the
//!    pipeline before the loop, and the in-loop setup switches to an
//!    incremented induction variable (Figure 9, right).
//! 2. [`OverlapInBlock`] — the "relatively simple block-level rewrite":
//!    a setup whose input state was launched and awaited earlier in the same
//!    block moves (together with the pure ops computing its inputs) up in
//!    front of that await, hiding configuration behind execution.
//!
//! Only pure setup-input cones are moved (the paper's purity check); any
//! impure producer blocks the rewrite.

use crate::dialect::{self, setup_fields, setup_input_state, setup_state};
use accfg_ir::{BlockId, Changed, Module, OpId, Opcode, Pass, Symbol, Type, ValueId, ValueMap};

/// Which accelerators an overlap pass may touch. Overlap is only sound on
/// hardware with concurrent configuration support (staging registers), so
/// callers restrict the passes to those targets.
#[derive(Debug, Clone, Default)]
pub enum AccelFilter {
    /// Apply to every accelerator (caller has checked capabilities).
    #[default]
    All,
    /// Apply only to the named accelerators.
    Only(Vec<String>),
}

impl AccelFilter {
    fn allows(&self, accel: &str) -> bool {
        match self {
            AccelFilter::All => true,
            AccelFilter::Only(names) => names.iter().any(|n| n == accel),
        }
    }
}

/// The loop-rotation (software pipelining) half of the overlap optimization.
#[derive(Debug, Clone, Default)]
pub struct RotateLoops {
    /// Restricts rotation to concurrent-configuration accelerators.
    pub filter: AccelFilter,
}

impl RotateLoops {
    /// Rotation restricted to the given accelerators.
    pub fn only(accels: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Self {
            filter: AccelFilter::Only(accels.into_iter().map(Into::into).collect()),
        }
    }
}

impl Pass for RotateLoops {
    fn name(&self) -> &'static str {
        "accfg-rotate-loops"
    }

    fn run(&self, m: &mut Module) -> Changed {
        let mut changed = Changed::No;
        let loops: Vec<OpId> = m
            .walk_module()
            .into_iter()
            .filter(|&op| m.op(op).opcode == Opcode::For)
            .collect();
        for for_op in loops {
            if m.is_alive(for_op) && rotate(m, for_op, &self.filter) {
                changed = Changed::Yes;
            }
        }
        changed
    }
}

/// The matched body shape of a rotatable loop.
struct LoopShape {
    setup: OpId,
    launch: OpId,
    await_op: OpId,
    /// body block argument carrying the loop state
    state_arg: ValueId,
    state_arg_index: usize,
}

/// The function op enclosing `op`.
fn enclosing_func(m: &Module, op: OpId) -> OpId {
    let mut cur = op;
    while let Some(parent) = m.parent_op(cur) {
        cur = parent;
    }
    cur
}

/// Rotation writes the (never-launched) configuration of the one-past-last
/// iteration into the registers. That is only invisible if every later
/// launch of the accelerator is preceded by the loop's own prologue (i.e.
/// control re-enters this loop and the prologue rewrites exactly the
/// speculated fields) — so we require that *no* launch of this accelerator
/// appears after the loop in the function (pre-order follows execution
/// order in this structured IR).
fn speculation_is_observable(m: &Module, for_op: OpId, accel: Symbol) -> bool {
    let (mut past_loop_entry, mut observed) = (false, false);
    m.walk(enclosing_func(m, for_op), &mut |o| {
        if o == for_op {
            past_loop_entry = true;
        } else if past_loop_entry
            && m.op(o).opcode == Opcode::AccfgLaunch
            && m.op(o).accelerator == Some(accel)
            && !m.is_ancestor(for_op, o)
        {
            observed = true;
        }
    });
    observed
}

fn match_loop(m: &Module, for_op: OpId, filter: &AccelFilter) -> Option<LoopShape> {
    let body = m.body_block(for_op, 0);
    let ops = m.block_ops(body);
    // exactly one setup / launch / await, everything else pure (+ yield)
    let mut setup = None;
    let mut launch = None;
    let mut await_op = None;
    for &op in ops {
        match m.op(op).opcode {
            Opcode::AccfgSetup if setup.is_none() => setup = Some(op),
            Opcode::AccfgLaunch if launch.is_none() => launch = Some(op),
            Opcode::AccfgAwait if await_op.is_none() => await_op = Some(op),
            Opcode::Yield => {}
            o if o.is_pure() => {}
            _ => return None,
        }
    }
    let (setup, launch, await_op) = (setup?, launch?, await_op?);
    let accel = dialect::accelerator(m, setup);
    if !filter.allows(m.name(accel)) {
        return None;
    }
    if speculation_is_observable(m, for_op, accel) {
        return None;
    }
    // the setup must chain from the loop's state argument ...
    let state_arg = setup_input_state(m, setup)?;
    let args = &m.block(body).args;
    let state_arg_index = args.iter().position(|&a| a == state_arg)?;
    if state_arg_index == 0 {
        return None; // that's the induction variable
    }
    // ... the launch must fire the setup's state, the await its token
    if m.op(launch).operands != [setup_state(m, setup)] {
        return None;
    }
    if m.op(launch).results != m.op(await_op).operands {
        return None;
    }
    // program order: setup < launch < await
    let pos = |op| m.op_position(op).expect("attached");
    if !(pos(setup) < pos(launch) && pos(launch) < pos(await_op)) {
        return None;
    }
    // the next iteration must receive the setup's state
    let yielded = m.op(m.terminator(body)).operands[state_arg_index - 1];
    if yielded != setup_state(m, setup) {
        return None;
    }
    Some(LoopShape {
        setup,
        launch,
        await_op,
        state_arg,
        state_arg_index,
    })
}

/// The pure ops inside the loop body that (transitively) produce the setup's
/// field operands, in block order.
fn setup_cone(m: &Module, body: BlockId, setup: OpId) -> Option<Vec<OpId>> {
    let mut wanted = ValueMap::with_capacity(m.value_count());
    for &value in setup_fields(m, setup).values() {
        wanted.insert(value, ());
    }
    let mut cone = Vec::new();
    for &op in m.block_ops(body).iter().rev() {
        if op == setup {
            continue;
        }
        let produces_wanted = m.op(op).results.iter().any(|&r| wanted.contains(r));
        if !produces_wanted {
            continue;
        }
        if !m.op(op).opcode.is_pure() {
            return None; // impure producer: cannot be rotated
        }
        for &operand in &m.op(op).operands {
            wanted.insert(operand, ());
        }
        cone.push(op);
    }
    cone.reverse();
    Some(cone)
}

fn rotate(m: &mut Module, for_op: OpId, filter: &AccelFilter) -> bool {
    let Some(shape) = match_loop(m, for_op, filter) else {
        return false;
    };
    let body = m.body_block(for_op, 0);
    let Some(cone) = setup_cone(m, body, shape.setup) else {
        return false;
    };
    let lb = m.op(for_op).operands[0];
    let step = m.op(for_op).operands[2];
    let iv = m.block(body).args[0];
    let init_index = 3 + (shape.state_arg_index - 1);
    let init_state = m.op(for_op).operands[init_index];

    // --- prologue: prime the pipeline with the first iteration's setup -----
    let mut mapping = ValueMap::with_capacity(m.value_count());
    mapping.insert(iv, lb);
    mapping.insert(shape.state_arg, init_state);
    for &op in &cone {
        let clone = m.clone_op(op, &mut mapping);
        m.move_op_before(clone, for_op);
    }
    let pre_setup = m.clone_op(shape.setup, &mut mapping);
    m.move_op_before(pre_setup, for_op);
    m.set_operand(for_op, init_index, setup_state(m, pre_setup));

    // --- in-loop: compute the *next* iteration's configuration -------------
    // %iv_next = iv + step, placed at the top of the body
    let add = m.create_op(
        Opcode::AddI,
        vec![iv, step],
        vec![Type::Index],
        Default::default(),
        vec![],
    );
    m.insert_op(body, 0, add);
    let iv_next = m.op(add).results[0];
    // clone the cone with iv -> iv_next (other uses of iv stay untouched)
    // the prologue's map is done with: its storage serves the next one
    let mut next_mapping = mapping;
    next_mapping.clear();
    next_mapping.insert(iv, iv_next);
    for &op in &cone {
        let clone = m.clone_op(op, &mut next_mapping);
        m.move_op_before(clone, shape.setup);
    }
    let fields: Vec<(Symbol, ValueId)> = setup_fields(m, shape.setup)
        .iter()
        .map(|(n, v)| (n, next_mapping.get(v).copied().unwrap_or(v)))
        .collect();
    dialect::setup_set_fields(m, shape.setup, &fields);

    // --- reorder: launch the previous state first, await after the setup ---
    m.set_operands(shape.launch, vec![shape.state_arg]);
    let first = m.block(body).ops[0];
    if first != shape.launch {
        m.move_op_before(shape.launch, first);
    }
    let yield_op = m.terminator(body);
    m.move_op_before(shape.await_op, yield_op);

    // dead original cone ops are cleaned up by DCE later
    true
}

/// The block-level overlap rewrite: move setup sequences above the await
/// that covers their input state.
///
/// With [`OverlapInBlock::partial`] enabled, a setup whose input cone
/// contains impure producers is *split*: the fields with pure producers
/// move above the await, the rest stay put — the partial motion the paper's
/// Section 5.5 describes as possible but unimplemented ("a partial move of
/// the setup operation could still be performed, although this is not
/// implemented in our current infrastructure").
#[derive(Debug, Clone, Default)]
pub struct OverlapInBlock {
    /// Restricts the rewrite to concurrent-configuration accelerators.
    pub filter: AccelFilter,
    /// Enables splitting setups so the movable fields still overlap.
    pub partial: bool,
}

impl OverlapInBlock {
    /// Overlap restricted to the given accelerators.
    pub fn only(accels: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Self {
            filter: AccelFilter::Only(accels.into_iter().map(Into::into).collect()),
            partial: false,
        }
    }

    /// Overlap with partial setup motion enabled.
    pub fn with_partial_motion() -> Self {
        Self {
            filter: AccelFilter::All,
            partial: true,
        }
    }
}

impl Pass for OverlapInBlock {
    fn name(&self) -> &'static str {
        "accfg-overlap-in-block"
    }

    fn run(&self, m: &mut Module) -> Changed {
        let mut changed = Changed::No;
        loop {
            let mut moved = false;
            for setup in m.walk_module() {
                if !m.is_alive(setup) || m.op(setup).opcode != Opcode::AccfgSetup {
                    continue;
                }
                if try_move_above_await(m, setup, &self.filter, self.partial) {
                    moved = true;
                    changed = Changed::Yes;
                }
            }
            if !moved {
                break;
            }
        }
        changed
    }
}

fn try_move_above_await(m: &mut Module, setup: OpId, filter: &AccelFilter, partial: bool) -> bool {
    let accel = dialect::accelerator(m, setup);
    if !filter.allows(m.name(accel)) {
        return false;
    }
    let Some(input) = setup_input_state(m, setup) else {
        return false;
    };
    // every launch of our input state must stay *before* this setup (each
    // observes the pre-setup registers), so the move target is the await of
    // the LAST such launch. A state is usually launched once, but
    // deduplication can collapse identical setups and leave one state with
    // several launches.
    let launches = || {
        m.uses_of(input)
            .iter()
            .filter_map(|u| (m.op(u.op).opcode == Opcode::AccfgLaunch).then_some(u.op))
    };
    // all launches must be in the setup's own block so positions compare
    if launches().any(|l| m.op(l).parent != m.op(setup).parent) {
        return false;
    }
    let Some(launch) = launches().max_by_key(|&l| m.op_position(l).expect("attached")) else {
        return false;
    };
    let token = m.op(launch).results[0];
    let await_op = m
        .uses_of(token)
        .iter()
        .find_map(|u| (m.op(u.op).opcode == Opcode::AccfgAwait).then_some(u.op));
    let Some(await_op) = await_op else {
        return false;
    };

    // same block, await before setup
    let block = m.op(setup).parent;
    if block.is_none() || m.op(await_op).parent != block {
        return false;
    }
    let block = block.expect("checked");
    let await_pos = m.op_position(await_op).expect("attached");
    let setup_pos = m.op_position(setup).expect("attached");
    if await_pos + 1 >= setup_pos {
        return false; // nothing to hide behind (already adjacent or before)
    }

    let between: Vec<OpId> = m.block(block).ops[await_pos + 1..setup_pos].to_vec();
    // never move configuration across anything that may clobber it
    if between
        .iter()
        .any(|&o| dialect::state_effect(m, o) == dialect::StateEffect::Clobbers)
    {
        return false;
    }

    // per-field movability: a field may move if every producer of its value
    // between the await and the setup is pure
    let mut movable_fields = Vec::new();
    let mut blocked_fields = Vec::new();
    let mut cone: Vec<OpId> = Vec::new();
    let mut wanted = ValueMap::with_capacity(m.value_count());
    for (name, value) in setup_fields(m, setup).iter() {
        wanted.clear();
        wanted.insert(value, ());
        let mut field_cone = Vec::new();
        let mut pure = true;
        for &op in between.iter().rev() {
            let produces_wanted = m.op(op).results.iter().any(|&r| wanted.contains(r));
            if !produces_wanted {
                continue;
            }
            if !m.op(op).opcode.is_pure() {
                pure = false;
                break;
            }
            for &operand in &m.op(op).operands {
                wanted.insert(operand, ());
            }
            field_cone.push(op);
        }
        if pure {
            movable_fields.push((name, value));
            for op in field_cone {
                if !cone.contains(&op) {
                    cone.push(op);
                }
            }
        } else {
            blocked_fields.push((name, value));
        }
    }
    // restore block order for the union cone
    cone.sort_by_key(|&op| m.op_position(op).expect("attached"));

    if blocked_fields.is_empty() {
        // whole setup moves (the original rewrite)
        for op in cone {
            m.move_op_before(op, await_op);
        }
        m.move_op_before(setup, await_op);
        return true;
    }
    if !partial || movable_fields.is_empty() {
        return false;
    }

    // partial motion: split off the movable fields into their own setup
    // chained in front of the remainder, then move only that part
    let movable = dialect::make_setup(m, accel, Some(input), &movable_fields);
    let movable_state = setup_state(m, movable);
    m.move_op_before(movable, setup);
    dialect::setup_set_input_state(m, setup, Some(movable_state));
    dialect::setup_set_fields(m, setup, &blocked_fields);
    for op in cone {
        m.move_op_before(op, await_op);
    }
    m.move_op_before(movable, await_op);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup::{Deduplicate, MergeSetups, RemoveEmptySetups};
    use crate::hoist::HoistInvariantSetupFields;
    use crate::interp::interpret;
    use crate::trace_states::TraceStates;
    use accfg_ir::passes::Dce;
    use accfg_ir::{print_module, verify, FuncBuilder, Type};

    /// Build the canonical tiled loop: per iteration configure (address =
    /// base + 8*i), launch, await.
    fn tiled_loop(trip: i64) -> Module {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(trip);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            let eight = b.const_index(8);
            let off = b.muli(iv, eight);
            let addr = b.addi(args[0], off);
            let s = b.setup("acc", &[("addr", addr)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);
        m
    }

    fn rotate_pipeline(m: &mut Module) {
        TraceStates.run(m);
        RotateLoops::default().run(m);
        Dce.run(m);
        verify(m).expect("rotated IR verifies");
    }

    #[test]
    fn rotation_preserves_launch_traces() {
        let mut m = tiled_loop(5);
        let before = interpret(&m, "f", &[1000], 100_000).unwrap();
        rotate_pipeline(&mut m);
        let after = interpret(&m, "f", &[1000], 100_000).unwrap();
        assert_eq!(before.launches, after.launches);
    }

    #[test]
    fn rotation_produces_figure9_shape() {
        let mut m = tiled_loop(10);
        rotate_pipeline(&mut m);
        let text = print_module(&m);
        // prologue setup before the loop
        let for_pos = text.find("scf.for").unwrap();
        let first_setup = text.find("accfg.setup").unwrap();
        assert!(first_setup < for_pos, "{text}");
        // inside the body: launch comes first, await right before yield
        let body = &text[for_pos..];
        let launch_pos = body.find("accfg.launch").unwrap();
        let setup_pos = body.find("accfg.setup").unwrap();
        let await_pos = body.find("accfg.await").unwrap();
        assert!(launch_pos < setup_pos, "{text}");
        assert!(setup_pos < await_pos, "{text}");
    }

    #[test]
    fn rotation_launches_previous_iteration_state() {
        let mut m = tiled_loop(3);
        TraceStates.run(&mut m);
        assert!(RotateLoops::default().run(&mut m).changed());
        verify(&m).unwrap();
        // the launch now consumes the block argument, not the fresh setup
        let func = m.func_by_name("f").unwrap();
        let launch = m
            .walk_collect(func)
            .into_iter()
            .find(|&o| m.op(o).opcode == Opcode::AccfgLaunch)
            .unwrap();
        let state = m.op(launch).operands[0];
        assert!(matches!(
            m.value(state).def,
            accfg_ir::ValueDef::BlockArg { .. }
        ));
    }

    #[test]
    fn rotation_respects_accelerator_filter() {
        let mut m = tiled_loop(3);
        TraceStates.run(&mut m);
        assert!(!RotateLoops::only(["other"]).run(&mut m).changed());
        assert!(RotateLoops::only(["acc"]).run(&mut m).changed());
    }

    #[test]
    fn impure_body_op_blocks_rotation() {
        let mut m = Module::new();
        let (mut b, _args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            b.call("host_work", vec![iv], vec![]); // impure
            let s = b.setup("acc", &[("i", iv)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);
        TraceStates.run(&mut m);
        assert!(!RotateLoops::default().run(&mut m).changed());
    }

    #[test]
    fn rotation_composes_with_dedup_and_hoist() {
        let mut m = tiled_loop(6);
        let before = interpret(&m, "f", &[512], 100_000).unwrap();
        TraceStates.run(&mut m);
        HoistInvariantSetupFields.run(&mut m);
        Deduplicate.run(&mut m);
        RemoveEmptySetups.run(&mut m);
        MergeSetups.run(&mut m);
        RotateLoops::default().run(&mut m);
        Dce.run(&mut m);
        verify(&m).unwrap();
        let after = interpret(&m, "f", &[512], 100_000).unwrap();
        assert_eq!(before.launches, after.launches);
    }

    #[test]
    fn block_overlap_moves_setup_above_await() {
        // two chained invocations in straight-line code: the second setup
        // can be configured while the first launch is still running
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64, Type::I64]);
        let s1 = b.setup("acc", &[("addr", args[0])]);
        let t1 = b.launch("acc", s1);
        b.await_token("acc", t1);
        let two = b.const_index(2);
        let scaled = b.muli(args[1], two);
        let s2 = b.setup_from("acc", s1, &[("addr", scaled)]);
        let t2 = b.launch("acc", s2);
        b.await_token("acc", t2);
        b.ret(vec![]);

        let before = interpret(&m, "f", &[10, 20], 1000).unwrap();
        assert!(OverlapInBlock::default().run(&mut m).changed());
        verify(&m).unwrap();
        let after = interpret(&m, "f", &[10, 20], 1000).unwrap();
        assert_eq!(before.launches, after.launches);

        let text = print_module(&m);
        let await1 = text.find("accfg.await").unwrap();
        let setup2 = text[await1..].find("accfg.setup").map(|p| p + await1);
        // the second setup (and its muli) moved above the first await
        let setup_positions: Vec<usize> =
            text.match_indices("accfg.setup").map(|(p, _)| p).collect();
        assert!(setup_positions[1] < await1, "{text}");
        let _ = setup2;
    }

    #[test]
    fn block_overlap_blocked_by_impure_producer() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let s1 = b.setup("acc", &[("addr", args[0])]);
        let t1 = b.launch("acc", s1);
        b.await_token("acc", t1);
        let v = b.opaque("read_sensor", vec![], vec![Type::I64], None);
        let s2 = b.setup_from("acc", s1, &[("addr", v[0])]);
        let t2 = b.launch("acc", s2);
        b.await_token("acc", t2);
        b.ret(vec![]);
        assert!(!OverlapInBlock::default().run(&mut m).changed());
    }

    #[test]
    fn block_overlap_respects_filter() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let s1 = b.setup("seq", &[("a", args[0])]);
        let t1 = b.launch("seq", s1);
        b.await_token("seq", t1);
        let s2 = b.setup_from("seq", s1, &[("a", args[0])]);
        let t2 = b.launch("seq", s2);
        b.await_token("seq", t2);
        b.ret(vec![]);
        assert!(!OverlapInBlock::only(["conc"]).run(&mut m).changed());
    }

    #[test]
    fn rotation_blocked_when_later_launch_observes_speculation() {
        // regression (found by proptest): a second loop's launch after the
        // first loop would observe the first rotation's speculative
        // one-past-last configuration of the "i" register
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let lb = b.const_index(0);
        let ub = b.const_index(1);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            let s = b.setup("acc", &[("i", iv)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.build_for(lb, ub, one, vec![], |b, _iv, _| {
            let c = b.const_index(7);
            let s = b.setup("acc", &[("j", c)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);

        let before = interpret(&m, "f", &[], 100_000).unwrap();
        TraceStates.run(&mut m);
        let changed = RotateLoops::default().run(&mut m);
        verify(&m).unwrap();
        let after = interpret(&m, "f", &[], 100_000).unwrap();
        assert_eq!(before.launches, after.launches);
        // the first loop must NOT rotate; the last loop may
        assert!(changed.changed(), "the final loop is still rotatable");
        let text = print_module(&m);
        // unrotated first loop: its "i" setup still precedes its launch
        let i_setup = text.find("(\"i\" =").unwrap();
        let first_launch = text.find("accfg.launch").unwrap();
        assert!(
            i_setup < first_launch,
            "first loop must stay unrotated: {text}"
        );
    }

    #[test]
    fn block_overlap_respects_every_launch_of_a_shared_state() {
        // regression (found by proptest): dedup can leave one state with
        // two launches; the next setup must move above the await of the
        // LAST one, not the first
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let s1 = b.setup("acc", &[("addr", args[0])]);
        let t1 = b.launch("acc", s1);
        b.await_token("acc", t1);
        let t2 = b.launch("acc", s1); // same state launched again
        b.await_token("acc", t2);
        let zero = b.const_index(0);
        let s2 = b.setup_from("acc", s1, &[("addr", zero)]);
        let t3 = b.launch("acc", s2);
        b.await_token("acc", t3);
        b.ret(vec![]);

        let before = interpret(&m, "f", &[42], 10_000).unwrap();
        OverlapInBlock::default().run(&mut m);
        verify(&m).unwrap();
        crate::discipline::verify_discipline(&m).unwrap();
        let after = interpret(&m, "f", &[42], 10_000).unwrap();
        assert_eq!(before.launches, after.launches);
    }

    #[test]
    fn partial_motion_splits_and_moves_pure_fields() {
        // "addr" has a pure producer (movable); "mode" comes from an impure
        // read (blocked). Full motion fails; partial motion moves "addr".
        let build = || {
            let mut m = Module::new();
            let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
            let s1 = b.setup("acc", &[("addr", args[0])]);
            let t1 = b.launch("acc", s1);
            b.await_token("acc", t1);
            let two = b.const_index(2);
            let scaled = b.muli(args[0], two); // pure producer
            let sensor = b.opaque(
                "read_sensor",
                vec![],
                vec![Type::I64],
                Some(accfg_ir::Effects::None), // preserves accfg state, still impure
            );
            let s2 = b.setup_from("acc", s1, &[("addr", scaled), ("mode", sensor[0])]);
            let t2 = b.launch("acc", s2);
            b.await_token("acc", t2);
            b.ret(vec![]);
            m
        };

        let mut full = build();
        assert!(
            !OverlapInBlock::default().run(&mut full).changed(),
            "full motion must be blocked by the impure producer"
        );

        let mut m = build();
        assert!(OverlapInBlock::with_partial_motion().run(&mut m).changed());
        verify(&m).unwrap();
        crate::discipline::verify_discipline(&m).unwrap();
        let text = print_module(&m);
        // the split produced a third setup, and the movable one (with its
        // muli) sits above the first await
        assert_eq!(text.matches("accfg.setup").count(), 3, "{text}");
        let first_await = text.find("accfg.await").unwrap();
        let addr_setup = text.find("to (\"addr\" =").unwrap();
        assert!(addr_setup < first_await, "{text}");
        let mode_pos = text.find("\"mode\" =").unwrap();
        assert!(mode_pos > first_await, "{text}");
    }

    #[test]
    fn setup_never_moves_across_a_clobber() {
        // hand-written chain across an #accfg.effects<all> op: the move
        // would let the clobber poison freshly-written fields
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let s1 = b.setup("acc", &[("addr", args[0])]);
        let t1 = b.launch("acc", s1);
        b.await_token("acc", t1);
        b.opaque("smash", vec![], vec![], Some(accfg_ir::Effects::All));
        let s2 = b.setup_from("acc", s1, &[("addr", args[0])]);
        let t2 = b.launch("acc", s2);
        b.await_token("acc", t2);
        b.ret(vec![]);

        let before = interpret(&m, "f", &[5], 10_000).unwrap();
        assert!(!OverlapInBlock::with_partial_motion().run(&mut m).changed());
        let after = interpret(&m, "f", &[5], 10_000).unwrap();
        assert_eq!(before.launches, after.launches);
    }

    #[test]
    fn rotated_loop_still_counts_same_launches() {
        for trip in [1, 2, 7] {
            let mut m = tiled_loop(trip);
            let before = interpret(&m, "f", &[64], 100_000).unwrap();
            rotate_pipeline(&mut m);
            let after = interpret(&m, "f", &[64], 100_000).unwrap();
            assert_eq!(before.launches.len(), trip as usize);
            assert_eq!(before.launches, after.launches, "trip={trip}");
        }
    }
}
