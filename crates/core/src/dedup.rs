//! Configuration deduplication (Section 5.4): remove writes of values that
//! the accelerator's configuration registers already hold.
//!
//! [`ReachingFields`] computes, for every state value, the fields whose
//! register contents are statically known in that state; a setup then drops
//! each field its input state already holds with the same SSA value.
//! SSA-value equality is the proxy for runtime-value equality (Section 5.4:
//! "the same SSA-value will always contain the same value at runtime").
//! Loop-carried states are solved with a shrinking fixpoint: the registers
//! known at loop entry are the intersection of what is known at the initial
//! state and at the back-edge (yield) state.
//!
//! Two cleanup rewrites from the paper follow: [`RemoveEmptySetups`] and
//! [`MergeSetups`].

use crate::dialect::{
    self, setup_fields, setup_input_state, setup_set_fields, setup_set_input_state, setup_state,
    StateEffect,
};
use crate::fieldmap::FieldMap;
use accfg_ir::{BlockId, Changed, Module, OpId, Opcode, Pass, Symbol, ValueDef, ValueId};

/// The reaching-fields analysis: one forward solve over the module that
/// leaves, for every state value, the register contents statically known
/// in that state.
///
/// A setup's state knows what its input state knows, overridden by the
/// fields it writes. An `scf.if` result knows what both branches' yields
/// agree on. A loop-carried state starts from what the loop's init state
/// knows and shrinks to what the back edge confirms — the body is re-solved
/// under the shrunk assumption until nothing more goes (every round removes
/// at least one field, so it ends); the loop's result knows what init and
/// back edge agree on, since the loop may run zero times. Everything else —
/// function arguments, states of foreign ops — knows nothing.
#[derive(Debug)]
pub struct ReachingFields {
    /// Indexed by value: per field, the SSA value known to be in its
    /// register. Values that never carry a state keep an empty map.
    known: Vec<FieldMap<ValueId>>,
}

impl ReachingFields {
    /// Solves every function of `m`.
    pub fn solve(m: &Module) -> Self {
        let mut solver = Self {
            known: vec![FieldMap::new(); m.value_count()],
        };
        for &func in m.funcs() {
            solver.solve_block(m, m.body_block(func, 0));
        }
        solver
    }

    /// The register contents statically known in `state`.
    pub fn known_fields(&self, state: ValueId) -> &FieldMap<ValueId> {
        &self.known[state.index()]
    }

    /// `known[dst] = known[src]`, into `dst`'s own storage (a loop body is
    /// solved several times over the same values).
    fn copy(&mut self, dst: ValueId, src: ValueId) {
        let mut map = std::mem::take(&mut self.known[dst.index()]);
        map.clone_from(&self.known[src.index()]);
        self.known[dst.index()] = map;
    }

    /// `known[dst] ∩= known[other]`. Returns `true` if `known[dst]` shrank.
    fn meet(&mut self, dst: ValueId, other: ValueId) -> bool {
        let mut map = std::mem::take(&mut self.known[dst.index()]);
        let shrunk = map.meet(&self.known[other.index()]);
        self.known[dst.index()] = map;
        shrunk
    }

    fn solve_block(&mut self, m: &Module, block: BlockId) {
        for &op in m.block_ops(block) {
            let data = m.op(op);
            match data.opcode {
                Opcode::AccfgSetup => {
                    let state = setup_state(m, op);
                    match setup_input_state(m, op) {
                        Some(input) => self.copy(state, input),
                        None => self.known[state.index()].clear(),
                    }
                    let map = &mut self.known[state.index()];
                    map.reserve(m.symbol_count());
                    for (name, value) in setup_fields(m, op).iter() {
                        map.set(name, value);
                    }
                }
                Opcode::If => {
                    let yields = [0, 1].map(|r| {
                        let branch = m.body_block(op, r);
                        self.solve_block(m, branch);
                        &m.op(m.terminator(branch)).operands
                    });
                    for (i, &result) in data.results.iter().enumerate() {
                        self.copy(result, yields[0][i]);
                        self.meet(result, yields[1][i]);
                    }
                }
                Opcode::For => {
                    let body = m.body_block(op, 0);
                    let inits = &data.operands[3..];
                    let args = &m.block(body).args[1..];
                    let yields = &m.op(m.terminator(body)).operands;
                    for (&arg, &init) in args.iter().zip(inits) {
                        self.copy(arg, init);
                    }
                    loop {
                        self.solve_block(m, body);
                        let mut shrunk = false;
                        for (&arg, &yielded) in args.iter().zip(yields) {
                            shrunk |= self.meet(arg, yielded);
                        }
                        if !shrunk {
                            break;
                        }
                    }
                    for (i, &result) in data.results.iter().enumerate() {
                        self.copy(result, inits[i]);
                        self.meet(result, yields[i]);
                    }
                }
                _ => {}
            }
        }
    }
}

/// The configuration-deduplication pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deduplicate;

impl Pass for Deduplicate {
    fn name(&self) -> &'static str {
        "accfg-dedup"
    }

    fn run(&self, m: &mut Module) -> Changed {
        // Solved once, on the IR as the pass finds it. Dropping a field
        // whose value its input state already holds leaves what every state
        // knows exactly as it was (the setup's own state still knows the
        // value, through its input), so the solution stays right as the
        // setups below are rewritten one by one.
        let reaching = ReachingFields::solve(m);
        let mut changed = Changed::No;
        for op in m.walk_module() {
            if !m.is_alive(op) || m.op(op).opcode != Opcode::AccfgSetup {
                continue;
            }
            let Some(input) = setup_input_state(m, op) else {
                continue;
            };
            let known = reaching.known_fields(input);
            let redundant = |name: Symbol, value: ValueId| known.get(name) == Some(&value);
            if setup_fields(m, op).iter().any(|(n, v)| redundant(n, v)) {
                m.retain_setup_fields(op, |n, v| !redundant(n, v));
                changed = Changed::Yes;
            }
        }
        changed
    }
}

/// Removes `accfg.setup` ops that write no fields (Section 5.4.1's first
/// cleanup): a field-less setup with an input state is the identity and its
/// result can be replaced by that input; a field-less, input-less setup with
/// no uses is simply dead.
#[derive(Debug, Clone, Copy, Default)]
pub struct RemoveEmptySetups;

impl Pass for RemoveEmptySetups {
    fn name(&self) -> &'static str {
        "accfg-remove-empty-setups"
    }

    fn run(&self, m: &mut Module) -> Changed {
        let mut changed = Changed::No;
        for op in m.walk_module() {
            if !m.is_alive(op) || m.op(op).opcode != Opcode::AccfgSetup {
                continue;
            }
            if !setup_fields(m, op).is_empty() {
                continue;
            }
            let state = setup_state(m, op);
            match setup_input_state(m, op) {
                Some(input) => {
                    m.replace_all_uses(state, input);
                    m.erase_op(op);
                    changed = Changed::Yes;
                }
                None => {
                    // an input-less empty setup carries no information: any
                    // setup chained from it can simply drop its input
                    for u in m.uses_of(state).to_vec() {
                        if m.op(u.op).opcode == Opcode::AccfgSetup
                            && u.operand_index == 0
                            && setup_input_state(m, u.op) == Some(state)
                        {
                            setup_set_input_state(m, u.op, None);
                            changed = Changed::Yes;
                        }
                    }
                    if m.uses_of(state).is_empty() {
                        m.erase_op(op);
                        changed = Changed::Yes;
                    }
                }
            }
        }
        changed
    }
}

/// Merges chained setups with no launch in between (Section 5.4.1's second
/// cleanup): if setup `S2` consumes the state of `S1`, `S1`'s state has no
/// other user, both sit in the same block, and nothing between them clobbers
/// accelerator state, then the two register-write groups collapse into one
/// setup at `S2`'s position (later writes win on name collisions).
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeSetups;

impl Pass for MergeSetups {
    fn name(&self) -> &'static str {
        "accfg-merge-setups"
    }

    fn run(&self, m: &mut Module) -> Changed {
        let mut changed = Changed::No;
        // repeat so chains of three or more setups collapse fully
        loop {
            let mut merged_any = false;
            for s2 in m.walk_module() {
                if !m.is_alive(s2) || m.op(s2).opcode != Opcode::AccfgSetup {
                    continue;
                }
                if try_merge_into(m, s2) {
                    merged_any = true;
                    changed = Changed::Yes;
                }
            }
            if !merged_any {
                break;
            }
        }
        changed
    }
}

fn try_merge_into(m: &mut Module, s2: OpId) -> bool {
    let Some(input) = setup_input_state(m, s2) else {
        return false;
    };
    let ValueDef::OpResult { op: s1, .. } = m.value(input).def else {
        return false;
    };
    if m.op(s1).opcode != Opcode::AccfgSetup {
        return false;
    }
    // S1's state must feed only S2
    if m.uses_of(input).len() != 1 {
        return false;
    }
    // same block, nothing in between that could clobber accelerator state
    let (Some(b1), Some(b2)) = (m.op(s1).parent, m.op(s2).parent) else {
        return false;
    };
    if b1 != b2 {
        return false;
    }
    let p1 = m.op_position(s1).expect("attached");
    let p2 = m.op_position(s2).expect("attached");
    if p1 >= p2 {
        return false;
    }
    let between = &m.block(b1).ops[p1 + 1..p2];
    if between
        .iter()
        .any(|&o| dialect::state_effect(m, o) == StateEffect::Clobbers)
    {
        return false;
    }

    // merged field list: S1's fields, overridden/extended by S2's
    let mut merged: Vec<(Symbol, ValueId)> = setup_fields(m, s1).iter().collect();
    for (name, value) in setup_fields(m, s2).iter() {
        if let Some(slot) = merged.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            merged.push((name, value));
        }
    }
    let s1_input = setup_input_state(m, s1);
    setup_set_input_state(m, s2, s1_input);
    setup_set_fields(m, s2, &merged);
    m.erase_op(s1);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::interpret;
    use crate::trace_states::TraceStates;
    use accfg_ir::{parse_module, print_module, verify, FuncBuilder};

    fn dedup_all(m: &mut Module) {
        TraceStates.run(m);
        Deduplicate.run(m);
        RemoveEmptySetups.run(m);
        MergeSetups.run(m);
        accfg_ir::passes::Dce.run(m);
        verify(m).expect("deduped IR verifies");
    }

    #[test]
    fn removes_repeated_field_writes() {
        let text = r#"
        func.func @f(%p: i64) {
          %c = arith.constant() {value = 3} : i64
          %s1 = accfg.setup "acc" to ("A" = %p, "mode" = %c) : !accfg.state<"acc">
          %t1 = accfg.launch "acc" with %s1 : !accfg.token<"acc">
          accfg.await "acc" %t1
          %s2 = accfg.setup "acc" from %s1 to ("A" = %p, "mode" = %c) : !accfg.state<"acc">
          %t2 = accfg.launch "acc" with %s2 : !accfg.token<"acc">
          accfg.await "acc" %t2
          func.return()
        }
        "#;
        let mut m = parse_module(text).unwrap();
        let before = interpret(&m, "f", &[42], 1000).unwrap();
        dedup_all(&mut m);
        let after = interpret(&m, "f", &[42], 1000).unwrap();
        assert_eq!(before.launches, after.launches);
        assert_eq!(before.setup_writes, 4);
        assert_eq!(after.setup_writes, 2); // second setup fully deduplicated
    }

    #[test]
    fn keeps_changed_fields() {
        let text = r#"
        func.func @f(%p: i64, %q: i64) {
          %s1 = accfg.setup "acc" to ("A" = %p) : !accfg.state<"acc">
          %t1 = accfg.launch "acc" with %s1 : !accfg.token<"acc">
          accfg.await "acc" %t1
          %s2 = accfg.setup "acc" from %s1 to ("A" = %q) : !accfg.state<"acc">
          %t2 = accfg.launch "acc" with %s2 : !accfg.token<"acc">
          accfg.await "acc" %t2
          func.return()
        }
        "#;
        let mut m = parse_module(text).unwrap();
        let before = interpret(&m, "f", &[1, 2], 1000).unwrap();
        dedup_all(&mut m);
        let after = interpret(&m, "f", &[1, 2], 1000).unwrap();
        assert_eq!(before.launches, after.launches);
        assert_eq!(after.setup_writes, 2); // both writes necessary
    }

    #[test]
    fn dedups_loop_invariant_fields_carried_by_iter_args() {
        // after tracing, the loop state is an iter_arg; the "A" field is
        // written every iteration with the same SSA value -> all but the
        // first write are redundant
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![accfg_ir::Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            let s = b.setup("acc", &[("A", args[0]), ("i", iv)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);

        let before = interpret(&m, "f", &[9], 10_000).unwrap();
        assert_eq!(before.setup_writes, 8);

        TraceStates.run(&mut m);
        verify(&m).unwrap();
        Deduplicate.run(&mut m);
        verify(&m).unwrap();
        let after = interpret(&m, "f", &[9], 10_000).unwrap();
        assert_eq!(before.launches, after.launches);
        // "A" deduplicated in iterations 2..4 — but kept in iteration 1?
        // No: the loop-entry intersection includes the init (empty setup),
        // where "A" is unknown, so the in-loop write stays. The hoist pass
        // (not run here) is what moves it out. Writes: 4×i + 4×A = 8 → the
        // dedup alone cannot remove loop writes without hoisting.
        assert_eq!(after.setup_writes, 8);
    }

    #[test]
    fn dedups_across_if_join_when_both_branches_agree() {
        let text = r#"
        func.func @f(%c: i1, %p: i64) {
          %k = arith.constant() {value = 5} : i64
          %s0 = accfg.setup "acc" to ("base" = %p) : !accfg.state<"acc">
          %t0 = accfg.launch "acc" with %s0 : !accfg.token<"acc">
          accfg.await "acc" %t0
          %s3 = scf.if %c -> (!accfg.state<"acc">) then {
            %s1 = accfg.setup "acc" from %s0 to ("mode" = %k) : !accfg.state<"acc">
            scf.yield(%s1)
          } else {
            %s2 = accfg.setup "acc" from %s0 to ("mode" = %k) : !accfg.state<"acc">
            scf.yield(%s2)
          }
          %s4 = accfg.setup "acc" from %s3 to ("base" = %p, "mode" = %k) : !accfg.state<"acc">
          %t4 = accfg.launch "acc" with %s4 : !accfg.token<"acc">
          accfg.await "acc" %t4
          func.return()
        }
        "#;
        let mut m = parse_module(text).unwrap();
        for c in [0, 1] {
            let before = interpret(&m, "f", &[c, 7], 1000).unwrap();
            let mut m2 = m.clone();
            dedup_all(&mut m2);
            let after = interpret(&m2, "f", &[c, 7], 1000).unwrap();
            assert_eq!(before.launches, after.launches, "c={c}");
        }
        dedup_all(&mut m);
        // both "base" (from s0, preserved through the if) and "mode" (agreed
        // by both branches) are redundant in s4 — it disappears entirely
        let text2 = print_module(&m);
        assert_eq!(text2.matches("accfg.setup").count(), 3, "{text2}");
    }

    #[test]
    fn does_not_dedup_when_branches_disagree() {
        let text = r#"
        func.func @f(%c: i1, %p: i64, %q: i64) {
          %s0 = accfg.setup "acc" to ("base" = %p) : !accfg.state<"acc">
          %s3 = scf.if %c -> (!accfg.state<"acc">) then {
            %s1 = accfg.setup "acc" from %s0 to ("mode" = %p) : !accfg.state<"acc">
            scf.yield(%s1)
          } else {
            %s2 = accfg.setup "acc" from %s0 to ("mode" = %q) : !accfg.state<"acc">
            scf.yield(%s2)
          }
          %s4 = accfg.setup "acc" from %s3 to ("mode" = %p) : !accfg.state<"acc">
          %t4 = accfg.launch "acc" with %s4 : !accfg.token<"acc">
          accfg.await "acc" %t4
          func.return()
        }
        "#;
        let mut m = parse_module(text).unwrap();
        for c in [0, 1] {
            let before = interpret(&m, "f", &[c, 7, 8], 1000).unwrap();
            let mut m2 = m.clone();
            dedup_all(&mut m2);
            let after = interpret(&m2, "f", &[c, 7, 8], 1000).unwrap();
            assert_eq!(before.launches, after.launches, "c={c}");
        }
        dedup_all(&mut m);
        let text2 = print_module(&m);
        // s4's "mode" write must survive: the else branch wrote %q
        assert_eq!(text2.matches("accfg.setup").count(), 4, "{text2}");
    }

    #[test]
    fn removes_empty_setup_with_input() {
        let text = r#"
        func.func @f(%p: i64) {
          %s1 = accfg.setup "acc" to ("A" = %p) : !accfg.state<"acc">
          %s2 = accfg.setup "acc" from %s1 to () : !accfg.state<"acc">
          %t = accfg.launch "acc" with %s2 : !accfg.token<"acc">
          accfg.await "acc" %t
          func.return()
        }
        "#;
        let mut m = parse_module(text).unwrap();
        assert!(RemoveEmptySetups.run(&mut m).changed());
        verify(&m).unwrap();
        let text2 = print_module(&m);
        assert_eq!(text2.matches("accfg.setup").count(), 1, "{text2}");
    }

    #[test]
    fn merges_setup_chains_without_launches() {
        let text = r#"
        func.func @f(%p: i64, %q: i64) {
          %s1 = accfg.setup "acc" to ("A" = %p) : !accfg.state<"acc">
          %s2 = accfg.setup "acc" from %s1 to ("B" = %q) : !accfg.state<"acc">
          %s3 = accfg.setup "acc" from %s2 to ("A" = %q) : !accfg.state<"acc">
          %t = accfg.launch "acc" with %s3 : !accfg.token<"acc">
          accfg.await "acc" %t
          func.return()
        }
        "#;
        let mut m = parse_module(text).unwrap();
        let before = interpret(&m, "f", &[1, 2], 1000).unwrap();
        assert!(MergeSetups.run(&mut m).changed());
        verify(&m).unwrap();
        let after = interpret(&m, "f", &[1, 2], 1000).unwrap();
        assert_eq!(before.launches, after.launches);
        let text2 = print_module(&m);
        assert_eq!(text2.matches("accfg.setup").count(), 1, "{text2}");
        // later write of "A" won
        assert!(text2.contains("\"A\" = %1"), "{text2}");
    }

    #[test]
    fn does_not_merge_across_launch() {
        let text = r#"
        func.func @f(%p: i64, %q: i64) {
          %s1 = accfg.setup "acc" to ("A" = %p) : !accfg.state<"acc">
          %t1 = accfg.launch "acc" with %s1 : !accfg.token<"acc">
          accfg.await "acc" %t1
          %s2 = accfg.setup "acc" from %s1 to ("A" = %q) : !accfg.state<"acc">
          %t2 = accfg.launch "acc" with %s2 : !accfg.token<"acc">
          accfg.await "acc" %t2
          func.return()
        }
        "#;
        let mut m = parse_module(text).unwrap();
        // s1's state is used by both the launch and s2 -> two uses -> no merge
        assert!(!MergeSetups.run(&mut m).changed());
    }
}
