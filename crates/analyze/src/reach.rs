//! The reaching-configuration-state engine.
//!
//! A forward abstract interpretation over the structured IR mirroring the
//! concrete semantics of `accfg::interp`: configuration registers persist
//! per accelerator across setups, launches observe the accelerator's whole
//! register file, and ops with unknown side effects poison every register
//! (the interpreter's `CLOBBER_POISON`). Branches of `scf.if` join, and
//! `scf.for` bodies run to a fixpoint over the back-edge — the same
//! shrinking-intersection semantics as `accfg::dedup`'s `ReachingFields`,
//! generalized from "state visible to one setup" to "register file visible
//! to every launch".

use accfg::{setup_fields, state_effect, StateEffect};
use accfg_ir::analysis::value_visible_at;
use accfg_ir::{Module, OpId, Opcode, ValueDef, ValueId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The name of the accelerator an accfg op addresses (the analysis keys
/// its state by name, so results compare across modules).
fn accelerator(m: &Module, op: OpId) -> String {
    m.name(accfg::accelerator(m, op)).to_string()
}

/// Abstract value of one configuration field at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Every path's last write to the field was SSA value `v`.
    Known(ValueId),
    /// The field holds a well-defined value on every path, but not a
    /// single SSA value (branch or loop join, or partial writes).
    Divergent,
    /// An op with unknown side effects may have overwritten the field
    /// since its last setup write.
    Clobbered,
}

impl AbsVal {
    fn join(a: AbsVal, b: AbsVal) -> AbsVal {
        match (a, b) {
            (AbsVal::Known(x), AbsVal::Known(y)) if x == y => AbsVal::Known(x),
            (AbsVal::Clobbered, _) | (_, AbsVal::Clobbered) => AbsVal::Clobbered,
            _ => AbsVal::Divergent,
        }
    }
}

/// An SSA value resolved to a symbol comparable across two modules (SSA
/// ids are meaningless across a rewrite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolved {
    /// An `arith.constant`.
    Const(i64),
    /// The n-th argument of the enclosing function.
    Arg(usize),
    /// Anything else: a computed value.
    Opaque,
}

/// Resolves `v` to a cross-module-comparable symbol.
pub fn resolve(m: &Module, v: ValueId) -> Resolved {
    match m.value(v).def {
        ValueDef::OpResult { op, .. } if m.op(op).opcode == Opcode::Constant => {
            match m.int_attr(op, "value") {
                Some(c) => Resolved::Const(c),
                None => Resolved::Opaque,
            }
        }
        ValueDef::BlockArg { block, index } => match m.block_parent_op(block) {
            Some(parent) if m.op(parent).opcode == Opcode::Func => Resolved::Arg(index as usize),
            _ => Resolved::Opaque,
        },
        _ => Resolved::Opaque,
    }
}

/// Renders an abstract value with its resolution, for diagnostics.
pub fn describe(m: &Module, val: AbsVal) -> String {
    match val {
        AbsVal::Known(v) => match resolve(m, v) {
            Resolved::Const(c) => format!("Known(const {c})"),
            Resolved::Arg(i) => format!("Known(arg {i})"),
            Resolved::Opaque => "Known(<computed>)".into(),
        },
        AbsVal::Divergent => "Divergent".into(),
        AbsVal::Clobbered => "Clobbered".into(),
    }
}

/// Field name → abstract value, for one accelerator.
pub type FieldState = BTreeMap<String, AbsVal>;

/// The reaching register file at one `accfg.launch` site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchState {
    /// The launch op.
    pub op: OpId,
    /// Accelerator launched.
    pub accelerator: String,
    /// The abstract register file the launch observes.
    pub fields: FieldState,
}

/// One static setup-field write site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteSite {
    /// The setup op.
    pub op: OpId,
    /// Index of the field within the setup's field list.
    pub index: usize,
    /// Accelerator configured.
    pub accelerator: String,
    /// Field written.
    pub field: String,
    /// SSA value written.
    pub value: ValueId,
    /// Executions per function call the analysis can *guarantee*
    /// (constant-trip loop nests; 0 under `scf.if` or unbounded loops).
    pub mult: u64,
    /// The written value provably equals the reaching register value on
    /// every path (the condition `accfg::dedup` eliminates on).
    pub redundant: bool,
    /// Overwritten before any launch observes it, on every path.
    pub dead: bool,
}

/// Analysis results for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncConfig {
    /// The function's `sym_name`.
    pub func: String,
    /// Per static launch site, in pre-order walk order.
    pub launches: Vec<LaunchState>,
    /// Every static setup-field write site, in walk order.
    pub writes: Vec<WriteSite>,
    /// Write *executions* (beyond those of `redundant`/`dead` sites)
    /// proven value-resident from the second iteration of a constant-trip
    /// loop onward: a write of an iteration-invariant value that the
    /// previous iteration already placed in the register. The per-site
    /// flags cannot see these — iteration one is live — so they carry a
    /// separate execution count, partitioned across loop nests so no
    /// execution is counted twice.
    pub steady_elidable: u64,
}

/// Accelerator name → its abstract register file. Bottom (unreachable) is
/// never materialized: the engine only walks reachable structure.
type State = BTreeMap<String, FieldState>;

/// (accelerator, field) → write sites whose value is the field's current
/// last write on some path and has not yet been observed by a launch.
type Pending = BTreeMap<(String, String), BTreeSet<usize>>;

fn join_state(a: &State, b: &State) -> State {
    let mut out = State::new();
    let accels: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for accel in accels {
        let fa = a.get(accel);
        let fb = b.get(accel);
        let mut fields = FieldState::new();
        let names: BTreeSet<&String> = fa
            .map(|f| f.keys().collect::<BTreeSet<_>>())
            .unwrap_or_default()
            .into_iter()
            .chain(
                fb.map(|f| f.keys().collect::<BTreeSet<_>>())
                    .unwrap_or_default(),
            )
            .collect();
        for name in names {
            let va = fa.and_then(|f| f.get(name).copied());
            let vb = fb.and_then(|f| f.get(name).copied());
            let joined = match (va, vb) {
                (Some(x), Some(y)) => AbsVal::join(x, y),
                // written on one path only: well-defined per path, but the
                // other path leaves whatever was resident before
                (Some(AbsVal::Clobbered), None) | (None, Some(AbsVal::Clobbered)) => {
                    AbsVal::Clobbered
                }
                (Some(_), None) | (None, Some(_)) => AbsVal::Divergent,
                (None, None) => unreachable!("name came from one of the maps"),
            };
            fields.insert(name.clone(), joined);
        }
        out.insert(accel.clone(), fields);
    }
    out
}

fn join_pending(a: &Pending, b: &Pending) -> Pending {
    let mut out = a.clone();
    for (key, sites) in b {
        out.entry(key.clone()).or_default().extend(sites);
    }
    out
}

/// Evaluates `v` if it is an `arith.constant`.
fn const_val(m: &Module, v: ValueId) -> Option<i64> {
    if let ValueDef::OpResult { op, .. } = m.value(v).def {
        if m.op(op).opcode == Opcode::Constant {
            return m.int_attr(op, "value");
        }
    }
    None
}

/// Trip count of an `scf.for` with constant bounds, matching the
/// interpreter's `while iv < ub { iv += step.max(1) }`.
fn const_trip_count(m: &Module, op: OpId) -> Option<u64> {
    let operands = &m.op(op).operands;
    let lb = const_val(m, operands[0])?;
    let ub = const_val(m, operands[1])?;
    let step = const_val(m, operands[2])?.max(1);
    if ub <= lb {
        return Some(0);
    }
    Some(((ub - lb + step - 1) / step) as u64)
}

struct Engine<'m> {
    m: &'m Module,
    /// (setup op, field index) → index into `writes`.
    site_ids: HashMap<(OpId, usize), usize>,
    writes: Vec<WriteSite>,
    launches: Vec<LaunchState>,
    observed: BTreeSet<usize>,
    killed: BTreeSet<usize>,
    steady_elidable: u64,
}

impl<'m> Engine<'m> {
    fn new(m: &'m Module, func: OpId) -> Self {
        let mut site_ids = HashMap::new();
        let mut writes = Vec::new();
        for op in m.walk_collect(func) {
            if m.op(op).opcode != Opcode::AccfgSetup {
                continue;
            }
            let accel = accelerator(m, op);
            for (index, (field, value)) in setup_fields(m, op).named().enumerate() {
                site_ids.insert((op, index), writes.len());
                writes.push(WriteSite {
                    op,
                    index,
                    accelerator: accel.clone(),
                    field: field.to_string(),
                    value,
                    mult: 0,
                    redundant: false,
                    dead: false,
                });
            }
        }
        Self {
            m,
            site_ids,
            writes,
            launches: Vec::new(),
            observed: BTreeSet::new(),
            killed: BTreeSet::new(),
            steady_elidable: 0,
        }
    }

    fn exec_block(
        &mut self,
        block: accfg_ir::BlockId,
        state: &mut State,
        pending: &mut Pending,
        collect: bool,
        mult: u64,
        once_mult: u64,
    ) {
        let m = self.m;
        for &op in m.block_ops(block) {
            self.exec_op(op, state, pending, collect, mult, once_mult);
        }
    }

    /// `mult` is the guaranteed execution count of this program point per
    /// function call (products of constant trip counts). `once_mult` is the
    /// execution count *not already covered* by an enclosing loop's
    /// steady-state bound walk — a loop body keeps only its first
    /// iteration's share, because iterations two onward are credited by
    /// the [`Engine::bound_block`] pass triggered at that loop. The split
    /// partitions the iteration space so the steady counts never overlap.
    fn exec_op(
        &mut self,
        op: OpId,
        state: &mut State,
        pending: &mut Pending,
        collect: bool,
        mult: u64,
        once_mult: u64,
    ) {
        let m = self.m;
        match m.op(op).opcode {
            Opcode::AccfgSetup => {
                let accel = accelerator(m, op);
                for (index, (field, value)) in setup_fields(m, op).named().enumerate() {
                    let site = self.site_ids[&(op, index)];
                    let key = (accel.clone(), field.to_string());
                    let cur = state.get(&accel).and_then(|f| f.get(field)).copied();
                    let redundant = cur == Some(AbsVal::Known(value));
                    if redundant {
                        // the register already holds this exact value: the
                        // earlier writes' effect persists, nothing is killed
                        pending.entry(key).or_default().insert(site);
                    } else {
                        if let Some(old) = pending.insert(key, BTreeSet::from([site])) {
                            if collect {
                                self.killed.extend(old);
                            }
                        }
                    }
                    if collect {
                        self.writes[site].mult = mult;
                        self.writes[site].redundant = redundant;
                    }
                    state
                        .entry(accel.clone())
                        .or_default()
                        .insert(field.to_string(), AbsVal::Known(value));
                }
            }
            Opcode::AccfgLaunch => {
                let accel = accelerator(m, op);
                let fields = state.get(&accel).cloned().unwrap_or_default();
                if collect {
                    for val in fields.values() {
                        if let AbsVal::Known(v) = val {
                            // Known facts never outlive their value's scope
                            // — except constants, whose runtime value does
                            // not depend on where the defining op lives:
                            // region exits launder everything else first
                            debug_assert!(
                                matches!(resolve(m, *v), Resolved::Const(_))
                                    || value_visible_at(m, *v, op)
                            );
                        }
                    }
                    self.launches.push(LaunchState {
                        op,
                        accelerator: accel.clone(),
                        fields,
                    });
                }
                // the launch observes the accelerator's whole register file
                let observed_keys: Vec<_> = pending
                    .keys()
                    .filter(|(a, _)| *a == accel)
                    .cloned()
                    .collect();
                for key in observed_keys {
                    if let Some(sites) = pending.remove(&key) {
                        if collect {
                            self.observed.extend(sites);
                        }
                    }
                }
            }
            Opcode::If => {
                let mut then_state = state.clone();
                let mut then_pending = pending.clone();
                // branch bodies are not guaranteed to execute: mult 0
                self.exec_block(
                    m.body_block(op, 0),
                    &mut then_state,
                    &mut then_pending,
                    collect,
                    0,
                    0,
                );
                self.exec_block(m.body_block(op, 1), state, pending, collect, 0, 0);
                *state = join_state(&then_state, state);
                *pending = join_pending(&then_pending, pending);
            }
            Opcode::For => {
                let body = m.body_block(op, 0);
                let pre_state = state.clone();
                let pre_pending = pending.clone();
                let mut entry_state = pre_state.clone();
                let mut entry_pending = pre_pending.clone();
                // Kleene iteration over the back-edge; the chain is
                // non-decreasing in a finite lattice, so it converges —
                // the cap only guards against surprises, degrading to the
                // sound all-Clobbered post-fixpoint.
                let mut converged = false;
                for _ in 0..64 {
                    let mut s = entry_state.clone();
                    let mut p = entry_pending.clone();
                    self.exec_block(body, &mut s, &mut p, false, 0, 0);
                    let next_state = join_state(&pre_state, &s);
                    let next_pending = join_pending(&pre_pending, &p);
                    if next_state == entry_state && next_pending == entry_pending {
                        converged = true;
                        break;
                    }
                    entry_state = next_state;
                    entry_pending = next_pending;
                }
                if !converged {
                    for fields in entry_state.values_mut() {
                        for val in fields.values_mut() {
                            *val = AbsVal::Clobbered;
                        }
                    }
                }
                let trips = const_trip_count(m, op);
                let body_mult = mult.saturating_mul(trips.unwrap_or(0));
                // the body's first iteration stays this walk's to count;
                // iterations two onward belong to the steady pass below
                let body_once = if trips.is_some_and(|n| n >= 1) {
                    once_mult
                } else {
                    0
                };
                let mut s = entry_state;
                let mut p = entry_pending;
                self.exec_block(body, &mut s, &mut p, collect, body_mult, body_once);
                if trips.is_some_and(|n| n >= 1) {
                    // the loop provably runs: the body's exit state holds,
                    // with facts that cannot leave the region demoted
                    *state = self.launder(op, s);
                    *pending = p;
                } else {
                    // the loop may run zero times: join with the pre-state
                    *state = join_state(&pre_state, &s);
                    *pending = join_pending(&pre_pending, &p);
                }
                // From the second iteration on, the body re-enters over the
                // register state its previous iteration left behind: writes
                // of iteration-invariant values it already made are
                // value-resident there. Count those executions now that the
                // collecting walk above fixed the per-site flags (the walk
                // skips flagged sites, whose full multiplicity is already
                // accounted).
                if collect && converged && once_mult > 0 {
                    if let Some(n) = trips.filter(|&n| n >= 2) {
                        if let Some(steady) = self.steady_entry(op, body, &pre_state) {
                            let mut s = steady;
                            self.bound_block(body, &mut s, once_mult.saturating_mul(n - 1));
                        }
                    }
                }
            }
            _ => match state_effect(m, op) {
                StateEffect::Clobbers => {
                    // unknown side effects: poison every register that
                    // exists, like the interpreter's CLOBBER_POISON. The
                    // poisoned registers still *exist*, and existence is
                    // observable (a later launch records the key, and delta
                    // dispatch replays it), so pending writes count as
                    // observed: deleting them would change which registers
                    // a post-clobber launch sees.
                    for fields in state.values_mut() {
                        for val in fields.values_mut() {
                            *val = AbsVal::Clobbered;
                        }
                    }
                    let sites: Vec<_> = pending.values().flatten().copied().collect();
                    pending.clear();
                    if collect {
                        self.observed.extend(sites);
                    }
                }
                StateEffect::Preserves | StateEffect::Accfg | StateEffect::Structural => {}
            },
        }
    }

    /// Demotes `Known` facts that cannot cross `for_op`'s back edge: a
    /// value defined inside the body names *this* iteration's computation,
    /// while the register holds the *previous* iteration's — only values
    /// visible before the loop, or constants, denote the same runtime
    /// value in both. Everything else degrades to `Divergent`.
    fn launder(&self, for_op: OpId, mut s: State) -> State {
        for fields in s.values_mut() {
            for val in fields.values_mut() {
                if let AbsVal::Known(v) = *val {
                    let invariant = matches!(resolve(self.m, v), Resolved::Const(_))
                        || value_visible_at(self.m, v, for_op);
                    if !invariant {
                        *val = AbsVal::Divergent;
                    }
                }
            }
        }
        s
    }

    /// The register state every iteration from the second onward is
    /// guaranteed to enter with: the join over `launder(F^k(pre))` for
    /// k ≥ 1, computed by Kleene iteration. `None` if it fails to
    /// stabilize within the cap.
    fn steady_entry(
        &mut self,
        for_op: OpId,
        body: accfg_ir::BlockId,
        pre: &State,
    ) -> Option<State> {
        let mut entry = {
            let mut s = pre.clone();
            let mut p = Pending::new();
            self.exec_block(body, &mut s, &mut p, false, 0, 0);
            self.launder(for_op, s)
        };
        for _ in 0..64 {
            let mut s = entry.clone();
            let mut p = Pending::new();
            self.exec_block(body, &mut s, &mut p, false, 0, 0);
            let next = join_state(&entry, &self.launder(for_op, s));
            if next == entry {
                return Some(entry);
            }
            entry = next;
        }
        None
    }

    fn bound_block(&mut self, block: accfg_ir::BlockId, state: &mut State, bm: u64) {
        let m = self.m;
        for &op in m.block_ops(block) {
            self.bound_op(op, state, bm);
        }
    }

    /// The steady-state bound walk: a state-only pass over a loop body
    /// entered `bm` times with the steady register state, crediting
    /// [`Engine::steady_elidable`] for every write execution whose value
    /// is provably already resident. Sites the collecting walk flagged
    /// `redundant` or `dead` are skipped — their full multiplicity is
    /// counted through the flags.
    fn bound_op(&mut self, op: OpId, state: &mut State, bm: u64) {
        let m = self.m;
        match m.op(op).opcode {
            Opcode::AccfgSetup => {
                let accel = accelerator(m, op);
                for (index, (field, value)) in setup_fields(m, op).named().enumerate() {
                    let site = self.site_ids[&(op, index)];
                    let cur = state.get(&accel).and_then(|f| f.get(field)).copied();
                    // Equal SSA value, or two constants of equal payload:
                    // the steady entry only keeps `Known` facts whose
                    // runtime value is iteration-invariant, so either test
                    // proves the register already holds this value.
                    let resident = match cur {
                        Some(AbsVal::Known(v)) => {
                            v == value
                                || matches!(
                                    (resolve(m, v), resolve(m, value)),
                                    (Resolved::Const(a), Resolved::Const(b)) if a == b
                                )
                        }
                        _ => false,
                    };
                    if resident && !self.writes[site].redundant && !self.writes[site].dead {
                        self.steady_elidable = self.steady_elidable.saturating_add(bm);
                    }
                    state
                        .entry(accel.clone())
                        .or_default()
                        .insert(field.to_string(), AbsVal::Known(value));
                }
            }
            Opcode::AccfgLaunch => {}
            Opcode::If => {
                // branch bodies are not guaranteed to execute: credit 0
                let mut then_state = state.clone();
                self.bound_block(m.body_block(op, 0), &mut then_state, 0);
                self.bound_block(m.body_block(op, 1), state, 0);
                *state = join_state(&then_state, state);
            }
            Opcode::For => {
                // A nested loop inside a steady region: its entry fixpoint
                // holds for *every* iteration here, so the whole nest is
                // credited at once (bm · trips) — disjoint from the counts
                // the nested loop's own steady pass claimed, which live in
                // the enclosing collect region.
                let body = m.body_block(op, 0);
                let pre_state = state.clone();
                let mut entry = pre_state.clone();
                let mut converged = false;
                for _ in 0..64 {
                    let mut s = entry.clone();
                    let mut p = Pending::new();
                    self.exec_block(body, &mut s, &mut p, false, 0, 0);
                    let next = join_state(&pre_state, &s);
                    if next == entry {
                        converged = true;
                        break;
                    }
                    entry = next;
                }
                if !converged {
                    for fields in entry.values_mut() {
                        for val in fields.values_mut() {
                            *val = AbsVal::Clobbered;
                        }
                    }
                }
                let trips = if converged {
                    const_trip_count(m, op).unwrap_or(0)
                } else {
                    0
                };
                let mut s = entry;
                self.bound_block(body, &mut s, bm.saturating_mul(trips));
                if trips >= 1 {
                    *state = self.launder(op, s);
                } else {
                    *state = join_state(&pre_state, &s);
                }
            }
            _ => match state_effect(m, op) {
                StateEffect::Clobbers => {
                    for fields in state.values_mut() {
                        for val in fields.values_mut() {
                            *val = AbsVal::Clobbered;
                        }
                    }
                }
                StateEffect::Preserves | StateEffect::Accfg | StateEffect::Structural => {}
            },
        }
    }
}

/// Analyzes one function, computing the reaching configuration state at
/// every launch plus per-write-site lint facts.
pub fn analyze_func(m: &Module, func: OpId) -> FuncConfig {
    let name = m
        .str_attr(func, "sym_name")
        .unwrap_or("<anonymous>")
        .to_string();
    let mut engine = Engine::new(m, func);
    let mut state = State::new();
    let mut pending = Pending::new();
    engine.exec_block(m.body_block(func, 0), &mut state, &mut pending, true, 1, 1);
    // a write is dead iff no path lets a launch observe it: it was
    // overwritten at least once, never observed, and does not survive to
    // the function's end on any path
    let exit_pending: BTreeSet<usize> = pending.values().flatten().copied().collect();
    for (site, write) in engine.writes.iter_mut().enumerate() {
        write.dead = engine.killed.contains(&site)
            && !engine.observed.contains(&site)
            && !exit_pending.contains(&site);
    }
    FuncConfig {
        func: name,
        launches: engine.launches,
        writes: engine.writes,
        steady_elidable: engine.steady_elidable,
    }
}

/// Analyzes every function in the module, in registration order.
pub fn analyze_module(m: &Module) -> Vec<FuncConfig> {
    m.funcs()
        .iter()
        .filter(|&&f| m.is_alive(f))
        .map(|&f| analyze_func(m, f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use accfg_ir::{FuncBuilder, Module, Type};

    fn known(fields: &FieldState, name: &str) -> Option<ValueId> {
        match fields.get(name) {
            Some(AbsVal::Known(v)) => Some(*v),
            _ => None,
        }
    }

    #[test]
    fn straight_line_launch_sees_last_writes() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let c = b.const_int(7, Type::I64);
        let s = b.setup("acc", &[("x", args[0]), ("y", c)]);
        let s2 = b.setup_from("acc", s, &[("x", c)]);
        let t = b.launch("acc", s2);
        b.await_token("acc", t);
        b.ret(vec![]);

        let func = m.func_by_name("f").unwrap();
        let cfg = analyze_func(&m, func);
        assert_eq!(cfg.launches.len(), 1);
        let fields = &cfg.launches[0].fields;
        assert_eq!(known(fields, "x"), Some(c));
        assert_eq!(known(fields, "y"), Some(c));
        // the first x write is overwritten before the launch: dead
        let dead: Vec<_> = cfg.writes.iter().filter(|w| w.dead).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].field, "x");
        assert_eq!(dead[0].value, args[0]);
        assert!(!cfg.writes.iter().any(|w| w.redundant));
    }

    #[test]
    fn redundant_write_detected_without_dead_flag() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let s = b.setup("acc", &[("x", args[0])]);
        let s2 = b.setup_from("acc", s, &[("x", args[0])]);
        let t = b.launch("acc", s2);
        b.await_token("acc", t);
        b.ret(vec![]);

        let func = m.func_by_name("f").unwrap();
        let cfg = analyze_func(&m, func);
        let redundant: Vec<_> = cfg.writes.iter().filter(|w| w.redundant).collect();
        assert_eq!(redundant.len(), 1);
        assert_eq!(redundant[0].index, 0);
        // neither write is dead: the value is observed by the launch
        assert!(!cfg.writes.iter().any(|w| w.dead));
    }

    #[test]
    fn branch_join_divergence_and_agreement() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64, Type::I1]);
        let one = b.const_int(1, Type::I64);
        let two = b.const_int(2, Type::I64);
        b.build_if(
            args[1],
            |b| {
                b.setup("acc", &[("x", one), ("same", args[0])]);
                vec![]
            },
            |b| {
                b.setup("acc", &[("x", two), ("same", args[0])]);
                vec![]
            },
        );
        let s2 = b.setup("acc", &[]);
        let t = b.launch("acc", s2);
        b.await_token("acc", t);
        b.ret(vec![]);

        let func = m.func_by_name("f").unwrap();
        let cfg = analyze_func(&m, func);
        assert_eq!(cfg.launches.len(), 1);
        let fields = &cfg.launches[0].fields;
        assert_eq!(fields.get("x"), Some(&AbsVal::Divergent));
        assert_eq!(known(fields, "same"), Some(args[0]));
        // branch writes are guarded: their guaranteed multiplicity is 0
        assert!(cfg
            .writes
            .iter()
            .filter(|w| w.field == "x")
            .all(|w| w.mult == 0));
    }

    #[test]
    fn loop_fixpoint_keeps_invariant_fields_known() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let one = b.const_index(1);
        b.setup("acc", &[("inv", args[0])]);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            let s = b.setup("acc", &[("var", iv)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);

        let func = m.func_by_name("f").unwrap();
        let cfg = analyze_func(&m, func);
        assert_eq!(cfg.launches.len(), 1);
        let fields = &cfg.launches[0].fields;
        // "inv" written before the loop survives the back-edge join
        assert_eq!(known(fields, "inv"), Some(args[0]));
        // "var" is iv-dependent but still Known at the launch site itself
        assert!(matches!(fields.get("var"), Some(AbsVal::Known(_))));
        // constant trip count multiplies write sites inside the loop
        let var = cfg.writes.iter().find(|w| w.field == "var").unwrap();
        assert_eq!(var.mult, 4);
        let inv = cfg.writes.iter().find(|w| w.field == "inv").unwrap();
        assert_eq!(inv.mult, 1);
    }

    #[test]
    fn clobber_poisons_reaching_state() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let s = b.setup("acc", &[("x", args[0])]);
        b.opaque("mystery", vec![], vec![], None); // unannotated: clobbers
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);

        let func = m.func_by_name("f").unwrap();
        let cfg = analyze_func(&m, func);
        assert_eq!(cfg.launches[0].fields.get("x"), Some(&AbsVal::Clobbered));
        // the clobbered write is not reported dead: no setup overwrote it
        assert!(!cfg.writes.iter().any(|w| w.dead));
    }

    #[test]
    fn resolution_distinguishes_consts_args_and_computed() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let c = b.const_int(5, Type::I64);
        let sum = b.addi(args[0], c);
        b.ret(vec![]);
        assert_eq!(resolve(&m, c), Resolved::Const(5));
        assert_eq!(resolve(&m, args[0]), Resolved::Arg(0));
        assert_eq!(resolve(&m, sum), Resolved::Opaque);
    }

    #[test]
    fn dead_write_inside_loop_counts_trips() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64, Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(3);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, _iv, _| {
            let s = b.setup("acc", &[("x", args[0])]);
            let s2 = b.setup_from("acc", s, &[("x", args[1])]);
            let t = b.launch("acc", s2);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);

        let func = m.func_by_name("f").unwrap();
        let cfg = analyze_func(&m, func);
        let dead: Vec<_> = cfg.writes.iter().filter(|w| w.dead).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].value, args[0]);
        assert_eq!(dead[0].mult, 3);
    }
}
