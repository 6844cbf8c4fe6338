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

use accfg::{accelerator, setup_fields, state_effect, ConfigState, FieldMap, StateEffect};
use accfg_ir::analysis::value_visible_at;
use accfg_ir::{BlockId, Module, OpId, Opcode, Symbol, ValueDef, ValueId};
use std::collections::{BTreeSet, HashMap};

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
    /// What a field holds where two paths meet; `None` is a path that never
    /// wrote it (well-defined per path, but the register keeps whatever was
    /// resident before, so a one-sided `Known` is no longer one value).
    fn join(a: Option<AbsVal>, b: Option<&AbsVal>) -> AbsVal {
        match (a, b.copied()) {
            (Some(AbsVal::Known(x)), Some(AbsVal::Known(y))) if x == y => AbsVal::Known(x),
            (Some(AbsVal::Clobbered), _) | (_, Some(AbsVal::Clobbered)) => AbsVal::Clobbered,
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

/// The reaching register file at one `accfg.launch` site. Accelerator and
/// fields are symbols of the analyzed module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchState {
    /// The launch op.
    pub op: OpId,
    /// Accelerator launched.
    pub accelerator: Symbol,
    /// The abstract register file the launch observes.
    pub fields: FieldMap<AbsVal>,
}

impl LaunchState {
    /// The fields spelled out and in name order, for diagnostics — and for
    /// looking them up in another module, where the symbols mean nothing.
    pub fn named<'m>(&self, m: &'m Module) -> Vec<(&'m str, AbsVal)> {
        let mut fields: Vec<_> = self.fields.iter().map(|(f, &v)| (m.name(f), v)).collect();
        fields.sort_unstable_by_key(|&(name, _)| name);
        fields
    }

    /// What the field called `name` holds.
    pub fn get(&self, m: &Module, name: &str) -> Option<AbsVal> {
        self.fields.get(m.symbol(name)?).copied()
    }
}

/// One static setup-field write site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteSite {
    /// The setup op.
    pub op: OpId,
    /// Index of the field within the setup's field list.
    pub index: usize,
    /// Accelerator configured.
    pub accelerator: Symbol,
    /// Field written.
    pub field: Symbol,
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

/// What the walk carries along one path.
#[derive(Clone, Default, PartialEq)]
struct Flow {
    /// Per accelerator, its abstract register file. Bottom (unreachable) is
    /// never materialized: the engine only walks reachable structure.
    state: ConfigState<AbsVal>,
    /// Per field, the write sites whose value is the field's current last
    /// write on some path and has not yet been observed by a launch.
    pending: ConfigState<BTreeSet<usize>>,
}

impl Flow {
    /// Where this path and `other` meet: a site is pending if it is on
    /// either.
    fn join(&mut self, other: &Flow) {
        self.state.join_files(&other.state, AbsVal::join);
        self.pending.join_files(&other.pending, |ours, theirs| {
            let mut sites = ours.unwrap_or_default();
            sites.extend(theirs.into_iter().flatten());
            sites
        });
    }
}

/// What a walk over a region is for.
#[derive(Clone, Copy)]
enum Walk {
    /// The one walk that records launches and per-site facts. `mult` is the
    /// guaranteed execution count of this program point per function call
    /// (products of constant trip counts). `once` is the execution count
    /// *not already covered* by an enclosing loop's steady-state walk — a
    /// loop body keeps only its first iteration's share, because iterations
    /// two onward are credited by the [`Walk::Steady`] walk triggered at
    /// that loop. The split partitions the iteration space so the steady
    /// counts never overlap.
    Collect { mult: u64, once: u64 },
    /// The flow only: one round of a fixpoint.
    Quiet,
    /// The steady-state bound walk: over a loop body entered this many
    /// times with the steady register state, crediting
    /// [`Engine::steady_elidable`] for every write execution whose value is
    /// provably already resident. Sites the collecting walk flagged
    /// `redundant` or `dead` are skipped — their full multiplicity is
    /// counted through the flags.
    Steady(u64),
}

impl Walk {
    /// The walk of a region that each execution of this one enters `trips`
    /// guaranteed times: 0 for a branch or a loop of no known trip count.
    fn times(self, trips: u64) -> Walk {
        match self {
            Walk::Collect { mult, once } => Walk::Collect {
                mult: mult.saturating_mul(trips),
                once: if trips >= 1 { once } else { 0 },
            },
            Walk::Quiet => Walk::Quiet,
            Walk::Steady(entries) => Walk::Steady(entries.saturating_mul(trips)),
        }
    }
}

/// Kleene iteration: `entry ← step(entry)` from `seed` until it stops
/// moving. Every caller's step is a join over a finite lattice, so the chain
/// converges; the cap only guards against surprises, and the flag says
/// whether it was hit (`false`: `entry` is not a fixpoint).
fn fixpoint<T: PartialEq>(seed: T, mut step: impl FnMut(&T) -> T) -> (T, bool) {
    let mut entry = seed;
    for _ in 0..64 {
        let next = step(&entry);
        if next == entry {
            return (entry, true);
        }
        entry = next;
    }
    (entry, false)
}

/// Trip count of an `scf.for` with constant bounds, matching the
/// interpreter's `while iv < ub { iv += step.max(1) }`, which also stops
/// when `iv + step` no longer fits an `i64`. `None` — no guaranteed
/// multiplicity — when the bounds are not constants or lie further apart
/// than an `i64` can say.
fn const_trip_count(m: &Module, op: OpId) -> Option<u64> {
    let constant = |operand: usize| match resolve(m, m.op(op).operands[operand]) {
        Resolved::Const(c) => Some(c),
        _ => None,
    };
    let (lb, ub, step) = (constant(0)?, constant(1)?, constant(2)?.max(1));
    if ub <= lb {
        return Some(0);
    }
    let span = ub.checked_sub(lb)?;
    // ceil(span / step) for span >= 1, with no intermediate past `span`
    Some(((span - 1) / step + 1) as u64)
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
            let accelerator = accelerator(m, op);
            for (index, (field, value)) in setup_fields(m, op).iter().enumerate() {
                site_ids.insert((op, index), writes.len());
                writes.push(WriteSite {
                    op,
                    index,
                    accelerator,
                    field,
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

    fn exec_block(&mut self, block: BlockId, flow: &mut Flow, walk: Walk) {
        let m = self.m;
        for &op in m.block_ops(block) {
            self.exec_op(op, flow, walk);
        }
    }

    fn exec_op(&mut self, op: OpId, flow: &mut Flow, walk: Walk) {
        let m = self.m;
        let collect = matches!(walk, Walk::Collect { .. });
        match m.op(op).opcode {
            Opcode::AccfgSetup => {
                let accel = accelerator(m, op);
                for (index, (field, value)) in setup_fields(m, op).iter().enumerate() {
                    let site = self.site_ids[&(op, index)];
                    let held = flow
                        .state
                        .get(accel)
                        .and_then(|file| file.get(field))
                        .copied();
                    let redundant = held == Some(AbsVal::Known(value));
                    let pending = flow.pending.or_default(accel).or_default(field);
                    if !redundant {
                        // (a redundant write leaves the earlier writes'
                        // effect in place: nothing is killed)
                        let old = std::mem::take(pending);
                        if collect {
                            self.killed.extend(old);
                        }
                    }
                    pending.insert(site);
                    match walk {
                        Walk::Collect { mult, .. } => {
                            self.writes[site].mult = mult;
                            self.writes[site].redundant = redundant;
                        }
                        Walk::Steady(entries) => {
                            // Equal SSA value, or two constants of equal
                            // payload: the steady entry only keeps `Known`
                            // facts whose runtime value is
                            // iteration-invariant, so either test proves
                            // the register already holds this value.
                            let same = |v| match (resolve(m, v), resolve(m, value)) {
                                (Resolved::Const(a), Resolved::Const(b)) => a == b,
                                _ => v == value,
                            };
                            let resident = matches!(held, Some(AbsVal::Known(v)) if same(v));
                            let flagged = self.writes[site].redundant || self.writes[site].dead;
                            if resident && !flagged {
                                self.steady_elidable = self.steady_elidable.saturating_add(entries);
                            }
                        }
                        Walk::Quiet => {}
                    }
                    flow.state
                        .or_default(accel)
                        .set(field, AbsVal::Known(value));
                }
            }
            Opcode::AccfgLaunch => {
                let accel = accelerator(m, op);
                if collect {
                    let fields = flow.state.get(accel).cloned().unwrap_or_default();
                    for (_, val) in fields.iter() {
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
                        accelerator: accel,
                        fields,
                    });
                }
                // the launch observes the accelerator's whole register file
                let seen = std::mem::take(flow.pending.or_default(accel));
                if collect {
                    self.observed
                        .extend(seen.iter().flat_map(|(_, sites)| sites));
                }
            }
            Opcode::If => {
                // branch bodies are not guaranteed to execute
                let mut then = flow.clone();
                self.exec_block(m.body_block(op, 0), &mut then, walk.times(0));
                self.exec_block(m.body_block(op, 1), flow, walk.times(0));
                flow.join(&then);
            }
            Opcode::For => {
                let body = m.body_block(op, 0);
                let pre = flow.clone();
                // the entry of an arbitrary iteration: what reaches the
                // loop, joined with what the back edge brings round
                let (mut entry, converged) = fixpoint(pre.clone(), |entry| {
                    let mut exit = entry.clone();
                    self.exec_block(body, &mut exit, Walk::Quiet);
                    exit.join(&pre);
                    exit
                });
                if !converged {
                    // the sound post-fixpoint
                    entry.state.fill_all(AbsVal::Clobbered);
                }
                // a loop that did not settle keeps its trip count where sites
                // are counted (the poisoned entry is sound for any count);
                // a steady walk credits it nothing
                let steady = matches!(walk, Walk::Steady(_));
                let trips = const_trip_count(m, op).filter(|_| converged || !steady);
                *flow = entry;
                self.exec_block(body, flow, walk.times(trips.unwrap_or(0)));
                if trips.is_some_and(|n| n >= 1) {
                    // the loop provably runs: the body's exit state holds,
                    // with facts that cannot leave the region demoted
                    self.launder(op, &mut flow.state);
                } else {
                    // the loop may run zero times: join with the pre-state
                    flow.join(&pre);
                }
                // From the second iteration on, the body re-enters over the
                // register state its previous iteration left behind: writes
                // of iteration-invariant values it already made are
                // value-resident there. Count those executions now that the
                // collecting walk above fixed the per-site flags (the steady
                // walk skips flagged sites, whose full multiplicity is
                // already accounted). A nested loop inside a steady region
                // is credited whole, at once — its entry fixpoint holds for
                // *every* iteration there — which is disjoint from what its
                // own steady walk claimed in the enclosing collect region.
                let steady_entries = match walk {
                    Walk::Collect { once, .. } if converged => {
                        once.saturating_mul(trips.unwrap_or(0).saturating_sub(1))
                    }
                    _ => 0,
                };
                if steady_entries > 0 {
                    if let Some(mut steady) = self.steady_entry(op, body, &pre) {
                        self.exec_block(body, &mut steady, Walk::Steady(steady_entries));
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
                    flow.state.fill_all(AbsVal::Clobbered);
                    if collect {
                        let pending = flow.pending.iter().flat_map(|(_, file)| file.iter());
                        self.observed.extend(pending.flat_map(|(_, sites)| sites));
                    }
                    flow.pending.clear();
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
    fn launder(&self, for_op: OpId, state: &mut ConfigState<AbsVal>) {
        for val in state.values_mut().flat_map(FieldMap::values_mut) {
            if let AbsVal::Known(v) = *val {
                let invariant = matches!(resolve(self.m, v), Resolved::Const(_))
                    || value_visible_at(self.m, v, for_op);
                if !invariant {
                    *val = AbsVal::Divergent;
                }
            }
        }
    }

    /// What every iteration from the second onward is guaranteed to enter
    /// with: the join over `launder(F^k(pre))` for k ≥ 1, nothing pending.
    /// `None` if it fails to stabilize within the cap.
    fn steady_entry(&mut self, for_op: OpId, body: BlockId, pre: &Flow) -> Option<Flow> {
        let mut laundered_exit = |entry: &Flow| {
            let mut exit = entry.clone();
            self.exec_block(body, &mut exit, Walk::Quiet);
            self.launder(for_op, &mut exit.state);
            exit.pending.clear();
            exit
        };
        let after_one = laundered_exit(pre);
        let (entry, converged) = fixpoint(after_one, |entry| {
            let mut next = laundered_exit(entry);
            next.join(entry);
            next
        });
        converged.then_some(entry)
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
    let mut flow = Flow::default();
    let whole = Walk::Collect { mult: 1, once: 1 };
    engine.exec_block(m.body_block(func, 0), &mut flow, whole);
    // a write is dead iff no path lets a launch observe it: it was
    // overwritten at least once, never observed, and does not survive to
    // the function's end on any path
    for (site, write) in engine.writes.iter_mut().enumerate() {
        let pending = flow.pending.get(write.accelerator);
        write.dead = engine.killed.contains(&site)
            && !engine.observed.contains(&site)
            && !pending
                .and_then(|file| file.get(write.field))
                .is_some_and(|sites| sites.contains(&site));
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

    fn known(m: &Module, launch: &LaunchState, name: &str) -> Option<ValueId> {
        match launch.get(m, name) {
            Some(AbsVal::Known(v)) => Some(v),
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
        let launch = &cfg.launches[0];
        assert_eq!(known(&m, launch, "x"), Some(c));
        assert_eq!(known(&m, launch, "y"), Some(c));
        // the first x write is overwritten before the launch: dead
        let dead: Vec<_> = cfg.writes.iter().filter(|w| w.dead).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(m.name(dead[0].field), "x");
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
        let launch = &cfg.launches[0];
        assert_eq!(launch.get(&m, "x"), Some(AbsVal::Divergent));
        assert_eq!(known(&m, launch, "same"), Some(args[0]));
        // branch writes are guarded: their guaranteed multiplicity is 0
        assert!(cfg
            .writes
            .iter()
            .filter(|w| m.name(w.field) == "x")
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
        let launch = &cfg.launches[0];
        // "inv" written before the loop survives the back-edge join
        assert_eq!(known(&m, launch, "inv"), Some(args[0]));
        // "var" is iv-dependent but still Known at the launch site itself
        assert!(matches!(launch.get(&m, "var"), Some(AbsVal::Known(_))));
        // constant trip count multiplies write sites inside the loop
        let var = cfg
            .writes
            .iter()
            .find(|w| m.name(w.field) == "var")
            .unwrap();
        assert_eq!(var.mult, 4);
        let inv = cfg
            .writes
            .iter()
            .find(|w| m.name(w.field) == "inv")
            .unwrap();
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
        assert_eq!(cfg.launches[0].get(&m, "x"), Some(AbsVal::Clobbered));
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
