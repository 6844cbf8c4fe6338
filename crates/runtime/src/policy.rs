//! Pluggable scheduling policies: the [`SchedulePolicy`] trait and its
//! built-in implementations.
//!
//! The scheduler is split into two layers. The *accounting core*
//! ([`LoadTracker`]) owns everything every policy needs but none may
//! corrupt: shadow resident register files, per-worker outstanding-cycle
//! queues, per-platform cost anchors, and the online EWMA refiner. The
//! *policy* layer — this module — owns only the routing decision: given
//! read access to the tracker, pick one worker from a group's candidates.
//! Adding a policy (deadline-aware, multi-tenant, power-capped, ...)
//! means implementing one trait method; commit accounting, refinement,
//! batching, and metrics come for free and stay policy-agnostic.
//!
//! Built-in policies:
//!
//! - [`FifoPolicy`] — strict round-robin per group, with or without
//!   resident-state elision (the `fifo` and `fifo+elide` baselines);
//! - [`AffinityPolicy`] — minimize new configuration writes among workers
//!   within the [`LOAD_SLACK_CYCLES`] outstanding-cycle horizon of the
//!   group's shortest queue (`affinity`);
//! - [`CostPolicy`] — minimize *refined predicted cycles to completion*
//!   (queue drain plus the platform's predicted dispatch cycles), the
//!   policy heterogeneous pools need (`cost`);
//! - [`ThermalPolicy`] — like `cost`, but frequency-state-aware: each
//!   candidate's dispatch is priced at the DVFS mode the tracker's shadow
//!   automaton predicts it would launch in, a busy worker's score is
//!   charged the contention penalty of pushing this dispatch's
//!   configuration traffic into its busy window, and ties prefer the
//!   hotter worker — concentrating load to hold boost instead of
//!   spreading it (`thermal`).
//!
//! [`Policy`] is the serializable configuration handle: a `Copy` enum the
//! `ServeConfig` carries, turned into a boxed policy object per serve run
//! by [`Policy::build`].
//!
//! [`LOAD_SLACK_CYCLES`]: crate::scheduler::LOAD_SLACK_CYCLES

use crate::cache::CompiledModule;
use crate::scheduler::LoadTracker;
use accfg_sim::FREQ_STATES;
use std::fmt;

/// The routing-and-dispatch policy selector carried by `ServeConfig`.
///
/// Each variant names a [`SchedulePolicy`] implementation;
/// [`Policy::build`] instantiates it for one serve run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// The production baseline: round-robin over compatible workers, and
    /// every dispatch reprograms its full configuration (no cross-request
    /// state reuse) — what a serving system built on volatile per-request
    /// kernels does today.
    Fifo,
    /// Ablation: round-robin routing, but dispatches elide writes already
    /// resident on the worker. Isolates the value of state tracking from
    /// the value of routing.
    FifoElide,
    /// Route to the worker whose resident register file minimizes the new
    /// configuration writes, and elide resident writes. Because a
    /// warm-start dispatch can only write a subset of what a cold one
    /// writes, this policy never emits more setup writes than [`Fifo`]
    /// on the same stream.
    ///
    /// [`Fifo`]: Policy::Fifo
    #[default]
    ConfigAffinity,
    /// Route to the worker with the least *refined predicted cycles to
    /// completion* — queue drain plus the predicted cycles of this
    /// dispatch on that worker's platform — and elide resident writes.
    /// On uniform pools this behaves like [`ConfigAffinity`] with the
    /// slack measured in completion cycles; on heterogeneous pools it is
    /// the only built-in policy that can weigh a configuration write
    /// against a differently provisioned accelerator's compute rate.
    ///
    /// [`ConfigAffinity`]: Policy::ConfigAffinity
    Cost,
    /// Route by *frequency-state-aware* predicted completion: price each
    /// candidate's dispatch at the DVFS mode the scheduler's shadow
    /// automaton predicts it would launch in (frequency-keyed EWMA where
    /// observed), charge busy workers the memory-contention penalty of
    /// co-scheduling this dispatch's configuration traffic into their
    /// busy window, and break ties toward the hotter worker so load
    /// concentrates enough to hold boost. Identical to [`Cost`] under
    /// the identity timing model (every mode is cold, no contention).
    ///
    /// [`Cost`]: Policy::Cost
    Thermal,
}

impl Policy {
    /// Every policy, in report order (baseline first).
    pub const ALL: [Policy; 5] = [
        Policy::Fifo,
        Policy::FifoElide,
        Policy::ConfigAffinity,
        Policy::Cost,
        Policy::Thermal,
    ];

    /// The policy whose [`Policy::label`] is `label` (`None` for anything
    /// else — report-only row labels like `tuned` or `affinity+batch`
    /// are not policies).
    pub fn from_label(label: &str) -> Option<Policy> {
        Policy::ALL.into_iter().find(|p| p.label() == label)
    }

    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::FifoElide => "fifo+elide",
            Policy::ConfigAffinity => "affinity",
            Policy::Cost => "cost",
            Policy::Thermal => "thermal",
        }
    }

    /// `true` if dispatches under this policy skip writes whose values are
    /// already resident on the worker.
    pub fn elides(self) -> bool {
        !matches!(self, Policy::Fifo)
    }

    /// Instantiates the policy object for a pool with `groups` accelerator
    /// groups.
    pub fn build(self, groups: usize) -> Box<dyn SchedulePolicy> {
        match self {
            Policy::Fifo => Box::new(FifoPolicy::new(false, groups)),
            Policy::FifoElide => Box::new(FifoPolicy::new(true, groups)),
            Policy::ConfigAffinity => Box::new(AffinityPolicy),
            Policy::Cost => Box::new(CostPolicy::default()),
            Policy::Thermal => Box::new(ThermalPolicy::default()),
        }
    }
}

/// One routing policy: picks a worker for each dispatch, reading (never
/// writing) the scheduler's load and residency accounting.
///
/// Implementations may keep private routing state (e.g. round-robin
/// counters) but all load accounting lives in the [`LoadTracker`], which
/// the serve loop commits through regardless of policy — so batching
/// cutoffs, prediction metrics, and refinement behave identically under
/// every policy.
pub trait SchedulePolicy: fmt::Debug + Send {
    /// Short lowercase label for reports.
    fn label(&self) -> &'static str;

    /// `true` if dispatches under this policy skip writes whose values
    /// are already resident on the worker (the cold `fifo` baseline is
    /// the only built-in that reprograms everything).
    fn elides(&self) -> bool {
        true
    }

    /// Picks a worker from `candidates` (the group's workers, ascending)
    /// for a dispatch of `module` arriving at serve-loop cycle `now`.
    /// `group` identifies the accelerator group (for per-group routing
    /// state such as round-robin counters).
    ///
    /// # Panics
    /// Implementations may panic if `candidates` is empty.
    fn choose(
        &mut self,
        load: &LoadTracker,
        group: usize,
        candidates: &[usize],
        module: &CompiledModule,
        now: u64,
    ) -> usize;
}

/// Buckets a worker's cycle gap over the group's best candidate into a
/// balance-pressure class, under the run's `slack` horizon (the tracker's
/// [`LoadTracker::slack`], default [`LOAD_SLACK_CYCLES`]).
///
/// Workers whose gap is strictly within the slack compete on writes
/// (bucket 0); a worker *exactly at* the slack boundary is not tied with
/// the best — it lands in bucket 1, where balance wins. Earlier revisions
/// expressed this as a raw integer division of dispatch counts, which
/// left the boundary semantics implicit; the bucketing is now pinned by a
/// unit test on both sides of the boundary. A slack of 0 clamps to 1
/// cycle — pure balance with stickiness only on exact ties.
///
/// [`LOAD_SLACK_CYCLES`]: crate::scheduler::LOAD_SLACK_CYCLES
fn pressure(gap: u64, slack: u64) -> u64 {
    gap / slack.max(1)
}

/// One candidate as the completion-minimising policies ([`CostPolicy`],
/// [`ThermalPolicy`]) score it: `(predicted finish, writes, chill,
/// outstanding, worker)`, `chill` being `thermal`'s heat rank (0 under
/// `cost`).
type Scored = (u64, u64, u64, u64, usize);

/// The winner among `scored`: completions within the `slack` horizon of
/// the earliest compete on writes (then heat, finish, queue depth, index);
/// beyond it, the earliest predicted finish wins. The score has to be held
/// for every candidate before any can be ranked — the horizon hangs off
/// the minimum — which is why both policies keep a scratch list.
fn earliest_within_slack(scored: &[Scored], slack: u64) -> usize {
    let min_completion = scored
        .iter()
        .map(|&(finish, ..)| finish)
        .min()
        .expect("nonempty");
    scored
        .iter()
        .map(|&(finish, writes, chill, outstanding, w)| {
            (
                pressure(finish - min_completion, slack),
                writes,
                chill,
                finish,
                outstanding,
                w,
            )
        })
        .min()
        .expect("nonempty")
        .5
}

/// Round-robin routing per group, the `fifo` / `fifo+elide` baselines: a
/// config-oblivious load balancer that dispatches in arrival order.
#[derive(Debug)]
pub struct FifoPolicy {
    elide: bool,
    round_robin: Vec<usize>,
}

impl FifoPolicy {
    /// A round-robin policy over `groups` accelerator groups; `elide`
    /// selects between the cold baseline and `fifo+elide`.
    pub fn new(elide: bool, groups: usize) -> Self {
        Self {
            elide,
            round_robin: vec![0; groups],
        }
    }
}

impl SchedulePolicy for FifoPolicy {
    fn label(&self) -> &'static str {
        if self.elide {
            "fifo+elide"
        } else {
            "fifo"
        }
    }

    fn elides(&self) -> bool {
        self.elide
    }

    fn choose(
        &mut self,
        _load: &LoadTracker,
        group: usize,
        candidates: &[usize],
        _module: &CompiledModule,
        _now: u64,
    ) -> usize {
        assert!(!candidates.is_empty(), "scheduling against an empty group");
        let slot = self.round_robin[group] % candidates.len();
        self.round_robin[group] += 1;
        candidates[slot]
    }
}

/// Config-affinity routing: minimize the new configuration writes among
/// workers whose *estimated outstanding cycles* are within
/// [`LOAD_SLACK_CYCLES`] of the group's shortest queue, so stickiness
/// cannot starve the pool or build head-of-line queues.
///
/// Pure min-writes routing degenerates: once one worker is warm it scores
/// below a blank worker for *every* shape, so the rest of the group
/// starves and tail latency explodes. Bucketing the queue-depth gap by
/// the slack keeps dispatches sticky over short horizons (where the
/// write savings are) while bounding the queue a request can land behind.
/// Elision — not routing — is what guarantees affinity never writes more
/// than the cold FIFO baseline, so this trade-off cannot break that
/// property.
///
/// [`LOAD_SLACK_CYCLES`]: crate::scheduler::LOAD_SLACK_CYCLES
#[derive(Debug)]
pub struct AffinityPolicy;

impl SchedulePolicy for AffinityPolicy {
    fn label(&self) -> &'static str {
        "affinity"
    }

    fn choose(
        &mut self,
        load: &LoadTracker,
        _group: usize,
        candidates: &[usize],
        module: &CompiledModule,
        now: u64,
    ) -> usize {
        assert!(!candidates.is_empty(), "scheduling against an empty group");
        let min_outstanding = candidates
            .iter()
            .map(|&w| load.outstanding(w, now))
            .min()
            .expect("nonempty");
        let mut best = candidates[0];
        let mut best_key = (u64::MAX, u64::MAX, u64::MAX, usize::MAX);
        for &w in candidates {
            let writes = load.writes_for(w, module);
            // workers within the slack horizon of the shortest queue
            // compete on writes; beyond it, balance wins
            let outstanding = load.outstanding(w, now);
            let key = (
                pressure(outstanding - min_outstanding, load.slack()),
                writes,
                outstanding,
                w,
            );
            if key < best_key {
                best_key = key;
                best = w;
            }
        }
        best
    }
}

/// Cycle-cost routing: minimize the *refined predicted cycles to
/// completion* — the worker's outstanding-cycle queue plus this
/// dispatch's predicted cycles on that worker's platform (the EWMA
/// estimate where its warmth bucket has been observed, the platform's
/// analytic anchors when cold).
///
/// This generalizes [`AffinityPolicy`] along both of its axes. The slack
/// competition is measured on predicted *completion*, not queue depth
/// alone — so a warm worker's cheaper dispatch buys it exactly as much
/// queue headroom as the writes it elides are worth on its platform, no
/// more. And the per-platform cost models let the score weigh a
/// configuration write against a differently provisioned accelerator's
/// compute rate, which raw write counts cannot express: on a
/// heterogeneous pool, affinity happily pins a heavyweight module to a
/// slow variant because stickiness is free in its score, while `cost`
/// routes it to the platform that actually finishes it sooner.
/// Candidates within [`LOAD_SLACK_CYCLES`] (or the run's configured
/// slack) of the best completion still compete on writes, so uniform
/// pools keep affinity's write savings.
///
/// [`LOAD_SLACK_CYCLES`]: crate::scheduler::LOAD_SLACK_CYCLES
#[derive(Debug, Default)]
pub struct CostPolicy {
    /// The candidates of the decision in progress; kept between decisions
    /// so a warmed policy routes without allocating.
    scored: Vec<Scored>,
}

impl SchedulePolicy for CostPolicy {
    fn label(&self) -> &'static str {
        "cost"
    }

    fn choose(
        &mut self,
        load: &LoadTracker,
        _group: usize,
        candidates: &[usize],
        module: &CompiledModule,
        now: u64,
    ) -> usize {
        assert!(!candidates.is_empty(), "scheduling against an empty group");
        // score every candidate once — writes_for walks the plan against
        // the shadow state and predicted_cycles probes the refiner, so
        // this is the routing hot path
        self.scored.clear();
        self.scored.extend(candidates.iter().map(|&w| {
            let writes = load.writes_for(w, module);
            let outstanding = load.outstanding(w, now);
            let dispatch = load.predicted_cycles(w, module, writes);
            (outstanding + dispatch, writes, 0, outstanding, w)
        }));
        earliest_within_slack(&self.scored, load.slack())
    }
}

/// Frequency-aware cycle-cost routing: [`CostPolicy`]'s completion score,
/// evaluated under the timing state the dispatch would actually run in.
///
/// Three refinements over `cost`, all read from the tracker's shadow DVFS
/// mirror and the platform's timing tables:
///
/// - **Mode-keyed pricing.** The dispatch's predicted cycles are quoted
///   at the DVFS mode [`LoadTracker::predicted_mode`] says the candidate
///   would launch in (power cap applied), using the frequency-keyed EWMA
///   rows where observed. A boosted worker's genuinely cheaper dispatch
///   is visible to the score instead of being averaged into one drifting
///   bucket mean — which is what lets the policy keep feeding a hot
///   worker rather than spreading load and cooling every clock down.
/// - **Contention windows.** A candidate that is still busy charges the
///   host-side contention penalty of pushing this dispatch's
///   configuration traffic into its busy window
///   ([`ContentionParams::host_penalty`] over the writes' payload
///   bytes); an idle candidate configures at full bandwidth. Traffic-
///   heavy dispatches therefore steer away from workers in the middle of
///   a busy window even when raw queue depth ties.
/// - **Heat tie-break.** Within the slack horizon, equal scores prefer
///   the *hotter* worker, so sustained streams concentrate instead of
///   ping-ponging — concentration is what reaches (and holds) boost.
///
/// Under the identity timing model every term degenerates (all modes
/// cold, no contention, constant tie-break) and the policy scores
/// exactly like [`CostPolicy`].
///
/// [`ContentionParams::host_penalty`]:
///     accfg_sim::ContentionParams::host_penalty
#[derive(Debug, Default)]
pub struct ThermalPolicy {
    /// The candidates of the decision in progress (see [`CostPolicy`]).
    scored: Vec<Scored>,
}

impl SchedulePolicy for ThermalPolicy {
    fn label(&self) -> &'static str {
        "thermal"
    }

    fn choose(
        &mut self,
        load: &LoadTracker,
        _group: usize,
        candidates: &[usize],
        module: &CompiledModule,
        now: u64,
    ) -> usize {
        assert!(!candidates.is_empty(), "scheduling against an empty group");
        self.scored.clear();
        self.scored.extend(candidates.iter().map(|&w| {
            let writes = load.writes_for(w, module);
            let outstanding = load.outstanding(w, now);
            let mode = load.predicted_mode(w, now);
            let dispatch = load.predicted_cycles_for_mode(w, module, writes, mode);
            // a busy worker's configuration traffic lands inside its
            // busy window and runs at leftover bandwidth
            let desc = load.descriptor(w);
            let contended = match desc.timing.contention {
                Some(c) if outstanding > 0 => c.host_penalty(writes * desc.accel.csr_payload_bytes),
                _ => 0,
            };
            let finish = outstanding + dispatch + contended;
            // prefer hotter candidates on ties (smaller rank = hotter)
            let chill = (FREQ_STATES - 1 - mode.index()) as u64;
            (finish, writes, chill, outstanding, w)
        }));
        earliest_within_slack(&self.scored, load.slack())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::build_module;
    use crate::scheduler::{Scheduler, LOAD_SLACK_CYCLES};
    use crate::testutil::{single_tile_module, uniform};
    use accfg::pipeline::OptLevel;
    use accfg_sim::FreqState;
    use accfg_targets::AcceleratorDescriptor;
    use accfg_workloads::MatmulSpec;

    #[test]
    fn policy_predicates() {
        assert!(!Policy::Fifo.elides());
        assert!(Policy::FifoElide.elides());
        assert!(Policy::ConfigAffinity.elides());
        assert!(Policy::Cost.elides());
        assert!(Policy::Thermal.elides());
        assert_eq!(Policy::Fifo.label(), "fifo");
        assert_eq!(Policy::FifoElide.label(), "fifo+elide");
        assert_eq!(Policy::ConfigAffinity.label(), "affinity");
        assert_eq!(Policy::Cost.label(), "cost");
        assert_eq!(Policy::Thermal.label(), "thermal");
        // the built objects agree with the enum metadata, and every
        // label names its policy
        for policy in Policy::ALL {
            let built = policy.build(1);
            assert_eq!(built.label(), policy.label());
            assert_eq!(built.elides(), policy.elides());
            assert_eq!(Policy::from_label(policy.label()), Some(policy));
        }
        assert_eq!(Policy::from_label("tuned"), None);
        assert_eq!(Policy::from_label("affinity+batch"), None);
    }

    #[test]
    fn pressure_buckets_pin_the_boundary() {
        assert_eq!(pressure(0, LOAD_SLACK_CYCLES), 0);
        assert_eq!(pressure(LOAD_SLACK_CYCLES - 1, LOAD_SLACK_CYCLES), 0);
        assert_eq!(pressure(LOAD_SLACK_CYCLES, LOAD_SLACK_CYCLES), 1);
        assert_eq!(pressure(2 * LOAD_SLACK_CYCLES - 1, LOAD_SLACK_CYCLES), 1);
        assert_eq!(pressure(2 * LOAD_SLACK_CYCLES, LOAD_SLACK_CYCLES), 2);
        // the boundary moves with a custom slack horizon
        assert_eq!(pressure(127, 128), 0);
        assert_eq!(pressure(128, 128), 1);
        // slack 0 clamps to a 1-cycle horizon instead of dividing by zero
        assert_eq!(pressure(0, 0), 0);
        assert_eq!(pressure(1, 0), 1);
    }

    #[test]
    fn cost_prefers_the_warm_worker_when_idle() {
        let m8 = single_tile_module(8);
        let m16 = single_tile_module(16);
        let mut s = Scheduler::new(Policy::Cost, &uniform(2), 1);
        let w8 = s.choose(0, &[0, 1], &m8, 0);
        assert_eq!(w8, 0);
        s.commit(w8, &m8, 0);
        // once drained, a same-shape repeat costs strictly less on the
        // warm worker, so it sticks
        let later = s.outstanding(0, 0);
        assert_eq!(s.choose(0, &[0, 1], &m8, later), 0);
        s.commit(0, &m8, later);
        // the other shape lands wherever completion is cheapest, then
        // sticks to its warm worker too
        let later = (0..2).map(|w| s.outstanding(w, 0)).max().unwrap();
        let w16 = s.choose(0, &[0, 1], &m16, later);
        s.commit(w16, &m16, later);
        let later = (0..2).map(|w| s.outstanding(w, 0)).max().unwrap();
        assert_eq!(s.choose(0, &[0, 1], &m16, later), w16);
        assert_eq!(s.choose(0, &[0, 1], &m8, later), 0);
    }

    #[test]
    fn cost_bounds_queue_imbalance() {
        // stickiness is worth at most the slack horizon of completion
        // gap: queues cannot run away behind a warm worker
        let m = single_tile_module(8);
        let mut s = Scheduler::new(Policy::Cost, &uniform(2), 1);
        let mut counts = [0u64; 2];
        for _ in 0..200 {
            let w = s.choose(0, &[0, 1], &m, 0);
            s.commit(w, &m, 0);
            counts[w] += 1;
        }
        assert!(counts[0] > 0 && counts[1] > 0, "{counts:?}");
        let max_dispatch = m.cost.cold_cycles;
        assert!(
            s.outstanding(0, 0).abs_diff(s.outstanding(1, 0)) <= LOAD_SLACK_CYCLES + max_dispatch,
            "outstanding {:?}",
            [s.outstanding(0, 0), s.outstanding(1, 0)]
        );
    }

    #[test]
    fn cost_routes_heavy_modules_to_the_fast_variant() {
        // two cold workers of one family, differently provisioned: the
        // writes tie, so affinity cannot tell them apart — cost routes to
        // the platform that finishes sooner
        let base = AcceleratorDescriptor::gemmini();
        let turbo = AcceleratorDescriptor::gemmini_turbo();
        let heavy =
            build_module(&base, MatmulSpec::gemmini_paper(64).unwrap(), OptLevel::All).unwrap();
        let workers = vec![base, turbo];
        let mut s = Scheduler::new(Policy::Cost, &workers, 1);
        // the turbo variant's predicted dispatch is cheaper by more than
        // the slack horizon for this compute-heavy shape
        let cold = heavy.plan.cold_writes;
        let slow = s.load().predicted_cycles(0, &heavy, cold);
        let fast = s.load().predicted_cycles(1, &heavy, cold);
        assert!(
            slow > fast + LOAD_SLACK_CYCLES,
            "variant gap too small: {slow} vs {fast}"
        );
        assert_eq!(s.choose(0, &[0, 1], &heavy, 0), 1);
        // affinity is blind to the difference and takes the lower index
        let mut a = Scheduler::new(Policy::ConfigAffinity, &workers, 1);
        assert_eq!(a.choose(0, &[0, 1], &heavy, 0), 0);
    }

    #[test]
    fn thermal_matches_cost_under_identity_timing() {
        // no DVFS, no contention: every thermal term degenerates and the
        // two policies pick the same worker at every step
        let m8 = single_tile_module(8);
        let m16 = single_tile_module(16);
        let mut t = Scheduler::new(Policy::Thermal, &uniform(3), 1);
        let mut c = Scheduler::new(Policy::Cost, &uniform(3), 1);
        let mut now = 0;
        for i in 0..60 {
            let m = if i % 3 == 0 { &m16 } else { &m8 };
            let tw = t.choose(0, &[0, 1, 2], m, now);
            let cw = c.choose(0, &[0, 1, 2], m, now);
            assert_eq!(tw, cw, "diverged at step {i}");
            t.commit(tw, m, now);
            c.commit(cw, m, now);
            now += 40;
        }
    }

    #[test]
    fn thermal_ties_prefer_the_hotter_worker() {
        // both workers end with identical resident state and drained
        // queues, but worker 1's shadow automaton was heated by far more
        // committed work: completion and writes tie exactly, and the heat
        // tie-break alone routes to the warm clock (cost, scored on the
        // same inputs, would take the lower index)
        let m = single_tile_module(8);
        let desc = AcceleratorDescriptor::opengemm().with_reference_timing();
        let workers = vec![desc.clone(), desc];
        let mut s = Scheduler::new(Policy::Thermal, &workers, 1);
        s.commit(0, &m, 0);
        for _ in 0..256 {
            s.commit(1, &m, 0);
        }
        let drained = (0..2).map(|w| s.outstanding(w, 0)).max().unwrap();
        // inside the cooldown window worker 1's heat survives the drain
        assert_eq!(s.load().predicted_mode(0, drained), FreqState::Cold);
        assert_ne!(s.load().predicted_mode(1, drained), FreqState::Cold);
        // identical shadows: a repeat ties on writes (0) and predicted
        // completion, so only the tie-break separates the candidates
        assert_eq!(s.load().writes_for(0, &m), 0);
        assert_eq!(s.load().writes_for(1, &m), 0);
        assert_eq!(s.choose(0, &[0, 1], &m, drained), 1);
    }

    #[test]
    fn thermal_kicks_traffic_heavy_dispatches_off_a_busy_window() {
        // worker 0 is mid-busy-window holding part of the probe's
        // configuration (fewer writes — cost stays sticky); worker 1 is
        // idle and blank. The queue gap alone is inside the slack
        // horizon, but charging the contention penalty of pushing the
        // probe's remaining config traffic into worker 0's busy window
        // crosses the boundary — thermal routes to the idle worker where
        // cost does not.
        let warm_shape = single_tile_module(8);
        let probe = single_tile_module(16);
        let desc = AcceleratorDescriptor::opengemm().with_reference_timing();
        let workers = [desc.clone(), desc.clone()];
        let mut load = LoadTracker::new(&workers);
        load.commit(0, &warm_shape, 0, true);
        let w0 = load.writes_for(0, &probe);
        let w1 = load.writes_for(1, &probe);
        assert!(
            w0 > 0 && w0 < w1,
            "probe must partially overlap: {w0} vs {w1}"
        );
        let contention = desc.timing.contention.expect("reference timing");
        let penalty = contention.host_penalty(w0 * desc.accel.csr_payload_bytes);
        assert!(penalty > 0, "config traffic must contend");
        // park worker 0's queue so the completion gap is one cycle short
        // of the slack horizon before the penalty and past it after
        let d0 = load.predicted_cycles(0, &probe, w0);
        let d1 = load.predicted_cycles(1, &probe, w1);
        load.set_ready(0, LOAD_SLACK_CYCLES - 1 + d1 - d0);
        let mut thermal = ThermalPolicy::default();
        let mut cost = CostPolicy::default();
        assert_eq!(cost.choose(&load, 0, &[0, 1], &probe, 0), 0);
        assert_eq!(thermal.choose(&load, 0, &[0, 1], &probe, 0), 1);
    }

    #[test]
    fn fifo_policy_ignores_load_and_residency() {
        let m = single_tile_module(8);
        for policy in [Policy::Fifo, Policy::FifoElide] {
            let mut s = Scheduler::new(policy, &uniform(4), 2);
            let picks: Vec<usize> = (0..5).map(|_| s.choose(0, &[0, 1], &m, 0)).collect();
            assert_eq!(picks, vec![0, 1, 0, 1, 0]);
            // the second group's counter is independent
            assert_eq!(s.choose(1, &[2, 3], &m, 0), 2);
        }
    }
}
