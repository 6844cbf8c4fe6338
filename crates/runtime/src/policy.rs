//! Routing policies: the [`Policy`] selector and the one scored walk every
//! policy but round-robin routes by.
//!
//! The [`Scheduler`] owns everything routing needs but may not corrupt —
//! shadow resident register files, per-worker outstanding-cycle queues,
//! per-platform cost anchors, and the online EWMA refiner. This module
//! owns only the routing decision, and reads the scheduler by `&`: each
//! candidate worker is `score`d once and `earliest_within_slack` ranks
//! the scores. [`Scheduler::choose`] is that walk (or `fifo`'s per-group
//! counter); commit accounting, refinement, batching, and metrics stay
//! policy-agnostic.
//!
//! What a policy is, is what it charges a candidate on top of its queue:
//!
//! - `fifo`, `fifo+elide` — never scored: strict round-robin per group,
//!   with or without resident-state elision (the config-oblivious
//!   baselines);
//! - `affinity` — a dispatch price of 0: candidates within the
//!   [`LOAD_SLACK_CYCLES`] outstanding-cycle horizon of the group's
//!   shortest queue compete on new configuration writes, beyond it balance
//!   wins. Pure min-writes routing degenerates — once one worker is warm
//!   it scores below a blank worker for *every* shape, the rest of the
//!   group starves and tail latency explodes — so stickiness is worth at
//!   most the horizon;
//! - `cost` — the *refined predicted cycles* of this dispatch on the
//!   candidate's platform (the EWMA estimate where its warmth bucket has
//!   been observed, the platform's analytic anchors when cold), so the
//!   slack competition is over predicted *completion*: a warm worker's
//!   cheaper dispatch buys exactly as much queue headroom as the writes it
//!   elides are worth there, and a heavyweight module goes to the variant
//!   that finishes it sooner — what heterogeneous pools need and raw write
//!   counts cannot express;
//! - `thermal` — `cost`, evaluated under the timing state the dispatch
//!   would actually run in: priced at the DVFS mode the scheduler's
//!   shadow automaton says the candidate would launch in (power cap
//!   applied, frequency-keyed EWMA rows where observed), plus,
//!   on a still-busy candidate, the host-side contention penalty of
//!   pushing this dispatch's configuration traffic into its busy window
//!   ([`ContentionParams::host_penalty`] over the writes' payload bytes),
//!   with ties inside the horizon going to the *hotter* worker — load
//!   concentrates enough to reach and hold boost instead of ping-ponging.
//!   Under the identity timing model every term degenerates and it scores
//!   exactly like `cost`.
//!
//! Elision — not routing — is what guarantees no eliding policy writes
//! more than the cold `fifo` baseline, so no score can break that.
//!
//! [`Scheduler`]: crate::scheduler::Scheduler
//! [`Scheduler::choose`]: crate::scheduler::Scheduler::choose
//! [`LOAD_SLACK_CYCLES`]: crate::scheduler::LOAD_SLACK_CYCLES
//! [`ContentionParams::host_penalty`]:
//!     accfg_sim::ContentionParams::host_penalty

use crate::cache::CompiledModule;
use crate::scheduler::Scheduler;
use accfg_sim::FREQ_STATES;

/// The routing-and-dispatch policy selector carried by `ServeConfig` (the
/// module docs say how each variant scores a candidate).
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
}

/// Buckets a worker's cycle gap over the group's best candidate into a
/// balance-pressure class, under the run's `slack` horizon (the
/// scheduler's, default [`LOAD_SLACK_CYCLES`]).
///
/// Workers whose gap is strictly within the slack compete on writes
/// (bucket 0); a worker *exactly at* the slack boundary is not tied with
/// the best — it lands in bucket 1, where balance wins (pinned by a unit
/// test on both sides of the boundary). A slack of 0 clamps to 1 cycle —
/// pure balance with stickiness only on exact ties.
///
/// [`LOAD_SLACK_CYCLES`]: crate::scheduler::LOAD_SLACK_CYCLES
fn pressure(gap: u64, slack: u64) -> u64 {
    gap / slack.max(1)
}

/// One candidate as [`score`] prices it: `(predicted finish, writes,
/// chill, outstanding, worker)`, `chill` being `thermal`'s heat rank (0
/// otherwise).
pub(crate) type Scored = (u64, u64, u64, u64, usize);

/// Prices a dispatch of `module` to `worker` at serve-loop cycle `now`
/// under `policy`: the worker's outstanding cycles plus what the policy
/// charges the dispatch itself (see the module docs). Reads the
/// scheduler, never writes it. `writes_for` walks the plan against the
/// shadow state and `price` probes the refiner, so this is the routing
/// hot path — once per candidate per decision.
pub(crate) fn score(
    policy: Policy,
    s: &Scheduler,
    worker: usize,
    module: &CompiledModule,
    now: u64,
) -> Scored {
    let writes = s.writes_for(worker, module);
    let outstanding = s.outstanding(worker, now);
    let (dispatch, chill) = match policy {
        // (the round-robin pair never gets here)
        Policy::Fifo | Policy::FifoElide | Policy::ConfigAffinity => (0, 0),
        Policy::Cost => (s.price(worker, module, writes, None), 0),
        Policy::Thermal => {
            let mode = s.predicted_mode(worker, now);
            let dispatch = s.price(worker, module, writes, Some(mode));
            // a busy worker's configuration traffic lands inside its
            // busy window and runs at leftover bandwidth
            let desc = s.descriptor(worker);
            let contended = match desc.timing.contention {
                Some(c) if outstanding > 0 => c.host_penalty(writes * desc.accel.csr_payload_bytes),
                _ => 0,
            };
            // prefer hotter candidates on ties (smaller rank = hotter)
            let chill = (FREQ_STATES - 1 - mode.index()) as u64;
            (dispatch + contended, chill)
        }
    };
    (outstanding + dispatch, writes, chill, outstanding, worker)
}

/// The winner among `scored`: completions within the `slack` horizon of
/// the earliest compete on writes (then heat, finish, queue depth, index);
/// beyond it, the earliest predicted finish wins. The score has to be held
/// for every candidate before any can be ranked — the horizon hangs off
/// the minimum — which is why the scheduler keeps a scratch list.
pub(crate) fn earliest_within_slack(scored: &[Scored], slack: u64) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::build_module;
    use crate::scheduler::LOAD_SLACK_CYCLES;
    use crate::testutil::{single_tile_module, uniform};
    use accfg::pipeline::OptLevel;
    use accfg_sim::FreqState;
    use accfg_targets::AcceleratorDescriptor;
    use accfg_workloads::MatmulSpec;
    use proptest::prelude::*;

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
        let cold = heavy.plan.cold_writes();
        let slow = s.price(0, &heavy, cold, None);
        let fast = s.price(1, &heavy, cold, None);
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
        assert_eq!(s.predicted_mode(0, drained), FreqState::Cold);
        assert_ne!(s.predicted_mode(1, drained), FreqState::Cold);
        // identical shadows: a repeat ties on writes (0) and predicted
        // completion, so only the tie-break separates the candidates
        assert_eq!(s.writes_for(0, &m), 0);
        assert_eq!(s.writes_for(1, &m), 0);
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
        // the same history under each policy: worker 0 holds the warm
        // shape, and its queue is parked so the completion gap is one cycle
        // short of the slack horizon before the penalty and past it after
        let warmed = |policy| {
            let mut s = Scheduler::new(policy, &workers, 1);
            s.commit(0, &warm_shape, 0);
            let w0 = s.writes_for(0, &probe);
            let w1 = s.writes_for(1, &probe);
            assert!(
                w0 > 0 && w0 < w1,
                "probe must partially overlap: {w0} vs {w1}"
            );
            let contention = desc.timing.contention.expect("reference timing");
            let penalty = contention.host_penalty(w0 * desc.accel.csr_payload_bytes);
            assert!(penalty > 0, "config traffic must contend");
            let d0 = s.price(0, &probe, w0, None);
            let d1 = s.price(1, &probe, w1, None);
            s.set_ready(0, LOAD_SLACK_CYCLES - 1 + d1 - d0);
            s
        };
        assert_eq!(warmed(Policy::Cost).choose(0, &[0, 1], &probe, 0), 0);
        assert_eq!(warmed(Policy::Thermal).choose(0, &[0, 1], &probe, 0), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `affinity` is `earliest_within_slack` at a dispatch price of 0:
        /// the rule the policy had when it ranked candidates itself —
        /// argmin of `(pressure(out - min_out), writes, out, w)`, kept here
        /// as the reference — picks the same worker from any candidate set
        /// under any slack, 0 included.
        #[test]
        fn zero_price_scores_rank_as_the_affinity_rule_did(
            loads in prop::collection::vec((0u64..2048, 0u64..40), 1..9),
            slack in 0u64..1024,
        ) {
            let min_outstanding = loads.iter().map(|&(out, _)| out).min().expect("nonempty");
            let reference = loads
                .iter()
                .enumerate()
                .map(|(w, &(out, writes))| (pressure(out - min_outstanding, slack), writes, out, w))
                .min()
                .expect("nonempty")
                .3;
            let scored: Vec<Scored> = loads
                .iter()
                .enumerate()
                .map(|(w, &(out, writes))| (out, writes, 0, out, w))
                .collect();
            prop_assert_eq!(earliest_within_slack(&scored, slack), reference);
        }
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
