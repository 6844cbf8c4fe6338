//! The serve engine: the one serve loop.
//!
//! [`Runtime::serve`] resolves modules, sorts the dispatch order, and
//! builds the worker pool, then hands the *serve loop proper* to
//! `engine::run`: one scheduler and one cost refiner over the whole pool,
//! walking the global `(arrival, id, slot)` order on the simulated clock.
//! A dispatch executes on the calling thread where the loop commits it,
//! and its worker stamps its start and finish cycles there; nothing is
//! spawned and no channel is opened. Its per-request outcomes (writes,
//! cycles, latencies, prediction samples) define correct behaviour, and
//! its reports are byte-identical across runs — the committed
//! `BENCH_runtime.json` and `TUNED.json` are its output.
//!
//! `docs/ARCHITECTURE.md` § "The serve loop" states the retirement order,
//! why budget aborts are exact, and the schedule-independence argument any
//! future parallel lane would have to be planned from (ROADMAP, "Parked").
//!
//! [`Runtime::serve`]: crate::runtime::Runtime::serve

use crate::cache::CompiledModule;
use crate::error::ServeError;
use crate::metrics::nearest_rank;
use crate::persist::CostSnapshotEntry;
use crate::runtime::{ServeBudget, ServeConfig};
use crate::scheduler::{CommitOutcome, Scheduler};
use crate::worker::{Completion, Worker};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::TrafficRequest;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A pool flattened for one serve, indexed the way the scheduler and the
/// loop index it.
pub(crate) struct PoolShape {
    /// Per-worker platform descriptors.
    pub worker_descs: Vec<AcceleratorDescriptor>,
    /// Per-group worker indices, ascending (and ascending across groups).
    pub groups: Vec<Vec<usize>>,
    /// Per-worker group index: `groups` inverted.
    pub worker_group: Vec<usize>,
    /// Per-group boost power caps (`None` leaves boosting unbounded).
    pub power_caps: Vec<Option<usize>>,
}

/// A stream resolved against the pool and the module cache.
pub(crate) struct Resolved {
    /// Dispatch order: stream slots sorted by `(arrival, id, slot)`.
    pub order: Vec<usize>,
    /// Per-slot compiled module, resolved for every slot in `order`.
    pub modules: Vec<Option<Arc<CompiledModule>>>,
    /// Per-slot pool-group index.
    pub group_idx: Vec<usize>,
    /// Persisted cost rows to seed the refiner with: every one belongs to
    /// a module in `modules` and names a platform of the pool.
    pub cost_seed: Vec<CostSnapshotEntry>,
}

/// What the serve loop produced, consumed by `Runtime::serve`'s epilogue
/// (metrics, store flush).
pub(crate) struct EngineOutput {
    /// Per-slot completions, in stream order.
    pub completions: Vec<Completion>,
    /// Per-slot commit predictions.
    pub outcomes: Vec<CommitOutcome>,
    /// Requests that rode along in a batch (batch size minus one, summed).
    pub batched_requests: u64,
    /// The refiner's final rows keyed by platform name
    /// ([`Scheduler::cost_snapshot`]).
    pub cost_snapshot: Vec<CostSnapshotEntry>,
}

/// Tracks a [`ServeBudget`]'s running totals against the full stream
/// length, deciding — exactly, thanks to determinism — when the final
/// metrics are already beyond a bound.
struct BudgetTracker {
    budget: ServeBudget,
    /// Latencies above `p99_bound` seen so far; each executed dispatch's
    /// latency is final, so this count only grows.
    exceed_count: u64,
    /// How many over-bound latencies the nearest-rank p99 tolerates:
    /// `n - ceil(0.99 * n)`. One more proves p99 > bound.
    allowed_exceed: u64,
    /// Running sum of setup writes across executed dispatches.
    writes: u64,
    /// Dispatches executed so far.
    completed: u64,
}

impl BudgetTracker {
    fn new(budget: ServeBudget, stream_len: usize) -> Self {
        // the p99 rank `LatencyStats::from_latencies` reports
        let rank = nearest_rank(stream_len, 0.99);
        Self {
            budget,
            exceed_count: 0,
            allowed_exceed: (stream_len - rank) as u64,
            writes: 0,
            completed: 0,
        }
    }

    /// Folds one executed dispatch in; `Err` the moment a bound is
    /// provably exceeded by the *final* metrics.
    fn admit(&mut self, latency: u64, setup_writes: u64) -> Result<(), ServeError> {
        self.completed += 1;
        self.writes += setup_writes;
        if let Some(bound) = self.budget.p99_bound {
            if latency > bound {
                self.exceed_count += 1;
            }
        }
        let p99_exceeded = self
            .budget
            .p99_bound
            .is_some_and(|_| self.exceed_count > self.allowed_exceed);
        let writes_exceeded = self
            .budget
            .max_setup_writes
            .is_some_and(|max| self.writes > max);
        if p99_exceeded || writes_exceeded {
            return Err(ServeError::BudgetExceeded {
                completed: self.completed,
                p99_exceeded,
                writes_exceeded,
            });
        }
        Ok(())
    }
}

/// The serve loop: walks the dispatch order on the simulated clock
/// against one scheduler seeded from the persisted cost rows, routing
/// each request among its group's workers. A dispatch executes on its
/// worker the moment it is committed — ahead of the simulated clock — and
/// comes back with its start and finish cycles fixed. Its measured cycles
/// retire into the refiner only once the clock (the batch head's arrival)
/// has passed its finish, in `(finish, slot)` order, so every decision is
/// a function of simulated time alone.
///
/// With a bounded [`ServeBudget`], every executed dispatch's (final)
/// latency and setup writes are admitted to a [`BudgetTracker`] at its
/// commit, and the loop returns [`ServeError::BudgetExceeded`] at the
/// first commit that proves a bound exceeded — the bounds are thereby
/// *exact*: a budgeted run completes if and only if its final metrics are
/// within budget.
pub(crate) fn run(
    stream: &[TrafficRequest],
    pool: &PoolShape,
    resolved: &Resolved,
    cfg: &ServeConfig,
    mut workers: Vec<Worker>,
) -> Result<EngineOutput, ServeError> {
    let (groups, worker_descs) = (&pool.groups, &pool.worker_descs);
    let (order, modules, group_idx) = (&resolved.order, &resolved.modules, &resolved.group_idx);
    let module_of = |slot: usize| modules[slot].as_ref().expect("resolved by the prologue");
    let mut budget = cfg
        .budget
        .filter(|b| !b.is_unbounded())
        .map(|b| BudgetTracker::new(b, stream.len()));

    let mut scheduler = Scheduler::new(cfg.policy, worker_descs, groups.len())
        .with_refinement(cfg.refine_cost)
        .with_slack(cfg.load_slack)
        .with_power_caps(pool.worker_group.clone(), pool.power_caps.clone());
    scheduler.seed_refiner(&resolved.cost_seed);
    let elide = scheduler.elides();
    let max_batch = cfg.max_batch.max(1);
    let batch_cutoff = cfg.batch_cutoff.resolve(cfg.load_slack);

    let mut completions: Vec<Option<Completion>> = (0..stream.len()).map(|_| None).collect();
    let mut outcomes = vec![CommitOutcome::default(); stream.len()];
    let mut batched_requests = 0u64;
    // executed dispatches whose measured cycles have not retired yet,
    // retired in deterministic (finish, slot) order
    let mut unretired: BTreeSet<(u64, usize)> = BTreeSet::new();

    // a slot has been dispatched exactly when it holds its completion
    let mut cursor = 0usize;
    loop {
        while cursor < order.len() && completions[order[cursor]].is_some() {
            cursor += 1;
        }
        // heads are taken at advancing positions of the arrival-sorted
        // order (batch coalescing skips ahead only for *members*), so
        // this clock is monotone
        let Some(&head) = order.get(cursor) else {
            break;
        };
        let now = stream[head].arrival;
        // retire completed dispatches into the cost refiner, in
        // simulated completion order
        while let Some(&(finish, slot)) = unretired.first() {
            if finish > now {
                break;
            }
            unretired.pop_first();
            let completion = completions[slot].as_ref().expect("executed at commit");
            scheduler.observe(
                completion.worker,
                module_of(slot),
                outcomes[slot].bucket,
                completion.freq,
                completion.counters.cycles,
            );
        }

        // route the batch head, then coalesce same-module requests
        // adjacent in this group's arrival order (requests bound for
        // other accelerator groups never interpose), stopping at the
        // batch cutoff: once the worker's estimated outstanding cycles
        // reach the horizon, further requests are better served by a
        // fresh routing decision than by joining the queue
        let g = group_idx[head];
        let worker = scheduler.choose(g, &groups[g], module_of(head), now);
        let mut batch = 0usize;
        for &slot in &order[cursor..] {
            if completions[slot].is_some() || group_idx[slot] != g {
                continue;
            }
            if batch > 0 {
                if batch >= max_batch || module_of(slot).key != module_of(head).key {
                    break;
                }
                if let Some(cutoff) = batch_cutoff {
                    if scheduler.outstanding(worker, stream[slot].arrival) >= cutoff {
                        break;
                    }
                }
            }
            outcomes[slot] = scheduler.commit(worker, module_of(slot), stream[slot].arrival);
            let completion = workers[worker].execute(&stream[slot], module_of(slot), elide);
            if completion.sim_error.is_none() {
                unretired.insert((completion.finish, slot));
            }
            // the dispatch's latency is final, so the verdict on it is exact
            if let Some(tracker) = budget.as_mut() {
                let latency = completion.finish - stream[slot].arrival;
                tracker.admit(latency, completion.emitted_writes)?;
            }
            completions[slot] = Some(completion);
            batch += 1;
        }
        batched_requests += (batch - 1) as u64;
    }
    Ok(EngineOutput {
        // (collected in place: an `Option<Completion>` is a `Completion` wide)
        completions: completions
            .into_iter()
            .map(|c| c.expect("every request is dispatched"))
            .collect(),
        outcomes,
        batched_requests,
        cost_snapshot: scheduler.cost_snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LatencyStats;

    #[test]
    fn the_budget_tolerates_exactly_what_the_reported_p99_does() {
        // over sorted latencies 1..=n the reported p99 *is* its rank, so a
        // budget may see exactly `n - p99` latencies above the bound
        let budget = ServeBudget {
            p99_bound: Some(0),
            max_setup_writes: None,
        };
        for n in 0..=300usize {
            let latencies: Vec<u64> = (1..=n as u64).collect();
            let p99 = LatencyStats::from_latencies(&latencies).p99;
            let tracker = BudgetTracker::new(budget, n);
            assert_eq!(tracker.allowed_exceed, n as u64 - p99, "n = {n}");
        }
    }
}
