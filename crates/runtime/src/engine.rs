//! The serve engine: the one serve loop.
//!
//! [`Runtime::serve`] resolves modules, sorts the dispatch order, and
//! builds the worker pool, then hands the *serve loop proper* to
//! `engine::run`: one scheduler and one cost refiner over the whole pool,
//! walking the global `(arrival, id, slot)` order on the simulated clock.
//! A dispatch executes on the calling thread where the loop commits it;
//! nothing is spawned and no channel is opened. Its per-request outcomes
//! (writes, cycles, latencies, prediction samples) define correct
//! behaviour, and its reports are byte-identical across runs — the
//! committed `BENCH_runtime.json` and `TUNED.json` are its output.
//!
//! `docs/ARCHITECTURE.md` § "The serve loop" states the pull order, why
//! budget aborts are exact, and the schedule-independence argument any
//! future parallel lane would have to be planned from (ROADMAP item 2).
//!
//! [`Runtime::serve`]: crate::runtime::Runtime::serve

use crate::cache::CompiledModule;
use crate::error::ServeError;
use crate::metrics::nearest_rank;
use crate::persist::CostSnapshotEntry;
use crate::runtime::{ServeBudget, ServeConfig};
use crate::scheduler::{CommitOutcome, Scheduler};
use crate::worker::{Completion, Job, Worker};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::TrafficRequest;
use std::collections::{BTreeSet, VecDeque};
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

/// Everything the serve loop reads, prepared by `Runtime::serve`'s first
/// two steps (pool flattening; module resolution and store restore).
#[derive(Clone, Copy)]
pub(crate) struct EngineInput<'a> {
    pub stream: &'a [TrafficRequest],
    pub pool: &'a PoolShape,
    pub resolved: &'a Resolved,
    pub cfg: &'a ServeConfig,
}

/// What the serve loop produced, consumed by `Runtime::serve`'s epilogue
/// (metrics, store flush).
pub(crate) struct EngineOutput {
    /// Per-slot completions, in stream order.
    pub completions: Vec<Completion>,
    /// Per-slot commit predictions.
    pub outcomes: Vec<CommitOutcome>,
    /// Per-slot simulated finish cycle, as the loop computed it when it
    /// pulled the completion (`start = max(previous finish, arrival)`).
    pub finish: Vec<u64>,
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
    /// Latencies above `p99_bound` seen so far; each pulled completion's
    /// latency is final, so this count only grows.
    exceed_count: u64,
    /// How many over-bound latencies the nearest-rank p99 tolerates:
    /// `n - ceil(0.99 * n)`. One more proves p99 > bound.
    allowed_exceed: u64,
    /// Running sum of setup writes across pulled completions.
    writes: u64,
    /// Completions pulled so far.
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

    /// Folds one pulled completion in; `Err` the moment a bound is
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
/// worker the moment it is committed — ahead of the simulated clock — but
/// the loop *pulls* its completion (fixes its finish cycle, queues it for
/// retirement, admits it to the budget) only once the clock proves the
/// dispatch has started, so every decision is a function of simulated
/// time alone, and so is the pull order (the clock, then ascending worker
/// index).
///
/// With a bounded [`ServeBudget`], every pulled completion's (final)
/// latency and setup writes are admitted to a [`BudgetTracker`], tail
/// drain included, and the loop returns [`ServeError::BudgetExceeded`]
/// the moment a bound is provably exceeded — the bounds are thereby
/// *exact*: a budgeted run completes if and only if its final metrics are
/// within budget.
pub(crate) fn run(
    input: EngineInput<'_>,
    mut workers: Vec<Worker>,
) -> Result<EngineOutput, ServeError> {
    let (stream, pool, cfg) = (input.stream, input.pool, input.cfg);
    let (groups, worker_descs) = (&pool.groups, &pool.worker_descs);
    let (order, modules, group_idx) = (
        &input.resolved.order,
        &input.resolved.modules,
        &input.resolved.group_idx,
    );
    let module_of = |slot: usize| modules[slot].as_ref().expect("resolved by the prologue");
    let mut budget = cfg
        .budget
        .filter(|b| !b.is_unbounded())
        .map(|b| BudgetTracker::new(b, stream.len()));

    let mut scheduler = Scheduler::new(cfg.policy, worker_descs, groups.len())
        .with_refinement(cfg.refine_cost)
        .with_slack(cfg.load_slack)
        .with_power_caps(pool.worker_group.clone(), pool.power_caps.clone());
    scheduler.seed_refiner(&input.resolved.cost_seed);
    let elide = scheduler.elides();
    let max_batch = cfg.max_batch.max(1);
    let batch_cutoff = cfg.batch_cutoff.resolve(cfg.load_slack);

    let mut completions: Vec<Option<Completion>> = (0..stream.len()).map(|_| None).collect();
    let mut outcomes = vec![CommitOutcome::default(); stream.len()];
    let mut finish = vec![0u64; stream.len()];
    let mut batched_requests = 0u64;
    // per-worker dispatches executed but not yet pulled, oldest first;
    // `finish_known[w]` is the simulated finish of the last pulled
    // dispatch, so the head's start cycle is exact
    let mut inflight: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers.len()];
    let mut finish_known = vec![0u64; workers.len()];
    // pulled completions whose finish is still in the future, retired in
    // deterministic (finish, slot) order
    let mut unretired: BTreeSet<(u64, usize)> = BTreeSet::new();

    // a slot has been dispatched exactly when it holds its completion
    let mut cursor = 0usize;
    loop {
        while cursor < order.len() && completions[order[cursor]].is_some() {
            cursor += 1;
        }
        // heads are taken at advancing positions of the arrival-sorted
        // order (batch coalescing skips ahead only for *members*), so
        // this clock is monotone; past the last head it is unbounded,
        // which makes the pull below the tail drain
        let head = order.get(cursor).copied();
        let now = head.map_or(u64::MAX, |head| stream[head].arrival);

        // pull every completion the clock proves has *started* (its
        // worker-queue predecessors all finished by now), in ascending
        // worker index. A pulled completion's latency is final, so the
        // budget verdict on it is exact.
        for (queue, known) in inflight.iter_mut().zip(&mut finish_known) {
            while let Some(&slot) = queue.front() {
                let start = (*known).max(stream[slot].arrival);
                if start > now {
                    break;
                }
                let completion = completions[slot].as_ref().expect("executed at commit");
                let end = start + completion.counters.cycles;
                finish[slot] = end;
                *known = end;
                queue.pop_front();
                if completion.sim_error.is_none() {
                    unretired.insert((end, slot));
                }
                if let Some(tracker) = budget.as_mut() {
                    tracker.admit(end - stream[slot].arrival, completion.emitted_writes)?;
                }
            }
        }
        let Some(head) = head else {
            break;
        };
        // retire completed dispatches into the cost refiner, in
        // simulated completion order
        while let Some(&(end, slot)) = unretired.first() {
            if end > now {
                break;
            }
            unretired.pop_first();
            let completion = completions[slot].as_ref().expect("pulled above");
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
            inflight[worker].push_back(slot);
            completions[slot] = Some(workers[worker].execute(&Job {
                request: &stream[slot],
                module: module_of(slot),
                slot,
                elide,
            }));
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
        finish,
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
