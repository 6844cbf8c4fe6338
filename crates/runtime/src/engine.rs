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
//! `BENCH_runtime.json` is its output. Every stream is served to its end:
//! a failed dispatch is reported in its completion, never by stopping the
//! loop.
//!
//! `docs/ARCHITECTURE.md` § "The serve loop" states the retirement order
//! and the schedule-independence argument any future parallel lane would
//! have to be planned from (ROADMAP, "Parked").
//!
//! [`Runtime::serve`]: crate::runtime::Runtime::serve

use crate::cache::CompiledModule;
use crate::persist::CostSnapshotEntry;
use crate::runtime::ServeConfig;
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

/// The serve loop: walks the dispatch order on the simulated clock
/// against one scheduler seeded from the persisted cost rows, routing
/// each request among its group's workers. A dispatch executes on its
/// worker the moment it is committed — ahead of the simulated clock — and
/// comes back with its start and finish cycles fixed. Its measured cycles
/// retire into the refiner only once the clock (the batch head's arrival)
/// has passed its finish, in `(finish, slot)` order, so every decision is
/// a function of simulated time alone. The loop cannot fail: it returns
/// once every request of `stream` has been dispatched.
pub(crate) fn run(
    stream: &[TrafficRequest],
    pool: &PoolShape,
    resolved: &Resolved,
    cfg: &ServeConfig,
    mut workers: Vec<Worker>,
) -> EngineOutput {
    let (groups, worker_descs) = (&pool.groups, &pool.worker_descs);
    let (order, modules, group_idx) = (&resolved.order, &resolved.modules, &resolved.group_idx);
    let module_of = |slot: usize| modules[slot].as_ref().expect("resolved by the prologue");
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
            completions[slot] = Some(completion);
            batch += 1;
        }
        batched_requests += (batch - 1) as u64;
    }
    EngineOutput {
        // (collected in place: an `Option<Completion>` is a `Completion` wide)
        completions: completions
            .into_iter()
            .map(|c| c.expect("every request is dispatched"))
            .collect(),
        outcomes,
        batched_requests,
        cost_snapshot: scheduler.cost_snapshot(),
    }
}
