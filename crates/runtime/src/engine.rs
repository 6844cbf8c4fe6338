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

use crate::cache::{CompiledModule, CostRow};
use crate::persist::CostSnapshotEntry;
use crate::runtime::ServeConfig;
use crate::scheduler::{CommitOutcome, Scheduler};
use crate::worker::{Completion, Worker};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::TrafficRequest;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
///
/// The serve's distinct modules are numbered `0..n` in first-use order
/// (the order of `order`), and everything the loop keeps per module —
/// the scheduler's refiner rows and anchors, the batch compare — is
/// indexed by that id. Ids live for one serve; the `CacheKey` stays at
/// the module cache and the store.
pub(crate) struct Resolved {
    /// Dispatch order: stream slots sorted by `(arrival, id, slot)`.
    pub order: Vec<usize>,
    /// Per-slot module id.
    pub ids: Vec<usize>,
    /// The compiled modules, by id.
    pub modules: Vec<Arc<CompiledModule>>,
    /// Per-slot pool-group index.
    pub group_idx: Vec<usize>,
    /// Persisted cost rows to seed the refiner with, as `(module id,
    /// platform name, rows)`: every one names a platform of the pool.
    pub cost_seed: Vec<(usize, String, CostRow)>,
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
    /// The refiner's final rows keyed by platform name and `CacheKey`
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
    let (order, ids, modules) = (&resolved.order, &resolved.ids, &resolved.modules);
    let group_idx = &resolved.group_idx;
    let mut scheduler = Scheduler::new(cfg.policy, worker_descs, groups.len())
        .with_refinement(cfg.refine_cost)
        .with_slack(cfg.load_slack)
        .with_power_caps(pool.worker_group.clone(), pool.power_caps.clone());
    // the scheduler numbers modules in the order it is told of them: the
    // prologue's order
    for module in modules {
        scheduler.add_module(&module.key.accelerator);
    }
    scheduler.seed_ids(&resolved.cost_seed);
    let elide = scheduler.elides();
    let max_batch = cfg.max_batch.max(1);
    let batch_cutoff = cfg.batch_cutoff.resolve(cfg.load_slack);

    let mut completions: Vec<Option<Completion>> = (0..stream.len()).map(|_| None).collect();
    let mut outcomes = vec![CommitOutcome::default(); stream.len()];
    let mut batched_requests = 0u64;
    // executed dispatches whose measured cycles have not retired yet,
    // retired in deterministic (finish, slot) order: the pairs are
    // unique, so a min-heap pops them in exactly that order
    let mut unretired: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();

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
        while let Some(&Reverse((finish, slot))) = unretired.peek() {
            if finish > now {
                break;
            }
            unretired.pop();
            let completion = completions[slot].as_ref().expect("executed at commit");
            scheduler.observe_id(
                completion.worker,
                ids[slot],
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
        let (g, id) = (group_idx[head], ids[head]);
        let module = &*modules[id];
        let worker = scheduler.choose_id(g, &groups[g], id, module, now);
        let mut batch = 0usize;
        for &slot in &order[cursor..] {
            if completions[slot].is_some() || group_idx[slot] != g {
                continue;
            }
            if batch > 0 {
                if batch >= max_batch || ids[slot] != id {
                    break;
                }
                if let Some(cutoff) = batch_cutoff {
                    if scheduler.outstanding(worker, stream[slot].arrival) >= cutoff {
                        break;
                    }
                }
            }
            outcomes[slot] = scheduler.commit_id(worker, id, module, stream[slot].arrival);
            let completion = workers[worker].execute(&stream[slot], module, elide);
            if completion.sim_error.is_none() {
                unretired.push(Reverse((completion.finish, slot)));
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
        cost_snapshot: scheduler.cost_snapshot_by(|id| &modules[id].key),
    }
}
