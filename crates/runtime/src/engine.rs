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

use crate::cache::{CompiledModule, CostRefiner};
use crate::metrics::PredictionStats;
use crate::runtime::{PredictionSample, ServeConfig};
use crate::scheduler::Scheduler;
use crate::worker::{Completion, Worker};
use accfg_sim::FREQ_STATES;
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
}

/// What the serve loop produced, consumed by `Runtime::serve`'s epilogue
/// (metrics, store flush).
pub(crate) struct EngineOutput {
    /// Per-slot completions, in stream order.
    pub completions: Vec<Completion>,
    /// Per-slot cycle predictions beside the cycles observed, in stream
    /// order: written at commit, where the dispatch has just run.
    pub predictions: Vec<PredictionSample>,
    /// Both predictors' errors over the dispatches that ran.
    pub prediction: PredictionStats,
    /// The same, per frequency state the dispatch's last launch ran at,
    /// the ewma column the frequency-keyed estimate for that state.
    pub freq_prediction: [PredictionStats; FREQ_STATES],
    /// Requests that rode along in a batch (batch size minus one, summed).
    pub batched_requests: u64,
    /// The store records of the refiner's final rows that moved off
    /// their seeded value — what the store flush writes
    /// ([`Scheduler::moved_cost_records`]). Empty when the serve has no
    /// store: nothing would read it.
    pub cost_records: Vec<(Vec<u8>, Vec<u8>)>,
}

/// The serve loop: walks the dispatch order on the simulated clock
/// against one scheduler seeded from the persisted cost rows, routing
/// each request among its group's workers. A dispatch executes on its
/// worker the moment it is committed — ahead of the simulated clock — and
/// comes back with its start and finish cycles fixed. Its measured cycles
/// retire into the refiner only once the clock (the batch head's arrival)
/// has passed its finish, in `(finish, slot)` order, so every decision is
/// a function of simulated time alone. The loop cannot fail: it returns
/// once every request of `stream` has been dispatched. `refiner` — the
/// persisted cost rows by `(module id, platform)`, the platform numbered
/// as the serve's scheduler numbers the pool's (by first appearance over
/// the workers); empty without a store — becomes the scheduler's before
/// the first dispatch.
pub(crate) fn run(
    stream: &[TrafficRequest],
    pool: &PoolShape,
    resolved: &Resolved,
    refiner: CostRefiner,
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
    scheduler.adopt_refiner(refiner);
    let elide = scheduler.elides();
    let max_batch = cfg.max_batch.max(1);

    let mut completions: Vec<Option<Completion>> = (0..stream.len()).map(|_| None).collect();
    let mut predictions = vec![PredictionSample::default(); stream.len()];
    let mut prediction = PredictionStats::default();
    let mut freq_prediction = [PredictionStats::default(); FREQ_STATES];
    let mut batched_requests = 0u64;
    // executed dispatches whose measured cycles have not retired yet, with
    // the warmth bucket they retire into, retired in deterministic
    // (finish, slot) order: the pairs are unique, so a min-heap pops them
    // in exactly that order
    let mut unretired: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();

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
        while let Some(&Reverse((finish, slot, bucket))) = unretired.peek() {
            if finish > now {
                break;
            }
            unretired.pop();
            let completion = completions[slot].as_ref().expect("executed at commit");
            scheduler.observe_id(
                completion.worker,
                ids[slot],
                bucket,
                completion.freq,
                completion.counters.cycles,
            );
        }

        // route the batch head, then coalesce same-module requests
        // adjacent in this group's arrival order (requests bound for
        // other accelerator groups never interpose), stopping at the
        // batch cutoff: once the worker's estimated outstanding cycles
        // reach the slack horizon, further requests are better served by
        // a fresh routing decision than by joining the queue
        let (g, id) = (group_idx[head], ids[head]);
        let module = &*modules[id];
        let worker = scheduler.choose_id(g, &groups[g], id, module, now);
        let mut batch = 0usize;
        for &slot in &order[cursor..] {
            if completions[slot].is_some() || group_idx[slot] != g {
                continue;
            }
            if batch > 0
                && (batch >= max_batch
                    || ids[slot] != id
                    || scheduler.outstanding(worker, stream[slot].arrival) >= cfg.load_slack)
            {
                break;
            }
            let outcome = scheduler.commit_id(worker, id, module, stream[slot].arrival);
            let completion = workers[worker].execute(&stream[slot], module, elide);
            // observed-vs-predicted error, for both predictors on the
            // same dispatch (a failed simulation carries no valid cycles)
            let sample = &mut predictions[slot];
            sample.anchor = outcome.anchor_cycles;
            sample.ewma = outcome.predicted_cycles;
            if completion.sim_error.is_none() {
                let observed = completion.counters.cycles;
                sample.observed = observed;
                let keyed = outcome.keyed_cycles[completion.freq.index()];
                for (stats, ewma) in [
                    (&mut prediction, outcome.predicted_cycles),
                    (&mut freq_prediction[completion.freq.index()], keyed),
                ] {
                    stats.samples += 1;
                    stats.anchor_abs_error += outcome.anchor_cycles.abs_diff(observed);
                    stats.ewma_abs_error += ewma.abs_diff(observed);
                }
                unretired.push(Reverse((completion.finish, slot, outcome.bucket)));
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
        predictions,
        prediction,
        freq_prediction,
        batched_requests,
        cost_records: match cfg.store {
            Some(_) => scheduler.moved_cost_records(|id| &modules[id].key),
            None => Vec::new(),
        },
    }
}
