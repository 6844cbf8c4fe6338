//! The serve engine: one shard loop, run under a plan.
//!
//! [`Runtime::serve`] resolves modules, sorts the dispatch order, and
//! builds the worker pool, then hands the *serve loop proper* to
//! `engine::run`, which only **plans** — which pool groups share a
//! scheduler shard, and which lane carries their dispatches — and runs
//! the single shard loop (`run_shard`) once per shard:
//!
//! - **plan** ([`EnginePlan`], reported as [`ServeReport::engine`]).
//!   [`ServeMode::Deterministic`] (the default) and every serve with a
//!   bounded [`ServeBudget`] run **one shard owning every group**: one
//!   scheduler, one refiner, the global `(arrival, id, slot)` order.
//!   This is the *reference configuration* — its per-request outcomes
//!   (writes, cycles, latencies, prediction samples) define correct
//!   behaviour, and its reports are byte-identical across runs and host
//!   thread counts. [`ServeMode::Parallel`] buckets the groups by base
//!   platform name and runs one shard per bucket.
//! - **shards.** A shard owns a set of pool groups: it walks their
//!   subsequence of the arrival order against its own scheduler, routes
//!   only among their workers, and retires measured cycles into its own
//!   refiner rows.
//! - **lane** (`ShardLane`). *Inline* — the reference plan, every
//!   budgeted serve, and `Parallel { threads: 1 }`: the shards run one
//!   after another on the calling thread and execute every dispatch
//!   themselves; nothing is spawned and no channel is opened. *Threaded*
//!   — `Parallel { threads >= 2 }` without a bounded budget, and nothing
//!   else: executor threads own the workers (worker `w` belongs to
//!   executor `w % threads`) and run dispatches as jobs arrive over
//!   channels, completions flowing back on the owning shard's channel,
//!   one thread per shard.
//!
//! # Why the plan never changes an outcome
//!
//! The loop's processing of one group's subsequence is independent of
//! every group it shares no state with:
//!
//! - routing reads only the group's candidate workers (policies score
//!   `candidates` exclusively, and `fifo` keeps per-group round-robin
//!   counters);
//! - commits touch only the chosen worker's queue and shadow state;
//! - batch coalescing scans only the group's own arrival subsequence
//!   (other groups' requests never interpose);
//! - worker cycle counts are pure functions of the worker's own job
//!   sequence (machines share no state), so per-worker completions are
//!   identical however executor threads interleave them;
//! - refiner rows are keyed `(module key, platform)`, and a group's
//!   module keys name its *base* platform — so observation state is
//!   disjoint across groups exactly when their base platform names are.
//!
//! The last clause is the planning rule: groups sharing a base platform
//! name share refiner rows, so they share a shard (and with it one
//! `(finish, slot)` retirement order); groups that share nothing may be
//! split, and each shard then makes exactly the decisions the one-shard
//! plan makes for its groups. The plan is a performance knob, never a
//! semantic one. `tests/differential.rs` states that as a property of
//! the one loop — schedule-independence — by serving every bench
//! stream × policy pair under the reference plan and under sharded
//! plans at several thread budgets and asserting outcome-by-outcome
//! equality; the loop body's own reference is the committed output of
//! the reference plan (`BENCH_runtime.json`, `TUNED.json`).
//!
//! [`Runtime::serve`]: crate::runtime::Runtime::serve
//! [`ServeReport::engine`]: crate::runtime::ServeReport::engine
//! [`ServeBudget`]: crate::runtime::ServeBudget

use crate::cache::CompiledModule;
use crate::error::ServeError;
use crate::persist::CostSnapshotEntry;
use crate::runtime::{ServeBudget, ServeConfig};
use crate::scheduler::{CommitOutcome, Scheduler};
use crate::worker::{Completion, Job, Worker};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::TrafficRequest;
use std::borrow::Cow;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

/// How the serve loop is planned onto scheduler shards and threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// The reference plan: one scheduler shard over the whole pool on
    /// the simulated clock, every dispatch executed on the calling
    /// thread — no executor threads, no channels. Reports are
    /// byte-identical across runs; this is the default, and the only
    /// mode benchmark artifacts are committed from.
    #[default]
    Deterministic,
    /// The sharded plan: one scheduler shard per set of pool groups
    /// sharing a base platform name, with dispatch execution spread over
    /// `threads` executor threads that own the workers. Produces
    /// per-request outcomes identical to the reference plan (see the
    /// module docs for the argument); wall-clock throughput scales with
    /// `threads`.
    Parallel {
        /// The engine's thread budget (clamped to at least 1). `1` runs
        /// the shards one after another on the calling thread, executing
        /// every dispatch inline — the fully serial baseline wall-clock
        /// speedups are measured against. `>= 2` spawns one thread per
        /// scheduler shard plus `threads` executor threads (at most one
        /// per worker); worker `w` is owned by executor `w % threads`,
        /// so `threads >=` pool worker count gives every worker its own
        /// executor.
        threads: usize,
    },
}

/// The plan a serve actually ran under — what [`ServeConfig::mode`], the
/// budget and the pool's shape resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnginePlan {
    /// Scheduler shards. 1 under [`ServeMode::Deterministic`] or a
    /// bounded budget; otherwise one per distinct base platform name
    /// among the pool's groups (groups sharing a name share a shard).
    pub shards: usize,
    /// Executor threads the dispatches ran on; 0 means the inline lane
    /// (every dispatch executed on the calling thread).
    pub executor_threads: usize,
}

impl fmt::Display for EnginePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} scheduler shard(s), ", self.shards)?;
        match self.executor_threads {
            0 => write!(f, "inline execution"),
            n => write!(f, "{n} executor thread(s)"),
        }
    }
}

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
    /// Persisted cost rows to seed the refiner(s) with: every one belongs
    /// to a module in `modules` and names a platform of the pool.
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
    /// The plan the loop ran under.
    pub plan: EnginePlan,
    /// Per-slot completions, in stream order.
    pub completions: Vec<Completion>,
    /// Per-slot commit predictions.
    pub outcomes: Vec<CommitOutcome>,
    /// Per-slot simulated finish cycle, as the loop computed it when it
    /// pulled the completion (`start = max(previous finish, arrival)`).
    pub finish: Vec<u64>,
    /// Requests that rode along in a batch (batch size minus one, summed).
    pub batched_requests: u64,
    /// The refiner's final rows, re-keyed from pool-local platform index
    /// to platform name — ready for [`crate::persist::WarmStart::flush`].
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
        // the same nearest-rank convention as LatencyStats::percentile:
        // rank = ceil(0.99 * n) clamped to 1..=n
        let n = stream_len as u64;
        let rank = (((stream_len as f64) * 0.99).ceil() as u64).clamp(1.min(n), n);
        Self {
            budget,
            exceed_count: 0,
            allowed_exceed: n - rank,
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

/// One scheduler shard of a plan: the pool groups it owns and what the
/// loop needs to serve them.
struct Shard<'a> {
    /// Owned pool groups, ascending.
    groups: Vec<usize>,
    /// The owned groups' subsequence of the dispatch order.
    order: Vec<usize>,
    /// The persisted cost rows this shard's refiner starts from.
    seed: Cow<'a, [CostSnapshotEntry]>,
}

/// How a shard dispatches jobs and collects their completions.
enum ShardLane<'a> {
    /// Jobs go to executor `worker % job_txs.len()`; completions come
    /// back on the shard's own channel, in execution order.
    Threaded {
        job_txs: Vec<mpsc::Sender<(usize, Job)>>,
        comp_rx: mpsc::Receiver<Completion>,
    },
    /// The shard executes each job itself at dispatch time; there is
    /// never anything to receive.
    Inline(&'a mut [Worker]),
}

impl ShardLane<'_> {
    /// Hands `job` to `worker`; the inline lane returns its completion.
    fn dispatch(&mut self, worker: usize, job: Job) -> Option<Completion> {
        match self {
            ShardLane::Threaded { job_txs, .. } => {
                job_txs[worker % job_txs.len()]
                    .send((worker, job))
                    .expect("executor thread alive while jobs pend");
                None
            }
            ShardLane::Inline(workers) => Some(workers[worker].execute(&job)),
        }
    }

    fn recv(&mut self) -> Completion {
        match self {
            ShardLane::Threaded { comp_rx, .. } => {
                comp_rx.recv().expect("executor alive while jobs pend")
            }
            ShardLane::Inline(_) => unreachable!("inline dispatches complete at dispatch"),
        }
    }
}

/// What one scheduler shard hands back to be merged into stream order;
/// the per-request vectors are indexed by position in `order`.
struct ShardResult {
    order: Vec<usize>,
    outcomes: Vec<CommitOutcome>,
    completions: Vec<Option<Completion>>,
    finish: Vec<u64>,
    batched_requests: u64,
    /// The shard refiner's final rows, re-keyed to platform names.
    snapshot: Vec<CostSnapshotEntry>,
}

/// Plans the serve (see the module docs) and runs the shard loop under
/// that plan, merging the shards' results back into stream order.
///
/// A bounded [`ServeBudget`] forces the reference plan — one shard on
/// the inline lane — whatever `cfg.mode` says: the abort argument
/// ([`BudgetTracker`]) is stated against that plan's pull order, so the
/// budget overrides the performance knob rather than weakening the
/// contract.
pub(crate) fn run(
    input: EngineInput<'_>,
    mut workers: Vec<Worker>,
) -> Result<EngineOutput, ServeError> {
    let (stream, pool, resolved, cfg) = (input.stream, input.pool, input.resolved, input.cfg);
    let groups = &pool.groups;
    let worker_count = workers.len();
    let budget = cfg.budget.filter(|b| !b.is_unbounded());
    let base_of = |g: usize| pool.worker_descs[groups[g][0]].name.as_str();

    // plan: which groups share a shard, and how many executors run them
    let new_shard = |groups: Vec<usize>| Shard {
        groups,
        order: Vec::new(),
        seed: Cow::Borrowed(&[]),
    };
    let mut shards: Vec<Shard<'_>> = Vec::new();
    let executor_threads = match cfg.mode {
        ServeMode::Parallel { threads } if budget.is_none() => {
            for g in 0..groups.len() {
                match shards
                    .iter_mut()
                    .find(|shard| base_of(shard.groups[0]) == base_of(g))
                {
                    Some(shard) => shard.groups.push(g),
                    None => shards.push(new_shard(vec![g])),
                }
            }
            if threads <= 1 {
                0
            } else {
                threads.min(worker_count)
            }
        }
        _ => {
            shards.push(new_shard((0..groups.len()).collect()));
            0
        }
    };
    let plan = EnginePlan {
        shards: shards.len(),
        executor_threads,
    };
    let mut shard_of_group = vec![0usize; groups.len()];
    for (s, shard) in shards.iter().enumerate() {
        for &g in &shard.groups {
            shard_of_group[g] = s;
        }
    }

    // each shard's subsequence of the dispatch order, and every slot's
    // position within its shard's
    let mut local_of = vec![0usize; stream.len()];
    for &slot in &resolved.order {
        let shard_order = &mut shards[shard_of_group[resolved.group_idx[slot]]].order;
        local_of[slot] = shard_order.len();
        shard_order.push(slot);
    }

    // Persisted cost rows: one shard takes them all. Several shards split
    // them by the base platform each row's module was compiled for — the
    // shard owning that base is the only one that can read or write the
    // row, and there always is one: `Runtime::serve` loads rows only for
    // modules the stream resolved.
    if plan.shards == 1 {
        shards[0].seed = Cow::Borrowed(&resolved.cost_seed);
    } else {
        for entry in &resolved.cost_seed {
            shards
                .iter_mut()
                .find(|shard| base_of(shard.groups[0]) == entry.1.accelerator)
                .expect("a seeded row's module was resolved for some group")
                .seed
                .to_mut()
                .push(entry.clone());
        }
    }
    // only the reference plan (one shard, inline) is ever budgeted
    let mut tracker = budget.map(|b| BudgetTracker::new(b, stream.len()));

    let mut completions: Vec<Option<Completion>> = (0..stream.len()).map(|_| None).collect();
    let mut outcomes = vec![CommitOutcome::default(); stream.len()];
    let mut finish = vec![0u64; stream.len()];
    let mut batched_requests = 0u64;
    let mut cost_snapshot: Vec<CostSnapshotEntry> = Vec::new();
    let mut merge = |mut shard: ShardResult| {
        batched_requests += shard.batched_requests;
        cost_snapshot.extend(shard.snapshot);
        for (at, slot) in shard.order.into_iter().enumerate() {
            outcomes[slot] = shard.outcomes[at];
            finish[slot] = shard.finish[at];
            completions[slot] = shard.completions[at].take();
        }
    };
    if executor_threads == 0 {
        for shard in shards {
            let lane = ShardLane::Inline(&mut workers);
            merge(run_shard(input, &local_of, shard, lane, tracker.take())?);
        }
    } else {
        thread::scope(|scope| {
            let (job_txs, job_rxs): (Vec<_>, Vec<_>) = (0..executor_threads)
                .map(|_| mpsc::channel::<(usize, Job)>())
                .unzip();
            let (comp_txs, comp_rxs): (Vec<_>, Vec<_>) = (0..plan.shards)
                .map(|_| mpsc::channel::<Completion>())
                .unzip();
            let comp_tx_of_worker: Vec<mpsc::Sender<Completion>> = pool
                .worker_group
                .iter()
                .map(|&g| comp_txs[shard_of_group[g]].clone())
                .collect();
            drop(comp_txs);

            // executor `e` owns workers `e, e + threads, ..` (worker `w`
            // sits at `owned[w / threads]`) and executes jobs in arrival
            // order; a worker's jobs all come from its group's single
            // shard, so per-sender channel FIFO preserves each worker's
            // dispatch sequence exactly as the shard committed it
            let mut owned: Vec<Vec<Worker>> = (0..executor_threads).map(|_| Vec::new()).collect();
            for (w, worker) in workers.into_iter().enumerate() {
                owned[w % executor_threads].push(worker);
            }
            for (mut owned, job_rx) in owned.into_iter().zip(job_rxs) {
                let comp_txs = comp_tx_of_worker.clone();
                scope.spawn(move || {
                    while let Ok((w, job)) = job_rx.recv() {
                        let completion = owned[w / executor_threads].execute(&job);
                        // a closed channel is a shard that panicked: its
                        // queued jobs have no reader, the join reports it
                        if comp_txs[w].send(completion).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(comp_tx_of_worker);

            let local_of = &local_of;
            let handles: Vec<_> = shards
                .into_iter()
                .zip(comp_rxs)
                .map(|(shard, comp_rx)| {
                    let lane = ShardLane::Threaded {
                        job_txs: job_txs.clone(),
                        comp_rx,
                    };
                    scope.spawn(move || run_shard(input, local_of, shard, lane, None))
                })
                .collect();
            drop(job_txs);
            for handle in handles {
                merge(handle.join().expect("scheduler shard panicked")?);
            }
            Ok::<(), ServeError>(())
        })?;
    }
    Ok(EngineOutput {
        plan,
        completions: completions
            .into_iter()
            .map(|c| c.expect("every dispatched job completes"))
            .collect(),
        outcomes,
        finish,
        batched_requests,
        cost_snapshot,
    })
}

/// The refiner's rows re-keyed from platform index to platform name.
fn snapshot_by_name(scheduler: &Scheduler) -> Vec<CostSnapshotEntry> {
    let variants = scheduler.load().variants();
    scheduler
        .refiner()
        .snapshot()
        .into_iter()
        .map(|(key, platform, buckets)| (variants[platform].name.clone(), key, buckets))
        .collect()
}

/// The serve loop: walks `shard`'s subsequence of the arrival order on
/// the simulated clock against a full-width scheduler (so platform
/// indices mean the same in every shard) that only ever routes within
/// the owned groups' candidates. The lane may run ahead (executor
/// threads do, the inline lane executes at dispatch time); the loop
/// pulls a completion only once the clock proves its dispatch has
/// started, so every decision is a function of simulated time alone —
/// and so is the pull order (the clock, then ascending worker index),
/// which is why a budget's verdict does not depend on the lane.
///
/// With a [`BudgetTracker`], every pulled completion's (final) latency
/// and setup writes are admitted to it, tail drain included, and the
/// loop returns [`ServeError::BudgetExceeded`] the moment a bound is
/// provably exceeded — the bounds are thereby *exact*: a budgeted run
/// completes if and only if its final metrics are within budget.
fn run_shard(
    input: EngineInput<'_>,
    local_of: &[usize],
    shard: Shard<'_>,
    mut lane: ShardLane<'_>,
    mut budget: Option<BudgetTracker>,
) -> Result<ShardResult, ServeError> {
    let (stream, pool, cfg) = (input.stream, input.pool, input.cfg);
    let (groups, worker_descs) = (&pool.groups, &pool.worker_descs);
    let (modules, group_idx) = (&input.resolved.modules, &input.resolved.group_idx);
    let module_of = |slot: usize| modules[slot].as_ref().expect("resolved by the prologue");
    let worker_count = worker_descs.len();
    let order = shard.order;
    // ascending worker index: the pull order budget aborts are exact in
    let members: Vec<usize> = shard
        .groups
        .iter()
        .flat_map(|&g| groups[g].iter().copied())
        .collect();

    let mut scheduler = Scheduler::new(cfg.policy, worker_descs, groups.len())
        .with_refinement(cfg.refine_cost)
        .with_slack(cfg.load_slack)
        .with_power_caps(pool.worker_group.clone(), pool.power_caps.clone());
    scheduler.seed_refiner(&shard.seed);
    let elide = scheduler.elides();
    let max_batch = cfg.max_batch.max(1);
    let batch_cutoff = cfg.batch_cutoff.resolve(cfg.load_slack);

    // per-request state, indexed by position in `order`; a completion is
    // stashed on arrival (at dispatch on the inline lane; the threaded
    // lane delivers in execution order, which need not match the
    // simulated-clock order the loop consumes in)
    let mut outcomes = vec![CommitOutcome::default(); order.len()];
    let mut completions: Vec<Option<Completion>> = (0..order.len()).map(|_| None).collect();
    let mut finishes = vec![0u64; order.len()];
    let mut scheduled = vec![false; order.len()];
    // per-worker dispatches sent but not yet pulled, oldest first;
    // `finish_known[w]` is the simulated finish of the last pulled
    // dispatch, so the head's start cycle is exact
    let mut inflight: Vec<VecDeque<usize>> = vec![VecDeque::new(); worker_count];
    let mut finish_known = vec![0u64; worker_count];
    // pulled completions whose finish is still in the future, retired in
    // deterministic (finish, slot) order
    let mut unretired: BTreeSet<(u64, usize, usize)> = BTreeSet::new();
    let mut batched_requests = 0u64;

    let mut cursor = 0usize;
    loop {
        while cursor < order.len() && scheduled[cursor] {
            cursor += 1;
        }
        // heads are taken at advancing positions of the arrival-sorted
        // order (batch coalescing skips ahead only for *members*), so
        // this clock is monotone; past the last head it is unbounded,
        // which makes the pull below the tail drain
        let head = order.get(cursor).copied();
        let now = head.map_or(u64::MAX, |head| stream[head].arrival);

        // pull every completion the clock proves has *started* (its
        // worker-queue predecessors all finished by now) — the lane has
        // run it or is running it, so the wait is at most for real work
        // in progress. A pulled completion's latency is final, so the
        // budget verdict on it is exact.
        for &w in &members {
            while let Some(&at) = inflight[w].front() {
                let slot = order[at];
                let start = finish_known[w].max(stream[slot].arrival);
                if start > now {
                    break;
                }
                while completions[at].is_none() {
                    let arrived = lane.recv();
                    let stash = local_of[arrived.slot];
                    completions[stash] = Some(arrived);
                }
                let completion = completions[at].as_ref().expect("stashed above");
                let finish = start + completion.counters.cycles;
                finishes[at] = finish;
                finish_known[w] = finish;
                inflight[w].pop_front();
                if completion.sim_error.is_none() {
                    unretired.insert((finish, slot, at));
                }
                if let Some(tracker) = budget.as_mut() {
                    tracker.admit(finish - stream[slot].arrival, completion.emitted_writes)?;
                }
            }
        }
        let Some(head) = head else {
            break;
        };
        // retire completed dispatches into the cost refiner, in
        // simulated completion order
        while let Some(&(finish, slot, at)) = unretired.first() {
            if finish > now {
                break;
            }
            unretired.pop_first();
            let completion = completions[at].as_ref().expect("pulled above");
            scheduler.observe(
                completion.worker,
                module_of(slot),
                outcomes[at].bucket,
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
        for (at, &slot) in order.iter().enumerate().skip(cursor) {
            if scheduled[at] || group_idx[slot] != g {
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
            outcomes[at] = scheduler.commit(worker, module_of(slot), stream[slot].arrival);
            scheduled[at] = true;
            inflight[worker].push_back(at);
            completions[at] = lane.dispatch(
                worker,
                Job {
                    request: stream[slot].clone(),
                    module: Arc::clone(module_of(slot)),
                    slot,
                    elide,
                },
            );
            batch += 1;
        }
        batched_requests += (batch - 1) as u64;
    }

    Ok(ShardResult {
        order,
        outcomes,
        completions,
        finish: finishes,
        batched_requests,
        snapshot: snapshot_by_name(&scheduler),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::runtime::{PoolConfig, Runtime, ServeConfig};
    use accfg_workloads::{mixed_serving_classes, TrafficConfig};

    fn pool() -> PoolConfig {
        PoolConfig::new(vec![
            AcceleratorDescriptor::gemmini(),
            AcceleratorDescriptor::opengemm(),
        ])
    }

    fn stream(requests: usize, seed: u64) -> Vec<TrafficRequest> {
        TrafficConfig {
            classes: mixed_serving_classes(),
            requests,
            mean_gap: 80,
            seed,
        }
        .open_loop_stream()
        .unwrap()
    }

    fn serve(pool: PoolConfig, stream: &[TrafficRequest], cfg: &ServeConfig) -> crate::ServeReport {
        Runtime::new(pool).serve(stream, cfg).unwrap()
    }

    #[test]
    fn parallel_matches_the_oracle_per_request() {
        let stream = stream(250, 21);
        for policy in Policy::ALL {
            let base = ServeConfig {
                policy,
                ..ServeConfig::default()
            };
            let oracle = serve(pool(), &stream, &base);
            for threads in [1, 3] {
                let parallel = serve(
                    pool(),
                    &stream,
                    &ServeConfig {
                        mode: ServeMode::Parallel { threads },
                        ..base.clone()
                    },
                );
                assert_eq!(
                    oracle.metrics,
                    parallel.metrics,
                    "{} x{threads}",
                    policy.label()
                );
                assert_eq!(oracle.latencies, parallel.latencies);
                assert_eq!(oracle.predictions, parallel.predictions);
            }
        }
    }

    #[test]
    fn parallel_matches_the_oracle_with_batching() {
        let stream = stream(300, 22);
        let base = ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        };
        let oracle = serve(pool(), &stream, &base);
        let parallel = serve(
            pool(),
            &stream,
            &ServeConfig {
                mode: ServeMode::Parallel { threads: 2 },
                ..base
            },
        );
        assert_eq!(oracle.metrics, parallel.metrics);
        assert_eq!(oracle.latencies, parallel.latencies);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let stream = stream(60, 23);
        let oracle = serve(pool(), &stream, &ServeConfig::default());
        let parallel = serve(
            pool(),
            &stream,
            &ServeConfig {
                mode: ServeMode::Parallel { threads: 0 },
                ..ServeConfig::default()
            },
        );
        assert_eq!(oracle.metrics, parallel.metrics);
    }

    #[test]
    fn duplicate_base_names_fall_back_to_the_oracle() {
        // two groups fielding the same base platform share refiner rows
        // (module keys name the base), so the plan keeps them on one
        // shard — and says so — whatever the thread budget
        let gemmini = AcceleratorDescriptor::gemmini();
        let pool = PoolConfig {
            groups: vec![
                crate::runtime::PoolGroup {
                    family: "a".into(),
                    members: vec![gemmini.clone(), gemmini.clone()],
                    power_cap: None,
                },
                crate::runtime::PoolGroup {
                    family: "b".into(),
                    members: vec![gemmini.clone(), gemmini],
                    power_cap: None,
                },
            ],
            mem_bytes: 1 << 21,
            fuel: 100_000_000,
        };
        let mut stream = stream(80, 24);
        for (i, request) in stream.iter_mut().enumerate() {
            request.accelerator = if i % 2 == 0 { "a".into() } else { "b".into() };
            request.spec = accfg_workloads::MatmulSpec::gemmini_paper(16).unwrap();
        }
        let oracle = serve(pool.clone(), &stream, &ServeConfig::default());
        let parallel = serve(
            pool,
            &stream,
            &ServeConfig {
                mode: ServeMode::Parallel { threads: 4 },
                ..ServeConfig::default()
            },
        );
        assert_eq!(oracle.metrics, parallel.metrics);
        assert_eq!(oracle.latencies, parallel.latencies);
        // the reference runs inline; this pool under a thread budget is
        // what still covers one shard feeding several executors
        assert_eq!(
            oracle.engine,
            EnginePlan {
                shards: 1,
                executor_threads: 0,
            }
        );
        assert_eq!(
            parallel.engine,
            EnginePlan {
                shards: 1,
                executor_threads: 4,
            }
        );
    }
}
