//! The serve engine: one shard loop, run under a plan.
//!
//! [`Runtime::serve`] resolves modules, sorts the dispatch order, and
//! builds the worker pool, then hands the *serve loop proper* to
//! `engine::run`, which only **plans** — which pool groups share a
//! scheduler shard — and runs the single shard loop (`run_shard`) once
//! per shard, one shard after another on the calling thread. A dispatch
//! executes where it is committed; nothing is spawned and no channel is
//! opened.
//!
//! - **plan** ([`EnginePlan`], reported as [`ServeReport::engine`]).
//!   [`ServeMode::Deterministic`] (the default) and every serve with a
//!   bounded [`ServeBudget`] run **one shard owning every group**: one
//!   scheduler, one refiner, the global `(arrival, id, slot)` order.
//!   This is the *reference configuration* — its per-request outcomes
//!   (writes, cycles, latencies, prediction samples) define correct
//!   behaviour, and its reports are byte-identical across runs.
//!   [`ServeMode::Parallel`] buckets the groups by base platform name and
//!   runs one shard per bucket.
//! - **shards.** A shard owns a set of pool groups: it walks their
//!   subsequence of the arrival order against its own scheduler, routes
//!   only among their workers, and retires measured cycles into its own
//!   refiner rows.
//!
//! # Why the plan never changes an outcome
//!
//! The loop's processing of one group's subsequence is independent of
//! every group it shares no state with:
//!
//! - routing reads only the group's candidate workers (scoring prices
//!   `candidates` exclusively, and `fifo` keeps per-group round-robin
//!   counters);
//! - commits touch only the chosen worker's queue and shadow state;
//! - batch coalescing scans only the group's own arrival subsequence
//!   (other groups' requests never interpose);
//! - worker cycle counts are pure functions of the worker's own job
//!   sequence (machines share no state);
//! - refiner rows are keyed `(module key, platform)`, and a group's
//!   module keys name its *base* platform — so observation state is
//!   disjoint across groups exactly when their base platform names are.
//!
//! The last clause is the planning rule: groups sharing a base platform
//! name share refiner rows, so they share a shard (and with it one
//! `(finish, slot)` retirement order); groups that share nothing may be
//! split, and each shard then makes exactly the decisions the one-shard
//! plan makes for its groups. The plan is never a semantic knob.
//! `tests/differential.rs` states that as a property of the one loop —
//! schedule-independence — by serving every bench stream × policy pair
//! under the reference plan and under the sharded plan and asserting
//! outcome-by-outcome equality; the loop body's own reference is the
//! committed output of the reference plan (`BENCH_runtime.json`,
//! `TUNED.json`).
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
use std::sync::Arc;

/// How the serve loop is planned onto scheduler shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// The reference plan: one scheduler shard over the whole pool on
    /// the simulated clock. Reports are byte-identical across runs; this
    /// is the default, and the only mode benchmark artifacts are
    /// committed from.
    #[default]
    Deterministic,
    /// The sharded plan: one scheduler shard per set of pool groups
    /// sharing a base platform name, served one after another on the
    /// calling thread. Produces per-request outcomes identical to the
    /// reference plan (see the module docs for the argument).
    Parallel {
        /// Ignored: every value selects the same sharded plan. What is
        /// left of a thread budget, kept because `benchmark/` constructs
        /// the variant with it; the rename to a field-less variant is
        /// ROADMAP item 8(a)'s.
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

/// Plans the serve (see the module docs) and runs the shard loop under
/// that plan, every shard writing its requests' stream slots of the one
/// output.
///
/// A bounded [`ServeBudget`] forces the reference plan — one shard —
/// whatever `cfg.mode` says: the abort argument ([`BudgetTracker`]) is
/// stated against that plan's pull order, so the budget overrides the
/// plan rather than weakening the contract.
pub(crate) fn run(
    input: EngineInput<'_>,
    mut workers: Vec<Worker>,
) -> Result<EngineOutput, ServeError> {
    let (stream, pool, resolved, cfg) = (input.stream, input.pool, input.resolved, input.cfg);
    let groups = &pool.groups;
    let budget = cfg.budget.filter(|b| !b.is_unbounded());
    let base_of = |g: usize| pool.worker_descs[groups[g][0]].name.as_str();

    // plan: which groups share a shard
    let new_shard = |groups: Vec<usize>| Shard {
        groups,
        order: Vec::new(),
        seed: Cow::Borrowed(&[]),
    };
    let mut shards: Vec<Shard<'_>> = Vec::new();
    match cfg.mode {
        ServeMode::Parallel { .. } if budget.is_none() => {
            for g in 0..groups.len() {
                match shards
                    .iter_mut()
                    .find(|shard| base_of(shard.groups[0]) == base_of(g))
                {
                    Some(shard) => shard.groups.push(g),
                    None => shards.push(new_shard(vec![g])),
                }
            }
        }
        _ => shards.push(new_shard((0..groups.len()).collect())),
    }
    let mut shard_of_group = vec![0usize; groups.len()];
    for (s, shard) in shards.iter().enumerate() {
        for &g in &shard.groups {
            shard_of_group[g] = s;
        }
    }
    // each shard's subsequence of the dispatch order
    for &slot in &resolved.order {
        shards[shard_of_group[resolved.group_idx[slot]]]
            .order
            .push(slot);
    }

    // Persisted cost rows: one shard takes them all. Several shards split
    // them by the base platform each row's module was compiled for — the
    // shard owning that base is the only one that can read or write the
    // row, and there always is one: `Runtime::serve` loads rows only for
    // modules the stream resolved.
    if shards.len() == 1 {
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
    // only the reference plan (one shard) is ever budgeted
    let mut tracker = budget.map(|b| BudgetTracker::new(b, stream.len()));

    let mut completions: Vec<Option<Completion>> = (0..stream.len()).map(|_| None).collect();
    let mut out = EngineOutput {
        plan: EnginePlan {
            shards: shards.len(),
        },
        completions: Vec::new(),
        outcomes: vec![CommitOutcome::default(); stream.len()],
        finish: vec![0u64; stream.len()],
        batched_requests: 0,
        cost_snapshot: Vec::new(),
    };
    for shard in shards {
        let budget = tracker.take();
        run_shard(
            input,
            shard,
            &mut workers,
            budget,
            &mut completions,
            &mut out,
        )?;
    }
    // (collected in place: an `Option<Completion>` is a `Completion` wide)
    out.completions = completions
        .into_iter()
        .map(|c| c.expect("every request is dispatched"))
        .collect();
    Ok(out)
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
/// the owned groups' candidates, filling its requests' stream slots of
/// `completions` and `out`. A dispatch executes on its worker the moment
/// it is committed — ahead of the simulated clock — but the loop *pulls*
/// its completion (fixes its finish cycle, queues it for retirement,
/// admits it to the budget) only once the clock proves the dispatch has
/// started, so every decision is a function of simulated time alone, and
/// so is the pull order (the clock, then ascending worker index).
///
/// With a [`BudgetTracker`], every pulled completion's (final) latency
/// and setup writes are admitted to it, tail drain included, and the
/// loop returns [`ServeError::BudgetExceeded`] the moment a bound is
/// provably exceeded — the bounds are thereby *exact*: a budgeted run
/// completes if and only if its final metrics are within budget.
fn run_shard(
    input: EngineInput<'_>,
    shard: Shard<'_>,
    workers: &mut [Worker],
    mut budget: Option<BudgetTracker>,
    completions: &mut [Option<Completion>],
    out: &mut EngineOutput,
) -> Result<(), ServeError> {
    let (stream, pool, cfg) = (input.stream, input.pool, input.cfg);
    let (groups, worker_descs) = (&pool.groups, &pool.worker_descs);
    let (modules, group_idx) = (&input.resolved.modules, &input.resolved.group_idx);
    let module_of = |slot: usize| modules[slot].as_ref().expect("resolved by the prologue");
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
        // worker-queue predecessors all finished by now). A pulled
        // completion's latency is final, so the budget verdict on it is
        // exact.
        for &w in &members {
            while let Some(&slot) = inflight[w].front() {
                let start = finish_known[w].max(stream[slot].arrival);
                if start > now {
                    break;
                }
                let completion = completions[slot].as_ref().expect("executed at commit");
                let finish = start + completion.counters.cycles;
                out.finish[slot] = finish;
                finish_known[w] = finish;
                inflight[w].pop_front();
                if completion.sim_error.is_none() {
                    unretired.insert((finish, slot));
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
        while let Some(&(finish, slot)) = unretired.first() {
            if finish > now {
                break;
            }
            unretired.pop_first();
            let completion = completions[slot].as_ref().expect("pulled above");
            scheduler.observe(
                completion.worker,
                module_of(slot),
                out.outcomes[slot].bucket,
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
            out.outcomes[slot] = scheduler.commit(worker, module_of(slot), stream[slot].arrival);
            inflight[worker].push_back(slot);
            completions[slot] = Some(workers[worker].execute(&Job {
                request: &stream[slot],
                module: module_of(slot),
                slot,
                elide,
            }));
            batch += 1;
        }
        out.batched_requests += (batch - 1) as u64;
    }
    out.cost_snapshot.extend(snapshot_by_name(&scheduler));
    Ok(())
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
            let parallel = serve(
                pool(),
                &stream,
                &ServeConfig {
                    mode: ServeMode::Parallel { threads: 1 },
                    ..base.clone()
                },
            );
            assert_eq!(oracle.metrics, parallel.metrics, "{}", policy.label());
            assert_eq!(oracle.latencies, parallel.latencies);
            assert_eq!(oracle.predictions, parallel.predictions);
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
    fn duplicate_base_names_fall_back_to_the_oracle() {
        // two groups fielding the same base platform share refiner rows
        // (module keys name the base), so the plan keeps them on one
        // shard — and says so
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
        assert_eq!(oracle.engine, EnginePlan { shards: 1 });
        assert_eq!(parallel.engine, EnginePlan { shards: 1 });
    }
}
