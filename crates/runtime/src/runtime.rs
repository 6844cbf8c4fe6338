//! The serving runtime: pool construction, the serve loop, and metric
//! aggregation.
//!
//! [`Runtime::serve`] processes an open-loop request stream end to end:
//!
//! 1. every request's module is resolved through the compiled-module
//!    cache (repeated shapes skip IR build, passes, and lowering);
//! 2. the scheduler assigns each request — or each *batch* of same-module
//!    requests adjacent in their group's arrival order — to a worker
//!    under the run's [`Policy`] (round-robin, config-affinity,
//!    cycle-cost or frequency-aware routing), cutting a batch off once
//!    the target worker's estimated outstanding cycles reach the slack
//!    horizon;
//! 3. workers execute their dispatch sequences on persistent simulated
//!    machines, eliding configuration writes already resident — each
//!    dispatch on the calling thread, where the loop commits it, and
//!    stamped by its worker with its simulated start and finish cycles;
//! 4. as the simulated clock passes each dispatch's finish, its
//!    *measured* cycles retire into the scheduler's online cost refiner,
//!    sharpening the queue estimates later routing decisions use;
//! 5. completions are folded into [`ServeMetrics`], with latencies taken
//!    from the finish cycles their workers stamped.
//!
//! Scheduling interleaves with execution, and every decision point is a
//! function of simulated time only, so two serves of the same stream
//! produce bit-identical reports.
//!
//! Pools may be heterogeneous: a [`PoolGroup`] can mix differently
//! provisioned platform variants of one family (validated for
//! plan-compatibility at serve time), with modules compiled once against
//! the group's base platform and cost estimates re-anchored per variant.

use crate::cache::{CacheStats, CompiledModule, CostRefiner, ModuleCache};
use crate::engine::{self, EngineOutput, PoolShape, Resolved};
use crate::error::ServeError;
use crate::metrics::{
    class_label, ClassLatency, DepthHistogram, LatencyStats, ServeMetrics, WarmStartStats,
    WorkerMetrics,
};
use crate::persist::WarmStart;
use crate::policy::Policy;
use crate::scheduler::{number_platforms, LOAD_SLACK_CYCLES};
use crate::worker::{Completion, Worker};
use accfg::pipeline::OptLevel;
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::{MatmulSpec, TrafficRequest};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

/// One routing group of the pool: the *family* name requests address,
/// plus the per-worker platform descriptors serving it.
///
/// A uniform group repeats one descriptor; a heterogeneous group mixes
/// differently provisioned variants of one platform family (same
/// configuration interface and field table — validated against
/// [`AcceleratorDescriptor::plan_compatible`] at serve time). Modules are
/// compiled once per family against `members[0]`, the group's *base*
/// platform, and replayed on every member; the scheduler re-anchors cost
/// estimates per variant.
#[derive(Debug, Clone)]
pub struct PoolGroup {
    /// The accelerator family requests name (`TrafficRequest::accelerator`).
    pub family: String,
    /// Per-worker platform descriptors; `members[0]` is the compile
    /// target for the family's modules.
    pub members: Vec<AcceleratorDescriptor>,
    /// Boost power cap: the maximum number of this group's workers the
    /// scheduler's shadow DVFS automaton will predict as simultaneously
    /// boosted (`None` = unbounded). Enforced in the scheduler — a
    /// candidate whose mirror would boost past the cap is predicted (and
    /// charged) at warm — which is what makes frequency-aware routing a
    /// real trade-off instead of "boost everything". Validated at serve
    /// time: a cap of 0 or above the group's worker count is
    /// [`ServeError::InvalidPowerCap`].
    ///
    /// [`ServeError::InvalidPowerCap`]:
    ///     crate::error::ServeError::InvalidPowerCap
    pub power_cap: Option<usize>,
}

/// Static configuration of the worker pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// The routing groups (one per served accelerator family).
    pub groups: Vec<PoolGroup>,
    /// The most memory a worker machine may have, in bytes — a cap, not
    /// a size. A serve gives each worker `min(mem_bytes, need)`, `need`
    /// being the furthest `layout.end` among the modules the stream
    /// resolved for the worker's group, so raising the cap costs nothing
    /// and a pool pays (allocation, zeroing, page faults — per serve,
    /// since every serve starts from fresh workers) for the shapes it is
    /// actually sent. A request whose layout does not fit under the cap
    /// still fails its input fill (a `sim_error` completion; the rest of
    /// the stream is served). An address past `need` faults even when it
    /// is under the cap: no program compiled for a resolved module
    /// touches one.
    pub mem_bytes: usize,
    /// Per-dispatch dynamic instruction budget.
    pub fuel: u64,
}

impl PoolConfig {
    /// A uniform pool over `descriptors` — one group per entry, named
    /// after the descriptor, with 2 workers each — and defaults sized for
    /// the evaluation shapes.
    pub fn new(descriptors: Vec<AcceleratorDescriptor>) -> Self {
        let groups = descriptors
            .into_iter()
            .map(|d| PoolGroup {
                family: d.name.clone(),
                members: vec![d.clone(), d],
                power_cap: None,
            })
            .collect();
        Self {
            groups,
            mem_bytes: 1 << 21,
            fuel: 100_000_000,
        }
    }

    /// Sets the worker count per group, making each group `workers`
    /// instances of its base platform (call before adding variants with
    /// [`PoolConfig::with_variant`]).
    ///
    /// # Panics
    /// Panics if any group is already heterogeneous — resizing would
    /// silently discard its variants; set the worker count first.
    #[must_use]
    pub fn with_workers_per_accelerator(mut self, workers: usize) -> Self {
        for group in &mut self.groups {
            let base = group.members.first().cloned();
            assert!(
                group.members.iter().all(|m| Some(m) == base.as_ref()),
                "group `{}` already has platform variants; \
                 call with_workers_per_accelerator before with_variant",
                group.family
            );
            group.members = match base {
                Some(base) => vec![base; workers],
                None => Vec::new(),
            };
        }
        self
    }

    /// Makes the pool heterogeneous: replaces the *last remaining
    /// base-platform worker* of `family`'s group with the platform
    /// variant `desc`, keeping the group's worker count — and with it
    /// the pool's capacity comparison against a uniform pool —
    /// unchanged. Repeated calls install further variants without
    /// discarding earlier ones; `members[0]` — the group's compile
    /// target — is never displaced (except in a single-worker group,
    /// where replacing the only worker is a wholesale platform swap).
    ///
    /// # Panics
    /// Panics if no group is named `family`, or if every replaceable
    /// base-platform worker already holds a variant — both configuration
    /// bugs worth failing loudly on.
    #[must_use]
    pub fn with_variant(mut self, family: &str, desc: AcceleratorDescriptor) -> Self {
        let group = self
            .groups
            .iter_mut()
            .find(|g| g.family == family)
            .unwrap_or_else(|| panic!("no pool group for family `{family}`"));
        let base = group
            .members
            .first()
            .unwrap_or_else(|| panic!("group `{family}` has no workers to replace"))
            .clone();
        let slot = if group.members.len() == 1 {
            0
        } else {
            group
                .members
                .iter()
                .rposition(|member| *member == base)
                .filter(|&slot| slot >= 1)
                .unwrap_or_else(|| {
                    panic!(
                        "group `{family}` has no base-platform worker left to replace \
                         (members[0] stays the compile target)"
                    )
                })
        };
        group.members[slot] = desc;
        self
    }

    /// Sets `family`'s boost power cap: at most `cap` of the group's
    /// workers are predicted simultaneously boosted by the scheduler's
    /// shadow DVFS automaton (see [`PoolGroup::power_cap`]). Range
    /// validation (`1..=` the group's worker count) happens at serve
    /// time, after the pool's final shape is known.
    ///
    /// # Panics
    /// Panics if no group is named `family`.
    #[must_use]
    pub fn with_power_cap(mut self, family: &str, cap: usize) -> Self {
        let group = self
            .groups
            .iter_mut()
            .find(|g| g.family == family)
            .unwrap_or_else(|| panic!("no pool group for family `{family}`"));
        group.power_cap = Some(cap);
        self
    }

    /// Total workers across all groups.
    pub fn worker_count(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum()
    }
}

/// A compatibility shim with no effect: every value runs the one serve
/// loop — [`ServeConfig::mode`] is read by nothing — so reports served
/// under any two values are identical.
///
/// It survives because the repository benchmark (`benchmark/`)
/// constructs both variants. The follow-up is a change to that harness
/// (ROADMAP item 6(b)): it stops constructing the type, retires the
/// `runtime.engine.oracle_req_per_s`, `par2_req_per_s` and
/// `handoff_us_per_req` metrics that time it, and deletes the type and
/// the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// The default.
    #[default]
    Deterministic,
    /// Identical to `Deterministic`.
    Parallel {
        /// Ignored.
        threads: usize,
    },
}

/// Per-serve-run configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Routing policy.
    pub policy: Policy,
    /// Optimization level for compiled modules.
    pub opt: OptLevel,
    /// Maximum same-module requests (adjacent in their group's arrival
    /// order) coalesced into one batch (1 disables batching).
    pub max_batch: usize,
    /// The load-slack horizon in estimated outstanding cycles: how far a
    /// worker's queue may run ahead of its group's best candidate before
    /// policy scoring prefers balance over resident-state overlap.
    /// Defaults to [`LOAD_SLACK_CYCLES`] (256, the PR 2 sweep's choice).
    /// It is also the batch cutoff: a batch stops coalescing once the
    /// target worker's estimated outstanding cycles reach it.
    pub load_slack: u64,
    /// Online cost refinement: feed each retired dispatch's measured
    /// cycles into a per-`(module, warmth bucket)` EWMA and let it sharpen
    /// the scheduler's queue estimates. `false` pins the estimates to the
    /// static build-time anchors (the ablation the prediction-error
    /// metrics compare against).
    pub refine_cost: bool,
    /// Path of a persistent warm-start store (`accfg-store` log file;
    /// created if absent). When set, the serve restores the compiled
    /// modules its stream resolves and their learned EWMA cost rows —
    /// per key, so the cost follows the working set, not the store — and
    /// flushes what it built or changed back on finish, reporting
    /// provenance in [`WarmStartStats`]. `None` (the default) serves
    /// fully cold and keeps the run byte-identical to the pre-store
    /// behaviour.
    ///
    /// [`WarmStartStats`]: crate::metrics::WarmStartStats
    pub store: Option<PathBuf>,
    /// Inert: read by nothing, every value runs the one serve loop. Kept
    /// only because the repository benchmark (`benchmark/`) still sets it.
    pub mode: ServeMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            policy: Policy::ConfigAffinity,
            opt: OptLevel::All,
            max_batch: 1,
            load_slack: LOAD_SLACK_CYCLES,
            refine_cost: true,
            store: None,
            mode: ServeMode::Deterministic,
        }
    }
}

/// The per-dispatch cycle predictions recorded at commit time, kept so
/// observed-vs-predicted error can be examined request by request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionSample {
    /// Cycles the static build-time anchors predicted.
    pub anchor: u64,
    /// Cycles the scheduler charged (the EWMA estimate once the warmth
    /// bucket has observations; the anchor prediction before, or always
    /// when refinement is off).
    pub ewma: u64,
    /// Cycles the dispatch actually took (0 if its simulation failed).
    pub observed: u64,
}

/// The outcome of one serve run.
#[derive(Debug)]
pub struct ServeReport {
    /// Aggregate metrics.
    pub metrics: ServeMetrics,
    /// Per-request completions, in stream order.
    pub completions: Vec<Completion>,
    /// Arrival-to-completion latency per request, in stream order.
    pub latencies: Vec<u64>,
    /// Per-request cycle predictions vs. observations, in stream order.
    pub predictions: Vec<PredictionSample>,
}

/// A pooled serving runtime with a persistent module cache.
#[derive(Debug)]
pub struct Runtime {
    pool: PoolConfig,
    cache: ModuleCache,
}

impl Runtime {
    /// Creates a runtime over `pool`.
    pub fn new(pool: PoolConfig) -> Self {
        Self {
            pool,
            cache: ModuleCache::new(),
        }
    }

    /// The module cache's lifetime statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Serves `stream` under `cfg` and returns the report.
    ///
    /// Requests are dispatched in arrival order (ties broken by id). Each
    /// serve run starts from fresh (blank-state) workers; the module cache
    /// persists across runs.
    ///
    /// # Errors
    /// Fails on an empty pool, a request for an unknown accelerator, or a
    /// module compilation failure, or when the warm-start store cannot
    /// be opened, read or written. Once the serve loop starts, every
    /// request is served: per-request simulator or functional failures
    /// are reported in the metrics and completions.
    pub fn serve(
        &mut self,
        stream: &[TrafficRequest],
        cfg: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        let pool = self.pool.flatten()?;
        let cache_before = self.cache.stats;
        // warm start: open the persistent store (if configured). Nothing
        // is read from it yet — modules come back one key at a time as
        // the stream resolves them, cost rows once the working set is
        // known (see `WarmStart`).
        let mut warm_start = cfg.store.as_deref().map(WarmStart::open).transpose()?;
        let (resolved, cost_seed) = self.resolve(stream, &pool, cfg, warm_start.as_mut())?;
        let workers = self.pool.workers(&pool, &resolved);

        // The serve loop proper: scheduling interleaved with execution
        // (see `crate::engine`), run to the end of the stream.
        let mut engine_out = engine::run(stream, &pool, &resolved, cost_seed, cfg, workers);

        // flush-on-finish: persist what this serve built or changed,
        // EWMA rows learned over the whole stream included
        let cost_records = std::mem::take(&mut engine_out.cost_records);
        let warm_start = warm_start
            .map(|warm| warm.flush(&self.cache, cost_records))
            .transpose()?;
        let cache = CacheStats {
            hits: self.cache.stats.hits - cache_before.hits,
            misses: self.cache.stats.misses - cache_before.misses,
        };
        Ok(summarise(
            stream,
            cfg.policy,
            &resolved.order,
            &pool.worker_descs,
            engine_out,
            cache,
            warm_start,
        ))
    }

    /// Resolves every request's pool group and compiled module in
    /// dispatch order, numbering the serve's distinct modules by first
    /// use. A module is named by its group's base platform and the spec,
    /// so groups sharing a base name share its id; a serve-local ordered
    /// table finds a repeat, and only a module's first request probes the
    /// cache — through the cache, on a miss through the store, and only
    /// then by compiling, so a module this runtime already holds wins
    /// over a stored one; a restored module comes back from the probe
    /// that installed it. Then it decodes the working set's persisted
    /// cost rows into a refiner, which it returns beside the resolved
    /// stream: the serve loop's scheduler adopts it.
    fn resolve(
        &mut self,
        stream: &[TrafficRequest],
        pool: &PoolShape,
        cfg: &ServeConfig,
        mut warm_start: Option<&mut WarmStart>,
    ) -> Result<(Resolved, CostRefiner), ServeError> {
        // dispatch order: by arrival, ties by id then slot
        let mut order: Vec<usize> = (0..stream.len()).collect();
        order.sort_by_key(|&i| (stream[i].arrival, stream[i].id, i));

        let groups = &self.pool.groups;
        // a group's base name, as the index of the first group with it
        let base_of: Vec<usize> = groups
            .iter()
            .map(|g| {
                let name = &g.members[0].name;
                let first = groups.iter().position(|h| h.members[0].name == *name);
                first.expect("a group finds itself")
            })
            .collect();
        let mut numbered: BTreeMap<(usize, MatmulSpec), usize> = BTreeMap::new();
        let mut modules: Vec<Arc<CompiledModule>> = Vec::new();
        // per module id, its base (as `base_of` names it)
        let mut module_base: Vec<usize> = Vec::new();
        let mut ids = vec![0usize; stream.len()];
        let mut group_idx = vec![0usize; stream.len()];
        for &i in &order {
            let request = &stream[i];
            let g = groups
                .iter()
                .position(|g| g.family == request.accelerator)
                .ok_or_else(|| ServeError::UnknownAccelerator(request.accelerator.clone()))?;
            ids[i] = match numbered.entry((base_of[g], request.spec)) {
                // cached since its first request: the hit a probe would
                // have counted
                Entry::Occupied(id) => {
                    self.cache.stats.hits += 1;
                    *id.get()
                }
                Entry::Vacant(slot) => {
                    let base = &groups[g].members[0];
                    let restored = match warm_start.as_deref_mut() {
                        Some(warm) => {
                            warm.restore_module(&mut self.cache, base, request.spec, cfg.opt)?
                        }
                        None => None,
                    };
                    modules.push(match restored {
                        Some(module) => module,
                        None => self.cache.get_or_build(base, request.spec, cfg.opt)?,
                    });
                    module_base.push(base_of[g]);
                    *slot.insert(modules.len() - 1)
                }
            };
            group_idx[i] = g;
        }

        // the refiner seeded with the persisted cost rows of the working
        // set: each module's rows on the platforms that can run it — the
        // members of the groups sharing its base, listed once per base
        // (with refinement off nothing would be seeded, so nothing is
        // read), each platform named by the index the serve's scheduler
        // gives it
        let cost_seed = match warm_start {
            Some(warm) if cfg.refine_cost => {
                let names = pool.worker_descs.iter().map(|desc| desc.name.as_str());
                let (platforms, worker_platform) = number_platforms(names);
                let mut runs_on: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
                for (&g, &platform) in pool.worker_group.iter().zip(&worker_platform) {
                    let on = &mut runs_on[base_of[g]];
                    if !on.contains(&platform) {
                        on.push(platform);
                    }
                }
                let modules_on = module_base.iter().map(|&base| &runs_on[base][..]);
                let modules = modules.iter().map(|module| &**module);
                warm.cost_rows(&platforms, modules.zip(modules_on))?
            }
            _ => CostRefiner::new(),
        };
        let resolved = Resolved {
            order,
            ids,
            modules,
            group_idx,
        };
        Ok((resolved, cost_seed))
    }
}

impl PoolConfig {
    /// Validates the pool and flattens it into the shape the scheduler
    /// and the loop index: one routing group per family, workers running
    /// their own (possibly variant) platform descriptors.
    fn flatten(&self) -> Result<PoolShape, ServeError> {
        if self.groups.is_empty() || self.groups.iter().any(|g| g.members.is_empty()) {
            return Err(ServeError::EmptyPool);
        }
        for group in &self.groups {
            // heterogeneous groups must agree on the configuration
            // interface: every member replays plans compiled for the base
            let base = &group.members[0];
            for member in &group.members[1..] {
                if !base.plan_compatible(member) {
                    return Err(ServeError::IncompatiblePool {
                        family: group.family.clone(),
                        member: member.name.clone(),
                    });
                }
            }
        }
        // a power cap must actually bound something: 0 forbids boosting
        // outright and a cap beyond the group's size caps nothing — both
        // are configuration bugs, rejected instead of silently clamped
        for group in &self.groups {
            if let Some(cap) = group.power_cap {
                if cap == 0 || cap > group.members.len() {
                    return Err(ServeError::InvalidPowerCap {
                        family: group.family.clone(),
                        cap,
                        workers: group.members.len(),
                    });
                }
            }
        }
        // a descriptor name must identify exactly one provisioning: the
        // scheduler keys platform cost anchors and refinement state by
        // name, so a same-name-but-different variant would silently share
        // another platform's estimates
        let worker_descs: Vec<AcceleratorDescriptor> = self
            .groups
            .iter()
            .flat_map(|g| g.members.iter().cloned())
            .collect();
        for (i, a) in worker_descs.iter().enumerate() {
            if worker_descs[..i].iter().any(|b| a.name == b.name && a != b) {
                return Err(ServeError::AmbiguousVariantName {
                    name: a.name.clone(),
                });
            }
        }
        let (mut groups, mut worker_group) = (Vec::new(), Vec::new());
        for (g, group) in self.groups.iter().enumerate() {
            let first = worker_group.len();
            worker_group.resize(first + group.members.len(), g);
            groups.push((first..worker_group.len()).collect());
        }
        Ok(PoolShape {
            worker_descs,
            groups,
            worker_group,
            power_caps: self.groups.iter().map(|g| g.power_cap).collect(),
        })
    }

    /// Builds one fresh worker per pool slot, each with the memory its
    /// group's resolved modules need — the furthest `layout.end` among
    /// them — or [`PoolConfig::mem_bytes`] if that is less: the cap still
    /// fails the request that does not fit, and a serve no longer zeroes
    /// (and faults in) the whole cap per worker for shapes a fraction of
    /// its size. A group the stream never addresses gets empty memories.
    fn workers(&self, pool: &PoolShape, resolved: &Resolved) -> Vec<Worker> {
        let mut need = vec![0usize; pool.groups.len()];
        for (&id, &g) in resolved.ids.iter().zip(&resolved.group_idx) {
            // a (stored) layout ending below zero needs nothing it can get
            let end = usize::try_from(resolved.modules[id].layout.end).unwrap_or(0);
            need[g] = need[g].max(end);
        }
        pool.worker_descs
            .iter()
            .zip(&pool.worker_group)
            .enumerate()
            .map(|(index, (desc, &g))| {
                Worker::new(index, desc.clone(), self.mem_bytes.min(need[g]), self.fuel)
            })
            .collect()
    }
}

/// Folds the engine's per-slot completions into the report beside the
/// predictions and their errors, which the loop wrote at commit; `cache`
/// and `warm_start` are this serve's cache delta and store provenance,
/// passed through.
fn summarise(
    stream: &[TrafficRequest],
    policy: Policy,
    order: &[usize],
    worker_descs: &[AcceleratorDescriptor],
    engine_out: EngineOutput,
    cache: CacheStats,
    warm_start: Option<WarmStartStats>,
) -> ServeReport {
    let EngineOutput {
        completions,
        predictions,
        prediction,
        freq_prediction,
        batched_requests,
        ..
    } = engine_out;

    let latencies: Vec<u64> = completions
        .iter()
        .zip(stream)
        .map(|(completion, request)| completion.finish - request.arrival)
        .collect();

    // per-worker totals, and the queue depth each request observed at its
    // arrival: how many earlier dispatches on its worker were still
    // pending. Per worker, finishes are monotone and arrivals
    // nondecreasing in dispatch order, so popping the front drains
    // exactly the completed work.
    let mut worker_metrics: Vec<WorkerMetrics> = worker_descs
        .iter()
        .enumerate()
        .map(|(index, desc)| WorkerMetrics {
            index,
            accelerator: desc.name.clone(),
            requests: 0,
            busy_cycles: 0,
            finish: 0,
        })
        .collect();
    let mut pending: Vec<VecDeque<u64>> = vec![VecDeque::new(); worker_descs.len()];
    let mut queue_depth = DepthHistogram::new();
    for &i in order {
        let completion = &completions[i];
        let w = completion.worker;
        let worker = &mut worker_metrics[w];
        worker.requests += 1;
        worker.busy_cycles += completion.counters.cycles;
        worker.finish = completion.finish;
        while pending[w].front().is_some_and(|&f| f <= stream[i].arrival) {
            pending[w].pop_front();
        }
        queue_depth.record(pending[w].len() as u64);
        pending[w].push_back(completion.finish);
    }

    // per-class latency distributions (the SLO view), grouped by
    // accelerator + shape, each label formatted once, in sorted label
    // order (a label spells its group exactly: the shape has no `/`)
    type Class<'a> = (&'a str, i64, i64, i64);
    let mut class_latencies: BTreeMap<Class, (&MatmulSpec, Vec<u64>)> = BTreeMap::new();
    for (request, &latency) in stream.iter().zip(&latencies) {
        let spec = &request.spec;
        class_latencies
            .entry((&request.accelerator, spec.m, spec.n, spec.k))
            .or_insert_with(|| (spec, Vec::new()))
            .1
            .push(latency);
    }
    let mut per_class: Vec<ClassLatency> = class_latencies
        .into_iter()
        .map(|((accelerator, ..), (spec, lat))| ClassLatency {
            class: class_label(accelerator, spec),
            requests: lat.len() as u64,
            latency: LatencyStats::from_latencies(&lat),
        })
        .collect();
    per_class.sort_unstable_by(|a, b| a.class.cmp(&b.class));

    let metrics = ServeMetrics {
        policy: policy.label().to_string(),
        requests: stream.len() as u64,
        check_failures: completions
            .iter()
            .filter(|c| c.check_error.is_some())
            .count() as u64,
        sim_failures: completions.iter().filter(|c| c.sim_error.is_some()).count() as u64,
        setup_writes: completions.iter().map(|c| c.emitted_writes).sum(),
        cold_setup_writes: completions.iter().map(|c| c.cold_writes).sum(),
        config_bytes: completions.iter().map(|c| c.counters.config_bytes).sum(),
        launches: completions.iter().map(|c| c.counters.launches).sum(),
        sim_cycles: completions.iter().map(|c| c.counters.cycles).sum(),
        contention_cycles: completions
            .iter()
            .map(|c| c.counters.contention_cycles)
            .sum(),
        freq_launches: completions.iter().fold([0u64; 3], |mut acc, c| {
            for (slot, n) in acc.iter_mut().zip(c.counters.freq_launches) {
                *slot += n;
            }
            acc
        }),
        makespan: worker_metrics.iter().map(|w| w.finish).max().unwrap_or(0),
        latency: LatencyStats::from_latencies(&latencies),
        per_class,
        queue_depth,
        prediction,
        freq_prediction,
        cache,
        warm_start,
        batched_requests,
        workers: worker_metrics,
    };
    ServeReport {
        metrics,
        completions,
        latencies,
        predictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            mean_gap: 50,
            seed,
        }
        .open_loop_stream()
        .unwrap()
    }

    #[test]
    fn serves_a_mixed_stream_functionally() {
        let mut rt = Runtime::new(pool());
        let stream = stream(200, 1);
        let report = rt.serve(&stream, &ServeConfig::default()).unwrap();
        assert_eq!(report.metrics.requests, 200);
        assert_eq!(report.metrics.check_failures, 0);
        assert_eq!(report.metrics.sim_failures, 0);
        assert!(report.metrics.launches >= 200);
        // six shapes → six compiled modules, everything else cache hits
        assert_eq!(report.metrics.cache.misses, 6);
        assert_eq!(report.metrics.cache.hits, 194);
        // completions come back in stream order, each stamped by the
        // timing rule: started once its request arrived, finished its
        // measured cycles later, and that is its latency
        for ((c, request), &latency) in report
            .completions
            .iter()
            .zip(&stream)
            .zip(&report.latencies)
        {
            assert!(c.start >= request.arrival);
            assert_eq!(c.finish, c.start + c.counters.cycles);
            assert_eq!(latency, c.finish - request.arrival);
        }
    }

    #[test]
    fn affinity_writes_less_than_fifo() {
        let stream = stream(400, 2);
        let mut rt = Runtime::new(pool());
        let serve = |rt: &mut Runtime, policy| {
            rt.serve(
                &stream,
                &ServeConfig {
                    policy,
                    ..ServeConfig::default()
                },
            )
            .unwrap()
        };
        let fifo = serve(&mut rt, Policy::Fifo);
        let fifo_elide = serve(&mut rt, Policy::FifoElide);
        let affinity = serve(&mut rt, Policy::ConfigAffinity);
        // the cold baseline pays every dispatch's full configuration
        assert_eq!(fifo.metrics.setup_writes, fifo.metrics.cold_setup_writes);
        // state tracking alone already cuts writes; affinity routing on
        // top of it never exceeds the cold baseline by construction
        assert!(fifo_elide.metrics.setup_writes < fifo.metrics.setup_writes);
        assert!(
            affinity.metrics.setup_writes < fifo.metrics.setup_writes,
            "affinity {} !< fifo {}",
            affinity.metrics.setup_writes,
            fifo.metrics.setup_writes
        );
        assert!(affinity.metrics.write_savings_vs(&fifo.metrics) > 0.30);
    }

    #[test]
    fn serving_is_deterministic() {
        let stream = stream(150, 3);
        let run = || {
            let mut rt = Runtime::new(pool());
            rt.serve(&stream, &ServeConfig::default()).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.latencies, b.latencies);
    }

    #[test]
    fn batching_coalesces_adjacent_same_shape_requests() {
        let stream = stream(300, 4);
        let mut rt = Runtime::new(pool());
        let unbatched = rt.serve(&stream, &ServeConfig::default()).unwrap();
        assert_eq!(unbatched.metrics.batched_requests, 0);
        let batched = rt
            .serve(
                &stream,
                &ServeConfig {
                    max_batch: 8,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
        assert!(batched.metrics.batched_requests > 0);
        assert_eq!(batched.metrics.check_failures, 0);
        // batching changes placement only at load-slack boundaries, so its
        // write cost stays within a few percent of the unbatched run (and
        // always within the cold bound)
        let tolerance = unbatched.metrics.setup_writes / 20;
        assert!(
            batched.metrics.setup_writes <= unbatched.metrics.setup_writes + tolerance,
            "batched {} far exceeds unbatched {}",
            batched.metrics.setup_writes,
            unbatched.metrics.setup_writes
        );
        assert!(batched.metrics.setup_writes <= batched.metrics.cold_setup_writes);
    }

    fn hetero_pool() -> PoolConfig {
        PoolConfig::new(vec![
            AcceleratorDescriptor::gemmini(),
            AcceleratorDescriptor::opengemm(),
        ])
        .with_variant("gemmini", AcceleratorDescriptor::gemmini_turbo())
        .with_variant("opengemm", AcceleratorDescriptor::opengemm_lite())
    }

    #[test]
    fn heterogeneous_pool_serves_functionally_under_every_policy() {
        let stream = stream(200, 9);
        let mut rt = Runtime::new(hetero_pool());
        for policy in Policy::ALL {
            let report = rt
                .serve(
                    &stream,
                    &ServeConfig {
                        policy,
                        ..ServeConfig::default()
                    },
                )
                .unwrap();
            assert_eq!(report.metrics.requests, 200, "{}", policy.label());
            assert_eq!(report.metrics.check_failures, 0, "{}", policy.label());
            assert_eq!(report.metrics.sim_failures, 0, "{}", policy.label());
        }
        // the variant workers are visible in the per-worker metrics
        let report = rt.serve(&stream, &ServeConfig::default()).unwrap();
        let accels: Vec<&str> = report
            .metrics
            .workers
            .iter()
            .map(|w| w.accelerator.as_str())
            .collect();
        assert_eq!(
            accels,
            vec!["gemmini", "gemmini-turbo", "opengemm", "opengemm-lite"]
        );
    }

    #[test]
    fn heterogeneous_serving_is_deterministic() {
        let stream = stream(150, 10);
        let run = |policy| {
            let mut rt = Runtime::new(hetero_pool());
            rt.serve(
                &stream,
                &ServeConfig {
                    policy,
                    ..ServeConfig::default()
                },
            )
            .unwrap()
        };
        for policy in [Policy::ConfigAffinity, Policy::Cost] {
            let a = run(policy);
            let b = run(policy);
            assert_eq!(a.metrics, b.metrics, "{}", policy.label());
            assert_eq!(a.latencies, b.latencies);
            assert_eq!(a.predictions, b.predictions);
        }
    }

    #[test]
    fn incompatible_group_members_are_rejected() {
        // an opengemm-style member in the gemmini group cannot replay the
        // family's RoCC plans
        let pool = PoolConfig::new(vec![AcceleratorDescriptor::gemmini()])
            .with_variant("gemmini", AcceleratorDescriptor::opengemm());
        let mut rt = Runtime::new(pool);
        let stream = stream(1, 11);
        assert!(matches!(
            rt.serve(&stream, &ServeConfig::default()),
            Err(ServeError::IncompatiblePool { family, member })
                if family == "gemmini" && member == "opengemm"
        ));
    }

    #[test]
    fn same_name_different_provisioning_is_rejected() {
        // the scheduler keys platform state by descriptor name, so a
        // variant that keeps the base's name would silently share its
        // cost anchors and refinement state — reject it up front
        let mut doctored = AcceleratorDescriptor::gemmini();
        doctored.accel.macs_per_cycle *= 4;
        let pool = PoolConfig::new(vec![AcceleratorDescriptor::gemmini()])
            .with_variant("gemmini", doctored);
        let mut rt = Runtime::new(pool);
        let stream = stream(1, 13);
        assert!(matches!(
            rt.serve(&stream, &ServeConfig::default()),
            Err(ServeError::AmbiguousVariantName { name }) if name == "gemmini"
        ));
    }

    #[test]
    fn repeated_variants_accumulate_instead_of_replacing_each_other() {
        // a second with_variant call must install a further variant, not
        // silently discard the first
        let turbo = AcceleratorDescriptor::gemmini_turbo();
        let mut second = AcceleratorDescriptor::gemmini_turbo();
        second.name = "gemmini-turbo2".into();
        let pool = PoolConfig::new(vec![AcceleratorDescriptor::gemmini()])
            .with_workers_per_accelerator(3)
            .with_variant("gemmini", turbo.clone())
            .with_variant("gemmini", second.clone());
        let names: Vec<&str> = pool.groups[0]
            .members
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, vec!["gemmini", "gemmini-turbo2", "gemmini-turbo"]);
        assert_eq!(pool.worker_count(), 3);
    }

    #[test]
    #[should_panic(expected = "no base-platform worker left to replace")]
    fn exhausting_the_base_workers_is_rejected() {
        // a 2-worker group holds the compile target plus one variant; a
        // second variant has no base-platform worker left to displace
        let mut second = AcceleratorDescriptor::gemmini_turbo();
        second.name = "gemmini-turbo2".into();
        let _ = PoolConfig::new(vec![AcceleratorDescriptor::gemmini()])
            .with_variant("gemmini", AcceleratorDescriptor::gemmini_turbo())
            .with_variant("gemmini", second);
    }

    #[test]
    #[should_panic(expected = "already has platform variants")]
    fn resizing_a_heterogeneous_group_is_rejected() {
        // resizing rebuilds a group from its base platform, which would
        // silently drop a variant added earlier
        let _ = PoolConfig::new(vec![AcceleratorDescriptor::gemmini()])
            .with_variant("gemmini", AcceleratorDescriptor::gemmini_turbo())
            .with_workers_per_accelerator(4);
    }

    #[test]
    fn out_of_range_power_caps_are_rejected() {
        let stream = stream(1, 14);
        // cap 0 forbids boosting outright
        let mut rt = Runtime::new(pool().with_power_cap("gemmini", 0));
        assert!(matches!(
            rt.serve(&stream, &ServeConfig::default()),
            Err(ServeError::InvalidPowerCap { family, cap, workers })
                if family == "gemmini" && cap == 0 && workers == 2
        ));
        // a cap beyond the group's worker count caps nothing
        let mut rt = Runtime::new(pool().with_power_cap("opengemm", 3));
        assert!(matches!(
            rt.serve(&stream, &ServeConfig::default()),
            Err(ServeError::InvalidPowerCap { family, cap, workers })
                if family == "opengemm" && cap == 3 && workers == 2
        ));
        // an in-range cap serves normally
        let mut rt = Runtime::new(pool().with_power_cap("gemmini", 1));
        let report = rt.serve(&stream, &ServeConfig::default()).unwrap();
        assert_eq!(report.metrics.requests, 1);
    }

    #[test]
    fn unknown_accelerator_is_reported() {
        let mut rt = Runtime::new(pool());
        let mut stream = stream(1, 5);
        stream[0].accelerator = "tpu".into();
        assert!(matches!(
            rt.serve(&stream, &ServeConfig::default()),
            Err(ServeError::UnknownAccelerator(name)) if name == "tpu"
        ));
    }

    #[test]
    fn empty_pool_is_rejected() {
        let mut rt = Runtime::new(PoolConfig::new(vec![]));
        assert!(matches!(
            rt.serve(&[], &ServeConfig::default()),
            Err(ServeError::EmptyPool)
        ));
        let mut no_workers = Runtime::new(PoolConfig::new(vec![AcceleratorDescriptor::gemmini()]));
        no_workers.pool.groups[0].members.clear();
        assert!(matches!(
            no_workers.serve(&[], &ServeConfig::default()),
            Err(ServeError::EmptyPool)
        ));
    }

    /// The memory each worker of `pool` would be built with for `stream`.
    fn worker_memories(pool: PoolConfig, stream: &[TrafficRequest]) -> Vec<usize> {
        let mut rt = Runtime::new(pool);
        let shape = rt.pool.flatten().unwrap();
        let (resolved, _) = rt
            .resolve(stream, &shape, &ServeConfig::default(), None)
            .unwrap();
        let workers = rt.pool.workers(&shape, &resolved);
        workers.iter().map(Worker::mem_bytes).collect()
    }

    #[test]
    fn a_serve_without_a_store_takes_no_cost_snapshot() {
        // the cost records are the store flush's input alone: a
        // store-less serve would encode a key and a row per refiner row
        // for nothing. The loop never opens the store, so any path stands
        // in
        let stream = stream(200, 3);
        let mut rt = Runtime::new(pool());
        let shape = rt.pool.flatten().unwrap();
        let flushed_records = |rt: &mut Runtime, store: Option<PathBuf>| {
            let cfg = ServeConfig {
                store,
                ..ServeConfig::default()
            };
            let (resolved, cost_seed) = rt.resolve(&stream, &shape, &cfg, None).unwrap();
            let workers = rt.pool.workers(&shape, &resolved);
            engine::run(&stream, &shape, &resolved, cost_seed, &cfg, workers)
                .cost_records
                .len()
        };
        assert_eq!(flushed_records(&mut rt, None), 0);
        // nothing was seeded, so every learned row is a change: one per
        // module, on the platform that ran it
        let rows = flushed_records(&mut rt, Some(PathBuf::from("never-opened.store")));
        assert_eq!(rows, 6);
    }

    #[test]
    fn worker_memory_follows_the_serve_not_the_cap() {
        let stream = stream(150, 16);
        let capped = |mem_bytes| PoolConfig {
            mem_bytes,
            ..pool()
        };
        // the mixed shapes end at 0x7000 (gemmini 64-cubed) and 0x4000
        // (every opengemm one): that is what the workers get, whether the
        // cap is the default 2 MiB or a gibibyte nobody has to zero
        let need = vec![0x7000, 0x7000, 0x4000, 0x4000];
        assert_eq!(worker_memories(capped(1 << 21), &stream), need);
        assert_eq!(worker_memories(capped(1 << 30), &stream), need);
        let serve = |mem_bytes| {
            Runtime::new(capped(mem_bytes))
                .serve(&stream, &ServeConfig::default())
                .unwrap()
        };
        let (small, large) = (serve(1 << 21), serve(1 << 30));
        assert_eq!(small.metrics, large.metrics);
        assert_eq!(small.latencies, large.latencies);
        assert_eq!(small.predictions, large.predictions);
        assert_eq!(small.metrics.sim_failures + small.metrics.check_failures, 0);
        // a group the stream never addresses is given nothing
        let gemmini_only: Vec<TrafficRequest> = stream
            .iter()
            .filter(|r| r.accelerator == "gemmini" && r.spec.m < 64)
            .cloned()
            .collect();
        assert_eq!(
            worker_memories(capped(1 << 21), &gemmini_only),
            vec![0x4000, 0x4000, 0, 0]
        );
    }

    #[test]
    fn a_shape_past_the_memory_cap_fails_its_fill_and_nothing_else() {
        // gemmini 128-cubed lays B at 0x5000 and ends at 0x19000; the other
        // two shapes end at 0x4000. Under a 0x5000-byte cap the workers are
        // built at the cap — need is above it — and the big shape fails
        // exactly as it did when every worker was `mem_bytes` long
        let request = |id: u64, accelerator: &str, spec| TrafficRequest {
            id,
            accelerator: accelerator.into(),
            spec,
            arrival: 40 * id,
            seed: id,
        };
        let big = accfg_workloads::MatmulSpec::gemmini_paper(128).unwrap();
        let stream: Vec<TrafficRequest> = (0..30)
            .map(|id| match id % 3 {
                0 => request(
                    id,
                    "gemmini",
                    accfg_workloads::MatmulSpec::gemmini_paper(16).unwrap(),
                ),
                1 => request(id, "gemmini", big),
                _ => request(
                    id,
                    "opengemm",
                    accfg_workloads::MatmulSpec::opengemm_paper(16).unwrap(),
                ),
            })
            .collect();
        let pool = PoolConfig {
            mem_bytes: 0x5000,
            ..pool()
        };
        assert_eq!(
            worker_memories(pool.clone(), &stream),
            vec![0x5000, 0x5000, 0x4000, 0x4000]
        );
        let report = Runtime::new(pool)
            .serve(&stream, &ServeConfig::default())
            .unwrap();
        assert_eq!(report.metrics.requests, 30);
        assert_eq!(report.metrics.sim_failures, 10);
        assert_eq!(report.metrics.check_failures, 0);
        for (request, completion) in stream.iter().zip(&report.completions) {
            if request.spec == big {
                assert_eq!(
                    completion.sim_error.as_deref(),
                    Some(
                        "input fill failed: memory access of 16384 bytes at 0x5000 \
                         exceeds capacity 0x5000"
                    )
                );
            } else {
                assert!(completion.sim_error.is_none(), "{:?}", completion.sim_error);
                assert!(completion.counters.launches > 0);
            }
        }
    }

    #[test]
    fn an_empty_stream_builds_empty_workers_and_still_validates_the_pool() {
        let mut rt = Runtime::new(pool());
        let report = rt.serve(&[], &ServeConfig::default()).unwrap();
        assert_eq!(report.metrics.requests, 0);
        assert_eq!(report.metrics.workers.len(), 4);
        assert_eq!(worker_memories(pool(), &[]), vec![0; 4]);

        // validation runs before anything is resolved, in the order it
        // always has: an incompatible member, then a power cap out of
        // range, then an ambiguous variant name — shown on a pool with all
        // three faults, repaired one at a time, under a stream whose only
        // request could not be resolved at all
        let mut unresolvable = stream(1, 17);
        unresolvable[0].accelerator = "tpu".into();
        let mut doctored = AcceleratorDescriptor::gemmini();
        doctored.accel.macs_per_cycle *= 4;
        let mut pool = pool().with_power_cap("gemmini", 3);
        pool.groups[0].members[1] = doctored;
        pool.groups[1].members[1] = AcceleratorDescriptor::gemmini();
        for stream in [&[][..], &unresolvable[..]] {
            let mut pool = pool.clone();
            let serve = |pool: &PoolConfig| {
                let mut rt = Runtime::new(pool.clone());
                let err = rt.serve(stream, &ServeConfig::default()).unwrap_err();
                assert_eq!(rt.cache_stats(), CacheStats::default());
                err
            };
            assert!(matches!(
                serve(&pool),
                ServeError::IncompatiblePool { family, member }
                    if family == "opengemm" && member == "gemmini"
            ));
            pool.groups[1].members[1] = AcceleratorDescriptor::opengemm();
            assert!(matches!(
                serve(&pool),
                ServeError::InvalidPowerCap {
                    cap: 3,
                    workers: 2,
                    ..
                }
            ));
            pool.groups[0].power_cap = None;
            assert!(matches!(
                serve(&pool),
                ServeError::AmbiguousVariantName { name } if name == "gemmini"
            ));
        }
    }

    #[test]
    fn a_launch_command_past_the_register_file_fails_dispatches_not_the_serve() {
        // a custom descriptor can put its RoCC launch command anywhere;
        // past the simulator's register file every dispatch is a counted
        // simulator fault — the machine used to index out of bounds
        let mut desc = AcceleratorDescriptor::gemmini();
        desc.style = accfg_targets::ConfigStyle::RoccPairs { launch_funct: 14 };
        desc.accel.rocc_launch_funct = Some(14);
        let stream: Vec<TrafficRequest> = stream(60, 18)
            .into_iter()
            .filter(|request| request.accelerator == "gemmini")
            .collect();
        assert!(stream.len() > 10);
        for policy in Policy::ALL {
            let report = Runtime::new(PoolConfig::new(vec![desc.clone()]))
                .serve(
                    &stream,
                    &ServeConfig {
                        policy,
                        ..ServeConfig::default()
                    },
                )
                .unwrap();
            assert_eq!(report.metrics.sim_failures, stream.len() as u64);
            assert_eq!(report.metrics.check_failures, 0);
            for completion in &report.completions {
                assert_eq!(
                    completion.sim_error.as_deref(),
                    Some("configuration register 29 is past the 28-register file")
                );
            }
        }
    }

    #[test]
    fn every_serve_mode_runs_the_one_loop() {
        // `benchmark/` sets the inert `mode` (and compares the reports
        // request by request): every value, `threads` included, must
        // serve the same report in every field
        let stream = stream(120, 19);
        let report = |mode| {
            let cfg = ServeConfig {
                mode,
                ..ServeConfig::default()
            };
            format!("{:?}", Runtime::new(pool()).serve(&stream, &cfg).unwrap())
        };
        let reference = report(ServeMode::Deterministic);
        for threads in [0, 1, 2] {
            assert_eq!(
                report(ServeMode::Parallel { threads }),
                reference,
                "{threads}"
            );
        }
    }

    #[test]
    fn batching_also_amortizes_round_robin_routing() {
        // batching helps even round-robin routing (with state tracking):
        // coalesced same-shape requests land on one worker instead of
        // being scattered
        let stream = stream(300, 6);
        let mut rt = Runtime::new(pool());
        let plain = rt
            .serve(
                &stream,
                &ServeConfig {
                    policy: Policy::FifoElide,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
        let batched = rt
            .serve(
                &stream,
                &ServeConfig {
                    policy: Policy::FifoElide,
                    max_batch: 8,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
        assert!(batched.metrics.setup_writes < plain.metrics.setup_writes);
    }
}
