//! The per-serve [`Scheduler`]: load/residency accounting and the routing
//! walk over it under a [`Policy`].
//!
//! The scheduler mirrors every worker's resident configuration register
//! file (a shadow copy, updated with exactly the deltas the worker will
//! apply) and holds each worker's load as *estimated outstanding cycles*.
//! Routing is one walk ([`Scheduler::choose`]; the scores are
//! [`crate::policy`]'s): round-robin (`fifo`, `fifo+elide`), or every
//! candidate priced once and the earliest within the load-slack horizon
//! taken — on writes alone (`affinity`), on predicted completion over
//! per-platform cost models (`cost`), or on completion at the predicted
//! frequency state (`thermal`).
//! The accounting is policy-agnostic: every policy's commits flow through
//! the same queue and shadow bookkeeping, so batching cutoffs, prediction
//! metrics, and refinement behave identically under all of them. Scoring
//! reads the scheduler by `&`; only [`Scheduler::commit`] and
//! [`Scheduler::observe`] write the accounting.
//!
//! Load is tracked as a queue *depth in cycles*, not a dispatch count:
//! each commit extends the worker's estimated drain time by the module's
//! predicted execution cycles ([`CostModel::predict`] over the writes the
//! dispatch will emit, on the *worker's* platform), and the serve-loop
//! clock — each request's arrival cycle — drains completed work. A
//! same-config batch of `k` requests therefore weighs `k` predicted
//! dispatches, and a heavyweight module weighs more than a light one,
//! which is what keeps sticky routing's tail latency close to round-robin
//! while it still wins on writes.
//!
//! Pools may be *heterogeneous*: workers of one routing group can run
//! differently provisioned platform variants (same configuration
//! interface, different geometry and speed). The scheduler assigns each
//! distinct variant a platform index, re-derives analytic cost anchors
//! per `(module, platform)`, and keys the online refiner by platform, so
//! both queue accounting and the `cost` policy's scores reflect what a
//! dispatch actually costs *on that worker*. It is also the one owner of
//! the index↔name mapping persisted rows cross
//! ([`Scheduler::seed_refiner`], [`Scheduler::cost_snapshot`]); a serve
//! seeds by index, its resolve step numbering the platforms through the
//! scheduler's own rule (`number_platforms`) over the same worker list.
//!
//! Modules are named by dense ids, `0..n` in the order the scheduler
//! first met them, and every per-module table — refiner rows, variant
//! anchors, each module's home platform — is a vector indexed by one. The
//! serve loop numbers a serve's modules once, when it resolves them, and
//! routes by id; no request hashes or clones a key. [`Scheduler::choose`],
//! [`Scheduler::commit`] and [`Scheduler::observe`] take the module
//! itself: a thin adapter that names it through the scheduler's
//! `CacheKey` registry (a sorted table, extended on first sight) and then
//! takes the id path. They are what a caller stepping the scheduler by
//! hand drives — `benchmark/`'s replay among them — and the tests pin
//! them to the serve loop's decisions. A module's own-platform anchors
//! are its build-time `cost`, picked by comparing platform indices;
//! anchors re-estimated for another platform are filled in at the two
//! `&mut` points that need them ([`Scheduler::choose`],
//! [`Scheduler::commit`]), so scoring reads the scheduler by `&` with no
//! interior mutability.
//!
//! Predictions start from analytic anchors and are *refined online*: as
//! the serve loop retires completed dispatches it feeds their measured
//! cycles back through [`Scheduler::observe`], and the
//! per-`(module, platform, warmth bucket)` EWMA held by [`CostRefiner`]
//! takes over from the static interpolation wherever it has data. Every
//! predicted cycle count is one read: the row's quote for the bucket
//! (mode-agnostic, or keyed by a frequency state), else the anchors'.
//! Each observation carries the worker's DVFS frequency state at
//! retirement, so the refiner additionally keeps frequency-keyed rows;
//! the scheduler mirrors every worker's DVFS automaton in shadow
//! (advanced at commit with predicted busy windows, optionally bounded by
//! a per-group boost power cap) so frequency-aware policies can ask what
//! state a candidate would launch in. Because retirement happens at
//! deterministic points of the simulated clock, the refined estimates —
//! and every routing decision made from them — remain a pure function of
//! the request stream.
//!
//! [`CostModel::predict`]: crate::cache::CostModel::predict
//! [`CostRefiner`]: crate::cache::CostRefiner

use crate::cache::{CacheKey, CompiledModule, CostModel, CostRefiner, CostRow};
use crate::persist::{cost_record, CostSnapshotEntry};
use crate::plan::RegMap;
use crate::policy::{self, Policy, Scored};
use accfg_sim::{DvfsParams, DvfsState, FreqState, FREQ_STATES};
use accfg_targets::AcceleratorDescriptor;
use std::cmp::Ordering;

/// The default load-slack horizon: how many estimated outstanding
/// *cycles* a worker's queue may run ahead of its group's best candidate
/// before policy scoring prefers balance over resident-state overlap.
///
/// Pure min-writes routing degenerates: once one worker is warm it scores
/// below a blank worker for *every* shape, so the rest of the group
/// starves and tail latency explodes. Bucketing the cycle gap by this
/// slack keeps dispatches sticky over short horizons (where the write
/// savings are) while bounding the queue a request can land behind. The
/// horizon is *exclusive*: a worker whose gap is exactly at the boundary
/// already falls into the next pressure bucket (pinned by a unit test on
/// both sides of the boundary). Elision — not routing — is what
/// guarantees the eliding policies never write more than the cold FIFO
/// baseline, so this trade-off cannot break that property.
///
/// The horizon is per-run configuration, not a constant: set it with
/// [`ServeConfig::load_slack`] (or [`Scheduler::with_slack`] when
/// driving the scheduler directly). This value (256, chosen by the PR 2
/// sweep: 96–256 near-equivalent, 384+ degrades) is the default
/// everywhere; a search over it and the other serving knobs found no
/// setting that beat it on held-out traffic seeds (ROADMAP item 7).
///
/// [`ServeConfig::load_slack`]: crate::runtime::ServeConfig::load_slack
pub const LOAD_SLACK_CYCLES: u64 = 256;

/// What one [`Scheduler::commit`] predicted for its dispatch — recorded by
/// the serve loop so observed-vs-predicted error can be measured and the
/// retirement path can attribute the observation to the right warmth
/// bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Configuration writes the dispatch is predicted to emit.
    pub writes: u64,
    /// Warmth bucket those writes land in (see [`CostModel::bucket`]).
    ///
    /// [`CostModel::bucket`]: crate::cache::CostModel::bucket
    pub bucket: usize,
    /// Cycles the static anchors predict on the committed worker's
    /// platform.
    pub anchor_cycles: u64,
    /// Cycles the scheduler actually charged the worker's queue: the
    /// refined (EWMA) estimate when refinement is on and the bucket has
    /// been observed, the anchor prediction otherwise.
    pub predicted_cycles: u64,
    /// Frequency-keyed predictions, one per [`FreqState`] in index order:
    /// what the refiner would quote if the dispatch's last launch ran
    /// cold / warm / boost. The retirement path indexes this by the
    /// *observed* frequency state ([`Completion::freq`]) to measure the
    /// keyed estimator's error next to the mode-agnostic
    /// `predicted_cycles`. With refinement off every entry equals
    /// `anchor_cycles`.
    ///
    /// [`Completion::freq`]: crate::worker::Completion::freq
    pub keyed_cycles: [u64; FREQ_STATES],
}

/// `row`'s quote for a dispatch emitting `writes` — mode-agnostic
/// (`mode` = `None`) or keyed by `mode` — else the interpolation of
/// `anchors`: the one rule every predicted cycle count is read by.
fn quote(row: Option<&CostRow>, anchors: &CostModel, writes: u64, mode: Option<FreqState>) -> u64 {
    row.and_then(|row| CostRefiner::quote(row, anchors.bucket(writes), mode))
        .unwrap_or_else(|| anchors.predict(writes))
}

/// A module's home platform when no worker of the pool runs the platform
/// it was compiled for: every platform index differs from it.
const NO_PLATFORM: usize = usize::MAX;

/// The by-module adapter's names: the [`CacheKey`] of every module it has
/// numbered, by id, the ids in [`registry_order`] for the lookup, and the
/// id it named last.
#[derive(Debug, Default)]
struct Registry {
    keys: Vec<CacheKey>,
    by_key: Vec<usize>,
    last: usize,
}

/// The order the registry keeps its keys in: by shape and opt level
/// first, which tell a serve's modules apart, and by platform name last,
/// which most of them share.
fn registry_order(a: &CacheKey, b: &CacheKey) -> Ordering {
    (a.spec, a.opt)
        .cmp(&(b.spec, b.opt))
        .then_with(|| a.accelerator.cmp(&b.accelerator))
}

/// Numbers a pool's platforms as a [`Scheduler`] over its workers does:
/// each distinct name by its first appearance in `workers`. Returns the
/// distinct names in that order and each worker's platform index.
pub(crate) fn number_platforms<'a>(
    workers: impl IntoIterator<Item = &'a str>,
) -> (Vec<&'a str>, Vec<usize>) {
    let mut names: Vec<&str> = Vec::new();
    let worker_platform = workers
        .into_iter()
        .map(|name| match names.iter().position(|&known| known == name) {
            Some(platform) => platform,
            None => {
                names.push(name);
                names.len() - 1
            }
        })
        .collect();
    (names, worker_platform)
}

/// Scheduler state across one serve run: the routing policy and its
/// private routing state, plus the policy-agnostic accounting every
/// policy's commits flow through — shadow resident register files,
/// outstanding-cycle queues, per-platform cost anchors, the online cost
/// refiner, and the shadow DVFS automata.
#[derive(Debug)]
pub struct Scheduler {
    policy: Policy,
    /// Per-group round-robin counters (`fifo`, `fifo+elide`).
    round_robin: Vec<usize>,
    /// The candidates of the decision in progress; kept between decisions
    /// so a warmed scheduler routes without allocating.
    scored: Vec<Scored>,
    shadows: Vec<RegMap>,
    /// Estimated cycle at which each worker's committed queue drains.
    ready: Vec<u64>,
    /// Distinct platform variants in the pool, in order of first
    /// appearance over the worker list.
    variants: Vec<AcceleratorDescriptor>,
    /// Per-worker index into `variants`.
    worker_platform: Vec<usize>,
    /// Per module id, the index into `variants` of the platform the module
    /// was compiled for ([`NO_PLATFORM`] if the pool runs none): where its
    /// build-time anchors apply.
    home: Vec<usize>,
    /// Per platform, per module id: the module's anchors re-estimated over
    /// that platform's descriptor, for platforms other than its home.
    /// Filled by `choose` and `commit` before anything reads them; a
    /// function of `(module, platform)` alone.
    variant_anchors: Vec<Vec<Option<CostModel>>>,
    /// `CacheKey` → id for the by-module calls and the persisted rows.
    registry: Registry,
    /// Whether observations (and persisted rows) enter the refiner; with
    /// it off the refiner stays empty and every quote is the anchors'.
    refine: bool,
    refiner: CostRefiner,
    /// The load-slack horizon policies bucket queue gaps by.
    slack: u64,
    /// Per-platform DVFS table (`None` under the identity timing model).
    dvfs: Vec<Option<DvfsParams>>,
    /// Per-worker shadow DVFS automaton, advanced at commit with the
    /// *predicted* busy window — the scheduler's estimate of the worker's
    /// frequency heat, exactly as the shadow register file estimates its
    /// resident state.
    mirror: Vec<DvfsState>,
    /// The frequency mode each worker's most recent commit was predicted
    /// to launch at (power cap already applied) — what the cap counts as
    /// "holding a boost slot" while that commit is still queued.
    last_mode: Vec<FreqState>,
    /// Per-worker routing-group index (all workers share group 0 unless
    /// configured via [`Scheduler::with_power_caps`]).
    worker_group: Vec<usize>,
    /// Per-group cap on simultaneously boosted workers (`None` = no cap).
    power_cap: Vec<Option<usize>>,
}

impl Scheduler {
    /// A scheduler under `policy` for the given per-worker platform
    /// descriptors across `groups` accelerator groups, with online cost
    /// refinement enabled.
    ///
    /// # Panics
    /// Panics if two descriptors share a name but differ in provisioning:
    /// platform state (cost anchors, refinement buckets) is keyed by
    /// name, so a same-name variant would silently share another
    /// platform's estimates. `Runtime::serve` reports this as
    /// [`ServeError::AmbiguousVariantName`] before constructing a
    /// scheduler; direct users of this API fail loudly here instead.
    ///
    /// [`ServeError::AmbiguousVariantName`]:
    ///     crate::error::ServeError::AmbiguousVariantName
    pub fn new(policy: Policy, workers: &[AcceleratorDescriptor], groups: usize) -> Self {
        let (_, worker_platform) = number_platforms(workers.iter().map(|desc| desc.name.as_str()));
        let mut variants: Vec<AcceleratorDescriptor> = Vec::new();
        for (desc, &platform) in workers.iter().zip(&worker_platform) {
            match variants.get(platform) {
                Some(variant) => assert!(
                    variant == desc,
                    "two differently provisioned worker platforms share the name `{}`; \
                     variants must carry distinct names",
                    desc.name
                ),
                None => variants.push(desc.clone()),
            }
        }
        let dvfs = variants.iter().map(|v| v.timing.dvfs).collect();
        Self {
            policy,
            round_robin: vec![0; groups],
            scored: Vec::new(),
            shadows: vec![RegMap::new(); workers.len()],
            ready: vec![0; workers.len()],
            worker_platform,
            home: Vec::new(),
            variant_anchors: vec![Vec::new(); variants.len()],
            registry: Registry::default(),
            refine: true,
            refiner: CostRefiner::new(),
            slack: LOAD_SLACK_CYCLES,
            dvfs,
            mirror: vec![DvfsState::default(); workers.len()],
            last_mode: vec![FreqState::Cold; workers.len()],
            worker_group: vec![0; workers.len()],
            power_cap: Vec::new(),
            variants,
        }
    }

    /// Enables or disables online cost refinement (on by default). With
    /// refinement off, queue estimates use only the static anchors — the
    /// ablation `serve_bench` quantifies prediction error against.
    #[must_use]
    pub fn with_refinement(mut self, refine: bool) -> Self {
        self.refine = refine;
        self
    }

    /// Sets the load-slack horizon (cycles) policies bucket queue gaps
    /// by; defaults to [`LOAD_SLACK_CYCLES`]. A slack of 0 disables
    /// stickiness entirely (every nonzero gap prefers balance).
    #[must_use]
    pub fn with_slack(mut self, slack: u64) -> Self {
        self.slack = slack;
        self
    }

    /// Installs routing-group membership and per-group boost power caps
    /// (`worker_group[w]` is worker `w`'s group; `caps[g]` is group `g`'s
    /// cap, `None` for uncapped). The cap bounds how many of a group's
    /// workers the *shadow automaton* treats as boosted at once: a
    /// candidate whose mirror would reach [`FreqState::Boost`] while the
    /// group's cap is exhausted is predicted (and charged) at
    /// [`FreqState::Warm`] instead, so frequency-aware scoring steers
    /// load away from over-committing boost. Validation (cap in
    /// `1..=group size`) happens at pool construction.
    ///
    /// # Panics
    /// Panics if `worker_group` does not cover every worker.
    #[must_use]
    pub fn with_power_caps(mut self, worker_group: Vec<usize>, caps: Vec<Option<usize>>) -> Self {
        assert_eq!(worker_group.len(), self.ready.len(), "one group per worker");
        self.worker_group = worker_group;
        self.power_cap = caps;
        self
    }

    /// `true` if dispatches under the active policy skip writes already
    /// resident on the worker.
    pub fn elides(&self) -> bool {
        self.policy.elides()
    }

    /// The platform descriptor `worker` runs.
    pub(crate) fn descriptor(&self, worker: usize) -> &AcceleratorDescriptor {
        &self.variants[self.worker_platform[worker]]
    }

    /// Numbers a module compiled for the platform named `compiled_for` by
    /// the next id, and returns it. The serve loop numbers its resolved
    /// modules in order before routing; the by-module calls number a
    /// module on first sight.
    pub(crate) fn add_module(&mut self, compiled_for: &str) -> usize {
        let home = self.platform_named(compiled_for).unwrap_or(NO_PLATFORM);
        self.home.push(home);
        self.home.len() - 1
    }

    /// The index of the pool's platform variant named `name`.
    fn platform_named(&self, name: &str) -> Option<usize> {
        self.variants.iter().position(|v| v.name == name)
    }

    /// The id of the module keyed by `key`, numbering it if the scheduler
    /// has not met it: the by-module calls' one lookup. A module's calls
    /// come in runs (`choose` then `commit`, often the retirement of what
    /// was just committed), so the id named last is tried first, then a
    /// binary search over the keys in order.
    fn id_of(&mut self, key: &CacheKey) -> usize {
        let registry = &self.registry;
        if registry.keys.get(registry.last) == Some(key) {
            return registry.last;
        }
        let id = match (registry.by_key)
            .binary_search_by(|&id| registry_order(&registry.keys[id], key))
        {
            Ok(at) => registry.by_key[at],
            Err(at) => {
                let id = self.add_module(&key.accelerator);
                debug_assert_eq!(id, self.registry.keys.len(), "one numbering per scheduler");
                self.registry.keys.push(key.clone());
                self.registry.by_key.insert(at, id);
                id
            }
        };
        self.registry.last = id;
        id
    }

    /// Re-estimates module `id`'s anchors on `worker`'s platform unless
    /// that is the module's home or they are held already: what lets
    /// [`Scheduler::anchors`] read by `&`.
    fn admit(&mut self, worker: usize, id: usize, module: &CompiledModule) {
        let platform = self.worker_platform[worker];
        if platform == self.home[id] {
            return;
        }
        let held = &mut self.variant_anchors[platform];
        if held.len() <= id {
            held.resize(id + 1, None);
        }
        if held[id].is_none() {
            let desc = &self.variants[platform];
            held[id] = Some(CostModel::estimate(desc, &module.key.spec, &module.plan));
        }
    }

    /// The cost anchors for a dispatch of module `id` on `worker`'s
    /// platform: the module's own build-time anchors where the worker
    /// runs the platform the module was compiled for, the re-estimate
    /// `admit` made over the worker's descriptor otherwise (heterogeneous
    /// pools run one compiled plan on differently provisioned variants).
    ///
    /// The runtime guarantees a descriptor name identifies one
    /// provisioning per pool (`ServeError::AmbiguousVariantName`), so
    /// matching the module's compile platform by name is sound.
    pub(crate) fn anchors(&self, worker: usize, id: usize, module: &CompiledModule) -> CostModel {
        let platform = self.worker_platform[worker];
        if platform == self.home[id] {
            return module.cost;
        }
        self.variant_anchors[platform][id].expect("admitted by choose or commit")
    }

    /// The configuration writes a dispatch of `module` would emit against
    /// `worker`'s shadow resident state — the write term of every scoring
    /// function.
    pub(crate) fn writes_for(&self, worker: usize, module: &CompiledModule) -> u64 {
        module.plan.writes_against(&self.shadows[worker])
    }

    /// Predicted execution cycles of a dispatch of module `id` emitting
    /// `writes` on `worker`: mode-agnostic (`mode` = `None`, what `cost`
    /// charges) or given that its launches run at `mode` (what `thermal`
    /// charges) — see [`quote`].
    pub(crate) fn price(
        &self,
        worker: usize,
        id: usize,
        module: &CompiledModule,
        writes: u64,
        mode: Option<FreqState>,
    ) -> u64 {
        let row = self.refiner.row(id, self.worker_platform[worker]);
        quote(row, &self.anchors(worker, id, module), writes, mode)
    }

    /// `worker`'s shadow DVFS automaton advanced to the launch of a
    /// dispatch committed at serve-loop cycle `now` (the launch happens
    /// once the queue drains, at `max(ready, now)`), and the frequency
    /// state it launches at — boost clamped to warm when the worker's
    /// group has a power cap and its other workers already hold every
    /// boost slot. `None` without a DVFS table.
    fn launch(&self, worker: usize, now: u64) -> Option<(DvfsState, FreqState)> {
        let params = self.dvfs[self.worker_platform[worker]]?;
        let mut mirror = self.mirror[worker];
        let mut mode = mirror.launch_state(&params, self.ready[worker].max(now));
        if mode == FreqState::Boost && !self.boost_slot_free(worker, now) {
            mode = FreqState::Warm;
        }
        Some((mirror, mode))
    }

    /// The frequency state `worker`'s next dispatch would launch at, were
    /// it committed at serve-loop cycle `now` ([`FreqState::Cold`] without
    /// a DVFS table).
    pub(crate) fn predicted_mode(&self, worker: usize, now: u64) -> FreqState {
        self.launch(worker, now)
            .map_or(FreqState::Cold, |(_, mode)| mode)
    }

    /// `true` if `worker` may be counted boosted at `now` under its
    /// group's power cap: either it already holds a boost slot (its last
    /// commit was predicted boosted and is still queued), or the group
    /// has a free slot left. Uncapped groups always have room.
    fn boost_slot_free(&self, worker: usize, now: u64) -> bool {
        let group = self.worker_group[worker];
        let Some(cap) = self.power_cap.get(group).copied().flatten() else {
            return true;
        };
        if self.last_mode[worker] == FreqState::Boost && self.ready[worker] > now {
            return true;
        }
        let held = (0..self.ready.len())
            .filter(|&w| {
                w != worker
                    && self.worker_group[w] == group
                    && self.last_mode[w] == FreqState::Boost
                    && self.ready[w] > now
            })
            .count();
        held < cap
    }

    /// Picks a worker from `candidates` (the group's workers, ascending)
    /// for a dispatch of `module` arriving at serve-loop cycle `now`: the
    /// next in `group`'s round-robin turn under `fifo` / `fifo+elide`,
    /// otherwise the candidate `policy::score` prices earliest within the
    /// slack horizon. The by-module form of the serve loop's
    /// `choose_id`.
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    pub fn choose(
        &mut self,
        group: usize,
        candidates: &[usize],
        module: &CompiledModule,
        now: u64,
    ) -> usize {
        let id = self.id_of(&module.key);
        self.choose_id(group, candidates, id, module, now)
    }

    /// [`Scheduler::choose`] for module `id`.
    pub(crate) fn choose_id(
        &mut self,
        group: usize,
        candidates: &[usize],
        id: usize,
        module: &CompiledModule,
        now: u64,
    ) -> usize {
        assert!(!candidates.is_empty(), "scheduling against an empty group");
        if matches!(self.policy, Policy::Fifo | Policy::FifoElide) {
            let turn = self.round_robin[group] % candidates.len();
            self.round_robin[group] += 1;
            return candidates[turn];
        }
        for &w in candidates {
            self.admit(w, id, module);
        }
        // the scratch list is lent out so scoring can read `self` whole
        let mut scored = std::mem::take(&mut self.scored);
        scored.clear();
        scored.extend(
            candidates
                .iter()
                .map(|&w| policy::score(self.policy, self, w, id, module, now)),
        );
        let pick = policy::earliest_within_slack(&scored, self.slack);
        self.scored = scored;
        pick
    }

    /// The estimated cycles of committed work still queued on `worker` at
    /// serve-loop time `now` — completed work has drained.
    pub fn outstanding(&self, worker: usize, now: u64) -> u64 {
        self.ready[worker].saturating_sub(now)
    }

    /// Records a dispatch of `module` to `worker` at serve-loop cycle
    /// `now`: updates the shadow resident state with the same deltas the
    /// worker will apply (when the policy elides), extends the worker's
    /// queue by the dispatch's predicted execution cycles on that
    /// worker's platform, and returns what was predicted so the serve
    /// loop can measure it against the observed cost.
    ///
    /// Queue accounting runs under *every* policy — the round-robin
    /// policies never read it for routing, but the batch cutoff and the
    /// prediction-error metrics do. The by-module form of the serve
    /// loop's `commit_id`.
    pub fn commit(&mut self, worker: usize, module: &CompiledModule, now: u64) -> CommitOutcome {
        let id = self.id_of(&module.key);
        self.commit_id(worker, id, module, now)
    }

    /// [`Scheduler::commit`] for module `id`.
    pub(crate) fn commit_id(
        &mut self,
        worker: usize,
        id: usize,
        module: &CompiledModule,
        now: u64,
    ) -> CommitOutcome {
        let writes = if self.policy.elides() {
            // the dispatch's cost follows the writes it actually emits
            // against this worker's resident state
            module.plan.apply_writes(&mut self.shadows[worker])
        } else {
            // the cold baseline reprograms everything, every time
            module.plan.cold_writes()
        };
        self.admit(worker, id, module);
        let anchors = self.anchors(worker, id, module);
        // the module's learned rows are fetched once; the mode-agnostic
        // charge and the three keyed quotes are all read out of them
        let row = self.refiner.row(id, self.worker_platform[worker]);
        let predicted_cycles = quote(row, &anchors, writes, None);
        // (`FreqState::ALL` is in index order; a loop, not `array::map`,
        // whose generic body LLVM may leave out of line in a hot path)
        let mut keyed_cycles = [0; FREQ_STATES];
        for (cycles, mode) in keyed_cycles.iter_mut().zip(FreqState::ALL) {
            *cycles = quote(row, &anchors, writes, Some(mode));
        }
        // advance the shadow DVFS automaton with the predicted busy
        // window, mirroring the worker-side sequence (cool over the idle
        // gap, read the launch state, account the busy cycles)
        let start = self.ready[worker].max(now);
        let end = start + predicted_cycles;
        self.last_mode[worker] = match self.launch(worker, now) {
            Some((mut mirror, mode)) => {
                mirror.note_busy(end, predicted_cycles);
                self.mirror[worker] = mirror;
                mode
            }
            None => FreqState::Cold,
        };
        self.ready[worker] = end;
        CommitOutcome {
            writes,
            bucket: anchors.bucket(writes),
            anchor_cycles: anchors.predict(writes),
            predicted_cycles,
            keyed_cycles,
        }
    }

    /// Feeds one retired dispatch's measured `cycles` (of `module`,
    /// landing in `bucket`, executed on `worker` whose last launch ran at
    /// frequency `mode`) back into the cost refiner, keyed by the
    /// worker's platform. The observation updates both the mode-agnostic
    /// row and the frequency-keyed row for `mode`. A no-op when
    /// refinement is disabled. The by-module form of the serve loop's
    /// `observe_id`.
    pub fn observe(
        &mut self,
        worker: usize,
        module: &CompiledModule,
        bucket: usize,
        mode: FreqState,
        cycles: u64,
    ) {
        let id = self.id_of(&module.key);
        self.observe_id(worker, id, bucket, mode, cycles);
    }

    /// [`Scheduler::observe`] for module `id`.
    pub(crate) fn observe_id(
        &mut self,
        worker: usize,
        id: usize,
        bucket: usize,
        mode: FreqState,
        cycles: u64,
    ) {
        if self.refine {
            let platform = self.worker_platform[worker];
            self.refiner.observe(id, platform, bucket, mode, cycles);
        }
    }

    /// The cost refiner's current estimates, by module id (for tests and
    /// diagnostics).
    pub fn refiner(&self) -> &CostRefiner {
        &self.refiner
    }

    /// Seeds the refiner from persisted rows keyed by platform *name* and
    /// [`CacheKey`], resolving each name to this pool's platform index and
    /// each key to its module id (numbering modules not yet met). Rows
    /// naming platforms this pool does not field are skipped (a fleet-wide
    /// store safely warm-starts a subset pool); with refinement disabled
    /// nothing is seeded, matching [`Scheduler::observe`]. Returns the
    /// number of rows seeded.
    pub fn seed_refiner(&mut self, entries: &[CostSnapshotEntry]) -> u64 {
        if !self.refine {
            return 0;
        }
        let mut seeded = 0;
        for (platform_name, key, rows) in entries {
            if let Some(platform) = self.platform_named(platform_name) {
                let id = self.id_of(key);
                self.refiner.seed(id, platform, *rows);
                seeded += 1;
            }
        }
        seeded
    }

    /// Makes `refiner` — seeded by module id and platform index
    /// ([`WarmStart::cost_rows`]), the platforms numbered as this
    /// scheduler numbers them (by first appearance over the workers) —
    /// this scheduler's own, so its rows are never copied. With
    /// refinement disabled it is dropped, matching [`Scheduler::observe`].
    ///
    /// [`WarmStart::cost_rows`]: crate::persist::WarmStart::cost_rows
    pub(crate) fn adopt_refiner(&mut self, refiner: CostRefiner) {
        if self.refine {
            self.refiner = refiner;
        }
    }

    /// The refiner's rows keyed by platform *name* and [`CacheKey`] — the
    /// mirror of [`Scheduler::seed_refiner`].
    pub fn cost_snapshot(&self) -> Vec<CostSnapshotEntry> {
        self.refiner
            .learned()
            .map(|(id, platform, rows)| {
                let platform_name = self.variants[platform].name.clone();
                (platform_name, self.registry.keys[id].clone(), *rows)
            })
            .collect()
    }

    /// The store records a flush has to write for the refiner
    /// ([`crate::persist::WarmStart::flush`]): one [`cost_record`] for
    /// each row of [`Scheduler::cost_snapshot`] that no longer holds
    /// exactly its seeded value — the others are the stored bytes
    /// already — naming module `id` by `key_of(id)` (the serve loop
    /// numbers its modules itself, not through the registry). Each row is
    /// encoded where the refiner holds it, into a list of exactly their
    /// number: no row, key or platform name is copied on the way.
    pub(crate) fn moved_cost_records<'k>(
        &self,
        key_of: impl Fn(usize) -> &'k CacheKey,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut records = Vec::with_capacity(self.refiner.moved().count());
        records.extend(self.refiner.moved().map(|(id, platform, rows)| {
            cost_record(&self.variants[platform].name, key_of(id), rows)
        }));
        records
    }

    /// The shadow resident state of `worker` (for tests and diagnostics).
    pub fn shadow(&self, worker: usize) -> &RegMap {
        &self.shadows[worker]
    }

    /// Pins a worker's queue-drain cycle directly (tests only — commits
    /// are the production path).
    #[cfg(test)]
    pub(crate) fn set_ready(&mut self, worker: usize, ready: u64) {
        self.ready[worker] = ready;
    }

    /// [`Scheduler::anchors`] by module, numbering and admitting it first
    /// (tests only — the serve loop reads them by id).
    #[cfg(test)]
    pub(crate) fn module_anchors(&mut self, worker: usize, module: &CompiledModule) -> CostModel {
        let id = self.id_of(&module.key);
        self.admit(worker, id, module);
        self.anchors(worker, id, module)
    }

    /// [`Scheduler::price`] by module, numbering and admitting it first
    /// (tests only — the serve loop prices by id).
    #[cfg(test)]
    pub(crate) fn module_price(
        &mut self,
        worker: usize,
        module: &CompiledModule,
        writes: u64,
        mode: Option<FreqState>,
    ) -> u64 {
        let id = self.id_of(&module.key);
        self.admit(worker, id, module);
        self.price(worker, id, module, writes, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::build_module;
    use crate::testutil::{single_tile_module, uniform};
    use accfg::pipeline::OptLevel;
    use accfg_workloads::MatmulSpec;

    #[test]
    #[should_panic(expected = "share the name")]
    fn tracker_rejects_same_name_different_provisioning() {
        let mut doctored = AcceleratorDescriptor::gemmini();
        doctored.accel.macs_per_cycle *= 4;
        let _ = Scheduler::new(
            Policy::ConfigAffinity,
            &[AcceleratorDescriptor::gemmini(), doctored],
            1,
        );
    }

    #[test]
    fn affinity_prefers_the_matching_worker() {
        let m8 = single_tile_module(8);
        let m16 = single_tile_module(16);
        let mut s = Scheduler::new(Policy::ConfigAffinity, &uniform(2), 1);
        // first dispatch: both blank, tie broken by queue depth then index
        let w8 = s.choose(0, &[0, 1], &m8, 0);
        assert_eq!(w8, 0);
        s.commit(w8, &m8, 0);
        // once the first dispatch has drained, a same-shape repeat stays
        // on the now-warm worker 0
        let later = s.outstanding(0, 0);
        assert_eq!(m8.plan.writes_against(s.shadow(0)), 0);
        assert_eq!(s.choose(0, &[0, 1], &m8, later), 0);
        s.commit(0, &m8, later);
        // the other shape is routed wherever it is cheapest; once
        // committed, its repeats stick to that worker
        let later = (0..2).map(|w| s.outstanding(w, 0)).max().unwrap();
        let w16 = s.choose(0, &[0, 1], &m16, later);
        s.commit(w16, &m16, later);
        let later = (0..2).map(|w| s.outstanding(w, 0)).max().unwrap();
        assert_eq!(m16.plan.writes_against(s.shadow(w16)), 0);
        assert_eq!(s.choose(0, &[0, 1], &m16, later), w16);
        // and the first shape still has its warm worker
        assert_eq!(s.choose(0, &[0, 1], &m8, later), 0);
    }

    #[test]
    fn affinity_bounds_queue_imbalance() {
        // pure min-writes routing would send every same-shape request to
        // the first worker forever; the slack bucket spreads them once the
        // outstanding-cycle gap reaches the horizon. All requests arrive
        // at cycle 0, so nothing drains and queues only grow.
        let m = single_tile_module(8);
        let mut s = Scheduler::new(Policy::ConfigAffinity, &uniform(2), 1);
        let mut counts = [0u64; 2];
        for _ in 0..200 {
            let w = s.choose(0, &[0, 1], &m, 0);
            s.commit(w, &m, 0);
            counts[w] += 1;
        }
        assert!(counts[0] > 0 && counts[1] > 0, "{counts:?}");
        // the drain-time gap can never exceed the slack horizon plus one
        // dispatch's predicted cycles
        let max_dispatch = m.cost.cold_cycles;
        assert!(
            s.outstanding(0, 0).abs_diff(s.outstanding(1, 0)) <= LOAD_SLACK_CYCLES + max_dispatch,
            "outstanding {:?}",
            [s.outstanding(0, 0), s.outstanding(1, 0)]
        );
    }

    #[test]
    fn drained_queues_compete_as_idle() {
        // a worker whose committed work has drained by `now` is
        // indistinguishable from an idle one, so affinity wins again
        let m = single_tile_module(8);
        let mut s = Scheduler::new(Policy::ConfigAffinity, &uniform(2), 1);
        for _ in 0..50 {
            let w = s.choose(0, &[0, 1], &m, 0);
            s.commit(w, &m, 0);
        }
        let drained = (0..2).map(|w| s.outstanding(w, 0)).max().unwrap();
        assert_eq!(s.outstanding(0, drained), 0);
        assert_eq!(s.outstanding(1, drained), 0);
        // worker 0 is the warm one (first pick); with both queues drained
        // the zero-write worker wins regardless of its busier past
        assert_eq!(m.plan.writes_against(s.shadow(0)), 0);
        assert_eq!(s.choose(0, &[0, 1], &m, drained), 0);
    }

    #[test]
    fn slack_boundary_prefers_balance() {
        // a warm worker exactly at the slack boundary is NOT tied with the
        // least-loaded: balance beats affinity there, while one cycle
        // inside the horizon affinity still wins
        let m = single_tile_module(8);
        let mut s = Scheduler::new(Policy::ConfigAffinity, &uniform(2), 1);
        s.commit(0, &m, 0); // worker 0 warm (zero further writes), worker 1 blank
        assert_eq!(m.plan.writes_against(s.shadow(0)), 0);
        assert!(m.plan.writes_against(s.shadow(1)) > 0);

        // one cycle inside the horizon: stickiness wins despite the queue
        s.set_ready(0, LOAD_SLACK_CYCLES - 1);
        s.set_ready(1, 0);
        assert_eq!(s.choose(0, &[0, 1], &m, 0), 0);

        // exactly at the boundary: the warm worker falls into pressure
        // bucket 1 and the blank-but-short queue wins
        s.set_ready(0, LOAD_SLACK_CYCLES);
        assert_eq!(s.choose(0, &[0, 1], &m, 0), 1);

        // the boundary drains with the clock: the same gap measured later
        // is back inside the horizon
        s.set_ready(0, LOAD_SLACK_CYCLES + 10);
        s.set_ready(1, 11);
        assert_eq!(s.choose(0, &[0, 1], &m, 11), 0);
    }

    #[test]
    fn custom_slack_moves_the_boundary() {
        // the same boundary semantics hold under a configured horizon:
        // strictly inside the slack the warm worker wins, exactly at it
        // balance wins
        let m = single_tile_module(8);
        let slack = 128;
        assert_ne!(slack, LOAD_SLACK_CYCLES, "test needs a non-default");
        let mut s = Scheduler::new(Policy::ConfigAffinity, &uniform(2), 1).with_slack(slack);
        assert_eq!(s.slack, slack);
        s.commit(0, &m, 0);
        assert_eq!(m.plan.writes_against(s.shadow(0)), 0);

        s.set_ready(0, slack - 1);
        s.set_ready(1, 0);
        assert_eq!(s.choose(0, &[0, 1], &m, 0), 0);
        s.set_ready(0, slack);
        assert_eq!(s.choose(0, &[0, 1], &m, 0), 1);
        // under the default horizon the same gap would still be sticky
        let mut default = Scheduler::new(Policy::ConfigAffinity, &uniform(2), 1);
        default.commit(0, &m, 0);
        default.set_ready(0, slack);
        default.set_ready(1, 0);
        assert_eq!(default.choose(0, &[0, 1], &m, 0), 0);
    }

    #[test]
    fn batched_commits_accumulate_per_request_cycles() {
        // a same-config batch of k requests weighs k predicted dispatches
        // (one cold + k-1 warm), not one — the accounting skew that made
        // dispatch-count load undercharge batched workers
        let m = single_tile_module(8);
        let mut s = Scheduler::new(Policy::ConfigAffinity, &uniform(2), 1);
        let cold = m.cost.predict(m.plan.cold_writes());
        let mut shadow = RegMap::new();
        m.plan.apply_writes(&mut shadow);
        let warm = m.cost.predict(m.plan.writes_against(&shadow));
        for _ in 0..4 {
            s.commit(0, &m, 0);
        }
        assert_eq!(s.outstanding(0, 0), cold + 3 * warm);
        assert!(s.outstanding(0, 0) > cold, "batch must weigh more than 1");
        // and the unbatched worker's queue is judged on the same scale
        s.commit(1, &m, 0);
        assert_eq!(s.outstanding(1, 0), cold);
    }

    #[test]
    fn heavy_modules_weigh_more_than_light_ones() {
        let light = single_tile_module(8);
        let heavy = build_module(
            &AcceleratorDescriptor::opengemm(),
            MatmulSpec::opengemm_paper(32).unwrap(),
            OptLevel::All,
        )
        .unwrap();
        let mut s = Scheduler::new(Policy::ConfigAffinity, &uniform(2), 1);
        s.commit(0, &light, 0);
        s.commit(1, &heavy, 0);
        assert!(
            s.outstanding(1, 0) > s.outstanding(0, 0),
            "a 16-launch module must queue longer than a single-tile one"
        );
    }

    #[test]
    fn round_robin_commits_still_track_queues_and_shadows() {
        // the batch cutoff and the prediction metrics read queue estimates
        // under every policy, so commit can no longer early-out for the
        // round-robin policies
        let m = single_tile_module(8);
        let mut s = Scheduler::new(Policy::FifoElide, &uniform(2), 1);
        let first = s.commit(0, &m, 0);
        assert_eq!(first.writes, m.plan.cold_writes());
        assert_eq!(s.outstanding(0, 0), first.predicted_cycles);
        // the shadow advanced, so a repeat is scored (and charged) warm
        let second = s.commit(0, &m, 0);
        assert_eq!(second.writes, m.plan.writes_against(s.shadow(0)));
        assert!(second.writes < first.writes);
        assert!(second.predicted_cycles < first.predicted_cycles);
        // the cold baseline never elides: every commit charges cold
        let mut cold = Scheduler::new(Policy::Fifo, &uniform(1), 1);
        for _ in 0..2 {
            let outcome = cold.commit(0, &m, 0);
            assert_eq!(outcome.writes, m.plan.cold_writes());
            assert_eq!(outcome.predicted_cycles, m.cost.cold_cycles);
        }
        assert_eq!(cold.outstanding(0, 0), 2 * m.cost.cold_cycles);
    }

    #[test]
    fn observed_cycles_refine_commit_predictions() {
        let m = single_tile_module(8);
        let mut s = Scheduler::new(Policy::ConfigAffinity, &uniform(1), 1);
        let first = s.commit(0, &m, 0);
        // nothing observed yet: the charge equals the anchor prediction
        assert_eq!(first.predicted_cycles, first.anchor_cycles);
        // a retired dispatch reports very different measured cycles for
        // the warm bucket; the next warm commit quotes the EWMA
        let warm_probe = s.commit(0, &m, 0);
        s.observe(
            0,
            &m,
            warm_probe.bucket,
            FreqState::Cold,
            warm_probe.anchor_cycles + 500,
        );
        let refined = s.commit(0, &m, 0);
        assert_eq!(refined.bucket, warm_probe.bucket);
        assert_eq!(refined.predicted_cycles, warm_probe.anchor_cycles + 500);
        assert_eq!(refined.anchor_cycles, warm_probe.anchor_cycles);
        // with refinement disabled nothing enters the refiner — neither
        // persisted rows nor observations — so every quote is the anchors'
        let rows = s.cost_snapshot();
        assert!(!rows.is_empty());
        let mut fixed =
            Scheduler::new(Policy::ConfigAffinity, &uniform(1), 1).with_refinement(false);
        assert_eq!(fixed.seed_refiner(&rows), 0);
        fixed.commit(0, &m, 0);
        let probe = fixed.commit(0, &m, 0);
        fixed.observe(
            0,
            &m,
            probe.bucket,
            FreqState::Cold,
            probe.anchor_cycles + 500,
        );
        assert_eq!(fixed.refiner().modules_observed(), 0);
        let unrefined = fixed.commit(0, &m, 0);
        assert_eq!(unrefined.predicted_cycles, unrefined.anchor_cycles);
        assert_eq!(
            unrefined.keyed_cycles,
            [unrefined.anchor_cycles; FREQ_STATES]
        );
        // the same rows do seed a refining scheduler
        let mut seeded = Scheduler::new(Policy::ConfigAffinity, &uniform(1), 1);
        assert_eq!(seeded.seed_refiner(&rows), rows.len() as u64);
    }

    #[test]
    fn shadow_tracks_final_plan_state() {
        let m = build_module(
            &AcceleratorDescriptor::opengemm(),
            MatmulSpec::opengemm_paper(16).unwrap(),
            OptLevel::All,
        )
        .unwrap();
        let mut s = Scheduler::new(Policy::ConfigAffinity, &uniform(1), 1);
        s.commit(0, &m, 0);
        // the shadow now holds the last launch's register file
        let last = m.plan.launches().last().unwrap().registers;
        for (reg, value) in &last {
            assert_eq!(s.shadow(0).get(reg), Some(value), "reg {reg}");
        }
    }

    #[test]
    fn tracker_assigns_platforms_by_descriptor_identity() {
        let workers = vec![
            AcceleratorDescriptor::gemmini(),
            AcceleratorDescriptor::gemmini_turbo(),
            AcceleratorDescriptor::gemmini(),
        ];
        let s = Scheduler::new(Policy::Cost, &workers, 1);
        assert_eq!(s.worker_platform, [0, 1, 0]);
        assert_eq!(s.variants.len(), 2);
        assert_eq!(s.descriptor(1).name, "gemmini-turbo");
        assert_eq!(s.descriptor(2).name, "gemmini");
    }

    #[test]
    fn variant_anchors_reflect_the_workers_platform() {
        // a compute-heavy module is re-anchored on the turbo variant and
        // predicted (much) cheaper there; the base worker keeps the
        // module's own build-time anchors
        let heavy = build_module(
            &AcceleratorDescriptor::gemmini(),
            MatmulSpec::gemmini_paper(64).unwrap(),
            OptLevel::All,
        )
        .unwrap();
        let workers = vec![
            AcceleratorDescriptor::gemmini(),
            AcceleratorDescriptor::gemmini_turbo(),
        ];
        let mut s = Scheduler::new(Policy::Cost, &workers, 1);
        assert_eq!(s.module_anchors(0, &heavy), heavy.cost);
        let turbo = s.module_anchors(1, &heavy);
        assert!(turbo.cold_cycles < heavy.cost.cold_cycles);
        // write structure is platform-independent: same plan, same writes
        assert_eq!(turbo.cold_writes, heavy.cost.cold_writes);
        assert_eq!(turbo.warm_writes, heavy.cost.warm_writes);
        // and commit charges the variant's cheaper prediction
        let base_outcome = s.commit(0, &heavy, 0);
        let mut t = Scheduler::new(Policy::Cost, &workers, 1);
        let turbo_outcome = t.commit(1, &heavy, 0);
        assert_eq!(base_outcome.anchor_cycles, heavy.cost.cold_cycles);
        assert!(turbo_outcome.anchor_cycles < base_outcome.anchor_cycles);
    }

    #[test]
    fn observations_refine_per_platform() {
        // the same module observed on two variants keeps two estimates
        let m = single_tile_module(8);
        let workers = vec![
            AcceleratorDescriptor::opengemm(),
            AcceleratorDescriptor::opengemm_lite(),
        ];
        let mut s = Scheduler::new(Policy::Cost, &workers, 1);
        let bucket = m.cost.bucket(m.plan.cold_writes());
        s.observe(0, &m, bucket, FreqState::Cold, 100);
        s.observe(1, &m, bucket, FreqState::Cold, 900);
        assert_eq!(s.module_price(0, &m, m.plan.cold_writes(), None), 100);
        assert_eq!(s.module_price(1, &m, m.plan.cold_writes(), None), 900);
    }

    #[test]
    fn mode_keyed_observations_sharpen_commit_predictions() {
        // the same bucket observed under two frequency modes keeps two
        // keyed estimates; the agnostic charge is the drifting mix
        let m = single_tile_module(8);
        let mut s = Scheduler::new(Policy::Thermal, &uniform(1), 1);
        let bucket = m.cost.bucket(m.plan.cold_writes());
        s.observe(0, &m, bucket, FreqState::Boost, 100);
        s.observe(0, &m, bucket, FreqState::Cold, 900);
        let writes = m.plan.cold_writes();
        assert_eq!(s.module_price(0, &m, writes, Some(FreqState::Boost)), 100);
        assert_eq!(s.module_price(0, &m, writes, Some(FreqState::Cold)), 900);
        // an unobserved mode falls back to the agnostic EWMA
        let agnostic = s.module_price(0, &m, writes, None);
        assert_eq!(
            s.module_price(0, &m, writes, Some(FreqState::Warm)),
            agnostic
        );
        assert!((100..=900).contains(&agnostic));
        // and a commit of that shape reads the same four quotes
        let outcome = s.commit(0, &m, 0);
        assert_eq!(outcome.writes, writes);
        assert_eq!(outcome.predicted_cycles, agnostic);
        assert_eq!(outcome.keyed_cycles, [900, agnostic, 100]);
    }

    #[test]
    fn identity_timing_predicts_cold_and_commits_record_it() {
        // without a DVFS table the shadow automaton is inert: every
        // predicted mode is cold and keyed predictions match the agnostic
        let m = single_tile_module(8);
        let mut s = Scheduler::new(Policy::Cost, &uniform(2), 1);
        assert_eq!(s.predicted_mode(0, 0), FreqState::Cold);
        let outcome = s.commit(0, &m, 0);
        assert_eq!(
            outcome.keyed_cycles,
            [outcome.predicted_cycles; FREQ_STATES]
        );
        assert_eq!(s.predicted_mode(0, 0), FreqState::Cold);
    }

    #[test]
    fn shadow_mirror_heats_through_warm_into_boost() {
        // sustained predicted load walks the mirror cold → warm → boost,
        // and a long idle gap cools it back down — all without running a
        // single simulated instruction
        let m = single_tile_module(8);
        let desc = AcceleratorDescriptor::opengemm().with_reference_timing();
        let dvfs = desc.timing.dvfs.expect("reference timing has DVFS");
        let mut s = Scheduler::new(Policy::Cost, &[desc], 1);
        assert_eq!(s.predicted_mode(0, 0), FreqState::Cold);
        let mut seen_boost = false;
        for _ in 0..4096 {
            s.commit(0, &m, 0);
            if s.predicted_mode(0, 0) == FreqState::Boost {
                seen_boost = true;
                break;
            }
        }
        assert!(seen_boost, "mirror never predicted boost");
        // a cooldown-length gap after the queue drains predicts cold again
        let drained = s.outstanding(0, 0);
        assert_eq!(
            s.predicted_mode(0, drained + dvfs.cooldown_idle_cycles),
            FreqState::Cold
        );
    }

    #[test]
    fn power_cap_clamps_excess_boost_predictions() {
        let m = single_tile_module(8);
        let desc = AcceleratorDescriptor::opengemm().with_reference_timing();
        let workers = vec![desc.clone(), desc];
        let mut s =
            Scheduler::new(Policy::Cost, &workers, 1).with_power_caps(vec![0, 0], vec![Some(1)]);
        // heat both mirrors past the boost threshold with queued work
        for _ in 0..8192 {
            s.commit(0, &m, 0);
            s.commit(1, &m, 0);
            if s.predicted_mode(0, 0) == FreqState::Boost {
                break;
            }
        }
        assert_eq!(s.predicted_mode(0, 0), FreqState::Boost);
        // until someone *commits* a boost launch the slot is unclaimed,
        // so the equally hot worker 1 may also predict boost; one more
        // commit on worker 0 takes the group's single slot
        s.commit(0, &m, 0);
        assert_eq!(s.predicted_mode(0, 0), FreqState::Boost);
        // worker 0 holds the group's one boost slot; worker 1's equally
        // hot mirror is clamped to warm
        assert_eq!(s.predicted_mode(1, 0), FreqState::Warm);
        // an uncapped scheduler lets both boost
        let desc = AcceleratorDescriptor::opengemm().with_reference_timing();
        let mut open = Scheduler::new(Policy::Cost, &[desc.clone(), desc], 1);
        for _ in 0..8192 {
            open.commit(0, &m, 0);
            open.commit(1, &m, 0);
            if open.predicted_mode(1, 0) == FreqState::Boost {
                break;
            }
        }
        assert_eq!(open.predicted_mode(0, 0), FreqState::Boost);
        assert_eq!(open.predicted_mode(1, 0), FreqState::Boost);
    }

    #[test]
    fn the_flush_records_are_what_saving_the_moved_snapshot_writes() {
        use crate::cache::{ModuleCache, COST_ROWS, WARMTH_BUCKETS};
        use crate::persist::{save_costs, WarmStart};
        use accfg_store::{KeyValueStore, LogStore};

        // two platforms; rows seeded and left alone, seeded and left
        // alone by an observation that lands exactly on the seed, seeded
        // and moved, seeded and moved away and back, and never seeded
        let workers = [
            AcceleratorDescriptor::opengemm(),
            AcceleratorDescriptor::gemmini(),
        ];
        let mut s = Scheduler::new(Policy::ConfigAffinity, &workers, 1);
        let [m8, m16, m24, m32, m40] = [8, 16, 24, 32, 40].map(single_tile_module);
        let row = |cycles: i64| {
            let mut row: CostRow = [[-1; WARMTH_BUCKETS]; COST_ROWS];
            row[0][0] = cycles << 8;
            row[1 + FreqState::Cold.index()][0] = cycles << 8;
            row
        };
        let seeds: Vec<CostSnapshotEntry> = [
            ("opengemm", &m8, 300),
            ("gemmini", &m8, 310),
            ("opengemm", &m16, 500),
            ("gemmini", &m16, 510),
            ("opengemm", &m24, 700),
            ("opengemm", &m40, 600),
        ]
        .into_iter()
        .map(|(platform, module, cycles)| (platform.into(), module.key.clone(), row(cycles)))
        .collect();
        assert_eq!(s.seed_refiner(&seeds), 6);
        // m8 on both platforms: left alone; m16 on opengemm: observed at
        // exactly its estimate; m16 on gemmini and m24 on opengemm: moved
        s.observe(0, &m16, 0, FreqState::Cold, 500);
        s.observe(1, &m16, 0, FreqState::Cold, 900);
        s.observe(0, &m24, 0, FreqState::Warm, 100);
        // m40 on opengemm: 600 → 610 → 600 cycles, back at its seed
        let back = s.registry.keys.iter().position(|key| *key == m40.key);
        let back = back.expect("seeded");
        s.observe(0, &m40, 0, FreqState::Cold, 680);
        assert_eq!(s.refiner().row(back, 0), Some(&row(610)));
        s.observe(0, &m40, 0, FreqState::Cold, 530);
        assert_eq!(
            s.refiner().row(back, 0),
            Some(&row(600)),
            "back at its seed"
        );
        // never seeded: m24 on gemmini, m32 on both
        s.observe(1, &m24, 2, FreqState::Boost, 1_000);
        s.observe(0, &m32, 1, FreqState::Cold, 40);
        s.observe(1, &m32, 7, FreqState::Cold, 4_000);

        // what a flush wrote before it streamed the rows: the snapshot
        // less the rows that hold their seed, saved
        let mut changed = s.refiner().snapshot();
        changed.retain(|&(id, platform, _)| !s.refiner().holds_seed(id, platform));
        let changed: Vec<CostSnapshotEntry> = changed
            .into_iter()
            .map(|(id, platform, rows)| {
                let name = s.variants[platform].name.clone();
                (name, s.registry.keys[id].clone(), rows)
            })
            .collect();
        assert_eq!(
            changed.len(),
            6,
            "two moved, one moved and back, three unseeded rows"
        );
        assert_eq!(s.cost_snapshot().len(), 9);
        // and less the row that moved back too: what comparing each row
        // with its seed value would have written
        let mut differ = changed.clone();
        differ.retain(|(_, key, _)| *key != m40.key);
        assert_eq!(differ.len(), 5);

        // each store starts out holding the seeds, as a warm serve's does
        let path = |which: &str| {
            std::env::temp_dir().join(format!(
                "accfg-runtime-flush-records-{which}-{}.store",
                std::process::id()
            ))
        };
        let files = ["saved", "differ", "streamed"].map(path);
        for file in &files {
            let _ = std::fs::remove_file(file);
            let mut store = LogStore::open(file).unwrap();
            assert_eq!(save_costs(&mut store, &seeds).unwrap(), 6);
            store.sync().unwrap();
        }
        for (file, entries) in files.iter().zip([&changed, &differ]) {
            let mut store = LogStore::open(file).unwrap();
            save_costs(&mut store, entries).unwrap();
            store.sync().unwrap();
        }
        let records = s.moved_cost_records(|id| &s.registry.keys[id]);
        assert_eq!(records.len(), 6, "the row back at its seed is re-put");
        let stats = WarmStart::open(&files[2])
            .unwrap()
            .flush(&ModuleCache::new(), records)
            .unwrap();
        assert_eq!(stats.modules_restored, 0);
        // the re-put row is elided at the log: all three files agree
        let bytes = |file: &std::path::Path| std::fs::read(file).unwrap();
        assert_eq!(bytes(&files[2]), bytes(&files[0]));
        assert_eq!(bytes(&files[2]), bytes(&files[1]));
        for file in &files {
            std::fs::remove_file(file).unwrap();
        }
    }
}
