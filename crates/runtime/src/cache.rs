//! The compiled-module cache: repeated shapes skip the whole
//! IR-build → pass-pipeline → lower path.
//!
//! Serving traffic draws from a small set of shapes, so the expensive part
//! of a dispatch — generating the tiled IR, running the accfg passes,
//! lowering to target instructions, and extracting the launch plan — is
//! done once per distinct `(accelerator, shape, opt level)` and shared
//! (via [`Arc`]) by every subsequent request. Cached programs are compiled
//! against the shape's canonical memory layout, so same-shape requests are
//! byte-identical and their configuration state is maximally reusable
//! across dispatches.

use crate::error::ServeError;
use crate::plan::{DispatchPlan, RegMap};
use accfg::interp::interpret;
use accfg::pipeline::{pipeline, OptLevel};
use accfg_sim::{FreqState, Program, FREQ_STATES};
use accfg_targets::{compile, AcceleratorDescriptor, ConfigStyle};
use accfg_workloads::{matmul_ir, MatmulLayout, MatmulSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Interpreter fuel for plan extraction (largest served shapes are a few
/// hundred launches).
const PLAN_FUEL: u64 = 50_000_000;

/// The cache key: everything that determines the compiled artifact.
///
/// The key names a module at the cache, the store and the scheduler's
/// by-module calls; inside one serve the loop names it by a dense id
/// instead (`engine::Resolved`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Accelerator (descriptor) name.
    pub accelerator: String,
    /// Problem shape and tiling.
    pub spec: MatmulSpec,
    /// Optimization level the pipeline ran at.
    pub opt: OptLevel,
}

/// Number of warmth buckets the online cost refiner learns per module.
///
/// A dispatch's *warmth* is its predicted write count relative to the
/// module's cold cost: bucket 0 holds fully-resident repeats, the last
/// bucket holds cold (blank-state) dispatches, and the buckets between
/// hold the partially-warm dispatches whose cycles the static anchors can
/// only interpolate. Eight buckets are enough to separate the clusters a
/// serving mix actually produces (cold first dispatch, steady-state
/// repeat, cross-shape partial overlap) without diluting any bucket's
/// sample stream.
pub const WARMTH_BUCKETS: usize = 8;

/// Binary exponent of the EWMA smoothing factor: each observation moves
/// the estimate by `1/2^EWMA_ALPHA_SHIFT` of the residual (α = 1/8).
const EWMA_ALPHA_SHIFT: u32 = 3;

/// Fixed-point fractional bits of the stored EWMA estimates. Integer
/// fixed-point keeps the refiner bit-deterministic: the same request
/// stream always produces the same estimates, on any host.
const EWMA_FRAC_BITS: u32 = 8;

/// Rows the refiner learns per `(module, platform)`: one mode-agnostic
/// row (index [`COST_ROW_AGNOSTIC`]) plus one row per DVFS frequency
/// state. Every observation lands in the agnostic row *and* its mode's
/// keyed row, so the agnostic row always reproduces the un-keyed
/// refiner's estimates bit-exactly and the keyed rows sharpen on top.
pub const COST_ROWS: usize = FREQ_STATES + 1;

/// Index of the mode-agnostic row in a [`CostRow`].
pub const COST_ROW_AGNOSTIC: usize = 0;

/// One `(module, platform)`'s learned fixed-point EWMA state: the
/// mode-agnostic warmth buckets first, then one keyed bucket set per
/// frequency state (`1 + FreqState::index()`).
pub type CostRow = [[i64; WARMTH_BUCKETS]; COST_ROWS];

/// Row index of frequency state `mode` within a [`CostRow`].
fn mode_row(mode: FreqState) -> usize {
    1 + mode.index()
}

/// Predicted execution cycles of one dispatch as a function of the
/// configuration writes it must emit.
///
/// The anchors are *analytic*, derived at build time from the descriptor's
/// host instruction costs, launch overhead, and peak compute rate — a
/// serial-sum estimate that costs nothing to produce (earlier revisions
/// ran the dispatch program twice on a scratch machine per module build,
/// two full simulations the serve path paid before the first request).
/// The scheduler interpolates linearly between the cold and warm anchors
/// on the write count — exactly the quantity affinity scoring already
/// computes — so queue depth can be held in *estimated outstanding
/// cycles* instead of dispatch counts.
///
/// Being analytic, the anchors drift where timing has microstructure the
/// serial sum ignores — on concurrently-configured targets, writes issued
/// while the accelerator is busy hide under its busy window, so the
/// estimate overshoots by the hidden overlap. The [`CostRefiner`] closes
/// that gap online from the measured cycles of retired dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Writes a dispatch onto a blank register file emits.
    pub cold_writes: u64,
    /// Measured cycles of that cold dispatch.
    pub cold_cycles: u64,
    /// Writes a steady-state same-module repeat emits.
    pub warm_writes: u64,
    /// Measured cycles of that warm repeat.
    pub warm_cycles: u64,
}

impl CostModel {
    /// Predicted cycles for a dispatch that must emit `writes`
    /// configuration writes.
    pub fn predict(&self, writes: u64) -> u64 {
        if self.cold_writes <= self.warm_writes || self.cold_cycles <= self.warm_cycles {
            // degenerate anchors (e.g. a plan with no elidable state):
            // every dispatch costs the larger measurement
            return self.cold_cycles.max(self.warm_cycles);
        }
        let span_w = self.cold_writes - self.warm_writes;
        let span_c = self.cold_cycles - self.warm_cycles;
        if writes >= self.cold_writes {
            self.cold_cycles
        } else if writes >= self.warm_writes {
            self.warm_cycles + (writes - self.warm_writes) * span_c / span_w
        } else {
            // fully-resident dispatches (fewer writes than even the warm
            // repeat) extrapolate below the warm anchor
            self.warm_cycles
                .saturating_sub((self.warm_writes - writes) * span_c / span_w)
        }
    }

    /// Maps a dispatch's predicted write count to its warmth bucket:
    /// `0` for fully-resident repeats up to `WARMTH_BUCKETS - 1` for cold
    /// (blank-state) dispatches. Write counts above the cold anchor clamp
    /// into the cold bucket.
    pub fn bucket(&self, writes: u64) -> usize {
        if self.cold_writes == 0 {
            return WARMTH_BUCKETS - 1;
        }
        (writes.min(self.cold_writes) * (WARMTH_BUCKETS as u64 - 1) / self.cold_writes) as usize
    }

    /// Builds the analytic anchors for `plan` on `desc`: configuration
    /// writes cost their host instruction sequence, every launch pays its
    /// issue cost plus the accelerator's pipeline overhead, and compute is
    /// charged at the MAC rate of the platform's *isolated from-cold*
    /// operating point — the descriptor's [`TimingModel`] parameters, at
    /// the one state an anchor can honestly assume. A deliberate *serial*
    /// sum over that point: it ignores config/compute overlap, bandwidth
    /// contention under load, and the DVFS heat a busy worker accumulates
    /// — exactly the load-dependent drift the online refiner measures
    /// away. Under the identity timing model this reduces to the peak-rate
    /// estimate bit-exactly.
    ///
    /// [`TimingModel`]: accfg_sim::TimingModel
    pub fn estimate(desc: &AcceleratorDescriptor, spec: &MatmulSpec, plan: &DispatchPlan) -> Self {
        let host = &desc.host;
        let accel = &desc.accel;
        let per_write = match plan.style() {
            // materialize the value, then write the register
            ConfigStyle::Csr => host.li + host.csr_write,
            // materialize both halves, then issue the pair command
            ConfigStyle::RoccPairs { .. } => 2 * host.li + host.rocc,
        };
        let per_launch = accel.launch_overhead
            + match plan.style() {
                ConfigStyle::Csr => host.launch,
                // the launch-semantic RoCC command carries a zero pair
                ConfigStyle::RoccPairs { .. } => 2 * host.li + host.rocc,
            };
        let launches = plan.launches().len() as u64;
        let anchor_rate = desc.timing.anchor_macs_per_cycle(accel.macs_per_cycle);
        let compute = ((spec.m * spec.n * spec.k) as u64) / anchor_rate;
        let base = launches * per_launch + compute + host.poll;
        let mut warm_state = RegMap::new();
        plan.apply_writes(&mut warm_state);
        let warm_writes = plan.writes_against(&warm_state);
        Self {
            cold_writes: plan.cold_writes(),
            cold_cycles: plan.cold_writes() * per_write + base,
            warm_writes,
            warm_cycles: warm_writes * per_write + base,
        }
    }
}

/// Online refinement of [`CostModel`] predictions: an exponentially
/// weighted moving average of *measured* dispatch cycles per
/// `(module, platform, warmth bucket)`, updated as the serve loop retires
/// completed dispatches.
///
/// The static anchors are estimated analytically at build time and
/// interpolated linearly, which is exact at the cold and
/// steady-state-warm extremes but drifts for partially-warm dispatches.
/// The refiner learns each bucket's actual cycle cost from the stream
/// itself; once a bucket has an observation, [`CostRefiner::quote`]
/// returns the EWMA, the scheduler charges it instead of the
/// interpolation, and its outstanding-cycle estimates — and with them
/// the affinity slack horizon, the batch cutoff, and the `cost` policy's
/// completion estimates — sharpen as the run warms up.
///
/// A module is named by the dense id its [`Scheduler`] gave it (`0..n`
/// within one serve), so finding a module's row is two vector indexings:
/// the refiner never sees a [`CacheKey`]. The scheduler maps ids back to
/// keys where rows cross the store.
///
/// Heterogeneous pools run one module on *differently provisioned*
/// platform variants (same configuration interface, different geometry
/// and speed), so observations are kept per platform: `platform` is the
/// index the [`Scheduler`] assigned the worker's platform variant, and a
/// measurement taken on one variant never contaminates another's
/// estimates. Uniform pools only ever use one platform index per module.
///
/// Under a DVFS timing model one warmth bucket still mixes launches that
/// ran cold, warm, and boosted — three different compute rates — so the
/// agnostic EWMA tracks a drifting mixture mean. Observations therefore
/// also land in a *frequency-keyed* row per [`FreqState`]
/// ([`CostRefiner::observe`] takes the mode the launch actually ran at):
/// a keyed [`CostRefiner::quote`] reads the keyed row when it has been
/// observed and falls back to the mode-agnostic row while the keyed row
/// is cold (the scheduler falls back to the anchors before any
/// observation at all). The mode-agnostic row is updated exactly as
/// without the keyed rows, so every mode-agnostic quote is bit-identical
/// with or without them.
///
/// Estimates are integer fixed-point, so refinement is a pure function of
/// the request stream: two serves of the same stream produce bit-identical
/// estimates, predictions, and therefore schedules.
///
/// [`Scheduler`]: crate::scheduler::Scheduler
#[derive(Debug, Clone, Default)]
pub struct CostRefiner {
    /// Per platform, per module id: the position in `rows` of that
    /// `(module, platform)`'s learned row, [`NO_ROW`] where nothing has
    /// been observed or seeded.
    index: Vec<Vec<u32>>,
    /// Fixed-point EWMA cycles (agnostic + per-mode rows), one
    /// [`CostRow`] per observed `(module, platform)`, in order of first
    /// observation; `UNSEEN` where no dispatch of that warmth has retired.
    rows: Vec<CostRow>,
}

/// Sentinel for a bucket with no observations (cycles are nonnegative).
const UNSEEN: i64 = -1;

/// [`CostRefiner`]'s index entry for a `(module, platform)` without a
/// row: past the end of any row list, so looking it up finds nothing.
const NO_ROW: u32 = u32::MAX;

impl CostRefiner {
    /// A refiner with no observations: every prediction falls back to the
    /// static anchors.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row of module `id` on `platform`, created unseen on first use.
    fn row_mut(&mut self, id: usize, platform: usize) -> &mut CostRow {
        if self.index.len() <= platform {
            self.index.resize_with(platform + 1, Vec::new);
        }
        let index = &mut self.index[platform];
        if index.len() <= id {
            index.resize(id + 1, NO_ROW);
        }
        if index[id] == NO_ROW {
            index[id] = u32::try_from(self.rows.len()).expect("fewer rows than u32::MAX");
            self.rows.push([[UNSEEN; WARMTH_BUCKETS]; COST_ROWS]);
        }
        &mut self.rows[index[id] as usize]
    }

    /// Folds one measured dispatch (`cycles`, landing in `bucket`, run on
    /// platform variant `platform` in frequency state `mode`) into module
    /// `id`'s estimates: the mode-agnostic row first (exactly the
    /// un-keyed refiner's update), then `mode`'s keyed row. The first
    /// observation of a slot seeds the EWMA exactly; later ones move it
    /// by α = 1/8 of the residual. Only a `(module, platform)`'s first
    /// observation allocates (its row).
    pub fn observe(
        &mut self,
        id: usize,
        platform: usize,
        bucket: usize,
        mode: FreqState,
        cycles: u64,
    ) {
        let rows = self.row_mut(id, platform);
        let bucket = bucket.min(WARMTH_BUCKETS - 1);
        let observed = (cycles as i64) << EWMA_FRAC_BITS;
        for row in [COST_ROW_AGNOSTIC, mode_row(mode)] {
            let slot = &mut rows[row][bucket];
            if *slot == UNSEEN {
                *slot = observed;
            } else {
                *slot += (observed - *slot) >> EWMA_ALPHA_SHIFT;
            }
        }
    }

    /// The learned rows of module `id` on `platform`, if it has any: what
    /// [`CostRefiner::quote`] reads out, fetched once by a caller pricing
    /// several slots of one module.
    pub fn row(&self, id: usize, platform: usize) -> Option<&CostRow> {
        let &position = self.index.get(platform)?.get(id)?;
        self.rows.get(position as usize)
    }

    /// What `row` quotes for `bucket`: the mode-agnostic estimate
    /// (`mode` = `None`), or `mode`'s frequency-keyed estimate falling back
    /// to the mode-agnostic one while the keyed slot is cold. `None` when
    /// nothing has been observed there.
    pub fn quote(row: &CostRow, bucket: usize, mode: Option<FreqState>) -> Option<u64> {
        let slot = |r: usize| {
            let slot = *row[r].get(bucket)?;
            (slot != UNSEEN).then_some((slot >> EWMA_FRAC_BITS) as u64)
        };
        mode.and_then(|mode| slot(mode_row(mode)))
            .or_else(|| slot(COST_ROW_AGNOSTIC))
    }

    /// Number of modules with a row on at least one platform.
    pub fn modules_observed(&self) -> usize {
        let ids = self.index.iter().map(Vec::len).max().unwrap_or(0);
        (0..ids)
            .filter(|&id| (0..self.index.len()).any(|platform| self.row(id, platform).is_some()))
            .count()
    }

    /// The refiner's learned state as `(module id, platform, rows)`
    /// entries — raw fixed-point EWMA values (agnostic + per-mode rows),
    /// one entry per `(module, platform)` with at least one observed
    /// slot, platform by platform in id order.
    pub fn snapshot(&self) -> Vec<(usize, usize, CostRow)> {
        (0..self.index.len())
            .flat_map(|platform| {
                (0..self.index[platform].len())
                    .filter_map(move |id| Some((id, platform, *self.row(id, platform)?)))
            })
            .filter(|(.., rows)| rows.iter().flatten().any(|&slot| slot != UNSEEN))
            .collect()
    }

    /// Restores one snapshot entry: installs `rows` (raw fixed-point EWMA
    /// values, `-1` for unseen) as module `id`'s estimates on `platform`,
    /// replacing whatever was there. Restoring a snapshot and then taking
    /// one yields the identical entries back — the round-trip identity the
    /// persistence tests pin.
    pub fn seed(&mut self, id: usize, platform: usize, rows: CostRow) {
        *self.row_mut(id, platform) = rows;
    }
}

/// One fully compiled, dispatch-ready module.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModule {
    /// The key this module was built for.
    pub key: CacheKey,
    /// Canonical memory placement (every same-shape request reuses it).
    pub layout: MatmulLayout,
    /// The lowered target program, with the canonical addresses bound —
    /// what a cache-less system would execute per request.
    pub program: Program,
    /// The launch-level plan the dispatcher diffs against resident state.
    pub plan: DispatchPlan,
    /// Cold/warm cycle measurements for queue-depth prediction.
    pub cost: CostModel,
    /// Field writes the optimized IR performs (the compiler's static count,
    /// for comparison against the dispatcher's dynamic count).
    pub ir_setup_writes: usize,
}

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled a new module.
    pub misses: u64,
}

impl CacheStats {
    /// Hits over total lookups (1.0 for an all-hit run; 0.0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The module cache itself.
#[derive(Debug, Default)]
pub struct ModuleCache {
    entries: HashMap<CacheKey, Arc<CompiledModule>>,
    /// Lookup statistics.
    pub stats: CacheStats,
}

impl ModuleCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct compiled modules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if a module is cached under `key` (no counter moves).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Returns the compiled module for `(desc, spec, opt)`, building it on
    /// first use.
    ///
    /// # Errors
    /// Propagates pipeline, lowering, and plan-extraction failures.
    pub fn get_or_build(
        &mut self,
        desc: &AcceleratorDescriptor,
        spec: MatmulSpec,
        opt: OptLevel,
    ) -> Result<Arc<CompiledModule>, ServeError> {
        let key = CacheKey {
            accelerator: desc.name.clone(),
            spec,
            opt,
        };
        if let Some(entry) = self.entries.get(&key) {
            self.stats.hits += 1;
            return Ok(Arc::clone(entry));
        }
        self.stats.misses += 1;
        let entry = Arc::new(build_module(desc, spec, opt)?);
        self.entries.insert(key, Arc::clone(&entry));
        Ok(entry)
    }

    /// Every cached module, in arbitrary (hash-map) order; the persistence
    /// layer sorts by encoded key before writing.
    pub fn snapshot(&self) -> Vec<Arc<CompiledModule>> {
        self.entries.values().map(Arc::clone).collect()
    }

    /// Installs a previously compiled module without touching the hit/miss
    /// counters. Returns `false` (and keeps the resident entry) when the
    /// key is already cached — a module this process built fresh wins over
    /// a restored one.
    pub fn restore(&mut self, module: CompiledModule) -> bool {
        match self.entries.entry(module.key.clone()) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Arc::new(module));
                true
            }
        }
    }
}

/// Compiles one module end-to-end: IR generation, accfg passes, target
/// lowering, and plan extraction.
///
/// # Errors
/// See [`ServeError`].
pub fn build_module(
    desc: &AcceleratorDescriptor,
    spec: MatmulSpec,
    opt: OptLevel,
) -> Result<CompiledModule, ServeError> {
    let mut module = matmul_ir(desc, &spec);
    let mut pm = pipeline(opt, desc.overlap_filter());
    if cfg!(debug_assertions) || cfg!(feature = "validate") {
        // translation-validate every pass: a rewrite that changes any
        // launch's reaching configuration state aborts the build instead
        // of serving a silently miscompiled module
        pm.validate_each(accfg_analyze::pass_validator());
    }
    pm.run(&mut module)
        .map_err(|e| ServeError::Pipeline(e.to_string()))?;
    let layout = MatmulLayout::at(0x1000, &spec);
    let args = [layout.a_addr, layout.b_addr, layout.c_addr];
    let program = compile(&module, "matmul", desc, &args)?;
    let trace = interpret(&module, "matmul", &args, PLAN_FUEL)?;
    let plan = DispatchPlan::from_trace(&trace, desc)?;
    let cost = CostModel::estimate(desc, &spec, &plan);
    Ok(CompiledModule {
        key: CacheKey {
            accelerator: desc.name.clone(),
            spec,
            opt,
        },
        layout,
        program,
        plan,
        cost,
        ir_setup_writes: trace.setup_writes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_shapes_hit_the_cache() {
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::opengemm_paper(16).unwrap();
        let mut cache = ModuleCache::new();
        let a = cache.get_or_build(&desc, spec, OptLevel::All).unwrap();
        let b = cache.get_or_build(&desc, spec, OptLevel::All).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats, CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_build_distinct_modules() {
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::opengemm_paper(16).unwrap();
        let mut cache = ModuleCache::new();
        cache.get_or_build(&desc, spec, OptLevel::All).unwrap();
        cache.get_or_build(&desc, spec, OptLevel::Base).unwrap();
        let other = MatmulSpec::opengemm_paper(24).unwrap();
        cache.get_or_build(&desc, other, OptLevel::All).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats.misses, 3);
        assert!((cache.stats.hit_rate() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn plan_matches_program_launch_count() {
        for (desc, spec) in [
            (
                AcceleratorDescriptor::opengemm(),
                MatmulSpec::opengemm_paper(16).unwrap(),
            ),
            (
                AcceleratorDescriptor::gemmini(),
                MatmulSpec::gemmini_paper(32).unwrap(),
            ),
        ] {
            let module = build_module(&desc, spec, OptLevel::All).unwrap();
            assert_eq!(module.plan.launches().len() as i64, spec.invocations());
            assert!(module.plan.cold_writes() > 0);
            assert!(!module.program.is_empty());
        }
    }

    #[test]
    fn cost_model_anchors_are_estimated_and_ordered() {
        for (desc, spec) in [
            (
                AcceleratorDescriptor::opengemm(),
                MatmulSpec::opengemm_paper(16).unwrap(),
            ),
            (
                AcceleratorDescriptor::gemmini(),
                MatmulSpec::gemmini_paper(32).unwrap(),
            ),
        ] {
            let module = build_module(&desc, spec, OptLevel::All).unwrap();
            let cost = module.cost;
            assert_eq!(cost.cold_writes, module.plan.cold_writes());
            assert!(cost.cold_cycles > 0);
            assert!(cost.warm_cycles > 0);
            // eliding resident state can only shrink a dispatch
            assert!(cost.warm_writes <= cost.cold_writes);
            assert!(cost.warm_cycles <= cost.cold_cycles, "{cost:?}");
            // the steady-state warm repeat of a tiled module still pays
            // its per-tile writes, launches, and compute
            assert!(cost.warm_cycles >= module.plan.launches().len() as u64);
        }
    }

    #[test]
    fn analytic_anchors_track_the_write_and_launch_structure() {
        // the estimate must scale with what it models: more launches and
        // more writes cost more, and the warm anchor differs from cold by
        // exactly the elided writes' host cost
        let desc = AcceleratorDescriptor::opengemm();
        let small = build_module(
            &desc,
            MatmulSpec::opengemm_paper(16).unwrap(),
            OptLevel::All,
        )
        .unwrap();
        let large = build_module(
            &desc,
            MatmulSpec::opengemm_paper(32).unwrap(),
            OptLevel::All,
        )
        .unwrap();
        assert!(large.cost.cold_cycles > small.cost.cold_cycles);
        let span_w = small.cost.cold_writes - small.cost.warm_writes;
        let span_c = small.cost.cold_cycles - small.cost.warm_cycles;
        assert_eq!(span_c % span_w, 0, "cold-warm gap is per-write linear");
    }

    #[test]
    fn cost_prediction_interpolates_between_anchors() {
        let cost = CostModel {
            cold_writes: 100,
            cold_cycles: 1000,
            warm_writes: 20,
            warm_cycles: 200,
        };
        assert_eq!(cost.predict(100), 1000);
        assert_eq!(cost.predict(200), 1000); // clamped above the cold anchor
        assert_eq!(cost.predict(20), 200);
        assert_eq!(cost.predict(60), 600);
        // fully-resident dispatches extrapolate below the warm anchor
        assert!(cost.predict(0) < 200);
        // prediction is monotone in the write count
        let preds: Vec<u64> = (0..=120).map(|w| cost.predict(w)).collect();
        assert!(preds.windows(2).all(|p| p[0] <= p[1]));
        // degenerate anchors never divide by zero
        let flat = CostModel {
            cold_writes: 5,
            cold_cycles: 50,
            warm_writes: 5,
            warm_cycles: 50,
        };
        assert_eq!(flat.predict(0), 50);
        assert_eq!(flat.predict(99), 50);
    }

    #[test]
    fn warmth_buckets_span_the_write_range() {
        let cost = CostModel {
            cold_writes: 100,
            cold_cycles: 1000,
            warm_writes: 20,
            warm_cycles: 200,
        };
        assert_eq!(cost.bucket(0), 0);
        assert_eq!(cost.bucket(100), WARMTH_BUCKETS - 1);
        // above-cold write counts clamp into the cold bucket
        assert_eq!(cost.bucket(500), WARMTH_BUCKETS - 1);
        // buckets are monotone in the write count
        let buckets: Vec<usize> = (0..=100).map(|w| cost.bucket(w)).collect();
        assert!(buckets.windows(2).all(|b| b[0] <= b[1]));
        // a degenerate all-launch plan has only the cold bucket
        let flat = CostModel {
            cold_writes: 0,
            cold_cycles: 50,
            warm_writes: 0,
            warm_cycles: 50,
        };
        assert_eq!(flat.bucket(0), WARMTH_BUCKETS - 1);
    }

    /// What `refiner` quotes for `bucket` of module `id` on `platform`
    /// (mode-agnostic, or keyed by `mode`): its row's
    /// [`CostRefiner::quote`], `None` before the module's first
    /// observation there.
    fn quoted(
        refiner: &CostRefiner,
        id: usize,
        platform: usize,
        bucket: usize,
        mode: Option<FreqState>,
    ) -> Option<u64> {
        CostRefiner::quote(refiner.row(id, platform)?, bucket, mode)
    }

    fn opengemm_16() -> CompiledModule {
        build_module(
            &AcceleratorDescriptor::opengemm(),
            MatmulSpec::opengemm_paper(16).unwrap(),
            OptLevel::All,
        )
        .unwrap()
    }

    #[test]
    fn refiner_seeds_then_tracks_observations() {
        let module = opengemm_16();
        let id = 0;
        let mut refiner = CostRefiner::new();
        let cold_bucket = module.cost.bucket(module.cost.cold_writes);
        // unseen: no row, nothing quoted (the scheduler charges the anchors)
        assert_eq!(refiner.row(id, 0), None);
        assert_eq!(quoted(&refiner, id, 0, cold_bucket, None), None);
        assert_eq!(refiner.modules_observed(), 0);
        // the first observation seeds the bucket exactly
        refiner.observe(id, 0, cold_bucket, FreqState::Cold, 400);
        assert_eq!(quoted(&refiner, id, 0, cold_bucket, None), Some(400));
        assert_eq!(refiner.modules_observed(), 1);
        // repeated identical observations keep the estimate fixed
        refiner.observe(id, 0, cold_bucket, FreqState::Cold, 400);
        assert_eq!(quoted(&refiner, id, 0, cold_bucket, None), Some(400));
        // a shifted observation moves the estimate toward it by α = 1/8
        refiner.observe(id, 0, cold_bucket, FreqState::Cold, 480);
        assert_eq!(quoted(&refiner, id, 0, cold_bucket, None), Some(410));
        // other buckets are untouched
        assert_eq!(quoted(&refiner, id, 0, 0, None), None);
    }

    #[test]
    fn refiner_keeps_platforms_independent() {
        // a heterogeneous pool runs one module on differently provisioned
        // variants: an observation on one platform must not leak into
        // another's estimates
        let id = 0;
        let mut refiner = CostRefiner::new();
        refiner.observe(id, 1, 0, FreqState::Cold, 777);
        assert_eq!(quoted(&refiner, id, 1, 0, None), Some(777));
        assert_eq!(quoted(&refiner, id, 0, 0, None), None);
        // one module, two platforms: still one observed module
        assert_eq!(refiner.modules_observed(), 1);
    }

    #[test]
    fn refiner_converges_to_a_steady_observation() {
        let mut refiner = CostRefiner::new();
        refiner.observe(0, 0, 0, FreqState::Cold, 1000);
        for _ in 0..64 {
            refiner.observe(0, 0, 0, FreqState::Cold, 200);
        }
        let estimate = quoted(&refiner, 0, 0, 0, None).unwrap();
        assert!(
            estimate.abs_diff(200) <= 2,
            "estimate {estimate} far from 200"
        );
    }

    #[test]
    fn frequency_keyed_rows_separate_the_modes() {
        let module = opengemm_16();
        let id = 3;
        let mut refiner = CostRefiner::new();
        // a bucket fed a mix of boosted (fast) and cold (slow) launches:
        // the agnostic row tracks the mixture, the keyed rows stay pure
        refiner.observe(id, 0, 0, FreqState::Boost, 100);
        refiner.observe(id, 0, 0, FreqState::Cold, 900);
        let boost = Some(FreqState::Boost);
        assert_eq!(quoted(&refiner, id, 0, 0, boost), Some(100));
        assert_eq!(quoted(&refiner, id, 0, 0, Some(FreqState::Cold)), Some(900));
        // the agnostic row saw both and drifted off either cluster
        let mixed = quoted(&refiner, id, 0, 0, None).unwrap();
        assert!(mixed > 100 && mixed < 900, "agnostic estimate {mixed}");
        // an unobserved mode falls back to the agnostic row…
        assert_eq!(
            quoted(&refiner, id, 0, 0, Some(FreqState::Warm)),
            Some(mixed)
        );
        // …and an unobserved bucket quotes nothing in any mode
        let cold_bucket = module.cost.bucket(module.cost.cold_writes);
        assert_eq!(quoted(&refiner, id, 0, cold_bucket, boost), None);
        // keyed observations round-trip through snapshot/seed
        let rows = refiner.snapshot();
        assert_eq!(rows.len(), 1);
        let mut restored = CostRefiner::new();
        for (id, platform, row) in rows {
            restored.seed(id, platform, row);
        }
        assert_eq!(quoted(&restored, id, 0, 0, boost), Some(100));
        assert_eq!(quoted(&restored, id, 0, 0, None), Some(mixed));
    }

    #[test]
    fn plan_register_files_are_complete() {
        // every launch's register file carries the full tile descriptor,
        // whatever the opt level did to the instruction stream
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::opengemm_paper(16).unwrap();
        for opt in [OptLevel::Base, OptLevel::All] {
            let module = build_module(&desc, spec, opt).unwrap();
            for launch in module.plan.launches() {
                assert!(launch.registers.len() >= 10, "{:?}", launch.registers);
            }
        }
    }
}
