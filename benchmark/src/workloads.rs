//! The benchmark's workloads: what each one is, how its inputs are made
//! from the seed, and what one timed trial of it does.
//!
//! Why these six (each stresses different layers; the README has the
//! layer → end-to-end predictions):
//!
//! - `mixed`: six small shapes cycling through few module transitions, so
//!   the per-dispatch hot path (`fill_inputs` → `delta_program` →
//!   `Machine::run` → `check_result`) is nearly all of the host time. The
//!   workload a per-dispatch optimisation is aimed at.
//! - `shape_heavy`: sixteen shapes over four workers with larger MAC
//!   counts; anything keyed on (module, resident state) hits far less and
//!   routing does real work. A cache tuned on `mixed` should show little
//!   or no gain here.
//! - `contention`: the mixed classes at a tighter gap on platforms with the
//!   reference contention/DVFS timing and the `thermal` policy: the same
//!   layers as `mixed`, used differently.
//! - `cold_shapes`: every request a distinct shape, fresh `Runtime` and
//!   fresh store file per serve. The compiler, the cache-miss path,
//!   `persist` encode and the store's writes do the work; the simulator
//!   almost none.
//! - `warm_restore`: the same stream served by fresh `Runtime`s from a
//!   pre-populated store, zero builds asserted: `persist` decode and the
//!   store's reads beside `cold_shapes`' writes.
//! - `paper_sweep`: the paper's Figure 10 and Figure 11 sweeps, 22 points
//!   through compile → fresh `Machine` → run → check. The simulator and
//!   the reference check in the long-program regime (one 512³ run instead
//!   of thousands of tiny ones), and the workload that checks the paper's
//!   own result.
//!
//! A serve workload has two sizes. Its *simulated* metrics come from one
//! serve of the whole generated stream, long enough that a p99 moves
//! little from seed to seed. Its *host* rate comes from the stream's
//! leading `timed` requests, served batch by batch in many short serves:
//! the shared host's interference comes and goes within tens of
//! milliseconds, so only a short serve has a fair chance of an
//! undisturbed run, and each batch's fastest serve is what is summed.

use crate::proc::{Calibration, Stopwatch};
use crate::replay;
use crate::stats::{derive_seed, percentile, Fnv};
use crate::sweep::PaperSweep;
use crate::trace::Tracer;
use accfg::pipeline::OptLevel;
use accfg_bench::streams::{contention_pool, uniform_pool};
use accfg_runtime::{
    load_costs, CostSnapshotEntry, Policy, PoolConfig, Runtime, ServeConfig, ServeMode, ServeReport,
};
use accfg_store::LogStore;
use accfg_workloads::{
    mixed_serving_classes, shape_heavy_classes, MatmulSpec, SplitMix, TrafficClass, TrafficConfig,
    TrafficRequest,
};
use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

/// The seed a run uses when none is given, and the one the fingerprints
/// below are pinned at.
pub const DEFAULT_SEED: u64 = 12_648_430;

/// The workloads, in the order `BENCHMARK.json` lists them, each with the
/// FNV-1a fingerprint of its generated input at [`DEFAULT_SEED`] and full
/// size. A fingerprint that no longer matches means a generator changed
/// under the benchmark: numbers from before and after are then not
/// comparable, and the run says so and counts a failure.
pub const WORKLOADS: [(&str, u64); 6] = [
    ("mixed", 0x87F6_B431_F6E4_8555),
    ("shape_heavy", 0xD081_37DF_4E60_3457),
    ("contention", 0x51FE_DBEB_75F2_B0A5),
    ("cold_shapes", 0x88DA_7F43_9474_38AB),
    ("warm_restore", 0x111E_B9AB_AFBF_ED04),
    ("paper_sweep", 0xA927_F742_A59D_4D2D),
];

/// The workload names, in order.
pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(name, _)| *name).collect()
}

/// Where the benchmark writes (store files, traces, result files),
/// relative to the checkout root it is run from.
pub const OUT_DIR: &str = "benchmark/out";

/// What the simulated clock said about one trial. Every field must be
/// identical across the trials of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sim {
    pub p50: u64,
    pub p99: u64,
    pub setup_writes: u64,
    pub makespan: u64,
    /// FNV-1a over every request's outcome (worker, writes, cycles,
    /// latency), so "identical" covers more than the four aggregates.
    pub digest: u64,
}

/// One timed trial.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Wall seconds of each timed segment of the trial, in a fixed order:
    /// each batch of a serve workload, each point of the sweep.
    pub segments_s: Vec<f64>,
    pub cpu_s: f64,
    /// Operations attempted: requests served, or sweep points run.
    pub ops: u64,
    /// Failed operations and violated checks: how many, and why.
    pub failures: Vec<(u64, String)>,
    pub sim: Sim,
}

/// What a traced run hands back.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metric values by name; names left out read 0.
    pub layers: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failures: Vec<(u64, String)>,
    /// Count, wall and CPU seconds of the untraced trials inside the
    /// traced run, for `proc.trials` and `proc.cpu_over_wall`.
    pub trials: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// What the dispatch path of a traced run did: the inputs of the metrics
/// every workload derives from it the same way.
pub struct Dispatched<'a> {
    /// Host nanoseconds per span name.
    pub total_ns: &'a BTreeMap<&'static str, f64>,
    /// The spans that must add up to `wall_ns`.
    pub layers: &'a [&'a str],
    /// Untraced host nanoseconds of the same work.
    pub wall_ns: f64,
    pub requests: f64,
    pub macs: f64,
    pub insts: f64,
    pub launches: f64,
    pub config_bytes: f64,
}

impl Traced {
    /// The `workloads.*`, `sim.*` and `runtime.engine.*` metrics of the
    /// dispatch path.
    pub fn record_dispatch(&mut self, d: &Dispatched<'_>) {
        let total_ns = |name: &str| d.total_ns.get(name).copied().unwrap_or(0.0);
        let per_req_us = |name: &str| total_ns(name) / d.requests / 1e3;
        let layer_ns: f64 = d.layers.iter().map(|name| total_ns(name)).sum();
        let (fill, run, check) = ("workloads.fill_inputs", "sim.run", "workloads.check_result");
        let l = &mut self.layers;
        l.insert("workloads.fill_inputs_us_per_req", per_req_us(fill));
        l.insert("workloads.check_result_us_per_req", per_req_us(check));
        l.insert("workloads.check_result_share", total_ns(check) / d.wall_ns);
        l.insert("workloads.ref_macs_per_req", d.macs / d.requests);
        l.insert("sim.run_us_per_req", per_req_us(run));
        l.insert("sim.run_share", total_ns(run) / d.wall_ns);
        l.insert("sim.host_ns_per_sim_inst", total_ns(run) / d.insts);
        l.insert("sim.host_ns_per_mac", total_ns(run) / d.macs);
        l.insert("sim.insts_per_req", d.insts / d.requests);
        l.insert("sim.launches_per_req", d.launches / d.requests);
        l.insert("sim.config_bytes_per_req", d.config_bytes / d.requests);
        l.insert(
            "runtime.engine.other_us_per_req",
            (d.wall_ns - layer_ns) / d.requests / 1e3,
        );
        l.insert("runtime.engine.coverage", layer_ns / d.wall_ns);
    }
}

pub trait Workload {
    /// FNV-1a fingerprint of the generated input.
    fn fingerprint(&self) -> u64;
    /// One untraced timed trial.
    ///
    /// # Errors
    /// Fails when the trial could not run at all (a serve error): a bug in
    /// the harness or the system, not a failed operation to be counted.
    fn trial(&mut self) -> Result<Trial, String>;
    /// The serve the simulated metrics are read from, where that is not a
    /// timed trial: untimed, once per run. `None` reads them from the
    /// trials.
    ///
    /// # Errors
    /// As for [`Workload::trial`].
    fn reference(&mut self) -> Result<Option<Trial>, String> {
        Ok(None)
    }
    /// The traced run: per-layer metrics (host times in this host's own
    /// seconds) from spans recorded around the calls into each layer,
    /// finishing near `deadline`, and the spans. Samples `calibration` as
    /// it goes.
    ///
    /// # Errors
    /// As for [`Workload::trial`].
    fn trace(
        &mut self,
        deadline: Instant,
        calibration: &mut Calibration,
    ) -> Result<(Traced, Tracer), String>;
}

/// Generates `name`'s inputs from `run_seed`, builds the system and lets
/// its caches fill: everything before the first timed trial.
///
/// # Errors
/// Fails on an unknown workload name or a serve error during warm-up.
pub fn setup(name: &str, run_seed: u64, quick: bool) -> Result<Box<dyn Workload>, String> {
    let name = names()
        .into_iter()
        .find(|known| *known == name)
        .ok_or_else(|| format!("unknown workload `{name}` (one of: {})", names().join(", ")))?;
    let seed = derive_seed(run_seed, name);
    // quick mode serves a tenth of the requests
    let scaled = |requests: usize| if quick { requests / 10 } else { requests };
    let open_loop = |classes: Vec<TrafficClass>, mean_gap: u64| {
        let traffic = TrafficConfig {
            classes,
            requests: scaled(OPEN_LOOP_REQUESTS),
            mean_gap,
            seed,
        };
        let gen = Instant::now();
        let stream = traffic.open_loop_stream().map_err(|e| e.to_string())?;
        Ok::<_, String>((stream, gen.elapsed().as_secs_f64(), traffic))
    };
    let workload: Box<dyn Workload> = match name {
        "mixed" => {
            let (stream, gen_s, traffic) = open_loop(mixed_serving_classes(), 200)?;
            let mut mixed = ServeWorkload::new(
                name,
                stream,
                scaled(4_000),
                gen_s,
                uniform_pool(),
                Policy::ConfigAffinity,
                Flavor::Warm,
            )?;
            mixed.capacity_sweep = Some(traffic);
            mixed.cross_check_engines = true;
            Box::new(mixed)
        }
        "shape_heavy" => {
            let (stream, gen_s, _) = open_loop(shape_heavy_classes(), 400)?;
            Box::new(ServeWorkload::new(
                name,
                stream,
                scaled(3_000),
                gen_s,
                uniform_pool(),
                Policy::Cost,
                Flavor::Warm,
            )?)
        }
        "contention" => {
            let (stream, gen_s, _) = open_loop(mixed_serving_classes(), 120)?;
            let mut contention = ServeWorkload::new(
                name,
                stream,
                scaled(4_000),
                gen_s,
                contention_pool(),
                Policy::Thermal,
                Flavor::Warm,
            )?;
            contention.cross_check_engines = true;
            Box::new(contention)
        }
        "cold_shapes" | "warm_restore" => {
            let gen = Instant::now();
            let stream = distinct_shape_stream(seed, scaled(DISTINCT_SHAPES), 300);
            let gen_s = gen.elapsed().as_secs_f64();
            let flavor = if name == "cold_shapes" {
                Flavor::Cold
            } else {
                Flavor::Restore
            };
            let timed = stream.len();
            Box::new(ServeWorkload::new(
                name,
                stream,
                timed,
                gen_s,
                uniform_pool(),
                Policy::ConfigAffinity,
                flavor,
            )?)
        }
        "paper_sweep" => Box::new(PaperSweep::new(seed, quick)),
        other => unreachable!("`{other}` is in WORKLOADS and has no set-up"),
    };
    Ok(workload)
}

/// Requests in an open-loop workload's whole stream, the one its
/// simulated metrics are read from.
const OPEN_LOOP_REQUESTS: usize = 12_000;
/// Size of the distinct-shape grid: 6 x 6 x 16 (m, n, k) on two platforms.
const DISTINCT_SHAPES: usize = 1152;
/// Batches the timed requests are served in, one short serve each (a
/// batch of `mixed` is 250 requests, some 22 ms of host time).
const BATCHES: usize = 16;

/// Every valid shape of a small (m, n, k) grid on both platforms, each
/// exactly once, in an order shuffled by the seed, with open-loop
/// arrivals at `mean_gap`. The set of shapes — and so the compile work —
/// is the same for every seed; order, arrivals and input data are not.
fn distinct_shape_stream(seed: u64, requests: usize, mean_gap: u64) -> Vec<TrafficRequest> {
    let mut shapes: Vec<(&str, MatmulSpec)> = Vec::new();
    for m in (8..=48).step_by(8) {
        for n in (8..=48).step_by(8) {
            for k in (8..=128).step_by(8) {
                let gemmini = MatmulSpec::new((m, n, k), (m, n, k)).expect("untiled shape");
                let opengemm = MatmulSpec::new((m, n, k), (8, 8, k)).expect("multiples of 8");
                shapes.push(("gemmini", gemmini));
                shapes.push(("opengemm", opengemm));
            }
        }
    }
    assert_eq!(shapes.len(), DISTINCT_SHAPES);
    let mut rng = SplitMix::new(seed);
    for i in (1..shapes.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        shapes.swap(i, j);
    }
    let mut arrival = 0u64;
    shapes
        .into_iter()
        .take(requests)
        .enumerate()
        .map(|(id, (accelerator, spec))| {
            arrival += rng.next_u64() % (2 * mean_gap + 1);
            TrafficRequest {
                id: id as u64,
                accelerator: accelerator.into(),
                spec,
                arrival,
                seed: rng.next_u64(),
            }
        })
        .collect()
}

/// FNV-1a over (id, accelerator, spec, arrival, seed) of every request.
fn stream_fingerprint(stream: &[TrafficRequest]) -> u64 {
    let mut h = Fnv::default();
    for r in stream {
        h.u64(r.id);
        h.bytes(r.accelerator.as_bytes());
        for dim in [
            r.spec.m,
            r.spec.n,
            r.spec.k,
            r.spec.tile_m,
            r.spec.tile_n,
            r.spec.tile_k,
            i64::from(r.spec.relu),
        ] {
            h.i64(dim);
        }
        h.u64(r.arrival);
        h.u64(r.seed);
    }
    h.finish()
}

/// How a serve of a workload obtains its `Runtime`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// One `Runtime` for the whole run, module cache warmed in set-up.
    Warm,
    /// A fresh `Runtime` and a fresh store file per serve: the serve
    /// compiles everything it meets and flushes it.
    Cold,
    /// A fresh `Runtime` per serve over a copy of the store set-up
    /// populated: the serve restores, serves with zero builds, flushes.
    Restore,
}

/// A request stream served through `Runtime::serve` on the inline engine
/// (`Parallel { threads: 1 }`): one process, one thread, a closed loop on
/// the host clock (a whole pre-generated batch handed over at once) and
/// an open loop on the simulated clock (latency counted from each
/// request's scheduled arrival).
pub struct ServeWorkload {
    pub name: &'static str,
    /// The whole generated stream: the simulated metrics' serve.
    pub stream: Vec<TrafficRequest>,
    /// How many leading requests the timed trials (in [`BATCHES`] serves)
    /// and the traced run (in one) serve.
    pub timed: usize,
    pub gen_stream_s: f64,
    pub pool: PoolConfig,
    pub cfg: ServeConfig,
    pub flavor: Flavor,
    /// The traffic whose arrival gap the traced run's capacity sweep
    /// varies (the workload the sweep is stated for has one).
    pub capacity_sweep: Option<TrafficConfig>,
    /// Whether the traced run also serves on the threaded engines and
    /// compares their outcomes with the inline engine's.
    pub cross_check_engines: bool,
    /// The persistent runtime of a [`Flavor::Warm`] workload.
    runtime: Option<Runtime>,
    /// The store a [`Flavor::Restore`] serve starts from.
    golden: PathBuf,
}

impl ServeWorkload {
    fn new(
        name: &'static str,
        stream: Vec<TrafficRequest>,
        timed: usize,
        gen_stream_s: f64,
        pool: PoolConfig,
        policy: Policy,
        flavor: Flavor,
    ) -> Result<Self, String> {
        let store_dir = PathBuf::from(OUT_DIR).join("store");
        fs::create_dir_all(&store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))?;
        // per-process file names: two runs in one checkout must not share
        // a store
        let file = |kind: &str| store_dir.join(format!("{name}-{}.{kind}", std::process::id()));
        let cfg = ServeConfig {
            policy,
            opt: OptLevel::All,
            max_batch: 1,
            refine_cost: true,
            store: (flavor != Flavor::Warm).then(|| file("store")),
            mode: ServeMode::Parallel { threads: 1 },
            ..ServeConfig::default()
        };
        let mut workload = Self {
            name,
            stream,
            timed,
            gen_stream_s,
            pool,
            cfg,
            flavor,
            capacity_sweep: None,
            cross_check_engines: false,
            runtime: None,
            golden: file("golden"),
        };
        // let caches fill before timing: the module cache of a warm
        // runtime, the golden store of a restore workload, and (for every
        // flavor) the allocator and the CPU's own caches
        if flavor == Flavor::Warm {
            workload.runtime = Some(Runtime::new(workload.pool.clone()));
        }
        if flavor == Flavor::Restore {
            let golden_cfg = ServeConfig {
                store: Some(workload.golden.clone()),
                ..workload.cfg.clone()
            };
            let _ = fs::remove_file(&workload.golden);
            Runtime::new(workload.pool.clone())
                .serve(&workload.stream, &golden_cfg)
                .map_err(|e| format!("store pre-population failed: {e}"))?;
        }
        workload
            .serve_range(0..timed)
            .map_err(|e| format!("warm-up serve failed: {e}"))?;
        Ok(workload)
    }

    /// The requests the timed trials and the traced run serve.
    pub fn timed_stream(&self) -> &[TrafficRequest] {
        &self.stream[..self.timed]
    }

    /// One timed serve of `stream[range]`: `(report, wall s, CPU s)`.
    pub fn serve_range(&mut self, range: Range<usize>) -> Result<(ServeReport, f64, f64), String> {
        let store = self.cfg.store.as_ref();
        match self.flavor {
            Flavor::Warm => {}
            Flavor::Cold => {
                let _ = fs::remove_file(store.expect("a cold serve has a store"));
            }
            Flavor::Restore => {
                fs::copy(&self.golden, store.expect("a restore serve has a store"))
                    .map_err(|e| format!("copying the golden store: {e}"))?;
            }
        }
        let requests = &self.stream[range];
        let watch = Stopwatch::start();
        let report = match &mut self.runtime {
            Some(runtime) => runtime.serve(requests, &self.cfg),
            None => Runtime::new(self.pool.clone()).serve(requests, &self.cfg),
        };
        let (wall_s, cpu_s) = watch.stop();
        Ok((report.map_err(|e| e.to_string())?, wall_s, cpu_s))
    }

    /// Failed operations and violated invariants of one serve of
    /// `stream[range]`.
    pub fn check(&self, range: Range<usize>, report: &ServeReport) -> Vec<(u64, String)> {
        let m = &report.metrics;
        let mut failures = Vec::new();
        if m.check_failures + m.sim_failures > 0 {
            failures.push((
                m.check_failures + m.sim_failures,
                format!(
                    "{} functional-check and {} simulator failures",
                    m.check_failures, m.sim_failures
                ),
            ));
        }
        let distinct_modules = self.stream[range]
            .iter()
            .map(|r| (r.accelerator.as_str(), r.spec))
            .collect::<HashSet<_>>()
            .len() as u64;
        let expected_misses = match self.flavor {
            Flavor::Warm | Flavor::Restore => 0,
            Flavor::Cold => distinct_modules,
        };
        if m.cache.misses != expected_misses {
            failures.push((
                m.cache.misses.abs_diff(expected_misses),
                format!(
                    "{} module builds, expected {expected_misses}",
                    m.cache.misses
                ),
            ));
        }
        if self.flavor == Flavor::Restore {
            let avoided = m.warm_start.map_or(0, |w| w.builds_avoided);
            if avoided != distinct_modules {
                failures.push((
                    avoided.abs_diff(distinct_modules),
                    format!("restore avoided {avoided} builds of {distinct_modules}"),
                ));
            }
        }
        failures
    }

    /// The cost rows a restore serve's scheduler is seeded with.
    pub fn cost_seed(&self) -> Result<Vec<CostSnapshotEntry>, String> {
        if self.flavor != Flavor::Restore {
            return Ok(Vec::new());
        }
        let store = LogStore::open(&self.golden).map_err(|e| e.to_string())?;
        load_costs(&store).map_err(|e| e.to_string())
    }

    /// Serves `stream[..end]` in `batches` serves and folds them into one
    /// trial: a segment per serve, latencies pooled, writes and makespans
    /// summed.
    fn serve_batches(&mut self, end: usize, batches: usize) -> Result<Trial, String> {
        let size = end.div_ceil(batches).max(1);
        let mut trial = Trial {
            segments_s: Vec::new(),
            cpu_s: 0.0,
            ops: end as u64,
            failures: Vec::new(),
            sim: Sim {
                p50: 0,
                p99: 0,
                setup_writes: 0,
                makespan: 0,
                digest: 0,
            },
        };
        let mut latencies = Vec::with_capacity(end);
        let mut digest = Fnv::default();
        for start in (0..end).step_by(size) {
            let range = start..(start + size).min(end);
            let (report, wall_s, cpu_s) = self.serve_range(range.clone())?;
            trial.segments_s.push(wall_s);
            trial.cpu_s += cpu_s;
            trial.failures.extend(self.check(range, &report));
            trial.sim.setup_writes += report.metrics.setup_writes;
            trial.sim.makespan += report.metrics.makespan;
            for (c, &latency) in report.completions.iter().zip(&report.latencies) {
                digest.u64(c.worker as u64);
                digest.u64(c.emitted_writes);
                digest.u64(c.counters.cycles);
                digest.u64(latency);
            }
            latencies.extend(report.latencies);
        }
        trial.sim.p50 = percentile(&latencies, 0.50);
        trial.sim.p99 = percentile(&latencies, 0.99);
        trial.sim.digest = digest.finish();
        Ok(trial)
    }
}

impl Drop for ServeWorkload {
    fn drop(&mut self) {
        if let Some(store) = &self.cfg.store {
            let _ = fs::remove_file(store);
        }
        let _ = fs::remove_file(&self.golden);
    }
}

impl Workload for ServeWorkload {
    fn fingerprint(&self) -> u64 {
        stream_fingerprint(&self.stream)
    }

    fn trial(&mut self) -> Result<Trial, String> {
        self.serve_batches(self.timed, BATCHES)
    }

    fn reference(&mut self) -> Result<Option<Trial>, String> {
        self.serve_batches(self.stream.len(), 1).map(Some)
    }

    fn trace(
        &mut self,
        deadline: Instant,
        calibration: &mut Calibration,
    ) -> Result<(Traced, Tracer), String> {
        replay::trace_serve(self, deadline, calibration)
    }
}
