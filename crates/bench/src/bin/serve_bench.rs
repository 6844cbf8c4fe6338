//! Serving benchmark for the `accfg-runtime` dispatch layer: throughput,
//! latency, and configuration-write savings of the scheduling policies
//! across arrival processes, shape mixes, and pool provisioning — over
//! both evaluation platforms and their heterogeneous variants.
//!
//! Policies:
//!
//! - `fifo` — the production baseline: round-robin routing, every dispatch
//!   reprograms its full configuration;
//! - `fifo+elide` — round-robin routing with resident-state elision
//!   (isolates the value of cross-request state tracking);
//! - `fifo+elide+batch` — the above plus adjacent same-shape batching
//!   (batching's clearest win: it overrides round-robin scattering);
//! - `affinity` — config-affinity routing (queue-depth-aware, in
//!   estimated outstanding cycles) plus elision;
//! - `affinity+batch` — affinity with batching;
//! - `cost` — cycle-cost routing: minimize refined predicted cycles to
//!   completion over per-platform cost models, the policy heterogeneous
//!   pools need;
//! - `thermal` — frequency-aware cycle-cost routing: each candidate is
//!   priced at the DVFS mode the scheduler's shadow automaton predicts
//!   for it (frequency-keyed EWMA rows, agnostic fallback while cold),
//!   plus the contention penalty of pushing the dispatch's config
//!   traffic into a busy window; ties prefer the hotter worker, so
//!   boost residency concentrates instead of scattering. Identical to
//!   `cost` on identity-timing pools — it earns its keep on the
//!   `contention` stream.
//!
//! Streams:
//!
//! - `mixed` — the canonical six-shape open-loop mix (routing and balance
//!   both matter);
//! - `shape_heavy` — sixteen shapes over four workers: no static
//!   partition keeps every worker warm, so the routing term dominates;
//! - `bursty` — on/off arrivals that build deep queues, the worst case
//!   for sticky routing's tail latency;
//! - `closed_loop` — a fixed client population, self-limiting arrivals
//!   driven by a static per-request service estimate;
//! - `closed_loop_measured` — the same population, but each client's
//!   feedback uses the *measured* mean service time of its request's
//!   class (from a `fifo+elide` calibration serve of the static stream),
//!   so heavy shapes hold their clients proportionally longer;
//! - `hetero` — the mixed-platform mix served by a *heterogeneous* pool:
//!   each family pairs its base platform with a differently provisioned
//!   variant (`gemmini`+`gemmini-turbo`, `opengemm`+`opengemm-lite`),
//!   where write-count affinity scoring is blind to provisioning and
//!   cycle-cost routing earns its keep.
//!
//! - `contention` — the canonical mix at a tighter arrival gap, served
//!   by a pool whose platforms run their *reference timing models*
//!   (shared memory-bandwidth contention + DVFS frequency states,
//!   [`AcceleratorDescriptor::with_reference_timing`]): dispatch cost is
//!   no longer write-linear, the analytic anchors go wrong under load,
//!   and the per-(module, warmth) EWMA has a real gap to close — the
//!   stream that exercises the refiner (and the `cost` policy's cycle
//!   predictions) hardest. Its report rows carry the extra `timing`
//!   object (contention cycles, launches per frequency state).
//!
//! Writes the raw per-stream, per-policy metrics to `BENCH_runtime.json`
//! (validated as strict JSON before the file lands). Each stream object
//! opens with a `static_analysis` summary — `accfg-analyze`'s lint
//! counts and static elidable-write lower bound over the stream's raw
//! per-class modules, weighted by request count — ahead of the
//! per-policy sections, whose bytes it leaves untouched. Pass
//! `--requests <n>` for a reduced smoke run, `--out <path>` to write the
//! report elsewhere (CI uses both to avoid clobbering the committed
//! artifact), `--policies <a,b,...>` to exercise a subset of the policy
//! labels without paying for all of them, `--streams <a,b,...>` to
//! serve a subset of the stream names the same way (CI's thermal smoke
//! runs `--policies thermal --streams contention`), and
//! `--slack <cycles>` to sweep the load-slack horizon (sets both
//! `load_slack` and the batch cutoff, via
//! [`ServeConfig::with_load_slack`]) without recompiling.
//! `--batch-cutoff <cycles|none>` decouples the cutoff from the horizon:
//! it overrides the queue-depth cutoff for every policy row (`none`
//! disables the cap, i.e. uncapped coalescing) while `--slack` keeps
//! governing the routing horizon alone.
//!
//! `--tuned <TUNED.json>` replays the `autotune` binary's winning knob
//! configurations: every stream named in the table gains a `tuned` row —
//! served on a fresh runtime built from the tuned pool knobs (power cap,
//! DVFS variant) with the tuned `ServeConfig` knobs (policy, slack,
//! cutoff, batch) — next to the stock policy rows, so the tuned-vs-default
//! comparison lands in the same report. Like every non-default invocation
//! it refuses to write the committed artifact.
//!
//! `--mode` selects the plan the serve loop runs under and what the
//! binary measures:
//!
//! - `sim` (the default) — the reference plan, one scheduler shard over
//!   the whole pool (`ServeMode::Deterministic`); the only mode the
//!   committed artifact is generated from;
//! - `wall` — the same streams served under the *sharded* plan
//!   (`--threads <n>`, default 8 executor threads), with each stream's
//!   report object gaining an `engine` section recording wall-clock
//!   milliseconds and requests/sec of the runtime itself (not the
//!   simulated hardware) per policy. The simulated-cycle bars are
//!   byte-identical to `sim` — the plan never changes an outcome — so
//!   the `engine` object is strictly additive;
//! - `diff` — the differential smoke: every stream × policy pair served
//!   under both plans, asserting per-request outcome equality (the same
//!   property `tests/differential.rs` pins), then a small JSON summary.
//!
//! `wall` and `diff` print, per stream, the plan that actually ran
//! (`ServeReport::engine`: scheduler shards and executor threads).
//!
//! Non-`sim` modes never write the committed artifact: they require an
//! `--out` whose file name differs from `BENCH_runtime.json`.
//!
//! `--store <path>` switches the binary into the *warm-start* mode: the
//! `contention` stream is served twice against the given persistent
//! store — a cold pass into a fresh runtime that flushes its compiled
//! modules and learned EWMA state, then a warm pass into another fresh
//! runtime that restores them — and the report (a `warm_start` section
//! with the cold and warm metric rows) quantifies what persistence
//! saves: zero compile builds and converged cycle predictions from the
//! first request. The store file survives the run, so a second
//! invocation against the same path starts warm in its first pass —
//! that is the cross-process warm start the CI smoke checks.

use accfg_analyze::{lint_module, LintKind};
use accfg_bench::tune::{parse_table, KnobConfig};
use accfg_bench::{json, markdown_table, streams};
use accfg_runtime::{
    measured_class_service_times, Policy, PoolConfig, Runtime, ServeConfig, ServeMetrics,
    ServeMode, LOAD_SLACK_CYCLES,
};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::{matmul_ir, MatmulSpec, TrafficRequest};

const DEFAULT_REQUESTS: usize = 12_000;
const DEFAULT_THREADS: usize = 8;

/// Every stream name the sim/wall/diff modes can serve, in report order —
/// the vocabulary `--streams` validates against.
const STREAM_NAMES: [&str; 7] = [
    "mixed",
    "shape_heavy",
    "bursty",
    "closed_loop",
    "closed_loop_measured",
    "hetero",
    "contention",
];

/// Whether `--streams` (when given) selects this stream name.
fn stream_selected(filter: Option<&[String]>, name: &str) -> bool {
    filter.is_none_or(|f| f.iter().any(|s| s == name))
}

/// What the binary measures (`--mode`).
#[derive(Clone, Copy, PartialEq)]
enum BenchMode {
    /// Simulated-cycle bars from the reference plan (the default; the
    /// only mode the committed artifact is generated from).
    Sim,
    /// The same bars served under the sharded plan, plus wall-clock
    /// requests/sec of the runtime itself per stream and policy.
    Wall,
    /// Differential smoke: every stream × policy pair under both plans,
    /// asserting per-request outcome equality.
    Diff,
}

fn policies(
    include_batch: bool,
    slack: u64,
    cutoff: Option<Option<u64>>,
) -> Vec<(&'static str, ServeConfig)> {
    // with_load_slack keeps the cutoff pinned to the horizon; an explicit
    // --batch-cutoff decouples them for every policy row
    let slacked = ServeConfig::default().with_load_slack(slack);
    let slacked = ServeConfig {
        batch_cutoff: cutoff.unwrap_or(slacked.batch_cutoff),
        ..slacked
    };
    let base = |policy| ServeConfig {
        policy,
        ..slacked.clone()
    };
    let batched = |policy| ServeConfig {
        policy,
        max_batch: 8,
        ..slacked.clone()
    };
    let mut out = vec![
        ("fifo", base(Policy::Fifo)),
        ("fifo+elide", base(Policy::FifoElide)),
    ];
    if include_batch {
        out.push(("fifo+elide+batch", batched(Policy::FifoElide)));
    }
    out.push(("affinity", base(Policy::ConfigAffinity)));
    if include_batch {
        out.push(("affinity+batch", batched(Policy::ConfigAffinity)));
    }
    out.push(("cost", base(Policy::Cost)));
    out.push(("thermal", base(Policy::Thermal)));
    out
}

fn uniform_streams(requests: usize) -> Vec<(&'static str, Vec<TrafficRequest>, bool)> {
    let closed_loop = streams::closed_loop_config(requests)
        .stream()
        .expect("valid closed-loop mix");
    // the batch variants only on the canonical mix: they change placement,
    // not the routing-vs-balance story the extra streams characterize
    vec![
        ("mixed", streams::mixed_stream(requests), true),
        ("shape_heavy", streams::shape_heavy_stream(requests), false),
        ("bursty", streams::bursty_stream(requests), false),
        ("closed_loop", closed_loop, false),
    ]
}

/// One policy's measurements over a stream: label, the (deterministic)
/// serve metrics, and the wall-clock seconds the serve itself took —
/// the runtime's own speed, only reported in wall mode.
type PolicyRow = (String, ServeMetrics, f64);

/// Runs every (selected) policy over one stream and prints its table.
/// A stream deselected by `--streams` serves nothing and returns no
/// rows, so the caller drops its report section entirely. With `tuned`
/// (from `--tuned`), a `tuned` row joins the table: the tuned knobs
/// served on a fresh runtime over the tuned pool.
#[allow(clippy::too_many_arguments)]
fn run_stream(
    runtime: &mut Runtime,
    stream_name: &str,
    stream: &[TrafficRequest],
    include_batch: bool,
    filter: Option<&[String]>,
    streams: Option<&[String]>,
    slack: u64,
    cutoff: Option<Option<u64>>,
    serve_mode: ServeMode,
    tuned: Option<(KnobConfig, PoolConfig)>,
) -> Vec<PolicyRow> {
    let mut results: Vec<PolicyRow> = Vec::new();
    if !stream_selected(streams, stream_name) {
        return results;
    }
    // the plan depends on the mode and the pool's shape, not the policy
    let mut plan = None;
    for (label, cfg) in &policies(include_batch, slack, cutoff) {
        if let Some(filter) = filter {
            if !filter.iter().any(|f| f == label) {
                continue;
            }
        }
        let cfg = ServeConfig {
            mode: serve_mode,
            ..cfg.clone()
        };
        let started = std::time::Instant::now();
        let report = runtime.serve(stream, &cfg).expect("serve succeeds");
        let wall = started.elapsed().as_secs_f64();
        assert_eq!(
            report.metrics.check_failures, 0,
            "{stream_name}/{label}: functional checks failed"
        );
        assert_eq!(
            report.metrics.sim_failures, 0,
            "{stream_name}/{label}: simulation failed"
        );
        plan = Some(report.engine);
        results.push((label.to_string(), report.metrics, wall));
    }
    if let Some((knobs, base_pool)) = &tuned {
        // the tuned knobs span the pool too (power cap, DVFS variant), so
        // the row gets its own runtime over the tuned pool — a policy
        // filter never hides it: replaying the table is the row's point
        let mut tuned_runtime = Runtime::new(knobs.apply_pool(base_pool));
        let cfg = ServeConfig {
            mode: serve_mode,
            ..knobs.serve_config()
        };
        let started = std::time::Instant::now();
        let report = tuned_runtime.serve(stream, &cfg).expect("serve succeeds");
        let wall = started.elapsed().as_secs_f64();
        assert_eq!(
            report.metrics.check_failures, 0,
            "{stream_name}/tuned: functional checks failed"
        );
        assert_eq!(
            report.metrics.sim_failures, 0,
            "{stream_name}/tuned: simulation failed"
        );
        results.push(("tuned".to_string(), report.metrics, wall));
    }
    if results.is_empty() {
        // e.g. --policies affinity+batch on a stream that runs no batch
        // variants: nothing to measure here, the caller skips the stream
        println!("== {stream_name} == (skipped: no selected policy applies)\n");
        return results;
    }

    let find = |label: &str| {
        results
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|(_, m, _)| m)
    };
    let fifo = find("fifo").cloned();
    let elide_p99 = find("fifo+elide").map(|m| m.latency.p99);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(label, m, _)| {
            vec![
                label.clone(),
                m.setup_writes.to_string(),
                fifo.as_ref()
                    .map(|f| format!("{:.1}%", 100.0 * m.write_savings_vs(f)))
                    .unwrap_or_else(|| "-".into()),
                m.makespan.to_string(),
                format!("{:.1}", m.throughput_per_mcycle()),
                m.latency.p50.to_string(),
                m.latency.p99.to_string(),
                elide_p99
                    .map(|e| format!("{:.2}", m.latency.p99 as f64 / e.max(1) as f64))
                    .unwrap_or_else(|| "-".into()),
                m.queue_depth.max.to_string(),
                format!("{:.1}", m.prediction.anchor_mae()),
                format!("{:.1}", m.prediction.ewma_mae()),
                m.contention_cycles.to_string(),
                format!(
                    "{}/{}/{}",
                    m.freq_launches[0], m.freq_launches[1], m.freq_launches[2]
                ),
            ]
        })
        .collect();
    println!("== {stream_name} ==");
    if let (Some(plan), ServeMode::Parallel { .. }) = (plan, serve_mode) {
        println!("engine plan: {plan}");
    }
    print!(
        "{}",
        markdown_table(
            &[
                "policy",
                "setup writes",
                "saved vs fifo",
                "makespan (cyc)",
                "req/Mcycle",
                "p50 lat",
                "p99 lat",
                "p99 / elide p99",
                "max qdepth",
                "anchor MAE",
                "ewma MAE",
                "cont cyc",
                "freq c/w/b",
            ],
            &rows,
        )
    );

    // the refined estimates must not be worse than the static anchors on
    // the dispatches the scheduler actually charged for
    for (label, m, _) in results.iter().filter(|(_, m, _)| m.prediction.samples > 0) {
        assert!(
            m.prediction.ewma_abs_error <= m.prediction.anchor_abs_error,
            "{stream_name}/{label}: ewma MAE {:.1} > anchor MAE {:.1}",
            m.prediction.ewma_mae(),
            m.prediction.anchor_mae()
        );
    }
    if let Some(fifo) = &fifo {
        // elision guarantees the resident-aware policies never write more
        // than the cold baseline
        for label in ["affinity", "cost", "thermal"] {
            if let Some(m) = find(label) {
                assert!(
                    m.setup_writes <= fifo.setup_writes,
                    "{stream_name}: {label} wrote more than fifo"
                );
            }
        }
        if let (Some(affinity), Some(elide_p99)) = (find("affinity"), elide_p99) {
            println!(
                "affinity: {:.1}% fewer setup writes than fifo, p99 {:.2}x fifo+elide",
                100.0 * affinity.write_savings_vs(fifo),
                affinity.latency.p99 as f64 / elide_p99.max(1) as f64,
            );
        }
    }
    println!();
    results
}

/// Wall mode's per-policy requests/sec of the runtime itself. The serve
/// outcomes are engine-independent, so this is pure added information on
/// top of the simulated-cycle bars.
fn report_wall(stream_name: &str, results: &[PolicyRow], threads: usize) {
    for (label, m, wall) in results {
        let rps = m.requests as f64 / wall.max(f64::MIN_POSITIVE);
        assert!(
            rps > 0.0,
            "{stream_name}/{label}: wall-clock throughput must be positive"
        );
        println!(
            "{stream_name}/{label}: {:.1} ms wall ({threads} threads), \
             {rps:.0} requests/sec",
            wall * 1e3
        );
    }
    println!();
}

/// The wall-mode `engine` JSON object for one stream: wall-clock
/// milliseconds and requests/sec per policy, at the executor thread count
/// the run used. Emitted as a single report line so the per-policy metric
/// sections below keep their exact deterministic-mode bytes.
fn engine_json(results: &[PolicyRow], threads: usize) -> String {
    let policies: Vec<String> = results
        .iter()
        .map(|(label, m, wall)| {
            let wall = wall.max(f64::MIN_POSITIVE);
            format!(
                "\"{label}\": {{\"wall_ms\": {:.3}, \"requests_per_sec\": {:.1}}}",
                wall * 1e3,
                m.requests as f64 / wall
            )
        })
        .collect();
    format!(
        "{{\"mode\": \"wall\", \"threads\": {threads}, \"policies\": {{{}}}}}",
        policies.join(", ")
    )
}

/// The differential smoke (`--mode diff`): every stream × policy pair
/// served under the reference plan and the sharded plan — a fresh
/// runtime per serve, so module-cache provenance matches too — asserting
/// the per-request outcomes (routing, writes, cycles, latencies,
/// prediction samples) are identical, then a small JSON summary. This is
/// the same property `tests/differential.rs` pins; the binary form exists
/// so CI can run it at an arbitrary request count and thread count
/// without recompiling tests.
fn run_diff(
    requests: usize,
    threads: usize,
    out_path: &str,
    slack: u64,
    cutoff: Option<Option<u64>>,
    filter: Option<&[String]>,
    stream_filter: Option<&[String]>,
) {
    let mut pairs_under_test: Vec<(&'static str, Vec<TrafficRequest>, bool, PoolConfig)> =
        uniform_streams(requests)
            .into_iter()
            .filter(|(name, _, _)| stream_selected(stream_filter, name))
            .map(|(name, stream, include_batch)| {
                (name, stream, include_batch, streams::uniform_pool())
            })
            .collect();
    if stream_selected(stream_filter, "closed_loop_measured") {
        // the measured closed loop calibrates off a fifo+elide oracle
        // serve, exactly as the sim-mode report does
        let closed_cfg = streams::closed_loop_config(requests);
        let calibration_stream = closed_cfg.stream().expect("valid closed-loop mix");
        let calibration = Runtime::new(streams::uniform_pool())
            .serve(
                &calibration_stream,
                &ServeConfig {
                    policy: Policy::FifoElide,
                    ..ServeConfig::default().with_load_slack(slack)
                },
            )
            .expect("calibration serve succeeds");
        let service_times = measured_class_service_times(
            &closed_cfg.classes,
            &calibration_stream,
            &calibration,
            closed_cfg.service_estimate,
        );
        pairs_under_test.push((
            "closed_loop_measured",
            closed_cfg
                .stream_with_service_times(&service_times)
                .expect("valid measured closed-loop mix"),
            false,
            streams::uniform_pool(),
        ));
    }
    if stream_selected(stream_filter, "hetero") {
        pairs_under_test.push((
            "hetero",
            streams::hetero_stream(requests),
            false,
            streams::hetero_pool(),
        ));
    }
    if stream_selected(stream_filter, "contention") {
        pairs_under_test.push((
            "contention",
            streams::contention_stream(requests),
            false,
            streams::contention_pool(),
        ));
    }

    let mut pairs = 0usize;
    for (stream_name, stream, include_batch, pool) in &pairs_under_test {
        // the plans depend on the pool's shape, not the policy
        let mut plans = None;
        for (label, cfg) in &policies(*include_batch, slack, cutoff) {
            if let Some(filter) = filter {
                if !filter.iter().any(|f| f == label) {
                    continue;
                }
            }
            let oracle = Runtime::new(pool.clone())
                .serve(stream, cfg)
                .expect("oracle serve succeeds");
            let parallel = Runtime::new(pool.clone())
                .serve(
                    stream,
                    &ServeConfig {
                        mode: ServeMode::Parallel { threads },
                        ..cfg.clone()
                    },
                )
                .expect("parallel serve succeeds");
            assert_eq!(
                oracle.metrics, parallel.metrics,
                "{stream_name}/{label}: metrics diverge"
            );
            assert_eq!(
                oracle.latencies, parallel.latencies,
                "{stream_name}/{label}: latencies diverge"
            );
            assert_eq!(
                oracle.predictions, parallel.predictions,
                "{stream_name}/{label}: prediction samples diverge"
            );
            for (slot, (o, p)) in oracle
                .completions
                .iter()
                .zip(&parallel.completions)
                .enumerate()
            {
                assert_eq!(
                    o.worker, p.worker,
                    "{stream_name}/{label}: request {slot} routed differently"
                );
                assert_eq!(
                    o.emitted_writes, p.emitted_writes,
                    "{stream_name}/{label}: request {slot} wrote differently"
                );
                assert_eq!(
                    o.counters.cycles, p.counters.cycles,
                    "{stream_name}/{label}: request {slot} took different cycles"
                );
            }
            println!(
                "{stream_name}/{label}: identical over {} requests ({threads} threads)",
                stream.len()
            );
            plans = Some((oracle.engine, parallel.engine));
            pairs += 1;
        }
        if let Some((reference, sharded)) = plans {
            println!("{stream_name}: reference plan {reference}; sharded plan {sharded}\n");
        }
    }
    assert!(
        pairs > 0,
        "every stream × policy pair was skipped by --policies/--streams"
    );

    let out = format!(
        "{{\n  \"differential\": {{\"requests\": {requests}, \"threads\": {threads}, \
         \"streams\": {}, \"pairs\": {pairs}, \"identical\": true}}\n}}\n",
        pairs_under_test.len()
    );
    json::validate(&out).expect("differential report must be strict JSON");
    std::fs::write(out_path, &out).expect("write differential report");
    println!("{pairs} stream × policy pairs identical across plans; summary: {out_path}");
}

/// The stream's static-analysis summary: the config-write lints and the
/// static elidable-write lower bound of `accfg-analyze`, computed over the
/// *raw* per-class modules (exactly what the runtime compiles), weighted
/// by each class's request count. `elidable_bound` is the write-execution
/// count the analysis proves value-resident, so the measured dynamic
/// savings of any eliding policy — raw writes minus emitted writes — must
/// be at least this much; `tests/serving.rs` asserts that relation.
fn stream_static_analysis(stream: &[TrafficRequest]) -> String {
    let mut classes: Vec<(String, MatmulSpec, u64)> = Vec::new();
    for req in stream {
        match classes
            .iter_mut()
            .find(|(a, s, _)| *a == req.accelerator && *s == req.spec)
        {
            Some((_, _, n)) => *n += 1,
            None => classes.push((req.accelerator.clone(), req.spec, 1)),
        }
    }
    let (mut dead, mut redundant, mut clobbered) = (0usize, 0usize, 0usize);
    let (mut static_writes, mut elidable) = (0u64, 0u64);
    for (accel, spec, n) in &classes {
        let desc = match accel.as_str() {
            "gemmini" => AcceleratorDescriptor::gemmini(),
            "opengemm" => AcceleratorDescriptor::opengemm(),
            other => panic!("stream class targets unknown accelerator `{other}`"),
        };
        let report = lint_module(&matmul_ir(&desc, spec));
        dead += report.count(LintKind::DeadWrite);
        redundant += report.count(LintKind::RedundantWrite);
        clobbered += report.count(LintKind::ClobberedLaunch);
        static_writes += n * report.static_writes;
        elidable += n * report.elidable_bound;
    }
    format!(
        "{{\"dead_writes\": {dead}, \"redundant_writes\": {redundant}, \
         \"clobbered_launches\": {clobbered}, \"static_writes\": {static_writes}, \
         \"elidable_bound\": {elidable}}}"
    )
}

const DEFAULT_OUT: &str = "BENCH_runtime.json";

/// The warm-start mode (`--store <path>`): serve the contention stream
/// twice against one persistent store — cold pass flushes compiled
/// modules + learned EWMA state, warm pass restores them — and report
/// both metric rows under a `warm_start` section. Against a store file
/// left by an earlier invocation even the "cold" pass starts warm;
/// the cross-pass assertions only apply to a genuinely cold first pass.
fn run_warm_start(requests: usize, store_path: &str, out_path: &str, slack: u64) {
    let stream = streams::contention_stream(requests);
    let cfg = ServeConfig {
        policy: Policy::ConfigAffinity,
        store: Some(std::path::PathBuf::from(store_path)),
        ..ServeConfig::default().with_load_slack(slack)
    };

    let mut results: Vec<(&'static str, ServeMetrics)> = Vec::new();
    for pass in ["cold", "warm"] {
        // a fresh runtime per pass: nothing carries over in memory, so
        // everything the warm pass knows came back through the store
        let mut runtime = Runtime::new(streams::contention_pool());
        let report = runtime.serve(&stream, &cfg).expect("serve succeeds");
        let m = report.metrics;
        assert_eq!(m.check_failures, 0, "{pass} pass: functional checks failed");
        assert_eq!(m.sim_failures, 0, "{pass} pass: simulation failed");
        let w = m
            .warm_start
            .expect("store-backed serves report warm-start provenance");
        println!(
            "{pass} pass: restored {} modules, seeded {} ewma rows, avoided {} \
             compile builds ({} paid), anchor MAE {:.1}, ewma MAE {:.1}",
            w.modules_restored,
            w.ewma_entries_seeded,
            w.builds_avoided,
            m.cache.misses,
            m.prediction.anchor_mae(),
            m.prediction.ewma_mae(),
        );
        results.push((pass, m));
    }

    let cold = &results[0].1;
    let warm = &results[1].1;
    let warm_stats = warm.warm_start.expect("warm pass provenance");
    assert!(
        warm_stats.modules_restored > 0,
        "warm pass restored no modules from {store_path}"
    );
    assert_eq!(
        warm.cache.misses, 0,
        "warm pass paid {} compile builds despite the store",
        warm.cache.misses
    );
    if cold
        .warm_start
        .expect("cold pass provenance")
        .modules_restored
        == 0
    {
        // genuinely cold first pass: persistence must not make the
        // charged-path predictions worse than relearning from scratch
        assert!(
            warm.prediction.ewma_abs_error <= cold.prediction.ewma_abs_error,
            "warm ewma MAE {:.1} worse than cold {:.1}",
            warm.prediction.ewma_mae(),
            cold.prediction.ewma_mae()
        );
    }
    println!(
        "\nwarm start over {store_path}: {} modules + {} ewma rows restored, \
         compile builds {} -> {}, ewma MAE {:.1} -> {:.1}",
        warm_stats.modules_restored,
        warm_stats.ewma_entries_seeded,
        cold.cache.misses,
        warm.cache.misses,
        cold.prediction.ewma_mae(),
        warm.prediction.ewma_mae(),
    );

    let mut out = String::from("{\n  \"warm_start\": {\n");
    for (i, (pass, m)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let body = m
            .to_json()
            .lines()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join("\n");
        out.push_str(&format!("    \"{pass}\": {}{comma}\n", body.trim_start()));
    }
    out.push_str("  }\n}\n");
    json::validate(&out).expect("benchmark report must be strict JSON");
    std::fs::write(out_path, &out).expect("write benchmark report");
    println!("raw metrics: {out_path} (validated as strict JSON)");
}

fn main() {
    let mut requests = DEFAULT_REQUESTS;
    let mut out_path = String::from(DEFAULT_OUT);
    let mut policy_filter: Option<Vec<String>> = None;
    let mut stream_filter: Option<Vec<String>> = None;
    let mut slack = LOAD_SLACK_CYCLES;
    let mut store_path: Option<String> = None;
    let mut mode = BenchMode::Sim;
    let mut threads: Option<usize> = None;
    // outer None = flag absent (cutoff follows the slack horizon);
    // Some(None) = `--batch-cutoff none` (uncapped coalescing)
    let mut batch_cutoff: Option<Option<u64>> = None;
    let mut tuned_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => {
                requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .expect("--requests takes a positive integer");
            }
            "--slack" => {
                slack = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u64| n > 0)
                    .expect("--slack takes a positive cycle count");
            }
            "--out" => {
                out_path = args.next().expect("--out takes a file path");
            }
            "--store" => {
                store_path = Some(args.next().expect("--store takes a file path"));
            }
            "--batch-cutoff" => {
                let value = args
                    .next()
                    .expect("--batch-cutoff takes a cycle count or `none`");
                batch_cutoff = Some(match value.as_str() {
                    "none" => None,
                    _ => Some(
                        value
                            .parse()
                            .ok()
                            .filter(|&c: &u64| c > 0)
                            .expect("--batch-cutoff takes a positive cycle count or `none`"),
                    ),
                });
            }
            "--tuned" => {
                tuned_path = Some(args.next().expect("--tuned takes a tuned-table path"));
            }
            "--mode" => {
                mode = match args.next().as_deref() {
                    Some("sim") => BenchMode::Sim,
                    Some("wall") => BenchMode::Wall,
                    Some("diff") => BenchMode::Diff,
                    other => panic!("--mode takes sim, wall, or diff (got {other:?})"),
                };
            }
            "--threads" => {
                threads = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .expect("--threads takes a positive integer"),
                );
            }
            "--policies" => {
                let list = args
                    .next()
                    .expect("--policies takes a comma-separated list");
                let known: Vec<&str> = policies(true, LOAD_SLACK_CYCLES, None)
                    .iter()
                    .map(|(l, _)| *l)
                    .collect();
                let selected: Vec<String> = list.split(',').map(str::to_string).collect();
                for label in &selected {
                    assert!(
                        known.contains(&label.as_str()),
                        "unknown policy `{label}` (known: {})",
                        known.join(", ")
                    );
                }
                policy_filter = Some(selected);
            }
            "--streams" => {
                let list = args.next().expect("--streams takes a comma-separated list");
                let selected: Vec<String> = list.split(',').map(str::to_string).collect();
                for name in &selected {
                    assert!(
                        STREAM_NAMES.contains(&name.as_str()),
                        "unknown stream `{name}` (known: {})",
                        STREAM_NAMES.join(", ")
                    );
                }
                stream_filter = Some(selected);
            }
            other => panic!(
                "unknown argument `{other}` (supported: --requests <n>, \
                 --out <path>, --policies <a,b,...>, --streams <a,b,...>, \
                 --slack <cycles>, --batch-cutoff <cycles|none>, \
                 --tuned <path>, --store <path>, --mode <sim|wall|diff>, \
                 --threads <n>)"
            ),
        }
    }
    // a filtered, slack-swept, reduced, warm-start, or non-sim-mode run
    // produces a report that is not the committed artifact: refuse to
    // overwrite it (by file name, so alternate spellings of the same
    // path cannot slip past). `--threads` counts even in sim mode — a
    // partial wall-mode invocation mistyped as sim must not land on the
    // deterministic artifact either.
    assert!(
        (policy_filter.is_none()
            && stream_filter.is_none()
            && slack == LOAD_SLACK_CYCLES
            && requests == DEFAULT_REQUESTS
            && store_path.is_none()
            && mode == BenchMode::Sim
            && threads.is_none()
            && batch_cutoff.is_none()
            && tuned_path.is_none())
            || std::path::Path::new(&out_path).file_name()
                != std::path::Path::new(DEFAULT_OUT).file_name(),
        "--policies/--streams/--slack/--batch-cutoff/--tuned/--requests/\
         --store/--mode/--threads write a non-canonical report; pass --out \
         with a file name other than {DEFAULT_OUT} so it cannot clobber \
         the committed artifact"
    );
    let tuned_table: Option<Vec<(String, KnobConfig)>> = tuned_path.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--tuned: cannot read {path}: {e}"));
        parse_table(&text).unwrap_or_else(|e| panic!("--tuned: {path}: {e}"))
    });
    if let Some(store) = &store_path {
        assert!(
            policy_filter.is_none(),
            "--store runs the warm-start passes under the affinity policy; \
             it cannot be combined with --policies"
        );
        assert!(
            stream_filter.is_none(),
            "--store always serves the contention stream for both passes; \
             it cannot be combined with --streams"
        );
        assert!(
            mode == BenchMode::Sim,
            "--store runs its passes on the deterministic engine; \
             it cannot be combined with --mode"
        );
        assert!(
            batch_cutoff.is_none() && tuned_table.is_none(),
            "--store serves a fixed affinity configuration; it cannot be \
             combined with --batch-cutoff or --tuned"
        );
        run_warm_start(requests, store, &out_path, slack);
        return;
    }
    let filter = policy_filter.as_deref();
    let streams_wanted = stream_filter.as_deref();
    let threads = threads.unwrap_or(DEFAULT_THREADS);
    if mode == BenchMode::Diff {
        assert!(
            tuned_table.is_none(),
            "--tuned adds report rows to the sim/wall tables; \
             it cannot be combined with --mode diff"
        );
        run_diff(
            requests,
            threads,
            &out_path,
            slack,
            batch_cutoff,
            filter,
            streams_wanted,
        );
        return;
    }
    let serve_mode = match mode {
        BenchMode::Sim => ServeMode::Deterministic,
        _ => ServeMode::Parallel { threads },
    };

    // a stream appears in the tuned table -> its section gains a `tuned`
    // row served over the given base pool with the table's knobs applied
    let tuned_knobs = |name: &str| {
        tuned_table
            .as_ref()
            .and_then(|t| t.iter().find(|(n, _)| n == name))
            .map(|(_, k)| *k)
    };

    let mut runtime = Runtime::new(streams::uniform_pool());

    println!(
        "serve_bench: {requests} requests per stream, 2 workers/accelerator, \
         slack horizon {slack} cycles\n"
    );
    if mode == BenchMode::Wall {
        println!(
            "wall mode: sharded plan, thread budget {threads} — \
             measuring the runtime's own requests/sec\n"
        );
    }

    // (stream name, static-analysis JSON object, per-policy rows)
    type StreamSection<'a> = (&'a str, String, Vec<PolicyRow>);
    let mut all: Vec<StreamSection> = Vec::new();
    for (stream_name, stream, include_batch) in &uniform_streams(requests) {
        let results = run_stream(
            &mut runtime,
            stream_name,
            stream,
            *include_batch,
            filter,
            streams_wanted,
            slack,
            batch_cutoff,
            serve_mode,
            tuned_knobs(stream_name).map(|k| (k, streams::uniform_pool())),
        );
        if mode == BenchMode::Wall {
            report_wall(stream_name, &results, threads);
        }
        if !results.is_empty() {
            all.push((stream_name, stream_static_analysis(stream), results));
        }
    }

    // closed-loop fidelity: re-drive the client feedback with the
    // *measured* mean service time of each class, taken from a
    // calibration serve (fifo+elide — routing-neutral state tracking) of
    // the static-estimate stream above. A `--streams` filter that drops
    // this stream also skips the calibration serve it would pay for.
    if stream_selected(streams_wanted, "closed_loop_measured") {
        let closed_cfg = streams::closed_loop_config(requests);
        let calibration_stream = closed_cfg.stream().expect("valid closed-loop mix");
        let calibration = runtime
            .serve(
                &calibration_stream,
                &ServeConfig {
                    policy: Policy::FifoElide,
                    mode: serve_mode,
                    ..ServeConfig::default().with_load_slack(slack)
                },
            )
            .expect("calibration serve succeeds");
        let service_times = measured_class_service_times(
            &closed_cfg.classes,
            &calibration_stream,
            &calibration,
            closed_cfg.service_estimate,
        );
        println!(
            "closed-loop calibration: measured per-class service times {service_times:?} \
             (static estimate was {})\n",
            closed_cfg.service_estimate
        );
        let measured_stream = closed_cfg
            .stream_with_service_times(&service_times)
            .expect("valid measured closed-loop mix");
        let measured_results = run_stream(
            &mut runtime,
            "closed_loop_measured",
            &measured_stream,
            false,
            filter,
            streams_wanted,
            slack,
            batch_cutoff,
            serve_mode,
            tuned_knobs("closed_loop_measured").map(|k| (k, streams::uniform_pool())),
        );
        if mode == BenchMode::Wall {
            report_wall("closed_loop_measured", &measured_results, threads);
        }
        if !measured_results.is_empty() {
            all.push((
                "closed_loop_measured",
                stream_static_analysis(&measured_stream),
                measured_results,
            ));
        }
    }

    // the heterogeneous pool: same capacity (2 workers/family), but each
    // family pairs its base platform with a differently provisioned
    // variant — its own runtime, so module caches stay per-pool
    let mut hetero_runtime = Runtime::new(streams::hetero_pool());
    let hetero_stream = streams::hetero_stream(requests);
    let hetero_results = run_stream(
        &mut hetero_runtime,
        "hetero",
        &hetero_stream,
        false,
        filter,
        streams_wanted,
        slack,
        batch_cutoff,
        serve_mode,
        tuned_knobs("hetero").map(|k| (k, streams::hetero_pool())),
    );
    if mode == BenchMode::Wall {
        report_wall("hetero", &hetero_results, threads);
    }
    let hetero_find = |label: &str| {
        hetero_results
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|(_, m, _)| m)
    };
    if let (Some(cost), Some(affinity)) = (hetero_find("cost"), hetero_find("affinity")) {
        // the heterogeneous acceptance bar: cycle-cost routing beats
        // write-count affinity on its own metric
        assert!(
            cost.setup_writes <= affinity.setup_writes,
            "hetero: cost wrote {} setup registers, affinity {}",
            cost.setup_writes,
            affinity.setup_writes
        );
        println!(
            "hetero: cost {} setup writes vs affinity {} ({:.1}% fewer), \
             p99 {} vs {} cycles",
            cost.setup_writes,
            affinity.setup_writes,
            100.0 * cost.write_savings_vs(affinity),
            cost.latency.p99,
            affinity.latency.p99,
        );
    }
    if !hetero_results.is_empty() {
        all.push((
            "hetero",
            stream_static_analysis(&hetero_stream),
            hetero_results,
        ));
    }

    // the timing-model stream: the canonical mix at a tighter arrival
    // gap over the reference contention + DVFS pool — dispatch cost now
    // depends on worker load, so the analytic anchors drift and the
    // EWMA refiner has a real gap to close
    let mut contention_runtime = Runtime::new(streams::contention_pool());
    let contention_stream = streams::contention_stream(requests);
    let contention_results = run_stream(
        &mut contention_runtime,
        "contention",
        &contention_stream,
        false,
        filter,
        streams_wanted,
        slack,
        batch_cutoff,
        serve_mode,
        tuned_knobs("contention").map(|k| (k, streams::contention_pool())),
    );
    if mode == BenchMode::Wall {
        report_wall("contention", &contention_results, threads);
    }
    let contention_find = |label: &str| {
        contention_results
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|(_, m, _)| m)
    };
    if let (Some(cost), Some(affinity)) = (contention_find("cost"), contention_find("affinity")) {
        println!(
            "contention: anchor MAE {:.1} vs ewma MAE {:.1} under affinity \
             ({} contended host cycles, launches cold/warm/boost \
             {}/{}/{}); cost p99 {} vs affinity p99 {} cycles",
            affinity.prediction.anchor_mae(),
            affinity.prediction.ewma_mae(),
            affinity.contention_cycles,
            affinity.freq_launches[0],
            affinity.freq_launches[1],
            affinity.freq_launches[2],
            cost.latency.p99,
            affinity.latency.p99,
        );
    }
    if !contention_results.is_empty() {
        all.push((
            "contention",
            stream_static_analysis(&contention_stream),
            contention_results,
        ));
    }
    assert!(
        !all.is_empty(),
        "every stream was skipped by --policies/--streams"
    );

    // per-class SLO view of the canonical mix under affinity
    if let Some(mixed_affinity) = all
        .iter()
        .find(|(stream, _, _)| *stream == "mixed")
        .and_then(|(_, _, results)| results.iter().find(|(label, _, _)| label == "affinity"))
    {
        println!("\n== mixed / affinity, per class ==");
        let class_rows: Vec<Vec<String>> = mixed_affinity
            .1
            .per_class
            .iter()
            .map(|c| {
                vec![
                    c.class.clone(),
                    c.requests.to_string(),
                    c.latency.p50.to_string(),
                    c.latency.p99.to_string(),
                    c.latency.max.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            markdown_table(&["class", "requests", "p50", "p99", "max"], &class_rows)
        );
    }

    let mut out = String::from("{\n");
    for (si, (stream_name, static_analysis, results)) in all.iter().enumerate() {
        let stream_comma = if si + 1 == all.len() { "" } else { "," };
        out.push_str(&format!("  \"{stream_name}\": {{\n"));
        // the static-analysis summary leads the stream object so every
        // per-policy section below keeps its exact bytes from earlier
        // report formats
        out.push_str(&format!("    \"static_analysis\": {static_analysis},\n"));
        // the engine section only exists in wall mode: deterministic-mode
        // reports keep their exact committed bytes
        if mode == BenchMode::Wall {
            out.push_str(&format!(
                "    \"engine\": {},\n",
                engine_json(results, threads)
            ));
        }
        for (i, (label, m, _)) in results.iter().enumerate() {
            let comma = if i + 1 == results.len() { "" } else { "," };
            let body = m
                .to_json()
                .lines()
                .map(|l| format!("    {l}"))
                .collect::<Vec<_>>()
                .join("\n");
            out.push_str(&format!("    \"{label}\": {}{comma}\n", body.trim_start()));
        }
        out.push_str(&format!("  }}{stream_comma}\n"));
    }
    out.push_str("}\n");
    json::validate(&out).expect("benchmark report must be strict JSON");
    std::fs::write(&out_path, &out).expect("write benchmark report");
    println!("\nraw metrics: {out_path} (validated as strict JSON)");
}
