//! Schedule-independence of the serve loop.
//!
//! The runtime has one serve loop (`engine::run_shard`); `ServeMode`
//! only chooses the *plan* it runs under. `ServeMode::Deterministic` —
//! one scheduler shard over the whole pool — is the *reference
//! configuration*: its per-request outcomes define correct behaviour.
//! The sharded plan (`ServeMode::Parallel`, one shard per set of pool
//! groups sharing a base platform name, served one after another) must
//! reproduce those outcomes exactly — writes, cycles, latencies,
//! prediction samples, routing. This suite pins that property, *reference
//! plan vs sharded plan*, over every `serve_bench` stream × policy pair
//! (at reduced request counts), and property-tests it over random
//! streams, pool shapes, slack horizons, and batch settings. It also
//! pins what the plans are (`ServeReport::engine`), that a bounded budget
//! forces one shard, that `Parallel`'s `threads` field selects nothing,
//! that warm starts split persisted cost rows across shards without
//! changing an outcome or a store byte, and that a warm start reads only
//! its stream's working set under either plan. The loop body's own
//! reference is the committed output of the reference plan:
//! `BENCH_runtime.json` and `TUNED.json` regenerate byte-identically.

use accfg_bench::streams::{self, contention_pool, hetero_pool, uniform_pool};
use configuration_wall::prelude::*;
use configuration_wall::runtime::persist::{cost_key_bytes, module_key_bytes};
use configuration_wall::runtime::{
    load_costs, CacheKey, EnginePlan, Policy, PoolGroup, ServeBudget, ServeMode, ServeReport,
};
use configuration_wall::store::{KeyValueStore, LogStore};
use configuration_wall::workloads::{
    mixed_platform_classes, mixed_serving_classes, shape_heavy_classes, BurstyConfig, TrafficClass,
    TrafficRequest,
};
use proptest::prelude::*;

/// The sharded plan (`threads` selects nothing — pinned below).
const SHARDED: ServeMode = ServeMode::Parallel { threads: 1 };

/// Outcome-by-outcome equality: aggregate metrics (module-cache
/// provenance included — both serves run on fresh runtimes), per-request
/// latencies and prediction samples, and per-request completions down to
/// routing, emitted/cold writes, and simulated cycles.
fn assert_identical(oracle: &ServeReport, parallel: &ServeReport, context: &str) {
    assert_eq!(
        oracle.metrics, parallel.metrics,
        "{context}: metrics diverge"
    );
    assert_eq!(
        oracle.latencies, parallel.latencies,
        "{context}: latencies diverge"
    );
    assert_eq!(
        oracle.predictions, parallel.predictions,
        "{context}: prediction samples diverge"
    );
    assert_eq!(oracle.completions.len(), parallel.completions.len());
    for (slot, (o, p)) in oracle
        .completions
        .iter()
        .zip(&parallel.completions)
        .enumerate()
    {
        assert_eq!(
            o.worker, p.worker,
            "{context}: request {slot} routed differently"
        );
        assert_eq!(
            o.emitted_writes, p.emitted_writes,
            "{context}: request {slot} emitted different writes"
        );
        assert_eq!(
            o.cold_writes, p.cold_writes,
            "{context}: request {slot} reports different cold writes"
        );
        assert_eq!(
            o.counters.cycles, p.counters.cycles,
            "{context}: request {slot} took different cycles"
        );
        assert_eq!(
            o.check_error.is_none(),
            p.check_error.is_none(),
            "{context}: request {slot} check outcomes diverge"
        );
        assert_eq!(
            o.sim_error.is_none(),
            p.sim_error.is_none(),
            "{context}: request {slot} sim outcomes diverge"
        );
    }
}

/// Arrival-to-completion latencies recomputed outside the engine: every
/// worker runs the requests routed to it back to back in dispatch order
/// (`(arrival, id, slot)`), a dispatch starting once its predecessor has
/// finished and its request has arrived.
fn replayed_latencies(stream: &[TrafficRequest], report: &ServeReport) -> Vec<u64> {
    let mut order: Vec<usize> = (0..stream.len()).collect();
    order.sort_by_key(|&i| (stream[i].arrival, stream[i].id, i));
    let mut ready = vec![0u64; report.metrics.workers.len()];
    let mut latencies = vec![0u64; stream.len()];
    for i in order {
        let completion = &report.completions[i];
        let start = ready[completion.worker].max(stream[i].arrival);
        ready[completion.worker] = start + completion.counters.cycles;
        latencies[i] = ready[completion.worker] - stream[i].arrival;
    }
    latencies
}

/// Serves `stream` under `cfg` on the reference plan, then on the sharded
/// plan — each on a fresh runtime, so cache statistics match — and
/// asserts the sharded report is identical to the oracle's. The oracle's
/// latencies, which the report takes from the finish cycles the serve
/// loop computed, must also equal an independent worker-by-worker replay
/// of the completions' cycles.
fn serve_both(pool: &PoolConfig, stream: &[TrafficRequest], cfg: &ServeConfig, context: &str) {
    let oracle = Runtime::new(pool.clone())
        .serve(stream, cfg)
        .expect("oracle serve succeeds");
    assert_eq!(
        oracle.latencies,
        replayed_latencies(stream, &oracle),
        "{context}: latencies diverge from a replay of the completions"
    );
    let sharded = Runtime::new(pool.clone())
        .serve(
            stream,
            &ServeConfig {
                mode: SHARDED,
                ..cfg.clone()
            },
        )
        .expect("sharded serve succeeds");
    assert_identical(&oracle, &sharded, context);
}

/// Every policy over one stream.
fn check_stream(name: &str, pool: PoolConfig, stream: &[TrafficRequest]) {
    for policy in Policy::ALL {
        let cfg = ServeConfig {
            policy,
            ..ServeConfig::default()
        };
        serve_both(&pool, stream, &cfg, &format!("{name}/{}", policy.label()));
    }
}

fn open_loop(
    classes: Vec<TrafficClass>,
    requests: usize,
    mean_gap: u64,
    seed: u64,
) -> Vec<TrafficRequest> {
    TrafficConfig {
        classes,
        requests,
        mean_gap,
        seed,
    }
    .open_loop_stream()
    .expect("valid mix")
}

#[test]
fn mixed_stream_matches() {
    check_stream("mixed", uniform_pool(), &streams::mixed_stream(400));
}

#[test]
fn mixed_stream_matches_with_batching() {
    // the batch scan is the one decision that reads ahead in the group's
    // arrival order — pin it separately from the plain per-policy sweep
    let stream = streams::mixed_stream(400);
    for policy in [Policy::FifoElide, Policy::ConfigAffinity] {
        let cfg = ServeConfig {
            policy,
            max_batch: 8,
            ..ServeConfig::default()
        };
        serve_both(
            &uniform_pool(),
            &stream,
            &cfg,
            &format!("mixed+batch/{}", policy.label()),
        );
    }
}

#[test]
fn shape_heavy_stream_matches() {
    check_stream(
        "shape_heavy",
        uniform_pool(),
        &streams::shape_heavy_stream(300),
    );
}

#[test]
fn bursty_stream_matches() {
    let stream = streams::bursty_stream(300);
    check_stream("bursty", uniform_pool(), &stream);
}

#[test]
fn closed_loop_stream_matches() {
    let stream = streams::closed_loop_config(300)
        .stream()
        .expect("valid closed-loop mix");
    check_stream("closed_loop", uniform_pool(), &stream);
}

#[test]
fn closed_loop_measured_stream_matches() {
    // calibrated exactly as serve_bench builds the stream: the catalog
    // entry, resolved against a calibration serve of its static-estimate
    // sequence
    let entry = streams::catalog(300)
        .into_iter()
        .find(|entry| entry.name == "closed_loop_measured")
        .expect("the catalog carries the measured closed loop");
    let calibration = serve(
        &entry.pool.build(),
        &entry.requests,
        &ServeConfig {
            policy: streams::CALIBRATION_POLICY,
            ..ServeConfig::default()
        },
    );
    let (_, stream) = entry.calibrated(&calibration);
    check_stream("closed_loop_measured", entry.pool.build(), &stream);
}

#[test]
fn hetero_stream_matches() {
    check_stream("hetero", hetero_pool(), &streams::hetero_stream(300));
}

#[test]
fn contention_stream_matches() {
    // the reference timing models (contention + DVFS) make observed
    // cycles load-dependent — the hardest stream for the refiner, and
    // therefore for outcome equality through the shards' observe order
    check_stream(
        "contention",
        contention_pool(),
        &streams::contention_stream(250),
    );
}

/// Serves `stream` on a fresh runtime over `pool`.
fn serve(pool: &PoolConfig, stream: &[TrafficRequest], cfg: &ServeConfig) -> ServeReport {
    Runtime::new(pool.clone())
        .serve(stream, cfg)
        .expect("serve succeeds")
}

#[test]
fn groups_sharing_a_base_name_share_a_shard() {
    // two groups fielding the same base platform share refiner rows
    // (module keys name the base), so they must share a scheduler shard;
    // the third group shares nothing and gets its own
    let gemmini = AcceleratorDescriptor::gemmini();
    let opengemm = AcceleratorDescriptor::opengemm();
    let group = |family: &str, desc: &AcceleratorDescriptor| PoolGroup {
        family: family.into(),
        members: vec![desc.clone(), desc.clone()],
        power_cap: None,
    };
    let pool = PoolConfig {
        groups: vec![
            group("a", &gemmini),
            group("b", &gemmini),
            group("opengemm", &opengemm),
        ],
        ..uniform_pool()
    };
    let mut stream = open_loop(mixed_serving_classes(), 300, 100, 0x5A4ED);
    for (i, request) in stream.iter_mut().enumerate() {
        if request.accelerator == "gemmini" {
            request.accelerator = if i % 2 == 0 { "a".into() } else { "b".into() };
        }
    }
    // the reference and every budgeted serve: one shard
    let one_shard = EnginePlan { shards: 1 };
    for policy in [Policy::FifoElide, Policy::ConfigAffinity, Policy::Cost] {
        let cfg = ServeConfig {
            policy,
            ..ServeConfig::default()
        };
        let oracle = serve(&pool, &stream, &cfg);
        assert_eq!(oracle.engine, one_shard);
        let parallel = ServeConfig {
            mode: SHARDED,
            ..cfg.clone()
        };
        let sharded = serve(&pool, &stream, &parallel);
        let context = format!("shared base/{}", policy.label());
        assert_identical(&oracle, &sharded, &context);
        assert_eq!(sharded.engine, EnginePlan { shards: 2 }, "{context}");
        // a bounded budget overrides the mode: the reference plan
        let budgeted = serve(
            &pool,
            &stream,
            &ServeConfig {
                budget: Some(ServeBudget {
                    p99_bound: Some(u64::MAX),
                    max_setup_writes: None,
                }),
                ..parallel
            },
        );
        assert_identical(&oracle, &budgeted, &format!("{context} budgeted"));
        assert_eq!(budgeted.engine, one_shard, "{context} budgeted");
    }
}

#[test]
fn bench_pools_plan_one_shard_per_group() {
    // distinct base names everywhere: nothing forces groups together
    let stream = open_loop(mixed_serving_classes(), 40, 200, 0x9147);
    for (name, pool) in [
        ("uniform", uniform_pool()),
        ("hetero", hetero_pool()),
        ("contention", contention_pool()),
    ] {
        let cfg = ServeConfig::default();
        let reference = serve(&pool, &stream, &cfg);
        assert_eq!(reference.engine, EnginePlan { shards: 1 }, "{name}");
        let report = serve(
            &pool,
            &stream,
            &ServeConfig {
                mode: SHARDED,
                ..cfg.clone()
            },
        );
        assert_eq!(report.engine, EnginePlan { shards: 2 }, "{name}");
    }
}

#[test]
fn every_thread_budget_is_the_same_sharded_plan() {
    // `Parallel { threads }` keeps its shape for the repository benchmark,
    // which constructs it at 1 and 2; the field selects nothing, so the
    // reports are equal in every field, `engine` included (`Debug` prints
    // them all) — and 0 is as good a value as any
    let stream = streams::mixed_stream(120);
    let report = |threads: usize| {
        let cfg = ServeConfig {
            mode: ServeMode::Parallel { threads },
            ..ServeConfig::default()
        };
        serve(&uniform_pool(), &stream, &cfg)
    };
    let first = report(0);
    assert_eq!(first.engine, EnginePlan { shards: 2 });
    assert_eq!(first.metrics.sim_failures + first.metrics.check_failures, 0);
    for threads in [1, 2, 8] {
        assert_eq!(
            format!("{first:?}"),
            format!("{:?}", report(threads)),
            "x{threads}"
        );
    }
}

fn temp_store(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("accfg_differential_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{name}_{}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Warm-starts `pool` from a copy of the store at `seeded` under the
/// reference plan and under the sharded plan, and asserts the split of
/// the persisted cost rows across shards changes nothing: outcomes and
/// `warm_start` provenance (inside the metrics) equal the reference's,
/// and the flushed store files are byte-identical. Returns the
/// reference serve's report and store bytes.
fn check_warm_start_across_plans(
    name: &str,
    pool: &PoolConfig,
    seeded: &std::path::Path,
    stream: &[TrafficRequest],
    policy: Policy,
) -> (ServeReport, Vec<u8>) {
    let serve_copy = |mode: ServeMode, tag: &str| {
        let path = temp_store(&format!("{name}_{tag}"));
        std::fs::copy(seeded, &path).expect("copy the seeded store");
        let report = serve(
            pool,
            stream,
            &ServeConfig {
                policy,
                mode,
                store: Some(path.clone()),
                ..ServeConfig::default()
            },
        );
        let bytes = std::fs::read(&path).expect("read the flushed store");
        let _ = std::fs::remove_file(&path);
        (report, bytes)
    };
    let (reference, reference_bytes) = serve_copy(ServeMode::Deterministic, "det");
    let (report, bytes) = serve_copy(SHARDED, "par");
    let context = format!("{name} warm start");
    assert_identical(&reference, &report, &context);
    assert_eq!(reference_bytes, bytes, "{context}: store files diverge");
    (reference, reference_bytes)
}

#[test]
fn warm_start_cost_rows_split_across_shards_without_a_trace() {
    for (name, pool, classes) in [
        ("uniform", uniform_pool(), mixed_serving_classes()),
        ("hetero", hetero_pool(), mixed_platform_classes()),
    ] {
        // the cost policy routes on the refined estimates, so a row
        // seeded into the wrong shard would move a routing decision
        let seeded = temp_store(&format!("{name}_seeded"));
        let populate = ServeConfig {
            policy: Policy::Cost,
            store: Some(seeded.clone()),
            ..ServeConfig::default()
        };
        serve(
            &pool,
            &open_loop(classes.clone(), 300, 200, 0x5EED0),
            &populate,
        );
        let (reference, _) = check_warm_start_across_plans(
            name,
            &pool,
            &seeded,
            &open_loop(classes, 300, 200, 0x5EED1),
            Policy::Cost,
        );
        let warm = reference.metrics.warm_start.expect("store configured");
        assert!(warm.ewma_entries_seeded > 0, "{name}: nothing was seeded");
        assert_eq!(
            reference.metrics.cache.misses, 0,
            "{name}: modules restored"
        );
        let _ = std::fs::remove_file(&seeded);
    }
}

#[test]
fn orphaned_cost_rows_are_never_loaded_and_survive_the_flush() {
    // a store written by the hetero pool, read by a pool whose gemmini
    // group fields only the turbo variant: the turbo rows of modules
    // compiled for the `gemmini` base name a platform the new pool
    // fields but a base no group compiles for. No stream the new pool
    // serves can resolve such a module, so the rows are never read —
    // under either plan — and the flush never rewrites them
    let seeded = temp_store("reshaped_seeded");
    let populate = ServeConfig {
        policy: Policy::Cost,
        store: Some(seeded.clone()),
        ..ServeConfig::default()
    };
    let classes = mixed_platform_classes();
    serve(
        &hetero_pool(),
        &open_loop(classes.clone(), 300, 200, 0x5EED2),
        &populate,
    );
    // (store key, raw value) of every orphaned row, and how many rows
    // the reshaped pool *can* own: its bases are `gemmini-turbo` and
    // `opengemm`, and only the latter has modules in this store
    let rows = |store: &LogStore| load_costs(store).expect("cost rows decode");
    let orphaned = |store: &LogStore| {
        rows(store)
            .iter()
            .filter(|(platform, key, _)| {
                platform == "gemmini-turbo" && key.accelerator == "gemmini"
            })
            .map(|(platform, key, _)| {
                let store_key = cost_key_bytes(platform, key);
                let value = store.get(&store_key).expect("row is live").to_vec();
                (store_key, value)
            })
            .collect::<Vec<_>>()
    };
    let before_store = LogStore::open(&seeded).expect("open the seeded store");
    let before = orphaned(&before_store);
    assert!(!before.is_empty(), "the hetero serve learned turbo rows");
    let owned = rows(&before_store)
        .iter()
        .filter(|(platform, key, _)| platform == "opengemm" && key.accelerator == "opengemm")
        .count() as u64;
    drop(before_store);

    let reshaped = PoolConfig::new(vec![
        AcceleratorDescriptor::gemmini(),
        AcceleratorDescriptor::opengemm(),
    ])
    .with_workers_per_accelerator(1)
    .with_variant("gemmini", AcceleratorDescriptor::gemmini_turbo());
    let (reference, bytes) = check_warm_start_across_plans(
        "reshaped",
        &reshaped,
        &seeded,
        &open_loop(classes, 200, 200, 0x5EED3),
        Policy::Cost,
    );
    // the orphaned rows are not counted as seeded: what is seeded is
    // exactly the rows of the modules the stream resolved
    let warm = reference.metrics.warm_start.expect("store configured");
    assert_eq!(warm.ewma_entries_seeded, owned);
    // ...and they survive the flush byte for byte
    let flushed = temp_store("reshaped_flushed");
    std::fs::write(&flushed, bytes).expect("write the flushed store back");
    assert_eq!(
        orphaned(&LogStore::open(&flushed).expect("open the flushed store")),
        before
    );
    let _ = std::fs::remove_file(&flushed);
    let _ = std::fs::remove_file(&seeded);
}

#[test]
fn warm_start_outcome_depends_only_on_the_working_set() {
    // irrelevance: what a store holds beyond the records a stream
    // resolves changes nothing — not the report, not the bytes the flush
    // appends. Serve a short stream over the full 16-module store and
    // over a store holding only that stream's module records and their
    // cost rows, under either plan
    let pool = uniform_pool();
    let stream = streams::shape_heavy_stream(400);
    // a tight gap queues requests up, so the short serve lands in warmth
    // buckets the populating one never saw and has rows to write back
    let prefix = &open_loop(shape_heavy_classes(), 12, 40, 0x5EED4)[..];
    let full = temp_store("irrelevance_full");
    let with_store = |path: &std::path::Path, mode: ServeMode| ServeConfig {
        policy: Policy::Cost,
        store: Some(path.to_path_buf()),
        mode,
        ..ServeConfig::default()
    };
    serve(&pool, &stream, &with_store(&full, ServeMode::Deterministic));

    let minimal = temp_store("irrelevance_minimal");
    let (full_modules, kept_modules) = {
        let source = LogStore::open(&full).expect("open the full store");
        let mut subset = LogStore::open(&minimal).expect("create the minimal store");
        let mut copy = |key: Vec<u8>| {
            if let Some(value) = source.get(&key) {
                subset.put(&key, value).expect("copy a record");
            }
        };
        for request in prefix {
            let key = CacheKey {
                accelerator: request.accelerator.clone(),
                spec: request.spec,
                opt: OptLevel::All,
            };
            copy(module_key_bytes(&key));
            for platform in ["gemmini", "opengemm"] {
                copy(cost_key_bytes(platform, &key));
            }
        }
        subset.sync().expect("sync the minimal store");
        let modules = |store: &LogStore| store.keys_with_prefix(b"m").len();
        (modules(&source), modules(&subset))
    };
    assert_eq!(full_modules, 16);
    assert!(
        kept_modules < full_modules,
        "the prefix must be a strict subset"
    );

    let serve_copy = |seeded: &std::path::Path, mode: ServeMode, tag: &str| {
        let path = temp_store(&format!("irrelevance_{tag}"));
        std::fs::copy(seeded, &path).expect("copy the store");
        let before = std::fs::metadata(&path).expect("stat").len() as usize;
        let report = serve(&pool, prefix, &with_store(&path, mode));
        let bytes = std::fs::read(&path).expect("read the flushed store");
        let _ = std::fs::remove_file(&path);
        (report, bytes[before..].to_vec())
    };
    for mode in [ServeMode::Deterministic, SHARDED] {
        let (over_full, appended_full) = serve_copy(&full, mode, "over_full");
        let (over_minimal, appended_minimal) = serve_copy(&minimal, mode, "over_minimal");
        let context = format!("irrelevance under {mode:?}");
        assert_identical(&over_full, &over_minimal, &context);
        assert_eq!(
            appended_full, appended_minimal,
            "{context}: flushes diverge"
        );
        assert!(
            !appended_full.is_empty(),
            "{context}: the serve relearned rows"
        );
        let warm = over_full.metrics.warm_start.expect("store configured");
        assert_eq!(warm.modules_restored, kept_modules as u64, "{context}");
        assert_eq!(over_full.metrics.cache.misses, 0, "{context}");
    }
    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&minimal);
}

fn stream_from_picks(
    classes: &[TrafficClass],
    picks: &[usize],
    mean_gap: u64,
    seed: u64,
) -> Vec<TrafficRequest> {
    picks
        .iter()
        .enumerate()
        .map(|(i, &c)| TrafficRequest {
            id: i as u64,
            accelerator: classes[c].accelerator.clone(),
            spec: classes[c].spec,
            arrival: i as u64 * mean_gap,
            seed: seed ^ (i as u64),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The contract holds on arbitrary open-loop streams over arbitrary
    /// pool shapes (1–3 workers per family, optionally heterogeneous),
    /// slack horizons, and batch settings.
    #[test]
    fn parallel_matches_the_oracle_on_random_streams(
        picks in prop::collection::vec(0usize..6, 20..100),
        gap in 1u64..400,
        seed in any::<u64>(),
        workers in 1usize..4,
        hetero in any::<bool>(),
        slack in 64u64..1024,
        max_batch in 1usize..8,
        policy_idx in 0usize..5,
    ) {
        let stream = stream_from_picks(&mixed_serving_classes(), &picks, gap, seed);
        let mut pool = PoolConfig::new(vec![
            AcceleratorDescriptor::gemmini(),
            AcceleratorDescriptor::opengemm(),
        ])
        .with_workers_per_accelerator(workers);
        if hetero && workers >= 2 {
            pool = pool
                .with_variant("gemmini", AcceleratorDescriptor::gemmini_turbo())
                .with_variant("opengemm", AcceleratorDescriptor::opengemm_lite());
        }
        let cfg = ServeConfig {
            policy: Policy::ALL[policy_idx],
            load_slack: slack,
            max_batch,
            ..ServeConfig::default()
        };
        serve_both(&pool, &stream, &cfg, "random open-loop");
    }

    /// The same property under bursty arrivals — deep queues make the
    /// shards' completion-pull and retire order work hardest.
    #[test]
    fn parallel_matches_the_oracle_on_random_bursty_streams(
        requests in 20usize..80,
        burst_len in 1usize..24,
        burst_gap in 0u64..100,
        idle_gap in 0u64..20_000,
        seed in any::<u64>(),
        policy_idx in 0usize..5,
    ) {
        let stream = BurstyConfig {
            classes: mixed_serving_classes(),
            requests,
            burst_len,
            burst_gap,
            idle_gap,
            seed,
        }
        .stream()
        .unwrap();
        let cfg = ServeConfig {
            policy: Policy::ALL[policy_idx],
            ..ServeConfig::default()
        };
        serve_both(&uniform_pool(), &stream, &cfg, "random bursty");
    }
}
