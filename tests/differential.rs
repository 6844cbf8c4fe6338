//! The serve loop against an independent replay of its own report.
//!
//! The runtime serves through one deterministic loop (`engine::run`). Its
//! report carries per-request latencies, which it takes from the finish
//! cycles each worker stamps on a completion where the dispatch runs, and
//! per-request completions — routing, cycles, emitted and cold writes.
//! This suite recomputes the latencies outside the loop, each worker
//! running the requests routed to it back to back in dispatch order, and
//! pins them equal to the report's. It does so over every `serve_bench`
//! stream × policy pair (at reduced request counts), with batching, on a
//! pool whose two groups share a base platform name, on streams with
//! failing dispatches (an input fill past the memory cap, a simulator
//! fault), and as properties over random streams, pool shapes, slack
//! horizons and batch settings. No dispatch may write more than its cold
//! configuration, a failed one finishes where it started, and outside the
//! failure cases every dispatch must simulate and check. Each case is one
//! serve per policy on one runtime, so every module compiles once.

use accfg_bench::streams::{self, uniform_pool};
use configuration_wall::prelude::*;
use configuration_wall::runtime::{
    load_costs, CommitOutcome, Completion, ModuleCache, Policy, PoolGroup, Scheduler, ServeReport,
};
use configuration_wall::store::LogStore;
use configuration_wall::targets::ConfigStyle;
use configuration_wall::workloads::{
    mixed_serving_classes, BurstyConfig, TrafficClass, TrafficRequest,
};
use proptest::prelude::*;

/// Arrival-to-completion latencies recomputed outside the serve loop:
/// every worker runs the requests routed to it back to back in dispatch
/// order (`(arrival, id, slot)`), a dispatch starting once its
/// predecessor has finished and its request has arrived.
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

/// Serves `stream` once under `cfg` on `rt`: the latencies the report
/// takes from the finish cycles its workers stamped equal a replay of its
/// completions, every failed dispatch finishes where it started, and none
/// writes more than its cold configuration.
fn serve_and_replay(
    rt: &mut Runtime,
    stream: &[TrafficRequest],
    cfg: &ServeConfig,
    context: &str,
) -> ServeReport {
    let report = rt.serve(stream, cfg).expect("serve succeeds");
    assert_eq!(
        report.latencies,
        replayed_latencies(stream, &report),
        "{context}: latencies diverge from a replay of the completions"
    );
    for c in report.completions.iter().filter(|c| c.sim_error.is_some()) {
        assert_eq!(c.finish, c.start, "{context}: a failed dispatch took time");
    }
    assert!(
        report
            .completions
            .iter()
            .all(|c| c.emitted_writes <= c.cold_writes),
        "{context}: a dispatch wrote more than its cold configuration"
    );
    report
}

/// [`serve_and_replay`], where every dispatch must also simulate and check.
fn assert_latencies_replay(
    rt: &mut Runtime,
    stream: &[TrafficRequest],
    cfg: &ServeConfig,
    context: &str,
) {
    let report = serve_and_replay(rt, stream, cfg, context);
    let failures = report.metrics.sim_failures + report.metrics.check_failures;
    assert_eq!(failures, 0, "{context}");
}

/// Every policy over one stream on one runtime.
fn check_stream(name: &str, mut rt: Runtime, stream: &[TrafficRequest], max_batch: usize) {
    for policy in Policy::ALL {
        let cfg = ServeConfig {
            policy,
            max_batch,
            ..ServeConfig::default()
        };
        assert_latencies_replay(&mut rt, stream, &cfg, &format!("{name}/{}", policy.label()));
    }
}

/// Every policy over the named catalog stream at 200 requests, on a
/// runtime over its catalog pool.
fn check_catalog_stream(name: &str) {
    let entry = streams::catalog(200)
        .into_iter()
        .find(|entry| entry.name == name)
        .expect("the catalog carries the stream");
    check_stream(name, Runtime::new(entry.pool.build()), &entry.requests, 1);
}

#[test]
fn mixed_stream_matches() {
    check_catalog_stream("mixed");
}

#[test]
fn mixed_stream_matches_with_batching() {
    // the batch scan is the one decision that reads ahead in the group's
    // arrival order — pin it separately from the plain per-policy sweep
    check_stream(
        "mixed+batch",
        Runtime::new(uniform_pool()),
        &streams::mixed_stream(200),
        8,
    );
}

#[test]
fn shape_heavy_stream_matches() {
    check_catalog_stream("shape_heavy");
}

#[test]
fn bursty_stream_matches() {
    check_catalog_stream("bursty");
}

#[test]
fn closed_loop_stream_matches() {
    check_catalog_stream("closed_loop");
}

#[test]
fn hetero_stream_matches() {
    check_catalog_stream("hetero");
}

#[test]
fn contention_stream_matches() {
    // the reference timing models (contention + DVFS) make observed
    // cycles load-dependent — the hardest stream for the refiner, and
    // for the loop's retirement order
    check_catalog_stream("contention");
}

/// Steps a [`Scheduler`] by hand through the dispatch order of a serve
/// of `stream` on `pool` under `cfg` (unbatched), the way `benchmark/`'s
/// replay does, through the by-module calls the serve loop no longer
/// takes: retire every completion the head's arrival has passed, in
/// `(finish, slot)` order, `choose`, then `commit` to the worker the
/// report used. The modules come from a cache of the test's own, so the
/// scheduler names them by `CacheKey` where the loop numbers them. Every
/// choice must be the report's, and every commit's writes and predicted
/// cycles those its completion and prediction sample record.
fn assert_by_module_calls_route_as_the_loop(
    pool: &PoolConfig,
    stream: &[TrafficRequest],
    cfg: &ServeConfig,
    report: &ServeReport,
    context: &str,
) {
    assert_eq!(cfg.max_batch, 1, "the replay steps one request a decision");
    let worker_descs: Vec<AcceleratorDescriptor> =
        pool.groups.iter().flat_map(|g| g.members.clone()).collect();
    let (mut groups, mut worker_group) = (Vec::new(), Vec::new());
    for (g, group) in pool.groups.iter().enumerate() {
        let first = worker_group.len();
        worker_group.extend(std::iter::repeat_n(g, group.members.len()));
        groups.push((first..worker_group.len()).collect::<Vec<usize>>());
    }
    let caps = pool.groups.iter().map(|g| g.power_cap).collect();
    let mut scheduler = Scheduler::new(cfg.policy, &worker_descs, groups.len())
        .with_refinement(cfg.refine_cost)
        .with_slack(cfg.load_slack)
        .with_power_caps(worker_group, caps);

    let mut cache = ModuleCache::new();
    let mut order: Vec<usize> = (0..stream.len()).collect();
    order.sort_by_key(|&i| (stream[i].arrival, stream[i].id, i));
    let mut placed = Vec::with_capacity(stream.len());
    for request in stream {
        let g = (pool.groups.iter())
            .position(|g| g.family == request.accelerator)
            .expect("the pool serves the request");
        let module = cache
            .get_or_build(&pool.groups[g].members[0], request.spec, cfg.opt)
            .expect("the module builds");
        placed.push((g, module));
    }
    let mut outcomes = vec![CommitOutcome::default(); stream.len()];
    let mut unretired: std::collections::BTreeSet<(u64, usize)> = Default::default();
    for head in order {
        let now = stream[head].arrival;
        while let Some(&(finish, slot)) = unretired.first() {
            if finish > now {
                break;
            }
            unretired.pop_first();
            let completion: &Completion = &report.completions[slot];
            let bucket = outcomes[slot].bucket;
            let cycles = completion.counters.cycles;
            scheduler.observe(
                completion.worker,
                &placed[slot].1,
                bucket,
                completion.freq,
                cycles,
            );
        }
        let (g, module) = &placed[head];
        let completion = &report.completions[head];
        let chosen = scheduler.choose(*g, &groups[*g], module, now);
        assert_eq!(
            chosen, completion.worker,
            "{context}: request {head} routed elsewhere"
        );
        outcomes[head] = scheduler.commit(chosen, module, now);
        let outcome = &outcomes[head];
        let sample = &report.predictions[head];
        assert_eq!(
            (
                outcome.writes,
                outcome.anchor_cycles,
                outcome.predicted_cycles
            ),
            (completion.emitted_writes, sample.anchor, sample.ewma),
            "{context}: request {head}'s commit"
        );
        if completion.sim_error.is_none() {
            unretired.insert((completion.finish, head));
        }
    }
}

#[test]
fn by_module_scheduler_calls_route_as_the_loop() {
    for name in ["mixed", "contention", "hetero"] {
        let entry = streams::catalog(200)
            .into_iter()
            .find(|entry| entry.name == name)
            .expect("the catalog carries the stream");
        let pool = entry.pool.build();
        let mut rt = Runtime::new(pool.clone());
        for policy in Policy::ALL {
            let cfg = ServeConfig {
                policy,
                ..ServeConfig::default()
            };
            let context = format!("{name}/{}", policy.label());
            let report = rt.serve(&entry.requests, &cfg).expect("serve succeeds");
            assert_by_module_calls_route_as_the_loop(
                &pool,
                &entry.requests,
                &cfg,
                &report,
                &context,
            );
        }
    }
    // two groups sharing a base name share its modules: one id in the
    // loop, one key for the by-module calls. (Under the reference timing
    // a measured dispatch differs from its anchors, so rows kept apart
    // would quote differently.)
    let (mut pool, stream) = shared_base_pool_and_stream();
    for desc in pool.groups.iter_mut().flat_map(|g| g.members.iter_mut()) {
        *desc = desc.clone().with_reference_timing();
    }
    let mut rt = Runtime::new(pool.clone());
    for policy in Policy::ALL {
        let cfg = ServeConfig {
            policy,
            ..ServeConfig::default()
        };
        let context = format!("shared base name/{}", policy.label());
        let report = rt.serve(&stream, &cfg).expect("serve succeeds");
        assert_by_module_calls_route_as_the_loop(&pool, &stream, &cfg, &report, &context);
    }
}

/// Every policy over `stream` on a runtime over `pool`, where exactly
/// `failing` dispatches fail in the simulator (and none in the check):
/// the replay holds around them.
fn check_failing_stream(name: &str, pool: PoolConfig, stream: &[TrafficRequest], failing: u64) {
    let mut rt = Runtime::new(pool);
    for policy in Policy::ALL {
        let cfg = ServeConfig {
            policy,
            ..ServeConfig::default()
        };
        let context = format!("{name}/{}", policy.label());
        let report = serve_and_replay(&mut rt, stream, &cfg, &context);
        assert_eq!(report.metrics.sim_failures, failing, "{context}");
        assert_eq!(report.metrics.check_failures, 0, "{context}");
    }
}

#[test]
fn a_failed_input_fill_replays() {
    // gemmini 128-cubed lays B at 0x5000: under a 0x5000-byte memory cap
    // every third request fails its fill, queued between dispatches that
    // run on the same workers
    let request = |id: u64, accelerator: &str, spec| TrafficRequest {
        id,
        accelerator: accelerator.into(),
        spec,
        arrival: 40 * id,
        seed: id,
    };
    let stream: Vec<TrafficRequest> = (0..30)
        .map(|id| match id % 3 {
            0 => request(id, "gemmini", MatmulSpec::gemmini_paper(16).unwrap()),
            1 => request(id, "gemmini", MatmulSpec::gemmini_paper(128).unwrap()),
            _ => request(id, "opengemm", MatmulSpec::opengemm_paper(16).unwrap()),
        })
        .collect();
    let pool = PoolConfig {
        mem_bytes: 0x5000,
        ..uniform_pool()
    };
    check_failing_stream("input fill past the cap", pool, &stream, 10);
}

#[test]
fn a_simulator_fault_replays() {
    // a RoCC launch command past the simulator's register file: every
    // gemmini dispatch faults mid-run, beside opengemm ones that run
    let mut faulting = AcceleratorDescriptor::gemmini();
    faulting.style = ConfigStyle::RoccPairs { launch_funct: 14 };
    faulting.accel.rocc_launch_funct = Some(14);
    let stream = TrafficConfig {
        classes: mixed_serving_classes(),
        requests: 60,
        mean_gap: 50,
        seed: 18,
    }
    .open_loop_stream()
    .expect("valid mix");
    let gemmini = stream.iter().filter(|r| r.accelerator == "gemmini").count();
    assert!(gemmini > 10);
    let pool = PoolConfig::new(vec![faulting, AcceleratorDescriptor::opengemm()]);
    check_failing_stream("simulator fault", pool, &stream, gemmini as u64);
}

#[test]
fn a_fuel_fault_resets_its_worker_and_teaches_the_refiner_nothing() {
    // a per-dispatch budget of 36 instructions: a gemmini 16-cubed
    // dispatch runs in it, a 128-cubed one runs out of fuel after its
    // configuration writes — a simulator fault on every dispatch of one
    // module, interleaved with dispatches that run on the same workers
    let request = |id: u64, size| TrafficRequest {
        id,
        accelerator: "gemmini".into(),
        spec: MatmulSpec::gemmini_paper(size).unwrap(),
        arrival: 60 * id,
        seed: id,
    };
    let stream: Vec<TrafficRequest> = (0..40)
        .map(|id| request(id, if id % 3 == 1 { 128 } else { 16 }))
        .collect();
    let faulting = stream.iter().filter(|r| r.spec.m == 128).count() as u64;
    let pool = || PoolConfig {
        fuel: 36,
        ..uniform_pool()
    };
    check_failing_stream("out of fuel", pool(), &stream, faulting);

    for policy in Policy::ALL {
        let path = std::env::temp_dir().join(format!(
            "accfg_differential_fuel_{}_{}.store",
            policy.label(),
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let cfg = ServeConfig {
            policy,
            store: Some(path.clone()),
            ..ServeConfig::default()
        };
        let context = format!("out of fuel/{}", policy.label());
        let report = serve_and_replay(&mut Runtime::new(pool()), &stream, &cfg, &context);
        assert!(
            report.completions.iter().all(|c| c
                .sim_error
                .as_ref()
                .is_none_or(|e| e.contains("out of fuel"))),
            "{context}: every fault is the fuel budget's"
        );
        // ARCHITECTURE.md § "Failure handling": a fault clears the
        // worker's resident state, so the next dispatch there that runs
        // reprograms everything — and no more than that
        let mut faulted = vec![false; report.metrics.workers.len()];
        let mut order: Vec<usize> = (0..stream.len()).collect();
        order.sort_by_key(|&i| (stream[i].arrival, stream[i].id, i));
        let mut after_fault = 0;
        for i in order {
            let c = &report.completions[i];
            if c.sim_error.is_some() {
                assert!(
                    c.emitted_writes > 0,
                    "{context}: request {i} faulted before writing"
                );
                faulted[c.worker] = true;
            } else if std::mem::take(&mut faulted[c.worker]) {
                assert_eq!(
                    c.emitted_writes, c.cold_writes,
                    "{context}: request {i}, the first to run on worker {} after a fault",
                    c.worker
                );
                after_fault += 1;
            }
        }
        assert!(after_fault > 0, "{context}: no dispatch ran after a fault");
        let metrics = &report.metrics;
        assert!(
            metrics.setup_writes <= metrics.cold_setup_writes,
            "{context}"
        );
        // the faulting module's samples are never retired: its cost rows
        // never reach the store, while the module that runs has its row
        let rows = load_costs(&LogStore::open(&path).expect("the serve's store opens"))
            .expect("the stored rows decode");
        let sizes: Vec<i64> = rows.iter().map(|(_, key, _)| key.spec.m).collect();
        assert_eq!(sizes, [16], "{context}: stored cost rows by size");
        let _ = std::fs::remove_file(&path);
    }
}

/// A pool of three groups, two of them fielding the same base platform,
/// and a `mixed` stream whose gemmini requests alternate between those
/// two.
fn shared_base_pool_and_stream() -> (PoolConfig, Vec<TrafficRequest>) {
    let group = |family: &str, desc: AcceleratorDescriptor| PoolGroup {
        family: family.into(),
        members: vec![desc.clone(), desc],
        power_cap: None,
    };
    let pool = PoolConfig {
        groups: vec![
            group("a", AcceleratorDescriptor::gemmini()),
            group("b", AcceleratorDescriptor::gemmini()),
            group("opengemm", AcceleratorDescriptor::opengemm()),
        ],
        ..uniform_pool()
    };
    let mut stream = TrafficConfig {
        classes: mixed_serving_classes(),
        requests: 200,
        mean_gap: 100,
        seed: 0x5A4ED,
    }
    .open_loop_stream()
    .expect("valid mix");
    for (i, request) in stream.iter_mut().enumerate() {
        if request.accelerator == "gemmini" {
            request.accelerator = if i % 2 == 0 { "a".into() } else { "b".into() };
        }
    }
    (pool, stream)
}

#[test]
fn groups_sharing_a_base_name_share_a_shard() {
    // two groups fielding the same base platform share their modules and
    // refiner rows (a module is named by its base platform), so they are
    // served by one scheduler — as every group is, the loop having a
    // single shard; the third group shares nothing with them
    let (pool, stream) = shared_base_pool_and_stream();
    check_stream("shared base name", Runtime::new(pool), &stream, 1);
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

    /// The timing rule holds on arbitrary open-loop streams over
    /// arbitrary pool shapes (1–3 workers per family, optionally
    /// heterogeneous), slack horizons, and batch settings.
    #[test]
    fn latencies_replay_on_random_streams(
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
        assert_latencies_replay(&mut Runtime::new(pool), &stream, &cfg, "random open-loop");
    }

    /// The same rule under bursty arrivals — deep queues make the loop's
    /// retire order work hardest.
    #[test]
    fn latencies_replay_on_random_bursty_streams(
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
        assert_latencies_replay(&mut Runtime::new(uniform_pool()), &stream, &cfg, "random bursty");
    }
}
