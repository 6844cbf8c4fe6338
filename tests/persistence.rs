//! Integration tests for the `accfg-store` persistence layer: compiled
//! modules and learned EWMA cost state round-trip through both store
//! backends byte-faithfully (on arbitrary cache contents, via proptest),
//! a corrupt store tail is dropped — not fatal — with everything before
//! it intact, and the typed layers compose with the log store exactly as
//! the serving runtime uses them — per key, so a serve restores its
//! stream's working set and nothing else, a corrupt record fails only
//! the serve that resolves it, and a torn tail is a counted event. A
//! committed store file written by an earlier build pins that such a
//! file warm-starts its serve and stays byte-stable, and a file of either
//! retired format is refused without being touched.

use accfg_bench::streams::{
    contention_pool, contention_stream, hetero_pool, mixed_stream, shape_heavy_stream, uniform_pool,
};
use configuration_wall::core::pipeline::OptLevel;
use configuration_wall::runtime::persist::{cost_key_bytes, module_key_bytes, MODULE_PREFIX};
use configuration_wall::runtime::{
    build_module, decode_module, encode_module, load_costs, load_modules, save_costs, save_modules,
    CacheKey, CostRow, CostSnapshotEntry, ModuleCache, Policy, PoolConfig, Runtime, ServeConfig,
    ServeError, ServeReport, COST_ROWS, COST_ROW_AGNOSTIC, WARMTH_BUCKETS,
};
use configuration_wall::store::{KeyValueStore, LogStore, MemStore, StoreError};
use configuration_wall::targets::AcceleratorDescriptor;
use configuration_wall::workloads::{
    mixed_platform_classes, mixed_serving_classes, shape_heavy_classes, TrafficClass,
    TrafficConfig, TrafficRequest,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

/// A fresh temp-file path for one test's store (removed up front so a
/// previous run's file cannot leak state in).
fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("accfg_persistence_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{name}_{}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn descriptor_for(name: &str) -> AcceleratorDescriptor {
    match name {
        "gemmini" => AcceleratorDescriptor::gemmini(),
        "opengemm" => AcceleratorDescriptor::opengemm(),
        other => panic!("unknown platform {other}"),
    }
}

/// Builds the modules for the picked (class, opt) pairs and restores
/// them into a fresh cache — the in-memory state a cold serve ends with.
fn cache_from_picks(picks: &[(usize, u8)]) -> ModuleCache {
    let classes = mixed_serving_classes();
    let opts = [
        OptLevel::Base,
        OptLevel::Dedup,
        OptLevel::Overlap,
        OptLevel::All,
    ];
    let mut cache = ModuleCache::new();
    for &(class, opt) in picks {
        let class = &classes[class % classes.len()];
        let desc = descriptor_for(&class.accelerator);
        let module = build_module(&desc, class.spec, opts[opt as usize % opts.len()])
            .expect("module builds");
        cache.restore(module);
    }
    cache
}

/// Canonical byte form of a cache's contents, for equality across
/// snapshot orderings.
fn canonical(cache: &ModuleCache) -> Vec<Vec<u8>> {
    let mut encoded: Vec<Vec<u8>> = cache.snapshot().iter().map(|m| encode_module(m)).collect();
    encoded.sort();
    encoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any module-cache contents survive save → load → restore into a
    /// fresh cache with byte-identical compiled artifacts (key, layout,
    /// program, plan, cost model — everything the dispatcher consumes).
    #[test]
    fn module_cache_round_trips_through_a_store(
        picks in prop::collection::vec((0usize..6, 0u8..4), 1..8),
    ) {
        let original = cache_from_picks(&picks);
        let mut store = MemStore::new();
        let saved = save_modules(&mut store, &original).expect("save modules");
        prop_assert_eq!(saved as usize, original.len());

        let pool = [
            AcceleratorDescriptor::gemmini(),
            AcceleratorDescriptor::opengemm(),
        ];
        let bases: Vec<&AcceleratorDescriptor> = pool.iter().collect();
        let mut restored = ModuleCache::new();
        for module in load_modules(&store, &bases).expect("load modules") {
            prop_assert!(restored.restore(module));
        }
        prop_assert_eq!(canonical(&original), canonical(&restored));
    }

    /// Every module record the repo writes re-encodes to itself:
    /// `encode_module(&decode_module(b)?) == b`. This is what lets a
    /// flush skip the modules it decoded from the store — writing them
    /// back would be an identical-value put, which the log elides.
    #[test]
    fn stored_module_records_re_encode_to_themselves(
        picks in prop::collection::vec((0usize..6, 0u8..4), 1..8),
    ) {
        let mut store = MemStore::new();
        save_modules(&mut store, &cache_from_picks(&picks)).expect("save modules");
        for key in store.keys_with_prefix(b"m") {
            let record = store.get(&key).expect("live key");
            let module = decode_module(record).expect("record decodes");
            prop_assert_eq!(&encode_module(&module)[..], record);
        }
    }

    /// Arbitrary learned cost rows — the agnostic row plus every
    /// frequency-keyed row — survive save → reopen → load through the
    /// on-disk log store, raw fixed-point EWMA words included.
    #[test]
    fn cost_rows_round_trip_through_a_log_store(
        rows in prop::collection::vec(
            (
                0usize..6,
                0usize..2,
                prop::collection::vec(
                    -1i64..5_000_000,
                    (COST_ROWS * WARMTH_BUCKETS)..(COST_ROWS * WARMTH_BUCKETS + 1),
                ),
            ),
            1..12,
        ),
        case in 0u32..u32::MAX,
    ) {
        let classes = mixed_serving_classes();
        let platforms = ["gemmini", "opengemm"];
        // later duplicates of a (platform, key) pair overwrite earlier
        // ones in the store, so collapse them the same way up front
        let mut expected: HashMap<(String, CacheKey), CostSnapshotEntry> = HashMap::new();
        for (class, platform, words) in &rows {
            let mut buckets: CostRow = [[0; WARMTH_BUCKETS]; COST_ROWS];
            for (row, chunk) in buckets.iter_mut().zip(words.chunks(WARMTH_BUCKETS)) {
                row.copy_from_slice(chunk);
            }
            let (class, platform) = (*class, *platform);
            let class = &classes[class];
            let key = CacheKey {
                accelerator: class.accelerator.clone(),
                spec: class.spec,
                opt: OptLevel::All,
            };
            let platform = platforms[platform].to_string();
            expected.insert(
                (platform.clone(), key.clone()),
                (platform, key, buckets),
            );
        }
        let entries: Vec<CostSnapshotEntry> = expected.into_values().collect();

        let path = temp_store(&format!("cost_rows_{case}"));
        {
            let mut store = LogStore::open(&path).expect("open store");
            save_costs(&mut store, &entries).expect("save costs");
        }
        let reopened = LogStore::open(&path).expect("reopen store");
        prop_assert!(reopened.recovery().is_none());
        let loaded = load_costs(&reopened).expect("load costs");

        let sort_key = |(p, k, _): &CostSnapshotEntry| (p.clone(), format!("{k:?}"));
        let mut want = entries;
        want.sort_by_key(&sort_key);
        let mut got = loaded;
        got.sort_by_key(&sort_key);
        prop_assert_eq!(want, got);
        let _ = std::fs::remove_file(&path);
    }
}

/// A corrupt tail (a torn final append) is dropped with a recovery
/// report, every record before it is intact, the file is truncated back
/// to the valid prefix, and the store keeps serving appends afterwards.
#[test]
fn truncated_store_tail_is_dropped_not_fatal() {
    let path = temp_store("torn_tail");
    let cache = cache_from_picks(&[(0, 3), (3, 3)]);
    let spare = cache_from_picks(&[(5, 3)]);
    {
        let mut store = LogStore::open(&path).expect("open store");
        assert_eq!(save_modules(&mut store, &cache).expect("save"), 2);
    }
    let valid_len = std::fs::metadata(&path).expect("stat").len();

    // a torn append: header bytes that promise a payload the crash never
    // wrote (any of truncated header / truncated payload / bad checksum
    // takes this same recovery path — the store unit tests pin each)
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("open for corruption");
    file.write_all(b"torn-append").expect("append garbage");
    drop(file);

    let mut store = LogStore::open(&path).expect("recovering open");
    let recovery = store.recovery().expect("tail corruption reported");
    assert_eq!(recovery.offset, valid_len);
    assert_eq!(std::fs::metadata(&path).expect("stat").len(), valid_len);

    // everything before the tear survived…
    let pool = [
        AcceleratorDescriptor::gemmini(),
        AcceleratorDescriptor::opengemm(),
    ];
    let bases: Vec<&AcceleratorDescriptor> = pool.iter().collect();
    assert_eq!(load_modules(&store, &bases).expect("load").len(), 2);

    // …and the truncated store accepts new appends that persist cleanly
    assert_eq!(save_modules(&mut store, &spare).expect("save more"), 1);
    drop(store);
    let clean = LogStore::open(&path).expect("clean reopen");
    assert!(clean.recovery().is_none());
    assert_eq!(load_modules(&clean, &bases).expect("load").len(), 3);
    let _ = std::fs::remove_file(&path);
}

/// The cost codec's fixed-point words are platform-name keyed, so a row
/// learned on one pool seeds only pools that carry a platform of that
/// name — unknown names are skipped, not errors (a fleet store may span
/// differently provisioned pools).
#[test]
fn unseen_bucket_sentinels_survive_the_round_trip() {
    let classes = mixed_serving_classes();
    let key = CacheKey {
        accelerator: classes[0].accelerator.clone(),
        spec: classes[0].spec,
        opt: OptLevel::All,
    };
    // agnostic bucket 0 and one cold-mode bucket observed, the rest
    // unseen (-1 sentinel): exactly what a steady-state repeat-only
    // stream learns
    let mut buckets: CostRow = [[-1i64; WARMTH_BUCKETS]; COST_ROWS];
    buckets[COST_ROW_AGNOSTIC][0] = 9_216; // 36 cycles in 8-bit fixed point
    buckets[COST_ROW_AGNOSTIC + 1][0] = 9_216;
    let entries = vec![("gemmini".to_string(), key, buckets)];
    let mut store = MemStore::new();
    save_costs(&mut store, &entries).expect("save");
    let loaded = load_costs(&store).expect("load");
    assert_eq!(loaded, entries);
}

/// Serves `stream` on a fresh uniform-pool runtime against the store at
/// `path`.
fn serve_with_store(
    stream: &[TrafficRequest],
    path: &std::path::Path,
) -> Result<ServeReport, ServeError> {
    Runtime::new(uniform_pool()).serve(
        stream,
        &ServeConfig {
            store: Some(path.to_path_buf()),
            ..ServeConfig::default()
        },
    )
}

/// The store key of the module `request` resolves to on the uniform pool.
fn module_key_of(request: &TrafficRequest) -> Vec<u8> {
    module_key_bytes(&CacheKey {
        accelerator: request.accelerator.clone(),
        spec: request.spec,
        opt: OptLevel::All,
    })
}

/// Restore is per key: a serve decodes exactly the distinct modules its
/// stream names that the store holds — one request over a sixteen-module
/// store decodes one module — and compiles exactly the ones it does not
/// hold.
#[test]
fn a_serve_restores_exactly_the_modules_its_stream_resolves() {
    let path = temp_store("working_set");
    let stream = shape_heavy_stream(300);
    // populate from everything but the first two requests' shapes
    let absent_keys: Vec<Vec<u8>> = stream[..2].iter().map(module_key_of).collect();
    let populate: Vec<TrafficRequest> = stream
        .iter()
        .filter(|request| !absent_keys.contains(&module_key_of(request)))
        .cloned()
        .collect();
    serve_with_store(&populate, &path).expect("populating serve");
    let stored = LogStore::open(&path).expect("open").keys_with_prefix(b"m");
    assert_eq!(stored.len(), 14);

    let one = serve_with_store(&populate[..1], &path).expect("one-request serve");
    let warm = one.metrics.warm_start.expect("store configured");
    assert_eq!((warm.modules_restored, warm.builds_avoided), (1, 1));
    assert_eq!((one.metrics.cache.hits, one.metrics.cache.misses), (1, 0));
    // one module on the pool's two platforms: at most two rows, and the
    // populating serve learned at least the one it ran on
    assert!((1..=2).contains(&warm.ewma_entries_seeded), "{warm:?}");

    // a stream over shapes the store holds and shapes it does not
    let mixed = &stream[..40];
    let distinct: std::collections::BTreeSet<Vec<u8>> = mixed.iter().map(module_key_of).collect();
    let found = distinct.iter().filter(|key| stored.contains(key)).count() as u64;
    let absent = distinct.len() as u64 - found;
    assert!(found > 2 && absent == 2, "{found} found, {absent} absent");
    let report = serve_with_store(mixed, &path).expect("mixed serve");
    let warm = report.metrics.warm_start.expect("store configured");
    assert_eq!(warm.modules_restored, found);
    assert_eq!(warm.builds_avoided, found);
    assert_eq!(report.metrics.cache.misses, absent);
    let _ = std::fs::remove_file(&path);
}

/// A checksum-valid but undecodable module record is a typed error for a
/// serve that resolves it and invisible to one that does not (the record
/// stays on disk); a module the runtime already holds wins over the
/// stored one, which the flush then repairs.
#[test]
fn a_corrupt_module_record_fails_only_the_serve_that_resolves_it() {
    let path = temp_store("corrupt_record");
    let stream = shape_heavy_stream(300);
    serve_with_store(&stream, &path).expect("populating serve");
    let victim = module_key_of(&stream[0]);
    let bystanders: Vec<TrafficRequest> = stream
        .iter()
        .filter(|request| module_key_of(request) != victim)
        .cloned()
        .collect();
    let good = {
        // rewrite the record through the store, so its checksum is valid
        // and only the typed layer can notice: the flipped byte is the
        // length prefix of the key's accelerator name
        let mut store = LogStore::open(&path).expect("open");
        let good = store.get(&victim).expect("victim is stored").to_vec();
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        store.put(&victim, &bad).expect("plant the corrupt record");
        store.sync().expect("sync");
        good
    };

    let unaffected = serve_with_store(&bystanders, &path).expect("the stream never resolves it");
    assert_eq!(unaffected.metrics.cache.misses, 0);
    assert_ne!(
        LogStore::open(&path).expect("open").get(&victim),
        Some(&good[..]),
        "an unresolved corrupt record is left on disk"
    );
    match serve_with_store(&stream[..1], &path) {
        Err(ServeError::Store(StoreError::Codec { .. })) => {}
        other => panic!("resolving the corrupt record gave {other:?}"),
    }

    // a runtime that built the module before it met the store never asks
    // the store for it, and its flush overwrites the corrupt record
    let mut runtime = Runtime::new(uniform_pool());
    runtime
        .serve(&stream[..1], &ServeConfig::default())
        .expect("store-less serve builds the module");
    let report = runtime
        .serve(
            &stream[..1],
            &ServeConfig {
                store: Some(path.clone()),
                ..ServeConfig::default()
            },
        )
        .expect("the fresh-built module wins");
    let warm = report.metrics.warm_start.expect("store configured");
    assert_eq!(warm.modules_restored, 0);
    assert_eq!(
        LogStore::open(&path).expect("open").get(&victim),
        Some(&good[..])
    );
    let _ = std::fs::remove_file(&path);
}

/// A store truncated mid-record still warm-starts the serve: the torn
/// tail is dropped, counted in the report (and only then rendered), and
/// gone by the next serve.
#[test]
fn a_torn_store_tail_is_counted_in_the_report() {
    let path = temp_store("torn_serve");
    let stream = mixed_stream(200);
    let cold = serve_with_store(&stream, &path).expect("populating serve");
    let cold_stats = cold.metrics.warm_start.expect("store configured");
    assert_eq!(cold_stats.torn_tails_recovered, 0);
    assert!(!cold.metrics.to_json().contains("torn_tails_recovered"));

    let bytes = std::fs::read(&path).expect("read the store");
    std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear the last record");
    let torn = serve_with_store(&stream, &path).expect("a torn tail is not fatal");
    let torn_stats = torn.metrics.warm_start.expect("store configured");
    assert_eq!(torn_stats.torn_tails_recovered, 1);
    assert_eq!(torn_stats.modules_restored, 6);
    assert!(torn
        .metrics
        .to_json()
        .contains("\"builds_avoided\": 6, \"torn_tails_recovered\": 1 },"));
    assert_eq!(torn.metrics.check_failures, 0);

    let healed = serve_with_store(&stream, &path).expect("clean reopen");
    let healed_stats = healed.metrics.warm_start.expect("store configured");
    assert_eq!(healed_stats.torn_tails_recovered, 0);
    let _ = std::fs::remove_file(&path);
}

/// A stored module the resolving family's base cannot field — same key,
/// another configuration style — is not restored and not silent: the
/// serve counts it, rebuilds, and its flush files the rebuilt module
/// over the stale record.
#[test]
fn an_unfieldable_stored_module_is_counted_and_rebuilt() {
    let path = temp_store("unfieldable");
    let request = TrafficRequest {
        accelerator: "gemmini".into(),
        ..mixed_stream(200)
            .into_iter()
            .find(|request| request.accelerator == "opengemm")
            .expect("the mixed stream serves both platforms")
    };
    let serve_on = |base: AcceleratorDescriptor| {
        Runtime::new(PoolConfig::new(vec![base]))
            .serve(
                std::slice::from_ref(&request),
                &ServeConfig {
                    store: Some(path.clone()),
                    ..ServeConfig::default()
                },
            )
            .expect("serve succeeds")
    };

    // a RoccPairs pool stores its module under ("gemmini", spec, opt) …
    let rocc = serve_on(AcceleratorDescriptor::gemmini());
    assert_eq!(rocc.metrics.cache.misses, 1);
    let stored = LogStore::open(&path).expect("open");
    let rocc_record = stored
        .get(&module_key_of(&request))
        .expect("filed")
        .to_vec();
    drop(stored);

    // … which a Csr base of the same name then resolves
    let mut csr_base = AcceleratorDescriptor::opengemm();
    csr_base.name = "gemmini".into();
    let csr = serve_on(csr_base.clone());
    let warm = csr.metrics.warm_start.expect("store configured");
    assert_eq!(warm.records_unfieldable, 1);
    assert_eq!((warm.modules_restored, warm.builds_avoided), (0, 0));
    assert_eq!(csr.metrics.cache.misses, 1, "rebuilt, not restored");
    assert_eq!(csr.metrics.check_failures, 0);
    assert!(
        csr.metrics
            .to_json()
            .contains("\"builds_avoided\": 0, \"records_unfieldable\": 1 },"),
        "{}",
        csr.metrics.to_json()
    );
    assert!(!rocc.metrics.to_json().contains("records_unfieldable"));
    assert_ne!(
        LogStore::open(&path)
            .expect("open")
            .get(&module_key_of(&request)),
        Some(&rocc_record[..]),
        "the flush files the rebuilt module over the stale one"
    );

    // the record is now the Csr pool's own: restored, nothing to count
    let again = serve_on(csr_base);
    let warm = again.metrics.warm_start.expect("store configured");
    assert_eq!((warm.records_unfieldable, warm.modules_restored), (0, 1));
    let _ = std::fs::remove_file(&path);
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

/// Serves `stream` on a fresh runtime over `pool` under the cost policy
/// (it routes on the refined estimates, so a seeded row moves routing)
/// against the store at `path`.
fn serve_cost(pool: &PoolConfig, stream: &[TrafficRequest], path: &std::path::Path) -> ServeReport {
    Runtime::new(pool.clone())
        .serve(
            stream,
            &ServeConfig {
                policy: Policy::Cost,
                store: Some(path.to_path_buf()),
                ..ServeConfig::default()
            },
        )
        .expect("serve succeeds")
}

/// A heterogeneous pool warm-starts like a uniform one: every module of
/// the stream comes back from the store, and the variants' learned cost
/// rows seed the refiner.
#[test]
fn a_hetero_pool_warm_starts_its_modules_and_cost_rows() {
    let path = temp_store("hetero_warm");
    let classes = mixed_platform_classes();
    serve_cost(
        &hetero_pool(),
        &open_loop(classes.clone(), 300, 200, 0x5EED0),
        &path,
    );
    let report = serve_cost(
        &hetero_pool(),
        &open_loop(classes, 300, 200, 0x5EED1),
        &path,
    );
    let warm = report.metrics.warm_start.expect("store configured");
    assert!(warm.ewma_entries_seeded > 0, "nothing was seeded");
    assert_eq!(report.metrics.cache.misses, 0, "modules restored");
    assert_eq!(report.metrics.check_failures, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn orphaned_cost_rows_are_never_loaded_and_survive_the_flush() {
    // a store written by the hetero pool, read by a pool whose gemmini
    // group fields only the turbo variant: the turbo rows of modules
    // compiled for the `gemmini` base name a platform the new pool
    // fields but a base no group compiles for. No stream the new pool
    // serves can resolve such a module, so the rows are never read and
    // the flush never rewrites them
    let path = temp_store("reshaped");
    let classes = mixed_platform_classes();
    serve_cost(
        &hetero_pool(),
        &open_loop(classes.clone(), 300, 200, 0x5EED2),
        &path,
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
    let before_store = LogStore::open(&path).expect("open the seeded store");
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
    let report = serve_cost(&reshaped, &open_loop(classes, 200, 200, 0x5EED3), &path);
    // the orphaned rows are not counted as seeded: what is seeded is
    // exactly the rows of the modules the stream resolved
    let warm = report.metrics.warm_start.expect("store configured");
    assert_eq!(warm.ewma_entries_seeded, owned);
    // ...and they survive the flush byte for byte
    assert_eq!(
        orphaned(&LogStore::open(&path).expect("open the flushed store")),
        before
    );
    let _ = std::fs::remove_file(&path);
}

/// A stored cost row of a module on a platform that cannot run it — a
/// Gemmini module's row on `opengemm`, in a store a uniform pool reads —
/// is never looked up: not seeded, not counted in `ewma_entries_seeded`,
/// and left on disk byte for byte by the flush.
#[test]
fn a_cost_row_on_a_platform_that_cannot_run_its_module_is_never_seeded() {
    let path = temp_store("foreign_platform_row");
    let stream = mixed_stream(200);
    serve_with_store(&stream, &path).expect("populating serve");
    let module = stream
        .iter()
        .find(|request| request.accelerator == "gemmini")
        .map(|request| CacheKey {
            accelerator: request.accelerator.clone(),
            spec: request.spec,
            opt: OptLevel::All,
        })
        .expect("the mixed stream serves Gemmini");
    // the rows a warm serve of the stream can seed: each module's on its
    // own platform, the only one of the pool that can run it
    let runnable = {
        let store = LogStore::open(&path).expect("open");
        let rows = load_costs(&store).expect("cost rows decode");
        assert!(rows
            .iter()
            .all(|(platform, key, _)| *platform == key.accelerator));
        rows.len() as u64
    };
    assert_eq!(runnable, 6, "the populating serve ran every module");

    let foreign = cost_key_bytes("opengemm", &module);
    let mut planted: CostRow = [[-1; WARMTH_BUCKETS]; COST_ROWS];
    planted[COST_ROW_AGNOSTIC][0] = 12_345 << 8;
    {
        let mut store = LogStore::open(&path).expect("open");
        assert_eq!(store.get(&foreign), None);
        save_costs(&mut store, &[("opengemm".to_string(), module, planted)]).expect("plant");
        store.sync().expect("sync");
    }
    let value = LogStore::open(&path)
        .expect("open")
        .get(&foreign)
        .expect("planted")
        .to_vec();

    let report = serve_with_store(&stream, &path).expect("warm serve");
    let warm = report.metrics.warm_start.expect("store configured");
    assert_eq!(warm.modules_restored, 6);
    assert_eq!(warm.ewma_entries_seeded, runnable, "{warm:?}");
    assert_eq!(report.metrics.check_failures, 0);
    assert_eq!(
        LogStore::open(&path).expect("open").get(&foreign),
        Some(&value[..]),
        "the flush left the planted row as it was"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn warm_start_outcome_depends_only_on_the_working_set() {
    // irrelevance: what a store holds beyond the records a stream
    // resolves changes nothing — not the report, not the bytes the flush
    // appends. Serve a short stream over the full 16-module store and
    // over a store holding only that stream's module records and their
    // cost rows
    let pool = uniform_pool();
    // a tight gap queues requests up, so the short serve lands in warmth
    // buckets the populating one never saw and has rows to write back
    let prefix = &open_loop(shape_heavy_classes(), 12, 40, 0x5EED4)[..];
    let full = temp_store("irrelevance_full");
    serve_cost(&pool, &shape_heavy_stream(400), &full);

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

    // the report and the bytes its flush appended to the store
    let serve_over = |path: &std::path::Path| {
        let before = std::fs::metadata(path).expect("stat").len() as usize;
        let report = serve_cost(&pool, prefix, path);
        let bytes = std::fs::read(path).expect("read the flushed store");
        (report, bytes[before..].to_vec())
    };
    let (over_full, appended_full) = serve_over(&full);
    let (over_minimal, appended_minimal) = serve_over(&minimal);
    assert_eq!(format!("{over_full:?}"), format!("{over_minimal:?}"));
    assert_eq!(appended_full, appended_minimal, "flushes diverge");
    assert!(!appended_full.is_empty(), "the serve relearned rows");
    let warm = over_full.metrics.warm_start.expect("store configured");
    assert_eq!(warm.modules_restored, kept_modules as u64);
    assert_eq!(over_full.metrics.cache.misses, 0);
    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&minimal);
}

/// FNV-1a, 64-bit: the digest the flush-bytes test pins files with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// The bytes a store-backed serve writes are pinned: a fixed
/// `shape_heavy` prefix served cold into a fresh store, then warm over a
/// copy of that store. Both digests were recorded before the warm flush
/// learned to skip the cost rows still holding their seeded value, so a
/// flush that writes, drops or reorders one more byte fails here.
#[test]
fn a_store_backed_serve_writes_pinned_bytes_cold_and_warm() {
    const COLD_FILE: u64 = 0xCFED_17E0_D339_CE2E;
    const WARM_APPENDED: u64 = 0xA1CA_22F8_DAA7_B10F;
    let pool = uniform_pool();
    let prefix = &shape_heavy_stream(300)[..120];
    let cold = temp_store("pinned_cold");
    let report = serve_cost(&pool, prefix, &cold);
    assert_eq!(report.metrics.cache.misses, 16);
    let cold_bytes = std::fs::read(&cold).expect("read the cold store");

    let warm = temp_store("pinned_warm");
    std::fs::copy(&cold, &warm).expect("copy the cold store");
    let report = serve_cost(&pool, prefix, &warm);
    let stats = report.metrics.warm_start.expect("store configured");
    assert_eq!(
        (stats.modules_restored, report.metrics.cache.misses),
        (16, 0)
    );
    let warm_bytes = std::fs::read(&warm).expect("read the warm store");
    assert!(warm_bytes.starts_with(&cold_bytes));
    let appended = &warm_bytes[cold_bytes.len()..];
    println!(
        "cold file {} bytes, fnv1a {:#018X}; warm flush appended {} bytes, fnv1a {:#018X}",
        cold_bytes.len(),
        fnv1a(&cold_bytes),
        appended.len(),
        fnv1a(appended)
    );
    assert!(!appended.is_empty(), "the warm serve relearned rows");
    assert_eq!(fnv1a(&cold_bytes), COLD_FILE, "the cold serve's file moved");
    assert_eq!(fnv1a(appended), WARM_APPENDED, "the warm flush moved");
    let _ = std::fs::remove_file(&cold);
    let _ = std::fs::remove_file(&warm);
}

/// The committed store: what an earlier build wrote for two store-backed
/// serves of `contention_stream(600)` under the affinity policy, each on
/// a fresh runtime over the `contention_pool()` — a cold pass, then a
/// warm one — compacted to its twelve live records.
const FIXTURE: &[u8] = include_bytes!("fixtures/store.log");

/// Serves `contention_stream(600)` under the affinity policy on a fresh
/// `contention_pool()` runtime against the store at `path`.
fn serve_contention(path: &std::path::Path) -> Result<ServeReport, ServeError> {
    Runtime::new(contention_pool()).serve(
        &contention_stream(600),
        &ServeConfig {
            policy: Policy::ConfigAffinity,
            store: Some(path.to_path_buf()),
            ..ServeConfig::default()
        },
    )
}

/// Re-serving the fixture's own workload warm-starts from it (zero
/// builds), leaves two copies byte-identical to each other, only ever
/// appends behind the committed bytes, and never rewrites a module it
/// restored.
#[test]
fn the_committed_store_file_warm_starts_its_serve_and_stays_byte_stable() {
    let fixture = {
        let path = temp_store("fixture");
        std::fs::write(&path, FIXTURE).expect("copy the fixture");
        let store = LogStore::open(&path).expect("the fixture opens");
        assert!(store.recovery().is_none());
        assert_eq!(store.len(), 12);
        let entries: BTreeMap<Vec<u8>, Vec<u8>> = store
            .keys_with_prefix(b"")
            .into_iter()
            .map(|key| (key.clone(), store.get(&key).expect("live").to_vec()))
            .collect();
        let _ = std::fs::remove_file(&path);
        entries
    };
    let reserve = |name: &str| {
        let path = temp_store(name);
        std::fs::write(&path, FIXTURE).expect("copy the fixture");
        let report = serve_contention(&path).expect("serve succeeds");
        let warm = report.metrics.warm_start.expect("store configured");
        assert_eq!((warm.modules_restored, report.metrics.cache.misses), (6, 0));
        assert_eq!(warm.ewma_entries_seeded, 6);
        assert_eq!(report.metrics.check_failures, 0);
        let reopened = LogStore::open(&path).expect("reopen");
        assert!(reopened.recovery().is_none());
        assert_eq!(reopened.len(), 12);
        let modules = reopened.keys_with_prefix(&[MODULE_PREFIX]);
        assert_eq!(modules.len(), 6);
        for key in &modules {
            assert_eq!(
                reopened.get(key),
                Some(&fixture[key][..]),
                "a module was rewritten"
            );
        }
        drop(reopened);
        let bytes = std::fs::read(&path).expect("read");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let (a, b) = (reserve("fixture_reserve_a"), reserve("fixture_reserve_b"));
    assert_eq!(a, b, "identical re-serves diverged");
    assert!(a.starts_with(FIXTURE));
}

/// A file of the retired `ACFGSTR1` format — its magic and one record
/// under that format's byte-serial FNV-1a sum — is refused at the store
/// door: the serve returns `BadMagic` and the file keeps every byte.
#[test]
fn a_serve_over_a_retired_format_file_is_refused_and_leaves_it_untouched() {
    let payload = [&[0u8, 1, 0, 0, 0][..], b"k", b"v"].concat();
    let sum = payload.iter().fold(0x811c_9dc5u32, |hash, &b| {
        (hash ^ u32::from(b)).wrapping_mul(0x0100_0193)
    });
    let mut bytes = b"ACFGSTR1".to_vec();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes.extend_from_slice(&payload);
    assert_a_serve_refuses_untouched("retired_format", &bytes);
}

/// Serves the contention workload over a store file holding `bytes` and
/// checks the serve fails with `BadMagic` and the file keeps every byte.
fn assert_a_serve_refuses_untouched(name: &str, bytes: &[u8]) {
    let path = temp_store(name);
    std::fs::write(&path, bytes).expect("write the file");
    match serve_contention(&path) {
        Err(ServeError::Store(StoreError::BadMagic { .. })) => {}
        other => panic!("a retired-format store served: {other:?}"),
    }
    assert_eq!(std::fs::read(&path).expect("read"), bytes);
    let _ = std::fs::remove_file(&path);
}

/// A file of the retired `ACFGSTR2` format — the fixed-width value codec
/// under today's record layout and checksum, so its magic and a record
/// this build wrote — is refused at the store door: the serve returns
/// `BadMagic` and the file keeps every byte.
#[test]
fn a_serve_over_a_v2_format_file_is_refused_and_leaves_it_untouched() {
    let path = temp_store("v2_source");
    {
        let mut store = LogStore::open(&path).expect("create");
        store.put(b"k", b"v").expect("put");
        store.sync().expect("sync");
    }
    let mut bytes = std::fs::read(&path).expect("read");
    let _ = std::fs::remove_file(&path);
    bytes[..8].copy_from_slice(b"ACFGSTR2");
    assert_a_serve_refuses_untouched("v2_format", &bytes);
}
