//! Deterministic allocation budgets for the store path of a store-backed
//! serve: restoring a module, seeding a cost row, flushing one.
//!
//! A store of `cold_shapes` grid modules — both platforms, every module
//! with its learned cost row on the platform that ran it — is written by
//! one cold serve of `2n` grid requests on the uniform pool (two Gemmini,
//! two OpenGeMM workers). Every measurement then opens a fresh copy of it,
//! as the `warm_restore` benchmark does, and counts the calling thread's
//! allocations (`common::counted`):
//!
//! - **resolve**, per restored module: `WarmStart::restore_module` for
//!   each of the first `n` modules, as `Runtime::serve`'s resolve step
//!   calls it (a decoded module comes back from the probe that installed
//!   it; before, the caller probed the cache again through
//!   `get_or_build`, which the before column includes);
//! - **seed**, per seeded row: `WarmStart::cost_rows` over those modules,
//!   each looked up on the platforms that can run it (before: on every
//!   pool platform, so a Gemmini module's lookup on `opengemm` paid its
//!   key and found nothing);
//! - **seed + flush**, per cost row of a serve: what turning refinement
//!   on adds to a store-backed serve of `n` and of `2n` requests, less
//!   what it adds to a store-less serve on a warmed runtime (the refiner's
//!   own rows), the per-serve part cancelled by the `2n − n` difference;
//!   **flush** is that less **seed**. A warm serve of modules the store
//!   already ran moves almost none of its rows, and a row still holding
//!   its seeded value is no longer cloned, encoded or sorted;
//! - **serve**, per module: a whole store-backed serve of `2n` requests
//!   less one of `n`, divided by `n` — everything above plus the module's
//!   dispatch (two allocations, `dispatch_allocs`).
//!
//! Allocations (release build, `n` = 48): the commit before one store
//! probe per module, cost rows only where the module can run and a flush
//! of the moved rows → at it → with store keys written at their exact
//! length (`ByteWriter::with_capacity`):
//!
//! ```text
//!                                 before → one probe → sized keys
//! resolve, per restored module     13.69 →      8.69 →       6.69
//! seed, per seeded row              7.15 →      4.10 →       2.10
//! flush, per cost row               6.69 →     -0.06 →      -0.06
//! serve, per module                35.96 →     19.17 →      15.17
//! ```
//!
//! (Resolve lost the second cache key — its accelerator `String` — the
//! key clone `ModuleCache::restore` made for the map, and the re-encoding
//! of the decoded key to compare it with the store key, three buffer
//! growths; the `HashSet` of restored keys became a `Vec` of the cache's
//! `Arc`s. What is left is the probe's key, the store key, the decode and
//! the `Arc`: the store key was three growths of an empty buffer before
//! keys were sized. A seeded row lost the lookup on the other platform:
//! an encoded store key, three buffer growths; it keeps its own lookup's
//! key, one allocation since keys are sized, and its platform-name
//! `String`. None of the
//! warm serve's rows moved off their seeded value, so none is cloned,
//! encoded or sorted any more: the residual is the rounding of buffers
//! that grow by doubling in the differenced serves.) Each figure is
//! asserted at the measured value + 15 % in release builds — the flush at
//! 0.5 a row, since a row that reaches the flush costs four — and run
//! with `--nocapture` the test prints the table (CI does).

use accfg::OptLevel;
use accfg_runtime::persist::WarmStart;
use accfg_runtime::{CompiledModule, ModuleCache, PoolConfig, Runtime, ServeConfig};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::{MatmulSpec, TrafficRequest};
use common::counted;
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod common;

/// Modules restored by the counted serves (the longer serve restores
/// twice as many); a `warm_restore` serve restores 72.
const N: usize = 48;

/// The uniform pool: two workers a family.
fn pool() -> PoolConfig {
    PoolConfig::new(vec![
        AcceleratorDescriptor::gemmini(),
        AcceleratorDescriptor::opengemm(),
    ])
    .with_workers_per_accelerator(2)
}

/// `requests` distinct shapes of the `cold_shapes` grid, alternating the
/// two platforms, one request each, 300 cycles apart.
fn grid_stream(requests: usize) -> Vec<TrafficRequest> {
    let mut stream = Vec::with_capacity(requests);
    'grid: for k in (8..=128).step_by(8) {
        for m in (8..=48).step_by(8) {
            for n in (8..=48).step_by(8) {
                for (accelerator, tile) in [("gemmini", (m, n, k)), ("opengemm", (8, 8, k))] {
                    if stream.len() == requests {
                        break 'grid;
                    }
                    let id = stream.len() as u64;
                    stream.push(TrafficRequest {
                        id,
                        accelerator: accelerator.to_string(),
                        spec: MatmulSpec::new((m, n, k), tile).expect("a grid shape"),
                        arrival: 300 * id,
                        seed: id,
                    });
                }
            }
        }
    }
    stream
}

/// A fresh copy of `golden` at a path of its own.
fn fresh_copy(golden: &Path, name: &str) -> PathBuf {
    let path = golden.with_extension(format!("{name}.store"));
    std::fs::copy(golden, &path).expect("copy the golden store");
    path
}

struct Ledger {
    resolve: f64,
    seed: f64,
    flush: f64,
    serve: f64,
}

#[test]
fn the_store_path_stays_within_its_allocation_budgets() {
    let golden = std::env::temp_dir().join(format!(
        "accfg-runtime-restore-allocs-{}.store",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&golden);
    let stream = grid_stream(2 * N);
    let populate = Runtime::new(pool())
        .serve(
            &stream,
            &ServeConfig {
                store: Some(golden.clone()),
                ..ServeConfig::default()
            },
        )
        .expect("the populating serve");
    assert_eq!(populate.metrics.cache.misses, 2 * N as u64);

    let (resolve, seed) = restore_and_seed(&golden, &stream[..N]);
    let (cost_rows, serve) = serves(&golden, &stream);
    let ledger = Ledger {
        resolve,
        seed,
        flush: cost_rows - seed,
        serve,
    };
    let _ = std::fs::remove_file(&golden);

    println!("{:<32} {:>8} {:>8}", "allocations", "measured", "budget");
    // measured 6.69, 2.10, -0.06 and 15.17
    for (label, measured, budget) in [
        ("resolve, per restored module", ledger.resolve, 7.7),
        ("seed, per seeded row", ledger.seed, 2.5),
        ("flush, per cost row", ledger.flush, 0.5),
        ("serve, per module", ledger.serve, 17.5),
    ] {
        println!("{label:<32} {measured:>8.2} {budget:>8.1}");
        if !cfg!(debug_assertions) && !cfg!(feature = "validate") {
            assert!(
                measured <= budget,
                "{label}: {measured:.2} allocations, budget {budget}"
            );
        }
    }
}

/// Allocations per restored module and per seeded cost row, through the
/// store calls a serve's resolve step makes for `stream`.
fn restore_and_seed(golden: &Path, stream: &[TrafficRequest]) -> (f64, f64) {
    let copy = fresh_copy(golden, "restore");
    let bases = [
        AcceleratorDescriptor::gemmini(),
        AcceleratorDescriptor::opengemm(),
    ];
    let mut warm = WarmStart::open(&copy).expect("open the copy");
    let mut cache = ModuleCache::new();
    let mut modules: Vec<Arc<CompiledModule>> = Vec::with_capacity(stream.len());
    let ((), restore) = counted(|| {
        for request in stream {
            let base = bases
                .iter()
                .find(|base| base.name == request.accelerator)
                .expect("a grid platform");
            let module = warm
                .restore_module(&mut cache, base, request.spec, OptLevel::All)
                .expect("the record decodes")
                .expect("the store holds every grid module");
            modules.push(module);
        }
    });
    assert_eq!(
        (cache.stats.hits, cache.stats.misses),
        (stream.len() as u64, 0)
    );

    // each module runs on its own platform only
    let platforms: Vec<&str> = modules
        .iter()
        .map(|module| module.key.accelerator.as_str())
        .collect();
    let (rows, seed) = counted(|| {
        let runs_on = platforms.iter().map(std::slice::from_ref);
        warm.cost_rows(modules.iter().map(|module| &**module).zip(runs_on))
            .expect("the rows decode")
    });
    assert_eq!(rows.len(), stream.len(), "a row per module");
    let stats = warm.flush(&cache, &[]).expect("flush");
    assert_eq!(stats.modules_restored, stream.len() as u64);
    let _ = std::fs::remove_file(&copy);
    (
        restore as f64 / stream.len() as f64,
        seed as f64 / rows.len() as f64,
    )
}

/// Allocations per cost row that seeding and flushing add to a
/// store-backed serve, and per module of a whole store-backed serve:
/// serves of `stream[..N]` and of all of `stream` (`2N` requests),
/// differenced.
fn serves(golden: &Path, stream: &[TrafficRequest]) -> (f64, f64) {
    let store_backed = |requests: usize, refine_cost: bool| {
        let copy = fresh_copy(golden, "serve");
        let cfg = ServeConfig {
            refine_cost,
            store: Some(copy.clone()),
            ..ServeConfig::default()
        };
        let (report, allocations) =
            counted(|| Runtime::new(pool()).serve(&stream[..requests], &cfg));
        let report = report.expect("the store-backed serve");
        assert_eq!(report.metrics.cache.misses, 0, "every module restored");
        assert_eq!(
            report.metrics.check_failures + report.metrics.sim_failures,
            0
        );
        let _ = std::fs::remove_file(&copy);
        allocations
    };
    // the refiner's own rows, on a runtime whose cache holds every module
    let mut warmed = Runtime::new(pool());
    warmed
        .serve(stream, &ServeConfig::default())
        .expect("the warming serve");
    let mut store_less = |requests: usize, refine_cost: bool| {
        let cfg = ServeConfig {
            refine_cost,
            ..ServeConfig::default()
        };
        let (report, allocations) = counted(|| warmed.serve(&stream[..requests], &cfg));
        assert_eq!(
            report.expect("the store-less serve").metrics.cache.misses,
            0
        );
        allocations
    };
    let per_module = |allocations: &dyn Fn(usize) -> u64| {
        (allocations(2 * N) as f64 - allocations(N) as f64) / N as f64
    };
    let with_rows = per_module(&|requests| store_backed(requests, true))
        - per_module(&|requests| store_backed(requests, false));
    let refiner = {
        let on = [store_less(N, true), store_less(2 * N, true)];
        let off = [store_less(N, false), store_less(2 * N, false)];
        ((on[1] as f64 - on[0] as f64) - (off[1] as f64 - off[0] as f64)) / N as f64
    };
    // one cost row per module: each ran on one platform
    (
        with_rows - refiner,
        per_module(&|requests| store_backed(requests, true)),
    )
}
