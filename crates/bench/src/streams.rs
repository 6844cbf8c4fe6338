//! The bench catalog: the one definition of every canonical stream and
//! pool, shared by `serve_bench`, `autotune`, `benchmark/`, and the
//! integration tests (`tests/serving.rs` and `tests/persistence.rs` take
//! their fixtures from here instead of re-typing seeds and gaps).
//!
//! [`catalog`] lists the seven streams in report order, each with the pool
//! that serves it; everything else here is a piece of it. Every builder is
//! deterministic — fixed seeds, fixed gaps — so "the `mixed` stream at
//! 4000 requests" is the same byte-identical request sequence whether
//! `autotune` tunes on it, `serve_bench` reports it, `benchmark/` times
//! it, or a test pins a bar on it. That is also what makes `autotune`'s
//! tuned-config table directly consumable by `serve_bench --tuned`.

use accfg_analyze::{lint_module, LintKind};
use accfg_runtime::{measured_class_service_times, Policy, PoolConfig, ServeReport};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::{
    matmul_ir, mixed_platform_classes, mixed_serving_classes, shape_heavy_classes, BurstyConfig,
    ClosedLoopConfig, MatmulSpec, TrafficConfig, TrafficRequest,
};

/// The pool a catalog stream is served by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchPool {
    /// [`uniform_pool`].
    Uniform,
    /// [`hetero_pool`].
    Hetero,
    /// [`contention_pool`].
    Contention,
}

impl BenchPool {
    /// The pool's configuration.
    pub fn build(self) -> PoolConfig {
        match self {
            BenchPool::Uniform => uniform_pool(),
            BenchPool::Hetero => hetero_pool(),
            BenchPool::Contention => contention_pool(),
        }
    }
}

/// The uniform evaluation pool: both base platforms, two workers each.
pub fn uniform_pool() -> PoolConfig {
    PoolConfig::new(vec![
        AcceleratorDescriptor::gemmini(),
        AcceleratorDescriptor::opengemm(),
    ])
    .with_workers_per_accelerator(2)
}

/// The heterogeneous pool: same capacity as [`uniform_pool`], but each
/// family pairs its base platform with a differently provisioned variant.
pub fn hetero_pool() -> PoolConfig {
    PoolConfig::new(vec![
        AcceleratorDescriptor::gemmini(),
        AcceleratorDescriptor::opengemm(),
    ])
    .with_workers_per_accelerator(2)
    .with_variant("gemmini", AcceleratorDescriptor::gemmini_turbo())
    .with_variant("opengemm", AcceleratorDescriptor::opengemm_lite())
}

/// The timing-model pool: the two base platforms with their reference
/// contention budgets and DVFS tables enabled — same capacity as the
/// uniform pool, but dispatch cost now depends on each worker's load.
pub fn contention_pool() -> PoolConfig {
    PoolConfig::new(vec![
        AcceleratorDescriptor::gemmini().with_reference_timing(),
        AcceleratorDescriptor::opengemm().with_reference_timing(),
    ])
    .with_workers_per_accelerator(2)
}

/// The canonical six-shape open-loop mix.
pub fn mixed_stream(requests: usize) -> Vec<TrafficRequest> {
    TrafficConfig {
        classes: mixed_serving_classes(),
        requests,
        mean_gap: 200,
        seed: 0xC0FFEE,
    }
    .open_loop_stream()
    .expect("valid traffic mix")
}

/// Sixteen shapes over four workers: the routing term dominates.
pub fn shape_heavy_stream(requests: usize) -> Vec<TrafficRequest> {
    TrafficConfig {
        classes: shape_heavy_classes(),
        requests,
        mean_gap: 400,
        seed: 0x5EED,
    }
    .open_loop_stream()
    .expect("valid shape-heavy mix")
}

/// The `cold_shapes` grid of the repository benchmark for the platform
/// called `platform`, in the benchmark's order: every `m` and `n` in
/// 8..=48 and `k` in 8..=128, in steps of 8 (576 shapes). Gemmini takes
/// each shape untiled, OpenGeMM in 8 x 8 x k tiles.
pub fn cold_shapes_grid(platform: &str) -> Vec<MatmulSpec> {
    let mut shapes = Vec::new();
    for m in (8..=48).step_by(8) {
        for n in (8..=48).step_by(8) {
            for k in (8..=128).step_by(8) {
                let tile = if platform == "gemmini" {
                    (m, n, k)
                } else {
                    (8, 8, k)
                };
                shapes.push(MatmulSpec::new((m, n, k), tile).expect("a grid shape"));
            }
        }
    }
    shapes
}

/// On/off arrivals that build deep queues — sticky routing's worst case.
pub fn bursty_stream(requests: usize) -> Vec<TrafficRequest> {
    BurstyConfig {
        classes: mixed_serving_classes(),
        requests,
        burst_len: 24,
        burst_gap: 60,
        idle_gap: 12_000,
        seed: 0xB0257,
    }
    .stream()
    .expect("valid bursty mix")
}

/// The closed-loop generator configuration (static service estimate).
pub fn closed_loop_config(requests: usize) -> ClosedLoopConfig {
    ClosedLoopConfig {
        classes: mixed_serving_classes(),
        requests,
        clients: 12,
        think_time: 400,
        service_estimate: 250,
        seed: 0xC105ED,
    }
}

/// The mixed-platform mix the heterogeneous pool serves.
pub fn hetero_stream(requests: usize) -> Vec<TrafficRequest> {
    TrafficConfig {
        classes: mixed_platform_classes(),
        requests,
        mean_gap: 300,
        seed: 0x4E7E60,
    }
    .open_loop_stream()
    .expect("valid mixed-platform mix")
}

/// The canonical mix at a tighter arrival gap, for the timing-model pool.
pub fn contention_stream(requests: usize) -> Vec<TrafficRequest> {
    TrafficConfig {
        classes: mixed_serving_classes(),
        requests,
        mean_gap: 120,
        seed: 0xC047E47,
    }
    .open_loop_stream()
    .expect("valid contention mix")
}

/// The policy of the calibration serve [`BenchStream::calibrated`]
/// measures service times from: elision without routing, so the
/// measurement is routing-neutral.
pub const CALIBRATION_POLICY: Policy = Policy::FifoElide;

/// One entry of the bench catalog.
#[derive(Debug, Clone)]
pub struct BenchStream {
    /// The stream's name in reports, `--streams`, and `TUNED.json`.
    pub name: &'static str,
    /// The pool that serves it.
    pub pool: BenchPool,
    /// Whether its report carries the `+batch` policy rows. Only the
    /// canonical mix: batching changes placement, not the
    /// routing-vs-balance story the other streams characterize.
    pub batch_rows: bool,
    /// Whether `autotune` may race knob configurations over it. Open-loop
    /// arrivals are fixed by the seed; closed-loop arrivals encode a
    /// service-time feedback that a different configuration would change.
    pub tunable: bool,
    /// The request sequence — for an entry with a `calibration`, the
    /// static-estimate sequence its calibration serve runs over.
    pub requests: Vec<TrafficRequest>,
    /// `closed_loop_measured` only: the generator [`calibrated`] re-drives
    /// with measured service times.
    ///
    /// [`calibrated`]: BenchStream::calibrated
    pub calibration: Option<ClosedLoopConfig>,
}

impl BenchStream {
    /// Closed-loop fidelity: the sequence the stream's policy rows serve,
    /// with each client's feedback re-driven by the *measured* mean
    /// service time of its request's class. `calibration` is a
    /// [`CALIBRATION_POLICY`] serve of [`BenchStream::requests`]. Returns
    /// the per-class service times alongside the sequence.
    ///
    /// # Panics
    /// If the entry carries no `calibration` generator.
    pub fn calibrated(&self, calibration: &ServeReport) -> (Vec<u64>, Vec<TrafficRequest>) {
        let generator = self
            .calibration
            .as_ref()
            .expect("only a stream with a calibration generator is calibrated");
        let service_times = measured_class_service_times(
            &generator.classes,
            &self.requests,
            calibration,
            generator.service_estimate,
        );
        let requests = generator
            .stream_with_service_times(&service_times)
            .expect("valid measured closed-loop mix");
        (service_times, requests)
    }
}

/// The bench catalog: the seven streams in report order.
pub fn catalog(requests: usize) -> Vec<BenchStream> {
    use BenchPool::{Contention, Hetero, Uniform};
    let entry = |name, pool, requests| BenchStream {
        name,
        pool,
        batch_rows: false,
        tunable: true,
        requests,
        calibration: None,
    };
    let closed_loop = closed_loop_config(requests);
    let static_estimate = || closed_loop.stream().expect("valid closed-loop mix");
    vec![
        BenchStream {
            batch_rows: true,
            ..entry("mixed", Uniform, mixed_stream(requests))
        },
        entry("shape_heavy", Uniform, shape_heavy_stream(requests)),
        entry("bursty", Uniform, bursty_stream(requests)),
        BenchStream {
            tunable: false,
            ..entry("closed_loop", Uniform, static_estimate())
        },
        BenchStream {
            tunable: false,
            calibration: Some(closed_loop.clone()),
            ..entry("closed_loop_measured", Uniform, static_estimate())
        },
        entry("hetero", Hetero, hetero_stream(requests)),
        entry("contention", Contention, contention_stream(requests)),
    ]
}

/// Resolves a tunable stream name to its request stream and serving pool:
/// a lookup in [`catalog`] (`None` for unknown names and for the
/// closed-loop streams, which the autotuner does not handle).
pub fn named_stream(name: &str, requests: usize) -> Option<(Vec<TrafficRequest>, PoolConfig)> {
    catalog(requests)
        .into_iter()
        .find(|entry| entry.name == name && entry.tunable)
        .map(|entry| (entry.requests, entry.pool.build()))
}

/// A stream's static-analysis totals: `accfg-analyze`'s config-write
/// lints and static elidable-write lower bound over the *raw* per-class
/// modules (exactly what the runtime compiles), weighted by each class's
/// request count. `static_writes` counts only *guaranteed* write
/// executions, and `elidable_bound` is the write-execution count the
/// analysis proves value-resident — so the measured dynamic savings of
/// any eliding policy, raw writes minus emitted writes, must be at least
/// this much; `tests/serving.rs` asserts that relation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticTotals {
    /// Dead-write lints.
    pub dead_writes: usize,
    /// Redundant-write lints.
    pub redundant_writes: usize,
    /// Clobbered-launch lints.
    pub clobbered_launches: usize,
    /// Guaranteed write executions of the raw modules.
    pub static_writes: u64,
    /// Write executions proven value-resident.
    pub elidable_bound: u64,
}

/// Computes a stream's [`StaticTotals`].
///
/// # Panics
/// If a request targets an accelerator other than the two base platforms.
pub fn static_totals(stream: &[TrafficRequest]) -> StaticTotals {
    let mut classes: Vec<(&str, MatmulSpec, u64)> = Vec::new();
    for req in stream {
        match classes
            .iter_mut()
            .find(|(a, s, _)| *a == req.accelerator && *s == req.spec)
        {
            Some((_, _, n)) => *n += 1,
            None => classes.push((&req.accelerator, req.spec, 1)),
        }
    }
    let mut totals = StaticTotals::default();
    for (accel, spec, n) in classes {
        let desc = match accel {
            "gemmini" => AcceleratorDescriptor::gemmini(),
            "opengemm" => AcceleratorDescriptor::opengemm(),
            other => panic!("stream class targets unknown accelerator `{other}`"),
        };
        let report = lint_module(&matmul_ir(&desc, &spec));
        totals.dead_writes += report.count(LintKind::DeadWrite);
        totals.redundant_writes += report.count(LintKind::RedundantWrite);
        totals.clobbered_launches += report.count(LintKind::ClobberedLaunch);
        totals.static_writes += n * report.static_writes;
        totals.elidable_bound += n * report.elidable_bound;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use accfg_runtime::{Runtime, ServeConfig};

    #[test]
    fn catalog_names_are_unique_and_named_stream_is_a_lookup() {
        let catalog = catalog(40);
        let names: Vec<&str> = catalog.iter().map(|entry| entry.name).collect();
        assert_eq!(
            names,
            [
                "mixed",
                "shape_heavy",
                "bursty",
                "closed_loop",
                "closed_loop_measured",
                "hetero",
                "contention"
            ]
        );
        for entry in &catalog {
            assert_eq!(entry.requests.len(), 40, "{}", entry.name);
            assert_eq!(entry.batch_rows, entry.name == "mixed");
            assert_eq!(
                entry.calibration.is_some(),
                entry.name == "closed_loop_measured"
            );
            match named_stream(entry.name, 40) {
                Some((requests, pool)) => {
                    assert!(entry.tunable, "{}", entry.name);
                    assert_eq!(requests, entry.requests, "{}", entry.name);
                    // PoolConfig is not PartialEq; its Debug form is total
                    assert_eq!(format!("{pool:?}"), format!("{:?}", entry.pool.build()));
                }
                None => assert!(!entry.tunable, "{}", entry.name),
            }
        }
        let tunable: Vec<&str> = catalog
            .iter()
            .filter(|entry| entry.tunable)
            .map(|entry| entry.name)
            .collect();
        assert_eq!(
            tunable,
            ["mixed", "shape_heavy", "bursty", "hetero", "contention"]
        );
        assert!(named_stream("closed_loop", 40).is_none());
        assert!(named_stream("closed_loop_measured", 40).is_none());
        assert!(named_stream("warmup", 40).is_none());
    }

    #[test]
    fn calibrated_equals_the_written_out_recipe() {
        // the reference: the recipe exactly as serve_bench and the
        // integration tests each spelled it before the catalog
        let cfg = closed_loop_config(300);
        let calibration_stream = cfg.stream().expect("valid closed-loop mix");
        let calibration = Runtime::new(uniform_pool())
            .serve(
                &calibration_stream,
                &ServeConfig {
                    policy: Policy::FifoElide,
                    ..ServeConfig::default()
                },
            )
            .expect("calibration serve succeeds");
        let service_times = measured_class_service_times(
            &cfg.classes,
            &calibration_stream,
            &calibration,
            cfg.service_estimate,
        );
        let reference = cfg
            .stream_with_service_times(&service_times)
            .expect("valid measured closed-loop mix");

        let catalog = catalog(300);
        let entry = catalog
            .iter()
            .find(|entry| entry.name == "closed_loop_measured")
            .expect("the catalog carries the measured closed loop");
        assert_eq!(entry.requests, calibration_stream);
        assert_eq!(CALIBRATION_POLICY, Policy::FifoElide);
        let (measured, requests) = entry.calibrated(&calibration);
        assert_eq!(measured, service_times);
        assert_eq!(requests, reference);
        // and the calibration did something: measured feedback moved arrivals
        assert_ne!(requests, entry.requests);
    }

    #[test]
    fn static_totals_weight_classes_by_request_count() {
        let stream = mixed_stream(200);
        let once = static_totals(&stream);
        assert!(once.elidable_bound > 0 && once.elidable_bound <= once.static_writes);
        let doubled: Vec<TrafficRequest> = stream.iter().chain(&stream).cloned().collect();
        let twice = static_totals(&doubled);
        assert_eq!(twice.static_writes, 2 * once.static_writes);
        assert_eq!(twice.elidable_bound, 2 * once.elidable_bound);
        // lint counts are per distinct class, not per request
        assert_eq!(twice.dead_writes, once.dead_writes);
        assert_eq!(twice.redundant_writes, once.redundant_writes);
    }
}
