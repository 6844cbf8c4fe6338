//! # accfg-runtime: a config-affinity dispatch runtime
//!
//! The paper eliminates redundant accelerator configuration *within* one
//! compiled program (deduplication, hoisting, overlap — Sections 5.4 and
//! 5.5). A serving system sees the same redundancy *across requests*:
//! consecutive requests with similar shapes reprogram identical
//! configuration registers on every dispatch. This crate operationalizes
//! the paper's state-tracking insight at the serving layer, turning the
//! `accfg` stack into a runtime that serves open-loop request streams over
//! a pool of simulated accelerators:
//!
//! - a **compiled-module cache** ([`ModuleCache`]) keyed by
//!   `(accelerator, shape, opt level)`, so repeated shapes skip the
//!   IR-build → pass-pipeline → lower path entirely;
//! - a **scheduler** ([`Scheduler`]: load/residency accounting + one
//!   scored walk over its candidates, priced as the run's [`Policy`]
//!   says): it mirrors each worker's last-programmed register file and
//!   holds load as *estimated outstanding cycles* (predicted by
//!   per-platform [`CostModel`] anchors); policies route over it —
//!   round-robin (`fifo`, `fifo+elide`), write-minimizing within the
//!   [`LOAD_SLACK_CYCLES`] horizon (`affinity`),
//!   completion-cycle-minimizing (`cost`), the policy heterogeneous
//!   pools need, or frequency-state-aware (`thermal`), which prices
//!   each candidate at the DVFS mode the scheduler's shadow automaton
//!   predicts and steers traffic out of contended busy windows;
//! - **heterogeneous pools** ([`PoolGroup`]): one routing family may mix
//!   differently provisioned platform variants (same configuration
//!   interface, different geometry/speed — e.g.
//!   [`AcceleratorDescriptor::gemmini_turbo`](accfg_targets::AcceleratorDescriptor::gemmini_turbo));
//!   modules compile once
//!   against the group's base platform, compatibility is validated at
//!   serve time, and cost estimates re-anchor per variant;
//! - an **online cost refiner** ([`CostRefiner`]): the cost model's
//!   analytic anchors are refined as the run executes, by an EWMA of
//!   measured dispatch cycles per `(module, warmth bucket)` — queue
//!   estimates learn the stream's true costs without any build-time
//!   profiling runs (`refine_cost` in [`ServeConfig`]);
//! - **same-config batching with a queue-depth-aware cutoff**
//!   (`max_batch` / `load_slack` in [`ServeConfig`]): same-module
//!   requests adjacent in their group's arrival order coalesce onto one
//!   worker, until the target's estimated outstanding cycles reach the
//!   slack horizon — amortizing configuration without building the deep
//!   tail queues uncapped batching pays;
//! - **delta dispatch** ([`Worker`], [`DispatchPlan`]): workers own
//!   persistent [`Machine`](accfg_sim::Machine)s whose configuration
//!   registers survive between requests, so dispatched programs carry only
//!   the writes that change state — the dynamic counterpart of the
//!   `accfg-dedup` pass: one walk over a dense register file
//!   ([`RegMap`]), held to [`accfg::regstate`]'s definition by a
//!   property test;
//! - **persistent warm starts** ([`persist`] over the `accfg-store` log):
//!   point `store` in [`ServeConfig`] at a store file and the serve
//!   restores the compiled modules its stream resolves and their learned
//!   EWMA cost rows, key by key, then flushes what it built or changed
//!   back on finish — a fresh process skips
//!   the compile cold starts and prediction re-convergence the fleet
//!   already paid for, with provenance reported in [`WarmStartStats`];
//! - **metrics** ([`ServeMetrics`]): requests, simulated cycles, p50/p99
//!   latency, configuration writes and bytes (vs. the cold cost), cache
//!   hit rate, and observed-vs-predicted cycle error for both predictors
//!   ([`PredictionStats`]), rendered through [`json`], the workspace's one
//!   JSON writer and strict reader.
//!
//! Everything is deterministic: routing happens at simulated-time decision
//! points, cost observations retire on the simulated clock, and latencies
//! are read off that same clock — so a stream serves to bit-identical
//! reports on every run. Nothing spawns: a dispatch executes on the
//! calling thread where the serve loop commits it, and parallelism is
//! across [`Runtime`]s. The full design is documented in
//! `docs/ARCHITECTURE.md`.
//!
//! ```
//! use accfg_runtime::{PoolConfig, Runtime, ServeConfig};
//! use accfg_targets::AcceleratorDescriptor;
//! use accfg_workloads::{mixed_serving_classes, TrafficConfig};
//!
//! let stream = TrafficConfig {
//!     classes: mixed_serving_classes(),
//!     requests: 64,
//!     mean_gap: 100,
//!     seed: 7,
//! }
//! .open_loop_stream()?;
//! let mut runtime = Runtime::new(PoolConfig::new(vec![
//!     AcceleratorDescriptor::gemmini(),
//!     AcceleratorDescriptor::opengemm(),
//! ]));
//! let report = runtime.serve(&stream, &ServeConfig::default())?;
//! assert_eq!(report.metrics.check_failures, 0);
//! assert!(report.metrics.setup_writes < report.metrics.cold_setup_writes);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A minimal serve over a hand-built three-shape mix (the skeleton of
//! `examples/serving.rs`), batching enabled (it stops at the slack horizon) —
//! note the warm repeats land as cache hits and the refined estimates
//! end up strictly closer to the observed cycles than the anchors:
//!
//! ```
//! use accfg_runtime::{Policy, PoolConfig, Runtime, ServeConfig};
//! use accfg_targets::AcceleratorDescriptor;
//! use accfg_workloads::{MatmulSpec, TrafficClass, TrafficConfig};
//!
//! let classes = vec![
//!     TrafficClass {
//!         accelerator: "opengemm".into(),
//!         spec: MatmulSpec::opengemm_paper(16)?,
//!         weight: 4,
//!     },
//!     TrafficClass {
//!         accelerator: "opengemm".into(),
//!         spec: MatmulSpec::opengemm_paper(24)?,
//!         weight: 2,
//!     },
//!     TrafficClass {
//!         accelerator: "gemmini".into(),
//!         spec: MatmulSpec::gemmini_paper(32)?,
//!         weight: 2,
//!     },
//! ];
//! let stream = TrafficConfig {
//!     classes,
//!     requests: 96,
//!     mean_gap: 120,
//!     seed: 11,
//! }
//! .open_loop_stream()?;
//!
//! let mut runtime = Runtime::new(PoolConfig::new(vec![
//!     AcceleratorDescriptor::gemmini(),
//!     AcceleratorDescriptor::opengemm(),
//! ]));
//! let report = runtime.serve(
//!     &stream,
//!     &ServeConfig {
//!         policy: Policy::ConfigAffinity,
//!         max_batch: 8,
//!         ..ServeConfig::default()
//!     },
//! )?;
//!
//! assert_eq!(report.metrics.requests, 96);
//! assert_eq!(report.metrics.check_failures, 0);
//! // three shapes compile once; everything else hits the module cache
//! assert_eq!(report.metrics.cache.misses, 3);
//! // online refinement beats the static anchors on this stream
//! let p = report.metrics.prediction;
//! assert!(p.ewma_abs_error < p.anchor_abs_error);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod error;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod plan;
pub mod policy;
pub mod runtime;
pub mod scheduler;
pub mod worker;

pub use cache::{
    build_module, CacheKey, CacheStats, CompiledModule, CostModel, CostRefiner, CostRow,
    ModuleCache, COST_ROWS, COST_ROW_AGNOSTIC, WARMTH_BUCKETS,
};
pub use error::ServeError;
pub use metrics::{
    class_label, ClassLatency, DepthHistogram, LatencyStats, PredictionStats, ServeMetrics,
    WarmStartStats, WorkerMetrics, DEPTH_BUCKETS,
};
pub use persist::{
    decode_module, encode_module, load_cost_row, load_costs, load_module, load_modules, save_costs,
    save_modules, CostSnapshotEntry, WarmStart,
};
pub use plan::{delta_writes, DispatchPlan, LaunchSpec, RegMap, WriteCmd};
pub use policy::Policy;
pub use runtime::{PoolConfig, PoolGroup, PredictionSample, Runtime, ServeConfig, ServeReport};
// inert, kept for `benchmark/` only (see `ServeConfig::mode`)
pub use runtime::ServeMode;
pub use scheduler::{CommitOutcome, Scheduler, LOAD_SLACK_CYCLES};
pub use worker::{Completion, Worker};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for the scheduler/policy unit tests.
    use crate::cache::{build_module, CompiledModule};
    use accfg::pipeline::OptLevel;
    use accfg_targets::AcceleratorDescriptor;
    use accfg_workloads::MatmulSpec;

    /// A uniform pool of `workers` OpenGeMM platform descriptors.
    pub(crate) fn uniform(workers: usize) -> Vec<AcceleratorDescriptor> {
        vec![AcceleratorDescriptor::opengemm(); workers]
    }

    /// A single-invocation module: same-shape repeats are zero-write.
    pub(crate) fn single_tile_module(size: i64) -> CompiledModule {
        let spec = MatmulSpec::new((size, size, size), (size, size, size)).unwrap();
        assert_eq!(spec.invocations(), 1);
        build_module(&AcceleratorDescriptor::opengemm(), spec, OptLevel::All).unwrap()
    }
}
