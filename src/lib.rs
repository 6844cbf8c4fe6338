//! # configuration-wall
//!
//! A from-scratch Rust reproduction of *"The Configuration Wall:
//! Characterization and Elimination of Accelerator Configuration Overhead"*
//! (ASPLOS 2026): the configuration roofline model, the `accfg` compiler
//! abstraction with its deduplication and overlap optimizations, and the
//! simulated Gemmini-like / OpenGeMM-like evaluation platforms.
//!
//! This facade crate re-exports the workspace:
//!
//! - [`ir`] — MLIR-style SSA IR substrate (ops, builder, printer/parser,
//!   verifier, generic passes)
//! - [`core`] — the `accfg` dialect and its optimization passes
//! - [`analyze`] — static configuration-state analysis: reaching-config
//!   abstract interpretation, config-write lints, and per-pass
//!   translation validation
//! - [`sim`] — the cycle-level host + accelerator co-simulator
//! - [`targets`] — accelerator descriptors and IR → instruction lowering
//! - [`roofline`] — Equations 1–5 of the paper
//! - [`workloads`] — tiled-matmul IR generators, reference results, and
//!   request-stream traffic generation
//! - [`runtime`] — the config-affinity serving runtime: compiled-module
//!   cache, resident-state-aware dispatch, and pooled simulated workers
//! - [`store`] — the dependency-free append-only log store backing
//!   persistent warm starts (compiled modules + learned cost state)
//!
//! See the `examples/` directory for runnable end-to-end walkthroughs and
//! `crates/bench` for the binaries regenerating every table and figure.
//!
//! ```
//! use configuration_wall::prelude::*;
//!
//! let desc = AcceleratorDescriptor::opengemm();
//! let spec = MatmulSpec::opengemm_paper(16)?;
//! let mut module = matmul_ir(&desc, &spec);
//! pipeline(OptLevel::All, AccelFilter::All).run(&mut module).unwrap();
//! assert!(desc.supports_overlap());
//! # Ok::<(), configuration_wall::workloads::SpecError>(())
//! ```

#![warn(missing_docs)]

pub use accfg as core;
pub use accfg_analyze as analyze;
pub use accfg_ir as ir;
pub use accfg_roofline as roofline;
pub use accfg_runtime as runtime;
pub use accfg_sim as sim;
pub use accfg_store as store;
pub use accfg_targets as targets;
pub use accfg_workloads as workloads;

/// The most common imports for building, optimizing, lowering, and running
/// an accelerator kernel.
pub mod prelude {
    pub use accfg::pipeline::{pipeline, OptLevel};
    pub use accfg::{interpret, AccelFilter};
    pub use accfg_ir::{FuncBuilder, Module, PassManager, Type};
    pub use accfg_roofline::{ConfigRoofline, ProcessorRoofline, Roofsurface};
    pub use accfg_runtime::{Policy, PoolConfig, Runtime, ServeConfig};
    pub use accfg_sim::{AccelParams, AccelSim, HostModel, Machine, TimingModel};
    pub use accfg_targets::{compile, AcceleratorDescriptor};
    pub use accfg_workloads::{matmul_ir, MatmulLayout, MatmulSpec, TrafficConfig};
}
