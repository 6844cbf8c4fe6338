//! # accfg: the configuration-wall compiler abstraction
//!
//! This crate is the primary contribution of *"The Configuration Wall:
//! Characterization and Elimination of Accelerator Configuration Overhead"*
//! (ASPLOS 2026), reproduced in Rust: a compiler abstraction that makes
//! accelerator configuration visible to the optimizer, plus the passes that
//! move programs out of the configuration-bound region of the roofline.
//!
//! ## The abstraction (Section 5.1)
//!
//! Three ops model the configure/launch/await lifecycle:
//!
//! ```text
//! %state = accfg.setup "gemm" to ("x" = %x, "A" = %ptrA) : !accfg.state<"gemm">
//! %token = accfg.launch "gemm" with %state : !accfg.token<"gemm">
//! accfg.await "gemm" %token
//! ```
//!
//! `!accfg.state` values thread the contents of the accelerator's
//! configuration registers through the SSA graph, so ordinary compiler
//! machinery (CSE, SSA-value equality) can reason about external register
//! state — the thing `volatile` inline assembly makes impossible.
//!
//! ## The passes (Sections 5.3–5.5)
//!
//! - [`TraceStates`] connects setups through straight-line code, `scf.if`,
//!   and `scf.for` (step 2 of Figure 8)
//! - [`HoistSetupIntoBranch`] / [`HoistInvariantSetupFields`] expose more
//!   redundancy (Section 5.4.1)
//! - [`Deduplicate`] removes writes of values already in the registers,
//!   with [`RemoveEmptySetups`] and [`MergeSetups`] cleanups (Section 5.4)
//! - [`RotateLoops`] / [`OverlapInBlock`] hide configuration behind
//!   accelerator execution on concurrent-configuration hardware
//!   (Section 5.5)
//! - [`pipeline::pipeline`] assembles them per [`pipeline::OptLevel`],
//!   matching the four configurations of Figure 12
//!
//! ## Example
//!
//! ```
//! use accfg_ir::{FuncBuilder, Module, Type};
//! use accfg::pipeline::{pipeline, OptLevel};
//! use accfg::{interpret, AccelFilter};
//!
//! // a tiled loop that reconfigures the full register file every iteration
//! let mut m = Module::new();
//! let (mut b, args) = FuncBuilder::new_func(&mut m, "tiles", vec![Type::I64]);
//! let (lb, ub, step) = (b.const_index(0), b.const_index(4), b.const_index(1));
//! b.build_for(lb, ub, step, vec![], |b, iv, _| {
//!     let s = b.setup("gemm", &[("base", args[0]), ("i", iv)]);
//!     let t = b.launch("gemm", s);
//!     b.await_token("gemm", t);
//!     vec![]
//! });
//! b.ret(vec![]);
//!
//! let before = interpret(&m, "tiles", &[0x80], 10_000)?;
//! pipeline(OptLevel::All, AccelFilter::All).run(&mut m).unwrap();
//! let after = interpret(&m, "tiles", &[0x80], 10_000)?;
//! assert_eq!(before.launches, after.launches);   // semantics preserved
//! assert!(after.setup_writes < before.setup_writes); // config eliminated
//! # Ok::<(), accfg::InterpError>(())
//! ```

#![warn(missing_docs)]

pub mod dedup;
pub mod dialect;
pub mod discipline;
pub mod fieldmap;
pub mod hoist;
pub mod interp;
pub mod overlap;
pub mod pipeline;
pub mod regstate;
pub mod trace_states;

pub use dedup::{Deduplicate, MergeSetups, ReachingFields, RemoveEmptySetups};
pub use dialect::{
    accelerator, accelerators_used, make_setup, setup_fields, setup_input_state, setup_state,
    setups_for, state_effect, SetupFields, StateEffect,
};
pub use discipline::{static_setup_field_count, verify_discipline, DisciplineError};
pub use fieldmap::{ConfigState, FieldMap};
pub use hoist::{HoistInvariantSetupFields, HoistSetupIntoBranch};
pub use interp::{interpret, ExecTrace, InterpError, LaunchRecord, CLOBBER_POISON};
pub use overlap::{AccelFilter, OverlapInBlock, RotateLoops};
pub use pipeline::{pipeline, OptLevel};
pub use regstate::launch_write_plan;
pub use trace_states::TraceStates;
