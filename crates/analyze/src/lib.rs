//! # accfg-analyze: static configuration-state analysis
//!
//! The passes in `accfg` rewrite configuration programs aggressively, and
//! the serving runtime elides writes dynamically at dispatch time — this
//! crate is the correctness tooling that *proves* those rewrites preserve
//! the configuration state each launch observes, and that quantifies how
//! close dynamic elision is to the statically provable optimum.
//!
//! Everything is built on one engine ([`reach`]): an abstract
//! interpretation over the structured IR computing, at every
//! `accfg.launch`, the *reaching configuration state* — a per-accelerator
//! field map in the lattice
//!
//! ```text
//!        Clobbered            (an op with unknown effects may have
//!            |                 overwritten the register)
//!        Divergent            (well-defined per path, but not a single
//!            |                 SSA value: branch/loop joins)
//!        Known(v)             (every path wrote SSA value v last)
//! ```
//!
//! joined across `scf.if` branches and `scf.for` back-edges (a shrinking
//! fixpoint, the same field semantics as `accfg::dedup::ReachingFields`).
//! Three consumers ship on top:
//!
//! - [`validate::validate_translation`] — translation validation: a
//!   differential checker asserting per-launch reaching-state equivalence
//!   between a module snapshot and its post-pass rewrite. Plug it into
//!   [`accfg_ir::PassManager::validate_each`] via [`pass_validator`].
//! - [`lints`] — config-write lints: dead setup-field writes, redundant
//!   writes, and launches over clobbered fields, plus the *static
//!   elidable-write lower bound* the serving benchmark compares against
//!   measured dynamic elision.
//! - the delta-dispatch proof check in `accfg-runtime` replays this
//!   crate's contract at plan granularity.

#![warn(missing_docs)]

pub mod lints;
pub mod reach;
pub mod validate;

pub use lints::{lint_module, LintKind, LintReport, LintSite};
pub use reach::{analyze_func, analyze_module, AbsVal, FuncConfig, LaunchState, WriteSite};
pub use validate::{validate_translation, LaunchDiff, ValidationError};

/// A ready-made [`accfg_ir::PassManager::validate_each`] hook running
/// [`validate_translation`] between every pass.
///
/// # Examples
///
/// ```
/// use accfg::pipeline::{pipeline, OptLevel};
/// use accfg::AccelFilter;
/// use accfg_ir::{FuncBuilder, Module, Type};
///
/// let mut m = Module::new();
/// let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
/// let s = b.setup("acc", &[("x", args[0])]);
/// let t = b.launch("acc", s);
/// b.await_token("acc", t);
/// b.ret(vec![]);
///
/// let mut pm = pipeline(OptLevel::All, AccelFilter::All);
/// pm.validate_each(accfg_analyze::pass_validator());
/// pm.run(&mut m).unwrap(); // every pass validates clean
/// ```
pub fn pass_validator() -> impl Fn(&accfg_ir::Module, &accfg_ir::Module, &str) -> Result<(), String>
{
    |before, after, _pass| validate_translation(before, after).map_err(|e| e.to_string())
}
