//! Config-write lints over the reaching-state analysis.
//!
//! Three lint classes, all derived from one [`crate::reach`] run:
//!
//! - **dead write** — a setup field write no launch can ever observe: it is
//!   overwritten on every path before the next launch of its accelerator.
//! - **redundant write** — the written value provably equals the value the
//!   register already holds on every path (exactly the condition
//!   `accfg-dedup` eliminates on, so any redundant write surviving the
//!   pipeline is a missed-optimization report).
//! - **clobbered launch** — a launch observes a field that an op with
//!   unknown side effects may have overwritten; the configuration the
//!   kernel runs with is not the one the program wrote.
//!
//! The report also carries the *static elidable-write lower bound*: the
//! number of per-call field-write executions proven *value-resident* —
//! the register provably already holds the written value. That is the sum
//! of redundant sites weighted by guaranteed constant-trip multiplicity,
//! plus the steady-state loop executions ([`FuncConfig::steady_elidable`])
//! where a write re-places the iteration-invariant value its previous
//! iteration left behind. A perfect dynamic elider skips exactly the
//! value-resident writes, so the bound is ≤ the interpreter's
//! `ExecTrace::elided_writes` on any run, and ≤ the serving runtime's
//! measured savings over the raw modules — the serving benchmark and
//! `tests/serving.rs` assert the latter per stream. Dead writes are *not*
//! in the bound: they are a pruning opportunity (the lint), not a
//! value-residency fact, and dynamic elision does not skip them.
//!
//! [`FuncConfig::steady_elidable`]: crate::reach::FuncConfig::steady_elidable

use crate::reach::{analyze_module, AbsVal};
use accfg_ir::Module;
use std::fmt;

/// Classification of one lint finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// A setup field write no launch can observe.
    DeadWrite,
    /// A setup field write whose value already resides in the register.
    RedundantWrite,
    /// A launch observing a possibly-clobbered field.
    ClobberedLaunch,
}

impl LintKind {
    /// A short kebab-case label.
    pub fn label(self) -> &'static str {
        match self {
            LintKind::DeadWrite => "dead-write",
            LintKind::RedundantWrite => "redundant-write",
            LintKind::ClobberedLaunch => "clobbered-launch",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintSite {
    /// What fired.
    pub kind: LintKind,
    /// Enclosing function (`sym_name`).
    pub func: String,
    /// Accelerator whose configuration is involved.
    pub accelerator: String,
    /// Field name.
    pub field: String,
}

impl fmt::Display for LintSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: @{} accelerator \"{}\" field \"{}\"",
            self.kind.label(),
            self.func,
            self.accelerator,
            self.field
        )
    }
}

/// The result of linting one module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Every finding, in analysis order.
    pub sites: Vec<LintSite>,
    /// Guaranteed field-write executions per call of each function, summed
    /// over the module (constant-trip loop nests only; conditional and
    /// unbounded-loop writes count 0).
    pub static_writes: u64,
    /// Lower bound on value-resident write executions: the summed
    /// multiplicity of redundant sites plus the steady-state loop
    /// executions proven to re-place an already-resident value. A perfect
    /// dynamic elider (and the interpreter's `elided_writes` ground truth)
    /// skips at least this many.
    pub elidable_bound: u64,
}

impl LintReport {
    /// `true` if no lint fired.
    pub fn is_clean(&self) -> bool {
        self.sites.is_empty()
    }

    /// Findings of one kind.
    pub fn count(&self, kind: LintKind) -> usize {
        self.sites.iter().filter(|s| s.kind == kind).count()
    }
}

/// Runs the reaching-state analysis and derives all lint findings.
pub fn lint_module(m: &Module) -> LintReport {
    let mut report = LintReport::default();
    for cfg in analyze_module(m) {
        // a finding is where symbols become the names a reader sees
        let site = |kind, accelerator, field: &str| LintSite {
            kind,
            func: cfg.func.clone(),
            accelerator: m.name(accelerator).to_string(),
            field: field.to_string(),
        };
        report.elidable_bound += cfg.steady_elidable;
        for write in &cfg.writes {
            report.static_writes += write.mult;
            if write.redundant {
                report.elidable_bound += write.mult;
            }
            let field = m.name(write.field);
            if write.dead {
                report
                    .sites
                    .push(site(LintKind::DeadWrite, write.accelerator, field));
            }
            if write.redundant {
                report
                    .sites
                    .push(site(LintKind::RedundantWrite, write.accelerator, field));
            }
        }
        for launch in &cfg.launches {
            for (field, val) in launch.named(m) {
                if val == AbsVal::Clobbered {
                    report
                        .sites
                        .push(site(LintKind::ClobberedLaunch, launch.accelerator, field));
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use accfg_ir::{FuncBuilder, Module, Type};

    #[test]
    fn clean_module_reports_clean() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let s = b.setup("acc", &[("x", args[0])]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        let report = lint_module(&m);
        assert!(report.is_clean(), "{:?}", report.sites);
        assert_eq!(report.static_writes, 1);
        assert_eq!(report.elidable_bound, 0);
    }

    #[test]
    fn dead_and_redundant_writes_fire_but_only_redundancy_bounds() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64, Type::I64]);
        // x=a0 (dead: overwritten), x=a1, y=a0, y=a0 (redundant)
        let s = b.setup("acc", &[("x", args[0])]);
        let s2 = b.setup_from("acc", s, &[("x", args[1]), ("y", args[0])]);
        let s3 = b.setup_from("acc", s2, &[("y", args[0])]);
        let t = b.launch("acc", s3);
        b.await_token("acc", t);
        b.ret(vec![]);
        let report = lint_module(&m);
        assert_eq!(report.count(LintKind::DeadWrite), 1);
        assert_eq!(report.count(LintKind::RedundantWrite), 1);
        assert_eq!(report.static_writes, 4);
        // the dead write is a prune opportunity, not a value-residency
        // fact: only the redundant write bounds dynamic elision
        assert_eq!(report.elidable_bound, 1);
    }

    #[test]
    fn loop_invariant_rewrites_raise_the_bound_from_iteration_two() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(5);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            // tile re-materializes a constant per iteration, the address
            // genuinely varies: only the former is resident from iter 2 on
            let tile = b.const_index(16);
            let s = b.setup("acc", &[("tile", tile), ("addr", iv), ("inv", args[0])]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);
        let report = lint_module(&m);
        assert!(report.is_clean(), "{:?}", report.sites);
        assert_eq!(report.static_writes, 15);
        // tile and inv are value-resident for iterations 2..=5: 2 * 4
        assert_eq!(report.elidable_bound, 8);
    }

    #[test]
    fn clobbered_launch_fires() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let s = b.setup("acc", &[("x", args[0])]);
        b.opaque("mystery", vec![], vec![], None);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        let report = lint_module(&m);
        assert_eq!(report.count(LintKind::ClobberedLaunch), 1);
        assert_eq!(
            report.sites[0].to_string(),
            "clobbered-launch: @f accelerator \"acc\" field \"x\""
        );
    }
}
