//! `accfg-lint`: the static-analysis gate over every module this repo
//! compiles — example/bench generators and each serve_bench stream class.
//!
//! Per module it runs, and treats any failure as a finding:
//!
//! 1. the IR verifier (`accfg_ir::verify`);
//! 2. the configuration-discipline check (`accfg::verify_discipline`);
//! 3. the config-write lints (`accfg_analyze::lint_module`) — dead
//!    writes, redundant writes, clobbered launches — on the raw module;
//! 4. the full pass pipeline at every [`OptLevel`] with per-pass
//!    translation validation (`accfg_analyze::pass_validator`) enabled,
//!    so every rewrite must preserve each launch's reaching
//!    configuration state;
//! 5. the lints again on the `OptLevel::All` output — a dead or
//!    redundant write *surviving* the full pipeline is a
//!    missed-optimization report.
//!
//! Prints one row per module (static write executions, the static
//! elidable-write lower bound, per-level validation status) and exits
//! nonzero iff anything fired, which is how CI consumes it.

use accfg::{pipeline, verify_discipline, OptLevel};
use accfg_analyze::{lint_module, pass_validator, LintReport};
use accfg_bench::corpus::lint_corpus;
use accfg_ir::{verify, Module};

const LEVELS: [OptLevel; 4] = [
    OptLevel::Base,
    OptLevel::Dedup,
    OptLevel::Overlap,
    OptLevel::All,
];

/// Lint findings plus the counters the summary row shows.
fn lint(name: &str, stage: &str, m: &Module, findings: &mut usize) -> LintReport {
    let report = lint_module(m);
    for site in &report.sites {
        println!("FINDING {name} [{stage}] {site}");
        *findings += 1;
    }
    report
}

fn main() {
    let mut findings = 0usize;
    println!(
        "{:<42} {:>9} {:>8}  validation",
        "module", "writes", "elidable"
    );
    for (name, desc, module) in lint_corpus() {
        if let Err(e) = verify(&module) {
            println!("FINDING {name} [verify] {e}");
            findings += 1;
            continue;
        }
        if let Err(e) = verify_discipline(&module) {
            println!("FINDING {name} [discipline] {e}");
            findings += 1;
        }
        let report = lint(&name, "raw", &module, &mut findings);
        let mut validated = Vec::new();
        for level in LEVELS {
            let mut opt = module.clone();
            let mut pm = pipeline(level, desc.overlap_filter());
            pm.validate_each(pass_validator());
            match pm.run(&mut opt) {
                Ok(_) => validated.push(format!("{level:?}")),
                Err(e) => {
                    println!("FINDING {name} [{level:?}] {e}");
                    findings += 1;
                    continue;
                }
            }
            if level == OptLevel::All {
                // nothing provably dead or redundant may survive the
                // full pipeline: that would be a missed optimization
                lint(&name, "All-output", &opt, &mut findings);
            }
        }
        println!(
            "{:<42} {:>9} {:>8}  {}",
            name,
            report.static_writes,
            report.elidable_bound,
            validated.join("+")
        );
    }
    if findings > 0 {
        println!("\naccfg-lint: {findings} finding(s)");
        std::process::exit(1);
    }
    println!("\naccfg-lint: clean");
}
