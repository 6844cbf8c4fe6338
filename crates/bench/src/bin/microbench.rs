//! Deterministic micro-benchmarks, cycle-counted on the simulator clock.
//!
//! Everything this workspace cares about is *simulated* cost, which the
//! simulator counts exactly — so these micro-benches report simulated
//! cycles and instruction counts: byte-identical on every machine and
//! every run, and diffable in CI.
//!
//! Suites:
//!
//! - `cosimulation` — end-to-end co-simulation cost of the OpenGeMM tiled
//!   matmul across sizes;
//! - `host_cpi_sensitivity` — Gemmini total cycles and effective
//!   configuration bandwidth as the host CPI scales (the knee-shifting
//!   ablation);
//! - `pipeline_levels` — what each optimization level of the accfg
//!   pipeline buys on the simulated program;
//! - `timing_model` — the identity vs. reference [`TimingModel`]: what
//!   shared-bandwidth contention and DVFS cost a back-to-back dispatch
//!   pair, per platform;
//! - `dvfs_sensitivity` — the reference OpenGeMM DVFS table against
//!   swept boost/cooldown thresholds: how the warm/boost ramp points and
//!   the cooldown window move the launch-state mix and total cycles of
//!   one tiled matmul (the table the `thermal` policy's heat mirror and
//!   the frequency-keyed EWMA rows key on).
//!
//! Run with `cargo run --release -p accfg-bench --bin microbench`.
//!
//! [`TimingModel`]: accfg_sim::TimingModel

use accfg::pipeline::OptLevel;
use accfg_bench::{markdown_table, measure};
use accfg_sim::{Counters, DvfsParams, HostModel};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::{gemmini_ws_ir, matmul_ir, MatmulSpec};

/// The counters of `desc`'s tiled matmul at `level`, measured (and
/// functionally checked) under the descriptor's timing model.
fn counters(desc: &AcceleratorDescriptor, spec: &MatmulSpec, level: OptLevel) -> Counters {
    let module = matmul_ir(desc, spec);
    measure(desc, spec, module, Some(level), level.label()).counters
}

/// Launches per frequency state, `cold/warm/boost`.
fn freq_mix(c: &Counters) -> String {
    let [cold, warm, boost] = c.freq_launches;
    format!("{cold}/{warm}/{boost}")
}

fn cosimulation() {
    println!("== cosimulation: OpenGeMM tiled matmul, OptLevel::All ==");
    let desc = AcceleratorDescriptor::opengemm();
    let rows: Vec<Vec<String>> = [16i64, 32, 64]
        .iter()
        .map(|&size| {
            let spec = MatmulSpec::opengemm_paper(size).expect("valid size");
            let c = counters(&desc, &spec, OptLevel::All);
            // the simulator clock is exact: a second run must agree
            assert_eq!(c, counters(&desc, &spec, OptLevel::All), "nondeterminism");
            vec![
                size.to_string(),
                c.cycles.to_string(),
                c.insts_total.to_string(),
                c.config_cycles.to_string(),
                c.stall_cycles.to_string(),
                format!("{:.2}", c.ops_per_cycle(2 * (size * size * size) as u64)),
            ]
        })
        .collect();
    print!(
        "{}",
        markdown_table(
            &[
                "size",
                "cycles",
                "insts",
                "config cyc",
                "stall cyc",
                "ops/cyc"
            ],
            &rows,
        )
    );
    println!();
}

fn host_cpi_sensitivity() {
    println!("== host_cpi_sensitivity: Gemmini WS flow, OptLevel::Dedup ==");
    let rows: Vec<Vec<String>> = [1u64, 3, 5]
        .iter()
        .map(|&cpi| {
            let mut desc = AcceleratorDescriptor::gemmini();
            desc.host = HostModel {
                name: format!("rocket-cpi{cpi}"),
                alu: cpi,
                li: cpi,
                mem: cpi,
                branch: cpi,
                jump: cpi,
                csr_write: cpi,
                rocc: cpi,
                launch: cpi,
                poll: cpi,
            };
            let spec = MatmulSpec::gemmini_paper(64).expect("valid size");
            let module = gemmini_ws_ir(&desc, &spec);
            let c = measure(&desc, &spec, module, Some(OptLevel::Dedup), "dedup").counters;
            vec![
                cpi.to_string(),
                c.cycles.to_string(),
                c.config_cycles.to_string(),
                format!("{:.3}", c.effective_config_bandwidth()),
            ]
        })
        .collect();
    print!(
        "{}",
        markdown_table(
            &["host CPI", "cycles", "config cyc", "BW_eff (B/cyc)"],
            &rows
        )
    );
    println!();
}

fn pipeline_levels() {
    println!("== pipeline_levels: OpenGeMM 64³, simulated cost per opt level ==");
    let desc = AcceleratorDescriptor::opengemm();
    let spec = MatmulSpec::opengemm_paper(64).expect("valid size");
    let base_cycles = counters(&desc, &spec, OptLevel::Base).cycles;
    let rows: Vec<Vec<String>> = [
        OptLevel::Base,
        OptLevel::Dedup,
        OptLevel::Overlap,
        OptLevel::All,
    ]
    .iter()
    .map(|&level| {
        let c = counters(&desc, &spec, level);
        // dedup-only and overlap-only are not ordered against each
        // other, but no level may lose to the unoptimized baseline
        assert!(c.cycles <= base_cycles, "{level:?} regressed past Base");
        vec![
            level.label().to_string(),
            c.cycles.to_string(),
            c.insts_config.to_string(),
            c.config_bytes.to_string(),
            c.overlap_cycles.to_string(),
        ]
    })
    .collect();
    print!(
        "{}",
        markdown_table(
            &[
                "level",
                "cycles",
                "config insts",
                "config bytes",
                "overlap cyc"
            ],
            &rows,
        )
    );
    println!();
}

fn timing_model() {
    println!("== timing_model: identity vs reference contention + DVFS ==");
    let mut rows = Vec::new();
    for base in [
        AcceleratorDescriptor::gemmini(),
        AcceleratorDescriptor::opengemm(),
    ] {
        let spec = match base.name.as_str() {
            "gemmini" => MatmulSpec::gemmini_paper(64),
            _ => MatmulSpec::opengemm_paper(32),
        }
        .expect("valid size");
        let timed = base.clone().with_reference_timing();
        let ident = counters(&base, &spec, OptLevel::All);
        let rich = counters(&timed, &spec, OptLevel::All);
        assert_eq!(ident.contention_cycles, 0);
        rows.push(vec![
            base.name.clone(),
            ident.cycles.to_string(),
            rich.cycles.to_string(),
            rich.contention_cycles.to_string(),
            freq_mix(&rich),
        ]);
    }
    print!(
        "{}",
        markdown_table(
            &[
                "platform",
                "identity cyc",
                "timed cyc",
                "cont cyc",
                "freq c/w/b"
            ],
            &rows,
        )
    );
    println!();
}

/// The reference DVFS table plus one-knob perturbations of it, in sweep
/// order: ramp points moved both ways, and a cooldown window short enough
/// to fire in the config-write gaps *between* launches of a single
/// program.
fn dvfs_tables(reference: DvfsParams) -> [(&'static str, DvfsParams); 4] {
    [
        ("reference", reference),
        (
            "eager-ramp",
            DvfsParams {
                warm_busy_cycles: reference.warm_busy_cycles / 4,
                boost_busy_cycles: reference.boost_busy_cycles / 4,
                ..reference
            },
        ),
        (
            "lazy-ramp",
            DvfsParams {
                warm_busy_cycles: reference.warm_busy_cycles * 4,
                boost_busy_cycles: reference.boost_busy_cycles * 4,
                ..reference
            },
        ),
        (
            "skittish-cooldown",
            DvfsParams {
                cooldown_idle_cycles: 4,
                ..reference
            },
        ),
    ]
}

fn dvfs_sensitivity() {
    println!("== dvfs_sensitivity: OpenGeMM 64³, swept boost/cooldown thresholds ==");
    let reference = AcceleratorDescriptor::opengemm()
        .with_reference_timing()
        .timing
        .dvfs
        .expect("reference timing carries a DVFS table");
    let spec = MatmulSpec::opengemm_paper(64).expect("valid size");
    let runs: Vec<(&str, Counters)> = dvfs_tables(reference)
        .into_iter()
        .map(|(label, table)| {
            let mut desc = AcceleratorDescriptor::opengemm().with_reference_timing();
            desc.timing.dvfs = Some(table);
            let c = counters(&desc, &spec, OptLevel::All);
            assert_eq!(c, counters(&desc, &spec, OptLevel::All), "nondeterminism");
            (label, c)
        })
        .collect();
    let launches = |c: &Counters| c.freq_launches.iter().sum::<u64>();
    let boosts = |c: &Counters| c.freq_launches[2];
    let reference_run = &runs[0].1;
    for (label, c) in &runs {
        // the table changes when launches run, never how many there are
        assert_eq!(
            launches(c),
            launches(reference_run),
            "{label}: launch count drifted"
        );
    }
    // lower ramp points can only reach boost sooner, higher ones later,
    // and a hair-trigger cooldown can only lose heat between launches
    assert!(boosts(&runs[1].1) >= boosts(reference_run), "eager-ramp");
    assert!(boosts(&runs[2].1) <= boosts(reference_run), "lazy-ramp");
    assert!(
        runs[3].1.freq_launches[0] >= reference_run.freq_launches[0],
        "skittish-cooldown must not launch colder than the reference"
    );
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(label, c)| {
            vec![
                label.to_string(),
                c.cycles.to_string(),
                c.contention_cycles.to_string(),
                freq_mix(c),
            ]
        })
        .collect();
    print!(
        "{}",
        markdown_table(&["variant", "cycles", "cont cyc", "freq c/w/b"], &rows)
    );
    println!();
}

fn main() {
    println!("microbench: deterministic simulated-cycle micro-benchmarks\n");
    cosimulation();
    host_cpi_sensitivity();
    pipeline_levels();
    timing_model();
    dvfs_sensitivity();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dvfs_variants_are_the_four_tables_microbench_sweeps() {
        // every table written out in full, over OpenGeMM's reference table
        let reference = AcceleratorDescriptor::opengemm()
            .with_reference_timing()
            .timing
            .dvfs
            .expect("reference timing carries a DVFS table");
        let table = |warm, boost, cooldown| DvfsParams {
            warm_busy_cycles: warm,
            boost_busy_cycles: boost,
            cooldown_idle_cycles: cooldown,
            speed_pct: [40, 100, 160],
        };
        let expected = [
            ("reference", table(1_024, 4_096, 8_192)),
            ("eager-ramp", table(256, 1_024, 8_192)),
            ("lazy-ramp", table(4_096, 16_384, 8_192)),
            ("skittish-cooldown", table(1_024, 4_096, 4)),
        ];
        assert_eq!(dvfs_tables(reference), expected);
    }
}
