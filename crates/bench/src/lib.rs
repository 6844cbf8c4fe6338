//! # accfg-bench: experiment harnesses for every table and figure
//!
//! Shared machinery for the binaries that regenerate the paper's evaluation
//! (Section 6): build a workload, run a pass pipeline, lower it, simulate
//! it cycle-accurately, functionally check the result, and derive the
//! roofline quantities the paper plots.
//!
//! [`paper`] computes the paper's numbers-bearing artefacts as values,
//! each with one renderer; the figure / table binaries print those
//! renderers and [`measure`] is the one measured-kernel recipe under all of
//! them.
//!
//! Binaries (run with `cargo run -p accfg-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 (gemmini_loop_ws field table) |
//! | `fig3_roofline` | Figure 3 (processor roofline) |
//! | `fig4_config_roofline` | Figure 4 (configuration roofline + regions) |
//! | `fig5_roofsurface` | Figure 5 (combined roofsurface) |
//! | `sec46_example` | Section 4.6 (Gemmini worked example) |
//! | `fig10_gemmini` | Figure 10 (Gemmini C vs accfg attainable perf) |
//! | `fig11_opengemm` | Figure 11 (OpenGeMM base vs optimized, measured) |
//! | `fig12_roofline_scatter` | Figure 12 (per-pass ablation on the roofline) |
//! | `make_experiments` | composes the renderers above into `EXPERIMENTS.md` (committed; CI `cmp`s a fresh run against it) |
//! | `serve_bench` | the serving-runtime characterization (`BENCH_runtime.json`) |
//! | `microbench` | deterministic simulated-cycle micro-benchmarks |
//! | `autotune` | the deterministic serving-knob autotuner (`TUNED.json`) |

#![warn(missing_docs)]

pub mod cli;
pub mod corpus;
pub mod csv;
pub mod json;
pub mod paper;
pub mod streams;
pub mod tune;

use accfg::pipeline::{pipeline, OptLevel};
use accfg_roofline::ConfigRoofline;
use accfg_sim::{AccelSim, Counters, Machine, Program};
use accfg_targets::{compile, AcceleratorDescriptor};
use accfg_workloads::{
    check_result, fill_inputs, gemmini_ws_ir, matmul_ir, MatmulLayout, MatmulSpec,
};

/// One measured configuration point.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Square matrix size.
    pub size: i64,
    /// Configuration label ("C", "accfg", "base", "dedup", ...).
    pub label: String,
    /// Raw simulator counters.
    pub counters: Counters,
    /// Total accelerator operations (2·m·n·k).
    pub ops: u64,
    /// Static instruction count of the compiled program.
    pub static_insts: usize,
}

impl Measurement {
    /// Measured performance in ops/cycle (the y-axis of Figures 11 and 12).
    pub fn perf(&self) -> f64 {
        self.counters.ops_per_cycle(self.ops)
    }

    /// Operation-to-configuration intensity I_OC in ops/byte.
    pub fn i_oc(&self) -> f64 {
        self.counters.operation_intensity(self.ops)
    }

    /// Effective configuration bandwidth (Equation 4) in bytes/cycle.
    pub fn bw_eff(&self) -> f64 {
        self.counters.effective_config_bandwidth()
    }

    /// The paper's Figure 10 y-axis: attainable performance from the
    /// sequential roofline (Equation 3) with the *effective* configuration
    /// bandwidth derived from the traced counters — exactly the proxy
    /// Section 6.1 describes.
    pub fn attainable_sequential(&self, peak: f64) -> f64 {
        let r = ConfigRoofline {
            peak,
            config_bandwidth: self.bw_eff(),
        };
        r.attainable_sequential(self.i_oc())
    }
}

/// Which compilation flow to measure on the Gemmini platform (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemminiFlavor {
    /// The C baseline: the volatile-inline-assembly sequence, pinned —
    /// no IR passes run at all.
    CBaseline,
    /// The accfg flow: generic cleanups + state tracing + hoisting +
    /// deduplication (overlap is impossible on sequential hardware).
    Accfg,
}

impl GemminiFlavor {
    /// Display label as in Figure 10's legend.
    pub fn label(self) -> &'static str {
        match self {
            GemminiFlavor::CBaseline => "C Gemmini",
            GemminiFlavor::Accfg => "accfg (ours)",
        }
    }

    /// The pipeline the flow compiles with: none pins the IR as written.
    pub(crate) fn level(self) -> Option<OptLevel> {
        (self == GemminiFlavor::Accfg).then_some(OptLevel::Dedup)
    }
}

/// Everything [`measure`] does before the run: `module` through the
/// `level` pipeline (`None` pins the IR as written), lowered for `desc`,
/// and a fresh machine under the descriptor's timing model with the
/// inputs filled — for callers that drive the machine themselves.
///
/// # Panics
/// Panics if any stage fails — harnesses want loud failures.
pub fn prepare(
    desc: &AcceleratorDescriptor,
    spec: &MatmulSpec,
    mut module: accfg_ir::Module,
    level: Option<OptLevel>,
) -> (Machine, Program, MatmulLayout) {
    if let Some(level) = level {
        pipeline(level, desc.overlap_filter())
            .run(&mut module)
            .expect("pipeline runs");
    }
    let layout = MatmulLayout::at(0x1000, spec);
    let prog = compile(
        &module,
        "matmul",
        desc,
        &[layout.a_addr, layout.b_addr, layout.c_addr],
    )
    .expect("lowering succeeds");
    let mut machine = Machine::new(
        desc.host.clone(),
        AccelSim::with_timing(desc.accel.clone(), desc.timing),
        layout.end as usize,
    );
    fill_inputs(&mut machine.mem, spec, &layout, 0x5EED + spec.m as u64).expect("inputs fit");
    (machine, prog, layout)
}

/// Builds, compiles, runs, and functionally checks one workload.
///
/// # Panics
/// Panics if any stage fails — harnesses want loud failures.
pub fn measure(
    desc: &AcceleratorDescriptor,
    spec: &MatmulSpec,
    module: accfg_ir::Module,
    level: Option<OptLevel>,
    label: impl Into<String>,
) -> Measurement {
    let (mut machine, prog, layout) = prepare(desc, spec, module, level);
    let counters = machine.run(&prog, 1_000_000_000).expect("simulation");
    check_result(&machine.mem, spec, &layout).expect("functional result matches reference");
    Measurement {
        size: spec.m,
        label: label.into(),
        counters,
        ops: spec.total_ops() as u64,
        static_insts: prog.len(),
    }
}

/// Runs the Gemmini weight-stationary experiment of Figure 10 for one size
/// and flavor.
pub fn run_gemmini(size: i64, flavor: GemminiFlavor) -> Measurement {
    let desc = AcceleratorDescriptor::gemmini();
    let spec = MatmulSpec::gemmini_paper(size).expect("valid gemmini size");
    let module = gemmini_ws_ir(&desc, &spec);
    measure(&desc, &spec, module, flavor.level(), flavor.label())
}

/// Runs the OpenGeMM tiled-matmul experiment of Figures 11/12 for one size
/// and optimization level.
pub fn run_opengemm(size: i64, level: OptLevel) -> Measurement {
    let desc = AcceleratorDescriptor::opengemm();
    let spec = MatmulSpec::opengemm_paper(size).expect("valid opengemm size");
    let module = matmul_ir(&desc, &spec);
    measure(&desc, &spec, module, Some(level), level.label())
}

/// Geometric mean.
///
/// # Panics
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The matrix sizes of Figure 10.
pub const FIG10_SIZES: [i64; 5] = [32, 64, 128, 256, 512];
/// The matrix sizes of Figures 11 and 12.
pub const FIG11_SIZES: [i64; 6] = [16, 32, 64, 128, 256, 512];
/// The matrix sizes plotted in Figure 12.
pub const FIG12_SIZES: [i64; 3] = [64, 128, 256];

/// Renders a simple aligned markdown table.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "| {} |", header.join(" | ")).unwrap();
    writeln!(
        out,
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    )
    .unwrap();
    for row in rows {
        writeln!(out, "| {} |", row.join(" | ")).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_value() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gemmini_small_size_measures() {
        let c = run_gemmini(32, GemminiFlavor::CBaseline);
        let a = run_gemmini(32, GemminiFlavor::Accfg);
        assert_eq!(c.counters.launches, 1);
        assert_eq!(a.counters.launches, 1);
        // accfg folds the packing: fewer host cycles, higher attainable perf
        assert!(a.counters.host_cycles < c.counters.host_cycles);
        assert!(a.attainable_sequential(512.0) > c.attainable_sequential(512.0));
    }

    #[test]
    fn opengemm_small_size_measures() {
        let base = run_opengemm(16, OptLevel::Base);
        let all = run_opengemm(16, OptLevel::All);
        assert_eq!(base.counters.launches, 4);
        assert_eq!(all.counters.launches, 4);
        assert!(all.perf() > base.perf());
    }

    #[test]
    fn markdown_table_shapes() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(t.lines().count(), 3);
    }
}
