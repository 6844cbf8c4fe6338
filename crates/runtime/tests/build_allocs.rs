//! A deterministic allocation budget for `build_module`.
//!
//! Wall time on a shared host cannot guard the compile path; heap
//! allocations can: the count repeats exactly on one toolchain. This
//! binary installs a counting global allocator and takes modules through
//! the stages `build_module` runs, at `OptLevel::All`: OpenGeMM 24x16x64 in
//! 8x8x64 tiles (a two-deep loop nest, the expensive half of the
//! `cold_shapes` grid), Gemmini 24x16x64 untiled (one straight-line setup),
//! and then the benchmark's whole 1 152-shape `cold_shapes` grid. It prints
//! the allocations of each stage and asserts that the pipeline, the two
//! stages that handle launch records (`interpret`, `from_trace`) and the
//! total stay under the figures measured when they were last rebuilt, plus
//! 15 %.
//!
//! Allocations per module: before the IR substrate was rebuilt (interned
//! names, a maintained use-def index, stamp-gated re-verification, one
//! reaching-fields solve per dedup), at that rebuild, with dense serve-time
//! register files (`from_trace`, `cost`), and with launch records that are
//! one symbol-indexed `FieldMap<i64>` each:
//!
//! ```text
//!                  matmul_ir pipeline compile interpret from_trace cost  sum
//! opengemm 24x16x64 / 8x8x64
//!   before the rebuild   276     2296      71       308         44   35 3030
//!   at the rebuild       175      312      26       233         44   35  825
//!   dense register files 175      312      26       233          1    0  747
//!   → at this PR         176      312      26        24          5    0  543
//! gemmini 24x16x64 untiled
//!   before the rebuild   103      381      33        43         12   11  583
//!   at the rebuild        65       73      14        37         12   11  212
//!   dense register files  65       73      14        37          1    0  190
//!   → at this PR          66       73      14         5          4    0  162
//! cold_shapes grid mean
//!   before the rebuild   187     1203      51       291         47   36 1815
//!   at the rebuild       118      188      20       229         47   36  637
//!   dense register files 118      188      20       229          1    0  556
//!   → at this PR         119      188      20        21          4.5  0  353
//! ```
//!
//! A launch record costs one allocation — the copy of the accelerator's
//! register file — however many fields the file holds; the names the
//! record spells them with are the module's own table, shared. `from_trace`
//! is the plan's launch list plus the growth of its field → register memo,
//! which learns how far the trace's symbols reach only as it meets them.
//!
//! Run with `--nocapture` to see the table (CI does).

use accfg::{interpret, pipeline, OptLevel};
use accfg_runtime::{build_module, CostModel, DispatchPlan};
use accfg_targets::{compile, AcceleratorDescriptor};
use accfg_workloads::{matmul_ir, MatmulLayout, MatmulSpec};
use common::counted;

mod common;

/// Interpreter budget for plan extraction, as `build_module` sets it.
const PLAN_FUEL: u64 = 50_000_000;

/// Allocations of each stage of a build, summed over some modules.
#[derive(Default)]
struct Stages {
    matmul_ir: u64,
    pipeline: u64,
    compile: u64,
    interpret: u64,
    from_trace: u64,
    cost: u64,
}

impl Stages {
    fn sum(&self) -> u64 {
        self.matmul_ir + self.pipeline + self.compile + self.interpret + self.from_trace + self.cost
    }

    /// Takes one module through the stages, as `build_module` does.
    fn add(&mut self, desc: &AcceleratorDescriptor, spec: &MatmulSpec) {
        let (mut module, allocs) = counted(|| matmul_ir(desc, spec));
        self.matmul_ir += allocs;
        let (run, allocs) = counted(|| {
            pipeline(OptLevel::All, desc.overlap_filter())
                .run(&mut module)
                .map(drop)
        });
        run.expect("the pipeline verifies");
        self.pipeline += allocs;
        let layout = MatmulLayout::at(0x1000, spec);
        let args = [layout.a_addr, layout.b_addr, layout.c_addr];
        let (program, allocs) = counted(|| compile(&module, "matmul", desc, &args));
        program.expect("the module lowers");
        self.compile += allocs;
        let (trace, allocs) = counted(|| interpret(&module, "matmul", &args, PLAN_FUEL));
        let trace = trace.expect("the module interprets");
        self.interpret += allocs;
        let (plan, allocs) = counted(|| DispatchPlan::from_trace(&trace, desc));
        let plan = plan.expect("the trace plans");
        self.from_trace += allocs;
        self.cost += counted(|| CostModel::estimate(desc, spec, &plan)).1;
    }

    /// Prints the per-module row and returns what is over budget.
    fn report(&self, label: &str, modules: u64, budget: &Budget) -> Vec<String> {
        let per = |count: u64| count as f64 / modules as f64;
        println!(
            "{label:<28} {:>9.1} {:>8.1} {:>7.1} {:>9.1} {:>10.1} {:>5.1} {:>7.1}",
            per(self.matmul_ir),
            per(self.pipeline),
            per(self.compile),
            per(self.interpret),
            per(self.from_trace),
            per(self.cost),
            per(self.sum())
        );
        [
            ("the pipeline", self.pipeline, budget.pipeline),
            ("interpret", self.interpret, budget.interpret),
            ("from_trace", self.from_trace, budget.from_trace),
            ("the build stages", self.sum(), budget.build),
        ]
        .into_iter()
        .filter(|&(_, made, allowed)| made > allowed * modules)
        .map(|(what, made, allowed)| {
            format!(
                "{label}: {what} made {:.1} allocations per module, budget {allowed}",
                per(made)
            )
        })
        .collect()
    }
}

/// Allocations per module a row may make: the count measured when the
/// budget was set, + 15 %.
struct Budget {
    pipeline: u64,
    interpret: u64,
    from_trace: u64,
    build: u64,
}

/// The `cold_shapes` grid of the repository benchmark: 6 x 6 x 16
/// (m, n, k), Gemmini untiled and OpenGeMM in 8 x 8 x k tiles.
fn grid() -> Vec<(AcceleratorDescriptor, MatmulSpec)> {
    let (gemmini, opengemm) = (
        AcceleratorDescriptor::gemmini(),
        AcceleratorDescriptor::opengemm(),
    );
    let mut shapes = Vec::new();
    for m in (8..=48).step_by(8) {
        for n in (8..=48).step_by(8) {
            for k in (8..=128).step_by(8) {
                let untiled = MatmulSpec::new((m, n, k), (m, n, k)).expect("untiled shape");
                let tiled = MatmulSpec::new((m, n, k), (8, 8, k)).expect("multiples of 8");
                shapes.push((gemmini.clone(), untiled));
                shapes.push((opengemm.clone(), tiled));
            }
        }
    }
    shapes
}

#[test]
fn build_module_stays_within_its_allocation_budget() {
    println!(
        "{:<28} {:>9} {:>8} {:>7} {:>9} {:>10} {:>5} {:>7}",
        "allocations per module",
        "matmul_ir",
        "pipeline",
        "compile",
        "interpret",
        "from_trace",
        "cost",
        "sum"
    );
    let mut over_budget = Vec::new();
    for (label, desc, spec, budget) in [
        (
            "opengemm 24x16x64 / 8x8x64",
            AcceleratorDescriptor::opengemm(),
            MatmulSpec::new((24, 16, 64), (8, 8, 64)).expect("multiples of 8"),
            // measured 312, 24, 5 and 543
            Budget {
                pipeline: 358,
                interpret: 27,
                from_trace: 5,
                build: 624,
            },
        ),
        (
            "gemmini 24x16x64 untiled",
            AcceleratorDescriptor::gemmini(),
            MatmulSpec::new((24, 16, 64), (24, 16, 64)).expect("untiled shape"),
            // measured 73, 5, 4 and 162
            Budget {
                pipeline: 83,
                interpret: 5,
                from_trace: 4,
                build: 186,
            },
        ),
    ] {
        let mut stages = Stages::default();
        stages.add(&desc, &spec);
        over_budget.extend(stages.report(label, 1, &budget));
        if !cfg!(debug_assertions) && !cfg!(feature = "validate") {
            // no validator installed: one build is exactly its stages plus
            // the `CompiledModule`'s own key (the accelerator name)
            let (built, allocs) = counted(|| build_module(&desc, spec, OptLevel::All));
            built.expect("the module builds");
            assert_eq!(allocs, stages.sum() + 1, "{label}: a stage is missing");
        }
    }

    let shapes = grid();
    let mut stages = Stages::default();
    for (desc, spec) in &shapes {
        stages.add(desc, spec);
    }
    // measured 188.0, 20.8, 4.5 and 352.7
    let budget = Budget {
        pipeline: 216,
        interpret: 23,
        from_trace: 5,
        build: 405,
    };
    let modules = shapes.len() as u64;
    over_budget.extend(stages.report("cold_shapes grid mean (1152)", modules, &budget));
    assert!(over_budget.is_empty(), "{}", over_budget.join("\n"));
}
