//! A deterministic allocation budget for `build_module`.
//!
//! Wall time on a shared host cannot guard the compile path; heap
//! allocations can: the count repeats exactly on one toolchain. This
//! binary installs a counting global allocator and takes modules through
//! the stages `build_module` runs, at `OptLevel::All`: OpenGeMM 24x16x64 in
//! 8x8x64 tiles (a two-deep loop nest, the expensive half of the
//! `cold_shapes` grid), Gemmini 24x16x64 untiled (one straight-line setup),
//! and then the benchmark's whole 1 152-shape `cold_shapes` grid. It prints
//! the allocations of each stage and asserts that `matmul_ir`, the
//! pipeline, the two stages that handle launch records (`interpret`,
//! `from_trace`) and the total stay under their budgets: the figures
//! measured when the budgets were last set, plus 15 %, for the two single
//! modules and the grid mean alike.
//!
//! Allocations per module: before the IR substrate was rebuilt (interned
//! names, a maintained use-def index, stamp-gated re-verification, one
//! reaching-fields solve per dedup), at that rebuild, with dense serve-time
//! register files (`from_trace`, `cost`), with launch records that are one
//! symbol-indexed `FieldMap<i64>` each, with the IR stages off the heap
//! per op (one inline attribute, presized walks and name tables, value- and
//! register-indexed maps, reused CSE buffers, static pass names), with up
//! to three operand or result ids held inline, an arena presized on its
//! first op, one verifier buffer per pipeline, symbol-indexed field states
//! in the field hoist, batched loop-invariant moves and sweeps that build
//! their visited sets only when a fold or an erasure asks (inline op
//! lists), and with a module's names in one string, ops folded to
//! constants in place, setups thinned in place, loop state carried through
//! the interpreter's value environment, lowered loops read where they
//! stand, CSE sized to the arena with one block stack, and the use index
//! and pass list presized, with plans that hold launch 0's register
//! file and each later launch's changed registers instead of a file a
//! launch, and with the lowered program shrunk to its length (one
//! reallocation in `compile`):
//!
//! ```text
//!                  matmul_ir pipeline compile interpret from_trace cost  sum
//! opengemm 24x16x64 / 8x8x64
//!   before the rebuild   276     2296      71       308         44   35 3030
//!   at the rebuild       175      312      26       233         44   35  825
//!   dense register files 175      312      26       233          1    0  747
//!   one-record launches  176      312      26        24          5    0  543
//!   IR off the heap      150      192      19        24          5    0  390
//!   inline op lists       63      126      15        24          5    0  233
//!   names in one string   37       78       8        12          5    0  140
//!   held plan deltas      37       78       8        12          3    0  138
//!   → programs at length  37       78       9        12          3    0  139
//! gemmini 24x16x64 untiled
//!   before the rebuild   103      381      33        43         12   11  583
//!   at the rebuild        65       73      14        37         12   11  212
//!   dense register files  65       73      14        37          1    0  190
//!   one-record launches   66       73      14         5          4    0  162
//!   IR off the heap       54       35       6         5          4    0  104
//!   inline op lists       38       33       6         5          4    0   86
//!   names in one string   26       27       5         5          4    0   67
//!   held plan deltas      26       27       5         5          1    0   64
//!   → programs at length  26       27       6         5          1    0   65
//! cold_shapes grid mean
//!   before the rebuild   187     1203      51       291         47   36 1815
//!   at the rebuild       118      188      20       229         47   36  637
//!   dense register files 118      188      20       229          1    0  556
//!   one-record launches  119      188      20        21          4.5  0  353
//!   IR off the heap      100.5    108.5    11.9      20.8        4.5  0  246.2
//!   inline op lists       49.8     75.9    10.2      20.8        4.5  0  161.2
//!   names in one string   30.8     50.3     6.7      11.9        4.5  0  104.3
//!   held plan deltas      30.8     50.3     6.7      11.9        2.0  0  101.8
//!   → programs at length  30.8     50.3     7.7      11.9        2.0  0  102.7
//! ```
//!
//! The OpenGeMM module's pipeline is also printed pass by pass, with the
//! verifier's runs and the pass manager's own allocations; the rows must
//! add up to its pipeline column.
//!
//! An `arith.constant` carries one attribute, held inline: the test also
//! checks that building one allocates exactly what the same op without its
//! `value` does.
//!
//! A launch record costs one allocation — the copy of the accelerator's
//! register file — however many fields the file holds; the names the
//! record spells them with are the module's own table, shared. `from_trace`
//! is its field → register memo, sized once from the first record's
//! fields (it grew as it met them, three or four times), and, in a plan of
//! more than one launch, the later launches' changed registers: room for
//! every held register a launch, given back once they are filled (it was
//! one list of whole launch files).
//!
//! The test then builds the whole grid again, each module behind an `Arc`
//! as the module cache holds it, and counts the heap bytes the modules
//! hold and, alone, what their plans hold (`common::held_bytes`: bytes
//! allocated and not freed on the calling thread). Each row is asserted
//! at the measured figure + 15 %:
//!
//! ```text
//! MiB the grid holds     launch files → held plan deltas → programs at length → 16-byte instructions
//!   compiled modules             3.71 →             2.51 →               1.86 →                 1.52
//!   their plans                  1.74 →             0.55 →               0.55 →                 0.55
//! ```
//!
//! A plan held 232 bytes of register file a launch, 7 632 launches over
//! the grid; it now holds launch 0's file and 16 bytes a register a later
//! launch changes (14 160 over the grid's 6 480 later launches), plus the
//! value the last launch leaves in each register the later launches write.
//! A program held its builder's instruction capacity, grown by doubling:
//! 1.6 slots an instruction over the grid, 0.65 MiB of the 2.51. An
//! instruction was 24 bytes while a register index was a `u32`; at a
//! `u16` it is 16, and the grid's programs hold 0.71 MiB where they held
//! 1.05.
//!
//! Run with `--nocapture` to see the table (CI does).

use accfg::{interpret, pipeline, OptLevel};
use accfg_ir::{AttrMap, FuncBuilder, Module, Opcode, Type, Verifier};
use accfg_runtime::{build_module, CostModel, DispatchPlan};
use accfg_targets::{compile, AcceleratorDescriptor};
use accfg_workloads::{matmul_ir, MatmulLayout, MatmulSpec};
use common::{counted, held_bytes};
use std::sync::Arc;

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

    /// Takes one module through the pipeline a pass at a time, as
    /// `PassManager::run` does (verifying the input and after every pass
    /// that touched the module, with one verifier), and prints each pass's
    /// allocations. With the verifier's, the pass manager's own and the one
    /// of its statistics, they add up to the pipeline column.
    fn report_passes(label: &str, desc: &AcceleratorDescriptor, spec: &MatmulSpec) -> u64 {
        let (pm, building) = counted(|| pipeline(OptLevel::All, desc.overlap_filter()));
        let mut module = matmul_ir(desc, spec);
        let mut verifier = Verifier::default();
        let (verified, mut verifying) = counted(|| verifier.verify(&module));
        verified.expect("the input verifies");
        println!("{label}, the pipeline by pass");
        let mut total = 0;
        for pass in pm.passes() {
            let stamp = module.stamp();
            let allocs = counted(|| pass.run(&mut module)).1;
            println!("  {:<40} {allocs:>4}", pass.name());
            total += allocs;
            if module.stamp() != stamp {
                let (verified, allocs) = counted(|| verifier.verify(&module));
                verified.expect("the pass leaves the module verified");
                verifying += allocs;
            }
        }
        println!(
            "  {:<40} {verifying:>4}",
            "verifier (input + passes that touched)"
        );
        println!("  {:<40} {building:>4}", "building the pass manager");
        println!("  {:<40} {:>4}", "the run's statistics", 1);
        total + verifying + building + 1
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
            ("matmul_ir", self.matmul_ir, budget.matmul_ir),
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

/// Allocations per module a row may make.
struct Budget {
    matmul_ir: u64,
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

/// Builds every grid module as the module cache holds one — behind an
/// `Arc` — and prints the heap bytes they hold, whole and their plans
/// alone (each plan's own bytes with what it points to: a clone of every
/// plan into one vector holds exactly that). Returns what is over budget.
fn report_held_bytes(shapes: &[(AcceleratorDescriptor, MatmulSpec)]) -> Vec<String> {
    let mut modules = Vec::with_capacity(shapes.len());
    let ((), module_bytes) = held_bytes(|| {
        modules.extend(shapes.iter().map(|(desc, spec)| {
            Arc::new(build_module(desc, *spec, OptLevel::All).expect("a grid shape builds"))
        }))
    });
    let (plans, plan_bytes) = held_bytes(|| {
        modules
            .iter()
            .map(|module| module.plan.clone())
            .collect::<Vec<DispatchPlan>>()
    });
    drop(plans);
    let mib = |bytes: u64| bytes as f64 / f64::from(1 << 20);
    println!(
        "{:<28} {:>9} {:>8}",
        "bytes the grid holds", "MiB", "budget"
    );
    // measured 1.52 and 0.55 MiB, + 15 % (1.86 MiB of modules while an
    // instruction was 24 bytes)
    [
        ("compiled modules", module_bytes, 1.75),
        ("their plans", plan_bytes, 0.63),
    ]
    .into_iter()
    .filter_map(|(what, bytes, budget)| {
        println!("  {what:<26} {:>9.2} {budget:>8.2}", mib(bytes));
        (mib(bytes) > budget).then(|| {
            format!(
                "the grid's {what} hold {:.2} MiB, budget {budget}",
                mib(bytes)
            )
        })
    })
    .collect()
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
            // measured 37, 78, 12, 3 and 139 (138 when set), + 15 %
            Budget {
                matmul_ir: 42,
                pipeline: 89,
                interpret: 13,
                from_trace: 3,
                build: 158,
            },
        ),
        (
            "gemmini 24x16x64 untiled",
            AcceleratorDescriptor::gemmini(),
            MatmulSpec::new((24, 16, 64), (24, 16, 64)).expect("untiled shape"),
            // measured 26, 27, 5, 1 and 65 (64 when set), + 15 %
            Budget {
                matmul_ir: 29,
                pipeline: 31,
                interpret: 5,
                from_trace: 1,
                build: 73,
            },
        ),
    ] {
        let mut stages = Stages::default();
        stages.add(&desc, &spec);
        over_budget.extend(stages.report(label, 1, &budget));
        if label.starts_with("opengemm") {
            let by_pass = Stages::report_passes(label, &desc, &spec);
            assert_eq!(
                by_pass, stages.pipeline,
                "{label}: the passes miss some of the pipeline"
            );
        }
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
    // measured 30.8, 50.3, 11.9, 2.0 and 102.7 (101.8 when set), + 15 %
    let budget = Budget {
        matmul_ir: 35,
        pipeline: 57,
        interpret: 13,
        from_trace: 2,
        build: 117,
    };
    let modules = shapes.len() as u64;
    over_budget.extend(stages.report("cold_shapes grid mean (1152)", modules, &budget));
    over_budget.extend(report_held_bytes(&shapes));
    assert!(over_budget.is_empty(), "{}", over_budget.join("\n"));

    // one function holding one constant, built with and without the
    // constant's `value`: the attribute is the only difference
    let one_constant = |value: Option<i64>| {
        counted(|| {
            let mut m = Module::new();
            let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
            match value {
                Some(v) => drop(b.const_int(v, Type::I64)),
                None => {
                    let block = b.block();
                    let op = b.module().create_op(
                        Opcode::Constant,
                        vec![],
                        [Type::I64],
                        AttrMap::new(),
                        vec![],
                    );
                    b.module().append_op(block, op);
                }
            }
            m
        })
        .1
    };
    assert_eq!(
        one_constant(Some(7)),
        one_constant(None),
        "an arith.constant allocated for its `value` attribute"
    );
}
