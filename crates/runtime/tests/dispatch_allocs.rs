//! A deterministic allocation budget for a warm dispatch.
//!
//! What `Worker::execute` does per request — `fill_inputs` →
//! `DispatchPlan::delta_program` → `Machine::run` → `check_result` — is
//! taken here through the same public functions on a machine built as
//! `Worker::new` builds it, with the counting allocator of `build_allocs`
//! around each stage. The first two dispatches warm the machine (its
//! register file, the accelerator's packed-operand scratch, the resident
//! register map); the third is counted. Two requests: OpenGeMM 24-cubed
//! (nine launches of 8 x 24 x 8) and Gemmini 64-cubed (one launch of
//! 64 x 64 x 64), both at `OptLevel::All`.
//!
//! Asserted: `Machine::run` on the warmed machine allocates nothing — the
//! launches pack into scratch the `AccelSim` owns — a warm
//! `Worker::execute` makes exactly the allocations of its four stages, and
//! the sum stays under the measured figure + 15 %.
//!
//! Allocations per warm dispatch (release build), the commit before the
//! packed-dot tile executor and the block-compared check → at it:
//!
//! ```text
//!                     fill_inputs delta_program Machine::run check_result     sum
//! opengemm 24-cubed        0 → 0     23 → 23       9 → 0       1 → 2      33 → 25
//! gemmini 64-cubed         0 → 0      2 →  2       1 → 0       1 → 2       4 →  4
//! ```
//!
//! (`Machine::run` was one accumulator row per launch; `check_result` was
//! the whole expected C and is now B widened plus one block of rows — one
//! allocation more, half the bytes. What is left is `delta_program`: the
//! program it assembles and the register it names per write.)
//! Debug builds add `delta_program`'s reconstruction proof to its column
//! (35 and 9), so the budget is asserted in release builds only.
//!
//! Run with `--nocapture` to see the table (CI does).

use accfg::OptLevel;
use accfg_runtime::{build_module, Job, RegMap, Worker};
use accfg_sim::{AccelSim, Machine};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::{check_result, fill_inputs, MatmulSpec, TrafficRequest};
use common::counted;
use std::sync::Arc;

mod common;

const MEM_BYTES: usize = 1 << 20;
const FUEL: u64 = 10_000_000;

#[test]
fn a_warm_dispatch_stays_within_its_allocation_budget() {
    println!(
        "{:<20} {:>11} {:>13} {:>12} {:>12} {:>5} {:>15}",
        "allocations",
        "fill_inputs",
        "delta_program",
        "Machine::run",
        "check_result",
        "sum",
        "Worker::execute"
    );
    for (label, desc, spec, budget) in [
        (
            "opengemm 24-cubed",
            AcceleratorDescriptor::opengemm(),
            MatmulSpec::opengemm_paper(24).expect("a multiple of 8"),
            // measured 25
            28,
        ),
        (
            "gemmini 64-cubed",
            AcceleratorDescriptor::gemmini(),
            MatmulSpec::gemmini_paper(64).expect("one tile"),
            // measured 4
            4,
        ),
    ] {
        let module = Arc::new(build_module(&desc, spec, OptLevel::All).expect("the module builds"));
        let mut machine = Machine::new(
            desc.host.clone(),
            AccelSim::with_timing(desc.accel.clone(), desc.timing),
            MEM_BYTES,
        );
        let mut resident = RegMap::new();
        let mut stages = [0u64; 4];
        for seed in 0..3 {
            let (filled, fill) =
                counted(|| fill_inputs(&mut machine.mem, &spec, &module.layout, seed));
            filled.expect("the layout fits");
            let ((program, _), delta) = counted(|| module.plan.delta_program(&mut resident));
            let (counters, run) = counted(|| machine.run(&program, FUEL));
            let counters = counters.expect("the program runs");
            assert_eq!(counters.launches as i64, spec.invocations());
            machine.accel.reset_clock(counters.cycles);
            let (checked, check) = counted(|| check_result(&machine.mem, &spec, &module.layout));
            checked.expect("the result is the reference");
            // the last (warm) dispatch is the one reported
            stages = [fill, delta, run, check];
        }

        let mut worker = Worker::new(0, desc.clone(), MEM_BYTES, FUEL);
        let mut executed = 0;
        for seed in 0..3 {
            let job = Job {
                request: TrafficRequest {
                    id: seed,
                    accelerator: desc.name.clone(),
                    spec,
                    arrival: 0,
                    seed,
                },
                module: Arc::clone(&module),
                slot: 0,
                elide: true,
            };
            let (completion, allocs) = counted(|| worker.execute(&job));
            assert!(completion.sim_error.is_none() && completion.check_error.is_none());
            executed = allocs;
        }

        let [fill, delta, run, check] = stages;
        let sum: u64 = stages.iter().sum();
        println!(
            "{label:<20} {fill:>11} {delta:>13} {run:>12} {check:>12} {sum:>5} {executed:>15}"
        );
        assert_eq!(
            run, 0,
            "{label}: a launch on a warmed accelerator allocated"
        );
        assert_eq!(executed, sum, "{label}: a stage is missing");
        if !cfg!(debug_assertions) && !cfg!(feature = "validate") {
            // (the reconstruction proof of the other builds is not budgeted)
            assert!(sum <= budget, "{label}: {sum} allocations, budget {budget}");
        }
    }
}
