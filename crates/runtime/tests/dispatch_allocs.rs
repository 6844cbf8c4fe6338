//! Deterministic allocation budgets for a warm request: its dispatch, and
//! the routing decision before it.
//!
//! **Dispatch.** What `Worker::execute` does per request — `fill_inputs` →
//! `DispatchPlan::delta_program` → `Machine::run` → `check_result` — is
//! taken here through the same public functions on a machine built as
//! `Worker::new` builds it, with the counting allocator of `build_allocs`
//! around each stage. The first two dispatches warm the machine (its
//! register file, the accelerator's packed-operand scratch, the resident
//! register file); the third is counted. Two requests: OpenGeMM 24-cubed
//! (nine launches of 8 x 24 x 8) and Gemmini 64-cubed (one launch of
//! 64 x 64 x 64), both at `OptLevel::All`.
//!
//! Asserted: `Machine::run` on the warmed machine allocates nothing — the
//! launches pack into scratch the `AccelSim` owns — `delta_program`
//! allocates once (the program, sized by a counting walk before it is
//! filled), a warm `Worker::execute` makes exactly the allocations of its
//! four stages, and the sum stays under the measured figure + 15 %.
//!
//! Allocations per warm dispatch (release build), the commit before the
//! dense register file → at it → once the check was Freivalds':
//!
//! ```text
//!                     fill_inputs  delta_program  Machine::run  check_result          sum
//! opengemm 24-cubed     0 → 0 → 0   23 →  1 →  1     0 → 0 → 0     2 → 2 → 1  25 →  3 → 2
//! gemmini 64-cubed      0 → 0 → 0    2 →  1 →  1     0 → 0 → 0     2 → 2 → 1   4 →  3 → 2
//! ```
//!
//! (`delta_program` was two `Vec`s per launch out of `regstate::diff` over
//! ordered maps, plus the program's growth; what is left of a dispatch is
//! that one program and `check_result`'s one buffer, which holds its two
//! vectors: `r`, one entry per column of C, and `B · r`, one per row of
//! B. Before the check was Freivalds' it held two buffers, the packed
//! operands — Bᵀ widened to i16 with one widened row of A behind it — and
//! one row of C.)
//! Debug builds add `delta_program`'s reconstruction proof to its column,
//! so the budget is asserted in release builds only.
//!
//! **Routing.** A `Scheduler` over the `mixed` pool (two Gemmini, two
//! OpenGeMM workers) is stepped through the six `mixed` modules the way
//! the serve loop steps it — `observe` the previous dispatch, `choose`,
//! `commit` — under `affinity`, `cost` and `thermal` (the last on the
//! reference-timing descriptors, so its DVFS and contention terms are
//! live). After a warm-up that has seen every module on every worker, 600
//! further requests must allocate **nothing**: scoring a candidate reads
//! the shadow register file in place, the completion-minimising
//! policies keep their candidate list between decisions, and the
//! by-module calls clone a module's key only when they first number it
//! (the refiner allocates a row only on a `(module, platform)`'s first
//! observation).
//!
//! Allocations over those 600 requests, same two commits:
//!
//! ```text
//!            choose + commit + observe
//! affinity              25 606 → 0
//! cost                  26 198 → 0
//! thermal               26 328 → 0
//! ```
//!
//! (At the parent, ~43 a request: per candidate per `choose` a `BTreeMap`
//! clone and two `Vec`s per launch out of the diff, the same two `Vec`s
//! per launch again at `commit`, the candidate `Vec` of `cost` /
//! `thermal`, and the key's accelerator `String` per `observe`.) Asserted
//! in every profile.
//!
//! **Serve.** The whole of `Runtime::serve` around those two: on a warmed
//! `Runtime` (every module cached), the `mixed` stream under `affinity` is
//! served at `n` = 600 and at `2n` requests, and the difference — what `n`
//! more requests cost, the per-serve setup cancelled — is divided by `n`.
//! It must stay within the measured figure + 15 % (release builds), so the
//! engine adds nothing per dispatch beyond its worker's stages. The
//! resolve step probes the module cache once per distinct module, not
//! once per request, so no request builds a cache key. The latency fold
//! formats each class label once per serve, not once per request, and
//! the loop's queues and the report's vectors grow by doubling, which
//! leaves about 0.01 a request in the quotient: 2.01 = 2
//! (`Worker::execute`) + 0.01 (growth).
//!
//! Allocations per further request, the commit before the one-lane engine
//! → at it → once the class labels were formatted once per serve → once
//! the check was Freivalds' → once modules were numbered once per serve:
//!
//! ```text
//!                     serve(2n) - serve(n), per request   of which Worker::execute
//! mixed / affinity       7.45 → 6.45 → 4.01 → 3.01 → 2.01                  3 → 2
//! ```
//!
//! (The first one that went is the request's accelerator `String`, cloned
//! into every dispatch so it could cross a channel; the `Arc` bump beside
//! it never allocated. The next ~2.45 were the class label, a `String`
//! that `format!` grew once or twice a request. The last was the resolve
//! probe's cache key, whose accelerator `String` was cloned for every
//! request. The budget is under one allocation a request wide, so none
//! of them can come back inside it.)
//!
//! Run with `--nocapture` to see the three tables (CI does).

use accfg::OptLevel;
use accfg_runtime::{
    build_module, CompiledModule, Policy, PoolConfig, RegMap, Runtime, Scheduler, ServeConfig,
    Worker,
};
use accfg_sim::{AccelSim, Machine};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::{
    check_result, fill_inputs, mixed_serving_classes, MatmulSpec, TrafficConfig, TrafficRequest,
};
use common::counted;
use std::sync::Barrier;

mod common;

const MEM_BYTES: usize = 1 << 20;
const FUEL: u64 = 10_000_000;

/// One test: the serve's budget is stated against what a warm dispatch
/// allocates, so the three budgets run one after the other.
#[test]
fn a_warm_request_stays_within_its_allocation_budgets() {
    another_threads_allocations_are_not_counted();
    let execute = a_warm_dispatch_stays_within_its_allocation_budget();
    warm_routing_allocates_nothing();
    a_warm_serve_adds_nothing_per_dispatch(execute);
}

/// The counter reads the calling thread only: an allocation another
/// thread makes inside a counted window — forced there by a barrier — is
/// not in the count.
fn another_threads_allocations_are_not_counted() {
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            barrier.wait();
            drop(std::hint::black_box(vec![0u8; 64]));
            barrier.wait();
        });
        let ((), allocs) = counted(|| {
            barrier.wait();
            barrier.wait();
        });
        assert_eq!(allocs, 0, "another thread's allocation was counted");
    });
}

/// Returns what a warm `Worker::execute` allocates (the larger of the two
/// requests').
fn a_warm_dispatch_stays_within_its_allocation_budget() -> u64 {
    let mut execute = 0;
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
            // measured 2
            2,
        ),
        (
            "gemmini 64-cubed",
            AcceleratorDescriptor::gemmini(),
            MatmulSpec::gemmini_paper(64).expect("one tile"),
            // measured 2
            2,
        ),
    ] {
        let module = build_module(&desc, spec, OptLevel::All).expect("the module builds");
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
            let request = TrafficRequest {
                id: seed,
                accelerator: desc.name.clone(),
                spec,
                arrival: 0,
                seed,
            };
            let (completion, allocs) = counted(|| worker.execute(&request, &module, true));
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
        execute = execute.max(executed);
        if !cfg!(debug_assertions) && !cfg!(feature = "validate") {
            // (the reconstruction proof of the other builds is not budgeted)
            assert!(
                delta <= 1,
                "{label}: delta_program allocated {delta} times, not once for its program"
            );
            assert!(sum <= budget, "{label}: {sum} allocations, budget {budget}");
        }
    }
    execute
}

fn warm_routing_allocates_nothing() {
    const WARM_UP: usize = 240;
    const COUNTED: usize = 600;
    println!();
    println!(
        "{:<12} {:>25}   ({COUNTED} warm requests)",
        "allocations", "choose + commit + observe"
    );
    for (policy, reference_timing) in [
        (Policy::ConfigAffinity, false),
        (Policy::Cost, false),
        (Policy::Thermal, true),
    ] {
        let timed = |desc: AcceleratorDescriptor| {
            if reference_timing {
                desc.with_reference_timing()
            } else {
                desc
            }
        };
        let bases = [
            timed(AcceleratorDescriptor::gemmini()),
            timed(AcceleratorDescriptor::opengemm()),
        ];
        // the `mixed` pool: two workers a family, one group each
        let workers: Vec<AcceleratorDescriptor> =
            bases.iter().flat_map(|d| [d.clone(), d.clone()]).collect();
        let groups = [[0usize, 1], [2, 3]];
        let modules: Vec<(usize, CompiledModule)> = mixed_serving_classes()
            .into_iter()
            .map(|class| {
                let g = bases
                    .iter()
                    .position(|d| d.name == class.accelerator)
                    .expect("a mixed class names one of the two families");
                let module = build_module(&bases[g], class.spec, OptLevel::All);
                (g, module.expect("the module builds"))
            })
            .collect();

        let mut scheduler = Scheduler::new(policy, &workers, groups.len());
        // a fixed, aperiodic walk over the six modules; the gap keeps the
        // queues short enough that both workers of a group stay in play
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut retire = None;
        let mut now = 0u64;
        let mut step = |scheduler: &mut Scheduler| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (g, module) = &modules[(state >> 33) as usize % modules.len()];
            if let Some((worker, module, bucket, mode, cycles)) = retire.take() {
                scheduler.observe(worker, module, bucket, mode, cycles);
            }
            let worker = scheduler.choose(*g, &groups[*g], module, now);
            let outcome = scheduler.commit(worker, module, now);
            // "measured" a little off the charge, in a mode that moves
            let mode = accfg_sim::FreqState::ALL[(state >> 20) as usize % 3];
            let cycles = outcome.predicted_cycles + (state >> 40) % 17;
            retire = Some((worker, module, outcome.bucket, mode, cycles));
            now += 60;
        };
        for _ in 0..WARM_UP {
            step(&mut scheduler);
        }
        let ((), allocations) = counted(|| {
            for _ in 0..COUNTED {
                step(&mut scheduler);
            }
        });
        println!("{:<12} {allocations:>25}", policy.label());
        assert_eq!(
            allocations,
            0,
            "{}: a warmed scheduler allocated while routing",
            policy.label()
        );
    }
}

fn a_warm_serve_adds_nothing_per_dispatch(execute: u64) {
    const N: usize = 600;
    // measured 1 206 over N further requests (1 806 with a cache key
    // built a request, 2 406 with two buffers in the check besides, 3 869
    // with a class label formatted a request besides that, 4 469 with a
    // `String` a dispatch besides that)
    const BUDGET: u64 = 1_387;
    // `serve_bench`'s `mixed` stream and pool
    let stream = TrafficConfig {
        classes: mixed_serving_classes(),
        requests: 2 * N,
        mean_gap: 200,
        seed: 0xC0FFEE,
    }
    .open_loop_stream()
    .expect("a valid mix");
    let mut runtime = Runtime::new(
        PoolConfig::new(vec![
            AcceleratorDescriptor::gemmini(),
            AcceleratorDescriptor::opengemm(),
        ])
        .with_workers_per_accelerator(2),
    );
    let cfg = ServeConfig {
        policy: Policy::ConfigAffinity,
        ..ServeConfig::default()
    };
    let mut serve = |requests: usize| {
        let (report, allocations) = counted(|| runtime.serve(&stream[..requests], &cfg));
        let metrics = report.expect("the stream serves").metrics;
        assert_eq!(metrics.sim_failures + metrics.check_failures, 0);
        (metrics.cache.misses, allocations)
    };
    // the first serve compiles the six modules; the counted ones hit
    serve(2 * N);
    let (short_misses, short) = serve(N);
    let (long_misses, long) = serve(2 * N);
    assert_eq!((short_misses, long_misses), (0, 0), "the cache is warm");
    let further = long - short;
    println!();
    println!(
        "{:<18} {:>9} {:>10} {:>12}   (Worker::execute: {execute})",
        "allocations", "serve(n)", "serve(2n)", "per request"
    );
    println!(
        "{:<18} {short:>9} {long:>10} {:>12.2}",
        "mixed / affinity",
        further as f64 / N as f64
    );
    if !cfg!(debug_assertions) && !cfg!(feature = "validate") {
        assert!(
            further <= BUDGET,
            "{N} further requests allocated {further} times, budget {BUDGET}"
        );
    }
}
