//! Pool workers: each owns a persistent simulated [`Machine`] and executes
//! dispatched jobs by replaying launch plans as *delta programs*.
//!
//! A worker's accelerator keeps its configuration registers across
//! requests, so the program built for a dispatch contains only the writes
//! whose values differ from the resident state
//! ([`DispatchPlan::delta_program`]), plus the launches and the final
//! await. Execution is fully functional — the tile matmuls run on the
//! worker's memory and every request is checked against the reference
//! result — and cycle-accurate: per-request counters feed the latency and
//! throughput metrics directly, and each completion's measured cycles are
//! what the serve loop retires into the scheduler's online cost refiner
//! ([`CostRefiner`]), making the workers the runtime's measurement plane
//! as well as its execution plane.
//!
//! A worker also owns the runtime's one timing rule over measured cycles:
//! a dispatch starts at `max(previous finish, arrival)` and finishes its
//! measured cycles later. [`Worker::execute`] stamps both on the
//! [`Completion`], and the serve loop and the report read them from there.
//!
//! [`DispatchPlan::delta_program`]: crate::plan::DispatchPlan::delta_program
//! [`CostRefiner`]: crate::cache::CostRefiner

use crate::cache::CompiledModule;
use crate::plan::RegMap;
use accfg_sim::{AccelSim, Counters, FreqState, Machine};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::{check_result, fill_inputs, TrafficRequest};

/// The outcome of one executed dispatch.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Worker that executed it.
    pub worker: usize,
    /// Simulated cycle the dispatch started at: `max(previous finish on
    /// the worker, arrival)`.
    pub start: u64,
    /// Simulated cycle the dispatch finished at: `start` plus its measured
    /// cycles, or `start` itself when it failed (a failed dispatch
    /// carries no measured cycles).
    pub finish: u64,
    /// Simulator counters for the dispatch (cycles, config bytes, ...).
    /// `counters.cycles` is the measured dispatch cost the online cost
    /// refiner learns from once this completion retires.
    pub counters: Counters,
    /// Configuration writes actually emitted (after resident-state
    /// elision).
    pub emitted_writes: u64,
    /// Writes a cold (blank-state) dispatch of the same module performs.
    pub cold_writes: u64,
    /// DVFS frequency state the dispatch's last launch ran at
    /// ([`FreqState::Cold`] under the identity timing model) — the key the
    /// frequency-keyed cost refiner files this completion's measured
    /// cycles under.
    pub freq: FreqState,
    /// Functional-check failure, if any — boxed at its length: a
    /// completion is kept per request, and a failure is rare.
    pub check_error: Option<Box<str>>,
    /// Simulator failure, if any (the functional check is skipped then).
    pub sim_error: Option<Box<str>>,
}

/// A pool worker: persistent machine plus resident-state tracking.
#[derive(Debug)]
pub struct Worker {
    /// Pool-wide worker index.
    pub index: usize,
    desc: AcceleratorDescriptor,
    machine: Machine,
    resident: RegMap,
    fuel: u64,
    /// The worker's simulated clock: the finish cycle of its last
    /// dispatch that ran. Dispatched programs each count cycles from 0,
    /// so this is the only place the real inter-dispatch idle gap is
    /// known — it is fed to the accelerator's DVFS automaton so an idle
    /// worker cools back down.
    clock: u64,
}

impl Worker {
    /// Creates a worker for `desc` with `mem_bytes` of memory and a
    /// per-dispatch instruction budget of `fuel`.
    pub fn new(index: usize, desc: AcceleratorDescriptor, mem_bytes: usize, fuel: u64) -> Self {
        let machine = Machine::new(
            desc.host.clone(),
            // the worker's machine is charged under the platform's timing
            // model (identity unless the descriptor enables contention /
            // DVFS), and its DVFS history persists across dispatches
            AccelSim::with_timing(desc.accel.clone(), desc.timing),
            mem_bytes,
        );
        Self {
            index,
            desc,
            machine,
            resident: RegMap::new(),
            fuel,
            clock: 0,
        }
    }

    /// The accelerator this worker serves.
    pub fn accelerator(&self) -> &str {
        &self.desc.name
    }

    /// Bytes of memory the worker's machine was built with.
    #[cfg(test)]
    pub(crate) fn mem_bytes(&self) -> usize {
        self.machine.mem.capacity()
    }

    /// Executes one dispatch of `module` for `request`: fill inputs, build
    /// the delta program, run it, and functionally check the result.
    /// `elide` says whether the dispatch may elide writes already resident
    /// on the worker (`false` under the cold [`Policy::Fifo`] baseline).
    ///
    /// The dispatch starts when the worker's last dispatch has finished
    /// and the request has arrived, and finishes its measured cycles
    /// later; both cycles are stamped on the completion. A dispatch that
    /// fails before it runs takes no time and leaves the worker's clock
    /// where it was.
    ///
    /// [`Policy::Fifo`]: crate::policy::Policy::Fifo
    pub fn execute(
        &mut self,
        request: &TrafficRequest,
        module: &CompiledModule,
        elide: bool,
    ) -> Completion {
        let spec = module.key.spec;
        let start = self.clock.max(request.arrival);
        let mut completion = Completion {
            worker: self.index,
            start,
            finish: start,
            counters: Counters::default(),
            emitted_writes: 0,
            cold_writes: module.plan.cold_writes(),
            freq: FreqState::Cold,
            check_error: None,
            sim_error: None,
        };
        // heterogeneous pools replay one compiled plan on platform
        // variants; the runtime validates group compatibility up front,
        // so a mismatch here is a scheduler routing bug — reported as a
        // failed dispatch, with this worker's memory and resident state
        // as they were, never run (one comparison a dispatch)
        if !module.plan.executable_on(&self.desc) {
            let error = format!(
                "module for `{}` dispatched to incompatible worker {} (`{}`)",
                module.key.accelerator, self.index, self.desc.name
            );
            completion.sim_error = Some(error.into());
            return completion;
        }
        if let Err(e) = fill_inputs(&mut self.machine.mem, &spec, &module.layout, request.seed) {
            completion.sim_error = Some(format!("input fill failed: {e}").into());
            return completion;
        }

        if !elide {
            // cold-baseline dispatch: forget the resident state so the
            // program reprograms its full configuration
            self.resident.clear();
        }
        let (program, emitted_writes) = module.plan.delta_program(&mut self.resident);
        completion.emitted_writes = emitted_writes;

        // the gap since the last finish is the worker's real simulated
        // idle time, which cools the DVFS automaton
        self.machine.accel.note_idle(start - self.clock);

        match self.machine.run(&program, self.fuel) {
            Ok(counters) => {
                completion.counters = counters;
                completion.freq = self.machine.accel.last_launch_state();
                completion.finish = start + counters.cycles;
                self.clock = completion.finish;
                // the program drained the accelerator; re-base its busy
                // window so the next dispatch starts from a clean clock
                self.machine.accel.reset_clock(counters.cycles);
                if let Err(e) = check_result(&self.machine.mem, &spec, &module.layout) {
                    completion.check_error = Some(e.into());
                }
            }
            Err(e) => {
                // recovery: resident tracking is now unreliable, so drop it
                // (the next dispatch reprograms everything — its emitted
                // writes equal the cold cost, keeping the ≤-cold guarantee)
                // and force the accelerator idle so the stale absolute busy
                // window cannot bleed stall cycles into later dispatches.
                // The scheduler's shadow copy diverges here, which only
                // degrades affinity scoring quality for this worker, never
                // correctness.
                self.resident.clear();
                self.machine.accel.reset_clock(u64::MAX);
                // a failed dispatch carries no measured cycles: it
                // finishes where it started
                self.clock = start;
                completion.sim_error = Some(e.to_string().into());
            }
        }
        completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::build_module;
    use accfg::pipeline::OptLevel;
    use accfg_workloads::MatmulSpec;

    fn request(id: u64, accel: &str, spec: MatmulSpec, seed: u64) -> TrafficRequest {
        TrafficRequest {
            id,
            accelerator: accel.into(),
            spec,
            arrival: 0,
            seed,
        }
    }

    #[test]
    fn repeated_single_tile_dispatch_elides_all_configuration() {
        let desc = AcceleratorDescriptor::opengemm();
        // a single-invocation shape: the whole register file is identical
        // across same-shape requests
        let spec = MatmulSpec::opengemm_paper(8).unwrap();
        assert_eq!(spec.invocations(), 1);
        let module = build_module(&desc, spec, OptLevel::All).unwrap();
        let mut worker = Worker::new(0, desc, 1 << 20, 10_000_000);

        let first = worker.execute(&request(0, "opengemm", spec, 1), &module, true);
        assert!(first.sim_error.is_none(), "{:?}", first.sim_error);
        assert!(first.check_error.is_none(), "{:?}", first.check_error);
        assert_eq!(first.emitted_writes, module.plan.cold_writes());

        let second = worker.execute(&request(1, "opengemm", spec, 2), &module, true);
        assert!(second.check_error.is_none(), "{:?}", second.check_error);
        // same shape, same canonical addresses: only the launch remains —
        // the configuration is entirely resident
        assert_eq!(second.emitted_writes, 0);
        assert!(second.counters.cycles < first.counters.cycles);
        assert_eq!(second.counters.launches as i64, spec.invocations());
        // both arrived at 0: the second starts where the first finished
        assert_eq!((first.start, first.finish), (0, first.counters.cycles));
        assert_eq!(second.start, first.finish);
        assert_eq!(second.finish, second.start + second.counters.cycles);
        assert_eq!(worker.clock, second.finish);
    }

    #[test]
    fn repeated_tiled_dispatch_elides_the_invariant_fields() {
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::opengemm_paper(16).unwrap();
        assert!(spec.invocations() > 1);
        let module = build_module(&desc, spec, OptLevel::All).unwrap();
        let mut worker = Worker::new(0, desc, 1 << 20, 10_000_000);
        let jobs: Vec<Completion> = (0..3)
            .map(|i| worker.execute(&request(i, "opengemm", spec, i), &module, true))
            .collect();
        for c in &jobs {
            assert!(c.check_error.is_none(), "{:?}", c.check_error);
        }
        assert_eq!(jobs[0].emitted_writes, module.plan.cold_writes());
        // warm repeats still rewrite the per-tile fields of each launch,
        // but the shape-invariant configuration stays resident
        assert!(jobs[1].emitted_writes < jobs[0].emitted_writes);
        // the second and third repeats are in steady state
        assert_eq!(jobs[1].emitted_writes, jobs[2].emitted_writes);
    }

    #[test]
    fn cold_dispatch_ignores_resident_state() {
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::opengemm_paper(8).unwrap();
        let module = build_module(&desc, spec, OptLevel::All).unwrap();
        let mut worker = Worker::new(0, desc, 1 << 20, 10_000_000);
        for i in 0..2 {
            let c = worker.execute(&request(i, "opengemm", spec, i), &module, false);
            // every non-eliding dispatch pays the full cold cost
            assert_eq!(c.emitted_writes, module.plan.cold_writes());
            assert!(c.check_error.is_none());
        }
    }

    #[test]
    fn rocc_worker_is_functionally_correct_across_shapes() {
        let desc = AcceleratorDescriptor::gemmini();
        let small = MatmulSpec::gemmini_paper(16).unwrap();
        let large = MatmulSpec::gemmini_paper(64).unwrap();
        let small_m = build_module(&desc, small, OptLevel::Dedup).unwrap();
        let large_m = build_module(&desc, large, OptLevel::Dedup).unwrap();
        let mut worker = Worker::new(0, desc, 1 << 20, 10_000_000);
        for (i, (spec, module)) in [(small, &small_m), (large, &large_m), (small, &small_m)]
            .into_iter()
            .enumerate()
        {
            let c = worker.execute(
                &request(i as u64, "gemmini", spec, 7 + i as u64),
                module,
                true,
            );
            assert!(c.sim_error.is_none(), "{:?}", c.sim_error);
            assert!(c.check_error.is_none(), "{:?}", c.check_error);
        }
    }

    #[test]
    fn idle_gaps_between_dispatches_cool_the_dvfs_automaton() {
        let desc = AcceleratorDescriptor::opengemm().with_reference_timing();
        let cooldown = desc.timing.dvfs.unwrap().cooldown_idle_cycles;
        let spec = MatmulSpec::opengemm_paper(32).unwrap();
        let module = build_module(&desc, spec, OptLevel::All).unwrap();
        let mut worker = Worker::new(0, desc, 1 << 20, 10_000_000);
        let dispatch = |worker: &mut Worker, id: u64, arrival: u64| {
            let request = TrafficRequest {
                id,
                accelerator: "opengemm".into(),
                spec,
                arrival,
                seed: id,
            };
            let c = worker.execute(&request, &module, true);
            assert!(c.sim_error.is_none(), "{:?}", c.sim_error);
        };
        // back-to-back dispatches accumulate heat across the program
        // boundary (the clock re-base hides no idle time)
        dispatch(&mut worker, 0, 0);
        let first = worker.machine.accel.dvfs_heat();
        assert!(first > 0);
        dispatch(&mut worker, 1, 0);
        assert!(worker.machine.accel.dvfs_heat() > first);
        // a cooldown-length simulated idle gap resets the history: the
        // next dispatch starts from the cold state again
        let finish = worker.clock;
        dispatch(&mut worker, 2, finish + cooldown);
        assert_eq!(
            worker.machine.accel.dvfs_heat(),
            first,
            "heat after the gap must equal one cold dispatch's"
        );
    }

    #[test]
    fn sim_error_resets_resident_state_and_busy_window() {
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::opengemm_paper(8).unwrap();
        let module = build_module(&desc, spec, OptLevel::All).unwrap();
        // memory covers A and B but not the C region: input fill succeeds,
        // the accelerator's store faults mid-run
        assert!(module.layout.c_addr > 0x2100);
        let mut worker = Worker::new(0, desc, 0x2100, 10_000_000);
        let failed = worker.execute(&request(0, "opengemm", spec, 1), &module, true);
        assert!(failed.sim_error.is_some(), "store fault expected");
        // a fault carries no measured cycles: it finishes where it started
        assert_eq!((failed.start, failed.finish), (0, 0));
        // recovery: accelerator idle, resident dropped — the next dispatch
        // starts from a clean clock and pays exactly the cold cost
        assert!(!worker.machine.accel.is_busy(0));
        assert!(worker.resident.is_empty());
        let retry = worker.execute(&request(1, "opengemm", spec, 2), &module, true);
        assert_eq!(retry.emitted_writes, module.plan.cold_writes());
    }

    #[test]
    fn a_misrouted_module_is_a_failed_dispatch_that_touches_nothing() {
        let gemmini = AcceleratorDescriptor::gemmini();
        let spec = MatmulSpec::gemmini_paper(16).unwrap();
        let module = build_module(&gemmini, spec, OptLevel::Dedup).unwrap();
        let mut worker = Worker::new(3, AcceleratorDescriptor::opengemm(), 1 << 20, 10_000_000);
        let before = (worker.machine.mem.clone(), worker.resident.clone());
        let late = TrafficRequest {
            arrival: 500,
            ..request(9, "gemmini", spec, 1)
        };
        let misrouted = worker.execute(&late, &module, true);
        assert_eq!(
            misrouted.sim_error.as_deref(),
            Some("module for `gemmini` dispatched to incompatible worker 3 (`opengemm`)")
        );
        assert_eq!(misrouted.counters, Counters::default());
        assert_eq!(misrouted.emitted_writes, 0);
        assert!(before == (worker.machine.mem.clone(), worker.resident.clone()));
        // stamped at its arrival, taking no time, and the clock — the
        // DVFS automaton's idle gap — does not move
        assert_eq!((misrouted.start, misrouted.finish), (500, 500));
        assert_eq!(worker.clock, 0);
    }

    #[test]
    fn delta_dispatch_matches_cold_program_results() {
        // the delta-dispatched result must equal running the full cached
        // program on a fresh machine
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::opengemm_paper(24).unwrap();
        let module = build_module(&desc, spec, OptLevel::All).unwrap();

        let mut worker = Worker::new(0, desc.clone(), 1 << 20, 10_000_000);
        // warm the worker with a different seed first
        worker.execute(&request(0, "opengemm", spec, 11), &module, true);
        let delta = worker.execute(&request(1, "opengemm", spec, 22), &module, true);
        assert!(delta.check_error.is_none());
        let delta_c = worker
            .machine
            .mem
            .read_i32_slice(module.layout.c_addr as u64, (spec.m * spec.n) as usize)
            .unwrap();

        let mut fresh = Machine::new(
            desc.host.clone(),
            AccelSim::new(desc.accel.clone()),
            1 << 20,
        );
        fill_inputs(&mut fresh.mem, &spec, &module.layout, 22).unwrap();
        fresh.run(&module.program, 10_000_000).unwrap();
        let cold_c = fresh
            .mem
            .read_i32_slice(module.layout.c_addr as u64, (spec.m * spec.n) as usize)
            .unwrap();
        assert_eq!(delta_c, cold_c);
    }
}
