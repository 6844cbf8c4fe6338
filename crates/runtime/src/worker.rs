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
//! [`DispatchPlan::delta_program`]: crate::plan::DispatchPlan::delta_program
//! [`CostRefiner`]: crate::cache::CostRefiner

use crate::cache::CompiledModule;
use crate::plan::RegMap;
use accfg_sim::{AccelSim, Counters, FreqState, Machine};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::{check_result, fill_inputs, TrafficRequest};

/// One dispatched unit of work. It borrows what it names: a dispatch
/// executes where the serve loop commits it, so nothing is cloned to
/// outlive the stream or the module cache.
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// The request being served.
    pub request: &'a TrafficRequest,
    /// The compiled module to replay.
    pub module: &'a CompiledModule,
    /// Position of the request in the caller's stream slice (echoed back
    /// in the completion).
    pub slot: usize,
    /// Whether the dispatch may elide writes already resident on the
    /// worker (`false` under the cold [`Policy::Fifo`] baseline).
    ///
    /// [`Policy::Fifo`]: crate::policy::Policy::Fifo
    pub elide: bool,
}

/// The outcome of one executed job.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The job's stream slot.
    pub slot: usize,
    /// Id of the served request.
    pub request_id: u64,
    /// Worker that executed it.
    pub worker: usize,
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
    /// Functional-check failure, if any.
    pub check_error: Option<String>,
    /// Simulator failure, if any (the functional check is skipped then).
    pub sim_error: Option<String>,
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
    /// dispatch under the serve loop's timing rule
    /// (`start = max(previous finish, arrival)`). Dispatched programs
    /// each count cycles from 0, so this is the only place the real
    /// inter-dispatch idle gap is known — it is fed to the accelerator's
    /// DVFS automaton so an idle worker cools back down.
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

    /// Executes one job: fill inputs, build the delta program, run it, and
    /// functionally check the result.
    pub fn execute(&mut self, job: &Job<'_>) -> Completion {
        let module = job.module;
        let spec = module.key.spec;
        let mut completion = Completion {
            slot: job.slot,
            request_id: job.request.id,
            worker: self.index,
            counters: Counters::default(),
            emitted_writes: 0,
            cold_writes: module.plan.cold_writes,
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
            completion.sim_error = Some(format!(
                "module for `{}` dispatched to incompatible worker {} (`{}`)",
                module.key.accelerator, self.index, self.desc.name
            ));
            return completion;
        }
        if let Err(e) = fill_inputs(
            &mut self.machine.mem,
            &spec,
            &module.layout,
            job.request.seed,
        ) {
            completion.sim_error = Some(format!("input fill failed: {e}"));
            return completion;
        }

        if !job.elide {
            // cold-baseline dispatch: forget the resident state so the
            // program reprograms its full configuration
            self.resident.clear();
        }
        let (program, emitted_writes) = module.plan.delta_program(&mut self.resident);
        completion.emitted_writes = emitted_writes;

        // the dispatch starts when the queue has drained and the request
        // has arrived — the same rule the serve loop pulls completions
        // by — so the gap since the last finish is the worker's real
        // simulated idle time, which cools the DVFS automaton
        let start = self.clock.max(job.request.arrival);
        self.machine.accel.note_idle(start - self.clock);

        match self.machine.run(&program, self.fuel) {
            Ok(counters) => {
                completion.counters = counters;
                completion.freq = self.machine.accel.last_launch_state();
                self.clock = start + counters.cycles;
                // the program drained the accelerator; re-base its busy
                // window so the next dispatch starts from a clean clock
                self.machine.accel.reset_clock(counters.cycles);
                if let Err(e) = check_result(&self.machine.mem, &spec, &module.layout) {
                    completion.check_error = Some(e);
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
                // a failed dispatch carries no measured cycles, and the
                // serve loop's finish accounting treats it the same way
                self.clock = start;
                completion.sim_error = Some(e.to_string());
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

        let first = worker.execute(&Job {
            request: &request(0, "opengemm", spec, 1),
            module: &module,
            slot: 0,
            elide: true,
        });
        assert!(first.sim_error.is_none(), "{:?}", first.sim_error);
        assert!(first.check_error.is_none(), "{:?}", first.check_error);
        assert_eq!(first.emitted_writes, module.plan.cold_writes);

        let second = worker.execute(&Job {
            request: &request(1, "opengemm", spec, 2),
            module: &module,
            slot: 0,
            elide: true,
        });
        assert!(second.check_error.is_none(), "{:?}", second.check_error);
        // same shape, same canonical addresses: only the launch remains —
        // the configuration is entirely resident
        assert_eq!(second.emitted_writes, 0);
        assert!(second.counters.cycles < first.counters.cycles);
        assert_eq!(second.counters.launches as i64, spec.invocations());
    }

    #[test]
    fn repeated_tiled_dispatch_elides_the_invariant_fields() {
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::opengemm_paper(16).unwrap();
        assert!(spec.invocations() > 1);
        let module = build_module(&desc, spec, OptLevel::All).unwrap();
        let mut worker = Worker::new(0, desc, 1 << 20, 10_000_000);
        let jobs: Vec<Completion> = (0..3)
            .map(|i| {
                worker.execute(&Job {
                    request: &request(i, "opengemm", spec, i),
                    module: &module,
                    slot: 0,
                    elide: true,
                })
            })
            .collect();
        for c in &jobs {
            assert!(c.check_error.is_none(), "{:?}", c.check_error);
        }
        assert_eq!(jobs[0].emitted_writes, module.plan.cold_writes);
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
            let c = worker.execute(&Job {
                request: &request(i, "opengemm", spec, i),
                module: &module,
                slot: 0,
                elide: false,
            });
            // every non-eliding dispatch pays the full cold cost
            assert_eq!(c.emitted_writes, module.plan.cold_writes);
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
            let c = worker.execute(&Job {
                request: &request(i as u64, "gemmini", spec, 7 + i as u64),
                module,
                slot: 0,
                elide: true,
            });
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
            let c = worker.execute(&Job {
                request: &TrafficRequest {
                    id,
                    accelerator: "opengemm".into(),
                    spec,
                    arrival,
                    seed: id,
                },
                module: &module,
                slot: 0,
                elide: true,
            });
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
        let failed = worker.execute(&Job {
            request: &request(0, "opengemm", spec, 1),
            module: &module,
            slot: 0,
            elide: true,
        });
        assert!(failed.sim_error.is_some(), "store fault expected");
        // recovery: accelerator idle, resident dropped — the next dispatch
        // starts from a clean clock and pays exactly the cold cost
        assert!(!worker.machine.accel.is_busy(0));
        assert!(worker.resident.is_empty());
        let retry = worker.execute(&Job {
            request: &request(1, "opengemm", spec, 2),
            module: &module,
            slot: 0,
            elide: true,
        });
        assert_eq!(retry.emitted_writes, module.plan.cold_writes);
    }

    #[test]
    fn a_misrouted_module_is_a_failed_dispatch_that_touches_nothing() {
        let gemmini = AcceleratorDescriptor::gemmini();
        let spec = MatmulSpec::gemmini_paper(16).unwrap();
        let module = build_module(&gemmini, spec, OptLevel::Dedup).unwrap();
        let mut worker = Worker::new(3, AcceleratorDescriptor::opengemm(), 1 << 20, 10_000_000);
        let before = (worker.machine.mem.clone(), worker.resident.clone());
        let misrouted = worker.execute(&Job {
            request: &request(9, "gemmini", spec, 1),
            module: &module,
            slot: 4,
            elide: true,
        });
        assert_eq!(
            misrouted.sim_error.as_deref(),
            Some("module for `gemmini` dispatched to incompatible worker 3 (`opengemm`)")
        );
        assert_eq!((misrouted.slot, misrouted.request_id), (4, 9));
        assert_eq!(misrouted.counters, Counters::default());
        assert_eq!(misrouted.emitted_writes, 0);
        assert!(before == (worker.machine.mem.clone(), worker.resident.clone()));
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
        worker.execute(&Job {
            request: &request(0, "opengemm", spec, 11),
            module: &module,
            slot: 0,
            elide: true,
        });
        let delta = worker.execute(&Job {
            request: &request(1, "opengemm", spec, 22),
            module: &module,
            slot: 0,
            elide: true,
        });
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
