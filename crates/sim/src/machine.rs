//! The cycle-level host + accelerator co-simulator.
//!
//! Executes a [`Program`] on a [`HostModel`] connected to one [`AccelSim`],
//! reproducing the timing structure of Figure 2: host instructions cost
//! cycles, the accelerator runs in the background from `launch` until its
//! busy window closes, and the host stalls when it awaits — or, on
//! sequential-configuration platforms, whenever it touches a configuration
//! register while the accelerator is busy.

use crate::accel::{regmap, AccelSim, ConfigScheme, LaunchError};
use crate::host::HostModel;
use crate::isa::{Inst, Program};
use crate::memory::{MemError, Memory};
use crate::timeline::{Activity, Timeline};
use crate::timing::FREQ_STATES;
use std::error::Error;
use std::fmt;

/// Why simulation stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Host load/store fault.
    Mem(MemError),
    /// Accelerator launch fault.
    Launch(LaunchError),
    /// The dynamic instruction budget was exhausted.
    OutOfFuel {
        /// Instructions executed before giving up.
        executed: u64,
    },
    /// A configuration instruction named a register the accelerator does
    /// not have (a `CsrWrite` index, or either half of a `RoccCmd` pair,
    /// at or past [`regmap::COUNT`]).
    NoSuchRegister {
        /// The register index the instruction named.
        index: u16,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mem(e) => write!(f, "host memory fault: {e}"),
            SimError::Launch(e) => write!(f, "{e}"),
            SimError::OutOfFuel { executed } => {
                write!(f, "out of fuel after {executed} instructions")
            }
            SimError::NoSuchRegister { index } => write!(
                f,
                "configuration register {index} is past the {}-register file",
                regmap::COUNT
            ),
        }
    }
}

impl Error for SimError {}

impl From<MemError> for SimError {
    fn from(e: MemError) -> Self {
        SimError::Mem(e)
    }
}

impl From<LaunchError> for SimError {
    fn from(e: LaunchError) -> Self {
        SimError::Launch(e)
    }
}

/// Cycle and instruction counters from one run — everything the
/// configuration roofline needs (Section 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// End-to-end cycles (until both host and accelerator are done).
    pub cycles: u64,
    /// Cycles the host spent actively executing instructions.
    pub host_cycles: u64,
    /// Cycles the host spent stalled waiting for the accelerator.
    pub stall_cycles: u64,
    /// Cycles during which host execution and accelerator execution
    /// overlapped (nonzero only with concurrent configuration).
    pub overlap_cycles: u64,
    /// Dynamic instruction count.
    pub insts_total: u64,
    /// Dynamic configuration instructions (CSR writes, RoCC commands,
    /// launches, polls) — the paper's "setup instructions".
    pub insts_config: u64,
    /// Dynamic non-configuration instructions — the paper's "parameter
    /// calculation" instructions.
    pub insts_calc: u64,
    /// Cycles spent in configuration instructions.
    pub config_cycles: u64,
    /// Cycles spent in calculation instructions.
    pub calc_cycles: u64,
    /// Configuration payload bytes transferred to the accelerator.
    pub config_bytes: u64,
    /// Accelerator launches.
    pub launches: u64,
    /// Extra host cycles charged by the shared memory-bandwidth
    /// contention model (a subset of `config_cycles`/`calc_cycles`;
    /// always 0 under the identity timing model).
    pub contention_cycles: u64,
    /// Launches per DVFS frequency state (cold, warm, boost), counted
    /// only while DVFS is enabled — all zero under the identity model.
    pub freq_launches: [u64; FREQ_STATES],
}

impl Counters {
    /// Measured performance in ops/cycle given the accelerator's op count.
    pub fn ops_per_cycle(&self, ops: u64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            ops as f64 / self.cycles as f64
        }
    }

    /// Operation-to-configuration intensity `I_OC` in ops/byte
    /// (Section 4.2).
    pub fn operation_intensity(&self, ops: u64) -> f64 {
        if self.config_bytes == 0 {
            f64::INFINITY
        } else {
            ops as f64 / self.config_bytes as f64
        }
    }

    /// Effective configuration bandwidth in bytes/cycle (Section 4.4,
    /// Equation 4): configuration bytes over *all* host time spent
    /// producing them (calculation + register writes).
    pub fn effective_config_bandwidth(&self) -> f64 {
        let t = (self.config_cycles + self.calc_cycles) as f64;
        if t == 0.0 {
            f64::INFINITY
        } else {
            self.config_bytes as f64 / t
        }
    }
}

/// A host machine wired to one accelerator.
#[derive(Debug, Clone)]
pub struct Machine {
    /// The host cost model.
    pub host: HostModel,
    /// The accelerator.
    pub accel: AccelSim,
    /// Shared memory.
    pub mem: Memory,
    /// Host register file (sized on demand).
    pub regs: Vec<i64>,
}

impl Machine {
    /// Creates a machine with `mem_bytes` of zeroed memory.
    pub fn new(host: HostModel, accel: AccelSim, mem_bytes: usize) -> Self {
        Self {
            host,
            accel,
            mem: Memory::new(mem_bytes),
            regs: Vec::new(),
        }
    }

    /// Runs `program` to completion (Halt or falling off the end).
    ///
    /// # Errors
    ///
    /// Fails on memory faults, launch faults, or when more than `max_insts`
    /// dynamic instructions execute (runaway loop).
    pub fn run(&mut self, program: &Program, max_insts: u64) -> Result<Counters, SimError> {
        self.run_inner(program, max_insts, None)
    }

    /// Like [`Machine::run`], additionally recording a Figure 2-style
    /// execution [`Timeline`] of host and accelerator activity.
    ///
    /// # Errors
    /// Same as [`Machine::run`].
    pub fn run_traced(
        &mut self,
        program: &Program,
        max_insts: u64,
        timeline: &mut Timeline,
    ) -> Result<Counters, SimError> {
        self.run_inner(program, max_insts, Some(timeline))
    }

    fn run_inner(
        &mut self,
        program: &Program,
        max_insts: u64,
        mut timeline: Option<&mut Timeline>,
    ) -> Result<Counters, SimError> {
        if self.regs.len() < program.reg_count() {
            self.regs.resize(program.reg_count(), 0);
        }
        let mut c = Counters::default();
        let mut cycle: u64 = 0;
        let mut pc: usize = 0;
        let insts = program.insts();
        while pc < insts.len() {
            if c.insts_total >= max_insts {
                return Err(SimError::OutOfFuel {
                    executed: c.insts_total,
                });
            }
            let inst = insts[pc];
            if matches!(inst, Inst::Halt) {
                break;
            }
            c.insts_total += 1;

            // stalls: sequential config while busy; launches and awaits always
            let must_wait_idle = match inst {
                Inst::CsrWrite { .. } | Inst::RoccCmd { .. } => {
                    self.accel.params.scheme == ConfigScheme::Sequential
                }
                Inst::Launch | Inst::AwaitIdle => true,
                _ => false,
            };
            if must_wait_idle && self.accel.is_busy(cycle) {
                let until = self.accel.busy_until();
                c.stall_cycles += until - cycle;
                if let Some(t) = timeline.as_deref_mut() {
                    t.record_host(cycle, until, Activity::Stall);
                }
                cycle = until;
            }

            let mut cost = self.host.cycles_for(&inst);
            // shared-bandwidth contention: traffic issued while the
            // accelerator's tile streams hold part of the budget runs at
            // the leftover bandwidth, and the budget slots it takes push
            // the in-flight busy window out
            if let Some(cp) = self.accel.timing.contention {
                let traffic = inst.traffic_bytes(self.accel.params.csr_payload_bytes);
                if traffic > 0 && self.accel.is_busy(cycle) {
                    let extra = cp.host_penalty(traffic);
                    self.accel.push_back(cycle, cp.accel_pushback(traffic));
                    if let Some(t) = timeline.as_deref_mut() {
                        t.extend_accel(self.accel.busy_until());
                        t.annotate_contention(cycle, extra);
                    }
                    cost += extra;
                    c.contention_cycles += extra;
                }
            }
            // overlap accounting: host active [cycle, cycle+cost) vs busy window
            let busy_until = self.accel.busy_until();
            if busy_until > cycle {
                c.overlap_cycles += busy_until.min(cycle + cost) - cycle;
            }
            if inst.is_config() {
                c.insts_config += 1;
                c.config_cycles += cost;
            } else {
                c.insts_calc += 1;
                c.calc_cycles += cost;
            }
            if let Some(t) = timeline.as_deref_mut() {
                let activity = if inst.is_config() {
                    Activity::Config
                } else {
                    Activity::Calc
                };
                t.record_host(cycle, cycle + cost, activity);
            }
            c.host_cycles += cost;
            cycle += cost;

            let mut next_pc = pc + 1;
            match inst {
                Inst::Li { rd, imm } => self.regs[rd.0 as usize] = imm,
                Inst::Alu { op, rd, rs1, rs2 } => {
                    self.regs[rd.0 as usize] =
                        op.eval(self.regs[rs1.0 as usize], self.regs[rs2.0 as usize]);
                }
                Inst::AluI { op, rd, rs1, imm } => {
                    self.regs[rd.0 as usize] = op.eval(self.regs[rs1.0 as usize], imm);
                }
                Inst::Ld {
                    rd,
                    base,
                    offset,
                    width,
                } => {
                    let addr = (self.regs[base.0 as usize].wrapping_add(offset)) as u64;
                    self.regs[rd.0 as usize] = match width {
                        crate::isa::Width::Byte => i64::from(self.mem.read_i8(addr)?),
                        crate::isa::Width::Word => i64::from(self.mem.read_i32(addr)?),
                        crate::isa::Width::Double => self.mem.read_i64(addr)?,
                    };
                }
                Inst::St {
                    rs,
                    base,
                    offset,
                    width,
                } => {
                    let addr = (self.regs[base.0 as usize].wrapping_add(offset)) as u64;
                    let v = self.regs[rs.0 as usize];
                    match width {
                        crate::isa::Width::Byte => self.mem.write_i8(addr, v as i8)?,
                        crate::isa::Width::Word => self.mem.write_i32(addr, v as i32)?,
                        crate::isa::Width::Double => self.mem.write_i64(addr, v)?,
                    }
                }
                Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    if cond.eval(self.regs[rs1.0 as usize], self.regs[rs2.0 as usize]) {
                        next_pc = program.resolve(target);
                    }
                }
                Inst::Jump { target } => next_pc = program.resolve(target),
                Inst::CsrWrite { csr, rs } => {
                    if usize::from(csr) >= regmap::COUNT {
                        return Err(SimError::NoSuchRegister { index: csr });
                    }
                    self.accel.write_reg(csr, self.regs[rs.0 as usize]);
                    c.config_bytes += self.accel.params.csr_payload_bytes;
                }
                Inst::RoccCmd { funct, rs1, rs2 } => {
                    // funct f writes the register pair (2f, 2f+1): 16 bytes
                    let (lo, hi) = (u16::from(funct) * 2, u16::from(funct) * 2 + 1);
                    if usize::from(hi) >= regmap::COUNT {
                        return Err(SimError::NoSuchRegister { index: hi });
                    }
                    self.accel.write_reg(lo, self.regs[rs1.0 as usize]);
                    self.accel.write_reg(hi, self.regs[rs2.0 as usize]);
                    c.config_bytes += 16;
                    if self.accel.params.rocc_launch_funct == Some(funct) {
                        let done = self.accel.launch(&mut self.mem, cycle)?;
                        if self.accel.timing.dvfs.is_some() {
                            c.freq_launches[self.accel.last_launch_state().index()] += 1;
                        }
                        if let Some(t) = timeline.as_deref_mut() {
                            t.record_accel(cycle, done);
                            if self.accel.timing.dvfs.is_some() {
                                t.annotate_frequency(cycle, self.accel.last_launch_state());
                            }
                        }
                        c.launches += 1;
                    }
                }
                Inst::Launch => {
                    let done = self.accel.launch(&mut self.mem, cycle)?;
                    if self.accel.timing.dvfs.is_some() {
                        c.freq_launches[self.accel.last_launch_state().index()] += 1;
                    }
                    if let Some(t) = timeline.as_deref_mut() {
                        t.record_accel(cycle, done);
                        if self.accel.timing.dvfs.is_some() {
                            t.annotate_frequency(cycle, self.accel.last_launch_state());
                        }
                    }
                    c.config_bytes += self.accel.params.csr_payload_bytes;
                    c.launches += 1;
                }
                Inst::AwaitIdle => {
                    // already stalled to idle above; this is the final poll
                }
                Inst::Halt => unreachable!("handled before execution"),
            }
            pc = next_pc;
        }
        // the program may end with the accelerator still running
        if self.accel.busy_until() > cycle {
            c.stall_cycles += self.accel.busy_until() - cycle;
            if let Some(t) = timeline {
                t.record_host(cycle, self.accel.busy_until(), Activity::Stall);
            }
            cycle = self.accel.busy_until();
        }
        c.cycles = cycle;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::{regmap, AccelParams};
    use crate::isa::{AluOp, BranchCond, ProgramBuilder, Width};

    fn machine(params: AccelParams) -> Machine {
        Machine::new(HostModel::snitch_like(), AccelSim::new(params), 0x10000)
    }

    /// Writes the full tile descriptor via CSRs and launches.
    fn emit_tile_csr(p: &mut ProgramBuilder, a: i64, b: i64, c: i64, size: i64) {
        let r = p.reg();
        for (csr, v) in [
            (regmap::A_ADDR, a),
            (regmap::B_ADDR, b),
            (regmap::C_ADDR, c),
            (regmap::M, size),
            (regmap::N, size),
            (regmap::K, size),
            (regmap::STRIDE_A, size),
            (regmap::STRIDE_B, size),
            (regmap::STRIDE_C, 4 * size),
        ] {
            p.li(r, v);
            p.csr_write(csr, r);
        }
        p.launch();
    }

    #[test]
    fn functional_matmul_end_to_end() {
        let mut m = machine(AccelParams::opengemm_like());
        // A = B = 4×4 identity-ish: fill with 1s
        for i in 0..16 {
            m.mem.write_i8(0x100 + i, 1).unwrap();
            m.mem.write_i8(0x200 + i, 1).unwrap();
        }
        let mut p = ProgramBuilder::new();
        emit_tile_csr(&mut p, 0x100, 0x200, 0x300, 4);
        p.await_idle();
        p.halt();
        let counters = m.run(&p.finish(), 10_000).unwrap();
        assert_eq!(counters.launches, 1);
        // every C element = Σ 1·1 over k=4
        for j in 0..16 {
            assert_eq!(m.mem.read_i32(0x300 + 4 * j).unwrap(), 4);
        }
        assert_eq!(m.accel.stats.macs, 64);
    }

    #[test]
    fn concurrent_config_overlaps_next_setup() {
        let mut m = machine(AccelParams::opengemm_like());
        for i in 0..4096 {
            m.mem.write_i8(0x100 + i, 1).unwrap();
            m.mem.write_i8(0x1100 + i, 1).unwrap();
        }
        let mut p = ProgramBuilder::new();
        // a long-running tile, then a reconfiguration while it is still
        // busy (should NOT stall on concurrent hardware)
        emit_tile_csr(&mut p, 0x100, 0x1100, 0x2100, 64);
        emit_tile_csr(&mut p, 0x100, 0x1100, 0x6100, 64);
        p.await_idle();
        p.halt();
        let c = m.run(&p.finish(), 100_000).unwrap();
        assert!(c.overlap_cycles > 0, "{c:?}");
        assert_eq!(c.launches, 2);
    }

    #[test]
    fn sequential_config_stalls_while_busy() {
        let mut m = machine(AccelParams::gemmini_like());
        for i in 0..4096 {
            m.mem.write_i8(0x100 + i, 1).unwrap();
            m.mem.write_i8(0x1100 + i, 1).unwrap();
        }
        // configure + launch via RoCC pairs: functs 0..=5 config, funct 13
        // (the launch-semantic command) launches
        let mut p = ProgramBuilder::new();
        let (r1, r2) = (p.reg(), p.reg());
        let size = 64i64;
        let emit = |p: &mut ProgramBuilder, c_addr: i64| {
            // funct f writes config registers (2f, 2f+1)
            let pairs: [(i64, i64); 6] = [
                (0x100, 0x1100),  // A_ADDR, B_ADDR
                (c_addr, 0),      // C_ADDR, D_ADDR
                (size, size),     // M, N
                (size, size),     // K, STRIDE_A
                (size, 4 * size), // STRIDE_B, STRIDE_C
                (0, 0),           // STRIDE_D, FLAGS
            ];
            for (f, &(v1, v2)) in pairs.iter().enumerate() {
                p.li(r1, v1);
                p.li(r2, v2);
                p.rocc(f as u8, r1, r2);
            }
            p.rocc(13, r1, r2); // launch-semantic command
        };
        emit(&mut p, 0x2100);
        emit(&mut p, 0x6100); // reconfigure immediately: must stall
        p.await_idle();
        p.halt();
        let c = m.run(&p.finish(), 100_000).unwrap();
        assert_eq!(c.launches, 2);
        assert!(c.stall_cycles > 0, "{c:?}");
        // the host may overlap its *own* (non-config) work — here just the
        // two `li`s before it stalls on the first RoCC of the next tile —
        // but never configuration
        assert!(c.overlap_cycles <= 4, "{c:?}");
    }

    #[test]
    fn await_accounts_stall_cycles() {
        let mut m = machine(AccelParams::opengemm_like());
        for i in 0..4096 {
            m.mem.write_i8(0x100 + i, 1).unwrap();
            m.mem.write_i8(0x1100 + i, 1).unwrap();
        }
        let mut p = ProgramBuilder::new();
        emit_tile_csr(&mut p, 0x100, 0x1100, 0x2100, 64);
        p.await_idle();
        p.halt();
        let c = m.run(&p.finish(), 100_000).unwrap();
        // 64³ = 262144 MACs at 512/cycle = 512 cycles + overhead; host does
        // almost nothing in between, so it stalls for most of that
        assert!(c.stall_cycles > 400, "{c:?}");
        assert_eq!(c.cycles, c.host_cycles + c.stall_cycles);
    }

    #[test]
    fn branch_loops_execute() {
        let mut m = machine(AccelParams::opengemm_like());
        let mut p = ProgramBuilder::new();
        let (i, n, acc) = (p.reg(), p.reg(), p.reg());
        p.li(i, 0);
        p.li(n, 10);
        p.li(acc, 0);
        let head = p.new_label();
        p.bind(head);
        p.alui(AluOp::Add, acc, acc, 5);
        p.alui(AluOp::Add, i, i, 1);
        p.branch(BranchCond::Lt, i, n, head);
        p.halt();
        let c = m.run(&p.finish(), 1000).unwrap();
        assert_eq!(m.regs[acc.0 as usize], 50);
        assert_eq!(c.insts_total, 3 + 30);
    }

    #[test]
    fn loads_and_stores_work() {
        let mut m = machine(AccelParams::opengemm_like());
        let mut p = ProgramBuilder::new();
        let (base, v, out) = (p.reg(), p.reg(), p.reg());
        p.li(base, 0x500);
        p.li(v, -42);
        p.st(v, base, 8, Width::Double);
        p.ld(out, base, 8, Width::Double);
        p.halt();
        m.run(&p.finish(), 100).unwrap();
        assert_eq!(m.regs[out.0 as usize], -42);
        assert_eq!(m.mem.read_i64(0x508).unwrap(), -42);
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let mut m = machine(AccelParams::opengemm_like());
        let mut p = ProgramBuilder::new();
        let head = p.new_label();
        p.bind(head);
        p.jump(head);
        p.halt();
        assert!(matches!(
            m.run(&p.finish(), 100),
            Err(SimError::OutOfFuel { executed: 100 })
        ));
    }

    #[test]
    fn counters_partition_cleanly() {
        let mut m = machine(AccelParams::opengemm_like());
        for i in 0..64 {
            m.mem.write_i8(0x100 + i, 2).unwrap();
            m.mem.write_i8(0x200 + i, 3).unwrap();
        }
        let mut p = ProgramBuilder::new();
        emit_tile_csr(&mut p, 0x100, 0x200, 0x300, 8);
        p.await_idle();
        p.halt();
        let c = m.run(&p.finish(), 10_000).unwrap();
        assert_eq!(c.insts_total, c.insts_config + c.insts_calc);
        assert_eq!(c.host_cycles, c.config_cycles + c.calc_cycles);
        // 9 CSR writes × 4 bytes + launch 4 bytes
        assert_eq!(c.config_bytes, 40);
        assert_eq!(m.mem.read_i32(0x300).unwrap(), 2 * 3 * 8);
    }

    #[test]
    fn traced_run_agrees_with_counters() {
        use crate::timeline::{Activity, Timeline};
        let mut m = machine(AccelParams::opengemm_like());
        for i in 0..256 {
            m.mem.write_i8(0x100 + i, 1).unwrap();
            m.mem.write_i8(0x400 + i, 1).unwrap();
        }
        let mut p = ProgramBuilder::new();
        emit_tile_csr(&mut p, 0x100, 0x400, 0x800, 16);
        p.await_idle();
        p.halt();
        let prog = p.finish();
        let mut timeline = Timeline::new();
        let c = m.run_traced(&prog, 100_000, &mut timeline).unwrap();
        assert_eq!(timeline.cycles_of(Activity::Config), c.config_cycles);
        assert_eq!(timeline.cycles_of(Activity::Calc), c.calc_cycles);
        assert_eq!(timeline.cycles_of(Activity::Stall), c.stall_cycles);
        assert_eq!(
            timeline.cycles_of(Activity::Busy),
            m.accel.stats.busy_cycles
        );
        assert_eq!(timeline.end(), c.cycles);
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        let build = || {
            let mut p = ProgramBuilder::new();
            emit_tile_csr(&mut p, 0x100, 0x200, 0x300, 4);
            p.await_idle();
            p.halt();
            p.finish()
        };
        let mut m1 = machine(AccelParams::opengemm_like());
        let mut m2 = machine(AccelParams::opengemm_like());
        for i in 0..16 {
            m1.mem.write_i8(0x100 + i, 2).unwrap();
            m1.mem.write_i8(0x200 + i, 2).unwrap();
            m2.mem.write_i8(0x100 + i, 2).unwrap();
            m2.mem.write_i8(0x200 + i, 2).unwrap();
        }
        let c1 = m1.run(&build(), 100_000).unwrap();
        let mut t = crate::timeline::Timeline::new();
        let c2 = m2.run_traced(&build(), 100_000, &mut t).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(m1.mem, m2.mem);
    }

    fn reference_timing() -> crate::timing::TimingModel {
        crate::timing::TimingModel {
            contention: Some(crate::timing::ContentionParams {
                budget_bytes_per_cycle: 8,
                accel_bytes_per_cycle: 6,
            }),
            dvfs: Some(crate::timing::DvfsParams {
                warm_busy_cycles: 64,
                boost_busy_cycles: 256,
                cooldown_idle_cycles: 4_096,
                speed_pct: [50, 100, 150],
            }),
        }
    }

    fn timed_machine(timing: crate::timing::TimingModel) -> Machine {
        Machine::new(
            HostModel::snitch_like(),
            AccelSim::with_timing(AccelParams::opengemm_like(), timing),
            0x10000,
        )
    }

    fn two_tile_program() -> Program {
        let mut p = ProgramBuilder::new();
        emit_tile_csr(&mut p, 0x100, 0x1100, 0x2100, 64);
        emit_tile_csr(&mut p, 0x100, 0x1100, 0x6100, 64);
        p.await_idle();
        p.halt();
        p.finish()
    }

    fn fill_two_tiles(m: &mut Machine) {
        for i in 0..4096 {
            m.mem.write_i8(0x100 + i, 1).unwrap();
            m.mem.write_i8(0x1100 + i, 1).unwrap();
        }
    }

    #[test]
    fn identity_timing_is_the_default_and_charges_nothing() {
        let mut base = machine(AccelParams::opengemm_like());
        let mut explicit = timed_machine(crate::timing::TimingModel::identity());
        fill_two_tiles(&mut base);
        fill_two_tiles(&mut explicit);
        let p = two_tile_program();
        let a = base.run(&p, 100_000).unwrap();
        let b = explicit.run(&p, 100_000).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.contention_cycles, 0);
        assert_eq!(a.freq_launches, [0, 0, 0]);
        assert_eq!(base.mem, explicit.mem);
    }

    #[test]
    fn contention_stretches_overlapped_config_writes() {
        // the second tile's CSR writes land while the first is busy: under
        // contention they run at leftover bandwidth and push the busy
        // window out, so the run takes longer than the identity run
        let contention_only = crate::timing::TimingModel {
            contention: reference_timing().contention,
            dvfs: None,
        };
        let mut ident = timed_machine(crate::timing::TimingModel::identity());
        let mut contended = timed_machine(contention_only);
        fill_two_tiles(&mut ident);
        fill_two_tiles(&mut contended);
        let p = two_tile_program();
        let a = ident.run(&p, 100_000).unwrap();
        let b = contended.run(&p, 100_000).unwrap();
        assert!(b.contention_cycles > 0, "{b:?}");
        assert!(b.cycles > a.cycles, "{} !> {}", b.cycles, a.cycles);
        // contention changes timing only, never results
        assert_eq!(ident.mem, contended.mem);
        assert_eq!(a.insts_total, b.insts_total);
        assert_eq!(a.config_bytes, b.config_bytes);
        // the counter partitions still hold, contention included
        assert_eq!(b.insts_total, b.insts_config + b.insts_calc);
        assert_eq!(b.host_cycles, b.config_cycles + b.calc_cycles);
        assert_eq!(b.cycles, b.host_cycles + b.stall_cycles);
    }

    #[test]
    fn dvfs_heats_up_across_launches() {
        let dvfs_only = crate::timing::TimingModel {
            contention: None,
            dvfs: reference_timing().dvfs,
        };
        let mut m = timed_machine(dvfs_only);
        fill_two_tiles(&mut m);
        // several sequential tiles with awaits in between: the first runs
        // cold, the accumulated busy cycles push later ones warmer
        let mut p = ProgramBuilder::new();
        for i in 0..4 {
            emit_tile_csr(&mut p, 0x100, 0x1100, 0x2100 + 0x1000 * i, 32);
            p.await_idle();
        }
        p.halt();
        let c = m.run(&p.finish(), 1_000_000).unwrap();
        assert_eq!(c.launches, 4);
        assert_eq!(c.freq_launches.iter().sum::<u64>(), 4);
        assert!(c.freq_launches[0] >= 1, "{:?}", c.freq_launches);
        assert!(
            c.freq_launches[1] + c.freq_launches[2] >= 1,
            "never left cold: {:?}",
            c.freq_launches
        );
        assert!(m.accel.dvfs_heat() > 0);
    }

    #[test]
    fn traced_timed_run_agrees_with_counters() {
        use crate::timeline::Timeline;
        let run = |traced: bool| {
            let mut m = timed_machine(reference_timing());
            fill_two_tiles(&mut m);
            let p = two_tile_program();
            if traced {
                let mut t = Timeline::new();
                let c = m.run_traced(&p, 100_000, &mut t).unwrap();
                (c, Some(t), m)
            } else {
                (m.run(&p, 100_000).unwrap(), None, m)
            }
        };
        let (c_plain, _, m_plain) = run(false);
        let (c, t, m) = run(true);
        let t = t.unwrap();
        // tracing never perturbs timing, even under the rich model
        assert_eq!(c, c_plain);
        assert_eq!(m.mem, m_plain.mem);
        // the annotations explain exactly the charged contention, and the
        // accel lane includes the pushed-back busy window
        assert_eq!(t.contention_cycles(), c.contention_cycles);
        assert!(c.contention_cycles > 0);
        assert_eq!(t.cycles_of(Activity::Busy), m.accel.stats.busy_cycles);
        assert_eq!(t.cycles_of(Activity::Config), c.config_cycles);
        assert_eq!(t.cycles_of(Activity::Calc), c.calc_cycles);
        assert_eq!(t.cycles_of(Activity::Stall), c.stall_cycles);
        assert_eq!(t.end(), c.cycles);
        // one frequency annotation per launch
        let freq_notes = t
            .annotations
            .iter()
            .filter(|a| matches!(a.kind, crate::timeline::AnnotationKind::Frequency { .. }))
            .count() as u64;
        assert_eq!(freq_notes, c.launches);
    }

    #[test]
    fn a_register_past_the_file_is_a_fault_not_a_panic() {
        // programs reach a machine from stored records and hand-written
        // descriptors as well as from the lowering: naming a register the
        // accelerator does not have stops the run with a typed error
        let csr = |index: u16| {
            let mut p = ProgramBuilder::new();
            let r = p.reg();
            p.li(r, 7);
            p.csr_write(index, r);
            p.halt();
            machine(AccelParams::opengemm_like()).run(&p.finish(), 100)
        };
        assert!(csr(regmap::COUNT as u16 - 1).is_ok());
        assert_eq!(
            csr(regmap::COUNT as u16),
            Err(SimError::NoSuchRegister { index: 28 })
        );
        assert_eq!(
            csr(40).unwrap_err().to_string(),
            "configuration register 40 is past the 28-register file"
        );
        assert_eq!(
            csr(u16::MAX),
            Err(SimError::NoSuchRegister { index: u16::MAX })
        );

        // a RoCC command writes the pair (2f, 2f + 1): funct 13 is the
        // file's last pair, funct 14 the first past it, 255 the furthest
        let rocc = |funct: u8| {
            let mut p = ProgramBuilder::new();
            let (r1, r2) = (p.reg(), p.reg());
            p.li(r1, 1);
            p.li(r2, 2);
            p.rocc(funct, r1, r2);
            p.halt();
            let mut params = AccelParams::gemmini_like();
            params.rocc_launch_funct = None;
            let mut m = machine(params);
            m.run(&p.finish(), 100).map(|_| m.accel.stats.reg_writes)
        };
        assert_eq!(rocc(13), Ok(2));
        assert_eq!(rocc(14), Err(SimError::NoSuchRegister { index: 29 }));
        assert_eq!(rocc(255), Err(SimError::NoSuchRegister { index: 511 }));
    }

    #[test]
    fn roofline_counter_helpers() {
        let c = Counters {
            cycles: 100,
            config_bytes: 50,
            config_cycles: 20,
            calc_cycles: 30,
            ..Default::default()
        };
        assert!((c.ops_per_cycle(800) - 8.0).abs() < 1e-12);
        assert!((c.operation_intensity(800) - 16.0).abs() < 1e-12);
        assert!((c.effective_config_bandwidth() - 1.0).abs() < 1e-12);
    }
}
