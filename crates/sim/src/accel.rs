//! Accelerator models: configuration registers, sequential/concurrent
//! configuration schemes (Section 2.2), and a functional matrix-multiply
//! datapath.
//!
//! Both evaluation platforms of the paper are instances of one
//! parameterized model:
//!
//! - **Gemmini-like**: sequential configuration, 16×16 systolic array
//!   (512 ops/cycle), configured by RoCC custom instructions, the last of
//!   which carries launch semantics;
//! - **OpenGeMM-like**: concurrent configuration with staging registers,
//!   8×8×8 GeMM array (1024 ops/cycle), configured by CSR writes with an
//!   explicit launch register and a polled status register.

use crate::memory::{le_i32, MemError, Memory};
use crate::timing::{DvfsState, FreqState, TimingModel};

/// How the accelerator accepts configuration while running (Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigScheme {
    /// The host stalls on any configuration access while the accelerator is
    /// busy; registers are written directly.
    Sequential,
    /// Configuration writes land in staging registers even while the
    /// accelerator runs; launch atomically adopts the staged configuration.
    Concurrent,
}

/// The accelerator's configuration register map (shared by both platforms;
/// per-target field *names* are mapped onto these indices by the lowering).
pub mod regmap {
    /// Base address of matrix A (i8 elements).
    pub const A_ADDR: u16 = 0;
    /// Base address of matrix B (i8 elements).
    pub const B_ADDR: u16 = 1;
    /// Base address of matrix C (i32 elements).
    pub const C_ADDR: u16 = 2;
    /// Base address of bias matrix D (i32 elements); 0 disables the bias.
    pub const D_ADDR: u16 = 3;
    /// Output rows.
    pub const M: u16 = 4;
    /// Output columns.
    pub const N: u16 = 5;
    /// Reduction depth.
    pub const K: u16 = 6;
    /// Row stride of A in bytes.
    pub const STRIDE_A: u16 = 7;
    /// Row stride of B in bytes.
    pub const STRIDE_B: u16 = 8;
    /// Row stride of C in bytes.
    pub const STRIDE_C: u16 = 9;
    /// Row stride of D in bytes.
    pub const STRIDE_D: u16 = 10;
    /// Flag bits, see [`flags`](super::flags).
    pub const FLAGS: u16 = 11;

    // Auxiliary registers: functionally inert in this model, but real
    // accelerators carry them (scratchpad addresses, packed loop bounds,
    // per-mover configuration words) and the host must compute and write
    // them — they are a large share of the configuration wall on
    // Gemmini-class targets.

    /// Scratchpad-local address of A.
    pub const SPAD_A: u16 = 12;
    /// Scratchpad-local address of B.
    pub const SPAD_B: u16 = 13;
    /// Scratchpad-local address of C (accumulator bank).
    pub const SPAD_C: u16 = 14;
    /// Scratchpad-local address of D.
    pub const SPAD_D: u16 = 15;
    /// Packed hardware-loop bounds (`I | J<<16 | K<<32`).
    pub const LOOP_SIZES: u16 = 16;
    /// Packed hardware-loop padding (`pad_I | pad_J<<16 | pad_K<<32`).
    pub const LOOP_PADS: u16 = 17;
    /// Execute-pipeline configuration word (dataflow, activation, transposes).
    pub const CONFIG_EX: u16 = 18;
    /// Load-mover configuration for A.
    pub const CONFIG_LD_A: u16 = 19;
    /// Load-mover configuration for B.
    pub const CONFIG_LD_B: u16 = 20;
    /// Load-mover configuration for D.
    pub const CONFIG_LD_D: u16 = 21;
    /// Store-mover configuration for C.
    pub const CONFIG_ST: u16 = 22;
    /// Input scale factor for the load movers.
    pub const MVIN_SCALE: u16 = 23;
    /// Reserved pair written by the launch-semantic command.
    pub const LAUNCH_LO: u16 = 26;
    /// Reserved pair written by the launch-semantic command (high half).
    pub const LAUNCH_HI: u16 = 27;
    /// Number of configuration registers.
    pub const COUNT: usize = 28;
}

/// Flag bits within [`regmap::FLAGS`].
pub mod flags {
    /// Apply ReLU to the output (Table 1's `act`).
    pub const RELU: i64 = 1 << 0;
    /// Read A transposed (Table 1's `A_transpose`).
    pub const TRANSPOSE_A: i64 = 1 << 1;
    /// Read B transposed (Table 1's `B_transpose`).
    pub const TRANSPOSE_B: i64 = 1 << 2;
    /// Accumulate onto the existing C contents instead of overwriting.
    pub const ACCUMULATE: i64 = 1 << 3;
}

/// Static parameters of an accelerator instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccelParams {
    /// Accelerator name (matches the accfg dialect's accelerator strings).
    pub name: String,
    /// Configuration scheme.
    pub scheme: ConfigScheme,
    /// Multiply-accumulates per cycle at peak (peak performance is twice
    /// this in ops/cycle).
    pub macs_per_cycle: u64,
    /// Fixed pipeline fill/drain overhead added to every launch, in cycles.
    pub launch_overhead: u64,
    /// Configuration payload bytes carried per CSR write (4 on the RV32
    /// OpenGeMM host, 8 on RV64).
    pub csr_payload_bytes: u64,
    /// RoCC funct value that carries launch semantics (Gemmini-style
    /// "the last instruction in the sequence implicitly launches"); `None`
    /// for targets with an explicit launch register.
    pub rocc_launch_funct: Option<u8>,
}

impl AccelParams {
    /// The Gemmini-like platform: 16×16 systolic array, one MAC per PE per
    /// cycle (P_peak = 512 ops/cycle), sequential configuration via RoCC.
    pub fn gemmini_like() -> Self {
        Self {
            name: "gemmini".into(),
            scheme: ConfigScheme::Sequential,
            macs_per_cycle: 256,
            launch_overhead: 16, // systolic fill/drain
            csr_payload_bytes: 8,
            rocc_launch_funct: Some(13),
        }
    }

    /// The OpenGeMM-like platform: 8×8×8 GeMM core (P_peak = 1024
    /// ops/cycle), concurrent configuration via CSR staging registers.
    pub fn opengemm_like() -> Self {
        Self {
            name: "opengemm".into(),
            scheme: ConfigScheme::Concurrent,
            macs_per_cycle: 512,
            launch_overhead: 9, // output pipeline drain
            csr_payload_bytes: 4,
            rocc_launch_funct: None,
        }
    }

    /// Peak performance in ops/cycle (1 MAC = 2 ops).
    pub fn peak_ops_per_cycle(&self) -> u64 {
        self.macs_per_cycle * 2
    }
}

/// A decoded macro-operation (one tile matmul `C = act(A·B + D)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileOp {
    /// Base address of A.
    pub a_addr: u64,
    /// Base address of B.
    pub b_addr: u64,
    /// Base address of C.
    pub c_addr: u64,
    /// Base address of D (0 = no bias).
    pub d_addr: u64,
    /// Output rows.
    pub m: u64,
    /// Output columns.
    pub n: u64,
    /// Reduction depth.
    pub k: u64,
    /// Row strides in bytes.
    pub stride_a: u64,
    /// Row stride of B in bytes.
    pub stride_b: u64,
    /// Row stride of C in bytes.
    pub stride_c: u64,
    /// Row stride of D in bytes.
    pub stride_d: u64,
    /// Flag bits.
    pub flags: i64,
}

/// Errors the accelerator can raise at launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// A matrix access fell outside memory.
    Mem(MemError),
    /// A dimension register held zero or a negative value.
    BadDimensions {
        /// The decoded (m, n, k).
        m: i64,
        /// Columns.
        n: i64,
        /// Depth.
        k: i64,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Mem(e) => write!(f, "accelerator memory fault: {e}"),
            LaunchError::BadDimensions { m, n, k } => {
                write!(f, "invalid tile dimensions m={m} n={n} k={k}")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<MemError> for LaunchError {
    fn from(e: MemError) -> Self {
        LaunchError::Mem(e)
    }
}

/// Accelerator execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelStats {
    /// Number of launches executed.
    pub launches: u64,
    /// Total multiply-accumulates performed.
    pub macs: u64,
    /// Total busy cycles (compute + launch overhead).
    pub busy_cycles: u64,
    /// Total configuration register writes received.
    pub reg_writes: u64,
}

impl AccelStats {
    /// Total arithmetic operations (1 MAC = 2 ops), the paper's `ops`.
    pub fn ops(&self) -> u64 {
        self.macs * 2
    }
}

/// A simulated accelerator instance: configuration registers plus the
/// functional matmul datapath.
#[derive(Debug, Clone)]
pub struct AccelSim {
    /// Static parameters.
    pub params: AccelParams,
    /// The machine's timing model (identity unless installed via
    /// [`AccelSim::with_timing`]): shared-bandwidth contention and DVFS.
    pub timing: TimingModel,
    active: [i64; regmap::COUNT],
    staging: [i64; regmap::COUNT],
    busy_until: u64,
    dvfs: DvfsState,
    last_launch_state: FreqState,
    /// The packed operands of the launch in progress, kept so a launch
    /// allocates only when its tile outgrows every earlier one.
    scratch: TileScratch,
    /// Execution statistics.
    pub stats: AccelStats,
}

impl AccelSim {
    /// Creates an idle accelerator with zeroed registers and the identity
    /// timing model (base-simulator timing, bit-exact).
    pub fn new(params: AccelParams) -> Self {
        Self::with_timing(params, TimingModel::identity())
    }

    /// Creates an idle accelerator charged under `timing`.
    pub fn with_timing(params: AccelParams, timing: TimingModel) -> Self {
        Self {
            params,
            timing,
            active: [0; regmap::COUNT],
            staging: [0; regmap::COUNT],
            busy_until: 0,
            dvfs: DvfsState::default(),
            last_launch_state: FreqState::Cold,
            scratch: TileScratch::default(),
            stats: AccelStats::default(),
        }
    }

    /// The frequency state the most recent launch ran at ([`FreqState::Cold`]
    /// while DVFS is disabled or before any launch).
    pub fn last_launch_state(&self) -> FreqState {
        self.last_launch_state
    }

    /// The DVFS automaton's accumulated busy-cycle heat.
    pub fn dvfs_heat(&self) -> u64 {
        self.dvfs.heat()
    }

    /// Accounts `idle_cycles` of real simulated idle time between
    /// dispatched programs (which each count cycles from 0, hiding the
    /// gap from in-program cooldown checks): a cooldown-length gap
    /// resets the DVFS history, so a worker left idle cools back to the
    /// cold state. A no-op without DVFS.
    pub fn note_idle(&mut self, idle_cycles: u64) {
        if let Some(params) = self.timing.dvfs {
            self.dvfs.note_idle(&params, idle_cycles);
        }
    }

    /// Extends the in-flight busy window by `extra` cycles — the machine
    /// charges this when host traffic steals shared-bandwidth slots from
    /// the accelerator's tile streams. A no-op when the accelerator is
    /// idle (there is no window to stretch).
    pub fn push_back(&mut self, now: u64, extra: u64) {
        if extra == 0 || !self.is_busy(now) {
            return;
        }
        self.busy_until += extra;
        self.stats.busy_cycles += extra;
        self.dvfs.note_busy(self.busy_until, extra);
    }

    /// The cycle at which the accelerator becomes idle.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// `true` if the accelerator is still computing at `cycle`.
    pub fn is_busy(&self, cycle: u64) -> bool {
        cycle < self.busy_until
    }

    /// Reads a configuration register (staged value).
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn reg(&self, index: u16) -> i64 {
        self.staging[index as usize]
    }

    /// Re-bases the accelerator's busy window to cycle 0.
    ///
    /// [`Machine::run`](crate::Machine::run) counts cycles from 0 on every
    /// call, while `busy_until` is absolute; a runtime that dispatches many
    /// programs onto one persistent machine calls this between programs
    /// (once the accelerator has drained) so a finished busy window is not
    /// mistaken for in-flight work. Registers and statistics persist.
    ///
    /// # Panics
    /// Panics if the accelerator still has an in-flight launch, i.e. the
    /// previous program ended without awaiting completion.
    pub fn reset_clock(&mut self, program_end_cycle: u64) {
        assert!(
            self.busy_until <= program_end_cycle,
            "reset_clock while the accelerator is busy (busy until {}, program ended at {})",
            self.busy_until,
            program_end_cycle
        );
        self.busy_until = 0;
        // DVFS heat survives the re-base, and the idle reference moves to
        // cycle 0 so the next program's small cycle values are not
        // mistaken for a long idle gap; real inter-dispatch idle is
        // reported separately via [`AccelSim::note_idle`]
        self.dvfs.rebase();
    }

    /// Writes a configuration register.
    ///
    /// For [`ConfigScheme::Sequential`] the machine must have stalled until
    /// idle before calling this; the write lands in the active registers.
    /// For [`ConfigScheme::Concurrent`] it lands in staging only.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn write_reg(&mut self, index: u16, value: i64) {
        self.staging[index as usize] = value;
        if self.params.scheme == ConfigScheme::Sequential {
            self.active[index as usize] = value;
        }
        self.stats.reg_writes += 1;
    }

    /// Decodes the staged configuration into a tile operation.
    pub fn decode(&self) -> TileOp {
        let r = &self.staging;
        TileOp {
            a_addr: r[regmap::A_ADDR as usize] as u64,
            b_addr: r[regmap::B_ADDR as usize] as u64,
            c_addr: r[regmap::C_ADDR as usize] as u64,
            d_addr: r[regmap::D_ADDR as usize] as u64,
            m: r[regmap::M as usize] as u64,
            n: r[regmap::N as usize] as u64,
            k: r[regmap::K as usize] as u64,
            stride_a: r[regmap::STRIDE_A as usize] as u64,
            stride_b: r[regmap::STRIDE_B as usize] as u64,
            stride_c: r[regmap::STRIDE_C as usize] as u64,
            stride_d: r[regmap::STRIDE_D as usize] as u64,
            flags: r[regmap::FLAGS as usize],
        }
    }

    /// Launches the staged configuration at `now`, executing the tile
    /// matmul on `mem` and returning the cycle at which it completes.
    ///
    /// The caller (the machine) is responsible for stalling until idle
    /// before launching — hardware refuses a second in-flight launch.
    ///
    /// # Errors
    /// Fails on invalid dimensions or out-of-bounds matrix accesses.
    pub fn launch(&mut self, mem: &mut Memory, now: u64) -> Result<u64, LaunchError> {
        debug_assert!(!self.is_busy(now), "launch while busy");
        self.active = self.staging;
        let op = self.decode();
        let raw = &self.active;
        if raw[regmap::M as usize] <= 0
            || raw[regmap::N as usize] <= 0
            || raw[regmap::K as usize] <= 0
        {
            return Err(LaunchError::BadDimensions {
                m: raw[regmap::M as usize],
                n: raw[regmap::N as usize],
                k: raw[regmap::K as usize],
            });
        }
        let macs = self.scratch.execute(&op, mem)?;
        // DVFS: the launch runs at the rate of the current frequency
        // state; without DVFS this is exactly the nominal MAC rate
        let state = match &self.timing.dvfs {
            Some(params) => self.dvfs.launch_state(params, now),
            None => FreqState::Cold,
        };
        self.last_launch_state = state;
        let rate = self
            .timing
            .effective_macs_per_cycle(self.params.macs_per_cycle, state);
        let compute = macs.div_ceil(rate);
        let busy = compute + self.params.launch_overhead;
        self.busy_until = now + busy;
        self.dvfs.note_busy(self.busy_until, busy);
        self.stats.launches += 1;
        self.stats.macs += macs;
        self.stats.busy_cycles += busy;
        Ok(self.busy_until)
    }
}

/// Functionally executes one tile `C = act(A·B + D)` on memory, returning
/// the MAC count.
///
/// The result — memory and return value, faults included — is that of
/// [`execute_tile_elementwise`], which is the definition. A tile whose
/// operands are row-major and lie in memory, with C overlapping none of
/// A, B and D (every tile this repository's lowerings emit), is computed
/// from packed operands instead: B is transposed and widened to i16 once
/// per tile, rows of A two at a time, and each pair of rows meets every
/// packed column in one MAC kernel pass. An i8 · i8 product is exact in 16
/// bits and the wrapping i32 sum does not depend on its order, so the
/// bytes written are the definition's.
///
/// # Errors
/// Fails when any element access is out of bounds.
pub fn execute_tile(op: &TileOp, mem: &mut Memory) -> Result<u64, LaunchError> {
    TileScratch::default().execute(op, mem)
}

mod kernel;

/// The multiple packed rows are padded to.
const LANES: usize = 16;

/// The packed operands of one tile. An [`AccelSim`] keeps one across
/// launches; [`execute_tile`] starts from an empty one.
#[derive(Debug, Clone, Default)]
struct TileScratch {
    /// Bᵀ as i16: column `j` of B is the `j`-th run of `k` rounded up to
    /// [`LANES`] elements.
    b_cols: Vec<i16>,
    /// The current pair of rows of A as i16, one padded column length
    /// each, zero from `k` on, so whatever a column of `b_cols` holds past
    /// `k` contributes nothing.
    a_rows: Vec<i16>,
    /// The current pair of rows of `A·B + D`, `n` elements each.
    acc_rows: Vec<i32>,
}

impl TileScratch {
    /// [`execute_tile`], packing into `self`.
    fn execute(&mut self, op: &TileOp, mem: &mut Memory) -> Result<u64, LaunchError> {
        if !row_sliceable(op, mem) {
            return execute_tile_elementwise(op, mem);
        }
        // the pack, the widening and the block compiled for AVX2 where the
        // AVX2 block pays at this depth
        kernel::widest(
            op.k as usize,
            #[inline(always)]
            || self.execute_packed(op, mem),
        )
    }

    /// [`Self::execute`] of a tile `row_sliceable` accepted.
    #[inline(always)]
    fn execute_packed(&mut self, op: &TileOp, mem: &mut Memory) -> Result<u64, LaunchError> {
        let relu = op.flags & flags::RELU != 0;
        let accumulate = op.flags & flags::ACCUMULATE != 0;
        // in range: `row_sliceable` placed every region inside `mem`
        let (n, k, stride_b) = (op.n as usize, op.k as usize, op.stride_b as usize);
        let b = mem.bytes(op.b_addr, (k - 1) * stride_b + n)?;
        let padded_k = self.pack_b(b, n, k, stride_b);
        self.a_rows.clear();
        self.a_rows.resize(2 * padded_k, 0);
        self.acc_rows.resize(2 * n, 0);
        // rows in pairs, a lone last row paired with itself
        for i in (0..op.m).step_by(2) {
            let pair = [i, (i + 1).min(op.m - 1)];
            for (wide, row) in self.a_rows.chunks_exact_mut(padded_k).zip(pair) {
                let a_row = mem.bytes(strided_addr(op.a_addr, row, op.stride_a, 0), k)?;
                for (wide, &a) in wide.iter_mut().zip(a_row) {
                    *wide = a as i8 as i16;
                }
            }
            let (a0, a1) = self.a_rows.split_at(padded_k);
            let (acc0, acc1) = self.acc_rows.split_at_mut(n);
            kernel::two_rows([a0, a1], &self.b_cols, [acc0, acc1]);
            // rows in order: a C stride may alias rows, and under
            // ACCUMULATE row `i + 1` then reads what row `i` wrote
            for (row, acc_row) in (i..=pair[1]).zip(self.acc_rows.chunks_exact_mut(n)) {
                if op.d_addr != 0 {
                    let d_row = mem.bytes(strided_addr(op.d_addr, row, op.stride_d, 0), 4 * n)?;
                    for (acc, w) in acc_row.iter_mut().zip(d_row.chunks_exact(4)) {
                        *acc = acc.wrapping_add(le_i32(w));
                    }
                }
                let c_row = mem.bytes_mut(strided_addr(op.c_addr, row, op.stride_c, 0), 4 * n)?;
                for (out, &sum) in c_row.chunks_exact_mut(4).zip(&*acc_row) {
                    let mut v = sum;
                    if accumulate {
                        v = v.wrapping_add(le_i32(out));
                    }
                    if relu {
                        v = v.max(0);
                    }
                    out.copy_from_slice(&v.to_le_bytes());
                }
            }
        }
        Ok(op.m * op.n * op.k)
    }

    /// Fills `b_cols` from the `k` rows of `n` bytes that start every
    /// `stride_b` bytes of `b`, and returns the length of a packed column.
    /// (Inlined into both bodies of `execute`, the AVX2 scope's and the
    /// plain one, which LLVM left calling it out of line.)
    #[inline(always)]
    fn pack_b(&mut self, b: &[u8], n: usize, k: usize, stride_b: usize) -> usize {
        let padded_k = k.next_multiple_of(LANES);
        self.b_cols.resize(n * padded_k, 0);
        kernel::pack_b(b, stride_b, k, &mut self.b_cols);
        padded_k
    }
}

/// [`execute_tile`] by its definition: one bounds-checked access per
/// operand, elements in `i`, `j`, `k` order, so a fault leaves exactly
/// the elements before it written and an output that overlaps an input
/// is read back as the hardware would. The oracle the packed path is
/// tested against, and the path [`execute_tile`] takes for transposed
/// operands, overlapping regions and tiles that fault.
///
/// # Errors
/// Fails when any element access is out of bounds, including an address
/// that does not fit in 64 bits.
pub fn execute_tile_elementwise(op: &TileOp, mem: &mut Memory) -> Result<u64, LaunchError> {
    let transpose_a = op.flags & flags::TRANSPOSE_A != 0;
    let transpose_b = op.flags & flags::TRANSPOSE_B != 0;
    let relu = op.flags & flags::RELU != 0;
    let accumulate = op.flags & flags::ACCUMULATE != 0;
    for i in 0..op.m {
        for j in 0..op.n {
            let mut acc: i32 = if op.d_addr != 0 {
                mem.read_i32(strided_addr(op.d_addr, i, op.stride_d, 4 * j))?
            } else {
                0
            };
            for k in 0..op.k {
                let a_addr = if transpose_a {
                    strided_addr(op.a_addr, k, op.stride_a, i)
                } else {
                    strided_addr(op.a_addr, i, op.stride_a, k)
                };
                let b_addr = if transpose_b {
                    strided_addr(op.b_addr, j, op.stride_b, k)
                } else {
                    strided_addr(op.b_addr, k, op.stride_b, j)
                };
                let a = mem.read_i8(a_addr)? as i32;
                let b = mem.read_i8(b_addr)? as i32;
                acc = acc.wrapping_add(a.wrapping_mul(b));
            }
            let c_addr = strided_addr(op.c_addr, i, op.stride_c, 4 * j);
            if accumulate {
                acc = acc.wrapping_add(mem.read_i32(c_addr)?);
            }
            if relu {
                acc = acc.max(0);
            }
            mem.write_i32(c_addr, acc)?;
        }
    }
    Ok(op.m * op.n * op.k)
}

/// `base + row * stride + offset`, saturating. Bases and strides are
/// program-written registers (a negative stride decodes to a huge `u64`):
/// an address that does not fit in 64 bits becomes `u64::MAX`, which no
/// memory holds, so the access faults instead of wrapping to a valid
/// address.
fn strided_addr(base: u64, row: u64, stride: u64, offset: u64) -> u64 {
    base.saturating_add(row.saturating_mul(stride))
        .saturating_add(offset)
}

/// Whether [`execute_tile`] may compute `op` a row at a time from packed
/// operands: no operand is transposed, all four regions lie inside `mem`
/// (so no access can fault part-way through a row), C overlaps none of A,
/// B and D (so no element is read after the tile wrote it), and B packed
/// has no more elements than `mem` has bytes (true of every B whose rows
/// do not alias; a `stride_b` below `n` must not buy an allocation the
/// memory it was read from could not hold).
fn row_sliceable(op: &TileOp, mem: &Memory) -> bool {
    // the byte extent of `rows` rows, `None` unless it lies inside `mem`
    let region = |base: u64, rows: u64, stride: u64, row_bytes: u64| {
        let len = rows
            .checked_sub(1)?
            .checked_mul(stride)?
            .checked_add(row_bytes)?;
        mem.bytes(base, usize::try_from(len).ok()?).ok()?;
        Some(base..base + len)
    };
    let clear_of_c = || {
        let c = region(op.c_addr, op.m, op.stride_c, op.n.checked_mul(4)?)?;
        let clear = |r: std::ops::Range<u64>| r.end <= c.start || c.end <= r.start;
        Some(
            clear(region(op.a_addr, op.m, op.stride_a, op.k)?)
                && clear(region(op.b_addr, op.k, op.stride_b, op.n)?)
                && (op.d_addr == 0 || clear(region(op.d_addr, op.m, op.stride_d, 4 * op.n)?))
                && op.n.checked_mul(op.k)? <= mem.capacity() as u64,
        )
    };
    op.flags & (flags::TRANSPOSE_A | flags::TRANSPOSE_B) == 0 && clear_of_c() == Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup_tile(mem: &mut Memory) -> TileOp {
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]] at i8; C at 0x100
        mem.write_i8_slice(0x00, &[1, 2, 3, 4]).unwrap();
        mem.write_i8_slice(0x10, &[5, 6, 7, 8]).unwrap();
        TileOp {
            a_addr: 0x00,
            b_addr: 0x10,
            c_addr: 0x100,
            d_addr: 0,
            m: 2,
            n: 2,
            k: 2,
            stride_a: 2,
            stride_b: 2,
            stride_c: 8,
            stride_d: 0,
            flags: 0,
        }
    }

    #[test]
    fn computes_matmul() {
        let mut mem = Memory::new(0x200);
        let op = setup_tile(&mut mem);
        let macs = execute_tile(&op, &mut mem).unwrap();
        assert_eq!(macs, 8);
        // C = [[19,22],[43,50]]
        assert_eq!(mem.read_i32_slice(0x100, 2).unwrap(), vec![19, 22]);
        assert_eq!(mem.read_i32_slice(0x108, 2).unwrap(), vec![43, 50]);
    }

    #[test]
    fn bias_and_accumulate() {
        let mut mem = Memory::new(0x300);
        let mut op = setup_tile(&mut mem);
        op.d_addr = 0x200;
        op.stride_d = 8;
        for j in 0..4 {
            mem.write_i32(0x200 + 4 * j, 100).unwrap();
        }
        execute_tile(&op, &mut mem).unwrap();
        assert_eq!(mem.read_i32(0x100).unwrap(), 119);
        // run again with ACCUMULATE: doubles on top of existing C
        op.flags = flags::ACCUMULATE;
        op.d_addr = 0;
        execute_tile(&op, &mut mem).unwrap();
        assert_eq!(mem.read_i32(0x100).unwrap(), 119 + 19);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut mem = Memory::new(0x200);
        let mut op = setup_tile(&mut mem);
        mem.write_i8_slice(0x00, &[-1, -2, -3, -4]).unwrap(); // overwrite A
        op.flags = flags::RELU;
        execute_tile(&op, &mut mem).unwrap();
        assert_eq!(mem.read_i32_slice(0x100, 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn transpose_a() {
        let mut mem = Memory::new(0x200);
        let mut op = setup_tile(&mut mem);
        op.flags = flags::TRANSPOSE_A; // A^T = [[1,3],[2,4]]
        execute_tile(&op, &mut mem).unwrap();
        // A^T · B = [[26,30],[38,44]]
        assert_eq!(mem.read_i32_slice(0x100, 2).unwrap(), vec![26, 30]);
        assert_eq!(mem.read_i32_slice(0x108, 2).unwrap(), vec![38, 44]);
    }

    #[test]
    fn sequential_writes_hit_active_registers() {
        let mut acc = AccelSim::new(AccelParams::gemmini_like());
        acc.write_reg(regmap::M, 4);
        assert_eq!(acc.reg(regmap::M), 4);
        assert_eq!(acc.active[regmap::M as usize], 4);
    }

    #[test]
    fn concurrent_writes_stage_until_launch() {
        let mut mem = Memory::new(0x400);
        mem.write_i8_slice(0x00, &[1; 16]).unwrap();
        mem.write_i8_slice(0x20, &[1; 16]).unwrap();
        let mut acc = AccelSim::new(AccelParams::opengemm_like());
        for (r, v) in [
            (regmap::A_ADDR, 0x00),
            (regmap::B_ADDR, 0x20),
            (regmap::C_ADDR, 0x100),
            (regmap::M, 4),
            (regmap::N, 4),
            (regmap::K, 4),
            (regmap::STRIDE_A, 4),
            (regmap::STRIDE_B, 4),
            (regmap::STRIDE_C, 16),
        ] {
            acc.write_reg(r, v);
        }
        // staged, not active
        assert_eq!(acc.active[regmap::M as usize], 0);
        let done = acc.launch(&mut mem, 100).unwrap();
        assert!(done > 100);
        assert_eq!(acc.active[regmap::M as usize], 4);
        assert_eq!(mem.read_i32(0x100).unwrap(), 4); // 1·1 × 4
        assert_eq!(acc.stats.launches, 1);
        assert_eq!(acc.stats.macs, 64);
    }

    #[test]
    fn launch_timing_includes_overhead() {
        let mut mem = Memory::new(0x400);
        mem.write_i8_slice(0x00, &[1; 16]).unwrap();
        mem.write_i8_slice(0x20, &[1; 16]).unwrap();
        let params = AccelParams::opengemm_like();
        let overhead = params.launch_overhead;
        let mut acc = AccelSim::new(params);
        for (r, v) in [
            (regmap::A_ADDR, 0x00),
            (regmap::B_ADDR, 0x20),
            (regmap::C_ADDR, 0x100),
            (regmap::M, 4),
            (regmap::N, 4),
            (regmap::K, 4),
            (regmap::STRIDE_A, 4),
            (regmap::STRIDE_B, 4),
            (regmap::STRIDE_C, 16),
        ] {
            acc.write_reg(r, v);
        }
        let done = acc.launch(&mut mem, 0).unwrap();
        // 64 MACs at 512/cycle → 1 compute cycle + overhead
        assert_eq!(done, 1 + overhead);
        assert!(acc.is_busy(done - 1));
        assert!(!acc.is_busy(done));
    }

    #[test]
    fn zero_dimensions_rejected() {
        let mut mem = Memory::new(0x100);
        let mut acc = AccelSim::new(AccelParams::opengemm_like());
        acc.write_reg(regmap::M, 0);
        let e = acc.launch(&mut mem, 0).unwrap_err();
        assert!(matches!(e, LaunchError::BadDimensions { .. }));
    }

    #[test]
    fn oob_matrix_access_rejected() {
        let mut mem = Memory::new(0x40);
        let mut acc = AccelSim::new(AccelParams::opengemm_like());
        for (r, v) in [
            (regmap::A_ADDR, 0x00),
            (regmap::B_ADDR, 0x20),
            (regmap::C_ADDR, 0x1000), // out of bounds
            (regmap::M, 2),
            (regmap::N, 2),
            (regmap::K, 2),
            (regmap::STRIDE_A, 2),
            (regmap::STRIDE_B, 2),
            (regmap::STRIDE_C, 8),
        ] {
            acc.write_reg(r, v);
        }
        assert!(matches!(acc.launch(&mut mem, 0), Err(LaunchError::Mem(_))));
    }

    #[test]
    fn negative_stride_is_a_fault_not_a_wrapped_address() {
        // registers are program-written i64s: row 1 of A sits at
        // 8 + 1 * (2^64 - 1), which used to panic on overflow in debug
        // builds and wrap to the valid address 7 in release builds
        let mut mem = Memory::new(0x200);
        let mut op = setup_tile(&mut mem);
        (op.a_addr, op.stride_a) = (0x08, -1i64 as u64);
        assert!(matches!(
            execute_tile(&op, &mut mem),
            Err(LaunchError::Mem(_))
        ));
    }

    #[test]
    fn row_slicing_is_chosen_from_the_tile_alone() {
        let mut mem = Memory::new(0x200);
        let op = setup_tile(&mut mem);
        assert!(row_sliceable(&op, &mem));
        let with = |edit: fn(&mut TileOp)| {
            let mut edited = op;
            edit(&mut edited);
            row_sliceable(&edited, &mem)
        };
        // strides are free to pad rows, and to alias them within a region
        assert!(with(|op| op.stride_b = 7));
        assert!(with(|op| op.stride_c = 0));
        assert!(with(|op| op.flags = flags::RELU | flags::ACCUMULATE));
        assert!(with(|op| (op.d_addr, op.stride_d) = (0x180, 8)));
        assert!(!with(|op| op.flags = flags::TRANSPOSE_A));
        assert!(!with(|op| op.flags = flags::TRANSPOSE_B));
        // C on top of A, B or D; any region past the end of memory
        assert!(!with(|op| op.c_addr = 0x02));
        assert!(!with(|op| op.c_addr = 0x0c));
        assert!(!with(|op| (op.d_addr, op.stride_d) = (0x108, 8)));
        assert!(!with(|op| op.a_addr = 0x1fe));
        assert!(!with(|op| op.c_addr = 0x1f4));
        assert!(!with(|op| op.stride_a = u64::MAX));
        assert!(!with(|op| op.m = 0));
    }

    #[test]
    fn reset_clock_rebases_drained_busy_window() {
        let mut mem = Memory::new(0x400);
        mem.write_i8_slice(0x00, &[1; 16]).unwrap();
        mem.write_i8_slice(0x20, &[1; 16]).unwrap();
        let mut acc = AccelSim::new(AccelParams::opengemm_like());
        for (r, v) in [
            (regmap::A_ADDR, 0x00),
            (regmap::B_ADDR, 0x20),
            (regmap::C_ADDR, 0x100),
            (regmap::M, 4),
            (regmap::N, 4),
            (regmap::K, 4),
            (regmap::STRIDE_A, 4),
            (regmap::STRIDE_B, 4),
            (regmap::STRIDE_C, 16),
        ] {
            acc.write_reg(r, v);
        }
        let done = acc.launch(&mut mem, 0).unwrap();
        assert!(acc.is_busy(0));
        acc.reset_clock(done);
        assert!(!acc.is_busy(0));
        // registers and stats survive the re-base
        assert_eq!(acc.reg(regmap::M), 4);
        assert_eq!(acc.stats.launches, 1);
    }

    #[test]
    #[should_panic(expected = "reset_clock while the accelerator is busy")]
    fn reset_clock_rejects_inflight_work() {
        let mut mem = Memory::new(0x400);
        mem.write_i8_slice(0x00, &[1; 16]).unwrap();
        mem.write_i8_slice(0x20, &[1; 16]).unwrap();
        let mut acc = AccelSim::new(AccelParams::opengemm_like());
        for (r, v) in [
            (regmap::A_ADDR, 0x00),
            (regmap::B_ADDR, 0x20),
            (regmap::C_ADDR, 0x100),
            (regmap::M, 4),
            (regmap::N, 4),
            (regmap::K, 4),
            (regmap::STRIDE_A, 4),
            (regmap::STRIDE_B, 4),
            (regmap::STRIDE_C, 16),
        ] {
            acc.write_reg(r, v);
        }
        let done = acc.launch(&mut mem, 0).unwrap();
        acc.reset_clock(done - 1);
    }

    #[test]
    fn peak_ops() {
        assert_eq!(AccelParams::gemmini_like().peak_ops_per_cycle(), 512);
        assert_eq!(AccelParams::opengemm_like().peak_ops_per_cycle(), 1024);
    }

    /// Memory for the kernel property: one slot per matrix, each wide
    /// enough for 40 rows at the largest stride, read either way round.
    const SLOTS: [u64; 4] = [0x0040, 0x1000, 0x2000, 0x4000];
    const CAPACITY: usize = 0x6000;

    fn noise(seed: u64) -> Memory {
        noise_of(CAPACITY, seed)
    }

    fn noise_of(capacity: usize, seed: u64) -> Memory {
        let mut mem = Memory::new(capacity);
        let mut state = seed | 1;
        for byte in mem.bytes_mut(0, capacity).unwrap() {
            // xorshift64: full-range operands, so sums wrap
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = (state >> 24) as u8;
        }
        mem
    }

    /// Runs `op` on `image` through the packed path and through the
    /// definition, and returns the memory both left.
    fn packed_as_defined(op: &TileOp, image: &Memory) -> Memory {
        assert!(row_sliceable(op, image), "{op:?}");
        let (mut fast, mut slow) = (image.clone(), image.clone());
        let got = execute_tile(op, &mut fast).unwrap();
        assert_eq!(got, execute_tile_elementwise(op, &mut slow).unwrap());
        assert!(fast == slow, "memory differs for {op:?}");
        fast
    }

    #[test]
    fn extreme_operands_at_every_depth() {
        // A at 0, B at 0x1000, D at 0x2000, C at 0x3000; m and n are
        // multiples of nothing, the depths straddle one lane group and many
        let (m, n) = (5u64, 7u64);
        for k in [1, 2, 7, 8, 9, 15, 16, 17, 511, 512, 513] {
            let op = TileOp {
                a_addr: 0,
                b_addr: 0x1000,
                c_addr: 0x3000,
                d_addr: 0x2000,
                m,
                n,
                k,
                stride_a: k,
                stride_b: n,
                stride_c: 4 * n,
                stride_d: 4 * n,
                flags: 0,
            };
            // (A, B) as (even, odd) elements
            for (a, b) in [
                ([-128, -128], [-128, -128]),
                ([127, 127], [127, 127]),
                ([-128, 127], [127, -128]),
                ([-128, 127], [-128, 127]),
            ] {
                let mut image = Memory::new(0x4000);
                for (base, len, pattern) in [(0, m * k, a), (0x1000, k * n, b)] {
                    for at in 0..len {
                        image.write_i8(base + at, pattern[at as usize % 2]).unwrap();
                    }
                }
                // the bias wraps the sum either way round
                for at in 0..m * n {
                    let d = if at % 2 == 0 { i32::MAX } else { i32::MIN };
                    image.write_i32(0x2000 + 4 * at, d).unwrap();
                }
                for flags in [0, flags::RELU, flags::ACCUMULATE] {
                    packed_as_defined(&TileOp { flags, ..op }, &image);
                }
                let unbiased = packed_as_defined(&TileOp { d_addr: 0, ..op }, &image);
                if (a, b, k) == ([-128, -128], [-128, -128], 2) {
                    // one pair of products, and it does not fit in 16 bits
                    assert_eq!(unbiased.read_i32(0x3000).unwrap(), 32768);
                }
            }
        }
    }

    #[test]
    fn accumulation_reads_what_an_aliased_row_wrote() {
        // nine rows of C on top of one another (stride 0) or one element
        // apart (stride 4): under ACCUMULATE every row reads its
        // predecessor's output, and nothing but row order makes that right
        let image = noise(0xacc);
        for stride_c in [0, 4] {
            for flags in [flags::ACCUMULATE, flags::ACCUMULATE | flags::RELU, 0] {
                packed_as_defined(
                    &TileOp {
                        a_addr: SLOTS[0],
                        b_addr: SLOTS[1],
                        c_addr: SLOTS[2],
                        d_addr: SLOTS[3],
                        m: 9,
                        n: 5,
                        k: 19,
                        stride_a: 19,
                        stride_b: 5,
                        stride_c,
                        stride_d: 20,
                        flags,
                    },
                    &image,
                );
            }
        }
    }

    #[test]
    fn the_papers_tiles() {
        // one OpenGeMM tile (8 x 512 x 8) and one Gemmini tile
        // (64 x 512 x 64) of the 512-cubed sweep point, strides included
        let image = noise_of(0x10_0000, 0x512);
        for tile in [8, 64] {
            packed_as_defined(
                &TileOp {
                    a_addr: 0x0_1000,
                    b_addr: 0x4_1000,
                    c_addr: 0x8_1000,
                    d_addr: 0,
                    m: tile,
                    n: tile,
                    k: 512,
                    stride_a: 512,
                    stride_b: 512,
                    stride_c: 4 * 512,
                    stride_d: 0,
                    flags: 0,
                },
                &image,
            );
        }
    }

    #[test]
    fn a_packed_b_never_outgrows_the_memory_it_came_from() {
        // `stride_b` 0 makes B one row read `k` times: the regions fit in
        // a few hundred bytes, B packed would be n * k elements
        let mut mem = Memory::new(0x400);
        let op = TileOp {
            a_addr: 0,
            b_addr: 0x100,
            c_addr: 0x200,
            d_addr: 0,
            m: 1,
            n: 16,
            k: 0x100,
            stride_a: 0,
            stride_b: 0,
            stride_c: 0,
            stride_d: 0,
            flags: 0,
        };
        assert!(!row_sliceable(&op, &mem));
        assert!(row_sliceable(&TileOp { k: 0x40, ..op }, &mem));
        assert_eq!(execute_tile(&op, &mut mem), Ok(16 * 0x100));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The register-blocked kernel is the portable `dot`, element by
        /// element: odd `m` pairs its last row with itself, every `n mod 4`
        /// leaves a column tail, `k` crosses eight- and sixteen-lane steps,
        /// operands are full-range i8, and one row of A and one column of B
        /// are all −128 (the 32 768 pair-sum corner).
        #[test]
        fn blocked_kernel_equals_the_portable_dot(
            dims in (1u64..10, 1u64..14, 1u64..71),
            corner in (any::<u64>(), any::<u64>()),
            seed in any::<u64>(),
        ) {
            let (m, n, k) = dims;
            let op = TileOp {
                a_addr: SLOTS[0],
                b_addr: SLOTS[1],
                c_addr: SLOTS[2],
                d_addr: 0,
                m,
                n,
                k,
                stride_a: k,
                stride_b: n,
                stride_c: 4 * n,
                stride_d: 0,
                flags: 0,
            };
            let mut image = noise(seed);
            let (row, col) = (corner.0 % m, corner.1 % n);
            for l in 0..k {
                image.write_i8(op.a_addr + row * k + l, -128).unwrap();
                image.write_i8(op.b_addr + l * n + col, -128).unwrap();
            }
            // `k` elements `step` bytes apart from `addr`, widened and
            // zero-padded to whole lane groups
            let widened = |addr: u64, step: u64| {
                let mut v = vec![0i16; (k as usize).next_multiple_of(LANES)];
                for (l, wide) in (0..k).zip(&mut v) {
                    *wide = image.read_i8(addr + l * step).unwrap().into();
                }
                v
            };
            let (mut mem, mut expected) = (image.clone(), image.clone());
            prop_assert_eq!(execute_tile(&op, &mut mem), Ok(m * n * k));
            for i in 0..m {
                let a_row = widened(op.a_addr + i * k, 1);
                for j in 0..n {
                    let want = kernel::dot(&a_row, &widened(op.b_addr + j, n));
                    let at = op.c_addr + 4 * (i * n + j);
                    prop_assert_eq!(mem.read_i32(at).unwrap(), want, "C[{}][{}] of {:?}", i, j, dims);
                    expected.write_i32(at, want).unwrap();
                }
            }
            // and nothing outside C moved
            prop_assert!(mem == expected, "{:?}", dims);
        }

        /// The pack is its definition over the whole packed buffer, lanes
        /// past `k` included: zero to three whole eight-column groups and
        /// every `n mod 8`, whole and partial sixteen-row groups, padded
        /// strides and the stride 0 that aliases every row, full-range
        /// bytes with a column of −128 and one of 127 (the sign
        /// extension), and B's last row ending on memory's last byte, so
        /// any over-read panics.
        #[test]
        fn packed_b_is_b_transposed_and_widened(
            dims in (1usize..25, 1usize..71),
            pad in 0usize..11,
            columns in (any::<usize>(), any::<usize>()),
            seed in any::<u64>(),
        ) {
            let (n, k) = dims;
            let stride_b = if pad == 10 { 0 } else { n + pad };
            let (b_addr, len) = (5, (k - 1) * stride_b + n);
            let mut mem = noise_of(b_addr + len, seed);
            for t in 0..k {
                let row = (b_addr + t * stride_b) as u64;
                mem.write_i8(row + (columns.0 % n) as u64, -128).unwrap();
                mem.write_i8(row + (columns.1 % n) as u64, 127).unwrap();
            }
            let b = mem.bytes(b_addr as u64, len).unwrap();
            let padded_k = k.next_multiple_of(LANES);
            // what an earlier launch left behind
            let stale = || (0..n * padded_k).map(|l| (l as i16).wrapping_mul(0x2F1));
            let mut scratch = TileScratch { b_cols: stale().collect(), ..TileScratch::default() };
            prop_assert_eq!(scratch.pack_b(b, n, k, stride_b), padded_k);
            let mut want: Vec<i16> = stale().collect();
            for (j, col) in want.chunks_exact_mut(padded_k).enumerate() {
                for (t, wide) in col[..k].iter_mut().enumerate() {
                    *wide = b[t * stride_b + j] as i8 as i16;
                }
            }
            prop_assert_eq!(scratch.b_cols, want, "n {} k {} stride {}", n, k, stride_b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The row-sliced kernel is the element-wise definition: same
        /// bytes, same outcome, for every flag combination, with and
        /// without bias, with padded and with aliasing strides, with C
        /// laid over each input, and with each region pushed off the end
        /// of memory in turn.
        #[test]
        fn kernel_equals_its_definition(
            dims in (1u64..41, 1u64..41, 1u64..41),
            pads in (-3i64..9, -3i64..9, -3i64..9, -3i64..9),
            bias in any::<bool>(),
            c_over in 0usize..6,
            seed in any::<u64>(),
        ) {
            let (m, n, k) = dims;
            let stride = |row_bytes: u64, pad: i64| row_bytes.saturating_add_signed(pad);
            let base = TileOp {
                a_addr: SLOTS[0],
                b_addr: SLOTS[1],
                // two cases in six lay C over A, B or D (when present)
                c_addr: match c_over {
                    0 => SLOTS[0] + seed % k,
                    1 => SLOTS[1] + seed % n,
                    2 if bias => SLOTS[3] + 4 * (seed % n),
                    _ => SLOTS[2],
                },
                d_addr: if bias { SLOTS[3] } else { 0 },
                m,
                n,
                k,
                stride_a: stride(k, pads.0),
                stride_b: stride(n, pads.1),
                stride_c: stride(4 * n, 4 * pads.2),
                stride_d: stride(4 * n, 4 * pads.3),
                flags: 0,
            };
            let image = noise(seed);
            let mut sliced_runs = 0;
            for flag_bits in 0..16 {
                // 0: as laid out; 1..: A, B, C, D (if any) straddling the end
                for pushed in 0..if bias { 5 } else { 4 } {
                    let mut op = TileOp { flags: flag_bits, ..base };
                    // nearer the end than any operand is long: its tail is out
                    let past_end = CAPACITY as u64 - seed % m.min(n).min(k);
                    match pushed {
                        1 => op.a_addr = past_end,
                        2 => op.b_addr = past_end,
                        3 => op.c_addr = past_end,
                        4 => op.d_addr = past_end,
                        _ => {}
                    }
                    sliced_runs += usize::from(row_sliceable(&op, &image));
                    let (mut fast, mut slow) = (image.clone(), image.clone());
                    let got = execute_tile(&op, &mut fast);
                    let want = execute_tile_elementwise(&op, &mut slow);
                    prop_assert!(fast == slow, "memory differs for {op:?}");
                    match (&got, &want) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                        (Err(LaunchError::Mem(_)), Err(LaunchError::Mem(_))) => {}
                        _ => panic!("{got:?} vs {want:?} for {op:?}"),
                    }
                    prop_assert_eq!(want.is_err(), pushed != 0, "{op:?}");
                }
            }
            // the untransposed, unpushed, non-overlapping runs take the fast path
            let overlapping = c_over < 2 || (c_over == 2 && bias);
            prop_assert_eq!(sliced_runs, if overlapping { 0 } else { 4 });
        }
    }
}
