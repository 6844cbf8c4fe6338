//! # accfg-sim: a cycle-level host + accelerator co-simulator
//!
//! The execution substrate for the reproduction of *"The Configuration
//! Wall"* (ASPLOS 2026). The paper runs its binaries on the spike ISA
//! simulator (Gemmini platform) and a Verilated RTL model (OpenGeMM
//! platform); this crate replaces both with one parameterized simulator
//! that reproduces the quantities the paper measures:
//!
//! - per-class host instruction and cycle counts ([`Counters`]), split into
//!   configuration vs. calculation, feeding the roofline model;
//! - configuration bytes transferred, for `I_OC` and `BW_config`;
//! - the timing structure of sequential vs. concurrent configuration
//!   ([`ConfigScheme`]): sequential hosts stall on any config access while
//!   the accelerator is busy, concurrent hosts stage writes and overlap;
//! - *functional* execution: the accelerator actually computes its tile
//!   matmuls on a shared byte-addressable [`Memory`], so compiled programs
//!   are checked end-to-end against reference results.
//!
//! ```
//! use accfg_sim::{Machine, HostModel, AccelSim, AccelParams, regmap};
//! use accfg_sim::isa::ProgramBuilder;
//!
//! let mut m = Machine::new(
//!     HostModel::snitch_like(),
//!     AccelSim::new(AccelParams::opengemm_like()),
//!     0x1000,
//! );
//! # for i in 0..4 { m.mem.write_i8(0x100 + i, 1)?; m.mem.write_i8(0x200 + i, 1)?; }
//! let mut p = ProgramBuilder::new();
//! let r = p.reg();
//! for (csr, v) in [(regmap::A_ADDR, 0x100), (regmap::B_ADDR, 0x200),
//!                  (regmap::C_ADDR, 0x300), (regmap::M, 2), (regmap::N, 2),
//!                  (regmap::K, 2), (regmap::STRIDE_A, 2), (regmap::STRIDE_B, 2),
//!                  (regmap::STRIDE_C, 8)] {
//!     p.li(r, v);
//!     p.csr_write(csr, r);
//! }
//! p.launch();
//! p.await_idle();
//! p.halt();
//! let counters = m.run(&p.finish(), 1_000).unwrap();
//! assert_eq!(counters.launches, 1);
//! assert_eq!(m.mem.read_i32(0x300)?, 2); // 1·1 + 1·1
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod accel;
pub mod host;
pub mod isa;
pub mod machine;
pub mod memory;
pub mod timeline;
pub mod timing;

pub use accel::{
    execute_tile, execute_tile_elementwise, flags, regmap, AccelParams, AccelSim, AccelStats,
    ConfigScheme, LaunchError, TileOp,
};
pub use host::HostModel;
pub use isa::{AluOp, BranchCond, Inst, Label, Program, ProgramBuilder, Reg, Width};
pub use machine::{Counters, Machine, SimError};
pub use memory::{MemError, Memory};
pub use timeline::{Activity, Annotation, AnnotationKind, Span, Timeline};
pub use timing::{ContentionParams, DvfsParams, DvfsState, FreqState, TimingModel, FREQ_STATES};
