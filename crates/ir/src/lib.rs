//! # accfg-ir: an MLIR-style SSA IR substrate
//!
//! This crate is the compiler-infrastructure substrate for the reproduction
//! of *"The Configuration Wall: Characterization and Elimination of
//! Accelerator Configuration Overhead"* (ASPLOS 2026). The paper implements
//! its `accfg` abstraction on top of MLIR/xDSL; this crate rebuilds the
//! slice of that infrastructure the paper's passes rely on:
//!
//! - an arena-based, region-structured SSA [`Module`] ([`module`]) that
//!   maintains what MLIR's context and use-lists would: interned names
//!   ([`Symbol`]), a use-def index, and a mutation stamp
//! - the `func`, `arith`, `scf`, `accfg`, and `target` dialects ([`op`])
//! - a closure-based [`FuncBuilder`] ([`builder`])
//! - a textual printer/parser pair for readable round-trippable IR
//!   ([`printer`], [`parser`])
//! - a structural [`verifier`]
//! - a [`PassManager`] and the generic optimizations the paper leans on:
//!   constant folding + canonicalization, common-subexpression elimination,
//!   loop-invariant code motion, and dead-code elimination ([`passes`])
//!
//! # Example
//!
//! Build, print, and optimize the IR of Figure 6 of the paper:
//!
//! ```
//! use accfg_ir::{FuncBuilder, Module, PassManager, Type};
//! use accfg_ir::passes::{Canonicalize, Cse};
//!
//! let mut m = Module::new();
//! let (mut b, args) = FuncBuilder::new_func(&mut m, "matmul", vec![Type::I64; 3]);
//! let x = b.const_index(64);
//! let state = b.setup("gemm2d", &[("x", x), ("A", args[0]), ("B", args[1])]);
//! let token = b.launch("gemm2d", state);
//! b.await_token("gemm2d", token);
//! b.ret(vec![]);
//!
//! let mut pm = PassManager::new();
//! pm.add(Canonicalize).add(Cse);
//! pm.run(&mut m)?;
//! let text = accfg_ir::print_module(&m);
//! assert!(text.contains("accfg.launch"));
//! # Ok::<(), accfg_ir::PipelineError>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod attrs;
pub mod builder;
pub mod module;
pub mod op;
pub mod parser;
pub mod pass;
pub mod passes;
pub mod printer;
pub mod symbol;
pub mod types;
mod uses;
mod value_list;
mod value_map;

pub use attrs::{AttrMap, Attribute, Effects};
pub use builder::FuncBuilder;
pub use module::{BlockId, Module, OpId, RegionId, Use, ValueData, ValueDef, ValueId};
pub use op::{CmpPredicate, OpData, Opcode};
pub use parser::{parse_module, ParseError};
pub use pass::{Changed, Pass, PassManager, PassValidator, PipelineError, PipelineStats};
pub use printer::{print_func, print_module};
pub use symbol::{Names, Symbol};
pub use types::Type;
pub use value_list::ValueList;
pub use value_map::ValueMap;
pub use verifier::{verify, Verifier, VerifyError};

pub mod verifier;
