//! Runtime error types.

use accfg::interp::InterpError;
use accfg_store::StoreError;
use accfg_targets::LowerError;
use std::error::Error;
use std::fmt;

/// Why serving (or compiling a served module) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A request names an accelerator the pool has no descriptor for.
    UnknownAccelerator(String),
    /// The optimization pipeline failed on a generated module.
    Pipeline(String),
    /// Target lowering failed.
    Lower(LowerError),
    /// The accfg interpreter failed while extracting the launch plan.
    Interp(InterpError),
    /// The launch trace references a field the descriptor lacks.
    UnknownField {
        /// The accelerator.
        accelerator: String,
        /// The missing field.
        field: String,
    },
    /// A descriptor maps a field to a configuration register the simulated
    /// accelerator does not have (`reg >= regmap::COUNT`): a plan naming
    /// it could be neither diffed nor executed.
    RegisterOutOfRange {
        /// The accelerator.
        accelerator: String,
        /// The offending field.
        field: String,
        /// The register index its descriptor entry names.
        reg: u16,
    },
    /// A descriptor maps a field into the RoCC launch-semantic register
    /// pair, which the dispatcher reserves for the launch command.
    LaunchPairField {
        /// The accelerator.
        accelerator: String,
        /// The offending field.
        field: String,
    },
    /// The pool was configured without workers.
    EmptyPool,
    /// A heterogeneous group mixes platform variants whose configuration
    /// interfaces differ: a plan compiled for the group's base platform
    /// could not be replayed on the offending member.
    IncompatiblePool {
        /// The routing family (group) being built.
        family: String,
        /// The member descriptor that does not match the group's base.
        member: String,
    },
    /// The persistent warm-start store failed (I/O, bad magic, or a live
    /// record this build cannot decode). A *corrupt tail* is not an error:
    /// replay drops it with a warning and the serve proceeds.
    Store(StoreError),
    /// Two workers share a descriptor name but differ in provisioning.
    /// The scheduler identifies platform variants (cost anchors, EWMA
    /// refinement state) by name, so differently provisioned descriptors
    /// must carry distinct names.
    AmbiguousVariantName {
        /// The shared descriptor name.
        name: String,
    },
    /// A pool group's boost power cap is out of range: a cap of 0 would
    /// forbid boosting entirely (omit the cap or don't use reference
    /// timing instead) and a cap above the group's worker count caps
    /// nothing. Rejected at pool construction rather than silently
    /// clamped.
    InvalidPowerCap {
        /// The routing family (group) carrying the cap.
        family: String,
        /// The configured cap.
        cap: usize,
        /// The group's worker count.
        workers: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownAccelerator(name) => {
                write!(f, "no descriptor in the pool for accelerator `{name}`")
            }
            ServeError::Pipeline(msg) => write!(f, "pass pipeline failed: {msg}"),
            ServeError::Lower(e) => write!(f, "lowering failed: {e}"),
            ServeError::Interp(e) => write!(f, "plan extraction failed: {e}"),
            ServeError::UnknownField { accelerator, field } => {
                write!(f, "accelerator `{accelerator}` has no field `{field}`")
            }
            ServeError::RegisterOutOfRange {
                accelerator,
                field,
                reg,
            } => write!(
                f,
                "field `{field}` of `{accelerator}` maps to configuration register {reg}, \
                 past the {}-register file",
                crate::plan::RegMap::SLOTS
            ),
            ServeError::LaunchPairField { accelerator, field } => write!(
                f,
                "field `{field}` of `{accelerator}` maps into the launch-semantic register pair"
            ),
            ServeError::EmptyPool => write!(f, "pool has no workers"),
            ServeError::IncompatiblePool { family, member } => write!(
                f,
                "worker platform `{member}` is not plan-compatible with its group's base `{family}`"
            ),
            ServeError::Store(e) => write!(f, "warm-start store failed: {e}"),
            ServeError::AmbiguousVariantName { name } => write!(
                f,
                "two differently provisioned worker platforms share the name `{name}`; \
                 variants must carry distinct names"
            ),
            ServeError::InvalidPowerCap {
                family,
                cap,
                workers,
            } => write!(
                f,
                "power cap {cap} for group `{family}` is out of range 1..={workers} \
                 (omit the cap to leave boosting unbounded)"
            ),
        }
    }
}

impl Error for ServeError {}

/// A field past the register file is the one descriptor fault both the
/// lowering and the plan catch; either way the build reports it alike.
impl From<LowerError> for ServeError {
    fn from(e: LowerError) -> Self {
        match e {
            LowerError::RegisterOutOfRange {
                accelerator,
                field,
                reg,
            } => ServeError::RegisterOutOfRange {
                accelerator,
                field,
                reg,
            },
            e => ServeError::Lower(e),
        }
    }
}

impl From<InterpError> for ServeError {
    fn from(e: InterpError) -> Self {
        ServeError::Interp(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}
