//! Translation validation of configuration state across a rewrite.
//!
//! Given a module snapshot and its post-pass rewrite, assert that every
//! launch still observes an equivalent configuration register file. The
//! concrete observable of the accfg dialect is the `LaunchRecord` stream
//! of `accfg::interpret`; this validator proves the abstract version of
//! that equivalence for *all* inputs at once, per rewrite, instead of one
//! input per interpreter run.
//!
//! SSA value ids are meaningless across a rewrite, so `Known(v)` facts are
//! compared through [`crate::reach::resolve`]: constants by their value,
//! function arguments by their index. A fact that resolves to a *definite*
//! symbol on the before side must be preserved exactly; a `Known` of a
//! computed (opaque) value only requires the field to remain written —
//! passes legitimately restructure computation (LICM, loop rotation) in
//! ways that change which SSA value carries it, and rotation's prologue
//! duplication can demote an opaque `Known` to `Divergent` without
//! changing any concrete trace.
//!
//! What the validator rejects, per launch: count or accelerator-sequence
//! changes, a definite `Known` degraded (different constant, `Divergent`,
//! `Clobbered`, or dropped), any written field dropped entirely, and a new
//! definite `Known` appearing on a field the original never wrote.

use crate::reach::{analyze_module, describe, resolve, AbsVal, FuncConfig, Resolved};
use accfg_ir::Module;
use std::fmt;

/// One per-launch field disagreement, naming everything needed to debug
/// the offending pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchDiff {
    /// Enclosing function.
    pub func: String,
    /// Launch index within the function (program pre-order).
    pub launch: usize,
    /// Accelerator launched.
    pub accelerator: String,
    /// Disagreeing field.
    pub field: String,
    /// Abstract value the snapshot guaranteed.
    pub expected: String,
    /// Abstract value after the rewrite.
    pub actual: String,
}

impl fmt::Display for LaunchDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{} launch #{} accelerator \"{}\" field \"{}\": expected {}, got {}",
            self.func, self.launch, self.accelerator, self.field, self.expected, self.actual
        )
    }
}

/// Why translation validation rejected a rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A function present in the snapshot is gone.
    FuncMissing(String),
    /// The number of launch sites changed.
    LaunchCountMismatch {
        /// Function name.
        func: String,
        /// Launches in the snapshot.
        before: usize,
        /// Launches after the rewrite.
        after: usize,
    },
    /// The launch sequence targets a different accelerator.
    AcceleratorMismatch {
        /// Function name.
        func: String,
        /// Launch index.
        launch: usize,
        /// Accelerator in the snapshot.
        before: String,
        /// Accelerator after the rewrite.
        after: String,
    },
    /// Per-launch reaching-state disagreements.
    FieldDiffs(Vec<LaunchDiff>),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::FuncMissing(name) => {
                write!(f, "function @{name} disappeared across the rewrite")
            }
            ValidationError::LaunchCountMismatch {
                func,
                before,
                after,
            } => write!(f, "@{func}: launch count changed from {before} to {after}"),
            ValidationError::AcceleratorMismatch {
                func,
                launch,
                before,
                after,
            } => write!(
                f,
                "@{func} launch #{launch}: accelerator changed from \"{before}\" to \"{after}\""
            ),
            ValidationError::FieldDiffs(diffs) => {
                write!(f, "{} reaching-state diff(s):", diffs.len())?;
                for d in diffs {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// `true` if the resolution pins down one concrete symbol.
fn definite(r: Resolved) -> bool {
    !matches!(r, Resolved::Opaque)
}

fn check_func(
    before_m: &Module,
    after_m: &Module,
    before: &FuncConfig,
    after: &FuncConfig,
    diffs: &mut Vec<LaunchDiff>,
) -> Result<(), ValidationError> {
    if before.launches.len() != after.launches.len() {
        return Err(ValidationError::LaunchCountMismatch {
            func: before.func.clone(),
            before: before.launches.len(),
            after: after.launches.len(),
        });
    }
    for (i, (lb, la)) in before.launches.iter().zip(&after.launches).enumerate() {
        // symbols mean nothing across two modules: everything below that
        // crosses from one side to the other goes through the name
        let accelerator = before_m.name(lb.accelerator);
        if accelerator != after_m.name(la.accelerator) {
            return Err(ValidationError::AcceleratorMismatch {
                func: before.func.clone(),
                launch: i,
                before: accelerator.to_string(),
                after: after_m.name(la.accelerator).to_string(),
            });
        }
        let mut diff = |field: &str, expected: String, actual: String| {
            diffs.push(LaunchDiff {
                func: before.func.clone(),
                launch: i,
                accelerator: accelerator.to_string(),
                field: field.to_string(),
                expected,
                actual,
            });
        };
        for (field, bval) in lb.named(before_m) {
            let aval = la.get(after_m, field);
            match bval {
                AbsVal::Known(v) if definite(resolve(before_m, v)) => {
                    // a definite guarantee must survive exactly
                    let ok = matches!(
                        aval,
                        Some(AbsVal::Known(w)) if resolve(after_m, w) == resolve(before_m, v)
                    );
                    if !ok {
                        diff(
                            field,
                            describe(before_m, bval),
                            aval.map_or("<missing>".into(), |a| describe(after_m, a)),
                        );
                    }
                }
                AbsVal::Known(_) | AbsVal::Divergent => {
                    // the field was written; it must stay written
                    if aval.is_none() {
                        diff(field, describe(before_m, bval), "<missing>".into());
                    }
                }
                AbsVal::Clobbered => {} // no guarantee to preserve
            }
        }
        for (field, aval) in la.named(after_m) {
            if lb.get(before_m, field).is_some() {
                continue;
            }
            // a new definite value on a never-written field changes what
            // the launch observes on targets with persistent registers
            if let AbsVal::Known(w) = aval {
                if definite(resolve(after_m, w)) {
                    diff(field, "<unwritten>".into(), describe(after_m, aval));
                }
            }
        }
    }
    Ok(())
}

/// Validates that `after` preserves the reaching configuration state of
/// `before` at every launch, for every function.
///
/// # Errors
///
/// Returns the first structural mismatch, or the full list of per-launch
/// field diffs.
pub fn validate_translation(before: &Module, after: &Module) -> Result<(), ValidationError> {
    let before_cfgs = analyze_module(before);
    let after_cfgs = analyze_module(after);
    let mut diffs = Vec::new();
    for bc in &before_cfgs {
        let Some(ac) = after_cfgs.iter().find(|c| c.func == bc.func) else {
            return Err(ValidationError::FuncMissing(bc.func.clone()));
        };
        check_func(before, after, bc, ac, &mut diffs)?;
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(ValidationError::FieldDiffs(diffs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accfg_ir::{FuncBuilder, Module, Type};

    fn launch_module(fields: &[(&str, i64)]) -> Module {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let consts: Vec<_> = fields
            .iter()
            .map(|(n, v)| (*n, b.const_int(*v, Type::I64)))
            .collect();
        let s = b.setup("acc", &consts);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        m
    }

    #[test]
    fn identical_modules_validate() {
        let m = launch_module(&[("x", 3), ("y", 4)]);
        validate_translation(&m, &m.clone()).unwrap();
    }

    #[test]
    fn changed_constant_is_caught_with_full_diff() {
        let before = launch_module(&[("x", 3)]);
        let after = launch_module(&[("x", 4)]);
        let err = validate_translation(&before, &after).unwrap_err();
        let ValidationError::FieldDiffs(diffs) = &err else {
            panic!("expected field diffs, got {err}");
        };
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].accelerator, "acc");
        assert_eq!(diffs[0].field, "x");
        assert_eq!(diffs[0].expected, "Known(const 3)");
        assert_eq!(diffs[0].actual, "Known(const 4)");
        let msg = err.to_string();
        assert!(msg.contains("\"acc\""), "{msg}");
        assert!(msg.contains("\"x\""), "{msg}");
    }

    #[test]
    fn dropped_field_is_caught() {
        let before = launch_module(&[("x", 3), ("y", 4)]);
        let after = launch_module(&[("x", 3)]);
        let err = validate_translation(&before, &after).unwrap_err();
        let ValidationError::FieldDiffs(diffs) = &err else {
            panic!("expected field diffs, got {err}");
        };
        assert_eq!(diffs[0].field, "y");
        assert_eq!(diffs[0].actual, "<missing>");
    }

    #[test]
    fn dropped_launch_is_caught() {
        let before = launch_module(&[("x", 3)]);
        let mut after = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut after, "f", vec![]);
        b.ret(vec![]);
        let err = validate_translation(&before, &after).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::LaunchCountMismatch {
                before: 1,
                after: 0,
                ..
            }
        ));
    }

    #[test]
    fn missing_func_is_caught() {
        let before = launch_module(&[("x", 3)]);
        let after = Module::new();
        let err = validate_translation(&before, &after).unwrap_err();
        assert!(matches!(err, ValidationError::FuncMissing(ref f) if f == "f"));
    }

    #[test]
    fn opaque_known_may_become_divergent() {
        // computed value moved across a join: Known(<computed>) before,
        // Divergent after — rotation does this; it must validate clean
        let mut before = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut before, "f", vec![Type::I64]);
        let sum = b.addi(args[0], args[0]);
        let s = b.setup("acc", &[("x", sum)]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);

        let mut after = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut after, "f", vec![Type::I1, Type::I64]);
        let sum = b.addi(args[1], args[1]);
        let other = b.addi(sum, args[1]);
        b.build_if(
            args[0],
            |b| {
                b.setup("acc", &[("x", sum)]);
                vec![]
            },
            |b| {
                b.setup("acc", &[("x", other)]);
                vec![]
            },
        );
        let s = b.setup("acc", &[]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);

        validate_translation(&before, &after).unwrap();
    }

    #[test]
    fn definite_known_may_not_become_divergent() {
        let before = launch_module(&[("x", 3)]);
        let mut after = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut after, "f", vec![Type::I1]);
        let three = b.const_int(3, Type::I64);
        let four = b.const_int(4, Type::I64);
        b.build_if(
            args[0],
            |b| {
                b.setup("acc", &[("x", three)]);
                vec![]
            },
            |b| {
                b.setup("acc", &[("x", four)]);
                vec![]
            },
        );
        let s = b.setup("acc", &[]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        let err = validate_translation(&before, &after).unwrap_err();
        let ValidationError::FieldDiffs(diffs) = &err else {
            panic!("expected field diffs, got {err}");
        };
        assert_eq!(diffs[0].expected, "Known(const 3)");
        assert_eq!(diffs[0].actual, "Divergent");
    }
}
