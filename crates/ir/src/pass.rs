//! Pass infrastructure: the [`Pass`] trait and a [`PassManager`] that runs
//! pipelines, re-verifying the module after every pass that touched it — a
//! miniature of MLIR's pass manager, sufficient for the pipeline in Figure 8
//! of the paper.
//!
//! "Touched" is read off the module, not taken from the pass: the manager
//! compares [`Module::stamp`] around each pass and re-checks **iff the
//! stamp moved**. A pass that reports [`Changed::No`] after mutating is
//! still checked; a pass that changed nothing costs no check.

use crate::module::Module;
use crate::verifier::{Verifier, VerifyError};
use std::error::Error;
use std::fmt;

/// Whether a pass changed the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Changed {
    /// The pass modified the module.
    Yes,
    /// The pass left the module untouched.
    No,
}

impl Changed {
    /// Combines two change indicators.
    pub fn or(self, other: Changed) -> Changed {
        if self == Changed::Yes || other == Changed::Yes {
            Changed::Yes
        } else {
            Changed::No
        }
    }

    /// `true` if this is [`Changed::Yes`].
    pub fn changed(self) -> bool {
        self == Changed::Yes
    }
}

impl From<bool> for Changed {
    fn from(b: bool) -> Self {
        if b {
            Changed::Yes
        } else {
            Changed::No
        }
    }
}

/// A module-level transformation.
pub trait Pass {
    /// A short kebab-case identifier (e.g. `"accfg-dedup"`).
    fn name(&self) -> &'static str;

    /// Runs the pass, reporting whether the IR changed.
    fn run(&self, module: &mut Module) -> Changed;
}

/// A differential checker comparing a module snapshot against its rewrite.
///
/// Called by [`PassManager::validate_each`] with `(before, after, pass)`
/// after every pass that moved the module's stamp;
/// returning `Err` aborts the pipeline with a [`PipelineError`] attributing
/// the failure to `pass`. The IR crate defines only the hook; semantic
/// validators (e.g. translation validation of the reaching configuration
/// state) live in higher layers.
pub type PassValidator = Box<dyn Fn(&Module, &Module, &str) -> Result<(), String>>;

/// Failure while running a pipeline: a pass broke verification.
#[derive(Debug)]
pub struct PipelineError {
    /// The pass that produced invalid IR.
    pub pass: String,
    /// The underlying verifier failure.
    pub error: VerifyError,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pass `{}` produced invalid IR: {}",
            self.pass, self.error
        )
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

/// Statistics from one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// For each executed pass: its name and whether it changed the IR.
    pub passes: Vec<(&'static str, bool)>,
}

impl PipelineStats {
    /// `true` if any pass reported a change.
    pub fn any_changed(&self) -> bool {
        self.passes.iter().any(|(_, c)| *c)
    }
}

/// Runs an ordered list of passes over a module.
///
/// # Examples
///
/// ```
/// use accfg_ir::{Module, PassManager, FuncBuilder, Type};
/// use accfg_ir::passes::Canonicalize;
///
/// let mut m = Module::new();
/// let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
/// let one = b.const_int(1, Type::I64);
/// let two = b.const_int(2, Type::I64);
/// b.addi(one, two);
/// b.ret(vec![]);
///
/// let mut pm = PassManager::new();
/// pm.add(Canonicalize);
/// let stats = pm.run(&mut m)?;
/// assert!(stats.any_changed()); // 1 + 2 was folded
/// # Ok::<(), accfg_ir::PipelineError>(())
/// ```
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    validator: Option<PassValidator>,
}

impl PassManager {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pass to the pipeline.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        if self.passes.capacity() == 0 {
            // room for the longest preset pipeline, so that building one
            // does not regrow the list pass by pass
            self.passes.reserve(16);
        }
        self.passes.push(Box::new(pass));
        self
    }

    /// Installs a differential validator run, like the verifier, after
    /// every pass that touched the module: `validator(before, after,
    /// pass_name)` must accept the rewrite, `before` being a snapshot of the
    /// module as the pass found it. Translation validation of accfg
    /// configuration state plugs in here.
    pub fn validate_each(
        &mut self,
        validator: impl Fn(&Module, &Module, &str) -> Result<(), String> + 'static,
    ) -> &mut Self {
        self.validator = Some(Box::new(validator));
        self
    }

    /// The names of the scheduled passes, in order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// The scheduled passes, in order, for a caller that runs (or
    /// measures) them one at a time.
    pub fn passes(&self) -> impl Iterator<Item = &dyn Pass> {
        self.passes.iter().map(|p| &**p)
    }

    /// Runs every pass once, in order.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] if the input does not verify, or if
    /// verification (or the installed validator) fails after a pass that
    /// touched the module.
    pub fn run(&self, module: &mut Module) -> Result<PipelineStats, PipelineError> {
        let mut verifier = Verifier::default();
        verifier.verify(module).map_err(|error| PipelineError {
            pass: "<input>".into(),
            error,
        })?;
        // what the next pass to touch the module will be validated against
        let mut snapshot = self.validator.as_ref().map(|_| module.clone());
        let mut stats = PipelineStats {
            passes: Vec::with_capacity(self.passes.len()),
        };
        for pass in &self.passes {
            let stamp = module.stamp();
            let changed = pass.run(module);
            stats.passes.push((pass.name(), changed.changed()));
            if module.stamp() == stamp {
                // untouched, so still verified, and `validate(m, m)` holds
                continue;
            }
            verifier.verify(module).map_err(|error| PipelineError {
                pass: pass.name().to_string(),
                error,
            })?;
            if let (Some(validator), Some(before)) = (&self.validator, &mut snapshot) {
                validator(before, module, pass.name()).map_err(|message| PipelineError {
                    pass: pass.name().to_string(),
                    error: VerifyError {
                        op: None,
                        message: format!("translation validation failed: {message}"),
                    },
                })?;
                *before = module.clone();
            }
        }
        Ok(stats)
    }

    /// Runs the pipeline repeatedly until no pass reports a change (fixpoint)
    /// or `max_iterations` is reached.
    ///
    /// # Errors
    ///
    /// Propagates verification failures like [`PassManager::run`].
    pub fn run_to_fixpoint(
        &self,
        module: &mut Module,
        max_iterations: usize,
    ) -> Result<PipelineStats, PipelineError> {
        let mut all = PipelineStats::default();
        for _ in 0..max_iterations {
            let stats = self.run(module)?;
            let changed = stats.any_changed();
            all.passes.extend(stats.passes);
            if !changed {
                break;
            }
        }
        Ok(all)
    }
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.pass_names())
            .field("validate_each", &self.validator.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::types::Type;

    struct NoOpPass;
    impl Pass for NoOpPass {
        fn name(&self) -> &'static str {
            "no-op"
        }
        fn run(&self, _m: &mut Module) -> Changed {
            Changed::No
        }
    }

    struct BreakingPass;
    impl Pass for BreakingPass {
        fn name(&self) -> &'static str {
            "breaker"
        }
        fn run(&self, m: &mut Module) -> Changed {
            // erase the terminator, invalidating the IR
            let func = m.funcs()[0];
            let block = m.body_block(func, 0);
            let term = m.terminator(block);
            m.erase_op(term);
            Changed::Yes
        }
    }

    fn simple_module() -> Module {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        b.const_int(1, Type::I64);
        b.ret(vec![]);
        m
    }

    #[test]
    fn runs_passes_in_order() {
        let mut m = simple_module();
        let mut pm = PassManager::new();
        pm.add(NoOpPass).add(NoOpPass);
        let stats = pm.run(&mut m).unwrap();
        assert_eq!(stats.passes.len(), 2);
        assert!(!stats.any_changed());
    }

    #[test]
    fn detects_broken_pass() {
        let mut m = simple_module();
        let mut pm = PassManager::new();
        pm.add(BreakingPass);
        let e = pm.run(&mut m).unwrap_err();
        assert_eq!(e.pass, "breaker");
    }

    struct ConstFlipPass;
    impl Pass for ConstFlipPass {
        fn name(&self) -> &'static str {
            "const-flip"
        }
        fn run(&self, m: &mut Module) -> Changed {
            // rewrite every constant to 0 — valid IR, changed semantics
            let func = m.funcs()[0];
            for op in m.walk_collect(func) {
                if m.op(op).opcode == crate::op::Opcode::Constant {
                    m.set_attr(op, "value", crate::attrs::Attribute::Int(0));
                }
            }
            Changed::Yes
        }
    }

    #[test]
    fn validator_sees_before_and_after() {
        let mut m = simple_module();
        let mut pm = PassManager::new();
        pm.add(ConstFlipPass);
        pm.validate_each(|before, after, pass| {
            assert_eq!(pass, "const-flip");
            let count = |m: &Module| {
                let f = m.funcs()[0];
                m.walk_collect(f)
                    .iter()
                    .filter(|&&o| m.int_attr(o, "value") == Some(1))
                    .count()
            };
            if count(before) != count(after) {
                Err("constant 1 was rewritten".into())
            } else {
                Ok(())
            }
        });
        let e = pm.run(&mut m).unwrap_err();
        assert_eq!(e.pass, "const-flip");
        assert!(
            e.to_string().contains("translation validation failed"),
            "{e}"
        );
    }

    #[test]
    fn validator_accepts_clean_passes() {
        let mut m = simple_module();
        let mut pm = PassManager::new();
        pm.add(NoOpPass);
        pm.validate_each(|_, _, _| Ok(()));
        pm.run(&mut m).unwrap();
    }

    /// Erases the terminator like [`BreakingPass`], but claims it did
    /// nothing.
    struct LyingBreaker;
    impl Pass for LyingBreaker {
        fn name(&self) -> &'static str {
            "lying-breaker"
        }
        fn run(&self, m: &mut Module) -> Changed {
            BreakingPass.run(m);
            Changed::No
        }
    }

    /// Replaces the whole module with an invalid one it built elsewhere,
    /// through no mutator of the module it was given.
    struct SwapPass;
    impl Pass for SwapPass {
        fn name(&self) -> &'static str {
            "swap"
        }
        fn run(&self, m: &mut Module) -> Changed {
            let mut other = simple_module();
            BreakingPass.run(&mut other);
            *m = other;
            Changed::No
        }
    }

    #[test]
    fn a_pass_that_mutates_is_checked_whatever_it_reports() {
        for (pass, name) in [
            (Box::new(LyingBreaker) as Box<dyn Pass>, "lying-breaker"),
            (Box::new(SwapPass), "swap"),
        ] {
            let mut m = simple_module();
            let mut pm = PassManager::new();
            pm.passes.push(pass);
            let e = pm.run(&mut m).unwrap_err();
            assert_eq!(e.pass, name);
            assert!(e.error.message.contains("terminator"), "{e}");
        }
    }

    /// Sets every constant to `self.0`.
    struct SetConst(i64);
    impl Pass for SetConst {
        fn name(&self) -> &'static str {
            "set-const"
        }
        fn run(&self, m: &mut Module) -> Changed {
            let func = m.funcs()[0];
            for op in m.walk_collect(func) {
                if m.op(op).opcode == crate::op::Opcode::Constant {
                    m.set_attr(op, "value", crate::attrs::Attribute::Int(self.0));
                }
            }
            Changed::Yes
        }
    }

    #[test]
    fn only_passes_that_touch_the_module_are_checked() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let constant = |m: &Module| {
            let consts = crate::analysis::ops_with_opcode(m, m.funcs()[0], crate::Opcode::Constant);
            m.int_attr(consts[0], "value").unwrap()
        };
        // the validator runs under the same condition as the verifier, so
        // counting its calls counts the verifier's
        let seen = Rc::new(RefCell::new(Vec::new()));
        let log = seen.clone();
        let mut pm = PassManager::new();
        pm.add(NoOpPass)
            .add(SetConst(5))
            .add(NoOpPass)
            .add(NoOpPass)
            .add(SetConst(7))
            .add(NoOpPass);
        pm.validate_each(move |before, after, pass| {
            log.borrow_mut()
                .push((pass.to_string(), constant(before), constant(after)));
            Ok(())
        });
        let mut m = simple_module();
        let stats = pm.run(&mut m).unwrap();
        assert_eq!(stats.passes.len(), 6);
        // two checks for six passes, each against the module as its pass
        // found it: the snapshot follows the module past a checked pass
        assert_eq!(
            *seen.borrow(),
            [
                ("set-const".to_string(), 1, 5),
                ("set-const".to_string(), 5, 7)
            ]
        );
    }

    #[test]
    fn fixpoint_stops_when_stable() {
        let mut m = simple_module();
        let mut pm = PassManager::new();
        pm.add(NoOpPass);
        let stats = pm.run_to_fixpoint(&mut m, 10).unwrap();
        assert_eq!(stats.passes.len(), 1); // one iteration, no change, stop
    }

    #[test]
    fn changed_combinators() {
        assert!(Changed::Yes.or(Changed::No).changed());
        assert!(!Changed::No.or(Changed::No).changed());
        assert!(Changed::from(true).changed());
    }
}
