//! `validate_translation(m, m)` holds on every module this repository
//! compiles, at every stage of every pipeline.
//!
//! The pass manager re-validates only after a pass that touched the module
//! (its mutation stamp moved). Skipping the validator on an untouched
//! module is sound exactly if validating a module against itself always
//! succeeds — which this checks on the `accfg_lint` corpus: the raw
//! modules, and every intermediate module each [`OptLevel`]'s pipeline
//! passes through.

use accfg::{pipeline, OptLevel};
use accfg_analyze::validate_translation;
use accfg_bench::corpus::lint_corpus;

#[test]
fn every_corpus_module_validates_against_itself_at_every_pipeline_stage() {
    let mut checked = 0;
    for (name, desc, module) in lint_corpus() {
        validate_translation(&module, &module)
            .unwrap_or_else(|e| panic!("{name} [raw] does not validate against itself: {e}"));
        checked += 1;
        for level in OptLevel::ALL_LEVELS {
            let mut opt = module.clone();
            let mut pm = pipeline(level, desc.overlap_filter());
            // called with each state a pass leaves behind; the states in
            // between two calls are the same module, untouched
            pm.validate_each(|_, after, _| {
                validate_translation(after, after).map_err(|e| e.to_string())
            });
            pm.run(&mut opt).unwrap_or_else(|e| {
                panic!("{name} [{level:?}] does not validate against itself: {e}")
            });
            checked += 1;
        }
    }
    // the corpus is the repository's, not a handful of fixtures
    assert!(checked >= 5 * 20, "only {checked} pipelines checked");
}
