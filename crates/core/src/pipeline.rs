//! Preset pass pipelines mirroring the compilation flow of Figure 8.
//!
//! Step 1 (frontend emission of setup/launch/await clusters) is done by the
//! workload generators; step 5 (target lowering) by `accfg-targets`. The
//! pipelines here are steps 2–4 plus the generic cleanups the paper gets
//! "for free" from MLIR.

use crate::dedup::{Deduplicate, MergeSetups, RemoveEmptySetups};
use crate::hoist::{HoistInvariantSetupFields, HoistSetupIntoBranch};
use crate::overlap::{AccelFilter, OverlapInBlock, RotateLoops};
use crate::trace_states::TraceStates;
use accfg_ir::passes::{Canonicalize, Cse, Dce, Licm};
use accfg_ir::PassManager;

/// Which accfg optimizations to apply — the four configurations evaluated in
/// Figure 12 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// Generic cleanups only; no configuration-aware optimization.
    Base,
    /// Configuration deduplication (Section 5.4) only.
    Dedup,
    /// Configuration–computation overlap (Section 5.5) only.
    Overlap,
    /// Deduplication followed by overlap — the paper's "All".
    #[default]
    All,
}

impl OptLevel {
    /// All four levels, in Figure 12 order.
    pub const ALL_LEVELS: [OptLevel; 4] = [
        OptLevel::Base,
        OptLevel::Dedup,
        OptLevel::Overlap,
        OptLevel::All,
    ];

    /// Short lowercase label, as used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Base => "base",
            OptLevel::Dedup => "dedup",
            OptLevel::Overlap => "overlap",
            OptLevel::All => "all",
        }
    }

    /// `true` if this level includes deduplication.
    pub fn includes_dedup(self) -> bool {
        matches!(self, OptLevel::Dedup | OptLevel::All)
    }

    /// `true` if this level includes overlap.
    pub fn includes_overlap(self) -> bool {
        matches!(self, OptLevel::Overlap | OptLevel::All)
    }
}

/// Builds the pass pipeline for `level`.
///
/// `overlap_filter` restricts the overlap rewrites to accelerators whose
/// hardware supports concurrent configuration; pass [`AccelFilter::All`]
/// when every target does.
///
/// # Examples
///
/// ```
/// use accfg::pipeline::{pipeline, OptLevel};
/// use accfg::AccelFilter;
///
/// let pm = pipeline(OptLevel::All, AccelFilter::All);
/// assert!(pm.pass_names().contains(&"accfg-dedup"));
/// assert!(pm.pass_names().contains(&"accfg-rotate-loops"));
/// ```
pub fn pipeline(level: OptLevel, overlap_filter: AccelFilter) -> PassManager {
    let mut pm = PassManager::new();
    // generic cleanups first: fold the bit-packing arithmetic, merge equal
    // address expressions (the dedup proxy needs CSE), hoist invariants
    pm.add(Canonicalize).add(Cse).add(Licm);
    // step 2: connect configuration state through control flow
    pm.add(TraceStates);
    if level.includes_dedup() {
        // step 3 with its enabling rewrites and cleanups
        pm.add(HoistSetupIntoBranch)
            .add(HoistInvariantSetupFields)
            .add(Deduplicate)
            .add(RemoveEmptySetups)
            .add(MergeSetups);
    }
    if level.includes_overlap() {
        // step 4 (concurrent-configuration targets only)
        pm.add(RotateLoops {
            filter: overlap_filter.clone(),
        })
        .add(OverlapInBlock {
            filter: overlap_filter,
            partial: false,
        });
    }
    pm.add(Canonicalize).add(Cse).add(Dce);
    pm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::interpret;
    use accfg_ir::{verify, FuncBuilder, Module, Type};

    /// The motivating workload: a tiled loop with redundant configuration.
    fn workload() -> Module {
        let mut m = Module::new();
        let (mut b, args) =
            FuncBuilder::new_func(&mut m, "tiles", vec![Type::I64, Type::I64, Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(8);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            let sixty_four = b.const_index(64);
            let off = b.muli(iv, sixty_four);
            let a = b.addi(args[0], off);
            let c = b.addi(args[2], off);
            let s = b.setup(
                "gemm",
                &[("A", a), ("B", args[1]), ("C", c), ("size", sixty_four)],
            );
            let t = b.launch("gemm", s);
            b.await_token("gemm", t);
            vec![]
        });
        b.ret(vec![]);
        m
    }

    #[test]
    fn all_levels_preserve_semantics() {
        let reference =
            interpret(&workload(), "tiles", &[0x1000, 0x2000, 0x3000], 100_000).unwrap();
        for level in OptLevel::ALL_LEVELS {
            let mut m = workload();
            pipeline(level, AccelFilter::All).run(&mut m).unwrap();
            verify(&m).unwrap();
            let t = interpret(&m, "tiles", &[0x1000, 0x2000, 0x3000], 100_000).unwrap();
            assert_eq!(reference.launches, t.launches, "level={level:?}");
        }
    }

    #[test]
    fn dedup_reduces_setup_writes() {
        let mut base = workload();
        pipeline(OptLevel::Base, AccelFilter::All)
            .run(&mut base)
            .unwrap();
        let base_trace = interpret(&base, "tiles", &[1, 2, 3], 100_000).unwrap();

        let mut deduped = workload();
        pipeline(OptLevel::Dedup, AccelFilter::All)
            .run(&mut deduped)
            .unwrap();
        let dedup_trace = interpret(&deduped, "tiles", &[1, 2, 3], 100_000).unwrap();

        // B and size are loop-invariant: 8×4 writes shrink to 2 + 8×2
        assert_eq!(base_trace.setup_writes, 32);
        assert_eq!(dedup_trace.setup_writes, 18);
    }

    #[test]
    fn overlap_keeps_write_count_but_rotates() {
        let mut m = workload();
        pipeline(OptLevel::Overlap, AccelFilter::All)
            .run(&mut m)
            .unwrap();
        let t = interpret(&m, "tiles", &[1, 2, 3], 100_000).unwrap();
        // one extra prologue setup and one wasted epilogue setup: the
        // rotated loop configures trip+1 times, 4 fields each
        assert_eq!(t.setup_writes, 36);
        assert_eq!(t.launches.len(), 8);
    }

    #[test]
    fn labels_and_predicates() {
        assert_eq!(OptLevel::Base.label(), "base");
        assert_eq!(OptLevel::All.label(), "all");
        assert!(OptLevel::All.includes_dedup() && OptLevel::All.includes_overlap());
        assert!(!OptLevel::Base.includes_dedup() && !OptLevel::Base.includes_overlap());
        assert!(OptLevel::Dedup.includes_dedup() && !OptLevel::Dedup.includes_overlap());
        assert!(!OptLevel::Overlap.includes_dedup() && OptLevel::Overlap.includes_overlap());
    }
}
