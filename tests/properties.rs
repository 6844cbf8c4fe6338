//! Property-based tests over the compiler stack (proptest).
//!
//! Random accfg programs are generated from a parameterized family covering
//! straight-line code, loops with mixed invariant/varying fields, branches,
//! and annotated/unannotated foreign calls. Invariants:
//!
//! 1. the optimization pipeline preserves the *launch trace* (the register
//!    file the accelerator observes at every launch) — the paper's
//!    correctness criterion;
//! 2. printed IR parses back to IR that prints identically (round-trip);
//! 3. every pipeline output still passes the verifier and the accfg
//!    discipline lint;
//! 4. deduplication never increases the number of configuration writes;
//! 5. the pass manager's shortcut is sound: a pass that leaves the module's
//!    mutation stamp where it was left the printed IR byte-identical, and
//!    so did every pass that reported `Changed::No`.

use configuration_wall::core::pipeline::{pipeline, OptLevel};
use configuration_wall::core::{
    interpret, verify_discipline, AccelFilter, Deduplicate, HoistInvariantSetupFields,
    HoistSetupIntoBranch, MergeSetups, OverlapInBlock, RemoveEmptySetups, RotateLoops, TraceStates,
};
use configuration_wall::ir::passes::{Canonicalize, Cse, Dce, Licm};
use configuration_wall::ir::{
    parse_module, print_module, verify, Effects, FuncBuilder, Module, Pass, Type,
};
use proptest::prelude::*;

/// One field written by a setup: the value's provenance decides whether the
/// passes may deduplicate or hoist it.
#[derive(Debug, Clone, Copy)]
enum FieldKind {
    /// A compile-time constant (foldable, hoistable, dedupable).
    Const(i8),
    /// A function argument (invariant, hoistable, dedupable).
    Arg(bool),
    /// Derived from the loop induction variable (must be rewritten per
    /// iteration; never hoistable).
    IvDerived(i8),
}

#[derive(Debug, Clone)]
struct LoopSegment {
    trip: i64,
    fields: Vec<(usize, FieldKind)>,
}

#[derive(Debug, Clone)]
enum Segment {
    /// A straight-line setup/launch/await cluster.
    Straight(Vec<(usize, FieldKind)>),
    /// A tiled loop of clusters.
    Loop(LoopSegment),
    /// A conditional cluster in both branches with different constants.
    Branchy { field: usize, t: i8, f: i8 },
    /// A foreign call; `annotated` means `#accfg.effects<none>`.
    Foreign { annotated: bool },
}

const FIELD_NAMES: [&str; 5] = ["addr", "size", "stride", "mode", "scale"];

fn field_kind() -> impl Strategy<Value = FieldKind> {
    prop_oneof![
        any::<i8>().prop_map(FieldKind::Const),
        any::<bool>().prop_map(FieldKind::Arg),
        any::<i8>().prop_map(FieldKind::IvDerived),
    ]
}

fn fields() -> impl Strategy<Value = Vec<(usize, FieldKind)>> {
    prop::collection::vec((0usize..FIELD_NAMES.len(), field_kind()), 1..4).prop_map(|mut v| {
        // one write per field name within a single setup
        v.sort_by_key(|(i, _)| *i);
        v.dedup_by_key(|(i, _)| *i);
        v
    })
}

fn segment() -> impl Strategy<Value = Segment> {
    prop_oneof![
        fields().prop_map(Segment::Straight),
        (1i64..5, fields()).prop_map(|(trip, fields)| Segment::Loop(LoopSegment { trip, fields })),
        (0usize..FIELD_NAMES.len(), any::<i8>(), any::<i8>())
            .prop_map(|(field, t, f)| Segment::Branchy { field, t, f }),
        any::<bool>().prop_map(|annotated| Segment::Foreign { annotated }),
    ]
}

fn program() -> impl Strategy<Value = Vec<Segment>> {
    prop::collection::vec(segment(), 1..6)
}

/// Materializes a generated program as accfg IR over `f(arg0, arg1, cond)`.
fn build(segments: &[Segment]) -> Module {
    let mut m = Module::new();
    let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64, Type::I64, Type::I1]);
    let field_value =
        |b: &mut FuncBuilder<'_>, kind: FieldKind, iv: Option<accfg_ir::ValueId>| match kind {
            FieldKind::Const(c) => b.const_index(i64::from(c)),
            FieldKind::Arg(second) => args[usize::from(second)],
            FieldKind::IvDerived(c) => match iv {
                Some(iv) => {
                    let k = b.const_index(i64::from(c));
                    b.muli(iv, k)
                }
                None => b.const_index(i64::from(c).wrapping_mul(3)),
            },
        };
    let emit_cluster =
        |b: &mut FuncBuilder<'_>, fs: &[(usize, FieldKind)], iv: Option<accfg_ir::ValueId>| {
            let resolved: Vec<(&str, accfg_ir::ValueId)> = fs
                .iter()
                .map(|&(i, kind)| (FIELD_NAMES[i], field_value(b, kind, iv)))
                .collect();
            let s = b.setup("acc", &resolved);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
        };
    for seg in segments {
        match seg {
            Segment::Straight(fs) => emit_cluster(&mut b, fs, None),
            Segment::Loop(l) => {
                let lb = b.const_index(0);
                let ub = b.const_index(l.trip);
                let one = b.const_index(1);
                b.build_for(lb, ub, one, vec![], |b, iv, _| {
                    emit_cluster(b, &l.fields, Some(iv));
                    vec![]
                });
            }
            Segment::Branchy { field, t, f } => {
                let tv = b.const_index(i64::from(*t));
                let fv = b.const_index(i64::from(*f));
                let chosen = b.build_if(args[2], |_| vec![tv], |_| vec![fv]);
                let resolved = vec![(FIELD_NAMES[*field], chosen[0])];
                let s = b.setup("acc", &resolved);
                let t = b.launch("acc", s);
                b.await_token("acc", t);
            }
            Segment::Foreign { annotated } => {
                let effects = annotated.then_some(Effects::None);
                b.opaque("foreign", vec![], vec![], effects);
            }
        }
    }
    b.ret(vec![]);
    m
}

/// The passes of `pipeline(OptLevel::All, AccelFilter::All)`, one by one
/// (the manager does not hand its passes out; the names are checked
/// against it so the two cannot drift apart).
fn all_level_passes() -> Vec<Box<dyn Pass>> {
    let passes: Vec<Box<dyn Pass>> = vec![
        Box::new(Canonicalize),
        Box::new(Cse),
        Box::new(Licm),
        Box::new(TraceStates),
        Box::new(HoistSetupIntoBranch),
        Box::new(HoistInvariantSetupFields),
        Box::new(Deduplicate),
        Box::new(RemoveEmptySetups),
        Box::new(MergeSetups),
        Box::new(RotateLoops::default()),
        Box::new(OverlapInBlock::default()),
        Box::new(Canonicalize),
        Box::new(Cse),
        Box::new(Dce),
    ];
    let names: Vec<&str> = passes.iter().map(|p| p.name()).collect();
    assert_eq!(
        names,
        pipeline(OptLevel::All, AccelFilter::All).pass_names()
    );
    passes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn an_unmoved_stamp_and_changed_no_both_mean_identical_ir(segments in program()) {
        let mut module = build(&segments);
        let mut printed = print_module(&module);
        for pass in all_level_passes() {
            let stamp = module.stamp();
            let changed = pass.run(&mut module);
            let after = print_module(&module);
            if module.stamp() == stamp {
                // what lets the manager skip the verifier and the validator
                prop_assert_eq!(&after, &printed, "`{}` moved no stamp", pass.name());
            }
            if !changed.changed() {
                // a pass that lies about this fails here, not in production
                prop_assert_eq!(&after, &printed, "`{}` reported no change", pass.name());
            }
            verify(&module).unwrap();
            printed = after;
        }
        // and the walk above is the pipeline
        let mut piped = build(&segments);
        pipeline(OptLevel::All, AccelFilter::All).run(&mut piped).unwrap();
        prop_assert_eq!(print_module(&piped), printed);
    }

    #[test]
    fn pipeline_preserves_launch_traces(segments in program(), a in -64i64..64, c in 0i64..2) {
        let module = build(&segments);
        let args = [a, a.wrapping_add(17), c];
        let reference = interpret(&module, "f", &args, 1_000_000).unwrap();
        for level in OptLevel::ALL_LEVELS {
            let mut m = build(&segments);
            pipeline(level, AccelFilter::All).run(&mut m).unwrap();
            verify(&m).unwrap();
            verify_discipline(&m).unwrap();
            let t = interpret(&m, "f", &args, 1_000_000).unwrap();
            prop_assert_eq!(&t.launches, &reference.launches, "level={:?}", level);
        }
    }

    #[test]
    fn dedup_never_increases_dynamic_writes(segments in program(), a in -64i64..64) {
        let args = [a, a ^ 5, 1];
        let mut base = build(&segments);
        pipeline(OptLevel::Base, AccelFilter::All).run(&mut base).unwrap();
        let base_trace = interpret(&base, "f", &args, 1_000_000).unwrap();

        let mut deduped = build(&segments);
        pipeline(OptLevel::Dedup, AccelFilter::All).run(&mut deduped).unwrap();
        let dedup_trace = interpret(&deduped, "f", &args, 1_000_000).unwrap();

        prop_assert!(dedup_trace.setup_writes <= base_trace.setup_writes);
    }

    #[test]
    fn printer_parser_round_trip(segments in program()) {
        let module = build(&segments);
        let printed = print_module(&module);
        let reparsed = parse_module(&printed).expect("printed IR parses");
        verify(&reparsed).expect("reparsed IR verifies");
        prop_assert_eq!(print_module(&reparsed), printed);
    }

    #[test]
    fn round_trip_survives_optimization(segments in program()) {
        let mut module = build(&segments);
        pipeline(OptLevel::All, AccelFilter::All).run(&mut module).unwrap();
        let printed = print_module(&module);
        let reparsed = parse_module(&printed).expect("optimized IR parses");
        prop_assert_eq!(print_module(&reparsed), printed);
    }
}
