//! The compile layer's fixed point.
//!
//! `BENCH_runtime.json` pins the modules of the bench catalog's streams;
//! this pins the rest of what the repository compiles: every shape of the
//! benchmark's `cold_shapes` grid (6 x 6 x 16 on both platforms) at every
//! [`OptLevel`], and the `paper_sweep` Gemmini weight-stationary points.
//! For each, one FNV-1a digest over the printed IR after the pipeline, one
//! over `encode_module(build_module(..))` — the bytes a store would hold —
//! and one over the built module's `Debug` rendering. The printed-IR
//! constants were recorded from the commit *before* the IR substrate was
//! rebuilt (interned names, use-def index, mutation stamp, memoised
//! dedup), so any pass output that moves shows up here as a digest, with
//! its platform and level named. The `Debug` column does not depend on
//! the store codec: it pins the compiled module itself (program, plan,
//! layout, anchors) across a change of the encoded bytes. The encoded
//! column was re-recorded, alone, when the store moved to varints and
//! per-launch register deltas (`ACFGSTR3`).
//!
//! The same walk, and the bench catalog's classes, pin the invariant a
//! dispatch plan is built on: every launch of a module holds one register
//! set, its platform's. The walk also decodes every encoded module and
//! requires the module it was encoded from: the store door builds a
//! plan's held deltas the way `from_trace` does, on every stored shape.

use accfg_bench::streams::cold_shapes_grid;
use configuration_wall::core::pipeline::{pipeline, OptLevel};
use configuration_wall::ir::print_module;
use configuration_wall::runtime::{build_module, decode_module, encode_module, DispatchPlan};
use configuration_wall::targets::AcceleratorDescriptor;
use configuration_wall::workloads::{
    gemmini_ws_ir, matmul_ir, mixed_platform_classes, mixed_serving_classes, shape_heavy_classes,
    MatmulSpec,
};

/// FNV-1a, folded over byte strings with their length so that moving a
/// byte between two neighbouring items changes the digest.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn item(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// (digest of the printed IR, digest of the encoded module, digest of the
/// module's `Debug` rendering) over the grid of `desc` at `level`.
fn grid_digests(desc: &AcceleratorDescriptor, level: OptLevel) -> (u64, u64, u64) {
    let (mut printed, mut encoded, mut debug) = (Fnv::new(), Fnv::new(), Fnv::new());
    let grid = cold_shapes_grid(&desc.name);
    assert_eq!(grid.len(), 6 * 6 * 16);
    for spec in grid {
        let mut module = matmul_ir(desc, &spec);
        pipeline(level, desc.overlap_filter())
            .run(&mut module)
            .expect("the pipeline verifies");
        printed.item(print_module(&module).as_bytes());
        let built = build_module(desc, spec, level).expect("a grid shape builds");
        assert_one_held_set(desc, &built.plan, || format!("{spec:?} at {level:?}"));
        let bytes = encode_module(&built);
        // the store's door gives back what was built, plan deltas and all
        assert!(
            decode_module(&bytes).as_ref() == Ok(&built),
            "{} {spec:?} at {level:?}: the stored module decodes to another",
            desc.name
        );
        encoded.item(&bytes);
        debug.item(format!("{built:?}").as_bytes());
    }
    (printed.0, encoded.0, debug.0)
}

/// Asserts every launch of `plan`, built for `desc`, holds the registers
/// of `desc`'s whole field table — Gemmini 0..=11, OpenGeMM 0..=23. The
/// generator writes the same fields in every invocation, a launch observes
/// the whole file, and the passes remove only writes whose value is
/// already held, so no launch holds fewer: the one held set per plan that
/// `DispatchPlan` requires.
fn assert_one_held_set(
    desc: &AcceleratorDescriptor,
    plan: &DispatchPlan,
    what: impl Fn() -> String,
) {
    let last = match desc.name.as_str() {
        "gemmini" => 11,
        "opengemm" => 23,
        other => panic!("no held set recorded for `{other}`"),
    };
    for (index, launch) in plan.launches().enumerate() {
        assert!(
            launch.registers.iter().map(|(&reg, _)| reg).eq(0..=last),
            "{} {}: launch {index} holds {:?}",
            desc.name,
            what(),
            launch.registers
        );
    }
}

fn check_grid(desc: &AcceleratorDescriptor, expected: [(u64, u64, u64); 4]) {
    let actual: Vec<(u64, u64, u64)> = OptLevel::ALL_LEVELS
        .iter()
        .map(|&level| grid_digests(desc, level))
        .collect();
    let render = |d: &[(u64, u64, u64)]| {
        d.iter()
            .zip(OptLevel::ALL_LEVELS)
            .map(|((p, e, g), level)| {
                format!(
                    "    ({p:#018x}, {e:#018x}, {g:#018x}), // {}\n",
                    level.label()
                )
            })
            .collect::<String>()
    };
    assert!(
        actual == expected,
        "{} grid digests (printed IR, encoded module, Debug) moved.\nexpected:\n{}actual:\n{}",
        desc.name,
        render(&expected),
        render(&actual)
    );
}

#[test]
fn gemmini_grid_compiles_to_the_recorded_bytes() {
    check_grid(
        &AcceleratorDescriptor::gemmini(),
        [
            (
                0xde29_3638_8d36_0b09,
                0x8e43_4155_eb6c_7421,
                0xa29a_540b_13c6_c9a2,
            ), // base
            (
                0xde29_3638_8d36_0b09,
                0x86cf_9878_55bd_98c7,
                0x67e0_c043_292f_e23c,
            ), // dedup
            (
                0xde29_3638_8d36_0b09,
                0x07f7_d655_81e4_aef9,
                0x111f_69ea_35a7_a1ba,
            ), // overlap
            (
                0xde29_3638_8d36_0b09,
                0x0d7f_1e46_f595_97db,
                0xbf10_663a_24b5_5cc6,
            ), // all
        ],
    );
}

#[test]
fn opengemm_grid_compiles_to_the_recorded_bytes() {
    check_grid(
        &AcceleratorDescriptor::opengemm(),
        [
            (
                0x70f5_fa04_bdf6_adff,
                0x0159_fbca_3724_4a5b,
                0xf3a1_d964_6283_dae3,
            ), // base
            (
                0xcff6_9f0a_e402_d642,
                0x0ff7_4a4d_8dab_a45b,
                0x65be_4742_afa5_7925,
            ), // dedup
            (
                0x0198_1cec_2fe1_05a2,
                0x243b_9f6c_24b4_e1b7,
                0xbf9f_1097_8aa3_8c24,
            ), // overlap
            (
                0xa760_88c3_9c10_538a,
                0xbc7e_36d4_09ad_8ff6,
                0x7bf8_d272_49f4_b87d,
            ), // all
        ],
    );
}

/// The catalog streams' classes and the paper sizes, on their platform at
/// every level: one held set a module, the platform's (the grid walk
/// checks the rest).
#[test]
fn every_catalog_module_holds_its_platforms_one_register_set() {
    let paper = [16, 32, 64, 128].into_iter().flat_map(|size| {
        [
            ("gemmini", MatmulSpec::gemmini_paper(size)),
            ("opengemm", MatmulSpec::opengemm_paper(size)),
        ]
    });
    let classes = mixed_serving_classes()
        .into_iter()
        .chain(mixed_platform_classes())
        .chain(shape_heavy_classes())
        .map(|class| (class.accelerator, class.spec));
    let mut shapes: Vec<(String, MatmulSpec)> = paper
        .map(|(platform, spec)| (platform.to_string(), spec.expect("a paper size")))
        .chain(classes)
        .collect();
    shapes.sort_by_key(|(platform, spec)| (platform.clone(), format!("{spec:?}")));
    shapes.dedup();
    for (platform, spec) in shapes {
        let desc = match platform.as_str() {
            "gemmini" => AcceleratorDescriptor::gemmini(),
            _ => AcceleratorDescriptor::opengemm(),
        };
        for level in OptLevel::ALL_LEVELS {
            let built = build_module(&desc, spec, level).expect("a catalog class builds");
            assert_one_held_set(&desc, &built.plan, || format!("{spec:?} at {level:?}"));
        }
    }
}

/// The Figure 10 sweep's modules: `gemmini_ws_ir` as generated (the C
/// baseline runs it unoptimised) and after the pipeline at every level.
#[test]
fn gemmini_ws_sweep_points_print_the_recorded_ir() {
    const EXPECTED: u64 = 0xb62f_f94a_4f14_e2d2;
    let desc = AcceleratorDescriptor::gemmini();
    let mut printed = Fnv::new();
    for size in [32, 64, 128, 256, 512] {
        let spec = MatmulSpec::gemmini_paper(size).expect("a Figure 10 size");
        printed.item(print_module(&gemmini_ws_ir(&desc, &spec)).as_bytes());
        for level in OptLevel::ALL_LEVELS {
            let mut module = gemmini_ws_ir(&desc, &spec);
            pipeline(level, desc.overlap_filter())
                .run(&mut module)
                .expect("the pipeline verifies");
            printed.item(print_module(&module).as_bytes());
        }
    }
    assert!(
        printed.0 == EXPECTED,
        "gemmini_ws_ir sweep digest moved: expected {EXPECTED:#018x}, actual {:#018x}",
        printed.0
    );
}

/// How many modules of `desc`'s `cold_shapes` grid each pass of the
/// `OptLevel::All` pipeline rewrites (reports `Changed`), pass by pass in
/// pipeline order. Pins which passes do work on the grid, so that a change
/// meant to leave every pass's output alone can be checked pass by pass,
/// not only by the digests of the end result.
fn grid_pass_activity(desc: &AcceleratorDescriptor) -> Vec<(&'static str, usize)> {
    let pm = pipeline(OptLevel::All, desc.overlap_filter());
    let mut activity: Vec<(&'static str, usize)> =
        pm.passes().map(|pass| (pass.name(), 0)).collect();
    for spec in cold_shapes_grid(&desc.name) {
        let mut module = matmul_ir(desc, &spec);
        let stats = pm.run(&mut module).expect("the pipeline verifies");
        for (counted, (name, changed)) in activity.iter_mut().zip(stats.passes) {
            assert_eq!(counted.0, name);
            counted.1 += usize::from(changed);
        }
    }
    activity
}

#[test]
fn grid_passes_rewrite_the_recorded_modules() {
    let opengemm = [
        ("canonicalize", 576),
        ("cse", 576),
        ("licm", 560),
        ("accfg-trace-states", 560),
        ("accfg-hoist-setup-into-branch", 0),
        ("accfg-hoist-invariant-setup-fields", 560),
        ("accfg-dedup", 0),
        ("accfg-remove-empty-setups", 560),
        ("accfg-merge-setups", 0),
        ("accfg-rotate-loops", 560),
        ("accfg-overlap-in-block", 0),
        ("canonicalize", 560),
        ("cse", 0),
        ("dce", 0),
    ];
    let gemmini = [
        ("canonicalize", 0),
        ("cse", 576),
        ("licm", 0),
        ("accfg-trace-states", 0),
        ("accfg-hoist-setup-into-branch", 0),
        ("accfg-hoist-invariant-setup-fields", 0),
        ("accfg-dedup", 0),
        ("accfg-remove-empty-setups", 0),
        ("accfg-merge-setups", 0),
        ("accfg-rotate-loops", 0),
        ("accfg-overlap-in-block", 0),
        ("canonicalize", 0),
        ("cse", 0),
        ("dce", 0),
    ];
    for (desc, expected) in [
        (AcceleratorDescriptor::opengemm(), opengemm),
        (AcceleratorDescriptor::gemmini(), gemmini),
    ] {
        assert_eq!(
            grid_pass_activity(&desc),
            expected,
            "{}: modules each pass rewrote",
            desc.name
        );
    }
}
