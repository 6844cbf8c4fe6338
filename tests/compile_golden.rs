//! The compile layer's fixed point.
//!
//! `BENCH_runtime.json` pins the modules of the bench catalog's streams;
//! this pins the rest of what the repository compiles: every shape of the
//! benchmark's `cold_shapes` grid (6 x 6 x 16 on both platforms) at every
//! [`OptLevel`], and the `paper_sweep` Gemmini weight-stationary points.
//! For each, one FNV-1a digest over the printed IR after the pipeline and
//! one over `encode_module(build_module(..))` — the bytes a store would
//! hold. The constants were recorded from the commit *before* the IR
//! substrate was rebuilt (interned names, use-def index, mutation stamp,
//! memoised dedup), so any pass output that moves shows up here as a
//! digest, with its platform and level named.

use configuration_wall::core::pipeline::{pipeline, OptLevel};
use configuration_wall::ir::print_module;
use configuration_wall::runtime::{build_module, encode_module};
use configuration_wall::targets::AcceleratorDescriptor;
use configuration_wall::workloads::{gemmini_ws_ir, matmul_ir, MatmulSpec};

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

/// The `cold_shapes` grid for one platform, in the benchmark's order:
/// Gemmini takes each shape untiled, OpenGeMM in 8 x 8 x k tiles.
fn grid(platform: &str) -> Vec<MatmulSpec> {
    let mut shapes = Vec::new();
    for m in (8..=48).step_by(8) {
        for n in (8..=48).step_by(8) {
            for k in (8..=128).step_by(8) {
                let tile = if platform == "gemmini" {
                    (m, n, k)
                } else {
                    (8, 8, k)
                };
                shapes.push(MatmulSpec::new((m, n, k), tile).expect("a grid shape"));
            }
        }
    }
    assert_eq!(shapes.len(), 6 * 6 * 16);
    shapes
}

/// (digest of the printed IR, digest of the encoded module) over the
/// grid of `desc` at `level`.
fn grid_digests(desc: &AcceleratorDescriptor, level: OptLevel) -> (u64, u64) {
    let (mut printed, mut encoded) = (Fnv::new(), Fnv::new());
    for spec in grid(&desc.name) {
        let mut module = matmul_ir(desc, &spec);
        pipeline(level, desc.overlap_filter())
            .run(&mut module)
            .expect("the pipeline verifies");
        printed.item(print_module(&module).as_bytes());
        let built = build_module(desc, spec, level).expect("a grid shape builds");
        encoded.item(&encode_module(&built));
    }
    (printed.0, encoded.0)
}

fn check_grid(desc: &AcceleratorDescriptor, expected: [(u64, u64); 4]) {
    let actual: Vec<(u64, u64)> = OptLevel::ALL_LEVELS
        .iter()
        .map(|&level| grid_digests(desc, level))
        .collect();
    let render = |d: &[(u64, u64)]| {
        d.iter()
            .zip(OptLevel::ALL_LEVELS)
            .map(|((p, e), level)| format!("    ({p:#018x}, {e:#018x}), // {}\n", level.label()))
            .collect::<String>()
    };
    assert!(
        actual == expected,
        "{} grid digests (printed IR, encoded module) moved.\nexpected:\n{}actual:\n{}",
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
            (0xde29_3638_8d36_0b09, 0x4357_eac2_fd94_2e58), // base
            (0xde29_3638_8d36_0b09, 0x2560_13e2_8a49_31d2), // dedup
            (0xde29_3638_8d36_0b09, 0xcc1c_0860_abfa_bf34), // overlap
            (0xde29_3638_8d36_0b09, 0xab9c_3bda_5c21_11ca), // all
        ],
    );
}

#[test]
fn opengemm_grid_compiles_to_the_recorded_bytes() {
    check_grid(
        &AcceleratorDescriptor::opengemm(),
        [
            (0x70f5_fa04_bdf6_adff, 0x09d7_512d_41e8_f34b), // base
            (0xcff6_9f0a_e402_d642, 0x65e2_6ce8_6018_17fd), // dedup
            (0x0198_1cec_2fe1_05a2, 0x7b16_df51_8cc0_0dfb), // overlap
            (0xa760_88c3_9c10_538a, 0x3cb3_4dcd_e54b_6d79), // all
        ],
    );
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
