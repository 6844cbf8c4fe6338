//! The lint corpus: every module this repository compiles outside a test —
//! what `accfg_lint` gates in CI, and what `accfg-analyze` checks its
//! validator's reflexivity on.

use accfg_ir::Module;
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::{
    gemmini_ws_ir, layer_sequence_ir, matmul_ir, mixed_platform_classes, mixed_serving_classes,
    shape_heavy_classes, single_invocation_ir, tiled_collapsed_ir, tiled_nested_ir, MatmulLayout,
    MatmulSpec,
};

fn descriptor(name: &str) -> AcceleratorDescriptor {
    match name {
        "gemmini" => AcceleratorDescriptor::gemmini(),
        "opengemm" => AcceleratorDescriptor::opengemm(),
        "gemmini-turbo" => AcceleratorDescriptor::gemmini_turbo(),
        "opengemm-lite" => AcceleratorDescriptor::opengemm_lite(),
        other => panic!("no descriptor named `{other}`"),
    }
}

/// Every module the repo's examples and benches generate, plus one
/// module per unique serve_bench stream class (the exact raw IR the
/// serving runtime compiles for that class).
pub fn lint_corpus() -> Vec<(String, AcceleratorDescriptor, Module)> {
    let mut out = Vec::new();
    for name in ["gemmini", "opengemm"] {
        let desc = descriptor(name);
        let sizes = if name == "gemmini" {
            [64, 128]
        } else {
            [32, 64]
        };
        for size in sizes {
            let spec = if name == "gemmini" {
                MatmulSpec::gemmini_paper(size).expect("paper size")
            } else {
                MatmulSpec::opengemm_paper(size).expect("paper size")
            };
            out.push((
                format!("{name}/matmul_{size}"),
                desc.clone(),
                matmul_ir(&desc, &spec),
            ));
            out.push((
                format!("{name}/tiled_collapsed_{size}"),
                desc.clone(),
                tiled_collapsed_ir(&desc, &spec),
            ));
            out.push((
                format!("{name}/tiled_nested_{size}"),
                desc.clone(),
                tiled_nested_ir(&desc, &spec),
            ));
        }
        // a single-invocation spec: full problem in one tile
        let single = if name == "gemmini" {
            MatmulSpec::gemmini_paper(32).expect("single tile")
        } else {
            MatmulSpec::opengemm_paper(8).expect("single tile")
        };
        assert_eq!(single.invocations(), 1);
        out.push((
            format!("{name}/single_invocation"),
            desc.clone(),
            single_invocation_ir(&desc, &single),
        ));
        let layers: Vec<(MatmulSpec, MatmulLayout)> = (0..3)
            .map(|i| (single, MatmulLayout::at(i * 0x10_0000, &single)))
            .collect();
        out.push((
            format!("{name}/layer_sequence"),
            desc.clone(),
            layer_sequence_ir(&desc, &layers),
        ));
    }
    let gemmini = descriptor("gemmini");
    let ws_spec = MatmulSpec::gemmini_paper(128).expect("paper size");
    out.push((
        "gemmini/gemmini_ws_128".into(),
        gemmini.clone(),
        gemmini_ws_ir(&gemmini, &ws_spec),
    ));
    // every serve_bench stream draws its requests from these classes;
    // the runtime compiles exactly matmul_ir(descriptor, spec) per class
    let mut seen = Vec::new();
    for (mix, classes) in [
        ("mixed", mixed_serving_classes()),
        ("shape_heavy", shape_heavy_classes()),
        ("platform", mixed_platform_classes()),
    ] {
        for class in classes {
            let key = (class.accelerator.clone(), class.spec);
            if class.weight == 0 || seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let desc = descriptor(&class.accelerator);
            out.push((
                format!(
                    "stream/{mix}/{}_{}x{}x{}",
                    class.accelerator, class.spec.m, class.spec.n, class.spec.k
                ),
                desc.clone(),
                matmul_ir(&desc, &class.spec),
            ));
        }
    }
    out
}
