//! Cross-crate integration tests: the full Figure 8 pipeline from workload
//! generation to simulated execution on both evaluation platforms.

use configuration_wall::core::pipeline::{pipeline, OptLevel};
use configuration_wall::core::{verify_discipline, AccelFilter};
use configuration_wall::prelude::*;
use configuration_wall::sim::Counters;
use configuration_wall::workloads::{
    check_result, fill_inputs, gemmini_ws_ir, matmul_ir, tiled_collapsed_ir, tiled_nested_ir,
};

fn run(
    desc: &AcceleratorDescriptor,
    spec: &MatmulSpec,
    module: configuration_wall::ir::Module,
    level: OptLevel,
) -> Counters {
    let mut module = module;
    let filter = if desc.supports_overlap() {
        AccelFilter::All
    } else {
        AccelFilter::Only(vec![])
    };
    pipeline(level, filter).run(&mut module).expect("pipeline");
    configuration_wall::ir::verify(&module).expect("verifies");
    verify_discipline(&module).expect("accfg discipline preserved");
    let layout = MatmulLayout::at(0x1000, spec);
    let prog = compile(
        &module,
        "matmul",
        desc,
        &[layout.a_addr, layout.b_addr, layout.c_addr],
    )
    .expect("lowers");
    let mut machine = Machine::new(
        desc.host.clone(),
        AccelSim::new(desc.accel.clone()),
        layout.end as usize,
    );
    fill_inputs(&mut machine.mem, spec, &layout, 0xAB).expect("inputs");
    let counters = machine.run(&prog, 1_000_000_000).expect("simulates");
    check_result(&machine.mem, spec, &layout).expect("correct result");
    counters
}

#[test]
fn opengemm_all_levels_functional_and_ordered() {
    let desc = AcceleratorDescriptor::opengemm();
    let spec = MatmulSpec::opengemm_paper(32).unwrap();
    let base = run(&desc, &spec, matmul_ir(&desc, &spec), OptLevel::Base);
    let dedup = run(&desc, &spec, matmul_ir(&desc, &spec), OptLevel::Dedup);
    let overlap = run(&desc, &spec, matmul_ir(&desc, &spec), OptLevel::Overlap);
    let all = run(&desc, &spec, matmul_ir(&desc, &spec), OptLevel::All);

    // every level launches the same tiles
    for c in [&dedup, &overlap, &all] {
        assert_eq!(c.launches, base.launches);
    }
    // dedup strictly reduces configuration instructions
    assert!(dedup.insts_config < base.insts_config);
    // overlap produces genuinely overlapped cycles
    assert!(overlap.overlap_cycles > base.overlap_cycles);
    // cycle ordering: all <= dedup <= base and all <= overlap <= base
    assert!(dedup.cycles < base.cycles);
    assert!(overlap.cycles < base.cycles);
    assert!(all.cycles <= dedup.cycles);
    assert!(all.cycles <= overlap.cycles);
}

#[test]
fn gemmini_dedup_wins_but_no_overlap_possible() {
    let desc = AcceleratorDescriptor::gemmini();
    let spec = MatmulSpec::gemmini_paper(128).unwrap();
    let base = run(&desc, &spec, gemmini_ws_ir(&desc, &spec), OptLevel::Base);
    let dedup = run(&desc, &spec, gemmini_ws_ir(&desc, &spec), OptLevel::Dedup);
    // sequential-configuration hardware: overlap is filtered out, so the
    // "All" level degenerates to dedup
    let all = run(&desc, &spec, gemmini_ws_ir(&desc, &spec), OptLevel::All);
    assert!(dedup.cycles < base.cycles);
    assert_eq!(all.cycles, dedup.cycles);
    assert_eq!(base.overlap_cycles, 0);
    assert_eq!(all.overlap_cycles, 0);
}

#[test]
fn collapsed_and_nested_loops_agree_functionally() {
    let desc = AcceleratorDescriptor::opengemm();
    let spec = MatmulSpec::new((32, 32, 32), (8, 8, 8)).unwrap();
    for level in OptLevel::ALL_LEVELS {
        let collapsed = run(&desc, &spec, tiled_collapsed_ir(&desc, &spec), level);
        let nested = run(&desc, &spec, tiled_nested_ir(&desc, &spec), level);
        assert_eq!(collapsed.launches, nested.launches, "level={level:?}");
    }
}

#[test]
fn cross_target_results_are_identical() {
    // the same logical matmul computes the same C on both platforms
    let size = 64;
    let og_desc = AcceleratorDescriptor::opengemm();
    let og_spec = MatmulSpec::opengemm_paper(size).unwrap();
    let gm_desc = AcceleratorDescriptor::gemmini();
    let gm_spec = MatmulSpec::gemmini_paper(size).unwrap();

    let og_layout = MatmulLayout::at(0x1000, &og_spec);
    let gm_layout = MatmulLayout::at(0x1000, &gm_spec);
    assert_eq!(og_layout, gm_layout); // same problem, same placement

    let get_c = |desc: &AcceleratorDescriptor,
                 spec: &MatmulSpec,
                 module: configuration_wall::ir::Module| {
        let mut module = module;
        pipeline(OptLevel::Dedup, AccelFilter::All)
            .run(&mut module)
            .unwrap();
        let layout = MatmulLayout::at(0x1000, spec);
        let prog = compile(
            &module,
            "matmul",
            desc,
            &[layout.a_addr, layout.b_addr, layout.c_addr],
        )
        .unwrap();
        let mut machine = Machine::new(
            desc.host.clone(),
            AccelSim::new(desc.accel.clone()),
            layout.end as usize,
        );
        fill_inputs(&mut machine.mem, spec, &layout, 0xCAFE).unwrap();
        machine.run(&prog, 1_000_000_000).unwrap();
        machine
            .mem
            .read_i32_slice(layout.c_addr as u64, (spec.m * spec.n) as usize)
            .unwrap()
    };
    let og_c = get_c(&og_desc, &og_spec, matmul_ir(&og_desc, &og_spec));
    let gm_c = get_c(&gm_desc, &gm_spec, gemmini_ws_ir(&gm_desc, &gm_spec));
    assert_eq!(og_c, gm_c);
}

#[test]
fn optimizations_never_change_config_bytes_observed_at_launch() {
    // the interpreter-level oracle, applied to the real workload IR: every
    // optimization level produces identical launch traces
    let desc = AcceleratorDescriptor::opengemm();
    let spec = MatmulSpec::opengemm_paper(16).unwrap();
    let layout = MatmulLayout::at(0x1000, &spec);
    let args = [layout.a_addr, layout.b_addr, layout.c_addr];
    let reference =
        configuration_wall::core::interpret(&matmul_ir(&desc, &spec), "matmul", &args, 10_000_000)
            .unwrap();
    for level in OptLevel::ALL_LEVELS {
        let mut m = matmul_ir(&desc, &spec);
        pipeline(level, AccelFilter::All).run(&mut m).unwrap();
        let t = configuration_wall::core::interpret(&m, "matmul", &args, 10_000_000).unwrap();
        assert_eq!(t.launches, reference.launches, "level={level:?}");
    }
}

/// Per-pass translation validation over every real pipeline: each rewrite
/// of each optimization level, on both platforms and all three loop
/// structures, must preserve the reaching configuration state of every
/// launch (the abstract analogue of the interpreter oracle above, proven
/// for all inputs at once).
#[test]
fn every_pipeline_pass_translation_validates_on_real_workloads() {
    use configuration_wall::analyze::pass_validator;
    let og_desc = AcceleratorDescriptor::opengemm();
    let og_spec = MatmulSpec::opengemm_paper(32).unwrap();
    let gm_desc = AcceleratorDescriptor::gemmini();
    let gm_spec = MatmulSpec::gemmini_paper(128).unwrap();
    let cases = [
        ("opengemm/matmul", &og_desc, matmul_ir(&og_desc, &og_spec)),
        (
            "opengemm/nested",
            &og_desc,
            tiled_nested_ir(&og_desc, &og_spec),
        ),
        (
            "opengemm/collapsed",
            &og_desc,
            tiled_collapsed_ir(&og_desc, &og_spec),
        ),
        ("gemmini/matmul", &gm_desc, matmul_ir(&gm_desc, &gm_spec)),
        ("gemmini/ws", &gm_desc, gemmini_ws_ir(&gm_desc, &gm_spec)),
    ];
    for (name, desc, module) in cases {
        for level in OptLevel::ALL_LEVELS {
            let mut m = module.clone();
            let filter = if desc.supports_overlap() {
                AccelFilter::All
            } else {
                AccelFilter::Only(vec![])
            };
            let mut pm = pipeline(level, filter);
            pm.validate_each(pass_validator());
            pm.run(&mut m)
                .unwrap_or_else(|e| panic!("{name} at {level:?} failed validation: {e}"));
        }
    }
}

/// A deliberately-broken pass — every integer constant smashed to 0, which
/// is valid IR with changed semantics — must be rejected by translation
/// validation with a per-launch diff naming the accelerator, the field,
/// and the expected/actual abstract values.
#[test]
fn broken_pass_is_caught_with_a_named_launch_diff() {
    use configuration_wall::analyze::{pass_validator, validate_translation, ValidationError};
    use configuration_wall::ir::{Attribute, Changed, Module, Opcode, Pass, PassManager};

    struct ConstSmashPass;
    impl Pass for ConstSmashPass {
        fn name(&self) -> &'static str {
            "const-smash"
        }
        fn run(&self, m: &mut Module) -> Changed {
            for func in m.funcs().to_vec() {
                for op in m.walk_collect(func) {
                    if m.op(op).opcode == Opcode::Constant {
                        m.set_attr(op, "value", Attribute::Int(0));
                    }
                }
            }
            Changed::Yes
        }
    }

    let desc = AcceleratorDescriptor::opengemm();
    let spec = MatmulSpec::opengemm_paper(16).unwrap();
    let before = matmul_ir(&desc, &spec);

    // through the pipeline hook: the run aborts, attributed to the pass
    let mut smashed = before.clone();
    let mut pm = PassManager::new();
    pm.add(ConstSmashPass);
    pm.validate_each(pass_validator());
    let err = pm.run(&mut smashed).expect_err("smash must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("const-smash"), "{msg}");
    assert!(msg.contains("Known(const 0)"), "{msg}");

    // and the structured diff names everything needed to debug it
    let err = validate_translation(&before, &smashed).expect_err("diffs");
    let ValidationError::FieldDiffs(diffs) = &err else {
        panic!("expected per-launch field diffs, got {err}");
    };
    let diff = &diffs[0];
    assert_eq!(diff.accelerator, "opengemm");
    assert!(!diff.field.is_empty());
    assert!(
        diff.expected.starts_with("Known(const "),
        "{}",
        diff.expected
    );
    assert_eq!(diff.actual, "Known(const 0)");
    assert_ne!(diff.expected, diff.actual);
}

#[test]
fn larger_problems_are_less_configuration_bound() {
    // the core thesis: I_OC grows with size, performance approaches peak
    let desc = AcceleratorDescriptor::opengemm();
    let mut last_perf = 0.0;
    for size in [16, 32, 64, 128] {
        let spec = MatmulSpec::opengemm_paper(size).unwrap();
        let c = run(&desc, &spec, matmul_ir(&desc, &spec), OptLevel::All);
        let perf = c.ops_per_cycle(spec.total_ops() as u64);
        assert!(perf > last_perf, "size={size}: {perf} !> {last_perf}");
        last_perf = perf;
    }
    assert!(last_perf < desc.accel.peak_ops_per_cycle() as f64);
}

#[test]
fn a_trace_spliced_from_two_modules_plans_every_field_by_its_name() {
    use configuration_wall::runtime::DispatchPlan;
    // `from_trace` remembers each field's register by the field's symbol;
    // these two modules give "M" and "K" each other's symbols
    let one_launch = |fields: &[(&str, i64)]| {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let values: Vec<_> = fields
            .iter()
            .map(|&(name, v)| (name, b.const_index(v)))
            .collect();
        let s = b.setup("opengemm", &values);
        let t = b.launch("opengemm", s);
        b.await_token("opengemm", t);
        b.ret(vec![]);
        interpret(&m, "f", &[], 1_000).unwrap()
    };
    let mut trace = one_launch(&[("M", 8), ("K", 64)]);
    trace
        .launches
        .extend(one_launch(&[("K", 32), ("M", 16)]).launches);
    let desc = AcceleratorDescriptor::opengemm();
    let plan = DispatchPlan::from_trace(&trace, &desc).unwrap();
    let held = |launch: usize, field: &str| {
        let reg = desc.field(field).unwrap().reg;
        plan.launches().nth(launch)?.registers.get(&reg).copied()
    };
    assert_eq!((held(0, "M"), held(0, "K")), (Some(8), Some(64)));
    assert_eq!((held(1, "M"), held(1, "K")), (Some(16), Some(32)));
}
