//! The per-module layers, traced: IR generation, the pass pipeline,
//! lowering, interpretation, plan extraction, `persist` encode/decode and
//! the store — the steps `build_module` and a store flush make, called one
//! by one with a span around each.

use crate::trace::Tracer;
use crate::workloads::{Traced, OUT_DIR};
use accfg::interp::interpret;
use accfg::pipeline::{pipeline, OptLevel};
use accfg_runtime::persist::module_key_bytes;
use accfg_runtime::{
    build_module, decode_module, encode_module, CacheKey, CompiledModule, CostModel, DispatchPlan,
};
use accfg_store::{KeyValueStore, LogStore};
use accfg_targets::{compile, AcceleratorDescriptor};
use accfg_workloads::{matmul_ir, MatmulLayout, MatmulSpec};
use std::fs;
use std::path::PathBuf;

/// Interpreter budget for plan extraction, as `build_module` sets it.
const PLAN_FUEL: u64 = 50_000_000;

/// One module the serving runtime compiles (`matmul_ir` at `opt`), to take
/// through the layers.
pub struct ModuleCase {
    pub desc: AcceleratorDescriptor,
    pub spec: MatmulSpec,
    pub opt: OptLevel,
}

/// Takes `cases` through every per-module layer, checks each hand-built
/// module against `build_module` and its own encode/decode round trip,
/// writes them to a scratch store and reads it back. Adds the per-module
/// metrics to `out`.
pub fn trace_modules(cases: &[ModuleCase], workload: &str, tracer: &mut Tracer, out: &mut Traced) {
    if cases.is_empty() {
        return;
    }
    let mut ops_before = 0usize;
    let mut ops_after = 0usize;
    let mut static_writes_base = 0usize;
    let mut static_writes_opt = 0usize;
    let mut program_insts = 0usize;
    let mut records: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut mismatches = 0u64;

    for case in cases {
        let ModuleCase { desc, spec, opt } = case;
        let built: Result<CompiledModule, String> = tracer.span("module", None, |t| {
            let mut module = t.span("workloads.gen_ir", None, |_| matmul_ir(desc, spec));
            ops_before += module.live_op_count();
            t.span("core.pipeline", None, |_| {
                pipeline(*opt, desc.overlap_filter()).run(&mut module)
            })
            .map_err(|e| e.to_string())?;
            ops_after += module.live_op_count();
            let layout = MatmulLayout::at(0x1000, spec);
            let args = [layout.a_addr, layout.b_addr, layout.c_addr];
            let program = t
                .span("targets.compile", None, |_| {
                    compile(&module, "matmul", desc, &args)
                })
                .map_err(|e| e.to_string())?;
            program_insts += program.len();
            let trace = t
                .span("core.interpret", None, |_| {
                    interpret(&module, "matmul", &args, PLAN_FUEL)
                })
                .map_err(|e| e.to_string())?;
            static_writes_opt += trace.setup_writes;
            let plan = t
                .span("runtime.plan.from_trace", None, |_| {
                    DispatchPlan::from_trace(&trace, desc)
                })
                .map_err(|e| e.to_string())?;
            let cost = CostModel::estimate(desc, spec, &plan);
            Ok(CompiledModule {
                key: CacheKey {
                    accelerator: desc.name.clone(),
                    spec: *spec,
                    opt: *opt,
                },
                layout,
                program,
                plan,
                cost,
                ir_setup_writes: trace.setup_writes,
            })
        });
        let reference = tracer.span("runtime.cache.build", None, |_| {
            build_module(desc, *spec, *opt)
        });
        let (Ok(built), Ok(reference)) = (built, reference) else {
            mismatches += 1;
            continue;
        };
        mismatches += u64::from(built != reference);
        let bytes = tracer.span("runtime.persist.encode", None, |_| encode_module(&built));
        let decoded = tracer.span("runtime.persist.decode", None, |_| decode_module(&bytes));
        mismatches += u64::from(decoded.ok().as_ref() != Some(&built));
        records.push((module_key_bytes(&built.key), bytes));

        // what the unoptimised flow writes, for the static write counts
        let mut base = matmul_ir(desc, spec);
        let layout = MatmulLayout::at(0x1000, spec);
        let base_writes = pipeline(OptLevel::Base, desc.overlap_filter())
            .run(&mut base)
            .map_err(|e| e.to_string())
            .and_then(|_| {
                interpret(
                    &base,
                    "matmul",
                    &[layout.a_addr, layout.b_addr, layout.c_addr],
                    PLAN_FUEL,
                )
                .map_err(|e| e.to_string())
            });
        match base_writes {
            Ok(trace) => static_writes_base += trace.setup_writes,
            Err(_) => mismatches += 1,
        }
    }

    // the store: put every record into a fresh log, sync, reopen
    let path = PathBuf::from(OUT_DIR)
        .join("store")
        .join(format!("{workload}-{}.trace", std::process::id()));
    let _ = fs::remove_file(&path);
    let stored = (|| -> Result<u64, accfg_store::StoreError> {
        let mut store = LogStore::open(&path)?;
        for (key, value) in &records {
            tracer.span("store.put", None, |_| store.put(key, value))?;
        }
        tracer.span("store.sync", None, |_| store.sync())?;
        drop(store);
        let reopened = tracer.span("store.open_replay", None, |_| LogStore::open(&path))?;
        mismatches += u64::from(reopened.len() != records.len());
        Ok(fs::metadata(&path).map_or(0, |m| m.len()))
    })();
    let _ = fs::remove_file(&path);
    let file_bytes = stored.unwrap_or_else(|e| {
        out.failures.push((1, format!("scratch store: {e}")));
        0
    });
    if mismatches > 0 {
        out.failures.push((
            mismatches,
            "hand-built modules differ from build_module or their own round trip".into(),
        ));
    }
    out.attempted += cases.len() as u64;

    let totals = tracer.totals();
    let count = cases.len() as f64;
    let per_module_us =
        |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64) / count / 1e3;
    let l = &mut out.layers;
    l.insert(
        "workloads.matmul_ir_us_per_module",
        per_module_us("workloads.gen_ir"),
    );
    l.insert(
        "core.pipeline_us_per_module",
        per_module_us("core.pipeline"),
    );
    l.insert(
        "core.interpret_us_per_module",
        per_module_us("core.interpret"),
    );
    l.insert("core.ir_ops_before", ops_before as f64);
    l.insert("core.ir_ops_after", ops_after as f64);
    l.insert("core.static_writes_base", static_writes_base as f64);
    l.insert("core.static_writes_all", static_writes_opt as f64);
    l.insert(
        "targets.compile_us_per_module",
        per_module_us("targets.compile"),
    );
    l.insert("targets.program_insts", program_insts as f64);
    l.insert(
        "runtime.cache.build_us_per_module",
        per_module_us("runtime.cache.build"),
    );
    l.insert(
        "runtime.plan.from_trace_us_per_module",
        per_module_us("runtime.plan.from_trace"),
    );
    l.insert(
        "runtime.persist.encode_us_per_module",
        per_module_us("runtime.persist.encode"),
    );
    l.insert(
        "runtime.persist.decode_us_per_module",
        per_module_us("runtime.persist.decode"),
    );
    l.insert(
        "runtime.persist.bytes_per_module",
        records.iter().map(|(_, v)| v.len() as f64).sum::<f64>() / count,
    );
    l.insert("store.put_us_per_record", per_module_us("store.put"));
    l.insert(
        "store.open_replay_us_per_record",
        per_module_us("store.open_replay"),
    );
    l.insert("store.file_bytes", file_bytes as f64);
}
