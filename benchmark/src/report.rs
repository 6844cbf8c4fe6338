//! The metric tables (names, units, directions, bounds), the result
//! documents the benchmark prints and writes, and the comparison of two
//! result files under the benchmark's own bounds.

use crate::stats;
use accfg_bench::json::Json;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Simulated-clock metrics repeat exactly for one seed; host-clock
    /// metrics are subject to this machine's noise.
    pub simulated: bool,
}

/// Every workload reports every one of these from its untraced run.
/// `BENCHMARK.json` carries the same table (a unit test keeps the two in
/// step). Each bound is about three times the widest spread of ten runs on
/// ten seeds measured on the reference host (the README has the table):
/// for a host metric that is the host's noise, for a simulated one how far
/// the metric moves between two seeds of one workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "host_req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        simulated: false,
    },
    EndToEnd {
        name: "sim_p50_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.10,
        simulated: true,
    },
    EndToEnd {
        name: "sim_p99_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.20,
        simulated: true,
    },
    EndToEnd {
        name: "sim_setup_writes",
        unit: "writes",
        better: Better::Lower,
        bound: 0.10,
        simulated: true,
    },
    EndToEnd {
        name: "sim_makespan_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.12,
        simulated: true,
    },
];

/// Set-ups are a fraction of a second, so a fifth of a second of
/// difference between two of them is never called a regression, whatever
/// share of the smaller one it is.
const SETUP_SLACK_S: f64 = 0.2;

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload reports every one of these from its traced run; a
/// metric whose layer the workload does not exercise reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // accfg-workloads
    layer("workloads.fill_inputs_us_per_req", "us", Better::Lower),
    layer("workloads.check_result_us_per_req", "us", Better::Lower),
    layer("workloads.check_result_share", "ratio", Better::Lower),
    layer("workloads.ref_macs_per_req", "count", Better::Lower),
    layer("workloads.gen_stream_us_per_req", "us", Better::Lower),
    layer("workloads.matmul_ir_us_per_module", "us", Better::Lower),
    // accfg-ir + accfg (core)
    layer("core.pipeline_us_per_module", "us", Better::Lower),
    layer("core.interpret_us_per_module", "us", Better::Lower),
    layer("core.ir_ops_before", "count", Better::Lower),
    layer("core.ir_ops_after", "count", Better::Lower),
    layer("core.static_writes_base", "writes", Better::Lower),
    layer("core.static_writes_all", "writes", Better::Lower),
    // accfg-targets
    layer("targets.compile_us_per_module", "us", Better::Lower),
    layer("targets.program_insts", "count", Better::Lower),
    // accfg-sim
    layer("sim.run_us_per_req", "us", Better::Lower),
    layer("sim.run_share", "ratio", Better::Lower),
    layer("sim.host_ns_per_sim_inst", "ns", Better::Lower),
    layer("sim.host_ns_per_mac", "ns", Better::Lower),
    layer("sim.insts_per_req", "count", Better::Lower),
    layer("sim.launches_per_req", "count", Better::Lower),
    layer("sim.config_bytes_per_req", "bytes", Better::Lower),
    layer("sim.contention_cycles", "cycles", Better::Lower),
    layer("sim.boost_launch_share", "ratio", Better::Higher),
    layer("sim.capacity_req_per_mcycle", "1/Mcycle", Better::Higher),
    // accfg-runtime
    layer("runtime.cache.resolve_us_per_req", "us", Better::Lower),
    layer("runtime.cache.hit_rate", "ratio", Better::Higher),
    layer("runtime.cache.build_us_per_module", "us", Better::Lower),
    layer("runtime.plan.delta_program_us_per_req", "us", Better::Lower),
    layer("runtime.plan.from_trace_us_per_module", "us", Better::Lower),
    layer("runtime.plan.distinct_transitions", "count", Better::Lower),
    layer("runtime.plan.elision_rate", "ratio", Better::Higher),
    layer("runtime.scheduler.route_us_per_req", "us", Better::Lower),
    layer("runtime.scheduler.queue_depth_p99", "count", Better::Lower),
    layer("runtime.scheduler.ewma_mae", "cycles", Better::Lower),
    layer("runtime.scheduler.anchor_mae", "cycles", Better::Lower),
    layer("runtime.metrics.to_json_us", "us", Better::Lower),
    layer("runtime.persist.encode_us_per_module", "us", Better::Lower),
    layer("runtime.persist.decode_us_per_module", "us", Better::Lower),
    layer("runtime.persist.bytes_per_module", "bytes", Better::Lower),
    layer("runtime.engine.other_us_per_req", "us", Better::Lower),
    layer("runtime.engine.coverage", "ratio", Better::Higher),
    layer("runtime.engine.inline_req_per_s", "1/s", Better::Higher),
    layer("runtime.engine.oracle_req_per_s", "1/s", Better::Higher),
    layer("runtime.engine.par2_req_per_s", "1/s", Better::Higher),
    layer("runtime.engine.handoff_us_per_req", "us", Better::Lower),
    layer("runtime.engine.diff_mismatches", "count", Better::Lower),
    // accfg-store
    layer("store.put_us_per_record", "us", Better::Lower),
    layer("store.open_replay_us_per_record", "us", Better::Lower),
    layer("store.file_bytes", "bytes", Better::Lower),
    // the paper's headline results (paper_sweep)
    layer("paper.speedup_opengemm", "ratio", Better::Higher),
    layer("paper.speedup_gemmini", "ratio", Better::Higher),
    layer("paper.err_opengemm", "ratio", Better::Lower),
    layer("paper.err_gemmini", "ratio", Better::Lower),
    // the process and the trace itself
    layer("proc.cpu_over_wall", "ratio", Better::Higher),
    layer("proc.trials", "count", Better::Higher),
    layer("proc.peak_rss_mb", "MiB", Better::Lower),
    layer("trace.overhead_ratio", "ratio", Better::Lower),
    layer("trace.replay_mismatches", "count", Better::Lower),
    layer("trace.route_mismatches", "count", Better::Lower),
];

/// The repetitions of one host-clock timing within a run: median,
/// quartiles and count, reported beside the value.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub trials: usize,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Self {
        let (q1, q3) = stats::quartiles(samples);
        Self {
            median: stats::median(samples),
            q1,
            q3,
            trials: samples.len(),
        }
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has (Rust prints an
/// `f64` in full and without an exponent). JSON has no NaN or infinity:
/// `run_workload` counts a non-finite metric as a failure before it gets
/// here, and it is rendered as 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// Median, quartiles and count of a host timing's repetitions.
    pub timing: Option<Timing>,
    /// `false` when the noise guard found the timing unsettled.
    pub resolved: bool,
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub quick: bool,
    pub attempted: u64,
    /// Failed operations and violated checks: how many, and why (printed
    /// loudly, kept in the detail file).
    pub failures: Vec<(u64, String)>,
    pub fingerprint: u64,
    pub cpu_over_wall: f64,
    /// The calibration kernel's fastest time during the run, in seconds.
    pub calibration_s: f64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failures.iter().map(|(count, _)| count).sum()
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0,
            self.attempted,
            self.failed(),
            metrics.join(", ")
        )
    }

    /// The detail document the suite merges: the result line's content
    /// plus quartiles, trial counts, the noise guard's verdicts, the
    /// stream fingerprint and the failure reasons.
    pub fn detail_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = format!(
                    "\"value\": {}, \"unit\": {}",
                    json_number(m.value),
                    json_string(m.unit)
                );
                if let Some(t) = m.timing {
                    let _ = write!(
                        fields,
                        ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"trials\": {}, \"resolved\": {}",
                        json_number(t.median),
                        json_number(t.q1),
                        json_number(t.q3),
                        t.trials,
                        m.resolved
                    );
                }
                format!("    {}: {{{fields}}}", json_string(m.name))
            })
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|(count, reason)| json_string(&format!("{count}: {reason}")))
            .collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"traced\": {},\n  \"quick\": {},\n  \
             \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \
             \"fingerprint\": {},\n  \"cpu_over_wall\": {},\n  \"calibration_s\": {},\n  \
             \"metrics\": {{\n{}\n  }}\n}}",
            json_string(&self.workload),
            self.seed,
            self.traced,
            self.quick,
            self.failed() == 0,
            self.attempted,
            self.failed(),
            failures.join(", "),
            json_string(&format!("{:#018x}", self.fingerprint)),
            json_number(self.cpu_over_wall),
            json_number(self.calibration_s),
            metrics.join(",\n")
        )
    }

    /// Every metric by name with its unit, for a person to read.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(
                out,
                "  {:<44} {:>20} {:<9} ({} is better)",
                m.name,
                json_number(m.value),
                m.unit,
                m.better.label()
            );
            if let Some(t) = m.timing {
                let _ = write!(
                    out,
                    " median {} q1 {} q3 {} of {}{}",
                    json_number(t.median),
                    json_number(t.q1),
                    json_number(t.q3),
                    t.trials,
                    if m.resolved { "" } else { "  UNRESOLVED" }
                );
            }
            out.push('\n');
        }
        out
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or exactly equal, for an exact metric).
    Same,
    /// `b` is better than `a` by more than the bound. Not a verified
    /// gain: that takes the paired runs the README describes.
    Better,
    /// `b` is worse than `a` by more than the bound, or an exact metric
    /// differs at all.
    Worse,
    /// The noise guard marked one side's timing as too scattered.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares two suite result files (`a` the parent or first run, `b` the
/// change or second run) under the benchmark's own bounds, one row per
/// workload and end-to-end metric plus one for `failed`. With equal
/// seeds and scale, simulated metrics and `failed` must match exactly;
/// host metrics may differ by their bound. `symmetric` also flags `b`
/// being *better* than `a` beyond the bound as a disagreement — what two
/// runs of the same code must not show.
///
/// # Errors
/// Fails if either document is not a suite result file.
pub fn compare(a: &Json, b: &Json, symmetric: bool) -> Result<(Vec<Row>, bool), String> {
    let same_inputs = a.get("seed") == b.get("seed") && a.get("quick") == b.get("quick");
    let workloads = |doc: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::entries)
            .ok_or("no `workloads` object: not a suite result file")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    let mut agree = true;
    for (name, da) in &wa {
        let Some((_, db)) = wb.iter().find(|(n, _)| n == name) else {
            return Err(format!("workload `{name}` is missing from the second file"));
        };
        let number = |doc: &Json, path: &[&str]| -> Result<f64, String> {
            let mut cur = doc;
            for key in path {
                cur = cur
                    .get(key)
                    .ok_or_else(|| format!("`{name}` lacks `{}`", path.join(".")))?;
            }
            match cur {
                Json::Num(n) => Ok(*n),
                _ => Err(format!("`{name}`: `{}` is not a number", path.join("."))),
            }
        };
        let resolved = |doc: &Json, metric: &str| {
            doc.get("untraced")
                .and_then(|u| u.get("metrics"))
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("resolved"))
                != Some(&Json::Bool(false))
        };
        for e in END_TO_END {
            let va = number(da, &["untraced", "metrics", e.name, "value"])?;
            let vb = number(db, &["untraced", "metrics", e.name, "value"])?;
            let exact = e.simulated && same_inputs;
            // positive = b is worse, as a share of a
            let worse_by = match e.better {
                Better::Lower => (vb - va) / va.abs(),
                Better::Higher => (va - vb) / va.abs(),
            };
            let verdict = if exact {
                if va == vb {
                    Verdict::Same
                } else {
                    Verdict::Worse
                }
            } else if e.name == "setup_s" && (va - vb).abs() <= SETUP_SLACK_S {
                Verdict::Same
            } else if !resolved(da, e.name) || !resolved(db, e.name) {
                Verdict::Unresolved
            } else if worse_by > e.bound {
                Verdict::Worse
            } else if worse_by < -e.bound {
                Verdict::Better
            } else {
                Verdict::Same
            };
            agree &= verdict != Verdict::Worse && !(symmetric && verdict == Verdict::Better);
            rows.push(Row {
                workload: name.clone(),
                metric: e.name.to_string(),
                a: va,
                b: vb,
                verdict,
            });
        }
        let failed = |doc: &Json| -> Result<f64, String> {
            Ok(number(doc, &["untraced", "failed"])? + number(doc, &["traced", "failed"])?)
        };
        let (fa, fb) = (failed(da)?, failed(db)?);
        let verdict = if fb > fa || (symmetric && fa != fb) {
            Verdict::Worse
        } else {
            Verdict::Same
        };
        agree &= verdict != Verdict::Worse;
        rows.push(Row {
            workload: name.clone(),
            metric: "failed".into(),
            a: fa,
            b: fb,
            verdict,
        });
    }
    Ok((rows, agree))
}

/// The comparison as a table, one row per workload and metric.
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<22} {:>18} {:>18} {:>9}  verdict\n",
        "workload", "metric", "a", "b", "b/a"
    );
    for r in rows {
        let ratio = if r.a == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4}", r.b / r.a)
        };
        let _ = writeln!(
            out,
            "{:<14} {:<22} {:>18} {:>18} {:>9}  {}",
            r.workload,
            r.metric,
            json_number(r.a),
            json_number(r.b),
            ratio,
            r.verdict.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use accfg_bench::json::{parse, validate};

    fn sample() -> RunResult {
        RunResult {
            workload: "mixed \"quoted\"\n".into(),
            seed: 7,
            traced: false,
            quick: true,
            attempted: 10,
            failures: vec![(1, "stream fingerprint \\ mismatch".into())],
            fingerprint: 0xAB,
            cpu_over_wall: 0.98,
            calibration_s: 0.0221,
            metrics: vec![
                Metric {
                    name: "host_req_per_s",
                    unit: "1/s",
                    better: Better::Higher,
                    value: 10989.25,
                    timing: Some(Timing::of(&[1.0, 2.0, 4.0])),
                    resolved: false,
                },
                Metric {
                    name: "sim_p99_cycles",
                    unit: "cycles",
                    better: Better::Lower,
                    value: 1127.0,
                    timing: None,
                    resolved: true,
                },
                Metric {
                    name: "nan",
                    unit: "ratio",
                    better: Better::Lower,
                    value: f64::NAN,
                    timing: None,
                    resolved: true,
                },
            ],
        }
    }

    #[test]
    fn result_line_is_strict_json_with_exactly_the_contract_keys() {
        let line = sample().result_line();
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        let m = doc.get("metrics").unwrap().get("host_req_per_s").unwrap();
        assert_eq!(m.get("value"), Some(&Json::Num(10989.25)));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("1/s"));
        assert_eq!(m.entries().unwrap().len(), 2);
    }

    #[test]
    fn detail_document_is_strict_json() {
        let detail = sample().detail_json();
        validate(&detail).unwrap();
        let doc = parse(&detail).unwrap();
        assert_eq!(
            doc.get("workload").and_then(Json::as_str),
            Some("mixed \"quoted\"\n")
        );
        let m = doc.get("metrics").unwrap().get("host_req_per_s").unwrap();
        assert_eq!(m.get("resolved"), Some(&Json::Bool(false)));
        assert_eq!(m.get("trials").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn numbers_keep_their_digits_and_never_render_non_finite() {
        assert_eq!(json_number(12.0), "12");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::INFINITY), "0");
        assert_eq!(json_number(-3.5), "-3.5");
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|p| p.name));
        let valid = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for name in &names {
            assert!(name.len() <= 64 && valid(name, "_.-"), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
        }
        for unit in END_TO_END
            .iter()
            .map(|e| e.unit)
            .chain(PER_LAYER.iter().map(|p| p.unit))
        {
            assert!(unit.len() <= 16 && valid(unit, "_/%.-"), "{unit}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics and workloads the harness reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("`{key}` is not an array"),
        };
        let text =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, e) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(item, "name"), e.name);
            assert_eq!(text(item, "unit"), e.unit);
            assert_eq!(text(item, "better"), e.better.label());
            assert_eq!(item.get("bound"), Some(&Json::Num(e.bound)), "{}", e.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, p) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(item, "name"), p.name);
            assert_eq!(text(item, "unit"), p.unit);
            assert_eq!(text(item, "better"), p.better.label());
        }
        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, crate::workloads::names());
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    /// A one-workload suite file with the given values (every other
    /// metric reads 1).
    fn suite(seed: u64, values: &[(&str, f64)], failed: u64, resolved: bool) -> Json {
        let mut e2e = String::new();
        for e in END_TO_END {
            let value = values
                .iter()
                .find(|(n, _)| *n == e.name)
                .map_or(1.0, |(_, v)| *v);
            let _ = write!(
                e2e,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\", \"resolved\": {}}}",
                if e2e.is_empty() { "" } else { ", " },
                e.name,
                e.unit,
                resolved || e.name != "host_req_per_s"
            );
        }
        parse(&format!(
            "{{\"seed\": {seed}, \"quick\": false, \"workloads\": {{\"mixed\": \
             {{\"untraced\": {{\"failed\": {failed}, \"metrics\": {{{e2e}}}}}, \
             \"traced\": {{\"failed\": 0}}}}}}}}"
        ))
        .unwrap()
    }

    fn host(req_per_s: f64, p99: f64) -> [(&'static str, f64); 2] {
        [("host_req_per_s", req_per_s), ("sim_p99_cycles", p99)]
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn compare_applies_bounds_to_host_metrics_and_equality_to_simulated_ones() {
        let base = suite(1, &host(1000.0, 500.0), 0, true);
        // 20 % slower is inside the 25 % bound
        let (rows, agree) = compare(&base, &suite(1, &host(800.0, 500.0), 0, true), false).unwrap();
        assert!(agree);
        assert_eq!(verdict_of(&rows, "host_req_per_s"), Verdict::Same);
        assert_eq!(rows.len(), END_TO_END.len() + 1);
        // 30 % slower is a regression
        let (rows, agree) = compare(&base, &suite(1, &host(700.0, 500.0), 0, true), false).unwrap();
        assert!(!agree);
        assert_eq!(verdict_of(&rows, "host_req_per_s"), Verdict::Worse);
        // 30 % faster passes a parent-vs-change comparison, not a self-check
        let faster = suite(1, &host(1300.0, 500.0), 0, true);
        assert!(compare(&base, &faster, false).unwrap().1);
        assert!(!compare(&base, &faster, true).unwrap().1);
        // one simulated cycle of difference on the same seed is a mismatch
        let (rows, agree) =
            compare(&base, &suite(1, &host(1000.0, 501.0), 0, true), false).unwrap();
        assert!(!agree);
        assert_eq!(verdict_of(&rows, "sim_p99_cycles"), Verdict::Worse);
        // ... but on another seed the bound applies
        assert!(
            compare(&base, &suite(2, &host(1000.0, 501.0), 0, true), false)
                .unwrap()
                .1
        );
    }

    #[test]
    fn compare_gives_short_set_ups_an_absolute_slack() {
        let base = suite(1, &[("setup_s", 0.30)], 0, true);
        // 50 % slower, but 0.15 s: not a regression
        assert!(
            compare(&base, &suite(1, &[("setup_s", 0.45)], 0, true), true)
                .unwrap()
                .1
        );
        // 0.3 s and 100 % slower: one
        let (rows, agree) =
            compare(&base, &suite(1, &[("setup_s", 0.60)], 0, true), false).unwrap();
        assert!(!agree);
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Worse);
    }

    #[test]
    fn compare_reports_unresolved_timings_and_new_failures() {
        let base = suite(1, &host(1000.0, 500.0), 0, true);
        let (rows, agree) =
            compare(&base, &suite(1, &host(500.0, 500.0), 0, false), false).unwrap();
        assert!(agree, "an unresolved timing is not called a regression");
        assert_eq!(verdict_of(&rows, "host_req_per_s"), Verdict::Unresolved);
        let (rows, agree) =
            compare(&base, &suite(1, &host(1000.0, 500.0), 2, true), false).unwrap();
        assert!(!agree);
        assert_eq!(verdict_of(&rows, "failed"), Verdict::Worse);
        assert!(compare(&base, &parse("{}").unwrap(), false).is_err());
    }
}
