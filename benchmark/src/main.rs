//! The repository benchmark.
//!
//! ```text
//! accfg-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! accfg-benchmark [--seed <n>] [--seconds <s>] [--quick] [--selfcheck] [--record]
//! accfg-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form runs one workload and prints, as its last line, the
//! result object the driver reads. The second runs every workload — each
//! in a process of its own, untraced and then traced — prints every metric
//! and writes `benchmark/out/latest.json`. The third compares two such
//! files under the benchmark's own bounds. `benchmark/README.md` has the
//! method.

mod modules;
mod proc;
mod replay;
mod report;
mod stats;
mod sweep;
mod trace;
mod workloads;

#[global_allocator]
static ALLOCATOR: proc::CountingAlloc = proc::CountingAlloc;

use proc::Calibration;
use report::{Metric, RunResult, Timing, END_TO_END, PER_LAYER};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{Sim, DEFAULT_SEED, OUT_DIR, WORKLOADS};

/// Set-ups per untraced run: some before the timed trials and the rest
/// after them, so that a slow phase of the host is less likely to cover
/// them all.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;
/// Seconds one run measures for when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 15;
/// The file `--record` writes: the numbers of the latest full run, with
/// the host facts, beside the committed benchmark definition.
const BASELINE: &str = "benchmark/baseline.json";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
    selfcheck: bool,
    record: bool,
}

fn usage() -> String {
    format!(
        "usage: accfg-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n       \
         accfg-benchmark [--seed <n>] [--seconds <s>] [--quick] [--selfcheck] [--record]\n       \
         accfg-benchmark compare <a.json> <b.json>",
        workloads::names().join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        selfcheck: false,
        record: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs {what}\n{}", usage()))
        };
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("`{flag} {text}`: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => args.seed = number(value("a seed")?)?,
            "--seconds" => args.seconds = number(value("a number of seconds")?)?,
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("`--trace {other}`: 0 or 1")),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if args.quick && args.record {
        return Err(
            "--quick runs a tenth of the work: it will not update the recorded numbers".into(),
        );
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        match &argv[1..] {
            [a, b] => compare_files(Path::new(a), Path::new(b), false),
            _ => Err(usage()),
        }
    } else if !Path::new("benchmark/Cargo.toml").is_file() {
        // everything is written under `benchmark/out`, relative to here
        Err("run me from the checkout root (benchmark/run.sh does)".into())
    } else {
        parse_args(&argv).and_then(|args| match &args.workload {
            Some(name) => run_workload(name, &args).map(|_| true),
            None if args.selfcheck => selfcheck(&args),
            None => suite(&args, "latest.json").map(|(_, ok)| ok),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("accfg-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload, untraced or traced, and prints the result line.
fn run_workload(name: &str, args: &Args) -> Result<(), String> {
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut result = if args.traced {
        run_traced(name, args)?
    } else {
        run_untraced(name, args)?
    };
    // JSON has no NaN or infinity: a metric that is not a finite number is
    // a failed measurement, not a value
    for m in &result.metrics {
        if !m.value.is_finite() {
            result
                .failures
                .push((1, format!("`{}` is not a finite number", m.name)));
        }
    }
    for (count, reason) in &result.failures {
        eprintln!("FAILED [{name}]: {count}: {reason}");
    }
    let detail = detail_path(name, args.traced);
    fs::write(&detail, result.detail_json()).map_err(|e| format!("{}: {e}", detail.display()))?;
    println!(
        "{name} (seed {}, {}{}): attempted {} failed {} cpu/wall {:.3} calibration {:.6} s",
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        if args.quick { ", quick" } else { "" },
        result.attempted,
        result.failed(),
        result.cpu_over_wall,
        result.calibration_s
    );
    print!("{}", result.table());
    println!("{}", result.result_line());
    Ok(())
}

/// Where one run's detail document goes.
fn detail_path(name: &str, traced: bool) -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("{name}.trace{}.json", u8::from(traced)))
}

/// Checks the generated input against its pin (default seed, full size).
fn check_fingerprint(name: &str, fingerprint: u64, args: &Args, result: &mut RunResult) {
    result.fingerprint = fingerprint;
    if args.seed != DEFAULT_SEED || args.quick {
        return;
    }
    let pinned = WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, f)| *f);
    if pinned != Some(fingerprint) {
        result.failures.push((
            1,
            format!(
                "stream fingerprint {fingerprint:#018x} differs from the pinned {:#018x}: a \
                 generator changed under the benchmark, and numbers from before are not \
                 comparable",
                pinned.unwrap_or(0)
            ),
        ));
    }
}

fn new_result(name: &str, args: &Args) -> RunResult {
    RunResult {
        workload: name.to_string(),
        seed: args.seed,
        traced: args.traced,
        quick: args.quick,
        attempted: 0,
        failures: Vec::new(),
        fingerprint: 0,
        cpu_over_wall: 0.0,
        calibration_s: 0.0,
        metrics: Vec::new(),
    }
}

/// The untraced run: set-up several times, timed trials for `--seconds`,
/// every end-to-end metric.
fn run_untraced(name: &str, args: &Args) -> Result<RunResult, String> {
    let mut result = new_result(name, args);
    let mut calibration = Calibration::new();
    let mut setup_s = Vec::new();
    let mut workload = None;
    let mut set_up = |workload: &mut Option<Box<dyn workloads::Workload>>,
                      calibration: &mut Calibration| {
        // the previous set-up's system is dropped first, so two never
        // coexist in memory
        drop(workload.take());
        let started = Instant::now();
        *workload = Some(workloads::setup(name, args.seed, args.quick)?);
        setup_s.push(started.elapsed().as_secs_f64());
        calibration.sample();
        Ok::<(), String>(())
    };
    for _ in 0..if args.quick { 1 } else { SETUPS_BEFORE } {
        set_up(&mut workload, &mut calibration)?;
    }
    let mut workload = workload.expect("at least one set-up");
    check_fingerprint(name, workload.fingerprint(), args, &mut result);

    let mut trials = Vec::new();
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    loop {
        trials.push(workload.trial()?);
        calibration.sample();
        let enough = if args.quick {
            trials.len() >= 3
        } else {
            trials.len() >= 3 && started.elapsed() >= budget
        };
        if enough {
            break;
        }
    }

    // every trial must give the first trial's simulated outcome; the
    // reported simulated metrics come from the reference serve where the
    // workload has one
    let first: Sim = trials[0].sim;
    let reported: Sim = match workload.reference()? {
        Some(reference) => {
            result.attempted += reference.ops;
            for (count, reason) in reference.failures {
                result
                    .failures
                    .push((count, format!("reference serve: {reason}")));
            }
            reference.sim
        }
        None => first,
    };
    let mut workload = Some(workload);
    for _ in 0..if args.quick { 0 } else { SETUPS_AFTER } {
        set_up(&mut workload, &mut calibration)?;
    }
    drop(workload);
    let mut rates = Vec::new();
    let mut fastest_s = vec![f64::INFINITY; trials[0].segments_s.len()];
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    for (i, trial) in trials.iter().enumerate() {
        result.attempted += trial.ops;
        for (count, reason) in &trial.failures {
            result
                .failures
                .push((*count, format!("trial {i}: {reason}")));
        }
        if trial.sim != first {
            result.failures.push((
                1,
                format!(
                    "trial {i}: simulated outcomes {:?} differ from the first trial's {first:?}",
                    trial.sim
                ),
            ));
        }
        let trial_s: f64 = trial.segments_s.iter().sum();
        rates.push(trial.ops as f64 / trial_s);
        for (fastest, s) in fastest_s.iter_mut().zip(&trial.segments_s) {
            *fastest = fastest.min(*s);
        }
        wall_s += trial_s;
        cpu_s += trial.cpu_s;
    }
    result.cpu_over_wall = cpu_s / wall_s;
    result.calibration_s = calibration.fastest_s();
    println!(
        "  per trial, ops/s: {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Interference from the shared host only ever adds time, and comes
    // and goes within tens of milliseconds, so a host timing is its least
    // disturbed repetition: the fastest set-up, and for the rate each
    // segment's fastest timing. The repetitions' median and quartiles are
    // reported beside it. The host's speed also drifts as a whole, so
    // both are then put in calibrated seconds (see `Calibration`).
    let scale = calibration.scale();
    let fastest_setup_s = setup_s.iter().copied().fold(f64::INFINITY, f64::min) * scale;
    let rate = trials[0].ops as f64 / (fastest_s.iter().sum::<f64>() * scale);
    println!(
        "  calibration kernel {:.6} s: a host second is {scale:.4} calibrated seconds",
        calibration.fastest_s()
    );
    // the noise guard: the rate is settled when the three fastest trials
    // lie within its bound of each other
    let mut fastest_rates = rates.clone();
    fastest_rates.sort_by(|a, b| b.partial_cmp(a).expect("finite rates"));
    for e in END_TO_END {
        let (value, timing, resolved) = match e.name {
            // a handful of samples by design: never called unresolved
            "setup_s" => (fastest_setup_s, Some(Timing::of(&setup_s)), true),
            "host_req_per_s" => (
                rate,
                Some(Timing::of(&rates)),
                fastest_rates[2] >= fastest_rates[0] * (1.0 - e.bound) || args.quick,
            ),
            "peak_heap_mb" => (proc::peak_heap_mib(), None, true),
            "sim_p50_cycles" => (reported.p50 as f64, None, true),
            "sim_p99_cycles" => (reported.p99 as f64, None, true),
            "sim_setup_writes" => (reported.setup_writes as f64, None, true),
            "sim_makespan_cycles" => (reported.makespan as f64, None, true),
            other => unreachable!("end-to-end metric `{other}` has no measurement"),
        };
        result.metrics.push(Metric {
            name: e.name,
            unit: e.unit,
            better: e.better,
            value,
            timing,
            resolved,
        });
    }
    Ok(result)
}

/// The traced run: every per-layer metric, spans written out at the end.
fn run_traced(name: &str, args: &Args) -> Result<RunResult, String> {
    let mut result = new_result(name, args);
    let mut workload = workloads::setup(name, args.seed, args.quick)?;
    check_fingerprint(name, workload.fingerprint(), args, &mut result);

    // quick mode makes one pass of everything: its deadline is now
    let seconds = if args.quick { 0 } else { args.seconds };
    let mut calibration = Calibration::new();
    calibration.sample();
    let (mut traced, tracer) = workload.trace(
        Instant::now() + Duration::from_secs(seconds),
        &mut calibration,
    )?;
    result.calibration_s = calibration.fastest_s();
    result.attempted = traced.attempted;
    result.failures.append(&mut traced.failures);
    result.cpu_over_wall = traced.cpu_s / traced.wall_s;
    traced
        .layers
        .insert("proc.cpu_over_wall", result.cpu_over_wall);
    traced.layers.insert("proc.trials", traced.trials as f64);
    traced
        .layers
        .insert("proc.peak_rss_mb", proc::peak_rss_mib());
    // host times into calibrated seconds, by their unit
    let scale = calibration.scale();
    result.metrics = PER_LAYER
        .iter()
        .map(|p| {
            let value = traced.layers.remove(p.name).unwrap_or(0.0);
            Metric {
                name: p.name,
                unit: p.unit,
                better: p.better,
                value: match p.unit {
                    "us" | "ns" => value * scale,
                    "1/s" => value / scale,
                    _ => value,
                },
                timing: None,
                resolved: true,
            }
        })
        .collect();
    assert!(
        traced.layers.is_empty(),
        "traced metrics missing from the PER_LAYER table: {:?}",
        traced.layers.keys()
    );

    let spans = PathBuf::from(OUT_DIR).join(format!("trace_{name}.json"));
    fs::write(&spans, tracer.to_json()).map_err(|e| format!("{}: {e}", spans.display()))?;
    println!(
        "  spans written to {} (this host's own seconds):",
        spans.display()
    );
    for (span, t) in tracer.totals() {
        println!(
            "    {span:<28} {:>7} x  total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok(result)
}

/// Runs every workload, untraced then traced, each in its own process (so
/// peak memory and CPU time are that workload's alone), and writes the
/// merged result file. Returns its path and whether nothing failed.
fn suite(args: &Args, file: &str) -> Result<(PathBuf, bool), String> {
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut sections = Vec::new();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let mut details = Vec::new();
        for traced in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                cmd.arg("--quick");
            }
            // `status` waits for the child; its output goes straight to
            // this process's own
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!(
                    "workload `{name}` (traced: {traced}) exited with {status}"
                ));
            }
            let path = detail_path(name, traced);
            let detail =
                fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = accfg_bench::json::parse(&detail)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            ok &= doc.get("failed").and_then(|f| f.as_u64()) == Some(0);
            details.push(detail);
        }
        sections.push(format!(
            "{}: {{\"untraced\": {}, \"traced\": {}}}",
            report::json_string(name),
            details[0],
            details[1]
        ));
    }
    let doc = format!(
        "{{\"seed\": {}, \"quick\": {}, \"run_seconds\": {}, \"host\": {}, \"workloads\": {{\n{}\n}}}}\n",
        args.seed,
        args.quick,
        args.seconds,
        proc::host_facts_json(),
        sections.join(",\n")
    );
    accfg_bench::json::validate(&doc)
        .map_err(|e| format!("result file is not strict JSON: {e}"))?;
    let path = PathBuf::from(OUT_DIR).join(file);
    fs::write(&path, &doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if args.record {
        if !ok {
            return Err("operations failed: the recorded numbers are left as they were".into());
        }
        fs::write(BASELINE, &doc).map_err(|e| format!("{BASELINE}: {e}"))?;
        println!("wrote {BASELINE}");
    }
    Ok((path, ok))
}

/// Runs the suite twice on this build and compares the two result files
/// under the benchmark's own bounds.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let (a, ok_a) = suite(args, "selfcheck_a.json")?;
    let (b, ok_b) = suite(args, "selfcheck_b.json")?;
    Ok(compare_files(&a, &b, true)? && ok_a && ok_b)
}

fn compare_files(a: &Path, b: &Path, symmetric: bool) -> Result<bool, String> {
    let load = |path: &Path| {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        accfg_bench::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (rows, agree) = report::compare(&load(a)?, &load(b)?, symmetric)?;
    println!("a = {}\nb = {}", a.display(), b.display());
    print!("{}", report::render_rows(&rows));
    println!(
        "{}",
        if agree {
            "the two result files agree within the benchmark's bounds"
        } else {
            "the two result files DISAGREE"
        }
    );
    Ok(agree)
}
