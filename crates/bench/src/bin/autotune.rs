//! The deterministic serving-knob autotuner.
//!
//! Searches the serving knob space — routing policy, `load_slack`,
//! `batch_cutoff`, `max_batch`, and (on timing-model pools) the thermal
//! knobs `power_cap` and DVFS table variant — per stream, using capped-run
//! racing plus local refinement around the incumbent (see `accfg_bench::tune`).
//! Tuning runs on the *seed* streams only; the winning configuration is
//! then transferred unchanged to the *held-out* streams and reported there,
//! the standard guard against overfitting a tuner to its own benchmark.
//!
//! Every serve is a deterministic simulation, so the emitted `TUNED.json`
//! is byte-identical across runs and machines — CI re-runs the tuner and
//! `cmp`s the artifact. `serve_bench --tuned TUNED.json` replays the tuned
//! rows next to the stock policies.
//!
//! ```text
//! cargo run --release -p accfg-bench --bin autotune [-- options]
//!   --requests N        requests per evaluation serve (default 4000)
//!   --out PATH          output table (default TUNED.json)
//!   --refine-rounds N   local-refinement rounds after the grid (default 2)
//!   --no-racing         full-length evaluations (same winner, more cycles)
//!   --tune-streams A,B  seed streams to tune on (default mixed,bursty)
//!   --held-out A,B      held-out streams to report (default contention,hetero)
//! ```
//!
//! There is deliberately no `--store` flag: candidate serves are capped and
//! may abort, and an aborted serve must never flush partial EWMA state to a
//! warm-start store. The engine already guarantees aborted serves persist
//! nothing; the tuner additionally never opens a store at all.

use accfg_bench::tune::{
    evaluate, knob_space, render_table, tune_stream, Eval, KnobConfig, Objective, StreamEntry,
    TuneOptions,
};
use accfg_bench::{markdown_table, streams};
use accfg_runtime::PoolConfig;
use accfg_workloads::TrafficRequest;

/// Requests per evaluation serve in the default invocation.
const DEFAULT_REQUESTS: usize = 4_000;
/// The committed artifact name.
const DEFAULT_OUT: &str = "TUNED.json";
/// The default seed streams (tuned on).
const DEFAULT_TUNE: &str = "mixed,bursty";
/// The default held-out streams (reported only).
const DEFAULT_HELD_OUT: &str = "contention,hetero";

fn resolve(name: &str, requests: usize) -> (Vec<TrafficRequest>, PoolConfig) {
    streams::named_stream(name, requests).unwrap_or_else(|| {
        let catalog = streams::catalog(1);
        let tunable: Vec<&str> = catalog
            .iter()
            .filter(|entry| entry.tunable)
            .map(|entry| entry.name)
            .collect();
        panic!(
            "unknown or untunable stream `{name}` (tunable: {})",
            tunable.join(", ")
        )
    })
}

fn must_complete(eval: Eval) -> Objective {
    match eval {
        Eval::Complete(obj) => obj,
        Eval::Aborted => unreachable!("unbudgeted serves never abort"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut requests = DEFAULT_REQUESTS;
    let mut out_path = DEFAULT_OUT.to_string();
    let mut opts = TuneOptions::default();
    let mut tune_names = DEFAULT_TUNE.to_string();
    let mut held_out_names = DEFAULT_HELD_OUT.to_string();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--requests" => {
                requests = value(i).parse().expect("--requests takes a count");
                i += 2;
            }
            "--out" => {
                out_path = value(i).clone();
                i += 2;
            }
            "--refine-rounds" => {
                opts.refine_rounds = value(i).parse().expect("--refine-rounds takes a count");
                i += 2;
            }
            "--no-racing" => {
                opts.racing = false;
                i += 1;
            }
            "--tune-streams" => {
                tune_names = value(i).clone();
                i += 2;
            }
            "--held-out" => {
                held_out_names = value(i).clone();
                i += 2;
            }
            "--store" => panic!(
                "autotune does not support --store: candidate serves are capped and may \
                 abort, and an aborted serve must not feed a warm-start store"
            ),
            other => panic!(
                "unknown argument `{other}` (supported: --requests, --out, \
                 --refine-rounds, --no-racing, --tune-streams, --held-out)"
            ),
        }
    }
    let tune_streams: Vec<&str> = tune_names.split(',').filter(|s| !s.is_empty()).collect();
    let held_out: Vec<&str> = held_out_names
        .split(',')
        .filter(|s| !s.is_empty())
        .collect();
    assert!(
        !tune_streams.is_empty(),
        "--tune-streams must name a stream"
    );

    // Non-default invocations must not clobber the committed default table.
    let defaults = TuneOptions::default();
    assert!(
        (requests == DEFAULT_REQUESTS
            && opts.racing == defaults.racing
            && opts.refine_rounds == defaults.refine_rounds
            && tune_names == DEFAULT_TUNE
            && held_out_names == DEFAULT_HELD_OUT)
            || std::path::Path::new(&out_path).file_name()
                != std::path::Path::new(DEFAULT_OUT).file_name(),
        "refusing to overwrite the default {DEFAULT_OUT} with a non-default \
         invocation; pass --out to write elsewhere"
    );

    // Tune every seed stream independently.
    let mut entries: Vec<StreamEntry> = Vec::new();
    let mut seeds = Vec::new();
    for name in &tune_streams {
        let (stream, pool) = resolve(name, requests);
        let thermal = pool
            .groups
            .iter()
            .any(|g| g.members.iter().any(|m| !m.timing.is_identity()));
        let space = knob_space(thermal);
        eprintln!(
            "tuning `{name}`: {} candidates ({} requests per serve, racing {})",
            space.len(),
            requests,
            if opts.racing { "on" } else { "off" }
        );
        let result = tune_stream(name, &pool, &stream, &space, &opts);
        eprintln!(
            "  {} evaluations ({} capped aborts): default p99 {} writes {} -> tuned p99 {} writes {} [{}]",
            result.evaluations,
            result.aborts,
            result.default_objective.p99,
            result.default_objective.setup_writes,
            result.objective.p99,
            result.objective.setup_writes,
            if result.improved { "improved" } else { "no dominating config" },
        );
        entries.push(StreamEntry {
            name: (*name).to_string(),
            role: "seed",
            source: "search".to_string(),
            knobs: result.knobs,
            default: result.default_objective,
            tuned: result.objective,
            evaluations: result.evaluations,
            aborts: result.aborts,
        });
        seeds.push((pool, stream, result));
    }

    // Pick the transfer configuration for the held-out streams using seed
    // data only: among the per-stream winners, the one that weakly
    // dominates the default on *every* seed stream, by largest summed
    // relative improvement. If none qualifies the defaults transfer
    // (zero-delta, trivially regression-free).
    let mut transfer_source = "default".to_string();
    let mut transfer = KnobConfig::default().canonical();
    let mut transfer_score = 0.0f64;
    let mut candidates: Vec<(&str, KnobConfig)> = Vec::new();
    for (_, _, result) in &seeds {
        if result.improved && !candidates.iter().any(|(_, k)| *k == result.knobs) {
            candidates.push((&result.stream, result.knobs));
        }
    }
    for (src, knobs) in candidates {
        let mut qualified = true;
        let mut score = 0.0f64;
        for (pool, stream, result) in &seeds {
            let obj = must_complete(evaluate(pool, stream, &knobs, None));
            let default = result.default_objective;
            if obj.p99 > default.p99 || obj.setup_writes > default.setup_writes {
                qualified = false;
                break;
            }
            score += (default.p99 - obj.p99) as f64 / default.p99.max(1) as f64
                + (default.setup_writes - obj.setup_writes) as f64
                    / default.setup_writes.max(1) as f64;
        }
        if qualified && score > transfer_score {
            transfer_source = src.to_string();
            transfer = knobs;
            transfer_score = score;
        }
    }
    eprintln!(
        "transfer config from `{transfer_source}`: {}",
        transfer.to_json()
    );

    // Report the held-out streams under the transferred configuration.
    // A regression here means the tuner overfit its seed streams; since
    // every serve is deterministic this is a hard failure, not a sample.
    for name in &held_out {
        let (stream, pool) = resolve(name, requests);
        let default = must_complete(evaluate(
            &pool,
            &stream,
            &KnobConfig::default().canonical(),
            None,
        ));
        let tuned = must_complete(evaluate(&pool, &stream, &transfer, None));
        assert!(
            tuned.p99 <= default.p99 && tuned.setup_writes <= default.setup_writes,
            "held-out stream `{name}` regressed under the transferred config: \
             default p99 {} writes {} -> tuned p99 {} writes {}",
            default.p99,
            default.setup_writes,
            tuned.p99,
            tuned.setup_writes
        );
        entries.push(StreamEntry {
            name: (*name).to_string(),
            role: "held_out",
            source: transfer_source.clone(),
            knobs: transfer,
            default,
            tuned,
            evaluations: 0,
            aborts: 0,
        });
    }

    let table = render_table(requests, &opts, &entries);
    std::fs::write(&out_path, &table).expect("write tuned table");

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.name.clone(),
                e.role.to_string(),
                e.knobs.policy.label().to_string(),
                format!(
                    "{}/{}",
                    e.knobs.load_slack,
                    e.knobs
                        .batch_cutoff
                        .map_or("none".to_string(), |c| c.to_string())
                ),
                e.knobs.max_batch.to_string(),
                format!("{} -> {}", e.default.p99, e.tuned.p99),
                format!("{} -> {}", e.default.setup_writes, e.tuned.setup_writes),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "stream",
                "role",
                "policy",
                "slack/cutoff",
                "batch",
                "p99 default -> tuned",
                "writes default -> tuned",
            ],
            &rows
        )
    );
    println!("tuned table written to {out_path}");
}
