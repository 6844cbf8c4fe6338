//! The deterministic serving-knob autotuner.
//!
//! Searches the serving knob space — routing policy, `load_slack`,
//! `batch_cutoff` and `max_batch` — per stream, on the stream's catalog
//! pool as built, using capped-run racing plus local refinement around
//! the incumbent (see `accfg_bench::tune`).
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
//! ```
//!
//! The seed streams are [`SEED_STREAMS`], the held-out ones
//! [`HELD_OUT_STREAMS`]. Candidate serves are capped and may abort; the
//! tuner never opens a warm-start store, so an aborted serve cannot feed
//! one.

use accfg_bench::tune::{
    evaluate, knob_space, render_table, tune_stream, Eval, KnobConfig, Objective, StreamEntry,
    TuneOptions,
};
use accfg_bench::{cli, markdown_table, streams};
use accfg_runtime::PoolConfig;
use accfg_workloads::TrafficRequest;

/// Requests per evaluation serve in the default invocation.
const DEFAULT_REQUESTS: usize = 4_000;
/// The committed artifact name.
const DEFAULT_OUT: &str = "TUNED.json";
/// The seed streams: tuned on.
const SEED_STREAMS: [&str; 2] = ["mixed", "bursty"];
/// The held-out streams: the transferred configuration is reported on them.
const HELD_OUT_STREAMS: [&str; 2] = ["contention", "hetero"];

fn resolve(name: &str, requests: usize) -> (Vec<TrafficRequest>, PoolConfig) {
    streams::named_stream(name, requests).expect("the seed and held-out streams are tunable")
}

/// What the command line asked for.
struct Cli {
    /// `--requests`: requests per evaluation serve.
    requests: usize,
    /// `--out`.
    out_path: String,
    /// `--refine-rounds`.
    opts: TuneOptions,
}

/// Parses the arguments after the binary's name.
///
/// # Errors
/// Everything the command line alone can get wrong — a missing or
/// malformed value, an unknown flag, an invocation that would overwrite
/// the committed table — as the line `main` prints before exiting with
/// status 2.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut requests = DEFAULT_REQUESTS;
    let mut out_path = DEFAULT_OUT.to_string();
    let mut opts = TuneOptions::default();
    let args = &mut args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => requests = cli::number(args, &arg, "a positive count", 1)?,
            "--out" => out_path = cli::value(args, &arg, "a file path")?,
            "--refine-rounds" => opts.refine_rounds = cli::number(args, &arg, "a count", 0)?,
            other => {
                return Err(format!(
                    "unknown argument `{other}` (supported: --requests, --out, --refine-rounds)"
                ))
            }
        }
    }
    // Non-default invocations must not clobber the committed default table.
    let default_invocation =
        requests == DEFAULT_REQUESTS && opts.refine_rounds == TuneOptions::default().refine_rounds;
    if !default_invocation
        && std::path::Path::new(&out_path).file_name()
            == std::path::Path::new(DEFAULT_OUT).file_name()
    {
        return Err(format!(
            "refusing to overwrite the default {DEFAULT_OUT} with a non-default \
             invocation; pass --out to write elsewhere"
        ));
    }
    Ok(Cli {
        requests,
        out_path,
        opts,
    })
}

fn must_complete(eval: Eval) -> Objective {
    match eval {
        Eval::Complete(obj) => obj,
        Eval::Aborted => unreachable!("unbudgeted serves never abort"),
    }
}

fn main() {
    let Cli {
        requests,
        out_path,
        opts,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| cli::refuse("autotune", &e));

    // Tune every seed stream independently.
    let mut entries: Vec<StreamEntry> = Vec::new();
    let mut seeds = Vec::new();
    let space = knob_space();
    for name in SEED_STREAMS {
        let (stream, pool) = resolve(name, requests);
        eprintln!(
            "tuning `{name}`: {} candidates ({requests} requests per serve)",
            space.len()
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
            name: name.to_string(),
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
    for name in HELD_OUT_STREAMS {
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
            name: name.to_string(),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The refusal for `line`, or `None` if it parses.
    fn refusal(line: &[&str]) -> Option<String> {
        parse_args(line.iter().map(|arg| arg.to_string())).err()
    }

    #[test]
    fn every_flag_refuses_a_missing_value() {
        for flag in ["--requests", "--out", "--refine-rounds"] {
            let message = refusal(&["--out", "x.json", flag]).expect(flag);
            assert!(message.starts_with(&format!("{flag} takes ")), "{message}");
        }
    }

    #[test]
    fn every_flag_refuses_a_malformed_value() {
        let unknown = |flag: &str| {
            format!("unknown argument `{flag}` (supported: --requests, --out, --refine-rounds)")
        };
        for (flag, bad, says) in [
            (
                "--requests",
                "-1",
                "--requests takes a positive count (got `-1`)".to_string(),
            ),
            (
                "--requests",
                "0",
                "--requests takes a positive count (got `0`)".to_string(),
            ),
            (
                "--requests",
                "many",
                "--requests takes a positive count (got `many`)".to_string(),
            ),
            (
                "--refine-rounds",
                "-2",
                "--refine-rounds takes a count (got `-2`)".to_string(),
            ),
            (
                "--refine-rounds",
                "2.5",
                "--refine-rounds takes a count (got `2.5`)".to_string(),
            ),
            // flags the binary no longer has are unknown arguments
            ("--no-racing", "x", unknown("--no-racing")),
            ("--tune-streams", "mixed", unknown("--tune-streams")),
            ("--held-out", "hetero", unknown("--held-out")),
            ("--store", "s.store", unknown("--store")),
            ("--frobnicate", "x", unknown("--frobnicate")),
        ] {
            let message = refusal(&["--out", "x.json", flag, bad]).expect(flag);
            assert_eq!(message, says, "{flag} {bad}");
        }
    }

    #[test]
    fn only_the_default_invocation_may_write_the_committed_table() {
        assert_eq!(refusal(&[]), None);
        for line in [
            &["--requests", "600"][..],
            &["--refine-rounds", "0"],
            &["--requests", "600", "--out", "elsewhere/TUNED.json"],
        ] {
            let message = refusal(line).unwrap();
            assert!(message.starts_with("refusing to overwrite the default TUNED.json"));
        }
        let cli = parse_args(
            [
                "--requests",
                "600",
                "--out",
                "x.json",
                "--refine-rounds",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .ok()
        .unwrap();
        assert_eq!((cli.requests, cli.out_path.as_str()), (600, "x.json"));
        assert_eq!(cli.opts.refine_rounds, 1);
        assert!(cli.opts.racing);
    }
}
