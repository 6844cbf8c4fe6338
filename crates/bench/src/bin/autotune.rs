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
use accfg_bench::{cli, markdown_table, streams};
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

/// The catalog streams the tuner can run — the vocabulary `--tune-streams`
/// and `--held-out` accept.
fn tunable_streams() -> Vec<&'static str> {
    let catalog = streams::catalog(1);
    catalog
        .iter()
        .filter(|entry| entry.tunable)
        .map(|entry| entry.name)
        .collect()
}

fn resolve(name: &str, requests: usize) -> (Vec<TrafficRequest>, PoolConfig) {
    streams::named_stream(name, requests).expect("parse_args admits only tunable streams")
}

/// What the command line asked for.
struct Cli {
    /// `--requests`: requests per evaluation serve.
    requests: usize,
    /// `--out`.
    out_path: String,
    /// `--refine-rounds`, `--no-racing`.
    opts: TuneOptions,
    /// `--tune-streams`: the seed streams, tuned on.
    tune_streams: Vec<String>,
    /// `--held-out`: the streams the transferred configuration is reported on.
    held_out: Vec<String>,
}

/// Parses the arguments after the binary's name.
///
/// # Errors
/// Everything the command line alone can get wrong — a missing or
/// malformed value, an unknown flag or stream, an invocation that would
/// overwrite the committed table — as the line `main` prints before
/// exiting with status 2.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut requests = DEFAULT_REQUESTS;
    let mut out_path = DEFAULT_OUT.to_string();
    let mut opts = TuneOptions::default();
    let mut tune_names = DEFAULT_TUNE.to_string();
    let mut held_out_names = DEFAULT_HELD_OUT.to_string();
    let args = &mut args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => requests = cli::number(args, &arg, "a positive count", 1)?,
            "--out" => out_path = cli::value(args, &arg, "a file path")?,
            "--refine-rounds" => opts.refine_rounds = cli::number(args, &arg, "a count", 0)?,
            "--no-racing" => opts.racing = false,
            "--tune-streams" => tune_names = cli::value(args, &arg, "a comma-separated list")?,
            "--held-out" => held_out_names = cli::value(args, &arg, "a comma-separated list")?,
            "--store" => {
                return Err(
                    "autotune does not support --store: candidate serves are capped and may \
                     abort, and an aborted serve must not feed a warm-start store"
                        .to_string(),
                )
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (supported: --requests, --out, \
                     --refine-rounds, --no-racing, --tune-streams, --held-out)"
                ))
            }
        }
    }
    // an empty list is no stream at all, not the stream ``
    let split = |names: &str| match names {
        "" => Ok(Vec::new()),
        _ => cli::selection("tunable stream", names, &tunable_streams()),
    };
    let (tune_streams, held_out) = (split(&tune_names)?, split(&held_out_names)?);
    if tune_streams.is_empty() {
        return Err("--tune-streams must name a stream".to_string());
    }
    // Non-default invocations must not clobber the committed default table.
    let defaults = TuneOptions::default();
    let default_invocation = requests == DEFAULT_REQUESTS
        && opts.racing == defaults.racing
        && opts.refine_rounds == defaults.refine_rounds
        && tune_names == DEFAULT_TUNE
        && held_out_names == DEFAULT_HELD_OUT;
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
        tune_streams,
        held_out,
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
        tune_streams,
        held_out,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| cli::refuse("autotune", &e));

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

#[cfg(test)]
mod tests {
    use super::*;

    /// The refusal for `line`, or `None` if it parses.
    fn refusal(line: &[&str]) -> Option<String> {
        parse_args(line.iter().map(|arg| arg.to_string())).err()
    }

    #[test]
    fn every_flag_refuses_a_missing_value() {
        for flag in [
            "--requests",
            "--out",
            "--refine-rounds",
            "--tune-streams",
            "--held-out",
        ] {
            let message = refusal(&["--out", "x.json", flag]).expect(flag);
            assert!(message.starts_with(&format!("{flag} takes ")), "{message}");
        }
    }

    #[test]
    fn every_flag_refuses_a_malformed_value() {
        for (flag, bad, says) in [
            (
                "--requests",
                "-1",
                "--requests takes a positive count (got `-1`)",
            ),
            (
                "--requests",
                "0",
                "--requests takes a positive count (got `0`)",
            ),
            (
                "--requests",
                "many",
                "--requests takes a positive count (got `many`)",
            ),
            (
                "--refine-rounds",
                "-2",
                "--refine-rounds takes a count (got `-2`)",
            ),
            (
                "--refine-rounds",
                "2.5",
                "--refine-rounds takes a count (got `2.5`)",
            ),
            (
                "--tune-streams",
                "mixed,nope",
                "unknown tunable stream `nope` (known: ",
            ),
            (
                "--held-out",
                "Mixed",
                "unknown tunable stream `Mixed` (known: ",
            ),
            ("--tune-streams", ",", "unknown tunable stream `` (known: "),
            ("--tune-streams", "", "--tune-streams must name a stream"),
            ("--store", "s.store", "autotune does not support --store: "),
        ] {
            let message = refusal(&["--out", "x.json", flag, bad]).expect(flag);
            assert!(message.starts_with(says), "{flag} {bad}: {message}");
        }
        let message = refusal(&["--frobnicate"]).unwrap();
        assert!(message.starts_with("unknown argument `--frobnicate` (supported: "));
    }

    #[test]
    fn only_the_default_invocation_may_write_the_committed_table() {
        assert_eq!(refusal(&[]), None);
        assert_eq!(refusal(&["--out", "elsewhere.json", "--no-racing"]), None);
        for line in [
            &["--requests", "600"][..],
            &["--no-racing"],
            &["--refine-rounds", "0"],
            &["--held-out", "contention"],
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
                "--tune-streams",
                "mixed",
                "--held-out",
                "",
            ]
            .map(String::from)
            .into_iter(),
        )
        .ok()
        .unwrap();
        assert_eq!((cli.requests, cli.out_path.as_str()), (600, "x.json"));
        assert_eq!(cli.tune_streams, ["mixed"]);
        assert!(cli.held_out.is_empty() && cli.opts.racing);
    }
}
