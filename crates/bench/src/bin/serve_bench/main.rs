//! Serving benchmark for the `accfg-runtime` dispatch layer: throughput,
//! latency, and configuration-write savings of the scheduling policies
//! across arrival processes, shape mixes, and pool provisioning — over
//! both evaluation platforms and their heterogeneous variants.
//!
//! # Plan → catalog → rows
//!
//! The binary is one loop. The command line is parsed into a
//! [`BenchPlan`] — requests, policy filter, stream filter — and nothing
//! else carries a knob. `BenchPlan::catalog` filters the bench
//! catalog ([`accfg_bench::streams::catalog`], the single definition of
//! the seven streams and their pools, shared with `benchmark/` and the
//! integration tests) by `--streams`; for each entry, `calibrate`
//! resolves the request sequence (a no-op except for
//! `closed_loop_measured`) and `run_stream` serves
//! `BenchPlan::policies` — the policy rows filtered by `--policies`, each
//! a [`ServeConfig::default`] with its policy and batch size — and prints
//! the stream's table. Every serve is one run of
//! the runtime's one serve loop, on the simulated clock, so the report is
//! a function of the [`BenchPlan`] alone (CI regenerates the committed
//! artifact and `cmp`s it); the host's requests/sec is
//! `benchmark/run.sh`'s to measure.
//!
//! Every report row records the module-cache delta of its own serve, so
//! runtime sharing is part of the report: one [`Runtime`] per pool
//! ([`BenchPool`]), created on first use and reused by every later
//! stream of that pool in catalog order — including the calibration
//! serve of `closed_loop_measured`, which runs on the uniform runtime at
//! that stream's place in the order.
//!
//! # Policy rows
//!
//! - `fifo` — the production baseline: round-robin routing, every dispatch
//!   reprograms its full configuration;
//! - `fifo+elide` — round-robin routing with resident-state elision
//!   (isolates the value of cross-request state tracking);
//! - `fifo+elide+batch` — the above plus adjacent same-shape batching
//!   (batching's clearest win: it overrides round-robin scattering);
//! - `affinity` — config-affinity routing (queue-depth-aware, in
//!   estimated outstanding cycles) plus elision;
//! - `affinity+batch` — affinity with batching;
//! - `cost` — cycle-cost routing: minimize refined predicted cycles to
//!   completion over per-platform cost models, the policy heterogeneous
//!   pools need;
//! - `thermal` — frequency-aware cycle-cost routing: each candidate is
//!   priced at the DVFS mode the scheduler's shadow automaton predicts
//!   for it (frequency-keyed EWMA rows, agnostic fallback while cold),
//!   plus the contention penalty of pushing the dispatch's config
//!   traffic into a busy window; ties prefer the hotter worker, so
//!   boost residency concentrates instead of scattering. Identical to
//!   `cost` on identity-timing pools — it earns its keep on the
//!   `contention` stream, where `cost` is its ablation baseline.
//!
//! The `+batch` rows appear only on `mixed`
//! ([`BenchStream::batch_rows`]).
//!
//! # Catalog streams
//!
//! - `mixed` — the canonical six-shape open-loop mix (routing and balance
//!   both matter);
//! - `shape_heavy` — sixteen shapes over four workers: no static
//!   partition keeps every worker warm, so the routing term dominates;
//! - `bursty` — on/off arrivals that build deep queues, the worst case
//!   for sticky routing's tail latency;
//! - `closed_loop` — a fixed client population, self-limiting arrivals
//!   driven by a static per-request service estimate;
//! - `closed_loop_measured` — the same population, but each client's
//!   feedback uses the *measured* mean service time of its request's
//!   class (from a `fifo+elide` calibration serve of the static stream —
//!   [`BenchStream::calibrated`]), so heavy shapes hold their clients
//!   proportionally longer;
//! - `hetero` — the mixed-platform mix served by a *heterogeneous* pool:
//!   each family pairs its base platform with a differently provisioned
//!   variant (`gemmini`+`gemmini-turbo`, `opengemm`+`opengemm-lite`),
//!   where write-count affinity scoring is blind to provisioning and
//!   cycle-cost routing earns its keep (asserted: `cost` writes no more
//!   than `affinity`);
//! - `contention` — the canonical mix at a tighter arrival gap, served
//!   by a pool whose platforms run their *reference timing models*
//!   (shared memory-bandwidth contention + DVFS frequency states,
//!   `AcceleratorDescriptor::with_reference_timing`): dispatch cost is
//!   no longer write-linear, the analytic anchors go wrong under load,
//!   and the per-(module, warmth) EWMA has a real gap to close — the
//!   stream that exercises the refiner (and the `cost` policy's cycle
//!   predictions) hardest. Its report rows carry the extra `timing`
//!   object (contention cycles, launches per frequency state).
//!
//! # Report and flags
//!
//! Writes the raw per-stream, per-policy metrics to `BENCH_runtime.json`
//! (validated as strict JSON before the file lands). Each stream object
//! opens with a `static_analysis` summary
//! ([`accfg_bench::streams::static_totals`]: `accfg-analyze`'s lint
//! counts and static elidable-write lower bound over the stream's raw
//! per-class modules, weighted by request count) ahead of the per-policy
//! sections, whose bytes it leaves untouched. Pass `--requests <n>` for a
//! reduced smoke run, `--out <path>` to write the report elsewhere (CI
//! uses both to avoid clobbering the committed artifact),
//! `--policies <a,b,...>` to exercise a subset of the policy labels
//! without paying for all of them, and `--streams <a,b,...>` to serve a
//! subset of the catalog the same way (CI's thermal smoke runs
//! `--policies thermal --streams contention`).

use accfg_bench::json::{self, Members};
use accfg_bench::markdown_table;
use accfg_bench::streams::{self, BenchPool, BenchStream, StaticTotals};
use accfg_runtime::{Policy, Runtime, ServeConfig, ServeMetrics, LOAD_SLACK_CYCLES};
use std::collections::HashMap;

mod cli;

const DEFAULT_REQUESTS: usize = 12_000;
const DEFAULT_OUT: &str = "BENCH_runtime.json";

/// What the command line decided, held once: the catalog a run walks and
/// the policy rows it serves derive from this struct, so a new switch is
/// threaded through here rather than through every call.
struct BenchPlan {
    /// `--requests`: requests per stream.
    requests: usize,
    /// `--policies`: the policy-row labels to serve (`None` = all).
    policy_filter: Option<Vec<String>>,
    /// `--streams`: the catalog names to serve (`None` = all).
    stream_filter: Option<Vec<String>>,
}

/// Whether a `--policies` / `--streams` filter (when given) keeps `name`.
fn passes(filter: &Option<Vec<String>>, name: &str) -> bool {
    filter.as_ref().is_none_or(|f| f.iter().any(|s| s == name))
}

/// The report's policy rows, in report order; `batch_rows` adds the two
/// `+batch` variants.
fn policy_rows(batch_rows: bool) -> Vec<(&'static str, ServeConfig)> {
    let row = |policy, max_batch| ServeConfig {
        policy,
        max_batch,
        ..ServeConfig::default()
    };
    let mut rows = vec![
        ("fifo", row(Policy::Fifo, 1)),
        ("fifo+elide", row(Policy::FifoElide, 1)),
        ("fifo+elide+batch", row(Policy::FifoElide, 8)),
        ("affinity", row(Policy::ConfigAffinity, 1)),
        ("affinity+batch", row(Policy::ConfigAffinity, 8)),
        ("cost", row(Policy::Cost, 1)),
        ("thermal", row(Policy::Thermal, 1)),
    ];
    rows.retain(|(_, cfg)| batch_rows || cfg.max_batch == 1);
    rows
}

impl BenchPlan {
    /// The selected catalog entries, in report order.
    fn catalog(&self) -> Vec<BenchStream> {
        let mut catalog = streams::catalog(self.requests);
        catalog.retain(|entry| passes(&self.stream_filter, entry.name));
        catalog
    }

    /// The selected policy rows for a stream.
    fn policies(&self, batch_rows: bool) -> Vec<(&'static str, ServeConfig)> {
        let mut rows = policy_rows(batch_rows);
        rows.retain(|(label, _)| passes(&self.policy_filter, label));
        rows
    }
}

/// One policy's measurements over a stream: label and the serve metrics.
type PolicyRow = (&'static str, ServeMetrics);

/// Resolves a catalog entry into the stream its rows serve. Only
/// `closed_loop_measured` needs work: one calibration serve of its
/// static-estimate sequence on `runtime`, at the entry's place in the
/// serve order, from which [`BenchStream::calibrated`] re-drives the
/// client feedback.
fn calibrate(runtime: &mut Runtime, mut entry: BenchStream) -> BenchStream {
    if let Some(generator) = &entry.calibration {
        let cfg = ServeConfig {
            policy: streams::CALIBRATION_POLICY,
            ..ServeConfig::default()
        };
        let calibration = runtime
            .serve(&entry.requests, &cfg)
            .expect("calibration serve succeeds");
        let (service_times, requests) = entry.calibrated(&calibration);
        println!(
            "closed-loop calibration: measured per-class service times {service_times:?} \
             (static estimate was {})\n",
            generator.service_estimate
        );
        entry.requests = requests;
    }
    entry
}

/// Serves every selected policy row over one catalog entry on its pool's
/// `runtime`, prints the stream's table and headline, and returns the
/// rows — empty when no selected policy applies, so the caller drops the
/// stream's report section.
fn run_stream(plan: &BenchPlan, runtime: &mut Runtime, entry: &BenchStream) -> Vec<PolicyRow> {
    let stream_name = entry.name;
    let mut results: Vec<PolicyRow> = Vec::new();
    for (label, cfg) in plan.policies(entry.batch_rows) {
        let report = runtime
            .serve(&entry.requests, &cfg)
            .expect("serve succeeds");
        assert_eq!(
            report.metrics.check_failures, 0,
            "{stream_name}/{label}: functional checks failed"
        );
        assert_eq!(
            report.metrics.sim_failures, 0,
            "{stream_name}/{label}: simulation failed"
        );
        results.push((label, report.metrics));
    }
    if results.is_empty() {
        // e.g. --policies affinity+batch on a stream that runs no batch
        // variants: nothing to measure here, the caller skips the stream
        println!("== {stream_name} == (skipped: no selected policy applies)\n");
        return results;
    }

    let find = |label: &str| results.iter().find(|(l, _)| *l == label).map(|(_, m)| m);
    let fifo = find("fifo");
    let elide_p99 = find("fifo+elide").map(|m| m.latency.p99);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(label, m)| {
            vec![
                label.to_string(),
                m.setup_writes.to_string(),
                fifo.map(|f| format!("{:.1}%", 100.0 * m.write_savings_vs(f)))
                    .unwrap_or_else(|| "-".into()),
                m.makespan.to_string(),
                format!("{:.1}", m.throughput_per_mcycle()),
                m.latency.p50.to_string(),
                m.latency.p99.to_string(),
                elide_p99
                    .map(|e| format!("{:.2}", m.latency.p99 as f64 / e.max(1) as f64))
                    .unwrap_or_else(|| "-".into()),
                m.queue_depth.max.to_string(),
                format!("{:.1}", m.prediction.anchor_mae()),
                format!("{:.1}", m.prediction.ewma_mae()),
                m.contention_cycles.to_string(),
                format!(
                    "{}/{}/{}",
                    m.freq_launches[0], m.freq_launches[1], m.freq_launches[2]
                ),
            ]
        })
        .collect();
    println!("== {stream_name} ==");
    print!(
        "{}",
        markdown_table(
            &[
                "policy",
                "setup writes",
                "saved vs fifo",
                "makespan (cyc)",
                "req/Mcycle",
                "p50 lat",
                "p99 lat",
                "p99 / elide p99",
                "max qdepth",
                "anchor MAE",
                "ewma MAE",
                "cont cyc",
                "freq c/w/b",
            ],
            &rows,
        )
    );

    // the refined estimates must not be worse than the static anchors on
    // the dispatches the scheduler actually charged for
    for (label, m) in results.iter().filter(|(_, m)| m.prediction.samples > 0) {
        assert!(
            m.prediction.ewma_abs_error <= m.prediction.anchor_abs_error,
            "{stream_name}/{label}: ewma MAE {:.1} > anchor MAE {:.1}",
            m.prediction.ewma_mae(),
            m.prediction.anchor_mae()
        );
    }
    if let Some(fifo) = fifo {
        // elision guarantees the resident-aware policies never write more
        // than the cold baseline
        for label in ["affinity", "cost", "thermal"] {
            if let Some(m) = find(label) {
                assert!(
                    m.setup_writes <= fifo.setup_writes,
                    "{stream_name}: {label} wrote more than fifo"
                );
            }
        }
        if let (Some(affinity), Some(elide_p99)) = (find("affinity"), elide_p99) {
            println!(
                "affinity: {:.1}% fewer setup writes than fifo, p99 {:.2}x fifo+elide",
                100.0 * affinity.write_savings_vs(fifo),
                affinity.latency.p99 as f64 / elide_p99.max(1) as f64,
            );
        }
    }
    println!();
    if let (Some(cost), Some(affinity)) = (find("cost"), find("affinity")) {
        match entry.pool {
            BenchPool::Uniform => {}
            BenchPool::Hetero => {
                // the heterogeneous acceptance bar: cycle-cost routing
                // beats write-count affinity on its own metric
                assert!(
                    cost.setup_writes <= affinity.setup_writes,
                    "{stream_name}: cost wrote {} setup registers, affinity {}",
                    cost.setup_writes,
                    affinity.setup_writes
                );
                println!(
                    "{stream_name}: cost {} setup writes vs affinity {} ({:.1}% fewer), \
                     p99 {} vs {} cycles",
                    cost.setup_writes,
                    affinity.setup_writes,
                    100.0 * cost.write_savings_vs(affinity),
                    cost.latency.p99,
                    affinity.latency.p99,
                );
            }
            // dispatch cost depends on worker load here, so the analytic
            // anchors drift and the EWMA refiner has a real gap to close
            BenchPool::Contention => println!(
                "{stream_name}: anchor MAE {:.1} vs ewma MAE {:.1} under affinity \
                 ({} contended host cycles, launches cold/warm/boost \
                 {}/{}/{}); cost p99 {} vs affinity p99 {} cycles",
                affinity.prediction.anchor_mae(),
                affinity.prediction.ewma_mae(),
                affinity.contention_cycles,
                affinity.freq_launches[0],
                affinity.freq_launches[1],
                affinity.freq_launches[2],
                cost.latency.p99,
                affinity.latency.p99,
            ),
        }
    }
    results
}

/// The `static_analysis` report object of a stream (see
/// [`streams::static_totals`]).
fn static_analysis_json(totals: &StaticTotals) -> String {
    Members::default()
        .member("dead_writes", totals.dead_writes)
        .member("redundant_writes", totals.redundant_writes)
        .member("clobbered_launches", totals.clobbered_launches)
        .member("static_writes", totals.static_writes)
        .member("elidable_bound", totals.elidable_bound)
        .inline("{", "}")
}

/// The catalog's stream names — the vocabulary `--streams` accepts.
fn stream_names() -> Vec<&'static str> {
    let catalog = streams::catalog(1);
    catalog.iter().map(|entry| entry.name).collect()
}

/// A flag of the command line.
#[derive(Clone, Copy)]
enum Flag {
    Requests,
    Out,
    Policies,
    Streams,
}

/// Every flag with its spelling and what it takes: the one table
/// [`parse_args`] looks an argument up in, and the one both refusals that
/// list flags are rendered from — a flag is accepted and advertised
/// together or not at all.
const FLAGS: [(Flag, &str, &str); 4] = [
    (Flag::Requests, "--requests", "<n>"),
    (Flag::Out, "--out", "<path>"),
    (Flag::Policies, "--policies", "<a,b,...>"),
    (Flag::Streams, "--streams", "<a,b,...>"),
];

/// What the command line asked for.
struct Cli {
    plan: BenchPlan,
    /// `--out`.
    out_path: String,
}

/// Parses the arguments after the binary's name.
///
/// # Errors
/// Everything the command line alone can get wrong — a missing or
/// malformed value, an unknown flag, policy or stream, a non-canonical
/// report aimed at the committed artifact — as the line [`cli::refuse`]
/// prints.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut plan = BenchPlan {
        requests: DEFAULT_REQUESTS,
        policy_filter: None,
        stream_filter: None,
    };
    let mut out_path = String::from(DEFAULT_OUT);
    let args = &mut args;
    while let Some(arg) = args.next() {
        let Some(&(flag, ..)) = FLAGS.iter().find(|(_, name, _)| *name == arg) else {
            let supported: Vec<String> = FLAGS
                .iter()
                .map(|(_, name, takes)| format!("{name} {takes}"))
                .collect();
            return Err(format!(
                "unknown argument `{arg}` (supported: {})",
                supported.join(", ")
            ));
        };
        match flag {
            Flag::Requests => plan.requests = cli::positive(args, &arg)?,
            Flag::Out => out_path = cli::value(args, &arg, "a file path")?,
            Flag::Policies => {
                let list = cli::value(args, &arg, "a comma-separated list")?;
                let rows = policy_rows(true);
                let known: Vec<&str> = rows.iter().map(|(label, _)| *label).collect();
                plan.policy_filter = Some(cli::selection("policy", &list, &known)?);
            }
            Flag::Streams => {
                let list = cli::value(args, &arg, "a comma-separated list")?;
                plan.stream_filter = Some(cli::selection("stream", &list, &stream_names())?);
            }
        }
    }
    // a filtered or reduced run produces a report that is not the
    // committed artifact: refuse to overwrite it (by file name, so
    // alternate spellings of the same path cannot slip past)
    let canonical = plan.policy_filter.is_none()
        && plan.stream_filter.is_none()
        && plan.requests == DEFAULT_REQUESTS;
    if !canonical
        && std::path::Path::new(&out_path).file_name()
            == std::path::Path::new(DEFAULT_OUT).file_name()
    {
        let others: Vec<&str> = FLAGS
            .iter()
            .filter(|(flag, ..)| !matches!(flag, Flag::Out))
            .map(|(_, name, _)| *name)
            .collect();
        return Err(format!(
            "{} write a non-canonical report; pass --out with a file name other \
             than {DEFAULT_OUT} so it cannot clobber the committed artifact",
            others.join("/")
        ));
    }
    Ok(Cli { plan, out_path })
}

fn main() {
    let Cli { plan, out_path } =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|e| cli::refuse(&e));

    println!(
        "serve_bench: {} requests per stream, 2 workers/accelerator, \
         slack horizon {LOAD_SLACK_CYCLES} cycles\n",
        plan.requests
    );

    // one runtime per pool, created on first use and shared by every
    // later stream of that pool in catalog order: each row's module-cache
    // delta depends on what its runtime served before it
    let mut runtimes: HashMap<BenchPool, Runtime> = HashMap::new();
    // (stream name, static-analysis JSON object, per-policy rows)
    let mut sections: Vec<(&'static str, String, Vec<PolicyRow>)> = Vec::new();
    for entry in plan.catalog() {
        let runtime = runtimes
            .entry(entry.pool)
            .or_insert_with(|| Runtime::new(entry.pool.build()));
        let entry = calibrate(runtime, entry);
        let results = run_stream(&plan, runtime, &entry);
        if !results.is_empty() {
            let totals = streams::static_totals(&entry.requests);
            sections.push((entry.name, static_analysis_json(&totals), results));
        }
    }
    assert!(
        !sections.is_empty(),
        "every stream was skipped by --policies/--streams"
    );

    // per-class SLO view of the canonical mix under affinity
    if let Some((_, mixed_affinity)) = sections
        .iter()
        .find(|(stream, _, _)| *stream == "mixed")
        .and_then(|(_, _, results)| results.iter().find(|(label, _)| *label == "affinity"))
    {
        println!("\n== mixed / affinity, per class ==");
        let class_rows: Vec<Vec<String>> = mixed_affinity
            .per_class
            .iter()
            .map(|c| {
                vec![
                    c.class.clone(),
                    c.requests.to_string(),
                    c.latency.p50.to_string(),
                    c.latency.p99.to_string(),
                    c.latency.max.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            markdown_table(&["class", "requests", "p50", "p99", "max"], &class_rows)
        );
    }

    let mut doc = Members::default();
    for (stream_name, static_analysis, results) in &sections {
        // the static-analysis summary leads the stream object so every
        // per-policy section below keeps its exact bytes from earlier
        // report formats
        let mut stream = Members::default();
        stream.member("static_analysis", static_analysis);
        for (label, m) in results {
            stream.member(label, m.to_json());
        }
        doc.member(stream_name, stream.block("{", "}"));
    }
    let out = format!("{}\n", doc.block("{", "}"));
    json::validate(&out).expect("benchmark report must be strict JSON");
    std::fs::write(&out_path, &out).expect("write benchmark report");
    println!("\nraw metrics: {out_path} (validated as strict JSON)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_flag_accepts_exactly_the_catalog_names() {
        let catalog = streams::catalog(8);
        assert_eq!(catalog.len(), 7);
        let known = stream_names();
        for entry in &catalog {
            assert_eq!(
                cli::selection("stream", entry.name, &known),
                Ok(vec![entry.name.to_string()])
            );
        }
        let all = known.join(",");
        assert_eq!(cli::selection("stream", &all, &known).unwrap().len(), 7);
        for bad in ["warmup", "mixed,warmup", "Mixed", ""] {
            let rejected = cli::selection("stream", bad, &known);
            assert!(rejected.is_err(), "--streams {bad:?} must be rejected");
        }
    }

    /// The refusal for `line`, or `None` if it parses.
    fn refusal(line: &[&str]) -> Option<String> {
        parse_args(line.iter().map(|arg| arg.to_string())).err()
    }

    #[test]
    fn every_flag_refuses_a_missing_value() {
        for (_, flag, _) in FLAGS {
            let message = refusal(&["--out", "x.json", flag]).expect(flag);
            assert!(message.starts_with(&format!("{flag} takes ")), "{message}");
        }
    }

    #[test]
    fn every_flag_refuses_a_malformed_value() {
        for (flag, bad, says) in [
            (
                "--requests",
                "x",
                "--requests takes a positive integer (got `x`)",
            ),
            (
                "--requests",
                "0",
                "--requests takes a positive integer (got `0`)",
            ),
            (
                "--requests",
                "-1",
                "--requests takes a positive integer (got `-1`)",
            ),
            // flags the binary no longer has are unknown arguments
            ("--mode", "x", "unknown argument `--mode` (supported: "),
            (
                "--threads",
                "2",
                "unknown argument `--threads` (supported: ",
            ),
            ("--store", "s", "unknown argument `--store` (supported: "),
            ("--slack", "128", "unknown argument `--slack` (supported: "),
            (
                "--batch-cutoff",
                "none",
                "unknown argument `--batch-cutoff` (supported: ",
            ),
            ("--policies", "lifo", "unknown policy `lifo` (known: "),
            (
                "--streams",
                "mixed,warmup",
                "unknown stream `warmup` (known: ",
            ),
            (
                "--tuned",
                "t.json",
                "unknown argument `--tuned` (supported: ",
            ),
        ] {
            let message = refusal(&["--out", "x.json", flag, bad]).expect(flag);
            assert!(message.starts_with(says), "{flag} {bad}: {message}");
        }
        // the refusal advertises exactly the flags that parse
        let message = refusal(&["--frobnicate"]).unwrap();
        let supported = message
            .strip_prefix("unknown argument `--frobnicate` (supported: ")
            .and_then(|rest| rest.strip_suffix(')'))
            .expect(&message);
        for usage in supported.split(", ") {
            let flag = usage.split(' ').next().unwrap();
            let missing_value = refusal(&["--out", "x.json", flag]).expect(flag);
            assert!(missing_value.starts_with(&format!("{flag} takes ")));
        }
        assert_eq!(supported.split(", ").count(), FLAGS.len());
    }

    #[test]
    fn refused_combinations_are_errors_and_the_rest_parses() {
        // a non-canonical report may not land on the committed artifact
        for line in [
            &["--requests", "600"][..],
            &["--policies", "cost"],
            &["--streams", "mixed"],
            &["--requests", "600", "--out", "elsewhere/BENCH_runtime.json"],
        ] {
            let message = refusal(line).unwrap();
            assert_eq!(
                message,
                "--requests/--policies/--streams write a non-canonical report; \
                 pass --out with a file name other than BENCH_runtime.json so it \
                 cannot clobber the committed artifact"
            );
        }
        assert_eq!(refusal(&[]), None);
        let cli = parse_args(
            [
                "--requests",
                "300",
                "--policies",
                "cost,thermal",
                "--streams",
                "contention",
                "--out",
                "x.json",
            ]
            .map(String::from)
            .into_iter(),
        )
        .ok()
        .unwrap();
        assert_eq!(cli.plan.requests, 300);
        assert_eq!(cli.plan.policy_filter.unwrap(), ["cost", "thermal"]);
        assert_eq!(cli.plan.stream_filter.unwrap(), ["contention"]);
        assert_eq!(cli.out_path, "x.json");
    }
}
