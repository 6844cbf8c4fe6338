//! Integration tests for the deterministic serving-knob autotuner
//! (`accfg_bench::tune` + the `autotune` binary's committed artifact):
//!
//! - **Determinism**: the same stream, space, and options produce a
//!   byte-identical tuned table — the property that lets CI re-run the
//!   tuner and `cmp` `TUNED.json`.
//! - **Winner preservation** (the racing oracle property): capped-run
//!   racing aborts losers early but returns exactly the winner a
//!   full-length evaluation of every candidate returns. This is the
//!   correctness claim that makes the LeapsAndBounds-style phase safe.
//! - **Artifact consistency**: the committed `TUNED.json` parses, names
//!   the promised seed and held-out streams, and its tuned rows never
//!   regress their recorded defaults.
//!
//! Evaluation serves here use small request counts: the properties under
//! test are scale-independent, and these tests run unoptimized.

use accfg_bench::streams;
use accfg_bench::tune::{
    evaluate, knob_space, parse_table, render_table, tune_stream, Eval, KnobConfig, StreamEntry,
    TuneOptions,
};
use accfg_runtime::Policy;

/// A trimmed core grid (no 512-cycle horizon, no uncapped-cutoff points,
/// no round-robin rows) — the search shape is the same, the evaluations
/// are fewer, which is what an unoptimized test build wants.
fn small_space() -> Vec<KnobConfig> {
    knob_space()
        .into_iter()
        .filter(|k| {
            k.load_slack != 512 && k.batch_cutoff.is_some() && k.policy != Policy::FifoElide
        })
        .collect()
}

#[test]
fn tuning_is_deterministic_to_the_byte() {
    let stream = streams::mixed_stream(400);
    let pool = streams::uniform_pool();
    let space = small_space();
    let opts = TuneOptions {
        refine_rounds: 1,
        racing: true,
    };
    let entry = |label: &str| {
        let r = tune_stream(label, &pool, &stream, &space, &opts);
        StreamEntry {
            name: r.stream.clone(),
            role: "seed",
            source: "search".to_string(),
            knobs: r.knobs,
            default: r.default_objective,
            tuned: r.objective,
            evaluations: r.evaluations,
            aborts: r.aborts,
        }
    };
    let first = render_table(400, &opts, &[entry("mixed")]);
    let second = render_table(400, &opts, &[entry("mixed")]);
    assert_eq!(
        first, second,
        "two identical tuning runs must agree byte-for-byte"
    );
    // and the table round-trips into the knobs serve_bench --tuned needs
    let rows = parse_table(&first).expect("rendered table parses");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].0, "mixed");
}

#[test]
fn capped_racing_preserves_the_full_evaluation_winner() {
    let stream = streams::mixed_stream(400);
    let pool = streams::uniform_pool();
    let space = small_space();
    let racing = tune_stream(
        "mixed",
        &pool,
        &stream,
        &space,
        &TuneOptions {
            refine_rounds: 1,
            racing: true,
        },
    );
    let full = tune_stream(
        "mixed",
        &pool,
        &stream,
        &space,
        &TuneOptions {
            refine_rounds: 1,
            racing: false,
        },
    );
    // the oracle property: aborting provably-losing candidates early
    // changes the work done, never the winner
    assert_eq!(racing.knobs, full.knobs, "racing changed the winning knobs");
    assert_eq!(
        racing.objective, full.objective,
        "racing changed the winning objective"
    );
    assert_eq!(racing.improved, full.improved);
    assert_eq!(racing.default_objective, full.default_objective);
    // both modes attempt the same candidate set
    assert_eq!(racing.evaluations, full.evaluations);
    // and the capped run actually raced: at least one loser was cut
    // short, while the full run never aborts anything
    assert!(racing.aborts > 0, "no candidate was cut short at all");
    assert_eq!(full.aborts, 0, "uncapped runs cannot abort");
    // the reported winner objective is real: re-serving the winning
    // knobs uncapped reproduces it exactly
    assert_eq!(
        evaluate(&pool, &stream, &racing.knobs, None),
        Eval::Complete(racing.objective)
    );
}

#[test]
fn committed_tuned_table_is_consistent() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TUNED.json");
    let text = std::fs::read_to_string(path).expect("committed TUNED.json exists");
    accfg_bench::json::validate(&text).expect("committed TUNED.json is strict JSON");
    let rows = parse_table(&text).expect("committed TUNED.json parses");
    for name in ["mixed", "bursty", "contention", "hetero"] {
        assert!(
            rows.iter().any(|(n, _)| n == name),
            "committed TUNED.json is missing stream `{name}`"
        );
    }
    // the tuned rows must never regress their recorded defaults
    let doc = accfg_bench::json::parse(&text).expect("parses");
    let streams_obj = doc.get("streams").and_then(|s| s.entries()).unwrap();
    let mut improved = 0usize;
    for (name, entry) in streams_obj {
        let metric = |section: &str, key: &str| {
            entry
                .get(section)
                .and_then(|o| o.get(key))
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("{name}: missing {section}.{key}"))
        };
        let (dp99, dwr) = (metric("default", "p99"), metric("default", "setup_writes"));
        let (tp99, twr) = (metric("tuned", "p99"), metric("tuned", "setup_writes"));
        assert!(
            tp99 <= dp99 && twr <= dwr,
            "{name}: tuned row regresses the default (p99 {dp99}->{tp99}, writes {dwr}->{twr})"
        );
        if tp99 < dp99 || twr < dwr {
            improved += 1;
        }
    }
    assert!(
        improved >= 1,
        "TUNED.json pins no stream where the tuned config strictly beats the default"
    );
}
