//! The committed `BENCH_runtime.json` artifact must stay strict JSON —
//! every downstream consumer (plots, dashboards, the paper tables) parses
//! it with an ordinary JSON parser, and the file is hand-rendered.

use accfg_bench::{json, streams};

#[test]
fn committed_bench_runtime_json_is_strict_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_runtime.json exists");
    let doc = json::parse(&text).expect("committed BENCH_runtime.json is strict JSON");
    // and it reports exactly the catalog's streams, in catalog order: a
    // catalog change that leaves the artifact stale fails here
    let reported: Vec<&str> = doc
        .entries()
        .expect("the report is an object")
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    let catalog: Vec<&str> = streams::catalog(1).iter().map(|entry| entry.name).collect();
    assert_eq!(reported, catalog);
}
