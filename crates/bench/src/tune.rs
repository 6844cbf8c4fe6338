//! A deterministic two-phase autotuner over the serving knobs.
//!
//! The runtime ships hand-picked knob values — `load_slack = 256`,
//! `batch_cutoff = slack`, batching off. This module closes the loop: it
//! searches the knob space per stream and emits the configuration that
//! minimizes the serving objective (p99 latency, then setup writes).
//! Because a simulated serve is a *noise-free* evaluation — the same stream and
//! knobs always produce byte-identical metrics — capped racing applies
//! in its strongest form, and the search is two plain phases:
//!
//! 1. **Capped-run racing** (LeapsAndBounds-style): every candidate
//!    serve carries a [`ServeBudget`] derived from the default config
//!    and the incumbent winner. The engine aborts the serve the moment
//!    its final p99/write totals are provably beyond the bounds, so
//!    losers pay only a fraction of a full evaluation. The budget's
//!    bounds are exact (see [`ServeBudget`]), which makes racing
//!    *winner-preserving*: a candidate aborts only if it could never
//!    have won — the p99 bound is the weaker of the default's and the
//!    incumbent's (a candidate above it loses the lexicographic
//!    comparison outright), and the write bound is the default's (a
//!    candidate above it is ineligible). [`tune_stream`] therefore
//!    returns the *same* winner with racing on or off, a property
//!    `tests/autotune.rs` pins.
//! 2. **Local refinement**: after the grid pass, a few rounds of local
//!    search around the incumbent. Each round proposes the incumbent's
//!    one-step neighbors (`neighbors`) and races every one not yet
//!    attempted, in proposal order — the order cannot change the winner
//!    (every proposal is evaluated, and ties break by an
//!    order-independent rule).
//!
//! The searched knobs are the four [`ServeConfig`] members a serve can
//! turn: routing policy, `load_slack`, `batch_cutoff` and `max_batch`.
//! The tuner never edits the pool — every candidate serves on the
//! catalog pool as built.
//!
//! Everything here is seeded-deterministic: no randomness, no wall
//! clock, f64 arithmetic in a fixed order — so the tuned-config table
//! ([`render_table`]) is byte-identical across runs and machines. The
//! `autotune` binary drives [`tune_stream`] over seed streams, reports
//! held-out streams under the transferred winner (the Eggensperger et
//! al. methodology: tune on one stream set, report on another), and
//! `serve_bench --tuned` consumes the table via [`parse_table`].
//!
//! [`ServeBudget`]: accfg_runtime::ServeBudget

use crate::json::Json;
use accfg_runtime::{Policy, PoolConfig, Runtime, ServeBudget, ServeConfig, ServeError};
use accfg_workloads::TrafficRequest;

/// One point of the serving knob space: everything the autotuner can
/// turn, all of it [`ServeConfig`] (policy, slack, cutoff, batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobConfig {
    /// Routing policy.
    pub policy: Policy,
    /// Load-slack horizon, in estimated outstanding cycles.
    pub load_slack: u64,
    /// Queue-depth-aware batch cutoff (`None` = uncapped coalescing).
    pub batch_cutoff: Option<u64>,
    /// Maximum batch size (1 disables batching).
    pub max_batch: usize,
}

impl Default for KnobConfig {
    /// The runtime's hand-picked defaults — exactly
    /// [`ServeConfig::default`].
    fn default() -> Self {
        let cfg = ServeConfig::default();
        Self {
            policy: cfg.policy,
            load_slack: cfg.load_slack,
            batch_cutoff: cfg.batch_cutoff.resolve(cfg.load_slack),
            max_batch: cfg.max_batch,
        }
    }
}

impl KnobConfig {
    /// The members of a `knobs` object, in [`KnobConfig::to_json`] order.
    const MEMBERS: [&'static str; 4] = ["policy", "load_slack", "batch_cutoff", "max_batch"];

    /// Collapses inert knobs so behaviorally identical points coincide:
    /// without batching (`max_batch <= 1`) the cutoff is never read, so
    /// it canonicalizes to the slack horizon.
    #[must_use]
    pub fn canonical(mut self) -> Self {
        if self.max_batch <= 1 {
            self.batch_cutoff = Some(self.load_slack);
        }
        self
    }

    /// The [`ServeConfig`] for these knobs.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            policy: self.policy,
            max_batch: self.max_batch,
            load_slack: self.load_slack,
            batch_cutoff: self.batch_cutoff.into(),
            ..ServeConfig::default()
        }
    }

    /// The knobs as a single-line JSON object (the `knobs` value in
    /// `TUNED.json`).
    pub fn to_json(&self) -> String {
        let cutoff = match self.batch_cutoff {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"policy\": \"{}\", \"load_slack\": {}, \"batch_cutoff\": {}, \"max_batch\": {}}}",
            self.policy.label(),
            self.load_slack,
            cutoff,
            self.max_batch,
        )
    }

    /// Parses [`KnobConfig::to_json`] back from a parsed [`Json`] value.
    ///
    /// # Errors
    /// Returns a message naming the missing, malformed or unknown member:
    /// a member other than the four knobs (one an older table carried
    /// included) is refused, never ignored.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        for (name, _) in v.entries().unwrap_or_default() {
            if !Self::MEMBERS.contains(&name.as_str()) {
                return Err(format!(
                    "knobs: unknown member `{name}` (known: {})",
                    Self::MEMBERS.join(", ")
                ));
            }
        }
        let policy_label = v
            .get("policy")
            .and_then(Json::as_str)
            .ok_or("knobs: missing or non-string `policy`")?;
        let policy = Policy::from_label(policy_label)
            .ok_or_else(|| format!("knobs: unknown policy `{policy_label}`"))?;
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("knobs: missing or non-integer `{name}`"))
        };
        let batch_cutoff = match v.get("batch_cutoff") {
            Some(Json::Null) => None,
            Some(j) => Some(
                j.as_u64()
                    .ok_or("knobs: `batch_cutoff` must be an integer or null")?,
            ),
            None => return Err("knobs: missing `batch_cutoff`".into()),
        };
        Ok(Self {
            policy,
            load_slack: field("load_slack")?,
            batch_cutoff,
            max_batch: field("max_batch")? as usize,
        })
    }

    /// A deterministic, evaluation-order-independent total order over
    /// knob points, used only to break exact objective ties.
    fn rank(&self) -> String {
        self.to_json()
    }
}

/// The serving objective, minimized lexicographically: tail latency
/// first, then configuration traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Objective {
    /// p99 arrival-to-completion latency, in simulated cycles.
    pub p99: u64,
    /// Total emitted setup writes.
    pub setup_writes: u64,
}

impl Objective {
    /// Weak Pareto domination made strict: no worse on both metrics and
    /// strictly better on at least one. This is the *eligibility* bar a
    /// tuned config must clear against the default — a config that
    /// trades writes for latency (or vice versa) is not accepted.
    pub fn dominates(&self, other: &Objective) -> bool {
        self.p99 <= other.p99
            && self.setup_writes <= other.setup_writes
            && (self.p99 < other.p99 || self.setup_writes < other.setup_writes)
    }

    /// The lexicographic comparison key.
    pub fn key(&self) -> (u64, u64) {
        (self.p99, self.setup_writes)
    }

    /// The objective as a single-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"p99\": {}, \"setup_writes\": {}}}",
            self.p99, self.setup_writes
        )
    }
}

/// The outcome of one candidate evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eval {
    /// The serve ran to completion with this objective.
    Complete(Objective),
    /// The capped serve was aborted: its final objective provably
    /// violates the budget, so the candidate cannot win.
    Aborted,
}

/// Serves `stream` on a fresh runtime under `knobs` (optionally capped
/// by `budget`) and extracts the objective. Candidate serves never use a
/// warm-start store: a capped run that aborted must not flush partial
/// EWMA state, and the engine guarantees an aborted serve flushes
/// nothing — the autotuner simply never configures one.
///
/// # Panics
/// Panics on any serve failure other than a budget abort, and on
/// functional or simulation failures — a tuning candidate that breaks
/// the serve is a bug, not a bad objective.
pub fn evaluate(
    pool: &PoolConfig,
    stream: &[TrafficRequest],
    knobs: &KnobConfig,
    budget: Option<ServeBudget>,
) -> Eval {
    let mut runtime = Runtime::new(pool.clone());
    let cfg = ServeConfig {
        budget,
        ..knobs.serve_config()
    };
    match runtime.serve(stream, &cfg) {
        Ok(report) => {
            assert_eq!(
                report.metrics.check_failures, 0,
                "candidate {knobs:?}: functional checks failed"
            );
            assert_eq!(
                report.metrics.sim_failures, 0,
                "candidate {knobs:?}: simulation failed"
            );
            Eval::Complete(Objective {
                p99: report.metrics.latency.p99,
                setup_writes: report.metrics.setup_writes,
            })
        }
        Err(ServeError::BudgetExceeded { .. }) => Eval::Aborted,
        Err(e) => panic!("candidate {knobs:?}: serve failed: {e}"),
    }
}

/// The routing policies the tuner races, in grid order. `thermal` is
/// not raced: it prices exactly like `cost` on identity-timing pools, so
/// its points would only duplicate `cost`'s.
const RACED_POLICIES: [Policy; 3] = [Policy::FifoElide, Policy::ConfigAffinity, Policy::Cost];

/// The grid [`tune_stream`]'s first phase races: policy × slack
/// horizon × batching/cutoff.
pub fn knob_space() -> Vec<KnobConfig> {
    let mut space: Vec<KnobConfig> = Vec::new();
    let mut push = |k: KnobConfig| {
        let k = k.canonical();
        if !space.contains(&k) {
            space.push(k);
        }
    };
    for policy in RACED_POLICIES {
        for slack in [128u64, 256, 512] {
            let point = KnobConfig {
                policy,
                load_slack: slack,
                batch_cutoff: Some(slack),
                max_batch: 1,
            };
            push(point);
            for cutoff in [Some(slack), None] {
                push(KnobConfig {
                    max_batch: 8,
                    batch_cutoff: cutoff,
                    ..point
                });
            }
        }
    }
    // the default point is evaluated (uncapped) by `tune_stream` itself
    space.retain(|k| *k != KnobConfig::default().canonical());
    space
}

/// Search options for [`tune_stream`].
#[derive(Debug, Clone, Copy)]
pub struct TuneOptions {
    /// Local-refinement rounds after the grid pass.
    pub refine_rounds: usize,
    /// Capped-run racing: evaluate candidates under a [`ServeBudget`]
    /// derived from the default and the incumbent. Off, every candidate
    /// serves the full stream — same winner (the pinned oracle
    /// property), more cycles.
    pub racing: bool,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self {
            refine_rounds: 2,
            racing: true,
        }
    }
}

/// What [`tune_stream`] found for one stream.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The stream name.
    pub stream: String,
    /// The default knobs' objective (the baseline every candidate must
    /// dominate).
    pub default_objective: Objective,
    /// The winning knobs (the defaults when nothing dominated them).
    pub knobs: KnobConfig,
    /// The winner's objective.
    pub objective: Objective,
    /// `true` if the winner strictly dominates the default.
    pub improved: bool,
    /// Candidate serves started (including the default's).
    pub evaluations: u64,
    /// Candidate serves the racing budget cut short.
    pub aborts: u64,
}

/// One-step knob perturbations of `center` — the refinement phase's
/// proposal neighborhood.
fn neighbors(center: &KnobConfig) -> Vec<KnobConfig> {
    let mut out = Vec::new();
    for slack in [center.load_slack / 2, center.load_slack * 2] {
        if (64..=1024).contains(&slack) {
            let mut k = *center;
            k.load_slack = slack;
            // a capped cutoff follows the horizon, like BatchCutoff::FollowSlack
            k.batch_cutoff = k.batch_cutoff.map(|_| slack);
            out.push(k);
        }
    }
    if center.max_batch > 1 {
        match center.batch_cutoff {
            Some(c) => {
                for cutoff in [c / 2, c * 2] {
                    if (32..=2048).contains(&cutoff) {
                        out.push(KnobConfig {
                            batch_cutoff: Some(cutoff),
                            ..*center
                        });
                    }
                }
                out.push(KnobConfig {
                    batch_cutoff: None,
                    ..*center
                });
            }
            None => out.push(KnobConfig {
                batch_cutoff: Some(center.load_slack),
                ..*center
            }),
        }
    }
    out.push(KnobConfig {
        max_batch: if center.max_batch > 1 { 1 } else { 8 },
        ..*center
    });
    for policy in RACED_POLICIES {
        if policy != center.policy {
            out.push(KnobConfig { policy, ..*center });
        }
    }
    out
}

/// The search state of one [`tune_stream`] call.
struct Race<'a> {
    pool: &'a PoolConfig,
    stream: &'a [TrafficRequest],
    /// The default knobs' objective: the bar every candidate must dominate.
    default: Objective,
    racing: bool,
    best: Option<(KnobConfig, Objective)>,
    evaluations: u64,
    aborts: u64,
}

impl Race<'_> {
    /// Evaluates one candidate under the racing budget and folds it into
    /// the incumbent. The budget: p99 no worse than the *weaker* of the
    /// default and the incumbent (anything above cannot win the
    /// lexicographic comparison), writes no worse than the default
    /// (anything above is ineligible). Ties on the exact objective break
    /// by [`KnobConfig::rank`] — an evaluation-order-independent rule, so
    /// the winner is identical however racing reorders or aborts the
    /// losers.
    fn consider(&mut self, cand: KnobConfig) {
        let default = self.default;
        let budget = self.racing.then(|| ServeBudget {
            p99_bound: Some(
                self.best
                    .as_ref()
                    .map_or(default.p99, |(_, b)| b.p99.min(default.p99)),
            ),
            max_setup_writes: Some(default.setup_writes),
        });
        self.evaluations += 1;
        match evaluate(self.pool, self.stream, &cand, budget) {
            Eval::Aborted => self.aborts += 1,
            Eval::Complete(obj) => {
                if obj.dominates(&default) {
                    let wins = match &self.best {
                        None => true,
                        Some((bk, bo)) => {
                            obj.key() < bo.key()
                                || (obj.key() == bo.key() && cand.rank() < bk.rank())
                        }
                    };
                    if wins {
                        self.best = Some((cand, obj));
                    }
                }
            }
        }
    }
}

/// Tunes one stream over `space`: a racing grid pass, then
/// `opts.refine_rounds` rounds of local refinement around the
/// incumbent. Deterministic end to end; with racing on or
/// off the winner (knobs *and* objective) is identical — only
/// `evaluations`/`aborts` and the cycles spent differ.
pub fn tune_stream(
    name: &str,
    pool: &PoolConfig,
    stream: &[TrafficRequest],
    space: &[KnobConfig],
    opts: &TuneOptions,
) -> TuneResult {
    let default_knobs = KnobConfig::default().canonical();
    let default = match evaluate(pool, stream, &default_knobs, None) {
        Eval::Complete(obj) => obj,
        Eval::Aborted => unreachable!("unbudgeted serves never abort"),
    };
    let mut race = Race {
        pool,
        stream,
        default,
        racing: opts.racing,
        best: None,
        evaluations: 1,
        aborts: 0,
    };
    let mut attempted: Vec<KnobConfig> = vec![default_knobs];

    // phase 1: race the grid
    for cand in space {
        let cand = cand.canonical();
        if attempted.contains(&cand) {
            continue;
        }
        attempted.push(cand);
        race.consider(cand);
    }

    // phase 2: local refinement around the incumbent, each round's
    // center fixed before its neighbors are raced
    for _ in 0..opts.refine_rounds {
        let center = race.best.map_or(default_knobs, |(k, _)| k);
        let before = attempted.len();
        for k in neighbors(&center) {
            let k = k.canonical();
            if !attempted.contains(&k) {
                attempted.push(k);
                race.consider(k);
            }
        }
        if attempted.len() == before {
            break;
        }
    }

    let improved = race.best.is_some();
    let (knobs, objective) = race.best.unwrap_or((default_knobs, default));
    TuneResult {
        stream: name.to_string(),
        default_objective: default,
        knobs,
        objective,
        improved,
        evaluations: race.evaluations,
        aborts: race.aborts,
    }
}

/// One stream's row of the tuned-config table.
#[derive(Debug, Clone)]
pub struct StreamEntry {
    /// The stream name.
    pub name: String,
    /// `"seed"` (tuned on) or `"held_out"` (reported only).
    pub role: &'static str,
    /// Where the knobs came from: `"search"` for seed streams, the name
    /// of the seed stream whose winner transferred (or `"default"`) for
    /// held-out streams.
    pub source: String,
    /// The knobs this row was served with.
    pub knobs: KnobConfig,
    /// The default knobs' objective on this stream.
    pub default: Objective,
    /// The tuned knobs' objective on this stream.
    pub tuned: Objective,
    /// Candidate serves started while tuning this stream (0 for
    /// held-out rows).
    pub evaluations: u64,
    /// Candidate serves the racing budget cut short.
    pub aborts: u64,
}

/// Renders the tuned-config table (`TUNED.json`). Deterministic: a
/// byte-identical function of its inputs, which are themselves
/// deterministic — so two autotune runs produce byte-identical files.
pub fn render_table(requests: usize, opts: &TuneOptions, entries: &[StreamEntry]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"autotune\": {{\"requests\": {requests}, \"refine_rounds\": {}, \"racing\": {}}},\n",
        opts.refine_rounds, opts.racing
    ));
    out.push_str("  \"streams\": {\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!("    \"{}\": {{\n", e.name));
        out.push_str(&format!(
            "      \"role\": \"{}\", \"source\": \"{}\",\n",
            e.role, e.source
        ));
        out.push_str(&format!("      \"knobs\": {},\n", e.knobs.to_json()));
        out.push_str(&format!("      \"default\": {},\n", e.default.to_json()));
        out.push_str(&format!("      \"tuned\": {},\n", e.tuned.to_json()));
        out.push_str(&format!(
            "      \"delta\": {{\"p99\": {}, \"setup_writes\": {}}},\n",
            e.default.p99 as i64 - e.tuned.p99 as i64,
            e.default.setup_writes as i64 - e.tuned.setup_writes as i64
        ));
        out.push_str(&format!(
            "      \"search\": {{\"evaluations\": {}, \"capped_aborts\": {}}}\n",
            e.evaluations, e.aborts
        ));
        out.push_str(&format!("    }}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    crate::json::validate(&out).expect("tuned table must be strict JSON");
    out
}

/// Parses a tuned-config table back into `(stream, knobs)` rows, in
/// document order — what `serve_bench --tuned` consumes.
///
/// # Errors
/// Returns a message on malformed JSON or a malformed/missing `knobs`
/// object.
pub fn parse_table(text: &str) -> Result<Vec<(String, KnobConfig)>, String> {
    let doc = crate::json::parse(text)?;
    let streams = doc
        .get("streams")
        .and_then(Json::entries)
        .ok_or("tuned table: missing `streams` object")?;
    streams
        .iter()
        .map(|(name, entry)| {
            let knobs = entry
                .get("knobs")
                .ok_or_else(|| format!("tuned table: stream `{name}` has no `knobs`"))?;
            Ok((
                name.clone(),
                KnobConfig::from_json(knobs).map_err(|e| format!("stream `{name}`: {e}"))?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_knobs_mirror_the_serve_config_defaults() {
        let knobs = KnobConfig::default();
        let cfg = knobs.serve_config();
        let reference = ServeConfig::default();
        assert_eq!(cfg.policy, reference.policy);
        assert_eq!(cfg.load_slack, reference.load_slack);
        assert_eq!(
            cfg.batch_cutoff.resolve(cfg.load_slack),
            reference.batch_cutoff.resolve(reference.load_slack)
        );
        assert_eq!(cfg.max_batch, reference.max_batch);
        // canonicalization is a no-op on the defaults
        assert_eq!(knobs.canonical(), knobs);
    }

    #[test]
    fn canonical_collapses_inert_cutoffs() {
        let a = KnobConfig {
            batch_cutoff: Some(64),
            ..KnobConfig::default()
        };
        let b = KnobConfig {
            batch_cutoff: None,
            ..KnobConfig::default()
        };
        assert_eq!(a.canonical(), b.canonical());
        // with batching on, the cutoff is live and must survive
        let batched = KnobConfig {
            max_batch: 8,
            batch_cutoff: None,
            ..KnobConfig::default()
        };
        assert_eq!(batched.canonical().batch_cutoff, None);
    }

    #[test]
    fn knobs_round_trip_through_json() {
        for knobs in [
            KnobConfig::default(),
            KnobConfig {
                policy: Policy::Thermal,
                load_slack: 512,
                batch_cutoff: None,
                max_batch: 8,
            },
        ] {
            let text = knobs.to_json();
            crate::json::validate(&text).unwrap();
            let parsed = KnobConfig::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed, knobs);
        }
    }

    #[test]
    fn domination_is_strict() {
        let base = Objective {
            p99: 100,
            setup_writes: 1000,
        };
        let better = Objective {
            p99: 100,
            setup_writes: 999,
        };
        let trade = Objective {
            p99: 99,
            setup_writes: 1001,
        };
        assert!(better.dominates(&base));
        assert!(!base.dominates(&base));
        assert!(!trade.dominates(&base), "metric trades are not accepted");
    }

    #[test]
    fn knob_space_is_duplicate_free_and_canonical() {
        let space = knob_space();
        for (i, k) in space.iter().enumerate() {
            assert_eq!(*k, k.canonical());
            assert!(!space[..i].contains(k), "duplicate point {k:?}");
        }
        assert!(
            !space.contains(&KnobConfig::default().canonical()),
            "the default point would be a wasted evaluation"
        );
    }

    #[test]
    fn table_round_trips() {
        let entries = vec![StreamEntry {
            name: "mixed".into(),
            role: "seed",
            source: "search".into(),
            knobs: KnobConfig {
                max_batch: 8,
                ..KnobConfig::default()
            },
            default: Objective {
                p99: 1079,
                setup_writes: 121857,
            },
            tuned: Objective {
                p99: 1079,
                setup_writes: 121854,
            },
            evaluations: 28,
            aborts: 17,
        }];
        let text = render_table(4000, &TuneOptions::default(), &entries);
        let rows = parse_table(&text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "mixed");
        assert_eq!(rows[0].1, entries[0].knobs);
    }

    /// A one-stream table holding the default knobs with the text `from`
    /// replaced by `to`.
    fn table_with(from: &str, to: &str) -> String {
        let knobs = KnobConfig::default().to_json();
        assert!(knobs.contains(from), "{knobs} has no {from}");
        format!(
            r#"{{"streams": {{"mixed": {{"knobs": {}}}}}}}"#,
            knobs.replacen(from, to, 1)
        )
    }

    #[test]
    fn malformed_tables_are_errors_not_panics() {
        // the helper's own output parses, so each case below fails for
        // the one thing it changes
        let rows = parse_table(&table_with(r#""max_batch": 1"#, r#""max_batch": 8"#)).unwrap();
        assert_eq!(rows[0].1.max_batch, 8);

        for (what, text) in [
            ("no `streams`", r#"{"autotune": {}}"#.to_string()),
            ("`streams` not an object", r#"{"streams": [1, 2]}"#.into()),
            ("no `knobs`", r#"{"streams": {"mixed": {}}}"#.into()),
            (
                "`knobs` not an object",
                r#"{"streams": {"mixed": {"knobs": 7}}}"#.into(),
            ),
            ("truncated", r#"{"streams": "#.into()),
            (
                "unknown policy",
                table_with(r#""policy": "affinity""#, r#""policy": "lifo""#),
            ),
            (
                "policy not a string",
                table_with(r#""policy": "affinity""#, r#""policy": 3"#),
            ),
            (
                "negative slack",
                table_with(r#""load_slack": 256"#, r#""load_slack": -256"#),
            ),
            (
                "fractional slack",
                table_with(r#""load_slack": 256"#, r#""load_slack": 256.5"#),
            ),
            (
                "null slack",
                table_with(r#""load_slack": 256"#, r#""load_slack": null"#),
            ),
            (
                "fractional batch",
                table_with(r#""max_batch": 1"#, r#""max_batch": 0.5"#),
            ),
            (
                "string cutoff",
                table_with(r#""batch_cutoff": 256"#, r#""batch_cutoff": "none""#),
            ),
        ] {
            assert!(parse_table(&text).is_err(), "{what}: accepted {text}");
        }
        // an extra member — two that older tables carried, one never
        // known — is refused by name, never silently dropped
        for (name, member) in [
            ("power_cap", r#""power_cap": 1"#),
            ("dvfs", r#""dvfs": "reference""#),
            ("turbo", r#""turbo": 1"#),
        ] {
            let text = table_with(r#""max_batch": 1"#, &format!(r#""max_batch": 1, {member}"#));
            let err = parse_table(&text).unwrap_err();
            assert!(err.contains(&format!("unknown member `{name}`")), "{err}");
        }
    }
}
