//! A deterministic two-phase autotuner over the serving knobs.
//!
//! The runtime ships hand-picked knob values — `load_slack = 256`,
//! `batch_cutoff = slack`, batching off, per-platform reference DVFS
//! tables, `power_cap` unset. This module closes the loop: it searches
//! the knob space per stream and emits the configuration that minimizes
//! the serving objective (p99 latency, then setup writes). Because a
//! simulated serve is a *noise-free* evaluation — the same stream and
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
//! The searched knobs: routing policy, `load_slack`, `batch_cutoff`,
//! `max_batch`, and — on pools with reference timing models — the
//! thermal knobs: [`PoolGroup::power_cap`] and the DVFS table variants
//! `microbench dvfs_sensitivity` sweeps ([`DvfsVariant`]).
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
//! [`PoolGroup::power_cap`]: accfg_runtime::PoolGroup

use crate::json::Json;
use accfg_runtime::{Policy, PoolConfig, Runtime, ServeBudget, ServeConfig, ServeError};
use accfg_sim::DvfsParams;
use accfg_workloads::TrafficRequest;

/// The DVFS table variants the autotuner sweeps on timing-model pools —
/// the same family `microbench dvfs_sensitivity` characterizes, each a
/// deterministic transform of the platform's reference table. Applied
/// uniformly to every pool member that has a DVFS table, so a uniform
/// group stays uniform (identical descriptors keep identical names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DvfsVariant {
    /// The platform's reference table, unchanged.
    #[default]
    Reference,
    /// Warm/boost thresholds at a quarter of reference: the clock ramps
    /// up quickly and spends more launches boosted.
    EagerRamp,
    /// Warm/boost thresholds at four times reference: boost is earned
    /// slowly, most launches run cold or warm.
    LazyRamp,
    /// Cooldown after only 4 idle cycles: any arrival gap drops the
    /// clock back to cold.
    SkittishCooldown,
}

impl DvfsVariant {
    /// Every variant, in sweep order.
    pub const ALL: [DvfsVariant; 4] = [
        DvfsVariant::Reference,
        DvfsVariant::EagerRamp,
        DvfsVariant::LazyRamp,
        DvfsVariant::SkittishCooldown,
    ];

    /// The table label used in reports and `TUNED.json`.
    pub fn label(self) -> &'static str {
        match self {
            DvfsVariant::Reference => "reference",
            DvfsVariant::EagerRamp => "eager-ramp",
            DvfsVariant::LazyRamp => "lazy-ramp",
            DvfsVariant::SkittishCooldown => "skittish-cooldown",
        }
    }

    /// Parses [`DvfsVariant::label`] back.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|v| v.label() == label)
    }

    /// The variant's transform of a platform's reference table.
    pub fn apply(self, reference: DvfsParams) -> DvfsParams {
        match self {
            DvfsVariant::Reference => reference,
            DvfsVariant::EagerRamp => DvfsParams {
                warm_busy_cycles: reference.warm_busy_cycles / 4,
                boost_busy_cycles: reference.boost_busy_cycles / 4,
                ..reference
            },
            DvfsVariant::LazyRamp => DvfsParams {
                warm_busy_cycles: reference.warm_busy_cycles * 4,
                boost_busy_cycles: reference.boost_busy_cycles * 4,
                ..reference
            },
            DvfsVariant::SkittishCooldown => DvfsParams {
                cooldown_idle_cycles: 4,
                ..reference
            },
        }
    }
}

/// One point of the serving knob space: everything the autotuner can
/// turn, spanning [`ServeConfig`] (policy, slack, cutoff, batch) and the
/// pool (power cap, DVFS tables).
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
    /// Boost power cap applied to *every* pool group (`None` = pool
    /// default, i.e. unbounded).
    pub power_cap: Option<usize>,
    /// DVFS table variant for every member with a timing model.
    pub dvfs: DvfsVariant,
}

impl Default for KnobConfig {
    /// The runtime's hand-picked defaults — exactly
    /// [`ServeConfig::default`] plus an untouched pool.
    fn default() -> Self {
        let cfg = ServeConfig::default();
        Self {
            policy: cfg.policy,
            load_slack: cfg.load_slack,
            batch_cutoff: cfg.batch_cutoff.resolve(cfg.load_slack),
            max_batch: cfg.max_batch,
            power_cap: None,
            dvfs: DvfsVariant::Reference,
        }
    }
}

impl KnobConfig {
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

    /// The [`ServeConfig`] for these knobs (pool knobs excluded — see
    /// [`KnobConfig::apply_pool`]).
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            policy: self.policy,
            max_batch: self.max_batch,
            load_slack: self.load_slack,
            batch_cutoff: self.batch_cutoff.into(),
            ..ServeConfig::default()
        }
    }

    /// The pool for these knobs: `base` with the power cap applied to
    /// every group and the DVFS variant's transform applied to every
    /// member that has a table. Identity-timing members are untouched
    /// (the thermal knobs are inert there), and uniform groups stay
    /// uniform, so the transformed pool passes the runtime's
    /// variant-name and plan-compatibility validation whenever `base`
    /// does.
    pub fn apply_pool(&self, base: &PoolConfig) -> PoolConfig {
        let mut pool = base.clone();
        for group in &mut pool.groups {
            if let Some(cap) = self.power_cap {
                group.power_cap = Some(cap);
            }
            for member in &mut group.members {
                if let Some(reference) = member.timing.dvfs {
                    member.timing.dvfs = Some(self.dvfs.apply(reference));
                }
            }
        }
        pool
    }

    /// Asks the runtime whether it serves `base` under these knobs: an
    /// empty stream runs its pool validation (the power cap's range
    /// included) and nothing else, so a loaded table can be refused up
    /// front instead of failing its row mid-run.
    ///
    /// # Errors
    /// The runtime's own verdict, e.g. [`ServeError::InvalidPowerCap`].
    pub fn check_pool(&self, base: &PoolConfig) -> Result<(), ServeError> {
        Runtime::new(self.apply_pool(base))
            .serve(&[], &self.serve_config())
            .map(drop)
    }

    /// The knobs as a single-line JSON object (the `knobs` value in
    /// `TUNED.json`).
    pub fn to_json(&self) -> String {
        let cutoff = match self.batch_cutoff {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        let cap = match self.power_cap {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"policy\": \"{}\", \"load_slack\": {}, \"batch_cutoff\": {}, \
             \"max_batch\": {}, \"power_cap\": {}, \"dvfs\": \"{}\"}}",
            self.policy.label(),
            self.load_slack,
            cutoff,
            self.max_batch,
            cap,
            self.dvfs.label()
        )
    }

    /// Parses [`KnobConfig::to_json`] back from a parsed [`Json`] value.
    ///
    /// # Errors
    /// Returns a message naming the missing or malformed member; a
    /// `power_cap` of 0 is refused here because no pool can honour it.
    pub fn from_json(v: &Json) -> Result<Self, String> {
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
        let nullable = |name: &str| match v.get(name) {
            Some(Json::Null) => Ok(None),
            Some(j) => j
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("knobs: `{name}` must be an integer or null")),
            None => Err(format!("knobs: missing `{name}`")),
        };
        let dvfs_label = v
            .get("dvfs")
            .and_then(Json::as_str)
            .ok_or("knobs: missing or non-string `dvfs`")?;
        let power_cap = nullable("power_cap")?.map(|c| c as usize);
        if power_cap == Some(0) {
            return Err("knobs: `power_cap` must be at least 1 (or null)".into());
        }
        Ok(Self {
            policy,
            load_slack: field("load_slack")?,
            batch_cutoff: nullable("batch_cutoff")?,
            max_batch: field("max_batch")? as usize,
            power_cap,
            dvfs: DvfsVariant::from_label(dvfs_label)
                .ok_or_else(|| format!("knobs: unknown dvfs variant `{dvfs_label}`"))?,
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
    let mut runtime = Runtime::new(knobs.apply_pool(pool));
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

/// The grid [`tune_stream`]'s first phase races. The core dimensions —
/// policy × slack horizon × batching/cutoff — always; the thermal
/// dimensions (DVFS variant × power cap, under the cost-aware policies)
/// only with `thermal` (pools whose members carry timing models —
/// identity pools cannot distinguish them).
pub fn knob_space(thermal: bool) -> Vec<KnobConfig> {
    let mut policies = vec![Policy::FifoElide, Policy::ConfigAffinity, Policy::Cost];
    if thermal {
        policies.push(Policy::Thermal);
    }
    let mut space: Vec<KnobConfig> = Vec::new();
    let mut push = |k: KnobConfig| {
        let k = k.canonical();
        if !space.contains(&k) {
            space.push(k);
        }
    };
    for &policy in &policies {
        for slack in [128u64, 256, 512] {
            let point = KnobConfig {
                policy,
                load_slack: slack,
                batch_cutoff: Some(slack),
                max_batch: 1,
                power_cap: None,
                dvfs: DvfsVariant::Reference,
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
    if thermal {
        for policy in [Policy::Cost, Policy::Thermal] {
            for dvfs in DvfsVariant::ALL {
                for power_cap in [None, Some(1)] {
                    push(KnobConfig {
                        policy,
                        load_slack: 256,
                        batch_cutoff: Some(256),
                        max_batch: 1,
                        power_cap,
                        dvfs,
                    });
                }
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
fn neighbors(center: &KnobConfig, thermal: bool) -> Vec<KnobConfig> {
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
    let mut policies = vec![Policy::FifoElide, Policy::ConfigAffinity, Policy::Cost];
    if thermal {
        policies.push(Policy::Thermal);
    }
    for policy in policies {
        if policy != center.policy {
            out.push(KnobConfig { policy, ..*center });
        }
    }
    if thermal {
        for dvfs in DvfsVariant::ALL {
            if dvfs != center.dvfs {
                out.push(KnobConfig { dvfs, ..*center });
            }
        }
        out.push(KnobConfig {
            power_cap: match center.power_cap {
                None => Some(1),
                Some(_) => None,
            },
            ..*center
        });
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
    let thermal = space
        .iter()
        .any(|k| k.power_cap.is_some() || k.dvfs != DvfsVariant::Reference);

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
        for k in neighbors(&center, thermal) {
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
    fn dvfs_variants_are_the_four_tables_microbench_sweeps() {
        // the tables `microbench dvfs_sensitivity` typed out by hand before
        // it iterated `DvfsVariant::ALL`, over OpenGeMM's reference table
        let reference = accfg_targets::AcceleratorDescriptor::opengemm()
            .with_reference_timing()
            .timing
            .dvfs
            .expect("reference timing carries a DVFS table");
        let table = |warm, boost, cooldown| DvfsParams {
            warm_busy_cycles: warm,
            boost_busy_cycles: boost,
            cooldown_idle_cycles: cooldown,
            speed_pct: [40, 100, 160],
        };
        let expected = [
            ("reference", table(1_024, 4_096, 8_192)),
            ("eager-ramp", table(256, 1_024, 8_192)),
            ("lazy-ramp", table(4_096, 16_384, 8_192)),
            ("skittish-cooldown", table(1_024, 4_096, 4)),
        ];
        let applied = DvfsVariant::ALL.map(|v| (v.label(), v.apply(reference)));
        assert_eq!(applied, expected);
    }

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
                power_cap: Some(1),
                dvfs: DvfsVariant::LazyRamp,
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
        for thermal in [false, true] {
            let space = knob_space(thermal);
            for (i, k) in space.iter().enumerate() {
                assert_eq!(*k, k.canonical());
                assert!(!space[..i].contains(k), "duplicate point {k:?}");
            }
            assert!(
                !space.contains(&KnobConfig::default().canonical()),
                "the default point would be a wasted evaluation"
            );
        }
        assert!(knob_space(true).len() > knob_space(false).len());
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
        let rows = parse_table(&table_with(r#""power_cap": null"#, r#""power_cap": 1"#)).unwrap();
        assert_eq!(rows[0].1.power_cap, Some(1));

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
                "cap 0",
                table_with(r#""power_cap": null"#, r#""power_cap": 0"#),
            ),
            (
                "negative cap",
                table_with(r#""power_cap": null"#, r#""power_cap": -1"#),
            ),
            (
                "fractional cap",
                table_with(r#""power_cap": null"#, r#""power_cap": 1.5"#),
            ),
            (
                "unknown policy",
                table_with(r#""policy": "affinity""#, r#""policy": "lifo""#),
            ),
            (
                "policy not a string",
                table_with(r#""policy": "affinity""#, r#""policy": 3"#),
            ),
            (
                "unknown dvfs",
                table_with(r#""dvfs": "reference""#, r#""dvfs": "turbo""#),
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
    }

    #[test]
    fn a_cap_above_a_group_is_refused_against_the_pool() {
        let capped = |cap| KnobConfig {
            power_cap: cap,
            ..KnobConfig::default()
        };
        // two workers per group
        let mut pool = crate::streams::uniform_pool();
        assert_eq!(capped(None).check_pool(&pool), Ok(()));
        assert_eq!(capped(Some(2)).check_pool(&pool), Ok(()));
        assert!(matches!(
            capped(Some(3)).check_pool(&pool),
            Err(ServeError::InvalidPowerCap {
                cap: 3,
                workers: 2,
                ..
            })
        ));
        // the cap applies to every group, so the smallest one decides
        pool.groups[1].members.truncate(1);
        assert!(matches!(
            capped(Some(2)).check_pool(&pool),
            Err(ServeError::InvalidPowerCap { family, cap: 2, workers: 1 }) if family == "opengemm"
        ));
    }
}
