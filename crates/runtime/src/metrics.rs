//! Serving metrics: throughput, latency percentiles, configuration-write
//! accounting, and cache statistics — plus a dependency-free JSON
//! rendering for `BENCH_runtime.json`.

use crate::cache::CacheStats;
use accfg_workloads::MatmulSpec;
use std::fmt::Write as _;

/// The class label used in per-class metrics: `<accelerator>/<m>x<n>x<k>`.
pub fn class_label(accelerator: &str, spec: &MatmulSpec) -> String {
    format!("{}/{}x{}x{}", accelerator, spec.m, spec.n, spec.k)
}

/// Escapes a string for embedding in the hand-rendered JSON report
/// (custom accelerator names are arbitrary user input).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The 1-based nearest rank of the `p`-th percentile of `n` sorted
/// samples: `ceil(p · n)` clamped to `1..=n` (0 when there are none).
pub(crate) fn nearest_rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1.min(n), n)
}

/// Latency distribution over served requests, in simulated cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst case.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl LatencyStats {
    /// Computes the distribution from raw per-request latencies.
    ///
    /// Percentiles use the nearest-rank (ceiling) definition: the p-th
    /// percentile is the smallest sample value such that at least `p` of
    /// the samples are ≤ it.
    pub fn from_latencies(latencies: &[u64]) -> Self {
        if latencies.is_empty() {
            return Self::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let pick = |p: f64| sorted[nearest_rank(sorted.len(), p) - 1];
        Self {
            p50: pick(0.50),
            p99: pick(0.99),
            max: *sorted.last().expect("nonempty"),
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
        }
    }
}

/// Latency distribution of one traffic class (accelerator + shape) — the
/// per-class view an SLO is written against.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLatency {
    /// Class label, `<accelerator>/<m>x<n>x<k>`.
    pub class: String,
    /// Requests of this class served.
    pub requests: u64,
    /// Arrival-to-completion latency distribution.
    pub latency: LatencyStats,
}

/// Number of exact buckets in a [`DepthHistogram`]; deeper queues fold
/// into the last bucket.
pub const DEPTH_BUCKETS: usize = 16;

/// Histogram of the queue depth each request observed at dispatch time —
/// how many earlier dispatches on its worker were still unfinished at its
/// arrival. Depths of `DEPTH_BUCKETS - 1` or more share the last bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthHistogram {
    /// `counts[d]` = requests that saw depth `d` (last bucket: `≥ d`).
    pub counts: Vec<u64>,
    /// Deepest queue any request landed behind.
    pub max: u64,
}

impl Default for DepthHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; DEPTH_BUCKETS],
            max: 0,
        }
    }
}

impl DepthHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observed queue depth.
    pub fn record(&mut self, depth: u64) {
        let bucket = (depth as usize).min(DEPTH_BUCKETS - 1);
        self.counts[bucket] += 1;
        self.max = self.max.max(depth);
    }

    /// Total requests recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of requests that saw a queue depth of at least `depth`
    /// (clamped to the exact-bucket range).
    pub fn fraction_at_least(&self, depth: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let from = (depth as usize).min(DEPTH_BUCKETS - 1);
        self.counts[from..].iter().sum::<u64>() as f64 / total as f64
    }
}

/// Observed-vs-predicted dispatch-cycle error over one serve run,
/// accumulated for *both* predictors on the same dispatch sequence: the
/// static build-time anchors and the online EWMA refinement the scheduler
/// actually charged queues with. Comparing the two on identical dispatches
/// is what lets one run quantify how much refinement sharpens the
/// estimates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionStats {
    /// Dispatches with a measured execution (simulation failures are
    /// excluded — their counters are not a dispatch cost).
    pub samples: u64,
    /// Summed `|anchor prediction − observed cycles|`.
    pub anchor_abs_error: u64,
    /// Summed `|refined prediction − observed cycles|`. Equals the anchor
    /// sum when refinement is disabled.
    pub ewma_abs_error: u64,
}

impl PredictionStats {
    /// Mean absolute error of the static anchor predictions, in cycles.
    pub fn anchor_mae(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.anchor_abs_error as f64 / self.samples as f64
        }
    }

    /// Mean absolute error of the refined (EWMA) predictions, in cycles.
    pub fn ewma_mae(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.ewma_abs_error as f64 / self.samples as f64
        }
    }
}

/// Warm-start provenance of one serve run against a persistent store:
/// what the run inherited from previous processes rather than recomputing.
/// Present in [`ServeMetrics`] only when the run used a store, so
/// store-less reports keep their exact shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStartStats {
    /// Compiled modules decoded from the store into the module cache:
    /// the distinct stream keys the cache missed and the store held.
    pub modules_restored: u64,
    /// Cost-refiner rows seeded from the store: the rows it held for the
    /// stream's distinct modules on the pool's platforms.
    pub ewma_entries_seeded: u64,
    /// Compile builds this run did not pay. Restore is per key on first
    /// resolve, so this equals `modules_restored`; both stay for the
    /// report's shape.
    pub builds_avoided: u64,
    /// Torn store tails dropped on open (0 or 1 per serve; see
    /// `accfg_store::LogStore::recovery`). Rendered only when nonzero.
    pub torn_tails_recovered: u64,
    /// Stored modules the stream resolved that the resolving family's
    /// base could not field (same key, another configuration style): not
    /// restored, rebuilt, and overwritten by the flush. Rendered only
    /// when nonzero.
    pub records_unfieldable: u64,
}

/// Per-worker accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerMetrics {
    /// Pool-wide worker index.
    pub index: usize,
    /// The accelerator the worker serves.
    pub accelerator: String,
    /// Requests executed.
    pub requests: u64,
    /// Simulated cycles spent executing dispatches.
    pub busy_cycles: u64,
    /// Simulated cycle at which the worker finished its last dispatch.
    pub finish: u64,
}

/// Aggregate metrics of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Policy label ("fifo", "affinity", ...).
    pub policy: String,
    /// Requests served.
    pub requests: u64,
    /// Requests whose functional check failed (must be 0).
    pub check_failures: u64,
    /// Requests whose simulation failed (must be 0).
    pub sim_failures: u64,
    /// Configuration register writes emitted after resident-state elision.
    pub setup_writes: u64,
    /// Writes the same dispatches would emit onto blank register files.
    pub cold_setup_writes: u64,
    /// Configuration bytes transferred (including launch commands).
    pub config_bytes: u64,
    /// Accelerator launches executed.
    pub launches: u64,
    /// Total simulated execution cycles across all dispatches.
    pub sim_cycles: u64,
    /// Extra host cycles charged by the shared memory-bandwidth
    /// contention model across all dispatches (0 under identity timing).
    pub contention_cycles: u64,
    /// Launches per DVFS frequency state (cold, warm, boost); all zero
    /// when the pool's platforms run the identity timing model.
    pub freq_launches: [u64; accfg_sim::FREQ_STATES],
    /// Simulated cycle at which the last worker finished (open-loop
    /// makespan).
    pub makespan: u64,
    /// Latency distribution (arrival → completion).
    pub latency: LatencyStats,
    /// Per-class latency distributions, sorted by class label.
    pub per_class: Vec<ClassLatency>,
    /// Queue depth observed by each request at dispatch time.
    pub queue_depth: DepthHistogram,
    /// Observed-vs-predicted dispatch-cycle error (anchors vs. EWMA).
    pub prediction: PredictionStats,
    /// Prediction error broken down by the DVFS frequency state each
    /// dispatch actually launched in, with the EWMA column scored
    /// against the *frequency-keyed* refined prediction. All-zero under
    /// identity timing (every launch is cold and keyed rows equal the
    /// agnostic row); rendered only inside the conditional `timing`
    /// JSON object, so identity-timing reports keep their exact bytes.
    pub freq_prediction: [PredictionStats; accfg_sim::FREQ_STATES],
    /// Module-cache statistics for the run.
    pub cache: CacheStats,
    /// Warm-start provenance; `None` when the run used no persistent
    /// store.
    pub warm_start: Option<WarmStartStats>,
    /// Requests coalesced into a predecessor's batch.
    pub batched_requests: u64,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerMetrics>,
}

impl ServeMetrics {
    /// Fraction of setup writes elided relative to cold dispatches.
    pub fn elision_rate(&self) -> f64 {
        if self.cold_setup_writes == 0 {
            0.0
        } else {
            1.0 - self.setup_writes as f64 / self.cold_setup_writes as f64
        }
    }

    /// Fractional reduction of setup writes relative to `baseline`
    /// (positive = this run wrote less).
    pub fn write_savings_vs(&self, baseline: &ServeMetrics) -> f64 {
        if baseline.setup_writes == 0 {
            0.0
        } else {
            1.0 - self.setup_writes as f64 / baseline.setup_writes as f64
        }
    }

    /// Served requests per million simulated cycles of makespan.
    pub fn throughput_per_mcycle(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.requests as f64 * 1e6 / self.makespan as f64
        }
    }

    /// Renders the metrics as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"policy\": \"{}\",", escape_json(&self.policy));
        let _ = writeln!(out, "  \"requests\": {},", self.requests);
        let _ = writeln!(out, "  \"check_failures\": {},", self.check_failures);
        let _ = writeln!(out, "  \"sim_failures\": {},", self.sim_failures);
        let _ = writeln!(out, "  \"setup_writes\": {},", self.setup_writes);
        let _ = writeln!(out, "  \"cold_setup_writes\": {},", self.cold_setup_writes);
        let _ = writeln!(out, "  \"elision_rate\": {:.4},", self.elision_rate());
        let _ = writeln!(out, "  \"config_bytes\": {},", self.config_bytes);
        let _ = writeln!(out, "  \"launches\": {},", self.launches);
        let _ = writeln!(out, "  \"sim_cycles\": {},", self.sim_cycles);
        // timing-model columns appear only when the pool's timing model
        // actually charged something, so identity-timing reports (the
        // four uniform serve_bench streams) stay byte-identical to the
        // pre-timing-model artifact
        if self.contention_cycles > 0 || self.freq_launches.iter().any(|&n| n > 0) {
            let modes = ["cold", "warm", "boost"]
                .iter()
                .zip(self.freq_prediction.iter())
                .map(|(label, p)| {
                    format!(
                        "\"{label}\": {{ \"samples\": {}, \"anchor_mae\": {:.2}, \
                         \"ewma_mae\": {:.2} }}",
                        p.samples,
                        p.anchor_mae(),
                        p.ewma_mae()
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "  \"timing\": {{ \"contention_cycles\": {}, \"freq_launches\": \
                 {{ \"cold\": {}, \"warm\": {}, \"boost\": {} }}, \
                 \"freq_prediction\": {{ {modes} }} }},",
                self.contention_cycles,
                self.freq_launches[0],
                self.freq_launches[1],
                self.freq_launches[2]
            );
        }
        let _ = writeln!(out, "  \"makespan\": {},", self.makespan);
        let _ = writeln!(
            out,
            "  \"latency\": {{ \"p50\": {}, \"p99\": {}, \"max\": {}, \"mean\": {:.1} }},",
            self.latency.p50, self.latency.p99, self.latency.max, self.latency.mean
        );
        out.push_str("  \"per_class\": {\n");
        for (i, c) in self.per_class.iter().enumerate() {
            let comma = if i + 1 == self.per_class.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    \"{}\": {{ \"requests\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}, \"mean\": {:.1} }}{comma}",
                escape_json(&c.class),
                c.requests,
                c.latency.p50,
                c.latency.p99,
                c.latency.max,
                c.latency.mean
            );
        }
        out.push_str("  },\n");
        let _ = writeln!(
            out,
            "  \"queue_depth\": {{ \"counts\": [{}], \"max\": {} }},",
            self.queue_depth
                .counts
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            self.queue_depth.max
        );
        let _ = writeln!(
            out,
            "  \"prediction\": {{ \"samples\": {}, \"anchor_mae\": {:.2}, \"ewma_mae\": {:.2} }},",
            self.prediction.samples,
            self.prediction.anchor_mae(),
            self.prediction.ewma_mae()
        );
        let _ = writeln!(
            out,
            "  \"cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4} }},",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate()
        );
        // the warm-start object appears only for runs that used a
        // persistent store, so store-less reports (every committed
        // serve_bench stream) stay byte-identical to the pre-store
        // artifact — same pattern as the conditional "timing" object
        if let Some(warm) = &self.warm_start {
            let _ = write!(
                out,
                "  \"warm_start\": {{ \"modules_restored\": {}, \"ewma_entries_seeded\": {}, \
                 \"builds_avoided\": {}",
                warm.modules_restored, warm.ewma_entries_seeded, warm.builds_avoided
            );
            // events, not provenance: members only when they happened
            for (name, count) in [
                ("torn_tails_recovered", warm.torn_tails_recovered),
                ("records_unfieldable", warm.records_unfieldable),
            ] {
                if count > 0 {
                    let _ = write!(out, ", \"{name}\": {count}");
                }
            }
            out.push_str(" },\n");
        }
        let _ = writeln!(out, "  \"batched_requests\": {},", self.batched_requests);
        out.push_str("  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            let comma = if i + 1 == self.workers.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{ \"index\": {}, \"accelerator\": \"{}\", \"requests\": {}, \"busy_cycles\": {}, \"finish\": {} }}{comma}",
                w.index,
                escape_json(&w.accelerator),
                w.requests,
                w.busy_cycles,
                w.finish
            );
        }
        out.push_str("  ]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> ServeMetrics {
        ServeMetrics {
            policy: "affinity".into(),
            requests: 100,
            check_failures: 0,
            sim_failures: 0,
            setup_writes: 300,
            cold_setup_writes: 1000,
            config_bytes: 4000,
            launches: 120,
            sim_cycles: 50_000,
            contention_cycles: 0,
            freq_launches: [0; accfg_sim::FREQ_STATES],
            makespan: 20_000,
            latency: LatencyStats::from_latencies(&[10, 20, 30, 40, 1000]),
            per_class: vec![ClassLatency {
                class: "opengemm/16x16x16".into(),
                requests: 100,
                latency: LatencyStats::from_latencies(&[10, 20, 30, 40, 1000]),
            }],
            queue_depth: {
                let mut h = DepthHistogram::new();
                for d in [0, 0, 1, 2, 40] {
                    h.record(d);
                }
                h
            },
            prediction: PredictionStats {
                samples: 100,
                anchor_abs_error: 2_000,
                ewma_abs_error: 500,
            },
            freq_prediction: [PredictionStats::default(); accfg_sim::FREQ_STATES],
            cache: CacheStats {
                hits: 95,
                misses: 5,
            },
            warm_start: None,
            batched_requests: 12,
            workers: vec![WorkerMetrics {
                index: 0,
                accelerator: "opengemm".into(),
                requests: 100,
                busy_cycles: 50_000,
                finish: 20_000,
            }],
        }
    }

    #[test]
    fn percentiles_from_latencies() {
        let l = LatencyStats::from_latencies(&[5, 1, 3, 2, 4]);
        assert_eq!(l.p50, 3);
        assert_eq!(l.p99, 5);
        assert_eq!(l.max, 5);
        assert!((l.mean - 3.0).abs() < 1e-12);
        assert_eq!(LatencyStats::from_latencies(&[]), LatencyStats::default());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        // even sample count: nearest-rank p50 of 4 samples is the 2nd
        // value, not the round-to-3rd the old selection produced
        let l = LatencyStats::from_latencies(&[1, 2, 3, 4]);
        assert_eq!(l.p50, 2);
        // 67 samples: ceil(0.99 · 67) = 67 → p99 is the maximum; the old
        // round((n-1) · 0.99) = 65 picked the 66th value and underreported
        let sorted: Vec<u64> = (1..=67).collect();
        let l = LatencyStats::from_latencies(&sorted);
        assert_eq!(l.p99, 67);
        assert_eq!(l.p50, 34); // ceil(33.5) = 34th value
                               // a single sample is every percentile
        let l = LatencyStats::from_latencies(&[9]);
        assert_eq!((l.p50, l.p99, l.max), (9, 9, 9));
        // 100 samples of 0..100: p99 = 99th value = 98
        let sorted: Vec<u64> = (0..100).collect();
        assert_eq!(LatencyStats::from_latencies(&sorted).p99, 98);
    }

    #[test]
    fn json_escapes_user_controlled_strings() {
        let mut m = metrics();
        m.policy = "aff\"in\\ity".into();
        m.per_class[0].class = "my \"fast\"\naccel/8x8x8".into();
        m.workers[0].accelerator = "quo\"ted".into();
        let j = m.to_json();
        assert!(j.contains(r#""policy": "aff\"in\\ity""#), "{j}");
        assert!(j.contains(r#""my \"fast\"\u000aaccel/8x8x8""#), "{j}");
        assert!(j.contains(r#""accelerator": "quo\"ted""#), "{j}");
    }

    #[test]
    fn depth_histogram_buckets_and_overflow() {
        let mut h = DepthHistogram::new();
        for d in 0..(DEPTH_BUCKETS as u64 + 10) {
            h.record(d);
        }
        assert_eq!(h.total(), DEPTH_BUCKETS as u64 + 10);
        assert_eq!(h.counts[0], 1);
        // the last bucket folds every deeper observation
        assert_eq!(h.counts[DEPTH_BUCKETS - 1], 11);
        assert_eq!(h.max, DEPTH_BUCKETS as u64 + 9);
        assert!((h.fraction_at_least(0) - 1.0).abs() < 1e-12);
        let deep = 11.0 / (DEPTH_BUCKETS as f64 + 10.0);
        assert!((h.fraction_at_least(DEPTH_BUCKETS as u64 - 1) - deep).abs() < 1e-12);
        assert_eq!(DepthHistogram::new().fraction_at_least(3), 0.0);
    }

    #[test]
    fn rates_and_savings() {
        let m = metrics();
        assert!((m.elision_rate() - 0.7).abs() < 1e-12);
        let mut base = metrics();
        base.setup_writes = 600;
        assert!((m.write_savings_vs(&base) - 0.5).abs() < 1e-12);
        assert!((m.throughput_per_mcycle() - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = metrics().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"policy\": \"affinity\""));
        assert!(j.contains("\"hit_rate\": 0.9500"));
        assert!(
            j.contains(
                "\"prediction\": { \"samples\": 100, \"anchor_mae\": 20.00, \"ewma_mae\": 5.00 }"
            ),
            "{j}"
        );
    }

    #[test]
    fn timing_json_appears_only_when_charged() {
        // identity-timing runs must keep their JSON byte-identical to the
        // pre-timing-model reports
        assert!(!metrics().to_json().contains("\"timing\""));
        let mut m = metrics();
        m.contention_cycles = 42;
        m.freq_launches = [7, 2, 3];
        m.freq_prediction = [
            PredictionStats {
                samples: 7,
                anchor_abs_error: 70,
                ewma_abs_error: 7,
            },
            PredictionStats {
                samples: 2,
                anchor_abs_error: 10,
                ewma_abs_error: 1,
            },
            PredictionStats {
                samples: 3,
                anchor_abs_error: 9,
                ewma_abs_error: 3,
            },
        ];
        let j = m.to_json();
        assert!(
            j.contains(
                "\"timing\": { \"contention_cycles\": 42, \"freq_launches\": \
                 { \"cold\": 7, \"warm\": 2, \"boost\": 3 }, \"freq_prediction\": \
                 { \"cold\": { \"samples\": 7, \"anchor_mae\": 10.00, \"ewma_mae\": 1.00 }, \
                 \"warm\": { \"samples\": 2, \"anchor_mae\": 5.00, \"ewma_mae\": 0.50 }, \
                 \"boost\": { \"samples\": 3, \"anchor_mae\": 3.00, \"ewma_mae\": 1.00 } } },"
            ),
            "{j}"
        );
        // frequency counts alone are enough to surface the object
        let mut f = metrics();
        f.freq_launches = [1, 0, 0];
        assert!(f.to_json().contains("\"timing\""));
    }

    #[test]
    fn warm_start_json_appears_only_with_a_store() {
        // store-less runs must keep their JSON byte-identical to the
        // pre-store reports
        assert!(!metrics().to_json().contains("\"warm_start\""));
        let mut m = metrics();
        m.warm_start = Some(WarmStartStats {
            modules_restored: 6,
            ewma_entries_seeded: 12,
            builds_avoided: 6,
            torn_tails_recovered: 0,
            records_unfieldable: 0,
        });
        let j = m.to_json();
        assert!(
            j.contains(
                "\"warm_start\": { \"modules_restored\": 6, \"ewma_entries_seeded\": 12, \
                 \"builds_avoided\": 6 },"
            ),
            "{j}"
        );
        // a dropped store tail is a reported event, and only then a member
        m.warm_start.as_mut().unwrap().torn_tails_recovered = 1;
        assert!(
            m.to_json()
                .contains("\"builds_avoided\": 6, \"torn_tails_recovered\": 1 },"),
            "{}",
            m.to_json()
        );
        // so is a stored module the pool could not field
        m.warm_start.as_mut().unwrap().records_unfieldable = 2;
        assert!(
            m.to_json()
                .contains("\"torn_tails_recovered\": 1, \"records_unfieldable\": 2 },"),
            "{}",
            m.to_json()
        );
        // a cold first pass still reports the (zeroed) provenance object
        let mut cold = metrics();
        cold.warm_start = Some(WarmStartStats::default());
        assert!(cold.to_json().contains("\"modules_restored\": 0"));
    }

    #[test]
    fn prediction_maes_average_over_samples() {
        let p = PredictionStats {
            samples: 4,
            anchor_abs_error: 10,
            ewma_abs_error: 2,
        };
        assert!((p.anchor_mae() - 2.5).abs() < 1e-12);
        assert!((p.ewma_mae() - 0.5).abs() < 1e-12);
        let empty = PredictionStats::default();
        assert_eq!(empty.anchor_mae(), 0.0);
        assert_eq!(empty.ewma_mae(), 0.0);
    }
}
