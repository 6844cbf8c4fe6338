//! Deterministic open-loop request-stream generation for the serving
//! runtime.
//!
//! The paper eliminates redundant configuration *within* one compiled
//! program; a serving system sees the same redundancy *across requests* —
//! consecutive requests with similar shapes reprogram identical registers
//! on every dispatch. The generators here produce the request streams that
//! expose that, over a weighted mix of matmul shapes per accelerator,
//! fully determined by a seed so every run, test, and CI job sees the
//! identical stream:
//!
//! - [`TrafficConfig::open_loop_stream`] — open-loop arrivals (uniform
//!   inter-arrival gaps, independent of service times);
//! - [`BurstyConfig::stream`] — an on/off arrival process: tight bursts
//!   separated by long idle gaps, the pattern that stresses queue-depth
//!   scheduling hardest;
//! - [`ClosedLoopConfig::stream`] — a fixed population of clients, each
//!   issuing its next request one estimated service time plus a think gap
//!   after the previous, the arrival process of an RPC fan-in tier.
//!
//! Two canonical mixes feed the serving benchmark:
//! [`mixed_serving_classes`] (few shapes, inference-style skew) and
//! [`shape_heavy_classes`] (shapes ≫ workers, where affinity's routing
//! term dominates scheduling).

use crate::data::SplitMix;
use crate::spec::{MatmulSpec, SpecError};

/// One dispatchable unit of work in a request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficRequest {
    /// Stream-unique id, increasing in arrival order.
    pub id: u64,
    /// Target accelerator (an [`AcceleratorDescriptor`] name).
    ///
    /// [`AcceleratorDescriptor`]: accfg_targets::AcceleratorDescriptor
    pub accelerator: String,
    /// The matmul to execute.
    pub spec: MatmulSpec,
    /// Simulated arrival cycle (open-loop: independent of service times).
    pub arrival: u64,
    /// Seed for this request's input data.
    pub seed: u64,
}

/// One shape class in the traffic mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficClass {
    /// Target accelerator name.
    pub accelerator: String,
    /// The shape requests of this class carry.
    pub spec: MatmulSpec,
    /// Relative draw weight (classes with weight 0 never occur).
    pub weight: u32,
}

/// Parameters of an open-loop stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficConfig {
    /// The shape classes and their weights.
    pub classes: Vec<TrafficClass>,
    /// Number of requests to generate.
    pub requests: usize,
    /// Mean inter-arrival gap in cycles (gaps are uniform in
    /// `[0, 2·mean_gap]`, so the mean is exact).
    pub mean_gap: u64,
    /// Stream seed.
    pub seed: u64,
}

/// Validates a mix and returns its total weight.
fn total_weight(classes: &[TrafficClass]) -> Result<u64, SpecError> {
    let total: u64 = classes.iter().map(|c| u64::from(c.weight)).sum();
    if total == 0 {
        return Err(SpecError {
            message: "traffic mix needs at least one class with positive weight".into(),
        });
    }
    Ok(total)
}

/// Draws one class by weight.
fn pick_class<'a>(classes: &'a [TrafficClass], total: u64, rng: &mut SplitMix) -> &'a TrafficClass {
    let mut pick = rng.next_u64() % total;
    classes
        .iter()
        .find(|c| {
            let w = u64::from(c.weight);
            if pick < w {
                true
            } else {
                pick -= w;
                false
            }
        })
        .expect("weighted pick is in range")
}

impl TrafficConfig {
    /// Generates the stream, sorted by arrival (ids follow arrival order).
    ///
    /// # Errors
    /// Fails if no class has a positive weight.
    pub fn open_loop_stream(&self) -> Result<Vec<TrafficRequest>, SpecError> {
        let total = total_weight(&self.classes)?;
        let mut rng = SplitMix::new(self.seed);
        let mut arrival = 0u64;
        let mut out = Vec::with_capacity(self.requests);
        for id in 0..self.requests as u64 {
            arrival += rng.next_u64() % (2 * self.mean_gap + 1);
            let class = pick_class(&self.classes, total, &mut rng);
            out.push(TrafficRequest {
                id,
                accelerator: class.accelerator.clone(),
                spec: class.spec,
                arrival,
                seed: rng.next_u64(),
            });
        }
        Ok(out)
    }
}

/// Parameters of a bursty (on/off) arrival process: requests arrive in
/// tight bursts separated by long idle gaps — the diurnal / retry-storm
/// shape that builds the deepest queues for a given mean rate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstyConfig {
    /// The shape classes and their weights.
    pub classes: Vec<TrafficClass>,
    /// Number of requests to generate.
    pub requests: usize,
    /// Mean requests per ON burst (burst lengths are uniform in
    /// `[1, 2·burst_len]`).
    pub burst_len: usize,
    /// Mean inter-arrival gap within a burst, in cycles (uniform in
    /// `[0, 2·burst_gap]`).
    pub burst_gap: u64,
    /// Mean OFF gap between bursts, in cycles (uniform in
    /// `[0, 2·idle_gap]`, added on top of one within-burst gap).
    pub idle_gap: u64,
    /// Stream seed.
    pub seed: u64,
}

impl BurstyConfig {
    /// Generates the stream, sorted by arrival (ids follow arrival order).
    ///
    /// # Errors
    /// Fails if no class has a positive weight or `burst_len` is zero.
    pub fn stream(&self) -> Result<Vec<TrafficRequest>, SpecError> {
        let total = total_weight(&self.classes)?;
        if self.burst_len == 0 {
            return Err(SpecError {
                message: "bursty traffic needs burst_len >= 1".into(),
            });
        }
        let mut rng = SplitMix::new(self.seed);
        let mut arrival = 0u64;
        let mut out = Vec::with_capacity(self.requests);
        let mut burst_left = 0usize;
        for id in 0..self.requests as u64 {
            if burst_left == 0 {
                // a fresh burst: pay the OFF gap, then resample its length
                arrival += rng.next_u64() % (2 * self.idle_gap + 1);
                burst_left = 1 + (rng.next_u64() % (2 * self.burst_len as u64)) as usize;
            }
            arrival += rng.next_u64() % (2 * self.burst_gap + 1);
            burst_left -= 1;
            let class = pick_class(&self.classes, total, &mut rng);
            out.push(TrafficRequest {
                id,
                accelerator: class.accelerator.clone(),
                spec: class.spec,
                arrival,
                seed: rng.next_u64(),
            });
        }
        Ok(out)
    }
}

/// Parameters of a closed-loop arrival process: a fixed population of
/// `clients`, each issuing its next request one estimated service time
/// plus a think gap after issuing the previous one.
///
/// The loop is not closed on the serve: arrivals are pre-generated from
/// the static `service_estimate`, not from completions, so the stream is
/// a pure, pre-computable function of its inputs. The population bounds
/// the *issue* rate, not the queue: when requests take longer than the
/// estimate, nothing holds a client back, and the queue grows with the
/// stream's length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedLoopConfig {
    /// The shape classes and their weights.
    pub classes: Vec<TrafficClass>,
    /// Number of requests to generate.
    pub requests: usize,
    /// Concurrent client population.
    pub clients: usize,
    /// Mean client think time between requests, in cycles (uniform in
    /// `[0, 2·think_time]`).
    pub think_time: u64,
    /// Estimated per-request service time, in cycles, driving the
    /// closed-loop feedback.
    pub service_estimate: u64,
    /// Stream seed.
    pub seed: u64,
}

impl ClosedLoopConfig {
    /// Generates the stream with the static `service_estimate` driving
    /// every client's feedback, sorted by arrival (ids follow arrival
    /// order, ties broken by client index).
    ///
    /// # Errors
    /// Fails if no class has a positive weight or `clients` is zero.
    pub fn stream(&self) -> Result<Vec<TrafficRequest>, SpecError> {
        let total = total_weight(&self.classes)?;
        if self.clients == 0 {
            return Err(SpecError {
                message: "closed-loop traffic needs at least one client".into(),
            });
        }
        let mut rng = SplitMix::new(self.seed);
        // stagger the population's first issues like think times
        let mut next_issue: Vec<u64> = (0..self.clients)
            .map(|_| rng.next_u64() % (2 * self.think_time + 1))
            .collect();
        let mut issued: Vec<TrafficRequest> = Vec::with_capacity(self.requests);
        for _ in 0..self.requests {
            // the next client to act is the one with the earliest issue
            // time (ties by index) — a deterministic event loop
            let client = (0..self.clients)
                .min_by_key(|&c| (next_issue[c], c))
                .expect("at least one client");
            let arrival = next_issue[client];
            let class = pick_class(&self.classes, total, &mut rng);
            issued.push(TrafficRequest {
                id: 0, // assigned after the arrival sort
                accelerator: class.accelerator.clone(),
                spec: class.spec,
                arrival,
                seed: rng.next_u64(),
            });
            let think = rng.next_u64() % (2 * self.think_time + 1);
            next_issue[client] = arrival + self.service_estimate + think;
        }
        // the event loop issues in nondecreasing time; the stable sort
        // keeps its tie order
        issued.sort_by_key(|r| r.arrival);
        for (id, request) in issued.iter_mut().enumerate() {
            request.id = id as u64;
        }
        Ok(issued)
    }
}

/// The canonical mixed-shape serving mix used by `serve_bench` and the
/// integration tests: three shapes per platform, biased toward the small
/// ones (inference-style traffic).
///
/// # Panics
/// Never — the shapes are statically valid.
pub fn mixed_serving_classes() -> Vec<TrafficClass> {
    let gemmini = |size: i64, weight: u32| TrafficClass {
        accelerator: "gemmini".into(),
        spec: MatmulSpec::gemmini_paper(size).expect("valid gemmini size"),
        weight,
    };
    let opengemm = |size: i64, weight: u32| TrafficClass {
        accelerator: "opengemm".into(),
        spec: MatmulSpec::opengemm_paper(size).expect("valid opengemm size"),
        weight,
    };
    vec![
        gemmini(16, 4),
        gemmini(32, 2),
        gemmini(64, 1),
        opengemm(16, 4),
        opengemm(24, 2),
        opengemm(32, 1),
    ]
}

/// The mixed-platform serving mix for *heterogeneous* pools: both
/// families, with substantial weight on compute-heavy shapes.
///
/// On a pool whose workers are differently provisioned variants of one
/// family (e.g. a base Gemmini next to a turbo one), light shapes cost
/// nearly the same everywhere — configuration writes dominate — while
/// heavy shapes diverge by the variants' compute rates. This mix keeps
/// both regimes populated, so a scheduler must trade resident-state reuse
/// against routing to a differently provisioned accelerator on every
/// decision: exactly where write-count affinity scoring breaks down and
/// cycle-cost routing is needed.
///
/// # Panics
/// Never — the shapes are statically valid.
pub fn mixed_platform_classes() -> Vec<TrafficClass> {
    let gemmini = |size: i64, weight: u32| TrafficClass {
        accelerator: "gemmini".into(),
        spec: MatmulSpec::gemmini_paper(size).expect("valid gemmini size"),
        weight,
    };
    let opengemm = |size: i64, weight: u32| TrafficClass {
        accelerator: "opengemm".into(),
        spec: MatmulSpec::opengemm_paper(size).expect("valid opengemm size"),
        weight,
    };
    vec![
        gemmini(16, 3),
        gemmini(32, 3),
        gemmini(64, 2),
        opengemm(16, 3),
        opengemm(32, 3),
        opengemm(48, 2),
        opengemm(64, 1),
    ]
}

/// A shape-rich serving mix: eight distinct shapes per platform, far more
/// than the workers in a group, with a gently decaying popularity skew.
/// With shapes ≫ workers no static partition keeps every worker warm for
/// its whole mix, so the scheduler's routing term — not elision alone —
/// determines how many configuration writes survive; this is the stream
/// that characterizes the routing/balance crossover.
///
/// # Panics
/// Never — the shapes are statically valid.
pub fn shape_heavy_classes() -> Vec<TrafficClass> {
    let mut classes = Vec::new();
    // sizes ≤ 64 are valid on both platforms (gemmini tiles at
    // min(size, 64); opengemm needs multiples of 8)
    let gemmini_sizes = [8, 16, 24, 32, 40, 48, 56, 64];
    let opengemm_sizes = [8, 16, 24, 32, 40, 48, 56, 64];
    for (i, &size) in gemmini_sizes.iter().enumerate() {
        classes.push(TrafficClass {
            accelerator: "gemmini".into(),
            spec: MatmulSpec::gemmini_paper(size).expect("valid gemmini size"),
            weight: (gemmini_sizes.len() - i) as u32,
        });
    }
    for (i, &size) in opengemm_sizes.iter().enumerate() {
        classes.push(TrafficClass {
            accelerator: "opengemm".into(),
            spec: MatmulSpec::opengemm_paper(size).expect("valid opengemm size"),
            weight: (opengemm_sizes.len() - i) as u32,
        });
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(requests: usize, seed: u64) -> TrafficConfig {
        TrafficConfig {
            classes: mixed_serving_classes(),
            requests,
            mean_gap: 100,
            seed,
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let a = config(500, 7).open_loop_stream().unwrap();
        let b = config(500, 7).open_loop_stream().unwrap();
        assert_eq!(a, b);
        let c = config(500, 8).open_loop_stream().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_sorted_and_ids_sequential() {
        let stream = config(1000, 42).open_loop_stream().unwrap();
        assert_eq!(stream.len(), 1000);
        for (i, pair) in stream.windows(2).enumerate() {
            assert!(pair[0].arrival <= pair[1].arrival, "at {i}");
        }
        for (i, r) in stream.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    fn mix_respects_weights_roughly() {
        let stream = config(6000, 1).open_loop_stream().unwrap();
        let count = |accel: &str| stream.iter().filter(|r| r.accelerator == accel).count();
        let gemmini = count("gemmini");
        let opengemm = count("opengemm");
        // equal total weight per platform: each side gets roughly half
        assert!((2400..=3600).contains(&gemmini), "{gemmini}");
        assert_eq!(gemmini + opengemm, 6000);
    }

    #[test]
    fn mean_gap_is_roughly_honoured() {
        let stream = config(4000, 3).open_loop_stream().unwrap();
        let span = stream.last().unwrap().arrival;
        let mean = span as f64 / 4000.0;
        assert!((80.0..120.0).contains(&mean), "{mean}");
    }

    #[test]
    fn zero_weight_mix_is_rejected() {
        let mut cfg = config(10, 0);
        for c in &mut cfg.classes {
            c.weight = 0;
        }
        assert!(cfg.open_loop_stream().is_err());
        assert!(bursty(10, 0, |c| {
            for class in &mut c.classes {
                class.weight = 0;
            }
        })
        .is_err());
        assert!(closed(10, 0, |c| {
            for class in &mut c.classes {
                class.weight = 0;
            }
        })
        .is_err());
    }

    fn bursty(
        requests: usize,
        seed: u64,
        tweak: impl FnOnce(&mut BurstyConfig),
    ) -> Result<Vec<TrafficRequest>, SpecError> {
        let mut cfg = BurstyConfig {
            classes: mixed_serving_classes(),
            requests,
            burst_len: 16,
            burst_gap: 20,
            idle_gap: 2_000,
            seed,
        };
        tweak(&mut cfg);
        cfg.stream()
    }

    fn closed(
        requests: usize,
        seed: u64,
        tweak: impl FnOnce(&mut ClosedLoopConfig),
    ) -> Result<Vec<TrafficRequest>, SpecError> {
        let mut cfg = ClosedLoopConfig {
            classes: mixed_serving_classes(),
            requests,
            clients: 8,
            think_time: 100,
            service_estimate: 200,
            seed,
        };
        tweak(&mut cfg);
        cfg.stream()
    }

    #[test]
    fn bursty_stream_is_deterministic_and_sorted() {
        let a = bursty(800, 9, |_| {}).unwrap();
        let b = bursty(800, 9, |_| {}).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, bursty(800, 10, |_| {}).unwrap());
        for pair in a.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    fn bursty_stream_actually_bursts() {
        // with idle gaps two orders beyond burst gaps, the inter-arrival
        // distribution must be bimodal: mostly tight, with rare long gaps
        let stream = bursty(2_000, 3, |_| {}).unwrap();
        let gaps: Vec<u64> = stream
            .windows(2)
            .map(|p| p[1].arrival - p[0].arrival)
            .collect();
        let tight = gaps.iter().filter(|&&g| g <= 2 * 20).count();
        let idle = gaps.iter().filter(|&&g| g > 1_000).count();
        assert!(tight > gaps.len() * 8 / 10, "tight {tight}/{}", gaps.len());
        let bursts = 2_000 / 16; // ≈ requests / mean burst length
        assert!(idle > bursts / 4, "idle gaps {idle}");
        assert!(idle < bursts * 4, "idle gaps {idle}");
    }

    #[test]
    fn bursty_rejects_zero_burst_len() {
        assert!(bursty(10, 1, |c| c.burst_len = 0).is_err());
    }

    #[test]
    fn closed_loop_stream_is_deterministic_and_bounds_the_issue_rate() {
        let a = closed(1_000, 5, |_| {}).unwrap();
        let b = closed(1_000, 5, |_| {}).unwrap();
        assert_eq!(a, b);
        for pair in a.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
        // the population bounds the issue rate: no window of clients+1
        // consecutive requests fits inside one estimated service time
        let clients = 8usize;
        for w in a.windows(clients + 1) {
            assert!(w[clients].arrival >= w[0].arrival + 200 - 1);
        }
    }

    #[test]
    fn closed_loop_rejects_zero_clients() {
        assert!(closed(10, 1, |c| c.clients = 0).is_err());
    }

    #[test]
    fn mixed_platform_mix_spans_both_families_and_weights_heavy_shapes() {
        let classes = mixed_platform_classes();
        assert!(classes.iter().any(|c| c.accelerator == "gemmini"));
        assert!(classes.iter().any(|c| c.accelerator == "opengemm"));
        assert!(classes.iter().all(|c| c.weight > 0));
        // a substantial share of the draw weight sits on shapes whose
        // compute dominates configuration (m >= 48), so differently
        // provisioned variants actually matter
        let total: u32 = classes.iter().map(|c| c.weight).sum();
        let heavy: u32 = classes
            .iter()
            .filter(|c| c.spec.m >= 48)
            .map(|c| c.weight)
            .sum();
        assert!(
            heavy * 4 >= total,
            "heavy weight {heavy} of {total} too small"
        );
        let stream = TrafficConfig {
            classes,
            requests: 500,
            mean_gap: 100,
            seed: 3,
        }
        .open_loop_stream()
        .unwrap();
        assert_eq!(stream.len(), 500);
    }

    #[test]
    fn shape_heavy_mix_has_many_shapes() {
        let classes = shape_heavy_classes();
        assert_eq!(classes.len(), 16);
        let mut keys: Vec<(String, i64, i64, i64)> = classes
            .iter()
            .map(|c| (c.accelerator.clone(), c.spec.m, c.spec.n, c.spec.k))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 16, "all classes are distinct shapes");
        assert!(classes.iter().all(|c| c.weight > 0));
        // the skew is gentle: the most popular shape is at most 8× the rarest
        let max = classes.iter().map(|c| c.weight).max().unwrap();
        let min = classes.iter().map(|c| c.weight).min().unwrap();
        assert!(max <= 8 * min);
    }
}
