//! Measured results must obey the roofline model — the cross-validation the
//! paper performs in Section 6.2.1 (Figure 12), as executable assertions.

use accfg_bench::{paper, run_gemmini, run_opengemm, GemminiFlavor, FIG10_SIZES, FIG11_SIZES};
use configuration_wall::core::pipeline::OptLevel;
use configuration_wall::roofline::ConfigRoofline;

const OPENGEMM_PEAK: f64 = 1024.0;
const GEMMINI_PEAK: f64 = 512.0;

#[test]
fn measured_performance_never_exceeds_peak() {
    for size in [16, 64] {
        for level in OptLevel::ALL_LEVELS {
            let m = run_opengemm(size, level);
            assert!(
                m.perf() < OPENGEMM_PEAK,
                "size={size} level={level:?}: {} !< peak",
                m.perf()
            );
        }
    }
    for flavor in [GemminiFlavor::CBaseline, GemminiFlavor::Accfg] {
        let m = run_gemmini(64, flavor);
        assert!(m.perf() < GEMMINI_PEAK);
        assert!(m.attainable_sequential(GEMMINI_PEAK) < GEMMINI_PEAK);
    }
}

#[test]
fn measured_performance_respects_effective_roofline() {
    // Equation 3 with the *measured* effective bandwidth is an upper bound
    // on what a serial schedule can achieve; measured performance includes
    // launch overhead and loop drains, so it must sit at or below it.
    for size in [16, 32, 64] {
        let m = run_opengemm(size, OptLevel::Base);
        let roofline = ConfigRoofline {
            peak: OPENGEMM_PEAK,
            config_bandwidth: m.bw_eff(),
        };
        let bound = roofline.attainable_sequential(m.i_oc());
        assert!(
            m.perf() <= bound * 1.0001,
            "size={size}: measured {} exceeds Eq.3 bound {bound}",
            m.perf()
        );
    }
}

#[test]
fn dedup_raises_operation_intensity() {
    // Section 4.7: redundant setup elimination moves the point to the right
    for size in [32, 64, 128] {
        let base = run_opengemm(size, OptLevel::Base);
        let dedup = run_opengemm(size, OptLevel::Dedup);
        assert!(
            dedup.i_oc() > base.i_oc() * 1.2,
            "size={size}: dedup I_OC {} not clearly above base {}",
            dedup.i_oc(),
            base.i_oc()
        );
        assert!(dedup.perf() > base.perf());
    }
}

#[test]
fn overlap_keeps_operation_intensity_roughly_constant() {
    // Section 4.7: overlap changes neither ops nor setup bytes — the point
    // moves (essentially) straight up. Rotation does add one full prologue
    // configuration per strip plus a speculative epilogue write, so at
    // small sizes I_OC dips slightly; the movement is still an order of
    // magnitude smaller than deduplication's rightward jump.
    for size in [32, 64, 128] {
        let base = run_opengemm(size, OptLevel::Base);
        let overlap = run_opengemm(size, OptLevel::Overlap);
        let dedup = run_opengemm(size, OptLevel::Dedup);
        let ratio = overlap.i_oc() / base.i_oc();
        assert!(
            (0.7..=1.15).contains(&ratio),
            "size={size}: overlap moved I_OC by {ratio}"
        );
        let dedup_move = (dedup.i_oc() / base.i_oc() - 1.0).abs();
        assert!(
            (ratio - 1.0).abs() < dedup_move / 2.0,
            "size={size}: overlap's I_OC movement should be small next to dedup's"
        );
        assert!(overlap.perf() > base.perf(), "size={size}");
    }
}

#[test]
fn all_combines_both_movements() {
    for size in [32, 64] {
        let base = run_opengemm(size, OptLevel::Base);
        let dedup = run_opengemm(size, OptLevel::Dedup);
        let overlap = run_opengemm(size, OptLevel::Overlap);
        let all = run_opengemm(size, OptLevel::All);
        // the paper's arrow 3: the biggest speedup comes from both
        assert!(
            all.perf() >= dedup.perf().max(overlap.perf()),
            "size={size}"
        );
        // and it inherits dedup's intensity gain
        assert!(all.i_oc() > base.i_oc() * 1.2, "size={size}");
    }
}

#[test]
fn sequential_bound_is_tight_for_gemmini_proxy() {
    // the Fig. 10 proxy equals Eq. 3 exactly by construction; sanity-check
    // the plumbing end to end
    let m = run_gemmini(64, GemminiFlavor::CBaseline);
    let roofline = ConfigRoofline {
        peak: GEMMINI_PEAK,
        config_bandwidth: m.bw_eff(),
    };
    let direct = roofline.attainable_sequential(m.i_oc());
    assert!((direct - m.attainable_sequential(GEMMINI_PEAK)).abs() < 1e-9);
}

#[test]
fn knee_point_brackets_the_opengemm_sweep() {
    // small sizes sit left of the effective knee (config bound), large ones
    // right of it (compute bound) — the wall exists and is crossed
    let small = run_opengemm(16, OptLevel::Base);
    let large = run_opengemm(256, OptLevel::Base);
    let roofline = ConfigRoofline {
        peak: OPENGEMM_PEAK,
        config_bandwidth: small.bw_eff(),
    };
    assert!(small.i_oc() < roofline.knee());
    assert!(large.i_oc() > roofline.knee() / 4.0);
    assert!(large.perf() / OPENGEMM_PEAK > 0.4);
    assert!(small.perf() / OPENGEMM_PEAK < 0.1);
}

/// The values a table prints, at the precision it prints them.
fn printed(sizes: &[i64], cell: impl Fn(i64) -> String) -> Vec<String> {
    sizes.iter().map(|&size| cell(size)).collect()
}

#[test]
fn figure_10_headline_numbers_and_shape() {
    // one walk of Figure 10 at its full sizes; a PR that moves any of
    // these numbers has to say so here
    let fig10 = paper::fig10();
    assert_eq!(fig10.sizes, FIG10_SIZES);
    assert_eq!(
        printed(&FIG10_SIZES, |s| paper::pct(fig10.uplift(s))),
        ["+41.9 %", "+9.8 %", "+9.4 %", "+5.2 %", "+2.7 %"]
    );
    let geomean = 100.0 * (fig10.geomean_uplift(&FIG10_SIZES) - 1.0);
    assert!(
        (geomean - 13.0).abs() <= 0.1,
        "geomean uplift {geomean:+.2} %"
    );
    // the paper's column comes from the constants read off its figure
    let rendered = fig10.fig10();
    assert!(
        rendered.ends_with("\ngeomean uplift: +13.0 % (paper: +10.5 %)\n"),
        "{rendered}"
    );
    assert!(rendered.contains("| 32 | 170 | 241 | +41.9 % | 137 | 171 | +24.8 % |"));

    // the shape EXPERIMENTS.md claims in prose: accfg wins at every size,
    // both curves rise monotonically toward peak, the gap shrinks as sizes
    // become compute bound, and the largest gain lands at size 32 ...
    let curves: Vec<(f64, f64)> = FIG10_SIZES.iter().map(|&s| fig10.attainable(s)).collect();
    for (&size, &(c, accfg)) in FIG10_SIZES.iter().zip(&curves) {
        assert!(
            c < accfg && accfg < GEMMINI_PEAK,
            "size={size}: {c} / {accfg}"
        );
    }
    for (smaller, larger) in curves.iter().zip(&curves[1..]) {
        assert!(smaller.0 < larger.0 && smaller.1 < larger.1, "{curves:?}");
    }
    let uplifts: Vec<f64> = FIG10_SIZES.iter().map(|&s| fig10.uplift(s)).collect();
    assert!(uplifts.windows(2).all(|w| w[0] > w[1]), "{uplifts:?}");
    // ... where it exceeds the paper's (+24.8 %, also its largest)
    assert!(uplifts[0] > paper::PAPER_FIG10_ACCFG[0] / paper::PAPER_FIG10_C[0]);
}

#[test]
fn figure_11_headline_numbers_and_shape() {
    // one Base / All sweep of OpenGeMM at Figure 11's full sizes
    let sweep = paper::opengemm_sweep(&FIG11_SIZES, &[OptLevel::Base, OptLevel::All]);
    assert_eq!(sweep.sizes, FIG11_SIZES);
    assert_eq!(
        printed(&FIG11_SIZES, |s| format!("{:.2}", sweep.speedup(s))),
        ["1.71", "2.19", "2.22", "1.96", "1.63", "1.37"]
    );
    let geomean = sweep.geomean_speedup();
    assert!(
        (geomean - 1.82).abs() <= 0.01,
        "geomean speedup x{geomean:.3}"
    );
    let rendered = sweep.fig11();
    assert!(
        rendered.ends_with("\ngeomean speedup: x1.82 (paper: x1.99)\n"),
        "{rendered}"
    );
    assert!(rendered.contains("| 16 | 40.0 | 68.3 | x1.71 | x1.86 |"));

    // the shape EXPERIMENTS.md claims in prose: the speedup peaks at 32–64,
    // declines monotonically after 64, and sizes 256 / 512 land within 3 %
    // of the paper's x1.63 / x1.35
    let speedups: Vec<f64> = FIG11_SIZES.iter().map(|&s| sweep.speedup(s)).collect();
    let peak = speedups.iter().cloned().fold(0.0, f64::max);
    assert!(
        peak == sweep.speedup(32) || peak == sweep.speedup(64),
        "{speedups:?}"
    );
    assert!(
        speedups[2..].windows(2).all(|w| w[0] > w[1]),
        "{speedups:?}"
    );
    for (size, paper) in [(256, 1.63), (512, 1.35)] {
        assert_eq!(
            paper::paper_at(&FIG11_SIZES, &paper::PAPER_FIG11_SPEEDUP, size),
            paper
        );
        let ours = sweep.speedup(size);
        assert!(
            (ours / paper - 1.0).abs() < 0.03,
            "size={size}: x{ours:.3} vs x{paper}"
        );
    }
}
