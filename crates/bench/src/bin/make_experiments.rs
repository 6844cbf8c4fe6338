//! Writes EXPERIMENTS.md (generated output, git-ignored) to the working
//! directory: one walk of `accfg_bench::paper`, each artefact rendered by
//! the renderer its own binary prints, under the paper-vs-measured prose.
use accfg::pipeline::OptLevel;
use accfg_bench::paper::{self, Fig10, Sweep};
use accfg_bench::FIG11_SIZES;

fn document(fig10: &Fig10, opengemm: &Sweep<OptLevel>) -> String {
    let (table1, sec46) = (paper::table1(), paper::sec46(fig10));
    let os = paper::output_stationary();
    let uplift = |flow: &Fig10| paper::pct(flow.geomean_uplift(&os.sizes));
    let (os_uplift, ws_uplift) = (uplift(&os), uplift(fig10));
    let (fig10, fig11, fig12) = (fig10.fig10(), opengemm.fig11(), opengemm.fig12());
    let paper = |size| paper::paper_at(&FIG11_SIZES, &paper::PAPER_FIG11_SPEEDUP, size);
    let large = |of: &dyn Fn(i64) -> f64| format!("x{:.2}/x{:.2}", of(256), of(512));
    let (large_paper, large_ours) = (large(&paper), large(&|size| opengemm.speedup(size)));
    let paper_peak = paper::PAPER_FIG11_SPEEDUP.into_iter().fold(0.0, f64::max);
    format!(
        "# EXPERIMENTS — paper vs. measured

Generated by `cargo run -p accfg-bench --bin make_experiments --release`.
Every row is produced by building the workload IR, running the accfg
pass pipeline, lowering to the target instruction stream, simulating
it cycle-accurately, and *functionally checking the matmul result*
against a reference implementation. Absolute numbers come from our
simulator substrate (see docs/ARCHITECTURE.md); the paper's numbers come
from spike / Verilated RTL, so the comparison is about shape:
who wins, by roughly what factor, and where the crossovers fall.

## Table 1 — gemmini_loop_ws configuration fields

Reproduced as the Gemmini descriptor's field table (`cargo run -p accfg-bench --bin table1`):

{table1}
The paper's five headline field groups (addresses, sizes, pads, strides, act/transpose) are all present; pads are subsumed in the packed `loop_pads` word.

## Section 4.6 — Gemmini worked example

```
{sec46}```

The paper prints 525,288 ops / 205.19 ops/byte; 2·64³ = 524,288 (204.8 ops/byte). With either value the utilizations agree to <0.5 %.

## Figures 3, 4, 5 — model plots

Rendered by `fig3_roofline`, `fig4_config_roofline`, and `fig5_roofsurface`. Invariants checked in the `accfg-roofline` test suite: Eq. 3 < Eq. 2 everywhere with asymptotic equality, the knee at `P_peak / BW_config`, sequential performance exactly half of concurrent at the knee (§4.3), and the three roofsurface regions.

## Figure 10 — Gemmini WS tiled matmul (Eq. 3 proxy)

{fig10}
Shape holds: both
curves rise monotonically toward peak, accfg wins everywhere, and
the gap shrinks as sizes become compute bound. Divergence: our
largest relative gain lands at size 32 (constant folding of the
Listing-1 packing dominates there) and exceeds the paper's there;
our single-invocation sizes benefit more from folding than the
paper's because our baseline re-derives every packed word per
invocation.

## Figure 11 — OpenGeMM tiled matmul (measured)

{fig11}
Shape holds: the
speedup peaks at sizes 32–64 (the knee region), declines toward
large compute-bound sizes, and sizes 256/512 match the paper almost
exactly ({large_paper} paper vs {large_ours} ours). The peak magnitude is
somewhat lower than the paper's x{paper_peak:.2} — our baseline's per-tile
instruction footprint is leaner than the real SNAX runtime's.

## Figure 12 — per-pass ablation on the roofline

{fig12}
As predicted in §4.7 and shown in the paper's Figure 12:
deduplication raises I_OC (moves right) *and* raises performance;
overlap keeps I_OC constant (same bytes) and only moves up;
both together give the largest gain. Render the plot with
`cargo run -p accfg-bench --bin fig12_roofline_scatter --release`.

## Figure 2 — execution timeline

Reproduced with real simulated data by `fig2_timeline`: the machine
records host (execute / configure / stall) and accelerator (busy)
spans; the unoptimized run shows the paper's C/E/idle interleaving,
the optimized one shows configuration shrinking (dedup) and hiding
under accelerator execution (overlap).

## Extensions beyond the paper

- **Output-stationary ablation** (`ablation_output_stationary`):
§6.1 forecasts larger gains for Gemmini's OS flow; measured geomean
uplift {os_uplift} (vs {ws_uplift} weight-stationary over the same sizes),
growing with the number of accumulating k-tiles — forecast holds.
- **Partial setup motion** (`ablation_partial_motion`): §5.5 calls
this possible but unimplemented; `OverlapInBlock::with_partial_motion`
splits mixed pure/impure setups so the pure fields still overlap.
- **Loop-structure ablation**: collapsed (div/rem index recovery)
vs. nested tiling loops — `accfg_workloads::tiled_collapsed_ir`
vs. `tiled_nested_ir`, compared in the integration tests.
- **Host-CPI sensitivity**: `microbench`'s `host_cpi_sensitivity` suite sweeps the
Rocket CPI, showing BW_config scales inversely (§4.6).

"
    )
}

fn main() {
    let opengemm = paper::opengemm_sweep(&FIG11_SIZES, &OptLevel::ALL_LEVELS);
    let out = document(&paper::fig10(), &opengemm);
    std::fs::write("EXPERIMENTS.md", &out).expect("write EXPERIMENTS.md");
    println!("{out}");
    println!("wrote EXPERIMENTS.md");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_document_contains_each_views_rendering_verbatim() {
        let fig10 = paper::fig10();
        let opengemm = paper::opengemm_sweep(&FIG11_SIZES, &OptLevel::ALL_LEVELS);
        let doc = document(&fig10, &opengemm);
        for (view, rendered) in [
            ("table1", paper::table1()),
            ("sec46_example", paper::sec46(&fig10).to_string()),
            ("fig10_gemmini", fig10.fig10()),
            ("fig11_opengemm", opengemm.fig11()),
            ("fig12_roofline_scatter", opengemm.fig12()),
        ] {
            assert!(doc.contains(&rendered), "{view}'s rendering is missing");
        }
        // a view walks a narrower sweep than the document's: same rows
        let view = paper::opengemm_sweep(&[16, 32], &[OptLevel::Base, OptLevel::All]).fig11();
        for row in view.lines().skip(2).take(2) {
            assert!(doc.contains(row), "{row}");
        }
        // the prose quotes the walk: the ablation's geomeans as its own
        // view prints them, and no file the repository does not contain
        let os = paper::output_stationary();
        let ablation = os.beside_weight_stationary(&fig10);
        for flow in [&os, &fig10] {
            let quoted = paper::pct(flow.geomean_uplift(&os.sizes));
            assert!(
                ablation.contains(&quoted) && doc.contains(&quoted),
                "{quoted}"
            );
        }
        assert!(!doc.contains("benches/"));
    }
}
