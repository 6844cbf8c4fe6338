//! The paper layer as values: each numbers-bearing artefact of the
//! evaluation — Table 1, the §4.6 worked example, Figure 10 (Gemmini, Eq. 3
//! proxy), Figures 11 / 12 (OpenGeMM, measured) and the output-stationary
//! ablation — computed once here, with the paper's reference constants and
//! exactly one renderer each. The figure / table binaries print these
//! renderers and `make_experiments` composes the same ones, so two reports
//! of one experiment cannot disagree.

use crate::{
    geomean, markdown_table, measure, run_gemmini, run_opengemm, GemminiFlavor, Measurement,
    FIG10_SIZES, FIG11_SIZES, FIG12_SIZES,
};
use accfg::pipeline::OptLevel;
use accfg_roofline::{effective_config_bandwidth, ConfigRoofline};
use accfg_targets::{AcceleratorDescriptor, ConfigStyle};
use accfg_workloads::{gemmini_ws_ir, MatmulSpec};
use std::fmt;

/// Gemmini's peak performance in ops/cycle (Section 4.6).
pub const GEMMINI_PEAK: f64 = 512.0;
/// The C-baseline values read off the paper's Figure 10, per [`FIG10_SIZES`].
pub const PAPER_FIG10_C: [f64; 5] = [137.0, 379.0, 419.0, 482.0, 500.0];
/// The accfg values read off the paper's Figure 10, per [`FIG10_SIZES`].
pub const PAPER_FIG10_ACCFG: [f64; 5] = [171.0, 406.0, 482.0, 506.0, 511.0];
/// The speedups reported in the paper's Figure 11, per [`FIG11_SIZES`].
pub const PAPER_FIG11_SPEEDUP: [f64; 6] = [1.86, 2.71, 2.71, 2.05, 1.63, 1.35];

/// The paper's value at `size` from one of the per-size tables above.
///
/// # Panics
/// Panics if `size` is not one of the figure's `sizes`.
pub fn paper_at<const N: usize>(sizes: &[i64; N], values: &[f64; N], size: i64) -> f64 {
    let idx = sizes.iter().position(|&s| s == size);
    values[idx.expect("a size of the paper's figure")]
}

/// A ratio as the signed percentage the tables print (`1.13` → `+13.0 %`).
pub fn pct(ratio: f64) -> String {
    format!("{:+.1} %", 100.0 * (ratio - 1.0))
}

/// Geometric mean of `ratio` over `sizes`.
fn geomean_over(sizes: &[i64], ratio: impl Fn(i64) -> f64) -> f64 {
    geomean(&sizes.iter().map(|&size| ratio(size)).collect::<Vec<_>>())
}

/// A markdown table with one row per size: each column is its header and
/// the cell it prints at a size.
fn table_by_size(sizes: &[i64], columns: &[(&str, &dyn Fn(i64) -> String)]) -> String {
    let header: Vec<&str> = columns.iter().map(|(name, _)| *name).collect();
    let row = |&size: &i64| columns.iter().map(|(_, cell)| cell(size)).collect();
    markdown_table(&header, &sizes.iter().map(row).collect::<Vec<Vec<_>>>())
}

/// One platform's experiment at every (size, variant): each figure is a
/// projection of one such set of runs.
#[derive(Debug, Clone)]
pub struct Sweep<V> {
    /// The sizes walked, in order.
    pub sizes: Vec<i64>,
    /// The variants (compilation flows) walked at every size, in order.
    pub variants: Vec<V>,
    /// One measurement per (size, variant), size-major.
    pub runs: Vec<Measurement>,
}

impl<V: Copy + PartialEq> Sweep<V> {
    fn walk(sizes: &[i64], variants: &[V], run: impl Fn(i64, V) -> Measurement) -> Self {
        let run = &run;
        let at_size = |&size| variants.iter().map(move |&variant| run(size, variant));
        Sweep {
            sizes: sizes.to_vec(),
            variants: variants.to_vec(),
            runs: sizes.iter().flat_map(at_size).collect(),
        }
    }

    /// The measurement at (`size`, `variant`).
    ///
    /// # Panics
    /// Panics if the sweep did not walk that point.
    pub fn at(&self, size: i64, variant: V) -> &Measurement {
        let size = self.sizes.iter().position(|&s| s == size);
        let variant = self.variants.iter().position(|&v| v == variant);
        let (size, variant) = (size.expect("size walked"), variant.expect("variant walked"));
        &self.runs[size * self.variants.len() + variant]
    }
}

/// The two Gemmini compilation flows every Gemmini experiment compares.
const GEMMINI_FLOWS: [GemminiFlavor; 2] = [GemminiFlavor::CBaseline, GemminiFlavor::Accfg];

/// Figure 10: Gemmini's weight-stationary tiled matmul, C baseline vs accfg.
pub type Fig10 = Sweep<GemminiFlavor>;

/// Walks Figure 10 at [`FIG10_SIZES`].
pub fn fig10() -> Fig10 {
    Sweep::walk(&FIG10_SIZES, &GEMMINI_FLOWS, run_gemmini)
}

impl Sweep<GemminiFlavor> {
    /// Attainable ops/cycle of (C, accfg) at `size` via the Equation 3 proxy.
    pub fn attainable(&self, size: i64) -> (f64, f64) {
        let of = |flavor| self.at(size, flavor).attainable_sequential(GEMMINI_PEAK);
        (of(GemminiFlavor::CBaseline), of(GemminiFlavor::Accfg))
    }

    /// accfg's attainable performance over the C baseline's, as a ratio.
    pub fn uplift(&self, size: i64) -> f64 {
        let (c, accfg) = self.attainable(size);
        accfg / c
    }

    /// Geometric-mean uplift over `sizes`, as a ratio.
    pub fn geomean_uplift(&self, sizes: &[i64]) -> f64 {
        geomean_over(sizes, |size| self.uplift(size))
    }

    /// `C -> accfg (uplift)`, the ablation table's cell.
    fn arrow(&self, size: i64) -> String {
        let (c, accfg) = self.attainable(size);
        format!("{c:.0} -> {accfg:.0} ({})", pct(self.uplift(size)))
    }

    /// Figure 10: both flows per size beside the values read off the paper.
    pub fn fig10(&self) -> String {
        let paper_c = |size| paper_at(&FIG10_SIZES, &PAPER_FIG10_C, size);
        let paper_accfg = |size| paper_at(&FIG10_SIZES, &PAPER_FIG10_ACCFG, size);
        let paper_uplift = |size| paper_accfg(size) / paper_c(size);
        let columns: [(&str, &dyn Fn(i64) -> String); 7] = [
            ("size", &|s| s.to_string()),
            ("C (ours)", &|s| format!("{:.0}", self.attainable(s).0)),
            ("accfg (ours)", &|s| format!("{:.0}", self.attainable(s).1)),
            ("uplift (ours)", &|s| pct(self.uplift(s))),
            ("C (paper)", &|s| format!("{:.0}", paper_c(s))),
            ("accfg (paper)", &|s| format!("{:.0}", paper_accfg(s))),
            ("uplift (paper)", &|s| pct(paper_uplift(s))),
        ];
        format!(
            "{}\ngeomean uplift: {} (paper: {})\n",
            table_by_size(&self.sizes, &columns),
            pct(self.geomean_uplift(&self.sizes)),
            pct(geomean_over(&self.sizes, paper_uplift)),
        )
    }

    /// The output-stationary ablation (§6.1's forecast), `self` being the
    /// [`output_stationary`] runs: per size beside `ws`, Figure 10's
    /// weight-stationary flow, and both geomean uplifts over these sizes.
    pub fn beside_weight_stationary(&self, ws: &Fig10) -> String {
        let columns: [(&str, &dyn Fn(i64) -> String); 3] = [
            ("size", &|s| s.to_string()),
            ("output-stationary C -> accfg", &|s| self.arrow(s)),
            ("weight-stationary C -> accfg", &|s| ws.arrow(s)),
        ];
        format!(
            "{}\ngeomean uplift: OS {} vs WS {} — the paper's forecast holds: \
             the flow with more per-launch configuration gains more from accfg.\n",
            table_by_size(&self.sizes, &columns),
            pct(self.geomean_uplift(&self.sizes)),
            pct(ws.geomean_uplift(&self.sizes)),
        )
    }
}

/// Walks the output-stationary extension at sizes 64–256: 64×64 output
/// tiles with a tiled (accumulating) reduction — one full gemmini.h-style
/// invocation per 64³ block.
pub fn output_stationary() -> Sweep<GemminiFlavor> {
    let desc = AcceleratorDescriptor::gemmini();
    let run = |size: i64, flavor: GemminiFlavor| {
        let tile = size.min(64);
        let spec = MatmulSpec::new((size, size, size), (tile, tile, tile)).expect("valid size");
        let module = gemmini_ws_ir(&desc, &spec);
        measure(&desc, &spec, module, flavor.level(), flavor.label())
    };
    Sweep::walk(&[64, 128, 256], &GEMMINI_FLOWS, run)
}

/// Walks the OpenGeMM experiment of Figures 11 and 12 over `sizes` × `levels`.
pub fn opengemm_sweep(sizes: &[i64], levels: &[OptLevel]) -> Sweep<OptLevel> {
    Sweep::walk(sizes, levels, run_opengemm)
}

impl Sweep<OptLevel> {
    /// Figure 11's speedup at `size`: `All` over `Base`, measured ops/cycle.
    pub fn speedup(&self, size: i64) -> f64 {
        self.at(size, OptLevel::All).perf() / self.at(size, OptLevel::Base).perf()
    }

    /// Geometric-mean speedup over the sizes walked.
    pub fn geomean_speedup(&self) -> f64 {
        geomean_over(&self.sizes, |size| self.speedup(size))
    }

    /// Figure 11: `Base` vs `All` per size beside the paper's speedups.
    pub fn fig11(&self) -> String {
        let paper = |size| paper_at(&FIG11_SIZES, &PAPER_FIG11_SPEEDUP, size);
        let perf = |size, level| format!("{:.1}", self.at(size, level).perf());
        let columns: [(&str, &dyn Fn(i64) -> String); 5] = [
            ("size", &|s| s.to_string()),
            ("base (ops/cyc)", &|s| perf(s, OptLevel::Base)),
            ("optimized (ops/cyc)", &|s| perf(s, OptLevel::All)),
            ("speedup (ours)", &|s| format!("x{:.2}", self.speedup(s))),
            ("speedup (paper)", &|s| format!("x{:.2}", paper(s))),
        ];
        format!(
            "{}\ngeomean speedup: x{:.2} (paper: x{:.2})\n",
            table_by_size(&self.sizes, &columns),
            self.geomean_speedup(),
            geomean_over(&self.sizes, paper)
        )
    }

    /// Figure 12: every level walked at [`FIG12_SIZES`] as (I_OC, P) points.
    pub fn fig12(&self) -> String {
        let rows: Vec<Vec<String>> = (self.variants.iter())
            .flat_map(|&level| FIG12_SIZES.iter().map(move |&size| (size, level)))
            .map(|(size, level)| {
                let m = self.at(size, level);
                vec![
                    size.to_string(),
                    level.label().to_string(),
                    format!("{:.1}", m.i_oc()),
                    format!("{:.1}", m.perf()),
                ]
            })
            .collect();
        markdown_table(&["size", "level", "I_OC (ops/B)", "P (ops/cyc)"], &rows)
    }
}

/// Section 4.6's worked example: the configuration roofline of Gemmini's
/// 64×64×64 matmul from the paper's published trace numbers, then the same
/// quantities traced from our simulator.
#[derive(Debug, Clone)]
pub struct Sec46 {
    /// Theoretical configuration bandwidth in bytes/cycle.
    pub bw_config: f64,
    /// Operation-to-configuration intensity of the paper's trace.
    pub i_oc: f64,
    /// Effective configuration bandwidth (Equation 4) in bytes/cycle.
    pub bw_eff: f64,
    /// Our simulated 64-wide strip: Figure 10's size-64 C baseline.
    pub simulated: Measurement,
}

/// The paper's trace: operations (it prints 525,288 — a typo), setup and
/// calculation instructions.
const SEC46_TRACE: (f64, f64, f64) = (2.0 * 64.0 * 64.0 * 64.0, 160.0, 775.0);

/// Section 4.6 from the paper's inputs, beside `fig10`'s size-64 baseline.
pub fn sec46(fig10: &Fig10) -> Sec46 {
    let (ops, setup_instrs, calc_instrs) = SEC46_TRACE;
    let config_bytes = setup_instrs * 16.0;
    Sec46 {
        bw_config: 16.0 / (3.0 * 3.0), // 16 B per RoCC, 3 instrs, 3 CPI
        i_oc: ops / config_bytes,
        bw_eff: effective_config_bandwidth(config_bytes, calc_instrs * 3.0, setup_instrs * 3.0),
        simulated: fig10.at(64, GemminiFlavor::CBaseline).clone(),
    }
}

impl Sec46 {
    /// Equation 3 utilization of the paper's trace, in percent, under
    /// `config_bandwidth` (`bw_config` or `bw_eff`).
    pub fn utilization(&self, config_bandwidth: f64) -> f64 {
        let roofline = ConfigRoofline {
            peak: GEMMINI_PEAK,
            config_bandwidth,
        };
        100.0 * roofline.utilization_sequential(self.i_oc)
    }
}

impl fmt::Display for Sec46 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ops, setup_instrs, calc_instrs) = SEC46_TRACE;
        let (bw_config, i_oc, bw_eff) = (self.bw_config, self.i_oc, self.bw_eff);
        let (util, util_eff) = (self.utilization(bw_config), self.utilization(bw_eff));
        let (m, c) = (&self.simulated, &self.simulated.counters);
        let (setup, calc, bytes) = (c.insts_config, c.insts_calc, c.config_bytes);
        let attainable = m.attainable_sequential(GEMMINI_PEAK);
        write!(
            f,
            "paper inputs: {ops} ops, {setup_instrs} setup instrs, {calc_instrs} calc instrs\n\
             BW_config          = {bw_config:.3} B/cycle   (paper: 1.77)\n\
             I_OC               = {i_oc:.2} ops/byte   (paper: 205.19, incl. its ops typo)\n\
             Eq. 3 utilization  = {util:.2} %        (paper: 41.49 %)\n\
             BW_config,eff      = {bw_eff:.3} B/cycle   (paper: 0.913)\n\
             Eq. 3 (effective)  = {util_eff:.2} %        (paper: 26.78 %)\n\n\
             simulated 64-wide strip (weight-stationary, C baseline):\n  \
             {setup} setup instrs, {calc} calc instrs, {bytes} config bytes\n  \
             I_OC = {:.2} ops/byte, BW_eff = {:.3} B/cycle, \
             attainable = {attainable:.1} ops/cycle ({:.1} % of peak)\n",
            m.i_oc(),
            m.bw_eff(),
            100.0 * attainable / GEMMINI_PEAK,
        )
    }
}

/// Table 1: the Gemmini descriptor's field table and its summary lines.
pub fn table1() -> String {
    let desc = AcceleratorDescriptor::gemmini();
    let ConfigStyle::RoccPairs { launch_funct } = desc.style else {
        unreachable!("gemmini is RoCC")
    };
    let bits = desc.total_config_bits();
    format!(
        "{}\nTotal architectural configuration state: {bits} bits ({} bytes)\n\
         Configuration interface: 16 bytes per RoCC command, \
         launch-semantic final command (funct {launch_funct})\n",
        desc.field_table_markdown(),
        bits.div_ceil(8),
    )
}
