//! Reproduces Figure 12: the per-pass ablation plotted on OpenGeMM's
//! configuration roofline. Deduplication moves measurements up and to the
//! right (higher I_OC); overlap moves them up; both together give the
//! largest gain.
use accfg::pipeline::OptLevel;
use accfg_bench::{paper, FIG12_SIZES};
use accfg_roofline::{render, ConfigRoofline, PlotConfig, Series};

fn main() {
    // theoretical configuration bandwidth of the platform: 4 payload bytes
    // per single-cycle CSR write, needing ~2 instructions per field value
    let roofline = ConfigRoofline {
        peak: 1024.0,
        config_bandwidth: 4.0 / 2.0,
    };
    println!("Figure 12: measurements on OpenGeMM's configuration roofline");
    println!(
        "(P_peak = {} ops/cycle, BW_config = {} B/cycle, knee at I_OC = {})\n",
        roofline.peak,
        roofline.config_bandwidth,
        roofline.knee()
    );

    let sweep = paper::opengemm_sweep(&FIG12_SIZES, &OptLevel::ALL_LEVELS);
    print!("{}", sweep.fig12());
    let series: Vec<Series> = ['b', 'd', 'o', 'a']
        .into_iter()
        .zip(OptLevel::ALL_LEVELS)
        .map(|(marker, level)| {
            let point = |&size| {
                let m = sweep.at(size, level);
                (m.i_oc(), m.perf())
            };
            Series {
                label: level.label().to_string(),
                marker,
                points: FIG12_SIZES.iter().map(point).collect(),
            }
        })
        .collect();
    let seq = |x: f64| roofline.attainable_sequential(x);
    let conc = |x: f64| roofline.attainable_concurrent(x);
    let cfg = PlotConfig {
        x_range: (32.0, 16384.0),
        y_range: (64.0, 2048.0),
        ..Default::default()
    };
    println!();
    println!(
        "{}",
        render(
            &cfg,
            &[
                ("sequential roofline", '.', &seq),
                ("concurrent roofline", '-', &conc)
            ],
            &series,
        )
    );
    println!("arrow 1 (dedup):   up and to the right — fewer configuration bytes");
    println!("arrow 2 (overlap): straight up — same bytes, hidden behind execution");
    println!("arrow 3 (all):     both effects compose");
}
