//! Reproduces Figure 10: attainable performance of Gemmini's
//! weight-stationary tiled matmul, C baseline vs the accfg flow, via the
//! Equation 3 proxy over traced instruction counts (the paper's method).
use accfg_bench::{csv, paper};

fn main() {
    println!("Figure 10: Gemmini weight-stationary tiled matmul");
    println!(
        "(attainable ops/cycle via Eq. 3 from traced counters; peak = {})\n",
        paper::GEMMINI_PEAK
    );
    let fig10 = paper::fig10();
    print!("{}", fig10.fig10());
    match csv::write_csv("fig10_gemmini", &fig10.runs) {
        Ok(path) => println!("raw data: {}", path.display()),
        Err(e) => eprintln!("warning: results/fig10_gemmini.csv not written: {e}"),
    }
}
