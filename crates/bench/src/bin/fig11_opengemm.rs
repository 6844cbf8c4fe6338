//! Reproduces Figure 11: measured performance of tiled matmuls on the
//! OpenGeMM platform, base MLIR flow vs full accfg optimizations
//! (cycle-level simulation of the tiling loop, memory copies off).
use accfg::pipeline::OptLevel;
use accfg_bench::{csv, paper, FIG11_SIZES};

fn main() {
    println!("Figure 11: OpenGeMM tiled matmul, measured ops/cycle");
    println!("(peak = 1024 ops/cycle; concurrent configuration)\n");
    let sweep = paper::opengemm_sweep(&FIG11_SIZES, &[OptLevel::Base, OptLevel::All]);
    print!("{}", sweep.fig11());
    match csv::write_csv("fig11_opengemm", &sweep.runs) {
        Ok(path) => println!("raw data: {}", path.display()),
        Err(e) => eprintln!("warning: results/fig11_opengemm.csv not written: {e}"),
    }
}
