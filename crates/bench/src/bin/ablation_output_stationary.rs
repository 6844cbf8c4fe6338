//! Extension: the output-stationary-style Gemmini flow.
//!
//! Section 6.1: "In Gemmini's output stationary flow (which we do not
//! evaluate here), we would expect to see larger performance improvements."
//! The OS flow tiles the reduction dimension and re-configures per k-tile
//! (with accumulation), so far more configuration flows per launch — we
//! measure it and compare the dedup uplift against the weight-stationary
//! flow of Figure 10.
use accfg_bench::paper;

fn main() {
    println!("Extension: Gemmini output-stationary flow (forecast in §6.1)\n");
    let os = paper::output_stationary();
    print!("{}", os.beside_weight_stationary(&paper::fig10()));
}
