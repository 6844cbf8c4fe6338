//! Reproduces the worked example of Section 4.6: the configuration roofline
//! of Gemmini's output-stationary 64×64×64 matmul, first from the paper's
//! published trace numbers, then from our own simulated trace.
use accfg_bench::paper;

fn main() {
    println!("Section 4.6: configuration roofline for Gemmini\n");
    print!("{}", paper::sec46(&paper::fig10()));
}
