//! Reproduces Table 1: the configuration fields of the Gemmini
//! weight-stationary matmul sequence, with meanings and bit widths.

fn main() {
    println!("Table 1: fields of the gemmini_loop_ws-style sequence");
    println!("(C = A·B + D weight-stationary matrix multiplication)\n");
    print!("{}", accfg_bench::paper::table1());
}
