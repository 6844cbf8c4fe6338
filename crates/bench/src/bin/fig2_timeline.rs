//! Reproduces Figure 2 with real data: the execution timeline of a typical
//! host + accelerator program, before and after the compiler optimizations.
//!
//! Legend (as in the paper): `E` host execution, `C` host configures,
//! `#` accelerator execution, `.` idle/waiting.
use accfg::pipeline::OptLevel;
use accfg_bench::prepare;
use accfg_sim::{Activity, Timeline};
use accfg_targets::AcceleratorDescriptor;
use accfg_workloads::{check_result, matmul_ir, MatmulSpec};

fn main() {
    let desc = AcceleratorDescriptor::opengemm();
    let spec = MatmulSpec::opengemm_paper(32).unwrap();
    println!("Figure 2: execution timeline (32x32x32 tiled matmul on OpenGeMM)");
    println!("E host execution   C host configures   # accelerator execution   . waiting\n");
    for (title, level) in [
        ("Unoptimized", OptLevel::Base),
        (
            "Proposed Compiler Optimizations (dedup + overlap)",
            OptLevel::All,
        ),
    ] {
        let (mut machine, prog, layout) =
            prepare(&desc, &spec, matmul_ir(&desc, &spec), Some(level));
        let mut timeline = Timeline::new();
        let counters = machine
            .run_traced(&prog, 10_000_000, &mut timeline)
            .unwrap();
        check_result(&machine.mem, &spec, &layout).unwrap();
        println!("-- {title} --");
        print!("{}", timeline.render(100));
        println!(
            "config {} cyc, calc {} cyc, stalled {} cyc, accel busy {} cyc -> total {} cycles\n",
            timeline.cycles_of(Activity::Config),
            timeline.cycles_of(Activity::Calc),
            timeline.cycles_of(Activity::Stall),
            timeline.cycles_of(Activity::Busy),
            counters.cycles,
        );
    }
    println!("The optimized timeline shows the paper's Figure 2 effect: configuration");
    println!("shrinks (dedup) and what remains hides under accelerator execution (overlap).");
}
