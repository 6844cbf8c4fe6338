//! Extension: partial setup motion (Section 5.5's unimplemented idea).
//!
//! When a setup's inputs mix pure and impure producers, the paper's overlap
//! rewrite must give up entirely ("a partial move of the setup operation
//! could still be performed, although this is not implemented in our
//! current infrastructure"). This repository implements that partial move:
//! the setup is split and the pure half still overlaps.
//!
//! The harness counts, at the IR level, how many configuration field writes
//! end up hidden behind accelerator execution with (a) the paper's
//! full-or-nothing rewrite and (b) partial motion.
use accfg::{interpret, OverlapInBlock};
use accfg_ir::{print_module, Effects, FuncBuilder, Module, Opcode, Pass, Type};

/// An inference loop where each invocation's `threshold` field comes from an
/// impure sensor read, while addresses and sizes are pure.
fn workload() -> Module {
    let mut m = Module::new();
    let (mut b, args) = FuncBuilder::new_func(&mut m, "kernel", vec![Type::I64]);
    let mut prev = None;
    for layer in 0..3i64 {
        let off = b.const_index(layer * 0x100);
        let addr = b.addi(args[0], off); // pure
        let sensor = b.opaque(
            "read_adc",
            vec![],
            vec![Type::I64],
            Some(Effects::None), // leaves accel state alone, but impure
        );
        let fields = [("addr", addr), ("threshold", sensor[0])];
        let s = match prev {
            None => b.setup("acc", &fields),
            Some(p) => b.setup_from("acc", p, &fields),
        };
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        prev = Some(s);
    }
    b.ret(vec![]);
    m
}

/// Counts setup field-writes that sit above (before) the await protecting
/// their input state — i.e. writes that overlap accelerator execution.
fn overlapped_writes(m: &Module) -> usize {
    let func = m.func_by_name("kernel").unwrap();
    let block = m.body_block(func, 0);
    let ops = m.block_ops(block);
    let mut count = 0;
    let mut awaits_seen = 0;
    let mut launches_seen = 0;
    for &op in ops {
        match m.op(op).opcode {
            Opcode::AccfgAwait => awaits_seen += 1,
            Opcode::AccfgLaunch => launches_seen += 1,
            Opcode::AccfgSetup if launches_seen > awaits_seen => {
                count += accfg::setup_fields(m, op).len();
            }
            _ => {}
        }
    }
    count
}

fn main() {
    let reference = interpret(&workload(), "kernel", &[0x1000], 100_000).unwrap();

    let mut fullonly = workload();
    OverlapInBlock::default().run(&mut fullonly);
    let full_hidden = overlapped_writes(&fullonly);

    let mut partial = workload();
    OverlapInBlock::with_partial_motion().run(&mut partial);
    let partial_hidden = overlapped_writes(&partial);

    for (m, label) in [(&fullonly, "full-or-nothing"), (&partial, "partial motion")] {
        let t = interpret(m, "kernel", &[0x1000], 100_000).unwrap();
        assert_eq!(
            t.launches, reference.launches,
            "{label} must preserve semantics"
        );
    }

    println!("Extension: partial setup motion (Section 5.5 future work)\n");
    println!("3-layer kernel; each setup = 1 pure field (addr) + 1 impure field (threshold)\n");
    println!("field writes hidden behind accelerator execution:");
    println!("  paper's rewrite (full move or nothing): {full_hidden}");
    println!("  with partial setup motion:              {partial_hidden}");
    println!(
        "\noptimized IR with partial motion:\n{}",
        print_module(&partial)
    );
}
