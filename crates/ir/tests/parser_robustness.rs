//! The parser must reject malformed input with an error — never panic.

use accfg_ir::parse_module;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_input_never_panics(input in ".{0,200}") {
        let _ = parse_module(&input);
    }

    #[test]
    fn mutated_valid_ir_never_panics(cut in 0usize..400, insert in "[%@{}()\\[\\]<>=:,\"a-z0-9 ]{0,8}") {
        let valid = r#"
        func.func @f(%p: i64) {
          %lb = arith.constant() {value = 0} : index
          %ub = arith.constant() {value = 4} : index
          %st = arith.constant() {value = 1} : index
          %s0 = accfg.setup "acc" to ("A" = %p) : !accfg.state<"acc">
          %r = scf.for %i = %lb to %ub step %st iter_args(%s = %s0) -> (!accfg.state<"acc">) {
            %s1 = accfg.setup "acc" from %s to ("i" = %i) : !accfg.state<"acc">
            %t = accfg.launch "acc" with %s1 : !accfg.token<"acc">
            accfg.await "acc" %t
            scf.yield(%s1)
          }
          func.return()
        }
        "#;
        let cut = cut.min(valid.len());
        // splice arbitrary characters into the middle of valid IR
        let mutated: String = valid
            .chars()
            .take(cut)
            .chain(insert.chars())
            .chain(valid.chars().skip(cut))
            .collect();
        let _ = parse_module(&mutated);
    }

    #[test]
    fn error_positions_are_in_range(input in "[a-z%@(){}=:0-9\" ]{1,80}") {
        if let Err(e) = parse_module(&input) {
            prop_assert!(e.line >= 1);
            prop_assert!(e.column >= 1);
            // single-line inputs: the error is on line 1
            prop_assert!(e.line <= 2, "line {} for single-line input", e.line);
        }
    }
}

/// `depth` region-holding ops nested inside one another: `scf.for` bodies,
/// or the `then` branches of `scf.if`. One op per line, so the line of the
/// n-th opening brace is known.
fn nested_regions(kind: &str, depth: usize) -> String {
    let mut text =
        String::from("func.func @f(%c: i1) {\n%z = arith.constant() {value = 0} : index\n");
    let (open, close) = match kind {
        "for" => ("scf.for %i = %z to %z step %z {\n", "scf.yield()\n}\n"),
        "if" => (
            "scf.if %c then {\n",
            "scf.yield()\n} else {\nscf.yield()\n}\n",
        ),
        other => unreachable!("no such region kind: {other}"),
    };
    text.push_str(&open.repeat(depth));
    text.push_str(&close.repeat(depth));
    text.push_str("func.return()\n}\n");
    text
}

/// Deep nesting is refused with a positioned error, not a stack overflow:
/// the recursive-descent parser recurses once per region level, and 10 000
/// nested `scf.for` used to abort the process on an 8 MiB main thread.
/// Runs on a 2 MiB thread, the size test threads get.
#[test]
fn nesting_past_the_limit_is_a_positioned_error_not_an_overflow() {
    use accfg_ir::parser::MAX_DEPTH;
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            for kind in ["for", "if"] {
                let at_limit = parse_module(&nested_regions(kind, MAX_DEPTH))
                    .unwrap_or_else(|e| panic!("{MAX_DEPTH} nested scf.{kind} must parse: {e}"));
                accfg_ir::verify(&at_limit).expect("and verify");
                for depth in [MAX_DEPTH + 1, 100_000] {
                    let err = parse_module(&nested_regions(kind, depth))
                        .expect_err("nesting past the limit is refused");
                    assert!(err.message.contains("limit of 128"), "{err}");
                    // two header lines, then one opening brace per line:
                    // the error names the first brace past the limit
                    assert_eq!(err.line, 2 + MAX_DEPTH + 1, "{kind} x {depth}: {err}");
                    assert!(err.column > 1, "{err}");
                }
            }
            // attribute arrays recurse the same way and share the limit
            let before = "opaque.op() {a = ";
            let nested_array = |n: usize| {
                format!(
                    "func.func @f() {{\n{before}{}1{}}}\nfunc.return()\n}}\n",
                    "[".repeat(n),
                    "]".repeat(n)
                )
            };
            parse_module(&nested_array(MAX_DEPTH)).expect("arrays nest to the limit");
            for depth in [MAX_DEPTH + 1, 100_000] {
                let err = parse_module(&nested_array(depth)).expect_err("refused past it");
                assert!(err.message.contains("limit of 128"), "{err}");
                let first_refused = before.len() + MAX_DEPTH + 1;
                assert_eq!((err.line, err.column), (2, first_refused), "{err}");
            }
        })
        .expect("spawn")
        .join()
        .expect("the parser must not overflow a 2 MiB stack");
}
