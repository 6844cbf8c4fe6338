//! Register-state diffing: the dynamic counterpart of [`Deduplicate`].
//!
//! The dedup pass (Section 5.4) removes configuration writes the *compiler*
//! can prove redundant against the state threaded through the SSA graph.
//! The same question recurs at run time — most visibly in a serving runtime
//! dispatching many compiled programs onto one accelerator, where the
//! register file left by the previous request makes part of the next
//! request's configuration redundant. These helpers answer it over concrete
//! register files: given the state an accelerator currently holds and the
//! state a launch must observe, which writes are actually needed?
//!
//! [`diff`] and [`writes_needed`] state the question in the plainest terms
//! there are — ordered maps, any key — and are the *definition* the fast
//! answer is held to: the `accfg-runtime` dispatcher walks a dense file of
//! hardware register indices and is property-tested against [`diff`]. On
//! the compiler's side of the same idea, the interpreter counts the writes
//! whose register already held the value
//! ([`ExecTrace::elided_writes`](crate::interp::ExecTrace::elided_writes)),
//! and [`launch_write_plan`] lists the writes that are left, launch by
//! launch: the dynamic lower bound the dedup pass approaches statically.
//!
//! [`Deduplicate`]: crate::dedup::Deduplicate

use crate::fieldmap::FieldMap;
use crate::interp::ExecTrace;
use accfg_ir::Symbol;
use std::collections::BTreeMap;

/// The writes needed to move a register file from `current` to `target`:
/// every `(key, value)` in `target` that `current` does not already hold.
///
/// Registers in `current` but absent from `target` are untouched —
/// configuration registers persist, they are never "unset" (the property
/// deduplication exploits, Section 3.2).
///
/// # Examples
///
/// ```
/// use accfg::regstate::diff;
/// use std::collections::BTreeMap;
///
/// let current = BTreeMap::from([("A".to_string(), 1), ("B".to_string(), 2)]);
/// let target = BTreeMap::from([("A".to_string(), 1), ("B".to_string(), 9)]);
/// assert_eq!(diff(&current, &target), vec![("B".to_string(), 9)]);
/// ```
pub fn diff<K: Ord + Clone>(
    current: &BTreeMap<K, i64>,
    target: &BTreeMap<K, i64>,
) -> Vec<(K, i64)> {
    target
        .iter()
        .filter(|(k, v)| current.get(*k) != Some(*v))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Counts the writes [`diff`] would emit without materializing them.
pub fn writes_needed<K: Ord>(current: &BTreeMap<K, i64>, target: &BTreeMap<K, i64>) -> usize {
    target
        .iter()
        .filter(|(k, v)| current.get(*k) != Some(*v))
        .count()
}

/// The minimal per-launch write lists for an execution trace, assuming
/// persistent configuration registers and starting from `initial`. Fields
/// are symbols of the interpreted module, in `initial` as in the result.
///
/// This is the dynamic lower bound the dedup pass approaches statically:
/// launch *i*'s list contains exactly the registers whose value differs
/// from the file the previous launch observed. Summing the lengths gives
/// the fewest field writes any correct schedule of the trace can perform.
pub fn launch_write_plan(trace: &ExecTrace, initial: &FieldMap<i64>) -> Vec<Vec<(Symbol, i64)>> {
    let mut resident = initial.clone();
    trace
        .launches
        .iter()
        .map(|launch| {
            launch
                .fields()
                .filter(|&(field, _, value)| resident.set(field, value) != Some(value))
                .map(|(field, _, value)| (field, value))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::interpret;
    use crate::pipeline::{pipeline, OptLevel};
    use crate::AccelFilter;
    use accfg_ir::{FuncBuilder, Module, Type};

    fn file(pairs: &[(&str, i64)]) -> BTreeMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn diff_finds_changed_and_new_registers() {
        let current = file(&[("A", 1), ("B", 2)]);
        let target = file(&[("A", 1), ("B", 3), ("C", 4)]);
        assert_eq!(
            diff(&current, &target),
            vec![("B".to_string(), 3), ("C".to_string(), 4)]
        );
        assert_eq!(writes_needed(&current, &target), 2);
    }

    #[test]
    fn identical_states_need_no_writes() {
        let s = file(&[("A", 1), ("B", 2)]);
        assert!(diff(&s, &s).is_empty());
        assert_eq!(writes_needed(&s, &s), 0);
    }

    #[test]
    fn registers_are_never_unset() {
        let current = file(&[("A", 1), ("B", 2)]);
        let target = file(&[("A", 1)]);
        assert!(diff(&current, &target).is_empty());
    }

    /// A tiled loop whose invariant fields repeat: the dynamic plan should
    /// write them exactly once.
    fn tiled_module() -> Module {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            let sixty_four = b.const_index(64);
            let off = b.muli(iv, sixty_four);
            let a = b.addi(args[0], off);
            let s = b.setup("gemm", &[("A", a), ("size", sixty_four)]);
            let t = b.launch("gemm", s);
            b.await_token("gemm", t);
            vec![]
        });
        b.ret(vec![]);
        m
    }

    /// A register file of `m`'s accelerator, fields by name.
    fn resident(m: &Module, pairs: &[(&str, i64)]) -> FieldMap<i64> {
        let mut file = FieldMap::new();
        for &(field, value) in pairs {
            file.set(m.symbol(field).unwrap(), value);
        }
        file
    }

    #[test]
    fn plan_writes_invariant_fields_once() {
        let m = tiled_module();
        let trace = interpret(&m, "f", &[0x1000], 100_000).unwrap();
        let plan = launch_write_plan(&trace, &FieldMap::new());
        assert_eq!(plan.len(), 4);
        // first launch configures both fields, later ones only the address
        assert_eq!(plan[0].len(), 2);
        for writes in &plan[1..] {
            assert_eq!(writes.len(), 1);
            assert_eq!(m.name(writes[0].0), "A");
        }
    }

    #[test]
    fn plan_respects_initial_state() {
        let m = tiled_module();
        let trace = interpret(&m, "f", &[0x1000], 100_000).unwrap();
        // a resident file already holding the invariant field and the first
        // tile's address: the first launch needs nothing at all
        let resident = resident(&m, &[("size", 64), ("A", 0x1000)]);
        let plan = launch_write_plan(&trace, &resident);
        assert!(plan[0].is_empty(), "{:?}", plan[0]);
    }

    #[test]
    fn dynamic_plan_lower_bounds_the_dedup_pass() {
        let mut deduped = tiled_module();
        pipeline(OptLevel::Dedup, AccelFilter::All)
            .run(&mut deduped)
            .unwrap();
        let dedup_trace = interpret(&deduped, "f", &[0x1000], 100_000).unwrap();

        let trace = interpret(&tiled_module(), "f", &[0x1000], 100_000).unwrap();
        let dynamic: usize = launch_write_plan(&trace, &FieldMap::new())
            .iter()
            .map(Vec::len)
            .sum();
        assert!(dynamic <= dedup_trace.setup_writes);
        // and both observe the same launch traces
        assert_eq!(trace.launches, dedup_trace.launches);
    }
}
