//! Property-based oracle: the abstract interpretation in `reach` against
//! the concrete interpreter in `accfg::interp`.
//!
//! Random structured modules (setups, launches, clobbers, `scf.if`,
//! constant-trip `scf.for`, nested) are generated with every launch
//! *site-tagged*: a unique `__site` constant is written immediately
//! before each launch, so every dynamic `LaunchRecord` identifies the
//! static launch site it came from. The oracle then checks, per module:
//!
//! 1. **Soundness of `Known`** — a field the analysis proves `Known` at a
//!    site resolves, on every dynamic instance of that site, to exactly
//!    the claimed constant / function argument (and is always present).
//! 2. **Lint removability** — deleting every dead- or redundant-flagged
//!    setup field write leaves the launch trace bit-identical.
//! 3. **Bound soundness** — `elidable_bound` never exceeds the measured
//!    write savings of that deletion, and `static_writes` never exceeds
//!    the executed write count.
//!
//! Beside the random modules, loops whose constant bounds sit at the edges
//! of `i64` arrive as IR text: the static trip count and the interpreter's
//! iteration count must agree there too, and neither may overflow.

use accfg::dialect::setup_set_fields;
use accfg::{interpret, setup_fields, ExecTrace};
use accfg_analyze::reach::{analyze_func, resolve, Resolved};
use accfg_analyze::{lint_module, AbsVal};
use accfg_ir::{parse_module, verify, FuncBuilder, Module, Symbol, Type, ValueId};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::BTreeMap;

const ACCELS: [&str; 2] = ["alpha", "beta"];
const FIELDS: [&str; 3] = ["f0", "f1", "f2"];
const FUEL: u64 = 1_000_000;

type Action = (u8, u8, u8);

/// Emits up to `budget` actions from the shared cursor into the builder.
#[allow(clippy::too_many_arguments)]
pub fn emit(
    b: &mut FuncBuilder,
    actions: &[Action],
    pos: &Cell<usize>,
    next_site: &Cell<i64>,
    budget: usize,
    depth: usize,
    states: &mut BTreeMap<String, ValueId>,
    pool: &[ValueId],
    cond: ValueId,
) {
    for _ in 0..budget {
        if pos.get() >= actions.len() {
            return;
        }
        let (k, a, c) = actions[pos.get()];
        pos.set(pos.get() + 1);
        match k % 8 {
            0..=2 => {
                let accel = ACCELS[a as usize % ACCELS.len()];
                let field = FIELDS[c as usize % FIELDS.len()];
                let value = pool[(a / 2) as usize % pool.len()];
                let s = match states.get(accel) {
                    Some(&prev) => b.setup_from(accel, prev, &[(field, value)]),
                    None => b.setup(accel, &[(field, value)]),
                };
                states.insert(accel.to_string(), s);
            }
            3..=4 => {
                let accel = ACCELS[a as usize % ACCELS.len()];
                let site = next_site.get();
                next_site.set(site + 1);
                let tag = b.const_int(site, Type::I64);
                let s = match states.get(accel) {
                    Some(&prev) => b.setup_from(accel, prev, &[("__site", tag)]),
                    None => b.setup(accel, &[("__site", tag)]),
                };
                states.insert(accel.to_string(), s);
                let t = b.launch(accel, s);
                b.await_token(accel, t);
            }
            5 => {
                b.opaque("mystery", vec![], vec![], None); // clobbers
            }
            6 if depth < 2 => {
                let trips = (a % 4) as i64; // 0..=3, zero-trip included
                let lb = b.const_index(0);
                let ub = b.const_index(trips);
                let one = b.const_index(1);
                let body_budget = (c % 3) as usize + 1;
                b.build_for(lb, ub, one, vec![], |b, iv, _| {
                    let mut inner_states = states.clone();
                    let mut inner_pool = pool.to_vec();
                    inner_pool.push(iv);
                    emit(
                        b,
                        actions,
                        pos,
                        next_site,
                        body_budget,
                        depth + 1,
                        &mut inner_states,
                        &inner_pool,
                        cond,
                    );
                    vec![]
                });
            }
            7 if depth < 2 => {
                let then_budget = (a % 3) as usize + 1;
                let else_budget = (c % 3) as usize;
                b.build_if(
                    cond,
                    |b| {
                        let mut inner = states.clone();
                        emit(
                            b,
                            actions,
                            pos,
                            next_site,
                            then_budget,
                            depth + 1,
                            &mut inner,
                            pool,
                            cond,
                        );
                        vec![]
                    },
                    |b| {
                        let mut inner = states.clone();
                        emit(
                            b,
                            actions,
                            pos,
                            next_site,
                            else_budget,
                            depth + 1,
                            &mut inner,
                            pool,
                            cond,
                        );
                        vec![]
                    },
                );
            }
            _ => {} // region action at max depth: skip
        }
    }
}

/// Builds a module from the action tape. Signature: (i64, i64, i1).
pub fn build(actions: &[Action]) -> Module {
    let mut m = Module::new();
    let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64, Type::I64, Type::I1]);
    let c7 = b.const_int(7, Type::I64);
    let c9 = b.const_int(9, Type::I64);
    let pool = vec![args[0], args[1], c7, c9];
    let pos = Cell::new(0);
    let next_site = Cell::new(0);
    let mut states = BTreeMap::new();
    emit(
        &mut b,
        actions,
        &pos,
        &next_site,
        actions.len(),
        0,
        &mut states,
        &pool,
        args[2],
    );
    b.ret(vec![]);
    m
}

/// Deletes every dead- or redundant-flagged setup field write.
fn prune_flagged(m: &mut Module) -> u64 {
    let func = m.func_by_name("f").unwrap();
    let cfg = analyze_func(m, func);
    let mut drop_per_op: BTreeMap<accfg_ir::OpId, Vec<usize>> = BTreeMap::new();
    let mut flagged = 0;
    for w in &cfg.writes {
        if w.dead || w.redundant {
            drop_per_op.entry(w.op).or_default().push(w.index);
            flagged += 1;
        }
    }
    for (op, drop) in drop_per_op {
        let kept: Vec<(Symbol, ValueId)> = setup_fields(m, op)
            .iter()
            .enumerate()
            .filter(|(i, _)| !drop.contains(i))
            .map(|(_, fv)| fv)
            .collect();
        setup_set_fields(m, op, &kept);
    }
    flagged
}

fn check_module(actions: &[Action], a0: i64, a1: i64, flag: bool) {
    let m = build(actions);
    verify(&m).expect("generated module must verify");
    let args = [a0, a1, flag as i64];
    let trace = interpret(&m, "f", &args, FUEL).expect("interpretation");

    let func = m.func_by_name("f").unwrap();
    let cfg = analyze_func(&m, func);

    // every static launch site carries a definite, unique __site tag
    let mut by_site = BTreeMap::new();
    for launch in &cfg.launches {
        let site_tag = m.symbol("__site").expect("every launch is tagged");
        let Some(AbsVal::Known(v)) = launch.fields.get(site_tag) else {
            panic!("launch lost its __site tag: {:?}", launch.fields);
        };
        let Resolved::Const(id) = resolve(&m, *v) else {
            panic!("__site tag is not a constant");
        };
        assert!(by_site.insert(id, launch).is_none(), "duplicate site tag");
    }

    // oracle 1: Known facts hold on every dynamic instance of the site
    for rec in &trace.launches {
        let site = rec.get("__site").expect("every launch is tagged");
        let launch = by_site[&site];
        assert_eq!(m.name(launch.accelerator), rec.accelerator());
        for (field, val) in launch.fields.iter() {
            let field = m.name(field);
            if let AbsVal::Known(v) = val {
                let got = rec.get(field);
                match resolve(&m, *v) {
                    Resolved::Const(c) => assert_eq!(
                        got,
                        Some(c),
                        "site {site} field {field}: Known const {c}, registers {rec:?}"
                    ),
                    Resolved::Arg(i) => assert_eq!(
                        got,
                        Some(args[i]),
                        "site {site} field {field}: Known arg {i}"
                    ),
                    Resolved::Opaque => assert!(
                        got.is_some(),
                        "site {site} field {field}: Known but unwritten"
                    ),
                }
            }
        }
    }

    // oracle 2: flagged writes are removable without changing any launch
    let mut pruned = m.clone();
    prune_flagged(&mut pruned);
    verify(&pruned).expect("pruned module must verify");
    let pruned_trace: ExecTrace = interpret(&pruned, "f", &args, FUEL).expect("pruned run");
    assert_eq!(
        trace.launches, pruned_trace.launches,
        "deleting dead/redundant writes changed the launch trace"
    );

    // oracle 3: the static bound claims only value-resident writes — the
    // interpreter counts exactly those as `elided_writes`, so the bound
    // can never exceed that dynamic ground truth
    let report = lint_module(&m);
    assert!(
        report.elidable_bound <= trace.elided_writes as u64,
        "bound {} > dynamically resident writes {}",
        report.elidable_bound,
        trace.elided_writes
    );
    assert!(
        report.static_writes <= trace.setup_writes as u64,
        "static_writes {} > executed {}",
        report.static_writes,
        trace.setup_writes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn analysis_matches_interpreter(
        actions in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..24),
        a0 in -4i64..100,
        a1 in -4i64..100,
        flag in any::<bool>(),
    ) {
        check_module(&actions, a0, a1, flag);
    }
}

#[test]
fn oracle_exercises_structured_modules() {
    // a fixed tape covering loop + if + clobber + multiple launches, so a
    // regression in the generator (e.g. regions never emitted) is caught
    // even if the random tape distribution shifts
    let actions: Vec<Action> = vec![
        (0, 0, 0), // setup alpha f0
        (6, 3, 2), // for 3 trips, budget 3
        (1, 2, 1), //   setup alpha f1
        (3, 0, 0), //   launch alpha
        (7, 1, 1), //   if then{1} else{1} (nested)
        (5, 0, 0), // clobber
        (4, 1, 0), // launch beta
        (2, 3, 2), // setup beta f2
        (3, 1, 0), // launch beta
    ];
    let m = build(&actions);
    let func = m.func_by_name("f").unwrap();
    let cfg = analyze_func(&m, func);
    assert!(cfg.launches.len() >= 3, "tape should produce several sites");
    check_module(&actions, 5, -2, true);
    check_module(&actions, 0, 0, false);
}

/// Parsed, verified IR text: one `scf.for` over constant bounds, a setup
/// and a launch per iteration.
fn constant_bound_loop(lb: i64, ub: i64, step: i64) -> Module {
    let text = format!(
        r#"
        func.func @f() {{
          %lb = arith.constant() {{value = {lb}}} : index
          %ub = arith.constant() {{value = {ub}}} : index
          %st = arith.constant() {{value = {step}}} : index
          scf.for %i = %lb to %ub step %st {{
            %s = accfg.setup "acc" to ("i" = %i) : !accfg.state<"acc">
            %t = accfg.launch "acc" with %s : !accfg.token<"acc">
            accfg.await "acc" %t
            scf.yield()
          }}
          func.return()
        }}
        "#
    );
    let module = parse_module(&text).expect("the loop parses");
    verify(&module).expect("the loop verifies");
    module
}

/// `iv += step` in the interpreter and `ub - lb + step - 1` in the trip
/// count both overflowed on bounds a parsed module may carry: a panic in
/// debug builds; in release builds an induction variable that wrapped
/// negative and spun until the fuel ran out, and a wrapped — huge, unsound —
/// guaranteed multiplicity.
#[test]
fn loop_bounds_at_the_edges_of_i64_neither_panic_nor_spin() {
    const MAX: i64 = i64::MAX;
    const MIN: i64 = i64::MIN;
    let mult = |m: &Module| analyze_func(m, m.func_by_name("f").unwrap()).writes[0].mult;
    // (lb, ub, step, iterations, guaranteed multiplicity): the static count
    // is exact wherever `ub - lb` is an `i64`, and claims nothing elsewhere
    for (lb, ub, step, iterations, guaranteed) in [
        (MAX - 1, MAX, 5, 1, 1),
        (MAX - 10, MAX, 3, 4, 4),
        (0, MAX, MAX, 1, 1),
        (MIN, MIN + 1, 1, 1, 1),
        (MIN, MIN + 7, MAX, 1, 1),
        (MIN, MAX, MAX, 3, 0),
        (-2, MAX, MAX, 2, 0),
        (5, 5, 1, 0, 0),
        (MAX, MIN, 1, 0, 0),
    ] {
        let what = format!("for {lb} to {ub} step {step}");
        let m = constant_bound_loop(lb, ub, step);
        let trace = interpret(&m, "f", &[], 1_000).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(trace.launches.len(), iterations, "{what}");
        if let Some(last) = trace.launches.last() {
            let last_iv = i128::from(lb) + (iterations as i128 - 1) * i128::from(step);
            assert_eq!(last.get("i").map(i128::from), Some(last_iv), "{what}");
        }
        assert_eq!(mult(&m), guaranteed, "{what}");
    }
    // the whole of i64 one step at a time: a bounded run ends on fuel, and
    // the analysis guarantees no execution count
    let m = constant_bound_loop(MIN, MAX, 1);
    assert!(interpret(&m, "f", &[], 1_000).is_err());
    assert_eq!(mult(&m), 0);
}
