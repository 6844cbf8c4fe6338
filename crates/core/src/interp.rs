//! A reference interpreter for accfg-level IR.
//!
//! This is the semantic oracle of the test suite: the observable behaviour
//! of a program is the *sequence of launches*, each with the full contents
//! of the accelerator's configuration registers at launch time (exactly what
//! the hardware sees). Every accfg optimization pass must preserve this
//! trace — deduplication may remove writes, overlap may reorder them, but
//! the register file at each launch must be identical.
//!
//! Configuration registers retain their values across setups (the property
//! deduplication exploits, Section 3.2); clobbering ops (unannotated calls,
//! `#accfg.effects<all>`) poison all registers so that any pass illegally
//! deduplicating across them produces a detectably different trace.

use accfg_ir::passes::eval_binary;
use accfg_ir::{CmpPredicate, Module, Names, OpId, Opcode, Symbol, ValueId};
use std::error::Error;
use std::fmt;

use crate::dialect;
use crate::fieldmap::{ConfigState, FieldMap};

/// The poison value written to every register by a clobbering op.
pub const CLOBBER_POISON: i64 = i64::MIN + 0xC10BB;

/// One recorded `accfg.launch`: which accelerator, and the complete
/// configuration register file it observed.
///
/// The accelerator and the fields are symbols of the interpreted module, and
/// the record keeps a handle on that module's names. Two records are equal
/// when they name the same accelerator holding the same values in fields of
/// the same *names* — whatever order their modules interned those names in,
/// so traces of separately built modules compare. Records whose modules
/// share a name table (one module, or a clone that has interned nothing
/// since) compare symbol by symbol without reading a name.
#[derive(Clone)]
pub struct LaunchRecord {
    names: Names,
    accelerator: Symbol,
    registers: FieldMap<i64>,
}

impl LaunchRecord {
    /// The launched accelerator.
    pub fn accelerator(&self) -> &str {
        self.names.name(self.accelerator)
    }

    /// The value the field called `field` held at launch time.
    pub fn get(&self, field: &str) -> Option<i64> {
        self.registers.get(self.names.symbol(field)?).copied()
    }

    /// The names the record's symbols are of: records for which
    /// [`Names::same_table`] holds number their fields alike.
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// The fields held at launch time, in symbol order, each as the symbol
    /// the interpreted module gave its name, with its value.
    pub fn values(&self) -> impl Iterator<Item = (Symbol, i64)> + '_ {
        self.registers.iter().map(|(field, &value)| (field, value))
    }

    /// The fields held at launch time, in symbol order: each as the symbol
    /// the interpreted module gave its name (every record of one trace
    /// numbers its fields alike), the name, and the value.
    pub fn fields(&self) -> impl Iterator<Item = (Symbol, &str, i64)> {
        self.registers
            .iter()
            .map(|(field, &value)| (field, self.names.name(field), value))
    }
}

impl PartialEq for LaunchRecord {
    fn eq(&self, other: &Self) -> bool {
        if self.names.same_table(&other.names) {
            return self.accelerator == other.accelerator && self.registers == other.registers;
        }
        self.accelerator() == other.accelerator()
            && self.fields().count() == other.fields().count()
            && self
                .fields()
                .all(|(_, field, v)| other.get(field) == Some(v))
    }
}

impl Eq for LaunchRecord {}

/// `"accelerator" {"field": value, ..}`: names, as a failed assertion on two
/// traces should show them.
impl fmt::Debug for LaunchRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} ", self.accelerator())?;
        f.debug_map()
            .entries(self.fields().map(|(_, field, v)| (field, v)))
            .finish()
    }
}

/// The observable result of executing a function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecTrace {
    /// Launches, in program order.
    pub launches: Vec<LaunchRecord>,
    /// Total number of individual configuration field writes executed.
    /// Deduplication lowers this; it must never raise it between equivalent
    /// programs ... modulo overlap's one extra prologue/epilogue setup.
    pub setup_writes: usize,
    /// Writes whose register already held the identical value — the
    /// ceiling a perfect dynamic elider reaches on this execution, and the
    /// ground truth for the static elidable-write lower bound
    /// (`accfg-analyze`'s `LintReport::elidable_bound`).
    pub elided_writes: usize,
}

/// Why interpretation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The per-run op budget was exhausted (runaway loop).
    OutOfFuel,
    /// An op that only exists after target lowering was encountered.
    NotAccfgLevel(String),
    /// Wrong number of function arguments.
    ArgCount {
        /// What the function declares.
        expected: usize,
        /// What the caller passed.
        provided: usize,
    },
    /// The named function does not exist.
    NoSuchFunc(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfFuel => write!(f, "interpreter ran out of fuel"),
            InterpError::NotAccfgLevel(op) => {
                write!(f, "op `{op}` cannot be interpreted at accfg level")
            }
            InterpError::ArgCount { expected, provided } => {
                write!(f, "function expects {expected} arguments, got {provided}")
            }
            InterpError::NoSuchFunc(name) => write!(f, "no function named `{name}`"),
        }
    }
}

impl Error for InterpError {}

/// Interprets the function named `name` with integer arguments, returning
/// its launch trace.
///
/// # Errors
///
/// See [`InterpError`]. `fuel` bounds the total op count; use a few million
/// for real workloads.
pub fn interpret(
    m: &Module,
    name: &str,
    args: &[i64],
    fuel: u64,
) -> Result<ExecTrace, InterpError> {
    let func = m
        .func_by_name(name)
        .ok_or_else(|| InterpError::NoSuchFunc(name.to_string()))?;
    let mut interp = Interp {
        m,
        env: vec![0; m.value_count()],
        regs: ConfigState::new(),
        trace: ExecTrace::default(),
        fuel,
        carried: Vec::new(),
    };
    let block = m.body_block(func, 0);
    let params = &m.block(block).args;
    if params.len() != args.len() {
        return Err(InterpError::ArgCount {
            expected: params.len(),
            provided: args.len(),
        });
    }
    for (&p, &a) in params.iter().zip(args.iter()) {
        interp.set(p, a);
    }
    interp.run_block(block)?;
    Ok(interp.trace)
}

struct Interp<'m> {
    m: &'m Module,
    /// Indexed by value. State/token values carry no integer; like every
    /// value not yet assigned they read as 0 when (never validly) read.
    env: Vec<i64>,
    /// Per accelerator, its persistent configuration register file.
    regs: ConfigState<i64>,
    trace: ExecTrace,
    fuel: u64,
    /// The values [`Interp::carry`] is moving, read before any is written.
    carried: Vec<i64>,
}

impl<'m> Interp<'m> {
    fn get(&self, v: ValueId) -> i64 {
        self.env[v.index()]
    }

    fn set(&mut self, v: ValueId, value: i64) {
        self.env[v.index()] = value;
    }

    /// Assigns the values of `from` to `to`, pairwise and all at once (a
    /// loop may yield its arguments in another order).
    fn carry(&mut self, from: &[ValueId], to: &[ValueId]) {
        let env = &self.env;
        self.carried.clear();
        self.carried.extend(from.iter().map(|&v| env[v.index()]));
        for (&target, &value) in to.iter().zip(&self.carried) {
            self.env[target.index()] = value;
        }
    }

    /// Runs every op in `block`. What it yields or returns stays in the
    /// values of the terminator's operands, for the caller to
    /// [`carry`](Interp::carry) (see [`terminator_values`]).
    fn run_block(&mut self, block: accfg_ir::BlockId) -> Result<(), InterpError> {
        let m = self.m;
        for &op in m.block_ops(block) {
            if self.fuel == 0 {
                return Err(InterpError::OutOfFuel);
            }
            self.fuel -= 1;
            match m.op(op).opcode {
                Opcode::Yield | Opcode::Return => {}
                _ => self.run_op(op)?,
            }
        }
        Ok(())
    }

    fn run_op(&mut self, op: OpId) -> Result<(), InterpError> {
        let m = self.m;
        let data = m.op(op);
        let opcode = data.opcode;
        match opcode {
            Opcode::Constant => {
                let v = m.int_attr(op, "value").expect("verified constant");
                self.set(data.results[0], v);
            }
            o if o.is_binary_arith() => {
                let l = self.get(data.operands[0]);
                let r = self.get(data.operands[1]);
                let v = eval_binary(o, l, r).expect("binary arith evaluates");
                self.set(data.results[0], v);
            }
            Opcode::CmpI => {
                let pred = m
                    .str_attr(op, "predicate")
                    .and_then(CmpPredicate::from_name)
                    .expect("verified predicate");
                let l = self.get(data.operands[0]);
                let r = self.get(data.operands[1]);
                self.set(data.results[0], i64::from(pred.eval(l, r)));
            }
            Opcode::Select => {
                let c = self.get(data.operands[0]);
                let v = if c != 0 {
                    self.get(data.operands[1])
                } else {
                    self.get(data.operands[2])
                };
                self.set(data.results[0], v);
            }
            Opcode::AccfgSetup => {
                let file = self.regs.or_default(dialect::accelerator(m, op));
                file.reserve(m.symbol_count());
                for (field, value_id) in dialect::setup_fields(m, op).iter() {
                    let value = self.env[value_id.index()];
                    if file.set(field, value) == Some(value) {
                        self.trace.elided_writes += 1;
                    }
                    self.trace.setup_writes += 1;
                }
            }
            Opcode::AccfgLaunch => {
                let accelerator = dialect::accelerator(m, op);
                self.trace.launches.push(LaunchRecord {
                    names: m.names(),
                    accelerator,
                    registers: self.regs.get(accelerator).cloned().unwrap_or_default(),
                });
            }
            Opcode::AccfgAwait => {}
            Opcode::For => {
                let lb = self.get(data.operands[0]);
                let ub = self.get(data.operands[1]);
                let step = self.get(data.operands[2]).max(1);
                let body = m.body_block(op, 0);
                let args = &m.block(body).args;
                // the iteration state lives in the body's arguments: the
                // inits, then each iteration's yields, and last the results
                self.carry(&data.operands[3..], &args[1..]);
                let mut iv = lb;
                while iv < ub {
                    self.set(args[0], iv);
                    self.run_block(body)?;
                    self.carry(terminator_values(m, body), &args[1..]);
                    // an induction variable that cannot take another step
                    // has passed every representable bound
                    match iv.checked_add(step) {
                        Some(next) => iv = next,
                        None => break,
                    }
                }
                self.carry(&args[1..], &data.results);
            }
            Opcode::If => {
                let cond = self.get(data.operands[0]);
                let block = m.body_block(op, if cond != 0 { 0 } else { 1 });
                self.run_block(block)?;
                self.carry(terminator_values(m, block), &data.results);
            }
            Opcode::Call | Opcode::Opaque => {
                match dialect::state_effect(m, op) {
                    dialect::StateEffect::Preserves => {}
                    // poison every known register so illegal dedup across
                    // this op changes the trace
                    _ => self.regs.fill_all(CLOBBER_POISON),
                }
                // foreign results are deterministic zeros
                for &r in &data.results {
                    self.set(r, 0);
                }
            }
            Opcode::Func | Opcode::Return | Opcode::Yield => unreachable!("handled by caller"),
            Opcode::CsrWrite | Opcode::RoccCmd | Opcode::TargetLaunch | Opcode::TargetAwait => {
                return Err(InterpError::NotAccfgLevel(opcode.name().to_string()))
            }
            _ => unreachable!("exhaustive opcode handling"),
        }
        Ok(())
    }
}

/// The operands of the last `scf.yield` or `func.return` of `block`: what
/// running it yields.
fn terminator_values(m: &Module, block: accfg_ir::BlockId) -> &[ValueId] {
    m.block_ops(block)
        .iter()
        .rev()
        .find(|&&op| matches!(m.op(op).opcode, Opcode::Yield | Opcode::Return))
        .map_or(&[], |&op| &m.op(op).operands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accfg_ir::{Effects, FuncBuilder, Type};

    #[test]
    fn records_launch_snapshots() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let a = b.const_index(5);
        let c = b.const_index(9);
        let s1 = b.setup("acc", &[("x", a), ("y", c)]);
        let t1 = b.launch("acc", s1);
        b.await_token("acc", t1);
        // second setup only changes y; x is retained by the register file
        let s2 = b.setup_from("acc", s1, &[("y", a)]);
        let t2 = b.launch("acc", s2);
        b.await_token("acc", t2);
        b.ret(vec![]);

        let trace = interpret(&m, "f", &[], 1000).unwrap();
        assert_eq!(trace.launches.len(), 2);
        assert_eq!(trace.launches[0].get("x"), Some(5));
        assert_eq!(trace.launches[0].get("y"), Some(9));
        assert_eq!(trace.launches[1].get("x"), Some(5)); // retained
        assert_eq!(trace.launches[1].get("y"), Some(5));
        assert_eq!(trace.setup_writes, 3);
    }

    #[test]
    fn loops_iterate_with_iter_args() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let lb = b.const_index(0);
        let ub = b.const_index(3);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            let s = b.setup("acc", &[("i", iv)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        b.ret(vec![]);
        let trace = interpret(&m, "f", &[], 1000).unwrap();
        assert_eq!(trace.launches.len(), 3);
        for (i, l) in trace.launches.iter().enumerate() {
            assert_eq!(l.get("i"), Some(i as i64));
        }
    }

    #[test]
    fn if_branches_select_configs() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I1]);
        let ten = b.const_index(10);
        let twenty = b.const_index(20);
        let chosen = b.build_if(args[0], |_| vec![ten], |_| vec![twenty]);
        let s = b.setup("acc", &[("v", chosen[0])]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        let t1 = interpret(&m, "f", &[1], 1000).unwrap();
        let t0 = interpret(&m, "f", &[0], 1000).unwrap();
        assert_eq!(t1.launches[0].get("v"), Some(10));
        assert_eq!(t0.launches[0].get("v"), Some(20));
    }

    #[test]
    fn clobbers_poison_registers() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let a = b.const_index(5);
        let s1 = b.setup("acc", &[("x", a)]);
        let t1 = b.launch("acc", s1);
        b.await_token("acc", t1);
        b.call("mystery", vec![], vec![]); // clobber
        let s2 = b.setup_from("acc", s1, &[]);
        let t2 = b.launch("acc", s2);
        b.await_token("acc", t2);
        b.ret(vec![]);
        let trace = interpret(&m, "f", &[], 1000).unwrap();
        assert_eq!(trace.launches[0].get("x"), Some(5));
        assert_eq!(trace.launches[1].get("x"), Some(CLOBBER_POISON));
    }

    #[test]
    fn annotated_calls_preserve_registers() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let a = b.const_index(5);
        let s1 = b.setup("acc", &[("x", a)]);
        let t1 = b.launch("acc", s1);
        b.await_token("acc", t1);
        b.opaque("printf", vec![], vec![], Some(Effects::None));
        let s2 = b.setup_from("acc", s1, &[]);
        let t2 = b.launch("acc", s2);
        b.await_token("acc", t2);
        b.ret(vec![]);
        let trace = interpret(&m, "f", &[], 1000).unwrap();
        assert_eq!(trace.launches[1].get("x"), Some(5));
    }

    /// One launch of "acc" after a setup writing `fields` in that order
    /// (which is the order the module interns their names in).
    fn one_launch(fields: &[(&str, i64)]) -> Module {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let values: Vec<_> = fields
            .iter()
            .map(|&(name, v)| (name, b.const_index(v)))
            .collect();
        let s = b.setup("acc", &values);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        m
    }

    #[test]
    fn records_compare_by_field_name_across_modules() {
        let launches = |m: &Module| interpret(m, "f", &[], 1000).unwrap().launches;
        let xy = one_launch(&[("x", 1), ("y", 2)]);
        // the same file, names interned in the other order: compared by
        // symbol number these two differ
        let yx = one_launch(&[("y", 2), ("x", 1)]);
        assert_ne!(xy.symbol("x"), yx.symbol("x"));
        assert_eq!(launches(&xy), launches(&yx));
        assert_eq!(launches(&yx), launches(&xy));
        // another file whose symbols happen to hold what `xy`'s hold:
        // compared by symbol number these two are equal
        let swapped = one_launch(&[("y", 1), ("x", 2)]);
        assert_ne!(launches(&xy), launches(&swapped));
        // one value, one field more, one field fewer, another name
        assert_ne!(launches(&xy), launches(&one_launch(&[("y", 3), ("x", 1)])));
        assert_ne!(
            launches(&xy),
            launches(&one_launch(&[("y", 2), ("x", 1), ("z", 0)]))
        );
        assert_ne!(launches(&xy), launches(&one_launch(&[("x", 1)])));
        assert_ne!(launches(&xy), launches(&one_launch(&[("x", 1), ("w", 2)])));

        // a module that went on to intern names the trace never sees (here
        // the way a builder does; a clone shares its source's table until
        // then, and forks it — both sides of the fork still compare)
        let mut grown = xy.clone();
        assert!(launches(&xy)[0]
            .names
            .same_table(&launches(&grown)[0].names));
        grown.intern("scratch");
        let grown_launches = launches(&grown);
        assert!(!launches(&xy)[0].names.same_table(&grown_launches[0].names));
        assert_eq!(launches(&xy), grown_launches);
        assert_eq!(grown_launches, launches(&yx));
        assert_eq!(grown_launches[0].accelerator(), "acc");
        assert_eq!(
            grown_launches[0].fields().collect::<Vec<_>>(),
            [
                (grown.symbol("x").unwrap(), "x", 1),
                (grown.symbol("y").unwrap(), "y", 2)
            ]
        );
    }

    #[test]
    fn fuel_bounds_execution() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let lb = b.const_index(0);
        let ub = b.const_index(1_000_000);
        let one = b.const_index(1);
        b.build_for(lb, ub, one, vec![], |b, iv, _| {
            b.addi(iv, iv);
            vec![]
        });
        b.ret(vec![]);
        assert_eq!(interpret(&m, "f", &[], 100), Err(InterpError::OutOfFuel));
    }

    #[test]
    fn missing_function_and_arg_mismatch() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        b.ret(vec![]);
        assert!(matches!(
            interpret(&m, "g", &[], 10),
            Err(InterpError::NoSuchFunc(_))
        ));
        assert!(matches!(
            interpret(&m, "f", &[], 10),
            Err(InterpError::ArgCount { .. })
        ));
    }
}
