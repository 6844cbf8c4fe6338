//! IR verification: structural SSA well-formedness plus per-op invariants.
//!
//! The accfg-specific "single live state" discipline (Section 5.1 of the
//! paper) is checked in the `accfg` crate; this verifier covers everything
//! an MLIR-style framework would check generically.

use crate::module::{BlockId, Module, OpId};
use crate::op::{CmpPredicate, Opcode};
use crate::types::Type;
use std::error::Error;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The offending operation.
    pub op: Option<OpId>,
    /// What invariant was violated.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            Some(op) => write!(f, "verification failed at {op}: {}", self.message),
            None => write!(f, "verification failed: {}", self.message),
        }
    }
}

impl Error for VerifyError {}

/// Verifies the whole module.
///
/// # Errors
///
/// Returns the first violated invariant: SSA visibility, terminator
/// placement, operand/result arity, or type mismatches.
pub fn verify(m: &Module) -> Result<(), VerifyError> {
    Verifier::default().verify(m)
}

/// A verifier that keeps its scope buffer from one module to the next, for
/// a caller that verifies again and again (the pass manager checks after
/// every pass that touched the module). Each run checks exactly what
/// [`verify`] checks.
#[derive(Debug, Default)]
pub struct Verifier {
    /// Which values are in scope at the op being checked, by value index:
    /// set where a value is defined, cleared where its block ends, so one
    /// map serves every function.
    visible: Vec<bool>,
}

impl Verifier {
    /// Verifies the whole module, as [`verify`] does.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn verify(&mut self, m: &Module) -> Result<(), VerifyError> {
        // a failed run returns with values still marked
        self.visible.clear();
        self.visible.resize(m.value_count(), false);
        verify_funcs(m, &mut self.visible)
    }
}

fn verify_funcs(m: &Module, visible: &mut [bool]) -> Result<(), VerifyError> {
    for &f in m.funcs() {
        if !m.is_alive(f) {
            return Err(VerifyError {
                op: Some(f),
                message: "registered function was erased".into(),
            });
        }
        if m.op(f).opcode != Opcode::Func {
            return Err(VerifyError {
                op: Some(f),
                message: "top-level op is not func.func".into(),
            });
        }
        let regions = &m.op(f).regions;
        if regions.len() != 1 {
            return Err(VerifyError {
                op: Some(f),
                message: "func.func must have exactly one region".into(),
            });
        }
        verify_region_block(m, f, 0, visible)?;
    }
    Ok(())
}

fn err(op: OpId, message: impl Into<String>) -> VerifyError {
    VerifyError {
        op: Some(op),
        message: message.into(),
    }
}

fn verify_region_block(
    m: &Module,
    owner: OpId,
    region_index: usize,
    visible: &mut [bool],
) -> Result<(), VerifyError> {
    let region = m.op(owner).regions[region_index];
    let blocks = &m.region(region).blocks;
    if blocks.len() != 1 {
        return Err(err(owner, "regions must contain exactly one block"));
    }
    let block = blocks[0];
    let args = &m.block(block).args;
    for &a in args {
        visible[a.index()] = true;
    }

    let ops = m.block_ops(block);
    if ops.is_empty() {
        return Err(err(owner, "block must end with a terminator"));
    }
    for (i, &op) in ops.iter().enumerate() {
        if !m.is_alive(op) {
            return Err(err(op, "dead op still attached to a block"));
        }
        let data = m.op(op);
        let is_last = i + 1 == ops.len();
        if data.opcode.is_terminator() && !is_last {
            return Err(err(op, "terminator in the middle of a block"));
        }
        if is_last && !data.opcode.is_terminator() {
            return Err(err(op, "block does not end with a terminator"));
        }
        for &operand in &data.operands {
            if visible.get(operand.index()) != Some(&true) {
                return Err(err(
                    op,
                    format!("operand {operand} is not visible at this point (use before def?)"),
                ));
            }
        }
        verify_op(m, op, block)?;
        for &r in &data.results {
            visible[r.index()] = true;
        }
        for ri in 0..data.regions.len() {
            verify_region_block(m, op, ri, visible)?;
        }
    }
    // values defined in this block (and its args) go out of scope
    for &a in args {
        visible[a.index()] = false;
    }
    for &op in ops {
        for &r in &m.op(op).results {
            visible[r.index()] = false;
        }
    }
    Ok(())
}

/// The accelerator name of an accfg op.
fn accelerator_of(m: &Module, op: OpId) -> Result<&str, VerifyError> {
    let opcode = m.op(op).opcode;
    m.op(op)
        .accelerator
        .map(|a| m.name(a))
        .ok_or_else(|| err(op, format!("{opcode} requires an accelerator")))
}

fn verify_op(m: &Module, op: OpId, block: BlockId) -> Result<(), VerifyError> {
    let data = m.op(op);
    let opcode = data.opcode;
    let (operands, results) = (data.operands.as_slice(), data.results.as_slice());
    let operand_ty = |i: usize| m.value_type(operands[i]);
    let result_ty = |i: usize| m.value_type(results[i]);

    if !opcode.has_regions() && !data.regions.is_empty() {
        return Err(err(op, format!("{opcode} must not have regions")));
    }

    if opcode.is_binary_arith() {
        if operands.len() != 2 || results.len() != 1 {
            return Err(err(op, format!("{opcode} must have 2 operands, 1 result")));
        }
        let (l, r, res) = (operand_ty(0), operand_ty(1), result_ty(0));
        if !l.is_integer_like() || !r.is_integer_like() || !res.is_integer_like() {
            return Err(err(op, format!("{opcode} operands must be integer-like")));
        }
        // `index` is 64-bit on the RV64 hosts modeled here, so mixing it
        // with i64 is allowed (this IR has no index_cast); differing widths
        // are still rejected
        if l.bit_width() != r.bit_width() || l.bit_width() != res.bit_width() {
            return Err(err(op, format!("{opcode} operand/result types must match")));
        }
        return Ok(());
    }

    match opcode {
        Opcode::Func => Err(err(op, "func.func cannot be nested")),
        Opcode::Return => {
            let parent = m.block_parent_op(block);
            match parent.map(|p| m.op(p).opcode) {
                Some(Opcode::Func) => Ok(()),
                _ => Err(err(op, "func.return must be directly inside func.func")),
            }
        }
        Opcode::Yield => {
            let parent = m
                .block_parent_op(block)
                .ok_or_else(|| err(op, "scf.yield outside any op"))?;
            match m.op(parent).opcode {
                Opcode::For | Opcode::If => {
                    let expected = &m.op(parent).results;
                    if operands.len() != expected.len() {
                        return Err(err(
                            op,
                            format!(
                                "scf.yield has {} operands but parent has {} results",
                                operands.len(),
                                expected.len()
                            ),
                        ));
                    }
                    for (i, &e) in expected.iter().enumerate() {
                        if operand_ty(i) != m.value_type(e) {
                            return Err(err(
                                op,
                                format!("scf.yield operand {i} type mismatch with parent result"),
                            ));
                        }
                    }
                    Ok(())
                }
                _ => Err(err(op, "scf.yield must be inside scf.for or scf.if")),
            }
        }
        Opcode::Call => {
            if m.str_attr(op, "callee").is_none() {
                return Err(err(op, "func.call requires a `callee` string attribute"));
            }
            Ok(())
        }
        Opcode::Constant => {
            if !operands.is_empty() || results.len() != 1 {
                return Err(err(op, "arith.constant must have 0 operands, 1 result"));
            }
            if m.int_attr(op, "value").is_none() {
                return Err(err(op, "arith.constant requires integer `value` attribute"));
            }
            if !result_ty(0).is_integer_like() {
                return Err(err(op, "arith.constant result must be integer-like"));
            }
            Ok(())
        }
        Opcode::AddI
        | Opcode::SubI
        | Opcode::MulI
        | Opcode::DivUI
        | Opcode::RemUI
        | Opcode::AndI
        | Opcode::OrI
        | Opcode::XOrI
        | Opcode::ShLI
        | Opcode::ShRUI => unreachable!("binary arith handled above"),
        Opcode::CmpI => {
            if operands.len() != 2 || results.len() != 1 {
                return Err(err(op, "arith.cmpi must have 2 operands, 1 result"));
            }
            if operand_ty(0) != operand_ty(1) {
                return Err(err(op, "arith.cmpi operand types must match"));
            }
            if result_ty(0) != &Type::I1 {
                return Err(err(op, "arith.cmpi result must be i1"));
            }
            let pred = m.str_attr(op, "predicate").unwrap_or("");
            if CmpPredicate::from_name(pred).is_none() {
                return Err(err(op, format!("invalid cmpi predicate `{pred}`")));
            }
            Ok(())
        }
        Opcode::Select => {
            if operands.len() != 3 || results.len() != 1 {
                return Err(err(op, "arith.select must have 3 operands, 1 result"));
            }
            if operand_ty(0) != &Type::I1 {
                return Err(err(op, "arith.select condition must be i1"));
            }
            if operand_ty(1) != operand_ty(2) || operand_ty(1) != result_ty(0) {
                return Err(err(op, "arith.select value types must match"));
            }
            Ok(())
        }
        Opcode::For => {
            if operands.len() < 3 {
                return Err(err(op, "scf.for needs lb, ub, step operands"));
            }
            for i in 0..3 {
                if operand_ty(i) != &Type::Index {
                    return Err(err(op, "scf.for bounds must be index-typed"));
                }
            }
            let inits = &operands[3..];
            if results.len() != inits.len() {
                return Err(err(op, "scf.for results must match iter_args count"));
            }
            let body = m.body_block(op, 0);
            let args = &m.block(body).args;
            if args.len() != 1 + inits.len() {
                return Err(err(op, "scf.for body args must be (iv, iter_args...)"));
            }
            if m.value_type(args[0]) != &Type::Index {
                return Err(err(op, "scf.for induction variable must be index"));
            }
            for (i, (&arg, &init)) in args[1..].iter().zip(inits.iter()).enumerate() {
                if m.value_type(arg) != m.value_type(init) {
                    return Err(err(op, format!("scf.for iter_arg {i} type mismatch")));
                }
                if m.value_type(arg) != result_ty(i) {
                    return Err(err(op, format!("scf.for result {i} type mismatch")));
                }
            }
            Ok(())
        }
        Opcode::If => {
            if operands.len() != 1 || operand_ty(0) != &Type::I1 {
                return Err(err(op, "scf.if takes a single i1 condition"));
            }
            if data.regions.len() != 2 {
                return Err(err(op, "scf.if must have then and else regions"));
            }
            Ok(())
        }
        Opcode::AccfgSetup => {
            let accel = accelerator_of(m, op)?;
            let is_state = |ty: &Type| matches!(ty, Type::State(a) if **a == *accel);
            if results.len() != 1 || !is_state(result_ty(0)) {
                return Err(err(
                    op,
                    "accfg.setup result must be the accelerator's state type",
                ));
            }
            let has_input = data.has_input_state;
            let field_count = data.fields.len();
            let expected = field_count + usize::from(has_input);
            if operands.len() != expected {
                return Err(err(
                    op,
                    format!(
                        "accfg.setup has {} operands but expected {expected} ({} fields{})",
                        operands.len(),
                        field_count,
                        if has_input { " + input state" } else { "" }
                    ),
                ));
            }
            if has_input && !is_state(operand_ty(0)) {
                return Err(err(op, "accfg.setup input state type mismatch"));
            }
            let start = usize::from(has_input);
            for &field in &operands[start..] {
                if !m.value_type(field).is_integer_like() {
                    return Err(err(op, "accfg.setup field values must be integer-like"));
                }
            }
            Ok(())
        }
        Opcode::AccfgLaunch => {
            let accel = accelerator_of(m, op)?;
            if operands.len() != 1 || !matches!(operand_ty(0), Type::State(a) if **a == *accel) {
                return Err(err(op, "accfg.launch must take the accelerator's state"));
            }
            if results.len() != 1 || !matches!(result_ty(0), Type::Token(a) if **a == *accel) {
                return Err(err(op, "accfg.launch must produce the accelerator's token"));
            }
            Ok(())
        }
        Opcode::AccfgAwait => {
            let accel = accelerator_of(m, op)?;
            if operands.len() != 1 || !matches!(operand_ty(0), Type::Token(a) if **a == *accel) {
                return Err(err(op, "accfg.await must take the accelerator's token"));
            }
            if !results.is_empty() {
                return Err(err(op, "accfg.await has no results"));
            }
            Ok(())
        }
        Opcode::CsrWrite => {
            if operands.len() != 1 || !results.is_empty() {
                return Err(err(op, "target.csr_write takes 1 operand, no results"));
            }
            if m.int_attr(op, "csr").is_none() {
                return Err(err(op, "target.csr_write requires `csr` attribute"));
            }
            Ok(())
        }
        Opcode::RoccCmd => {
            if operands.len() != 2 || !results.is_empty() {
                return Err(err(op, "target.rocc_cmd takes 2 operands, no results"));
            }
            if m.int_attr(op, "funct").is_none() {
                return Err(err(op, "target.rocc_cmd requires `funct` attribute"));
            }
            Ok(())
        }
        Opcode::TargetLaunch | Opcode::TargetAwait => {
            if !results.is_empty() {
                return Err(err(op, format!("{opcode} has no results")));
            }
            Ok(())
        }
        Opcode::Opaque => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::Module;

    #[test]
    fn valid_module_verifies() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let two = b.const_int(2, Type::I64);
        let x = b.muli(args[0], two);
        let s = b.setup("acc", &[("v", x)]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        verify(&m).unwrap();
    }

    #[test]
    fn missing_terminator_fails() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        b.const_int(1, Type::I64);
        let e = verify(&m).unwrap_err();
        assert!(e.message.contains("terminator"), "{e}");
    }

    #[test]
    fn type_mismatch_fails() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let a = b.const_int(1, Type::I64);
        let c = b.const_int(2, Type::I32);
        // manually build a bad addi: i64 + i32
        let bad = m.create_op(
            Opcode::AddI,
            vec![a, c],
            vec![Type::I64],
            Default::default(),
            vec![],
        );
        let func = m.func_by_name("f").unwrap();
        let block = m.body_block(func, 0);
        m.append_op(block, bad);
        let ret = m.create_op(Opcode::Return, vec![], vec![], Default::default(), vec![]);
        m.append_op(block, ret);
        let e = verify(&m).unwrap_err();
        assert!(e.message.contains("types must match"), "{e}");
    }

    #[test]
    fn use_before_def_fails() {
        let e = verify(&used_before_defined()).unwrap_err();
        assert!(e.message.contains("not visible"), "{e}");
    }

    /// `%1 = addi(%0, %0)` placed before `%0 = constant`.
    fn used_before_defined() -> Module {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let a = b.const_int(1, Type::I64);
        let add = b.addi(a, a);
        b.ret(vec![]);
        // move the add before its operand's definition
        let add_op = match m.value(add).def {
            crate::module::ValueDef::OpResult { op, .. } => op,
            _ => unreachable!(),
        };
        let const_op = match m.value(a).def {
            crate::module::ValueDef::OpResult { op, .. } => op,
            _ => unreachable!(),
        };
        m.move_op_before(add_op, const_op);
        m
    }

    #[test]
    fn a_reused_verifier_forgets_what_a_failed_run_left_in_scope() {
        // fails at its last op, with %0 still marked in scope
        let mut unterminated = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut unterminated, "f", vec![]);
        let a = b.const_int(1, Type::I64);
        b.addi(a, a);
        let mut verifier = Verifier::default();
        let e = verifier.verify(&unterminated).unwrap_err();
        assert!(e.message.contains("terminator"), "{e}");
        // the same ids, with %0 used before it is defined
        let e = verifier.verify(&used_before_defined()).unwrap_err();
        assert!(e.message.contains("not visible"), "{e}");
    }

    #[test]
    fn loop_body_values_do_not_escape() {
        let text = r#"
        func.func @f() {
          %lb = arith.constant() {value = 0} : index
          %ub = arith.constant() {value = 4} : index
          %st = arith.constant() {value = 1} : index
          scf.for %i = %lb to %ub step %st {
            %inner = arith.constant() {value = 7} : i64
            scf.yield()
          }
          func.return()
        }
        "#;
        let mut m = crate::parser::parse_module(text).unwrap();
        verify(&m).unwrap();
        // now make an op outside the loop use %inner — must fail
        let func = m.func_by_name("f").unwrap();
        let ops = m.walk_collect(func);
        let inner_const = ops
            .iter()
            .copied()
            .rfind(|&o| m.op(o).opcode == Opcode::Constant)
            .unwrap();
        let inner_val = m.op(inner_const).results[0];
        let bad = m.create_op(
            Opcode::AddI,
            vec![inner_val, inner_val],
            vec![Type::I64],
            Default::default(),
            vec![],
        );
        let block = m.body_block(func, 0);
        let ret = m.terminator(block);
        m.insert_op(block, m.op_position(ret).unwrap(), bad);
        let e = verify(&m).unwrap_err();
        assert!(e.message.contains("not visible"), "{e}");
    }

    #[test]
    fn setup_arity_checked() {
        let text = r#"
        func.func @f() {
          %x = arith.constant() {value = 1} : index
          %s = accfg.setup "a" to ("f1" = %x) : !accfg.state<"a">
          func.return()
        }
        "#;
        let mut m = crate::parser::parse_module(text).unwrap();
        verify(&m).unwrap();
        // corrupt: drop the operand but keep the field list
        let setup = m
            .walk_module()
            .into_iter()
            .find(|&o| m.op(o).opcode == Opcode::AccfgSetup)
            .unwrap();
        m.set_operands(setup, vec![]);
        let e = verify(&m).unwrap_err();
        assert!(e.message.contains("operands"), "{e}");
    }

    #[test]
    fn launch_wrong_accelerator_fails() {
        let text = r#"
        func.func @f() {
          %x = arith.constant() {value = 1} : index
          %s = accfg.setup "a" to ("f1" = %x) : !accfg.state<"a">
          %t = accfg.launch "b" with %s : !accfg.token<"b">
          accfg.await "b" %t
          func.return()
        }
        "#;
        let m = crate::parser::parse_module(text).unwrap();
        let e = verify(&m).unwrap_err();
        assert!(e.message.contains("state"), "{e}");
    }
}
