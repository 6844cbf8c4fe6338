//! Ergonomic IR construction.
//!
//! [`FuncBuilder`] appends operations to an insertion block and provides
//! closure-based helpers for structured control flow, so building the IR of
//! Figure 6/9 of the paper reads close to its textual form.

use crate::attrs::{AttrMap, Attribute, Effects};
use crate::module::{BlockId, Module, OpId, ValueId};
use crate::op::{CmpPredicate, Opcode};
use crate::symbol::Symbol;
use crate::types::Type;
use crate::value_list::ValueList;

/// Builds a function body by appending ops at an insertion point.
///
/// # Examples
///
/// ```
/// use accfg_ir::{Module, FuncBuilder, Type};
///
/// let mut m = Module::new();
/// let (mut b, args) = FuncBuilder::new_func(&mut m, "axpy", vec![Type::I64, Type::I64]);
/// let sum = b.addi(args[0], args[1]);
/// b.ret(vec![]);
/// let _ = sum;
/// assert!(m.func_by_name("axpy").is_some());
/// ```
pub struct FuncBuilder<'m> {
    module: &'m mut Module,
    func: OpId,
    block: BlockId,
}

impl<'m> FuncBuilder<'m> {
    /// Creates a function named `name` with the given argument types and
    /// returns a builder positioned at the start of its (empty) body.
    pub fn new_func(
        module: &'m mut Module,
        name: impl Into<String>,
        arg_types: Vec<Type>,
    ) -> (Self, Vec<ValueId>) {
        let region = module.create_region();
        let block = module.create_block(region);
        let args: Vec<ValueId> = arg_types
            .into_iter()
            .map(|ty| module.add_block_arg(block, ty))
            .collect();
        let func = module.create_op(Opcode::Func, vec![], vec![], AttrMap::new(), vec![region]);
        module.set_attr(func, "sym_name", Attribute::Str(name.into()));
        module.add_func(func);
        (
            Self {
                module,
                func,
                block,
            },
            args,
        )
    }

    /// The function op being built.
    pub fn func(&self) -> OpId {
        self.func
    }

    /// The current insertion block.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// The underlying module.
    pub fn module(&mut self) -> &mut Module {
        self.module
    }

    fn push(
        &mut self,
        opcode: Opcode,
        operands: impl Into<ValueList>,
        result_types: impl IntoIterator<Item = Type>,
        attrs: AttrMap,
        regions: Vec<crate::module::RegionId>,
    ) -> OpId {
        let op = self
            .module
            .create_op(opcode, operands, result_types, attrs, regions);
        self.module.append_op(self.block, op);
        op
    }

    fn one_result(&self, op: OpId) -> ValueId {
        self.module.op(op).results[0]
    }

    // --- arith ---------------------------------------------------------------

    /// `arith.constant` of the given integer type.
    pub fn const_int(&mut self, value: i64, ty: Type) -> ValueId {
        let mut attrs = AttrMap::new();
        attrs.insert("value".into(), Attribute::Int(value));
        let op = self.push(Opcode::Constant, vec![], [ty], attrs, vec![]);
        self.one_result(op)
    }

    /// `arith.constant` of `index` type.
    pub fn const_index(&mut self, value: i64) -> ValueId {
        self.const_int(value, Type::Index)
    }

    /// A binary arithmetic op; the result type matches the left operand.
    pub fn binary(&mut self, opcode: Opcode, lhs: ValueId, rhs: ValueId) -> ValueId {
        debug_assert!(opcode.is_binary_arith(), "{opcode} is not binary arith");
        let ty = self.module.value_type(lhs).clone();
        let op = self.push(opcode, [lhs, rhs], [ty], AttrMap::new(), vec![]);
        self.one_result(op)
    }

    /// `arith.addi`.
    pub fn addi(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::AddI, l, r)
    }

    /// `arith.subi`.
    pub fn subi(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::SubI, l, r)
    }

    /// `arith.muli`.
    pub fn muli(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::MulI, l, r)
    }

    /// `arith.divui`.
    pub fn divui(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::DivUI, l, r)
    }

    /// `arith.remui`.
    pub fn remui(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::RemUI, l, r)
    }

    /// `arith.andi`.
    pub fn andi(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::AndI, l, r)
    }

    /// `arith.ori`.
    pub fn ori(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::OrI, l, r)
    }

    /// `arith.xori`.
    pub fn xori(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::XOrI, l, r)
    }

    /// `arith.shli`.
    pub fn shli(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::ShLI, l, r)
    }

    /// `arith.shrui`.
    pub fn shrui(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::ShRUI, l, r)
    }

    /// `arith.cmpi` with the given predicate; result is `i1`.
    pub fn cmpi(&mut self, pred: CmpPredicate, lhs: ValueId, rhs: ValueId) -> ValueId {
        let mut attrs = AttrMap::new();
        attrs.insert("predicate".into(), Attribute::Str(pred.name().into()));
        let op = self.push(Opcode::CmpI, [lhs, rhs], [Type::I1], attrs, vec![]);
        self.one_result(op)
    }

    /// `arith.select`.
    pub fn select(&mut self, cond: ValueId, t: ValueId, f: ValueId) -> ValueId {
        let ty = self.module.value_type(t).clone();
        let op = self.push(Opcode::Select, [cond, t, f], [ty], AttrMap::new(), vec![]);
        self.one_result(op)
    }

    // --- accfg -----------------------------------------------------------------

    /// `accfg.setup` without an input state (the first setup in a program).
    pub fn setup(&mut self, accelerator: &str, fields: &[(&str, ValueId)]) -> ValueId {
        self.setup_impl(accelerator, None, fields)
    }

    /// `accfg.setup from %state` — a delta setup relative to a prior state.
    pub fn setup_from(
        &mut self,
        accelerator: &str,
        input_state: ValueId,
        fields: &[(&str, ValueId)],
    ) -> ValueId {
        self.setup_impl(accelerator, Some(input_state), fields)
    }

    fn setup_impl(
        &mut self,
        accelerator: &str,
        input_state: Option<ValueId>,
        fields: &[(&str, ValueId)],
    ) -> ValueId {
        let accel = self.module.intern_accelerator(accelerator);
        let names = fields.iter().map(|(n, _)| self.module.intern(n)).collect();
        let operands: ValueList = input_state
            .into_iter()
            .chain(fields.iter().map(|(_, v)| *v))
            .collect();
        let state = self.module.state_type(accel);
        let op = self.accfg_op(Opcode::AccfgSetup, accel, operands, Some(state));
        self.module.set_setup_fields(op, names);
        self.module.set_has_input_state(op, input_state.is_some());
        self.one_result(op)
    }

    /// Pushes an accfg op addressing `accel`.
    fn accfg_op(
        &mut self,
        opcode: Opcode,
        accel: Symbol,
        operands: impl Into<ValueList>,
        result_type: Option<Type>,
    ) -> OpId {
        let op = self.push(opcode, operands, result_type, AttrMap::new(), vec![]);
        self.module.set_accelerator(op, accel);
        op
    }

    /// `accfg.launch`, producing a token.
    pub fn launch(&mut self, accelerator: &str, state: ValueId) -> ValueId {
        let accel = self.module.intern_accelerator(accelerator);
        let token = self.module.token_type(accel);
        let op = self.accfg_op(Opcode::AccfgLaunch, accel, [state], Some(token));
        self.one_result(op)
    }

    /// `accfg.await` on a token.
    pub fn await_token(&mut self, accelerator: &str, token: ValueId) -> OpId {
        let accel = self.module.intern_accelerator(accelerator);
        self.accfg_op(Opcode::AccfgAwait, accel, [token], None)
    }

    // --- target ------------------------------------------------------------------

    /// `target.csr_write` to config register `csr`.
    pub fn csr_write(&mut self, csr: i64, value: ValueId) -> OpId {
        let mut attrs = AttrMap::new();
        attrs.insert("csr".into(), Attribute::Int(csr));
        self.push(Opcode::CsrWrite, [value], [], attrs, vec![])
    }

    /// `target.rocc_cmd` with the given funct and two payload registers.
    pub fn rocc_cmd(&mut self, funct: i64, rs1: ValueId, rs2: ValueId) -> OpId {
        let mut attrs = AttrMap::new();
        attrs.insert("funct".into(), Attribute::Int(funct));
        self.push(Opcode::RoccCmd, [rs1, rs2], [], attrs, vec![])
    }

    // --- foreign / structured -----------------------------------------------------

    /// `func.call` to an external symbol.
    pub fn call(
        &mut self,
        callee: &str,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
    ) -> Vec<ValueId> {
        let mut attrs = AttrMap::new();
        attrs.insert("callee".into(), Attribute::Str(callee.into()));
        let op = self.push(Opcode::Call, operands, result_types, attrs, vec![]);
        self.module.op(op).results.to_vec()
    }

    /// An opaque foreign op with optional accfg effects annotation.
    pub fn opaque(
        &mut self,
        name: &str,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        effects: Option<Effects>,
    ) -> Vec<ValueId> {
        let mut attrs = AttrMap::new();
        attrs.insert("name".into(), Attribute::Str(name.into()));
        if let Some(e) = effects {
            attrs.insert("effects".into(), Attribute::Effects(e));
        }
        let op = self.push(Opcode::Opaque, operands, result_types, attrs, vec![]);
        self.module.op(op).results.to_vec()
    }

    /// `func.return`.
    pub fn ret(&mut self, values: Vec<ValueId>) -> OpId {
        self.push(Opcode::Return, values, vec![], AttrMap::new(), vec![])
    }

    /// Builds an `scf.for` loop.
    ///
    /// The closure receives the builder (repositioned inside the body), the
    /// induction variable, and the iteration arguments; it must return the
    /// values yielded to the next iteration (one per init value). The loop's
    /// results (final iteration values) are returned.
    pub fn build_for(
        &mut self,
        lb: ValueId,
        ub: ValueId,
        step: ValueId,
        inits: Vec<ValueId>,
        body: impl FnOnce(&mut Self, ValueId, &[ValueId]) -> Vec<ValueId>,
    ) -> Vec<ValueId> {
        let region = self.module.create_region();
        let body_block = self.module.create_block(region);
        let iv = self.module.add_block_arg(body_block, Type::Index);
        let iter_args: Vec<ValueId> = inits
            .iter()
            .map(|&v| {
                let ty = self.module.value_type(v).clone();
                self.module.add_block_arg(body_block, ty)
            })
            .collect();

        let saved = self.block;
        self.block = body_block;
        let yields = body(self, iv, &iter_args);
        assert_eq!(
            yields.len(),
            inits.len(),
            "scf.for body must yield one value per init"
        );
        self.push(Opcode::Yield, yields, vec![], AttrMap::new(), vec![]);
        self.block = saved;

        let result_types: Vec<Type> = inits
            .iter()
            .map(|&v| self.module.value_type(v).clone())
            .collect();
        let mut operands = ValueList::from([lb, ub, step]);
        operands.extend(inits);
        let op = self.push(
            Opcode::For,
            operands,
            result_types,
            AttrMap::new(),
            vec![region],
        );
        self.module.op(op).results.to_vec()
    }

    /// Builds an `scf.if` with both branches; each closure returns its yields
    /// (types must match across branches).
    pub fn build_if(
        &mut self,
        cond: ValueId,
        then_body: impl FnOnce(&mut Self) -> Vec<ValueId>,
        else_body: impl FnOnce(&mut Self) -> Vec<ValueId>,
    ) -> Vec<ValueId> {
        let then_region = self.module.create_region();
        let then_block = self.module.create_block(then_region);
        let else_region = self.module.create_region();
        let else_block = self.module.create_block(else_region);

        let saved = self.block;
        self.block = then_block;
        let then_yields = then_body(self);
        let result_types: Vec<Type> = then_yields
            .iter()
            .map(|&v| self.module.value_type(v).clone())
            .collect();
        self.push(Opcode::Yield, then_yields, vec![], AttrMap::new(), vec![]);

        self.block = else_block;
        let else_yields = else_body(self);
        assert_eq!(
            else_yields.len(),
            result_types.len(),
            "scf.if branches must yield the same number of values"
        );
        self.push(Opcode::Yield, else_yields, vec![], AttrMap::new(), vec![]);
        self.block = saved;

        let op = self.push(
            Opcode::If,
            [cond],
            result_types,
            AttrMap::new(),
            vec![then_region, else_region],
        );
        self.module.op(op).results.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_arith_chain() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let two = b.const_int(2, Type::I64);
        let doubled = b.muli(args[0], two);
        let shifted = b.shli(doubled, two);
        b.ret(vec![]);
        assert_eq!(m.value_type(shifted), &Type::I64);
        assert_eq!(m.walk_module().len(), 5);
    }

    #[test]
    fn builds_setup_launch_await_cluster() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(64);
        let state = b.setup("gemm", &[("x", x), ("y", x)]);
        let token = b.launch("gemm", state);
        b.await_token("gemm", token);
        b.ret(vec![]);

        assert_eq!(m.value_type(state), &Type::state("gemm"));
        assert_eq!(m.value_type(token), &Type::token("gemm"));
        let setup_op = match m.value(state).def {
            crate::module::ValueDef::OpResult { op, .. } => op,
            _ => panic!(),
        };
        let fields = &m.op(setup_op).fields;
        assert_eq!(fields.len(), 2);
        assert!(!m.op(setup_op).has_input_state);
    }

    #[test]
    fn setup_from_threads_state() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(1);
        let s0 = b.setup("acc", &[("a", x)]);
        let s1 = b.setup_from("acc", s0, &[("b", x)]);
        b.ret(vec![]);
        let setup1 = match m.value(s1).def {
            crate::module::ValueDef::OpResult { op, .. } => op,
            _ => panic!(),
        };
        assert_eq!(m.op(setup1).operands[0], s0);
        assert!(m.op(setup1).has_input_state);
    }

    #[test]
    fn builds_for_loop_with_iter_args() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let lb = b.const_index(0);
        let ub = b.const_index(10);
        let step = b.const_index(1);
        let init = b.const_int(0, Type::I64);
        let results = b.build_for(lb, ub, step, vec![init], |b, _iv, iters| {
            let one = b.const_int(1, Type::I64);
            let next = b.addi(iters[0], one);
            vec![next]
        });
        b.ret(vec![]);
        assert_eq!(results.len(), 1);
        assert_eq!(m.value_type(results[0]), &Type::I64);
    }

    #[test]
    fn builds_if_with_results() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I1]);
        let results = b.build_if(
            args[0],
            |b| vec![b.const_int(1, Type::I64)],
            |b| vec![b.const_int(2, Type::I64)],
        );
        b.ret(vec![]);
        assert_eq!(results.len(), 1);
        assert_eq!(m.value_type(results[0]), &Type::I64);
    }

    #[test]
    fn opaque_with_effects() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let rs = b.opaque("printf", vec![], vec![], Some(Effects::None));
        b.ret(vec![]);
        assert!(rs.is_empty());
    }
}
