//! Textual IR printing, in an MLIR-flavoured syntax.
//!
//! accfg ops print in the paper's notation (Figure 6):
//!
//! ```text
//! %2 = accfg.setup "gemm" to ("x" = %0, "y" = %1) : !accfg.state<"gemm">
//! %3 = accfg.launch "gemm" with %2 : !accfg.token<"gemm">
//! accfg.await "gemm" %3
//! ```
//!
//! Everything else uses a uniform generic form that the companion
//! [`parser`](crate::parser) reads back, enabling round-trip tests.

use crate::module::{BlockId, Module, OpId, ValueId};
use crate::op::Opcode;
use crate::value_map::ValueMap;
use std::fmt::Write;

/// Prints a whole module.
pub fn print_module(m: &Module) -> String {
    let mut p = Printer::new(m);
    p.out.push_str("module {\n");
    p.indent = 1;
    for &f in m.funcs() {
        p.print_func(f);
    }
    p.out.push_str("}\n");
    p.out
}

/// Prints a single function.
pub fn print_func(m: &Module, func: OpId) -> String {
    let mut p = Printer::new(m);
    p.print_func(func);
    p.out
}

struct Printer<'m> {
    m: &'m Module,
    names: ValueMap<String>,
    next_name: usize,
    out: String,
    indent: usize,
}

impl<'m> Printer<'m> {
    fn new(m: &'m Module) -> Self {
        Self {
            m,
            names: ValueMap::with_capacity(m.value_count()),
            next_name: 0,
            out: String::new(),
            indent: 0,
        }
    }

    fn name(&mut self, v: ValueId) -> String {
        if let Some(n) = self.names.get(v) {
            return n.clone();
        }
        let n = format!("%{}", self.next_name);
        self.next_name += 1;
        self.names.insert(v, n.clone());
        n
    }

    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn print_func(&mut self, func: OpId) {
        let name = self
            .m
            .str_attr(func, "sym_name")
            .unwrap_or("<anonymous>")
            .to_string();
        self.pad();
        write!(self.out, "func.func @{name}(").unwrap();
        let body = self.m.body_block(func, 0);
        let args = self.m.block(body).args.clone();
        for (i, arg) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let n = self.name(*arg);
            let ty = self.m.value_type(*arg);
            write!(self.out, "{n}: {ty}").unwrap();
        }
        self.out.push_str(") {\n");
        self.indent += 1;
        self.print_block_ops(body);
        self.indent -= 1;
        self.pad();
        self.out.push_str("}\n");
    }

    fn print_block_ops(&mut self, block: BlockId) {
        let m = self.m;
        for &op in m.block_ops(block) {
            self.print_op(op);
        }
    }

    fn print_op(&mut self, op: OpId) {
        match self.m.op(op).opcode {
            Opcode::For => self.print_for(op),
            Opcode::If => self.print_if(op),
            Opcode::AccfgSetup => self.print_setup(op),
            Opcode::AccfgLaunch => self.print_launch(op),
            Opcode::AccfgAwait => self.print_await(op),
            _ => self.print_generic(op),
        }
    }

    fn print_results_prefix(&mut self, op: OpId) {
        let results = self.m.op(op).results.clone();
        if results.is_empty() {
            return;
        }
        let names: Vec<String> = results.iter().map(|&r| self.name(r)).collect();
        write!(self.out, "{} = ", names.join(", ")).unwrap();
    }

    fn print_attrs(&mut self, op: OpId) {
        let attrs = &self.m.op(op).attrs;
        if attrs.is_empty() {
            return;
        }
        self.out.push_str(" {");
        for (i, (k, v)) in attrs.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            write!(self.out, "{k} = {v}").unwrap();
        }
        self.out.push('}');
    }

    fn print_generic(&mut self, op: OpId) {
        self.pad();
        self.print_results_prefix(op);
        write!(self.out, "{}(", self.m.op(op).opcode.name()).unwrap();
        let operands = self.m.op(op).operands.clone();
        for (i, v) in operands.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let n = self.name(*v);
            self.out.push_str(&n);
        }
        self.out.push(')');
        self.print_attrs(op);
        let results = self.m.op(op).results.clone();
        if !results.is_empty() {
            let tys: Vec<String> = results
                .iter()
                .map(|&r| self.m.value_type(r).to_string())
                .collect();
            write!(self.out, " : {}", tys.join(", ")).unwrap();
        }
        self.out.push('\n');
    }

    /// The accelerator name of an accfg op (empty if it was never set —
    /// such an op does not verify, but still prints).
    fn accelerator(&self, op: OpId) -> &'m str {
        self.m.op(op).accelerator.map_or("", |a| self.m.name(a))
    }

    fn print_setup(&mut self, op: OpId) {
        self.pad();
        self.print_results_prefix(op);
        let accel = self.accelerator(op);
        write!(self.out, "accfg.setup \"{accel}\"").unwrap();
        let data = self.m.op(op);
        let mut field_operands = data.operands.as_slice();
        if data.has_input_state {
            let n = self.name(field_operands[0]);
            write!(self.out, " from {n}").unwrap();
            field_operands = &field_operands[1..];
        }
        self.out.push_str(" to (");
        for (i, (&field, &v)) in data.fields.iter().zip(field_operands).enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let n = self.name(v);
            write!(self.out, "\"{}\" = {n}", self.m.name(field)).unwrap();
        }
        self.out.push(')');
        self.print_attrs(op);
        let result = data.results[0];
        writeln!(self.out, " : {}", self.m.value_type(result)).unwrap();
    }

    fn print_launch(&mut self, op: OpId) {
        self.pad();
        self.print_results_prefix(op);
        let accel = self.accelerator(op);
        let state = self.name(self.m.op(op).operands[0]);
        write!(self.out, "accfg.launch \"{accel}\" with {state}").unwrap();
        self.print_attrs(op);
        let result = self.m.op(op).results[0];
        writeln!(self.out, " : {}", self.m.value_type(result)).unwrap();
    }

    fn print_await(&mut self, op: OpId) {
        self.pad();
        let accel = self.accelerator(op);
        let token = self.name(self.m.op(op).operands[0]);
        write!(self.out, "accfg.await \"{accel}\" {token}").unwrap();
        self.print_attrs(op);
        self.out.push('\n');
    }

    fn print_for(&mut self, op: OpId) {
        self.pad();
        self.print_results_prefix(op);
        let operands = self.m.op(op).operands.clone();
        let (lb, ub, step) = (operands[0], operands[1], operands[2]);
        let inits = &operands[3..];
        let body = self.m.body_block(op, 0);
        let args = self.m.block(body).args.clone();
        let iv = args[0];
        let iv_name = self.name(iv);
        let lb_name = self.name(lb);
        let ub_name = self.name(ub);
        let step_name = self.name(step);
        write!(
            self.out,
            "scf.for {iv_name} = {lb_name} to {ub_name} step {step_name}"
        )
        .unwrap();
        if !inits.is_empty() {
            self.out.push_str(" iter_args(");
            for (i, (&arg, &init)) in args[1..].iter().zip(inits.iter()).enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                let a = self.name(arg);
                let b = self.name(init);
                write!(self.out, "{a} = {b}").unwrap();
            }
            self.out.push(')');
            let tys: Vec<String> = self
                .m
                .op(op)
                .results
                .iter()
                .map(|&r| self.m.value_type(r).to_string())
                .collect();
            write!(self.out, " -> ({})", tys.join(", ")).unwrap();
        }
        self.print_attrs(op);
        self.out.push_str(" {\n");
        self.indent += 1;
        self.print_block_ops(body);
        self.indent -= 1;
        self.pad();
        self.out.push_str("}\n");
    }

    fn print_if(&mut self, op: OpId) {
        self.pad();
        self.print_results_prefix(op);
        let cond = self.name(self.m.op(op).operands[0]);
        write!(self.out, "scf.if {cond}").unwrap();
        let results = self.m.op(op).results.clone();
        if !results.is_empty() {
            let tys: Vec<String> = results
                .iter()
                .map(|&r| self.m.value_type(r).to_string())
                .collect();
            write!(self.out, " -> ({})", tys.join(", ")).unwrap();
        }
        self.print_attrs(op);
        self.out.push_str(" then {\n");
        self.indent += 1;
        let then_block = self.m.body_block(op, 0);
        self.print_block_ops(then_block);
        self.indent -= 1;
        self.pad();
        self.out.push_str("} else {\n");
        self.indent += 1;
        let else_block = self.m.body_block(op, 1);
        self.print_block_ops(else_block);
        self.indent -= 1;
        self.pad();
        self.out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::types::Type;

    #[test]
    fn prints_figure6_style_ir() {
        let mut m = Module::new();
        let (mut b, args) =
            FuncBuilder::new_func(&mut m, "matmul", vec![Type::I64, Type::I64, Type::I64]);
        let x = b.const_index(64);
        let state = b.setup(
            "gemm2d",
            &[("x", x), ("A", args[0]), ("B", args[1]), ("C", args[2])],
        );
        let token = b.launch("gemm2d", state);
        b.await_token("gemm2d", token);
        b.ret(vec![]);

        let text = print_module(&m);
        assert!(text.contains("func.func @matmul(%0: i64, %1: i64, %2: i64)"));
        assert!(text.contains("accfg.setup \"gemm2d\" to (\"x\" = %3, \"A\" = %0, \"B\" = %1, \"C\" = %2) : !accfg.state<\"gemm2d\">"));
        assert!(text.contains("accfg.launch \"gemm2d\" with %4 : !accfg.token<\"gemm2d\">"));
        assert!(text.contains("accfg.await \"gemm2d\" %5"));
    }

    #[test]
    fn prints_setup_from() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(1);
        let s0 = b.setup("acc", &[("a", x)]);
        let _s1 = b.setup_from("acc", s0, &[("b", x)]);
        b.ret(vec![]);
        let text = print_module(&m);
        assert!(text.contains("accfg.setup \"acc\" from %1 to (\"b\" = %0)"));
    }

    #[test]
    fn prints_for_loop() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let lb = b.const_index(0);
        let ub = b.const_index(8);
        let step = b.const_index(1);
        let init = b.const_int(0, Type::I64);
        b.build_for(lb, ub, step, vec![init], |b, _iv, iters| {
            let one = b.const_int(1, Type::I64);
            vec![b.addi(iters[0], one)]
        });
        b.ret(vec![]);
        let text = print_module(&m);
        assert!(text.contains("scf.for"), "{text}");
        assert!(text.contains("iter_args("), "{text}");
        assert!(text.contains("-> (i64)"), "{text}");
        assert!(text.contains("scf.yield("), "{text}");
    }

    #[test]
    fn prints_if() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I1]);
        b.build_if(
            args[0],
            |b| vec![b.const_int(1, Type::I64)],
            |b| vec![b.const_int(2, Type::I64)],
        );
        b.ret(vec![]);
        let text = print_module(&m);
        assert!(text.contains("scf.if %0 -> (i64) then {"), "{text}");
        assert!(text.contains("} else {"), "{text}");
    }

    #[test]
    fn generic_ops_include_attrs_and_types() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let c = b.const_int(42, Type::I32);
        b.csr_write(7, c);
        b.ret(vec![]);
        let text = print_module(&m);
        assert!(
            text.contains("arith.constant() {value = 42} : i32"),
            "{text}"
        );
        assert!(text.contains("target.csr_write(%0) {csr = 7}"), "{text}");
    }
}
