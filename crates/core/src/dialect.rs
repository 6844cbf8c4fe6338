//! Typed views and mutators for `accfg` dialect operations.
//!
//! The ops themselves are defined in `accfg-ir` (so the printer/parser and
//! verifier know them); this module adds the accessors the optimization
//! passes need: reading a setup's field list, rewiring input states,
//! removing deduplicated fields, and classifying which ops preserve
//! accelerator configuration state (Section 5.1's effects model).

use accfg_ir::{Attribute, Effects, Module, OpId, Opcode, Symbol, ValueId};

/// The accelerator an accfg op addresses, as a symbol of its module
/// (`m.name(..)` is the string).
///
/// # Panics
/// Panics if the op names none (such ops do not pass the verifier).
pub fn accelerator(m: &Module, op: OpId) -> Symbol {
    m.op(op)
        .accelerator
        .expect("accfg op names its accelerator")
}

/// The `(name, value)` field pairs of an `accfg.setup`: a view borrowed
/// from the module.
#[derive(Debug, Clone, Copy)]
pub struct SetupFields<'m> {
    m: &'m Module,
    names: &'m [Symbol],
    values: &'m [ValueId],
}

impl<'m> SetupFields<'m> {
    /// Number of fields the setup writes.
    pub fn len(&self) -> usize {
        self.names.len().min(self.values.len())
    }

    /// `true` for a setup that writes nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pairs, in the setup's order, names as the module's symbols.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, ValueId)> + 'm {
        self.names.iter().copied().zip(self.values.iter().copied())
    }

    /// The pairs, in the setup's order, names spelled out.
    pub fn named(&self) -> impl Iterator<Item = (&'m str, ValueId)> + 'm {
        let m = self.m;
        self.iter().map(move |(name, value)| (m.name(name), value))
    }

    /// The values written, in the setup's order.
    pub fn values(&self) -> &'m [ValueId] {
        &self.values[..self.len()]
    }
}

/// The `(name, value)` field pairs of an `accfg.setup`.
pub fn setup_fields(m: &Module, setup: OpId) -> SetupFields<'_> {
    let data = m.op(setup);
    debug_assert_eq!(data.opcode, Opcode::AccfgSetup);
    SetupFields {
        m,
        names: &data.fields,
        values: &data.operands[usize::from(data.has_input_state)..],
    }
}

/// The input state operand of an `accfg.setup`, if it has one.
pub fn setup_input_state(m: &Module, setup: OpId) -> Option<ValueId> {
    let data = m.op(setup);
    debug_assert_eq!(data.opcode, Opcode::AccfgSetup);
    data.has_input_state.then(|| data.operands[0])
}

/// The state produced by an `accfg.setup`.
pub fn setup_state(m: &Module, setup: OpId) -> ValueId {
    debug_assert_eq!(m.op(setup).opcode, Opcode::AccfgSetup);
    m.op(setup).results[0]
}

/// `[input state?, field values...]`: the operand list of a setup.
fn setup_operands(input: Option<ValueId>, values: impl Iterator<Item = ValueId>) -> Vec<ValueId> {
    let mut operands = Vec::with_capacity(values.size_hint().0 + 1);
    operands.extend(input);
    operands.extend(values);
    operands
}

/// Sets or clears the input state of a setup, keeping fields unchanged.
pub fn setup_set_input_state(m: &mut Module, setup: OpId, input: Option<ValueId>) {
    let values = setup_fields(m, setup).values().iter().copied();
    let operands = setup_operands(input, values);
    m.set_operands(setup, operands);
    m.set_has_input_state(setup, input.is_some());
}

/// Replaces the full field list of a setup (keeping its input state).
pub fn setup_set_fields(m: &mut Module, setup: OpId, fields: &[(Symbol, ValueId)]) {
    let input = setup_input_state(m, setup);
    m.set_operands(setup, setup_operands(input, fields.iter().map(|f| f.1)));
    m.set_setup_fields(setup, fields.iter().map(|f| f.0).collect());
}

/// Creates a detached `accfg.setup` op.
pub fn make_setup(
    m: &mut Module,
    accelerator: Symbol,
    input: Option<ValueId>,
    fields: &[(Symbol, ValueId)],
) -> OpId {
    let op = m.create_op(
        Opcode::AccfgSetup,
        setup_operands(input, fields.iter().map(|f| f.1)),
        [m.state_type(accelerator)],
        Default::default(),
        vec![],
    );
    m.set_accelerator(op, accelerator);
    m.set_setup_fields(op, fields.iter().map(|f| f.0).collect());
    m.set_has_input_state(op, input.is_some());
    op
}

/// How an op interacts with accelerator configuration state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateEffect {
    /// Cannot touch accelerator state (pure ops, annotated foreign ops).
    Preserves,
    /// Part of the accfg dialect: modeled precisely by the passes.
    Accfg,
    /// Structured control flow: effect determined by region contents.
    Structural,
    /// May clobber any accelerator state (unannotated calls, opaque ops,
    /// raw target-level config writes).
    Clobbers,
}

/// Classifies `op` per the paper's effects model: pure ops and
/// `#accfg.effects<none>`-annotated ops preserve state; unannotated foreign
/// ops (and anything marked `#accfg.effects<all>`) clobber it.
pub fn state_effect(m: &Module, op: OpId) -> StateEffect {
    // an explicit annotation wins, either way
    if let Some(e) = m.attr(op, "effects").and_then(Attribute::as_effects) {
        return match e {
            Effects::None => StateEffect::Preserves,
            Effects::All => StateEffect::Clobbers,
        };
    }
    let opcode = m.op(op).opcode;
    if opcode.is_pure() {
        return StateEffect::Preserves;
    }
    match opcode {
        Opcode::AccfgSetup | Opcode::AccfgLaunch | Opcode::AccfgAwait => StateEffect::Accfg,
        Opcode::For | Opcode::If => StateEffect::Structural,
        Opcode::Yield | Opcode::Return | Opcode::Func => StateEffect::Preserves,
        _ => StateEffect::Clobbers,
    }
}

/// `true` if any op nested under `root` (inclusive) may clobber the state of
/// `accel` — i.e. a [`StateEffect::Clobbers`] op, or a setup for the same
/// accelerator that the caller is not already tracking.
pub fn subtree_has_clobber(m: &Module, root: OpId) -> bool {
    let mut found = false;
    m.walk(root, &mut |op| {
        if state_effect(m, op) == StateEffect::Clobbers {
            found = true;
        }
    });
    found
}

/// All `accfg.setup` ops for `accel` nested under `root` (inclusive).
pub fn setups_for(m: &Module, root: OpId, accel: Symbol) -> Vec<OpId> {
    let mut setups = Vec::new();
    m.walk(root, &mut |o| {
        let data = m.op(o);
        if data.opcode == Opcode::AccfgSetup && data.accelerator == Some(accel) {
            setups.push(o);
        }
    });
    setups
}

/// The accelerators addressed by the accfg ops under `root` that `keep`
/// accepts, each once, ordered by name (so nothing downstream depends on
/// the order names were interned in).
pub(crate) fn accelerators_where(
    m: &Module,
    root: OpId,
    keep: impl Fn(Opcode) -> bool,
) -> Vec<Symbol> {
    let mut accels: Vec<Symbol> = Vec::new();
    m.walk(root, &mut |o| {
        let data = m.op(o);
        if let (true, Some(accel)) = (keep(data.opcode), data.accelerator) {
            if !accels.contains(&accel) {
                accels.push(accel);
            }
        }
    });
    accels.sort_unstable_by_key(|&a| m.name(a));
    accels
}

/// The accelerators referenced by any accfg op under `root`, by name.
pub fn accelerators_used(m: &Module, root: OpId) -> Vec<Symbol> {
    accelerators_where(m, root, Opcode::is_accfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accfg_ir::FuncBuilder;

    fn setup_module() -> (Module, OpId) {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let x = b.const_index(4);
        let y = b.const_index(8);
        let s = b.setup("gemm", &[("x", x), ("y", y)]);
        let t = b.launch("gemm", s);
        b.await_token("gemm", t);
        b.ret(vec![]);
        let func = m.func_by_name("f").unwrap();
        let setup = setups_for(&m, func, m.symbol("gemm").unwrap())[0];
        (m, setup)
    }

    #[test]
    fn reads_fields() {
        let (m, setup) = setup_module();
        let fields: Vec<_> = setup_fields(&m, setup).iter().collect();
        assert_eq!(fields.len(), 2);
        assert_eq!(m.name(fields[0].0), "x");
        assert_eq!(m.name(fields[1].0), "y");
        assert_eq!(setup_input_state(&m, setup), None);
    }

    #[test]
    fn rewires_input_state() {
        let (mut m, setup) = setup_module();
        let state = setup_state(&m, setup);
        // nonsensical self-input, but exercises the plumbing
        setup_set_input_state(&mut m, setup, Some(state));
        assert_eq!(setup_input_state(&m, setup), Some(state));
        assert_eq!(setup_fields(&m, setup).len(), 2);
        setup_set_input_state(&mut m, setup, None);
        assert_eq!(setup_input_state(&m, setup), None);
        assert_eq!(setup_fields(&m, setup).len(), 2);
    }

    #[test]
    fn replaces_field_list() {
        let (mut m, setup) = setup_module();
        let fields: Vec<_> = setup_fields(&m, setup).iter().collect();
        setup_set_fields(&mut m, setup, &fields[..1]);
        assert_eq!(setup_fields(&m, setup).len(), 1);
        assert_eq!(
            m.name(setup_fields(&m, setup).iter().next().unwrap().0),
            "x"
        );
    }

    #[test]
    fn effects_classification() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let c = b.const_index(1);
        let s = b.setup("a", &[("x", c)]);
        let t = b.launch("a", s);
        b.await_token("a", t);
        b.opaque("printf", vec![], vec![], Some(Effects::None));
        b.opaque("mystery", vec![], vec![], None);
        b.call("ext", vec![], vec![]);
        b.ret(vec![]);
        let func = m.func_by_name("f").unwrap();
        let ops = m.walk_collect(func);
        let effects: Vec<StateEffect> = ops.iter().map(|&o| state_effect(&m, o)).collect();
        assert_eq!(effects[1], StateEffect::Preserves); // constant
        assert_eq!(effects[2], StateEffect::Accfg); // setup
        assert_eq!(effects[3], StateEffect::Accfg); // launch
        assert_eq!(effects[4], StateEffect::Accfg); // await
        assert_eq!(effects[5], StateEffect::Preserves); // printf w/ effects<none>
        assert_eq!(effects[6], StateEffect::Clobbers); // mystery
        assert_eq!(effects[7], StateEffect::Clobbers); // unannotated call
    }

    #[test]
    fn clobber_detection_in_subtrees() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let zero = b.const_index(0);
        let four = b.const_index(4);
        let one = b.const_index(1);
        b.build_for(zero, four, one, vec![], |b, _, _| {
            b.call("ext", vec![], vec![]);
            vec![]
        });
        b.ret(vec![]);
        let func = m.func_by_name("f").unwrap();
        assert!(subtree_has_clobber(&m, func));
    }

    #[test]
    fn accelerator_inventory() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let c = b.const_index(1);
        let s1 = b.setup("beta", &[("x", c)]);
        let t1 = b.launch("beta", s1);
        b.await_token("beta", t1);
        let s2 = b.setup("alpha", &[("x", c)]);
        let t2 = b.launch("alpha", s2);
        b.await_token("alpha", t2);
        b.ret(vec![]);
        let func = m.func_by_name("f").unwrap();
        let used: Vec<&str> = accelerators_used(&m, func)
            .into_iter()
            .map(|a| m.name(a))
            .collect();
        assert_eq!(used, vec!["alpha", "beta"]);
    }
}
