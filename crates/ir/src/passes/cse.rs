//! Common-subexpression elimination.

use crate::module::{BlockId, Module, OpId};
use crate::pass::{Changed, Pass};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Scoped value-numbering CSE over pure operations.
///
/// The paper's deduplication (Section 5.4) relies on *SSA-value equality* as
/// a proxy for runtime-value equality; CSE is what makes that proxy potent,
/// by merging structurally identical pure expressions (e.g. two identical
/// address computations in consecutive tile setups) into a single SSA value.
///
/// Scoping follows the region tree: an op inside a loop can reuse a value
/// computed outside it, but values computed inside a region never leak out.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cse;

/// The expressions available at the op being visited: one table for the
/// whole region tree, keyed by the hash of an op's structure, plus the keys
/// in insertion order so that leaving a region can retract what it added.
/// A key maps to the op that first computed the expression; nothing is
/// copied out of the module.
struct Available {
    by_hash: HashMap<u64, OpId, BuildHasherDefault<StructureHasher>>,
    inserted: Vec<u64>,
    /// The ops of the blocks being visited, outermost first: each block
    /// copies its ops onto the end and takes them off when it is done, so
    /// a block may restructure itself while its ops are visited.
    ops: Vec<OpId>,
}

/// The multiply-rotate word hash of rustc's `FxHasher`: one multiply a word
/// where std's keyed SipHash spends dozens of instructions.
///
/// It is not keyed, so IR text can be written to make two expressions
/// collide. That is safe here: every hit is confirmed by
/// [`same_expression`] before anything is shared, and a collision only
/// keeps the later expression out of the table.
#[derive(Default)]
struct StructureHasher(u64);

impl StructureHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for StructureHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The product's high bits are its best mixed; the table indexes by
    /// the low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, m: &mut Module) -> Changed {
        let mut changed = Changed::No;
        // every expression the table can hold is an op of the arena: room
        // for all of them up front, so it never rehashes as it fills
        let ops = m.op_count();
        let mut available = Available {
            by_hash: HashMap::with_capacity_and_hasher(ops, Default::default()),
            inserted: Vec::with_capacity(ops),
            ops: Vec::with_capacity(ops),
        };
        for fi in 0..m.funcs().len() {
            let block = m.body_block(m.funcs()[fi], 0);
            changed = changed.or(run_block(m, block, &mut available));
        }
        changed
    }
}

/// Hash of everything [`same_expression`] compares.
fn structure_hash(m: &Module, op: OpId) -> u64 {
    let data = m.op(op);
    let mut h = StructureHasher::default();
    data.opcode.hash(&mut h);
    data.operands.hash(&mut h);
    data.attrs.hash(&mut h);
    for &r in &data.results {
        m.value_type(r).hash(&mut h);
    }
    h.finish()
}

/// `true` if two pure ops compute the same value: same opcode, operands,
/// attributes and result types.
fn same_expression(m: &Module, a: OpId, b: OpId) -> bool {
    let (da, db) = (m.op(a), m.op(b));
    da.opcode == db.opcode
        && da.operands == db.operands
        && da.attrs == db.attrs
        && da.results.len() == db.results.len()
        && da
            .results
            .iter()
            .zip(&db.results)
            .all(|(&ra, &rb)| m.value_type(ra) == m.value_type(rb))
}

fn run_block(m: &mut Module, block: BlockId, available: &mut Available) -> Changed {
    let mut changed = Changed::No;
    let scope_start = available.inserted.len();
    let start = available.ops.len();
    available.ops.extend_from_slice(m.block_ops(block));
    for i in start..available.ops.len() {
        let op = available.ops[i];
        if !m.is_alive(op) {
            continue;
        }
        let data = m.op(op);
        if data.opcode.is_pure() && data.regions.is_empty() {
            let hash = structure_hash(m, op);
            match available.by_hash.get(&hash) {
                Some(&existing) if same_expression(m, op, existing) => {
                    for i in 0..m.op(op).results.len() {
                        m.replace_all_uses(m.op(op).results[i], m.op(existing).results[i]);
                    }
                    m.erase_op(op);
                    changed = Changed::Yes;
                    continue;
                }
                // a different expression under the same hash keeps the
                // table entry; this one is merely not shared
                Some(_) => {}
                None => {
                    available.by_hash.insert(hash, op);
                    available.inserted.push(hash);
                }
            }
        }
        // each region is a scope of its own, opened and closed by the call
        for ri in 0..m.op(op).regions.len() {
            let region = m.op(op).regions[ri];
            for bi in 0..m.region(region).blocks.len() {
                let inner = m.region(region).blocks[bi];
                changed = changed.or(run_block(m, inner, available));
            }
        }
    }
    available.ops.truncate(start);
    if scope_start == 0 {
        // everything the table holds was added in this scope
        available.by_hash.clear();
        available.inserted.clear();
    } else {
        for hash in available.inserted.drain(scope_start..) {
            available.by_hash.remove(&hash);
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::printer::print_module;
    use crate::types::Type;
    use crate::verifier::verify;

    #[test]
    fn merges_identical_constants_and_exprs() {
        let mut m = Module::new();
        let (mut b, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64]);
        let c1 = b.const_int(8, Type::I64);
        let c2 = b.const_int(8, Type::I64);
        let a1 = b.addi(args[0], c1);
        let a2 = b.addi(args[0], c2);
        let s = b.setup("acc", &[("x", a1), ("y", a2)]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        assert!(Cse.run(&mut m).changed());
        verify(&m).unwrap();
        let text = print_module(&m);
        // both fields now reference the same value
        assert_eq!(text.matches("arith.addi").count(), 1, "{text}");
        assert_eq!(text.matches("arith.constant").count(), 1, "{text}");
    }

    #[test]
    fn distinguishes_different_attrs() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let c1 = b.const_int(8, Type::I64);
        let c2 = b.const_int(9, Type::I64);
        let s = b.setup("acc", &[("x", c1), ("y", c2)]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        assert!(!Cse.run(&mut m).changed());
    }

    #[test]
    fn outer_values_reusable_inside_loops() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let step = b.const_index(1);
        let outer = b.const_int(7, Type::I64);
        b.build_for(lb, ub, step, vec![], |b, _iv, _| {
            let inner = b.const_int(7, Type::I64); // same as `outer`
            let s = b.setup("acc", &[("x", inner)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        // keep `outer` alive so CSE has something to share
        let s = b.setup("acc", &[("x", outer)]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        assert!(Cse.run(&mut m).changed());
        verify(&m).unwrap();
        let text = print_module(&m);
        assert_eq!(text.matches("{value = 7}").count(), 1, "{text}");
    }

    #[test]
    fn loop_local_values_do_not_leak_out() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let lb = b.const_index(0);
        let ub = b.const_index(4);
        let step = b.const_index(1);
        b.build_for(lb, ub, step, vec![], |b, _iv, _| {
            let inner = b.const_int(99, Type::I64);
            let s = b.setup("acc", &[("x", inner)]);
            let t = b.launch("acc", s);
            b.await_token("acc", t);
            vec![]
        });
        // after the loop, the same constant appears again; CSE must NOT
        // replace it with the loop-local one
        let after = b.const_int(99, Type::I64);
        let s = b.setup("acc", &[("x", after)]);
        let t = b.launch("acc", s);
        b.await_token("acc", t);
        b.ret(vec![]);
        Cse.run(&mut m);
        verify(&m).unwrap();
        let text = print_module(&m);
        assert_eq!(text.matches("{value = 99}").count(), 2, "{text}");
    }

    #[test]
    fn never_merges_impure_ops() {
        let mut m = Module::new();
        let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
        let c = b.const_int(8, Type::I64);
        b.csr_write(1, c);
        b.csr_write(1, c); // identical but impure: must both stay
        b.ret(vec![]);
        assert!(!Cse.run(&mut m).changed());
        assert_eq!(m.live_op_count(), 5);
    }
}
