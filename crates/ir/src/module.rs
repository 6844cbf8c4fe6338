//! The IR container: an arena of values, operations, blocks, and regions.
//!
//! A [`Module`] owns everything. Entities are referenced by lightweight
//! copyable ids ([`ValueId`], [`OpId`], [`BlockId`], [`RegionId`]); erased
//! operations leave tombstones so ids stay stable across mutations — the
//! same strategy MLIR uses, minus the pointer chasing.
//!
//! Regions in this IR always contain exactly one block (structured control
//! flow only: `scf.for` / `scf.if`), which is all the paper's passes need.
//!
//! Three things are maintained alongside the arena, because the passes ask
//! for them constantly and MLIR would hand them over for free:
//!
//! - a **symbol table** of accelerator and setup-field names
//!   ([`Module::intern`]), so passes compare and index names as integers;
//! - a **use-def index** ([`Module::uses_of`]): for every value, the
//!   operands of live ops that read it. Invariant: it equals a scan of the
//!   arena at all times, and each value's uses are in ascending
//!   (op, operand index) order — the order the scan it replaced produced,
//!   so no pass output depends on which of the two answered;
//! - a **mutation stamp** ([`Module::stamp`]): after any mutator, the next
//!   read returns a value no module has held before, so "the stamp did not
//!   move" proves "the IR did not change" and the pass manager can skip
//!   re-verifying a module a pass left alone. A mutator only marks the
//!   stamp stale; the fresh value is drawn when the stamp is next read.
//!
//! All three rely on every mutation going through a `&mut self` method of
//! [`Module`]; there is no mutable access to the stored data.

use crate::attrs::{AttrMap, Attribute};
use crate::op::{OpData, Opcode};
use crate::symbol::{Names, Symbol, SymbolTable};
use crate::types::Type;
use crate::uses::UseLists;
use crate::value_list::ValueList;
use crate::value_map::ValueMap;
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// The raw arena index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies an SSA value (an op result or a block argument).
    ValueId, "%v"
);
id_type!(
    /// Identifies an operation.
    OpId, "op"
);
id_type!(
    /// Identifies a basic block.
    BlockId, "^bb"
);
id_type!(
    /// Identifies a region (a single-block scope nested under an op).
    RegionId, "region"
);

/// Where an SSA value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueDef {
    /// The `index`-th result of operation `op`.
    OpResult {
        /// Producing operation.
        op: OpId,
        /// Result position.
        index: u32,
    },
    /// The `index`-th argument of block `block`.
    BlockArg {
        /// Owning block.
        block: BlockId,
        /// Argument position.
        index: u32,
    },
}

/// Storage for one SSA value.
#[derive(Debug, Clone)]
pub struct ValueData {
    /// The defining entity.
    pub def: ValueDef,
    /// The value's type.
    pub ty: Type,
}

/// Storage for one block.
#[derive(Debug, Clone, Default)]
pub struct BlockData {
    /// Block arguments (e.g. the induction variable of an `scf.for`).
    pub args: Vec<ValueId>,
    /// Operations, in execution order.
    pub ops: Vec<OpId>,
    /// Owning region, if attached.
    pub parent: Option<RegionId>,
}

/// Storage for one region.
#[derive(Debug, Clone, Default)]
pub struct RegionData {
    /// The blocks of the region. Always exactly one in well-formed IR.
    pub blocks: Vec<BlockId>,
    /// The op owning this region, if attached.
    pub parent: Option<OpId>,
}

/// A use of a value: which op uses it, at which operand position.
///
/// Ordered by op, then operand position — the order of [`Module::uses_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Use {
    /// The using operation.
    pub op: OpId,
    /// The operand index within that operation.
    pub operand_index: usize,
}

/// The source of mutation stamps, shared by every module in the process so
/// that no two distinct IR states — of one module or of two — ever carry
/// the same stamp. `Relaxed` suffices: the counter hands out unique
/// numbers and publishes no other data.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// What a stamp holds from a mutation until it is next read. The counter
/// never gets this far.
const STALE: u64 = u64::MAX;

/// A module's mutation stamp: 0 while the module is new and empty, a value
/// drawn from [`NEXT_STAMP`] once read, [`STALE`] between a mutation and the
/// next read. A mutator makes one plain store; only a read that finds the
/// stamp stale draws from the shared counter, so a pass that mutates a
/// hundred times draws once, when the pass manager looks. Every access is
/// `Relaxed`, as the counter's: a stamp is only ever compared, and
/// publishes no other data.
#[derive(Debug, Default)]
struct Stamp(AtomicU64);

impl Stamp {
    fn mark_stale(&mut self) {
        *self.0.get_mut() = STALE;
    }

    fn read(&self) -> u64 {
        let held = self.0.load(Ordering::Relaxed);
        if held != STALE {
            return held;
        }
        let fresh = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
        // two readers racing on a shared module agree on the first draw
        match self
            .0
            .compare_exchange(STALE, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(drawn) => drawn,
        }
    }
}

/// A clone is the state it was cloned from: it carries that state's stamp,
/// drawn first if it was stale.
impl Clone for Stamp {
    fn clone(&self) -> Self {
        Stamp(AtomicU64::new(self.read()))
    }
}

/// The IR module: the arena that owns all IR entities plus the list of
/// top-level functions.
///
/// # Examples
///
/// ```
/// use accfg_ir::{Module, Opcode, Type, Attribute};
///
/// let mut m = Module::new();
/// let region = m.create_region();
/// let block = m.create_block(region);
/// let func = m.create_op(Opcode::Func, vec![], vec![], Default::default(), vec![region]);
/// m.set_attr(func, "sym_name", Attribute::Str("main".into()));
/// m.add_func(func);
/// assert_eq!(m.funcs().len(), 1);
/// # let _ = block;
/// ```
#[derive(Debug, Clone, Default)]
pub struct Module {
    values: Vec<ValueData>,
    ops: Vec<OpData>,
    blocks: Vec<BlockData>,
    regions: Vec<RegionData>,
    funcs: Vec<OpId>,
    symbols: SymbolTable,
    /// Per value: the operands of live ops that read it, ascending.
    uses: UseLists,
    stamp: Stamp,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    // --- accessors ---------------------------------------------------------

    /// The data of a value.
    ///
    /// # Panics
    /// Panics if the id does not belong to this module.
    pub fn value(&self, v: ValueId) -> &ValueData {
        &self.values[v.index()]
    }

    /// The type of a value.
    pub fn value_type(&self, v: ValueId) -> &Type {
        &self.values[v.index()].ty
    }

    /// Number of values ever created (the bound of [`ValueId::index`]).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Number of operations ever created, erased ones included (the bound
    /// of [`OpId::index`]).
    pub(crate) fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The data of an op.
    pub fn op(&self, op: OpId) -> &OpData {
        &self.ops[op.index()]
    }

    /// The data of a block.
    pub fn block(&self, b: BlockId) -> &BlockData {
        &self.blocks[b.index()]
    }

    /// The data of a region.
    pub fn region(&self, r: RegionId) -> &RegionData {
        &self.regions[r.index()]
    }

    /// Top-level functions, in insertion order.
    pub fn funcs(&self) -> &[OpId] {
        &self.funcs
    }

    /// Looks up a function by its `sym_name` attribute.
    pub fn func_by_name(&self, name: &str) -> Option<OpId> {
        self.funcs
            .iter()
            .copied()
            .find(|&f| self.attr(f, "sym_name").and_then(Attribute::as_str) == Some(name))
    }

    /// An attribute of an op, if present.
    pub fn attr(&self, op: OpId, name: &str) -> Option<&Attribute> {
        self.ops[op.index()].attrs.get(name)
    }

    /// Shorthand for an integer attribute.
    pub fn int_attr(&self, op: OpId, name: &str) -> Option<i64> {
        self.attr(op, name).and_then(Attribute::as_int)
    }

    /// Shorthand for a string attribute.
    pub fn str_attr(&self, op: OpId, name: &str) -> Option<&str> {
        self.attr(op, name).and_then(Attribute::as_str)
    }

    /// `true` if the op has not been erased.
    pub fn is_alive(&self, op: OpId) -> bool {
        self.ops[op.index()].alive
    }

    /// Number of live operations in the whole module (all nesting levels).
    pub fn live_op_count(&self) -> usize {
        self.ops.iter().filter(|o| o.alive).count()
    }

    /// The mutation stamp: equal before and after a stretch of code only if
    /// that code changed nothing in the module.
    ///
    /// The first read after a mutation draws a fresh stamp from one
    /// process-wide counter, so the guarantee also covers a wholesale
    /// `*module = other`: two modules share a stamp only if one is an
    /// unmodified clone of the other (or both are new and empty).
    pub fn stamp(&self) -> u64 {
        self.stamp.read()
    }

    fn touch(&mut self) {
        self.stamp.mark_stale();
    }

    // --- names -------------------------------------------------------------

    /// Interns `name`, returning the symbol every later call with the same
    /// string returns.
    pub fn intern(&mut self, name: &str) -> Symbol {
        let (symbol, added) = self.symbols.intern(name);
        if added {
            self.touch();
        }
        symbol
    }

    /// Interns an accelerator's name, as [`Module::intern`] does; the
    /// accelerator's state and token types ([`Module::state_type`],
    /// [`Module::token_type`]) then share one copy of it.
    pub fn intern_accelerator(&mut self, name: &str) -> Symbol {
        let (symbol, added) = self.symbols.intern_accelerator(name);
        if added {
            self.touch();
        }
        symbol
    }

    /// The symbol of `name` if some op of this module has interned it.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.symbols.get(name)
    }

    /// The string behind a symbol.
    ///
    /// # Panics
    /// Panics if the symbol was not interned in this module (or a module it
    /// was cloned from).
    pub fn name(&self, symbol: Symbol) -> &str {
        self.symbols.name(symbol)
    }

    /// Number of interned names (the bound of [`Symbol::index`]).
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// A handle on the names interned so far, for values that must spell
    /// their symbols after the module is gone. Allocates nothing.
    pub fn names(&self) -> Names {
        self.symbols.names().clone()
    }

    /// `!accfg.state<"accelerator">`, sharing the name of an accelerator
    /// interned with [`Module::intern_accelerator`] (building one then
    /// allocates nothing).
    pub fn state_type(&self, accelerator: Symbol) -> Type {
        Type::State(self.symbols.type_name(accelerator))
    }

    /// `!accfg.token<"accelerator">`, sharing the name as
    /// [`Module::state_type`] does.
    pub fn token_type(&self, accelerator: Symbol) -> Type {
        Type::Token(self.symbols.type_name(accelerator))
    }

    // --- construction ------------------------------------------------------

    /// Creates a detached region.
    pub fn create_region(&mut self) -> RegionId {
        self.touch();
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(RegionData::default());
        id
    }

    /// Creates a block and appends it to `region`.
    pub fn create_block(&mut self, region: RegionId) -> BlockId {
        self.touch();
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockData {
            parent: Some(region),
            ..Default::default()
        });
        self.regions[region.index()].blocks.push(id);
        id
    }

    fn new_value(&mut self, def: ValueDef, ty: Type) -> ValueId {
        let v = ValueId(self.values.len() as u32);
        self.values.push(ValueData { def, ty });
        self.uses.push_value();
        v
    }

    /// Appends a new argument of type `ty` to `block`, returning its value.
    pub fn add_block_arg(&mut self, block: BlockId, ty: Type) -> ValueId {
        self.touch();
        let index = self.blocks[block.index()].args.len() as u32;
        let v = self.new_value(ValueDef::BlockArg { block, index }, ty);
        self.blocks[block.index()].args.push(v);
        v
    }

    /// Creates a detached operation, materializing one result value per type
    /// in `result_types`.
    ///
    /// An `accfg` op additionally needs its accelerator
    /// ([`Module::set_accelerator`]) and, for a setup, its field names
    /// ([`Module::set_setup_fields`], [`Module::set_has_input_state`])
    /// before it verifies.
    pub fn create_op(
        &mut self,
        opcode: Opcode,
        operands: impl Into<ValueList>,
        result_types: impl IntoIterator<Item = Type>,
        attrs: AttrMap,
        regions: Vec<RegionId>,
    ) -> OpId {
        self.touch();
        if self.ops.capacity() == 0 {
            // room for a tiled kernel as its generator emits it, so that
            // building one does not re-grow the arena op by op
            self.ops.reserve(64);
            self.values.reserve(96);
            self.uses.reserve_values(96);
        }
        let op = OpId(self.ops.len() as u32);
        let results = result_types
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                let index = index as u32;
                self.new_value(ValueDef::OpResult { op, index }, ty)
            })
            .collect();
        for &r in &regions {
            self.regions[r.index()].parent = Some(op);
        }
        self.ops.push(OpData {
            opcode,
            operands: operands.into(),
            results,
            attrs,
            regions,
            parent: None,
            alive: true,
            accelerator: None,
            fields: Vec::new(),
            has_input_state: false,
        });
        self.index_operands(op);
        op
    }

    /// Registers `func` (an op with opcode [`Opcode::Func`]) as a top-level
    /// function of the module.
    pub fn add_func(&mut self, func: OpId) {
        debug_assert_eq!(self.ops[func.index()].opcode, Opcode::Func);
        self.touch();
        self.funcs.push(func);
    }

    /// Names the accelerator an `accfg` op addresses.
    pub fn set_accelerator(&mut self, op: OpId, accelerator: Symbol) {
        self.touch();
        self.ops[op.index()].accelerator = Some(accelerator);
    }

    /// Names the field operands of an `accfg.setup`, in operand order. The
    /// operands themselves are set with [`Module::set_operands`]; the
    /// verifier checks that the two agree.
    pub fn set_setup_fields(&mut self, setup: OpId, fields: Vec<Symbol>) {
        self.touch();
        self.ops[setup.index()].fields = fields;
    }

    /// Keeps the fields of an `accfg.setup` for which `keep(field, value)`
    /// holds, in order, and drops the rest: what setting the kept fields
    /// with [`Module::set_setup_fields`] and [`Module::set_operands`]
    /// comes to, in place. Each kept operand moves down to its new position
    /// in its value's use list; nothing is allocated.
    pub fn retain_setup_fields(
        &mut self,
        setup: OpId,
        mut keep: impl FnMut(Symbol, ValueId) -> bool,
    ) {
        self.touch();
        let Module { ops, uses, .. } = self;
        let data = &mut ops[setup.index()];
        let first = usize::from(data.has_input_state);
        let mut kept = 0;
        for field in 0..data.fields.len() {
            let (name, value) = (data.fields[field], data.operands[first + field]);
            let site = |field: usize| Use {
                op: setup,
                operand_index: first + field,
            };
            if !keep(name, value) {
                if data.alive {
                    uses.remove(value, site(field));
                }
                continue;
            }
            if kept != field {
                data.fields[kept] = name;
                data.operands[first + kept] = value;
                // the uses this op made below `field` were moved down or
                // dropped already, so the moved one keeps its place
                if data.alive {
                    uses.retarget(value, site(field), site(kept));
                }
            }
            kept += 1;
        }
        data.fields.truncate(kept);
        data.operands.truncate(first + kept);
    }

    /// Says whether operand 0 of an `accfg.setup` is an input state (the
    /// field operands then start at 1).
    pub fn set_has_input_state(&mut self, setup: OpId, has_input_state: bool) {
        self.touch();
        self.ops[setup.index()].has_input_state = has_input_state;
    }

    // --- structural mutation -------------------------------------------------

    /// Appends `op` at the end of `block`.
    ///
    /// # Panics
    /// Panics if the op is already attached to a block.
    pub fn append_op(&mut self, block: BlockId, op: OpId) {
        assert!(
            self.ops[op.index()].parent.is_none(),
            "op already attached; detach first"
        );
        self.touch();
        self.ops[op.index()].parent = Some(block);
        self.blocks[block.index()].ops.push(op);
    }

    /// Inserts `op` into `block` at position `index`.
    ///
    /// # Panics
    /// Panics if the op is already attached, or `index` is out of bounds.
    pub fn insert_op(&mut self, block: BlockId, index: usize, op: OpId) {
        assert!(
            self.ops[op.index()].parent.is_none(),
            "op already attached; detach first"
        );
        self.touch();
        self.ops[op.index()].parent = Some(block);
        self.blocks[block.index()].ops.insert(index, op);
    }

    /// Detaches `op` from its parent block (keeping it alive).
    pub fn detach_op(&mut self, op: OpId) {
        if let Some(block) = self.ops[op.index()].parent.take() {
            self.touch();
            let ops = &mut self.blocks[block.index()].ops;
            // an attached op is listed once, in the block its parent names
            let index = ops.iter().position(|&o| o == op).expect("listed");
            ops.remove(index);
        }
    }

    /// Moves `op` so it sits immediately before `before` in `before`'s block.
    pub fn move_op_before(&mut self, op: OpId, before: OpId) {
        let block = self.ops[before.index()]
            .parent
            .expect("`before` must be attached");
        self.detach_op(op);
        let index = self.op_position(before).expect("`before` must be attached");
        self.insert_op(block, index, op);
    }

    /// Moves `ops` so they sit, in the given order, immediately before
    /// `before` in `before`'s block: what calling [`Module::move_op_before`]
    /// on each in turn does, with one pass over each source block and one
    /// over the destination instead of two per op.
    ///
    /// `ops` must be distinct, and none may enclose `before`.
    ///
    /// # Panics
    /// Panics if `before` is detached or among `ops`.
    pub(crate) fn move_ops_before(&mut self, ops: &[OpId], before: OpId) {
        let block = self.ops[before.index()]
            .parent
            .expect("`before` must be attached");
        if ops.is_empty() {
            return;
        }
        self.touch();
        // a run of ops from one block leaves it in one pass, at the run's end
        let mut taken_from = None;
        for &op in ops {
            let Some(source) = self.ops[op.index()].parent.take() else {
                continue;
            };
            if let Some(block) = taken_from.filter(|&b| b != source) {
                self.drop_detached(block);
            }
            taken_from = Some(source);
        }
        if let Some(block) = taken_from {
            self.drop_detached(block);
        }
        let index = self.op_position(before).expect("`before` must be attached");
        for &op in ops {
            self.ops[op.index()].parent = Some(block);
        }
        self.blocks[block.index()]
            .ops
            .splice(index..index, ops.iter().copied());
    }

    /// Drops from `block` the ops whose parent was taken: an attached op's
    /// parent is the block that lists it.
    fn drop_detached(&mut self, block: BlockId) {
        let arena = &self.ops;
        self.blocks[block.index()]
            .ops
            .retain(|o| arena[o.index()].parent.is_some());
    }

    /// Moves `op` so it sits immediately after `after` in `after`'s block.
    pub fn move_op_after(&mut self, op: OpId, after: OpId) {
        let block = self.ops[after.index()]
            .parent
            .expect("`after` must be attached");
        self.detach_op(op);
        let index = self.op_position(after).expect("`after` must be attached") + 1;
        self.insert_op(block, index, op);
    }

    /// The position of `op` within its parent block, if attached.
    pub fn op_position(&self, op: OpId) -> Option<usize> {
        let block = self.ops[op.index()].parent?;
        self.blocks[block.index()].ops.iter().position(|&o| o == op)
    }

    /// Erases `op` and (recursively) everything in its regions.
    ///
    /// The op's results must be unused; this is checked with a debug
    /// assertion (checked builds) because dangling operands would silently
    /// corrupt later passes.
    pub fn erase_op(&mut self, op: OpId) {
        debug_assert!(
            self.ops[op.index()]
                .results
                .iter()
                .all(|&r| self.uses_of(r).is_empty()),
            "erasing op {op} whose results still have uses"
        );
        self.detach_op(op);
        self.tombstone_subtree(op);
    }

    /// Tombstones `op` and everything nested under it. No uses check below
    /// the root: the whole subtree dies together.
    fn tombstone_subtree(&mut self, op: OpId) {
        for ri in 0..self.ops[op.index()].regions.len() {
            let region = self.ops[op.index()].regions[ri];
            for bi in 0..self.regions[region.index()].blocks.len() {
                let block = self.regions[region.index()].blocks[bi];
                for inner in std::mem::take(&mut self.blocks[block.index()].ops) {
                    self.ops[inner.index()].parent = None;
                    self.tombstone_subtree(inner);
                }
            }
        }
        self.tombstone(op);
    }

    /// Marks one op dead and drops its operands (and their uses).
    fn tombstone(&mut self, op: OpId) {
        self.touch();
        self.unindex_operands(op);
        let data = &mut self.ops[op.index()];
        data.alive = false;
        data.operands.clear();
    }

    /// Sets (or replaces) an attribute on `op`.
    pub fn set_attr(&mut self, op: OpId, name: impl Into<Cow<'static, str>>, attr: Attribute) {
        self.touch();
        self.ops[op.index()].attrs.insert(name.into(), attr);
    }

    /// Replaces operand `index` of `op` with `value`.
    pub fn set_operand(&mut self, op: OpId, index: usize, value: ValueId) {
        self.touch();
        let old = std::mem::replace(&mut self.ops[op.index()].operands[index], value);
        if self.ops[op.index()].alive {
            let site = Use {
                op,
                operand_index: index,
            };
            self.uses.remove(old, site);
            self.uses.insert(value, site);
        }
    }

    /// Replaces the full operand list of `op`.
    ///
    /// Only the operands that moved are re-indexed: the list is split into
    /// the prefix and the suffix it shares with the old one and the middle
    /// between them. The middle's old uses are dropped and its new ones
    /// recorded; each suffix use keeps its place in its value's list and
    /// has its operand index shifted by the change in length. So an input
    /// state prepended to a setup shifts every field one up, dropping the
    /// first operand shifts them down, and a list of the same length
    /// touches only the positions whose value changed.
    pub fn set_operands(&mut self, op: OpId, operands: impl Into<ValueList>) {
        self.touch();
        let operands = operands.into();
        if !self.ops[op.index()].alive {
            self.ops[op.index()].operands = operands;
            return;
        }
        let old = std::mem::replace(&mut self.ops[op.index()].operands, operands);
        let new = &self.ops[op.index()].operands;
        let prefix = old
            .iter()
            .zip(new.iter())
            .take_while(|(a, b)| a == b)
            .count();
        let suffix = old[prefix..]
            .iter()
            .rev()
            .zip(new[prefix..].iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        let (old_end, new_end) = (old.len() - suffix, new.len() - suffix);
        let site = |operand_index| Use { op, operand_index };
        let same_length = old.len() == new.len();
        for i in prefix..old_end {
            if !(same_length && old[i] == new[i]) {
                self.uses.remove(old[i], site(i));
            }
        }
        // a use moves to where no use of its value on this op is yet: up
        // from the highest, down from the lowest
        if new.len() > old.len() {
            for i in (old_end..old.len()).rev() {
                self.uses
                    .retarget(old[i], site(i), site(i + new_end - old_end));
            }
        } else if new.len() < old.len() {
            for i in old_end..old.len() {
                self.uses
                    .retarget(old[i], site(i), site(i + new_end - old_end));
            }
        }
        for i in prefix..new_end {
            let value = self.ops[op.index()].operands[i];
            if !(same_length && old[i] == value) {
                self.uses.insert(value, site(i));
            }
        }
    }

    /// Turns `op` into `arith.constant {value}` of type `ty` where it
    /// stands: the op keeps its id, its place and its result value (and so
    /// every use of it), and drops its operands and attributes. What
    /// folding an op to a new constant and replacing its result with the
    /// constant's comes to, without a new op, a move and a rewrite of
    /// every use.
    ///
    /// `op` must have one result and no regions.
    pub(crate) fn fold_to_constant(&mut self, op: OpId, value: i64, ty: Type) {
        debug_assert!(
            self.ops[op.index()].results.len() == 1 && self.ops[op.index()].regions.is_empty(),
            "only a one-result op without regions folds to a constant"
        );
        self.touch();
        self.unindex_operands(op);
        let result = self.ops[op.index()].results[0];
        self.values[result.index()].ty = ty;
        let data = &mut self.ops[op.index()];
        data.opcode = Opcode::Constant;
        data.operands.clear();
        data.attrs = AttrMap::new();
        data.attrs.insert("value".into(), Attribute::Int(value));
        data.accelerator = None;
        data.fields.clear();
        data.has_input_state = false;
    }

    // --- use-def -------------------------------------------------------------

    /// All uses of `value` by live ops, in ascending (op, operand index)
    /// order. Costs nothing: the module maintains the list.
    pub fn uses_of(&self, value: ValueId) -> &[Use] {
        self.uses.of(value)
    }

    /// Replaces every use of `old` with `new`.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        if old == new {
            return;
        }
        self.touch();
        while let Some(site) = self.uses.pop(old) {
            self.ops[site.op.index()].operands[site.operand_index] = new;
            self.uses.insert(new, site);
        }
    }

    /// Records every operand of `op` as a use (a live op's only).
    fn index_operands(&mut self, op: OpId) {
        if !self.ops[op.index()].alive {
            return;
        }
        for operand_index in 0..self.ops[op.index()].operands.len() {
            let value = self.ops[op.index()].operands[operand_index];
            self.uses.insert(value, Use { op, operand_index });
        }
    }

    /// Forgets every operand of `op` as a use.
    fn unindex_operands(&mut self, op: OpId) {
        if !self.ops[op.index()].alive {
            return;
        }
        for operand_index in 0..self.ops[op.index()].operands.len() {
            let value = self.ops[op.index()].operands[operand_index];
            self.uses.remove(value, Use { op, operand_index });
        }
    }

    // --- traversal -------------------------------------------------------------

    /// Pre-order walk over every live op nested under `root` (inclusive).
    pub fn walk<F: FnMut(OpId) + ?Sized>(&self, root: OpId, visit: &mut F) {
        if self.ops[root.index()].alive {
            visit(root);
            self.walk_regions(root, visit);
        }
    }

    /// Pre-order walk over the live ops nested in the regions of `parent`.
    /// An op without regions is visited in the loop, without a call.
    fn walk_regions<F: FnMut(OpId) + ?Sized>(&self, parent: OpId, visit: &mut F) {
        for &r in &self.ops[parent.index()].regions {
            for &b in &self.regions[r.index()].blocks {
                for &op in &self.blocks[b.index()].ops {
                    let data = &self.ops[op.index()];
                    if data.alive {
                        visit(op);
                        if !data.regions.is_empty() {
                            self.walk_regions(op, visit);
                        }
                    }
                }
            }
        }
    }

    /// Collects every live op nested under `root` (inclusive), pre-order.
    pub fn walk_collect(&self, root: OpId) -> Vec<OpId> {
        // the arena bounds any subtree: one allocation, never a regrowth
        let mut out = Vec::with_capacity(self.ops.len());
        self.walk(root, &mut |op| out.push(op));
        out
    }

    /// Collects every live op in the module, pre-order per function.
    ///
    /// A snapshot, for loops that mutate as they go; a loop that only reads
    /// walks in place with [`Module::walk`].
    pub fn walk_module(&self) -> Vec<OpId> {
        let mut out = Vec::with_capacity(self.ops.len());
        for &f in &self.funcs {
            self.walk(f, &mut |op| out.push(op));
        }
        out
    }

    /// The ops of `block`, in order. A loop that restructures the block as
    /// it goes iterates over a copy (`.to_vec()`).
    pub fn block_ops(&self, block: BlockId) -> &[OpId] {
        &self.blocks[block.index()].ops
    }

    /// The single block of `region`.
    ///
    /// # Panics
    /// Panics if the region does not have exactly one block.
    pub fn sole_block(&self, region: RegionId) -> BlockId {
        let blocks = &self.regions[region.index()].blocks;
        assert_eq!(
            blocks.len(),
            1,
            "region {region} must have exactly one block"
        );
        blocks[0]
    }

    /// The entry (single) block of a region-holding op's `region_index`-th region.
    pub fn body_block(&self, op: OpId, region_index: usize) -> BlockId {
        self.sole_block(self.ops[op.index()].regions[region_index])
    }

    /// The terminator op of `block`.
    ///
    /// # Panics
    /// Panics if the block is empty.
    pub fn terminator(&self, block: BlockId) -> OpId {
        *self.blocks[block.index()]
            .ops
            .last()
            .expect("block has no terminator")
    }

    /// The op containing `block` (via its region), if any.
    pub fn block_parent_op(&self, block: BlockId) -> Option<OpId> {
        let region = self.blocks[block.index()].parent?;
        self.regions[region.index()].parent
    }

    /// The innermost op enclosing `op` (its parent block's owner).
    pub fn parent_op(&self, op: OpId) -> Option<OpId> {
        let block = self.ops[op.index()].parent?;
        self.block_parent_op(block)
    }

    /// `true` if `ancestor` encloses `op` (strictly; an op does not enclose
    /// itself).
    pub fn is_ancestor(&self, ancestor: OpId, op: OpId) -> bool {
        let mut cur = self.parent_op(op);
        while let Some(p) = cur {
            if p == ancestor {
                return true;
            }
            cur = self.parent_op(p);
        }
        false
    }

    /// `true` if `value` is defined inside the regions of `op` (at any depth).
    pub fn is_defined_inside(&self, value: ValueId, op: OpId) -> bool {
        match self.values[value.index()].def {
            ValueDef::OpResult { op: def_op, .. } => def_op == op || self.is_ancestor(op, def_op),
            ValueDef::BlockArg { block, .. } => match self.block_parent_op(block) {
                Some(owner) => owner == op || self.is_ancestor(op, owner),
                None => false,
            },
        }
    }

    /// Rebuilds `op` in place with `new_operands` and `extra_result_types`
    /// appended after the existing result types, returning the new op id.
    ///
    /// Regions are transferred to the new op (not cloned), the new op takes
    /// the old op's position in its block, and all uses of the old results
    /// are redirected to the corresponding new results. Used to extend
    /// `scf.for`/`scf.if` with additional iteration state (e.g. threading an
    /// `!accfg.state` through a loop).
    pub fn rebuild_op(
        &mut self,
        op: OpId,
        new_operands: impl Into<ValueList>,
        extra_result_types: Vec<Type>,
    ) -> OpId {
        let old = &mut self.ops[op.index()];
        let opcode = old.opcode;
        // the old op is tombstoned below: what it owns moves, not copies
        let attrs = std::mem::take(&mut old.attrs);
        let regions = std::mem::take(&mut old.regions);
        let fields = std::mem::take(&mut old.fields);
        let (accelerator, has_input_state) = (old.accelerator, old.has_input_state);
        let old_results = std::mem::take(&mut old.results);
        let parent = old.parent;

        // in the caller's vector: an op without results reuses it whole
        let mut result_types = extra_result_types;
        result_types.splice(
            0..0,
            old_results
                .iter()
                .map(|&r| self.values[r.index()].ty.clone()),
        );
        let new_op = self.create_op(opcode, new_operands, result_types, attrs, regions);
        let new = &mut self.ops[new_op.index()];
        new.accelerator = accelerator;
        new.fields = fields;
        new.has_input_state = has_input_state;
        if let Some(block) = parent {
            let index = self.op_position(op).expect("op attached");
            self.blocks[block.index()].ops[index] = new_op;
            self.ops[new_op.index()].parent = Some(block);
            self.ops[op.index()].parent = None;
        }
        for (i, &old_r) in old_results.iter().enumerate() {
            let new_r = self.ops[new_op.index()].results[i];
            self.replace_all_uses(old_r, new_r);
        }
        self.ops[op.index()].results = old_results;
        self.tombstone(op);
        new_op
    }

    // --- cloning ------------------------------------------------------------

    /// Deep-clones `op` (attributes, regions, nested ops) as a detached op.
    ///
    /// `mapping` translates operand values: any operand present as a key is
    /// replaced by its mapped value in the clone; results and block args of
    /// cloned ops are added to `mapping` so intra-clone references stay
    /// consistent. Operands absent from the mapping are kept as-is (they are
    /// values defined outside the cloned subtree).
    pub fn clone_op(&mut self, op: OpId, mapping: &mut ValueMap<ValueId>) -> OpId {
        let data = &self.ops[op.index()];
        let operands: ValueList = data
            .operands
            .iter()
            .map(|&v| mapping.get(v).copied().unwrap_or(v))
            .collect();
        // nearly every op has one result: its type travels without a vector
        let mut result_types = data
            .results
            .iter()
            .map(|&r| self.values[r.index()].ty.clone());
        let first_type = result_types.next();
        let result_types = first_type
            .into_iter()
            .chain(result_types.collect::<Vec<_>>());
        let (opcode, attrs, fields) = (data.opcode, data.attrs.clone(), data.fields.clone());
        let (accelerator, has_input_state) = (data.accelerator, data.has_input_state);
        // Clone regions first (they don't reference the new op's results).
        let region_count = data.regions.len();
        let mut new_regions = Vec::with_capacity(region_count);
        for ri in 0..region_count {
            let r = self.ops[op.index()].regions[ri];
            let new_region = self.create_region();
            for bi in 0..self.regions[r.index()].blocks.len() {
                let old_block = self.regions[r.index()].blocks[bi];
                let new_block = self.create_block(new_region);
                for ai in 0..self.blocks[old_block.index()].args.len() {
                    let old_arg = self.blocks[old_block.index()].args[ai];
                    let ty = self.values[old_arg.index()].ty.clone();
                    let new_arg = self.add_block_arg(new_block, ty);
                    mapping.insert(old_arg, new_arg);
                }
                // the source block is not the one being appended to, so it
                // holds still while its ops are cloned
                for oi in 0..self.blocks[old_block.index()].ops.len() {
                    let inner = self.blocks[old_block.index()].ops[oi];
                    let new_inner = self.clone_op(inner, mapping);
                    self.append_op(new_block, new_inner);
                }
            }
            new_regions.push(new_region);
        }
        let new_op = self.create_op(opcode, operands, result_types, attrs, new_regions);
        let new = &mut self.ops[new_op.index()];
        new.accelerator = accelerator;
        new.fields = fields;
        new.has_input_state = has_input_state;
        for (&old_r, &new_r) in self.ops[op.index()]
            .results
            .iter()
            .zip(&self.ops[new_op.index()].results)
        {
            mapping.insert(old_r, new_r);
        }
        new_op
    }

    /// The use-def index recomputed by the linear scan it replaced: the
    /// oracle the index is tested against.
    #[cfg(test)]
    fn uses_by_scan(&self, value: ValueId) -> Vec<Use> {
        let mut uses = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            if !op.alive {
                continue;
            }
            for (operand_index, &operand) in op.operands.iter().enumerate() {
                if operand == value {
                    uses.push(Use {
                        op: OpId(i as u32),
                        operand_index,
                    });
                }
            }
        }
        uses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Opcode;
    use proptest::prelude::*;

    fn int_const(m: &mut Module, block: BlockId, v: i64) -> (OpId, ValueId) {
        let mut attrs = AttrMap::new();
        attrs.insert("value".into(), Attribute::Int(v));
        let op = m.create_op(Opcode::Constant, vec![], vec![Type::I64], attrs, vec![]);
        m.append_op(block, op);
        (op, m.op(op).results[0])
    }

    fn test_func(m: &mut Module) -> (OpId, BlockId) {
        let region = m.create_region();
        let block = m.create_block(region);
        let func = m.create_op(Opcode::Func, vec![], vec![], AttrMap::new(), vec![region]);
        m.set_attr(func, "sym_name", Attribute::Str("test".into()));
        m.add_func(func);
        (func, block)
    }

    #[test]
    fn build_and_walk() {
        let mut m = Module::new();
        let (func, block) = test_func(&mut m);
        let (_, a) = int_const(&mut m, block, 1);
        let (_, b) = int_const(&mut m, block, 2);
        let add = m.create_op(
            Opcode::AddI,
            vec![a, b],
            vec![Type::I64],
            AttrMap::new(),
            vec![],
        );
        m.append_op(block, add);
        let ops = m.walk_collect(func);
        assert_eq!(ops.len(), 4); // func + 2 constants + add
        assert_eq!(m.live_op_count(), 4);
    }

    #[test]
    fn uses_and_replacement() {
        let mut m = Module::new();
        let (_, block) = test_func(&mut m);
        let (_, a) = int_const(&mut m, block, 1);
        let (_, b) = int_const(&mut m, block, 2);
        let add = m.create_op(
            Opcode::AddI,
            vec![a, a],
            vec![Type::I64],
            AttrMap::new(),
            vec![],
        );
        m.append_op(block, add);
        assert_eq!(m.uses_of(a).len(), 2);
        assert_eq!(m.uses_of(b).len(), 0);
        m.replace_all_uses(a, b);
        assert_eq!(m.uses_of(a).len(), 0);
        assert_eq!(m.uses_of(b).len(), 2);
    }

    #[test]
    fn erase_detaches_and_tombstones() {
        let mut m = Module::new();
        let (func, block) = test_func(&mut m);
        let (op, _) = int_const(&mut m, block, 1);
        assert_eq!(m.block(block).ops.len(), 1);
        m.erase_op(op);
        assert!(!m.is_alive(op));
        assert_eq!(m.block(block).ops.len(), 0);
        assert_eq!(m.walk_collect(func).len(), 1); // just the func
    }

    #[test]
    #[should_panic(expected = "still have uses")]
    #[cfg(debug_assertions)]
    fn erase_with_uses_panics_in_debug() {
        let mut m = Module::new();
        let (_, block) = test_func(&mut m);
        let (op, a) = int_const(&mut m, block, 1);
        let add = m.create_op(
            Opcode::AddI,
            vec![a, a],
            vec![Type::I64],
            AttrMap::new(),
            vec![],
        );
        m.append_op(block, add);
        m.erase_op(op);
    }

    #[test]
    fn move_before_and_after() {
        let mut m = Module::new();
        let (_, block) = test_func(&mut m);
        let (op1, _) = int_const(&mut m, block, 1);
        let (op2, _) = int_const(&mut m, block, 2);
        let (op3, _) = int_const(&mut m, block, 3);
        m.move_op_before(op3, op1);
        assert_eq!(m.block(block).ops, vec![op3, op1, op2]);
        m.move_op_after(op3, op2);
        assert_eq!(m.block(block).ops, vec![op1, op2, op3]);
        assert_eq!(m.op_position(op2), Some(1));
    }

    #[test]
    fn nested_regions_and_ancestry() {
        let mut m = Module::new();
        let (func, block) = test_func(&mut m);
        let (_, lb) = int_const(&mut m, block, 0);
        let (_, ub) = int_const(&mut m, block, 10);
        let (_, step) = int_const(&mut m, block, 1);
        let body_region = m.create_region();
        let body = m.create_block(body_region);
        let iv = m.add_block_arg(body, Type::Index);
        let yield_op = m.create_op(Opcode::Yield, vec![], vec![], AttrMap::new(), vec![]);
        m.append_op(body, yield_op);
        let for_op = m.create_op(
            Opcode::For,
            vec![lb, ub, step],
            vec![],
            AttrMap::new(),
            vec![body_region],
        );
        m.append_op(block, for_op);

        assert!(m.is_ancestor(func, for_op));
        assert!(m.is_ancestor(func, yield_op));
        assert!(m.is_ancestor(for_op, yield_op));
        assert!(!m.is_ancestor(for_op, for_op));
        assert!(m.is_defined_inside(iv, for_op));
        assert!(!m.is_defined_inside(lb, for_op));
        assert_eq!(m.parent_op(yield_op), Some(for_op));
        assert_eq!(m.body_block(for_op, 0), body);
        assert_eq!(m.terminator(body), yield_op);
    }

    #[test]
    fn deep_clone_remaps_values() {
        let mut m = Module::new();
        let (_, block) = test_func(&mut m);
        let (_, lb) = int_const(&mut m, block, 0);
        let (_, ub) = int_const(&mut m, block, 4);
        let (_, step) = int_const(&mut m, block, 1);
        let body_region = m.create_region();
        let body = m.create_block(body_region);
        let iv = m.add_block_arg(body, Type::Index);
        let dbl = m.create_op(
            Opcode::AddI,
            vec![iv, iv],
            vec![Type::Index],
            AttrMap::new(),
            vec![],
        );
        m.append_op(body, dbl);
        let yield_op = m.create_op(Opcode::Yield, vec![], vec![], AttrMap::new(), vec![]);
        m.append_op(body, yield_op);
        let for_op = m.create_op(
            Opcode::For,
            vec![lb, ub, step],
            vec![],
            AttrMap::new(),
            vec![body_region],
        );
        m.append_op(block, for_op);

        let mut mapping = ValueMap::new();
        let clone = m.clone_op(for_op, &mut mapping);
        assert_ne!(clone, for_op);
        // outside operands kept:
        assert_eq!(m.op(clone).operands, vec![lb, ub, step]);
        // inner op got a remapped induction variable:
        let new_body = m.body_block(clone, 0);
        let new_iv = m.block(new_body).args[0];
        assert_ne!(new_iv, iv);
        let new_dbl = m.block(new_body).ops[0];
        assert_eq!(m.op(new_dbl).operands, vec![new_iv, new_iv]);
        assert_eq!(mapping.get(iv), Some(&new_iv));
    }

    #[test]
    fn func_lookup_by_name() {
        let mut m = Module::new();
        let (func, _) = test_func(&mut m);
        assert_eq!(m.func_by_name("test"), Some(func));
        assert_eq!(m.func_by_name("missing"), None);
    }

    /// Asserts the use-def invariant: for every value, the maintained list
    /// is exactly what a scan of the arena finds, in the scan's order.
    fn assert_index_matches_scan(m: &Module, after: &str) {
        for v in 0..m.value_count() {
            let v = ValueId(v as u32);
            assert_eq!(m.uses_of(v), m.uses_by_scan(v), "uses of {v} after {after}");
        }
    }

    /// A loop-shaped op: one region, one block with an argument, a body op
    /// using the argument and `outer`, and a terminator.
    fn region_op(m: &mut Module, outer: ValueId) -> OpId {
        let region = m.create_region();
        let body = m.create_block(region);
        let arg = m.add_block_arg(body, Type::Index);
        let inner = m.create_op(
            Opcode::AddI,
            vec![arg, outer],
            [Type::Index],
            AttrMap::new(),
            vec![],
        );
        m.append_op(body, inner);
        let inner_result = m.op(inner).results[0];
        let term = m.create_op(
            Opcode::Yield,
            vec![inner_result],
            [],
            AttrMap::new(),
            vec![],
        );
        m.append_op(body, term);
        m.create_op(
            Opcode::For,
            vec![outer, outer, outer],
            [Type::Index],
            AttrMap::new(),
            vec![region],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After any sequence of mutators — well-formed IR or not — the
        /// use-def index equals the linear scan it replaced, every mutator
        /// moved the stamp, and moving ops as a batch leaves every block
        /// as moving them one by one does. Operand lists are replaced
        /// whole (arbitrary lists, long enough to leave the inline
        /// storage), with an operand prepended, with the first dropped
        /// and with some positions changed in place — each of the cases
        /// `set_operands` re-indexes without a full sweep — and ops fold
        /// to constants in place. A setup's fields are thinned in place.
        #[test]
        fn use_index_equals_the_scan_after_any_mutator_sequence(
            actions in prop::collection::vec((0u8..17, any::<u16>(), any::<u16>(), any::<u16>()), 1..80)
        ) {
            let mut m = Module::new();
            let (func, block) = test_func(&mut m);
            let (_, seed) = int_const(&mut m, block, 0);
            let mut live: Vec<OpId> = m.block(block).ops.clone();
            for &(kind, a, b, c) in &actions {
                let value = |m: &Module, pick: u16| ValueId(u32::from(pick) % m.value_count() as u32);
                let op = live[usize::from(a) % live.len()];
                let stamp = m.stamp();
                let what = match kind {
                    0 => {
                        live.push(int_const(&mut m, block, i64::from(a)).0);
                        "create_op (no operands)"
                    }
                    1 => {
                        let operands = vec![value(&m, a), value(&m, b), value(&m, a)];
                        let new = m.create_op(Opcode::Opaque, operands, [Type::I64], AttrMap::new(), vec![]);
                        let at = usize::from(c) % (m.block(block).ops.len() + 1);
                        m.insert_op(block, at, new);
                        live.push(new);
                        "create_op + insert_op"
                    }
                    2 if !m.op(op).operands.is_empty() => {
                        let index = usize::from(b) % m.op(op).operands.len();
                        m.set_operand(op, index, value(&m, c));
                        "set_operand"
                    }
                    3 => {
                        let operands: ValueList = (0..b % 7).map(|i| value(&m, c.wrapping_add(i))).collect();
                        m.set_operands(op, operands);
                        "set_operands"
                    }
                    11 => {
                        let mut operands = ValueList::new();
                        operands.push(value(&m, b));
                        operands.extend(m.op(op).operands.iter().copied());
                        m.set_operands(op, operands);
                        "set_operands (one prepended)"
                    }
                    12 if !m.op(op).operands.is_empty() => {
                        let operands = ValueList::from(&m.op(op).operands[1..]);
                        m.set_operands(op, operands);
                        "set_operands (first dropped)"
                    }
                    13 => {
                        let mut operands = m.op(op).operands.clone();
                        let len = operands.len();
                        for i in 0..usize::from(b % 3).min(len) {
                            let at = (usize::from(c) + 5 * i) % len;
                            operands[at] = value(&m, a.wrapping_add(c).wrapping_add(i as u16));
                        }
                        m.set_operands(op, operands);
                        "set_operands (same length)"
                    }
                    14 if m.op(op).results.len() == 1 && m.op(op).regions.is_empty() => {
                        m.fold_to_constant(op, i64::from(b), Type::I64);
                        prop_assert!(m.op(op).operands.is_empty());
                        prop_assert_eq!(m.int_attr(op, "value"), Some(i64::from(b)));
                        "fold_to_constant"
                    }
                    15 => {
                        // name every operand past the first as a field,
                        // then keep the fields whose bit of `c` is set
                        let input = !m.op(op).operands.is_empty() && b % 2 == 1;
                        let fields = m.op(op).operands.len() - usize::from(input);
                        let names = (0..fields).map(|i| m.intern(&format!("f{i}"))).collect();
                        m.set_setup_fields(op, names);
                        m.set_has_input_state(op, input);
                        let mut bit = 0;
                        m.retain_setup_fields(op, |_, _| {
                            bit += 1;
                            c >> (bit % 16) & 1 == 1
                        });
                        let kept = (1..=fields).filter(|&bit| c >> (bit % 16) & 1 == 1).count();
                        prop_assert_eq!(m.op(op).fields.len(), kept);
                        prop_assert_eq!(m.op(op).operands.len(), kept + usize::from(input));
                        "retain_setup_fields"
                    }
                    4 => {
                        m.replace_all_uses(value(&m, b), value(&m, c));
                        "replace_all_uses"
                    }
                    5 if live.len() > 1 && m.op(op).results.iter().all(|&r| m.uses_of(r).is_empty()) => {
                        m.erase_op(op);
                        live.retain(|&o| o != op);
                        "erase_op"
                    }
                    6 => {
                        let operands = vec![value(&m, b), value(&m, c)];
                        let new = m.rebuild_op(op, operands, vec![Type::I1]);
                        live.retain(|&o| o != op);
                        live.push(new);
                        "rebuild_op"
                    }
                    7 => {
                        let mut mapping = ValueMap::new();
                        mapping.insert(value(&m, b), value(&m, c));
                        let new = m.clone_op(op, &mut mapping);
                        m.append_op(block, new);
                        live.push(new);
                        "clone_op"
                    }
                    8 => {
                        let outer = value(&m, b);
                        let new = region_op(&mut m, outer);
                        m.append_op(block, new);
                        live.push(new);
                        "create_op (with a region)"
                    }
                    9 if live.len() > 1 => {
                        let other = live[usize::from(b) % live.len()];
                        if other != op {
                            m.move_op_before(op, other);
                        }
                        "move_op_before"
                    }
                    10 => {
                        // distinct ops from any block, none enclosing `before`
                        let before = live[usize::from(b) % live.len()];
                        let all = m.walk_module();
                        let mut moved: Vec<OpId> = (0..c % 5)
                            .map(|i| all[usize::from(a.wrapping_add(i * 7)) % all.len()])
                            .filter(|&o| o != func && o != before && !m.is_ancestor(o, before))
                            .collect();
                        moved.sort_unstable();
                        moved.dedup();
                        let turn = usize::from(c) % moved.len().max(1);
                        moved.rotate_left(turn);
                        let mut one_by_one = m.clone();
                        for &o in &moved {
                            one_by_one.move_op_before(o, before);
                        }
                        m.move_ops_before(&moved, before);
                        prop_assert_eq!(&m.blocks.iter().map(|b| &b.ops).collect::<Vec<_>>(),
                            &one_by_one.blocks.iter().map(|b| &b.ops).collect::<Vec<_>>());
                        prop_assert!(m.ops.iter().zip(&one_by_one.ops).all(|(x, y)| x.parent == y.parent));
                        "move_ops_before"
                    }
                    _ => {
                        // reads leave the stamp alone
                        let _ = (m.uses_of(seed), m.walk_module(), m.live_op_count());
                        prop_assert_eq!(m.stamp(), stamp);
                        continue;
                    }
                };
                prop_assert!(
                    m.stamp() != stamp
                        || ["replace_all_uses", "move_op_before", "move_ops_before"].contains(&what),
                    "{what} left the stamp where it was"
                );
                assert_index_matches_scan(&m, what);
            }
        }
    }

    /// Interning is a scan up to 32 names and a keyed map beyond: across
    /// the threshold every name keeps the symbol it was first given, a
    /// lookup agrees with interning, and a clone numbers names alike.
    #[test]
    fn names_keep_their_symbols_across_the_scan_threshold() {
        let mut m = Module::new();
        let names: Vec<String> = (0..64).map(|i| format!("field_{i}")).collect();
        let symbols: Vec<Symbol> = names.iter().map(|n| m.intern(n)).collect();
        assert_eq!(m.symbol_count(), 64);
        for (i, (name, &symbol)) in names.iter().zip(&symbols).enumerate() {
            assert_eq!(symbol.index(), i);
            assert_eq!(m.intern(name), symbol, "{name} re-interned");
            assert_eq!(m.symbol(name), Some(symbol), "{name} looked up");
            assert_eq!(m.name(symbol), name);
        }
        assert_eq!(m.symbol_count(), 64);
        // a name that only shares a prefix or a length is not found
        assert_eq!(m.symbol("field_"), None);
        assert_eq!(m.symbol("field_64"), None);
        assert_eq!(m.symbol("fielb_1"), None);
        let mut clone = m.clone();
        for (name, &symbol) in names.iter().zip(&symbols) {
            assert_eq!(clone.symbol(name), Some(symbol));
            assert_eq!(clone.intern(name), symbol);
        }
        let fresh = clone.intern("fresh");
        assert_eq!(fresh.index(), 64);
        assert_eq!((m.symbol("fresh"), m.symbol_count()), (None, 64));
        // handles taken before the clone interned keep their table
        assert_eq!(m.names().symbol("field_40"), Some(symbols[40]));
        assert_eq!(clone.names().name(fresh), "fresh");
    }

    /// A setup naming more fields than the scan covers parses, interns and
    /// prints back unchanged, and its accelerator's types share a name.
    #[test]
    fn a_setup_of_many_fields_prints_back_unchanged() {
        let fields: Vec<String> = (0..40).map(|i| format!("\"f{i}\" = %x")).collect();
        let text = format!(
            "func.func @f() {{\n  %x = arith.constant() {{value = 64}} : index\n  \
             %s = accfg.setup \"gemm\" to ({}) : !accfg.state<\"gemm\">\n  \
             func.return()\n}}\n",
            fields.join(", ")
        );
        let m = crate::parse_module(&text).unwrap();
        assert_eq!(m.symbol_count(), 41);
        let printed = crate::print_module(&m);
        assert_eq!(
            crate::print_module(&crate::parse_module(&printed).unwrap()),
            printed
        );
        for i in 0..40 {
            assert!(printed.contains(&format!("\"f{i}\" = %0")), "{printed}");
        }
        let gemm = m.symbol("gemm").unwrap();
        assert_eq!(m.state_type(gemm), Type::state("gemm"));
        assert_eq!(m.token_type(gemm), Type::token("gemm"));
    }

    #[test]
    fn stamps_tell_modules_and_states_apart() {
        let build = || {
            let mut m = Module::new();
            let (_, block) = test_func(&mut m);
            int_const(&mut m, block, 1);
            m
        };
        let (a, b) = (build(), build());
        // equal content built separately: unrelated stamps
        assert_ne!(a.stamp(), b.stamp());
        // a clone is the same state until either side moves
        let mut c = a.clone();
        assert_eq!(a.stamp(), c.stamp());
        let name = c.intern("fresh");
        assert_ne!(a.stamp(), c.stamp());
        // interning a known name, like every read, changes nothing
        let stamp = c.stamp();
        assert_eq!(c.intern("fresh"), name);
        assert_eq!((c.symbol("fresh"), c.name(name)), (Some(name), "fresh"));
        assert_eq!(c.stamp(), stamp);
        // new and empty is the one state two modules may share
        assert_eq!(Module::new().stamp(), Module::new().stamp());
    }
}
