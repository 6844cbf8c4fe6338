//! Interned names: accelerator and `accfg.setup` field names as small
//! copyable symbols.
//!
//! MLIR uniques identifiers in its context, which is what lets its passes
//! compare and index names without touching a string. The table here is
//! per [`Module`](crate::Module), not process-wide: a symbol means
//! something only to the module that interned it (and to clones of that
//! module, which share its numbering), so names arriving in hostile IR
//! text live and die with the module that parsed them.

use std::collections::HashMap;
use std::sync::Arc;

/// A name interned in one [`Module`](crate::Module)'s symbol table.
///
/// Resolve it with [`Module::name`](crate::Module::name). Symbols of
/// different modules are unrelated, except that a clone keeps its source's
/// numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense index of the symbol in its module's table, for
    /// symbol-indexed vectors sized by [`Module::symbol_count`](crate::Module::symbol_count).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The symbol at a dense index: what position `index` of a
    /// symbol-indexed vector stands for. The inverse of [`Symbol::index`].
    pub fn from_index(index: usize) -> Self {
        Self(u32::try_from(index).expect("a symbol table holds fewer than 2^32 names"))
    }
}

/// The names behind a module's symbols, as of the moment
/// [`Module::names`](crate::Module::names) handed them out: what lets a
/// value that outlives its module (an interpreter trace) still spell its
/// symbols, and compare with one from another module *by name*.
///
/// A handle shares the module's table rather than copying it; the module
/// forks its table only if it interns a new name while a handle is out. So
/// two handles for which [`Names::same_table`] holds number every name
/// alike, and whatever is keyed by their symbols compares by symbol.
#[derive(Debug, Clone, Default)]
pub struct Names(Arc<Vec<Arc<str>>>);

impl Names {
    /// The string behind `symbol`.
    ///
    /// # Panics
    /// Panics if the symbol is not one of this table's.
    pub fn name(&self, symbol: Symbol) -> &str {
        &self.0[symbol.index()]
    }

    /// The symbol of `name` in this table, by a scan: handles are for the
    /// printing and comparing edges, the module's own lookup is hashed.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        let index = self.0.iter().position(|held| **held == *name)?;
        Some(Symbol::from_index(index))
    }

    /// `true` if both handles share one table, so equal symbols are equal
    /// names. `false` says nothing: the tables may still agree.
    pub fn same_table(&self, other: &Names) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The names a module has interned, in interning order.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolTable {
    names: Names,
    by_name: HashMap<Arc<str>, Symbol>,
}

impl SymbolTable {
    pub(crate) fn len(&self) -> usize {
        self.names.0.len()
    }

    pub(crate) fn get(&self, name: &str) -> Option<Symbol> {
        self.by_name.get(name).copied()
    }

    /// The symbol of `name`, and whether this call added it.
    pub(crate) fn intern(&mut self, name: &str) -> (Symbol, bool) {
        if let Some(symbol) = self.get(name) {
            return (symbol, false);
        }
        // in place unless a `Names` handle (or a clone of the module) still
        // shares the table, which then keeps the names it was given
        let names = Arc::make_mut(&mut self.names.0);
        if self.by_name.is_empty() {
            // an accelerator's setup names a few dozen fields: room for them
            // up front saves rehashing and copying every name at each doubling
            self.by_name.reserve(48);
            names.reserve(48);
        }
        let symbol = Symbol::from_index(names.len());
        let name: Arc<str> = name.into();
        names.push(name.clone());
        self.by_name.insert(name, symbol);
        (symbol, true)
    }

    /// The shared string behind `symbol`: state and token types of the
    /// accelerator it names clone this, so building one allocates nothing.
    pub(crate) fn name(&self, symbol: Symbol) -> &Arc<str> {
        &self.names.0[symbol.index()]
    }

    pub(crate) fn names(&self) -> &Names {
        &self.names
    }
}
