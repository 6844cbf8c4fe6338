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
}

/// The names a module has interned, in interning order.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolTable {
    names: Vec<Arc<str>>,
    by_name: HashMap<Arc<str>, Symbol>,
}

impl SymbolTable {
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    pub(crate) fn get(&self, name: &str) -> Option<Symbol> {
        self.by_name.get(name).copied()
    }

    /// The symbol of `name`, and whether this call added it.
    pub(crate) fn intern(&mut self, name: &str) -> (Symbol, bool) {
        if let Some(symbol) = self.get(name) {
            return (symbol, false);
        }
        if self.names.is_empty() {
            // an accelerator's setup names a few dozen fields: room for them
            // up front saves rehashing every name at each doubling
            self.by_name.reserve(48);
        }
        let symbol = Symbol(self.names.len() as u32);
        let name: Arc<str> = name.into();
        self.names.push(name.clone());
        self.by_name.insert(name, symbol);
        (symbol, true)
    }

    /// The shared string behind `symbol`: state and token types of the
    /// accelerator it names clone this, so building one allocates nothing.
    pub(crate) fn name(&self, symbol: Symbol) -> &Arc<str> {
        &self.names[symbol.index()]
    }
}
