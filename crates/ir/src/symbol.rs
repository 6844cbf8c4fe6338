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
pub struct Names(Arc<NameText>);

/// Every name of a table in one string: interning a name appends it
/// rather than allocating it on its own.
#[derive(Debug, Clone, Default)]
struct NameText {
    text: String,
    /// By symbol, where its name ends in `text` (it starts where the
    /// previous one ends).
    ends: Vec<u32>,
}

impl NameText {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, index: usize) -> &str {
        let start = index.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.text[start as usize..self.ends[index] as usize]
    }

    /// The index of `name`, by a scan (each compare checks the length
    /// first).
    fn position(&self, name: &str) -> Option<usize> {
        let mut start = 0;
        self.ends.iter().position(|&end| {
            let held = &self.text.as_bytes()[start as usize..end as usize];
            start = end;
            held == name.as_bytes()
        })
    }

    fn push(&mut self, name: &str) {
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("a symbol table's names fit in 4 GiB");
        self.ends.push(end);
    }
}

impl Names {
    /// The string behind `symbol`.
    ///
    /// # Panics
    /// Panics if the symbol is not one of this table's.
    pub fn name(&self, symbol: Symbol) -> &str {
        self.0.get(symbol.index())
    }

    /// The symbol of `name` in this table, by a scan: handles are for the
    /// printing and comparing edges, the module's own lookup is hashed
    /// once its table is large.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.0.position(name).map(Symbol::from_index)
    }

    /// `true` if both handles share one table, so equal symbols are equal
    /// names. `false` says nothing: the tables may still agree.
    pub fn same_table(&self, other: &Names) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Up to this many names, a lookup scans the table: a few dozen length
/// compares cost less than hashing the name once with the keyed hasher.
const SCAN_LIMIT: usize = 32;

/// The names a module has interned, in interning order.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolTable {
    names: Names,
    /// Every name, once there are more than [`SCAN_LIMIT`]; empty before.
    /// Keyed by std's keyed hasher: the names may come from IR text.
    by_name: HashMap<Box<str>, Symbol>,
    /// The accelerator names, each as the one string its state and token
    /// types share.
    accelerators: Vec<(Symbol, Arc<str>)>,
}

impl SymbolTable {
    pub(crate) fn len(&self) -> usize {
        self.names.0.len()
    }

    pub(crate) fn get(&self, name: &str) -> Option<Symbol> {
        if self.len() > SCAN_LIMIT {
            return self.by_name.get(name).copied();
        }
        self.names.symbol(name)
    }

    /// The symbol of `name`, and whether this call added it.
    pub(crate) fn intern(&mut self, name: &str) -> (Symbol, bool) {
        if let Some(symbol) = self.get(name) {
            return (symbol, false);
        }
        // in place unless a `Names` handle (or a clone of the module) still
        // shares the table, which then keeps the names it was given
        let names = Arc::make_mut(&mut self.names.0);
        if names.len() == 0 {
            // an accelerator's setup names a few dozen fields of a dozen or
            // so bytes: room for them up front saves regrowing at each
            // doubling
            names.ends.reserve(SCAN_LIMIT);
            names.text.reserve(16 * SCAN_LIMIT);
        }
        let symbol = Symbol::from_index(names.len());
        match names.len() {
            SCAN_LIMIT => {
                // the table outgrows its scan: key every name, once
                self.by_name.reserve(2 * SCAN_LIMIT);
                self.by_name.extend(
                    (0..SCAN_LIMIT)
                        .map(|index| (names.get(index).into(), Symbol::from_index(index))),
                );
                self.by_name.insert(name.into(), symbol);
            }
            len if len > SCAN_LIMIT => {
                self.by_name.insert(name.into(), symbol);
            }
            _ => {}
        }
        names.push(name);
        (symbol, true)
    }

    /// Interns `name` as an accelerator's: as [`SymbolTable::intern`], and
    /// the name gets the string its types share.
    pub(crate) fn intern_accelerator(&mut self, name: &str) -> (Symbol, bool) {
        let (symbol, added) = self.intern(name);
        if !self.accelerators.iter().any(|&(held, _)| held == symbol) {
            self.accelerators.push((symbol, name.into()));
        }
        (symbol, added)
    }

    /// The string the types of the accelerator `symbol` share: its own if
    /// it was interned as an accelerator's, else a copy of its name.
    pub(crate) fn type_name(&self, symbol: Symbol) -> Arc<str> {
        match self.accelerators.iter().find(|&&(held, _)| held == symbol) {
            Some((_, shared)) => shared.clone(),
            None => self.names.name(symbol).into(),
        }
    }

    pub(crate) fn name(&self, symbol: Symbol) -> &str {
        self.names.name(symbol)
    }

    pub(crate) fn names(&self) -> &Names {
        &self.names
    }
}
