//! A map keyed by SSA value: a vector indexed by [`ValueId::index`].
//!
//! Value ids are dense (a module numbers its values 0, 1, 2, …), so a pass
//! that remembers something per value indexes a vector instead of hashing
//! the id. Like the ids themselves, a map is meaningful only next to the
//! module whose values key it.

use crate::module::ValueId;

/// Per SSA value, an optional `V`. `ValueMap<()>` is a set of values.
///
/// # Examples
///
/// ```
/// use accfg_ir::{FuncBuilder, Module, Type, ValueMap};
///
/// let mut m = Module::new();
/// let (_, args) = FuncBuilder::new_func(&mut m, "f", vec![Type::I64, Type::I64]);
/// let mut renamed = ValueMap::with_capacity(m.value_count());
/// renamed.insert(args[0], args[1]);
/// assert_eq!(renamed.get(args[0]), Some(&args[1]));
/// assert!(!renamed.contains(args[1]));
/// ```
#[derive(Debug, Clone)]
pub struct ValueMap<V>(Vec<Option<V>>);

impl<V> Default for ValueMap<V> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<V> ValueMap<V> {
    /// A map holding nothing; owns no storage until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// A map with room for the values of a module holding `values` of them
    /// ([`Module::value_count`](crate::Module::value_count)), so that
    /// filling it allocates once.
    pub fn with_capacity(values: usize) -> Self {
        Self(Vec::with_capacity(values))
    }

    /// What `value` maps to, if anything.
    pub fn get(&self, value: ValueId) -> Option<&V> {
        self.0.get(value.index())?.as_ref()
    }

    /// `true` if `value` maps to something.
    pub fn contains(&self, value: ValueId) -> bool {
        self.get(value).is_some()
    }

    /// Maps `value` to `to`, returning what it mapped to before.
    pub fn insert(&mut self, value: ValueId, to: V) -> Option<V> {
        if value.index() >= self.0.len() {
            self.0.resize_with(value.index() + 1, || None);
        }
        self.0[value.index()].replace(to)
    }

    /// Forgets every entry, keeping the storage.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}
