//! Configuration state: which fields a register file holds, with what.
//!
//! Configuration registers keep their values across setups (Section 3.2),
//! so every layer that reasons about configuration asks the same question
//! of the same shape of data — "which fields does this accelerator hold,
//! and what is in them?". [`FieldMap`] is that shape, once: deduplication
//! solves over it with SSA values in the slots, the interpreter runs on it
//! and records it at every launch with concrete `i64`s, `accfg-analyze`
//! abstractly interprets over it with lattice values.
//!
//! A map is a dense vector indexed by the field name's [`Symbol`], so it is
//! meaningful only next to the module that interned the names (or a
//! [`Names`](accfg_ir::Names) handle of it); nothing here touches a string.

use accfg_ir::Symbol;

/// Per field of one accelerator, what its register holds — or nothing, for
/// a field no setup has written. Empty maps own no storage.
#[derive(Debug)]
pub struct FieldMap<V>(Vec<Option<V>>);

/// Per accelerator (by the symbol of its name), the fields it holds.
pub type ConfigState<V> = FieldMap<FieldMap<V>>;

impl<V> Default for FieldMap<V> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<V: Clone> Clone for FieldMap<V> {
    fn clone(&self) -> Self {
        Self(self.0.clone())
    }

    /// Into `self`'s own storage: a solver that re-derives one map several
    /// times (a loop body to its fixpoint) allocates for it once.
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

/// Equal maps hold equal values in the same fields, however many empty
/// slots trail them.
impl<V: PartialEq> PartialEq for FieldMap<V> {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.0.len() <= other.0.len() {
            (&self.0, &other.0)
        } else {
            (&other.0, &self.0)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(Option::is_none)
    }
}

impl<V: Eq> Eq for FieldMap<V> {}

impl<V> FieldMap<V> {
    /// A map holding nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for every field of a module with `symbols` interned names
    /// ([`Module::symbol_count`](accfg_ir::Module::symbol_count)), so that a
    /// map written field by field allocates once.
    pub fn reserve(&mut self, symbols: usize) {
        self.0.reserve(symbols.saturating_sub(self.0.len()));
    }

    /// What `field` holds, if anything.
    pub fn get(&self, field: Symbol) -> Option<&V> {
        self.0.get(field.index())?.as_ref()
    }

    /// Writes `field`, returning what it held before.
    pub fn set(&mut self, field: Symbol, value: V) -> Option<V> {
        self.slot(field).replace(value)
    }

    /// Empties `field`, returning what it held.
    pub fn remove(&mut self, field: Symbol) -> Option<V> {
        self.0.get_mut(field.index())?.take()
    }

    /// What `field` holds, after writing `V::default()` if it held nothing.
    pub fn or_default(&mut self, field: Symbol) -> &mut V
    where
        V: Default,
    {
        self.slot(field).get_or_insert_with(V::default)
    }

    /// Empties every field, keeping the storage.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The held fields with their values, in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &V)> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((Symbol::from_index(i), slot.as_ref()?)))
    }

    /// The held values, to update in place.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.0.iter_mut().flatten()
    }

    /// Overwrites every held field with `value`; fields never written stay
    /// unwritten. This is what an op with unknown side effects does to a
    /// register file: the registers exist, their contents are anyone's
    /// guess.
    pub fn fill(&mut self, value: V)
    where
        V: Clone,
    {
        for held in self.values_mut() {
            held.clone_from(&value);
        }
    }

    /// Keeps only what `other` agrees on: the state after a join of two
    /// paths when only certainties count. Returns `true` if anything went.
    pub fn meet(&mut self, other: &Self) -> bool
    where
        V: PartialEq,
    {
        let mut shrunk = false;
        for (i, slot) in self.0.iter_mut().enumerate() {
            if slot.is_some() && slot.as_ref() != other.0.get(i).and_then(Option::as_ref) {
                *slot = None;
                shrunk = true;
            }
        }
        shrunk
    }

    /// Joins `other` into `self` field by field: every field either side
    /// holds ends up holding `join(ours, theirs)`, a side that does not hold
    /// the field passing `None`.
    pub fn join(&mut self, other: &Self, mut join: impl FnMut(Option<V>, Option<&V>) -> V) {
        if self.0.len() < other.0.len() {
            self.0.resize_with(other.0.len(), || None);
        }
        for (i, slot) in self.0.iter_mut().enumerate() {
            let theirs = other.0.get(i).and_then(Option::as_ref);
            if slot.is_some() || theirs.is_some() {
                *slot = Some(join(slot.take(), theirs));
            }
        }
    }

    fn slot(&mut self, field: Symbol) -> &mut Option<V> {
        if field.index() >= self.0.len() {
            self.0.resize_with(field.index() + 1, || None);
        }
        &mut self.0[field.index()]
    }
}

impl<V> FieldMap<FieldMap<V>> {
    /// [`FieldMap::fill`] on every accelerator's file.
    pub fn fill_all(&mut self, value: V)
    where
        V: Clone,
    {
        for file in self.values_mut() {
            file.fill(value.clone());
        }
    }

    /// [`FieldMap::join`] accelerator by accelerator; one a side has never
    /// configured joins as an empty file.
    pub fn join_files(&mut self, other: &Self, mut join: impl FnMut(Option<V>, Option<&V>) -> V) {
        let unconfigured = FieldMap::new();
        self.join(other, |ours, theirs| {
            let mut file = ours.unwrap_or_default();
            file.join(theirs.unwrap_or(&unconfigured), &mut join);
            file
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: usize) -> Symbol {
        Symbol::from_index(i)
    }

    fn map(pairs: &[(usize, i64)]) -> FieldMap<i64> {
        let mut map = FieldMap::new();
        for &(i, v) in pairs {
            map.set(sym(i), v);
        }
        map
    }

    #[test]
    fn set_get_and_iteration_order() {
        let mut m = map(&[(3, 30), (1, 10)]);
        assert_eq!(m.get(sym(1)), Some(&10));
        assert_eq!(m.get(sym(2)), None);
        assert_eq!(m.get(sym(9)), None);
        assert_eq!(m.set(sym(1), 11), Some(10));
        *m.or_default(sym(5)) += 7;
        assert_eq!(
            m.iter().map(|(s, &v)| (s.index(), v)).collect::<Vec<_>>(),
            [(1, 11), (3, 30), (5, 7)]
        );
        m.clear();
        assert_eq!(m, FieldMap::new());
    }

    #[test]
    fn equality_ignores_trailing_empty_slots() {
        // a meet empties slots in place: the vector stays as long as it was
        let mut long = map(&[(0, 1), (6, 2)]);
        long.meet(&map(&[(0, 1)]));
        assert_eq!(long, map(&[(0, 1)]));
        assert_eq!(map(&[(0, 1)]), long);
        assert_ne!(long, map(&[(0, 1), (6, 2)]));
        assert_ne!(long, map(&[(0, 2)]));
        long.meet(&FieldMap::new());
        assert_eq!(long, FieldMap::new());
    }

    #[test]
    fn clone_from_reuses_the_destination_storage() {
        let mut dst = map(&[(9, 9)]);
        let capacity = dst.0.capacity();
        dst.clone_from(&map(&[(1, 10)]));
        assert_eq!(dst, map(&[(1, 10)]));
        assert_eq!(dst.0.capacity(), capacity);
    }

    #[test]
    fn fill_overwrites_held_fields_only() {
        let mut m = map(&[(1, 10), (4, 40)]);
        m.fill(-1);
        assert_eq!(m, map(&[(1, -1), (4, -1)]));
    }

    #[test]
    fn meet_against_a_shorter_and_a_longer_map() {
        // the other side is shorter: fields past its end are not agreed on
        let mut ours = map(&[(0, 1), (2, 3), (7, 8)]);
        assert!(ours.meet(&map(&[(0, 1), (2, 4)])));
        assert_eq!(ours, map(&[(0, 1)]));
        // the other side is longer: what only it holds is not ours to keep
        let mut ours = map(&[(0, 1), (2, 3)]);
        assert!(!ours.meet(&map(&[(0, 1), (2, 3), (9, 9)])));
        assert_eq!(ours, map(&[(0, 1), (2, 3)]));
        // nothing to lose against an empty map but everything held
        assert!(ours.meet(&FieldMap::new()));
        assert_eq!(ours, FieldMap::new());
        assert!(!ours.meet(&FieldMap::new()));
    }

    /// Sum where both hold, negate what only one side holds: tells the three
    /// cases of a join apart.
    fn mark(ours: Option<i64>, theirs: Option<&i64>) -> i64 {
        match (ours, theirs) {
            (Some(a), Some(b)) => a + b,
            (Some(a), None) => -a,
            (None, Some(b)) => -b,
            (None, None) => unreachable!("join is asked only about held fields"),
        }
    }

    #[test]
    fn join_against_a_shorter_and_a_longer_map() {
        let mut ours = map(&[(0, 1), (5, 6)]);
        ours.join(&map(&[(0, 10), (2, 3)]), mark);
        assert_eq!(ours, map(&[(0, 11), (2, -3), (5, -6)]));
        let mut ours = map(&[(1, 2)]);
        ours.join(&map(&[(1, 20), (8, 9)]), mark);
        assert_eq!(ours, map(&[(1, 22), (8, -9)]));
        let mut ours = FieldMap::new();
        ours.join(&FieldMap::new(), mark);
        assert_eq!(ours, FieldMap::new());
    }

    #[test]
    fn per_accelerator_state_joins_and_fills_file_by_file() {
        let mut a = ConfigState::new();
        a.or_default(sym(0)).set(sym(2), 5);
        let mut b = ConfigState::new();
        b.or_default(sym(0)).set(sym(2), 6);
        b.or_default(sym(1)).set(sym(3), 7);
        let field =
            |s: &ConfigState<i64>, accel, field| s.get(sym(accel))?.get(sym(field)).copied();
        assert_eq!(field(&a, 0, 2), Some(5));
        assert_eq!(field(&a, 1, 3), None);
        a.join_files(&b, mark);
        assert_eq!(field(&a, 0, 2), Some(11));
        assert_eq!(field(&a, 1, 3), Some(-7));
        a.fill_all(0);
        assert_eq!(field(&a, 0, 2), Some(0));
        assert_eq!(field(&a, 1, 3), Some(0));
        assert_eq!(field(&a, 1, 2), None);
    }
}
