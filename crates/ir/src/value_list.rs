//! Operand and result lists: up to three values inline, more on the heap.

use crate::module::ValueId;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// How many values a list holds without allocating.
const INLINE: usize = 3;

/// What the unused inline slots hold.
const VACANT: ValueId = ValueId(u32::MAX);

/// The operand or result list of an operation.
///
/// Nearly every op has at most three operands (a binary op two, a select
/// three, a loop's bounds three) and at most one result, so a list of up to
/// three holds its values inline and allocates nothing; a fourth value
/// moves them into a vector. The list derefs to a slice, and two lists
/// compare and hash as their slices do, however each stores them.
#[derive(Clone)]
pub struct ValueList(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` items are the list.
    Inline {
        len: u8,
        items: [ValueId; INLINE],
    },
    Heap(Vec<ValueId>),
}

impl ValueList {
    /// An empty list.
    pub const fn new() -> Self {
        ValueList(Repr::Inline {
            len: 0,
            items: [VACANT; INLINE],
        })
    }

    /// Appends `value`.
    pub fn push(&mut self, value: ValueId) {
        match &mut self.0 {
            Repr::Inline { len, items } if usize::from(*len) < INLINE => {
                items[usize::from(*len)] = value;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut values = Vec::with_capacity(2 * INLINE);
                values.extend_from_slice(items);
                values.push(value);
                self.0 = Repr::Heap(values);
            }
            Repr::Heap(values) => values.push(value),
        }
    }

    /// Removes every value (and gives back any heap storage).
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// The values, in order.
    pub fn as_slice(&self) -> &[ValueId] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Heap(values) => values,
        }
    }
}

impl Default for ValueList {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for ValueList {
    type Target = [ValueId];

    fn deref(&self) -> &[ValueId] {
        self.as_slice()
    }
}

impl DerefMut for ValueList {
    fn deref_mut(&mut self) -> &mut [ValueId] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..usize::from(*len)],
            Repr::Heap(values) => values,
        }
    }
}

impl From<&[ValueId]> for ValueList {
    fn from(values: &[ValueId]) -> Self {
        if values.len() <= INLINE {
            values.iter().copied().collect()
        } else {
            ValueList(Repr::Heap(values.to_vec()))
        }
    }
}

impl<const N: usize> From<[ValueId; N]> for ValueList {
    fn from(values: [ValueId; N]) -> Self {
        Self::from(&values[..])
    }
}

/// A vector too long to go inline keeps its allocation.
impl From<Vec<ValueId>> for ValueList {
    fn from(values: Vec<ValueId>) -> Self {
        if values.len() <= INLINE {
            Self::from(&values[..])
        } else {
            ValueList(Repr::Heap(values))
        }
    }
}

impl Extend<ValueId> for ValueList {
    fn extend<I: IntoIterator<Item = ValueId>>(&mut self, values: I) {
        let values = values.into_iter();
        let (lower, _) = values.size_hint();
        if let Repr::Heap(held) = &mut self.0 {
            held.reserve(lower);
        } else if self.len() + lower > INLINE {
            let mut held = Vec::with_capacity(self.len() + lower);
            held.extend_from_slice(self);
            self.0 = Repr::Heap(held);
        }
        for value in values {
            self.push(value);
        }
    }
}

impl FromIterator<ValueId> for ValueList {
    fn from_iter<I: IntoIterator<Item = ValueId>>(values: I) -> Self {
        let mut list = Self::new();
        list.extend(values);
        list
    }
}

impl<'a> IntoIterator for &'a ValueList {
    type Item = &'a ValueId;
    type IntoIter = std::slice::Iter<'a, ValueId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for ValueList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ValueList {}

impl<const N: usize> PartialEq<[ValueId; N]> for ValueList {
    fn eq(&self, other: &[ValueId; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<ValueId>> for ValueList {
    fn eq(&self, other: &Vec<ValueId>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Hashes as the slice (and so as the `Vec`) of its values.
impl Hash for ValueList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for ValueList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::DefaultHasher;

    fn ids(raw: &[u32]) -> Vec<ValueId> {
        raw.iter().map(|&v| ValueId(v)).collect()
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn three_values_stay_inline_and_a_fourth_spills() {
        let mut list = ValueList::new();
        for v in 0..3 {
            list.push(ValueId(v));
            assert!(matches!(list.0, Repr::Inline { .. }));
        }
        list.push(ValueId(3));
        assert!(matches!(list.0, Repr::Heap(_)));
        assert_eq!(list, ids(&[0, 1, 2, 3]));
        list.clear();
        assert!(list.is_empty() && matches!(list.0, Repr::Inline { .. }));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every way of building a list gives the vector the same steps
        /// give, and equal lists are equal, hash equal and print equal
        /// whichever storage holds them.
        #[test]
        fn the_list_behaves_as_a_vector(
            first in prop::collection::vec(0u32..6, 0..6),
            more in prop::collection::vec(0u32..6, 0..6),
            pushed in 0u32..6,
            at in any::<u16>(),
        ) {
            let (first, more) = (ids(&first), ids(&more));
            let mut model = first.clone();
            let mut lists = [
                ValueList::from(first.clone()),
                ValueList::from(&first[..]),
                first.iter().copied().collect(),
            ];
            model.extend(&more);
            model.push(ValueId(pushed));
            if !model.is_empty() {
                let at = usize::from(at) % model.len();
                model[at] = ValueId(at as u32);
            }
            for list in &mut lists {
                list.extend(more.iter().copied());
                list.push(ValueId(pushed));
                if !model.is_empty() {
                    let at = usize::from(at) % model.len();
                    list[at] = ValueId(at as u32);
                }
                prop_assert_eq!(&*list, &model);
                prop_assert_eq!(hash_of(list), hash_of(&model));
                prop_assert_eq!(format!("{list:?}"), format!("{model:?}"));
            }
            // short or long, a list on the heap equals the one built above
            let heap = ValueList(Repr::Heap(model.clone()));
            prop_assert_eq!(&heap, &ValueList::from(&model[..]));
            prop_assert_eq!(hash_of(&heap), hash_of(&lists[1]));
        }
    }
}
