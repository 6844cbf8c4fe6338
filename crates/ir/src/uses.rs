//! Storage for the use-def index: every value's uses, kept sorted, in one
//! pooled allocation.
//!
//! A `Vec<Use>` per value would cost an allocation for every value that is
//! ever used — as many as building the IR itself makes. Instead all lists
//! live in one pool, each value owning a span of it; a list that outgrows
//! its span moves to the end of the pool with twice the room (the old span
//! is abandoned: modules are small and short-lived). What a span holds is
//! always sorted, so a value's uses are a plain ascending slice.

use crate::module::{OpId, Use, ValueId};

/// Where one value's uses live in the pool.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    capacity: u32,
}

impl Span {
    fn live(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Per value, the ascending list of its uses.
#[derive(Debug, Clone, Default)]
pub(crate) struct UseLists {
    pool: Vec<Use>,
    /// Indexed by value.
    spans: Vec<Span>,
}

/// What unused room in a span holds.
const VACANT: Use = Use {
    op: OpId(u32::MAX),
    operand_index: usize::MAX,
};

impl UseLists {
    /// Registers the next value (ids are dense), with no uses.
    pub(crate) fn push_value(&mut self) {
        self.spans.push(Span::default());
    }

    /// Makes room for `additional` more values.
    pub(crate) fn reserve_values(&mut self, additional: usize) {
        self.spans.reserve(additional);
    }

    /// The uses of `value`, ascending.
    pub(crate) fn of(&self, value: ValueId) -> &[Use] {
        &self.pool[self.spans[value.index()].live()]
    }

    /// Adds `site` to the uses of `value`, keeping them sorted.
    pub(crate) fn insert(&mut self, value: ValueId, site: Use) {
        let span = &mut self.spans[value.index()];
        if span.len == span.capacity {
            let capacity = (span.capacity * 2).max(2);
            let start = self.pool.len();
            if start == 0 {
                // a tiling kernel has a few hundred operands: room for them
                // up front saves re-growing the pool at each doubling
                self.pool.reserve(256);
            }
            self.pool.extend_from_within(span.live());
            self.pool.resize(start + capacity as usize, VACANT);
            span.start = u32::try_from(start).expect("use pool fits u32 offsets");
            span.capacity = capacity;
        }
        span.len += 1;
        let list = &mut self.pool[span.live()];
        let last = list.len() - 1;
        // the common case — a new op, the largest id yet — appends
        let at = if last == 0 || list[last - 1] < site {
            last
        } else {
            list[..last].partition_point(|u| *u < site)
        };
        list.copy_within(at..last, at + 1);
        list[at] = site;
    }

    /// Removes `site` from the uses of `value`.
    ///
    /// # Panics
    /// Panics if it is not among them: the index has fallen out of step
    /// with the operands it mirrors.
    pub(crate) fn remove(&mut self, value: ValueId, site: Use) {
        let span = &mut self.spans[value.index()];
        let list = &mut self.pool[span.live()];
        let at = list
            .binary_search(&site)
            .expect("use-def index out of step with the operands");
        list.copy_within(at + 1.., at);
        span.len -= 1;
    }

    /// Replaces the use `from` of `value` with `to`, in its place: the
    /// caller moves it only where it stays in order, past no other use of
    /// `value`.
    ///
    /// # Panics
    /// Panics if `from` is not among the uses of `value`.
    pub(crate) fn retarget(&mut self, value: ValueId, from: Use, to: Use) {
        let list = &mut self.pool[self.spans[value.index()].live()];
        let at = list
            .binary_search(&from)
            .expect("use-def index out of step with the operands");
        list[at] = to;
        debug_assert!(
            (at == 0 || list[at - 1] < to) && list.get(at + 1).is_none_or(|&next| to < next),
            "a retargeted use left its value's list out of order"
        );
    }

    /// Removes and returns the greatest use of `value`, if it has any.
    pub(crate) fn pop(&mut self, value: ValueId) -> Option<Use> {
        let span = &mut self.spans[value.index()];
        span.len = span.len.checked_sub(1)?;
        Some(self.pool[span.live().end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(op: u32, operand_index: usize) -> Use {
        Use {
            op: OpId(op),
            operand_index,
        }
    }

    fn ops_of(lists: &UseLists, v: ValueId) -> Vec<u32> {
        lists.of(v).iter().map(|u| u.op.0).collect()
    }

    #[test]
    fn lists_stay_sorted_through_growth_and_removal() {
        let mut lists = UseLists::default();
        lists.push_value();
        lists.push_value();
        let (a, b) = (ValueId(0), ValueId(1));
        // interleave two values so their spans relocate past each other
        for op in [5, 1, 9, 3, 7, 2, 8] {
            lists.insert(a, site(op, 0));
            lists.insert(b, site(op, 1));
            lists.insert(b, site(op, 0));
        }
        assert_eq!(ops_of(&lists, a), [1, 2, 3, 5, 7, 8, 9]);
        assert!(lists.of(b).windows(2).all(|w| w[0] < w[1]));
        assert_eq!(lists.of(b).len(), 14);

        lists.remove(a, site(5, 0));
        lists.remove(a, site(1, 0));
        lists.remove(a, site(9, 0));
        assert_eq!(ops_of(&lists, a), [2, 3, 7, 8]);
        assert_eq!(lists.pop(a), Some(site(8, 0)));
        assert_eq!(ops_of(&lists, a), [2, 3, 7]);
        while lists.pop(a).is_some() {}
        assert!(lists.of(a).is_empty());
        assert_eq!(lists.pop(a), None);
        // and the neighbour is untouched
        assert_eq!(lists.of(b).len(), 14);
    }

    #[test]
    #[should_panic(expected = "out of step")]
    fn removing_an_absent_use_is_a_bug() {
        let mut lists = UseLists::default();
        lists.push_value();
        lists.insert(ValueId(0), site(1, 0));
        lists.remove(ValueId(0), site(2, 0));
    }
}
