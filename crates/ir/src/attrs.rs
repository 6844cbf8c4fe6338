//! Attributes: compile-time constant metadata attached to operations.
//!
//! Includes the paper's `#accfg.effects<...>` attribute (Section 5.1), the
//! escape hatch that tells the accfg passes whether an opaque operation
//! preserves or clobbers accelerator configuration state.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// How an operation outside the `accfg` dialect interacts with accelerator
/// configuration state (the paper's `#accfg.effects` attribute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Effects {
    /// `#accfg.effects<none>`: the operation is guaranteed to leave all
    /// accelerator configuration registers untouched (e.g. a `printf` call).
    None,
    /// `#accfg.effects<all>`: the operation may clobber any accelerator
    /// state; optimizations must not move setups across it.
    All,
}

impl fmt::Display for Effects {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Effects::None => write!(f, "none"),
            Effects::All => write!(f, "all"),
        }
    }
}

/// A compile-time constant attribute value.
///
/// # Examples
///
/// ```
/// use accfg_ir::Attribute;
///
/// let a = Attribute::Int(42);
/// assert_eq!(a.as_int(), Some(42));
/// assert_eq!(a.to_string(), "42");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Attribute {
    /// A 64-bit integer constant.
    Int(i64),
    /// A string constant.
    Str(String),
    /// A boolean constant.
    Bool(bool),
    /// An ordered list of attributes.
    Array(Vec<Attribute>),
    /// The accfg effects marker.
    Effects(Effects),
}

impl Attribute {
    /// Returns the integer payload, if this is an [`Attribute::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attribute::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string payload, if this is an [`Attribute::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attribute::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is an [`Attribute::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Attribute::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the array payload, if this is an [`Attribute::Array`].
    pub fn as_array(&self) -> Option<&[Attribute]> {
        match self {
            Attribute::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the effects payload, if this is an [`Attribute::Effects`].
    pub fn as_effects(&self) -> Option<Effects> {
        match self {
            Attribute::Effects(e) => Some(*e),
            _ => None,
        }
    }

    /// Builds an array of string attributes (used for `accfg.setup` field
    /// name lists).
    pub fn str_array<I, S>(items: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Attribute::Array(
            items
                .into_iter()
                .map(|s| Attribute::Str(s.into()))
                .collect(),
        )
    }
}

impl From<i64> for Attribute {
    fn from(v: i64) -> Self {
        Attribute::Int(v)
    }
}

impl From<bool> for Attribute {
    fn from(v: bool) -> Self {
        Attribute::Bool(v)
    }
}

impl From<&str> for Attribute {
    fn from(v: &str) -> Self {
        Attribute::Str(v.to_string())
    }
}

impl From<String> for Attribute {
    fn from(v: String) -> Self {
        Attribute::Str(v)
    }
}

impl From<Effects> for Attribute {
    fn from(v: Effects) -> Self {
        Attribute::Effects(v)
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attribute::Int(v) => write!(f, "{v}"),
            Attribute::Str(s) => write!(f, "\"{}\"", escape(s)),
            Attribute::Bool(b) => write!(f, "{b}"),
            Attribute::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Attribute::Effects(e) => write!(f, "#accfg.effects<{e}>"),
        }
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// One attribute of a dictionary: its name and value.
type Entry = (Cow<'static, str>, Attribute);

/// An ordered attribute dictionary, keyed by attribute name.
///
/// Ordering is deterministic (lexicographic) so printed IR is stable, which
/// the printer/parser round-trip tests rely on. The names the dialects use
/// are literals and are stored as such; only a name read from IR text owns
/// its string.
///
/// Nearly every op that has attributes has exactly one (a constant's
/// `value`, a compare's `predicate`, a function's `sym_name`), so a map of
/// one holds its entry inline and allocates nothing; a second entry moves
/// the entries into a vector kept sorted by name.
#[derive(Clone, Default)]
pub struct AttrMap(Entries);

#[derive(Clone, Default)]
enum Entries {
    #[default]
    None,
    One(Entry),
    /// Strictly ascending by name.
    Many(Vec<Entry>),
}

impl AttrMap {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// `true` if the dictionary holds no attribute.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// The attribute called `name`, if present.
    pub fn get(&self, name: &str) -> Option<&Attribute> {
        let entries = self.entries();
        search(entries, name).ok().map(|at| &entries[at].1)
    }

    /// Sets attribute `name`, returning the value it replaced.
    pub fn insert(&mut self, name: Cow<'static, str>, value: Attribute) -> Option<Attribute> {
        let (entries, replaced) = match std::mem::take(&mut self.0) {
            Entries::None => (Entries::One((name, value)), None),
            Entries::One((held, old)) if held == name => (Entries::One((held, value)), Some(old)),
            Entries::One(first) => {
                let pair = if first.0 < name {
                    vec![first, (name, value)]
                } else {
                    vec![(name, value), first]
                };
                (Entries::Many(pair), None)
            }
            Entries::Many(mut entries) => {
                let replaced = match search(&entries, &name) {
                    Ok(at) => Some(std::mem::replace(&mut entries[at].1, value)),
                    Err(at) => {
                        entries.insert(at, (name, value));
                        None
                    }
                };
                (Entries::Many(entries), replaced)
            }
        };
        self.0 = entries;
        replaced
    }

    /// Removes attribute `name`, returning its value if it was present.
    pub fn remove(&mut self, name: &str) -> Option<Attribute> {
        let at = search(self.entries(), name).ok()?;
        match std::mem::take(&mut self.0) {
            Entries::Many(mut entries) => {
                let (_, value) = entries.remove(at);
                self.0 = Entries::Many(entries);
                Some(value)
            }
            Entries::One((_, value)) => Some(value),
            Entries::None => None,
        }
    }

    /// The attributes in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Attribute)> {
        self.entries()
            .iter()
            .map(|(name, value)| (name.as_ref(), value))
    }

    fn entries(&self) -> &[Entry] {
        match &self.0 {
            Entries::None => &[],
            Entries::One(entry) => std::slice::from_ref(entry),
            Entries::Many(entries) => entries,
        }
    }
}

/// Where `name` is (`Ok`) or would go (`Err`) in name-sorted `entries`.
fn search(entries: &[Entry], name: &str) -> Result<usize, usize> {
    entries.binary_search_by(|(held, _)| held.as_ref().cmp(name))
}

/// Equal dictionaries hold the same names with equal values, however each
/// stores them.
impl PartialEq for AttrMap {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl Eq for AttrMap {}

impl PartialOrd for AttrMap {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the (name, value) entries in name order, as a
/// `BTreeMap` of the same entries orders.
impl Ord for AttrMap {
    fn cmp(&self, other: &Self) -> Ordering {
        self.entries().cmp(other.entries())
    }
}

impl Hash for AttrMap {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries().hash(state);
    }
}

impl fmt::Debug for AttrMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn accessors() {
        assert_eq!(Attribute::Int(7).as_int(), Some(7));
        assert_eq!(Attribute::Int(7).as_str(), None);
        assert_eq!(Attribute::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Attribute::Bool(true).as_bool(), Some(true));
        assert_eq!(
            Attribute::Effects(Effects::All).as_effects(),
            Some(Effects::All)
        );
        let arr = Attribute::str_array(["a", "b"]);
        assert_eq!(arr.as_array().unwrap().len(), 2);
    }

    #[test]
    fn display_escapes_strings() {
        let a = Attribute::Str("he\"llo\\world".into());
        assert_eq!(a.to_string(), "\"he\\\"llo\\\\world\"");
    }

    #[test]
    fn display_arrays_and_effects() {
        let arr = Attribute::Array(vec![Attribute::Int(1), Attribute::Bool(false)]);
        assert_eq!(arr.to_string(), "[1, false]");
        assert_eq!(
            Attribute::Effects(Effects::None).to_string(),
            "#accfg.effects<none>"
        );
    }

    #[test]
    fn conversion_impls() {
        assert_eq!(Attribute::from(3i64), Attribute::Int(3));
        assert_eq!(Attribute::from(true), Attribute::Bool(true));
        assert_eq!(Attribute::from("s"), Attribute::Str("s".into()));
        assert_eq!(
            Attribute::from(Effects::None),
            Attribute::Effects(Effects::None)
        );
    }

    /// The dictionary's reference semantics: the ordered map it replaced.
    type Model = BTreeMap<Cow<'static, str>, Attribute>;

    /// Names in and out of lexicographic order, literal and owned.
    fn name(pick: u8) -> Cow<'static, str> {
        match pick % 6 {
            0 => Cow::Borrowed("value"),
            1 => Cow::Borrowed("callee"),
            2 => Cow::Owned("effects".to_string()),
            3 => Cow::Borrowed("name"),
            4 => Cow::Owned("value".to_string()),
            _ => Cow::Borrowed("a"),
        }
    }

    /// Applies `(insert?, name, value)` steps to both maps, checking every
    /// return value on the way.
    fn apply(steps: &[(bool, u8, i64)]) -> (AttrMap, Model) {
        let (mut map, mut model) = (AttrMap::new(), Model::new());
        for &(insert, pick, value) in steps {
            let key = name(pick);
            if insert {
                let want = model.insert(key.clone(), Attribute::Int(value));
                assert_eq!(map.insert(key, Attribute::Int(value)), want);
            } else {
                assert_eq!(map.remove(&key), model.remove(&key));
            }
            for probe in 0..6 {
                let probe = name(probe);
                assert_eq!(map.get(&probe), model.get(&probe), "get({probe})");
            }
            assert_eq!((map.len(), map.is_empty()), (model.len(), model.is_empty()));
            assert!(map.iter().eq(model.iter().map(|(k, v)| (k.as_ref(), v))));
        }
        (map, model)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_dictionary_behaves_as_an_ordered_map(
            a in prop::collection::vec((any::<bool>(), 0u8..6, 0i64..3), 0..12),
            b in prop::collection::vec((any::<bool>(), 0u8..6, 0i64..3), 0..12),
        ) {
            let (map_a, model_a) = apply(&a);
            let (map_b, model_b) = apply(&b);
            prop_assert_eq!(map_a == map_b, model_a == model_b);
            prop_assert_eq!(map_a.cmp(&map_b), model_a.cmp(&model_b));
            prop_assert_eq!(map_a.partial_cmp(&map_b), model_a.partial_cmp(&model_b));
            prop_assert_eq!(map_a.clone(), map_a);
        }
    }
}
