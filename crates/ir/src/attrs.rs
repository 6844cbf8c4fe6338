//! Attributes: compile-time constant metadata attached to operations.
//!
//! Includes the paper's `#accfg.effects<...>` attribute (Section 5.1), the
//! escape hatch that tells the accfg passes whether an opaque operation
//! preserves or clobbers accelerator configuration state.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

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

/// An ordered attribute dictionary, keyed by attribute name.
///
/// Ordering is deterministic (lexicographic) so printed IR is stable, which
/// the printer/parser round-trip tests rely on. The names the dialects use
/// are literals and are stored as such; only a name read from IR text owns
/// its string.
pub type AttrMap = BTreeMap<Cow<'static, str>, Attribute>;

#[cfg(test)]
mod tests {
    use super::*;

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
}
