//! The type system of the IR.
//!
//! Mirrors the small slice of MLIR's builtin + `accfg` type systems that the
//! paper's abstraction needs: fixed-width integers, `index`, and the two
//! accelerator-specific types `!accfg.state<"name">` and
//! `!accfg.token<"name">` introduced in Section 5.1 of the paper.

use std::fmt;
use std::sync::Arc;

/// An IR value type.
///
/// The accelerator name of a state or token type is a shared string, so
/// cloning any type allocates nothing; a module hands out types over its
/// own interned copy of the name ([`Module::state_type`],
/// [`Module::token_type`]).
///
/// [`Module::state_type`]: crate::Module::state_type
/// [`Module::token_type`]: crate::Module::token_type
///
/// # Examples
///
/// ```
/// use accfg_ir::Type;
///
/// let state = Type::state("gemmini");
/// assert!(state.is_state());
/// assert_eq!(state.accelerator(), Some("gemmini"));
/// assert_eq!(state.to_string(), "!accfg.state<\"gemmini\">");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// 1-bit integer (booleans, comparison results).
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// Platform-width index type (loop bounds, sizes, addresses).
    Index,
    /// `!accfg.state<"accel">`: the configuration-register state of an
    /// accelerator after a `accfg.setup`.
    State(Arc<str>),
    /// `!accfg.token<"accel">`: an in-flight computation produced by
    /// `accfg.launch`, consumed by `accfg.await`.
    Token(Arc<str>),
}

impl Type {
    /// Builds a `!accfg.state` type for the named accelerator.
    pub fn state(accelerator: impl Into<Arc<str>>) -> Self {
        Type::State(accelerator.into())
    }

    /// Builds a `!accfg.token` type for the named accelerator.
    pub fn token(accelerator: impl Into<Arc<str>>) -> Self {
        Type::Token(accelerator.into())
    }

    /// Returns `true` for any fixed-width integer or `index` type.
    pub fn is_integer_like(&self) -> bool {
        matches!(
            self,
            Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64 | Type::Index
        )
    }

    /// Returns `true` for `!accfg.state` types.
    pub fn is_state(&self) -> bool {
        matches!(self, Type::State(_))
    }

    /// Returns `true` for `!accfg.token` types.
    pub fn is_token(&self) -> bool {
        matches!(self, Type::Token(_))
    }

    /// The accelerator name carried by a state or token type, if any.
    pub fn accelerator(&self) -> Option<&str> {
        match self {
            Type::State(a) | Type::Token(a) => Some(&**a),
            _ => None,
        }
    }

    /// Bit width of an integer-like type. `index` is modeled as 64 bits,
    /// matching the RV64 hosts in the paper.
    ///
    /// Returns `None` for non-integer types.
    pub fn bit_width(&self) -> Option<u32> {
        match self {
            Type::I1 => Some(1),
            Type::I8 => Some(8),
            Type::I16 => Some(16),
            Type::I32 => Some(32),
            Type::I64 | Type::Index => Some(64),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::I1 => write!(f, "i1"),
            Type::I8 => write!(f, "i8"),
            Type::I16 => write!(f, "i16"),
            Type::I32 => write!(f, "i32"),
            Type::I64 => write!(f, "i64"),
            Type::Index => write!(f, "index"),
            Type::State(a) => write!(f, "!accfg.state<\"{a}\">"),
            Type::Token(a) => write!(f, "!accfg.token<\"{a}\">"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_widths() {
        assert_eq!(Type::I1.bit_width(), Some(1));
        assert_eq!(Type::I8.bit_width(), Some(8));
        assert_eq!(Type::I16.bit_width(), Some(16));
        assert_eq!(Type::I32.bit_width(), Some(32));
        assert_eq!(Type::I64.bit_width(), Some(64));
        assert_eq!(Type::Index.bit_width(), Some(64));
        assert_eq!(Type::state("x").bit_width(), None);
    }

    #[test]
    fn state_and_token_carry_accelerator_names() {
        let s = Type::state("opengemm");
        let t = Type::token("opengemm");
        assert!(s.is_state() && !s.is_token());
        assert!(t.is_token() && !t.is_state());
        assert_eq!(s.accelerator(), Some("opengemm"));
        assert_eq!(t.accelerator(), Some("opengemm"));
        assert_eq!(Type::I64.accelerator(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::Index.to_string(), "index");
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::token("acc").to_string(), "!accfg.token<\"acc\">");
    }

    #[test]
    fn integer_like_classification() {
        for t in [
            Type::I1,
            Type::I8,
            Type::I16,
            Type::I32,
            Type::I64,
            Type::Index,
        ] {
            assert!(t.is_integer_like());
        }
        assert!(!Type::state("a").is_integer_like());
        assert!(!Type::token("a").is_integer_like());
    }
}
