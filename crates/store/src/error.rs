//! Typed store failures.
//!
//! Errors are `Clone + PartialEq + Eq` so callers (notably
//! `accfg-runtime`'s `ServeError`) can embed them without giving up their
//! own derives; I/O failures are therefore carried as rendered strings
//! rather than as `std::io::Error` values.

use std::error::Error;
use std::fmt;

/// A persistent-store failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An operating-system I/O call failed.
    Io {
        /// What the store was doing (`"open"`, `"append"`, `"rename"`, ...).
        op: String,
        /// The file the operation targeted.
        path: String,
        /// The rendered OS error.
        message: String,
    },
    /// The file exists but does not start with [`MAGIC`](crate::MAGIC) —
    /// it is not an accfg store, or is one of a format this build does not
    /// read (`ACFGSTR1` and every other retired format included). The file
    /// is left untouched; the store is a cache, so deleting it starts cold.
    BadMagic {
        /// The offending file.
        path: String,
    },
    /// A record or typed payload failed to decode. Unlike a corrupt *tail*
    /// (which replay drops with a warning), a codec failure on a live value
    /// means the store holds data this build cannot interpret.
    Codec {
        /// What failed to decode.
        detail: String,
    },
}

impl StoreError {
    /// Builds an [`StoreError::Io`] from an OS error.
    pub fn io(op: &str, path: &std::path::Path, err: &std::io::Error) -> Self {
        StoreError::Io {
            op: op.to_string(),
            path: path.display().to_string(),
            message: err.to_string(),
        }
    }

    /// Builds a [`StoreError::Codec`].
    pub fn codec(detail: impl Into<String>) -> Self {
        StoreError::Codec {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, message } => {
                write!(f, "store {op} failed for {path}: {message}")
            }
            StoreError::BadMagic { path } => {
                write!(f, "{path} is not an accfg store (bad magic)")
            }
            StoreError::Codec { detail } => write!(f, "store payload corrupt: {detail}"),
        }
    }
}

impl Error for StoreError {}

/// A corrupt tail dropped during replay (satellite: truncated or
/// checksum-failing tail records are recovered from, not panicked on).
///
/// This is a *report*, not an error: the store opened successfully with
/// every record before the corruption, and the file was truncated back to
/// the last valid record so later appends start from a clean prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailCorruption {
    /// Byte offset of the first unusable record.
    pub offset: u64,
    /// How much of the file went with it: its length minus the valid
    /// prefix. A torn append drops a fraction of one record; a bit flip in
    /// the middle of the file drops every valid record behind it too.
    pub dropped_bytes: u64,
    /// Why replay stopped there.
    pub detail: String,
}

impl fmt::Display for TailCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dropped corrupt store tail at offset {} ({} bytes lost): {}",
            self.offset, self.dropped_bytes, self.detail
        )
    }
}
