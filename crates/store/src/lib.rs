//! `accfg-store`: durable state for fleet warm starts.
//!
//! The paper's configuration wall is paid twice per process today: once as
//! setup writes (elided by delta dispatch) and once as compile plus
//! cost-model cold starts that every process re-learns from scratch. This
//! crate is the substrate that lets a fleet remember — a dependency-free,
//! log-structured, append-only key-value store that `accfg-runtime` layers
//! its module and cost snapshots on top of:
//!
//! - [`KeyValueStore`] — the storage trait (byte keys, byte values,
//!   batched puts, sorted prefix scans, explicit `sync`);
//! - [`LogStore`] — the on-disk implementation: one file of
//!   length-prefixed, checksummed records replayed last-write-wins on
//!   open, with explicit [`LogStore::compact`] and torn-tail recovery
//!   (see [`TailCorruption`]). There is one file format, named by
//!   [`MAGIC`]; a file with any other header is refused with
//!   [`StoreError::BadMagic`];
//! - [`MemStore`] — an in-memory implementation for tests and scratch use;
//! - [`ByteWriter`] / [`ByteReader`] — the canonical varint codec the
//!   typed layers encode their payloads with, and [`ByteCounter`], the
//!   [`Encoder`] that counts what a writer would hold.
//!
//! Everything here is deliberately deterministic: encoding is canonical,
//! scans are sorted, rewriting an identical value is a no-op append. Two
//! identical runs therefore produce byte-identical store files — the
//! property the runtime's persistence tests pin.

#![warn(missing_docs)]

mod codec;
mod error;
mod log;
mod mem;

pub use codec::{ByteCounter, ByteReader, ByteWriter, Encoder};
pub use error::{StoreError, TailCorruption};
pub use log::{LogStore, MAGIC};
pub use mem::MemStore;

/// Takes one `(key, value)` row of a [`KeyValueStore::put_all`] batch.
pub type Sink<'a> = dyn FnMut(&[u8], &[u8]) -> Result<(), StoreError> + 'a;

/// Hands a [`KeyValueStore::put_all`] batch's rows, in any order, to the
/// sink it is called with.
pub type Producer<'a> = dyn FnMut(&mut Sink<'_>) -> Result<(), StoreError> + 'a;

/// Byte-oriented key-value storage with sorted scans.
///
/// Implementations must keep scans in ascending byte order and treat
/// re-putting an identical value as observably idempotent; the runtime's
/// determinism contract (identical runs yield byte-identical store files)
/// relies on both.
pub trait KeyValueStore {
    /// The stored value for `key`, if any.
    fn get(&self, key: &[u8]) -> Option<&[u8]>;

    /// Stores `value` under `key`, replacing any previous value.
    ///
    /// # Errors
    /// Fails only on I/O errors in durable implementations.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;

    /// Stores the batch of `(key, value)` rows `produce` hands its sink,
    /// leaving the store as [`put`](KeyValueStore::put) of each row, in
    /// order, would: a later row for a key replaces an earlier one, and a
    /// row whose value the key already holds — stored, or set by an
    /// earlier row of the batch — is elided. Rows may come in any order; a
    /// batch sorted by key is the one an implementation can file in one
    /// pass. The producer states the batch up front — at most `rows` rows
    /// holding at most `bytes` key and value bytes — so an implementation
    /// can make room for it once; a batch past either figure is stored
    /// all the same. A row's slices need only live until the sink
    /// returns, so a producer can encode every value into one buffer.
    ///
    /// The default loops `put`, so a failure — of a `put` or of `produce`
    /// itself — may leave a prefix of the batch stored. [`LogStore`]
    /// appends the whole batch in one write, and if either fails stores
    /// none of it.
    ///
    /// # Errors
    /// An error `produce` returns, or an I/O error of a durable
    /// implementation.
    fn put_all(
        &mut self,
        rows: usize,
        bytes: usize,
        produce: &mut Producer<'_>,
    ) -> Result<(), StoreError> {
        let _ = (rows, bytes);
        produce(&mut |key, value| self.put(key, value))
    }

    /// Removes `key`; removing an absent key is a no-op.
    ///
    /// # Errors
    /// Fails only on I/O errors in durable implementations.
    fn remove(&mut self, key: &[u8]) -> Result<(), StoreError>;

    /// All live keys beginning with `prefix`, in ascending byte order.
    fn keys_with_prefix(&self, prefix: &[u8]) -> Vec<Vec<u8>>;

    /// Number of live entries.
    fn len(&self) -> usize;

    /// `true` if the store holds no live entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes buffered writes to durable storage (no-op by default).
    ///
    /// # Errors
    /// Fails only on I/O errors in durable implementations.
    fn sync(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}
