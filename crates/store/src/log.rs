//! The on-disk store: a single append-only log file.
//!
//! File layout:
//!
//! ```text
//! +----------+----------------+----------------+ ...
//! | ACFGSTR1 | record | record | record | ...
//! +----------+----------------+----------------+ ...
//!
//! record := [payload_len: u32 LE] [fnv1a32(payload): u32 LE] [payload]
//! payload := [op: u8] [key_len: u32 LE] [key bytes] [value bytes]
//! op      := 0 (put) | 1 (remove tombstone)
//! ```
//!
//! Replay walks the records front to back applying last-write-wins into an
//! in-memory `BTreeMap`. A truncated or checksum-failing record can only be
//! the *tail* of an interrupted append, so replay stops there, reports the
//! drop via [`LogStore::recovery`], and truncates the file back to the last
//! valid record; everything before the corruption survives.
//!
//! Determinism contract: [`LogStore::put`] skips the append when the key
//! already holds the identical value, so re-running an identical workload
//! against an existing store leaves the file byte-for-byte unchanged, and
//! two identical runs against fresh stores produce byte-identical files.
//! Compaction is explicit ([`LogStore::compact`]) and rewrites live entries
//! in sorted key order — by default never triggered implicitly, so it
//! cannot perturb that contract mid-run. Deployments that prefer bounded
//! files over byte-stability can opt in to
//! [`LogStore::set_auto_compact`], which compacts after a
//! [`KeyValueStore::sync`] once the log has doubled past its last
//! compacted size; being keyed to sync points, it is still a
//! deterministic function of the workload.
//!
//! Every applied record also advances a logical *sequence number* (the
//! append age), and the store remembers each key's last-write sequence —
//! [`LogStore::evict_older_than`] uses it to drop cold entries (e.g. cost
//! models for shapes a serving mix stopped sending) without timestamps,
//! which would break run-to-run determinism.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::{StoreError, TailCorruption};
use crate::KeyValueStore;

/// First bytes of every store file; doubles as the format version.
pub const MAGIC: &[u8; 8] = b"ACFGSTR1";

const OP_PUT: u8 = 0;
const OP_REMOVE: u8 = 1;

/// 32-bit FNV-1a — enough to catch torn writes, with no dependency.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Appends one record to `out`: the payload is written in place after an
/// eight-byte header that is patched once its checksum is known.
fn encode_record(out: &mut Vec<u8>, op: u8, key: &[u8], value: &[u8]) {
    let payload_len = 1 + 4 + key.len() + value.len();
    out.reserve(8 + payload_len);
    let header = out.len();
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    out.push(op);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let checksum = fnv1a(&out[header + 8..]);
    out[header + 4..header + 8].copy_from_slice(&checksum.to_le_bytes());
}

/// Append-only log-structured key-value store backed by one file.
#[derive(Debug)]
pub struct LogStore {
    path: PathBuf,
    file: File,
    /// Key → (sequence number of its last write, value).
    index: BTreeMap<Vec<u8>, (u64, Vec<u8>)>,
    recovery: Option<TailCorruption>,
    /// Logical clock: one tick per applied record (replayed or appended).
    seq: u64,
    /// Compact automatically after a sync once the file doubles past
    /// `compact_baseline`. Off by default (byte-stability contract).
    auto_compact: bool,
    /// File size right after open or the last compaction.
    compact_baseline: u64,
}

impl LogStore {
    /// Opens (creating if absent) the store at `path` and replays its log.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, on a file that does not start with the store
    /// magic, or on a malformed record *body* (a record whose checksum
    /// passes but whose payload is self-inconsistent — that is corruption
    /// beyond a torn tail). A corrupt tail is not an error; see
    /// [`LogStore::recovery`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(StoreError::io("read", &path, &err)),
        };

        let mut index = BTreeMap::new();
        let mut seq = 0u64;
        let mut recovery = None;
        let valid_len;
        if bytes.is_empty() {
            fs::write(&path, MAGIC).map_err(|e| StoreError::io("create", &path, &e))?;
            valid_len = MAGIC.len() as u64;
        } else if bytes.len() < MAGIC.len() && MAGIC.starts_with(&bytes) {
            // a strict prefix of the magic is a torn initial create (the
            // process died mid-way through writing the header), not a
            // foreign file: rewrite the magic and recover an empty store
            fs::write(&path, MAGIC).map_err(|e| StoreError::io("create", &path, &e))?;
            valid_len = MAGIC.len() as u64;
            recovery = Some(TailCorruption {
                offset: bytes.len() as u64,
                detail: "truncated store magic".to_string(),
            });
        } else {
            if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
                return Err(StoreError::BadMagic {
                    path: path.display().to_string(),
                });
            }
            let mut offset = MAGIC.len();
            loop {
                if offset == bytes.len() {
                    break;
                }
                let corrupt = |detail: &str| TailCorruption {
                    offset: offset as u64,
                    detail: detail.to_string(),
                };
                if bytes.len() - offset < 8 {
                    recovery = Some(corrupt("truncated record header"));
                    break;
                }
                let payload_len =
                    u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
                let checksum =
                    u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
                if bytes.len() - offset - 8 < payload_len {
                    recovery = Some(corrupt("truncated record payload"));
                    break;
                }
                let payload = &bytes[offset + 8..offset + 8 + payload_len];
                if fnv1a(payload) != checksum {
                    recovery = Some(corrupt("record checksum mismatch"));
                    break;
                }
                Self::apply_payload(&mut index, &mut seq, payload)?;
                offset += 8 + payload_len;
            }
            valid_len = offset as u64;
        }

        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io("open", &path, &e))?;
        if recovery.is_some() {
            file.set_len(valid_len)
                .map_err(|e| StoreError::io("truncate", &path, &e))?;
        }
        Ok(Self {
            path,
            file,
            index,
            recovery,
            seq,
            auto_compact: false,
            compact_baseline: valid_len,
        })
    }

    /// Applies one checksum-verified payload to the index, advancing the
    /// logical clock and the key's last-write age.
    fn apply_payload(
        index: &mut BTreeMap<Vec<u8>, (u64, Vec<u8>)>,
        seq: &mut u64,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        // The checksum already matched, so a malformed payload here is not
        // a torn write — it is a record this build cannot interpret.
        let malformed = || StoreError::codec("record payload is self-inconsistent");
        if payload.len() < 5 {
            return Err(malformed());
        }
        let op = payload[0];
        let key_len = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
        if payload.len() - 5 < key_len {
            return Err(malformed());
        }
        let key = payload[5..5 + key_len].to_vec();
        let value = payload[5 + key_len..].to_vec();
        match op {
            OP_PUT => {
                *seq += 1;
                index.insert(key, (*seq, value));
            }
            OP_REMOVE => {
                *seq += 1;
                index.remove(&key);
            }
            _ => return Err(malformed()),
        }
        Ok(())
    }

    /// The logical clock: the number of records applied so far, counting
    /// both replayed and freshly appended ones. Identical-value puts are
    /// elided from the log and therefore do not tick it.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The sequence number of `key`'s last write, if the key is live.
    pub fn key_seq(&self, key: &[u8]) -> Option<u64> {
        self.index.get(key).map(|&(seq, _)| seq)
    }

    /// Opts in to (or out of) automatic compaction: after each
    /// [`KeyValueStore::sync`], the log is compacted once it has at least
    /// doubled past its size at open or last compaction. Off by default,
    /// because implicit rewrites void the byte-stability contract.
    pub fn set_auto_compact(&mut self, enabled: bool) {
        self.auto_compact = enabled;
    }

    /// Removes every live key last written before sequence `min_seq`,
    /// returning how many were evicted. Appends ordinary tombstones, so
    /// the space is reclaimed by the next [`LogStore::compact`].
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors while appending tombstones; already-evicted
    /// keys stay evicted.
    pub fn evict_older_than(&mut self, min_seq: u64) -> Result<usize, StoreError> {
        let cold: Vec<Vec<u8>> = self
            .index
            .iter()
            .filter(|(_, &(age, _))| age < min_seq)
            .map(|(key, _)| key.clone())
            .collect();
        for key in &cold {
            self.remove(key)?;
        }
        Ok(cold.len())
    }

    /// The file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The corrupt tail dropped during the last `open`, if any.
    pub fn recovery(&self) -> Option<&TailCorruption> {
        self.recovery.as_ref()
    }

    /// Rewrites the log to hold exactly the live entries, in sorted key
    /// order, dropping superseded records and tombstones. Atomic: writes a
    /// sibling `.compact` file, syncs it, then renames it over the log.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors; the original file is untouched until the
    /// final rename.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let tmp = self.path.with_extension("compact");
        let mut bytes = MAGIC.to_vec();
        for (key, (_, value)) in &self.index {
            encode_record(&mut bytes, OP_PUT, key, value);
        }
        fs::write(&tmp, &bytes).map_err(|e| StoreError::io("write", &tmp, &e))?;
        fs::rename(&tmp, &self.path).map_err(|e| StoreError::io("rename", &self.path, &e))?;
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| StoreError::io("open", &self.path, &e))?;
        self.recovery = None;
        // Renumber ages exactly as a reopen-and-replay of the compacted
        // file would: one put per live key, in sorted key order.
        self.seq = 0;
        for (age, _) in self.index.values_mut() {
            self.seq += 1;
            *age = self.seq;
        }
        self.compact_baseline = bytes.len() as u64;
        Ok(())
    }

    fn append(&mut self, op: u8, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let mut rec = Vec::new();
        encode_record(&mut rec, op, key, value);
        self.file
            .write_all(&rec)
            .map_err(|e| StoreError::io("append", &self.path, &e))
    }
}

impl KeyValueStore for LogStore {
    fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.index.get(key).map(|(_, value)| value.as_slice())
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        if self.get(key) == Some(value) {
            return Ok(()); // identical value: keep the file byte-stable
        }
        self.append(OP_PUT, key, value)?;
        self.seq += 1;
        self.index.insert(key.to_vec(), (self.seq, value.to_vec()));
        Ok(())
    }

    fn remove(&mut self, key: &[u8]) -> Result<(), StoreError> {
        if !self.index.contains_key(key) {
            return Ok(());
        }
        self.append(OP_REMOVE, key, &[])?;
        self.seq += 1;
        self.index.remove(key);
        Ok(())
    }

    fn keys_with_prefix(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        self.index
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file
            .sync_all()
            .map_err(|e| StoreError::io("sync", &self.path, &e))?;
        if self.auto_compact {
            let len = fs::metadata(&self.path)
                .map_err(|e| StoreError::io("stat", &self.path, &e))?
                .len();
            if len >= 2 * self.compact_baseline.max(64) {
                self.compact()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("accfg_store_unit");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}.log", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn replays_last_write_wins_across_reopen() {
        let path = temp_path("lww");
        {
            let mut store = LogStore::open(&path).unwrap();
            store.put(b"a", b"1").unwrap();
            store.put(b"b", b"2").unwrap();
            store.put(b"a", b"3").unwrap();
            store.remove(b"b").unwrap();
            store.sync().unwrap();
        }
        let store = LogStore::open(&path).unwrap();
        assert_eq!(store.get(b"a"), Some(&b"3"[..]));
        assert_eq!(store.get(b"b"), None);
        assert_eq!(store.len(), 1);
        assert!(store.recovery().is_none());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn identical_puts_leave_the_file_byte_stable() {
        let path = temp_path("stable");
        let mut store = LogStore::open(&path).unwrap();
        store.put(b"k", b"v").unwrap();
        store.sync().unwrap();
        let before = fs::read(&path).unwrap();
        store.put(b"k", b"v").unwrap();
        store.sync().unwrap();
        assert_eq!(fs::read(&path).unwrap(), before);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped_with_recovery_report() {
        let path = temp_path("trunc");
        {
            let mut store = LogStore::open(&path).unwrap();
            store.put(b"keep", b"me").unwrap();
            store.put(b"torn", b"write").unwrap();
            store.sync().unwrap();
        }
        // Tear the final record in half, as an interrupted append would.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let mut store = LogStore::open(&path).unwrap();
        assert_eq!(store.get(b"keep"), Some(&b"me"[..]));
        assert_eq!(store.get(b"torn"), None);
        let recovery = store.recovery().expect("tail drop must be reported");
        assert!(recovery.detail.contains("truncated"));

        // The file was truncated to the valid prefix, so appends resume
        // cleanly and a further reopen sees no corruption.
        store.put(b"torn", b"retry").unwrap();
        store.sync().unwrap();
        let store = LogStore::open(&path).unwrap();
        assert!(store.recovery().is_none());
        assert_eq!(store.get(b"torn"), Some(&b"retry"[..]));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_failing_tail_is_dropped() {
        let path = temp_path("cksum");
        {
            let mut store = LogStore::open(&path).unwrap();
            store.put(b"keep", b"me").unwrap();
            store.put(b"flip", b"bits").unwrap();
            store.sync().unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let store = LogStore::open(&path).unwrap();
        assert_eq!(store.get(b"keep"), Some(&b"me"[..]));
        assert_eq!(store.get(b"flip"), None);
        assert!(store
            .recovery()
            .expect("checksum drop must be reported")
            .detail
            .contains("checksum"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_an_error() {
        let path = temp_path("magic");
        fs::write(&path, b"definitely not a store file").unwrap();
        assert!(matches!(
            LogStore::open(&path),
            Err(StoreError::BadMagic { .. })
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_preserves_live_entries_and_shrinks_the_file() {
        let path = temp_path("compact");
        let mut store = LogStore::open(&path).unwrap();
        for round in 0..10u8 {
            store.put(b"hot", &[round]).unwrap();
        }
        store.put(b"dead", b"x").unwrap();
        store.remove(b"dead").unwrap();
        store.sync().unwrap();
        let before = fs::metadata(&path).unwrap().len();

        store.compact().unwrap();
        let after = fs::metadata(&path).unwrap().len();
        assert!(after < before);
        assert_eq!(store.get(b"hot"), Some(&[9u8][..]));
        assert_eq!(store.len(), 1);

        let store = LogStore::open(&path).unwrap();
        assert_eq!(store.get(b"hot"), Some(&[9u8][..]));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seq_ages_and_eviction_survive_reopen() {
        let path = temp_path("evict");
        {
            let mut store = LogStore::open(&path).unwrap();
            store.put(b"old", b"1").unwrap(); // seq 1
            store.put(b"mid", b"2").unwrap(); // seq 2
            store.put(b"new", b"3").unwrap(); // seq 3
            store.put(b"new", b"3").unwrap(); // elided: no tick
            assert_eq!(store.seq(), 3);
            assert_eq!(store.key_seq(b"old"), Some(1));
            store.sync().unwrap();
        }
        // Reopen replays the same records, so the clock and ages match.
        let mut store = LogStore::open(&path).unwrap();
        assert_eq!(store.seq(), 3);
        assert_eq!(store.key_seq(b"mid"), Some(2));

        let evicted = store.evict_older_than(3).unwrap();
        assert_eq!(evicted, 2);
        assert_eq!(store.get(b"old"), None);
        assert_eq!(store.get(b"mid"), None);
        assert_eq!(store.get(b"new"), Some(&b"3"[..]));
        // Tombstones tick the clock too (seq 4 and 5).
        assert_eq!(store.seq(), 5);
        assert_eq!(store.evict_older_than(3).unwrap(), 0);

        store.sync().unwrap();
        let store = LogStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(b"new"), Some(&b"3"[..]));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn auto_compact_shrinks_a_churning_log_after_sync() {
        let path = temp_path("autocompact");
        let mut store = LogStore::open(&path).unwrap();
        store.set_auto_compact(true);
        for round in 0..200u32 {
            store.put(b"churn", &round.to_le_bytes()).unwrap();
            store.sync().unwrap();
        }
        // Without compaction the file would hold 200 records (> 4 KiB);
        // auto-compaction keeps it near one live record.
        let len = fs::metadata(&path).unwrap().len();
        assert!(len < 512, "auto-compaction left {len} bytes");
        assert_eq!(store.get(b"churn"), Some(&199u32.to_le_bytes()[..]));

        // Ages were renumbered to match what a reopen replays.
        assert_eq!(store.key_seq(b"churn"), Some(store.seq()));
        let reopened = LogStore::open(&path).unwrap();
        assert_eq!(reopened.key_seq(b"churn"), Some(reopened.seq()));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_without_opt_in_never_rewrites_the_file() {
        let path = temp_path("no_autocompact");
        let mut store = LogStore::open(&path).unwrap();
        for round in 0..50u32 {
            store.put(b"churn", &round.to_le_bytes()).unwrap();
        }
        store.sync().unwrap();
        let grown = fs::metadata(&path).unwrap().len();
        store.sync().unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), grown);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn prefix_scan_is_sorted() {
        let path = temp_path("prefix");
        let mut store = LogStore::open(&path).unwrap();
        store.put(b"m/b", b"1").unwrap();
        store.put(b"m/a", b"2").unwrap();
        store.put(b"c/a", b"3").unwrap();
        assert_eq!(
            store.keys_with_prefix(b"m/"),
            vec![b"m/a".to_vec(), b"m/b".to_vec()]
        );
        assert!(store.keys_with_prefix(b"z").is_empty());
        fs::remove_file(&path).unwrap();
    }
}
