//! The on-disk store: a single append-only log file, held in memory as
//! one verified image.
//!
//! File layout (both format versions):
//!
//! ```text
//! +----------+--------+--------+--------+ ...
//! |  magic   | record | record | record | ...
//! +----------+--------+--------+--------+ ...
//!
//! magic   := "ACFGSTR2" | "ACFGSTR1"
//! record  := [payload_len: u32 LE] [checksum(payload): u32 LE] [payload]
//! payload := [op: u8] [key_len: u32 LE] [key bytes] [value bytes]
//! op      := 0 (put) | 1 (remove tombstone)
//! ```
//!
//! The magic selects the record checksum for the *whole* file and for as
//! long as the file lives: [`MAGIC`] (`ACFGSTR2`, what a new store is
//! created with) uses the word-parallel sum defined below, [`MAGIC_V1`]
//! (`ACFGSTR1`, every file written before the v2 format) uses 32-bit
//! FNV-1a. A v1 file keeps opening and keeps *appending* v1 records, so
//! the bytes an old deployment's file grows by do not depend on which
//! build serves it; a file never mixes formats, and only
//! [`LogStore::compact`] — which rewrites the file anyway — moves one to
//! v2.
//!
//! # The v2 checksum
//!
//! FNV-1a is one multiply per *byte* on a single dependency chain
//! (~0.7 GB/s), which made checksumming the file most of
//! [`LogStore::open`]. The v2 sum reads the payload as little-endian
//! `u64` words, the last one zero-padded, and sends word `j` to lane
//! `j mod 4` of four independent 64-bit lanes:
//!
//! ```text
//! lane[i] := rotl64((lane[i] ^ word) * LANE_MUL[i], 29)     lane[i] starts at LANE_SEED[i]
//! ```
//!
//! The lanes share no data, so the four multiplies overlap and the loop
//! runs at memory speed. The payload length and then the four lanes, in
//! order, are folded through the same step (multiplier `FOLD_MUL`), and
//! the result is avalanched (`x ^= x >> 32; x *= FOLD_MUL; x ^= x >> 29`)
//! and its two halves xored into the 32-bit sum. Every step is a
//! bijection of the lane state, so two equal-length payloads differing
//! in one word leave that word's lane different; the length fold
//! separates a zero-padded tail from real trailing zeros; lanes have
//! distinct multipliers and the fold is ordered, so moving a word to
//! another position changes the sum. The definition is frozen by the
//! known-answer test in this file — changing it orphans every v2 file.
//!
//! It is meant to catch what a log on a local disk actually suffers: a
//! torn append (the process or machine died mid-`write`), a truncated
//! file, flipped or zeroed bytes. Like FNV-1a before it, it is **not** a
//! MAC: it is unkeyed, 32 bits wide (a random corruption passes with
//! probability 2⁻³²), and offers nothing against someone who can write
//! the file.
//!
//! # Replay, the image and the index
//!
//! [`LogStore::open`] reads the file into one `Vec<u8>` — the *image* —
//! and walks its records front to back, verifying **every** record's
//! checksum before applying it last-write-wins to a `BTreeMap` from key
//! to `(sequence number, value range in the image)`. Values are never
//! copied out: [`KeyValueStore::get`] returns a slice of the image, and
//! since only verified records are indexed, no unverified byte is
//! reachable through the trait. A truncated or checksum-failing record
//! can only be the *tail* of an interrupted append, so replay stops
//! there, reports the drop via [`LogStore::recovery`], and truncates
//! image and file back to the last valid record; everything before the
//! corruption survives. `put` / `remove` encode the new record at the end
//! of the image and write exactly those bytes to the file; if the write
//! fails the image is truncated back, so image and index never run ahead
//! of the file. The image is therefore always the file's valid content,
//! superseded records and tombstones included: the store's heap footprint
//! is the file size (plus keys) until [`LogStore::compact`] swaps in the
//! rewritten image.
//!
//! Determinism contract: [`LogStore::put`] skips the append when the key
//! already holds the identical value, so re-running an identical workload
//! against an existing store leaves the file byte-for-byte unchanged, and
//! two identical runs against fresh stores produce byte-identical files.
//! Compaction is explicit ([`LogStore::compact`]) and rewrites live entries
//! in sorted key order — never triggered implicitly, so it cannot perturb
//! that contract mid-run.
//!
//! Every applied record also advances a logical *sequence number* (the
//! append age), and the store remembers each key's last-write sequence
//! ([`LogStore::seq`], [`LogStore::key_seq`]) — an age without
//! timestamps, which would break run-to-run determinism.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::error::{StoreError, TailCorruption};
use crate::KeyValueStore;

/// First bytes of every store file this build creates; doubles as the
/// format version (v2: word-parallel record checksum).
pub const MAGIC: &[u8; 8] = b"ACFGSTR2";

/// First bytes of a v1 store file (FNV-1a record checksum). Such files
/// still open, and keep appending v1 records until compacted.
pub const MAGIC_V1: &[u8; 8] = b"ACFGSTR1";

const OP_PUT: u8 = 0;
const OP_REMOVE: u8 = 1;

/// Bytes before a record's payload: its length and its checksum.
const RECORD_HEADER: usize = 8;

/// A file's format version: which function checksums its records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    V1,
    V2,
}

impl Format {
    /// The format a file starting with `bytes` declares, if any.
    fn of(bytes: &[u8]) -> Option<Self> {
        match bytes.first_chunk::<8>()? {
            MAGIC => Some(Format::V2),
            MAGIC_V1 => Some(Format::V1),
            _ => None,
        }
    }

    fn checksum(self, payload: &[u8]) -> u32 {
        match self {
            Format::V1 => fnv1a(payload),
            Format::V2 => lane_sum(payload),
        }
    }
}

/// 32-bit FNV-1a, the v1 record checksum.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

const LANES: usize = 4;
const LANE_SEED: [u64; LANES] = [
    0x6A09_E667_F3BC_C908,
    0xBB67_AE85_84CA_A73B,
    0x3C6E_F372_FE94_F82B,
    0xA54F_F53A_5F1D_36F1,
];
const LANE_MUL: [u64; LANES] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
];
const FOLD_MUL: u64 = 0x27D4_EB2F_1656_67C5;

/// One lane update: a bijection of `lane` for any `word` and odd `mul`.
#[inline(always)]
fn lane_step(lane: u64, word: u64, mul: u64) -> u64 {
    (lane ^ word).wrapping_mul(mul).rotate_left(29)
}

/// The v2 record checksum (defined in the module docs).
fn lane_sum(payload: &[u8]) -> u32 {
    let mut lanes = LANE_SEED;
    let mut blocks = payload.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word = block[8 * i..8 * i + 8]
                .try_into()
                .expect("an eight-byte slice of a full block");
            *lane = lane_step(*lane, u64::from_le_bytes(word), LANE_MUL[i]);
        }
    }
    // fewer than four words remain: whole ones continue down the lanes,
    // a partial last one is zero-padded
    for (i, bytes) in blocks.remainder().chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        lanes[i] = lane_step(lanes[i], u64::from_le_bytes(word), LANE_MUL[i]);
    }
    let mut sum = lanes.iter().fold(payload.len() as u64, |sum, &lane| {
        lane_step(sum, lane, FOLD_MUL)
    });
    sum ^= sum >> 32;
    sum = sum.wrapping_mul(FOLD_MUL);
    sum ^= sum >> 29;
    (sum ^ (sum >> 32)) as u32
}

/// Appends one record to `out` — the payload written in place after a
/// header that is patched once its checksum is known — and returns where
/// in `out` the value landed.
fn encode_record(
    out: &mut Vec<u8>,
    format: Format,
    op: u8,
    key: &[u8],
    value: &[u8],
) -> Range<usize> {
    let payload_len = 1 + 4 + key.len() + value.len();
    out.reserve(RECORD_HEADER + payload_len);
    let header = out.len();
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    out.push(op);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let checksum = format.checksum(&out[header + RECORD_HEADER..]);
    out[header + 4..header + RECORD_HEADER].copy_from_slice(&checksum.to_le_bytes());
    out.len() - value.len()..out.len()
}

/// What the index holds per live key.
#[derive(Debug)]
struct Entry {
    /// Sequence number of the key's last write.
    seq: u64,
    /// Where in the image its value lies.
    value: Range<usize>,
}

type Index = BTreeMap<Vec<u8>, Entry>;

/// Append-only log-structured key-value store backed by one file.
#[derive(Debug)]
pub struct LogStore {
    path: PathBuf,
    file: File,
    /// Which checksum this file's records carry (fixed by its magic).
    format: Format,
    /// The file's verified content: magic, then every valid record.
    image: Vec<u8>,
    index: Index,
    recovery: Option<TailCorruption>,
    /// Logical clock: one tick per applied record (replayed or appended).
    seq: u64,
}

impl LogStore {
    /// Opens (creating if absent, as a v2 file) the store at `path`,
    /// verifies every record's checksum and replays the log.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, on a file that starts with neither store
    /// magic, or on a malformed record *body* (a record whose checksum
    /// passes but whose payload is self-inconsistent — that is corruption
    /// beyond a torn tail). A corrupt tail is not an error; see
    /// [`LogStore::recovery`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut image = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(StoreError::io("read", &path, &err)),
        };

        let mut recovery = None;
        let format = match Format::of(&image) {
            Some(format) => format,
            // an empty file is a clean create; a strict prefix of the
            // magic (the versions differ only in its last byte) is a torn
            // initial create — the process died mid-way through writing
            // the header — not a foreign file: recover an empty store
            None if image.len() < MAGIC.len() && MAGIC.starts_with(&image) => {
                fs::write(&path, MAGIC).map_err(|e| StoreError::io("create", &path, &e))?;
                if !image.is_empty() {
                    recovery = Some(TailCorruption {
                        offset: image.len() as u64,
                        dropped_bytes: image.len() as u64,
                        detail: "truncated store magic".to_string(),
                    });
                }
                image = MAGIC.to_vec();
                Format::V2
            }
            None => {
                return Err(StoreError::BadMagic {
                    path: path.display().to_string(),
                })
            }
        };

        let mut index = Index::new();
        let mut seq = 0u64;
        let mut offset = MAGIC.len();
        while offset < image.len() {
            let torn = |detail: &str| TailCorruption {
                offset: offset as u64,
                dropped_bytes: (image.len() - offset) as u64,
                detail: detail.to_string(),
            };
            let Some((header, rest)) = image[offset..].split_first_chunk::<RECORD_HEADER>() else {
                recovery = Some(torn("truncated record header"));
                break;
            };
            let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
            let payload_len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
            let checksum = u32::from_le_bytes([c0, c1, c2, c3]);
            let Some(payload) = rest.get(..payload_len) else {
                recovery = Some(torn("truncated record payload"));
                break;
            };
            if format.checksum(payload) != checksum {
                recovery = Some(torn("record checksum mismatch"));
                break;
            }
            offset += RECORD_HEADER;
            Self::apply_payload(&mut index, &mut seq, payload, offset)?;
            offset += payload_len;
        }
        image.truncate(offset);

        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io("open", &path, &e))?;
        if recovery.is_some() {
            file.set_len(image.len() as u64)
                .map_err(|e| StoreError::io("truncate", &path, &e))?;
        }
        Ok(Self {
            path,
            file,
            format,
            image,
            index,
            recovery,
            seq,
        })
    }

    /// Applies one checksum-verified payload, which starts at `at` in the
    /// image, to the index, advancing the logical clock and the key's
    /// last-write age.
    fn apply_payload(
        index: &mut Index,
        seq: &mut u64,
        payload: &[u8],
        at: usize,
    ) -> Result<(), StoreError> {
        // The checksum already matched, so a malformed payload here is not
        // a torn write — it is a record this build cannot interpret.
        let malformed = || StoreError::codec("record payload is self-inconsistent");
        let (&op, rest) = payload.split_first().ok_or_else(malformed)?;
        let (key_len, rest) = rest.split_first_chunk::<4>().ok_or_else(malformed)?;
        let key_len = u32::from_le_bytes(*key_len) as usize;
        let key = rest.get(..key_len).ok_or_else(malformed)?;
        match op {
            OP_PUT => {
                *seq += 1;
                let value = at + 5 + key_len..at + payload.len();
                index.insert(key.to_vec(), Entry { seq: *seq, value });
            }
            OP_REMOVE => {
                *seq += 1;
                index.remove(key);
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
        self.index.get(key).map(|entry| entry.seq)
    }

    /// The file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The corrupt tail dropped during the last `open`, if any.
    pub fn recovery(&self) -> Option<&TailCorruption> {
        self.recovery.as_ref()
    }

    /// Rewrites the log — as a v2 file, whatever it was — to hold exactly
    /// the live entries, in sorted key order, dropping superseded records
    /// and tombstones. Atomic: writes a sibling `.compact` file, then
    /// renames it over the log.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors; the original file is untouched until the
    /// final rename.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let tmp = self.path.with_extension("compact");
        let mut image = MAGIC.to_vec();
        let values: Vec<Range<usize>> = self
            .index
            .iter()
            .map(|(key, entry)| {
                let value = &self.image[entry.value.clone()];
                encode_record(&mut image, Format::V2, OP_PUT, key, value)
            })
            .collect();
        fs::write(&tmp, &image).map_err(|e| StoreError::io("write", &tmp, &e))?;
        fs::rename(&tmp, &self.path).map_err(|e| StoreError::io("rename", &self.path, &e))?;
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| StoreError::io("open", &self.path, &e))?;
        self.format = Format::V2;
        self.image = image;
        self.recovery = None;
        // Renumber ages exactly as a reopen-and-replay of the compacted
        // file would: one put per live key, in sorted key order.
        self.seq = 0;
        for (entry, value) in self.index.values_mut().zip(values) {
            self.seq += 1;
            *entry = Entry {
                seq: self.seq,
                value,
            };
        }
        Ok(())
    }

    /// Encodes one record at the end of the image and appends exactly
    /// those bytes to the file, returning where the value lies. On a
    /// failed write the image is cut back (and the file too, as far as it
    /// lets us), so neither the image nor the caller's index update runs
    /// ahead of the file.
    fn append(&mut self, op: u8, key: &[u8], value: &[u8]) -> Result<Range<usize>, StoreError> {
        let start = self.image.len();
        let value = encode_record(&mut self.image, self.format, op, key, value);
        if let Err(err) = self.file.write_all(&self.image[start..]) {
            self.image.truncate(start);
            let _ = self.file.set_len(start as u64);
            return Err(StoreError::io("append", &self.path, &err));
        }
        Ok(value)
    }
}

impl KeyValueStore for LogStore {
    fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.index
            .get(key)
            .map(|entry| &self.image[entry.value.clone()])
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        if self.get(key) == Some(value) {
            return Ok(()); // identical value: keep the file byte-stable
        }
        let value = self.append(OP_PUT, key, value)?;
        self.seq += 1;
        let entry = Entry {
            seq: self.seq,
            value,
        };
        self.index.insert(key.to_vec(), entry);
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
            .map_err(|e| StoreError::io("sync", &self.path, &e))
    }
}

#[cfg(test)]
mod model_tests;

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn temp_path(name: &str) -> PathBuf {
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
    fn seq_ages_survive_reopen() {
        let path = temp_path("seq_ages");
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
        // A tombstone ticks the clock too.
        store.remove(b"old").unwrap();
        assert_eq!(store.seq(), 4);
        assert_eq!(store.key_seq(b"old"), None);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_never_rewrites_the_file() {
        let path = temp_path("sync_stable");
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

    /// The byte pattern the known-answer vectors are taken over.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn lane_sum_known_answers() {
        // computed independently from the definition in the module docs;
        // a change here orphans every v2 file ever written
        for (len, sum) in [
            (0, 0xffe6_d867),
            (1, 0xf476_7be7),
            (7, 0xaf28_6c6e),
            (8, 0x0e97_249f),
            (31, 0x44a5_76a1),
            (32, 0x31d0_75f8),
            (33, 0x9e29_af73),
            (4096, 0x283a_0041u32),
        ] {
            assert_eq!(lane_sum(&pattern(len)), sum, "{len} bytes");
        }
        // and the v1 function is still FNV-1a (its published test vector)
        assert_eq!(fnv1a(b"foobar"), 0xbf9c_f968);
    }

    #[test]
    fn lane_sum_tells_near_identical_payloads_apart() {
        let base = pattern(100);
        let sum = lane_sum(&base);
        for bit in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(lane_sum(&flipped), sum, "bit {bit}");
        }
        // length only: zero padding is not trailing zeros
        for len in 0..72 {
            assert_ne!(
                lane_sum(&vec![0; len]),
                lane_sum(&vec![0; len + 1]),
                "{len} zero bytes"
            );
        }
        // two aligned words swapped: across lanes (words 0 and 1) and
        // within one lane (words 0 and 4)
        for (a, b) in [(0, 1), (0, 4), (5, 11)] {
            let mut swapped = base.clone();
            for i in 0..8 {
                swapped.swap(8 * a + i, 8 * b + i);
            }
            assert_ne!(lane_sum(&swapped), sum, "words {a} and {b}");
        }
    }

    #[test]
    fn tail_corruption_says_how_much_went_with_it() {
        let path = temp_path("dropped");
        {
            let mut store = LogStore::open(&path).unwrap();
            for round in 0..100u32 {
                store.put(&round.to_le_bytes(), &[7; 64]).unwrap();
            }
        }
        let clean = fs::read(&path).unwrap();

        // a torn append: three stray bytes behind the last record
        let mut torn = clean.clone();
        torn.extend_from_slice(b"\x09\x00\x00");
        fs::write(&path, &torn).unwrap();
        let store = LogStore::open(&path).unwrap();
        let recovery = store.recovery().expect("torn tail reported");
        assert_eq!(recovery.offset, clean.len() as u64);
        assert_eq!(recovery.dropped_bytes, 3);
        assert!(recovery.to_string().contains("(3 bytes lost)"));
        assert_eq!(store.len(), 100);
        drop(store);

        // a bit flip in the first record takes every later record with it
        let mut flipped = clean.clone();
        flipped[MAGIC.len() + RECORD_HEADER] ^= 1;
        fs::write(&path, &flipped).unwrap();
        let store = LogStore::open(&path).unwrap();
        let recovery = store.recovery().expect("mid-file corruption reported");
        assert_eq!(recovery.offset, MAGIC.len() as u64);
        assert_eq!(recovery.dropped_bytes, (clean.len() - MAGIC.len()) as u64);
        assert!(store.is_empty());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_append_leaves_image_and_index_behind_the_file() {
        let path = temp_path("failed_append");
        let mut store = LogStore::open(&path).unwrap();
        store.put(b"k", b"old").unwrap();
        let before = fs::read(&path).unwrap();

        // a read-only handle: every write through it fails
        let append_handle = std::mem::replace(&mut store.file, File::open(&path).unwrap());
        assert!(matches!(
            store.put(b"k", b"new"),
            Err(StoreError::Io { .. })
        ));
        assert!(matches!(store.remove(b"k"), Err(StoreError::Io { .. })));
        assert_eq!(store.get(b"k"), Some(&b"old"[..]));
        assert_eq!((store.seq(), store.key_seq(b"k")), (1, Some(1)));
        assert_eq!(store.image, before);
        assert_eq!(fs::read(&path).unwrap(), before);

        // the store is still usable once writes go through again
        store.file = append_handle;
        store.put(b"k", b"new").unwrap();
        assert_eq!(store.image, fs::read(&path).unwrap());
        let reopened = LogStore::open(&path).unwrap();
        assert!(reopened.recovery().is_none());
        assert_eq!(reopened.get(b"k"), Some(&b"new"[..]));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_file_keeps_its_format_until_compacted() {
        // a new file is v2 …
        let path = temp_path("formats");
        drop(LogStore::open(&path).unwrap());
        assert_eq!(fs::read(&path).unwrap(), MAGIC);

        // … a v1 file takes v1 appends, across reopens
        fs::write(&path, MAGIC_V1).unwrap();
        for round in 0..3u8 {
            let mut store = LogStore::open(&path).unwrap();
            assert!(store.recovery().is_none());
            assert_eq!(store.len(), usize::from(round));
            store.put(&[b'k', round], &[round; 40]).unwrap();
        }
        let bytes = fs::read(&path).unwrap();
        assert!(bytes.starts_with(MAGIC_V1));
        let mut offset = MAGIC_V1.len();
        while offset < bytes.len() {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            let sum = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
            offset += RECORD_HEADER;
            assert_eq!(sum, fnv1a(&bytes[offset..offset + len]));
            offset += len;
        }

        // … and compaction is what moves it to v2, contents intact
        let mut store = LogStore::open(&path).unwrap();
        store.compact().unwrap();
        store.put(b"after", b"compaction").unwrap();
        assert!(fs::read(&path).unwrap().starts_with(MAGIC));
        assert_eq!(store.image, fs::read(&path).unwrap());
        let reopened = LogStore::open(&path).unwrap();
        assert!(reopened.recovery().is_none());
        assert_eq!(reopened.len(), 4);
        for round in 0..3u8 {
            assert_eq!(reopened.get(&[b'k', round]), Some(&[round; 40][..]));
        }
        assert_eq!(reopened.get(b"after"), Some(&b"compaction"[..]));
        fs::remove_file(&path).unwrap();
    }
}
