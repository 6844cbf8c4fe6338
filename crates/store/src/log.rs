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
//! [`LogStore::open`] makes one read, one checksum pass and one sort. It
//! reads the file into one `Vec<u8>` — the *image* — and walks its
//! records front to back, verifying **every** record's checksum. A
//! truncated or checksum-failing record can only be the *tail* of an
//! interrupted append, so the walk stops there, reports the drop via
//! [`LogStore::recovery`], and truncates image and file back to the last
//! valid record; everything before the corruption survives. A second walk
//! over the verified records collects one *slot* per record — the offsets
//! of its key and value in the image — and one stable sort by key bytes
//! (a merge of the sorted runs the flushes appended), followed by a pass
//! that keeps each key's last slot and drops keys whose last record is a
//! tombstone, leaves the index a front-to-back last-write-wins replay
//! would: one sorted `Vec` of slots, one per live key.
//!
//! Neither keys nor values are ever copied out of the image:
//! [`KeyValueStore::get`] binary-searches the slots and returns a slice of
//! the image; since only verified records have slots, no unverified byte
//! is reachable through the trait.
//! `put` / `remove` encode the new record at the end of the image, write
//! exactly those bytes to the file, and only then insert, update or drop
//! the key's slot — a key appended after open lives in the image like
//! every other. [`KeyValueStore::put_all`] encodes a whole batch, writes
//! it with one `write_all`, then updates the slots of keys the index
//! holds in place and merges the new keys in, in one pass. A failed
//! write truncates the image (and the file, as far as it lets us) back
//! and leaves the index as it was, so neither runs ahead of the file. The
//! image is therefore always the file's valid content, superseded records
//! and tombstones included: the store's heap footprint is the file size
//! plus one slot per live key until [`LogStore::compact`] swaps in the
//! rewritten image and its slots.
//!
//! Determinism contract: [`LogStore::put`] skips the append when the key
//! already holds the identical value, so re-running an identical workload
//! against an existing store leaves the file byte-for-byte unchanged, and
//! two identical runs against fresh stores produce byte-identical files.
//! Compaction is explicit ([`LogStore::compact`]) and rewrites live entries
//! in sorted key order — never triggered implicitly, so it cannot perturb
//! that contract mid-run.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
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

/// Bytes of a payload before its key: the op and the key length.
const KEY_AT: usize = 1 + 4;

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

/// One record as the index holds it: offsets into the image, never a
/// copy of its bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Where the key starts.
    key: usize,
    /// Where the value starts (and the key ends).
    value: usize,
    /// Where the value (and the record) ends.
    end: usize,
}

impl Slot {
    fn key(self, image: &[u8]) -> &[u8] {
        &image[self.key..self.value]
    }

    fn value(self, image: &[u8]) -> &[u8] {
        &image[self.value..self.end]
    }

    /// Whether the record is a put rather than a tombstone.
    fn is_put(self, image: &[u8]) -> bool {
        image[self.key - KEY_AT] == OP_PUT
    }
}

/// Where `key` is, or would go, in `slots`, which are sorted by the key
/// bytes they locate in `image`.
fn search(slots: &[Slot], image: &[u8], key: &[u8]) -> Result<usize, usize> {
    slots.binary_search_by(|slot| slot.key(image).cmp(key))
}

/// Appends one record to `out` — the payload written in place after a
/// header that is patched once its checksum is known — and returns its
/// slot.
fn encode_record(out: &mut Vec<u8>, format: Format, op: u8, key: &[u8], value: &[u8]) -> Slot {
    let payload_len = KEY_AT + key.len() + value.len();
    out.reserve(RECORD_HEADER + payload_len);
    let header = out.len();
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    out.push(op);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    let key_at = out.len();
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let checksum = format.checksum(&out[header + RECORD_HEADER..]);
    out[header + 4..header + RECORD_HEADER].copy_from_slice(&checksum.to_le_bytes());
    Slot {
        key: key_at,
        value: key_at + key.len(),
        end: out.len(),
    }
}

/// The record at `offset` in `image`: its checksum and its payload, or
/// what is torn about it.
fn record_at(image: &[u8], offset: usize) -> Result<(u32, &[u8]), &'static str> {
    let (header, rest) = image[offset..]
        .split_first_chunk::<RECORD_HEADER>()
        .ok_or("truncated record header")?;
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    let payload_len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let payload = rest.get(..payload_len).ok_or("truncated record payload")?;
    Ok((u32::from_le_bytes([c0, c1, c2, c3]), payload))
}

/// Walks the records after `image`'s magic, verifying each checksum.
/// Returns where the valid records end, how many there are, and the tail
/// that does not verify, if any.
fn verify(image: &[u8], format: Format) -> (usize, usize, Option<TailCorruption>) {
    let mut offset = MAGIC.len();
    let mut records = 0;
    while offset < image.len() {
        let verified = record_at(image, offset).and_then(|(checksum, payload)| {
            if format.checksum(payload) == checksum {
                Ok(payload.len())
            } else {
                Err("record checksum mismatch")
            }
        });
        match verified {
            Ok(payload_len) => {
                offset += RECORD_HEADER + payload_len;
                records += 1;
            }
            Err(detail) => {
                let tail = TailCorruption {
                    offset: offset as u64,
                    dropped_bytes: (image.len() - offset) as u64,
                    detail: detail.to_string(),
                };
                return (offset, records, Some(tail));
            }
        }
    }
    (offset, records, None)
}

/// The index a front-to-back, last-write-wins replay of the `records`
/// verified records of `image` leaves: every live key's newest slot,
/// sorted by key.
///
/// # Errors
///
/// A record whose payload is self-inconsistent: its checksum matched, so
/// it is not a torn write but a record this build cannot interpret.
fn replay(image: &[u8], records: usize) -> Result<Vec<Slot>, StoreError> {
    let malformed = || StoreError::codec("record payload is self-inconsistent");
    let mut slots = Vec::with_capacity(records);
    let mut offset = MAGIC.len();
    for _ in 0..records {
        let (_, payload) = record_at(image, offset).map_err(|_| malformed())?;
        let (&op, rest) = payload.split_first().ok_or_else(malformed)?;
        let (key_len, rest) = rest.split_first_chunk::<4>().ok_or_else(malformed)?;
        let key_len = u32::from_le_bytes(*key_len) as usize;
        if !matches!(op, OP_PUT | OP_REMOVE) || key_len > rest.len() {
            return Err(malformed());
        }
        let key = offset + RECORD_HEADER + KEY_AT;
        offset += RECORD_HEADER + payload.len();
        slots.push(Slot {
            key,
            value: key + key_len,
            end: offset,
        });
    }
    sort_runs(image, &mut slots);
    // equal keys are adjacent and in log order: keep each one's last slot
    slots.dedup_by(|later, kept| {
        let same = later.key(image) == kept.key(image);
        if same {
            *kept = *later;
        }
        same
    });
    slots.retain(|slot| slot.is_put(image));
    Ok(slots)
}

/// Sorts `slots` by key, keeping log order among equal keys: a natural
/// merge sort. Every flush appends a sorted batch, so a log is a few long
/// sorted runs (a store one serve filled is two), and merging adjacent
/// runs pairwise until one is left takes a few linear passes. The one
/// scratch buffer is allocated whatever the number of records.
fn sort_runs(image: &[u8], slots: &mut Vec<Slot>) {
    let run_end = |slots: &[Slot], from: usize| {
        (from + 1..slots.len())
            .find(|&i| slots[i].key(image) < slots[i - 1].key(image))
            .unwrap_or(slots.len())
    };
    let mut merged = Vec::with_capacity(slots.len());
    while run_end(slots, 0) < slots.len() {
        let mut from = 0;
        while from < slots.len() {
            let mid = run_end(slots, from);
            let end = run_end(slots, mid);
            let (mut left, mut right) = (&slots[from..mid], &slots[mid..end]);
            while let (Some(&l), Some(&r)) = (left.first(), right.first()) {
                // a tie takes the left run's slot, the older one
                if r.key(image) < l.key(image) {
                    merged.push(r);
                    right = &right[1..];
                } else {
                    merged.push(l);
                    left = &left[1..];
                }
            }
            merged.extend_from_slice(left);
            merged.extend_from_slice(right);
            from = end;
        }
        std::mem::swap(slots, &mut merged);
        merged.clear();
    }
}

/// Makes a rename in `path`'s directory durable where the platform can
/// sync a directory (Unix); elsewhere the rename is as durable as the
/// platform makes it.
fn sync_dir(path: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| StoreError::io("sync", dir, &e))?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Append-only log-structured key-value store backed by one file.
#[derive(Debug)]
pub struct LogStore {
    path: PathBuf,
    file: File,
    /// Which checksum this file's records carry (fixed by its magic).
    format: Format,
    /// The file's verified content: magic, then every valid record.
    image: Vec<u8>,
    /// One slot per live key — its newest record — sorted by key.
    index: Vec<Slot>,
    recovery: Option<TailCorruption>,
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

        let (valid, records, tail) = verify(&image, format);
        recovery = recovery.or(tail);
        image.truncate(valid);
        let index = replay(&image, records)?;

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
        })
    }

    /// Where `key` is, or would go, in the index.
    fn find(&self, key: &[u8]) -> Result<usize, usize> {
        search(&self.index, &self.image, key)
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
    /// and tombstones. Atomic and durable: writes and syncs a sibling
    /// `.compact` file, renames it over the log, then syncs the directory
    /// (on Unix), so a crash leaves either the old log or the whole new
    /// one.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors; the original file is untouched until the
    /// rename. A failed directory sync is reported after the store has
    /// moved to the compacted file.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let tmp = self.path.with_extension("compact");
        let mut image = MAGIC.to_vec();
        let index: Vec<Slot> = self
            .index
            .iter()
            .map(|slot| {
                let (key, value) = (slot.key(&self.image), slot.value(&self.image));
                encode_record(&mut image, Format::V2, OP_PUT, key, value)
            })
            .collect();
        let mut file = File::create(&tmp).map_err(|e| StoreError::io("create", &tmp, &e))?;
        file.write_all(&image)
            .map_err(|e| StoreError::io("write", &tmp, &e))?;
        file.sync_all()
            .map_err(|e| StoreError::io("sync", &tmp, &e))?;
        fs::rename(&tmp, &self.path).map_err(|e| StoreError::io("rename", &self.path, &e))?;
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| StoreError::io("open", &self.path, &e))?;
        self.format = Format::V2;
        self.image = image;
        self.index = index;
        self.recovery = None;
        sync_dir(&self.path)
    }

    /// Writes the records encoded at the end of the image since `start`
    /// to the file. On a failed write the image is cut back to `start`
    /// (and the file too, as far as it lets us), so the image never runs
    /// ahead of the file; callers touch the index only once this succeeds.
    fn write_from(&mut self, start: usize) -> Result<(), StoreError> {
        if let Err(err) = self.file.write_all(&self.image[start..]) {
            self.image.truncate(start);
            let _ = self.file.set_len(start as u64);
            return Err(StoreError::io("append", &self.path, &err));
        }
        Ok(())
    }

    /// Files `staged` — sorted, one slot per key, each newer than the
    /// index's — into the index: a key the index holds takes its new slot
    /// in place, and the new keys are merged in from the back, each slot
    /// moving at most once.
    fn merge(&mut self, mut staged: Vec<Slot>) {
        let (image, index) = (&self.image, &mut self.index);
        staged.retain(|&slot| match search(index, image, slot.key(image)) {
            Ok(i) => {
                index[i] = slot;
                false
            }
            Err(_) => true,
        });
        let mut old = index.len();
        index.extend_from_slice(&staged);
        let mut free = index.len();
        for &slot in staged.iter().rev() {
            while old > 0 && index[old - 1].key(image) > slot.key(image) {
                old -= 1;
                free -= 1;
                index[free] = index[old];
            }
            free -= 1;
            index[free] = slot;
        }
    }
}

impl KeyValueStore for LogStore {
    fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let i = self.find(key).ok()?;
        Some(self.index[i].value(&self.image))
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let at = self.find(key);
        if at.is_ok_and(|i| self.index[i].value(&self.image) == value) {
            return Ok(()); // identical value: keep the file byte-stable
        }
        let start = self.image.len();
        let slot = encode_record(&mut self.image, self.format, OP_PUT, key, value);
        self.write_from(start)?;
        match at {
            Ok(i) => self.index[i] = slot,
            Err(i) => self.index.insert(i, slot),
        }
        Ok(())
    }

    /// Encodes the batch's records at the end of the image, writes them
    /// with one `write_all`, then files their slots into the index in one
    /// merge. A failed write stores none of the batch.
    fn put_all(&mut self, rows: &[(Vec<u8>, Vec<u8>)]) -> Result<(), StoreError> {
        let start = self.image.len();
        // the batch's newest record per key, sorted by key
        let mut staged: Vec<Slot> = Vec::with_capacity(rows.len());
        for (key, value) in rows {
            let at = search(&staged, &self.image, key);
            let current = match at {
                Ok(i) => Some(staged[i]),
                Err(_) => self.find(key).ok().map(|i| self.index[i]),
            };
            if current.is_some_and(|slot| slot.value(&self.image) == value.as_slice()) {
                continue; // identical value, stored or earlier in the batch
            }
            let slot = encode_record(&mut self.image, self.format, OP_PUT, key, value);
            match at {
                Ok(i) => staged[i] = slot,
                Err(i) => staged.insert(i, slot),
            }
        }
        self.write_from(start)?;
        self.merge(staged);
        Ok(())
    }

    fn remove(&mut self, key: &[u8]) -> Result<(), StoreError> {
        let Ok(i) = self.find(key) else {
            return Ok(());
        };
        let start = self.image.len();
        encode_record(&mut self.image, self.format, OP_REMOVE, key, &[]);
        self.write_from(start)?;
        self.index.remove(i);
        Ok(())
    }

    fn keys_with_prefix(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        let image = &self.image;
        let from = self.index.partition_point(|slot| slot.key(image) < prefix);
        let live = &self.index[from..];
        let len = live.partition_point(|slot| slot.key(image).starts_with(prefix));
        live[..len]
            .iter()
            .map(|slot| slot.key(image).to_vec())
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
        // a batch that updates the key, adds keys on both sides of it and
        // repeats the stored value stores none of its rows
        let batch = [
            (b"a".to_vec(), b"new key".to_vec()),
            (b"k".to_vec(), b"old".to_vec()),
            (b"k".to_vec(), b"newer".to_vec()),
            (b"z".to_vec(), b"new key".to_vec()),
        ];
        assert!(matches!(store.put_all(&batch), Err(StoreError::Io { .. })));
        for absent in [&b"a"[..], b"z"] {
            assert_eq!(store.get(absent), None);
        }
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(b"k"), Some(&b"old"[..]));
        assert_eq!(store.image, before);
        assert_eq!(fs::read(&path).unwrap(), before);

        // the store is still usable once writes go through again
        store.file = append_handle;
        store.put_all(&batch).unwrap();
        assert_eq!(store.get(b"k"), Some(&b"newer"[..]));
        assert_eq!(store.get(b"z"), Some(&b"new key"[..]));
        store.put(b"k", b"new").unwrap();
        assert_eq!(store.image, fs::read(&path).unwrap());
        let reopened = LogStore::open(&path).unwrap();
        assert!(reopened.recovery().is_none());
        assert_eq!(reopened.get(b"k"), Some(&b"new"[..]));
        assert_eq!(reopened.keys_with_prefix(b""), [&b"a"[..], b"k", b"z"]);
        assert_eq!(reopened.image, store.image);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn put_all_writes_what_a_put_per_row_writes() {
        // out of key order, a key twice, a stored value repeated, a value
        // repeated inside the batch: the file and the index must be those
        // of one `put` per row, in order
        let rows: Vec<(Vec<u8>, Vec<u8>)> = [
            ("m", "1"),
            ("b", "kept"),
            ("m", "2"),
            ("a", "3"),
            ("m", "2"),
            ("z", "4"),
            ("a", "5"),
        ]
        .iter()
        .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
        .collect();
        let (one_by_one, batched) = (temp_path("rows_put"), temp_path("rows_put_all"));
        let mut stores = [&one_by_one, &batched].map(|path| {
            let mut store = LogStore::open(path).unwrap();
            store.put(b"b", b"kept").unwrap();
            store.put(b"q", b"stored").unwrap();
            store
        });
        for (key, value) in &rows {
            stores[0].put(key, value).unwrap();
        }
        stores[1].put_all(&rows).unwrap();
        assert_eq!(fs::read(&one_by_one).unwrap(), fs::read(&batched).unwrap());
        assert_eq!(stores[0].image, stores[1].image);
        let keys = stores[0].keys_with_prefix(b"");
        assert_eq!(keys, stores[1].keys_with_prefix(b""));
        for key in &keys {
            assert_eq!(stores[0].get(key), stores[1].get(key));
        }
        fs::remove_file(&one_by_one).unwrap();
        fs::remove_file(&batched).unwrap();
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
