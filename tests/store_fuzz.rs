//! Torn-tail fuzzing for `accfg-store`: a `LogStore` file truncated or
//! bit-flipped at an arbitrary offset must reopen without panicking and
//! recover exactly the longest valid prefix of its log.
//!
//! The model: each applied operation appends exactly one record (values
//! are made unique per op so the identical-value elision never kicks in),
//! and the file offset after each append is recorded. A corruption at
//! offset `c` therefore has a *known* set of surviving records — every
//! record wholly before `c` — and the recovered index must equal the
//! fold of exactly those operations. Reopening a recovered store must be
//! clean (the corrupt tail was truncated away) and yield the same index.
//! (The model-based property over whole put / remove / compact / reopen
//! histories lives with the store's unit tests, where it can see the
//! in-memory image.)
//!
//! This harness shook out a real recovery bug: a file shorter than the
//! 8-byte magic that was a strict prefix of it (a torn initial create)
//! returned `BadMagic` instead of recovering an empty store.
//!
//! One layer up, the typed values a record carries are fuzzed for
//! canonicality: every truncation and single-byte flip of an encoded
//! module or cost row either fails to decode with `StoreError::Codec` or
//! decodes to a value that re-encodes to exactly those bytes — never a
//! panic, never a second encoding of one value (the flush's byte-neutral
//! skip of restored modules relies on the second).

use accfg_bench::streams::cold_shapes_grid;
use configuration_wall::core::pipeline::OptLevel;
use configuration_wall::runtime::persist::cost_key_bytes;
use configuration_wall::runtime::{
    build_module, decode_module, encode_module, load_cost_row, save_costs, CacheKey, CostRow,
    COST_ROWS, WARMTH_BUCKETS,
};
use configuration_wall::store::{KeyValueStore, LogStore, MemStore, StoreError, MAGIC};
use configuration_wall::targets::AcceleratorDescriptor;
use configuration_wall::workloads::mixed_serving_classes;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("accfg_store_fuzz");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{tag}_{}_{case}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

const KEYS: usize = 6;

fn key_of(k: usize) -> Vec<u8> {
    format!("key/{k}").into_bytes()
}

/// One record as applied: its key, and `Some(value)` for a put or `None`
/// for a remove.
type AppliedOp = (Vec<u8>, Option<Vec<u8>>);

/// Applies the script to a fresh store, recording the file length after
/// every applied record. Removes of absent keys are skipped (they would
/// be elided and break the one-op-one-record bookkeeping).
fn build_store(path: &PathBuf, ops: &[(usize, bool)]) -> (Vec<u64>, Vec<AppliedOp>) {
    let mut store = LogStore::open(path).expect("fresh store opens");
    assert!(store.recovery().is_none());
    let mut boundaries = vec![MAGIC.len() as u64];
    let mut applied: Vec<AppliedOp> = Vec::new();
    let mut live = [false; KEYS];
    for (i, &(k, is_remove)) in ops.iter().enumerate() {
        let k = k % KEYS;
        let key = key_of(k);
        if is_remove {
            if !live[k] {
                continue;
            }
            live[k] = false;
            store.remove(&key).expect("remove");
            applied.push((key, None));
        } else {
            live[k] = true;
            // unique value per op: the identical-value elision never fires
            let value = format!("value-{i}").into_bytes();
            store.put(&key, &value).expect("put");
            applied.push((key, Some(value)));
        }
        store.sync().expect("sync");
        let len = std::fs::metadata(path).expect("metadata").len();
        assert_ne!(len, *boundaries.last().unwrap(), "op {i} appended nothing");
        boundaries.push(len);
    }
    (boundaries, applied)
}

/// The index a replay of the first `records` applied ops produces.
fn expected_index(applied: &[AppliedOp], records: usize) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut index = BTreeMap::new();
    for (key, value) in &applied[..records] {
        match value {
            Some(value) => index.insert(key.clone(), value.clone()),
            None => index.remove(key),
        };
    }
    index
}

/// Asserts `store` holds exactly `expected` (keys and values).
fn assert_store_matches(store: &LogStore, expected: &BTreeMap<Vec<u8>, Vec<u8>>, context: &str) {
    let keys = store.keys_with_prefix(b"");
    let want: Vec<Vec<u8>> = expected.keys().cloned().collect();
    assert_eq!(keys, want, "{context}: key sets differ");
    for (key, value) in expected {
        assert_eq!(store.get(key), Some(value.as_slice()), "{context}");
    }
}

/// Longest valid record prefix: number of applied records whose bytes lie
/// wholly before `offset`.
fn intact_records(boundaries: &[u64], offset: u64) -> usize {
    boundaries[1..].iter().filter(|&&end| end <= offset).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncation_recovers_the_longest_valid_prefix(
        ops in prop::collection::vec((0usize..KEYS, any::<bool>()), 1..16),
        cut in any::<u64>(),
    ) {
        let path = temp_store("trunc");
        let (boundaries, applied) = build_store(&path, &ops);
        let len = *boundaries.last().unwrap();
        let cut = cut % (len + 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..cut as usize]).unwrap();

        let store = LogStore::open(&path).expect("truncation never hard-fails");
        if cut < MAGIC.len() as u64 {
            // a strict prefix of the magic is a torn initial create:
            // recovered as an empty store (cut == 0 is a *clean* create)
            prop_assert_eq!(store.recovery().is_some(), cut > 0);
            prop_assert!(store.is_empty());
        } else {
            let records = intact_records(&boundaries, cut);
            let clean = boundaries.contains(&cut);
            prop_assert_eq!(store.recovery().is_none(), clean, "cut={}", cut);
            assert_store_matches(&store, &expected_index(&applied, records), "after recovery");
            // the corrupt tail was truncated away, and reported in full
            prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), boundaries[records]);
            prop_assert_eq!(
                store.recovery().map_or(0, |r| r.dropped_bytes),
                cut - boundaries[records]
            );
            // what survives still starts with the magic
            prop_assert!(std::fs::read(&path).unwrap().starts_with(MAGIC));
        }
        let expected: Vec<Vec<u8>> = store.keys_with_prefix(b"");
        drop(store);
        // a recovered store reopens clean, with the same contents
        let reopened = LogStore::open(&path).expect("recovered store reopens");
        prop_assert!(reopened.recovery().is_none());
        prop_assert_eq!(reopened.keys_with_prefix(b""), expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flips_recover_or_reject_but_never_panic(
        ops in prop::collection::vec((0usize..KEYS, any::<bool>()), 1..16),
        at in any::<u64>(),
        bit in 0u32..8,
    ) {
        let path = temp_store("flip");
        let (boundaries, applied) = build_store(&path, &ops);
        let len = *boundaries.last().unwrap();
        let at = at % len;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[at as usize] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        if at < MAGIC.len() as u64 {
            // a corrupted magic is a foreign file, not a torn tail
            prop_assert!(matches!(
                LogStore::open(&path),
                Err(StoreError::BadMagic { .. })
            ));
        } else {
            // the record containing the flip (and everything after it) is
            // lost; every record wholly before it survives
            let store = LogStore::open(&path).expect("record corruption never hard-fails");
            let records = intact_records(&boundaries, at);
            let recovery = store.recovery().expect("the flip is noticed");
            prop_assert_eq!(recovery.offset, boundaries[records]);
            prop_assert_eq!(recovery.dropped_bytes, len - boundaries[records]);
            assert_store_matches(&store, &expected_index(&applied, records), "after flip");
            prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), boundaries[records]);
            let expected: Vec<Vec<u8>> = store.keys_with_prefix(b"");
            drop(store);
            let reopened = LogStore::open(&path).expect("recovered store reopens");
            prop_assert!(reopened.recovery().is_none());
            prop_assert_eq!(reopened.keys_with_prefix(b""), expected);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_magic_prefix_recovers_an_empty_store(cut in 1u64..8) {
        // the regression this harness caught: a torn initial create left
        // a strict prefix of the magic on disk and reopen hard-failed
        let path = temp_store("magic");
        drop(LogStore::open(&path).expect("fresh store opens"));
        let bytes = std::fs::read(&path).unwrap();
        prop_assert_eq!(bytes.as_slice(), MAGIC.as_slice());
        std::fs::write(&path, &bytes[..cut as usize]).unwrap();

        let store = LogStore::open(&path).expect("torn magic must recover");
        prop_assert!(store.recovery().is_some());
        prop_assert!(store.is_empty());
        drop(store);
        prop_assert!(LogStore::open(&path).expect("reopen").recovery().is_none());
        let _ = std::fs::remove_file(&path);
    }
}

/// Every truncation of `bytes`, and `bytes` with each byte xored by each
/// of a few masks (a low bit, a varint's continuation bit, all bits).
fn mutations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
    let flips = (0..bytes.len()).flat_map(move |at| {
        [0x01, 0x80, 0xFF].map(|mask| {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= mask;
            flipped
        })
    });
    cuts.chain(flips)
}

/// Asserts `decoded` is a codec error, or a value `encode` turns back
/// into exactly `bytes`.
fn assert_canonical<T: std::fmt::Debug>(
    bytes: &[u8],
    decoded: Result<T, StoreError>,
    encode: impl Fn(&T) -> Vec<u8>,
    context: &str,
) {
    match decoded {
        Err(StoreError::Codec { .. }) => {}
        Ok(value) => assert_eq!(encode(&value), bytes, "{context}: a second encoding"),
        Err(other) => panic!("{context}: {other:?}"),
    }
}

#[test]
fn mutated_module_records_fail_to_decode_or_re_encode_to_themselves() {
    // every 47th shape of both platforms' cold_shapes grids (a stride
    // prime to the grid's 16 depths and 6 widths, so it walks k, n and m),
    // and the mixed stream's classes, at every level
    let mut modules = Vec::new();
    for desc in [
        AcceleratorDescriptor::gemmini(),
        AcceleratorDescriptor::opengemm(),
    ] {
        for spec in cold_shapes_grid(&desc.name).into_iter().step_by(47) {
            modules.push((desc.clone(), spec));
        }
    }
    for class in mixed_serving_classes() {
        let desc = match class.accelerator.as_str() {
            "gemmini" => AcceleratorDescriptor::gemmini(),
            _ => AcceleratorDescriptor::opengemm(),
        };
        modules.push((desc, class.spec));
    }
    for (desc, spec) in modules {
        for level in OptLevel::ALL_LEVELS {
            let module = build_module(&desc, spec, level).expect("a grid shape builds");
            let bytes = encode_module(&module);
            assert_eq!(decode_module(&bytes).as_ref(), Ok(&module));
            let context = format!("{} {spec:?} {}", desc.name, level.label());
            for mutated in mutations(&bytes) {
                assert_canonical(&mutated, decode_module(&mutated), encode_module, &context);
            }
        }
    }
}

#[test]
fn mutated_cost_rows_fail_to_decode_or_re_encode_to_themselves() {
    let key = CacheKey {
        accelerator: "opengemm".into(),
        spec: cold_shapes_grid("opengemm")[0],
        opt: OptLevel::All,
    };
    // the value `save_costs` files for `row`
    let encode = |row: &CostRow| {
        let mut store = MemStore::new();
        save_costs(&mut store, &[("opengemm".into(), key.clone(), *row)]).expect("save");
        let keys = store.keys_with_prefix(b"");
        store.get(&keys[0]).expect("saved").to_vec()
    };
    let decode = |value: &[u8]| {
        let mut store = MemStore::new();
        store
            .put(&cost_key_bytes("opengemm", &key), value)
            .expect("put");
        load_cost_row(&store, "opengemm", &key).map(|row| row.expect("filed"))
    };
    // unseen buckets, small and large estimates, and the ends of i64
    let mut row: CostRow = [[-1; WARMTH_BUCKETS]; COST_ROWS];
    for (i, slot) in row.iter_mut().flatten().enumerate() {
        *slot = match i % 5 {
            0 => -1,
            1 => (i as i64 + 2) << 8,
            2 => 900 << 16,
            3 => i64::MAX,
            _ => i64::MIN,
        };
    }
    let bytes = encode(&row);
    assert_eq!(decode(&bytes), Ok(row));
    for mutated in mutations(&bytes) {
        assert_canonical(&mutated, decode(&mutated), encode, "cost row");
    }
}
