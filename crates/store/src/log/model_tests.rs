//! Model-based property for [`LogStore`]: random put / identical put /
//! batched put / remove / sync / compact / reopen histories, over both
//! file formats, checked step by step against [`MemStore`] plus a
//! hand-kept clock — and against the file itself, which must at every step
//! be byte-for-byte the image the store serves from. The batches pin the
//! index's merge: last write wins, identical values are elided (also
//! inside a batch), and ages are those of one `put` per row.

use std::collections::BTreeMap;

use proptest::prelude::*;

use super::tests::temp_path;
use super::{LogStore, MAGIC, MAGIC_V1};
use crate::{KeyValueStore, MemStore};

const KEYS: usize = 6;

/// Both format versions, by the magic a file of each starts with.
const FORMATS: [&[u8; 8]; 2] = [MAGIC, MAGIC_V1];

fn key_of(k: usize) -> Vec<u8> {
    format!("key/{k}").into_bytes()
}

/// One step of the model-based property.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Put a value derived from the step's position (never the current one).
    Put(usize),
    /// Re-put the key's current value: must be elided.
    PutSame(usize),
    /// One `put_all` of a sorted batch over the keys, two bits of the
    /// mask per key, key 0 lowest: 0 leaves the key out, 1 puts a new
    /// value, 2 re-puts its current value (elided; left out if the key is
    /// absent), 3 puts a new value twice (the second row elided).
    PutAll(usize),
    Remove(usize),
    Sync,
    Compact,
    Reopen,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..KEYS).prop_map(Step::Put),
        (0usize..KEYS).prop_map(Step::Put),
        (0usize..KEYS).prop_map(Step::PutSame),
        (0usize..1 << (2 * KEYS)).prop_map(Step::PutAll),
        (0usize..KEYS).prop_map(Step::Remove),
        (0usize..1).prop_map(|_| Step::Sync),
        (0usize..1).prop_map(|_| Step::Compact),
        (0usize..1).prop_map(|_| Step::Reopen),
    ]
}

/// The reference the log store is checked against: `MemStore` for the
/// contents, plus the clock and per-key ages `MemStore` does not keep.
#[derive(Default)]
struct Model {
    contents: MemStore,
    ages: BTreeMap<Vec<u8>, u64>,
    seq: u64,
}

impl Model {
    fn put(&mut self, key: &[u8], value: &[u8]) {
        if self.contents.get(key) == Some(value) {
            return; // elided: no record, no tick
        }
        self.contents.put(key, value).expect("mem put");
        self.seq += 1;
        self.ages.insert(key.to_vec(), self.seq);
    }

    fn remove(&mut self, key: &[u8]) {
        if self.ages.remove(key).is_some() {
            self.contents.remove(key).expect("mem remove");
            self.seq += 1;
        }
    }

    /// The rows of [`Step::PutAll`]`(mask)` at step `i`, sorted by key.
    fn batch(&self, mask: usize, i: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut rows = Vec::new();
        for k in 0..KEYS {
            let key = key_of(k);
            let new = format!("batch-{i}-{k}-").repeat(1 + 2 * k).into_bytes();
            match mask >> (2 * k) & 3 {
                1 => rows.push((key, new)),
                2 => rows.extend(self.contents.get(&key).map(|same| (key, same.to_vec()))),
                3 => rows.extend([(key.clone(), new.clone()), (key, new)]),
                _ => {}
            }
        }
        rows
    }

    /// What a compaction (or a replay of the compacted file) leaves: one
    /// put per live key, in key order.
    fn renumber(&mut self) {
        self.seq = 0;
        for age in self.ages.values_mut() {
            self.seq += 1;
            *age = self.seq;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_histories_agree_with_the_in_memory_model(
        steps in prop::collection::vec(step_strategy(), 1..40),
    ) {
        for magic in FORMATS {
            let path = temp_path("model");
            std::fs::write(&path, magic).expect("write the magic");
            let mut store = LogStore::open(&path).expect("fresh store opens");
            let mut model = Model::default();
            let mut magic_now = magic;
            for (i, &step) in steps.iter().enumerate() {
                match step {
                    Step::Put(k) => {
                        // long enough to span several checksum blocks
                        let value = format!("value-{i}-").repeat(1 + 3 * (i % 5)).into_bytes();
                        store.put(&key_of(k), &value).expect("put");
                        model.put(&key_of(k), &value);
                    }
                    Step::PutSame(k) => {
                        if let Some(value) = model.contents.get(&key_of(k)).map(<[u8]>::to_vec) {
                            let before = store.seq();
                            store.put(&key_of(k), &value).expect("identical put");
                            prop_assert_eq!(store.seq(), before, "an identical put ticked");
                        }
                    }
                    Step::PutAll(mask) => {
                        let rows = model.batch(mask, i);
                        store.put_all(&rows).expect("put_all");
                        for (key, value) in &rows {
                            model.put(key, value);
                        }
                    }
                    Step::Remove(k) => {
                        store.remove(&key_of(k)).expect("remove");
                        model.remove(&key_of(k));
                    }
                    Step::Sync => store.sync().expect("sync"),
                    Step::Compact => {
                        store.compact().expect("compact");
                        model.renumber();
                        magic_now = MAGIC;
                    }
                    Step::Reopen => {
                        drop(store);
                        store = LogStore::open(&path).expect("reopen");
                        prop_assert!(store.recovery().is_none());
                    }
                }
                let context = format!("after step {i} ({step:?})");
                prop_assert_eq!(store.len(), model.contents.len(), "{}", context);
                prop_assert_eq!(store.seq(), model.seq, "{}", context);
                for k in 0..KEYS {
                    let key = key_of(k);
                    prop_assert_eq!(store.get(&key), model.contents.get(&key), "{}", context);
                    prop_assert_eq!(
                        store.key_seq(&key),
                        model.ages.get(&key).copied(),
                        "{}",
                        context
                    );
                }
                for prefix in [&b""[..], b"key/", b"key/3", b"l"] {
                    prop_assert_eq!(
                        store.keys_with_prefix(prefix),
                        model.contents.keys_with_prefix(prefix),
                        "{}",
                        context
                    );
                }
                // what is on disk is exactly what the store serves from
                let on_disk = std::fs::read(&path).expect("read the file");
                prop_assert!(on_disk.starts_with(magic_now), "{}", context);
                prop_assert_eq!(&on_disk, &store.image, "{}", context);
            }
            // a replay of the file gives the same view, record for record
            let replayed = LogStore::open(&path).expect("final reopen");
            prop_assert!(replayed.recovery().is_none());
            prop_assert_eq!(replayed.seq(), store.seq());
            for k in 0..KEYS {
                let key = key_of(k);
                prop_assert_eq!(replayed.get(&key), store.get(&key));
                prop_assert_eq!(replayed.key_seq(&key), store.key_seq(&key));
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}
