//! Model-based property for [`LogStore`]: random put / identical put /
//! batched put / remove / sync / compact / reopen histories, checked step
//! by step against [`MemStore`] — and against the file itself, which must
//! at every step be byte-for-byte the image the store serves from. The
//! batches pin the index's merge — last write wins, and identical values
//! are elided (also inside a batch) — and a second log, fed each batch
//! one `put` a row, pins the sink-fed batch to sequential puts: the two
//! files are byte-identical after every step, whatever order a batch's
//! rows come in.

use proptest::prelude::*;

use super::tests::{put_rows, temp_path};
use super::{LogStore, MAGIC};
use crate::{KeyValueStore, MemStore};

const KEYS: usize = 6;

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
    /// One `put_all` of a batch over the keys, two bits of the mask per
    /// key, key 0 lowest: 0 leaves the key out, 1 puts a new value, 2
    /// re-puts its current value (elided; left out if the key is absent),
    /// 3 puts a new value twice (the second row elided) — its rows in the
    /// [`Order`] the second field names.
    PutAll(usize, Order),
    Remove(usize),
    Sync,
    Compact,
    Reopen,
}

/// The order a [`Step::PutAll`] batch hands its rows over in.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// Ascending by key, a key's rows in mask order.
    Sorted,
    /// The sorted rows reversed: a key's two rows swap too.
    Reversed,
    /// The sorted rows, their second half first.
    Rotated,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..KEYS).prop_map(Step::Put),
        (0usize..KEYS).prop_map(Step::Put),
        (0usize..KEYS).prop_map(Step::PutSame),
        (0usize..1 << (2 * KEYS), 0usize..3).prop_map(|(mask, order)| {
            let order = [Order::Sorted, Order::Reversed, Order::Rotated][order];
            Step::PutAll(mask, order)
        }),
        (0usize..KEYS).prop_map(Step::Remove),
        (0usize..1).prop_map(|_| Step::Sync),
        (0usize..1).prop_map(|_| Step::Compact),
        (0usize..1).prop_map(|_| Step::Reopen),
    ]
}

/// The rows of [`Step::PutAll`]`(mask, order)` at step `i` over `model`.
fn batch(model: &MemStore, mask: usize, order: Order, i: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rows = Vec::new();
    for k in 0..KEYS {
        let key = key_of(k);
        let new = format!("batch-{i}-{k}-").repeat(1 + 2 * k).into_bytes();
        match mask >> (2 * k) & 3 {
            1 => rows.push((key, new)),
            2 => rows.extend(model.get(&key).map(|same| (key, same.to_vec()))),
            3 => rows.extend([(key.clone(), new.clone()), (key, new)]),
            _ => {}
        }
    }
    match order {
        Order::Sorted => {}
        Order::Reversed => rows.reverse(),
        Order::Rotated => {
            let half = rows.len() / 2;
            rows.rotate_left(half);
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_histories_agree_with_the_in_memory_model(
        steps in prop::collection::vec(step_strategy(), 1..40),
    ) {
        let (path, mirror_path) = (temp_path("model"), temp_path("model_mirror"));
        let mut store = LogStore::open(&path).expect("fresh store opens");
        // every step as `store` takes it, but each batch one `put` a row
        let mut mirror = LogStore::open(&mirror_path).expect("fresh store opens");
        let mut model = MemStore::default();
        for (i, &step) in steps.iter().enumerate() {
            match step {
                Step::Put(k) => {
                    // long enough to span several checksum blocks
                    let value = format!("value-{i}-").repeat(1 + 3 * (i % 5)).into_bytes();
                    store.put(&key_of(k), &value).expect("put");
                    mirror.put(&key_of(k), &value).expect("mirror put");
                    model.put(&key_of(k), &value).expect("mem put");
                }
                Step::PutSame(k) => {
                    if let Some(value) = model.get(&key_of(k)).map(<[u8]>::to_vec) {
                        let before = store.image.len();
                        store.put(&key_of(k), &value).expect("identical put");
                        mirror.put(&key_of(k), &value).expect("mirror put");
                        prop_assert_eq!(store.image.len(), before, "an identical put appended");
                    }
                }
                Step::PutAll(mask, order) => {
                    let rows = batch(&model, mask, order, i);
                    let before = store.image.len();
                    put_rows(&mut store, &rows).expect("put_all");
                    for (key, value) in &rows {
                        mirror.put(key, value).expect("mirror put");
                    }
                    // one record (header, op, key length, key, value) per
                    // row that changes its key's value, none for the rest
                    let mut appended = 0;
                    for (key, value) in &rows {
                        if model.get(key) != Some(value.as_slice()) {
                            appended += 8 + 5 + key.len() + value.len();
                        }
                        model.put(key, value).expect("mem put");
                    }
                    prop_assert_eq!(store.image.len() - before, appended, "a batch's appends");
                }
                Step::Remove(k) => {
                    store.remove(&key_of(k)).expect("remove");
                    mirror.remove(&key_of(k)).expect("mirror remove");
                    model.remove(&key_of(k)).expect("mem remove");
                }
                Step::Sync => {
                    store.sync().expect("sync");
                    mirror.sync().expect("mirror sync");
                }
                Step::Compact => {
                    store.compact().expect("compact");
                    mirror.compact().expect("mirror compact");
                }
                Step::Reopen => {
                    drop(store);
                    store = LogStore::open(&path).expect("reopen");
                    prop_assert!(store.recovery().is_none());
                    drop(mirror);
                    mirror = LogStore::open(&mirror_path).expect("reopen the mirror");
                }
            }
            let context = format!("after step {i} ({step:?})");
            prop_assert_eq!(store.len(), model.len(), "{}", context);
            for k in 0..KEYS {
                let key = key_of(k);
                prop_assert_eq!(store.get(&key), model.get(&key), "{}", context);
            }
            for prefix in [&b""[..], b"key/", b"key/3", b"l"] {
                prop_assert_eq!(
                    store.keys_with_prefix(prefix),
                    model.keys_with_prefix(prefix),
                    "{}",
                    context
                );
            }
            // what is on disk is exactly what the store serves from
            let on_disk = std::fs::read(&path).expect("read the file");
            prop_assert!(on_disk.starts_with(MAGIC), "{}", context);
            prop_assert_eq!(&on_disk, &store.image, "{}", context);
            // a batch files exactly what a put per row files
            prop_assert_eq!(&store.image, &mirror.image, "{}", context);
        }
        // a replay of the file gives the same view, record for record
        let replayed = LogStore::open(&path).expect("final reopen");
        prop_assert!(replayed.recovery().is_none());
        prop_assert_eq!(replayed.len(), store.len());
        for k in 0..KEYS {
            let key = key_of(k);
            prop_assert_eq!(replayed.get(&key), store.get(&key));
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&mirror_path);
    }
}
