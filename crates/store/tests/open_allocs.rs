//! A deterministic allocation budget for `LogStore::open`.
//!
//! Wall time on a shared host cannot guard the open path; heap
//! allocations can: the count repeats exactly on one toolchain. The index
//! is one sorted `Vec` of offsets into the verified image, so an open
//! allocates the path, the image, the index and the sort's one scratch
//! buffer — the same number for a 10-record file as for a 2 300-record
//! one, the size of the store a `warm_restore` serve opens. An index that
//! copied each key would allocate once per record.
//!
//! Run with `--nocapture` to see the counts (CI does).

use std::path::PathBuf;

use accfg_store::{KeyValueStore, LogStore};

#[path = "../../runtime/tests/common/mod.rs"]
mod common;

use common::counted;

/// A store file of `records` records: puts of distinct keys shaped like
/// the runtime's module keys, one overwrite and one tombstone.
fn store_of(records: usize) -> PathBuf {
    let dir = std::env::temp_dir().join("accfg_store_allocs");
    std::fs::create_dir_all(&dir).expect("create the temp dir");
    let path = dir.join(format!("{records}_{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let key = |i: usize| format!("m\x08opengemm{i:06}\x02").into_bytes();
    let rows: Vec<(Vec<u8>, Vec<u8>)> = (0..records - 2)
        .map(|i| (key(i), vec![i as u8; 64 + i % 1200]))
        .collect();
    let mut store = LogStore::open(&path).expect("a fresh store opens");
    let bytes = rows
        .iter()
        .map(|(key, value)| key.len() + value.len())
        .sum();
    store
        .put_all(rows.len(), bytes, &mut |sink| {
            rows.iter().try_for_each(|(key, value)| sink(key, value))
        })
        .expect("put the rows");
    store.put(&key(0), b"overwritten").expect("overwrite a key");
    store.remove(&key(1)).expect("remove a key");
    assert_eq!(store.len(), records - 3);
    path
}

#[test]
fn open_allocates_the_same_for_any_number_of_records() {
    let mut counts = Vec::new();
    for records in [10, 2_300] {
        let path = store_of(records);
        let (store, allocs) = counted(|| LogStore::open(&path));
        let store = store.expect("the store reopens");
        assert_eq!(store.len(), records - 3);
        assert!(store.recovery().is_none());
        println!("LogStore::open of {records:>5} records: {allocs} allocations");
        counts.push(allocs);
        drop(store);
        std::fs::remove_file(&path).expect("remove the store");
    }
    assert_eq!(
        counts[0], counts[1],
        "an open allocates per record: {counts:?} allocations for 10 and 2 300 records"
    );
}
