//! Corruption-path property tests for the durability subsystem.
//!
//! The contract under test: whatever happens to the bytes on disk —
//! truncation at any offset, a bit flip at any offset — recovery either
//! succeeds with a **prefix of committed state** (commit order is the
//! record order; a full recovery is the complete prefix) or fails with
//! `StorageError::Corrupt`. It never panics and never fabricates rows.

use kath_storage::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::with_budget(64))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kathdb_durtest_{}_{name}_{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn kv_schema() -> Schema {
    Schema::of(&[("k", DataType::Int), ("v", DataType::Str)])
}

/// A committed history: CREATE kv, then one single-row INSERT per step.
fn history(rows: &[(i64, String)]) -> Vec<WalRecord> {
    let mut records = vec![WalRecord::CreateTable {
        name: "kv".to_string(),
        schema: kv_schema(),
    }];
    for (k, v) in rows {
        records.push(WalRecord::Insert {
            table: "kv".to_string(),
            rows: vec![vec![Value::Int(*k), Value::Str(v.clone())]],
        });
    }
    records
}

/// Applies a record prefix to an empty state; returns the kv rows.
fn state_after(records: &[WalRecord]) -> Vec<Row> {
    let mut rows = Vec::new();
    for r in records {
        match r {
            WalRecord::CreateTable { .. } => {}
            WalRecord::Insert { rows: new, .. } => rows.extend(new.iter().cloned()),
            _ => unreachable!("history only creates and inserts"),
        }
    }
    rows
}

fn write_wal(path: &Path, records: &[WalRecord]) {
    let (mut wal, replayed) = Wal::open(path).unwrap();
    assert!(replayed.is_empty());
    for r in records {
        wal.append(r).unwrap();
    }
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, String)>> {
    prop::collection::vec((any::<i64>(), "[a-z]{0,8}"), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating the WAL at ANY byte offset is a torn tail: recovery
    /// succeeds with exactly the records whose frames survived whole.
    #[test]
    fn truncated_wal_recovers_a_prefix(rows in arb_rows(), cut_seed in any::<u64>()) {
        let dir = tmp("trunc");
        let path = dir.join("wal").join("000000.log");
        let records = history(&rows);
        write_wal(&path, &records);
        let full = std::fs::metadata(&path).unwrap().len();
        let cut = cut_seed % (full + 1);
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(cut).unwrap();

        let (_, replayed) = Wal::open(&path).unwrap();
        prop_assert!(replayed.len() <= records.len());
        prop_assert_eq!(&replayed[..], &records[..replayed.len()],
            "replay is not a prefix after cut at {}", cut);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Flipping ANY single bit of the WAL either still recovers a prefix
    /// of committed state or errors with Corrupt — never panics, never
    /// yields records that were not committed.
    #[test]
    fn bitflipped_wal_never_fabricates_records(rows in arb_rows(), flip_seed in any::<u64>()) {
        let dir = tmp("flip");
        let path = dir.join("wal").join("000000.log");
        let records = history(&rows);
        write_wal(&path, &records);
        let mut data = std::fs::read(&path).unwrap();
        let bit = flip_seed % (data.len() as u64 * 8);
        data[(bit / 8) as usize] ^= 1 << (bit % 8);
        std::fs::write(&path, &data).unwrap();

        match Wal::open(&path) {
            Ok((_, replayed)) => {
                // A flip in a length field can tear the tail early; every
                // surviving record must still be a committed one, in order.
                prop_assert!(replayed.len() <= records.len());
                prop_assert_eq!(&replayed[..], &records[..replayed.len()],
                    "flip at bit {} fabricated state", bit);
            }
            Err(StorageError::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Flipping ANY single bit of any snapshot file (manifest or table)
    /// either falls back to older retained state — still recovering the
    /// full committed history — or errors with Corrupt. Never wrong rows.
    #[test]
    fn bitflipped_snapshot_never_returns_wrong_rows(
        rows in arb_rows(),
        extra in arb_rows(),
        flip_seed in any::<u64>(),
    ) {
        let dir = tmp("snapflip");
        let records = history(&rows);
        let pl = pool();
        {
            let (mut d, _) = Durability::open(&dir, &pl).unwrap();
            for r in &records {
                d.log(r).unwrap();
            }
            // Snapshot the state, then keep logging on top of it.
            let mut table = Table::new("kv", kv_schema());
            for row in state_after(&records) {
                table.push(row).unwrap();
            }
            d.checkpoint(&[Arc::new(table)], &pl, Some("{\"functions\": []}")).unwrap();
            for (k, v) in &extra {
                d.log(&WalRecord::Insert {
                    table: "kv".to_string(),
                    rows: vec![vec![Value::Int(*k), Value::Str(v.clone())]],
                }).unwrap();
            }
        }
        // Flip one bit in one file of the newest snapshot.
        let snap = dir.join("snapshots").join("000001");
        let mut files: Vec<_> = std::fs::read_dir(&snap)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let file = &files[(flip_seed % files.len() as u64) as usize];
        let mut data = std::fs::read(file).unwrap();
        let bit = (flip_seed / 7) % (data.len() as u64 * 8);
        data[(bit / 8) as usize] ^= 1 << (bit % 8);
        std::fs::write(file, &data).unwrap();

        let mut full_rows = state_after(&records);
        full_rows.extend(
            extra.iter().map(|(k, v)| vec![Value::Int(*k), Value::Str(v.clone())]),
        );
        match Durability::open(&dir, &pl) {
            Ok((_, rec)) => {
                // The snapshot failed verification, so recovery fell back
                // to the empty epoch-0 state plus the full WAL chain: the
                // complete history, nothing invented.
                let mut got = rec
                    .tables
                    .iter()
                    .flat_map(|t| t.rows().iter().cloned())
                    .collect::<Vec<_>>();
                got.extend(state_after(&rec.wal_records));
                prop_assert_eq!(got, full_rows, "fallback recovery diverged");
            }
            Err(StorageError::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The deterministic torn-tail contract: a partial final record is skipped
/// at open and overwritten by the next append.
#[test]
fn torn_tail_is_skipped_then_overwritten() {
    let dir = tmp("torn_det");
    let path = dir.join("wal").join("000000.log");
    let records = history(&[(1, "a".into()), (2, "b".into())]);
    write_wal(&path, &records);
    // Tear the final insert's frame.
    let full = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(full - 1)
        .unwrap();
    let (mut wal, replayed) = Wal::open(&path).unwrap();
    assert_eq!(replayed, records[..records.len() - 1]);
    let replacement = WalRecord::Insert {
        table: "kv".to_string(),
        rows: vec![vec![Value::Int(9), Value::Str("z".into())]],
    };
    wal.append(&replacement).unwrap();
    drop(wal);
    let (_, after) = Wal::open(&path).unwrap();
    let mut expected = records[..records.len() - 1].to_vec();
    expected.push(replacement);
    assert_eq!(after, expected);
    let _ = std::fs::remove_dir_all(dir);
}

/// Recovery across a checkpoint: snapshot + WAL tail reconstruct exactly
/// the committed state, byte for byte.
#[test]
fn checkpoint_plus_tail_reconstructs_committed_state() {
    let dir = tmp("reconstruct");
    let base = [(1i64, "a".to_string()), (2, "b".to_string())];
    let records = history(&base);
    let pl = pool();
    {
        let (mut d, _) = Durability::open(&dir, &pl).unwrap();
        for r in &records {
            d.log(r).unwrap();
        }
        let mut table = Table::new("kv", kv_schema());
        for row in state_after(&records) {
            table.push(row).unwrap();
        }
        d.checkpoint(&[Arc::new(table)], &pl, None).unwrap();
        d.log(&WalRecord::Insert {
            table: "kv".to_string(),
            rows: vec![vec![Value::Int(3), Value::Str("c".into())]],
        })
        .unwrap();
    }
    let (_, rec) = Durability::open(&dir, &pl).unwrap();
    assert_eq!(rec.snapshot_epoch, 1);
    assert_eq!(rec.tables.len(), 1);
    assert_eq!(rec.tables[0].len(), 2);
    assert_eq!(rec.wal_records.len(), 1);
    let mut rows = rec.tables[0].rows().to_vec();
    rows.extend(state_after(&rec.wal_records));
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Str("a".into())],
            vec![Value::Int(2), Value::Str("b".into())],
            vec![Value::Int(3), Value::Str("c".into())],
        ]
    );
    let _ = std::fs::remove_dir_all(dir);
}
