//! `recovery_smoke` — a real process-kill crash-recovery check.
//!
//! The parent process spawns *itself* in `--crash` mode: the child opens a
//! durable directory, creates a table, inserts rows (each one write-ahead
//! logged + fsynced), checkpoints part-way, inserts more, ingests a table
//! longer than a page (one CREATE + INSERT transaction), then dies via
//! `abort()` — no destructors, no close, no checkpoint, exactly like a
//! `kill -9`. The parent then reopens the directory and asserts every
//! committed row survived. CI runs this as the recovery smoke leg
//! (`make recovery-smoke`).

use kathdb::storage::{DataType, Schema, Table, Value};
use kathdb::KathDB;
use std::process::Command;

const ROWS_BEFORE_CHECKPOINT: usize = 3;
const ROWS_AFTER_CHECKPOINT: usize = 4;

/// The table the child ingests after its checkpoint.
fn ingested() -> Table {
    let rows = (0..5_000i64).map(|k| vec![Value::Int(k), Value::Str(format!("ingest-{k}"))]);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Str)]);
    Table::from_rows("ingested", schema, rows.collect()).unwrap()
}

fn crash_child(dir: &str) -> ! {
    let mut db = KathDB::open(dir).expect("child opens durable dir");
    db.sql("CREATE TABLE survivors (k INT, v STR)").unwrap();
    for i in 0..ROWS_BEFORE_CHECKPOINT {
        db.sql(&format!("INSERT INTO survivors VALUES ({i}, 'pre-{i}')"))
            .unwrap();
    }
    db.checkpoint().unwrap();
    for i in 0..ROWS_AFTER_CHECKPOINT {
        db.sql(&format!(
            "INSERT INTO survivors VALUES ({}, 'post-{i}')",
            ROWS_BEFORE_CHECKPOINT + i
        ))
        .unwrap();
    }
    db.load_table(ingested(), "smoke://ingested").unwrap();
    let survivors = db.context().catalog.snapshot().get("survivors").unwrap();
    eprintln!(
        "child: {} rows logged, aborting without shutdown",
        survivors.len()
    );
    std::process::abort();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--crash") {
        crash_child(args.get(i + 1).expect("--crash <dir>"));
    }

    let dir = std::env::temp_dir().join(format!("kathdb_recovery_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exe = std::env::current_exe().expect("own path");
    let status = Command::new(&exe)
        .arg("--crash")
        .arg(&dir)
        .status()
        .expect("child spawns");
    assert!(
        !status.success(),
        "child was supposed to die by abort(), got {status}"
    );

    let mut db = KathDB::open(&dir).expect("recovery after process kill");
    let total = ROWS_BEFORE_CHECKPOINT + ROWS_AFTER_CHECKPOINT;
    let table = db
        .sql("SELECT * FROM survivors ORDER BY k")
        .expect("recovered table queries");
    assert_eq!(
        table.len(),
        total,
        "committed rows lost:\n{}",
        table.render()
    );
    for i in 0..total {
        assert_eq!(table.cell(i, "k").unwrap().as_int(), Some(i as i64));
    }
    let ingest = db.sql("SELECT * FROM ingested ORDER BY k").unwrap();
    assert_eq!(ingest.rows(), ingested().rows(), "ingested rows lost");
    let status = db.durability_status().expect("durable after reopen");
    println!(
        "recovery smoke OK: {total} committed rows and a 5000-row ingest survived a process kill \
         (snapshot epoch {}, {} wal record(s) replayed on top)",
        status.snapshot_epoch, status.wal_records
    );
    let _ = std::fs::remove_dir_all(&dir);
}
