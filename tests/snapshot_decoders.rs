//! The snapshot decoders under structure-aware mutation.
//!
//! A directory holds snapshots 1 and 2 of one table, with one INSERT
//! logged between them. Each case mutates snapshot 2's `MANIFEST` or its
//! `t0.kmeta` — a truncation, a bit flip, or (in the manifest) two lines
//! swapped or one deleted — and then opens the directory with
//! `Durability::open`:
//!
//! - left unsealed, the mutation is caught by a checksum, and recovery
//!   falls back to snapshot 1 plus the log: the full committed state;
//! - re-sealed (the kmeta trailer, the manifest's entry for the kmeta and
//!   the manifest's own `crc` line recomputed), the mutation reaches the
//!   parsers behind the checksums. Open then returns a typed error or a
//!   state whose tables read back without a panic, and a fallback to
//!   snapshot 1 is still the full committed state.
//!
//! The directory lives on the in-memory [`SimDisk`], so a case costs no
//! file-system call. `crates/storage/tests/page_format.rs` does the same
//! for the page codec.

#[path = "../crates/storage/tests/support/mod.rs"]
mod support;

use kath_storage::{
    crc32, BufferPool, DataType, Durability, Io, IoBackend, Row, Schema, StorageError, Table,
    Value, WalRecord,
};
use proptest::prelude::*;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use support::{Keep, SimDisk};

fn kv(rows: std::ops::Range<i64>) -> Table {
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Str)]);
    let rows = rows.map(|k| vec![Value::Int(k), Value::Str(format!("v{k}"))]);
    Table::from_rows("kv", schema, rows.collect()).unwrap()
}

/// Logs and fsyncs one record.
fn log(d: &mut Durability, record: &WalRecord) {
    d.log_batch_nosync([record]).unwrap();
    d.sync_wal().unwrap();
}

/// A disk holding the directory, and the bytes of snapshot 2's
/// `MANIFEST` and `t0.kmeta`.
struct Base {
    disk: SimDisk,
    manifest: Vec<u8>,
    kmeta: Vec<u8>,
}

const DIR: &str = "/db";
const MANIFEST: &str = "/db/snapshots/000002/MANIFEST";
const KMETA: &str = "/db/snapshots/000002/t0.kmeta";

fn pool_on(disk: Arc<SimDisk>) -> Arc<BufferPool> {
    let io = Io::real();
    io.set_backend(disk);
    Arc::new(BufferPool::with_budget_io(64, io))
}

fn base() -> &'static Base {
    static BASE: OnceLock<Base> = OnceLock::new();
    BASE.get_or_init(|| {
        let disk = Arc::new(SimDisk::new());
        let pool = pool_on(Arc::clone(&disk));
        let (mut d, _) = Durability::open(Path::new(DIR), &pool).unwrap();
        let schema = kv(0..0).schema().clone();
        log(
            &mut d,
            &WalRecord::CreateTable {
                name: "kv".into(),
                schema,
            },
        );
        let functions = Some("{\"functions\": []}");
        d.checkpoint(&[Arc::new(kv(0..40))], &pool, functions)
            .unwrap();
        let rows: Vec<Row> = kv(40..50).to_rows().unwrap();
        log(
            &mut d,
            &WalRecord::Insert {
                table: "kv".into(),
                rows,
            },
        );
        d.checkpoint(&[Arc::new(kv(0..50))], &pool, functions)
            .unwrap();
        let disk = disk.crash(disk.events(), Keep::All);
        Base {
            manifest: disk.read(Path::new(MANIFEST)).unwrap(),
            kmeta: disk.read(Path::new(KMETA)).unwrap(),
            disk,
        }
    })
}

/// Recomputes a manifest's `crc` line over the lines before it.
fn reseal_manifest(manifest: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(manifest);
    let body: String = text
        .lines()
        .filter(|l| !l.starts_with("crc "))
        .map(|l| format!("{l}\n"))
        .collect();
    format!("{body}crc {}\n", crc32(body.as_bytes())).into_bytes()
}

/// Recomputes a kmeta's CRC trailer, then the manifest entry naming it.
fn reseal_kmeta(kmeta: &mut [u8], manifest: &[u8]) -> Vec<u8> {
    if kmeta.len() >= 4 {
        let end = kmeta.len() - 4;
        let crc = crc32(&kmeta[..end]).to_be_bytes();
        kmeta[end..].copy_from_slice(&crc);
    }
    let text = String::from_utf8_lossy(manifest);
    let entry = format!("ptable t0.kmeta {} {}", kmeta.len(), crc32(kmeta));
    let lines: Vec<String> = text
        .lines()
        .map(|l| match l.starts_with("ptable t0.kmeta ") {
            true => entry.clone(),
            false => l.to_string(),
        })
        .collect();
    reseal_manifest(format!("{}\n", lines.join("\n")).as_bytes())
}

/// One of the four mutations, at a position drawn from `at`.
fn mutate(bytes: &[u8], kind: usize, at: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match kind {
        0 => out.truncate((at % (bytes.len() as u64 + 1)) as usize),
        1 => {
            let bit = at % (bytes.len() as u64 * 8);
            out[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        _ => {
            let text = String::from_utf8_lossy(bytes);
            let mut lines: Vec<&str> = text.lines().collect();
            let i = (at % lines.len() as u64) as usize;
            if kind == 2 {
                let j = ((at / 7) % lines.len() as u64) as usize;
                lines.swap(i, j);
            } else {
                lines.remove(i);
            }
            out = lines
                .iter()
                .flat_map(|l| [l.as_bytes(), b"\n"].concat())
                .collect();
        }
    }
    out
}

/// The recovered state: the snapshot's rows, then the log's INSERTs.
fn state(tables: &[Table], log: &[WalRecord]) -> Result<Vec<Row>, StorageError> {
    let mut rows = Vec::new();
    for t in tables {
        rows.extend(t.to_rows()?);
    }
    for record in log {
        if let WalRecord::Insert { rows: more, .. } = record {
            rows.extend(more.iter().cloned());
        }
    }
    Ok(rows)
}

/// Mutates snapshot 2 on a copy of the base disk (re-sealing it when
/// asked), opens the directory, and checks what the open gave.
fn check(base: &Base, in_kmeta: bool, kind: usize, at: u64, reseal: bool) -> Result<(), String> {
    let (mut manifest, mut kmeta) = (base.manifest.clone(), base.kmeta.clone());
    if in_kmeta {
        // The kmeta is binary: truncations and bit flips only.
        kmeta = mutate(&kmeta, kind % 2, at);
        if reseal {
            manifest = reseal_kmeta(&mut kmeta, &manifest);
        }
    } else {
        manifest = mutate(&manifest, kind, at);
        if reseal {
            manifest = reseal_manifest(&manifest);
        }
    }
    let disk = base.disk.crash(base.disk.events(), Keep::All);
    disk.write_file(Path::new(MANIFEST), &manifest).unwrap();
    disk.write_file(Path::new(KMETA), &kmeta).unwrap();
    let opened = Durability::open(Path::new(DIR), &pool_on(Arc::new(disk)));
    let got = opened.map(|(_, rec)| (rec.snapshot_epoch, state(&rec.tables, &rec.wal_records)));

    let intact = manifest == base.manifest && kmeta == base.kmeta;
    let full = kv(0..50).to_rows().unwrap();
    let case = format!("kmeta {in_kmeta}, kind {kind}, at {at}, reseal {reseal}");
    match got {
        // A fallback, an unsealed mutation that still opened (only the
        // manifest's trailing newline can go unnoticed), or no change at
        // all: the full committed state.
        Ok((epoch, Ok(rows))) if epoch == 1 || !reseal || intact => match rows == full {
            true => Ok(()),
            false => Err(format!("{case}: epoch {epoch} recovered other rows")),
        },
        // A re-sealed snapshot the decoders accept is a snapshot like any
        // other: its tables read back or refuse.
        Ok((2, Ok(_) | Err(StorageError::Corrupt(_)))) if reseal => Ok(()),
        Err(StorageError::Corrupt(_)) if reseal => Ok(()),
        Ok((epoch, rows)) => Err(format!("{case}: epoch {epoch}: {rows:?}")),
        Err(e) => Err(format!("{case}: open failed: {e}")),
    }
}

proptest! {
    #[test]
    fn a_mutated_snapshot_is_refused_or_falls_back(
        in_kmeta in any::<bool>(),
        kind in 0usize..4,
        at in any::<u64>(),
        reseal in any::<bool>(),
    ) {
        let base = base();
        if let Err(e) = check(base, in_kmeta, kind, at, reseal) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Every truncation and every bit flip of either file, unsealed and
/// re-sealed.
#[test]
fn every_truncation_and_bit_flip_is_refused_or_falls_back() {
    let base = base();
    for (in_kmeta, len) in [(false, base.manifest.len()), (true, base.kmeta.len())] {
        for reseal in [false, true] {
            for cut in 0..len as u64 {
                check(base, in_kmeta, 0, cut, reseal).unwrap();
            }
            for bit in 0..len as u64 * 8 {
                check(base, in_kmeta, 1, bit, reseal).unwrap();
            }
        }
    }
}
