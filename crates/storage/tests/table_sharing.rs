//! A table is shared sealed pages plus a row tail.
//!
//! Random schedules of INSERT / `page_table` / checkpoint / retained
//! snapshot / crash + reopen on one durable table, against a `Vec<Row>`
//! model. What is pinned, by counts and pointer identity rather than by a
//! clock:
//!
//! - every retained snapshot keeps reading exactly its own rows through
//!   every access path, whatever was committed since;
//! - consecutive versions share every full sealed page (`Arc::ptr_eq`), an
//!   INSERT that does not seal shares the whole sealed part and decodes
//!   nothing, one that does decodes at most the short last page;
//! - a checkpoint writes at most the pages it had to encode plus the dirty
//!   ones it inherited, and reuses the rest;
//! - recovery equals the model, and the directory names the same page files
//!   and kmeta bytes as paging the same rows from scratch.

use kath_storage::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kathdb_sharing_{}_{name}_{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schema() -> Schema {
    Schema::of(&[("k", DataType::Int), ("v", DataType::Str)])
}

/// Row `i` of the table: an ascending key (so zone maps can prune) and a
/// low-cardinality, sometimes NULL string.
fn row(i: usize) -> Row {
    let v = if i % 7 == 3 {
        Value::Null
    } else {
        Value::Str(format!("v{}", i % 5))
    };
    vec![Value::Int(i as i64), v]
}

/// A durable shared catalog over `dir`, replaying whatever the directory
/// holds the way the facade does: snapshot tables, then the committed WAL
/// records through [`Catalog::apply`], the call live statements make.
/// Returns the catalog and how many records were replayed.
fn open(dir: &Path) -> (SharedCatalog, usize) {
    let shared = SharedCatalog::new();
    let (dur, rec) = Durability::open(dir, &shared.pool()).unwrap();
    let mut catalog = shared.snapshot().catalog().clone();
    for table in rec.tables {
        catalog.register_or_replace(table);
    }
    for record in &rec.wal_records {
        catalog.apply(record).unwrap();
    }
    shared.install_recovered(catalog, dur, rec.max_txid);
    (shared, rec.wal_records.len())
}

/// Commits one durable record, applied the way replay applies it.
fn commit(shared: &SharedCatalog, record: WalRecord) {
    shared
        .submit::<(), StorageError>(std::slice::from_ref(&record), false, |c| c.apply(&record))
        .unwrap();
}

/// One durable INSERT of `rows` into `t`.
fn insert(shared: &SharedCatalog, rows: Vec<Row>) {
    commit(
        shared,
        WalRecord::Insert {
            table: "t".into(),
            rows,
        },
    );
}

fn create(shared: &SharedCatalog) {
    commit(
        shared,
        WalRecord::CreateTable {
            name: "t".into(),
            schema: schema(),
        },
    );
}

fn sealed_len(t: &Table) -> usize {
    t.len() - t.tail().len()
}

/// Pages of `t`'s sealed part that are full, i.e. that any later version
/// must hold as the very same slots.
fn full_pages(t: &Table) -> usize {
    t.paged().map_or(0, |p| p.len() / p.page_rows())
}

/// `after` follows `before`: every full sealed page is the same slot.
fn assert_shares_full_pages(before: &Table, after: &Table) -> Result<(), TestCaseError> {
    let Some(old) = before.paged() else {
        return Ok(());
    };
    let new = after.paged().expect("a sealed part never goes away");
    prop_assert!(sealed_len(after) >= sealed_len(before));
    for c in 0..before.schema().arity() {
        for p in 0..full_pages(before) {
            prop_assert!(
                Arc::ptr_eq(old.slot(c, p), new.slot(c, p)),
                "page {p} of column {c} was copied or re-encoded"
            );
        }
    }
    Ok(())
}

fn scan_rows(scan: TableScan) -> Vec<Row> {
    collect("out", Box::new(scan)).unwrap().rows().to_vec()
}

fn scan_rows_batched(scan: TableScan, batch: usize) -> Vec<Row> {
    scan_rows(scan.with_batch_size(batch))
}

/// `table` reads as exactly `want` through every access path. The check
/// works on a clone, whose row cache is empty, so the page-aware paths
/// really read pages however often the same snapshot is checked.
fn assert_reads_as(table: &Table, want: &[Row]) -> Result<(), TestCaseError> {
    let t = Arc::new(table.clone());
    prop_assert_eq!(t.len(), want.len());
    for (i, row) in want.iter().enumerate() {
        prop_assert_eq!(t.row_at(i).unwrap(), Some(row.clone()));
    }
    prop_assert_eq!(t.row_at(want.len()).unwrap(), None);
    for (c, name) in ["k", "v"].iter().enumerate() {
        let mut seen = Vec::new();
        t.for_each_in_column(name, |pos, v| {
            seen.push((pos, v.clone()));
            Ok(())
        })
        .unwrap();
        let expect: Vec<(usize, Value)> = want.iter().map(|r| r[c].clone()).enumerate().collect();
        prop_assert_eq!(seen, expect);
    }
    let scan = || TableScan::new(Arc::clone(&t));
    prop_assert_eq!(&scan_rows(scan()), want);
    for batch in [1, 3, 1024] {
        prop_assert_eq!(&scan_rows_batched(scan(), batch), want);
    }
    // Windows around the seal boundary, and one over everything.
    let seal = sealed_len(&t);
    let n = want.len();
    let windows = [
        (seal.saturating_sub(2), (seal + 2).min(n)),
        (seal.saturating_sub(1), seal),
        (seal, (seal + 1).min(n)),
        (n / 3, n - n / 4),
        (0, n + 5),
    ];
    for (a, b) in windows {
        let expect = &want[a.min(n)..b.min(n)];
        prop_assert_eq!(&scan_rows(scan().with_range(a, b)), expect);
        prop_assert_eq!(&scan_rows_batched(scan().with_range(a, b), 2), expect);
    }
    // Column restriction, in both orders.
    let swapped: Vec<Row> = want
        .iter()
        .map(|r| vec![r[1].clone(), r[0].clone()])
        .collect();
    prop_assert_eq!(
        &scan_rows_batched(scan().with_columns(&[1, 0]), 3),
        &swapped
    );
    let only_v: Vec<Row> = want.iter().map(|r| vec![r[1].clone()]).collect();
    prop_assert_eq!(&scan_rows(scan().with_columns(&[1])), &only_v);
    // Prune hints may skip sealed pages but never a matching row.
    let cut = Value::Int((n / 2) as i64);
    let hint = [("k".to_string(), BinOp::Ge, cut.clone())];
    let matches = |r: &Row| r[0].total_cmp(&cut).is_ge();
    let matching: Vec<Row> = want.iter().filter(|r| matches(r)).cloned().collect();
    for got in [
        scan_rows(scan().with_prune_hint(&hint)),
        scan_rows_batched(scan().with_prune_hint(&hint), 3),
    ] {
        let kept: Vec<Row> = got.into_iter().filter(matches).collect();
        prop_assert_eq!(&kept, &matching);
    }
    // The legacy accessor agrees.
    prop_assert_eq!(t.rows(), want);
    Ok(())
}

/// The kmeta bytes and page file names of the newest snapshot in `dir`.
fn newest_snapshot(dir: &Path) -> (Vec<u8>, Vec<String>) {
    let mut epochs: Vec<PathBuf> = std::fs::read_dir(dir.join("snapshots"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    epochs.sort();
    let kmeta = std::fs::read(epochs.last().unwrap().join("t0.kmeta")).unwrap();
    let mut pages: Vec<String> = std::fs::read_dir(dir.join("pages"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    pages.sort();
    (kmeta, pages)
}

#[derive(Debug, Clone)]
enum Step {
    /// INSERT `1 + n % (3 * page_rows)` rows in one statement.
    Insert(usize),
    PageTable,
    Checkpoint,
    Retain,
    CrashAndOpen,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..1000).prop_map(Step::Insert),
        (0usize..1000).prop_map(Step::Insert),
        (0usize..1000).prop_map(Step::Insert),
        Just(Step::PageTable),
        Just(Step::Checkpoint),
        Just(Step::Retain),
        Just(Step::CrashAndOpen),
    ]
}

/// A retained version: its table, the rows it must keep reading, and how
/// many checkpoints it has lived through. Checkpoint `N` sweeps page files
/// only snapshot `N-2` referenced, so a reader is entitled to its pages
/// across one later checkpoint, not two (docs/concurrency.md).
struct Retained {
    table: Arc<Table>,
    rows: Vec<Row>,
    checkpoints: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn versions_share_pages_and_read_their_own_rows(
        page_rows in 2usize..6,
        steps in prop::collection::vec(arb_step(), 1..30),
    ) {
        let dir = tmp("sched");
        let (mut shared, _) = open(&dir);
        create(&shared);
        shared.page_table("t", page_rows).unwrap();
        let mut model: Vec<Row> = Vec::new();
        let mut since_checkpoint = 0usize;
        let mut retained: Vec<Retained> = Vec::new();

        for step in steps {
            let before = shared.get("t").unwrap();
            let pool = shared.pool();
            match step {
                Step::Insert(n) => {
                    let n = 1 + n % (3 * page_rows);
                    let rows: Vec<Row> = (model.len()..model.len() + n).map(row).collect();
                    let misses = pool.status().misses;
                    insert(&shared, rows.clone());
                    let decoded = pool.status().misses - misses;
                    model.extend(rows);
                    since_checkpoint += 1;
                    let after = shared.get("t").unwrap();
                    if after.tail().len() == before.tail().len() + n {
                        // Nothing sealed: the sealed part is the same object
                        // and not one page of it was looked at.
                        prop_assert!(Arc::ptr_eq(before.paged().unwrap(), after.paged().unwrap()));
                        prop_assert_eq!(decoded, 0);
                    } else {
                        // The tail filled a page and was sealed: at most the
                        // short last page of each column was decoded.
                        prop_assert!(after.tail().is_empty());
                        prop_assert!(before.tail().len() + n >= page_rows);
                        prop_assert!(decoded <= 2, "{decoded} pages decoded by one INSERT");
                    }
                    assert_shares_full_pages(&before, &after)?;
                }
                Step::PageTable => {
                    let sealed = shared.page_table("t", 1000).unwrap();
                    prop_assert_eq!(sealed, !before.tail().is_empty());
                    let after = shared.get("t").unwrap();
                    prop_assert!(after.tail().is_empty());
                    prop_assert_eq!(after.paged().unwrap().page_rows(), page_rows);
                    assert_shares_full_pages(&before, &after)?;
                }
                Step::Checkpoint => {
                    // What the checkpoint cannot avoid writing: the dirty
                    // full pages it inherits, and whatever it encodes — the
                    // pages from the first non-full one on.
                    let old = before.paged().unwrap();
                    let inherited_dirty = (0..2)
                        .flat_map(|c| (0..full_pages(&before)).map(move |p| (c, p)))
                        .filter(|&(c, p)| old.slot(c, p).is_dirty())
                        .count();
                    shared.checkpoint(None).unwrap();
                    since_checkpoint = 0;
                    let after = shared.get("t").unwrap();
                    let new = after.paged().unwrap();
                    prop_assert!(after.tail().is_empty());
                    prop_assert_eq!(new.dirty_pages(), 0);
                    assert_shares_full_pages(&before, &after)?;
                    let stats = shared.status().unwrap().last_checkpoint.unwrap();
                    let encoded = 2 * (new.page_count() - full_pages(&before));
                    prop_assert_eq!(stats.pages_written + stats.pages_reused, 2 * new.page_count());
                    prop_assert!(
                        stats.pages_written <= inherited_dirty + encoded,
                        "{stats:?}: {inherited_dirty} dirty inherited, {encoded} encoded"
                    );
                    for seen in &mut retained {
                        seen.checkpoints += 1;
                    }
                    retained.retain(|seen| seen.checkpoints < 2);
                }
                Step::Retain => retained.push(Retained {
                    table: shared.snapshot().get("t").unwrap(),
                    rows: model.clone(),
                    checkpoints: 0,
                }),
                Step::CrashAndOpen => {
                    // No close, no checkpoint: what the WAL synced is all
                    // there is. Retained snapshots outlive the handle.
                    drop(before);
                    drop(shared);
                    let (reopened, replayed) = open(&dir);
                    prop_assert_eq!(replayed, since_checkpoint + usize::from(!dir_has_snapshot(&dir)));
                    shared = reopened;
                    // A table that only ever lived in the WAL comes back
                    // unsealed; give it the schedule's page size again.
                    if !shared.get("t").unwrap().is_paged() {
                        shared.page_table("t", page_rows).unwrap();
                    }
                    prop_assert_eq!(shared.get("t").unwrap().paged().unwrap().page_rows(), page_rows);
                }
            }
            assert_reads_as(&shared.get("t").unwrap(), &model)?;
            for seen in &retained {
                assert_reads_as(&seen.table, &seen.rows)?;
            }
        }

        // The directory this schedule left behind is the one a from-scratch
        // paging of the same rows writes: same kmeta bytes, same page files.
        shared.checkpoint(None).unwrap();
        let scratch_dir = tmp("scratch");
        let (scratch, _) = open(&scratch_dir);
        let all = Table::from_rows("t", schema(), model.clone()).unwrap();
        let pages = PagedTable::from_rows(schema(), all.rows(), scratch.pool(), page_rows).unwrap();
        scratch.register(Table::from_paged("t", Arc::new(pages))).unwrap();
        scratch.checkpoint(None).unwrap();
        let (kmeta, pages) = newest_snapshot(&dir);
        let (scratch_kmeta, scratch_pages) = newest_snapshot(&scratch_dir);
        prop_assert_eq!(kmeta, scratch_kmeta);
        for name in &scratch_pages {
            prop_assert!(pages.contains(name), "page {name} missing");
            let ours = std::fs::read(dir.join("pages").join(name)).unwrap();
            let theirs = std::fs::read(scratch_dir.join("pages").join(name)).unwrap();
            prop_assert_eq!(ours, theirs);
        }
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(scratch_dir);
    }
}

fn dir_has_snapshot(dir: &Path) -> bool {
    std::fs::read_dir(dir.join("snapshots"))
        .map(|mut entries| entries.next().is_some())
        .unwrap_or(false)
}

/// The flat property, by counts, over two decades of table length: a
/// single-row INSERT shares the whole sealed part and decodes nothing, and
/// the checkpoint after a few of them writes one page per column.
#[test]
fn insert_and_checkpoint_cost_the_rows_they_touch_not_the_table() {
    const PAGE_ROWS: usize = 256;
    for len in [1_000usize, 10_000, 100_000] {
        let dir = tmp("flat");
        let (shared, _) = open(&dir);
        let loaded = Table::from_rows("t", schema(), (0..len).map(row).collect()).unwrap();
        shared.register(loaded).unwrap();
        shared.page_table("t", PAGE_ROWS).unwrap();
        shared.checkpoint(None).unwrap();
        let pool = shared.pool();
        pool.reset_counters();

        let sealed = shared.get("t").unwrap();
        let inserted = 10;
        assert!(
            len % PAGE_ROWS + inserted < PAGE_ROWS,
            "stays within the last page"
        );
        for i in 0..inserted {
            insert(&shared, vec![row(len + i)]);
            let now = shared.get("t").unwrap();
            assert!(Arc::ptr_eq(now.paged().unwrap(), sealed.paged().unwrap()));
            assert_eq!(now.tail().len(), i + 1);
        }
        let status = pool.status();
        assert_eq!(
            (status.misses, status.hits),
            (0, 0),
            "len {len}: INSERT read pages"
        );

        shared.checkpoint(None).unwrap();
        let stats = shared.status().unwrap().last_checkpoint.unwrap();
        let pages = (len + inserted).div_ceil(PAGE_ROWS);
        assert_eq!(stats.pages_written, 2, "len {len}: {stats:?}");
        assert_eq!(stats.pages_reused, 2 * pages - 2, "len {len}: {stats:?}");
        // Sealing decoded the short last page of each column, nothing else.
        assert_eq!(pool.status().misses, 2, "len {len}");
        let after = shared.get("t").unwrap();
        let (old, new) = (sealed.paged().unwrap(), after.paged().unwrap());
        for p in 0..len / PAGE_ROWS {
            assert!(Arc::ptr_eq(old.slot(0, p), new.slot(0, p)));
            assert!(Arc::ptr_eq(old.slot(1, p), new.slot(1, p)));
        }

        // A crash now replays nothing; ten more INSERTs replay as ten.
        for i in 0..inserted {
            insert(&shared, vec![row(len + inserted + i)]);
        }
        drop((sealed, after, shared));
        let (reopened, replayed) = open(&dir);
        assert_eq!(replayed, inserted);
        let recovered = reopened.get("t").unwrap();
        assert_eq!(recovered.len(), len + 2 * inserted);
        assert_eq!(recovered.tail().len(), inserted);
        assert_eq!(
            reopened.pool().status().misses,
            0,
            "len {len}: replay read pages"
        );
        let last = recovered.row_at(len + 2 * inserted - 1).unwrap().unwrap();
        assert_eq!(last, row(len + 2 * inserted - 1));
        let _ = std::fs::remove_dir_all(dir);
    }
}
