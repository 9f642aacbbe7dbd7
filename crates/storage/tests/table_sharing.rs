//! A table is one list of row groups, sealed or open.
//!
//! Random schedules of INSERT / `page_table` / checkpoint / retained
//! snapshot / crash + reopen on one durable table, against a `Vec<Row>`
//! model. What is pinned, by counts and pointer identity rather than by a
//! clock:
//!
//! - every retained snapshot keeps reading exactly its own rows through
//!   every access path, whatever was committed since;
//! - an INSERT replaces at most the last group of its parent and holds
//!   every other page as the very same `Arc`; it decodes at most the short
//!   sealed last group it reopens, and nothing else;
//! - a checkpoint writes at most the pages it had to encode plus the dirty
//!   ones it inherited, and reuses the rest;
//! - recovery equals the model, and the directory names the same page files
//!   and kmeta bytes as paging the same rows from scratch — as does sealing
//!   open groups at any point, by page name;
//! - a drained result is the table row-by-row pushes build, whatever the
//!   values' mix of types;
//! - every group, open or sealed, has exact zone maps when a hinted scan
//!   asks, whatever built it, and a hinted scan returns exactly the rows
//!   its hint keeps.

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

/// Rows before the first open group: the sealed prefix.
fn sealed_len(t: &Table) -> usize {
    let sealed = t.groups().iter().take_while(|g| !g.is_open()).count();
    (sealed * t.page_rows()).min(t.len())
}

/// Groups of `t` that are sealed and full, i.e. that any later version
/// must hold as the very same slots.
fn full_pages(t: &Table) -> usize {
    let full = if t.len().is_multiple_of(t.page_rows()) {
        t.groups().len()
    } else {
        t.groups().len() - 1
    };
    t.groups()[..full]
        .iter()
        .take_while(|g| !g.is_open())
        .count()
}

/// Whether two groups hold the very same page list or open columns.
fn same_group(a: &RowGroup, b: &RowGroup) -> bool {
    match (a, b) {
        (RowGroup::Sealed(a), RowGroup::Sealed(b)) => Arc::ptr_eq(a, b),
        (RowGroup::Open(a), RowGroup::Open(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

/// Dirty page slots of `t`: sealed, not yet written by a checkpoint.
fn dirty_pages(t: &Table) -> usize {
    t.groups()
        .iter()
        .map(|g| match g {
            RowGroup::Sealed(slots) => slots.iter().filter(|s| s.is_dirty()).count(),
            RowGroup::Open(_) => 0,
        })
        .sum()
}

/// `after` follows `before`: every full sealed page is the same slot.
fn assert_shares_full_pages(before: &Table, after: &Table) -> Result<(), TestCaseError> {
    prop_assert!(sealed_len(after) >= full_pages(before) * before.page_rows());
    for g in 0..full_pages(before) {
        prop_assert!(
            same_group(&before.groups()[g], &after.groups()[g]),
            "group {g} was copied or re-encoded"
        );
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
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn versions_share_pages_and_read_their_own_rows(
        page_rows in 2usize..6,
        steps in prop::collection::vec(arb_step(), 1..30),
    ) {
        let dir = tmp("sched");
        let (mut shared, _) = open(&dir);
        create(&shared);
        shared.try_publish(|c| c.page_table("t", page_rows)).unwrap();
        let mut model: Vec<Row> = Vec::new();
        let mut since_checkpoint = 0usize;
        let mut retained: Vec<Retained> = Vec::new();

        for step in steps {
            let before = shared.snapshot().get("t").unwrap();
            let pool = shared.pool();
            match step {
                Step::Insert(n) => {
                    let n = 1 + n % (3 * page_rows);
                    let rows: Vec<Row> = (model.len()..model.len() + n).map(row).collect();
                    let touched = || pool.status().misses + pool.status().hits;
                    let before_touched = touched();
                    insert(&shared, rows.clone());
                    let read = touched() - before_touched;
                    model.extend(rows);
                    since_checkpoint += 1;
                    let after = shared.snapshot().get("t").unwrap();
                    // Every group but the parent's last is the very same
                    // pages or columns: an INSERT replaces at most one.
                    let kept = before.groups().len().saturating_sub(1);
                    for g in 0..kept {
                        prop_assert!(
                            same_group(&before.groups()[g], &after.groups()[g]),
                            "group {g} of {} was replaced", before.groups().len()
                        );
                    }
                    // Only a short sealed last group is read (decoded, or
                    // found in the pool): reopened, one page per column.
                    let reopens = !before.len().is_multiple_of(page_rows)
                        && before.groups().last().is_some_and(|g| !g.is_open());
                    prop_assert_eq!(read, if reopens { 2 } else { 0 });
                    // Every group an INSERT fills is sealed, and this table
                    // was sealed before its first: no open group is full.
                    prop_assert!(after.len() - sealed_len(&after) < page_rows);
                    assert_shares_full_pages(&before, &after)?;
                }
                Step::PageTable => {
                    let sealed = shared.try_publish(|c| c.page_table("t", 1000)).unwrap();
                    prop_assert_eq!(sealed, before.groups().iter().any(|g| g.is_open()));
                    let after = shared.snapshot().get("t").unwrap();
                    prop_assert!(after.groups().iter().all(|g| !g.is_open()));
                    prop_assert_eq!(after.page_rows(), page_rows);
                    assert_shares_full_pages(&before, &after)?;
                }
                Step::Checkpoint => {
                    // What the checkpoint cannot avoid writing: the dirty
                    // full pages it inherits, and whatever it encodes — the
                    // pages from the first non-full one on.
                    let inherited_dirty: usize = before.groups()[..full_pages(&before)]
                        .iter()
                        .map(|g| match g {
                            RowGroup::Sealed(slots) => slots.iter().filter(|s| s.is_dirty()).count(),
                            RowGroup::Open(_) => 0,
                        })
                        .sum();
                    shared.checkpoint(None).unwrap();
                    since_checkpoint = 0;
                    let after = shared.snapshot().get("t").unwrap();
                    prop_assert!(after.groups().iter().all(|g| !g.is_open()));
                    prop_assert_eq!(dirty_pages(&after), 0);
                    assert_shares_full_pages(&before, &after)?;
                    let stats = shared.status().unwrap().last_checkpoint.unwrap();
                    let pages = after.groups().len();
                    let encoded = 2 * (pages - full_pages(&before));
                    prop_assert_eq!(stats.pages_written + stats.pages_reused, 2 * pages);
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
                    if !shared.snapshot().get("t").unwrap().is_paged() {
                        shared.try_publish(|c| c.page_table("t", page_rows)).unwrap();
                    }
                    prop_assert_eq!(shared.snapshot().get("t").unwrap().page_rows(), page_rows);
                }
            }
            assert_reads_as(&shared.snapshot().get("t").unwrap(), &model)?;
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
        let sealed = all.seal(&scratch.pool(), page_rows).unwrap();
        scratch.try_publish(|c| c.register(sealed)).unwrap();
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
/// single-row INSERT shares every full page, the first one reopens the
/// short last page (one decode per column) and the rest decode nothing, and
/// the checkpoint after a few of them writes one page per column.
#[test]
fn insert_and_checkpoint_cost_the_rows_they_touch_not_the_table() {
    const PAGE_ROWS: usize = 256;
    for len in [1_000usize, 10_000, 100_000] {
        let dir = tmp("flat");
        let (shared, _) = open(&dir);
        let loaded = Table::from_rows("t", schema(), (0..len).map(row).collect()).unwrap();
        shared.try_publish(|c| c.register(loaded)).unwrap();
        shared
            .try_publish(|c| c.page_table("t", PAGE_ROWS))
            .unwrap();
        shared.checkpoint(None).unwrap();
        let pool = shared.pool();
        pool.reset_counters();

        let sealed = shared.snapshot().get("t").unwrap();
        let full = len / PAGE_ROWS;
        let inserted = 10;
        assert!(
            len % PAGE_ROWS + inserted < PAGE_ROWS,
            "stays within the last page"
        );
        for i in 0..inserted {
            insert(&shared, vec![row(len + i)]);
            let now = shared.snapshot().get("t").unwrap();
            for g in 0..full {
                assert!(same_group(&now.groups()[g], &sealed.groups()[g]));
            }
            assert_eq!(now.groups().len(), full + 1);
            assert!(now.groups()[full].is_open());
            assert_eq!(pool.status().misses, 2, "len {len}: INSERT {i} read pages");
        }
        assert_eq!(pool.status().hits, 0, "len {len}: INSERT read pages");

        shared.checkpoint(None).unwrap();
        let stats = shared.status().unwrap().last_checkpoint.unwrap();
        let pages = (len + inserted).div_ceil(PAGE_ROWS);
        assert_eq!(stats.pages_written, 2, "len {len}: {stats:?}");
        assert_eq!(stats.pages_reused, 2 * pages - 2, "len {len}: {stats:?}");
        // Sealing encoded the open group and decoded nothing.
        assert_eq!(pool.status().misses, 2, "len {len}");
        let after = shared.snapshot().get("t").unwrap();
        for g in 0..full {
            assert!(same_group(&sealed.groups()[g], &after.groups()[g]));
        }

        // A crash now replays nothing; ten more INSERTs replay as ten, and
        // replay reads the short last page of each column, nothing else.
        for i in 0..inserted {
            insert(&shared, vec![row(len + inserted + i)]);
        }
        drop((sealed, after, shared));
        let (reopened, replayed) = open(&dir);
        assert_eq!(replayed, inserted);
        let recovered = reopened.snapshot().get("t").unwrap();
        assert_eq!(recovered.len(), len + 2 * inserted);
        assert_eq!(recovered.groups().len(), full + 1);
        assert!(recovered.groups()[full].is_open());
        assert_eq!(
            reopened.pool().status().misses,
            2,
            "len {len}: replay read pages"
        );
        let last = recovered.row_at(len + 2 * inserted - 1).unwrap().unwrap();
        assert_eq!(last, row(len + 2 * inserted - 1));
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A value for a column that admits anything: Int and Float (never
/// widened into each other), NULL, blobs and strings.
fn arb_any() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-5i64..5).prop_map(Value::Int),
        (-5i64..5).prop_map(|i| Value::Float(i as f64 / 2.0)),
        Just(Value::Null),
        prop::collection::vec(any::<u8>(), 0..4).prop_map(Value::Blob),
        "[a-c]{0,2}".prop_map(Value::Str),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Sealing open groups — after a first seal at `cut`, after INSERTs
    /// that reopen its short page and fill new groups — names the same
    /// page files as sealing all the rows from scratch.
    #[test]
    fn sealing_open_groups_names_the_pages_a_fresh_seal_does(
        page_rows in 1usize..6,
        n in 0usize..40,
        cut in 0usize..40,
        reseal in 0usize..40,
    ) {
        let pool = Arc::new(BufferPool::with_budget(4));
        let rows: Vec<Row> = (0..n).map(row).collect();
        let (cut, reseal) = (cut.min(n), reseal.min(n).max(cut.min(n)));
        let mut t = Table::from_rows("t", schema(), rows[..cut].to_vec())
            .unwrap()
            .seal(&pool, page_rows)
            .unwrap();
        t.extend(rows[cut..reseal].to_vec()).unwrap();
        t = t.seal(&pool, page_rows).unwrap();
        t.extend(rows[reseal..].to_vec()).unwrap();
        let sealed = t.seal(&pool, page_rows).unwrap();
        let scratch = Table::from_rows("t", schema(), rows)
            .unwrap()
            .seal(&pool, page_rows)
            .unwrap();
        let names = |t: &Table| -> Vec<String> {
            t.groups()
                .iter()
                .flat_map(|g| match g {
                    RowGroup::Sealed(slots) => slots.iter().map(|s| s.file_name()).collect(),
                    RowGroup::Open(_) => vec!["open".to_string()],
                })
                .collect()
        };
        prop_assert_eq!(names(&sealed), names(&scratch));
        prop_assert_eq!(sealed.to_rows().unwrap(), scratch.to_rows().unwrap());
    }

    /// Draining a scan appends each batch's columns; the table it builds
    /// reads exactly as the one row-by-row pushes build, for an `Any`
    /// column that mixes Int and Float, NULLs, blobs and strings — at any
    /// batch size, over open and sealed groups.
    #[test]
    fn a_drained_result_equals_row_by_row_pushes(
        values in prop::collection::vec(arb_any(), 0..60),
        batch in 1usize..9,
        page_rows in 1usize..7,
        seal in any::<bool>(),
    ) {
        let schema = Schema::of(&[("k", DataType::Int), ("x", DataType::Any)]);
        let rows: Vec<Row> = values
            .into_iter()
            .enumerate()
            .map(|(i, x)| vec![Value::Int(i as i64), x])
            .collect();
        let pushed = Table::from_rows("t", schema, rows.clone()).unwrap();
        let source = if seal {
            pushed.seal(&Arc::new(BufferPool::with_budget(2)), page_rows).unwrap()
        } else {
            pushed.clone()
        };
        let scan = TableScan::new(Arc::new(source)).with_batch_size(batch);
        let drained = collect("t", Box::new(scan)).unwrap();
        prop_assert_eq!(drained.len(), rows.len());
        prop_assert_eq!(&drained.to_rows().unwrap(), &rows);
        for (i, want) in rows.iter().enumerate() {
            prop_assert_eq!(drained.row_at(i).unwrap(), Some(want.clone()));
        }
        let mut seen = Vec::new();
        drained
            .for_each_in_column("x", |_, v| {
                seen.push(v.clone());
                Ok(())
            })
            .unwrap();
        let want: Vec<Value> = rows.iter().map(|r| r[1].clone()).collect();
        prop_assert_eq!(seen, want);
        prop_assert_eq!(&drained, &pushed);
    }
}

/// A drained batch is checked against the output schema once per column,
/// by the rule `check_row` applies to each value.
#[test]
fn a_drained_batch_that_misfits_the_schema_is_refused() {
    use kath_storage::{Operator, RowBatch};
    struct Batches(Schema, Vec<RowBatch>);
    impl Operator for Batches {
        fn schema(&self) -> &Schema {
            &self.0
        }
        fn next_batch(&mut self) -> Result<Option<RowBatch>, StorageError> {
            Ok(self.1.pop())
        }
    }
    let schema = Schema::new(vec![
        Column::required("k", DataType::Int),
        Column::new("f", DataType::Float),
    ])
    .unwrap();
    let batch = |k: Vec<Value>, f: Vec<Value>| {
        RowBatch::from_columns(vec![
            ColumnVector::from_values(k),
            ColumnVector::from_values(f),
        ])
        .unwrap()
    };
    let drain = |b: RowBatch| collect("t", Box::new(Batches(schema.clone(), vec![b])));
    // A Float column admits Int and Float values, mixed or not, and NULLs.
    let fine = batch(
        vec![Value::Int(1), Value::Int(2), Value::Int(3)],
        vec![Value::Int(1), Value::Float(0.5), Value::Null],
    );
    assert_eq!(drain(fine).unwrap().len(), 3);
    // A NULL in a NOT NULL column, a string in an Int column, a blob in
    // the middle of a mixed Float column: each is refused.
    for bad in [
        batch(
            vec![Value::Int(1), Value::Null],
            vec![Value::Null, Value::Null],
        ),
        batch(vec![Value::Str("x".into())], vec![Value::Float(1.0)]),
        batch(
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
            vec![Value::Int(1), Value::Blob(vec![1]), Value::Float(0.5)],
        ),
    ] {
        assert!(
            matches!(drain(bad), Err(StorageError::TypeMismatch { .. })),
            "a misfit was drained"
        );
    }
}

/// One edit of a table held by value (see `zone_maps_are_exact_whatever_built_the_group`).
#[derive(Debug, Clone)]
enum Edit {
    Push(Row),
    AppendBatch(Vec<Row>),
    /// `Catalog::append_rows`: seals the groups these rows fill.
    CatalogAppend(Vec<Row>),
    /// Keeps the table as it was (checked after every later step), then
    /// pushes to the copy.
    CloneThenPush(Row),
    Seal,
    PageTable,
}

/// A value of the `ANY` column: NULL, NaN, ±0.0, Int and Float side by
/// side, strings.
fn arb_mixed() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-4i64..4).prop_map(Value::Int),
        (-4i64..4).prop_map(|i| Value::Float(i as f64 / 2.0)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(0.0)),
        Just(Value::Null),
        "[a-c]{0,2}".prop_map(Value::Str),
    ]
}

fn arb_mixed_row() -> impl Strategy<Value = Row> {
    let k = prop_oneof![(-6i64..6).prop_map(Value::Int), Just(Value::Null)];
    (k, arb_mixed()).prop_map(|(k, x)| vec![k, x])
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    let rows = || prop::collection::vec(arb_mixed_row(), 1..7);
    prop_oneof![
        arb_mixed_row().prop_map(Edit::Push),
        arb_mixed_row().prop_map(Edit::Push),
        rows().prop_map(Edit::AppendBatch),
        rows().prop_map(Edit::CatalogAppend),
        arb_mixed_row().prop_map(Edit::CloneThenPush),
        Just(Edit::Seal),
        Just(Edit::PageTable),
    ]
}

fn arb_op() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ]
}

/// `t` under the hint `column op lit`: a hinted scan returns exactly the
/// rows of `want` the filter keeps, and every zone map — the scan asked
/// every group for its maps, so an open group has derived them — equals a
/// fresh pass over its group's values.
fn assert_hinted_scan_and_exact_zones(
    t: &Table,
    want: &[Row],
    (c, op, lit): (usize, BinOp, &Value),
) -> Result<(), TestCaseError> {
    let keeps = |r: &Row| r[c].sql_cmp(lit).is_some_and(|ord| op.holds(ord));
    let kept: Vec<Row> = want.iter().filter(|r| keeps(r)).cloned().collect();
    let hint = [(["k", "x"][c].to_string(), op, lit.clone())];
    for batch in [2, 1024] {
        let scan = TableScan::new(Arc::new(t.clone())).with_prune_hint(&hint);
        prop_assert_eq!(&scan_rows_batched(scan, batch), &kept);
    }
    for (g, group) in t.groups().iter().enumerate() {
        for c in 0..2 {
            let fresh = ZoneMap::compute(&group.read_column(c, ColumnVector::to_values).unwrap());
            prop_assert_eq!(group.zone(c), &fresh, "group {} column {}", g, c);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Random pushes, drains, catalog INSERTs, clone-then-push, seals and
    /// `page_table` over an `(INT, ANY)` table: after every step, a hinted
    /// scan of the table and of every copy kept along the way returns
    /// exactly the rows the hint keeps, and every zone map equals
    /// `ZoneMap::compute` over its group's values — a reopened group's,
    /// one a push or a drain built, one an INSERT copied, a sealed one.
    #[test]
    fn zone_maps_are_exact_whatever_built_the_group(
        page_rows in 1usize..6,
        start_sealed in any::<bool>(),
        steps in prop::collection::vec(
            (arb_edit(), 0usize..2, arb_op(), arb_mixed()),
            1..24,
        ),
    ) {
        let mut catalog = Catalog::new();
        let schema = Schema::of(&[("k", DataType::Int), ("x", DataType::Any)]);
        let mut t = Table::new("t", schema);
        if start_sealed {
            t = t.seal(catalog.pool(), page_rows).unwrap();
        }
        let mut model: Vec<Row> = Vec::new();
        let mut kept: Vec<(Table, Vec<Row>)> = Vec::new();
        // Runs `f` on the catalog holding `t`, then takes the table back
        // as the only holder of its groups.
        let through_catalog = |catalog: &mut Catalog, t: Table, f: &dyn Fn(&mut Catalog)| {
            catalog.register_or_replace(t);
            f(catalog);
            let back = (*catalog.get("t").unwrap()).clone();
            catalog.drop_table("t").unwrap();
            back
        };
        for (edit, c, op, lit) in steps {
            match edit {
                Edit::Push(row) => {
                    t.push(row.clone()).unwrap();
                    model.push(row);
                }
                Edit::AppendBatch(rows) => {
                    t.append_batch(RowBatch::from_rows(2, rows.clone())).unwrap();
                    model.extend(rows);
                }
                Edit::CatalogAppend(rows) => {
                    let append = |c: &mut Catalog| drop(c.append_rows("t", &rows).unwrap());
                    t = through_catalog(&mut catalog, t, &append);
                    model.extend(rows);
                }
                Edit::CloneThenPush(row) => {
                    kept.push((t.clone(), model.clone()));
                    t.push(row.clone()).unwrap();
                    model.push(row);
                }
                Edit::Seal => t = t.seal(catalog.pool(), page_rows).unwrap(),
                Edit::PageTable => {
                    let page = |c: &mut Catalog| assert!(c.page_table("t", page_rows).is_ok());
                    t = through_catalog(&mut catalog, t, &page);
                }
            }
            prop_assert_eq!(&t.to_rows().unwrap(), &model);
            assert_hinted_scan_and_exact_zones(&t, &model, (c, op, &lit))?;
            for (old, rows) in &kept {
                assert_hinted_scan_and_exact_zones(old, rows, (c, op, &lit))?;
            }
        }
    }
}
