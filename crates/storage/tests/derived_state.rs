//! Derived state belongs to the table value it was computed from.
//!
//! Random schedules of everything that binds a table name to a value —
//! INSERT (clone + push + replace), paging in place, a checkpoint-style
//! swap of the same rows, drop + re-create — interleaved with retained
//! snapshots and similarity lookups through the table's vector index,
//! checked against an oracle that knows nothing about indexes: a linear
//! scan of *that snapshot's* table. Every read names its snapshot and every
//! change is a `publish`. Plus two real-thread runs: index builds racing
//! commits, and two first IVF searches racing on one fresh index.

use kath_storage::*;
use kath_vector::seeded_unit_vector;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// Keys are drawn from `0..KEYS` (and NULL) so lookups hit several rows.
const KEYS: i64 = 6;

fn schema() -> Schema {
    Schema::of(&[("k", DataType::Int), ("emb", DataType::Blob)])
}

/// Rows with the same key carry the same embedding, so the nearest
/// neighbours of a key's embedding are exactly the rows with that key; a
/// NULL key has no embedding.
fn row(k: Option<i64>) -> Row {
    let embedded = |k: i64| Value::Blob(encode_embedding(&seeded_unit_vector(k as u64)));
    vec![
        k.map_or(Value::Null, Value::Int),
        k.map_or(Value::Null, embedded),
    ]
}

#[derive(Debug, Clone)]
enum Step {
    Insert(Option<i64>),
    PageInPlace(usize),
    SwapSameRows(usize),
    DropAndRecreate(Vec<Option<i64>>),
    RetainSnapshot,
    Lookup,
}

fn arb_key() -> impl Strategy<Value = Option<i64>> {
    prop::option::of(0..KEYS)
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_key().prop_map(Step::Insert),
        arb_key().prop_map(Step::Insert),
        arb_key().prop_map(Step::Insert),
        (1usize..5).prop_map(Step::PageInPlace),
        (1usize..5).prop_map(Step::SwapSameRows),
        prop::collection::vec(arb_key(), 0..4).prop_map(Step::DropAndRecreate),
        Just(Step::RetainSnapshot),
        Just(Step::Lookup),
    ]
}

/// The naive oracle: positions of `key` by scanning the table's rows.
fn scan_positions(table: &Table, key: &Value) -> Vec<usize> {
    let mut hits = Vec::new();
    for i in 0..table.len() {
        let row = table.row_at(i).unwrap().unwrap();
        if &row[0] == key {
            hits.push(i);
        }
    }
    hits
}

/// The vector index over `t.emb` of the table `catalog` binds to `t`.
fn index_of(catalog: &Catalog, t: &str) -> Result<Arc<VectorIndex>, StorageError> {
    catalog.get(t)?.vector_index("emb")
}

/// A catalog version as it looked when it was retained.
struct Retained {
    version: CatalogRef,
    table: Arc<Table>,
}

/// The vector index of `seen.version` answers for `seen.table` — the rows
/// that version froze — whatever happened since.
fn check_version(seen: &Retained) -> Result<(), TestCaseError> {
    let now = seen.version.get("t").unwrap();
    prop_assert!(
        Arc::ptr_eq(&now, &seen.table),
        "a version changed its table"
    );
    let index = index_of(&seen.version, "t").unwrap();
    let own = seen.table.vector_index("emb").unwrap();
    prop_assert!(Arc::ptr_eq(&index, &own));
    prop_assert_eq!(index.rows(), seen.table.len());
    prop_assert_eq!(index.unscored(), scan_positions(&seen.table, &Value::Null));
    // `KEYS` itself is a key no row has.
    for k in 0..=KEYS {
        let hits = scan_positions(&seen.table, &Value::Int(k));
        let query = seeded_unit_vector(k as u64);
        let found = index.search(&query, hits.len(), VectorStrategy::Flat);
        prop_assert_eq!(found, hits, "key {}", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn every_version_answers_for_its_own_rows(
        seed_rows in prop::collection::vec(arb_key(), 0..6),
        steps in prop::collection::vec(arb_step(), 1..40),
    ) {
        let shared = SharedCatalog::new();
        let seed = Table::from_rows("t", schema(), seed_rows.into_iter().map(row).collect());
        shared.try_publish(|c| c.register(seed.unwrap())).unwrap();
        let mut retained: Vec<Retained> = Vec::new();
        let retain = || {
            let version = shared.snapshot();
            let table = version.get("t").unwrap();
            Retained { version, table }
        };
        for step in steps {
            match step {
                Step::Insert(k) => {
                    let before = shared.snapshot().get("t").unwrap();
                    let old_index = before.vector_index("emb").unwrap();
                    shared.publish(|c| {
                        let mut grown = (*c.get("t").unwrap()).clone();
                        grown.push(row(k)).unwrap();
                        c.register_or_replace(grown);
                    });
                    // The grown table is a new value with its own index.
                    let after = shared.snapshot().get("t").unwrap();
                    prop_assert_eq!(after.len(), before.len() + 1);
                    prop_assert!(!Arc::ptr_eq(&old_index, &after.vector_index("emb").unwrap()));
                }
                Step::PageInPlace(page_rows) => {
                    let index = index_of(&shared.snapshot(), "t").unwrap();
                    shared.try_publish(|c| c.page_table("t", page_rows)).unwrap();
                    let paged = shared.snapshot().get("t").unwrap();
                    prop_assert!(paged.is_paged());
                    prop_assert!(Arc::ptr_eq(&index, &paged.vector_index("emb").unwrap()));
                }
                Step::SwapSameRows(page_rows) => {
                    // What a checkpoint does: page the head's table and
                    // hand the catalog that `Arc`.
                    let table = shared.snapshot().get("t").unwrap();
                    let index = table.vector_index("emb").unwrap();
                    let paged = Arc::new(table.seal(&shared.pool(), page_rows).unwrap());
                    let installed = shared.publish(|c| c.register_or_replace(Arc::clone(&paged)));
                    prop_assert!(Arc::ptr_eq(&installed, &paged));
                    prop_assert!(Arc::ptr_eq(&shared.snapshot().get("t").unwrap(), &paged));
                    prop_assert!(Arc::ptr_eq(&index, &paged.vector_index("emb").unwrap()));
                }
                Step::DropAndRecreate(keys) => {
                    let old_index = index_of(&shared.snapshot(), "t").unwrap();
                    shared.try_publish(|c| c.drop_table("t")).unwrap();
                    prop_assert!(index_of(&shared.snapshot(), "t").is_err());
                    let fresh = Table::from_rows("t", schema(), keys.into_iter().map(row).collect());
                    shared.try_publish(|c| c.register(fresh.unwrap())).unwrap();
                    // Same name, new value: nothing built yet, and never
                    // its predecessor's index.
                    let recreated = shared.snapshot();
                    prop_assert!(recreated.get("t").unwrap().vector_indexes().is_empty());
                    let new_index = index_of(&recreated, "t").unwrap();
                    prop_assert!(!Arc::ptr_eq(&old_index, &new_index));
                }
                Step::RetainSnapshot => retained.push(retain()),
                Step::Lookup => {
                    check_version(&retain())?;
                    for seen in &retained {
                        check_version(seen)?;
                    }
                }
            }
        }
        retained.push(retain());
        for seen in &retained {
            check_version(seen)?;
        }
    }
}

/// A reader keeps asking for the index of whatever version is current while
/// a writer commits 100 single-row INSERTs into the same large table. Every
/// INSERT makes a new table value, so the reader's builds overlap the
/// commits; each index must describe exactly the rows of the snapshot it
/// was asked through, and the writer must get all 100 commits in.
#[test]
fn index_builds_race_commits_without_mixing_versions() {
    const BASE: u64 = 4_000;
    const INSERTS: u64 = 100;
    // Every row has an embedding of its own, seeded by its position.
    let embedded = |i: u64| vec![Value::Blob(encode_embedding(&seeded_unit_vector(i)))];
    let nearest =
        |index: &VectorIndex, i: u64| index.search(&seeded_unit_vector(i), 1, VectorStrategy::Flat);
    let schema = Schema::of(&[("emb", DataType::Blob)]);
    let rows = (0..BASE).map(embedded).collect();
    let shared = SharedCatalog::new();
    let big = Table::from_rows("big", schema, rows).unwrap();
    shared.try_publish(|c| c.register(big)).unwrap();

    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    let builds = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            start.wait();
            let mut builds = 0usize;
            let mut last_len = 0usize;
            loop {
                // Read the flag first: the pass after the writer finished
                // sees the final version.
                let finished = done.load(Ordering::SeqCst);
                let snapshot = shared.snapshot();
                let table = snapshot.get("big").unwrap();
                let index = index_of(&snapshot, "big").unwrap();
                let n = table.len();
                assert!(n >= last_len, "versions went backwards");
                // The newest row of this snapshot is indexed, the next
                // commit's row is not.
                assert_eq!((index.rows(), index.entries().len()), (n, n));
                assert_eq!(nearest(&index, n as u64 - 1), [n - 1]);
                assert!(Arc::ptr_eq(&index, &table.vector_index("emb").unwrap()));
                builds += usize::from(n != last_len);
                last_len = n;
                if finished {
                    return (builds, n);
                }
            }
        });
        let writer = scope.spawn(|| {
            start.wait();
            for i in 0..INSERTS {
                shared.publish(|c| {
                    let mut grown = (*c.get("big").unwrap()).clone();
                    grown.push(embedded(BASE + i)).unwrap();
                    c.register_or_replace(grown);
                });
            }
            done.store(true, Ordering::SeqCst);
        });
        writer.join().expect("writer panicked");
        reader.join().expect("reader panicked")
    });
    let (builds, seen_len) = builds;
    assert!(builds >= 1);
    assert_eq!(
        seen_len as u64,
        BASE + INSERTS,
        "reader's last pass saw every commit"
    );
    let head = shared.snapshot();
    assert_eq!(head.get("big").unwrap().len() as u64, BASE + INSERTS);
    let index = index_of(&head, "big").unwrap();
    for i in BASE..BASE + INSERTS {
        assert_eq!(nearest(&index, i), [i as usize]);
    }
}

/// Two threads race the first IVF search on one fresh index: both may run
/// the seeded k-means, one result is installed, and both must answer as
/// that one does — the same hits, the same cluster count — and as an index
/// built on its own.
#[test]
fn first_ivf_searches_race_to_one_answer() {
    const ROWS: u64 = 3_000;
    let schema = Schema::of(&[("emb", DataType::Blob)]);
    let embedded = |i: u64| vec![Value::Blob(encode_embedding(&seeded_unit_vector(i % 97)))];
    let table = Table::from_rows("big", schema, (0..ROWS).map(embedded).collect()).unwrap();
    let query = seeded_unit_vector(42);
    let race = VectorIndex::build(&table, "emb").unwrap();
    let start = Barrier::new(2);
    let search = || {
        start.wait();
        (race.search(&query, 10, VectorStrategy::Ivf), race.nlist())
    };
    let (first, second) = std::thread::scope(|scope| {
        let first = scope.spawn(search);
        let second = scope.spawn(search);
        (first.join().unwrap(), second.join().unwrap())
    });
    assert_eq!(first, second);
    let alone = VectorIndex::build(&table, "emb").unwrap();
    let hits = alone.search(&query, 10, VectorStrategy::Ivf);
    assert_eq!(first, (hits, alone.nlist()));
    assert_eq!(first.0.len(), 10);
}
