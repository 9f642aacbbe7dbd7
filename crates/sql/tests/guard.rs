//! Query-guard acceptance tests: deadline, cancellation, and budgets
//! abort every physical drive — Volcano, batched and morsel-parallel —
//! with the same typed error, and leave the catalog ready for the next
//! query.

use kath_sql::{parse_select, run_select_auto_guarded, SelectStats, SqlError};
use kath_storage::{
    CancelToken, Catalog, CompileMode, DataType, ExecMode, QueryGuard, Schema, StorageError, Table,
    Value, VectorMode,
};
use std::time::Duration;

fn catalog(rows: usize) -> Catalog {
    let schema = Schema::of(&[("id", DataType::Int), ("v", DataType::Int)]);
    let mut t = Table::new("t", schema);
    for i in 0..rows {
        t.push(vec![Value::Int(i as i64), Value::Int((i % 97) as i64)])
            .unwrap();
    }
    let mut c = Catalog::new();
    c.register(t).unwrap();
    c
}

/// The drives as (label, mode, threads) strategies: the serial tree row-
/// and batch-at-a-time, and the morsel drive at two worker counts.
type Drive = (&'static str, ExecMode, usize);
const DRIVES: &[Drive] = &[
    ("volcano", ExecMode::Volcano, 1),
    ("batched", ExecMode::Batched(128), 1),
    ("2 workers", ExecMode::Batched(128), 2),
    ("4 workers", ExecMode::Batched(128), 4),
];

fn run_with_stats(
    c: &Catalog,
    query: &str,
    drive: &Drive,
    guard: &QueryGuard,
) -> Result<(Table, SelectStats), SqlError> {
    let select = parse_select(query).unwrap();
    run_select_auto_guarded(
        c,
        &select,
        "out",
        drive.1,
        drive.2,
        VectorMode::Auto,
        CompileMode::Off,
        guard,
    )
}

fn run(c: &Catalog, query: &str, drive: &Drive, guard: &QueryGuard) -> Result<Table, SqlError> {
    run_with_stats(c, query, drive, guard).map(|(t, _)| t)
}

#[test]
fn zero_deadline_cancels_every_drive_and_the_catalog_survives() {
    let c = catalog(4000);
    let query = "SELECT id, v FROM t WHERE v >= 0";
    for drive in DRIVES {
        let guard = QueryGuard::unlimited().with_timeout(Duration::ZERO);
        let err = run(&c, query, drive, &guard).unwrap_err();
        assert!(
            matches!(&err, SqlError::Storage(StorageError::Cancelled(_))),
            "{}: expected Cancelled, got {err:?}",
            drive.0
        );
        // The same catalog immediately serves the next (unguarded) query.
        let ok = run(&c, query, drive, &QueryGuard::unlimited()).unwrap();
        assert_eq!(ok.len(), 4000, "{}: catalog damaged after cancel", drive.0);
    }
}

#[test]
fn fired_cancel_token_aborts_every_drive() {
    let c = catalog(4000);
    let query = "SELECT id FROM t";
    for drive in DRIVES {
        let token = CancelToken::new();
        token.cancel();
        let guard = QueryGuard::unlimited().with_cancel(token.clone());
        let err = run(&c, query, drive, &guard).unwrap_err();
        assert!(
            matches!(&err, SqlError::Storage(StorageError::Cancelled(_))),
            "{}: expected Cancelled, got {err:?}",
            drive.0
        );
        // Clearing the token (what the facade does after a cancelled
        // statement) re-arms the same guard spec for the next query.
        token.clear();
        let guard = QueryGuard::unlimited().with_cancel(token);
        assert_eq!(run(&c, query, drive, &guard).unwrap().len(), 4000);
    }
}

#[test]
fn row_budget_trips_with_a_typed_error_on_every_drive() {
    let c = catalog(4000);
    let query = "SELECT id, v FROM t WHERE v >= 0";
    for drive in DRIVES {
        let guard = QueryGuard::unlimited().with_row_budget(100);
        let err = run(&c, query, drive, &guard).unwrap_err();
        assert!(
            matches!(&err, SqlError::Storage(StorageError::Budget(_))),
            "{}: expected Budget, got {err:?}",
            drive.0
        );
        // A budget large enough for the whole result never trips.
        let guard = QueryGuard::unlimited().with_row_budget(4000);
        assert_eq!(run(&c, query, drive, &guard).unwrap().len(), 4000);
    }
}

#[test]
fn a_row_budget_meters_the_result_not_the_rows_below_distinct_and_limit() {
    // `v` is `id % 97`: 97 distinct values and 97 groups over 4000 rows.
    let c = catalog(4000);
    // (statement, result rows, a budget the result fits but the rows below
    // DISTINCT/LIMIT do not, a budget the result does not fit)
    let cases = [
        ("SELECT DISTINCT v FROM t ORDER BY v", 97, 100, 96),
        ("SELECT id, v FROM t ORDER BY v DESC, id LIMIT 5", 5, 100, 4),
        (
            "SELECT v, COUNT(*) AS n FROM t GROUP BY v ORDER BY n DESC, v LIMIT 5",
            5,
            50,
            4,
        ),
    ];
    for (query, result_rows, fits, too_small) in cases {
        let want = run(&c, query, &DRIVES[0], &QueryGuard::unlimited()).unwrap();
        assert_eq!(want.len(), result_rows, "{query}");
        for drive in DRIVES {
            let guard = QueryGuard::unlimited().with_row_budget(fits);
            let (got, stats) = run_with_stats(&c, query, drive, &guard)
                .unwrap_or_else(|e| panic!("{query} ({}, budget {fits}): {e}", drive.0));
            assert_eq!(got.rows(), want.rows(), "{query} ({})", drive.0);
            assert_eq!(stats.workers, drive.2, "{query}: which drive ran");
            let guard = QueryGuard::unlimited().with_row_budget(too_small);
            let err = run(&c, query, drive, &guard).unwrap_err();
            assert!(
                matches!(&err, SqlError::Storage(StorageError::Budget(_))),
                "{query} ({}, budget {too_small}): expected Budget, got {err:?}",
                drive.0
            );
        }
    }
}

#[test]
fn byte_budget_meters_produced_payload() {
    let c = catalog(1000);
    let query = "SELECT id, v FROM t";
    // Two Int columns ≈ 16 bytes/row; 1000 rows ≈ 16000 bytes.
    let tight = QueryGuard::unlimited().with_byte_budget(1000);
    let err = run(&c, query, &DRIVES[1], &tight).unwrap_err();
    assert!(matches!(&err, SqlError::Storage(StorageError::Budget(_))));
    let roomy = QueryGuard::unlimited().with_byte_budget(1_000_000);
    assert_eq!(run(&c, query, &DRIVES[1], &roomy).unwrap().len(), 1000);
}

#[test]
fn guarded_results_match_unguarded_results_on_every_drive() {
    let c = catalog(2000);
    let query = "SELECT id, v FROM t WHERE v < 50";
    let baseline = run(&c, query, &DRIVES[0], &QueryGuard::unlimited()).unwrap();
    for drive in DRIVES {
        // A generous guard must not perturb results on any drive.
        let guard = QueryGuard::unlimited()
            .with_timeout(Duration::from_secs(3600))
            .with_row_budget(1 << 40)
            .with_byte_budget(1 << 50);
        let out = run(&c, query, drive, &guard).unwrap();
        assert_eq!(out.rows(), baseline.rows(), "{}: rows diverged", drive.0);
    }
}

/// A hint nothing survives: `v` runs 0..97, so row hints drop every batch
/// of a resident table and zone maps every page of a sealed one.
const ALL_PRUNED: &str = "SELECT id FROM t WHERE v < 0";

#[test]
fn a_scan_whose_rows_are_all_pruned_still_answers_to_the_guard() {
    let resident = catalog(4000);
    let mut paged = Catalog::new();
    let sealed = resident.get("t").unwrap().seal(paged.pool(), 64).unwrap();
    paged.register(sealed).unwrap();
    for c in [&resident, &paged] {
        for drive in DRIVES {
            let expired = QueryGuard::unlimited().with_timeout(Duration::ZERO);
            let token = CancelToken::new();
            token.cancel();
            let cancelled = QueryGuard::unlimited().with_cancel(token);
            for guard in [expired, cancelled] {
                let err = run(c, ALL_PRUNED, drive, &guard).unwrap_err();
                assert!(
                    matches!(&err, SqlError::Storage(StorageError::Cancelled(_))),
                    "{}: expected Cancelled, got {err:?}",
                    drive.0
                );
            }
            let ok = run(c, ALL_PRUNED, drive, &QueryGuard::unlimited()).unwrap();
            assert_eq!(ok.len(), 0, "{}", drive.0);
        }
    }
}

#[test]
fn a_deadline_trips_inside_a_scan_that_yields_no_batch() {
    // One `next_batch` call walks every row of this scan without handing a
    // batch to the drain loop above it, so only the check the scan makes
    // per skipped run can see the deadline pass. At one row per run the
    // walk takes far longer than the 100 µs the guard allows; a run
    // that completed with zero rows would mean the scan never looked.
    let c = catalog(100_000);
    let drive = ("batched", ExecMode::Batched(1), 1);
    let guard = QueryGuard::unlimited().with_timeout(Duration::from_micros(100));
    let err = run(&c, ALL_PRUNED, &drive, &guard).unwrap_err();
    assert!(
        matches!(&err, SqlError::Storage(StorageError::Cancelled(_))),
        "expected Cancelled, got {err:?}"
    );
}
