//! `run_select_auto_guarded` is the one way to run a SELECT, and whichever
//! drive it picks is invisible in the answer.
//!
//! 1. **Result parity.** A statement corpus covering every plan shape —
//!    scan, index hit, inner/left join, aggregate with and without GROUP BY
//!    (including a GROUP BY key written twice), sort before/after the
//!    projection, expression sort, DISTINCT, lazy LIMIT, vector top-k —
//!    runs under `(Volcano | Batched 1/3/1024) × threads 1/2/8 ×
//!    CompileMode Off/On/Auto` over resident tables, paged tables, and
//!    tables paged and then INSERTed into (sealed pages followed by a row
//!    tail), and every run equals the Volcano reference.
//! 2. **Error parity.** A statement that cannot be planned fails with the
//!    same `SqlError` under every combination: planning runs once, before
//!    any drive is chosen.
//! 3. **Compile eligibility.** `stats.compiled` is true exactly for the
//!    shapes docs/execution.md ("Compiled query pipelines") lists as
//!    compilable, so the plan's predicate cannot drift from its
//!    documentation.
//! 4. **The float-aggregate contract.** A float `SUM`/`AVG` on the morsel
//!    drive is the same bits at every worker count ≥ 2 and agrees with the
//!    serial sum to a relative 1e-9.

use kath_sql::{execute, parse_select, run_select_auto_guarded, SelectStats, SqlError};
use kath_storage::{
    encode_embedding, Catalog, CompileMode, ExecMode, QueryGuard, StorageError, Table, Value,
    VectorMode, COMPILE_BREAK_EVEN_ROWS,
};
use std::sync::Arc;

const MODES: [ExecMode; 4] = [
    ExecMode::Volcano,
    ExecMode::Batched(1),
    ExecMode::Batched(3),
    ExecMode::Batched(1024),
];
const THREADS: [usize; 3] = [1, 2, 8];
const COMPILE: [CompileMode; 3] = [CompileMode::Off, CompileMode::On, CompileMode::Auto];

/// `films` (600 rows, hash index on `year`), `posters` (a third of the
/// films), `docs` (60 embedded phrases, two without an embedding) and
/// `big` (just past the compile break-even) — resident in the first
/// catalog, paged seven rows to a page in the second, and in the third the
/// first three fifths paged and the rest INSERTed afterwards in two
/// statements: the first fills pages of tail and so is sealed in turn, the
/// second leaves five rows of tail — behind a short last page, except in
/// `films` whose 595 sealed rows fill theirs — with the boundary inside a
/// morsel.
fn catalogs() -> (Catalog, Catalog, Catalog) {
    let mut resident = Catalog::new();
    for ddl in [
        "CREATE TABLE films (id INT, title STR, year INT, score FLOAT)",
        "CREATE TABLE posters (film_id INT, boring BOOL)",
        "CREATE TABLE docs (id INT, body STR, emb BLOB)",
        "CREATE TABLE big (id INT, v INT)",
    ] {
        execute(&mut resident, ddl, "x").unwrap();
    }
    let fill = |c: &mut Catalog, name: &str, rows: Vec<Vec<Value>>| {
        let mut t = (*c.get(name).unwrap()).clone();
        t.extend(rows).unwrap();
        c.register_or_replace(t);
    };
    let films = (0..600i64)
        .map(|i| {
            let score = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Float(i as f64 * 0.1 + 1.0 / 3.0)
            };
            vec![
                Value::Int(i),
                Value::Str(format!("film {}", i % 7)),
                Value::Int(1950 + i % 60),
                score,
            ]
        })
        .collect();
    fill(&mut resident, "films", films);
    let posters = (0..600i64)
        .filter(|i| i % 3 == 0)
        .map(|i| vec![Value::Int(i), Value::Bool(i % 2 == 0)])
        .collect();
    fill(&mut resident, "posters", posters);
    let phrases = [
        "gun fight at the warehouse",
        "a calm walk in the garden",
        "murder on the night train",
        "tea and quiet routine",
        "explosion during the chase",
        "a peaceful ordinary day",
    ];
    let docs = (0..60usize)
        .map(|i| {
            let body = phrases[i % phrases.len()];
            let emb = if i % 29 == 7 {
                Value::Null
            } else {
                Value::Blob(encode_embedding(&kath_vector::embed_query(body)))
            };
            vec![Value::Int(i as i64), Value::Str(body.to_string()), emb]
        })
        .collect();
    fill(&mut resident, "docs", docs);
    let big = (0..COMPILE_BREAK_EVEN_ROWS as i64 + 200)
        .map(|i| vec![Value::Int(i), Value::Int(i % 97)])
        .collect();
    fill(&mut resident, "big", big);

    let mut paged = Catalog::new();
    let pool = Arc::clone(paged.pool());
    for name in ["films", "posters", "docs", "big"] {
        let t = resident.get(name).unwrap();
        paged.register(t.seal(&pool, 7).unwrap()).unwrap();
    }
    let mut split = Catalog::new();
    let pool = Arc::clone(split.pool());
    for name in ["films", "posters", "docs", "big"] {
        let t = resident.get(name).unwrap();
        let (head, tail) = t.rows().split_at(t.len() * 3 / 5);
        let head = Table::from_rows(name, t.schema().clone(), head.to_vec()).unwrap();
        split.register(head.seal(&pool, 7).unwrap()).unwrap();
        let (bulk, last) = tail.split_at(tail.len() - 5);
        split.append_rows(name, bulk).unwrap();
        split.append_rows(name, last).unwrap();
        let t = split.get(name).unwrap();
        assert_eq!(t.tail(), last);
        assert_eq!(t.paged().map(|p| p.len()), Some(t.len() - 5));
    }
    for c in [&mut resident, &mut paged, &mut split] {
        c.create_index("films", "year").unwrap();
    }
    (resident, paged, split)
}

fn run(
    c: &Catalog,
    sql: &str,
    mode: ExecMode,
    threads: usize,
    vector: VectorMode,
    compile: CompileMode,
) -> Result<(Table, SelectStats), SqlError> {
    let select = parse_select(sql).expect("corpus statement parses");
    let guard = QueryGuard::unlimited();
    run_select_auto_guarded(c, &select, "out", mode, threads, vector, compile, &guard)
}

/// The Volcano reference: row-at-a-time, serial, interpreted, resident.
fn reference(c: &Catalog, sql: &str, vector: VectorMode) -> Result<Table, SqlError> {
    run(c, sql, ExecMode::Volcano, 1, vector, CompileMode::Off).map(|(t, _)| t)
}

/// Calls `check` once per `(backing, mode, threads, compile)` combination.
fn sweep(
    catalogs: &(Catalog, Catalog, Catalog),
    mut check: impl FnMut(&str, &Catalog, ExecMode, usize, CompileMode),
) {
    let backings = [
        ("resident", &catalogs.0),
        ("paged", &catalogs.1),
        ("paged then inserted into", &catalogs.2),
    ];
    for (backing, c) in backings {
        for mode in MODES {
            for threads in THREADS {
                for compile in COMPILE {
                    let label = format!("{backing} {mode:?} threads {threads} compile {compile}");
                    check(&label, c, mode, threads, compile);
                }
            }
        }
    }
}

/// One corpus statement: its text, and whether docs/execution.md lists its
/// shape as compilable.
struct Stmt {
    sql: &'static str,
    compilable: bool,
}

const fn compiles(sql: &'static str) -> Stmt {
    Stmt {
        sql,
        compilable: true,
    }
}

const fn interpreted(sql: &'static str) -> Stmt {
    Stmt {
        sql,
        compilable: false,
    }
}

const VECTOR_SQL: &str =
    "SELECT id, body FROM docs ORDER BY SIMILARITY(emb, 'shootout weapon') DESC LIMIT 4";

fn corpus() -> Vec<Stmt> {
    vec![
        // Streaming scan → probe → filter → project pipelines: compilable.
        compiles("SELECT * FROM films"),
        compiles("SELECT title, year FROM films WHERE year >= 1988"),
        compiles("SELECT title, 2030 - year AS age FROM films WHERE id % 3 = 0"),
        compiles("SELECT id, v FROM big WHERE v < 9"),
        compiles(
            "SELECT title, boring FROM films JOIN posters ON films.id = posters.film_id \
             WHERE boring = TRUE",
        ),
        compiles("SELECT title, boring FROM films LEFT JOIN posters ON posters.film_id = films.id"),
        // Index hit: the equality conjunct reads candidate positions.
        interpreted("SELECT title FROM films WHERE year = 1991 AND id > 1"),
        // Model-backed call: outside the compiler's scalar whitelist.
        interpreted("SELECT id, SIMILARITY(body, 'gun') AS s FROM docs WHERE id < 20"),
        // Aggregates, with and without GROUP BY.
        interpreted(
            "SELECT COUNT(*) AS n, MIN(title) AS t, MAX(year) AS y, SUM(id) AS s FROM films",
        ),
        interpreted("SELECT COUNT(*) AS n, MAX(v) AS m FROM big WHERE v > 3"),
        interpreted(
            "SELECT year, COUNT(*) AS n, AVG(id) AS a FROM films WHERE id % 2 = 0 \
             GROUP BY year ORDER BY n DESC, year LIMIT 5",
        ),
        // A GROUP BY key written twice groups once, adjacent or not.
        interpreted("SELECT year, COUNT(*) AS n FROM films GROUP BY year, year ORDER BY year"),
        interpreted(
            "SELECT year, title, COUNT(*) AS n FROM films GROUP BY year, title, year \
             ORDER BY year, title",
        ),
        // Sort after the projection (on an alias), before it (on a dropped
        // column), and before it under a LIMIT whose tail stays lazy: the
        // projection divides by zero for the year-1950 rows, which sort last.
        interpreted("SELECT title, 2030 - year AS age FROM films ORDER BY age, title"),
        interpreted("SELECT title FROM films WHERE year > 1960 ORDER BY year DESC, id ASC"),
        interpreted("SELECT 100 / (year - 1950) AS q FROM films ORDER BY year DESC LIMIT 5"),
        interpreted("SELECT * FROM films ORDER BY year, id"),
        // Expression sort on hidden columns.
        interpreted("SELECT id FROM films ORDER BY 0 - id LIMIT 7"),
        interpreted("SELECT * FROM films WHERE id < 50 ORDER BY id % 7, id"),
        // DISTINCT, alone and over a sort.
        interpreted("SELECT DISTINCT year FROM films"),
        interpreted("SELECT DISTINCT year FROM films ORDER BY year DESC LIMIT 5"),
        // Lazy LIMIT: rows past the limit are never evaluated.
        interpreted("SELECT 100 / (year - 1950) AS q FROM films WHERE year = 1950 LIMIT 0"),
        interpreted("SELECT title FROM films LIMIT 9"),
    ]
}

#[test]
fn every_combination_equals_the_volcano_reference_and_compiles_as_documented() {
    let catalogs = catalogs();
    for stmt in corpus() {
        let sql = stmt.sql;
        let want = reference(&catalogs.0, sql, VectorMode::Auto).expect(sql);
        let from = parse_select(sql).unwrap().from;
        let pays_off = catalogs.0.get(&from).unwrap().len() > COMPILE_BREAK_EVEN_ROWS;
        sweep(&catalogs, |label, c, mode, threads, compile| {
            let (got, stats) = run(c, sql, mode, threads, VectorMode::Auto, compile)
                .unwrap_or_else(|e| panic!("{sql} ({label}): {e}"));
            assert_eq!(got, want, "{sql} ({label})");
            let asked = match compile {
                CompileMode::Off => false,
                CompileMode::On => true,
                CompileMode::Auto => pays_off,
            };
            let batched = mode != ExecMode::Volcano;
            assert_eq!(
                stats.compiled,
                stmt.compilable && batched && asked,
                "{sql} ({label}): compiled drive eligibility"
            );
            if !batched {
                assert_eq!((stats.workers, stats.batches), (1, 0), "{sql} ({label})");
            }
        });
    }
}

#[test]
fn vector_topk_equals_its_reference_under_every_combination() {
    let catalogs = catalogs();
    let full_sort = reference(&catalogs.0, VECTOR_SQL, VectorMode::Off).unwrap();
    assert_eq!(full_sort.len(), 4);
    for vector in [VectorMode::Off, VectorMode::Flat, VectorMode::Ivf] {
        // The exact paths reproduce the full-sort plan bit for bit; IVF is
        // approximate, but deterministic: it equals its own serial probe.
        let want = reference(&catalogs.0, VECTOR_SQL, vector).unwrap();
        if vector != VectorMode::Ivf {
            assert_eq!(want, full_sort, "{vector:?}");
        }
        assert_eq!(want.len(), full_sort.len(), "{vector:?}");
        sweep(&catalogs, |label, c, mode, threads, compile| {
            let (got, stats) = run(c, VECTOR_SQL, mode, threads, vector, compile)
                .unwrap_or_else(|e| panic!("{vector:?} ({label}): {e}"));
            assert_eq!(got, want, "{vector:?} ({label})");
            assert!(
                !stats.compiled,
                "{vector:?} ({label}): top-k never compiles"
            );
        });
    }
}

#[test]
fn planning_errors_are_the_same_on_every_drive() {
    let catalogs = catalogs();
    let unknown_column = |name: &'static str| move |e: &SqlError| matches!(e, SqlError::Storage(StorageError::UnknownColumn(c)) if c == name);
    let unknown_table =
        |e: &SqlError| matches!(e, SqlError::Storage(StorageError::UnknownTable(t)) if t == "nope");
    let unsupported = |needle: &'static str| move |e: &SqlError| matches!(e, SqlError::Unsupported(m) if m.contains(needle));
    type Expect = Box<dyn Fn(&SqlError) -> bool>;
    let cases: Vec<(&str, Expect)> = vec![
        ("SELECT * FROM nope", Box::new(unknown_table)),
        (
            "SELECT title FROM films JOIN nope ON films.id = nope.id",
            Box::new(unknown_table),
        ),
        (
            "SELECT title FROM films WHERE nope > 1",
            Box::new(unknown_column("nope")),
        ),
        (
            "SELECT title FROM films JOIN posters ON films.nope = posters.film_id",
            Box::new(unsupported("cannot orient join condition")),
        ),
        (
            "SELECT title FROM films ORDER BY nope",
            Box::new(unknown_column("nope")),
        ),
        ("SELECT nope FROM films", Box::new(unknown_column("nope"))),
        (
            "SELECT nope FROM films JOIN posters ON films.id = posters.film_id",
            Box::new(unknown_column("nope")),
        ),
        (
            "SELECT SUM(nope) AS s FROM films",
            Box::new(unknown_column("nope")),
        ),
        (
            "SELECT * FROM films GROUP BY year",
            Box::new(unsupported("SELECT * cannot be combined with aggregation")),
        ),
        (
            "SELECT title, COUNT(*) AS n FROM films",
            Box::new(unsupported("must appear in GROUP BY")),
        ),
        (
            "SELECT COUNT(*) AS n FROM films GROUP BY year ORDER BY 0 - year",
            Box::new(unsupported("expression ORDER BY keys with aggregation")),
        ),
        (
            "SELECT title FROM films JOIN posters ON posters.film_id = posters.film_id",
            Box::new(unsupported("cannot orient join condition")),
        ),
        (
            "SELECT nope FROM docs ORDER BY SIMILARITY(emb, 'gun') DESC LIMIT 2",
            Box::new(unknown_column("nope")),
        ),
    ];
    for (sql, expected) in cases {
        for vector in [VectorMode::Off, VectorMode::Flat, VectorMode::Ivf] {
            let want = reference(&catalogs.0, sql, vector).expect_err(sql);
            assert!(expected(&want), "{sql}: unexpected error {want:?}");
            sweep(&catalogs, |label, c, mode, threads, compile| {
                let got = run(c, sql, mode, threads, vector, compile)
                    .map(|(t, _)| t)
                    .expect_err(sql);
                assert_eq!(got, want, "{sql} ({vector:?}, {label})");
            });
        }
    }
}

#[test]
fn float_sum_and_avg_are_stable_across_worker_counts_and_close_to_serial() {
    let (resident, ..) = catalogs();
    let sql =
        "SELECT year, SUM(score) AS s, AVG(score) AS a FROM films GROUP BY year ORDER BY year";
    // Batch 3 splits the 600 rows into 50 morsels of per-morsel partial sums.
    let mode = ExecMode::Batched(3);
    let run_at = |mode, threads| {
        run(
            &resident,
            sql,
            mode,
            threads,
            VectorMode::Auto,
            CompileMode::Off,
        )
        .unwrap()
    };
    let (two, stats) = run_at(mode, 2);
    assert!(stats.workers > 1, "expected the morsel drive");
    let (eight, _) = run_at(mode, 8);
    let floats = |t: &Table| -> Vec<u64> {
        t.rows()
            .iter()
            .flat_map(|row| [row[1].as_f64().unwrap(), row[2].as_f64().unwrap()])
            .map(f64::to_bits)
            .collect()
    };
    assert_eq!(two.len(), 60);
    assert_eq!(
        floats(&two),
        floats(&eight),
        "same bits at every worker count ≥ 2"
    );

    let (volcano, _) = run_at(ExecMode::Volcano, 1);
    let (one, _) = run_at(mode, 1);
    for serial in [&volcano, &one] {
        assert_eq!(serial.len(), two.len());
        for (want, got) in floats(serial).into_iter().zip(floats(&two)) {
            let (want, got) = (f64::from_bits(want), f64::from_bits(got));
            assert!(
                (want - got).abs() <= 1e-9 * want.abs(),
                "morsel sum {got} vs serial sum {want}"
            );
        }
    }
}
