//! `run_select_auto_guarded` is the one way to run a SELECT, and whichever
//! drive it picks is invisible in the answer.
//!
//! 1. **Result parity.** A statement corpus covering every plan shape —
//!    scan, point read, inner/left join, aggregate with and without GROUP
//!    BY (including a GROUP BY key written twice), sort before/after the
//!    projection, expression sort, DISTINCT, lazy LIMIT, vector top-k —
//!    runs under `Batched 1/3/1024 × threads 1/2/8` over resident tables,
//!    paged tables, and tables paged and then INSERTed into (sealed groups
//!    followed by open ones), and every run returns what the naive
//!    evaluator in `oracle/` says, `SIMILARITY` included.
//! 2. **Error parity.** A statement that cannot be planned fails with the
//!    same `SqlError` under every combination: planning runs once, before
//!    any drive is chosen.
//! 3. **The float-aggregate contract.** A float `SUM`/`AVG` is one bit
//!    pattern at every backing, batch size and worker count: the oracle's
//!    exact sum rounded once, which the row-order sum misses.
//! 4. **Late materialization.** Statements that lean on column pruning and
//!    row-level prune hints — hints under INNER and LEFT joins, a hint
//!    column the SELECT list drops, a name both join sides carry, the right
//!    one of a colliding pair read while the left one is pruned, a hint
//!    column with NULLs, a hint nothing survives — equal rows computed by a
//!    plain Rust loop over the generated data, and so does the oracle.
//! 5. **Run-time error parity.** A WHERE clause that raises on some row
//!    raises on every backing and drive: no access-path shortcut (zone-map
//!    page skip, row hint) may step over the failing row.
//! 6. **Lazy LIMIT.** A LIMIT over a join whose one left row fans out
//!    evaluates no pair past the limit, whatever the batch size.

mod oracle;

use kath_sql::{execute, parse_select, run_select_auto_guarded, SelectStats, SqlError};
use kath_storage::{
    encode_embedding, Catalog, CompileMode, ExecMode, QueryGuard, StorageError, Table, Value,
    VectorMode,
};
use oracle::Answer;
use std::sync::Arc;

const MODES: [ExecMode; 3] = [
    ExecMode::Batched(1),
    ExecMode::Batched(3),
    ExecMode::Batched(1024),
];
const THREADS: [usize; 3] = [1, 2, 8];

/// The generated `films` rows: `(id, title, year, score)`, every eleventh
/// score NULL.
fn film_rows() -> Vec<Vec<Value>> {
    (0..600i64)
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
        .collect()
}

/// The generated `posters` rows: `(film_id, boring)`, one per third film.
fn poster_rows() -> Vec<Vec<Value>> {
    (0..600i64)
        .filter(|i| i % 3 == 0)
        .map(|i| vec![Value::Int(i), Value::Bool(i % 2 == 0)])
        .collect()
}

/// The generated `remakes` rows: `(id, title, film_id)` — `id` and `title`
/// collide with `films`; films 0..50 have two remakes, 50..100 one.
fn remake_rows() -> Vec<Vec<Value>> {
    (0..150i64)
        .map(|i| {
            vec![
                Value::Int(1000 + i),
                Value::Str(format!("remake {}", i % 5)),
                Value::Int(i % 100),
            ]
        })
        .collect()
}

const TABLES: [&str; 5] = ["films", "posters", "remakes", "docs", "big"];

/// `films` (600 rows), `posters` (a third of the films), `remakes` (150
/// rows sharing two column names with `films`), `docs` (60 embedded
/// phrases, two without an embedding) and `big` (5 200 rows) — resident in
/// the first catalog, paged seven rows to a page in the second, and in the
/// third the first three fifths paged and the rest INSERTed afterwards in
/// two statements: the first fills pages of tail and so is sealed in turn,
/// the second leaves five rows of tail — behind a short last page, except
/// in `films` whose 595 sealed rows fill theirs — with the boundary inside
/// a morsel.
fn catalogs() -> (Catalog, Catalog, Catalog) {
    let mut resident = Catalog::new();
    for ddl in [
        "CREATE TABLE films (id INT, title STR, year INT, score FLOAT)",
        "CREATE TABLE posters (film_id INT, boring BOOL)",
        "CREATE TABLE remakes (id INT, title STR, film_id INT)",
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
    fill(&mut resident, "films", film_rows());
    fill(&mut resident, "posters", poster_rows());
    fill(&mut resident, "remakes", remake_rows());
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
    let big = (0..5200i64)
        .map(|i| vec![Value::Int(i), Value::Int(i % 97)])
        .collect();
    fill(&mut resident, "big", big);

    let mut paged = Catalog::new();
    let pool = Arc::clone(paged.pool());
    for name in TABLES {
        let t = resident.get(name).unwrap();
        paged.register(t.seal(&pool, 7).unwrap()).unwrap();
    }
    let mut split = Catalog::new();
    let pool = Arc::clone(split.pool());
    for name in TABLES {
        let t = resident.get(name).unwrap();
        let (head, tail) = t.rows().split_at(t.len() * 3 / 5);
        let head = Table::from_rows(name, t.schema().clone(), head.to_vec()).unwrap();
        split.register(head.seal(&pool, 7).unwrap()).unwrap();
        let (bulk, last) = tail.split_at(tail.len() - 5);
        split.append_rows(name, bulk).unwrap();
        split.append_rows(name, last).unwrap();
        let t = split.get(name).unwrap();
        assert!(t.is_paged());
        assert_eq!(&t.to_rows().unwrap()[t.len() - 5..], last);
    }
    (resident, paged, split)
}

fn run(
    c: &Catalog,
    sql: &str,
    mode: ExecMode,
    threads: usize,
    vector: VectorMode,
) -> Result<(Table, SelectStats), SqlError> {
    let select = parse_select(sql).expect("corpus statement parses");
    let guard = QueryGuard::unlimited();
    let compile = CompileMode::Off;
    run_select_auto_guarded(c, &select, "out", mode, threads, vector, compile, &guard)
}

/// The oracle's answer to `sql` over the resident catalog `c`.
fn reference(c: &Catalog, sql: &str) -> Answer {
    let select = parse_select(sql).expect("corpus statement parses");
    oracle::run(c, &select).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// The serial run with the vector access path `vector`.
fn serial(c: &Catalog, sql: &str, vector: VectorMode) -> Result<Table, SqlError> {
    run(c, sql, ExecMode::default(), 1, vector).map(|(t, _)| t)
}

/// Calls `check` once per `(backing, mode, threads)` combination.
fn sweep(
    catalogs: &(Catalog, Catalog, Catalog),
    mut check: impl FnMut(&str, &Catalog, ExecMode, usize),
) {
    let backings = [
        ("resident", &catalogs.0),
        ("paged", &catalogs.1),
        ("paged then inserted into", &catalogs.2),
    ];
    for (backing, c) in backings {
        for mode in MODES {
            for threads in THREADS {
                let label = format!("{backing} {mode:?} threads {threads}");
                check(&label, c, mode, threads);
            }
        }
    }
}

const VECTOR_SQL: &str =
    "SELECT id, body FROM docs ORDER BY SIMILARITY(emb, 'shootout weapon') DESC LIMIT 4";

fn corpus() -> Vec<&'static str> {
    vec![
        // Streaming scan → probe → filter → project pipelines.
        "SELECT * FROM films",
        "SELECT title, year FROM films WHERE year >= 1988",
        "SELECT title, 2030 - year AS age FROM films WHERE id % 3 = 0",
        "SELECT id, v FROM big WHERE v < 9",
        "SELECT title, boring FROM films JOIN posters ON films.id = posters.film_id \
         WHERE boring = TRUE",
        "SELECT title, boring FROM films LEFT JOIN posters ON posters.film_id = films.id",
        // Point read: the equality conjunct is a prune hint like any other.
        "SELECT title FROM films WHERE year = 1991 AND id > 1",
        // Model-backed call.
        "SELECT id, SIMILARITY(body, 'gun') AS s FROM docs WHERE id < 20",
        // Aggregates, with and without GROUP BY.
        "SELECT COUNT(*) AS n, MIN(title) AS t, MAX(year) AS y, SUM(id) AS s FROM films",
        "SELECT COUNT(*) AS n, MAX(v) AS m FROM big WHERE v > 3",
        "SELECT year, COUNT(*) AS n, AVG(id) AS a FROM films WHERE id % 2 = 0 \
         GROUP BY year ORDER BY n DESC, year LIMIT 5",
        // A GROUP BY key written twice groups once, adjacent or not.
        "SELECT year, COUNT(*) AS n FROM films GROUP BY year, year ORDER BY year",
        "SELECT year, title, COUNT(*) AS n FROM films GROUP BY year, title, year \
         ORDER BY year, title",
        // Sort after the projection (on an alias), before it (on a dropped
        // column), and before it under a LIMIT whose tail stays lazy: the
        // projection divides by zero for the year-1950 rows, which sort last.
        "SELECT title, 2030 - year AS age FROM films ORDER BY age, title",
        "SELECT title FROM films WHERE year > 1960 ORDER BY year DESC, id ASC",
        "SELECT 100 / (year - 1950) AS q FROM films ORDER BY year DESC LIMIT 5",
        "SELECT * FROM films ORDER BY year, id",
        // Expression sort on hidden columns.
        "SELECT id FROM films ORDER BY 0 - id LIMIT 7",
        "SELECT * FROM films WHERE id < 50 ORDER BY id % 7, id",
        // DISTINCT, alone and over a sort.
        "SELECT DISTINCT year FROM films",
        "SELECT DISTINCT year FROM films ORDER BY year DESC LIMIT 5",
        // Lazy LIMIT: rows past the limit are never evaluated.
        "SELECT 100 / (year - 1950) AS q FROM films WHERE year = 1950 LIMIT 0",
        "SELECT title FROM films LIMIT 9",
    ]
}

/// Runs `sql` under every combination: each run returns `want`.
fn check_everywhere(catalogs: &(Catalog, Catalog, Catalog), sql: &str, want: &Answer) {
    sweep(catalogs, |label, c, mode, threads| {
        let (got, _) = run(c, sql, mode, threads, VectorMode::Auto)
            .unwrap_or_else(|e| panic!("{sql} ({label}): {e}"));
        if let Some(diff) = oracle::mismatch(&got, want) {
            panic!("{sql} ({label}): {diff}");
        }
    });
}

#[test]
fn every_combination_equals_the_oracle() {
    let catalogs = catalogs();
    for sql in corpus() {
        check_everywhere(&catalogs, sql, &reference(&catalogs.0, sql));
    }
}

/// `films ⋈ other ON films.id = other[key]`, by nested loops in scan order
/// (so matches come in build order); `keep` sees the film before the join,
/// `pick` builds the output row from the film and its match (`None`: the
/// NULL pad of a LEFT join, which an INNER join does not emit).
fn nested_loop_join(
    other: &[Vec<Value>],
    key: usize,
    left_outer: bool,
    keep: impl Fn(&[Value]) -> bool,
    pick: impl Fn(&[Value], Option<&[Value]>) -> Vec<Value>,
) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for film in film_rows().iter().filter(|f| keep(f)) {
        let before = out.len();
        for o in other.iter().filter(|o| o[key] == film[0]) {
            out.push(pick(film, Some(o)));
        }
        if left_outer && out.len() == before {
            out.push(pick(film, None));
        }
    }
    out
}

/// Statements whose plans lean on late materialization, each with the rows
/// a plain Rust loop over the generated data says it returns.
fn late_materialization_corpus() -> Vec<(&'static str, Vec<Vec<Value>>)> {
    let year = |f: &[Value]| f[2].as_int().unwrap();
    let id = |f: &[Value]| f[0].as_int().unwrap();
    let or_null = |o: Option<&[Value]>, c: usize| o.map_or(Value::Null, |o| o[c].clone());
    let title_boring = |f: &[Value], p: Option<&[Value]>| vec![f[1].clone(), or_null(p, 1)];
    let (posters, remakes) = (poster_rows(), remake_rows());
    let films_where = |keep: &dyn Fn(&[Value]) -> bool, cols: &[usize]| -> Vec<Vec<Value>> {
        film_rows()
            .iter()
            .filter(|f| keep(f))
            .map(|f| cols.iter().map(|&c| f[c].clone()).collect())
            .collect()
    };
    vec![
        // A FROM-side sargable conjunct under an INNER and a LEFT join; the
        // SELECT list drops its column.
        (
            "SELECT title, boring FROM films JOIN posters ON films.id = posters.film_id \
             WHERE year >= 1990",
            nested_loop_join(&posters, 0, false, |f| year(f) >= 1990, title_boring),
        ),
        (
            "SELECT title, boring FROM films LEFT JOIN posters \
             ON films.id = posters.film_id WHERE year >= 1990",
            nested_loop_join(&posters, 0, true, |f| year(f) >= 1990, title_boring),
        ),
        // The same with the conjunct's column in the SELECT list, beside a
        // conjunct over the build side (no hint: it is not a FROM column).
        (
            "SELECT id, year, boring FROM films LEFT JOIN posters \
             ON films.id = posters.film_id WHERE 1995 > year AND boring = FALSE",
            nested_loop_join(
                &posters,
                0,
                true,
                |f| year(f) < 1995,
                |f, p| vec![f[0].clone(), f[2].clone(), or_null(p, 1)],
            )
            .into_iter()
            .filter(|row| row[2] == Value::Bool(false))
            .collect(),
        ),
        // `id` is a column of both sides: unqualified it is the FROM
        // table's, and the hint lands there. Films 0..50 match twice.
        (
            "SELECT id, right.id AS rid, title, right.title AS rtitle FROM films JOIN remakes \
             ON films.id = remakes.film_id WHERE id < 70 AND id >= 30",
            nested_loop_join(
                &remakes,
                2,
                false,
                |f| (30..70).contains(&id(f)),
                |f, r| vec![f[0].clone(), or_null(r, 0), f[1].clone(), or_null(r, 1)],
            ),
        ),
        // Only the right one of a colliding pair is read: the left `title`
        // is pruned, and `right.title` must not rebind to it.
        (
            "SELECT right.title FROM films LEFT JOIN remakes \
             ON films.id = remakes.film_id WHERE year > 1985 AND id < 200",
            nested_loop_join(
                &remakes,
                2,
                true,
                |f| year(f) > 1985 && id(f) < 200,
                |_, r| vec![or_null(r, 1)],
            ),
        ),
        // An aggregate above the join reads two build columns and no FROM
        // column but the key the hint is on.
        (
            "SELECT film_id, COUNT(*) AS n, MIN(right.title) AS first FROM films \
             JOIN remakes ON films.id = remakes.film_id WHERE id >= 40 \
             GROUP BY film_id ORDER BY film_id",
            (40..100i64)
                .map(|film| {
                    let of_film: Vec<_> = remakes
                        .iter()
                        .filter(|r| r[2] == Value::Int(film))
                        .collect();
                    let first = of_film.iter().map(|r| r[1].as_str().unwrap()).min();
                    vec![
                        Value::Int(film),
                        Value::Int(of_film.len() as i64),
                        Value::Str(first.unwrap().to_string()),
                    ]
                })
                .collect(),
        ),
        // A hint column that is NULL in some rows: NULL fails the hint as
        // it fails the filter.
        (
            "SELECT id, title FROM films WHERE score > 30.5",
            films_where(&|f| f[3].as_f64().is_some_and(|s| s > 30.5), &[0, 1]),
        ),
        (
            "SELECT id FROM films WHERE score <= 2.0 ORDER BY id DESC",
            films_where(&|f| f[3].as_f64().is_some_and(|s| s <= 2.0), &[0])
                .into_iter()
                .rev()
                .collect(),
        ),
        // A hint no row survives although every page's zone map admits it
        // ('film 35' sorts between 'film 3' and 'film 4'): every batch of
        // every page and of the tail is skipped.
        (
            "SELECT id, year FROM films WHERE title = 'film 35'",
            Vec::new(),
        ),
        (
            "SELECT COUNT(*) AS n, MAX(id) AS m FROM films WHERE title = 'film 35'",
            vec![vec![Value::Int(0), Value::Null]],
        ),
        // No column is read at all: the scan still counts rows.
        (
            "SELECT COUNT(*) AS n FROM posters",
            vec![vec![Value::Int(200)]],
        ),
    ]
}

#[test]
fn late_materialization_returns_what_a_plain_rust_filter_returns() {
    let catalogs = catalogs();
    for (sql, rows) in late_materialization_corpus() {
        let want = reference(&catalogs.0, sql);
        assert_eq!(want.rows, rows, "{sql}: oracle vs plain filter");
        check_everywhere(&catalogs, sql, &want);
    }
}

#[test]
fn a_where_clause_that_raises_raises_on_every_backing_and_drive() {
    let catalogs = catalogs();
    // Row 2600 of `big` divides by zero. `id <= 10` would let zone maps and
    // row hints step over it, `v = 99` (no such value) would let them drop
    // every row: neither may, because the first conjunct can raise.
    for sql in [
        "SELECT id FROM big WHERE 1 / (id - 2600) <= 0 AND id <= 10",
        "SELECT id FROM big WHERE 1 / (id - 2600) <= 0 AND v = 99",
    ] {
        let select = parse_select(sql).unwrap();
        let oracle = oracle::run(&catalogs.0, &select).map(|a| a.rows.len());
        assert_eq!(oracle.expect_err(sql), "division by zero", "{sql}");
        let want = SqlError::Storage(StorageError::Eval("division by zero".into()));
        sweep(&catalogs, |label, c, mode, threads| {
            let got = run(c, sql, mode, threads, VectorMode::Auto)
                .map(|(t, _)| t.len())
                .expect_err(&format!("{sql} ({label})"));
            assert_eq!(got, want, "{sql} ({label})");
        });
    }
}

#[test]
fn the_quotient_that_does_not_fit_is_a_typed_error_on_every_backing_and_drive() {
    let catalogs = catalogs();
    // Row 4699 of `big` divides `i64::MIN` by -1, one row before row 4700
    // divides by zero, in the second morsel: every drive reports the first.
    for op in ["/", "%"] {
        let sql = format!("SELECT (0 - 9223372036854775807 - 1) {op} (id - 4700) FROM big");
        let want = SqlError::Storage(StorageError::Eval("integer overflow".into()));
        sweep(&catalogs, |label, c, mode, threads| {
            let got = run(c, &sql, mode, threads, VectorMode::Auto)
                .map(|(t, _)| t.len())
                .expect_err(&format!("{sql} ({label})"));
            assert_eq!(got, want, "{sql} ({label})");
        });
    }
    // Unary minus wraps, as `+ - *` do: `-i64::MIN` is `i64::MIN`.
    let sql = "SELECT id, -(0 - 9223372036854775807 - 1 + v) FROM big WHERE id <= 200";
    let want = reference(&catalogs.0, sql);
    assert_eq!(want.rows[0], vec![Value::Int(0), Value::Int(i64::MIN)]);
    assert_eq!(want.rows[1], vec![Value::Int(1), Value::Int(i64::MAX)]);
    check_everywhere(&catalogs, sql, &want);
}

#[test]
fn vector_topk_equals_its_reference_under_every_combination() {
    let catalogs = catalogs();
    let full_sort = serial(&catalogs.0, VECTOR_SQL, VectorMode::Off).unwrap();
    assert_eq!(full_sort.len(), 4);
    for vector in [VectorMode::Off, VectorMode::Flat, VectorMode::Ivf] {
        // The exact paths reproduce the full-sort plan bit for bit; IVF is
        // approximate, but deterministic: it equals its own serial probe.
        let want = serial(&catalogs.0, VECTOR_SQL, vector).unwrap();
        if vector != VectorMode::Ivf {
            assert_eq!(want, full_sort, "{vector:?}");
        }
        assert_eq!(want.len(), full_sort.len(), "{vector:?}");
        sweep(&catalogs, |label, c, mode, threads| {
            let (got, _) = run(c, VECTOR_SQL, mode, threads, vector)
                .unwrap_or_else(|e| panic!("{vector:?} ({label}): {e}"));
            assert_eq!(got, want, "{vector:?} ({label})");
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
        let select = parse_select(sql).unwrap();
        assert!(
            oracle::run(&catalogs.0, &select).is_err(),
            "{sql}: the oracle answers"
        );
        for vector in [VectorMode::Off, VectorMode::Flat, VectorMode::Ivf] {
            let want = serial(&catalogs.0, sql, vector).expect_err(sql);
            assert!(expected(&want), "{sql}: unexpected error {want:?}");
            sweep(&catalogs, |label, c, mode, threads| {
                let got = run(c, sql, mode, threads, vector)
                    .map(|(t, _)| t)
                    .expect_err(sql);
                assert_eq!(got, want, "{sql} ({vector:?}, {label})");
            });
        }
    }
}

#[test]
fn float_sum_and_avg_are_one_bit_pattern_everywhere_equal_to_the_oracle() {
    let catalogs = catalogs();
    let sql =
        "SELECT year, SUM(score) AS s, AVG(score) AS a FROM films GROUP BY year ORDER BY year";
    let bits = |rows: &[Vec<Value>]| -> Vec<u64> {
        rows.iter()
            .flat_map(|row| [row[1].as_f64().unwrap(), row[2].as_f64().unwrap()])
            .map(f64::to_bits)
            .collect()
    };
    let want = reference(&catalogs.0, sql);
    assert_eq!(want.rows.len(), 60);
    // The test can tell: adding in row order misses the exact sum.
    let row_order = film_rows().iter().fold(vec![0.0; 60], |mut sums, row| {
        if let (Value::Int(year), Value::Float(score)) = (&row[2], &row[3]) {
            sums[(year - 1950) as usize] += score;
        }
        sums
    });
    let exact: Vec<f64> = want.rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
    assert_ne!(row_order, exact, "row order is exact here");
    let mut split = 0;
    sweep(&catalogs, |label, c, mode, threads| {
        let (got, stats) = run(c, sql, mode, threads, VectorMode::Auto).unwrap();
        split += (stats.workers > 1) as usize;
        assert_eq!(bits(got.rows()), bits(&want.rows), "{label}");
    });
    assert!(split > 0, "no run took the morsel drive");
}

/// `l` holds one row, `k = 1`; `r` holds 1 030 rows that all match it,
/// with `v` counting down from 1 029 — so only the last pair has `v = 0`.
fn fan_out_catalog() -> Catalog {
    let mut c = Catalog::new();
    execute(&mut c, "CREATE TABLE l (k INT)", "x").unwrap();
    execute(&mut c, "CREATE TABLE r (rk INT, v INT)", "x").unwrap();
    execute(&mut c, "INSERT INTO l VALUES (1)", "x").unwrap();
    let rows: Vec<Vec<Value>> = (0..1030i64)
        .map(|i| vec![Value::Int(1), Value::Int(1029 - i)])
        .collect();
    c.append_rows("r", &rows).unwrap();
    c
}

#[test]
fn a_limit_evaluates_no_pair_past_it_under_a_fanned_out_join() {
    let c = fan_out_catalog();
    // (statement, rows it returns): the zero divisor is pair 1 030, past
    // every limit here — in the SELECT list, in WHERE, and under DISTINCT,
    // whose third distinct quotient comes at pair 1 025.
    let cases = [
        (
            "SELECT k, 10 / v AS q FROM l JOIN r ON l.k = r.rk LIMIT 1024",
            1024,
        ),
        (
            "SELECT k, 10 / v AS q FROM l JOIN r ON l.k = r.rk LIMIT 3",
            3,
        ),
        (
            "SELECT k FROM l JOIN r ON l.k = r.rk WHERE 10 / v >= 0 LIMIT 3",
            3,
        ),
        (
            "SELECT DISTINCT k, 10 / v AS q FROM l JOIN r ON l.k = r.rk LIMIT 3",
            3,
        ),
    ];
    for (sql, len) in cases {
        let want = oracle::run(&c, &parse_select(sql).unwrap()).expect(sql);
        assert_eq!(want.rows.len(), len, "{sql}");
        for mode in MODES {
            for threads in [1, 2] {
                let (got, _) = run(&c, sql, mode, threads, VectorMode::Auto)
                    .unwrap_or_else(|e| panic!("{sql} ({mode:?}, {threads} threads): {e}"));
                let diff = oracle::mismatch(&got, &want);
                assert_eq!(diff, None, "{sql} ({mode:?}, {threads} threads)");
            }
        }
    }
    // One pair further, the divisor is evaluated and raises everywhere.
    let sql = "SELECT k, 10 / v AS q FROM l JOIN r ON l.k = r.rk LIMIT 1030";
    assert!(oracle::run(&c, &parse_select(sql).unwrap()).is_err());
    for mode in MODES {
        assert!(run(&c, sql, mode, 1, VectorMode::Auto).is_err(), "{mode:?}");
    }
}
