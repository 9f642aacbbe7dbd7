//! Property tests: ORDER BY answers what the naive evaluator in `oracle/`
//! says, rows and order, at every batch size and worker count.
//!
//! The tables are built to break a sort: small domains (heavy ties), NULLs
//! in every column, `-0.0` beside `0.0`, NaN of both signs and the
//! infinities in the float column, integers around 2^53 and at the ends of
//! `i64`, and an `ANY` column mixing integers and floats that compare
//! exactly (`2^53 + 1` against `2^53` as a float), plus the empty string
//! and a non-ASCII one. Every row carries its input position (`pos`), so
//! `SELECT *` shows that ties keep input order. The statements sort on one
//! or two keys of any column, ascending or descending, with no LIMIT,
//! `LIMIT 0`, `LIMIT 1`, a small LIMIT or one above the row count, with and
//! without DISTINCT, and after GROUP BY. The sweep covers batch sizes
//! 1/3/1024 and 1/2/8 workers over a resident and a paged table.

mod oracle;

use kath_sql::{parse_select, run_select_auto_guarded};
use kath_storage::{
    Catalog, CompileMode, DataType, ExecMode, QueryGuard, Schema, Table, Value, VectorMode,
};
use proptest::prelude::*;

const BIG: i64 = 1 << 53;

const INTS: [Option<i64>; 8] = [
    None,
    Some(-1),
    Some(0),
    Some(2),
    Some(BIG),
    Some(BIG + 1),
    Some(i64::MAX),
    Some(i64::MIN),
];

const FLOATS: [Option<f64>; 10] = [
    None,
    Some(-0.0),
    Some(0.0),
    Some(1.5),
    Some(-1.5),
    Some(f64::NAN),
    Some(-f64::NAN),
    Some(f64::INFINITY),
    Some(f64::NEG_INFINITY),
    Some(BIG as f64),
];

const STRS: [Option<&str>; 5] = [None, Some(""), Some("a"), Some("ab"), Some("é")];

const BOOLS: [Option<bool>; 3] = [None, Some(false), Some(true)];

/// The `ANY` column: integers and floats that equal or straddle each other.
fn mixed(k: u8) -> Value {
    match k % 8 {
        0 => Value::Null,
        1 => Value::Int(1),
        2 => Value::Float(1.0),
        3 => Value::Int(BIG + 1),
        4 => Value::Float(BIG as f64),
        5 => Value::Int(BIG),
        6 => Value::Float(-0.0),
        _ => Value::Int(0),
    }
}

type RowSeed = (u8, u8, u8, u8, u8);

fn build(rows: &[RowSeed]) -> Table {
    let schema = Schema::of(&[
        ("pos", DataType::Int),
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Str),
        ("b", DataType::Bool),
        ("m", DataType::Any),
    ]);
    let mut table = Table::new("t", schema);
    for (pos, &(i, f, s, b, m)) in rows.iter().enumerate() {
        let opt = |v: Option<Value>| v.unwrap_or(Value::Null);
        table
            .push(vec![
                Value::Int(pos as i64),
                opt(INTS[i as usize % INTS.len()].map(Value::Int)),
                opt(FLOATS[f as usize % FLOATS.len()].map(Value::Float)),
                opt(STRS[s as usize % STRS.len()].map(|s| Value::Str(s.into()))),
                opt(BOOLS[b as usize % BOOLS.len()].map(Value::Bool)),
                mixed(m),
            ])
            .expect("cells match their column types");
    }
    table
}

const KEYS: [&str; 5] = ["i", "f", "s", "b", "m"];

/// A statement: sort keys `(column, descending)`, the shape (0 plain
/// `SELECT *`, 1 `SELECT DISTINCT` of the keys, 2 GROUP BY the first key)
/// and the LIMIT (0 none, 1 `LIMIT 0`, 2 `LIMIT 1`, 3 `LIMIT 3`, 4 a
/// limit above the row count).
#[derive(Debug, Clone)]
struct Sort {
    keys: Vec<(u8, bool)>,
    shape: u8,
    limit: u8,
}

impl Sort {
    fn render(&self, rows: usize) -> String {
        let keys: Vec<(&str, bool)> = self
            .keys
            .iter()
            .map(|&(k, desc)| (KEYS[k as usize % KEYS.len()], desc))
            .collect();
        let dir = |desc: bool| if desc { " DESC" } else { "" };
        let mut names: Vec<&str> = keys.iter().map(|(k, _)| *k).collect();
        names.dedup();
        let mut sql = match self.shape % 3 {
            0 => "SELECT * FROM t".to_string(),
            1 => format!("SELECT DISTINCT {} FROM t", names.join(", ")),
            _ => format!(
                "SELECT {}, COUNT(*) AS n FROM t GROUP BY {}",
                names[0], names[0]
            ),
        };
        let order: Vec<String> = match self.shape % 3 {
            // After GROUP BY the group key, then the count.
            2 => vec![
                format!("{}{}", names[0], dir(keys[0].1)),
                format!("n{}", dir(keys.last().is_some_and(|k| k.1))),
            ],
            _ => keys
                .iter()
                .map(|(k, d)| format!("{k}{}", dir(*d)))
                .collect(),
        };
        sql.push_str(&format!(" ORDER BY {}", order.join(", ")));
        match self.limit % 5 {
            1 => sql.push_str(" LIMIT 0"),
            2 => sql.push_str(" LIMIT 1"),
            3 => sql.push_str(" LIMIT 3"),
            4 => sql.push_str(&format!(" LIMIT {}", rows + 5)),
            _ => {}
        }
        sql
    }
}

fn arb_sort() -> impl Strategy<Value = Sort> {
    (
        prop::collection::vec((any::<u8>(), any::<bool>()), 1..3),
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(|(keys, shape, limit)| Sort { keys, shape, limit })
}

fn arb_row() -> impl Strategy<Value = RowSeed> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
    )
}

/// The table resident, and sealed seven rows to a page.
fn backings(t: &Table) -> [(&'static str, Catalog); 2] {
    let mut resident = Catalog::new();
    resident.register(t.clone()).expect("fresh name");
    let mut paged = Catalog::new();
    let pool = std::sync::Arc::clone(paged.pool());
    paged
        .register(t.seal(&pool, 7).expect("pages encode"))
        .expect("fresh name");
    [("resident", resident), ("paged", paged)]
}

fn assert_sorted_like_the_oracle(t: &Table, sql: &str) -> Result<(), TestCaseError> {
    let select = parse_select(sql).expect("generated SQL parses");
    let backings = backings(t);
    let want = oracle::run(&backings[0].1, &select);
    let want = want.map_err(|e| TestCaseError::fail(format!("the oracle fails: {e} ({sql})")))?;
    for (label, catalog) in &backings {
        for batch in [1usize, 3, 1024] {
            for threads in [1usize, 2, 8] {
                let got = run_select_auto_guarded(
                    catalog,
                    &select,
                    "out",
                    ExecMode::Batched(batch),
                    threads,
                    VectorMode::Off,
                    CompileMode::Off,
                    &QueryGuard::unlimited(),
                );
                let at = format!("{label}, batch {batch}, {threads} workers: {sql}");
                let (got, _) = got.map_err(|e| TestCaseError::fail(format!("{e} ({at})")))?;
                let diff = oracle::mismatch(&got, &want);
                prop_assert!(diff.is_none(), "{} ({at})", diff.unwrap_or_default());
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn every_sort_matches_the_oracle(
        rows in prop::collection::vec(arb_row(), 0..40),
        sort in arb_sort(),
    ) {
        let t = build(&rows);
        assert_sorted_like_the_oracle(&t, &sort.render(rows.len()))?;
    }
}

/// The corner cases by name, whatever the generator draws: every key
/// column both ways, on a table where each value appears several times.
#[test]
fn each_key_column_sorts_both_ways_with_heavy_ties() {
    let rows: Vec<RowSeed> = (0..60u8)
        .map(|k| {
            (
                k,
                k.wrapping_mul(7),
                k.wrapping_mul(3),
                k,
                k.wrapping_mul(5),
            )
        })
        .collect();
    let t = build(&rows);
    for key in KEYS {
        for dir in ["", " DESC"] {
            for tail in ["", " LIMIT 0", " LIMIT 1", " LIMIT 7", " LIMIT 100"] {
                let sql = format!("SELECT * FROM t ORDER BY {key}{dir}{tail}");
                assert_sorted_like_the_oracle(&t, &sql).unwrap();
                let other = if key == "b" { "s" } else { "b" };
                let sql = format!(
                    "SELECT DISTINCT {key}, {other} FROM t ORDER BY {key}{dir}, {other}{tail}"
                );
                assert_sorted_like_the_oracle(&t, &sql).unwrap();
            }
        }
    }
}
