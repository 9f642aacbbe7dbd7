//! Property tests: the batch and morsel drives are observationally
//! identical to the Volcano row drive, at every batch size and worker
//! count, on every backing.
//!
//! For random NULL-heavy tables (sometimes empty) and random
//! SQL-expressible plans — projections (bare `*`, column subsets, computed
//! expressions), WHERE trees over AND/OR/NOT/IS NULL with mixed-type
//! comparisons, optional equi-joins, and the blocking or lazy shapes
//! (LIMIT, DISTINCT, ORDER BY, an aggregate) — every run of
//! `run_select_auto_guarded` must produce the same table, row for row and
//! byte for byte, as [`ExecMode::Volcano`] on the resident catalog, whose
//! scan, filter and projection evaluate row by row, through none of the
//! batch kernels the judged runs share — or both must fail. The sweep covers batch sizes 1/3/1024 and 1/2/8 workers over resident
//! tables, paged tables and tables paged and then INSERTed into (so the CI
//! low-memory leg exercises a starved buffer pool underneath).

use kath_sql::{parse_select, run_select_auto_guarded};
use kath_storage::{
    Catalog, Column, CompileMode, DataType, ExecMode, QueryGuard, Schema, Table, Value, VectorMode,
};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq)]
enum ColType {
    Int,
    Float,
    Str,
    Bool,
}

/// A cell seed: nullness roll plus a small payload (small domains collide).
type CellSeed = (u8, i64);
/// One generated row: a seed per potential column.
type RowSeed = (CellSeed, CellSeed, CellSeed, CellSeed);

fn cell(t: ColType, (roll, k): CellSeed) -> Value {
    if roll % 3 == 0 {
        // NULL-heavy: about a third of all cells.
        return Value::Null;
    }
    match t {
        ColType::Int => Value::Int(k),
        ColType::Float => Value::Float(k as f64 * 0.5),
        ColType::Str => Value::Str(format!("s{k}")),
        ColType::Bool => Value::Bool(k % 2 == 0),
    }
}

fn dtype(t: ColType) -> DataType {
    match t {
        ColType::Int => DataType::Int,
        ColType::Float => DataType::Float,
        ColType::Str => DataType::Str,
        ColType::Bool => DataType::Bool,
    }
}

fn build_table(name: &str, prefix: char, types: &[ColType], rows: &[RowSeed]) -> Table {
    let schema = Schema::new(
        types
            .iter()
            .enumerate()
            .map(|(i, t)| Column::new(format!("{prefix}{i}"), dtype(*t)))
            .collect(),
    )
    .expect("generated names are unique");
    let mut table = Table::new(name, schema);
    for seed in rows {
        let seeds = [seed.0, seed.1, seed.2, seed.3];
        let row: Vec<Value> = types.iter().zip(seeds).map(|(t, s)| cell(*t, s)).collect();
        table.push(row).expect("cells match their column types");
    }
    table
}

/// One comparison leaf of the WHERE tree, rendered as SQL text.
#[derive(Debug, Clone)]
struct CmpSpec {
    col: u8,
    cmp: u8,
    lit: i64,
}

impl CmpSpec {
    fn render(&self, arity: usize, prefix: char) -> String {
        let op = ["=", "<>", "<", "<=", ">", ">="][self.cmp as usize % 6];
        let col = self.col as usize % arity;
        if self.cmp % 7 == 6 {
            // An occasional IS NULL leaf exercises the 3VL kernels.
            format!("{prefix}{col} IS NULL")
        } else {
            format!("{prefix}{col} {op} {}", self.lit)
        }
    }
}

/// The WHERE tree: up to two comparison leaves under AND/OR, optionally
/// negated — the short-circuit shapes.
#[derive(Debug, Clone)]
struct FilterSpec {
    first: CmpSpec,
    second: Option<(bool, CmpSpec)>,
    negate: bool,
}

impl FilterSpec {
    fn render(&self, arity: usize, prefix: char) -> String {
        let mut body = self.first.render(arity, prefix);
        if let Some((or, second)) = &self.second {
            let conn = if *or { "OR" } else { "AND" };
            body = format!("{body} {conn} {}", second.render(arity, prefix));
        }
        if self.negate {
            format!("NOT ({body})")
        } else {
            format!("({body})")
        }
    }
}

/// The SELECT list: bare `*`, a column subset, or computed expressions.
#[derive(Debug, Clone)]
enum Items {
    Star,
    Cols(u8),
    Computed(u8),
}

impl Items {
    fn render(&self, arity: usize, prefix: char) -> String {
        match self {
            Items::Star => "*".to_string(),
            Items::Cols(keep) => {
                let mask = (*keep as usize % ((1 << arity) - 1)) + 1;
                let cols: Vec<String> = (0..arity)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| format!("{prefix}{i}"))
                    .collect();
                cols.join(", ")
            }
            Items::Computed(c) => {
                let col = *c as usize % arity;
                format!(
                    "{prefix}{col}, {prefix}{col} + 1 AS bumped, {prefix}{col} IS NULL AS missing"
                )
            }
        }
    }
}

fn arb_type() -> impl Strategy<Value = ColType> {
    prop_oneof![
        Just(ColType::Int),
        Just(ColType::Float),
        Just(ColType::Str),
        Just(ColType::Bool),
    ]
}

fn arb_row_seed() -> impl Strategy<Value = RowSeed> {
    let c = || (any::<u8>(), -4i64..5);
    (c(), c(), c(), c())
}

fn arb_cmp() -> impl Strategy<Value = CmpSpec> {
    (any::<u8>(), any::<u8>(), -4i64..5).prop_map(|(col, cmp, lit)| CmpSpec { col, cmp, lit })
}

fn arb_filter() -> impl Strategy<Value = Option<FilterSpec>> {
    prop::option::of(
        (
            arb_cmp(),
            prop::option::of((any::<bool>(), arb_cmp())),
            any::<bool>(),
        )
            .prop_map(|(first, second, negate)| FilterSpec {
                first,
                second,
                negate,
            }),
    )
}

fn arb_items() -> impl Strategy<Value = Items> {
    prop_oneof![
        Just(Items::Star),
        any::<u8>().prop_map(Items::Cols),
        any::<u8>().prop_map(Items::Computed),
    ]
}

/// `shape` picks what the statement does past the streaming pipeline: a
/// breaker the morsel drive merges (1 DISTINCT, 2 an aggregate, 3 a sort), a
/// lazy LIMIT, which stays serial (4), or nothing (anything else).
fn render_query(
    items: &Items,
    filt: &Option<FilterSpec>,
    join: bool,
    arity: usize,
    shape: usize,
) -> String {
    let list = match shape {
        1 => "DISTINCT c0".to_string(),
        2 => "COUNT(*) AS n".to_string(),
        _ => items.render(arity, 'c'),
    };
    let mut sql = format!("SELECT {list} FROM t1");
    if join {
        sql.push_str(" JOIN t2 ON t1.c0 = t2.d0");
    }
    if let Some(f) = filt {
        sql.push_str(&format!(" WHERE {}", f.render(arity, 'c')));
    }
    sql.push_str(match shape {
        3 => " ORDER BY c0",
        4 => " LIMIT 3",
        _ => "",
    });
    sql
}

/// Registers `t1` (and `t2` when joining) in three catalogs so the same
/// query sweeps every backing: resident; paged, seven rows to a page; and
/// paged except for the last three rows, which are INSERTed afterwards —
/// sealed pages followed by a row tail. The resident catalog comes first.
fn catalogs(t1: &Table, t2: &Table, join: bool) -> [(&'static str, Catalog); 3] {
    let mut resident = Catalog::new();
    let mut paged = Catalog::new();
    let mut split = Catalog::new();
    for t in [t1, t2].into_iter().take(if join { 2 } else { 1 }) {
        resident.register(t.clone()).expect("fresh name");
        let pool = std::sync::Arc::clone(paged.pool());
        paged
            .register(t.seal(&pool, 7).expect("pages encode"))
            .expect("fresh name");
        let (head, tail) = t.rows().split_at(t.len().saturating_sub(3));
        let head = Table::from_rows(t.name(), t.schema().clone(), head.to_vec());
        let pool = std::sync::Arc::clone(split.pool());
        split
            .register(
                head.expect("typed rows")
                    .seal(&pool, 7)
                    .expect("pages encode"),
            )
            .expect("fresh name");
        split.append_rows(t.name(), tail).expect("typed rows");
    }
    [
        ("resident", resident),
        ("paged", paged),
        ("paged then inserted into", split),
    ]
}

/// Runs one query in one catalog on the drive `(mode, threads)` picks.
fn run(
    catalog: &Catalog,
    sql: &str,
    mode: ExecMode,
    threads: usize,
) -> Result<Table, kath_sql::SqlError> {
    let select = parse_select(sql).expect("generated SQL parses");
    run_select_auto_guarded(
        catalog,
        &select,
        "out",
        mode,
        threads,
        VectorMode::Off,
        CompileMode::Off,
        &QueryGuard::unlimited(),
    )
    .map(|(t, _stats)| t)
}

/// Asserts every run of the (batch, threads, backing) sweep equals the
/// Volcano reference for one query.
fn assert_parity(backings: &[(&'static str, Catalog); 3], sql: &str) -> Result<(), TestCaseError> {
    // The reference: the serial row drive on the resident table.
    let reference = run(&backings[0].1, sql, ExecMode::Volcano, 1);
    for (label, catalog) in backings {
        for batch in [1usize, 3, 1024] {
            for threads in [1usize, 2, 8] {
                let got = run(catalog, sql, ExecMode::Batched(batch), threads);
                match (&reference, &got) {
                    (Ok(want), Ok(got)) => prop_assert_eq!(
                        want,
                        got,
                        "diverged ({label}, batch {}, {} workers): {}",
                        batch,
                        threads,
                        sql
                    ),
                    // A plan that fails (e.g. `+ 1` over a Bool column) must
                    // fail on every drive.
                    (Err(_), Err(_)) => {}
                    (r, g) => prop_assert!(
                        false,
                        "drives disagreed on failure ({label}, batch {batch}, {threads} workers) \
                         for {sql}: reference={:?} got={:?}",
                        r.is_ok(),
                        g.is_ok()
                    ),
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batch_and_morsel_drives_match_volcano_for_random_plans(
        types in (arb_type(), arb_type(), arb_type(), arb_type()),
        arity in 1usize..5,
        rows in prop::collection::vec(arb_row_seed(), 0..48),
        rows2 in prop::collection::vec(arb_row_seed(), 0..16),
        items in arb_items(),
        filt in arb_filter(),
        join in any::<bool>(),
        shape in 0usize..8,
    ) {
        let types = [types.0, types.1, types.2, types.3];
        let t1 = build_table("t1", 'c', &types[..arity], &rows);
        let t2 = build_table("t2", 'd', &types[..arity], &rows2);
        let sql = render_query(&items, &filt, join, arity, shape);
        assert_parity(&catalogs(&t1, &t2, join), &sql)?;
    }

    #[test]
    fn batch_and_morsel_drives_match_volcano_on_all_null_tables(
        types in (arb_type(), arb_type(), arb_type(), arb_type()),
        arity in 1usize..5,
        n_rows in 0usize..6,
        items in arb_items(),
        filt in arb_filter(),
        shape in 0usize..8,
    ) {
        let types = [types.0, types.1, types.2, types.3];
        // Roll 0 forces NULL in every cell.
        let rows: Vec<RowSeed> = vec![((0, 0), (0, 0), (0, 0), (0, 0)); n_rows];
        let t1 = build_table("t1", 'c', &types[..arity], &rows);
        let t2 = build_table("t2", 'd', &types[..arity], &rows);
        let sql = render_query(&items, &filt, false, arity, shape);
        assert_parity(&catalogs(&t1, &t2, false), &sql)?;
    }
}
