//! Property tests: every drive answers what the naive evaluator in
//! `oracle/` says a statement answers, at every batch size and worker
//! count, on every backing.
//!
//! For random NULL-heavy tables (sometimes empty) and random
//! SQL-expressible plans — projections (bare `*`, column subsets, computed
//! expressions), WHERE trees over AND/OR/NOT/IS NULL with mixed-type
//! comparisons, inner and LEFT equi-joins, a divisor that is zero on some
//! rows (in the SELECT list or behind a WHERE conjunct), and the blocking
//! or lazy shapes (DISTINCT, GROUP BY with all six aggregates, a global
//! aggregate, ORDER BY ascending and descending, each with and without a
//! LIMIT, a lazy LIMIT, DISTINCT under a LIMIT) — every run of
//! `run_select_auto_guarded` must return the oracle's column names and
//! rows, or both must fail. The sweep covers batch sizes 1/3/1024 and
//! 1/2/8 workers over resident tables, paged tables, tables paged and then
//! INSERTed into, and tables whose short last page was reopened and pushed
//! past into more open groups (so the CI low-memory leg exercises a
//! starved buffer pool underneath).

mod oracle;

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
        // Halves, and a tenth off them for odd `k`: sums that round.
        ColType::Float => Value::Float(k as f64 * 0.5 + (k % 2) as f64 * 0.1),
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

/// A statement: the SELECT list, the WHERE tree, the join (0 none, 1
/// inner, 2 LEFT), a `10 / column` divisor — `(where, column)`: `where`
/// 0 puts it in WHERE, 1 in the SELECT list, anything else nowhere — and
/// `shape`: what happens past the streaming pipeline.
#[derive(Debug, Clone)]
struct Query {
    items: Items,
    filt: Option<FilterSpec>,
    join: u8,
    div: (u8, u8),
    agg_col: u8,
    shape: u8,
    /// More WHERE conjuncts, rendered, ANDed after the others.
    extra: Vec<String>,
}

impl Query {
    fn render(&self, arity: usize) -> String {
        let div = |col: u8| format!("10 / c{}", col as usize % arity);
        let x = format!("c{}", self.agg_col as usize % arity);
        let mut list = match self.shape {
            1 | 7 => "DISTINCT c0".to_string(),
            2 => "COUNT(*) AS n".to_string(),
            5 | 9 => format!(
                "c0, COUNT(*) AS n, COUNT({x}) AS k, SUM({x}) AS s, AVG({x}) AS a, \
                 MIN({x}) AS lo, MAX({x}) AS hi"
            ),
            _ => self.items.render(arity, 'c'),
        };
        let mut conjuncts: Vec<String> = self.filt.iter().map(|f| f.render(arity, 'c')).collect();
        conjuncts.extend(self.extra.iter().cloned());
        match self.div {
            (0, col) => conjuncts.push(format!("{} >= 0", div(col))),
            (1, col) if ![1, 2, 5, 7, 9].contains(&self.shape) => {
                list.push_str(&format!(", {} AS q", div(col)));
            }
            _ => {}
        }
        let mut sql = format!("SELECT {list} FROM t1");
        match self.join % 3 {
            1 => sql.push_str(" JOIN t2 ON t1.c0 = t2.d0"),
            2 => sql.push_str(" LEFT JOIN t2 ON t1.c0 = t2.d0"),
            _ => {}
        }
        if !conjuncts.is_empty() {
            sql.push_str(&format!(" WHERE {}", conjuncts.join(" AND ")));
        }
        sql.push_str(match self.shape {
            3 => " ORDER BY c0",
            4 => " LIMIT 3",
            5 => " GROUP BY c0",
            6 => " ORDER BY c0 DESC LIMIT 3",
            7 => " LIMIT 2",
            8 => " ORDER BY c0 DESC",
            9 => " GROUP BY c0 ORDER BY c0 DESC LIMIT 2",
            _ => "",
        });
        sql
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

fn arb_query() -> impl Strategy<Value = Query> {
    (
        arb_items(),
        arb_filter(),
        0u8..3,
        (0u8..6, any::<u8>()),
        any::<u8>(),
        0u8..12,
    )
        .prop_map(|(items, filt, join, div, agg_col, shape)| Query {
            items,
            filt,
            join,
            div,
            agg_col,
            shape,
            extra: Vec::new(),
        })
}

/// Registers `t1` and `t2` in four catalogs so the same query sweeps
/// every backing: resident; paged, seven rows to a page; paged except for
/// the last three rows, which are INSERTed afterwards — sealed groups
/// followed by an open one; and paged three rows to a page up to a short
/// page of one row, with the rest pushed after it — the short page
/// reopened, and the open part spanning every group from it on. The
/// resident catalog comes first.
fn catalogs(t1: &Table, t2: &Table) -> [(&'static str, Catalog); 4] {
    let mut resident = Catalog::new();
    let mut paged = Catalog::new();
    let mut split = Catalog::new();
    let mut reopened = Catalog::new();
    for t in [t1, t2] {
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
        let (head, tail) = t.rows().split_at((t.len() / 12 * 3 + 1).min(t.len()));
        let head = Table::from_rows(t.name(), t.schema().clone(), head.to_vec());
        let pool = std::sync::Arc::clone(reopened.pool());
        let mut pushed = head
            .expect("typed rows")
            .seal(&pool, 3)
            .expect("pages encode");
        pushed.extend(tail.to_vec()).expect("typed rows");
        if tail.len() >= 3 {
            let open = pushed.groups().iter().filter(|g| g.is_open()).count();
            assert!(open >= 2, "the open part spans {open} group(s)");
        }
        reopened.register(pushed).expect("fresh name");
    }
    [
        ("resident", resident),
        ("paged", paged),
        ("paged then inserted into", split),
        ("paged, reopened and pushed into", reopened),
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

/// Asserts every run of the (batch, threads, backing) sweep returns what
/// the oracle says, over the resident rows — or fails where it fails.
fn assert_parity(backings: &[(&'static str, Catalog)], sql: &str) -> Result<(), TestCaseError> {
    let select = parse_select(sql).expect("generated SQL parses");
    let reference = oracle::run(&backings[0].1, &select);
    for (label, catalog) in backings {
        for batch in [1usize, 3, 1024] {
            for threads in [1usize, 2, 8] {
                let got = run(catalog, sql, ExecMode::Batched(batch), threads);
                let at = format!("{label}, batch {batch}, {threads} workers: {sql}");
                match (&reference, &got) {
                    (Ok(want), Ok(got)) => {
                        let diff = oracle::mismatch(got, want);
                        prop_assert!(diff.is_none(), "{} ({at})", diff.unwrap_or_default());
                    }
                    // A plan that fails (e.g. `+ 1` over a Bool column, or
                    // a zero divisor the plan evaluates) fails everywhere.
                    (Err(_), Err(_)) => {}
                    (want, got) => prop_assert!(
                        false,
                        "the oracle and the drive disagree on failure ({at}): \
                         oracle={want:?} drive={got:?}"
                    ),
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn every_drive_matches_the_oracle_for_random_plans(
        types in (arb_type(), arb_type(), arb_type(), arb_type()),
        arity in 1usize..5,
        rows in prop::collection::vec(arb_row_seed(), 0..48),
        rows2 in prop::collection::vec(arb_row_seed(), 0..16),
        query in arb_query(),
    ) {
        let types = [types.0, types.1, types.2, types.3];
        let t1 = build_table("t1", 'c', &types[..arity], &rows);
        let t2 = build_table("t2", 'd', &types[..arity], &rows2);
        assert_parity(&catalogs(&t1, &t2), &query.render(arity))?;
    }

    /// Joined plans with a `column <op> literal` conjunct over each table:
    /// the FROM one's goes to the FROM scan, an INNER join's right-side one
    /// to its build scan, a LEFT join's stays in the residual filter.
    #[test]
    fn conjuncts_over_either_joined_table_match_the_oracle(
        types in (arb_type(), arb_type(), arb_type(), arb_type()),
        arity in 1usize..5,
        rows in prop::collection::vec(arb_row_seed(), 0..48),
        rows2 in prop::collection::vec(arb_row_seed(), 0..16),
        query in arb_query(),
        sides in (arb_cmp(), arb_cmp(), any::<bool>()),
    ) {
        let types = [types.0, types.1, types.2, types.3];
        let t1 = build_table("t1", 'c', &types[..arity], &rows);
        let t2 = build_table("t2", 'd', &types[..arity], &rows2);
        let (left, right, outer) = sides;
        let query = Query {
            join: if outer { 2 } else { 1 },
            extra: vec![left.render(arity, 'c'), right.render(arity, 'd')],
            ..query
        };
        assert_parity(&catalogs(&t1, &t2), &query.render(arity))?;
    }

    #[test]
    fn every_drive_matches_the_oracle_on_all_null_tables(
        types in (arb_type(), arb_type(), arb_type(), arb_type()),
        arity in 1usize..5,
        n_rows in 0usize..6,
        query in arb_query(),
    ) {
        let types = [types.0, types.1, types.2, types.3];
        // Roll 0 forces NULL in every cell.
        let rows: Vec<RowSeed> = vec![((0, 0), (0, 0), (0, 0), (0, 0)); n_rows];
        let t1 = build_table("t1", 'c', &types[..arity], &rows);
        let t2 = build_table("t2", 'd', &types[..arity], &rows);
        assert_parity(&catalogs(&t1, &t2), &query.render(arity))?;
    }
}

/// The oracle's independence is a check, not a promise: it names no
/// evaluation, comparison or operator item of the engine, and takes
/// nothing from `kath_storage` but the catalog, table, row and value types.
#[test]
fn the_oracle_names_nothing_it_judges() {
    const BANNED: &[&str] = &[
        // What the parity suites used to share with the drive they judged.
        "Expr",
        "RowBatch",
        "ColumnVector",
        "Operator",
        "sql_cmp",
        "total_cmp",
        "cmp_int_f64",
        "is_truthy",
        "eval_batch",
        "to_expr",
        "execute",
        "run_select_auto_guarded",
        // The rest of `kath_storage::{expr, ops, batch}`.
        "BinOp",
        "ColumnData",
        "NullBitmap",
        "StrBuf",
        "ExecMode",
        "CompileMode",
        "DEFAULT_BATCH_SIZE",
        "cmp_rows",
        "col_cmp",
        "drain_guarded",
        "merge_sorted_runs",
        "resolve_sort_keys",
        "sort_rows",
        "AggFunc",
        "Aggregate",
        "Distinct",
        "Filter",
        "HashAggregate",
        "HashJoin",
        "IndexScan",
        "JoinBuild",
        "JoinKind",
        "Limit",
        "PartialAggregate",
        "Project",
        "Sort",
        "SortKey",
        "TableScan",
        // The sort of sorted runs and their merge by index.
        "SortedRun",
        "RunMerge",
        "SlotOrder",
        "slot_order",
        "total_cmp_at",
        "gather_from",
        "concat_all",
        // The vector access path the oracle's `SIMILARITY` judges.
        "VectorIndex",
        "VectorTopK",
        "top_k_entries",
        "merge_top_k",
        "decode_embedding",
        "cosine",
        // The exact float sum of `SUM`/`AVG`: the oracle sums its own way.
        "ExactSum",
        "add_digits",
        "rounded",
    ];
    const FROM_STORAGE: &[&str] = &["Catalog", "Row", "Table", "Value"];
    let code: Vec<&str> = include_str!("oracle/mod.rs")
        .lines()
        .map(|line| line.split("//").next().unwrap_or_default())
        .collect();
    // `SelectItem::Expr` is the parser's select-list variant, not the
    // engine's `Expr`.
    let code = code.join("\n").replace("SelectItem::Expr", "SelectItem::");
    let word = |c: char| c.is_alphanumeric() || c == '_';
    for ident in code.split(|c: char| !word(c)) {
        assert!(!BANNED.contains(&ident), "the oracle names `{ident}`");
    }
    for path in code.split("kath_storage::").skip(1) {
        let named = match path.strip_prefix('{') {
            Some(group) => group.split('}').next().unwrap_or_default(),
            None => path.split(|c: char| !word(c)).next().unwrap_or_default(),
        };
        for item in named.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            assert!(
                FROM_STORAGE.contains(&item),
                "the oracle takes `{item}` from kath_storage"
            );
        }
    }
}
