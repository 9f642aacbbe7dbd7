//! Property tests: batched and row-at-a-time execution are observationally
//! identical. For random tables (NULL-heavy, tiny value domains for join
//! and group collisions, sometimes empty) and random operator plans, the
//! Volcano `next()` drive and the columnar `next_batch()` drive at several
//! batch sizes must produce the same table — or both fail.
//!
//! Underneath them, the typed copy primitives late materialization stands
//! on — `ColumnVector::{slice, gather, gather_padded, filter, sql_cmp_at}` —
//! must agree with `value(i)` slot by slot for every payload kind.

use kath_storage::{
    col_cmp, collect, collect_batched, AggFunc, Aggregate, BinOp, ColumnData, ColumnVector,
    Distinct, Expr, Filter, HashAggregate, HashJoin, JoinKind, Limit, Operator, Project, Schema,
    Sort, SortKey, StorageError, Table, TableScan, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

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

fn dtype(t: ColType) -> kath_storage::DataType {
    match t {
        ColType::Int => kath_storage::DataType::Int,
        ColType::Float => kath_storage::DataType::Float,
        ColType::Str => kath_storage::DataType::Str,
        ColType::Bool => kath_storage::DataType::Bool,
    }
}

fn build_table(name: &str, types: &[ColType], rows: &[RowSeed]) -> Arc<Table> {
    let schema = Schema::new(
        types
            .iter()
            .enumerate()
            .map(|(i, t)| kath_storage::Column::new(format!("c{i}"), dtype(*t)))
            .collect(),
    )
    .expect("generated names are unique");
    let mut table = Table::new(name, schema);
    for seed in rows {
        let seeds = [seed.0, seed.1, seed.2, seed.3];
        let row: Vec<Value> = types.iter().zip(seeds).map(|(t, s)| cell(*t, s)).collect();
        table.push(row).expect("cells match their column types");
    }
    Arc::new(table)
}

/// Schema-independent operator specs; indices are resolved modulo the
/// input arity at build time.
#[derive(Debug, Clone)]
enum OpSpec {
    Filter {
        col: u8,
        cmp: u8,
        lit: i64,
        negate: bool,
    },
    Project {
        keep: u8,
        computed: Option<u8>,
    },
    Sort {
        col: u8,
        desc: bool,
    },
    Limit(u8),
    Distinct,
}

#[derive(Debug, Clone)]
enum TailSpec {
    None,
    Join { left: u8, right: u8, outer: bool },
    Aggregate { group: u8, func: u8, col: u8 },
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

fn arb_op() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), -4i64..5, any::<bool>()).prop_map(|(col, cmp, lit, negate)| {
            OpSpec::Filter {
                col,
                cmp,
                lit,
                negate,
            }
        }),
        (any::<u8>(), prop::option::of(any::<u8>()))
            .prop_map(|(keep, computed)| OpSpec::Project { keep, computed }),
        (any::<u8>(), any::<bool>()).prop_map(|(col, desc)| OpSpec::Sort { col, desc }),
        (0u8..12).prop_map(OpSpec::Limit),
        Just(OpSpec::Distinct),
    ]
}

fn arb_tail() -> impl Strategy<Value = TailSpec> {
    prop_oneof![
        Just(TailSpec::None),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(left, right, outer)| TailSpec::Join {
            left,
            right,
            outer
        }),
        (any::<u8>(), 0u8..6, any::<u8>()).prop_map(|(group, func, col)| TailSpec::Aggregate {
            group,
            func,
            col
        }),
    ]
}

fn cmp_of(cmp: u8) -> BinOp {
    [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ][cmp as usize % 6]
}

fn col_at(schema: &Schema, i: u8) -> String {
    schema.column(i as usize % schema.arity()).name.clone()
}

/// Builds the full plan; `batch` configures the scans' batch capacity.
fn build_plan(
    t1: &Arc<Table>,
    t2: &Arc<Table>,
    ops: &[OpSpec],
    tail: &TailSpec,
    batch: usize,
) -> Result<Box<dyn Operator>, StorageError> {
    let mut op: Box<dyn Operator> = Box::new(TableScan::new(Arc::clone(t1)).with_batch_size(batch));
    for spec in ops {
        if op.schema().arity() == 0 {
            break; // A degenerate projection left nothing to operate on.
        }
        op = match spec {
            OpSpec::Filter {
                col,
                cmp,
                lit,
                negate,
            } => {
                let mut pred = col_cmp(&col_at(op.schema(), *col), cmp_of(*cmp), *lit);
                if *negate {
                    pred = Expr::Not(Box::new(pred));
                }
                Box::new(Filter::new(op, pred))
            }
            OpSpec::Project { keep, computed } => {
                let arity = op.schema().arity();
                // A non-empty bitmask over the input columns.
                let mask = (*keep as usize % ((1 << arity) - 1)) + 1;
                let mut outputs: Vec<(String, Expr)> = (0..arity)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| {
                        let name = op.schema().column(i).name.clone();
                        (name.clone(), Expr::col(name))
                    })
                    .collect();
                if let Some(c) = computed {
                    let src = col_at(op.schema(), *c);
                    outputs.push((
                        "computed".to_string(),
                        Expr::col(src).bin(BinOp::Add, Expr::lit(1i64)),
                    ));
                }
                Box::new(Project::new(op, outputs)?)
            }
            OpSpec::Sort { col, desc } => {
                let column = col_at(op.schema(), *col);
                Box::new(Sort::new(
                    op,
                    vec![SortKey {
                        column,
                        desc: *desc,
                    }],
                )?)
            }
            OpSpec::Limit(n) => Box::new(Limit::new(op, *n as usize)),
            OpSpec::Distinct => Box::new(Distinct::new(op)),
        };
    }
    match tail {
        TailSpec::None => Ok(op),
        TailSpec::Join { left, right, outer } if op.schema().arity() > 0 => {
            let lcol = col_at(op.schema(), *left);
            let rcol = col_at(t2.schema(), *right);
            let rscan = Box::new(TableScan::new(Arc::clone(t2)).with_batch_size(batch));
            let kind = if *outer {
                JoinKind::Left
            } else {
                JoinKind::Inner
            };
            Ok(Box::new(HashJoin::new(op, rscan, &lcol, &rcol, kind)?))
        }
        TailSpec::Aggregate { group, func, col } if op.schema().arity() > 0 => {
            let group_col = col_at(op.schema(), *group);
            let func = [
                AggFunc::CountStar,
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ][*func as usize % 6];
            let column = if func == AggFunc::CountStar {
                None
            } else {
                Some(col_at(op.schema(), *col))
            };
            Ok(Box::new(HashAggregate::new(
                op,
                vec![group_col],
                vec![Aggregate {
                    func,
                    column,
                    output: "agg_out".to_string(),
                }],
            )?))
        }
        _ => Ok(op),
    }
}

/// Sorting can tie; both drives must still agree because `Sort` is stable
/// and both consume the identical input order.
fn run_row(
    t1: &Arc<Table>,
    t2: &Arc<Table>,
    ops: &[OpSpec],
    tail: &TailSpec,
) -> Result<Table, StorageError> {
    collect("out", build_plan(t1, t2, ops, tail, 1024)?)
}

fn run_batched(
    t1: &Arc<Table>,
    t2: &Arc<Table>,
    ops: &[OpSpec],
    tail: &TailSpec,
    batch: usize,
) -> Result<Table, StorageError> {
    collect_batched("out", build_plan(t1, t2, ops, tail, batch)?).map(|(t, _)| t)
}

/// A column of payload kind `kind` (0–3: the typed kinds, a third of the
/// slots NULL; 4: blobs; 5: two types mixed) from cell seeds.
fn column_of(kind: u8, cells: &[CellSeed]) -> ColumnVector {
    let typed = [ColType::Int, ColType::Float, ColType::Str, ColType::Bool];
    let values = cells.iter().map(|&(roll, k)| match kind {
        0..=3 => cell(typed[kind as usize], (roll, k)),
        4 if roll % 3 == 0 => Value::Null,
        4 => Value::Blob(vec![roll, k as u8]),
        _ if roll % 2 == 0 => Value::Int(k),
        _ => Value::Str(format!("s{k}")),
    });
    ColumnVector::from_values(values.collect())
}

/// `got` holds exactly the slots of `col` that `want` lists (`None`: NULL),
/// in the same payload kind.
fn assert_slots(got: &ColumnVector, col: &ColumnVector, want: &[Option<usize>]) {
    assert_eq!(got.len(), want.len());
    let mut nulls = 0;
    for (k, slot) in want.iter().enumerate() {
        let value = slot.map_or(Value::Null, |i| col.value(i));
        assert_eq!(got.value(k), value, "slot {k} <- {slot:?}");
        assert_eq!(got.is_null(k), value.is_null(), "slot {k} nullness");
        nulls += usize::from(value.is_null());
    }
    assert_eq!(got.null_count(), nulls);
    assert_eq!(
        std::mem::discriminant(got.data()),
        std::mem::discriminant(col.data()),
        "payload kind"
    );
    // Moving the values out agrees with reading them in place.
    assert_eq!(got.clone().into_values(), got.to_values());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn slice_and_gather_agree_with_value_slot_by_slot(
        kind in 0u8..6,
        // Up to 200 slots: NULLs on both sides of the 64- and 128-slot
        // bitmap word boundaries.
        cells in prop::collection::vec((any::<u8>(), -4i64..5), 0..200),
        picks in prop::collection::vec(any::<u16>(), 0..80),
        bounds in (any::<u16>(), any::<u16>()),
        lit in -4i64..5,
    ) {
        let col = column_of(kind, &cells);
        let n = col.len();
        if let ColumnData::Mixed(_) = col.data() {
            prop_assert!(kind >= 4 || (0..n).all(|i| col.is_null(i)));
        }

        // Out-of-order, repeating (and, for an empty column, empty) picks.
        let idx: Vec<usize> = picks.iter().filter(|_| n > 0).map(|&p| p as usize % n).collect();
        let some: Vec<Option<usize>> = idx.iter().copied().map(Some).collect();
        assert_slots(&col.gather(&idx), &col, &some);
        assert_slots(&col.gather(&[]), &col, &[]);

        // Every third pick becomes a NULL pad; an empty column is all pads.
        let padded: Vec<Option<usize>> = picks
            .iter()
            .enumerate()
            .map(|(k, &p)| (n > 0 && k % 3 != 0).then(|| p as usize % n))
            .collect();
        assert_slots(&col.gather_padded(&padded), &col, &padded);

        let (a, b) = (bounds.0 as usize % (n + 1), bounds.1 as usize % (n + 1));
        let (start, end) = (a.min(b), a.max(b));
        let range: Vec<Option<usize>> = (start..end).map(Some).collect();
        assert_slots(&col.slice(start, end), &col, &range);
        assert_slots(&col.slice(0, n), &col, &(0..n).map(Some).collect::<Vec<_>>());

        let mask: Vec<bool> = (0..n).map(|i| picks.get(i % picks.len().max(1)).is_some_and(|p| p % 2 == 0)).collect();
        let kept: Vec<Option<usize>> = (0..n).filter(|&i| mask[i]).map(Some).collect();
        assert_slots(&col.filter(&mask), &col, &kept);

        // The in-place comparison is `sql_cmp` of the rebuilt value, for a
        // literal of every type.
        let lits = [
            Value::Int(lit),
            Value::Float(lit as f64 * 0.5),
            Value::Str(format!("s{lit}")),
            Value::Bool(lit % 2 == 0),
            Value::Blob(vec![3, lit as u8]),
            Value::Null,
        ];
        for lit in &lits {
            for i in 0..n {
                prop_assert_eq!(col.sql_cmp_at(i, lit), col.value(i).sql_cmp(lit), "slot {} vs {:?}", i, lit);
            }
        }
    }

    #[test]
    fn batched_matches_row_for_random_plans(
        types in (arb_type(), arb_type(), arb_type(), arb_type()),
        arity in 1usize..5,
        rows in prop::collection::vec(arb_row_seed(), 0..28),
        rows2 in prop::collection::vec(arb_row_seed(), 0..16),
        ops in prop::collection::vec(arb_op(), 0..4),
        tail in arb_tail(),
    ) {
        let types = [types.0, types.1, types.2, types.3];
        let t1 = build_table("t1", &types[..arity], &rows);
        let t2 = build_table("t2", &types[..arity], &rows2);

        let row_result = run_row(&t1, &t2, &ops, &tail);
        for batch in [1usize, 3, 1024] {
            let batched = run_batched(&t1, &t2, &ops, &tail, batch);
            match (&row_result, &batched) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a, b,
                    "divergence at batch size {} for ops {:?} tail {:?}",
                    batch, &ops, &tail
                ),
                // A plan that fails (e.g. `+ 1` on a Bool column) must fail
                // on both drives.
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "one drive failed: row={:?} batched(bs={})={:?}",
                    a.as_ref().map(Table::len), batch, b.as_ref().map(Table::len)
                ),
            }
        }
    }

    #[test]
    fn batched_matches_row_on_empty_and_all_null_tables(
        types in (arb_type(), arb_type(), arb_type(), arb_type()),
        arity in 1usize..5,
        n_rows in 0usize..6,
        ops in prop::collection::vec(arb_op(), 0..3),
    ) {
        let types = [types.0, types.1, types.2, types.3];
        // Roll 0 forces NULL in every cell.
        let rows: Vec<RowSeed> = vec![((0, 0), (0, 0), (0, 0), (0, 0)); n_rows];
        let t1 = build_table("t1", &types[..arity], &rows);
        let t2 = Arc::clone(&t1);

        let row_result = run_row(&t1, &t2, &ops, &TailSpec::None);
        for batch in [1usize, 1024] {
            let batched = run_batched(&t1, &t2, &ops, &TailSpec::None, batch);
            match (&row_result, &batched) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "drives disagreed on failure"),
            }
        }
    }
}

/// `expr` projected over `(c0, c1)` Int rows on the row drive and on the
/// batch drive at several batch sizes; they must agree before the outcome
/// is returned.
fn project_on_both_drives(expr: &Expr, rows: &[(i64, i64)]) -> Result<Vec<Value>, StorageError> {
    let seeds: Vec<RowSeed> = rows
        .iter()
        .map(|(a, b)| ((1, *a), (1, *b), (0, 0), (0, 0)))
        .collect();
    let table = build_table("t", &[ColType::Int, ColType::Int], &seeds);
    let run = |batch: usize, batched: bool| {
        let scan = Box::new(TableScan::new(Arc::clone(&table)).with_batch_size(batch));
        let plan = Box::new(Project::new(scan, vec![("v".to_string(), expr.clone())])?);
        let out = match batched {
            true => collect_batched("out", plan)?.0,
            false => collect("out", plan)?,
        };
        Ok(out.rows().iter().map(|r| r[0].clone()).collect())
    };
    let want: Result<Vec<Value>, StorageError> = run(1024, false);
    for batch in [1usize, 3, 1024] {
        assert_eq!(run(batch, true), want, "batch size {batch}: {expr}");
    }
    want
}

#[test]
fn the_one_quotient_that_does_not_fit_is_a_typed_error_and_negation_wraps() {
    let c = |i: usize| Expr::col(format!("c{i}"));
    let overflow = Err(StorageError::Eval("integer overflow".into()));
    // The failing row comes second: the first divides cleanly.
    let rows = [(i64::MIN, 2), (i64::MIN, -1)];
    for op in [BinOp::Div, BinOp::Mod] {
        assert_eq!(project_on_both_drives(&c(0).bin(op, c(1)), &rows), overflow);
        let fits = project_on_both_drives(&c(0).bin(op, c(1)), &rows[..1]).unwrap();
        let want = if op == BinOp::Div { i64::MIN / 2 } else { 0 };
        assert_eq!(fits, vec![Value::Int(want)]);
    }
    // Unary minus follows `+ - *`: it wraps, in every build profile.
    let negated = project_on_both_drives(&Expr::Neg(Box::new(c(0))), &[(i64::MIN, 0), (7, 0)]);
    assert_eq!(negated.unwrap(), vec![Value::Int(i64::MIN), Value::Int(-7)]);
}
