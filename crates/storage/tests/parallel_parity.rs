//! Property tests: morsel-driven parallel execution is observationally
//! identical to serial execution, at every worker count.
//!
//! For random tables (NULL-heavy, tiny value domains for join and group
//! collisions, sometimes empty) and random plans — a stateless streaming
//! prefix (filter/project) plus an optional pipeline breaker (sort,
//! aggregate, shared-build hash join) — the serial batch drain and the
//! parallel composition (per-morsel pipelines over [`MorselSource`],
//! thread-local [`PartialAggregate`]s, sorted-run merges, all merged in
//! morsel order) must produce the same table with the same row order — or
//! both must fail.

use kath_storage::{
    col_cmp, collect, merge_sorted_runs, resolve_sort_keys, run_morsels, sort_rows, AggFunc,
    Aggregate, BinOp, Expr, Filter, HashAggregate, HashJoin, JoinBuild, JoinKind, Morsel,
    MorselSource, Operator, PartialAggregate, Project, Row, Schema, SortKey, StorageError, Table,
    TableScan, Value,
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

/// Stateless streaming operators — the part of a plan parallel workers run
/// independently per morsel.
#[derive(Debug, Clone)]
enum StreamOp {
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
}

/// Pipeline breakers — where the parallel driver switches to thread-local
/// partial state plus a deterministic merge.
#[derive(Debug, Clone)]
enum Breaker {
    None,
    Sort { col: u8, desc: bool },
    Aggregate { group: u8, func: u8, col: u8 },
    Join { left: u8, right: u8, outer: bool },
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

fn arb_stream_op() -> impl Strategy<Value = StreamOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), -4i64..5, any::<bool>()).prop_map(|(col, cmp, lit, negate)| {
            StreamOp::Filter {
                col,
                cmp,
                lit,
                negate,
            }
        }),
        (any::<u8>(), prop::option::of(any::<u8>()))
            .prop_map(|(keep, computed)| StreamOp::Project { keep, computed }),
    ]
}

fn arb_breaker() -> impl Strategy<Value = Breaker> {
    prop_oneof![
        Just(Breaker::None),
        (any::<u8>(), any::<bool>()).prop_map(|(col, desc)| Breaker::Sort { col, desc }),
        (any::<u8>(), 0u8..6, any::<u8>()).prop_map(|(group, func, col)| Breaker::Aggregate {
            group,
            func,
            col
        }),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(left, right, outer)| Breaker::Join {
            left,
            right,
            outer
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

/// Applies the stateless prefix over an input operator.
fn apply_stream_ops(
    mut op: Box<dyn Operator>,
    ops: &[StreamOp],
) -> Result<Box<dyn Operator>, StorageError> {
    for spec in ops {
        if op.schema().arity() == 0 {
            break; // A degenerate projection left nothing to operate on.
        }
        op = match spec {
            StreamOp::Filter {
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
            StreamOp::Project { keep, computed } => {
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
        };
    }
    Ok(op)
}

fn sort_key_of(schema: &Schema, col: u8, desc: bool) -> SortKey {
    SortKey {
        column: col_at(schema, col),
        desc,
    }
}

fn aggregate_of(schema: &Schema, group: u8, func: u8, col: u8) -> (Vec<String>, Vec<Aggregate>) {
    let func = [
        AggFunc::CountStar,
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ][func as usize % 6];
    let column = if func == AggFunc::CountStar {
        None
    } else {
        Some(col_at(schema, col))
    };
    (
        vec![col_at(schema, group)],
        vec![Aggregate {
            func,
            column,
            output: "agg_out".to_string(),
        }],
    )
}

/// The serial reference: one operator chain, drained batch by batch; a
/// sort breaker is one stable sort of everything the chain drained.
fn run_serial(
    t1: &Arc<Table>,
    t2: &Arc<Table>,
    ops: &[StreamOp],
    breaker: &Breaker,
) -> Result<Table, StorageError> {
    let scan: Box<dyn Operator> = Box::new(TableScan::new(Arc::clone(t1)));
    let op = apply_stream_ops(scan, ops)?;
    let op: Box<dyn Operator> = match breaker {
        Breaker::None => op,
        _ if op.schema().arity() == 0 => op,
        Breaker::Sort { col, desc } => {
            let key = sort_key_of(op.schema(), *col, *desc);
            let key_idx = resolve_sort_keys(op.schema(), &[key])?;
            let drained = collect("out", op)?;
            let mut rows = drained.rows().to_vec();
            sort_rows(&mut rows, &key_idx);
            return Table::from_rows("out", drained.schema().clone(), rows);
        }
        Breaker::Aggregate { group, func, col } => {
            let (group_by, aggs) = aggregate_of(op.schema(), *group, *func, *col);
            Box::new(HashAggregate::new(op, group_by, aggs)?)
        }
        Breaker::Join { left, right, outer } => {
            let lcol = col_at(op.schema(), *left);
            let rcol = col_at(t2.schema(), *right);
            let rscan = Box::new(TableScan::new(Arc::clone(t2)));
            let kind = if *outer {
                JoinKind::Left
            } else {
                JoinKind::Inner
            };
            Box::new(HashJoin::new(op, rscan, &lcol, &rcol, kind)?)
        }
    };
    collect("out", op)
}

/// The parallel composition: per-morsel pipelines over a shared atomic
/// cursor, thread-local partial states, merged in morsel order.
fn run_parallel(
    t1: &Arc<Table>,
    t2: &Arc<Table>,
    ops: &[StreamOp],
    breaker: &Breaker,
    workers: usize,
    morsel_rows: usize,
) -> Result<Table, StorageError> {
    let source = MorselSource::new(t1.len(), morsel_rows);
    // Schema probe: an empty-range pipeline yields the stream schema
    // without touching data.
    let probe = apply_stream_ops(
        Box::new(TableScan::new(Arc::clone(t1)).with_range(0, 0)),
        ops,
    )?;
    let stream_schema = probe.schema().clone();
    let make_stream = |m: Morsel| -> Result<Box<dyn Operator>, StorageError> {
        apply_stream_ops(
            Box::new(
                TableScan::new(Arc::clone(t1))
                    .with_range(m.start, m.end)
                    .with_batch_size(morsel_rows),
            ),
            ops,
        )
    };
    let drain = |op: &mut dyn Operator| -> Result<Vec<Row>, StorageError> {
        let mut rows = Vec::new();
        while let Some(b) = op.next_batch()? {
            rows.extend(b.into_rows());
        }
        Ok(rows)
    };

    let degenerate = stream_schema.arity() == 0;
    let (schema, rows) = match breaker {
        _ if degenerate => {
            let run = run_morsels(&source, workers, |m| drain(make_stream(m)?.as_mut()))?;
            (stream_schema, run.outputs.into_iter().flatten().collect())
        }
        Breaker::None => {
            let run = run_morsels(&source, workers, |m| drain(make_stream(m)?.as_mut()))?;
            (stream_schema, run.outputs.into_iter().flatten().collect())
        }
        Breaker::Sort { col, desc } => {
            let key = sort_key_of(&stream_schema, *col, *desc);
            let key_idx = resolve_sort_keys(&stream_schema, &[key])?;
            let run = run_morsels(&source, workers, |m| {
                let mut rows = drain(make_stream(m)?.as_mut())?;
                sort_rows(&mut rows, &key_idx);
                Ok(rows)
            })?;
            (stream_schema, merge_sorted_runs(run.outputs, &key_idx))
        }
        Breaker::Aggregate { group, func, col } => {
            let (group_by, aggs) = aggregate_of(&stream_schema, *group, *func, *col);
            let run = run_morsels(&source, workers, |m| {
                let mut op = make_stream(m)?;
                let mut partial = PartialAggregate::new(&stream_schema, &group_by, aggs.clone())?;
                partial.consume(op.as_mut())?;
                Ok(partial)
            })?;
            let mut acc = PartialAggregate::new(&stream_schema, &group_by, aggs)?;
            for partial in run.outputs {
                acc.merge(partial);
            }
            acc.finish()
        }
        Breaker::Join { left, right, outer } => {
            let lcol = col_at(&stream_schema, *left);
            let rcol = col_at(t2.schema(), *right);
            let kind = if *outer {
                JoinKind::Left
            } else {
                JoinKind::Inner
            };
            // The pipeline breaker: one shared build, probed per morsel.
            let build = Arc::new(JoinBuild::build(
                Box::new(TableScan::new(Arc::clone(t2))),
                &rcol,
            )?);
            let joined_schema = stream_schema.join(build.right_schema(), "right");
            let run = run_morsels(&source, workers, |m| {
                let stream = make_stream(m)?;
                let mut probe: Box<dyn Operator> = Box::new(HashJoin::from_build(
                    stream,
                    Arc::clone(&build),
                    &lcol,
                    kind,
                )?);
                drain(probe.as_mut())
            })?;
            (joined_schema, run.outputs.into_iter().flatten().collect())
        }
    };
    Table::from_rows("out", schema, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_matches_serial_for_random_plans(
        types in (arb_type(), arb_type(), arb_type(), arb_type()),
        arity in 1usize..5,
        rows in prop::collection::vec(arb_row_seed(), 0..48),
        rows2 in prop::collection::vec(arb_row_seed(), 0..16),
        ops in prop::collection::vec(arb_stream_op(), 0..4),
        breaker in arb_breaker(),
        morsel_rows in 1usize..9,
    ) {
        let types = [types.0, types.1, types.2, types.3];
        let t1 = build_table("t1", &types[..arity], &rows);
        let t2 = build_table("t2", &types[..arity], &rows2);

        let serial = run_serial(&t1, &t2, &ops, &breaker);
        for workers in [1usize, 2, 8] {
            let parallel = run_parallel(&t1, &t2, &ops, &breaker, workers, morsel_rows);
            match (&serial, &parallel) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a, b,
                    "divergence at {} workers (morsel {}) for ops {:?} breaker {:?}",
                    workers, morsel_rows, &ops, &breaker
                ),
                // A plan that fails (e.g. `+ 1` on a Bool column) must fail
                // on both drives.
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "one drive failed at {} workers: serial={:?} parallel={:?}",
                    workers, a.as_ref().map(Table::len), b.as_ref().map(Table::len)
                ),
            }
        }
    }

    #[test]
    fn parallel_matches_serial_on_empty_and_all_null_tables(
        types in (arb_type(), arb_type(), arb_type(), arb_type()),
        arity in 1usize..5,
        n_rows in 0usize..6,
        ops in prop::collection::vec(arb_stream_op(), 0..3),
        breaker in arb_breaker(),
    ) {
        let types = [types.0, types.1, types.2, types.3];
        // Roll 0 forces NULL in every cell.
        let rows: Vec<RowSeed> = vec![((0, 0), (0, 0), (0, 0), (0, 0)); n_rows];
        let t1 = build_table("t1", &types[..arity], &rows);
        let t2 = Arc::clone(&t1);

        let serial = run_serial(&t1, &t2, &ops, &breaker);
        for workers in [1usize, 2, 8] {
            let parallel = run_parallel(&t1, &t2, &ops, &breaker, workers, 4);
            match (&serial, &parallel) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "drives disagreed on failure at {} workers", workers),
            }
        }
    }
}
