//! Property tests for the kernels and copy primitives batches stand on:
//! the typed primitives late materialization uses —
//! `ColumnVector::{slice, gather, gather_padded, filter}` — must agree with
//! `value(i)` slot by slot for every payload kind; the one literal-compare
//! kernel (`ColumnVector::{retain_cmp, compare_lit}`, which scan hints and
//! `col <op> literal` expressions both run) must keep exactly the slots
//! `Value::sql_cmp` says hold, and evaluate as the column-against-column
//! kernels do; random
//! sequences of copies and appends over string columns must agree with the
//! same operations on `Vec<Value>`, and an integer quotient that does not
//! fit is a typed error at every batch size.
//! Whole plans are judged against the naive SQL evaluator in
//! `crates/sql/tests/oracle` by `crates/sql/tests/drive_parity.rs`.

use kath_storage::{
    collect, BinOp, ColumnData, ColumnVector, DataType, Expr, Project, RowBatch, Schema,
    StorageError, Table, TableScan, Value,
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
    #![proptest_config(ProptestConfig::default())]

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

        // The literal-compare kernel is `sql_cmp` of the rebuilt value,
        // for a literal of every type.
        let lits = [
            Value::Int(lit),
            Value::Float(lit as f64 * 0.5),
            Value::Str(format!("s{lit}")),
            Value::Bool(lit % 2 == 0),
            Value::Blob(vec![3, lit as u8]),
            Value::Null,
        ];
        for lit in &lits {
            assert_compares_like_sql_cmp(&col, lit, &idx)?;
        }
    }
}

const OPS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

/// The literal-compare kernel against `Value::sql_cmp` and against the
/// evaluator, for every comparison operator: `retain_cmp` keeps exactly
/// the positions (of every slot, and of `picks`, in their order, repeats
/// included) whose value `sql_cmp` orders so that the operator holds;
/// `compare_lit` is TRUE there, NULL exactly where `sql_cmp` orders
/// nothing; and `c <op> lit`, `lit <flipped op> c` and `c <op> l` over a
/// column `l` of the literal repeated — the column-against-column kernels
/// — evaluate to the same values.
fn assert_compares_like_sql_cmp(
    col: &ColumnVector,
    lit: &Value,
    picks: &[usize],
) -> Result<(), TestCaseError> {
    let n = col.len();
    let schema = Schema::of(&[("c", DataType::Any), ("l", DataType::Any)]);
    let batch = RowBatch::from_columns(vec![col.clone(), ColumnVector::repeat(lit, n)])
        .expect("two columns of one length");
    for op in OPS {
        let holds = |i: usize| col.value(i).sql_cmp(lit).is_some_and(|o| op.holds(o));
        let want: Vec<usize> = (0..n).filter(|&i| holds(i)).collect();
        let mut kept: Vec<usize> = (0..n).collect();
        col.retain_cmp(op, lit, &mut kept);
        prop_assert_eq!(&kept, &want, "{} {:?}", op, lit);
        let mut kept = picks.to_vec();
        col.retain_cmp(op, lit, &mut kept);
        let want: Vec<usize> = picks.iter().copied().filter(|&i| holds(i)).collect();
        prop_assert_eq!(&kept, &want, "{} {:?} over picks", op, lit);

        let truth = col.compare_lit(op, lit);
        for i in 0..n {
            let unknown = col.value(i).sql_cmp(lit).is_none();
            prop_assert_eq!(truth.is_null(i), unknown, "slot {} {} {:?}", i, op, lit);
        }
        let mask: Vec<bool> = (0..n).map(holds).collect();
        prop_assert_eq!(&truth.truthy_mask(), &mask, "{} {:?}", op, lit);
        let eval = |e: Expr| {
            e.eval_batch(&batch, &schema)
                .expect("comparisons never raise")
        };
        let col_lit = eval(Expr::col("c").bin(op, Expr::Lit(lit.clone())));
        let lit_col = eval(Expr::Lit(lit.clone()).bin(op.flipped(), Expr::col("c")));
        let col_col = eval(Expr::col("c").bin(op, Expr::col("l")));
        prop_assert_eq!(&col_lit.truthy_mask(), &mask, "c {} {:?}", op, lit);
        prop_assert_eq!(
            col_lit.to_values(),
            col_col.to_values(),
            "c {} {:?}",
            op,
            lit
        );
        prop_assert_eq!(
            lit_col.to_values(),
            col_col.to_values(),
            "{:?} {} c",
            lit,
            op.flipped()
        );
    }
    Ok(())
}

/// The values the literal-compare kernel must order as `sql_cmp` does:
/// integers on both sides of 2^53 and at the ends of `i64`, floats equal
/// to some of them, `-0.0` and `0.0`, NaNs of both signs, the infinities,
/// strings that prefix one another, both booleans and blobs.
fn edge_values() -> [Vec<Value>; 5] {
    let two53 = 1i64 << 53;
    [
        [0, 1, -1, two53, two53 + 1, i64::MAX, i64::MIN]
            .map(Value::Int)
            .to_vec(),
        [
            0.0,
            -0.0,
            0.5,
            1.0,
            two53 as f64,
            (two53 + 2) as f64,
            i64::MAX as f64,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
        .map(Value::Float)
        .to_vec(),
        ["", "a", "ab", "é"].map(|s| Value::Str(s.into())).to_vec(),
        vec![Value::Bool(false), Value::Bool(true)],
        vec![
            Value::Blob(Vec::new()),
            Value::Blob(vec![1]),
            Value::Blob(vec![1, 2]),
        ],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn the_literal_kernel_keeps_what_sql_cmp_and_the_evaluator_keep(
        // 0–4: one kind of `edge_values` (a third of the slots NULL);
        // 5: every kind mixed.
        kind in 0u8..6,
        cells in prop::collection::vec((any::<u8>(), any::<u8>()), 0..150),
        picks in prop::collection::vec(any::<u16>(), 0..40),
        lit in (any::<u8>(), any::<u8>()),
    ) {
        let pools = edge_values();
        let everything: Vec<Value> = pools.iter().flatten().cloned().collect();
        let pool = pools.get(kind as usize).unwrap_or(&everything);
        let values = cells.iter().map(|&(roll, k)| match roll % 3 {
            0 => Value::Null,
            _ => pool[k as usize % pool.len()].clone(),
        });
        let col = ColumnVector::from_values(values.collect());
        let n = col.len();
        let picks: Vec<usize> = picks.iter().filter(|_| n > 0).map(|&p| p as usize % n).collect();
        // A literal of any kind, NULL included, one time in four of the
        // column's own kind.
        let lit = match lit.0 % 8 {
            0 => Value::Null,
            1 | 2 => pool[lit.1 as usize % pool.len()].clone(),
            _ => everything[lit.1 as usize % everything.len()].clone(),
        };
        assert_compares_like_sql_cmp(&col, &lit, &picks)?;
    }
}

/// Strings a buffer must hold byte for byte: empty, ASCII, two-, three- and
/// four-byte UTF-8, and a prefix of another.
const STRS: [&str; 7] = ["", "a", "ab", "é", "日本", "🦀x", "héllo"];

/// A string or (one roll in four) NULL.
fn str_value(roll: u8) -> Value {
    match roll % 8 {
        0 | 7 => Value::Null,
        k => Value::Str(STRS[k as usize].into()),
    }
}

/// `col` holds `want`, slot for slot, and reads its strings in place the
/// way the values compare and hash.
fn assert_holds(col: &ColumnVector, want: &[Value]) -> Result<(), TestCaseError> {
    prop_assert_eq!(col.len(), want.len());
    prop_assert_eq!(&col.to_values(), want);
    prop_assert_eq!(&col.clone().into_values(), want);
    prop_assert_eq!(
        col.null_count(),
        want.iter().filter(|v| v.is_null()).count()
    );
    if want.iter().any(|v| !v.is_null()) {
        prop_assert!(
            matches!(col.data(), ColumnData::StrBuf(_)),
            "one string form"
        );
    }
    let mut hashes = vec![0u64; col.len()];
    col.hash_into(&mut hashes);
    for (i, v) in want.iter().enumerate() {
        for (j, w) in want.iter().enumerate() {
            prop_assert_eq!(col.eq_at(i, col, j), v == w, "slots {} and {}", i, j);
            prop_assert!(v != w || hashes[i] == hashes[j], "equal slots hash alike");
            prop_assert_eq!(col.cmp_at(i, w), v.total_cmp(w));
        }
        assert_compares_like_sql_cmp(col, v, &[])?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn string_columns_copy_and_append_as_their_values_do(
        start in prop::collection::vec(any::<u8>(), 0..12),
        steps in prop::collection::vec((0u8..7, any::<u8>(), prop::collection::vec(any::<u8>(), 0..12)), 0..16),
    ) {
        let values = |rolls: &[u8]| rolls.iter().map(|&r| str_value(r)).collect::<Vec<_>>();
        let mut want = values(&start);
        let mut col = ColumnVector::from_values(want.clone());
        assert_holds(&col, &want)?;
        for (op, arg, rolls) in steps {
            let n = want.len();
            // Positions into the column (repeats, any order); none when empty.
            let picks: Vec<usize> = rolls.iter().filter(|_| n > 0).map(|&r| r as usize % n).collect();
            match op {
                0 => {
                    col.push(str_value(arg));
                    want.push(str_value(arg));
                }
                1 => {
                    col.extend(ColumnVector::from_values(values(&rolls)));
                    want.extend(values(&rolls));
                }
                2 => {
                    let (a, b) = (arg as usize % (n + 1), rolls.len() % (n + 1));
                    let (a, b) = (a.min(b), a.max(b));
                    col = col.slice(a, b);
                    want = want[a..b].to_vec();
                }
                3 => {
                    col = col.gather(&picks);
                    want = picks.iter().map(|&i| want[i].clone()).collect();
                }
                4 => {
                    let padded: Vec<Option<usize>> = (picks.iter().enumerate())
                        .map(|(k, &i)| (k % 3 != arg as usize % 3).then_some(i))
                        .collect();
                    col = col.gather_padded(&padded);
                    want = padded.iter().map(|i| i.map_or(Value::Null, |i| want[i].clone())).collect();
                }
                5 => {
                    let mask: Vec<bool> = (0..n).map(|i| rolls.get(i).is_some_and(|r| r % 2 == 0)).collect();
                    col = col.filter(&mask);
                    want = (0..n).filter(|&i| mask[i]).map(|i| want[i].clone()).collect();
                }
                _ => {
                    let k = rolls.len();
                    col.extend(ColumnVector::repeat(&str_value(arg), k));
                    want.extend(std::iter::repeat_n(str_value(arg), k));
                }
            }
            assert_holds(&col, &want)?;
        }
    }
}

/// `expr` projected over `(c0, c1)` Int rows at batch sizes 1, 3 and
/// 1024; they must agree before the outcome is returned.
fn project_at_every_batch_size(
    expr: &Expr,
    rows: &[(i64, i64)],
) -> Result<Vec<Value>, StorageError> {
    let seeds: Vec<RowSeed> = rows
        .iter()
        .map(|(a, b)| ((1, *a), (1, *b), (0, 0), (0, 0)))
        .collect();
    let table = build_table("t", &[ColType::Int, ColType::Int], &seeds);
    let run = |batch: usize| {
        let scan = Box::new(TableScan::new(Arc::clone(&table)).with_batch_size(batch));
        let plan = Box::new(Project::new(scan, vec![("v".to_string(), expr.clone())])?);
        Ok(collect("out", plan)?
            .rows()
            .iter()
            .map(|r| r[0].clone())
            .collect())
    };
    let want: Result<Vec<Value>, StorageError> = run(1);
    for batch in [3usize, 1024] {
        assert_eq!(run(batch), want, "batch size {batch}: {expr}");
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
        assert_eq!(
            project_at_every_batch_size(&c(0).bin(op, c(1)), &rows),
            overflow
        );
        let fits = project_at_every_batch_size(&c(0).bin(op, c(1)), &rows[..1]).unwrap();
        let want = if op == BinOp::Div { i64::MIN / 2 } else { 0 };
        assert_eq!(fits, vec![Value::Int(want)]);
    }
    // Unary minus follows `+ - *`: it wraps, in every build profile.
    let negated = project_at_every_batch_size(&Expr::Neg(Box::new(c(0))), &[(i64::MIN, 0), (7, 0)]);
    assert_eq!(negated.unwrap(), vec![Value::Int(i64::MIN), Value::Int(-7)]);
}
