//! The storage kernels a SELECT stands on, each timed directly through its
//! public function on the workload's own rows: nanoseconds per row or per
//! value, best of a few repeats after one warm-up.

use crate::report::Report;
use crate::sql::Inputs;
use kath_storage::{
    decode_page, encode_page, merge_sorted_runs, page_encoding_name, sort_rows, AggFunc, Aggregate,
    BinOp, Expr, HashAggregate, HashJoin, JoinBuild, JoinKind, Operator, Row, RowBatch, TableScan,
    Value, DEFAULT_PAGE_ROWS,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const REPEATS: usize = 3;
/// Pages of each column the codec kernels encode and decode.
const PAGES_PER_COLUMN: usize = 8;

/// Best-of-`REPEATS` nanoseconds of `f` on a fresh, untimed `input()`,
/// after one warm-up call.
fn best_ns_on<I, T>(mut input: impl FnMut() -> I, mut f: impl FnMut(I) -> T) -> f64 {
    (0..=REPEATS)
        .map(|_| {
            let arg = input();
            let started = Instant::now();
            let out = f(arg);
            let ns = started.elapsed().as_nanos() as f64;
            black_box(out);
            ns
        })
        .skip(1)
        .fold(f64::INFINITY, f64::min)
}

fn best_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    best_ns_on(|| (), |()| f())
}

fn drain(op: &mut dyn Operator) -> usize {
    let mut rows = 0;
    while let Some(batch) = op.next_batch().expect("kernel input is well-formed") {
        rows += batch.num_rows();
    }
    rows
}

/// Scan, expression, hash-join, aggregation, sort and merge kernels over
/// the resident fact table.
pub fn exec_kernels(report: &mut Report, inputs: &Inputs) {
    let movies = Arc::new(inputs.movies.clone());
    let posters = Arc::new(inputs.posters.clone());
    let rows = movies.len();
    let per_row = |ns: f64| ns / rows as f64;

    // Row-to-column transposition: what a resident scan pays per batch.
    let scan_ns = best_ns(|| drain(&mut TableScan::new(movies.clone())));
    report.push("storage.scan.resident_ns_per_row", per_row(scan_ns), rows);

    let mut batches: Vec<RowBatch> = Vec::new();
    let mut scan = TableScan::new(movies.clone());
    while let Some(batch) = scan.next_batch().expect("resident scan") {
        batches.push(batch);
    }
    let schema = movies.schema();
    let eval_all = |expr: &Expr| {
        best_ns(|| {
            for batch in &batches {
                black_box(expr.eval_batch(batch, schema).expect("kernel expression"));
            }
        })
    };
    let int_cmp = Expr::col("year").bin(BinOp::Ge, Expr::lit(1993i64));
    report.push(
        "storage.expr.int_cmp_ns_per_row",
        per_row(eval_all(&int_cmp)),
        rows,
    );
    let arith = Expr::col("year")
        .bin(BinOp::Sub, Expr::lit(1960i64))
        .bin(BinOp::Add, Expr::col("id").bin(BinOp::Mul, Expr::lit(2i64)));
    report.push(
        "storage.expr.arith_ns_per_row",
        per_row(eval_all(&arith)),
        rows,
    );

    let build =
        || JoinBuild::build(Box::new(TableScan::new(posters.clone())), "vid").expect("join build");
    report.push(
        "storage.hash.build_ns_per_row",
        best_ns(build) / posters.len() as f64,
        posters.len(),
    );
    let built = Arc::new(build());
    let probe_ns = best_ns(|| {
        let scan = Box::new(TableScan::new(movies.clone()));
        let mut join =
            HashJoin::from_build(scan, built.clone(), "vid", JoinKind::Inner).expect("join probe");
        drain(&mut join)
    });
    report.push("storage.hash.probe_ns_per_row", per_row(probe_ns), rows);

    let agg_ns = best_ns(|| {
        let aggregates = vec![
            Aggregate {
                func: AggFunc::CountStar,
                column: None,
                output: "n".into(),
            },
            Aggregate {
                func: AggFunc::Avg,
                column: Some("vid".into()),
                output: "r".into(),
            },
        ];
        let scan = Box::new(TableScan::new(movies.clone()));
        let mut agg = HashAggregate::new(scan, vec!["year".into()], aggregates).expect("aggregate");
        let mut groups = 0;
        while agg.next().expect("aggregate output").is_some() {
            groups += 1;
        }
        groups
    });
    report.push("storage.agg.ns_per_row", per_row(agg_ns), rows);

    // ORDER BY year DESC, id — then the same order merged from four runs.
    let keys = [(2usize, true), (0usize, false)];
    let sort_ns = best_ns_on(
        || movies.rows().to_vec(),
        |mut unsorted: Vec<Row>| {
            sort_rows(&mut unsorted, &keys);
            unsorted
        },
    );
    report.push("storage.sort.ns_per_row", per_row(sort_ns), rows);
    let runs: Vec<Vec<Row>> = movies
        .rows()
        .chunks(rows.div_ceil(4))
        .map(|chunk| {
            let mut run = chunk.to_vec();
            sort_rows(&mut run, &keys);
            run
        })
        .collect();
    let merge_ns = best_ns_on(|| runs.clone(), |runs| merge_sorted_runs(runs, &keys));
    report.push("storage.merge.ns_per_row", per_row(merge_ns), rows);
}

/// Page encode and decode, per value, on the first pages of every column of
/// the fact table; decode is reported per encoding the codec chose.
pub fn page_kernels(report: &mut Report, inputs: &Inputs) {
    let movies = &inputs.movies;
    let (mut encode_ns, mut encoded_values) = (0.0, 0usize);
    // (metric suffix, decode ns, values)
    let mut decode: Vec<(&str, f64, usize)> = ["for_int", "dict", "rle", "float", "raw"]
        .iter()
        .map(|name| (*name, 0.0, 0))
        .collect();
    for column in 0..movies.schema().arity() {
        for page in movies
            .rows()
            .chunks(DEFAULT_PAGE_ROWS)
            .take(PAGES_PER_COLUMN)
        {
            let values: Vec<Value> = page.iter().map(|r| r[column].clone()).collect();
            encode_ns += best_ns(|| encode_page(&values).expect("page encodes"));
            encoded_values += values.len();
            let (bytes, _zone) = encode_page(&values).expect("page encodes");
            let slot = match page_encoding_name(&bytes) {
                Some("int-for") => 0,
                Some("str-dict") => 1,
                Some("str-rle") => 2,
                Some("float64") => 3,
                Some("raw") => 4,
                _ => continue,
            };
            decode[slot].1 += best_ns(|| decode_page(&bytes).expect("page decodes"));
            decode[slot].2 += values.len();
        }
    }
    report.push(
        "storage.page.encode_ns_per_value",
        encode_ns / encoded_values.max(1) as f64,
        encoded_values,
    );
    for (name, ns, values) in decode {
        report.push(
            &format!("storage.page.decode_ns_per_value.{name}"),
            ns / values.max(1) as f64,
            values,
        );
    }
}
