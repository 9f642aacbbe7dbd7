//! `compiled_bench` — the machine-readable perf trajectory of compiled
//! query pipelines.
//!
//! Runs the selective scan → filter → project query at every (rows ×
//! selectivity × backing) point, once through the interpreted batched
//! operators and once through the fused compiled pipeline, and writes
//! `BENCH_compiled.json` at the repo root so future PRs can diff
//! performance instead of guessing:
//!
//! ```sh
//! cargo run --release -p kath_bench --bin compiled_bench            # full: 100k + 1M rows
//! cargo run --release -p kath_bench --bin compiled_bench -- --quick # smoke: 10k + 50k rows
//! cargo run --release -p kath_bench --bin compiled_bench -- --out custom.json
//! ```
//!
//! `--quick` is the `make bench-smoke` setting: small tables, few reps —
//! enough to prove the compiled path runs and the JSON schema is stable,
//! fast enough for CI. Each sample asserts result parity (compiled rows ==
//! interpreted rows) before timing is trusted. The `paged` backing runs
//! the same queries over page-encoded columns where zone maps prune
//! non-matching page ranges for both drives; `resident` runs without
//! pruning. Both drives run serially so the ratio isolates compilation —
//! the `speedup` field is interpreted-median over compiled-median.

use kath_json::{to_string_pretty, Json, JsonMap};
use kath_sql::{parse_select, run_select_auto_guarded};
use kath_storage::{
    host_parallelism, Catalog, CompileMode, DataType, ExecMode, QueryGuard, Schema, Table, Value,
    VectorMode, DEFAULT_PAGE_ROWS,
};
use std::time::Instant;

const SELECTIVITIES: [f64; 3] = [0.01, 0.5, 0.99];

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The movie-shaped bench table, synthesized directly (the full corpus
/// generator also builds 2 media objects per row — dead weight at 1M rows).
fn bench_table(rows: usize) -> Table {
    let schema = Schema::of(&[
        ("id", DataType::Int),
        ("title", DataType::Str),
        ("year", DataType::Int),
        ("did", DataType::Int),
        ("vid", DataType::Int),
    ]);
    let mut t = Table::new("movie_table", schema);
    for i in 0..rows {
        let id = i as i64 + 1;
        t.push(vec![
            Value::Int(id),
            Value::Str(format!("Movie {id}")),
            Value::Int(1960 + id % 65),
            Value::Int(id),
            Value::Int(id),
        ])
        .expect("typed row");
    }
    t
}

fn run_once(
    catalog: &Catalog,
    select: &kath_sql::Select,
    compile: CompileMode,
) -> (Table, bool, f64) {
    let started = Instant::now();
    let (table, stats) = run_select_auto_guarded(
        catalog,
        select,
        "out",
        ExecMode::Batched(1024),
        1,
        VectorMode::Off,
        compile,
        &QueryGuard::unlimited(),
    )
    .expect("bench query runs");
    let ms = started.elapsed().as_secs_f64() * 1000.0;
    (table, stats.compiled, ms)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_compiled.json".to_string());
    let (row_points, reps): (&[usize], usize) = if quick {
        (&[10_000, 50_000], 3)
    } else {
        (&[100_000, 1_000_000], 5)
    };

    let hp = host_parallelism();
    eprintln!("host parallelism: {hp} core(s)");

    let mut series = Vec::new();
    for &rows in row_points {
        eprintln!("synthesizing the {rows}-row table…");
        let table = bench_table(rows);
        let mut resident = Catalog::new();
        resident.register(table.clone()).expect("fresh catalog");
        let mut paged_catalog = Catalog::new();
        let pool = std::sync::Arc::clone(paged_catalog.pool());
        paged_catalog
            .register(table.seal(&pool, DEFAULT_PAGE_ROWS).expect("pages encode"))
            .expect("fresh catalog");

        for sel in SELECTIVITIES {
            let k = ((rows as f64) * sel).round() as i64;
            let query =
                format!("SELECT id, year, id + year AS score FROM movie_table WHERE id <= {k}");
            let select = parse_select(&query).expect("bench query parses");
            for (backing, catalog, pruning) in [
                ("resident", &resident, false),
                ("paged", &paged_catalog, true),
            ] {
                let mut interp_samples = Vec::with_capacity(reps);
                let mut compiled_samples = Vec::with_capacity(reps);
                let mut result_rows = 0usize;
                for _ in 0..reps {
                    let (want, was_compiled_off, ims) =
                        run_once(catalog, &select, CompileMode::Off);
                    let (got, was_compiled_on, cms) = run_once(catalog, &select, CompileMode::On);
                    // Parity gates every sample: a fast wrong answer is not
                    // a benchmark result.
                    assert!(!was_compiled_off, "Off must stay interpreted");
                    assert!(was_compiled_on, "On must engage the compiled drive");
                    assert_eq!(
                        want, got,
                        "compiled != interpreted at {rows} rows, sel {sel}"
                    );
                    result_rows = want.len();
                    interp_samples.push(ims);
                    compiled_samples.push(cms);
                }
                let interp_ms = median(interp_samples);
                let compiled_ms = median(compiled_samples);
                let speedup = if compiled_ms > 0.0 {
                    interp_ms / compiled_ms
                } else {
                    0.0
                };
                eprintln!(
                    "rows {rows:>7} × sel {sel:4.2} × {backing:<8}: interpreted {interp_ms:8.2} ms, \
                     compiled {compiled_ms:8.2} ms ({speedup:4.2}x, {result_rows} result rows)"
                );
                let mut point = JsonMap::new();
                point.insert("rows", Json::Num(rows as f64));
                point.insert("selectivity", Json::Num(sel));
                point.insert("backing", Json::Str(backing.into()));
                point.insert("pruning", Json::Bool(pruning));
                point.insert("interpreted_ms", Json::Num(interp_ms));
                point.insert("compiled_ms", Json::Num(compiled_ms));
                point.insert("speedup", Json::Num(speedup));
                point.insert("result_rows", Json::Num(result_rows as f64));
                series.push(Json::Object(point));
            }
        }
    }

    let mut report = JsonMap::new();
    report.insert("bench", Json::Str("compiled_scan_filter_project".into()));
    report.insert(
        "query",
        Json::Str("SELECT id, year, id + year AS score FROM movie_table WHERE id <= <k>".into()),
    );
    report.insert("reps", Json::Num(reps as f64));
    report.insert("quick", Json::Bool(quick));
    report.insert("host_parallelism", Json::Num(hp as f64));
    report.insert("series", Json::Array(series));
    let rendered = to_string_pretty(&Json::Object(report));
    std::fs::write(&out_path, rendered + "\n").expect("report writes");
    eprintln!("wrote {out_path}");
}
