//! `storage_bench` — the machine-readable perf trajectory of out-of-core
//! paged columnar storage.
//!
//! Three questions, answered in `BENCH_storage.json` at the repo root:
//!
//! 1. **Scan cost** — the scan → filter → aggregate pipeline over the scale
//!    corpus, resident vs paged behind buffer pools of several budgets
//!    (results are asserted identical; only wall-clock and pool counters
//!    differ).
//! 2. **Checkpoint incrementality** — bytes written by a first (full)
//!    checkpoint vs a second one after appending a single row: the second
//!    must rewrite only each column's tail page.
//! 3. **Compression** — per column: the encoding the codec picked, encoded
//!    bytes vs the approximate in-memory footprint.
//!
//! ```sh
//! cargo run --release -p kath_bench --bin storage_bench            # full: 100k rows
//! cargo run --release -p kath_bench --bin storage_bench -- --quick # smoke: 10k rows
//! cargo run --release -p kath_bench --bin storage_bench -- --out custom.json
//! ```

use kath_bench::{median, write_report, BenchArgs};
use kath_data::{generate_corpus, CorpusSpec};
use kath_json::{Json, JsonMap};
use kath_sql::{parse_select, run_select_auto_guarded};
use kath_storage::{
    encode_page, page_encoding_name, BufferPool, Catalog, CompileMode, Durability, ExecMode,
    QueryGuard, Table, Value, VectorMode,
};
use std::sync::Arc;
use std::time::Instant;

const QUERY: &str = "SELECT year, COUNT(*) AS n, AVG(id) AS avg_id FROM movie_table \
                     WHERE year >= 1990 GROUP BY year ORDER BY year";

/// Rows per page for the bench: small enough that even `--quick` spans
/// dozens of pages per column, so tiny pool budgets actually evict.
const BENCH_PAGE_ROWS: usize = 1024;

/// Pool budgets to sweep, in pages: starved, modest, effectively unbounded.
const POOL_POINTS: [usize; 3] = [2, 16, 1_000_000];

/// Approximate in-memory bytes of one value — the honest denominator for a
/// compression ratio (the encoded page is the numerator).
fn approx_value_bytes(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Bool(_) => 1,
        Value::Str(s) => 8 + s.len(),
        Value::Blob(b) => 8 + b.len(),
    }
}

/// Runs the bench query `reps` times; returns (median ms, result table).
fn time_query(catalog: &Catalog, reps: usize) -> (f64, Table) {
    let select = parse_select(QUERY).expect("bench query parses");
    let mut samples = Vec::with_capacity(reps);
    let mut result = None;
    for _ in 0..reps {
        let started = Instant::now();
        // Serial and interpreted: the series compares page backings, not
        // drives.
        let table = run_select_auto_guarded(
            catalog,
            &select,
            "out",
            ExecMode::Batched(1024),
            1,
            VectorMode::Auto,
            CompileMode::Off,
            &QueryGuard::unlimited(),
        )
        .expect("bench query runs")
        .0;
        samples.push(started.elapsed().as_secs_f64() * 1000.0);
        result = Some(table);
    }
    (median(samples), result.expect("at least one rep"))
}

fn main() {
    let BenchArgs { quick, out } = BenchArgs::parse("BENCH_storage.json");
    let (rows, reps) = if quick { (10_000, 3) } else { (100_000, 5) };

    eprintln!("generating the {rows}-row scale corpus…");
    let corpus = generate_corpus(&CorpusSpec {
        movies: rows,
        ..Default::default()
    });
    let movies = corpus.movies;

    // 1. Scan: resident baseline, then paged behind each pool budget.
    let mut catalog = Catalog::new();
    catalog.register(movies.clone()).expect("corpus registers");
    let (resident_ms, resident_result) = time_query(&catalog, reps);
    eprintln!("scan resident:              median {resident_ms:8.2} ms");
    let mut scan_series = Vec::new();
    let mut point = JsonMap::new();
    point.insert("config", Json::Str("resident".into()));
    point.insert("median_ms", Json::Num(resident_ms));
    scan_series.push(Json::Object(point));
    for budget in POOL_POINTS {
        let mut catalog = Catalog::new();
        catalog.register(movies.clone()).expect("corpus registers");
        catalog.set_pool_budget(budget);
        catalog
            .page_table("movie_table", BENCH_PAGE_ROWS)
            .expect("table pages");
        let (ms, result) = time_query(&catalog, reps);
        assert_eq!(
            result.rows(),
            resident_result.rows(),
            "paged scan diverged from resident at a {budget}-page pool"
        );
        let p = catalog.pool().status();
        eprintln!(
            "scan paged (pool {budget:>7}): median {ms:8.2} ms \
             ({} hits, {} misses, {} evictions, {} zone skips)",
            p.hits, p.misses, p.evictions, p.zone_skips
        );
        let mut point = JsonMap::new();
        point.insert("config", Json::Str(format!("paged_pool_{budget}")));
        point.insert("pool_pages", Json::Num(budget as f64));
        point.insert("median_ms", Json::Num(ms));
        point.insert("hits", Json::Num(p.hits as f64));
        point.insert("misses", Json::Num(p.misses as f64));
        point.insert("evictions", Json::Num(p.evictions as f64));
        point.insert("zone_skips", Json::Num(p.zone_skips as f64));
        scan_series.push(Json::Object(point));
    }

    // 2. Checkpoint incrementality: full snapshot, append one row, snapshot
    // again — the second writes only each column's tail page.
    let dir = std::env::temp_dir().join(format!("kathdb_storage_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pool = Arc::new(BufferPool::with_budget(1_000_000));
    let (mut durable, _) = Durability::open(&dir, &pool).expect("bench dir opens");
    let (_, paged) = durable
        .checkpoint(&[Arc::new(movies.clone())], &pool, None)
        .expect("first checkpoint");
    let first = durable.status().last_checkpoint.expect("stats recorded");
    let mut appended = (*paged[0]).clone();
    let one_more: Vec<Value> = movies.rows()[0]
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if i == 0 {
                Value::Int(rows as i64)
            } else {
                v.clone()
            }
        })
        .collect();
    appended.push(one_more).expect("append fits schema");
    durable
        .checkpoint(&[Arc::new(appended)], &pool, None)
        .expect("second checkpoint");
    let second = durable.status().last_checkpoint.expect("stats recorded");
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        second.bytes_written < first.bytes_written,
        "second checkpoint was not incremental: {second:?} vs {first:?}"
    );
    eprintln!(
        "checkpoint: first wrote {} bytes ({} pages), second wrote {} bytes \
         ({} pages, {} reused)",
        first.bytes_written,
        first.pages_written,
        second.bytes_written,
        second.pages_written,
        second.pages_reused
    );
    let mut checkpoint = JsonMap::new();
    checkpoint.insert("first_bytes", Json::Num(first.bytes_written as f64));
    checkpoint.insert("first_pages", Json::Num(first.pages_written as f64));
    checkpoint.insert("second_bytes", Json::Num(second.bytes_written as f64));
    checkpoint.insert("second_pages", Json::Num(second.pages_written as f64));
    checkpoint.insert("second_reused", Json::Num(second.pages_reused as f64));

    // 3. Compression: encode each column page by page, report the winning
    // encoding and encoded-vs-in-memory ratio.
    let mut encodings = Vec::new();
    for column in movies.schema().names() {
        let values: Vec<Value> = movies
            .column_values(column)
            .expect("listed column")
            .into_iter()
            .cloned()
            .collect();
        let mut encoded_bytes = 0usize;
        let raw_bytes: usize = values.iter().map(approx_value_bytes).sum();
        let mut names: Vec<&'static str> = Vec::new();
        for chunk in values.chunks(BENCH_PAGE_ROWS) {
            let (bytes, _) = encode_page(chunk).expect("column encodes");
            encoded_bytes += bytes.len();
            let name = page_encoding_name(&bytes).expect("own page parses");
            if !names.contains(&name) {
                names.push(name);
            }
        }
        let ratio = if raw_bytes > 0 {
            encoded_bytes as f64 / raw_bytes as f64
        } else {
            1.0
        };
        eprintln!(
            "column {column:>6}: {names:?} — {encoded_bytes} of ~{raw_bytes} bytes \
             (ratio {ratio:.3})"
        );
        let mut entry = JsonMap::new();
        entry.insert("column", Json::Str(column.to_string()));
        entry.insert(
            "encodings",
            Json::Array(names.into_iter().map(|n| Json::Str(n.into())).collect()),
        );
        entry.insert("encoded_bytes", Json::Num(encoded_bytes as f64));
        entry.insert("approx_raw_bytes", Json::Num(raw_bytes as f64));
        entry.insert("ratio", Json::Num(ratio));
        encodings.push(Json::Object(entry));
    }

    let mut report = JsonMap::new();
    report.insert("query", Json::Str(QUERY.into()));
    report.insert("corpus_rows", Json::Num(rows as f64));
    report.insert("page_rows", Json::Num(BENCH_PAGE_ROWS as f64));
    report.insert("scan", Json::Array(scan_series));
    report.insert("checkpoint", Json::Object(checkpoint));
    report.insert("encodings", Json::Array(encodings));
    write_report(&out, "paged_columnar_storage", quick, reps, report);
}
