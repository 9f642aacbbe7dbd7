//! `parallel_bench` — the machine-readable perf trajectory of morsel-driven
//! parallel execution.
//!
//! Runs the scan → filter → aggregate pipeline over the scale corpus at
//! every (threads × batch size) point, and writes `BENCH_parallel.json` at
//! the repo root so future PRs can diff performance instead of guessing:
//!
//! ```sh
//! cargo run --release -p kath_bench --bin parallel_bench            # full: 100k rows
//! cargo run --release -p kath_bench --bin parallel_bench -- --quick # smoke: 10k rows
//! cargo run --release -p kath_bench --bin parallel_bench -- --out custom.json
//! ```
//!
//! `--quick` is the `make bench-smoke` setting: small corpus, few reps —
//! enough to prove the parallel path runs and the JSON schema is stable,
//! fast enough for CI. Speedups are relative to the 1-thread run at the
//! same batch size. The report leads with `host_parallelism`, and on a
//! single-core host speedup figures are suppressed entirely (`null` in the
//! JSON, `speedups_meaningful: false`): threads time-slicing one core
//! cannot support a parallel-speedup claim.

use kath_data::{generate_corpus, CorpusSpec};
use kath_json::{to_string_pretty, Json, JsonMap};
use kath_sql::{parse_select, run_select_auto_guarded};
use kath_storage::{host_parallelism, Catalog, CompileMode, ExecMode, QueryGuard, VectorMode};
use std::time::Instant;

const QUERY: &str = "SELECT year, COUNT(*) AS n, AVG(id) AS avg_id FROM movie_table \
                     WHERE year >= 1990 GROUP BY year ORDER BY year";

const THREAD_POINTS: [usize; 4] = [1, 2, 4, 8];
const BATCH_POINTS: [usize; 2] = [1, 1024];

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());
    let (rows, reps) = if quick { (10_000, 3) } else { (100_000, 5) };

    // State the host's parallelism up front: every speedup below is only
    // meaningful relative to it, and on a single-core host there is no
    // parallel win to claim at all.
    let hp = host_parallelism();
    eprintln!("host parallelism: {hp} core(s)");
    if hp == 1 {
        eprintln!("single-core host: speedup figures suppressed (threads time-slice one core)");
    }
    eprintln!("generating the {rows}-row scale corpus…");
    let corpus = generate_corpus(&CorpusSpec {
        movies: rows,
        ..Default::default()
    });
    let mut catalog = Catalog::new();
    catalog.register(corpus.movies).expect("corpus registers");
    let select = parse_select(QUERY).expect("bench query parses");

    let mut series = Vec::new();
    let mut baselines: Vec<(usize, f64)> = Vec::new(); // batch -> 1-thread median
    for batch in BATCH_POINTS {
        for threads in THREAD_POINTS {
            let mode = ExecMode::Batched(batch);
            let mut samples = Vec::with_capacity(reps);
            let mut check_rows = 0usize;
            for _ in 0..reps {
                let started = Instant::now();
                // One thread is the serial operator tree; more pick the
                // morsel drive.
                let table = run_select_auto_guarded(
                    &catalog,
                    &select,
                    "out",
                    mode,
                    threads,
                    VectorMode::Auto,
                    CompileMode::Off,
                    &QueryGuard::unlimited(),
                )
                .expect("bench query runs")
                .0;
                samples.push(started.elapsed().as_secs_f64() * 1000.0);
                check_rows = table.len();
            }
            let median_ms = median(samples);
            if threads == 1 {
                baselines.push((batch, median_ms));
            }
            let baseline = baselines
                .iter()
                .find(|(b, _)| *b == batch)
                .map(|(_, ms)| *ms)
                .unwrap_or(median_ms);
            // A speedup is only a claim when the host can actually run
            // workers concurrently; with one core the ratio is noise.
            let speedup = if hp > 1 && median_ms > 0.0 {
                Some(baseline / median_ms)
            } else {
                None
            };
            match speedup {
                Some(s) => eprintln!(
                    "threads {threads} × batch {batch:>4}: median {median_ms:8.2} ms \
                     (speedup {s:4.2}x, {check_rows} result rows)"
                ),
                None => eprintln!(
                    "threads {threads} × batch {batch:>4}: median {median_ms:8.2} ms \
                     ({check_rows} result rows)"
                ),
            }
            let mut point = JsonMap::new();
            point.insert("threads", Json::Num(threads as f64));
            point.insert("batch", Json::Num(batch as f64));
            point.insert("median_ms", Json::Num(median_ms));
            point.insert("speedup", speedup.map(Json::Num).unwrap_or(Json::Null));
            series.push(Json::Object(point));
        }
    }

    let mut report = JsonMap::new();
    report.insert("bench", Json::Str("parallel_scan_filter_aggregate".into()));
    report.insert("query", Json::Str(QUERY.into()));
    report.insert("corpus_rows", Json::Num(rows as f64));
    report.insert("reps", Json::Num(reps as f64));
    report.insert("quick", Json::Bool(quick));
    report.insert("host_parallelism", Json::Num(hp as f64));
    report.insert("speedups_meaningful", Json::Bool(hp > 1));
    report.insert("series", Json::Array(series));
    let rendered = to_string_pretty(&Json::Object(report));
    std::fs::write(&out_path, rendered + "\n").expect("report writes");
    eprintln!("wrote {out_path}");
}
