//! `parallel_bench` — the machine-readable perf trajectory of morsel-driven
//! parallel execution.
//!
//! Runs the scan → filter → aggregate pipeline over the scale corpus at
//! every (threads × batch size) point, then the fan-out of a semantic node
//! (`semantic_series`: `gen_excitement_score`, a `ConceptScore` body through
//! `execute_body`, over the 1 000-plot generated corpus at each thread
//! count, beside 1 000 one-shot `SimLlm::concept_score` calls — the loop
//! the node's prepare phase replaced), then the first question of a fresh
//! handle (`first_question_ms`: the flagship question on the repo
//! benchmark's `nl_flagship` corpus at one and two pinned threads — query
//! wall, its model calls and lineage rows, per-node and stamp-phase
//! milliseconds, `compile` on a first and on a follow-up question), and
//! writes
//! `BENCH_parallel.json` at the repo root so future PRs can diff
//! performance instead of guessing:
//!
//! ```sh
//! cargo run --release -p kath_bench --bin parallel_bench            # full: 100k rows
//! cargo run --release -p kath_bench --bin parallel_bench -- --quick # smoke: 10k rows, into target/bench-smoke/
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

use kath_bench::{median, write_report, BenchArgs};
use kath_data::{generate_corpus, CorpusSpec, MmqaCorpus};
use kath_exec::{execute_body, ExecContext, ExecutionEngine, NodeTiming};
use kath_fao::{FunctionBody, FunctionRegistry};
use kath_json::{Json, JsonMap};
use kath_model::{ScriptedChannel, SimLlm, TokenMeter};
use kath_optimizer::{compile, CompileOptions};
use kath_parser::{generate_logical_plan, NlParser};
use kath_sql::{parse_select, run_select_auto_guarded};
use kath_storage::{
    host_parallelism, Catalog, CompileMode, DataType, ExecMode, QueryGuard, Schema, Table, Value,
    VectorMode,
};
use kathdb::KathDB;
use std::time::Instant;

const QUERY: &str = "SELECT year, COUNT(*) AS n, AVG(id) AS avg_id FROM movie_table \
                     WHERE year >= 1990 GROUP BY year ORDER BY year";

const THREAD_POINTS: [usize; 4] = [1, 2, 4, 8];
const BATCH_POINTS: [usize; 2] = [1, 1024];

/// The semantic series' corpus: the repo benchmark's `nl_flagship` size.
const SEMANTIC_ROWS: usize = 1000;
const CLARIFICATION: &str = "The movie plot contains scenes that are uncommon in real life";

/// A speedup is only a claim when the host can actually run workers
/// concurrently; with one core the ratio is noise.
fn speedup(baseline_ms: f64, median_ms: f64) -> Json {
    if host_parallelism() > 1 && median_ms > 0.0 {
        Json::Num(baseline_ms / median_ms)
    } else {
        Json::Null
    }
}

/// The fan-out of one semantic node: `gen_excitement_score` over the plots
/// of `corpus` at every thread point. Thread points alternate within a rep,
/// so a slow stretch of the host lands on all of them.
fn semantic_series(corpus: &MmqaCorpus, reps: usize) -> Json {
    let llm = SimLlm::new(42, TokenMeter::new());
    let keywords = llm.generate_keywords(CLARIFICATION);
    let rows = corpus
        .documents
        .iter()
        .enumerate()
        .map(|(i, d)| vec![Value::Int(i as i64), Value::Str(d.text.clone())])
        .collect();
    let schema = Schema::of(&[("id", DataType::Int), ("chars", DataType::Str)]);
    let plots = Table::from_rows("plots", schema, rows).expect("plots table builds");
    let body = FunctionBody::ConceptScore {
        input: "plots".into(),
        text_column: "chars".into(),
        keywords: keywords.clone(),
        output_column: "excitement_score".into(),
    };

    let mut one_shot_ms = Vec::with_capacity(reps);
    let mut node_ms = vec![Vec::with_capacity(reps); THREAD_POINTS.len()];
    let mut workers = [0usize; THREAD_POINTS.len()];
    for _ in 0..reps {
        let started = Instant::now();
        let mut sum = 0.0;
        for d in &corpus.documents {
            sum += llm.concept_score(&d.text, &keywords);
        }
        std::hint::black_box(sum);
        one_shot_ms.push(started.elapsed().as_secs_f64() * 1000.0);

        for (point, threads) in THREAD_POINTS.into_iter().enumerate() {
            let mut ctx = ExecContext::new(llm.clone());
            ctx.ingest_table(plots.clone(), "bench://plots")
                .expect("plots ingest");
            ctx.threads = threads;
            let started = Instant::now();
            let outcome = execute_body(&mut ctx, "gen_excitement_score", 1, &body, "scored")
                .expect("semantic node runs");
            node_ms[point].push(started.elapsed().as_secs_f64() * 1000.0);
            assert_eq!(outcome.table.len(), corpus.documents.len());
            workers[point] = outcome.workers;
        }
    }

    let one_shot_ms = median(one_shot_ms);
    eprintln!(
        "{} one-shot concept_score calls: median {one_shot_ms:8.2} ms",
        corpus.documents.len()
    );
    let medians: Vec<f64> = node_ms.into_iter().map(median).collect();
    let mut series = Vec::new();
    for (point, threads) in THREAD_POINTS.into_iter().enumerate() {
        let median_ms = medians[point];
        eprintln!(
            "gen_excitement_score, threads {threads} ({} worker(s)): median {median_ms:8.2} ms",
            workers[point]
        );
        let mut entry = JsonMap::new();
        entry.insert("threads", Json::Num(threads as f64));
        entry.insert("workers", Json::Num(workers[point] as f64));
        entry.insert("median_ms", Json::Num(median_ms));
        entry.insert(
            "ms_per_row",
            Json::Num(median_ms / corpus.documents.len().max(1) as f64),
        );
        entry.insert("speedup", speedup(medians[0], median_ms));
        series.push(Json::Object(entry));
    }
    let mut report = JsonMap::new();
    report.insert("node", Json::Str("gen_excitement_score".into()));
    report.insert("body", Json::Str("ConceptScore via execute_body".into()));
    report.insert("rows", Json::Num(corpus.documents.len() as f64));
    report.insert("keywords", Json::Num(keywords.len() as f64));
    report.insert("reps", Json::Num(reps as f64));
    report.insert("one_shot_concept_score_ms", Json::Num(one_shot_ms));
    report.insert("series", Json::Array(series));
    Json::Object(report)
}

/// Milliseconds `f` took, and what it returned.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64() * 1000.0, out)
}

/// `compile` of the flagship plan on a staged context over `corpus`: once
/// on a fresh registry (a first question) and once after the plan ran (a
/// follow-up, which installs the first one's compile records). Returns both
/// in milliseconds and both ones' model calls.
fn compile_first_and_followup(corpus: &MmqaCorpus) -> (f64, f64, u64, u64) {
    let llm = SimLlm::new(42, TokenMeter::new());
    let mut ctx = ExecContext::new(llm.clone());
    ctx.ingest_table(corpus.movies.clone(), "file://data/movie_table")
        .expect("corpus loads");
    for d in &corpus.documents {
        ctx.media.add_document(d.clone());
    }
    for i in &corpus.images {
        ctx.media.add_image(i.clone());
    }
    let channel = ScriptedChannel::new([CLARIFICATION, "OK"]);
    let parse = NlParser::new(llm.clone()).parse(kath_bench::FLAGSHIP_QUERY, channel.as_ref());
    let logical = generate_logical_plan(&parse.sketch, "movie_table");
    let mut registry = FunctionRegistry::new();
    let options = CompileOptions::default();
    let clarifications = &parse.clarifications;

    let calls = llm.meter().usage().calls;
    let (first_ms, report) =
        timed(|| compile(&logical, &ctx, &mut registry, clarifications, &options));
    let calls = llm.meter().usage().calls - calls;
    let plan = report.expect("plan compiles").physical;
    ExecutionEngine::new()
        .run(&mut ctx, &mut registry, &plan, channel.as_ref())
        .expect("plan runs");
    let followup_calls = llm.meter().usage().calls;
    let (followup_ms, report) =
        timed(|| compile(&logical, &ctx, &mut registry, clarifications, &options));
    let followup_calls = llm.meter().usage().calls - followup_calls;
    assert_eq!(report.expect("plan compiles again").physical, plan);
    (first_ms, followup_ms, calls, followup_calls)
}

/// One first question: its wall, its node timings, the model calls it made
/// and the lineage rows it wrote.
struct FirstQuestion {
    ms: f64,
    timings: Vec<NodeTiming>,
    model_calls: u64,
    lineage_rows: usize,
}

/// The first question of a fresh handle — the op that is `nl_flagship`'s
/// `op_p90_ms`: variant 0 of the repo benchmark (the flagship question, the
/// clarification, "OK") on its corpus, at one and two pinned threads, which
/// alternate within a rep. `compile` is timed apart, on a staged context.
/// Beside the times, each point reports the question's model calls and
/// lineage rows (the same in every rep).
fn first_question_series(corpus: &MmqaCorpus, reps: usize) -> Json {
    const THREADS: [usize; 2] = [1, 2];
    let mut runs: [Vec<FirstQuestion>; 2] = Default::default();
    let mut compiles = Vec::with_capacity(reps);
    for _ in 0..reps {
        for (point, threads) in runs.iter_mut().zip(THREADS) {
            let mut db = KathDB::new(42);
            db.load_corpus(corpus).expect("corpus loads");
            db.set_parallelism(threads);
            let (calls, lineage) = (db.token_usage().calls, db.context().lineage.len());
            let channel = ScriptedChannel::new([CLARIFICATION, "OK"]);
            let (ms, result) = timed(|| db.query(kath_bench::FLAGSHIP_QUERY, channel.as_ref()));
            point.push(FirstQuestion {
                ms,
                timings: result.expect("first question is answered").exec.timings,
                model_calls: db.token_usage().calls - calls,
                lineage_rows: db.context().lineage.len() - lineage,
            });
        }
        compiles.push(compile_first_and_followup(corpus));
    }

    let mut series = Vec::new();
    for (point, threads) in runs.iter().zip(THREADS) {
        let query_ms = median(point.iter().map(|q| q.ms).collect());
        let (model_calls, lineage_rows) = (point[0].model_calls, point[0].lineage_rows);
        eprintln!(
            "first question, threads {threads}: median {query_ms:8.2} ms \
             ({model_calls} model calls, {lineage_rows} lineage rows)"
        );
        let (mut nodes, mut stamp_ms_sum) = (JsonMap::new(), 0.0);
        for (i, node) in point[0].timings.iter().enumerate() {
            let over_reps = |f: fn(&NodeTiming) -> f64| {
                median(point.iter().map(|q| f(&q.timings[i])).collect())
            };
            let (ms, stamp_ms) = (over_reps(|t| t.elapsed_ms), over_reps(|t| t.merge_ms));
            let (func_id, workers) = (&node.func_id, node.workers);
            eprintln!(
                "  {func_id:24} {ms:7.2} ms (stamp/merge {stamp_ms:5.2} ms, {workers} worker(s))"
            );
            stamp_ms_sum += stamp_ms;
            let entry = [
                ("ms", Json::Num(ms)),
                ("stamp_ms", Json::Num(stamp_ms)),
                ("workers", Json::Num(workers as f64)),
            ];
            nodes.insert(func_id, Json::object(entry));
        }
        series.push(Json::object([
            ("threads", Json::Num(threads as f64)),
            ("query_ms", Json::Num(query_ms)),
            ("model_calls", Json::Num(model_calls as f64)),
            ("lineage_rows", Json::Num(lineage_rows as f64)),
            ("stamp_ms_sum", Json::Num(stamp_ms_sum)),
            ("nodes", Json::Object(nodes)),
        ]));
    }
    let first = median(compiles.iter().map(|c| c.0).collect());
    let followup = median(compiles.iter().map(|c| c.1).collect());
    let (calls, followup_calls) = compiles.last().map_or((0, 0), |c| (c.2, c.3));
    eprintln!(
        "compile: first question {first:.2} ms ({calls} model calls), \
         follow-up {followup:.2} ms ({followup_calls} model calls)"
    );
    Json::object([
        ("question", Json::str("nl_flagship variant 0, fresh handle")),
        ("movies", Json::Num(corpus.documents.len() as f64)),
        ("reps", Json::Num(reps as f64)),
        ("compile_first_ms", Json::Num(first)),
        ("compile_first_model_calls", Json::Num(calls as f64)),
        ("compile_followup_ms", Json::Num(followup)),
        (
            "compile_followup_model_calls",
            Json::Num(followup_calls as f64),
        ),
        ("series", Json::Array(series)),
    ])
}

fn main() {
    let BenchArgs { quick, out } = BenchArgs::parse("BENCH_parallel.json");
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
                // One drive: one thread runs it on the caller, more split
                // it in morsels.
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
            let speedup = speedup(baseline, median_ms);
            match speedup {
                Json::Num(s) => eprintln!(
                    "threads {threads} × batch {batch:>4}: median {median_ms:8.2} ms \
                     (speedup {s:4.2}x, {check_rows} result rows)"
                ),
                _ => eprintln!(
                    "threads {threads} × batch {batch:>4}: median {median_ms:8.2} ms \
                     ({check_rows} result rows)"
                ),
            }
            let mut point = JsonMap::new();
            point.insert("threads", Json::Num(threads as f64));
            point.insert("batch", Json::Num(batch as f64));
            point.insert("median_ms", Json::Num(median_ms));
            point.insert("speedup", speedup);
            series.push(Json::Object(point));
        }
    }

    eprintln!("generating the {SEMANTIC_ROWS}-plot corpus for the semantic series…");
    let semantic = semantic_series(
        &generate_corpus(&CorpusSpec {
            movies: SEMANTIC_ROWS,
            ..Default::default()
        }),
        if quick { 3 } else { 25 },
    );

    eprintln!("generating the nl_flagship corpus for the first-question series…");
    let first_question = first_question_series(
        &generate_corpus(&CorpusSpec {
            movies: if quick { 60 } else { SEMANTIC_ROWS },
            heic_fraction: 0.02,
            seed: 1,
            ..Default::default()
        }),
        if quick { 3 } else { 25 },
    );

    let mut report = JsonMap::new();
    report.insert("query", Json::Str(QUERY.into()));
    report.insert("corpus_rows", Json::Num(rows as f64));
    report.insert("host_parallelism", Json::Num(hp as f64));
    report.insert("speedups_meaningful", Json::Bool(hp > 1));
    report.insert("series", Json::Array(series));
    report.insert("semantic_series", semantic);
    report.insert("first_question_ms", first_question);
    write_report(&out, "parallel_scan_filter_aggregate", quick, reps, report);
}
