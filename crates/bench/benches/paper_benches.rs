//! Criterion benches for the research questions the paper raises (the
//! quantitative half of DESIGN.md §4). Each group prints the series a
//! figure/table would plot; absolute numbers are machine-local, the *shape*
//! (who wins, by what factor) is the claim under test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kath_data::{generate_corpus, CorpusSpec};
use kath_exec::{execute_body, visual_interest, ExecContext};
use kath_fao::{FunctionBody, VisionImpl};
use kath_lineage::{LineagePolicy, LineageStore};
use kath_model::{ScriptedChannel, SimLlm, TokenMeter};
use kath_optimizer::{predicate_pushdown, rewrite_plan};
use kath_parser::{extract_intent, generate_logical_plan, generate_sketch};
use kath_storage::{
    col_cmp, collect, BinOp, DataType, Expr, Filter, Operator, Project, Schema, Table, TableScan,
    DEFAULT_BATCH_SIZE,
};
use kath_vector::{seeded_unit_vector, FlatIndex, IvfIndex};
use kathdb::KathDB;
use std::sync::Arc;

fn ctx_with_films(n: usize, policy: LineagePolicy) -> ExecContext {
    let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
    ctx.lineage = LineageStore::with_policy(policy);
    let mut films = Table::new(
        "films",
        Schema::of(&[("id", DataType::Int), ("year", DataType::Int)]),
    );
    for i in 0..n as i64 {
        films.push(vec![i.into(), (1960 + i % 60).into()]).unwrap();
    }
    ctx.ingest_table(films, "bench://films").unwrap();
    ctx
}

/// RQ (§3): how much does lineage tracking cost? Off vs table-level vs
/// sampled vs full row-level, on a MapExpr over n rows.
fn bench_lineage_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("lineage_overhead");
    g.sample_size(10);
    let body = FunctionBody::MapExpr {
        input: "films".into(),
        expr: "clamp01((year - 1960) / 60.0)".into(),
        output_column: "score".into(),
    };
    for (name, policy) in [
        ("off", LineagePolicy::Off),
        ("table_only", LineagePolicy::TableOnly),
        ("sampled_10", LineagePolicy::Sampled(10)),
        ("full_row", LineagePolicy::Full),
    ] {
        g.bench_function(BenchmarkId::new("policy", name), |b| {
            b.iter_batched(
                || ctx_with_films(2000, policy),
                |mut ctx| execute_body(&mut ctx, "score", 1, &body, "scored").unwrap(),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// RQ (§4): FAO granularity — one fused map vs a chain of three maps
/// (speed vs explanation depth; the fused plan records 1/3 the lineage).
fn bench_fao_granularity(c: &mut Criterion) {
    let mut g = c.benchmark_group("fao_granularity");
    g.sample_size(10);
    g.bench_function("three_small_functions", |b| {
        b.iter_batched(
            || ctx_with_films(1000, LineagePolicy::Full),
            |mut ctx| {
                for (i, (expr, col)) in [
                    ("clamp01((year - 1960) / 60.0)", "a"),
                    ("a * 0.7", "b"),
                    ("b + 0.3", "c"),
                ]
                .iter()
                .enumerate()
                {
                    let body = FunctionBody::MapExpr {
                        input: if i == 0 {
                            "films".into()
                        } else {
                            format!("t{}", i - 1)
                        },
                        expr: expr.to_string(),
                        output_column: col.to_string(),
                    };
                    execute_body(&mut ctx, "f", 1, &body, &format!("t{i}")).unwrap();
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("one_fused_function", |b| {
        b.iter_batched(
            || ctx_with_films(1000, LineagePolicy::Full),
            |mut ctx| {
                let body = FunctionBody::MapExpr {
                    input: "films".into(),
                    expr: "clamp01((year - 1960) / 60.0) * 0.7 + 0.3".into(),
                    output_column: "c".into(),
                };
                execute_body(&mut ctx, "f", 1, &body, "t").unwrap();
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// RQ (§4): cost/accuracy of physical vision implementations. Reports token
/// cost per implementation; accuracy shape is asserted in tests.
fn bench_cascade(c: &mut Criterion) {
    let mut g = c.benchmark_group("vision_implementations");
    g.sample_size(10);
    let corpus = generate_corpus(&CorpusSpec {
        movies: 60,
        ..Default::default()
    });
    for implementation in [
        VisionImpl::VlmAccurate,
        VisionImpl::VlmCheap,
        VisionImpl::Cascade,
        VisionImpl::Ocr,
    ] {
        g.bench_function(
            BenchmarkId::new("impl", format!("{:?}", implementation)),
            |b| {
                let llm = SimLlm::new(42, TokenMeter::new());
                b.iter(|| {
                    let mut acc = 0.0;
                    for img in &corpus.images {
                        if img.format.is_supported() {
                            acc += visual_interest(img, implementation, &llm).unwrap();
                        }
                    }
                    acc
                })
            },
        );
    }
    // Print the token-cost series once (the table the paper would show).
    let corpus_small: Vec<_> = corpus
        .images
        .iter()
        .filter(|i| i.format.is_supported())
        .collect();
    println!(
        "\nvision implementation token costs over {} posters:",
        corpus_small.len()
    );
    for implementation in [
        VisionImpl::VlmAccurate,
        VisionImpl::VlmCheap,
        VisionImpl::Cascade,
        VisionImpl::Ocr,
    ] {
        let meter = TokenMeter::new();
        let llm = SimLlm::new(42, meter.clone());
        for img in &corpus_small {
            let _ = visual_interest(img, implementation, &llm);
        }
        println!("  {:?}: {} tokens", implementation, meter.usage().total());
    }
    g.finish();
}

/// RQ (execution spine): what the batch size buys on a `TableScan →
/// Filter → Project` pipeline over the 100k-row scale corpus. The claim
/// under test: per-batch dispatch and name resolution amortize, so batch
/// size 1 — one row per pull — pays them per row and loses to 64, which
/// loses to 1024.
fn bench_batch_size_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_size_sweep");
    g.sample_size(10);
    let corpus = generate_corpus(&CorpusSpec {
        movies: 100_000,
        ..Default::default()
    });
    let table = Arc::new(corpus.movies);
    let pipeline = |batch: usize| -> Box<dyn Operator> {
        let scan = Box::new(TableScan::new(Arc::clone(&table)).with_batch_size(batch));
        let filt = Box::new(Filter::new(scan, col_cmp("year", BinOp::Ge, 1990i64)));
        Box::new(
            Project::new(
                filt,
                vec![
                    ("title".into(), Expr::col("title")),
                    (
                        "age".into(),
                        Expr::lit(2026i64).bin(BinOp::Sub, Expr::col("year")),
                    ),
                ],
            )
            .expect("projection over scan schema"),
        )
    };
    for batch in [1usize, 64, DEFAULT_BATCH_SIZE] {
        g.bench_function(BenchmarkId::new("batched", batch), |b| {
            b.iter(|| collect("out", pipeline(batch)).unwrap())
        });
    }
    g.finish();
}

/// RQ (execution spine): morsel-driven parallelism vs the single-threaded
/// batched path on the scan → filter → aggregate pipeline over the
/// 100k-row scale corpus, sweeping worker count at batch size 1024. The
/// claim under test: with cores available, K workers approach a K× win
/// once per-worker startup amortizes over the morsel stream (results are
/// byte-identical to serial at every point — the parity suites prove it).
fn bench_parallel_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_pipeline");
    g.sample_size(10);
    let corpus = generate_corpus(&CorpusSpec {
        movies: 100_000,
        ..Default::default()
    });
    let mut catalog = kath_storage::Catalog::new();
    catalog.register(corpus.movies).expect("corpus registers");
    let select = kath_sql::parse_select(
        "SELECT year, COUNT(*) AS n, AVG(id) AS avg_id FROM movie_table \
         WHERE year >= 1990 GROUP BY year ORDER BY year",
    )
    .expect("bench query parses");
    let mode = kath_storage::ExecMode::Batched(DEFAULT_BATCH_SIZE);
    // One drive: one thread runs it on the caller, more split it in morsels.
    let run = |threads: usize| {
        kath_sql::run_select_auto_guarded(
            &catalog,
            &select,
            "out",
            mode,
            threads,
            kath_storage::VectorMode::Auto,
            kath_storage::CompileMode::Off,
            &kath_storage::QueryGuard::unlimited(),
        )
        .unwrap()
    };
    g.bench_function("serial_batched", |b| b.iter(|| run(1)));
    for threads in [2usize, 4, 8] {
        g.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| run(threads))
        });
    }
    g.finish();
}

/// RQ (§4): do logical rewrites pay? Pushdown + dead-node elimination vs
/// none, measured as plan-node work on the flagship logical plan.
fn bench_rewrites(c: &mut Criterion) {
    let mut g = c.benchmark_group("logical_rewrites");
    g.sample_size(20);
    let llm = SimLlm::new(42, TokenMeter::new());
    let mut intent = extract_intent(
        "Sort the given films in the table by how exciting they are, \
         but the poster should be 'boring'",
        &llm,
    );
    intent.concepts[0].clarification = Some("uncommon scenes".into());
    intent.extra_factors.push(kath_parser::ExtraFactor::Recency);
    let sketch = generate_sketch(&intent, &llm, 2);
    let plan = generate_logical_plan(&sketch, "movie_table");
    g.bench_function("pushdown", |b| b.iter(|| predicate_pushdown(plan.clone())));
    g.bench_function("full_rewrite", |b| {
        b.iter(|| rewrite_plan(plan.clone(), true, true))
    });
    g.finish();
}

/// Substrate: flat vs IVF vector search at growing corpus sizes.
fn bench_vector_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("vector_index");
    g.sample_size(20);
    for n in [1_000usize, 10_000] {
        let entries: Vec<(u64, Vec<f32>)> =
            (0..n as u64).map(|i| (i, seeded_unit_vector(i))).collect();
        let mut flat = FlatIndex::new();
        for (id, v) in &entries {
            flat.insert(*id, v.clone());
        }
        let ivf = IvfIndex::build(entries, 32, 4, 7);
        let query = seeded_unit_vector(99);
        g.bench_function(BenchmarkId::new("flat", n), |b| {
            b.iter(|| flat.search(&query, 10))
        });
        g.bench_function(BenchmarkId::new("ivf", n), |b| {
            b.iter(|| ivf.search(&query, 10))
        });
    }
    g.finish();
}

/// RQ (§3): view population expense per modality.
fn bench_view_population(c: &mut Criterion) {
    let mut g = c.benchmark_group("view_population");
    g.sample_size(10);
    let corpus = generate_corpus(&CorpusSpec {
        movies: 50,
        ..Default::default()
    });
    for modality in ["text", "scene"] {
        g.bench_function(BenchmarkId::new("modality", modality), |b| {
            b.iter_batched(
                || {
                    let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
                    for d in &corpus.documents {
                        ctx.media.add_document(d.clone());
                    }
                    for i in &corpus.images {
                        ctx.media.add_image(i.clone());
                    }
                    ctx
                },
                |mut ctx| {
                    execute_body(
                        &mut ctx,
                        "populate",
                        1,
                        &FunctionBody::ViewPopulate {
                            modality: modality.into(),
                            implementation: VisionImpl::VlmAccurate,
                            convert_unsupported: false,
                        },
                        "views",
                    )
                    .unwrap()
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// RQ (§5): repair throughput — end-to-end flagship query with 0% vs 10%
/// HEIC posters (the failing rows trigger the monitor's repair loop).
fn bench_repair_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("repair_throughput");
    g.sample_size(10);
    for (name, heic) in [("no_faults", 0.0), ("heic_10pct", 0.10)] {
        let corpus = generate_corpus(&CorpusSpec {
            movies: 25,
            heic_fraction: heic,
            ..Default::default()
        });
        g.bench_function(BenchmarkId::new("faults", name), |b| {
            b.iter_batched(
                || {
                    let mut db = KathDB::new(42);
                    db.load_corpus(&corpus).unwrap();
                    db
                },
                |mut db| {
                    let channel = ScriptedChannel::new(["uncommon scenes", "OK"]);
                    db.query(kath_bench::FLAGSHIP_QUERY, channel.as_ref())
                        .unwrap()
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// RQ (§5): explanation latency vs lineage volume (full vs sampled lineage).
fn bench_explain(c: &mut Criterion) {
    let mut g = c.benchmark_group("explain_latency");
    g.sample_size(10);
    for n in [20usize, 100] {
        let corpus = generate_corpus(&CorpusSpec {
            movies: n,
            ..Default::default()
        });
        let (db, result, _) = kath_bench::run_flagship(&corpus);
        let lid = result.top_lid().unwrap();
        g.bench_function(BenchmarkId::new("explain_tuple", n), |b| {
            b.iter(|| db.explain(&format!("explain tuple {lid}")).unwrap())
        });
        g.bench_function(BenchmarkId::new("explain_pipeline", n), |b| {
            b.iter(|| db.explain("explain the pipeline").unwrap())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_lineage_overhead,
    bench_fao_granularity,
    bench_cascade,
    bench_batch_size_sweep,
    bench_parallel_pipeline,
    bench_rewrites,
    bench_vector_index,
    bench_view_population,
    bench_repair_throughput,
    bench_explain,
);
criterion_main!(benches);
