//! Criterion benches for the research questions the paper raises (the
//! quantitative half of DESIGN.md §4). Each group prints the series a
//! figure/table would plot; absolute numbers are machine-local, the *shape*
//! (who wins, by what factor) is the claim under test. A group lives here
//! only while no committed series (a `BENCH_*.json` report or the repo
//! benchmark) answers its question.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kath_data::{generate_corpus, CorpusSpec};
use kath_exec::{execute_body, visual_interest, ExecContext};
use kath_fao::{FunctionBody, VisionImpl};
use kath_lineage::{LineagePolicy, LineageStore};
use kath_model::{ScriptedChannel, SimLlm, TokenMeter};
use kath_optimizer::{predicate_pushdown, rewrite_plan};
use kath_parser::{extract_intent, generate_logical_plan, generate_sketch};
use kath_storage::{DataType, Schema, Table};
use kathdb::KathDB;

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

criterion_group!(
    benches,
    bench_lineage_overhead,
    bench_fao_granularity,
    bench_cascade,
    bench_rewrites,
    bench_view_population,
    bench_repair_throughput,
);
criterion_main!(benches);
