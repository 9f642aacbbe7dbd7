//! `nl_flagship`: the paper's pipeline. Each session is a fresh database
//! with the generated corpus loaded, then four questions on that handle;
//! one op is a question answered and explained twice (the whole pipeline,
//! then the top tuple).

use crate::common::{Budget, Busy, Checks, RunConfig, Size, MODEL_SEED, SETUP_REPEATS};
use crate::report::Report;
use crate::span::Tracer;
use crate::stats::{mean, median, ratio};
use kath_data::{generate_corpus, CorpusSpec, MmqaCorpus};
use kath_exec::{ExecContext, ExecutionEngine, PhysicalPlan};
use kath_explain::Explainer;
use kath_fao::FunctionRegistry;
use kath_model::{ScriptedChannel, SimLlm, TokenMeter};
use kath_optimizer::{
    compile, estimate_function_in_mode, preferred_exec_mode, preferred_parallelism, CompileOptions,
};
use kath_parser::{generate_logical_plan, NlParser, PlanVerifier};
use kath_storage::{ExecMode, Table};
use kathdb::KathDB;
use std::collections::HashMap;
use std::time::Instant;

/// Questions asked on one handle, so lineage grows as in a real session.
pub const QUESTIONS_PER_SESSION: usize = 4;
/// Share of answer rows whose poster must match the planted truth. The
/// simulated vision model calls about a quarter of the vivid posters
/// boring, so "boring" answers sit near 0.8 and negated ones at 1.0.
const POSTER_PRECISION_FLOOR: f64 = 0.7;
/// Share of the top [`TOP_K`] answers whose plot must be planted exciting.
const PLOT_PRECISION_FLOOR: f64 = 0.8;
const TOP_K: usize = 50;

const CLARIFICATION: &str = "The movie plot contains scenes that are uncommon in real life";

/// One scripted way of asking the flagship question.
struct Variant {
    question: &'static str,
    replies: &'static [&'static str],
    /// Whether the answer keeps boring posters (or, negated, drops them).
    keep_boring: bool,
}

const VARIANTS: [Variant; 3] = [
    // Clarification only.
    Variant {
        question: "Sort the given films in the table by how exciting they are, \
                   but the poster should be 'boring'",
        replies: &[CLARIFICATION, "OK"],
        keep_boring: true,
    },
    // Clarification, then the recency correction of the paper's example.
    Variant {
        question: "Sort the given films in the table by how exciting they are, \
                   but the poster should be 'boring'",
        replies: &[
            CLARIFICATION,
            "Oh I prefer a more recent movie as well when scoring",
            "OK",
        ],
        keep_boring: true,
    },
    // Negated poster filter.
    Variant {
        question: "Sort the given films in the table by how exciting they are, \
                   but the poster should not be 'boring'",
        replies: &[CLARIFICATION, "OK"],
        keep_boring: false,
    },
];

/// The question schedule: the seed picks where the rotation starts.
fn variant_index(seed: u64, session: usize, position: usize) -> usize {
    ((seed % 3) as usize + session + position) % VARIANTS.len()
}

fn movies(size: Size) -> usize {
    match size {
        Size::Full => 1000,
        Size::Smoke => 60,
    }
}

/// One explained answer.
struct Answer {
    table: Table,
    pipeline: String,
    tuple: String,
}

fn facade_op(db: &mut KathDB, v: &Variant) -> Result<Answer, String> {
    let channel = ScriptedChannel::new(v.replies.iter().copied());
    let result = db
        .query(v.question, channel.as_ref())
        .map_err(|e| e.to_string())?;
    let pipeline = db
        .explain("explain the pipeline")
        .map_err(|e| e.to_string())?;
    let lid = result.top_lid().ok_or("answer has no top tuple")?;
    let tuple = db
        .explain(&format!("explain tuple {lid}"))
        .map_err(|e| e.to_string())?;
    Ok(Answer {
        table: result.table,
        pipeline,
        tuple,
    })
}

/// Checks answers against the corpus's planted truth and against each
/// other. Runs outside every timed span.
struct Oracle<'a> {
    corpus: &'a MmqaCorpus,
    /// Digest of the answer to (variant, position in session).
    digests: HashMap<(usize, usize), u64>,
    checks: Checks,
}

impl<'a> Oracle<'a> {
    fn new(corpus: &'a MmqaCorpus) -> Self {
        Self {
            corpus,
            digests: HashMap::new(),
            checks: Checks::default(),
        }
    }

    /// `(id, final_score)` of every answer row, in answer order.
    fn scored_ids(table: &Table) -> Result<Vec<(i64, f64)>, String> {
        let schema = table.schema();
        let id = schema.index_of("id").ok_or("answer has no id column")?;
        // Without a correction there is one score and nothing to combine.
        let score = schema
            .index_of("final_score")
            .or_else(|| schema.index_of("excitement_score"))
            .ok_or("answer has no score column")?;
        table
            .rows()
            .iter()
            .map(|r| {
                r[id]
                    .as_int()
                    .zip(r[score].as_f64())
                    .ok_or_else(|| "NULL id or score in answer".to_string())
            })
            .collect()
    }

    fn check_answer(
        &mut self,
        variant: usize,
        position: usize,
        answer: &Answer,
    ) -> Result<(), String> {
        let v = &VARIANTS[variant];
        if answer.pipeline.trim().is_empty() || answer.tuple.trim().is_empty() {
            return Err("empty explanation".into());
        }
        let rows = Self::scored_ids(&answer.table)?;
        if rows.is_empty() {
            return Err("empty answer".into());
        }
        if rows.windows(2).any(|w| w[0].1 < w[1].1) {
            return Err("answer is not ordered by descending score".into());
        }
        let truth = |id: i64| {
            self.corpus
                .truth
                .get((id - 1) as usize)
                .filter(|t| t.id == id)
                .ok_or_else(|| format!("answer id {id} is not in the corpus"))
        };
        let mut poster_hits = 0usize;
        for (id, _) in &rows {
            poster_hits += usize::from(truth(*id)?.boring_poster == v.keep_boring);
        }
        let poster_precision = poster_hits as f64 / rows.len() as f64;
        if poster_precision < POSTER_PRECISION_FLOOR {
            return Err(format!("poster precision {poster_precision:.3}"));
        }
        // Half the plots are planted exciting, so the best-scored quarter of
        // any answer should be.
        let top = &rows[..(rows.len() / 4).clamp(1, TOP_K)];
        let mut plot_hits = 0usize;
        for (id, _) in top {
            plot_hits += usize::from(truth(*id)?.exciting_plot);
        }
        let plot_precision = plot_hits as f64 / top.len() as f64;
        if plot_precision < PLOT_PRECISION_FLOOR {
            return Err(format!(
                "plot precision at {} is {plot_precision:.3}",
                top.len()
            ));
        }
        let digest = answer_digest(&rows);
        match self.digests.insert((variant, position), digest) {
            Some(earlier) if earlier != digest => Err(format!(
                "answer differs from an earlier one at variant {variant}, position {position}"
            )),
            _ => Ok(()),
        }
    }

    fn check(&mut self, variant: usize, position: usize, outcome: &Result<Answer, String>) {
        let checked = match outcome {
            Ok(answer) => self.check_answer(variant, position, answer),
            Err(e) => Err(e.clone()),
        };
        self.checks
            .record(&format!("variant {variant} position {position}"), checked);
    }
}

fn answer_digest(rows: &[(i64, f64)]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (id, score) in rows {
        id.hash(&mut h);
        score.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Per-op observations of one phase (facade or staged).
#[derive(Default)]
struct Observed {
    op_ms: Vec<f64>,
    /// Op latency by position in session, complete sessions only.
    first_ms: Vec<f64>,
    fourth_ms: Vec<f64>,
    load_ms: Vec<f64>,
    tokens: Vec<f64>,
    calls: Vec<f64>,
    lineage_rows: Vec<f64>,
    lineage_at_q4: Vec<f64>,
    busy: Busy,
}

/// Runs sessions through the facade until the budget ends.
fn facade_phase(
    cfg: &RunConfig,
    corpus: &MmqaCorpus,
    budget: Budget,
    oracle: &mut Oracle,
) -> Observed {
    let mut seen = Observed::default();
    let mut pace = budget.start();
    'sessions: for session in 0.. {
        let mut db = None;
        let mut first = 0.0;
        for position in 0..QUESTIONS_PER_SESSION {
            if !pace.more() {
                break 'sessions;
            }
            let db = db.get_or_insert_with(|| {
                let (db, ms) = seen.busy.time(|| {
                    let mut db = KathDB::new(MODEL_SEED);
                    db.load_corpus(corpus).expect("generated corpus loads");
                    db
                });
                seen.load_ms.push(ms);
                db
            });
            let variant = variant_index(cfg.seed, session, position);
            let usage = db.token_usage();
            let lineage = db.context().lineage.len();
            let (outcome, ms) = seen.busy.time(|| facade_op(db, &VARIANTS[variant]));
            let spent = db.token_usage();
            seen.op_ms.push(ms);
            seen.tokens.push((spent.total() - usage.total()) as f64);
            seen.calls.push((spent.calls - usage.calls) as f64);
            seen.lineage_rows
                .push((db.context().lineage.len() - lineage) as f64);
            oracle.check(variant, position, &outcome);
            if position == 0 {
                first = ms;
            }
            if position + 1 == QUESTIONS_PER_SESSION {
                seen.first_ms.push(first);
                seen.fourth_ms.push(ms);
                seen.lineage_at_q4.push(db.context().lineage.len() as f64);
            }
        }
    }
    seen
}

/// The facade's pipeline, made of the same public layer functions in the
/// same order, so that a span can be recorded around each.
struct Staged {
    ctx: ExecContext,
    registry: FunctionRegistry,
    options: CompileOptions,
}

/// Counts one staged op hands back beside its answer.
#[derive(Default)]
struct StageCounts {
    clarifications: f64,
    candidates: f64,
    compile_model_calls: f64,
    populate_ms: f64,
    semantic_ms: f64,
    relational_ms: f64,
    slowest_share: f64,
    repairs: f64,
    rows_out: f64,
}

impl Staged {
    /// `KathDB::new` + `KathDB::load_corpus`.
    fn new(corpus: &MmqaCorpus, tr: &mut Tracer) -> Self {
        let span = tr.enter("core.load_corpus");
        let mut ctx = ExecContext::new(SimLlm::new(MODEL_SEED, TokenMeter::new()));
        ctx.ingest_table(corpus.movies.clone(), "file://data/movie_table")
            .expect("generated corpus loads");
        for d in &corpus.documents {
            ctx.media.add_document(d.clone());
        }
        for i in &corpus.images {
            ctx.media.add_image(i.clone());
        }
        tr.exit(span);
        Self {
            ctx,
            registry: FunctionRegistry::new(),
            options: CompileOptions::default(),
        }
    }

    /// The facade's per-query choice of execution mode and worker count.
    fn select_strategy(&self, plan: &PhysicalPlan) -> (ExecMode, usize) {
        let batched = ExecMode::default();
        let snapshot = self.ctx.catalog.snapshot();
        let (mut volcano_ms, mut batched_ms, mut profiled) = (0.0, 0.0, false);
        let mut max_input_rows = 0usize;
        for node in &plan.nodes {
            let estimate =
                |mode| estimate_function_in_mode(&self.registry, &snapshot, &node.func_id, mode);
            if let (Some(v), Some(b)) = (estimate(ExecMode::Volcano), estimate(batched)) {
                volcano_ms += v.runtime_ms;
                batched_ms += b.runtime_ms;
                profiled = true;
            }
            if let Ok(entry) = self.registry.get(&node.func_id) {
                for input in entry.active_version().body.inputs() {
                    if let Ok(t) = snapshot.get(&input) {
                        max_input_rows = max_input_rows.max(t.len());
                    }
                }
            }
        }
        let mode = match profiled {
            true if batched_ms <= volcano_ms => batched,
            true => ExecMode::Volcano,
            false => preferred_exec_mode(max_input_rows),
        };
        let threads = match mode {
            ExecMode::Volcano => 1,
            mode => preferred_parallelism(max_input_rows, mode),
        };
        (mode, threads)
    }

    fn op(&mut self, v: &Variant, tr: &mut Tracer) -> Result<(Answer, StageCounts), String> {
        let channel = ScriptedChannel::new(v.replies.iter().copied());
        let mut counts = StageCounts::default();

        let span = tr.enter("parser.parse");
        let parse = NlParser::new(self.ctx.llm.clone()).parse(v.question, channel.as_ref());
        tr.exit(span);
        counts.clarifications = parse.clarifications.len() as f64;

        let span = tr.enter("parser.plan_verify");
        let logical = generate_logical_plan(&parse.sketch, "movie_table");
        let snapshot = self.ctx.catalog.snapshot();
        let (logical, verification) = PlanVerifier::new(&snapshot).verify(logical);
        drop(snapshot);
        tr.exit(span);
        if !verification.approved {
            return Err(format!("plan rejected: {:?}", verification.hints()));
        }

        let calls = self.ctx.llm.meter().usage().calls;
        let span = tr.enter("optimizer.compile");
        let compiled = compile(
            &logical,
            &self.ctx,
            &mut self.registry,
            &parse.clarifications,
            &self.options,
        );
        tr.exit(span);
        let compiled = compiled.map_err(|e| e.to_string())?;
        counts.compile_model_calls = (self.ctx.llm.meter().usage().calls - calls) as f64;
        counts.candidates = compiled
            .selections
            .iter()
            .map(|s| s.candidates)
            .sum::<usize>() as f64;

        let span = tr.enter("core.select_strategy");
        (self.ctx.exec_mode, self.ctx.threads) = self.select_strategy(&compiled.physical);
        tr.exit(span);

        let span = tr.enter("exec.run");
        let report = ExecutionEngine::new().run(
            &mut self.ctx,
            &mut self.registry,
            &compiled.physical,
            channel.as_ref(),
        );
        tr.exit(span);
        let report = report.map_err(|e| e.to_string())?;
        let (mut total, mut slowest) = (0.0f64, 0.0f64);
        for node in &report.timings {
            let group = if node.func_id.starts_with("populate_") {
                &mut counts.populate_ms
            } else if node.func_id.starts_with("gen_") || node.func_id.starts_with("classify_") {
                &mut counts.semantic_ms
            } else {
                &mut counts.relational_ms
            };
            *group += node.elapsed_ms;
            total += node.elapsed_ms;
            slowest = slowest.max(node.elapsed_ms);
        }
        counts.slowest_share = if total > 0.0 { slowest / total } else { 0.0 };
        counts.repairs = report.repairs.len() as f64;
        counts.rows_out = report.final_table.len() as f64;

        let table = report.final_table;
        let lid = table
            .schema()
            .index_of("lid")
            .and_then(|i| table.rows().first().and_then(|r| r[i].as_int()))
            .ok_or("answer has no top tuple")?;
        let snapshot = self.ctx.catalog.snapshot();
        let explainer = Explainer::new(
            &compiled.physical,
            &self.registry,
            &self.ctx.lineage,
            &snapshot,
        );
        let span = tr.enter("explain.pipeline");
        let pipeline = explainer.explain_pipeline();
        tr.exit(span);
        let span = tr.enter("explain.tuple");
        let tuple = explainer.explain_tuple(lid);
        tr.exit(span);
        let tuple = tuple.map_err(|e| e.to_string())?;
        Ok((
            Answer {
                table,
                pipeline,
                tuple,
            },
            counts,
        ))
    }
}

/// Runs sessions through the staged pipeline, one root span per op. The
/// oracle holds the facade's digests, so a staged answer that differs from
/// the facade's at the same (variant, position) fails.
fn staged_phase(
    cfg: &RunConfig,
    corpus: &MmqaCorpus,
    budget: Budget,
    oracle: &mut Oracle,
    tr: &mut Tracer,
) -> (Observed, Vec<StageCounts>) {
    let mut seen = Observed::default();
    let mut counts = Vec::new();
    let mut pace = budget.start();
    'sessions: for session in 0.. {
        let mut staged = None;
        for position in 0..QUESTIONS_PER_SESSION {
            if !pace.more() {
                break 'sessions;
            }
            let staged = staged.get_or_insert_with(|| Staged::new(corpus, tr));
            let variant = variant_index(cfg.seed, session, position);
            tr.next_op();
            let (outcome, ms) = seen.busy.time(|| {
                let root = tr.enter("nl.op");
                let outcome = staged.op(&VARIANTS[variant], tr);
                tr.exit(root);
                outcome
            });
            seen.op_ms.push(ms);
            let outcome = outcome.map(|(answer, c)| {
                counts.push(c);
                answer
            });
            oracle.check(variant, position, &outcome);
        }
    }
    (seen, counts)
}

/// Microseconds per direct model call: `SimLlm::concept_score` of every
/// plot in the corpus against the clarified concept's keywords.
fn model_us_per_call(corpus: &MmqaCorpus) -> (f64, usize) {
    let llm = SimLlm::new(MODEL_SEED, TokenMeter::new());
    let keywords = llm.generate_keywords(CLARIFICATION);
    let started = Instant::now();
    let mut sum = 0.0;
    for d in &corpus.documents {
        sum += llm.concept_score(&d.text, &keywords);
    }
    std::hint::black_box(sum);
    let n = corpus.documents.len().max(1);
    (started.elapsed().as_secs_f64() * 1e6 / n as f64, n)
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let corpus = generate_corpus(&CorpusSpec {
        movies: movies(cfg.size),
        heic_fraction: 0.02,
        seed: cfg.seed,
        ..CorpusSpec::default()
    });

    // Set-up as the system sees it: a fresh handle, the corpus loaded, and
    // one warm-up session that fills whatever the first answers fill.
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        // Timed piece by piece: each piece is scaled by the host speed
        // around it.
        let mut setup = Busy::default();
        let (mut db, _) = setup.time(|| {
            let mut db = KathDB::new(MODEL_SEED);
            db.load_corpus(&corpus).expect("generated corpus loads");
            db
        });
        for position in 0..QUESTIONS_PER_SESSION {
            let variant = variant_index(cfg.seed, 0, position);
            let (answer, _) = setup.time(|| facade_op(&mut db, &VARIANTS[variant]));
            answer.expect("warm-up question is answered");
        }
        setup_s.push(setup.seconds());
        for (key, value) in crate::engine_settings(&db) {
            report.engine.insert(key, value);
        }
    }

    let mut oracle = Oracle::new(&corpus);
    let phases = if cfg.traced { 2 } else { 1 };
    let facade = facade_phase(cfg, &corpus, cfg.budget.split(phases), &mut oracle);
    crate::push_end_to_end(&mut report, &setup_s, &facade.op_ms, &facade.busy);

    let n = facade.op_ms.len();
    report.push("tokens_per_op", mean(&facade.tokens), n);
    report.push("model.tokens_per_op", mean(&facade.tokens), n);
    report.push("model.calls_per_op", mean(&facade.calls), n);
    report.push("lineage.rows_per_op", mean(&facade.lineage_rows), n);
    report.push(
        "lineage.rows_at_q4",
        median(&facade.lineage_at_q4),
        facade.lineage_at_q4.len(),
    );
    report.push(
        "lineage.q4_over_q1",
        ratio(median(&facade.fourth_ms), median(&facade.first_ms)),
        facade.fourth_ms.len(),
    );
    report.push(
        "core.load_corpus_ms",
        median(&facade.load_ms),
        facade.load_ms.len(),
    );
    report.ops.insert("questions".into(), n as u64);
    report
        .ops
        .insert("sessions".into(), facade.load_ms.len() as u64);

    // What must repeat exactly for one seed and one op count.
    let total = |xs: &[f64]| format!("{}", xs.iter().sum::<f64>());
    report.exact.insert("tokens".into(), total(&facade.tokens));
    report
        .exact
        .insert("model_calls".into(), total(&facade.calls));
    report
        .exact
        .insert("lineage_rows".into(), total(&facade.lineage_rows));
    let mut digests: Vec<_> = oracle.digests.iter().collect();
    digests.sort();
    for ((variant, position), digest) in digests {
        report.exact.insert(
            format!("digest.v{variant}.q{position}"),
            format!("{digest:016x}"),
        );
    }

    if cfg.traced {
        let mut tr = Tracer::new();
        let (staged, counts) =
            staged_phase(cfg, &corpus, cfg.budget.split(phases), &mut oracle, &mut tr);
        let n = staged.op_ms.len();
        let span_median = |name: &str| median(&tr.durations_ms(name));
        let count_mean =
            |f: fn(&StageCounts) -> f64| mean(&counts.iter().map(f).collect::<Vec<_>>());
        report.push("parser.parse_ms", span_median("parser.parse"), n);
        report.push(
            "parser.plan_verify_ms",
            span_median("parser.plan_verify"),
            n,
        );
        report.push("parser.clarifications", count_mean(|c| c.clarifications), n);
        report.push("optimizer.compile_ms", span_median("optimizer.compile"), n);
        report.push("optimizer.candidates", count_mean(|c| c.candidates), n);
        report.push(
            "optimizer.model_calls",
            count_mean(|c| c.compile_model_calls),
            n,
        );
        report.push("exec.run_ms", span_median("exec.run"), n);
        let count_median =
            |f: fn(&StageCounts) -> f64| median(&counts.iter().map(f).collect::<Vec<_>>());
        report.push("exec.populate_views_ms", count_median(|c| c.populate_ms), n);
        report.push("exec.semantic_nodes_ms", count_median(|c| c.semantic_ms), n);
        report.push(
            "exec.relational_nodes_ms",
            count_median(|c| c.relational_ms),
            n,
        );
        report.push(
            "exec.slowest_node_share",
            count_median(|c| c.slowest_share),
            n,
        );
        report.push("exec.repairs", count_mean(|c| c.repairs), n);
        report.push("exec.rows_out", count_mean(|c| c.rows_out), n);
        report.push("explain.pipeline_ms", span_median("explain.pipeline"), n);
        report.push("explain.tuple_ms", span_median("explain.tuple"), n);
        let (us, calls) = model_us_per_call(&corpus);
        report.push("model.us_per_call", us, calls);

        let facade_p50 = median(&facade.op_ms);
        let staged_p50 = median(&staged.op_ms);
        report.push("core.facade_overhead_ms", facade_p50 - staged_p50, n);
        report.push("trace_overhead", ratio(staged_p50, facade_p50), n);
        crate::push_unattributed_share(&mut report, &tr, "nl.op");
        report.ops.insert("staged_questions".into(), n as u64);
        crate::write_trace(cfg, "nl_flagship", &tr);
    }

    oracle.checks.finish(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_rotates_all_variants_and_follows_the_seed() {
        let session: Vec<_> = (0..QUESTIONS_PER_SESSION)
            .map(|p| variant_index(7, 0, p))
            .collect();
        assert_eq!(session, vec![1, 2, 0, 1]);
        assert_ne!(variant_index(7, 0, 0), variant_index(8, 0, 0));
        // A (variant, position) pair fixes the whole history before it.
        assert_eq!(variant_index(7, 3, 1), variant_index(7, 0, 1));
    }
}
