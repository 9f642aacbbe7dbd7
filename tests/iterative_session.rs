//! A session of refinements on one handle: a follow-up question re-runs
//! only the nodes whose function or inputs changed (docs/execution.md,
//! "Incremental re-execution"). Reuse must never change an answer, and
//! every way of changing a node's inputs must make it run again.

use kath_data::{generate_corpus, mmqa_small, CorpusSpec, MmqaCorpus};
use kath_exec::{ExecContext, ExecReport, ExecutionEngine, PhysicalPlan};
use kath_fao::{FunctionBody, FunctionRegistry};
use kath_media::{Document, Image, MediaFormat};
use kath_model::{ScriptedChannel, SilentChannel, SimLlm, TokenMeter};
use kath_optimizer::{compile, CompileOptions};
use kath_parser::{generate_logical_plan, NlParser, PlanVerifier};
use kath_storage::Table;
use kathdb::{KathDB, QueryResult};

const CLARIFICATION: &str = "The movie plot contains scenes that are uncommon in real life";
const BORING: &str = "Sort the given films in the table by how exciting they are, \
                      but the poster should be 'boring'";
const NOT_BORING: &str = "Sort the given films in the table by how exciting they are, \
                          but the poster should not be 'boring'";

/// The benchmark's three ways of asking: clarification only, clarification
/// plus the recency correction, and the negated poster filter.
const VARIANTS: [(&str, &[&str]); 3] = [
    (BORING, &[CLARIFICATION, "OK"]),
    (
        BORING,
        &[
            CLARIFICATION,
            "Oh I prefer a more recent movie as well when scoring",
            "OK",
        ],
    ),
    (NOT_BORING, &[CLARIFICATION, "OK"]),
];

/// Every node of the plain "boring" plan, in plan order.
const PLAIN_PLAN: [&str; 9] = [
    "populate_text_views",
    "populate_scene_views",
    "select_movie_columns",
    "join_text_view",
    "join_image_view",
    "gen_excitement_score",
    "classify_boring",
    "filter_boring",
    "rank_films",
];

fn heic_corpus(movies: usize) -> MmqaCorpus {
    let corpus = generate_corpus(&CorpusSpec {
        movies,
        heic_fraction: 0.05,
        seed: 3,
        ..CorpusSpec::default()
    });
    assert!(corpus.images.iter().any(|i| !i.format.is_supported()));
    corpus
}

fn handle(corpus: &MmqaCorpus) -> KathDB {
    let mut db = KathDB::new(42);
    db.load_corpus(corpus).unwrap();
    db
}

fn ask(db: &mut KathDB, variant: usize) -> QueryResult {
    ask_with(db, variant, &[])
}

/// Asks with extra scripted replies after the parser's (the monitor's
/// questions come last).
fn ask_with(db: &mut KathDB, variant: usize, more: &[&str]) -> QueryResult {
    let (question, replies) = VARIANTS[variant];
    let channel = ScriptedChannel::new(replies.iter().chain(more).copied());
    db.query(question, channel.as_ref()).unwrap()
}

/// `(id, score)` of every answer row, in answer order.
fn answer(result: &QueryResult) -> Vec<(i64, u64)> {
    scored_ids(&result.table)
}

fn scored_ids(table: &Table) -> Vec<(i64, u64)> {
    let schema = table.schema();
    let id = schema.index_of("id").unwrap();
    let score = schema
        .index_of("final_score")
        .or_else(|| schema.index_of("excitement_score"))
        .unwrap();
    table
        .rows()
        .iter()
        .map(|r| {
            (
                r[id].as_int().unwrap(),
                r[score].as_f64().unwrap().to_bits(),
            )
        })
        .collect()
}

fn reused(result: &QueryResult) -> Vec<&str> {
    result.exec.reused_nodes().collect()
}

fn without<'a>(plan: &[&'a str], ran: &[&str]) -> Vec<&'a str> {
    plan.iter().copied().filter(|n| !ran.contains(n)).collect()
}

#[test]
fn every_position_of_a_rotating_session_answers_like_a_fresh_handle() {
    let corpus = heic_corpus(60);
    let fresh: Vec<_> = (0..3)
        .map(|v| answer(&ask(&mut handle(&corpus), v)))
        .collect();
    assert!(fresh.iter().all(|a| !a.is_empty()));
    assert_ne!(fresh[0], fresh[2]);
    // Three rotations put each variant at each of the four positions.
    for start in 0..3 {
        let mut db = handle(&corpus);
        for position in 0..4 {
            let variant = (start + position) % 3;
            let result = ask(&mut db, variant);
            assert_eq!(
                answer(&result),
                fresh[variant],
                "variant {variant} at position {position} of rotation {start}"
            );
            assert_eq!(reused(&result).is_empty(), position == 0);
            // Explanations still resolve, whichever question minted the lid.
            let lid = result.top_lid().unwrap();
            let tuple = db.explain(&format!("explain tuple {lid}")).unwrap();
            assert!(tuple.contains("by populate_"), "{tuple}");
        }
    }
}

#[test]
fn an_identical_question_runs_nothing_again() {
    let mut db = handle(&heic_corpus(240));
    let calls = |db: &KathDB| db.token_usage().calls;
    let first = ask(&mut db, 0);
    let first_calls = calls(&db);
    assert_eq!(
        first.exec.repairs.len(),
        1,
        "the HEIC posters were converted"
    );
    let registry = db.registry().clone();
    let lineage_rows = db.context().lineage.len();

    let second = ask(&mut db, 0);
    assert_eq!(reused(&second), PLAIN_PLAN);
    assert!(second.exec.repairs.is_empty() && second.exec.anomalies.is_empty());
    assert_eq!(answer(&second), answer(&first));
    // What is left is the optimizer profiling candidates on four rows.
    let second_calls = calls(&db) - first_calls;
    assert!(
        second_calls * 20 < first_calls,
        "{second_calls} model calls after {first_calls}"
    );
    assert_eq!(db.context().lineage.len(), lineage_rows);
    // No version was minted and no profile rewritten: nothing to log again.
    assert_eq!(db.registry(), &registry);

    let pipeline = db.explain("explain the pipeline").unwrap();
    assert_eq!(pipeline.matches("[reused:").count(), PLAIN_PLAN.len());
    let lid = second.top_lid().unwrap();
    assert_eq!(Some(lid), first.top_lid());
    assert!(db
        .explain(&format!("explain tuple {lid}"))
        .unwrap()
        .contains("classify_boring"));
}

#[test]
fn the_heic_repair_of_the_scene_half_leaves_the_text_half_reusable() {
    let mut db = handle(&heic_corpus(60));
    let first = ask(&mut db, 0);
    assert_eq!(first.exec.repairs[0].func_id, "populate_scene_views");
    // The negated question changes the filter and nothing above it.
    let second = ask(&mut db, 2);
    assert_eq!(
        reused(&second),
        without(&PLAIN_PLAN, &["filter_boring", "rank_films"])
    );
    assert!(second.exec.repairs.is_empty());
}

#[test]
fn an_insert_into_the_base_table_reruns_everything_that_reads_it() {
    let mut db = handle(&mmqa_small());
    ask(&mut db, 0);
    db.sql("INSERT INTO movie_table VALUES (7, 'Late Entry', 1993, 1, 1)")
        .unwrap();
    let second = ask(&mut db, 0);
    assert_eq!(
        reused(&second),
        ["populate_text_views", "populate_scene_views"]
    );
    assert!(answer(&second).iter().any(|(id, _)| *id == 7));
}

#[test]
fn a_new_document_reruns_the_text_half_only() {
    let mut db = handle(&mmqa_small());
    ask(&mut db, 0);
    db.context_mut()
        .media
        .add_document(Document::new("doc://plot/70", "A calm walk."));
    let second = ask(&mut db, 0);
    let ran = [
        "populate_text_views",
        "join_text_view",
        "gen_excitement_score",
        "rank_films",
    ];
    assert_eq!(reused(&second), without(&PLAIN_PLAN, &ran));
}

#[test]
fn a_new_image_reruns_the_scene_half_only() {
    let mut db = handle(&mmqa_small());
    ask(&mut db, 0);
    db.context_mut()
        .media
        .add_image(Image::new("file://posters/70.png", MediaFormat::Png));
    let second = ask(&mut db, 0);
    let ran = [
        "populate_scene_views",
        "join_image_view",
        "classify_boring",
        "filter_boring",
        "rank_films",
    ];
    assert_eq!(reused(&second), without(&PLAIN_PLAN, &ran));
}

#[test]
fn the_fanout_patch_is_never_served_for_the_unpatched_join() {
    let mut corpus = mmqa_small();
    // A second poster for movie 1: the join fans out on `id`.
    let mut duplicate = corpus.images[0].clone();
    assert_eq!(duplicate.uri, "file://posters/1.png");
    duplicate.uri = "file://alternates/1.png".into();
    corpus.images.push(duplicate);
    let mut db = handle(&corpus);

    let first = ask_with(&mut db, 0, &["enforce"]);
    assert!(first.exec.anomalies[0].patched);
    // The optimizer hands back its own join; the record is of the patched
    // one, so the join runs, fans out, and is patched again.
    let second = ask_with(&mut db, 0, &["enforce"]);
    let ran = [
        "join_image_view",
        "classify_boring",
        "filter_boring",
        "rank_films",
    ];
    assert_eq!(reused(&second), without(&PLAIN_PLAN, &ran));
    assert!(second.exec.anomalies[0].patched);
    assert_eq!(answer(&second), answer(&first));
}

/// The facade's pipeline by hand, for access to the registry.
struct Staged {
    ctx: ExecContext,
    registry: FunctionRegistry,
}

impl Staged {
    fn new(corpus: &MmqaCorpus) -> Self {
        let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
        ctx.ingest_table(corpus.movies.clone(), "file://data/movie_table")
            .unwrap();
        corpus
            .documents
            .iter()
            .for_each(|d| ctx.media.add_document(d.clone()));
        corpus
            .images
            .iter()
            .for_each(|i| ctx.media.add_image(i.clone()));
        Self {
            ctx,
            registry: FunctionRegistry::new(),
        }
    }

    fn compile(&mut self) -> PhysicalPlan {
        let (question, replies) = VARIANTS[0];
        let channel = ScriptedChannel::new(replies.iter().copied());
        let parse = NlParser::new(self.ctx.llm.clone()).parse(question, channel.as_ref());
        let logical = generate_logical_plan(&parse.sketch, "movie_table");
        let snapshot = self.ctx.catalog.snapshot();
        let (logical, verification) = PlanVerifier::new(&snapshot).verify(logical);
        assert!(verification.approved);
        let options = CompileOptions::default();
        compile(
            &logical,
            &self.ctx,
            &mut self.registry,
            &parse.clarifications,
            &options,
        )
        .unwrap()
        .physical
    }

    fn run(&mut self, plan: &PhysicalPlan) -> ExecReport {
        ExecutionEngine::new()
            .run(&mut self.ctx, &mut self.registry, plan, &SilentChannel)
            .unwrap()
    }
}

#[test]
fn a_new_or_rolled_back_version_reruns_its_node_and_what_reads_it() {
    let mut staged = Staged::new(&mmqa_small());
    let plan = staged.compile();
    let first = staged.run(&plan);
    assert_eq!(first.reused_nodes().count(), 0);
    assert_eq!(staged.run(&plan).reused_nodes().count(), PLAIN_PLAN.len());

    let FunctionBody::ConceptScore {
        input,
        text_column,
        output_column,
        ..
    } = staged
        .registry
        .get("gen_excitement_score")
        .unwrap()
        .active_version()
        .body
        .clone()
    else {
        panic!("the excitement score is a concept score");
    };
    let narrower = FunctionBody::ConceptScore {
        input,
        text_column,
        keywords: vec!["explosion".into()],
        output_column,
    };
    staged
        .registry
        .add_version("gen_excitement_score", narrower, "manual edit")
        .unwrap();
    let ran = ["gen_excitement_score", "rank_films"];
    let edited = staged.run(&plan);
    assert_eq!(
        edited.reused_nodes().collect::<Vec<_>>(),
        without(&PLAIN_PLAN, &ran)
    );

    staged.registry.rollback("gen_excitement_score", 1).unwrap();
    let rolled_back = staged.run(&plan);
    assert_eq!(
        rolled_back.reused_nodes().collect::<Vec<_>>(),
        without(&PLAIN_PLAN, &ran)
    );
    assert_eq!(
        scored_ids(&rolled_back.final_table),
        scored_ids(&first.final_table)
    );
    assert_ne!(
        scored_ids(&edited.final_table),
        scored_ids(&first.final_table)
    );
}
