//! A follow-up question compiles only what changed (docs/execution.md,
//! "Incremental re-execution"): a node whose compile record validates —
//! the same node, clarifications and options over the same sample tables —
//! installs its recorded decision instead of profiling candidates again.
//! Installing must never change an answer or a choice, and every way of
//! changing what a decision read must make the node compile again.

use kath_data::{generate_corpus, CorpusSpec, MmqaCorpus};
use kath_exec::{ExecContext, ExecutionEngine};
use kath_fao::FunctionRegistry;
use kath_model::{ScriptedChannel, SimLlm, TokenMeter};
use kath_optimizer::{compile, CoderFaults, CompileOptions, CompileReport};
use kath_parser::{generate_logical_plan, NlParser, PlanVerifier};
use kath_storage::{Table, Value};
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

/// The plain question with another clarification of "exciting", which the
/// coder turns into other keywords.
const OTHER_CLARIFICATION: (&str, &[&str]) = (BORING, &["Gun fights and murder", "OK"]);

/// A small corpus with undecodable (HEIC) posters, which the first
/// question's view population repairs.
fn corpus(seed: u64) -> MmqaCorpus {
    let corpus = generate_corpus(&CorpusSpec {
        movies: 60,
        heic_fraction: 0.05,
        seed,
        ..CorpusSpec::default()
    });
    assert!(corpus.images.iter().any(|i| !i.format.is_supported()));
    corpus
}

/// `(id, score bits)` of every answer row, in answer order.
fn answer(table: &Table) -> Vec<(i64, u64)> {
    let schema = table.schema();
    let id = schema.index_of("id").unwrap();
    let score = (schema.index_of("final_score"))
        .or_else(|| schema.index_of("excitement_score"))
        .unwrap();
    let rows = table.rows().iter();
    let scored = rows.map(|r| {
        (
            r[id].as_int().unwrap(),
            r[score].as_f64().unwrap().to_bits(),
        )
    });
    scored.collect()
}

/// The implementation chosen for each multi-candidate node.
fn chosen(report: &CompileReport) -> Vec<(String, String)> {
    let selections = report.selections.iter();
    selections
        .map(|s| (s.func_id.clone(), s.chosen.clone()))
        .collect()
}

fn ask(db: &mut KathDB, (question, replies): (&str, &[&str])) -> QueryResult {
    let channel = ScriptedChannel::new(replies.iter().copied());
    db.query(question, channel.as_ref()).unwrap()
}

#[test]
fn every_position_answers_and_chooses_like_a_fresh_handle() {
    for seed in 1..=3 {
        let corpus = corpus(seed);
        let handle = || {
            let mut db = KathDB::new(42);
            db.load_corpus(&corpus).unwrap();
            db
        };
        let fresh: Vec<_> = (VARIANTS.iter())
            .map(|&v| {
                let result = ask(&mut handle(), v);
                (answer(&result.table), chosen(&result.compile))
            })
            .collect();
        assert!(fresh.iter().all(|(a, c)| !a.is_empty() && !c.is_empty()));
        for start in 0..3 {
            let mut db = handle();
            for position in 0..4 {
                let variant = (start + position) % VARIANTS.len();
                let result = ask(&mut db, VARIANTS[variant]);
                let at =
                    format!("seed {seed}, variant {variant} at position {position} of {start}");
                let seen = (answer(&result.table), chosen(&result.compile));
                assert_eq!(seen, fresh[variant], "{at}");
                // Nothing is installed on a fresh handle; later, the nodes
                // over the unchanged base table and plots always are.
                let reused = &result.compile.reused;
                assert_eq!(reused.is_empty(), position == 0, "{at}: {reused:?}");
                if position > 0 {
                    for node in ["select_movie_columns", "gen_excitement_score"] {
                        assert!(reused.iter().any(|r| r == node), "{at}: {reused:?}");
                    }
                }
                let pipeline = db.explain("explain the pipeline").unwrap();
                let marks = pipeline.matches("[compiled in an earlier question").count();
                assert_eq!(marks, reused.len(), "{at}: {pipeline}");
                assert!(pipeline.contains("chosen among 4 candidates"), "{pipeline}");
            }
        }
    }
}

/// The benchmark's staged pipeline on one context and registry: parse,
/// verify, compile (counting its model calls), run.
struct Staged {
    ctx: ExecContext,
    registry: FunctionRegistry,
    options: CompileOptions,
}

impl Staged {
    fn new(corpus: &MmqaCorpus) -> Self {
        let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
        ctx.ingest_table(corpus.movies.clone(), "file://data/movie_table")
            .unwrap();
        for d in &corpus.documents {
            ctx.media.add_document(d.clone());
        }
        for i in &corpus.images {
            ctx.media.add_image(i.clone());
        }
        Self {
            ctx,
            registry: FunctionRegistry::new(),
            options: CompileOptions::default(),
        }
    }

    /// The answer, the compile's report and its model calls.
    fn ask(
        &mut self,
        (question, replies): (&str, &[&str]),
    ) -> (Vec<(i64, u64)>, CompileReport, u64) {
        let channel = ScriptedChannel::new(replies.iter().copied());
        let parse = NlParser::new(self.ctx.llm.clone()).parse(question, channel.as_ref());
        let logical = generate_logical_plan(&parse.sketch, "movie_table");
        let snapshot = self.ctx.catalog.snapshot();
        let (logical, verification) = PlanVerifier::new(&snapshot).verify(logical);
        drop(snapshot);
        assert!(verification.approved);
        let calls = self.ctx.llm.meter().usage().calls;
        let report = compile(
            &logical,
            &self.ctx,
            &mut self.registry,
            &parse.clarifications,
            &self.options,
        )
        .unwrap();
        let calls = self.ctx.llm.meter().usage().calls - calls;
        let exec = ExecutionEngine::new()
            .run(
                &mut self.ctx,
                &mut self.registry,
                &report.physical,
                channel.as_ref(),
            )
            .unwrap();
        (answer(&exec.final_table), report, calls)
    }

    /// A one-row INSERT into `movie_table`, as SQL's INSERT applies it.
    fn insert(&mut self) {
        let row = vec![
            Value::Int(10_000),
            Value::from("Inserted"),
            Value::Int(2001),
            Value::Int(10_000),
            Value::Int(10_000),
        ];
        (self.ctx.catalog)
            .try_publish(|c| c.append_rows("movie_table", &[row]))
            .unwrap();
    }
}

#[test]
fn a_follow_up_compiles_only_what_changed() {
    for seed in 1..=3 {
        let corpus = corpus(seed);
        let mut staged = Staged::new(&corpus);
        let (first, _, first_calls) = staged.ask(VARIANTS[0]);
        assert!(first_calls > 0);

        // The same question again: the first question's repairs may have
        // changed a sampled poster, which is populated again once; from
        // then on nothing the sample reads changes and every node installs
        // its record without a model call.
        staged.ask(VARIANTS[0]);
        let (again, report, calls) = staged.ask(VARIANTS[0]);
        assert_eq!((again, calls), (first.clone(), 0), "seed {seed}");
        assert_eq!(report.reused.len(), 7, "{:?}", report.reused);

        // Another clarification is another decision for the nodes it reaches,
        // and the answer is a fresh handle's.
        let (other, report, calls) = staged.ask(OTHER_CLARIFICATION);
        let (fresh_other, ..) = Staged::new(&corpus).ask(OTHER_CLARIFICATION);
        assert_ne!(fresh_other, first, "seed {seed}");
        assert_eq!(other, fresh_other, "seed {seed}");
        assert!(calls > 0 && !report.reused.iter().any(|r| r == "gen_excitement_score"));

        // A one-row INSERT makes `movie_table` a new table value, but its
        // first rows are the sample's: the sample is kept, and every node
        // installs its record without a model call. The answer is a fresh
        // handle's after the same INSERT.
        staged.insert();
        let (after, report, calls) = staged.ask(VARIANTS[0]);
        assert_eq!(calls, 0, "seed {seed}");
        assert_eq!(report.reused.len(), 7, "{:?}", report.reused);
        let mut fresh = Staged::new(&corpus);
        fresh.insert();
        assert_eq!(after, fresh.ask(VARIANTS[0]).0, "seed {seed}");
    }
}

#[test]
fn a_follow_up_under_a_coder_fault_ends_on_the_critics_body() {
    let corpus = corpus(1);
    let (clean, ..) = Staged::new(&corpus).ask(VARIANTS[1]);
    let mut staged = Staged::new(&corpus);
    staged.options.faults = CoderFaults {
        reversed_recency: true,
    };
    let (first, report, _) = staged.ask(VARIANTS[1]);
    assert_eq!(report.critiques.len(), 1);
    assert_eq!(first, clean);
    let versions = |staged: &Staged| {
        let entry = staged.registry.get("gen_recency_score").unwrap();
        let active = entry.active_version();
        (entry.versions.len(), active.note.starts_with("critic:"))
    };
    assert_eq!(versions(&staged), (2, true));

    for _ in 0..2 {
        let (again, report, _) = staged.ask(VARIANTS[1]);
        assert!(report.reused.iter().any(|r| r == "gen_recency_score"));
        assert_eq!(report.critiques.len(), 1);
        assert_eq!(again, clean);
        assert_eq!(versions(&staged), (2, true));
    }

    // A one-row INSERT leaves the sampled rows alone: the recency score
    // installs its record, which reports the critic's correction again —
    // the faulty winner v1, then the critic's body, equal to v2's, made
    // active again instead of adding a third version.
    staged.insert();
    let (_, report, _) = staged.ask(VARIANTS[1]);
    assert!(report.reused.iter().any(|r| r == "gen_recency_score"));
    let critiques = report.critiques.iter();
    let steps: Vec<_> = critiques.map(|c| (c.from_ver, c.to_ver)).collect();
    assert_eq!(steps, [(1, 2)]);
    assert_eq!(versions(&staged), (2, true));
}
