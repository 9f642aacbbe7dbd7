//! `sql_resident` and `sql_paged`: one op is a round of six SELECTs through
//! `KathDB::sql`, one per statement class. The two workloads run the same
//! statements over the same rows; `sql_paged` pages the fact table and
//! gives the buffer pool a budget far below the working set.

use crate::common::{table_digest, Busy, Checks, Rng, RunConfig, Size, MODEL_SEED, SETUP_REPEATS};
use crate::kernels;
use crate::report::Report;
use crate::span::Tracer;
use crate::stats::{mean, median, ratio};
use kath_sql::{parse_statement, run_select_auto_guarded, Select, SelectStats, Statement};
use kath_storage::{
    encode_embedding, CompileMode, DataType, ExecMode, PoolStatus, Schema, Table, Value,
};
use kath_vector::embed_query;
use kathdb::KathDB;
use std::time::Instant;

/// Buffer-pool budget of `sql_paged`, in decoded column pages: the paged
/// fact table has 8 columns of 13 pages, 6.5 times this.
const PAGED_POOL_PAGES: usize = 16;
const WARM_UP_ROUNDS: usize = 3;

const GENRES: [&str; 6] = ["drama", "comedy", "thriller", "western", "noir", "musical"];
const STUDIOS: [&str; 12] = [
    "Alder", "Birch", "Cedar", "Dogwood", "Elm", "Fir", "Ginkgo", "Hazel", "Ivy", "Juniper", "Koa",
    "Larch",
];
const PLOT_WORDS: [&str; 16] = [
    "gun",
    "murder",
    "chase",
    "explosion",
    "escape",
    "storm",
    "tea",
    "garden",
    "quiet",
    "letters",
    "wedding",
    "kiss",
    "bridge",
    "harbor",
    "witness",
    "summer",
];
const QUERY_PHRASES: [&str; 4] = [
    "gun murder shootout",
    "calm quiet tea garden",
    "love wedding kiss",
    "storm bridge escape",
];

/// Which of the two workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    Resident,
    Paged,
}

impl Layout {
    fn workload(self) -> &'static str {
        match self {
            Layout::Resident => "sql_resident",
            Layout::Paged => "sql_paged",
        }
    }
}

/// The generated tables.
pub struct Inputs {
    pub movies: Table,
    pub posters: Table,
    pub plots: Table,
    phrase: &'static str,
}

fn sizes(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (50_000, 5_000),
        Size::Smoke => (6_000, 600),
    }
}

/// Tables from the seed: a fact table whose columns cover every page
/// encoding (bit-packed ints, raw and dictionary and run-length strings,
/// floats), a poster dimension to join, and embedded plots to search.
pub fn generate(seed: u64, size: Size) -> Inputs {
    let (movie_rows, side_rows) = sizes(size);
    let mut rng = Rng::new(seed);
    let mut movies = Table::new(
        "movie_table",
        Schema::of(&[
            ("id", DataType::Int),
            ("title", DataType::Str),
            ("year", DataType::Int),
            ("did", DataType::Int),
            ("vid", DataType::Int),
            ("rating", DataType::Float),
            ("genre", DataType::Str),
            ("studio", DataType::Str),
        ]),
    );
    for i in 0..movie_rows {
        let id = i as i64 + 1;
        movies
            .push(vec![
                id.into(),
                format!("Film {:x} {id}", rng.below(1 << 20)).into(),
                (1960 + rng.below(65) as i64).into(),
                (1 + rng.below(side_rows as u64) as i64).into(),
                (1 + rng.below(side_rows as u64) as i64).into(),
                Value::Float((rng.unit() * 100.0).round() / 10.0),
                // Long runs of one genre: the run-length page encoding.
                GENRES[(i / 512) % GENRES.len()].into(),
                // Few values in no order: the dictionary page encoding.
                STUDIOS[rng.below(STUDIOS.len() as u64) as usize].into(),
            ])
            .expect("generated row fits the schema");
    }
    let mut posters = Table::new(
        "poster_table",
        Schema::of(&[("vid", DataType::Int), ("boring", DataType::Bool)]),
    );
    let mut plots = Table::new(
        "plot_table",
        Schema::of(&[("did", DataType::Int), ("emb", DataType::Blob)]),
    );
    for i in 0..side_rows {
        let id = i as i64 + 1;
        posters
            .push(vec![id.into(), Value::Bool(rng.below(2) == 0)])
            .expect("generated row fits the schema");
        let words: Vec<&str> = (0..4)
            .map(|_| PLOT_WORDS[rng.below(PLOT_WORDS.len() as u64) as usize])
            .collect();
        let emb = encode_embedding(&embed_query(&words.join(" ")));
        plots
            .push(vec![id.into(), Value::Blob(emb)])
            .expect("generated row fits the schema");
    }
    Inputs {
        movies,
        posters,
        plots,
        phrase: QUERY_PHRASES[(seed % QUERY_PHRASES.len() as u64) as usize],
    }
}

/// One statement class of the round.
pub struct Class {
    pub name: &'static str,
    /// Span recorded around its `run_select_auto_guarded` call.
    span: &'static str,
    metric: &'static str,
    sql: String,
    /// Rows of the tables it reads.
    examined: usize,
}

pub fn classes(inputs: &Inputs) -> Vec<Class> {
    let rows = inputs.movies.len();
    let side = inputs.posters.len();
    let class = |name, span, metric, sql: String, examined| Class {
        name,
        span,
        metric,
        sql,
        examined,
    };
    vec![
        class(
            "scan_sel01",
            "sql.select.scan_sel01",
            "sql.select_ms.scan_sel01",
            format!(
                "SELECT id, title, year FROM movie_table WHERE id <= {}",
                rows / 100
            ),
            rows,
        ),
        class(
            "scan_sel50",
            "sql.select.scan_sel50",
            "sql.select_ms.scan_sel50",
            "SELECT id, year - 1960 AS age, rating * 2 AS r2 FROM movie_table WHERE year >= 1993"
                .to_string(),
            rows,
        ),
        class(
            "agg_group",
            "sql.select.agg_group",
            "sql.select_ms.agg_group",
            // Integer inputs: their sums are exact in any order. AVG over the
            // float column differs in its last bits between the serial and
            // the morsel-parallel drive, which the digest would count as wrong.
            format!(
                "SELECT year, COUNT(*) AS n, AVG(vid) AS r FROM movie_table \
                 WHERE id > {} GROUP BY year ORDER BY year",
                rows / 10
            ),
            rows,
        ),
        class(
            "sort_limit",
            "sql.select.sort_limit",
            "sql.select_ms.sort_limit",
            "SELECT id, title, year FROM movie_table WHERE year >= 2015 \
             ORDER BY year DESC, id LIMIT 100"
                .to_string(),
            rows,
        ),
        class(
            "join_probe",
            "sql.select.join_probe",
            "sql.select_ms.join_probe",
            "SELECT id, title, boring FROM movie_table \
             JOIN poster_table ON movie_table.vid = poster_table.vid \
             WHERE year >= 2010 AND boring = TRUE"
                .to_string(),
            rows + side,
        ),
        class(
            "vector_topk",
            "sql.select.vector_topk",
            "sql.select_ms.vector_topk",
            format!(
                "SELECT did FROM plot_table ORDER BY SIMILARITY(emb, '{}') DESC LIMIT 10",
                inputs.phrase
            ),
            side,
        ),
    ]
}

/// Loads the tables into a fresh in-memory database, in the layout asked
/// for, and builds the vector index. Returns the index build time.
fn load(inputs: &Inputs, layout: Layout) -> (KathDB, f64) {
    let mut db = KathDB::new(MODEL_SEED);
    for (table, uri) in [
        (&inputs.movies, "bench://movie_table"),
        (&inputs.posters, "bench://poster_table"),
        (&inputs.plots, "bench://plot_table"),
    ] {
        db.load_table(table.clone(), uri)
            .expect("generated table loads");
    }
    if layout == Layout::Paged {
        db.page_table("movie_table").expect("fact table pages");
        db.set_pool_budget(PAGED_POOL_PAGES);
    }
    let started = Instant::now();
    db.build_vector_index("plot_table", "emb")
        .expect("vector index builds");
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    (db, build_ms)
}

/// The reference results: the same statements on the tuple-at-a-time drive,
/// one thread, compilation off, every table resident.
fn reference_digests(inputs: &Inputs, classes: &[Class]) -> Vec<u64> {
    let (mut db, _) = load(inputs, Layout::Resident);
    db.set_exec_mode(ExecMode::Volcano);
    db.set_parallelism(1);
    db.set_compile_mode(CompileMode::Off);
    classes
        .iter()
        .map(|c| table_digest(&db.sql(&c.sql).expect("reference statement runs")))
        .collect()
}

/// Compares each round's results with the reference, outside timed spans.
struct Oracle {
    reference: Vec<u64>,
    checks: Checks,
}

impl Oracle {
    fn check(&mut self, round: usize, classes: &[Class], results: &[Result<Table, String>]) {
        for ((class, result), want) in classes.iter().zip(results).zip(&self.reference) {
            let verdict = match result {
                Ok(t) if table_digest(t) == *want => Ok(()),
                Ok(t) => Err(format!("{} rows differ from the reference drive", t.len())),
                Err(e) => Err(e.clone()),
            };
            self.checks
                .record(&format!("round {round} {}", class.name), verdict);
        }
    }
}

fn facade_round(db: &mut KathDB, classes: &[Class]) -> Vec<Result<Table, String>> {
    classes
        .iter()
        .map(|c| db.sql(&c.sql).map_err(|e| e.to_string()))
        .collect()
}

/// One statement class through [`staged_select`].
fn staged_class(
    db: &KathDB,
    class: &Class,
    tr: &mut Tracer,
) -> Result<(Table, SelectStats), String> {
    let span = tr.enter("sql.parse");
    let stmt = parse_statement(&class.sql);
    tr.exit(span);
    match stmt.map_err(|e| e.to_string())? {
        Statement::Select(select) => staged_select(db, &select, class.span, tr),
        _ => Err("not a SELECT".into()),
    }
}

/// What `KathDB::sql` does with a parsed SELECT, made of the same public
/// calls in the same order, with a span around each; `span` names the one
/// around `run_select_auto_guarded`.
pub fn staged_select(
    db: &KathDB,
    select: &Select,
    span: &'static str,
    tr: &mut Tracer,
) -> Result<(Table, SelectStats), String> {
    let strategy = tr.enter("core.select_strategy");
    let (mode, threads) = (db.exec_mode(), db.threads());
    let guard = db.context().limits.guard();
    tr.exit(strategy);
    let snapshotting = tr.enter("storage.txn.snapshot");
    let snapshot = db.context().catalog.snapshot();
    tr.exit(snapshotting);
    let span = tr.enter(span);
    let result = run_select_auto_guarded(
        &snapshot,
        select,
        "sql_result",
        mode,
        threads,
        db.context().vector_mode,
        db.context().compile,
        &guard,
    );
    tr.exit(span);
    result.map_err(|e| e.to_string())
}

/// Buffer-pool counters gained over one round.
fn pool_delta(before: &PoolStatus, after: &PoolStatus) -> [f64; 4] {
    [
        (after.hits - before.hits) as f64,
        (after.misses - before.misses) as f64,
        (after.evictions - before.evictions) as f64,
        (after.zone_skips - before.zone_skips) as f64,
    ]
}

pub fn run(cfg: &RunConfig, layout: Layout) -> Report {
    let mut report = Report::default();
    let inputs = generate(cfg.seed, cfg.size);
    let classes = classes(&inputs);
    let mut oracle = Oracle {
        reference: reference_digests(&inputs, &classes),
        checks: Checks::default(),
    };

    // Set-up as the system sees it: load, page, build the vector index, and
    // warm-up rounds that fill caches and lazy indexes.
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut db = None;
    for _ in 0..SETUP_REPEATS {
        drop(db.take());
        // Timed piece by piece: each piece is scaled by the host speed
        // around it, not by the speed half a second earlier.
        let mut setup = Busy::default();
        let ((mut fresh, ms), _) = setup.time(|| load(&inputs, layout));
        for _ in 0..WARM_UP_ROUNDS {
            let (results, _) = setup.time(|| facade_round(&mut fresh, &classes));
            for result in results {
                result.expect("warm-up statement runs");
            }
        }
        setup_s.push(setup.seconds());
        build_ms.push(ms);
        db = Some(fresh);
    }
    let mut db = db.expect("set-up ran");
    for (key, value) in crate::engine_settings(&db) {
        report.engine.insert(key, value);
    }

    let phases = if cfg.traced { 2 } else { 1 };
    let mut busy = Busy::default();
    let mut round_ms = Vec::new();
    let mut pool_rounds: Vec<[f64; 4]> = Vec::new();
    let mut pace = cfg.budget.split(phases).start();
    while pace.more() {
        let before = db.pool_status();
        let (results, ms) = busy.time(|| facade_round(&mut db, &classes));
        pool_rounds.push(pool_delta(&before, &db.pool_status()));
        round_ms.push(ms);
        oracle.check(round_ms.len(), &classes, &results);
    }
    crate::push_end_to_end(&mut report, &setup_s, &round_ms, &busy);
    report.ops.insert("rounds".into(), round_ms.len() as u64);
    report
        .ops
        .insert("statements".into(), (round_ms.len() * classes.len()) as u64);

    let pool_sum = |i: usize| pool_rounds.iter().map(|r| r[i]).sum::<f64>();
    let pool_median = |i: usize| median(&pool_rounds.iter().map(|r| r[i]).collect::<Vec<_>>());
    let n = pool_rounds.len();
    report.push(
        "storage.pool.hit_rate",
        ratio(pool_sum(0), pool_sum(0) + pool_sum(1)),
        n,
    );
    report.push("storage.pool.misses_per_round", pool_median(1), n);
    report.push("storage.pool.evictions_per_round", pool_median(2), n);
    report.push("storage.pool.zone_skips_per_round", pool_median(3), n);
    report.push(
        "storage.pool.resident_bytes",
        db.pool_status().resident_bytes as f64,
        1,
    );
    report.push(
        "storage.vecindex.build_ms",
        median(&build_ms),
        build_ms.len(),
    );
    for (class, digest) in classes.iter().zip(&oracle.reference) {
        report
            .exact
            .insert(format!("digest.{}", class.name), format!("{digest:016x}"));
    }
    // Pool misses are not here: two morsel workers share one LRU, so which
    // page is evicted depends on how they interleave.
    report
        .exact
        .insert("pool_zone_skips".into(), format!("{}", pool_sum(3)));

    if cfg.traced {
        let mut tr = Tracer::new();
        let mut staged_ms = Vec::new();
        let mut stats: Vec<Vec<SelectStats>> = Vec::new();
        let mut returned = 0usize;
        let mut pace = cfg.budget.split(phases).start();
        while pace.more() {
            tr.next_op();
            let (outcomes, ms) = busy.time(|| {
                let root = tr.enter("sql.round");
                let outcomes: Vec<_> = classes
                    .iter()
                    .map(|c| staged_class(&db, c, &mut tr))
                    .collect();
                tr.exit(root);
                outcomes
            });
            staged_ms.push(ms);
            let mut results = Vec::new();
            let mut round_stats = Vec::new();
            for outcome in outcomes {
                results.push(outcome.map(|(table, s)| {
                    returned += table.len();
                    round_stats.push(s);
                    table
                }));
            }
            stats.push(round_stats);
            oracle.check(staged_ms.len(), &classes, &results);
        }
        let n = staged_ms.len();
        for class in &classes {
            report.push(class.metric, median(&tr.durations_ms(class.span)), n);
        }
        let us = |name: &str| median(&tr.durations_ms(name)) * 1e3;
        report.push("sql.parse_us", us("sql.parse"), n * classes.len());
        report.push(
            "storage.txn.snapshot_ns",
            us("storage.txn.snapshot") * 1e3,
            n * classes.len(),
        );
        report.push("storage.vecindex.topk_us", us("sql.select.vector_topk"), n);
        // Per round: how much of the six statements' work each drive did.
        let per_round = |f: &dyn Fn(&SelectStats) -> f64| {
            median(
                &stats
                    .iter()
                    .map(|round| round.iter().map(f).sum::<f64>())
                    .collect::<Vec<_>>(),
            )
        };
        let all: Vec<&SelectStats> = stats.iter().flatten().collect();
        report.push(
            "sql.compiled_share",
            ratio(
                all.iter().filter(|s| s.compiled).count() as f64,
                all.len() as f64,
            ),
            all.len(),
        );
        report.push("sql.compile_ms", per_round(&|s| s.compile_ms), n);
        report.push(
            "sql.workers",
            mean(&all.iter().map(|s| s.workers as f64).collect::<Vec<_>>()),
            all.len(),
        );
        report.push(
            "sql.worker_busy_ms",
            per_round(&|s| s.worker_ms.iter().sum::<f64>()),
            n,
        );
        report.push("sql.merge_ms", per_round(&|s| s.merge_ms), n);
        report.push("sql.batches", per_round(&|s| s.batches as f64), n);
        let examined: usize = classes.iter().map(|c| c.examined).sum::<usize>() * n;
        report.push(
            "sql.rows_examined_per_row_returned",
            ratio(examined as f64, returned as f64),
            n,
        );
        report.push(
            "trace_overhead",
            ratio(median(&staged_ms), median(&round_ms)),
            n,
        );
        crate::push_unattributed_share(&mut report, &tr, "sql.round");
        report.ops.insert("staged_rounds".into(), n as u64);
        crate::write_trace(cfg, layout.workload(), &tr);

        // The kernels under the statements, each on the workload's own rows.
        match layout {
            Layout::Resident => kernels::exec_kernels(&mut report, &inputs),
            Layout::Paged => kernels::page_kernels(&mut report, &inputs),
        }
    }

    oracle.checks.finish(&mut report);
    report
}
