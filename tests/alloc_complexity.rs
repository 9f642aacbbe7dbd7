//! Allocation complexity is a checked property: a statement on the SELECT
//! path allocates per batch, not per row.
//!
//! At one worker, the heap allocations a statement makes are deterministic
//! and the same on any host, so a per-row cost shows as a count, not as a
//! timing that drifts with the machine. This binary installs its own
//! counting allocator (counting per thread, so tests running side by side
//! do not see each other) and runs each statement class of the repo
//! benchmark's `sql_resident` round, a float `SUM`/`AVG`, an `ORDER BY`
//! without `LIMIT`, a `SELECT DISTINCT` and the first NL question at two
//! sizes: 10 k and 100 k fact rows, 100 and 1 000 movies. The count of
//! each class's second run at the large size must stay within its budget
//! of allocations per 1 024 input rows plus a constant.
//!
//! A ratio between the two sizes could not tell a per-row cost from a
//! per-batch one (both grow tenfold), hence the per-row budget. A class
//! that is over its budget is written down in `alloc-baseline.json`, with
//! its measured count as an upper bound and the roadmap item that fixes
//! it; the file only shrinks: an entry whose class fits its budget must be
//! deleted.
//!
//! `make alloc-report` prints allocations per input and per output row for
//! every class (the ignored `alloc_report` test).

use kath_data::{generate_corpus, CorpusSpec};
use kath_model::ScriptedChannel;
use kath_storage::{encode_embedding, DataType, Schema, Table, Value, VectorMode};
use kath_vector::embed_query;
use kathdb::KathDB;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation made by
/// the calling thread.
struct Counting;

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each upholds `GlobalAlloc`'s contract exactly as `System`
// does; counting only bumps a thread-local `Cell`, which neither allocates
// nor unwinds (`try_with` skips a thread whose locals are gone).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Allocations per 1 024 input rows a class may make at the large size.
const PER_1024_ROWS: u64 = 64;
/// What a statement may allocate whatever its input: parsing, planning,
/// the plan's schemas and the result table's first group.
const CONSTANT: u64 = 1_500;
/// The first NL question's own budget, per 1 024 movies, from its first
/// measurement: every semantic node calls a model per movie, and the
/// prompts, completions and lineage rows are strings.
const NL_PER_1024_MOVIES: u64 = 106_000;

const GENRES: [&str; 6] = ["drama", "comedy", "thriller", "western", "noir", "musical"];
const STUDIOS: [&str; 12] = [
    "Alder", "Birch", "Cedar", "Dogwood", "Elm", "Fir", "Ginkgo", "Hazel", "Ivy", "Juniper", "Koa",
    "Larch",
];
const PLOT_WORDS: [&str; 8] = [
    "gun", "murder", "chase", "escape", "tea", "garden", "quiet", "letters",
];

/// A 64-bit LCG: the tables are the same on every run.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = (self.0.wrapping_mul(6364136223846793005)).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// A handle over the benchmark's three tables: `rows` fact rows (the
/// column shapes of `sql_resident`: ints, a string per row, a float, a
/// run-length and a dictionary string column), a poster and a plot table
/// of `rows / 10` each, pinned to one worker. The plot table is searched
/// exactly (flat): the IVF structure is derived state built on the first
/// search, and an unoptimized build spends seconds on its k-means.
fn sql_handle(rows: usize) -> KathDB {
    let side = rows / 10;
    let mut rng = Lcg(7);
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
    for i in 0..rows {
        let id = i as i64 + 1;
        movies
            .push(vec![
                id.into(),
                format!("Film {:x} {id}", rng.below(1 << 20)).into(),
                (1960 + rng.below(65) as i64).into(),
                (1 + rng.below(side as u64) as i64).into(),
                (1 + rng.below(side as u64) as i64).into(),
                Value::Float(rng.below(100) as f64 / 10.0),
                GENRES[(i / 512) % GENRES.len()].into(),
                STUDIOS[rng.below(STUDIOS.len() as u64) as usize].into(),
            ])
            .unwrap();
    }
    let mut posters = Table::new(
        "poster_table",
        Schema::of(&[("vid", DataType::Int), ("boring", DataType::Bool)]),
    );
    let mut plots = Table::new(
        "plot_table",
        Schema::of(&[("did", DataType::Int), ("emb", DataType::Blob)]),
    );
    for i in 0..side {
        let id = i as i64 + 1;
        posters
            .push(vec![id.into(), Value::Bool(rng.below(2) == 0)])
            .unwrap();
        let words: Vec<&str> = (0..4)
            .map(|_| PLOT_WORDS[rng.below(PLOT_WORDS.len() as u64) as usize])
            .collect();
        let emb = encode_embedding(&embed_query(&words.join(" ")));
        plots.push(vec![id.into(), Value::Blob(emb)]).unwrap();
    }
    let mut db = KathDB::new(42);
    for (table, uri) in [
        (movies, "alloc://movie_table"),
        (posters, "alloc://poster_table"),
        (plots, "alloc://plot_table"),
    ] {
        db.load_table(table, uri).unwrap();
    }
    db.build_vector_index("plot_table", "emb").unwrap();
    db.set_parallelism(1);
    db.set_vector_mode(VectorMode::Flat);
    db
}

/// One statement class: its SQL at a fact-table size, and the rows of the
/// tables it reads.
struct Class {
    name: &'static str,
    sql: fn(usize) -> String,
    input: fn(usize) -> usize,
}

fn fact(rows: usize) -> usize {
    rows
}

fn fact_and_side(rows: usize) -> usize {
    rows + rows / 10
}

fn side(rows: usize) -> usize {
    rows / 10
}

const SQL_CLASSES: [Class; 9] = [
    Class {
        name: "scan_sel01",
        sql: |rows| {
            format!(
                "SELECT id, title, year FROM movie_table WHERE id <= {}",
                rows / 100
            )
        },
        input: fact,
    },
    Class {
        name: "scan_sel50",
        sql: |_| {
            "SELECT id, year - 1960 AS age, rating * 2 AS r2 FROM movie_table WHERE year >= 1993"
                .into()
        },
        input: fact,
    },
    Class {
        name: "agg_group",
        sql: |rows| {
            format!(
                "SELECT year, COUNT(*) AS n, AVG(vid) AS r FROM movie_table \
                 WHERE id > {} GROUP BY year ORDER BY year",
                rows / 10
            )
        },
        input: fact,
    },
    // One-decimal ratings: most additions round, so every group's exact
    // sum spills out of its plain `f64`.
    Class {
        name: "agg_float",
        sql: |_| {
            "SELECT studio, SUM(rating) AS s, AVG(rating) AS a FROM movie_table GROUP BY studio"
                .into()
        },
        input: fact,
    },
    Class {
        name: "sort_limit",
        sql: |_| {
            "SELECT id, title, year FROM movie_table WHERE year >= 2015 \
             ORDER BY year DESC, id LIMIT 100"
                .into()
        },
        input: fact,
    },
    Class {
        name: "join_probe",
        sql: |_| {
            "SELECT id, title, boring FROM movie_table \
             JOIN poster_table ON movie_table.vid = poster_table.vid \
             WHERE year >= 2010 AND boring = TRUE"
                .into()
        },
        input: fact_and_side,
    },
    Class {
        name: "vector_topk",
        sql: |_| {
            "SELECT did FROM plot_table ORDER BY SIMILARITY(emb, 'gun chase') DESC LIMIT 10".into()
        },
        input: side,
    },
    Class {
        name: "order_by",
        sql: |_| "SELECT id, title, year FROM movie_table ORDER BY year DESC, id".into(),
        input: fact,
    },
    Class {
        name: "distinct",
        sql: |_| "SELECT DISTINCT studio, year FROM movie_table".into(),
        input: fact,
    },
];

/// What one class did at one size: input rows, output rows, allocations
/// of its second run.
#[derive(Debug, Clone, Copy)]
struct Measured {
    input: usize,
    output: usize,
    allocations: u64,
}

/// The second run of every SQL class over a handle of `rows` fact rows.
fn measure_sql(rows: usize) -> Vec<(&'static str, Measured)> {
    let mut db = sql_handle(rows);
    SQL_CLASSES
        .iter()
        .map(|class| {
            let sql = (class.sql)(rows);
            db.sql(&sql).unwrap();
            let (allocations, out) = allocations(|| db.sql(&sql).unwrap());
            let measured = Measured {
                input: (class.input)(rows),
                output: out.len(),
                allocations,
            };
            (class.name, measured)
        })
        .collect()
}

const CLARIFICATION: &str = "The movie plot contains scenes that are uncommon in real life";
const BORING: &str = "Sort the given films in the table by how exciting they are, \
                      but the poster should be 'boring'";

/// The first question of a one-worker handle over a corpus of `movies`.
fn measure_nl(movies: usize) -> Measured {
    let corpus = generate_corpus(&CorpusSpec {
        movies,
        heic_fraction: 0.02,
        seed: 1,
        ..CorpusSpec::default()
    });
    let mut db = KathDB::new(42);
    db.load_corpus(&corpus).unwrap();
    db.set_parallelism(1);
    let channel = ScriptedChannel::new([CLARIFICATION, "OK"]);
    let (allocations, result) = allocations(|| db.query(BORING, channel.as_ref()).unwrap());
    Measured {
        input: movies,
        output: result.table.len(),
        allocations,
    }
}

/// `alloc-baseline.json`: class → (allocations at the large size, the item
/// that fixes it).
fn baseline() -> Vec<(String, u64, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/alloc-baseline.json");
    let text = std::fs::read_to_string(path).unwrap();
    let json = kath_json::parse(&text).unwrap();
    let classes = json.get("classes").and_then(|c| c.as_object()).unwrap();
    classes
        .iter()
        .map(|(name, entry)| {
            let count = entry.get("allocations").and_then(|n| n.as_i64()).unwrap();
            let fix = entry.get("fixed_by").and_then(|f| f.as_str()).unwrap();
            (name.to_string(), count as u64, fix.to_string())
        })
        .collect()
}

/// The budget of a class at `input` rows.
fn budget(name: &str, input: usize) -> u64 {
    let per_1024 = match name {
        "nl_question" => NL_PER_1024_MOVIES,
        _ => PER_1024_ROWS,
    };
    (per_1024 * input as u64).div_ceil(1024) + CONSTANT
}

/// Checks every class measured at the large size against its budget or its
/// baseline entry; returns the failures.
fn judge(large: &[(&str, Measured)]) -> Vec<String> {
    let baseline = baseline();
    let mut failures = Vec::new();
    for (name, m) in large {
        let allowed = budget(name, m.input);
        let entry = baseline.iter().find(|(class, ..)| class == name);
        match entry {
            None if m.allocations > allowed => failures.push(format!(
                "{name}: {} allocations over {} input rows, budget {allowed} \
                 ({} per 1 024 rows)",
                m.allocations,
                m.input,
                m.allocations * 1024 / m.input as u64
            )),
            Some((_, recorded, fix)) if m.allocations > *recorded => failures.push(format!(
                "{name}: {} allocations, above its baseline entry of {recorded} ({fix})",
                m.allocations
            )),
            Some((_, recorded, _)) if m.allocations <= allowed => failures.push(format!(
                "{name}: {} allocations fit the budget of {allowed}: delete its baseline \
                 entry ({recorded})",
                m.allocations
            )),
            _ => {}
        }
    }
    for (class, ..) in &baseline {
        if !large.iter().any(|(name, _)| name == class) {
            failures.push(format!("baseline names {class}, which is no class here"));
        }
    }
    failures
}

#[test]
fn sql_classes_allocate_per_batch_not_per_row() {
    let large = measure_sql(100_000);
    let failures: Vec<String> = judge(&large)
        .into_iter()
        .filter(|f| !f.starts_with("nl_question") && !f.contains("baseline names nl_question"))
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn the_first_question_allocates_within_its_budget() {
    let large = [("nl_question", measure_nl(1000))];
    let failures: Vec<String> = judge(&large)
        .into_iter()
        .filter(|f| !f.starts_with("baseline names"))
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// `make alloc-report`: allocations per input and per output row of every
/// class at both sizes.
#[test]
#[ignore = "a report, run by `make alloc-report`"]
fn alloc_report() {
    let mut all: Vec<(&str, Measured, Measured)> = Vec::new();
    let (small, large) = (measure_sql(10_000), measure_sql(100_000));
    for ((name, s), (_, l)) in small.into_iter().zip(large) {
        all.push((name, s, l));
    }
    all.push(("nl_question", measure_nl(100), measure_nl(1000)));
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>12} {:>14} {:>10}",
        "class", "small", "large", "per 1024 in", "per out row", "budget", "large in"
    );
    for (name, s, l) in all {
        let per_out = match l.output {
            0 => "-".to_string(),
            n => format!("{:.2}", l.allocations as f64 / n as f64),
        };
        println!(
            "{name:<12} {:>10} {:>10} {:>12.1} {:>12} {:>14} {:>10}",
            s.allocations,
            l.allocations,
            l.allocations as f64 * 1024.0 / l.input as f64,
            per_out,
            budget(name, l.input),
            l.input,
        );
    }
}
