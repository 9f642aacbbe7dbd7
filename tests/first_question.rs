//! The first question of a handle pays for each thing once
//! (docs/execution.md, "What a first question still costs") — and answers
//! exactly what it answered when it paid several times. The digests below
//! were recorded at the commit before media sampling, the pending-input
//! estimate, the hashed embedder and the columnar lineage store went in;
//! everything a caller can see of the benchmark's twelve questions (three
//! sessions of four on the 1 000-movie corpus, seed 1, every variant once
//! as a first and three times as a later question) must still hash to them.

use kath_data::{generate_corpus, CorpusSpec};
use kath_model::ScriptedChannel;
use kathdb::KathDB;
use std::fmt::Write;

const CLARIFICATION: &str = "The movie plot contains scenes that are uncommon in real life";
const BORING: &str = "Sort the given films in the table by how exciting they are, \
                      but the poster should be 'boring'";
const NOT_BORING: &str = "Sort the given films in the table by how exciting they are, \
                          but the poster should not be 'boring'";

/// The benchmark's three ways of asking.
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

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// What one question leaves behind, `ts` and wall-clock aside.
struct Seen {
    /// `(id, score)` of the answer, in answer order.
    scores: u64,
    /// The answer table, every column and every lid.
    answer: u64,
    /// `lineage_table()` without `ts`.
    lineage: u64,
    /// Repairs, anomalies, reused nodes, and the registry: every function's
    /// versions, the active one and its body.
    events: u64,
    lineage_rows: usize,
    rows_out: usize,
    model_calls: u64,
    tokens: u64,
}

fn ask(db: &mut KathDB, variant: usize) -> Seen {
    let (question, replies) = VARIANTS[variant];
    let channel = ScriptedChannel::new(replies.iter().copied());
    let before = db.token_usage();
    let result = db.query(question, channel.as_ref()).unwrap();
    let spent = db.token_usage();

    let schema = result.table.schema();
    let id = schema.index_of("id").unwrap();
    let score = (schema.index_of("final_score"))
        .or_else(|| schema.index_of("excitement_score"))
        .unwrap();
    let (mut scores, mut answer) = (String::new(), String::new());
    for row in result.table.rows() {
        let bits = row[score].as_f64().unwrap().to_bits();
        write!(scores, "{}:{bits:x};", row[id].as_int().unwrap()).unwrap();
        writeln!(answer, "{row:?}").unwrap();
    }
    let mut lineage = String::new();
    for row in db.lineage_table().unwrap().rows() {
        writeln!(lineage, "{:?}", &row[..row.len() - 1]).unwrap();
    }
    let mut events = String::new();
    writeln!(events, "{:?}", result.exec.repairs).unwrap();
    writeln!(events, "{:?}", result.exec.anomalies).unwrap();
    let reused: Vec<&str> = result.exec.reused_nodes().collect();
    writeln!(events, "{reused:?}").unwrap();
    let mut functions = db.registry().names();
    functions.sort_unstable();
    for func in functions {
        let entry = db.registry().get(func).unwrap();
        let active = entry.active_version();
        let versions = entry.versions.len();
        writeln!(
            events,
            "{func} {versions} {} {:?}",
            active.ver_id, active.body
        )
        .unwrap();
    }
    Seen {
        scores: fnv1a(&scores),
        answer: fnv1a(&answer),
        lineage: fnv1a(&lineage),
        events: fnv1a(&events),
        lineage_rows: db.context().lineage.len(),
        rows_out: result.table.len(),
        model_calls: spent.calls - before.calls,
        tokens: spent.total() - before.total(),
    }
}

/// `(variant, scores, answer, lineage, events, lineage rows so far, answer
/// rows)` of one question.
type Recorded = (usize, u64, u64, u64, u64, usize, usize);

/// Per session, per question — recorded at the parent commit.
#[rustfmt::skip]
const PARENT: [[Recorded; 4]; 3] = [
    [
        (1, 0x7071ac5c569a2431, 0x7c9b84856a0f1821, 0x29034849933e1601, 0x91b88943d5c31672, 13319, 638),
        (2, 0x9847499584e8c34b, 0xfa229d510cba3b32, 0xa3ad19f12a718dd2, 0xc67e5bbc8030a6aa, 13684, 362),
        (0, 0x2357963d445ac535, 0x8099bc0d511cc23, 0x28ca1253c260a4c1, 0x8857adda248afb84, 14325, 638),
        (1, 0x7071ac5c569a2431, 0xcf9bdfd519314bf2, 0x4aeb7c7bdfc80cb5, 0xe8c9adafd3de23b, 14328, 638),
    ],
    [
        (2, 0x9847499584e8c34b, 0x909de75f8427e0cd, 0x626677785feebd0b, 0xf90f631456ac9cd7, 11040, 362),
        (0, 0x2357963d445ac535, 0x99f65801ff518194, 0xe5c9527a45fd18fd, 0xed5ec34a4a81536a, 11681, 638),
        (1, 0x7071ac5c569a2431, 0xa29a024c4b03286e, 0x6601dd76263dd0d0, 0xb16045bc537aa1ea, 13686, 638),
        (2, 0x9847499584e8c34b, 0x774db6d9fcc863cb, 0x217ba178a98b5f4f, 0x434e92ab4666dc1c, 14051, 362),
    ],
    [
        (0, 0x2357963d445ac535, 0x81971e765bd23b7a, 0x32c97fe42abb5025, 0x635e437a9fa882d4, 11316, 638),
        (1, 0x7071ac5c569a2431, 0x74e9b036e97c765b, 0x20d95e33cca01db9, 0xb7ccbb4f1fc3c772, 13321, 638),
        (2, 0x9847499584e8c34b, 0x427fbdf089ec24e7, 0x22b28bf34f2346c1, 0xe9963b7c2031aebd, 13686, 362),
        (0, 0x2357963d445ac535, 0x481e0545cf817998, 0xe9a6863bb365c4c2, 0xf06d1a3994fee7cb, 14327, 638),
    ],
];

/// Per question: model calls and tokens at the parent commit.
#[rustfmt::skip]
const PARENT_CALLS_TOKENS: [[(u64, u64); 4]; 3] = [
    [
        (4997, 3641144),
        (36, 12281),
        (36, 12279),
        (38, 12333),
    ],
    [
        (4995, 3641092),
        (36, 12279),
        (38, 12333),
        (36, 12281),
    ],
    [
        (4995, 3641090),
        (38, 12333),
        (36, 12281),
        (36, 12279),
    ],
];

/// What a first question no longer spends: its compile populated the sample
/// context's scene views from all 979 decodable posters of the corpus — one
/// vision call each — and now reads the four its sampled rows name. 975
/// calls and the tokens they were charged; nothing else moved.
const SAVED: (u64, u64) = (975, 1_111_500);

#[test]
fn twelve_questions_leave_what_they_left_at_the_parent_commit() {
    let corpus = generate_corpus(&CorpusSpec {
        movies: 1000,
        heic_fraction: 0.02,
        seed: 1,
        ..CorpusSpec::default()
    });
    let decodable = corpus.images.iter().filter(|i| i.format.is_supported());
    assert_eq!(decodable.count() as u64, SAVED.0 + 4);
    for (session, expected) in PARENT.iter().enumerate() {
        let mut db = KathDB::new(42);
        db.load_corpus(&corpus).unwrap();
        for (position, expected) in expected.iter().enumerate() {
            // The benchmark's rotation at seed 1.
            let variant = (1 + session + position) % VARIANTS.len();
            let seen = ask(&mut db, variant);
            let at = format!("session {session}, question {position}");
            let got = (
                variant,
                seen.scores,
                seen.answer,
                seen.lineage,
                seen.events,
                seen.lineage_rows,
                seen.rows_out,
            );
            assert_eq!(got, *expected, "{at}");
            let (parent_calls, parent_tokens) = PARENT_CALLS_TOKENS[session][position];
            let saved = if position == 0 { SAVED } else { (0, 0) };
            assert_eq!(seen.model_calls, parent_calls - saved.0, "{at}");
            assert_eq!(seen.tokens, parent_tokens - saved.1, "{at}");
        }
    }
}
