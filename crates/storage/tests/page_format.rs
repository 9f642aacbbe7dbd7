//! The KPAG v1 page format, pinned from outside the codec.
//!
//! Three contracts:
//!
//! 1. **The format did not move** — every page of [`pages`] encodes to bytes
//!    whose `(len, crc32, fnv1a64)` equal the [`GOLDEN`] line recorded by
//!    running this file against the codec as it stood before the
//!    word-at-a-time rewrite (PR 23), and decodes to the column
//!    `ColumnVector::from_values` builds. Content-addressed `.kpg` names are
//!    exactly that triple, so a line that moves renames every page file on
//!    disk.
//! 2. **One checksum** — `crc32` agrees with the byte-at-a-time loop kept
//!    here at every length and start alignment.
//! 3. **The decoder's own checks** — a payload field mutated *and re-sealed
//!    with a valid CRC* is `StorageError::Corrupt` or a valid column of the
//!    right length, never a panic: the CRC catches accidents, the decoder's
//!    bounds checks catch everything else.

use kath_storage::{
    crc32, decode_page, encode_page, page_encoding_name, ColumnVector, StorageError, Value,
};
use proptest::prelude::*;
use std::sync::OnceLock;

// ---- references kept in the test ------------------------------------------

/// CRC32 (IEEE), one table lookup per byte: the loop `crc32` replaced.
fn crc32_bytewise(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64: the page table must not depend on any crate's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---- the page table -------------------------------------------------------

/// Every seventh slot from the third becomes NULL.
fn with_nulls(mut values: Vec<Value>) -> Vec<Value> {
    for v in values.iter_mut().skip(2).step_by(7) {
        *v = Value::Null;
    }
    values
}

/// 131 ints (two full bitmap words and a ragged third, a bit count that is
/// no multiple of 8) whose frame-of-reference deltas need exactly `width`
/// bits: both the zero delta and the all-ones delta are present.
fn ints_of_width(width: u32, rng: &mut Rng) -> Vec<Value> {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let base: i64 = if width == 64 { i64::MIN } else { -17 };
    let mut out: Vec<Value> = (0..131)
        .map(|_| Value::Int((base as u64).wrapping_add(rng.next() & mask) as i64))
        .collect();
    out[0] = Value::Int(base);
    out[1] = Value::Int((base as u64).wrapping_add(mask) as i64);
    out[130] = Value::Int((base as u64).wrapping_add(mask) as i64);
    out
}

const GENRES: [&str; 6] = ["drama", "comedy", "thriller", "western", "noir", "musical"];
const STUDIOS: [&str; 12] = [
    "Alder", "Birch", "Cedar", "Dogwood", "Elm", "Fir", "Ginkgo", "Hazel", "Ivy", "Juniper", "Koa",
    "Larch",
];

/// `(name, values)` for every page shape the codec specializes on.
fn pages() -> Vec<(String, Vec<Value>)> {
    let mut rng = Rng(24);
    let mut out: Vec<(String, Vec<Value>)> = Vec::new();
    let mut add = |name: &str, values: Vec<Value>| out.push((name.to_string(), values));

    for width in [0, 1, 7, 8, 13, 31, 33, 56, 57, 63, 64] {
        let values = ints_of_width(width, &mut rng);
        add(&format!("int_w{width}"), values.clone());
        add(&format!("int_w{width}_nulls"), with_nulls(values));
    }
    add(
        "int_min_max",
        vec![Value::Int(i64::MIN), Value::Int(i64::MAX)],
    );
    add(
        "int_min_null_max",
        vec![Value::Int(i64::MIN), Value::Null, Value::Int(i64::MAX)],
    );
    add("int_one", vec![Value::Int(42)]);

    let floats: Vec<Value> = [
        0.5,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e308,
        f64::MIN_POSITIVE,
        -2.25,
        0.0,
    ]
    .iter()
    .cycle()
    .take(70)
    .map(|f| Value::Float(*f))
    .collect();
    add("float", floats.clone());
    add("float_nulls", with_nulls(floats));

    let bools: Vec<Value> = (0..131).map(|_| Value::Bool(rng.below(2) == 0)).collect();
    add("bool", bools.clone());
    add("bool_nulls", with_nulls(bools));

    let words = ["", "a", "zeta", "日本語", "naïve café", "🎬"];
    let dict: Vec<Value> = (0..300)
        .map(|_| Value::Str(words[rng.below(words.len() as u64) as usize].to_string()))
        .collect();
    add("dict", dict.clone());
    add("dict_nulls", with_nulls(dict));
    add("dict_one_entry", vec![Value::Str("x".into()); 3]);

    let runs = ["drama", "комедия", "", "noir"];
    let rle: Vec<Value> = (0..300)
        .map(|i| Value::Str(runs[(i / 64) % runs.len()].to_string()))
        .collect();
    add("rle", rle.clone());
    let mut rle_nulls = rle;
    for v in &mut rle_nulls[100..180] {
        *v = Value::Null;
    }
    add("rle_null_runs", rle_nulls);

    let raw: Vec<Value> = (0..200)
        .map(|i| match i % 5 {
            _ if i == 1 => Value::Str(String::new()),
            0 => Value::Str(format!("фильм {i} — «{:x}»", rng.next())),
            _ => Value::Str(format!("u{i}-{:x}", rng.below(1 << 20))),
        })
        .collect();
    add("raw_strings", raw.clone());
    add("raw_strings_nulls", with_nulls(raw));

    add(
        "mixed",
        vec![
            Value::Int(1),
            Value::Str("x".into()),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
            Value::Blob(vec![0, 255, 7]),
            Value::Str("日本".into()),
        ],
    );
    add(
        "blob",
        vec![
            Value::Blob(vec![1, 2, 3]),
            Value::Null,
            Value::Blob(Vec::new()),
            Value::Blob((0..=255).collect()),
        ],
    );
    add("all_null", vec![Value::Null; 64]);
    add("all_null_one", vec![Value::Null]);
    add("empty", Vec::new());

    // A full 4 096-row page of each column shape of the repo benchmark's
    // fact table (`benchmark/src/sql.rs`).
    const ROWS: usize = 4096;
    let ids = |side: u64, rng: &mut Rng| -> Vec<Value> {
        (0..ROWS)
            .map(|_| Value::Int(1 + rng.below(side) as i64))
            .collect()
    };
    add(
        "bench_id",
        (0..ROWS).map(|i| Value::Int(i as i64 + 1)).collect(),
    );
    add(
        "bench_title",
        (0..ROWS)
            .map(|i| Value::Str(format!("Film {:x} {}", rng.below(1 << 20), i + 1)))
            .collect(),
    );
    add(
        "bench_year",
        (0..ROWS)
            .map(|_| Value::Int(1960 + rng.below(65) as i64))
            .collect(),
    );
    add("bench_did", ids(5_000, &mut rng));
    add(
        "bench_rating",
        (0..ROWS)
            .map(|_| Value::Float((rng.below(1001) as f64 / 10.0).round() / 10.0))
            .collect(),
    );
    add(
        "bench_genre",
        (0..ROWS)
            .map(|i| Value::Str(GENRES[(i / 512) % GENRES.len()].to_string()))
            .collect(),
    );
    add(
        "bench_studio",
        (0..ROWS)
            .map(|_| Value::Str(STUDIOS[rng.below(STUDIOS.len() as u64) as usize].to_string()))
            .collect(),
    );
    out
}

/// `name encoding len crc32 fnv1a64`, one line per page of [`pages`], as
/// printed by this test at the parent commit (the assertion below prints
/// the whole table when any line differs).
const GOLDEN: &str = "\
int_w0 int-for 27 d3b9b44b 4a69ca4449554b56\n\
int_w0_nulls int-for 51 aba2a10d 554f1d2658f482f6\n\
int_w1 int-for 44 0ad4390b 1008fe8b8de354f4\n\
int_w1_nulls int-for 68 c37d884d 79a47c5903062c76\n\
int_w7 int-for 142 97cba4dd 0d537c7dd4daeb88\n\
int_w7_nulls int-for 166 bb365f87 b447e5991ce761bd\n\
int_w8 int-for 158 8be1960a 17e3a37f7e0d3211\n\
int_w8_nulls int-for 182 3cafddd6 50a2426e3dddd47d\n\
int_w13 int-for 240 a018e595 8e35069739df25cd\n\
int_w13_nulls int-for 264 e7ae041a 48121bb0e3a7ce89\n\
int_w31 int-for 535 81d377b1 039cf71a9e0559f7\n\
int_w31_nulls int-for 559 b65fc807 1e451f19f5eaa0f2\n\
int_w33 int-for 568 600a9c5d 628e7c3ba53c349a\n\
int_w33_nulls int-for 592 0ca07644 7f13b2e18850b071\n\
int_w56 int-for 944 2cf8f3c3 fc5ee708e1587e27\n\
int_w56_nulls int-for 968 db25e7fa 78699f05afc13599\n\
int_w57 int-for 961 6a4989c5 3b76b30bbb064bad\n\
int_w57_nulls int-for 985 9d567b7a 348bfa2c52a88e44\n\
int_w63 int-for 1059 ca5a6ea2 18d8e8bdff2c84cf\n\
int_w63_nulls int-for 1083 b0569c32 79d94a394c5d5828\n\
int_w64 int-for 1075 f58ecc03 886206f7557a587f\n\
int_w64_nulls int-for 1099 61ebacf6 8b91d28cbf4a0102\n\
int_min_max int-for 43 4fa4c91f e10ce501ed752646\n\
int_min_null_max int-for 59 26be9d50 4aebca297ab7ae23\n\
int_one int-for 27 75b98380 4da31a1ac5e80698\n\
float float64 578 97b2f2b5 1e5a2a87a774bc79\n\
float_nulls float64 594 99c15e13 366a7ceec45d9199\n\
bool bool-bitmap 35 da1d8357 d26385980e217407\n\
bool_nulls bool-bitmap 59 35fa1c31 9d5a543520b91850\n\
dict str-dict 190 5551c789 11ca448be69ff0af\n\
dict_nulls str-dict 230 34c6358e 6385c81bae241254\n\
dict_one_entry str-dict 28 2a8053d5 379d8c0ebdc97470\n\
rle str-rle 95 52ed2c89 c7f6f42e519b10a4\n\
rle_null_runs str-rle 140 82aed374 d37311953da6b05d\n\
raw_strings raw 4042 dbbf61bb 86f26f8e24b5d1ed\n\
raw_strings_nulls raw 3542 874d7c85 d66860bd8b956a01\n\
mixed raw 72 018291c8 668109c371255da6\n\
blob raw 301 871f5b3b ddde53ee60c48bc7\n\
all_null raw 90 948e6105 b8c0617fe4e598b8\n\
all_null_one raw 27 047c2499 1ae67d26ef3d8efc\n\
empty raw 18 7c8ea68f aaca1d1bda5bc2a8\n\
bench_id int-for 6171 8320de77 3ff68a786b121776\n\
bench_title raw 80559 731a92a2 feaf8e3e11257dda\n\
bench_year int-for 3611 7a615998 53d2c2377765b8a4\n\
bench_did int-for 6683 2b8e5c0e 49503ee3e6510402\n\
bench_rating float64 32786 a1691406 f107db6f42d423d4\n\
bench_genre str-rle 142 6fcdb9d7 f1ffb18e0ed82134\n\
bench_studio str-dict 2176 a0f044dc a5b55a40f56738e9\n\
";

/// Column equality that also holds for NaN payloads (`f64` equality does
/// not): Float columns compare bit for bit.
fn assert_same_column(got: &ColumnVector, want: &ColumnVector, name: &str) {
    match (got.as_floats(), want.as_floats()) {
        (Some(a), Some(b)) => {
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{name}: float payload");
            assert_eq!(got.nulls(), want.nulls(), "{name}: null bitmap");
        }
        _ => assert_eq!(got, want, "{name}: decoded column"),
    }
}

#[test]
fn the_format_did_not_move() {
    let mut table = String::new();
    for (name, values) in pages() {
        let (bytes, zone) = encode_page(&values).expect("page encodes");
        assert_eq!(zone.rows as usize, values.len(), "{name}");
        let enc = page_encoding_name(&bytes).expect("own page parses");
        let crc = crc32_bytewise(&bytes);
        assert_eq!(crc32(&bytes), crc, "{name}: crc32 vs the bytewise loop");
        table.push_str(&format!(
            "{name} {enc} {} {crc:08x} {:016x}\n",
            bytes.len(),
            fnv1a64(&bytes)
        ));
        let decoded = decode_page(&bytes).expect("own page decodes");
        assert_eq!(decoded.len(), values.len(), "{name}");
        assert_same_column(&decoded, &ColumnVector::from_values(values.clone()), &name);
        assert_eq!(decoded.null_count(), zone.null_count as usize, "{name}");
    }
    assert!(
        table == GOLDEN,
        "encoded pages differ from the recorded table; now:\n{table}"
    );
}

// ---- one checksum ---------------------------------------------------------

#[test]
fn crc32_matches_the_check_value() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every length 0..=300 at each of eight consecutive start offsets (so
    /// every alignment of the first byte, and of the ragged tail, modulo 8).
    #[test]
    fn crc32_agrees_with_the_bytewise_loop(data in prop::collection::vec(any::<u8>(), 308..309)) {
        for start in 0..8 {
            for len in 0..=300 {
                let window = &data[start..start + len];
                prop_assert_eq!(crc32(window), crc32_bytewise(window), "start {} len {}", start, len);
            }
        }
    }
}

// ---- the decoder's own checks ---------------------------------------------

/// A page taken apart at its field boundaries, so a test can edit one field
/// and [`Frame::seal`] the result under a valid CRC.
#[derive(Clone)]
struct Frame {
    /// Magic, version, rows, encoding, null count: 14 bytes.
    head: Vec<u8>,
    /// The null words, when the null count is not 0.
    nulls: Vec<u8>,
    payload: Vec<u8>,
}

fn be32(bytes: &[u8]) -> u32 {
    u32::from_be_bytes(bytes[..4].try_into().unwrap())
}

impl Frame {
    fn open(bytes: &[u8]) -> Frame {
        let (rows, null_count) = (be32(&bytes[5..]) as usize, be32(&bytes[10..]));
        let words = if null_count > 0 {
            rows.div_ceil(64) * 8
        } else {
            0
        };
        Frame {
            head: bytes[..14].to_vec(),
            nulls: bytes[14..14 + words].to_vec(),
            payload: bytes[14 + words..bytes.len() - 4].to_vec(),
        }
    }

    /// The page of `name` in [`pages`], opened.
    fn of(name: &str) -> Frame {
        let (_, values) = pages().into_iter().find(|(n, _)| n == name).unwrap();
        Frame::open(&encode_page(&values).unwrap().0)
    }

    fn rows(&self) -> u32 {
        be32(&self.head[5..])
    }

    fn set_rows(&mut self, rows: u32) {
        self.head[5..9].copy_from_slice(&rows.to_be_bytes());
    }

    fn set_null_count(&mut self, n: u32) {
        self.head[10..14].copy_from_slice(&n.to_be_bytes());
    }

    fn put32(&mut self, at: usize, v: u32) {
        self.payload[at..at + 4].copy_from_slice(&v.to_be_bytes());
    }

    fn seal(&self) -> Vec<u8> {
        let mut bytes = [&self.head[..], &self.nulls, &self.payload].concat();
        bytes.extend(crc32_bytewise(&bytes).to_be_bytes());
        bytes
    }

    /// Decodes the sealed frame. `Corrupt` is `None`; a column must have the
    /// frame's row count and give up every slot; anything else — another
    /// error kind, a panic — fails the test.
    fn decode(&self) -> Option<ColumnVector> {
        match decode_page(&self.seal()) {
            Ok(col) => {
                assert_eq!(col.len(), self.rows() as usize, "wrong length");
                assert_eq!(col.to_values().len(), col.len());
                Some(col)
            }
            Err(StorageError::Corrupt(_)) => None,
            Err(other) => panic!("not a Corrupt error: {other:?}"),
        }
    }

    fn assert_corrupt(&self, what: &str) {
        assert!(self.decode().is_none(), "{what}: decoded");
    }
}

/// Offset of the code-width byte of a dictionary payload, and of each
/// entry's length field.
fn dict_layout(payload: &[u8]) -> (usize, Vec<usize>) {
    let mut at = 4;
    let mut entries = Vec::new();
    for _ in 0..be32(payload) {
        entries.push(at);
        at += 4 + be32(&payload[at..]) as usize;
    }
    (at, entries)
}

/// Offset of each run of a run-length payload: `(run, Some(string length
/// field))`, `None` for a NULL run.
fn rle_layout(payload: &[u8]) -> Vec<(usize, Option<usize>)> {
    let mut at = 4;
    let mut runs = Vec::new();
    for _ in 0..be32(payload) {
        if payload[at + 4] != 0 {
            runs.push((at, None));
            at += 5;
        } else {
            runs.push((at, Some(at + 5)));
            at += 9 + be32(&payload[at + 5..]) as usize;
        }
    }
    runs
}

/// The pages the mutation tests start from: every encoding, with NULLs.
const MUTATED: [&str; 8] = [
    "int_w13_nulls",
    "float_nulls",
    "bool_nulls",
    "dict_nulls",
    "rle_null_runs",
    "raw_strings_nulls",
    "mixed",
    "blob",
];

#[test]
fn resealed_header_mutations_are_corrupt() {
    for name in MUTATED {
        let frame = Frame::of(name);
        assert!(frame.decode().is_some(), "{name}: untouched frame");
        let rows = frame.rows();

        let mut m = frame.clone();
        m.payload.push(0);
        m.assert_corrupt(&format!("{name}: trailing byte"));

        let mut m = frame.clone();
        m.set_null_count(rows + 1);
        m.assert_corrupt(&format!("{name}: null count > rows"));

        // A null count the bitmap does not bear out.
        let wrong = if be32(&frame.head[10..]) == 1 { 2 } else { 1 };
        let mut m = frame.clone();
        m.set_null_count(wrong);
        m.assert_corrupt(&format!("{name}: null count {wrong}"));

        // More rows than the payload can hold, or than any page may.
        for claimed in [rows + 64, 1 << 28, (1 << 28) + 1, u32::MAX] {
            let mut m = frame.clone();
            m.set_rows(claimed);
            m.assert_corrupt(&format!("{name}: {claimed} rows claimed"));
        }
        // A row or so off can be a shorter or longer page that is valid in
        // its own right (a bit-packed stream has slack bits): then it must
        // have the claimed length.
        for claimed in [0, 1, rows - 1, rows + 1] {
            let mut m = frame.clone();
            m.set_rows(claimed);
            m.decode();
        }

        let mut m = frame.clone();
        m.head[9] = 6;
        m.assert_corrupt(&format!("{name}: unknown encoding"));
    }
}

#[test]
fn resealed_int_for_mutations() {
    let frame = Frame::of("int_w13_nulls");
    for width in [65u8, 255] {
        let mut m = frame.clone();
        m.payload[8] = width;
        m.assert_corrupt("int-for width > 64");
    }
    // A wider or narrower width than the payload was packed at: the packed
    // stream is then too short or too long.
    for width in [0u8, 12, 14, 64] {
        let mut m = frame.clone();
        m.payload[8] = width;
        m.assert_corrupt("int-for width off");
    }
    // The frame's base is data, not structure: any value decodes.
    let mut m = frame.clone();
    m.payload[..8].copy_from_slice(&i64::MAX.to_be_bytes());
    assert_eq!(
        m.decode().unwrap().null_count(),
        frame.decode().unwrap().null_count()
    );
}

#[test]
fn resealed_dictionary_mutations() {
    let frame = Frame::of("dict_nulls");
    let rows = frame.rows();
    let (width_at, entries) = dict_layout(&frame.payload);
    assert_eq!((entries.len(), frame.payload[width_at]), (6, 3));

    for size in [0, rows + 1, u32::MAX] {
        let mut m = frame.clone();
        m.put32(0, size);
        m.assert_corrupt("dictionary size 0 or > rows");
    }
    // One entry fewer or more than there are: the width byte is then read
    // from inside an entry, or an entry from the codes.
    for size in [5, 7] {
        let mut m = frame.clone();
        m.put32(0, size);
        m.assert_corrupt("dictionary size off by one");
    }
    for width in [65u8, 255] {
        let mut m = frame.clone();
        m.payload[width_at] = width;
        m.assert_corrupt("dictionary code width > 64");
    }
    // Codes 6 and 7 fit the 3-bit width and name no entry.
    for code in [6u8, 7] {
        let mut m = frame.clone();
        m.payload[width_at + 1] = (m.payload[width_at + 1] & !0b111) | code;
        m.assert_corrupt("dictionary code out of range");
    }
    for &entry in &entries {
        let mut m = frame.clone();
        m.put32(entry, u32::MAX);
        m.assert_corrupt("dictionary entry longer than the payload");
        let mut m = frame.clone();
        m.put32(entry, be32(&frame.payload[entry..]) + 1);
        m.assert_corrupt("dictionary entry one byte longer");
    }
    // "zeta" → an invalid UTF-8 byte in a dictionary entry.
    let zeta = frame.payload.windows(4).position(|w| w == b"zeta").unwrap();
    let mut m = frame.clone();
    m.payload[zeta + 1] = 0xFF;
    m.assert_corrupt("invalid UTF-8 in a dictionary entry");
    // A multi-byte character cut in two by a shorter length, the next
    // entry's length field then being garbage.
    let mut m = frame.clone();
    let kanji = entries[5];
    m.put32(kanji, be32(&frame.payload[kanji..]) - 1);
    m.assert_corrupt("dictionary entry cut inside a character");
}

#[test]
fn resealed_run_length_mutations() {
    let frame = Frame::of("rle_null_runs");
    let rows = frame.rows();
    let runs = rle_layout(&frame.payload);
    assert!(runs.iter().any(|r| r.1.is_none()) && runs.len() > 3);

    for count in [
        0,
        runs.len() as u32 - 1,
        runs.len() as u32 + 1,
        rows + 1,
        u32::MAX,
    ] {
        let mut m = frame.clone();
        m.put32(0, count);
        m.assert_corrupt("run count off");
    }
    for &(run, string) in &runs {
        let len = be32(&frame.payload[run..]);
        for claimed in [0, len - 1, len + 1, rows, u32::MAX] {
            let mut m = frame.clone();
            m.put32(run, claimed);
            m.assert_corrupt("runs short of or past the row count");
        }
        // A run's nullness flipped: the payload no longer parses, or it
        // disagrees with the page's null words.
        let mut m = frame.clone();
        m.payload[run + 4] ^= 1;
        m.assert_corrupt("run nullness flipped");
        if let Some(at) = string {
            let mut m = frame.clone();
            m.put32(at, u32::MAX);
            m.assert_corrupt("run string longer than the payload");
            if be32(&frame.payload[at..]) > 0 {
                let mut m = frame.clone();
                m.payload[at + 4] = 0xFF;
                m.assert_corrupt("invalid UTF-8 in a run");
            }
        }
    }
    // Two neighbouring runs trading a row keep the count and the strings
    // valid; only the null words can tell. (Run 1 is "drama"/"комедия".)
    let null_run = runs.iter().position(|r| r.1.is_none()).unwrap();
    let mut m = frame.clone();
    let (a, b) = (runs[null_run - 1].0, runs[null_run].0);
    m.put32(a, be32(&frame.payload[a..]) + 1);
    m.put32(b, be32(&frame.payload[b..]) - 1);
    m.assert_corrupt("a NULL run one row short, its neighbour one long");
}

#[test]
fn resealed_raw_string_mutations() {
    let frame = Frame::of("raw_strings_nulls");
    // Walk the tagged values: 0 = NULL, 3 = string (u32 length, bytes).
    let mut at = 0;
    let mut strings = Vec::new();
    while at < frame.payload.len() {
        match frame.payload[at] {
            0 => at += 1,
            3 => {
                strings.push(at);
                at += 5 + be32(&frame.payload[at + 1..]) as usize;
            }
            tag => panic!("tag {tag} in a string page"),
        }
    }
    for &s in strings.iter().step_by(7) {
        let len = be32(&frame.payload[s + 1..]);
        for claimed in [len + 1, u32::MAX] {
            let mut m = frame.clone();
            m.put32(s + 1, claimed);
            m.assert_corrupt("string length past the payload");
        }
        if len > 0 {
            let mut m = frame.clone();
            m.payload[s + 5] = 0xC0;
            m.assert_corrupt("invalid UTF-8 in a raw string");
        }
        // A string turned NULL, or into a tag nobody wrote.
        for tag in [0u8, 6, 255] {
            let mut m = frame.clone();
            m.payload[s] = tag;
            m.assert_corrupt("value tag changed");
        }
    }
    // A string page whose last value is an int leaves the typed route for
    // the generic one and still reads exactly.
    let mut values: Vec<Value> = (0..50).map(|i| Value::Str(format!("s{i}"))).collect();
    values.push(Value::Null);
    values.push(Value::Int(7));
    let (bytes, _) = encode_page(&values).unwrap();
    assert_eq!(page_encoding_name(&bytes), Some("raw"));
    assert_eq!(
        decode_page(&bytes).unwrap(),
        ColumnVector::from_values(values)
    );
}

/// Whatever one byte of the body is overwritten with, wherever the body is
/// cut, and whatever byte is spliced in, a re-sealed page is `Corrupt` or a
/// column of the claimed length whose every slot reads — never a panic.
#[test]
fn resealed_byte_sweeps_never_panic() {
    for name in MUTATED {
        let frame = Frame::of(name);
        let (mut corrupt, mut valid) = (0usize, 0usize);
        let mut probe = |m: &Frame| match m.decode() {
            Some(_) => valid += 1,
            None => corrupt += 1,
        };
        for at in 0..frame.payload.len() {
            for byte in [0x00, 0x01, 0x7F, 0x80, 0xFF] {
                let mut m = frame.clone();
                m.payload[at] = byte;
                probe(&m);
            }
            let mut m = frame.clone();
            m.payload.truncate(at);
            probe(&m);
            let mut m = frame.clone();
            m.payload.insert(at, 0x03);
            probe(&m);
        }
        for at in 0..frame.nulls.len() {
            let mut m = frame.clone();
            m.nulls[at] ^= 0x10;
            probe(&m);
        }
        // Data bytes may change freely; structure bytes may not: both
        // outcomes must occur on every page that has a structure at all.
        assert!(corrupt > 0, "{name}: no mutation was caught");
        assert!(valid > 0, "{name}: every mutation was caught");
    }
}
