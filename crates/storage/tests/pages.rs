//! Property tests for the column-page codec and the buffer pool.
//!
//! Two contracts are pinned here:
//!
//! 1. **Codec round-trip** — `decode_page(encode_page(v)) == v` for every
//!    value shape the encodings specialize on: NULL-heavy columns, empty
//!    pages, single values, low-cardinality strings (dictionary), runs
//!    (RLE), max-cardinality strings (every value distinct), extreme
//!    integers, and mixed-type pages that fall back to raw.
//! 2. **Pool-size independence** — a paged table behind a pool capped at
//!    1–4 pages returns exactly the same rows as one behind an effectively
//!    unbounded pool, and so does one paged and then INSERTed into (sealed
//!    groups followed by open ones) and the re-sealing of that. Eviction
//!    pressure changes wall-clock, never results.

use kath_storage::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Encode → decode → compare, and sanity-check the embedded zone map.
fn roundtrip(values: &[Value]) {
    let (bytes, zone) = encode_page(values).expect("encodable page");
    assert_eq!(zone.rows as usize, values.len());
    assert_eq!(
        zone.null_count as usize,
        values.iter().filter(|v| matches!(v, Value::Null)).count()
    );
    assert!(page_encoding_name(&bytes).is_some());
    let col = decode_page(&bytes).expect("own encoding decodes");
    assert_eq!(col.len(), values.len());
    for (i, want) in values.iter().enumerate() {
        assert_eq!(&col.value(i), want, "slot {i} diverged");
    }
}

/// One arbitrary non-NULL value (`any::<f64>()` is finite here: the codec
/// preserves NaN bits, but `Value` equality cannot compare them).
fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
        prop::collection::vec(any::<u8>(), 0..12).prop_map(Value::Blob),
    ]
}

/// A column drawn from one generator with an independent per-slot chance of
/// NULL — `weight` percent of the slots become NULL on average.
fn with_nulls(
    inner: impl Strategy<Value = Value>,
    weight: u32,
) -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(
        (0u32..100, inner).prop_map(move |(roll, v)| if roll < weight { Value::Null } else { v }),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn int_pages_round_trip(values in with_nulls(any::<i64>().prop_map(Value::Int), 20)) {
        roundtrip(&values);
    }

    #[test]
    fn float_pages_round_trip(values in with_nulls(any::<f64>().prop_map(Value::Float), 20)) {
        roundtrip(&values);
    }

    /// Low-cardinality strings: the dictionary encoding's home turf.
    #[test]
    fn dict_string_pages_round_trip(values in with_nulls("[ab]{1,2}".prop_map(Value::Str), 20)) {
        roundtrip(&values);
    }

    /// Runs of repeated strings: the RLE encoding's home turf.
    #[test]
    fn rle_string_pages_round_trip(
        runs in prop::collection::vec(("[a-c]{0,3}", 1usize..20), 0..12),
    ) {
        let mut values = Vec::new();
        for (s, n) in runs {
            values.extend(std::iter::repeat_n(Value::Str(s), n));
        }
        roundtrip(&values);
    }

    /// Max-cardinality strings — every value distinct — must survive the
    /// dictionary path (codes as wide as the page) or whatever wins.
    #[test]
    fn unique_string_pages_round_trip(n in 0usize..300) {
        let values: Vec<Value> = (0..n).map(|i| Value::Str(format!("u{i:05}"))).collect();
        roundtrip(&values);
    }

    /// NULL-heavy pages exercise the bitmap header at every density.
    #[test]
    fn null_heavy_pages_round_trip(values in with_nulls(arb_scalar(), 85)) {
        roundtrip(&values);
    }

    /// Mixed-type pages fall back to the raw encoding, losing nothing.
    #[test]
    fn mixed_pages_round_trip(values in prop::collection::vec(arb_scalar(), 0..120)) {
        roundtrip(&values);
    }

    /// A paged table behind a starved pool (1–4 pages) is indistinguishable
    /// from one behind an unbounded pool: same rows at every index, same
    /// full materialization, and the starved pool actually evicted.
    #[test]
    fn starved_pool_is_result_identical_to_unbounded(
        rows in prop::collection::vec((any::<i64>(), "[a-d]{0,3}"), 1..300),
        budget in 1usize..5,
        page_rows in 8usize..40,
        cut in 0usize..300,
    ) {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Str)]);
        let data: Vec<Row> = rows
            .iter()
            .map(|(k, v)| vec![Value::Int(*k), Value::Str(v.clone())])
            .collect();
        let mut reference = Table::new("t", schema.clone());
        reference.extend(data.clone()).unwrap();

        let starved_pool = Arc::new(BufferPool::with_budget(budget));
        let starved = reference.seal(&starved_pool, page_rows).unwrap();
        let roomy_pool = Arc::new(BufferPool::with_budget(1_000_000));
        let roomy = reference.seal(&roomy_pool, page_rows).unwrap();
        // The third backing: the first `cut` rows paged behind the starved
        // pool, the rest pushed after them — the short last page reopened,
        // every full one still sealed; and that table sealed again, which
        // shares its full pages and encodes the open groups.
        let (head, tail) = data.split_at(cut % (data.len() + 1));
        let mut split = Table::from_rows("t", schema, head.to_vec())
            .unwrap()
            .seal(&starved_pool, page_rows)
            .unwrap();
        split.extend(tail.to_vec()).unwrap();
        let sealed_groups = split.groups().iter().filter(|g| !g.is_open()).count();
        let full_pages = if tail.is_empty() {
            head.len().div_ceil(page_rows)
        } else {
            head.len() / page_rows
        };
        prop_assert_eq!(sealed_groups, full_pages);
        let resealed = split.seal(&starved_pool, page_rows).unwrap();
        prop_assert!(resealed.groups().iter().all(|g| !g.is_open()));

        for (i, want) in data.iter().enumerate() {
            for table in [&starved, &roomy, &split, &resealed] {
                let got = table.row_at(i).unwrap().expect("in bounds");
                prop_assert_eq!(&got, want);
            }
        }
        for table in [&starved, &roomy, &split, &resealed] {
            prop_assert_eq!(table.row_at(data.len()).unwrap(), None);
            prop_assert_eq!(table.rows(), reference.rows());
        }

        let total_pages = 2 * data.len().div_ceil(page_rows);
        if total_pages > budget {
            prop_assert!(
                starved_pool.status().evictions > 0,
                "{} pages never evicted under a {}-page budget",
                total_pages,
                budget
            );
        }
        prop_assert!(starved_pool.status().resident_pages <= budget);
    }
}

/// The degenerate shapes the strategies above reach only probabilistically.
#[test]
fn degenerate_pages_round_trip() {
    roundtrip(&[]);
    roundtrip(&[Value::Int(42)]);
    roundtrip(&[Value::Null]);
    roundtrip(&std::iter::repeat_n(Value::Null, 977).collect::<Vec<_>>());
    roundtrip(&[Value::Int(i64::MIN), Value::Int(i64::MAX)]);
    roundtrip(&[Value::Str(String::new())]);
    roundtrip(&[Value::Blob(Vec::new()), Value::Null]);
}
