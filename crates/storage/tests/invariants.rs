//! Property tests for relational invariants.

use kath_storage::*;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(|i| Value::Int(i as i64)),
        (-1.0e6f64..1.0e6).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_table() -> impl Strategy<Value = Table> {
    prop::collection::vec((any::<i16>(), -100i64..100, "[a-z]{0,4}"), 0..40).prop_map(|rows| {
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("k", DataType::Int),
            ("s", DataType::Str),
        ]);
        Table::from_rows(
            "t",
            schema,
            rows.into_iter()
                .map(|(id, k, s)| vec![Value::Int(id as i64), Value::Int(k), Value::Str(s)])
                .collect(),
        )
        .unwrap()
    })
}

proptest! {
    /// Values are totally ordered: total_cmp is antisymmetric & transitive
    /// on sampled triples, and eq/hash agree with Equal.
    #[test]
    fn total_cmp_is_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering::*;
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        if a.total_cmp(&b) == Equal && b.total_cmp(&c) == Equal {
            prop_assert_eq!(a.total_cmp(&c), Equal);
        }
        if a.total_cmp(&b) == Less && b.total_cmp(&c) == Less {
            prop_assert_eq!(a.total_cmp(&c), Less);
        }
        if a == b {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let h = |v: &Value| { let mut h = DefaultHasher::new(); v.hash(&mut h); h.finish() };
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    /// Filter output is a subset of its input and every row satisfies the
    /// predicate.
    #[test]
    fn filter_yields_satisfying_subset(t in arb_table(), threshold in -100i64..100) {
        let arc = Arc::new(t.clone());
        let pred = col_cmp("k", BinOp::Ge, threshold);
        let f = Filter::new(Box::new(TableScan::new(arc)), pred);
        let out = collect("f", Box::new(f)).unwrap();
        prop_assert!(out.len() <= t.len());
        for r in out.rows() {
            prop_assert!(r[1].as_int().unwrap() >= threshold);
        }
        let expected = t.rows().iter().filter(|r| r[1].as_int().unwrap() >= threshold).count();
        prop_assert_eq!(out.len(), expected);
    }

    /// Hash join row count equals the sum over left rows of matching right
    /// rows; inner join ⊆ left join.
    #[test]
    fn join_cardinality_is_exact(l in arb_table(), r in arb_table()) {
        let la = Arc::new(l.clone());
        let ra = Arc::new(r.clone());
        let inner = HashJoin::new(
            Box::new(TableScan::new(Arc::clone(&la))),
            Box::new(TableScan::new(Arc::clone(&ra))),
            "k", "k", JoinKind::Inner,
        ).unwrap();
        let inner_t = collect("j", Box::new(inner)).unwrap();
        let mut expected = 0usize;
        for lr in l.rows() {
            expected += r.rows().iter().filter(|rr| rr[1] == lr[1]).count();
        }
        prop_assert_eq!(inner_t.len(), expected);

        let left = HashJoin::new(
            Box::new(TableScan::new(la)),
            Box::new(TableScan::new(ra)),
            "k", "k", JoinKind::Left,
        ).unwrap();
        let left_t = collect("j", Box::new(left)).unwrap();
        prop_assert!(left_t.len() >= l.len());
        prop_assert!(left_t.len() >= inner_t.len());
    }

    /// A sort emits a permutation in nondecreasing key order.
    #[test]
    fn sort_is_ordered_permutation(t in arb_table()) {
        let key = SortKey { column: "k".into(), desc: false };
        let mut out = t.rows().to_vec();
        sort_rows(&mut out, &resolve_sort_keys(t.schema(), &[key]).unwrap());
        prop_assert_eq!(out.len(), t.len());
        for w in out.windows(2) {
            prop_assert!(w[0][1].total_cmp(&w[1][1]) != std::cmp::Ordering::Greater);
        }
        let mut a: Vec<i64> = t.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut b: Vec<i64> = out.iter().map(|r| r[0].as_int().unwrap()).collect();
        a.sort(); b.sort();
        prop_assert_eq!(a, b);
    }

    /// Any table's ingest records (its CREATE, plus one INSERT of its rows)
    /// encode, decode and replay through `Catalog::apply` to an equal table.
    #[test]
    fn persistence_round_trip(t in arb_table()) {
        let ingest = [
            WalRecord::CreateTable { name: t.name().to_string(), schema: t.schema().clone() },
            WalRecord::Insert { table: t.name().to_string(), rows: t.rows().to_vec() },
        ];
        let mut catalog = Catalog::new();
        for record in &ingest {
            let back = WalRecord::decode(&record.encode().unwrap()).unwrap();
            prop_assert_eq!(&back, record);
            catalog.apply(&back).unwrap();
        }
        prop_assert_eq!(&*catalog.get(t.name()).unwrap(), &t);
    }

    /// Aggregate COUNT(*) grouped by k sums to the table size.
    #[test]
    fn group_counts_sum_to_total(t in arb_table()) {
        let arc = Arc::new(t.clone());
        let agg = HashAggregate::new(
            Box::new(TableScan::new(arc)),
            vec!["k".into()],
            vec![Aggregate { func: AggFunc::CountStar, column: None, output: "n".into() }],
        ).unwrap();
        let out = collect("g", Box::new(agg)).unwrap();
        let total: i64 = out.rows().iter().map(|r| r[1].as_int().unwrap()).sum();
        prop_assert_eq!(total as usize, t.len());
    }

    /// Distinct is idempotent and never grows.
    #[test]
    fn distinct_shrinks_and_is_idempotent(t in arb_table()) {
        let arc = Arc::new(t.clone());
        let d1 = collect("d", Box::new(Distinct::new(Box::new(TableScan::new(arc))))).unwrap();
        prop_assert!(d1.len() <= t.len());
        let d2 = collect("d", Box::new(Distinct::new(Box::new(TableScan::new(Arc::new(d1.clone())))))).unwrap();
        prop_assert_eq!(d2.len(), d1.len());
    }
}
