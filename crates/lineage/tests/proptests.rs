//! Property tests: the lineage graph is acyclic by construction, traces
//! terminate, every recorded lid is reachable from itself, and the columnar
//! store answers every read the way the row-and-hash-map store it replaced
//! did.

use kath_lineage::*;
use kath_storage::Value;
use proptest::prelude::*;
use std::collections::HashMap;

/// `(child, parent)` pairs over `lids`, child strictly younger, in the
/// order their children were allocated — the order edges must arrive in.
fn in_allocation_order(lids: &[i64], edges: Vec<(usize, usize)>) -> Vec<(i64, i64)> {
    let mut pairs: Vec<(i64, i64)> = edges
        .into_iter()
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (lids[a.max(b)], lids[a.min(b)]))
        .collect();
    pairs.sort_by_key(|(child, _)| *child);
    pairs
}

/// The store as it was before it became columnar — a `Vec` of rows, a hash
/// map per access path, a clock read per edge — kept as the model the
/// columnar store is compared with. It shares no code with it.
struct ModelStore {
    entries: Vec<LineageEntry>,
    by_lid: HashMap<i64, Vec<usize>>,
    by_parent: HashMap<i64, Vec<usize>>,
    next_lid: i64,
    row_counter: u64,
    policy: LineagePolicy,
}

impl ModelStore {
    fn new(policy: LineagePolicy) -> Self {
        Self {
            entries: Vec::new(),
            by_lid: HashMap::new(),
            by_parent: HashMap::new(),
            next_lid: 1,
            row_counter: 0,
            policy,
        }
    }

    fn alloc_lid(&mut self) -> i64 {
        self.next_lid += 1;
        self.next_lid - 1
    }

    fn admits(&self, kind: DataKind) -> bool {
        match self.policy {
            LineagePolicy::Off => false,
            LineagePolicy::TableOnly => kind == DataKind::Table,
            LineagePolicy::Full => true,
            LineagePolicy::Sampled(n) => {
                kind == DataKind::Table || self.row_counter.is_multiple_of(n.max(1) as u64)
            }
        }
    }

    /// `Ok(admitted)`, or `Err(())` for a parent that is not older.
    fn record(
        &mut self,
        lid: i64,
        parent_lid: Option<i64>,
        src_uri: Option<String>,
        func_id: &str,
        ver_id: u32,
        data_type: DataKind,
    ) -> Result<bool, ()> {
        if data_type == DataKind::Row {
            self.row_counter += 1;
        }
        if !self.admits(data_type) {
            return Ok(false);
        }
        if parent_lid.is_some_and(|p| p >= lid) {
            return Err(());
        }
        let idx = self.entries.len();
        self.entries.push(LineageEntry {
            lid,
            parent_lid,
            src_uri,
            func_id: func_id.to_string(),
            ver_id,
            data_type,
            ts: 0.0,
        });
        self.by_lid.entry(lid).or_default().push(idx);
        if let Some(p) = parent_lid {
            self.by_parent.entry(p).or_default().push(idx);
        }
        Ok(true)
    }

    fn edges_of(&self, lid: i64) -> Vec<LineageEntry> {
        let rows = self.by_lid.get(&lid).into_iter().flatten();
        rows.map(|&i| self.entries[i].clone()).collect()
    }

    fn parents(&self, lid: i64) -> Vec<i64> {
        let edges = self.edges_of(lid);
        edges.iter().filter_map(|e| e.parent_lid).collect()
    }

    fn children(&self, lid: i64) -> Vec<i64> {
        let rows = self.by_parent.get(&lid).into_iter().flatten();
        let mut out: Vec<i64> = rows.map(|&i| self.entries[i].lid).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn contains(&self, lid: i64) -> bool {
        self.by_lid.contains_key(&lid)
    }

    fn trace(&self, lid: i64) -> Option<DerivationTrace> {
        self.contains(lid).then(|| {
            let edges = self.edges_of(lid);
            let known = edges.iter().filter_map(|e| e.parent_lid);
            DerivationTrace {
                lid,
                parents: known.filter_map(|p| self.trace(p)).collect(),
                edges,
            }
        })
    }
}

/// A trace with every `ts` zeroed: the model reads no clock.
fn without_ts(mut trace: DerivationTrace) -> DerivationTrace {
    for e in &mut trace.edges {
        e.ts = 0.0;
    }
    trace.parents = trace.parents.into_iter().map(without_ts).collect();
    trace
}

/// The `k`-th parent the op's upper bits pick for `child`: one pick in eight
/// is the child itself or younger, which both stores must refuse; one is no
/// parent; the rest are lids allocated earlier.
fn pick_parent(op: u32, k: usize, child: i64, allocated: &[i64]) -> Option<i64> {
    let bits = (op >> (8 + 5 * k)) as usize;
    match (bits % 8, allocated.len()) {
        (0, _) => Some(child + (bits >> 3) as i64 % 2),
        (1, _) | (_, 0) => None,
        (_, n) => Some(allocated[(bits >> 3) % n]),
    }
}

/// Drives both stores through the schedule `ops` encodes and compares every
/// answer and, at the end, every read.
fn check_against_model(policy: LineagePolicy, ops: &[u32]) -> Result<(), TestCaseError> {
    let mut store = LineageStore::with_policy(policy);
    let mut model = ModelStore::new(policy);
    let mut allocated: Vec<i64> = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        let kind = match op & 1 {
            0 => DataKind::Row,
            _ => DataKind::Table,
        };
        let func_id = format!("f{}", (op >> 1) % 5);
        let ver_id = (op >> 4) % 3 + 1;
        let edges = ((op >> 6) % 4) as usize;
        if (op >> 28) % 3 == 0 {
            // One run: `edges + 1` consecutive lids, one parent each.
            let mut run = store.run(&func_id, ver_id, kind);
            for k in 0..=edges {
                let lid = model.alloc_lid();
                let parent = pick_parent(op, k, lid, &allocated);
                let expected = model.record(lid, parent, None, &func_id, ver_id, kind);
                match run.record(parent) {
                    Ok(got) => {
                        prop_assert!(expected.is_ok(), "step {step}: run admitted a bad parent");
                        prop_assert_eq!(got, lid);
                    }
                    Err(e) => {
                        prop_assert!(expected.is_err(), "step {step}: run refused with {e}");
                    }
                }
                allocated.push(lid);
            }
        } else {
            // One lid with `edges` parents (a root with a `src_uri` at 0).
            let lid = model.alloc_lid();
            prop_assert_eq!(store.alloc_lid(), lid);
            for k in 0..edges.max(1) {
                let parent = pick_parent(op, k, lid, &allocated).filter(|_| edges > 0);
                let uri = parent.is_none().then(|| format!("file://root/{lid}"));
                let expected = model.record(lid, parent, uri.clone(), &func_id, ver_id, kind);
                let got = store.record(lid, parent, uri, &func_id, ver_id, kind);
                prop_assert_eq!(got.map_err(|_| ()), expected, "step {}", step);
            }
            allocated.push(lid);
        }
    }

    prop_assert_eq!(store.len(), model.entries.len());
    prop_assert_eq!(store.is_empty(), model.entries.is_empty());
    for lid in 0..model.next_lid + 2 {
        prop_assert_eq!(store.contains(lid), model.contains(lid), "lid {}", lid);
        prop_assert_eq!(store.parents(lid), model.parents(lid), "lid {}", lid);
        prop_assert_eq!(store.children(lid), model.children(lid), "lid {}", lid);
        let zeroed = |mut e: LineageEntry| {
            e.ts = 0.0;
            e
        };
        let edges: Vec<_> = store.edges_of(lid).into_iter().map(zeroed).collect();
        prop_assert_eq!(edges, model.edges_of(lid), "lid {}", lid);
        let trace = store.trace(lid).ok().map(without_ts);
        prop_assert_eq!(trace, model.trace(lid), "lid {}", lid);
    }

    // `as_table` minus `ts` is the model's rows, in record order, and `ts`
    // never runs backwards.
    let table = store.as_table().unwrap();
    prop_assert_eq!(table.len(), model.entries.len());
    let mut last_ts = 0.0;
    for (row, e) in table.rows().iter().zip(&model.entries) {
        let expected = [
            Value::Int(e.lid),
            e.parent_lid.map_or(Value::Null, Value::Int),
            e.src_uri.clone().map_or(Value::Null, Value::Str),
            Value::Str(e.func_id.clone()),
            Value::Int(e.ver_id as i64),
            Value::Str(e.data_type.to_string()),
        ];
        prop_assert_eq!(&row[..6], &expected[..]);
        let ts = row[6].as_f64().unwrap();
        prop_assert!(ts >= last_ts, "ts ran backwards: {ts} after {last_ts}");
        last_ts = ts;
    }
    let entries: Vec<_> = store.entries().collect();
    prop_assert_eq!(entries.len(), model.entries.len());
    Ok(())
}

proptest! {
    /// Build a random DAG respecting allocation order; every trace
    /// terminates and only visits older lids.
    #[test]
    fn traces_terminate_and_visit_older_lids(
        edges in prop::collection::vec((0usize..50, 0usize..50), 1..120)
    ) {
        let mut store = LineageStore::new();
        let lids: Vec<i64> = (0..50).map(|_| store.alloc_lid()).collect();
        for (a, _) in edges.iter().filter(|(a, b)| a == b) {
            let l = lids[*a];
            prop_assert!(store.record(l, Some(l), None, "f", 1, DataKind::Row).is_err());
        }
        for (child, parent) in in_allocation_order(&lids, edges) {
            store.record(child, Some(parent), None, "f", 1, DataKind::Row).unwrap();
        }
        for &l in &lids {
            if store.contains(l) {
                let t = store.trace(l).unwrap();
                prop_assert!(t.depth() <= 50);
                for visited in t.lids() {
                    prop_assert!(visited <= l);
                }
            }
        }
    }

    /// children() and parents() are mutually consistent.
    #[test]
    fn child_parent_symmetry(
        edges in prop::collection::vec((0usize..20, 0usize..20), 1..60)
    ) {
        let mut store = LineageStore::new();
        let lids: Vec<i64> = (0..20).map(|_| store.alloc_lid()).collect();
        for (child, parent) in in_allocation_order(&lids, edges) {
            store.record(child, Some(parent), None, "f", 1, DataKind::Table).unwrap();
        }
        for &l in &lids {
            for c in store.children(l) {
                prop_assert!(store.parents(c).contains(&l));
            }
            for p in store.parents(l) {
                prop_assert!(store.children(p).contains(&l));
            }
        }
    }

    /// The Table-3 rendering always has one row per recorded edge and
    /// validates against the schema.
    #[test]
    fn table_rendering_is_faithful(n in 0usize..40) {
        let mut store = LineageStore::new();
        let mut prev = None;
        for i in 0..n {
            let l = store.alloc_lid();
            let kind = if i % 3 == 0 { DataKind::Table } else { DataKind::Row };
            store.record(l, prev, None, &format!("f{i}"), (i % 5) as u32 + 1, kind).unwrap();
            prev = Some(l);
        }
        let t = store.as_table().unwrap();
        prop_assert_eq!(t.len(), n);
    }

    /// Random `record` / run schedules — multi-parent edges, both kinds,
    /// roots with a `src_uri`, parents that are not older — under every
    /// policy: the columnar store and the store it replaced give the same
    /// answers and the same reads.
    #[test]
    fn columnar_store_equals_the_row_store_it_replaced(
        ops in prop::collection::vec(any::<u32>(), 0..160)
    ) {
        for policy in [
            LineagePolicy::Full,
            LineagePolicy::TableOnly,
            LineagePolicy::Sampled(3),
            LineagePolicy::Off,
        ] {
            check_against_model(policy, &ops)?;
        }
    }
}
