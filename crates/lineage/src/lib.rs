//! KathDB provenance (Table 3 of the paper).
//!
//! Every derived tuple or table gets a row in the unified lineage relation
//! `Lineage(lid, parent_lid, src_uri, func_id, ver_id, data_type, ts)`:
//! one **edge** of the provenance graph per row, so a child with several
//! parents (Fig. 2: table 1274 derives from tables 940 and 941) occupies
//! several rows. Functions classified `one_to_one`/`one_to_many` record
//! row-level lineage; `many_to_one`/`many_to_many` (aggregation, sorting)
//! record table-level lineage only (§3).

#![warn(missing_docs)]

use kath_storage::{DataType, Schema, StorageError, Table, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Granularity of one lineage edge (`data_type` in Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// Row-level lineage: the child tuple depends on exactly the parent.
    Row,
    /// Table-level lineage: all inputs are assumed to contribute.
    Table,
}

impl fmt::Display for DataKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DataKind::Row => "row",
            DataKind::Table => "table",
        })
    }
}

/// The dependency pattern the generating LLM assigns to each function (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependencyPattern {
    /// Each output tuple derives from exactly one input tuple.
    OneToOne,
    /// One input tuple may produce several outputs.
    OneToMany,
    /// Wide dependency: many inputs fold into one output (aggregation).
    ManyToOne,
    /// Wide dependency: joins, sorts, global transforms.
    ManyToMany,
}

impl DependencyPattern {
    /// Narrow patterns permit row-level lineage (§3).
    pub fn is_narrow(&self) -> bool {
        matches!(
            self,
            DependencyPattern::OneToOne | DependencyPattern::OneToMany
        )
    }

    /// The lineage granularity this pattern records.
    pub fn data_kind(&self) -> DataKind {
        if self.is_narrow() {
            DataKind::Row
        } else {
            DataKind::Table
        }
    }

    /// Paper spelling (`one_to_one`, …).
    pub fn as_str(&self) -> &'static str {
        match self {
            DependencyPattern::OneToOne => "one_to_one",
            DependencyPattern::OneToMany => "one_to_many",
            DependencyPattern::ManyToOne => "many_to_one",
            DependencyPattern::ManyToMany => "many_to_many",
        }
    }

    /// Parses the paper spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "one_to_one" => DependencyPattern::OneToOne,
            "one_to_many" => DependencyPattern::OneToMany,
            "many_to_one" => DependencyPattern::ManyToOne,
            "many_to_many" => DependencyPattern::ManyToMany,
            _ => return None,
        })
    }
}

impl fmt::Display for DependencyPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One edge in the provenance graph (one row of Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct LineageEntry {
    /// Derived (child) identifier.
    pub lid: i64,
    /// Input identifier; `None` for external input data.
    pub parent_lid: Option<i64>,
    /// Source path for ingested raw data; `None` for intermediates.
    pub src_uri: Option<String>,
    /// Function that produced the child.
    pub func_id: String,
    /// Version of that function (§4).
    pub ver_id: u32,
    /// Row- or table-level edge.
    pub data_type: DataKind,
    /// Seconds since query start when the child was created.
    pub ts: f64,
}

/// How much lineage to record — the paper's overhead research question (§3)
/// made concrete as a policy knob benchmarked by `bench_lineage_overhead`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LineagePolicy {
    /// Record nothing (baseline).
    Off,
    /// Record only table-level edges.
    TableOnly,
    /// Record everything (default).
    Full,
    /// Record table-level edges plus every `n`-th row-level edge.
    Sampled(u32),
}

impl LineagePolicy {
    fn admits(&self, kind: DataKind, row_counter: u64) -> bool {
        match self {
            LineagePolicy::Off => false,
            LineagePolicy::TableOnly => kind == DataKind::Table,
            LineagePolicy::Full => true,
            LineagePolicy::Sampled(n) => {
                kind == DataKind::Table || row_counter.is_multiple_of((*n).max(1) as u64)
            }
        }
    }
}

/// Errors from the lineage store.
#[derive(Debug, Clone, PartialEq)]
pub enum LineageError {
    /// Parent lid must precede the child (allocation is monotone; this
    /// structurally guarantees acyclicity).
    ParentNotOlder {
        /// Child lid.
        lid: i64,
        /// Offending parent.
        parent: i64,
    },
    /// Edges must arrive in allocation order: the lid column is
    /// non-decreasing, which is what lets a lookup be a binary search.
    OutOfOrder {
        /// The lid that arrived late.
        lid: i64,
        /// The newest lid already recorded.
        last: i64,
    },
    /// Unknown lid queried.
    UnknownLid(i64),
    /// Storage error while rendering.
    Storage(StorageError),
}

impl fmt::Display for LineageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineageError::ParentNotOlder { lid, parent } => {
                write!(
                    f,
                    "lineage edge {lid} -> parent {parent} violates allocation order"
                )
            }
            LineageError::OutOfOrder { lid, last } => {
                write!(f, "lineage edge of lid {lid} recorded after lid {last}")
            }
            LineageError::UnknownLid(l) => write!(f, "unknown lid {l}"),
            LineageError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LineageError {}

impl From<StorageError> for LineageError {
    fn from(e: StorageError) -> Self {
        LineageError::Storage(e)
    }
}

/// The provenance store: allocates lids and records edges. The relation of
/// Table 3 is held as one — a vector per column, a row per edge in record
/// order, `(func_id, ver_id)` interned, `src_uri` beside the columns for the
/// few roots that have one. [`LineageEntry`] is the row reads hand out.
#[derive(Debug)]
pub struct LineageStore {
    /// Non-decreasing ([`LineageStore::record`] checks it): the edges of a
    /// lid are one contiguous run of rows, found by binary search.
    lids: Vec<i64>,
    parents: Vec<Option<i64>>,
    /// Index into `funcs`.
    func_ix: Vec<u32>,
    kinds: Vec<DataKind>,
    ts: Vec<f64>,
    /// Row → `src_uri`, for the rows that have one.
    src_uris: BTreeMap<usize, String>,
    /// The distinct `(func_id, ver_id)` pairs, in first-use order.
    funcs: Vec<(String, u32)>,
    next_lid: i64,
    row_counter: u64,
    /// Recording policy.
    pub policy: LineagePolicy,
    started: Instant,
}

impl Default for LineageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl LineageStore {
    /// A fresh store with full recording.
    pub fn new() -> Self {
        Self::with_policy(LineagePolicy::Full)
    }

    /// A store with an explicit policy.
    pub fn with_policy(policy: LineagePolicy) -> Self {
        Self {
            lids: Vec::new(),
            parents: Vec::new(),
            func_ix: Vec::new(),
            kinds: Vec::new(),
            ts: Vec::new(),
            src_uris: BTreeMap::new(),
            funcs: Vec::new(),
            next_lid: 1,
            row_counter: 0,
            policy,
            started: Instant::now(), // lint: nondet-ok — lineage-store age telemetry only
        }
    }

    /// Allocates the next lid (monotonically increasing, §4).
    pub fn alloc_lid(&mut self) -> i64 {
        self.next_lid += 1;
        self.next_lid - 1
    }

    /// Number of recorded edges.
    pub fn len(&self) -> usize {
        self.lids.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lids.is_empty()
    }

    /// Records one edge. Parent lids must be older than the child lid,
    /// which makes the graph a DAG by construction, and edges must arrive
    /// in allocation order. Returns whether the policy admitted the edge.
    pub fn record(
        &mut self,
        lid: i64,
        parent_lid: Option<i64>,
        src_uri: Option<String>,
        func_id: &str,
        ver_id: u32,
        data_type: DataKind,
    ) -> Result<bool, LineageError> {
        let run = self.run(func_id, ver_id, data_type);
        let (func, ts) = (run.func, run.ts);
        let admitted = self.append(lid, parent_lid, func, data_type, ts)?;
        if let (true, Some(uri)) = (admitted, src_uri) {
            self.src_uris.insert(self.len() - 1, uri);
        }
        Ok(admitted)
    }

    /// Begins one run — the edges a node stamps in one go, all by `func_id`
    /// version `ver_id` at one granularity and one `ts`: the function is
    /// interned (a session names a few dozen) and the clock read here,
    /// once, and [`LineageRun::record`] only appends to the columns.
    pub fn run(&mut self, func_id: &str, ver_id: u32, data_type: DataKind) -> LineageRun<'_> {
        let known = |(f, v): &(String, u32)| f == func_id && *v == ver_id;
        let func = self.funcs.iter().rposition(known).unwrap_or_else(|| {
            self.funcs.push((func_id.to_string(), ver_id));
            self.funcs.len() - 1
        });
        LineageRun {
            func: func as u32,
            data_type,
            ts: self.started.elapsed().as_secs_f64(),
            store: self,
        }
    }

    /// Appends the edge `lid <- parent_lid` if the policy admits it.
    /// Admission runs first: stores used purely for profiling (policy Off)
    /// accept foreign lids without order checks.
    fn append(
        &mut self,
        lid: i64,
        parent_lid: Option<i64>,
        func: u32,
        kind: DataKind,
        ts: f64,
    ) -> Result<bool, LineageError> {
        self.row_counter += u64::from(kind == DataKind::Row);
        if !self.policy.admits(kind, self.row_counter) {
            return Ok(false);
        }
        match (parent_lid, self.lids.last()) {
            (Some(parent), _) if parent >= lid => {
                return Err(LineageError::ParentNotOlder { lid, parent })
            }
            (_, Some(&last)) if lid < last => return Err(LineageError::OutOfOrder { lid, last }),
            _ => {}
        }
        self.lids.push(lid);
        self.parents.push(parent_lid);
        self.func_ix.push(func);
        self.kinds.push(kind);
        self.ts.push(ts);
        Ok(true)
    }

    /// The rows whose child is `lid` (one per parent: a handful at most).
    fn rows_of(&self, lid: i64) -> std::ops::Range<usize> {
        let start = self.lids.partition_point(|&l| l < lid);
        let edges = self.lids[start..].iter().take_while(|&&l| l == lid);
        start..start + edges.count()
    }

    /// Row `row` of the relation.
    fn entry(&self, row: usize) -> LineageEntry {
        let (func_id, ver_id) = self.funcs[self.func_ix[row] as usize].clone();
        LineageEntry {
            lid: self.lids[row],
            parent_lid: self.parents[row],
            src_uri: self.src_uris.get(&row).cloned(),
            func_id,
            ver_id,
            data_type: self.kinds[row],
            ts: self.ts[row],
        }
    }

    /// All edges whose child is `lid` (one per parent).
    pub fn edges_of(&self, lid: i64) -> Vec<LineageEntry> {
        self.rows_of(lid).map(|row| self.entry(row)).collect()
    }

    /// Parent lids of `lid`.
    pub fn parents(&self, lid: i64) -> Vec<i64> {
        let parents = self.parents[self.rows_of(lid)].iter();
        parents.flatten().copied().collect()
    }

    /// Child lids derived (directly) from `lid`: a scan of the parent
    /// column, ascending because the lid column is.
    pub fn children(&self, lid: i64) -> Vec<i64> {
        let edges = self.lids.iter().zip(&self.parents);
        let edges = edges.filter(|(_, p)| **p == Some(lid));
        let mut out: Vec<i64> = edges.map(|(l, _)| *l).collect();
        out.dedup();
        out
    }

    /// Whether a lid is known.
    pub fn contains(&self, lid: i64) -> bool {
        !self.rows_of(lid).is_empty()
    }

    /// All edges in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = LineageEntry> + '_ {
        (0..self.len()).map(|row| self.entry(row))
    }

    /// Full derivation trace of `lid`: the entry's edges plus recursively
    /// traced parents. Terminates because parents are strictly older.
    pub fn trace(&self, lid: i64) -> Result<DerivationTrace, LineageError> {
        self.trace_known(lid).ok_or(LineageError::UnknownLid(lid))
    }

    /// The trace of `lid`, if it is known: one lookup per lid visited.
    fn trace_known(&self, lid: i64) -> Option<DerivationTrace> {
        let rows = self.rows_of(lid);
        if rows.is_empty() {
            return None;
        }
        let edges: Vec<LineageEntry> = rows.map(|row| self.entry(row)).collect();
        let parents = edges.iter().filter_map(|e| e.parent_lid);
        Some(DerivationTrace {
            lid,
            parents: parents.filter_map(|p| self.trace_known(p)).collect(),
            edges,
        })
    }

    /// Renders the store as the exact Table 3 relation.
    pub fn as_table(&self) -> Result<Table, LineageError> {
        let row = |e: LineageEntry| {
            vec![
                Value::Int(e.lid),
                e.parent_lid.map(Value::Int).unwrap_or(Value::Null),
                e.src_uri.map(Value::Str).unwrap_or(Value::Null),
                Value::Str(e.func_id),
                Value::Int(e.ver_id as i64),
                Value::Str(e.data_type.to_string()),
                Value::Float(e.ts),
            ]
        };
        let rows = self.entries().map(row).collect();
        Ok(Table::from_rows("Lineage", lineage_schema(), rows)?)
    }
}

/// One [`LineageStore::run`]: every edge it records gets the next lid, the
/// run's function and the run's `ts`.
#[derive(Debug)]
pub struct LineageRun<'a> {
    store: &'a mut LineageStore,
    func: u32,
    data_type: DataKind,
    ts: f64,
}

impl LineageRun<'_> {
    /// Allocates the next lid and records its edge from `parent_lid` under
    /// the store's policy, with the checks of [`LineageStore::record`].
    pub fn record(&mut self, parent_lid: Option<i64>) -> Result<i64, LineageError> {
        let lid = self.store.alloc_lid();
        let (func, kind) = (self.func, self.data_type);
        self.store.append(lid, parent_lid, func, kind, self.ts)?;
        Ok(lid)
    }
}

/// The exact Table 3 schema:
/// `Lineage(lid, parent_lid, src_uri, func_id, ver_id, data_type, ts)`.
pub fn lineage_schema() -> Schema {
    Schema::of(&[
        ("lid", DataType::Int),
        ("parent_lid", DataType::Int),
        ("src_uri", DataType::Str),
        ("func_id", DataType::Str),
        ("ver_id", DataType::Int),
        ("data_type", DataType::Str),
        ("ts", DataType::Float),
    ])
}

/// A recursive derivation trace rooted at one lid.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivationTrace {
    /// The traced lid.
    pub lid: i64,
    /// Its incoming edges (one per parent; possibly several).
    pub edges: Vec<LineageEntry>,
    /// Traces of all known parents.
    pub parents: Vec<DerivationTrace>,
}

impl DerivationTrace {
    /// Depth of the trace (1 for a root).
    pub fn depth(&self) -> usize {
        1 + self
            .parents
            .iter()
            .map(DerivationTrace::depth)
            .max()
            .unwrap_or(0)
    }

    /// All distinct lids in the trace.
    pub fn lids(&self) -> Vec<i64> {
        let mut out = vec![self.lid];
        for p in &self.parents {
            out.extend(p.lids());
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The functions applied along the trace, root-first, deduplicated.
    pub fn functions(&self) -> Vec<(String, u32)> {
        let mut out: Vec<(String, u32)> = Vec::new();
        for e in &self.edges {
            let f = (e.func_id.clone(), e.ver_id);
            if !out.contains(&f) {
                out.push(f);
            }
        }
        for p in &self.parents {
            for f in p.functions() {
                if !out.contains(&f) {
                    out.push(f);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rebuilds the derivation of Fig. 2: raw file -> load_data -> joins ->
    /// gen_excitement_score row 1417.
    fn paper_like_store() -> LineageStore {
        let mut s = LineageStore::new();
        let l1 = s.alloc_lid();
        s.record(
            l1,
            None,
            Some("file://data/movies".into()),
            "ingest",
            1,
            DataKind::Table,
        )
        .unwrap();
        let l21 = s.alloc_lid();
        s.record(l21, Some(l1), None, "load_data", 1, DataKind::Table)
            .unwrap();
        let l940 = s.alloc_lid();
        s.record(
            l940,
            Some(l21),
            None,
            "populate_text_views",
            1,
            DataKind::Table,
        )
        .unwrap();
        let l941 = s.alloc_lid();
        s.record(
            l941,
            Some(l21),
            None,
            "populate_scene_views",
            1,
            DataKind::Table,
        )
        .unwrap();
        let l1274 = s.alloc_lid();
        // Two parents: one edge per parent, same child lid.
        s.record(
            l1274,
            Some(l940),
            None,
            "join_text_scene_graph",
            1,
            DataKind::Table,
        )
        .unwrap();
        s.record(
            l1274,
            Some(l941),
            None,
            "join_text_scene_graph",
            1,
            DataKind::Table,
        )
        .unwrap();
        let l1417 = s.alloc_lid();
        s.record(
            l1417,
            Some(l1274),
            None,
            "gen_excitement_score",
            1,
            DataKind::Row,
        )
        .unwrap();
        s
    }

    #[test]
    fn schema_matches_table3() {
        assert_eq!(
            lineage_schema().names(),
            vec![
                "lid",
                "parent_lid",
                "src_uri",
                "func_id",
                "ver_id",
                "data_type",
                "ts"
            ]
        );
    }

    #[test]
    fn multi_parent_children_and_parents() {
        let s = paper_like_store();
        // lid 5 is the join output with two parents (3 and 4).
        assert_eq!(s.parents(5), vec![3, 4]);
        assert_eq!(s.children(5), vec![6]);
        assert_eq!(s.children(2), vec![3, 4]);
    }

    #[test]
    fn trace_reaches_the_external_root() {
        let s = paper_like_store();
        let t = s.trace(6).unwrap();
        assert!(t.depth() >= 4);
        let lids = t.lids();
        assert!(lids.contains(&1));
        let funcs: Vec<String> = t.functions().into_iter().map(|(f, _)| f).collect();
        assert_eq!(funcs[0], "gen_excitement_score");
        assert!(funcs.contains(&"ingest".to_string()));
    }

    #[test]
    fn acyclicity_is_enforced_structurally() {
        let mut s = LineageStore::new();
        let a = s.alloc_lid();
        let b = s.alloc_lid();
        s.record(b, Some(a), None, "f", 1, DataKind::Row).unwrap();
        // A parent younger than (or equal to) the child is rejected.
        assert!(matches!(
            s.record(a, Some(b), None, "g", 1, DataKind::Row),
            Err(LineageError::ParentNotOlder { .. })
        ));
        assert!(s.record(a, Some(a), None, "g", 1, DataKind::Row).is_err());
    }

    #[test]
    fn edges_must_arrive_in_allocation_order() {
        let mut s = LineageStore::new();
        let (a, b) = (s.alloc_lid(), s.alloc_lid());
        s.record(b, None, None, "f", 1, DataKind::Table).unwrap();
        // A second edge of the newest lid is in order; an older lid is late.
        s.record(b, Some(a), None, "f", 1, DataKind::Table).unwrap();
        assert_eq!(
            s.record(a, None, None, "f", 1, DataKind::Table),
            Err(LineageError::OutOfOrder { lid: a, last: b })
        );
        assert_eq!(s.len(), 2);
        // A run allocates past everything recorded, so only a planted lid
        // can put it out of order.
        s.record(100, None, None, "f", 1, DataKind::Table).unwrap();
        let late = s.run("g", 1, DataKind::Row).record(Some(b));
        assert_eq!(late, Err(LineageError::OutOfOrder { lid: 3, last: 100 }));
        // A store that records nothing checks nothing.
        let mut off = LineageStore::with_policy(LineagePolicy::Off);
        assert_eq!(
            off.record(9, None, None, "f", 1, DataKind::Table),
            Ok(false)
        );
        assert_eq!(
            off.record(2, Some(5), None, "f", 1, DataKind::Row),
            Ok(false)
        );
    }

    #[test]
    fn a_run_is_consecutive_lids_one_function_one_ts() {
        let mut s = paper_like_store();
        let before = s.len();
        let mut run = s.run("gen_excitement_score", 2, DataKind::Row);
        let lids: Vec<i64> = (0..4).map(|_| run.record(Some(5)).unwrap()).collect();
        assert_eq!(lids, vec![7, 8, 9, 10]);
        assert!(matches!(
            run.record(Some(11)),
            Err(LineageError::ParentNotOlder {
                lid: 11,
                parent: 11
            })
        ));
        assert_eq!(s.alloc_lid(), 12);
        let stamped: Vec<LineageEntry> = s.entries().skip(before).collect();
        assert_eq!(stamped.len(), 4);
        for (e, lid) in stamped.iter().zip(lids) {
            assert_eq!((e.lid, e.parent_lid, e.ver_id), (lid, Some(5), 2));
            assert_eq!(e.func_id, "gen_excitement_score");
            assert_eq!((e.data_type, e.ts), (DataKind::Row, stamped[0].ts));
            assert_eq!(e.src_uri, None);
        }
        assert_eq!(s.children(5), vec![6, 7, 8, 9, 10]);
        // Sampled(2) keeps every second row edge of a run, as of single records.
        let mut sampled = LineageStore::with_policy(LineagePolicy::Sampled(2));
        let mut run = sampled.run("f", 1, DataKind::Row);
        for _ in 0..5 {
            run.record(None).unwrap();
        }
        let kept: Vec<i64> = sampled.entries().map(|e| e.lid).collect();
        assert_eq!(kept, vec![2, 4]);
    }

    #[test]
    fn unknown_lid_errors() {
        let s = paper_like_store();
        assert!(matches!(s.trace(999), Err(LineageError::UnknownLid(999))));
    }

    #[test]
    fn policies_control_recording() {
        // Off records nothing.
        let mut off = LineageStore::with_policy(LineagePolicy::Off);
        let l = off.alloc_lid();
        assert!(!off.record(l, None, None, "f", 1, DataKind::Row).unwrap());
        assert!(off.is_empty());

        // TableOnly drops row edges.
        let mut to = LineageStore::with_policy(LineagePolicy::TableOnly);
        let l1 = to.alloc_lid();
        assert!(to.record(l1, None, None, "f", 1, DataKind::Table).unwrap());
        let l2 = to.alloc_lid();
        assert!(!to
            .record(l2, Some(l1), None, "f", 1, DataKind::Row)
            .unwrap());
        assert_eq!(to.len(), 1);

        // Sampled(10) keeps ~1/10 row edges and all table edges.
        let mut sa = LineageStore::with_policy(LineagePolicy::Sampled(10));
        let root = sa.alloc_lid();
        sa.record(root, None, None, "f", 1, DataKind::Table)
            .unwrap();
        let mut kept = 0;
        for _ in 0..100 {
            let l = sa.alloc_lid();
            if sa
                .record(l, Some(root), None, "f", 1, DataKind::Row)
                .unwrap()
            {
                kept += 1;
            }
        }
        assert_eq!(kept, 10);
    }

    #[test]
    fn as_table_round_trips_fields() {
        let s = paper_like_store();
        let t = s.as_table().unwrap();
        assert_eq!(t.len(), s.len());
        assert_eq!(t.schema().names(), lineage_schema().names());
        // The external root row has NULL parent and a src_uri.
        let root = t.rows().iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert!(root[1].is_null());
        assert_eq!(root[2].as_str(), Some("file://data/movies"));
        assert_eq!(root[5].as_str(), Some("table"));
    }

    #[test]
    fn version_ids_flow_through() {
        let mut s = LineageStore::new();
        let a = s.alloc_lid();
        s.record(a, None, None, "classify_boring", 3, DataKind::Row)
            .unwrap();
        let e = &s.edges_of(a)[0];
        assert_eq!(e.ver_id, 3);
        assert_eq!(e.func_id, "classify_boring");
    }

    #[test]
    fn dependency_pattern_mapping() {
        assert!(DependencyPattern::OneToOne.is_narrow());
        assert!(DependencyPattern::OneToMany.is_narrow());
        assert!(!DependencyPattern::ManyToOne.is_narrow());
        assert!(!DependencyPattern::ManyToMany.is_narrow());
        assert_eq!(DependencyPattern::OneToOne.data_kind(), DataKind::Row);
        assert_eq!(DependencyPattern::ManyToMany.data_kind(), DataKind::Table);
        assert_eq!(
            DependencyPattern::parse("many_to_one"),
            Some(DependencyPattern::ManyToOne)
        );
        assert_eq!(DependencyPattern::parse("nope"), None);
    }
}
