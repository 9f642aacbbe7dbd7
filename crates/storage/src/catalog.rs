//! The system catalog.
//!
//! The catalog is consulted by the logical plan generator ("uses the system
//! catalog as additional context", §2.1) and owns the small set of database
//! utilities — row sampler, joinability tester — that the plan verifier's
//! tool user invokes (§4).
//!
//! A catalog is a plain value: names bound to immutable, `Arc`-shared
//! tables. What is computed from a table's rows (its vector indexes) lives
//! on that [`Table`] value, so no `&self` method here writes to the
//! catalog, and a clone is a copy of one small map.

use crate::ops::DistinctKeys;
use crate::pool::BufferPool;
use crate::wal::WalRecord;
use crate::{Row, StorageError, Table};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Named table registry.
///
/// Replacing a table through [`Catalog::register_or_replace`] — the path
/// every SQL `INSERT` and re-materialization takes — binds the name to a new
/// table value and nothing else: the new value has no derived state until a
/// consumer asks for some, so a loop of N single-row INSERTs followed by one
/// similarity query builds one vector index, and the replaced value's
/// indexes go with it (or keep answering for an older snapshot that still
/// holds it).
#[derive(Debug, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
    // The buffer pool every paged table of this catalog reads through;
    // shared (not deep-cloned) across catalog clones so staged recovery
    // and the live catalog see one set of counters and one budget.
    pool: Arc<BufferPool>,
}

/// Result of the joinability tester utility (§4): how well two columns join.
#[derive(Debug, Clone, PartialEq)]
pub struct Joinability {
    /// Fraction of distinct left keys that appear on the right, in `[0,1]`.
    pub key_overlap: f64,
    /// Whether the right side has at most one row per key (i.e. joining will
    /// not fan out — the assumption the paper's semantic monitor checks when
    /// a poster matches several movies, §5).
    pub right_unique: bool,
    /// Estimated join output rows.
    pub estimated_rows: f64,
}

impl Default for Catalog {
    fn default() -> Self {
        Self {
            tables: BTreeMap::new(),
            pool: Arc::new(BufferPool::from_env()),
        }
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffer pool shared by this catalog's paged tables.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Seals `name` in place: its open groups move into compressed column
    /// pages (see [`Table::seal`]; `page_rows` applies to a table sealed
    /// for the first time). The rows are unchanged, so the sealed table
    /// keeps the derived state of the one it replaces. Returns whether
    /// anything was sealed (false if the table was already all pages).
    pub fn page_table(&mut self, name: &str, page_rows: usize) -> Result<bool, StorageError> {
        let table = self.get(name)?;
        if table.is_sealed() {
            return Ok(false);
        }
        self.register_or_replace(table.seal(&self.pool, page_rows)?);
        Ok(true)
    }

    /// Registers a table; fails if the name is taken.
    pub fn register(&mut self, table: Table) -> Result<Arc<Table>, StorageError> {
        if self.tables.contains_key(table.name()) {
            return Err(StorageError::TableExists(table.name().to_string()));
        }
        Ok(self.register_or_replace(table))
    }

    /// Binds the table's name to this table value, replacing any earlier
    /// one (used when a repaired function version re-materializes its
    /// output, by SQL `INSERT`, and — passing the `Arc` another catalog
    /// already holds — to share a table without copying it).
    pub fn register_or_replace(&mut self, table: impl Into<Arc<Table>>) -> Arc<Table> {
        let table = table.into();
        self.tables
            .insert(table.name().to_string(), Arc::clone(&table));
        table
    }

    /// Appends `rows` to table `name` as a new table value: the INSERT
    /// primitive, live and on WAL replay. The new value shares every group
    /// of the one it replaces but the last, which it copies (or reopens)
    /// to append to, and seals only the groups these rows filled (into the
    /// catalog's pool if the table has none): a full group stays as it is
    /// until `page_table` or a checkpoint seals it.
    pub fn append_rows(&mut self, name: &str, rows: &[Row]) -> Result<Arc<Table>, StorageError> {
        let mut grown = (*self.get(name)?).clone();
        let first = grown.len() / grown.page_rows();
        grown.extend(rows.iter().cloned())?;
        grown.seal_groups(first..grown.len() / grown.page_rows(), &self.pool)?;
        Ok(self.register_or_replace(grown))
    }

    /// Applies one redo record: the only code that turns a record into a
    /// catalog change, live, on WAL replay and in every storage test.
    /// `CreateTable` registers an empty table (a taken name is
    /// [`StorageError::TableExists`], so the first committer wins), `Insert`
    /// is [`Catalog::append_rows`], `DropTable` is [`Catalog::drop_table`].
    /// `Functions` and the transaction markers change no table.
    pub fn apply(&mut self, record: &WalRecord) -> Result<(), StorageError> {
        match record {
            WalRecord::CreateTable { name, schema } => {
                self.register(Table::new(name.clone(), schema.clone()))?;
            }
            WalRecord::Insert { table, rows } => drop(self.append_rows(table, rows)?),
            WalRecord::DropTable(name) => self.drop_table(name)?,
            WalRecord::Functions(_)
            | WalRecord::Begin(_)
            | WalRecord::Commit(_)
            | WalRecord::Abort(_) => {}
        }
        Ok(())
    }

    /// Fetches a table by name.
    pub fn get(&self, name: &str) -> Result<Arc<Table>, StorageError> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Drops a table; its derived state dies with the table value.
    pub fn drop_table(&mut self, name: &str) -> Result<(), StorageError> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Catalog metadata the logical plan generator feeds to the model:
    /// every table with its schema and row count.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (name, t) in &self.tables {
            out.push_str(&format!("{name} {} [{} rows]\n", t.schema(), t.len()));
        }
        out
    }

    /// The rows-sampler utility (§4): first `n` rows of a table.
    pub fn sample_rows(&self, name: &str, n: usize) -> Result<Table, StorageError> {
        self.get(name)?.sample(n)
    }

    /// The joinability tester utility (§4): measures how `left.left_col`
    /// joins against `right.right_col`. Streams the two columns, so a paged
    /// table is read a page at a time and a read fault is an error.
    pub fn joinability(
        &self,
        left: &str,
        left_col: &str,
        right: &str,
        right_col: &str,
    ) -> Result<Joinability, StorageError> {
        let lt = self.get(left)?;
        let rt = self.get(right)?;
        lt.schema().resolve(left_col)?;

        // The right keys numbered as the hash join numbers its build side,
        // each with its row count; then each left slot looked up. A left
        // key that matches is told apart by the right key it matches; the
        // others are numbered apart.
        let (mut right_keys, mut counts) = (DistinctKeys::default(), Vec::<usize>::new());
        rt.for_each_column_group(right_col, |keys, rows| {
            for k in right_keys.number(keys, rows).into_iter().flatten() {
                if k == counts.len() {
                    counts.push(0);
                }
                counts[k] += 1;
            }
        })?;
        let (mut matched, mut unmatched) = (vec![false; counts.len()], DistinctKeys::default());
        let (mut estimated_rows, mut overlapping) = (0.0, 0usize);
        lt.for_each_column_group(left_col, |keys, rows| {
            let mut missing = Vec::new();
            for (i, found) in right_keys.find(keys, rows).into_iter().enumerate() {
                match found {
                    Some(k) => {
                        estimated_rows += counts[k] as f64;
                        overlapping += usize::from(!std::mem::replace(&mut matched[k], true));
                    }
                    None if !keys.is_null(i) => missing.push(i),
                    None => {}
                }
            }
            if !missing.is_empty() {
                unmatched.number(&keys.gather(&missing), missing.len());
            }
        })?;
        let key_overlap = match overlapping + unmatched.len() {
            0 => 0.0,
            n => overlapping as f64 / n as f64,
        };
        Ok(Joinability {
            key_overlap,
            right_unique: counts.iter().all(|&c| c <= 1),
            estimated_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Schema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let films = Table::from_rows(
            "films",
            Schema::of(&[("id", DataType::Int), ("title", DataType::Str)]),
            vec![
                vec![1i64.into(), "A".into()],
                vec![2i64.into(), "B".into()],
                vec![3i64.into(), "C".into()],
            ],
        )
        .unwrap();
        let posters = Table::from_rows(
            "posters",
            Schema::of(&[("film_id", DataType::Int), ("uri", DataType::Str)]),
            vec![
                vec![1i64.into(), "p1".into()],
                vec![1i64.into(), "p1b".into()],
                vec![2i64.into(), "p2".into()],
            ],
        )
        .unwrap();
        c.register(films).unwrap();
        c.register(posters).unwrap();
        c
    }

    #[test]
    fn register_get_drop() {
        let mut c = catalog();
        assert!(c.contains("films"));
        assert_eq!(c.table_names(), vec!["films", "posters"]);
        assert!(c.get("nope").is_err());
        c.drop_table("films").unwrap();
        assert!(!c.contains("films"));
        assert!(c.drop_table("films").is_err());
    }

    #[test]
    fn duplicate_registration_fails_but_replace_works() {
        let mut c = catalog();
        let dup = Table::new("films", Schema::of(&[("x", DataType::Int)]));
        assert!(matches!(
            c.register(dup.clone()),
            Err(StorageError::TableExists(_))
        ));
        c.register_or_replace(dup);
        assert_eq!(c.get("films").unwrap().schema().names(), vec!["x"]);
    }

    #[test]
    fn joinability_detects_fanout() {
        let c = catalog();
        let j = c.joinability("films", "id", "posters", "film_id").unwrap();
        assert!((j.key_overlap - 2.0 / 3.0).abs() < 1e-12);
        assert!(!j.right_unique); // film 1 has two posters
        assert_eq!(j.estimated_rows, 3.0);
    }

    /// `left.k` against `right.k`, resident and in two-row pages (keys
    /// confirmed across groups).
    fn join_keys(kind: DataType, left: Vec<Value>, right: Vec<Value>) -> Joinability {
        let table = |name: &str, keys: Vec<Value>| {
            let rows = keys.into_iter().map(|k| vec![k]).collect();
            Table::from_rows(name, Schema::of(&[("k", kind)]), rows).unwrap()
        };
        let mut c = Catalog::new();
        c.register(table("l", left)).unwrap();
        c.register(table("r", right)).unwrap();
        let resident = c.joinability("l", "k", "r", "k").unwrap();
        c.page_table("l", 2).unwrap();
        c.page_table("r", 2).unwrap();
        assert_eq!(c.joinability("l", "k", "r", "k").unwrap(), resident);
        resident
    }

    #[test]
    fn joinability_matches_no_null() {
        let (one, two, three) = (Value::Int(1), Value::Int(2), Value::Int(3));
        let j = join_keys(
            DataType::Int,
            vec![one.clone(), Value::Null, two, Value::Null],
            vec![Value::Null, one, Value::Null, three],
        );
        let expected = Joinability {
            key_overlap: 0.5,
            right_unique: true,
            estimated_rows: 1.0,
        };
        assert_eq!(j, expected);
        let nulls = join_keys(DataType::Int, vec![Value::Null], vec![Value::Null]);
        assert_eq!((nulls.key_overlap, nulls.estimated_rows), (0.0, 0.0));
    }

    #[test]
    fn joinability_counts_duplicate_keys_on_both_sides() {
        let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect();
        let j = join_keys(DataType::Int, ints(&[1, 1, 2, 2, 2]), ints(&[1, 1, 1, 2]));
        let expected = Joinability {
            key_overlap: 1.0,
            right_unique: false,
            estimated_rows: 9.0,
        };
        assert_eq!(j, expected);
    }

    #[test]
    fn joinability_over_string_keys() {
        let strs = |v: &[&str]| v.iter().map(|&s| Value::from(s)).collect();
        let j = join_keys(
            DataType::Str,
            strs(&["a", "b", "c", "", "b"]),
            strs(&["b", "b", "", "d"]),
        );
        let expected = Joinability {
            key_overlap: 0.5,
            right_unique: false,
            estimated_rows: 5.0,
        };
        assert_eq!(j, expected);
    }

    #[test]
    fn joinability_streams_paged_tables_a_page_at_a_time() {
        let mut c = catalog();
        let resident = c.joinability("films", "id", "posters", "film_id").unwrap();
        c.pool().set_budget(1);
        c.page_table("films", 1).unwrap();
        c.page_table("posters", 1).unwrap();
        assert_eq!(
            c.joinability("films", "id", "posters", "film_id").unwrap(),
            resident
        );
        // One column of each table was read: 3 + 3 one-row pages, not the
        // 12 a full materialization of both decodes.
        assert_eq!(c.pool().status().misses, 6);
        assert!(matches!(
            c.joinability("films", "nope", "posters", "film_id"),
            Err(StorageError::UnknownColumn(_))
        ));
    }

    #[test]
    fn an_insert_seals_only_the_group_it_fills() {
        use crate::paged::RowGroup;
        let schema = Schema::of(&[("id", DataType::Int), ("tag", DataType::Str)]);
        let row = |i: usize| vec![Value::Int(i as i64), Value::Str(format!("t{}", i % 3))];
        // Four full groups and a last one two rows short, never sealed.
        let page_rows = crate::DEFAULT_PAGE_ROWS;
        let loaded = Table::from_rows("t", schema, (0..5 * page_rows - 2).map(row).collect());
        let mut c = Catalog::new();
        let parent = c.register(loaded.unwrap()).unwrap();
        assert_eq!(parent.groups().len(), 5);
        let pages = |t: &Table| -> usize {
            let groups = t.groups().iter();
            groups.map(|g| if g.is_open() { 0 } else { 2 }).sum()
        };
        let shares_full_groups = |t: &Table| {
            (0..4).all(|g| match (&parent.groups()[g], &t.groups()[g]) {
                (RowGroup::Open(a), RowGroup::Open(b)) => Arc::ptr_eq(a, b),
                _ => false,
            })
        };
        // The first INSERT fills nothing: every full group is the parent's
        // and no page is encoded.
        let first = c.append_rows("t", &[row(5 * page_rows - 2)]).unwrap();
        assert!(shares_full_groups(&first));
        assert_eq!((pages(&first), first.is_paged()), (0, false));
        // The INSERT that fills the last group encodes it, one page per
        // column, and leaves the full groups before it open and shared.
        let second = c.append_rows("t", &[row(5 * page_rows - 1)]).unwrap();
        assert!(shares_full_groups(&second));
        assert_eq!(pages(&second), 2);
        assert!(!second.groups()[4].is_open() && second.is_paged());
        assert_eq!(
            second.to_rows().unwrap(),
            (0..5 * page_rows).map(row).collect::<Vec<_>>()
        );
        // Sealing the table encodes the four groups the INSERTs left open.
        assert!(c.page_table("t", 7).unwrap());
        let sealed = c.get("t").unwrap();
        assert_eq!((pages(&sealed), sealed.page_rows()), (10, page_rows));
        assert!(!c.page_table("t", 7).unwrap());
    }

    #[test]
    fn describe_lists_all_tables() {
        let d = catalog().describe();
        assert!(d.contains("films"));
        assert!(d.contains("posters"));
        assert!(d.contains("[3 rows]"));
    }

    #[test]
    fn sample_rows_utility() {
        let c = catalog();
        assert_eq!(c.sample_rows("films", 2).unwrap().len(), 2);
    }

    #[test]
    fn bulk_replace_defers_rebuilds_until_first_consumer() {
        let mut c = catalog();
        let first = c.get("films").unwrap().vector_index("title").unwrap();
        // A bulk-insert-style loop: N replacements, zero builds — every
        // replaced table value dies with nothing derived from it.
        let mut replaced = Vec::new();
        for i in 0..100i64 {
            let mut grown = (*c.get("films").unwrap()).clone();
            grown
                .push(vec![(100 + i).into(), format!("t{i}").into()])
                .unwrap();
            replaced.push(Arc::downgrade(&c.register_or_replace(grown)));
        }
        let current = replaced.pop().unwrap();
        assert!(replaced.iter().all(|t| t.upgrade().is_none()));
        // The first consumer builds once and sees the current rows; the
        // second gets the very same index.
        let ix = c.get("films").unwrap().vector_index("title").unwrap();
        assert_eq!(ix.rows(), 103);
        assert!(!Arc::ptr_eq(&ix, &first));
        assert!(Arc::ptr_eq(
            &ix,
            &c.get("films").unwrap().vector_index("title").unwrap()
        ));
        let table = current.upgrade().unwrap();
        assert!(Arc::ptr_eq(&ix, &table.vector_index("title").unwrap()));
    }

    #[test]
    fn replace_without_derived_state_stays_clean() {
        let mut c = catalog();
        let grown = (*c.get("films").unwrap()).clone();
        c.register_or_replace(grown);
        assert!(c.get("films").unwrap().vector_indexes().is_empty());
    }

    #[test]
    fn same_rows_share_derived_state_and_clones_are_lock_free() {
        let mut c = catalog();
        let ix = c.get("films").unwrap().vector_index("title").unwrap();
        let index_of = |c: &Catalog| c.get("films").unwrap().vector_index("title").unwrap();
        // An older version of the catalog answers from the same index…
        let older = c.clone();
        // …paging the table keeps it (same rows)…
        assert!(c.page_table("films", 2).unwrap());
        assert!(c.get("films").unwrap().is_paged());
        assert!(Arc::ptr_eq(&ix, &index_of(&c)));
        assert!(Arc::ptr_eq(&ix, &index_of(&older)));
        // …and so does handing the same `Arc<Table>` to another catalog.
        let mut other = Catalog::new();
        other.register_or_replace(c.get("films").unwrap());
        assert!(Arc::ptr_eq(&ix, &index_of(&other)));
        // A renamed clone still has these rows; a grown one does not.
        let mut renamed = (*c.get("films").unwrap()).clone();
        renamed.set_name("films2");
        assert!(Arc::ptr_eq(&ix, &renamed.vector_index("title").unwrap()));
        renamed.push(vec![9i64.into(), "D".into()]).unwrap();
        assert!(!Arc::ptr_eq(&ix, &renamed.vector_index("title").unwrap()));
        assert_eq!(ix.rows(), 3);
    }

    fn docs_catalog() -> Catalog {
        use crate::encode_embedding;
        use kath_vector::seeded_unit_vector;
        let mut c = Catalog::new();
        let mut t = Table::new(
            "docs",
            Schema::of(&[("id", DataType::Int), ("emb", DataType::Blob)]),
        );
        for i in 0..20u64 {
            t.push(vec![
                Value::Int(i as i64),
                Value::Blob(encode_embedding(&seeded_unit_vector(i % 3 + 50))),
            ])
            .unwrap();
        }
        c.register(t).unwrap();
        c
    }

    #[test]
    fn vector_index_derives_on_first_use_and_rebuilds_after_insert() {
        use crate::{encode_embedding, VectorStrategy};
        use kath_vector::seeded_unit_vector;
        let mut c = docs_catalog();
        assert!(c.get("docs").unwrap().vector_indexes().is_empty());
        let ix = c.get("docs").unwrap().vector_index("emb").unwrap();
        assert_eq!(ix.rows(), 20);
        assert!(Arc::ptr_eq(
            &ix,
            &c.get("docs").unwrap().vector_index("emb").unwrap()
        ));
        assert_eq!(c.get("docs").unwrap().vector_indexes()[0].column(), "emb");
        // A replaced table has no index until the next similarity consumer
        // asks, and that consumer sees the new row.
        let mut grown = (*c.get("docs").unwrap()).clone();
        grown
            .push(vec![
                Value::Int(99),
                Value::Blob(encode_embedding(&seeded_unit_vector(51))),
            ])
            .unwrap();
        c.register_or_replace(grown);
        assert!(c.get("docs").unwrap().vector_indexes().is_empty());
        let ix = c.get("docs").unwrap().vector_index("emb").unwrap();
        assert_eq!(ix.rows(), 21);
        assert_eq!(c.get("docs").unwrap().vector_indexes().len(), 1);
        let top = ix.search(&seeded_unit_vector(51), 21, VectorStrategy::Flat);
        assert!(top.contains(&20), "new row must be indexed: {top:?}");
    }

    #[test]
    fn vector_index_errors_and_drops() {
        let mut c = docs_catalog();
        let docs = c.get("docs").unwrap();
        assert!(docs.vector_index("id").is_err());
        assert!(docs.vector_index("nope").is_err());
        assert!(c.get("missing").is_err());
        // A failed build leaves no index behind.
        assert!(docs.vector_indexes().is_empty());
        // Dropping the table discards its derived vector state with it.
        let ix = Arc::downgrade(&docs.vector_index("emb").unwrap());
        drop(docs);
        c.drop_table("docs").unwrap();
        assert!(ix.upgrade().is_none());
        assert!(c.get("docs").is_err());
    }
}
