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

use crate::pool::BufferPool;
use crate::wal::WalRecord;
use crate::{Row, StorageError, Table, Value, VectorIndex, DEFAULT_PAGE_ROWS};
use std::collections::{BTreeMap, HashMap, HashSet};
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

    /// Re-budgets the buffer pool (in pages), evicting down immediately.
    pub fn set_pool_budget(&self, pages: usize) {
        self.pool.set_budget(pages);
    }

    /// Seals `name` in place: its tail moves into compressed column pages
    /// (see [`Table::seal`]; `page_rows` applies to a table sealed for the
    /// first time). The rows are unchanged, so the sealed table keeps the
    /// derived state of the one it replaces. Returns whether anything was
    /// sealed (false if the table was already all pages).
    pub fn page_table(&mut self, name: &str, page_rows: usize) -> Result<bool, StorageError> {
        let table = self.get(name)?;
        if table.is_paged() && table.tail().is_empty() {
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
    /// primitive, live and on WAL replay. The new value shares every sealed
    /// page of the one it replaces and copies only its tail. A tail that
    /// reaches a full page (the sealed part's page size, else
    /// [`DEFAULT_PAGE_ROWS`]) is sealed in turn, so an INSERT costs at most
    /// a page of rows however long the table is — and decodes at most the
    /// short last page, when it seals.
    pub fn append_rows(&mut self, name: &str, rows: &[Row]) -> Result<Arc<Table>, StorageError> {
        let existing = self.get(name)?;
        let mut grown = (*existing).clone();
        for row in rows {
            grown.push(row.clone())?;
        }
        let page_rows = existing
            .paged()
            .map_or(DEFAULT_PAGE_ROWS, |pages| pages.page_rows());
        if grown.tail().len() >= page_rows {
            grown = grown.seal(&self.pool, page_rows)?;
        }
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

    /// The vector similarity index over `table.column`, derived on first
    /// use: the planner calls this when it lowers an
    /// `ORDER BY SIMILARITY(...) DESC LIMIT k` pattern, so no explicit DDL
    /// is needed (see [`Table::vector_index`]).
    pub fn vector_index_for(
        &self,
        table: &str,
        column: &str,
    ) -> Result<Arc<VectorIndex>, StorageError> {
        self.get(table)?.vector_index(column)
    }

    /// Drops the derived vector index over `table.column`; returns whether
    /// one existed.
    pub fn drop_vector_index(&self, table: &str, column: &str) -> bool {
        self.tables
            .get(table)
            .is_some_and(|t| t.drop_vector_index(column))
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

        let mut right_counts: HashMap<Value, usize> = HashMap::new();
        rt.for_each_in_column(right_col, |_, key| {
            if !key.is_null() {
                *right_counts.entry(key.clone()).or_insert(0) += 1;
            }
            Ok(())
        })?;
        let mut left_keys: HashSet<Value> = HashSet::new();
        let mut estimated_rows = 0.0;
        lt.for_each_in_column(left_col, |_, key| {
            if !key.is_null() {
                estimated_rows += right_counts.get(key).copied().unwrap_or(0) as f64;
                left_keys.insert(key.clone());
            }
            Ok(())
        })?;
        let overlapping = left_keys
            .iter()
            .filter(|k| right_counts.contains_key(k))
            .count();
        let key_overlap = if left_keys.is_empty() {
            0.0
        } else {
            overlapping as f64 / left_keys.len() as f64
        };
        Ok(Joinability {
            key_overlap,
            right_unique: right_counts.values().all(|&c| c <= 1),
            estimated_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Schema};

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

    #[test]
    fn joinability_streams_paged_tables_a_page_at_a_time() {
        let mut c = catalog();
        let resident = c.joinability("films", "id", "posters", "film_id").unwrap();
        c.set_pool_budget(1);
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
        let first = c.vector_index_for("films", "title").unwrap();
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
        let ix = c.vector_index_for("films", "title").unwrap();
        assert_eq!(ix.rows(), 103);
        assert!(!Arc::ptr_eq(&ix, &first));
        assert!(Arc::ptr_eq(
            &ix,
            &c.vector_index_for("films", "title").unwrap()
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
        let ix = c.vector_index_for("films", "title").unwrap();
        let index_of = |c: &Catalog| c.vector_index_for("films", "title").unwrap();
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
        let ix = c.vector_index_for("docs", "emb").unwrap();
        assert_eq!(ix.rows(), 20);
        assert!(Arc::ptr_eq(
            &ix,
            &c.vector_index_for("docs", "emb").unwrap()
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
        let ix = c.vector_index_for("docs", "emb").unwrap();
        assert_eq!(ix.rows(), 21);
        assert_eq!(c.get("docs").unwrap().vector_indexes().len(), 1);
        let top = ix.search(&seeded_unit_vector(51), 21, VectorStrategy::Flat);
        assert!(top.contains(&20), "new row must be indexed: {top:?}");
    }

    #[test]
    fn vector_index_errors_and_drops() {
        let mut c = docs_catalog();
        assert!(c.vector_index_for("docs", "id").is_err());
        assert!(c.vector_index_for("docs", "nope").is_err());
        assert!(c.vector_index_for("missing", "emb").is_err());
        c.vector_index_for("docs", "emb").unwrap();
        assert!(c.drop_vector_index("docs", "emb"));
        assert!(!c.drop_vector_index("docs", "emb"));
        assert!(!c.drop_vector_index("missing", "emb"));
        assert!(c.get("docs").unwrap().vector_indexes().is_empty());
        // Dropping the table discards its derived vector state with it.
        let ix = Arc::downgrade(&c.vector_index_for("docs", "emb").unwrap());
        c.drop_table("docs").unwrap();
        assert!(ix.upgrade().is_none());
        assert!(c.vector_index_for("docs", "emb").is_err());
    }
}
