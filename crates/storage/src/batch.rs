//! Columnar batches for vectorized execution.
//!
//! The Volcano `next()` protocol pays a dynamic-dispatch call — and a
//! name-based schema resolve inside every expression — per *row*. Batch-at-
//! a-time execution amortizes both over [`RowBatch::capacity`]-sized chunks:
//! each column of a batch is one typed, null-bitmap-backed [`ColumnVector`],
//! so predicate and projection kernels run as tight loops over `i64`/`f64`
//! slices instead of per-row `Value` matches. The row-at-a-time path stays
//! as the compatibility baseline; parity tests assert both produce
//! identical results.

use crate::{cmp_int_f64, DataType, Row, StorageError, Value};
use std::cmp::Ordering;

/// Default number of rows per batch. Large enough to amortize per-batch
/// overhead, small enough that a batch's columns stay cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// How a query pipeline is driven.
///
/// The mode governs the protocol the *pipeline spine* is pulled through
/// (root-to-leaf `next()` vs `next_batch()` calls). Blocking operators
/// (hash-join build side, aggregate, sort) always materialize their inputs
/// batch-wise internally — results are identical either way; Volcano is
/// the per-row-dispatch baseline on the streaming path, not a promise that
/// no batch is ever formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Classical tuple-at-a-time Volcano iteration.
    Volcano,
    /// Batch-at-a-time execution with the given batch capacity (≥ 1).
    Batched(usize),
}

impl ExecMode {
    /// The batch capacity, or `None` in Volcano mode.
    pub fn batch_size(&self) -> Option<usize> {
        match self {
            ExecMode::Volcano => None,
            ExecMode::Batched(n) => Some((*n).max(1)),
        }
    }
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::Batched(DEFAULT_BATCH_SIZE)
    }
}

/// What is left of the deleted compiled drive's policy: one value, which
/// the engine stores and ignores. It exists only because the repo benchmark
/// (`benchmark/`) spells it; it goes when that package can be edited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompileMode {
    /// No pipeline is compiled: every SELECT runs the interpreted operators.
    #[default]
    Off,
}

/// A packed validity bitmap: bit `i` is set when slot `i` is NULL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    nulls: usize,
}

impl NullBitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An all-valid bitmap of `len` slots.
    pub fn all_valid(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
            nulls: 0,
        }
    }

    /// A bitmap of `len` slots over packed words (bit `i % 64` of word
    /// `i / 64` set: slot `i` is NULL), as a page stores them. Bits past
    /// `len` are cleared; missing words read as all-valid.
    pub(crate) fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(64), 0);
        if let (Some(last), tail @ 1..) = (words.last_mut(), len % 64) {
            *last &= (1u64 << tail) - 1;
        }
        let nulls = words.iter().map(|w| w.count_ones() as usize).sum();
        Self { words, len, nulls }
    }

    /// Appends one slot.
    pub fn push(&mut self, is_null: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if is_null {
            self.words[word] |= 1u64 << (self.len % 64);
            self.nulls += 1;
        }
        self.len += 1;
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether slot `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of NULL slots.
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// Whether any slot is NULL (lets kernels skip per-element checks).
    pub fn any_null(&self) -> bool {
        self.nulls > 0
    }
}

/// The strings of a decoded page, held the way the page stores them: one
/// UTF-8 buffer and a `(start, len)` span per slot (dictionary and
/// run-length pages point many slots at one entry). Two allocations
/// however many rows; a slot becomes a `String` only when it is copied out.
#[derive(Debug, Clone)]
pub struct StrBuf {
    spans: Vec<(u32, u32)>,
    buf: String,
}

impl StrBuf {
    /// Assembles the page form. A span that does not lie in `buf` on
    /// character boundaries reads as the empty string, never a panic.
    pub(crate) fn new(spans: Vec<(u32, u32)>, buf: String) -> Self {
        Self { spans, buf }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The string at slot `i`, read in place.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let (start, len) = self.spans[i];
        let start = start as usize;
        self.buf
            .get(start..start + len as usize)
            .unwrap_or_default()
    }

    /// The strings in slot order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Heap bytes held: the spans and the buffer.
    pub fn heap_bytes(&self) -> usize {
        self.spans.len() * std::mem::size_of::<(u32, u32)>() + self.buf.len()
    }
}

/// The typed payload of a [`ColumnVector`]. NULL slots hold a default
/// payload; the bitmap is authoritative.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// All non-NULL values are `Int`.
    Int(Vec<i64>),
    /// All non-NULL values are `Float`.
    Float(Vec<f64>),
    /// All non-NULL values are `Str`.
    Str(Vec<String>),
    /// A `Str` column as a decoded page pools it. Only the buffer pool holds
    /// this form: every copy out of it ([`ColumnVector::slice`],
    /// [`ColumnVector::gather`]) is a `Str` column, so batches, rows and
    /// operators never see it. Equal to the `Str` column of the same strings.
    StrBuf(Box<StrBuf>),
    /// All non-NULL values are `Bool`.
    Bool(Vec<bool>),
    /// Mixed-type or blob-bearing column: values stored as-is.
    Mixed(Vec<Value>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::StrBuf(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }
}

impl PartialEq for ColumnData {
    fn eq(&self, other: &Self) -> bool {
        use ColumnData::*;
        match (self, other) {
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Mixed(a), Mixed(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (StrBuf(a), StrBuf(b)) => a.iter().eq(b.iter()),
            (Str(a), StrBuf(b)) | (StrBuf(b), Str(a)) => a.iter().map(String::as_str).eq(b.iter()),
            _ => false,
        }
    }
}

/// The positions a filter mask keeps, ascending.
fn kept_positions(mask: &[bool]) -> Vec<usize> {
    (0..mask.len()).filter(|&i| mask[i]).collect()
}

/// One column of a [`RowBatch`]: a typed vector plus a null bitmap. The
/// representation is chosen from the actual values so converting back to
/// rows reproduces them exactly (an `Int` stays an `Int`).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnVector {
    data: ColumnData,
    nulls: NullBitmap,
}

impl ColumnVector {
    /// Builds a column from owned values, picking the densest representation
    /// that round-trips exactly.
    pub fn from_values(values: Vec<Value>) -> Self {
        let mut nulls = NullBitmap::new();
        let mut tag: Option<DataType> = None;
        let mut uniform = true;
        for v in &values {
            nulls.push(v.is_null());
            if v.is_null() {
                continue;
            }
            let t = v.data_type();
            match tag {
                None => tag = Some(t),
                Some(prev) if prev == t => {}
                Some(_) => uniform = false,
            }
        }
        let data = if !uniform {
            ColumnData::Mixed(values)
        } else {
            match tag {
                Some(DataType::Int) => ColumnData::Int(
                    values
                        .into_iter()
                        .map(|v| v.as_int().unwrap_or_default())
                        .collect(),
                ),
                Some(DataType::Float) => ColumnData::Float(
                    values
                        .into_iter()
                        .map(|v| v.as_f64().unwrap_or_default())
                        .collect(),
                ),
                Some(DataType::Bool) => ColumnData::Bool(
                    values
                        .into_iter()
                        .map(|v| v.as_bool().unwrap_or_default())
                        .collect(),
                ),
                Some(DataType::Str) => ColumnData::Str(
                    values
                        .into_iter()
                        .map(|v| match v {
                            Value::Str(s) => s,
                            _ => String::new(),
                        })
                        .collect(),
                ),
                // All-NULL columns and blobs stay as raw values.
                _ => ColumnData::Mixed(values),
            }
        };
        Self { data, nulls }
    }

    /// Assembles a column from a typed payload and its bitmap. Callers must
    /// uphold the invariant that NULL slots hold default payloads.
    pub(crate) fn from_parts(data: ColumnData, nulls: NullBitmap) -> Self {
        debug_assert_eq!(data.len(), nulls.len());
        Self { data, nulls }
    }

    /// A column of `n` copies of `v` (literal broadcast).
    pub fn repeat(v: &Value, n: usize) -> Self {
        let mut nulls = NullBitmap::new();
        for _ in 0..n {
            nulls.push(v.is_null());
        }
        let data = match v {
            Value::Int(i) => ColumnData::Int(vec![*i; n]),
            Value::Float(f) => ColumnData::Float(vec![*f; n]),
            Value::Bool(b) => ColumnData::Bool(vec![*b; n]),
            Value::Str(s) => ColumnData::Str(vec![s.clone(); n]),
            _ => ColumnData::Mixed(vec![v.clone(); n]),
        };
        Self { data, nulls }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether slot `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.is_null(i)
    }

    /// Number of NULL slots.
    pub fn null_count(&self) -> usize {
        self.nulls.null_count()
    }

    /// The null bitmap.
    pub fn nulls(&self) -> &NullBitmap {
        &self.nulls
    }

    /// Reconstructs the value at slot `i`.
    pub fn value(&self, i: usize) -> Value {
        if self.nulls.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::StrBuf(v) => Value::Str(v.get(i).to_owned()),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// The typed payload (representation inspection for kernels).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The `i64` slice when this is an Int column.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The `f64` slice when this is a Float column.
    pub fn as_floats(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The string slice when this is a Str column.
    pub fn as_strs(&self) -> Option<&[String]> {
        match &self.data {
            ColumnData::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Slot `i` widened to `f64` (Int or Float, non-NULL).
    #[inline]
    pub fn numeric_at(&self, i: usize) -> Option<f64> {
        if self.nulls.is_null(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => Some(v[i] as f64),
            ColumnData::Float(v) => Some(v[i]),
            ColumnData::Mixed(v) => v[i].as_f64(),
            _ => None,
        }
    }

    /// SQL `WHERE` truthiness per slot (NULL is falsy).
    pub fn truthy_mask(&self) -> Vec<bool> {
        let n = self.len();
        let mut mask = Vec::with_capacity(n);
        match &self.data {
            ColumnData::Bool(v) => {
                for (i, b) in v.iter().enumerate() {
                    mask.push(*b && !self.nulls.is_null(i));
                }
            }
            ColumnData::Int(v) => {
                for (i, x) in v.iter().enumerate() {
                    mask.push(*x != 0 && !self.nulls.is_null(i));
                }
            }
            ColumnData::Float(v) => {
                for (i, x) in v.iter().enumerate() {
                    mask.push(*x != 0.0 && !self.nulls.is_null(i));
                }
            }
            _ => {
                for i in 0..n {
                    mask.push(self.value(i).is_truthy());
                }
            }
        }
        mask
    }

    /// SQL comparison of slot `i` with a literal, read in place: the same
    /// answer as `self.value(i).sql_cmp(lit)` without building the value.
    pub fn sql_cmp_at(&self, i: usize, lit: &Value) -> Option<Ordering> {
        if self.nulls.is_null(i) {
            return None;
        }
        match (&self.data, lit) {
            (ColumnData::Int(v), Value::Int(b)) => Some(v[i].cmp(b)),
            (ColumnData::Int(v), Value::Float(b)) => cmp_int_f64(v[i], *b),
            (ColumnData::Float(v), Value::Float(b)) => v[i].partial_cmp(b),
            (ColumnData::Float(v), Value::Int(b)) => cmp_int_f64(*b, v[i]).map(Ordering::reverse),
            (ColumnData::Str(v), Value::Str(b)) => Some(v[i].cmp(b)),
            (ColumnData::StrBuf(v), Value::Str(b)) => Some(v.get(i).cmp(b.as_str())),
            (ColumnData::Bool(v), Value::Bool(b)) => Some(v[i].cmp(b)),
            (ColumnData::Mixed(v), _) => v[i].sql_cmp(lit),
            _ => None,
        }
    }

    /// The slots `idx` yields, in that order, as a new column of the same
    /// payload kind; `None` yields a NULL slot. The one typed copy routine
    /// behind [`ColumnVector::slice`], [`ColumnVector::gather`],
    /// [`ColumnVector::gather_padded`] and [`ColumnVector::filter`].
    fn take(&self, idx: impl ExactSizeIterator<Item = Option<usize>> + Clone) -> ColumnVector {
        fn pick<T: Clone + Default>(v: &[T], idx: impl Iterator<Item = Option<usize>>) -> Vec<T> {
            idx.map(|i| i.map_or_else(T::default, |i| v[i].clone()))
                .collect()
        }
        let nulls = if !self.nulls.any_null() && idx.clone().all(|i| i.is_some()) {
            NullBitmap::all_valid(idx.len())
        } else {
            let mut nulls = NullBitmap::new();
            for i in idx.clone() {
                nulls.push(i.is_none_or(|i| self.nulls.is_null(i)));
            }
            nulls
        };
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(pick(v, idx)),
            ColumnData::Float(v) => ColumnData::Float(pick(v, idx)),
            ColumnData::Bool(v) => ColumnData::Bool(pick(v, idx)),
            ColumnData::Str(v) => ColumnData::Str(pick(v, idx)),
            ColumnData::StrBuf(v) => ColumnData::Str(
                idx.map(|i| i.map_or_else(String::new, |i| v.get(i).to_owned()))
                    .collect(),
            ),
            ColumnData::Mixed(v) => ColumnData::Mixed(
                idx.map(|i| i.map_or(Value::Null, |i| v[i].clone()))
                    .collect(),
            ),
        };
        ColumnVector { data, nulls }
    }

    /// Slots `[start, end)` as a new column.
    pub fn slice(&self, start: usize, end: usize) -> ColumnVector {
        self.take((start..end).map(Some))
    }

    /// The slots at `idx`, in that order (any order, repeats allowed).
    pub fn gather(&self, idx: &[usize]) -> ColumnVector {
        self.take(idx.iter().copied().map(Some))
    }

    /// [`ColumnVector::gather`] where `None` stands for a NULL slot — the
    /// build side of a left join's unmatched rows.
    pub fn gather_padded(&self, idx: &[Option<usize>]) -> ColumnVector {
        self.take(idx.iter().copied())
    }

    /// A new column keeping only slots where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> ColumnVector {
        debug_assert_eq!(mask.len(), self.len());
        self.gather(&kept_positions(mask))
    }

    /// All values, reconstructed.
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    /// All values, moving payloads out (no clones).
    pub fn into_values(self) -> Vec<Value> {
        let nulls = self.nulls;
        let wrap = |i: usize, v: Value| if nulls.is_null(i) { Value::Null } else { v };
        match self.data {
            ColumnData::Int(v) => v
                .into_iter()
                .enumerate()
                .map(|(i, x)| wrap(i, Value::Int(x)))
                .collect(),
            ColumnData::Float(v) => v
                .into_iter()
                .enumerate()
                .map(|(i, x)| wrap(i, Value::Float(x)))
                .collect(),
            ColumnData::Str(v) => v
                .into_iter()
                .enumerate()
                .map(|(i, x)| wrap(i, Value::Str(x)))
                .collect(),
            ColumnData::StrBuf(v) => v
                .iter()
                .enumerate()
                .map(|(i, x)| wrap(i, Value::Str(x.to_owned())))
                .collect(),
            ColumnData::Bool(v) => v
                .into_iter()
                .enumerate()
                .map(|(i, x)| wrap(i, Value::Bool(x)))
                .collect(),
            ColumnData::Mixed(v) => v,
        }
    }
}

/// A horizontal slice of a relation in columnar layout: one
/// [`ColumnVector`] per schema column, all the same length.
#[derive(Debug, Clone, PartialEq)]
pub struct RowBatch {
    columns: Vec<ColumnVector>,
    rows: usize,
}

impl RowBatch {
    /// Builds a batch from columns; all must share one length.
    pub fn from_columns(columns: Vec<ColumnVector>) -> Result<Self, StorageError> {
        let rows = columns.first().map(ColumnVector::len).unwrap_or(0);
        if let Some(bad) = columns.iter().find(|c| c.len() != rows) {
            return Err(StorageError::ArityMismatch {
                expected: rows,
                got: bad.len(),
            });
        }
        Ok(Self { columns, rows })
    }

    /// Transposes rows (all of arity `arity`) into a columnar batch.
    pub fn from_rows(arity: usize, rows: Vec<Row>) -> Self {
        let n = rows.len();
        let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(n)).collect();
        for row in rows {
            for (c, v) in row.into_iter().enumerate() {
                cols[c].push(v);
            }
        }
        Self {
            columns: cols.into_iter().map(ColumnVector::from_values).collect(),
            rows: n,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column `c`.
    pub fn column(&self, c: usize) -> &ColumnVector {
        &self.columns[c]
    }

    /// All columns.
    pub fn columns(&self) -> &[ColumnVector] {
        &self.columns
    }

    /// Reconstructs row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Transposes back to rows.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Transposes back to rows, moving every value out (no clones).
    pub fn into_rows(self) -> Vec<Row> {
        let rows = self.rows;
        let mut iters: Vec<std::vec::IntoIter<Value>> = self
            .columns
            .into_iter()
            .map(|c| c.into_values().into_iter())
            .collect();
        (0..rows)
            .map(|_| {
                iters
                    .iter_mut()
                    .map(|it| it.next().expect("columns share the batch length"))
                    .collect()
            })
            .collect()
    }

    /// The rows at `idx`, in that order (any order, repeats allowed).
    pub fn gather(&self, idx: &[usize]) -> RowBatch {
        RowBatch {
            columns: self.columns.iter().map(|c| c.gather(idx)).collect(),
            rows: idx.len(),
        }
    }

    /// A new batch keeping only rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> RowBatch {
        self.gather(&kept_positions(mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values() -> Vec<Value> {
        vec![Value::Int(1), Value::Null, Value::Int(3)]
    }

    #[test]
    fn int_column_round_trips_exactly() {
        let col = ColumnVector::from_values(values());
        assert_eq!(col.len(), 3);
        assert_eq!(col.null_count(), 1);
        assert!(col.is_null(1));
        assert_eq!(col.as_ints(), Some(&[1i64, 0, 3][..]));
        assert_eq!(col.to_values(), values());
    }

    #[test]
    fn mixed_column_falls_back_to_values() {
        let vals = vec![Value::Int(1), Value::Str("x".into())];
        let col = ColumnVector::from_values(vals.clone());
        assert!(col.as_ints().is_none());
        assert_eq!(col.to_values(), vals);
    }

    #[test]
    fn int_and_float_mix_is_not_widened() {
        // Parity with the row path demands Int(1) stays Int(1).
        let vals = vec![Value::Int(1), Value::Float(2.5)];
        let col = ColumnVector::from_values(vals.clone());
        assert_eq!(col.to_values(), vals);
        assert_eq!(col.value(0), Value::Int(1));
        assert!(matches!(col.value(0), Value::Int(_)));
    }

    #[test]
    fn all_null_column() {
        let col = ColumnVector::from_values(vec![Value::Null, Value::Null]);
        assert_eq!(col.null_count(), 2);
        assert_eq!(col.to_values(), vec![Value::Null, Value::Null]);
    }

    #[test]
    fn bitmap_across_word_boundary() {
        let mut vals = Vec::new();
        for i in 0..130 {
            vals.push(if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(i)
            });
        }
        let col = ColumnVector::from_values(vals.clone());
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.is_null(i), v.is_null(), "slot {i}");
        }
        assert_eq!(col.to_values(), vals);
    }

    #[test]
    fn repeat_broadcasts_literals() {
        let col = ColumnVector::repeat(&Value::Float(0.5), 4);
        assert_eq!(col.as_floats(), Some(&[0.5, 0.5, 0.5, 0.5][..]));
        let nul = ColumnVector::repeat(&Value::Null, 2);
        assert_eq!(nul.null_count(), 2);
    }

    #[test]
    fn truthy_mask_matches_row_semantics() {
        let col = ColumnVector::from_values(vec![Value::Int(0), Value::Int(7), Value::Null]);
        assert_eq!(col.truthy_mask(), vec![false, true, false]);
        let col = ColumnVector::from_values(vec![Value::Bool(true), Value::Null]);
        assert_eq!(col.truthy_mask(), vec![true, false]);
    }

    #[test]
    fn batch_transpose_round_trips() {
        let rows = vec![
            vec![Value::Int(1), "a".into(), Value::Null],
            vec![Value::Int(2), "b".into(), Value::Float(0.5)],
        ];
        let batch = RowBatch::from_rows(3, rows.clone());
        assert_eq!(batch.num_rows(), 2);
        assert_eq!(batch.num_columns(), 3);
        assert_eq!(batch.to_rows(), rows);
        assert_eq!(batch.row(1), rows[1]);
    }

    #[test]
    fn batch_filter_keeps_masked_rows() {
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(3)],
        ];
        let batch = RowBatch::from_rows(1, rows);
        let kept = batch.filter(&[true, false, true]);
        assert_eq!(kept.num_rows(), 2);
        assert_eq!(kept.column(0).as_ints(), Some(&[1i64, 3][..]));
    }

    #[test]
    fn from_columns_rejects_ragged() {
        let a = ColumnVector::from_values(vec![Value::Int(1)]);
        let b = ColumnVector::from_values(vec![Value::Int(1), Value::Int(2)]);
        assert!(RowBatch::from_columns(vec![a, b]).is_err());
    }

    #[test]
    fn exec_mode_batch_size() {
        assert_eq!(ExecMode::Volcano.batch_size(), None);
        assert_eq!(ExecMode::Batched(0).batch_size(), Some(1));
        assert_eq!(ExecMode::default().batch_size(), Some(DEFAULT_BATCH_SIZE));
    }
}
