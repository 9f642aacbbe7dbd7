//! Columnar batches for vectorized execution.
//!
//! A row-at-a-time protocol pays a dynamic-dispatch call — and a
//! name-based schema resolve inside every expression — per *row*. Batch-at-
//! a-time execution amortizes both over batch-sized chunks: each column of
//! a batch is one typed, null-bitmap-backed [`ColumnVector`], so predicate
//! and projection kernels run as tight loops over `i64`/`f64` slices
//! instead of per-row `Value` matches.

use crate::value::{float_total_cmp, ValueRef};
use crate::{cmp_int_f64, BinOp, DataType, Row, StorageError, Value};
use std::cmp::Ordering;

/// Default number of rows per batch. Large enough to amortize per-batch
/// overhead, small enough that a batch's columns stay cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// How a query pipeline is driven: the batch size its sources cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Kept for the repo benchmark (`benchmark/`) only, which still names
    /// it: runs exactly as `ExecMode::default()`.
    Volcano,
    /// Batch-at-a-time execution with the given batch capacity (≥ 1).
    Batched(usize),
}

impl ExecMode {
    /// The batch capacity.
    pub fn batch_size(&self) -> usize {
        match self {
            ExecMode::Volcano => DEFAULT_BATCH_SIZE,
            ExecMode::Batched(n) => (*n).max(1),
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

    /// An empty bitmap with room for `slots` pushes.
    pub(crate) fn with_capacity(slots: usize) -> Self {
        Self {
            words: Vec::with_capacity(slots.div_ceil(64)),
            ..Self::default()
        }
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

/// The one string payload: one UTF-8 buffer and a `(start, len)` span per
/// slot. A decoded dictionary or run-length page points many slots at one
/// entry, and a repeated literal is one copy of its bytes; every copy
/// (`slice`, `gather`, `filter`, a join's output) writes the bytes it keeps
/// into one new buffer. Two allocations however many rows; a slot becomes a
/// `String` only when it is read out as a [`Value`].
#[derive(Debug, Clone, Default)]
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

    /// An empty buffer with room for `slots` strings of `bytes` bytes in
    /// all; `None` when its spans could not address that many.
    fn with_room(slots: usize, bytes: usize) -> Option<Self> {
        span(0, bytes)?;
        Some(Self {
            spans: Vec::with_capacity(slots),
            buf: String::with_capacity(bytes),
        })
    }

    /// Appends one slot, `parts` laid end to end; `false`, appending
    /// nothing, when its span would end past what a `u32` addresses.
    fn push(&mut self, parts: &[&str]) -> bool {
        let len = parts.iter().map(|p| p.len()).sum();
        let Some(span) = span(self.buf.len(), len) else {
            return false;
        };
        self.spans.push(span);
        parts.iter().for_each(|p| self.buf.push_str(p));
        true
    }

    /// Appends every slot of `other`: its buffer once, its spans moved past
    /// this buffer's bytes (a span that read as empty there still does).
    /// `false`, appending nothing, when the buffer would outgrow the spans.
    fn append(&mut self, other: &StrBuf) -> bool {
        let Some((shift, _)) = span(self.buf.len(), other.buf.len()) else {
            return false;
        };
        let moved = other
            .spans
            .iter()
            .map(|&(s, l)| (s.saturating_add(shift), l));
        self.spans.extend(moved);
        self.buf.push_str(&other.buf);
        true
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

/// The string payload of `slots` (`None`: a NULL slot), whose lengths add
/// up to `bytes`, written into one buffer; when its spans could not address
/// that many bytes, the values as they are — `Mixed`, the way a value of
/// another kind turns a column.
fn str_data<'a>(
    bytes: usize,
    slots: impl ExactSizeIterator<Item = Option<&'a str>> + Clone,
) -> ColumnData {
    if let Some(mut out) = StrBuf::with_room(slots.len(), bytes) {
        if slots.clone().all(|s| out.push(&[s.unwrap_or_default()])) {
            return ColumnData::StrBuf(Box::new(out));
        }
    }
    let value = |s: Option<&str>| s.map_or(Value::Null, |s| Value::Str(s.to_owned()));
    ColumnData::Mixed(slots.map(value).collect())
}

/// The span of `len` bytes appended to a buffer of `used` bytes, or `None`
/// when it would end past what a `u32` addresses.
fn span(used: usize, len: usize) -> Option<(u32, u32)> {
    let end = used.checked_add(len)?;
    (end <= u32::MAX as usize).then_some((used as u32, len as u32))
}

// What a slot contributes to a group's hash ([`ColumnVector::hash_into`]):
// a function of its value under `Value`'s equality, whatever the column.
const NULL_KEY: u64 = 0x6e75_6c6c;
const BOOL_KEY: u64 = 0xb001;
const STR_KEY: u64 = 0x5374_7221;

/// The splitmix64 finalizer: every input bit moves every output bit.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A number's key: its `f64` bits, `-0.0` read as `0.0` (`-0.0 + 0.0` is
/// `0.0`), so an `Int` and the `Float` equal to it share one.
#[inline]
fn float_key(f: f64) -> u64 {
    (f + 0.0).to_bits()
}

/// An integer the `f64` cast rounds (some beyond 2^53) equals no `Float`,
/// so it keys on its own bits and its neighbours do not all collide.
#[inline]
fn int_key(i: i64) -> u64 {
    let f = i as f64;
    match f as i64 == i {
        true => float_key(f),
        false => i as u64,
    }
}

fn bytes_key(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed ^ bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h ^ u64::from_le_bytes(word));
    }
    h
}

fn value_key(v: &Value) -> u64 {
    match v {
        Value::Null => NULL_KEY,
        Value::Int(i) => int_key(*i),
        Value::Float(f) => float_key(*f),
        Value::Str(s) => bytes_key(STR_KEY, s.as_bytes()),
        Value::Bool(b) => BOOL_KEY + *b as u64,
        Value::Blob(b) => bytes_key(!STR_KEY, b),
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
    /// All non-NULL values are `Str`: one buffer and a span per slot, the
    /// one form strings take in pages, row groups, batches and operators.
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
            ColumnData::StrBuf(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// Appends `n` default (NULL-slot) payloads.
    fn pad(&mut self, n: usize) {
        match self {
            ColumnData::Int(d) => d.resize(d.len() + n, 0),
            ColumnData::Float(d) => d.resize(d.len() + n, 0.0),
            ColumnData::Bool(d) => d.resize(d.len() + n, false),
            ColumnData::Mixed(d) => d.resize(d.len() + n, Value::Null),
            ColumnData::StrBuf(b) => b.spans.resize(b.spans.len() + n, (0, 0)),
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
            (StrBuf(a), StrBuf(b)) => a.iter().eq(b.iter()),
            _ => false,
        }
    }
}

/// A comparison's outcome for one slot: `Less`, `Equal` and `Greater` rank
/// 0, 1 and 2, and [`UNKNOWN`] is what SQL calls NULL.
#[inline(always)]
fn rank(ord: Option<Ordering>) -> u32 {
    ord.map_or(UNKNOWN, |o| (o as i32 + 1) as u32)
}

/// The rank of a comparison that orders nothing.
const UNKNOWN: u32 = 3;

/// The ranks `op` holds for, as bits: bit `r` is set when `op` holds for
/// rank `r`. Never [`UNKNOWN`]'s; none for an operator that is not a
/// comparison.
fn accepts(op: BinOp) -> u32 {
    [Ordering::Less, Ordering::Equal, Ordering::Greater]
        .into_iter()
        .filter(|&o| op.holds(o))
        .fold(0, |bits, o| bits | 1 << rank(Some(o)))
}

/// What runs over one literal comparison ([`ColumnVector::lit_ranks`]):
/// `rank(i)` is slot `i`'s rank, computed on the typed payload.
trait RankSink {
    type Out;
    fn run(self, rank: impl Fn(usize) -> u32) -> Self::Out;
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
    /// that round-trips exactly: one typed vector when every non-NULL value
    /// has one type (Int, Float, Str or Bool), raw values otherwise.
    pub fn from_values(values: Vec<Value>) -> Self {
        let mut nulls = NullBitmap::new();
        let (mut kind, mut uniform) = (None, true);
        for v in &values {
            nulls.push(v.is_null());
            if !v.is_null() {
                uniform &= *kind.get_or_insert(v.data_type()) == v.data_type();
            }
        }
        if kind.filter(|_| uniform) == Some(DataType::Str) {
            let slots = values.iter().map(|v| match v {
                Value::Str(s) => Some(s.as_str()),
                _ => None,
            });
            let bytes = slots.clone().flatten().map(str::len).sum();
            let data = str_data(bytes, slots);
            return Self { data, nulls };
        }
        let values = values.into_iter();
        let data = match kind.filter(|_| uniform) {
            Some(DataType::Int) => {
                ColumnData::Int(values.map(|v| v.as_int().unwrap_or(0)).collect())
            }
            Some(DataType::Float) => {
                ColumnData::Float(values.map(|v| v.as_f64().unwrap_or(0.0)).collect())
            }
            Some(DataType::Bool) => {
                ColumnData::Bool(values.map(|v| v.as_bool().unwrap_or(false)).collect())
            }
            // All-NULL columns and blobs stay as raw values.
            _ => ColumnData::Mixed(values.collect()),
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
        let nulls = match v.is_null() {
            true => NullBitmap::from_words(vec![u64::MAX; n.div_ceil(64)], n),
            false => NullBitmap::all_valid(n),
        };
        let data = match v {
            Value::Int(i) => ColumnData::Int(vec![*i; n]),
            Value::Float(f) => ColumnData::Float(vec![*f; n]),
            Value::Bool(b) => ColumnData::Bool(vec![*b; n]),
            // One copy of the bytes, `n` spans over it.
            Value::Str(s) => match span(0, s.len()) {
                Some(one) => ColumnData::StrBuf(Box::new(StrBuf::new(
                    vec![one; n],
                    if n > 0 { s.clone() } else { String::new() },
                ))),
                None => ColumnData::Mixed(vec![v.clone(); n]),
            },
            _ => ColumnData::Mixed(vec![v.clone(); n]),
        };
        Self { data, nulls }
    }

    /// Appends one value. A column of NULLs only takes the kind of its
    /// first other value; a value of another kind than the column's makes
    /// it `Mixed`.
    pub fn push(&mut self, v: Value) {
        let null = v.is_null();
        if !null && self.nulls.null_count() == self.len() {
            let mut data = ColumnVector::repeat(&v, 0).data;
            data.pad(self.len());
            self.data = data;
        }
        match (&mut self.data, v) {
            (data, Value::Null) => data.pad(1),
            (ColumnData::Int(d), Value::Int(x)) => d.push(x),
            (ColumnData::Float(d), Value::Float(x)) => d.push(x),
            (ColumnData::StrBuf(d), Value::Str(x)) => {
                if !d.push(&[&x]) {
                    // Past its spans' reach: the values as they are.
                    self.push_mixed(Value::Str(x));
                }
            }
            (ColumnData::Bool(d), Value::Bool(x)) => d.push(x),
            (ColumnData::Mixed(d), v) => d.push(v),
            (_, v) => self.push_mixed(v),
        }
        self.nulls.push(null);
    }

    /// Turns the payload `Mixed`, `v` appended (the bitmap is the caller's).
    fn push_mixed(&mut self, v: Value) {
        let mut values = self.to_values();
        values.push(v);
        self.data = ColumnData::Mixed(values);
    }

    /// A copy with room for `rows` slots, so appends up to that many do not
    /// reallocate; a string column's copy is two buffer copies however many
    /// strings it holds.
    pub(crate) fn copy_with_room(&self, rows: usize) -> ColumnVector {
        fn room<T: Clone>(v: &[T], rows: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(rows);
            out.extend_from_slice(v);
            out
        }
        let rows = rows.max(self.len());
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(room(v, rows)),
            ColumnData::Float(v) => ColumnData::Float(room(v, rows)),
            ColumnData::Bool(v) => ColumnData::Bool(room(v, rows)),
            ColumnData::Mixed(v) => ColumnData::Mixed(room(v, rows)),
            ColumnData::StrBuf(b) => {
                // Room for `rows` strings of the mean length, unless that
                // is more than the spans address.
                let used = b.buf.len();
                let bytes = used + used.div_ceil(self.len().max(1)) * (rows - self.len());
                let mut copy = StrBuf::with_room(rows, bytes).unwrap_or_default();
                ColumnData::StrBuf(Box::new(if copy.append(b) { copy } else { (**b).clone() }))
            }
        };
        let mut nulls = self.nulls.clone();
        nulls
            .words
            .reserve(rows.div_ceil(64).saturating_sub(nulls.words.len()));
        Self { data, nulls }
    }

    /// Appends every slot of `other`, moving its payloads in. The column
    /// keeps its kind when `other`'s slots fit it (or are all NULL), takes
    /// `other`'s kind while it holds only NULLs itself, and otherwise
    /// becomes `Mixed`; the values are the same whichever happens.
    pub fn extend(&mut self, other: ColumnVector) {
        use ColumnData::*;
        if self.is_empty() {
            *self = other;
            return;
        }
        let (n, valid) = (other.len(), other.null_count() < other.len());
        if valid && self.nulls.null_count() == self.len() {
            let mut data = other.slice(0, 0).data;
            data.pad(self.len());
            self.data = data;
        }
        let fits = match (&self.data, &other.data) {
            (Int(_), Int(_)) | (Float(_), Float(_)) | (Bool(_), Bool(_)) | (Mixed(_), _) => true,
            // Past what the buffer's spans address, the values go `Mixed`.
            (StrBuf(a), StrBuf(b)) => span(a.buf.len(), b.buf.len()).is_some(),
            _ => false,
        };
        if valid && !fits {
            self.data = Mixed(self.to_values());
        }
        for i in 0..n {
            self.nulls.push(other.is_null(i));
        }
        match (&mut self.data, other.data) {
            (Int(a), Int(mut b)) => a.append(&mut b),
            (Float(a), Float(mut b)) => a.append(&mut b),
            (Bool(a), Bool(mut b)) => a.append(&mut b),
            (StrBuf(a), StrBuf(b)) if valid => {
                let appended = a.append(&b);
                debug_assert!(appended, "`fits` checked the spans");
            }
            (Mixed(a), data) => a.extend(ColumnVector::from_parts(data, other.nulls).into_values()),
            // Only NULLs arrive: default payloads of the column's own kind.
            (data, _) => data.pad(n),
        }
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

    /// Keeps, in order, the positions of `keep` whose slot satisfies
    /// `slot <op> lit` — `value(i).sql_cmp(lit)` holds `op` — and drops
    /// the rest: what a scan hint does to a run of rows. The same
    /// comparison as [`ColumnVector::compare_lit`], compacted without a
    /// branch per slot.
    pub fn retain_cmp(&self, op: BinOp, lit: &Value, keep: &mut Vec<usize>) {
        struct Retain<'a>(u32, &'a mut Vec<usize>);
        impl RankSink for Retain<'_> {
            type Out = ();
            fn run(self, rank: impl Fn(usize) -> u32) {
                let Retain(accept, keep) = self;
                let mut kept = 0;
                for j in 0..keep.len() {
                    let i = keep[j];
                    keep[kept] = i;
                    kept += (accept >> rank(i)) as usize & 1;
                }
                keep.truncate(kept);
            }
        }
        self.lit_ranks(lit, Retain(accepts(op), keep))
    }

    /// `slot <op> lit` for every slot, three-valued: TRUE or FALSE where
    /// `value(i).sql_cmp(lit)` orders the two, NULL where it does not (a
    /// NULL slot or literal, a NaN, kinds that do not compare). How an
    /// expression compares a column with a literal.
    pub fn compare_lit(&self, op: BinOp, lit: &Value) -> ColumnVector {
        struct Truth(u32, usize);
        impl RankSink for Truth {
            type Out = ColumnVector;
            fn run(self, rank: impl Fn(usize) -> u32) -> ColumnVector {
                let Truth(accept, n) = self;
                let (mut out, mut words) = (Vec::with_capacity(n), vec![0u64; n.div_ceil(64)]);
                for i in 0..n {
                    let r = rank(i);
                    out.push((accept >> r) & 1 != 0);
                    words[i / 64] |= u64::from(r == UNKNOWN) << (i % 64);
                }
                ColumnVector::from_parts(ColumnData::Bool(out), NullBitmap::from_words(words, n))
            }
        }
        self.lit_ranks(lit, Truth(accepts(op), self.len()))
    }

    /// Runs `sink` with slot `i`'s [`rank`] against `lit` under
    /// [`Value::sql_cmp`]: the payload kind and the literal are matched
    /// once, so the sink's loop reads one typed payload. A column without
    /// NULLs never reads its bitmap; one with NULLs ORs each slot's bit in
    /// as [`UNKNOWN`].
    fn lit_ranks<S: RankSink>(&self, lit: &Value, sink: S) -> S::Out {
        fn masked<S: RankSink>(nulls: &NullBitmap, sink: S, rank: impl Fn(usize) -> u32) -> S::Out {
            if !nulls.any_null() {
                return sink.run(rank);
            }
            let words = &nulls.words;
            sink.run(|i| rank(i) | (((words[i / 64] >> (i % 64)) as u32 & 1) * UNKNOWN))
        }
        let n = &self.nulls;
        match (&self.data, lit) {
            (ColumnData::Int(v), Value::Int(b)) => masked(n, sink, |i| rank(Some(v[i].cmp(b)))),
            (ColumnData::Int(v), Value::Float(b)) => {
                masked(n, sink, |i| rank(cmp_int_f64(v[i], *b)))
            }
            (ColumnData::Float(v), Value::Float(b)) => {
                masked(n, sink, |i| rank(v[i].partial_cmp(b)))
            }
            (ColumnData::Float(v), Value::Int(b)) => masked(n, sink, |i| {
                rank(cmp_int_f64(*b, v[i]).map(Ordering::reverse))
            }),
            (ColumnData::StrBuf(v), Value::Str(b)) => {
                masked(n, sink, |i| rank(Some(v.get(i).cmp(b.as_str()))))
            }
            (ColumnData::Bool(v), Value::Bool(b)) => masked(n, sink, |i| rank(Some(v[i].cmp(b)))),
            (ColumnData::Mixed(v), _) => sink.run(|i| rank(v[i].sql_cmp(lit))),
            // A typed column against a literal of another kind, or NULL.
            _ => sink.run(|_| UNKNOWN),
        }
    }

    /// Slot `i` read in place.
    #[inline]
    fn slot(&self, i: usize) -> ValueRef<'_> {
        if self.nulls.is_null(i) {
            return ValueRef::Null;
        }
        match &self.data {
            ColumnData::Int(v) => ValueRef::Int(v[i]),
            ColumnData::Float(v) => ValueRef::Float(v[i]),
            ColumnData::StrBuf(v) => ValueRef::Str(v.get(i)),
            ColumnData::Bool(v) => ValueRef::Bool(v[i]),
            ColumnData::Mixed(v) => v[i].borrowed(),
        }
    }

    /// `self.value(i).total_cmp(v)`, read in place.
    pub fn cmp_at(&self, i: usize, v: &Value) -> Ordering {
        self.slot(i).total_cmp(v.borrowed())
    }

    /// `self.value(i).total_cmp(&other.value(j))`, read in place, whatever
    /// the two columns' kinds.
    pub(crate) fn total_cmp_at(&self, i: usize, other: &ColumnVector, j: usize) -> Ordering {
        self.slot(i).total_cmp(other.slot(j))
    }

    /// The order of this column's slots under [`Value::total_cmp`],
    /// reversed when `desc` (NULLs then come last), with the payload
    /// matched once here rather than per comparison.
    pub(crate) fn slot_order(&self, desc: bool) -> SlotOrder<'_> {
        let payload = match &self.data {
            ColumnData::Int(v) => Payload::Int(v),
            ColumnData::Float(v) => Payload::Float(v),
            ColumnData::StrBuf(v) => Payload::Str(v),
            ColumnData::Bool(v) => Payload::Bool(v),
            ColumnData::Mixed(_) => Payload::Any(self),
        };
        SlotOrder {
            payload,
            nulls: self.nulls.any_null().then_some(&self.nulls),
            desc,
        }
    }

    /// Whether slot `i` equals slot `j` of `other` under `Value`'s equality
    /// (NULL equals NULL, `1` equals `1.0`, `-0.0` equals `0.0`, a NaN
    /// equals the NaN of its bits), read in place where the kinds match.
    pub fn eq_at(&self, i: usize, other: &ColumnVector, j: usize) -> bool {
        use ColumnData::*;
        match (self.nulls.is_null(i), other.nulls.is_null(j)) {
            (false, false) => {}
            (a, b) => return a && b,
        }
        match (&self.data, &other.data) {
            (Int(a), Int(b)) => a[i] == b[j],
            (Float(a), Float(b)) => a[i] == b[j] || a[i].to_bits() == b[j].to_bits(),
            (StrBuf(a), StrBuf(b)) => a.get(i) == b.get(j),
            (Bool(a), Bool(b)) => a[i] == b[j],
            _ => self.value(i) == other.value(j),
        }
    }

    /// Slot-wise string concatenation (`+`) of two string columns, NULL
    /// where either slot is, written into one buffer; `None` unless both
    /// are string columns and the buffer's spans address all it holds.
    pub(crate) fn concat(&self, other: &ColumnVector) -> Option<ColumnVector> {
        let (ColumnData::StrBuf(a), ColumnData::StrBuf(b)) = (&self.data, &other.data) else {
            return None;
        };
        let (mut nulls, mut out) = (NullBitmap::with_capacity(self.len()), StrBuf::default());
        for i in 0..self.len() {
            let null = self.is_null(i) || other.is_null(i);
            nulls.push(null);
            if !out.push(&if null { ["", ""] } else { [a.get(i), b.get(i)] }) {
                return None;
            }
        }
        Some(Self::from_parts(ColumnData::StrBuf(Box::new(out)), nulls))
    }

    /// Folds each slot's key hash into `hashes` (`h = mix(h ^ slot)`): one
    /// match on the payload, then a loop. Slots equal under `Value`'s
    /// equality fold alike whatever their column's kind — `1` and `1.0`,
    /// `-0.0` and `0.0`, NULL and NULL, one NaN bit pattern and itself.
    pub fn hash_into(&self, hashes: &mut [u64]) {
        fn fold(nulls: &NullBitmap, hashes: &mut [u64], slots: impl Iterator<Item = u64>) {
            for (i, (h, x)) in hashes.iter_mut().zip(slots).enumerate() {
                *h = mix(*h ^ if nulls.is_null(i) { NULL_KEY } else { x });
            }
        }
        debug_assert_eq!(hashes.len(), self.len());
        let (n, h) = (&self.nulls, hashes);
        match &self.data {
            ColumnData::Int(v) => fold(n, h, v.iter().map(|&x| int_key(x))),
            ColumnData::Float(v) => fold(n, h, v.iter().map(|&x| float_key(x))),
            ColumnData::StrBuf(v) => fold(n, h, v.iter().map(|s| bytes_key(STR_KEY, s.as_bytes()))),
            ColumnData::Bool(v) => fold(n, h, v.iter().map(|&b| BOOL_KEY + b as u64)),
            ColumnData::Mixed(v) => fold(n, h, v.iter().map(value_key)),
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
            let mut nulls = NullBitmap::with_capacity(idx.len());
            for i in idx.clone() {
                nulls.push(i.is_none_or(|i| self.nulls.is_null(i)));
            }
            nulls
        };
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(pick(v, idx)),
            ColumnData::Float(v) => ColumnData::Float(pick(v, idx)),
            ColumnData::Bool(v) => ColumnData::Bool(pick(v, idx)),
            ColumnData::StrBuf(v) => {
                let slots = idx.map(|i| i.filter(|&i| !self.nulls.is_null(i)).map(|i| v.get(i)));
                str_data(slots.clone().flatten().map(str::len).sum(), slots)
            }
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

    /// The slots `at` names as `(source, slot)` pairs over `sources`, in
    /// that order, as one new column: typed when every source has one
    /// payload kind (strings written into one buffer), the values as they
    /// are otherwise. How a merge gathers rows from several runs.
    pub(crate) fn gather_from(sources: &[&ColumnVector], at: &[(usize, usize)]) -> ColumnVector {
        fn pick<T: Copy>(parts: Option<Vec<&[T]>>, at: &[(usize, usize)]) -> Option<Vec<T>> {
            parts.map(|parts| at.iter().map(|&(s, i)| parts[s][i]).collect())
        }
        if let [only] = sources {
            return only.take(at.iter().map(|&(_, i)| Some(i)));
        }
        let is_null = |&(s, i): &(usize, usize)| sources[s].is_null(i);
        let nulls = if sources.iter().all(|s| !s.nulls.any_null()) {
            NullBitmap::all_valid(at.len())
        } else {
            let mut nulls = NullBitmap::with_capacity(at.len());
            at.iter().for_each(|p| nulls.push(is_null(p)));
            nulls
        };
        let typed = match sources.first().map(|s| &s.data) {
            Some(ColumnData::Int(_)) => {
                pick(sources.iter().map(|s| s.as_ints()).collect(), at).map(ColumnData::Int)
            }
            Some(ColumnData::Float(_)) => {
                pick(sources.iter().map(|s| s.as_floats()).collect(), at).map(ColumnData::Float)
            }
            Some(ColumnData::Bool(_)) => {
                let parts = sources.iter().map(|s| match &s.data {
                    ColumnData::Bool(v) => Some(&v[..]),
                    _ => None,
                });
                pick(parts.collect(), at).map(ColumnData::Bool)
            }
            Some(ColumnData::StrBuf(_)) => {
                let parts = sources.iter().map(|s| match &s.data {
                    ColumnData::StrBuf(v) => Some(&**v),
                    _ => None,
                });
                parts.collect::<Option<Vec<&StrBuf>>>().map(|parts| {
                    let slots = at
                        .iter()
                        .map(|p| (!is_null(p)).then(|| parts[p.0].get(p.1)));
                    str_data(slots.clone().flatten().map(str::len).sum(), slots)
                })
            }
            _ => None,
        };
        match typed {
            Some(data) => Self { data, nulls },
            None => Self::from_values(at.iter().map(|&(s, i)| sources[s].value(i)).collect()),
        }
    }

    /// The columns laid end to end, as one new column.
    pub(crate) fn concat_all<'a>(
        columns: impl IntoIterator<Item = &'a ColumnVector>,
    ) -> ColumnVector {
        let mut out = ColumnVector::from_values(Vec::new());
        for column in columns {
            out.extend(column.clone());
        }
        out
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

    /// All values; a `Mixed` payload is moved out (no clones).
    pub fn into_values(self) -> Vec<Value> {
        match self.data {
            ColumnData::Mixed(v) => v,
            _ => self.to_values(),
        }
    }
}

/// A column's typed payload, borrowed for [`SlotOrder`].
#[derive(Clone, Copy)]
enum Payload<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(&'a StrBuf),
    Bool(&'a [bool]),
    // `Mixed`: each slot read as a value.
    Any(&'a ColumnVector),
}

/// The order of one column's slots ([`ColumnVector::slot_order`]): what
/// `Value::total_cmp` says of two of them, compared in place on the typed
/// payload — NULL first, `-0.0` equal to `0.0`, NaN after every number —
/// and reversed for a descending key.
#[derive(Clone, Copy)]
pub(crate) struct SlotOrder<'a> {
    payload: Payload<'a>,
    // `None` when the column has no NULL.
    nulls: Option<&'a NullBitmap>,
    desc: bool,
}

impl SlotOrder<'_> {
    /// Slot `i` against slot `j`.
    #[inline]
    pub(crate) fn cmp(&self, i: usize, j: usize) -> Ordering {
        let ord = match self.nulls.map(|n| (n.is_null(i), n.is_null(j))) {
            Some((true, true)) => Ordering::Equal,
            Some((true, false)) => Ordering::Less,
            Some((false, true)) => Ordering::Greater,
            _ => match self.payload {
                Payload::Int(v) => v[i].cmp(&v[j]),
                Payload::Float(v) => float_total_cmp(v[i], v[j]),
                Payload::Str(v) => v.get(i).cmp(v.get(j)),
                Payload::Bool(v) => v[i].cmp(&v[j]),
                Payload::Any(c) => c.total_cmp_at(i, c, j),
            },
        };
        if self.desc {
            ord.reverse()
        } else {
            ord
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

    /// All columns, moved out.
    pub(crate) fn into_columns(self) -> Vec<ColumnVector> {
        self.columns
    }

    /// Reconstructs row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Transposes back to rows.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.rows).map(|i| self.row(i)).collect()
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
    fn a_copy_with_room_keeps_the_values_and_takes_pushes() {
        let s = |x: &str| Value::Str(x.into());
        let pooled = ColumnVector::from_parts(
            ColumnData::StrBuf(Box::new(StrBuf::new(
                vec![(0, 2), (2, 1), (0, 2)],
                "aab".into(),
            ))),
            NullBitmap::all_valid(3),
        );
        let columns = [
            ColumnVector::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]),
            ColumnVector::from_values(vec![Value::Float(0.5), Value::Null]),
            ColumnVector::from_values(vec![Value::Bool(true)]),
            ColumnVector::from_values(vec![Value::Int(1), s("x"), Value::Blob(vec![7])]),
            ColumnVector::from_values(vec![s("héllo"), Value::Null, s("")]),
            ColumnVector::from_values(Vec::new()),
            pooled,
        ];
        for column in columns {
            let mut copy = column.copy_with_room(70);
            assert_eq!(copy, column);
            if let ColumnData::StrBuf(_) = column.data() {
                assert!(matches!(copy.data(), ColumnData::StrBuf(_)), "one buffer");
            }
            let mut want = column.to_values();
            for v in [Value::Null, s("tail"), Value::Int(9)] {
                copy.push(v.clone());
                want.push(v);
            }
            assert_eq!(copy.to_values(), want);
        }
    }

    #[test]
    fn a_span_that_would_pass_the_u32_bound_is_refused() {
        let max = u32::MAX as usize;
        assert_eq!(span(0, 5), Some((0, 5)));
        assert_eq!(span(max - 5, 5), Some((u32::MAX - 5, 5)));
        assert_eq!(span(max - 5, 6), None);
        assert_eq!(span(max, 0), Some((u32::MAX, 0)));
        assert_eq!(span(max + 1, 0), None);
        assert_eq!(span(usize::MAX, 1), None);
    }

    #[test]
    fn strings_past_the_spans_reach_turn_the_column_mixed() {
        let slots = [Some("a"), None, Some("日本")];
        let want = vec![
            Value::Str("a".into()),
            Value::Null,
            Value::Str("日本".into()),
        ];
        let nulls = NullBitmap::from_words(vec![0b010], 3);
        // The sizes are synthetic: what `span` decides on, not a buffer.
        let max = u32::MAX as usize;
        for (bytes, one_buffer) in [(7, true), (max + 1, false), (usize::MAX, false)] {
            let data = str_data(bytes, slots.into_iter());
            assert_eq!(matches!(data, ColumnData::StrBuf(_)), one_buffer, "{bytes}");
            let mut column = ColumnVector::from_parts(data, nulls.clone());
            assert_eq!(column.to_values(), want);
            assert_eq!(column.value(2), want[2]);
            // A `Mixed` column takes more strings as values.
            column.push(Value::Str("é".into()));
            column.extend(ColumnVector::repeat(&Value::Str("x".into()), 2));
            let more = ["é", "x", "x"].map(|s| Value::Str(s.into()));
            assert_eq!(column.to_values(), [want.clone(), more.to_vec()].concat());
        }
    }

    #[test]
    fn from_columns_rejects_ragged() {
        let a = ColumnVector::from_values(vec![Value::Int(1)]);
        let b = ColumnVector::from_values(vec![Value::Int(1), Value::Int(2)]);
        assert!(RowBatch::from_columns(vec![a, b]).is_err());
    }

    #[test]
    fn exec_mode_batch_size() {
        assert_eq!(ExecMode::Batched(0).batch_size(), 1);
        assert_eq!(ExecMode::default().batch_size(), DEFAULT_BATCH_SIZE);
        // The benchmark's alias runs as the default does.
        assert_eq!(ExecMode::Volcano.batch_size(), DEFAULT_BATCH_SIZE);
    }
}
