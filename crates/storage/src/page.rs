//! Fixed-size compressed column pages with embedded zone maps.
//!
//! A *page* is the unit of the out-of-core storage layer: one column of one
//! fixed-size row group, compressed with an encoding chosen from the actual
//! values — frame-of-reference bit-packed integers, dictionary or run-length
//! strings, packed booleans, raw `f64` floats — plus a packed null bitmap
//! and a CRC32 trailer. Every page carries a [`ZoneMap`] (min/max/null
//! count) so scans can skip whole pages against a predicate *before* paying
//! for decompression. Decoding reconstructs the exact [`ColumnVector`] the
//! resident path would have built from the same values, which is what keeps
//! paged execution byte-identical to fully-resident execution.

use crate::batch::{ColumnData, NullBitmap, StrBuf};
use crate::persist::{encodable_len, get_value, put_str, put_value, TAG_NULL, TAG_STR};
use crate::wal::crc32;
use crate::{BinOp, ColumnVector, DataType, StorageError, Value};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Default rows per page (row-group height). Small enough that one decoded
/// page of any column stays cache-friendly, large enough to amortize the
/// per-page header, CRC, and buffer-pool bookkeeping.
pub const DEFAULT_PAGE_ROWS: usize = 4096;

const PAGE_MAGIC: &[u8; 4] = b"KPAG";
const PAGE_VERSION: u8 = 1;

const ENC_RAW: u8 = 0;
const ENC_INT_FOR: u8 = 1;
const ENC_FLOAT: u8 = 2;
const ENC_STR_DICT: u8 = 3;
const ENC_STR_RLE: u8 = 4;
const ENC_BOOL_BITMAP: u8 = 5;

/// Per-page summary statistics embedded at encode time: row/null counts and
/// the min/max of the non-NULL values when they share one comparable type.
/// Scans consult zone maps to prove "no row of this page can satisfy this
/// conjunct" and skip the page without decompressing it.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Rows in the page.
    pub rows: u32,
    /// NULL slots in the page.
    pub null_count: u32,
    /// Minimum non-NULL value, when all non-NULL values are mutually
    /// comparable under [`Value::sql_cmp`]; `None` for mixed-type pages.
    pub min: Option<Value>,
    /// Maximum non-NULL value under the same conditions.
    pub max: Option<Value>,
}

/// What the encoder's one pass over a page finds: the zone map, the type
/// the non-NULL values share (if they share one), and the packed null words.
struct PageScan {
    zone: ZoneMap,
    uniform: Option<DataType>,
    null_words: Vec<u64>,
}

fn scan_page(values: &[Value]) -> PageScan {
    let mut null_words = vec![0u64; values.len().div_ceil(64)];
    let mut null_count = 0u32;
    let mut tag: Option<DataType> = None;
    let mut uniform = true;
    // The running (min, max), borrowed: cloned once, at the end.
    let mut bounds: Option<(&Value, &Value)> = None;
    let mut bounded = true;
    for (v, i) in values.iter().zip(0usize..) {
        if v.is_null() {
            set_bit(&mut null_words, i);
            null_count += 1;
            continue;
        }
        uniform &= *tag.get_or_insert(v.data_type()) == v.data_type();
        bounds = match bounds {
            _ if !bounded => None,
            None => Some((v, v)),
            Some((lo, hi)) => match (v.sql_cmp(lo), v.sql_cmp(hi)) {
                (Some(below), Some(above)) => Some((
                    if below == Ordering::Less { v } else { lo },
                    if above == Ordering::Greater { v } else { hi },
                )),
                // Incomparable values (mixed types, NaN): no bound at all.
                _ => {
                    bounded = false;
                    None
                }
            },
        };
    }
    let (min, max) = bounds.map(|(lo, hi)| (lo.clone(), hi.clone())).unzip();
    PageScan {
        zone: ZoneMap {
            rows: values.len() as u32,
            null_count,
            min,
            max,
        },
        uniform: tag.filter(|_| uniform),
        null_words,
    }
}

impl ZoneMap {
    /// Computes the zone map of one page of values.
    pub fn compute(values: &[Value]) -> Self {
        scan_page(values).zone
    }

    /// Whether any row of the page *may* satisfy `column <op> literal`.
    /// Returns `false` only when the zone map proves no row can: skipping
    /// is then safe because a WHERE conjunct that is false or NULL drops
    /// the row either way. Conservative on mixed-type pages and
    /// incomparable literals (always `true`).
    pub fn may_match(&self, op: BinOp, lit: &Value) -> bool {
        if self.null_count >= self.rows {
            // All-NULL page: every comparison is unknown, no row passes.
            return false;
        }
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            return true; // Mixed-type page: no provable bound.
        };
        let (Some(lo), Some(hi)) = (lit.sql_cmp(min), lit.sql_cmp(max)) else {
            return true; // Incomparable literal: let the filter decide.
        };
        match op {
            BinOp::Eq => lo != Ordering::Less && hi != Ordering::Greater,
            // Skippable only when every value equals the literal.
            BinOp::Ne => !(lo == Ordering::Equal && hi == Ordering::Equal),
            BinOp::Lt => lo == Ordering::Greater, // some value < lit ⇔ min < lit
            BinOp::Le => lo != Ordering::Less,
            BinOp::Gt => hi == Ordering::Less, // some value > lit ⇔ max > lit
            BinOp::Ge => hi != Ordering::Greater,
            _ => true,
        }
    }

    /// Serializes the zone map (for checkpoint metadata).
    pub(crate) fn encode(&self, buf: &mut BytesMut) -> Result<(), StorageError> {
        buf.put_u32(self.rows);
        buf.put_u32(self.null_count);
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => {
                buf.put_u8(1);
                put_value(buf, min)?;
                put_value(buf, max)?;
            }
            _ => buf.put_u8(0),
        }
        Ok(())
    }

    /// Deserializes a zone map written by [`ZoneMap::encode`].
    pub(crate) fn decode(data: &mut &[u8]) -> Result<Self, StorageError> {
        let corrupt = |m: &str| StorageError::Corrupt(m.to_string());
        if data.remaining() < 9 {
            return Err(corrupt("truncated zone map"));
        }
        let rows = data.get_u32();
        let null_count = data.get_u32();
        let (min, max) = if data.get_u8() != 0 {
            (Some(get_value(data)?), Some(get_value(data)?))
        } else {
            (None, None)
        };
        Ok(Self {
            rows,
            null_count,
            min,
            max,
        })
    }
}

/// Encodes one page of column values, returning the framed bytes (magic,
/// version, row count, encoding, null bitmap, payload, CRC32 trailer) and
/// the page's zone map. The encoding is chosen per page from the values:
/// uniform Int pages bit-pack frame-of-reference deltas, Str pages take the
/// smaller of dictionary / run-length / raw, Bool pages pack to bits,
/// Float pages store raw `f64`s, and everything else (mixed types, blobs,
/// all-NULL) falls back to tagged raw values.
pub fn encode_page(values: &[Value]) -> Result<(Bytes, ZoneMap), StorageError> {
    let rows = encodable_len("page rows", values.len())?;
    let scan = scan_page(values);
    let (enc, payload) = match scan.uniform {
        Some(DataType::Int) => (ENC_INT_FOR, encode_int_for(values, &scan.zone)),
        Some(DataType::Float) => (ENC_FLOAT, encode_floats(values)),
        Some(DataType::Bool) => (ENC_BOOL_BITMAP, encode_bools(values)),
        Some(DataType::Str) => encode_strings(values)?,
        // Mixed types, blobs, Any, or all-NULL pages: tagged raw values.
        _ => (ENC_RAW, encode_raw(values)?),
    };
    let zone = scan.zone;
    let mut buf = BytesMut::with_capacity(payload.len() + 32 + values.len() / 8);
    buf.put_slice(PAGE_MAGIC);
    buf.put_u8(PAGE_VERSION);
    buf.put_u32(rows);
    buf.put_u8(enc);
    buf.put_u32(zone.null_count);
    if zone.null_count > 0 {
        for word in scan.null_words {
            buf.put_u64(word);
        }
    }
    buf.put_slice(&payload);
    let checksum = crc32(&buf);
    buf.put_u32(checksum);
    Ok((buf.freeze(), zone))
}

fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(what.to_string())
}

/// Decodes a page back to the exact [`ColumnVector`] the resident path
/// would build from the original values — except that a string page comes
/// back in its pooled form ([`ColumnData::StrBuf`], equal to and copied out
/// as the `Str` column). The CRC32 trailer is verified before any payload
/// byte is interpreted; each encoding then writes its typed payload
/// directly, and the page's null words become the column's bitmap.
pub fn decode_page(data: &[u8]) -> Result<ColumnVector, StorageError> {
    if data.len() < 18 || data[..4] != *PAGE_MAGIC {
        return Err(corrupt("bad page magic"));
    }
    if data[4] != PAGE_VERSION {
        return Err(corrupt("unsupported page version"));
    }
    let Some((payload, trailer)) = data.split_last_chunk::<4>() else {
        return Err(corrupt("truncated page trailer"));
    };
    if crc32(payload) != u32::from_be_bytes(*trailer) {
        return Err(corrupt("page checksum mismatch"));
    }
    let mut data = &payload[5..];
    let rows = data.get_u32() as usize;
    if rows > 1 << 28 {
        return Err(corrupt("implausible page row count"));
    }
    let enc = data.get_u8();
    if data.remaining() < 4 {
        return Err(corrupt("truncated null count"));
    }
    let null_count = data.get_u32() as usize;
    if null_count > rows {
        return Err(corrupt("null count exceeds row count"));
    }
    let mut words = Vec::new();
    if null_count > 0 {
        let Some((packed, rest)) = data.split_at_checked(rows.div_ceil(64) * 8) else {
            return Err(corrupt("truncated null bitmap"));
        };
        words.extend(
            packed
                .as_chunks::<8>()
                .0
                .iter()
                .map(|w| u64::from_be_bytes(*w)),
        );
        data = rest;
    }
    let nulls = NullBitmap::from_words(words, rows);
    if nulls.null_count() != null_count {
        return Err(corrupt("null count disagrees with the null bitmap"));
    }
    let col = match enc {
        ENC_RAW => decode_raw(rows, nulls, &mut data),
        ENC_INT_FOR => decode_int_for(rows, nulls, &mut data),
        ENC_FLOAT => decode_floats(rows, nulls, &mut data),
        ENC_BOOL_BITMAP => decode_bools(rows, nulls, &mut data),
        ENC_STR_DICT => decode_str_dict(rows, nulls, &mut data),
        ENC_STR_RLE => decode_str_rle(rows, nulls, &mut data),
        t => Err(StorageError::Corrupt(format!("unknown page encoding {t}"))),
    }?;
    if data.has_remaining() {
        return Err(corrupt("trailing bytes after page payload"));
    }
    if null_count == rows {
        // No value to take a type from (or no row): `from_values` keeps
        // such a column untyped, whatever encoding carried it.
        return Ok(ColumnVector::from_values(vec![Value::Null; rows]));
    }
    Ok(col)
}

/// The human-readable encoding name of a framed page (for benchmarks and
/// diagnostics). Does not verify the CRC.
pub fn page_encoding_name(data: &[u8]) -> Option<&'static str> {
    if data.len() < 10 || data[..4] != *PAGE_MAGIC {
        return None;
    }
    Some(match data[9] {
        ENC_RAW => "raw",
        ENC_INT_FOR => "int-for",
        ENC_FLOAT => "float64",
        ENC_STR_DICT => "str-dict",
        ENC_STR_RLE => "str-rle",
        ENC_BOOL_BITMAP => "bool-bitmap",
        _ => return None,
    })
}

// ---- bit packing ----------------------------------------------------------
//
// Value `k` of a `width`-bit stream occupies bits `[k*width, (k+1)*width)`,
// bit `p` being bit `p % 8` of byte `p / 8`: a little-endian bit stream.
// Packing shifts values into a 128-bit accumulator and emits a `u64` at a
// time; unpacking is one 16-byte load, a shift and a mask per value.

/// All-ones in the low `width` (≤ 64) bits.
fn low_bits(width: u32) -> u64 {
    u64::MAX.checked_shr(64 - width).unwrap_or(0)
}

fn pack_bits(out: &mut BytesMut, vals: impl Iterator<Item = u64>, width: u32) {
    let mask = low_bits(width);
    let (mut acc, mut have) = (0u128, 0u32);
    for v in vals {
        acc |= ((v & mask) as u128) << have;
        have += width;
        if have >= 64 {
            out.put_slice(&(acc as u64).to_le_bytes());
            acc >>= 64;
            have -= 64;
        }
    }
    let tail = acc.to_le_bytes();
    out.put_slice(tail.get(..have.div_ceil(8) as usize).unwrap_or(&tail));
}

/// Unpacks `count` values of `width` bits, each mapped through `f` straight
/// into the output vector.
fn unpack_bits<T>(
    data: &mut &[u8],
    width: u32,
    count: usize,
    mut f: impl FnMut(u64) -> T,
) -> Result<Vec<T>, StorageError> {
    let bits = count
        .checked_mul(width as usize)
        .ok_or_else(|| corrupt("bit-pack overflow"))?;
    let Some((packed, rest)) = data.split_at_checked(bits.div_ceil(8)) else {
        return Err(corrupt("truncated bit-packed payload"));
    };
    *data = rest;
    let mask = low_bits(width);
    Ok((0..count)
        .map(|k| {
            let (byte, shift) = (k * width as usize / 8, k * width as usize % 8);
            // The value starts `shift` (< 8) bits into `byte`: it lies within
            // the 8 bytes from there when `width` ≤ 56, within 16 always.
            let raw = if width <= 56 {
                u64::from_le_bytes(window(packed, byte)) >> shift
            } else {
                (u128::from_le_bytes(window(packed, byte)) >> shift) as u64
            };
            f(raw & mask)
        })
        .collect())
}

/// The `N` bytes of `bytes` from `at`, zero-padded past the end.
fn window<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let from = bytes.get(at..).unwrap_or_default();
    from.first_chunk::<N>().copied().unwrap_or_else(|| {
        let mut padded = [0u8; N];
        padded.iter_mut().zip(from).for_each(|(d, s)| *d = *s);
        padded
    })
}

/// Marks slot `i` NULL in packed null words (a slot past them is ignored).
fn set_bit(words: &mut [u64], i: usize) {
    if let Some(word) = words.get_mut(i / 64) {
        *word |= 1u64 << (i % 64);
    }
}

/// Resets the NULL slots of a decoded payload to the default a column built
/// by `from_values` holds there.
fn zero_nulls<T: Default>(out: &mut [T], nulls: &NullBitmap) {
    if nulls.any_null() {
        for (slot, i) in out.iter_mut().zip(0..nulls.len()) {
            if nulls.is_null(i) {
                *slot = T::default();
            }
        }
    }
}

// ---- per-encoding payloads ------------------------------------------------

fn encode_raw(values: &[Value]) -> Result<BytesMut, StorageError> {
    let mut buf = BytesMut::new();
    for v in values {
        put_value(&mut buf, v)?;
    }
    Ok(buf)
}

/// A tagged-raw page. One of strings and NULLs only takes the typed string
/// route; the first other tag sends the page down the generic one (values,
/// then `from_values`), which is also where a bad tag is reported.
fn decode_raw(
    rows: usize,
    nulls: NullBitmap,
    data: &mut &[u8],
) -> Result<ColumnVector, StorageError> {
    let mut words = vec![0u64; rows.div_ceil(64)];
    let mut spans = Vec::with_capacity(rows.min(data.remaining()));
    let mut buf = String::new();
    let mut typed = *data;
    while spans.len() < rows {
        match typed.split_first() {
            Some((&TAG_NULL, rest)) => {
                typed = rest;
                set_bit(&mut words, spans.len());
                spans.push((0, 0));
            }
            Some((&TAG_STR, rest)) => {
                typed = rest;
                spans.push(take_str(&mut typed, &mut buf)?);
            }
            _ => break,
        }
    }
    let col = if spans.len() == rows {
        *data = typed;
        str_page(spans, buf, NullBitmap::from_words(words, rows))
    } else {
        let values: Result<Vec<Value>, _> = (0..rows).map(|_| get_value(data)).collect();
        ColumnVector::from_values(values?)
    };
    if *col.nulls() != nulls {
        return Err(corrupt("null bitmap disagrees with the raw values"));
    }
    Ok(col)
}

/// Frame-of-reference: `min` plus bit-packed unsigned deltas. NULL slots
/// pack delta 0. The zone map of a uniform Int page already holds the
/// frame's two ends.
fn encode_int_for(values: &[Value], zone: &ZoneMap) -> BytesMut {
    let end = |v: &Option<Value>| v.as_ref().and_then(Value::as_int).unwrap_or_default();
    let (min, max) = (end(&zone.min), end(&zone.max));
    let width = 64 - (max as u64).wrapping_sub(min as u64).leading_zeros();
    let mut buf = BytesMut::with_capacity(9 + (values.len() * width as usize).div_ceil(8));
    buf.put_i64(min);
    buf.put_u8(width as u8);
    let deltas = values.iter().map(|v| {
        v.as_int()
            .map_or(0, |i| (i as u64).wrapping_sub(min as u64))
    });
    pack_bits(&mut buf, deltas, width);
    buf
}

fn decode_int_for(
    rows: usize,
    nulls: NullBitmap,
    data: &mut &[u8],
) -> Result<ColumnVector, StorageError> {
    if data.remaining() < 9 {
        return Err(corrupt("truncated int-for header"));
    }
    let min = data.get_i64();
    let width = data.get_u8() as u32;
    if width > 64 {
        return Err(corrupt("implausible int-for width"));
    }
    let mut ints = unpack_bits(data, width, rows, |d| (min as u64).wrapping_add(d) as i64)?;
    zero_nulls(&mut ints, &nulls);
    Ok(ColumnVector::from_parts(ColumnData::Int(ints), nulls))
}

fn encode_floats(values: &[Value]) -> BytesMut {
    let mut buf = BytesMut::with_capacity(values.len() * 8);
    for v in values {
        buf.put_f64(v.as_f64().unwrap_or_default());
    }
    buf
}

fn decode_floats(
    rows: usize,
    nulls: NullBitmap,
    data: &mut &[u8],
) -> Result<ColumnVector, StorageError> {
    let Some((packed, rest)) = data.split_at_checked(rows * 8) else {
        return Err(corrupt("truncated float payload"));
    };
    *data = rest;
    let (cells, _) = packed.as_chunks::<8>();
    let mut floats: Vec<f64> = cells.iter().map(|c| f64::from_be_bytes(*c)).collect();
    zero_nulls(&mut floats, &nulls);
    Ok(ColumnVector::from_parts(ColumnData::Float(floats), nulls))
}

fn encode_bools(values: &[Value]) -> BytesMut {
    let mut buf = BytesMut::with_capacity(values.len().div_ceil(8));
    let bits = values
        .iter()
        .map(|v| v.as_bool().unwrap_or_default() as u64);
    pack_bits(&mut buf, bits, 1);
    buf
}

fn decode_bools(
    rows: usize,
    nulls: NullBitmap,
    data: &mut &[u8],
) -> Result<ColumnVector, StorageError> {
    let mut bools = unpack_bits(data, 1, rows, |b| b != 0)?;
    zero_nulls(&mut bools, &nulls);
    Ok(ColumnVector::from_parts(ColumnData::Bool(bools), nulls))
}

/// A decoded string page in its pooled form.
fn str_page(spans: Vec<(u32, u32)>, buf: String, nulls: NullBitmap) -> ColumnVector {
    ColumnVector::from_parts(ColumnData::StrBuf(Box::new(StrBuf::new(spans, buf))), nulls)
}

/// Reads one length-prefixed string, appends it — validated — to `buf` and
/// returns its `(start, len)` span there.
fn take_str(data: &mut &[u8], buf: &mut String) -> Result<(u32, u32), StorageError> {
    let Some((len, rest)) = data.split_first_chunk::<4>() else {
        return Err(corrupt("truncated string length"));
    };
    let len = u32::from_be_bytes(*len);
    let Some((bytes, rest)) = rest.split_at_checked(len as usize) else {
        return Err(corrupt("truncated string payload"));
    };
    let s = std::str::from_utf8(bytes).map_err(|_| corrupt("invalid utf-8"))?;
    let start = u32::try_from(buf.len()).map_err(|_| corrupt("string page past 4 GiB"))?;
    buf.push_str(s);
    *data = rest;
    Ok((start, len))
}

/// A uniform Str page: the smallest of tagged-raw, dictionary and run-length
/// (ties go to the earlier of that order). One pass sizes all three; only
/// the winner is built.
fn encode_strings(values: &[Value]) -> Result<(u8, BytesMut), StorageError> {
    let mut ids: HashMap<&str, u32> = HashMap::new();
    let mut distinct: Vec<&str> = Vec::new();
    // Per row: its string's index in `distinct` (first-seen order).
    let mut row_ids: Vec<Option<u32>> = Vec::with_capacity(values.len());
    // (length, string or NULL) of each run.
    let mut runs: Vec<(u32, Option<&str>)> = Vec::new();
    let (mut raw_len, mut rle_len, mut dict_len) = (0usize, 4usize, 5usize);
    for s in values.iter().map(Value::as_str) {
        let cost = s.map_or(0, |s| 4 + s.len());
        raw_len += 1 + cost;
        match runs.last_mut() {
            Some((len, key)) if *key == s && *len < u32::MAX => *len += 1,
            _ => {
                runs.push((1, s));
                rle_len += 5 + cost;
            }
        }
        row_ids.push(s.map(|s| {
            *ids.entry(s).or_insert_with(|| {
                distinct.push(s);
                dict_len += cost;
                distinct.len() as u32 - 1
            })
        }));
    }
    let width = 64 - (distinct.len().max(1) as u64 - 1).leading_zeros();
    dict_len += (values.len() * width as usize).div_ceil(8);
    let mut best = (ENC_RAW, raw_len);
    if !distinct.is_empty() && dict_len < best.1 {
        best = (ENC_STR_DICT, dict_len);
    }
    if rle_len < best.1 {
        best = (ENC_STR_RLE, rle_len);
    }
    let mut buf = BytesMut::with_capacity(best.1);
    match best.0 {
        ENC_STR_DICT => {
            // Codes follow sorted order, so the bytes do not depend on
            // which string a page happens to meet first.
            let mut sorted: Vec<(&str, usize)> = distinct.iter().copied().zip(0..).collect();
            sorted.sort_unstable();
            let mut code_of = vec![0u64; sorted.len()];
            buf.put_u32(encodable_len("dictionary", sorted.len())?);
            for (&(s, id), code) in sorted.iter().zip(0u64..) {
                put_str(&mut buf, s)?;
                if let Some(slot) = code_of.get_mut(id) {
                    *slot = code;
                }
            }
            buf.put_u8(width as u8);
            let code = |id: &Option<u32>| id.and_then(|i| code_of.get(i as usize).copied());
            let codes = row_ids.iter().map(|id| code(id).unwrap_or(0));
            pack_bits(&mut buf, codes, width);
        }
        // Run-length: (length, nullness, string) per run.
        ENC_STR_RLE => {
            buf.put_u32(encodable_len("rle runs", runs.len())?);
            for (len, key) in runs {
                buf.put_u32(len);
                match key {
                    Some(s) => {
                        buf.put_u8(0);
                        put_str(&mut buf, s)?;
                    }
                    None => buf.put_u8(1),
                }
            }
        }
        _ => buf = encode_raw(values)?,
    };
    debug_assert_eq!(buf.len(), best.1);
    Ok((best.0, buf))
}

fn decode_str_dict(
    rows: usize,
    nulls: NullBitmap,
    data: &mut &[u8],
) -> Result<ColumnVector, StorageError> {
    if data.remaining() < 4 {
        return Err(corrupt("truncated dictionary length"));
    }
    let n = data.get_u32() as usize;
    if n == 0 || n > rows.max(1) {
        return Err(corrupt("implausible dictionary size"));
    }
    let mut buf = String::new();
    let mut dict = Vec::with_capacity(n);
    for _ in 0..n {
        dict.push(take_str(data, &mut buf)?);
    }
    if !data.has_remaining() {
        return Err(corrupt("truncated dictionary code width"));
    }
    let width = data.get_u8() as u32;
    if width > 64 {
        return Err(corrupt("implausible dictionary code width"));
    }
    let mut in_range = true;
    let mut spans = unpack_bits(data, width, rows, |code| {
        let entry = usize::try_from(code).ok().and_then(|c| dict.get(c));
        in_range &= entry.is_some();
        entry.copied().unwrap_or_default()
    })?;
    if !in_range {
        return Err(corrupt("dictionary code out of range"));
    }
    zero_nulls(&mut spans, &nulls);
    Ok(str_page(spans, buf, nulls))
}

fn decode_str_rle(
    rows: usize,
    nulls: NullBitmap,
    data: &mut &[u8],
) -> Result<ColumnVector, StorageError> {
    if data.remaining() < 4 {
        return Err(corrupt("truncated rle run count"));
    }
    let runs = data.get_u32() as usize;
    if runs > rows {
        return Err(corrupt("implausible rle run count"));
    }
    let mut words = vec![0u64; rows.div_ceil(64)];
    let mut spans = Vec::with_capacity(rows);
    let mut buf = String::new();
    for _ in 0..runs {
        if data.remaining() < 5 {
            return Err(corrupt("truncated rle run"));
        }
        let len = data.get_u32() as usize;
        let is_null = data.get_u8() != 0;
        if len > rows - spans.len() {
            return Err(corrupt("rle runs exceed row count"));
        }
        let span = if is_null {
            (spans.len()..spans.len() + len).for_each(|i| set_bit(&mut words, i));
            (0, 0)
        } else {
            take_str(data, &mut buf)?
        };
        spans.extend(std::iter::repeat_n(span, len));
    }
    if spans.len() != rows {
        return Err(corrupt("rle runs do not cover the page"));
    }
    if NullBitmap::from_words(words, rows) != nulls {
        return Err(corrupt("null bitmap disagrees with the rle runs"));
    }
    Ok(str_page(spans, buf, nulls))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: Vec<Value>) {
        let (bytes, zone) = encode_page(&values).unwrap();
        assert_eq!(zone.rows as usize, values.len());
        let back = decode_page(&bytes).unwrap();
        assert_eq!(back.to_values(), values);
        // The decoded vector must equal the one the resident path builds.
        assert_eq!(back, ColumnVector::from_values(values));
    }

    #[test]
    fn int_pages_round_trip_and_bit_pack() {
        round_trip((0..1000i64).map(Value::Int).collect());
        round_trip(vec![Value::Int(i64::MIN), Value::Int(i64::MAX)]);
        round_trip(vec![Value::Int(7); 100]);
        round_trip(vec![Value::Int(5), Value::Null, Value::Int(-5)]);
        // Narrow-range ints compress well below raw (9 bytes/slot).
        let vals: Vec<Value> = (0..1024i64)
            .map(|i| Value::Int(1_000_000 + i % 16))
            .collect();
        let (bytes, _) = encode_page(&vals).unwrap();
        assert!(bytes.len() < vals.len() * 2, "{} bytes", bytes.len());
        assert_eq!(page_encoding_name(&bytes), Some("int-for"));
    }

    #[test]
    fn string_pages_pick_the_smaller_encoding() {
        // Low cardinality: dictionary wins.
        let dicty: Vec<Value> = (0..512)
            .map(|i| Value::Str(format!("tag{}", i % 4)))
            .collect();
        let (bytes, _) = encode_page(&dicty).unwrap();
        assert_eq!(page_encoding_name(&bytes), Some("str-dict"));
        assert!(bytes.len() < 512);
        round_trip(dicty);
        // Long runs: RLE wins.
        let runny: Vec<Value> = (0..512)
            .map(|i| Value::Str(format!("run{}", i / 256)))
            .collect();
        let (bytes, _) = encode_page(&runny).unwrap();
        assert_eq!(page_encoding_name(&bytes), Some("str-rle"));
        round_trip(runny);
        // High cardinality strings still round-trip.
        round_trip(
            (0..100)
                .map(|i| Value::Str(format!("unique-{i}")))
                .collect(),
        );
    }

    #[test]
    fn float_bool_mixed_and_null_pages() {
        round_trip(vec![
            Value::Float(0.5),
            Value::Null,
            Value::Float(f64::NAN.min(3.0)),
        ]);
        round_trip(vec![Value::Bool(true), Value::Bool(false), Value::Null]);
        round_trip(vec![Value::Int(1), Value::Str("x".into())]); // mixed -> raw
        round_trip(vec![Value::Null; 64]); // all-NULL
        round_trip(vec![]); // empty page
        round_trip(vec![Value::Blob(vec![1, 2, 3]), Value::Null]);
    }

    #[test]
    fn zone_maps_bound_and_prune() {
        let z = ZoneMap::compute(&[Value::Int(10), Value::Int(20), Value::Null]);
        assert_eq!(z.min, Some(Value::Int(10)));
        assert_eq!(z.max, Some(Value::Int(20)));
        assert_eq!(z.null_count, 1);
        assert!(z.may_match(BinOp::Eq, &Value::Int(15)));
        assert!(!z.may_match(BinOp::Eq, &Value::Int(5)));
        assert!(!z.may_match(BinOp::Eq, &Value::Int(25)));
        assert!(z.may_match(BinOp::Lt, &Value::Int(11)));
        assert!(!z.may_match(BinOp::Lt, &Value::Int(10)));
        assert!(z.may_match(BinOp::Le, &Value::Int(10)));
        assert!(!z.may_match(BinOp::Le, &Value::Int(9)));
        assert!(z.may_match(BinOp::Gt, &Value::Int(19)));
        assert!(!z.may_match(BinOp::Gt, &Value::Int(20)));
        assert!(z.may_match(BinOp::Ge, &Value::Int(20)));
        assert!(!z.may_match(BinOp::Ge, &Value::Int(21)));
        assert!(z.may_match(BinOp::Ne, &Value::Int(10)));
        // Cross-numeric comparison works (Int zone, Float literal).
        assert!(!z.may_match(BinOp::Eq, &Value::Float(5.0)));
        assert!(z.may_match(BinOp::Eq, &Value::Float(10.0)));
        // Incomparable literal: conservative keep.
        assert!(z.may_match(BinOp::Eq, &Value::Str("x".into())));
    }

    #[test]
    fn degenerate_zone_maps() {
        // All-NULL page can never satisfy a comparison conjunct.
        let z = ZoneMap::compute(&[Value::Null, Value::Null]);
        assert!(!z.may_match(BinOp::Eq, &Value::Int(1)));
        assert!(!z.may_match(BinOp::Ne, &Value::Int(1)));
        // Single-value page: Ne prunes when the literal equals it…
        let z = ZoneMap::compute(&[Value::Int(7), Value::Int(7)]);
        assert!(!z.may_match(BinOp::Ne, &Value::Int(7)));
        assert!(z.may_match(BinOp::Ne, &Value::Int(8)));
        // …unless NULLs are present (they fail the filter anyway: still safe).
        let z = ZoneMap::compute(&[Value::Int(7), Value::Null]);
        assert!(!z.may_match(BinOp::Ne, &Value::Int(7)));
        // Mixed-type page is unbounded: everything may match.
        let z = ZoneMap::compute(&[Value::Int(1), Value::Str("a".into())]);
        assert!(z.may_match(BinOp::Eq, &Value::Int(999)));
        // Empty page has no matching rows.
        let z = ZoneMap::compute(&[]);
        assert!(!z.may_match(BinOp::Eq, &Value::Int(1)));
    }

    #[test]
    fn zone_map_encode_decode() {
        for z in [
            ZoneMap::compute(&[Value::Int(1), Value::Int(5), Value::Null]),
            ZoneMap::compute(&[Value::Str("a".into()), Value::Str("z".into())]),
            ZoneMap::compute(&[Value::Null]),
            ZoneMap::compute(&[Value::Int(1), Value::Str("x".into())]),
        ] {
            let mut buf = BytesMut::new();
            z.encode(&mut buf).unwrap();
            let mut data = &buf[..];
            assert_eq!(ZoneMap::decode(&mut data).unwrap(), z);
            assert!(data.is_empty());
        }
    }

    /// One page of every encoding, NULLs included.
    fn a_page_of_each_encoding() -> Vec<(&'static str, Vec<Value>)> {
        let nulled = |i: usize, v: Value| if i % 5 == 3 { Value::Null } else { v };
        let page = |f: &dyn Fn(usize) -> Value| (0..100).map(|i| nulled(i, f(i))).collect();
        vec![
            ("int-for", page(&|i| Value::Int(i as i64 * 37 - 1000))),
            ("float64", page(&|i| Value::Float(i as f64 / 8.0))),
            ("bool-bitmap", page(&|i| Value::Bool(i % 3 == 0))),
            (
                "str-dict",
                page(&|i| Value::Str(format!("tag{}", i * 7 % 4))),
            ),
            // NULLs in one run of their own, or they would break every run.
            (
                "str-rle",
                (0..100)
                    .map(|i| match i / 30 {
                        1 => Value::Null,
                        run => Value::Str(format!("run{run}")),
                    })
                    .collect(),
            ),
            // More distinct strings than 7-bit codes: a dictionary loses.
            (
                "raw",
                (0..300)
                    .map(|i| nulled(i, Value::Str(format!("u{i}é"))))
                    .collect(),
            ),
        ]
    }

    #[test]
    fn corruption_is_detected() {
        for (enc, values) in a_page_of_each_encoding() {
            let (bytes, _) = encode_page(&values).unwrap();
            assert_eq!(page_encoding_name(&bytes), Some(enc));
            assert_eq!(decode_page(&bytes).unwrap().to_values(), values);
            for i in 0..bytes.len() {
                let mut bad = bytes.to_vec();
                bad[i] ^= 1 << (i % 8);
                assert!(decode_page(&bad).is_err(), "{enc}: bit flip at {i}");
            }
            for cut in 0..bytes.len() {
                assert!(decode_page(&bytes[..cut]).is_err(), "{enc}: cut at {cut}");
            }
        }
    }

    /// The bit-at-a-time packer the word-at-a-time one replaced.
    fn pack_bits_reference(vals: &[u64], width: u32) -> Vec<u8> {
        let mut out = vec![0u8; (vals.len() * width as usize).div_ceil(8)];
        let mut pos = 0usize;
        for &v in vals {
            for b in 0..width {
                if (v >> b) & 1 == 1 {
                    out[pos / 8] |= 1 << (pos % 8);
                }
                pos += 1;
            }
        }
        out
    }

    /// The bit-at-a-time unpacker, likewise.
    fn unpack_bits_reference(packed: &[u8], width: u32, count: usize) -> Vec<u64> {
        let mut pos = 0usize;
        (0..count)
            .map(|_| {
                let mut v = 0u64;
                for b in 0..width {
                    if packed[pos / 8] & (1 << (pos % 8)) != 0 {
                        v |= 1u64 << b;
                    }
                    pos += 1;
                }
                v
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every width 0..=64 comes up: both directions agree with the
        /// references, bytes past the stream are left alone, and bits above
        /// `width` never leak into a neighbour.
        #[test]
        fn pack_and_unpack_agree_with_the_bitwise_references(
            width in 0u32..65,
            vals in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..70),
            trailing in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..20),
        ) {
            let masked: Vec<u64> = vals.iter().map(|v| v & low_bits(width)).collect();
            let mut buf = BytesMut::new();
            pack_bits(&mut buf, vals.iter().copied(), width);
            proptest::prop_assert_eq!(&buf[..], &pack_bits_reference(&masked, width)[..]);

            buf.put_slice(&trailing);
            let mut data = &buf[..];
            let back = unpack_bits(&mut data, width, vals.len(), |v| v).unwrap();
            proptest::prop_assert_eq!(data, &trailing[..]);
            proptest::prop_assert_eq!(&back, &masked);
            proptest::prop_assert_eq!(back, unpack_bits_reference(&buf, width, vals.len()));
            // One value more than the stream holds is a typed error.
            if width > 0 {
                let mut short = &buf[..buf.len() - trailing.len()];
                let more = vals.len() + 8;
                proptest::prop_assert!(unpack_bits(&mut short, width, more, |v| v).is_err());
            }
        }
    }
}
