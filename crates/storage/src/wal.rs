//! Write-ahead log: length-prefixed, CRC-checksummed logical redo records.
//!
//! Durability in KathDB is logical: every mutating statement (CREATE TABLE,
//! INSERT, DROP TABLE) and every function-registry change is encoded as a
//! [`WalRecord`], appended to the active log segment, and fsynced *before*
//! the in-memory catalog is touched. Crash recovery replays the log tail on
//! top of the newest valid snapshot (see [`crate::Durability`]).
//!
//! Frame layout: `u32 payload length | u32 CRC32(length bytes) |
//! u32 CRC32(payload) | payload`. A crash mid-append leaves a *torn* final
//! frame — fewer bytes on disk than the (verified) length prefix promises.
//! Torn tails are silently dropped at open (the record was never
//! acknowledged as applied) and the file is truncated so the next append
//! overwrites them. The length prefix carries its own checksum so a
//! bit-flipped length field is distinguishable from a torn tail: any
//! checksum or decode failure on bytes that are actually present is real
//! corruption and surfaces as [`StorageError::Corrupt`] — recovery never
//! fabricates rows and never silently discards acknowledged ones.

use crate::io::{with_retry, Io, RetryPolicy};
use crate::persist::{
    encodable_len, get_schema, get_str, get_value, put_schema, put_str, put_value,
};
use crate::{Row, Schema, StorageError};
use bytes::{Buf, BufMut, BytesMut};
use std::path::{Path, PathBuf};

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic byte table and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight lookups — independent of one another — advance the checksum over
/// eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Encodes one record as a complete WAL frame (header + payload).
fn encode_frame(record: &WalRecord) -> Result<Vec<u8>, StorageError> {
    let payload = record.encode()?;
    let len_bytes = encodable_len("wal payload", payload.len())?.to_be_bytes();
    let mut frame = Vec::with_capacity(payload.len() + 12);
    frame.extend_from_slice(&len_bytes);
    frame.extend_from_slice(&crc32(&len_bytes).to_be_bytes());
    frame.extend_from_slice(&crc32(&payload).to_be_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// CRC32 (IEEE 802.3 polynomial), the checksum of WAL frames, page
/// descriptors, snapshot manifests and column pages. Eight bytes a step
/// (slice-by-8); the ragged tail goes a byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let (words, tail) = data.as_chunks::<8>();
    for word in words {
        let x = u64::from_le_bytes(*word) ^ c as u64;
        c = t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][((x >> 24) & 0xFF) as usize]
            ^ t[3][((x >> 32) & 0xFF) as usize]
            ^ t[2][((x >> 40) & 0xFF) as usize]
            ^ t[1][((x >> 48) & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize];
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One logical redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Registers a new, empty table. An ingest logs this plus one
    /// [`WalRecord::Insert`] of its rows, framed as one transaction.
    CreateTable {
        /// The new table's name.
        name: String,
        /// Its schema.
        schema: Schema,
    },
    /// Appends rows to an existing table.
    Insert {
        /// Target table name.
        table: String,
        /// The evaluated row literals (values, not expressions, so replay
        /// is deterministic).
        rows: Vec<Row>,
    },
    /// Removes a table.
    DropTable(String),
    /// Replaces the function registry with the given serialized form (the
    /// payload is opaque JSON owned by `kath_fao`; storage only frames and
    /// checksums it).
    Functions(String),
    /// Opens transaction `txid`. Everything between a `Begin` and its
    /// matching `Commit` is one atomic unit: recovery replays the enclosed
    /// records only when the `Commit` frame is on disk.
    Begin(u64),
    /// Commits transaction `txid` (must match the open `Begin`).
    Commit(u64),
    /// Aborts transaction `txid`: the enclosed records are discarded at
    /// replay. Written when sealing a crash-torn open transaction so later
    /// appends are not mistaken for its continuation.
    Abort(u64),
}

const TAG_INSERT: u8 = 2;
const TAG_DROP: u8 = 3;
const TAG_FUNCTIONS: u8 = 4;
const TAG_BEGIN: u8 = 5;
const TAG_COMMIT: u8 = 6;
const TAG_ABORT: u8 = 7;
/// Tag 1 carried a CREATE with the table's rows inside; a log that holds
/// one is refused as an unknown tag.
const TAG_CREATE: u8 = 8;

impl WalRecord {
    /// Encodes the record payload (tag byte + body).
    pub fn encode(&self) -> Result<Vec<u8>, StorageError> {
        let mut buf = BytesMut::new();
        match self {
            WalRecord::CreateTable { name, schema } => {
                buf.put_u8(TAG_CREATE);
                put_schema(&mut buf, name, schema)?;
            }
            WalRecord::Insert { table, rows } => {
                buf.put_u8(TAG_INSERT);
                put_str(&mut buf, table)?;
                buf.put_u32(encodable_len("rows", rows.len())?);
                for row in rows {
                    buf.put_u32(encodable_len("row", row.len())?);
                    for v in row {
                        put_value(&mut buf, v)?;
                    }
                }
            }
            WalRecord::DropTable(name) => {
                buf.put_u8(TAG_DROP);
                put_str(&mut buf, name)?;
            }
            WalRecord::Functions(json) => {
                buf.put_u8(TAG_FUNCTIONS);
                buf.put_slice(json.as_bytes());
            }
            WalRecord::Begin(txid) => {
                buf.put_u8(TAG_BEGIN);
                buf.put_u64(*txid);
            }
            WalRecord::Commit(txid) => {
                buf.put_u8(TAG_COMMIT);
                buf.put_u64(*txid);
            }
            WalRecord::Abort(txid) => {
                buf.put_u8(TAG_ABORT);
                buf.put_u64(*txid);
            }
        }
        Ok(buf.to_vec())
    }

    /// Decodes a record payload.
    pub fn decode(mut data: &[u8]) -> Result<WalRecord, StorageError> {
        let corrupt = |m: &str| StorageError::Corrupt(m.to_string());
        if !data.has_remaining() {
            return Err(corrupt("truncated wal record tag"));
        }
        match data.get_u8() {
            TAG_CREATE => {
                let (name, schema) = get_schema(&mut data)?;
                if data.has_remaining() {
                    return Err(corrupt("trailing bytes after wal create record"));
                }
                Ok(WalRecord::CreateTable { name, schema })
            }
            TAG_INSERT => {
                let table = get_str(&mut data)?;
                if data.remaining() < 4 {
                    return Err(corrupt("truncated wal row count"));
                }
                let nrows = data.get_u32() as usize;
                let mut rows = Vec::with_capacity(nrows.min(1 << 16));
                for _ in 0..nrows {
                    if data.remaining() < 4 {
                        return Err(corrupt("truncated wal row arity"));
                    }
                    let arity = data.get_u32() as usize;
                    if arity > 1 << 16 {
                        return Err(corrupt("implausible wal row arity"));
                    }
                    let mut row: Row = Vec::with_capacity(arity);
                    for _ in 0..arity {
                        row.push(get_value(&mut data)?);
                    }
                    rows.push(row);
                }
                if data.has_remaining() {
                    return Err(corrupt("trailing bytes after wal insert record"));
                }
                Ok(WalRecord::Insert { table, rows })
            }
            TAG_DROP => {
                let name = get_str(&mut data)?;
                if data.has_remaining() {
                    return Err(corrupt("trailing bytes after wal drop record"));
                }
                Ok(WalRecord::DropTable(name))
            }
            TAG_FUNCTIONS => {
                let json = std::str::from_utf8(data)
                    .map_err(|_| corrupt("wal functions record is not utf-8"))?;
                Ok(WalRecord::Functions(json.to_string()))
            }
            tag @ (TAG_BEGIN | TAG_COMMIT | TAG_ABORT) => {
                if data.remaining() < 8 {
                    return Err(corrupt("truncated wal txn marker"));
                }
                let txid = data.get_u64();
                if data.has_remaining() {
                    return Err(corrupt("trailing bytes after wal txn marker"));
                }
                Ok(match tag {
                    TAG_BEGIN => WalRecord::Begin(txid),
                    TAG_COMMIT => WalRecord::Commit(txid),
                    _ => WalRecord::Abort(txid),
                })
            }
            t => Err(corrupt(&format!("unknown wal record tag {t}"))),
        }
    }
}

/// The four header bytes at `at`. The callers' length checks make a short
/// slice impossible, but decode paths return typed errors rather than
/// panic, so the bound is re-checked instead of unwrapped.
fn header4(data: &[u8], at: usize) -> Result<[u8; 4], StorageError> {
    data.get(at..at + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| StorageError::Corrupt("wal frame header truncated".to_string()))
}

/// Decodes every complete frame in `data`. Returns the records plus the
/// byte offset of the end of the last complete frame (the valid length).
/// An incomplete final frame is dropped; a complete frame that fails its
/// checksum or decode is `Corrupt`.
pub(crate) fn decode_frames(data: &[u8]) -> Result<(Vec<WalRecord>, u64), StorageError> {
    let mut records = Vec::new();
    let mut off = 0usize;
    loop {
        if data.len() - off < 12 {
            break; // empty or torn header
        }
        // The header checksum separates "file ends mid-frame" (torn tail,
        // skip) from "length field flipped on disk" (corruption, error):
        // trusting an unverified length would let one bad bit silently
        // discard every later record as an apparent tail.
        let len_bytes = header4(data, off)?;
        let header_crc = u32::from_be_bytes(header4(data, off + 4)?);
        let payload_crc = u32::from_be_bytes(header4(data, off + 8)?);
        if crc32(&len_bytes) != header_crc {
            return Err(StorageError::Corrupt(
                "wal frame header checksum mismatch".to_string(),
            ));
        }
        let len = u32::from_be_bytes(len_bytes) as usize;
        let start = off + 12;
        let end = match start.checked_add(len) {
            Some(end) if end <= data.len() => end,
            _ => break, // verified length, missing bytes: a torn payload
        };
        let payload = &data[start..end];
        if crc32(payload) != payload_crc {
            return Err(StorageError::Corrupt(
                "wal record checksum mismatch".to_string(),
            ));
        }
        records.push(WalRecord::decode(payload)?);
        off = end;
    }
    Ok((records, off as u64))
}

/// Outcome of [`filter_committed`]: the records recovery should replay,
/// plus what the filter learned about the log tail.
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredLog {
    /// Records to replay: every bare (unframed) record, plus the contents
    /// of each `Begin..Commit` span, in log order.
    pub records: Vec<WalRecord>,
    /// A transaction left open at the end of the log (its buffered records
    /// were discarded). The caller seals it with an [`WalRecord::Abort`] so
    /// later appends are never mistaken for its continuation.
    pub open_txn: Option<u64>,
    /// Complete transactions whose `Commit` frame was found.
    pub committed_txns: u64,
    /// Transactions dropped: explicit `Abort` frames plus an open tail.
    pub discarded_txns: u64,
    /// Highest txid seen in any marker (0 when none) — the txid allocator
    /// resumes above this.
    pub max_txid: u64,
}

/// Applies transaction framing to a replayed record stream: bare records
/// (autocommitted statements) pass through; `Begin..Commit` spans flush
/// atomically; `Begin..Abort` spans and a trailing open transaction are
/// discarded. Malformed framing — a nested `Begin`, or a `Commit`/`Abort`
/// with no or the wrong open transaction — is [`StorageError::Corrupt`]:
/// the group-commit writer emits each transaction as one contiguous batch,
/// so interleaved or unbalanced markers can only come from a corrupted log.
pub fn filter_committed(records: Vec<WalRecord>) -> Result<FilteredLog, StorageError> {
    let corrupt = |m: String| StorageError::Corrupt(m);
    let mut out = FilteredLog {
        records: Vec::with_capacity(records.len()),
        open_txn: None,
        committed_txns: 0,
        discarded_txns: 0,
        max_txid: 0,
    };
    let mut open: Option<(u64, Vec<WalRecord>)> = None;
    for r in records {
        match r {
            WalRecord::Begin(txid) => {
                out.max_txid = out.max_txid.max(txid);
                if let Some((prev, _)) = open {
                    return Err(corrupt(format!(
                        "wal begin({txid}) while transaction {prev} is open"
                    )));
                }
                open = Some((txid, Vec::new()));
            }
            WalRecord::Commit(txid) => {
                out.max_txid = out.max_txid.max(txid);
                match open.take() {
                    Some((id, buf)) if id == txid => {
                        out.records.extend(buf);
                        out.committed_txns += 1;
                    }
                    Some((id, _)) => {
                        return Err(corrupt(format!(
                            "wal commit({txid}) does not match open transaction {id}"
                        )));
                    }
                    None => {
                        return Err(corrupt(format!(
                            "wal commit({txid}) with no open transaction"
                        )));
                    }
                }
            }
            WalRecord::Abort(txid) => {
                out.max_txid = out.max_txid.max(txid);
                match open.take() {
                    Some((id, _)) if id == txid => out.discarded_txns += 1,
                    Some((id, _)) => {
                        return Err(corrupt(format!(
                            "wal abort({txid}) does not match open transaction {id}"
                        )));
                    }
                    None => {
                        return Err(corrupt(format!(
                            "wal abort({txid}) with no open transaction"
                        )));
                    }
                }
            }
            other => match &mut open {
                Some((_, buf)) => buf.push(other),
                None => out.records.push(other),
            },
        }
    }
    if let Some((txid, _)) = open {
        // A crash mid-group-write can leave complete frames of a partial
        // transaction at the tail; they were never acknowledged.
        out.open_txn = Some(txid);
        out.discarded_txns += 1;
    }
    Ok(out)
}

/// One append-only log segment, fsynced on every append. All file
/// operations route through the segment's [`Io`] handle, so fault
/// injection exercises the exact append/repair paths a real disk error
/// would hit.
#[derive(Debug)]
pub struct Wal {
    io: Io,
    retry: RetryPolicy,
    path: PathBuf,
    /// End of the last complete frame (where the next append goes).
    len: u64,
    /// Complete records in the segment.
    records: u64,
    /// Records appended through this handle (excludes replayed ones).
    appended: u64,
}

impl Wal {
    /// [`Wal::open_with`] over the real backend.
    pub fn open(path: &Path) -> Result<(Self, Vec<WalRecord>), StorageError> {
        Self::open_with(path, Io::real())
    }

    /// Opens (creating if absent) a segment and replays its complete
    /// records. A torn final frame is dropped and the file truncated to the
    /// last valid offset, so the next append overwrites it. If that
    /// truncation fails even after retrying transient errors, open fails
    /// with [`StorageError::TornTail`] rather than handing back a segment
    /// whose poisoned tail would end up buried under later appends.
    pub fn open_with(path: &Path, io: Io) -> Result<(Self, Vec<WalRecord>), StorageError> {
        let retry = RetryPolicy::default();
        if let Some(dir) = path.parent() {
            io.create_dir_all(dir)?;
        }
        let data = match io.read_opt(path)? {
            Some(d) => d,
            None => {
                // Create the (empty) segment eagerly so recovery listings
                // and chain checks see it.
                io.write_file(path, &[])?;
                Vec::new()
            }
        };
        let (records, valid_len) = decode_frames(&data)?;
        if data.len() as u64 != valid_len {
            with_retry(&retry, || {
                io.set_len(path, valid_len)?;
                io.fsync(path)
            })
            .map_err(|e| {
                StorageError::TornTail(format!(
                    "failed to truncate '{}' to {valid_len} bytes: {e}",
                    path.display()
                ))
            })?;
        }
        Ok((
            Wal {
                io,
                retry,
                path: path.to_path_buf(),
                len: valid_len,
                records: records.len() as u64,
                appended: 0,
            },
            records,
        ))
    }

    /// Appends one record: frame written at the valid tail, then fsynced.
    /// Only after this returns may the record be applied in memory.
    /// Transient failures are retried under the segment's [`RetryPolicy`];
    /// the rewrite targets a fixed offset, so a retry after a short write
    /// simply overwrites the torn prefix. On failure nothing is
    /// acknowledged and the valid tail is unchanged — a later append
    /// overwrites whatever the failed attempt left behind.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StorageError> {
        let frame = encode_frame(record)?;
        with_retry(&self.retry, || {
            self.io.write_at(&self.path, self.len, &frame)?;
            self.io.fsync(&self.path)
        })?;
        self.len += frame.len() as u64;
        self.records += 1;
        self.appended += 1;
        Ok(())
    }

    /// Appends a batch of records as one contiguous write **without
    /// fsyncing**, returning the new tail offset. The group-commit
    /// coordinator calls this under its commit lock, then fsyncs outside
    /// the lock (one fsync acknowledges every batch appended since the
    /// last one). Until that fsync returns, the records are *not* durable;
    /// on fsync failure the caller rolls the tail back with
    /// [`Wal::rewind`]. A transaction's `Begin..Commit` span is always one
    /// batch, so a crash can tear at most the trailing batch — never
    /// interleave two transactions.
    pub fn append_batch_nosync<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a WalRecord>,
    ) -> Result<u64, StorageError> {
        let mut buf = Vec::new();
        let mut n = 0u64;
        for r in records {
            buf.extend_from_slice(&encode_frame(r)?);
            n += 1;
        }
        with_retry(&self.retry, || self.io.write_at(&self.path, self.len, &buf))?;
        self.len += buf.len() as u64;
        self.records += n;
        self.appended += n;
        Ok(self.len)
    }

    /// Fsyncs the segment (pairs with [`Wal::append_batch_nosync`]).
    pub fn sync(&self) -> Result<(), StorageError> {
        Ok(with_retry(&self.retry, || self.io.fsync(&self.path))?)
    }

    /// Clones the handles a group-commit leader needs to fsync this
    /// segment *outside* the commit lock.
    pub fn sync_handles(&self) -> (Io, PathBuf, RetryPolicy) {
        (self.io.clone(), self.path.clone(), self.retry)
    }

    /// Rolls the in-memory tail back to `(len, records)` after a failed
    /// group fsync, so the next append overwrites the unacknowledged
    /// bytes. Best-effort truncates the file too (purely cosmetic — the
    /// bytes past the tail are dead either way, exactly like a torn tail).
    pub fn rewind(&mut self, len: u64, records: u64) {
        debug_assert!(len <= self.len && records <= self.records);
        self.appended -= (self.records - records).min(self.appended);
        self.len = len;
        self.records = records;
        let _ = self.io.set_len(&self.path, len);
    }

    /// Read-only replay of a whole segment file (used for rotated-out
    /// segments during recovery). Missing file = empty segment.
    pub fn replay_file_with(path: &Path, io: &Io) -> Result<Vec<WalRecord>, StorageError> {
        let data = io.read_opt(path)?.unwrap_or_default();
        decode_frames(&data).map(|(records, _)| records)
    }

    /// Complete records in the segment (replayed + appended).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records appended through this handle — what a clean shutdown would
    /// lose by not checkpointing (replayed records are already durable as
    /// a replayable tail).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Valid bytes in the segment.
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, Column, DataType, FaultKind, FaultPlan, IoOp, Table, Value};
    use std::fs::OpenOptions;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kathdb_wal_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A CREATE, an INSERT of every value type (zero-length strings and
    /// blobs included), a registry record and a DROP. The column names are
    /// one bit apart, so a flip can make them collide.
    fn sample_records() -> Vec<WalRecord> {
        let schema = Schema::new(vec![
            Column::required("c0", DataType::Int),
            Column::new("c1", DataType::Any),
        ])
        .unwrap();
        let values = [
            Value::Null,
            Value::Float(-0.125),
            Value::Str(String::new()),
            Value::Str("héllo".into()),
            Value::Bool(true),
            Value::Blob(Vec::new()),
            Value::Blob(vec![0, 255, 7]),
        ];
        let rows = (i64::MIN..).zip(values).map(|(k, v)| vec![k.into(), v]);
        vec![
            WalRecord::CreateTable {
                name: "kv".into(),
                schema,
            },
            WalRecord::Insert {
                table: "kv".into(),
                rows: rows.collect(),
            },
            WalRecord::Functions("{\"functions\": []}".into()),
            WalRecord::DropTable("kv".into()),
        ]
    }

    /// A segment in a fresh directory holding [`sample_records`]: the
    /// directory and the segment's path.
    fn sample_segment(name: &str) -> (PathBuf, PathBuf) {
        let dir = tmp(name);
        let path = dir.join("000000.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for r in &sample_records() {
            wal.append(r).unwrap();
        }
        (dir, path)
    }

    /// One record of every kind.
    fn every_kind() -> Vec<WalRecord> {
        let markers = [
            WalRecord::Begin(1),
            WalRecord::Commit(1),
            WalRecord::Abort(u64::MAX),
        ];
        sample_records().into_iter().chain(markers).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_encode_decode_round_trip() {
        for r in every_kind() {
            let bytes = r.encode().unwrap();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), r);
        }
    }

    /// A log cut at any byte decodes to exactly the records whose frames
    /// are whole, and reports where the last one ends: the cut frame is a
    /// torn tail, never an error and never a shorter record.
    #[test]
    fn rejects_corruption() {
        let records = every_kind();
        let mut log = Vec::new();
        let mut ends = Vec::new();
        for r in &records {
            log.extend(encode_frame(r).unwrap());
            ends.push(log.len());
        }
        for cut in 0..=log.len() {
            let whole = ends.partition_point(|&end| end <= cut);
            let valid = whole.checked_sub(1).map_or(0, |last| ends[last]);
            let (decoded, len) = decode_frames(&log[..cut]).unwrap();
            assert_eq!(decoded, records[..whole], "cut at {cut}");
            assert_eq!(len, valid as u64, "cut at {cut}");
        }
    }

    /// `bytes` with bit `bit` flipped.
    fn flipped(bytes: &[u8], bit: usize) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[bit / 8] ^= 1 << (bit % 8);
        out
    }

    /// Every single-bit flip of a frame of every kind is `Corrupt`: the
    /// header checksum guards the length, the payload checksum the rest.
    #[test]
    fn any_single_bit_flip_is_detected() {
        for r in every_kind() {
            let frame = encode_frame(&r).unwrap();
            for bit in 0..frame.len() * 8 {
                let decoded = decode_frames(&flipped(&frame, bit));
                let detected = matches!(decoded, Err(StorageError::Corrupt(_)));
                assert!(detected, "{r:?}: flip of bit {bit} went undetected");
            }
        }
    }

    /// The record decoder is total: a payload cut at any byte or with any
    /// bit flipped (as if re-framed under valid checksums) decodes to some
    /// record or to `Corrupt`, and never panics.
    #[test]
    fn mutated_payloads_decode_or_refuse() {
        for r in every_kind() {
            let payload = r.encode().unwrap();
            let cuts = (0..payload.len()).map(|cut| payload[..cut].to_vec());
            let flips = (0..payload.len() * 8).map(|bit| flipped(&payload, bit));
            for bad in cuts.chain(flips) {
                match WalRecord::decode(&bad) {
                    Ok(_) | Err(StorageError::Corrupt(_)) => {}
                    Err(e) => panic!("{r:?}: {e:?} decoding {bad:?}"),
                }
            }
        }
    }

    /// The CREATE an empty ingest logs replays to an equal empty table.
    #[test]
    fn empty_table_round_trips() {
        let schema = Schema::of(&[("x", DataType::Any)]);
        let record = WalRecord::CreateTable {
            name: "empty".into(),
            schema: schema.clone(),
        };
        let back = WalRecord::decode(&record.encode().unwrap()).unwrap();
        assert_eq!(back, record);
        let mut catalog = Catalog::new();
        catalog.apply(&back).unwrap();
        assert_eq!(*catalog.get("empty").unwrap(), Table::new("empty", schema));
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = tmp("roundtrip");
        let path = dir.join("000000.log");
        let records = sample_records();
        {
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            assert!(replayed.is_empty());
            for r in &records {
                wal.append(r).unwrap();
            }
            assert_eq!(wal.records(), records.len() as u64);
        }
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(wal.records(), records.len() as u64);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tail_is_skipped_and_overwritten() {
        let (dir, path) = sample_segment("torn");
        let records = sample_records();
        // Tear the final record: drop its last 3 bytes.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        // Replay skips the torn record…
        let (mut wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, records[..records.len() - 1]);
        // …and the next append overwrites it cleanly.
        let extra = WalRecord::DropTable("other".into());
        wal.append(&extra).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&path).unwrap();
        let mut expected = records[..records.len() - 1].to_vec();
        expected.push(extra);
        assert_eq!(replayed, expected);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn flipped_length_field_is_corrupt_not_a_silent_tail() {
        let (dir, path) = sample_segment("lenflip");
        // Flip a bit in the FIRST frame's length prefix: without a header
        // checksum this would read as a torn tail and silently discard
        // (and truncate away) every fsync-acknowledged record after it.
        let mut data = std::fs::read(&path).unwrap();
        data[2] ^= 0x10;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(Wal::open(&path), Err(StorageError::Corrupt(_))));
        // Nothing was truncated: the bytes are still there for forensics.
        assert_eq!(std::fs::read(&path).unwrap().len(), data.len());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tail_truncate_failure_is_a_typed_error() {
        let (dir, path) = sample_segment("torntyped");
        let records = sample_records();
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        // Every truncate attempt fails permanently: open must refuse with
        // a typed error, not proceed with the poisoned tail…
        let io = Io::real();
        io.install_faults(FaultPlan::probabilistic(1, 1.0).on_ops(&[IoOp::Truncate]));
        assert!(matches!(
            Wal::open_with(&path, io),
            Err(StorageError::TornTail(_))
        ));
        // …and the bytes are untouched for forensics.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len - 3);
        // A transient truncate failure is retried away.
        let io = Io::real();
        io.install_faults(FaultPlan::at(1, FaultKind::Transient).on_ops(&[IoOp::Truncate]));
        let (_, replayed) = Wal::open_with(&path, io).unwrap();
        assert_eq!(replayed, records[..records.len() - 1]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn append_retries_transient_faults() {
        let dir = tmp("retryappend");
        let path = dir.join("000000.log");
        let io = Io::real();
        let (mut wal, _) = Wal::open_with(&path, io.clone()).unwrap();
        let records = sample_records();
        // A short write tears the first attempt; the retry overwrites the
        // torn prefix at the same offset.
        io.install_faults(FaultPlan::at(1, FaultKind::ShortWrite).on_ops(&[IoOp::Write]));
        for r in &records {
            wal.append(r).unwrap();
        }
        io.clear_faults();
        drop(wal);
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, records);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn append_surfaces_permanent_faults_without_acknowledging() {
        let dir = tmp("permappend");
        let path = dir.join("000000.log");
        let io = Io::real();
        let (mut wal, _) = Wal::open_with(&path, io.clone()).unwrap();
        let records = sample_records();
        wal.append(&records[0]).unwrap();
        io.install_faults(FaultPlan::probabilistic(1, 1.0).with_kinds(&[FaultKind::Enospc]));
        assert!(matches!(wal.append(&records[1]), Err(StorageError::Io(_))));
        assert_eq!(wal.records(), 1, "failed append must not be counted");
        io.clear_faults();
        // The failed attempt left no acknowledged record behind…
        drop(wal);
        let (mut wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, records[..1]);
        // …and the tail is clean for the next append.
        wal.append(&records[1]).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, records[..2]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn txn_markers_encode_decode_round_trip() {
        for r in [
            WalRecord::Begin(0),
            WalRecord::Commit(42),
            WalRecord::Abort(u64::MAX),
        ] {
            let bytes = r.encode().unwrap();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), r);
        }
    }

    #[test]
    fn filter_committed_replays_bare_and_committed_only() {
        let ins = |t: &str| WalRecord::Insert {
            table: t.into(),
            rows: vec![vec![1i64.into()]],
        };
        let log = vec![
            ins("bare1"),
            WalRecord::Begin(1),
            ins("tx1_a"),
            ins("tx1_b"),
            WalRecord::Commit(1),
            WalRecord::Begin(2),
            ins("tx2"),
            WalRecord::Abort(2),
            ins("bare2"),
            WalRecord::Begin(3),
            ins("tx3_torn"),
        ];
        let f = filter_committed(log).unwrap();
        assert_eq!(
            f.records,
            vec![ins("bare1"), ins("tx1_a"), ins("tx1_b"), ins("bare2")]
        );
        assert_eq!(f.open_txn, Some(3));
        assert_eq!(f.committed_txns, 1);
        assert_eq!(f.discarded_txns, 2);
        assert_eq!(f.max_txid, 3);
    }

    #[test]
    fn filter_committed_rejects_malformed_framing() {
        let cases: Vec<Vec<WalRecord>> = vec![
            vec![WalRecord::Begin(1), WalRecord::Begin(2)],
            vec![WalRecord::Begin(1), WalRecord::Commit(2)],
            vec![WalRecord::Commit(7)],
            vec![WalRecord::Abort(7)],
            vec![WalRecord::Begin(1), WalRecord::Abort(9)],
        ];
        for log in cases {
            assert!(
                matches!(filter_committed(log.clone()), Err(StorageError::Corrupt(_))),
                "expected Corrupt for {log:?}"
            );
        }
    }

    #[test]
    fn append_batch_nosync_then_sync_round_trip() {
        let dir = tmp("batch");
        let path = dir.join("000000.log");
        let records = sample_records();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            let framed: Vec<WalRecord> = std::iter::once(WalRecord::Begin(1))
                .chain(records.iter().cloned())
                .chain(std::iter::once(WalRecord::Commit(1)))
                .collect();
            let tail = wal.append_batch_nosync(framed.iter()).unwrap();
            assert_eq!(tail, wal.bytes());
            assert_eq!(wal.records(), framed.len() as u64);
            wal.sync().unwrap();
        }
        let (_, replayed) = Wal::open(&path).unwrap();
        let f = filter_committed(replayed).unwrap();
        assert_eq!(f.records, records);
        assert_eq!(f.committed_txns, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rewind_discards_unsynced_tail() {
        let dir = tmp("rewind");
        let path = dir.join("000000.log");
        let records = sample_records();
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&records[0]).unwrap();
        let (durable_len, durable_records) = (wal.bytes(), wal.records());
        wal.append_batch_nosync(records[1..].iter()).unwrap();
        // Pretend the group fsync failed: roll back to the durable tail.
        wal.rewind(durable_len, durable_records);
        assert_eq!(wal.bytes(), durable_len);
        assert_eq!(wal.records(), durable_records);
        // The next append lands where the discarded batch began.
        wal.append(&records[3]).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, vec![records[0].clone(), records[3].clone()]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checksum_mismatch_on_complete_frame_is_corrupt() {
        let (dir, path) = sample_segment("crc");
        // Flip one payload byte of the *first* frame: still a complete
        // frame, so this is detectable corruption, not a torn tail.
        let mut data = std::fs::read(&path).unwrap();
        data[10] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(Wal::open(&path), Err(StorageError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(dir);
    }
}
