//! The byte codecs every on-disk format of this crate shares, and the
//! atomic file write that page files and sidecar files go through.
//!
//! A value is a tag byte plus its payload; a string or blob is a `u32`
//! length prefix plus its bytes; a schema is a table name, a column count,
//! and per column its name, type tag and nullability. The WAL's records
//! and the KPGM page descriptors of a checkpoint are spelled in these, and
//! each format checksums its own frame, so no codec here carries a
//! checksum of its own.

use crate::io::{parent_dir, sync_dir, with_retry, Io, RetryPolicy};
use crate::{Column, DataType, Schema, StorageError, Value};
use bytes::{Buf, BufMut, BytesMut};
use std::path::Path;

/// Writes `bytes` to `path` atomically: the data goes to a temp file in the
/// same directory, is fsynced, and is then renamed into place, so a crash
/// mid-write can never leave a truncated file under the target name. The
/// containing directory is then fsynced, so the rename survives power loss
/// once this returns `Ok`.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    atomic_write_with(&Io::real(), path, bytes)
}

/// [`atomic_write`] through an explicit [`Io`] handle. The temp-file write
/// and its fsync retry transient faults (the sequence is idempotent — each
/// attempt recreates the temp file from scratch); the rename is attempted
/// once, since its failure modes are not transient and a duplicate rename
/// could clobber a concurrent writer. On a failure before the rename the
/// target file is untouched and the temp file is cleaned up best-effort; a
/// failed directory fsync after it is returned as it is.
pub fn atomic_write_with(io: &Io, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let dir = parent_dir(path);
    io.create_dir_all(dir)?;
    let file_name = path
        .file_name()
        .ok_or_else(|| StorageError::Io(format!("no file name in {}", path.display())))?;
    let tmp = dir.join(format!(
        ".{}.{}.tmp",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let write = with_retry(&RetryPolicy::default(), || {
        io.write_file(&tmp, bytes)?;
        io.fsync(&tmp)
    });
    if let Err(e) = write {
        let _ = io.remove_file(&tmp);
        return Err(e.into());
    }
    if let Err(e) = io.rename(&tmp, path) {
        let _ = io.remove_file(&tmp);
        return Err(e.into());
    }
    Ok(sync_dir(io, dir)?)
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
        DataType::Blob => 4,
        DataType::Any => 5,
    }
}

fn dtype_from_tag(t: u8) -> Result<DataType, StorageError> {
    Ok(match t {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        4 => DataType::Blob,
        5 => DataType::Any,
        _ => return Err(StorageError::Corrupt(format!("unknown type tag {t}"))),
    })
}

/// Writes a table name and its schema: the name, the column count, then
/// per column its name, type tag and nullability.
pub(crate) fn put_schema(
    buf: &mut BytesMut,
    name: &str,
    schema: &Schema,
) -> Result<(), StorageError> {
    put_str(buf, name)?;
    buf.put_u32(encodable_len("columns", schema.arity())?);
    for col in schema.columns() {
        put_str(buf, &col.name)?;
        buf.put_u8(dtype_tag(col.dtype));
        buf.put_u8(col.nullable as u8);
    }
    Ok(())
}

/// Reads what [`put_schema`] wrote.
pub(crate) fn get_schema(data: &mut &[u8]) -> Result<(String, Schema), StorageError> {
    let corrupt = |m: &str| StorageError::Corrupt(m.to_string());
    let name = get_str(data)?;
    if data.remaining() < 4 {
        return Err(corrupt("truncated column count"));
    }
    let arity = data.get_u32() as usize;
    if arity > 1 << 16 {
        return Err(corrupt("implausible column count"));
    }
    let mut cols = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = get_str(data)?;
        if data.remaining() < 2 {
            return Err(corrupt("truncated column descriptor"));
        }
        let dtype = dtype_from_tag(data.get_u8())?;
        let nullable = data.get_u8() != 0;
        cols.push(Column {
            name,
            dtype,
            nullable,
        });
    }
    let schema = Schema::new(cols).map_err(|e| corrupt(&format!("invalid schema: {e}")))?;
    Ok((name, schema))
}

/// Checks that a length fits the u32 prefix of the binary formats; the
/// guard every string/blob encoder goes through so oversized payloads fail
/// loudly instead of round-tripping corrupt.
pub(crate) fn encodable_len(what: &str, len: usize) -> Result<u32, StorageError> {
    u32::try_from(len).map_err(|_| StorageError::TooLarge {
        what: what.to_string(),
        len: len as u64,
    })
}

pub(crate) fn put_str(buf: &mut BytesMut, s: &str) -> Result<(), StorageError> {
    buf.put_u32(encodable_len("string", s.len())?);
    buf.put_slice(s.as_bytes());
    Ok(())
}

pub(crate) fn get_str(data: &mut &[u8]) -> Result<String, StorageError> {
    if data.remaining() < 4 {
        return Err(StorageError::Corrupt("truncated string length".into()));
    }
    let len = data.get_u32() as usize;
    if data.remaining() < len {
        return Err(StorageError::Corrupt("truncated string payload".into()));
    }
    let s = std::str::from_utf8(&data[..len])
        .map_err(|_| StorageError::Corrupt("invalid utf-8".into()))?
        .to_string();
    data.advance(len);
    Ok(s)
}

/// Value tags of the tagged encoding that the page codec also reads in
/// place (the others are spelled only here).
pub(crate) const TAG_NULL: u8 = 0;
pub(crate) const TAG_STR: u8 = 3;

pub(crate) fn put_value(buf: &mut BytesMut, v: &Value) -> Result<(), StorageError> {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Int(i) => {
            buf.put_u8(1);
            buf.put_i64(*i);
        }
        Value::Float(f) => {
            buf.put_u8(2);
            buf.put_f64(*f);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_str(buf, s)?;
        }
        Value::Bool(b) => {
            buf.put_u8(4);
            buf.put_u8(*b as u8);
        }
        Value::Blob(b) => {
            buf.put_u8(5);
            buf.put_u32(encodable_len("blob", b.len())?);
            buf.put_slice(b);
        }
    }
    Ok(())
}

pub(crate) fn get_value(data: &mut &[u8]) -> Result<Value, StorageError> {
    let corrupt = |m: &str| StorageError::Corrupt(m.to_string());
    if !data.has_remaining() {
        return Err(corrupt("truncated value tag"));
    }
    Ok(match data.get_u8() {
        TAG_NULL => Value::Null,
        1 => {
            if data.remaining() < 8 {
                return Err(corrupt("truncated int"));
            }
            Value::Int(data.get_i64())
        }
        2 => {
            if data.remaining() < 8 {
                return Err(corrupt("truncated float"));
            }
            Value::Float(data.get_f64())
        }
        TAG_STR => Value::Str(get_str(data)?),
        4 => {
            if !data.has_remaining() {
                return Err(corrupt("truncated bool"));
            }
            Value::Bool(data.get_u8() != 0)
        }
        5 => {
            if data.remaining() < 4 {
                return Err(corrupt("truncated blob length"));
            }
            let len = data.get_u32() as usize;
            if data.remaining() < len {
                return Err(corrupt("truncated blob payload"));
            }
            let b = data[..len].to_vec();
            data.advance(len);
            Value::Blob(b)
        }
        t => return Err(corrupt(&format!("unknown value tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BYTES: &[u8] = b"films: Guilty by Suspicion, Clean and Sober";

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("kathdb_persist_test");
        let path = dir.join("films.bin");
        atomic_write(&path, BYTES).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), BYTES);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn atomic_save_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("kathdb_persist_atomic_test");
        let path = dir.join("films.bin");
        atomic_write(&path, BYTES).unwrap();
        // Overwrite in place: still exactly one file, still the payload.
        atomic_write(&path, BYTES).unwrap();
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1, "temp file left behind");
        assert_eq!(std::fs::read(&path).unwrap(), BYTES);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn oversized_payloads_refuse_to_encode() {
        assert!(encodable_len("string", u32::MAX as usize).is_ok());
        assert!(matches!(
            encodable_len("string", u32::MAX as usize + 1),
            Err(StorageError::TooLarge { ref what, len })
                if what == "string" && len == u32::MAX as u64 + 1
        ));
    }
}
