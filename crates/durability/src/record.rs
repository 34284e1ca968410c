//! WAL record format: typed commit records with length + CRC32 framing.
//!
//! File layout:
//!
//! ```text
//! [magic u64 LE = "HTAPWAL1"] [version u32 LE] [base_lsn u64 LE]   header
//! [len u32 LE] [crc32 u32 LE] [body: len bytes]                    record 0  (lsn = base_lsn)
//! [len u32 LE] [crc32 u32 LE] [body: len bytes]                    record 1  (lsn = base_lsn + 1)
//! ...
//! ```
//!
//! A record's LSN is implicit in its position. The CRC covers the body only;
//! a record whose frame is incomplete (torn write at the tail) or whose CRC
//! mismatches (bit rot) ends the valid prefix — it and everything after it
//! is discarded on recovery, which is exactly transaction atomicity: a
//! commit whose record never became fully durable never happened.
//!
//! Body layout: `txn_id u64, commit_ts u64, op_count u32, ops...`; each op
//! is a tag byte (1 = insert, 2 = update) followed by its fields: an insert
//! is `table str, value_count u32, values...` — the row's key is its
//! primary-key cell, not stored beside it — and an update is `table str,
//! key u64, column u32, value`. Strings are `len u32 + UTF-8 bytes`; values
//! are a type tag byte followed by the fixed-width little-endian payload
//! (`f64` via `to_bits`) or a string — the codec of [`crate::codec`], which
//! the checkpoint shares.
//! Decoding is total: every read is bounds-checked and malformed input ends
//! the valid prefix instead of panicking.
//!
//! `Value` is the per-cell interface of transactions and of these ops only;
//! the checkpoint moves column slices. A checkpoint covers the whole log, so
//! the log restarts as a bare header ([`encode_wal_header`]) behind it and no
//! frame is ever read to be dropped.

use crate::codec::{dtype_tag, put_str, tag_dtype, Reader};
use crate::error::DurabilityError;
use htap_storage::{DataType, Value};

/// Log sequence number: position of a record in the logical WAL.
pub type Lsn = u64;

/// Magic bytes identifying a WAL file.
pub const WAL_MAGIC: u64 = u64::from_le_bytes(*b"HTAPWAL1");
/// WAL format version (2: an insert op carries no key beside its row).
pub const WAL_VERSION: u32 = 2;
/// Byte length of the WAL file header.
pub const WAL_HEADER_LEN: usize = 8 + 4 + 8;
/// Upper bound on one record body; larger frames are treated as corruption.
const MAX_RECORD_LEN: u32 = 64 << 20;

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table generated at compile time — no external crates.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Typed operations
// ---------------------------------------------------------------------------

/// One logged mutation within a committed transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Insert of a new record, keyed by its primary-key cell.
    Insert {
        /// Relation name.
        table: String,
        /// Full row of values.
        values: Vec<Value>,
    },
    /// Update of one attribute of an existing record.
    Update {
        /// Relation name.
        table: String,
        /// Primary key.
        key: u64,
        /// Column index.
        column: u32,
        /// New value.
        value: Value,
    },
}

/// One committed transaction's WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Transaction identifier (diagnostic only; replay is positional).
    pub txn_id: u64,
    /// Commit timestamp assigned by the transaction manager.
    pub commit_ts: u64,
    /// The transaction's mutations, in apply order.
    pub ops: Vec<WalOp>,
}

const TAG_INSERT: u8 = 1;
const TAG_UPDATE: u8 = 2;

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    buf.push(dtype_tag(v.data_type()));
    match v {
        Value::I64(x) => buf.extend_from_slice(&x.to_le_bytes()),
        Value::F64(x) => buf.extend_from_slice(&x.to_bits().to_le_bytes()),
        Value::I32(x) => buf.extend_from_slice(&x.to_le_bytes()),
        Value::Str(s) => put_str(buf, s),
    }
}

fn read_value(r: &mut Reader<'_>) -> Option<Value> {
    Some(match tag_dtype(r.u8()?)? {
        DataType::I64 => Value::I64(r.u64()? as i64),
        DataType::F64 => Value::F64(f64::from_bits(r.u64()?)),
        DataType::I32 => Value::I32(r.u32()? as i32),
        DataType::Str => Value::Str(r.str()?),
    })
}

impl WalRecord {
    /// Append the framed encoding of this record to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut body = Vec::with_capacity(64);
        body.extend_from_slice(&self.txn_id.to_le_bytes());
        body.extend_from_slice(&self.commit_ts.to_le_bytes());
        body.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            match op {
                WalOp::Insert { table, values } => {
                    body.push(TAG_INSERT);
                    put_str(&mut body, table);
                    body.extend_from_slice(&(values.len() as u32).to_le_bytes());
                    for v in values {
                        put_value(&mut body, v);
                    }
                }
                WalOp::Update {
                    table,
                    key,
                    column,
                    value,
                } => {
                    body.push(TAG_UPDATE);
                    put_str(&mut body, table);
                    body.extend_from_slice(&key.to_le_bytes());
                    body.extend_from_slice(&column.to_le_bytes());
                    put_value(&mut body, value);
                }
            }
        }
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        buf.extend_from_slice(&body);
    }
}

// ---------------------------------------------------------------------------
// Total (panic-free) decoding
// ---------------------------------------------------------------------------

fn decode_body(body: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(body);
    let txn_id = r.u64()?;
    let commit_ts = r.u64()?;
    let op_count = r.u32()? as usize;
    // An op is at least a tag + table length; bound op_count by what could
    // possibly fit so a corrupt count cannot cause a huge allocation.
    if op_count > body.len() {
        return None;
    }
    let mut ops = Vec::with_capacity(op_count);
    for _ in 0..op_count {
        let op = match r.u8()? {
            TAG_INSERT => {
                let table = r.str()?;
                let value_count = r.u32()? as usize;
                if value_count > body.len() {
                    return None;
                }
                let mut values = Vec::with_capacity(value_count);
                for _ in 0..value_count {
                    values.push(read_value(&mut r)?);
                }
                WalOp::Insert { table, values }
            }
            TAG_UPDATE => {
                let table = r.str()?;
                let key = r.u64()?;
                let column = r.u32()?;
                let value = read_value(&mut r)?;
                WalOp::Update {
                    table,
                    key,
                    column,
                    value,
                }
            }
            _ => return None,
        };
        ops.push(op);
    }
    // Trailing garbage inside a CRC-valid body would mean an encoder bug; be
    // strict and reject it.
    if r.pos() != body.len() {
        return None;
    }
    Some(WalRecord {
        txn_id,
        commit_ts,
        ops,
    })
}

/// The decoded content of a WAL file: its base LSN, the records of the valid
/// prefix, and where that prefix ends in the byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WalSegment {
    /// LSN of the first record in the file.
    pub base_lsn: Lsn,
    /// Records of the valid prefix, in LSN order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + intact records). Anything
    /// past this offset is a torn or corrupt tail.
    pub valid_len: usize,
}

impl WalSegment {
    /// One past the LSN of the last intact record (the LSN the next append
    /// would receive). Exclusive bounds avoid `-1` sentinels everywhere.
    pub fn end_lsn(&self) -> Lsn {
        self.base_lsn + self.records.len() as u64
    }

    /// The records of the valid prefix, each with its LSN.
    pub fn into_numbered(self) -> impl Iterator<Item = (Lsn, WalRecord)> {
        (self.base_lsn..).zip(self.records)
    }
}

/// Build the header bytes for an empty WAL starting at `base_lsn`.
pub fn encode_wal_header(base_lsn: Lsn) -> Vec<u8> {
    let mut buf = Vec::with_capacity(WAL_HEADER_LEN);
    buf.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    buf.extend_from_slice(&WAL_VERSION.to_le_bytes());
    buf.extend_from_slice(&base_lsn.to_le_bytes());
    buf
}

/// Check the file header at the reader's position; returns the base LSN and
/// leaves the reader at the first frame.
fn read_wal_header(r: &mut Reader<'_>) -> Result<Lsn, DurabilityError> {
    let truncated = || DurabilityError::corrupt("wal header truncated");
    if r.u64().ok_or_else(truncated)? != WAL_MAGIC {
        return Err(DurabilityError::corrupt("wal magic mismatch"));
    }
    let version = r.u32().ok_or_else(truncated)?;
    if version != WAL_VERSION {
        return Err(DurabilityError::corrupt(format!(
            "unsupported wal version {version}"
        )));
    }
    r.u64().ok_or_else(truncated)
}

/// The body of the frame at the reader's position, leaving the reader behind
/// it — or `None` where the valid prefix ends: the frame is incomplete, longer
/// than a record may be, or its CRC does not match.
fn read_frame<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    let len = r.u32().filter(|&len| len <= MAX_RECORD_LEN)?;
    let crc = r.u32()?;
    r.take(len as usize).filter(|body| crc32(body) == crc)
}

/// Decode a WAL file. Fails only if the header itself is missing or invalid;
/// a torn or corrupt record tail is expected after a crash and simply ends
/// the valid prefix.
pub fn decode_wal(bytes: &[u8]) -> Result<WalSegment, DurabilityError> {
    let mut r = Reader::new(bytes);
    let base_lsn = read_wal_header(&mut r)?;
    let mut records = Vec::new();
    let mut valid_len = r.pos();
    while let Some(record) = read_frame(&mut r).and_then(decode_body) {
        records.push(record);
        valid_len = r.pos();
    }
    Ok(WalSegment {
        base_lsn,
        records,
        valid_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(txn_id: u64) -> WalRecord {
        WalRecord {
            txn_id,
            commit_ts: txn_id * 10,
            ops: vec![
                WalOp::Insert {
                    table: "orders".into(),
                    values: vec![
                        Value::I64(txn_id as i64),
                        Value::F64(1.5),
                        Value::I32(-7),
                        Value::Str("pending".into()),
                    ],
                },
                WalOp::Update {
                    table: "district".into(),
                    key: 3,
                    column: 2,
                    value: Value::F64(99.25),
                },
            ],
        }
    }

    fn file_with(records: &[WalRecord], base_lsn: Lsn) -> Vec<u8> {
        let mut bytes = encode_wal_header(base_lsn);
        for r in records {
            r.encode_into(&mut bytes);
        }
        bytes
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = vec![sample(1), sample(2), sample(3)];
        let bytes = file_with(&records, 5);
        let seg = decode_wal(&bytes).unwrap();
        assert_eq!(seg.base_lsn, 5);
        assert_eq!(seg.records, records);
        assert_eq!(seg.valid_len, bytes.len());
        assert_eq!(seg.end_lsn(), 8);
        let numbered: Vec<_> = seg.into_numbered().map(|(lsn, _)| lsn).collect();
        assert_eq!(numbered, vec![5, 6, 7]);
    }

    #[test]
    fn torn_tail_ends_the_valid_prefix() {
        let records = vec![sample(1), sample(2)];
        let full = file_with(&records, 0);
        let one = file_with(&records[..1], 0);
        // Cut anywhere strictly inside the second record: only record 1 survives.
        for cut in one.len() + 1..full.len() {
            let seg = decode_wal(&full[..cut]).unwrap();
            assert_eq!(seg.records.len(), 1, "cut at {cut}");
            assert_eq!(seg.valid_len, one.len());
        }
    }

    #[test]
    fn bit_flip_is_caught_by_crc() {
        let records = vec![sample(1), sample(2)];
        let clean = file_with(&records, 0);
        let one_len = file_with(&records[..1], 0).len();
        // Flip a bit in the second record's body.
        let mut bytes = clean.clone();
        bytes[one_len + 12] ^= 0x10;
        let seg = decode_wal(&bytes).unwrap();
        assert_eq!(seg.records.len(), 1);
        assert_eq!(seg.records[0], records[0]);
    }

    #[test]
    fn header_corruption_is_an_error() {
        assert!(decode_wal(b"short").is_err());
        let mut bytes = file_with(&[sample(1)], 0);
        bytes[0] ^= 0xFF;
        assert!(decode_wal(&bytes).is_err());
    }

    #[test]
    fn a_version_1_log_is_an_unsupported_version() {
        let mut bytes = file_with(&[sample(1)], 0);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_wal(&bytes),
            Err(DurabilityError::Corrupt { detail }) if detail == "unsupported wal version 1"
        ));
    }

    #[test]
    fn empty_wal_decodes_to_no_records() {
        let bytes = encode_wal_header(42);
        let seg = decode_wal(&bytes).unwrap();
        assert_eq!(seg.base_lsn, 42);
        assert!(seg.records.is_empty());
        assert_eq!(seg.valid_len, WAL_HEADER_LEN);
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308] {
            let rec = WalRecord {
                txn_id: 1,
                commit_ts: 2,
                ops: vec![WalOp::Update {
                    table: "t".into(),
                    key: 0,
                    column: 0,
                    value: Value::F64(v),
                }],
            };
            let mut bytes = encode_wal_header(0);
            rec.encode_into(&mut bytes);
            let seg = decode_wal(&bytes).unwrap();
            match &seg.records[0].ops[0] {
                WalOp::Update {
                    value: Value::F64(got),
                    ..
                } => assert_eq!(got.to_bits(), v.to_bits()),
                other => panic!("unexpected op {other:?}"),
            }
        }
    }
}
