//! Column-segment checkpoint format.
//!
//! A checkpoint captures the committed state of every relation at one WAL
//! position: for each table, each column as one contiguous segment in
//! row-id order (columnar, like the twin instances it is taken from). A
//! table is its columns: a row's key is its primary-key cell, and a restore
//! rebuilds the index from the key column. The whole file carries a
//! trailing CRC32 and is written with `write_atomic`, so after a crash it is
//! either entirely the old snapshot or entirely the new one — never a mix.
//!
//! `lsn` is *exclusive*: every WAL record with `record_lsn < lsn` is covered
//! by the snapshot; recovery replays only `record_lsn >= lsn`. The engine
//! takes a checkpoint of the whole log, then restarts the log at `lsn`.
//!
//! File layout:
//!
//! ```text
//! [magic u64 = "HTAPCKP1"] [version u32 = 2] [lsn u64] [last_ts u64]
//! [table_count u32]
//!   per table:
//!     [name str] [row_count u64] [col_count u32] [dtype tag u8 × col_count]
//!     per column: [values × row_count]          (fixed width or len+bytes)
//! [crc32 u32 of everything above]
//! ```
//!
//! Both directions move whole segments: the writer appends a column's slice
//! under one read guard ([`CheckpointTable::encode_into`], straight from the
//! live instance), the reader decodes a segment into an
//! [`htap_storage::Column`] a restore can range-copy into the twin
//! instances. No cell is looked at on its own. Rows are stored in row-id
//! order, so a restore reproduces the row ids the image was taken from.

use crate::codec::{dtype_tag, put_le, put_str, tag_dtype, Reader};
use crate::error::DurabilityError;
use crate::record::{crc32, Lsn};
use htap_storage::{Column, ColumnGuard, DataType};

/// Magic bytes identifying a checkpoint file.
pub const CKPT_MAGIC: u64 = u64::from_le_bytes(*b"HTAPCKP1");
/// Checkpoint format version (2: a table is its columns, with no key list).
pub const CKPT_VERSION: u32 = 2;

/// One relation's rows inside a checkpoint, stored column-segment-wise.
#[derive(Debug)]
pub struct CheckpointTable {
    /// Relation name.
    pub name: String,
    /// One segment per column, in schema order and row-id order, each
    /// [`Self::rows`] long.
    pub columns: Vec<Column>,
}

impl CheckpointTable {
    /// Rows of the relation: the length of its first segment (a decoded
    /// image's segments all have the same length).
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Append one relation to a checkpoint image opened by
    /// [`CheckpointData::begin`]: each of `columns` contributes its first
    /// `rows` rows, copied as one slice under one read guard. A column
    /// holding fewer rows is an error (and leaves the image unusable).
    pub fn encode_into(
        image: &mut Vec<u8>,
        name: &str,
        rows: u64,
        columns: &[Column],
    ) -> Result<(), DurabilityError> {
        put_str(image, name);
        image.extend_from_slice(&rows.to_le_bytes());
        image.extend_from_slice(&(columns.len() as u32).to_le_bytes());
        image.extend(columns.iter().map(|column| dtype_tag(column.dtype())));
        let rows = rows as usize;
        for (idx, column) in columns.iter().enumerate() {
            let written = match column.read_guard() {
                ColumnGuard::I64(v) => v.get(..rows).map(|v| put_le(image, v, i64::to_le_bytes)),
                ColumnGuard::F64(v) => v
                    .get(..rows)
                    .map(|v| put_le(image, v, |x| x.to_bits().to_le_bytes())),
                ColumnGuard::I32(v) => v.get(..rows).map(|v| put_le(image, v, i32::to_le_bytes)),
                ColumnGuard::Str(v) => v
                    .get(..rows)
                    .map(|v| v.iter().for_each(|s| put_str(image, s))),
            };
            written.ok_or_else(|| {
                DurabilityError::corrupt(format!(
                    "column {idx} of table {name} holds fewer than its {rows} rows"
                ))
            })?;
        }
        Ok(())
    }
}

/// A full checkpoint: every relation's committed rows as of WAL position
/// `lsn` (exclusive).
#[derive(Debug)]
pub struct CheckpointData {
    /// First WAL LSN *not* covered by this snapshot.
    pub lsn: Lsn,
    /// Highest commit timestamp contained in the snapshot; recovery advances
    /// the logical clock past it.
    pub last_ts: u64,
    /// Captured relations.
    pub tables: Vec<CheckpointTable>,
}

/// Two images are equal when their files are: the encoding is canonical, and
/// it compares `f64` cells by their bits.
impl PartialEq for CheckpointData {
    fn eq(&self, other: &Self) -> bool {
        matches!((self.encode(), other.encode()), (Ok(a), Ok(b)) if a == b)
    }
}

impl CheckpointData {
    /// Open a checkpoint image covering the WAL below `lsn`: the file header
    /// for `tables` relations, in a buffer with `capacity` bytes reserved.
    /// One [`CheckpointTable::encode_into`] per relation follows, then
    /// [`CheckpointData::seal`].
    pub fn begin(lsn: Lsn, last_ts: u64, tables: usize, capacity: usize) -> Vec<u8> {
        let mut image = Vec::with_capacity(capacity);
        image.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        image.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        image.extend_from_slice(&lsn.to_le_bytes());
        image.extend_from_slice(&last_ts.to_le_bytes());
        image.extend_from_slice(&(tables as u32).to_le_bytes());
        image
    }

    /// Close an image: append the CRC of everything written so far.
    pub fn seal(mut image: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&image);
        image.extend_from_slice(&crc.to_le_bytes());
        image
    }

    /// Serialise a decoded (or hand-built) checkpoint, including the
    /// trailing CRC.
    pub fn encode(&self) -> Result<Vec<u8>, DurabilityError> {
        let mut image = Self::begin(self.lsn, self.last_ts, self.tables.len(), 1024);
        for table in &self.tables {
            CheckpointTable::encode_into(
                &mut image,
                &table.name,
                table.rows() as u64,
                &table.columns,
            )?;
        }
        Ok(Self::seal(image))
    }

    /// Decode and CRC-verify a checkpoint file. Any structural or checksum
    /// problem is an error: a checkpoint is written atomically, so unlike a
    /// WAL tail there is no benign torn state to salvage.
    pub fn decode(bytes: &[u8]) -> Result<Self, DurabilityError> {
        let corrupt = |what: &str| DurabilityError::corrupt(format!("checkpoint: {what}"));
        let Some((payload, crc)) = bytes.split_last_chunk::<4>() else {
            return Err(corrupt("file too short"));
        };
        if crc32(payload) != u32::from_le_bytes(*crc) {
            return Err(corrupt("crc mismatch"));
        }

        let mut r = Reader::new(payload);
        if r.u64().ok_or_else(|| corrupt("truncated"))? != CKPT_MAGIC {
            return Err(corrupt("magic mismatch"));
        }
        let version = r.u32().ok_or_else(|| corrupt("truncated"))?;
        if version != CKPT_VERSION {
            return Err(corrupt("unsupported version"));
        }
        let lsn = r.u64().ok_or_else(|| corrupt("truncated"))?;
        let last_ts = r.u64().ok_or_else(|| corrupt("truncated"))?;
        let table_count = r.u32().ok_or_else(|| corrupt("truncated"))? as usize;
        if table_count > payload.len() {
            return Err(corrupt("implausible table count"));
        }
        let mut tables = Vec::with_capacity(table_count);
        for _ in 0..table_count {
            let name = r.str().ok_or_else(|| corrupt("bad table name"))?;
            let row_count = r.u64().ok_or_else(|| corrupt("truncated"))? as usize;
            let col_count = r.u32().ok_or_else(|| corrupt("truncated"))? as usize;
            if row_count > payload.len() || col_count > payload.len() {
                return Err(corrupt("implausible table shape"));
            }
            let dtypes = (0..col_count)
                .map(|_| r.u8().and_then(tag_dtype))
                .collect::<Option<Vec<DataType>>>()
                .ok_or_else(|| corrupt("bad dtype tag"))?;
            let columns = dtypes
                .into_iter()
                .map(|dtype| decode_segment(&mut r, dtype, row_count))
                .collect::<Option<Vec<Column>>>()
                .ok_or_else(|| corrupt("truncated column segment"))?;
            tables.push(CheckpointTable { name, columns });
        }
        if r.pos() != payload.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(CheckpointData {
            lsn,
            last_ts,
            tables,
        })
    }
}

/// Decode one column segment of `rows` cells straight into a column.
fn decode_segment(r: &mut Reader<'_>, dtype: DataType, rows: usize) -> Option<Column> {
    Some(match dtype {
        DataType::I64 => r.le_vec(rows, i64::from_le_bytes)?.into(),
        DataType::F64 => r
            .le_vec(rows, |le| f64::from_bits(u64::from_le_bytes(le)))?
            .into(),
        DataType::I32 => r.le_vec(rows, i32::from_le_bytes)?.into(),
        // Grows as strings are read: a bad row count cannot reserve memory.
        DataType::Str => (0..rows)
            .map(|_| r.str())
            .collect::<Option<Vec<_>>>()?
            .into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(values: &[&str]) -> Column {
        Column::from(values.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn sample() -> CheckpointData {
        CheckpointData {
            lsn: 17,
            last_ts: 432,
            tables: vec![
                CheckpointTable {
                    name: "orders".into(),
                    columns: vec![
                        Column::from(vec![3i64, 1, 7]),
                        Column::from(vec![0.5, -2.25, 1e9]),
                        strings(&["a", "", "long-ish value"]),
                    ],
                },
                CheckpointTable {
                    name: "empty".into(),
                    columns: vec![Column::new(DataType::I32)],
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let ckpt = sample();
        let bytes = ckpt.encode().unwrap();
        let decoded = CheckpointData::decode(&bytes).unwrap();
        assert_eq!(decoded, ckpt);
        assert_eq!((decoded.lsn, decoded.last_ts), (17, 432));
        let orders = &decoded.tables[0];
        assert_eq!((orders.name.as_str(), orders.rows()), ("orders", 3));
        orders.columns[0].with_i64(9, |v| assert_eq!(v, [3, 1, 7]));
        orders.columns[1].with_f64(9, |v| assert_eq!(v, [0.5, -2.25, 1e9]));
        orders.columns[2].with_str(9, |v| assert_eq!(v, ["a", "", "long-ish value"]));
        assert_eq!(decoded.tables[1].columns[0].dtype(), DataType::I32);
        assert!(decoded.tables[1].columns[0].is_empty());
        // Equality is by content, cell for cell.
        let mut other = sample();
        other.tables[0].columns[1] = Column::from(vec![0.5, -2.25, 1e9 + 1.0]);
        assert_ne!(other, ckpt);
    }

    #[test]
    fn the_streamed_image_is_the_encoded_one_and_takes_a_prefix_of_longer_columns() {
        let ckpt = sample();
        let mut image = CheckpointData::begin(17, 432, 2, 0);
        // The live columns may hold rows past the captured ones; only the
        // first `rows` are written.
        let longer = [
            Column::from(vec![3i64, 1, 7, 99]),
            Column::from(vec![0.5, -2.25, 1e9, 99.0]),
            strings(&["a", "", "long-ish value", "later"]),
        ];
        CheckpointTable::encode_into(&mut image, "orders", 3, &longer).unwrap();
        CheckpointTable::encode_into(&mut image, "empty", 0, &ckpt.tables[1].columns).unwrap();
        assert_eq!(CheckpointData::seal(image), ckpt.encode().unwrap());
    }

    #[test]
    fn a_column_shorter_than_its_keys_is_a_typed_error() {
        let mut image = CheckpointData::begin(0, 0, 1, 0);
        let short = [Column::from(vec![1i64])];
        assert!(matches!(
            CheckpointTable::encode_into(&mut image, "t", 2, &short),
            Err(DurabilityError::Corrupt { .. })
        ));
        // A key column longer than the others.
        let mut ckpt = sample();
        ckpt.tables[0].columns[0] = Column::from(vec![3i64, 1, 7, 8]);
        assert!(ckpt.encode().is_err());
    }

    #[test]
    fn any_bit_flip_is_rejected() {
        let bytes = sample().encode().unwrap();
        for pos in [0, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            assert!(
                CheckpointData::decode(&corrupt).is_err(),
                "flip at {pos} accepted"
            );
        }
    }

    #[test]
    fn a_version_1_image_is_an_unsupported_version() {
        let mut payload = sample().encode().unwrap();
        payload.truncate(payload.len() - 4);
        payload[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            CheckpointData::decode(&CheckpointData::seal(payload)),
            Err(DurabilityError::Corrupt { detail }) if detail == "checkpoint: unsupported version"
        ));
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode().unwrap();
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(CheckpointData::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn a_crc_valid_file_with_a_bad_shape_is_rejected() {
        // Re-seal after damaging the structure, so only the parser can object.
        let reseal = |mut payload: Vec<u8>| {
            payload.truncate(payload.len() - 4);
            CheckpointData::seal(payload)
        };
        let good = sample().encode().unwrap();
        assert!(CheckpointData::decode(&reseal(good.clone())).is_ok());
        // Row count of the first table (after the 32-byte header and the
        // 4 + 6 bytes of its name) raised past what the file holds.
        let mut rows = good.clone();
        rows[32 + 10] = 200;
        assert!(CheckpointData::decode(&reseal(rows)).is_err());
        // An unknown dtype tag (first tag byte follows row and column counts).
        let mut tag = good.clone();
        tag[32 + 10 + 8 + 4] = 9;
        assert!(CheckpointData::decode(&reseal(tag)).is_err());
        // Bytes after the last table.
        let mut trailing = good;
        trailing.truncate(trailing.len() - 4);
        trailing.push(0);
        assert!(CheckpointData::decode(&CheckpointData::seal(trailing)).is_err());
    }
}
