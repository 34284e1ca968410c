//! Recovery: load the latest checkpoint plus the WAL tail past it.
//!
//! This module only *reads and validates* durable state; applying it to the
//! engine (recreating tables, restoring rows, replaying records through the
//! normal twin-table insert/update path) belongs to the OLTP crate, which
//! owns those structures.

use crate::checkpoint::CheckpointData;
use crate::error::DurabilityError;
use crate::file::DurableStorage;
use crate::record::{Lsn, WalRecord, WalSegment};

/// Everything recovery found on the durable medium.
#[derive(Debug)]
pub struct RecoveredState {
    /// The latest checkpoint, if one was ever written.
    pub checkpoint: Option<CheckpointData>,
    /// Intact WAL records not covered by the checkpoint, in LSN order.
    pub tail: Vec<(Lsn, WalRecord)>,
    /// Highest commit timestamp anywhere in the recovered state; the logical
    /// clock must be advanced past it before new commits are accepted.
    pub last_commit_ts: u64,
}

/// Read and validate the checkpoint `ckpt_name` and put it together with
/// `wal`, the decoded log [`crate::Wal::open`] returned (so the WAL file is
/// read and decoded once per reopen, and its records move into the state).
///
/// * An empty WAL and a missing checkpoint is a fresh start (empty state).
/// * A torn or corrupt WAL *tail* is expected after a crash: `wal` is the
///   valid prefix, and opening the WAL cut the rest off the file.
/// * A corrupt checkpoint, or a WAL whose base LSN lies beyond what the
///   checkpoint covers (the log restarted ahead of the snapshot — records
///   irrecoverably lost) is a hard error.
pub fn load_state(
    storage: &dyn DurableStorage,
    wal: WalSegment,
    ckpt_name: &str,
) -> Result<RecoveredState, DurabilityError> {
    let checkpoint = match storage.read(ckpt_name)? {
        Some(bytes) => Some(CheckpointData::decode(&bytes)?),
        None => None,
    };
    let covered_to: Lsn = checkpoint.as_ref().map_or(0, |c| c.lsn);
    if wal.base_lsn > covered_to {
        return Err(DurabilityError::corrupt(format!(
            "wal starts at lsn {} but checkpoint covers only up to {}",
            wal.base_lsn, covered_to
        )));
    }
    let tail: Vec<(Lsn, WalRecord)> = wal
        .into_numbered()
        .skip_while(|(lsn, _)| *lsn < covered_to)
        .collect();
    let last_commit_ts = tail
        .iter()
        .map(|(_, record)| record.commit_ts)
        .fold(checkpoint.as_ref().map_or(0, |c| c.last_ts), u64::max);
    Ok(RecoveredState {
        checkpoint,
        tail,
        last_commit_ts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointTable;
    use crate::file::MemStorage;
    use crate::record::{decode_wal, encode_wal_header, WalOp};
    use htap_storage::{Column, Value};

    fn rec(txn_id: u64, commit_ts: u64) -> WalRecord {
        WalRecord {
            txn_id,
            commit_ts,
            ops: vec![WalOp::Insert {
                table: "t".into(),
                values: vec![Value::I64(txn_id as i64)],
            }],
        }
    }

    fn wal_bytes(base: Lsn, records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = encode_wal_header(base);
        for r in records {
            r.encode_into(&mut bytes);
        }
        bytes
    }

    fn wal(base: Lsn, records: &[WalRecord]) -> WalSegment {
        decode_wal(&wal_bytes(base, records)).unwrap()
    }

    fn ckpt(lsn: Lsn, last_ts: u64) -> CheckpointData {
        CheckpointData {
            lsn,
            last_ts,
            tables: vec![CheckpointTable {
                name: "t".into(),
                columns: vec![Column::from(vec![1i64])],
            }],
        }
    }

    #[test]
    fn fresh_start_is_empty() {
        let mem = MemStorage::new();
        let st = load_state(&mem, wal(0, &[]), "ckpt").unwrap();
        assert!(st.checkpoint.is_none());
        assert!(st.tail.is_empty());
        assert_eq!(st.last_commit_ts, 0);
    }

    #[test]
    fn wal_only_recovery_returns_full_tail() {
        let mem = MemStorage::new();
        let records = vec![rec(1, 10), rec(2, 12), rec(3, 11)];
        let st = load_state(&mem, wal(0, &records), "ckpt").unwrap();
        assert!(st.checkpoint.is_none());
        assert_eq!(st.tail.len(), 3);
        assert_eq!(st.tail[0], (0, records[0].clone()));
        assert_eq!(st.last_commit_ts, 12);
    }

    #[test]
    fn checkpoint_filters_covered_records() {
        let mem = MemStorage::new();
        // WAL holds lsns 0..4; checkpoint covers < 2.
        let log = wal(0, &[rec(1, 10), rec(2, 11), rec(3, 12), rec(4, 13)]);
        mem.set_bytes("ckpt", ckpt(2, 11).encode().unwrap());
        let st = load_state(&mem, log, "ckpt").unwrap();
        assert_eq!(st.tail.len(), 2);
        assert_eq!(st.tail[0].0, 2);
        assert_eq!(st.last_commit_ts, 13);
    }

    #[test]
    fn truncated_wal_with_checkpoint_base_matches() {
        let mem = MemStorage::new();
        // After a restart the WAL starts exactly at the checkpoint lsn.
        mem.set_bytes("ckpt", ckpt(2, 11).encode().unwrap());
        let st = load_state(&mem, wal(2, &[rec(3, 12)]), "ckpt").unwrap();
        assert_eq!(st.tail.len(), 1);
        assert_eq!(st.tail[0].0, 2);
    }

    #[test]
    fn torn_tail_is_discarded_and_reported() {
        let mem = MemStorage::new();
        let mut bytes = wal_bytes(0, &[rec(1, 10), rec(2, 11)]);
        bytes.truncate(bytes.len() - 5);
        // The decoded segment is the valid prefix and says where it ends.
        let log = decode_wal(&bytes).unwrap();
        assert!(log.valid_len < bytes.len());
        assert_eq!(log.valid_len, wal_bytes(0, &[rec(1, 10)]).len());
        let st = load_state(&mem, log, "ckpt").unwrap();
        assert_eq!(st.tail.len(), 1);
        assert_eq!(st.last_commit_ts, 10);
    }

    #[test]
    fn wal_ahead_of_checkpoint_is_a_hard_error() {
        let mem = MemStorage::new();
        mem.set_bytes("ckpt", ckpt(2, 11).encode().unwrap());
        assert!(load_state(&mem, wal(5, &[rec(6, 20)]), "ckpt").is_err());
        // Without any checkpoint the same WAL is also unrecoverable.
        let bare = MemStorage::new();
        assert!(load_state(&bare, wal(5, &[rec(6, 20)]), "ckpt").is_err());
    }

    #[test]
    fn corrupt_checkpoint_is_a_hard_error() {
        let mem = MemStorage::new();
        let mut bytes = ckpt(2, 11).encode().unwrap();
        bytes[10] ^= 0xFF;
        mem.set_bytes("ckpt", bytes);
        assert!(load_state(&mem, wal(0, &[]), "ckpt").is_err());
    }
}
