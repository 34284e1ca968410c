//! Property tests over random WAL byte corpora: decoding must be total
//! (never panic) and must recover exactly the valid record prefix under
//! truncation at every offset and under arbitrary bit flips.

use htap_durability::{decode_wal, encode_wal_header, CheckpointData, WalOp, WalRecord};
use htap_storage::Value;
use proptest::prelude::*;

fn arb_string(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(97u8..123, 1..max_len)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as char).collect::<String>())
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::I64).boxed(),
        any::<u64>()
            .prop_map(|b| Value::F64(f64::from_bits(b)))
            .boxed(),
        any::<i32>().prop_map(Value::I32).boxed(),
        arb_string(24).prop_map(Value::Str).boxed(),
    ]
}

fn arb_op() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        // A row: its leading key cell, then any cells.
        (
            arb_string(12),
            any::<i64>(),
            prop::collection::vec(arb_value(), 0..5)
        )
            .prop_map(|(table, key, cells)| WalOp::Insert {
                table,
                values: std::iter::once(Value::I64(key)).chain(cells).collect(),
            })
            .boxed(),
        (arb_string(12), any::<u64>(), any::<u32>(), arb_value())
            .prop_map(|(table, key, column, value)| WalOp::Update {
                table,
                key,
                column,
                value,
            })
            .boxed(),
    ]
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(arb_op(), 0..5),
    )
        .prop_map(|(txn_id, commit_ts, ops)| WalRecord {
            txn_id,
            commit_ts,
            ops,
        })
}

fn encode_file(base_lsn: u64, records: &[WalRecord]) -> Vec<u8> {
    let mut bytes = encode_wal_header(base_lsn);
    for r in records {
        r.encode_into(&mut bytes);
    }
    bytes
}

/// Byte offsets where each record's frame ends (= valid prefix lengths).
fn record_boundaries(base_lsn: u64, records: &[WalRecord]) -> Vec<usize> {
    let mut out = Vec::with_capacity(records.len() + 1);
    let mut bytes = encode_wal_header(base_lsn);
    out.push(bytes.len());
    for r in records {
        r.encode_into(&mut bytes);
        out.push(bytes.len());
    }
    out
}

proptest! {
    /// Truncation at EVERY byte offset: decode never panics and recovers
    /// exactly the records whose frames fit entirely inside the cut.
    #[test]
    fn truncation_at_every_offset_recovers_exact_prefix(
        records in prop::collection::vec(arb_record(), 1..4),
        base_lsn in 0u64..1000,
    ) {
        let bytes = encode_file(base_lsn, &records);
        let boundaries = record_boundaries(base_lsn, &records);
        for cut in 0..=bytes.len() {
            let truncated = &bytes[..cut];
            match decode_wal(truncated) {
                Ok(seg) => {
                    // How many whole records fit within `cut` bytes.
                    let expect = boundaries.iter().skip(1).filter(|&&b| b <= cut).count();
                    prop_assert_eq!(seg.records.len(), expect, "cut at {}", cut);
                    prop_assert_eq!(&seg.records[..], &records[..expect]);
                    prop_assert_eq!(seg.base_lsn, base_lsn);
                    prop_assert_eq!(seg.valid_len, boundaries[expect]);
                }
                Err(_) => {
                    // Only a damaged header may fail outright.
                    prop_assert!(cut < boundaries[0], "body cut at {cut} must not error");
                }
            }
        }
    }

    /// A single bit flip anywhere: decoding never panics, and any record
    /// that lies wholly before the flipped byte still decodes intact.
    #[test]
    fn bit_flip_anywhere_never_panics(
        records in prop::collection::vec(arb_record(), 1..4),
        flip_pos in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        let clean = encode_file(0, &records);
        let boundaries = record_boundaries(0, &records);
        let pos = (flip_pos % clean.len() as u64) as usize;
        let mut bytes = clean.clone();
        bytes[pos] ^= 1 << flip_bit;

        match decode_wal(&bytes) {
            Ok(seg) => {
                // Records wholly before the flipped byte must survive intact.
                let untouched = boundaries.iter().skip(1).filter(|&&b| b <= pos).count();
                prop_assert!(seg.records.len() >= untouched);
                prop_assert_eq!(&seg.records[..untouched], &records[..untouched]);
            }
            Err(_) => {
                // Hard errors only come from the header.
                prop_assert!(pos < boundaries[0]);
            }
        }
    }

    /// Fully random garbage: decode is total for both WAL and checkpoint.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = decode_wal(&bytes);
        let _ = CheckpointData::decode(&bytes);
    }

    /// Garbage appended after a valid prefix: the prefix is recovered
    /// exactly, the garbage discarded.
    #[test]
    fn garbage_tail_recovers_valid_prefix(
        records in prop::collection::vec(arb_record(), 1..4),
        garbage in prop::collection::vec(any::<u8>(), 1..256),
    ) {
        let clean = encode_file(0, &records);
        let mut bytes = clean.clone();
        bytes.extend_from_slice(&garbage);
        let seg = decode_wal(&bytes).unwrap();
        // The garbage could, with astronomically small probability, parse as
        // further valid CRC-framed records; require at least the prefix.
        prop_assert!(seg.records.len() >= records.len());
        prop_assert_eq!(&seg.records[..records.len()], &records[..]);
        prop_assert!(seg.valid_len >= clean.len());
    }

    /// Checkpoint round trip plus rejection of every single-bit corruption
    /// at a sampled offset, over a relation of one key column.
    #[test]
    fn checkpoint_round_trip_and_corruption(
        lsn in any::<u64>(),
        last_ts in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 0..16),
        flip_pos in any::<u64>(),
    ) {
        let cells = keys.iter().map(|&k| k as i64).collect::<Vec<_>>();
        let columns = vec![htap_storage::Column::from(cells)];
        let ckpt = CheckpointData {
            lsn,
            last_ts,
            tables: vec![htap_durability::CheckpointTable {
                name: "t".to_string(),
                columns,
            }],
        };
        let bytes = ckpt.encode().unwrap();
        prop_assert_eq!(CheckpointData::decode(&bytes).unwrap(), ckpt);
        let mut corrupt = bytes.clone();
        let pos = (flip_pos % bytes.len() as u64) as usize;
        corrupt[pos] ^= 0x04;
        prop_assert!(CheckpointData::decode(&corrupt).is_err());
    }
}
