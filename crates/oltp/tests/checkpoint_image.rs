//! Model-based tests of the checkpoint image: what the quiesced window
//! writes from the live columns, and what a restore loads back, checked
//! against a plain `Vec<Vec<Value>>` of the relation's rows. The relation's
//! leading `I64` column is its primary key: the image stores no key list,
//! and a restore rebuilds the index from the key cells.

use htap_durability::{
    load_state, CheckpointData, CheckpointTable, DurabilityError, DurableStorage, MemStorage, Wal,
    WalConfig,
};
use htap_oltp::{apply_recovered, DurabilityController, OltpEngine, CHECKPOINT_FILE, WAL_FILE};
use htap_storage::{Column, ColumnDef, DataType, TableSchema, Value};
use proptest::prelude::*;
use std::sync::Arc;

const RELATION: &str = "rel";
const DTYPES: [DataType; 4] = [DataType::I64, DataType::F64, DataType::I32, DataType::Str];

/// The relation: one column per dtype, the first (an `I64`) its key.
fn schema(dtypes: &[DataType]) -> TableSchema {
    let columns = dtypes
        .iter()
        .enumerate()
        .map(|(i, &dtype)| ColumnDef::new(format!("c{i}"), dtype))
        .collect();
    TableSchema::new(RELATION, columns, Some(0))
}

/// A cell of type `dtype` made from `seed`: every bit pattern of a float
/// (NaNs, -0.0), empty and multi-byte strings.
fn cell(dtype: DataType, seed: u64) -> Value {
    match dtype {
        DataType::I64 => Value::I64(seed as i64),
        DataType::F64 => Value::F64(f64::from_bits(seed)),
        DataType::I32 => Value::I32(seed as i32),
        DataType::Str => Value::Str(match seed % 5 {
            0 => String::new(),
            1 => format!("é{seed}"),
            _ => format!("s{}", seed % 1000),
        }),
    }
}

/// Bit-exact equality (`F64` by bits: NaN equals itself, 0.0 is not -0.0).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// An engine with the one relation, logging to and checkpointing on `disk`.
fn durable_engine(disk: &MemStorage, dtypes: &[DataType]) -> OltpEngine {
    let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
    let (wal, _) = Wal::open(Arc::clone(&storage), WAL_FILE, WalConfig::default()).unwrap();
    let engine = OltpEngine::new();
    engine.create_table(schema(dtypes)).unwrap();
    engine.attach_durability(Arc::new(DurabilityController::new(storage, wal, 0)));
    engine
}

/// Reopen `disk` into a fresh engine with the relation created empty.
fn restore(disk: &MemStorage, dtypes: &[DataType]) -> Result<OltpEngine, DurabilityError> {
    let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
    let (_wal, log) = Wal::open(Arc::clone(&storage), WAL_FILE, WalConfig::default())?;
    let state = load_state(storage.as_ref(), log, CHECKPOINT_FILE)?;
    let engine = OltpEngine::new();
    engine.create_table(schema(dtypes)).unwrap();
    apply_recovered(&engine, &state)?;
    Ok(engine)
}

/// Every cell of the model is on both twin instances at the row its key
/// points at, and the relation looks freshly loaded: no update bit, column
/// flag or presence flag set, nothing propagated to the OLAP instance.
fn assert_restored(engine: &OltpEngine, keys: &[u64], rows: &[Vec<Value>], same_row_ids: bool) {
    let rt = engine.table(RELATION).unwrap();
    assert_eq!(rt.twin().row_count(), rows.len() as u64);
    assert_eq!(rt.index().len(), rows.len());
    for (i, (key, row)) in keys.iter().zip(rows).enumerate() {
        let at = rt.index().get(*key).expect("key restored").row;
        if same_row_ids {
            assert_eq!(at, i as u64, "key {key} moved");
        }
        for (c, expected) in row.iter().enumerate() {
            for instance in 0..2 {
                let got = rt.twin().get_from(instance, at, c).unwrap();
                assert!(
                    same(&got, expected),
                    "key {key} column {c} instance {instance}: {got:?} != {expected:?}"
                );
            }
        }
    }
    assert!(!rt.twin().update_presence().is_set());
    assert_eq!(rt.twin().olap_synced_rows(), 0);
    for instance in 0..2 {
        let table = rt.twin().instance(instance);
        assert_eq!(table.row_count(), rows.len() as u64);
        for c in 0..table.schema().arity() {
            assert!(!table.column_stats(c).is_updated());
            assert_eq!(table.column(c).len(), rows.len());
        }
    }
}

/// Load the model through the engine, overwrite some cells on the active
/// instance only (so the two instances differ when the image is taken),
/// checkpoint, and check the file and two restores of it against the model.
/// The relation's key column comes first, then one column per `cells` type.
fn check_image(cells: &[DataType], seeds: &[u64], switches: usize, updates: &[(u64, u64, u64)]) {
    let (arity, dtypes) = (cells.len(), &[&[DataType::I64], cells].concat());
    // Distinct, in no order: row ids and key order have nothing in common.
    let keys: Vec<u64> = (0..(seeds.len() / arity) as u64)
        .map(|i| (seeds[i as usize * arity].wrapping_mul(0x9E37_79B9) << 8) | i)
        .collect();
    let mut rows: Vec<Vec<Value>> = seeds
        .chunks_exact(arity)
        .zip(&keys)
        .map(|(chunk, &key)| {
            let cells = chunk
                .iter()
                .zip(cells)
                .map(|(&seed, &dtype)| cell(dtype, seed));
            std::iter::once(Value::I64(key as i64))
                .chain(cells)
                .collect()
        })
        .collect();

    let disk = MemStorage::new();
    let engine = durable_engine(&disk, dtypes);
    for row in &rows {
        engine.bulk_load(RELATION, row.clone()).unwrap();
    }
    for _ in 0..switches {
        engine.switch_and_sync_instances();
    }
    if !rows.is_empty() {
        for &(row, column, seed) in updates {
            // Any column but the key, which no update may change.
            let (row, column) = (row as usize % rows.len(), 1 + column as usize % arity);
            let value = cell(dtypes[column], seed);
            rows[row][column] = value.clone();
            engine.execute(|mut txn| {
                txn.update(RELATION, keys[row], column, value).unwrap();
                txn.commit().unwrap();
            });
        }
    }
    assert!(engine.checkpoint_now().unwrap());

    // The file: one segment per column, the key column's too, in row-id order.
    let image = CheckpointData::decode(&disk.bytes(CHECKPOINT_FILE).unwrap()).unwrap();
    let [table] = image.tables.as_slice() else {
        panic!("one relation, {} in the image", image.tables.len());
    };
    assert_eq!((table.name.as_str(), table.rows()), (RELATION, rows.len()));
    let segment_types: Vec<_> = table.columns.iter().map(Column::dtype).collect();
    assert_eq!(&segment_types, dtypes);
    for (c, segment) in table.columns.iter().enumerate() {
        assert_eq!(segment.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert!(
                same(&segment.get(i).unwrap(), &row[c]),
                "row {i} column {c}"
            );
        }
    }

    // A restore reproduces the relation, row ids included.
    assert_restored(&restore(&disk, dtypes).unwrap(), &keys, &rows, true);

    // A file whose rows are stored in another order — what a checkpoint of
    // the parent, written in key order, looks like — restores the same
    // records under the same keys.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    let shuffled = CheckpointData {
        lsn: image.lsn,
        last_ts: image.last_ts,
        tables: vec![CheckpointTable {
            name: RELATION.into(),
            columns: dtypes
                .iter()
                .enumerate()
                .map(|(c, &dtype)| {
                    let column = Column::new(dtype);
                    column.append_each(order.iter().map(|&i| &rows[i][c]));
                    column
                })
                .collect(),
        }],
    };
    let old_disk = MemStorage::new();
    old_disk.set_bytes(CHECKPOINT_FILE, shuffled.encode().unwrap());
    let by_key: Vec<u64> = order.iter().map(|&i| keys[i]).collect();
    let rows_by_key: Vec<Vec<Value>> = order.iter().map(|&i| rows[i].clone()).collect();
    // Row ids follow the file's order, the keys address the same records.
    assert_restored(
        &restore(&old_disk, dtypes).unwrap(),
        &by_key,
        &rows_by_key,
        true,
    );
    assert_restored(&restore(&old_disk, dtypes).unwrap(), &keys, &rows, false);
}

proptest! {
    #[test]
    fn image_round_trips_through_the_engine_against_a_row_model(
        dtypes in prop::collection::vec(0usize..4, 1..6),
        seeds in prop::collection::vec(any::<u64>(), 0..200),
        switches in 0usize..3,
        updates in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..10),
    ) {
        let dtypes: Vec<DataType> = dtypes.into_iter().map(|i| DTYPES[i]).collect();
        check_image(&dtypes, &seeds, switches, &updates);
    }
}

#[test]
fn all_four_dtypes_and_an_empty_relation_round_trip() {
    let seeds: Vec<u64> = (0..40u64)
        .map(|i| i.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .collect();
    check_image(
        &DTYPES,
        &seeds,
        1,
        &[(3, 3, 5), (3, 1, u64::MAX), (0, 0, 0)],
    );
    check_image(&DTYPES, &[], 0, &[(1, 1, 1)]);
    check_image(&[DataType::Str], &[], 2, &[]);
}

#[test]
fn an_image_that_disagrees_with_the_live_schema_is_a_typed_error() {
    let written = [DataType::I64, DataType::F64, DataType::Str];
    let disk = MemStorage::new();
    let engine = durable_engine(&disk, &written);
    let row = vec![Value::I64(1), Value::F64(1.0), Value::from("a")];
    engine.bulk_load(RELATION, row).unwrap();
    assert!(engine.checkpoint_now().unwrap());
    assert!(restore(&disk, &written).is_ok());
    for live in [
        &[DataType::I64, DataType::I64, DataType::Str][..],
        &[DataType::I64, DataType::F64][..],
        &[DataType::I64, DataType::F64, DataType::Str, DataType::I32][..],
    ] {
        assert!(
            matches!(restore(&disk, live), Err(DurabilityError::Corrupt { .. })),
            "restored into {live:?}"
        );
    }
}

/// Two rows with one key cell: an image can say so (it stores no key list
/// to contradict it), and its CRC is valid. The restore publishes the key
/// column and counts the keys it got, so it refuses the image.
#[test]
fn a_row_without_exactly_one_key_is_a_typed_error() {
    let dtypes = [DataType::I64, DataType::I32];
    let disk = MemStorage::new();
    let engine = durable_engine(&disk, &dtypes);
    for key in [7, 8, 9] {
        engine
            .bulk_load(RELATION, vec![Value::I64(key), Value::I32(key as i32)])
            .unwrap();
    }
    assert!(engine.checkpoint_now().unwrap());
    assert!(restore(&disk, &dtypes).is_ok());

    let mut image = CheckpointData::decode(&disk.bytes(CHECKPOINT_FILE).unwrap()).unwrap();
    image.tables[0].columns[0] = Column::from(vec![7i64, 9, 7]);
    disk.set_bytes(CHECKPOINT_FILE, image.encode().unwrap());
    assert!(CheckpointData::decode(&disk.bytes(CHECKPOINT_FILE).unwrap()).is_ok());
    assert!(matches!(
        restore(&disk, &dtypes),
        Err(DurabilityError::Corrupt { detail }) if detail.contains("2 distinct keys in 3 rows")
    ));
}
