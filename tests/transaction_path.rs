//! The commit record of a transaction is part of the durable format: a fixed
//! `NewOrder` must log exactly the operations, in exactly the order, it did
//! before the transaction path was rebuilt around the access set — updates in
//! declaration order (a cell written twice logs twice), then inserts.

use htap_chbench::schema::keys;
use htap_chbench::NewOrderParams;
use htap_core::{HtapConfig, HtapSystem, MemStorage};
use htap_durability::{decode_wal, DurableStorage, WalOp};
use htap_oltp::WAL_FILE;
use htap_storage::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// FNV-1a over the WAL file: the file's bytes, pinned without a hash crate.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn a_fixed_new_order_logs_the_same_bytes_as_before_the_access_set() {
    let disk = MemStorage::new();
    let mut config = HtapConfig::tiny();
    config.durability.checkpoint_interval_switches = 0;
    let system = HtapSystem::build_durable(config, Arc::new(disk.clone())).unwrap();
    let oltp = system.rde().oltp();
    // Item 7 is ordered twice from the same warehouse: its stock row is
    // written by two order lines, the second reading the first's quantity.
    let params = NewOrderParams {
        w_id: 1,
        d_id: 2,
        c_id: 5,
        lines: vec![(7, 1, 3), (11, 2, 9), (7, 1, 4)],
        entry_d: 1_234,
    };

    // What the transaction will read, read up front through the same API.
    let reader = oltp.begin();
    let d_key = keys::district(params.w_id, params.d_id);
    let next_o_id = reader.read("district", d_key, 5).unwrap().as_i64();
    let mut expected = vec![WalOp::Update {
        table: "district".into(),
        key: d_key,
        column: 5,
        value: Value::I64(next_o_id + 1),
    }];
    let mut stock: BTreeMap<u64, (i32, i32)> = BTreeMap::new();
    let mut orderlines = Vec::new();
    for (number, &(i_id, supply_w, quantity)) in params.lines.iter().enumerate() {
        let s_key = keys::stock(supply_w, i_id);
        let (s_qty, order_cnt) = *stock.entry(s_key).or_insert_with(|| {
            (
                reader.read("stock", s_key, 3).unwrap().as_i32(),
                reader.read("stock", s_key, 5).unwrap().as_i32(),
            )
        });
        let new_qty = if s_qty >= quantity as i32 + 10 {
            s_qty - quantity as i32
        } else {
            s_qty - quantity as i32 + 91
        };
        stock.insert(s_key, (new_qty, order_cnt + 1));
        for (column, value) in [(3, new_qty), (5, order_cnt + 1)] {
            expected.push(WalOp::Update {
                table: "stock".into(),
                key: s_key,
                column,
                value: Value::I32(value),
            });
        }
        let price = reader.read("item", i_id, 2).unwrap().as_f64();
        let ol_key = keys::orderline(
            params.w_id,
            params.d_id,
            next_o_id as u64,
            number as u64 + 1,
        );
        orderlines.push(WalOp::Insert {
            table: "orderline".into(),
            values: vec![
                Value::I64(ol_key as i64),
                Value::I64(params.w_id as i64),
                Value::I64(params.d_id as i64),
                Value::I64(next_o_id),
                Value::I32(number as i32 + 1),
                Value::I64(i_id as i64),
                Value::I64(supply_w as i64),
                Value::I64(params.entry_d),
                Value::I32(quantity as i32),
                Value::F64(price * quantity as f64),
            ],
        });
    }
    drop(reader);
    let o_key = keys::order(params.w_id, params.d_id, next_o_id as u64);
    expected.push(WalOp::Insert {
        table: "orders".into(),
        values: vec![
            Value::I64(o_key as i64),
            Value::I64(params.w_id as i64),
            Value::I64(params.d_id as i64),
            Value::I64(next_o_id),
            Value::I64(params.c_id as i64),
            Value::I64(params.entry_d),
            Value::I32(0),
            Value::I32(params.lines.len() as i32),
        ],
    });
    expected.push(WalOp::Insert {
        table: "neworder".into(),
        values: vec![
            Value::I64(o_key as i64),
            Value::I64(params.w_id as i64),
            Value::I64(params.d_id as i64),
            Value::I64(next_o_id),
        ],
    });
    expected.extend(orderlines);

    let committed = system.txn_driver().execute_new_order(oltp, &params);
    assert_eq!(committed, Ok(o_key));

    let bytes = disk.read(WAL_FILE).unwrap().expect("the WAL exists");
    let segment = decode_wal(&bytes).unwrap();
    assert_eq!(segment.records.len(), 1, "the population is not logged");
    assert_eq!(segment.records[0].ops, expected);
    // The same bytes as the commit before the access set (one record:
    // header, transaction id, commit timestamp, operations, checksum), in
    // format version 2: that file with its version raised and the 8-byte key
    // of each of its five inserts dropped (716 bytes → 676), re-framed.
    assert_eq!(
        fnv1a(&bytes),
        18_401_298_804_137_571_461,
        "WAL bytes changed"
    );

    // Both written cells of the twice-ordered item hold the second line's values.
    let s_key = keys::stock(1, 7);
    let check = oltp.begin();
    assert_eq!(
        check.read("stock", s_key, 3).unwrap().as_i32(),
        stock[&s_key].0
    );
    assert_eq!(
        check.read("stock", s_key, 5).unwrap().as_i32(),
        stock[&s_key].1
    );
}
