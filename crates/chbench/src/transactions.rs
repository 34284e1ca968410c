//! The transactional side of the CH-benCHmark: TPC-C `NewOrder` (the
//! transaction the paper's OLTP workers run), `Payment`, `Delivery` and
//! `StockLevel`.
//!
//! Each worker owns one warehouse ("we assign one warehouse to every worker
//! thread, which generates and executes transactions simulating a complete
//! transactional queue", §5.1). Transactions run through the OLTP engine's
//! MV2PL transaction manager; conflicts abort and are retried by the caller
//! (or merely counted, in the continuous ingest pool).
//!
//! `Delivery` adaptations to the key-addressed storage: TPC-C finds the
//! oldest undelivered order by scanning `neworder`; the engine's transaction
//! API is primary-key-only, so the driver keeps a per-district delivery
//! cursor starting at [`crate::generator::INITIAL_NEXT_O_ID`] — exactly the
//! order ids `NewOrder` hands out — and delivers them in id order. The
//! engine has no delete, so the delivered `neworder` row stays (its order is
//! marked delivered via `o_carrier_id`). A delivery finding no undelivered
//! order commits empty and is counted under `deliveries_skipped`, as TPC-C
//! asks skipped deliveries to be reported.

use crate::generator::INITIAL_NEXT_O_ID;
use crate::schema::keys;
use htap_oltp::{OltpEngine, TxnError};
use htap_storage::Value;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First date value the `Delivery` transaction stamps into `ol_delivery_d`.
/// Order-entry dates (generator and `NewOrder`) stay strictly below this, so
/// `ol_delivery_d >= DELIVERY_DATE_BASE` identifies exactly the delivered
/// order lines (CH-Q12 relies on this to watch deliveries happen).
pub const DELIVERY_DATE_BASE: i64 = 3_000;

/// Parameters of one `NewOrder` transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct NewOrderParams {
    /// Warehouse the ordering customer belongs to (the worker's warehouse).
    pub w_id: u64,
    /// District of the customer.
    pub d_id: u64,
    /// Customer id.
    pub c_id: u64,
    /// Items ordered: `(item id, supplying warehouse, quantity)`.
    pub lines: Vec<(u64, u64, u32)>,
    /// Entry date of the order.
    pub entry_d: i64,
}

/// Aggregate statistics of a transaction driver.
#[derive(Debug, Default)]
pub struct TxnStats {
    committed: AtomicU64,
    aborted: AtomicU64,
    orderlines_inserted: AtomicU64,
    orders_delivered: AtomicU64,
    deliveries_skipped: AtomicU64,
    stock_levels_checked: AtomicU64,
}

impl TxnStats {
    /// Committed transactions.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Aborted transactions.
    pub fn aborted(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Order lines inserted by committed transactions.
    pub fn orderlines_inserted(&self) -> u64 {
        self.orderlines_inserted.load(Ordering::Relaxed)
    }

    /// Orders delivered by committed `Delivery` transactions.
    pub fn orders_delivered(&self) -> u64 {
        self.orders_delivered.load(Ordering::Relaxed)
    }

    /// `Delivery` transactions that found no undelivered order (committed
    /// empty; TPC-C requires skipped deliveries to be reported).
    pub fn deliveries_skipped(&self) -> u64 {
        self.deliveries_skipped.load(Ordering::Relaxed)
    }

    /// Committed `StockLevel` transactions (read-only).
    pub fn stock_levels_checked(&self) -> u64 {
        self.stock_levels_checked.load(Ordering::Relaxed)
    }
}

/// Generates and executes CH-benCHmark transactions against an OLTP engine.
#[derive(Debug)]
pub struct TransactionDriver {
    warehouses: u64,
    districts_per_warehouse: u64,
    customers_per_district: u64,
    items: u64,
    stats: TxnStats,
    /// Per-district delivery cursors: the next order id to deliver, keyed by
    /// the encoded district key. The outer map lock is held only to fetch a
    /// district's cursor cell; the cell's own lock is held across that
    /// district's delivery so concurrent deliveries of one district cannot
    /// double-deliver (an aborted delivery leaves its order for the next
    /// attempt) while deliveries to *different* districts stay concurrent.
    delivery_cursors: Mutex<BTreeMap<u64, Arc<Mutex<u64>>>>,
}

impl TransactionDriver {
    /// Driver for a database generated with the given dimensions.
    pub fn new(
        warehouses: u64,
        districts_per_warehouse: u64,
        customers_per_district: u64,
        items: u64,
    ) -> Self {
        TransactionDriver {
            warehouses,
            districts_per_warehouse,
            customers_per_district,
            items,
            stats: TxnStats::default(),
            delivery_cursors: Mutex::new(BTreeMap::new()),
        }
    }

    /// Driver matching a generator configuration.
    pub fn for_config(config: &crate::generator::ChConfig) -> Self {
        Self::new(
            config.warehouses,
            config.districts_per_warehouse,
            config.customers_per_district,
            config.items,
        )
    }

    /// Execution statistics.
    pub fn stats(&self) -> &TxnStats {
        &self.stats
    }

    /// Generate the parameters of a `NewOrder` transaction for a worker bound
    /// to `w_id` (5–15 order lines, per the TPC-C specification).
    pub fn generate_new_order(&self, w_id: u64, rng: &mut StdRng) -> NewOrderParams {
        let d_id = rng.random_range(1..=self.districts_per_warehouse);
        let c_id = rng.random_range(1..=self.customers_per_district);
        let n_lines = rng.random_range(5..=15usize);
        let lines = (0..n_lines)
            .map(|_| {
                let item = rng.random_range(1..=self.items);
                // 1% remote warehouse, as in TPC-C.
                let supply_w = if self.warehouses > 1 && rng.random_range(0..100) == 0 {
                    1 + (w_id % self.warehouses)
                } else {
                    w_id
                };
                (item, supply_w, rng.random_range(1..=10u32))
            })
            .collect();
        NewOrderParams {
            w_id,
            d_id,
            c_id,
            lines,
            entry_d: rng.random_range(1_000..3_000),
        }
    }

    /// Execute one `NewOrder` transaction. Returns `Ok(order_key)` on commit.
    pub fn execute_new_order(
        &self,
        engine: &OltpEngine,
        params: &NewOrderParams,
    ) -> Result<u64, TxnError> {
        let result = engine.execute(|mut txn| -> Result<u64, TxnError> {
            let (district, orders, neworder) = (
                txn.table("district")?,
                txn.table("orders")?,
                txn.table("neworder")?,
            );
            let (item, stock, orderline) = (
                txn.table("item")?,
                txn.table("stock")?,
                txn.table("orderline")?,
            );
            // Read and bump the district's next order id (contended hot spot).
            let d_row = txn.lock(district, keys::district(params.w_id, params.d_id))?;
            let next_o_id = txn.get(d_row, 5)?.as_i64() as u64;
            txn.set(d_row, 5, Value::I64(next_o_id as i64 + 1))?;

            let o_key = keys::order(params.w_id, params.d_id, next_o_id);
            txn.insert_at(
                orders,
                vec![
                    Value::I64(o_key as i64),
                    Value::I64(params.w_id as i64),
                    Value::I64(params.d_id as i64),
                    Value::I64(next_o_id as i64),
                    Value::I64(params.c_id as i64),
                    Value::I64(params.entry_d),
                    Value::I32(0),
                    Value::I32(params.lines.len() as i32),
                ],
            )?;
            let no_key = keys::neworder(params.w_id, params.d_id, next_o_id);
            txn.insert_at(
                neworder,
                vec![
                    Value::I64(no_key as i64),
                    Value::I64(params.w_id as i64),
                    Value::I64(params.d_id as i64),
                    Value::I64(next_o_id as i64),
                ],
            )?;

            for (number, &(i_id, supply_w, quantity)) in params.lines.iter().enumerate() {
                // Item price lookup (read-only).
                let price = txn.read_at(item, i_id, 2)?.as_f64();
                // Stock update: one handle for the record's four accesses.
                let s_row = txn.lock(stock, keys::stock(supply_w, i_id))?;
                let s_qty = txn.get(s_row, 3)?.as_i32();
                let new_qty = if s_qty >= quantity as i32 + 10 {
                    s_qty - quantity as i32
                } else {
                    s_qty - quantity as i32 + 91
                };
                txn.set(s_row, 3, Value::I32(new_qty))?;
                let order_cnt = txn.get(s_row, 5)?.as_i32();
                txn.set(s_row, 5, Value::I32(order_cnt + 1))?;

                let ol_key =
                    keys::orderline(params.w_id, params.d_id, next_o_id, number as u64 + 1);
                txn.insert_at(
                    orderline,
                    vec![
                        Value::I64(ol_key as i64),
                        Value::I64(params.w_id as i64),
                        Value::I64(params.d_id as i64),
                        Value::I64(next_o_id as i64),
                        Value::I32(number as i32 + 1),
                        Value::I64(i_id as i64),
                        Value::I64(supply_w as i64),
                        Value::I64(params.entry_d),
                        Value::I32(quantity as i32),
                        Value::F64(price * quantity as f64),
                    ],
                )?;
            }
            let lines = params.lines.len() as u64;
            txn.commit()?;
            self.stats
                .orderlines_inserted
                .fetch_add(lines, Ordering::Relaxed);
            Ok(o_key)
        });
        match &result {
            Ok(_) => {
                self.stats.committed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.stats.aborted.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Execute one `Payment` transaction: add to warehouse/district YTD and
    /// the customer's balance.
    pub fn execute_payment(
        &self,
        engine: &OltpEngine,
        w_id: u64,
        d_id: u64,
        c_id: u64,
        amount: f64,
    ) -> Result<(), TxnError> {
        let result = engine.execute(|mut txn| -> Result<(), TxnError> {
            let (warehouse, district, customer) = (
                txn.table("warehouse")?,
                txn.table("district")?,
                txn.table("customer")?,
            );
            let w_row = txn.lock(warehouse, w_id)?;
            let w_ytd = txn.get(w_row, 2)?.as_f64();
            txn.set(w_row, 2, Value::F64(w_ytd + amount))?;
            let d_row = txn.lock(district, keys::district(w_id, d_id))?;
            let d_ytd = txn.get(d_row, 4)?.as_f64();
            txn.set(d_row, 4, Value::F64(d_ytd + amount))?;
            let c_row = txn.lock(customer, keys::customer(w_id, d_id, c_id))?;
            let balance = txn.get(c_row, 4)?.as_f64();
            txn.set(c_row, 4, Value::F64(balance - amount))?;
            let cnt = txn.get(c_row, 6)?.as_i32();
            txn.set(c_row, 6, Value::I32(cnt + 1))?;
            txn.commit()?;
            Ok(())
        });
        match &result {
            Ok(()) => {
                self.stats.committed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.stats.aborted.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Execute one `Delivery` transaction for one district: deliver the
    /// oldest undelivered order (per the driver's delivery cursor), stamping
    /// `o_carrier_id` and the lines' `ol_delivery_d`, and crediting the
    /// order's amount to the customer. Returns `Ok(true)` when an order was
    /// delivered, `Ok(false)` when the district had no undelivered order
    /// (the transaction still commits, counted under `deliveries_skipped`).
    pub fn execute_delivery(
        &self,
        engine: &OltpEngine,
        w_id: u64,
        d_id: u64,
        carrier_id: i32,
        delivery_d: i64,
    ) -> Result<bool, TxnError> {
        let d_key = keys::district(w_id, d_id);
        let cursor_cell = {
            let mut cursors = self.delivery_cursors.lock();
            Arc::clone(
                cursors
                    .entry(d_key)
                    .or_insert_with(|| Arc::new(Mutex::new(INITIAL_NEXT_O_ID))),
            )
        };
        let mut cursor = cursor_cell.lock();
        let o_id = *cursor;
        let result = engine.execute(|mut txn| -> Result<bool, TxnError> {
            let district = txn.table("district")?;
            let next_o_id = txn.read_at(district, d_key, 5)?.as_i64() as u64;
            if o_id >= next_o_id {
                // Nothing to deliver; commit empty (skipped delivery).
                txn.commit()?;
                return Ok(false);
            }
            let (orders, orderline, customer) = (
                txn.table("orders")?,
                txn.table("orderline")?,
                txn.table("customer")?,
            );
            let o_key = keys::order(w_id, d_id, o_id);
            let o_c_id = txn.read_at(orders, o_key, 4)?.as_i64() as u64;
            let ol_cnt = txn.read_at(orders, o_key, 7)?.as_i32();
            let o_row = txn.lock(orders, o_key)?;
            txn.set(o_row, 6, Value::I32(carrier_id))?;
            let mut amount_sum = 0.0;
            for number in 1..=ol_cnt as u64 {
                let ol_key = keys::orderline(w_id, d_id, o_id, number);
                amount_sum += txn.read_at(orderline, ol_key, 9)?.as_f64();
                let ol_row = txn.lock(orderline, ol_key)?;
                txn.set(ol_row, 7, Value::I64(delivery_d))?;
            }
            let c_row = txn.lock(customer, keys::customer(w_id, d_id, o_c_id))?;
            let balance = txn.get(c_row, 4)?.as_f64();
            txn.set(c_row, 4, Value::F64(balance + amount_sum))?;
            let deliveries = txn.get(c_row, 7)?.as_i32();
            txn.set(c_row, 7, Value::I32(deliveries + 1))?;
            txn.commit()?;
            Ok(true)
        });
        match &result {
            Ok(delivered) => {
                self.stats.committed.fetch_add(1, Ordering::Relaxed);
                if *delivered {
                    // Advance only after the commit: an aborted delivery
                    // leaves its order for the next attempt.
                    *cursor += 1;
                    self.stats.orders_delivered.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.stats
                        .deliveries_skipped
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.stats.aborted.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Execute one `StockLevel` transaction (read-only): count the distinct
    /// items of the district's last 20 orders whose stock quantity sits below
    /// `threshold`. Order ids in the gap between the loaded population and
    /// [`INITIAL_NEXT_O_ID`] simply have no order and are skipped.
    pub fn execute_stock_level(
        &self,
        engine: &OltpEngine,
        w_id: u64,
        d_id: u64,
        threshold: i32,
    ) -> Result<u64, TxnError> {
        let d_key = keys::district(w_id, d_id);
        let result = engine.execute(|mut txn| -> Result<u64, TxnError> {
            let (district, orders) = (txn.table("district")?, txn.table("orders")?);
            let (orderline, stock) = (txn.table("orderline")?, txn.table("stock")?);
            let next_o_id = txn.read_at(district, d_key, 5)?.as_i64() as u64;
            let lo = next_o_id.saturating_sub(20).max(1);
            let mut low_stock: HashSet<u64> = HashSet::new();
            for o_id in lo..next_o_id {
                let o_key = keys::order(w_id, d_id, o_id);
                let ol_cnt = match txn.read_at(orders, o_key, 7) {
                    Ok(v) => v.as_i32(),
                    Err(TxnError::KeyNotFound(_)) => continue,
                    Err(e) => return Err(e),
                };
                for number in 1..=ol_cnt as u64 {
                    let ol_key = keys::orderline(w_id, d_id, o_id, number);
                    let i_id = match txn.read_at(orderline, ol_key, 5) {
                        Ok(v) => v.as_i64() as u64,
                        Err(TxnError::KeyNotFound(_)) => continue,
                        Err(e) => return Err(e),
                    };
                    let quantity = txn.read_at(stock, keys::stock(w_id, i_id), 3)?.as_i32();
                    if quantity < threshold {
                        low_stock.insert(i_id);
                    }
                }
            }
            txn.commit()?;
            Ok(low_stock.len() as u64)
        });
        match &result {
            Ok(_) => {
                self.stats.committed.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .stock_levels_checked
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.stats.aborted.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Generate and execute a single transaction of the TPC-C-style mix on
    /// behalf of worker `worker_id`: 45 % `NewOrder`, 43 % `Payment`, 6 %
    /// `Delivery`, 6 % `StockLevel` (OrderStatus's share folded into its
    /// neighbours — the engine has no customer-name index to probe).
    /// Deterministically parameterised by `(seed, worker_id, txn_index)`;
    /// returns whether it committed — aborts are counted, not retried.
    /// This is the body the continuous ingest pool runs.
    pub fn run_one_mixed(
        &self,
        engine: &OltpEngine,
        worker_id: u64,
        seed: u64,
        txn_index: u64,
    ) -> bool {
        let mut rng = StdRng::seed_from_u64(
            seed ^ (worker_id + 1).wrapping_mul(0x9E37_79B9)
                ^ (txn_index + 1).wrapping_mul(0x85EB_CA6B),
        );
        let w_id = 1 + worker_id % self.warehouses;
        let roll = rng.random_range(0..100u32);
        if roll < 45 {
            let params = self.generate_new_order(w_id, &mut rng);
            self.execute_new_order(engine, &params).is_ok()
        } else if roll < 88 {
            let d_id = rng.random_range(1..=self.districts_per_warehouse);
            let c_id = rng.random_range(1..=self.customers_per_district);
            let amount = rng.random_range(1.0..5_000.0);
            self.execute_payment(engine, w_id, d_id, c_id, amount)
                .is_ok()
        } else if roll < 94 {
            let d_id = rng.random_range(1..=self.districts_per_warehouse);
            let carrier_id = rng.random_range(1..=10i32);
            let delivery_d = rng.random_range(DELIVERY_DATE_BASE..2 * DELIVERY_DATE_BASE);
            self.execute_delivery(engine, w_id, d_id, carrier_id, delivery_d)
                .is_ok()
        } else {
            let d_id = rng.random_range(1..=self.districts_per_warehouse);
            let threshold = rng.random_range(10..=20);
            self.execute_stock_level(engine, w_id, d_id, threshold)
                .is_ok()
        }
    }

    /// Run `count` `NewOrder` transactions on behalf of worker `worker_id`
    /// (bound to warehouse `1 + worker_id % warehouses`), retrying a
    /// transaction a conflict aborted with new parameters. Any other error
    /// (a failed WAL, a missing key) would fail every retry too, so the run
    /// stops there. Returns the number of commits.
    pub fn run_new_orders(
        &self,
        engine: &OltpEngine,
        worker_id: u64,
        count: u64,
        seed: u64,
    ) -> u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (worker_id + 1).wrapping_mul(0x9E3779B9));
        let w_id = 1 + worker_id % self.warehouses;
        let mut committed = 0;
        while committed < count {
            let params = self.generate_new_order(w_id, &mut rng);
            match self.execute_new_order(engine, &params) {
                Ok(_) => committed += 1,
                Err(TxnError::LockConflict | TxnError::WriteConflict) => {}
                Err(_) => break,
            }
        }
        committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{ChConfig, ChGenerator};
    use htap_rde::{RdeConfig, RdeEngine};

    fn setup() -> (RdeEngine, TransactionDriver) {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        let config = ChConfig::tiny();
        ChGenerator::new(config.clone()).build(&rde).unwrap();
        (rde, TransactionDriver::for_config(&config))
    }

    #[test]
    fn new_order_inserts_order_lines_and_updates_stock() {
        let (rde, driver) = setup();
        let before = rde.oltp().table("orderline").unwrap().twin().row_count();
        let mut rng = StdRng::seed_from_u64(1);
        let params = driver.generate_new_order(1, &mut rng);
        let o_key = driver.execute_new_order(rde.oltp(), &params).unwrap();
        let after = rde.oltp().table("orderline").unwrap().twin().row_count();
        assert_eq!(after - before, params.lines.len() as u64);
        assert!(params.lines.len() >= 5 && params.lines.len() <= 15);
        assert_eq!(driver.stats().committed(), 1);
        assert_eq!(
            driver.stats().orderlines_inserted(),
            params.lines.len() as u64
        );

        // The order is readable through the transactional API.
        let ol_cnt = rde
            .oltp()
            .begin()
            .read("orders", o_key, 7)
            .unwrap()
            .as_i32();
        assert_eq!(ol_cnt as usize, params.lines.len());

        // The district's next order id advanced.
        let d_key = keys::district(params.w_id, params.d_id);
        let next = rde
            .oltp()
            .begin()
            .read("district", d_key, 5)
            .unwrap()
            .as_i64();
        assert_eq!(next, 3002);
    }

    #[test]
    fn new_orders_generate_fresh_data_for_the_analytical_side() {
        let (rde, driver) = setup();
        driver.run_new_orders(rde.oltp(), 0, 10, 99);
        rde.switch_and_sync();
        // Fresh rows include the inserted orders/orderlines/neworders and the
        // updated stock/district records.
        let fresh = rde.oltp().fresh_rows_vs_olap();
        assert!(
            fresh >= rde.oltp().total_rows().min(10 * 5),
            "expected fresh rows, got {fresh}"
        );
        assert!(driver.stats().committed() >= 10);
    }

    #[test]
    fn payment_updates_balances_consistently() {
        let (rde, driver) = setup();
        driver.execute_payment(rde.oltp(), 1, 1, 5, 100.0).unwrap();
        let w_ytd = rde.oltp().begin().read("warehouse", 1, 2).unwrap().as_f64();
        assert_eq!(w_ytd, 300_100.0);
        let c_key = keys::customer(1, 1, 5);
        let balance = rde
            .oltp()
            .begin()
            .read("customer", c_key, 4)
            .unwrap()
            .as_f64();
        assert_eq!(balance, -110.0);
        let cnt = rde
            .oltp()
            .begin()
            .read("customer", c_key, 6)
            .unwrap()
            .as_i32();
        assert_eq!(cnt, 2);
    }

    #[test]
    fn concurrent_new_orders_on_different_warehouses_all_commit() {
        let (rde, driver) = setup();
        let rde = std::sync::Arc::new(rde);
        let driver = std::sync::Arc::new(driver);
        let handles: Vec<_> = (0..2u64)
            .map(|worker| {
                let rde = std::sync::Arc::clone(&rde);
                let driver = std::sync::Arc::clone(&driver);
                std::thread::spawn(move || driver.run_new_orders(rde.oltp(), worker, 20, 7))
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 40);
        assert_eq!(driver.stats().committed(), 40);
    }

    #[test]
    fn delivery_delivers_ingested_orders_in_id_order() {
        let (rde, driver) = setup();
        // Two orders into district (1, 1): ids 3001 and 3002.
        for _ in 0..2 {
            let params = NewOrderParams {
                w_id: 1,
                d_id: 1,
                c_id: 5,
                lines: vec![(1, 1, 2), (2, 1, 3)],
                entry_d: 1_500,
            };
            driver.execute_new_order(rde.oltp(), &params).unwrap();
        }
        let balance_before = rde
            .oltp()
            .begin()
            .read("customer", keys::customer(1, 1, 5), 4)
            .unwrap()
            .as_f64();

        assert!(driver.execute_delivery(rde.oltp(), 1, 1, 7, 5_000).unwrap());
        let o_key = keys::order(1, 1, 3001);
        let t = rde.oltp().begin();
        assert_eq!(t.read("orders", o_key, 6).unwrap().as_i32(), 7);
        let ol_key = keys::orderline(1, 1, 3001, 1);
        assert_eq!(t.read("orderline", ol_key, 7).unwrap().as_i64(), 5_000);
        // The customer was credited with the order's amount and one delivery.
        let amount: f64 = (1..=2u64)
            .map(|n| {
                t.read("orderline", keys::orderline(1, 1, 3001, n), 9)
                    .unwrap()
                    .as_f64()
            })
            .sum();
        let c_key = keys::customer(1, 1, 5);
        assert!(
            (t.read("customer", c_key, 4).unwrap().as_f64() - (balance_before + amount)).abs()
                < 1e-9
        );
        assert_eq!(t.read("customer", c_key, 7).unwrap().as_i32(), 1);
        drop(t);

        // Second delivery takes the next order; the third finds none.
        assert!(driver.execute_delivery(rde.oltp(), 1, 1, 8, 5_001).unwrap());
        assert!(!driver.execute_delivery(rde.oltp(), 1, 1, 9, 5_002).unwrap());
        assert_eq!(driver.stats().orders_delivered(), 2);
        assert_eq!(driver.stats().deliveries_skipped(), 1);
        // All three delivery attempts committed (the skip commits empty).
        assert_eq!(driver.stats().committed(), 2 + 3);
    }

    #[test]
    fn stock_level_counts_distinct_low_stock_items_of_recent_orders() {
        let (rde, driver) = setup();
        // One order with items {1, 2}; item 1 appears on two lines.
        let params = NewOrderParams {
            w_id: 1,
            d_id: 1,
            c_id: 3,
            lines: vec![(1, 1, 2), (2, 1, 3), (1, 1, 1)],
            entry_d: 1_500,
        };
        driver.execute_new_order(rde.oltp(), &params).unwrap();
        // Threshold above every stock level: both distinct items count once.
        let low = driver.execute_stock_level(rde.oltp(), 1, 1, 1_000).unwrap();
        assert_eq!(low, 2);
        // Threshold below every stock level: nothing counts.
        assert_eq!(driver.execute_stock_level(rde.oltp(), 1, 1, 0).unwrap(), 0);
        assert_eq!(driver.stats().stock_levels_checked(), 2);
        // Read-only transactions still count as commits.
        assert_eq!(driver.stats().committed(), 1 + 2);
    }

    #[test]
    fn stock_level_skips_the_gap_below_the_initial_next_order_id() {
        // Freshly loaded districts have next_o_id = 3001 but orders only up
        // to the loaded population: the last-20-orders window falls entirely
        // into the gap and must come back empty rather than abort.
        let (rde, driver) = setup();
        assert_eq!(
            driver.execute_stock_level(rde.oltp(), 1, 1, 100).unwrap(),
            0
        );
        assert_eq!(driver.stats().aborted(), 0);
    }

    #[test]
    fn mixed_transaction_stream_is_deterministic_and_covers_all_types() {
        let run = || {
            let (rde, driver) = setup();
            let mut commits = 0u64;
            for worker in 0..2u64 {
                for txn in 0..120u64 {
                    if driver.run_one_mixed(rde.oltp(), worker, 11, txn) {
                        commits += 1;
                    }
                }
            }
            let stats = driver.stats();
            (
                commits,
                stats.committed(),
                stats.orderlines_inserted(),
                stats.orders_delivered() + stats.deliveries_skipped(),
                stats.stock_levels_checked(),
            )
        };
        let first = run();
        assert_eq!(first, run(), "the mixed stream must be reproducible");
        let (commits, committed, orderlines, deliveries, stock_levels) = first;
        assert_eq!(commits, committed, "driver stats agree with return values");
        assert!(orderlines > 0, "NewOrder ran");
        assert!(deliveries > 0, "Delivery ran");
        assert!(stock_levels > 0, "StockLevel ran");
        // Deliveries eventually find undelivered NewOrder output.
        let stats = run_deliveries_until_one_lands();
        assert!(stats > 0);
    }

    /// Keep interleaving NewOrder and Delivery on one district until a
    /// delivery actually lands — Delivery must consume NewOrder output.
    fn run_deliveries_until_one_lands() -> u64 {
        let (rde, driver) = setup();
        driver
            .execute_new_order(
                rde.oltp(),
                &NewOrderParams {
                    w_id: 1,
                    d_id: 2,
                    c_id: 1,
                    lines: vec![(3, 1, 1)],
                    entry_d: 1_200,
                },
            )
            .unwrap();
        assert!(driver.execute_delivery(rde.oltp(), 1, 2, 5, 4_000).unwrap());
        driver.stats().orders_delivered()
    }

    #[test]
    fn deterministic_parameter_generation() {
        let (_, driver) = setup();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        assert_eq!(
            driver.generate_new_order(1, &mut a),
            driver.generate_new_order(1, &mut b)
        );
    }
}
