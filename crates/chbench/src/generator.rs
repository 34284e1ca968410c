//! Initial database population.
//!
//! The paper scales the database "following the TPC-H approach by a scale
//! factor SF and the size of the LineItem table becomes SF × 6,001,215. We
//! fix 15 OrderLines per Order when initializing the database" (§5.1). The
//! generator reproduces that sizing rule and assigns one warehouse per OLTP
//! worker.

use crate::schema::{keys, tables};
use htap_rde::RdeEngine;
use htap_storage::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows of the TPC-H `lineitem` relation at scale factor 1.
pub const LINEITEM_SF1: u64 = 6_001_215;

/// Order lines per order at load time (paper §5.1).
pub const ORDERLINES_PER_ORDER: u64 = 15;

/// The `d_next_o_id` value every district is loaded with (TPC-C §1.3: 3001).
/// Orders inserted by `NewOrder` transactions take ids from here upwards;
/// the `Delivery` transaction's per-district cursor starts here too.
pub const INITIAL_NEXT_O_ID: u64 = 3001;

/// Configuration of the generated database.
#[derive(Debug, Clone, PartialEq)]
pub struct ChConfig {
    /// Number of warehouses (one per OLTP worker thread in the paper).
    pub warehouses: u64,
    /// Districts per warehouse (10 in TPC-C).
    pub districts_per_warehouse: u64,
    /// Customers per district.
    pub customers_per_district: u64,
    /// Number of items (100,000 in TPC-C; the paper's Q19 build side).
    pub items: u64,
    /// Total order lines to load initially (orders are derived as
    /// `orderlines / 15`).
    pub orderlines: u64,
    /// RNG seed for deterministic generation.
    pub seed: u64,
}

impl ChConfig {
    /// A configuration sized like the paper's at scale factor `sf`
    /// (`orderline = sf × 6,001,215`), with 14 warehouses (one per worker of a
    /// 14-core socket).
    pub fn scale_factor(sf: f64) -> Self {
        ChConfig {
            warehouses: 14,
            districts_per_warehouse: 10,
            customers_per_district: 3000,
            items: 100_000,
            orderlines: (sf * LINEITEM_SF1 as f64) as u64,
            seed: 42,
        }
    }

    /// A small configuration for unit/integration tests: a few thousand order
    /// lines, a few hundred items.
    pub fn tiny() -> Self {
        ChConfig {
            warehouses: 2,
            districts_per_warehouse: 2,
            customers_per_district: 30,
            items: 200,
            orderlines: 3_000,
            seed: 7,
        }
    }

    /// A moderate configuration for benchmarks on a laptop-class host.
    pub fn small() -> Self {
        ChConfig {
            warehouses: 4,
            districts_per_warehouse: 10,
            customers_per_district: 100,
            items: 10_000,
            orderlines: 60_000,
            seed: 42,
        }
    }

    /// Number of initial orders implied by the configuration.
    pub fn orders(&self) -> u64 {
        self.orderlines / ORDERLINES_PER_ORDER
    }
}

impl Default for ChConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Summary of the generated population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PopulationReport {
    /// Rows loaded per relation kind.
    pub warehouses: u64,
    /// Districts loaded.
    pub districts: u64,
    /// Customers loaded.
    pub customers: u64,
    /// Items loaded.
    pub items: u64,
    /// Stock rows loaded.
    pub stock: u64,
    /// Orders loaded.
    pub orders: u64,
    /// Order lines loaded.
    pub orderlines: u64,
    /// Total rows across all relations.
    pub total_rows: u64,
}

/// The CH-benCHmark data generator.
#[derive(Debug)]
pub struct ChGenerator {
    config: ChConfig,
}

impl ChGenerator {
    /// Generator for the given configuration.
    pub fn new(config: ChConfig) -> Self {
        ChGenerator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ChConfig {
        &self.config
    }

    /// Create the twelve CH relations in both engines.
    pub fn create_tables(&self, rde: &RdeEngine) -> Result<(), String> {
        for schema in tables::all() {
            rde.create_table(schema)?;
        }
        Ok(())
    }

    /// Populate the initial database through the OLTP engine's bulk-load path.
    pub fn populate(&self, rde: &RdeEngine) -> Result<PopulationReport, String> {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut report = PopulationReport::default();
        let oltp = rde.oltp();

        // Warehouses and districts. A district's next order id is TPC-C's
        // 3001 — unless the scale factor loads more than 3000 orders per
        // district, in which case it must clear the loaded ids or the first
        // NewOrder would collide with a loaded order key and abort forever.
        let districts_total = cfg.warehouses * cfg.districts_per_warehouse;
        let loaded_orders_in = |w: u64, d: u64| -> u64 {
            // Orders are dealt round-robin: order o_seq lands in the district
            // with linear index o_seq % districts_total (w cycles fastest).
            let j = (w - 1) + cfg.warehouses * (d - 1);
            let orders = cfg.orders();
            if j < orders {
                (orders - 1 - j) / districts_total + 1
            } else {
                0
            }
        };
        for w in 1..=cfg.warehouses {
            oltp.bulk_load(
                "warehouse",
                vec![
                    Value::I64(w as i64),
                    Value::F64(rng.random_range(0.0..0.2)),
                    Value::F64(300_000.0),
                ],
            )?;
            report.warehouses += 1;
            for d in 1..=cfg.districts_per_warehouse {
                let next_o_id = INITIAL_NEXT_O_ID.max(loaded_orders_in(w, d) + 1);
                oltp.bulk_load(
                    "district",
                    vec![
                        Value::I64(keys::district(w, d) as i64),
                        Value::I64(w as i64),
                        Value::I64(d as i64),
                        Value::F64(rng.random_range(0.0..0.2)),
                        Value::F64(30_000.0),
                        Value::I64(next_o_id as i64),
                    ],
                )?;
                report.districts += 1;
                for c in 1..=cfg.customers_per_district {
                    oltp.bulk_load(
                        "customer",
                        vec![
                            Value::I64(keys::customer(w, d, c) as i64),
                            Value::I64(w as i64),
                            Value::I64(d as i64),
                            Value::I64(c as i64),
                            Value::F64(-10.0),
                            Value::F64(10.0),
                            Value::I32(1),
                            Value::I32(0),
                        ],
                    )?;
                    report.customers += 1;
                }
            }
        }

        // Items and stock.
        for i in 1..=cfg.items {
            oltp.bulk_load(
                "item",
                vec![
                    Value::I64(i as i64),
                    Value::I64(rng.random_range(1..10_000)),
                    Value::F64(rng.random_range(1.0..100.0)),
                ],
            )?;
            report.items += 1;
        }
        for w in 1..=cfg.warehouses {
            for i in 1..=cfg.items {
                oltp.bulk_load(
                    "stock",
                    vec![
                        Value::I64(keys::stock(w, i) as i64),
                        Value::I64(w as i64),
                        Value::I64(i as i64),
                        Value::I32(rng.random_range(10..100)),
                        Value::F64(0.0),
                        Value::I32(0),
                        Value::I32(0),
                    ],
                )?;
                report.stock += 1;
            }
        }

        // Orders and order lines: 15 lines per order, spread round-robin over
        // warehouses and districts.
        let orders = cfg.orders();
        let districts_total = cfg.warehouses * cfg.districts_per_warehouse;
        for o_seq in 0..orders {
            let w = 1 + (o_seq % cfg.warehouses);
            let d = 1 + ((o_seq / cfg.warehouses) % cfg.districts_per_warehouse);
            let o_id = 1 + o_seq / districts_total;
            let c = 1 + (o_seq % cfg.customers_per_district);
            let entry_d = 1_000 + (o_seq % 2_000) as i64;
            oltp.bulk_load(
                "orders",
                vec![
                    Value::I64(keys::order(w, d, o_id) as i64),
                    Value::I64(w as i64),
                    Value::I64(d as i64),
                    Value::I64(o_id as i64),
                    Value::I64(c as i64),
                    Value::I64(entry_d),
                    Value::I32(rng.random_range(1..10)),
                    Value::I32(ORDERLINES_PER_ORDER as i32),
                ],
            )?;
            report.orders += 1;
            for line in 1..=ORDERLINES_PER_ORDER {
                let item = rng.random_range(1..=cfg.items);
                oltp.bulk_load(
                    "orderline",
                    vec![
                        Value::I64(keys::orderline(w, d, o_id, line) as i64),
                        Value::I64(w as i64),
                        Value::I64(d as i64),
                        Value::I64(o_id as i64),
                        Value::I32(line as i32),
                        Value::I64(item as i64),
                        Value::I64(w as i64),
                        Value::I64(entry_d),
                        Value::I32(rng.random_range(1..=10)),
                        Value::F64(rng.random_range(1.0..10_000.0)),
                    ],
                )?;
                report.orderlines += 1;
            }
        }

        // TPC-H additions: fixed small relations.
        for s in 1..=100u64 {
            oltp.bulk_load(
                "supplier",
                vec![
                    Value::I64(s as i64),
                    Value::I64((s % 25) as i64),
                    Value::F64(rng.random_range(0.0..10_000.0)),
                ],
            )?;
        }
        for n in 0..25u64 {
            oltp.bulk_load(
                "nation",
                vec![Value::I64(n as i64), Value::I64((n % 5) as i64)],
            )?;
        }
        for r in 0..5u64 {
            oltp.bulk_load("region", vec![Value::I64(r as i64), Value::I64(0)])?;
        }

        report.total_rows = rde.oltp().total_rows();
        Ok(report)
    }

    /// Create the tables and populate them in one call.
    pub fn build(&self, rde: &RdeEngine) -> Result<PopulationReport, String> {
        self.create_tables(rde)?;
        self.populate(rde)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_rde::RdeConfig;

    #[test]
    fn scale_factor_sizing_matches_paper_rule() {
        let cfg = ChConfig::scale_factor(1.0);
        assert_eq!(cfg.orderlines, LINEITEM_SF1);
        assert_eq!(cfg.orders(), LINEITEM_SF1 / 15);
        assert_eq!(cfg.items, 100_000);
        let cfg = ChConfig::scale_factor(0.01);
        assert_eq!(cfg.orderlines, 60_012);
    }

    #[test]
    fn tiny_population_loads_every_relation() {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        let generator = ChGenerator::new(ChConfig::tiny());
        let report = generator.build(&rde).unwrap();

        assert_eq!(report.warehouses, 2);
        assert_eq!(report.districts, 4);
        assert_eq!(report.customers, 4 * 30);
        assert_eq!(report.items, 200);
        assert_eq!(report.stock, 2 * 200);
        assert_eq!(report.orders, 200);
        assert_eq!(report.orderlines, 3000);
        assert_eq!(report.total_rows, rde.oltp().total_rows());

        // Both twin instances and the index hold the data.
        let ol = rde.oltp().table("orderline").unwrap();
        assert_eq!(ol.twin().instance(0).row_count(), 3000);
        assert_eq!(ol.twin().instance(1).row_count(), 3000);
        assert_eq!(ol.index().len(), 3000);

        // The OLAP store has the relations but no rows yet (no ETL).
        assert_eq!(
            rde.olap().store().table("orderline").unwrap().row_count(),
            0
        );
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let build = || {
            let rde = RdeEngine::bootstrap(RdeConfig::default());
            ChGenerator::new(ChConfig::tiny()).build(&rde).unwrap();
            let ol = rde.oltp().table("orderline").unwrap();
            // Sample a few amounts.
            (0..20u64)
                .map(|r| match ol.twin().get(r * 100, 9) {
                    Some(htap_storage::Value::F64(v)) => v,
                    other => panic!("unexpected {other:?}"),
                })
                .collect::<Vec<f64>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn next_order_id_clears_the_loaded_orders_at_large_scale() {
        // More than 3000 loaded orders per district: d_next_o_id must clear
        // them, or the first NewOrder collides with a loaded order key and
        // every retry aborts forever.
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        let cfg = ChConfig {
            warehouses: 1,
            districts_per_warehouse: 1,
            customers_per_district: 5,
            items: 20,
            orderlines: 3_100 * ORDERLINES_PER_ORDER,
            seed: 1,
        };
        ChGenerator::new(cfg.clone()).build(&rde).unwrap();
        let next = rde
            .oltp()
            .begin()
            .read("district", crate::schema::keys::district(1, 1), 5)
            .unwrap()
            .as_i64();
        assert_eq!(next, 3_101);

        // A NewOrder commits instead of aborting on a duplicate order key.
        let driver = crate::transactions::TransactionDriver::for_config(&cfg);
        let mut rng = StdRng::seed_from_u64(2);
        let params = driver.generate_new_order(1, &mut rng);
        driver.execute_new_order(rde.oltp(), &params).unwrap();
        assert_eq!(driver.stats().aborted(), 0);
    }

    #[test]
    fn small_scales_keep_the_tpcc_next_order_id() {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        ChGenerator::new(ChConfig::tiny()).build(&rde).unwrap();
        let next = rde
            .oltp()
            .begin()
            .read("district", crate::schema::keys::district(1, 1), 5)
            .unwrap()
            .as_i64();
        assert_eq!(next, INITIAL_NEXT_O_ID as i64);
    }

    #[test]
    fn orders_have_fifteen_lines_at_load_time() {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        let report = ChGenerator::new(ChConfig::tiny()).build(&rde).unwrap();
        assert_eq!(report.orderlines, report.orders * ORDERLINES_PER_ORDER);
    }
}
