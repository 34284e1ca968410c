//! The copy-on-write baseline (unified storage, Figure 1 "CoW").
//!
//! The analytical side gets an instant snapshot of the transactional storage
//! (the paper's HyPer-fork / Caldera class). While a snapshot is live, the
//! first write to a page forces the transactional engine to copy that page,
//! so transactional throughput degrades with the number of pages dirtied per
//! snapshot window — and the more snapshots are taken (small query batches),
//! the more copies are paid. Analytical queries read the unified storage on
//! the transactional engine's socket, so they also contend for its memory
//! bandwidth. A window's copies are the pages of the rows it updated, read
//! from each relation's freshness ledger (`TwinTable::take_olap_delta`);
//! appended rows land on pages no live snapshot shares and copy nothing.

use crate::BaselinePoint;
use htap_olap::QueryPlan;
use htap_rde::{AccessMethod, RdeEngine};
use htap_storage::RowId;

/// The copy-on-write baseline.
#[derive(Debug, Clone, Copy)]
pub struct CowBaseline {
    /// Copy-on-write page size in bytes (the paper's RDE uses 2 MB huge
    /// pages; OS-level CoW typically works at 4 KB–2 MB granularity).
    pub page_bytes: u64,
}

impl Default for CowBaseline {
    fn default() -> Self {
        CowBaseline {
            page_bytes: 2 * 1024 * 1024,
        }
    }
}

impl CowBaseline {
    /// Number of distinct pages holding `rows` (ascending) of a relation
    /// whose rows are `row_bytes` wide: the pages the first write to each of
    /// those rows forces the transactional engine to copy while a snapshot
    /// is live.
    pub fn pages(&self, rows: &[RowId], row_bytes: u64) -> u64 {
        let page = |row: RowId| row / (self.page_bytes / row_bytes.max(1)).max(1);
        let changes = rows.windows(2).filter(|w| page(w[0]) != page(w[1])).count();
        (changes + usize::from(!rows.is_empty())) as u64
    }

    /// Take an instant snapshot and execute `queries_per_snapshot` copies of
    /// `plan` over it, with `txns_in_window` transactions having run since the
    /// previous snapshot (they determine the page-copy cost).
    pub fn run_snapshot(
        &self,
        rde: &RdeEngine,
        plan: &QueryPlan,
        queries_per_snapshot: usize,
        txns_in_window: u64,
    ) -> BaselinePoint {
        // The snapshot is instant (fork): no transfer. Taking each
        // relation's delta closes the window; the pages of its updated rows
        // are the ones the live snapshot forces the OLTP engine to copy.
        rde.switch_and_sync();
        let mut pages_copied = 0;
        for rt in rde.oltp().tables() {
            let (updated, _) = rt.twin().take_olap_delta();
            pages_copied += self.pages(&updated, rt.twin().schema().row_width_bytes());
        }

        // Queries read the unified storage on the OLTP socket; every run
        // models the same interference (with no query, OLTP runs idle).
        let sources = rde.sources_for(&plan.tables(), AccessMethod::OltpSnapshot);
        let mut query_exec_time = 0.0;
        let mut interfered = rde.modeled_oltp_throughput_idle();
        for _ in 0..queries_per_snapshot {
            let (exec, tps) = rde
                .run_query(plan, &sources)
                .expect("baseline plans always match their snapshot sources");
            query_exec_time += exec.modeled.total;
            interfered = tps;
        }

        // OLTP throughput: bandwidth/cache interference from the scans plus
        // the page-copy tax of the copy-on-write mechanism.
        let workers = rde.txn_work().total_workers().max(1) as f64;
        let per_worker = interfered / workers;
        let copies_per_txn = if txns_in_window == 0 {
            0.0
        } else {
            pages_copied as f64 / txns_in_window as f64
        };
        let copy_time = rde.cost_model().cow_page_copy_time(self.page_bytes);
        let per_worker_with_cow = if per_worker > 0.0 {
            1.0 / (1.0 / per_worker + copies_per_txn * copy_time)
        } else {
            0.0
        };
        let oltp_tps = per_worker_with_cow * workers;

        BaselinePoint {
            label: "CoW".into(),
            queries_per_snapshot,
            query_exec_time,
            data_transfer_time: 0.0,
            oltp_tps,
            pages_copied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_chbench::{ChConfig, ChGenerator, QueryId, TransactionDriver};
    use htap_rde::RdeConfig;
    use htap_storage::Value;

    fn populated_rde() -> (RdeEngine, TransactionDriver) {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        let config = ChConfig::tiny();
        ChGenerator::new(config.clone()).build(&rde).unwrap();
        (rde, TransactionDriver::for_config(&config))
    }

    #[test]
    fn snapshots_have_no_transfer_cost_but_tax_the_oltp_engine() {
        let (rde, driver) = populated_rde();
        let cow = CowBaseline::default();
        // Settle the initial load into a first snapshot.
        cow.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 1, 1);
        // Dirty some pages with transactions.
        let txns = driver.run_new_orders(rde.oltp(), 0, 30, 11);
        rde.switch_and_sync();
        let point = cow.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 4, txns);
        assert_eq!(point.label, "CoW");
        assert_eq!(point.data_transfer_time, 0.0);
        assert!(
            point.pages_copied > 0,
            "transactions must have dirtied pages"
        );
        assert!(point.query_exec_time > 0.0);
        // Paying page copies keeps throughput below the isolated baseline.
        assert!(point.oltp_tps < rde.modeled_oltp_throughput_idle());
    }

    #[test]
    fn smaller_pages_mean_more_copies_but_each_is_cheaper() {
        let (rde, driver) = populated_rde();
        let small = CowBaseline {
            page_bytes: 4 * 1024,
        };
        let large = CowBaseline {
            page_bytes: 2 * 1024 * 1024,
        };
        // Settle the initial load: the window below holds updates only.
        large.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 0, 1);
        driver.run_new_orders(rde.oltp(), 0, 30, 5);
        rde.switch_and_sync();
        // One taken delta, counted at both page sizes.
        let (mut pages_small, mut pages_large) = (0, 0);
        for rt in rde.oltp().tables() {
            let (updated, _) = rt.twin().take_olap_delta();
            let row_bytes = rt.twin().schema().row_width_bytes();
            pages_small += small.pages(&updated, row_bytes);
            pages_large += large.pages(&updated, row_bytes);
        }
        assert!(pages_large > 0, "new orders update district and stock rows");
        assert!(pages_small >= pages_large, "{pages_small} vs {pages_large}");
        let cost = rde.cost_model();
        assert!(
            cost.cow_page_copy_time(small.page_bytes) < cost.cow_page_copy_time(large.page_bytes)
        );
    }

    /// One relation of 16-byte rows (131 072 to a 2 MB page), `rows` of
    /// them bulk-loaded, and a plan over it.
    fn sales_rde(rows: u64) -> (RdeEngine, QueryPlan) {
        use htap_olap::{AggExpr, Pipeline};
        use htap_storage::{ColumnDef, DataType, TableSchema};
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        let schema = TableSchema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("amount", DataType::F64),
            ],
            Some(0),
        );
        rde.create_table(schema).unwrap();
        for i in 0..rows {
            rde.oltp()
                .bulk_load("sales", vec![Value::I64(i as i64), Value::F64(0.0)])
                .unwrap();
        }
        let plan = Pipeline::scan("sales")
            .aggregate(vec![AggExpr::Count])
            .finish()
            .unwrap();
        (rde, plan)
    }

    /// Appended rows land on pages no live snapshot shares: a window of
    /// inserts copies nothing, also when a switch between the two snapshots
    /// has already made the inserts part of the snapshot.
    #[test]
    fn a_window_of_inserts_only_copies_no_page() {
        let (rde, plan) = sales_rde(1000);
        let cow = CowBaseline::default();
        cow.run_snapshot(&rde, &plan, 0, 1);
        for i in 1000..1500u64 {
            rde.oltp()
                .bulk_load("sales", vec![Value::I64(i as i64), Value::F64(0.0)])
                .unwrap();
        }
        rde.switch_and_sync();
        let point = cow.run_snapshot(&rde, &plan, 0, 500);
        assert_eq!(point.pages_copied, 0);
        assert_eq!(point.oltp_tps, rde.modeled_oltp_throughput_idle());
    }

    #[test]
    fn updates_to_rows_on_one_large_page_copy_one_page() {
        let (rde, plan) = sales_rde(1000);
        let cow = CowBaseline::default();
        cow.run_snapshot(&rde, &plan, 0, 1);
        for key in [3u64, 40, 999] {
            rde.oltp().execute(|mut t| {
                t.update("sales", key, 1, Value::F64(1.0)).unwrap();
                t.commit().unwrap();
            });
        }
        let point = cow.run_snapshot(&rde, &plan, 0, 3);
        assert_eq!(point.pages_copied, 1);
        assert!(point.oltp_tps < rde.modeled_oltp_throughput_idle());
        // The same rows span two 4 KB pages (256 rows each).
        let small = CowBaseline {
            page_bytes: 4 * 1024,
        };
        assert_eq!(small.pages(&[3, 40, 999], 16), 2);
        assert_eq!(cow.pages(&[3, 40, 999], 16), 1);
    }

    #[test]
    fn fewer_snapshots_preserve_more_oltp_throughput() {
        // Figure 1's CoW trend: one snapshot per 16 queries beats one snapshot
        // per query, because the page-copy tax is paid less often.
        let (rde, driver) = populated_rde();
        let cow = CowBaseline::default();
        cow.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 1, 1);

        // Frequent snapshots: one per query, each after a small txn window.
        let mut frequent_tps = Vec::new();
        for round in 0..4 {
            let txns = driver.run_new_orders(rde.oltp(), 0, 10, 100 + round);
            let p = cow.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 1, txns);
            frequent_tps.push(p.oltp_tps);
        }
        // Rare snapshots: the same amount of transactional work, one snapshot.
        let txns = driver.run_new_orders(rde.oltp(), 0, 40, 200);
        let rare = cow.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 4, txns);

        let frequent_avg: f64 = frequent_tps.iter().sum::<f64>() / frequent_tps.len() as f64;
        assert!(
            rare.oltp_tps >= frequent_avg * 0.99,
            "rare snapshots should not pay more page copies per transaction: rare={} frequent={}",
            rare.oltp_tps,
            frequent_avg
        );
    }
}
