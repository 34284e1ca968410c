//! The copy-on-write baseline (unified storage, Figure 1 "CoW").
//!
//! The analytical side gets an instant snapshot of the transactional storage
//! (the paper's HyPer-fork / Caldera class). While a snapshot is live, the
//! first write to a page forces the transactional engine to copy that page,
//! so transactional throughput degrades with the number of pages dirtied per
//! snapshot window — and the more snapshots are taken (small query batches),
//! the more copies are paid. Analytical queries read the unified storage on
//! the transactional engine's socket, so they also contend for its memory
//! bandwidth.

use crate::BaselinePoint;
use htap_olap::QueryPlan;
use htap_rde::{AccessMethod, RdeEngine};
use std::collections::BTreeSet;

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
    /// Number of pages the transactional engine dirtied since the previous
    /// snapshot, i.e. the pages a live snapshot forces it to copy.
    /// Computed from the per-relation delta (updated rows + inserted range).
    pub fn dirty_pages(&self, rde: &RdeEngine) -> u64 {
        let mut pages = 0u64;
        for rt in rde.oltp().tables() {
            let row_bytes = rt.twin().schema().row_width_bytes().max(1);
            let rows_per_page = (self.page_bytes / row_bytes).max(1);
            let (updated, inserted) = rt.twin().olap_delta();
            let mut dirty: BTreeSet<u64> = updated.iter().map(|r| r / rows_per_page).collect();
            let mut row = inserted.start;
            while row < inserted.end {
                dirty.insert(row / rows_per_page);
                row = (row / rows_per_page + 1) * rows_per_page;
            }
            pages += dirty.len() as u64;
        }
        pages
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
        // Pages the live snapshot will force the OLTP engine to copy.
        let pages_copied = self.dirty_pages(rde);
        // The snapshot is instant (fork): no transfer, but the window resets.
        rde.switch_and_sync();
        for rt in rde.oltp().tables() {
            rt.twin().mark_olap_synced();
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
        driver.run_new_orders(rde.oltp(), 0, 30, 5);
        rde.switch_and_sync();
        let pages_small = small.dirty_pages(&rde);
        let pages_large = large.dirty_pages(&rde);
        assert!(pages_small >= pages_large, "{pages_small} vs {pages_large}");
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
