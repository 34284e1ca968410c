//! The batch-ETL baseline (decoupled storage, Figure 1 "ETL").
//!
//! Before a batch of analytical queries, the fresh delta is transferred from
//! the transactional store to the analytical store; the queries then run on
//! analytical-local data. Query response time therefore includes the transfer
//! cost (amortised over the batch), while the transactional engine keeps its
//! socket to itself and is essentially unaffected. That is exactly the
//! system's isolated state S2, so the baseline is a migration to S2 followed
//! by the batch.

use crate::BaselinePoint;
use htap_olap::QueryPlan;
use htap_rde::{RdeEngine, SystemState};

/// The batch-ETL baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct EtlBaseline;

impl EtlBaseline {
    /// Take a snapshot, transfer the fresh delta to the analytical store and
    /// execute `queries_per_snapshot` copies of `plan` over it. Returns the
    /// Figure-1 quantities for this snapshot.
    pub fn run_snapshot(
        &self,
        rde: &RdeEngine,
        plan: &QueryPlan,
        queries_per_snapshot: usize,
    ) -> BaselinePoint {
        let migration = rde.migrate(SystemState::S2Isolated);
        let sources = rde.sources_for(&plan.tables(), migration.access);
        // The queries scan the OLAP socket only, so every run models the same
        // (near-isolated) OLTP throughput; with no query it is the idle one.
        let mut query_exec_time = 0.0;
        let mut oltp_tps = rde.modeled_oltp_throughput_idle();
        for _ in 0..queries_per_snapshot {
            let (exec, tps) = rde
                .run_query(plan, &sources)
                .expect("baseline plans always match their snapshot sources");
            query_exec_time += exec.modeled.total;
            oltp_tps = tps;
        }
        BaselinePoint {
            label: "ETL".into(),
            queries_per_snapshot,
            query_exec_time,
            data_transfer_time: migration.etl.map_or(0.0, |etl| etl.modeled_time),
            oltp_tps,
            pages_copied: 0,
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
    fn first_snapshot_pays_transfer_then_queries_run_locally() {
        let (rde, _) = populated_rde();
        let point = EtlBaseline.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 4);
        assert_eq!(point.label, "ETL");
        assert!(
            point.data_transfer_time > 0.0,
            "initial ETL moves the whole database"
        );
        assert!(point.query_exec_time > 0.0);
        assert_eq!(point.pages_copied, 0);
        assert!(
            point.oltp_tps > 1.0e6,
            "isolated OLTP stays near its base rate"
        );
        // All data is now analytical-local.
        assert_eq!(rde.oltp().fresh_rows_vs_olap(), 0);
    }

    #[test]
    fn transfer_cost_amortises_with_batch_size() {
        let (rde, driver) = populated_rde();
        EtlBaseline.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 1);
        // Generate some fresh data, then compare batch sizes.
        driver.run_new_orders(rde.oltp(), 0, 20, 3);
        let small = EtlBaseline.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 1);
        driver.run_new_orders(rde.oltp(), 0, 20, 4);
        let large = EtlBaseline.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 16);
        assert!(
            large.avg_query_time() < small.avg_query_time() + large.query_exec_time / 16.0,
            "per-query cost must shrink as the batch grows"
        );
        assert!(large.data_transfer_time > 0.0);
    }
}
