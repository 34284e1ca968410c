//! Static HTAP baselines used by the paper's motivation experiment (Figure 1):
//!
//! * **Batch-ETL** ([`etl`]) — decoupled storage in the style of BatchDB /
//!   classic data warehousing: before a batch of analytical queries, the
//!   fresh delta is copied from the transactional to the analytical store;
//!   queries then run entirely on analytical-local data, and the transfer
//!   cost is amortised over the batch. This *is* the system's isolated state
//!   S2: the baseline migrates to it and runs the batch.
//! * **Copy-on-Write** ([`cow`]) — unified storage in the style of HyPer's
//!   fork-based snapshots / Caldera: analytical queries get an instant
//!   snapshot of the transactional storage, and the transactional engine pays
//!   for every shared page it dirties while a snapshot is live: the pages of
//!   the rows it updates (appends go to unshared pages).
//!
//! Both baselines run their queries through the RDE engine's one query call
//! (`RdeEngine::run_query`: real queries over real data, the OLTP
//! interference modelled beside them) but follow the respective system's
//! snapshot policy instead of the elastic scheduler. The hardware behaviour
//! (page-copy cost, interconnect-limited reads) comes from `htap-sim`
//! (ARCHITECTURE.md, "Crate layering").

pub mod cow;
pub mod etl;

pub use cow::CowBaseline;
pub use etl::EtlBaseline;

/// One measured point of a baseline run (one snapshot, `queries_per_snapshot`
/// queries over it) — the quantities Figure 1 plots.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselinePoint {
    /// Baseline label ("ETL" or "CoW").
    pub label: String,
    /// Number of queries executed over one snapshot.
    pub queries_per_snapshot: usize,
    /// Modelled query execution time, summed over the snapshot's queries.
    pub query_exec_time: f64,
    /// Modelled data-transfer (ETL) time paid for the snapshot.
    pub data_transfer_time: f64,
    /// Modelled OLTP throughput while the queries run, in transactions/s.
    pub oltp_tps: f64,
    /// Pages copied by the copy-on-write mechanism (0 for ETL).
    pub pages_copied: u64,
}

impl BaselinePoint {
    /// Average end-to-end time per query (execution plus its share of the
    /// transfer cost) — the left-hand axis of Figure 1.
    pub fn avg_query_time(&self) -> f64 {
        if self.queries_per_snapshot == 0 {
            0.0
        } else {
            (self.query_exec_time + self.data_transfer_time) / self.queries_per_snapshot as f64
        }
    }

    /// OLTP throughput in million transactions per second — the right-hand
    /// axis of Figure 1.
    pub fn oltp_mtps(&self) -> f64 {
        self.oltp_tps / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_query_time_amortises_transfer() {
        let point = BaselinePoint {
            label: "ETL".into(),
            queries_per_snapshot: 4,
            query_exec_time: 4.0,
            data_transfer_time: 2.0,
            oltp_tps: 2.0e6,
            pages_copied: 0,
        };
        assert!((point.avg_query_time() - 1.5).abs() < 1e-12);
        assert!((point.oltp_mtps() - 2.0).abs() < 1e-12);

        let empty = BaselinePoint {
            queries_per_snapshot: 0,
            ..point
        };
        assert_eq!(empty.avg_query_time(), 0.0);
    }
}
