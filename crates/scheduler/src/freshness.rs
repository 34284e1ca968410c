//! The freshness-rate metric (§2.1) and its per-query specialisation (§4.2).
//!
//! Following the paper, freshness is measured as the rate of tuples that are
//! identical between the OLAP engine's private storage and the current OLTP
//! snapshot. Algorithm 2 needs two absolute quantities besides the rate:
//!
//! * `Nfq` — the fresh tuples the query would have to fetch from the OLTP
//!   instance to reach freshness-rate 1, over the relations the query reads;
//! * `Nft` — the fresh tuples in the whole database (what a full ETL would
//!   have to move).
//!
//! Both are row counts read from each relation's freshness ledger — the rows
//! owed to the OLAP instance and its propagation watermark
//! ([`htap_storage::TwinTable::fresh_rows_vs_olap`]), counted once per
//! relation.

use htap_olap::QueryPlan;
use htap_rde::RdeEngine;

/// The per-query freshness quantities Algorithm 2 and the query report
/// consume.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryFreshness {
    /// Fresh tuples in the relations the query accesses (`Nfq`).
    pub query_fresh_rows: u64,
    /// Fresh tuples in the whole database (`Nft`).
    pub total_fresh_rows: u64,
    /// Total tuples of the relations the query accesses, in the snapshot.
    pub query_total_rows: u64,
}

impl QueryFreshness {
    /// Freshness-rate over the relations the query accesses, clamped to
    /// `[0, 1]` (concurrent ingest can commit rows between the snapshot and
    /// the fresh-row sample, making `query_fresh_rows` momentarily exceed
    /// `query_total_rows`).
    pub fn freshness_rate(&self) -> f64 {
        if self.query_total_rows == 0 {
            1.0
        } else {
            (1.0 - self.query_fresh_rows as f64 / self.query_total_rows as f64).clamp(0.0, 1.0)
        }
    }
}

/// Measure the freshness quantities for `plan` against the current state of
/// the engines (OLTP snapshot vs. OLAP instance).
pub fn measure(rde: &RdeEngine, plan: &QueryPlan) -> QueryFreshness {
    let accessed = plan.tables();
    let mut out = QueryFreshness::default();
    // One fresh-row count per relation: every relation counts towards Nft,
    // the ones the query reads also towards Nfq.
    for rt in rde.oltp().tables() {
        let twin = rt.twin();
        let fresh_rows = twin.fresh_rows_vs_olap();
        out.total_fresh_rows += fresh_rows;
        if accessed.contains(&twin.schema().name.as_str()) {
            out.query_fresh_rows += fresh_rows;
            out.query_total_rows += twin.snapshot().rows();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_olap::{AggExpr, Pipeline, ScalarExpr};
    use htap_rde::RdeConfig;
    use htap_storage::{ColumnDef, DataType, TableSchema, Value};

    fn plan() -> QueryPlan {
        Pipeline::scan("sales")
            .aggregate(vec![AggExpr::Sum(ScalarExpr::col("amount"))])
            .finish()
            .unwrap()
    }

    fn rde_with_rows(rows: u64) -> RdeEngine {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        for name in ["sales", "other"] {
            rde.create_table(TableSchema::new(
                name,
                vec![
                    ColumnDef::new("id", DataType::I64),
                    ColumnDef::new("amount", DataType::F64),
                ],
                Some(0),
            ))
            .unwrap();
        }
        for i in 0..rows {
            rde.oltp()
                .bulk_load("sales", vec![Value::I64(i as i64), Value::F64(1.0)])
                .unwrap();
            rde.oltp()
                .bulk_load("other", vec![Value::I64(i as i64), Value::F64(1.0)])
                .unwrap();
        }
        rde
    }

    #[test]
    fn everything_fresh_before_first_etl() {
        let rde = rde_with_rows(100);
        rde.switch_and_sync();
        let f = measure(&rde, &plan());
        assert_eq!(f.query_fresh_rows, 100);
        assert_eq!(f.query_total_rows, 100);
        assert_eq!(f.freshness_rate(), 0.0);
        // Nft counts both relations.
        assert_eq!(f.total_fresh_rows, 2 * 100);
    }

    #[test]
    fn nothing_fresh_after_etl() {
        let rde = rde_with_rows(50);
        rde.switch_and_sync();
        rde.etl_to_olap();
        let f = measure(&rde, &plan());
        assert_eq!(f.query_fresh_rows, 0);
        assert_eq!(f.freshness_rate(), 1.0);
        assert_eq!(f.total_fresh_rows, 0);
    }

    #[test]
    fn fresh_share_tracks_new_inserts() {
        let rde = rde_with_rows(80);
        rde.switch_and_sync();
        rde.etl_to_olap();
        // 20 new rows into the queried relation only.
        for i in 80..100u64 {
            rde.oltp()
                .bulk_load("sales", vec![Value::I64(i as i64), Value::F64(1.0)])
                .unwrap();
        }
        rde.switch_and_sync();
        let f = measure(&rde, &plan());
        assert_eq!(f.query_fresh_rows, 20);
        assert_eq!(f.query_total_rows, 100);
        assert!((f.freshness_rate() - 0.8).abs() < 1e-9);
        // The query accesses the only relation with fresh data: Nfq == Nft.
        assert_eq!(f.query_fresh_rows, f.total_fresh_rows);
    }

    #[test]
    fn freshness_rate_is_clamped_under_concurrent_ingest() {
        // Rows committed between the snapshot and the fresh-row sample can
        // make fresh exceed the snapshot; the rate must clamp, not go
        // negative.
        let query = QueryFreshness {
            query_fresh_rows: 130,
            query_total_rows: 100,
            ..QueryFreshness::default()
        };
        assert_eq!(query.freshness_rate(), 0.0);
    }

    #[test]
    fn empty_database_is_fully_fresh() {
        let rde = rde_with_rows(0);
        rde.switch_and_sync();
        let f = measure(&rde, &plan());
        assert_eq!(f.freshness_rate(), 1.0);
        assert_eq!(f, QueryFreshness::default());
    }

    /// A three-table RDE: fact(16 B/row: id + amount), mid(16 B), far(16 B),
    /// plus an untouched `bystander` relation, with `rows` rows each.
    fn rde_three_tables(rows: u64) -> RdeEngine {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        for (name, cols) in [
            ("fact", vec!["id", "amount"]),
            ("mid", vec!["m_id", "m_fk"]),
            ("far", vec!["r_id", "r_v"]),
            ("bystander", vec!["b_id", "b_v"]),
        ] {
            rde.create_table(TableSchema::new(
                name,
                vec![
                    ColumnDef::new(cols[0], DataType::I64),
                    ColumnDef::new(cols[1], DataType::F64),
                ],
                Some(0),
            ))
            .unwrap();
            for i in 0..rows {
                rde.oltp()
                    .bulk_load(name, vec![Value::I64(i as i64), Value::F64(1.0)])
                    .unwrap();
            }
        }
        rde
    }

    /// fact ⋈ mid ⋈ far, the far end (filtered on `r_v`) built first.
    fn three_table_plan() -> QueryPlan {
        use htap_olap::{CmpOp, Predicate};
        let far = Pipeline::scan("far")
            .filter([Predicate::new("r_v", CmpOp::Ge, 0.0)])
            .build(ScalarExpr::col("r_id"));
        let mid = Pipeline::scan("mid")
            .probe(far, ScalarExpr::col("m_fk"))
            .build(ScalarExpr::col("m_id"));
        Pipeline::scan("fact")
            .probe(mid, ScalarExpr::col("id"))
            .aggregate(vec![AggExpr::Sum(ScalarExpr::col("amount"))])
            .finish()
            .unwrap()
    }

    /// Algorithm 2 computes Nfq over what "will be accessed by every
    /// query": a three-table plan counts exactly its three relations — the
    /// root and both build inputs — and no bystander.
    #[test]
    fn three_table_plan_reports_freshness_for_exactly_its_tables() {
        let rde = rde_three_tables(50);
        // Different sizes per relation, so each one's share is visible.
        for (name, extra) in [("mid", 1u64), ("far", 2), ("bystander", 4)] {
            for i in 50..50 + extra {
                rde.oltp()
                    .bulk_load(name, vec![Value::I64(i as i64), Value::F64(1.0)])
                    .unwrap();
            }
        }
        rde.switch_and_sync();
        let f = measure(&rde, &three_table_plan());
        // Nfq in rows: the three accessed relations, all fresh.
        assert_eq!(f.query_fresh_rows, 50 + 51 + 52);
        assert_eq!(f.query_total_rows, 50 + 51 + 52);
        // Nft spans all four relations.
        assert_eq!(f.total_fresh_rows, 50 + 51 + 52 + 54);
        assert!(
            f.query_fresh_rows < f.total_fresh_rows,
            "bystander keeps Nfq < Nft"
        );
    }

    /// Fresh rows landing only in relations the plan does not read leave the
    /// per-query freshness untouched (that is the whole point of the
    /// per-query metric: a query over stale-but-unchanged relations can run
    /// elastically while the database at large is dirty).
    #[test]
    fn fresh_rows_in_unaccessed_tables_do_not_change_query_freshness() {
        let rde = rde_three_tables(40);
        rde.switch_and_sync();
        rde.etl_to_olap();
        // Dirty only the bystander.
        for i in 40..140u64 {
            rde.oltp()
                .bulk_load("bystander", vec![Value::I64(i as i64), Value::F64(2.0)])
                .unwrap();
        }
        rde.switch_and_sync();
        let f = measure(&rde, &three_table_plan());
        assert_eq!(f.query_fresh_rows, 0);
        assert_eq!(f.freshness_rate(), 1.0, "the plan's tables are all synced");
        assert_eq!(f.total_fresh_rows, 100, "Nft still sees the bystander");
        assert_eq!(f.query_total_rows, 3 * 40);
    }

    /// Fresh rows in one of the three accessed relations surface in Nfq and
    /// the rate, and nothing else is counted as fresh.
    #[test]
    fn fresh_rows_in_one_joined_dimension_are_attributed_to_it() {
        let rde = rde_three_tables(40);
        rde.switch_and_sync();
        rde.etl_to_olap();
        for i in 40..60u64 {
            rde.oltp()
                .bulk_load("far", vec![Value::I64(i as i64), Value::F64(3.0)])
                .unwrap();
        }
        rde.switch_and_sync();
        let f = measure(&rde, &three_table_plan());
        assert_eq!(f.query_fresh_rows, 20);
        assert_eq!(f.query_total_rows, 40 + 60 + 40);
        assert_eq!(f.total_fresh_rows, 20, "only far is fresh");
        assert!((f.freshness_rate() - (1.0 - 20.0 / 140.0)).abs() < 1e-9);
    }
}
