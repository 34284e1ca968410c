//! The freshness-rate metric (§2.1) and its per-query specialisation (§4.2).
//!
//! Following the paper, freshness is measured as the rate of tuples that are
//! identical between the OLAP engine's private storage and the current OLTP
//! snapshot. Algorithm 2 needs two absolute quantities besides the rate:
//!
//! * `Nfq` — the amount of fresh data the query would have to fetch from the
//!   OLTP instance to reach freshness-rate 1 (computed only over the columns
//!   the query accesses);
//! * `Nft` — the amount of fresh data in the whole database (what a full ETL
//!   would have to move).

use htap_olap::QueryPlan;
use htap_rde::RdeEngine;

/// Freshness of one relation with respect to the OLAP instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FreshnessReport {
    /// Relation name.
    pub table: String,
    /// Rows visible in the current OLTP snapshot.
    pub snapshot_rows: u64,
    /// Rows of the relation that are fresh (not yet propagated to OLAP).
    pub fresh_rows: u64,
    /// Fresh bytes over all columns of the relation.
    pub fresh_bytes: u64,
}

impl FreshnessReport {
    /// The freshness-rate metric of the relation: identical tuples over total
    /// tuples (1.0 when the OLAP instance is fully up to date). With
    /// concurrent ingest, rows committed between the snapshot and the
    /// fresh-row sample can push `fresh_rows` past `snapshot_rows`; the rate
    /// is clamped to `[0, 1]` so the race never yields a negative rate.
    pub fn freshness_rate(&self) -> f64 {
        if self.snapshot_rows == 0 {
            1.0
        } else {
            (1.0 - self.fresh_rows as f64 / self.snapshot_rows as f64).clamp(0.0, 1.0)
        }
    }
}

/// The per-query freshness quantities Algorithm 2 consumes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryFreshness {
    /// Fresh bytes the query needs from the OLTP instance (`Nfq` in bytes),
    /// restricted to the columns the query accesses.
    pub query_fresh_bytes: u64,
    /// Fresh bytes in the whole database (`Nft` in bytes), over all columns.
    pub total_fresh_bytes: u64,
    /// Fresh tuples in the relations the query accesses (`Nfq` in tuples).
    pub query_fresh_rows: u64,
    /// Fresh tuples in the whole database (`Nft` in tuples).
    pub total_fresh_rows: u64,
    /// Total tuples the query touches.
    pub query_total_rows: u64,
    /// Per-relation breakdown.
    pub per_table: Vec<FreshnessReport>,
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
    let accessed = plan.accessed_columns();
    let mut out = QueryFreshness::default();
    // One pass, one dirty-bitmap walk per relation: every relation counts
    // towards Nft (all columns); the ones the query reads also count towards
    // Nfq, restricted to the accessed columns.
    for rt in rde.oltp().tables() {
        let twin = rt.twin();
        let schema = twin.schema();
        let fresh_rows = twin.fresh_rows_vs_olap();
        let fresh_bytes = fresh_rows * schema.row_width_bytes();
        out.total_fresh_rows += fresh_rows;
        out.total_fresh_bytes += fresh_bytes;
        let Some(columns) = accessed.get(&schema.name) else {
            continue;
        };
        let width: u64 = columns
            .iter()
            .filter_map(|c| schema.column_index(c))
            .map(|i| schema.column(i).dtype.width_bytes())
            .sum();
        let snapshot_rows = twin.snapshot().rows();
        out.query_fresh_bytes += fresh_rows * width;
        out.query_fresh_rows += fresh_rows;
        out.query_total_rows += snapshot_rows;
        out.per_table.push(FreshnessReport {
            table: schema.name.clone(),
            snapshot_rows,
            fresh_rows,
            fresh_bytes,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_olap::{AggExpr, DagBuilder, ScalarExpr};
    use htap_rde::RdeConfig;
    use htap_storage::{ColumnDef, DataType, TableSchema, Value};

    fn plan() -> QueryPlan {
        let mut b = DagBuilder::default();
        let scan = b.scan("sales");
        b.aggregate(scan, None, vec![AggExpr::Sum(ScalarExpr::col("amount"))]);
        b.finish().unwrap()
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
                .bulk_load("sales", i, vec![Value::I64(i as i64), Value::F64(1.0)])
                .unwrap();
            rde.oltp()
                .bulk_load("other", i, vec![Value::I64(i as i64), Value::F64(1.0)])
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
        // Nfq counts only the accessed column (amount, 8 bytes/row); Nft counts
        // both relations over all columns (16 bytes/row each).
        assert_eq!(f.query_fresh_bytes, 100 * 8);
        assert_eq!(f.total_fresh_bytes, 2 * 100 * 16);
    }

    #[test]
    fn nothing_fresh_after_etl() {
        let rde = rde_with_rows(50);
        rde.switch_and_sync();
        rde.etl_to_olap();
        let f = measure(&rde, &plan());
        assert_eq!(f.query_fresh_rows, 0);
        assert_eq!(f.freshness_rate(), 1.0);
        assert_eq!(f.query_fresh_bytes, 0);
        assert_eq!(f.total_fresh_bytes, 0);
    }

    #[test]
    fn fresh_share_tracks_new_inserts() {
        let rde = rde_with_rows(80);
        rde.switch_and_sync();
        rde.etl_to_olap();
        // 20 new rows into the queried relation only.
        for i in 80..100u64 {
            rde.oltp()
                .bulk_load("sales", i, vec![Value::I64(i as i64), Value::F64(1.0)])
                .unwrap();
        }
        rde.switch_and_sync();
        let f = measure(&rde, &plan());
        assert_eq!(f.query_fresh_rows, 20);
        assert_eq!(f.query_total_rows, 100);
        assert!((f.freshness_rate() - 0.8).abs() < 1e-9);
        // The query accesses the only relation with fresh data, so Nfq/Nft is
        // the column-width fraction (8 of 16 bytes).
        assert_eq!(2 * f.query_fresh_bytes, f.total_fresh_bytes);
        assert_eq!(f.per_table.len(), 1);
        assert!((f.per_table[0].freshness_rate() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn freshness_rate_is_clamped_under_concurrent_ingest() {
        // Rows committed between the snapshot and the fresh-row sample can
        // make fresh exceed the snapshot; the rate must clamp, not go
        // negative.
        let table = FreshnessReport {
            table: "sales".into(),
            snapshot_rows: 100,
            fresh_rows: 130,
            fresh_bytes: 130 * 16,
        };
        assert_eq!(table.freshness_rate(), 0.0);

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
        assert_eq!(f.query_fresh_bytes, 0);
        assert_eq!(f.per_table[0].freshness_rate(), 1.0);
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
                    .bulk_load(name, i, vec![Value::I64(i as i64), Value::F64(1.0)])
                    .unwrap();
            }
        }
        rde
    }

    /// fact ⋈ mid ⋈ far, the far end (filtered on `r_v`) built first.
    fn three_table_plan() -> QueryPlan {
        use htap_olap::{CmpOp, Predicate};
        let mut b = DagBuilder::default();
        let far = b.scan("far");
        let far = b.filter(far, &[Predicate::new("r_v", CmpOp::Ge, 0.0)]);
        let far = b.build(far, ScalarExpr::col("r_id"));
        let mid = b.scan("mid");
        let mid = b.probe(mid, far, ScalarExpr::col("m_fk"));
        let mid = b.build(mid, ScalarExpr::col("m_id"));
        let fact = b.scan("fact");
        let fact = b.probe(fact, mid, ScalarExpr::col("id"));
        b.aggregate(fact, None, vec![AggExpr::Sum(ScalarExpr::col("amount"))]);
        b.finish().unwrap()
    }

    /// Algorithm 2 computes Nfq "only for the columns which will be accessed
    /// by every query": a three-table plan reports exactly its three
    /// relations, with per-relation byte accounting restricted to the
    /// accessed columns.
    #[test]
    fn three_table_plan_reports_freshness_for_exactly_its_tables() {
        let rde = rde_three_tables(50);
        rde.switch_and_sync();
        let f = measure(&rde, &three_table_plan());
        let names: Vec<&str> = f.per_table.iter().map(|t| t.table.as_str()).collect();
        assert_eq!(
            names,
            vec!["fact", "far", "mid"],
            "BTreeMap order, no bystander"
        );
        // Nfq in rows: the three accessed relations, all fresh.
        assert_eq!(f.query_fresh_rows, 3 * 50);
        assert_eq!(f.query_total_rows, 3 * 50);
        // Nfq in bytes counts only accessed columns: fact reads id (key
        // expr, 8 B) + amount (8 B); mid reads m_id + m_fk (16 B); far reads
        // r_id + r_v (16 B).
        assert_eq!(f.query_fresh_bytes, 50 * (16 + 16 + 16));
        // Nft spans all four relations over all columns.
        assert_eq!(f.total_fresh_rows, 4 * 50);
        assert_eq!(f.total_fresh_bytes, 4 * 50 * 16);
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
                .bulk_load("bystander", i, vec![Value::I64(i as i64), Value::F64(2.0)])
                .unwrap();
        }
        rde.switch_and_sync();
        let f = measure(&rde, &three_table_plan());
        assert_eq!(f.query_fresh_rows, 0);
        assert_eq!(f.freshness_rate(), 1.0, "the plan's tables are all synced");
        assert_eq!(f.total_fresh_rows, 100, "Nft still sees the bystander");
        for t in &f.per_table {
            assert_eq!(t.fresh_rows, 0, "{} must be clean", t.table);
            assert_eq!(t.freshness_rate(), 1.0);
        }
    }

    /// Fresh rows in one of the three accessed relations surface in that
    /// relation's report — and only there.
    #[test]
    fn fresh_rows_in_one_joined_dimension_are_attributed_to_it() {
        let rde = rde_three_tables(40);
        rde.switch_and_sync();
        rde.etl_to_olap();
        for i in 40..60u64 {
            rde.oltp()
                .bulk_load("far", i, vec![Value::I64(i as i64), Value::F64(3.0)])
                .unwrap();
        }
        rde.switch_and_sync();
        let f = measure(&rde, &three_table_plan());
        assert_eq!(f.query_fresh_rows, 20);
        assert_eq!(f.query_total_rows, 40 + 60 + 40);
        let far = f.per_table.iter().find(|t| t.table == "far").unwrap();
        assert_eq!(far.fresh_rows, 20);
        assert!((far.freshness_rate() - 40.0 / 60.0).abs() < 1e-9);
        for t in f.per_table.iter().filter(|t| t.table != "far") {
            assert_eq!(t.fresh_rows, 0, "{} must be clean", t.table);
        }
        // Nfq in bytes: 20 fresh far rows × the 16 accessed bytes per row.
        assert_eq!(f.query_fresh_bytes, 20 * 16);
    }
}
