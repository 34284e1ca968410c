//! The scheduler driving the RDE engine query by query.
//!
//! For every arriving analytical query the scheduler: (1) asks the RDE engine
//! to switch the active OLTP instance so the query can observe all committed
//! data — the query's one crossing of the switch gate, (2) measures the
//! per-query freshness quantities, (3) picks a target state — fixed for
//! static schedules, Algorithm 2 for adaptive ones — and (4) enforces it on
//! top of that switch, returning the access paths and the scheduling overhead
//! (switch + optional ETL) that the query must absorb.

use crate::freshness::{measure, QueryFreshness};
use crate::schedule::Schedule;
use htap_olap::{QueryPlan, ScanSource};
use htap_rde::{MigrationReport, RdeEngine, SystemState};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The outcome of scheduling one query: everything the executor needs.
#[derive(Debug, Clone)]
pub struct ScheduledQuery {
    /// The state the system is in for this query.
    pub state: SystemState,
    /// Per-relation access paths.
    pub sources: BTreeMap<String, ScanSource>,
    /// The freshness picture the decision was based on.
    pub freshness: QueryFreshness,
    /// The full migration report: the switch, the ETL if any, the access
    /// method, the core distribution — and `modeled_time`, the scheduling
    /// overhead charged to this query.
    pub migration: MigrationReport,
}

/// Scheduler bound to an RDE engine and a scheduling discipline.
#[derive(Debug)]
pub struct HtapScheduler {
    rde: Arc<RdeEngine>,
    schedule: Schedule,
    /// Number of ETLs the schedule has triggered so far.
    etl_count: std::sync::atomic::AtomicU64,
}

impl HtapScheduler {
    /// Create a scheduler over an RDE engine.
    pub fn new(rde: Arc<RdeEngine>, schedule: Schedule) -> Self {
        HtapScheduler {
            rde,
            schedule,
            etl_count: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The RDE engine the scheduler drives.
    pub fn rde(&self) -> &Arc<RdeEngine> {
        &self.rde
    }

    /// The scheduling discipline.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Change the scheduling discipline (e.g. between experiment runs).
    pub fn set_schedule(&mut self, schedule: Schedule) {
        self.schedule = schedule;
    }

    /// Number of ETLs performed so far.
    pub fn etl_count(&self) -> u64 {
        self.etl_count.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Schedule one query (or one query of a batch when `is_batch` is true).
    pub fn schedule_query(&self, plan: &QueryPlan, is_batch: bool) -> ScheduledQuery {
        let guard = htap_obs::span("rde.schedule");
        // 1. Make all committed data visible to the analytical side.
        let switch = self.rde.switch_and_sync();
        // 2. Measure freshness on the fresh snapshot.
        let freshness = measure(&self.rde, plan);
        // 3. Pick the target state.
        let state = match self.schedule {
            Schedule::Static(state) => state,
            Schedule::Adaptive(policy) => policy.decide(&freshness, is_batch),
        };
        // 4. Enforce it on the switch already taken.
        let migration = self.rde.migrate_after_switch(state, None, switch);
        if migration.etl.is_some() {
            self.etl_count
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let tables: Vec<&str> = plan.tables();
        if guard.is_active() {
            // The decision record: the scheduler's inputs, the grant and
            // the chosen state (the Chrome export derives the
            // grant/revoke/hold track from consecutive spans).
            guard.arg("freshness", freshness.freshness_rate());
            guard.arg("pending_delta_rows", freshness.total_fresh_rows as f64);
            guard.arg(
                "active_oltp_workers",
                self.rde.oltp().worker_manager().active_workers() as f64,
            );
            guard.arg("oltp_cores", migration.oltp_cores as f64);
            guard.arg("olap_cores", migration.olap_cores as f64);
            guard.arg("modeled_time_s", migration.modeled_time);
            guard.detail(state.label());
        }
        let sources = self.rde.sources_for(&tables, migration.access);
        ScheduledQuery {
            state,
            sources,
            freshness,
            migration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SchedulerPolicy;
    use htap_olap::{AggExpr, Pipeline, ScalarExpr};
    use htap_rde::{AccessMethod, RdeConfig};
    use htap_storage::{ColumnDef, DataType, TableSchema, Value};

    fn plan() -> QueryPlan {
        Pipeline::scan("sales")
            .aggregate(vec![
                AggExpr::Sum(ScalarExpr::col("amount")),
                AggExpr::Count,
            ])
            .finish()
            .unwrap()
    }

    fn rde_with_rows(rows: u64) -> Arc<RdeEngine> {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        rde.create_table(TableSchema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("amount", DataType::F64),
            ],
            Some(0),
        ))
        .unwrap();
        for i in 0..rows {
            rde.oltp()
                .bulk_load("sales", vec![Value::I64(i as i64), Value::F64(1.0)])
                .unwrap();
        }
        Arc::new(rde)
    }

    #[test]
    fn static_schedule_always_uses_its_state() {
        let rde = rde_with_rows(100);
        let scheduler = HtapScheduler::new(rde, Schedule::Static(SystemState::S3HybridIsolated));
        for _ in 0..3 {
            let q = scheduler.schedule_query(&plan(), false);
            assert_eq!(q.state, SystemState::S3HybridIsolated);
            assert_eq!(q.migration.access, AccessMethod::Split);
            assert!(q.sources.contains_key("sales"));
            assert!(q.migration.modeled_time >= 0.0);
        }
        assert_eq!(scheduler.etl_count(), 0);
    }

    #[test]
    fn static_s2_schedule_performs_an_etl_per_query() {
        let rde = rde_with_rows(50);
        let scheduler =
            HtapScheduler::new(Arc::clone(&rde), Schedule::Static(SystemState::S2Isolated));
        let q = scheduler.schedule_query(&plan(), false);
        assert_eq!(q.migration.access, AccessMethod::OlapLocal);
        assert_eq!(scheduler.etl_count(), 1);
        assert_eq!(rde.olap().store().table("sales").unwrap().row_count(), 50);
        // The second query still goes through the (now cheap) ETL path.
        scheduler.schedule_query(&plan(), false);
        assert_eq!(scheduler.etl_count(), 2);
    }

    #[test]
    fn adaptive_schedule_switches_to_etl_when_fresh_data_dominates() {
        let rde = rde_with_rows(100);
        let scheduler = HtapScheduler::new(
            Arc::clone(&rde),
            Schedule::Adaptive(SchedulerPolicy::adaptive_non_isolated(0.5)),
        );
        // All fresh data belongs to the queried relation, so Nfq == Nft and
        // the policy must take the ETL branch immediately.
        let q = scheduler.schedule_query(&plan(), false);
        assert_eq!(q.state, SystemState::S2Isolated);
        assert_eq!(scheduler.etl_count(), 1);
        assert_eq!(q.freshness.query_fresh_rows, q.freshness.total_fresh_rows);

        // With no fresh data at all, Algorithm 2's condition `Nfq < α·Nft`
        // cannot hold, so the (now no-op) ETL branch is taken again.
        let q = scheduler.schedule_query(&plan(), false);
        assert_eq!(q.state, SystemState::S2Isolated);

        // Once fresh data accumulates mostly outside the queried relation,
        // the policy returns to the elastic branch.
        rde.create_table(TableSchema::new(
            "audit",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("x", DataType::F64),
            ],
            Some(0),
        ))
        .unwrap();
        for i in 0..500u64 {
            rde.oltp()
                .bulk_load("audit", vec![Value::I64(i as i64), Value::F64(0.0)])
                .unwrap();
        }
        for i in 100..110u64 {
            rde.oltp()
                .bulk_load("sales", vec![Value::I64(i as i64), Value::F64(1.0)])
                .unwrap();
        }
        let q = scheduler.schedule_query(&plan(), false);
        assert_eq!(q.state, SystemState::S3HybridNonIsolated);
        assert_eq!(q.migration.access, AccessMethod::Split);
        assert!(2 * q.freshness.query_fresh_rows < q.freshness.total_fresh_rows);
    }

    #[test]
    fn adaptive_schedule_prefers_elastic_states_when_query_touches_little_fresh_data() {
        let rde = rde_with_rows(10);
        // A second relation receives the bulk of the fresh data.
        rde.create_table(TableSchema::new(
            "audit",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("payload", DataType::F64),
            ],
            Some(0),
        ))
        .unwrap();
        for i in 0..1000u64 {
            rde.oltp()
                .bulk_load("audit", vec![Value::I64(i as i64), Value::F64(0.0)])
                .unwrap();
        }
        let scheduler = HtapScheduler::new(
            Arc::clone(&rde),
            Schedule::Adaptive(SchedulerPolicy::adaptive_non_isolated(0.5)),
        );
        let q = scheduler.schedule_query(&plan(), false);
        assert_eq!(q.state, SystemState::S3HybridNonIsolated);
        assert!(2 * q.freshness.query_fresh_rows < q.freshness.total_fresh_rows);

        // The isolated adaptive variant picks S3-IS instead.
        let scheduler = HtapScheduler::new(
            Arc::clone(&rde),
            Schedule::Adaptive(SchedulerPolicy::adaptive_isolated(0.5)),
        );
        let q = scheduler.schedule_query(&plan(), false);
        assert_eq!(q.state, SystemState::S3HybridIsolated);
    }

    #[test]
    fn batch_queries_force_the_etl_branch() {
        let rde = rde_with_rows(10);
        rde.create_table(TableSchema::new(
            "audit",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("x", DataType::F64),
            ],
            Some(0),
        ))
        .unwrap();
        for i in 0..1000u64 {
            rde.oltp()
                .bulk_load("audit", vec![Value::I64(i as i64), Value::F64(0.0)])
                .unwrap();
        }
        let scheduler = HtapScheduler::new(
            rde,
            Schedule::Adaptive(SchedulerPolicy::adaptive_non_isolated(0.5)),
        );
        let q = scheduler.schedule_query(&plan(), true);
        assert_eq!(q.state, SystemState::S2Isolated, "batches always ETL");
    }

    #[test]
    fn scheduled_sources_cover_all_plan_tables() {
        let rde = rde_with_rows(20);
        rde.create_table(TableSchema::new(
            "item",
            vec![
                ColumnDef::new("i_id", DataType::I64),
                ColumnDef::new("i_price", DataType::F64),
            ],
            Some(0),
        ))
        .unwrap();
        let join = Pipeline::scan("sales")
            .probe(
                Pipeline::scan("item").build(ScalarExpr::col("i_id")),
                ScalarExpr::col("id"),
            )
            .aggregate(vec![AggExpr::Count])
            .finish()
            .unwrap();
        let scheduler = HtapScheduler::new(rde, Schedule::Static(SystemState::S1Colocated));
        let q = scheduler.schedule_query(&join, false);
        assert!(q.sources.contains_key("sales") && q.sources.contains_key("item"));
        assert_eq!(q.migration.access, AccessMethod::OltpSnapshot);
    }
}
