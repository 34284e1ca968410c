//! The assembled HTAP system.

use crate::config::HtapConfig;
use crate::report::QueryReport;
use htap_chbench::{ChGenerator, PopulationReport, QueryId, TransactionDriver};
use htap_durability::{load_state, DurableStorage, Wal, WalConfig};
use htap_olap::{OlapError, QueryOutput, QueryPlan};
use htap_oltp::{
    apply_recovered, DurabilityController, OltpCounts, WorkerReport, CHECKPOINT_FILE, WAL_FILE,
};
use htap_rde::RdeEngine;
use htap_scheduler::{HtapScheduler, Schedule};
use htap_sql::{Catalog, SqlError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An error from running a query that starts as SQL text
/// ([`HtapSystem::execute_sql`], or a CH query, which is defined as SQL):
/// either the frontend rejected the text, or the engine rejected the
/// (well-formed) plan.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlRunError {
    /// The SQL frontend could not compile the text (syntax, unknown or
    /// ambiguous name, unsupported construct) — with position info.
    Sql(SqlError),
    /// The engine could not execute the plan.
    Olap(OlapError),
}

impl std::fmt::Display for SqlRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlRunError::Sql(e) => write!(f, "SQL frontend: {e}"),
            SqlRunError::Olap(e) => write!(f, "OLAP engine: {e}"),
        }
    }
}

impl std::error::Error for SqlRunError {}

impl From<SqlError> for SqlRunError {
    fn from(e: SqlError) -> Self {
        SqlRunError::Sql(e)
    }
}

impl From<OlapError> for SqlRunError {
    fn from(e: OlapError) -> Self {
        SqlRunError::Olap(e)
    }
}

/// The fully assembled adaptive HTAP system: engines, scheduler and the
/// CH-benCHmark workload drivers.
#[derive(Debug)]
pub struct HtapSystem {
    config: HtapConfig,
    rde: Arc<RdeEngine>,
    scheduler: Mutex<HtapScheduler>,
    txn_driver: Arc<TransactionDriver>,
    population: PopulationReport,
    txn_seed: AtomicU64,
    /// The SQL catalog over the CH-benCHmark schema, built once — name
    /// resolution and planner cardinalities for [`HtapSystem::execute_sql`].
    catalog: Catalog,
}

impl HtapSystem {
    /// Build the system: bootstrap the engines, create the CH-benCHmark
    /// relations and load the initial population.
    pub fn build(config: HtapConfig) -> Result<Self, String> {
        Self::assemble(config, None)
    }

    /// Build the system on top of a durable storage backend: recover whatever
    /// the backend holds (checkpoint + WAL tail), then enable write-ahead
    /// logging and periodic checkpoints for everything that commits from now
    /// on.
    ///
    /// On an empty backend this behaves like [`HtapSystem::build`] plus WAL
    /// attach. The initial bulk-loaded population is *not* WAL-logged — it is
    /// deterministic from the configuration, so recovery regenerates it and
    /// replays the WAL tail on top; the first checkpoint then makes the full
    /// store durable directly.
    pub fn build_durable(
        config: HtapConfig,
        storage: Arc<dyn DurableStorage>,
    ) -> Result<Self, String> {
        Self::assemble(config, Some(storage))
    }

    /// The one assembly path: engines, population (generated, or recovered
    /// from `storage` when there is one), drivers, scheduler.
    fn assemble(
        config: HtapConfig,
        storage: Option<Arc<dyn DurableStorage>>,
    ) -> Result<Self, String> {
        config.validate()?;
        let rde = Arc::new(RdeEngine::bootstrap(config.rde_config()));
        let generator = ChGenerator::new(config.chbench.clone());
        let population = match storage {
            None => generator.build(&rde)?,
            Some(storage) => Self::recover(&config, &rde, &generator, storage)?,
        };
        let txn_driver = Arc::new(TransactionDriver::for_config(&config.chbench));
        let scheduler = HtapScheduler::new(Arc::clone(&rde), config.schedule);
        Ok(HtapSystem {
            rde,
            scheduler: Mutex::new(scheduler),
            txn_driver,
            population,
            txn_seed: AtomicU64::new(config.chbench.seed),
            catalog: htap_chbench::catalog(),
            config,
        })
    }

    /// Populate `rde` from the durable state on `storage` and attach the WAL
    /// and checkpoint controller for everything that commits afterwards.
    fn recover(
        config: &HtapConfig,
        rde: &RdeEngine,
        generator: &ChGenerator,
        storage: Arc<dyn DurableStorage>,
    ) -> Result<PopulationReport, String> {
        // Open (and torn-tail-repair) the WAL; the log it decoded on the way
        // is the one recovery replays from.
        let wal_config = WalConfig {
            flush_interval_micros: config.durability.flush_interval_micros,
            max_batch: config.durability.max_batch,
        };
        let (wal, log) = Wal::open(Arc::clone(&storage), WAL_FILE, wal_config)
            .map_err(|e| format!("opening WAL: {e}"))?;
        let state = load_state(storage.as_ref(), log, CHECKPOINT_FILE)
            .map_err(|e| format!("loading durable state: {e}"))?;

        // A checkpoint captured the whole store: recreate the schema empty
        // and restore its rows. Without one the initial population is
        // regenerated deterministically. The WAL tail replays on top.
        let generated = if state.checkpoint.is_some() {
            generator.create_tables(rde)?;
            None
        } else {
            Some(generator.build(rde)?)
        };
        apply_recovered(rde.oltp(), &state).map_err(|e| format!("recovery failed: {e}"))?;
        rde.oltp()
            .attach_durability(Arc::new(DurabilityController::new(
                storage,
                wal,
                config.durability.checkpoint_interval_switches,
            )));
        Ok(generated.unwrap_or_else(|| Self::population_from_store(rde)))
    }

    /// Reconstruct the population summary from live row counts (used after a
    /// checkpoint restore, where the generator never ran).
    fn population_from_store(rde: &RdeEngine) -> PopulationReport {
        let rows = |name: &str| {
            rde.oltp()
                .table(name)
                .map(|rt| rt.twin().row_count())
                .unwrap_or(0)
        };
        PopulationReport {
            warehouses: rows("warehouse"),
            districts: rows("district"),
            customers: rows("customer"),
            items: rows("item"),
            stock: rows("stock"),
            orders: rows("orders"),
            orderlines: rows("orderline"),
            total_rows: rde.oltp().total_rows(),
        }
    }

    /// Take a checkpoint right now (quiescing the engine) and restart the
    /// WAL behind it. `Ok(false)` when the system was not built durable.
    pub fn checkpoint_now(&self) -> Result<bool, String> {
        self.rde.oltp().checkpoint_now().map_err(|e| e.to_string())
    }

    /// The SQL catalog the frontend binds against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The system configuration.
    pub fn config(&self) -> &HtapConfig {
        &self.config
    }

    /// The RDE engine (and through it the OLTP/OLAP engines).
    pub fn rde(&self) -> &Arc<RdeEngine> {
        &self.rde
    }

    /// The initial-population summary.
    pub fn population(&self) -> &PopulationReport {
        &self.population
    }

    /// The CH-benCHmark transaction driver.
    pub fn txn_driver(&self) -> &Arc<TransactionDriver> {
        &self.txn_driver
    }

    /// Run `f` with the scheduler locked (e.g. to inspect its state).
    pub fn with_scheduler<R>(&self, f: impl FnOnce(&HtapScheduler) -> R) -> R {
        f(&self.scheduler.lock())
    }

    /// Change the scheduling discipline (takes effect for the next query).
    pub fn set_schedule(&self, schedule: Schedule) {
        self.scheduler.lock().set_schedule(schedule);
    }

    /// The current scheduling discipline.
    pub fn schedule(&self) -> Schedule {
        self.scheduler.lock().schedule()
    }

    /// Run `count` NewOrder transactions per active OLTP worker (sequentially
    /// over workers, deterministic). Returns the number of committed
    /// transactions: fewer than asked when a transaction fails for a reason
    /// a retry cannot fix, such as a wedged WAL. This is the "transactional
    /// queue" between analytical queries.
    pub fn run_oltp(&self, count_per_worker: u64) -> u64 {
        let workers = self
            .rde
            .txn_work()
            .total_workers()
            .min(self.config.chbench.warehouses as usize)
            .max(1);
        let seed = self.txn_seed.fetch_add(1, Ordering::Relaxed);
        let mut committed = 0;
        for worker in 0..workers as u64 {
            committed +=
                self.txn_driver
                    .run_new_orders(self.rde.oltp(), worker, count_per_worker, seed);
        }
        committed
    }

    /// Start continuous OLTP ingest: one long-running worker thread per
    /// core the machine could ever grant the OLTP engine (parked beyond the
    /// current grant), each generating and executing transactions of the
    /// TPC-C-style mix — NewOrder, Payment, Delivery and StockLevel — back
    /// to back (the paper's "complete transactional queue", §3.2). Elastic
    /// migrations resize the pool mid-flight in both directions; aborted
    /// transactions are counted, not retried (a caller that wants retries
    /// starts the pool itself with a body that retries, as `bench_e2e`
    /// does). Returns the number of worker threads started (0 when ingest is
    /// already running).
    pub fn start_oltp_ingest(&self) -> usize {
        if self.oltp_ingest_running() {
            // No-op starts must not consume a seed: the parameter stream of
            // later runs would shift and break reproducibility.
            return 0;
        }
        let driver = Arc::clone(&self.txn_driver);
        let oltp = Arc::clone(self.rde.oltp());
        let seed = self.txn_seed.fetch_add(1, Ordering::Relaxed);
        let capacity = self.config.topology.total_cores() as usize;
        self.rde.oltp().worker_manager().start_with_capacity(
            capacity,
            move |worker_id, _core, txn_index| {
                driver.run_one_mixed(&oltp, worker_id as u64, seed, txn_index)
            },
        )
    }

    /// Stop the continuous ingest pool and return its per-worker counts.
    pub fn stop_oltp_ingest(&self) -> WorkerReport {
        self.rde.oltp().worker_manager().stop()
    }

    /// Whether the continuous ingest pool is running.
    pub fn oltp_ingest_running(&self) -> bool {
        self.rde.oltp().worker_manager().ingest_running()
    }

    /// Live committed/aborted totals of the continuous ingest pool — sampled
    /// around each analytical query to derive measured OLTP throughput.
    /// All-zero when ingest is not running.
    pub fn oltp_live_counts(&self) -> OltpCounts {
        self.rde.oltp().worker_manager().live_counts()
    }

    /// Number of pipeline workers the OLAP engine currently fields — the
    /// cores the RDE engine has granted it. Elastic migrations change this
    /// between queries, and with it the measured parallelism of the next
    /// query.
    pub fn olap_worker_count(&self) -> usize {
        self.rde.olap_worker_count()
    }

    /// Schedule `plan` once — one crossing of the switch gate — and run it
    /// `runs` times on the scheduled sources through
    /// [`RdeEngine::run_query`]: one query, or the members of a batch, which
    /// share the snapshot and so its freshness (§4.2 "Query Batch"). The
    /// first run's report carries the scheduling cost and the ETL. Returns
    /// each run's report *and* raw engine output (results + `WorkProfile`).
    fn execute_plan_inner(
        &self,
        label: &str,
        sql: Option<String>,
        plan: &QueryPlan,
        is_batch: bool,
        runs: usize,
    ) -> Result<Vec<(QueryReport, QueryOutput)>, OlapError> {
        let guard = htap_obs::span("query.execute");
        if guard.is_active() {
            guard.detail(label);
        }
        let scheduled = self.scheduler.lock().schedule_query(plan, is_batch);
        let mut out = Vec::with_capacity(runs);
        for run in 0..runs {
            let first = run == 0;
            let (execution, oltp_tps) = self.rde.run_query(plan, &scheduled.sources)?;
            let report = QueryReport {
                query: label.to_string(),
                sql: sql.clone(),
                state: scheduled.state,
                execution_time: execution.modeled.total,
                scheduling_time: if first {
                    scheduled.migration.modeled_time
                } else {
                    0.0
                },
                freshness_rate: scheduled.freshness.freshness_rate(),
                fresh_rows_accessed: execution.output.work.fresh_rows,
                bytes_scanned: execution.output.work.total_bytes(),
                oltp_tps,
                oltp_tps_measured: false,
                oltp_sample_window: 0.0,
                result_rows: execution.output.result.row_count(),
                performed_etl: first && scheduled.migration.etl.is_some(),
            };
            if first && guard.is_active() {
                guard.arg("freshness", report.freshness_rate);
                guard.arg("execution_time_s", report.execution_time);
                guard.arg("bytes_scanned", report.bytes_scanned as f64);
                guard.arg("fresh_rows", report.fresh_rows_accessed as f64);
                guard.arg("result_rows", report.result_rows as f64);
                guard.arg("oltp_tps", report.oltp_tps);
            }
            out.push((report, execution.output));
        }
        Ok(out)
    }

    /// [`Self::execute_plan_inner`] for a single run.
    fn execute_once(
        &self,
        label: &str,
        sql: Option<String>,
        plan: &QueryPlan,
        is_batch: bool,
    ) -> Result<(QueryReport, QueryOutput), OlapError> {
        let mut runs = self.execute_plan_inner(label, sql, plan, is_batch, 1)?;
        Ok(runs.swap_remove(0))
    }

    /// Compile one SQL `SELECT` against the CH-benCHmark catalog without
    /// executing it — the plan the engine *would* run.
    pub fn plan_sql(&self, sql: &str) -> Result<QueryPlan, SqlError> {
        htap_sql::plan(sql, &self.catalog)
    }

    /// Compile and execute one ad-hoc SQL query: parse → bind → plan →
    /// schedule → vectorized morsel execution, exactly like
    /// [`HtapSystem::execute_query`] — including per-query freshness against
    /// live OLTP ingest. The report carries the SQL text.
    pub fn execute_sql(&self, sql: &str) -> Result<QueryReport, SqlRunError> {
        self.execute_sql_with_output(sql).map(|(report, _)| report)
    }

    /// [`HtapSystem::execute_sql`], additionally returning the raw engine
    /// output (result rows + `WorkProfile`) — what the SQL shell prints.
    pub fn execute_sql_with_output(
        &self,
        sql: &str,
    ) -> Result<(QueryReport, QueryOutput), SqlRunError> {
        let guard = htap_obs::span("query");
        if guard.is_active() {
            guard.detail(sql);
        }
        let plan = self.plan_sql(sql)?;
        Ok(self.execute_planned_sql(sql, &plan)?)
    }

    /// Execute a plan previously compiled by [`HtapSystem::plan_sql`],
    /// tagging the report with the originating SQL text. Lets callers that
    /// already hold the plan (the shell prints it first) avoid compiling
    /// twice.
    pub fn execute_planned_sql(
        &self,
        sql: &str,
        plan: &QueryPlan,
    ) -> Result<(QueryReport, QueryOutput), OlapError> {
        let label = format!("sql-{}", plan.label());
        self.execute_once(&label, Some(sql.to_string()), plan, false)
    }

    /// Compile (against the system's catalog) one CH-benCHmark query,
    /// schedule it once and run it `runs` times under its label.
    fn execute_ch_query(
        &self,
        query: QueryId,
        is_batch: bool,
        runs: usize,
    ) -> Result<Vec<QueryReport>, SqlRunError> {
        let guard = htap_obs::span("query");
        if guard.is_active() {
            guard.detail(query.label());
        }
        let sql = query.sql();
        let plan = self.plan_sql(&sql)?;
        let runs = self.execute_plan_inner(query.label(), Some(sql), &plan, is_batch, runs)?;
        Ok(runs.into_iter().map(|(report, _)| report).collect())
    }

    /// Schedule and execute one CH-benCHmark query.
    pub fn execute_query(&self, query: QueryId) -> Result<QueryReport, SqlRunError> {
        let mut reports = self.execute_ch_query(query, false, 1)?;
        Ok(reports.swap_remove(0))
    }

    /// Execute a batch of `size` copies of one CH-benCHmark query over one
    /// snapshot (§4.2 "Query Batch"): the query is planned and scheduled
    /// once — batches always take the ETL branch of Algorithm 2 — and then
    /// runs `size` times on the same access paths. Every member reports the
    /// batch's freshness; only the first carries the scheduling cost and the
    /// ETL.
    pub fn execute_batch(
        &self,
        query: QueryId,
        size: usize,
    ) -> Result<Vec<QueryReport>, SqlRunError> {
        self.execute_ch_query(query, true, size)
    }
}

impl Drop for HtapSystem {
    /// The ingest threads hold `Arc`s into the engines, so a system dropped
    /// mid-ingest would leave them running forever — stop the pool first.
    fn drop(&mut self) {
        self.stop_oltp_ingest();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_rde::SystemState;
    use htap_scheduler::SchedulerPolicy;

    fn tiny_system() -> HtapSystem {
        HtapSystem::build(HtapConfig::tiny()).unwrap()
    }

    #[test]
    fn build_populates_the_database() {
        let system = tiny_system();
        assert!(system.population().orderlines > 0);
        assert_eq!(
            system.population().total_rows,
            system.rde().oltp().total_rows()
        );
        assert!(system.rde().oltp().table("orderline").is_some());
        assert!(system.rde().olap().store().table("orderline").is_some());
    }

    #[test]
    fn oltp_and_olap_sides_work_together() {
        let system = tiny_system();
        let committed = system.run_oltp(5);
        assert!(committed > 0);
        let report = system.execute_query(QueryId::Q6).unwrap();
        assert!(report.execution_time > 0.0);
        assert!(report.result_rows >= 1);
        assert!(report.oltp_tps > 0.0);
        assert!(report.bytes_scanned > 0);
    }

    #[test]
    fn query_results_are_consistent_across_schedules() {
        // The same data must produce the same Q6 answer regardless of the
        // schedule that executed it.
        let system = tiny_system();
        system.run_oltp(3);
        let mut answers = Vec::new();
        for schedule in [
            Schedule::Static(SystemState::S2Isolated),
            Schedule::Static(SystemState::S1Colocated),
            Schedule::Static(SystemState::S3HybridIsolated),
            Schedule::Static(SystemState::S3HybridNonIsolated),
            Schedule::Adaptive(SchedulerPolicy::adaptive_non_isolated(0.5)),
        ] {
            system.set_schedule(schedule);
            let plan = QueryId::Q6.plan().unwrap();
            let scheduled = system.with_scheduler(|s| s.schedule_query(&plan, false));
            let exec = system
                .rde()
                .olap()
                .run_query(&plan, &scheduled.sources, None)
                .unwrap();
            answers.push(exec.output.result.scalars().unwrap()[0]);
        }
        for pair in answers.windows(2) {
            assert!(
                (pair[0] - pair[1]).abs() < 1e-6,
                "schedules disagree on the query answer: {answers:?}"
            );
        }
    }

    #[test]
    fn parallel_oltp_commits_the_requested_work() {
        let system = tiny_system();
        assert!(system.start_oltp_ingest() > 0);
        // Two warehouses in the tiny config: wait until at least two workers
        // have each committed three transactions concurrently.
        let wm = system.rde().oltp().worker_manager();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let busy_workers = || {
            wm.per_worker_committed()
                .iter()
                .filter(|&&c| c >= 3)
                .count()
        };
        while busy_workers() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "two workers never reached three commits each"
            );
            std::thread::yield_now();
        }
        let pool = system.stop_oltp_ingest();
        assert!(pool.committed() >= 2 * 3);
        // One count per outcome: the pool and the driver agree on both.
        assert_eq!(pool.committed(), system.txn_driver().stats().committed());
        assert_eq!(pool.aborted(), system.txn_driver().stats().aborted());
    }

    #[test]
    fn continuous_ingest_runs_until_stopped() {
        let system = tiny_system();
        let workers = system.start_oltp_ingest();
        assert!(workers > 0);
        assert!(system.oltp_ingest_running());
        // A second start leaves the running pool untouched.
        assert_eq!(system.start_oltp_ingest(), 0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while system.oltp_live_counts().committed == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no commits within 30s"
            );
            std::thread::yield_now();
        }
        // Analytics work while ingest runs (the switch gate quiesces workers).
        let report = system.execute_query(QueryId::Q6).unwrap();
        assert!(report.execution_time > 0.0);
        let pool = system.stop_oltp_ingest();
        assert!(!system.oltp_ingest_running());
        assert!(pool.committed() > 0);
        assert_eq!(
            pool.committed(),
            system.txn_driver().stats().committed(),
            "pool counters must agree with the driver's statistics"
        );
    }

    #[test]
    fn execute_sql_runs_the_full_pipeline() {
        let system = tiny_system();
        system.run_oltp(3);
        // The same query, once as ad-hoc SQL text and once by its CH id:
        // identical answers, and both reports are self-describing.
        let sql = QueryId::Q6.sql();
        let report = system.execute_sql(&sql).unwrap();
        assert_eq!(report.sql.as_deref(), Some(sql.as_str()));
        assert_eq!(report.query, "sql-scan(orderline)→filter→aggregate");
        assert!(report.execution_time > 0.0);
        assert!((0.0..=1.0).contains(&report.freshness_rate));
        let by_id = system.execute_query(QueryId::Q6).unwrap();
        assert_eq!(by_id.sql.as_deref(), Some(sql.as_str()));
        assert_eq!(report.result_rows, by_id.result_rows);
        assert_eq!(report.bytes_scanned, by_id.bytes_scanned);
    }

    #[test]
    fn execute_sql_with_output_returns_rows_and_work() {
        let system = tiny_system();
        let (report, output) = system
            .execute_sql_with_output(
                "SELECT ol_number, SUM(ol_amount), COUNT(*) FROM orderline \
                 GROUP BY ol_number ORDER BY ol_number",
            )
            .unwrap();
        let groups = output.result.groups().unwrap();
        assert!(!groups.is_empty());
        assert_eq!(report.result_rows, groups.len());
        assert!(output.work.tuples_scanned > 0);
        assert_eq!(report.bytes_scanned, output.work.total_bytes());
        // Ad-hoc joins plan through the catalog too.
        let (report, _) = system
            .execute_sql_with_output(
                "SELECT COUNT(*) FROM orderline JOIN item ON ol_i_id = i_id \
                 WHERE i_price >= 5",
            )
            .unwrap();
        assert_eq!(report.query, "sql-scan(orderline)→probe×1→aggregate");
    }

    #[test]
    fn execute_sql_errors_are_typed_not_panics() {
        let system = tiny_system();
        // Frontend rejection: unknown table, with position info.
        let err = system.execute_sql("SELECT COUNT(*) FROM nope").unwrap_err();
        match err {
            SqlRunError::Sql(SqlError::UnknownTable { ref name, pos }) => {
                assert_eq!(name, "nope");
                assert_eq!(pos, 21);
            }
            other => panic!("expected UnknownTable, got {other:?}"),
        }
        // Unknown column.
        assert!(matches!(
            system
                .execute_sql("SELECT SUM(ghost) FROM orderline")
                .unwrap_err(),
            SqlRunError::Sql(SqlError::UnknownColumn { .. })
        ));
        // Unclosed string.
        assert!(matches!(
            system
                .execute_sql("SELECT COUNT(*) FROM item WHERE i_data LIKE 'PR")
                .unwrap_err(),
            SqlRunError::Sql(SqlError::UnclosedString { .. })
        ));
        // Unsupported construct; the Display impl mentions the offset.
        let err = system
            .execute_sql("SELECT COUNT(*) FROM orderline, orders, customer, item")
            .unwrap_err();
        assert!(err.to_string().contains("offset"), "{err}");
    }

    #[test]
    fn schedule_changes_take_effect() {
        let system = tiny_system();
        system.set_schedule(Schedule::Static(SystemState::S2Isolated));
        let report = system.execute_query(QueryId::Q1).unwrap();
        assert_eq!(report.state, SystemState::S2Isolated);
        assert!(report.performed_etl);

        system.set_schedule(Schedule::Static(SystemState::S3HybridIsolated));
        let report = system.execute_query(QueryId::Q1).unwrap();
        assert_eq!(report.state, SystemState::S3HybridIsolated);
        assert!(!report.performed_etl);
        assert_eq!(system.schedule().label(), "S3-IS");
    }

    #[test]
    fn batch_follow_up_queries_do_not_pay_scheduling() {
        let system = tiny_system();
        system.run_oltp(3);
        let batch = system.execute_batch(QueryId::Q6, 3).unwrap();
        assert_eq!(batch.len(), 3);
        let (first, follow_ups) = (&batch[0], &batch[1..]);
        assert_eq!(first.state, SystemState::S2Isolated, "batches always ETL");
        assert!(first.scheduling_time > 0.0 && first.performed_etl);
        for follow_up in follow_ups {
            assert_eq!(follow_up.scheduling_time, 0.0);
            assert!(!follow_up.performed_etl);
            assert_eq!(follow_up.freshness_rate, first.freshness_rate);
            assert_eq!(follow_up.bytes_scanned, first.bytes_scanned);
        }
        // One batch, one schedule: the scheduler counted one ETL.
        assert_eq!(system.with_scheduler(|s| s.etl_count()), 1);
    }
}
