//! Issuing one analytical query and timing it from outside: either whole,
//! through `HtapSystem::execute_sql` (every end-to-end number), or stage by
//! stage through the same public calls `execute_sql` makes (the traced run's
//! per-layer numbers).

use htap_core::{HtapSystem, SystemState};
use std::time::Instant;

/// What the staged path learned about one query, all measured or read at the
/// public boundary of a layer.
#[derive(Debug, Clone)]
pub struct Stages {
    /// `plan_sql`: parse + bind + plan (layer `sql`).
    pub plan_ns: u64,
    /// `schedule_query`: switch + sync, freshness, state choice, migration
    /// and ETL (layers `scheduler` and `rde`).
    pub schedule_ns: u64,
    /// `run_query`: morsel-driven execution (layer `olap`).
    pub run_ns: u64,
    /// The interference/clock modelling calls of the facade (layer `core`).
    pub model_ns: u64,
    pub state: SystemState,
    pub freshness_rate: f64,
    pub synced_records: u64,
    /// `(rows, bytes)` copied when the schedule performed an ETL.
    pub etl: Option<(u64, u64)>,
    pub olap_cores: usize,
    pub tuples_scanned: u64,
    pub bytes_scanned: u64,
}

/// One issued query. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct QuerySample {
    /// Index into [`crate::setup::QUERIES`].
    pub query: usize,
    /// When the query was due (open loop) or issued (closed loop).
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Whether `htap_obs` was recording while it ran.
    pub traced: bool,
    /// `Err` carries the error's `Display` text.
    pub outcome: Result<Option<Stages>, String>,
}

impl QuerySample {
    /// Latency in ms from the due time.
    pub fn latency_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    pub fn stages(&self) -> Option<&Stages> {
        self.outcome.as_ref().ok().and_then(Option::as_ref)
    }
}

/// SQL text in, report out — the call every end-to-end latency times.
pub fn run_whole(system: &HtapSystem, sql: &str) -> Result<Option<Stages>, String> {
    let report = system.execute_sql(sql).map_err(|e| e.to_string())?;
    std::hint::black_box(report);
    Ok(None)
}

/// The same work as [`run_whole`], one public call per layer, each under a
/// benchmark-side span (`bench.*`, also exported to the Chrome trace, with
/// the library's own `sql.*`, `rde.*` and `olap.pipeline` spans nested
/// inside) and timed with `Instant`.
pub fn run_staged(system: &HtapSystem, sql: &str) -> Result<Option<Stages>, String> {
    let root = htap_obs::span("bench.query");
    if root.is_active() {
        root.detail(sql);
    }
    let t0 = Instant::now();
    let plan = {
        let _s = htap_obs::span("bench.plan");
        system.plan_sql(sql).map_err(|e| e.to_string())?
    };
    let t1 = Instant::now();
    let scheduled = {
        let _s = htap_obs::span("bench.schedule");
        system.with_scheduler(|s| s.schedule_query(&plan, false))
    };
    let t2 = Instant::now();
    let rde = system.rde();
    let execution = {
        let _s = htap_obs::span("bench.run");
        let txn_work = rde.txn_work();
        rde.olap()
            .run_query(&plan, &scheduled.sources, Some(&txn_work))
            .map_err(|e| e.to_string())?
    };
    let t3 = Instant::now();
    {
        let _s = htap_obs::span("bench.model");
        let traffic = rde.olap_traffic_for(&execution.output.work.bytes_per_socket);
        std::hint::black_box(rde.modeled_oltp_throughput(&traffic));
        rde.clock().advance(
            htap_sim::clock::Activity::QueryExecution,
            execution.modeled.total,
        );
    }
    let t4 = Instant::now();
    let work = &execution.output.work;
    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
    Ok(Some(Stages {
        plan_ns: ns(t0, t1),
        schedule_ns: ns(t1, t2),
        run_ns: ns(t2, t3),
        model_ns: ns(t3, t4),
        state: scheduled.state,
        freshness_rate: scheduled.freshness.freshness_rate(),
        synced_records: scheduled.migration.switch.synced_records,
        etl: scheduled
            .migration
            .etl
            .as_ref()
            .map(|e| (e.copied_rows, e.copied_bytes)),
        olap_cores: scheduled.migration.olap_cores,
        tuples_scanned: work.tuples_scanned,
        bytes_scanned: work.total_bytes(),
    }))
}

/// Issues queries against one system and stamps the samples.
pub struct QueryRunner<'a> {
    pub system: &'a HtapSystem,
    pub texts: Vec<String>,
    /// Stage-by-stage (trace mode) or whole (end-to-end mode).
    pub staged: bool,
    /// The run's time origin.
    pub origin: Instant,
}

impl QueryRunner<'_> {
    fn ns_since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run query `query` now; `due` is when it should have started.
    pub fn issue(&self, query: usize, due: Instant) -> QuerySample {
        let traced = htap_obs::enabled();
        let sql = &self.texts[query];
        let start = Instant::now();
        let outcome = if self.staged {
            run_staged(self.system, sql)
        } else {
            run_whole(self.system, sql)
        };
        let end = Instant::now();
        QuerySample {
            query,
            due_ns: self.ns_since_origin(due),
            start_ns: self.ns_since_origin(start),
            end_ns: self.ns_since_origin(end),
            traced,
            outcome,
        }
    }
}
