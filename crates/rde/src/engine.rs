//! The RDE engine proper: owner of memory and CPU resources, driver of
//! instance switches, twin synchronisation and ETL, provider of data access
//! paths to the OLAP engine, and the one place a query runs and is charged
//! its interference on OLTP ([`RdeEngine::run_query`]).

use htap_olap::engine::QueryExecution;
use htap_olap::{OlapEngine, OlapError, QueryPlan, ScanSource};
use htap_oltp::OltpEngine;
use htap_sim::clock::Activity;
use htap_sim::{
    CoreSplit, CostModel, ExecPlacement, InterferenceModel, OlapTraffic, Seconds, SimClock,
    SocketId, Stream, Topology, TransferWork, TxnWork,
};
use htap_storage::TableSchema;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How the OLAP engine accesses the data of a query (§3.3's two access methods
/// plus the OLAP-local case after an ETL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMethod {
    /// Read everything from the (inactive) OLTP instance — contiguous access
    /// to the OLTP socket (states S1 and S3-IS "full remote").
    OltpSnapshot,
    /// Read everything from the OLAP engine's own instance (state S2, after ETL).
    OlapLocal,
    /// Split access: OLAP-local rows plus the freshly inserted tail from the
    /// OLTP snapshot (states S3-IS and S3-NI).
    Split,
}

/// Configuration of the RDE engine.
#[derive(Debug, Clone)]
pub struct RdeConfig {
    /// The simulated machine.
    pub topology: Topology,
    /// Socket holding the OLTP instances, index and delta storage.
    pub oltp_socket: SocketId,
    /// Socket holding the OLAP instance.
    pub olap_socket: SocketId,
    /// Administrator-set minimum OLTP cores per socket it occupies
    /// (`OLTPCpuThres` of Algorithm 1).
    pub oltp_min_cores_per_socket: usize,
    /// Administrator-set minimum number of OLTP sockets (`OLTPSockThres`).
    pub oltp_min_sockets: usize,
    /// Number of OLTP-socket cores the OLAP engine may borrow in the
    /// non-isolated hybrid state (set by the DBA; the paper's sensitivity
    /// analysis picks 4, §5.2/§5.3).
    pub elastic_cores: usize,
    /// Throughput of a single OLTP worker with local data and no interference.
    pub base_tps_per_worker: f64,
}

impl Default for RdeConfig {
    fn default() -> Self {
        let topology = Topology::two_socket();
        RdeConfig {
            oltp_socket: SocketId(0),
            olap_socket: SocketId(1),
            oltp_min_cores_per_socket: 4,
            oltp_min_sockets: 1,
            elastic_cores: 4,
            base_tps_per_worker: 85_000.0,
            topology,
        }
    }
}

/// Outcome of an instance switch + twin synchronisation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SwitchReport {
    /// Records that had to be synchronised into the new active instance.
    pub synced_records: u64,
    /// Modelled time of the switch + synchronisation.
    pub modeled_time: Seconds,
}

/// Outcome of an ETL into the OLAP instance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EtlReport {
    /// Rows copied into the OLAP instance.
    pub copied_rows: u64,
    /// Bytes copied.
    pub copied_bytes: u64,
    /// Modelled transfer time (charged to the query, §3.4).
    pub modeled_time: Seconds,
}

/// The Resource and Data Exchange engine.
#[derive(Debug)]
pub struct RdeEngine {
    config: RdeConfig,
    oltp: Arc<OltpEngine>,
    olap: Arc<OlapEngine>,
    /// The split in force; [`RdeEngine::grant`] is its only writer.
    pub(crate) split: Mutex<CoreSplit>,
    interference: InterferenceModel,
    clock: SimClock,
}

impl RdeEngine {
    /// Bootstrap the HTAP system: create both engines, give each one socket
    /// (the paper's bootstrap corresponds to the full-isolation state S2).
    pub fn bootstrap(config: RdeConfig) -> Self {
        config.topology.validate().expect("invalid topology");
        let oltp = Arc::new(OltpEngine::new());
        let olap = Arc::new(OlapEngine::new(config.topology.clone(), config.olap_socket));
        let split = crate::migration::bootstrap_split(&config);

        let engine = RdeEngine {
            interference: InterferenceModel::new(config.topology.clone()),
            clock: SimClock::new(),
            oltp,
            olap,
            split: Mutex::new(split.clone()),
            config,
        };
        engine.grant(split);
        engine
    }

    /// The engine configuration.
    pub fn config(&self) -> &RdeConfig {
        &self.config
    }

    /// The transactional engine.
    pub fn oltp(&self) -> &Arc<OltpEngine> {
        &self.oltp
    }

    /// The analytical engine.
    pub fn olap(&self) -> &Arc<OlapEngine> {
        &self.olap
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The cost model used for modelled times: the OLAP engine's.
    pub fn cost_model(&self) -> &CostModel {
        self.olap.cost_model()
    }

    /// A human-readable description of the current CPU distribution.
    pub fn describe_resources(&self) -> String {
        self.split.lock().describe()
    }

    /// Create a relation in both engines (OLTP twin instances + OLAP instance).
    pub fn create_table(&self, schema: TableSchema) -> Result<(), String> {
        self.oltp.create_table(schema.clone())?;
        self.olap.store().create_table(schema)?;
        Ok(())
    }

    /// OLTP worker placement as a cost-model descriptor.
    pub fn txn_work(&self) -> TxnWork {
        TxnWork {
            workers_on: self.split.lock().oltp_per_socket(),
            data_socket: self.config.oltp_socket,
            base_tps_per_worker: self.config.base_tps_per_worker,
        }
    }

    /// OLAP compute placement (cores per socket).
    pub fn olap_placement(&self) -> ExecPlacement {
        ExecPlacement {
            cores_on: self.split.lock().olap_per_socket(),
        }
    }

    /// Number of pipeline workers the OLAP engine fields with the current
    /// grant — the parallelism the next analytical query executes with.
    pub fn olap_worker_count(&self) -> usize {
        self.olap.worker_count()
    }

    /// Modelled OLTP throughput given the OLAP traffic currently active.
    pub fn modeled_oltp_throughput(&self, olap_traffic: &OlapTraffic) -> f64 {
        self.interference
            .oltp_throughput(&self.txn_work(), olap_traffic)
    }

    /// Modelled OLTP throughput with an idle OLAP engine.
    pub fn modeled_oltp_throughput_idle(&self) -> f64 {
        self.modeled_oltp_throughput(&OlapTraffic::idle())
    }

    /// The OLAP traffic descriptor for a query that scans `bytes_per_socket`
    /// with the current OLAP placement (used to model interference on OLTP).
    pub fn olap_traffic_for(&self, bytes_per_socket: &BTreeMap<SocketId, u64>) -> OlapTraffic {
        let placement = self.olap_placement();
        let mut streams = Vec::new();
        for (&source, &bytes) in bytes_per_socket {
            if bytes == 0 {
                continue;
            }
            for (&consumer, &cores) in &placement.cores_on {
                if cores > 0 {
                    streams.push(Stream::sequential(source, consumer, cores));
                }
            }
        }
        OlapTraffic::new(streams, placement.cores_on.clone())
    }

    /// Run one analytical query on the RDE engine's terms: execute `plan`
    /// over `sources` with the cores the split in force grants the OLAP
    /// engine, model the OLTP throughput beside it (interference from the
    /// sockets the query read), and charge the modelled execution time to
    /// [`Activity::QueryExecution`]. Returns the execution and that
    /// throughput. Every query the system, the figure binaries and the
    /// baselines run goes through here.
    pub fn run_query(
        &self,
        plan: &QueryPlan,
        sources: &BTreeMap<String, ScanSource>,
    ) -> Result<(QueryExecution, f64), OlapError> {
        let execution = self.olap.run_query(plan, sources, Some(&self.txn_work()))?;
        let traffic = self.olap_traffic_for(&execution.output.work.bytes_per_socket);
        let oltp_tps = self.modeled_oltp_throughput(&traffic);
        self.clock
            .advance(Activity::QueryExecution, execution.modeled.total);
        Ok((execution, oltp_tps))
    }

    /// Instruct the OLTP engine to switch its active instance and synchronise
    /// the twins (consuming the update-indication bits), in one quiescence
    /// window so concurrent ingest workers never observe the un-synced
    /// active instance. This is the one point where the engines meet: a
    /// scheduled query crosses it exactly once. The modelled time is charged
    /// to the [`Activity::InstanceSync`] counter.
    pub fn switch_and_sync(&self) -> SwitchReport {
        let guard = htap_obs::span("rde.switch");
        let sync = self.oltp.switch_and_sync_instances();
        let synced_records = sync.copied_records;
        let bytes_per_record = sync
            .copied_bytes
            .checked_div(synced_records)
            .map_or(64, |b| b.max(1));
        // The RDE engine synchronises with a couple of helper threads; the
        // paper reports ~10 ms for ~1 M modified tuples.
        let modeled_time = self
            .olap
            .cost_model()
            .sync_time(synced_records, bytes_per_record, 2);
        self.clock.advance(Activity::InstanceSync, modeled_time);

        if guard.is_active() {
            guard.arg("synced_records", synced_records as f64);
        }
        SwitchReport {
            synced_records,
            modeled_time,
        }
    }

    /// Transfer the fresh delta (inserted + updated records since the last
    /// ETL) from the OLTP snapshot into the OLAP instance. The modelled time
    /// is charged to [`Activity::DataTransfer`] and, per §3.4, is paid by the
    /// query that triggered it.
    pub fn etl_to_olap(&self) -> EtlReport {
        let guard = htap_obs::span("rde.etl");
        let mut copied_rows = 0u64;
        let mut copied_bytes = 0u64;
        for rt in self.oltp.tables() {
            let twin = rt.twin();
            let snapshot = twin.snapshot();
            let (updated, inserted) = twin.take_olap_delta();
            if updated.is_empty() && inserted.is_empty() {
                continue;
            }
            let applied = self.olap.store().apply_delta(&snapshot, &updated, inserted);
            copied_rows += applied;
            copied_bytes += applied * twin.schema().row_width_bytes();
        }
        let cores = self
            .olap_placement()
            .cores_on(self.config.olap_socket)
            .max(1);
        // An empty delta models to zero time.
        let modeled_time = self.olap.cost_model().transfer_time(&TransferWork {
            bytes: copied_bytes,
            from: self.config.oltp_socket,
            to: self.config.olap_socket,
            cores,
        });
        self.clock.advance(Activity::DataTransfer, modeled_time);

        if guard.is_active() {
            guard.arg("copied_rows", copied_rows as f64);
            guard.arg("copied_bytes", copied_bytes as f64);
        }
        EtlReport {
            copied_rows,
            copied_bytes,
            modeled_time,
        }
    }

    /// Build the per-relation access paths for a query over `tables`, using
    /// the given access method.
    pub fn sources_for(
        &self,
        tables: &[&str],
        method: AccessMethod,
    ) -> BTreeMap<String, ScanSource> {
        let mut out = BTreeMap::new();
        for &name in tables {
            // A relation neither engine knows gets no entry: the executor then
            // reports a typed `MissingSource` error instead of this layer
            // panicking mid-schedule.
            let source = match method {
                AccessMethod::OltpSnapshot => self.oltp.table(name).map(|rt| {
                    ScanSource::contiguous_snapshot(&rt.twin().snapshot(), self.config.oltp_socket)
                }),
                AccessMethod::OlapLocal => self.olap.store().local_source(name),
                AccessMethod::Split => self.oltp.table(name).and_then(|rt| {
                    self.olap.store().table(name).map(|olap_table| {
                        ScanSource::split(
                            Arc::clone(&olap_table),
                            olap_table.row_count(),
                            self.config.olap_socket,
                            &rt.twin().snapshot(),
                            self.config.oltp_socket,
                        )
                    })
                }),
            };
            if let Some(source) = source {
                out.insert(name.to_string(), source);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_storage::{ColumnDef, DataType, Value};

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("amount", DataType::F64),
            ],
            Some(0),
        )
    }

    fn engine_with_data(rows: u64) -> RdeEngine {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        rde.create_table(schema("sales")).unwrap();
        for i in 0..rows {
            rde.oltp()
                .bulk_load("sales", vec![Value::I64(i as i64), Value::F64(i as f64)])
                .unwrap();
        }
        rde
    }

    #[test]
    fn bootstrap_assigns_one_socket_per_engine() {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        let txn = rde.txn_work();
        assert_eq!(txn.total_workers(), 14);
        assert_eq!(txn.data_socket, SocketId(0));
        let placement = rde.olap_placement();
        assert_eq!(placement.total_cores(), 14);
        assert_eq!(placement.cores_on(SocketId(1)), 14);
        assert!(rde.describe_resources().contains("OLTP: 14"));
    }

    #[test]
    fn switch_and_sync_reports_fresh_rows_and_charges_time() {
        let rde = engine_with_data(100);
        // Update a few records transactionally.
        for key in 0..5u64 {
            rde.oltp().execute(|mut t| {
                t.update("sales", key, 1, Value::F64(1000.0)).unwrap();
                t.commit().unwrap();
            });
        }
        let report = rde.switch_and_sync();
        assert_eq!(report.synced_records, 5);
        assert_eq!(
            rde.oltp().fresh_rows_vs_olap(),
            100,
            "nothing propagated to OLAP yet"
        );
        assert!(report.modeled_time > 0.0);
        assert!(rde.clock().elapsed(Activity::InstanceSync) > 0.0);
    }

    #[test]
    fn etl_fills_olap_instance_and_is_idempotent() {
        let rde = engine_with_data(50);
        rde.switch_and_sync();
        let etl = rde.etl_to_olap();
        assert_eq!(etl.copied_rows, 50);
        assert_eq!(etl.copied_bytes, 50 * 16);
        assert!(etl.modeled_time > 0.0);
        assert_eq!(rde.olap().store().table("sales").unwrap().row_count(), 50);
        assert_eq!(rde.oltp().fresh_rows_vs_olap(), 0);
        // Nothing new: second ETL copies nothing and costs nothing.
        let second = rde.etl_to_olap();
        assert_eq!(second.copied_rows, 0);
        assert_eq!(second.modeled_time, 0.0);
    }

    #[test]
    fn sources_reflect_access_methods() {
        let rde = engine_with_data(40);
        rde.switch_and_sync();
        rde.etl_to_olap();
        // Add fresh rows after the ETL.
        for i in 40..60u64 {
            rde.oltp()
                .bulk_load("sales", vec![Value::I64(i as i64), Value::F64(0.0)])
                .unwrap();
        }
        rde.switch_and_sync();

        let remote = rde.sources_for(&["sales"], AccessMethod::OltpSnapshot);
        assert_eq!(remote["sales"].total_rows(), 60);
        assert_eq!(remote["sales"].fresh_rows(), 60);

        let local = rde.sources_for(&["sales"], AccessMethod::OlapLocal);
        assert_eq!(local["sales"].total_rows(), 40);
        assert_eq!(local["sales"].fresh_rows(), 0);

        let split = rde.sources_for(&["sales"], AccessMethod::Split);
        assert_eq!(split["sales"].total_rows(), 60);
        assert_eq!(split["sales"].fresh_rows(), 20);
        let bytes = split["sales"].bytes_per_socket(&["amount"]);
        assert_eq!(bytes[&SocketId(1)], 40 * 8);
        assert_eq!(bytes[&SocketId(0)], 20 * 8);
    }

    /// The OLAP copy keeps no row count of its own: after every ETL, and
    /// after a switch that leaves rows owed, each relation's published
    /// `row_count()` is the twin table's propagation watermark, and a split
    /// source serves exactly the rows below it from the OLAP copy and the
    /// rest of the snapshot from the OLTP instance.
    #[test]
    fn the_olap_copy_row_count_is_the_propagation_watermark() {
        use htap_olap::source::SegmentOrigin;
        fn check(rde: &RdeEngine) {
            for rt in rde.oltp().tables() {
                let twin = rt.twin();
                let name = twin.schema().name.as_str();
                let olap_rows = rde.olap().store().table(name).unwrap().row_count();
                assert_eq!(olap_rows, twin.olap_synced_rows(), "{name}");
                let snapshot_rows = twin.snapshot().rows();
                let mut expected = Vec::new();
                if olap_rows > 0 {
                    expected.push((SegmentOrigin::OlapInstance, 0..olap_rows));
                }
                if snapshot_rows > olap_rows {
                    expected.push((SegmentOrigin::OltpSnapshot, olap_rows..snapshot_rows));
                }
                let split = &rde.sources_for(&[name], AccessMethod::Split)[name];
                let layout: Vec<_> = split
                    .segments
                    .iter()
                    .map(|s| (s.origin, s.rows.clone()))
                    .collect();
                assert_eq!(layout, expected, "{name}");
            }
        }
        let rde = engine_with_data(40);
        rde.create_table(schema("other")).unwrap();
        for i in 0..7u64 {
            rde.oltp()
                .bulk_load("other", vec![Value::I64(i as i64), Value::F64(0.0)])
                .unwrap();
        }
        check(&rde);

        // An ETL with inserts.
        rde.switch_and_sync();
        assert_eq!(rde.etl_to_olap().copied_rows, 47);
        check(&rde);

        // An update-only ETL: rows are rewritten, the count stays.
        for key in [3u64, 39] {
            rde.oltp().execute(|mut t| {
                t.update("sales", key, 1, Value::F64(-1.0)).unwrap();
                t.commit().unwrap();
            });
        }
        rde.switch_and_sync();
        assert_eq!(rde.etl_to_olap().copied_rows, 2);
        let sales = rde.olap().store().table("sales").unwrap();
        assert_eq!(sales.get_value(39, 1), Some(Value::F64(-1.0)));
        check(&rde);

        // An empty ETL.
        rde.switch_and_sync();
        assert_eq!(rde.etl_to_olap().copied_rows, 0);
        check(&rde);

        // A late insert, switched but left owed: the split reads it from
        // the snapshot.
        for i in 40..45u64 {
            rde.oltp()
                .bulk_load("sales", vec![Value::I64(i as i64), Value::F64(0.0)])
                .unwrap();
        }
        rde.switch_and_sync();
        assert_eq!(rde.oltp().fresh_rows_vs_olap(), 5);
        assert_eq!(sales.row_count(), 40);
        check(&rde);
    }

    #[test]
    fn modeled_oltp_throughput_reacts_to_olap_traffic() {
        let rde = engine_with_data(10);
        let idle = rde.modeled_oltp_throughput_idle();
        assert!(idle > 1.0e6, "14 workers at 85k tps each");
        let mut bytes = BTreeMap::new();
        bytes.insert(SocketId(0), 10_000_000_000u64);
        let traffic = rde.olap_traffic_for(&bytes);
        let busy = rde.modeled_oltp_throughput(&traffic);
        assert!(busy < idle);
    }

    #[test]
    fn run_query_models_oltp_beside_the_scan_and_charges_the_clock() {
        use htap_olap::{AggExpr, Pipeline, ScalarExpr};
        let rde = engine_with_data(1000);
        rde.switch_and_sync();
        let plan = Pipeline::scan("sales")
            .aggregate(vec![AggExpr::Sum(ScalarExpr::col("amount"))])
            .finish()
            .unwrap();

        // A scan of the OLTP socket interferes with OLTP; its modelled time
        // lands on the query-execution counter.
        let remote = rde.sources_for(&["sales"], AccessMethod::OltpSnapshot);
        let (exec, oltp_tps) = rde.run_query(&plan, &remote).unwrap();
        assert_eq!(
            exec.output.result.scalars().unwrap()[0],
            (0..1000).map(|i| i as f64).sum::<f64>()
        );
        assert!(oltp_tps < rde.modeled_oltp_throughput_idle());
        assert_eq!(
            rde.clock().elapsed(Activity::QueryExecution),
            exec.modeled.total
        );

        // A plan the sources cannot serve is a typed error and charges nothing.
        let err = rde.run_query(&plan, &BTreeMap::new());
        assert!(matches!(err, Err(OlapError::MissingSource { .. })));
        assert_eq!(
            rde.clock().elapsed(Activity::QueryExecution),
            exec.modeled.total
        );
    }

    #[test]
    fn create_table_registers_in_both_engines() {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        rde.create_table(schema("t1")).unwrap();
        assert!(rde.oltp().table("t1").is_some());
        assert!(rde.olap().store().table("t1").is_some());
        assert!(rde.create_table(schema("t1")).is_err());
    }

    #[test]
    fn migrations_resize_a_running_ingest_pool_mid_flight() {
        use crate::state::SystemState;
        let rde = engine_with_data(10);
        let wm = rde.oltp().worker_manager();
        // Start the pool while S3-NI has lent 4 OLTP-socket cores away (10
        // active), with capacity for the whole machine so later grants can
        // grow it.
        rde.migrate(SystemState::S3HybridNonIsolated);
        let capacity = rde.config().topology.total_cores() as usize;
        assert_eq!(wm.start_with_capacity(capacity, |_, _, _| true), capacity);
        assert!(wm.ingest_running());
        assert_eq!(wm.active_workers(), 10);

        // S2 hands the whole socket back: the running pool must grow to 14
        // active workers without restarting.
        rde.migrate(SystemState::S2Isolated);
        assert_eq!(wm.active_workers(), 14);

        // And shrinking again parks the reclaimed workers.
        rde.migrate(SystemState::S3HybridNonIsolated);
        assert_eq!(wm.active_workers(), 10);

        // The three migrations above can finish before any worker thread was
        // scheduled at all (two CPUs, 28 threads): wait for the first commit
        // instead of assuming one happened.
        while wm.live_counts().committed == 0 {
            std::thread::yield_now();
        }
        let report = wm.stop();
        assert_eq!(report.committed_per_worker.len(), capacity);
        assert!(report.committed() > 0);
    }

    #[test]
    fn sources_for_unknown_relation_yields_no_entry() {
        // The executor turns the missing entry into a typed `MissingSource`
        // error; this layer must not panic mid-schedule.
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        for method in [
            AccessMethod::OltpSnapshot,
            AccessMethod::OlapLocal,
            AccessMethod::Split,
        ] {
            assert!(rde.sources_for(&["ghost"], method).is_empty());
        }
    }
}
