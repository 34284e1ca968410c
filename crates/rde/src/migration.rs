//! State migration — Algorithm 1 of the paper.
//!
//! A migration works on a fresh snapshot — the one instance switch its caller
//! took — and enforces the target state on top of it: it distributes CPUs
//! (socket- or core-granular), performs an ETL when the state requires one,
//! and names the access method the OLAP engine must use for the query. The
//! scheduler only *selects* the state; enforcement happens here, in one body
//! for all four states.

use crate::engine::{AccessMethod, EtlReport, RdeEngine, SwitchReport};
use crate::state::SystemState;
use htap_sim::SocketId;

/// Outcome of a state migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// The state the system migrated to.
    pub state: SystemState,
    /// The access method the OLAP engine uses in this state.
    pub access: AccessMethod,
    /// Instance switch + synchronisation outcome.
    pub switch: SwitchReport,
    /// ETL outcome (only for states that perform one).
    pub etl: Option<EtlReport>,
    /// OLTP cores after the migration.
    pub oltp_cores: usize,
    /// OLAP cores after the migration.
    pub olap_cores: usize,
    /// Modelled time of the whole migration (switch + ETL).
    pub modeled_time: f64,
}

impl RdeEngine {
    /// Migrate to `state` with the configured core distribution: take the
    /// switch, then enforce the state. For callers that own their switch
    /// cadence (figure binaries, tests); the scheduler, which has already
    /// switched to measure freshness, calls [`Self::migrate_after_switch`].
    pub fn migrate(&self, state: SystemState) -> MigrationReport {
        self.migrate_with(state, None)
    }

    /// [`Self::migrate`] with an explicit per-socket OLTP core distribution
    /// in place of the state's configured one — the knob the sensitivity
    /// sweeps of Figures 3(a) and 3(c) turn.
    pub fn migrate_with(
        &self,
        state: SystemState,
        oltp_cores: Option<&[(SocketId, usize)]>,
    ) -> MigrationReport {
        let switch = self.switch_and_sync();
        self.migrate_after_switch(state, oltp_cores, switch)
    }

    /// Enforce `state` on top of a switch the caller has already taken
    /// (`switch` is its report): distribute the cores, run the ETL when the
    /// state performs one, and name the access method its queries use.
    ///
    /// | state | OLTP cores | access |
    /// |---|---|---|
    /// | S1 | its minimum on every socket | OLTP snapshot |
    /// | S2 | its minimum number of whole sockets | OLAP-local, after ETL |
    /// | S3-IS | as S2 | split |
    /// | S3-NI | its socket less `elastic_cores`, never below the minimum | split |
    pub fn migrate_after_switch(
        &self,
        state: SystemState,
        oltp_cores: Option<&[(SocketId, usize)]>,
        switch: SwitchReport,
    ) -> MigrationReport {
        let config = self.config();
        let socket_cores = config.topology.cores_per_socket as usize;
        let sockets = config.topology.socket_ids();
        let min = config.oltp_min_cores_per_socket;
        let configured: Vec<(SocketId, usize)> = match state {
            SystemState::S1Colocated => sockets.into_iter().map(|s| (s, min)).collect(),
            SystemState::S2Isolated | SystemState::S3HybridIsolated => sockets
                .into_iter()
                .take(config.oltp_min_sockets)
                .map(|s| (s, socket_cores))
                .collect(),
            SystemState::S3HybridNonIsolated => {
                let keep = socket_cores.saturating_sub(config.elastic_cores).max(min);
                vec![(config.oltp_socket, keep)]
            }
        };
        let access = match state {
            SystemState::S1Colocated => AccessMethod::OltpSnapshot,
            SystemState::S2Isolated => AccessMethod::OlapLocal,
            SystemState::S3HybridIsolated | SystemState::S3HybridNonIsolated => AccessMethod::Split,
        };
        self.set_oltp_cores_per_socket(oltp_cores.unwrap_or(&configured));
        let etl = state.performs_etl().then(|| self.etl_to_olap());
        MigrationReport {
            state,
            access,
            switch,
            etl,
            oltp_cores: self.txn_work().total_workers(),
            olap_cores: self.olap_placement().total_cores(),
            modeled_time: switch.modeled_time + etl.map_or(0.0, |e| e.modeled_time),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RdeConfig;
    use htap_storage::{ColumnDef, DataType, TableSchema, Value};

    fn rde_with_data(rows: u64) -> RdeEngine {
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
                .bulk_load("sales", i, vec![Value::I64(i as i64), Value::F64(i as f64)])
                .unwrap();
        }
        rde
    }

    #[test]
    fn s1_colocates_and_reads_the_oltp_snapshot() {
        let rde = rde_with_data(100);
        let report = rde.migrate(SystemState::S1Colocated);
        assert_eq!(report.state, SystemState::S1Colocated);
        assert_eq!(report.access, AccessMethod::OltpSnapshot);
        assert!(report.etl.is_none());
        // OLTP keeps the minimum (4) on each of the two sockets.
        assert_eq!(report.oltp_cores, 8);
        assert_eq!(report.olap_cores, 28 - 8);
        assert!(
            rde.olap_placement().cores_on(SocketId(0)) > 0,
            "OLAP co-located on the OLTP socket"
        );
    }

    #[test]
    fn s2_isolates_and_performs_etl() {
        let rde = rde_with_data(200);
        let report = rde.migrate(SystemState::S2Isolated);
        assert_eq!(report.access, AccessMethod::OlapLocal);
        let etl = report.etl.expect("S2 performs an ETL");
        assert_eq!(etl.copied_rows, 200);
        assert!(report.modeled_time >= etl.modeled_time);
        assert_eq!(report.oltp_cores, 14);
        assert_eq!(report.olap_cores, 14);
        // The OLAP instance can now serve the data locally.
        assert_eq!(rde.olap().store().table("sales").unwrap().rows(), 200);
        // Queries in S2 need no fresh rows from OLTP.
        let sources = rde.sources_for(&["sales"], report.access);
        assert_eq!(sources["sales"].fresh_rows(), 0);
    }

    #[test]
    fn s3_isolated_keeps_sockets_but_uses_split_access() {
        let rde = rde_with_data(150);
        // First bring OLAP up to date, then add fresh rows.
        rde.migrate(SystemState::S2Isolated);
        for i in 150..200u64 {
            rde.oltp()
                .bulk_load("sales", i, vec![Value::I64(i as i64), Value::F64(0.0)])
                .unwrap();
        }
        let report = rde.migrate(SystemState::S3HybridIsolated);
        assert_eq!(report.access, AccessMethod::Split);
        assert!(report.etl.is_none());
        assert_eq!(report.oltp_cores, 14);
        assert_eq!(report.olap_cores, 14);
        let sources = rde.sources_for(&["sales"], report.access);
        assert_eq!(sources["sales"].total_rows(), 200);
        assert_eq!(sources["sales"].fresh_rows(), 50);
    }

    #[test]
    fn s3_non_isolated_borrows_elastic_cores() {
        let rde = rde_with_data(100);
        let report = rde.migrate(SystemState::S3HybridNonIsolated);
        assert_eq!(report.access, AccessMethod::Split);
        // Default elastic_cores = 4: OLTP keeps 10, OLAP has 14 + 4.
        assert_eq!(report.oltp_cores, 10);
        assert_eq!(report.olap_cores, 18);
        assert_eq!(rde.olap_placement().cores_on(SocketId(0)), 4);
    }

    #[test]
    fn sweeping_s1_cpu_distribution() {
        let rde = rde_with_data(100);
        let report = rde.migrate_with(
            SystemState::S1Colocated,
            Some(&[(SocketId(0), 7), (SocketId(1), 7)]),
        );
        assert_eq!(report.oltp_cores, 14);
        assert_eq!(report.olap_cores, 14);
        assert_eq!(rde.txn_work().remote_worker_fraction(), 0.5);
        assert_eq!(rde.olap_placement().cores_on(SocketId(0)), 7);
    }

    #[test]
    fn every_state_is_reachable_via_migrate() {
        let rde = rde_with_data(50);
        for state in SystemState::all() {
            let report = rde.migrate(state);
            assert_eq!(report.state, state);
            assert!(report.oltp_cores > 0);
        }
    }
}
