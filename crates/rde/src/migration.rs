//! State migration — Algorithm 1 of the paper.
//!
//! A migration works on a fresh snapshot — the one instance switch its caller
//! took — and enforces the target state on top of it: it splits the CPUs
//! between the engines (socket- or core-granular), performs an ETL when the
//! state requires one, and names the access method the OLAP engine must use
//! for the query. The scheduler only *selects* the state; enforcement happens
//! here, in one body for all four states.
//!
//! "Following the common approach in cloud computing, we assume that CPU and
//! memory resources are split in two sets: the first is exclusively given to
//! each engine, and the second can be traded between them. The distribution of
//! resources between the engines is decided by the RDE engine" (§3.1). That
//! decision is one [`CoreSplit`] per migration, computed by the per-state
//! table below and nowhere else; both engines read the core list it hands
//! them.

use crate::engine::{AccessMethod, EtlReport, RdeConfig, RdeEngine, SwitchReport};
use crate::state::SystemState;
use htap_sim::{CoreSplit, SocketId};

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
    /// (`switch` is its report): split the cores, run the ETL when the state
    /// performs one, and name the access method its queries use.
    ///
    /// | state | OLTP cores | access |
    /// |---|---|---|
    /// | S1 | its minimum on every socket | OLTP snapshot |
    /// | S2 | its minimum number of whole sockets | OLAP-local, after ETL |
    /// | S3-IS | as S2 | split |
    /// | S3-NI | its socket less `elastic_cores`, never below the minimum | split |
    ///
    /// An explicit per-socket list (`oltp_cores`) replaces the state's row;
    /// either way OLTP holds the lowest-numbered cores of each socket and
    /// OLAP every other core.
    pub fn migrate_after_switch(
        &self,
        state: SystemState,
        oltp_cores: Option<&[(SocketId, usize)]>,
        switch: SwitchReport,
    ) -> MigrationReport {
        let config = self.config();
        let per_socket = match oltp_cores {
            Some(list) => listed_cores_per_socket(config, list),
            None => oltp_cores_per_socket(config, state),
        };
        let split = CoreSplit::new(&config.topology, per_socket);
        let (oltp_cores, olap_cores) = (split.oltp_cores().len(), split.olap_cores().len());
        self.grant(split);
        let access = match state {
            SystemState::S1Colocated => AccessMethod::OltpSnapshot,
            SystemState::S2Isolated => AccessMethod::OlapLocal,
            SystemState::S3HybridIsolated | SystemState::S3HybridNonIsolated => AccessMethod::Split,
        };
        let etl = state.performs_etl().then(|| self.etl_to_olap());
        MigrationReport {
            state,
            access,
            switch,
            etl,
            oltp_cores,
            olap_cores,
            modeled_time: switch.modeled_time + etl.map_or(0.0, |e| e.modeled_time),
        }
    }

    /// Make `split` the one in force and hand each engine its core list. A
    /// continuously running OLTP ingest pool observes the new grant
    /// mid-flight — revoked workers park, granted workers resume — without
    /// being restarted.
    pub(crate) fn grant(&self, split: CoreSplit) {
        let mut current = self.split.lock();
        self.oltp().worker_manager().set_workers(split.oltp_cores());
        self.olap().set_workers(split.olap_cores());
        *current = split;
    }
}

/// The split the RDE engine boots with: all of socket 0 to OLTP, every other
/// socket to OLAP — the shape of the full-isolation state S2.
pub(crate) fn bootstrap_split(config: &RdeConfig) -> CoreSplit {
    CoreSplit::new(
        &config.topology,
        vec![config.topology.cores_per_socket as usize],
    )
}

/// The per-state table: OLTP cores on each socket (indexed by socket) in
/// `state`.
fn oltp_cores_per_socket(config: &RdeConfig, state: SystemState) -> Vec<usize> {
    let socket_cores = config.topology.cores_per_socket as usize;
    let min = config.oltp_min_cores_per_socket;
    match state {
        SystemState::S1Colocated => vec![min; config.topology.sockets as usize],
        SystemState::S2Isolated | SystemState::S3HybridIsolated => {
            vec![socket_cores; config.oltp_min_sockets]
        }
        SystemState::S3HybridNonIsolated => {
            let mut per_socket = vec![0; config.oltp_socket.index() + 1];
            per_socket[config.oltp_socket.index()] =
                socket_cores.saturating_sub(config.elastic_cores).max(min);
            per_socket
        }
    }
}

/// An explicit `(socket, OLTP cores)` list — the knob the sensitivity sweeps
/// turn — as OLTP cores per socket. A socket listed twice gets both counts;
/// a socket the machine does not have gets nothing.
fn listed_cores_per_socket(config: &RdeConfig, list: &[(SocketId, usize)]) -> Vec<usize> {
    let mut per_socket = vec![0usize; config.topology.sockets as usize];
    for &(socket, n) in list {
        if let Some(count) = per_socket.get_mut(socket.index()) {
            *count = count.saturating_add(n);
        }
    }
    per_socket
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_sim::{CoreId, Topology};
    use htap_storage::{ColumnDef, DataType, TableSchema, Value};
    use std::collections::BTreeMap;

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
                .bulk_load("sales", vec![Value::I64(i as i64), Value::F64(i as f64)])
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
        assert_eq!(rde.olap().store().table("sales").unwrap().row_count(), 200);
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
                .bulk_load("sales", vec![Value::I64(i as i64), Value::F64(0.0)])
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

    #[test]
    fn oltp_minimum_bounds_the_exchange() {
        // Minimum is 4 cores per socket: a DBA asking S3-NI to lend 13 of
        // 14 still leaves OLTP its minimum.
        let greedy = RdeEngine::bootstrap(RdeConfig {
            elastic_cores: 13,
            ..RdeConfig::default()
        });
        let report = greedy.migrate(SystemState::S3HybridNonIsolated);
        assert_eq!(report.oltp_cores, 4, "OLTP never drops below its minimum");
        assert_eq!(report.olap_cores, 28 - 4);
    }

    #[test]
    fn lending_and_returning_cores_updates_both_engines() {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        let wm = rde.oltp().worker_manager();
        // OLTP lends four cores of its socket to the OLAP engine…
        rde.migrate_with(SystemState::S3HybridNonIsolated, Some(&[(SocketId(0), 10)]));
        assert_eq!(rde.txn_work().total_workers(), 10);
        assert_eq!(wm.active_workers(), 10);
        assert_eq!(rde.olap_placement().cores_on(SocketId(0)), 4);
        assert_eq!(rde.olap_worker_count(), 18);
        // …and gets them back.
        rde.migrate_with(SystemState::S3HybridNonIsolated, Some(&[(SocketId(0), 14)]));
        assert_eq!(rde.txn_work().total_workers(), 14);
        assert_eq!(wm.active_workers(), 14);
        assert_eq!(rde.olap_placement().cores_on(SocketId(0)), 0);
    }

    #[test]
    fn socket_assignment_gives_whole_sockets() {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        rde.migrate_with(SystemState::S2Isolated, Some(&[(SocketId(0), 14)]));
        assert_eq!(rde.txn_work().workers_on[&SocketId(0)], 14);
        assert_eq!(rde.txn_work().total_workers(), 14);
        assert_eq!(rde.olap_placement().cores_on(SocketId(0)), 0);
        assert_eq!(rde.olap_placement().cores_on(SocketId(1)), 14);
        // All sockets to OLTP.
        rde.migrate_with(
            SystemState::S1Colocated,
            Some(&[(SocketId(0), 14), (SocketId(1), 14)]),
        );
        assert_eq!(rde.txn_work().total_workers(), 28);
        assert_eq!(rde.olap_placement().total_cores(), 0);
    }

    #[test]
    fn explicit_per_socket_distribution() {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        rde.migrate_with(
            SystemState::S1Colocated,
            Some(&[(SocketId(0), 10), (SocketId(1), 4)]),
        );
        let txn = rde.txn_work();
        assert_eq!(txn.workers_on[&SocketId(0)], 10);
        assert_eq!(txn.workers_on[&SocketId(1)], 4);
        assert_eq!(rde.olap_placement().cores_on(SocketId(0)), 4);
        assert_eq!(rde.olap_placement().cores_on(SocketId(1)), 10);
        assert_eq!(txn.remote_worker_fraction(), 4.0 / 14.0);
    }

    /// `0-3,14-17`: the cores in list order, runs of consecutive ids
    /// collapsed.
    fn core_runs(cores: &[CoreId]) -> String {
        let mut runs: Vec<(u16, u16)> = Vec::new();
        for &CoreId(c) in cores {
            match runs.last_mut() {
                Some((_, end)) if *end + 1 == c => *end = c,
                _ => runs.push((c, c)),
            }
        }
        let runs: Vec<String> = runs
            .into_iter()
            .map(|(a, b)| {
                if a == b {
                    a.to_string()
                } else {
                    format!("{a}-{b}")
                }
            })
            .collect();
        runs.join(",")
    }

    fn socket_counts(counts: &BTreeMap<SocketId, usize>) -> String {
        let counts: Vec<String> = counts
            .iter()
            .map(|(s, n)| format!("s{}:{n}", s.0))
            .collect();
        counts.join(",")
    }

    /// Every value a grant sets, on one line: the OLTP worker→core list, the
    /// OLAP team's core list, `txn_work()`, `olap_placement()`, the report's
    /// core counts and `describe_resources()`.
    fn render(rde: &RdeEngine, report: Option<&MigrationReport>) -> String {
        format!(
            "oltp [{}] olap [{}] txn {{{}}} placement {{{}}} report {} | {}",
            core_runs(&rde.oltp().worker_manager().affinity()),
            core_runs(rde.olap().team().cores()),
            socket_counts(&rde.txn_work().workers_on),
            socket_counts(&rde.olap_placement().cores_on),
            report.map_or("-".to_string(), |r| format!(
                "{}/{}",
                r.oltp_cores, r.olap_cores
            )),
            rde.describe_resources()
        )
    }

    /// A benchmark configuration: two sockets of `cores_per_socket`, OLTP
    /// minimum 1, nothing lendable.
    fn bench_config(cores_per_socket: u16) -> RdeConfig {
        RdeConfig {
            topology: Topology {
                cores_per_socket,
                ..Topology::two_socket()
            },
            oltp_min_cores_per_socket: 1,
            elastic_cores: 0,
            ..RdeConfig::default()
        }
    }

    /// Expected grants, recorded from the per-core owner pool this split
    /// replaced. Core ids and their order reach `sched_setaffinity` and the
    /// ingest pool's worker→core mapping, so they are behaviour: any change
    /// here is a change of what runs where.
    const GOLDEN: &[(&str, &str)] = &[
        (
            "paper bootstrap",
            "oltp [0-13] olap [14-27] txn {s0:14} placement {s1:14} report - | OLTP: 14 (s0:14) | OLAP: 14 (s1:14)",
        ),
        (
            "paper S1",
            "oltp [0-3,14-17] olap [4-13,18-27] txn {s0:4,s1:4} placement {s0:10,s1:10} report 8/20 | OLTP: 8 (s0:4,s1:4) | OLAP: 20 (s0:10,s1:10)",
        ),
        (
            "paper S2",
            "oltp [0-13] olap [14-27] txn {s0:14} placement {s1:14} report 14/14 | OLTP: 14 (s0:14) | OLAP: 14 (s1:14)",
        ),
        (
            "paper S3-IS",
            "oltp [0-13] olap [14-27] txn {s0:14} placement {s1:14} report 14/14 | OLTP: 14 (s0:14) | OLAP: 14 (s1:14)",
        ),
        (
            "paper S3-NI",
            "oltp [0-9] olap [10-27] txn {s0:10} placement {s0:4,s1:14} report 10/18 | OLTP: 10 (s0:10) | OLAP: 18 (s0:4,s1:14)",
        ),
        (
            "paper fig3a 0",
            "oltp [0-13] olap [14-27] txn {s0:14} placement {s1:14} report 14/14 | OLTP: 14 (s0:14) | OLAP: 14 (s1:14)",
        ),
        (
            "paper fig3a 1",
            "oltp [0-12,14] olap [13,15-27] txn {s0:13,s1:1} placement {s0:1,s1:13} report 14/14 | OLTP: 14 (s0:13,s1:1) | OLAP: 14 (s0:1,s1:13)",
        ),
        (
            "paper fig3a 2",
            "oltp [0-11,14-15] olap [12-13,16-27] txn {s0:12,s1:2} placement {s0:2,s1:12} report 14/14 | OLTP: 14 (s0:12,s1:2) | OLAP: 14 (s0:2,s1:12)",
        ),
        (
            "paper fig3a 4",
            "oltp [0-9,14-17] olap [10-13,18-27] txn {s0:10,s1:4} placement {s0:4,s1:10} report 14/14 | OLTP: 14 (s0:10,s1:4) | OLAP: 14 (s0:4,s1:10)",
        ),
        (
            "paper fig3a 6",
            "oltp [0-7,14-19] olap [8-13,20-27] txn {s0:8,s1:6} placement {s0:6,s1:8} report 14/14 | OLTP: 14 (s0:8,s1:6) | OLAP: 14 (s0:6,s1:8)",
        ),
        (
            "paper fig3a 8",
            "oltp [0-5,14-21] olap [6-13,22-27] txn {s0:6,s1:8} placement {s0:8,s1:6} report 14/14 | OLTP: 14 (s0:6,s1:8) | OLAP: 14 (s0:8,s1:6)",
        ),
        (
            "paper fig3a 10",
            "oltp [0-3,14-23] olap [4-13,24-27] txn {s0:4,s1:10} placement {s0:10,s1:4} report 14/14 | OLTP: 14 (s0:4,s1:10) | OLAP: 14 (s0:10,s1:4)",
        ),
        (
            "paper fig3a 12",
            "oltp [0-1,14-25] olap [2-13,26-27] txn {s0:2,s1:12} placement {s0:12,s1:2} report 14/14 | OLTP: 14 (s0:2,s1:12) | OLAP: 14 (s0:12,s1:2)",
        ),
        (
            "paper fig3a 14",
            "oltp [14-27] olap [0-13] txn {s1:14} placement {s0:14} report 14/14 | OLTP: 14 (s1:14) | OLAP: 14 (s0:14)",
        ),
        (
            "paper fig3c 0",
            "oltp [0-13] olap [14-27] txn {s0:14} placement {s1:14} report 14/14 | OLTP: 14 (s0:14) | OLAP: 14 (s1:14)",
        ),
        (
            "paper fig3c 2",
            "oltp [0-11] olap [12-27] txn {s0:12} placement {s0:2,s1:14} report 12/16 | OLTP: 12 (s0:12) | OLAP: 16 (s0:2,s1:14)",
        ),
        (
            "paper fig3c 4",
            "oltp [0-9] olap [10-27] txn {s0:10} placement {s0:4,s1:14} report 10/18 | OLTP: 10 (s0:10) | OLAP: 18 (s0:4,s1:14)",
        ),
        (
            "paper fig3c 6",
            "oltp [0-7] olap [8-27] txn {s0:8} placement {s0:6,s1:14} report 8/20 | OLTP: 8 (s0:8) | OLAP: 20 (s0:6,s1:14)",
        ),
        (
            "paper fig3c 8",
            "oltp [0-5] olap [6-27] txn {s0:6} placement {s0:8,s1:14} report 6/22 | OLTP: 6 (s0:6) | OLAP: 22 (s0:8,s1:14)",
        ),
        (
            "paper fig3c 10",
            "oltp [0-3] olap [4-27] txn {s0:4} placement {s0:10,s1:14} report 4/24 | OLTP: 4 (s0:4) | OLAP: 24 (s0:10,s1:14)",
        ),
        (
            "four bootstrap",
            "oltp [0-13] olap [14-55] txn {s0:14} placement {s1:14,s2:14,s3:14} report - | OLTP: 14 (s0:14) | OLAP: 42 (s1:14,s2:14,s3:14)",
        ),
        (
            "four S1",
            "oltp [0-3,14-17,28-31,42-45] olap [4-13,18-27,32-41,46-55] txn {s0:4,s1:4,s2:4,s3:4} placement {s0:10,s1:10,s2:10,s3:10} report 16/40 | OLTP: 16 (s0:4,s1:4,s2:4,s3:4) | OLAP: 40 (s0:10,s1:10,s2:10,s3:10)",
        ),
        (
            "four S2",
            "oltp [0-13] olap [14-55] txn {s0:14} placement {s1:14,s2:14,s3:14} report 14/42 | OLTP: 14 (s0:14) | OLAP: 42 (s1:14,s2:14,s3:14)",
        ),
        (
            "four S3-IS",
            "oltp [0-13] olap [14-55] txn {s0:14} placement {s1:14,s2:14,s3:14} report 14/42 | OLTP: 14 (s0:14) | OLAP: 42 (s1:14,s2:14,s3:14)",
        ),
        (
            "four S3-NI",
            "oltp [0-9] olap [10-55] txn {s0:10} placement {s0:4,s1:14,s2:14,s3:14} report 10/46 | OLTP: 10 (s0:10) | OLAP: 46 (s0:4,s1:14,s2:14,s3:14)",
        ),
        (
            "tiny bootstrap",
            "oltp [0-1] olap [2-3] txn {s0:2} placement {s1:2} report - | OLTP: 2 (s0:2) | OLAP: 2 (s1:2)",
        ),
        (
            "tiny S1",
            "oltp [0-3] olap [] txn {s0:2,s1:2} placement {} report 4/0 | OLTP: 4 (s0:2,s1:2)",
        ),
        (
            "tiny S2",
            "oltp [0-1] olap [2-3] txn {s0:2} placement {s1:2} report 2/2 | OLTP: 2 (s0:2) | OLAP: 2 (s1:2)",
        ),
        (
            "tiny S3-IS",
            "oltp [0-1] olap [2-3] txn {s0:2} placement {s1:2} report 2/2 | OLTP: 2 (s0:2) | OLAP: 2 (s1:2)",
        ),
        (
            "tiny S3-NI",
            "oltp [0-1] olap [2-3] txn {s0:2} placement {s1:2} report 2/2 | OLTP: 2 (s0:2) | OLAP: 2 (s1:2)",
        ),
        (
            "bench_one bootstrap",
            "oltp [0-1] olap [2-3] txn {s0:2} placement {s1:2} report - | OLTP: 2 (s0:2) | OLAP: 2 (s1:2)",
        ),
        (
            "bench_one S1",
            "oltp [0,2] olap [1,3] txn {s0:1,s1:1} placement {s0:1,s1:1} report 2/2 | OLTP: 2 (s0:1,s1:1) | OLAP: 2 (s0:1,s1:1)",
        ),
        (
            "bench_one S2",
            "oltp [0-1] olap [2-3] txn {s0:2} placement {s1:2} report 2/2 | OLTP: 2 (s0:2) | OLAP: 2 (s1:2)",
        ),
        (
            "bench_one S3-IS",
            "oltp [0-1] olap [2-3] txn {s0:2} placement {s1:2} report 2/2 | OLTP: 2 (s0:2) | OLAP: 2 (s1:2)",
        ),
        (
            "bench_one S3-NI",
            "oltp [0-1] olap [2-3] txn {s0:2} placement {s1:2} report 2/2 | OLTP: 2 (s0:2) | OLAP: 2 (s1:2)",
        ),
        (
            "bench_both bootstrap",
            "oltp [0] olap [1] txn {s0:1} placement {s1:1} report - | OLTP: 1 (s0:1) | OLAP: 1 (s1:1)",
        ),
        (
            "bench_both S1",
            "oltp [0-1] olap [] txn {s0:1,s1:1} placement {} report 2/0 | OLTP: 2 (s0:1,s1:1)",
        ),
        (
            "bench_both S2",
            "oltp [0] olap [1] txn {s0:1} placement {s1:1} report 1/1 | OLTP: 1 (s0:1) | OLAP: 1 (s1:1)",
        ),
        (
            "bench_both S3-IS",
            "oltp [0] olap [1] txn {s0:1} placement {s1:1} report 1/1 | OLTP: 1 (s0:1) | OLAP: 1 (s1:1)",
        ),
        (
            "bench_both S3-NI",
            "oltp [0] olap [1] txn {s0:1} placement {s1:1} report 1/1 | OLTP: 1 (s0:1) | OLAP: 1 (s1:1)",
        ),
    ];

    #[test]
    fn grants_match_the_golden_table() {
        let configs = [
            ("paper", RdeConfig::default()),
            (
                "four",
                RdeConfig {
                    topology: Topology::four_socket(),
                    ..RdeConfig::default()
                },
            ),
            (
                "tiny",
                RdeConfig {
                    topology: Topology::tiny(),
                    ..RdeConfig::default()
                },
            ),
            ("bench_one", bench_config(2)),
            ("bench_both", bench_config(1)),
        ];
        let mut actual = Vec::new();
        for (name, config) in configs {
            let rde = RdeEngine::bootstrap(config);
            actual.push((format!("{name} bootstrap"), render(&rde, None)));
            for state in SystemState::all() {
                let report = rde.migrate(state);
                actual.push((format!("{name} {state}"), render(&rde, Some(&report))));
            }
            if name != "paper" {
                continue;
            }
            // The Figure 3(a) and 3(c) sweeps' explicit lists.
            for traded in [0usize, 1, 2, 4, 6, 8, 10, 12, 14] {
                let list = [(SocketId(0), 14 - traded), (SocketId(1), traded)];
                let report = rde.migrate_with(SystemState::S1Colocated, Some(&list));
                actual.push((
                    format!("{name} fig3a {traded}"),
                    render(&rde, Some(&report)),
                ));
            }
            for borrowed in [0usize, 2, 4, 6, 8, 10] {
                let list = [(SocketId(0), 14 - borrowed)];
                let report = rde.migrate_with(SystemState::S3HybridNonIsolated, Some(&list));
                actual.push((
                    format!("{name} fig3c {borrowed}"),
                    render(&rde, Some(&report)),
                ));
            }
        }
        assert_eq!(actual.len(), GOLDEN.len());
        for ((key, grant), &(golden_key, golden)) in actual.iter().zip(GOLDEN) {
            assert_eq!(key, golden_key);
            assert_eq!(grant, golden, "grant of {key}");
        }
    }
}
