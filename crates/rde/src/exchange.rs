//! Resource exchange: distributing CPU cores between the engines.
//!
//! "Following the common approach in cloud computing, we assume that CPU and
//! memory resources are split in two sets: the first is exclusively given to
//! each engine, and the second can be traded between them. The distribution of
//! resources between the engines is decided by the RDE engine" (§3.1).
//! Every state of Algorithm 1 is one such distribution (see
//! [`crate::migration`]); the sensitivity sweeps pass their own.

use crate::engine::RdeEngine;
use htap_sim::{EngineId, ResourcePool, SocketId};

impl RdeEngine {
    /// Push the pool's assignment into both engines' worker managers. A
    /// continuously running OLTP ingest pool observes the new grant
    /// mid-flight — revoked workers park, granted workers resume — without
    /// being restarted.
    pub(crate) fn apply_grant(&self, pool: &ResourcePool) {
        self.oltp()
            .worker_manager()
            .set_workers(&pool.cores_of(EngineId::Oltp));
        self.olap().set_workers(pool.cores_of(EngineId::Olap));
    }

    /// Give the OLTP engine `n` cores on each listed socket (a whole socket
    /// when `n` is its core count) and every remaining core to the OLAP
    /// engine, then apply the grant to both engines.
    pub fn set_oltp_cores_per_socket(&self, per_socket: &[(SocketId, usize)]) {
        let mut pool = self.pool.lock();
        let topo = pool.topology().clone();
        for socket in topo.socket_ids() {
            pool.assign_socket(socket, EngineId::Olap);
        }
        for &(socket, n) in per_socket {
            let n = n.min(topo.cores_per_socket as usize);
            if n > 0 {
                pool.transfer(socket, EngineId::Olap, EngineId::Oltp, n)
                    .expect("socket fully owned by OLAP before transfer");
            }
        }
        self.apply_grant(&pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RdeConfig;
    use crate::state::SystemState;

    fn rde() -> RdeEngine {
        RdeEngine::bootstrap(RdeConfig::default())
    }

    #[test]
    fn lending_and_returning_cores_updates_both_engines() {
        let rde = rde();
        let wm = rde.oltp().worker_manager();
        // OLTP lends four cores of its socket to the OLAP engine…
        rde.set_oltp_cores_per_socket(&[(SocketId(0), 10)]);
        assert_eq!(rde.txn_work().total_workers(), 10);
        assert_eq!(wm.active_workers(), 10);
        assert_eq!(rde.olap_placement().cores_on(SocketId(0)), 4);
        assert_eq!(rde.olap_worker_count(), 18);
        // …and gets them back.
        rde.set_oltp_cores_per_socket(&[(SocketId(0), 14)]);
        assert_eq!(rde.txn_work().total_workers(), 14);
        assert_eq!(wm.active_workers(), 14);
        assert_eq!(rde.olap_placement().cores_on(SocketId(0)), 0);
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
    fn socket_assignment_gives_whole_sockets() {
        let rde = rde();
        rde.set_oltp_cores_per_socket(&[(SocketId(0), 14)]);
        assert_eq!(rde.txn_work().workers_on[&SocketId(0)], 14);
        assert_eq!(rde.txn_work().total_workers(), 14);
        assert_eq!(rde.olap_placement().cores_on(SocketId(0)), 0);
        assert_eq!(rde.olap_placement().cores_on(SocketId(1)), 14);
        // All sockets to OLTP.
        rde.set_oltp_cores_per_socket(&[(SocketId(0), 14), (SocketId(1), 14)]);
        assert_eq!(rde.txn_work().total_workers(), 28);
        assert_eq!(rde.olap_placement().total_cores(), 0);
    }

    #[test]
    fn explicit_per_socket_distribution() {
        let rde = rde();
        rde.set_oltp_cores_per_socket(&[(SocketId(0), 10), (SocketId(1), 4)]);
        let txn = rde.txn_work();
        assert_eq!(txn.workers_on[&SocketId(0)], 10);
        assert_eq!(txn.workers_on[&SocketId(1)], 4);
        assert_eq!(rde.olap_placement().cores_on(SocketId(0)), 4);
        assert_eq!(rde.olap_placement().cores_on(SocketId(1)), 10);
        assert_eq!(txn.remote_worker_fraction(), 4.0 / 14.0);
    }
}
