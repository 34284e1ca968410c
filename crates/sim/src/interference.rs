//! Interference model: how concurrent analytical execution and worker
//! placement affect transactional throughput.
//!
//! The paper distinguishes (§2.2, §5.2) four sources of OLTP slowdown:
//!
//! 1. **Lost cores** — cores lent to the OLAP engine no longer run workers.
//! 2. **Remote workers / cross-socket atomics** — workers scheduled on a
//!    socket other than the one holding the OLTP data pay remote latency for
//!    every index and record access, and the shared lock/index structures pay
//!    cross-socket cache-coherence traffic ("up to 37%" in Figure 3(a) when
//!    the workers have spread half-way).
//! 3. **Memory-bandwidth interference** — analytical scans of the OLTP-socket
//!    DRAM starve the random accesses of the workers ("up to 55%" with
//!    concurrent OLAP in Figure 3(a), i.e. about 20 additional points).
//! 4. **Cache interference** — OLAP pipelines co-located on the OLTP socket
//!    evict OLTP working-set lines from the shared LLC.
//!
//! [`InterferenceModel::oltp_throughput`] composes those effects
//! multiplicatively per worker and sums across workers.

use crate::bandwidth::{BandwidthModel, Stream};
use crate::cost::TxnWork;
use crate::topology::{SocketId, Topology};

/// Description of the analytical traffic concurrently active in the system,
/// as seen by the transactional engine.
#[derive(Debug, Clone, Default)]
pub struct OlapTraffic {
    /// The sequential streams the OLAP engine is driving (output of
    /// [`crate::CostModel::olap_streams`]).
    pub streams: Vec<Stream>,
    /// Number of OLAP cores running on each socket (for the cache term).
    pub cores_on: std::collections::BTreeMap<SocketId, usize>,
}

impl OlapTraffic {
    /// No concurrent analytical activity.
    pub fn idle() -> Self {
        Self::default()
    }

    /// Traffic built from streams and a per-socket core count map.
    pub fn new(
        streams: Vec<Stream>,
        cores_on: std::collections::BTreeMap<SocketId, usize>,
    ) -> Self {
        OlapTraffic { streams, cores_on }
    }

    /// OLAP cores on a given socket.
    pub fn cores_on(&self, socket: SocketId) -> usize {
        self.cores_on.get(&socket).copied().unwrap_or(0)
    }
}

/// Decomposition of the modelled OLTP slowdown, useful for reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OltpSlowdown {
    /// Throughput multiplier from worker data locality (1.0 = all local).
    pub locality_factor: f64,
    /// Throughput multiplier from cross-socket atomics on shared structures.
    pub atomics_factor: f64,
    /// Throughput multiplier from memory-bandwidth contention with OLAP.
    pub bandwidth_factor: f64,
    /// Throughput multiplier from LLC interference with co-located OLAP cores.
    pub cache_factor: f64,
}

impl OltpSlowdown {
    /// The combined multiplier.
    pub fn combined(&self) -> f64 {
        self.locality_factor * self.atomics_factor * self.bandwidth_factor * self.cache_factor
    }
}

/// Tunable constants of the interference model.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceParams {
    /// Throughput of a worker whose data is on a remote socket, relative to a
    /// local worker (captures remote latency on the index/record path).
    pub remote_worker_factor: f64,
    /// Maximum throughput loss from cross-socket atomics when workers are
    /// spread evenly across sockets.
    pub atomics_spread_penalty: f64,
    /// Maximum throughput loss from OLAP bandwidth pressure on the data socket.
    pub bandwidth_penalty: f64,
    /// Maximum throughput loss from sharing the LLC with OLAP cores on the
    /// same socket.
    pub cache_penalty: f64,
}

impl Default for InterferenceParams {
    fn default() -> Self {
        InterferenceParams {
            remote_worker_factor: 0.68,
            atomics_spread_penalty: 0.22,
            bandwidth_penalty: 0.26,
            cache_penalty: 0.08,
        }
    }
}

/// Model of transactional throughput under concurrent analytical execution.
#[derive(Debug, Clone)]
pub struct InterferenceModel {
    topology: Topology,
    bandwidth: BandwidthModel,
    params: InterferenceParams,
}

impl InterferenceModel {
    /// Build a model with default parameters.
    pub fn new(topology: Topology) -> Self {
        InterferenceModel {
            bandwidth: BandwidthModel::new(topology.clone()),
            topology,
            params: InterferenceParams::default(),
        }
    }

    /// Per-worker slowdown decomposition for workers running on `worker_socket`.
    pub fn slowdown(
        &self,
        txn: &TxnWork,
        worker_socket: SocketId,
        olap: &OlapTraffic,
    ) -> OltpSlowdown {
        // 1. Locality: remote workers pay remote latency on every access.
        let locality_factor = if worker_socket == txn.data_socket {
            1.0
        } else {
            self.params.remote_worker_factor
        };

        // 2. Cross-socket atomics: grows with how evenly the workers are
        // spread across sockets (maximal at a 50/50 split).
        let remote_fraction = txn.remote_worker_fraction();
        let spread =
            2.0 * remote_fraction * (1.0 - remote_fraction) + remote_fraction * remote_fraction;
        let atomics_factor = 1.0 - self.params.atomics_spread_penalty * spread.min(1.0);

        // 3. Bandwidth: how much of the data socket's DRAM bandwidth the OLAP
        // streams are consuming. Allocate jointly so the share reflects the
        // contention outcome, not the raw demand.
        let bandwidth_factor = if olap.streams.is_empty() {
            1.0
        } else {
            let mut all = olap.streams.clone();
            let olap_count = all.len();
            all.extend(txn.streams());
            let alloc = self.bandwidth.allocate(&all);
            let olap_on_data_socket: f64 = (0..olap_count)
                .filter(|&i| all[i].source == txn.data_socket)
                .map(|i| alloc.rate(i))
                .sum();
            let share = (olap_on_data_socket / self.topology.dram_bandwidth_gbps).clamp(0.0, 1.0);
            1.0 - self.params.bandwidth_penalty * share
        };

        // 4. Cache: OLAP cores co-located on the worker's socket evict OLTP
        // working-set lines.
        let olap_cores_here = olap.cores_on(worker_socket);
        let share = olap_cores_here as f64 / self.topology.cores_per_socket as f64;
        let cache_factor = 1.0 - self.params.cache_penalty * share.clamp(0.0, 1.0);

        OltpSlowdown {
            locality_factor,
            atomics_factor,
            bandwidth_factor,
            cache_factor,
        }
    }

    /// Modelled transactional throughput (transactions per second) for the
    /// given worker placement and concurrent analytical traffic.
    pub fn oltp_throughput(&self, txn: &TxnWork, olap: &OlapTraffic) -> f64 {
        let mut tps = 0.0;
        for (&socket, &workers) in &txn.workers_on {
            if workers == 0 {
                continue;
            }
            let slowdown = self.slowdown(txn, socket, olap);
            tps += workers as f64 * txn.base_tps_per_worker * slowdown.combined();
        }
        tps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::Stream;
    use std::collections::BTreeMap;

    const S0: SocketId = SocketId(0);
    const S1: SocketId = SocketId(1);

    fn model() -> InterferenceModel {
        InterferenceModel::new(Topology::two_socket())
    }

    fn txn_local(workers: usize) -> TxnWork {
        TxnWork::colocated(S0, workers, 85_000.0)
    }

    fn olap_scanning_socket0(cores_on_s0: usize, cores_on_s1: usize) -> OlapTraffic {
        let mut streams = Vec::new();
        if cores_on_s0 > 0 {
            streams.push(Stream::sequential(S0, S0, cores_on_s0));
        }
        if cores_on_s1 > 0 {
            streams.push(Stream::sequential(S0, S1, cores_on_s1));
        }
        let mut cores = BTreeMap::new();
        cores.insert(S0, cores_on_s0);
        cores.insert(S1, cores_on_s1);
        OlapTraffic::new(streams, cores)
    }

    #[test]
    fn idle_olap_and_local_workers_run_at_base_rate() {
        let m = model();
        let tps = m.oltp_throughput(&txn_local(14), &OlapTraffic::idle());
        assert!((tps - 14.0 * 85_000.0).abs() < 1.0);
    }

    #[test]
    fn throughput_scales_with_workers() {
        let m = model();
        let t7 = m.oltp_throughput(&txn_local(7), &OlapTraffic::idle());
        let t14 = m.oltp_throughput(&txn_local(14), &OlapTraffic::idle());
        assert!((t14 / t7 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn spreading_workers_without_olap_costs_tens_of_percent() {
        // Figure 3(a), striped bars: trading half the CPUs drops OLTP-only
        // throughput by up to ~37%.
        let m = model();
        let mut txn = txn_local(7);
        txn.workers_on.insert(S1, 7);
        let base = m.oltp_throughput(&txn_local(14), &OlapTraffic::idle());
        let spread = m.oltp_throughput(&txn, &OlapTraffic::idle());
        let drop = 1.0 - spread / base;
        assert!(
            drop > 0.15 && drop < 0.45,
            "expected a 15-45% drop, got {drop}"
        );
    }

    #[test]
    fn concurrent_olap_adds_bandwidth_and_cache_interference() {
        // Figure 3(a), filled bars: with OLAP running the drop reaches ~55%,
        // i.e. roughly 20 additional points over the OLTP-only case.
        let m = model();
        let mut txn = txn_local(7);
        txn.workers_on.insert(S1, 7);
        let olap = olap_scanning_socket0(7, 7);
        let base = m.oltp_throughput(&txn_local(14), &OlapTraffic::idle());
        let without_olap = m.oltp_throughput(&txn, &OlapTraffic::idle());
        let with_olap = m.oltp_throughput(&txn, &olap);
        assert!(with_olap < without_olap);
        let total_drop = 1.0 - with_olap / base;
        assert!(
            total_drop > 0.3 && total_drop < 0.65,
            "expected 30-65% drop, got {total_drop}"
        );
        let extra = (without_olap - with_olap) / base;
        assert!(
            extra > 0.05 && extra < 0.35,
            "extra interference should be tens of percent, got {extra}"
        );
    }

    #[test]
    fn isolated_olap_on_remote_socket_barely_hurts() {
        // State S2: OLAP scans its own socket; OLTP keeps its bus to itself.
        let m = model();
        let txn = txn_local(14);
        let mut cores = BTreeMap::new();
        cores.insert(S1, 14usize);
        let olap = OlapTraffic::new(vec![Stream::sequential(S1, S1, 14)], cores);
        let idle = m.oltp_throughput(&txn, &OlapTraffic::idle());
        let busy = m.oltp_throughput(&txn, &olap);
        assert!(
            (idle - busy) / idle < 0.02,
            "isolated OLAP should not hurt OLTP"
        );
    }

    #[test]
    fn remote_reads_of_fresh_data_hurt_less_than_colocation() {
        // S3-IS (reads over the interconnect) vs S1/S3-NI (cores on the OLTP socket).
        let m = model();
        let txn = txn_local(14);
        let remote_reader = olap_scanning_socket0(0, 14);
        let colocated = olap_scanning_socket0(7, 7);
        let t_remote = m.oltp_throughput(&txn, &remote_reader);
        let t_coloc = m.oltp_throughput(&txn, &colocated);
        assert!(
            t_remote > t_coloc,
            "remote access should interfere less: {t_remote} vs {t_coloc}"
        );
    }

    #[test]
    fn slowdown_factors_are_within_unit_interval() {
        let m = model();
        let mut txn = txn_local(10);
        txn.workers_on.insert(S1, 4);
        let olap = olap_scanning_socket0(4, 10);
        for socket in [S0, S1] {
            let s = m.slowdown(&txn, socket, &olap);
            for f in [
                s.locality_factor,
                s.atomics_factor,
                s.bandwidth_factor,
                s.cache_factor,
            ] {
                assert!(f > 0.0 && f <= 1.0, "factor out of range: {s:?}");
            }
            assert!(s.combined() > 0.0 && s.combined() <= 1.0);
        }
    }

    #[test]
    fn zero_workers_produce_zero_throughput() {
        let m = model();
        let txn = TxnWork::colocated(S0, 0, 85_000.0);
        assert_eq!(m.oltp_throughput(&txn, &OlapTraffic::idle()), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::bandwidth::Stream;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const S0: SocketId = SocketId(0);
    const S1: SocketId = SocketId(1);

    proptest! {
        /// Adding analytical traffic can only decrease transactional throughput.
        #[test]
        fn olap_traffic_never_helps_oltp(
            local in 0usize..14,
            remote in 0usize..14,
            olap_s0 in 0usize..14,
            olap_s1 in 0usize..14,
        ) {
            let m = InterferenceModel::new(Topology::two_socket());
            let mut txn = TxnWork::colocated(S0, local, 85_000.0);
            txn.workers_on.insert(S1, remote);
            let mut streams = Vec::new();
            if olap_s0 > 0 { streams.push(Stream::sequential(S0, S0, olap_s0)); }
            if olap_s1 > 0 { streams.push(Stream::sequential(S0, S1, olap_s1)); }
            let mut cores = BTreeMap::new();
            cores.insert(S0, olap_s0);
            cores.insert(S1, olap_s1);
            let olap = OlapTraffic::new(streams, cores);
            let idle = m.oltp_throughput(&txn, &OlapTraffic::idle());
            let busy = m.oltp_throughput(&txn, &olap);
            prop_assert!(busy <= idle + 1e-6);
            prop_assert!(busy >= 0.0);
        }

        /// Throughput is monotone in the number of local workers.
        #[test]
        fn more_local_workers_more_throughput(w in 0usize..14) {
            let m = InterferenceModel::new(Topology::two_socket());
            let a = m.oltp_throughput(&TxnWork::colocated(S0, w, 85_000.0), &OlapTraffic::idle());
            let b = m.oltp_throughput(&TxnWork::colocated(S0, w + 1, 85_000.0), &OlapTraffic::idle());
            prop_assert!(b > a);
        }
    }
}
