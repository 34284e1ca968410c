//! Sharing of DRAM and interconnect bandwidth among concurrent access streams.
//!
//! The paper's performance arguments are bandwidth arguments: analytical scans
//! saturate the DRAM bus of the socket holding the data, the cross-socket
//! interconnect sustains roughly a third of DRAM bandwidth, and transactional
//! workers issue random accesses that use only a small fraction of the bus but
//! suffer when scans occupy it (§3.4, §5.2). This module captures exactly that
//! mechanism: every concurrent activity is described as a [`Stream`] (source
//! socket, consuming cores, sequential or random), and [`BandwidthModel`]
//! computes a *demand-weighted max-min fair* allocation subject to three kinds
//! of capacity constraints:
//!
//! 1. per-socket DRAM bandwidth (all streams sourced from that socket),
//! 2. per-directed-link interconnect bandwidth (streams whose consumer socket
//!    differs from the source socket),
//! 3. per-stream demand (number of consuming cores × per-core achievable
//!    bandwidth for the stream's access class).
//!
//! Weighting by demand makes sequential scans dominate random-access streams
//! on a contended bus, which is what real memory controllers do and what the
//! paper observes ("bandwidth-intensive OLAP can starve OLTP").

use crate::topology::{SocketId, Topology};
use crate::GBps;

/// Index of a stream in the slice passed to [`BandwidthModel::allocate`].
pub type StreamId = usize;

/// Memory-access behaviour of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamClass {
    /// Long sequential scans (OLAP pipelines, ETL copies).
    Sequential,
    /// Point reads/writes (OLTP transactions, join probes).
    Random,
}

/// One concurrent memory-access activity.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Socket whose DRAM holds the accessed data.
    pub source: SocketId,
    /// Socket on which the consuming cores run.
    pub consumer: SocketId,
    /// Number of cores driving the stream.
    pub cores: usize,
    /// Access class, which determines per-core achievable bandwidth.
    pub class: StreamClass,
}

impl Stream {
    /// Sequential stream helper.
    pub fn sequential(source: SocketId, consumer: SocketId, cores: usize) -> Self {
        Stream {
            source,
            consumer,
            cores,
            class: StreamClass::Sequential,
        }
    }

    /// Random-access stream helper.
    pub fn random(source: SocketId, consumer: SocketId, cores: usize) -> Self {
        Stream {
            source,
            consumer,
            cores,
            class: StreamClass::Random,
        }
    }

    /// Whether the stream crosses the socket interconnect.
    pub fn is_remote(&self) -> bool {
        self.source != self.consumer
    }
}

/// Result of a bandwidth allocation: one rate per input stream, in GB/s.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAllocation {
    rates: Vec<GBps>,
}

impl StreamAllocation {
    /// Allocated bandwidth of stream `id`.
    pub fn rate(&self, id: StreamId) -> GBps {
        self.rates[id]
    }

    /// Allocated rates for all streams, in input order.
    pub fn rates(&self) -> &[GBps] {
        &self.rates
    }
}

/// Demand-weighted max-min fair bandwidth allocator over a [`Topology`].
#[derive(Debug, Clone)]
pub struct BandwidthModel {
    topology: Topology,
}

impl BandwidthModel {
    /// Build a model for the given machine.
    pub fn new(topology: Topology) -> Self {
        BandwidthModel { topology }
    }

    /// The topology the model was built for.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Demand (= weight) of a stream: how much bandwidth it could consume if
    /// it were alone on the machine.
    pub fn demand(&self, stream: &Stream) -> GBps {
        let per_core = match stream.class {
            StreamClass::Sequential => self.topology.per_core_scan_bandwidth_gbps,
            StreamClass::Random => self.topology.per_core_random_bandwidth_gbps,
        };
        let mut demand = per_core * stream.cores as f64;
        // A stream that crosses the interconnect can never demand more than
        // one link's worth of bandwidth.
        if stream.is_remote() {
            demand = demand.min(self.topology.interconnect_bandwidth_gbps);
        }
        demand.min(self.topology.dram_bandwidth_gbps)
    }

    /// Allocate bandwidth to the given concurrent streams.
    ///
    /// The allocation is *demand-weighted max-min fair*: all streams grow
    /// proportionally to their demand until a constraint (socket DRAM,
    /// interconnect link, or the stream's own demand) saturates; saturated
    /// streams are frozen and the remaining ones keep growing.
    pub fn allocate(&self, streams: &[Stream]) -> StreamAllocation {
        let n = streams.len();
        let mut rates = vec![0.0; n];
        if n == 0 {
            return StreamAllocation { rates };
        }

        let demands: Vec<GBps> = streams.iter().map(|s| self.demand(s)).collect();
        let mut frozen: Vec<bool> = demands.iter().map(|&d| d <= 0.0).collect();

        // Constraint bookkeeping: socket DRAM and directed interconnect links.
        let sockets = self.topology.socket_ids();
        let dram_members = |socket: SocketId| -> Vec<StreamId> {
            streams
                .iter()
                .enumerate()
                .filter(|(_, s)| s.source == socket)
                .map(|(i, _)| i)
                .collect()
        };
        let link_members = |from: SocketId, to: SocketId| -> Vec<StreamId> {
            streams
                .iter()
                .enumerate()
                .filter(|(_, s)| s.source == from && s.consumer == to && s.is_remote())
                .map(|(i, _)| i)
                .collect()
        };

        // Progressive filling: grow the common scaling factor `level`, where
        // stream i's rate is level * demand_i, until a constraint binds.
        // Repeat on the unfrozen remainder.
        for _round in 0..(n + sockets.len() * sockets.len() + 2) {
            if frozen.iter().all(|&f| f) {
                break;
            }
            // Maximum additional level permitted by each constraint.
            let mut max_dlevel = f64::INFINITY;

            // Per-stream demand constraints.
            for i in 0..n {
                if frozen[i] {
                    continue;
                }
                let headroom = demands[i] - rates[i];
                max_dlevel = max_dlevel.min(headroom / demands[i]);
            }
            // Socket DRAM constraints.
            for &s in &sockets {
                let members = dram_members(s);
                let active_demand: f64 = members
                    .iter()
                    .filter(|&&i| !frozen[i])
                    .map(|&i| demands[i])
                    .sum();
                if active_demand <= 0.0 {
                    continue;
                }
                let used: f64 = members.iter().map(|&i| rates[i]).sum();
                let headroom = (self.topology.dram_bandwidth_gbps - used).max(0.0);
                max_dlevel = max_dlevel.min(headroom / active_demand);
            }
            // Interconnect link constraints.
            for &from in &sockets {
                for &to in &sockets {
                    if from == to {
                        continue;
                    }
                    let members = link_members(from, to);
                    let active_demand: f64 = members
                        .iter()
                        .filter(|&&i| !frozen[i])
                        .map(|&i| demands[i])
                        .sum();
                    if active_demand <= 0.0 {
                        continue;
                    }
                    let used: f64 = members.iter().map(|&i| rates[i]).sum();
                    let headroom = (self.topology.interconnect_bandwidth_gbps - used).max(0.0);
                    max_dlevel = max_dlevel.min(headroom / active_demand);
                }
            }

            if !max_dlevel.is_finite() {
                break;
            }

            // Apply the growth.
            for i in 0..n {
                if !frozen[i] {
                    rates[i] += max_dlevel * demands[i];
                }
            }

            // Freeze streams that hit their demand or sit on a saturated constraint.
            const EPS: f64 = 1e-9;
            for i in 0..n {
                if !frozen[i] && rates[i] + EPS >= demands[i] {
                    frozen[i] = true;
                }
            }
            for &s in &sockets {
                let members = dram_members(s);
                let used: f64 = members.iter().map(|&i| rates[i]).sum();
                if used + EPS >= self.topology.dram_bandwidth_gbps {
                    for &i in &members {
                        frozen[i] = true;
                    }
                }
            }
            for &from in &sockets {
                for &to in &sockets {
                    if from == to {
                        continue;
                    }
                    let members = link_members(from, to);
                    let used: f64 = members.iter().map(|&i| rates[i]).sum();
                    if !members.is_empty()
                        && used + EPS >= self.topology.interconnect_bandwidth_gbps
                    {
                        for &i in &members {
                            frozen[i] = true;
                        }
                    }
                }
            }
            if max_dlevel <= 0.0 {
                // No further growth possible.
                break;
            }
        }

        StreamAllocation { rates }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BandwidthModel {
        BandwidthModel::new(Topology::two_socket())
    }

    /// The bandwidth a single stream achieves when alone.
    fn solo_rate(m: &BandwidthModel, stream: &Stream) -> GBps {
        m.allocate(std::slice::from_ref(stream)).rate(0)
    }

    const S0: SocketId = SocketId(0);
    const S1: SocketId = SocketId(1);

    #[test]
    fn solo_local_scan_is_core_or_dram_limited() {
        let m = model();
        // 2 cores: core-limited at 28 GB/s.
        let r = solo_rate(&m, &Stream::sequential(S0, S0, 2));
        assert!((r - 28.0).abs() < 1e-6);
        // 14 cores: DRAM-limited at 100 GB/s.
        let r = solo_rate(&m, &Stream::sequential(S0, S0, 14));
        assert!((r - 100.0).abs() < 1e-6);
    }

    #[test]
    fn solo_remote_scan_is_interconnect_limited() {
        let m = model();
        let r = solo_rate(&m, &Stream::sequential(S0, S1, 14));
        assert!(
            (r - 33.0).abs() < 1e-6,
            "remote scan should cap at interconnect, got {r}"
        );
    }

    #[test]
    fn random_stream_uses_small_fraction_of_bus() {
        let m = model();
        let r = solo_rate(&m, &Stream::random(S0, S0, 14));
        assert!((r - 14.0 * 0.8).abs() < 1e-6);
    }

    #[test]
    fn scans_dominate_random_streams_under_contention() {
        let m = model();
        let streams = vec![
            Stream::sequential(S0, S0, 14), // OLAP scanning OLTP-socket data locally
            Stream::random(S0, S0, 14),     // OLTP workers on their own data
        ];
        let alloc = m.allocate(&streams);
        let olap = alloc.rate(0);
        let oltp = alloc.rate(1);
        // Total respects the DRAM cap.
        assert!(olap + oltp <= 100.0 + 1e-6);
        // Demand weighting: the scan gets the lion's share but the random
        // stream is not pushed to zero.
        assert!(olap > 80.0, "scan should dominate, got {olap}");
        assert!(
            oltp > 5.0,
            "random stream should retain progress, got {oltp}"
        );
    }

    #[test]
    fn local_and_remote_streams_share_source_dram() {
        let m = model();
        // OLAP pulls socket-0 data both from 4 local (borrowed) cores and over
        // the interconnect from 14 remote cores; OLTP also lives on socket 0.
        let streams = vec![
            Stream::sequential(S0, S0, 4),
            Stream::sequential(S0, S1, 14),
            Stream::random(S0, S0, 10),
        ];
        let alloc = m.allocate(&streams);
        let total: f64 = alloc.rates().iter().sum();
        assert!(total <= 100.0 + 1e-6, "source DRAM cap violated: {total}");
        // The remote stream can never exceed the link.
        assert!(alloc.rate(1) <= 33.0 + 1e-6);
        // The local borrowed cores achieve close to their core-limited demand.
        assert!(alloc.rate(0) > 30.0);
    }

    #[test]
    fn interconnect_is_shared_between_streams_on_same_link() {
        let m = model();
        let streams = vec![Stream::sequential(S0, S1, 7), Stream::sequential(S0, S1, 7)];
        let alloc = m.allocate(&streams);
        let total = alloc.rate(0) + alloc.rate(1);
        assert!(total <= 33.0 + 1e-6);
        // Equal demands -> equal split.
        assert!((alloc.rate(0) - alloc.rate(1)).abs() < 1e-6);
    }

    #[test]
    fn opposite_links_do_not_interfere() {
        let m = model();
        let streams = vec![
            Stream::sequential(S0, S1, 14),
            Stream::sequential(S1, S0, 14),
        ];
        let alloc = m.allocate(&streams);
        assert!((alloc.rate(0) - 33.0).abs() < 1e-6);
        assert!((alloc.rate(1) - 33.0).abs() < 1e-6);
    }

    #[test]
    fn zero_core_stream_gets_nothing() {
        let m = model();
        let alloc = m.allocate(&[Stream::sequential(S0, S0, 0), Stream::sequential(S0, S0, 4)]);
        assert_eq!(alloc.rate(0), 0.0);
        assert!(alloc.rate(1) > 0.0);
    }

    #[test]
    fn empty_input_is_fine() {
        let m = model();
        let alloc = m.allocate(&[]);
        assert!(alloc.rates().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_stream() -> impl Strategy<Value = Stream> {
        (0u16..2, 0u16..2, 0usize..20, prop::bool::ANY).prop_map(|(src, dst, cores, seq)| Stream {
            source: SocketId(src),
            consumer: SocketId(dst),
            cores,
            class: if seq {
                StreamClass::Sequential
            } else {
                StreamClass::Random
            },
        })
    }

    proptest! {
        /// No allocation may exceed any physical capacity, and every stream
        /// stays within its own demand.
        #[test]
        fn allocation_respects_all_capacities(streams in prop::collection::vec(arb_stream(), 0..8)) {
            let topo = Topology::two_socket();
            let m = BandwidthModel::new(topo.clone());
            let alloc = m.allocate(&streams);

            for (i, s) in streams.iter().enumerate() {
                prop_assert!(alloc.rate(i) <= m.demand(s) + 1e-6);
                prop_assert!(alloc.rate(i) >= 0.0);
            }
            for s in topo.socket_ids() {
                let total: f64 = streams.iter().enumerate()
                    .filter(|(_, st)| st.source == s)
                    .map(|(i, _)| alloc.rate(i)).sum();
                prop_assert!(total <= topo.dram_bandwidth_gbps + 1e-6);
            }
            for from in topo.socket_ids() {
                for to in topo.socket_ids() {
                    if from == to { continue; }
                    let total: f64 = streams.iter().enumerate()
                        .filter(|(_, st)| st.source == from && st.consumer == to)
                        .map(|(i, _)| alloc.rate(i)).sum();
                    prop_assert!(total <= topo.interconnect_bandwidth_gbps + 1e-6);
                }
            }
        }

        /// Work conservation: a stream with positive demand receives positive
        /// bandwidth unless one of its constraints is already saturated by others.
        #[test]
        fn positive_demand_receives_positive_rate(streams in prop::collection::vec(arb_stream(), 1..6)) {
            let m = BandwidthModel::new(Topology::two_socket());
            let alloc = m.allocate(&streams);
            for (i, s) in streams.iter().enumerate() {
                if m.demand(s) > 0.0 {
                    prop_assert!(alloc.rate(i) > 0.0, "stream {i} starved: {:?}", s);
                }
            }
        }

        /// Adding a competing stream never increases an existing stream's rate.
        #[test]
        fn adding_contention_is_monotone(
            base in prop::collection::vec(arb_stream(), 1..5),
            extra in arb_stream()
        ) {
            let m = BandwidthModel::new(Topology::two_socket());
            let before = m.allocate(&base);
            let mut with = base.clone();
            with.push(extra);
            let after = m.allocate(&with);
            for i in 0..base.len() {
                prop_assert!(after.rate(i) <= before.rate(i) + 1e-6,
                    "stream {i} gained bandwidth from added contention");
            }
        }
    }
}
