//! Machine topology: sockets, cores and the bandwidth/latency parameters the
//! cost model is built on.
//!
//! The default topology mirrors the server used in the paper's evaluation:
//! two sockets of 14 cores each (hyper-threads are not modelled as separate
//! compute units; the paper pins one worker per hardware thread and the cost
//! model works at core granularity), roughly 100 GB/s of DRAM bandwidth per
//! socket and a cross-socket interconnect that sustains about a third of that
//! per direction. Figure 1 uses a four-socket sibling of the same machine,
//! available through [`Topology::four_socket`].

use serde::{Deserialize, Serialize};

/// Identifier of a CPU socket (NUMA node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SocketId(pub u16);

impl SocketId {
    /// Index usable for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SocketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "socket{}", self.0)
    }
}

/// Identifier of a physical core. Cores are numbered globally across sockets:
/// core `c` lives on socket `c / cores_per_socket`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CoreId(pub u16);

impl CoreId {
    /// Index usable for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Description of the simulated scale-up server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of CPU sockets (NUMA nodes).
    pub sockets: u16,
    /// Physical cores per socket.
    pub cores_per_socket: u16,
    /// Sequential-read DRAM bandwidth per socket, in GB/s.
    pub dram_bandwidth_gbps: f64,
    /// Interconnect (UPI/QPI) bandwidth per direction between any socket pair, in GB/s.
    pub interconnect_bandwidth_gbps: f64,
    /// Maximum sequential bandwidth a single core can sustain, in GB/s.
    pub per_core_scan_bandwidth_gbps: f64,
    /// Bandwidth consumed by one OLTP worker doing random accesses, in GB/s.
    pub per_core_random_bandwidth_gbps: f64,
    /// Local DRAM access latency in nanoseconds (used for random-access costs).
    pub local_latency_ns: f64,
    /// Remote (cross-socket) DRAM access latency in nanoseconds.
    pub remote_latency_ns: f64,
    /// Last-level cache size per socket in bytes (used by group-by/join cache terms).
    pub llc_bytes: u64,
    /// DRAM capacity per socket in bytes. The RDE engine checks grants against it.
    pub dram_capacity_bytes: u64,
}

impl Topology {
    /// The two-socket server used for the sensitivity analysis and Figure 3–5:
    /// 2 × 14 cores, ~100 GB/s local DRAM bandwidth, ~33 GB/s interconnect.
    pub fn two_socket() -> Self {
        Topology {
            sockets: 2,
            cores_per_socket: 14,
            dram_bandwidth_gbps: 100.0,
            interconnect_bandwidth_gbps: 33.0,
            per_core_scan_bandwidth_gbps: 14.0,
            per_core_random_bandwidth_gbps: 0.8,
            local_latency_ns: 85.0,
            remote_latency_ns: 145.0,
            llc_bytes: 19_250 * 1024,
            dram_capacity_bytes: 768 * 1024 * 1024 * 1024,
        }
    }

    /// The four-socket sibling used in Figure 1 (ETL vs CoW motivation).
    pub fn four_socket() -> Self {
        Topology {
            sockets: 4,
            ..Self::two_socket()
        }
    }

    /// A deliberately tiny topology for unit tests (2 × 2 cores) so tests can
    /// enumerate placements exhaustively.
    pub fn tiny() -> Self {
        Topology {
            sockets: 2,
            cores_per_socket: 2,
            ..Self::two_socket()
        }
    }

    /// Total number of cores in the machine.
    #[inline]
    pub fn total_cores(&self) -> u16 {
        self.sockets * self.cores_per_socket
    }

    /// The socket a global core id belongs to.
    #[inline]
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        SocketId(core.0 / self.cores_per_socket)
    }

    /// All cores of a socket, in ascending order.
    pub fn cores_of(&self, socket: SocketId) -> Vec<CoreId> {
        let start = socket.0 * self.cores_per_socket;
        (start..start + self.cores_per_socket).map(CoreId).collect()
    }

    /// All sockets of the machine, in ascending order.
    pub fn socket_ids(&self) -> Vec<SocketId> {
        (0..self.sockets).map(SocketId).collect()
    }

    /// Validate internal consistency; returns a human-readable error if the
    /// description cannot correspond to a real machine.
    pub fn validate(&self) -> Result<(), String> {
        if self.sockets == 0 {
            return Err("topology must have at least one socket".into());
        }
        if self.cores_per_socket == 0 {
            return Err("topology must have at least one core per socket".into());
        }
        if self.dram_bandwidth_gbps <= 0.0 || self.interconnect_bandwidth_gbps <= 0.0 {
            return Err("bandwidths must be positive".into());
        }
        if self.interconnect_bandwidth_gbps > self.dram_bandwidth_gbps {
            return Err("interconnect bandwidth cannot exceed DRAM bandwidth".into());
        }
        if self.per_core_scan_bandwidth_gbps <= 0.0 || self.per_core_random_bandwidth_gbps <= 0.0 {
            return Err("per-core bandwidths must be positive".into());
        }
        if self.remote_latency_ns < self.local_latency_ns {
            return Err("remote latency must be at least local latency".into());
        }
        Ok(())
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::two_socket()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_topology_matches_paper_server() {
        let t = Topology::default();
        assert_eq!(t.sockets, 2);
        assert_eq!(t.cores_per_socket, 14);
        assert_eq!(t.total_cores(), 28);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn four_socket_differs_only_in_socket_count() {
        let two = Topology::two_socket();
        let four = Topology::four_socket();
        assert_eq!(four.sockets, 4);
        assert_eq!(four.cores_per_socket, two.cores_per_socket);
        assert_eq!(four.total_cores(), 56);
    }

    #[test]
    fn socket_of_maps_cores_to_sockets() {
        let t = Topology::two_socket();
        assert_eq!(t.socket_of(CoreId(0)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(13)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(14)), SocketId(1));
        assert_eq!(t.socket_of(CoreId(27)), SocketId(1));
    }

    #[test]
    fn cores_of_returns_contiguous_ranges() {
        let t = Topology::two_socket();
        let s1 = t.cores_of(SocketId(1));
        assert_eq!(s1.len(), 14);
        assert_eq!(s1[0], CoreId(14));
        assert_eq!(*s1.last().unwrap(), CoreId(27));
    }

    #[test]
    fn validation_rejects_inconsistent_descriptions() {
        let mut t = Topology::two_socket();
        t.interconnect_bandwidth_gbps = 500.0;
        assert!(t.validate().is_err());

        let mut t = Topology::two_socket();
        t.sockets = 0;
        assert!(t.validate().is_err());

        let mut t = Topology::two_socket();
        t.remote_latency_ns = 1.0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn display_impls_are_stable() {
        assert_eq!(SocketId(1).to_string(), "socket1");
        assert_eq!(CoreId(5).to_string(), "cpu5");
    }
}
