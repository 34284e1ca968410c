//! The split of the machine's cores between the two engines.
//!
//! "Following the common approach in cloud computing, we assume that CPU and
//! memory resources are split in two sets: the first is exclusively given to
//! each engine, and the second can be traded between them. The distribution of
//! resources between the engines is decided by the RDE engine" (§3.1). The
//! RDE engine owns every core (§3.4), and each state of Algorithm 1 is one
//! [`CoreSplit`]; the engines only read the core list it hands them.

use crate::topology::{CoreId, SocketId, Topology};
use std::collections::BTreeMap;

/// How the cores are split: on each socket the OLTP engine holds the
/// lowest-numbered `oltp_on[socket]` cores and the OLAP engine the rest.
/// Both core lists are ascending, which fixes the worker→core mapping of
/// either engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSplit {
    cores_per_socket: usize,
    oltp_on: Vec<usize>,
    oltp: Vec<CoreId>,
    olap: Vec<CoreId>,
}

impl CoreSplit {
    /// The split in which OLTP holds `oltp_on[s]` cores of socket `s`,
    /// clamped to the socket's size; sockets past the end of `oltp_on` (and
    /// entries past the machine's sockets) give OLTP nothing.
    pub fn new(topology: &Topology, mut oltp_on: Vec<usize>) -> Self {
        let cores_per_socket = topology.cores_per_socket as usize;
        oltp_on.resize(topology.sockets as usize, 0);
        let (mut oltp, mut olap) = (Vec::new(), Vec::new());
        for (socket, n) in topology.socket_ids().into_iter().zip(&mut oltp_on) {
            *n = (*n).min(cores_per_socket);
            let cores = topology.cores_of(socket);
            let (low, high) = cores.split_at(*n);
            oltp.extend_from_slice(low);
            olap.extend_from_slice(high);
        }
        CoreSplit {
            cores_per_socket,
            oltp_on,
            oltp,
            olap,
        }
    }

    /// The OLTP engine's cores, in worker order.
    pub fn oltp_cores(&self) -> &[CoreId] {
        &self.oltp
    }

    /// The OLAP engine's cores, in worker order.
    pub fn olap_cores(&self) -> &[CoreId] {
        &self.olap
    }

    /// OLTP cores per socket, sockets where it holds none left out.
    pub fn oltp_per_socket(&self) -> BTreeMap<SocketId, usize> {
        self.per_socket(|n| n)
    }

    /// OLAP cores per socket, sockets where it holds none left out.
    pub fn olap_per_socket(&self) -> BTreeMap<SocketId, usize> {
        self.per_socket(|n| self.cores_per_socket - n)
    }

    fn per_socket(&self, held: impl Fn(usize) -> usize) -> BTreeMap<SocketId, usize> {
        (0u16..)
            .map(SocketId)
            .zip(self.oltp_on.iter().map(|&n| held(n)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// A summary such as `OLTP: 10 (s0:10) | OLAP: 18 (s0:4,s1:14)`; an
    /// engine without cores is left out.
    pub fn describe(&self) -> String {
        let engines = [
            ("OLTP", self.oltp.len(), self.oltp_per_socket()),
            ("OLAP", self.olap.len(), self.olap_per_socket()),
        ];
        let parts: Vec<String> = engines
            .into_iter()
            .filter(|&(_, total, _)| total > 0)
            .map(|(engine, total, per_socket)| {
                let sockets: Vec<String> = per_socket
                    .iter()
                    .map(|(s, n)| format!("s{}:{n}", s.0))
                    .collect();
                format!("{engine}: {total} ({})", sockets.join(","))
            })
            .collect();
        parts.join(" | ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::two_socket()
    }

    #[test]
    fn bootstrap_gives_one_socket_each() {
        let split = CoreSplit::new(&topo(), vec![14]);
        assert_eq!(split.oltp_cores().len(), 14);
        assert_eq!(split.olap_cores().len(), 14);
        assert_eq!(split.oltp_per_socket()[&SocketId(0)], 14);
        assert_eq!(split.olap_per_socket()[&SocketId(1)], 14);
    }

    #[test]
    fn oltp_holds_the_lowest_ids_of_a_socket() {
        let split = CoreSplit::new(&topo(), vec![3, 1]);
        assert_eq!(
            split.oltp_cores(),
            &[CoreId(0), CoreId(1), CoreId(2), CoreId(14)]
        );
        assert_eq!(split.olap_cores().len(), 24);
        assert_eq!(split.olap_cores()[0], CoreId(3));
        assert!(!split.olap_cores().contains(&CoreId(14)));
    }

    #[test]
    fn counts_are_clamped_to_the_machine() {
        let split = CoreSplit::new(&topo(), vec![20, 14, 9]);
        assert_eq!(split.oltp_cores().len(), 28);
        assert!(split.olap_cores().is_empty());
        assert!(split.olap_per_socket().is_empty());
    }

    #[test]
    fn describe_lists_all_engines() {
        let d = CoreSplit::new(&topo(), vec![14]).describe();
        assert!(d.contains("OLTP: 14"));
        assert!(d.contains("OLAP: 14"));
    }
}
