//! Conversion of measured work into modelled time.
//!
//! The engines report *what* they did (bytes scanned per data location, tuples
//! processed, records copied, hash-join probes issued); the [`CostModel`]
//! translates that into simulated seconds on the configured [`Topology`],
//! honouring the bandwidth-sharing behaviour of [`BandwidthModel`].
//!
//! The model is a classic bottleneck model: query execution is pipelined, so
//! its duration is the maximum of the per-resource lower bounds (per-socket
//! DRAM time, per-interconnect-link time, CPU time, random-access latency
//! time). This is exactly the reasoning the paper uses in §4.1 ("we can
//! quantify the overhead for remote vs local memory access to be equal to the
//! difference in bandwidth between the main memory bus and the CPU
//! interconnect").

use crate::bandwidth::{BandwidthModel, Stream};
use crate::topology::{CoreId, SocketId, Topology};
use crate::{GBps, Seconds};
use std::collections::BTreeMap;

/// Where the OLAP engine's compute currently runs: number of cores per socket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecPlacement {
    /// Cores available to the executing engine, per socket.
    pub cores_on: BTreeMap<SocketId, usize>,
}

impl ExecPlacement {
    /// Empty placement (no cores anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Placement with `cores` on a single socket.
    pub fn single_socket(socket: SocketId, cores: usize) -> Self {
        let mut cores_on = BTreeMap::new();
        cores_on.insert(socket, cores);
        ExecPlacement { cores_on }
    }

    /// The placement of a concrete core grant: how many of `cores` sit on
    /// each socket of `topology`. This is the bridge between the core lists
    /// the RDE engine hands out and the per-socket core counts the bandwidth
    /// and interference models reason about.
    pub fn of_cores(topology: &Topology, cores: &[CoreId]) -> Self {
        cores.iter().fold(ExecPlacement::new(), |placement, &core| {
            placement.with(topology.socket_of(core), 1)
        })
    }

    /// Add cores on a socket.
    pub fn with(mut self, socket: SocketId, cores: usize) -> Self {
        *self.cores_on.entry(socket).or_insert(0) += cores;
        self
    }

    /// Total number of cores in the placement.
    pub fn total_cores(&self) -> usize {
        self.cores_on.values().sum()
    }

    /// Cores on one socket.
    pub fn cores_on(&self, socket: SocketId) -> usize {
        self.cores_on.get(&socket).copied().unwrap_or(0)
    }

    /// Sockets with at least one core.
    pub fn sockets(&self) -> Vec<SocketId> {
        self.cores_on
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(&s, _)| s)
            .collect()
    }
}

/// A contiguous chunk of data to be scanned, resident on one socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanSegment {
    /// Socket whose DRAM holds the segment.
    pub socket: SocketId,
    /// Segment size in bytes.
    pub bytes: u64,
}

/// Work descriptor for a scan-dominated analytical query (or query fragment).
#[derive(Debug, Clone, PartialEq)]
pub struct ScanWork {
    /// Data segments the query reads, tagged with their resident socket.
    pub segments: Vec<ScanSegment>,
    /// Number of tuples processed by the pipeline (drives the CPU term).
    pub tuples: u64,
    /// CPU nanoseconds per tuple for the query's non-scan work
    /// (filter/aggregate arithmetic). Typical values: 1–3 ns.
    pub cpu_ns_per_tuple: f64,
}

impl ScanWork {
    /// Scan of `bytes` resident on one socket with default CPU cost.
    pub fn simple(socket: SocketId, bytes: u64, tuples: u64) -> Self {
        ScanWork {
            segments: vec![ScanSegment { socket, bytes }],
            tuples,
            cpu_ns_per_tuple: 1.0,
        }
    }

    /// Total bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Bytes resident on a given socket.
    pub fn bytes_on(&self, socket: SocketId) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.socket == socket)
            .map(|s| s.bytes)
            .sum()
    }
}

/// Work descriptor for the random-access part of a hash join
/// (build broadcast + probe phase), used by CH-Q19.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinWork {
    /// Bytes of the build side that must be replicated to every socket that
    /// executes probe pipelines (broadcast join, paper §5.3).
    pub build_bytes: u64,
    /// Number of probe lookups.
    pub probes: u64,
    /// Size of the probed hash table in bytes (drives the cache-residency factor).
    pub hash_table_bytes: u64,
}

/// Work descriptor for a bulk data transfer (ETL or instance synchronisation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferWork {
    /// Bytes to move.
    pub bytes: u64,
    /// Socket currently holding the data.
    pub from: SocketId,
    /// Destination socket.
    pub to: SocketId,
    /// Cores performing the copy (the RDE engine uses OLAP cores, §3.4).
    pub cores: usize,
}

/// Work descriptor for the transactional engine (used by the interference model).
#[derive(Debug, Clone, PartialEq)]
pub struct TxnWork {
    /// OLTP worker threads per socket.
    pub workers_on: BTreeMap<SocketId, usize>,
    /// Socket holding the active OLTP instance, index and delta storage.
    pub data_socket: SocketId,
    /// Throughput of one worker running alone with local data, in
    /// transactions per second.
    pub base_tps_per_worker: f64,
}

impl TxnWork {
    /// All `workers` on a single socket which also holds the data.
    pub fn colocated(socket: SocketId, workers: usize, base_tps_per_worker: f64) -> Self {
        let mut workers_on = BTreeMap::new();
        workers_on.insert(socket, workers);
        TxnWork {
            workers_on,
            data_socket: socket,
            base_tps_per_worker,
        }
    }

    /// Total number of workers.
    pub fn total_workers(&self) -> usize {
        self.workers_on.values().sum()
    }

    /// Fraction of workers running on a socket other than the data socket.
    pub fn remote_worker_fraction(&self) -> f64 {
        let total = self.total_workers();
        if total == 0 {
            return 0.0;
        }
        let remote: usize = self
            .workers_on
            .iter()
            .filter(|(&s, _)| s != self.data_socket)
            .map(|(_, &n)| n)
            .sum();
        remote as f64 / total as f64
    }

    /// The random-access memory streams the workers generate.
    pub fn streams(&self) -> Vec<Stream> {
        self.workers_on
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(&socket, &n)| Stream::random(self.data_socket, socket, n))
            .collect()
    }
}

/// Breakdown of a modelled query execution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScanCost {
    /// Time imposed by DRAM / interconnect bandwidth.
    pub bandwidth_time: Seconds,
    /// Time imposed by per-tuple CPU work.
    pub cpu_time: Seconds,
    /// Time imposed by random-access latency (join probes).
    pub probe_time: Seconds,
    /// Time imposed by broadcasting the join build side.
    pub broadcast_time: Seconds,
    /// The resulting (pipelined) execution time: the maximum of the terms,
    /// except the broadcast which precedes the probe pipeline and is additive.
    pub total: Seconds,
}

/// Tunable constants of the cost model that are not part of the topology.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Memory-level parallelism of random accesses (outstanding misses per core).
    pub memory_level_parallelism: f64,
    /// Fraction of join probes that miss the last-level cache when the hash
    /// table exceeds the LLC.
    pub probe_miss_fraction: f64,
    /// Fixed overhead per bulk transfer invocation (job setup, page faults), seconds.
    pub transfer_fixed_overhead: Seconds,
    /// Per-record cost of instance synchronisation (random gather + copy), ns.
    pub sync_ns_per_record: f64,
    /// Per-query overhead of switching the active OLTP instance, seconds.
    pub switch_fixed_overhead: Seconds,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            memory_level_parallelism: 10.0,
            probe_miss_fraction: 0.35,
            transfer_fixed_overhead: 5e-5,
            sync_ns_per_record: 10.0,
            switch_fixed_overhead: 2e-5,
        }
    }
}

/// The cost model: topology + bandwidth sharing + tunable constants.
#[derive(Debug, Clone)]
pub struct CostModel {
    topology: Topology,
    bandwidth: BandwidthModel,
    params: CostParams,
}

impl CostModel {
    /// Build a cost model for a topology with default parameters.
    pub fn new(topology: Topology) -> Self {
        CostModel {
            bandwidth: BandwidthModel::new(topology.clone()),
            topology,
            params: CostParams::default(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The sequential-read streams an OLAP execution generates, given where
    /// the data lives and where the compute runs. One stream per
    /// (source socket, consumer socket) pair with data and cores.
    pub fn olap_streams(&self, scan: &ScanWork, placement: &ExecPlacement) -> Vec<Stream> {
        let mut sources: Vec<SocketId> = scan
            .segments
            .iter()
            .filter(|s| s.bytes > 0)
            .map(|s| s.socket)
            .collect();
        sources.sort();
        sources.dedup();

        let mut streams = Vec::new();
        for &src in &sources {
            for (&consumer, &cores) in &placement.cores_on {
                if cores == 0 {
                    continue;
                }
                streams.push(Stream::sequential(src, consumer, cores));
            }
        }
        streams
    }

    /// Model the execution time of a scan-dominated pipeline, optionally with
    /// a concurrent transactional workload competing for bandwidth and an
    /// optional join phase.
    pub fn scan_time(
        &self,
        scan: &ScanWork,
        placement: &ExecPlacement,
        join: Option<&JoinWork>,
        concurrent_txn: Option<&TxnWork>,
    ) -> ScanCost {
        let total_cores = placement.total_cores();
        if total_cores == 0 || scan.total_bytes() == 0 && scan.tuples == 0 {
            return ScanCost::default();
        }

        // Build the full set of concurrent streams: OLAP scan streams first,
        // then the background OLTP streams.
        let olap_streams = self.olap_streams(scan, placement);
        let olap_count = olap_streams.len();
        let mut all = olap_streams;
        if let Some(txn) = concurrent_txn {
            all.extend(txn.streams());
        }
        let alloc = self.bandwidth.allocate(&all);

        // Bandwidth term: for each source socket, the bytes resident there
        // flow at the aggregate rate of the OLAP streams sourced there.
        let mut bandwidth_time: Seconds = 0.0;
        for seg_socket in scan
            .segments
            .iter()
            .map(|s| s.socket)
            .collect::<std::collections::BTreeSet<_>>()
        {
            let bytes = scan.bytes_on(seg_socket);
            if bytes == 0 {
                continue;
            }
            let rate: GBps = (0..olap_count)
                .filter(|&i| all[i].source == seg_socket)
                .map(|i| alloc.rate(i))
                .sum();
            if rate <= 0.0 {
                // No cores can reach this data; treat as unservable-but-finite
                // by charging a single core over the interconnect.
                let fallback = self
                    .topology
                    .interconnect_bandwidth_gbps
                    .min(self.topology.per_core_scan_bandwidth_gbps);
                bandwidth_time = bandwidth_time.max(bytes as f64 / (fallback * 1e9));
                continue;
            }
            bandwidth_time = bandwidth_time.max(bytes as f64 / (rate * 1e9));
        }

        // CPU term: per-tuple pipeline work spread over all cores.
        let cpu_time = scan.tuples as f64 * scan.cpu_ns_per_tuple / (total_cores as f64 * 1e9);

        // Join terms.
        let (probe_time, broadcast_time) = match join {
            None => (0.0, 0.0),
            Some(j) => {
                let consumer_sockets = placement.sockets().len().max(1);
                // Broadcast the build side to every socket beyond the first.
                let broadcast_bytes = j.build_bytes.saturating_mul((consumer_sockets - 1) as u64);
                let broadcast_time = if broadcast_bytes == 0 {
                    0.0
                } else {
                    broadcast_bytes as f64 / (self.topology.interconnect_bandwidth_gbps * 1e9)
                };
                // Probe phase: misses pay DRAM latency, amortised by
                // memory-level parallelism and the number of cores.
                let miss_fraction = if j.hash_table_bytes <= self.topology.llc_bytes {
                    0.05
                } else {
                    self.params.probe_miss_fraction
                };
                let avg_latency_ns = self.average_access_latency(placement);
                let probe_time = j.probes as f64 * miss_fraction * avg_latency_ns
                    / (self.params.memory_level_parallelism * total_cores as f64 * 1e9);
                (probe_time, broadcast_time)
            }
        };

        let total = bandwidth_time.max(cpu_time).max(probe_time) + broadcast_time;
        ScanCost {
            bandwidth_time,
            cpu_time,
            probe_time,
            broadcast_time,
            total,
        }
    }

    /// Average DRAM access latency seen by the placement, weighted by where
    /// its cores run relative to the data sockets it touches. Used for the
    /// join-probe term; scan segments stream and are latency-insensitive.
    fn average_access_latency(&self, placement: &ExecPlacement) -> f64 {
        let total = placement.total_cores();
        if total == 0 {
            return self.topology.local_latency_ns;
        }
        // Hash tables are built in the scratch memory of the socket with the
        // most cores; cores on other sockets pay remote latency.
        let home = placement
            .cores_on
            .iter()
            .max_by_key(|(_, &n)| n)
            .map(|(&s, _)| s)
            .unwrap_or(SocketId(0));
        let mut weighted = 0.0;
        for (&socket, &cores) in &placement.cores_on {
            let lat = if socket == home {
                self.topology.local_latency_ns
            } else {
                self.topology.remote_latency_ns
            };
            weighted += lat * cores as f64;
        }
        weighted / total as f64
    }

    /// Model a bulk transfer between sockets (ETL or spill), using `cores`
    /// copy threads.
    pub fn transfer_time(&self, work: &TransferWork) -> Seconds {
        if work.bytes == 0 {
            return 0.0;
        }
        let core_rate = self.topology.per_core_scan_bandwidth_gbps * work.cores.max(1) as f64;
        let path_rate = if work.from == work.to {
            self.topology.dram_bandwidth_gbps
        } else {
            self.topology.interconnect_bandwidth_gbps
        };
        let rate = core_rate.min(path_rate);
        self.params.transfer_fixed_overhead + work.bytes as f64 / (rate * 1e9)
    }

    /// Model the OLTP instance switch + synchronisation (paper §3.4: ~10 ms to
    /// sync ~1 M modified tuples).
    pub fn sync_time(&self, modified_records: u64, bytes_per_record: u64, cores: usize) -> Seconds {
        if modified_records == 0 {
            return self.params.switch_fixed_overhead;
        }
        let gather =
            modified_records as f64 * self.params.sync_ns_per_record / (cores.max(1) as f64 * 1e9);
        let bytes = modified_records.saturating_mul(bytes_per_record);
        let copy = bytes as f64 / (self.topology.dram_bandwidth_gbps * 1e9);
        self.params.switch_fixed_overhead + gather + copy
    }

    /// Model the cost of a software copy-on-write page copy (the Figure-1 CoW
    /// baseline): a page-sized local memcpy plus a fault-handling overhead.
    pub fn cow_page_copy_time(&self, page_bytes: u64) -> Seconds {
        const FAULT_OVERHEAD_NS: f64 = 1_500.0;
        FAULT_OVERHEAD_NS / 1e9 + page_bytes as f64 / (self.topology.dram_bandwidth_gbps * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S0: SocketId = SocketId(0);
    const S1: SocketId = SocketId(1);
    const GB: u64 = 1_000_000_000;

    fn model() -> CostModel {
        CostModel::new(Topology::two_socket())
    }

    #[test]
    fn local_scan_runs_at_socket_bandwidth() {
        let m = model();
        let scan = ScanWork::simple(S1, 100 * GB, 0);
        let placement = ExecPlacement::single_socket(S1, 14);
        let cost = m.scan_time(&scan, &placement, None, None);
        // 100 GB at 100 GB/s -> about 1 second.
        assert!((cost.total - 1.0).abs() < 0.05, "got {}", cost.total);
    }

    #[test]
    fn remote_scan_is_interconnect_bound() {
        let m = model();
        let scan = ScanWork::simple(S0, 33 * GB, 0);
        let placement = ExecPlacement::single_socket(S1, 14);
        let cost = m.scan_time(&scan, &placement, None, None);
        // 33 GB over a 33 GB/s link -> about 1 second, i.e. ~3x slower than local.
        assert!((cost.total - 1.0).abs() < 0.05, "got {}", cost.total);
    }

    #[test]
    fn borrowing_local_cores_speeds_up_remote_scan_until_saturation() {
        let m = model();
        let scan = ScanWork::simple(S0, 50 * GB, 0);
        let remote_only = m
            .scan_time(&scan, &ExecPlacement::single_socket(S1, 14), None, None)
            .total;
        let with_4_local = m
            .scan_time(
                &scan,
                &ExecPlacement::single_socket(S1, 10).with(S0, 4),
                None,
                None,
            )
            .total;
        let with_8_local = m
            .scan_time(
                &scan,
                &ExecPlacement::single_socket(S1, 6).with(S0, 8),
                None,
                None,
            )
            .total;
        assert!(
            with_4_local < remote_only * 0.75,
            "4 local cores should help"
        );
        // Beyond DRAM saturation, extra local cores give little additional benefit.
        let gain_4_to_8 = (with_4_local - with_8_local) / with_4_local;
        assert!(
            gain_4_to_8 < 0.25,
            "benefit should flatten, got {gain_4_to_8}"
        );
    }

    #[test]
    fn cpu_bound_query_is_limited_by_cores_not_bandwidth() {
        let m = model();
        let scan = ScanWork {
            segments: vec![ScanSegment {
                socket: S1,
                bytes: GB,
            }],
            tuples: 1_000_000_000,
            cpu_ns_per_tuple: 10.0,
        };
        let few = m.scan_time(&scan, &ExecPlacement::single_socket(S1, 2), None, None);
        let many = m.scan_time(&scan, &ExecPlacement::single_socket(S1, 14), None, None);
        assert!(few.cpu_time > few.bandwidth_time);
        assert!(many.total < few.total / 3.0);
    }

    #[test]
    fn concurrent_txn_reduces_available_bandwidth() {
        let m = model();
        let scan = ScanWork::simple(S0, 50 * GB, 0);
        let placement = ExecPlacement::single_socket(S0, 10);
        let alone = m.scan_time(&scan, &placement, None, None).total;
        let txn = TxnWork::colocated(S0, 14, 80_000.0);
        let contended = m.scan_time(&scan, &placement, None, Some(&txn)).total;
        assert!(contended > alone, "contention must slow the scan");
        assert!(contended < alone * 1.5, "scans still dominate the bus");
    }

    #[test]
    fn split_access_beats_full_remote_for_small_fresh_fraction() {
        // Figure 4 mechanism: reading only the fresh tail remotely beats
        // re-reading everything remotely.
        let m = model();
        let placement = ExecPlacement::single_socket(S1, 14);
        let full_remote = ScanWork::simple(S0, 60 * GB, 0);
        let split = ScanWork {
            segments: vec![
                ScanSegment {
                    socket: S1,
                    bytes: 55 * GB,
                },
                ScanSegment {
                    socket: S0,
                    bytes: 5 * GB,
                },
            ],
            tuples: 0,
            cpu_ns_per_tuple: 1.0,
        };
        let t_full = m.scan_time(&full_remote, &placement, None, None).total;
        let t_split = m.scan_time(&split, &placement, None, None).total;
        assert!(
            t_split < t_full * 0.5,
            "split access should win: {t_split} vs {t_full}"
        );
    }

    #[test]
    fn join_probe_and_broadcast_terms_appear_for_multi_socket_placement() {
        let m = model();
        let scan = ScanWork::simple(S1, 10 * GB, 100_000_000);
        let join = JoinWork {
            build_bytes: 10_000_000,
            probes: 100_000_000,
            hash_table_bytes: 64 * 1024 * 1024,
        };
        let single = m.scan_time(
            &scan,
            &ExecPlacement::single_socket(S1, 14),
            Some(&join),
            None,
        );
        let multi = m.scan_time(
            &scan,
            &ExecPlacement::single_socket(S1, 10).with(S0, 4),
            Some(&join),
            None,
        );
        assert_eq!(single.broadcast_time, 0.0);
        assert!(
            multi.broadcast_time > 0.0,
            "cross-socket join must pay broadcast"
        );
        assert!(single.probe_time > 0.0);
    }

    #[test]
    fn small_hash_table_probes_are_cheap() {
        let m = model();
        let scan = ScanWork::simple(S1, GB, 10_000_000);
        let small = JoinWork {
            build_bytes: 1_000_000,
            probes: 10_000_000,
            hash_table_bytes: 1_000_000,
        };
        let large = JoinWork {
            build_bytes: 1_000_000,
            probes: 10_000_000,
            hash_table_bytes: 1_000_000_000,
        };
        let p = ExecPlacement::single_socket(S1, 14);
        let c_small = m.scan_time(&scan, &p, Some(&small), None).probe_time;
        let c_large = m.scan_time(&scan, &p, Some(&large), None).probe_time;
        assert!(c_small < c_large / 3.0);
    }

    #[test]
    fn transfer_time_scales_with_bytes_and_is_link_limited() {
        let m = model();
        let t1 = m.transfer_time(&TransferWork {
            bytes: GB,
            from: S0,
            to: S1,
            cores: 14,
        });
        let t2 = m.transfer_time(&TransferWork {
            bytes: 10 * GB,
            from: S0,
            to: S1,
            cores: 14,
        });
        assert!(t2 > t1 * 8.0);
        // 10 GB over 33 GB/s ~ 0.3 s.
        assert!((t2 - 10.0 / 33.0).abs() < 0.05);
        // Zero bytes -> zero time.
        assert_eq!(
            m.transfer_time(&TransferWork {
                bytes: 0,
                from: S0,
                to: S1,
                cores: 14
            }),
            0.0
        );
    }

    #[test]
    fn sync_time_matches_paper_order_of_magnitude() {
        // Paper §3.4: ~10 ms to synchronise ~1 M modified tuples.
        let m = model();
        let t = m.sync_time(1_000_000, 64, 1);
        assert!(
            t > 0.005 && t < 0.05,
            "sync of 1M tuples should be ~10ms, got {t}"
        );
    }

    #[test]
    fn switch_without_updates_costs_only_fixed_overhead() {
        let m = model();
        assert_eq!(
            m.sync_time(0, 64, 4),
            CostParams::default().switch_fixed_overhead
        );
    }

    #[test]
    fn cow_page_copy_is_microseconds() {
        let m = model();
        let t = m.cow_page_copy_time(2 * 1024 * 1024);
        assert!(
            t > 1e-6 && t < 1e-3,
            "2MB page copy should be tens of microseconds, got {t}"
        );
    }

    #[test]
    fn txn_work_remote_fraction() {
        let mut w = TxnWork::colocated(S0, 7, 80_000.0);
        w.workers_on.insert(S1, 7);
        assert!((w.remote_worker_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(w.total_workers(), 14);
        assert_eq!(w.streams().len(), 2);
    }

    #[test]
    fn empty_placement_returns_zero_cost() {
        let m = model();
        let scan = ScanWork::simple(S0, GB, 1000);
        let cost = m.scan_time(&scan, &ExecPlacement::new(), None, None);
        assert_eq!(cost.total, 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const S0: SocketId = SocketId(0);
    const S1: SocketId = SocketId(1);

    proptest! {
        /// More bytes never take less time, all else equal.
        #[test]
        fn scan_time_is_monotone_in_bytes(b1 in 1u64..1_000_000_000u64, b2 in 1u64..1_000_000_000u64) {
            let m = CostModel::new(Topology::two_socket());
            let p = ExecPlacement::single_socket(S1, 8);
            let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
            let t_lo = m.scan_time(&ScanWork::simple(S0, lo, 0), &p, None, None).total;
            let t_hi = m.scan_time(&ScanWork::simple(S0, hi, 0), &p, None, None).total;
            prop_assert!(t_hi + 1e-12 >= t_lo);
        }

        /// More cores never make a query slower.
        #[test]
        fn scan_time_is_monotone_in_cores(cores in 1usize..14, extra in 0usize..8) {
            let m = CostModel::new(Topology::two_socket());
            let scan = ScanWork { segments: vec![ScanSegment { socket: S1, bytes: 10_000_000_000 }], tuples: 50_000_000, cpu_ns_per_tuple: 2.0 };
            let t_few = m.scan_time(&scan, &ExecPlacement::single_socket(S1, cores), None, None).total;
            let t_more = m.scan_time(&scan, &ExecPlacement::single_socket(S1, (cores + extra).min(14)), None, None).total;
            prop_assert!(t_more <= t_few + 1e-9);
        }

        /// Transfer time is additive-ish: t(a+b) <= t(a) + t(b) and monotone.
        #[test]
        fn transfer_time_monotone_and_subadditive(a in 0u64..5_000_000_000u64, b in 0u64..5_000_000_000u64) {
            let m = CostModel::new(Topology::two_socket());
            let t = |bytes| m.transfer_time(&TransferWork { bytes, from: S0, to: S1, cores: 8 });
            prop_assert!(t(a + b) + 1e-12 >= t(a.max(b)));
            prop_assert!(t(a + b) <= t(a) + t(b) + 1e-12);
        }

        /// Sync time grows with the number of modified records.
        #[test]
        fn sync_time_monotone(r1 in 0u64..10_000_000u64, r2 in 0u64..10_000_000u64) {
            let m = CostModel::new(Topology::two_socket());
            let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
            prop_assert!(m.sync_time(hi, 64, 2) + 1e-12 >= m.sync_time(lo, 64, 2));
        }
    }
}
