//! Simulated scale-up NUMA server substrate for the adaptive HTAP system.
//!
//! The paper evaluates on a 2-socket (4-socket for Figure 1) Intel Xeon server.
//! This crate replaces that hardware with a deterministic model of the same
//! resources: sockets, cores, per-socket DRAM bandwidth, the cross-socket
//! interconnect, and the way concurrent sequential (OLAP) and random (OLTP)
//! access streams share those resources.
//!
//! The functional engines (`htap-storage`, `htap-oltp`, `htap-olap`) execute
//! real work on real data; this crate is only consulted to convert *measured
//! work* (bytes scanned per locality class, tuples copied, cores used) into
//! *modelled time*, so that the benchmark harness can regenerate the shape of
//! every figure in the paper on any host.
//!
//! Main entry points:
//! * [`Topology`] — the machine description (sockets, cores, bandwidths).
//! * [`CoreSplit`] — how the cores are split between the two engines.
//! * [`BandwidthModel`] — max-min fair sharing of DRAM and interconnect
//!   bandwidth among concurrent access streams.
//! * [`CostModel`] — converts [`ScanWork`], [`TransferWork`] and [`TxnWork`]
//!   descriptors into simulated seconds / transactions per second.
//! * [`SimClock`] — accumulates modelled time per engine.

pub mod bandwidth;
pub mod clock;
pub mod cost;
pub mod interference;
pub mod resources;
pub mod topology;

pub use bandwidth::{BandwidthModel, Stream, StreamAllocation, StreamClass, StreamId};
pub use clock::SimClock;
pub use cost::{
    CostModel, CostParams, ExecPlacement, JoinWork, ScanCost, ScanSegment, ScanWork, TransferWork,
    TxnWork,
};
pub use interference::{InterferenceModel, OlapTraffic, OltpSlowdown};
pub use resources::CoreSplit;
pub use topology::{CoreId, SocketId, Topology};

/// Simulated seconds. All cost-model outputs are expressed in this unit.
pub type Seconds = f64;

/// Gigabytes per second; the unit used throughout the bandwidth model.
pub type GBps = f64;
