//! Adaptive HTAP system facade.
//!
//! This crate assembles the paper's full system — OLTP engine, OLAP engine,
//! RDE engine and the elastic scheduler — behind one public API:
//!
//! ```no_run
//! use htap_core::{HtapConfig, HtapSystem};
//! use htap_chbench::QueryId;
//!
//! let mut system = HtapSystem::build(HtapConfig::tiny()).unwrap();
//! system.run_oltp(100);                       // NewOrder transactions
//! let report = system.execute_query(QueryId::Q6).unwrap(); // scheduled + executed
//! println!("{} in {:.3}s under {}", report.query, report.total_time(), report.state);
//! ```
//!
//! The facade owns the CH-benCHmark population and transaction driver, so a
//! downstream user gets a runnable HTAP system in a few lines; every
//! underlying component remains reachable for advanced use
//! ([`HtapSystem::rde`], [`HtapSystem::scheduler`]).

pub mod config;
pub mod report;
pub mod system;
pub mod workload;

pub use config::{DurabilityConfig, HtapConfig};
pub use report::{ExperimentTable, QueryReport, SequenceReport};
pub use system::{HtapSystem, SqlRunError};
pub use workload::{
    run_mixed_workload, run_mixed_workload_concurrent, ConcurrentOptions, MixedWorkload,
    MixedWorkloadReport,
};

// Re-export the vocabulary types users need alongside the facade.
pub use htap_chbench::{ChConfig, QueryId, QuerySequence};
pub use htap_durability::{DurableStorage, FsStorage, MemStorage};
pub use htap_olap::QueryPlan;
pub use htap_rde::{AccessMethod, ElasticityMode, SystemState};
pub use htap_scheduler::{Schedule, SchedulerPolicy};
pub use htap_sim::Topology;
pub use htap_sql::SqlError;
