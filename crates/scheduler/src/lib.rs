//! Freshness-driven elastic HTAP scheduling (§4 of the paper).
//!
//! The scheduler sits on top of the RDE engine. For every analytical query it
//! measures the freshness-rate of the relations the query accesses
//! ([`freshness`]), runs Algorithm 2 ([`policy`]) to pick a system state, asks
//! the RDE engine to migrate ([`htap_rde::migration`]), and hands back the
//! access paths and the modelled scheduling overhead (instance switch, ETL)
//! that the query must absorb.
//!
//! Besides the adaptive policy, the crate provides the *static* schedules the
//! paper compares against in Figure 5 (always-S1, always-S2, always-S3-IS,
//! always-S3-NI) through the same interface ([`schedule`]).

pub mod freshness;
pub mod policy;
pub mod schedule;
pub mod scheduler;

pub use freshness::QueryFreshness;
pub use policy::SchedulerPolicy;
pub use schedule::Schedule;
pub use scheduler::{HtapScheduler, ScheduledQuery};
