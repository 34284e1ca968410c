//! In-memory OLTP engine (§3.2 of the paper).
//!
//! The engine follows the standard in-memory OLTP design the paper describes:
//!
//! * a **Storage Manager** — the twin-instance columnar tables, delta/version
//!   storage and cuckoo index from `htap-storage`, wrapped per relation in a
//!   [`engine::TableRuntime`];
//! * a **Transaction Manager** ([`txn`]) implementing multi-version two-phase
//!   locking (MV2PL) with NO-WAIT deadlock avoidance and snapshot-isolation
//!   reads over the version chains; it owns the one registry of relations
//!   ([`TxnManager::create_table`]) and the one durability controller;
//! * a **Worker Manager** ([`worker`]) that keeps a pool of worker threads
//!   (one hardware thread per transaction), exposes an API to set the number
//!   of active workers and their CPU affinities, and lets the RDE engine scale
//!   the engine up and down elastically.
//!
//! The engine exposes exactly the hooks the RDE engine needs (§3.4): switching
//! the active instance and synchronising the twin instances in one quiescence
//! window, and reporting fresh-data statistics.

pub mod durability;
pub mod engine;
pub mod locks;
pub mod txn;
pub mod worker;

pub use durability::{
    apply_recovered, DurabilityController, DurabilityStats, CHECKPOINT_FILE, WAL_FILE,
};
pub use engine::{OltpEngine, TableRuntime};
pub use locks::{LockKey, LockMode, LockTable};
pub use txn::{RowRef, TableRef, Transaction, TxnError, TxnId, TxnManager};
pub use worker::{OltpCounts, WorkerManager, WorkerReport};
