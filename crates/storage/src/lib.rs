//! In-memory columnar storage for the adaptive HTAP system.
//!
//! This crate implements the storage manager the paper's OLTP engine is built
//! on (§3.2) and the snapshot handles its OLAP engine consumes (§3.3):
//!
//! * typed, append-friendly **columns** and **columnar tables** ([`column`],
//!   [`table`], [`schema`]);
//! * **twin instances** per table — two full columnar copies of the data, of
//!   which exactly one is *active* for transaction processing at any time,
//!   with per-record atomic **update-indication bits**, per-column update
//!   flags and a per-relation presence flag, all consumed by the one-step
//!   switch + synchronisation ([`twin`], [`update_bits`], [`stats`]);
//! * a **delta / version store** holding newest-to-oldest version chains for
//!   multi-version concurrency control ([`delta`]);
//! * a **cuckoo-hash primary-key index** pointing at the latest version of
//!   each record ([`index`]);
//! * read-only **snapshot handles** over an inactive instance, which is what
//!   the RDE engine hands to the OLAP engine ([`snapshot`]).
//!
//! The storage layer is deliberately engine-agnostic and keeps no registry of
//! relations: the OLTP engine owns the one name → relation map and drives
//! writes through it, the RDE engine drives instance switches,
//! synchronisation and ETL over that map, and the OLAP engine only ever sees
//! immutable snapshots.

pub mod column;
pub mod delta;
pub mod error;
pub mod hash;
pub mod index;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod table;
pub mod twin;
pub mod update_bits;

pub use column::{Column, ColumnGuard};
pub use delta::{DeltaStorage, Version};
pub use error::StorageError;
pub use index::cuckoo::CuckooIndex;
pub use index::RecordLocation;
pub use schema::{ColumnDef, DataType, TableSchema, Value};
pub use snapshot::TableSnapshot;
pub use stats::ColumnStats;
pub use table::ColumnarTable;
pub use twin::{InstanceId, SyncOutcome, TwinTable};
pub use update_bits::AtomicBitmap;

/// Row identifier within a table. Rows are numbered identically in both twin
/// instances (inserts are applied to both), so a `RowId` is instance-agnostic.
pub type RowId = u64;

/// Epoch counter incremented on every active-instance switch.
pub type Epoch = u64;
