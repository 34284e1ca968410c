//! Durability subsystem: write-ahead logging, group commit, column-segment
//! checkpoints and crash recovery for the adaptive HTAP engine.
//!
//! The paper's engine is in-memory; this crate adds the persistence layer a
//! deployable system needs without disturbing the hot path:
//!
//! * [`record`] — typed, CRC32-framed WAL commit records whose decoding is
//!   total (torn or bit-flipped bytes end the valid prefix, they never
//!   panic), in the byte codec the checkpoint shares;
//! * [`wal`] — the group-commit coordinator: concurrent committers share one
//!   fsync per batch, and a commit only returns once its record is durable;
//! * [`checkpoint`] — atomic column-segment snapshots of every relation,
//!   taken inside the twin-instance switch quiescence window. A snapshot
//!   covers the whole log, so the WAL then restarts empty at the checkpoint
//!   LSN ([`Wal::restart_at`]) without reading a frame. Written from, and
//!   decoded into, whole columns: a relation is its columns, its keys are
//!   the cells of its key column, and each durable file is touched once;
//! * [`recovery`] — loads the latest checkpoint plus the intact WAL tail;
//!   the OLTP crate replays that tail through its normal insert/update path;
//! * [`file`] — the injectable [`DurableFile`]/[`DurableStorage`] I/O
//!   traits, with a real-filesystem backend, an in-memory backend whose
//!   "disk" outlives the engine, and a fault-injecting decorator (dropped,
//!   torn and bit-flipped writes, failing fsyncs, halted media) used by the
//!   crash-recovery test-suite.
//!
//! See `ARCHITECTURE.md` ("Durability & crash recovery") for the record
//! format, the group-commit protocol and the recovery invariant.

pub mod checkpoint;
mod codec;
pub mod error;
pub mod file;
pub mod record;
pub mod recovery;
pub mod wal;

pub use checkpoint::{CheckpointData, CheckpointTable};
pub use error::DurabilityError;
pub use file::{
    AppendFault, DurableFile, DurableStorage, FaultInjector, FaultStorage, FsStorage, MemStorage,
};
pub use record::{crc32, decode_wal, encode_wal_header, Lsn, WalOp, WalRecord, WalSegment};
pub use recovery::{load_state, RecoveredState};
pub use wal::{Wal, WalConfig, WalStats};
