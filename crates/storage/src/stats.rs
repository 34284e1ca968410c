//! Per-instance and per-column statistics maintained by the storage manager.
//!
//! The paper's SM "maintains instance statistics per column, which are the
//! number of records at the time of switch, a flag indicating if the column
//! contains updated tuples and the epoch number" (§3.2). What consumes them
//! here: the twin synchronisation copies only the columns whose `updated`
//! flag is set on the snapshot instance (and clears it there), and skips a
//! relation whose [`UpdatePresence`] flag is clear without looking at its
//! update bits. The switch-time row count and epoch are recorded per column
//! as the paper describes; the scheduler's fresh-data amounts come from
//! [`InstanceStats`] and the update bits, not from them.

use crate::Epoch;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Statistics of one column within one instance.
#[derive(Debug, Default)]
pub struct ColumnStats {
    /// Rows present in the column at the time of the last instance switch.
    rows_at_switch: AtomicU64,
    /// Whether the column has received updates since its update flag was cleared.
    updated: AtomicBool,
    /// Epoch of the last switch that observed this column.
    epoch: AtomicU64,
}

impl ColumnStats {
    /// New statistics with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the state observed at an instance switch.
    pub fn record_switch(&self, rows: u64, epoch: Epoch) {
        self.rows_at_switch.store(rows, Ordering::Release);
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Rows present at the last switch.
    pub fn rows_at_switch(&self) -> u64 {
        self.rows_at_switch.load(Ordering::Acquire)
    }

    /// Epoch recorded at the last switch.
    pub fn epoch(&self) -> Epoch {
        self.epoch.load(Ordering::Acquire)
    }

    /// Mark the column as containing updated tuples. Every update of every
    /// worker lands here, so the flag is read first and written only on its
    /// first transition: the line stays shared between cores afterwards.
    pub fn mark_updated(&self) {
        if !self.is_updated() {
            self.updated.store(true, Ordering::Release);
        }
    }

    /// Whether the column contains updated tuples since the flag was cleared.
    pub fn is_updated(&self) -> bool {
        self.updated.load(Ordering::Acquire)
    }

    /// Clear the updated flag (the twin synchronisation does, on the snapshot
    /// instance, once it has copied the column).
    pub fn clear_updated(&self) {
        self.updated.store(false, Ordering::Release);
    }
}

/// Aggregated statistics of one table instance, exposed to the RDE engine and
/// the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstanceStats {
    /// Rows visible in the instance.
    pub visible_rows: u64,
    /// Rows inserted since the last switch.
    pub inserted_since_switch: u64,
    /// Records updated since the last synchronisation against the twin.
    pub updated_since_sync: u64,
    /// Records updated or inserted since the last ETL to the OLAP instance.
    pub fresh_vs_olap: u64,
    /// Epoch of the instance (incremented at every switch).
    pub epoch: Epoch,
}

impl InstanceStats {
    /// Total fresh records (inserted + updated) relative to the twin instance.
    pub fn fresh_vs_twin(&self) -> u64 {
        self.inserted_since_switch + self.updated_since_sync
    }
}

/// Relation-level update-presence flag: set by every update of the relation,
/// read and cleared by the twin synchronisation, which skips a relation whose
/// flag is clear (§3.4). The column level of the paper's hierarchy is
/// [`ColumnStats::is_updated`]; the database level would only save the loop
/// over a dozen relations and is not kept.
#[derive(Debug, Default)]
pub struct UpdatePresence {
    any: AtomicBool,
}

impl UpdatePresence {
    /// New flag, initially clear.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark that some update happened below this level (read first, written
    /// on the first transition only — see [`ColumnStats::mark_updated`]).
    pub fn mark(&self) {
        if !self.is_set() {
            self.any.store(true, Ordering::Release);
        }
    }

    /// Whether any update happened below this level.
    pub fn is_set(&self) -> bool {
        self.any.load(Ordering::Acquire)
    }

    /// Clear the flag.
    pub fn clear(&self) {
        self.any.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_stats_record_switch_and_updates() {
        let s = ColumnStats::new();
        assert_eq!(s.rows_at_switch(), 0);
        assert!(!s.is_updated());
        s.record_switch(42, 3);
        s.mark_updated();
        assert_eq!(s.rows_at_switch(), 42);
        assert_eq!(s.epoch(), 3);
        assert!(s.is_updated());
        s.clear_updated();
        assert!(!s.is_updated());
    }

    #[test]
    fn instance_stats_fresh_vs_twin_sums_inserts_and_updates() {
        let s = InstanceStats {
            visible_rows: 100,
            inserted_since_switch: 7,
            updated_since_sync: 5,
            fresh_vs_olap: 20,
            epoch: 2,
        };
        assert_eq!(s.fresh_vs_twin(), 12);
    }

    #[test]
    fn update_presence_flag_toggles() {
        let f = UpdatePresence::new();
        assert!(!f.is_set());
        f.mark();
        assert!(f.is_set());
        f.clear();
        assert!(!f.is_set());
    }
}
