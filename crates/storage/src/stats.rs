//! Per-instance and per-column statistics maintained by the storage manager.
//!
//! The paper's SM "maintains instance statistics per column, which are the
//! number of records at the time of switch, a flag indicating if the column
//! contains updated tuples and the epoch number" (§3.2). What consumes them
//! here: the twin synchronisation copies only the columns whose `updated`
//! flag is set on the snapshot instance (and clears it there), and skips a
//! relation whose [`UpdatePresence`] flag is clear without looking at its
//! update bits. The switch-time row count and the epoch number had no reader
//! and are not kept: the snapshot bound is the relation's visible-row
//! watermark, and the fresh-data amounts come from the twin table's
//! freshness ledger — the rows owed to the OLAP instance and its
//! propagation watermark ([`crate::TwinTable::take_olap_delta`]). No
//! aggregate per-instance statistics are kept beside these flags.

use std::sync::atomic::{AtomicBool, Ordering};

/// Statistics of one column within one instance.
#[derive(Debug, Default)]
pub struct ColumnStats {
    /// Whether the column has received updates since its update flag was cleared.
    updated: AtomicBool,
}

impl ColumnStats {
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
    fn column_stats_updated_flag_toggles() {
        let s = ColumnStats::default();
        assert!(!s.is_updated());
        s.mark_updated();
        assert!(s.is_updated());
        s.clear_updated();
        assert!(!s.is_updated());
    }

    #[test]
    fn update_presence_flag_toggles() {
        let f = UpdatePresence::default();
        assert!(!f.is_set());
        f.mark();
        assert!(f.is_set());
        f.clear();
        assert!(!f.is_set());
    }
}
