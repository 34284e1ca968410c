//! Primary-key index structures.
//!
//! The OLTP engine maintains one index per relation, "implemented using cuckoo
//! hashing. The index always points to the last updated record in either of
//! the two instances" (§3.2).

pub mod cuckoo;

use crate::{Epoch, RowId};

/// Location of a record: the row it occupies (rows are aligned across the
/// twin instances, so `row` is valid in both, and the latest committed value
/// is always in the active one — the index entry never changes after the
/// insert) and when it became visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLocation {
    /// Row identifier, valid in both twin instances.
    pub row: RowId,
    /// Commit timestamp of the inserting transaction (0 for bulk-loaded
    /// records): snapshots older than it do not see the record.
    pub epoch: Epoch,
}

impl RecordLocation {
    /// Location of a bulk-loaded record (visible to every snapshot).
    pub fn new(row: RowId) -> Self {
        RecordLocation { row, epoch: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_location_construction() {
        let loc = RecordLocation::new(42);
        assert_eq!(loc.row, 42);
        assert_eq!(loc.epoch, 0);
    }
}
