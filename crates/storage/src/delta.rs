//! MVCC delta storage: newest-to-oldest version chains.
//!
//! The OLTP engine "maintains a delta storage to allow transactions to
//! traverse older versions of the objects in Newest-to-Oldest ordering,
//! following the standard multi-versioned concurrency control process"
//! (§3.2). The twin instances always hold the *latest committed* value; when a
//! transaction overwrites a record, the overwritten (older) version is pushed
//! here so that concurrent snapshot-isolation readers can still find the value
//! that was current when their snapshot began.

use crate::hash::BuildIdHasher;
use crate::schema::Value;
use crate::RowId;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Commit timestamp type (monotonically increasing, assigned by the
/// transaction manager).
pub type CommitTs = u64;

/// One saved version of one attribute of a record.
#[derive(Debug, Clone, PartialEq)]
pub struct Version {
    /// Commit timestamp of the transaction that *wrote* this (old) value.
    pub begin_ts: CommitTs,
    /// Commit timestamp of the transaction that *overwrote* it (i.e. the
    /// version is visible to snapshots in `[begin_ts, end_ts)`).
    pub end_ts: CommitTs,
    /// Column the value belongs to.
    pub column: usize,
    /// The saved value.
    pub value: Value,
}

/// End of a chain: no older version of the row is saved.
const NO_OLDER: u32 = u32::MAX;

#[derive(Debug)]
struct Node {
    version: Version,
    /// The row's next-older saved version (index into `Chains::versions`).
    older: u32,
}

/// The chains of one shard, in one arena: a version is pushed at the end
/// and linked in front of its row's chain, so a commit allocates nothing per
/// row, and collecting every version — what the switch window does — clears
/// two containers instead of freeing a vector per row.
#[derive(Debug, Default)]
struct Chains {
    /// Newest saved version of each row that has one.
    heads: HashMap<RowId, u32, BuildIdHasher>,
    versions: Vec<Node>,
    /// Largest `end_ts` among `versions`.
    newest_end_ts: CommitTs,
}

impl Chains {
    /// The saved versions of `row`, newest first.
    fn chain(&self, row: RowId) -> impl Iterator<Item = &Version> {
        let mut at = self.heads.get(&row).copied().unwrap_or(NO_OLDER);
        std::iter::from_fn(move || {
            let node = self.versions.get(at as usize)?;
            at = node.older;
            Some(&node.version)
        })
    }

    fn push(&mut self, row: RowId, version: Version) {
        self.newest_end_ts = self.newest_end_ts.max(version.end_ts);
        let older = self
            .heads
            .insert(row, self.versions.len() as u32)
            .unwrap_or(NO_OLDER);
        self.versions.push(Node { version, older });
    }
}

/// One lock shard: the chains of its rows, and how many rows have one. The
/// count is read without the lock, so a relation nobody updates (or a shard
/// just collected) answers a snapshot read without an exclusive access to
/// the shard's cache line.
#[derive(Debug, Default)]
struct Shard {
    versioned_rows: AtomicUsize,
    chains: RwLock<Chains>,
}

/// Per-table version store. Chains are kept per row, newest first.
#[derive(Debug, Default)]
pub struct DeltaStorage {
    shards: Vec<Shard>,
}

const DEFAULT_SHARDS: usize = 16;

impl DeltaStorage {
    /// New delta storage with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// New delta storage with `shards` lock shards.
    pub fn with_shards(shards: usize) -> Self {
        DeltaStorage {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
        }
    }

    fn shard(&self, row: RowId) -> &Shard {
        &self.shards[(row as usize) % self.shards.len()]
    }

    /// Record that each `(column, value)` cell one commit overwrote in `row`
    /// held `value` from `begin_ts` until it was overwritten at `end_ts`, in
    /// the order the commit wrote them, under one visit of the row's shard.
    /// Versions are linked in front of the row's chain, so chains stay
    /// newest-to-oldest. A column the commit wrote twice keeps only the
    /// first overwritten value: the second is the commit's own
    /// intermediate, which no snapshot may see.
    pub fn push_versions(
        &self,
        row: RowId,
        cells: impl Iterator<Item = (usize, Value)>,
        begin_ts: CommitTs,
        end_ts: CommitTs,
    ) {
        let shard = self.shard(row);
        let mut chains = shard.chains.write();
        let first = chains.versions.len();
        for (column, value) in cells {
            let written_before = chains.versions[first..]
                .iter()
                .any(|node| node.version.column == column);
            if !written_before {
                chains.push(
                    row,
                    Version {
                        begin_ts,
                        end_ts,
                        column,
                        value,
                    },
                );
            }
        }
        shard
            .versioned_rows
            .store(chains.heads.len(), Ordering::Release);
    }

    /// The columns of `row` overwritten by a commit after `ts` — the cells a
    /// snapshot at `ts` must not read from, nor a transaction with that
    /// snapshot write to (first committer wins). Empty for almost every row.
    pub fn columns_overwritten_after(&self, row: RowId, ts: CommitTs) -> Vec<usize> {
        let shard = self.shard(row);
        if shard.versioned_rows.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let chains = shard.chains.read();
        let mut columns: Vec<usize> = chains
            .chain(row)
            .filter(|v| v.end_ts > ts)
            .map(|v| v.column)
            .collect();
        columns.sort_unstable();
        columns.dedup();
        columns
    }

    /// The value of `column` of `row` visible to a snapshot taken at `ts`,
    /// or `None` if the latest committed value (in the twin instance) is the
    /// visible one, i.e. no saved version covers `ts`.
    pub fn visible_version(&self, row: RowId, column: usize, ts: CommitTs) -> Option<Value> {
        let shard = self.shard(row);
        if shard.versioned_rows.load(Ordering::Acquire) == 0 {
            return None;
        }
        let chains = shard.chains.read();
        // A snapshot at `ts` must see an old version if the current value was
        // written *after* ts, i.e. if some saved version has end_ts > ts.
        // Among the versions of this column whose validity interval contains
        // `ts`, the correct one is the *oldest overwrite after the snapshot*,
        // i.e. the version with the smallest `end_ts` greater than `ts`.
        chains
            .chain(row)
            .filter(|v| v.column == column && v.begin_ts <= ts && ts < v.end_ts)
            .min_by_key(|v| v.end_ts)
            .map(|v| v.value.clone())
    }

    /// Number of rows with at least one saved version.
    pub fn versioned_rows(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.chains.read().heads.len())
            .sum()
    }

    /// Total number of saved versions.
    pub fn version_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.chains.read().versions.len())
            .sum()
    }

    /// Garbage-collect versions that are invisible to every snapshot at or
    /// after `watermark` (i.e. versions with `end_ts <= watermark`). Returns
    /// the number of versions dropped.
    pub fn gc(&self, watermark: CommitTs) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            if shard.versioned_rows.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut chains = shard.chains.write();
            let before = chains.versions.len();
            if chains.newest_end_ts <= watermark {
                // Nothing survives (always so in the switch window): keep the
                // allocations, drop the contents.
                chains.heads.clear();
                chains.versions.clear();
                chains.newest_end_ts = 0;
            } else {
                let mut kept = Chains::default();
                for &row in chains.heads.keys() {
                    let survivors: Vec<&Version> =
                        chains.chain(row).filter(|v| v.end_ts > watermark).collect();
                    for version in survivors.into_iter().rev() {
                        kept.push(row, version.clone());
                    }
                }
                *chains = kept;
            }
            dropped += before - chains.versions.len();
            shard
                .versioned_rows
                .store(chains.heads.len(), Ordering::Release);
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sees_old_version_while_current_is_newer() {
        let delta = DeltaStorage::new();
        // Value 10 written at ts=1, overwritten at ts=5 (new value lives in
        // the instance).
        delta.push_versions(0, [(2, Value::I64(10))].into_iter(), 1, 5);
        // A snapshot at ts=3 must see the old value.
        assert_eq!(delta.visible_version(0, 2, 3), Some(Value::I64(10)));
        // A snapshot at ts=5 or later sees the live value.
        assert_eq!(delta.visible_version(0, 2, 5), None);
        assert_eq!(delta.visible_version(0, 2, 9), None);
        // Other columns are unaffected.
        assert_eq!(delta.visible_version(0, 1, 3), None);
    }

    #[test]
    fn chains_are_traversed_newest_to_oldest() {
        let delta = DeltaStorage::new();
        delta.push_versions(7, [(0, Value::I64(1))].into_iter(), 1, 4); // oldest
        delta.push_versions(7, [(0, Value::I64(2))].into_iter(), 4, 8);
        delta.push_versions(7, [(0, Value::I64(3))].into_iter(), 8, 12); // newest saved
        assert_eq!(delta.visible_version(7, 0, 2), Some(Value::I64(1)));
        assert_eq!(delta.visible_version(7, 0, 5), Some(Value::I64(2)));
        assert_eq!(delta.visible_version(7, 0, 9), Some(Value::I64(3)));
        assert_eq!(delta.visible_version(7, 0, 12), None);
    }

    #[test]
    fn snapshot_older_than_all_versions_sees_nothing_live() {
        let delta = DeltaStorage::new();
        delta.push_versions(1, [(0, Value::I64(5))].into_iter(), 3, 6);
        // Snapshot at ts=1 precedes the record's first saved version; the row
        // did exist (begin_ts 3 > 1 means value 5 was written at 3)... the
        // caller (transaction manager) handles row-existence via row counts;
        // the delta store just reports that no saved version covers ts=1 and
        // that the live value is NOT visible (end_ts 6 > 1).
        assert_eq!(delta.visible_version(1, 0, 1), None);
    }

    #[test]
    fn one_commit_pushes_its_row_in_one_visit_and_hides_its_intermediates() {
        let delta = DeltaStorage::new();
        // One commit at ts 5 wrote column 3 twice (10 → 11 → 12) and column 4.
        let cells = [(3, Value::I64(10)), (4, Value::I64(7)), (3, Value::I64(11))];
        delta.push_versions(9, cells.into_iter(), 0, 5);
        assert_eq!(delta.version_count(), 2);
        assert_eq!(delta.visible_version(9, 3, 2), Some(Value::I64(10)));
        assert_eq!(delta.visible_version(9, 4, 2), Some(Value::I64(7)));
        assert_eq!(delta.columns_overwritten_after(9, 2), vec![3, 4]);
        assert_eq!(delta.columns_overwritten_after(9, 5), Vec::<usize>::new());
        assert_eq!(delta.columns_overwritten_after(8, 2), Vec::<usize>::new());
        // A later commit's version of the same column is kept beside it.
        delta.push_versions(9, [(3, Value::I64(12))].into_iter(), 0, 8);
        assert_eq!(delta.visible_version(9, 3, 2), Some(Value::I64(10)));
        assert_eq!(delta.visible_version(9, 3, 6), Some(Value::I64(12)));
        assert_eq!(delta.columns_overwritten_after(9, 6), vec![3]);
    }

    #[test]
    fn an_empty_shard_answers_without_its_lock_and_refills_after_gc() {
        let delta = DeltaStorage::with_shards(2);
        assert_eq!(delta.visible_version(0, 0, 1), None);
        delta.push_versions(0, [(0, Value::I64(1))].into_iter(), 0, 4);
        assert_eq!(delta.visible_version(0, 0, 1), Some(Value::I64(1)));
        assert_eq!(delta.gc(4), 1);
        assert_eq!(delta.visible_version(0, 0, 1), None);
        delta.push_versions(2, [(0, Value::I64(2))].into_iter(), 0, 6);
        assert_eq!(delta.visible_version(2, 0, 5), Some(Value::I64(2)));
    }

    #[test]
    fn gc_drops_only_invisible_versions() {
        let delta = DeltaStorage::new();
        delta.push_versions(0, [(0, Value::I64(1))].into_iter(), 1, 3);
        delta.push_versions(0, [(0, Value::I64(2))].into_iter(), 3, 7);
        delta.push_versions(1, [(0, Value::I64(9))].into_iter(), 2, 4);
        assert_eq!(delta.version_count(), 3);
        let dropped = delta.gc(4);
        assert_eq!(dropped, 2);
        assert_eq!(delta.version_count(), 1);
        // The surviving version is still readable.
        assert_eq!(delta.visible_version(0, 0, 5), Some(Value::I64(2)));
        assert_eq!(delta.versioned_rows(), 1);
    }

    #[test]
    fn counts_track_rows_and_versions() {
        let delta = DeltaStorage::with_shards(4);
        assert_eq!(delta.versioned_rows(), 0);
        delta.push_versions(0, [(0, Value::I64(1))].into_iter(), 1, 2);
        delta.push_versions(64, [(1, Value::I64(2))].into_iter(), 1, 2);
        delta.push_versions(64, [(1, Value::I64(3))].into_iter(), 2, 3);
        assert_eq!(delta.versioned_rows(), 2);
        assert_eq!(delta.version_count(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For any sequence of overwrites of a single (row, column) with
        /// increasing timestamps, every snapshot sees exactly the value that
        /// was current at its timestamp.
        #[test]
        fn visibility_matches_history(values in prop::collection::vec(-1000i64..1000, 1..20), probe in 0u64..100) {
            let delta = DeltaStorage::new();
            // Build a history: value[i] written at ts=i+1, overwritten at ts=i+2.
            let n = values.len() as u64;
            for (i, v) in values.iter().enumerate() {
                let begin = i as u64 + 1;
                let end = i as u64 + 2;
                if end <= n {
                    // all but the last value get overwritten; last lives in the instance
                    delta.push_versions(0, [(0, Value::I64(*v))].into_iter(), begin, end);
                }
            }
            let got = delta.visible_version(0, 0, probe);
            if probe >= n {
                // Snapshot after the last write sees the live value.
                prop_assert_eq!(got, None);
            } else if probe >= 1 {
                let expected = values[(probe - 1) as usize];
                prop_assert_eq!(got, Some(Value::I64(expected)));
            } else {
                // Before the first write the row did not exist yet; no saved
                // version covers it and the live value is not visible either,
                // which the store reports as None (existence handled upstream).
                prop_assert_eq!(got, None);
            }
        }
    }
}
