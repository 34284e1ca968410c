//! Record-level lock table with NO-WAIT deadlock avoidance.
//!
//! The transaction manager relies on two-phase locking over record identifiers
//! (MV2PL, §3.2). Deadlocks are avoided rather than detected: a lock request
//! that cannot be granted immediately fails and the requesting transaction
//! aborts and retries (the NO-WAIT policy, which the high-contention OLTP
//! literature the paper cites favours on multi-socket machines).
//!
//! The table is sharded to keep the critical sections short and to avoid a
//! single global hot spot — important because the lock table itself is one of
//! the shared structures that suffer from cross-socket traffic when workers
//! spread over sockets (§5.2).

use htap_storage::hash::BuildIdHasher;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Identifier of the lockable resource: a record (row) or a key of a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LockKey {
    /// Lock tag of the relation: its creation index in the engine's
    /// registry, so it is engine-local and deterministic (see
    /// [`crate::TxnManager::create_table`]).
    pub table: u64,
    /// Row identifier or primary-key value being locked.
    pub record: u64,
}

impl LockKey {
    /// Build a lock key from a relation's lock tag and a record identifier.
    pub fn new(table: u64, record: u64) -> Self {
        LockKey { table, record }
    }
}

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

#[derive(Debug, Default)]
struct LockState {
    /// Transaction holding the exclusive lock, if any.
    exclusive: Option<u64>,
    /// Transactions holding shared locks.
    shared: Vec<u64>,
}

/// Sharded record-lock table.
#[derive(Debug)]
pub struct LockTable {
    shards: Vec<Mutex<HashMap<LockKey, LockState, BuildIdHasher>>>,
}

impl Default for LockTable {
    fn default() -> Self {
        Self::new(64)
    }
}

impl LockTable {
    /// Create a lock table with `shards` shards.
    pub fn new(shards: usize) -> Self {
        LockTable {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
        }
    }

    fn shard(&self, key: &LockKey) -> &Mutex<HashMap<LockKey, LockState, BuildIdHasher>> {
        // The shard's map indexes with the low bits of the same hash; the
        // shard is picked from the high half so the two stay independent.
        let hash = BuildIdHasher::default().hash_one(key);
        &self.shards[(hash >> 32) as usize % self.shards.len()]
    }

    /// Try to acquire a lock for transaction `txn`. NO-WAIT: returns `false`
    /// immediately if the request conflicts with locks held by other
    /// transactions. Re-acquisition and upgrade by the same transaction are
    /// allowed when no other holder conflicts.
    pub fn try_acquire(&self, txn: u64, key: LockKey, mode: LockMode) -> bool {
        let mut shard = self.shard(&key).lock();
        let state = shard.entry(key).or_default();
        match mode {
            LockMode::Shared => match state.exclusive {
                Some(owner) if owner != txn => false,
                _ => {
                    if !state.shared.contains(&txn) {
                        state.shared.push(txn);
                    }
                    true
                }
            },
            LockMode::Exclusive => {
                let other_exclusive = state.exclusive.is_some_and(|o| o != txn);
                let other_shared = state.shared.iter().any(|&o| o != txn);
                if other_exclusive || other_shared {
                    return false;
                }
                state.exclusive = Some(txn);
                true
            }
        }
    }

    /// Release every lock held by `txn` on `key`.
    pub fn release(&self, txn: u64, key: LockKey) {
        let mut shard = self.shard(&key).lock();
        if let Some(state) = shard.get_mut(&key) {
            if state.exclusive == Some(txn) {
                state.exclusive = None;
            }
            state.shared.retain(|&o| o != txn);
            if state.exclusive.is_none() && state.shared.is_empty() {
                shard.remove(&key);
            }
        }
    }

    /// Release a set of locks held by `txn`.
    pub fn release_all(&self, txn: u64, keys: &[LockKey]) {
        for &key in keys {
            self.release(txn, key);
        }
    }

    /// Number of currently locked records (for tests and introspection).
    pub fn locked_records(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_locks_conflict_between_transactions() {
        let lt = LockTable::default();
        let k = LockKey::new(1, 7);
        assert!(lt.try_acquire(1, k, LockMode::Exclusive));
        assert!(
            !lt.try_acquire(2, k, LockMode::Exclusive),
            "NO-WAIT must fail fast"
        );
        assert!(!lt.try_acquire(2, k, LockMode::Shared));
        lt.release(1, k);
        assert!(lt.try_acquire(2, k, LockMode::Exclusive));
        assert_eq!(lt.locked_records(), 1);
    }

    #[test]
    fn shared_locks_are_compatible_and_block_writers() {
        let lt = LockTable::default();
        let k = LockKey::new(1, 7);
        assert!(lt.try_acquire(1, k, LockMode::Shared));
        assert!(lt.try_acquire(2, k, LockMode::Shared));
        assert!(!lt.try_acquire(3, k, LockMode::Exclusive));
        lt.release(1, k);
        assert!(!lt.try_acquire(3, k, LockMode::Exclusive));
        lt.release(2, k);
        assert!(lt.try_acquire(3, k, LockMode::Exclusive));
    }

    #[test]
    fn reacquisition_and_upgrade_by_same_transaction() {
        let lt = LockTable::default();
        let k = LockKey::new(1, 1);
        assert!(lt.try_acquire(1, k, LockMode::Shared));
        assert!(lt.try_acquire(1, k, LockMode::Shared));
        assert!(
            lt.try_acquire(1, k, LockMode::Exclusive),
            "self-upgrade allowed"
        );
        assert!(lt.try_acquire(1, k, LockMode::Exclusive));
        assert!(!lt.try_acquire(2, k, LockMode::Shared));
    }

    #[test]
    fn locks_on_different_records_do_not_conflict() {
        let lt = LockTable::default();
        assert!(lt.try_acquire(1, LockKey::new(1, 1), LockMode::Exclusive));
        assert!(lt.try_acquire(2, LockKey::new(1, 2), LockMode::Exclusive));
        assert!(lt.try_acquire(3, LockKey::new(2, 1), LockMode::Exclusive));
        assert_eq!(lt.locked_records(), 3);
    }

    #[test]
    fn release_all_clears_table() {
        let lt = LockTable::new(8);
        let keys: Vec<LockKey> = (0..100).map(|i| LockKey::new(3, i)).collect();
        for &k in &keys {
            assert!(lt.try_acquire(1, k, LockMode::Exclusive));
        }
        assert_eq!(lt.locked_records(), 100);
        lt.release_all(1, &keys);
        assert_eq!(lt.locked_records(), 0);
    }

    #[test]
    fn concurrent_writers_never_hold_the_same_exclusive_lock() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let lt = Arc::new(LockTable::new(16));
        let in_section = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let lt = Arc::clone(&lt);
            let in_section = Arc::clone(&in_section);
            let max_seen = Arc::clone(&max_seen);
            handles.push(std::thread::spawn(move || {
                let k = LockKey::new(4, 0);
                let mut acquired = 0;
                while acquired < 200 {
                    if lt.try_acquire(t, k, LockMode::Exclusive) {
                        let now = in_section.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(now, Ordering::SeqCst);
                        in_section.fetch_sub(1, Ordering::SeqCst);
                        lt.release(t, k);
                        acquired += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            max_seen.load(Ordering::SeqCst),
            1,
            "mutual exclusion violated"
        );
        assert_eq!(lt.locked_records(), 0);
    }
}
