//! Write-ahead log with a group-commit coordinator.
//!
//! `append_commit` encodes the record into a shared batch buffer and blocks
//! until the record is durable. The first waiter whose record is not yet
//! durable elects itself *flush leader*: it optionally lingers (bounded by
//! the flush interval) to let concurrent committers join the batch, then
//! writes the whole buffer and issues a single fsync for all of them. Every
//! waiter of the batch wakes when the leader publishes the new durable LSN —
//! N concurrent committers cost one fsync, not N.
//!
//! Locking: `state` (batch buffer + LSN watermarks, a `std::sync::Mutex`
//! paired with a condvar) and `io` (the file handle) are never held at the
//! same time — the leader drops `state` before touching `io` and reacquires
//! it afterwards. Poisoned guards are recovered (`into_inner`): the guarded
//! data is plain bytes and counters, and a failed flush is reported through
//! the explicit `broken` state, not through poisoning.
//!
//! If a flush fails, the WAL marks itself broken: the failed batch's waiters
//! (and all later appends) get an error and the engine must treat those
//! transactions as aborted. The bytes of a failed batch may be partially on
//! disk; the CRC framing makes recovery discard any torn tail.

use crate::error::DurabilityError;
use crate::file::{lock, DurableFile, DurableStorage};
use crate::record::{decode_wal, encode_wal_header, Lsn, WalRecord, WalSegment};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Tuning knobs of the group-commit coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// How long a flush leader lingers for more committers to join the batch
    /// before writing, in microseconds. Zero flushes immediately.
    pub flush_interval_micros: u64,
    /// Flush as soon as this many records are pending, even before the
    /// linger expires.
    pub max_batch: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            flush_interval_micros: 100,
            max_batch: 64,
        }
    }
}

/// Counters describing the work the group-commit coordinator has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (commits logged).
    pub appended: u64,
    /// Physical fsync barriers issued.
    pub fsyncs: u64,
    /// Flush batches written.
    pub batches: u64,
}

#[derive(Debug)]
struct WalState {
    /// Encoded-but-unflushed records.
    buf: Vec<u8>,
    /// Records currently in `buf`.
    pending: usize,
    /// LSN the next append receives.
    next_lsn: Lsn,
    /// Highest LSN known durable (exclusive: records with `lsn < durable_to`
    /// are durable).
    durable_to: Lsn,
    /// A leader is currently flushing.
    flushing: bool,
    /// Set on flush failure; all subsequent appends fail fast.
    broken: Option<DurabilityError>,
}

struct WalShared {
    state: Mutex<WalState>,
    cv: Condvar,
    io: Mutex<Box<dyn DurableFile>>,
    storage: Arc<dyn DurableStorage>,
    name: String,
    config: WalConfig,
    appended: AtomicU64,
    fsyncs: AtomicU64,
    batches: AtomicU64,
}

/// The write-ahead log. Cheap to clone and share across committer threads.
#[derive(Clone)]
pub struct Wal {
    shared: Arc<WalShared>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.shared.state);
        f.debug_struct("Wal")
            .field("name", &self.shared.name)
            .field("next_lsn", &st.next_lsn)
            .field("durable_to", &st.durable_to)
            .field("broken", &st.broken)
            .finish()
    }
}

impl Wal {
    /// Open (creating or repairing) the WAL file `name` on `storage`.
    ///
    /// An existing file is decoded and any torn/corrupt tail is rewritten
    /// away before the append handle opens, so appends always continue a
    /// valid prefix. Returns the WAL plus the decoded segment (recovery
    /// replays from it; a fresh WAL has an empty segment).
    pub fn open(
        storage: Arc<dyn DurableStorage>,
        name: &str,
        config: WalConfig,
    ) -> Result<(Self, WalSegment), DurabilityError> {
        // A log that does not exist yet is its header, not yet on the medium.
        let (stored, bytes) = match storage.read(name)? {
            Some(bytes) => (bytes.len(), bytes),
            None => (0, encode_wal_header(0)),
        };
        let segment = decode_wal(&bytes)?;
        if segment.valid_len != stored {
            // Write the new header, or drop the torn tail: the append handle
            // continues a valid prefix.
            storage.write_atomic(name, &bytes[..segment.valid_len])?;
        }
        let file = storage.open_append(name)?;
        let end = segment.end_lsn();
        let wal = Wal {
            shared: Arc::new(WalShared {
                state: Mutex::new(WalState {
                    buf: Vec::new(),
                    pending: 0,
                    next_lsn: end,
                    durable_to: end,
                    flushing: false,
                    broken: None,
                }),
                cv: Condvar::new(),
                io: Mutex::new(file),
                storage,
                name: name.to_string(),
                config,
                appended: AtomicU64::new(0),
                fsyncs: AtomicU64::new(0),
                batches: AtomicU64::new(0),
            }),
        };
        Ok((wal, segment))
    }

    /// Append a commit record and block until it is durable (or the flush
    /// covering it fails). Returns the record's LSN.
    ///
    /// Concurrent callers are batched: one of them becomes the flush leader
    /// and issues a single append+fsync for the whole batch.
    pub fn append_commit(&self, record: &WalRecord) -> Result<Lsn, DurabilityError> {
        let sh = &self.shared;
        let mut st = lock(&sh.state);
        if let Some(e) = &st.broken {
            return Err(e.clone());
        }
        let lsn = st.next_lsn;
        st.next_lsn += 1;
        record.encode_into(&mut st.buf);
        st.pending += 1;
        sh.appended.fetch_add(1, Ordering::Relaxed);
        // Wake a lingering leader if the batch just filled up.
        if st.pending >= sh.config.max_batch {
            sh.cv.notify_all();
        }

        loop {
            if st.durable_to > lsn {
                return Ok(lsn);
            }
            if let Some(e) = &st.broken {
                return Err(e.clone());
            }
            if !st.flushing {
                st.flushing = true;
                // Linger: give concurrent committers a chance to join this
                // batch so one fsync covers them all.
                let linger = Duration::from_micros(sh.config.flush_interval_micros);
                if !linger.is_zero() && st.pending < sh.config.max_batch {
                    let (guard, _timeout) = sh
                        .cv
                        .wait_timeout(st, linger)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    st = guard;
                }
                let buf = std::mem::take(&mut st.buf);
                let flush_to = st.next_lsn;
                let batch_records = st.pending as u64;
                st.pending = 0;
                drop(st);

                // I/O outside the state lock: the two mutexes are never held
                // simultaneously.
                let on = htap_obs::enabled();
                let t_flush = if on { htap_obs::now_us() } else { 0 };
                let result = {
                    let mut io = lock(&sh.io);
                    io.append(&buf).and_then(|()| {
                        sh.fsyncs.fetch_add(1, Ordering::Relaxed);
                        io.sync()
                    })
                };
                sh.batches.fetch_add(1, Ordering::Relaxed);
                if on {
                    // One event per group-commit batch on the leader's lane:
                    // how many commit records the single fsync covered.
                    htap_obs::record_thread(
                        htap_obs::EventKind::WalFsyncBatch,
                        t_flush,
                        batch_records,
                        htap_obs::now_us().saturating_sub(t_flush),
                    );
                }

                st = lock(&sh.state);
                st.flushing = false;
                match result {
                    Ok(()) => st.durable_to = st.durable_to.max(flush_to),
                    Err(e) => {
                        st.broken = Some(DurabilityError::Broken {
                            detail: e.to_string(),
                        });
                        // The waiter that observed the original failure
                        // reports it precisely; later appends see Broken.
                        sh.cv.notify_all();
                        return Err(e);
                    }
                }
                sh.cv.notify_all();
            } else {
                st = sh
                    .cv
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
    }

    /// LSN the next append will receive.
    pub fn next_lsn(&self) -> Lsn {
        lock(&self.shared.state).next_lsn
    }

    /// Exclusive durable watermark: every record with `lsn < durable_to()`
    /// is on the durable medium.
    pub fn durable_to(&self) -> Lsn {
        lock(&self.shared.state).durable_to
    }

    /// Whether an earlier flush failure has wedged the WAL.
    pub fn is_broken(&self) -> bool {
        lock(&self.shared.state).broken.is_some()
    }

    /// Group-commit counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appended: self.shared.appended.load(Ordering::Relaxed),
            fsyncs: self.shared.fsyncs.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
        }
    }

    /// Start the log afresh at `lsn`: replace the file with an empty log
    /// whose first record will be `lsn`, and reopen the append handle on it.
    /// What a checkpoint covering the whole log does — it runs inside the
    /// switch-gate quiescence window, where no commit is in flight — so
    /// nothing of the old log is read. Waits out a flush in progress; then
    /// every numbered record must be durable and `lsn` must be the next one
    /// (`durable_to == next_lsn == lsn`), or the restart would drop records
    /// no checkpoint holds: that is [`DurabilityError::Uncovered`], and the
    /// log stays as it is.
    pub fn restart_at(&self, lsn: Lsn) -> Result<(), DurabilityError> {
        let sh = &self.shared;
        let mut st = lock(&sh.state);
        while st.flushing {
            st = sh
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        if let Some(e) = &st.broken {
            return Err(e.clone());
        }
        if (st.durable_to, st.next_lsn) != (lsn, lsn) {
            return Err(DurabilityError::Uncovered {
                lsn,
                next_lsn: st.next_lsn,
                durable_to: st.durable_to,
            });
        }
        // Claim the flush role: an append arriving meanwhile waits, then
        // flushes to the new file.
        st.flushing = true;
        drop(st);

        let result = {
            let mut io = lock(&sh.io);
            sh.storage
                .write_atomic(&sh.name, &encode_wal_header(lsn))
                .and_then(|()| sh.storage.open_append(&sh.name))
                .map(|file| *io = file)
        };

        let mut st = lock(&sh.state);
        st.flushing = false;
        if let Err(e) = &result {
            st.broken = Some(DurabilityError::Broken {
                detail: e.to_string(),
            });
        }
        sh.cv.notify_all();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::MemStorage;
    use crate::record::WalOp;
    use htap_storage::Value;

    fn rec(txn_id: u64) -> WalRecord {
        WalRecord {
            txn_id,
            commit_ts: txn_id + 100,
            ops: vec![WalOp::Update {
                table: "t".into(),
                key: txn_id,
                column: 0,
                value: Value::I64(txn_id as i64),
            }],
        }
    }

    fn mem_wal(config: WalConfig) -> (MemStorage, Wal) {
        let mem = MemStorage::new();
        let (wal, seg) = Wal::open(Arc::new(mem.clone()), "wal", config).unwrap();
        assert!(seg.records.is_empty());
        (mem, wal)
    }

    #[test]
    fn appends_become_durable_and_reopen_continues() {
        let (mem, wal) = mem_wal(WalConfig {
            flush_interval_micros: 0,
            max_batch: 1,
        });
        assert_eq!(wal.append_commit(&rec(1)).unwrap(), 0);
        assert_eq!(wal.append_commit(&rec(2)).unwrap(), 1);
        assert_eq!(wal.durable_to(), 2);
        drop(wal);

        let (wal2, seg) = Wal::open(Arc::new(mem), "wal", WalConfig::default()).unwrap();
        assert_eq!(seg.records.len(), 2);
        assert_eq!(seg.records[1], rec(2));
        assert_eq!(wal2.next_lsn(), 2);
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        let (_mem, wal) = mem_wal(WalConfig {
            flush_interval_micros: 20_000,
            max_batch: 64,
        });
        const N: u64 = 16;
        let threads: Vec<_> = (0..N)
            .map(|i| {
                let wal = wal.clone();
                std::thread::spawn(move || wal.append_commit(&rec(i)).unwrap())
            })
            .collect();
        let mut lsns: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        lsns.sort_unstable();
        assert_eq!(lsns, (0..N).collect::<Vec<_>>());
        let stats = wal.stats();
        assert_eq!(stats.appended, N);
        // The whole point: far fewer fsyncs than committers. With a 20ms
        // linger the common case is one or two batches; allow slack for
        // scheduling but require real amortisation.
        assert!(
            stats.fsyncs <= N / 2,
            "expected batching, got {} fsyncs for {N} commits",
            stats.fsyncs
        );
    }

    #[test]
    fn full_batch_flushes_without_waiting_for_linger() {
        let (_mem, wal) = mem_wal(WalConfig {
            flush_interval_micros: 60_000_000, // would time out the test
            max_batch: 2,
        });
        let t1 = {
            let wal = wal.clone();
            std::thread::spawn(move || wal.append_commit(&rec(1)).unwrap())
        };
        let t2 = {
            let wal = wal.clone();
            std::thread::spawn(move || wal.append_commit(&rec(2)).unwrap())
        };
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(wal.durable_to(), 2);
    }

    #[test]
    fn failed_flush_breaks_the_wal() {
        use crate::file::{FaultInjector, FaultStorage};
        let mem = MemStorage::new();
        let inj = FaultInjector::new();
        let storage = FaultStorage::new(Arc::new(mem), inj.clone());
        let (wal, _) = Wal::open(
            Arc::new(storage),
            "wal",
            WalConfig {
                flush_interval_micros: 0,
                max_batch: 1,
            },
        )
        .unwrap();
        wal.append_commit(&rec(1)).unwrap();
        inj.fail_syncs(1);
        assert!(wal.append_commit(&rec(2)).is_err());
        assert!(wal.is_broken());
        assert!(matches!(
            wal.append_commit(&rec(3)),
            Err(DurabilityError::Broken { .. })
        ));
        // Durable watermark never advanced past the failure.
        assert_eq!(wal.durable_to(), 1);
    }

    #[test]
    fn restart_at_the_end_leaves_an_empty_log_that_appends_continue() {
        let (mem, wal) = mem_wal(WalConfig {
            flush_interval_micros: 0,
            max_batch: 1,
        });
        for i in 0..4 {
            wal.append_commit(&rec(i)).unwrap();
        }
        // What a checkpoint does: everything logged so far is covered.
        wal.restart_at(wal.next_lsn()).unwrap();
        assert_eq!(mem.bytes("wal").unwrap(), encode_wal_header(4));
        assert_eq!(wal.append_commit(&rec(7)).unwrap(), 4);
        let seg = decode_wal(&mem.bytes("wal").unwrap()).unwrap();
        assert_eq!((seg.base_lsn, seg.records), (4, vec![rec(7)]));
    }

    #[test]
    fn restart_at_a_pending_or_later_numbered_record_is_refused_and_changes_nothing() {
        use crate::file::{FaultInjector, FaultStorage};
        let mem = MemStorage::new();
        let inj = FaultInjector::new();
        let storage = FaultStorage::new(Arc::new(mem.clone()), inj.clone());
        let config = WalConfig {
            flush_interval_micros: 0,
            max_batch: 1,
        };
        let (wal, _) = Wal::open(Arc::new(storage), "wal", config).unwrap();
        for i in 0..3 {
            wal.append_commit(&rec(i)).unwrap();
        }
        let before = mem.bytes("wal").unwrap();
        // Records 1 and 2 are numbered past a restart at 1; none is at 4.
        for lsn in [0, 1, 2, 4] {
            assert_eq!(
                wal.restart_at(lsn),
                Err(DurabilityError::Uncovered {
                    lsn,
                    next_lsn: 3,
                    durable_to: 3
                })
            );
            assert_eq!(mem.bytes("wal").unwrap(), before, "restart at {lsn}");
        }
        // The log is not wedged: appends continue where they were.
        assert_eq!(wal.append_commit(&rec(3)).unwrap(), 3);
        // A record whose flush failed stays numbered and never durable.
        inj.fail_syncs(1);
        assert!(wal.append_commit(&rec(4)).is_err());
        assert_eq!((wal.next_lsn(), wal.durable_to()), (5, 4));
        let before = mem.bytes("wal").unwrap();
        for lsn in [4, 5] {
            assert!(matches!(
                wal.restart_at(lsn),
                Err(DurabilityError::Broken { .. })
            ));
        }
        assert_eq!(mem.bytes("wal").unwrap(), before);
    }

    #[test]
    fn open_repairs_a_torn_tail() {
        let (mem, wal) = mem_wal(WalConfig {
            flush_interval_micros: 0,
            max_batch: 1,
        });
        wal.append_commit(&rec(1)).unwrap();
        wal.append_commit(&rec(2)).unwrap();
        drop(wal);
        let mut bytes = mem.bytes("wal").unwrap();
        bytes.truncate(bytes.len() - 3);
        mem.set_bytes("wal", bytes);

        let (wal2, seg) = Wal::open(Arc::new(mem.clone()), "wal", WalConfig::default()).unwrap();
        assert_eq!(seg.records.len(), 1);
        assert_eq!(wal2.next_lsn(), 1);
        // The stored file itself was repaired to the valid prefix.
        let repaired = decode_wal(&mem.bytes("wal").unwrap()).unwrap();
        assert_eq!(repaired.valid_len, mem.bytes("wal").unwrap().len());
    }

    /// A fresh log is created by `write_atomic`, which syncs the directory,
    /// never by `open_append`, whose create is not durable until one: when
    /// the header cannot be written atomically, `open` fails and leaves no
    /// file behind.
    #[test]
    fn a_fresh_log_is_created_only_through_write_atomic() {
        use crate::file::{FaultInjector, FaultStorage};
        let mem = MemStorage::new();
        let injector = FaultInjector::new();
        injector.set_fail_atomic_writes(true);
        let storage = FaultStorage::new(Arc::new(mem.clone()), injector.clone());
        let opened = Wal::open(Arc::new(storage), "wal.log", WalConfig::default());
        assert!(opened.is_err());
        assert_eq!(mem.bytes("wal.log"), None);
        injector.set_fail_atomic_writes(false);
        let storage = FaultStorage::new(Arc::new(mem.clone()), injector);
        Wal::open(Arc::new(storage), "wal.log", WalConfig::default()).unwrap();
        assert_eq!(mem.bytes("wal.log"), Some(encode_wal_header(0)));
    }
}
