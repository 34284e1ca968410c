//! Worker manager: an elastic pool of transaction workers.
//!
//! The paper's OLTP engine "uses one hardware thread per transaction. The WM
//! keeps a worker pool of active threads. We set each thread to first generate
//! a transaction and then execute it, simulating a full transaction queue. The
//! WM exposes an API to set the number of active worker threads and their CPU
//! affinities, thus enabling the OLTP engine to elastically scale up and down
//! upon request" (§3.2).
//!
//! CPU affinities are logical: each worker is associated with a simulated
//! [`CoreId`] from `htap-sim`, and the resulting placement is what the
//! interference model uses to compute modelled throughput. Pinning to host
//! OS cores is deliberately not performed — the evaluation machine is
//! simulated (ARCHITECTURE.md, "Crate layering").

use htap_sim::CoreId;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Final per-worker counts of a stopped ingest pool.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerReport {
    /// Transactions committed, per worker.
    pub committed_per_worker: Vec<u64>,
    /// Transactions aborted (a body invocation that returned `false`), per
    /// worker.
    pub aborted_per_worker: Vec<u64>,
}

impl WorkerReport {
    /// Total committed transactions.
    pub fn committed(&self) -> u64 {
        self.committed_per_worker.iter().sum()
    }

    /// Total aborted transactions.
    pub fn aborted(&self) -> u64 {
        self.aborted_per_worker.iter().sum()
    }
}

/// Live totals of a running ingest pool: the sums of the per-worker counters
/// [`WorkerManager::stop`] reports. Each field only grows while the pool
/// runs, and trails the body's own returns by at most one transaction per
/// worker (the one whose outcome is being recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OltpCounts {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
}

/// Pool assignment shared with long-running ingest threads, so mid-flight
/// grants and revocations by the RDE engine take effect without restarting
/// the pool.
#[derive(Debug, Default)]
struct PoolState {
    /// The granted cores, in worker order: worker `i` runs on `affinity[i]`,
    /// and workers past its end park.
    affinity: RwLock<Vec<CoreId>>,
    /// Revoked ingest workers block here instead of sleep-polling (polling
    /// would burn scheduler cycles on the very host whose ingest throughput
    /// is being measured); every resize and stop notifies.
    resize_mutex: std::sync::Mutex<()>,
    resize_cv: std::sync::Condvar,
}

impl PoolState {
    /// Wake every parked worker (after a resize or stop). Holding the mutex
    /// while notifying closes the check-then-wait race in
    /// [`Self::park_until_resize`].
    fn notify_resize(&self) {
        let _guard = self
            .resize_mutex
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.resize_cv.notify_all();
    }

    /// Park the calling worker until the next resize/stop notification (with
    /// a timeout backstop). `should_park` is re-checked under the lock so a
    /// notification between the caller's last check and this call is never
    /// lost.
    fn park_until_resize(&self, should_park: impl Fn() -> bool) {
        let guard = self
            .resize_mutex
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if should_park() {
            let _ = self
                .resize_cv
                .wait_timeout(guard, Duration::from_millis(50));
        }
    }
}

/// Counters of a continuously running pool: one (committed, aborted) pair
/// per worker, written only by that worker.
#[derive(Debug)]
struct IngestShared {
    committed: Vec<AtomicU64>,
    aborted: Vec<AtomicU64>,
    stop: AtomicBool,
}

impl IngestShared {
    fn report(&self) -> WorkerReport {
        let load = |counters: &[AtomicU64]| {
            counters
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .collect::<Vec<u64>>()
        };
        WorkerReport {
            committed_per_worker: load(&self.committed),
            aborted_per_worker: load(&self.aborted),
        }
    }
}

/// A continuously running set of ingest threads.
#[derive(Debug)]
struct IngestPool {
    shared: Arc<IngestShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// The elastic worker pool.
#[derive(Debug, Default)]
pub struct WorkerManager {
    state: Arc<PoolState>,
    /// The running ingest pool, when one has been started.
    ingest: Mutex<Option<IngestPool>>,
}

impl WorkerManager {
    /// New manager with no workers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker pool to one active worker per core of `cores`. This
    /// is the API the RDE engine calls when migrating states; a running
    /// ingest pool observes the new assignment mid-flight. Re-applying the
    /// grant already in force wakes nobody.
    pub fn set_workers(&self, cores: &[CoreId]) {
        {
            let mut affinity = self.state.affinity.write();
            if *affinity == cores {
                return;
            }
            affinity.clear();
            affinity.extend_from_slice(cores);
        }
        self.state.notify_resize();
    }

    /// Number of active workers: the length of the grant.
    pub fn active_workers(&self) -> usize {
        self.state.affinity.read().len()
    }

    /// The cores assigned to the active workers, in worker order.
    pub fn affinity(&self) -> Vec<CoreId> {
        self.state.affinity.read().clone()
    }

    /// Start the ingest pool — the one way this manager runs transactions:
    /// one OS thread per potential worker, each repeatedly invoking
    /// `body(worker_id, core, txn_index)` and counting a `true` as a commit
    /// and a `false` as an abort; either way the next invocation gets the
    /// next `txn_index`, so a body that wants an aborted transaction tried
    /// again retries inside itself. The pool keeps running until
    /// [`Self::stop`]; while it runs, [`Self::set_workers`] resizes it
    /// mid-flight — deactivated workers park until they are granted back,
    /// and affinity changes are picked up on the next transaction.
    ///
    /// Threads are spawned for `max(max_workers, current pool size)` workers,
    /// so a later grant *larger* than the pool at start time still finds a
    /// thread to resume (parked threads block on a condition variable until
    /// a resize wakes them). Pass the machine's core count to cover every
    /// possible grant.
    ///
    /// Returns the number of threads spawned: 0 when the capacity is zero or
    /// an ingest run is already active (the running pool is left untouched).
    pub fn start_with_capacity<F>(&self, max_workers: usize, body: F) -> usize
    where
        F: Fn(usize, CoreId, u64) -> bool + Send + Sync + 'static,
    {
        let mut slot = self.ingest.lock();
        if slot.is_some() {
            return 0;
        }
        let pool_size = self.state.affinity.read().len().max(max_workers);
        if pool_size == 0 {
            return 0;
        }
        let shared = Arc::new(IngestShared {
            committed: (0..pool_size).map(|_| AtomicU64::new(0)).collect(),
            aborted: (0..pool_size).map(|_| AtomicU64::new(0)).collect(),
            stop: AtomicBool::new(false),
        });
        let body = Arc::new(body);
        let handles = (0..pool_size)
            .map(|worker_id| {
                let state = Arc::clone(&self.state);
                let shared = Arc::clone(&shared);
                let body = Arc::clone(&body);
                std::thread::Builder::new()
                    .name(format!("oltp-ingest-{worker_id}"))
                    .spawn(move || {
                        // Route this thread's ring events (commit, abort) to
                        // its own oltp-ingest lane.
                        htap_obs::bind_thread_oltp(worker_id);
                        // The worker's core, when it is inside the current
                        // grant.
                        let granted_core =
                            |state: &PoolState| state.affinity.read().get(worker_id).copied();
                        let mut txn_index = 0u64;
                        while !shared.stop.load(Ordering::Acquire) {
                            let Some(core) = granted_core(&state) else {
                                state.park_until_resize(|| {
                                    !shared.stop.load(Ordering::Acquire)
                                        && granted_core(&state).is_none()
                                });
                                continue;
                            };
                            if body(worker_id, core, txn_index) {
                                shared.committed[worker_id].fetch_add(1, Ordering::Release);
                            } else {
                                shared.aborted[worker_id].fetch_add(1, Ordering::Release);
                                htap_obs::record_thread(
                                    htap_obs::EventKind::TxnAbort,
                                    htap_obs::now_us(),
                                    worker_id as u64,
                                    txn_index,
                                );
                            }
                            txn_index += 1;
                        }
                    })
                    .expect("spawning an ingest worker")
            })
            .collect();
        *slot = Some(IngestPool { shared, handles });
        pool_size
    }

    /// Whether an ingest pool is active.
    pub fn ingest_running(&self) -> bool {
        self.ingest.lock().is_some()
    }

    /// Live totals of the running ingest pool — sampled without stopping it,
    /// so callers can derive measured OLTP throughput around each analytical
    /// query. Zeroes when no pool runs. Allocation-free: pacing loops poll
    /// this at high frequency.
    pub fn live_counts(&self) -> OltpCounts {
        let sum = |counters: &[AtomicU64]| counters.iter().map(|c| c.load(Ordering::Acquire)).sum();
        match self.ingest.lock().as_ref() {
            Some(pool) => OltpCounts {
                committed: sum(&pool.shared.committed),
                aborted: sum(&pool.shared.aborted),
            },
            None => OltpCounts::default(),
        }
    }

    /// Live per-worker commit counts of the running ingest pool (empty when
    /// no pool runs). Lets callers observe which workers a mid-flight resize
    /// parked or resumed.
    pub fn per_worker_committed(&self) -> Vec<u64> {
        match self.ingest.lock().as_ref() {
            Some(pool) => pool.shared.report().committed_per_worker,
            None => Vec::new(),
        }
    }

    /// Stop the ingest pool: signal every thread, join them and return the
    /// final per-worker counts. A no-op returning an empty report when no
    /// pool is running.
    pub fn stop(&self) -> WorkerReport {
        let Some(pool) = self.ingest.lock().take() else {
            return WorkerReport::default();
        };
        pool.shared.stop.store(true, Ordering::Release);
        self.state.notify_resize();
        for handle in pool.handles {
            // A panicked worker must not panic stop(): it is reachable from
            // Drop during unwinding, where a second panic aborts the whole
            // process and masks the original failure. The worker's partial
            // counts are still in the shared counters.
            let _ = handle.join();
        }
        pool.shared.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_sim::{SocketId, Topology};

    fn cores(n: u16) -> Vec<CoreId> {
        (0..n).map(CoreId).collect()
    }

    #[test]
    fn set_workers_and_scale_down() {
        let wm = WorkerManager::new();
        assert_eq!(wm.active_workers(), 0);
        wm.set_workers(&cores(8));
        assert_eq!(wm.active_workers(), 8);
        assert_eq!(wm.affinity().len(), 8);
        wm.set_workers(&cores(3));
        assert_eq!(wm.active_workers(), 3);
        assert_eq!(wm.affinity(), vec![CoreId(0), CoreId(1), CoreId(2)]);
    }

    #[test]
    fn parallel_run_counts_commits_and_aborts() {
        let wm = WorkerManager::new();
        wm.set_workers(&cores(4));
        // Every third transaction "aborts". A `false` is counted and the body
        // is called again with the next index, so a worker that has run n
        // transactions has aborted exactly the indices 0, 3, 6, … below n.
        assert_eq!(wm.start_with_capacity(0, |_, _, i| i % 3 != 0), 4);
        wait_until(|| wm.per_worker_committed().iter().all(|&c| c >= 20));
        let report = wm.stop();
        assert_eq!(report.committed_per_worker.len(), 4);
        for (committed, aborted) in report
            .committed_per_worker
            .iter()
            .zip(&report.aborted_per_worker)
        {
            let ran = committed + aborted;
            assert_eq!(*aborted, ran.div_ceil(3), "of {ran} transactions");
        }
    }

    #[test]
    fn workers_receive_their_assigned_core() {
        let topology = Topology::two_socket();
        let wm = WorkerManager::new();
        // Every body invocation sees the core of its slot in the grant in
        // force: socket-1 cores in ascending order first, socket-0 cores
        // after a re-grant. A mismatch is counted as an abort.
        for (socket, first_core) in [(SocketId(1), 14u16), (SocketId(0), 0)] {
            wm.set_workers(&topology.cores_of(socket));
            let spawned = wm.start_with_capacity(0, move |worker_id, core, _| {
                core == CoreId(first_core + worker_id as u16)
            });
            assert_eq!(spawned, 14);
            wait_until(|| wm.per_worker_committed().iter().all(|&c| c > 0));
            let report = wm.stop();
            assert_eq!(report.aborted(), 0, "a worker saw another slot's core");
        }
    }

    #[test]
    fn empty_pool_runs_nothing() {
        // Capacity without a grant: the threads exist but stay parked, so
        // the body never runs.
        let wm = WorkerManager::new();
        assert_eq!(wm.start_with_capacity(2, |_, _, _| true), 2);
        assert_eq!(wm.active_workers(), 0);
        let report = wm.stop();
        assert_eq!(report.committed(), 0);
        assert_eq!(report.aborted(), 0);
    }

    fn wait_until(mut condition: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !condition() {
            assert!(
                std::time::Instant::now() < deadline,
                "condition not reached within 30s"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn long_running_pool_counts_live_and_reports_on_stop() {
        let wm = WorkerManager::new();
        wm.set_workers(&cores(2));
        // Every fourth transaction "aborts"; the body keeps its own tally of
        // what it returned, the truth the pool's counters must match.
        let returned = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let tally = Arc::clone(&returned);
        let body = move |_, _, i: u64| {
            let committed = i % 4 != 3;
            tally[usize::from(committed)].fetch_add(1, Ordering::SeqCst);
            committed
        };
        assert_eq!(wm.start_with_capacity(0, body), 2);
        assert!(wm.ingest_running());
        // A second start must not spawn a second pool.
        assert_eq!(wm.start_with_capacity(0, |_, _, _| true), 0);
        wait_until(|| {
            let counts = wm.live_counts();
            counts.committed > 0 && counts.aborted > 0
        });
        // A live read trails the body's returns by at most the one
        // transaction per worker whose outcome is being recorded.
        let total = || returned[0].load(Ordering::SeqCst) + returned[1].load(Ordering::SeqCst);
        let before = total();
        let live = wm.live_counts();
        let after = total();
        let live_total = live.committed + live.aborted;
        assert!(
            before.saturating_sub(2) <= live_total && live_total <= after,
            "live {live_total} outside [{before} - 2 workers, {after}]"
        );
        let report = wm.stop();
        assert!(!wm.ingest_running());
        assert_eq!(report.committed_per_worker.len(), 2);
        // One count per outcome: the final report is exactly what the body
        // returned, and no live read ever ran ahead of it.
        assert_eq!(report.aborted(), returned[0].load(Ordering::SeqCst));
        assert_eq!(report.committed(), returned[1].load(Ordering::SeqCst));
        assert!(live.committed <= report.committed() && live.aborted <= report.aborted());
        // Stopping again is a no-op.
        assert_eq!(wm.stop(), WorkerReport::default());
        assert_eq!(wm.live_counts(), OltpCounts::default());
    }

    #[test]
    fn long_running_pool_resizes_mid_flight() {
        let wm = WorkerManager::new();
        wm.set_workers(&cores(4));
        assert_eq!(wm.start_with_capacity(0, |_, _, _| true), 4);
        wait_until(|| wm.live_counts().committed > 0);

        // Revoke all but one worker (the RDE engine shrinking the grant):
        // only worker 0 may make further progress. A revoked worker can
        // still finish the single transaction in flight at revocation time,
        // so the deterministic bound is "at most one more commit each" — no
        // matter how long worker 0 keeps running.
        wm.set_workers(&cores(1));
        let at_revocation = wm.per_worker_committed();
        wait_until(|| wm.per_worker_committed()[0] > at_revocation[0] + 5);
        let later = wm.per_worker_committed();
        for w in 1..4 {
            assert!(
                later[w] <= at_revocation[w] + 1,
                "revoked worker {w} kept committing: {} -> {}",
                at_revocation[w],
                later[w]
            );
        }

        // Grant everything back: the parked workers resume.
        wm.set_workers(&cores(4));
        wait_until(|| {
            let now = wm.per_worker_committed();
            (1..4).all(|w| now[w] > later[w] + 1)
        });
        let report = wm.stop();
        assert_eq!(report.committed_per_worker.len(), 4);
    }

    #[test]
    fn starting_an_empty_pool_spawns_nothing() {
        let wm = WorkerManager::new();
        assert_eq!(wm.start_with_capacity(0, |_, _, _| true), 0);
        assert!(!wm.ingest_running());
    }

    #[test]
    fn pool_grows_beyond_its_start_time_grant_up_to_capacity() {
        let wm = WorkerManager::new();
        wm.set_workers(&cores(2));
        // Capacity for 4 workers even though only 2 cores are granted now.
        assert_eq!(wm.start_with_capacity(4, |_, _, _| true), 4);
        wait_until(|| wm.live_counts().committed > 0);
        let before = wm.per_worker_committed();
        assert_eq!(before.len(), 4);

        // A larger grant activates the spare threads.
        wm.set_workers(&cores(4));
        assert_eq!(wm.active_workers(), 4);
        wait_until(|| {
            let now = wm.per_worker_committed();
            (2..4).all(|w| now[w] > before[w])
        });
        let report = wm.stop();
        assert_eq!(report.committed_per_worker.len(), 4);
        assert!(report.committed_per_worker.iter().all(|&c| c > 0));
    }
}
