//! The OLAP engine's elastic worker team.
//!
//! "The OLAP engine also includes a Worker Manager, which works in a similar
//! way to the WM of the OLTP engine" (§3.3): the engine holds the core list
//! the RDE engine has granted it ([`crate::OlapEngine::set_workers`]) and
//! derives both its execution placement (cores per socket, what the cost
//! model consumes) and its worker team from that one list.
//!
//! Execution side: [`crate::OlapEngine::team`] snapshots the current grant
//! into a [`WorkerTeam`] — one pipeline worker per granted core. Like the
//! OLTP side's worker manager, the team runs on a pool of long-lived
//! threads: one helper per core id, process-wide (a core is a process
//! resource, so engines in one process share them), started the first time
//! a pipeline is posted to its core, pinned to that core once where the host
//! allows it, and blocked on a condition variable between pipelines. The
//! thread that posts a pipeline runs worker 0 itself and hands workers
//! 1..n−1 to the helpers of the team's other cores (see
//! [`crate::exec::QueryExecutor::execute_parallel`]), so no query starts or
//! joins an OS thread, and an elastic grant changes *measured* scan time,
//! not just the modelled one.

use htap_sim::CoreId;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Best-effort pinning of the calling thread to one CPU; says whether the
/// host accepted it.
///
/// The simulated topology's core numbering is passed straight to the host;
/// on machines with fewer CPUs than the simulated server (or ones that
/// refuse the affinity mask) the call fails and the worker simply stays
/// unpinned — correctness never depends on placement, only locality does.
#[cfg(target_os = "linux")]
fn pin_current_thread(core: CoreId) -> bool {
    // `cpu_set_t` is 1024 bits; `sched_setaffinity` is provided by the libc
    // that std already links against.
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let cpu = core.0 as usize;
    if cpu >= 1024 {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the mask is a valid, live 128-byte buffer and pid 0 means
    // "the calling thread".
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_core: CoreId) -> bool {
    false
}

/// Lock `m`, ignoring poison: no thread panics while it holds one of these.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker's share of a posted pipeline: the team's task and the worker
/// index to call it with. Posting one allocates nothing.
struct Job {
    task: &'static (dyn Fn(usize) + Sync),
    worker: usize,
}

/// A helper's mailbox: at most one job waiting, plus the tickets that order
/// the jobs posted to it and say which have returned.
#[derive(Default)]
struct Slot {
    job: Option<Job>,
    /// Jobs posted so far; a job's ticket is the count after its post.
    posted: u64,
    /// Jobs returned so far, in ticket order.
    done: u64,
    /// Posting threads asleep on [`Helper::freed`].
    waiters: usize,
}

/// The long-lived thread of one core id.
#[derive(Default)]
struct Helper {
    slot: Mutex<Slot>,
    /// Signalled when a job lands in the slot; the helper sleeps on it.
    arrived: Condvar,
    /// Signalled when the slot empties or a job returns; posting threads
    /// sleep on it.
    freed: Condvar,
    /// Whether the helper's one pin to its core took.
    pinned: AtomicBool,
}

impl Helper {
    /// Queue `job` (waiting while an earlier one still fills the slot) and
    /// return its ticket.
    fn post(&self, job: Job) -> u64 {
        let mut slot = lock(&self.slot);
        while slot.job.is_some() {
            slot = self.sleep(slot);
        }
        slot.job = Some(job);
        slot.posted += 1;
        let ticket = slot.posted;
        drop(slot);
        self.arrived.notify_one();
        ticket
    }

    /// Block until the job with `ticket` has returned.
    fn wait(&self, ticket: u64) {
        let mut slot = lock(&self.slot);
        while slot.done < ticket {
            slot = self.sleep(slot);
        }
    }

    fn sleep<'a>(&self, mut slot: MutexGuard<'a, Slot>) -> MutexGuard<'a, Slot> {
        slot.waiters += 1;
        let mut slot = self
            .freed
            .wait(slot)
            .unwrap_or_else(PoisonError::into_inner);
        slot.waiters -= 1;
        slot
    }

    /// The helper thread: pin once, then run jobs in ticket order, sleeping
    /// (never spinning) while the slot is empty. A job never unwinds: the
    /// team's task catches its worker's panic (see [`WorkerTeam::run`]).
    fn serve(&self, core: CoreId) {
        self.pinned
            .store(pin_current_thread(core), Ordering::Relaxed);
        let mut slot = lock(&self.slot);
        loop {
            let Some(job) = slot.job.take() else {
                slot = self
                    .arrived
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let wake = slot.waiters > 0;
            drop(slot);
            if wake {
                self.freed.notify_all();
            }
            (job.task)(job.worker);
            slot = lock(&self.slot);
            slot.done += 1;
            if slot.waiters > 0 {
                self.freed.notify_all();
            }
        }
    }
}

/// Every helper started so far, indexed by core id (a `Vec`, because
/// result-producing crates keep no unordered maps).
static HELPERS: Mutex<Vec<Option<Arc<Helper>>>> = Mutex::new(Vec::new());

/// Helper threads started, process-wide: one per distinct core id ever
/// posted to.
static STARTED: AtomicUsize = AtomicUsize::new(0);

/// The helper of `core`, started on first use; `None` if the host refused
/// the thread. A helper's thread is never joined: it serves until the
/// process exits, and no job unwinds it (the team's task catches its
/// worker's panic).
fn helper(core: CoreId) -> Option<Arc<Helper>> {
    let mut helpers = lock(&HELPERS);
    let idx = usize::from(core.0);
    if let Some(Some(helper)) = helpers.get(idx) {
        return Some(Arc::clone(helper));
    }
    let helper = Arc::new(Helper::default());
    let serving = Arc::clone(&helper);
    std::thread::Builder::new()
        .name(format!("olap-core-{}", core.0))
        .spawn(move || serving.serve(core))
        .ok()?;
    if helpers.len() <= idx {
        helpers.resize(idx + 1, None);
    }
    helpers[idx] = Some(Arc::clone(&helper));
    STARTED.fetch_add(1, Ordering::Relaxed);
    Some(helper)
}

/// Waits, when dropped, for every job it holds the ticket of — on a normal
/// return and while a panic of worker 0 unwinds alike, so no helper is
/// still inside a job when the frame that owns the job's borrows is left.
struct Join(Vec<(Arc<Helper>, u64)>);

impl Drop for Join {
    fn drop(&mut self) {
        for (helper, ticket) in &self.0 {
            helper.wait(*ticket);
        }
    }
}

/// A snapshot of the granted cores, ready to execute one pipeline.
///
/// The team is taken per query ([`crate::OlapEngine::team`]) so that elastic
/// grants and revocations between queries resize the next query's
/// parallelism without synchronising with a running one.
#[derive(Debug, Clone, Default)]
pub struct WorkerTeam {
    cores: Vec<CoreId>,
}

impl WorkerTeam {
    /// A team over an explicit core list (tests, benches).
    pub fn from_cores(cores: Vec<CoreId>) -> Self {
        WorkerTeam { cores }
    }

    /// A single unpinned worker: the degenerate team every query falls back
    /// to when the OLAP engine currently holds no cores.
    pub fn solo() -> Self {
        WorkerTeam::default()
    }

    /// Number of pipeline workers the team fields.
    pub fn size(&self) -> usize {
        self.cores.len().max(1)
    }

    /// The cores backing the team (empty for [`WorkerTeam::solo`]).
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// A team limited to at most `n` workers (no point fielding more workers
    /// than there are morsels).
    pub fn capped(&self, n: usize) -> WorkerTeam {
        let n = n.max(1);
        WorkerTeam {
            cores: self.cores.iter().copied().take(n).collect(),
        }
    }

    /// Whether worker `w` ran on its own core: its helper's one pin took.
    /// Worker 0 runs on the posting thread, which the team does not pin.
    pub fn pinned(&self, w: usize) -> bool {
        if w == 0 {
            return false;
        }
        let helpers = lock(&HELPERS);
        self.cores
            .get(w)
            .and_then(|core| helpers.get(usize::from(core.0)))
            .and_then(Option::as_ref)
            .is_some_and(|helper| helper.pinned.load(Ordering::Relaxed))
    }

    /// Run `worker` once per team member, in parallel, and collect the
    /// per-worker results in worker order (deterministic).
    ///
    /// The calling thread runs worker 0; workers 1..n−1 are posted to the
    /// helpers of the team's other cores and waited for. A team of one
    /// worker — [`WorkerTeam::solo`] or one core — runs wholly inline, with
    /// no thread and no wake: the sequential executor is literally the
    /// parallel one with one worker, which is what makes the 1-vs-N
    /// determinism contract testable. A worker whose helper the host refused
    /// to start runs on the calling thread too.
    ///
    /// A worker panic is re-raised on the calling thread with its original
    /// payload (worker 0's first, then the helpers' in worker order), once
    /// every posted worker has returned.
    pub fn run<T: Send, F: Fn(usize) -> T + Sync>(&self, worker: F) -> Vec<T> {
        let n = self.size();
        if n == 1 {
            return vec![worker(0)];
        }
        let outs: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (1..n).map(|_| Mutex::new(None)).collect();
        let task = |w: usize| {
            let out = panic::catch_unwind(AssertUnwindSafe(|| worker(w)));
            *lock(&outs[w - 1]) = Some(out);
        };
        let task: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: only the lifetime is erased. `task` borrows `worker`,
        // `outs` and itself from this frame, and a helper reaches it only
        // through a job posted below, inside the job's call. `join` waits
        // for every posted job's ticket before this frame is left — on
        // return and, being a drop guard, while a panic of worker 0 unwinds
        // — and a helper marks its ticket done only after the call has
        // returned, so no helper touches the borrow once it ends.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        let mut join = Join(Vec::with_capacity(n - 1));
        for (w, &core) in self.cores.iter().enumerate().skip(1) {
            match helper(core) {
                Some(helper) => {
                    let ticket = helper.post(Job { task, worker: w });
                    join.0.push((helper, ticket));
                }
                None => task(w),
            }
        }
        let first = worker(0);
        drop(join);
        let mut results = Vec::with_capacity(n);
        results.push(first);
        for out in outs {
            match out.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(Ok(value)) => results.push(value),
                // Swallowing a worker's panic would return a partial result
                // set as if complete.
                Some(Err(payload)) => panic::resume_unwind(payload),
                None => panic::resume_unwind(Box::new("a pipeline worker never ran")),
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OlapEngine;
    use htap_sim::{SocketId, Topology};
    use std::panic::AssertUnwindSafe;

    fn engine(topo: Topology) -> OlapEngine {
        OlapEngine::new(topo, SocketId(1))
    }

    #[test]
    fn placement_reflects_assigned_cores() {
        let topo = Topology::two_socket();
        let olap = engine(topo.clone());
        assert_eq!(olap.worker_count(), 0);
        assert_eq!(olap.placement().total_cores(), 0);

        olap.set_workers(&topo.cores_of(SocketId(1)));
        assert_eq!(olap.worker_count(), 14);
        assert_eq!(olap.placement().cores_on(SocketId(1)), 14);
        assert_eq!(olap.placement().cores_on(SocketId(0)), 0);
    }

    #[test]
    fn elastic_add_and_remove() {
        let topo = Topology::two_socket();
        let olap = engine(topo.clone());
        let home = topo.cores_of(SocketId(1));
        let borrowed = [CoreId(0), CoreId(1), CoreId(2), CoreId(3)];
        olap.set_workers(&[&borrowed[..], &home].concat());
        assert_eq!(olap.worker_count(), 18);
        assert_eq!(olap.placement().cores_on(SocketId(0)), 4);

        olap.set_workers(&home);
        assert_eq!(olap.worker_count(), 14);
        assert_eq!(olap.placement().cores_on(SocketId(0)), 0);
    }

    #[test]
    fn affinity_lists_cores_in_order() {
        let olap = engine(Topology::tiny());
        olap.set_workers(&[CoreId(0), CoreId(3)]);
        assert_eq!(olap.team().cores(), &[CoreId(0), CoreId(3)]);
        // One core on each of the tiny machine's two sockets.
        assert_eq!(olap.placement().cores_on(SocketId(0)), 1);
        assert_eq!(olap.placement().cores_on(SocketId(1)), 1);
    }

    #[test]
    fn team_snapshots_the_current_grant() {
        let olap = engine(Topology::tiny());
        assert_eq!(olap.team().size(), 1, "no grant still fields a solo worker");
        olap.set_workers(&[CoreId(0), CoreId(1), CoreId(2)]);
        let team = olap.team();
        assert_eq!(team.size(), 3);
        assert_eq!(team.cores(), &[CoreId(0), CoreId(1), CoreId(2)]);
        // The snapshot is decoupled from later elastic changes.
        olap.set_workers(&[]);
        assert_eq!(team.size(), 3);
    }

    #[test]
    fn team_runs_one_task_per_worker_in_worker_order() {
        let team = WorkerTeam::from_cores((0..6).map(CoreId).collect());
        let results = team.run(|worker| worker * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50]);
        // Solo teams run inline.
        let solo = WorkerTeam::solo();
        assert_eq!(solo.size(), 1);
        assert_eq!(solo.run(|w| w), vec![0]);
    }

    #[test]
    fn team_workers_run_concurrently_and_share_state() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let team = WorkerTeam::from_cores((0..4).map(CoreId).collect());
        let counter = AtomicUsize::new(0);
        let claims = team.run(|_| {
            let mut mine = 0;
            while counter.fetch_add(1, Ordering::Relaxed) < 100 {
                mine += 1;
            }
            mine
        });
        let total: usize = claims.iter().sum();
        assert!(
            total >= 100,
            "all claims must be accounted for, got {total}"
        );
    }

    /// Worker 0 panics while worker 1 is still inside its closure: the call
    /// unwinds only once the helper has returned, with worker 0's payload.
    #[test]
    fn worker_zero_panic_waits_for_the_helpers_then_unwinds_with_its_payload() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let team = WorkerTeam::from_cores(vec![CoreId(0), CoreId(1)]);
        let (panicking, helper_returned) = (AtomicBool::new(false), AtomicBool::new(false));
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            team.run(|w| {
                if w == 0 {
                    panicking.store(true, Ordering::Release);
                    std::panic::panic_any("worker 0");
                }
                while !panicking.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                // Worker 0 is unwinding: a caller that did not wait for the
                // helper would leave the call within this pause.
                std::thread::sleep(std::time::Duration::from_millis(20));
                helper_returned.store(true, Ordering::Release);
            })
        }));
        let payload = outcome.expect_err("worker 0's panic reaches the caller");
        assert!(
            helper_returned.load(Ordering::Acquire),
            "the caller unwound while a helper was still inside its closure"
        );
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker 0"));
    }

    #[test]
    fn a_helper_panic_is_re_raised_on_the_caller_with_its_payload() {
        let team = WorkerTeam::from_cores(vec![CoreId(0), CoreId(1), CoreId(2)]);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            team.run(|w| {
                if w == 2 {
                    std::panic::panic_any(format!("worker {w}"));
                }
                w
            })
        }));
        let payload = outcome.expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("worker 2")
        );
        // The helper survives its job's panic and serves the next one.
        assert_eq!(team.run(|w| w), vec![0, 1, 2]);
    }

    #[test]
    fn two_threads_posting_to_shared_cores_get_every_result_without_deadlock() {
        let posters: Vec<_> = [[3u16, 4, 5], [5, 4, 3]]
            .into_iter()
            .map(|cores| {
                std::thread::spawn(move || {
                    let team = WorkerTeam::from_cores(cores.iter().copied().map(CoreId).collect());
                    for round in 0..200usize {
                        let results = team.run(|w| {
                            let data: Vec<usize> = (0..64).map(|i| i * w + round).collect();
                            data.iter().sum::<usize>()
                        });
                        let expected: Vec<usize> = (0..3)
                            .map(|w| (0..64).map(|i| i * w + round).sum())
                            .collect();
                        assert_eq!(results, expected, "round {round} on cores {cores:?}");
                    }
                })
            })
            .collect();
        for poster in posters {
            poster.join().expect("a posting thread failed");
        }
    }

    #[test]
    fn a_revoked_and_regranted_core_reuses_its_helper() {
        use std::thread::ThreadId;
        let olap = engine(Topology::tiny());
        let cores = [CoreId(600), CoreId(601), CoreId(602)];
        let threads = |olap: &OlapEngine| -> Vec<ThreadId> {
            olap.team().run(|_| std::thread::current().id())
        };
        olap.set_workers(&cores);
        let first = threads(&olap);
        olap.set_workers(&[]);
        assert_eq!(threads(&olap), vec![std::thread::current().id()]);
        olap.set_workers(&cores[1..]);
        let shrunk = threads(&olap);
        olap.set_workers(&cores);
        let regranted = threads(&olap);
        assert_eq!(
            first[0],
            std::thread::current().id(),
            "worker 0 runs on the caller"
        );
        assert_eq!(
            regranted, first,
            "each core's worker ran on the same helper"
        );
        assert_eq!(
            shrunk[1], first[2],
            "core 602's helper serves it at any position"
        );
        let helpers = lock(&HELPERS);
        assert_eq!(
            STARTED.load(Ordering::Relaxed),
            helpers.iter().flatten().count(),
            "one helper was started per distinct core id, never a second"
        );
    }

    #[test]
    fn pinned_reports_the_posting_thread_as_unpinned() {
        let team = WorkerTeam::from_cores(vec![CoreId(0), CoreId(700)]);
        team.run(|w| w);
        assert!(!team.pinned(0), "worker 0 runs on the unpinned caller");
        assert!(!team.pinned(1), "no host has a CPU 700");
        assert!(!WorkerTeam::solo().pinned(0));
    }

    #[test]
    fn capped_team_never_exceeds_the_cap_and_never_drops_to_zero() {
        let team = WorkerTeam::from_cores((0..8).map(CoreId).collect());
        assert_eq!(team.capped(3).size(), 3);
        assert_eq!(team.capped(100).size(), 8);
        assert_eq!(team.capped(0).size(), 1);
        assert_eq!(WorkerTeam::solo().capped(5).size(), 1);
    }
}
