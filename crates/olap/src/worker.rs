//! The OLAP engine's elastic worker team.
//!
//! "The OLAP engine also includes a Worker Manager, which works in a similar
//! way to the WM of the OLTP engine" (§3.3): the engine holds the core list
//! the RDE engine has granted it ([`crate::OlapEngine::set_workers`]) and
//! derives both its execution placement (cores per socket, what the cost
//! model consumes) and its worker team from that one list.
//!
//! Execution side: [`crate::OlapEngine::team`] snapshots the current grant
//! into a [`WorkerTeam`] — one pipeline worker per granted core. The team
//! runs morsel-driven pipelines on real OS threads (see
//! [`crate::exec::QueryExecutor::execute_parallel`]), pinning each worker to
//! its core where the host allows it, so an elastic grant changes *measured*
//! scan time, not just the modelled one.

use htap_sim::CoreId;

/// Best-effort pinning of the calling thread to one CPU.
///
/// The simulated topology's core numbering is passed straight to the host;
/// on machines with fewer CPUs than the simulated server (or ones that
/// refuse the affinity mask) the call fails and the worker simply stays
/// unpinned — correctness never depends on placement, only locality does.
#[cfg(target_os = "linux")]
fn pin_current_thread(core: CoreId) {
    // `cpu_set_t` is 1024 bits; `sched_setaffinity` is provided by the libc
    // that std already links against.
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let cpu = core.0 as usize;
    if cpu < 1024 {
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: the mask is a valid, live 128-byte buffer and pid 0 means
        // "the calling thread". Failure is deliberately ignored.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_core: CoreId) {}

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

    /// Run `worker` once per team member, in parallel, and collect the
    /// per-worker results in worker order (deterministic).
    ///
    /// A [`WorkerTeam::solo`] team (no cores) runs inline on the calling
    /// thread — the sequential executor is literally the parallel one with
    /// one worker, which is what makes the 1-vs-N determinism contract
    /// testable. A team *with* cores always spawns, even for one worker, so
    /// every point of a measured scaling sweep runs pinned the same way.
    pub fn run<T: Send, F: Fn(usize) -> T + Sync>(&self, worker: F) -> Vec<T> {
        let n = self.size();
        if self.cores.is_empty() {
            return vec![worker(0)];
        }
        std::thread::scope(|scope| {
            let worker = &worker;
            let handles: Vec<_> = (0..n)
                .map(|idx| {
                    let core = self.cores.get(idx).copied();
                    scope.spawn(move || {
                        if let Some(core) = core {
                            pin_current_thread(core);
                        }
                        worker(idx)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(value) => value,
                    // A worker panic is re-raised on the coordinating
                    // thread with its original payload; swallowing it here
                    // would return a partial result set as if complete.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OlapEngine;
    use htap_sim::{SocketId, Topology};

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

    #[test]
    fn capped_team_never_exceeds_the_cap_and_never_drops_to_zero() {
        let team = WorkerTeam::from_cores((0..8).map(CoreId).collect());
        assert_eq!(team.capped(3).size(), 3);
        assert_eq!(team.capped(100).size(), 8);
        assert_eq!(team.capped(0).size(), 1);
        assert_eq!(WorkerTeam::solo().capped(5).size(), 1);
    }
}
