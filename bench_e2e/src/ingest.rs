//! The transactional side: generator threads on the OLTP engine's own worker
//! pool (`worker_manager().start_with_capacity`), each running
//! `TransactionDriver::run_one_mixed` (45/43/6/6) under the benchmark's timed
//! body — back to back (closed loop) or paced from a shared ticket (open
//! loop).

use htap_core::HtapSystem;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the generators are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Each generator issues its next transaction as soon as the previous
    /// one returns; latency is the call's duration.
    Closed,
    /// Transaction `k` is due at `origin + k / tps` whatever the system's
    /// speed; any granted worker takes the next ticket and latency counts
    /// from the due time, so a stall is charged to every transaction it
    /// delays.
    Open { tps: f64 },
}

/// Due time of ticket `k` at `tps`, in nanoseconds after the origin.
pub fn due_ns(k: u64, tps: f64) -> u64 {
    (k as f64 * 1e9 / tps) as u64
}

/// One executed transaction. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy)]
pub struct TxnSample {
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Whether it committed, at the latest on its last retry.
    pub committed: bool,
    /// Attempts that aborted and were run again.
    pub retries: u32,
    pub traced: bool,
    pub worker: usize,
}

/// Attempts per transaction: NO-WAIT locking aborts on conflict, so a
/// transaction is re-run with the same parameters, after a growing pause, up
/// to this many times before it counts as failed.
pub const MAX_ATTEMPTS: u32 = 16;

impl TxnSample {
    /// Latency in µs from the due time (equals the service time in a closed
    /// loop, where a transaction is due when it starts).
    pub fn latency_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }

    pub fn service_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }

    /// How late the generator started it, in µs.
    pub fn late_us(&self) -> f64 {
        self.start_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Sleep until shortly before `due`, then poll: `thread::sleep` alone
/// oversleeps by tens of µs, which would be charged to the system. (With
/// each side pinned to its own CPUs, sleeping generators gave steadier
/// transaction latencies than generators that only poll: interquartile
/// spread of the p50 over seven runs 7 % against 16–28 %.)
pub fn wait_until(due: Instant) {
    const POLL_WINDOW: Duration = Duration::from_micros(120);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > POLL_WINDOW {
            std::thread::sleep(left - POLL_WINDOW);
        } else {
            std::thread::yield_now();
        }
    }
}

/// A running generator pool.
pub struct Ingest {
    logs: Arc<Vec<Mutex<Vec<TxnSample>>>>,
    done: Arc<AtomicBool>,
}

impl Ingest {
    /// Start one generator per worker the OLTP engine could ever be granted
    /// (workers outside the current grant park). Tickets are issued until
    /// `window` has passed since `origin`. With `pin_to`, every generator
    /// restricts itself to those CPUs before its first transaction.
    pub fn start(
        system: &HtapSystem,
        pace: Pace,
        origin: Instant,
        window: Duration,
        seed: u64,
        pin_to: Option<std::ops::Range<usize>>,
    ) -> Result<Ingest, String> {
        let capacity = system.config().topology.total_cores() as usize;
        // Reserve every log up front: a reallocation inside the measured
        // window would be charged to a transaction.
        let expected = match pace {
            Pace::Closed => 20_000.0 * window.as_secs_f64(),
            Pace::Open { tps } => tps * window.as_secs_f64(),
        } as usize;
        let logs: Arc<Vec<Mutex<Vec<TxnSample>>>> = Arc::new(
            (0..capacity)
                .map(|_| Mutex::new(Vec::with_capacity(expected + 1024)))
                .collect(),
        );
        let done = Arc::new(AtomicBool::new(false));
        let ticket = AtomicU64::new(0);
        let window_ns = window.as_nanos() as u64;
        let driver = Arc::clone(system.txn_driver());
        let oltp = Arc::clone(system.rde().oltp());
        let body = {
            let (logs, done) = (Arc::clone(&logs), Arc::clone(&done));
            move |worker: usize, _core, _index| {
                thread_local! {
                    static PINNED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
                }
                if let (Some(cpus), false) = (&pin_to, PINNED.replace(true)) {
                    crate::host::pin_current_thread(cpus.clone());
                }
                if done.load(Ordering::Relaxed) {
                    // The pool calls again until `stop` joins it; do not spin.
                    std::thread::sleep(Duration::from_micros(200));
                    return false;
                }
                let k = ticket.fetch_add(1, Ordering::Relaxed);
                let due_ns = match pace {
                    Pace::Closed => origin.elapsed().as_nanos() as u64,
                    Pace::Open { tps } => due_ns(k, tps),
                };
                if due_ns >= window_ns {
                    done.store(true, Ordering::Relaxed);
                    return false;
                }
                wait_until(origin + Duration::from_nanos(due_ns));
                let traced = htap_obs::enabled();
                let start = origin.elapsed().as_nanos() as u64;
                let mut retries = 0;
                let committed = loop {
                    if driver.run_one_mixed(&oltp, worker as u64, seed, k) {
                        break true;
                    }
                    if retries + 1 == MAX_ATTEMPTS {
                        break false;
                    }
                    retries += 1;
                    // The holder of the conflicting lock keeps it while its
                    // group-commit batch lingers and flushes: back off
                    // 100, 200, 300, ... µs.
                    std::thread::sleep(Duration::from_micros(100 * u64::from(retries)));
                };
                let end = origin.elapsed().as_nanos() as u64;
                let sample = TxnSample {
                    due_ns,
                    start_ns: start,
                    end_ns: end,
                    committed,
                    retries,
                    traced,
                    worker,
                };
                if let Some(log) = logs.get(worker) {
                    log.lock().expect("a generator panicked").push(sample);
                }
                committed
            }
        };
        if system
            .rde()
            .oltp()
            .worker_manager()
            .start_with_capacity(capacity, body)
            == 0
        {
            return Err("the OLTP worker pool did not start".into());
        }
        Ok(Ingest { logs, done })
    }

    /// Whether the generators have issued their last ticket.
    pub fn finished(&self) -> bool {
        self.done.load(Ordering::Relaxed)
    }

    /// Stop the pool, wait for its threads, and return every sample in
    /// completion order.
    pub fn stop(self, system: &HtapSystem) -> Vec<TxnSample> {
        self.done.store(true, Ordering::Relaxed);
        system.rde().oltp().worker_manager().stop();
        let mut all: Vec<TxnSample> = self
            .logs
            .iter()
            .flat_map(|log| log.lock().expect("a generator panicked").clone())
            .collect();
        all.sort_by_key(|s| s.end_ns);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_due_times_depend_only_on_the_ticket() {
        assert_eq!(due_ns(0, 3000.0), 0);
        assert_eq!(due_ns(3000, 3000.0), 1_000_000_000);
        assert_eq!(due_ns(1, 2000.0), 500_000);
        // A stalled transaction is charged from its due time, not its start.
        let s = TxnSample {
            due_ns: 1_000,
            start_ns: 501_000,
            end_ns: 701_000,
            committed: true,
            retries: 0,
            traced: false,
            worker: 0,
        };
        assert_eq!(s.latency_us(), 700.0);
        assert_eq!(s.service_us(), 200.0);
        assert_eq!(s.late_us(), 500.0);
    }

    #[test]
    fn wait_until_returns_at_the_due_time() {
        let due = Instant::now() + Duration::from_millis(3);
        wait_until(due);
        let late = Instant::now().duration_since(due);
        assert!(late < Duration::from_millis(50), "woke {late:?} late");
        wait_until(Instant::now() - Duration::from_millis(1));
    }
}
