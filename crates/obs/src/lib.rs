//! # htap-obs — always-on, low-overhead observability
//!
//! The cross-cutting tracing layer of the adaptive-HTAP stack. It keeps two
//! records — ring events and span trees — and derives everything else from
//! them; the always-on counts stay with the types that own them
//! (`WorkerManager::live_counts`, `TxnStats`, `Wal::stats`,
//! `DurabilityStats`, [`Obs::event_totals`]):
//!
//! * **Per-worker event rings** ([`ring::EventRing`]) — fixed-capacity,
//!   pre-allocated, lock-free rings, one lane per OLAP pipeline worker,
//!   OLTP ingest worker and auxiliary thread (flush leader, coordinator),
//!   recording typed [`event::Event`]s: morsels, pipeline breakers, WAL
//!   fsync batches, commits/aborts, checkpoints. Recording is
//!   wait-free and allocation-free, so the zero-steady-state-allocation
//!   invariant (`tests/alloc_steady_state.rs`) holds with tracing live.
//! * **Span trees** ([`span`]) — `execute_sql` produces a
//!   parse→bind→plan→execute hierarchy with per-pipeline children and
//!   per-worker morsel rollups; commits stay span-free on the hot path
//!   (one packed ring event, re-inflated at export). Each `rde.schedule`
//!   span is the record of one scheduling decision: the scheduler's inputs,
//!   the core grant and the chosen state.
//! * **A Chrome `trace_event` exporter** ([`chrome`]) — one JSON string
//!   covering rings + spans, with the RDE grant/revoke/hold track derived
//!   from the `rde.schedule` spans, loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//!
//! Tracing is on by default and can be toggled at runtime with
//! [`set_enabled`] — `bench_e2e` measures the enabled-vs-disabled latency
//! delta (`obs.tracing_overhead_pct`) and CI gates it at 3%. See ARCHITECTURE.md ("Observability") for
//! the event taxonomy, the ring protocol and the overhead budget.

pub mod chrome;
pub mod clock;
pub mod event;
pub mod ring;
pub mod span;

pub use clock::now_us;
pub use event::{pack_morsel, pack_phases, unpack_morsel, unpack_phases, Event, EventKind};
pub use ring::{EventRing, RingStats};
pub use span::{child_span, span, spans_dropped, spans_snapshot, Span, SpanGuard};

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Ring lanes reserved for OLAP pipeline workers (indexed by worker id
/// within a team; teams larger than this share lanes modulo).
pub const OLAP_LANES: usize = 16;
/// Ring lanes reserved for OLTP ingest workers (bound per thread).
pub const OLTP_LANES: usize = 16;
/// Ring lanes for everything else (flush leader, coordinator/session
/// threads, checkpoints), assigned per thread round-robin.
pub const AUX_LANES: usize = 8;
/// Events per ring lane.
pub const RING_CAPACITY: usize = 2048;

/// The process-wide observability state.
pub struct Obs {
    enabled: AtomicBool,
    lanes: Vec<EventRing>,
    aux_next: AtomicUsize,
    pipeline_seq: AtomicU64,
    pub(crate) spans: Mutex<span::SpanLog>,
}

impl Obs {
    fn new() -> Self {
        let total = OLAP_LANES + OLTP_LANES + AUX_LANES;
        Obs {
            enabled: AtomicBool::new(true),
            lanes: (0..total)
                .map(|_| EventRing::with_capacity(RING_CAPACITY))
                .collect(),
            aux_next: AtomicUsize::new(0),
            pipeline_seq: AtomicU64::new(0),
            spans: Mutex::new(span::SpanLog::default()),
        }
    }

    /// Total bytes pre-allocated for ring slots across every lane.
    pub fn ring_footprint_bytes(&self) -> usize {
        self.lanes.iter().map(EventRing::footprint_bytes).sum()
    }

    /// Summed lifetime ring counters across every lane.
    pub fn event_totals(&self) -> RingStats {
        let mut out = RingStats::default();
        for lane in &self.lanes {
            let s = lane.stats();
            out.recorded += s.recorded;
            out.drained += s.drained;
            out.dropped += s.dropped;
        }
        out
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("lanes", &self.lanes.len())
            .field("events", &self.event_totals())
            .finish()
    }
}

static GLOBAL: OnceLock<Obs> = OnceLock::new();

/// The process-wide [`Obs`] instance (rings are allocated on first use —
/// before any steady-state measurement window, since every caller warms up
/// through the same paths it later measures).
pub fn obs() -> &'static Obs {
    GLOBAL.get_or_init(Obs::new)
}

/// Whether tracing is currently recording. One relaxed load; callers on
/// per-morsel paths read it once per pipeline and branch locally.
pub fn enabled() -> bool {
    obs().enabled.load(Ordering::Relaxed)
}

/// Turn recording on or off at runtime. Used by `bench_e2e` to measure
/// the tracing overhead (traced vs untraced stretches of one run).
pub fn set_enabled(on: bool) {
    obs().enabled.store(on, Ordering::Relaxed);
}

/// A fresh pipeline sequence number (process-wide, monotonic) for
/// correlating morsel events with their pipeline.
pub fn pipeline_seq() -> u64 {
    obs().pipeline_seq.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// The ring lane this thread records to via [`record_thread`].
    static THREAD_LANE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Bind the current thread to the OLTP ingest lane for `worker_id`.
/// Called once at ingest-thread start; commit/abort events recorded
/// from this thread land in that worker's ring.
pub fn bind_thread_oltp(worker_id: usize) {
    let _ = THREAD_LANE.try_with(|c| c.set(Some(OLAP_LANES + worker_id % OLTP_LANES)));
}

/// This thread's lane index, assigning an auxiliary lane on first use.
fn thread_lane() -> usize {
    let assigned = THREAD_LANE.try_with(|c| {
        if let Some(lane) = c.get() {
            return lane;
        }
        let lane =
            OLAP_LANES + OLTP_LANES + obs().aux_next.fetch_add(1, Ordering::Relaxed) % AUX_LANES;
        c.set(Some(lane));
        lane
    });
    assigned.unwrap_or(OLAP_LANES + OLTP_LANES)
}

/// Record an event into the current thread's lane (OLTP ingest lane when
/// bound, otherwise an auxiliary lane). No-op when tracing is disabled.
pub fn record_thread(kind: EventKind, ts_us: u64, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    let o = obs();
    if let Some(lane) = o.lanes.get(thread_lane()) {
        lane.record(kind, ts_us, a, b);
    }
}

/// Record an event into an OLAP worker's lane. The caller (the morsel
/// pipeline driver) passes the worker index it was handed; tracing
/// enablement is expected to be checked once per pipeline by the caller.
pub fn record_olap(worker: usize, kind: EventKind, ts_us: u64, a: u64, b: u64) {
    let o = obs();
    if let Some(lane) = o.lanes.get(worker % OLAP_LANES) {
        lane.record(kind, ts_us, a, b);
    }
}

/// Human-readable lane name (Chrome trace thread name) for a lane index.
pub fn lane_name(lane: usize) -> String {
    if lane < OLAP_LANES {
        format!("olap-worker-{lane}")
    } else if lane < OLAP_LANES + OLTP_LANES {
        format!("oltp-ingest-{}", lane - OLAP_LANES)
    } else {
        format!("aux-{}", lane - OLAP_LANES - OLTP_LANES)
    }
}

/// Drain every lane: `(lane index, events)` for lanes that had any, plus
/// the number of events dropped across this drain. Successive calls return
/// only events recorded since the previous drain.
pub fn drain_events() -> (Vec<(usize, Vec<Event>)>, u64) {
    let o = obs();
    let mut out = Vec::new();
    let mut dropped = 0;
    for (i, lane) in o.lanes.iter().enumerate() {
        let d = lane.drain();
        dropped += d.dropped;
        if !d.events.is_empty() {
            out.push((i, d.events));
        }
    }
    (out, dropped)
}

#[cfg(test)]
pub(crate) fn test_lock() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_assignment_and_names() {
        assert_eq!(lane_name(0), "olap-worker-0");
        assert_eq!(lane_name(OLAP_LANES), "oltp-ingest-0");
        assert_eq!(lane_name(OLAP_LANES + OLTP_LANES + 2), "aux-2");
        assert!(
            obs().ring_footprint_bytes()
                >= (OLAP_LANES + OLTP_LANES + AUX_LANES) * RING_CAPACITY * 32
        );
    }

    #[test]
    fn thread_lanes_are_sticky_and_recording_reaches_them() {
        let _g = test_lock();
        set_enabled(true);
        let before = obs().event_totals().recorded;
        std::thread::spawn(|| {
            bind_thread_oltp(3);
            record_thread(EventKind::TxnAbort, now_us(), 3, 0);
            record_thread(EventKind::TxnAbort, now_us(), 3, 1);
        })
        .join()
        .unwrap();
        record_olap(1, EventKind::Morsel, now_us(), pack_morsel(0, 0), 5);
        assert!(obs().event_totals().recorded >= before + 3);
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = test_lock();
        set_enabled(false);
        let before = obs().event_totals().recorded;
        record_thread(EventKind::TxnAbort, 1, 0, 0);
        assert_eq!(obs().event_totals().recorded, before);
        set_enabled(true);
    }

    #[test]
    fn pipeline_seq_is_monotonic() {
        let a = pipeline_seq();
        let b = pipeline_seq();
        assert!(b > a);
    }
}
