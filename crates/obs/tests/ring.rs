//! Event-ring contract tests: wraparound drop-oldest semantics, exact
//! accounting under concurrent writers vs. a draining reader, and the
//! monotonic-timestamp property of drained per-worker sequences.

use htap_obs::{EventKind, EventRing};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn wraparound_drops_oldest_and_counts_them() {
    let ring = EventRing::with_capacity(16);
    let cap = ring.capacity() as u64;
    // Write three laps worth: only the newest `cap` survive.
    let total = cap * 3;
    for i in 0..total {
        ring.record(EventKind::Morsel, i, i, 0);
    }
    let d = ring.drain();
    assert_eq!(d.events.len(), cap as usize, "newest lap survives");
    assert_eq!(d.dropped, total - cap, "everything older is counted");
    // The survivors are exactly the newest `cap`, in order.
    for (j, e) in d.events.iter().enumerate() {
        assert_eq!(e.ts_us, total - cap + j as u64);
    }
    let s = ring.stats();
    assert_eq!(s.recorded, total);
    assert_eq!(s.drained + s.dropped, total);
}

#[test]
fn overflow_never_blocks_a_writer() {
    // No drain at all: writers keep making progress forever.
    let ring = EventRing::with_capacity(8);
    for i in 0..10_000u64 {
        ring.record(EventKind::TxnAbort, i, 0, i);
    }
    assert_eq!(ring.stats().recorded, 10_000);
    let d = ring.drain();
    assert_eq!(d.events.len(), ring.capacity());
    assert_eq!(d.dropped, 10_000 - ring.capacity() as u64);
}

#[test]
fn concurrent_writers_vs_draining_reader_account_exactly() {
    let ring = Arc::new(EventRing::with_capacity(256));
    let stop = Arc::new(AtomicBool::new(false));
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 20_000;

    let mut accepted = 0u64;
    let mut dropped = 0u64;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let ring = Arc::clone(&ring);
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    ring.record(EventKind::Morsel, i, w, i);
                }
            });
        }
        // Reader drains continuously while writers hammer the ring.
        let reader_ring = Arc::clone(&ring);
        let reader_stop = Arc::clone(&stop);
        let reader = scope.spawn(move || {
            let mut accepted = 0u64;
            let mut dropped = 0u64;
            while !reader_stop.load(Ordering::Relaxed) {
                let d = reader_ring.drain();
                for e in &d.events {
                    assert!(e.a < WRITERS, "payload from nowhere: {e:?}");
                    assert!(e.kind == EventKind::Morsel);
                }
                accepted += d.events.len() as u64;
                dropped += d.dropped;
            }
            (accepted, dropped)
        });
        // scope joins the writers when they fall off the end; signal the
        // reader once they are done by watching the recorded count.
        while ring.stats().recorded < WRITERS * PER_WRITER {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        if let Ok((a, d)) = reader.join() {
            accepted = a;
            dropped = d;
        }
    });
    // Final drain with all writers quiescent: every reserved sequence
    // number is accounted exactly once, as accepted or dropped.
    let d = ring.drain();
    accepted += d.events.len() as u64;
    dropped += d.dropped;
    assert_eq!(
        accepted + dropped,
        WRITERS * PER_WRITER,
        "exact accounting: accepted {accepted} + dropped {dropped}"
    );
    assert!(accepted > 0, "the reader kept up with nothing at all");
}

proptest! {
    /// A single worker's drained event sequence is monotonically
    /// timestamped, regardless of ring size, drain cadence, or overflow.
    #[test]
    fn drained_sequences_are_monotonically_timestamped(
        capacity in 8usize..128,
        batches in prop::collection::vec(1u64..200, 1..8),
    ) {
        let ring = EventRing::with_capacity(capacity);
        let mut ts = 0u64;
        let mut last_drained: Option<u64> = None;
        for batch in batches {
            for _ in 0..batch {
                // Monotone (not strictly increasing) clock, as now_us is.
                ts += u64::from(!ts.is_multiple_of(3));
                ring.record(EventKind::Morsel, ts, 0, 0);
            }
            let d = ring.drain();
            for e in &d.events {
                if let Some(prev) = last_drained {
                    prop_assert!(
                        e.ts_us >= prev,
                        "timestamp went backwards: {} after {prev}",
                        e.ts_us
                    );
                }
                last_drained = Some(e.ts_us);
            }
        }
    }
}
