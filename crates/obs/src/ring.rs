//! Lock-free fixed-capacity event rings: the recording side never blocks,
//! never allocates, and overwrites the oldest events when the reader falls
//! behind (drop-oldest, with an exact dropped count).
//!
//! # Design
//!
//! A ring is a power-of-two array of slots, each slot four `AtomicU64`s:
//! a per-slot sequence/version word and the event payload (`ts<<8|kind`,
//! `a`, `b`). Writers reserve a global sequence number with one
//! `fetch_add` on `head` and publish into slot `seq & mask` with a seqlock
//! protocol:
//!
//! ```text
//! version := 2*seq + 1   (write in progress)
//! ts_kind, a, b := ...   (relaxed stores)
//! version := 2*seq + 2   (write complete)
//! ```
//!
//! The reader validates `version == 2*seq + 2` before *and* after loading
//! the payload; any mismatch (slot overwritten by a later lap, or a write
//! still in flight) counts the event as dropped and moves on. Because the
//! payload words are themselves atomics there is no UB under any race; the
//! residual weak-memory hazard (a lapping writer's payload stores becoming
//! visible before its odd version store) can at worst garble one event's
//! payload in a diagnostic trace, and cannot occur on TSO hardware. Rings
//! in this repo are effectively single-writer (one per worker), which makes
//! even that window moot in practice.
//!
//! Accounting is exact: after a final drain with all writers quiescent,
//! `accepted + dropped == recorded` — the concurrent-writer tests in
//! `tests/ring.rs` pin this invariant.

use crate::event::{Event, EventKind};
use parking_lot::Mutex;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One ring slot: a seqlock version word plus the event payload.
#[derive(Default)]
struct Slot {
    version: AtomicU64,
    ts_kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// Counters describing a ring's lifetime traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStats {
    /// Events ever recorded (including ones later overwritten).
    pub recorded: u64,
    /// Events returned by drains so far.
    pub drained: u64,
    /// Events lost: overwritten before a drain reached them, torn by a
    /// racing lap, or still in flight when the drain passed their slot.
    pub dropped: u64,
}

/// The result of one [`EventRing::drain`] call.
#[derive(Debug, Default)]
pub struct Drained {
    /// Events accepted, in recording (sequence) order.
    pub events: Vec<Event>,
    /// Events this drain had to skip (overwritten or in flight).
    pub dropped: u64,
}

/// A fixed-capacity, pre-allocated, lock-free MPSC event ring.
///
/// Writers call [`record`](EventRing::record) — wait-free, allocation-free.
/// The (single at a time; internally serialized) reader calls
/// [`drain`](EventRing::drain) to take everything recorded since the last
/// drain, oldest first.
pub struct EventRing {
    head: AtomicU64,
    dropped: AtomicU64,
    drained: AtomicU64,
    /// Reader cursor: next sequence number to read. The mutex serializes
    /// concurrent drains; writers never touch it.
    tail: Mutex<u64>,
    mask: u64,
    slots: Box<[Slot]>,
}

impl EventRing {
    /// Create a ring holding `capacity` events (rounded up to a power of
    /// two, minimum 8). All slots are allocated up front; recording never
    /// allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots: Vec<Slot> = (0..cap).map(|_| Slot::default()).collect();
        EventRing {
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            tail: Mutex::new(0),
            mask: cap as u64 - 1,
            slots: slots.into_boxed_slice(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of slot storage this ring pre-allocated.
    pub fn footprint_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }

    /// Record one event. Wait-free: one `fetch_add` and four stores; if the
    /// ring is full the oldest unread event is overwritten (the next drain
    /// counts it as dropped). Timestamps are capped at 56 bits of µs
    /// (~2284 years of process uptime).
    pub fn record(&self, kind: EventKind, ts_us: u64, a: u64, b: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (seq & self.mask) as usize;
        // `idx` is masked into range, but use the checked accessor anyway:
        // this crate is in the lint's no-panic scope and stays index-free.
        let Some(slot) = self.slots.get(idx) else {
            return;
        };
        slot.version.store(seq * 2 + 1, Ordering::Release);
        slot.ts_kind
            .store((ts_us << 8) | kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.version.store(seq * 2 + 2, Ordering::Release);
    }

    /// Take every event recorded since the last drain, oldest first.
    /// Events overwritten in the meantime (reader more than one lap behind)
    /// are counted into [`Drained::dropped`], as are slots whose write was
    /// still in flight when the drain passed them. The reader never blocks
    /// a writer and vice versa.
    pub fn drain(&self) -> Drained {
        let mut tail = self.tail.lock();
        let head = self.head.load(Ordering::Acquire);
        let cap = self.mask + 1;
        let mut dropped = 0u64;
        // Drop-oldest: anything more than one full lap behind is gone.
        if head.saturating_sub(*tail) > cap {
            dropped += head - cap - *tail;
            *tail = head - cap;
        }
        let mut events = Vec::with_capacity((head - *tail) as usize);
        for seq in *tail..head {
            let Some(slot) = self.slots.get((seq & self.mask) as usize) else {
                dropped += 1;
                continue;
            };
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 != seq * 2 + 2 {
                dropped += 1;
                continue;
            }
            let ts_kind = slot.ts_kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let v2 = slot.version.load(Ordering::Relaxed);
            if v2 != v1 {
                dropped += 1;
                continue;
            }
            match EventKind::from_u8((ts_kind & 0xff) as u8) {
                Some(kind) => events.push(Event {
                    ts_us: ts_kind >> 8,
                    kind,
                    a,
                    b,
                }),
                None => dropped += 1,
            }
        }
        *tail = head;
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
        self.drained
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        Drained { events, dropped }
    }

    /// Lifetime counters. `recorded` is exact; `dropped`/`drained` reflect
    /// completed drains.
    pub fn stats(&self) -> RingStats {
        RingStats {
            recorded: self.head.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::with_capacity(0).capacity(), 8);
        assert_eq!(EventRing::with_capacity(9).capacity(), 16);
        assert_eq!(EventRing::with_capacity(2048).capacity(), 2048);
    }

    #[test]
    fn record_then_drain_preserves_order_and_payload() {
        let ring = EventRing::with_capacity(64);
        for i in 0..10u64 {
            ring.record(EventKind::Morsel, 100 + i, i, i * 2);
        }
        let d = ring.drain();
        assert_eq!(d.dropped, 0);
        assert_eq!(d.events.len(), 10);
        for (i, e) in d.events.iter().enumerate() {
            let i = i as u64;
            assert_eq!(e.ts_us, 100 + i);
            assert_eq!(e.kind, EventKind::Morsel);
            assert_eq!((e.a, e.b), (i, i * 2));
        }
        // Second drain is empty.
        assert!(ring.drain().events.is_empty());
    }

    #[test]
    fn incremental_drains_resume_where_they_stopped() {
        let ring = EventRing::with_capacity(32);
        ring.record(EventKind::TxnAbort, 1, 0, 0);
        assert_eq!(ring.drain().events.len(), 1);
        ring.record(EventKind::CheckpointBegin, 2, 0, 1);
        ring.record(EventKind::CheckpointBegin, 3, 0, 2);
        let d = ring.drain();
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.events[0].ts_us, 2);
        let s = ring.stats();
        assert_eq!((s.recorded, s.drained, s.dropped), (3, 3, 0));
    }
}
