//! The event taxonomy recorded into the per-worker rings, plus the bit-packing
//! helpers that keep every event to two payload words.
//!
//! An [`Event`] is deliberately tiny — a timestamp, a kind, and two `u64`
//! payload words — so a ring slot is four machine words and recording one is
//! a handful of relaxed atomic stores. Anything richer (names, hierarchies,
//! derived rates) is synthesized at export time by the Chrome exporter or the
//! span log; the hot paths only ever write numbers.
//!
//! Events that describe an *interval* (a morsel, an fsync batch, a commit, a
//! checkpoint) are recorded **once, at completion**, with `ts_us` holding the
//! interval's start and the duration carried in a payload word. That halves
//! the ring traffic versus start/end pairs and means a drained sequence needs
//! no pairing pass to reconstruct intervals.

/// What one ring event describes. The payload words `a`/`b` are
/// kind-specific; see each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// One executed morsel. `a` = [`pack_morsel`]`(pipeline_seq, morsel_idx)`,
    /// `b` = duration in µs. `ts_us` is the morsel's start.
    Morsel = 1,
    /// A pipeline-breaker build pipeline completed (hash tables built).
    /// `a` = morsels executed, `b` = duration µs; `ts_us` = start.
    PipelineBuild = 2,
    /// The probe/root pipeline of a query completed. `a` = morsels,
    /// `b` = duration µs; `ts_us` = start.
    PipelineProbe = 3,
    /// Per-worker partial results merged (in morsel order). `a` = partials
    /// merged, `b` = duration µs; `ts_us` = start.
    PipelineMerge = 4,
    /// The group-commit flush leader wrote and fsynced one batch.
    /// `a` = records in the batch, `b` = write+sync duration µs;
    /// `ts_us` = batch start.
    WalFsyncBatch = 5,
    /// One transaction committed. `a` = operations in the write set,
    /// `b` = [`pack_phases`]`(lock_us, wal_us, apply_us)`; `ts_us` = commit
    /// entry. The Chrome exporter re-inflates this into a three-child span.
    TxnCommit = 6,
    /// One transaction aborted (terminally). `a` = worker id, `b` = 0.
    TxnAbort = 7,
    /// A checkpoint attempt started inside the switch-gate quiescence
    /// window. `a` = instance switches seen so far, `b` = 0.
    CheckpointBegin = 9,
    /// A checkpoint completed. `a` = tables captured, `b` = duration µs;
    /// `ts_us` = checkpoint start.
    CheckpointEnd = 10,
}

impl EventKind {
    /// Decode a kind byte drained from a ring slot. `None` means the slot
    /// was torn by a racing writer lap and the event is dropped.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::Morsel,
            2 => EventKind::PipelineBuild,
            3 => EventKind::PipelineProbe,
            4 => EventKind::PipelineMerge,
            5 => EventKind::WalFsyncBatch,
            6 => EventKind::TxnCommit,
            7 => EventKind::TxnAbort,
            9 => EventKind::CheckpointBegin,
            10 => EventKind::CheckpointEnd,
            _ => return None,
        })
    }

    /// Stable display name (used as the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Morsel => "morsel",
            EventKind::PipelineBuild => "pipeline-build",
            EventKind::PipelineProbe => "pipeline-probe",
            EventKind::PipelineMerge => "pipeline-merge",
            EventKind::WalFsyncBatch => "wal-fsync-batch",
            EventKind::TxnCommit => "txn-commit",
            EventKind::TxnAbort => "txn-abort",
            EventKind::CheckpointBegin => "checkpoint-begin",
            EventKind::CheckpointEnd => "checkpoint-end",
        }
    }
}

/// One typed, timestamped observation drained from a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the process trace epoch (see [`crate::now_us`]).
    pub ts_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (kind-specific).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

/// Pack a pipeline sequence number and a morsel index into one payload word
/// (pipeline in the high 32 bits). Both saturate at 32 bits — a single query
/// never runs 4 billion pipelines or morsels.
pub fn pack_morsel(pipeline_seq: u64, morsel_idx: u64) -> u64 {
    (pipeline_seq.min(u32::MAX as u64) << 32) | morsel_idx.min(u32::MAX as u64)
}

/// Inverse of [`pack_morsel`]: `(pipeline_seq, morsel_idx)`.
pub fn unpack_morsel(a: u64) -> (u64, u64) {
    (a >> 32, a & 0xffff_ffff)
}

/// Number of bits per phase in [`pack_phases`].
const PHASE_BITS: u64 = 21;
/// Saturation ceiling per phase: ~2.1 seconds in µs.
const PHASE_MAX: u64 = (1 << PHASE_BITS) - 1;

/// Pack the three commit phase durations (µs) into one payload word, 21 bits
/// each (saturating at ~2.1 s — a commit phase longer than that is pinned to
/// the ceiling, which is still unmistakable in a trace).
pub fn pack_phases(lock_us: u64, wal_us: u64, apply_us: u64) -> u64 {
    (lock_us.min(PHASE_MAX) << (2 * PHASE_BITS))
        | (wal_us.min(PHASE_MAX) << PHASE_BITS)
        | apply_us.min(PHASE_MAX)
}

/// Inverse of [`pack_phases`]: `(lock_us, wal_us, apply_us)`.
pub fn unpack_phases(b: u64) -> (u64, u64, u64) {
    (
        (b >> (2 * PHASE_BITS)) & PHASE_MAX,
        (b >> PHASE_BITS) & PHASE_MAX,
        b & PHASE_MAX,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_bytes_round_trip() {
        for k in [
            EventKind::Morsel,
            EventKind::PipelineBuild,
            EventKind::PipelineProbe,
            EventKind::PipelineMerge,
            EventKind::WalFsyncBatch,
            EventKind::TxnCommit,
            EventKind::TxnAbort,
            EventKind::CheckpointBegin,
            EventKind::CheckpointEnd,
        ] {
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
            assert!(!k.name().is_empty());
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(8), None);
        assert_eq!(EventKind::from_u8(99), None);
    }

    #[test]
    fn morsel_packing_round_trips() {
        for (p, m) in [(0, 0), (1, 2), (77, 123_456), (u32::MAX as u64, 9)] {
            assert_eq!(unpack_morsel(pack_morsel(p, m)), (p, m));
        }
        // Saturation, not wraparound, past 32 bits.
        let (p, m) = unpack_morsel(pack_morsel(u64::MAX, u64::MAX));
        assert_eq!((p, m), (u32::MAX as u64, u32::MAX as u64));
    }

    #[test]
    fn phase_packing_round_trips_and_saturates() {
        for (l, w, a) in [(0, 0, 0), (1, 2, 3), (2_000_000, 1, 2_097_151)] {
            assert_eq!(unpack_phases(pack_phases(l, w, a)), (l, w, a));
        }
        assert_eq!(
            unpack_phases(pack_phases(u64::MAX, u64::MAX, u64::MAX)),
            (2_097_151, 2_097_151, 2_097_151)
        );
    }
}
