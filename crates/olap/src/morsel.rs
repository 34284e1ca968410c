//! Morsels: the NUMA-tagged work units of the parallel pipelines.
//!
//! Morsel-driven execution (Leis et al., SIGMOD'14 — the scheduling model
//! behind the engine the paper builds on) splits every scan into fixed-size
//! row ranges, *morsels*, that pipeline workers claim one at a time. The
//! split is computed once per query from the [`ScanSource`]'s segments, so a
//! morsel never spans two memory areas: each one inherits the socket and the
//! provenance (OLAP instance vs OLTP snapshot) of the segment it was cut
//! from, which keeps both NUMA-aware scheduling and per-worker work
//! accounting exact.
//!
//! Determinism contract: a morsel's identity is its index in the split.
//! Workers may claim morsels in any order, but every per-morsel partial
//! result is merged back in morsel-index order, so the final result of a
//! query is bit-for-bit identical for every worker count (see
//! [`crate::exec::QueryExecutor`]).

use crate::source::{ScanSource, SegmentOrigin};
use htap_sim::SocketId;
use std::ops::Range;

/// One claimable unit of scan work: a contiguous row range of one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Morsel {
    /// Index of the segment (within [`ScanSource::segments`]) the morsel was
    /// cut from.
    pub segment: usize,
    /// Absolute row range within the segment's backing table.
    pub rows: Range<u64>,
    /// Socket whose DRAM holds the rows.
    pub socket: SocketId,
    /// Where the rows come from (OLAP instance or OLTP snapshot).
    pub origin: SegmentOrigin,
}

impl Morsel {
    /// Number of rows in the morsel.
    pub fn row_count(&self) -> usize {
        (self.rows.end - self.rows.start) as usize
    }

    /// Whether the morsel serves fresh (OLTP-snapshot) rows.
    pub fn is_fresh(&self) -> bool {
        self.origin == SegmentOrigin::OltpSnapshot
    }
}

/// Split `source` into morsels of at most `morsel_rows` rows.
///
/// Segments are cut independently and in order, so morsel `i` always covers
/// rows that precede morsel `i + 1` in scan order. A `morsel_rows` of zero is
/// treated as "one morsel per segment". Empty segments and empty sources
/// produce no morsels.
pub fn split_morsels(source: &ScanSource, morsel_rows: usize) -> Vec<Morsel> {
    let mut out = Vec::new();
    for (segment, seg) in source.segments.iter().enumerate() {
        let mut start = seg.rows.start;
        if seg.rows.end <= start {
            continue;
        }
        let step = if morsel_rows == 0 {
            (seg.rows.end - start) as usize
        } else {
            morsel_rows
        };
        while start < seg.rows.end {
            let end = (start + step as u64).min(seg.rows.end);
            out.push(Morsel {
                segment,
                rows: start..end,
                socket: seg.socket,
                origin: seg.origin,
            });
            start = end;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_storage::{ColumnDef, ColumnarTable, DataType, TableSchema, TableSnapshot, Value};
    use std::sync::Arc;

    fn table_with(n: u64) -> Arc<ColumnarTable> {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("x", DataType::F64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..n {
            t.append_row(&[Value::I64(i as i64), Value::F64(i as f64)])
                .unwrap();
        }
        Arc::new(t)
    }

    fn snapshot_source(n: u64) -> ScanSource {
        let table = table_with(n);
        let snap = TableSnapshot::new("t".into(), table, n);
        ScanSource::contiguous_snapshot(&snap, SocketId(0))
    }

    #[test]
    fn empty_table_yields_no_morsels() {
        assert!(split_morsels(&snapshot_source(0), 128).is_empty());
    }

    #[test]
    fn single_row_yields_one_morsel() {
        let morsels = split_morsels(&snapshot_source(1), 128);
        assert_eq!(morsels.len(), 1);
        assert_eq!(morsels[0].rows, 0..1);
        assert_eq!(morsels[0].row_count(), 1);
        assert!(morsels[0].is_fresh());
    }

    #[test]
    fn non_divisible_split_has_short_tail() {
        let morsels = split_morsels(&snapshot_source(1000), 300);
        assert_eq!(morsels.len(), 4);
        assert_eq!(
            morsels.iter().map(Morsel::row_count).collect::<Vec<_>>(),
            vec![300, 300, 300, 100]
        );
        // Contiguous, ordered coverage of the whole range.
        for pair in morsels.windows(2) {
            assert_eq!(pair[0].rows.end, pair[1].rows.start);
        }
        assert_eq!(morsels.last().unwrap().rows.end, 1000);
    }

    #[test]
    fn exact_division_has_no_tail() {
        let morsels = split_morsels(&snapshot_source(1024), 256);
        assert_eq!(morsels.len(), 4);
        assert!(morsels.iter().all(|m| m.row_count() == 256));
    }

    #[test]
    fn zero_morsel_rows_means_one_morsel_per_segment() {
        let morsels = split_morsels(&snapshot_source(777), 0);
        assert_eq!(morsels.len(), 1);
        assert_eq!(morsels[0].rows, 0..777);
    }

    #[test]
    fn split_access_morsels_never_span_segments() {
        let olap = table_with(100);
        let oltp = table_with(130);
        let snap = TableSnapshot::new("t".into(), oltp, 130);
        let src = ScanSource::split(olap, 100, SocketId(1), &snap, SocketId(0));
        let morsels = split_morsels(&src, 64);
        // Segment 0: rows 0..100 -> 64 + 36; segment 1: rows 100..130 -> 30.
        assert_eq!(morsels.len(), 3);
        assert_eq!(morsels[0].rows, 0..64);
        assert_eq!(morsels[1].rows, 64..100);
        assert_eq!(morsels[2].rows, 100..130);
        assert_eq!(morsels[0].socket, SocketId(1));
        assert_eq!(morsels[2].socket, SocketId(0));
        assert!(!morsels[0].is_fresh());
        assert!(morsels[2].is_fresh());
        // Per-morsel row accounting matches the source totals.
        let rows: u64 = morsels.iter().map(|m| m.row_count() as u64).sum();
        assert_eq!(rows, src.total_rows());
        let fresh: u64 = morsels
            .iter()
            .filter(|m| m.is_fresh())
            .map(|m| m.row_count() as u64)
            .sum();
        assert_eq!(fresh, src.fresh_rows());
    }
}
