//! Query sequences and batches.
//!
//! The paper's workload classification (§2.3) distinguishes *short and fresh*
//! queries, *query batches* (same snapshot, same freshness for every query)
//! and *ad-hoc* queries. The evaluation drives the system with sequences of
//! the {Q1, Q6, Q19} mix (Figure 5) and with batches of the same query over
//! one snapshot (Figures 1 and 3(b)). This module generates both.

use crate::queries::{query_mix, query_mix_wide, QueryId};

/// The kind of analytical workload being generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceKind {
    /// Independent queries, each requiring maximum freshness
    /// ("short and fresh" / ad-hoc): the scheduler treats them individually.
    Independent,
    /// A batch executed over a single snapshot: only the first query of the
    /// batch pays for snapshotting/ETL.
    Batch,
}

/// One analytical work unit: an ordered list of queries plus the batch flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySequence {
    /// Queries in execution order.
    pub queries: Vec<QueryId>,
    /// Whether the queries form a batch over one snapshot.
    pub kind: SequenceKind,
}

impl QuerySequence {
    /// The paper's adaptive-experiment sequence: one Q1, one Q6, one Q19,
    /// scheduled independently (Figure 5 runs 100 of these).
    pub fn mix() -> Self {
        QuerySequence {
            queries: query_mix(),
            kind: SequenceKind::Independent,
        }
    }

    /// The widened mix: all seven implemented queries {Q1, Q3, Q4, Q6, Q12,
    /// Q14, Q19}, scheduled independently — scalar and grouped sinks, a
    /// top-k, and one- to three-relation footprints in one sequence.
    pub fn wide_mix() -> Self {
        QuerySequence {
            queries: query_mix_wide(),
            kind: SequenceKind::Independent,
        }
    }

    /// A batch of `n` copies of `query` over the same snapshot
    /// (Figures 1 and 3(b)).
    pub fn batch(query: QueryId, n: usize) -> Self {
        QuerySequence {
            queries: vec![query; n],
            kind: SequenceKind::Batch,
        }
    }

    /// A sequence of `n` copies of `query`, each treated independently.
    pub fn repeated(query: QueryId, n: usize) -> Self {
        QuerySequence {
            queries: vec![query; n],
            kind: SequenceKind::Independent,
        }
    }

    /// Number of queries in the sequence.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Whether query `index` should be scheduled as part of a batch: for a
    /// batch, every query after the first reuses the snapshot, so only the
    /// first query triggers scheduling work.
    pub fn is_batch_member(&self, index: usize) -> bool {
        self.kind == SequenceKind::Batch && index > 0
    }
}

/// Generate `n` consecutive mix sequences (the Figure-5 workload).
pub fn mix_sequences(n: usize) -> Vec<QuerySequence> {
    (0..n).map(|_| QuerySequence::mix()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_sequence_has_three_independent_queries() {
        let seq = QuerySequence::mix();
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.kind, SequenceKind::Independent);
        assert!(!seq.is_batch_member(0));
        assert!(!seq.is_batch_member(2));
        assert!(!seq.is_empty());
    }

    #[test]
    fn wide_mix_sequence_has_seven_independent_queries() {
        let seq = QuerySequence::wide_mix();
        assert_eq!(seq.len(), 7);
        assert_eq!(seq.kind, SequenceKind::Independent);
        assert!(seq.queries.contains(&QueryId::Q3));
        assert!(seq.queries.contains(&QueryId::Q12));
    }

    #[test]
    fn batches_mark_all_but_the_first_query() {
        let batch = QuerySequence::batch(QueryId::Q6, 16);
        assert_eq!(batch.len(), 16);
        assert!(!batch.is_batch_member(0));
        for i in 1..16 {
            assert!(batch.is_batch_member(i));
        }
    }

    #[test]
    fn repeated_sequences_stay_independent() {
        let seq = QuerySequence::repeated(QueryId::Q1, 4);
        assert_eq!(seq.len(), 4);
        assert!(!seq.is_batch_member(3));
    }

    #[test]
    fn figure5_workload_has_n_sequences() {
        let seqs = mix_sequences(100);
        assert_eq!(seqs.len(), 100);
        assert!(seqs.iter().all(|s| s.len() == 3));
    }
}
