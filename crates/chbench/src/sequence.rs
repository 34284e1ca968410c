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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_sequence_has_three_independent_queries() {
        let seq = QuerySequence::mix();
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.kind, SequenceKind::Independent);
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
    fn batch_is_n_copies_of_one_query() {
        let batch = QuerySequence::batch(QueryId::Q6, 16);
        assert_eq!(batch.len(), 16);
        assert_eq!(batch.kind, SequenceKind::Batch);
        assert!(batch.queries.iter().all(|&q| q == QueryId::Q6));
    }

    #[test]
    fn repeated_sequences_stay_independent() {
        let seq = QuerySequence::repeated(QueryId::Q1, 4);
        assert_eq!(seq.len(), 4);
        assert_eq!(seq.kind, SequenceKind::Independent);
    }
}
