//! The join-build sink: a build pipeline's surviving rows become the
//! multiplicity table later pipelines probe.

use super::pipeline::{MorselCtx, Pipeline, Sink};
use super::probe::{for_each_selected, key_vals, Survivors};
use crate::error::OlapError;
use crate::expr::ScalarExpr;
use crate::hashtable::JoinTable;
use crate::morsel::Morsel;
use crate::program::AffineKey;

/// Every surviving row inserts its build key with the weight accumulated
/// along the probe chain, so chained builds carry join multiplicities all
/// the way down. Each worker owns one [`JoinTable`] reused across all the
/// morsels it claims; the per-worker tables are unioned by summing weights,
/// which is order-insensitive — determinism is preserved.
///
/// A build keyed by a plain column that is the build relation's declared
/// primary key has its tables sized from the source's row count before the
/// first morsel, so it never regrows its slot array. Every build row inserts
/// at most one key, so the row count bounds the keys of any build; the
/// primary key is what makes it a tight bound for an unfiltered build, one
/// key per row, where a computed key such as Q4's and Q12's `orderline` key
/// repeats about ten times and keeps growing its tables as keys arrive. A
/// filtered build is sized for every source row too: its slot array costs
/// 32–64 B of transient memory per source row (two to four 16-byte slots),
/// whatever the filter keeps. The size is a hint: a "primary key" column
/// that holds duplicates needs fewer slots, and a worker that claims more
/// than its share of the morsels grows past its table as any table does.
pub(super) struct BuildSink {
    key: AffineKey,
    /// The source's row count, when the build key is the build relation's
    /// primary key: the keys the tables are sized for, whether or not the
    /// build is filtered.
    bound: Option<usize>,
}

impl BuildSink {
    pub fn bind(pipe: &Pipeline<'_>, key: &ScalarExpr) -> Result<Self, OlapError> {
        let source = pipe.source;
        let primary_key = |column: &str| {
            source.segments.iter().all(|seg| {
                let schema = seg.table.schema();
                schema
                    .primary_key
                    .is_some_and(|pk| schema.column(pk).name == column)
            })
        };
        let bound = match key {
            ScalarExpr::Col(column) if primary_key(column) => Some(source.total_rows() as usize),
            _ => None,
        };
        Ok(BuildSink {
            key: pipe.compile_key(key)?,
            bound,
        })
    }
}

impl Sink for BuildSink {
    type Partial = JoinTable;
    type Output = JoinTable;
    const ROOT: bool = false;

    /// A single worker's table is sized for the whole bound; each of several
    /// workers' for its share of the morsels, rounded up to whole morsels —
    /// so the transient tables stay within about twice the merged one.
    fn partial(&self, morsels: &[Morsel], workers: usize) -> JoinTable {
        let Some(bound) = self.bound else {
            return JoinTable::new();
        };
        let morsel_rows = morsels.iter().map(Morsel::row_count).max().unwrap_or(0);
        let share = morsels.len().div_ceil(workers) * morsel_rows;
        JoinTable::with_capacity(bound.min(share))
    }

    /// The key lanes come from [`key_vals`]: a plain key column in place,
    /// a computed key such as Q4's as its `i64` affine form, exact either
    /// way.
    fn consume(&self, cx: &mut MorselCtx<'_, '_>, survivors: Survivors<'_>, table: &mut JoinTable) {
        let sel = survivors.selection();
        let keys = key_vals(&self.key, cx.data, cx.keys, cx.rows, sel);
        match survivors {
            Survivors::Plain(_) => for_each_selected(cx.rows, sel, |_, i| table.add(keys[i], 1)),
            Survivors::Weighted(ids, weights) => {
                for (&i, &w) in ids.iter().zip(weights) {
                    table.add(keys[i as usize], w);
                }
            }
        }
    }

    fn merge(&self, partials: Vec<JoinTable>) -> JoinTable {
        JoinTable::merge(partials)
    }
}
