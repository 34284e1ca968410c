//! The join-build sink: a build pipeline's surviving rows become the
//! multiplicity table later pipelines probe.

use super::pipeline::{MorselCtx, Pipeline, Sink};
use super::probe::{key_vals, Survivors};
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
/// A build keyed by a plain integer column reads that column's smallest and
/// largest value over the build source at bind time (one pass, one guard
/// per morsel-sized range). When a direct table over that span is no larger
/// than the hashed slot array the source's row count would take
/// ([`JoinTable::direct_fits`]) — CH `item` on `i_id` — every worker's table
/// is direct ([`JoinTable::direct`]) and the merge sums them element-wise.
/// The span is the source's, so a filtered build keeps it; a key that
/// arrives outside it (a row updated since the pass) re-seats that worker's
/// table into the hashed kind, so the answer never rests on the pass.
///
/// Otherwise the tables are hashed. A build keyed by a plain column that
/// is the build relation's declared primary key has them sized from the
/// source's row count before the first morsel, so it never regrows its slot
/// array. Every build row inserts at most one key, so the row count bounds
/// the keys of any build; the primary key is what makes it a tight bound
/// for an unfiltered build, one key per row, where a computed key such as
/// Q4's and Q12's `orderline` key repeats about ten times and keeps growing
/// its tables as keys arrive. A filtered build is sized for every source
/// row too: its slot array costs 32–64 B of transient memory per source row
/// (two to four 16-byte slots), whatever the filter keeps. The size is a
/// hint: a "primary key" column that holds duplicates needs fewer slots,
/// and a worker that claims more than its share of the morsels grows past
/// its table as any table does.
pub(super) struct BuildSink {
    key: AffineKey,
    /// The key range every worker's direct table covers, when the build is
    /// direct.
    direct: Option<(i64, i64)>,
    /// The source's row count, when the build key is the build relation's
    /// primary key: the keys the tables are sized for, whether or not the
    /// build is filtered.
    bound: Option<usize>,
}

impl BuildSink {
    /// Bind the build of `key` over `pipe`; the key-range pass reads
    /// `morsel_rows` rows per guard.
    pub fn bind(
        pipe: &Pipeline<'_>,
        key: &ScalarExpr,
        morsel_rows: usize,
    ) -> Result<Self, OlapError> {
        let source = pipe.source;
        let compiled = pipe.compile_key(key)?;
        let rows = source.total_rows() as usize;
        let direct = compiled
            .column()
            .and_then(|slot| pipe.key_range(slot, morsel_rows))
            .filter(|&(min, max)| JoinTable::direct_fits(min, max, rows));
        let primary_key = |column: &str| {
            source.segments.iter().all(|seg| {
                let schema = seg.table.schema();
                schema
                    .primary_key
                    .is_some_and(|pk| schema.column(pk).name == column)
            })
        };
        let bound = match key {
            ScalarExpr::Col(column) if primary_key(column) => Some(rows),
            _ => None,
        };
        Ok(BuildSink {
            key: compiled,
            direct,
            bound,
        })
    }
}

impl Sink for BuildSink {
    type Partial = JoinTable;
    type Output = JoinTable;
    const ROOT: bool = false;

    /// A direct build gives every worker a table over the whole range. A
    /// hashed one gives a single worker a table sized for the whole bound,
    /// and each of several workers one for its share of the morsels,
    /// rounded up to whole morsels — so the transient tables stay within
    /// about twice the merged one.
    fn partial(&self, morsels: &[Morsel], workers: usize) -> JoinTable {
        if let Some((min, max)) = self.direct {
            return JoinTable::direct(min, max);
        }
        let Some(bound) = self.bound else {
            return JoinTable::new();
        };
        let morsel_rows = morsels.iter().map(Morsel::row_count).max().unwrap_or(0);
        let share = morsels.len().div_ceil(workers) * morsel_rows;
        JoinTable::with_capacity(bound.min(share))
    }

    /// The key lanes come from [`key_vals`]: a plain key column in place,
    /// a computed key such as Q4's as its `i64` affine form, exact either
    /// way. The table takes the morsel's rows in one `extend`, which decides
    /// its kind once.
    fn consume(&self, cx: &mut MorselCtx<'_, '_>, survivors: Survivors<'_>, table: &mut JoinTable) {
        let sel = survivors.selection();
        let keys = key_vals(&self.key, cx.data, cx.keys, cx.rows, sel);
        match survivors {
            Survivors::Plain(None) => table.extend(keys.iter().map(|&k| (k, 1))),
            Survivors::Plain(Some(ids)) => table.extend(ids.iter().map(|&i| (keys[i as usize], 1))),
            Survivors::Weighted(ids, weights) => table.extend(
                ids.iter()
                    .zip(weights)
                    .map(|(&i, &w)| (keys[i as usize], w)),
            ),
        }
    }

    fn merge(&self, partials: Vec<JoinTable>) -> JoinTable {
        JoinTable::merge(partials)
    }

    /// `direct`: 1 when the build runs direct tables, 0 when hashed.
    fn span_arg(&self) -> Option<(&'static str, f64)> {
        Some(("direct", f64::from(u8::from(self.direct.is_some()))))
    }
}
