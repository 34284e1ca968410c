//! The join-build sink: a build pipeline's surviving rows become the
//! multiplicity table later pipelines probe.

use super::pipeline::{MorselCtx, Pipeline, Sink};
use super::probe::{for_each_selected, key_vals, Survivors};
use crate::error::OlapError;
use crate::expr::ScalarExpr;
use crate::hashtable::JoinTable;
use crate::program::CompiledKey;

/// Every surviving row inserts its build key with the weight accumulated
/// along the probe chain, so chained builds carry join multiplicities all
/// the way down. Each worker owns one [`JoinTable`] reused across all the
/// morsels it claims; the per-worker tables are unioned by summing weights,
/// which is order-insensitive — determinism is preserved.
pub(super) struct BuildSink {
    key: CompiledKey,
}

impl BuildSink {
    pub fn bind(pipe: &mut Pipeline<'_>, key: &ScalarExpr) -> Result<Self, OlapError> {
        Ok(BuildSink {
            key: pipe.compile_key(key)?,
        })
    }
}

impl Sink for BuildSink {
    type Partial = JoinTable;
    type Output = JoinTable;
    const ROOT: bool = false;

    fn partial(&self, _morsels: usize) -> JoinTable {
        JoinTable::new()
    }

    fn consume(&self, cx: &mut MorselCtx<'_, '_>, survivors: Survivors<'_>, table: &mut JoinTable) {
        let sel = survivors.selection();
        let consts = &cx.pipe.pool.consts;
        let keys = key_vals(&self.key, cx.data, cx.regs, cx.keys, consts, cx.rows, sel);
        match survivors {
            Survivors::Plain(_) => for_each_selected(cx.rows, sel, |_, i| table.add(keys[i], 1)),
            Survivors::Weighted(ids, weights) => {
                for (&i, &w) in ids.iter().zip(weights) {
                    table.add(keys[i as usize], w);
                }
            }
        }
    }

    /// Union the per-worker tables smaller into larger: weight sums do not
    /// depend on which table receives them, and the keys of the largest
    /// table — at least a `1/workers` share of the build — are adopted as
    /// they stand instead of re-inserted into a fresh table.
    fn merge(&self, partials: Vec<JoinTable>) -> JoinTable {
        let mut table = JoinTable::new();
        for mut partial in partials {
            if partial.len() > table.len() {
                std::mem::swap(&mut table, &mut partial);
            }
            table.union(&partial);
        }
        table
    }
}
