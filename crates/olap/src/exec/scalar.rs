//! The scalar-aggregate sink: one row count and one value per lane per
//! morsel, merged in morsel order.

use super::pipeline::{MorselCtx, Sink};
use super::probe::Survivors;
use crate::expr::{AggExpr, Fold};
use crate::kernels;
use crate::morsel::Morsel;
use crate::program::{eval_expr, resolve, CompiledAggs, ValView};

/// Folds every morsel's survivors into that morsel's own count and lanes
/// and merges the per-morsel partials in morsel-index order, so the result
/// is bit-for-bit identical for every worker count.
pub(super) struct ScalarSink<'q> {
    pub aggregates: &'q [AggExpr],
    /// The pipeline's aggregates bound to their lanes.
    pub aggs: &'q CompiledAggs,
}

/// Per-worker output of a scalar pipeline: per-morsel partials in claim
/// order. The buffers are reserved up front so the morsel loop never
/// reallocates.
pub(super) struct ScalarOut {
    /// Morsel index of each processed morsel, in claim order.
    order: Vec<u32>,
    /// Surviving tuples of each entry of `order`.
    counts: Vec<u64>,
    /// Flat per-morsel lanes, one value per lane per entry of `order`.
    lanes: Vec<f64>,
}

impl Sink for ScalarSink<'_> {
    type Partial = ScalarOut;
    type Output = Vec<f64>;
    const ROOT: bool = true;

    fn partial(&self, morsels: &[Morsel], _workers: usize) -> ScalarOut {
        ScalarOut {
            order: Vec::with_capacity(morsels.len()),
            counts: Vec::with_capacity(morsels.len()),
            lanes: Vec::with_capacity(morsels.len() * self.aggs.lanes.len()),
        }
    }

    fn consume(&self, cx: &mut MorselCtx<'_, '_>, survivors: Survivors<'_>, out: &mut ScalarOut) {
        let rows = cx.rows;
        out.order.push(cx.idx as u32);
        out.counts.push(survivors.tuple_count(rows));
        let at = out.lanes.len();
        out.lanes.extend(self.aggs.identities());
        let consts = &cx.pipe.pool.consts;
        for (&(fold, ref e), acc) in self.aggs.lanes.iter().zip(&mut out.lanes[at..]) {
            eval_expr(e, cx.data, cx.regs, consts, rows, survivors.selection());
            let v = resolve(e.output, cx.data, cx.regs, consts);
            match survivors {
                Survivors::Plain(sel) => fold_lane(fold, acc, v, rows, sel),
                Survivors::Weighted(ids, weights) => {
                    for (&i, &w) in ids.iter().zip(weights) {
                        *acc = fold.apply_weighted(*acc, v.get(i as usize), w);
                    }
                }
            }
        }
    }

    fn merge(&self, partials: Vec<ScalarOut>) -> Vec<f64> {
        let n_lanes = self.aggs.lanes.len();
        let morsels = partials.iter().map(|out| out.order.len()).sum();
        let mut parts: Vec<(u32, u64, &[f64])> = Vec::with_capacity(morsels);
        for out in &partials {
            for (k, (&m, &count)) in out.order.iter().zip(&out.counts).enumerate() {
                parts.push((m, count, &out.lanes[k * n_lanes..(k + 1) * n_lanes]));
            }
        }
        parts.sort_unstable_by_key(|&(m, ..)| m);
        let mut count = 0;
        let mut lanes: Vec<f64> = self.aggs.identities().collect();
        for (_, c, part) in parts {
            count += c;
            self.aggs.merge(&mut lanes, part);
        }
        self.aggs.finalize(self.aggregates, count, &lanes)
    }
}

/// Fold one lane's input over the selection into `acc` — the
/// column-at-a-time inner loop, dispatched to the chunked fold kernels of
/// [`crate::kernels`]. Slice inputs run the dense kernel (registers may be
/// longer than the morsel, so the view is clipped to `rows`) or the gather
/// kernel over the selection; constant inputs fold the literal once per
/// surviving row. Every kernel accumulates strictly sequentially, so the
/// result is bit-for-bit the per-row loop's.
#[inline]
fn fold_lane(fold: Fold, acc: &mut f64, v: ValView<'_>, rows: usize, sel: Option<&[u32]>) {
    match (v, sel) {
        (ValView::Slice(s), None) => kernels::fold_dense(fold, acc, &s[..rows]),
        (ValView::Slice(s), Some(ids)) => kernels::fold_gather(fold, acc, s, ids),
        (ValView::Const(c), sel) => {
            for _ in 0..sel.map_or(rows, <[u32]>::len) {
                *acc = fold.apply(*acc, c);
            }
        }
    }
}
