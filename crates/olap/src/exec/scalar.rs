//! The scalar-aggregate sink: one state per aggregate per morsel, merged in
//! morsel order.

use super::pipeline::{MorselCtx, Sink};
use super::probe::Survivors;
use crate::expr::{AggExpr, AggState};
use crate::kernels;
use crate::morsel::Morsel;
use crate::program::{eval_expr, resolve, AggKind, CompiledAgg, ValView};

/// Folds every morsel's survivors into that morsel's own aggregate states
/// and merges the per-morsel states in morsel-index order, so the result is
/// bit-for-bit identical for every worker count.
pub(super) struct ScalarSink<'q> {
    pub aggregates: &'q [AggExpr],
}

/// Per-worker output of a scalar pipeline: per-morsel states in claim order.
/// Both buffers are reserved up front so the morsel loop never reallocates.
pub(super) struct ScalarOut {
    /// Morsel index of each processed morsel, in claim order.
    order: Vec<u32>,
    /// Flat per-morsel states, one per aggregate per entry of `order`.
    states: Vec<AggState>,
}

impl Sink for ScalarSink<'_> {
    type Partial = ScalarOut;
    type Output = Vec<f64>;
    const ROOT: bool = true;

    fn partial(&self, morsels: &[Morsel], _workers: usize) -> ScalarOut {
        ScalarOut {
            order: Vec::with_capacity(morsels.len()),
            states: Vec::with_capacity(morsels.len() * self.aggregates.len()),
        }
    }

    fn consume(&self, cx: &mut MorselCtx<'_, '_>, survivors: Survivors<'_>, out: &mut ScalarOut) {
        let (pipe, rows) = (cx.pipe, cx.rows);
        let selected = survivors.tuple_count(rows);
        out.order.push(cx.idx as u32);
        let at = out.states.len();
        out.states.resize(at + pipe.aggs.len(), AggState::default());
        for (agg, state) in pipe.aggs.iter().zip(&mut out.states[at..]) {
            match agg {
                CompiledAgg::Count => state.update_count_n(selected),
                CompiledAgg::Fold(kind, e) => {
                    let consts = &pipe.pool.consts;
                    eval_expr(e, cx.data, cx.regs, consts, rows, survivors.selection());
                    let v = resolve(e.output, cx.data, cx.regs, consts);
                    match survivors {
                        Survivors::Plain(sel) => fold_agg(*kind, state, v, rows, sel),
                        Survivors::Weighted(ids, weights) => {
                            for (&i, &w) in ids.iter().zip(weights) {
                                fold_weighted_row(*kind, state, v.get(i as usize), w);
                            }
                        }
                    }
                }
            }
        }
    }

    fn merge(&self, partials: Vec<ScalarOut>) -> Vec<f64> {
        let n_aggs = self.aggregates.len();
        let morsels = partials.iter().map(|out| out.order.len()).sum();
        let mut parts: Vec<(u32, &[AggState])> = Vec::with_capacity(morsels);
        for out in &partials {
            for (k, &m) in out.order.iter().enumerate() {
                parts.push((m, &out.states[k * n_aggs..(k + 1) * n_aggs]));
            }
        }
        parts.sort_unstable_by_key(|(m, _)| *m);
        let mut states = vec![AggState::default(); n_aggs];
        for (_, chunk) in parts {
            for (state, partial) in states.iter_mut().zip(chunk) {
                state.merge(partial);
            }
        }
        self.aggregates
            .iter()
            .zip(&states)
            .map(|(agg, st)| st.finalize(agg))
            .collect()
    }
}

/// Fold one aggregate input over the selection into `state` — the
/// column-at-a-time inner loop, dispatched to the chunked fold kernels of
/// [`crate::kernels`]. Slice inputs run the dense kernel (registers may be
/// longer than the morsel, so the view is clipped to `rows`) or the gather
/// kernel over the selection; constant inputs fold the literal once per
/// surviving row. Every kernel accumulates strictly sequentially, so the
/// result is bit-for-bit the per-row loop's.
#[inline]
fn fold_agg(kind: AggKind, state: &mut AggState, v: ValView<'_>, rows: usize, sel: Option<&[u32]>) {
    match (v, sel) {
        (ValView::Slice(s), None) => {
            let s = &s[..rows];
            match kind {
                AggKind::Sum => kernels::fold_sum_dense(state, s),
                AggKind::Avg => kernels::fold_avg_dense(state, s),
                AggKind::Min => kernels::fold_min_dense(state, s),
                AggKind::Max => kernels::fold_max_dense(state, s),
            }
        }
        (ValView::Slice(s), Some(ids)) => match kind {
            AggKind::Sum => kernels::fold_sum_gather(state, s, ids),
            AggKind::Avg => kernels::fold_avg_gather(state, s, ids),
            AggKind::Min => kernels::fold_min_gather(state, s, ids),
            AggKind::Max => kernels::fold_max_gather(state, s, ids),
        },
        (ValView::Const(c), sel) => {
            let n = sel.map_or(rows, <[u32]>::len);
            match kind {
                AggKind::Sum => (0..n).for_each(|_| state.fold_sum(c)),
                AggKind::Avg => (0..n).for_each(|_| state.fold_avg(c)),
                AggKind::Min => (0..n).for_each(|_| state.fold_min(c)),
                AggKind::Max => (0..n).for_each(|_| state.fold_max(c)),
            }
        }
    }
}

/// Fold one value standing for `w` joined tuples: SUM/AVG scale it by the
/// multiplicity, MIN/MAX fold it once (repeated folds of one value cannot
/// move an extremum).
#[inline(always)]
pub(super) fn fold_weighted_row(kind: AggKind, state: &mut AggState, value: f64, w: u64) {
    match kind {
        AggKind::Sum => state.fold_sum_weighted(value, w),
        AggKind::Avg => state.fold_avg_weighted(value, w),
        AggKind::Min => state.fold_min(value),
        AggKind::Max => state.fold_max(value),
    }
}
