//! The join-build sink: a build pipeline's surviving rows become the
//! multiplicity table later pipelines probe.

use super::pipeline::{MorselCtx, Pipeline, Sink};
use super::probe::{key_vals, Survivors};
use super::{QueryExecutor, WorkProfile};
use crate::error::OlapError;
use crate::expr::ScalarExpr;
use crate::hashtable::JoinTable;
use crate::kernels;
use crate::morsel::Morsel;
use crate::program::{JoinKey, KeyBox};
use crate::scratch::MorselData;
use crate::worker::WorkerTeam;

/// A finished join build: the table later pipelines probe and, for a tuple
/// key, the box its tuples were folded over — a probe folds its own tuple
/// over the same box.
pub(super) struct Built {
    pub table: JoinTable,
    pub fold: Option<KeyBox>,
}

/// What a build pipeline's workers produce: their table, and per tuple
/// element the value range of every morsel that held a tuple outside the
/// fold's box (`None`: no such morsel).
pub(super) struct BuildOutput {
    table: JoinTable,
    outside: Option<Vec<(i64, i64)>>,
}

/// Every surviving row inserts its build key with the weight accumulated
/// along the probe chain, so chained builds carry join multiplicities all
/// the way down. Each worker owns one [`JoinTable`] reused across all the
/// morsels it claims; the per-worker tables are unioned by summing weights,
/// which is order-insensitive — determinism is preserved.
///
/// Which kind the tables are is decided at bind, from the smallest and
/// largest value storage keeps for each integer column
/// ([`crate::ScanSource::column_bounds`]) — no pass over the rows:
///
/// * A build keyed by a plain integer column (CH `item` on `i_id`) is
///   direct when a table over the column's span takes no more bytes than
///   the hashed slot array the source's row count would
///   ([`JoinTable::direct_fits`]). The bounds are conservative, so a
///   filtered build keeps them; a key that arrives outside them (a value no
///   write path widened the bounds for) re-seats that worker's table into
///   the hashed kind, so the answer never rests on the bounds.
/// * A build keyed by a tuple of integer columns (CH `orders` on
///   `(o_w_id, o_d_id, o_id)`) folds each tuple to one exact `i64` by mixed
///   radix over the columns' box ([`KeyBox::fold`]): the tuples inside the
///   box fold into `0..cells`, and the table over them is direct on the
///   same rule. A tuple outside the box folds to nothing, which the worker
///   records with the range of its morsel's values; the build then runs
///   again over the box widened by those ranges and by the bounds read
///   afresh, so it never aliases. Only the last run's work is accounted.
///
/// Otherwise the tables are hashed. A build keyed by a plain column that
/// is the build relation's declared primary key has them sized from the
/// source's row count before the first morsel, so it never regrows its slot
/// array. Every build row inserts at most one key, so the row count bounds
/// the keys of any build; the primary key is what makes it a tight bound
/// for an unfiltered build, one key per row, where a computed key repeats
/// and keeps growing its tables as keys arrive. A filtered build is sized
/// for every source row too: its slot array costs 32–64 B of transient
/// memory per source row (two to four 16-byte slots), whatever the filter
/// keeps. The size is a hint: a "primary key" column that holds duplicates
/// needs fewer slots, and a worker that claims more than its share of the
/// morsels grows past its table as any table does.
pub(super) struct BuildSink {
    key: JoinKey,
    /// The key range every worker's direct table covers, when the build is
    /// direct.
    direct: Option<(i64, i64)>,
    /// The source's row count, when the build key is the build relation's
    /// primary key: the keys the tables are sized for, whether or not the
    /// build is filtered.
    bound: Option<usize>,
}

impl BuildSink {
    /// Bind the build of `keys` over `pipe`: a one-expression key as it
    /// stands, a tuple folded over `fold`.
    fn bind(
        pipe: &Pipeline<'_>,
        keys: &[ScalarExpr],
        fold: Option<&KeyBox>,
    ) -> Result<Self, OlapError> {
        let source = pipe.source;
        let rows = source.total_rows() as usize;
        let fits = |&(min, max): &(i64, i64)| JoinTable::direct_fits(min, max, rows);
        let (key, span) = match (fold, keys) {
            (Some(fold), _) => {
                let cells = fold.cells()?;
                let key = fold.fold(&pipe.tuple_slots(keys)?)?;
                (key, (cells > 0).then_some((0, cells - 1)))
            }
            (None, [key]) => {
                let key = pipe.compile_key(key)?;
                let span = key
                    .column()
                    .and_then(|slot| source.column_bounds(pipe.key_column(slot)));
                (key, span)
            }
            (None, _) => {
                return Err(OlapError::InvalidDag {
                    reason: "a tuple build without its box".into(),
                })
            }
        };
        let primary_key = |column: &str| {
            source.segments.iter().all(|seg| {
                let schema = seg.table.schema();
                schema
                    .primary_key
                    .is_some_and(|pk| schema.column(pk).name == column)
            })
        };
        let bound = match keys {
            [ScalarExpr::Col(column)] if primary_key(column) => Some(rows),
            _ => None,
        };
        Ok(BuildSink {
            key,
            direct: span.filter(fits),
            bound,
        })
    }
}

impl QueryExecutor {
    /// Run the build pipeline `pipe` keyed by `keys` into its table,
    /// merging its work into `work`. A tuple key folds over the box storage
    /// keeps for its columns; should a run meet a tuple outside that box,
    /// the box widens and the build runs again (see [`BuildSink`]).
    pub(super) fn run_build(
        &self,
        pipe: &Pipeline<'_>,
        keys: &[ScalarExpr],
        team: &WorkerTeam,
        work: &mut WorkProfile,
    ) -> Result<Built, OlapError> {
        let columns = || -> Result<Vec<&str>, OlapError> {
            Ok(pipe
                .tuple_slots(keys)?
                .into_iter()
                .map(|slot| pipe.key_column(slot))
                .collect())
        };
        let mut fold = match keys.len() {
            1 => None,
            _ => Some(KeyBox::of(pipe.source, &columns()?)),
        };
        loop {
            let sink = BuildSink::bind(pipe, keys, fold.as_ref())?;
            let mut run = WorkProfile::default();
            let BuildOutput { table, outside } = self.run_pipeline(pipe, team, &sink, &mut run);
            match (outside, fold.as_mut()) {
                (Some(seen), Some(fold)) => {
                    let fresh = KeyBox::of(pipe.source, &columns()?);
                    fold.union(&fresh);
                    for (i, range) in seen.into_iter().enumerate() {
                        fold.widen(i, range);
                    }
                }
                _ => {
                    work.merge(&run);
                    return Ok(Built { table, fold });
                }
            }
        }
    }
}

/// Per tuple element, the smallest and largest value among the selected
/// rows of the element's column: the cold record of a morsel that held a
/// tuple outside the fold's box.
#[cold]
#[inline(never)]
fn element_ranges(key: &JoinKey, data: &MorselData<'_>, sel: Option<&[u32]>) -> Vec<(i64, i64)> {
    key.checks
        .iter()
        .filter_map(|&(slot, _, _)| {
            let col = data.key(slot as usize);
            match sel {
                None => kernels::min_max_dense(col),
                Some(ids) => kernels::min_max_gather(col, ids),
            }
        })
        .collect()
}

impl Sink for BuildSink {
    type Partial = BuildOutput;
    type Output = BuildOutput;
    const ROOT: bool = false;

    /// A direct build gives every worker a table over the whole range. A
    /// hashed one gives a single worker a table sized for the whole bound,
    /// and each of several workers one for its share of the morsels,
    /// rounded up to whole morsels — so the transient tables stay within
    /// about twice the merged one.
    fn partial(&self, morsels: &[Morsel], workers: usize) -> BuildOutput {
        let table = match (self.direct, self.bound) {
            (Some((min, max)), _) => JoinTable::direct(min, max),
            (None, None) => JoinTable::new(),
            (None, Some(bound)) => {
                let morsel_rows = morsels.iter().map(Morsel::row_count).max().unwrap_or(0);
                let share = morsels.len().div_ceil(workers) * morsel_rows;
                JoinTable::with_capacity(bound.min(share))
            }
        };
        BuildOutput {
            table,
            outside: None,
        }
    }

    /// The key lanes come from [`key_vals`]: a plain key column in place,
    /// a computed key such as `f_g·4 + f_h` as its `i64` affine form, a
    /// tuple as its fold, exact either way. The table takes the morsel's
    /// rows in one `extend`, which decides its kind once.
    fn consume(&self, cx: &mut MorselCtx<'_, '_>, survivors: Survivors<'_>, out: &mut BuildOutput) {
        let sel = survivors.selection();
        let (keys, outside) = key_vals(&self.key, cx.data, cx.keys, cx.rows, sel);
        if outside {
            let seen = element_ranges(&self.key, cx.data, sel);
            out.outside = Some(union_ranges(out.outside.take(), seen));
        }
        let table = &mut out.table;
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

    fn merge(&self, partials: Vec<BuildOutput>) -> BuildOutput {
        let mut outside = None;
        let mut tables = Vec::with_capacity(partials.len());
        for part in partials {
            if let Some(seen) = part.outside {
                outside = Some(union_ranges(outside, seen));
            }
            tables.push(part.table);
        }
        BuildOutput {
            table: JoinTable::merge(tables),
            outside,
        }
    }

    /// `direct`: 1 when the build runs direct tables, 0 when hashed.
    fn span_arg(&self) -> Option<(&'static str, f64)> {
        Some(("direct", f64::from(u8::from(self.direct.is_some()))))
    }
}

/// Element-wise union of two range lists (`acc` may be absent).
fn union_ranges(acc: Option<Vec<(i64, i64)>>, seen: Vec<(i64, i64)>) -> Vec<(i64, i64)> {
    match acc {
        None => seen,
        Some(acc) => acc
            .into_iter()
            .zip(seen)
            .map(|((lo, hi), (l, h))| (lo.min(l), hi.max(h)))
            .collect(),
    }
}
