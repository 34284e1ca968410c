//! A naive, sequential, row-at-a-time reference executor — the differential
//! testing oracle of the morsel-driven engine.
//!
//! The oracle shares exactly one thing with [`crate::exec::QueryExecutor`]:
//! the plan. Both walk the pipeline tree a [`QueryPlan`] is, so they agree
//! on *what* to compute; everything about *how* is independent
//! — the rows *and* the [`WorkProfile`] account. Scalar
//! expressions are evaluated recursively per row (not vectorised per block),
//! predicates are re-derived from [`CmpOp`] here, aggregation keeps its own
//! accumulator per aggregate instead of the engine's shared count and lanes
//! ([`crate::expr::Fold`]), and join multiplicities
//! live in ordered `BTreeMap` weight maps instead of the engine's
//! open-addressing [`crate::hashtable::JoinTable`] — keyed by the key tuple
//! itself, compared element by element, where the engine folds a tuple into
//! one `i64` over its build's value box. A row matched by a
//! duplicate-key build side is folded once per matching build tuple —
//! literal repetition, where the engine scales by the multiplicity. Two
//! independent implementations agreeing on randomized plans is the
//! correctness argument (the strategy HTAP engines like oxibase use:
//! validate the optimised engine against a semantic oracle). It is used only
//! by tests and the differential harness — production queries always run
//! through the morsel engine.
//!
//! Floating-point caveat: the oracle accumulates strictly in scan order
//! (and folds weighted rows by repeated addition) while the engine merges
//! per-morsel partial sums (and scales by the weight), so SUM/AVG results
//! agree only up to floating-point associativity — differential tests
//! compare them with a relative tolerance. COUNT, MIN, MAX and group keys
//! are exact.

use crate::block::Block;
use crate::error::OlapError;
use crate::exec::{GroupRow, QueryOutput, QueryResult, WorkProfile};
use crate::expr::{AggExpr, CmpOp, Predicate, ScalarExpr};
use crate::plan::{Build, Finisher, Pipeline, Probe, QueryPlan, RowSlot};
use crate::source::ScanSource;
use std::collections::BTreeMap;

/// Row-at-a-time scalar evaluation (recursive, unvectorised).
fn scalar_at(expr: &ScalarExpr, block: &Block, row: usize) -> f64 {
    match expr {
        ScalarExpr::Col(name) => block
            .numeric(name)
            .map(|c| c[row])
            .or_else(|| block.key(name).map(|c| c[row] as f64))
            // lint:allow(no-panic): row-at-a-time test oracle, never on the query path; a
            .unwrap_or_else(|| panic!("column {name} not present in block")),
        ScalarExpr::Literal(v) => *v,
        ScalarExpr::Add(a, b) => scalar_at(a, block, row) + scalar_at(b, block, row),
        ScalarExpr::Sub(a, b) => scalar_at(a, block, row) - scalar_at(b, block, row),
        ScalarExpr::Mul(a, b) => scalar_at(a, block, row) * scalar_at(b, block, row),
    }
}

/// Check a join key against the key rule the engine enforces at bind: an
/// integer column (checked when its block loads), an integral literal, or
/// `+`/`−`/`×` of those with a column-free factor in every product.
fn check_key(expr: &ScalarExpr) -> Result<(), OlapError> {
    match expr {
        ScalarExpr::Col(_) => Ok(()),
        ScalarExpr::Literal(v)
            if v.fract() == 0.0 && *v >= i64::MIN as f64 && *v < -(i64::MIN as f64) =>
        {
            Ok(())
        }
        ScalarExpr::Literal(_) => Err(OlapError::UnsupportedKey {
            reason: "a literal that is not an i64 integer",
        }),
        ScalarExpr::Mul(a, b) if !a.columns().is_empty() && !b.columns().is_empty() => {
            Err(OlapError::UnsupportedKey {
                reason: "a product of two columns",
            })
        }
        ScalarExpr::Add(a, b) | ScalarExpr::Sub(a, b) | ScalarExpr::Mul(a, b) => {
            check_key(a)?;
            check_key(b)
        }
    }
}

/// Row-at-a-time join-key evaluation: the expression tree in wrapping `i64`
/// over the key-loaded columns, exact over the whole `i64` range — the value
/// the engine's folded affine form computes.
fn key_at(expr: &ScalarExpr, block: &Block, row: usize) -> Result<i64, OlapError> {
    let at = |e: &ScalarExpr| key_at(e, block, row);
    Ok(match expr {
        ScalarExpr::Col(name) => block.key(name).ok_or_else(|| OlapError::MissingColumn {
            column: name.clone(),
        })?[row],
        ScalarExpr::Literal(v) => *v as i64,
        ScalarExpr::Add(a, b) => at(a)?.wrapping_add(at(b)?),
        ScalarExpr::Sub(a, b) => at(a)?.wrapping_sub(at(b)?),
        ScalarExpr::Mul(a, b) => at(a)?.wrapping_mul(at(b)?),
    })
}

/// Put a join key's columns on the key load list — every one of them, as
/// the engine does — after checking the key against the key rule: one
/// expression, or a tuple of plain columns.
fn push_key_columns(key: &[ScalarExpr], keys: &mut Vec<String>) -> Result<(), OlapError> {
    for expr in key {
        if key.len() > 1 && !matches!(expr, ScalarExpr::Col(_)) {
            return Err(OlapError::UnsupportedKey {
                reason: "a tuple element that is not a plain column",
            });
        }
        check_key(expr)?;
        keys.extend(expr.columns());
    }
    Ok(())
}

/// A join key's value for one row: the tuple of its elements' values,
/// compared element by element (a one-expression key is a 1-tuple).
fn tuple_at(key: &[ScalarExpr], block: &Block, row: usize) -> Result<Vec<i64>, OlapError> {
    key.iter().map(|e| key_at(e, block, row)).collect()
}

/// Check a tuple build's box against `i64`: the product of the spans of its
/// columns' storage-kept bounds over `src` must fit, the rule the engine
/// folds under. A 1-tuple folds nothing.
fn check_box(src: &ScanSource, key: &[ScalarExpr]) -> Result<(), OlapError> {
    if key.len() < 2 {
        return Ok(());
    }
    let mut cells: u128 = 1;
    for column in key.iter().flat_map(ScalarExpr::columns) {
        let span = src
            .column_bounds(&column)
            .map_or(0, |(lo, hi)| (i128::from(hi) - i128::from(lo) + 1) as u128);
        cells = cells.saturating_mul(span);
    }
    if cells > i64::MAX as u128 {
        return Err(OlapError::UnsupportedKey {
            reason: "a tuple whose box overflows i64",
        });
    }
    Ok(())
}

/// Row-at-a-time comparison, re-derived from the operator.
fn cmp_at(op: CmpOp, v: f64, literal: f64) -> bool {
    match op {
        CmpOp::Eq => v == literal,
        CmpOp::Ne => v != literal,
        CmpOp::Lt => v < literal,
        CmpOp::Le => v <= literal,
        CmpOp::Gt => v > literal,
        CmpOp::Ge => v >= literal,
    }
}

/// Row-at-a-time predicate evaluation.
fn passes(filters: &[Predicate], block: &Block, row: usize) -> bool {
    filters.iter().all(|p| {
        let v = block
            .numeric(&p.column)
            .map(|c| c[row])
            .or_else(|| block.key(&p.column).map(|c| c[row] as f64))
            // lint:allow(no-panic): test oracle; a missing column is a harness bug, not a query error
            .unwrap_or_else(|| panic!("column {} not present in block", p.column));
        cmp_at(p.op, v, p.literal)
    })
}

/// The oracle's aggregate accumulator — one per aggregate, independent of
/// the engine's lanes ([`crate::expr::Fold`]).
#[derive(Debug, Clone, Copy, Default)]
struct RefAcc {
    sum: f64,
    count: u64,
    min: Option<f64>,
    max: Option<f64>,
}

impl RefAcc {
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        self.min = Some(match self.min {
            Some(m) if m <= v => m,
            _ => v,
        });
        self.max = Some(match self.max {
            Some(m) if m >= v => m,
            _ => v,
        });
    }

    fn add_count(&mut self) {
        self.count += 1;
    }

    /// Matches the engine's defined empty values: 0.0 for empty AVG/MIN/MAX.
    fn finalize(&self, agg: &AggExpr) -> f64 {
        match agg {
            AggExpr::Sum(_) => self.sum,
            AggExpr::Avg(_) => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum / self.count as f64
                }
            }
            AggExpr::Min(_) => self.min.unwrap_or(0.0),
            AggExpr::Max(_) => self.max.unwrap_or(0.0),
            AggExpr::Count => self.count as f64,
        }
    }
}

/// Fold one surviving row into every accumulator, `weight` times over — the
/// literal semantics of a multiplicity-preserving inner join: the row joins
/// `weight` build tuples, so it is aggregated `weight` times.
fn fold(accs: &mut [RefAcc], aggregates: &[AggExpr], block: &Block, row: usize, weight: u64) {
    for _ in 0..weight {
        for (acc, agg) in accs.iter_mut().zip(aggregates) {
            match agg {
                AggExpr::Count => acc.add_count(),
                AggExpr::Sum(e) | AggExpr::Avg(e) | AggExpr::Min(e) | AggExpr::Max(e) => {
                    acc.add(scalar_at(e, block, row));
                }
            }
        }
    }
}

fn finalize_all(accs: &[RefAcc], aggregates: &[AggExpr]) -> Vec<f64> {
    accs.iter()
        .zip(aggregates)
        .map(|(acc, agg)| acc.finalize(agg))
        .collect()
}

fn source<'a>(
    sources: &'a BTreeMap<String, ScanSource>,
    table: &str,
) -> Result<&'a ScanSource, OlapError> {
    sources.get(table).ok_or_else(|| OlapError::MissingSource {
        table: table.to_string(),
    })
}

/// Materialise a whole relation as blocks, one per segment, in scan order.
fn load(src: &ScanSource, numeric: &[String], keys: &[String]) -> Result<Vec<Block>, OlapError> {
    let mut sorted: Vec<&str> = numeric.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    key_refs.sort_unstable();
    key_refs.dedup();
    let mut blocks = Vec::new();
    src.for_each_block(&sorted, &key_refs, 0, |b| blocks.push(b))?;
    Ok(blocks)
}

/// Columns a predicate list reads.
fn filter_columns(filters: &[Predicate]) -> Vec<String> {
    filters.iter().map(|p| p.column.clone()).collect()
}

/// Columns an aggregate list reads.
fn agg_columns(aggregates: &[AggExpr]) -> Vec<String> {
    aggregates.iter().flat_map(AggExpr::columns).collect()
}

/// The ordered weight map of one build: key tuple → how many surviving
/// build tuples carry it (itself weighted by the build pipeline's own
/// probes, so chained builds multiply through).
type WeightMap = BTreeMap<Vec<i64>, u64>;

/// The join multiplicity of one probe-side row: the product of the matched
/// weights across the pipeline's probe chain (`built` holds each probe's
/// weight map, in probe order), 0 as soon as any probe misses. Every stage
/// the row reaches costs one probe.
fn probe_weight(
    probes: &[Probe],
    built: &[WeightMap],
    block: &Block,
    row: usize,
    work: &mut WorkProfile,
) -> Result<u64, OlapError> {
    let mut w = 1u64;
    for (p, map) in probes.iter().zip(built) {
        work.probes += 1;
        w *= map
            .get(&tuple_at(&p.keys, block, row)?)
            .copied()
            .unwrap_or(0);
        if w == 0 {
            return Ok(0);
        }
    }
    Ok(w)
}

/// Account one pipeline's scan, derived from the source alone (never from
/// morsels): every row of every non-empty segment is a scanned tuple, costs
/// the summed widths of the `columns` the pipeline reads on the segment's
/// socket, and is fresh when the segment is an OLTP snapshot. Returns the
/// pipeline's total bytes (what a broadcast build side is charged).
fn account_scan(src: &ScanSource, columns: &[String], work: &mut WorkProfile) -> u64 {
    let mut columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    columns.sort_unstable();
    columns.dedup();
    let mut total = 0;
    for seg in src.segments.iter().filter(|s| s.row_count() > 0) {
        let schema = seg.table.schema();
        let width: u64 = columns
            .iter()
            .filter_map(|c| schema.column_index(c))
            .map(|i| schema.column(i).dtype.width_bytes())
            .sum();
        *work.bytes_per_socket.entry(seg.socket).or_insert(0) += seg.row_count() * width;
        total += seg.row_count() * width;
    }
    work.tuples_scanned += src.total_rows();
    work.fresh_rows += src.fresh_rows();
    total
}

/// Run the builds `input` probes into their weight maps, in probe order,
/// each after the builds its own pipeline probes.
fn reference_builds(
    input: &Pipeline,
    sources: &BTreeMap<String, ScanSource>,
    near: bool,
    work: &mut WorkProfile,
) -> Result<Vec<WeightMap>, OlapError> {
    input
        .probes
        .iter()
        .map(|probe| {
            let build = &probe.build;
            let built = reference_builds(&build.input, sources, false, work)?;
            let src = source(sources, &build.input.table)?;
            reference_build(src, build, &built, near, work)
        })
        .collect()
}

/// Run one build pipeline into its weight map.
///
/// Build sides are broadcast: the scanned bytes are charged again as build
/// bytes, plus 16 B of hash table per distinct surviving key — on the near
/// fields when the root pipeline probes this build (`near`), else on the
/// far fields.
fn reference_build(
    src: &ScanSource,
    build: &Build,
    built: &[WeightMap],
    near: bool,
    work: &mut WorkProfile,
) -> Result<WeightMap, OlapError> {
    let mut numeric = filter_columns(&build.input.filters);
    let mut keys = Vec::new();
    push_key_columns(&build.keys, &mut keys)?;
    for p in &build.input.probes {
        push_key_columns(&p.keys, &mut keys)?;
    }
    check_box(src, &build.keys)?;
    let mut map = WeightMap::new();
    for block in load(src, &numeric, &keys)? {
        for row in 0..block.rows() {
            if !passes(&build.input.filters, &block, row) {
                continue;
            }
            let w = probe_weight(&build.input.probes, built, &block, row, work)?;
            if w == 0 {
                continue;
            }
            *map.entry(tuple_at(&build.keys, &block, row)?).or_insert(0) += w;
        }
    }
    numeric.extend(keys);
    let bytes = account_scan(src, &numeric, work);
    let table_bytes = map.len() as u64 * 16;
    if near {
        work.build_bytes += bytes;
        work.hash_table_bytes += table_bytes;
    } else {
        work.far_build_bytes += bytes;
        work.far_hash_table_bytes += table_bytes;
    }
    Ok(map)
}

/// Scan the root pipeline into scalar accumulators.
fn reference_scalar_scan(
    src: &ScanSource,
    root: &Pipeline,
    aggregates: &[AggExpr],
    built: &[WeightMap],
    work: &mut WorkProfile,
) -> Result<Vec<f64>, OlapError> {
    let mut numeric = filter_columns(&root.filters);
    numeric.extend(agg_columns(aggregates));
    let mut keys = Vec::new();
    for p in &root.probes {
        push_key_columns(&p.keys, &mut keys)?;
    }
    let mut accs = vec![RefAcc::default(); aggregates.len()];
    for block in load(src, &numeric, &keys)? {
        for row in 0..block.rows() {
            if !passes(&root.filters, &block, row) {
                continue;
            }
            let w = probe_weight(&root.probes, built, &block, row, work)?;
            if w == 0 {
                continue;
            }
            work.tuples_selected += w;
            fold(&mut accs, aggregates, &block, row, w);
        }
    }
    numeric.extend(keys);
    account_scan(src, &numeric, work);
    Ok(finalize_all(&accs, aggregates))
}

/// Scan the root pipeline into groups keyed by `group_by` columns.
fn reference_grouped_scan(
    src: &ScanSource,
    root: &Pipeline,
    group_by: &[String],
    aggregates: &[AggExpr],
    built: &[WeightMap],
    work: &mut WorkProfile,
) -> Result<Vec<GroupRow>, OlapError> {
    let mut numeric = filter_columns(&root.filters);
    numeric.extend(agg_columns(aggregates));
    let mut keys = group_by.to_vec();
    for p in &root.probes {
        push_key_columns(&p.keys, &mut keys)?;
    }
    let mut groups: BTreeMap<Vec<i64>, Vec<RefAcc>> = BTreeMap::new();
    for block in load(src, &numeric, &keys)? {
        let key_columns: Vec<&[i64]> = group_by
            .iter()
            .map(|k| {
                block.key(k).ok_or_else(|| OlapError::MissingColumn {
                    column: k.to_string(),
                })
            })
            .collect::<Result<_, _>>()?;
        for row in 0..block.rows() {
            if !passes(&root.filters, &block, row) {
                continue;
            }
            let w = probe_weight(&root.probes, built, &block, row, work)?;
            if w == 0 {
                continue;
            }
            work.tuples_selected += w;
            let key: Vec<i64> = key_columns.iter().map(|col| col[row]).collect();
            let accs = groups
                .entry(key)
                .or_insert_with(|| vec![RefAcc::default(); aggregates.len()]);
            fold(accs, aggregates, &block, row, w);
        }
    }
    numeric.extend(keys);
    account_scan(src, &numeric, work);
    Ok(groups
        .into_iter()
        .map(|(key, accs)| (key, finalize_all(&accs, aggregates)))
        .collect())
}

/// One finalised-row slot, re-derived (group keys are exact integers far
/// below 2^53).
fn slot_at(row: &GroupRow, slot: RowSlot) -> f64 {
    match slot {
        RowSlot::Key(i) => row.0[i] as f64,
        RowSlot::Agg(i) => row.1[i],
    }
}

/// Apply one finisher over finalised groups: HAVING retains, sorts are
/// total with ties broken by ascending full group key — the same
/// deterministic rule the morsel engine implements, re-derived here.
fn apply_finisher(finisher: &Finisher, rows: &mut Vec<GroupRow>) {
    match finisher {
        Finisher::Having(preds) => rows.retain(|row| {
            preds
                .iter()
                .all(|p| cmp_at(p.op, slot_at(row, p.slot), p.literal))
        }),
        Finisher::Sort(keys) => rows.sort_by(|a, b| {
            for key in keys {
                let (x, y) = (slot_at(a, key.slot), slot_at(b, key.slot));
                let ord = if key.desc {
                    y.total_cmp(&x)
                } else {
                    x.total_cmp(&y)
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.0.cmp(&b.0)
        }),
        Finisher::Limit(n) => rows.truncate(*n),
    }
}

/// Execute `plan` with the row-at-a-time interpreter.
fn execute_plan(
    plan: &QueryPlan,
    sources: &BTreeMap<String, ScanSource>,
) -> Result<QueryOutput, OlapError> {
    let mut work = WorkProfile::default();
    let built = reference_builds(&plan.root, sources, true, &mut work)?;
    let src = source(sources, &plan.root.table)?;
    let result = match &plan.group_by {
        None => QueryResult::Scalars(reference_scalar_scan(
            src,
            &plan.root,
            &plan.aggregates,
            &built,
            &mut work,
        )?),
        Some(group_by) => {
            let mut rows = reference_grouped_scan(
                src,
                &plan.root,
                group_by,
                &plan.aggregates,
                &built,
                &mut work,
            )?;
            for finisher in &plan.finishers {
                apply_finisher(finisher, &mut rows);
            }
            QueryResult::Groups(rows)
        }
    };
    Ok(QueryOutput { result, work })
}

/// Execute `plan` with the naive row-at-a-time interpreter. The plan is
/// shared with the engine; execution is not.
pub fn execute_reference(
    plan: &QueryPlan,
    sources: &BTreeMap<String, ScanSource>,
) -> Result<QueryResult, OlapError> {
    execute_reference_with_work(plan, sources).map(|out| out.result)
}

/// [`execute_reference`] plus the oracle's own [`WorkProfile`]: an exact work
/// account derived from the sources and the surviving rows, never from
/// morsels or the engine's bind-time layouts. The engine's per-worker,
/// per-morsel profile must sum to exactly these integers.
pub fn execute_reference_with_work(
    plan: &QueryPlan,
    sources: &BTreeMap<String, ScanSource>,
) -> Result<QueryOutput, OlapError> {
    execute_plan(plan, sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_sim::SocketId;
    use htap_storage::{ColumnDef, ColumnarTable, DataType, TableSchema, TableSnapshot, Value};
    use std::sync::Arc;

    fn sources() -> BTreeMap<String, ScanSource> {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("g", DataType::I32),
                ColumnDef::new("v", DataType::F64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..100u64 {
            t.append_row(&[
                Value::I64(i as i64),
                Value::I32((i % 4) as i32),
                Value::F64(i as f64 * 0.5),
            ])
            .unwrap();
        }
        let snap = TableSnapshot::new("t".into(), Arc::new(t), 100);
        let mut m = BTreeMap::new();
        m.insert(
            "t".to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
        m
    }

    /// scan(table) → filter → scalar or grouped aggregate.
    fn scan_plan(
        table: &str,
        filters: &[Predicate],
        group_by: Option<Vec<String>>,
        aggregates: Vec<AggExpr>,
    ) -> QueryPlan {
        let pipe = Pipeline::scan(table).filter(filters);
        match group_by {
            None => pipe.aggregate(aggregates).finish(),
            Some(keys) => pipe.group_by(keys, aggregates).finish(),
        }
        .unwrap()
    }

    #[test]
    fn reference_aggregate_matches_hand_computation() {
        let plan = scan_plan(
            "t",
            &[Predicate::new("v", CmpOp::Ge, 10.0)],
            None,
            vec![
                AggExpr::Sum(ScalarExpr::col("v")),
                AggExpr::Count,
                AggExpr::Min(ScalarExpr::col("v")),
                AggExpr::Max(ScalarExpr::col("v")),
            ],
        );
        let out = execute_reference(&plan, &sources()).unwrap();
        let vals = out.scalars().unwrap();
        let expected: Vec<f64> = (0..100u64)
            .map(|i| i as f64 * 0.5)
            .filter(|v| *v >= 10.0)
            .collect();
        assert_eq!(vals[0], expected.iter().sum::<f64>());
        assert_eq!(vals[1], expected.len() as f64);
        assert_eq!(vals[2], 10.0);
        assert_eq!(vals[3], 49.5);
    }

    #[test]
    fn reference_empty_selection_finalises_to_engine_empty_values() {
        let plan = scan_plan(
            "t",
            &[Predicate::new("v", CmpOp::Lt, -1.0)],
            None,
            vec![
                AggExpr::Min(ScalarExpr::col("v")),
                AggExpr::Max(ScalarExpr::col("v")),
                AggExpr::Avg(ScalarExpr::col("v")),
            ],
        );
        let out = execute_reference(&plan, &sources()).unwrap();
        assert_eq!(out.scalars().unwrap(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn reference_group_by_produces_sorted_groups() {
        let plan = scan_plan("t", &[], Some(vec!["g".into()]), vec![AggExpr::Count]);
        let out = execute_reference(&plan, &sources()).unwrap();
        let groups = out.groups().unwrap();
        assert_eq!(groups.len(), 4);
        for (i, (key, aggs)) in groups.iter().enumerate() {
            assert_eq!(key[0], i as i64);
            assert_eq!(aggs[0], 25.0);
        }
    }

    #[test]
    fn reference_missing_source_is_a_typed_error() {
        let plan = scan_plan("nope", &[], None, vec![AggExpr::Count]);
        assert_eq!(
            execute_reference(&plan, &BTreeMap::new()).unwrap_err(),
            OlapError::MissingSource {
                table: "nope".into()
            }
        );
    }

    #[test]
    fn reference_folds_duplicate_build_keys_once_per_matching_tuple() {
        // Self-join t with itself on g: the build side has 25 tuples per
        // distinct g value, so every probe row joins 25 build tuples and
        // COUNT sees 100 * 25 joined tuples.
        let build = Pipeline::scan("t").build(ScalarExpr::col("g"));
        let plan = Pipeline::scan("t")
            .probe(build, ScalarExpr::col("g"))
            .aggregate(vec![AggExpr::Count])
            .finish()
            .unwrap();
        let out = execute_reference_with_work(&plan, &sources()).unwrap();
        assert_eq!(out.result.scalars().unwrap(), &[2500.0]);
        // The work account: both pipelines scan t's 100 rows reading the
        // 4-byte g column; 100 probes; a 4-key build table.
        assert_eq!(out.work.tuples_scanned, 200);
        assert_eq!(out.work.total_bytes(), 2 * 100 * 4);
        assert_eq!(out.work.tuples_selected, 2500);
        assert_eq!((out.work.probes, out.work.build_bytes), (100, 400));
        assert_eq!(out.work.hash_table_bytes, 4 * 16);
    }
}
