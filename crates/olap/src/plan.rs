//! The engine's one plan IR: a [`QueryPlan`] is the tree of pipelines it
//! runs, built by value.
//!
//! A query runs as pipelines between breakers, one morsel at a time (see
//! `ARCHITECTURE.md`, "Pipeline-tree plan IR"). The stages:
//!
//! | stage | builder call | role | breaker? |
//! |---|---|---|---|
//! | scan | [`Pipeline::scan`] | morsel source over one relation | no (pipeline head) |
//! | filter | [`Pipeline::filter`] | conjunctive predicates → selection vector | no |
//! | probe | [`Pipeline::probe`] | true inner join: weight-preserving probe of one [`Build`] | no |
//! | build | [`Pipeline::build`] | key (or key tuple) → multiplicity table ([`crate::hashtable::JoinTable`]) | yes (ends a pipeline) |
//! | aggregate | [`Pipeline::aggregate`] | scalar fold | yes (ends the plan) |
//! | group-by | [`Pipeline::group_by`] | grouped fold | yes (ends the plan) |
//! | having / sort / limit | [`GroupedPlan::having`], [`GroupedPlan::sort`], [`GroupedPlan::limit`] | finishers over finalised rows | post-sink |
//!
//! The types enforce the tree: a [`Build`] consumes its pipeline, and
//! [`Pipeline::probe`] takes that build by value, so a build feeds exactly
//! one probe and exists before it is probed; only a pipeline can end the
//! plan, and only a grouped plan offers the finishers. What a tree can
//! still get wrong is checked once, by [`ScalarPlan::finish`] and
//! [`GroupedPlan::finish`] — the only constructors of a [`QueryPlan`]: key
//! arity on each probe, the row slots of the finishers and a sort with no
//! keys. So a plan value is valid by construction: the morsel engine, the
//! row-at-a-time reference oracle and the accounting accessors
//! ([`QueryPlan::tables`], which the scheduler's freshness measure and
//! source wiring read; [`QueryPlan::cpu_ns_per_tuple`], which the cost model
//! reads; [`QueryPlan::accessed_columns`], the column footprint the CH-query
//! tests pin) all walk this one tree.
//!
//! Determinism comes from the pipeline machinery: every pipeline's partials
//! are merged in morsel-index order, build tables union weights
//! (order-insensitive addition), and finishers run over finalised rows with
//! total orders — so results are bit-for-bit identical across worker counts.

use crate::error::OlapError;
use crate::expr::{AggExpr, CmpOp, Predicate, ScalarExpr};
use std::collections::BTreeMap;

/// A slot of one finalised result row: a group-key column or an aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSlot {
    /// Index into the group-by key list.
    Key(usize),
    /// Index into the aggregate list.
    Agg(usize),
}

/// One `HAVING`-style predicate over a finalised row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HavingPred {
    /// The row slot the predicate reads.
    pub slot: RowSlot,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal right-hand side.
    pub literal: f64,
}

/// One sort key over finalised rows. Ties after all sort keys break by
/// ascending full group key, so sorting is a total, deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// The row slot to order by.
    pub slot: RowSlot,
    /// Descending order when set.
    pub desc: bool,
}

/// One streaming pipeline: scan → filters → probes, in execution order.
/// Filters commute with probes over the same rows, so every filter runs
/// before the probes; probe accounting therefore charges one probe per
/// post-filter input row.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    pub(crate) table: String,
    pub(crate) filters: Vec<Predicate>,
    pub(crate) probes: Vec<Probe>,
}

/// A pipeline ended by a hash build over `keys`: one expression, or a tuple
/// of two or more plain integer columns matched element by element (the
/// conjunction of one equality per element).
#[derive(Debug, Clone, PartialEq)]
pub struct Build {
    pub(crate) input: Pipeline,
    pub(crate) keys: Vec<ScalarExpr>,
}

/// One probe stage: the probe-side key (tuple), element for element against
/// the build's, and the build it owns. A true inner join — each surviving
/// row carries the build key's multiplicity, so duplicate build keys
/// contribute every matching tuple.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Probe {
    pub keys: Vec<ScalarExpr>,
    pub build: Build,
}

/// A finisher over finalised result rows, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Finisher {
    Having(Vec<HavingPred>),
    Sort(Vec<SortKey>),
    Limit(usize),
}

impl Pipeline {
    /// A pipeline scanning `table`.
    pub fn scan(table: impl Into<String>) -> Self {
        Pipeline {
            table: table.into(),
            filters: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Add conjunctive filter predicates (none is a no-op).
    pub fn filter(mut self, predicates: impl Into<Vec<Predicate>>) -> Self {
        self.filters.extend(predicates.into());
        self
    }

    /// Probe `build` keyed by `keys`, element for element against the
    /// build's keys.
    pub fn probe(mut self, build: Build, keys: impl Into<Vec<ScalarExpr>>) -> Self {
        self.probes.push(Probe {
            keys: keys.into(),
            build,
        });
        self
    }

    /// End the pipeline in a hash build over `keys`: one expression, or a
    /// tuple of plain integer columns (`vec![w, d, o]`).
    pub fn build(self, keys: impl Into<Vec<ScalarExpr>>) -> Build {
        Build {
            input: self,
            keys: keys.into(),
        }
    }

    /// End the plan in a scalar aggregate: one result row.
    pub fn aggregate(self, aggregates: Vec<AggExpr>) -> ScalarPlan {
        ScalarPlan(QueryPlan {
            root: self,
            group_by: None,
            aggregates,
            finishers: Vec::new(),
        })
    }

    /// End the plan in a grouped aggregate over the `keys` columns (an empty
    /// key list is the degenerate single global group).
    pub fn group_by(self, keys: Vec<String>, aggregates: Vec<AggExpr>) -> GroupedPlan {
        GroupedPlan(QueryPlan {
            root: self,
            group_by: Some(keys),
            aggregates,
            finishers: Vec::new(),
        })
    }
}

/// A plan ended by a scalar aggregate, awaiting [`ScalarPlan::finish`].
#[derive(Debug, Clone)]
pub struct ScalarPlan(QueryPlan);

impl ScalarPlan {
    /// Check the plan (see [`GroupedPlan::finish`]) and return it.
    pub fn finish(self) -> Result<QueryPlan, OlapError> {
        self.0.checked()
    }
}

/// A plan ended by a grouped aggregate: the finishers run over its rows in
/// the order they are added.
#[derive(Debug, Clone)]
pub struct GroupedPlan(QueryPlan);

impl GroupedPlan {
    /// Keep the rows that pass every predicate (the SQL `HAVING` clause;
    /// none is a no-op).
    pub fn having(mut self, predicates: Vec<HavingPred>) -> Self {
        if !predicates.is_empty() {
            self.0.finishers.push(Finisher::Having(predicates));
        }
        self
    }

    /// Sort the rows by `keys`, most significant first.
    pub fn sort(mut self, keys: Vec<SortKey>) -> Self {
        self.0.finishers.push(Finisher::Sort(keys));
        self
    }

    /// Keep the first `rows` rows.
    pub fn limit(mut self, rows: usize) -> Self {
        self.0.finishers.push(Finisher::Limit(rows));
        self
    }

    /// Check what the tree's types cannot and return the plan: every probe
    /// has as many keys as its build, and at least one, else
    /// [`OlapError::InvalidDag`]; a finisher reading a group key the sink
    /// does not have, or a sort with no keys, is [`OlapError::InvalidDag`]
    /// too, and one reading an aggregate it does not compute is
    /// [`OlapError::InvalidTopK`].
    pub fn finish(self) -> Result<QueryPlan, OlapError> {
        self.0.checked()
    }
}

fn invalid(reason: impl Into<String>) -> OlapError {
    OlapError::InvalidDag {
        reason: reason.into(),
    }
}

/// Check the key arity of every probe of `pipe` and of the pipelines it
/// probes.
fn check_keys(pipe: &Pipeline) -> Result<(), OlapError> {
    for probe in &pipe.probes {
        let (probe_keys, build_keys) = (probe.keys.len(), probe.build.keys.len());
        if probe_keys == 0 || probe_keys != build_keys {
            return Err(invalid(format!(
                "{} probes the build over {} with {probe_keys} key(s) against {build_keys}",
                pipe.table, probe.build.input.table
            )));
        }
        check_keys(&probe.build.input)?;
    }
    Ok(())
}

/// Call `f` on every build under `pipe`, nearest first: each probe's build
/// in probe order, followed by the builds its own pipeline probes.
fn visit_builds<'a>(pipe: &'a Pipeline, f: &mut impl FnMut(&'a Build)) {
    for probe in &pipe.probes {
        f(&probe.build);
        visit_builds(&probe.build.input, f);
    }
}

/// A query plan: the root pipeline (whose probes own the builds they
/// probe), its scalar or grouped sink and the finishers over the sink's
/// rows. Built by [`ScalarPlan::finish`] and [`GroupedPlan::finish`] only,
/// so every value of this type executes.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The root (aggregating) pipeline.
    pub(crate) root: Pipeline,
    /// `None` → scalar result; `Some(keys)` → grouped result.
    pub(crate) group_by: Option<Vec<String>>,
    pub(crate) aggregates: Vec<AggExpr>,
    /// Finishers over the finalised rows, in execution order (grouped
    /// plans only).
    pub(crate) finishers: Vec<Finisher>,
}

impl QueryPlan {
    fn checked(self) -> Result<Self, OlapError> {
        let n_keys = self.group_by.as_ref().map_or(0, Vec::len);
        for f in &self.finishers {
            let slots: Vec<RowSlot> = match f {
                Finisher::Having(preds) => preds.iter().map(|p| p.slot).collect(),
                Finisher::Sort(keys) => keys.iter().map(|k| k.slot).collect(),
                Finisher::Limit(_) => Vec::new(),
            };
            for slot in slots {
                match slot {
                    RowSlot::Key(i) if i >= n_keys => {
                        return Err(invalid(format!(
                            "finisher reads group key {i} but the aggregate has {n_keys}"
                        )))
                    }
                    RowSlot::Agg(i) if i >= self.aggregates.len() => {
                        return Err(OlapError::InvalidTopK {
                            agg_index: i,
                            aggregates: self.aggregates.len(),
                        });
                    }
                    _ => {}
                }
            }
            if matches!(f, Finisher::Sort(keys) if keys.is_empty()) {
                return Err(invalid("sort with no keys"));
            }
        }
        check_keys(&self.root)?;
        Ok(self)
    }

    /// A one-line summary of the plan for reports and the SQL shell, e.g.
    /// `scan(orders)→filter→probe×1→group-by→sort→limit`: the root scan,
    /// whether it filters, how many hash builds the query probes through
    /// (directly or chained), the sink, then the finishers in order.
    pub fn label(&self) -> String {
        let mut out = format!("scan({})", self.root.table);
        if !self.root.filters.is_empty() {
            out.push_str("→filter");
        }
        let mut builds = 0;
        visit_builds(&self.root, &mut |_| builds += 1);
        if builds > 0 {
            out.push_str(&format!("→probe×{builds}"));
        }
        out.push_str(if self.group_by.is_some() {
            "→group-by"
        } else {
            "→aggregate"
        });
        for finisher in &self.finishers {
            out.push_str(match finisher {
                Finisher::Having(_) => "→having",
                Finisher::Sort(_) => "→sort",
                Finisher::Limit(_) => "→limit",
            });
        }
        out
    }

    /// The relations the plan scans, deduplicated: the probe (root) side
    /// first, then the builds nearest-first.
    pub fn tables(&self) -> Vec<&str> {
        let mut out = vec![self.root.table.as_str()];
        visit_builds(&self.root, &mut |build| {
            if !out.contains(&build.input.table.as_str()) {
                out.push(&build.input.table);
            }
        });
        out
    }

    /// The columns the plan reads, per relation (its column footprint).
    pub fn accessed_columns(&self) -> BTreeMap<String, Vec<String>> {
        let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut add = |table: &str, cols: Vec<String>| {
            let entry = out.entry(table.to_string()).or_default();
            entry.extend(cols);
            entry.sort();
            entry.dedup();
        };
        let pipeline_cols = |pipe: &Pipeline| {
            let mut cols: Vec<String> = pipe.filters.iter().map(|p| p.column.clone()).collect();
            cols.extend(pipe.probes.iter().flat_map(|p| key_columns(&p.keys)));
            cols
        };
        visit_builds(&self.root, &mut |build| {
            let mut cols = pipeline_cols(&build.input);
            cols.extend(key_columns(&build.keys));
            add(&build.input.table, cols);
        });
        let mut cols = pipeline_cols(&self.root);
        cols.extend(self.aggregates.iter().flat_map(AggExpr::columns));
        if let Some(group_by) = &self.group_by {
            cols.extend(group_by.iter().cloned());
        }
        add(&self.root.table, cols);
        out
    }

    /// Per-tuple CPU cost estimate in nanoseconds, the cost model's CPU
    /// term: joins and grouping pay more per tuple than plain reductions.
    pub fn cpu_ns_per_tuple(&self) -> f64 {
        let mut terms = self.aggregates.len() + self.root.filters.len();
        let mut base = 0.5;
        visit_builds(&self.root, &mut |build| {
            base += 0.7;
            terms += build.input.filters.len();
        });
        if let Some(group_by) = &self.group_by {
            base += 0.5;
            terms += group_by.len();
        }
        base += 0.2 * self.finishers.len() as f64;
        base + 0.4 * terms as f64
    }
}

/// The columns a join key (tuple) reads.
pub(crate) fn key_columns(keys: &[ScalarExpr]) -> Vec<String> {
    keys.iter().flat_map(ScalarExpr::columns).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// orderline ⋈ orders ⋈ customer, far end first (CH-Q3's structure).
    fn chain_plan() -> QueryPlan {
        let far = Pipeline::scan("customer")
            .filter([Predicate::new("c_balance", CmpOp::Lt, 0.0)])
            .build(ScalarExpr::col("c_key"));
        let mid = Pipeline::scan("orders")
            .filter([Predicate::new("o_entry_d", CmpOp::Ge, 0.0)])
            .probe(far, ScalarExpr::col("o_c_key"))
            .build(ScalarExpr::col("o_key"));
        Pipeline::scan("orderline")
            .probe(mid, ScalarExpr::col("ol_o_key"))
            .aggregate(vec![
                AggExpr::Sum(ScalarExpr::col("ol_amount")),
                AggExpr::Count,
            ])
            .finish()
            .unwrap()
    }

    /// orders ⋈ orderline grouped by `o_ol_cnt`, sorted by `sort` and
    /// truncated to `k` rows.
    fn top_k_plan(sort: Vec<SortKey>, k: usize) -> GroupedPlan {
        let dim = Pipeline::scan("orderline")
            .filter([Predicate::new("ol_amount", CmpOp::Ge, 500.0)])
            .build(ScalarExpr::col("ol_o_key"));
        Pipeline::scan("orders")
            .probe(dim, ScalarExpr::col("o_key"))
            .group_by(vec!["o_ol_cnt".into()], vec![AggExpr::Count])
            .sort(sort)
            .limit(k)
    }

    fn by_agg(agg_index: usize) -> Vec<SortKey> {
        vec![SortKey {
            slot: RowSlot::Agg(agg_index),
            desc: true,
        }]
    }

    #[test]
    fn accessed_columns_deduplicate_and_cover_all_clauses() {
        let plan = Pipeline::scan("orderline")
            .filter([Predicate::new("ol_delivery_d", CmpOp::Gt, 10.0)])
            .group_by(
                vec!["ol_number".into()],
                vec![
                    AggExpr::Sum(ScalarExpr::col("ol_amount")),
                    AggExpr::Avg(ScalarExpr::col("ol_amount")),
                    AggExpr::Count,
                ],
            )
            .finish()
            .unwrap();
        assert_eq!(plan.tables(), vec!["orderline"]);
        assert_eq!(plan.label(), "scan(orderline)→filter→group-by");
        assert_eq!(
            plan.accessed_columns()["orderline"],
            ["ol_amount", "ol_delivery_d", "ol_number"]
        );
    }

    #[test]
    fn multi_join_lists_all_three_tables_and_their_columns() {
        let plan = chain_plan();
        assert_eq!(plan.label(), "scan(orderline)→probe×2→aggregate");
        assert_eq!(plan.tables(), vec!["orderline", "orders", "customer"]);
        let cols = plan.accessed_columns();
        // Fact: probe key + aggregate inputs; mid: its own key, filter and
        // the probe key into the far build; far: key + filter only.
        assert_eq!(cols["orderline"], ["ol_amount", "ol_o_key"]);
        assert_eq!(cols["orders"], ["o_c_key", "o_entry_d", "o_key"]);
        assert_eq!(cols["customer"], ["c_balance", "c_key"]);
    }

    #[test]
    fn join_group_by_lists_group_keys_and_both_tables() {
        let plan = top_k_plan(by_agg(0), 5).finish().unwrap();
        assert_eq!(plan.label(), "scan(orders)→probe×1→group-by→sort→limit");
        assert_eq!(plan.tables(), vec!["orders", "orderline"]);
        let cols = plan.accessed_columns();
        assert_eq!(cols["orders"], ["o_key", "o_ol_cnt"]);
        assert_eq!(cols["orderline"], ["ol_amount", "ol_o_key"]);
    }

    #[test]
    fn multi_join_nests_the_far_build_under_the_near_probe() {
        let plan = chain_plan();
        let [near] = &plan.root.probes[..] else {
            panic!("the root probes one build")
        };
        assert_eq!(near.build.input.table, "orders");
        let [far] = &near.build.input.probes[..] else {
            panic!("the near build probes one build")
        };
        assert_eq!(far.build.input.table, "customer");
        assert!(far.build.input.probes.is_empty());
    }

    /// Sort + limit run in the order added; an empty having is dropped.
    #[test]
    fn top_k_lowering_becomes_sort_plus_limit() {
        let plan = top_k_plan(by_agg(0), 3)
            .having(Vec::new())
            .finish()
            .unwrap();
        assert_eq!(
            plan.finishers,
            [Finisher::Sort(by_agg(0)), Finisher::Limit(3)]
        );
    }

    #[test]
    fn invalid_top_k_keeps_the_legacy_typed_error() {
        assert_eq!(
            top_k_plan(by_agg(7), 3).finish().unwrap_err(),
            OlapError::InvalidTopK {
                agg_index: 7,
                aggregates: 1
            }
        );
        let having = HavingPred {
            slot: RowSlot::Agg(1),
            op: CmpOp::Gt,
            literal: 0.0,
        };
        assert_eq!(
            Pipeline::scan("t")
                .group_by(vec!["g".into()], vec![AggExpr::Count])
                .having(vec![having])
                .finish()
                .unwrap_err(),
            OlapError::InvalidTopK {
                agg_index: 1,
                aggregates: 1
            }
        );
    }

    /// The checks a tree of pipelines can still fail are typed errors at
    /// `finish`, so no accessor or executor has an invalid-plan branch.
    #[test]
    fn structural_violations_are_typed_errors() {
        let invalid = |plan: Result<QueryPlan, OlapError>| {
            let err = plan.unwrap_err();
            assert!(matches!(err, OlapError::InvalidDag { .. }), "{err:?}");
        };
        let col = ScalarExpr::col;
        let dim = || Pipeline::scan("d");
        // A probe with no key.
        invalid(
            Pipeline::scan("f")
                .probe(dim().build(col("k")), Vec::new())
                .aggregate(vec![AggExpr::Count])
                .finish(),
        );
        // A probe key tuple wider than its build's, one level down a chain.
        let far = dim().build(col("k"));
        let near = Pipeline::scan("m")
            .probe(far, vec![col("a"), col("b")])
            .build(col("m"));
        invalid(
            Pipeline::scan("f")
                .probe(near, col("fm"))
                .aggregate(vec![AggExpr::Count])
                .finish(),
        );
        // A finisher reading a group key the sink does not have.
        let grouped = || Pipeline::scan("t").group_by(vec!["g".into()], vec![AggExpr::Count]);
        invalid(
            grouped()
                .sort(vec![SortKey {
                    slot: RowSlot::Key(1),
                    desc: false,
                }])
                .finish(),
        );
        // A sort with no keys.
        invalid(grouped().sort(Vec::new()).finish());
    }

    #[test]
    fn plan_cpu_cost_scales_with_joins_and_grouping() {
        let agg = Pipeline::scan("t")
            .aggregate(vec![AggExpr::Count])
            .finish()
            .unwrap()
            .cpu_ns_per_tuple();
        let group = Pipeline::scan("t")
            .group_by(vec!["g".into()], vec![AggExpr::Count])
            .finish()
            .unwrap()
            .cpu_ns_per_tuple();
        let join = top_k_plan(by_agg(0), 1)
            .finish()
            .unwrap()
            .cpu_ns_per_tuple();
        let chain = chain_plan().cpu_ns_per_tuple();
        assert!(agg < group && group < join && join < chain);
    }
}
