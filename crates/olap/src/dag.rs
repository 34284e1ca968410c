//! The composable vectorized operator DAG — the engine's single plan IR.
//!
//! A [`QueryPlan`] is a DAG of small physical operators ([`DagOp`]) executed
//! by one generic pipeline driver (see `ARCHITECTURE.md`, "Composable
//! operator DAG"). The operators:
//!
//! | operator | role | pipeline breaker? |
//! |---|---|---|
//! | [`DagOp::Scan`] | morsel source over one relation | no (pipeline head) |
//! | [`DagOp::Filter`] | conjunctive predicates → selection vector | no |
//! | [`DagOp::HashBuild`] | key (or key tuple) → multiplicity table ([`crate::hashtable::JoinTable`]) | yes (sink) |
//! | [`DagOp::HashProbe`] | true inner join: weight-preserving probe | no |
//! | [`DagOp::HashAggregate`] | scalar or grouped fold | yes (sink) |
//! | [`DagOp::Having`] | predicate over finalised rows | no (post-sink) |
//! | [`DagOp::Sort`] | deterministic order over finalised rows | yes (post-sink) |
//! | [`DagOp::Limit`] | row-count truncation | no (post-sink) |
//!
//! A valid DAG is a *tree of pipelines*: every pipeline starts at a scan,
//! streams through filters and probes, and ends in a pipeline breaker — a
//! hash build feeding exactly one probe, or the single hash aggregate. Above the aggregate only the finisher operators (having,
//! sort, limit) may appear. [`DagBuilder::finish`] — the only way to obtain
//! a [`QueryPlan`] — checks these rules once and keeps the flattened
//! [`DagSpec`] beside the op list, so a plan value is valid by construction:
//! the morsel engine, the row-at-a-time reference oracle and the accounting
//! accessors ([`QueryPlan::tables`], which the scheduler's freshness measure
//! and source wiring read; [`QueryPlan::cpu_ns_per_tuple`], which the cost
//! model reads; [`QueryPlan::accessed_columns`], the column footprint the
//! CH-query tests pin) all read that one spec and none of them can meet an
//! invalid DAG.
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

/// One operator of a [`QueryPlan`]. Operands reference earlier operators by
/// index (the op list is topologically ordered; the last op is the root).
#[derive(Debug, Clone, PartialEq)]
pub enum DagOp {
    /// Morsel source over one relation.
    Scan {
        /// The scanned relation.
        table: String,
    },
    /// Conjunctive filter predicates.
    Filter {
        /// Upstream operator.
        input: usize,
        /// Predicates, all of which a row must pass.
        predicates: Vec<Predicate>,
    },
    /// Build the multiplicity-preserving join table over `keys`.
    HashBuild {
        /// Upstream operator.
        input: usize,
        /// The join key over the build rows: one expression, or a tuple of
        /// two or more plain integer columns matched element by element
        /// (the conjunction of one equality per element).
        keys: Vec<ScalarExpr>,
    },
    /// Probe a [`DagOp::HashBuild`]: a true inner join — each surviving row
    /// carries the build key's multiplicity, so duplicate build keys
    /// contribute every matching tuple.
    HashProbe {
        /// Upstream (probe-side) operator.
        input: usize,
        /// The `HashBuild` op probed.
        build: usize,
        /// The join key over the probe rows, element for element against
        /// the build's `keys`.
        keys: Vec<ScalarExpr>,
    },
    /// The aggregation sink: scalar (`group_by: None`) or grouped.
    HashAggregate {
        /// Upstream operator.
        input: usize,
        /// `None` → one scalar row; `Some(keys)` → grouped result (an empty
        /// key list is the degenerate single global group).
        group_by: Option<Vec<String>>,
        /// Aggregates to compute.
        aggregates: Vec<AggExpr>,
    },
    /// Filter finalised rows (the SQL `HAVING` clause).
    Having {
        /// Upstream operator (at or above the aggregate).
        input: usize,
        /// Predicates over row slots.
        predicates: Vec<HavingPred>,
    },
    /// Sort finalised rows.
    Sort {
        /// Upstream operator (at or above the aggregate).
        input: usize,
        /// Sort keys, most significant first.
        keys: Vec<SortKey>,
    },
    /// Keep the first `rows` finalised rows.
    Limit {
        /// Upstream operator (at or above the aggregate).
        input: usize,
        /// Rows to keep.
        rows: usize,
    },
}

impl DagOp {
    /// The upstream data input, if the op has one.
    fn input(&self) -> Option<usize> {
        match self {
            DagOp::Scan { .. } => None,
            DagOp::Filter { input, .. }
            | DagOp::HashBuild { input, .. }
            | DagOp::HashProbe { input, .. }
            | DagOp::HashAggregate { input, .. }
            | DagOp::Having { input, .. }
            | DagOp::Sort { input, .. }
            | DagOp::Limit { input, .. } => Some(*input),
        }
    }
}

/// A query plan: a validated operator DAG (see the module docs for the
/// structural rules) together with its flattened executable form. Built by
/// [`DagBuilder::finish`] only, so every value of this type executes.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Operators in topological order; the last one is the root.
    ops: Vec<DagOp>,
    /// `ops`, validated and flattened — computed once, at construction.
    spec: DagSpec,
}

/// Plans are equal when their operator lists are (the spec is derived).
impl PartialEq for QueryPlan {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
    }
}

// ---------------------------------------------------------------------------
// The decomposed, executable form.
// ---------------------------------------------------------------------------

/// One probe stage of a pipeline: key (tuple) plus the index of the
/// [`BuildSpec`] it probes (into [`DagSpec::builds`]).
#[derive(Debug, Clone)]
pub(crate) struct ProbeSpec {
    pub keys: Vec<ScalarExpr>,
    pub build: usize,
}

/// One streaming pipeline: scan → filters → probes (in execution order).
/// Filters commute with probes over the same rows, so decompose pushes every
/// filter below the probes; probe accounting therefore charges one probe per
/// post-filter input row.
#[derive(Debug, Clone)]
pub(crate) struct PipelineSpec {
    pub table: String,
    pub filters: Vec<Predicate>,
    pub probes: Vec<ProbeSpec>,
}

/// A pipeline terminated by a hash build.
#[derive(Debug, Clone)]
pub(crate) struct BuildSpec {
    pub input: PipelineSpec,
    pub keys: Vec<ScalarExpr>,
    /// Whether the *root* pipeline probes this build — those builds are
    /// charged to `build_bytes`/`hash_table_bytes`, deeper ones to the
    /// `far_*` fields.
    pub feeds_root: bool,
}

/// A finisher over finalised result rows, in execution order.
#[derive(Debug, Clone)]
pub(crate) enum Finisher {
    Having(Vec<HavingPred>),
    Sort(Vec<SortKey>),
    Limit(usize),
}

/// The flattened, validated form of a [`QueryPlan`]'s op list.
#[derive(Debug, Clone)]
pub(crate) struct DagSpec {
    /// Build pipelines in dependency order (a build's probes reference
    /// strictly earlier entries).
    pub builds: Vec<BuildSpec>,
    /// The root (aggregating) pipeline.
    pub root: PipelineSpec,
    /// `None` → scalar result; `Some(keys)` → grouped result.
    pub group_by: Option<Vec<String>>,
    pub aggregates: Vec<AggExpr>,
    /// Finishers over the finalised rows, in execution order.
    pub finishers: Vec<Finisher>,
}

fn invalid(reason: impl Into<String>) -> OlapError {
    OlapError::InvalidDag {
        reason: reason.into(),
    }
}

/// Validate the DAG's structural rules and flatten it into the
/// executable [`DagSpec`].
fn decompose(ops: &[DagOp]) -> Result<DagSpec, OlapError> {
    if ops.is_empty() {
        return Err(invalid("the op list is empty"));
    }
    // Topological references, and every non-root op consumed exactly once.
    let mut consumers = vec![0usize; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        let mut consume = |j: usize| -> Result<(), OlapError> {
            if j >= i {
                return Err(invalid(format!(
                    "op {i} references op {j}, which does not precede it"
                )));
            }
            consumers[j] += 1;
            Ok(())
        };
        if let Some(input) = op.input() {
            consume(input)?;
        }
        if let DagOp::HashProbe { build, .. } = op {
            consume(*build)?;
        }
    }
    let root = ops.len() - 1;
    for (i, &n) in consumers.iter().enumerate() {
        if i == root && n != 0 {
            return Err(invalid(format!(
                "the root op {i} is consumed by another op"
            )));
        }
        if i != root && n != 1 {
            return Err(invalid(format!(
                "op {i} is consumed {n} times (every operator feeds exactly one consumer)"
            )));
        }
    }

    // Finisher chain: root → … → the single HashAggregate.
    let mut finishers_top_down: Vec<Finisher> = Vec::new();
    let mut at = root;
    let agg_idx = loop {
        match &ops[at] {
            DagOp::Having { input, predicates } => {
                finishers_top_down.push(Finisher::Having(predicates.clone()));
                at = *input;
            }
            DagOp::Sort { input, keys } => {
                finishers_top_down.push(Finisher::Sort(keys.clone()));
                at = *input;
            }
            DagOp::Limit { input, rows } => {
                finishers_top_down.push(Finisher::Limit(*rows));
                at = *input;
            }
            DagOp::HashAggregate { .. } => break at,
            other => {
                return Err(invalid(format!(
                    "op {at} ({}) cannot produce the result (the root chain must be \
                     finishers over one hash aggregate)",
                    op_name(other)
                )))
            }
        }
    };
    finishers_top_down.reverse();
    let finishers = finishers_top_down;
    let DagOp::HashAggregate {
        input,
        group_by,
        aggregates,
    } = &ops[agg_idx]
    else {
        // The loop above only breaks on HashAggregate.
        return Err(invalid("unreachable: non-aggregate sink"));
    };

    // Validate finisher row slots against the aggregate's arity.
    let n_keys = group_by.as_ref().map_or(0, Vec::len);
    for f in &finishers {
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
                RowSlot::Agg(i) if i >= aggregates.len() => {
                    return Err(OlapError::InvalidTopK {
                        agg_index: i,
                        aggregates: aggregates.len(),
                    });
                }
                _ => {}
            }
        }
        if matches!(f, Finisher::Sort(keys) if keys.is_empty()) {
            return Err(invalid("sort with no keys"));
        }
    }
    if group_by.is_none() && !finishers.is_empty() {
        return Err(invalid(
            "finishers over a scalar aggregate (having/sort/limit need rows)",
        ));
    }

    // Root pipeline, then the build pipelines it (transitively) probes.
    let mut builds: Vec<BuildSpec> = Vec::new();
    let root_pipe = walk_pipeline(ops, *input, &mut builds, true)?;
    Ok(DagSpec {
        builds,
        root: root_pipe,
        group_by: group_by.clone(),
        aggregates: aggregates.clone(),
        finishers,
    })
}

/// Walk one pipeline from its top op down to its scan, recursing into
/// the build side of every probe (builds land in `builds` in dependency
/// order).
fn walk_pipeline(
    ops: &[DagOp],
    top: usize,
    builds: &mut Vec<BuildSpec>,
    feeds_root: bool,
) -> Result<PipelineSpec, OlapError> {
    let (mut filters, mut probes) = (Vec::new(), Vec::new());
    let mut at = top;
    let table = loop {
        match &ops[at] {
            DagOp::Scan { table } => break table.clone(),
            DagOp::Filter { input, predicates } => {
                filters.extend(predicates.iter().cloned());
                at = *input;
            }
            DagOp::HashProbe { input, build, keys } => {
                let DagOp::HashBuild {
                    input: build_input,
                    keys: build_keys,
                } = &ops[*build]
                else {
                    return Err(invalid(format!(
                        "op {at} probes op {build}, which is not a hash build",
                    )));
                };
                if keys.is_empty() || keys.len() != build_keys.len() {
                    return Err(invalid(format!(
                        "op {at} probes op {build} with {} key(s) against {}",
                        keys.len(),
                        build_keys.len()
                    )));
                }
                let build_walk = walk_pipeline(ops, *build_input, builds, false)?;
                let build_idx = builds.len();
                builds.push(BuildSpec {
                    input: build_walk,
                    keys: build_keys.clone(),
                    feeds_root,
                });
                probes.push(ProbeSpec {
                    keys: keys.clone(),
                    build: build_idx,
                });
                at = *input;
            }
            other => {
                return Err(invalid(format!(
                    "op {at} ({}) cannot appear inside a streaming pipeline",
                    op_name(other)
                )))
            }
        }
    };
    // Probes were collected top-down; execution order is bottom-up.
    probes.reverse();
    Ok(PipelineSpec {
        table,
        filters,
        probes,
    })
}

impl QueryPlan {
    /// The operators, in topological order (the last one is the root).
    pub fn ops(&self) -> &[DagOp] {
        &self.ops
    }

    /// The validated, flattened form every executor runs.
    pub(crate) fn spec(&self) -> &DagSpec {
        &self.spec
    }

    /// A one-line summary of the plan for reports and the SQL shell, e.g.
    /// `scan(orders)→filter→probe×1→group-by→sort→limit`: the root scan,
    /// whether it filters, how many hash builds the query probes through
    /// (directly or chained), the sink, then the finishers in order.
    pub fn label(&self) -> String {
        let spec = &self.spec;
        let mut out = format!("scan({})", spec.root.table);
        if !spec.root.filters.is_empty() {
            out.push_str("→filter");
        }
        if !spec.builds.is_empty() {
            out.push_str(&format!("→probe×{}", spec.builds.len()));
        }
        out.push_str(if spec.group_by.is_some() {
            "→group-by"
        } else {
            "→aggregate"
        });
        for finisher in &spec.finishers {
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
        let mut out = vec![self.spec.root.table.as_str()];
        for build in self.spec.builds.iter().rev() {
            if !out.contains(&build.input.table.as_str()) {
                out.push(&build.input.table);
            }
        }
        out
    }

    /// The columns the plan reads, per relation (its column footprint).
    pub fn accessed_columns(&self) -> BTreeMap<String, Vec<String>> {
        let spec = &self.spec;
        let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut add = |table: &str, cols: Vec<String>| {
            let entry = out.entry(table.to_string()).or_default();
            entry.extend(cols);
            entry.sort();
            entry.dedup();
        };
        let pipeline_cols = |pipe: &PipelineSpec| {
            let mut cols: Vec<String> = pipe.filters.iter().map(|p| p.column.clone()).collect();
            cols.extend(pipe.probes.iter().flat_map(|p| key_columns(&p.keys)));
            cols
        };
        for build in &spec.builds {
            let mut cols = pipeline_cols(&build.input);
            cols.extend(key_columns(&build.keys));
            add(&build.input.table, cols);
        }
        let mut cols = pipeline_cols(&spec.root);
        cols.extend(spec.aggregates.iter().flat_map(AggExpr::columns));
        if let Some(group_by) = &spec.group_by {
            cols.extend(group_by.iter().cloned());
        }
        add(&spec.root.table, cols);
        out
    }

    /// Per-tuple CPU cost estimate in nanoseconds, the cost model's CPU
    /// term: joins and grouping pay more per tuple than plain reductions.
    pub fn cpu_ns_per_tuple(&self) -> f64 {
        let spec = &self.spec;
        let mut terms = spec.aggregates.len() + spec.root.filters.len();
        let mut base = 0.5;
        for build in &spec.builds {
            base += 0.7;
            terms += build.input.filters.len();
        }
        if let Some(group_by) = &spec.group_by {
            base += 0.5;
            terms += group_by.len();
        }
        base += 0.2 * spec.finishers.len() as f64;
        base + 0.4 * terms as f64
    }
}

/// The columns a join key (tuple) reads.
pub(crate) fn key_columns(keys: &[ScalarExpr]) -> Vec<String> {
    keys.iter().flat_map(ScalarExpr::columns).collect()
}

fn op_name(op: &DagOp) -> &'static str {
    match op {
        DagOp::Scan { .. } => "scan",
        DagOp::Filter { .. } => "filter",
        DagOp::HashBuild { .. } => "hash-build",
        DagOp::HashProbe { .. } => "hash-probe",
        DagOp::HashAggregate { .. } => "hash-aggregate",
        DagOp::Having { .. } => "having",
        DagOp::Sort { .. } => "sort",
        DagOp::Limit { .. } => "limit",
    }
}

/// A small append-only builder for DAGs: each method pushes one op and
/// returns its index.
#[derive(Debug, Default)]
pub struct DagBuilder {
    ops: Vec<DagOp>,
}

impl DagBuilder {
    /// Push any op, returning its index.
    pub fn push(&mut self, op: DagOp) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Push a scan of `table`.
    pub fn scan(&mut self, table: impl Into<String>) -> usize {
        self.push(DagOp::Scan {
            table: table.into(),
        })
    }

    /// Push a filter unless `predicates` is empty (an empty filter is a
    /// no-op the DAG need not carry).
    pub fn filter(&mut self, input: usize, predicates: &[Predicate]) -> usize {
        if predicates.is_empty() {
            return input;
        }
        self.push(DagOp::Filter {
            input,
            predicates: predicates.to_vec(),
        })
    }

    /// Push a hash build over `keys`: one expression, or a tuple of plain
    /// integer columns (`vec![w, d, o]`).
    pub fn build(&mut self, input: usize, keys: impl Into<Vec<ScalarExpr>>) -> usize {
        self.push(DagOp::HashBuild {
            input,
            keys: keys.into(),
        })
    }

    /// Push a probe of `build` keyed by `keys`, element for element against
    /// the build's.
    pub fn probe(&mut self, input: usize, build: usize, keys: impl Into<Vec<ScalarExpr>>) -> usize {
        self.push(DagOp::HashProbe {
            input,
            build,
            keys: keys.into(),
        })
    }

    /// Push the aggregation sink.
    pub fn aggregate(
        &mut self,
        input: usize,
        group_by: Option<Vec<String>>,
        aggregates: Vec<AggExpr>,
    ) -> usize {
        self.push(DagOp::HashAggregate {
            input,
            group_by,
            aggregates,
        })
    }

    /// Validate the op list and flatten it, once: the only constructor of
    /// [`QueryPlan`]. An op list that breaks a structural rule is an
    /// [`OlapError::InvalidDag`] (or [`OlapError::InvalidTopK`] for a
    /// finisher reading an aggregate the sink does not compute) here, so no
    /// invalid plan value can exist downstream.
    pub fn finish(self) -> Result<QueryPlan, OlapError> {
        let spec = decompose(&self.ops)?;
        Ok(QueryPlan {
            ops: self.ops,
            spec,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// scan(table) → filter → [probe each `(build, key)`] → aggregate.
    fn pipeline(
        b: &mut DagBuilder,
        table: &str,
        filters: &[Predicate],
        probes: &[(usize, &str)],
    ) -> usize {
        let scan = b.scan(table);
        let mut at = b.filter(scan, filters);
        for (build, key) in probes {
            at = b.probe(at, *build, ScalarExpr::col(*key));
        }
        at
    }

    /// orderline ⋈ orders ⋈ customer, far end first (CH-Q3's structure).
    fn chain_plan() -> QueryPlan {
        let mut b = DagBuilder::default();
        let far = pipeline(
            &mut b,
            "customer",
            &[Predicate::new("c_balance", CmpOp::Lt, 0.0)],
            &[],
        );
        let far = b.build(far, ScalarExpr::col("c_key"));
        let mid = pipeline(
            &mut b,
            "orders",
            &[Predicate::new("o_entry_d", CmpOp::Ge, 0.0)],
            &[(far, "o_c_key")],
        );
        let mid = b.build(mid, ScalarExpr::col("o_key"));
        let fact = pipeline(&mut b, "orderline", &[], &[(mid, "ol_o_key")]);
        b.aggregate(
            fact,
            None,
            vec![AggExpr::Sum(ScalarExpr::col("ol_amount")), AggExpr::Count],
        );
        b.finish().unwrap()
    }

    /// orders ⋈ orderline grouped by `o_ol_cnt`, top `k` by `agg_index`.
    fn top_k_builder(agg_index: usize, k: usize) -> DagBuilder {
        let mut b = DagBuilder::default();
        let dim = pipeline(
            &mut b,
            "orderline",
            &[Predicate::new("ol_amount", CmpOp::Ge, 500.0)],
            &[],
        );
        let dim = b.build(dim, ScalarExpr::col("ol_o_key"));
        let fact = pipeline(&mut b, "orders", &[], &[(dim, "o_key")]);
        let agg = b.aggregate(fact, Some(vec!["o_ol_cnt".into()]), vec![AggExpr::Count]);
        let sorted = b.push(DagOp::Sort {
            input: agg,
            keys: vec![SortKey {
                slot: RowSlot::Agg(agg_index),
                desc: true,
            }],
        });
        b.push(DagOp::Limit {
            input: sorted,
            rows: k,
        });
        b
    }

    #[test]
    fn accessed_columns_deduplicate_and_cover_all_clauses() {
        let mut b = DagBuilder::default();
        let at = pipeline(
            &mut b,
            "orderline",
            &[Predicate::new("ol_delivery_d", CmpOp::Gt, 10.0)],
            &[],
        );
        b.aggregate(
            at,
            Some(vec!["ol_number".into()]),
            vec![
                AggExpr::Sum(ScalarExpr::col("ol_amount")),
                AggExpr::Avg(ScalarExpr::col("ol_amount")),
                AggExpr::Count,
            ],
        );
        let plan = b.finish().unwrap();
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
        let plan = top_k_builder(0, 5).finish().unwrap();
        assert_eq!(plan.label(), "scan(orders)→probe×1→group-by→sort→limit");
        assert_eq!(plan.tables(), vec!["orders", "orderline"]);
        let cols = plan.accessed_columns();
        assert_eq!(cols["orders"], ["o_key", "o_ol_cnt"]);
        assert_eq!(cols["orderline"], ["ol_amount", "ol_o_key"]);
    }

    #[test]
    fn multi_join_lowering_orders_builds_dependency_first() {
        let plan = chain_plan();
        let spec = plan.spec();
        assert_eq!(spec.builds.len(), 2);
        assert_eq!(spec.builds[0].input.table, "customer");
        assert!(!spec.builds[0].feeds_root);
        assert_eq!(spec.builds[1].input.table, "orders");
        assert!(spec.builds[1].feeds_root);
        assert_eq!(spec.builds[1].input.probes.len(), 1);
        assert_eq!(spec.builds[1].input.probes[0].build, 0);
        assert_eq!(spec.root.probes.len(), 1);
        assert_eq!(spec.root.probes[0].build, 1);
    }

    #[test]
    fn top_k_lowering_becomes_sort_plus_limit() {
        let plan = top_k_builder(0, 3).finish().unwrap();
        let finishers = &plan.spec().finishers;
        assert_eq!(finishers.len(), 2);
        assert!(matches!(&finishers[0], Finisher::Sort(keys)
                if keys == &[SortKey { slot: RowSlot::Agg(0), desc: true }]));
        assert!(matches!(finishers[1], Finisher::Limit(3)));
    }

    #[test]
    fn invalid_top_k_keeps_the_legacy_typed_error() {
        assert_eq!(
            top_k_builder(7, 3).finish().unwrap_err(),
            OlapError::InvalidTopK {
                agg_index: 7,
                aggregates: 1
            }
        );
    }

    /// The constructor is the validation: an op list that breaks a
    /// structural rule never becomes a `QueryPlan`, so no accessor or
    /// executor has an invalid-DAG branch.
    #[test]
    fn structural_violations_are_typed_errors() {
        let invalid = |b: DagBuilder| {
            assert!(matches!(
                b.finish().unwrap_err(),
                OlapError::InvalidDag { .. }
            ))
        };
        // Empty DAG.
        invalid(DagBuilder::default());
        // A scan consumed twice.
        let mut b = DagBuilder::default();
        let s = b.scan("t");
        let f = b.filter(s, &[Predicate::new("a", CmpOp::Lt, 1.0)]);
        b.probe(f, s, ScalarExpr::col("k"));
        invalid(b);
        // No aggregate sink at the root.
        let mut b = DagBuilder::default();
        let s = b.scan("t");
        b.filter(s, &[Predicate::new("a", CmpOp::Lt, 1.0)]);
        invalid(b);
        // Finishers over a scalar aggregate.
        let mut b = DagBuilder::default();
        let s = b.scan("t");
        let a = b.aggregate(s, None, vec![AggExpr::Count]);
        b.push(DagOp::Limit { input: a, rows: 1 });
        invalid(b);
        // A probe into a non-build operator.
        let mut b = DagBuilder::default();
        let s1 = b.scan("d");
        let f1 = b.filter(s1, &[Predicate::new("a", CmpOp::Lt, 1.0)]);
        let s2 = b.scan("f");
        let p = b.probe(s2, f1, ScalarExpr::col("k"));
        b.aggregate(p, None, vec![AggExpr::Count]);
        invalid(b);
    }

    #[test]
    fn dag_cpu_cost_scales_with_joins_and_grouping_like_the_legacy_shapes() {
        let scalar = |group_by: Option<Vec<String>>| {
            let mut b = DagBuilder::default();
            let s = b.scan("t");
            b.aggregate(s, group_by, vec![AggExpr::Count]);
            b.finish().unwrap().cpu_ns_per_tuple()
        };
        let (agg, group) = (scalar(None), scalar(Some(vec!["g".into()])));
        let join = top_k_builder(0, 1).finish().unwrap().cpu_ns_per_tuple();
        let chain = chain_plan().cpu_ns_per_tuple();
        assert!(agg < group && group < join && join < chain);
    }
}
