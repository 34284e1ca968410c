//! The planner: bound logical query → physical [`QueryPlan`] (an operator
//! DAG, see `crates/olap/src/dag.rs`), emitted through [`DagBuilder`].
//!
//! | bound query | plan |
//! |---|---|
//! | 1 relation | scan → filter → aggregate |
//! | n ≥ 2 relations chained into a path | the far end builds first; every interior relation probes the build beyond it and builds for the relation before it; the fact (a path endpoint) probes the whole cascade → aggregate |
//!
//! The aggregate is grouped exactly when the query has a `GROUP BY` — a
//! scalar query yields one row whatever its join keys look like. `HAVING`
//! conjuncts become a having finisher over the folded group rows, and
//! `ORDER BY aggregate DESC LIMIT k` a sort + limit pair (the engine's
//! deterministic top-k); `ORDER BY` on grouping keys is validated and then
//! dropped — the engine already emits groups in ascending key order.
//!
//! **Join order.** The probe (fact) side must be the relation the aggregates
//! and grouping keys read — the engine folds fact columns only — and a path
//! *endpoint* (the graph, not the text order, determines the roles). When
//! that constraint does not pin a side (`COUNT(*)`-only queries), the
//! catalog cardinalities decide: probe the larger endpoint, build the hash
//! tables from the rest — the classic broadcast-join cost argument. The
//! choice is *pure cost*: the hash probe preserves multiplicities (duplicate
//! build keys contribute every matching tuple, and weights multiply across
//! the hops), so either probe side returns the same inner-join answer and
//! no statistic can change a result.

use crate::binder::{BoundOrder, BoundQuery};
use crate::error::SqlError;
use htap_olap::{DagBuilder, DagOp, QueryPlan, RowSlot, ScalarExpr, SortKey};

fn unsupported<T>(what: impl Into<String>, pos: usize) -> Result<T, SqlError> {
    Err(SqlError::Unsupported {
        what: what.into(),
        pos,
    })
}

/// Lower a bound query onto a physical plan.
pub fn lower(bound: &BoundQuery) -> Result<QueryPlan, SqlError> {
    // The relations from the probe side outwards, the `(near, far)` key pair
    // of every hop between them, and the `(aggregate index, k)` top-k.
    let (order, hops, top_k) = match bound.tables.len() {
        1 => {
            check_single(bound)?;
            (vec![0], Vec::new(), None)
        }
        _ => lower_chain(bound)?,
    };

    // Far end first: order[i] probes order[i+1]'s build with hops[i]'s near
    // key and builds for order[i-1] keyed on hops[i-1]'s far key.
    let mut builder = DagBuilder::default();
    let mut beyond: Option<usize> = None;
    let mut at = 0;
    for (i, &rel) in order.iter().enumerate().rev() {
        let scan = builder.scan(bound.tables[rel].name.clone());
        at = builder.filter(scan, &bound.filters[rel]);
        if let Some(build) = beyond {
            at = builder.probe(at, build, hops[i].0.clone());
        }
        if i > 0 {
            beyond = Some(builder.build(at, hops[i - 1].1.clone()));
        }
    }
    let group_by = (!bound.group_by.is_empty()).then(|| bound.group_by.clone());
    at = builder.aggregate(at, group_by, bound.aggregates.clone());
    if !bound.having.is_empty() {
        at = builder.push(DagOp::Having {
            input: at,
            predicates: bound.having.clone(),
        });
    }
    if let Some((agg_index, k)) = top_k {
        at = builder.push(DagOp::Sort {
            input: at,
            keys: vec![SortKey {
                slot: RowSlot::Agg(agg_index),
                desc: true,
            }],
        });
        builder.push(DagOp::Limit { input: at, rows: k });
    }
    // The binder validated every slot and the loop above emits a tree of
    // pipelines, so a rejection here is a planner bug — still a typed error.
    builder.finish().or_else(|e| {
        unsupported(
            format!("a query the engine cannot plan ({e})"),
            bound.tables[0].pos,
        )
    })
}

/// The top-k clause, if the query ordered by an aggregate: requires a LIMIT;
/// a LIMIT alone (without the ordering) has no physical counterpart.
fn top_k(bound: &BoundQuery) -> Result<Option<(usize, usize)>, SqlError> {
    let agg_order = bound.order_by.iter().find_map(|(o, pos)| match o {
        BoundOrder::Aggregate(i) => Some((*i, *pos)),
        BoundOrder::GroupKey(_) => None,
    });
    match (agg_order, bound.limit) {
        (Some((agg_index, _)), Some((k, _))) => Ok(Some((agg_index, k as usize))),
        (Some((_, pos)), None) => unsupported(
            "ORDER BY an aggregate without a LIMIT (top-k needs a bound)",
            pos,
        ),
        (None, Some((_, pos))) => unsupported(
            "LIMIT without ORDER BY <aggregate> DESC (groups cannot be truncated \
             order-insensitively)",
            pos,
        ),
        (None, None) => Ok(None),
    }
}

/// Reject top-k / LIMIT on queries that produce scalars or plain group runs.
fn reject_top_k(bound: &BoundQuery, shape: &str) -> Result<(), SqlError> {
    if let Some((_, pos)) = bound
        .order_by
        .iter()
        .find(|(o, _)| matches!(o, BoundOrder::Aggregate(_)))
    {
        return unsupported(
            format!("ORDER BY an aggregate on {shape} (top-k needs a join + GROUP BY)"),
            *pos,
        );
    }
    if let Some((_, pos)) = bound.limit {
        return unsupported(format!("LIMIT on {shape}"), pos);
    }
    Ok(())
}

/// The fact (probe-side) relation when the query pins one: the relation the
/// grouping keys come from, else the single relation the aggregate inputs
/// read. `None` means the choice is free (`COUNT(*)`-only) — the caller
/// decides by cardinality alone.
fn pinned_fact(bound: &BoundQuery) -> Result<Option<usize>, SqlError> {
    let agg_pos = bound.agg_pos.first().copied().unwrap_or(0);
    if let Some(t) = bound.group_table {
        if let Some(&other) = bound.agg_tables.iter().find(|&&a| a != t) {
            return unsupported(
                format!(
                    "aggregates over {} with GROUP BY keys from {} (both must come from the \
                     probe side)",
                    bound.tables[other].name, bound.tables[t].name
                ),
                agg_pos,
            );
        }
        return Ok(Some(t));
    }
    let mut agg_tables = bound.agg_tables.iter();
    match (agg_tables.next(), agg_tables.next()) {
        (None, _) => Ok(None),
        (Some(&t), None) => Ok(Some(t)),
        _ => unsupported("aggregates over columns of more than one relation", agg_pos),
    }
}

/// One relation: no joins, and no top-k (there is nothing to bound).
fn check_single(bound: &BoundQuery) -> Result<(), SqlError> {
    if let Some(join) = bound.joins.first() {
        // bind_cmp already rejects same-table column comparisons, so a join
        // over one relation cannot reach here; keep the guard typed anyway.
        return unsupported("a join condition over a single relation", join.pos);
    }
    let shape = if bound.group_by.is_empty() {
        "a scalar aggregate"
    } else {
        "a single-relation GROUP BY"
    };
    reject_top_k(bound, shape)
}

/// The walk of a join chain: relations from the fact outwards, the
/// `(near, far)` key pair per hop, and the top-k.
type Chain = (
    Vec<usize>,
    Vec<(ScalarExpr, ScalarExpr)>,
    Option<(usize, usize)>,
);

/// Two or more relations: the equi-join conditions must chain them into a
/// path, and the fact must be one of its endpoints.
fn lower_chain(bound: &BoundQuery) -> Result<Chain, SqlError> {
    let n = bound.tables.len();
    let joins = &bound.joins;
    if n == 3 && !bound.group_by.is_empty() {
        return unsupported(
            "GROUP BY over a three-relation join (no physical shape)",
            bound.group_pos,
        );
    }
    if joins.len() != n - 1 {
        let pos = joins.last().map_or(bound.tables[n - 1].pos, |j| j.pos);
        let word = |k: usize| match k {
            2 => "two".to_string(),
            3 => "three".to_string(),
            k => k.to_string(),
        };
        return match (n, joins.len()) {
            (2, 0) => unsupported(
                "a cross join (two relations need an equi-join condition)",
                pos,
            ),
            (2, _) => unsupported(
                "more than one join condition between two relations",
                joins[1].pos,
            ),
            _ => unsupported(
                format!(
                    "{} join condition(s) over {} relations (a chain needs exactly {})",
                    joins.len(),
                    word(n),
                    word(n - 1)
                ),
                pos,
            ),
        };
    }
    // n - 1 equi-joins over n relations form a path exactly when two
    // relations appear once (the endpoints) and none more than twice — and
    // the walk below reaches them all.
    let appearances: Vec<usize> = (0..n)
        .map(|i| joins.iter().filter(|j| j.left == i || j.right == i).count())
        .collect();
    let endpoints: Vec<usize> = (0..n).filter(|&i| appearances[i] == 1).collect();
    if endpoints.len() != 2 || appearances.iter().any(|&c| c > 2) {
        let how = if n == 3 {
            "the three relations (one relation is never joined)".to_string()
        } else {
            format!("the {n} relations into a path")
        };
        return unsupported(
            format!("join conditions that do not chain {how}"),
            joins[n - 2].pos,
        );
    }
    let fact = match pinned_fact(bound)? {
        // No physical plan probes the middle of the chain.
        Some(f) if appearances[f] != 1 => {
            return unsupported(
                format!(
                    "aggregates over the middle relation {} of the join chain (the probe side \
                     must be a chain endpoint)",
                    bound.tables[f].name
                ),
                bound.agg_pos.first().copied().unwrap_or(bound.group_pos),
            )
        }
        Some(f) => f,
        // A free choice is pure cost: probe the larger endpoint.
        None if bound.tables[endpoints[0]].rows >= bound.tables[endpoints[1]].rows => endpoints[0],
        None => endpoints[1],
    };
    let top_k = if bound.group_by.is_empty() {
        let shape = match n {
            2 => "a scalar join aggregate",
            3 => "a three-relation join",
            _ => "a scalar chain aggregate",
        };
        reject_top_k(bound, shape)?;
        None
    } else {
        top_k(bound)?
    };

    let mut order = vec![fact];
    let mut hops: Vec<(ScalarExpr, ScalarExpr)> = Vec::new();
    let mut used = vec![false; joins.len()];
    while order.len() < n {
        let end = order[order.len() - 1];
        let next_join =
            (0..joins.len()).find(|&j| !used[j] && (joins[j].left == end || joins[j].right == end));
        let Some(j) = next_join else {
            // Degree constraints hold but the graph still splits (e.g. a
            // two-relation path plus a disjoint cycle of the rest).
            let pos = (0..joins.len())
                .find(|&j| !used[j])
                .map_or(bound.tables[0].pos, |j| joins[j].pos);
            return unsupported(
                "a disconnected join graph (the conditions must chain every relation)",
                pos,
            );
        };
        used[j] = true;
        let join = &joins[j];
        let (next, near_key, far_key) = if join.left == end {
            (join.right, join.left_key.clone(), join.right_key.clone())
        } else {
            (join.left, join.right_key.clone(), join.left_key.clone())
        };
        if order.contains(&next) {
            return unsupported("a cyclic join graph", join.pos);
        }
        order.push(next);
        hops.push((near_key, far_key));
    }
    Ok((order, hops, top_k))
}
