//! The planner: bound logical query → physical [`QueryPlan`], the tree of
//! pipelines the engine runs (see `crates/olap/src/plan.rs`), built by value
//! from the far end of the join chain inwards.
//!
//! | bound query | plan |
//! |---|---|
//! | 1 relation | scan → filter → aggregate |
//! | n ≥ 2 relations chained into a path | the far end builds first; every interior relation probes the build beyond it and builds for the relation before it; the fact (a path endpoint) probes the whole cascade → aggregate |
//!
//! A hop of the path is every equi-join condition between one pair of
//! relations, in text order, wherever the text puts it (`ON` or `WHERE`):
//! one condition joins on one key, several on the tuple of their keys
//! (`ol_w_id = o_w_id AND ol_d_id = o_d_id AND ol_o_id = o_id` builds and
//! probes `(w, d, o)`), which the engine folds over the build columns'
//! bounds.
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

use crate::binder::{BoundJoin, BoundOrder, BoundQuery};
use crate::error::SqlError;
use htap_olap::{Pipeline, QueryPlan, RowSlot, ScalarExpr, SortKey};

fn unsupported<T>(what: impl Into<String>, pos: usize) -> Result<T, SqlError> {
    Err(SqlError::Unsupported {
        what: what.into(),
        pos,
    })
}

/// Lower a bound query onto a physical plan.
pub fn lower(bound: &BoundQuery) -> Result<QueryPlan, SqlError> {
    // The relations from the probe side outwards, the `(near, far)` key
    // tuples of every hop between them, and the `(aggregate index, k)` top-k.
    let (order, hops, top_k) = match bound.tables.len() {
        1 => {
            check_single(bound)?;
            (vec![0], Vec::new(), None)
        }
        _ => lower_chain(bound)?,
    };

    // Far end first: order[i] builds keyed on hops[i - 1]'s far key, and
    // order[i - 1] probes that build with hops[i - 1]'s near key.
    let pipeline = |rel: usize| {
        Pipeline::scan(bound.tables[rel].name.clone()).filter(bound.filters[rel].as_slice())
    };
    let mut root = pipeline(order[hops.len()]);
    for (&rel, (near_key, far_key)) in order.iter().zip(hops).rev() {
        root = pipeline(rel).probe(root.build(far_key), near_key);
    }
    // The binder admits HAVING only with a GROUP BY, and a top-k comes only
    // with one (see `lower_chain`).
    let plan = if bound.group_by.is_empty() {
        root.aggregate(bound.aggregates.clone()).finish()
    } else {
        let mut plan = root
            .group_by(bound.group_by.clone(), bound.aggregates.clone())
            .having(bound.having.clone());
        if let Some((agg_index, k)) = top_k {
            plan = plan
                .sort(vec![SortKey {
                    slot: RowSlot::Agg(agg_index),
                    desc: true,
                }])
                .limit(k);
        }
        plan.finish()
    };
    // The binder validated every slot and the planner emits matching key
    // tuples, so a rejection here is a planner bug — still a typed error.
    plan.or_else(|e| {
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
/// `(near, far)` key tuples per hop, and the top-k.
type Chain = (
    Vec<usize>,
    Vec<(Vec<ScalarExpr>, Vec<ScalarExpr>)>,
    Option<(usize, usize)>,
);

/// One hop of a join chain: the equi-join conditions between one pair of
/// relations, their keys in text order on each side.
struct Hop {
    left: usize,
    left_key: Vec<ScalarExpr>,
    right: usize,
    right_key: Vec<ScalarExpr>,
    /// Byte offset of the hop's last condition.
    pos: usize,
}

/// Gather the conditions into hops, one per pair of relations, in the order
/// the pairs first appear.
fn hops(joins: &[BoundJoin]) -> Vec<Hop> {
    let mut hops: Vec<Hop> = Vec::new();
    for join in joins {
        let pair = |h: &Hop| (h.left, h.right);
        let (key, other) = (&join.left_key, &join.right_key);
        match hops
            .iter_mut()
            .find(|h| pair(h) == (join.left, join.right) || pair(h) == (join.right, join.left))
        {
            Some(hop) => {
                let (l, r) = if hop.left == join.left {
                    (key, other)
                } else {
                    (other, key)
                };
                hop.left_key.push(l.clone());
                hop.right_key.push(r.clone());
                hop.pos = join.pos;
            }
            None => hops.push(Hop {
                left: join.left,
                left_key: vec![key.clone()],
                right: join.right,
                right_key: vec![other.clone()],
                pos: join.pos,
            }),
        }
    }
    hops
}

/// Two or more relations: the equi-join conditions must chain them into a
/// path, and the fact must be one of its endpoints.
fn lower_chain(bound: &BoundQuery) -> Result<Chain, SqlError> {
    let n = bound.tables.len();
    let joins = &hops(&bound.joins);
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
            _ => unsupported(
                format!(
                    "join conditions between {} pair(s) of {} relations (a chain joins exactly {})",
                    joins.len(),
                    word(n),
                    word(n - 1)
                ),
                pos,
            ),
        };
    }
    // n - 1 joined pairs over n relations form a path exactly when two
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
    let mut hops: Vec<(Vec<ScalarExpr>, Vec<ScalarExpr>)> = Vec::new();
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
