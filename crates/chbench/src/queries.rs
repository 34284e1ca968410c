//! The analytical queries of the CH-benCHmark workload, defined once, as SQL
//! text ([`QueryId::sql`]) compiled through the SQL frontend against the CH
//! catalog ([`QueryId::plan`]).
//!
//! The paper's evaluation (§5.3) uses CH-Q1, CH-Q6 and CH-Q19; this module
//! additionally implements Q3, Q4, Q12 and Q14 to widen the analytical mix
//! the adaptive scheduler is exercised with (different plans touch different
//! relation sets, which stresses different freshness/cost trade-offs).
//!
//! Adaptation rules, following the paper: date conditions use 100 %
//! selectivity (the worst case for join and group-by operators), `LIKE` and
//! other string conditions are removed because the engine's schema is
//! integer/float only (Q19's `LIKE` is dropped exactly as in the paper; Q3's
//! `c_state LIKE` becomes a balance predicate, Q14's `i_data LIKE 'PR%'`
//! becomes an `i_im_id` range through the catalog's LIKE rewrite). Composite
//! TPC-C keys are joined on their column tuples, as the CH-benCHmark text
//! joins them: `orderline` matches `orders` on `ol_w_id = o_w_id AND
//! ol_d_id = o_d_id AND ol_o_id = o_id`, which the engine folds into one
//! exact key over the columns' value bounds. The encoded key columns of
//! [`crate::schema::keys`] (`o_key`, `c_key`...) serve the OLTP indexes
//! only.

use crate::transactions::DELIVERY_DATE_BASE;
use htap_olap::QueryPlan;

/// Identifier of a CH-benCHmark analytical query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryId {
    /// CH-Q1: scan–filter–group-by over `orderline`.
    Q1,
    /// CH-Q3: `orderline` ⋈ `orders` ⋈ `customer` chain join with revenue
    /// aggregation.
    Q3,
    /// CH-Q4: `orders` ⋈ `orderline` semijoin, grouped by `o_ol_cnt`, top-5
    /// groups by count.
    Q4,
    /// CH-Q6: scan–filter–reduce over `orderline`.
    Q6,
    /// CH-Q12: `orders` ⋈ `orderline`, grouped by `o_carrier_id`.
    Q12,
    /// CH-Q14: `orderline` ⋈ `item` promotion-revenue join.
    Q14,
    /// CH-Q19: `orderline` ⋈ `item` with aggregation.
    Q19,
}

impl QueryId {
    /// The plan for this query: [`QueryId::sql`] compiled through the SQL
    /// frontend against the CH catalog — the path `execute_sql` takes.
    pub fn plan(self) -> Result<QueryPlan, htap_sql::SqlError> {
        htap_sql::plan(&self.sql(), &crate::catalog::catalog())
    }

    /// Short label ("Q1", "Q3", ..., "Q19").
    pub fn label(self) -> &'static str {
        match self {
            QueryId::Q1 => "Q1",
            QueryId::Q3 => "Q3",
            QueryId::Q4 => "Q4",
            QueryId::Q6 => "Q6",
            QueryId::Q12 => "Q12",
            QueryId::Q14 => "Q14",
            QueryId::Q19 => "Q19",
        }
    }

    /// The query as SQL text.
    pub fn sql(self) -> String {
        match self {
            // Pricing summary report: group order lines by `ol_number` and
            // report quantity/amount sums, averages and counts. The grouping
            // and aggregation stress CPU caches (§5.3).
            QueryId::Q1 => "SELECT ol_number, SUM(ol_quantity), SUM(ol_amount), \
                 AVG(ol_quantity), AVG(ol_amount), COUNT(*) \
                 FROM orderline WHERE ol_delivery_d >= 0 \
                 GROUP BY ol_number ORDER BY ol_number"
                .into(),
            // Unshipped-order revenue: the three-table chain is the widest
            // freshness footprint in the mix — it reads fact *and* two
            // dimensions that both receive OLTP writes (NewOrder inserts
            // orders, Payment/Delivery update customers). Customers load
            // with negative balances and deliveries push them positive, so
            // the balance predicate's selectivity drifts as the
            // transactional mix runs.
            QueryId::Q3 => "SELECT SUM(ol_amount), COUNT(*) FROM orderline \
                 JOIN orders ON ol_w_id = o_w_id AND ol_d_id = o_d_id AND ol_o_id = o_id \
                 JOIN customer ON o_w_id = c_w_id AND o_d_id = c_d_id AND o_c_id = c_id \
                 WHERE ol_delivery_d >= 0 AND o_entry_d >= 0 AND c_balance < 0"
                .into(),
            // Order-priority checking, adapted: count orders against their
            // significant (`ol_amount ≥ 500`) order lines, grouped by
            // `o_ol_cnt`, keeping the five most frequent line counts.
            QueryId::Q4 => "SELECT o_ol_cnt, COUNT(*) FROM orders \
                 JOIN orderline ON o_w_id = ol_w_id AND o_d_id = ol_d_id AND o_id = ol_o_id \
                 WHERE o_entry_d >= 0 AND ol_amount >= 500 \
                 GROUP BY o_ol_cnt ORDER BY COUNT(*) DESC LIMIT 5"
                .into(),
            // Revenue forecast: a single filtered aggregate, memory-bandwidth
            // bound (§5.3); `ol_quantity` between 1 and 100000 per the
            // CH-benCHmark text.
            QueryId::Q6 => "SELECT SUM(ol_amount * ol_quantity) FROM orderline \
                 WHERE ol_delivery_d >= 0 AND ol_quantity >= 1"
                .into(),
            // Shipping-mode / priority distribution, adapted: join `orders`
            // with their delivered lines and group by `o_carrier_id`
            // (NewOrder inserts carrier 0, Delivery stamps a real carrier).
            // Entry dates stay strictly below DELIVERY_DATE_BASE, so the
            // filter selects exactly the lines Delivery has stamped: the
            // histogram is empty until deliveries run and grows with them.
            QueryId::Q12 => format!(
                "SELECT o_carrier_id, COUNT(*), SUM(o_ol_cnt) FROM orders \
                 JOIN orderline ON o_w_id = ol_w_id AND o_d_id = ol_d_id AND o_id = ol_o_id \
                 WHERE ol_delivery_d >= {DELIVERY_DATE_BASE} \
                 GROUP BY o_carrier_id ORDER BY o_carrier_id"
            ),
            // Promotion-effect revenue: `i_data LIKE 'PR%'` is rewritten by
            // the catalog to `i_im_id < 5000` (about half the catalogue).
            // The paper's plan is a hash join on `i_id`; while item ids are
            // dense (1..=items) this engine builds a direct-indexed table
            // instead (`htap_olap::JoinTable::direct`), and falls back to
            // the hash when they are not.
            QueryId::Q14 => "SELECT SUM(ol_amount), COUNT(*) FROM orderline \
                 JOIN item ON ol_i_id = i_id \
                 WHERE ol_delivery_d >= 0 AND i_data LIKE 'PR%'"
                .into(),
            // Discounted revenue: broadcast hash join dominated by random
            // probes (§5.3); the `LIKE` condition is removed as in the paper.
            // While item ids are dense the engine runs the join through a
            // direct-indexed table on `i_id`: the probes stay random, but
            // each is one bounds-checked load instead of a hash and a slot
            // walk.
            QueryId::Q19 => "SELECT SUM(ol_amount) FROM orderline \
                 JOIN item ON ol_i_id = i_id \
                 WHERE ol_quantity >= 1 AND ol_quantity <= 10 AND i_price >= 1"
                .into(),
        }
    }
}

/// The query mix the paper uses for the adaptive experiment (Figure 5): Q1,
/// Q6 and Q19 executed one after the other per sequence.
pub fn query_mix() -> Vec<QueryId> {
    vec![QueryId::Q1, QueryId::Q6, QueryId::Q19]
}

/// The widened analytical mix: every implemented query, one after the other.
/// Covers scalar and grouped sinks, top-k, and relation footprints from one
/// to three tables, which is what makes the adaptive scheduler's per-query
/// freshness decisions diverge across queries of one sequence.
pub fn query_mix_wide() -> Vec<QueryId> {
    vec![
        QueryId::Q1,
        QueryId::Q3,
        QueryId::Q4,
        QueryId::Q6,
        QueryId::Q12,
        QueryId::Q14,
        QueryId::Q19,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_olap::{AggExpr, CmpOp, Pipeline, Predicate, RowSlot, ScalarExpr, SortKey};
    use std::collections::BTreeMap;

    fn plan(q: QueryId) -> QueryPlan {
        q.plan()
            .unwrap_or_else(|e| panic!("{}: SQL failed to plan: {e}", q.label()))
    }

    /// The tuple of the columns `{prefix}w_id`, `{prefix}d_id` and
    /// `{prefix}{last}`.
    fn tuple(prefix: &str, last: &str) -> Vec<ScalarExpr> {
        ["w_id", "d_id", last]
            .map(|c| ScalarExpr::col(format!("{prefix}{c}")))
            .to_vec()
    }

    /// `table`, filtered on `column >= floor`.
    fn at_least(table: &str, column: &str, floor: f64) -> Pipeline {
        Pipeline::scan(table).filter([Predicate::new(column, CmpOp::Ge, floor)])
    }

    #[test]
    fn q1_is_a_group_by_over_orderline() {
        let plan = plan(QueryId::Q1);
        assert_eq!(plan.label(), "scan(orderline)→filter→group-by");
        assert_eq!(plan.tables(), vec!["orderline"]);
        let cols = &plan.accessed_columns()["orderline"];
        for c in ["ol_delivery_d", "ol_number", "ol_quantity", "ol_amount"] {
            assert!(cols.contains(&c.to_string()));
        }
    }

    #[test]
    fn q3_chains_orderline_orders_customer() {
        let plan = plan(QueryId::Q3);
        assert_eq!(plan.label(), "scan(orderline)→filter→probe×2→aggregate");
        assert_eq!(plan.tables(), vec!["orderline", "orders", "customer"]);
        let cols = plan.accessed_columns();
        // Each hop joins on the column tuple; no encoded key column is read.
        assert_eq!(
            cols["orderline"],
            [
                "ol_amount",
                "ol_d_id",
                "ol_delivery_d",
                "ol_o_id",
                "ol_w_id"
            ]
        );
        assert_eq!(
            cols["orders"],
            ["o_c_id", "o_d_id", "o_entry_d", "o_id", "o_w_id"]
        );
        assert_eq!(cols["customer"], ["c_balance", "c_d_id", "c_id", "c_w_id"]);
        let customer = Pipeline::scan("customer")
            .filter([Predicate::new("c_balance", CmpOp::Lt, 0.0)])
            .build(tuple("c_", "id"));
        let orders = at_least("orders", "o_entry_d", 0.0)
            .probe(customer, tuple("o_", "c_id"))
            .build(tuple("o_", "id"));
        let expected = at_least("orderline", "ol_delivery_d", 0.0)
            .probe(orders, tuple("ol_", "o_id"))
            .aggregate(vec![
                AggExpr::Sum(ScalarExpr::col("ol_amount")),
                AggExpr::Count,
            ]);
        assert_eq!(plan, expected.finish().unwrap());
    }

    #[test]
    fn q4_is_a_top_k_join_group_by() {
        let plan = plan(QueryId::Q4);
        assert_eq!(
            plan.label(),
            "scan(orders)→filter→probe×1→group-by→sort→limit"
        );
        assert_eq!(plan.tables(), vec!["orders", "orderline"]);
        let lines = at_least("orderline", "ol_amount", 500.0).build(tuple("ol_", "o_id"));
        let expected = at_least("orders", "o_entry_d", 0.0)
            .probe(lines, tuple("o_", "id"))
            .group_by(vec!["o_ol_cnt".into()], vec![AggExpr::Count])
            .sort(vec![SortKey {
                slot: RowSlot::Agg(0),
                desc: true,
            }])
            .limit(5);
        assert_eq!(plan, expected.finish().unwrap());
        let cols = plan.accessed_columns();
        assert_eq!(
            cols["orders"],
            ["o_d_id", "o_entry_d", "o_id", "o_ol_cnt", "o_w_id"]
        );
        assert_eq!(
            cols["orderline"],
            ["ol_amount", "ol_d_id", "ol_o_id", "ol_w_id"]
        );
    }

    #[test]
    fn q6_is_a_scan_reduce_over_orderline() {
        let plan = plan(QueryId::Q6);
        assert_eq!(plan.label(), "scan(orderline)→filter→aggregate");
        let cols = &plan.accessed_columns()["orderline"];
        assert!(cols.contains(&"ol_amount".to_string()));
        assert!(cols.contains(&"ol_quantity".to_string()));
    }

    #[test]
    fn q12_groups_orders_by_carrier() {
        let plan = plan(QueryId::Q12);
        assert_eq!(plan.label(), "scan(orders)→probe×1→group-by");
        let cols = plan.accessed_columns();
        assert!(cols["orders"].contains(&"o_carrier_id".to_string()));
        assert!(cols["orderline"].contains(&"ol_delivery_d".to_string()));
    }

    #[test]
    fn q12_selects_only_delivered_lines() {
        // The build-side filter floor must equal the Delivery transaction's
        // date base: entry dates sit strictly below it, delivery stamps at or
        // above it, so the predicate admits exactly the delivered lines.
        let delivered = at_least("orderline", "ol_delivery_d", DELIVERY_DATE_BASE as f64)
            .build(tuple("ol_", "o_id"));
        let expected = Pipeline::scan("orders")
            .probe(delivered, tuple("o_", "id"))
            .group_by(
                vec!["o_carrier_id".into()],
                vec![AggExpr::Count, AggExpr::Sum(ScalarExpr::col("o_ol_cnt"))],
            );
        assert_eq!(plan(QueryId::Q12), expected.finish().unwrap());
    }

    #[test]
    fn q14_and_q19_join_orderline_with_item() {
        for (q, dim_col) in [(QueryId::Q14, "i_im_id"), (QueryId::Q19, "i_price")] {
            let plan = plan(q);
            assert_eq!(plan.label(), "scan(orderline)→filter→probe×1→aggregate");
            assert_eq!(plan.tables(), vec!["orderline", "item"]);
            let cols = plan.accessed_columns();
            assert!(cols["item"].contains(&dim_col.to_string()));
            assert!(cols["orderline"].contains(&"ol_i_id".to_string()));
        }
    }

    #[test]
    fn mix_matches_paper_order() {
        let mix = query_mix();
        assert_eq!(mix.len(), 3);
        assert_eq!(mix[0].label(), "Q1");
        assert_eq!(mix[1].label(), "Q6");
        assert_eq!(mix[2].label(), "Q19");
    }

    #[test]
    fn wide_mix_covers_every_query_and_all_plan_shapes() {
        let mix = query_mix_wide();
        let labels: Vec<&str> = mix.iter().map(|q| q.label()).collect();
        assert_eq!(labels, vec!["Q1", "Q3", "Q4", "Q6", "Q12", "Q14", "Q19"]);
        // Every SQL text compiles, and the mix spans one to three relations,
        // scalar and grouped sinks, and a top-k.
        let plans: Vec<QueryPlan> = mix.into_iter().map(plan).collect();
        let mut widths: Vec<usize> = plans.iter().map(|p| p.tables().len()).collect();
        widths.sort_unstable();
        widths.dedup();
        assert_eq!(widths, vec![1, 2, 3]);
        for sink in ["→aggregate", "→group-by", "→limit"] {
            assert!(plans.iter().any(|p| p.label().contains(sink)), "{sink}");
        }
    }

    /// Every accessor the scheduler, the cost model and the reports read,
    /// pinned as literals for the seven queries: a change to how plans are
    /// represented must leave each of them bit for bit where it is.
    #[test]
    fn plan_accessors_are_pinned() {
        type Pin = (
            QueryId,
            &'static str,
            &'static [&'static str],
            &'static [(&'static str, &'static [&'static str])],
            u64,
        );
        let pins: [Pin; 7] = [
            (
                QueryId::Q1,
                "scan(orderline)→filter→group-by",
                &["orderline"],
                &[(
                    "orderline",
                    &["ol_amount", "ol_delivery_d", "ol_number", "ol_quantity"],
                )],
                0x400e_6666_6666_6667,
            ),
            (
                QueryId::Q3,
                "scan(orderline)→filter→probe×2→aggregate",
                &["orderline", "orders", "customer"],
                &[
                    ("customer", &["c_balance", "c_d_id", "c_id", "c_w_id"]),
                    (
                        "orderline",
                        &[
                            "ol_amount",
                            "ol_d_id",
                            "ol_delivery_d",
                            "ol_o_id",
                            "ol_w_id",
                        ],
                    ),
                    (
                        "orders",
                        &["o_c_id", "o_d_id", "o_entry_d", "o_id", "o_w_id"],
                    ),
                ],
                0x400f_3333_3333_3333,
            ),
            (
                QueryId::Q4,
                "scan(orders)→filter→probe×1→group-by→sort→limit",
                &["orders", "orderline"],
                &[
                    ("orderline", &["ol_amount", "ol_d_id", "ol_o_id", "ol_w_id"]),
                    (
                        "orders",
                        &["o_d_id", "o_entry_d", "o_id", "o_ol_cnt", "o_w_id"],
                    ),
                ],
                0x400d_9999_9999_999a,
            ),
            (
                QueryId::Q6,
                "scan(orderline)→filter→aggregate",
                &["orderline"],
                &[("orderline", &["ol_amount", "ol_delivery_d", "ol_quantity"])],
                0x3ffb_3333_3333_3334,
            ),
            (
                QueryId::Q12,
                "scan(orders)→probe×1→group-by",
                &["orders", "orderline"],
                &[
                    (
                        "orderline",
                        &["ol_d_id", "ol_delivery_d", "ol_o_id", "ol_w_id"],
                    ),
                    (
                        "orders",
                        &["o_carrier_id", "o_d_id", "o_id", "o_ol_cnt", "o_w_id"],
                    ),
                ],
                0x400a_6666_6666_6666,
            ),
            (
                QueryId::Q14,
                "scan(orderline)→filter→probe×1→aggregate",
                &["orderline", "item"],
                &[
                    ("item", &["i_id", "i_im_id"]),
                    ("orderline", &["ol_amount", "ol_delivery_d", "ol_i_id"]),
                ],
                0x4006_6666_6666_6666,
            ),
            (
                QueryId::Q19,
                "scan(orderline)→filter→probe×1→aggregate",
                &["orderline", "item"],
                &[
                    ("item", &["i_id", "i_price"]),
                    ("orderline", &["ol_amount", "ol_i_id", "ol_quantity"]),
                ],
                0x4006_6666_6666_6666,
            ),
        ];
        for (q, label, tables, columns, cpu_bits) in pins {
            let plan = plan(q);
            assert_eq!(plan.label(), label, "{}", q.label());
            assert_eq!(plan.tables(), tables, "{}", q.label());
            let expected: BTreeMap<String, Vec<String>> = columns
                .iter()
                .map(|(t, cols)| (t.to_string(), cols.iter().map(|c| c.to_string()).collect()))
                .collect();
            assert_eq!(plan.accessed_columns(), expected, "{}", q.label());
            assert_eq!(plan.cpu_ns_per_tuple().to_bits(), cpu_bits, "{}", q.label());
        }
    }
}
