//! The morsel-driven, vectorized query executor.
//!
//! Every plan is executed as a set of pipelines over [`crate::morsel::Morsel`]s
//! — NUMA-tagged row ranges cut from the query's [`ScanSource`]s (§3.3
//! processes "one block of tuples at a time"; here a block is the unit a
//! worker *claims*, not just the unit it processes). The
//! [`crate::worker::WorkerTeam`] — one pipeline worker per core the RDE engine
//! has granted — pulls morsels from a shared cursor, folds each one into a
//! private partial result, and the partials are merged in morsel-index order.
//!
//! There is one driver and there are three sinks, one module per operator:
//!
//! * `pipeline` — binds a pipeline (scan → filters → probe chain) against
//!   its source and drives it: the only morsel-claim loop, the only place a
//!   morsel is loaded, filtered, probed, accounted and traced.
//! * `probe` — the hash-probe chain and the `Survivors` it leaves.
//! * `build`, `scalar`, `group` — the sinks: join-build table, scalar
//!   count and lanes, per-morsel group tables; each owns its per-worker
//!   output and its merge, nothing else.
//! * `finish` — HAVING / ORDER BY / LIMIT over the finalised rows.
//! * `result` — [`QueryResult`], [`WorkProfile`], [`QueryOutput`].
//!
//! The per-core execution path is vectorized end to end:
//!
//! * **Compiled programs** — every scalar expression and predicate is
//!   compiled at plan-bind time into a flat register program over column
//!   *indices* ([`crate::program`]); the morsel loop never resolves a name or
//!   walks a tree.
//! * **Selection vectors** — filters produce compacted `u32` row-id vectors
//!   instead of `Vec<bool>` masks; join probes and aggregations only touch
//!   surviving rows, a morsel every row of which survives (a filterless scan
//!   included) iterates the dense range without materialised ids, and one no
//!   row of which survives loads no further column.
//! * **Open-addressing tables** — the group-by operator and the join build
//!   sides use the linear-probing tables of [`crate::hashtable`] with inline
//!   keys, or skip the hash where a key's span is small (a direct join
//!   table indexed by `key − min`, a morsel's group ids seated the same
//!   way over the column's storage bounds); a probe compacts its survivors without a data-dependent branch,
//!   and group keys are sorted exactly once, at final merge.
//! * **Zero steady-state allocation** — each worker carries one
//!   [`crate::scratch::ExecScratch`] per pipeline; column data is borrowed
//!   from storage where the dtype allows and converted into reused buffers
//!   otherwise, so after warm-up the morsel loop does not allocate
//!   (`tests/alloc_steady_state.rs` counts).
//!
//! Two properties hold for every plan and every worker count:
//!
//! * **Determinism** — partial aggregation counts and lanes are per
//!   *morsel*, and the merge order is the morsel order, so the result is
//!   bit-for-bit identical for every worker count (including the solo
//!   worker), no matter how the workers interleave their claims.
//! * **Exact accounting** — every worker tracks its own [`WorkProfile`]
//!   (bytes per socket, tuples, fresh rows) from the morsels it actually
//!   processed; the per-worker profiles are summed, and the totals equal the
//!   account the row-at-a-time oracle ([`crate::reference`]) derives from the
//!   sources alone (`tests/differential_exec.rs` asserts equality). The
//!   scheduler and the cost model consume those totals.

mod build;
mod finish;
mod group;
mod pipeline;
mod probe;
mod result;
mod scalar;

pub use result::{GroupRow, QueryOutput, QueryResult, WorkProfile};

use crate::error::OlapError;
use crate::plan::{self, QueryPlan};
use crate::source::ScanSource;
use crate::worker::WorkerTeam;
use build::Built;
use group::GroupSink;
use pipeline::Pipeline;
use scalar::ScalarSink;
use std::collections::BTreeMap;

/// Look up the access path of `table`.
fn source_for<'a>(
    sources: &'a BTreeMap<String, ScanSource>,
    table: &str,
) -> Result<&'a ScanSource, OlapError> {
    sources.get(table).ok_or_else(|| OlapError::MissingSource {
        table: table.to_string(),
    })
}

/// The morsel-driven query executor.
#[derive(Debug, Clone)]
pub struct QueryExecutor {
    /// Tuples per morsel (the unit of work a pipeline worker claims).
    pub block_rows: usize,
}

impl Default for QueryExecutor {
    fn default() -> Self {
        QueryExecutor {
            block_rows: crate::block::DEFAULT_BLOCK_ROWS,
        }
    }
}

impl QueryExecutor {
    /// Executor with a custom morsel size (tests use small morsels).
    pub fn with_block_rows(block_rows: usize) -> Self {
        QueryExecutor { block_rows }
    }

    /// Execute `plan` sequentially (a solo worker team) over the given
    /// per-relation access paths.
    pub fn execute(
        &self,
        plan: &QueryPlan,
        sources: &BTreeMap<String, ScanSource>,
    ) -> Result<QueryOutput, OlapError> {
        self.execute_parallel(plan, sources, &WorkerTeam::solo())
    }

    /// Execute `plan` with one pipeline worker per core of `team`: the build
    /// pipelines the root probes (each after the builds it probes itself),
    /// then the root (aggregating) pipeline — all through the one pipeline
    /// driver, each into its sink — then the finishers over the finalised
    /// rows. The result is identical — bit for bit — to the solo execution
    /// of the same plan over the same sources; only wall-clock time changes.
    pub fn execute_parallel(
        &self,
        plan: &QueryPlan,
        sources: &BTreeMap<String, ScanSource>,
        team: &WorkerTeam,
    ) -> Result<QueryOutput, OlapError> {
        let mut work = WorkProfile::default();
        let built = self.run_builds(&plan.root, sources, team, true, &mut work)?;
        let source = source_for(sources, &plan.root.table)?;
        let aggregates = &plan.aggregates;
        let group_by = plan.group_by.as_deref();
        let pipe = Pipeline::bind(
            source,
            &plan.root,
            &built,
            &[],
            aggregates,
            group_by.unwrap_or_default(),
        )?;
        let result = match group_by {
            None => {
                let sink = ScalarSink {
                    aggregates,
                    aggs: &pipe.aggs,
                };
                QueryResult::Scalars(self.run_pipeline(&pipe, team, &sink, &mut work))
            }
            Some(group_by) => {
                let sink = GroupSink::bind(&pipe, group_by, aggregates, self.block_rows)?;
                let mut rows = self.run_pipeline(&pipe, team, &sink, &mut work);
                for finisher in &plan.finishers {
                    finish::apply_finisher(finisher, &mut rows);
                }
                QueryResult::Groups(rows)
            }
        };
        Ok(QueryOutput { result, work })
    }

    /// Run the builds `input` probes, in probe order, each after the builds
    /// its own pipeline probes (so a chain builds from its far end), and
    /// return their tables in probe order. Build sides are broadcast: their
    /// bytes and hash-table sizes are accounted — builds the root pipeline
    /// probes (`near`) on the near fields, deeper (chained) builds on the
    /// far fields. 16 bytes per table entry (key + bucket overhead);
    /// multiplicities share their key's entry, so duplicate build keys do
    /// not grow the table.
    fn run_builds(
        &self,
        input: &plan::Pipeline,
        sources: &BTreeMap<String, ScanSource>,
        team: &WorkerTeam,
        near: bool,
        work: &mut WorkProfile,
    ) -> Result<Vec<Built>, OlapError> {
        let mut built = Vec::with_capacity(input.probes.len());
        for probe in &input.probes {
            let build = &probe.build;
            let inner = self.run_builds(&build.input, sources, team, false, work)?;
            let source = source_for(sources, &build.input.table)?;
            let pipe = Pipeline::bind(source, &build.input, &inner, &build.keys, &[], &[])?;
            let done = self.run_build(&pipe, &build.keys, team, work)?;
            let bytes = pipe.source_bytes();
            let table_bytes = done.table.len() as u64 * 16;
            if near {
                work.build_bytes += bytes;
                work.hash_table_bytes += table_bytes;
            } else {
                work.far_build_bytes += bytes;
                work.far_hash_table_bytes += table_bytes;
            }
            built.push(done);
        }
        Ok(built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggExpr, CmpOp, Predicate, ScalarExpr};
    use crate::plan::{Build, Pipeline as Pipe, RowSlot, SortKey};
    use htap_sim::{CoreId, SocketId};
    use htap_storage::{ColumnDef, ColumnarTable, DataType, TableSchema, TableSnapshot, Value};
    use std::sync::Arc;

    /// orderline-like table: (ol_number i64, ol_quantity i32, ol_amount f64, ol_i_id i64)
    fn orderline(n: u64) -> Arc<ColumnarTable> {
        let schema = TableSchema::new(
            "orderline",
            vec![
                ColumnDef::new("ol_number", DataType::I64),
                ColumnDef::new("ol_quantity", DataType::I32),
                ColumnDef::new("ol_amount", DataType::F64),
                ColumnDef::new("ol_i_id", DataType::I64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..n {
            t.append_row(&[
                Value::I64(i as i64),
                Value::I32((i % 10) as i32),
                Value::F64((i % 100) as f64 + 0.1),
                Value::I64((i % 5) as i64),
            ])
            .unwrap();
        }
        Arc::new(t)
    }

    /// item-like dimension table: (i_id i64, i_price f64)
    fn item(n: u64) -> Arc<ColumnarTable> {
        let schema = TableSchema::new(
            "item",
            vec![
                ColumnDef::new("i_id", DataType::I64),
                ColumnDef::new("i_price", DataType::F64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..n {
            t.append_row(&[Value::I64(i as i64), Value::F64(i as f64 * 10.0)])
                .unwrap();
        }
        Arc::new(t)
    }

    fn sources_for(n: u64) -> BTreeMap<String, ScanSource> {
        let ol = orderline(n);
        let snap = TableSnapshot::new("orderline".into(), ol, n);
        let mut m = BTreeMap::new();
        m.insert(
            "orderline".to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
        m
    }

    /// One build side of a test join: relation, build-key column, filters.
    type Dim<'a> = (&'a str, &'a str, Vec<Predicate>);

    /// `fact ⋈ dims[0] ⋈ dims[1] …` (no dims: a single-relation plan): the
    /// fact probes `dims[0]` on `keys[0]`, each dim probes the next on
    /// `keys[i + 1]`; then the sink, then an optional `(agg_index, k)` top-k.
    fn try_plan(
        fact: &str,
        fact_filters: Vec<Predicate>,
        keys: Vec<ScalarExpr>,
        dims: Vec<Dim<'_>>,
        group_by: Option<&[&str]>,
        aggregates: Vec<AggExpr>,
        top_k: Option<(usize, usize)>,
    ) -> Result<QueryPlan, OlapError> {
        let mut beyond: Option<Build> = None;
        for (i, (table, key, filters)) in dims.into_iter().enumerate().rev() {
            let mut at = Pipe::scan(table).filter(filters);
            if let Some(build) = beyond {
                at = at.probe(build, keys[i + 1].clone());
            }
            beyond = Some(at.build(ScalarExpr::col(key)));
        }
        let mut at = Pipe::scan(fact).filter(fact_filters);
        if let Some(build) = beyond {
            at = at.probe(build, keys[0].clone());
        }
        let Some(group_by) = group_by else {
            return at.aggregate(aggregates).finish();
        };
        let mut plan = at.group_by(group_by.iter().map(|c| c.to_string()).collect(), aggregates);
        if let Some((agg_index, k)) = top_k {
            plan = plan
                .sort(vec![SortKey {
                    slot: RowSlot::Agg(agg_index),
                    desc: true,
                }])
                .limit(k);
        }
        plan.finish()
    }

    /// scan(table) → filter → scalar or grouped aggregate.
    fn scan_plan(
        table: &str,
        filters: Vec<Predicate>,
        group_by: Option<&[&str]>,
        aggregates: Vec<AggExpr>,
    ) -> QueryPlan {
        try_plan(table, filters, vec![], vec![], group_by, aggregates, None).unwrap()
    }

    fn col(name: &str) -> ScalarExpr {
        ScalarExpr::col(name)
    }

    fn team_of(n: u16) -> WorkerTeam {
        WorkerTeam::from_cores((0..n).map(CoreId).collect())
    }

    /// mid dimension for the chain join: (m_id i64, m_c i64) with
    /// m_id in 0..n and m_c = m_id % 3.
    fn mid_dim(n: u64) -> Arc<ColumnarTable> {
        let schema = TableSchema::new(
            "mid",
            vec![
                ColumnDef::new("m_id", DataType::I64),
                ColumnDef::new("m_c", DataType::I64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..n {
            t.append_row(&[Value::I64(i as i64), Value::I64((i % 3) as i64)])
                .unwrap();
        }
        Arc::new(t)
    }

    /// far dimension: (c_id i64, c_v f64) with c_id in 0..n, c_v = c_id * 1.5.
    fn far_dim(n: u64) -> Arc<ColumnarTable> {
        let schema = TableSchema::new(
            "far",
            vec![
                ColumnDef::new("c_id", DataType::I64),
                ColumnDef::new("c_v", DataType::F64),
            ],
            Some(0),
        );
        let t = ColumnarTable::new(schema);
        for i in 0..n {
            t.append_row(&[Value::I64(i as i64), Value::F64(i as f64 * 1.5)])
                .unwrap();
        }
        Arc::new(t)
    }

    /// orderline ⋈ mid ⋈ far sources: mid keys match ol_i_id (0..5), far keys
    /// match m_c (0..3).
    fn chain_sources(n: u64) -> BTreeMap<String, ScanSource> {
        let mut sources = sources_for(n);
        let mid = mid_dim(5);
        let snap = TableSnapshot::new("mid".into(), mid, 5);
        sources.insert(
            "mid".into(),
            ScanSource::contiguous_snapshot(&snap, SocketId(1)),
        );
        let far = far_dim(3);
        let snap = TableSnapshot::new("far".into(), far, 3);
        sources.insert(
            "far".into(),
            ScanSource::contiguous_snapshot(&snap, SocketId(1)),
        );
        sources
    }

    fn chain_plan() -> QueryPlan {
        try_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 5.0)],
            vec![col("ol_i_id"), col("m_c")],
            // far keys with c_v >= 1.5 -> c_id in {1, 2}.
            vec![
                ("mid", "m_id", vec![]),
                ("far", "c_id", vec![Predicate::new("c_v", CmpOp::Ge, 1.5)]),
            ],
            None,
            vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count],
            None,
        )
        .unwrap()
    }

    #[test]
    fn multi_join_chain_filters_through_both_dims() {
        // far set = {1, 2}; mid rows with m_c in {1, 2} -> m_id in {1, 2, 4};
        // fact rows pass when ol_quantity < 5 and ol_i_id in {1, 2, 4}.
        let out = QueryExecutor::with_block_rows(64)
            .execute(&chain_plan(), &chain_sources(1000))
            .unwrap();
        let survives = |i: &u64| i % 10 < 5 && matches!(i % 5, 1 | 2 | 4);
        let expected_sum: f64 = (0..1000u64)
            .filter(survives)
            .map(|i| (i % 100) as f64 + 0.1)
            .sum();
        let expected_count = (0..1000u64).filter(survives).count() as f64;
        assert!((out.result.scalars().unwrap()[0] - expected_sum).abs() < 1e-9);
        assert_eq!(out.result.scalars().unwrap()[1], expected_count);
        // Probes: 5 mid rows checked against the far set + 500 filtered fact rows.
        assert_eq!(out.work.probes, 5 + 500);
    }

    #[test]
    fn multi_join_accounts_both_build_sides() {
        let out = QueryExecutor::with_block_rows(128)
            .execute(&chain_plan(), &chain_sources(500))
            .unwrap();
        assert!(out.work.build_bytes > 0, "mid build side accounted");
        assert!(out.work.far_build_bytes > 0, "far build side accounted");
        assert_eq!(out.work.hash_table_bytes, 3 * 16, "mid set {{1, 2, 4}}");
        assert_eq!(out.work.far_hash_table_bytes, 2 * 16, "far set {{1, 2}}");
        let jw = out.work.join_work().unwrap();
        assert_eq!(
            jw.build_bytes,
            out.work.build_bytes + out.work.far_build_bytes,
            "the cost model sees both broadcasts"
        );
        assert_eq!(
            jw.hash_table_bytes,
            out.work.hash_table_bytes + out.work.far_hash_table_bytes
        );
    }

    /// orderline probing two sibling builds, mid on `ol_i_id = m_id` and
    /// far on `ol_i_id = c_id`: a root pipeline with two probes.
    fn star_plan() -> QueryPlan {
        let mid = Pipe::scan("mid").build(col("m_id"));
        let far = Pipe::scan("far")
            .filter([Predicate::new("c_v", CmpOp::Ge, 1.5)])
            .build(col("c_id"));
        Pipe::scan("orderline")
            .filter([Predicate::new("ol_quantity", CmpOp::Lt, 5.0)])
            .probe(mid, col("ol_i_id"))
            .probe(far, col("ol_i_id"))
            .aggregate(vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count])
            .finish()
            .unwrap()
    }

    /// The accessors and the near/far build accounting of a three-relation
    /// chain and of a root probing two sibling builds, pinned as literals:
    /// how a plan is represented must not move any of them.
    #[test]
    fn chain_and_star_plan_accessors_and_build_split_are_pinned() {
        let sources = chain_sources(500);
        let cols = |pairs: &[(&str, &[&str])]| -> BTreeMap<String, Vec<String>> {
            pairs
                .iter()
                .map(|(t, c)| (t.to_string(), c.iter().map(|c| c.to_string()).collect()))
                .collect()
        };
        // (plan, accessed columns, build_bytes, far_build_bytes,
        //  hash_table_bytes, far_hash_table_bytes)
        let cases = [
            (
                chain_plan(),
                cols(&[
                    ("far", &["c_id", "c_v"]),
                    ("mid", &["m_c", "m_id"]),
                    ("orderline", &["ol_amount", "ol_i_id", "ol_quantity"]),
                ]),
                (80, 48, 48, 32),
            ),
            (
                star_plan(),
                cols(&[
                    ("far", &["c_id", "c_v"]),
                    ("mid", &["m_id"]),
                    ("orderline", &["ol_amount", "ol_i_id", "ol_quantity"]),
                ]),
                (88, 0, 112, 0),
            ),
        ];
        for (plan, columns, split) in cases {
            assert_eq!(plan.label(), "scan(orderline)→filter→probe×2→aggregate");
            assert_eq!(plan.tables(), ["orderline", "mid", "far"]);
            assert_eq!(plan.accessed_columns(), columns);
            assert_eq!(plan.cpu_ns_per_tuple().to_bits(), 0x400c_0000_0000_0000);
            let out = QueryExecutor::with_block_rows(128)
                .execute(&plan, &sources)
                .unwrap();
            let w = &out.work;
            let got = (
                w.build_bytes,
                w.far_build_bytes,
                w.hash_table_bytes,
                w.far_hash_table_bytes,
            );
            assert_eq!(got, split, "{}", plan.label());
            let oracle = crate::reference::execute_reference_with_work(&plan, &sources).unwrap();
            assert_eq!(oracle.work, out.work);
        }
    }

    #[test]
    fn multi_join_is_bit_identical_across_worker_counts() {
        let sources = chain_sources(5_003);
        let executor = QueryExecutor::with_block_rows(97);
        let solo = executor.execute(&chain_plan(), &sources).unwrap();
        for workers in [2u16, 4, 7] {
            let parallel = executor
                .execute_parallel(&chain_plan(), &sources, &team_of(workers))
                .unwrap();
            assert_eq!(solo, parallel, "{workers} workers diverged from solo");
        }
    }

    fn join_group_by_plan(top_k: Option<(usize, usize)>) -> Result<QueryPlan, OlapError> {
        try_plan(
            "orderline",
            vec![Predicate::new("ol_amount", CmpOp::Ge, 10.0)],
            vec![col("ol_i_id")],
            // mid keys with m_c == 1 -> m_id in {1, 4}.
            vec![("mid", "m_id", vec![Predicate::new("m_c", CmpOp::Eq, 1.0)])],
            Some(&["ol_quantity"]),
            vec![AggExpr::Count, AggExpr::Sum(col("ol_amount"))],
            top_k,
        )
    }

    #[test]
    fn join_group_by_groups_fact_rows_matching_dim() {
        let out = QueryExecutor::with_block_rows(128)
            .execute(&join_group_by_plan(None).unwrap(), &chain_sources(1000))
            .unwrap();
        let survives = |i: &u64| (i % 100) as f64 + 0.1 >= 10.0 && matches!(i % 5, 1 | 4);
        let groups = out.result.groups().unwrap();
        // One group per surviving quantity value, keys ascending.
        let mut expected: BTreeMap<i64, (f64, f64)> = BTreeMap::new();
        for i in (0..1000u64).filter(survives) {
            let e = expected.entry((i % 10) as i64).or_insert((0.0, 0.0));
            e.0 += 1.0;
            e.1 += (i % 100) as f64 + 0.1;
        }
        assert_eq!(groups.len(), expected.len());
        for ((key, aggs), (exp_key, (exp_count, exp_sum))) in groups.iter().zip(&expected) {
            assert_eq!(key[0], *exp_key);
            assert_eq!(aggs[0], *exp_count);
            assert!((aggs[1] - exp_sum).abs() < 1e-9);
        }
        assert!(out.work.probes > 0);
        assert!(out.work.build_bytes > 0);
        assert_eq!(out.work.far_build_bytes, 0, "only one build side");
    }

    #[test]
    fn join_group_by_top_k_orders_groups_descending_with_key_tiebreak() {
        let out = QueryExecutor::with_block_rows(64)
            .execute(
                &join_group_by_plan(Some((0, 3))).unwrap(),
                &chain_sources(1000),
            )
            .unwrap();
        let groups = out.result.groups().unwrap();
        assert_eq!(groups.len(), 3);
        for pair in groups.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.1[0] > b.1[0] || (a.1[0] == b.1[0] && a.0 < b.0),
                "descending count with ascending key tie-break: {groups:?}"
            );
        }
        // The top-k rows are a prefix of the full descending ordering.
        let full = QueryExecutor::with_block_rows(64)
            .execute(&join_group_by_plan(None).unwrap(), &chain_sources(1000))
            .unwrap();
        let mut all = full.result.groups().unwrap().to_vec();
        all.sort_by(|a, b| b.1[0].total_cmp(&a.1[0]).then_with(|| a.0.cmp(&b.0)));
        assert_eq!(groups, &all[..3]);
    }

    #[test]
    fn join_group_by_is_bit_identical_across_worker_counts() {
        let sources = chain_sources(5_003);
        let plan = join_group_by_plan(Some((1, 4))).unwrap();
        let executor = QueryExecutor::with_block_rows(173);
        let solo = executor.execute(&plan, &sources).unwrap();
        for workers in [2u16, 4, 8] {
            let parallel = executor
                .execute_parallel(&plan, &sources, &team_of(workers))
                .unwrap();
            assert_eq!(solo, parallel, "{workers} workers diverged from solo");
        }
    }

    #[test]
    fn invalid_top_k_is_a_typed_error() {
        // Rejected when the plan is built — it never reaches an executor.
        let err = join_group_by_plan(Some((9, 3))).unwrap_err();
        assert_eq!(
            err,
            OlapError::InvalidTopK {
                agg_index: 9,
                aggregates: 2
            }
        );
        assert!(err.to_string().contains("top-k"));
    }

    #[test]
    fn aggregate_plan_computes_filtered_sum_and_count() {
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 5.0)],
            None,
            vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count],
        );
        let out = QueryExecutor::with_block_rows(64)
            .execute(&plan, &sources_for(1000))
            .unwrap();
        // Rows with quantity in 0..=4: i%10 < 5, i.e. 500 rows.
        let expected_sum: f64 = (0..1000u64)
            .filter(|i| i % 10 < 5)
            .map(|i| (i % 100) as f64 + 0.1)
            .sum();
        assert!((out.result.scalars().unwrap()[0] - expected_sum).abs() < 1e-9);
        assert_eq!(out.result.scalars().unwrap()[1], 500.0);
        assert_eq!(out.work.tuples_scanned, 1000);
        assert_eq!(out.work.tuples_selected, 500);
        assert!(out.work.total_bytes() > 0);
        assert_eq!(
            out.work.fresh_rows, 1000,
            "all rows came from an OLTP snapshot"
        );
        assert!(out.work.join_work().is_none());
    }

    #[test]
    fn group_by_plan_produces_one_row_per_group() {
        let plan = scan_plan(
            "orderline",
            vec![],
            Some(&["ol_i_id"]),
            vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count],
        );
        let out = QueryExecutor::with_block_rows(128)
            .execute(&plan, &sources_for(1000))
            .unwrap();
        let groups = out.result.groups().unwrap();
        assert_eq!(groups.len(), 5);
        // Every group has 200 rows.
        for (key, aggs) in groups {
            assert!(key[0] >= 0 && key[0] < 5);
            assert_eq!(aggs[1], 200.0);
        }
        let total: f64 = groups.iter().map(|(_, a)| a[0]).sum();
        let expected: f64 = (0..1000u64).map(|i| (i % 100) as f64 + 0.1).sum();
        assert!((total - expected).abs() < 1e-6);
        assert_eq!(out.result.row_count(), 5);
    }

    #[test]
    fn join_plan_filters_both_sides_and_counts_probes() {
        let mut sources = sources_for(1000);
        let it = item(5);
        let snap = TableSnapshot::new("item".into(), it, 5);
        sources.insert(
            "item".into(),
            ScanSource::contiguous_snapshot(&snap, SocketId(1)),
        );

        // Items with price >= 20 -> i_id in {2, 3, 4}.
        let plan = try_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 5.0)],
            vec![col("ol_i_id")],
            vec![(
                "item",
                "i_id",
                vec![Predicate::new("i_price", CmpOp::Ge, 20.0)],
            )],
            None,
            vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count],
            None,
        )
        .unwrap();
        let out = QueryExecutor::with_block_rows(100)
            .execute(&plan, &sources)
            .unwrap();
        let expected: f64 = (0..1000u64)
            .filter(|i| i % 10 < 5 && i % 5 >= 2)
            .map(|i| (i % 100) as f64 + 0.1)
            .sum();
        let expected_count = (0..1000u64).filter(|i| i % 10 < 5 && i % 5 >= 2).count() as f64;
        assert!((out.result.scalars().unwrap()[0] - expected).abs() < 1e-9);
        assert_eq!(out.result.scalars().unwrap()[1], expected_count);
        assert_eq!(out.work.probes, 500, "every filtered fact row probes");
        assert!(out.work.build_bytes > 0);
        assert!(out.work.hash_table_bytes > 0);
        let jw = out.work.join_work().unwrap();
        assert_eq!(jw.probes, 500);
        // Bytes are attributed to both sockets (fact on 0, dim on 1).
        assert!(out.work.bytes_per_socket.contains_key(&SocketId(0)));
        assert!(out.work.bytes_per_socket.contains_key(&SocketId(1)));
    }

    #[test]
    fn split_access_profile_reports_fresh_rows_only_for_oltp_segments() {
        let olap_part = orderline(800);
        let oltp_part = orderline(1000);
        let snap = TableSnapshot::new("orderline".into(), oltp_part, 1000);
        let src = ScanSource::split(olap_part, 800, SocketId(1), &snap, SocketId(0));
        let mut sources = BTreeMap::new();
        sources.insert("orderline".to_string(), src);
        let plan = scan_plan(
            "orderline",
            vec![],
            None,
            vec![AggExpr::Count, AggExpr::Sum(col("ol_amount"))],
        );
        let out = QueryExecutor::default().execute(&plan, &sources).unwrap();
        assert_eq!(out.result.scalars().unwrap()[0], 1000.0);
        assert_eq!(out.work.fresh_rows, 200);
        assert!(out.work.bytes_per_socket[&SocketId(1)] > out.work.bytes_per_socket[&SocketId(0)]);
    }

    #[test]
    fn scan_work_conversion_preserves_bytes_and_tuples() {
        let plan = scan_plan(
            "orderline",
            vec![],
            None,
            vec![AggExpr::Sum(col("ol_amount"))],
        );
        let out = QueryExecutor::default()
            .execute(&plan, &sources_for(500))
            .unwrap();
        let sw = out.work.scan_work(1.0);
        assert_eq!(sw.tuples, 500);
        assert_eq!(sw.total_bytes(), out.work.total_bytes());
    }

    #[test]
    fn results_are_identical_across_block_sizes() {
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_amount", CmpOp::Ge, 10.0)],
            Some(&["ol_quantity"]),
            vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count],
        );
        let small = QueryExecutor::with_block_rows(7)
            .execute(&plan, &sources_for(997))
            .unwrap();
        let large = QueryExecutor::with_block_rows(100_000)
            .execute(&plan, &sources_for(997))
            .unwrap();
        assert_eq!(small.result.row_count(), large.result.row_count());
        for (s, l) in small
            .result
            .groups()
            .unwrap()
            .iter()
            .zip(large.result.groups().unwrap())
        {
            assert_eq!(s.0, l.0);
            for (a, b) in s.1.iter().zip(&l.1) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// The determinism contract of the tentpole: the same plan over the same
    /// sources produces bit-for-bit identical results and work profiles for
    /// every worker count — for a CH-Q6 shape (scan-filter-reduce)...
    #[test]
    fn q6_shape_is_bit_identical_across_worker_counts() {
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 7.0)],
            None,
            vec![
                AggExpr::Sum(col("ol_amount") * col("ol_quantity")),
                AggExpr::Avg(col("ol_amount")),
                AggExpr::Min(col("ol_amount")),
                AggExpr::Max(col("ol_amount")),
                AggExpr::Count,
            ],
        );
        let sources = sources_for(10_007);
        let executor = QueryExecutor::with_block_rows(251);
        let solo = executor.execute(&plan, &sources).unwrap();
        for workers in [2u16, 3, 4, 8] {
            let parallel = executor
                .execute_parallel(&plan, &sources, &team_of(workers))
                .unwrap();
            assert_eq!(solo, parallel, "{workers} workers diverged from solo");
        }
    }

    /// ...and for a CH-Q1 shape (scan-filter-group-by).
    #[test]
    fn q1_shape_is_bit_identical_across_worker_counts() {
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_amount", CmpOp::Ge, 3.0)],
            Some(&["ol_quantity", "ol_i_id"]),
            vec![
                AggExpr::Sum(col("ol_amount")),
                AggExpr::Avg(col("ol_amount")),
                AggExpr::Count,
            ],
        );
        let sources = sources_for(10_007);
        let executor = QueryExecutor::with_block_rows(173);
        let solo = executor.execute(&plan, &sources).unwrap();
        for workers in [2u16, 4, 8] {
            let parallel = executor
                .execute_parallel(&plan, &sources, &team_of(workers))
                .unwrap();
            assert_eq!(solo, parallel, "{workers} workers diverged from solo");
        }
    }

    #[test]
    fn join_shape_is_bit_identical_across_worker_counts() {
        let mut sources = sources_for(5_003);
        let it = item(5);
        let snap = TableSnapshot::new("item".into(), it, 5);
        sources.insert(
            "item".into(),
            ScanSource::contiguous_snapshot(&snap, SocketId(1)),
        );
        let plan = try_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 6.0)],
            vec![col("ol_i_id")],
            vec![(
                "item",
                "i_id",
                vec![Predicate::new("i_price", CmpOp::Ge, 10.0)],
            )],
            None,
            vec![AggExpr::Sum(col("ol_amount")), AggExpr::Count],
            None,
        )
        .unwrap();
        let executor = QueryExecutor::with_block_rows(97);
        let solo = executor.execute(&plan, &sources).unwrap();
        for workers in [2u16, 4, 7] {
            let parallel = executor
                .execute_parallel(&plan, &sources, &team_of(workers))
                .unwrap();
            assert_eq!(solo, parallel, "{workers} workers diverged from solo");
        }
    }

    #[test]
    fn parallel_work_profile_sums_to_sequential_totals() {
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 5.0)],
            None,
            vec![AggExpr::Count],
        );
        let sources = sources_for(4_321);
        let executor = QueryExecutor::with_block_rows(100);
        let solo = executor.execute(&plan, &sources).unwrap();
        let parallel = executor
            .execute_parallel(&plan, &sources, &team_of(6))
            .unwrap();
        assert_eq!(solo.work, parallel.work);
        assert_eq!(parallel.work.tuples_scanned, 4_321);
    }

    #[test]
    fn empty_source_executes_to_empty_result() {
        let plan = scan_plan(
            "orderline",
            vec![],
            Some(&["ol_i_id"]),
            vec![AggExpr::Count],
        );
        let out = QueryExecutor::default()
            .execute_parallel(&plan, &sources_for(0), &team_of(4))
            .unwrap();
        assert_eq!(out.result.row_count(), 0);
        assert_eq!(out.work.tuples_scanned, 0);
    }

    #[test]
    fn group_key_reused_as_filter_column_is_byte_accounted_once() {
        // ol_quantity serves as both filter input and group key: the morsel
        // byte accounting must charge its 4 bytes per row once, not twice.
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_quantity", CmpOp::Lt, 5.0)],
            Some(&["ol_quantity"]),
            vec![AggExpr::Count],
        );
        let out = QueryExecutor::with_block_rows(64)
            .execute(&plan, &sources_for(100))
            .unwrap();
        assert_eq!(out.work.total_bytes(), 100 * 4);
    }

    const BIG: i64 = 1 << 53;

    /// `dim64(d_id)` holding 2^53 and `fact64(f_key, f_a)` holding
    /// 2^53 + 1: distinct `i64` keys that collapse to the same `f64`.
    fn sources_beyond_2_pow_53() -> BTreeMap<String, ScanSource> {
        let dim = ColumnarTable::new(TableSchema::new(
            "dim64",
            vec![ColumnDef::new("d_id", DataType::I64)],
            Some(0),
        ));
        dim.append_row(&[Value::I64(BIG)]).unwrap();
        let fact = ColumnarTable::new(TableSchema::new(
            "fact64",
            vec![
                ColumnDef::new("f_key", DataType::I64),
                ColumnDef::new("f_a", DataType::F64),
            ],
            Some(0),
        ));
        fact.append_row(&[Value::I64(BIG + 1), Value::F64(1.0)])
            .unwrap();
        let mut sources = BTreeMap::new();
        let snap = TableSnapshot::new("dim64".into(), Arc::new(dim), 1);
        sources.insert(
            "dim64".to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
        let snap = TableSnapshot::new("fact64".into(), Arc::new(fact), 1);
        sources.insert(
            "fact64".to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
        sources
    }

    /// `fact64 ⋈ dim64`, `COUNT(*)`: each key of `keys` probes one `dim64`
    /// build keyed by `d_id`, chained as [`try_plan`] chains them.
    fn join_beyond_2_pow_53(keys: Vec<ScalarExpr>, group_by: Option<&[&str]>) -> QueryOutput {
        let dims = keys.iter().map(|_| ("dim64", "d_id", vec![])).collect();
        let plan = try_plan(
            "fact64",
            vec![],
            keys,
            dims,
            group_by,
            vec![AggExpr::Count],
            None,
        )
        .unwrap();
        QueryExecutor::default()
            .execute(&plan, &sources_beyond_2_pow_53())
            .unwrap()
    }

    #[test]
    fn plain_column_join_keys_stay_exact_beyond_2_pow_53() {
        // Plain-column join keys take the exact i64 path, so the probe of
        // 2^53 + 1 against a build set holding 2^53 finds nothing.
        let out = join_beyond_2_pow_53(vec![col("f_key")], None);
        assert_eq!(
            out.result.scalars().unwrap()[0],
            0.0,
            "2^53 and 2^53 + 1 must not join"
        );

        // Grouped and chained joins route plain-column keys through the
        // same exact path, on both the build and the probe side.
        let out = join_beyond_2_pow_53(vec![col("f_key")], Some(&["f_key"]));
        assert!(out.result.groups().unwrap().is_empty());
        let out = join_beyond_2_pow_53(vec![col("f_key"), col("d_id")], None);
        assert_eq!(out.result.scalars().unwrap()[0], 0.0);
    }

    #[test]
    fn computed_join_keys_stay_exact_beyond_2_pow_53() {
        // Computed keys evaluate their affine form in i64: `f_key + 0` is
        // 2^53 + 1 and misses the build's 2^53, `f_key − 1` is 2^53 and hits
        // it. Through f64 both would have rounded the other way.
        let lit = ScalarExpr::lit;
        let count = |out: QueryOutput| out.result.scalars().unwrap()[0];
        let (same, less) = (|| col("f_key") + lit(0.0), || col("f_key") - lit(1.0));
        assert_eq!(count(join_beyond_2_pow_53(vec![same()], None)), 0.0);
        assert_eq!(count(join_beyond_2_pow_53(vec![less()], None)), 1.0);

        // Grouped: the one fact row forms its group only when it joins.
        let grouped = Some(&["f_key"][..]);
        let out = join_beyond_2_pow_53(vec![same()], grouped);
        assert!(out.result.groups().unwrap().is_empty());
        let out = join_beyond_2_pow_53(vec![less()], grouped);
        assert_eq!(out.result.groups().unwrap(), &[(vec![BIG + 1], vec![1.0])]);

        // Chained: the dim64 pipeline probes the next dim64 build through a
        // computed key of its own (2·d_id − d_id − 1 = 2^53 − 1 misses).
        let twice = || col("d_id") * lit(2.0) - col("d_id");
        let out = join_beyond_2_pow_53(vec![less(), twice()], None);
        assert_eq!(count(out), 1.0);
        let out = join_beyond_2_pow_53(vec![less(), twice() - lit(1.0)], None);
        assert_eq!(count(out), 0.0);

        // A computed build key: d_id + 1 = 2^53 + 1 holds the plain probe
        // key f_key; d_id + 0 = 2^53 does not.
        let built_on = |key: ScalarExpr| {
            let plan = Pipe::scan("fact64")
                .probe(Pipe::scan("dim64").build(key), col("f_key"))
                .aggregate(vec![AggExpr::Count])
                .finish()
                .unwrap();
            let sources = sources_beyond_2_pow_53();
            count(QueryExecutor::default().execute(&plan, &sources).unwrap())
        };
        assert_eq!(built_on(col("d_id") + lit(1.0)), 1.0);
        assert_eq!(built_on(col("d_id") + lit(0.0)), 0.0);
    }

    #[test]
    fn shared_column_between_plain_key_and_computed_expression_does_not_panic() {
        // The mid build key reads m_id in place while mid's probe key
        // *computes* over the same column: both resolve to the one key-load
        // slot of m_id. fk = m_id * 0 + m_c folds to m_c, but still
        // references m_id in a computed expression.
        let plan = try_plan(
            "orderline",
            vec![],
            vec![
                col("ol_i_id"),
                col("m_id") * ScalarExpr::lit(0.0) + col("m_c"),
            ],
            vec![("mid", "m_id", vec![]), ("far", "c_id", vec![])],
            None,
            vec![AggExpr::Count],
            None,
        )
        .unwrap();
        let out = QueryExecutor::with_block_rows(64)
            .execute(&plan, &chain_sources(200))
            .unwrap();
        // far = {0, 1, 2} ⊇ m_c values, so every mid and fact row joins.
        assert_eq!(out.result.scalars().unwrap()[0], 200.0);
    }

    #[test]
    fn missing_source_is_a_typed_error() {
        let plan = scan_plan("nope", vec![], None, vec![AggExpr::Count]);
        let err = QueryExecutor::default()
            .execute(&plan, &BTreeMap::new())
            .unwrap_err();
        assert_eq!(
            err,
            OlapError::MissingSource {
                table: "nope".into()
            }
        );
        assert!(err.to_string().contains("no access path provided"));
    }

    #[test]
    fn unknown_plan_column_is_a_typed_error() {
        let plan = scan_plan(
            "orderline",
            vec![Predicate::new("ol_ghost", CmpOp::Lt, 1.0)],
            None,
            vec![AggExpr::Count],
        );
        let err = QueryExecutor::default()
            .execute(&plan, &sources_for(10))
            .unwrap_err();
        assert_eq!(
            err,
            OlapError::UnknownColumn {
                table: "orderline".into(),
                column: "ol_ghost".into()
            }
        );
    }

    #[test]
    fn wrong_shape_accessors_are_typed_errors() {
        let scalars = QueryResult::Scalars(vec![1.0]);
        assert!(scalars.scalars().is_ok());
        assert_eq!(
            scalars.groups().unwrap_err(),
            OlapError::WrongResultShape {
                expected: "grouped",
                found: "scalar"
            }
        );
        let groups = QueryResult::Groups(vec![]);
        assert!(groups.groups().is_ok());
        assert_eq!(
            groups.scalars().unwrap_err(),
            OlapError::WrongResultShape {
                expected: "scalar",
                found: "grouped"
            }
        );
    }
}
