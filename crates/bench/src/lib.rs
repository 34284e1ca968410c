//! Shared plumbing for the benchmark harnesses that regenerate the paper's
//! tables and figures.
//!
//! Each figure has its own binary under `src/bin/`:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1_etl_vs_cow`        | Figure 1 — ETL vs CoW motivation experiment |
//! | `table1_design_space`    | Table 1 — design-space classification probe |
//! | `fig3a_s1_sensitivity`   | Figure 3(a) — co-located state sensitivity |
//! | `fig3b_s2_batches`       | Figure 3(b) — isolated state batch amortisation |
//! | `fig3c_s3ni_elastic`     | Figure 3(c) — hybrid non-isolated elasticity |
//! | `fig4_freshness_sweep`   | Figure 4 — response time vs fresh data accessed |
//! | `fig5_adaptive_mix`      | Figure 5(a)+(b) — adaptive vs static schedules |
//!
//! All binaries accept `--scale <sf>` (CH scale factor, default 0.02),
//! `--sequences <n>` where applicable, and `--csv` to print machine-readable
//! output. `fig5_adaptive_mix` additionally accepts `--concurrent` (OLTP
//! ingest runs continuously while the sequences execute), `--smoke`
//! (CI-bounded tiny run) and `--paper-mix` (the paper's original
//! {Q1, Q6, Q19} sequence instead of the widened seven-query default).
//! Modelled times come from the simulated machine of `crates/sim`; the
//! shapes — not the absolute values — are the reproduction target.
//!
//! Every binary runs on an [`HtapSystem`] built by [`HarnessArgs::system`],
//! and every query it times runs through the RDE engine's one query call
//! (`RdeEngine::run_query`, directly or through the system's scheduled
//! path), so a figure number comes from the path the product runs. The
//! outputs at `--scale 0.001 --sequences 3 --csv` are pinned byte for byte
//! by the files under `golden/`, which CI diffs against.

use htap_chbench::ChConfig;
use htap_core::{HtapConfig, HtapSystem};
use htap_olap::{QueryExecutor, QueryPlan, WorkerTeam};
use htap_rde::{AccessMethod, RdeEngine};
use htap_sim::{CoreId, Topology};
use std::time::Instant;

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// CH-benCHmark scale factor.
    pub scale: f64,
    /// Number of sequences / repetitions, where applicable.
    pub sequences: usize,
    /// Emit CSV instead of an aligned text table.
    pub csv: bool,
    /// Also run the measured (wall-clock) scaling sweep where the harness
    /// supports one — real threads over real data instead of modelled time.
    pub measured: bool,
    /// Run OLTP ingest continuously *while* the analytical sequences execute
    /// (fig5): per-query freshness against the live delta stream and
    /// measured, not modelled, per-query OLTP throughput.
    pub concurrent: bool,
    /// Bound the run to a CI-friendly few seconds (tiny scale, few
    /// sequences); used by the concurrent smoke step.
    pub smoke: bool,
    /// Restrict fig5 to the paper's original {Q1, Q6, Q19} mix instead of
    /// the widened {Q1, Q3, Q4, Q6, Q12, Q14, Q19} default.
    pub paper_mix: bool,
    /// Export a Chrome `trace_event` JSON file of the run (spans, per-worker
    /// events and RDE decisions) to the given path; open it in
    /// `chrome://tracing` or Perfetto.
    pub trace: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 0.02,
            sequences: 30,
            csv: false,
            measured: false,
            concurrent: false,
            smoke: false,
            paper_mix: false,
            trace: None,
        }
    }
}

impl HarnessArgs {
    /// Parse `--scale`, `--sequences` and `--csv` from the process arguments,
    /// falling back to the defaults for anything absent.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        out.scale = v;
                    }
                }
                "--sequences" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        out.sequences = v;
                    }
                }
                "--csv" => out.csv = true,
                "--measured" => out.measured = true,
                "--concurrent" => out.concurrent = true,
                "--smoke" => out.smoke = true,
                "--paper-mix" => out.paper_mix = true,
                "--trace" => out.trace = iter.next(),
                _ => {}
            }
        }
        out
    }

    /// The CH-benCHmark configuration implied by the arguments, bounded below
    /// so even `--scale 0` produces a runnable database.
    pub fn chbench(&self) -> ChConfig {
        let mut cfg = ChConfig::scale_factor(self.scale.max(0.001));
        // Keep warehouse/customer dimensions host-friendly at tiny scales.
        cfg.warehouses = 4;
        cfg.customers_per_district = 100;
        cfg.items = 10_000;
        cfg
    }

    /// The populated system an experiment runs on: the CH-benCHmark
    /// population of [`Self::chbench`] on `topology`, every other setting
    /// as in [`HtapConfig::small`].
    pub fn system(&self, topology: Topology) -> HtapSystem {
        HtapSystem::build(HtapConfig {
            topology,
            chbench: self.chbench(),
            ..HtapConfig::small()
        })
        .expect("population succeeds")
    }
}

/// Run `txns` NewOrder transactions spread over `workers` warehouses, worker
/// `w` with seed `seed + w`. Returns the committed count.
pub fn ingest(system: &HtapSystem, txns: u64, workers: u64, seed: u64) -> u64 {
    let workers = workers.max(1);
    let per_worker = (txns / workers).max(1);
    let mut committed = 0;
    for w in 0..workers {
        committed +=
            system
                .txn_driver()
                .run_new_orders(system.rde().oltp(), w, per_worker, seed + w);
    }
    committed
}

/// One point of a measured (wall-clock) scaling sweep: the same plan over
/// the same data, executed by a worker team of the given size.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPoint {
    /// Pipeline workers (granted cores) of the run.
    pub workers: usize,
    /// Best wall-clock execution time over the repetitions, seconds.
    pub best_seconds: f64,
    /// Scan throughput at the best time, tuples per second.
    pub tuples_per_second: f64,
}

/// Measure wall-clock scan scaling of the morsel-driven executor: execute
/// `plan` with each worker count of `worker_counts` and report the best of
/// `repetitions` runs (the modelled times elsewhere in the harnesses are
/// deterministic; this is the one place real threads touch real data, so the
/// minimum over a few runs filters scheduler noise).
pub fn measured_scan_scaling(
    rde: &RdeEngine,
    plan: &QueryPlan,
    access: AccessMethod,
    worker_counts: &[usize],
    repetitions: usize,
) -> Vec<MeasuredPoint> {
    let sources = rde.sources_for(&plan.tables(), access);
    // Morsels small enough that even the tiny default scale gives every
    // worker of the largest team a queue to pull from.
    let executor = QueryExecutor::with_block_rows(4 * 1024);
    worker_counts
        .iter()
        .map(|&workers| {
            let team = WorkerTeam::from_cores((0..workers as u16).map(CoreId).collect());
            // Warm-up run: faults the columns in and spins the threads up once.
            let output = executor
                .execute_parallel(plan, &sources, &team)
                .expect("CH plan matches its sources");
            let tuples = output.work.tuples_scanned;
            let mut best = f64::INFINITY;
            for _ in 0..repetitions.max(1) {
                let start = Instant::now();
                let out = executor
                    .execute_parallel(plan, &sources, &team)
                    .expect("CH plan matches its sources");
                let elapsed = start.elapsed().as_secs_f64();
                assert_eq!(out.result, output.result, "parallel runs must agree");
                best = best.min(elapsed);
            }
            MeasuredPoint {
                workers,
                best_seconds: best,
                tuples_per_second: if best > 0.0 {
                    tuples as f64 / best
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Format a seconds value with µs precision for the experiment tables.
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.6}")
}

/// Format a throughput value as MTPS.
pub fn fmt_mtps(tps: f64) -> String {
    format!("{:.3}", tps / 1e6)
}

/// The executor micro-bench fixture: one synthetic fact relation with two
/// dimensions plus six queries over it, shared by the `olap/vectorized_*`
/// criterion benches (end-to-end numbers live in `bench_e2e/`).
pub mod exec_trajectory {
    use htap_olap::{QueryPlan, ScanSource};
    use htap_sim::SocketId;
    use htap_sql::Catalog;
    use htap_storage::{ColumnDef, ColumnarTable, DataType, TableSchema, TableSnapshot, Value};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Rows of the two dimensions.
    const DIM_ROWS: u64 = 64;
    const FAR_ROWS: u64 = 8;

    fn schema(name: &str, columns: &[(&str, DataType)]) -> TableSchema {
        let columns = columns
            .iter()
            .map(|&(column, dtype)| ColumnDef::new(column, dtype))
            .collect();
        TableSchema::new(name, columns, Some(0))
    }

    /// fact(f_id, f_mid → dim, f_g, f_hc, f_a, f_b), dim(d_id, d_far → far,
    /// d_v), far(r_id, r_v).
    pub fn schemas() -> [TableSchema; 3] {
        use DataType::{F64, I32, I64};
        [
            schema(
                "fact",
                &[
                    ("f_id", I64),
                    ("f_mid", I64),
                    ("f_g", I32),
                    ("f_hc", I64),
                    ("f_a", F64),
                    ("f_b", F64),
                ],
            ),
            schema("dim", &[("d_id", I64), ("d_far", I64), ("d_v", F64)]),
            schema("far", &[("r_id", I64), ("r_v", F64)]),
        ]
    }

    /// Build the fact/dim/far access paths with `rows` fact tuples.
    pub fn sources(rows: u64) -> BTreeMap<String, ScanSource> {
        let [fact, dim, far] = schemas().map(ColumnarTable::new);
        for i in 0..rows {
            fact.append_row(&[
                Value::I64(i as i64),
                Value::I64((i % DIM_ROWS) as i64),
                Value::I32((i % 24) as i32),
                Value::I64((i.wrapping_mul(2654435761) % 65536) as i64),
                Value::F64((i % 100) as f64 + 0.25),
                Value::F64((i % 13) as f64 * 0.5),
            ])
            .unwrap();
        }
        for i in 0..DIM_ROWS {
            dim.append_row(&[
                Value::I64(i as i64),
                Value::I64((i % FAR_ROWS) as i64),
                Value::F64(i as f64 * 3.0),
            ])
            .unwrap();
        }
        for i in 0..FAR_ROWS {
            far.append_row(&[Value::I64(i as i64), Value::F64(i as f64)])
                .unwrap();
        }
        [(fact, rows), (dim, DIM_ROWS), (far, FAR_ROWS)]
            .into_iter()
            .map(|(table, rows)| {
                let name = table.schema().name.clone();
                let snap = TableSnapshot::new(name.clone(), Arc::new(table), rows);
                (name, ScanSource::contiguous_snapshot(&snap, SocketId(0)))
            })
            .collect()
    }

    /// The six queries of the fixture, labelled by the CH query whose plan
    /// they mirror (plus a high-cardinality group-by — up to 64k scrambled
    /// groups, every row upserting — stressing the radix-partitioned merge).
    pub fn plans() -> Vec<(&'static str, QueryPlan)> {
        // The aggregates pin `fact` as the probe side of every join, so the
        // catalog cardinalities steer nothing here.
        let [fact, dim, far] = schemas();
        let catalog = Catalog::new()
            .with_table(fact, 128 * 1024)
            .with_table(dim, DIM_ROWS)
            .with_table(far, FAR_ROWS);
        [
            (
                "q6_aggregate",
                "SELECT SUM(f_a * f_b), AVG(f_a), COUNT(*) FROM fact WHERE f_a < 60",
            ),
            (
                "q1_group_by",
                "SELECT f_g, SUM(f_a), SUM(f_b), AVG(f_a), AVG(f_b), COUNT(*) FROM fact \
                 WHERE f_a >= 10 GROUP BY f_g",
            ),
            (
                "hicard_group_by",
                "SELECT f_hc, SUM(f_a), MAX(f_b), COUNT(*) FROM fact GROUP BY f_hc",
            ),
            (
                "q19_join",
                "SELECT SUM(f_a), COUNT(*) FROM fact JOIN dim ON f_mid = d_id \
                 WHERE f_a >= 5 AND d_v >= 30",
            ),
            (
                "q3_multi_join",
                "SELECT SUM(f_a), COUNT(*) FROM fact JOIN dim ON f_mid = d_id \
                 JOIN far ON d_far = r_id WHERE f_b >= 1 AND r_v >= 2",
            ),
            (
                "q4_join_group_by",
                "SELECT f_g, COUNT(*), SUM(f_a) FROM fact JOIN dim ON f_mid = d_id \
                 WHERE f_a >= 10 AND d_v >= 15 GROUP BY f_g ORDER BY COUNT(*) DESC LIMIT 10",
            ),
        ]
        .into_iter()
        .map(|(label, sql)| {
            let plan = htap_sql::plan(sql, &catalog)
                .unwrap_or_else(|e| panic!("fixture query {label} does not compile: {e}"));
            (label, plan)
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_known_flags_and_ignore_others() {
        let args = HarnessArgs::parse_from(
            [
                "--scale",
                "0.05",
                "--junk",
                "--sequences",
                "12",
                "--csv",
                "--concurrent",
                "--smoke",
                "--paper-mix",
                "--trace",
                "out.json",
            ]
            .into_iter()
            .map(String::from),
        );
        assert_eq!(args.scale, 0.05);
        assert_eq!(args.sequences, 12);
        assert!(args.csv);
        assert!(args.concurrent);
        assert!(args.smoke);
        assert!(args.paper_mix);
        assert_eq!(args.trace.as_deref(), Some("out.json"));
        let defaults = HarnessArgs::parse_from(std::iter::empty());
        assert_eq!(defaults, HarnessArgs::default());
    }

    #[test]
    fn chbench_config_is_bounded_below() {
        let args = HarnessArgs {
            scale: 0.0,
            ..HarnessArgs::default()
        };
        assert!(args.chbench().orderlines >= 6_000);
    }

    #[test]
    fn harness_builds_and_ingests() {
        let args = HarnessArgs {
            scale: 0.001,
            sequences: 1,
            ..HarnessArgs::default()
        };
        let system = args.system(Topology::two_socket());
        assert!(system.population().total_rows > 0);
        let committed = ingest(&system, 8, 4, 1);
        assert!(committed >= 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.1234567), "0.123457");
        assert_eq!(fmt_mtps(1_234_000.0), "1.234");
    }
}
