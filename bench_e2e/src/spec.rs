//! The benchmark's fixed vocabulary: workload names, metric names with unit,
//! direction and regression bound. `BENCHMARK.json` at the repository root is
//! `bench_e2e --print-spec`; a unit test keeps the two identical, so a name
//! can only change here.

use crate::json::Value;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The command the driver runs from the repository root.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "bench_e2e/Cargo.toml",
    "--",
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const OLAP_SCAN: &str = "olap_scan";
pub const OLAP_SHORT: &str = "olap_short";
pub const OLTP_DURABLE: &str = "oltp_durable";
pub const HTAP_MIX: &str = "htap_mix";
pub const HTAP_MIX_OLTP: &str = "htap_mix_oltp";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: OLAP_SCAN,
        why: "seven CH queries as SQL, closed loop, 1.8M-row fact table far above L2, no ingest: the olap layer is nearly all of the latency, so a kernel or hash-table change shows here and nowhere else",
    },
    Workload {
        name: OLAP_SHORT,
        why: "same loop on a 30k-row table that fits L2: fixed per-query cost (plan, switch+sync, dispatch, report) dominates, so per-query set-up added to speed big scans shows as a loss",
    },
    Workload {
        name: OLTP_DURABLE,
        why: "45/43/6/6 transaction mix, closed loop on a group-commit WAL over an in-memory medium, three checkpoints, then reopen: oltp and durability do all the work, olap and sql none",
    },
    Workload {
        name: HTAP_MIX,
        why: "Figure-5 shape, open loop on both sides (3000 tps ingest, one query per 50 ms), adaptive schedule: reports the query side, where switch, sync and ETL carry weight",
    },
    Workload {
        name: HTAP_MIX_OLTP,
        why: "the same run as htap_mix seen from the ingest side: transaction latency from its due time, so a scan gain that lengthens the switch gate shows as a loss here",
    },
];

/// A metric a user of the system sees, reported by every workload for its
/// primary operation; `bound` is the share of the parent's median by which it
/// may worsen. The bounds are sized from the run-to-run spread measured on the
/// 2-vCPU sandbox this was built on (interquartile over ten seeds 2–12 %,
/// medians drifting by up to 10 % between sets of runs minutes apart): about
/// twice the widest spread seen in a quiet set, capped at 25 %.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer (layer = crate name before the first dot). No bound:
/// it explains a movement, it does not gate one.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 72] = [
    // sql: parse + bind + plan of the query text.
    lower("sql.plan_p50_us", "us"),
    lower("sql.plan_share", "share"),
    // scheduler + rde: switch, sync, freshness, state choice, ETL, migration.
    lower("scheduler.schedule_p50_us", "us"),
    lower("scheduler.schedule_p95_us", "us"),
    lower("scheduler.state_share.s2", "share"),
    higher("scheduler.state_share.s3ni", "share"),
    higher("scheduler.freshness_rate_p50", "share"),
    lower("rde.switch_p50_us", "us"),
    lower("rde.switch_p95_us", "us"),
    lower("rde.switch.synced_records_per_query", "count"),
    lower("rde.etl_p50_ms", "ms"),
    lower("rde.etl.count", "count"),
    higher("rde.etl.rows_per_s", "1/s"),
    lower("rde.etl.bytes_per_query", "bytes"),
    lower("rde.migrate.count", "count"),
    // olap: morsel-driven execution of the plan.
    lower("olap.latency_p50_ms", "ms"),
    lower("olap.latency_p95_ms", "ms"),
    lower("olap.seq_time_p50_ms", "ms"),
    higher("olap.queries_per_s", "1/s"),
    lower("olap.run_p50_ms", "ms"),
    lower("olap.run_p95_ms", "ms"),
    higher("olap.scan_rows_per_s", "1/s"),
    higher("olap.scan_bytes_per_s", "bytes/s"),
    higher("olap.worker_busy_share", "share"),
    lower("olap.dispatch_overhead_us", "us"),
    lower("olap.phase.build_ms", "ms"),
    lower("olap.phase.probe_ms", "ms"),
    lower("olap.phase.merge_ms", "ms"),
    lower("olap.latency_p50_ms.q1", "ms"),
    lower("olap.latency_p50_ms.q3", "ms"),
    lower("olap.latency_p50_ms.q4", "ms"),
    lower("olap.latency_p50_ms.q6", "ms"),
    lower("olap.latency_p50_ms.q12", "ms"),
    lower("olap.latency_p50_ms.q14", "ms"),
    lower("olap.latency_p50_ms.q19", "ms"),
    // oltp: transaction execution and commit.
    higher("oltp.tps", "1/s"),
    lower("oltp.txn.latency_p50_us", "us"),
    lower("oltp.txn.latency_p95_us", "us"),
    lower("oltp.txn.latency_p99_us", "us"),
    lower("oltp.txn.service_p50_us", "us"),
    lower("oltp.txn.service_p99_us", "us"),
    higher("oltp.txn.attempted", "count"),
    lower("oltp.txn.abort_share", "share"),
    lower("oltp.txn.retries", "count"),
    lower("oltp.commit.lock_p50_us", "us"),
    lower("oltp.commit.wal_wait_p50_us", "us"),
    lower("oltp.commit.apply_p50_us", "us"),
    lower("oltp.gate_stall_max_ms", "ms"),
    // durability: WAL group commit, checkpoints, recovery.
    higher("durability.wal.records_per_fsync", "count"),
    lower("durability.wal.fsyncs_per_s", "1/s"),
    lower("durability.wal.bytes_per_commit", "bytes"),
    lower("durability.checkpoint.p50_ms", "ms"),
    lower("durability.checkpoint.count", "count"),
    lower("durability.checkpoint.bytes", "bytes"),
    lower("durability.recovery_s", "s"),
    lower("durability.recovery.replayed_records", "count"),
    // storage: the twin OLTP instances and the OLAP copy.
    lower("storage.oltp_instance_bytes", "bytes"),
    lower("storage.olap_instance_bytes", "bytes"),
    lower("storage.space_amplification", "ratio"),
    higher("storage.rows_total_end", "count"),
    // core: the facade's own share (modelling calls, glue).
    lower("core.model_p50_us", "us"),
    lower("core.unattributed_share", "share"),
    // obs: what tracing costs and loses.
    lower("obs.tracing_overhead_pct", "%"),
    lower("obs.ring_dropped", "count"),
    lower("obs.spans_dropped", "count"),
    higher("obs.traced_ops", "count"),
    // gen: how late the open-loop generators ran.
    lower("gen.query_late_p95_ms", "ms"),
    lower("gen.txn_late_p95_us", "us"),
    // host: the machine under the numbers (compare same-host only).
    higher("host.nproc", "count"),
    higher("host.memcpy_gb_per_s", "GB/s"),
    lower("host.fsync_p50_us", "us"),
    lower("host.steal_pct", "%"),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["bench_e2e"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn readme_glossary_names_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md lacks `{name}`"
            );
        }
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json().render_pretty(),
            "regenerate with: bench_e2e --print-spec > BENCHMARK.json"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
