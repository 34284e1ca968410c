//! Per-layer metrics of a traced run. The benchmark's own stage timings
//! (`queries::Stages`, `ingest::TxnSample`) are canonical; `htap_obs` is only
//! *read* for the sub-splits it already records: `rde.switch` / `rde.etl`
//! spans, `olap.pipeline` worker busy time, pipeline phase events and the
//! lock / WAL-wait / apply phases of each commit.

use crate::ingest::TxnSample;
use crate::queries::QuerySample;
use crate::report::Report;
use crate::setup::QUERIES;
use crate::stats::{median, percentile};
use htap_core::SystemState;
use htap_obs::{EventKind, Span};

/// Ring lanes hold 2 048 events and drop the oldest; drain at least this
/// often while tracing.
pub const DRAIN_EVERY_MS: u64 = 50;

/// The library's span log keeps 8 192 root spans and drops newer ones; stop
/// tracing queries before it fills (each staged query is one root).
pub const MAX_TRACED_QUERIES: usize = 7_000;

/// Sums over the ring events drained so far.
#[derive(Debug, Default)]
pub struct RingTotals {
    pub build_us: u64,
    pub probe_us: u64,
    pub merge_us: u64,
    pub commit_lock_us: Vec<f64>,
    pub commit_wal_wait_us: Vec<f64>,
    pub commit_apply_us: Vec<f64>,
    pub dropped: u64,
}

impl RingTotals {
    /// Drain every ring lane into the totals.
    pub fn drain(&mut self) {
        let (lanes, dropped) = htap_obs::drain_events();
        self.dropped += dropped;
        for event in lanes.iter().flat_map(|(_, events)| events) {
            match event.kind {
                EventKind::PipelineBuild => self.build_us += event.b,
                EventKind::PipelineProbe => self.probe_us += event.b,
                EventKind::PipelineMerge => self.merge_us += event.b,
                EventKind::TxnCommit => {
                    let (lock, wal, apply) = htap_obs::unpack_phases(event.b);
                    self.commit_lock_us.push(lock as f64);
                    self.commit_wal_wait_us.push(wal as f64);
                    self.commit_apply_us.push(apply as f64);
                }
                _ => {}
            }
        }
    }
}

/// Sub-splits read from the library's span trees under each `bench.query`.
#[derive(Debug, Default)]
struct SpanTotals {
    switch_us: Vec<f64>,
    etl_us: Vec<f64>,
    /// Per query: `bench.run` wall time minus, per pipeline, the busiest
    /// worker's busy time — what dispatch, merge and waiting cost.
    dispatch_overhead_us: Vec<f64>,
    worker_busy_us: f64,
    worker_capacity_us: f64,
}

fn arg(span: &Span, key: &str) -> f64 {
    span.args
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| *v)
}

fn read_spans(roots: &[Span]) -> SpanTotals {
    let mut out = SpanTotals::default();
    for root in roots.iter().filter(|r| r.name == "bench.query") {
        if let Some(switch) = root.find("rde.switch") {
            out.switch_us.push(switch.duration_us() as f64);
        }
        if let Some(etl) = root.find("rde.etl") {
            out.etl_us.push(etl.duration_us() as f64);
        }
        let Some(run) = root.find("bench.run") else {
            continue;
        };
        let mut critical_busy = 0.0;
        for pipeline in run.children.iter().filter(|c| c.name == "olap.pipeline") {
            let busy: Vec<f64> = pipeline
                .children
                .iter()
                .filter(|c| c.name == "worker")
                .map(|w| arg(w, "busy_us"))
                .collect();
            critical_busy += busy.iter().copied().fold(0.0, f64::max);
            out.worker_busy_us += busy.iter().sum::<f64>();
            out.worker_capacity_us += arg(pipeline, "workers") * pipeline.duration_us() as f64;
        }
        out.dispatch_overhead_us
            .push((run.duration_us() as f64 - critical_busy).max(0.0));
    }
    out
}

/// Seconds from the run's origin to the last of `end_ns`: the time it took
/// to complete the operations (closed loop: the window plus the last round's
/// overrun; open loop: until the last due operation finished, so a backlog
/// lowers the rate).
pub fn last_end_s(end_ns: impl Iterator<Item = u64>) -> f64 {
    end_ns.max().unwrap_or(0).max(1) as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Percentage by which the traced median latency exceeds the untraced one
/// (0 when either side has no samples).
fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced <= 0.0 || traced <= 0.0 {
        return 0.0;
    }
    100.0 * (traced / untraced - 1.0)
}

const QUERY_P50_NAMES: [&str; 7] = [
    "olap.latency_p50_ms.q1",
    "olap.latency_p50_ms.q3",
    "olap.latency_p50_ms.q4",
    "olap.latency_p50_ms.q6",
    "olap.latency_p50_ms.q12",
    "olap.latency_p50_ms.q14",
    "olap.latency_p50_ms.q19",
];

/// `obs.tracing_overhead_pct` of a query workload: traced against untraced
/// median latency.
pub fn query_tracing_overhead_pct(samples: &[QuerySample]) -> f64 {
    let latencies = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(QuerySample::latency_ms)
            .collect()
    };
    overhead_pct(median(&latencies(true)), median(&latencies(false)))
}

/// `obs.tracing_overhead_pct` of a transaction workload: traced against
/// untraced median service time of the committed transactions.
pub fn txn_tracing_overhead_pct(samples: &[TxnSample]) -> f64 {
    let service = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.committed && s.traced == traced)
            .map(TxnSample::service_us)
            .collect()
    };
    overhead_pct(median(&service(true)), median(&service(false)))
}

/// Sum of the seven latencies of every complete sequence among `samples`
/// (consecutive, in issue order).
pub fn sequence_times_ms<'a>(samples: impl IntoIterator<Item = &'a QuerySample>) -> Vec<f64> {
    let samples: Vec<&QuerySample> = samples.into_iter().collect();
    samples
        .chunks_exact(QUERIES.len())
        .filter(|seq| seq.iter().enumerate().all(|(i, s)| s.query == i))
        .map(|seq| seq.iter().map(|s| s.latency_ms()).sum())
        .collect()
}

/// Fill the `sql`, `scheduler`, `rde`, `olap` and `core` metrics from the
/// traced samples of a query workload.
pub fn fill_query_layers(report: &mut Report, samples: &[QuerySample], rings: &RingTotals) {
    let traced: Vec<&QuerySample> = samples.iter().filter(|s| s.traced).collect();
    let staged: Vec<_> = traced
        .iter()
        .filter_map(|s| s.stages().map(|st| (*s, st)))
        .collect();
    let n = staged.len() as f64;
    let us = |f: fn(&crate::queries::Stages) -> u64| -> Vec<f64> {
        staged.iter().map(|(_, st)| f(st) as f64 / 1e3).collect()
    };
    let total_ns = |f: fn(&crate::queries::Stages) -> u64| -> f64 {
        staged.iter().map(|(_, st)| f(st) as f64).sum()
    };
    let latencies: Vec<f64> = traced.iter().map(|s| s.latency_ms()).collect();
    report.set("olap.latency_p50_ms", median(&latencies));
    report.set("olap.latency_p95_ms", percentile(&latencies, 95.0));
    report.set(
        "olap.seq_time_p50_ms",
        median(&sequence_times_ms(traced.iter().copied())),
    );
    report.set(
        "olap.queries_per_s",
        ratio(
            samples.len() as f64,
            last_end_s(samples.iter().map(|s| s.end_ns)),
        ),
    );
    for (q, name) in QUERY_P50_NAMES.iter().enumerate() {
        let of_query: Vec<f64> = traced
            .iter()
            .filter(|s| s.query == q)
            .map(|s| s.latency_ms())
            .collect();
        report.set(name, median(&of_query));
    }
    report.set("obs.traced_ops", traced.len() as f64);
    if staged.is_empty() {
        return;
    }

    // Service time of the staged queries (start to end, without queueing).
    let service_ns: f64 = staged
        .iter()
        .map(|(s, _)| s.end_ns.saturating_sub(s.start_ns) as f64)
        .sum();
    let plan_us = us(|st| st.plan_ns);
    report.set("sql.plan_p50_us", median(&plan_us));
    report.set(
        "sql.plan_share",
        ratio(total_ns(|st| st.plan_ns), service_ns),
    );
    let schedule_us = us(|st| st.schedule_ns);
    report.set("scheduler.schedule_p50_us", median(&schedule_us));
    report.set("scheduler.schedule_p95_us", percentile(&schedule_us, 95.0));
    let share_of =
        |state: SystemState| staged.iter().filter(|(_, st)| st.state == state).count() as f64 / n;
    report.set(
        "scheduler.state_share.s2",
        share_of(SystemState::S2Isolated),
    );
    report.set(
        "scheduler.state_share.s3ni",
        share_of(SystemState::S3HybridNonIsolated),
    );
    let freshness: Vec<f64> = staged.iter().map(|(_, st)| st.freshness_rate).collect();
    report.set("scheduler.freshness_rate_p50", median(&freshness));
    let synced: f64 = staged.iter().map(|(_, st)| st.synced_records as f64).sum();
    report.set("rde.switch.synced_records_per_query", synced / n);
    let etls: Vec<(u64, u64)> = staged.iter().filter_map(|(_, st)| st.etl).collect();
    report.set("rde.etl.count", etls.len() as f64);
    report.set(
        "rde.etl.bytes_per_query",
        etls.iter().map(|e| e.1 as f64).sum::<f64>() / n,
    );
    let migrations = staged
        .windows(2)
        .filter(|w| w[0].1.state != w[1].1.state || w[0].1.olap_cores != w[1].1.olap_cores)
        .count();
    report.set("rde.migrate.count", migrations as f64);

    let run_ms: Vec<f64> = staged
        .iter()
        .map(|(_, st)| st.run_ns as f64 / 1e6)
        .collect();
    report.set("olap.run_p50_ms", median(&run_ms));
    report.set("olap.run_p95_ms", percentile(&run_ms, 95.0));
    let run_s = total_ns(|st| st.run_ns) / 1e9;
    report.set(
        "olap.scan_rows_per_s",
        ratio(
            staged.iter().map(|(_, st)| st.tuples_scanned as f64).sum(),
            run_s,
        ),
    );
    report.set(
        "olap.scan_bytes_per_s",
        ratio(
            staged.iter().map(|(_, st)| st.bytes_scanned as f64).sum(),
            run_s,
        ),
    );
    report.set("olap.phase.build_ms", rings.build_us as f64 / 1e3 / n);
    report.set("olap.phase.probe_ms", rings.probe_us as f64 / 1e3 / n);
    report.set("olap.phase.merge_ms", rings.merge_us as f64 / 1e3 / n);

    report.set("core.model_p50_us", median(&us(|st| st.model_ns)));
    let stage_ns = total_ns(|st| st.plan_ns + st.schedule_ns + st.run_ns + st.model_ns);
    report.set(
        "core.unattributed_share",
        (1.0 - ratio(stage_ns, service_ns)).max(0.0),
    );

    let spans = read_spans(&htap_obs::spans_snapshot());
    report.set("rde.switch_p50_us", median(&spans.switch_us));
    report.set("rde.switch_p95_us", percentile(&spans.switch_us, 95.0));
    let etl_ms: Vec<f64> = spans.etl_us.iter().map(|u| u / 1e3).collect();
    report.set("rde.etl_p50_ms", median(&etl_ms));
    report.set(
        "rde.etl.rows_per_s",
        ratio(
            etls.iter().map(|e| e.0 as f64).sum(),
            spans.etl_us.iter().sum::<f64>() / 1e6,
        ),
    );
    report.set(
        "olap.worker_busy_share",
        ratio(spans.worker_busy_us, spans.worker_capacity_us),
    );
    report.set(
        "olap.dispatch_overhead_us",
        median(&spans.dispatch_overhead_us),
    );
    report.set("obs.spans_dropped", htap_obs::spans_dropped() as f64);
}

/// Longest gap between two consecutive completions of one worker, in ms —
/// how long a switch gate or checkpoint held the ingest side up.
fn gate_stall_max_ms(samples: &[TxnSample]) -> f64 {
    let mut last_end = std::collections::BTreeMap::new();
    let mut longest = 0u64;
    for s in samples {
        if let Some(prev) = last_end.insert(s.worker, s.end_ns) {
            longest = longest.max(s.end_ns.saturating_sub(prev));
        }
    }
    longest as f64 / 1e6
}

/// Fill the `oltp` metrics (and the generator's lateness) from the
/// transaction samples; commit phases come from the traced slices' ring
/// events.
pub fn fill_txn_layers(report: &mut Report, samples: &[TxnSample], rings: &RingTotals) {
    if samples.is_empty() {
        return;
    }
    let committed: Vec<&TxnSample> = samples.iter().filter(|s| s.committed).collect();
    report.set(
        "oltp.tps",
        ratio(
            committed.len() as f64,
            last_end_s(committed.iter().map(|s| s.end_ns)),
        ),
    );
    let latency: Vec<f64> = committed.iter().map(|s| s.latency_us()).collect();
    report.set("oltp.txn.latency_p50_us", median(&latency));
    report.set("oltp.txn.latency_p95_us", percentile(&latency, 95.0));
    report.set("oltp.txn.latency_p99_us", percentile(&latency, 99.0));
    let service: Vec<f64> = committed.iter().map(|s| s.service_us()).collect();
    report.set("oltp.txn.service_p50_us", median(&service));
    report.set("oltp.txn.service_p99_us", percentile(&service, 99.0));
    report.set("oltp.txn.attempted", samples.len() as f64);
    report.set(
        "oltp.txn.abort_share",
        (samples.len() - committed.len()) as f64 / samples.len() as f64,
    );
    report.set(
        "oltp.txn.retries",
        samples.iter().map(|s| f64::from(s.retries)).sum(),
    );
    report.set("oltp.commit.lock_p50_us", median(&rings.commit_lock_us));
    report.set(
        "oltp.commit.wal_wait_p50_us",
        median(&rings.commit_wal_wait_us),
    );
    report.set("oltp.commit.apply_p50_us", median(&rings.commit_apply_us));
    report.set("oltp.gate_stall_max_ms", gate_stall_max_ms(samples));
    let late: Vec<f64> = samples.iter().map(TxnSample::late_us).collect();
    report.set("gen.txn_late_p95_us", percentile(&late, 95.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        args: Vec<(&'static str, f64)>,
        children: Vec<Span>,
    ) -> Span {
        Span {
            name,
            detail: String::new(),
            start_us: start,
            end_us: end,
            args,
            children,
        }
    }

    #[test]
    fn span_reader_finds_switch_etl_and_worker_rollups() {
        let pipeline = span(
            "olap.pipeline",
            100,
            200,
            vec![("workers", 2.0)],
            vec![
                span("worker", 100, 190, vec![("busy_us", 80.0)], vec![]),
                span("worker", 100, 200, vec![("busy_us", 60.0)], vec![]),
            ],
        );
        let root = span(
            "bench.query",
            0,
            260,
            vec![],
            vec![
                span(
                    "bench.schedule",
                    10,
                    90,
                    vec![],
                    vec![span(
                        "rde.schedule",
                        10,
                        90,
                        vec![],
                        vec![
                            span("rde.switch", 10, 40, vec![], vec![]),
                            span("rde.etl", 40, 80, vec![], vec![]),
                        ],
                    )],
                ),
                span("bench.run", 95, 245, vec![], vec![pipeline]),
            ],
        );
        let other = span("query", 0, 10, vec![], vec![]);
        let totals = read_spans(&[root, other]);
        assert_eq!(totals.switch_us, [30.0]);
        assert_eq!(totals.etl_us, [40.0]);
        assert_eq!(totals.dispatch_overhead_us, [150.0 - 80.0]);
        assert_eq!(
            (totals.worker_busy_us, totals.worker_capacity_us),
            (140.0, 200.0)
        );
    }

    #[test]
    fn overhead_and_gate_stall_arithmetic() {
        assert!((overhead_pct(1.02, 1.0) - 2.0).abs() < 1e-9);
        assert_eq!(overhead_pct(0.0, 1.0), 0.0);
        let txn = |worker, end_ns| TxnSample {
            due_ns: 0,
            start_ns: 0,
            end_ns,
            committed: true,
            retries: 0,
            traced: true,
            worker,
        };
        let samples = [
            txn(0, 1_000_000),
            txn(1, 2_000_000),
            txn(0, 9_000_000),
            txn(1, 3_000_000),
        ];
        assert_eq!(gate_stall_max_ms(&samples), 8.0);
    }
}
