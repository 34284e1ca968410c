//! The mixed HTAP workload driver: transactions interleaved with — or, in
//! concurrent mode, continuously flowing under — analytical query sequences,
//! the shape of the paper's adaptive experiment (Figure 5).

use crate::report::{QueryReport, SequenceReport};
use crate::system::{HtapSystem, SqlRunError};
use htap_chbench::{QueryId, QuerySequence, SequenceKind};
use std::time::{Duration, Instant};

/// Description of a mixed workload: `sequences` analytical sequences, with
/// `txns_per_worker_between` NewOrder transactions per worker ingested before
/// every sequence (the concurrent transactional queue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedWorkload {
    /// The analytical sequence executed repeatedly.
    pub sequence: QuerySequence,
    /// How many times the sequence is executed.
    pub sequences: usize,
    /// NewOrder transactions per worker ingested before each sequence.
    pub txns_per_worker_between: u64,
}

impl MixedWorkload {
    /// The paper's Figure-5 workload: `n` repetitions of the {Q1, Q6, Q19}
    /// mix with fresh transactions before each one.
    pub fn figure5(n: usize, txns_per_worker_between: u64) -> Self {
        MixedWorkload {
            sequence: QuerySequence::mix(),
            sequences: n,
            txns_per_worker_between,
        }
    }

    /// The widened Figure-5 workload: `n` repetitions of the full
    /// {Q1, Q3, Q4, Q6, Q12, Q14, Q19} mix — scalar and grouped sinks and
    /// relation footprints from one to three tables, so the adaptive
    /// scheduler's per-query freshness decisions actually diverge within a
    /// sequence.
    pub fn figure5_wide(n: usize, txns_per_worker_between: u64) -> Self {
        MixedWorkload {
            sequence: QuerySequence::wide_mix(),
            sequences: n,
            txns_per_worker_between,
        }
    }

    /// A batch workload: `n` snapshots, each with a batch of `batch_size`
    /// copies of one query (Figure 3(b) shape).
    pub fn batches(query: QueryId, batch_size: usize, n: usize, txns: u64) -> Self {
        MixedWorkload {
            sequence: QuerySequence::batch(query, batch_size),
            sequences: n,
            txns_per_worker_between: txns,
        }
    }
}

/// The outcome of a mixed-workload run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MixedWorkloadReport {
    /// One report per executed sequence.
    pub sequences: Vec<SequenceReport>,
    /// Transactions committed over the whole run.
    pub transactions_committed: u64,
    /// Transactions aborted over the whole run (NO-WAIT lock conflicts and
    /// first-committer-wins validation failures).
    pub transactions_aborted: u64,
}

impl MixedWorkloadReport {
    /// Total analytical time across sequences.
    pub fn total_query_time(&self) -> f64 {
        self.sequences.iter().map(SequenceReport::total_time).sum()
    }

    /// Mean OLTP throughput (MTPS) across sequences.
    pub fn mean_oltp_mtps(&self) -> f64 {
        if self.sequences.is_empty() {
            return 0.0;
        }
        self.sequences
            .iter()
            .map(SequenceReport::oltp_mtps)
            .sum::<f64>()
            / self.sequences.len() as f64
    }

    /// Number of ETLs the scheduler triggered over the run.
    pub fn etl_count(&self) -> usize {
        self.sequences.iter().map(SequenceReport::etl_count).sum()
    }

    /// The per-sequence execution times (the series Figure 5(a) plots).
    pub fn sequence_times(&self) -> Vec<f64> {
        self.sequences
            .iter()
            .map(SequenceReport::total_time)
            .collect()
    }

    /// The per-sequence OLTP throughputs in MTPS (Figure 5(b) series).
    pub fn sequence_mtps(&self) -> Vec<f64> {
        self.sequences
            .iter()
            .map(SequenceReport::oltp_mtps)
            .collect()
    }
}

/// Execute a mixed workload against a system, under its current schedule.
///
/// Stops at — and reports — the first query that fails; the CH-benCHmark
/// queries always compile against and match the CH schema, so an error here
/// means the system was built without its relations.
pub fn run_mixed_workload(
    system: &HtapSystem,
    workload: &MixedWorkload,
) -> Result<MixedWorkloadReport, SqlRunError> {
    let aborted_before = system.txn_driver().stats().aborted();
    let mut report = drive_sequences(system, workload, None)?;
    report.transactions_aborted = system.txn_driver().stats().aborted() - aborted_before;
    Ok(report)
}

/// The one per-sequence loop of both drivers. A unit is one independent
/// query, or one batch (a run of copies of one query in a batch sequence),
/// which [`HtapSystem::execute_batch`] schedules once. Without `pacing` the
/// driver ingests `txns_per_worker_between` transactions per worker before
/// each sequence; with it, ingest is continuous and each unit is paced and
/// measured as one window.
fn drive_sequences(
    system: &HtapSystem,
    workload: &MixedWorkload,
    pacing: Option<&ConcurrentOptions>,
) -> Result<MixedWorkloadReport, SqlRunError> {
    let mut report = MixedWorkloadReport::default();
    let sequence = &workload.sequence;
    let units: Vec<&[QueryId]> = match sequence.kind {
        SequenceKind::Independent => sequence.queries.chunks(1).collect(),
        SequenceKind::Batch => sequence.queries.chunk_by(|a, b| a == b).collect(),
    };
    for sequence_idx in 0..workload.sequences {
        if pacing.is_none() && workload.txns_per_worker_between > 0 {
            report.transactions_committed += system.run_oltp(workload.txns_per_worker_between);
        }
        let mut seq_report = SequenceReport {
            sequence: sequence_idx,
            queries: Vec::new(),
        };
        for unit in &units {
            let window = pacing.map(|options| Window::paced(system, options));
            let mut reports = match sequence.kind {
                SequenceKind::Independent => vec![system.execute_query(unit[0])?],
                SequenceKind::Batch => system.execute_batch(unit[0], unit.len())?,
            };
            if let Some(window) = window {
                window.close(system, &mut reports);
            }
            seq_report.queries.append(&mut reports);
        }
        report.sequences.push(seq_report);
    }
    Ok(report)
}

/// One measurement window of the concurrent driver: it spans the pacing
/// wait plus the query or batch — the concurrent interval Figure 5(b) plots.
struct Window {
    start: Instant,
    commits_before: u64,
}

impl Window {
    /// Open a window, then wait for `options.pacing_commits` commits.
    fn paced(system: &HtapSystem, options: &ConcurrentOptions) -> Self {
        let window = Window {
            start: Instant::now(),
            commits_before: system.oltp_live_counts().committed,
        };
        if options.pacing_commits > 0 {
            let deadline = window.start + options.max_pacing_wait;
            while system
                .oltp_live_counts()
                .committed
                .saturating_sub(window.commits_before)
                < options.pacing_commits
                && Instant::now() < deadline
            {
                // Sleep rather than spin: on small hosts a busy wait would
                // starve the very ingest threads it waits on.
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        window
    }

    /// Close the window over the reports of one unit: each gets the
    /// window's measured commit rate and an equal share of its length.
    fn close(self, system: &HtapSystem, reports: &mut [QueryReport]) {
        let elapsed = self.start.elapsed().as_secs_f64();
        let commits = system
            .oltp_live_counts()
            .committed
            .saturating_sub(self.commits_before);
        // Always prefer the measurement over the model, even when the window
        // saw zero commits (an honest 0 beats silently reverting to the
        // interference constant — and it keeps every weight in
        // SequenceReport::oltp_mtps in the same wall-clock time base).
        if elapsed <= 0.0 {
            return;
        }
        let oltp_tps = commits as f64 / elapsed;
        let share = elapsed / reports.len() as f64;
        for report in reports {
            report.oltp_tps = oltp_tps;
            report.oltp_tps_measured = true;
            report.oltp_sample_window = share;
        }
    }
}

/// Pacing of the concurrent mixed-workload driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcurrentOptions {
    /// Commits that must land between consecutive queries (or batches)
    /// before the next is issued. This keeps freshness moving even on slow
    /// or single-core hosts where the analytical path could otherwise outrun
    /// the ingest threads; 0 disables pacing.
    pub pacing_commits: u64,
    /// Upper bound on any single pacing wait, so a stalled ingest pool can
    /// never wedge the experiment.
    pub max_pacing_wait: Duration,
}

impl Default for ConcurrentOptions {
    fn default() -> Self {
        ConcurrentOptions {
            pacing_commits: 8,
            max_pacing_wait: Duration::from_secs(5),
        }
    }
}

impl ConcurrentOptions {
    /// Pacing suited to CI smoke runs: barely-there waits, bounded tightly.
    pub fn smoke() -> Self {
        ConcurrentOptions {
            pacing_commits: 2,
            max_pacing_wait: Duration::from_millis(500),
        }
    }
}

/// Execute a mixed workload with NewOrder ingest running *concurrently*: the
/// OLTP worker pool ingests continuously on the cores the RDE engine grants
/// it (resized mid-flight by every migration) while the analytical sequences
/// execute. Freshness is re-measured per query — per batch, for a batch
/// sequence — against the live delta stream, and each query's `oltp_tps` is
/// derived from the commit counters sampled around it (around the whole
/// batch, for its members) rather than the interference model.
///
/// `transactions_committed` / `transactions_aborted` report what the pool
/// did *during this run* — NO-WAIT aborts are counted, not retried.
/// `workload.txns_per_worker_between` is ignored: ingest is continuous,
/// paced only by `options`. A pool this call started is always stopped
/// before returning, also on error; a pool the caller had already started
/// is left running and accounted by live-counter deltas instead.
pub fn run_mixed_workload_concurrent(
    system: &HtapSystem,
    workload: &MixedWorkload,
    options: &ConcurrentOptions,
) -> Result<MixedWorkloadReport, SqlRunError> {
    let started_here = system.start_oltp_ingest() > 0;
    let at_entry = system.oltp_live_counts();
    let result = drive_sequences(system, workload, Some(options));
    let (committed, aborted) = if started_here {
        let pool = system.stop_oltp_ingest();
        (pool.committed(), pool.aborted())
    } else {
        // saturating: if the caller stopped their own pool mid-run, the live
        // counters reset to zero and a plain subtraction would underflow.
        let now = system.oltp_live_counts();
        (
            now.committed.saturating_sub(at_entry.committed),
            now.aborted.saturating_sub(at_entry.aborted),
        )
    };
    let mut report = result?;
    report.transactions_committed = committed;
    report.transactions_aborted = aborted;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HtapConfig;
    use htap_rde::SystemState;
    use htap_scheduler::Schedule;

    fn tiny_system() -> HtapSystem {
        HtapSystem::build(HtapConfig::tiny()).unwrap()
    }

    #[test]
    fn mixed_workload_runs_all_sequences_and_ingests_transactions() {
        let system = tiny_system();
        let workload = MixedWorkload::figure5(3, 2);
        let report = run_mixed_workload(&system, &workload).unwrap();
        assert_eq!(report.sequences.len(), 3);
        assert!(report.transactions_committed >= 3 * 2);
        assert_eq!(report.sequence_times().len(), 3);
        assert!(report.total_query_time() > 0.0);
        assert!(report.mean_oltp_mtps() > 0.0);
        // Every sequence ran the three-query mix.
        assert!(report.sequences.iter().all(|s| s.queries.len() == 3));
    }

    #[test]
    fn batch_workload_pays_scheduling_once_per_batch() {
        let system = tiny_system();
        system.set_schedule(Schedule::Static(SystemState::S2Isolated));
        let workload = MixedWorkload::batches(QueryId::Q6, 4, 1, 1);
        let report = run_mixed_workload(&system, &workload).unwrap();
        let queries = &report.sequences[0].queries;
        assert_eq!(queries.len(), 4);
        assert!(queries[0].scheduling_time > 0.0 || queries[0].performed_etl);
        for q in &queries[1..] {
            assert_eq!(q.scheduling_time, 0.0);
        }
        assert_eq!(report.etl_count(), 1);
        assert_eq!(system.with_scheduler(|s| s.etl_count()), 1);
    }

    #[test]
    fn static_s2_schedule_etls_every_independent_query() {
        let system = tiny_system();
        system.set_schedule(Schedule::Static(SystemState::S2Isolated));
        let workload = MixedWorkload::figure5(2, 1);
        let report = run_mixed_workload(&system, &workload).unwrap();
        // Three independent queries per sequence, each taking the ETL path.
        assert_eq!(report.etl_count(), 2 * 3);
    }

    #[test]
    fn empty_report_is_well_defined() {
        let report = MixedWorkloadReport::default();
        assert_eq!(report.mean_oltp_mtps(), 0.0);
        assert_eq!(report.total_query_time(), 0.0);
        assert_eq!(report.etl_count(), 0);
        assert_eq!(report.transactions_aborted, 0);
    }

    #[test]
    fn sequential_mode_counts_aborts_from_driver_statistics() {
        let system = tiny_system();
        let workload = MixedWorkload::figure5(2, 3);
        let report = run_mixed_workload(&system, &workload).unwrap();
        // Sequential ingest runs one worker at a time, so whatever the driver
        // recorded is exactly what the report must surface.
        assert_eq!(
            report.transactions_aborted,
            system.txn_driver().stats().aborted()
        );
    }

    #[test]
    fn wide_mix_runs_all_seven_queries_per_sequence() {
        let system = tiny_system();
        let workload = MixedWorkload::figure5_wide(2, 2);
        let report = run_mixed_workload(&system, &workload).unwrap();
        assert_eq!(report.sequences.len(), 2);
        for seq in &report.sequences {
            let labels: Vec<&str> = seq.queries.iter().map(|q| q.query.as_str()).collect();
            assert_eq!(labels, vec!["Q1", "Q3", "Q4", "Q6", "Q12", "Q14", "Q19"]);
            for q in &seq.queries {
                assert!(
                    (0.0..=1.0).contains(&q.freshness_rate),
                    "{}: freshness {} out of range",
                    q.query,
                    q.freshness_rate
                );
                assert!(q.execution_time > 0.0, "{} must execute", q.query);
            }
        }
    }

    /// Acceptance criterion of the widened workload: the new queries run
    /// through the *concurrent* driver, against live mixed-transaction
    /// ingest, each reporting per-query freshness and measured throughput.
    #[test]
    fn wide_mix_runs_concurrently_with_per_query_freshness() {
        let system = tiny_system();
        let workload = MixedWorkload::figure5_wide(1, 0);
        let options = ConcurrentOptions {
            pacing_commits: 3,
            max_pacing_wait: std::time::Duration::from_secs(60),
        };
        let report = run_mixed_workload_concurrent(&system, &workload, &options).unwrap();
        assert_eq!(report.sequences.len(), 1);
        let queries = &report.sequences[0].queries;
        assert_eq!(queries.len(), 7);
        for required in ["Q3", "Q4", "Q12", "Q14"] {
            let q = queries
                .iter()
                .find(|q| q.query == required)
                .unwrap_or_else(|| panic!("{required} missing from the wide mix"));
            assert!(
                (0.0..=1.0).contains(&q.freshness_rate),
                "{required}: freshness {} out of range",
                q.freshness_rate
            );
            assert!(q.oltp_tps_measured, "{required} must carry measured tps");
        }
        assert!(report.transactions_committed > 0);
        assert!(!system.oltp_ingest_running());
    }

    #[test]
    fn concurrent_workload_runs_with_live_ingest() {
        let system = tiny_system();
        let workload = MixedWorkload::figure5(1, 0);
        let options = ConcurrentOptions {
            pacing_commits: 5,
            max_pacing_wait: std::time::Duration::from_secs(60),
        };
        let report = run_mixed_workload_concurrent(&system, &workload, &options).unwrap();
        assert_eq!(report.sequences.len(), 1);
        assert_eq!(report.sequences[0].queries.len(), 3);
        assert!(report.transactions_committed > 0);
        assert!(report.sequences[0]
            .queries
            .iter()
            .all(|q| q.oltp_tps_measured && q.oltp_tps > 0.0));
        assert!(!system.oltp_ingest_running());
    }
}
