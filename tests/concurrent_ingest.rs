//! Concurrent-ingest integration tests: NewOrder traffic flowing
//! continuously while analytical sequences execute.
//!
//! These cover the acceptance criteria of the concurrent mixed-workload
//! subsystem: freshness-rate decreasing across the queries of one sequence
//! while ingest runs, per-query OLTP throughput derived from real commit
//! counters, NO-WAIT aborts counted rather than silently lost, and
//! sequential mode staying bit-for-bit deterministic.

use adaptive_htap::chbench::keys;
use adaptive_htap::core::{
    run_mixed_workload, run_mixed_workload_concurrent, ConcurrentOptions, MixedWorkload,
    QuerySequence, SchedulerPolicy,
};
use adaptive_htap::{HtapConfig, HtapSystem, QueryId, Schedule, SystemState};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_system_with_schedule(schedule: Schedule) -> HtapSystem {
    HtapSystem::build(HtapConfig::tiny().with_schedule(schedule)).expect("system builds")
}

#[test]
fn freshness_decreases_within_a_sequence_while_ingest_runs() {
    // Static S3-NI never ETLs, so once the OLAP instance is seeded, fresh
    // data only accumulates — each query of the sequence must observe a
    // strictly lower freshness-rate than the one before it.
    let system = tiny_system_with_schedule(Schedule::Static(SystemState::S3HybridNonIsolated));
    system.rde().switch_and_sync();
    system.rde().etl_to_olap();

    let workload = MixedWorkload {
        sequence: QuerySequence::repeated(QueryId::Q6, 4),
        sequences: 1,
        txns_per_worker_between: 0,
    };
    let options = ConcurrentOptions {
        pacing_commits: 25,
        max_pacing_wait: Duration::from_secs(60),
    };
    let report = run_mixed_workload_concurrent(&system, &workload, &options).unwrap();

    let queries = &report.sequences[0].queries;
    assert_eq!(queries.len(), 4);
    for pair in queries.windows(2) {
        assert!(
            pair[1].freshness_rate < pair[0].freshness_rate,
            "freshness must decay under live ingest: {:?}",
            queries.iter().map(|q| q.freshness_rate).collect::<Vec<_>>()
        );
    }
    for q in queries {
        assert!(
            (0.0..=1.0).contains(&q.freshness_rate),
            "freshness-rate must stay clamped to [0, 1], got {}",
            q.freshness_rate
        );
    }
    assert!(report.transactions_committed > 0);
}

/// Acceptance criterion of the SQL frontend: an *ad-hoc* SQL query arriving
/// mid-stream — while continuous OLTP ingest is mutating the very relations
/// it reads — plans, schedules and executes like `execute_query`, reporting
/// freshness against the live delta stream and carrying its SQL text.
#[test]
fn adhoc_sql_executes_against_live_ingest() {
    let system = tiny_system_with_schedule(Schedule::Adaptive(
        SchedulerPolicy::adaptive_non_isolated(0.5),
    ));
    assert!(system.start_oltp_ingest() > 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    while system.oltp_live_counts().committed < 20 {
        assert!(Instant::now() < deadline, "no commits within 30s");
        std::thread::yield_now();
    }
    let sql = "SELECT ol_number, SUM(ol_amount), COUNT(*) FROM orderline \
               WHERE ol_quantity >= 1 GROUP BY ol_number ORDER BY ol_number";
    let report = system.execute_sql(sql).expect("ad-hoc SQL executes");
    assert_eq!(report.sql.as_deref(), Some(sql));
    assert_eq!(report.query, "sql-scan(orderline)→filter→group-by");
    assert!((0.0..=1.0).contains(&report.freshness_rate));
    assert!(report.result_rows >= 1);
    assert!(report.bytes_scanned > 0);
    // A malformed query mid-stream is a typed error and leaves ingest alive.
    assert!(system
        .execute_sql("SELECT SUM(ghost) FROM orderline")
        .is_err());
    assert!(system.oltp_ingest_running());
    // More ingest, another ad-hoc query: a join this time, still live.
    let join_sql = "SELECT SUM(ol_amount) FROM orderline JOIN item ON ol_i_id = i_id \
                    WHERE i_price >= 1";
    let join_report = system.execute_sql(join_sql).expect("ad-hoc join executes");
    assert_eq!(join_report.query, "sql-scan(orderline)→probe×1→aggregate");
    assert!((0.0..=1.0).contains(&join_report.freshness_rate));
    let pool = system.stop_oltp_ingest();
    assert!(pool.committed() >= 20);
}

#[test]
fn per_query_throughput_comes_from_real_commit_counters() {
    let system = tiny_system_with_schedule(Schedule::Adaptive(
        SchedulerPolicy::adaptive_non_isolated(0.5),
    ));
    let workload = MixedWorkload::figure5(2, 0);
    let options = ConcurrentOptions {
        pacing_commits: 10,
        max_pacing_wait: Duration::from_secs(60),
    };
    let report = run_mixed_workload_concurrent(&system, &workload, &options).unwrap();

    for q in report.sequences.iter().flat_map(|s| &s.queries) {
        assert!(
            q.oltp_tps_measured,
            "query {} must carry measured throughput",
            q.query
        );
        assert!(q.oltp_tps > 0.0);
    }
    // The pool's counts flow into the report, not the modelled constant.
    let stats = system.txn_driver().stats();
    assert_eq!(report.transactions_committed, stats.committed());
    assert_eq!(report.transactions_aborted, stats.aborted());
    assert!(!system.oltp_ingest_running(), "pool stopped after the run");
}

#[test]
fn no_wait_aborts_under_contention_are_counted() {
    let system = tiny_system_with_schedule(Schedule::Adaptive(
        SchedulerPolicy::adaptive_non_isolated(0.5),
    ));
    assert!(system.start_oltp_ingest() > 0);

    // Hold a NO-WAIT lock on a hot district record: every ingest worker that
    // draws this district must abort, and the abort must be counted live.
    // Acquiring the lock itself races the ingest workers, so retry our own
    // NO-WAIT conflicts until we win it.
    let oltp = Arc::clone(system.rde().oltp());
    let deadline = Instant::now() + Duration::from_secs(60);
    let txn = loop {
        let mut txn = oltp.begin();
        match txn.read_for_update("district", keys::district(1, 1), 5) {
            Ok(_) => break txn,
            Err(_) => {
                assert!(
                    Instant::now() < deadline,
                    "could not win the district lock within 60s"
                );
                drop(txn);
                std::thread::yield_now();
            }
        }
    };
    while system.oltp_live_counts().aborted == 0 {
        assert!(
            Instant::now() < deadline,
            "no NO-WAIT aborts observed within 60s"
        );
        std::thread::yield_now();
    }
    txn.abort();

    let pool = system.stop_oltp_ingest();
    assert!(pool.aborted() > 0, "aborts must not be silently lost");
    assert_eq!(
        pool.aborted(),
        system.txn_driver().stats().aborted(),
        "pool counters must agree with the driver's statistics"
    );
}

#[test]
fn caller_started_pool_is_left_running_and_accounted_by_delta() {
    let system = tiny_system_with_schedule(Schedule::Adaptive(
        SchedulerPolicy::adaptive_non_isolated(0.5),
    ));
    assert!(system.start_oltp_ingest() > 0);
    // Let pre-workload traffic accumulate so a whole-lifetime total would be
    // visibly wrong.
    let deadline = Instant::now() + Duration::from_secs(60);
    while system.oltp_live_counts().committed < 20 {
        assert!(
            Instant::now() < deadline,
            "no pre-workload commits within 60s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let report = run_mixed_workload_concurrent(
        &system,
        &MixedWorkload::figure5(1, 0),
        &ConcurrentOptions {
            pacing_commits: 5,
            max_pacing_wait: Duration::from_secs(60),
        },
    )
    .unwrap();

    assert!(
        system.oltp_ingest_running(),
        "a pool the caller started must survive the workload"
    );
    let pool = system.stop_oltp_ingest();
    assert!(
        report.transactions_committed < pool.committed(),
        "the report must cover only the workload window, not the pool's lifetime"
    );
    assert!(report.transactions_committed > 0);
}

/// §4.2 "Query Batch": the members of a batch run on one snapshot. Under
/// live ingest they must therefore scan the same bytes and report the same
/// freshness, the batch must cross the switch gate — and ETL — once, and the
/// report's ETL count must be the scheduler's.
#[test]
fn a_batch_runs_on_one_snapshot_under_live_ingest() {
    let system = tiny_system_with_schedule(Schedule::Static(SystemState::S2Isolated));
    let options = ConcurrentOptions {
        pacing_commits: 5,
        max_pacing_wait: Duration::from_secs(60),
    };
    let workload = MixedWorkload::batches(QueryId::Q6, 4, 1, 0);
    let report = run_mixed_workload_concurrent(&system, &workload, &options).unwrap();

    let queries = &report.sequences[0].queries;
    assert_eq!(queries.len(), 4);
    let scanned: Vec<u64> = queries.iter().map(|q| q.bytes_scanned).collect();
    assert!(
        scanned.windows(2).all(|pair| pair[0] == pair[1]),
        "batch members read different snapshots: {scanned:?}"
    );
    assert!(queries
        .iter()
        .all(|q| q.freshness_rate == queries[0].freshness_rate && q.oltp_tps_measured));
    assert_eq!(
        report.etl_count() as u64,
        system.with_scheduler(|s| s.etl_count()),
        "the report and the scheduler disagree on the ETLs performed"
    );
}

#[test]
fn sequential_mode_remains_bit_for_bit_deterministic() {
    let run = || {
        let system = tiny_system_with_schedule(Schedule::Adaptive(
            SchedulerPolicy::adaptive_non_isolated(0.5),
        ));
        run_mixed_workload(&system, &MixedWorkload::figure5(3, 2)).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "sequential runs must be reproducible");
    // Sequential mode keeps the modelled throughput untouched.
    assert!(first
        .sequences
        .iter()
        .flat_map(|s| &s.queries)
        .all(|q| !q.oltp_tps_measured));
}
