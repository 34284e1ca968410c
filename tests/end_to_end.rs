//! End-to-end integration tests: the whole system (storage, OLTP, OLAP, RDE,
//! scheduler, CH-benCHmark workload) exercised through the public API.

use adaptive_htap::core::{run_mixed_workload, MixedWorkload, SchedulerPolicy};
use adaptive_htap::{HtapConfig, HtapSystem, QueryId, Schedule, SystemState};

fn tiny_system_with_schedule(schedule: Schedule) -> HtapSystem {
    HtapSystem::build(HtapConfig::tiny().with_schedule(schedule)).expect("system builds")
}

#[test]
fn transactions_become_visible_to_analytics_under_every_schedule() {
    for schedule in [
        Schedule::Static(SystemState::S1Colocated),
        Schedule::Static(SystemState::S2Isolated),
        Schedule::Static(SystemState::S3HybridIsolated),
        Schedule::Static(SystemState::S3HybridNonIsolated),
        Schedule::Adaptive(SchedulerPolicy::adaptive_non_isolated(0.5)),
    ] {
        let system = tiny_system_with_schedule(schedule);
        let before = system.execute_query(QueryId::Q6).unwrap();
        let committed = system.run_oltp(10);
        assert!(committed > 0);
        let after = system.execute_query(QueryId::Q6).unwrap();
        // The orderline relation only grows, so the count of scanned tuples
        // (and therefore bytes) must grow once new transactions committed.
        assert!(
            after.bytes_scanned > before.bytes_scanned,
            "schedule {}: analytics must observe freshly inserted data",
            schedule.label()
        );
    }
}

#[test]
fn all_schedules_agree_on_query_answers() {
    // Freshness handling differs per schedule, but on a quiesced database the
    // answer must be identical everywhere.
    let schedules = [
        Schedule::Static(SystemState::S1Colocated),
        Schedule::Static(SystemState::S2Isolated),
        Schedule::Static(SystemState::S3HybridIsolated),
        Schedule::Static(SystemState::S3HybridNonIsolated),
        Schedule::Adaptive(SchedulerPolicy::adaptive_isolated(0.5)),
    ];
    let system = tiny_system_with_schedule(schedules[0]);
    system.run_oltp(5);

    let mut q6_answers = Vec::new();
    let mut q19_answers = Vec::new();
    for schedule in schedules {
        system.set_schedule(schedule);
        for (plan, sink) in [
            (QueryId::Q6.plan().unwrap(), &mut q6_answers),
            (QueryId::Q19.plan().unwrap(), &mut q19_answers),
        ] {
            let scheduled = system.with_scheduler(|s| s.schedule_query(&plan, false));
            let exec = system
                .rde()
                .olap()
                .run_query(&plan, &scheduled.sources, None)
                .unwrap();
            sink.push(exec.output.result.scalars().unwrap()[0]);
        }
    }
    for answers in [&q6_answers, &q19_answers] {
        for pair in answers.windows(2) {
            assert!(
                (pair[0] - pair[1]).abs() < 1e-6,
                "schedules disagree: {answers:?}"
            );
        }
    }
}

#[test]
fn group_by_results_match_between_olap_local_and_oltp_snapshot_paths() {
    let system = tiny_system_with_schedule(Schedule::Static(SystemState::S2Isolated));
    system.run_oltp(8);
    let plan = QueryId::Q1.plan().unwrap();

    // S2: OLAP-local after ETL.
    let local = system.with_scheduler(|s| s.schedule_query(&plan, false));
    let local_rows = system
        .rde()
        .olap()
        .run_query(&plan, &local.sources, None)
        .unwrap()
        .output
        .result
        .groups()
        .unwrap()
        .to_vec();

    // S1: straight from the OLTP snapshot.
    system.set_schedule(Schedule::Static(SystemState::S1Colocated));
    let remote = system.with_scheduler(|s| s.schedule_query(&plan, false));
    let remote_rows = system
        .rde()
        .olap()
        .run_query(&plan, &remote.sources, None)
        .unwrap()
        .output
        .result
        .groups()
        .unwrap()
        .to_vec();

    assert_eq!(local_rows.len(), remote_rows.len());
    for (l, r) in local_rows.iter().zip(&remote_rows) {
        assert_eq!(l.0, r.0, "group keys must match");
        for (a, b) in l.1.iter().zip(&r.1) {
            assert!((a - b).abs() < 1e-6, "aggregates must match: {a} vs {b}");
        }
    }
}

#[test]
fn adaptive_scheduler_reacts_to_accumulating_fresh_data() {
    let system = tiny_system_with_schedule(Schedule::Adaptive(
        SchedulerPolicy::adaptive_non_isolated(0.5),
    ));
    // Drain the initial load into the OLAP instance with a first query (the
    // whole database is fresh, so the policy must pick the ETL branch).
    let first = system.execute_query(QueryId::Q6).unwrap();
    assert_eq!(first.state, SystemState::S2Isolated);
    assert!(first.performed_etl);

    // With little fresh data relative to the whole fresh set, the scheduler
    // stays in the elastic states.
    system.run_oltp(3);
    let report = system.execute_query(QueryId::Q19).unwrap();
    assert!(
        matches!(
            report.state,
            SystemState::S3HybridNonIsolated | SystemState::S2Isolated
        ),
        "unexpected state {:?}",
        report.state
    );

    // The workload keeps inserting; across many queries the scheduler must
    // have used the hybrid state at least once and performed at least one ETL
    // in total (the Figure-5 behaviour in miniature).
    let mut states = Vec::new();
    for _ in 0..6 {
        system.run_oltp(5);
        states.push(system.execute_query(QueryId::Q6).unwrap().state);
    }
    assert!(
        states.contains(&SystemState::S3HybridNonIsolated),
        "expected hybrid states in {states:?}"
    );
}

#[test]
fn oltp_throughput_is_higher_in_isolation_than_under_colocation() {
    let system = tiny_system_with_schedule(Schedule::Static(SystemState::S2Isolated));
    system.run_oltp(5);
    let isolated = system.execute_query(QueryId::Q6).unwrap();

    system.set_schedule(Schedule::Static(SystemState::S1Colocated));
    system.run_oltp(5);
    let colocated = system.execute_query(QueryId::Q6).unwrap();

    assert!(
        isolated.oltp_tps > colocated.oltp_tps,
        "co-location must cost OLTP throughput: isolated {} vs colocated {}",
        isolated.oltp_tps,
        colocated.oltp_tps
    );
}

#[test]
fn mixed_workload_reports_are_internally_consistent() {
    let system = tiny_system_with_schedule(Schedule::Adaptive(
        SchedulerPolicy::adaptive_non_isolated(0.5),
    ));
    let report = run_mixed_workload(&system, &MixedWorkload::figure5(4, 3)).unwrap();
    assert_eq!(report.sequences.len(), 4);
    let sum: f64 = report.sequence_times().iter().sum();
    assert!((sum - report.total_query_time()).abs() < 1e-9);
    assert_eq!(report.sequence_mtps().len(), 4);
    assert!(report.transactions_committed >= 4 * 3);
    // The simulated clock accumulated query execution time.
    assert!(
        system
            .rde()
            .clock()
            .elapsed(adaptive_htap::sim::clock::Activity::QueryExecution)
            > 0.0
    );
}

#[test]
fn concurrent_oltp_and_analytics_preserve_correctness() {
    let system = tiny_system_with_schedule(Schedule::Adaptive(
        SchedulerPolicy::adaptive_non_isolated(0.5),
    ));
    assert!(system.start_oltp_ingest() > 0);
    // Analytical queries run while transactions are being ingested.
    let mut last_bytes = 0;
    for _ in 0..4 {
        let report = system.execute_query(QueryId::Q6).unwrap();
        assert!(
            report.bytes_scanned >= last_bytes,
            "scanned data must not shrink"
        );
        last_bytes = report.bytes_scanned;
    }
    // As many commits as the four rounds of three per worker used to ask for.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while system.oltp_live_counts().committed < 4 * 3 {
        assert!(std::time::Instant::now() < deadline, "ingest stalled");
        std::thread::yield_now();
    }
    let committed = system.stop_oltp_ingest().committed();
    assert!(committed >= 4 * 3);
    // A final query sees at least all committed order lines.
    let final_report = system.execute_query(QueryId::Q6).unwrap();
    assert!(final_report.bytes_scanned >= last_bytes);
}
