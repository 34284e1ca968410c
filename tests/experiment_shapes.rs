//! Shape tests: small-scale versions of the paper's experimental claims.
//! Absolute numbers differ from the paper (the substrate is a simulated
//! machine and the database is tiny), but the qualitative relationships —
//! who wins, what amortises, what interferes — must hold.

use adaptive_htap::baselines::{CowBaseline, EtlBaseline};
use adaptive_htap::chbench::{ChConfig, ChGenerator, TransactionDriver};
use adaptive_htap::core::{run_mixed_workload, MixedWorkload, SchedulerPolicy};
use adaptive_htap::rde::{AccessMethod, RdeConfig, RdeEngine};
use adaptive_htap::sim::SocketId;
use adaptive_htap::{HtapConfig, HtapSystem, QueryId, Schedule, SystemState};

fn populated_rde() -> (RdeEngine, TransactionDriver) {
    let rde = RdeEngine::bootstrap(RdeConfig::default());
    let config = ChConfig::tiny();
    ChGenerator::new(config.clone()).build(&rde).unwrap();
    (rde, TransactionDriver::for_config(&config))
}

/// Figure 1: the ETL baseline's per-query cost falls as the batch grows,
/// while the CoW baseline's OLTP throughput stays below the ETL baseline's.
#[test]
fn figure1_shape_etl_amortises_and_cow_taxes_oltp() {
    let (rde, driver) = populated_rde();
    let etl = EtlBaseline;
    let cow = CowBaseline::default();

    // Settle the initial load.
    etl.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 1);

    driver.run_new_orders(rde.oltp(), 0, 30, 1);
    let etl_single = etl.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 1);
    driver.run_new_orders(rde.oltp(), 0, 30, 2);
    let etl_batch = etl.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 16);
    assert!(
        etl_batch.avg_query_time() < etl_single.avg_query_time(),
        "ETL cost must amortise with batch size: {} vs {}",
        etl_batch.avg_query_time(),
        etl_single.avg_query_time()
    );

    let txns = driver.run_new_orders(rde.oltp(), 0, 30, 3);
    let cow_point = cow.run_snapshot(&rde, &QueryId::Q6.plan().unwrap(), 16, txns);
    assert_eq!(
        cow_point.data_transfer_time, 0.0,
        "CoW takes instant snapshots"
    );
    assert!(
        cow_point.oltp_tps < etl_batch.oltp_tps,
        "CoW must cost OLTP throughput relative to decoupled ETL: {} vs {}",
        cow_point.oltp_tps,
        etl_batch.oltp_tps
    );
}

/// Figure 3(a): lending OLTP cores to the OLAP engine lowers OLTP throughput,
/// and the loss with concurrent analytics exceeds the loss without.
#[test]
fn figure3a_shape_trading_cpus_costs_oltp_throughput() {
    let (rde, _) = populated_rde();
    let mut last_idle = f64::INFINITY;
    for traded in [0usize, 4, 8] {
        let keep = 14 - traded;
        rde.migrate_with(
            SystemState::S1Colocated,
            Some(&[(SocketId(0), keep), (SocketId(1), traded)]),
        );
        let idle = rde.modeled_oltp_throughput_idle();
        assert!(
            idle <= last_idle + 1.0,
            "OLTP-only throughput must not increase as CPUs are traded"
        );
        last_idle = idle;

        // With a concurrent scan of the OLTP socket the throughput drops further.
        let sources = rde.sources_for(&["orderline"], AccessMethod::OltpSnapshot);
        let bytes = sources["orderline"].bytes_per_socket(&["ol_amount", "ol_quantity"]);
        let busy = rde.modeled_oltp_throughput(&rde.olap_traffic_for(&bytes));
        assert!(
            busy < idle,
            "analytics must add interference (traded={traded})"
        );
    }
}

/// Figure 3(b): with socket isolation the data-transfer cost dominates single
/// queries and amortises across a batch, while OLTP throughput stays at its
/// isolated level.
#[test]
fn figure3b_shape_batching_amortises_the_transfer() {
    let system = HtapSystem::build(HtapConfig::tiny()).unwrap();
    system.set_schedule(Schedule::Static(SystemState::S2Isolated));

    system.run_oltp(10);
    let single =
        run_mixed_workload(&system, &MixedWorkload::batches(QueryId::Q6, 1, 1, 0)).unwrap();
    system.run_oltp(10);
    let batch = run_mixed_workload(&system, &MixedWorkload::batches(QueryId::Q6, 8, 1, 0)).unwrap();

    let per_query_single = single.sequences[0].total_time();
    let per_query_batch = batch.sequences[0].total_time() / 8.0;
    assert!(
        per_query_batch < per_query_single,
        "batched S2 must be cheaper per query: {per_query_batch} vs {per_query_single}"
    );
    assert!(
        batch.sequences[0].oltp_mtps() > 0.5,
        "isolated OLTP keeps most of its throughput"
    );
}

/// Figure 4: for a small fresh fraction, split access beats re-reading
/// everything remotely, and the gap closes as the fresh share grows.
#[test]
fn figure4_shape_split_access_beats_full_remote_until_fresh_data_grows() {
    let (rde, driver) = populated_rde();
    // Bring the OLAP instance up to date first.
    rde.switch_and_sync();
    rde.etl_to_olap();

    let q1 = QueryId::Q1.plan().unwrap();
    let tables: Vec<&str> = q1.tables();

    let mut previous_gap = f64::INFINITY;
    for round in 0..3 {
        // Each round adds more fresh data before comparing the two methods.
        driver.run_new_orders(rde.oltp(), 0, 15 * (round + 1), 10 + round);
        rde.switch_and_sync();

        let split_sources = rde.sources_for(&tables, AccessMethod::Split);
        let remote_sources = rde.sources_for(&tables, AccessMethod::OltpSnapshot);
        let split = rde
            .olap()
            .run_query(&q1, &split_sources, None)
            .unwrap()
            .modeled
            .total;
        let remote = rde
            .olap()
            .run_query(&q1, &remote_sources, None)
            .unwrap()
            .modeled
            .total;
        assert!(
            split < remote,
            "split access must beat full remote while fresh data is small: {split} vs {remote}"
        );
        let gap = remote - split;
        assert!(
            gap <= previous_gap * 1.5,
            "the advantage should not explode as fresh data grows"
        );
        previous_gap = gap;
    }
}

/// Figure 5: over a long enough run the adaptive schedule beats the static
/// S3-IS schedule on cumulative analytical time while keeping OLTP throughput
/// in the same range, and it does so by paying for a bounded number of ETLs.
#[test]
fn figure5_shape_adaptive_beats_static_s3is_cumulatively() {
    // Enough sequences and ingest volume that data movement (not fixed
    // scheduling overheads) dominates, as in the paper's setting.
    let sequences = 20;
    let run = |schedule: Schedule| {
        let system = HtapSystem::build(HtapConfig::tiny().with_schedule(schedule)).unwrap();
        let report = run_mixed_workload(&system, &MixedWorkload::figure5(sequences, 400)).unwrap();
        (
            report.total_query_time(),
            report.mean_oltp_mtps(),
            report.etl_count(),
        )
    };

    let (static_time, static_mtps, static_etls) =
        run(Schedule::Static(SystemState::S3HybridIsolated));
    let (adaptive_time, adaptive_mtps, adaptive_etls) =
        run(Schedule::Adaptive(SchedulerPolicy::adaptive_isolated(0.5)));

    assert_eq!(static_etls, 0);
    assert!(
        adaptive_etls >= 1,
        "the adaptive run must pay at least one ETL"
    );
    assert!(
        adaptive_time < static_time,
        "adaptive must win cumulatively: {adaptive_time} vs {static_time}"
    );
    // OLTP throughput stays in the same ballpark (isolated schedules).
    assert!((adaptive_mtps - static_mtps).abs() / static_mtps < 0.25);
}

/// §5.2 insight: the elastic states (borrowed cores) hurt OLTP more than the
/// isolated ones — the trade-off the DBA's thresholds bound.
#[test]
fn elasticity_trades_oltp_throughput_for_olap_locality() {
    let system = HtapSystem::build(HtapConfig::tiny()).unwrap();
    system.run_oltp(5);

    system.set_schedule(Schedule::Static(SystemState::S3HybridIsolated));
    let isolated = system.execute_query(QueryId::Q1).unwrap();
    system.run_oltp(5);
    system.set_schedule(Schedule::Static(SystemState::S3HybridNonIsolated));
    let elastic = system.execute_query(QueryId::Q1).unwrap();

    assert!(
        elastic.oltp_tps < isolated.oltp_tps,
        "borrowing OLTP cores must cost transactional throughput"
    );
}
