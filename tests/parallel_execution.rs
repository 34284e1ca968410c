//! Integration tests of the morsel-driven parallel execution layer, driven
//! through the public API: the same CH-benCHmark query must produce
//! bit-for-bit identical results whatever the elastic core grant, and the
//! grant must be visible as the executor's parallelism.

use adaptive_htap::chbench::{ChConfig, ChGenerator, QueryId};
use adaptive_htap::olap::{QueryExecutor, WorkerTeam};
use adaptive_htap::rde::{AccessMethod, RdeConfig, RdeEngine};
use adaptive_htap::sim::{CoreId, SocketId, Topology};
use adaptive_htap::{HtapConfig, HtapSystem};

fn populated_rde() -> RdeEngine {
    let rde = RdeEngine::bootstrap(RdeConfig::default());
    ChGenerator::new(ChConfig::tiny()).build(&rde).unwrap();
    rde.switch_and_sync();
    rde
}

#[test]
fn ch_queries_are_deterministic_across_worker_grants() {
    let rde = populated_rde();
    let executor = QueryExecutor::with_block_rows(512);
    for query in [QueryId::Q6, QueryId::Q1, QueryId::Q19] {
        let plan = query.plan().unwrap();
        let sources = rde.sources_for(&plan.tables(), AccessMethod::OltpSnapshot);
        let solo = executor
            .execute_parallel(&plan, &sources, &WorkerTeam::solo())
            .unwrap();
        for workers in [2u16, 4, 8] {
            let team = WorkerTeam::from_cores((0..workers).map(CoreId).collect());
            let parallel = executor.execute_parallel(&plan, &sources, &team).unwrap();
            assert_eq!(
                solo,
                parallel,
                "{} with {workers} workers diverged from the solo run",
                plan.label()
            );
        }
    }
}

#[test]
fn elastic_grants_resize_the_engines_worker_team() {
    let rde = populated_rde();
    let topo = Topology::two_socket();
    // Bootstrap grants the OLAP engine its whole home socket.
    assert_eq!(rde.olap_worker_count(), 14);
    assert_eq!(rde.olap().team().size(), 14);

    // An explicit (shrunken) grant resizes the team the next query runs with.
    rde.olap().set_workers(&[CoreId(14), CoreId(15)]);
    assert_eq!(rde.olap_worker_count(), 2);
    let team = rde.olap().team();
    assert_eq!(team.size(), 2);
    assert_eq!(team.cores(), &[CoreId(14), CoreId(15)]);

    // Queries still answer identically under the shrunken grant.
    let plan = QueryId::Q6.plan().unwrap();
    let sources = rde.sources_for(&plan.tables(), AccessMethod::OltpSnapshot);
    let shrunk = rde.olap().run_query(&plan, &sources, None).unwrap();
    rde.olap().set_workers(&topo.cores_of(SocketId(1)));
    let full = rde.olap().run_query(&plan, &sources, None).unwrap();
    assert_eq!(shrunk.output, full.output);
}

#[test]
fn system_facade_exposes_the_olap_worker_count() {
    let system = HtapSystem::build(HtapConfig::tiny()).unwrap();
    // The tiny topology's bootstrap still hands the OLAP engine one socket.
    assert!(system.olap_worker_count() > 0);
    let report = system.execute_query(adaptive_htap::QueryId::Q6).unwrap();
    assert!(report.result_rows >= 1);
}

#[test]
fn work_profiles_sum_identically_across_worker_counts() {
    let rde = populated_rde();
    let executor = QueryExecutor::with_block_rows(256);
    let plan = QueryId::Q1.plan().unwrap();
    let sources = rde.sources_for(&plan.tables(), AccessMethod::OltpSnapshot);
    let solo = executor
        .execute_parallel(&plan, &sources, &WorkerTeam::solo())
        .unwrap();
    let team = WorkerTeam::from_cores((0..6).map(CoreId).collect());
    let parallel = executor.execute_parallel(&plan, &sources, &team).unwrap();
    // Same bytes per socket, tuples, freshness — the scheduler and cost model
    // see identical totals whatever the parallelism.
    assert_eq!(solo.work, parallel.work);
    assert!(parallel.work.tuples_scanned > 0);
    assert!(parallel.work.total_bytes() > 0);
}
