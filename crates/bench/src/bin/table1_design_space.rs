//! Table 1 — HTAP design classification.
//!
//! Table 1 of the paper is qualitative: it classifies existing HTAP systems by
//! storage organisation, snapshotting mechanism and the freshness/performance
//! trade-off they make. This harness prints the classification and, for every
//! row that our system can emulate (through its states and the two baselines),
//! runs a small probe that quantifies the trade-off: the OLTP throughput
//! retained while an analytical query runs, and the scheduling cost (snapshot
//! / ETL / page copies) paid to give that query fresh data.
//!
//! `cargo run --release -p htap-bench --bin table1_design_space`

use htap_baselines::{CowBaseline, EtlBaseline};
use htap_bench::{fmt_mtps, fmt_secs, ingest, HarnessArgs};
use htap_chbench::QueryId;
use htap_core::{ExperimentTable, Schedule};
use htap_rde::SystemState;
use htap_sim::Topology;

fn main() {
    let args = HarnessArgs::parse();
    let plan = QueryId::Q6.plan().expect("CH SQL compiles");

    println!("Table 1 — HTAP design classification (paper) and measured trade-off probes\n");
    let mut classification = ExperimentTable::new(
        "Table 1 — classification of HTAP designs",
        &[
            "storage",
            "system_class",
            "snapshot_mechanism",
            "freshness_perf_tradeoff",
            "emulated_by",
        ],
    );
    let rows = [
        (
            "Unified",
            "HyPer-Fork / Caldera",
            "CoW",
            "OLTP pays page copies",
            "CoW baseline",
        ),
        (
            "Unified",
            "HyPer-MVOCC / MemSQL / BLU",
            "MVCC",
            "OLAP pays version traversal",
            "state S1",
        ),
        (
            "Unified",
            "SAP HANA",
            "Delta-versioning",
            "both engines pay merges",
            "state S1 + sync",
        ),
        (
            "Decoupled",
            "BatchDB",
            "Batch-ETL",
            "OLAP pays ETL latency",
            "state S2 / ETL baseline",
        ),
        (
            "Decoupled",
            "SQL Server",
            "MVCC-Delta",
            "OLAP pays tail-record scan",
            "state S3-IS",
        ),
        (
            "Decoupled",
            "Oracle dual-format",
            "Txn journal & ETL",
            "OLAP pays tail-record scan",
            "state S3-NI",
        ),
    ];
    for (storage, class, mech, tradeoff, emulated) in rows {
        classification.push_row(vec![
            storage.into(),
            class.into(),
            mech.into(),
            tradeoff.into(),
            emulated.into(),
        ]);
    }
    print!("{}", classification.render());
    println!();

    // Measured probes: run one fresh-data query per emulation target and
    // report what it cost each side.
    let mut probes = ExperimentTable::new(
        "Table 1 probes — measured freshness/performance trade-off per emulated design",
        &[
            "emulation",
            "query_resp_s",
            "freshness_cost_s",
            "oltp_mtps_during_query",
        ],
    );

    // States of our system: the query runs on the system's own scheduled
    // path, under a static schedule that migrates to the state.
    for state in SystemState::all() {
        let system = args.system(Topology::two_socket());
        system.set_schedule(Schedule::Static(state));
        system.rde().switch_and_sync();
        system.rde().etl_to_olap();
        ingest(&system, 400, 4, 3);
        let report = system
            .execute_query(QueryId::Q6)
            .expect("CH query matches the CH schema");
        probes.push_row(vec![
            format!("state {}", state.label()),
            fmt_secs(report.execution_time),
            fmt_secs(report.scheduling_time),
            fmt_mtps(report.oltp_tps),
        ]);
    }

    // Baselines.
    {
        let system = args.system(Topology::two_socket());
        ingest(&system, 400, 4, 4);
        let point = EtlBaseline.run_snapshot(system.rde(), &plan, 1);
        probes.push_row(vec![
            "ETL baseline (BatchDB-like)".into(),
            fmt_secs(point.query_exec_time),
            fmt_secs(point.data_transfer_time),
            fmt_mtps(point.oltp_tps),
        ]);
    }
    {
        let system = args.system(Topology::two_socket());
        let txns = ingest(&system, 400, 4, 5);
        let point = CowBaseline::default().run_snapshot(system.rde(), &plan, 1, txns);
        probes.push_row(vec![
            "CoW baseline (HyPer-fork-like)".into(),
            fmt_secs(point.query_exec_time),
            format!("{} page copies", point.pages_copied),
            fmt_mtps(point.oltp_tps),
        ]);
    }

    if args.csv {
        print!("{}", probes.to_csv());
    } else {
        print!("{}", probes.render());
    }
}
