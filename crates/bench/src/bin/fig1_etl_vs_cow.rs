//! Figure 1 — HTAP with ETL and CoW (the motivation experiment).
//!
//! Sixteen aggregate queries (CH-Q6) are executed per configuration; the
//! snapshotting frequency varies from one snapshot per query to one snapshot
//! per sixteen queries. The ETL baseline transfers the fresh delta before the
//! queries of each snapshot; the CoW baseline snapshots instantly but pays
//! page copies for every page the concurrent NewOrder stream dirties.
//!
//! `cargo run --release -p htap-bench --bin fig1_etl_vs_cow -- --scale 0.02`

use htap_baselines::{BaselinePoint, CowBaseline, EtlBaseline};
use htap_bench::{fmt_mtps, fmt_secs, ingest, HarnessArgs};
use htap_chbench::QueryId;
use htap_core::{ExperimentTable, HtapSystem};
use htap_sim::Topology;

const TOTAL_QUERIES: usize = 16;
const TXNS_PER_WINDOW: u64 = 400;

fn run_etl(system: &HtapSystem, queries_per_snapshot: usize, seed: u64) -> Vec<BaselinePoint> {
    let plan = QueryId::Q6.plan().expect("CH SQL compiles");
    // Settle the initial bulk load into the analytical store so the measured
    // windows reflect steady-state delta transfers, as in the paper.
    EtlBaseline.run_snapshot(system.rde(), &plan, 1);
    let snapshots = TOTAL_QUERIES / queries_per_snapshot;
    let per_window = TXNS_PER_WINDOW / snapshots as u64;
    (0..snapshots)
        .map(|i| {
            ingest(system, per_window, 4, seed + i as u64);
            EtlBaseline.run_snapshot(system.rde(), &plan, queries_per_snapshot)
        })
        .collect()
}

fn run_cow(system: &HtapSystem, queries_per_snapshot: usize, seed: u64) -> Vec<BaselinePoint> {
    let plan = QueryId::Q6.plan().expect("CH SQL compiles");
    let cow = CowBaseline::default();
    // Settle the initial bulk load so page-copy counting starts from a clean
    // snapshot window.
    cow.run_snapshot(system.rde(), &plan, 1, 1);
    let snapshots = TOTAL_QUERIES / queries_per_snapshot;
    let per_window = TXNS_PER_WINDOW / snapshots as u64;
    (0..snapshots)
        .map(|i| {
            let txns = ingest(system, per_window, 4, seed + 100 + i as u64);
            cow.run_snapshot(system.rde(), &plan, queries_per_snapshot, txns)
        })
        .collect()
}

fn summarise(points: &[BaselinePoint]) -> (f64, f64, f64, f64, u64) {
    let exec: f64 = points.iter().map(|p| p.query_exec_time).sum();
    let transfer: f64 = points.iter().map(|p| p.data_transfer_time).sum();
    let tps: f64 = points.iter().map(|p| p.oltp_tps).sum::<f64>() / points.len() as f64;
    let avg_query = (exec + transfer) / TOTAL_QUERIES as f64;
    let pages: u64 = points.iter().map(|p| p.pages_copied).sum();
    (avg_query, exec, transfer, tps, pages)
}

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "Figure 1: ETL vs CoW, {TOTAL_QUERIES} CH-Q6 queries per configuration, scale factor {}",
        args.scale
    );

    let mut table = ExperimentTable::new(
        "Figure 1 — avg query time (exec+transfer) and OLTP throughput vs queries per snapshot",
        &[
            "queries_per_snapshot",
            "etl_avg_query_s",
            "etl_exec_s",
            "etl_transfer_s",
            "etl_oltp_mtps",
            "cow_avg_query_s",
            "cow_exec_s",
            "cow_oltp_mtps",
            "cow_pages_copied",
        ],
    );

    for (i, qps) in [1usize, 2, 4, 8, 16].into_iter().enumerate() {
        // Separate, identically populated stacks for each baseline so neither
        // inherits the other's propagation state.
        let etl_system = args.system(Topology::four_socket());
        let cow_system = args.system(Topology::four_socket());
        let etl_points = run_etl(&etl_system, qps, i as u64 * 1000);
        let cow_points = run_cow(&cow_system, qps, i as u64 * 1000);
        let (etl_avg, etl_exec, etl_transfer, etl_tps, _) = summarise(&etl_points);
        let (cow_avg, cow_exec, _, cow_tps, cow_pages) = summarise(&cow_points);
        table.push_row(vec![
            qps.to_string(),
            fmt_secs(etl_avg),
            fmt_secs(etl_exec),
            fmt_secs(etl_transfer),
            fmt_mtps(etl_tps),
            fmt_secs(cow_avg),
            fmt_secs(cow_exec),
            fmt_mtps(cow_tps),
            cow_pages.to_string(),
        ]);
    }

    if args.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.render());
    }
    println!();
    println!(
        "Expected shape (paper): ETL pays a transfer that amortises as queries-per-snapshot grow;\n\
         CoW has no transfer but its OLTP throughput stays below ETL's and recovers as snapshots\n\
         become less frequent."
    );
}
