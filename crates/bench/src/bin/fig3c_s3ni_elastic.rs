//! Figure 3(c) — sensitivity of the hybrid non-isolated state S3-NI.
//!
//! The OLAP instance is brought up to date once; the transactional stream
//! then produces fresh data, and the OLAP engine borrows an increasing number
//! of OLTP-socket cores to reach that fresh data at full memory bandwidth
//! (split access, CH-Q1). The figure reports OLTP throughput (with and
//! without the concurrent query) and the query response time.
//!
//! `cargo run --release -p htap-bench --bin fig3c_s3ni_elastic`
//!
//! With `--measured`, a second sweep executes the same CH-Q1 scan with real
//! pipeline-worker teams of 1–8 granted cores and reports *wall-clock* times:
//! the morsel-driven executor makes elastic core grants visible as measured
//! throughput, not just as modelled time.

use htap_bench::{fmt_mtps, fmt_secs, ingest, measured_scan_scaling, HarnessArgs};
use htap_chbench::QueryId;
use htap_core::ExperimentTable;
use htap_rde::{AccessMethod, SystemState};
use htap_sim::{SocketId, Topology};

fn main() {
    let args = HarnessArgs::parse();
    let system = args.system(Topology::two_socket());
    let rde = system.rde();
    let plan = QueryId::Q1.plan().expect("CH SQL compiles");
    println!(
        "Figure 3(c): S3-NI elasticity sweep, {} rows loaded",
        system.population().total_rows
    );

    // Bring the OLAP instance up to date, then accumulate a sizeable fresh tail.
    rde.switch_and_sync();
    rde.etl_to_olap();
    ingest(&system, 1_200, 4, 7);
    rde.switch_and_sync();

    let mut table = ExperimentTable::new(
        "Figure 3(c) — OLTP/OLAP performance at state S3-NI vs OLTP CPUs lent to OLAP",
        &[
            "oltp_cpus_to_olap",
            "oltp_only_mtps",
            "oltp_with_olap_mtps",
            "olap_query_resp_s",
        ],
    );

    for borrowed in [0usize, 2, 4, 6, 8, 10] {
        let oltp_cores = [(SocketId(0), 14 - borrowed)];
        let report = rde.migrate_with(SystemState::S3HybridNonIsolated, Some(&oltp_cores));
        let sources = rde.sources_for(&plan.tables(), AccessMethod::Split);
        let (exec, oltp_with) = rde
            .run_query(&plan, &sources)
            .expect("CH plan matches the scheduled sources");
        table.push_row(vec![
            (report.olap_cores.saturating_sub(14)).to_string(),
            fmt_mtps(rde.modeled_oltp_throughput_idle()),
            fmt_mtps(oltp_with),
            fmt_secs(exec.modeled.total),
        ]);
    }

    if args.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.render());
    }
    println!();
    println!(
        "Expected shape (paper): query response time improves by roughly 20% and plateaus once\n\
         around six borrowed cores saturate the fresh-data bandwidth, while OLTP throughput keeps\n\
         dropping as it loses cores and shares its memory bus."
    );

    if args.measured {
        println!();
        let host_cpus = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        println!("host parallelism: {host_cpus} CPU(s)");
        let mut measured = ExperimentTable::new(
            "Measured scaling — wall-clock CH-Q1 execution vs granted cores (morsel-driven)",
            &["granted_cores", "wall_clock_s", "tuples_per_s"],
        );
        let points = measured_scan_scaling(rde, &plan, AccessMethod::Split, &[1, 2, 4, 8], 5);
        for p in &points {
            measured.push_row(vec![
                p.workers.to_string(),
                fmt_secs(p.best_seconds),
                format!("{:.0}", p.tuples_per_second),
            ]);
        }
        if args.csv {
            print!("{}", measured.to_csv());
        } else {
            print!("{}", measured.render());
        }
        println!();
        println!(
            "Expected shape: wall-clock time drops monotonically from 1 to 4 granted cores\n\
             (and keeps improving to 8) on hosts with at least that many CPUs — the elastic\n\
             grant now changes measured runtime, not only the modelled one. On a host with\n\
             fewer CPUs the workers time-share and the curve flattens at the host's\n\
             parallelism; near-flat times there still confirm the morsel pipeline adds no\n\
             measurable overhead."
        );
    }
}
