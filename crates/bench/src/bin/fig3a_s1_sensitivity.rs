//! Figure 3(a) — sensitivity of the co-located state S1.
//!
//! Starting from full isolation, the engines trade CPUs: the x-axis is the
//! number of CPUs interchanged between the sockets. For every configuration a
//! batch of 16 CH-Q6 queries runs over the freshest snapshot, and the plot
//! reports average query response time, OLTP throughput without OLAP (striped
//! bars in the paper) and OLTP throughput with concurrent OLAP (filled bars).
//!
//! `cargo run --release -p htap-bench --bin fig3a_s1_sensitivity`

use htap_bench::{fmt_mtps, fmt_secs, ingest, HarnessArgs};
use htap_chbench::QueryId;
use htap_core::ExperimentTable;
use htap_rde::{AccessMethod, SystemState};
use htap_sim::{SocketId, Topology};

const QUERIES: usize = 16;

fn main() {
    let args = HarnessArgs::parse();
    let system = args.system(Topology::two_socket());
    let rde = system.rde();
    let plan = QueryId::Q6.plan().expect("CH SQL compiles");
    println!(
        "Figure 3(a): S1 sensitivity, {} rows loaded, CH-Q6 x{QUERIES} per point",
        system.population().total_rows
    );

    let mut table = ExperimentTable::new(
        "Figure 3(a) — OLTP/OLAP performance at state S1 vs CPUs interchanged",
        &[
            "cpus_interchanged",
            "oltp_only_mtps",
            "oltp_with_olap_mtps",
            "olap_query_resp_s",
        ],
    );

    for (step, traded) in [0usize, 1, 2, 4, 6, 8, 10, 12, 14].into_iter().enumerate() {
        // Fresh transactional work before each configuration.
        ingest(&system, 300, 4, step as u64);
        // Trade `traded` CPUs: OLTP gives up cores on its socket and receives
        // the same number on the OLAP socket.
        let oltp_cores = [(SocketId(0), 14 - traded), (SocketId(1), traded)];
        let report = rde.migrate_with(SystemState::S1Colocated, Some(&oltp_cores));
        assert_eq!(report.oltp_cores, 14);
        let sources = rde.sources_for(&["orderline"], AccessMethod::OltpSnapshot);

        // Average response time of the 16-query batch; every run models the
        // same OLTP throughput beside it.
        let mut total = 0.0;
        let mut oltp_with_olap = 0.0;
        for _ in 0..QUERIES {
            let (exec, tps) = rde
                .run_query(&plan, &sources)
                .expect("CH plan matches the scheduled sources");
            total += exec.modeled.total;
            oltp_with_olap = tps;
        }
        let avg_query = total / QUERIES as f64;
        let oltp_only = rde.modeled_oltp_throughput_idle();

        table.push_row(vec![
            traded.to_string(),
            fmt_mtps(oltp_only),
            fmt_mtps(oltp_with_olap),
            fmt_secs(avg_query),
        ]);
    }

    if args.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.render());
    }
    println!();
    println!(
        "Expected shape (paper): OLTP-only throughput drops up to ~37% as CPUs spread across\n\
         sockets; with concurrent OLAP the drop reaches ~55%. OLAP response time improves until\n\
         about 4 traded CPUs and then flattens (the data socket's bandwidth saturates)."
    );
}
