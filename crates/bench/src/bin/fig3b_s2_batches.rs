//! Figure 3(b) — sensitivity of the isolated state S2.
//!
//! Sixteen CH-Q6 executions are grouped into batches of 1, 2, 4, 8 and 16
//! queries; before each batch the fresh delta is transferred to the OLAP
//! instance. The figure reports the cumulative time (execution + transfer)
//! for all sixteen queries and the OLTP throughput, which stays unaffected
//! thanks to the socket-level isolation.
//!
//! `cargo run --release -p htap-bench --bin fig3b_s2_batches`

use htap_baselines::EtlBaseline;
use htap_bench::{fmt_mtps, fmt_secs, ingest, HarnessArgs};
use htap_chbench::QueryId;
use htap_core::ExperimentTable;
use htap_sim::Topology;

const TOTAL_QUERIES: usize = 16;
const TXNS_PER_WINDOW: u64 = 400;

fn main() {
    let args = HarnessArgs::parse();
    let plan = QueryId::Q6.plan().expect("CH SQL compiles");
    println!("Figure 3(b): S2 batch-size sensitivity, CH-Q6 x{TOTAL_QUERIES} per point");

    let mut table = ExperimentTable::new(
        "Figure 3(b) — cumulative query time (exec + transfer) and OLTP throughput vs batch size",
        &[
            "batch_size",
            "query_exec_total_s",
            "data_transfer_total_s",
            "cumulative_s",
            "oltp_mtps",
        ],
    );

    for (i, batch) in [1usize, 2, 4, 8, 16].into_iter().enumerate() {
        let system = args.system(Topology::two_socket());
        let batches = TOTAL_QUERIES / batch;
        let per_window = TXNS_PER_WINDOW / batches as u64;
        let mut exec = 0.0;
        let mut transfer = 0.0;
        let mut tps = 0.0;
        for b in 0..batches {
            ingest(&system, per_window, 4, (i * 100 + b) as u64);
            let point = EtlBaseline.run_snapshot(system.rde(), &plan, batch);
            exec += point.query_exec_time;
            transfer += point.data_transfer_time;
            tps += point.oltp_tps;
        }
        tps /= batches as f64;
        table.push_row(vec![
            batch.to_string(),
            fmt_secs(exec),
            fmt_secs(transfer),
            fmt_secs(exec + transfer),
            fmt_mtps(tps),
        ]);
    }

    if args.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.render());
    }
    println!();
    println!(
        "Expected shape (paper): the transfer component shrinks as the batch grows (the copy is\n\
         amortised), query execution stays flat, and OLTP throughput is essentially unaffected\n\
         because the engines are isolated at the socket boundary."
    );
}
