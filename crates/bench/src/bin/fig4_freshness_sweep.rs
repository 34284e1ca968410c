//! Figure 4 — OLAP response time with respect to the amount of fresh data.
//!
//! The OLAP instance is synchronised once; the transactional stream then keeps
//! inserting, and after every ingest step the same CH-Q1 query is executed
//! under three access strategies: S3-IS with split access (read only the
//! fresh tail remotely), S2 (full delta ETL, then local execution) and S3-IS
//! full-remote (re-read everything from the OLTP socket). The x-axis is the
//! fresh data touched by the query as a percentage of the database.
//!
//! `cargo run --release -p htap-bench --bin fig4_freshness_sweep`

use htap_bench::{fmt_secs, ingest, HarnessArgs};
use htap_chbench::QueryId;
use htap_core::ExperimentTable;
use htap_rde::{AccessMethod, RdeEngine};
use htap_sim::Topology;

fn main() {
    let args = HarnessArgs::parse();
    let plan = QueryId::Q1.plan().expect("CH SQL compiles");
    println!("Figure 4: response time vs fresh data accessed (CH-Q1)");

    let mut table = ExperimentTable::new(
        "Figure 4 — query response time vs % of fresh data accessed by the query",
        &[
            "fresh_pct_of_db",
            "s3is_split_access_s",
            "s2_etl_plus_local_s",
            "s3is_full_remote_s",
        ],
    );

    // Three identically-populated stacks so the S2 strategy's ETLs do not
    // change what the other two strategies see.
    let stacks = [(); 3].map(|_| args.system(Topology::two_socket()));
    for stack in &stacks {
        stack.rde().switch_and_sync();
        stack.rde().etl_to_olap();
    }
    let [split_rde, etl_rde, remote_rde] = stacks.each_ref().map(|stack| stack.rde());

    let tables: Vec<&str> = plan.tables();
    let modeled_time = |rde: &RdeEngine, access| {
        let sources = rde.sources_for(&tables, access);
        let (exec, _) = rde
            .run_query(&plan, &sources)
            .expect("CH plan matches the scheduled sources");
        exec.modeled.total
    };
    for step in 0..8 {
        // Grow the fresh tail on every stack identically.
        for stack in &stacks {
            ingest(stack, 600, 4, 1000 + step);
            stack.rde().switch_and_sync();
        }

        // Fresh fraction, measured on the split stack.
        let orderline = split_rde.oltp().table("orderline").unwrap();
        let fresh_rows = orderline.twin().fresh_rows_vs_olap();
        let total_rows = orderline.twin().snapshot().rows().max(1);
        let fresh_pct = 100.0 * fresh_rows as f64 / total_rows as f64;

        // S3-IS split access; S2: pay the delta ETL, then run locally; S3-IS
        // full remote.
        let split_time = modeled_time(split_rde, AccessMethod::Split);
        let s2_time =
            etl_rde.etl_to_olap().modeled_time + modeled_time(etl_rde, AccessMethod::OlapLocal);
        let remote_time = modeled_time(remote_rde, AccessMethod::OltpSnapshot);

        table.push_row(vec![
            format!("{fresh_pct:.2}"),
            fmt_secs(split_time),
            fmt_secs(s2_time),
            fmt_secs(remote_time),
        ]);
    }

    if args.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.render());
    }
    println!();
    println!(
        "Expected shape (paper): full-remote is the slowest and roughly flat; split access starts\n\
         fastest and grows with the fresh fraction, approaching (and eventually crossing) the S2\n\
         line — the point at which the scheduler prefers to pay the ETL."
    );
}
