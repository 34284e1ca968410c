//! SQL shell: the zero-to-aha demo of the SQL frontend.
//!
//! Builds a small CH-benCHmark HTAP system, ingests a transactional queue,
//! then compiles and runs ad-hoc SQL — printing the physical plan's one-line
//! summary, the result rows and the `WorkProfile` the vectorized morsel
//! engine measured. Frontend errors are rendered with a caret pointing at the
//! offending token.
//!
//! Run one-shot queries from the command line:
//!
//! ```text
//! cargo run --release --example sql_shell -- \
//!   "SELECT ol_number, SUM(ol_amount), COUNT(*) FROM orderline \
//!    WHERE ol_delivery_d >= 0 GROUP BY ol_number ORDER BY ol_number"
//! ```
//!
//! Or pipe/type queries on stdin (one per line, blank line or EOF to quit):
//!
//! ```text
//! echo "SELECT SUM(ol_amount) FROM orderline" | cargo run --example sql_shell
//! ```

use adaptive_htap::olap::QueryResult;
use adaptive_htap::{HtapConfig, HtapSystem};
use std::io::{BufRead, Write};

/// Rows printed per grouped result before truncating.
const MAX_ROWS: usize = 20;

fn main() -> Result<(), String> {
    let queries: Vec<String> = std::env::args().skip(1).collect();
    let system = HtapSystem::build(HtapConfig::small())?;
    println!(
        "CH-benCHmark loaded: {} rows, resources: {}",
        system.population().total_rows,
        system.rde().describe_resources()
    );
    // A transactional queue so freshness and fresh-row counts are non-trivial.
    let committed = system.run_oltp(100);
    println!("ingested {committed} transactions; OLAP instance is now stale\n");

    if queries.is_empty() {
        let stdin = std::io::stdin();
        let interactive = atty_stdin();
        loop {
            if interactive {
                print!("sql> ");
                std::io::stdout().flush().ok();
            }
            let mut line = String::new();
            match stdin.lock().read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let line = line.trim();
                    if line.is_empty() || line.eq_ignore_ascii_case("quit") {
                        break;
                    }
                    run_query(&system, line);
                }
                Err(e) => return Err(format!("stdin: {e}")),
            }
        }
    } else {
        for sql in &queries {
            run_query(&system, sql);
        }
    }
    Ok(())
}

/// Whether stdin looks interactive (no reliable libc-free check; a terminal
/// user gets the prompt, piped input just skips it).
fn atty_stdin() -> bool {
    std::env::var_os("TERM").is_some() && std::env::var_os("SQL_SHELL_NO_PROMPT").is_none()
}

fn run_query(system: &HtapSystem, sql: &str) {
    println!("query: {sql}");
    // Compile once; the plan is printed and then executed as-is.
    let plan = match system.plan_sql(sql) {
        Ok(plan) => plan,
        Err(e) => {
            // Point at the offending token. `pos()` is a byte offset;
            // `caret_column` converts it to a character column so multi-byte
            // UTF-8 earlier in the line does not push the caret right.
            println!("  {sql}");
            println!("  {}^", " ".repeat(e.caret_column(sql)));
            println!("error: {e}\n");
            return;
        }
    };
    match system.execute_planned_sql(sql, &plan) {
        Err(e) => println!("engine error: {e}\n"),
        Ok((report, output)) => {
            println!(
                "plan:  {} over [{}] in state {}",
                plan.label(),
                plan.tables().join(" \u{22c8} "),
                report.state.label()
            );
            match &output.result {
                QueryResult::Scalars(values) => {
                    println!(
                        "row:   ({})",
                        values
                            .iter()
                            .map(|v| format!("{v:.4}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
                QueryResult::Groups(groups) => {
                    for (keys, aggs) in groups.iter().take(MAX_ROWS) {
                        println!(
                            "row:   key=({}) -> ({})",
                            keys.iter()
                                .map(i64::to_string)
                                .collect::<Vec<_>>()
                                .join(", "),
                            aggs.iter()
                                .map(|v| format!("{v:.4}"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                    }
                    if groups.len() > MAX_ROWS {
                        println!("       ... {} more rows", groups.len() - MAX_ROWS);
                    }
                }
            }
            println!(
                "work:  {} rows scanned, {} selected, {} probes, {} fresh rows, {} bytes",
                output.work.tuples_scanned,
                output.work.tuples_selected,
                output.work.probes,
                output.work.fresh_rows,
                output.work.total_bytes()
            );
            println!(
                "time:  exec={:.4}s sched={:.4}s freshness={:.3}{}\n",
                report.execution_time,
                report.scheduling_time,
                report.freshness_rate,
                if report.performed_etl { " (ETL)" } else { "" }
            );
        }
    }
}
