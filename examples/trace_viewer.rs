//! Trace viewer: run a short mixed HTAP workload with tracing live, print
//! the recorded span trees to the terminal (each `rde.schedule` span with
//! the scheduler's inputs, core grant and state), and export the whole run
//! as Chrome `trace_event` JSON.
//!
//! Run with: `cargo run --example trace_viewer --release [-- out.json]`
//!
//! Load the exported file in `chrome://tracing` or <https://ui.perfetto.dev>
//! to see the query spans (parse → bind → plan → execute, with per-pipeline
//! and per-worker children), the OLTP commit/fsync-batch events on their
//! ingest lanes, and the scheduler's grant/revoke decisions as instant
//! events.

use adaptive_htap::{obs, HtapConfig, HtapSystem, QueryId};

fn print_span(span: &obs::Span, depth: usize) {
    let indent = "  ".repeat(depth);
    let dur_us = span.end_us.saturating_sub(span.start_us);
    let detail = if span.detail.is_empty() {
        String::new()
    } else {
        format!(" [{}]", span.detail)
    };
    let args = span
        .args
        .iter()
        .map(|(k, v)| format!("{k}={v:.3}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "{indent}{} {dur_us}µs{detail}{}{}",
        span.name,
        if args.is_empty() { "" } else { " " },
        args
    );
    for child in &span.children {
        print_span(child, depth + 1);
    }
}

fn main() -> Result<(), String> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace.json".into());

    // A small system; ingest and analytics interleave so the trace shows
    // both engines and the scheduler reacting to freshness.
    let system = HtapSystem::build(HtapConfig::small())?;
    system.run_oltp(100);
    for query in [QueryId::Q1, QueryId::Q6, QueryId::Q19] {
        system.execute_query(query).expect("CH query executes");
    }
    system.run_oltp(100);
    system
        .execute_sql("SELECT COUNT(*), SUM(ol_amount) FROM orderline WHERE ol_quantity >= 1")
        .expect("SQL executes");

    // Span trees: one root per query, children per phase/pipeline/worker.
    println!("=== spans ===");
    for span in obs::spans_snapshot() {
        print_span(&span, 0);
    }

    // Export everything (spans + ring events, with the decision track
    // derived from the rde.schedule spans) as Chrome JSON.
    let json = obs::chrome::chrome_trace_json();
    std::fs::write(&out, &json).map_err(|e| format!("write {out}: {e}"))?;
    let totals = obs::obs().event_totals();
    println!();
    println!(
        "wrote {out}: {} bytes, {} ring events recorded ({} dropped), {} root spans",
        json.len(),
        totals.recorded,
        totals.dropped,
        obs::spans_snapshot().len()
    );
    Ok(())
}
