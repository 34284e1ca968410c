//! The workloads. Each builds its system (three timed set-ups), measures for
//! the requested seconds with `htap_obs` off — or, in trace mode, alternating
//! traced and untraced slices — then checks the outputs and fills the report.

use crate::check;
use crate::host::{self, ScratchDir, StealWatch};
use crate::ingest::{wait_until, Ingest, Pace, TxnSample};
use crate::layers::{self, RingTotals};
use crate::queries::{QueryRunner, QuerySample};
use crate::report::Report;
use crate::setup::{self, Sides, QUERIES};
use crate::spec;
use crate::stats::{median, percentile, supported_percentile};
use htap_core::{HtapSystem, MemStorage, QueryId};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Trace mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny sizes, every check on (what `--smoke` passes to its children).
    pub smoke_sizes: bool,
    /// Where to write the Chrome trace of a traced run.
    pub trace_out: Option<PathBuf>,
}

/// Offered ingest rate of `htap_mix`, transactions per second over all
/// generators.
const MIX_INGEST_TPS: f64 = 3_000.0;
/// One analytical query is due every this many milliseconds on `htap_mix`.
const MIX_QUERY_INTERVAL_MS: u64 = 50;
/// The files `build_durable` keeps on its medium (`htap_oltp::{WAL_FILE,
/// CHECKPOINT_FILE}`); an empty or absent checkpoint file after the run fails
/// a check, so a rename cannot silently zero the byte counts.
const WAL_FILE: &str = "wal.log";
const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// Share of the window at which `oltp_durable` takes its checkpoints: fixed
/// in time, not in commits, so a faster commit path does not buy itself
/// more (and larger) checkpoints.
const CHECKPOINTS_AT: [f64; 3] = [0.25, 0.5, 0.75];

/// Run the workload named in `args`.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    // The library records by default; every number except the traced slices
    // of trace mode is taken with recording off.
    htap_obs::set_enabled(false);
    let sf = |full: f64| {
        if args.smoke_sizes {
            full.min(0.004)
        } else {
            full
        }
    };
    let mut report = match args.workload.as_str() {
        spec::OLAP_SCAN => run_olap(args, sf(0.3)),
        spec::OLAP_SHORT => run_olap(args, sf(0.005)),
        spec::OLTP_DURABLE => run_oltp_durable(args, sf(0.02)),
        spec::HTAP_MIX => run_htap_mix(args, sf(0.1), Primary::Queries),
        spec::HTAP_MIX_OLTP => run_htap_mix(args, sf(0.1), Primary::Transactions),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    if let (true, Some(path)) = (args.trace, &args.trace_out) {
        std::fs::write(path, htap_obs::chrome::chrome_trace_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note(format!("chrome trace written to {}", path.display()));
    }
    Ok(report)
}

/// In trace mode, recording alternates between slices so that one run yields
/// both the per-layer numbers (traced slices) and what tracing costs
/// (traced against untraced). Outside trace mode recording stays off.
struct Slices {
    trace: bool,
    traced_queries: usize,
}

impl Slices {
    fn new(trace: bool) -> Self {
        Slices {
            trace,
            traced_queries: 0,
        }
    }

    /// Enter slice `index`: odd slices record, until the span log is nearly
    /// full.
    fn enter(&mut self, index: usize, queries_in_slice: usize) {
        if !self.trace {
            return;
        }
        let on =
            index % 2 == 1 && self.traced_queries + queries_in_slice <= layers::MAX_TRACED_QUERIES;
        if on {
            self.traced_queries += queries_in_slice;
        }
        htap_obs::set_enabled(on);
    }
}

/// Fill the three latency/throughput metrics from the latencies of the
/// completed operations (pooled over the whole window) and the seconds it
/// took to complete them all ([`layers::last_end_s`]).
fn fill_latency(report: &mut Report, latencies_ms: &[f64], completed_in_s: f64) {
    report.set("latency_p50_ms", median(latencies_ms));
    report.set("latency_p95_ms", percentile(latencies_ms, 95.0));
    report.set("ops_per_s", latencies_ms.len() as f64 / completed_in_s);
    let supported = supported_percentile(latencies_ms.len());
    report.note(format!(
        "{} samples, {:.0} beyond p95; p{supported} (the highest percentile with ten samples \
         beyond it) {:.4} ms",
        latencies_ms.len(),
        latencies_ms.len() as f64 * 0.05,
        percentile(latencies_ms, supported),
    ));
}

fn query_latencies(samples: &[QuerySample]) -> Vec<f64> {
    samples.iter().map(QuerySample::latency_ms).collect()
}

fn queries_done_s(samples: &[QuerySample]) -> f64 {
    layers::last_end_s(samples.iter().map(|s| s.end_ns))
}

fn txn_latencies(committed: &[&TxnSample]) -> Vec<f64> {
    committed.iter().map(|s| s.latency_us() / 1e3).collect()
}

fn commits_done_s(committed: &[&TxnSample]) -> f64 {
    layers::last_end_s(committed.iter().map(|s| s.end_ns))
}

fn count_queries(report: &mut Report, samples: &[QuerySample]) {
    report.attempted += samples.len() as u64;
    for s in samples {
        if let Err(e) = &s.outcome {
            report.failed += 1;
            report
                .check_failures
                .push(format!("{} failed: {e}", QUERIES[s.query].label()));
        }
    }
}

fn count_txns(report: &mut Report, samples: &[TxnSample]) {
    report.attempted += samples.len() as u64;
    report.failed += samples.iter().filter(|s| !s.committed).count() as u64;
}

fn fill_storage(report: &mut Report, system: &HtapSystem) {
    let oltp = system.rde().oltp().instance_bytes() as f64;
    let olap = system.rde().olap().store().bytes() as f64;
    report.set("storage.oltp_instance_bytes", oltp);
    report.set("storage.olap_instance_bytes", olap);
    // The twin store keeps two OLTP instances, the OLAP engine a third copy;
    // one instance is rows × row width.
    if oltp > 0.0 {
        report.set("storage.space_amplification", (2.0 * oltp + olap) / oltp);
    }
    report.set(
        "storage.rows_total_end",
        system.rde().oltp().total_rows() as f64,
    );
}

fn fill_host(report: &mut Report, steal: &StealWatch, rings: &RingTotals) -> Result<(), String> {
    report.set("host.steal_pct", steal.steal_pct());
    report.set("host.nproc", host::nproc() as f64);
    report.set("host.memcpy_gb_per_s", host::memcpy_gb_per_s());
    let probe_dir = ScratchDir::create("probe").map_err(|e| format!("scratch dir: {e}"))?;
    report.set(
        "host.fsync_p50_us",
        host::fsync_p50_us(probe_dir.path()).map_err(|e| format!("fsync probe: {e}"))?,
    );
    report.set("obs.ring_dropped", rings.dropped as f64);
    report.note(format!("host: {} × {}", host::nproc(), host::cpu_model()));
    Ok(())
}

// ---------------------------------------------------------------------------
// olap_scan / olap_short: closed-loop analytical queries, no ingest
// ---------------------------------------------------------------------------

fn run_olap(args: &RunArgs, sf: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let steal = StealWatch::start();
    let (system, setup_s) = setup::timed_setups(|_| {
        let system = HtapSystem::build(setup::config(sf, args.seed, Sides::One))?;
        setup::warm_round(&system)?;
        Ok(system)
    })?;
    report.set("setup_s", setup_s);

    let origin = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let runner = QueryRunner {
        system: &system,
        texts: setup::query_texts(),
        staged: args.trace,
        origin,
    };
    let mut samples: Vec<QuerySample> = Vec::new();
    let mut rings = RingTotals::default();
    let mut slices = Slices::new(args.trace);
    // One client, closed loop: the next query is issued when the previous
    // one returns; a round is one sequence of the seven queries.
    let mut round = 0;
    while origin.elapsed() < window {
        slices.enter(round, QUERIES.len());
        for query in 0..QUERIES.len() {
            samples.push(runner.issue(query, Instant::now()));
        }
        if args.trace {
            rings.drain();
        }
        round += 1;
    }
    htap_obs::set_enabled(false);
    let measured_s = queries_done_s(&samples);
    report.set("peak_rss_mb", host::peak_rss_mb());

    count_queries(&mut report, &samples);
    check::check_against_oracle(&mut report, &system);
    fill_latency(&mut report, &query_latencies(&samples), measured_s);
    report.note(format!(
        "{} rows at sf {sf}, {round} rounds in {measured_s:.2} s, seq p50 {:.3} ms",
        system.population().total_rows,
        median(&layers::sequence_times_ms(&samples)),
    ));
    if args.trace {
        layers::fill_query_layers(&mut report, &samples, &rings);
        report.set(
            "obs.tracing_overhead_pct",
            layers::query_tracing_overhead_pct(&samples),
        );
        fill_storage(&mut report, &system);
        fill_host(&mut report, &steal, &rings)?;
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// oltp_durable: closed-loop transactions on a group-commit WAL, then reopen
// ---------------------------------------------------------------------------

fn run_oltp_durable(args: &RunArgs, sf: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let steal = StealWatch::start();
    let config = setup::config(sf, args.seed, Sides::One);
    // The durable medium is memory: every code path of durability (record
    // encoding, group commit, checkpoint, truncation, recovery) without the
    // sandbox's disk, whose fsync time changed twofold between sets of runs
    // minutes apart (commits/s 1 248..2 806 in one set of ten, 2 741..3 111
    // in another). `host.fsync_p50_us` says what a device adds per batch.
    let open =
        |medium: &MemStorage| HtapSystem::build_durable(config.clone(), Arc::new(medium.clone()));
    let ((system, medium), setup_s) = setup::timed_setups(|_| {
        let medium = MemStorage::new();
        let system = open(&medium)?;
        // Warm round: a few logged transactions per worker, so the first
        // WAL append and flush are not in the measured window.
        system.run_oltp(20);
        Ok((system, medium))
    })?;
    let file_len = |name: &str| medium.bytes(name).map_or(0, |b| b.len() as u64);
    report.set("setup_s", setup_s);
    let durability = system
        .rde()
        .oltp()
        .durability()
        .ok_or("the system was not built durable")?;
    let wal_at_start = durability.wal().stats();

    let origin = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let ingest = Ingest::start(&system, Pace::Closed, origin, window, args.seed, None)?;
    let mut rings = RingTotals::default();
    let mut slices = Slices::new(args.trace);
    let mut checkpoint_ms = Vec::new();
    let mut wal_bytes = 0u64;
    let mut appended_at_last_checkpoint = wal_at_start.appended;
    let mut next_checkpoint = 0;
    while !ingest.finished() {
        let elapsed = origin.elapsed();
        slices.enter((elapsed.as_millis() / 250) as usize, 0);
        if args.trace {
            rings.drain();
        }
        let due = CHECKPOINTS_AT
            .get(next_checkpoint)
            .map(|f| window.mul_f64(*f));
        if due.is_some_and(|due| elapsed >= due) {
            next_checkpoint += 1;
            // The WAL is truncated at the checkpoint: add up what it held
            // (reading a size copies the file, so only when tracing).
            if args.trace {
                wal_bytes += file_len(WAL_FILE);
            }
            let t = Instant::now();
            let taken = system.checkpoint_now()?;
            checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
            report.check(
                "checkpoint taken",
                if taken {
                    Ok(())
                } else {
                    Err("the system is not durable".into())
                },
            );
            appended_at_last_checkpoint = durability.wal().stats().appended;
        }
        std::thread::sleep(Duration::from_millis(layers::DRAIN_EVERY_MS / 5));
    }
    let samples = ingest.stop(&system);
    if args.trace {
        rings.drain();
    }
    htap_obs::set_enabled(false);
    let window_s = window.as_secs_f64();
    let wal_at_end = durability.wal().stats();
    drop(durability);

    // Shut down and reopen the same medium: recovery must bring back the
    // same rows and the same answer.
    let rows_before = system.rde().oltp().total_rows();
    let q1 = QueryId::Q1.sql();
    let q1_before = check::sql_result(&system, &q1);
    drop(system);
    let t = Instant::now();
    let reopened = open(&medium)?;
    let recovery_s = t.elapsed().as_secs_f64();
    report.set("peak_rss_mb", host::peak_rss_mb());
    let checkpoint_bytes = file_len(CHECKPOINT_FILE);
    report.check(
        "checkpoint file written",
        if checkpoint_bytes > 0 {
            Ok(())
        } else {
            Err(format!("{CHECKPOINT_FILE} is empty or absent"))
        },
    );
    let rows_after = reopened.rde().oltp().total_rows();
    report.check(
        "rows after recovery",
        if rows_after == rows_before {
            Ok(())
        } else {
            Err(format!(
                "{rows_after} rows after reopen, {rows_before} before"
            ))
        },
    );
    // Not bit-identical: a checkpoint restore reloads rows in index order,
    // so the SUMs associate differently (last-digit differences).
    report.check(
        "Q1 after recovery",
        q1_before.and_then(|before| {
            let after = check::sql_result(&reopened, &q1)?;
            check::results_agree(&before, &after, check::SUM_REL_TOL)
        }),
    );

    count_txns(&mut report, &samples);
    let committed: Vec<&TxnSample> = samples.iter().filter(|s| s.committed).collect();
    fill_latency(
        &mut report,
        &txn_latencies(&committed),
        commits_done_s(&committed),
    );
    let appended = wal_at_end.appended - wal_at_start.appended;
    let fsyncs = wal_at_end.fsyncs - wal_at_start.fsyncs;
    report.note(format!(
        "flush policy: group commit, {} µs linger, max batch {}, one flush per batch, on memory; \
         {appended} records in {fsyncs} flushes; {} checkpoints; recovery {recovery_s:.3} s",
        config.durability.flush_interval_micros,
        config.durability.max_batch,
        checkpoint_ms.len(),
    ));
    if args.trace {
        layers::fill_txn_layers(&mut report, &samples, &rings);
        report.set(
            "obs.tracing_overhead_pct",
            layers::txn_tracing_overhead_pct(&samples),
        );
        report.set(
            "obs.traced_ops",
            samples.iter().filter(|s| s.traced).count() as f64,
        );
        report.set(
            "durability.wal.records_per_fsync",
            appended as f64 / fsyncs.max(1) as f64,
        );
        report.set("durability.wal.fsyncs_per_s", fsyncs as f64 / window_s);
        report.set(
            "durability.wal.bytes_per_commit",
            (wal_bytes + file_len(WAL_FILE)) as f64 / appended.max(1) as f64,
        );
        report.set("durability.checkpoint.p50_ms", median(&checkpoint_ms));
        report.set("durability.checkpoint.count", checkpoint_ms.len() as f64);
        report.set("durability.checkpoint.bytes", checkpoint_bytes as f64);
        report.set("durability.recovery_s", recovery_s);
        report.set(
            "durability.recovery.replayed_records",
            (wal_at_end.appended - appended_at_last_checkpoint) as f64,
        );
        fill_storage(&mut report, &reopened);
        fill_host(&mut report, &steal, &rings)?;
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// htap_mix / htap_mix_oltp: open loop on both sides
// ---------------------------------------------------------------------------

/// Which side of the mixed run fills the end-to-end latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Primary {
    Queries,
    Transactions,
}

fn run_htap_mix(args: &RunArgs, sf: f64, primary: Primary) -> Result<Report, String> {
    let mut report = Report::default();
    let steal = StealWatch::start();
    let (system, setup_s) = setup::timed_setups(|_| {
        let system = HtapSystem::build(setup::config(sf, args.seed, Sides::Both))?;
        setup::warm_round(&system)?;
        Ok(system)
    })?;
    report.set("setup_s", setup_s);
    let orderlines_at_start = system.population().orderlines;

    // Each side on its own half of the CPUs (see `host::pin_current_thread`);
    // pipeline workers the query thread spawns inherit its half.
    let nproc = host::nproc();
    let pinned = host::pin_current_thread(host::side_cpus(nproc, false));
    report.note(format!(
        "queries on CPUs {:?}, generators on {:?} (pinned: {pinned})",
        host::side_cpus(nproc, false),
        host::side_cpus(nproc, true),
    ));
    let origin = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let ingest = Ingest::start(
        &system,
        Pace::Open {
            tps: MIX_INGEST_TPS,
        },
        origin,
        window,
        args.seed,
        Some(host::side_cpus(nproc, true)),
    )?;
    let runner = QueryRunner {
        system: &system,
        texts: setup::query_texts(),
        staged: args.trace,
        origin,
    };
    let interval = Duration::from_millis(MIX_QUERY_INTERVAL_MS);
    let mut samples: Vec<QuerySample> = Vec::new();
    let mut rings = RingTotals::default();
    let mut slices = Slices::new(args.trace);
    // Query i is due at origin + i·interval whatever the system's speed, so
    // the data it sees depends on time only; a query that overruns delays
    // the next one and that wait is charged to it.
    for i in 0.. {
        let due = origin + interval * i as u32;
        if due.duration_since(origin) >= window {
            break;
        }
        if i % QUERIES.len() == 0 {
            slices.enter(i / QUERIES.len(), QUERIES.len());
        }
        if args.trace {
            rings.drain();
        }
        wait_until(due);
        samples.push(runner.issue(i % QUERIES.len(), due));
    }
    while !ingest.finished() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let txns = ingest.stop(&system);
    if args.trace {
        rings.drain();
    }
    htap_obs::set_enabled(false);
    report.set("peak_rss_mb", host::peak_rss_mb());
    count_queries(&mut report, &samples);
    count_txns(&mut report, &txns);
    // With ingest stopped the store is quiescent: every schedule and the
    // oracle must agree, and every inserted order line must be there.
    check::check_across_schedules(&mut report, &system);
    let inserted = system.txn_driver().stats().orderlines_inserted();
    let orderlines = system
        .rde()
        .oltp()
        .table("orderline")
        .map_or(0, |t| t.twin().row_count());
    report.check(
        "orderline rows = initial + inserted",
        if orderlines == orderlines_at_start + inserted {
            Ok(())
        } else {
            Err(format!(
                "{orderlines} rows, expected {orderlines_at_start} + {inserted}"
            ))
        },
    );

    let committed: Vec<&TxnSample> = txns.iter().filter(|s| s.committed).collect();
    let query_ms = query_latencies(&samples);
    let txn_ms = txn_latencies(&committed);
    match primary {
        Primary::Queries => fill_latency(&mut report, &query_ms, queries_done_s(&samples)),
        Primary::Transactions => fill_latency(&mut report, &txn_ms, commits_done_s(&committed)),
    }
    let query_late: Vec<f64> = samples
        .iter()
        .map(|s| s.start_ns.saturating_sub(s.due_ns) as f64 / 1e6)
        .collect();
    report.note(format!(
        "offered {MIX_INGEST_TPS} tps and one query per {MIX_QUERY_INTERVAL_MS} ms: \
         {:.1} commits/s, {} queries (p50 {:.3} ms, p95 {:.3} ms, started late p95 {:.3} ms), \
         txn p50 {:.1} µs p95 {:.1} µs, {} rows at the end",
        committed.len() as f64 / commits_done_s(&committed),
        samples.len(),
        median(&query_ms),
        percentile(&query_ms, 95.0),
        percentile(&query_late, 95.0),
        median(&txn_ms) * 1e3,
        percentile(&txn_ms, 95.0) * 1e3,
        system.rde().oltp().total_rows(),
    ));
    if args.trace {
        layers::fill_query_layers(&mut report, &samples, &rings);
        layers::fill_txn_layers(&mut report, &txns, &rings);
        report.set("gen.query_late_p95_ms", percentile(&query_late, 95.0));
        report.set(
            "obs.tracing_overhead_pct",
            match primary {
                Primary::Queries => layers::query_tracing_overhead_pct(&samples),
                Primary::Transactions => layers::txn_tracing_overhead_pct(&txns),
            },
        );
        fill_storage(&mut report, &system);
        fill_host(&mut report, &steal, &rings)?;
    }
    Ok(report)
}
