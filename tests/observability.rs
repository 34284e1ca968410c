//! End-to-end observability: a real system run must leave a coherent
//! picture in both records — span trees for queries (each `rde.schedule`
//! span being one scheduler decision), ring events for commits and
//! morsels — and the Chrome export must carry all of it, with the decision
//! track derived from the spans.
//!
//! The obs state is process-global (rings, span log, the enabled flag), so
//! the tests in this binary serialise on one mutex.

use adaptive_htap::core::SchedulerPolicy;
use adaptive_htap::storage::Value;
use adaptive_htap::{obs, HtapConfig, HtapSystem, QueryId, Schedule, SystemState};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn find_span<'a>(spans: &'a [obs::Span], name: &str) -> Option<&'a obs::Span> {
    for s in spans {
        if s.name == name {
            return Some(s);
        }
        if let Some(hit) = find_span(&s.children, name) {
            return Some(hit);
        }
    }
    None
}

/// Every span named `name` in the trees of `spans`, depth-first.
fn all_spans<'a>(spans: &'a [obs::Span], name: &str, out: &mut Vec<&'a obs::Span>) {
    for s in spans {
        if s.name == name {
            out.push(s);
        }
        all_spans(&s.children, name, out);
    }
}

/// Run the continuous ingest pool until at least `commits` transactions
/// committed, returning the consistent counts snapshot sampled live.
fn ingest_at_least(system: &HtapSystem, commits: u64) -> adaptive_htap::oltp::OltpCounts {
    assert!(system.start_oltp_ingest() > 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    while system.oltp_live_counts().committed < commits {
        assert!(Instant::now() < deadline, "ingest never reached {commits}");
        std::thread::yield_now();
    }
    let live = system.oltp_live_counts();
    system.stop_oltp_ingest();
    live
}

#[test]
fn a_real_run_populates_spans_events_decisions_and_metrics() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    let system = HtapSystem::build(HtapConfig::tiny()).expect("system builds");
    let events_before = obs::obs().event_totals().recorded;
    let spans_before = obs::spans_snapshot();
    let mut schedules_before = Vec::new();
    all_spans(&spans_before, "rde.schedule", &mut schedules_before);

    let live = ingest_at_least(&system, 20);
    assert!(live.committed >= 20);
    let report = system.execute_query(QueryId::Q6).expect("Q6 executes");
    assert!(report.result_rows >= 1);
    let sql_report = system
        .execute_sql("SELECT COUNT(*) FROM orderline")
        .expect("ad-hoc SQL executes");
    assert!(sql_report.result_rows >= 1);

    // Span trees: the CH query and the SQL query each left a root with the
    // full schedule→execute hierarchy underneath.
    let spans = obs::spans_snapshot();
    let roots: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert!(roots.contains(&"query"), "no query roots in {roots:?}");
    for name in [
        "query.execute",
        "rde.schedule",
        "rde.switch",
        "olap.pipeline",
        "worker",
        "sql.parse",
        "sql.bind",
        "sql.plan",
    ] {
        assert!(
            find_span(&spans, name).is_some(),
            "span {name} missing from the run's span log"
        );
    }
    // Every worker rollup says whether its worker ran pinned to its core;
    // worker 0 runs on the posting thread, which the team does not pin.
    let mut workers = Vec::new();
    all_spans(&spans, "worker", &mut workers);
    for worker in &workers {
        let arg = |key: &str| worker.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        let pinned = arg("pinned");
        assert!(
            matches!(pinned, Some(p) if p == 0.0 || p == 1.0),
            "worker span carries no 0/1 pinned arg: {:?}",
            worker.args
        );
        if arg("worker") == Some(0.0) {
            assert_eq!(pinned, Some(0.0), "worker 0 reported itself pinned");
        }
    }
    let exec = find_span(&spans, "query.execute").unwrap();
    assert!(
        exec.args.iter().any(|(k, _)| *k == "freshness"),
        "query.execute carries no freshness arg: {:?}",
        exec.args
    );

    // Ring events: commits (the ingest pool) and morsels (the queries).
    let totals = obs::obs().event_totals();
    assert!(
        totals.recorded > events_before,
        "no ring events recorded by the run"
    );

    // Decisions: one rde.schedule span per scheduled query, carrying the
    // chosen state and the scheduler's inputs and grant.
    let mut schedules = Vec::new();
    all_spans(&spans, "rde.schedule", &mut schedules);
    assert!(schedules.len() >= schedules_before.len() + 2);
    for schedule in &schedules {
        assert!(!schedule.detail.is_empty(), "rde.schedule without a state");
        for key in [
            "freshness",
            "pending_delta_rows",
            "active_oltp_workers",
            "oltp_cores",
            "olap_cores",
            "modeled_time_s",
        ] {
            assert!(
                schedule.args.iter().any(|(k, _)| *k == key),
                "rde.schedule lacks {key}: {:?}",
                schedule.args
            );
        }
        let freshness = schedule.args.iter().find(|(k, _)| *k == "freshness");
        assert!((0.0..=1.0).contains(&freshness.unwrap().1));
    }

    // With the pool stopped, the live counts read all-zero.
    assert_eq!(
        system.oltp_live_counts(),
        adaptive_htap::oltp::OltpCounts::default()
    );

    // Chrome export: carries spans, ring events and one decision instant
    // per rde.schedule span, and a second export only drains ring events
    // recorded since the first.
    let json = obs::chrome::chrome_trace_json();
    for needle in [
        "\"traceEvents\"",
        "\"query.execute\"",
        "\"txn-commit\"",
        "\"morsel\"",
        "rde-",
        "olap-worker-0",
    ] {
        assert!(json.contains(needle), "export lacks {needle}");
    }
    assert!(json.trim_end().ends_with('}'));
    let decision_instants = json
        .lines()
        .filter(|l| l.starts_with("{\"name\":\"rde-") && l.contains("\"ph\":\"i\""))
        .count();
    assert_eq!(
        decision_instants,
        schedules.len(),
        "the decision track must hold one instant per rde.schedule span"
    );
    let drained_once = obs::obs().event_totals().drained;
    let _second = obs::chrome::chrome_trace_json();
    assert_eq!(
        obs::obs().event_totals().drained,
        drained_once,
        "second export re-drained events the first already consumed"
    );
}

#[test]
fn disabling_tracing_stops_recording_but_not_the_metrics_registry() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let system = HtapSystem::build(HtapConfig::tiny()).expect("system builds");
    obs::set_enabled(false);
    let events_before = obs::obs().event_totals().recorded;
    let spans_before = obs::spans_snapshot().len();
    let committed_before = system.txn_driver().stats().committed();
    let live = ingest_at_least(&system, 5);
    system.execute_query(QueryId::Q1).expect("Q1 executes");
    assert_eq!(
        obs::obs().event_totals().recorded,
        events_before,
        "disabled tracing must not record ring events"
    );
    assert_eq!(
        obs::spans_snapshot().len(),
        spans_before,
        "disabled tracing must not open spans"
    );
    // The engines' typed counters are a separate concern: they keep
    // counting (the live counts reached 5 while tracing was off).
    assert!(live.committed >= 5);
    assert!(system.txn_driver().stats().committed() >= committed_before + live.committed);
    obs::set_enabled(true);
}

/// The switch gate is the one place the engines meet, and a query crosses it
/// once: under every schedule, `rde.schedule` holds exactly one `rde.switch`
/// and — when the state performs an ETL — exactly one `rde.etl` after it.
#[test]
fn a_query_crosses_the_switch_gate_exactly_once() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    let system = HtapSystem::build(HtapConfig::tiny()).expect("system builds");
    assert!(system.start_oltp_ingest() > 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    while system.oltp_live_counts().committed < 20 {
        assert!(Instant::now() < deadline, "ingest never reached 20 commits");
        std::thread::yield_now();
    }
    let schedules = [
        Schedule::Static(SystemState::S1Colocated),
        Schedule::Static(SystemState::S2Isolated),
        Schedule::Static(SystemState::S3HybridIsolated),
        Schedule::Static(SystemState::S3HybridNonIsolated),
        Schedule::Adaptive(SchedulerPolicy::adaptive_non_isolated(0.5)),
    ];
    for schedule in schedules {
        system.set_schedule(schedule);
        let roots_before = obs::spans_snapshot().len();
        let report = system
            .execute_sql("SELECT COUNT(*) FROM orderline")
            .expect("ad-hoc SQL executes under live ingest");
        assert_eq!(
            report.performed_etl,
            report.state.performs_etl(),
            "{}: ETL and state disagree",
            schedule.label()
        );
        let roots = obs::spans_snapshot();
        let query: Vec<&obs::Span> = roots[roots_before..]
            .iter()
            .filter(|s| s.name == "query")
            .collect();
        assert_eq!(query.len(), 1, "one execute_sql, one query root");
        let scheduled = find_span(std::slice::from_ref(query[0]), "rde.schedule")
            .expect("the query was scheduled");
        let crossings: Vec<&str> = scheduled.children.iter().map(|c| c.name).collect();
        let expected: &[&str] = if report.performed_etl {
            &["rde.switch", "rde.etl"]
        } else {
            &["rde.switch"]
        };
        assert_eq!(
            crossings,
            expected,
            "{}: rde.schedule must cross the gate once",
            schedule.label()
        );
    }
    system.stop_oltp_ingest();

    // The reported switch is the one that did the work: with ingest stopped,
    // a drained gate and a known number of overwritten rows, the scheduled
    // query's `synced_records` is exactly that number.
    let plan = system.plan_sql("SELECT COUNT(*) FROM item").expect("plans");
    system.with_scheduler(|s| s.schedule_query(&plan, false));
    const OVERWRITTEN: u64 = 7;
    for key in 1..=OVERWRITTEN {
        system.rde().oltp().execute(|mut txn| {
            txn.update("item", key, 2, Value::F64(key as f64))
                .expect("item exists");
            txn.commit().expect("no concurrent writer");
        });
    }
    let scheduled = system.with_scheduler(|s| s.schedule_query(&plan, false));
    assert_eq!(scheduled.migration.switch.synced_records, OVERWRITTEN);
}

/// A grouped root pipeline's `olap.pipeline` span says whether its groups
/// seat: `seated` = 1 for Q1's `ol_number`, Q4's `o_ol_cnt` and Q12's
/// `o_carrier_id`, each a one-column key whose storage-kept bounds span a
/// few keys. It is decided at bind from the bounds, so Q12 reports it with
/// no group to seat at this size. A scalar root (Q6) carries no `seated`
/// arg, nor does any build.
#[test]
fn a_grouped_root_span_says_whether_its_groups_seat() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    let system = HtapSystem::build(HtapConfig::tiny()).expect("system builds");
    for (query, seated) in [
        (QueryId::Q1, vec![1.0]),
        (QueryId::Q4, vec![1.0]),
        (QueryId::Q12, vec![1.0]),
        (QueryId::Q6, vec![]),
    ] {
        let roots_before = obs::spans_snapshot().len();
        system.execute_query(query).expect("the query executes");
        let roots = obs::spans_snapshot();
        let mut pipelines = Vec::new();
        all_spans(&roots[roots_before..], "olap.pipeline", &mut pipelines);
        let args: Vec<f64> = pipelines
            .iter()
            .filter_map(|p| p.args.iter().find(|(k, _)| *k == "seated").map(|a| a.1))
            .collect();
        assert_eq!(args, seated, "{}: seated", query.label());
    }
}

/// A join build's `olap.pipeline` span says which table kind it ran:
/// `direct` = 1 for Q19's build of `item` on its dense primary key `i_id`,
/// for Q3's builds of `customer` on `(c_w_id, c_d_id, c_id)` and of
/// `orders` on `(o_w_id, o_d_id, o_id)`, and for Q4's and Q12's builds of
/// `orderline` on `(ol_w_id, ol_d_id, ol_o_id)` — each tuple folded over
/// its columns' storage-kept bounds, a box about the size of the relation.
/// Q12's build is empty at this size (no delivery has run) and still binds
/// direct: the kind is decided from the bounds, not from the rows. The
/// root pipeline, which builds nothing, carries no `direct` arg.
#[test]
fn a_build_span_says_which_table_kind_ran() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    let system = HtapSystem::build(HtapConfig::tiny()).expect("system builds");
    for (query, builds, direct) in [
        (QueryId::Q19, 1, 1.0),
        (QueryId::Q3, 2, 1.0),
        (QueryId::Q4, 1, 1.0),
        (QueryId::Q12, 1, 1.0),
    ] {
        let roots_before = obs::spans_snapshot().len();
        system.execute_query(query).expect("the query executes");
        let roots = obs::spans_snapshot();
        let mut pipelines = Vec::new();
        all_spans(&roots[roots_before..], "olap.pipeline", &mut pipelines);
        let kinds: Vec<f64> = pipelines
            .iter()
            .filter_map(|p| p.args.iter().find(|(k, _)| *k == "direct").map(|a| a.1))
            .collect();
        assert_eq!(
            kinds,
            vec![direct; builds],
            "{}: build table kinds",
            query.label()
        );
        assert_eq!(pipelines.len(), builds + 1, "{}: one root", query.label());
    }
}
