//! Chrome `trace_event` JSON export: one self-contained string covering the
//! span log and every ring lane, loadable in `chrome://tracing` or Perfetto.
//!
//! Layout: pid 1, with tid 0 carrying the query span trees, tid `lane+1`
//! carrying that ring lane's events (named after the lane:
//! `olap-worker-3`, `oltp-ingest-0`, `aux-1`), and the final tid
//! (`rde-scheduler`) carrying one instant per `rde.schedule` span, named
//! after how its OLAP grant compares with the previous one's. Interval
//! events (`ph: "X"`) come out of single completion-records (`ts` = start,
//! `dur` = the payload word); packed `txn-commit` events are re-inflated
//! into a commit span with lock/wal-wait/apply children, so commit trees
//! cost nothing on the hot path. The JSON is hand-rolled (the repo's serde
//! shim has no serializer) and escapes every dynamic string.
//!
//! Ring lanes are *drained* by the export (successive exports carry only
//! new events); spans are snapshotted without draining.

use crate::event::{unpack_morsel, unpack_phases, Event, EventKind};
use crate::span::Span;

/// Escape a string for a JSON literal (quotes, backslashes, control bytes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an f64 for JSON (never NaN/Inf — those are not valid JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

struct TraceWriter {
    out: String,
    first: bool,
}

impl TraceWriter {
    fn new() -> Self {
        TraceWriter {
            out: String::from("{\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn push(&mut self, event_json: String) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str(&event_json);
    }

    fn thread_name(&mut self, tid: usize, name: &str) {
        self.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    fn complete(&mut self, name: &str, tid: usize, ts: u64, dur: u64, args: &str) {
        self.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\
             \"dur\":{dur},\"args\":{{{args}}}}}",
            esc(name)
        ));
    }

    fn instant(&mut self, name: &str, tid: usize, ts: u64, args: &str) {
        self.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{ts},\"args\":{{{args}}}}}",
            esc(name)
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        self.out
    }
}

/// A span's detail (under `detail_key`, when set) and numeric args as the
/// body of a JSON `args` object.
fn args_json(span: &Span, detail_key: &str) -> String {
    let mut args = String::new();
    if !span.detail.is_empty() {
        args.push_str(&format!("\"{detail_key}\":\"{}\"", esc(&span.detail)));
    }
    for (k, v) in &span.args {
        if !args.is_empty() {
            args.push(',');
        }
        args.push_str(&format!("\"{}\":{}", esc(k), num(*v)));
    }
    args
}

/// Span trees go on tid 0 as nested complete events (Chrome nests `X`
/// events on one tid by time containment).
fn write_span(w: &mut TraceWriter, span: &Span) {
    // Zero-duration spans still need dur >= 1 to be visible/nestable.
    let dur = span.duration_us().max(1);
    w.complete(span.name, 0, span.start_us, dur, &args_json(span, "detail"));
    for child in &span.children {
        write_span(w, child);
    }
}

/// Every `rde.schedule` span in `span`'s tree, depth-first.
fn collect_schedules<'a>(span: &'a Span, out: &mut Vec<&'a Span>) {
    if span.name == "rde.schedule" {
        out.push(span);
    }
    for child in &span.children {
        collect_schedules(child, out);
    }
}

/// The RDE decision track: one instant per `rde.schedule` span, in start
/// order, at the span's end (when the grant took effect). The name
/// classifies the span's `olap_cores` against the previous span's; the
/// args are the span's args plus its state.
fn write_decisions(w: &mut TraceWriter, roots: &[Span]) {
    let mut schedules = Vec::new();
    for root in roots {
        collect_schedules(root, &mut schedules);
    }
    if schedules.is_empty() {
        return;
    }
    schedules.sort_by_key(|s| s.start_us);
    let tid = crate::OLAP_LANES + crate::OLTP_LANES + crate::AUX_LANES + 1;
    w.thread_name(tid, "rde-scheduler");
    let mut prev: Option<f64> = None;
    for s in schedules {
        let olap = s
            .args
            .iter()
            .find(|(k, _)| *k == "olap_cores")
            .map_or(0.0, |(_, v)| *v);
        let name = match prev {
            None => "rde-initial",
            Some(p) if olap > p => "rde-grant-olap",
            Some(p) if olap < p => "rde-revoke-olap",
            Some(_) => "rde-hold",
        };
        prev = Some(olap);
        w.instant(name, tid, s.end_us, &args_json(s, "state"));
    }
}

/// One drained ring event onto its lane's tid.
fn write_event(w: &mut TraceWriter, tid: usize, e: &Event) {
    match e.kind {
        EventKind::Morsel => {
            let (pipeline, morsel) = unpack_morsel(e.a);
            w.complete(
                e.kind.name(),
                tid,
                e.ts_us,
                e.b.max(1),
                &format!("\"pipeline\":{pipeline},\"morsel\":{morsel}"),
            );
        }
        EventKind::PipelineBuild | EventKind::PipelineProbe | EventKind::PipelineMerge => {
            w.complete(
                e.kind.name(),
                tid,
                e.ts_us,
                e.b.max(1),
                &format!("\"morsels\":{}", e.a),
            );
        }
        EventKind::WalFsyncBatch => {
            w.complete(
                e.kind.name(),
                tid,
                e.ts_us,
                e.b.max(1),
                &format!("\"records\":{}", e.a),
            );
        }
        EventKind::TxnCommit => {
            // Re-inflate the packed phases into a commit span tree.
            let (lock_us, wal_us, apply_us) = unpack_phases(e.b);
            let total = (lock_us + wal_us + apply_us).max(1);
            w.complete(
                "txn-commit",
                tid,
                e.ts_us,
                total,
                &format!("\"ops\":{}", e.a),
            );
            let mut at = e.ts_us;
            for (name, dur) in [
                ("commit.lock", lock_us),
                ("commit.wal-wait", wal_us),
                ("commit.apply", apply_us),
            ] {
                if dur > 0 {
                    w.complete(name, tid, at, dur, "");
                    at += dur;
                }
            }
        }
        EventKind::TxnAbort => {
            w.instant(e.kind.name(), tid, e.ts_us, &format!("\"worker\":{}", e.a));
        }
        EventKind::CheckpointBegin => {
            w.instant(
                e.kind.name(),
                tid,
                e.ts_us,
                &format!("\"switches\":{}", e.a),
            );
        }
        EventKind::CheckpointEnd => {
            w.complete(
                e.kind.name(),
                tid,
                e.ts_us,
                e.b.max(1),
                &format!("\"tables\":{}", e.a),
            );
        }
    }
}

/// Export everything recorded so far as Chrome `trace_event` JSON. Ring
/// lanes are drained (a second export carries only newer events); spans
/// are snapshotted.
pub fn chrome_trace_json() -> String {
    let mut w = TraceWriter::new();
    w.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
         \"args\":{\"name\":\"adaptive-htap\"}}"
            .to_string(),
    );
    w.thread_name(0, "queries");

    let spans = crate::spans_snapshot();
    for span in &spans {
        write_span(&mut w, span);
    }

    let (lanes, _dropped) = crate::drain_events();
    for (lane, events) in &lanes {
        let tid = lane + 1;
        w.thread_name(tid, &crate::lane_name(*lane));
        for e in events {
            write_event(&mut w, tid, e);
        }
    }

    write_decisions(&mut w, &spans);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::pack_phases;

    /// Minimal JSON well-formedness checker: values, objects, arrays,
    /// strings with escapes, numbers, bools, null. Returns the remaining
    /// input on success.
    fn skip_ws(s: &[u8], mut i: usize) -> usize {
        while i < s.len() && (s[i] as char).is_ascii_whitespace() {
            i += 1;
        }
        i
    }

    fn parse_value(s: &[u8], i: usize) -> Result<usize, String> {
        let i = skip_ws(s, i);
        match s.get(i) {
            Some(b'{') => {
                let mut i = skip_ws(s, i + 1);
                if s.get(i) == Some(&b'}') {
                    return Ok(i + 1);
                }
                loop {
                    i = parse_string(s, skip_ws(s, i))?;
                    i = skip_ws(s, i);
                    if s.get(i) != Some(&b':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    i = parse_value(s, i + 1)?;
                    i = skip_ws(s, i);
                    match s.get(i) {
                        Some(b',') => i += 1,
                        Some(b'}') => return Ok(i + 1),
                        other => return Err(format!("expected ',' or '}}' at {i}: {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                let mut i = skip_ws(s, i + 1);
                if s.get(i) == Some(&b']') {
                    return Ok(i + 1);
                }
                loop {
                    i = parse_value(s, i)?;
                    i = skip_ws(s, i);
                    match s.get(i) {
                        Some(b',') => i += 1,
                        Some(b']') => return Ok(i + 1),
                        other => return Err(format!("expected ',' or ']' at {i}: {other:?}")),
                    }
                }
            }
            Some(b'"') => parse_string(s, i),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let mut i = i + 1;
                while i < s.len()
                    && (s[i].is_ascii_digit() || matches!(s[i], b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    i += 1;
                }
                Ok(i)
            }
            Some(b't') => expect(s, i, b"true"),
            Some(b'f') => expect(s, i, b"false"),
            Some(b'n') => expect(s, i, b"null"),
            other => Err(format!("unexpected {other:?} at {i}")),
        }
    }

    fn expect(s: &[u8], i: usize, word: &[u8]) -> Result<usize, String> {
        if s.len() >= i + word.len() && &s[i..i + word.len()] == word {
            Ok(i + word.len())
        } else {
            Err(format!("bad literal at {i}"))
        }
    }

    fn parse_string(s: &[u8], i: usize) -> Result<usize, String> {
        if s.get(i) != Some(&b'"') {
            return Err(format!("expected '\"' at {i}"));
        }
        let mut i = i + 1;
        while let Some(&c) = s.get(i) {
            match c {
                b'"' => return Ok(i + 1),
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn assert_valid_json(text: &str) {
        let bytes = text.as_bytes();
        let end = parse_value(bytes, 0).unwrap_or_else(|e| panic!("invalid JSON: {e}"));
        assert_eq!(skip_ws(bytes, end), bytes.len(), "trailing garbage");
    }

    #[test]
    fn escaping_handles_quotes_and_control_bytes() {
        assert_eq!(esc("a\"b\\c\nd\te\u{1}"), "a\\\"b\\\\c\\nd\\te\\u0001");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1.5), "1.5");
    }

    #[test]
    fn export_is_valid_json_and_carries_all_sources() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        // A span tree with hostile characters in the detail.
        {
            let g = crate::span("query");
            g.detail("SELECT \"x\"\n\t\\");
            g.arg("freshness", 0.25);
            let _child = crate::span("query.execute");
        }
        // Ring events of every kind.
        crate::record_olap(
            0,
            EventKind::Morsel,
            crate::now_us(),
            crate::pack_morsel(7, 3),
            12,
        );
        crate::record_thread(EventKind::PipelineBuild, crate::now_us(), 4, 100);
        crate::record_thread(EventKind::PipelineProbe, crate::now_us(), 8, 200);
        crate::record_thread(EventKind::PipelineMerge, crate::now_us(), 8, 5);
        crate::record_thread(EventKind::WalFsyncBatch, crate::now_us(), 6, 800);
        crate::record_thread(
            EventKind::TxnCommit,
            crate::now_us(),
            3,
            pack_phases(10, 500, 20),
        );
        crate::record_thread(EventKind::TxnAbort, crate::now_us(), 2, 0);
        crate::record_thread(EventKind::CheckpointBegin, crate::now_us(), 5, 0);
        crate::record_thread(EventKind::CheckpointEnd, crate::now_us(), 9, 3000);
        // One scheduling decision.
        {
            let g = crate::span("rde.schedule");
            g.detail("S3-NI");
            g.arg("pending_delta_rows", 123.0);
            g.arg("olap_cores", 4.0);
        }

        let json = chrome_trace_json();
        assert_valid_json(&json);
        for needle in [
            "\"traceEvents\"",
            "\"morsel\"",
            "\"pipeline-build\"",
            "\"wal-fsync-batch\"",
            "\"txn-commit\"",
            "\"commit.wal-wait\"",
            "\"checkpoint-end\"",
            "\"query\"",
            "rde-",
            "\"state\":\"S3-NI\",\"pending_delta_rows\":123",
            "olap-worker-0",
        ] {
            assert!(json.contains(needle), "export lacks {needle}: {json}");
        }
    }

    /// A bare `rde.schedule` span granting `olap` cores, starting at `start`.
    fn schedule(start: u64, olap: f64) -> Span {
        Span {
            name: "rde.schedule",
            detail: "S3-NI".into(),
            start_us: start,
            end_us: start + 1,
            args: vec![("olap_cores", olap)],
            children: Vec::new(),
        }
    }

    #[test]
    fn decisions_classify_against_the_previous_schedule() {
        // Four decisions granting 4, 8, 8, 2 OLAP cores, nested under two
        // query roots whose order differs from the decisions' start order.
        let root = |start: u64, children: Vec<Span>| Span {
            name: "query",
            detail: String::new(),
            start_us: start,
            end_us: start + 10,
            args: Vec::new(),
            children,
        };
        let roots = [
            root(20, vec![schedule(21, 8.0), schedule(31, 2.0)]),
            root(0, vec![schedule(1, 4.0), schedule(11, 8.0)]),
        ];
        let mut w = TraceWriter::new();
        write_decisions(&mut w, &roots);
        let json = w.finish();
        assert_valid_json(&json);
        let instants: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"ph\":\"i\""))
            .collect();
        let names: Vec<&str> = instants
            .iter()
            .filter_map(|l| l.strip_prefix("{\"name\":\"")?.split('"').next())
            .collect();
        assert_eq!(
            names,
            [
                "rde-initial",
                "rde-grant-olap",
                "rde-hold",
                "rde-revoke-olap"
            ]
        );
        assert!(instants
            .iter()
            .all(|l| l.contains("\"state\":\"S3-NI\",\"olap_cores\":")));
    }
}
