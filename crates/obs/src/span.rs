//! Span trees: hierarchical timed sections recorded on the coordinating
//! thread (query granularity — allocation here is fine; the per-morsel hot
//! path uses the event rings instead).
//!
//! Each thread keeps a stack of open spans. [`span`] opens one and returns
//! an RAII guard; dropping the guard closes the span and attaches it to its
//! parent, or — for a root — pushes the finished tree into the global span
//! log (bounded, drop-newest with a counter). Guards close any deeper spans
//! still open, so early returns via `?` can never corrupt the stack.
//!
//! The hierarchy produced for one SQL query:
//!
//! ```text
//! query                      (label, freshness, modeled/actual times)
//! ├── sql.parse
//! ├── sql.bind
//! ├── sql.plan
//! └── query.execute
//!     ├── rde.schedule       (switch, freshness measure, decide, enforce)
//!     │   ├── rde.switch     (exactly one per query)
//!     │   └── rde.etl        (at most one, after the switch)
//!     └── olap.pipeline*     (one per pipeline; per-worker rollup children)
//!         └── worker*        (morsels, busy_us per worker)
//! ```
//!
//! `Transaction::commit` trees are *not* built here — a commit is far too
//! hot for per-commit allocation. Commits record one packed ring event and
//! the Chrome exporter re-inflates it into a lock/WAL-wait/apply span tree.

use crate::clock::now_us;
use std::cell::RefCell;

/// One closed span: a named interval with numeric args, free-text detail,
/// and child spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Section name (static: span opening never allocates for the name).
    pub name: &'static str,
    /// Optional free-text annotation (query label, SQL text, ...).
    pub detail: String,
    /// Start, µs since the trace epoch.
    pub start_us: u64,
    /// End, µs since the trace epoch.
    pub end_us: u64,
    /// Numeric annotations, in insertion order.
    pub args: Vec<(&'static str, f64)>,
    /// Nested child spans, in completion order.
    pub children: Vec<Span>,
}

impl Span {
    fn open(name: &'static str) -> Self {
        Span {
            name,
            detail: String::new(),
            start_us: now_us(),
            end_us: 0,
            args: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Duration in µs.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Depth-first search for a descendant (or self) by name.
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// The bounded global log of finished root spans.
#[derive(Debug, Default)]
pub(crate) struct SpanLog {
    pub(crate) roots: Vec<Span>,
    pub(crate) dropped: u64,
}

/// Root spans kept before drop-newest kicks in. Pre-reserved at first push
/// so steady-state pushes never reallocate.
pub(crate) const SPAN_LOG_CAPACITY: usize = 8192;

impl SpanLog {
    pub(crate) fn push(&mut self, span: Span) {
        if self.roots.capacity() == 0 {
            self.roots.reserve_exact(SPAN_LOG_CAPACITY);
        }
        if self.roots.len() < SPAN_LOG_CAPACITY {
            self.roots.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

thread_local! {
    /// Open spans of the current thread, outermost first.
    static STACK: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// RAII handle for an open span. Dropping it closes the span (and any
/// deeper spans left open by early returns).
#[derive(Debug)]
pub struct SpanGuard {
    /// Index of the span in the thread's open stack; `None` when tracing
    /// was disabled at open (the guard is a no-op then).
    depth: Option<usize>,
}

impl SpanGuard {
    /// A guard that does nothing (tracing disabled).
    pub(crate) fn disabled() -> SpanGuard {
        SpanGuard { depth: None }
    }

    /// Whether this guard actually tracks a span.
    pub fn is_active(&self) -> bool {
        self.depth.is_some()
    }

    /// Attach a numeric annotation to this span.
    pub fn arg(&self, key: &'static str, value: f64) {
        let Some(depth) = self.depth else { return };
        with_stack(|stack| {
            if let Some(span) = stack.get_mut(depth) {
                span.args.push((key, value));
            }
        });
    }

    /// Set the free-text detail of this span.
    pub fn detail(&self, detail: &str) {
        let Some(depth) = self.depth else { return };
        with_stack(|stack| {
            if let Some(span) = stack.get_mut(depth) {
                span.detail.clear();
                span.detail.push_str(detail);
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(depth) = self.depth else { return };
        close_to_depth(depth);
    }
}

/// Run `f` over the thread's open-span stack; silently a no-op during
/// thread teardown or pathological re-entrancy (never panics).
fn with_stack<R>(f: impl FnOnce(&mut Vec<Span>) -> R) -> Option<R> {
    STACK
        .try_with(|cell| cell.try_borrow_mut().ok().map(|mut s| f(&mut s)))
        .ok()
        .flatten()
}

/// Open a span on the current thread. Returns an inert guard when tracing
/// is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::disabled();
    }
    let depth = with_stack(|stack| {
        stack.push(Span::open(name));
        stack.len() - 1
    });
    SpanGuard { depth }
}

/// Append an already-timed child span to the innermost open span (or to the
/// global log as a root when none is open). Used for per-worker morsel
/// rollups, whose bounds are measured outside the span stack.
pub fn child_span(name: &'static str, start_us: u64, end_us: u64, args: &[(&'static str, f64)]) {
    if !crate::enabled() {
        return;
    }
    let child = Span {
        name,
        detail: String::new(),
        start_us,
        end_us,
        args: args.to_vec(),
        children: Vec::new(),
    };
    let mut child = Some(child);
    with_stack(|stack| {
        if let Some(parent) = stack.last_mut() {
            parent.children.extend(child.take());
        }
    });
    if let Some(child) = child {
        crate::obs().spans.lock().push(child);
    }
}

/// Close every span at `depth` or deeper, attaching each to its parent and
/// pushing finished roots to the global log.
fn close_to_depth(depth: usize) {
    let finished = with_stack(|stack| {
        let mut roots = Vec::new();
        while stack.len() > depth {
            let Some(mut span) = stack.pop() else { break };
            span.end_us = now_us();
            match stack.last_mut() {
                Some(parent) => parent.children.push(span),
                None => roots.push(span),
            }
        }
        roots
    });
    if let Some(roots) = finished {
        if !roots.is_empty() {
            let mut log = crate::obs().spans.lock();
            for root in roots {
                log.push(root);
            }
        }
    }
}

/// Clone the finished root spans collected so far (newest last), without
/// draining them.
pub fn spans_snapshot() -> Vec<Span> {
    crate::obs().spans.lock().roots.clone()
}

/// Number of root spans dropped because the span log was full.
pub fn spans_dropped() -> u64 {
    crate::obs().spans.lock().dropped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_roots_reach_the_log() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        let before = spans_snapshot().len();
        {
            let root = span("test.root");
            root.detail("hello");
            root.arg("x", 1.0);
            {
                let child = span("test.child");
                child.arg("y", 2.0);
                child_span("test.rollup", 1, 5, &[("morsels", 3.0)]);
            }
        }
        let spans = spans_snapshot();
        assert_eq!(spans.len(), before + 1);
        let root = spans.last().cloned().unwrap_or_else(|| {
            unreachable!();
        });
        assert_eq!(root.name, "test.root");
        assert_eq!(root.detail, "hello");
        assert_eq!(root.args, vec![("x", 1.0)]);
        assert_eq!(root.children.len(), 1);
        let child = &root.children[0];
        assert_eq!(child.name, "test.child");
        assert_eq!(child.children.len(), 1);
        assert_eq!(child.children[0].name, "test.rollup");
        assert_eq!(child.children[0].duration_us(), 4);
        assert!(root.find("test.rollup").is_some());
        assert!(root.find("nope").is_none());
    }

    #[test]
    fn dropping_an_outer_guard_closes_leaked_inner_spans() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        let before = spans_snapshot().len();
        {
            let _root = span("test.leak-root");
            let inner = span("test.leaked-inner");
            // Simulate an early return: the inner guard is forgotten, the
            // outer drop must still close and attach it.
            std::mem::forget(inner);
        }
        let spans = spans_snapshot();
        assert_eq!(spans.len(), before + 1);
        let root = &spans[spans.len() - 1];
        assert_eq!(root.name, "test.leak-root");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "test.leaked-inner");
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = crate::test_lock();
        crate::set_enabled(false);
        let before = spans_snapshot().len();
        {
            let g = span("test.disabled");
            assert!(!g.is_active());
            g.arg("x", 1.0);
        }
        assert_eq!(spans_snapshot().len(), before);
        crate::set_enabled(true);
    }
}
