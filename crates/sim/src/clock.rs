//! Simulated clock: accumulates modelled time per engine and per activity.
//!
//! The functional code paths never read this clock; only the benchmark
//! harness does, so that the figures can be regenerated deterministically on
//! any host. The clock distinguishes the activities the paper's figures break
//! down (query execution vs. data transfer vs. transaction processing).

use crate::Seconds;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Activities whose modelled time is tracked separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Activity {
    /// OLAP query execution (scan/aggregate/join work).
    QueryExecution,
    /// Data transfer between engines (ETL, instance synchronisation).
    DataTransfer,
    /// OLTP instance switch + synchronisation.
    InstanceSync,
    /// Transaction processing.
    Transactions,
    /// Scheduler/RDE bookkeeping.
    Scheduling,
}

impl std::fmt::Display for Activity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Activity::QueryExecution => "query-execution",
            Activity::DataTransfer => "data-transfer",
            Activity::InstanceSync => "instance-sync",
            Activity::Transactions => "transactions",
            Activity::Scheduling => "scheduling",
        };
        f.write_str(s)
    }
}

/// Thread-safe accumulator of modelled time.
///
/// Cloning a `SimClock` yields a handle to the same underlying accumulator, so
/// the engines and the harness can share it freely.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    inner: Arc<Mutex<BTreeMap<Activity, Seconds>>>,
}

impl SimClock {
    /// New clock with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `seconds` of modelled time to `activity`.
    pub fn advance(&self, activity: Activity, seconds: Seconds) {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "modelled time must be finite and non-negative, got {seconds}"
        );
        *self.inner.lock().entry(activity).or_insert(0.0) += seconds;
    }

    /// Modelled time accumulated for `activity`.
    pub fn elapsed(&self, activity: Activity) -> Seconds {
        self.inner.lock().get(&activity).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates_per_activity() {
        let clock = SimClock::new();
        clock.advance(Activity::QueryExecution, 1.5);
        clock.advance(Activity::QueryExecution, 0.5);
        clock.advance(Activity::DataTransfer, 0.25);
        assert_eq!(clock.elapsed(Activity::QueryExecution), 2.0);
        assert_eq!(clock.elapsed(Activity::DataTransfer), 0.25);
        assert_eq!(clock.elapsed(Activity::Transactions), 0.0);
    }

    #[test]
    fn clones_share_state() {
        let clock = SimClock::new();
        let other = clock.clone();
        other.advance(Activity::InstanceSync, 0.01);
        assert_eq!(clock.elapsed(Activity::InstanceSync), 0.01);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_is_rejected() {
        SimClock::new().advance(Activity::QueryExecution, -1.0);
    }
}
