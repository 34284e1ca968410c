//! Schedules: static (always the same state, the paper's comparison points)
//! or adaptive (Algorithm 2).

use crate::policy::SchedulerPolicy;
use htap_rde::SystemState;

/// A scheduling discipline for the HTAP system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Always migrate to the same state before every query (the static
    /// schedules of Figure 5: S1, S2, S3-IS, S3-NI).
    Static(SystemState),
    /// Freshness-driven adaptive scheduling (Algorithm 2).
    Adaptive(SchedulerPolicy),
}

impl Schedule {
    /// All schedules evaluated in Figure 5, in the paper's order: the four
    /// static states plus the two adaptive variants ([`Self::label`] names
    /// them).
    pub fn figure5_set(alpha: f64) -> Vec<Schedule> {
        vec![
            Schedule::Static(SystemState::S1Colocated),
            Schedule::Static(SystemState::S2Isolated),
            Schedule::Static(SystemState::S3HybridIsolated),
            Schedule::Adaptive(SchedulerPolicy::adaptive_isolated(alpha)),
            Schedule::Static(SystemState::S3HybridNonIsolated),
            Schedule::Adaptive(SchedulerPolicy::adaptive_non_isolated(alpha)),
        ]
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Schedule::Static(state) => state.label().to_string(),
            Schedule::Adaptive(policy) => {
                if !policy.elasticity_allowed {
                    "Adaptive-S3-IS".to_string()
                } else {
                    match policy.elasticity_mode {
                        htap_rde::ElasticityMode::Hybrid => "Adaptive-S3-NI".to_string(),
                        htap_rde::ElasticityMode::Colocation => "Adaptive-S1".to_string(),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_set_contains_all_paper_schedules() {
        let set = Schedule::figure5_set(0.5);
        let labels: Vec<String> = set.iter().map(Schedule::label).collect();
        assert_eq!(
            labels,
            vec![
                "S1",
                "S2",
                "S3-IS",
                "Adaptive-S3-IS",
                "S3-NI",
                "Adaptive-S3-NI"
            ]
        );
        let adaptive = set.iter().filter(|s| matches!(s, Schedule::Adaptive(_)));
        assert_eq!(adaptive.count(), 2);
    }

    #[test]
    fn labels_match_schedule_kind() {
        assert_eq!(Schedule::Static(SystemState::S2Isolated).label(), "S2");
        assert_eq!(
            Schedule::Adaptive(SchedulerPolicy::adaptive_isolated(0.5)).label(),
            "Adaptive-S3-IS"
        );
        assert_eq!(
            Schedule::Adaptive(SchedulerPolicy::adaptive_non_isolated(0.5)).label(),
            "Adaptive-S3-NI"
        );
        assert_eq!(
            Schedule::Adaptive(SchedulerPolicy::adaptive_colocated(0.5)).label(),
            "Adaptive-S1"
        );
    }
}
