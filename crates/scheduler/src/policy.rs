//! Algorithm 2 — freshness-driven resource scheduling.
//!
//! ```text
//! ResourceSchedule():
//!   if Nfq < α·Nft AND !QueryBatch:
//!     if !Fel:             MigrateStateS3(ISOLATED)
//!     else if Mel==HYBRID: MigrateStateS3(NON-ISOLATED)
//!     else:                MigrateStateS1()
//!   else:                  MigrateStateS2()
//! ```
//!
//! The heuristic optimises OLAP performance within the OLTP engine's
//! restrictions: it first prefers taking compute to the data (S3-NI), then
//! trading it (S1), then plain remote access (S3-IS); once the fresh delta is
//! large enough (relative to α), it amortises a full ETL (S2) to restore
//! locality for future queries.

use crate::freshness::QueryFreshness;
use htap_rde::{ElasticityMode, SystemState};

/// The tunable scheduler policy of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerPolicy {
    /// ETL sensitivity α ∈ [0, 1]. Smaller values make the scheduler prefer
    /// ETL (state S2); the paper's adaptive experiments use α = 0.5.
    pub alpha: f64,
    /// Elasticity availability flag `Fel`: whether the OLAP engine is allowed
    /// to take compute resources from the OLTP engine.
    pub elasticity_allowed: bool,
    /// Elasticity mode `Mel`: hybrid (borrow cores, S3-NI) or co-location (S1).
    pub elasticity_mode: ElasticityMode,
}

impl Default for SchedulerPolicy {
    fn default() -> Self {
        SchedulerPolicy {
            alpha: 0.5,
            elasticity_allowed: true,
            elasticity_mode: ElasticityMode::Hybrid,
        }
    }
}

impl SchedulerPolicy {
    /// Policy matching the paper's "Adaptive-S3-IS" schedule: no elasticity,
    /// so the scheduler alternates between split remote access and ETL.
    pub fn adaptive_isolated(alpha: f64) -> Self {
        SchedulerPolicy {
            alpha,
            elasticity_allowed: false,
            elasticity_mode: ElasticityMode::Hybrid,
        }
    }

    /// Policy matching the paper's "Adaptive-S3-NI" schedule: elasticity in
    /// hybrid mode (borrow OLTP cores for fresh data).
    pub fn adaptive_non_isolated(alpha: f64) -> Self {
        SchedulerPolicy {
            alpha,
            elasticity_allowed: true,
            elasticity_mode: ElasticityMode::Hybrid,
        }
    }

    /// Policy preferring full co-location (adaptive S1).
    pub fn adaptive_colocated(alpha: f64) -> Self {
        SchedulerPolicy {
            alpha,
            elasticity_allowed: true,
            elasticity_mode: ElasticityMode::Colocation,
        }
    }

    /// Run Algorithm 2 for one query: the state the system should migrate
    /// to before executing it. The ETL branch (`Nfq ≥ α·Nft`, or a query
    /// batch) is the one that returns [`SystemState::S2Isolated`].
    ///
    /// `freshness` carries `Nfq` and `Nft`; `is_batch` indicates that the
    /// query belongs to a batch executed over the same snapshot, which always
    /// takes the ETL branch (§4.2 "Query Batch").
    pub fn decide(&self, freshness: &QueryFreshness, is_batch: bool) -> SystemState {
        let nfq = freshness.query_fresh_rows as f64;
        let nft = freshness.total_fresh_rows as f64;
        if nfq >= self.alpha * nft || is_batch {
            SystemState::S2Isolated
        } else if !self.elasticity_allowed {
            SystemState::S3HybridIsolated
        } else {
            match self.elasticity_mode {
                ElasticityMode::Hybrid => SystemState::S3HybridNonIsolated,
                ElasticityMode::Colocation => SystemState::S1Colocated,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freshness(nfq: u64, nft: u64) -> QueryFreshness {
        QueryFreshness {
            query_fresh_rows: nfq,
            total_fresh_rows: nft,
            query_total_rows: 0,
        }
    }

    #[test]
    fn small_fresh_share_without_elasticity_goes_to_s3_isolated() {
        let policy = SchedulerPolicy::adaptive_isolated(0.5);
        let d = policy.decide(&freshness(10, 100), false);
        assert_eq!(d, SystemState::S3HybridIsolated);
    }

    #[test]
    fn small_fresh_share_with_hybrid_elasticity_goes_to_s3_non_isolated() {
        let policy = SchedulerPolicy::adaptive_non_isolated(0.5);
        let d = policy.decide(&freshness(10, 100), false);
        assert_eq!(d, SystemState::S3HybridNonIsolated);
    }

    #[test]
    fn small_fresh_share_with_colocation_mode_goes_to_s1() {
        let policy = SchedulerPolicy::adaptive_colocated(0.5);
        let d = policy.decide(&freshness(10, 100), false);
        assert_eq!(d, SystemState::S1Colocated);
    }

    #[test]
    fn large_fresh_share_triggers_etl() {
        let policy = SchedulerPolicy::default();
        let d = policy.decide(&freshness(80, 100), false);
        assert_eq!(d, SystemState::S2Isolated);
    }

    #[test]
    fn query_batches_always_take_the_etl_branch() {
        let policy = SchedulerPolicy::default();
        let d = policy.decide(&freshness(1, 1_000_000), true);
        assert_eq!(d, SystemState::S2Isolated);
    }

    #[test]
    fn alpha_controls_the_etl_sensitivity() {
        // The same freshness picture flips with α: Nfq/Nft = 0.3.
        let f = freshness(30, 100);
        let eager_etl = SchedulerPolicy {
            alpha: 0.1,
            ..SchedulerPolicy::default()
        };
        let lazy_etl = SchedulerPolicy {
            alpha: 0.9,
            ..SchedulerPolicy::default()
        };
        assert_eq!(eager_etl.decide(&f, false), SystemState::S2Isolated);
        assert_eq!(lazy_etl.decide(&f, false), SystemState::S3HybridNonIsolated);
    }

    #[test]
    fn alpha_zero_always_prefers_etl() {
        // With α = 0 the condition Nfq < 0 never holds, so every query ETLs —
        // which the paper notes corresponds to the S1 twin-instance design's
        // built-in behaviour when co-locating.
        let policy = SchedulerPolicy {
            alpha: 0.0,
            ..SchedulerPolicy::default()
        };
        assert_eq!(
            policy.decide(&freshness(0, 100), false),
            SystemState::S2Isolated
        );
        assert_eq!(
            policy.decide(&freshness(0, 0), false),
            SystemState::S2Isolated
        );
    }

    #[test]
    fn no_fresh_data_takes_the_etl_branch_as_a_noop() {
        let policy = SchedulerPolicy::default();
        let d = policy.decide(&freshness(0, 0), false);
        assert_eq!(d, SystemState::S2Isolated);
    }
}
