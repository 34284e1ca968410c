//! The discrete states of the HTAP design spectrum (§3.4).

/// The system states the RDE engine can migrate between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemState {
    /// S1 — co-located OLTP and OLAP: the engines share the sockets; the OLAP
    /// engine reads the inactive OLTP instance in place.
    S1Colocated,
    /// S2 — isolated OLTP and OLAP: socket-level isolation, fresh data is
    /// ETL'd into the OLAP instance before query execution.
    S2Isolated,
    /// S3-IS — hybrid, isolated mode: socket-level compute isolation, the OLAP
    /// engine reads only the fresh data it needs from the OLTP socket over
    /// the interconnect (split access).
    S3HybridIsolated,
    /// S3-NI — hybrid, non-isolated mode: the OLAP engine additionally borrows
    /// CPU cores on the OLTP socket to access fresh data at full memory
    /// bandwidth.
    S3HybridNonIsolated,
}

impl SystemState {
    /// Whether the state performs an ETL into the OLAP instance.
    pub fn performs_etl(self) -> bool {
        matches!(self, SystemState::S2Isolated)
    }

    /// The static-schedule label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemState::S1Colocated => "S1",
            SystemState::S2Isolated => "S2",
            SystemState::S3HybridIsolated => "S3-IS",
            SystemState::S3HybridNonIsolated => "S3-NI",
        }
    }

    /// All states, in the order the paper presents them.
    pub fn all() -> [SystemState; 4] {
        [
            SystemState::S1Colocated,
            SystemState::S2Isolated,
            SystemState::S3HybridIsolated,
            SystemState::S3HybridNonIsolated,
        ]
    }
}

impl std::fmt::Display for SystemState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Elasticity mode of Algorithm 2: when elasticity is allowed, whether the
/// scheduler prefers hybrid execution (borrowing OLTP cores) or full
/// co-location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticityMode {
    /// Prefer S3-NI: borrow some OLTP cores for fresh-data access.
    Hybrid,
    /// Prefer S1: fully co-locate the engines.
    Colocation,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_properties_match_paper_descriptions() {
        assert!(SystemState::S2Isolated.performs_etl());
        assert!(!SystemState::S1Colocated.performs_etl());
    }

    #[test]
    fn labels_match_figures() {
        let labels: Vec<&str> = SystemState::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["S1", "S2", "S3-IS", "S3-NI"]);
        assert_eq!(SystemState::S3HybridIsolated.to_string(), "S3-IS");
    }
}
