//! What a query execution returns: the result rows and the measured
//! [`WorkProfile`] the cost model consumes.

use crate::error::OlapError;
use crate::morsel::Morsel;
use htap_sim::{JoinWork, ScanSegment, ScanWork, SocketId};
use std::collections::BTreeMap;

/// One grouped result row: the group key values followed by the aggregates.
pub type GroupRow = (Vec<i64>, Vec<f64>);

/// Result rows of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// One value per aggregate expression (no grouping).
    Scalars(Vec<f64>),
    /// One row per group.
    Groups(Vec<GroupRow>),
}

impl QueryResult {
    fn shape(&self) -> &'static str {
        match self {
            QueryResult::Scalars(_) => "scalar",
            QueryResult::Groups(_) => "grouped",
        }
    }

    /// The scalar results, or an error if the result is grouped.
    pub fn scalars(&self) -> Result<&[f64], OlapError> {
        match self {
            QueryResult::Scalars(v) => Ok(v),
            QueryResult::Groups(_) => Err(OlapError::WrongResultShape {
                expected: "scalar",
                found: self.shape(),
            }),
        }
    }

    /// The grouped results, or an error if the result is scalar.
    pub fn groups(&self) -> Result<&[GroupRow], OlapError> {
        match self {
            QueryResult::Groups(g) => Ok(g),
            QueryResult::Scalars(_) => Err(OlapError::WrongResultShape {
                expected: "grouped",
                found: self.shape(),
            }),
        }
    }

    /// Number of result rows.
    pub fn row_count(&self) -> usize {
        match self {
            QueryResult::Scalars(_) => 1,
            QueryResult::Groups(g) => g.len(),
        }
    }
}

/// Measured work of one query execution, used as cost-model input.
///
/// Under parallel execution each worker accumulates its own profile from the
/// morsels it processed; [`WorkProfile::merge`] sums them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkProfile {
    /// Bytes read from each socket (columnar accounting over accessed columns).
    pub bytes_per_socket: BTreeMap<SocketId, u64>,
    /// Tuples that flowed through the scan pipelines.
    pub tuples_scanned: u64,
    /// Tuples that passed the filters.
    pub tuples_selected: u64,
    /// Rows read from OLTP snapshots (fresh data touched by the query).
    pub fresh_rows: u64,
    /// Join build side size in bytes (0 when the plan has no join). For a
    /// three-table plan this is the *mid* (first) build side.
    pub build_bytes: u64,
    /// Number of hash-join probes, across all probe pipelines (for a
    /// three-table plan: mid-build membership probes plus fact probes).
    pub probes: u64,
    /// Size of the join hash table in bytes (first build side).
    pub hash_table_bytes: u64,
    /// Bytes of the second (far) build side of a three-table plan
    /// (0 for plans with at most one join).
    pub far_build_bytes: u64,
    /// Hash-table bytes of the second build side.
    pub far_hash_table_bytes: u64,
}

impl WorkProfile {
    /// Total bytes read across sockets.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_socket.values().sum()
    }

    /// Sum another profile into this one (partial profiles of workers or
    /// pipeline phases).
    pub fn merge(&mut self, other: &WorkProfile) {
        for (&socket, &bytes) in &other.bytes_per_socket {
            *self.bytes_per_socket.entry(socket).or_insert(0) += bytes;
        }
        self.tuples_scanned += other.tuples_scanned;
        self.tuples_selected += other.tuples_selected;
        self.fresh_rows += other.fresh_rows;
        self.build_bytes += other.build_bytes;
        self.probes += other.probes;
        self.hash_table_bytes += other.hash_table_bytes;
        self.far_build_bytes += other.far_build_bytes;
        self.far_hash_table_bytes += other.far_hash_table_bytes;
    }

    /// Convert the profile into the cost model's scan-work descriptor.
    pub fn scan_work(&self, cpu_ns_per_tuple: f64) -> ScanWork {
        ScanWork {
            segments: self
                .bytes_per_socket
                .iter()
                .map(|(&socket, &bytes)| ScanSegment { socket, bytes })
                .collect(),
            tuples: self.tuples_scanned,
            cpu_ns_per_tuple,
        }
    }

    /// Convert the profile into the cost model's join-work descriptor, if the
    /// plan had a join phase. Both build sides of a three-table plan are
    /// broadcast and probed, so their bytes are summed into one descriptor.
    pub fn join_work(&self) -> Option<JoinWork> {
        let build_bytes = self.build_bytes + self.far_build_bytes;
        if build_bytes == 0 && self.probes == 0 {
            None
        } else {
            Some(JoinWork {
                build_bytes,
                probes: self.probes,
                hash_table_bytes: self.hash_table_bytes + self.far_hash_table_bytes,
            })
        }
    }

    /// Account one processed morsel — bytes on its socket, tuples,
    /// freshness — from a bind-time row width: one multiplication, no
    /// per-morsel schema lookups.
    #[inline]
    pub(crate) fn absorb_morsel_rows(&mut self, morsel: &Morsel, row_bytes: u64) {
        *self.bytes_per_socket.entry(morsel.socket).or_insert(0) +=
            morsel.row_count() as u64 * row_bytes;
        self.tuples_scanned += morsel.row_count() as u64;
        if morsel.is_fresh() {
            self.fresh_rows += morsel.row_count() as u64;
        }
    }
}

/// Output of a query execution: the result plus the measured work.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// The query result.
    pub result: QueryResult,
    /// The measured work (cost-model input), summed over all workers.
    pub work: WorkProfile,
}
