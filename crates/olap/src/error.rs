//! Typed errors of the OLAP query path.
//!
//! The executor used to panic on mis-wired plans ("no access path provided")
//! and on result-shape mismatches. Wiring access paths is the job of the RDE
//! engine and the scheduler, and a missing one is a bug in *their* logic —
//! but the query engine is the wrong layer to crash the process from: the
//! system facade runs queries on behalf of callers that may assemble plans
//! dynamically. Every fallible step of `execute_query` therefore reports an
//! [`OlapError`] instead.

use std::fmt;

/// An error raised while planning access paths for or executing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OlapError {
    /// The plan references a relation no [`crate::source::ScanSource`] was
    /// provided for.
    MissingSource {
        /// The relation the plan wanted to scan.
        table: String,
    },
    /// The plan references a column the scanned relation does not have.
    UnknownColumn {
        /// The relation that was scanned.
        table: String,
        /// The missing column.
        column: String,
    },
    /// An expression or predicate referenced a column the evaluated block
    /// does not carry. Unlike [`OlapError::UnknownColumn`] (raised while
    /// binding a plan to a relation), this is raised by expression
    /// evaluation itself, where only the block — not the relation — is in
    /// scope.
    MissingColumn {
        /// The column the expression wanted.
        column: String,
    },
    /// A result accessor was called on the wrong result shape (e.g.
    /// [`crate::exec::QueryResult::scalars`] on a grouped result).
    WrongResultShape {
        /// The shape the accessor expected.
        expected: &'static str,
        /// The shape the result actually has.
        found: &'static str,
    },
    /// A sort or having finisher reads an aggregate index the plan does not
    /// have.
    InvalidTopK {
        /// The out-of-range aggregate index.
        agg_index: usize,
        /// Number of aggregates the plan computes.
        aggregates: usize,
    },
    /// A pipeline tree the types allow but the engine cannot run: a probe
    /// whose key tuple is empty or not as wide as its build's, a finisher
    /// reading a group key the sink does not have, or a sort with no keys.
    /// Raised by [`crate::plan::ScalarPlan::finish`] and
    /// [`crate::plan::GroupedPlan::finish`], so no plan value carries it
    /// (the bind also names a tuple key it finds without a value box).
    InvalidDag {
        /// Which structural rule failed.
        reason: String,
    },
    /// A column was asked to serve a role its type cannot fill (e.g. a
    /// string column as a numeric input, a float column as a group key).
    UnsupportedColumnType {
        /// The relation that was scanned.
        table: String,
        /// The offending column.
        column: String,
        /// The role the column was requested for.
        role: &'static str,
    },
    /// A join key falls outside the key rule: an integer column, an
    /// integral literal, or `+`/`−`/`×` of those with a column-free factor
    /// in every product, folding to constants that fit `i64` — or a tuple
    /// of plain integer columns whose build-side box (the product of the
    /// columns' spans) fits `i64`.
    UnsupportedKey {
        /// What the key contains that the rule does not allow.
        reason: &'static str,
    },
}

impl fmt::Display for OlapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OlapError::MissingSource { table } => {
                write!(f, "no access path provided for relation {table}")
            }
            OlapError::UnknownColumn { table, column } => {
                write!(f, "column {column} not in table {table}")
            }
            OlapError::MissingColumn { column } => {
                write!(f, "column {column} not present in block")
            }
            OlapError::WrongResultShape { expected, found } => {
                write!(f, "expected {expected} result, found {found}")
            }
            OlapError::InvalidTopK {
                agg_index,
                aggregates,
            } => {
                write!(
                    f,
                    "top-k orders by aggregate {agg_index} but the plan has only {aggregates}"
                )
            }
            OlapError::InvalidDag { reason } => {
                write!(f, "plan is not executable: {reason}")
            }
            OlapError::UnsupportedColumnType {
                table,
                column,
                role,
            } => {
                write!(
                    f,
                    "column {column} of table {table} cannot be used as {role}"
                )
            }
            OlapError::UnsupportedKey { reason } => {
                write!(f, "a join key cannot contain {reason}")
            }
        }
    }
}

impl std::error::Error for OlapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offending_object() {
        let e = OlapError::MissingSource {
            table: "orderline".into(),
        };
        assert!(e.to_string().contains("orderline"));
        let e = OlapError::UnknownColumn {
            table: "item".into(),
            column: "i_nope".into(),
        };
        assert!(e.to_string().contains("i_nope") && e.to_string().contains("item"));
        let e = OlapError::MissingColumn {
            column: "ol_ghost".into(),
        };
        assert!(e.to_string().contains("ol_ghost"));
        let e = OlapError::WrongResultShape {
            expected: "scalar",
            found: "groups",
        };
        assert!(e.to_string().contains("scalar") && e.to_string().contains("groups"));
        let e = OlapError::UnsupportedColumnType {
            table: "t".into(),
            column: "c".into(),
            role: "a group key",
        };
        assert!(e.to_string().contains("group key"));
        let e = OlapError::UnsupportedKey {
            reason: "a product of two columns",
        };
        assert!(e.to_string().contains("join key") && e.to_string().contains("two columns"));
    }
}
