//! Typed errors of the storage mutation path.
//!
//! The twin tables, columnar tables and schemas used to report failures as
//! bare `String`s; callers could neither match on the failure kind nor keep
//! panic-free guarantees honest. `StorageError` names every way a mutation
//! can fail. The stringly-typed boundary survives only at the RDE facade,
//! via [`From<StorageError> for String`].

use crate::schema::DataType;

/// An error on the storage mutation path (`TwinTable::insert` / `update`,
/// `ColumnarTable::append_row` / `swap_value`, `TableSchema::key_of`, and the
/// OLTP engine's `create_table`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// `create_table` for a name that is already taken.
    TableExists {
        /// The colliding relation name.
        table: String,
    },
    /// A row with the wrong number of values for the schema.
    ArityMismatch {
        /// Relation name.
        table: String,
        /// Columns in the schema.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A value whose type does not match its column.
    TypeMismatch {
        /// Relation name.
        table: String,
        /// Column index.
        column: usize,
        /// The column's declared type.
        expected: DataType,
        /// The supplied value's type.
        got: DataType,
    },
    /// An update addressed to a row beyond the committed row count.
    RowOutOfRange {
        /// Relation name.
        table: String,
        /// The addressed row.
        row: u64,
        /// Committed rows at the time of the access.
        rows: u64,
    },
    /// An update addressed to a row the active instance does not hold.
    RowMissing {
        /// The addressed row.
        row: u64,
    },
    /// A mutation addressed to a relation that is not registered.
    TableMissing {
        /// The missing relation name.
        table: String,
    },
    /// A relation without an `I64` primary key where a row needs its key.
    NoPrimaryKey {
        /// Relation name.
        table: String,
    },
    /// A whole-relation load ([`crate::TwinTable::load_columns`]) into a
    /// relation that already holds rows.
    TableNotEmpty {
        /// Relation name.
        table: String,
        /// Rows it holds.
        rows: u64,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::TableExists { table } => write!(f, "table {table} already exists"),
            StorageError::ArityMismatch {
                table,
                expected,
                got,
            } => write!(f, "table {table}: expected {expected} values, got {got}"),
            StorageError::TypeMismatch {
                table,
                column,
                expected,
                got,
            } => write!(
                f,
                "table {table}: column {column} expects {expected}, got {got}"
            ),
            StorageError::RowOutOfRange { table, row, rows } => {
                write!(f, "table {table}: row {row} out of range ({rows} rows)")
            }
            StorageError::RowMissing { row } => {
                write!(f, "row {row} not found in active instance")
            }
            StorageError::TableMissing { table } => {
                write!(f, "table {table} not registered")
            }
            StorageError::NoPrimaryKey { table } => write!(f, "table {table} has no i64 key"),
            StorageError::TableNotEmpty { table, rows } => {
                write!(f, "table {table} already holds {rows} rows")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<StorageError> for String {
    /// The stringly-typed boundary kept at the RDE facade and the examples:
    /// `?` in a `Result<_, String>` context converts through this impl.
    fn from(e: StorageError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = StorageError::TableExists {
            table: "orders".into(),
        };
        assert_eq!(e.to_string(), "table orders already exists");
        let e = StorageError::TypeMismatch {
            table: "item".into(),
            column: 1,
            expected: DataType::F64,
            got: DataType::I64,
        };
        assert_eq!(e.to_string(), "table item: column 1 expects f64, got i64");
        let s: String = StorageError::RowMissing { row: 9 }.into();
        assert_eq!(s, "row 9 not found in active instance");
    }
}
