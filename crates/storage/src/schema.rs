//! Schema definitions: data types, column definitions, table schemas and the
//! dynamically-typed [`Value`] used at the storage API boundary.
//!
//! The engines execute over typed column slices for speed; `Value` only
//! appears on the transactional read/write path and in tests, where clarity
//! matters more than raw throughput.

/// Physical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (also used for keys and dates encoded as days).
    I64,
    /// 64-bit IEEE float (amounts, prices).
    F64,
    /// 32-bit signed integer (small enumerations, quantities).
    I32,
    /// Variable-length UTF-8 string (names, addresses).
    Str,
}

impl DataType {
    /// Bytes one value of this type occupies in the columnar representation.
    /// Strings are accounted with their average CH-benCHmark width.
    pub fn width_bytes(self) -> u64 {
        match self {
            DataType::I64 => 8,
            DataType::F64 => 8,
            DataType::I32 => 4,
            DataType::Str => 24,
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DataType::I64 => "i64",
            DataType::F64 => "f64",
            DataType::I32 => "i32",
            DataType::Str => "str",
        };
        f.write_str(s)
    }
}

/// A single dynamically-typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer value.
    I64(i64),
    /// 64-bit float value.
    F64(f64),
    /// 32-bit integer value.
    I32(i32),
    /// String value.
    Str(String),
}

impl Value {
    /// The data type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::I64(_) => DataType::I64,
            Value::F64(_) => DataType::F64,
            Value::I32(_) => DataType::I32,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Integer accessor; panics if the value is not an `I64`.
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I64(v) => *v,
            // lint:allow(no-panic): dtype contract documented on the accessor; callers match dtype() before converting
            other => panic!("expected I64, found {other:?}"),
        }
    }

    /// Float accessor; panics if the value is not an `F64`.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(v) => *v,
            // lint:allow(no-panic): dtype contract documented on the accessor; callers match dtype() before converting
            other => panic!("expected F64, found {other:?}"),
        }
    }

    /// 32-bit integer accessor; panics if the value is not an `I32`.
    pub fn as_i32(&self) -> i32 {
        match self {
            Value::I32(v) => *v,
            // lint:allow(no-panic): dtype contract documented on the accessor; callers match dtype() before converting
            other => panic!("expected I32, found {other:?}"),
        }
    }

    /// String accessor; panics if the value is not a `Str`.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(v) => v,
            // lint:allow(no-panic): dtype contract documented on the accessor; callers match dtype() before converting
            other => panic!("expected Str, found {other:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I32(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Definition of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl ColumnDef {
    /// Construct a column definition.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            dtype,
        }
    }
}

/// Schema of a table: an ordered list of columns plus the primary-key column
/// (an `I64` column whose cell is a row's unique key; OLTP relations have one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Index (into `columns`) of the primary-key column, if the table has one.
    pub primary_key: Option<usize>,
}

impl TableSchema {
    /// Create a schema. Panics if `primary_key` does not name an `I64` column.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<ColumnDef>,
        primary_key: Option<usize>,
    ) -> Self {
        assert!(
            primary_key.is_none_or(|pk| columns.get(pk).map(|c| c.dtype) == Some(DataType::I64)),
            "primary key must be an i64 column"
        );
        TableSchema {
            name: name.into(),
            columns,
            primary_key,
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Find a column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The definition of column `idx`.
    pub fn column(&self, idx: usize) -> &ColumnDef {
        &self.columns[idx]
    }

    /// Bytes one full row occupies in the columnar representation.
    pub fn row_width_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.dtype.width_bytes()).sum()
    }

    /// Validate `row` against the schema and return its key: its primary-key
    /// cell as `u64`, the only record of a row's key.
    pub fn key_of(&self, row: &[Value]) -> Result<u64, crate::StorageError> {
        self.check_row(row)?;
        match self.primary_key.and_then(|pk| row.get(pk)) {
            Some(Value::I64(key)) => Ok(*key as u64),
            _ => Err(crate::StorageError::NoPrimaryKey {
                table: self.name.clone(),
            }),
        }
    }

    /// Validate that a row of values matches the schema.
    pub fn check_row(&self, row: &[Value]) -> Result<(), crate::StorageError> {
        if row.len() != self.columns.len() {
            return Err(crate::StorageError::ArityMismatch {
                table: self.name.clone(),
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (i, (v, c)) in row.iter().zip(&self.columns).enumerate() {
            if v.data_type() != c.dtype {
                return Err(crate::StorageError::TypeMismatch {
                    table: self.name.clone(),
                    column: i,
                    expected: c.dtype,
                    got: v.data_type(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "item",
            vec![
                ColumnDef::new("i_id", DataType::I64),
                ColumnDef::new("i_price", DataType::F64),
                ColumnDef::new("i_name", DataType::Str),
                ColumnDef::new("i_im_id", DataType::I32),
            ],
            Some(0),
        )
    }

    #[test]
    fn column_lookup_and_widths() {
        let s = schema();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.column_index("i_price"), Some(1));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.row_width_bytes(), 8 + 8 + 24 + 4);
        assert_eq!(s.column(2).dtype, DataType::Str);
    }

    #[test]
    fn check_row_accepts_matching_and_rejects_mismatched() {
        let s = schema();
        let good = vec![
            Value::I64(1),
            Value::F64(9.99),
            Value::from("widget"),
            Value::I32(7),
        ];
        assert!(s.check_row(&good).is_ok());

        let short = vec![Value::I64(1)];
        assert!(s.check_row(&short).is_err());

        let wrong_type = vec![
            Value::I64(1),
            Value::I64(9),
            Value::from("widget"),
            Value::I32(7),
        ];
        assert!(s.check_row(&wrong_type).is_err());
    }

    #[test]
    #[should_panic(expected = "primary key must be an i64 column")]
    fn non_i64_primary_key_is_rejected() {
        TableSchema::new("bad", vec![ColumnDef::new("x", DataType::F64)], Some(0));
    }

    #[test]
    fn value_accessors_and_conversions() {
        assert_eq!(Value::from(3i64).as_i64(), 3);
        assert_eq!(Value::from(2.5f64).as_f64(), 2.5);
        assert_eq!(Value::from(7i32).as_i32(), 7);
        assert_eq!(Value::from("abc").as_str(), "abc");
        assert_eq!(Value::from("abc".to_string()).data_type(), DataType::Str);
    }

    #[test]
    #[should_panic(expected = "expected I64")]
    fn wrong_accessor_panics() {
        Value::F64(1.0).as_i64();
    }

    #[test]
    fn display_of_types() {
        assert_eq!(DataType::I64.to_string(), "i64");
        assert_eq!(DataType::Str.to_string(), "str");
    }
}
