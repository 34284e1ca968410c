//! Tuple blocks: the materialised row source of the reference oracle.
//!
//! A block holds the values of the columns a query needs, for a contiguous
//! range of rows of one data segment, converted to a uniform numeric
//! representation (`f64` for arithmetic, `i64` for keys/group identifiers),
//! and the socket the underlying data lives on. The production pipelines
//! never build one — they borrow columns straight from storage
//! (`scratch.rs`); [`crate::reference`] loads through blocks precisely so
//! that it shares no loading machinery with the engine.

use htap_sim::SocketId;
use std::collections::BTreeMap;

/// Default number of tuples per block (the engine "processes one block of
/// tuples at a time", §3.3).
pub const DEFAULT_BLOCK_ROWS: usize = 16 * 1024;

/// A column-wise batch of tuples.
#[derive(Debug, Clone)]
pub struct Block {
    /// Number of tuples in the block.
    rows: usize,
    /// Socket whose DRAM holds the underlying data.
    socket: SocketId,
    /// Numeric columns, keyed by column name.
    numeric: BTreeMap<String, Vec<f64>>,
    /// Key columns (group-by / join keys), keyed by column name.
    keys: BTreeMap<String, Vec<i64>>,
}

impl Block {
    /// Create an empty block for data resident on `socket`.
    pub fn new(rows: usize, socket: SocketId) -> Self {
        Block {
            rows,
            socket,
            numeric: BTreeMap::new(),
            keys: BTreeMap::new(),
        }
    }

    /// Number of tuples.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Socket holding the underlying data.
    pub fn socket(&self) -> SocketId {
        self.socket
    }

    /// Attach a numeric column. Panics if its length differs from the block size.
    pub fn add_numeric(&mut self, name: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.rows,
            "column length must match block rows"
        );
        self.numeric.insert(name.into(), values);
    }

    /// Attach a key column. Panics if its length differs from the block size.
    pub fn add_key(&mut self, name: impl Into<String>, values: Vec<i64>) {
        assert_eq!(
            values.len(),
            self.rows,
            "column length must match block rows"
        );
        self.keys.insert(name.into(), values);
    }

    /// Numeric column accessor.
    pub fn numeric(&self, name: &str) -> Option<&[f64]> {
        self.numeric.get(name).map(Vec::as_slice)
    }

    /// Key column accessor.
    pub fn key(&self, name: &str) -> Option<&[i64]> {
        self.keys.get(name).map(Vec::as_slice)
    }

    /// Names of all attached columns (numeric and key).
    pub fn column_names(&self) -> Vec<&str> {
        self.numeric
            .keys()
            .chain(self.keys.keys())
            .map(String::as_str)
            .collect()
    }

    /// Whether the block carries a column with this name.
    pub fn has_column(&self, name: &str) -> bool {
        self.numeric.contains_key(name) || self.keys.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_holds_columns_of_matching_length() {
        let mut b = Block::new(3, SocketId(1));
        b.add_numeric("price", vec![1.0, 2.0, 3.0]);
        b.add_key("id", vec![10, 20, 30]);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.socket(), SocketId(1));
        assert_eq!(b.numeric("price").unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(b.key("id").unwrap(), &[10, 20, 30]);
        assert!(b.has_column("price"));
        assert!(!b.has_column("missing"));
        assert_eq!(b.column_names(), vec!["price", "id"]);
    }

    #[test]
    #[should_panic(expected = "column length must match block rows")]
    fn mismatched_column_length_panics() {
        let mut b = Block::new(2, SocketId(0));
        b.add_numeric("x", vec![1.0]);
    }
}
