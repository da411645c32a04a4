//! Tables of dictionary-encoded integer columns.
//!
//! The paper's sensitivity analysis uses a single wide table of random integer
//! columns (100 million rows, one ID column and 160 payload columns with
//! bitcases 17 to 26). [`Table`] models exactly that shape: a collection of
//! [`DictColumn<i64>`] columns of equal row count.

use crate::column::DictColumn;

/// Identifier of a column within a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId(pub usize);

impl ColumnId {
    /// The column index as `usize`.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A table of integer columns with equal row counts.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<DictColumn<i64>>,
    row_count: usize,
}

impl Table {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// A column by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn column(&self, id: ColumnId) -> &DictColumn<i64> {
        &self.columns[id.index()]
    }

    /// A column by name.
    pub fn column_by_name(&self, name: &str) -> Option<(ColumnId, &DictColumn<i64>)> {
        self.columns.iter().position(|c| c.name() == name).map(|i| (ColumnId(i), &self.columns[i]))
    }

    /// Iterates over `(id, column)` pairs.
    pub fn columns(&self) -> impl Iterator<Item = (ColumnId, &DictColumn<i64>)> {
        self.columns.iter().enumerate().map(|(i, c)| (ColumnId(i), c))
    }

    /// Total memory footprint of the table in bytes.
    pub fn total_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.total_bytes()).sum()
    }
}

/// Builder for [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    columns: Vec<DictColumn<i64>>,
    row_count: Option<usize>,
}

impl TableBuilder {
    /// Starts building a table with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TableBuilder { name: name.into(), columns: Vec::new(), row_count: None }
    }

    /// Adds an already-built column.
    ///
    /// # Panics
    /// Panics if the column's row count differs from previously added columns.
    pub fn add_column(mut self, column: DictColumn<i64>) -> Self {
        if let Some(rows) = self.row_count {
            assert_eq!(
                rows,
                column.row_count(),
                "column '{}' has {} rows, table has {}",
                column.name(),
                column.row_count(),
                rows
            );
        } else {
            self.row_count = Some(column.row_count());
        }
        self.columns.push(column);
        self
    }

    /// Builds a column from values and adds it.
    ///
    /// # Panics
    /// Panics if `with_index` is set: columns carry no inverted index. The
    /// flag remains only because the benchmark's adapter still passes it.
    pub fn add_values(self, name: impl Into<String>, values: &[i64], with_index: bool) -> Self {
        assert!(!with_index, "columns carry no inverted index");
        self.add_column(DictColumn::from_values(name, values))
    }

    /// Finishes the table.
    ///
    /// # Panics
    /// Panics if no columns were added.
    pub fn build(self) -> Table {
        let row_count = self.row_count.expect("a table needs at least one column");
        Table { name: self.name, columns: self.columns, row_count }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let ids: Vec<i64> = (0..1000).collect();
        let payload: Vec<i64> = (0..1000).map(|i| (i * 17) % 97).collect();
        TableBuilder::new("tbl")
            .add_values("id", &ids, false)
            .add_values("col1", &payload, false)
            .build()
    }

    #[test]
    fn builder_assembles_columns() {
        let t = table();
        assert_eq!(t.name(), "tbl");
        assert_eq!(t.row_count(), 1000);
        assert_eq!(t.column_count(), 2);
        assert_eq!(t.column(ColumnId(0)).name(), "id");
        let (id, col) = t.column_by_name("col1").unwrap();
        assert_eq!(id, ColumnId(1));
        assert_eq!(col.row_count(), 1000);
        assert!(t.column_by_name("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn mismatched_row_counts_are_rejected() {
        TableBuilder::new("t").add_values("a", &[1, 2, 3], false).add_values("b", &[1, 2], false);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_table_is_rejected() {
        TableBuilder::new("t").build();
    }

    #[test]
    #[should_panic(expected = "no inverted index")]
    fn asking_for_an_inverted_index_is_rejected() {
        TableBuilder::new("t").add_values("a", &[1, 2, 3], true);
    }

    #[test]
    fn total_bytes_sums_columns() {
        let t = table();
        let sum: usize = t.columns().map(|(_, c)| c.total_bytes()).sum();
        assert_eq!(t.total_bytes(), sum);
    }
}
