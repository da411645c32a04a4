//! The catalog of placed tables.
//!
//! The catalog (Section 7, Figure 20) holds information about the tables,
//! their columns and whether a table is physically partitioned; through it the
//! placement segments of any column component can be reached — they play the
//! paper's PSM role — so task creators can consult the physical location of
//! the data they are about to process.

use crate::placement::{PlacedColumn, PlacedTable};
use crate::query::ColumnRef;

/// The catalog: every placed table of the database.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<PlacedTable>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog { tables: Vec::new() }
    }

    /// Adds a placed table and returns its index.
    pub fn add_table(&mut self, table: PlacedTable) -> usize {
        self.tables.push(table);
        self.tables.len() - 1
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// A table by index.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn table(&self, index: usize) -> &PlacedTable {
        &self.tables[index]
    }

    /// Mutable access to a table by index.
    pub fn table_mut(&mut self, index: usize) -> &mut PlacedTable {
        &mut self.tables[index]
    }

    /// All tables.
    pub fn tables(&self) -> &[PlacedTable] {
        &self.tables
    }

    /// Resolves a column reference.
    ///
    /// # Panics
    /// Panics if the reference is out of range.
    pub fn column(&self, re: ColumnRef) -> &PlacedColumn {
        &self.tables[re.table].columns[re.column]
    }

    /// Mutable access to a referenced column.
    pub fn column_mut(&mut self, re: ColumnRef) -> &mut PlacedColumn {
        &mut self.tables[re.table].columns[re.column]
    }

    /// Iterates over every `(reference, column)` pair of the catalog.
    pub fn columns(&self) -> impl Iterator<Item = (ColumnRef, &PlacedColumn)> {
        self.tables.iter().enumerate().flat_map(|(t, table)| {
            table
                .columns
                .iter()
                .enumerate()
                .map(move |(c, col)| (ColumnRef { table: t, column: c }, col))
        })
    }

    /// Total placed bytes across all tables.
    pub fn placed_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.placed_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementStrategy;
    use crate::spec::{ColumnSpec, TableSpec};
    use numascan_numasim::Topology;

    fn catalog() -> Catalog {
        let spec = TableSpec::new(
            "t",
            1_000_000,
            (0..4)
                .map(|i| ColumnSpec::integer_with_bitcase(format!("c{i}"), 1_000_000, 17, false))
                .collect(),
        );
        let table = PlacedTable::place(
            &Topology::four_socket_ivybridge_ex(),
            &spec,
            PlacementStrategy::RoundRobin,
        );
        let mut cat = Catalog::new();
        cat.add_table(table);
        cat
    }

    #[test]
    fn add_and_resolve_tables_and_columns() {
        let cat = catalog();
        assert_eq!(cat.table_count(), 1);
        assert_eq!(cat.table(0).columns.len(), 4);
        let col = cat.column(ColumnRef { table: 0, column: 2 });
        assert_eq!(col.spec.name, "c2");
        assert_eq!(cat.columns().count(), 4);
        assert!(cat.placed_bytes() > 0);
    }

    #[test]
    fn column_mut_allows_in_place_updates() {
        let mut cat = catalog();
        let re = ColumnRef { table: 0, column: 0 };
        cat.column_mut(re).spec.name = "renamed".to_string();
        assert_eq!(cat.column(re).spec.name, "renamed");
    }

    #[test]
    fn empty_catalog_is_valid() {
        let cat = Catalog::new();
        assert_eq!(cat.table_count(), 0);
        assert_eq!(cat.placed_bytes(), 0);
        assert_eq!(cat.columns().count(), 0);
    }
}
