//! Query specifications and the query-generator interface.

/// Reference to a column of a placed table in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Index of the table in the catalog.
    pub table: usize,
    /// Index of the column in the table.
    pub column: usize,
}

/// What a query does with its column.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// `SELECT COLx FROM TBL WHERE COLx BETWEEN ? AND ?` — the statement every
    /// client of the paper's sensitivity analysis executes: find the
    /// qualifying rows (by scan or index lookup) and materialize the selected
    /// column for them.
    Scan {
        /// Fraction of rows selected by the range predicate (0.0 ..= 1.0).
        selectivity: f64,
        /// Whether the optimizer may answer the predicate through the
        /// inverted index instead of scanning.
        allow_index: bool,
    },
    /// A streaming aggregation over the whole column (used by the TPC-H Q1
    /// and BW-EML style workloads of Section 6.3). There is no
    /// materialization phase; the aggregation arithmetic costs `ops_per_row`
    /// operations per scanned row.
    Aggregate {
        /// CPU operations spent per row (high for TPC-H Q1's expression-heavy
        /// aggregates, low for BW-EML's simple ones).
        ops_per_row: f64,
    },
}

impl QueryKind {
    /// The fraction of rows whose values reach the output (aggregations
    /// consume every row but output none).
    pub fn selectivity(&self) -> f64 {
        match self {
            QueryKind::Scan { selectivity, .. } => *selectivity,
            QueryKind::Aggregate { .. } => 0.0,
        }
    }
}

/// One query issued by a client.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The selected column.
    pub column: ColumnRef,
    /// What to do with it.
    pub kind: QueryKind,
}

impl QuerySpec {
    /// A range-predicate scan query on `column` with the given selectivity.
    pub fn scan(column: ColumnRef, selectivity: f64) -> Self {
        QuerySpec { column, kind: QueryKind::Scan { selectivity, allow_index: false } }
    }

    /// An aggregation query over `column`.
    pub fn aggregate(column: ColumnRef, ops_per_row: f64) -> Self {
        QuerySpec { column, kind: QueryKind::Aggregate { ops_per_row } }
    }
}

/// Source of queries for the closed-loop clients of the simulation engine.
///
/// Each client continuously picks a prepared statement to execute with no
/// think time; the generator decides which column and which parameters the
/// client uses next (uniform or skewed column selection, fixed or varying
/// selectivity, ...).
pub trait QueryGenerator {
    /// The next query client `client` executes.
    fn next_query(&mut self, client: usize) -> QuerySpec;
}

/// A generator that always returns the same query (useful for tests and for
/// single-table workloads such as TPC-H Q1).
#[derive(Debug, Clone)]
pub struct FixedQueryGenerator {
    query: QuerySpec,
}

impl FixedQueryGenerator {
    /// Creates a generator that always yields `query`.
    pub fn new(query: QuerySpec) -> Self {
        FixedQueryGenerator { query }
    }
}

impl QueryGenerator for FixedQueryGenerator {
    fn next_query(&mut self, _client: usize) -> QuerySpec {
        self.query.clone()
    }
}

/// A generator that cycles deterministically over the columns of one table
/// (an idealised uniform workload without randomness).
#[derive(Debug, Clone)]
pub struct RoundRobinColumnGenerator {
    table: usize,
    columns: usize,
    selectivity: f64,
    allow_index: bool,
    cursor: usize,
}

impl RoundRobinColumnGenerator {
    /// Creates a generator over `columns` columns of `table`.
    pub fn new(table: usize, columns: usize, selectivity: f64, allow_index: bool) -> Self {
        assert!(columns > 0);
        RoundRobinColumnGenerator { table, columns, selectivity, allow_index, cursor: 0 }
    }
}

impl QueryGenerator for RoundRobinColumnGenerator {
    fn next_query(&mut self, _client: usize) -> QuerySpec {
        let column = self.cursor % self.columns;
        self.cursor += 1;
        QuerySpec {
            column: ColumnRef { table: self.table, column },
            kind: QueryKind::Scan { selectivity: self.selectivity, allow_index: self.allow_index },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kinds() {
        let c = ColumnRef { table: 0, column: 3 };
        assert!(matches!(
            QuerySpec::scan(c, 0.01).kind,
            QueryKind::Scan { allow_index: false, .. }
        ));
        assert!(matches!(QuerySpec::aggregate(c, 20.0).kind, QueryKind::Aggregate { .. }));
        assert_eq!(QuerySpec::scan(c, 0.25).kind.selectivity(), 0.25);
        assert_eq!(QuerySpec::aggregate(c, 20.0).kind.selectivity(), 0.0);
    }

    #[test]
    fn fixed_generator_repeats_its_query() {
        let q = QuerySpec::scan(ColumnRef { table: 0, column: 1 }, 0.001);
        let mut g = FixedQueryGenerator::new(q.clone());
        assert_eq!(g.next_query(0), q);
        assert_eq!(g.next_query(5), q);
    }

    #[test]
    fn round_robin_generator_cycles_columns() {
        let mut g = RoundRobinColumnGenerator::new(0, 3, 0.01, false);
        let cols: Vec<usize> = (0..6).map(|c| g.next_query(c).column.column).collect();
        assert_eq!(cols, vec![0, 1, 2, 0, 1, 2]);
    }
}
