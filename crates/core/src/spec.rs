//! Metadata descriptions of tables and dictionary-encoded columns.
//!
//! The simulation engine reasons about paper-scale datasets (100 million rows,
//! 160 columns, ~100 GiB) without materialising them: a [`ColumnSpec`]
//! captures exactly the quantities the cost model and the placement layer
//! need — row count, number of distinct values (hence the bitcase), and the
//! derived sizes of the index vector, dictionary and inverted index.

/// Metadata of one dictionary-encoded column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Number of rows.
    pub rows: u64,
    /// Number of distinct values (dictionary entries).
    pub distinct: u64,
    /// Bytes of one decoded value (8 for the integer columns of the paper's
    /// dataset).
    pub value_bytes: u64,
    /// Whether an inverted index exists for the column.
    pub with_index: bool,
}

impl ColumnSpec {
    /// An integer column with `rows` rows whose dictionary has `2^bitcase`
    /// entries, mirroring how the paper's dataset fixes the bitcase of each
    /// column.
    pub fn integer_with_bitcase(
        name: impl Into<String>,
        rows: u64,
        bitcase: u8,
        with_index: bool,
    ) -> Self {
        assert!((1..=32).contains(&bitcase), "bitcase must be in 1..=32");
        ColumnSpec {
            name: name.into(),
            rows,
            distinct: 1u64 << bitcase.min(62),
            value_bytes: 8,
            with_index,
        }
    }

    /// The bitcase: bits per vid in the index vector.
    pub fn bitcase(&self) -> u8 {
        let max_vid = self.distinct.saturating_sub(1);
        if max_vid == 0 {
            1
        } else {
            (64 - max_vid.leading_zeros()) as u8
        }
    }

    /// Size of the bit-compressed index vector in bytes.
    pub fn iv_bytes(&self) -> u64 {
        (self.rows * self.bitcase() as u64).div_ceil(8)
    }

    /// Size of the dictionary in bytes.
    pub fn dict_bytes(&self) -> u64 {
        self.distinct * self.value_bytes
    }

    /// Size of the inverted index in bytes (zero when absent): one 4-byte
    /// position per row plus an 8-byte offset per distinct value.
    pub fn ix_bytes(&self) -> u64 {
        if self.with_index {
            self.rows * 4 + self.distinct * 8
        } else {
            0
        }
    }

    /// Total size of the column in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.iv_bytes() + self.dict_bytes() + self.ix_bytes()
    }

    /// Expected number of distinct values in a uniform random sample of
    /// `part_rows` of the column's rows. Used to estimate the dictionary
    /// duplication that physical partitioning causes (Section 6.2.3).
    pub fn expected_distinct_in(&self, part_rows: u64) -> u64 {
        if self.distinct == 0 || part_rows == 0 {
            return 0;
        }
        let d = self.distinct as f64;
        let n = part_rows as f64;
        // E[distinct] = D * (1 - (1 - 1/D)^n)
        let expected = d * (1.0 - (1.0 - 1.0 / d).powf(n));
        expected.round().max(1.0) as u64
    }
}

/// Metadata of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Number of rows (identical for every column).
    pub rows: u64,
    /// The table's columns.
    pub columns: Vec<ColumnSpec>,
}

impl TableSpec {
    /// Creates a table spec, checking that every column has `rows` rows.
    pub fn new(name: impl Into<String>, rows: u64, columns: Vec<ColumnSpec>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        for c in &columns {
            assert_eq!(c.rows, rows, "column '{}' row count differs from the table's", c.name);
        }
        TableSpec { name: name.into(), rows, columns }
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Total size of the table in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.total_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitcase_derives_from_distinct_count() {
        let c = ColumnSpec::integer_with_bitcase("c", 1000, 17, false);
        assert_eq!(c.distinct, 1 << 17);
        assert_eq!(c.bitcase(), 17);
        let c26 = ColumnSpec::integer_with_bitcase("c", 1000, 26, false);
        assert_eq!(c26.bitcase(), 26);
    }

    #[test]
    fn component_sizes_match_hand_computation() {
        let c = ColumnSpec::integer_with_bitcase("c", 100_000_000, 20, true);
        assert_eq!(c.iv_bytes(), 100_000_000 * 20 / 8);
        assert_eq!(c.dict_bytes(), (1u64 << 20) * 8);
        assert_eq!(c.ix_bytes(), 100_000_000 * 4 + (1u64 << 20) * 8);
        assert_eq!(c.total_bytes(), c.iv_bytes() + c.dict_bytes() + c.ix_bytes());
    }

    #[test]
    fn index_free_columns_have_no_ix_bytes() {
        let c = ColumnSpec::integer_with_bitcase("c", 1000, 17, false);
        assert_eq!(c.ix_bytes(), 0);
    }

    #[test]
    fn expected_distinct_saturates_at_the_dictionary_size() {
        let c = ColumnSpec::integer_with_bitcase("c", 100_000_000, 17, false);
        // A part much larger than the dictionary sees almost every value.
        let d = c.expected_distinct_in(25_000_000);
        assert!(d as f64 > 0.99 * c.distinct as f64);
        // A tiny part sees roughly one distinct value per row.
        let small = c.expected_distinct_in(100);
        assert!((95..=100).contains(&small));
        assert_eq!(c.expected_distinct_in(0), 0);
    }

    #[test]
    fn paper_dataset_is_roughly_100_gib() {
        // 100M rows, ID column + 160 columns with bitcases 17..=26: the flat
        // CSV is 100 GiB; the dictionary-encoded size is smaller but in the
        // tens of GiB.
        let mut columns = vec![ColumnSpec::integer_with_bitcase("id", 100_000_000, 27, false)];
        for i in 0..160 {
            let bitcase = 17 + (i % 10) as u8;
            columns.push(ColumnSpec::integer_with_bitcase(
                format!("col{i}"),
                100_000_000,
                bitcase,
                false,
            ));
        }
        let table = TableSpec::new("tbl", 100_000_000, columns);
        let gib = table.total_bytes() as f64 / (1u64 << 30) as f64;
        assert!(gib > 20.0 && gib < 120.0, "unexpected table size: {gib} GiB");
    }

    #[test]
    #[should_panic(expected = "row count differs")]
    fn mismatched_rows_are_rejected() {
        let a = ColumnSpec::integer_with_bitcase("a", 10, 17, false);
        let b = ColumnSpec::integer_with_bitcase("b", 20, 17, false);
        TableSpec::new("t", 10, vec![a, b]);
    }
}
