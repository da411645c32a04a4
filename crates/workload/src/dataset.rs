//! The paper's synthetic dataset.
//!
//! Section 6: "We generate a dataset with a large table, taking up 100 GiB of
//! a flat CSV file. It consists of 100 million rows, an ID integer column as
//! the primary key, and 160 additional columns of random integers generated
//! with a uniform distribution. We use bitcases 17 to 26 in a round-robin
//! fashion for the 160 columns, to avoid scans with the same speed."

use numascan_core::{ColumnSpec, TableSpec};
use numascan_storage::{Table, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row count of the paper's dataset.
pub const PAPER_ROWS: u64 = 100_000_000;
/// Number of payload columns of the paper's dataset.
pub const PAPER_COLUMNS: usize = 160;
/// The bitcases cycled through by the payload columns.
pub const PAPER_BITCASES: std::ops::RangeInclusive<u8> = 17..=26;

/// Builds the metadata-only description of the paper's table, scaled to
/// `rows` rows and `payload_columns` columns (pass [`PAPER_ROWS`] and
/// [`PAPER_COLUMNS`] for the full-scale dataset). When `with_index` is set,
/// every payload column is modelled with an inverted index (the simulator's
/// index-lookup path, used by the selectivity experiment of Figure 14).
pub fn paper_table_spec(rows: u64, payload_columns: usize, with_index: bool) -> TableSpec {
    assert!(payload_columns > 0, "the dataset needs at least one payload column");
    let mut columns = Vec::with_capacity(payload_columns + 1);
    // The ID primary-key column: unique values, so its dictionary has one
    // entry per row.
    columns.push(ColumnSpec {
        name: "id".to_string(),
        rows,
        distinct: rows.max(1),
        value_bytes: 8,
        with_index: false,
    });
    let bitcase_span = (*PAPER_BITCASES.end() - *PAPER_BITCASES.start() + 1) as usize;
    for i in 0..payload_columns {
        let bitcase = *PAPER_BITCASES.start() + (i % bitcase_span) as u8;
        columns.push(ColumnSpec::integer_with_bitcase(
            format!("col{i:03}"),
            rows,
            bitcase,
            with_index,
        ));
    }
    TableSpec::new("scan_tbl", rows, columns)
}

/// Builds a real, materialised table with the same shape as the paper's
/// dataset but at laptop scale, for native execution and functional tests.
/// Values of column `i` are uniform random integers in `0..2^bitcase(i)`.
pub fn small_real_table(rows: usize, payload_columns: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids: Vec<i64> = (0..rows as i64).collect();
    let mut builder = TableBuilder::new("scan_tbl_small").add_values("id", &ids, false);
    let bitcase_span = (*PAPER_BITCASES.end() - *PAPER_BITCASES.start() + 1) as usize;
    for i in 0..payload_columns {
        // Keep the dictionaries small relative to the row count so scans
        // exercise duplicate values.
        let bitcase = 8 + (i % bitcase_span) as u32;
        let max = 1i64 << bitcase;
        let values: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..max)).collect();
        builder = builder.add_values(format!("col{i:03}"), &values, false);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_has_id_plus_payload_columns_with_cycling_bitcases() {
        let spec = paper_table_spec(PAPER_ROWS, PAPER_COLUMNS, false);
        assert_eq!(spec.columns.len(), 161);
        assert_eq!(spec.rows, 100_000_000);
        assert_eq!(spec.columns[1].bitcase(), 17);
        assert_eq!(spec.columns[10].bitcase(), 26);
        assert_eq!(spec.columns[11].bitcase(), 17);
        // The ID column is the primary key: one distinct value per row.
        assert_eq!(spec.columns[0].distinct, PAPER_ROWS);
    }

    #[test]
    fn paper_spec_scales_down() {
        let spec = paper_table_spec(1_000_000, 8, true);
        assert_eq!(spec.columns.len(), 9);
        assert!(spec.columns[1].with_index);
        assert!(!spec.columns[0].with_index);
    }

    #[test]
    fn small_real_table_is_deterministic_and_well_formed() {
        let a = small_real_table(10_000, 4, 42);
        let b = small_real_table(10_000, 4, 42);
        assert_eq!(a.row_count(), 10_000);
        assert_eq!(a.column_count(), 5);
        let (_, col_a) = a.column_by_name("col001").unwrap();
        let (_, col_b) = b.column_by_name("col001").unwrap();
        assert_eq!(col_a.value_at(123), col_b.value_at(123), "same seed, same data");
        let c = small_real_table(10_000, 4, 43);
        let (_, col_c) = c.column_by_name("col001").unwrap();
        // Different seeds almost surely differ somewhere in the first rows.
        let differs = (0..100).any(|i| col_a.value_at(i) != col_c.value_at(i));
        assert!(differs);
    }

    #[test]
    #[should_panic(expected = "at least one payload column")]
    fn zero_payload_columns_is_rejected() {
        paper_table_spec(1000, 0, false);
    }
}
