//! Partitioning of columns: IVP split points and PP physical repartitioning.
//!
//! The paper distinguishes two ways to spread a column over sockets
//! (Section 4.2):
//!
//! * **Indexvector partitioning (IVP)** keeps the column's components intact
//!   and only *moves the pages* of equal-sized ranges of the index vector to
//!   different sockets. The dictionary stays interleaved. This module
//!   provides the row-range split points; the page movement itself is done by
//!   the placement layer.
//! * **Physical partitioning (PP)** splits the table into row ranges and
//!   rebuilds every column component per part: each part gets its own
//!   dictionary (with recurring values duplicated across parts) and its own,
//!   re-encoded index vector. PP is expensive to perform and can consume more
//!   memory, but every part is then self-contained on one socket.

use crate::column::DictColumn;
use crate::value::DictValue;

/// Equal row-range split points used by IVP: `parts` contiguous ranges
/// covering `0..row_count`.
pub fn ivp_ranges(row_count: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0, "cannot partition into zero parts");
    let parts = parts.min(row_count.max(1));
    let base = row_count / parts;
    let remainder = row_count % parts;
    let mut out = Vec::with_capacity(parts);
    let mut cursor = 0;
    for i in 0..parts {
        let len = base + usize::from(i < remainder);
        out.push(cursor..cursor + len);
        cursor += len;
    }
    out
}

/// One physical part of a physically partitioned column: a self-contained
/// column covering a contiguous row range of the original.
#[derive(Debug, Clone)]
pub struct PhysicalPartition<T: DictValue> {
    /// Row range of the original column covered by this part.
    pub rows: std::ops::Range<usize>,
    /// The rebuilt, self-contained column for those rows.
    pub column: DictColumn<T>,
}

/// A physically partitioned column.
#[derive(Debug, Clone)]
pub struct PhysicalPartitioning<T: DictValue> {
    parts: Vec<PhysicalPartition<T>>,
    original_bytes: usize,
}

impl<T: DictValue> PhysicalPartitioning<T> {
    /// Physically repartitions a column into `parts` equal row ranges,
    /// rebuilding dictionary and index vector for every part.
    pub fn create(column: &DictColumn<T>, parts: usize) -> Self {
        let ranges = ivp_ranges(column.row_count(), parts);
        let parts = ranges
            .into_iter()
            .map(|rows| {
                let part_column = column.rebuild_range(
                    format!("{}#{}-{}", column.name(), rows.start, rows.end),
                    rows.clone(),
                    false,
                );
                PhysicalPartition { rows, column: part_column }
            })
            .collect();
        PhysicalPartitioning { parts, original_bytes: column.total_bytes() }
    }

    /// The parts, in row order.
    pub fn parts(&self) -> &[PhysicalPartition<T>] {
        &self.parts
    }

    /// Consumes the partitioning, yielding the rebuilt parts without copying
    /// them (the rebuilt columns can be large; callers wrapping them for
    /// sharing should not pay for a second deep clone).
    pub fn into_parts(self) -> Vec<PhysicalPartition<T>> {
        self.parts
    }

    /// Number of parts.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Total rows across all parts.
    pub fn row_count(&self) -> usize {
        self.parts.iter().map(|p| p.column.row_count()).sum()
    }

    /// Total memory of all parts in bytes.
    pub fn total_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.column.total_bytes()).sum()
    }

    /// Memory overhead of the partitioning relative to the unpartitioned
    /// column (PP duplicates recurring dictionary values across parts;
    /// Section 6.2.3 reports around 8 % for the paper's dataset).
    pub fn memory_overhead_fraction(&self) -> f64 {
        if self.original_bytes == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 / self.original_bytes as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ivp_ranges_cover_all_rows_contiguously() {
        for (rows, parts) in [(100usize, 4usize), (101, 4), (7, 3), (5, 8), (0, 3)] {
            let ranges = ivp_ranges(rows, parts);
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, rows, "rows={rows} parts={parts}");
            let mut cursor = 0;
            for r in &ranges {
                assert_eq!(r.start, cursor);
                cursor = r.end;
            }
            // Balanced: sizes differ by at most one.
            let min = ranges.iter().map(|r| r.len()).min().unwrap_or(0);
            let max = ranges.iter().map(|r| r.len()).max().unwrap_or(0);
            assert!(max - min <= 1);
        }
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_is_rejected() {
        ivp_ranges(10, 0);
    }

    fn column() -> DictColumn<i64> {
        let values: Vec<i64> = (0..4000i64).map(|i| (i * 13) % 100).collect();
        DictColumn::from_values("col", &values)
    }

    #[test]
    fn physical_partitioning_preserves_every_value() {
        let col = column();
        let pp = PhysicalPartitioning::create(&col, 4);
        assert_eq!(pp.part_count(), 4);
        assert_eq!(pp.row_count(), col.row_count());
        for part in pp.parts() {
            for (local, global) in part.rows.clone().enumerate() {
                assert_eq!(part.column.value_at(local), col.value_at(global));
            }
        }
    }

    #[test]
    fn physical_partitioning_duplicates_dictionary_values() {
        // Every part of this column sees all 100 distinct values, so the
        // partitioned dictionaries together are ~4x the original dictionary.
        let col = column();
        let pp = PhysicalPartitioning::create(&col, 4);
        let dict_bytes: usize = pp.parts().iter().map(|p| p.column.dictionary_bytes()).sum();
        assert!(dict_bytes >= 3 * col.dictionary_bytes());
        assert!(pp.memory_overhead_fraction() > 0.0);
    }

    #[test]
    fn sorted_column_has_no_dictionary_duplication() {
        // When values are sorted according to the partitioning key, parts have
        // disjoint value ranges and the dictionaries do not overlap
        // (the paper's "only case where this does not occur").
        let values: Vec<i64> = (0..4000i64).collect();
        let col = DictColumn::from_values("sorted", &values);
        let pp = PhysicalPartitioning::create(&col, 4);
        let dict_entries: usize = pp.parts().iter().map(|p| p.column.dictionary().len()).sum();
        assert_eq!(dict_entries, col.dictionary().len());
    }

    #[test]
    fn scans_over_parts_equal_scan_over_original() {
        use crate::predicate::Predicate;
        use crate::scan::scan_positions;
        let col = column();
        let pp = PhysicalPartitioning::create(&col, 4);
        let pred = Predicate::Between { lo: 10, hi: 19 };
        let original = scan_positions(&col, 0..col.row_count(), &pred.encode(col.dictionary()));
        let mut from_parts = Vec::new();
        for part in pp.parts() {
            let encoded = pred.encode(part.column.dictionary());
            for p in scan_positions(&part.column, 0..part.column.row_count(), &encoded) {
                from_parts.push(p + part.rows.start as u32);
            }
        }
        from_parts.sort_unstable();
        assert_eq!(from_parts, original);
    }
}
