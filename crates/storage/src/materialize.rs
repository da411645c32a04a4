//! Output materialization.
//!
//! The second phase of query execution (Section 5.2, Figure 7b): for every
//! qualifying row position, read the vid from the index vector, look up the
//! real value in the dictionary and write it to the output vector. Unlike the
//! scan, this phase performs *random* (data-dependent) accesses into the
//! dictionary, which is why the paper classifies high-selectivity executions
//! as CPU-intensive rather than memory-intensive.
//!
//! The index-vector reads go through [`crate::IndexVector::gather`] in batches of
//! 256 positions: each batch is bounds-checked once, on its greatest
//! row, then the bit-packed layout decodes it with the branch-free two-word
//! decoder and the run-length layout walks its runs with a cursor, instead
//! of a binary search over the runs per row.

use crate::column::DictColumn;
use crate::value::DictValue;

/// Positions gathered per [`crate::IndexVector::gather`] call.
const BATCH: usize = 256;

/// Materializes the values of the given row positions, which must ascend (as
/// every scan emits them).
///
/// # Panics
/// Panics if a position is out of bounds — each batch is checked before any
/// of its rows is read — or, on the run-length layout, if the positions do
/// not ascend.
pub fn materialize_positions<T: DictValue>(column: &DictColumn<T>, positions: &[u32]) -> Vec<T> {
    let (iv, dict) = (column.index_vector(), column.dictionary());
    let mut codes = [0u32; BATCH];
    let mut values = Vec::with_capacity(positions.len());
    for batch in positions.chunks(BATCH) {
        iv.gather(batch, 0, &mut codes);
        values.extend(codes[..batch.len()].iter().map(|&code| dict.value(code).clone()));
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::scan::scan_positions;

    fn column() -> DictColumn<i64> {
        let values: Vec<i64> = (0..5000i64).map(|i| (i * 31) % 500).collect();
        DictColumn::from_values("c", &values)
    }

    #[test]
    fn materialized_values_satisfy_the_predicate() {
        let col = column();
        let pred = Predicate::Between { lo: 100, hi: 120 }.encode(col.dictionary());
        let positions = scan_positions(&col, 0..col.row_count(), &pred);
        let values = materialize_positions(&col, &positions);
        assert_eq!(values.len(), positions.len());
        assert!(values.iter().all(|v| (100..=120).contains(v)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_positions_are_rejected_up_front() {
        let col = column();
        materialize_positions(&col, &[0, 4999, 5000]);
    }

    #[test]
    fn a_run_length_column_materializes_what_get_reads() {
        // Runs of 1 to 9 equal values, so the cursor both steps to the next
        // run and skips past several, over more than one batch.
        let values: Vec<i64> = (0..3000i64).map(|i| (i / (1 + i % 9)) % 200).collect();
        let mut col = DictColumn::from_values("c", &values);
        col.relayout(crate::column::IvLayoutKind::Rle);
        let positions: Vec<u32> = (0..3000u32).filter(|p| p % 7 < 3 || p % 97 == 0).collect();
        let expected: Vec<i64> = positions.iter().map(|&p| *col.value_at(p as usize)).collect();
        assert_eq!(materialize_positions(&col, &positions), expected);
    }

    #[test]
    fn materializing_no_positions_yields_empty_output() {
        let col = column();
        assert!(materialize_positions(&col, &[]).is_empty());
    }
}
