//! Output materialization.
//!
//! The second phase of query execution (Section 5.2, Figure 7b): for every
//! qualifying row position, read the vid from the index vector, look up the
//! real value in the dictionary and write it to the output vector. Unlike the
//! scan, this phase performs *random* (data-dependent) accesses into the
//! dictionary, which is why the paper classifies high-selectivity executions
//! as CPU-intensive rather than memory-intensive.
//!
//! The index-vector reads use the branch-free two-word decoder: positions are
//! bounds-checked once per batch, then every gather is a pair of overlapping
//! word loads with no per-element assert or straddle branch.

use crate::column::{DictColumn, IndexVector};
use crate::value::DictValue;

/// Validates a batch of positions once so the per-element decode can skip its
/// bounds assert.
fn check_positions(iv: &IndexVector, positions: &[u32]) {
    if let Some(&max) = positions.iter().max() {
        assert!((max as usize) < iv.len(), "position {max} out of bounds (len {})", iv.len());
    }
}

/// Materializes the values of the given row positions.
pub fn materialize_positions<T: DictValue>(column: &DictColumn<T>, positions: &[u32]) -> Vec<T> {
    let iv = column.index_vector();
    let dict = column.dictionary();
    check_positions(iv, positions);
    positions.iter().map(|&p| dict.value(iv.decode_at(p as usize)).clone()).collect()
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
    fn materializing_no_positions_yields_empty_output() {
        let col = column();
        assert!(materialize_positions(&col, &[]).is_empty());
    }
}
