//! Finding qualifying rows: the scans statements and shared sweeps run.
//!
//! The first phase of query execution (Section 5.2, Figure 7a) finds the row
//! positions qualifying under the predicate by scanning the index vector. A
//! private scan task answers one predicate with a position list
//! ([`scan_positions`]); a shared sweep answers its whole batch of attached
//! predicates in one pass ([`scan_positions_batch`]); [`scan_bitvector`]
//! keeps the paper's bit-vector form for high selectivities. All three — and
//! the fused aggregates, which consume the mask stream directly — ride the
//! layout's mask kernels ([`crate::IndexVector::scan_masks`]), for ranges and
//! `IN` lists alike. The paper's alternative, a few lookups in an inverted
//! index, is modelled only by the simulator's cost model.

use crate::bitvector::BitVector;
use crate::column::DictColumn;
use crate::predicate::EncodedPredicate;
use crate::value::DictValue;

/// Clamps `positions` to the column's rows.
fn clamp(column: &DictColumn<impl DictValue>, positions: std::ops::Range<usize>) -> (usize, usize) {
    let end = positions.end.min(column.row_count());
    (positions.start.min(end), end)
}

/// An empty position list sized for the matches of `predicate` over rows
/// `start..end`, from the column's zone-informed selectivity estimate (finite
/// and in `[0, 1]`), so the hot loop never reallocates when the estimate is
/// honest.
fn presized<T: DictValue>(
    column: &DictColumn<T>,
    start: usize,
    end: usize,
    predicate: &EncodedPredicate,
) -> Vec<u32> {
    let rows = end - start;
    let selectivity = column.scan_selectivity_estimate(start..end, predicate);
    Vec::with_capacity(((rows as f64 * selectivity).ceil() as usize).min(rows))
}

/// Appends the rows a match mask selects, `base` being the mask's first row.
/// Inlined, with the closures around it, into every window loop of the
/// kernels: it runs once per window.
#[inline(always)]
fn push_positions(out: &mut Vec<u32>, base: usize, mut mask: u64) {
    while mask != 0 {
        out.push((base + mask.trailing_zeros() as usize) as u32);
        mask &= mask - 1;
    }
}

/// Scans rows `positions` of the column's index vector and returns the
/// qualifying positions as an ascending list — the scan of every private
/// statement task.
///
/// Every predicate shape runs on the layout's mask kernel
/// ([`crate::IndexVector::scan_masks`]), and positions are recovered by
/// `trailing_zeros` iteration over nonzero masks. The output is pre-sized
/// from the zone map: the scanned range's local vid bounds replace the whole
/// dictionary as the domain, which matters on partitioned or clustered data.
pub fn scan_positions<T: DictValue>(
    column: &DictColumn<T>,
    positions: std::ops::Range<usize>,
    predicate: &EncodedPredicate,
) -> Vec<u32> {
    let (start, end) = clamp(column, positions);
    let mut out = presized(column, start, end, predicate);
    column.index_vector().scan_masks(
        start..end,
        predicate,
        #[inline(always)]
        |base, _, mask| push_positions(&mut out, base, mask),
    );
    out
}

/// Evaluates a whole batch of encoded predicates over rows `positions` of
/// the column's index vector in **one sweep**, returning one ascending
/// position list per predicate (`out[q]` answers `predicates[q]`).
///
/// This is the storage entry point of cooperative shared scans: however many
/// queries are attached, the index vector's words are streamed from memory
/// once. Every predicate — range or `IN` list — rides the batched mask kernel
/// ([`crate::IndexVector::scan_masks_batch`]), whose union pre-filter skips
/// windows no attached predicate can match; positions are recovered from
/// each query's mask slot by `trailing_zeros` iteration. Results are
/// byte-identical to running [`scan_positions`] per predicate.
pub fn scan_positions_batch<T: DictValue>(
    column: &DictColumn<T>,
    positions: std::ops::Range<usize>,
    predicates: &[&EncodedPredicate],
) -> Vec<Vec<u32>> {
    let (start, end) = clamp(column, positions);
    let mut out: Vec<Vec<u32>> =
        predicates.iter().map(|p| presized(column, start, end, p)).collect();
    column.index_vector().scan_masks_batch(
        start..end,
        predicates,
        #[inline(always)]
        |base, _, masks| {
            for (list, &mask) in out.iter_mut().zip(masks) {
                push_positions(list, base, mask);
            }
        },
    );
    out
}

/// Scans rows `positions` of the column's index vector and returns the
/// qualifying rows as a bit-vector: bit `i` stands for row
/// `positions.start + i` (after clamping to the column).
///
/// The layout's mask kernel ([`crate::IndexVector::scan_masks`]) feeds its
/// match masks straight into the bit-vector's words
/// ([`BitVector::or_bits`]) for every predicate shape — no bit is set one at
/// a time.
pub fn scan_bitvector<T: DictValue>(
    column: &DictColumn<T>,
    positions: std::ops::Range<usize>,
    predicate: &EncodedPredicate,
) -> BitVector {
    let (start, end) = clamp(column, positions);
    let mut bits = BitVector::new(end - start);
    column.index_vector().scan_masks(
        start..end,
        predicate,
        #[inline(always)]
        |base, n, mask| bits.or_bits(base - start, mask, n),
    );
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;

    fn column() -> DictColumn<i64> {
        let values: Vec<i64> = (0..10_000i64).map(|i| (i * 7919) % 1000).collect();
        DictColumn::from_values("c", &values)
    }

    /// The rows a bit-vector scan anchored at `start` selects.
    fn rows_of(bits: &BitVector, start: usize) -> Vec<u32> {
        bits.iter_ones().map(|i| (start + i) as u32).collect()
    }

    fn encoded(col: &DictColumn<i64>, lo: i64, hi: i64) -> EncodedPredicate {
        Predicate::Between { lo, hi }.encode(col.dictionary())
    }

    #[test]
    fn scan_positions_matches_reference_filter() {
        let col = column();
        let pred = encoded(&col, 100, 149);
        let got = scan_positions(&col, 0..col.row_count(), &pred);
        let expected: Vec<u32> = (0..col.row_count())
            .filter(|&i| (100..=149).contains(col.value_at(i)))
            .map(|i| i as u32)
            .collect();
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    #[test]
    fn bitvector_scan_agrees_with_position_scan() {
        let col = column();
        let pred = encoded(&col, 0, 499);
        let positions = scan_positions(&col, 1000..9000, &pred);
        let bits = scan_bitvector(&col, 1000..9000, &pred);
        assert_eq!(bits.len(), 8000);
        assert_eq!(rows_of(&bits, 1000), positions);
        assert_eq!(bits.count_ones(), positions.len());
    }

    #[test]
    fn empty_predicate_matches_nothing() {
        let col = column();
        let pred = EncodedPredicate::Empty;
        assert!(scan_positions(&col, 0..col.row_count(), &pred).is_empty());
        assert_eq!(scan_bitvector(&col, 0..col.row_count(), &pred).count_ones(), 0);
    }

    #[test]
    fn vid_list_predicate_scans_correctly() {
        let col = column();
        let pred = Predicate::InList(vec![5i64, 700]).encode(col.dictionary());
        let got = scan_positions(&col, 0..col.row_count(), &pred);
        let expected: Vec<u32> = (0..col.row_count())
            .filter(|&i| [5i64, 700].contains(col.value_at(i)))
            .map(|i| i as u32)
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn vid_list_bitvector_scan_agrees_with_position_scan() {
        let col = column();
        let pred = Predicate::InList(vec![5i64, 250, 700, 999]).encode(col.dictionary());
        // Unaligned sub-range so the pending-word flush path is exercised.
        let positions = scan_positions(&col, 37..9777, &pred);
        let bits = scan_bitvector(&col, 37..9777, &pred);
        assert_eq!(rows_of(&bits, 37), positions);
        assert!(!positions.is_empty());
    }

    #[test]
    fn an_all_matching_scan_is_presized_to_every_row() {
        let col = column();
        let pred = encoded(&col, 0, 999);
        let got = scan_positions(&col, 0..col.row_count(), &pred);
        assert_eq!(got.len(), col.row_count());
        assert_eq!(got.capacity(), col.row_count(), "the estimate must not undersize");
    }

    #[test]
    fn zone_informed_estimates_sharpen_on_clustered_data() {
        // Sorted column: the first zone only holds the first ZONE_ROWS vids,
        // so a predicate on that band estimates ~1.0 locally where the
        // uniform default would say ZONE_ROWS / distinct.
        let values: Vec<i64> = (0..3 * crate::zonemap::ZONE_ROWS as i64).collect();
        let col = DictColumn::from_values("sorted", &values);
        let zone_rows = crate::zonemap::ZONE_ROWS;
        let pred = encoded(&col, 0, zone_rows as i64 - 1);
        let local = col.scan_selectivity_estimate(0..zone_rows, &pred);
        assert!(local > 0.99, "local estimate should be ~1.0, got {local}");
        let uniform = pred.vid_count() as f64 / col.dictionary().len() as f64;
        assert!(uniform < 0.4, "the uniform default would badly undersize: {uniform}");
    }

    #[test]
    fn batched_scan_agrees_with_per_query_scans_for_mixed_predicates() {
        let col = column();
        let preds = [
            Predicate::Between { lo: 100, hi: 149 }.encode(col.dictionary()),
            Predicate::Between { lo: 0, hi: 999 }.encode(col.dictionary()),
            Predicate::InList(vec![5i64, 250, 700, 999]).encode(col.dictionary()),
            Predicate::Between { lo: 5000, hi: 6000 }.encode(col.dictionary()), // Empty
            Predicate::InList(vec![42i64]).encode(col.dictionary()),
            Predicate::Between { lo: 140, hi: 160 }.encode(col.dictionary()),
        ];
        let refs: Vec<&EncodedPredicate> = preds.iter().collect();
        for range in [0..col.row_count(), 37..9777, 0..1, 500..500, 9999..20_000] {
            let got = scan_positions_batch(&col, range.clone(), &refs);
            assert_eq!(got.len(), refs.len());
            for (q, pred) in preds.iter().enumerate() {
                let expected = scan_positions(&col, range.clone(), pred);
                assert_eq!(got[q], expected, "range {range:?}, predicate {q} ({pred:?})");
            }
        }
    }

    #[test]
    fn batched_scan_handles_duplicate_and_empty_batches() {
        let col = column();
        let pred = encoded(&col, 100, 149);
        // The same predicate attached many times yields identical lists.
        let refs: Vec<&EncodedPredicate> = vec![&pred; 17];
        let got = scan_positions_batch(&col, 0..col.row_count(), &refs);
        let expected = scan_positions(&col, 0..col.row_count(), &pred);
        for (q, list) in got.iter().enumerate() {
            assert_eq!(list, &expected, "attached copy {q}");
        }
        // An empty batch returns an empty result set.
        assert!(scan_positions_batch(&col, 0..col.row_count(), &[]).is_empty());
    }

    #[test]
    fn partial_range_scans_cover_only_their_rows() {
        let col = column();
        let pred = encoded(&col, 0, 999);
        let got = scan_positions(&col, 500..600, &pred);
        assert_eq!(got.len(), 100);
        assert!(got.iter().all(|&p| (500..600).contains(&(p as usize))));
    }
}
