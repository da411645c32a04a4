//! Finding qualifying matches: scans and index lookups.
//!
//! The first phase of query execution (Section 5.2, Figure 7a) finds the row
//! positions qualifying under the predicate, either by scanning the index
//! vector or by a few lookups in the inverted index. The matches are stored
//! either as a position list (low selectivity) or a bit-vector (high
//! selectivity).

use crate::bitvector::BitVector;
use crate::column::DictColumn;
use crate::predicate::EncodedPredicate;
use crate::value::DictValue;

/// Threshold above which a bit-vector representation is preferred over a
/// position list (fraction of qualifying rows).
pub const BITVECTOR_SELECTIVITY_THRESHOLD: f64 = 0.05;

/// Qualifying matches of one scan (or one partition of a scan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchList {
    /// Qualifying row positions, ascending. Preferred for low selectivities.
    Positions(Vec<u32>),
    /// One bit per row of the scanned range. Preferred for high selectivities.
    Bits {
        /// First row position covered by the bit-vector.
        offset: usize,
        /// The bits; bit `i` corresponds to row `offset + i`.
        bits: BitVector,
    },
}

impl MatchList {
    /// Number of qualifying rows.
    pub fn count(&self) -> usize {
        match self {
            MatchList::Positions(p) => p.len(),
            MatchList::Bits { bits, .. } => bits.count_ones(),
        }
    }

    /// Qualifying row positions, ascending (materializes the bit-vector form).
    pub fn to_positions(&self) -> Vec<u32> {
        match self {
            MatchList::Positions(p) => p.clone(),
            MatchList::Bits { offset, bits } => {
                bits.iter_ones().map(|p| (p + offset) as u32).collect()
            }
        }
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            MatchList::Positions(p) => p.len() * 4,
            MatchList::Bits { bits, .. } => bits.memory_bytes(),
        }
    }
}

/// Scans rows `positions` of the column's index vector and returns the
/// qualifying positions as a list, pre-sizing the output from the caller's
/// selectivity estimate (clamped to `[0, 1]`) so the hot loop never
/// reallocates when the estimate is honest. A `NaN` estimate carries no
/// information and falls back to the column's own zone-informed estimate
/// instead of silently pre-sizing to zero (`NaN.clamp(…)` is `NaN`, and
/// `NaN as usize` is 0); infinities clamp to the nearest bound as before.
///
/// Every predicate shape runs on the layout's mask kernel
/// ([`crate::IndexVector::scan_masks`]: ranges and `IN` lists alike), and
/// positions are recovered by `trailing_zeros` iteration over nonzero masks.
pub fn scan_positions_with_estimate<T: DictValue>(
    column: &DictColumn<T>,
    positions: std::ops::Range<usize>,
    predicate: &EncodedPredicate,
    estimated_selectivity: f64,
) -> Vec<u32> {
    let iv = column.index_vector();
    let end = positions.end.min(iv.len());
    let start = positions.start.min(end);
    let rows = end - start;
    let selectivity = if estimated_selectivity.is_nan() {
        column.scan_selectivity_estimate(start..end, predicate)
    } else {
        estimated_selectivity.clamp(0.0, 1.0)
    };
    let estimate = (rows as f64 * selectivity).ceil() as usize;
    let mut out = Vec::with_capacity(estimate.min(rows));
    iv.scan_masks(
        start..end,
        predicate,
        #[inline(always)]
        |base, _, mask| push_positions(&mut out, base, mask),
    );
    out
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
/// qualifying positions as a list.
///
/// The output estimate is zone-map-informed where the column has zone
/// coverage — the scanned range's local vid bounds replace the whole
/// dictionary as the domain, which matters on partitioned or clustered data —
/// and falls back to the uniform-frequency default otherwise; callers with a
/// better estimate should use [`scan_positions_with_estimate`].
pub fn scan_positions<T: DictValue>(
    column: &DictColumn<T>,
    positions: std::ops::Range<usize>,
    predicate: &EncodedPredicate,
) -> Vec<u32> {
    let estimate = column.scan_selectivity_estimate(positions.clone(), predicate);
    scan_positions_with_estimate(column, positions, predicate, estimate)
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
    let iv = column.index_vector();
    let end = positions.end.min(iv.len());
    let start = positions.start.min(end);
    let rows = end - start;
    let mut out: Vec<Vec<u32>> = predicates
        .iter()
        .map(|p| {
            let selectivity = column.scan_selectivity_estimate(start..end, p);
            let estimate = (rows as f64 * selectivity).ceil() as usize;
            Vec::with_capacity(estimate.min(rows))
        })
        .collect();
    iv.scan_masks_batch(
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
/// qualifying positions as a bit-vector anchored at `positions.start`.
///
/// The layout's mask kernel ([`crate::IndexVector::scan_masks`]) feeds its
/// match masks straight into the bit-vector's words
/// ([`BitVector::or_bits`]) for every predicate shape — no bit is set one at
/// a time.
pub fn scan_bitvector<T: DictValue>(
    column: &DictColumn<T>,
    positions: std::ops::Range<usize>,
    predicate: &EncodedPredicate,
) -> MatchList {
    let iv = column.index_vector();
    let end = positions.end.min(iv.len());
    let start = positions.start.min(end);
    let mut bits = BitVector::new(end - start);
    iv.scan_masks(
        start..end,
        predicate,
        #[inline(always)]
        |base, n, mask| bits.or_bits(base - start, mask, n),
    );
    MatchList::Bits { offset: start, bits }
}

/// Scans rows `positions`, choosing the result representation based on the
/// estimated selectivity as the paper's prototype does. The estimate also
/// pre-sizes the position list on the low-selectivity path.
pub fn scan<T: DictValue>(
    column: &DictColumn<T>,
    positions: std::ops::Range<usize>,
    predicate: &EncodedPredicate,
    estimated_selectivity: f64,
) -> MatchList {
    if estimated_selectivity >= BITVECTOR_SELECTIVITY_THRESHOLD {
        scan_bitvector(column, positions, predicate)
    } else {
        MatchList::Positions(scan_positions_with_estimate(
            column,
            positions,
            predicate,
            estimated_selectivity,
        ))
    }
}

/// Answers the predicate through the inverted index instead of scanning.
///
/// Returns `None` if the column has no index. The result positions are sorted
/// ascending, covering the whole column.
pub fn index_lookup<T: DictValue>(
    column: &DictColumn<T>,
    predicate: &EncodedPredicate,
) -> Option<Vec<u32>> {
    let ix = column.inverted_index()?;
    let positions = match predicate {
        EncodedPredicate::Empty => Vec::new(),
        EncodedPredicate::Range(r) => ix.positions_in_range(r.first, r.last),
        EncodedPredicate::VidList(vids) => {
            let mut out = Vec::new();
            for run in vids.runs() {
                out.extend(ix.positions_in_range(run.first, run.last));
            }
            out.sort_unstable();
            out
        }
    };
    Some(positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;

    fn column() -> DictColumn<i64> {
        let values: Vec<i64> = (0..10_000i64).map(|i| (i * 7919) % 1000).collect();
        DictColumn::from_values("c", &values, true)
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
        assert_eq!(bits.to_positions(), positions);
        assert_eq!(bits.count(), positions.len());
    }

    #[test]
    fn scan_chooses_representation_by_selectivity() {
        let col = column();
        let pred = encoded(&col, 0, 999);
        match scan(&col, 0..100, &pred, 1.0) {
            MatchList::Bits { .. } => {}
            other => panic!("high selectivity should use bits, got {other:?}"),
        }
        match scan(&col, 0..100, &pred, 0.0001) {
            MatchList::Positions(_) => {}
            other => panic!("low selectivity should use positions, got {other:?}"),
        }
    }

    #[test]
    fn index_lookup_agrees_with_scan() {
        let col = column();
        let pred = encoded(&col, 250, 251);
        let from_scan = scan_positions(&col, 0..col.row_count(), &pred);
        let from_index = index_lookup(&col, &pred).unwrap();
        assert_eq!(from_index, from_scan);
    }

    #[test]
    fn index_lookup_without_index_returns_none() {
        let values: Vec<i64> = (0..100).collect();
        let col = DictColumn::from_values("c", &values, false);
        assert!(index_lookup(&col, &encoded(&col, 0, 10)).is_none());
    }

    #[test]
    fn empty_predicate_matches_nothing() {
        let col = column();
        let pred = EncodedPredicate::Empty;
        assert!(scan_positions(&col, 0..col.row_count(), &pred).is_empty());
        assert_eq!(scan_bitvector(&col, 0..col.row_count(), &pred).count(), 0);
        assert!(index_lookup(&col, &pred).unwrap().is_empty());
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
        assert_eq!(bits.to_positions(), positions);
        assert!(!positions.is_empty());
    }

    #[test]
    fn estimate_presizes_without_changing_results() {
        let col = column();
        let pred = encoded(&col, 100, 149);
        let baseline = scan_positions(&col, 0..col.row_count(), &pred);
        for estimate in
            [0.0, 0.05, 1.0, 7.5, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN]
        {
            let got = scan_positions_with_estimate(&col, 0..col.row_count(), &pred, estimate);
            assert_eq!(got, baseline, "estimate {estimate}");
        }
    }

    #[test]
    fn nan_estimate_does_not_collapse_the_presizing_to_zero() {
        // Regression: `NaN.clamp(0.0, 1.0)` is NaN and `NaN as usize` is 0,
        // so a NaN estimate silently pre-sized every scan to capacity 0. It
        // must instead fall back to the column's own (finite) estimate.
        let col = column();
        let pred = encoded(&col, 0, 999); // matches every row
        let got = scan_positions_with_estimate(&col, 0..col.row_count(), &pred, f64::NAN);
        assert_eq!(got.len(), col.row_count());
        // The fallback estimate itself is finite and well-bounded.
        let est = col.scan_selectivity_estimate(0..col.row_count(), &pred);
        assert!(est.is_finite() && (0.0..=1.0).contains(&est));
        assert!(est > 0.9, "an all-matching predicate should estimate near 1, got {est}");
    }

    #[test]
    fn zone_informed_estimates_sharpen_on_clustered_data() {
        // Sorted column: the first zone only holds the first ZONE_ROWS vids,
        // so a predicate on that band estimates ~1.0 locally where the
        // uniform default would say ZONE_ROWS / distinct.
        let values: Vec<i64> = (0..3 * crate::zonemap::ZONE_ROWS as i64).collect();
        let col = DictColumn::from_values("sorted", &values, false);
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
