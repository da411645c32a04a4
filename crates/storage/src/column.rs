//! Dictionary-encoded columns.
//!
//! A [`DictColumn`] bundles the scanned components of Figure 3 of the paper:
//! the sorted dictionary and the bit-compressed index vector (IV) — plus a
//! [`ZoneMap`] of per-zone min/max vids built at encode time, which lets
//! scans skip whole row ranges and sharpens selectivity estimates. Figure 3's
//! inverted index is not built: no statement would read it (see the crate
//! docs).
//!
//! The index vector itself is an [`IndexVector`]: either the word-parallel
//! [`BitPackedVec`] layout or the run-length-encoded [`RleVec`] layout, chosen
//! per column (and, in the engine, per partition) by the layout advisor.
//! Both expose the same kernel surface, so every scan consumer is
//! layout-agnostic.

use crate::bitpack::{BitPackedIter, BitPackedVec};
use crate::dictionary::Dictionary;
use crate::predicate::EncodedPredicate;
use crate::rle::{RleIter, RleVec};
use crate::value::DictValue;
use crate::zonemap::{ZoneMap, ZoneMapBuilder};

/// Which physical layout an index vector uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IvLayoutKind {
    /// Densely bit-packed codes scanned by the word-parallel SWAR kernels —
    /// the scan-fastest layout for data without long equal-value runs.
    BitPacked,
    /// Run-length-encoded codes scanned at run granularity — far smaller and
    /// at least as fast for sorted/clustered low-cardinality data.
    Rle,
}

/// An index vector in one of the supported physical layouts.
///
/// Every method dispatches to the layout's kernel; the mask-stream contracts
/// are identical (see [`RleVec`]), so consumers never branch on the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexVector {
    /// Bit-packed layout.
    BitPacked(BitPackedVec),
    /// Run-length-encoded layout.
    Rle(RleVec),
}

impl IndexVector {
    /// The layout this vector uses.
    pub fn layout(&self) -> IvLayoutKind {
        match self {
            IndexVector::BitPacked(_) => IvLayoutKind::BitPacked,
            IndexVector::Rle(_) => IvLayoutKind::Rle,
        }
    }

    /// Bits per code of the (equivalent) bit-packed layout — the bitcase.
    pub fn bits(&self) -> u8 {
        match self {
            IndexVector::BitPacked(v) => v.bits(),
            IndexVector::Rle(v) => v.bits(),
        }
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        match self {
            IndexVector::BitPacked(v) => v.len(),
            IndexVector::Rle(v) => v.len(),
        }
    }

    /// `true` if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory footprint of the payload in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            IndexVector::BitPacked(v) => v.memory_bytes(),
            IndexVector::Rle(v) => v.memory_bytes(),
        }
    }

    /// Reads the element at `pos`.
    ///
    /// # Panics
    /// Panics if `pos` is out of bounds.
    #[inline]
    pub fn get(&self, pos: usize) -> u32 {
        match self {
            IndexVector::BitPacked(v) => v.get(pos),
            IndexVector::Rle(v) => v.get(pos),
        }
    }

    /// Unchecked decode; the caller guarantees `pos < self.len()`.
    #[inline]
    pub(crate) fn decode_at(&self, pos: usize) -> u32 {
        match self {
            IndexVector::BitPacked(v) => v.decode_at(pos),
            IndexVector::Rle(v) => v.decode_at(pos),
        }
    }

    /// Iterates over all stored values.
    pub fn iter(&self) -> IvIter<'_> {
        self.iter_range(0..self.len())
    }

    /// Iterates over the values of a sub-range (clamped to the length).
    pub fn iter_range(&self, positions: std::ops::Range<usize>) -> IvIter<'_> {
        match self {
            IndexVector::BitPacked(v) => IvIter::BitPacked(v.iter_range(positions)),
            IndexVector::Rle(v) => IvIter::Rle(v.iter_range(positions)),
        }
    }

    /// The mask stream of any encoded predicate; see
    /// [`BitPackedVec::scan_masks`] for the contract both layouts honor.
    #[inline]
    pub fn scan_masks<F: FnMut(usize, u32, u64)>(
        &self,
        positions: std::ops::Range<usize>,
        predicate: &EncodedPredicate,
        sink: F,
    ) {
        match self {
            IndexVector::BitPacked(v) => v.scan_masks(positions, predicate, sink),
            IndexVector::Rle(v) => v.scan_masks(positions, predicate, sink),
        }
    }

    /// The mask stream of the range predicate `[min, max]`.
    #[inline]
    pub fn scan_range_masks<F: FnMut(usize, u32, u64)>(
        &self,
        positions: std::ops::Range<usize>,
        min: u32,
        max: u32,
        sink: F,
    ) {
        match self {
            IndexVector::BitPacked(v) => v.scan_range_masks(positions, min, max, sink),
            IndexVector::Rle(v) => v.scan_range_masks(positions, min, max, sink),
        }
    }

    /// The batched (cooperative) mask kernel; see
    /// [`BitPackedVec::scan_masks_batch`] for the shared contract.
    pub fn scan_masks_batch<F: FnMut(usize, u32, &[u64])>(
        &self,
        positions: std::ops::Range<usize>,
        predicates: &[&EncodedPredicate],
        sink: F,
    ) {
        match self {
            IndexVector::BitPacked(v) => v.scan_masks_batch(positions, predicates, sink),
            IndexVector::Rle(v) => v.scan_masks_batch(positions, predicates, sink),
        }
    }

    /// Bytes a scan over `rows` rows streams from memory under this layout.
    pub fn scan_bytes(&self, rows: usize) -> u64 {
        match self {
            IndexVector::BitPacked(v) => (rows as u64 * u64::from(v.bits())).div_ceil(8),
            IndexVector::Rle(v) => v.scan_bytes(rows),
        }
    }
}

/// Decoder over an [`IndexVector`] (sub-)range, dispatching to the layout's
/// cursor.
#[derive(Debug, Clone)]
pub enum IvIter<'a> {
    /// Word-cursor decoder of the bit-packed layout.
    BitPacked(BitPackedIter<'a>),
    /// Run-cursor decoder of the RLE layout.
    Rle(RleIter<'a>),
}

impl Iterator for IvIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            IvIter::BitPacked(it) => it.next(),
            IvIter::Rle(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IvIter::BitPacked(it) => it.size_hint(),
            IvIter::Rle(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for IvIter<'_> {}

/// A dictionary-encoded column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictColumn<T: DictValue> {
    name: String,
    dict: Dictionary<T>,
    iv: IndexVector,
    zones: ZoneMap,
}

impl<T: DictValue> DictColumn<T> {
    /// Builds a bit-packed column from row values.
    pub fn from_values(name: impl Into<String>, values: &[T]) -> Self {
        let dict = Dictionary::from_values(values.to_vec());
        let mut iv = BitPackedVec::with_capacity(dict.bitcase(), values.len());
        let mut zones = ZoneMapBuilder::new();
        for v in values {
            let vid = dict.lookup(v).expect("value must be in its own dictionary");
            iv.push(vid);
            zones.push(vid);
        }
        let iv = IndexVector::BitPacked(iv);
        DictColumn { name: name.into(), dict, iv, zones: zones.finish() }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.iv.len()
    }

    /// The column's dictionary.
    pub fn dictionary(&self) -> &Dictionary<T> {
        &self.dict
    }

    /// The column's index vector.
    pub fn index_vector(&self) -> &IndexVector {
        &self.iv
    }

    /// The physical layout of the index vector.
    pub fn layout(&self) -> IvLayoutKind {
        self.iv.layout()
    }

    /// Whether the zone map proves a scan of `rows` under `predicate` is
    /// empty — the partition-pruning test. `false` when the bounds overlap
    /// the predicate (a scan may match) *or* when the range holds no rows
    /// worth skipping.
    pub fn prunes(&self, rows: std::ops::Range<usize>, predicate: &EncodedPredicate) -> bool {
        if matches!(predicate, EncodedPredicate::Empty) {
            return true;
        }
        self.zones.bounds(rows).is_some_and(|b| !b.overlaps(predicate))
    }

    /// Zone-informed selectivity estimate of `predicate` over `rows`: the
    /// local vid bounds replace the whole dictionary as the domain where the
    /// zone map has coverage, falling back to the uniform-frequency default
    /// otherwise. Always finite and in `[0, 1]`.
    pub fn scan_selectivity_estimate(
        &self,
        rows: std::ops::Range<usize>,
        predicate: &EncodedPredicate,
    ) -> f64 {
        if let Some(est) = self.zones.estimate_selectivity(rows, predicate) {
            return est.clamp(0.0, 1.0);
        }
        let distinct = self.dict.len();
        if distinct == 0 {
            0.0
        } else {
            (predicate.vid_count() as f64 / distinct as f64).clamp(0.0, 1.0)
        }
    }

    /// Fraction of rows starting a new equal-value run over `rows` (from the
    /// zone map) — the layout advisor's RLE-compressibility signal.
    pub fn run_fraction(&self, rows: std::ops::Range<usize>) -> f64 {
        self.zones.run_fraction(rows)
    }

    /// Converts the index vector to `layout` in place, preserving vids and
    /// the zone map (which is layout-independent). Returns `true` if the
    /// layout changed.
    pub fn relayout(&mut self, layout: IvLayoutKind) -> bool {
        match (&self.iv, layout) {
            (IndexVector::BitPacked(v), IvLayoutKind::Rle) => {
                self.iv = IndexVector::Rle(RleVec::from_bitpacked(v));
                true
            }
            (IndexVector::Rle(v), IvLayoutKind::BitPacked) => {
                self.iv = IndexVector::BitPacked(v.to_bitpacked());
                true
            }
            _ => false,
        }
    }

    /// The bitcase (bits per vid) of the index vector.
    pub fn bitcase(&self) -> u8 {
        self.iv.bits()
    }

    /// The vid stored at a row position.
    pub fn vid_at(&self, pos: usize) -> u32 {
        self.iv.get(pos)
    }

    /// The decoded value at a row position.
    pub fn value_at(&self, pos: usize) -> &T {
        self.dict.value(self.vid_at(pos))
    }

    /// Memory footprint of the index vector in bytes.
    pub fn iv_bytes(&self) -> usize {
        self.iv.memory_bytes()
    }

    /// Bytes of index-vector payload a scan over `rows` rows streams from
    /// memory — `rows * bitcase / 8` (rounded up) for the bit-packed layout,
    /// the pro-rated run table for RLE. This is the per-task telemetry the
    /// adaptive layers aggregate into per-socket and per-column bandwidth
    /// estimates, so it is layout-sensitive by design: re-laying a partition
    /// out changes what a sweep actually streams.
    pub fn iv_scan_bytes(&self, rows: usize) -> u64 {
        self.iv.scan_bytes(rows)
    }

    /// Memory footprint of the dictionary in bytes.
    pub fn dictionary_bytes(&self) -> usize {
        self.dict.memory_bytes()
    }

    /// Total memory footprint of the column in bytes.
    pub fn total_bytes(&self) -> usize {
        self.iv_bytes() + self.dictionary_bytes()
    }

    /// Rebuilds a row range as a self-contained column straight from the
    /// encoded index vector and dictionary — the fast path of physical
    /// repartitioning. One pass over the packed codes collects the distinct
    /// vids into a presence bitmap; the part dictionary is then assembled in
    /// sorted order without re-sorting or per-row value clones (one clone per
    /// *distinct* value), and a second code pass remaps into the part-local
    /// vid space while building the part's zone map.
    ///
    /// # Panics
    /// Panics if `with_index` is set: columns carry no inverted index. The
    /// flag remains only because the benchmark's adapter still passes it.
    pub fn rebuild_range(
        &self,
        name: impl Into<String>,
        rows: std::ops::Range<usize>,
        with_index: bool,
    ) -> DictColumn<T> {
        assert!(!with_index, "columns carry no inverted index");
        let end = rows.end.min(self.row_count());
        let start = rows.start.min(end);

        // Pass 1: which global vids occur in the range.
        let mut present = vec![0u64; self.dict.len().div_ceil(64)];
        for code in self.iv.iter_range(start..end) {
            present[code as usize / 64] |= 1u64 << (code % 64);
        }

        // Distinct vids ascending -> sorted part dictionary + dense remap.
        let mut remap = vec![0u32; self.dict.len()];
        let mut values = Vec::new();
        for (w, &word) in present.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let vid = (w * 64) as u32 + bits.trailing_zeros();
                remap[vid as usize] = values.len() as u32;
                values.push(self.dict.value(vid).clone());
                bits &= bits - 1;
            }
        }
        let dict = Dictionary::from_sorted_distinct(values);

        // Pass 2: re-encode into the part-local vid space.
        let bits = dict.bitcase();
        let mut iv = BitPackedVec::with_capacity(bits, end - start);
        let mut zones = ZoneMapBuilder::new();
        for code in self.iv.iter_range(start..end) {
            let local = remap[code as usize];
            iv.push(local);
            zones.push(local);
        }
        let iv = IndexVector::BitPacked(iv);
        DictColumn { name: name.into(), dict, iv, zones: zones.finish() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::scan::scan_positions;

    fn values() -> Vec<i64> {
        (0..1000i64).map(|i| (i * 37) % 250).collect()
    }

    #[test]
    fn column_roundtrips_values() {
        let vals = values();
        let col = DictColumn::from_values("c1", &vals);
        assert_eq!(col.row_count(), vals.len());
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.value_at(i), v);
        }
        assert_eq!(col.name(), "c1");
    }

    #[test]
    fn bitcase_matches_distinct_count() {
        let col = DictColumn::from_values("c", &values());
        assert_eq!(col.dictionary().len(), 250);
        assert_eq!(col.bitcase(), 8);
    }

    #[test]
    fn empty_domain_selectivity_estimates_are_finite_zeros() {
        // A zero-row column has an empty dictionary and an empty zone map;
        // the estimate must come back 0.0, never NaN from a 0/0, because it
        // pre-sizes downstream position buffers.
        let col = DictColumn::from_values("empty", &[] as &[i64]);
        assert_eq!(col.dictionary().len(), 0);
        for predicate in [
            EncodedPredicate::Empty,
            EncodedPredicate::Range(crate::predicate::VidRange { first: 0, last: 10 }),
            EncodedPredicate::from_vids([1, 2, 3, 7]),
        ] {
            let est = col.scan_selectivity_estimate(0..0, &predicate);
            assert_eq!(est, 0.0, "{predicate:?}");
            assert!(est.is_finite());
        }
        // An empty predicate over a populated column is 0.0 too (and the
        // zone map prunes the scan outright).
        let col = DictColumn::from_values("c", &values());
        assert_eq!(col.scan_selectivity_estimate(0..1000, &EncodedPredicate::Empty), 0.0);
        assert!(col.prunes(0..1000, &EncodedPredicate::Empty));
    }

    #[test]
    fn memory_accounting_sums_components() {
        let col = DictColumn::from_values("c", &values());
        assert_eq!(col.total_bytes(), col.iv_bytes() + col.dictionary_bytes());
        assert!(col.iv_bytes() > 0 && col.dictionary_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "no inverted index")]
    fn rebuilding_with_an_index_is_rejected() {
        DictColumn::from_values("c", &values()).rebuild_range("part", 0..10, true);
    }

    #[test]
    fn scan_byte_telemetry_tracks_the_bitcase() {
        let col = DictColumn::from_values("c", &values());
        assert_eq!(col.bitcase(), 8);
        assert_eq!(col.iv_scan_bytes(1000), 1000);
        assert_eq!(col.iv_scan_bytes(0), 0);
        // Rounds up to whole bytes for ranges not on a byte boundary.
        assert_eq!(col.iv_scan_bytes(3), 3);
        let wide = DictColumn::from_values("w", &(0..100_000i64).collect::<Vec<_>>());
        assert_eq!(wide.bitcase(), 17);
        assert_eq!(wide.iv_scan_bytes(8), 17);
    }

    #[test]
    fn string_columns_work_end_to_end() {
        let vals: Vec<String> = ["Carl", "Anna", "Emma", "Anna", "Evie", "Bree"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let col = DictColumn::from_values("names", &vals);
        assert_eq!(col.dictionary().len(), 5);
        assert_eq!(col.value_at(3), "Anna");
        let anna = Predicate::InList(vec!["Anna".to_string()]).encode(col.dictionary());
        assert_eq!(scan_positions(&col, 0..col.row_count(), &anna), [1, 3]);
    }

    #[test]
    fn relayout_preserves_values_and_zone_map() {
        let vals: Vec<i64> = (0..20_000i64).map(|i| i / 100).collect();
        let mut col = DictColumn::from_values("c", &vals);
        assert_eq!(col.layout(), IvLayoutKind::BitPacked);
        let bitpacked_bytes = col.iv_bytes();
        let zones = col.zones.clone();

        assert!(col.relayout(IvLayoutKind::Rle));
        assert_eq!(col.layout(), IvLayoutKind::Rle);
        assert!(!col.relayout(IvLayoutKind::Rle), "no-op relayout reports no change");
        assert!(col.iv_bytes() < bitpacked_bytes / 10, "sorted data must compress");
        assert_eq!(col.zones, zones);
        for i in [0usize, 99, 100, 19_999] {
            assert_eq!(col.value_at(i), &vals[i]);
        }

        assert!(col.relayout(IvLayoutKind::BitPacked));
        assert_eq!(col.iv_bytes(), bitpacked_bytes);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(col.value_at(i), v);
        }
    }

    #[test]
    fn rle_layout_answers_scans_identically() {
        let vals: Vec<i64> = (0..10_000i64).map(|i| i / 40).collect();
        let packed = DictColumn::from_values("c", &vals);
        let mut rle = packed.clone();
        rle.relayout(IvLayoutKind::Rle);
        for (lo, hi) in [(0i64, 249), (10, 19), (100, 100), (300, 200)] {
            let pred = Predicate::Between { lo, hi }.encode(packed.dictionary());
            assert_eq!(
                scan_positions(&rle, 0..rle.row_count(), &pred),
                scan_positions(&packed, 0..packed.row_count(), &pred),
                "[{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn zone_pruning_skips_row_ranges_the_predicate_cannot_match() {
        let vals: Vec<i64> = (0..16_384i64).collect(); // 4 zones, disjoint vid bands
        let col = DictColumn::from_values("c", &vals);
        let low = Predicate::Between { lo: 0i64, hi: 100 }.encode(col.dictionary());
        assert!(!col.prunes(0..4096, &low));
        assert!(col.prunes(4096..8192, &low), "zone 1 holds vids 4096.., cannot match");
        assert!(col.prunes(0..4096, &EncodedPredicate::Empty));
        // No rows -> nothing to prune, but nothing to scan either.
        assert!(!col.prunes(20_000..30_000, &low));
    }

    #[test]
    fn rebuild_range_matches_the_value_by_value_rebuild() {
        let vals: Vec<i64> = (0..4000i64).map(|i| (i * 13) % 100).collect();
        let col = DictColumn::from_values("col", &vals);
        let rebuilt = col.rebuild_range("part", 1000..2000, false);
        let reference = DictColumn::from_values("part", &vals[1000..2000]);
        assert_eq!(rebuilt, reference);
        // Clamps out-of-bounds ranges; empty ranges build empty columns.
        assert_eq!(col.rebuild_range("e", 4000..5000, false).row_count(), 0);
    }
}
