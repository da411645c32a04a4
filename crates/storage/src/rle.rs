//! Run-length-encoded index vectors and their run-level scan kernels.
//!
//! [`RleVec`] is the hybrid-layout alternative to [`BitPackedVec`]: instead of
//! one bit-packed code per row it stores one `(start_row, vid)` pair per *run*
//! of equal consecutive codes. For sorted or clustered low-cardinality data a
//! run covers thousands of rows, so a scan touches a few runs instead of
//! streaming every row's code from memory — and the predicate is evaluated
//! once per run, not once per row.
//!
//! The kernels honor the exact contracts of the SWAR kernels they substitute
//! for, so every consumer in [`crate::scan`] works unchanged on either layout:
//!
//! * [`RleVec::scan_masks`] tiles the clamped range with ascending windows of
//!   1..=64 rows (bits `>= n` zero) and emits nothing at all for an
//!   unsatisfiable predicate — for ranges and `IN` lists alike, testing
//!   membership once per run,
//! * [`RleVec::scan_masks_batch`] evaluates a whole predicate batch per
//!   window behind a union pre-filter and may skip windows entirely,
//! * predicate bounds are clamped to the bitcase's representable codes
//!   exactly as the bit-packed kernels clamp them.
//!
//! The property tests compare both layouts against the retained scalar oracle.

use std::ops::Range;

use crate::bitpack::{clamp_scan, low_mask, BitPackedVec};
use crate::predicate::{EncodedPredicate, VidRange};

/// A run-length-encoded vector of `u32` code words.
///
/// Invariants: `starts` and `vids` have equal length; `starts[0] == 0` when
/// non-empty; `starts` is strictly increasing; consecutive runs hold different
/// vids; every vid fits in `bits` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleVec {
    bits: u8,
    len: usize,
    /// First row of each run, ascending, starting at 0.
    starts: Vec<u32>,
    /// The code of each run.
    vids: Vec<u32>,
}

impl RleVec {
    /// Builds a run-length-encoded vector from plain code words, declaring the
    /// same `bits` bitcase the bit-packed layout would use (the bitcase still
    /// bounds the representable codes and clamps predicate ranges).
    ///
    /// # Panics
    /// Panics if any value does not fit in `bits` bits, or if more than
    /// `u32::MAX` rows are pushed.
    pub fn from_codes(bits: u8, codes: impl Iterator<Item = u32>) -> Self {
        assert!((1..=32).contains(&bits), "bitcase must be between 1 and 32, got {bits}");
        let mut starts = Vec::new();
        let mut vids: Vec<u32> = Vec::new();
        let mut len = 0usize;
        for value in codes {
            assert!(
                bits == 32 || u64::from(value) < (1u64 << bits),
                "value {value} does not fit in {bits} bits"
            );
            if vids.last() != Some(&value) {
                starts.push(u32::try_from(len).expect("RLE vectors are limited to u32 rows"));
                vids.push(value);
            }
            len += 1;
        }
        RleVec { bits, len, starts, vids }
    }

    /// Re-encodes a bit-packed vector run-length-encoded.
    pub fn from_bitpacked(iv: &BitPackedVec) -> Self {
        Self::from_codes(iv.bits(), iv.iter())
    }

    /// Decodes back into the bit-packed layout.
    pub fn to_bitpacked(&self) -> BitPackedVec {
        let mut iv = BitPackedVec::with_capacity(self.bits, self.len);
        for v in self.iter() {
            iv.push(v);
        }
        iv
    }

    /// Bits per element of the equivalent bit-packed layout (the bitcase).
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of elements stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.vids.len()
    }

    /// Memory footprint of the run table in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.starts.len() * 4 + self.vids.len() * 4
    }

    /// Bytes a scan over `rows` rows streams from memory, pro-rated from the
    /// run table (the layout-sensitive counterpart of the bit-packed
    /// `rows * bitcase / 8` telemetry).
    pub fn scan_bytes(&self, rows: usize) -> u64 {
        if self.len == 0 {
            return 0;
        }
        (rows as u64 * self.memory_bytes() as u64).div_ceil(self.len as u64)
    }

    /// Index of the run containing row `pos` (`pos < self.len`).
    #[inline]
    fn run_index(&self, pos: usize) -> usize {
        self.starts.partition_point(|&s| s as usize <= pos) - 1
    }

    /// One-past-the-last row of run `r`.
    #[inline]
    fn run_end(&self, r: usize) -> usize {
        self.starts.get(r + 1).map_or(self.len, |&s| s as usize)
    }

    /// The code at row `pos`; the caller guarantees `pos < self.len`.
    #[inline]
    pub(crate) fn decode_at(&self, pos: usize) -> u32 {
        self.vids[self.run_index(pos)]
    }

    /// Reads the element at `pos`.
    ///
    /// # Panics
    /// Panics if `pos` is out of bounds.
    #[inline]
    pub fn get(&self, pos: usize) -> u32 {
        assert!(pos < self.len, "position {pos} out of bounds (len {})", self.len);
        self.decode_at(pos)
    }

    /// Iterates over all stored values with a run cursor.
    pub fn iter(&self) -> RleIter<'_> {
        self.iter_range(0..self.len)
    }

    /// Iterates over the values of a sub-range (clamped to the vector length).
    pub fn iter_range(&self, positions: Range<usize>) -> RleIter<'_> {
        let end = positions.end.min(self.len);
        let start = positions.start.min(end);
        let remaining = end - start;
        let (run, run_left) = if remaining == 0 {
            (0, 0)
        } else {
            let run = self.run_index(start);
            (run, self.run_end(run) - start)
        };
        RleIter { starts: &self.starts, vids: &self.vids, len: self.len, run, run_left, remaining }
    }

    /// The run-level mask kernel, mask-stream compatible with
    /// [`BitPackedVec::scan_masks`]: ascending windows of 1..=64 rows tile the
    /// clamped range exactly, bits `>= n` are zero, and a predicate no code
    /// of the bitcase can satisfy emits nothing at all. Each window's mask is
    /// composed from the runs overlapping it — one membership test per run,
    /// not per row, whatever the predicate's shape.
    pub fn scan_masks<F: FnMut(usize, u32, u64)>(
        &self,
        positions: Range<usize>,
        predicate: &EncodedPredicate,
        sink: F,
    ) {
        match predicate {
            EncodedPredicate::Range(r) => self.scan_range_masks(positions, r.first, r.last, sink),
            EncodedPredicate::VidList(list) => {
                let Some(b) = predicate.lane_bounds(self.bits) else {
                    return;
                };
                if let Some((start, end, _)) =
                    clamp_scan(self.len, self.bits, positions, b.first, b.last)
                {
                    self.scan_runs(start, end, |vid| list.contains(vid), sink);
                }
            }
            EncodedPredicate::Empty => {}
        }
    }

    /// [`RleVec::scan_masks`] for the range predicate `[min, max]`.
    pub fn scan_range_masks<F: FnMut(usize, u32, u64)>(
        &self,
        positions: Range<usize>,
        min: u32,
        max: u32,
        sink: F,
    ) {
        if let Some((start, end, max)) = clamp_scan(self.len, self.bits, positions, min, max) {
            self.scan_runs(start, end, |vid| vid >= min && vid <= max, sink);
        }
    }

    /// The window loop of the run-level kernels over the clamped rows
    /// `start..end`: `hit` is the per-run membership test.
    #[inline(always)]
    fn scan_runs<F: FnMut(usize, u32, u64)>(
        &self,
        start: usize,
        end: usize,
        hit: impl Fn(u32) -> bool,
        mut sink: F,
    ) {
        let mut run = self.run_index(start);
        let mut base = start;
        while base < end {
            let window_end = (base + 64).min(end);
            let n = (window_end - base) as u32;
            let mut mask = 0u64;
            let mut r = run;
            loop {
                let lo = (self.starts[r] as usize).max(base);
                let hi = self.run_end(r).min(window_end);
                if hi > lo && hit(self.vids[r]) {
                    mask |= low_mask((hi - lo) as u32) << (lo - base);
                }
                if self.run_end(r) >= window_end {
                    break;
                }
                r += 1;
            }
            sink(base, n, mask);
            run = r;
            base = window_end;
        }
    }

    /// The batched run-level kernel, contract-compatible with
    /// [`BitPackedVec::scan_masks_batch`]: one pass serves the whole
    /// predicate batch, windows where no run's code falls in the union of the
    /// satisfiable predicates' bounds are skipped (so the emitted windows do
    /// **not** tile the range), unsatisfiable predicates contribute zero
    /// masks, and if no predicate is satisfiable nothing is emitted.
    pub fn scan_masks_batch<F: FnMut(usize, u32, &[u64])>(
        &self,
        positions: Range<usize>,
        predicates: &[&EncodedPredicate],
        mut sink: F,
    ) {
        let end = positions.end.min(self.len);
        let start = positions.start.min(end);
        if start == end {
            return;
        }
        let Some(union) = predicates
            .iter()
            .filter_map(|p| p.lane_bounds(self.bits))
            .reduce(|a, b| VidRange { first: a.first.min(b.first), last: a.last.max(b.last) })
        else {
            return;
        };
        let mut masks = vec![0u64; predicates.len()];
        let mut run = self.run_index(start);
        let mut base = start;
        while base < end {
            let window_end = (base + 64).min(end);
            let n = (window_end - base) as u32;
            let mut union_hit = false;
            masks.iter_mut().for_each(|m| *m = 0);
            let mut r = run;
            loop {
                let lo = (self.starts[r] as usize).max(base);
                let hi = self.run_end(r).min(window_end);
                let vid = self.vids[r];
                if hi > lo && union.contains(vid) {
                    union_hit = true;
                    let bits = low_mask((hi - lo) as u32) << (lo - base);
                    for (mask, predicate) in masks.iter_mut().zip(predicates) {
                        // Codes fit the bitcase, so an unsatisfiable
                        // predicate never matches one.
                        if predicate.matches(vid) {
                            *mask |= bits;
                        }
                    }
                }
                if self.run_end(r) >= window_end {
                    break;
                }
                r += 1;
            }
            if union_hit {
                sink(base, n, &masks);
            }
            run = r;
            base = window_end;
        }
    }

    /// Counts the elements of `positions` whose value lies in `[min, max]` by
    /// summing clipped run lengths — no per-row work at all. The twin of
    /// [`BitPackedVec::count_range`], timed against it by the release gates.
    pub fn count_range(&self, positions: Range<usize>, min: u32, max: u32) -> usize {
        let Some((start, end, max)) = clamp_scan(self.len, self.bits, positions, min, max) else {
            return 0;
        };
        let mut count = 0usize;
        let mut r = self.run_index(start);
        while r < self.vids.len() && (self.starts[r] as usize) < end {
            if self.vids[r] >= min && self.vids[r] <= max {
                count += self.run_end(r).min(end) - (self.starts[r] as usize).max(start);
            }
            r += 1;
        }
        count
    }
}

/// Run-cursor decoder over an [`RleVec`] (sub-)range.
#[derive(Debug, Clone)]
pub struct RleIter<'a> {
    starts: &'a [u32],
    vids: &'a [u32],
    len: usize,
    run: usize,
    /// Rows of the current run not yet yielded.
    run_left: usize,
    remaining: usize,
}

impl Iterator for RleIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        while self.run_left == 0 {
            self.run += 1;
            let end = self.starts.get(self.run + 1).map_or(self.len, |&s| s as usize);
            self.run_left = end - self.starts[self.run] as usize;
        }
        self.run_left -= 1;
        self.remaining -= 1;
        Some(self.vids[self.run])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RleIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clustered low-cardinality codes: long runs, the layout's sweet spot.
    fn sorted_codes(n: usize, distinct: u32) -> Vec<u32> {
        (0..n).map(|i| (i as u32 * distinct) / n as u32).collect()
    }

    /// Adversarial codes: expected run length 1.
    fn mixed_codes(bits: u8, n: usize) -> Vec<u32> {
        let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        (0..n as u32).map(|i| i.wrapping_mul(2654435761).rotate_left(7) & mask).collect()
    }

    #[test]
    fn roundtrips_through_both_layouts() {
        for codes in [sorted_codes(5000, 100), mixed_codes(8, 1000), Vec::new()] {
            let rle = RleVec::from_codes(8, codes.iter().copied());
            assert_eq!(rle.len(), codes.len());
            for (i, &v) in codes.iter().enumerate() {
                assert_eq!(rle.get(i), v, "position {i}");
            }
            let collected: Vec<u32> = rle.iter().collect();
            assert_eq!(collected, codes);
            let packed = rle.to_bitpacked();
            assert_eq!(RleVec::from_bitpacked(&packed), rle);
        }
    }

    #[test]
    fn sorted_data_compresses_and_random_data_does_not() {
        let sorted = RleVec::from_codes(8, sorted_codes(100_000, 100).into_iter());
        assert_eq!(sorted.run_count(), 100);
        assert!(sorted.memory_bytes() < 1000);
        let random = RleVec::from_codes(8, mixed_codes(8, 1000).into_iter());
        assert!(random.run_count() > 900, "random data should not form runs");
    }

    #[test]
    fn kernels_match_the_scalar_oracle_on_both_data_shapes() {
        for codes in [sorted_codes(4001, 97), mixed_codes(7, 1501)] {
            let packed = BitPackedVec::from_slice(7, &codes);
            let rle = RleVec::from_bitpacked(&packed);
            let cases =
                [(0u32, 127u32), (10, 19), (96, 96), (0, 0), (127, 127), (5, 4), (200, 300)];
            for (min, max) in cases {
                for range in [0..codes.len(), 13..codes.len() - 7, 63..65, 0..1, 700..700] {
                    let mut expected = Vec::new();
                    packed.scan_range_scalar(range.clone(), min, max, |p| expected.push(p));
                    assert_eq!(
                        rle.count_range(range.clone(), min, max),
                        expected.len(),
                        "count_range {range:?} [{min}, {max}]"
                    );
                    let mut from_masks = Vec::new();
                    rle.scan_range_masks(range.clone(), min, max, |base, n, mut m| {
                        assert!((1..=64).contains(&n));
                        assert_eq!(m & !low_mask(n), 0, "bits beyond n must be zero");
                        while m != 0 {
                            from_masks.push(base + m.trailing_zeros() as usize);
                            m &= m - 1;
                        }
                    });
                    assert_eq!(from_masks, expected, "masks {range:?} [{min}, {max}]");
                }
            }
        }
    }

    #[test]
    fn mask_stream_tiles_the_range_exactly() {
        let rle = RleVec::from_codes(9, sorted_codes(997, 300).into_iter());
        let (start, end) = (13usize, 911usize);
        let mut next = start;
        rle.scan_range_masks(start..end, 0, u32::MAX, |base, n, _| {
            assert_eq!(base, next, "runs must tile contiguously");
            next = base + n as usize;
        });
        assert_eq!(next, end, "runs must cover the whole range");
        // Unsatisfiable predicates emit nothing at all.
        let mut called = false;
        rle.scan_range_masks(start..end, 5, 4, |_, _, _| called = true);
        rle.scan_range_masks(start..end, 512, u32::MAX, |_, _, _| called = true);
        assert!(!called);
    }

    fn range(first: u32, last: u32) -> EncodedPredicate {
        EncodedPredicate::Range(VidRange { first, last })
    }

    #[test]
    fn batched_kernel_agrees_with_the_single_query_kernel() {
        let codes = sorted_codes(4000, 100);
        let rle = RleVec::from_codes(7, codes.iter().copied());
        let predicates = [
            range(0, 127),
            range(10, 12),
            range(99, 99),
            range(5, 4),
            range(200, 300),
            EncodedPredicate::from_vids([3, 4, 9, 40, 41, 98, 120]),
            EncodedPredicate::Empty,
        ];
        let refs: Vec<&EncodedPredicate> = predicates.iter().collect();
        for range in [0..codes.len(), 13..3993, 63..65, 0..1, 500..500] {
            let mut got = vec![Vec::new(); predicates.len()];
            rle.scan_masks_batch(range.clone(), &refs, |base, n, masks| {
                for (q, &m) in masks.iter().enumerate() {
                    assert_eq!(m & !low_mask(n), 0);
                    let mut mask = m;
                    while mask != 0 {
                        got[q].push(base + mask.trailing_zeros() as usize);
                        mask &= mask - 1;
                    }
                }
            });
            for (q, predicate) in predicates.iter().enumerate() {
                let mut expected = Vec::new();
                rle.scan_masks(range.clone(), predicate, |base, _, mut mask| {
                    while mask != 0 {
                        expected.push(base + mask.trailing_zeros() as usize);
                        mask &= mask - 1;
                    }
                });
                assert_eq!(got[q], expected, "range {range:?}, predicate {q}");
            }
        }
        // No satisfiable predicate: nothing is emitted.
        let mut called = false;
        let unsatisfiable = [range(5, 2), range(300, 400), EncodedPredicate::from_vids([200, 300])];
        let refs: Vec<&EncodedPredicate> = unsatisfiable.iter().collect();
        rle.scan_masks_batch(0..4000, &refs, |_, _, _| called = true);
        rle.scan_masks_batch(0..4000, &[], |_, _, _| called = true);
        assert!(!called);
    }

    #[test]
    fn batched_kernel_skips_windows_outside_the_union() {
        // 40 runs of 100 rows each; the union [10, 12] lives in 3 runs.
        let codes: Vec<u32> = (0..4000).map(|i| i / 100).collect();
        let rle = RleVec::from_codes(6, codes.iter().copied());
        let mut emitted = 0usize;
        let predicates = [range(11, 11), EncodedPredicate::from_vids([10, 12])];
        let refs: Vec<&EncodedPredicate> = predicates.iter().collect();
        rle.scan_masks_batch(0..4000, &refs, |_, _, _| emitted += 1);
        // 300 matching rows over 64-row windows: at most 6 emitted windows.
        assert!(emitted <= 6, "union pre-filter not engaged: {emitted} windows");
        assert!(emitted >= 5);
    }

    #[test]
    fn scan_bytes_reflects_the_run_table_not_the_row_count() {
        let rle = RleVec::from_codes(8, sorted_codes(100_000, 10).into_iter());
        // 10 runs -> 80 bytes for the full sweep, vs 100 KB bit-packed.
        assert!(rle.scan_bytes(100_000) <= 80);
        assert_eq!(RleVec::from_codes(8, std::iter::empty()).scan_bytes(50), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_codes_are_rejected() {
        let _ = RleVec::from_codes(4, [16u32].into_iter());
    }
}
