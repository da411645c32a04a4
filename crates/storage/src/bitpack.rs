//! Bit-compressed integer vectors and their word-parallel scan kernels.
//!
//! The index vector of a dictionary-encoded column stores one vid per row
//! using the least number of bits able to represent the largest vid — the
//! *bitcase* (Section 4.1). The paper's prototype scans such vectors with SSE
//! instructions, comparing many codes per instruction; this implementation
//! uses portable SWAR ("SIMD within a register") kernels with the same
//! structure:
//!
//! * the packed payload is read through unaligned 64-bit **windows** that
//!   always start on a code boundary, so every window holds `64 / bits`
//!   complete code lanes in the same layout — the predicate constants are
//!   replicated once per scan and live in registers (codes crossing a window
//!   edge are not straddles to stitch: the next window starts there),
//! * all lanes of a window are compared against the predicate simultaneously
//!   using the per-lane sentinel-bit subtraction trick (set the top bit of
//!   every lane of the minuend, clear it in the subtrahend: borrows then
//!   never cross a lane boundary, and the surviving top bit reports the
//!   per-lane comparison outcome),
//! * the result is a stream of **match masks** — one bit per row, compacted
//!   to the low bits of a `u64` — consumed by popcount (`count_range`, which
//!   popcounts the sentinel bits and skips compaction), word-wise ORs into a
//!   bit-vector, or `trailing_zeros` iteration for position lists.
//!
//! Every predicate shape yields that one mask stream
//! ([`BitPackedVec::scan_masks`]). A range is one lane test. An `IN` list,
//! compiled once into sorted vid runs ([`VidRuns`]), first takes the lane
//! test of its bounding range, which rejects windows without a candidate
//! lane as cheaply as a range scan rejects them. Surviving windows are
//! decided in registers, by run count and bitcase alone:
//!
//! * when the list has no more runs than the window has lanes, one lane test
//!   per run is ORed — an equality test (xor, then a carry into each lane's
//!   top bit detects a nonzero lane) for a single vid, the range test for a
//!   longer run,
//! * otherwise each lane's code is shifted out of the loaded window and
//!   probed against the list's bitmap (a binary search over the runs stands
//!   in when the list spans too many vids for a bitmap).
//!
//! No per-element decode happens anywhere on the hot path: rows are read
//! only as packed windows, whatever the predicate.
//!
//! The pre-rework scalar kernel is retained as [`BitPackedVec::scan_range_scalar`],
//! the reference oracle the property tests compare every SWAR path against.

use std::ops::Range;

use crate::predicate::{EncodedPredicate, VidRange, VidRuns};

/// Smallest number of bits able to represent `max_value` (at least 1).
pub fn bits_for_max_value(max_value: u64) -> u8 {
    if max_value == 0 {
        1
    } else {
        (64 - max_value.leading_zeros()) as u8
    }
}

/// Low `n` bits set, for `n <= 64`.
#[inline]
pub(crate) fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Branch-free unaligned 64-bit load starting at bit `bit` of the packed
/// payload. Requires `bit / 64 + 1 < words.len()` — guaranteed by the
/// padding-word invariant for any bit position inside the payload.
///
/// `<< 1 << (63 - offset)` is `<< (64 - offset)` without the undefined
/// 64-bit shift at offset 0 (where the high word must contribute 0).
#[inline(always)]
fn window_at(words: &[u64], bit: usize) -> u64 {
    let word = bit >> 6;
    let offset = (bit & 63) as u32;
    (words[word] >> offset) | ((words[word + 1] << 1) << (63 - offset))
}

/// Lane layout and replicated predicate constants of one windowed range scan.
///
/// The kernels process the packed payload through unaligned 64-bit *windows*
/// that always start on a code boundary, advancing `k * bits` bits per step
/// (`k = 64 / bits` lanes per window). Every window therefore has the same
/// lane layout — lane `i` occupies bits `[i * bits, (i + 1) * bits)` — so all
/// of these constants are loop-invariant scalars the compiler keeps in
/// registers; there is no per-word phase table and no straddling code to
/// stitch (the code crossing the window edge is simply where the next window
/// starts).
#[derive(Debug, Clone, Copy)]
struct WindowPlan {
    /// Lanes (codes) per window.
    k: u32,
    /// Bits the cursor advances per window: `k * bits`.
    advance: usize,
    /// Sentinel mask: the top bit of every lane.
    high: u64,
    /// `min`'s low `bits - 1` bits replicated into every lane.
    min_low: u64,
    /// `max`'s low `bits - 1` bits plus one, replicated into every lane.
    max_low_p1: u64,
    /// `min`'s lane top bit (dispatches the monomorphized kernels).
    min_high: bool,
    /// `max`'s lane top bit.
    max_high: bool,
    /// Stride-compaction masks per doubling step (padded with no-ops).
    fold_masks: [u64; 6],
    /// Number of meaningful entries in `fold_masks`.
    fold_steps: u32,
    /// Low `k` bits set — the valid bits of a compacted window mask.
    lane_select: u64,
}

impl WindowPlan {
    fn new(bits: u32, min: u32, max: u32) -> WindowPlan {
        let k = 64 / bits;
        let lane_low = low_mask(bits - 1);
        let mut high = 0u64;
        let mut min_low = 0u64;
        let mut max_low_p1 = 0u64;
        for lane in 0..k {
            let at = lane * bits;
            high |= 1u64 << (at + bits - 1);
            min_low |= (u64::from(min) & lane_low) << at;
            max_low_p1 |= ((u64::from(max) & lane_low) + 1) << at;
        }
        // Compaction masks: after the step that merges groups of `g` matched
        // bits into groups of `2g`, every super-lane of `2g * bits` bits must
        // keep exactly its low `2g` bits.
        let mut fold_masks = [u64::MAX; 6];
        let mut fold_steps = 0;
        let mut group = 1u32;
        while group < k {
            let merged = 2 * group;
            let block = low_mask(merged);
            let stride = merged * bits;
            let mut mask = 0u64;
            let mut at = 0u32;
            loop {
                mask |= block << at;
                if stride >= 64 - at {
                    break;
                }
                at += stride;
            }
            fold_masks[fold_steps as usize] = mask;
            fold_steps += 1;
            group = merged;
        }
        WindowPlan {
            k,
            advance: (k * bits) as usize,
            high,
            min_low,
            max_low_p1,
            min_high: (min >> (bits - 1)) & 1 == 1,
            max_high: (max >> (bits - 1)) & 1 == 1,
            fold_masks,
            fold_steps,
            lane_select: low_mask(k),
        }
    }

    /// Sentinel-bit evaluation of `min <= lane <= max` on every lane of a
    /// window: returns a word whose lane *top* bits report the matches.
    ///
    /// Forcing the lane top bit on in the minuend and keeping the subtrahend
    /// below `2^(bits-1)` means borrows never cross a lane boundary, and the
    /// surviving sentinel reports `low(lane) >= subtrahend`; `MINH`/`MAXH`
    /// (the lane top bits of `min` and `max`, fixed per scan) select how the
    /// lanes' own top bits combine with those low-bit comparisons.
    #[inline(always)]
    fn matches<const MINH: bool, const MAXH: bool>(&self, x: u64) -> u64 {
        let sentineled = x | self.high;
        let t = sentineled.wrapping_sub(self.min_low); // low(x) >= low(min)
        let u = sentineled.wrapping_sub(self.max_low_p1); // low(x) > low(max)
        let ge_min = if MINH { x & t } else { x | t };
        let le_max = if MAXH { !(x & u) } else { !(x | u) };
        ge_min & le_max & self.high
    }

    /// Compacts the sentinel bits (stride `bits`, starting at `bits - 1`) to
    /// the low `k` bits, one bit per lane, by doubling the gathered group
    /// each step.
    #[inline(always)]
    fn compact(&self, matched: u64, top_shift: u32) -> u64 {
        let mut mask = matched >> top_shift;
        let mut shift = top_shift;
        for &fold in &self.fold_masks[..self.fold_steps as usize] {
            mask |= mask >> shift;
            mask &= fold;
            shift *= 2;
        }
        mask & self.lane_select
    }
}

/// Replicated constants of *one* vid range tested against a window's lanes:
/// a range predicate, one run of an `IN` list, or a list's bounding range.
///
/// The batched kernel ([`BitPackedVec::scan_masks_batch`]) shares one window
/// layout (all predicates see the same bitcase) but carries these per
/// attached predicate, and an `IN` list carries them per run. The
/// lane-top-bit flags that the single-range kernel monomorphizes
/// (`MINH`/`MAXH`) are dynamic here — stored as all-ones or all-zero words so
/// the per-window evaluation stays branch-free — because monomorphizing every
/// flag combination of an arbitrary batch is impossible.
#[derive(Debug, Clone, Copy)]
struct BatchLane {
    /// `min`'s low `bits - 1` bits replicated into every lane.
    min_low: u64,
    /// `max`'s low `bits - 1` bits plus one, replicated into every lane.
    max_low_p1: u64,
    /// `u64::MAX` when `min`'s lane top bit is set, else 0.
    minh: u64,
    /// `u64::MAX` when `max`'s lane top bit is set, else 0.
    maxh: u64,
}

impl BatchLane {
    /// Lane constants for a clamped, satisfiable `[min, max]` predicate.
    fn replicate(bits: u32, min: u32, max: u32) -> BatchLane {
        let k = 64 / bits;
        let lane_low = low_mask(bits - 1);
        let mut min_low = 0u64;
        let mut max_low_p1 = 0u64;
        for lane in 0..k {
            let at = lane * bits;
            min_low |= (u64::from(min) & lane_low) << at;
            max_low_p1 |= ((u64::from(max) & lane_low) + 1) << at;
        }
        BatchLane {
            min_low,
            max_low_p1,
            minh: if (min >> (bits - 1)) & 1 == 1 { u64::MAX } else { 0 },
            maxh: if (max >> (bits - 1)) & 1 == 1 { u64::MAX } else { 0 },
        }
    }

    /// Branch-free dynamic-flag variant of [`WindowPlan::matches`]: the
    /// `minh`/`maxh` words select between the two combination forms with
    /// masks instead of const generics. Identical algebra otherwise; returns
    /// the sentinel-bit match word.
    #[inline(always)]
    fn matches(&self, x: u64, high: u64) -> u64 {
        let sentineled = x | high;
        let t = sentineled.wrapping_sub(self.min_low);
        let u = sentineled.wrapping_sub(self.max_low_p1);
        let ge_min = ((x & t) & self.minh) | ((x | t) & !self.minh);
        let le_max = !(((x & u) & self.maxh) | ((x | u) & !self.maxh));
        ge_min & le_max & high
    }
}

/// How one predicate decides the lanes of a window, compiled per scan call
/// from the encoded predicate and the bitcase alone.
struct PredicateLanes<'a> {
    /// The predicate's bounding vid range, clipped to the bitcase.
    bound: VidRange,
    /// Lane test of `bound`: the whole answer for a single run, the
    /// candidate filter for a list.
    lane: BatchLane,
    /// How candidate lanes of a list are decided.
    runs: RunTest<'a>,
}

/// Membership of the lanes that passed a list's bounding-range test.
enum RunTest<'a> {
    /// A range, or a list of one run: the bounding test is the answer.
    One,
    /// No more runs than the window has lanes: OR one lane test per run.
    Any(AnyRun),
    /// More runs than lanes: probe every lane's code against the bitmap.
    Bitmap(SpanBitmap<'a>),
    /// More runs than lanes over a span too wide for a bitmap: binary-search
    /// each candidate lane's code in the runs.
    Search(&'a VidRuns),
}

/// The lane tests of a list's runs, ORed per window: a single-vid run is an
/// equality test (five word operations), a longer run a range test
/// ([`BatchLane`]).
struct AnyRun {
    /// Each single-vid run's code replicated into every lane.
    points: Vec<u64>,
    /// Every other run's range test.
    spans: Vec<BatchLane>,
    /// The low `bits - 1` bits of every lane.
    low: u64,
}

impl AnyRun {
    /// Decides the `candidates` of window `x`; returns the compacted mask.
    #[inline(always)]
    fn hits(&self, candidates: u64, x: u64, plan: &WindowPlan, bits: u32) -> u64 {
        if candidates == 0 {
            return 0;
        }
        // A lane equals the point iff `y = x ^ point` is zero in it: adding
        // the low-bit mask to its low bits carries into the lane's top bit
        // exactly when they are nonzero, and never past the lane.
        let low = self.low;
        let mut hits = self.points.iter().fold(0, |hits, &point| {
            let y = x ^ point;
            hits | !(((y & low) + low) | y)
        });
        hits =
            self.spans.iter().fold(hits & plan.high, |hits, run| hits | run.matches(x, plan.high));
        plan.compact(hits, bits - 1)
    }
}

/// A list's membership bitmap, laid out for the lane probe.
#[derive(Clone, Copy)]
struct SpanBitmap<'a> {
    /// The vid bit 0 stands for.
    base: u32,
    /// The last bit index: inside the zero padding word every code outside
    /// the span is clamped onto.
    pad: u32,
    words: &'a [u64],
}

impl<'a> PredicateLanes<'a> {
    /// `None` when no code a `bits`-bit lane can hold qualifies.
    fn compile(bits: u8, predicate: &'a EncodedPredicate) -> Option<PredicateLanes<'a>> {
        let mut bound = predicate.lane_bounds(bits)?;
        // A list's runs holding a code the lane can store; the bound ends
        // with the last of them.
        let list = match predicate {
            EncodedPredicate::VidList(list) => {
                let runs = &list.runs()[..list.runs().partition_point(|r| r.first <= bound.last)];
                bound.last = bound.last.min(runs[runs.len() - 1].last);
                Some((list, runs))
            }
            _ => None,
        };
        let bits = u32::from(bits);
        let lane = |r: &VidRange| BatchLane::replicate(bits, r.first, r.last.min(bound.last));
        let runs = match list {
            Some((list, runs)) => match (runs.len(), list.span_bitmap()) {
                (1, _) => RunTest::One,
                (n, _) if n <= (64 / bits) as usize => {
                    let replicate =
                        |code: u64| (0..64 / bits).fold(0, |word, i| word | code << (i * bits));
                    let (points, spans): (Vec<&VidRange>, Vec<&VidRange>) =
                        runs.iter().partition(|r| r.first == r.last);
                    RunTest::Any(AnyRun {
                        points: points.iter().map(|r| replicate(r.first.into())).collect(),
                        spans: spans.into_iter().map(lane).collect(),
                        low: replicate(low_mask(bits - 1)),
                    })
                }
                (_, Some((base, words))) => {
                    let pad = (words.len() * 64 - 1) as u32;
                    RunTest::Bitmap(SpanBitmap { base, pad, words })
                }
                (_, None) => RunTest::Search(list),
            },
            None => RunTest::One,
        };
        Some(PredicateLanes { bound, lane: lane(&bound), runs })
    }

    /// The compacted match mask of one window `x`.
    #[inline(always)]
    fn matches(&self, x: u64, plan: &WindowPlan, bits: u32) -> u64 {
        let candidates = self.lane.matches(x, plan.high);
        match &self.runs {
            RunTest::One => plan.compact(candidates, bits - 1),
            RunTest::Any(runs) => runs.hits(candidates, x, plan, bits),
            RunTest::Bitmap(map) => map.hits(candidates, x, bits),
            RunTest::Search(list) => search_hits(list, candidates, x, bits),
        }
    }
}

/// Decides the `candidates` of window `x` by binary search over the runs of
/// `list`, one candidate lane at a time; returns the compacted mask.
#[inline(always)]
fn search_hits(list: &VidRuns, candidates: u64, x: u64, bits: u32) -> u64 {
    if candidates == 0 {
        return 0;
    }
    let lane = low_mask(bits);
    let (mut rest, mut top, mut hits) = (x, bits - 1, 0);
    for i in 0..64 / bits {
        if candidates >> top & 1 == 1 && list.contains((rest & lane) as u32) {
            hits |= 1 << i;
        }
        rest >>= bits;
        top += bits;
    }
    hits
}

impl SpanBitmap<'_> {
    /// Decides the `candidates` of window `x` by probing every lane's code
    /// against the bitmap — a fixed trip count without branches, since a
    /// code outside the span clamps onto the zero padding word; returns the
    /// compacted mask.
    #[inline(always)]
    fn hits(self, candidates: u64, x: u64, bits: u32) -> u64 {
        if candidates == 0 {
            return 0;
        }
        let (lane, lanes) = (low_mask(bits), low_mask(64 / bits));
        let (mut rest, mut bit, mut hits) = (x, 1u64, 0);
        while bit <= lanes {
            let offset = ((rest & lane) as u32).wrapping_sub(self.base).min(self.pad) as usize;
            hits |= (self.words[offset >> 6] >> (offset & 63) & 1).wrapping_neg() & bit;
            rest >>= bits;
            bit <<= 1;
        }
        hits
    }
}

/// One window `x` of the batched kernel: every range slot's compacted mask,
/// then every list slot's.
#[inline(always)]
fn evaluate_batch(
    x: u64,
    plan: &WindowPlan,
    bits: u32,
    ranges: &[(usize, BatchLane)],
    lists: &[(usize, PredicateLanes<'_>)],
    masks: &mut [u64],
) {
    for &(slot, lane) in ranges {
        masks[slot] = plan.compact(lane.matches(x, plan.high), bits - 1);
    }
    for (slot, lanes) in lists {
        masks[*slot] = lanes.matches(x, plan, bits);
    }
}

/// Clamps a scan request to `len` rows and to the codes a `bits`-bit lane
/// can hold — both layouts' range kernels share it.
///
/// Returns `None` when nothing can match — an empty (or inverted) row range,
/// an inverted predicate, or `min` beyond the largest code the bitcase can
/// store; every kernel short-circuits on it identically.
pub(crate) fn clamp_scan(
    len: usize,
    bits: u8,
    positions: Range<usize>,
    min: u32,
    max: u32,
) -> Option<(usize, usize, u32)> {
    let end = positions.end.min(len);
    let start = positions.start.min(end);
    if start == end || min > max {
        return None;
    }
    let lane_max = low_mask(u32::from(bits)) as u32;
    if min > lane_max {
        return None;
    }
    Some((start, end, max.min(lane_max)))
}

/// A densely bit-packed vector of `u32` code words.
///
/// Invariant: `words` always holds one zeroed word beyond the packed payload
/// (when non-empty), so every decode can read two consecutive words
/// unconditionally — the straddle handling of `get`, the word cursor and the
/// scan kernels are branch-free because of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPackedVec {
    bits: u8,
    len: usize,
    words: Vec<u64>,
}

/// Words needed to store `len` elements of `bits` bits each, including the
/// trailing padding word.
fn required_words(bits: usize, len: usize) -> usize {
    if len == 0 {
        0
    } else {
        (len * bits).div_ceil(64) + 1
    }
}

impl BitPackedVec {
    /// Creates an empty vector storing `bits` bits per element (1..=32).
    pub fn new(bits: u8) -> Self {
        assert!((1..=32).contains(&bits), "bitcase must be between 1 and 32, got {bits}");
        BitPackedVec { bits, len: 0, words: Vec::new() }
    }

    /// Creates an empty vector with space reserved for `capacity` elements.
    pub fn with_capacity(bits: u8, capacity: usize) -> Self {
        let mut v = Self::new(bits);
        v.words.reserve(required_words(bits as usize, capacity));
        v
    }

    /// Builds a packed vector from plain code words.
    ///
    /// # Panics
    /// Panics if any value does not fit in `bits` bits.
    pub fn from_slice(bits: u8, values: &[u32]) -> Self {
        let mut v = Self::with_capacity(bits, values.len());
        for &value in values {
            v.push(value);
        }
        v
    }

    /// Bits per element.
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

    /// Size of the packed payload in bytes (including the padding word).
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Mask of the low `bits` bits.
    #[inline]
    fn lane_mask(&self) -> u64 {
        low_mask(self.bits as u32)
    }

    /// Appends a value.
    ///
    /// # Panics
    /// Panics if the value does not fit in the configured number of bits.
    pub fn push(&mut self, value: u32) {
        assert!(
            self.bits == 32 || u64::from(value) < (1u64 << self.bits),
            "value {value} does not fit in {} bits",
            self.bits
        );
        let bits = self.bits as usize;
        let need = required_words(bits, self.len + 1);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
        let bit_pos = self.len * bits;
        let word = bit_pos / 64;
        let offset = bit_pos % 64;
        self.words[word] |= (value as u64) << offset;
        if offset + bits > 64 {
            // The value straddles a word boundary.
            self.words[word + 1] |= (value as u64) >> (64 - offset);
        }
        self.len += 1;
    }

    /// Branch-free two-word decode; the caller guarantees `pos < self.len`
    /// (the padding-word invariant makes `word + 1` always readable).
    #[inline]
    pub(crate) fn decode_at(&self, pos: usize) -> u32 {
        (window_at(&self.words, pos * self.bits as usize) & self.lane_mask()) as u32
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

    /// Iterates over all stored values with a word-cursor decoder: each packed
    /// word is loaded once and codes are peeled off by shifting, instead of
    /// recomputing a word/offset address per element.
    pub fn iter(&self) -> BitPackedIter<'_> {
        self.iter_range(0..self.len)
    }

    /// Iterates over the values of a sub-range (clamped to the vector length)
    /// with the same word-cursor decoder as [`BitPackedVec::iter`].
    pub fn iter_range(&self, positions: Range<usize>) -> BitPackedIter<'_> {
        let end = positions.end.min(self.len);
        let start = positions.start.min(end);
        let bits = u32::from(self.bits);
        let mut it = BitPackedIter {
            words: &self.words,
            buf: 0,
            avail: 0,
            next_word: 0,
            bits,
            mask: self.lane_mask(),
            remaining: end - start,
        };
        if it.remaining > 0 {
            let bit_pos = start * bits as usize;
            let word = bit_pos / 64;
            let offset = (bit_pos % 64) as u32;
            it.buf = self.words[word] >> offset;
            it.avail = 64 - offset;
            it.next_word = word + 1;
        }
        it
    }

    /// The word-parallel (SWAR) mask kernel for any encoded predicate. For
    /// every run of up to `64 / bits` consecutive rows of `positions` it
    /// calls `sink(base, n, mask)`: bit `i` of `mask` (for `i < n`) is set iff
    /// row `base + i` holds a qualifying code. Bases are emitted in ascending
    /// order, runs tile the clamped range exactly, and bits `>= n` are zero —
    /// except that a predicate no code of the bitcase can satisfy (`Empty`,
    /// an inverted range, or every vid beyond the bitcase) short-circuits and
    /// emits no runs at all; consumers must not infer row coverage from the
    /// run stream in that case.
    ///
    /// Ranges, and lists of one run, take [`BitPackedVec::scan_range_masks`].
    /// Other `IN` lists take the lane test of their bounding range first:
    /// windows without a candidate lane cost exactly what a range scan costs.
    /// Candidate lanes are decided in registers — one lane test per run ORed
    /// together when the list has no more runs than the window has lanes,
    /// else a probe of each candidate lane's code against the list.
    pub fn scan_masks<F: FnMut(usize, u32, u64)>(
        &self,
        positions: Range<usize>,
        predicate: &EncodedPredicate,
        sink: F,
    ) {
        match predicate {
            EncodedPredicate::Range(r) => self.scan_range_masks(positions, r.first, r.last, sink),
            _ => self.scan_list_masks(positions, predicate, sink),
        }
    }

    /// The list half of [`BitPackedVec::scan_masks`]. Kept out of line: its
    /// window loops (one per bound shape and run test) would otherwise be
    /// inlined, sink and all, into every range scan's caller.
    #[inline(never)]
    fn scan_list_masks<F: FnMut(usize, u32, u64)>(
        &self,
        positions: Range<usize>,
        predicate: &EncodedPredicate,
        sink: F,
    ) {
        if let Some(lanes) = PredicateLanes::compile(self.bits, predicate) {
            self.scan_bounded(positions, lanes.bound, &lanes.runs, sink);
        }
    }

    /// The range kernel behind [`BitPackedVec::scan_masks`], with the same
    /// mask-stream contract for the predicate `[min, max]` (nothing is
    /// emitted when `min > max` or `min` is beyond the bitcase's largest
    /// code).
    ///
    /// Each unaligned 64-bit window starts on a code boundary, so every lane
    /// it fully contains is compared simultaneously via per-lane sentinel-bit
    /// subtraction with loop-invariant constants; codes crossing the window
    /// edge are simply where the next window begins. See the module docs for
    /// the algebra.
    #[inline]
    pub fn scan_range_masks<F: FnMut(usize, u32, u64)>(
        &self,
        positions: Range<usize>,
        min: u32,
        max: u32,
        sink: F,
    ) {
        self.scan_bounded(positions, VidRange { first: min, last: max }, &RunTest::One, sink);
    }

    /// The mask kernels' entry: the lane test of `bound` is monomorphized on
    /// the bound's lane top bits and its candidates decided by `runs`.
    #[inline(always)]
    fn scan_bounded<F: FnMut(usize, u32, u64)>(
        &self,
        positions: Range<usize>,
        bound: VidRange,
        runs: &RunTest<'_>,
        mut sink: F,
    ) {
        let (min, max) = (bound.first, bound.last);
        let Some((start, end, max)) = clamp_scan(self.len, self.bits, positions, min, max) else {
            return;
        };
        let plan = WindowPlan::new(u32::from(self.bits), min, max);
        let p = &plan;
        let s = &mut sink;
        match (plan.min_high, plan.max_high) {
            (false, false) => {
                self.scan_decided(p, start, end, |x| p.matches::<false, false>(x), runs, s)
            }
            (false, true) => {
                self.scan_decided(p, start, end, |x| p.matches::<false, true>(x), runs, s)
            }
            (true, false) => {
                self.scan_decided(p, start, end, |x| p.matches::<true, false>(x), runs, s)
            }
            (true, true) => {
                self.scan_decided(p, start, end, |x| p.matches::<true, true>(x), runs, s)
            }
        }
    }

    /// Runs the window loop with `candidates` (the bounding lane test)
    /// decided by `runs`, the decision hoisted out of the loop.
    #[inline(always)]
    fn scan_decided<C: Fn(u64) -> u64, F: FnMut(usize, u32, u64)>(
        &self,
        plan: &WindowPlan,
        start: usize,
        end: usize,
        candidates: C,
        runs: &RunTest<'_>,
        sink: &mut F,
    ) {
        let bits = u32::from(self.bits);
        match runs {
            RunTest::One => self.scan_windows(
                plan,
                start,
                end,
                #[inline(always)]
                |x| plan.compact(candidates(x), bits - 1),
                sink,
            ),
            RunTest::Any(runs) => self.scan_windows(
                plan,
                start,
                end,
                #[inline(always)]
                |x| runs.hits(candidates(x), x, plan, bits),
                sink,
            ),
            // Copied out of `runs`, so the window loop keeps them in
            // registers.
            &RunTest::Bitmap(map) => self.scan_windows(
                plan,
                start,
                end,
                #[inline(always)]
                move |x| map.hits(candidates(x), x, bits),
                sink,
            ),
            RunTest::Search(list) => self.scan_windows(
                plan,
                start,
                end,
                #[inline(always)]
                |x| search_hits(list, candidates(x), x, bits),
                sink,
            ),
        }
    }

    /// The window loop of the mask kernels: `mask` turns one loaded window
    /// into its compacted match mask.
    #[inline(always)]
    fn scan_windows<M: Fn(u64) -> u64, F: FnMut(usize, u32, u64)>(
        &self,
        plan: &WindowPlan,
        start: usize,
        end: usize,
        mask: M,
        sink: &mut F,
    ) {
        let k = plan.k as usize;
        let bits_us = usize::from(self.bits);
        let words = &self.words[..];

        // Full windows: `k` codes per unaligned 64-bit load, every window
        // starting exactly on a code boundary (the padding word keeps the
        // two-word load branch-free).
        let mut row = start;
        let mut bit = start * bits_us;
        while row + k <= end {
            sink(row, plan.k, mask(window_at(words, bit)));
            row += k;
            bit += plan.advance;
        }

        // Tail window: fewer than `k` rows remain; lanes past the tail are
        // masked off (they hold the next rows of the vector, or zeros).
        if row < end {
            let n = (end - row) as u32;
            sink(row, n, mask(window_at(words, bit)) & low_mask(n));
        }
    }

    /// The cooperative (batched) mask kernel: evaluates a whole *batch* of
    /// encoded predicates against each unaligned 64-bit window, reading
    /// every window from memory exactly once regardless of how many queries
    /// are attached to the sweep.
    ///
    /// For a window of rows starting at `base` the sink receives
    /// `(base, n, masks)` where `masks[q]` is the compacted match mask of
    /// `predicates[q]` — bit `i < n` set iff row `base + i` qualifies. Unlike
    /// [`BitPackedVec::scan_masks`], the emitted windows do **not** tile the
    /// range: a union pre-filter (the bounding range over every satisfiable
    /// predicate) is evaluated first and windows in which no lane falls in
    /// the union are skipped without touching the per-query constants — this
    /// is what keeps the per-window cost near-flat in the batch size for the
    /// clustered, selective predicates shared sweeps serve. Each predicate is
    /// a set of vid runs (a range is one run) decided exactly as the
    /// single-query kernel decides it, so `IN` lists ride the same pass. An
    /// emitted window may still have all-zero masks (the union
    /// over-approximates any single predicate, and a tail window's union hit
    /// may sit past the tail). Unsatisfiable predicates simply contribute
    /// zero masks; if no predicate is satisfiable nothing is emitted.
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
        // Ranges (and one-run lists) keep the tight branch-free lane loop;
        // other lists are decided in a loop of their own. Slots of
        // unsatisfiable predicates are never written and stay zero.
        let mut ranges: Vec<(usize, BatchLane)> = Vec::new();
        let mut lists: Vec<(usize, PredicateLanes<'_>)> = Vec::new();
        let mut union: Option<VidRange> = None;
        for (slot, predicate) in predicates.iter().enumerate() {
            let Some(lanes) = PredicateLanes::compile(self.bits, predicate) else {
                continue;
            };
            let b = lanes.bound;
            union =
                Some(union.map_or(b, |u| VidRange {
                    first: u.first.min(b.first),
                    last: u.last.max(b.last),
                }));
            match lanes.runs {
                RunTest::One => ranges.push((slot, lanes.lane)),
                _ => lists.push((slot, lanes)),
            }
        }
        let Some(union) = union else {
            return;
        };
        // The union plan provides the shared layout (lane geometry and
        // compaction schedule) on top of the pre-filter constants.
        let bits = u32::from(self.bits);
        let plan = WindowPlan::new(bits, union.first, union.last);
        let union_lane = BatchLane::replicate(bits, union.first, union.last);
        let k = plan.k as usize;
        let words = &self.words[..];
        let mut masks = vec![0u64; predicates.len()];
        let mut row = start;
        let mut bit = start * bits as usize;
        while row + k <= end {
            let x = window_at(words, bit);
            if union_lane.matches(x, plan.high) != 0 {
                evaluate_batch(x, &plan, bits, &ranges, &lists, &mut masks);
                sink(row, plan.k, &masks);
            }
            row += k;
            bit += plan.advance;
        }
        if row < end {
            let x = window_at(words, bit);
            if union_lane.matches(x, plan.high) != 0 {
                let n = (end - row) as u32;
                evaluate_batch(x, &plan, bits, &ranges, &lists, &mut masks);
                masks.iter_mut().for_each(|mask| *mask &= low_mask(n));
                sink(row, n, &masks);
            }
        }
    }

    /// The pre-SWAR scalar kernel, kept verbatim as the reference oracle for
    /// the property tests and as the baseline of the perf smoke test: one
    /// bounds assert, one div/mod address computation, a data-dependent
    /// straddle branch and a comparison per element — exactly the per-element
    /// cost profile the word-parallel kernel removes.
    pub fn scan_range_scalar<F: FnMut(usize)>(
        &self,
        positions: Range<usize>,
        min: u32,
        max: u32,
        mut on_match: F,
    ) {
        let end = positions.end.min(self.len);
        let start = positions.start.min(end);
        if min > max {
            return;
        }
        let bits = self.bits as usize;
        let mask = self.lane_mask();
        for pos in start..end {
            assert!(pos < self.len, "position {pos} out of bounds (len {})", self.len);
            let bit_pos = pos * bits;
            let word = bit_pos / 64;
            let offset = bit_pos % 64;
            let mut v = self.words[word] >> offset;
            if offset + bits > 64 {
                v |= self.words[word + 1] << (64 - offset);
            }
            let v = (v & mask) as u32;
            if v >= min && v <= max {
                on_match(pos);
            }
        }
    }

    /// Counts the elements of `positions` whose value lies in `[min, max]`.
    ///
    /// Dedicated lean consumer of the window kernel: the per-window match
    /// count is the popcount of the *sentinel* mask directly — the counting
    /// path skips the stride-compaction step entirely, which makes it
    /// 1.3-1.7x faster than popcounting [`BitPackedVec::scan_range_masks`]
    /// (bitcases 26 down to 8, 4M rows, a 2.1 GHz Xeon). No statement counts
    /// through it yet (a count is still materialized rows); the release gates
    /// time it against the scalar oracle.
    pub fn count_range(&self, positions: Range<usize>, min: u32, max: u32) -> usize {
        let Some((start, end, max)) = clamp_scan(self.len, self.bits, positions, min, max) else {
            return 0;
        };
        let plan = WindowPlan::new(u32::from(self.bits), min, max);
        match (plan.min_high, plan.max_high) {
            (false, false) => self.count_windows::<false, false>(&plan, start, end, min, max),
            (false, true) => self.count_windows::<false, true>(&plan, start, end, min, max),
            (true, false) => self.count_windows::<true, false>(&plan, start, end, min, max),
            (true, true) => self.count_windows::<true, true>(&plan, start, end, min, max),
        }
    }

    /// The monomorphized window loop of [`BitPackedVec::count_range`],
    /// unrolled two windows deep to amortize the loop control and give the
    /// out-of-order core two independent popcount chains.
    #[inline(always)]
    fn count_windows<const MINH: bool, const MAXH: bool>(
        &self,
        plan: &WindowPlan,
        start: usize,
        end: usize,
        min: u32,
        max: u32,
    ) -> usize {
        let k = plan.k as usize;
        let bits_us = self.bits as usize;
        let words = &self.words[..];
        let span = max - min;

        let mut count = 0usize;
        let mut row = start;
        let mut bit = start * bits_us;
        while row + 2 * k <= end {
            let x0 = window_at(words, bit);
            let x1 = window_at(words, bit + plan.advance);
            count += (plan.matches::<MINH, MAXH>(x0).count_ones()
                + plan.matches::<MINH, MAXH>(x1).count_ones()) as usize;
            row += 2 * k;
            bit += 2 * plan.advance;
        }
        if row + k <= end {
            let x = window_at(words, bit);
            count += plan.matches::<MINH, MAXH>(x).count_ones() as usize;
            row += k;
        }
        // Tail rows, one branch-free decode each (fewer than `k` of them).
        while row < end {
            count += usize::from(self.decode_at(row).wrapping_sub(min) <= span);
            row += 1;
        }
        count
    }
}

/// Word-cursor decoder over a [`BitPackedVec`] (sub-)range: loads each packed
/// word once and shifts codes out of a register instead of recomputing a
/// word/offset address per element.
#[derive(Debug, Clone)]
pub struct BitPackedIter<'a> {
    words: &'a [u64],
    /// Unconsumed bits of the current word, shifted down to bit 0.
    buf: u64,
    /// Number of valid bits in `buf`.
    avail: u32,
    next_word: usize,
    bits: u32,
    mask: u64,
    remaining: usize,
}

impl Iterator for BitPackedIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let v = if self.avail >= self.bits {
            let v = self.buf & self.mask;
            self.buf >>= self.bits;
            self.avail -= self.bits;
            v
        } else {
            let w = self.words[self.next_word];
            self.next_word += 1;
            let v = (self.buf | (w << self.avail)) & self.mask;
            let consumed = self.bits - self.avail;
            self.buf = w >> consumed;
            self.avail = 64 - consumed;
            v
        };
        Some(v as u32)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for BitPackedIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_max_value_covers_edge_cases() {
        assert_eq!(bits_for_max_value(0), 1);
        assert_eq!(bits_for_max_value(1), 1);
        assert_eq!(bits_for_max_value(2), 2);
        assert_eq!(bits_for_max_value(255), 8);
        assert_eq!(bits_for_max_value(256), 9);
        assert_eq!(bits_for_max_value(u32::MAX as u64), 32);
    }

    #[test]
    fn push_get_roundtrip_for_various_bitcases() {
        for bits in [1u8, 3, 7, 8, 17, 21, 26, 31, 32] {
            let max = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
            let values: Vec<u32> = (0..1000u32)
                .map(|i| (i.wrapping_mul(2654435761)) % (max.saturating_add(1).max(1)))
                .collect();
            let packed = BitPackedVec::from_slice(bits, &values);
            assert_eq!(packed.len(), values.len());
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(packed.get(i), v, "bitcase {bits}, position {i}");
            }
        }
    }

    #[test]
    fn max_values_straddling_word_boundaries_roundtrip() {
        // Regression test for the straddle path of `push`/`get`: with a
        // 32-bit bitcase every odd element shares no word boundary, but any
        // bitcase not dividing 64 produces elements whose bits straddle two
        // words. All-ones values make a dropped or duplicated carry bit
        // visible immediately.
        for bits in [31u8, 32] {
            let max = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
            let values = vec![max; 129];
            let packed = BitPackedVec::from_slice(bits, &values);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(packed.get(i), v, "bitcase {bits}, position {i}");
            }
            // The scan kernel must see the same straddled values.
            assert_eq!(packed.count_range(0..values.len(), max, max), values.len());
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_rejects_oversized_values() {
        let mut v = BitPackedVec::new(4);
        v.push(16);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_rejects_out_of_bounds() {
        let v = BitPackedVec::from_slice(8, &[1, 2, 3]);
        v.get(3);
    }

    #[test]
    fn range_masks_find_exactly_the_matches() {
        let values: Vec<u32> = (0..10_000).map(|i| i % 100).collect();
        let packed = BitPackedVec::from_slice(7, &values);
        let matches = mask_positions(&packed, 0..values.len(), &range(10, 19));
        let expected: Vec<usize> = values
            .iter()
            .enumerate()
            .filter(|(_, &v)| (10..=19).contains(&v))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(matches, expected);
    }

    #[test]
    fn scan_range_respects_position_bounds() {
        let values: Vec<u32> = (0..100).collect();
        let packed = BitPackedVec::from_slice(7, &values);
        assert_eq!(packed.count_range(10..20, 0, 127), 10);
        assert_eq!(packed.count_range(0..0, 0, 127), 0);
        // An end past the length is clamped.
        assert_eq!(packed.count_range(90..200, 0, 127), 10);
    }

    #[test]
    fn scan_with_inverted_range_matches_nothing() {
        let packed = BitPackedVec::from_slice(8, &[1, 2, 3, 4]);
        assert_eq!(packed.count_range(0..4, 3, 2), 0);
    }

    #[test]
    fn memory_is_roughly_bits_per_row() {
        let rows = 100_000usize;
        let values: Vec<u32> = vec![1; rows];
        let packed = BitPackedVec::from_slice(17, &values);
        let expected_bytes = rows * 17 / 8;
        assert!(packed.memory_bytes() >= expected_bytes);
        assert!(packed.memory_bytes() < expected_bytes + expected_bytes / 10 + 64);
    }

    #[test]
    fn iter_matches_get() {
        let values: Vec<u32> = (0..257).collect();
        let packed = BitPackedVec::from_slice(9, &values);
        let collected: Vec<u32> = packed.iter().collect();
        assert_eq!(collected, values);
    }

    /// Deterministic pseudo-random values that exercise every bit of the lane.
    fn mixed_values(bits: u8, n: usize) -> Vec<u32> {
        let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        (0..n as u32).map(|i| i.wrapping_mul(2654435761).rotate_left(7) & mask).collect()
    }

    fn scalar_matches(
        packed: &BitPackedVec,
        range: Range<usize>,
        min: u32,
        max: u32,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        packed.scan_range_scalar(range, min, max, |p| out.push(p));
        out
    }

    #[test]
    fn swar_kernel_matches_scalar_oracle_for_every_bitcase() {
        for bits in 1..=32u8 {
            let lane_max = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
            let values = mixed_values(bits, 1500);
            let packed = BitPackedVec::from_slice(bits, &values);
            let quarter = lane_max / 4;
            let cases = [
                (0u32, lane_max),                 // everything
                (0, 0),                           // only zero
                (lane_max, lane_max),             // only the top code
                (quarter, lane_max - quarter),    // middle band
                (quarter.max(1), quarter.max(1)), // point predicate
                (lane_max / 2, lane_max / 2 + 1), // sentinel boundary
                (1, 0),                           // inverted: empty
                (lane_max, 0),                    // inverted: empty
            ];
            for (min, max) in cases {
                for range in [0..values.len(), 3..values.len() - 7, 63..65, 0..1, 700..700, 64..128]
                {
                    let expected = scalar_matches(&packed, range.clone(), min, max);
                    let predicate = EncodedPredicate::Range(VidRange { first: min, last: max });
                    let got = mask_positions(&packed, range.clone(), &predicate);
                    assert_eq!(got, expected, "bitcase {bits}, range {range:?}, [{min}, {max}]");
                    assert_eq!(
                        packed.count_range(range.clone(), min, max),
                        expected.len(),
                        "count: bitcase {bits}, range {range:?}, [{min}, {max}]"
                    );
                }
            }
        }
    }

    #[test]
    fn mask_stream_tiles_the_range_exactly() {
        for bits in [5u8, 8, 12, 17, 26, 32] {
            let values = mixed_values(bits, 997);
            let packed = BitPackedVec::from_slice(bits, &values);
            let (start, end) = (13usize, 911usize);
            let mut next = start;
            packed.scan_range_masks(start..end, 0, u32::MAX, |base, n, mask| {
                assert_eq!(base, next, "bitcase {bits}: runs must tile contiguously");
                assert!((1..=64).contains(&n));
                assert_eq!(mask & !low_mask(n), 0, "bits beyond n must be zero");
                next = base + n as usize;
            });
            assert_eq!(next, end, "bitcase {bits}: runs must cover the whole range");
        }
    }

    #[test]
    fn predicate_bounds_beyond_the_bitcase_are_clamped() {
        let values: Vec<u32> = (0..200).map(|i| i % 32).collect();
        let packed = BitPackedVec::from_slice(5, &values);
        // max above the representable range clamps; min above it matches nothing.
        assert_eq!(packed.count_range(0..200, 0, u32::MAX), 200);
        assert_eq!(packed.count_range(0..200, 40, u32::MAX), 0);
        assert_eq!(
            packed.count_range(0..200, 31, 1000),
            values.iter().filter(|v| **v == 31).count()
        );
    }

    #[test]
    fn iter_range_agrees_with_get_on_unaligned_ranges() {
        for bits in [3u8, 11, 17, 31] {
            let values = mixed_values(bits, 301);
            let packed = BitPackedVec::from_slice(bits, &values);
            for range in [0..301usize, 17..290, 63..65, 5..5, 300..301, 100..5000] {
                let got: Vec<u32> = packed.iter_range(range.clone()).collect();
                let end = range.end.min(values.len());
                let start = range.start.min(end);
                assert_eq!(got, &values[start..end], "bitcase {bits}, range {range:?}");
            }
        }
    }

    fn range(first: u32, last: u32) -> EncodedPredicate {
        EncodedPredicate::Range(VidRange { first, last })
    }

    /// Positions the single-query mask kernel selects.
    fn mask_positions(
        packed: &BitPackedVec,
        range: Range<usize>,
        predicate: &EncodedPredicate,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        packed.scan_masks(range, predicate, |base, n, mut mask| {
            assert_eq!(mask & !low_mask(n), 0, "bits beyond n must be zero");
            while mask != 0 {
                out.push(base + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
        });
        out
    }

    /// Demultiplexes the batched kernel's mask stream into per-query
    /// position lists.
    fn batch_positions(
        packed: &BitPackedVec,
        range: Range<usize>,
        predicates: &[EncodedPredicate],
    ) -> Vec<Vec<usize>> {
        let refs: Vec<&EncodedPredicate> = predicates.iter().collect();
        let mut out = vec![Vec::new(); predicates.len()];
        packed.scan_masks_batch(range, &refs, |base, n, masks| {
            assert!((1..=64).contains(&n));
            for (q, &m) in masks.iter().enumerate() {
                assert_eq!(m & !low_mask(n), 0, "bits beyond n must be zero");
                let mut mask = m;
                while mask != 0 {
                    out[q].push(base + mask.trailing_zeros() as usize);
                    mask &= mask - 1;
                }
            }
        });
        out
    }

    /// `IN` lists of every kernel shape for a bitcase: one run, a few runs
    /// (OR side), more runs than lanes in a narrow span (bitmap probe) and in
    /// a span too wide for a bitmap, and runs ending at the top code.
    fn list_predicates(bits: u8) -> Vec<EncodedPredicate> {
        let lane_max = low_mask(u32::from(bits)) as u32;
        let k = 64 / u32::from(bits);
        let spread = |n: u32, step: u32| {
            EncodedPredicate::VidList(VidRuns::from_vids(
                (0..n).map(|i| i.wrapping_mul(step) & lane_max),
            ))
        };
        vec![
            spread(1, 1),
            spread(2, 3),
            spread(k, 2),
            spread(k + 1, 2),
            spread(3 * k + 2, 5),
            spread(k + 2, lane_max / (k + 2) + 1),
            EncodedPredicate::VidList(VidRuns::from_vids([
                lane_max / 3,
                lane_max.saturating_sub(2),
                lane_max - 1,
                lane_max,
            ])),
        ]
    }

    #[test]
    fn list_kernel_matches_a_scalar_filter_for_every_bitcase() {
        for bits in 1..=32u8 {
            let values = mixed_values(bits, 1500);
            let packed = BitPackedVec::from_slice(bits, &values);
            for predicate in list_predicates(bits) {
                for range in [0..values.len(), 3..values.len() - 7, 63..65, 0..1, 700..700] {
                    let expected: Vec<usize> =
                        range.clone().filter(|&p| predicate.matches(values[p])).collect();
                    assert_eq!(
                        mask_positions(&packed, range.clone(), &predicate),
                        expected,
                        "bitcase {bits}, range {range:?}, {predicate:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_kernel_agrees_with_the_single_query_kernel_per_bitcase() {
        for bits in [1u8, 3, 7, 8, 12, 17, 26, 31, 32] {
            let lane_max = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
            let values = mixed_values(bits, 1201);
            let packed = BitPackedVec::from_slice(bits, &values);
            let quarter = lane_max / 4;
            let mut predicates = vec![
                range(0, lane_max),                    // everything
                range(quarter, lane_max - quarter),    // middle band
                range(quarter.max(1), quarter.max(1)), // point predicate
                range(lane_max / 2, lane_max / 2 + 1), // sentinel boundary
                range(3, 2),                           // inverted: unsatisfiable
                range(lane_max, u32::MAX),             // clamped top code
                EncodedPredicate::Empty,
            ];
            predicates.extend(list_predicates(bits));
            for range in [0..values.len(), 13..values.len() - 7, 63..65, 0..1, 500..500] {
                let got = batch_positions(&packed, range.clone(), &predicates);
                for (q, predicate) in predicates.iter().enumerate() {
                    assert_eq!(
                        got[q],
                        mask_positions(&packed, range.clone(), predicate),
                        "bitcase {bits}, range {range:?}, predicate {q} {predicate:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_kernel_with_no_satisfiable_predicate_emits_nothing() {
        let packed = BitPackedVec::from_slice(8, &mixed_values(8, 300));
        let mut called = false;
        let unsatisfiable = [range(5, 2), range(300, 1), EncodedPredicate::from_vids([300, 302])];
        let refs: Vec<&EncodedPredicate> = unsatisfiable.iter().collect();
        packed.scan_masks_batch(0..300, &refs, |_, _, _| called = true);
        assert!(!called);
        packed.scan_masks_batch(0..300, &[], |_, _, _| called = true);
        assert!(!called);
    }

    #[test]
    fn batched_kernel_skips_windows_outside_the_union_range() {
        // Values cycle 0..100 in an 8-bit lane; predicates live in a narrow
        // band so most windows miss the union and must not be emitted.
        let values: Vec<u32> = (0..4000).map(|i| i % 100).collect();
        let packed = BitPackedVec::from_slice(8, &values);
        let predicates = [range(10, 12), range(11, 14), EncodedPredicate::from_vids([10, 12, 14])];
        let got = batch_positions(&packed, 0..values.len(), &predicates);
        let refs: Vec<&EncodedPredicate> = predicates.iter().collect();
        let mut emitted = 0usize;
        packed.scan_masks_batch(0..values.len(), &refs, |_, _, _| emitted += 1);
        // 8 lanes per window over a 100-cycle: the union [10, 14] occupies
        // one or two windows per cycle, far fewer than the 500 windows total.
        assert!(emitted < 2 * (values.len() / 100), "union pre-filter not engaged: {emitted}");
        for (q, predicate) in predicates.iter().enumerate() {
            let expected: Vec<usize> =
                (0..values.len()).filter(|&p| predicate.matches(values[p])).collect();
            assert_eq!(got[q], expected, "predicate {q}");
        }
    }

    #[test]
    fn empty_vector_scans_and_iterates_safely() {
        let packed = BitPackedVec::new(13);
        assert_eq!(packed.count_range(0..100, 0, 100), 0);
        assert_eq!(packed.iter().count(), 0);
        let mut called = false;
        packed.scan_range_masks(0..10, 0, 10, |_, _, _| called = true);
        assert!(!called);
    }
}
