//! The `avx512` tier's vector bodies (see the parent module's docs for the
//! unpack algebra). Every `unsafe` operation of the tier is in this module,
//! and its only way in is an [`Avx512`], which exists only on a host where
//! [`KernelTier::detected`] found AVX-512F, BW and VBMI on top of the `bmi2`
//! set.
//!
//! The vector body covers the 64-aligned rows of a scan whose 64-byte block
//! loads stay inside the payload; the rows before it and after it take the
//! `bmi2` tier's window kernels, which the same host runs. The contiguous
//! decode ([`RowUnpack`]) reuses the block unpack, with the word cursor
//! before and after its blocks.

use std::arch::x86_64::*;
use std::ops::Range;

use super::{clamp_scan, low_mask, BitPackedVec, CompiledBatch, KernelTier, RunTest, SpanBitmap};
use crate::predicate::{VidRange, VidRuns};

/// Proof that the host runs the `avx512` tier.
#[derive(Clone, Copy)]
pub(super) struct Avx512(());

impl Avx512 {
    /// The proof, on a host where the tier was detected.
    ///
    /// # Panics
    /// Panics anywhere else: the mask entries reach it only from that tier.
    #[inline]
    pub(super) fn proved() -> Avx512 {
        assert_eq!(KernelTier::detected(), KernelTier::Avx512, "the avx512 tier is not detected");
        Avx512(())
    }

    /// The `avx512` tier of the single-predicate mask kernel: the lane test
    /// of `bound`, its candidates decided by `runs`.
    pub(super) fn scan_bounded<F: FnMut(usize, u32, u64)>(
        self,
        v: &BitPackedVec,
        positions: Range<usize>,
        bound: VidRange,
        runs: &RunTest<'_>,
        sink: F,
    ) {
        // SAFETY: an `Avx512` exists only where the tier was detected.
        unsafe { scan_bounded(v, positions, bound, runs, sink) }
    }

    /// The `avx512` tier of [`BitPackedVec::scan_masks_batch`].
    pub(super) fn scan_batch<F: FnMut(usize, u32, &[u64])>(
        self,
        v: &BitPackedVec,
        positions: Range<usize>,
        batch: &CompiledBatch<'_>,
        sink: F,
    ) {
        // SAFETY: an `Avx512` exists only where the tier was detected.
        unsafe { scan_batch(v, positions, batch, sink) }
    }

    /// The `avx512` tier of [`BitPackedVec::count_range`].
    pub(super) fn count_range(
        self,
        v: &BitPackedVec,
        positions: Range<usize>,
        min: u32,
        max: u32,
    ) -> usize {
        // SAFETY: an `Avx512` exists only where the tier was detected.
        unsafe { count_range(v, positions, min, max) }
    }

    /// The `avx512` tier of the bit-packed batch gather: the codes at rows
    /// `offset + p`, for each `p` of `positions`, into the front of `out`.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `positions` or a row is out of bounds.
    pub(super) fn gather(
        self,
        v: &BitPackedVec,
        positions: &[u32],
        offset: usize,
        out: &mut [u32],
    ) {
        // SAFETY: an `Avx512` exists only where the tier was detected.
        unsafe { gather(v, positions, offset, out) }
    }

    /// The block unpack of `v`'s codes, built once for many
    /// [`RowUnpack::decode`] calls.
    pub(super) fn row_unpack(self, v: &BitPackedVec) -> RowUnpack<'_> {
        let (bits, wide) = (u32::from(v.bits), v.bits > 25);
        // SAFETY: an `Avx512` exists only where the tier was detected.
        let blocks = unsafe {
            match wide {
                true => Blocks::new::<true>(bits),
                false => Blocks::new::<false>(bits),
            }
        };
        let loadable = if wide { loadable_rows::<true>(v) } else { loadable_rows::<false>(v) };
        RowUnpack { proof: self, v, blocks, wide, loadable }
    }
}

/// The `avx512` tier's contiguous decode of one vector: the unpack
/// constants of its blocks and the end of its loadable rows, built once per
/// fold rather than once per call.
pub(super) struct RowUnpack<'a> {
    proof: Avx512,
    v: &'a BitPackedVec,
    blocks: Blocks,
    /// Bitcases 26..=32: 8 codes per block in 64-bit lanes.
    wide: bool,
    /// [`loadable_rows`] of `v`.
    loadable: usize,
}

impl RowUnpack<'_> {
    /// Decodes rows `start..start + out.len()` into `out`. The caller has
    /// checked the bounds.
    #[inline]
    pub(super) fn decode(&self, start: usize, out: &mut [u32]) {
        let Avx512(()) = self.proof;
        let (v, blocks, loadable) = (self.v, &self.blocks, self.loadable);
        // SAFETY: the proof shows the tier was detected.
        unsafe {
            match self.wide {
                true => decode_rows::<true>(v, blocks, loadable, start, out),
                false => decode_rows::<false>(v, blocks, loadable, start, out),
            }
        }
    }
}

/// Lanes per block: 16 of 32 bits for bitcases 1..=25, 8 of 64 bits (`WIDE`)
/// for 26..=32, whose code plus its bit offset in the first byte can exceed
/// 32 bits.
const fn block_lanes(wide: bool) -> usize {
    if wide {
        8
    } else {
        16
    }
}

/// How the blocks of one bitcase unpack into vector lanes, each lane's code
/// left-aligned in it.
struct Blocks {
    /// `vpermb` index: each lane gathers the bytes from the one holding its
    /// code's first bit.
    perm: __m512i,
    /// Per-lane left shift that puts the code in the lane's top `bits` bits.
    shift: __m512i,
    /// Lane bits minus `bits`: a lane shifted right by it is its code.
    up: u32,
    /// Bits per code.
    bits: usize,
    /// Bytes per block (`lanes * bits / 8`), where the next block starts.
    block_bytes: usize,
}

impl Blocks {
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    fn new<const WIDE: bool>(bits: u32) -> Blocks {
        let lanes = block_lanes(WIDE);
        let width = if WIDE { 64 } else { 32 };
        let (bits_us, lane_bytes) = (bits as usize, width / 8);
        let mut perm = [0u8; 64];
        let mut shift = [0u64; 8];
        for lane in 0..lanes {
            let first = lane * bits_us;
            for byte in 0..lane_bytes {
                perm[lane * lane_bytes + byte] = (first / 8 + byte) as u8;
            }
            let left = (width - first % 8 - bits_us) as u64;
            shift[lane * width / 64] |= left << (lane * width % 64);
        }
        // SAFETY: both arrays are 64 bytes of plain integers, as is a
        // `__m512i`.
        let (perm, shift) = unsafe {
            (
                std::mem::transmute::<[u8; 64], __m512i>(perm),
                std::mem::transmute::<[u64; 8], __m512i>(shift),
            )
        };
        Blocks {
            perm,
            shift,
            up: width as u32 - bits,
            bits: bits_us,
            block_bytes: lanes * bits_us / 8,
        }
    }

    /// Unpacks the block whose first byte is the first of `raw`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    #[inline]
    fn unpack<const WIDE: bool>(&self, raw: __m512i) -> __m512i {
        let gathered = _mm512_permutexvar_epi8(self.perm, raw);
        if WIDE {
            _mm512_sllv_epi64(gathered, self.shift)
        } else {
            _mm512_sllv_epi32(gathered, self.shift)
        }
    }
}

/// One past the last row a block can end on: a block starting at row `r`
/// (divisible by 8) loads the 64 bytes from byte `r * bits / 8` on, which
/// must end inside `v`'s words.
fn loadable_rows<const WIDE: bool>(v: &BitPackedVec) -> usize {
    (v.words.len() * 8)
        .checked_sub(64)
        .map_or(0, |room| room * 8 / usize::from(v.bits) + block_lanes(WIDE))
}

/// The vector body of `start..end`: its 64-aligned rows whose blocks' 64-byte
/// loads all end inside `v`'s words, or the empty `end..end`.
fn body_rows<const WIDE: bool>(v: &BitPackedVec, start: usize, end: usize) -> Range<usize> {
    let (first, last) =
        (start.next_multiple_of(64), (end & !63).min(loadable_rows::<WIDE>(v) & !63));
    if first < last {
        first..last
    } else {
        end..end
    }
}

/// Loads the 64 bytes at byte `at` of `words`.
///
/// # Safety
/// `at + 64 <= words.len() * 8`.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn load(words: &[u64], at: usize) -> __m512i {
    // SAFETY: the caller keeps the 64 bytes inside `words`.
    unsafe { _mm512_loadu_si512(words.as_ptr().cast::<u8>().add(at).cast()) }
}

/// The test of one vid range `[first, last]` on left-aligned lanes:
/// `lane - lo <= span`, unsigned, in the lane's width.
#[derive(Clone, Copy)]
struct LaneRange {
    /// `first << up`.
    lo: u64,
    /// `(last - first) << up`, its low `up` bits set.
    span: u64,
}

impl LaneRange {
    fn new(up: u32, first: u32, last: u32) -> LaneRange {
        LaneRange {
            lo: u64::from(first) << up,
            span: (u64::from(last - first) << up) | low_mask(up),
        }
    }

    /// Bit `i` reports whether lane `i` of `x` lies in the range.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    #[inline]
    fn test<const WIDE: bool>(self, x: __m512i) -> u64 {
        if WIDE {
            let off = _mm512_sub_epi64(x, _mm512_set1_epi64(self.lo as i64));
            u64::from(_mm512_cmple_epu64_mask(off, _mm512_set1_epi64(self.span as i64)))
        } else {
            let off = _mm512_sub_epi32(x, _mm512_set1_epi32(self.lo as i32));
            u64::from(_mm512_cmple_epu32_mask(off, _mm512_set1_epi32(self.span as i32)))
        }
    }
}

/// How one predicate decides a block's lanes, compiled from its bound and
/// run test. A list's bound picks the candidate blocks or lanes first.
enum LaneTest<'a> {
    /// A range, or a list of one run.
    Range(LaneRange),
    /// Few runs: one test per run, ORed.
    Any(LaneRange, Vec<LaneRange>),
    /// Many runs: each candidate lane's code probes the list's bitmap.
    Bitmap(LaneRange, SpanBitmap<'a>),
    /// Many runs over a span too wide for a bitmap: each candidate lane's
    /// code is searched in the runs.
    Search(LaneRange, &'a VidRuns),
}

impl<'a> LaneTest<'a> {
    /// `bound` is clamped to the bitcase.
    fn compile(up: u32, bound: VidRange, runs: &RunTest<'a>) -> LaneTest<'a> {
        let bound_lane = LaneRange::new(up, bound.first, bound.last);
        match runs {
            RunTest::One => LaneTest::Range(bound_lane),
            RunTest::Any(any) => LaneTest::Any(
                bound_lane,
                any.runs
                    .iter()
                    .map(|run| LaneRange::new(up, run.first, run.last.min(bound.last)))
                    .collect(),
            ),
            RunTest::Bitmap(map) => LaneTest::Bitmap(bound_lane, *map),
            RunTest::Search(list) => LaneTest::Search(bound_lane, list),
        }
    }

    /// Bit `i` reports whether lane `i` of the unpacked block `x` matches.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    #[inline]
    fn block<const WIDE: bool>(&self, x: __m512i, up: u32) -> u64 {
        match self {
            LaneTest::Range(range) => range.test::<WIDE>(x),
            LaneTest::Any(bound, runs) => any_run::<WIDE>(x, *bound, runs),
            LaneTest::Bitmap(bound, map) => {
                probe::<WIDE>(x, bound.test::<WIDE>(x), up, |code| map.bit(code) == 1)
            }
            LaneTest::Search(bound, list) => {
                probe::<WIDE>(x, bound.test::<WIDE>(x), up, |code| list.contains(code))
            }
        }
    }
}

/// The lanes of `x` that one of `runs` holds: none unless `bound`, which
/// holds every run, holds one.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
#[inline]
fn any_run<const WIDE: bool>(x: __m512i, bound: LaneRange, runs: &[LaneRange]) -> u64 {
    match bound.test::<WIDE>(x) {
        0 => 0,
        _ => runs.iter().fold(0, |hits, run| hits | run.test::<WIDE>(x)),
    }
}

/// The `candidates` lanes of `x` whose codes `contains` accepts.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
#[inline]
fn probe<const WIDE: bool>(
    x: __m512i,
    candidates: u64,
    up: u32,
    contains: impl Fn(u32) -> bool,
) -> u64 {
    if candidates == 0 {
        return 0;
    }
    // SAFETY: a `__m512i` is 64 bytes of plain integers, as is the array.
    let words = unsafe { std::mem::transmute::<__m512i, [u64; 8]>(x) };
    let (mut rest, mut hits) = (candidates, 0);
    while rest != 0 {
        let lane = rest.trailing_zeros() as usize;
        let value =
            if WIDE { words[lane] } else { words[lane / 2] >> (32 * (lane % 2)) & 0xffff_ffff };
        if contains((value >> up) as u32) {
            hits |= 1 << lane;
        }
        rest &= rest - 1;
    }
    hits
}

/// The vector body's word loop: `word` takes each 64-row word of `rows`
/// (`rows` from `body_rows`) as its first row and its unpacked blocks.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
#[inline]
fn for_each_word<const WIDE: bool, W: FnMut(usize, &[__m512i])>(
    v: &BitPackedVec,
    blocks: &Blocks,
    rows: Range<usize>,
    mut word: W,
) {
    // Loads only move forward, so the last block of the last word bounds
    // them all.
    assert!(
        rows.is_empty()
            || (rows.end - block_lanes(WIDE)) * blocks.bits / 8 + 64 <= v.words.len() * 8,
        "the vector body must load inside the payload"
    );
    let mut unpacked = [_mm512_setzero_si512(); 8];
    let unpacked = &mut unpacked[..64 / block_lanes(WIDE)];
    let mut at = rows.start * blocks.bits / 8;
    for row in rows.step_by(64) {
        for (block, x) in unpacked.iter_mut().enumerate() {
            // SAFETY: the assert above keeps every block's load inside the
            // payload.
            *x = blocks.unpack::<WIDE>(unsafe { load(&v.words, at + block * blocks.block_bytes) });
        }
        word(row, unpacked);
        at += 8 * blocks.bits;
    }
}

/// The 64-row match word of a word's unpacked blocks, `test` giving each
/// block's lane bits.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
#[inline]
fn word_mask<const WIDE: bool>(unpacked: &[__m512i], test: impl Fn(__m512i) -> u64) -> u64 {
    let lanes = block_lanes(WIDE);
    unpacked.iter().enumerate().fold(0, |mask, (block, &x)| mask | test(x) << (block * lanes))
}

/// The single-predicate kernel: the `bmi2` window kernel before and after the
/// vector body.
///
/// # Safety
/// The host runs the `avx512` tier.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,bmi1,bmi2,popcnt,lzcnt")]
unsafe fn scan_bounded<F: FnMut(usize, u32, u64)>(
    v: &BitPackedVec,
    positions: Range<usize>,
    bound: VidRange,
    runs: &RunTest<'_>,
    mut sink: F,
) {
    let Some((start, end, max)) = clamp_scan(v.len, v.bits, positions, bound.first, bound.last)
    else {
        return;
    };
    let clamped = VidRange { first: bound.first, last: max };
    let bits = u32::from(v.bits);
    let body = if bits > 25 {
        scan_body::<true, F>(v, start, end, clamped, runs, &mut sink)
    } else {
        scan_body::<false, F>(v, start, end, clamped, runs, &mut sink)
    };
    // SAFETY: the `avx512` tier's detection includes the `bmi2` set.
    unsafe { v.scan_bounded_bmi2(body.end..end, clamped, runs, &mut sink) }
}

/// The rows before the vector body, then the body; returns the body's rows.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,bmi1,bmi2,popcnt,lzcnt")]
#[inline]
fn scan_body<const WIDE: bool, F: FnMut(usize, u32, u64)>(
    v: &BitPackedVec,
    start: usize,
    end: usize,
    bound: VidRange,
    runs: &RunTest<'_>,
    sink: &mut F,
) -> Range<usize> {
    let blocks = Blocks::new::<WIDE>(u32::from(v.bits));
    let body = body_rows::<WIDE>(v, start, end);
    // SAFETY: the `avx512` tier's detection includes the `bmi2` set.
    unsafe { v.scan_bounded_bmi2(start..body.start, bound, runs, &mut *sink) };
    let (up, rows) = (blocks.up, body.clone());
    match LaneTest::compile(up, bound, runs) {
        LaneTest::Range(range) => for_each_word::<WIDE, _>(v, &blocks, rows, |row, xs| {
            sink(row, 64, word_mask::<WIDE>(xs, |x| range.test::<WIDE>(x)))
        }),
        // A word without a candidate costs one branch, not one per block.
        LaneTest::Any(bound, runs) => for_each_word::<WIDE, _>(v, &blocks, rows, |row, xs| {
            let mask = match word_mask::<WIDE>(xs, |x| bound.test::<WIDE>(x)) {
                0 => 0,
                _ => word_mask::<WIDE>(xs, |x| any_run::<WIDE>(x, bound, &runs)),
            };
            sink(row, 64, mask)
        }),
        test => for_each_word::<WIDE, _>(v, &blocks, rows, |row, xs| {
            sink(row, 64, word_mask::<WIDE>(xs, |x| test.block::<WIDE>(x, up)))
        }),
    }
    body
}

/// [`BitPackedVec::count_range`]: the vector body popcounts its match words.
///
/// # Safety
/// The host runs the `avx512` tier.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,bmi1,bmi2,popcnt,lzcnt")]
unsafe fn count_range(v: &BitPackedVec, positions: Range<usize>, min: u32, max: u32) -> usize {
    let Some((start, end, clamped)) = clamp_scan(v.len, v.bits, positions, min, max) else {
        return 0;
    };
    let bits = u32::from(v.bits);
    let (count, body) = if bits > 25 {
        count_body::<true>(v, start, end, min, clamped)
    } else {
        count_body::<false>(v, start, end, min, clamped)
    };
    // SAFETY: the `avx512` tier's detection includes the `bmi2` set.
    count
        + unsafe {
            v.count_range_bmi2(start..body.start, min, max)
                + v.count_range_bmi2(body.end..end, min, max)
        }
}

/// The vector body's count and rows.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,bmi1,bmi2,popcnt,lzcnt")]
#[inline]
fn count_body<const WIDE: bool>(
    v: &BitPackedVec,
    start: usize,
    end: usize,
    min: u32,
    max: u32,
) -> (usize, Range<usize>) {
    let blocks = Blocks::new::<WIDE>(u32::from(v.bits));
    let body = body_rows::<WIDE>(v, start, end);
    let range = LaneRange::new(blocks.up, min, max);
    let mut count = 0;
    for_each_word::<WIDE, _>(v, &blocks, body.clone(), |_, xs| {
        count += word_mask::<WIDE>(xs, |x| range.test::<WIDE>(x)).count_ones() as usize
    });
    (count, body)
}

/// The rows of `start..end` the contiguous decode unpacks in whole blocks:
/// from the first row divisible by 8, while a block fits in the rows and its
/// load in the payload (`loadable`, from [`loadable_rows`]); or the empty
/// `end..end`.
#[inline]
fn block_rows<const WIDE: bool>(loadable: usize, start: usize, end: usize) -> Range<usize> {
    let (first, lanes) = (start.next_multiple_of(8), block_lanes(WIDE));
    let last = end.min(loadable);
    match first + lanes <= last {
        true => first..first + (last - first) / lanes * lanes,
        false => end..end,
    }
}

/// Decodes rows `start..start + out.len()`: whole blocks from the first row
/// divisible by 8 while a block fits in the rows and its load in the payload
/// (where [`body_rows`] would stop), the word cursor before and after them.
/// A block's lanes shifted right by `up` are its codes; wide lanes narrow to
/// 32 bits on the store.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
#[inline]
fn decode_rows<const WIDE: bool>(
    v: &BitPackedVec,
    blocks: &Blocks,
    loadable: usize,
    start: usize,
    out: &mut [u32],
) {
    let (end, lanes) = (start + out.len(), block_lanes(WIDE));
    let body = block_rows::<WIDE>(loadable, start, end);
    assert!(
        body.is_empty() || (body.end - lanes) * blocks.bits / 8 + 64 <= v.words.len() * 8,
        "the decode must load inside the payload"
    );
    let (head, rest) = out.split_at_mut(body.start - start);
    let (middle, tail) = rest.split_at_mut(body.len());
    v.decode_cursor(start, head);
    let count = _mm_cvtsi32_si128(blocks.up as i32);
    let mut at = body.start * blocks.bits / 8;
    for codes in middle.chunks_exact_mut(lanes) {
        // SAFETY: the assert above keeps every block's load inside the
        // payload.
        let x = blocks.unpack::<WIDE>(unsafe { load(&v.words, at) });
        // SAFETY: `codes` holds `lanes` codes: 64 bytes narrow, 32 wide.
        unsafe {
            match WIDE {
                true => _mm256_storeu_si256(
                    codes.as_mut_ptr().cast(),
                    _mm512_cvtepi64_epi32(_mm512_srl_epi64(x, count)),
                ),
                false => _mm512_storeu_si512(codes.as_mut_ptr().cast(), _mm512_srl_epi32(x, count)),
            }
        }
        at += blocks.block_bytes;
    }
    v.decode_cursor(body.end, tail);
}

/// The batch gather: 8 rows per `vpgatherqq`, each lane loading the 8 bytes
/// from the byte holding its code's first bit and shifting the code down by
/// the bit's offset in that byte (at most 7, so 57 bits remain for a code of
/// at most 32). The rows after the last full 8 take the two-word decode.
///
/// # Safety
/// The host runs the `avx512` tier.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn gather(v: &BitPackedVec, positions: &[u32], offset: usize, out: &mut [u32]) {
    let out = &mut out[..positions.len()];
    let Some(max) = positions.iter().copied().max() else {
        return;
    };
    let last = max as usize + offset;
    assert!(last < v.len, "position {last} out of bounds (len {})", v.len);
    // A row below `len` starts at bit `row * bits < len * bits`, so its
    // 8-byte load ends inside the payload's padding word. The multiply takes
    // the low 32 bits of each row: wider rows take the two-word decode.
    let beyond_u32 = u32::try_from(last).is_err();
    let (codes, rest) =
        if beyond_u32 { out.split_at_mut(0) } else { out.split_at_mut(positions.len() / 8 * 8) };
    let (bits, lane) = (u64::from(v.bits), low_mask(u32::from(v.bits)));
    let (offset_v, bits_v) = (_mm512_set1_epi64(offset as i64), _mm512_set1_epi64(bits as i64));
    let (seven, lane_v) = (_mm512_set1_epi64(7), _mm512_set1_epi64(lane as i64));
    let words = v.words.as_ptr();
    for (rows, codes) in positions.chunks_exact(8).zip(codes.chunks_exact_mut(8)) {
        // SAFETY: `rows` holds 8 `u32`s, 32 bytes.
        let rows = unsafe { _mm256_loadu_si256(rows.as_ptr().cast()) };
        let rows = _mm512_add_epi64(_mm512_cvtepu32_epi64(rows), offset_v);
        let bit = _mm512_mul_epu32(rows, bits_v);
        // SAFETY: every row is at most `last < len` and fits in 32 bits, so
        // each lane loads inside the payload (see above).
        let x = unsafe { _mm512_i64gather_epi64::<1>(_mm512_srli_epi64::<3>(bit), words.cast()) };
        let code = _mm512_and_si512(_mm512_srlv_epi64(x, _mm512_and_si512(bit, seven)), lane_v);
        // SAFETY: `codes` holds 8 `u32`s, 32 bytes.
        unsafe { _mm256_storeu_si256(codes.as_mut_ptr().cast(), _mm512_cvtepi64_epi32(code)) };
    }
    let done = codes.len();
    for (code, &pos) in rest.iter_mut().zip(&positions[done..]) {
        *code = v.decode_at(pos as usize + offset);
    }
}

/// [`BitPackedVec::scan_masks_batch`]: each block is unpacked once and
/// tested against the union of the predicates, then, in a 64-row word with a
/// union hit, against every predicate.
///
/// # Safety
/// The host runs the `avx512` tier.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,bmi1,bmi2,popcnt,lzcnt")]
unsafe fn scan_batch<F: FnMut(usize, u32, &[u64])>(
    v: &BitPackedVec,
    positions: Range<usize>,
    batch: &CompiledBatch<'_>,
    mut sink: F,
) {
    let end = positions.end.min(v.len);
    let start = positions.start.min(end);
    if start == end {
        return;
    }
    let bits = u32::from(v.bits);
    let body = if bits > 25 {
        batch_body::<true, F>(v, start..end, batch, &mut sink)
    } else {
        batch_body::<false, F>(v, start..end, batch, &mut sink)
    };
    // SAFETY: the `avx512` tier's detection includes the `bmi2` set.
    unsafe { v.scan_batch_bmi2(body.end..end, batch, &mut sink) }
}

/// The rows before the batched vector body, then the body; returns the
/// body's rows.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,bmi1,bmi2,popcnt,lzcnt")]
#[inline]
fn batch_body<const WIDE: bool, F: FnMut(usize, u32, &[u64])>(
    v: &BitPackedVec,
    rows: Range<usize>,
    batch: &CompiledBatch<'_>,
    sink: &mut F,
) -> Range<usize> {
    let blocks = Blocks::new::<WIDE>(u32::from(v.bits));
    let body = body_rows::<WIDE>(v, rows.start, rows.end);
    // SAFETY: the `avx512` tier's detection includes the `bmi2` set.
    unsafe { v.scan_batch_bmi2(rows.start..body.start, batch, &mut *sink) };
    let up = blocks.up;
    let union = LaneRange::new(up, batch.union.first, batch.union.last);
    // Ranges (and one-run lists) keep a loop of bare compares; lists are
    // decided in a loop of their own.
    let (mut ranges, mut lists) = (Vec::new(), Vec::new());
    for (slot, lanes) in &batch.slots {
        match LaneTest::compile(up, lanes.bound, &lanes.runs) {
            LaneTest::Range(range) => ranges.push((*slot, range)),
            test => lists.push((*slot, test)),
        }
    }
    // Slots of unsatisfiable predicates are never written and stay zero.
    let mut masks = vec![0u64; batch.len];
    for_each_word::<WIDE, _>(v, &blocks, body.clone(), |row, xs| {
        if word_mask::<WIDE>(xs, |x| union.test::<WIDE>(x)) != 0 {
            for &(slot, range) in &ranges {
                masks[slot] = word_mask::<WIDE>(xs, |x| range.test::<WIDE>(x));
            }
            for (slot, test) in &lists {
                masks[*slot] = word_mask::<WIDE>(xs, |x| test.block::<WIDE>(x, up));
            }
            sink(row, 64, &masks);
        }
    });
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    fn last_load_end<const WIDE: bool>(v: &BitPackedVec, body: &Range<usize>) -> usize {
        (body.end - block_lanes(WIDE)) * usize::from(v.bits) / 8 + 64
    }

    fn check_body_rows<const WIDE: bool>(bits: u8) {
        let mut in_last_64_bytes = false;
        for len in (4096..4096 + 64 * 9).step_by(5) {
            let v = BitPackedVec::from_slice(bits, &vec![0; len]);
            let (body, bytes) = (body_rows::<WIDE>(&v, 0, len), v.words.len() * 8);
            assert!(body.start == 0 && body.end > len / 2, "bitcase {bits}, {len} rows: {body:?}");
            let end = last_load_end::<WIDE>(&v, &body);
            assert!(end <= bytes, "bitcase {bits}, {len} rows: a load ends at {end} of {bytes}");
            // The body stops at the last whole word, or at the last one
            // whose loads fit.
            let next = body.end..body.end + 64;
            let fits = next.end <= len && last_load_end::<WIDE>(&v, &next) <= bytes;
            assert!(!fits, "bitcase {bits}, {len} rows: the body stops early at {}", body.end);
            in_last_64_bytes |= bytes - end < 64;
        }
        assert!(in_last_64_bytes, "bitcase {bits}: no body loads into the final 64 bytes");
    }

    #[test]
    fn the_vector_body_loads_only_inside_the_payload_and_as_far_as_it_can() {
        for bits in 1..=32u8 {
            match bits > 25 {
                true => check_body_rows::<true>(bits),
                false => check_body_rows::<false>(bits),
            }
        }
    }

    /// Whether the last block the decode of `start..end` unpacks loads into
    /// the final 64 bytes of the payload.
    fn decode_reaches_the_end<const WIDE: bool>(
        v: &BitPackedVec,
        start: usize,
        end: usize,
    ) -> bool {
        let body = block_rows::<WIDE>(loadable_rows::<WIDE>(v), start, end);
        let bytes = v.words.len() * 8;
        !body.is_empty() && {
            let load_end = last_load_end::<WIDE>(v, &(body.start..body.end));
            assert!(load_end <= bytes, "bitcase {}: a load ends at {load_end} of {bytes}", v.bits);
            bytes - load_end < 64
        }
    }

    #[test]
    fn the_contiguous_decode_loads_into_the_final_64_bytes_and_matches_get() {
        for bits in 1..=32u8 {
            let mask = low_mask(u32::from(bits)) as u32;
            // Some length puts the last block of a whole-vector decode into
            // the final 64 bytes of the payload; every length keeps its
            // loads inside it.
            let len = (1024..1024 + 64 * 9)
                .find(|&len| {
                    let v = BitPackedVec::from_slice(bits, &vec![0; len]);
                    match bits > 25 {
                        true => decode_reaches_the_end::<true>(&v, 0, len),
                        false => decode_reaches_the_end::<false>(&v, 0, len),
                    }
                })
                .unwrap_or_else(|| panic!("bitcase {bits}: no decode reaches the final 64 bytes"));
            if KernelTier::detected() < KernelTier::Avx512 {
                continue;
            }
            let codes: Vec<u32> =
                (0..len as u32).map(|i| i.wrapping_mul(2654435761).rotate_left(5) & mask).collect();
            let v = BitPackedVec::from_slice(bits, &codes);
            let unpack = Avx512::proved().row_unpack(&v);
            let mut out = vec![u32::MAX; len];
            for start in [0, 3, len - 600].into_iter().chain(len - 130..=len) {
                unpack.decode(start, &mut out[start..]);
                assert_eq!(&out[start..], &codes[start..], "bitcase {bits}, rows {start}..{len}");
            }
        }
    }

    #[test]
    fn the_gather_checks_its_rows_itself() {
        if KernelTier::detected() < KernelTier::Avx512 {
            return;
        }
        let v = BitPackedVec::from_slice(9, &[5; 100]);
        let gathered =
            std::panic::catch_unwind(|| Avx512::proved().gather(&v, &[3, 1, 100], 0, &mut [0; 3]));
        assert!(gathered.is_err(), "row 100 of 100 must be rejected before any load");
    }

    #[test]
    fn the_vector_body_stays_inside_its_rows() {
        let v = BitPackedVec::from_slice(17, &vec![0; 1000]);
        assert_eq!(body_rows::<false>(&v, 1, 127), 127..127);
        assert_eq!(body_rows::<false>(&v, 1, 640), 64..640);
        assert_eq!(body_rows::<false>(&v, 64, 65), 65..65);
        assert_eq!(body_rows::<false>(&BitPackedVec::new(3), 0, 0), 0..0);
    }
}
