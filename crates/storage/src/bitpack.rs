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
//! * when the list has few runs (no more than the window has lanes; up to 16
//!   on the `avx512` tier), one lane test per run is ORed — an equality test
//!   (xor, then a carry into each lane's top bit detects a nonzero lane) for
//!   a single vid, the range test for a longer run,
//! * otherwise each lane's code is shifted out of the loaded window and
//!   probed against the list's bitmap (a binary search over the runs stands
//!   in when the list spans too many vids for a bitmap).
//!
//! No per-element decode happens anywhere on the hot path: rows are read
//! only as packed windows, whatever the predicate.
//!
//! # Kernel tiers
//!
//! The mask entries — [`BitPackedVec::scan_masks`] (ranges and `IN` lists),
//! [`BitPackedVec::scan_range_masks`], [`BitPackedVec::scan_masks_batch`] and
//! [`BitPackedVec::count_range`] — dispatch once per call on a
//! [`KernelTier`], detected once per process from the CPU, never from a
//! build flag:
//!
//! * **`portable`** compacts a window's sentinel bits with a shift-and-mask
//!   fold (one step per doubling of the gathered group, so `log2 k` steps)
//!   and runs on any target.
//! * **`bmi2`** (x86-64 with BMI1, BMI2, POPCNT and LZCNT) runs one
//!   `#[target_feature]` copy of the same generic bodies. The fold becomes
//!   one `pext(m, high)`, and since the sink is inlined into that copy,
//!   `count_ones` and `trailing_zeros` become `popcnt` and `tzcnt` in the
//!   kernel and in its consumers alike.
//! * **`avx512`** (the `bmi2` set plus AVX-512F, BW and VBMI) unpacks codes
//!   into vector lanes instead of testing them in place; see below.
//!
//! `pext` and the fold agree on every word a kernel compacts. `pext(m,
//! high)` packs the bits of `m` under the sentinel mask `high`, lane 0's
//! lowest, into the low `k` bits. The fold moves each lane's sentinel bit
//! down to bit `i` of lane `i` and masks everything else away, which is the
//! same map on any `m` that holds no bit outside `high`. Every caller
//! satisfies that: the range test ends in `& high`, and both the list's
//! OR of lane tests (`AnyRun::hits`) and the batched kernel
//! (`evaluate_batch`) compact only such words. `pext` is one 3-cycle
//! instruction on Intel since Haswell and on AMD since Zen 3. On AMD before
//! Zen 3 it is microcoded, at tens to hundreds of cycles depending on the
//! mask, so there the `bmi2` tier can lose to the fold; detection does not
//! tell those CPUs apart yet. The tier-parity tests run every oracle and a
//! bitcase × range × sub-range property once per tier the host supports.
//!
//! # The `avx512` tier
//!
//! A **block** of 16 codes of `b` bits is `2b` bytes long, so every block
//! that starts on a row divisible by 8 starts on a byte boundary. For
//! bitcases 1..=25 one unaligned 64-byte load and one `vpermb` with a
//! loop-invariant index give lane `i` (of 16 × 32 bits) the four bytes from
//! the one holding bit `i·b` of the block on. The code sits at bit
//! `s = i·b mod 8` of the lane, and `s + b ≤ 32`. One `vpsllvd` by `32 - s -
//! b` left-aligns it: the lane becomes `code · 2^u + g`, where `u = 32 - b`
//! and the garbage `g < 2^u` is whatever lay below the code. No mask is
//! needed, since the bits above the code are shifted out. The test of
//! `min ≤ code ≤ max` is then one unsigned compare (`vpcmpud`) on
//!
//! ```text
//! lane - (min · 2^u)  ≤  (max - min) · 2^u + (2^u - 1)      (mod 2^32)
//! ```
//!
//! For `code ≥ min` the left side is `(code - min) · 2^u + g`, which holds
//! iff `code - min ≤ max - min`. For `code < min` it wraps to
//! `(2^b + code - min) · 2^u + g`, and `2^b + code - min > max - min`, so
//! it fails. The compare yields a 16-row `k`-mask, and four blocks make one
//! 64-row match word. From bitcase 26 up, a code and its offset can span 39
//! bits, so blocks hold 8 codes in 64-bit lanes (`vpsllvq`, `vpcmpuq`), and
//! eight blocks make the word. The same algebra runs at width 64.
//!
//! The vector body covers the rows of a scan from its first row divisible
//! by 64 to its last, and stops early where a block's 64-byte load would
//! end past the payload (a few hundred rows before the vector's end at
//! most). The rows before and after it take the `bmi2` kernels, so the mask
//! stream still tiles the range: windows of up to `64 / b` rows at the
//! edges, 64-row words in between. Per entry:
//!
//! * a range or a one-run list is the compare alone;
//! * an `IN` list of up to 16 runs first compares each block against its
//!   bounding range, and only a block with a candidate ORs one compare per
//!   run;
//! * a longer list probes each candidate lane's code against the list's
//!   bitmap (or searches its runs), one lane at a time;
//! * `count_range` popcounts the match words;
//! * the batched kernel unpacks each block once, tests it against the union
//!   of the predicates, and only for a 64-row word with a union hit tests
//!   the blocks against every attached predicate. The predicates are
//!   compiled once per call, and the `bmi2` edges reuse them.
//!
//! Every `unsafe` step of the tier lives in the private `avx512` module,
//! which only a token made after detection can enter.
//!
//! The pre-rework scalar kernel is retained as [`BitPackedVec::scan_range_scalar`],
//! the reference oracle the property tests compare every SWAR path against.

use std::ops::Range;
use std::sync::OnceLock;

use crate::predicate::{EncodedPredicate, VidRange, VidRuns};

/// The instruction-set tier the [`BitPackedVec`] mask kernels run on: the
/// best one the host supports, detected once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelTier {
    /// The portable SWAR kernels: any target, and x86-64 hosts without BMI2.
    Portable,
    /// x86-64 with BMI1, BMI2, POPCNT and LZCNT: one `pext` compacts a
    /// window's sentinel bits, and `count_ones`/`trailing_zeros` compile to
    /// `popcnt`/`tzcnt` in the kernels and in the sinks they inline.
    Bmi2,
    /// The `bmi2` set plus AVX-512F, BW and VBMI: one `vpermb` unpacks 16
    /// codes (8 from bitcase 26 up) into vector lanes, one unsigned compare
    /// tests them all, and four such blocks make a 64-row match word.
    Avx512,
}

impl KernelTier {
    /// The tier this host runs, detected on first use and cached.
    pub fn detected() -> KernelTier {
        static DETECTED: OnceLock<KernelTier> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("bmi1")
                && is_x86_feature_detected!("bmi2")
                && is_x86_feature_detected!("popcnt")
                && is_x86_feature_detected!("lzcnt")
            {
                if is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vbmi")
                {
                    return KernelTier::Avx512;
                }
                return KernelTier::Bmi2;
            }
            KernelTier::Portable
        })
    }

    /// The tier's name, as logs and reports print it.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Bmi2 => "bmi2",
            KernelTier::Avx512 => "avx512",
        }
    }

    /// The most runs an `IN` list may have for the kernels of this tier to
    /// OR one lane test per run, rather than probe each candidate lane's
    /// code against the list: the lanes of one window at `bits` bits, or 16
    /// on the `avx512` tier, whose lane tests cover a whole block at once.
    /// This is the tier's only say in how a list is decided: a list compiled
    /// under it keeps its runs for the vector tests and their window form
    /// for the `bmi2` rows around the vector body alike.
    fn or_runs(self, bits: u8) -> usize {
        match self {
            KernelTier::Avx512 => 16.max(64 / usize::from(bits)),
            _ => 64 / usize::from(bits),
        }
    }

    /// Every tier this host can run, the portable one first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<KernelTier> {
        [KernelTier::Portable, KernelTier::Bmi2, KernelTier::Avx512]
            .into_iter()
            .filter(|&tier| tier <= KernelTier::detected())
            .collect()
    }
}

/// The tier the mask entries dispatch on.
#[cfg(not(test))]
#[inline]
fn tier() -> KernelTier {
    KernelTier::detected()
}

#[cfg(test)]
thread_local! {
    static FORCED_TIER: std::cell::Cell<Option<KernelTier>> = const { std::cell::Cell::new(None) };
}

/// The tier the mask entries dispatch on: under test, the one
/// [`with_tier`] forces on this thread.
#[cfg(test)]
fn tier() -> KernelTier {
    FORCED_TIER.with(|forced| forced.get()).unwrap_or_else(KernelTier::detected)
}

/// Runs `f` with every mask entry on this thread dispatching to `tier` —
/// the seam the tier-parity tests run each kernel through.
#[cfg(test)]
pub(crate) fn with_tier<R>(tier: KernelTier, f: impl FnOnce() -> R) -> R {
    assert!(tier <= KernelTier::detected(), "{} is not supported here", tier.name());
    FORCED_TIER.with(|forced| forced.set(Some(tier)));
    let result = f();
    FORCED_TIER.with(|forced| forced.set(None));
    result
}

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
    /// Position of lane 0's sentinel bit: `bits - 1`.
    top_shift: u32,
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
            top_shift: bits - 1,
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
    /// each step. `matched` must hold no bit outside [`WindowPlan::high`].
    #[inline(always)]
    fn fold(&self, matched: u64) -> u64 {
        let mut mask = matched >> self.top_shift;
        let mut shift = self.top_shift;
        for &fold in &self.fold_masks[..self.fold_steps as usize] {
            mask |= mask >> shift;
            mask &= fold;
            shift *= 2;
        }
        mask & self.lane_select
    }
}

/// How a window's sentinel bits become one bit per lane: the kernels' only
/// tier-specific step. Every caller hands over a word with no bit outside
/// [`WindowPlan::high`] (a lane test's result, or an OR of them).
trait Compact: Copy {
    /// The low `k` bits of the result report lanes `0..k`.
    fn compact(self, plan: &WindowPlan, matched: u64) -> u64;
}

/// The portable tier's compaction: the shift-and-mask fold.
#[derive(Clone, Copy)]
struct Fold;

impl Compact for Fold {
    #[inline(always)]
    fn compact(self, plan: &WindowPlan, matched: u64) -> u64 {
        plan.fold(matched)
    }
}

#[cfg(target_arch = "x86_64")]
use pext::Pext;

#[cfg(target_arch = "x86_64")]
mod avx512;
#[cfg(target_arch = "x86_64")]
use avx512::Avx512;

/// The BMI2 tier's compaction, in a module of its own so that only the
/// `unsafe` [`Pext::new`] can make one.
#[cfg(target_arch = "x86_64")]
mod pext {
    use super::{Compact, WindowPlan};

    /// One `pext` gathers the bits under [`WindowPlan::high`].
    #[derive(Clone, Copy)]
    pub(super) struct Pext(());

    impl Pext {
        /// # Safety
        /// The host must support BMI2.
        #[inline(always)]
        pub(super) unsafe fn new() -> Pext {
            Pext(())
        }
    }

    impl Compact for Pext {
        #[inline(always)]
        fn compact(self, plan: &WindowPlan, matched: u64) -> u64 {
            // SAFETY: only `Pext::new` makes a `Pext`, and its caller
            // guarantees BMI2.
            unsafe { std::arch::x86_64::_pext_u64(matched, plan.high) }
        }
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
    /// Few runs (see [`KernelTier::or_runs`]): OR one lane test per run.
    Any(AnyRun<'a>),
    /// More runs than lanes: probe every lane's code against the bitmap.
    Bitmap(SpanBitmap<'a>),
    /// More runs than lanes over a span too wide for a bitmap: binary-search
    /// each candidate lane's code in the runs.
    Search(&'a VidRuns),
}

/// The lane tests of a list's runs, ORed per window: a single-vid run is an
/// equality test (five word operations), a longer run a range test
/// ([`BatchLane`]).
struct AnyRun<'a> {
    /// Each single-vid run's code replicated into every lane.
    points: Vec<u64>,
    /// Every other run's range test.
    spans: Vec<BatchLane>,
    /// The low `bits - 1` bits of every lane.
    low: u64,
    /// The runs themselves, the last one ending at the bound: the `avx512`
    /// tier tests them on vector lanes.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    runs: &'a [VidRange],
}

impl AnyRun<'_> {
    /// Decides the `candidates` of window `x`; returns the compacted mask.
    #[inline(always)]
    fn hits<C: Compact>(&self, c: C, candidates: u64, x: u64, plan: &WindowPlan) -> u64 {
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
        c.compact(plan, hits)
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
    /// `None` when no code a `bits`-bit lane can hold qualifies. A list of
    /// up to `or_runs` runs ORs one lane test per run.
    fn compile(
        bits: u8,
        predicate: &'a EncodedPredicate,
        or_runs: usize,
    ) -> Option<PredicateLanes<'a>> {
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
                (n, _) if n <= or_runs => {
                    let replicate =
                        |code: u64| (0..64 / bits).fold(0, |word, i| word | code << (i * bits));
                    let (points, spans): (Vec<&VidRange>, Vec<&VidRange>) =
                        runs.iter().partition(|r| r.first == r.last);
                    RunTest::Any(AnyRun {
                        points: points.iter().map(|r| replicate(r.first.into())).collect(),
                        spans: spans.into_iter().map(lane).collect(),
                        low: replicate(low_mask(bits - 1)),
                        runs,
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
    fn matches<C: Compact>(&self, c: C, x: u64, plan: &WindowPlan, bits: u32) -> u64 {
        let candidates = self.lane.matches(x, plan.high);
        match &self.runs {
            RunTest::One => c.compact(plan, candidates),
            RunTest::Any(runs) => runs.hits(c, candidates, x, plan),
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
    /// 1 when `code` is in the list, else 0: a code outside the span clamps
    /// onto the zero padding word.
    #[inline(always)]
    fn bit(self, code: u32) -> u64 {
        let offset = code.wrapping_sub(self.base).min(self.pad) as usize;
        self.words[offset >> 6] >> (offset & 63) & 1
    }

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
            hits |= self.bit((rest & lane) as u32).wrapping_neg() & bit;
            rest >>= bits;
            bit <<= 1;
        }
        hits
    }
}

/// One window `x` of the batched kernel: every range slot's compacted mask,
/// then every list slot's.
#[inline(always)]
fn evaluate_batch<C: Compact>(
    c: C,
    x: u64,
    plan: &WindowPlan,
    bits: u32,
    ranges: &[(usize, BatchLane)],
    lists: &[(usize, &PredicateLanes<'_>)],
    masks: &mut [u64],
) {
    for &(slot, lane) in ranges {
        masks[slot] = c.compact(plan, lane.matches(x, plan.high));
    }
    for &(slot, lanes) in lists {
        masks[slot] = lanes.matches(c, x, plan, bits);
    }
}

/// The predicates of one batch, compiled once per batched scan for the
/// bitcase and the tier's OR limit, whichever tier then runs which rows.
struct CompiledBatch<'a> {
    /// Each satisfiable predicate's slot and lane tests, in slot order; the
    /// masks of the other slots stay zero.
    slots: Vec<(usize, PredicateLanes<'a>)>,
    /// The bounding range of every satisfiable predicate: the pre-filter.
    union: VidRange,
    /// Slots in the batch, satisfiable or not.
    len: usize,
}

impl<'a> CompiledBatch<'a> {
    /// `None` when no predicate is satisfiable at `bits` bits.
    fn compile(
        bits: u8,
        predicates: &[&'a EncodedPredicate],
        or_runs: usize,
    ) -> Option<CompiledBatch<'a>> {
        let slots: Vec<(usize, PredicateLanes<'a>)> = predicates
            .iter()
            .enumerate()
            .filter_map(|(slot, p)| Some((slot, PredicateLanes::compile(bits, p, or_runs)?)))
            .collect();
        let union = slots
            .iter()
            .map(|(_, lanes)| lanes.bound)
            .reduce(|u, b| VidRange { first: u.first.min(b.first), last: u.last.max(b.last) })?;
        Some(CompiledBatch { slots, union, len: predicates.len() })
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

    /// [`crate::IndexVector::gather`] on this layout; the caller has checked
    /// the bounds (the `avx512` tier checks them again, since its loads rely
    /// on them).
    pub(crate) fn gather(&self, positions: &[u32], offset: usize, out: &mut [u32]) {
        match tier() {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => Avx512::proved().gather(self, positions, offset, out),
            _ => {
                for (code, &pos) in out.iter_mut().zip(positions) {
                    *code = self.decode_at(pos as usize + offset);
                }
            }
        }
    }

    /// Decodes rows `start..start + out.len()` into `out` with the word
    /// cursor. The caller has checked the bounds.
    #[inline]
    pub(crate) fn decode_cursor(&self, start: usize, out: &mut [u32]) {
        let codes = self.iter_range(start..start + out.len());
        for (code, value) in out.iter_mut().zip(codes) {
            *code = value;
        }
    }

    /// A contiguous decoder over this vector, its tier's constants built
    /// once: see [`PackedRows::decode`].
    pub(crate) fn rows(&self) -> PackedRows<'_> {
        PackedRows {
            v: self,
            #[cfg(target_arch = "x86_64")]
            unpack: (tier() == KernelTier::Avx512)
                .then(|| Box::new(Avx512::proved().row_unpack(self))),
        }
    }

    /// The word-parallel mask kernel for any encoded predicate. For every
    /// window of 1..=64 consecutive rows of `positions` it calls
    /// `sink(base, n, mask)`: bit `i` of `mask` (for `i < n`) is set iff row
    /// `base + i` holds a qualifying code. The windows' lengths depend on the
    /// kernel tier: `64 / bits` rows on the SWAR tiers, and 64-row words in
    /// the `avx512` tier's vector body. Bases are emitted in ascending
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
    /// together when the list has few runs ([`KernelTier`]'s OR limit), else
    /// a probe of each candidate lane's code against the list.
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
        let tier = tier();
        if let Some(lanes) = PredicateLanes::compile(self.bits, predicate, tier.or_runs(self.bits))
        {
            self.scan_tiered(tier, positions, lanes.bound, &lanes.runs, sink);
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
    /// the algebra, and for the `avx512` tier's blocks of 16 or 8 unpacked
    /// lanes.
    #[inline]
    pub fn scan_range_masks<F: FnMut(usize, u32, u64)>(
        &self,
        positions: Range<usize>,
        min: u32,
        max: u32,
        sink: F,
    ) {
        let bound = VidRange { first: min, last: max };
        self.scan_tiered(tier(), positions, bound, &RunTest::One, sink);
    }

    /// Runs [`BitPackedVec::scan_bounded`] on `tier`.
    #[inline(always)]
    fn scan_tiered<F: FnMut(usize, u32, u64)>(
        &self,
        tier: KernelTier,
        positions: Range<usize>,
        bound: VidRange,
        runs: &RunTest<'_>,
        sink: F,
    ) {
        match tier {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => Avx512::proved().scan_bounded(self, positions, bound, runs, sink),
            // SAFETY: `tier()` reports BMI2 only where it was detected.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Bmi2 => unsafe { self.scan_bounded_bmi2(positions, bound, runs, sink) },
            _ => self.scan_bounded(Fold, positions, bound, runs, sink),
        }
    }

    /// The mask kernels' body: the lane test of `bound` is monomorphized on
    /// the bound's lane top bits and its candidates decided by `runs`.
    #[inline(always)]
    fn scan_bounded<C: Compact, F: FnMut(usize, u32, u64)>(
        &self,
        c: C,
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
                self.scan_decided(c, p, start..end, |x| p.matches::<false, false>(x), runs, s)
            }
            (false, true) => {
                self.scan_decided(c, p, start..end, |x| p.matches::<false, true>(x), runs, s)
            }
            (true, false) => {
                self.scan_decided(c, p, start..end, |x| p.matches::<true, false>(x), runs, s)
            }
            (true, true) => {
                self.scan_decided(c, p, start..end, |x| p.matches::<true, true>(x), runs, s)
            }
        }
    }

    /// Runs the window loop with `candidates` (the bounding lane test)
    /// decided by `runs`, the decision hoisted out of the loop.
    #[inline(always)]
    fn scan_decided<C: Compact, L: Fn(u64) -> u64, F: FnMut(usize, u32, u64)>(
        &self,
        c: C,
        plan: &WindowPlan,
        rows: Range<usize>,
        candidates: L,
        runs: &RunTest<'_>,
        sink: &mut F,
    ) {
        let bits = u32::from(self.bits);
        match runs {
            RunTest::One => self.scan_windows(
                plan,
                rows,
                #[inline(always)]
                |x| c.compact(plan, candidates(x)),
                sink,
            ),
            RunTest::Any(runs) => self.scan_windows(
                plan,
                rows,
                #[inline(always)]
                |x| runs.hits(c, candidates(x), x, plan),
                sink,
            ),
            // Copied out of `runs`, so the window loop keeps them in
            // registers.
            &RunTest::Bitmap(map) => self.scan_windows(
                plan,
                rows,
                #[inline(always)]
                move |x| map.hits(candidates(x), x, bits),
                sink,
            ),
            RunTest::Search(list) => self.scan_windows(
                plan,
                rows,
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
        rows: Range<usize>,
        mask: M,
        sink: &mut F,
    ) {
        let (start, end) = (rows.start, rows.end);
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
        sink: F,
    ) {
        let tier = tier();
        let Some(batch) = CompiledBatch::compile(self.bits, predicates, tier.or_runs(self.bits))
        else {
            return;
        };
        match tier {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => Avx512::proved().scan_batch(self, positions, &batch, sink),
            // SAFETY: `tier()` reports BMI2 only where it was detected.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Bmi2 => unsafe { self.scan_batch_bmi2(positions, &batch, sink) },
            _ => self.scan_batch(Fold, positions, &batch, sink),
        }
    }

    /// The body of [`BitPackedVec::scan_masks_batch`].
    #[inline(always)]
    fn scan_batch<C: Compact, F: FnMut(usize, u32, &[u64])>(
        &self,
        c: C,
        positions: Range<usize>,
        batch: &CompiledBatch<'_>,
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
        let mut lists: Vec<(usize, &PredicateLanes<'_>)> = Vec::new();
        for (slot, lanes) in &batch.slots {
            match lanes.runs {
                RunTest::One => ranges.push((*slot, lanes.lane)),
                _ => lists.push((*slot, lanes)),
            }
        }
        let union = batch.union;
        // The union plan provides the shared layout (lane geometry and
        // compaction schedule) on top of the pre-filter constants.
        let bits = u32::from(self.bits);
        let plan = WindowPlan::new(bits, union.first, union.last);
        let union_lane = BatchLane::replicate(bits, union.first, union.last);
        let k = plan.k as usize;
        let words = &self.words[..];
        let mut masks = vec![0u64; batch.len];
        let mut row = start;
        let mut bit = start * bits as usize;
        while row + k <= end {
            let x = window_at(words, bit);
            if union_lane.matches(x, plan.high) != 0 {
                evaluate_batch(c, x, &plan, bits, &ranges, &lists, &mut masks);
                sink(row, plan.k, &masks);
            }
            row += k;
            bit += plan.advance;
        }
        if row < end {
            let x = window_at(words, bit);
            if union_lane.matches(x, plan.high) != 0 {
                let n = (end - row) as u32;
                evaluate_batch(c, x, &plan, bits, &ranges, &lists, &mut masks);
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
    /// path skips the stride-compaction step entirely. Against popcounting
    /// [`BitPackedVec::scan_range_masks`] (bitcases 26 down to 8, 4M rows,
    /// 5 % selectivity, a 2-vCPU Sapphire Rapids Xeon) that saves the fold
    /// on the `portable` tier, 1.3-1.7x, but only one `pext` on the `bmi2`
    /// tier, 1.05-1.1x; there it counts at 1.9-3.7 GB/s against the
    /// portable tier's 1.0-2.0. The `avx512` tier popcounts its 64-row match
    /// words instead. No statement counts through it yet (a count is still
    /// materialized rows); the release gates time it against the scalar
    /// oracle.
    pub fn count_range(&self, positions: Range<usize>, min: u32, max: u32) -> usize {
        match tier() {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => Avx512::proved().count_range(self, positions, min, max),
            // SAFETY: `tier()` reports BMI2 only where it was detected.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Bmi2 => unsafe { self.count_range_bmi2(positions, min, max) },
            _ => self.count_in(positions, min, max),
        }
    }

    /// The body of [`BitPackedVec::count_range`].
    #[inline(always)]
    fn count_in(&self, positions: Range<usize>, min: u32, max: u32) -> usize {
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

/// The contiguous decoder of one [`BitPackedVec`], made by
/// `BitPackedVec::rows` on the tier then in force.
pub(crate) struct PackedRows<'a> {
    v: &'a BitPackedVec,
    /// The `avx512` tier's block unpack of the vector.
    #[cfg(target_arch = "x86_64")]
    unpack: Option<Box<avx512::RowUnpack<'a>>>,
}

impl PackedRows<'_> {
    /// Decodes rows `start..start + out.len()` into `out`; the caller has
    /// checked the bounds. The `avx512` tier unpacks whole blocks of 16
    /// codes (8 from bitcase 26 up, in 64-bit lanes) from the first row
    /// divisible by 8 on, as far as a block's 64-byte load stays inside the
    /// payload, and takes the word cursor for the rows around them; the other
    /// tiers take the word cursor ([`BitPackedIter`]) throughout.
    #[inline]
    pub(crate) fn decode(&self, start: usize, out: &mut [u32]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(unpack) = &self.unpack {
            return unpack.decode(start, out);
        }
        self.v.decode_cursor(start, out)
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

/// The BMI2 tier: one copy of each mask entry's generic body, compiled with
/// the tier's target features so that the body, its `pext` compaction and
/// the caller's sink inline into one function where `count_ones` is
/// `popcnt` and `trailing_zeros` is `tzcnt`.
///
/// # Safety
/// Each function requires a host with BMI1, BMI2, POPCNT and LZCNT, as
/// [`KernelTier::detected`] reports it.
#[cfg(target_arch = "x86_64")]
impl BitPackedVec {
    #[target_feature(enable = "bmi1,bmi2,popcnt,lzcnt")]
    unsafe fn scan_bounded_bmi2<F: FnMut(usize, u32, u64)>(
        &self,
        positions: Range<usize>,
        bound: VidRange,
        runs: &RunTest<'_>,
        sink: F,
    ) {
        // SAFETY: the caller guarantees BMI2.
        let pext = unsafe { Pext::new() };
        self.scan_bounded(pext, positions, bound, runs, sink)
    }

    #[target_feature(enable = "bmi1,bmi2,popcnt,lzcnt")]
    unsafe fn scan_batch_bmi2<F: FnMut(usize, u32, &[u64])>(
        &self,
        positions: Range<usize>,
        batch: &CompiledBatch<'_>,
        sink: F,
    ) {
        // SAFETY: the caller guarantees BMI2.
        let pext = unsafe { Pext::new() };
        self.scan_batch(pext, positions, batch, sink)
    }

    #[target_feature(enable = "bmi1,bmi2,popcnt,lzcnt")]
    unsafe fn count_range_bmi2(&self, positions: Range<usize>, min: u32, max: u32) -> usize {
        self.count_in(positions, min, max)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Runs `check` once per tier this host supports, each time through
    /// that tier's entries.
    fn on_every_tier(check: impl Fn(KernelTier)) {
        for tier in KernelTier::supported() {
            with_tier(tier, || check(tier));
        }
    }

    #[test]
    fn the_tiers_run_here_end_with_the_detected_one() {
        let supported = KernelTier::supported();
        let names: Vec<&str> = supported.iter().map(|tier| tier.name()).collect();
        println!("kernel tiers run here: {}", names.join(", "));
        assert_eq!(supported.first(), Some(&KernelTier::Portable));
        assert_eq!(supported.last(), Some(&KernelTier::detected()));
    }

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
            on_every_tier(|tier| {
                let count = packed.count_range(0..values.len(), max, max);
                assert_eq!(count, values.len(), "{}: bitcase {bits}", tier.name());
            });
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
        on_every_tier(|_| {
            assert_eq!(packed.count_range(10..20, 0, 127), 10);
            assert_eq!(packed.count_range(0..0, 0, 127), 0);
            // An end past the length is clamped.
            assert_eq!(packed.count_range(90..200, 0, 127), 10);
        });
    }

    #[test]
    fn scan_with_inverted_range_matches_nothing() {
        let packed = BitPackedVec::from_slice(8, &[1, 2, 3, 4]);
        on_every_tier(|_| assert_eq!(packed.count_range(0..4, 3, 2), 0));
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
        on_every_tier(swar_kernel_matches_scalar_oracle_on);
    }

    fn swar_kernel_matches_scalar_oracle_on(tier: KernelTier) {
        let tier = tier.name();
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
                    let case = format!("{tier}: bitcase {bits}, range {range:?}, [{min}, {max}]");
                    assert_eq!(got, expected, "{case}");
                    assert_eq!(
                        packed.count_range(range.clone(), min, max),
                        expected.len(),
                        "count: {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn mask_stream_tiles_the_range_exactly() {
        on_every_tier(|tier| {
            let tier = tier.name();
            for bits in [5u8, 8, 12, 17, 26, 32] {
                let values = mixed_values(bits, 997);
                let packed = BitPackedVec::from_slice(bits, &values);
                let (start, end) = (13usize, 911usize);
                let mut next = start;
                packed.scan_range_masks(start..end, 0, u32::MAX, |base, n, mask| {
                    assert_eq!(base, next, "{tier}: bitcase {bits}: runs must tile contiguously");
                    assert!((1..=64).contains(&n));
                    assert_eq!(mask & !low_mask(n), 0, "{tier}: bits beyond n must be zero");
                    next = base + n as usize;
                });
                assert_eq!(next, end, "{tier}: bitcase {bits}: runs must cover the whole range");
            }
        });
    }

    #[test]
    fn predicate_bounds_beyond_the_bitcase_are_clamped() {
        let values: Vec<u32> = (0..200).map(|i| i % 32).collect();
        let packed = BitPackedVec::from_slice(5, &values);
        on_every_tier(|_| {
            // max above the representable range clamps; min above it matches nothing.
            assert_eq!(packed.count_range(0..200, 0, u32::MAX), 200);
            assert_eq!(packed.count_range(0..200, 40, u32::MAX), 0);
            assert_eq!(
                packed.count_range(0..200, 31, 1000),
                values.iter().filter(|v| **v == 31).count()
            );
        });
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
    /// a span too wide for a bitmap, 16 and 17 runs (the `avx512` tier's OR
    /// limit), and runs ending at the top code.
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
            spread(16, 3),
            spread(17, 3),
            spread(40, 7),
            spread(20, lane_max / 20 + 1),
            EncodedPredicate::VidList(VidRuns::from_vids([
                lane_max / 3,
                lane_max.saturating_sub(2),
                lane_max - 1,
                lane_max,
            ])),
        ]
    }

    #[test]
    fn decode_rows_matches_get_on_both_layouts_and_every_tier() {
        use crate::column::IndexVector;
        use crate::rle::RleVec;
        for bits in 1..=32u8 {
            // Runs of 1 to 7 equal codes, so the run-length layout both
            // steps runs and fills several in one range.
            let mixed = mixed_values(bits, 400);
            let codes: Vec<u32> = (0..400).map(|i| mixed[i / (1 + i % 7)]).collect();
            let packed = BitPackedVec::from_slice(bits, &codes);
            let layouts =
                [IndexVector::Rle(RleVec::from_bitpacked(&packed)), IndexVector::BitPacked(packed)];
            on_every_tier(|tier| {
                for iv in &layouts {
                    let decoder = iv.row_decoder();
                    let mut out = [u32::MAX; 131];
                    let mut check = |start: usize, n: usize| {
                        out.fill(u32::MAX);
                        decoder.decode_rows(start, &mut out[..n]);
                        let at = format!(
                            "{:?} on {}: bitcase {bits}, rows {start}..+{n}",
                            iv.layout(),
                            tier.name()
                        );
                        assert_eq!(&out[..n], &codes[start..start + n], "{at}");
                        assert!(
                            out[n..].iter().all(|&c| c == u32::MAX),
                            "{at}: wrote past the range"
                        );
                    };
                    for n in 0..=130 {
                        for residue in 0..64 {
                            check(64 + residue, n);
                        }
                        check(codes.len() - n, n);
                    }
                }
            });
        }
    }

    #[test]
    fn gather_matches_get_on_every_tier() {
        for bits in 1..=32u8 {
            let codes = mixed_values(bits, 700);
            let v = BitPackedVec::from_slice(bits, &codes);
            // Ascending rows with gaps of 0 to 12, up to the last row, as
            // one batch and as batches of every length up to 19.
            let positions: Vec<u32> =
                (0..700u32).filter(|p| (p * 7 + u32::from(bits)) % 13 < 4 || *p == 699).collect();
            on_every_tier(|tier| {
                for offset in [0usize, 1, 37] {
                    let rows: Vec<u32> =
                        positions.iter().copied().filter(|&p| p as usize + offset < 700).collect();
                    for batch in std::iter::once(&rows[..]).chain(rows.chunks(19)) {
                        let mut out = vec![u32::MAX; batch.len() + 2];
                        v.gather(batch, offset, &mut out);
                        let expected: Vec<u32> =
                            batch.iter().map(|&p| v.get(p as usize + offset)).collect();
                        let at = format!("bitcase {bits} on {}, offset {offset}", tier.name());
                        assert_eq!(&out[..batch.len()], expected, "{at}");
                        assert!(out[batch.len()..].iter().all(|&c| c == u32::MAX), "{at}");
                    }
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn decode_rows_checks_the_range() {
        use crate::column::IndexVector;
        IndexVector::BitPacked(BitPackedVec::from_slice(8, &[1, 2, 3])).decode_rows(1, &mut [0; 3]);
    }

    #[test]
    fn list_kernel_matches_a_scalar_filter_for_every_bitcase() {
        on_every_tier(|tier| {
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
                            "{}: bitcase {bits}, range {range:?}, {predicate:?}",
                            tier.name()
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn batched_kernel_agrees_with_the_single_query_kernel_per_bitcase() {
        on_every_tier(batched_kernel_agrees_with_the_single_query_kernel_on);
    }

    fn batched_kernel_agrees_with_the_single_query_kernel_on(tier: KernelTier) {
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
                        "{}: bitcase {bits}, range {range:?}, predicate {q} {predicate:?}",
                        tier.name()
                    );
                }
            }
        }
    }

    /// A list of `runs` single-vid runs spread over the bitcase's codes.
    fn spread_list(bits: u8, runs: u32) -> EncodedPredicate {
        let lane_max = low_mask(u32::from(bits)) as u32;
        let step = (lane_max / runs).max(1);
        EncodedPredicate::from_vids((0..runs).map(|i| (i * step + step / 2) & lane_max))
    }

    #[test]
    fn every_tier_matches_the_oracle_at_every_row_residue() {
        // Long enough for the avx512 tier's vector body to run between a head
        // and a tail of every length at every bitcase shown (both sides of
        // the 25/26 lane-width boundary); the ranges that end at the last row
        // take the body as close to the end of the payload as its loads go.
        on_every_tier(|tier| {
            for bits in [1u8, 2, 3, 5, 7, 8, 9, 12, 16, 17, 24, 25, 26, 27, 31, 32] {
                let values = mixed_values(bits, 1024 + 37);
                let packed = BitPackedVec::from_slice(bits, &values);
                let lane_max = low_mask(u32::from(bits)) as u32;
                let (min, max) = (lane_max / 4, lane_max - lane_max / 4);
                let predicates = [
                    range(min, max),
                    spread_list(bits, 1),
                    spread_list(bits, 16),
                    spread_list(bits, 40),
                ];
                let matches: Vec<Vec<bool>> = predicates
                    .iter()
                    .map(|p| values.iter().map(|&v| p.matches(v)).collect())
                    .collect();
                let len = values.len();
                for residue in 0..64 {
                    for rows in [residue..len, residue..len - residue] {
                        let case = format!("{}: bitcase {bits}, rows {rows:?}", tier.name());
                        let expected: Vec<Vec<usize>> = matches
                            .iter()
                            .map(|m| rows.clone().filter(|&r| m[r]).collect())
                            .collect();
                        for (predicate, expected) in predicates.iter().zip(&expected) {
                            let got = tiled_positions(&packed, rows.clone(), predicate);
                            assert_eq!(got.as_ref(), Ok(expected), "{case}, {predicate:?}");
                        }
                        let count = packed.count_range(rows.clone(), min, max);
                        assert_eq!(count, expected[0].len(), "count: {case}");
                        assert_eq!(
                            batch_positions(&packed, rows.clone(), &predicates),
                            expected,
                            "{case}"
                        );
                    }
                }
            }
        });
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
        assert_eq!(packed.iter().count(), 0);
        on_every_tier(|_| {
            assert_eq!(packed.count_range(0..100, 0, 100), 0);
            let mut called = false;
            packed.scan_range_masks(0..10, 0, 10, |_, _, _| called = true);
            assert!(!called);
        });
    }

    /// Positions the mask stream selects, with its tiling checked: the runs
    /// cover the clamped row range exactly unless nothing can match.
    fn tiled_positions(
        packed: &BitPackedVec,
        range: Range<usize>,
        predicate: &EncodedPredicate,
    ) -> Result<Vec<usize>, String> {
        let end = range.end.min(packed.len());
        let start = range.start.min(end);
        let (mut next, mut tiled) = (start, true);
        let mut out = Vec::new();
        packed.scan_masks(range, predicate, |base, n, mut mask| {
            tiled &= base == next && mask & !low_mask(n) == 0;
            next = base + n as usize;
            while mask != 0 {
                out.push(base + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
        });
        match tiled && (next == end || next == start) {
            true => Ok(out),
            false => Err(format!("mask stream does not tile the range (stopped at {next})")),
        }
    }

    /// On every tier the host supports: the range kernel selects exactly the
    /// scalar oracle's rows, the count agrees, an `IN` list of `vids`
    /// selects exactly a scalar filter's rows, and the batched kernel agrees
    /// with both. `min` reaches one past the largest code, and the span is
    /// log-uniform, so point, narrow and wide ranges all occur.
    fn check_every_tier(
        bits: u8,
        values: &[u32],
        bounds: (u64, u64),
        sub: Range<usize>,
        vids: &[u32],
    ) -> Result<(), String> {
        let lane_max = low_mask(u32::from(bits));
        let packed = BitPackedVec::from_slice(bits, values);
        let min = (bounds.0 % (lane_max + 2)).min(u64::from(u32::MAX)) as u32;
        let span = (bounds.1 % (lane_max + 1)) >> (bounds.1 >> 59);
        let max = min.saturating_add(span as u32);
        let (range_pred, list_pred) = (
            EncodedPredicate::Range(VidRange { first: min, last: max }),
            EncodedPredicate::from_vids(vids.iter().map(|&v| v & lane_max as u32)),
        );
        let end = sub.end.min(values.len());
        let expected_list: Vec<usize> =
            (sub.start.min(end)..end).filter(|&p| list_pred.matches(values[p])).collect();
        for tier in KernelTier::supported() {
            with_tier(tier, || -> Result<(), String> {
                let case = format!("{}: bitcase {bits}, [{min}, {max}] over {sub:?}", tier.name());
                let expected = scalar_matches(&packed, sub.clone(), min, max);
                let got = tiled_positions(&packed, sub.clone(), &range_pred)?;
                prop_assert_eq!(got, expected, "{case}");
                let count = packed.count_range(sub.clone(), min, max);
                prop_assert_eq!(count, expected.len(), "{case}");
                let got = tiled_positions(&packed, sub.clone(), &list_pred)?;
                prop_assert_eq!(got, expected_list, "{case}, {list_pred:?}");
                let batch = [range_pred.clone(), list_pred.clone()];
                let got = batch_positions(&packed, sub.clone(), &batch);
                prop_assert_eq!(got, [expected, expected_list.clone()], "{case}, {list_pred:?}");
                Ok(())
            })?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bitcase x predicate range x row sub-range x `IN` list, on short
        /// vectors.
        #[test]
        fn every_tier_matches_the_scalar_oracle(
            bits in 1u8..=32,
            raw in collection::vec(any::<u32>(), 0..400),
            bounds in (any::<u64>(), any::<u64>()),
            rows in (0usize..450, 0usize..450),
            vids in collection::vec(any::<u32>(), 1..12),
        ) {
            let lane_max = low_mask(u32::from(bits)) as u32;
            let values: Vec<u32> = raw.iter().map(|&v| v & lane_max).collect();
            check_every_tier(bits, &values, bounds, rows.0..rows.0 + rows.1, &vids)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The same on vectors of 4 096 rows and more, where the `avx512`
        /// tier's vector body carries most rows, with lists of up to 40 runs
        /// (past that tier's OR limit of 16) and vids drawn from a few
        /// thousand codes, so that lists match.
        #[test]
        fn every_tier_matches_the_scalar_oracle_on_long_vectors(
            bits in 1u8..=32,
            len in 4096usize..4800,
            seed in any::<u32>(),
            bounds in (any::<u64>(), any::<u64>()),
            rows in (0usize..300, 0usize..5000),
            vids in collection::vec(0u32..4096, 1..40),
        ) {
            let lane_max = low_mask(u32::from(bits)) as u32;
            let values: Vec<u32> = (0..len as u32)
                .map(|i| (i ^ seed).wrapping_mul(2654435761).rotate_left(seed % 32) & lane_max)
                .map(|v| if seed % 2 == 0 { v } else { v % 4096 })
                .collect();
            check_every_tier(bits, &values, bounds, rows.0..rows.0 + rows.1, &vids)?;
        }
    }
}
