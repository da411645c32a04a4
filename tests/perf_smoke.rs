//! Release-mode performance smoke test for the storage scan kernels.
//!
//! Asserts the paper's premise (Section 4.1) that a word-parallel scan over a
//! bit-packed index vector beats a per-element decode by a wide margin: the
//! SWAR mask kernel must deliver at least 2x the throughput of the retained
//! scalar reference on a 4M-row range scan. The margin is deliberately
//! generous (the kernel typically wins by far more) so scheduler noise on a
//! busy CI machine cannot flake the test.
//!
//! Every gate compares two shapes of the same work in one process — SWAR
//! against scalar, the code-level PP rebuild against the per-row one, an `IN`
//! list against a range of like selectivity — timed by
//! [`common::paired_medians`], so host drift cancels out of the ratio.
//!
//! The kernels run on the tier the host supports
//! ([`KernelTier::detected`]); every gate prints that tier and its ratio.
//!
//! The timing assertion is only meaningful with optimizations on, so the test
//! is ignored in debug builds and run by CI via
//! `cargo test --release --test perf_smoke -- --nocapture`.

mod common;

use std::sync::{Mutex, MutexGuard};

use common::paired_medians;
use numascan::storage::{
    scan_positions, BitPackedVec, DictColumn, KernelTier, PhysicalPartitioning, Predicate,
};

const ROWS: usize = 4_000_000;

/// Held by every test while it times: the harness runs tests on parallel
/// threads, and a timing taken while another test loads the cores measures
/// the contention. A panicking holder leaves nothing to repair.
static TIMING: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    TIMING.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn packed_column(bits: u8) -> BitPackedVec {
    let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
    let values: Vec<u32> =
        (0..ROWS as u32).map(|i| i.wrapping_mul(2654435761).rotate_left(9) & mask).collect();
    BitPackedVec::from_slice(bits, &values)
}

fn assert_speedup(bits: u8, selectivity: f64, factor: f64) {
    let packed = packed_column(bits);
    let lane_max = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
    let min = lane_max / 10;
    let max = min + ((f64::from(lane_max) * selectivity) as u32).max(1);
    let scalar_count = || {
        let mut count = 0;
        packed.scan_range_scalar(0..ROWS, min, max, |p| {
            // The seed's real callbacks (position pushes) have side effects
            // the compiler cannot elide; keep this one equally opaque so
            // LLVM cannot quietly auto-vectorize the baseline into SIMD and
            // the measured ratio swings with codegen luck.
            std::hint::black_box(p);
            count += 1;
        });
        count
    };
    let swar_count = || packed.count_range(0..ROWS, min, max);
    assert_eq!(swar_count(), scalar_count(), "kernels disagree at bitcase {bits}");
    let (swar, scalar) = paired_medians(swar_count, scalar_count);
    let ratio = scalar.as_secs_f64() / swar.as_secs_f64();
    let tier = KernelTier::detected().name();
    println!(
        "bitcase {bits} ({tier} tier): SWAR {swar:?} vs scalar {scalar:?} (median), {ratio:.2}x"
    );
    assert!(
        ratio >= factor,
        "bitcase {bits}: SWAR kernel ({swar:?}, median) must be at least {factor}x faster than \
         the scalar reference ({scalar:?}, median) over {ROWS} rows"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing assertions require a release build")]
fn word_parallel_kernel_beats_scalar_reference_on_4m_rows() {
    let _timing = exclusive();
    // Bitcases 8 and 12: eight and five codes per loaded window. Both run
    // well above 3x in practice; 2x is the flake-proof floor.
    assert_speedup(8, 0.05, 2.0);
    assert_speedup(12, 0.05, 2.0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing assertions require a release build")]
fn word_parallel_kernel_wins_at_the_paper_widest_bitcases() {
    let _timing = exclusive();
    // Bitcase 17 (the dataset's smallest bitcase: 3 codes per window) runs
    // around 1.5x on the portable tier, 2.4x on the BMI2 tier and 8-20x on
    // the AVX-512 tier; 1.4x is the conservative gate. Bitcase 26 packs only 2 codes per window and
    // its win is smallest — gate it below parity so a CI runner where the
    // two kernels tie cannot flake the step, while a real regression (SWAR
    // clearly losing) still fails.
    assert_speedup(17, 0.05, 1.4);
    assert_speedup(26, 0.05, 0.9);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing assertions require a release build")]
fn physical_repartitioning_beats_the_per_row_value_rebuild() {
    let _timing = exclusive();
    // PP rebuilds used to clone every value out of the dictionary and
    // re-deduplicate from scratch; the code-level rebuild (presence bitmap
    // over the packed vids, one clone per *distinct* value, dense remap)
    // must clearly beat that on a large low-cardinality column. 1.3x is the
    // flake-proof floor; the win is typically far larger.
    let rows = 2_000_000usize;
    let values: Vec<i64> = (0..rows as i64).map(|i| (i * 7919) % 4096).collect();
    let column = DictColumn::from_values("big", &values);

    let fast = || PhysicalPartitioning::create(&column, 4).row_count();
    let naive = || {
        let parts: Vec<DictColumn<i64>> = numascan::storage::ivp_ranges(rows, 4)
            .into_iter()
            .map(|range| {
                let vals: Vec<i64> = range.clone().map(|p| *column.value_at(p)).collect();
                DictColumn::from_values(format!("big#{}-{}", range.start, range.end), &vals)
            })
            .collect();
        parts.iter().map(|p| p.row_count()).sum::<usize>()
    };
    assert_eq!(fast(), naive());
    let (fast, naive) = paired_medians(fast, naive);
    let ratio = naive.as_secs_f64() / fast.as_secs_f64();
    println!("PP rebuild: code-level {fast:?} vs per-row {naive:?} (median), {ratio:.2}x");
    assert!(
        ratio >= 1.3,
        "code-level PP rebuild ({fast:?}, median) must be at least 1.3x faster than the \
         per-row value rebuild ({naive:?}, median) over {rows} rows"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing assertions require a release build")]
fn in_lists_cost_about_what_a_range_costs() {
    let _timing = exclusive();
    // 2^17 distinct values, each ~30 times: a 17-bit column (3 codes per
    // window), where an IN list has more runs than a window has lanes. The
    // AVX-512 tier ORs its 5 runs on the blocks the list's bounding range
    // hits and reads about 1.0-1.1x; a tier that sped up ranges alone
    // would fail here.
    let domain = 1i64 << 17;
    let values: Vec<i64> = (0..ROWS as i64).map(|i| (i * 7919) % domain).collect();
    let column = DictColumn::from_values("c", &values);
    assert_eq!(column.bitcase(), 17);
    let in_list = Predicate::InList(vec![1000, 1060, 1120, 1180, 1249]);
    let between = Predicate::Between { lo: 1000, hi: 1003 };
    let expected = |p: &Predicate<i64>| {
        values
            .iter()
            .filter(|v| match p {
                Predicate::InList(list) => list.contains(v),
                _ => (1000..=1003).contains(*v),
            })
            .count()
    };
    let (list_expected, range_expected) = (expected(&in_list), expected(&between));
    let in_list = in_list.encode(column.dictionary());
    let between = between.encode(column.dictionary());
    let (list, range) = paired_medians(
        || {
            let got = scan_positions(&column, 0..ROWS, &in_list).len();
            assert_eq!(got, list_expected);
            got
        },
        || {
            let got = scan_positions(&column, 0..ROWS, &between).len();
            assert_eq!(got, range_expected);
            got
        },
    );
    let (tier, ratio) = (KernelTier::detected().name(), list.as_secs_f64() / range.as_secs_f64());
    println!("IN list ({tier} tier): {list:?} vs BETWEEN {range:?} (median), {ratio:.2}x");
    assert!(
        list.as_secs_f64() <= 1.5 * range.as_secs_f64(),
        "a 5-vid IN list ({list:?}, median) must cost at most 1.5x a 4-vid BETWEEN \
         ({range:?}, median) on the same {ROWS}-row 17-bit column"
    );
}
