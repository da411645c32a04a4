//! Helpers shared by the integration tests.
//!
//! [`paired_medians`] is the one timing method of the release gates. A gate
//! compares two shapes of the same work in one process. Both are timed back
//! to back in interleaved rounds, alternating which runs first, and their
//! medians compared, so host drift cancels out of the ratio instead of being
//! hidden by a best-of minimum.
//!
//! [`oracle_rows`] is the one row oracle the scan tests check results
//! against. Each test binary compiles this module on its own and uses only
//! some of it, hence the `dead_code` allowance.

#![allow(dead_code)]

use std::ops::Range;
use std::time::{Duration, Instant};

use numascan::core::{ScanRequest, ScanSpec};
use numascan::storage::Table;

/// The sequential oracle: a naive filter of `request`'s column over `rows`,
/// returning the qualifying values in row order.
pub fn oracle_rows(table: &Table, rows: Range<usize>, request: &ScanRequest) -> Vec<i64> {
    let (_, column) = table.column_by_name(request.column()).expect("oracle column exists");
    let keep = |value: &i64| match &request.spec {
        ScanSpec::Between { lo, hi } => (*lo..=*hi).contains(value),
        ScanSpec::InList { values } => values.contains(value),
    };
    rows.map(|row| *column.value_at(row)).filter(keep).collect()
}

/// Interleaved rounds per gate; odd, so the median is one measured round.
const ROUNDS: usize = 11;

/// Median wall time of each of two closures, timed back to back in
/// [`ROUNDS`] interleaved rounds (alternating which goes first). Each result
/// is passed through `black_box`, so the work cannot be optimized away.
pub fn paired_medians<A, B>(
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (Duration, Duration) {
    fn time<R>(f: &mut impl FnMut() -> R) -> Duration {
        let started = Instant::now();
        std::hint::black_box(f());
        started.elapsed()
    }
    let (mut ta, mut tb) = (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            ta.push(time(&mut a));
            tb.push(time(&mut b));
        } else {
            tb.push(time(&mut b));
            ta.push(time(&mut a));
        }
    }
    ta.sort_unstable();
    tb.sort_unstable();
    (ta[ROUNDS / 2], tb[ROUNDS / 2])
}
