//! The per-layer ladder: every rung a timed call into one public function,
//! on the workload's own columns, timed from outside.
//!
//! A rung is probed once per round and reported as the median over rounds,
//! with the round count as its sample count. Rounds repeat until the run's
//! time budget is used (at least [`MIN_ROUNDS`]).

use std::time::Instant;

use crate::adapter::{self, Data, Request};
use crate::stats::median;
use crate::workloads::Roles;

/// Fewest ladder rounds, however short the run.
pub const MIN_ROUNDS: usize = 3;
/// Most ladder rounds, however long the run.
pub const MAX_ROUNDS: usize = 25;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    /// A metric called `name`.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name: name.to_string(), value, unit, samples }
    }
}

/// GB/s of a `u64` wrapping sum over `bytes` of memory: the ceiling every
/// `storage.*_gbps` rung sits under, and — read at the start and the end of
/// a run — a flag for a host that changed speed meanwhile. Median of three.
pub fn roofline_gbps(bytes: usize) -> f64 {
    let words = (bytes / 8).max(1);
    let buffer: Vec<u64> = (0..words as u64).collect();
    let rates: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let sum = std::hint::black_box(&buffer).iter().fold(0u64, |a, v| a.wrapping_add(*v));
            std::hint::black_box(sum);
            (words * 8) as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// A range covering `share` of a column's value domain, centred at `centre`
/// (both `0.0..=1.0`).
fn domain_range(data: &Data, column: &str, centre: f64, share: f64) -> (i64, i64) {
    let (min, max) = data.value_bounds(column);
    let span = (max - min) as f64;
    let lo = min + (span * (centre - share / 2.0).max(0.0)) as i64;
    (lo, (lo + (span * share) as i64).min(max))
}

/// `count` narrow ranges spread evenly over a column's domain, as a crowd
/// of concurrent statements on a hot column would send.
fn spread_ranges(data: &Data, column: &str, count: usize) -> Vec<(i64, i64)> {
    let (min, max) = data.value_bounds(column);
    let width = ((max - min) / 400).max(1);
    (0..count as i64)
        .map(|i| {
            let lo = min + (max - min - width) * i / count as i64;
            (lo, lo + width)
        })
        .collect()
}

/// The aggregation statements the aggregate rungs probe.
#[derive(Debug, Clone)]
pub struct AggregateProbes {
    /// The workload's Q1-shaped statement.
    pub q1: Request,
    /// The workload's Q6-shaped statement.
    pub q6: Request,
}

/// Samples of every storage, scheduler and aggregate rung, one per round.
#[derive(Debug, Default)]
struct Rounds {
    scan_masks_gbps: Vec<f64>,
    scan_positions_ms: Vec<f64>,
    scan_bitvector_ms: Vec<f64>,
    batch_gbps: [Vec<f64>; 3],
    materialize_ns: Vec<f64>,
    rle_scan_mrows: Vec<f64>,
    relayout_ms: Vec<f64>,
    submit_to_start_us: Vec<f64>,
    tasks_per_s: Vec<f64>,
    fused_q1_ns: Vec<f64>,
    fused_q6_ns: Vec<f64>,
    positions_q6_ns: Vec<f64>,
    merge_us: Vec<f64>,
}

/// Probes the storage, scheduler and aggregate rungs on `data` until
/// `deadline` (at least [`MIN_ROUNDS`] rounds) and reports their medians.
pub fn probe_layers(
    data: &Data,
    roles: &Roles,
    aggregates: &AggregateProbes,
    deadline: Instant,
) -> Vec<Metric> {
    let rows = data.rows() as f64;
    let (wide_lo, wide_hi) = domain_range(data, roles.wide, 0.5, 0.01);
    let (run_lo, run_hi) = domain_range(data, roles.sorted, 0.5, 0.01);
    let batches = [2usize, 8, 64].map(|n| spread_ranges(data, roles.hot, n));

    let mut r = Rounds::default();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || (rounds < MAX_ROUNDS && Instant::now() < deadline) {
        rounds += 1;
        let (s, bytes) = adapter::probe_scan_masks(data, roles.wide, wide_lo, wide_hi);
        r.scan_masks_gbps.push(bytes as f64 / s / 1e9);
        r.scan_positions_ms
            .push(adapter::probe_scan_positions(data, roles.wide, wide_lo, wide_hi) * 1e3);
        r.scan_bitvector_ms
            .push(adapter::probe_scan_bitvector(data, roles.wide, wide_lo, wide_hi) * 1e3);
        for (slot, ranges) in batches.iter().enumerate() {
            // Bytes served: every predicate of the batch is owed one pass.
            let (s, pass_bytes) = adapter::probe_batch(data, roles.hot, ranges);
            r.batch_gbps[slot].push((pass_bytes * ranges.len() as u64) as f64 / s / 1e9);
        }
        let (s, values) = adapter::probe_materialize(data, roles.wide, wide_lo, wide_hi);
        r.materialize_ns.push(s * 1e9 / values.max(1) as f64);
        let rle = adapter::probe_rle(data, roles.sorted, run_lo, run_hi);
        r.rle_scan_mrows.push(rows / rle.scan_s / 1e6);
        r.relayout_ms.push((rle.to_rle_s + rle.to_bitpacked_s) * 1e3);
        let sched = adapter::probe_scheduler(100, 1000);
        r.submit_to_start_us.push(median(&sched.submit_to_start_us));
        r.tasks_per_s.push(sched.tasks_per_s);
        let (s, scanned) = adapter::probe_fused(data, &aggregates.q1);
        r.fused_q1_ns.push(s * 1e9 / scanned as f64);
        let (s, scanned) = adapter::probe_fused(data, &aggregates.q6);
        r.fused_q6_ns.push(s * 1e9 / scanned as f64);
        let (s, folded) = adapter::probe_positions_fold(data, &aggregates.q6);
        r.positions_q6_ns.push(s * 1e9 / folded.max(1) as f64);
        r.merge_us.push(adapter::probe_merge(data, &aggregates.q1) * 1e6);
    }

    let m = |name: &str, samples: &[f64], unit: &'static str| {
        Metric::new(name, median(samples), unit, samples.len())
    };
    vec![
        m("storage.scan_masks_gbps", &r.scan_masks_gbps, "GB/s"),
        m("storage.scan_positions_ms", &r.scan_positions_ms, "ms"),
        m("storage.scan_bitvector_ms", &r.scan_bitvector_ms, "ms"),
        m("storage.batch2_gbps", &r.batch_gbps[0], "GB/s"),
        m("storage.batch8_gbps", &r.batch_gbps[1], "GB/s"),
        m("storage.batch64_gbps", &r.batch_gbps[2], "GB/s"),
        m("storage.materialize_ns_per_value", &r.materialize_ns, "ns"),
        m("storage.rle_scan_mrows_per_s", &r.rle_scan_mrows, "Mrows/s"),
        m("storage.relayout_ms", &r.relayout_ms, "ms"),
        m("scheduler.submit_to_start_us", &r.submit_to_start_us, "us"),
        m("scheduler.tasks_per_s", &r.tasks_per_s, "1/s"),
        m("core.aggregate.fused_q1_ns_per_row", &r.fused_q1_ns, "ns"),
        m("core.aggregate.fused_q6_ns_per_row", &r.fused_q6_ns, "ns"),
        m("core.aggregate.positions_q6_ns_per_row", &r.positions_q6_ns, "ns"),
        m("core.aggregate.merge_us", &r.merge_us, "us"),
    ]
}

/// Seconds `TableBuilder::build` takes to dictionary-encode the table's own
/// decoded columns again.
pub fn table_build_s(data: &Data) -> f64 {
    let columns: Vec<(String, Vec<i64>)> =
        data.column_names().into_iter().map(|name| (name.clone(), data.decode(&name))).collect();
    let start = Instant::now();
    let rebuilt = Data::from_columns("rebuilt", &columns);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(rebuilt.rows(), data.rows());
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Sizes, Workload};

    #[test]
    fn probe_ranges_stay_inside_the_domain() {
        let data = Workload::SoloMix.generate(&Sizes::smoke(), 4);
        let (min, max) = data.value_bounds("l_extendedprice");
        let (lo, hi) = domain_range(&data, "l_extendedprice", 0.5, 0.01);
        assert!(min <= lo && lo < hi && hi <= max);
        for n in [2, 8, 64] {
            let ranges = spread_ranges(&data, "l_shipdate", n);
            assert_eq!(ranges.len(), n);
            let (min, max) = data.value_bounds("l_shipdate");
            assert!(ranges.iter().all(|(lo, hi)| min <= *lo && lo < hi && *hi <= max));
        }
    }

    #[test]
    fn the_roofline_reads_a_positive_rate() {
        assert!(roofline_gbps(1 << 20) > 0.0);
    }
}
