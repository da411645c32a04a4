//! Real-machine micro-benchmarks: SWAR scan bandwidth per bitcase and the
//! scheduler's hard-affinity submit latency.
//!
//! Unlike the figure experiments these do not run in virtual time: the scan
//! rows stream real packed words through [`numascan_storage::BitPackedVec`]'s
//! word-parallel kernels, and the latency rows time a real
//! [`numascan_scheduler::ThreadPool`] from `submit` to task start. The
//! batched column shows the whole point of cooperative shared scans: one
//! unaligned 64-bit window read serves a batch of predicates, so per-query
//! bandwidth stops being the bottleneck.

use std::sync::mpsc;
use std::time::Instant;

use numascan_numasim::Topology;
use numascan_scheduler::{PoolConfig, SchedulingStrategy, TaskMeta, TaskPriority, ThreadPool};
use numascan_storage::{BitPackedVec, EncodedPredicate, VidRange};

use crate::harness::{fmt, ResultTable};
use crate::scale::ExperimentScale;

/// The bitcases the scan-bandwidth rows sweep: one below, at, and above the
/// byte boundary, plus a wide case that still packs two codes per word.
const BITCASES: [u8; 4] = [8, 12, 17, 26];

/// Predicates evaluated per window by the batched kernel rows.
const BATCH: usize = 8;

fn packed_rows(scale: &ExperimentScale) -> usize {
    (scale.rows / 4).clamp(250_000, 8_000_000) as usize
}

/// Best-of-N wall time of `work`, in seconds.
fn best_of<F: FnMut() -> u64>(repeats: usize, mut work: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0;
    for _ in 0..repeats.max(1) {
        let started = Instant::now();
        checksum = work();
        best = best.min(started.elapsed().as_secs_f64());
    }
    (best, checksum)
}

fn scan_bandwidth_table(scale: &ExperimentScale) -> ResultTable {
    let rows = packed_rows(scale);
    let mut table = ResultTable::new(
        "kernels",
        "SWAR range-scan bandwidth per bitcase: single-predicate kernel vs one batched sweep \
         serving 8 predicates (packed GB/s; batched aggregate counts every served predicate)",
        &["Bitcase", "Rows", "Single GB/s", "Batched sweep GB/s", "Batched aggregate GB/s"],
    );
    for bits in BITCASES {
        let lane_max = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        let domain = lane_max.min(9_973);
        let values: Vec<u32> =
            (0..rows).map(|i| (i as u32).wrapping_mul(2_654_435_761) % (domain + 1)).collect();
        let packed = BitPackedVec::from_slice(bits, &values);
        let packed_gb = packed.memory_bytes() as f64 / 1e9;

        // Eight predicates spread over the domain, each ~12 % selective.
        let width = domain / 8;
        let bounds: Vec<(u32, u32)> =
            (0..BATCH as u32).map(|q| (q * width, q * width + width / 2)).collect();
        let predicates: Vec<EncodedPredicate> = bounds
            .iter()
            .map(|&(first, last)| EncodedPredicate::Range(VidRange { first, last }))
            .collect();
        let predicates: Vec<&EncodedPredicate> = predicates.iter().collect();

        let (single, single_hits) = best_of(3, || {
            let mut hits = 0u64;
            for &(lo, hi) in &bounds {
                packed.scan_range_masks(0..rows, lo, hi, |_, _, mask| {
                    hits += mask.count_ones() as u64;
                });
            }
            hits
        });
        let (batched, batched_hits) = best_of(3, || {
            let mut hits = 0u64;
            packed.scan_masks_batch(0..rows, &predicates, |_, _, masks| {
                for mask in masks {
                    hits += mask.count_ones() as u64;
                }
            });
            hits
        });
        assert_eq!(single_hits, batched_hits, "kernels must agree on bitcase {bits}");

        table.push_row([
            bits.to_string(),
            rows.to_string(),
            // The single kernel streams the column once per predicate; its
            // per-predicate bandwidth is the whole pass over 8 predicates.
            fmt(packed_gb * BATCH as f64 / single),
            fmt(packed_gb / batched),
            fmt(packed_gb * BATCH as f64 / batched),
        ]);
    }
    table
}

fn submit_latency_table(scale: &ExperimentScale) -> ResultTable {
    let topology = Topology::four_socket_ivybridge_ex();
    let pool = ThreadPool::new(
        &topology,
        PoolConfig { strategy: SchedulingStrategy::Bound, ..PoolConfig::default() },
    );
    let probes_per_socket = (scale.max_queries as usize / 8).clamp(50, 400);

    let mut table = ResultTable::new(
        "submit-latency",
        "Hard-affinity submit-to-start latency per socket (Bound strategy, idle pool)",
        &["Socket", "Probes", "Mean us", "p99 us", "Max us"],
    );
    for socket in topology.socket_ids() {
        let (tx, rx) = mpsc::channel::<f64>();
        for i in 0..probes_per_socket {
            let tx = tx.clone();
            let submitted = Instant::now();
            let meta = TaskMeta::bound(TaskPriority::new(0, i as u64), socket, true);
            pool.submit(meta, move || {
                let _ = tx.send(submitted.elapsed().as_secs_f64() * 1e6);
            });
            pool.wait_idle();
        }
        drop(tx);
        let mut latencies: Vec<f64> = rx.iter().collect();
        latencies.sort_by(|a, b| a.total_cmp(b));
        let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
        let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
        table.push_row([
            format!("{}", socket.index()),
            latencies.len().to_string(),
            fmt(mean),
            fmt(p99),
            fmt(*latencies.last().unwrap()),
        ]);
    }
    let stats = pool.stats();
    assert_eq!(stats.affinity_violations, 0, "hard-affinity probes must stay home: {stats:?}");
    pool.shutdown();
    table
}

/// Runs the kernel and submit-latency micro-benchmarks.
pub fn run(scale: &ExperimentScale) -> Vec<ResultTable> {
    vec![scan_bandwidth_table(scale), submit_latency_table(scale)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_experiment_reports_every_bitcase_and_socket() {
        let mut scale = ExperimentScale::quick();
        scale.rows = 1_000_000;
        scale.max_queries = 400;
        let tables = run(&scale);

        let kernels = &tables[0];
        assert_eq!(kernels.rows.len(), BITCASES.len());
        for bits in BITCASES {
            let single = kernels.cell_f64(&bits.to_string(), "Single GB/s").unwrap();
            let aggregate = kernels.cell_f64(&bits.to_string(), "Batched aggregate GB/s").unwrap();
            assert!(single > 0.0 && aggregate > 0.0, "{kernels:?}");
        }

        let latency = &tables[1];
        assert_eq!(latency.rows.len(), 4, "one row per socket");
        for row in &latency.rows {
            let mean: f64 = row[2].parse().unwrap();
            assert!(mean > 0.0, "{latency:?}");
        }
    }
}
