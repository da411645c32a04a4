//! Simulation results.

use numascan_numasim::HwCounters;
use numascan_scheduler::SchedulerStats;

/// Summary statistics of the per-query latency distribution (the paper shows
/// these as violin plots in Figure 11).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency in milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency in milliseconds.
    pub p99_ms: f64,
    /// Maximum latency in milliseconds.
    pub max_ms: f64,
    /// Standard deviation in milliseconds.
    pub stddev_ms: f64,
}

impl LatencyStats {
    /// Computes the statistics from raw latencies (in seconds).
    pub fn from_latencies_seconds(latencies: &[f64]) -> Self {
        if latencies.is_empty() {
            return LatencyStats {
                mean_ms: 0.0,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
                stddev_ms: 0.0,
            };
        }
        let mut sorted: Vec<f64> = latencies.iter().map(|l| l * 1e3).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / n as f64;
        let pct = |p: f64| sorted[((p * (n - 1) as f64).round() as usize).min(n - 1)];
        LatencyStats {
            mean_ms: mean,
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            max_ms: sorted[n - 1],
            stddev_ms: var.sqrt(),
        }
    }

    /// Coefficient of variation (stddev / mean): a measure of how *unfair* the
    /// latency distribution is.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean_ms <= 0.0 {
            0.0
        } else {
            self.stddev_ms / self.mean_ms
        }
    }
}

/// Traffic attributed to one column over the measurement (planned work of the
/// queries that selected it). This is the workload signal the adaptive data
/// placer of Section 7 consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnTraffic {
    /// Which column.
    pub column: crate::query::ColumnRef,
    /// Queries issued against the column.
    pub queries: u64,
    /// Bytes the column's queries stream sequentially (IV scans, output).
    pub stream_bytes: f64,
    /// Bytes the column's queries touch through random accesses (index and
    /// dictionary lookups).
    pub random_bytes: f64,
}

impl ColumnTraffic {
    /// Total bytes attributed to the column.
    pub fn total_bytes(&self) -> f64 {
        self.stream_bytes + self.random_bytes
    }

    /// Whether the column's workload is dominated by sequential IV scanning
    /// (then IVP is the appropriate way to partition it) rather than by index
    /// lookups / materialization (then PP is).
    pub fn is_iv_intensive(&self) -> bool {
        self.stream_bytes >= 3.0 * self.random_bytes
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Number of queries that completed during the measurement.
    pub completed_queries: u64,
    /// Virtual seconds the measurement covered.
    pub elapsed_seconds: f64,
    /// Throughput in queries per minute.
    pub throughput_qpm: f64,
    /// Latency distribution statistics.
    pub latency: LatencyStats,
    /// Raw per-query latencies in seconds (for violin-plot style analyses).
    pub latencies_seconds: Vec<f64>,
    /// Hardware counters accumulated over the measurement.
    pub counters: HwCounters,
    /// Scheduler statistics (tasks executed, stolen).
    pub scheduler: SchedulerStats,
    /// Per-column traffic, sorted by descending total bytes.
    pub column_traffic: Vec<ColumnTraffic>,
}

impl SimReport {
    /// CPU load in percent.
    pub fn cpu_load_percent(&self) -> f64 {
        self.counters.cpu_load_percent()
    }

    /// Memory throughput per socket in GiB/s.
    pub fn memory_throughput_gibs(&self) -> Vec<f64> {
        self.counters.memory_throughput_gibs()
    }

    /// Aggregate memory throughput in GiB/s.
    pub fn total_memory_throughput_gibs(&self) -> f64 {
        self.counters.total_memory_throughput_gibs()
    }

    /// Local and remote LLC load misses.
    pub fn llc_misses(&self) -> (f64, f64) {
        self.counters.llc_misses()
    }

    /// Instructions-per-cycle proxy.
    pub fn ipc(&self) -> f64 {
        self.counters.ipc()
    }

    /// Total tasks executed.
    pub fn tasks_executed(&self) -> u64 {
        self.scheduler.executed
    }

    /// Tasks stolen across sockets.
    pub fn tasks_stolen(&self) -> u64 {
        self.scheduler.stolen_cross_socket
    }

    /// Wakeups that found no task to take (see
    /// [`numascan_scheduler::SchedulerStats::false_wakeup_fraction`]).
    pub fn false_wakeup_fraction(&self) -> f64 {
        self.scheduler.false_wakeup_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_from_known_distribution() {
        let latencies: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-3).collect();
        let stats = LatencyStats::from_latencies_seconds(&latencies);
        assert!((stats.mean_ms - 50.5).abs() < 1e-9);
        assert!((stats.p50_ms - 50.0).abs() < 1.01);
        assert!((stats.p95_ms - 95.0).abs() < 1.01);
        assert_eq!(stats.max_ms, 100.0);
        assert!(stats.stddev_ms > 0.0);
        assert!(stats.coefficient_of_variation() > 0.0);
    }

    #[test]
    fn empty_latencies_yield_zeroes() {
        let stats = LatencyStats::from_latencies_seconds(&[]);
        assert_eq!(stats.mean_ms, 0.0);
        assert_eq!(stats.coefficient_of_variation(), 0.0);
    }
}
