//! Figure 12: combinations of scheduling strategies and IVP granularities on
//! the 32-socket rack-scale machine at the highest concurrency.
//!
//! The paper's findings: OS is the worst and insensitive to placement; Target
//! loses badly to Bound (stealing memory-intensive tasks over long-hop links,
//! around 58 % worse for RR); and increasing the number of partitions beyond
//! what is needed costs up to ~70 % of the throughput relative to RR.

use numascan_core::PlacementStrategy;
use numascan_numasim::Topology;
use numascan_scheduler::SchedulingStrategy;

use crate::harness::{fmt, ResultTable};
use crate::runner::{run_scan, ScanRunConfig};
use crate::scale::ExperimentScale;

/// The IVP granularities swept on the 32-socket machine (1 degenerates to RR).
pub fn granularities() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32]
}

/// Regenerates Figure 12.
pub fn run(scale: &ExperimentScale) -> Vec<ResultTable> {
    let clients = clients(scale);
    let mut table = ResultTable::new(
        "fig12",
        format!("32-socket server, {clients} clients: throughput (q/min) by scheduling strategy and IVP granularity"),
        &["placement", "OS", "Target", "Bound"],
    );
    for parts in granularities() {
        table.push_row(row(scale, parts));
    }
    vec![table]
}

/// The over-partitioning penalty appears once the concurrency is high
/// relative to the machine (the paper uses 1024 clients on 1920 hardware
/// contexts); clamp the client count up accordingly even at quick scale.
fn clients(scale: &ExperimentScale) -> usize {
    scale.high_concurrency.max(Topology::thirty_two_socket_ivybridge_ex().total_contexts() / 2)
}

/// The placement of `parts`-way IVP; 1 is RR.
fn placement(parts: usize) -> PlacementStrategy {
    if parts == 1 {
        PlacementStrategy::RoundRobin
    } else {
        PlacementStrategy::IndexVectorPartitioned { parts }
    }
}

/// One row of Figure 12 — placement label, then OS, Target and Bound
/// throughput — for `parts`-way IVP (1 is RR).
pub fn row(scale: &ExperimentScale, parts: usize) -> Vec<String> {
    let cells = SchedulingStrategy::ALL.map(|strategy| fmt(cell(scale, parts, strategy)));
    std::iter::once(placement(parts).label()).chain(cells).collect()
}

/// One cell of Figure 12: the throughput (q/min) of `strategy` over
/// `parts`-way IVP (1 is RR). Each cell builds its own machine, so a cell
/// computed alone matches the same cell of the full figure.
pub fn cell(scale: &ExperimentScale, parts: usize, strategy: SchedulingStrategy) -> f64 {
    let clients = clients(scale);
    let config = ScanRunConfig {
        topology: Topology::thirty_two_socket_ivybridge_ex(),
        placement: placement(parts),
        clients,
        strategy,
        ..ScanRunConfig::new(clients)
    };
    run_scan(&config, scale).throughput_qpm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stealing_and_over_partitioning_hurt_on_the_rack_scale_machine() {
        let scale = ExperimentScale {
            rows: 2_000_000,
            payload_columns: 32,
            client_sweep: vec![256],
            high_concurrency: 256,
            max_queries: 600,
            max_virtual_seconds: 20.0,
        };
        // Only the asserted cells are run: RR under every strategy, and
        // IVP32 under Bound.
        let [rr_os, rr_target, rr_bound] =
            SchedulingStrategy::ALL.map(|strategy| cell(&scale, 1, strategy));
        // Bound >= Target for RR, by a sizeable margin (the paper reports 58%).
        assert!(
            rr_bound > 1.2 * rr_target,
            "Bound {rr_bound} should clearly beat Target {rr_target} for RR"
        );
        // Partitioning across all 32 sockets is much slower than RR under
        // Bound (the paper reports ~70%).
        let ivp32_bound = cell(&scale, 32, SchedulingStrategy::Bound);
        assert!(
            ivp32_bound < 0.7 * rr_bound,
            "IVP32 {ivp32_bound} should lose substantially to RR {rr_bound}"
        );
        // OS is the worst strategy for RR.
        assert!(rr_os < rr_bound);
    }
}
