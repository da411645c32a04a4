//! Shared experiment runner.
//!
//! Every scan experiment of the paper follows the same recipe: build the
//! dataset, place it with a data placement strategy, start N closed-loop
//! clients with a column-selection distribution and a selectivity, schedule
//! with OS / Target / Bound, and measure throughput plus hardware counters.
//! [`run_scan`] packages that recipe.

use numascan_core::{Catalog, PlacementStrategy, SimConfig, SimEngine, SimReport};
use numascan_numasim::{Machine, Topology};
use numascan_scheduler::SchedulingStrategy;
use numascan_workload::{build_catalog, paper_table_spec, ColumnSelection, ScanWorkload};

use crate::scale::ExperimentScale;

/// Configuration of one scan-experiment data point.
#[derive(Debug, Clone)]
pub struct ScanRunConfig {
    /// Machine to simulate.
    pub topology: Topology,
    /// Data placement strategy.
    pub placement: PlacementStrategy,
    /// Task scheduling strategy.
    pub strategy: SchedulingStrategy,
    /// Number of concurrent clients.
    pub clients: usize,
    /// Predicate selectivity.
    pub selectivity: f64,
    /// Column selection distribution.
    pub selection: ColumnSelection,
    /// Whether columns carry inverted indexes and the optimizer may use them.
    pub with_index: bool,
    /// Whether intra-query parallelism is enabled.
    pub parallelism: bool,
    /// Random seed of the workload.
    pub seed: u64,
}

impl ScanRunConfig {
    /// A default configuration: 4-socket machine, RR placement, Bound
    /// scheduling, uniform selection, the paper's low selectivity (0.001 %),
    /// no indexes, parallelism enabled.
    pub fn new(clients: usize) -> Self {
        ScanRunConfig {
            topology: Topology::four_socket_ivybridge_ex(),
            placement: PlacementStrategy::RoundRobin,
            strategy: SchedulingStrategy::Bound,
            clients,
            selectivity: 0.00001,
            selection: ColumnSelection::Uniform,
            with_index: false,
            parallelism: true,
            seed: 0xC0FFEE,
        }
    }
}

/// Builds the machine and catalog for a configuration (useful when a caller
/// wants to run several strategies against the same placement).
pub fn build_machine_and_catalog(
    config: &ScanRunConfig,
    scale: &ExperimentScale,
) -> (Machine, Catalog) {
    let spec = paper_table_spec(scale.rows, scale.payload_columns, config.with_index);
    let catalog = build_catalog(&config.topology, &spec, config.placement);
    (Machine::new(config.topology.clone()), catalog)
}

/// Runs one scan-experiment data point and returns the simulation report.
pub fn run_scan(config: &ScanRunConfig, scale: &ExperimentScale) -> SimReport {
    let (mut machine, catalog) = build_machine_and_catalog(config, scale);
    run_scan_on(&mut machine, &catalog, config, scale)
}

/// Runs one scan-experiment data point against an existing machine/catalog.
pub fn run_scan_on(
    machine: &mut Machine,
    catalog: &Catalog,
    config: &ScanRunConfig,
    scale: &ExperimentScale,
) -> SimReport {
    let mut workload = ScanWorkload::new(
        0,
        scale.payload_columns,
        config.selection.clone(),
        config.selectivity,
        config.seed,
    )
    .with_indexes(config.with_index);
    let sim_config = SimConfig {
        strategy: config.strategy,
        clients: config.clients,
        parallelism: config.parallelism,
        target_queries: scale.target_queries(config.clients),
        max_virtual_seconds: scale.max_virtual_seconds,
        ..SimConfig::default()
    };
    SimEngine::new(machine, catalog, sim_config).run(&mut workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_produces_a_complete_report() {
        let mut scale = ExperimentScale::quick();
        scale.rows = 1_000_000;
        scale.payload_columns = 8;
        scale.max_queries = 200;
        let report = run_scan(&ScanRunConfig::new(16), &scale);
        assert!(report.completed_queries > 0);
        assert!(report.throughput_qpm > 0.0);
    }

    #[test]
    fn strategies_can_share_a_placement() {
        let mut scale = ExperimentScale::quick();
        scale.rows = 1_000_000;
        scale.payload_columns = 8;
        scale.max_queries = 150;
        let config = ScanRunConfig::new(32);
        let (mut machine, catalog) = build_machine_and_catalog(&config, &scale);
        let bound = run_scan_on(&mut machine, &catalog, &config, &scale);
        let os_config = ScanRunConfig { strategy: SchedulingStrategy::Os, ..config };
        let os = run_scan_on(&mut machine, &catalog, &os_config, &scale);
        assert!(bound.throughput_qpm > os.throughput_qpm);
    }
}
