//! The adaptive data placer (Section 7) in action.
//!
//! Starts from an RR placement that concentrates two hot columns on one
//! socket, measures socket utilization with the simulation engine, and lets
//! the adaptive data placer move / repartition data until utilization is
//! balanced — then shows the throughput before and after.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example adaptive_placement
//! ```

use numascan::core::adaptive::{AdaptiveDataPlacer, PlacerAction};
use numascan::core::{
    Catalog, ColumnRef, PlacedTable, PlacementStrategy, SimConfig, SimEngine, SimReport,
};
use numascan::numasim::{Machine, Topology};
use numascan::scheduler::SchedulingStrategy;
use numascan::workload::{paper_table_spec, ColumnSelection, ScanWorkload};

/// Runs the hot-column workload against the current placement.
fn measure(machine: &mut Machine, catalog: &Catalog) -> SimReport {
    // Every query hits column 1 (the first payload column) — a severe hotspot.
    let mut workload = ScanWorkload::new(0, 8, ColumnSelection::Single(0), 0.00001, 5);
    let config = SimConfig {
        strategy: SchedulingStrategy::Bound,
        clients: 128,
        target_queries: 600,
        ..SimConfig::default()
    };
    SimEngine::new(machine, catalog, config).run(&mut workload)
}

fn main() {
    let topology = Topology::four_socket_ivybridge_ex();
    let mut machine = Machine::new(topology.clone());
    let spec = paper_table_spec(4_000_000, 8, false);
    let table = PlacedTable::place(&topology, &spec, PlacementStrategy::RoundRobin);
    let mut catalog = Catalog::new();
    catalog.add_table(table);

    let placer = AdaptiveDataPlacer::default();
    let hot_column = ColumnRef { table: 0, column: 1 };

    for step in 0..4 {
        let report = measure(&mut machine, &catalog);
        let utilization = AdaptiveDataPlacer::utilization_from_report(&report, &topology);
        let util_str: Vec<String> =
            utilization.iter().map(|u| format!("{:.0}%", u * 100.0)).collect();
        println!(
            "step {step}: throughput {:>9.0} q/min, socket utilization [{}]",
            report.throughput_qpm,
            util_str.join(", ")
        );

        // One closed-loop rebalance step: derive socket utilization and
        // per-column heat from the measurement, decide, and apply.
        let action = placer.rebalance_step(&topology, &mut catalog, &report);
        match &action {
            PlacerAction::None => {
                println!("placer: utilization is balanced, nothing to do");
                break;
            }
            other => println!("placer: {other:?}"),
        }
    }

    let final_report = measure(&mut machine, &catalog);
    println!(
        "\nfinal placement: {} IV partitions, throughput {:.0} q/min",
        catalog.column(hot_column).iv_segments.len(),
        final_report.throughput_qpm
    );
}
