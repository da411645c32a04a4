//! Skewed workload example: 80 % of the queries hit half of the columns.
//!
//! Demonstrates the paper's two central findings on a skewed, memory-intensive
//! workload: (a) stealing memory-intensive tasks hurts (Target loses to
//! Bound), and (b) partitioning the hot data smooths the skew (IVP/PP beat RR).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example skewed_workload
//! ```

use numascan::core::{Catalog, PlacedTable, PlacementStrategy, SimConfig, SimEngine, SimReport};
use numascan::numasim::{Machine, Topology};
use numascan::scheduler::SchedulingStrategy;
use numascan::workload::{paper_table_spec, ColumnSelection, ScanWorkload};

fn run(placement: PlacementStrategy, strategy: SchedulingStrategy) -> SimReport {
    let mut machine = Machine::new(Topology::four_socket_ivybridge_ex());
    let spec = paper_table_spec(4_000_000, 16, false);
    let table = PlacedTable::place(machine.topology(), &spec, placement);
    let mut catalog = Catalog::new();
    catalog.add_table(table);
    let mut workload = ScanWorkload::new(0, 16, ColumnSelection::paper_skew(), 0.00001, 99);
    let config = SimConfig { strategy, clients: 256, target_queries: 800, ..SimConfig::default() };
    SimEngine::new(&mut machine, &catalog, config).run(&mut workload)
}

fn main() {
    println!("skewed workload (80% of queries on half the columns), 256 clients\n");
    println!(
        "{:<22} {:>12} {:>12} {:>16}",
        "configuration", "q/min", "CPU load %", "per-socket GiB/s"
    );
    for (label, placement, strategy) in [
        ("RR + Bound", PlacementStrategy::RoundRobin, SchedulingStrategy::Bound),
        ("RR + Target (steal)", PlacementStrategy::RoundRobin, SchedulingStrategy::Target),
        (
            "IVP4 + Bound",
            PlacementStrategy::IndexVectorPartitioned { parts: 4 },
            SchedulingStrategy::Bound,
        ),
        (
            "PP4 + Bound",
            PlacementStrategy::PhysicallyPartitioned { parts: 4 },
            SchedulingStrategy::Bound,
        ),
    ] {
        let report = run(placement, strategy);
        let per_socket: Vec<String> =
            report.memory_throughput_gibs().iter().map(|t| format!("{t:.0}")).collect();
        println!(
            "{:<22} {:>12.0} {:>12.1} {:>16}",
            label,
            report.throughput_qpm,
            report.cpu_load_percent(),
            per_socket.join("/")
        );
    }
    println!("\nWith RR only the sockets holding the hot columns are busy; partitioning");
    println!("spreads the hot set and restores full-machine throughput.");
}
