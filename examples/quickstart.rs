//! Quickstart: place a table on a virtual 4-socket server, run a concurrent
//! scan workload under the three scheduling strategies of the paper, and print
//! the throughput and the key hardware counters.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use numascan::core::{Catalog, PlacedTable, PlacementStrategy, SimConfig, SimEngine};
use numascan::numasim::{Machine, Topology};
use numascan::scheduler::SchedulingStrategy;
use numascan::workload::{paper_table_spec, ColumnSelection, ScanWorkload};

fn main() {
    // The machine: the paper's 4-socket Ivybridge-EX server.
    let topology = Topology::four_socket_ivybridge_ex();
    println!("machine: {}", topology.name);
    println!(
        "  {} sockets x {} hardware contexts, {} GiB/s local bandwidth per socket\n",
        topology.socket_count(),
        topology.contexts_per_socket(),
        topology.socket.local_bandwidth_gibs
    );

    // The dataset: a scaled-down version of the paper's table (the full-scale
    // spec would be paper_table_spec(100_000_000, 160, false)).
    let spec = paper_table_spec(4_000_000, 16, false);

    // Compare the three scheduling strategies on identical RR-placed data.
    let clients = 256;
    println!("uniform workload, RR placement, selectivity 0.001%, {clients} clients\n");
    println!(
        "{:<8} {:>16} {:>12} {:>14} {:>14} {:>14}",
        "strategy", "q/min", "CPU load %", "mem TP GiB/s", "stolen tasks", "remote misses"
    );
    for strategy in SchedulingStrategy::ALL {
        let mut machine = Machine::new(topology.clone());
        let table = PlacedTable::place(&topology, &spec, PlacementStrategy::RoundRobin);
        let mut catalog = Catalog::new();
        catalog.add_table(table);

        let mut workload = ScanWorkload::new(0, 16, ColumnSelection::Uniform, 0.00001, 7);
        let config = SimConfig { strategy, clients, target_queries: 800, ..SimConfig::default() };
        let report = SimEngine::new(&mut machine, &catalog, config).run(&mut workload);
        let (_, remote) = report.llc_misses();
        println!(
            "{:<8} {:>16.0} {:>12.1} {:>14.1} {:>14} {:>14.2e}",
            strategy.label(),
            report.throughput_qpm,
            report.cpu_load_percent(),
            report.total_memory_throughput_gibs(),
            report.tasks_stolen(),
            remote
        );
    }
    println!("\nBound (NUMA-aware, no stealing) should be several times faster than OS.");
}
