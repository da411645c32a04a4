//! Tier-1 smoke test: the exact surface the workspace's verify gate exercises.
//!
//! Builds a 4-socket machine, places a table with each of the paper's three
//! data placement strategies (RR, IVP, PP), and runs the simulation engine
//! under both a hard-affinity (`Bound`) and a stealing (`Target`) scheduling
//! strategy, asserting every combination completes queries. This is the
//! fastest end-to-end sanity check of the whole stack — if it fails, nothing
//! deeper (paper-claim tests, experiments, benches) is worth running.

use numascan::core::{Catalog, PlacedTable, PlacementStrategy, SimConfig, SimEngine};
use numascan::numasim::{Machine, Topology};
use numascan::scheduler::SchedulingStrategy;
use numascan::workload::{paper_table_spec, ColumnSelection, ScanWorkload};

/// Every placement strategy times every scheduling strategy produces nonzero
/// throughput on a 4-socket machine.
#[test]
fn every_placement_and_scheduling_combination_completes_queries() {
    let placements = [
        PlacementStrategy::RoundRobin,
        PlacementStrategy::IndexVectorPartitioned { parts: 4 },
        PlacementStrategy::PhysicallyPartitioned { parts: 4 },
    ];
    // `Bound` pins tasks to the socket of their data; `Target` ("stealing")
    // sets soft affinities that other sockets may steal from.
    let schedules = [SchedulingStrategy::Bound, SchedulingStrategy::Target];

    for placement in placements {
        let mut machine = Machine::new(Topology::four_socket_ivybridge_ex());
        let spec = paper_table_spec(500_000, 8, false);
        let table = PlacedTable::place(machine.topology(), &spec, placement);
        let mut catalog = Catalog::new();
        catalog.add_table(table);

        for strategy in schedules {
            let mut workload = ScanWorkload::new(0, 8, ColumnSelection::Uniform, 0.001, 7);
            let config =
                SimConfig { strategy, clients: 16, target_queries: 100, ..SimConfig::default() };
            let report = SimEngine::new(&mut machine, &catalog, config).run(&mut workload);
            assert!(
                report.throughput_qpm > 0.0,
                "{placement:?} + {} produced no throughput",
                strategy.label()
            );
            assert!(
                report.completed_queries > 0,
                "{placement:?} + {} completed no queries",
                strategy.label()
            );
        }
    }
}
