//! Cross-crate integration tests: storage + scheduler + placement + engines
//! working together through the public `numascan` facade.

use numascan::core::adaptive::{AdaptiveDataPlacer, ColumnHeat, PlacerAction};
use numascan::core::cost::CostModel;
use numascan::core::{
    Catalog, ColumnRef, NativeEngine, PlacedTable, PlacementStrategy, QueryKind, ScanPlanner,
    ScanRequest, SimConfig, SimEngine,
};
use numascan::numasim::{Machine, SocketId, Topology};
use numascan::scheduler::SchedulingStrategy;
use numascan::storage::{scan_positions, Predicate};
use numascan::workload::{paper_table_spec, small_real_table, ColumnSelection, ScanWorkload};

#[test]
fn native_engine_agrees_with_a_sequential_reference_scan() {
    let table = small_real_table(60_000, 3, 1234);
    let (_, reference_column) = table.column_by_name("col002").unwrap();
    let predicate = Predicate::Between { lo: 10, hi: 90 };
    let encoded = predicate.encode(reference_column.dictionary());
    let expected =
        scan_positions(reference_column, 0..reference_column.row_count(), &encoded).len();

    let engine =
        NativeEngine::new(table, &Topology::four_socket_ivybridge_ex(), SchedulingStrategy::Bound);
    let got = engine.execute(&ScanRequest::between("col002", 10, 90), 4).unwrap().into_rows().len();
    assert_eq!(got, expected);
    assert!(engine.scheduler_stats().executed > 0);
    engine.shutdown();
}

#[test]
fn native_engine_results_are_identical_across_scheduling_strategies() {
    let reference: Vec<i64> = {
        let table = small_real_table(30_000, 2, 77);
        let engine = NativeEngine::new(
            table,
            &Topology::four_socket_ivybridge_ex(),
            SchedulingStrategy::Bound,
        );
        let out = engine.execute(&ScanRequest::between("col001", 0, 50), 2).unwrap().into_rows();
        engine.shutdown();
        out
    };
    for strategy in [SchedulingStrategy::Os, SchedulingStrategy::Target] {
        let table = small_real_table(30_000, 2, 77);
        let engine = NativeEngine::new(table, &Topology::four_socket_ivybridge_ex(), strategy);
        let out = engine.execute(&ScanRequest::between("col001", 0, 50), 2).unwrap().into_rows();
        assert_eq!(out, reference, "strategy {strategy:?} changed the query result");
        engine.shutdown();
    }
}

#[test]
fn planner_affinities_follow_the_ivp_rule() {
    let topology = Topology::four_socket_ivybridge_ex();
    let sockets = topology.socket_count();
    let spec = paper_table_spec(2_000_000, 4, false);
    let table = PlacedTable::place(
        &topology,
        &spec,
        PlacementStrategy::IndexVectorPartitioned { parts: 4 },
    );
    let planner = ScanPlanner::new(&topology, CostModel::default());
    for (c, column) in table.columns.iter().enumerate() {
        let plan = planner.plan(
            column,
            &QueryKind::Scan { selectivity: 0.001, allow_index: false },
            64,
            true,
        );
        // The planner emits the scan tasks part by part, an equal number each.
        let parts = column.iv_segments.len();
        assert_eq!(plan.phase1.len() % parts, 0);
        let per_part = plan.phase1.len() / parts;
        for (i, task) in plan.phase1.iter().enumerate() {
            let part = i / per_part;
            let expected = SocketId(((c + part) % sockets) as u16);
            assert_eq!(task.affinity, Some(expected), "column {c}, part {part}");
        }
    }
}

#[test]
fn simulation_runs_against_every_placement_strategy() {
    for placement in [
        PlacementStrategy::RoundRobin,
        PlacementStrategy::IndexVectorPartitioned { parts: 4 },
        PlacementStrategy::PhysicallyPartitioned { parts: 4 },
    ] {
        let mut machine = Machine::new(Topology::four_socket_ivybridge_ex());
        let spec = paper_table_spec(1_000_000, 8, false);
        let table = PlacedTable::place(machine.topology(), &spec, placement);
        let mut catalog = Catalog::new();
        catalog.add_table(table);
        let mut workload = ScanWorkload::new(0, 8, ColumnSelection::Uniform, 0.0001, 3);
        let config = SimConfig {
            strategy: SchedulingStrategy::Bound,
            clients: 32,
            target_queries: 200,
            ..SimConfig::default()
        };
        let report = SimEngine::new(&mut machine, &catalog, config).run(&mut workload);
        assert!(report.completed_queries >= 200, "placement {placement:?}");
        assert!(report.throughput_qpm > 0.0);
    }
}

#[test]
fn adaptive_placer_balances_a_hotspot_and_improves_throughput() {
    let topology = Topology::four_socket_ivybridge_ex();
    let mut machine = Machine::new(topology.clone());
    let spec = paper_table_spec(2_000_000, 8, false);
    let table = PlacedTable::place(&topology, &spec, PlacementStrategy::RoundRobin);
    let mut catalog = Catalog::new();
    catalog.add_table(table);
    let hot = ColumnRef { table: 0, column: 1 };

    let measure = |machine: &mut Machine, catalog: &Catalog| {
        let mut workload = ScanWorkload::new(0, 8, ColumnSelection::Single(0), 0.00001, 5);
        let config = SimConfig {
            strategy: SchedulingStrategy::Bound,
            clients: 64,
            target_queries: 300,
            ..SimConfig::default()
        };
        SimEngine::new(machine, catalog, config).run(&mut workload)
    };

    let before = measure(&mut machine, &catalog);
    let placer = AdaptiveDataPlacer::default();
    let mut acted = false;
    for _ in 0..3 {
        let report = measure(&mut machine, &catalog);
        let utilization = AdaptiveDataPlacer::utilization_from_report(&report, &topology);
        let heats = vec![ColumnHeat {
            column: hot,
            primary_socket: catalog.column(hot).primary_socket(),
            heat: 0.5,
            agg_bytes: 0,
            iv_intensive: true,
            partitions: catalog.column(hot).iv_segments.len(),
            active: true,
            part_layouts: Vec::new(),
        }];
        let action = placer.decide(&utilization, &heats);
        if action == PlacerAction::None {
            break;
        }
        placer.apply(&topology, &mut catalog, &action);
        acted = true;
    }
    assert!(acted, "the placer should have reacted to the hotspot");
    let after = measure(&mut machine, &catalog);
    assert!(
        after.throughput_qpm > 1.5 * before.throughput_qpm,
        "partitioning the hot column should raise throughput: {} -> {}",
        before.throughput_qpm,
        after.throughput_qpm
    );
    assert!(catalog.column(hot).iv_segments.len() > 1);
}

#[test]
fn facade_quickstart_compiles_and_runs() {
    // Mirrors the README / crate-level quick start.
    let mut machine = Machine::new(Topology::four_socket_ivybridge_ex());
    let spec = paper_table_spec(500_000, 4, false);
    let table = PlacedTable::place(machine.topology(), &spec, PlacementStrategy::RoundRobin);
    let mut catalog = Catalog::new();
    catalog.add_table(table);
    let mut workload = ScanWorkload::new(0, 4, ColumnSelection::Uniform, 0.0001, 42);
    let config = SimConfig {
        strategy: SchedulingStrategy::Bound,
        clients: 8,
        target_queries: 100,
        ..SimConfig::default()
    };
    let report = SimEngine::new(&mut machine, &catalog, config).run(&mut workload);
    assert!(report.throughput_qpm > 0.0);
}
