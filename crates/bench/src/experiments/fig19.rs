//! Figure 19: TPC-H Q1 instances and the SAP BW-EML reporting load with
//! different PP granularities, under Target and Bound, on the 16-socket half
//! of the rack-scale machine.
//!
//! TPC-H Q1 is severely skewed (one table) and CPU-intensive, so partitioning
//! helps and Target (stealing) beats Bound. BW-EML is memory-intensive, so
//! Bound beats Target; partitioning helps until the machine is saturated and
//! then becomes overhead. Throughput is normalised to the maximum observed
//! value of each benchmark, as in the paper.

use numascan_core::{
    Catalog, PlacedTable, PlacementStrategy, QueryGenerator, SimConfig, SimEngine,
};
use numascan_numasim::{Machine, Topology};
use numascan_scheduler::SchedulingStrategy;
use numascan_workload::bweml::infocube_table_specs;
use numascan_workload::tpch::lineitem_table_spec;
use numascan_workload::{BwEmlWorkload, TpchQ1Workload};

use crate::harness::{fmt, ResultTable};
use crate::scale::ExperimentScale;

/// The PP granularities swept (1 degenerates to RR).
pub fn granularities() -> Vec<usize> {
    vec![1, 2, 4, 8, 16]
}

/// The paper partitions whole *tables*: one partition per table degenerates to
/// RR (the whole table on a single socket), more partitions spread the table's
/// row ranges over more sockets. Physical partitioning with `parts` parts
/// models exactly that; the `parts == 1` case is labelled "RR" as in the
/// paper.
fn placement_for(parts: usize) -> PlacementStrategy {
    PlacementStrategy::PhysicallyPartitioned { parts }
}

fn label_for(parts: usize) -> String {
    if parts == 1 {
        "RR".to_string()
    } else {
        placement_for(parts).label()
    }
}

fn run_benchmark(
    scale: &ExperimentScale,
    parts: usize,
    strategy: SchedulingStrategy,
    bweml: bool,
) -> f64 {
    let topology = Topology::sixteen_socket_ivybridge_ex();
    let sockets = topology.socket_count();
    let mut machine = Machine::new(topology);
    let mut catalog = Catalog::new();
    let placement = placement_for(parts);

    let mut generator: Box<dyn QueryGenerator> = if bweml {
        let cubes = infocube_table_specs(scale.rows * 10);
        let mut tables = Vec::new();
        for (i, cube) in cubes.iter().enumerate() {
            // Distribute the cubes' partitions round-robin around the sockets.
            let offset = (i * parts) % sockets;
            let placed =
                PlacedTable::place_with_offset(machine.topology(), cube, placement, offset);
            tables.push(catalog.add_table(placed));
        }
        Box::new(BwEmlWorkload::new(tables, 0xB3))
    } else {
        let sf = (scale.rows / 6_000_000).max(1);
        let lineitem = lineitem_table_spec(sf);
        let placed = PlacedTable::place(machine.topology(), &lineitem, placement);
        catalog.add_table(placed);
        Box::new(TpchQ1Workload::new(0, 0x71))
    };

    // TPC-H Q1 uses 32 clients in the paper; BW-EML uses as many users as the
    // system sustains — we use the scale's high-concurrency point.
    let clients = if bweml { scale.high_concurrency } else { 32 };
    let config = SimConfig {
        strategy,
        clients,
        parallelism: true,
        target_queries: scale.target_queries(clients),
        max_virtual_seconds: scale.max_virtual_seconds,
        ..SimConfig::default()
    };
    SimEngine::new(&mut machine, &catalog, config).run(generator.as_mut()).throughput_qpm
}

/// Regenerates Figure 19.
pub fn run(scale: &ExperimentScale) -> Vec<ResultTable> {
    let mut out = Vec::new();
    for (bweml, id, title) in [
        (false, "fig19_tpch", "TPC-H Q1 instances (normalised throughput)"),
        (true, "fig19_bweml", "SAP BW-EML reporting load (normalised throughput)"),
    ] {
        let mut raw: Vec<(String, f64, f64)> = Vec::new();
        for parts in granularities() {
            let target = run_benchmark(scale, parts, SchedulingStrategy::Target, bweml);
            let bound = run_benchmark(scale, parts, SchedulingStrategy::Bound, bweml);
            raw.push((label_for(parts), target, bound));
        }
        let max = raw.iter().flat_map(|(_, t, b)| [*t, *b]).fold(0.0f64, f64::max).max(1e-9);
        let mut table = ResultTable::new(
            id,
            title,
            &["placement", "Target (normalised)", "Bound (normalised)"],
        );
        for (label, target, bound) in raw {
            table.push_row([label, fmt(target / max), fmt(bound / max)]);
        }
        out.push(table);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            rows: 2_000_000,
            payload_columns: 8,
            client_sweep: vec![128],
            high_concurrency: 128,
            max_queries: 300,
            max_virtual_seconds: 20.0,
        }
    }

    #[test]
    fn tpch_q1_prefers_stealing_and_partitioning() {
        let scale = tiny_scale();
        let tables = run(&scale);
        let tpch = &tables[0];
        // With RR (one hot table on few sockets) Target beats Bound because
        // Q1 is CPU-intensive.
        let rr_target = tpch.cell_f64("RR", "Target (normalised)").unwrap();
        let rr_bound = tpch.cell_f64("RR", "Bound (normalised)").unwrap();
        assert!(
            rr_target > rr_bound,
            "Target {rr_target} should beat Bound {rr_bound} for Q1 on RR"
        );
        // Partitioning improves Bound until it matches Target.
        let pp16_bound = tpch.cell_f64("PP16", "Bound (normalised)").unwrap();
        assert!(
            pp16_bound > rr_bound,
            "partitioning should help Bound: {pp16_bound} vs {rr_bound}"
        );
    }

    #[test]
    fn bweml_prefers_bound_over_target() {
        let scale = tiny_scale();
        let tables = run(&scale);
        let bweml = &tables[1];
        // Memory-intensive: Bound should be at least as good as Target for a
        // moderate number of partitions.
        let pp4_target = bweml.cell_f64("PP4", "Target (normalised)").unwrap();
        let pp4_bound = bweml.cell_f64("PP4", "Bound (normalised)").unwrap();
        assert!(
            pp4_bound >= pp4_target * 0.95,
            "Bound {pp4_bound} should not lose to Target {pp4_target} for BW-EML"
        );
        // Partitioning beyond RR helps Bound (three cubes spread over more
        // sockets).
        let rr_bound = bweml.cell_f64("RR", "Bound (normalised)").unwrap();
        let pp4 = bweml.cell_f64("PP4", "Bound (normalised)").unwrap();
        assert!(pp4 >= rr_bound * 0.9);
    }
}
