//! Hybrid per-partition storage: the heat-driven layout advisor (Section
//! 5.3's single-server ByteStore angle).
//!
//! A seeded workload-shift replay on the native engine whose closed loop must
//! first consolidate the cold column and then compress it — the live form of
//! [`numascan_core::PlacerAction::Relayout`]. The table reports placer
//! actions and layouts, not timings: zone-map pruning and run-length scan
//! speed are `perfbench` rungs (`storage.prune_share`,
//! `storage.rows_examined_per_result`, `storage.rle_scan_mrows_per_s`).

use numascan_core::{
    AdaptiveDataPlacer, NativeEngine, NativeEngineConfig, PlacementStrategy, PlacerAction,
    SessionManager,
};
use numascan_numasim::Topology;
use numascan_scheduler::SchedulingStrategy;
use numascan_storage::{ColumnId, IvLayoutKind, TableBuilder};
use numascan_workload::{replay_shift, ShiftConfig, ShiftPhase};

use crate::harness::{fmt, ResultTable};
use crate::scale::ExperimentScale;

/// The advisor replay's table: a hot random column keeps all sockets busy
/// (balanced utilization) while a cold sorted low-cardinality column sits
/// idle — the shape the layout advisor compresses.
fn advisor_session(rows: usize) -> SessionManager {
    let hot: Vec<i64> =
        (0..rows as i64).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 7) & 0x1FF).collect();
    let cold: Vec<i64> = (0..rows as i64).map(|i| i / 64).collect();
    let table = TableBuilder::new("hybrid")
        .add_values("hot", &hot, false)
        .add_values("cold", &cold, false)
        .build();
    SessionManager::new(NativeEngine::with_config(
        table,
        &Topology::four_socket_ivybridge_ex(),
        NativeEngineConfig {
            strategy: SchedulingStrategy::Bound,
            placement: PlacementStrategy::IndexVectorPartitioned { parts: 4 },
            ..Default::default()
        },
    ))
}

fn advisor_table(scale: &ExperimentScale) -> ResultTable {
    let rows = (scale.rows / 16).clamp(50_000, 1_000_000) as usize;
    let session = advisor_session(rows);
    let placer = AdaptiveDataPlacer::default();
    let phases = vec![ShiftPhase::new(vec!["hot".to_string()], 5)];
    let config = ShiftConfig { value_domain: 512, ..Default::default() };
    let report = replay_shift(&session, Some(&placer), &phases, &config);

    let mut table = ResultTable::new(
        "hybrid-advisor",
        "Layout advisor under a seeded one-sided workload: the closed loop consolidates the \
         cold column, then re-encodes it run-length (cold layout after each epoch)",
        &["Epoch", "Utilization spread", "Action", "Cold layout"],
    );
    // The live layout can only be read back after the replay, so track the
    // per-epoch state from the deterministic action stream and cross-check
    // the final state against the engine.
    let cold = ColumnId(1);
    let mut layout = IvLayoutKind::BitPacked;
    for epoch in &report.epochs {
        if let Some(PlacerAction::Relayout { column, part: 0, layout: new_layout }) = epoch.action {
            if column.column == cold.0 {
                layout = new_layout;
            }
        }
        table.push_row([
            epoch.epoch.to_string(),
            fmt(epoch.utilization_spread),
            match &epoch.action {
                Some(action) => format!("{action:?}"),
                None => "-".to_string(),
            },
            format!("{layout:?}"),
        ]);
    }
    assert_eq!(
        session.engine().column_part_layout(cold, 0),
        Some(layout),
        "the tracked layout must match the live engine"
    );
    session.shutdown();
    table
}

/// Runs the advisor replay.
pub fn run(scale: &ExperimentScale) -> Vec<ResultTable> {
    vec![advisor_table(scale)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_experiment_relayouts_the_cold_column() {
        let mut scale = ExperimentScale::quick();
        scale.rows = 1_000_000;
        let tables = run(&scale);

        let advisor = &tables[0];
        assert_eq!(advisor.rows.len(), 5, "one row per epoch");
        assert!(
            advisor.rows.iter().any(|r| r[2].contains("Relayout")),
            "the advisor must have re-encoded the cold column: {advisor:?}"
        );
        assert!(
            advisor.rows.last().unwrap()[3].contains("Rle"),
            "the cold column must end run-length encoded: {advisor:?}"
        );
    }
}
