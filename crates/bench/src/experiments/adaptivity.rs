//! Online adaptivity on native threads (Sections 5.3, 6 and 7).
//!
//! Unlike the figure experiments, this one runs no simulator: it replays a
//! seeded two-phase workload shift (hot column A → hot column B) from
//! concurrent client threads against the real [`numascan_core::NativeEngine`]
//! twice — once as a static round-robin control, once with the
//! [`numascan_core::AdaptiveDataPlacer`]'s closed loop and the
//! bandwidth-aware steal throttle engaged — and reports the per-epoch
//! utilization spreads, the placer's actions, and the scheduler's wakeup and
//! steal/throttle counters side by side.

use std::time::Instant;

use numascan_core::{
    AdaptiveDataPlacer, NativeEngine, NativeEngineConfig, PlacementStrategy, SessionManager,
};
use numascan_numasim::Topology;
use numascan_scheduler::{SchedulerStats, SchedulingStrategy, StealThrottleConfig};
use numascan_workload::{replay_shift, small_real_table, ShiftConfig, ShiftPhase, ShiftReport};

use crate::harness::{fmt, ResultTable};
use crate::scale::ExperimentScale;

fn session(scale: &ExperimentScale) -> SessionManager {
    let rows = (scale.rows / 8).clamp(50_000, 2_000_000) as usize;
    let topology = Topology::four_socket_ivybridge_ex();
    SessionManager::new(NativeEngine::with_config(
        small_real_table(rows, 8, 0xADA9),
        &topology,
        NativeEngineConfig {
            strategy: SchedulingStrategy::Target,
            placement: PlacementStrategy::RoundRobin,
            steal_throttle: Some(StealThrottleConfig::calibrated(
                topology.socket.local_bandwidth_gibs,
            )),
            ..Default::default()
        },
    ))
}

fn shift() -> (Vec<ShiftPhase>, ShiftConfig) {
    let phases = vec![
        ShiftPhase::new(vec!["col000".to_string()], 4),
        ShiftPhase::new(vec!["col001".to_string()], 4),
    ];
    (phases, ShiftConfig::default())
}

struct Run {
    report: ShiftReport,
    stats: SchedulerStats,
    wall_seconds: f64,
}

fn replay(scale: &ExperimentScale, placer: Option<&AdaptiveDataPlacer>) -> Run {
    let session = session(scale);
    let (phases, config) = shift();
    let started = Instant::now();
    let report = replay_shift(&session, placer, &phases, &config);
    let wall_seconds = started.elapsed().as_secs_f64();
    let stats = session.engine().scheduler_stats();
    session.shutdown();
    Run { report, stats, wall_seconds }
}

/// Runs the native adaptivity experiment.
pub fn run(scale: &ExperimentScale) -> Vec<ResultTable> {
    let placer = AdaptiveDataPlacer::default();
    let control = replay(scale, None);
    let adaptive = replay(scale, Some(&placer));

    let mut epochs = ResultTable::new(
        "adaptivity",
        "Workload shift on native threads: per-socket utilization spread, static RR control vs \
         closed adaptive loop",
        &["Epoch", "Phase", "Control spread", "Adaptive spread", "Adaptive action"],
    );
    for (c, a) in control.report.epochs.iter().zip(&adaptive.report.epochs) {
        epochs.push_row([
            c.epoch.to_string(),
            c.phase.to_string(),
            fmt(c.utilization_spread),
            fmt(a.utilization_spread),
            match &a.action {
                Some(action) => format!("{action:?}"),
                None => "-".to_string(),
            },
        ]);
    }

    let mut sched = ResultTable::new(
        "adaptivity-sched",
        "Scheduler wakeup and steal-throttle counters of the two replays",
        &[
            "Run",
            "Tasks",
            "Targeted wakeups",
            "Chained wakeups",
            "Watchdog wakeups",
            "False wakeups",
            "Throttle bound",
            "Throttle released",
            "Cross-socket steals",
            "Affinity violations",
            "Wall (s)",
        ],
    );
    for (label, run) in [("Static RR", &control), ("Adaptive", &adaptive)] {
        let s = &run.stats;
        sched.push_row([
            label.to_string(),
            s.executed.to_string(),
            s.targeted_wakeups.to_string(),
            s.chained_wakeups.to_string(),
            s.watchdog_wakeups.to_string(),
            s.false_wakeups.to_string(),
            s.steal_throttle_bound.to_string(),
            s.steal_throttle_released.to_string(),
            s.stolen_cross_socket.to_string(),
            s.affinity_violations.to_string(),
            fmt(run.wall_seconds),
        ]);
    }
    vec![epochs, sched]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptivity_experiment_reports_epochs_and_counters() {
        let mut scale = ExperimentScale::quick();
        scale.rows = 400_000;
        let tables = run(&scale);
        let epochs = &tables[0];
        assert_eq!(epochs.rows.len(), 8, "two 4-epoch phases");
        // The control stays imbalanced after the shift; the adaptive loop
        // tightens the spread.
        let control_final = epochs.rows.last().unwrap()[2].parse::<f64>().unwrap();
        let adaptive_final = epochs.rows.last().unwrap()[3].parse::<f64>().unwrap();
        assert!(control_final > 0.9, "{epochs:?}");
        assert!(adaptive_final < control_final, "{epochs:?}");
        assert!(
            epochs.rows.iter().any(|r| r[4] != "-" && !r[4].contains("None")),
            "the placer must have acted: {epochs:?}"
        );

        let sched = &tables[1];
        assert_eq!(sched.cell("Static RR", "Affinity violations"), Some("0"));
        assert_eq!(sched.cell("Adaptive", "Affinity violations"), Some("0"));
        assert_eq!(sched.cell("Adaptive", "Watchdog wakeups"), Some("0"));
        let bound: u64 = sched.cell("Adaptive", "Throttle bound").unwrap().parse().unwrap();
        assert!(bound > 0, "the steal throttle never engaged: {sched:?}");
    }
}
