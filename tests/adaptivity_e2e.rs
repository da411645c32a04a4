//! End-to-end tests of the online adaptive execution loop on real threads.
//!
//! Three layers are pinned here, all seeded and thread-schedule independent:
//!
//! 1. **Correctness under concurrency** — N client threads issuing mixed
//!    range/IN-list scans through the session layer, across every data
//!    placement ({RR, IVP, PP}) and every scheduling strategy, must produce
//!    byte-identical results to a single-threaded oracle.
//! 2. **Deterministic adaptivity** — a seeded two-phase workload shift (hot
//!    column A → hot column B) must make the placer emit at least one
//!    move/partition action, and the post-shift per-socket utilization
//!    spread must tighten versus a no-adaptivity control run by a wide
//!    margin.
//! 3. **The closed loop end to end** — with adaptivity *and* the
//!    bandwidth-aware steal throttle enabled, the same replay keeps oracle
//!    correctness while the placement changes live underneath the clients.
//!
//! Determinism rests on byte-exact telemetry: scan bytes are attributed to
//! the socket the data lives on at submit time, so per-epoch utilization and
//! heat — and therefore every placer decision — are identical across runs
//! and thread interleavings.

mod common;

use common::oracle_rows;
use numascan::core::{
    NativeEngine, NativeEngineConfig, PlacementStrategy, PlacerAction, ScanRequest, SessionManager,
};
use numascan::numasim::Topology;
use numascan::scheduler::{SchedulingStrategy, StealThrottleConfig};
use numascan::storage::Table;
use numascan::workload::{replay_shift, small_real_table, ShiftConfig, ShiftPhase};

const ROWS: usize = 24_000;
const PAYLOAD_COLUMNS: usize = 6;
const DATA_SEED: u64 = 0xADA9;

fn table() -> Table {
    small_real_table(ROWS, PAYLOAD_COLUMNS, DATA_SEED)
}

fn topology() -> Topology {
    Topology::four_socket_ivybridge_ex()
}

/// The deterministic request script of one client: mixed range and IN-list
/// scans over all payload columns.
fn client_script(client: usize) -> Vec<ScanRequest> {
    (0..6)
        .map(|q| {
            let column = format!("col{:03}", (client + 2 * q) % PAYLOAD_COLUMNS);
            if q % 3 == 2 {
                let base = (17 * client + 29 * q) as i64 % 200;
                ScanRequest::in_list(column, vec![base, base + 3, base + 91, base + 140])
            } else {
                let lo = (13 * client + 41 * q) as i64 % 180;
                ScanRequest::between(column, lo, lo + 55)
            }
        })
        .collect()
}

/// Runs `clients` concurrent threads through a session and checks every
/// result against the oracle, byte for byte.
fn assert_matches_oracle(session: &SessionManager, clients: usize, context: &str) {
    let reference = table();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let session = &session;
                scope.spawn(move || {
                    client_script(client)
                        .into_iter()
                        .map(|request| {
                            let got = session.execute(&request).expect("known column").into_rows();
                            (request, got)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (request, got) in handle.join().expect("client thread panicked") {
                let expected = oracle_rows(&reference, 0..ROWS, &request);
                assert_eq!(
                    got, expected,
                    "{context}: concurrent result diverged from the sequential oracle \
                     for {request:?}"
                );
            }
        }
    });
}

/// Satellite: every placement × every scheduling strategy serves concurrent
/// mixed scans byte-identically to the sequential oracle.
#[test]
fn concurrent_clients_match_the_sequential_oracle_across_placements_and_strategies() {
    for placement in [
        PlacementStrategy::RoundRobin,
        PlacementStrategy::IndexVectorPartitioned { parts: 4 },
        PlacementStrategy::PhysicallyPartitioned { parts: 4 },
    ] {
        for strategy in SchedulingStrategy::ALL {
            let session = SessionManager::new(NativeEngine::with_config(
                table(),
                &topology(),
                NativeEngineConfig { strategy, placement, ..Default::default() },
            ));
            assert_matches_oracle(&session, 6, &format!("{placement:?} x {strategy:?}"));
            let stats = session.engine().scheduler_stats();
            assert_eq!(stats.affinity_violations, 0, "{placement:?} x {strategy:?}: {stats:?}");
            session.shutdown();
        }
    }
}

/// The seeded two-phase shift used by the adaptivity tests: all traffic on
/// `col000`, then all traffic on `col001` (different home sockets under RR).
fn shift_phases() -> Vec<ShiftPhase> {
    vec![
        ShiftPhase::new(vec!["col000".to_string()], 4),
        ShiftPhase::new(vec!["col001".to_string()], 4),
    ]
}

fn shift_config() -> ShiftConfig {
    ShiftConfig {
        clients: 4,
        queries_per_client: 3,
        range_width: 40,
        value_domain: 250,
        in_list_every: 3,
        seed: 0xB0BA,
    }
}

fn adaptive_session() -> SessionManager {
    SessionManager::new(NativeEngine::with_config(
        table(),
        &topology(),
        NativeEngineConfig {
            strategy: SchedulingStrategy::Target,
            placement: PlacementStrategy::RoundRobin,
            steal_throttle: Some(StealThrottleConfig::calibrated(
                topology().socket.local_bandwidth_gibs,
            )),
            ..Default::default()
        },
    ))
}

/// Satellite + acceptance: the closed placement loop reacts to a workload
/// shift with at least one move/partition action, and the post-shift
/// utilization spread tightens versus the static RR control by well over the
/// required 10 % margin. Everything is seeded; the assertion is on byte-exact
/// telemetry, so this holds in debug and release alike.
#[test]
fn workload_shift_triggers_adaptation_and_tightens_utilization_spread() {
    let placer = numascan::core::AdaptiveDataPlacer::default();
    let phases = shift_phases();
    let config = shift_config();

    // Control: static round-robin placement, no placer.
    let control_session = adaptive_session();
    let control = replay_shift(&control_session, None, &phases, &config);
    control_session.shutdown();

    // Adaptive: identical seeds, the closed loop runs between epochs.
    let adaptive_session = adaptive_session();
    let adaptive = replay_shift(&adaptive_session, Some(&placer), &phases, &config);

    // The placer acted, and with a move/partition action (not only
    // consolidation).
    let actions = adaptive.placement_actions();
    assert!(
        actions.iter().any(|a| matches!(
            a,
            PlacerAction::MoveColumn { .. }
                | PlacerAction::RepartitionIvp { .. }
                | PlacerAction::RepartitionPp { .. }
        )),
        "the shift must trigger at least one move/partition action: {actions:?}"
    );

    // Control: a single hot column keeps all traffic on one socket, so the
    // spread stays maximal through the post-shift phase.
    assert!(
        control.final_spread() > 0.9,
        "control run should stay imbalanced: {:?}",
        control.epochs
    );
    // Adaptive: the post-shift spread tightens by far more than the required
    // 10 % margin.
    assert!(
        adaptive.final_spread() <= 0.9 * control.final_spread(),
        "adaptive spread {:.4} did not tighten >=10% vs control {:.4}\nadaptive: {:?}",
        adaptive.final_spread(),
        control.final_spread(),
        adaptive.epochs
    );
    // The hot column of the post-shift phase was actually spread out.
    let (hot_b, _) = adaptive_session.engine().table().column_by_name("col001").unwrap();
    assert!(
        adaptive_session.engine().column_partitions(hot_b) > 1,
        "the post-shift hot column should end up partitioned"
    );
    adaptive_session.shutdown();
}

/// The adaptive decision sequence is identical across runs: same seeds, same
/// byte-exact telemetry, same actions — regardless of thread interleavings.
#[test]
fn adaptive_decisions_are_deterministic_across_runs() {
    let placer = numascan::core::AdaptiveDataPlacer::default();
    let run = || {
        let session = adaptive_session();
        let report = replay_shift(&session, Some(&placer), &shift_phases(), &shift_config());
        session.shutdown();
        (
            report.epochs.iter().map(|e| e.action.clone()).collect::<Vec<_>>(),
            report.epochs.iter().map(|e| e.socket_bytes.clone()).collect::<Vec<_>>(),
        )
    };
    let (actions_a, bytes_a) = run();
    let (actions_b, bytes_b) = run();
    assert_eq!(actions_a, actions_b, "placer decisions must replay identically");
    assert_eq!(bytes_a, bytes_b, "per-socket byte telemetry must replay identically");
}

/// Acceptance: the full closed loop — concurrent clients, live
/// repartitioning between epochs, steal throttle on — keeps every result
/// byte-identical to the sequential oracle, and the steal/affinity audits
/// stay clean.
#[test]
fn closed_loop_preserves_oracle_results_while_adapting() {
    let placer = numascan::core::AdaptiveDataPlacer::default();
    let session = adaptive_session();

    // Drive the shift so the placement actually changes...
    let report = replay_shift(&session, Some(&placer), &shift_phases(), &shift_config());
    assert!(!report.placement_actions().is_empty(), "the loop must have adapted");

    // ...then verify concurrent correctness on the adapted placement.
    assert_matches_oracle(&session, 6, "post-adaptation");

    let stats = session.engine().scheduler_stats();
    assert_eq!(stats.affinity_violations, 0, "{stats:?}");
    assert_eq!(stats.watchdog_wakeups, 0, "{stats:?}");
    // The throttle participated: with an unsaturated laptop-scale run, tasks
    // are pinned to their home sockets.
    assert!(stats.steal_throttle_bound > 0, "the steal throttle never engaged: {stats:?}");
    session.shutdown();
}
