//! Workload shifts for the online adaptive loop.
//!
//! The paper's adaptivity argument (Sections 6.3 and 7) rests on workloads
//! that *change*: a BW-EML-style reporting load moves its focus from one
//! InfoCube to another, and a placement chosen for phase one is wrong for
//! phase two. This module models that shape against the native engine: a
//! [`ShiftConfig`] is a sequence of [`ShiftPhase`]s, each phase hammering a hot set
//! of columns with seeded mixed range/IN-list scans from N concurrent
//! clients, and [`replay_shift`] drives it through the session layer epoch by
//! epoch, optionally running the adaptive placer's closed loop between
//! epochs.
//!
//! Everything is seeded and the telemetry is byte-exact (attribution follows
//! the data's home socket, not the executing thread), so two replays with the
//! same seed produce identical per-epoch signals and identical placer
//! actions regardless of thread interleavings — which is what lets the test
//! suite pin the adaptive behaviour deterministically.

use std::time::{Duration, Instant};

use numascan_core::{AdaptiveDataPlacer, PlacerAction, QueryResult, ScanRequest, SessionManager};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One phase of a shifting workload: a hot column set queried for a number of
/// epochs.
#[derive(Debug, Clone)]
pub struct ShiftPhase {
    /// Names of the columns this phase concentrates on.
    pub hot_columns: Vec<String>,
    /// Measurement epochs the phase lasts.
    pub epochs: usize,
}

impl ShiftPhase {
    /// A phase over `hot_columns` lasting `epochs` epochs.
    pub fn new(hot_columns: Vec<String>, epochs: usize) -> Self {
        assert!(!hot_columns.is_empty(), "a phase needs at least one hot column");
        assert!(epochs > 0, "a phase needs at least one epoch");
        ShiftPhase { hot_columns, epochs }
    }
}

/// Configuration of a shift replay.
#[derive(Debug, Clone)]
pub struct ShiftConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Statements each client issues per epoch.
    pub queries_per_client: usize,
    /// Width of the generated BETWEEN ranges in dictionary-value space.
    pub range_width: i64,
    /// Upper bound (exclusive) of generated predicate values.
    pub value_domain: i64,
    /// Every n-th statement of a client is an IN-list scan instead of a range
    /// scan (0 disables IN-lists).
    pub in_list_every: usize,
    /// Master seed; every (phase, epoch, client) derives its own stream.
    pub seed: u64,
}

impl Default for ShiftConfig {
    fn default() -> Self {
        ShiftConfig {
            clients: 4,
            queries_per_client: 4,
            range_width: 40,
            value_domain: 256,
            in_list_every: 3,
            seed: 0x5EED,
        }
    }
}

impl ShiftConfig {
    /// The deterministic request stream of one client in one epoch.
    pub fn client_requests(
        &self,
        phase: &ShiftPhase,
        phase_index: usize,
        epoch: usize,
        client: usize,
    ) -> Vec<ScanRequest> {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ (phase_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (epoch as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
                ^ (client as u64).wrapping_mul(0x94D0_49BB_1331_11EB),
        );
        (0..self.queries_per_client)
            .map(|q| {
                let column = phase.hot_columns[rng.gen_range(0..phase.hot_columns.len())].clone();
                let in_list = self.in_list_every > 0 && (q + 1) % self.in_list_every == 0;
                if in_list {
                    let len = rng.gen_range(1..6usize);
                    let values = (0..len).map(|_| rng.gen_range(0..self.value_domain)).collect();
                    ScanRequest::in_list(column, values)
                } else {
                    let lo = rng.gen_range(0..self.value_domain);
                    ScanRequest::between(column, lo, lo + self.range_width)
                }
            })
            .collect()
    }
}

/// What one epoch of a replay measured.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Phase index the epoch belongs to.
    pub phase: usize,
    /// Epoch index within the whole replay.
    pub epoch: usize,
    /// IV bytes streamed from each socket's local memory.
    pub socket_bytes: Vec<u64>,
    /// Spread between the most and least utilized socket (relative
    /// utilization, byte-exact).
    pub utilization_spread: f64,
    /// The placer action taken after the epoch (`None` action when the loop
    /// ran but left the placement alone, absent when adaptivity was off).
    pub action: Option<PlacerAction>,
}

/// The full record of a shift replay.
#[derive(Debug, Clone)]
pub struct ShiftReport {
    /// Per-epoch measurements, in execution order.
    pub epochs: Vec<EpochStats>,
}

impl ShiftReport {
    /// All non-trivial placer actions taken during the replay.
    pub fn placement_actions(&self) -> Vec<&PlacerAction> {
        self.epochs
            .iter()
            .filter_map(|e| e.action.as_ref())
            .filter(|a| !matches!(a, PlacerAction::None))
            .collect()
    }

    /// Utilization spread of the replay's final epoch (the post-shift state).
    pub fn final_spread(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.utilization_spread)
    }

    /// Total bytes streamed per socket over the whole replay.
    pub fn total_socket_bytes(&self) -> Vec<u64> {
        let sockets = self.epochs.first().map_or(0, |e| e.socket_bytes.len());
        let mut out = vec![0u64; sockets];
        for e in &self.epochs {
            for (acc, b) in out.iter_mut().zip(&e.socket_bytes) {
                *acc += b;
            }
        }
        out
    }
}

/// Replays `phases` against `session` epoch by epoch: every epoch runs
/// `config.clients` concurrent client threads issuing their seeded request
/// streams, then snapshots the engine's telemetry; with a `placer`, the
/// closed loop additionally decides and applies one placement action per
/// epoch and closes the pool's bandwidth epoch.
///
/// Panics if any client statement fails (unknown column), since a shift
/// replay with missing columns measures nothing.
pub fn replay_shift(
    session: &SessionManager,
    placer: Option<&AdaptiveDataPlacer>,
    phases: &[ShiftPhase],
    config: &ShiftConfig,
) -> ShiftReport {
    for phase in phases {
        for column in &phase.hot_columns {
            assert!(
                session.engine().table().column_by_name(column).is_some(),
                "unknown column '{column}' in shift phase"
            );
        }
    }
    let mut epochs = Vec::new();
    let mut epoch_index = 0usize;
    for (phase_index, phase) in phases.iter().enumerate() {
        for _ in 0..phase.epochs {
            let started = Instant::now();
            std::thread::scope(|scope| {
                for client in 0..config.clients {
                    let requests = config.client_requests(phase, phase_index, epoch_index, client);
                    scope.spawn(move || {
                        for request in &requests {
                            session
                                .execute(request)
                                .map(QueryResult::into_rows)
                                .unwrap_or_else(|e| panic!("{e} in {request:?}"));
                        }
                    });
                }
            });
            let elapsed = started.elapsed().max(Duration::from_micros(1));
            let (epoch, action) = match placer {
                Some(placer) => {
                    let (epoch, action) = session.rebalance_epoch(placer, elapsed);
                    (epoch, Some(action))
                }
                None => {
                    session.engine().advance_bandwidth_epoch(elapsed);
                    (session.take_epoch(), None)
                }
            };
            epochs.push(EpochStats {
                phase: phase_index,
                epoch: epoch_index,
                socket_bytes: epoch.socket_bytes.clone(),
                utilization_spread: epoch.utilization_spread(),
                action,
            });
            epoch_index += 1;
        }
    }
    ShiftReport { epochs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::small_real_table;
    use numascan_core::{NativeEngine, ScanSpec, SessionManager};
    use numascan_numasim::Topology;
    use numascan_scheduler::SchedulingStrategy;

    fn session() -> SessionManager {
        SessionManager::new(NativeEngine::new(
            small_real_table(8_000, 4, 11),
            &Topology::four_socket_ivybridge_ex(),
            SchedulingStrategy::Bound,
        ))
    }

    #[test]
    fn request_streams_are_deterministic_and_phase_scoped() {
        let cfg = ShiftConfig::default();
        let phase = ShiftPhase::new(vec!["col000".into(), "col001".into()], 2);
        let a = cfg.client_requests(&phase, 0, 1, 2);
        let b = cfg.client_requests(&phase, 0, 1, 2);
        assert_eq!(a, b, "same (phase, epoch, client) must replay identically");
        let c = cfg.client_requests(&phase, 1, 1, 2);
        assert_ne!(a, c, "a different phase draws a different stream");
        assert!(a.iter().all(|r| phase.hot_columns.contains(&r.column().to_string())));
        // The default config mixes both request kinds.
        assert!(a.iter().any(|r| matches!(r.spec, ScanSpec::InList { .. })));
        assert!(a.iter().any(|r| matches!(r.spec, ScanSpec::Between { .. })));
    }

    #[test]
    fn replay_collects_one_epoch_stat_per_epoch() {
        let s = session();
        let phases =
            [ShiftPhase::new(vec!["col000".into()], 2), ShiftPhase::new(vec!["col002".into()], 1)];
        let cfg = ShiftConfig { clients: 2, queries_per_client: 2, ..Default::default() };
        let report = replay_shift(&s, None, &phases, &cfg);
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.epochs[0].phase, 0);
        assert_eq!(report.epochs[2].phase, 1);
        assert!(report.placement_actions().is_empty(), "no placer, no actions");
        assert!(report.total_socket_bytes().iter().sum::<u64>() > 0);
        // One hot column on one socket: the spread is maximal.
        assert!(report.final_spread() > 0.9, "{report:?}");
        s.shutdown();
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn replaying_a_missing_column_panics() {
        let s = session();
        let phases = [ShiftPhase::new(vec!["nope".into()], 1)];
        replay_shift(&s, None, &phases, &ShiftConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least one hot column")]
    fn empty_phases_are_rejected() {
        ShiftPhase::new(vec![], 1);
    }
}
