//! End-to-end fault-injection tests of the sharded cluster tier.
//!
//! The acceptance gate of the cluster tier is the seeded **fault matrix**:
//! every fault kind in {crash, drop, delay, straggler} crossed with
//! replication factors 1..=3 and eight seeds. For every cell, every query
//! must terminate (no hang, no panic) with one of exactly three typed
//! outcomes:
//!
//! 1. `Complete` rows **byte-identical** to the sequential single-engine
//!    oracle,
//! 2. a typed `Partial` whose rows are byte-identical to the oracle
//!    restricted to the non-missing shards,
//! 3. a typed `DeadlineExceeded` error.
//!
//! Replaying a cell with the same seed must reproduce the identical
//! decision sequence. The zero-fault overhead gate (release builds only)
//! additionally pins the cost of the tier itself: a one-worker, one-shard
//! cluster with no faults must stay within 10% of the direct engine.

mod common;

use common::oracle_rows;
use numascan::cluster::{Cluster, ClusterConfig, ClusterError, Decision, ScanOutcome, ShardMeta};
use numascan::core::{NativeEngine, NativeEngineConfig, ScanRequest, SessionManager};
use numascan::storage::Table;
use numascan::workload::{small_real_table, FaultKind, FaultSchedule};

const ROWS: usize = 6_000;
const DATA_SEED: u64 = 0xC1A5;
const WORKERS: usize = 3;
const MATRIX_SEEDS: [u64; 8] = [3, 17, 42, 99, 1_234, 5_150, 86_420, 999_331];

fn table() -> Table {
    small_real_table(ROWS, 2, DATA_SEED)
}

/// The full-table oracle: concatenation of every shard's restriction.
fn oracle(table: &Table, shards: &[ShardMeta], request: &ScanRequest) -> Vec<i64> {
    shards.iter().flat_map(|meta| oracle_rows(table, meta.rows.clone(), request)).collect()
}

/// The mixed request script every matrix cell replays.
fn script() -> Vec<ScanRequest> {
    vec![
        ScanRequest::between("col000", 20, 90),
        ScanRequest::in_list("col001", vec![3, 77, 191, 404]),
        ScanRequest::between("col001", 150, 320),
    ]
}

/// Runs one matrix cell and returns its decision logs for replay checks.
fn run_cell(kind: FaultKind, replication: usize, seed: u64) -> Vec<Vec<Decision>> {
    let faults = FaultSchedule::generate(kind, WORKERS, seed);
    println!(
        "cluster-faults: kind={} replication={replication} {}",
        kind.label(),
        faults.summary()
    );
    let base = table();
    let config = ClusterConfig {
        workers: WORKERS,
        shards: WORKERS,
        replication,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::build(&base, config, faults);
    let shards = cluster.shards().to_vec();
    let mut logs = Vec::new();
    for request in script() {
        match cluster.scan(&request) {
            Ok(ScanOutcome::Complete(rows)) => {
                assert_eq!(
                    rows,
                    oracle(&base, &shards, &request),
                    "{kind:?} r={replication} seed={seed}: complete result diverged \
                     for {request:?}"
                );
            }
            Ok(ScanOutcome::Partial { rows, missing_shards }) => {
                assert!(
                    !missing_shards.is_empty(),
                    "{kind:?} r={replication} seed={seed}: a partial must name its \
                     missing shards"
                );
                let expected: Vec<i64> = shards
                    .iter()
                    .enumerate()
                    .filter(|(shard, _)| !missing_shards.contains(shard))
                    .flat_map(|(_, meta)| oracle_rows(&base, meta.rows.clone(), &request))
                    .collect();
                assert_eq!(
                    rows, expected,
                    "{kind:?} r={replication} seed={seed}: partial rows must be the \
                     oracle restricted to the served shards for {request:?}"
                );
            }
            Err(ClusterError::DeadlineExceeded) => {} // typed, acceptable
            Err(other) => {
                panic!("{kind:?} r={replication} seed={seed}: unexpected error {other}")
            }
        }
        logs.push(cluster.last_decisions());
    }
    cluster.shutdown();
    logs
}

/// Tentpole acceptance: the full fault matrix. Every query terminates with
/// a byte-identical complete result or a typed degradation, and every cell
/// replays its exact decision sequence from the seed.
#[test]
fn fault_matrix_is_typed_exact_and_replayable() {
    for kind in FaultKind::ALL_FAULTY {
        for replication in 1..=3usize {
            for seed in MATRIX_SEEDS {
                let first = run_cell(kind, replication, seed);
                let replay = run_cell(kind, replication, seed);
                assert_eq!(
                    first, replay,
                    "{kind:?} r={replication} seed={seed}: replaying the seed must \
                     reproduce the identical decision sequence"
                );
            }
        }
    }
}

/// With replication, a worker that crashes and restarts mid-run must never
/// cost completeness: the other replica serves its shards.
#[test]
fn crash_matrix_with_replication_stays_complete() {
    for seed in MATRIX_SEEDS {
        let faults = FaultSchedule::generate(FaultKind::Crash, WORKERS, seed);
        println!("crash-complete: {}", faults.summary());
        let base = table();
        let config = ClusterConfig {
            workers: WORKERS,
            shards: WORKERS,
            replication: 3,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::build(&base, config, faults);
        let shards = cluster.shards().to_vec();
        for request in script() {
            let outcome = cluster.scan(&request).expect("fully replicated crash runs resolve");
            assert_eq!(
                outcome,
                ScanOutcome::Complete(oracle(&base, &shards, &request)),
                "seed={seed}: 3-way replication must absorb any single-window crash"
            );
        }
        cluster.shutdown();
    }
}

/// Zone maps route around shards that cannot match: a predicate outside a
/// shard's value bounds must prune it before any message is sent.
#[test]
fn zone_pruning_is_visible_in_the_decision_log() {
    // A single sorted column makes the per-shard zones disjoint.
    let values: Vec<i64> = (0..6_000i64).map(|i| i / 10).collect();
    let base = numascan::storage::TableBuilder::new("t").add_values("v", &values, false).build();
    let mut cluster = Cluster::build(
        &base,
        ClusterConfig { workers: 3, shards: 3, replication: 2, ..ClusterConfig::default() },
        FaultSchedule::none(1),
    );
    // Values 0..200 live entirely in shard 0.
    let outcome = cluster.scan(&ScanRequest::between("v", 10, 50)).expect("clean run");
    let expected: Vec<i64> = values.iter().copied().filter(|v| (10..=50).contains(v)).collect();
    assert_eq!(outcome, ScanOutcome::Complete(expected));
    let decisions = cluster.last_decisions();
    let pruned: Vec<bool> = [0, 1, 2]
        .iter()
        .map(|s| decisions.iter().any(|d| matches!(d, Decision::Pruned { shard } if shard == s)))
        .collect();
    assert_eq!(pruned, vec![false, true, true], "shards 1 and 2 cannot match: {decisions:?}");
    assert_eq!(cluster.stats().requests_sent, 1, "only shard 0 may be contacted");
    cluster.shutdown();
}

const GATE_ROWS: usize = 200_000;
const GATE_QUERIES: usize = 24;
const GATE_RUNS: usize = 5;

fn gate_requests() -> Vec<ScanRequest> {
    (0..GATE_QUERIES)
        .map(|q| {
            let lo = (q as i64 * 37) % 400;
            ScanRequest::between("col001", lo, lo + 90)
        })
        .collect()
}

/// Release-only overhead gate: a zero-fault cluster over one worker and one
/// shard must stay within 10% of the direct engine on the same data, same
/// engine topology, same config — the coordinator and simulated transport
/// must cost (close to) nothing when nothing goes wrong.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing assertions require a release build")]
fn zero_fault_single_worker_overhead_is_within_ten_percent() {
    let topology = numascan::numasim::Topology::four_socket_ivybridge_ex();
    let engine_config = NativeEngineConfig::default();
    let base = small_real_table(GATE_ROWS, 2, DATA_SEED);
    let requests = gate_requests();

    // Direct baseline: best of N sweeps straight through the engine.
    let session = SessionManager::new(NativeEngine::with_config(
        base.clone(),
        &topology,
        engine_config.clone(),
    ));
    let mut direct = f64::MAX;
    let mut direct_rows = 0usize;
    for _ in 0..GATE_RUNS {
        let started = std::time::Instant::now();
        direct_rows = 0;
        for request in &requests {
            direct_rows += session.execute(request).expect("known column").into_rows().len();
        }
        direct = direct.min(started.elapsed().as_secs_f64());
    }
    session.shutdown();

    // Clustered: one worker, one shard, no faults, identical engine setup.
    let config =
        ClusterConfig { workers: 1, shards: 1, replication: 1, ..ClusterConfig::default() };
    let mut cluster = Cluster::build_with_engine_config(
        &base,
        config,
        FaultSchedule::none(1),
        &topology,
        engine_config,
    );
    let mut clustered = f64::MAX;
    let mut clustered_rows = 0usize;
    for _ in 0..GATE_RUNS {
        let started = std::time::Instant::now();
        clustered_rows = 0;
        for request in &requests {
            match cluster.scan(request).expect("no faults") {
                ScanOutcome::Complete(rows) => clustered_rows += rows.len(),
                partial => panic!("a zero-fault single-worker scan degraded: {partial:?}"),
            }
        }
        clustered = clustered.min(started.elapsed().as_secs_f64());
    }
    cluster.shutdown();

    assert_eq!(clustered_rows, direct_rows, "the tiers disagree on the data");
    let overhead = clustered / direct - 1.0;
    eprintln!(
        "cluster overhead gate: direct {direct:.4}s, clustered {clustered:.4}s \
         ({:+.1}% overhead)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.10,
        "zero-fault single-worker cluster overhead must stay within 10% of the \
         direct engine: direct {direct:.4}s, clustered {clustered:.4}s ({:+.1}%)",
        overhead * 100.0
    );
}
