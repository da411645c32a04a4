//! End-to-end tests of cooperative shared scans.
//!
//! Three layers are pinned here:
//!
//! 1. **Byte-identity** — with sharing forced on, concurrent clients over
//!    every data placement must receive exactly the results the sequential
//!    per-query oracle produces, no matter when they attach to an in-flight
//!    sweep.
//! 2. **Routing** — `Auto` mode keeps low-concurrency statements on the
//!    private path (preserving the deterministic telemetry the adaptive
//!    placer depends on) and routes high-concurrency statements through the
//!    shared executor; `Off` never shares.
//! 3. **The acceptance gate** (release builds only) — 256 concurrent clients
//!    hammering one hot column must reach at least 4x the aggregate
//!    throughput of the private-sweep baseline, because one circular sweep
//!    with the batched SWAR kernel serves the whole waiting set. The
//!    structural reason — rows streamed vs rows demanded — is asserted
//!    separately and holds in any build.

use std::collections::HashMap;
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

mod common;

use common::oracle_rows;
use numascan::core::{
    NativeEngine, NativeEngineConfig, PlacementStrategy, ScanRequest, SessionManager,
    SharedScanConfig, SharedScanMode,
};
use numascan::numasim::Topology;
use numascan::workload::small_real_table;

const DATA_SEED: u64 = 0x5CA9;

fn session(rows: usize, placement: PlacementStrategy, mode: SharedScanMode) -> SessionManager {
    SessionManager::new(NativeEngine::with_config(
        small_real_table(rows, 2, DATA_SEED),
        &Topology::four_socket_ivybridge_ex(),
        NativeEngineConfig {
            placement,
            shared_scans: SharedScanConfig { mode, ..SharedScanConfig::default() },
            ..Default::default()
        },
    ))
}

/// The sequential oracle over the session's whole table.
fn oracle(session: &SessionManager, request: &ScanRequest) -> Vec<i64> {
    let table = session.engine().table();
    oracle_rows(table, 0..table.row_count(), request)
}

/// Mixed requests over both columns: ranges, IN-lists, and an occasional
/// empty (inverted) range. col000 is bitcase 8 (values in 0..256), col001
/// bitcase 9 (values in 0..512); the bounds stay inside those domains so
/// matches are plentiful.
fn request(client: usize, query: usize) -> ScanRequest {
    match (client + query) % 4 {
        0 => {
            let lo = ((client * 37 + query * 911) % 400) as i64;
            ScanRequest::between("col001", lo, lo + 60)
        }
        1 => {
            let lo = ((client * 13 + query * 7) % 200) as i64;
            ScanRequest::between("col000", lo, lo + 25)
        }
        2 => {
            let base = ((client * 53 + query * 101) % 450) as i64;
            ScanRequest::in_list("col001", vec![base, base + 2, base + 77, base + 4_000])
        }
        _ => ScanRequest::between("col001", 10, 3),
    }
}

/// Satellite: with sharing forced on, every placement serves concurrent
/// mixed scans byte-identically to the sequential oracle, and the shared
/// executor actually carried the traffic.
#[test]
fn shared_results_match_the_oracle_across_placements() {
    for placement in [
        PlacementStrategy::RoundRobin,
        PlacementStrategy::IndexVectorPartitioned { parts: 4 },
        PlacementStrategy::PhysicallyPartitioned { parts: 4 },
    ] {
        let session = session(24_000, placement, SharedScanMode::Always);
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|client| {
                    let session = &session;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        (0..5)
                            .map(|query| {
                                let request = request(client, query);
                                let got =
                                    session.execute(&request).expect("known column").into_rows();
                                (request, got)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (request, got) in handle.join().expect("client panicked") {
                    let expected = oracle(&session, &request);
                    assert_eq!(got, expected, "{placement:?}: diverged for {request:?}");
                }
            }
        });

        let shared = session.shared_scan_stats();
        assert!(shared.sweeps_started > 0, "{placement:?}: nothing was shared: {shared:?}");
        assert!(shared.rows_swept > 0, "{placement:?}: {shared:?}");
        // 40 statements run, but the 10 inverted-range ones encode to Empty
        // and are zone-pruned before attaching; the satisfiable 30 attach to
        // every part they overlap.
        assert!(
            shared.queries_attached >= 30,
            "{placement:?}: every satisfiable statement must attach per part: {shared:?}"
        );
        let stats = session.engine().scheduler_stats();
        assert_eq!(stats.affinity_violations, 0, "{placement:?}: {stats:?}");
        session.shutdown();
    }
}

/// Satellite: hybrid per-partition layouts under sharing. A sorted
/// low-cardinality column under IVP gets one part re-encoded RLE; narrow
/// predicates zone-prune the parts whose vid ranges they miss. Concurrent
/// shared statements over that mixed layout must stay byte-identical to the
/// sequential oracle, and the pruned parts must never register sweeps.
#[test]
fn pruned_and_rle_parts_share_sweeps_exactly() {
    use numascan::storage::IvLayoutKind;
    // 24k rows, 480 distinct values in runs of 50: parts under IVP-4 cover
    // disjoint value ranges 0..120, 120..240, 240..360, 360..480.
    let rows = 24_000usize;
    let values: Vec<i64> = (0..rows as i64).map(|i| i / 50).collect();
    let table = numascan::storage::TableBuilder::new("t").add_values("v", &values, false).build();
    let engine = NativeEngine::with_config(
        table,
        &Topology::four_socket_ivybridge_ex(),
        NativeEngineConfig {
            placement: PlacementStrategy::IndexVectorPartitioned { parts: 4 },
            shared_scans: SharedScanConfig { mode: SharedScanMode::Always, chunk_rows: 1024 },
            ..Default::default()
        },
    );
    let (v, _) = engine.table().column_by_name("v").unwrap();
    assert!(engine.relayout_part(v, 1, IvLayoutKind::Rle), "part 1 re-encodes RLE");
    let session = SessionManager::new(engine);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|client| {
                let session = &session;
                scope.spawn(move || {
                    (0..4)
                        .map(|query| {
                            // Narrow ranges spread over the domain: each hits
                            // one or two parts (including the RLE part) and
                            // prunes the rest.
                            let lo = ((client * 97 + query * 173) % 440) as i64;
                            let request = ScanRequest::between("v", lo, lo + 35);
                            let got = session.execute(&request).expect("known column").into_rows();
                            (request, got)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (request, got) in handle.join().expect("client panicked") {
                assert_eq!(got, oracle(&session, &request), "diverged for {request:?}");
            }
        }
    });

    let shared = session.shared_scan_stats();
    assert!(shared.sweeps_started > 0, "{shared:?}");
    // 24 statements over a 4-part column: without pruning the sweeps would
    // cover up to 4 parts per distinct predicate. Every range of width 35
    // overlaps at most 2 parts, so attach volume proves pruning engaged.
    assert!(
        shared.queries_attached <= 2 * 24,
        "narrow ranges must prune to <= 2 parts each: {shared:?}"
    );
    session.shutdown();
}

/// Routing: `Off` never touches the shared executor; `Auto` keeps a single
/// sequential client on the private path (one statement gets the whole
/// machine) and `Always` routes even that client through a sweep.
#[test]
fn sharing_mode_routes_statements_as_documented() {
    let request = ScanRequest::between("col001", 100, 400);

    for (mode, expect_shared) in [
        (SharedScanMode::Off, false),
        (SharedScanMode::Auto, false),
        (SharedScanMode::Always, true),
    ] {
        let session = session(10_000, PlacementStrategy::RoundRobin, mode);
        let expected = oracle(&session, &request);
        let got = session.execute(&request).expect("known column").into_rows();
        assert_eq!(got, expected, "{mode:?}");
        let shared = session.shared_scan_stats();
        assert_eq!(shared.rows_swept > 0, expect_shared, "{mode:?} routed wrongly: {shared:?}");
        session.shutdown();
    }
}

/// A late client attaching to a sweep that is already past its rows gets the
/// missed prefix from the wrap-around pass — exercised here with a chunk
/// size far smaller than the column so mid-column joins are the common case.
#[test]
fn tiny_chunks_with_staggered_clients_stay_exact() {
    let session = SessionManager::new(NativeEngine::with_config(
        small_real_table(20_000, 2, DATA_SEED),
        &Topology::four_socket_ivybridge_ex(),
        NativeEngineConfig {
            placement: PlacementStrategy::RoundRobin,
            shared_scans: SharedScanConfig { mode: SharedScanMode::Always, chunk_rows: 512 },
            ..Default::default()
        },
    ));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|client| {
                let session = &session;
                scope.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_micros(client as u64 * 150));
                    (0..4)
                        .map(|query| {
                            let request = request(client, query);
                            let got = session.execute(&request).expect("known column").into_rows();
                            (request, got)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (request, got) in handle.join().expect("client panicked") {
                assert_eq!(got, oracle(&session, &request), "diverged for {request:?}");
            }
        }
    });
    let shared = session.shared_scan_stats();
    assert!(shared.chunks_swept >= shared.sweeps_started, "{shared:?}");
    // Every attachment either started a sweep or joined one in flight.
    assert_eq!(shared.queries_attached, shared.sweeps_started + shared.late_attaches, "{shared:?}");
    session.shutdown();
}

const GATE_ROWS: usize = 1_000_000;
const GATE_CLIENTS: usize = 256;
const GATE_QUERIES: usize = 4;

/// The gate's hot column. The `id` column is the one whose dictionary is as
/// wide as the table (bitcase 20 at a million rows — squarely in the paper's
/// 17..=26 scan range), so a private statement has to stream the most packed
/// bytes per pass; the payload columns' 8-9 bit dictionaries would make the
/// baseline scan artificially cheap.
const GATE_COLUMN: &str = "id";

/// One gate replay: every client thread is spawned first and waits on a
/// barrier. The clock starts when the last client arrives and releases the
/// others (`std`'s barrier makes that thread the leader, which is running
/// at that instant), and stops when the last client has verified its final
/// statement against the precomputed oracle. Spawning and joining the
/// threads stay outside the measured wall time.
fn gate_replay(
    mode: SharedScanMode,
    oracles: &HashMap<(i64, i64), Vec<i64>>,
) -> (f64, SessionManager) {
    let session = session(GATE_ROWS, PlacementStrategy::RoundRobin, mode);
    let (barrier, released) = (Barrier::new(GATE_CLIENTS), OnceLock::new());
    let finished = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..GATE_CLIENTS)
            .map(|client| {
                let (session, barrier, released) = (&session, &barrier, &released);
                scope.spawn(move || {
                    if barrier.wait().is_leader() {
                        released.set(Instant::now()).expect("one leader per barrier");
                    }
                    for query in 0..GATE_QUERIES {
                        let (lo, hi) = gate_bounds(client, query);
                        let request = ScanRequest::between(GATE_COLUMN, lo, hi);
                        let got = session.execute(&request).expect("known column").into_rows();
                        let expected = &oracles[&(lo, hi)];
                        assert_eq!(&got, expected, "{mode:?}: diverged for {request:?}");
                    }
                    Instant::now()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client panicked")).max()
    });
    let released = released.get().expect("the barrier released the clients");
    let wall = finished.expect("the gate has clients").saturating_duration_since(*released);
    (wall.as_secs_f64(), session)
}

/// The hot-column bounds of one statement: selective ranges over recent ids
/// drawn from a small rotating set at the low end of the domain, the shape
/// of a hot dashboard query. The waiting set overlaps heavily without being
/// textually identical, and the cluster keeps the batch's bounding range
/// narrow so the union pre-filter skips most windows outright.
fn gate_bounds(client: usize, query: usize) -> (i64, i64) {
    let lo = ((client % 8) * 512 + query * 3_001) as i64;
    (lo, lo + 150)
}

/// Acceptance: at 256 concurrent clients on one hot column, the shared
/// executor delivers at least 4x the aggregate throughput of the
/// private-sweep baseline, byte-identical to the sequential oracle, with a
/// clean affinity audit. The 4x floor is deliberately far below the typical
/// win (the sweep serves dozens of statements per pass) so CI noise cannot
/// flake it.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing assertions require a release build")]
fn shared_scans_reach_4x_aggregate_throughput_at_256_clients() {
    // Precompute the oracle once per distinct request off one throwaway
    // session (the data is seeded, so every session sees the same table).
    let reference = session(GATE_ROWS, PlacementStrategy::RoundRobin, SharedScanMode::Off);
    let mut oracles: HashMap<(i64, i64), Vec<i64>> = HashMap::new();
    for client in 0..GATE_CLIENTS {
        for query in 0..GATE_QUERIES {
            let (lo, hi) = gate_bounds(client, query);
            oracles
                .entry((lo, hi))
                .or_insert_with(|| oracle(&reference, &ScanRequest::between(GATE_COLUMN, lo, hi)));
        }
    }
    reference.shutdown();

    let (private_wall, private_session) = gate_replay(SharedScanMode::Off, &oracles);
    assert_eq!(private_session.shared_scan_stats().rows_swept, 0, "Off must never share");
    private_session.shutdown();

    let (shared_wall, shared_session) = gate_replay(SharedScanMode::Always, &oracles);
    let shared = shared_session.shared_scan_stats();
    let stats = shared_session.engine().scheduler_stats();
    shared_session.shutdown();

    // Structural amortization: the statements demanded 1024 full passes of
    // the column; the shared executor must have streamed far fewer rows.
    let demanded = (GATE_CLIENTS * GATE_QUERIES * GATE_ROWS) as u64;
    assert!(
        shared.rows_swept * 4 <= demanded,
        "shared sweeps did not amortize: swept {} of {} demanded rows",
        shared.rows_swept,
        demanded
    );
    assert!(shared.late_attaches > 0, "256 clients must produce mid-flight attaches: {shared:?}");
    assert_eq!(stats.affinity_violations, 0, "{stats:?}");

    let speedup = private_wall / shared_wall;
    eprintln!(
        "shared-scan gate: {speedup:.1}x at {GATE_CLIENTS} clients \
         (private {private_wall:.3}s, shared {shared_wall:.3}s, {} rows swept for {} demanded)",
        shared.rows_swept, demanded
    );
    assert!(
        speedup >= 4.0,
        "aggregate throughput at {GATE_CLIENTS} clients must be >= 4x the private baseline, \
         got {speedup:.2}x (private {private_wall:.3}s, shared {shared_wall:.3}s)"
    );
}
