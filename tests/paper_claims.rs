//! Reduced-scale checks of the paper's headline claims, exercised through the
//! experiment harness exactly as the `repro` binary runs them.

use numascan::bench::experiments;
use numascan::bench::ExperimentScale;

fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        rows: 1_000_000,
        payload_columns: 8,
        client_sweep: vec![64],
        high_concurrency: 64,
        max_queries: 250,
        max_virtual_seconds: 20.0,
    }
}

#[test]
fn claim_numa_awareness_multiplies_throughput() {
    // Figure 1 / Figure 8: NUMA-aware scheduling is a multiple of NUMA-agnostic.
    let tables = experiments::fig01::run(&tiny_scale());
    let speedup = tables[0].cell_f64("64", "speedup").unwrap();
    assert!(speedup > 2.0, "NUMA-awareness speedup too small: {speedup}");
}

#[test]
fn claim_stealing_memory_intensive_tasks_hurts() {
    // Section 6.2.1 / Figure 15: Target loses to Bound for skewed scans.
    let tables = experiments::fig15::run(&ExperimentScale {
        rows: 1_000_000,
        payload_columns: 16,
        client_sweep: vec![96],
        high_concurrency: 96,
        max_queries: 300,
        max_virtual_seconds: 20.0,
    });
    let target = tables[0].cell_f64("96", "Target").unwrap();
    let bound = tables[0].cell_f64("96", "Bound").unwrap();
    assert!(
        bound > target,
        "Bound {bound} must beat Target {target} for skewed memory-bound scans"
    );
}

#[test]
fn claim_unnecessary_partitioning_hurts_at_scale() {
    // Section 6.1.4 / Figure 12: partitioning across all sockets of the
    // rack-scale machine loses a large fraction of the RR throughput.
    // Only the RR and IVP32 rows are asserted on, so only they are run;
    // each row builds its own machine, so its numbers match the full figure.
    let scale = ExperimentScale {
        rows: 1_000_000,
        payload_columns: 32,
        client_sweep: vec![192],
        high_concurrency: 192,
        max_queries: 400,
        max_virtual_seconds: 20.0,
    };
    // Row cells: placement, OS, Target, Bound.
    let bound = |parts| -> f64 { experiments::fig12::row(&scale, parts)[3].parse().unwrap() };
    let (rr, ivp32) = (bound(1), bound(32));
    assert!(
        ivp32 < 0.75 * rr,
        "partitioning across 32 sockets should cost a large fraction of throughput: RR {rr} vs IVP32 {ivp32}"
    );
}

#[test]
fn claim_parallelism_decides_the_ivp_vs_pp_and_vs_rr_crossover() {
    // Figure 10: partitioned placements *depend* on intra-query parallelism.
    // Without it, a single task scans most of the partitioned IV remotely and
    // RR wins at high concurrency; with it, the partitioned placements pull
    // even with RR again and multiply single-client throughput.
    let scale = ExperimentScale {
        rows: 4_000_000,
        payload_columns: 32,
        client_sweep: vec![1, 256],
        high_concurrency: 256,
        max_queries: 1_200,
        max_virtual_seconds: 20.0,
    };
    let tables = experiments::fig10::run(&scale);
    let without = &tables[0];
    let with = &tables[2];

    // Without parallelism, IVP loses a large fraction of RR's throughput at
    // high concurrency, and PP (whose partitions at least keep their scans
    // socket-local) stays ahead of IVP.
    let rr_hc_without = without.cell_f64("256", "RR").unwrap();
    let ivp_hc_without = without.cell_f64("256", "IVP").unwrap();
    let pp_hc_without = without.cell_f64("256", "PP").unwrap();
    assert!(
        ivp_hc_without < 0.75 * rr_hc_without,
        "unparallelized IVP should lose badly to RR: {ivp_hc_without} vs {rr_hc_without}"
    );
    assert!(
        pp_hc_without > ivp_hc_without,
        "unparallelized PP should beat unparallelized IVP: {pp_hc_without} vs {ivp_hc_without}"
    );

    // With parallelism the order flips back: IVP converges to within 15% of
    // RR at high concurrency and multiplies single-client throughput.
    let rr_hc_with = with.cell_f64("256", "RR").unwrap();
    let ivp_hc_with = with.cell_f64("256", "IVP").unwrap();
    assert!(
        ivp_hc_with > 0.85 * rr_hc_with,
        "parallelized IVP should converge to RR: {ivp_hc_with} vs {rr_hc_with}"
    );
    let rr_low_with = with.cell_f64("1", "RR").unwrap();
    let ivp_low_with = with.cell_f64("1", "IVP").unwrap();
    assert!(
        ivp_low_with > 1.5 * rr_low_with,
        "a lone client should gain from partitioning + parallelism: {ivp_low_with} vs {rr_low_with}"
    );
}

#[test]
fn claim_table2_placement_tradeoffs_are_measured() {
    // Table 2: the placements trade single-client speed, latency fairness,
    // memory and readjustment cost against each other.
    let scale = ExperimentScale {
        rows: 4_000_000,
        payload_columns: 8,
        client_sweep: vec![64],
        high_concurrency: 64,
        max_queries: 250,
        max_virtual_seconds: 20.0,
    };
    let t = &experiments::table02::run(&scale)[0];

    // Partitioned placements use the whole machine for a single client.
    let rr_low = t.cell_f64("RR", "TP @ 1 client (q/min)").unwrap();
    let ivp_low = t.cell_f64("IVP4", "TP @ 1 client (q/min)").unwrap();
    assert!(ivp_low > 1.5 * rr_low, "IVP single-client: {ivp_low} vs RR {rr_low}");

    // Partitioning evens out per-query latency (smaller coefficient of
    // variation than RR at high concurrency).
    let rr_cov = t.cell_f64("RR", "Latency CoV @ high conc.").unwrap();
    let ivp_cov = t.cell_f64("IVP4", "Latency CoV @ high conc.").unwrap();
    assert!(ivp_cov < rr_cov, "IVP latency fairness: CoV {ivp_cov} vs RR {rr_cov}");

    // RR needs no readjustment; PP is by far the slowest to readjust; memory
    // overhead never shrinks below RR's.
    let rr_adj = t.cell_f64("RR", "Readjustment (min, paper dataset)").unwrap();
    let ivp_adj = t.cell_f64("IVP4", "Readjustment (min, paper dataset)").unwrap();
    let pp_adj = t.cell_f64("PP4", "Readjustment (min, paper dataset)").unwrap();
    assert_eq!(rr_adj, 0.0);
    assert!(pp_adj > 2.0 * ivp_adj, "PP readjustment {pp_adj} vs IVP {ivp_adj}");
    let rr_mem = t.cell_f64("RR", "Memory overhead (%)").unwrap();
    let pp_mem = t.cell_f64("PP4", "Memory overhead (%)").unwrap();
    assert!(pp_mem >= rr_mem);
}

#[test]
fn claim_table1_is_reproduced_exactly() {
    let tables = experiments::table01::run(&tiny_scale());
    let t = &tables[0];
    assert_eq!(t.cell_f64("Local latency (ns)", "4xIvybridge-EX"), Some(150.0));
    assert_eq!(t.cell_f64("1 hop B/W (GiB/s)", "32xIvybridge-EX"), Some(11.8));
    assert_eq!(t.cell_f64("Max hops B/W (GiB/s)", "8xWestmere-EX"), Some(4.6));
}

#[test]
fn claim_tpch_q1_q6_are_exact_across_placements_paths_and_layouts() {
    // From scans to OLAP: the TPC-H-derived Q1 (grouped five-function
    // aggregation) and Q6 (global sum) must answer value-identically to the
    // scalar oracle end-to-end through the session layer, across every data
    // placement {RR, IVP, PP}, both scan paths {private, shared}, and both
    // index-vector layouts {BitPacked, RLE}.
    use numascan::core::{
        oracle_aggregate, NativeEngine, NativeEngineConfig, PlacementStrategy, SessionManager,
        SharedScanConfig, SharedScanMode,
    };
    use numascan::numasim::Topology;
    use numascan::storage::{ColumnId, IvLayoutKind};
    use numascan::workload::{lineitem_table, q1_request, q6_request};

    let rows = 48_000usize;
    let table = lineitem_table(rows, 0xA11CE);
    let placements = [
        ("RR", PlacementStrategy::RoundRobin),
        ("IVP4", PlacementStrategy::IndexVectorPartitioned { parts: 4 }),
        ("PP4", PlacementStrategy::PhysicallyPartitioned { parts: 4 }),
    ];
    for (query, request) in [("Q1", q1_request()), ("Q6", q6_request())] {
        let spec = request.agg.as_ref().expect("an aggregation statement");
        let expected = oracle_aggregate(&table, request.column(), &request.predicate(), spec);
        for (pname, placement) in &placements {
            for (path, mode) in
                [("private", SharedScanMode::Off), ("shared", SharedScanMode::Always)]
            {
                for layout in [IvLayoutKind::BitPacked, IvLayoutKind::Rle] {
                    let session = SessionManager::new(NativeEngine::with_config(
                        table.clone(),
                        &Topology::four_socket_ivybridge_ex(),
                        NativeEngineConfig {
                            placement: *placement,
                            shared_scans: SharedScanConfig { mode, ..Default::default() },
                            ..Default::default()
                        },
                    ));
                    if layout == IvLayoutKind::Rle {
                        // Re-encode every part of every column run-length
                        // (extra part indexes are rejected and ignored).
                        for column in 0..7 {
                            for part in 0..8 {
                                session.engine().relayout_part(ColumnId(column), part, layout);
                            }
                        }
                    }
                    let got = session.execute(&request).expect("known columns").into_aggregate();
                    assert_eq!(
                        got, expected,
                        "{query} diverged from the oracle under {pname}/{path}/{layout:?}"
                    );
                    session.shutdown();
                }
            }
        }
    }
}

#[test]
fn claim_tpch_q1_q6_survive_the_cluster_coordinator() {
    // The coordinator-merge pattern end-to-end: shard-local partial tables
    // merged in deterministic shard order and finalized once, equal to the
    // finalized single-table oracle.
    use numascan::cluster::{AggOutcome, Cluster, ClusterConfig};
    use numascan::core::oracle_aggregate;
    use numascan::workload::{lineitem_table, q1_request, q6_request, FaultSchedule};

    let table = lineitem_table(36_000, 0xC0DE);
    let config =
        ClusterConfig { workers: 3, shards: 3, replication: 2, ..ClusterConfig::default() };
    let mut cluster = Cluster::build(&table, config, FaultSchedule::none(11));
    for (query, request) in [("Q1", q1_request()), ("Q6", q6_request())] {
        let spec = request.agg.as_ref().expect("an aggregation statement");
        let expected =
            oracle_aggregate(&table, request.column(), &request.predicate(), spec).finalize();
        match cluster.aggregate(&request).expect("clean cluster") {
            AggOutcome::Complete(got) => {
                assert_eq!(got, expected, "{query} diverged through the coordinator")
            }
            partial => panic!("{query}: a fault-free cluster must resolve fully: {partial:?}"),
        }
    }
}
