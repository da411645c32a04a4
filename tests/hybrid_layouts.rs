//! Acceptance gates for the hybrid per-partition storage layer.
//!
//! Zone-map pruning is gated by exact counts: at most two of eight
//! partitions of a sorted column survive a narrow range, and scanning only
//! the survivors returns exactly what scanning every partition returns. One
//! release-only timing gate asks the run-length layout to stay within 10% of
//! the SWAR kernel on the low-cardinality data it exists for. The adaptivity
//! acceptance: a seeded workload-shift replay against the live
//! [`numascan::core::NativeEngine`] must make the layout advisor re-encode
//! the cold column run-length, with results byte-identical to a sequential
//! reference filter before and after.
//!
//! The timing gate is ignored in debug builds and run by CI via
//! `cargo test --release --test hybrid_layouts`.

mod common;

use common::paired_medians;
use numascan::core::{
    AdaptiveDataPlacer, NativeEngine, NativeEngineConfig, PlacementStrategy, PlacerAction,
    QueryResult, ScanRequest, SessionManager,
};
use numascan::numasim::Topology;
use numascan::scheduler::SchedulingStrategy;
use numascan::storage::{
    ivp_ranges, scan_positions, BitPackedVec, ColumnId, DictColumn, IvLayoutKind, Predicate,
    RleVec, TableBuilder,
};
use numascan::workload::{replay_shift, ShiftConfig, ShiftPhase};

#[test]
fn zone_maps_leave_at_most_two_of_eight_parts_of_a_sorted_column() {
    // A sorted low-cardinality column split into 8 partitions: each
    // partition owns a disjoint vid slice, so a 100-value range can touch at
    // most two of them (zone granularity can keep one neighbour alive).
    let rows = 1_000_000usize;
    let values: Vec<i64> = (0..rows as i64).map(|i| i / 64).collect();
    let column = DictColumn::from_values("sorted", &values);
    let predicate = Predicate::Between { lo: 1_000, hi: 1_100 };
    let encoded = predicate.encode(column.dictionary());
    let ranges = ivp_ranges(rows, 8);

    let survivors: Vec<_> =
        ranges.iter().filter(|r| !column.prunes((*r).clone(), &encoded)).cloned().collect();
    assert!(
        survivors.len() <= 2,
        "{} of 8 parts survived zone pruning: {survivors:?}",
        survivors.len()
    );
    let scan = |parts: &[std::ops::Range<usize>]| -> Vec<u32> {
        parts.iter().flat_map(|r| scan_positions(&column, r.clone(), &encoded)).collect()
    };
    let all = scan(&ranges);
    assert_eq!(all.len(), 101 * 64, "the gate must scan a matching range");
    assert_eq!(scan(&survivors), all, "pruning must not change the result");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing assertions require a release build")]
fn rle_kernel_is_competitive_on_low_cardinality_data() {
    // Runs of 128 at 12 bits: the shape the advisor compresses. The
    // run-level kernel skips whole runs and typically wins outright; the
    // gate only demands it stays within 10% of the SWAR kernel (>= 0.9x
    // throughput), so a regression that makes RLE clearly slower fails
    // while machine noise cannot.
    let rows = 4_000_000usize;
    let bits = 12u8;
    let domain = 1u32 << bits;
    let values: Vec<u32> =
        (0..rows).map(|i| ((i / 128) as u32).wrapping_mul(7919) % domain).collect();
    let packed = BitPackedVec::from_slice(bits, &values);
    let rle = RleVec::from_codes(bits, values.iter().copied());
    let (min, max) = (domain / 10, domain / 10 + domain / 20);

    let swar_count = || packed.count_range(0..rows, min, max);
    let rle_count = || rle.count_range(0..rows, min, max);
    assert_eq!(swar_count(), rle_count(), "layouts disagree");
    let (swar, rle_time) = paired_medians(swar_count, rle_count);
    println!(
        "RLE {rle_time:?} vs SWAR {swar:?} (median): RLE at {:.2}x the SWAR throughput",
        swar.as_secs_f64() / rle_time.as_secs_f64()
    );
    assert!(
        rle_time.as_secs_f64() * 0.9 <= swar.as_secs_f64(),
        "RLE count_range ({rle_time:?}, median) must reach at least 0.9x the SWAR kernel's \
         throughput ({swar:?}, median) on 128-long runs"
    );
    assert!(
        rle.memory_bytes() * 4 <= packed.memory_bytes(),
        "128-long runs must compress at least 4x: {} vs {} bytes",
        rle.memory_bytes(),
        packed.memory_bytes()
    );
}

#[test]
fn workload_shift_replay_relayouts_the_cold_column_with_exact_results() {
    // One hot random column keeps all four sockets evenly busy; a cold
    // sorted low-cardinality column sits idle. The closed loop must first
    // consolidate the cold column's partitions, then re-encode it
    // run-length — and the statement results must stay byte-identical to a
    // sequential reference filter throughout.
    let rows = 96_000usize;
    let hot: Vec<i64> =
        (0..rows as i64).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 7) & 0x1FF).collect();
    let cold: Vec<i64> = (0..rows as i64).map(|i| i / 64).collect();
    let table = TableBuilder::new("t")
        .add_values("hot", &hot, false)
        .add_values("cold", &cold, false)
        .build();
    let session = SessionManager::new(NativeEngine::with_config(
        table,
        &Topology::four_socket_ivybridge_ex(),
        NativeEngineConfig {
            strategy: SchedulingStrategy::Bound,
            placement: PlacementStrategy::IndexVectorPartitioned { parts: 4 },
            ..Default::default()
        },
    ));
    let oracle = |values: &[i64], lo: i64, hi: i64| -> Vec<i64> {
        values.iter().copied().filter(|v| (lo..=hi).contains(v)).collect()
    };
    assert_eq!(
        session.execute(&ScanRequest::between("cold", 100, 260)).map(QueryResult::into_rows),
        Ok(oracle(&cold, 100, 260)),
        "pre-shift scan disagrees with the reference filter"
    );

    let placer = AdaptiveDataPlacer::default();
    let phases = vec![ShiftPhase::new(vec!["hot".to_string()], 5)];
    let config = ShiftConfig { value_domain: 512, ..Default::default() };
    let report = replay_shift(&session, Some(&placer), &phases, &config);

    let relayouts: Vec<_> = report
        .placement_actions()
        .into_iter()
        .filter(|a| matches!(a, PlacerAction::Relayout { .. }))
        .collect();
    assert!(
        !relayouts.is_empty(),
        "the advisor must trigger at least one live relayout: {:?}",
        report.placement_actions()
    );
    assert!(
        relayouts.iter().all(|a| matches!(
            a,
            PlacerAction::Relayout { column, layout: IvLayoutKind::Rle, .. }
                if column.column == 1
        )),
        "only the cold column should be compressed: {relayouts:?}"
    );
    assert_eq!(
        session.engine().column_part_layout(ColumnId(1), 0),
        Some(IvLayoutKind::Rle),
        "the cold column must actually be run-length encoded on the live engine"
    );

    // Replays are seeded and telemetry attribution is byte-exact, so the
    // action stream is reproducible run to run.
    let session2 = SessionManager::new(NativeEngine::with_config(
        TableBuilder::new("t")
            .add_values("hot", &hot, false)
            .add_values("cold", &cold, false)
            .build(),
        &Topology::four_socket_ivybridge_ex(),
        NativeEngineConfig {
            strategy: SchedulingStrategy::Bound,
            placement: PlacementStrategy::IndexVectorPartitioned { parts: 4 },
            ..Default::default()
        },
    ));
    let report2 = replay_shift(&session2, Some(&AdaptiveDataPlacer::default()), &phases, &config);
    assert_eq!(
        report.placement_actions(),
        report2.placement_actions(),
        "the seeded replay must be deterministic"
    );
    session2.shutdown();

    // Post-shift: the relayouted cold column and the still-bit-packed hot
    // column answer byte-identically to the sequential reference.
    assert_eq!(
        session.execute(&ScanRequest::between("cold", 100, 260)).map(QueryResult::into_rows),
        Ok(oracle(&cold, 100, 260)),
        "post-relayout cold scan disagrees with the reference filter"
    );
    assert_eq!(
        session.execute(&ScanRequest::between("hot", 40, 99)).map(QueryResult::into_rows),
        Ok(oracle(&hot, 40, 99)),
        "post-shift hot scan disagrees with the reference filter"
    );
    session.shutdown();
}
