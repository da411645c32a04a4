//! Property-based tests over the core data structures and their invariants.

use proptest::prelude::*;

mod common;

use common::oracle_rows;
use numascan::numasim::{SocketId, Topology};
use numascan::scheduler::{
    ConcurrencyHint, CoreConfig, PopOutcome, QueueSet, SchedulerCore, SleepOutcome, StealScope,
    TaskMeta, TaskPriority, ThreadGroupId, WorkClass, WorkerId, WorkerState,
};
use numascan::storage::{
    scan_bitvector, scan_positions, BitPackedVec, BitVector, DictColumn, Dictionary,
    EncodedPredicate, IvLayoutKind, Predicate, RleVec, VidRuns,
};

/// Reference model of one queued task, keyed by the id stored as payload.
#[derive(Debug, Clone, Copy)]
struct ModelTask {
    priority: TaskPriority,
    /// Global insertion order (mirrors the `QueueSet` sequence counter).
    seq: u64,
    hard: bool,
    id: u32,
}

/// What `pop_for_worker(worker)` must return according to the scheduling
/// discipline: the best task of the own group (both queues), else the best
/// same-socket task (both queues, group index breaking priority ties), else
/// the best foreign *normal* task. "Best" is (priority, insertion order).
fn model_expected_pop(
    groups: &[Vec<ModelTask>],
    groups_per_socket: usize,
    worker: usize,
) -> Option<(usize, usize, StealScope)> {
    let best_in = |g: usize, include_hard: bool| -> Option<(TaskPriority, u64, usize)> {
        groups[g]
            .iter()
            .enumerate()
            .filter(|(_, t)| include_hard || !t.hard)
            .map(|(i, t)| (t.priority, t.seq, i))
            .min()
    };
    if let Some((_, _, i)) = best_in(worker, true) {
        return Some((worker, i, StealScope::OwnGroup));
    }
    let socket = worker / groups_per_socket;
    let same_socket = (socket * groups_per_socket..(socket + 1) * groups_per_socket)
        .filter(|g| *g != worker)
        // Cross-group selection compares best *priorities* only (insertion
        // order is a within-group tie-breaker), then the group index.
        .filter_map(|g| best_in(g, true).map(|(p, _, _)| (p, g)))
        .min();
    if let Some((_, g)) = same_socket {
        let (_, _, i) = best_in(g, true).expect("candidate group is non-empty");
        return Some((g, i, StealScope::SameSocket));
    }
    let remote = (0..groups.len())
        .filter(|g| *g / groups_per_socket != socket)
        .filter_map(|g| best_in(g, false).map(|(p, _, _)| (p, g)))
        .min();
    if let Some((_, g)) = remote {
        let (_, _, i) = best_in(g, false).expect("candidate group is non-empty");
        return Some((g, i, StealScope::RemoteSocket));
    }
    None
}

/// Expands a kernel's mask stream into row positions, checking the tiling
/// contract on the way: contiguous ascending runs of 1..=64 rows from
/// `start`, no bits set beyond a run's length. Returns the positions and the
/// row after the last run.
fn expand_tiled(stream: &[(usize, u32, u64)], start: usize) -> Result<(Vec<usize>, usize), String> {
    let mut next = start;
    let mut positions = Vec::new();
    for &(base, n, mut m) in stream {
        if base != next {
            return Err(format!("runs must tile contiguously: run at {base}, expected {next}"));
        }
        if !(1..=64).contains(&n) || (n < 64 && m >> n != 0) {
            return Err(format!("run at {base} of {n} rows has mask {m:#x}"));
        }
        next = base + n as usize;
        while m != 0 {
            positions.push(base + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
    Ok((positions, next))
}

/// The rows a bit-vector scan anchored at `start` selects.
fn rows_of(bits: &BitVector, start: usize) -> Vec<u32> {
    bits.iter_ones().map(|i| (start + i) as u32).collect()
}

/// An `IN` list for the kernel twins, drawn from `raw` in one of five
/// shapes: spread over the lane domain with a little overhang (at wide
/// bitcases, spans wider than any bitmap bound), clustered around one vid
/// (adjacent vids coalesce, more runs than lanes in a narrow span), at the
/// lane maximum (`u32::MAX` at bitcase 32), the column's own codes and their
/// successors, or a single code of the column.
fn kernel_list(shape: u8, raw: &[u64], values: &[u32], mask: u32) -> Vec<u32> {
    let domain = u64::from(mask) + 3;
    let code = |r: u64| values[(r % values.len() as u64) as usize];
    match shape {
        0 => raw.iter().map(|r| (r % domain) as u32).collect(),
        1 => {
            let base = raw.first().map_or(0, |r| (r % domain) as u32);
            raw.iter().map(|r| base.saturating_add((r % 48) as u32)).collect()
        }
        2 => raw.iter().map(|r| mask.saturating_sub((r % 6) as u32)).collect(),
        3 => raw.iter().map(|&r| code(r).wrapping_add((r >> 32) as u32 % 2) & mask).collect(),
        _ => raw.iter().take(1).map(|&r| code(r)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packing and unpacking a bit-compressed vector is lossless for any
    /// bitcase and any values that fit.
    #[test]
    fn bitpack_roundtrip(bits in 1u8..=32, values in proptest::collection::vec(any::<u32>(), 0..400)) {
        let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        let values: Vec<u32> = values.into_iter().map(|v| v & mask).collect();
        let packed = BitPackedVec::from_slice(bits, &values);
        prop_assert_eq!(packed.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(packed.get(i), *v);
        }
    }

    /// A range scan over the packed vector returns exactly the positions a
    /// naive filter returns.
    #[test]
    fn bitpack_scan_equals_naive_filter(
        values in proptest::collection::vec(0u32..1000, 1..500),
        lo in 0u32..1000,
        span in 0u32..1000,
    ) {
        let hi = lo.saturating_add(span);
        let packed = BitPackedVec::from_slice(10, &values);
        let mut runs: Vec<(usize, u32, u64)> = Vec::new();
        packed.scan_range_masks(0..values.len(), lo, hi, |base, n, m| runs.push((base, n, m)));
        let (scanned, _) = expand_tiled(&runs, 0)?;
        let expected: Vec<usize> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v >= lo && **v <= hi)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(scanned, expected);
    }

    /// The word-parallel (SWAR) scan kernels agree with the retained scalar
    /// reference oracle for every bitcase, including unaligned sub-ranges,
    /// predicate bounds outside the representable domain, values straddling
    /// word boundaries, and inverted (empty) ranges — and the list kernel
    /// agrees with a plain `contains` filter for every list shape
    /// [`kernel_list`] draws.
    #[test]
    fn swar_kernels_match_the_scalar_oracle(
        bits in 1u8..=32,
        values in proptest::collection::vec(any::<u32>(), 1..600),
        start in 0usize..600,
        row_span in 0usize..600,
        min_raw in any::<u64>(),
        max_raw in any::<u64>(),
        list_shape in 0u8..5,
        list_raw in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        let values: Vec<u32> = values.into_iter().map(|v| v & mask).collect();
        let packed = BitPackedVec::from_slice(bits, &values);
        // Bias the bounds into the lane domain (with a little overhang so the
        // out-of-domain clamping path is exercised), allowing min > max.
        let domain = u64::from(mask) + 3;
        let min = (min_raw % domain) as u32;
        let max = (max_raw % domain) as u32;
        let start = start.min(values.len());
        let end = (start + row_span).min(values.len());

        let mut expected = Vec::new();
        packed.scan_range_scalar(start..end, min, max, |p| expected.push(p));

        prop_assert_eq!(
            packed.count_range(start..end, min, max),
            expected.len(),
            "count_range: bits {}, [{}, {}]", bits, min, max
        );

        // The mask stream must tile the clamped range exactly, ascending,
        // with no bits beyond each run's length.
        let mut runs: Vec<(usize, u32, u64)> = Vec::new();
        packed.scan_range_masks(start..end, min, max, |base, n, m| runs.push((base, n, m)));
        let (from_masks, next) = expand_tiled(&runs, start)?;
        // The kernel short-circuits (no runs at all) when nothing can match.
        if start < end && min <= max && min <= mask {
            prop_assert_eq!(next, end, "runs must cover the whole range");
        }
        prop_assert_eq!(from_masks, expected);

        // Vid lists: the same contract, against a scalar `contains` filter.
        let list = kernel_list(list_shape, &list_raw, &values, mask);
        let predicate = EncodedPredicate::VidList(VidRuns::from_vids(list.iter().copied()));
        let expected: Vec<usize> = (start..end).filter(|&p| list.contains(&values[p])).collect();
        let mut runs: Vec<(usize, u32, u64)> = Vec::new();
        packed.scan_masks(start..end, &predicate, |base, n, m| runs.push((base, n, m)));
        let (from_masks, next) = expand_tiled(&runs, start)?;
        if start < end && list.iter().any(|&v| v <= mask) {
            prop_assert_eq!(next, end, "list runs must cover the whole range");
        }
        prop_assert_eq!(from_masks, expected, "bits {}, list {:?}", bits, list);
    }

    /// The run-length-encoded layout's kernels agree with the bit-packed
    /// scalar oracle for every bitcase, arbitrary (run-hostile) value
    /// streams, unaligned sub-ranges, out-of-domain bounds, inverted ranges
    /// and every vid-list shape — the RLE twin of
    /// `swar_kernels_match_the_scalar_oracle`.
    #[test]
    fn rle_kernels_match_the_scalar_oracle(
        bits in 1u8..=32,
        values in proptest::collection::vec(any::<u32>(), 1..600),
        start in 0usize..600,
        row_span in 0usize..600,
        min_raw in any::<u64>(),
        max_raw in any::<u64>(),
        stretch in 1usize..6,
        list_shape in 0u8..5,
        list_raw in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        // Stretch each drawn value into a short run so both the run-hostile
        // (stretch 1) and run-friendly shapes are exercised.
        let values: Vec<u32> =
            values.into_iter().flat_map(|v| std::iter::repeat_n(v & mask, stretch)).collect();
        let packed = BitPackedVec::from_slice(bits, &values);
        let rle = RleVec::from_codes(bits, values.iter().copied());
        prop_assert_eq!(rle.to_bitpacked(), packed.clone());
        let domain = u64::from(mask) + 3;
        let min = (min_raw % domain) as u32;
        let max = (max_raw % domain) as u32;
        let start = start.min(values.len());
        let end = (start + row_span).min(values.len());

        let mut expected = Vec::new();
        packed.scan_range_scalar(start..end, min, max, |p| expected.push(p));

        prop_assert_eq!(rle.count_range(start..end, min, max), expected.len());

        // The mask stream must honour the same tiling contract as the SWAR
        // kernel: contiguous ascending runs of 1..=64 rows, surplus bits
        // zero, and nothing at all when no row can match.
        let mut runs: Vec<(usize, u32, u64)> = Vec::new();
        rle.scan_range_masks(start..end, min, max, |base, n, m| runs.push((base, n, m)));
        let (from_masks, next) = expand_tiled(&runs, start)?;
        if start < end && min <= max && min <= mask {
            prop_assert_eq!(next, end, "runs must cover the whole range");
        }
        prop_assert_eq!(from_masks, expected);

        // Vid lists: the same contract, against a scalar `contains` filter.
        let list = kernel_list(list_shape, &list_raw, &values, mask);
        let predicate = EncodedPredicate::VidList(VidRuns::from_vids(list.iter().copied()));
        let expected: Vec<usize> = (start..end).filter(|&p| list.contains(&values[p])).collect();
        let mut runs: Vec<(usize, u32, u64)> = Vec::new();
        rle.scan_masks(start..end, &predicate, |base, n, m| runs.push((base, n, m)));
        let (from_masks, next) = expand_tiled(&runs, start)?;
        if start < end && list.iter().any(|&v| v <= mask) {
            prop_assert_eq!(next, end, "list runs must cover the whole range");
        }
        prop_assert_eq!(from_masks, expected, "bits {}, list {:?}", bits, list);

        let decoded: Vec<u32> = rle.iter_range(start..end).collect();
        prop_assert_eq!(decoded, &values[start..end]);
    }

    /// Hybrid layouts are observationally identical: a column re-encoded RLE
    /// answers every scan (positions and bit-vector form) byte-identically
    /// to its bit-packed original, for range and IN-list predicates alike,
    /// and a range rebuild (the PP part primitive) matches the value-by-value
    /// reference column.
    #[test]
    fn hybrid_layouts_scan_identically(
        values in proptest::collection::vec(0i64..300, 1..400),
        lo in -10i64..310,
        value_span in 0i64..300,
        in_list in proptest::collection::vec(-5i64..305, 0..12),
        start in 0usize..400,
        row_span in 0usize..400,
    ) {
        let col = DictColumn::from_values("c", &values);
        let mut rle_col = col.clone();
        rle_col.relayout(IvLayoutKind::Rle);
        prop_assert_eq!(rle_col.layout(), IvLayoutKind::Rle);
        let end = (start + row_span).min(values.len());
        let start = start.min(end);
        let between = Predicate::Between { lo, hi: lo + value_span };
        for pred in [between, Predicate::InList(in_list.clone())] {
            let encoded = pred.encode(col.dictionary());
            let expected: Vec<u32> = (start..end)
                .filter(|&i| match &pred {
                    Predicate::InList(list) => list.contains(&values[i]),
                    _ => (lo..=lo + value_span).contains(&values[i]),
                })
                .map(|i| i as u32)
                .collect();
            for column in [&col, &rle_col] {
                let got = scan_positions(column, start..end, &encoded);
                prop_assert_eq!(&got, &expected, "{:?} on {:?}", pred, column.layout());
            }
            prop_assert_eq!(
                scan_bitvector(&col, start..end, &encoded),
                scan_bitvector(&rle_col, start..end, &encoded),
                "{:?}", pred
            );
        }

        let rebuilt = col.rebuild_range("part".to_string(), start..end, false);
        let reference = DictColumn::from_values("part", &values[start..end]);
        prop_assert_eq!(rebuilt.row_count(), reference.row_count());
        for p in 0..reference.row_count() {
            prop_assert_eq!(rebuilt.value_at(p), reference.value_at(p));
        }
        prop_assert_eq!(rebuilt.dictionary().len(), reference.dictionary().len());
    }

    /// Zone-map pruning is sound: whenever the zone map claims a row range
    /// cannot contain a match, a real scan of that range finds nothing — for
    /// arbitrary values, sub-ranges and range/IN-list/inverted predicates.
    #[test]
    fn zone_pruning_never_drops_a_match(
        values in proptest::collection::vec(0i64..5_000, 1..500),
        kind in 0u8..3,
        a in -100i64..5_100,
        w in 0i64..600,
        start in 0usize..500,
        row_span in 0usize..500,
    ) {
        let col = DictColumn::from_values("c", &values);
        let end = (start + row_span).min(values.len());
        let start = start.min(end);
        let pred = match kind {
            0 => Predicate::Between { lo: a, hi: a + w },
            1 => Predicate::InList(vec![a, a + 7, a + w]),
            _ => Predicate::Between { lo: a + w, hi: a },
        };
        let encoded = pred.encode(col.dictionary());
        if col.prunes(start..end, &encoded) {
            prop_assert_eq!(
                scan_positions(&col, start..end, &encoded),
                Vec::<u32>::new(),
                "pruned a range containing matches: {:?}", pred
            );
        }
        let estimate = col.scan_selectivity_estimate(start..end, &encoded);
        prop_assert!((0.0..=1.0).contains(&estimate), "estimate out of range: {}", estimate);
    }

    /// The word-cursor decoder yields exactly the packed values over any
    /// sub-range.
    #[test]
    fn word_cursor_iteration_matches_random_access(
        bits in 1u8..=32,
        values in proptest::collection::vec(any::<u32>(), 0..500),
        start in 0usize..550,
        row_span in 0usize..550,
    ) {
        let mask = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        let values: Vec<u32> = values.into_iter().map(|v| v & mask).collect();
        let packed = BitPackedVec::from_slice(bits, &values);
        let end = (start + row_span).min(values.len());
        let start = start.min(end);
        let decoded: Vec<u32> = packed.iter_range(start..end).collect();
        prop_assert_eq!(decoded, &values[start..end]);
    }

    /// Position-list and bit-vector scans agree with a naive row filter for
    /// both range and in-list predicates (the latter through the list side
    /// of the mask kernel).
    #[test]
    fn scan_representations_agree_with_naive_filter(
        values in proptest::collection::vec(0i64..300, 1..400),
        lo in -10i64..310,
        value_span in 0i64..300,
        in_list in proptest::collection::vec(-5i64..305, 0..20),
        start in 0usize..400,
        row_span in 0usize..400,
    ) {
        let col = DictColumn::from_values("c", &values);
        let end = (start + row_span).min(values.len());
        let start = start.min(end);
        let hi = lo + value_span;
        let range_pred = Predicate::Between { lo, hi }.encode(col.dictionary());
        let list_pred = Predicate::InList(in_list.clone()).encode(col.dictionary());
        for (pred, naive) in [
            (&range_pred, Box::new(|v: i64| v >= lo && v <= hi) as Box<dyn Fn(i64) -> bool>),
            (&list_pred, Box::new(|v: i64| in_list.contains(&v))),
        ] {
            let expected: Vec<u32> = (start..end)
                .filter(|&i| naive(values[i]))
                .map(|i| i as u32)
                .collect();
            let positions = scan_positions(&col, start..end, pred);
            prop_assert_eq!(&positions, &expected, "{:?}", pred);
            let bits = scan_bitvector(&col, start..end, pred);
            prop_assert_eq!(bits.len(), end - start);
            prop_assert_eq!(rows_of(&bits, start), expected, "{:?}", pred);
            prop_assert_eq!(bits.count_ones(), positions.len());
        }
    }

    /// Encoding a range predicate through the dictionary and evaluating it on
    /// vids selects exactly the rows a direct value comparison selects.
    #[test]
    fn dictionary_range_encoding_is_equivalent_to_value_comparison(
        values in proptest::collection::vec(-500i64..500, 1..300),
        lo in -600i64..600,
        span in 0i64..400,
    ) {
        let hi = lo + span;
        let dict = Dictionary::from_values(values.clone());
        let encoded = Predicate::Between { lo, hi }.encode(&dict);
        for v in &values {
            let vid = dict.lookup(v).unwrap();
            let by_vid = encoded.matches(vid);
            let by_value = *v >= lo && *v <= hi;
            prop_assert_eq!(by_vid, by_value, "value {}", v);
        }
    }

    /// Bit-vector set/count/iterate are consistent.
    #[test]
    fn bitvector_count_matches_iteration(positions in proptest::collection::btree_set(0usize..2000, 0..200)) {
        let mut bv = BitVector::new(2000);
        for &p in &positions {
            bv.set(p);
        }
        prop_assert_eq!(bv.count_ones(), positions.len());
        let collected: Vec<usize> = bv.iter_ones().collect();
        let expected: Vec<usize> = positions.into_iter().collect();
        prop_assert_eq!(collected, expected);
    }

    /// The `QueueSet` scheduling discipline holds under arbitrary push/pop
    /// interleavings on a 2-socket, 2-groups-per-socket machine: a worker's
    /// pop returns exactly the task the paper's search order dictates (own
    /// group by priority, then same-socket, then foreign normal tasks), a
    /// hard-affinity task is never handed to a foreign socket, and the
    /// pending counts always agree with a naive reference model.
    ///
    /// Op encoding: `kind` 0/1 = push (1 = unaffine), 2/3 = pop; `epoch`
    /// deliberately collides so that priority ties exercise the insertion
    /// order and group-index tie-breakers.
    #[test]
    fn queue_set_discipline_matches_reference_model(
        ops in proptest::collection::vec((0u8..4, 0u64..4, 0u16..2, 0u8..2, 0usize..4), 0..100),
    ) {
        const GROUPS_PER_SOCKET: usize = 2;
        let mut qs: QueueSet<u32> = QueueSet::new(2, GROUPS_PER_SOCKET);
        let mut model: Vec<Vec<ModelTask>> = vec![Vec::new(); qs.group_count()];
        let mut seq: u64 = 0;

        for (kind, epoch, socket, hard_sel, worker) in ops {
            match kind {
                0 | 1 => {
                    let hard = hard_sel == 1;
                    let meta = TaskMeta {
                        affinity: (kind == 0).then_some(SocketId(socket)),
                        // An unaffine hard task is legal for the queues (the
                        // policy layer never produces one, but the invariant
                        // "hard tasks never leave their landing socket" must
                        // hold regardless of how the task got there).
                        hard_affinity: hard,
                        priority: TaskPriority::new(epoch, 0),
                        work_class: WorkClass::MemoryIntensive,
                        estimated_bytes: 0.0,
                    };
                    let id = seq as u32;
                    let landed = qs.push(&meta, None, id);
                    // Affine tasks must land on a group of their socket.
                    if kind == 0 {
                        prop_assert_eq!(qs.socket_of_group(landed), SocketId(socket));
                    }
                    model[landed.index()].push(ModelTask {
                        priority: meta.priority,
                        seq,
                        hard,
                        id,
                    });
                    seq += 1;
                }
                _ => {
                    let expected = model_expected_pop(&model, GROUPS_PER_SOCKET, worker);
                    let actual = qs.pop_for_worker(ThreadGroupId(worker));
                    match (expected, actual) {
                        (None, None) => {}
                        (Some((g, i, scope)), Some((id, actual_scope))) => {
                            let task = model[g][i];
                            prop_assert_eq!(id, task.id, "pop must return the best visible task");
                            prop_assert_eq!(actual_scope, scope);
                            // Hard tasks never cross sockets.
                            if task.hard {
                                prop_assert_ne!(actual_scope, StealScope::RemoteSocket);
                                prop_assert_eq!(
                                    g / GROUPS_PER_SOCKET,
                                    worker / GROUPS_PER_SOCKET,
                                    "hard task handed to a foreign socket"
                                );
                            }
                            model[g].remove(i);
                        }
                        (expected, actual) => {
                            prop_assert!(
                                false,
                                "model/queue divergence: expected {:?}, got {:?}",
                                expected,
                                actual
                            );
                        }
                    }
                }
            }

            // Pending counts stay consistent with the model after every op.
            let model_total: usize = model.iter().map(Vec::len).sum();
            prop_assert_eq!(qs.total_len(), model_total);
            prop_assert_eq!(qs.is_empty(), model_total == 0);
            let mut per_socket = vec![0usize; qs.socket_count()];
            for (g, tasks) in model.iter().enumerate() {
                per_socket[g / GROUPS_PER_SOCKET] += tasks.len();
            }
            prop_assert_eq!(qs.len_per_socket(), per_socket);
            // `has_work_for` agrees with "would a pop succeed".
            for g in 0..qs.group_count() {
                prop_assert_eq!(
                    qs.has_work_for(ThreadGroupId(g)),
                    model_expected_pop(&model, GROUPS_PER_SOCKET, g).is_some(),
                    "has_work_for diverges for group {}", g
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The bandwidth solver never over-commits a resource and never exceeds a
    /// demand's cap, for arbitrary demand sets on the 4-socket machine.
    #[test]
    fn bandwidth_allocation_respects_caps_and_capacities(
        demands in proptest::collection::vec((0u16..4, 0u16..4, 1u32..8), 1..60),
    ) {
        use numascan::numasim::bandwidth::MemoryDemand;
        use numascan::numasim::BandwidthSolver;
        let topology = Topology::four_socket_ivybridge_ex();
        let solver = BandwidthSolver::new(&topology);
        let demands: Vec<MemoryDemand> = demands
            .iter()
            .enumerate()
            .map(|(i, (cpu, mem, cap))| {
                MemoryDemand::new(i as u64, SocketId(*cpu), SocketId(*mem), *cap as f64)
            })
            .collect();
        let allocation = solver.solve(&demands);
        // Caps respected.
        for (d, r) in demands.iter().zip(&allocation.rates) {
            prop_assert!(*r >= 0.0);
            prop_assert!(*r <= d.cap_gibs + 1e-6);
        }
        // Memory controllers not over-committed (remote penalty makes the
        // true load at least the raw sum, so checking the raw sum suffices).
        for socket in 0..4u16 {
            let served: f64 = demands
                .iter()
                .zip(&allocation.rates)
                .filter(|(d, _)| d.mem_socket == SocketId(socket))
                .map(|(_, r)| *r)
                .sum();
            prop_assert!(served <= topology.socket.local_bandwidth_gibs + 1e-6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The concurrency hint is monotone: adding active statements never
    /// *increases* the number of tasks one operation is split into, and the
    /// suggestion never drops to zero (every statement always gets at least
    /// one task).
    #[test]
    fn concurrency_hint_is_non_increasing_and_never_zero(
        contexts in 1usize..512,
        active in 0usize..2048,
        extra in 0usize..2048,
    ) {
        let hint = ConcurrencyHint::new(contexts);
        let fewer = hint.suggested_tasks(active);
        let more = hint.suggested_tasks(active + extra);
        prop_assert!(fewer >= 1, "suggested_tasks({active}) = 0");
        prop_assert!(more >= 1);
        prop_assert!(
            more <= fewer,
            "hint not monotone: {active} stmts -> {fewer} tasks but {} stmts -> {more}",
            active + extra
        );
        prop_assert!(fewer <= contexts, "one operation never exceeds the machine");
    }

    /// The partition-aligned form always returns a positive multiple of the
    /// partition count (Section 5.2: tasks are rounded up to a multiple of
    /// the partitions so every task's range falls wholly inside one part),
    /// and it never rounds *down* below the plain suggestion.
    #[test]
    fn concurrency_hint_rounds_to_a_multiple_of_the_partitions(
        contexts in 1usize..512,
        active in 0usize..2048,
        partitions in 1usize..64,
    ) {
        let hint = ConcurrencyHint::new(contexts);
        let tasks = hint.suggested_tasks_for_partitions(active, partitions);
        prop_assert!(tasks >= 1);
        prop_assert_eq!(
            tasks % partitions,
            0,
            "{} tasks is not a multiple of {} partitions",
            tasks,
            partitions
        );
        prop_assert!(tasks >= hint.suggested_tasks(active), "rounding must go up, not down");
        prop_assert!(
            tasks < hint.suggested_tasks(active) + partitions,
            "rounded to a larger multiple than necessary"
        );
    }
}

/// Documents the rounding-up edge case: when the smallest multiple of the
/// partition count that covers the plain suggestion exceeds the machine's
/// context count, the hint *keeps* the larger value — partition alignment
/// wins over the context budget, so a heavily partitioned column on a small
/// machine still gets one task per partition (they simply queue).
#[test]
fn concurrency_hint_rounding_may_exceed_the_context_count() {
    let hint = ConcurrencyHint::new(4);
    // One client on a 4-context machine: the plain suggestion is the whole
    // machine (4 tasks), but an 8-part column needs a multiple of 8.
    assert_eq!(hint.suggested_tasks(1), 4);
    assert_eq!(hint.suggested_tasks_for_partitions(1, 8), 8);
    assert!(hint.suggested_tasks_for_partitions(1, 8) > hint.total_contexts);
    // Under high concurrency the suggestion collapses to one task per
    // statement, but alignment still forces one task per partition.
    assert_eq!(hint.suggested_tasks(1000), 1);
    assert_eq!(hint.suggested_tasks_for_partitions(1000, 8), 8);
    // Degenerate partition counts are treated as unpartitioned.
    assert_eq!(hint.suggested_tasks_for_partitions(1, 0), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batched SWAR kernel serves every predicate of a mixed batch
    /// byte-identically to running `scan_positions` once per predicate, for
    /// arbitrary value distributions, range/IN-list/inverted predicates (IN
    /// lists with fewer and with more runs than a window has lanes) and
    /// batch sizes.
    #[test]
    fn batched_scans_match_per_query_scans(
        values in proptest::collection::vec(0i64..2_000, 200..1500),
        queries in proptest::collection::vec((0u8..4, 0i64..2_000, 0i64..400), 1..9),
    ) {
        use numascan::storage::{scan_positions_batch, EncodedPredicate, TableBuilder};
        let table = TableBuilder::new("t").add_values("v", &values, false).build();
        let (_, column) = table.column_by_name("v").expect("column exists");
        let predicates: Vec<Predicate<i64>> = queries
            .iter()
            .map(|&(kind, a, w)| match kind {
                0 => Predicate::Between { lo: a, hi: a + w },
                1 => Predicate::InList(vec![a, a + 3, a + w, -1]),
                // More runs than a window has lanes, one pair adjacent.
                2 => Predicate::InList(
                    (0..12).map(|i| a + i * (w / 12 + 2)).chain([a + 1]).collect(),
                ),
                // Usually inverted (empty) unless w == 0.
                _ => Predicate::Between { lo: a + w, hi: a },
            })
            .collect();
        let encoded: Vec<EncodedPredicate> =
            predicates.iter().map(|p| p.encode(column.dictionary())).collect();
        let refs: Vec<&EncodedPredicate> = encoded.iter().collect();
        let batched = scan_positions_batch(column, 0..values.len(), &refs);
        prop_assert_eq!(batched.len(), encoded.len());
        for (q, enc) in encoded.iter().enumerate() {
            let solo = scan_positions(column, 0..values.len(), enc);
            prop_assert_eq!(
                &batched[q],
                &solo,
                "batched result diverged for predicate {} of {:?}",
                q,
                &predicates
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tentpole invariant: the cooperative shared-scan executor serves
    /// concurrent clients with randomized attach times byte-identically to
    /// the sequential oracle, across random placements, chunk sizes,
    /// bitcases and predicate mixes. Late arrivals attach mid-sweep and wrap
    /// around; nothing of that timing may be visible in the results.
    #[test]
    fn shared_scans_with_random_attach_times_match_the_oracle(
        rows in 2_000usize..8_000,
        seed in any::<u64>(),
        placement_pick in 0u8..3,
        chunk_rows in 64usize..2_048,
        clients in proptest::collection::vec(
            (0u64..2_000, 0u8..2, 0u8..3, 0i64..120_000, 0i64..2_000),
            2..7,
        ),
    ) {
        use numascan::core::{
            NativeEngine, NativeEngineConfig, PlacementStrategy, ScanRequest, SessionManager,
            SharedScanConfig, SharedScanMode,
        };
        use numascan::workload::small_real_table;

        let placement = match placement_pick {
            0 => PlacementStrategy::RoundRobin,
            1 => PlacementStrategy::IndexVectorPartitioned { parts: 3 },
            _ => PlacementStrategy::PhysicallyPartitioned { parts: 4 },
        };
        let session = SessionManager::new(NativeEngine::with_config(
            small_real_table(rows, 2, seed),
            &Topology::four_socket_ivybridge_ex(),
            NativeEngineConfig {
                placement,
                shared_scans: SharedScanConfig { mode: SharedScanMode::Always, chunk_rows },
                ..Default::default()
            },
        ));

        let outcomes: Vec<(ScanRequest, Vec<i64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter()
                .map(|&(delay_us, col, kind, a, w)| {
                    let session = &session;
                    scope.spawn(move || {
                        std::thread::sleep(std::time::Duration::from_micros(delay_us));
                        let column = format!("col{col:03}");
                        // col000 is bitcase 8; fold the draw into its domain.
                        let (a, w) = if col == 0 { (a % 200, w % 60) } else { (a, w) };
                        let request = match kind {
                            0 => ScanRequest::between(column, a, a + w),
                            1 => ScanRequest::in_list(column, vec![a, a + 1, a + w, a + 2 * w]),
                            _ => ScanRequest::between(column, a + w, a),
                        };
                        let got = session.execute(&request).expect("known column").into_rows();
                        (request, got)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
        });

        // Sequential oracle over the engine's own base table.
        let table = session.engine().table();
        for (request, got) in &outcomes {
            let expected = oracle_rows(table, 0..table.row_count(), request);
            prop_assert_eq!(got, &expected, "shared result diverged for {:?}", request);
        }

        let shared = session.shared_scan_stats();
        prop_assert!(shared.rows_swept > 0, "Always mode must route through the executor");
        prop_assert_eq!(shared.queries_attached, shared.sweeps_started + shared.late_attaches);
        let stats = session.engine().scheduler_stats();
        prop_assert_eq!(stats.affinity_violations, 0);
        session.shutdown();
    }

    /// Placement actions applied *while* statements run: a mutator thread
    /// moves, repartitions (IVP and PP) and relayouts columns of a live
    /// engine while two or three clients issue range, IN-list and aggregate
    /// statements, privately and through shared sweeps. Every answer equals
    /// the oracle and none fails. A sweep takes its geometry from the first
    /// statement that attached to it, so this holds only while every
    /// statement planned under one sweep key describes the same rows.
    #[test]
    fn live_placement_swaps_under_load_match_the_oracle(
        rows in 2_000usize..6_000,
        seed in any::<u64>(),
        placement_pick in 0u8..3,
        chunk_rows in 64usize..512,
        clients in 2usize..4,
        statements in proptest::collection::vec((0u8..3, 0usize..3, 0i64..512, 0i64..120), 3..8),
        actions in proptest::collection::vec(
            (0u8..4, 0usize..3, 1usize..6, 0u16..4, any::<bool>()),
            4..12,
        ),
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};

        use numascan::core::{
            oracle_aggregate, AggFunc, AggSpec, ColumnRef, NativeEngine, NativeEngineConfig,
            PlacementStrategy, PlacerAction, QueryResult, ScanRequest, SessionManager,
            SharedScanConfig, SharedScanMode,
        };
        use numascan::workload::small_real_table;

        let placement = match placement_pick {
            0 => PlacementStrategy::RoundRobin,
            1 => PlacementStrategy::IndexVectorPartitioned { parts: 3 },
            _ => PlacementStrategy::PhysicallyPartitioned { parts: 4 },
        };
        // Columns: id (one value per row), col000 (0..256), col001 (0..512).
        let table = small_real_table(rows, 2, seed);
        let names = ["id", "col000", "col001"];
        let workload: Vec<(ScanRequest, QueryResult)> = statements
            .iter()
            .map(|&(kind, column, a, w)| {
                let scan = match kind {
                    0 => ScanRequest::between(names[column], a, a + w),
                    _ => ScanRequest::in_list(names[column], vec![a, a + 1, a + w, a + 2 * w]),
                };
                if kind == 2 {
                    let funcs = vec![AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max];
                    let spec = AggSpec::new("col001", funcs).with_group_by("col000");
                    let expected =
                        oracle_aggregate(&table, scan.column(), &scan.predicate(), &spec);
                    (scan.with_aggregate(spec), QueryResult::Aggregate(expected))
                } else {
                    let expected = oracle_rows(&table, 0..rows, &scan);
                    (scan, QueryResult::Rows(expected))
                }
            })
            .collect();
        let actions: Vec<PlacerAction> = actions
            .iter()
            .map(|&(kind, column, parts, socket, rle)| {
                let column = ColumnRef { table: 0, column };
                match kind {
                    0 => PlacerAction::MoveColumn { column, to: SocketId(socket) },
                    1 => PlacerAction::RepartitionIvp { column, parts },
                    2 => PlacerAction::RepartitionPp { column, parts },
                    _ => {
                        let layout = if rle { IvLayoutKind::Rle } else { IvLayoutKind::BitPacked };
                        PlacerAction::Relayout { column, part: parts - 1, layout }
                    }
                }
            })
            .collect();

        for mode in [SharedScanMode::Always, SharedScanMode::Off] {
            let session = SessionManager::new(NativeEngine::with_config(
                table.clone(),
                &Topology::four_socket_ivybridge_ex(),
                NativeEngineConfig {
                    placement,
                    shared_scans: SharedScanConfig { mode, chunk_rows },
                    ..Default::default()
                },
            ));
            let running = AtomicUsize::new(clients);
            // Each client replays the workload a few times and reports its
            // first wrong or failed answer; the mutator cycles through its
            // actions until every client is done.
            let failures: Vec<String> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|client| {
                        let (session, workload, running) = (&session, &workload, &running);
                        scope.spawn(move || {
                            let failure = (0..8 * workload.len()).find_map(|i| {
                                let (request, expected) = &workload[(client + i) % workload.len()];
                                match session.execute(request) {
                                    Ok(got) if got == *expected => None,
                                    other => Some(format!("{request:?}: got {other:?}")),
                                }
                            });
                            running.fetch_sub(1, Ordering::Release);
                            failure
                        })
                    })
                    .collect();
                // Bounded, so a client that panics fails the case instead of
                // leaving the mutator spinning.
                for action in actions.iter().cycle().take(2_000) {
                    if running.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    session.engine().apply_action(action);
                    std::thread::yield_now();
                }
                handles.into_iter().filter_map(|h| h.join().expect("client panicked")).collect()
            });
            prop_assert!(failures.is_empty(), "{:?} under live swaps: {:?}", mode, failures);
            session.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// Full-core event replay: the wakeup counters against a naive reference.
// ---------------------------------------------------------------------------

/// Run state of one reference-model worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefState {
    Searching,
    MustSleep,
    Running,
    Sleeping,
}

/// Naive reference model of the full `SchedulerCore`: per-group task lists,
/// sleeper/outstanding-signal counts, and per-worker run states, written as a
/// direct restatement of the scheduling spec (placement, the three-tier
/// targeted routing, chained re-publication, the watchdog rescue and the
/// false-wakeup rule). Replaying the same event sequence through the core and
/// this model, and comparing every counter after every step, pins the core's
/// statistics to the spec — extending the queue-discipline reference model
/// above to the whole state machine.
struct RefCore {
    groups: Vec<Vec<ModelTask>>,
    sleepers: Vec<usize>,
    signals: Vec<usize>,
    worker_group: Vec<usize>,
    state: Vec<RefState>,
    signalled: Vec<bool>,
    seq: u64,
    rr: usize,
    gps: usize,
    targeted: u64,
    chained: u64,
    watchdog: u64,
    false_wakeups: u64,
}

impl RefCore {
    fn new(worker_group: Vec<usize>, sockets: usize, gps: usize) -> Self {
        let groups = sockets * gps;
        RefCore {
            groups: vec![Vec::new(); groups],
            sleepers: vec![0; groups],
            signals: vec![0; groups],
            state: vec![RefState::Searching; worker_group.len()],
            signalled: vec![false; worker_group.len()],
            worker_group,
            seq: 0,
            rr: 0,
            gps,
            targeted: 0,
            chained: 0,
            watchdog: 0,
            false_wakeups: 0,
        }
    }

    fn unsignalled(&self, g: usize) -> bool {
        self.sleepers[g] > self.signals[g]
    }

    /// The visibility rule: a worker of `g` sees any own-socket task and any
    /// foreign *normal* (stealable) task.
    fn has_work_for(&self, g: usize) -> bool {
        let socket = g / self.gps;
        (0..self.groups.len()).any(|o| {
            if o / self.gps == socket {
                !self.groups[o].is_empty()
            } else {
                self.groups[o].iter().any(|t| !t.hard)
            }
        })
    }

    /// Enqueue + targeted routing. Returns the group a signal was booked for.
    fn submit(
        &mut self,
        affinity: Option<usize>,
        hard: bool,
        epoch: u64,
        id: u32,
    ) -> Option<usize> {
        let seq = self.seq;
        self.seq += 1;
        let landed = match affinity {
            // Least-loaded group of the socket, lowest index on ties.
            Some(s) => (s * self.gps..(s + 1) * self.gps)
                .min_by_key(|g| self.groups[*g].len())
                .expect("socket has groups"),
            // No affinity, no submitter: round-robin.
            None => {
                let g = self.rr % self.groups.len();
                self.rr += 1;
                g
            }
        };
        self.groups[landed].push(ModelTask {
            priority: TaskPriority::new(epoch, 0),
            seq,
            hard,
            id,
        });
        // Three-tier targeted routing: the landing group, else the
        // least-loaded same-socket group with an unsignalled sleeper, else
        // (soft tasks only) the least-loaded such group anywhere.
        let socket = landed / self.gps;
        let target = if self.unsignalled(landed) {
            Some(landed)
        } else {
            (socket * self.gps..(socket + 1) * self.gps)
                .filter(|g| *g != landed && self.unsignalled(*g))
                .min_by_key(|g| self.groups[*g].len())
                .or_else(|| {
                    if hard {
                        None
                    } else {
                        (0..self.groups.len())
                            .filter(|g| self.unsignalled(*g))
                            .min_by_key(|g| self.groups[*g].len())
                    }
                })
        };
        if let Some(t) = target {
            self.signals[t] += 1;
            self.targeted += 1;
        }
        target
    }

    /// Chained re-publication after a successful pop: the least-loaded group
    /// with an unsignalled sleeper that still sees work.
    fn chain(&mut self) -> Option<usize> {
        let c = (0..self.groups.len())
            .filter(|g| self.unsignalled(*g) && self.has_work_for(*g))
            .min_by_key(|g| self.groups[*g].len());
        if let Some(c) = c {
            self.signals[c] += 1;
            self.chained += 1;
        }
        c
    }

    /// Outcome bookkeeping shared by pops and steals: remove the found task,
    /// route a chained signal, or count a false wakeup on a miss.
    fn take(
        &mut self,
        w: usize,
        found: Option<(usize, usize)>,
    ) -> (Option<ModelTask>, Option<usize>) {
        match found {
            Some((g, idx)) => {
                let task = self.groups[g].remove(idx);
                let chain = self.chain();
                self.signalled[w] = false;
                self.state[w] = RefState::Running;
                (Some(task), chain)
            }
            None => {
                if std::mem::take(&mut self.signalled[w]) {
                    self.false_wakeups += 1;
                }
                self.state[w] = RefState::MustSleep;
                (None, None)
            }
        }
    }

    /// Best task of one victim group under the stealing rules.
    fn steal_expected(&self, victim: usize, include_hard: bool) -> Option<usize> {
        self.groups[victim]
            .iter()
            .enumerate()
            .filter(|(_, t)| include_hard || !t.hard)
            .min_by_key(|(_, t)| (t.priority, t.seq))
            .map(|(i, _)| i)
    }

    /// Park, unless work became visible in between (then the worker retries).
    fn sleep(&mut self, w: usize) -> bool {
        let g = self.worker_group[w];
        if self.has_work_for(g) {
            self.state[w] = RefState::Searching;
            return false;
        }
        self.sleepers[g] += 1;
        self.state[w] = RefState::Sleeping;
        true
    }

    /// Wake (signal or spurious): consumes one outstanding signal if any.
    fn wake(&mut self, w: usize) {
        let g = self.worker_group[w];
        self.sleepers[g] -= 1;
        if self.signals[g] > 0 {
            self.signals[g] -= 1;
            self.signalled[w] = true;
        }
        self.state[w] = RefState::Searching;
    }

    /// Watchdog: rescue every socket whose queues hold tasks while all of its
    /// workers sleep with no signal outstanding.
    fn watchdog_tick(&mut self) {
        let sockets = self.groups.len() / self.gps;
        for socket in 0..sockets {
            let queued: usize =
                (socket * self.gps..(socket + 1) * self.gps).map(|g| self.groups[g].len()).sum();
            let workers: Vec<usize> = (0..self.worker_group.len())
                .filter(|w| self.worker_group[*w] / self.gps == socket)
                .collect();
            let all_asleep =
                !workers.is_empty() && workers.iter().all(|w| self.state[*w] == RefState::Sleeping);
            let signals: usize =
                (socket * self.gps..(socket + 1) * self.gps).map(|g| self.signals[g]).sum();
            if queued == 0 || !all_asleep || signals > 0 {
                continue;
            }
            for g in socket * self.gps..(socket + 1) * self.gps {
                if self.sleepers[g] > 0 {
                    self.watchdog += self.sleepers[g] as u64;
                    self.signals[g] = self.sleepers[g];
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Replays randomly generated event sequences through `SchedulerCore`
    /// and the naive reference model in lockstep on a 2-socket × 2-group
    /// machine with an asymmetric worker layout (two workers share group 0,
    /// group 3 has none). After every event, the wakeup counters — targeted,
    /// chained, watchdog, false — and the queue totals must agree exactly,
    /// and every pop/steal must return the task, scope and chained target the
    /// model predicts.
    #[test]
    fn core_replay_matches_reference_counters(
        ops in proptest::collection::vec((0u8..6, 0u64..4, 0u8..2, 0u8..2, 0usize..4), 0..120)
    ) {
        const GPS: usize = 2;
        let worker_groups = vec![0usize, 0, 1, 2];
        let mut core: SchedulerCore<u32> = SchedulerCore::new(
            CoreConfig::new(2, GPS)
                .with_worker_groups(worker_groups.iter().map(|g| ThreadGroupId(*g)).collect()),
        );
        let mut model = RefCore::new(worker_groups.clone(), 2, GPS);
        let mut next_id = 0u32;

        for (kind, a, b, c, w) in ops {
            match kind {
                // Submissions: soft affine, hard affine, unaffine.
                0..=2 => {
                    let (affinity, hard) = match kind {
                        0 => (Some(b as usize % 2), false),
                        1 => (Some(b as usize % 2), true),
                        _ => (None, c == 1),
                    };
                    let id = next_id;
                    next_id += 1;
                    let meta = TaskMeta {
                        affinity: affinity.map(|s| SocketId(s as u16)),
                        hard_affinity: hard,
                        priority: TaskPriority::new(a, 0),
                        work_class: WorkClass::MemoryIntensive,
                        estimated_bytes: 0.0,
                    };
                    let got = core.submit(meta, id);
                    let expected = model.submit(affinity, hard, a, id);
                    prop_assert_eq!(got.map(ThreadGroupId::index), expected,
                        "targeted routing diverged on submit of task {}", id);
                }
                // The watchdog interval elapsed.
                5 => {
                    let _ = core.watchdog_tick();
                    model.watchdog_tick();
                }
                // A worker acts according to its current state; `kind == 4`
                // makes a searching worker try one explicit victim group
                // instead of the pop search order.
                _ => {
                    let w = w % 4;
                    match core.worker_state(WorkerId(w)) {
                        WorkerState::Searching => {
                            let (outcome, found) = if kind == 4 {
                                let victim = a as usize % 4;
                                let own = model.worker_group[w];
                                let include_hard = victim / GPS == own / GPS;
                                let found = model
                                    .steal_expected(victim, include_hard)
                                    .map(|idx| (victim, idx));
                                (core.steal_attempt(WorkerId(w), ThreadGroupId(victim)), found)
                            } else {
                                let found = model_expected_pop(
                                    &model.groups, GPS, model.worker_group[w],
                                ).map(|(g, idx, _)| (g, idx));
                                (core.pop_request(WorkerId(w)), found)
                            };
                            let (task, chain) = model.take(w, found);
                            match outcome {
                                PopOutcome::Run { payload, chain: got_chain, .. } => {
                                    let task = task.expect("core found a task the model did not");
                                    prop_assert_eq!(payload, task.id, "pop order diverged");
                                    prop_assert_eq!(got_chain.map(ThreadGroupId::index), chain,
                                        "chained routing diverged");
                                }
                                PopOutcome::Empty => prop_assert!(task.is_none(),
                                    "model found a task the core did not"),
                                PopOutcome::Exit => prop_assert!(false, "exit without shutdown"),
                            }
                        }
                        WorkerState::MustSleep => {
                            let parked = core.sleep(WorkerId(w));
                            let model_parked = model.sleep(w);
                            prop_assert_eq!(parked == SleepOutcome::Parked, model_parked,
                                "park/retry decision diverged for worker {}", w);
                        }
                        WorkerState::Sleeping => {
                            core.wake(WorkerId(w));
                            model.wake(w);
                        }
                        WorkerState::Running => {
                            let _ = core.task_finished(WorkerId(w), false);
                            model.state[w] = RefState::Searching;
                        }
                        WorkerState::Exited => prop_assert!(false, "worker exited without shutdown"),
                    }
                }
            }

            let stats = core.stats();
            prop_assert_eq!(stats.targeted_wakeups, model.targeted, "targeted counter drifted");
            prop_assert_eq!(stats.chained_wakeups, model.chained, "chained counter drifted");
            prop_assert_eq!(stats.watchdog_wakeups, model.watchdog, "watchdog counter drifted");
            prop_assert_eq!(stats.false_wakeups, model.false_wakeups, "false-wakeup counter drifted");
            prop_assert_eq!(
                core.queued_total(),
                model.groups.iter().map(Vec::len).sum::<usize>(),
                "queue totals drifted"
            );
            for g in 0..4 {
                prop_assert_eq!(core.group_sleepers(ThreadGroupId(g)), model.sleepers[g]);
                prop_assert_eq!(core.group_signals(ThreadGroupId(g)), model.signals[g]);
            }
        }
        prop_assert_eq!(core.stats().affinity_violations, 0);
    }
}

// ---------------------------------------------------------------------------
// Fused aggregation pipelines against the scalar oracle.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused scan→aggregate pipeline must answer value-identically to
    /// the naive scalar group-by oracle end-to-end through the session
    /// layer, across random placements, both scan paths (private sweeps and
    /// the cooperative shared executor with random chunk sizes), both
    /// index-vector layouts, random function subsets, optional group-by,
    /// and random (possibly empty or inverted) predicate ranges — including
    /// negative values and the pinned *wrapping* i64 sum semantics.
    ///
    /// Degenerate shapes ride along: empty tables and tables with fewer rows
    /// than placement parts, IN-lists naming values absent from the
    /// dictionary, the same predicate as a plain scan against a plain
    /// filter, and a zero deadline — which answers the oracle or a typed
    /// `DeadlineExceeded`, never a wrong result, and leaves the session
    /// serving the next statement correctly.
    ///
    /// The window fold's paths ride along too: value domains of a few
    /// values (the fold counts (group, value) cells) or of about one per row
    /// (it folds rows), values near `i64::MAX` whose count × value products
    /// wrap, and ranges selecting about a quarter of the rows (windows on
    /// both sides of the dense threshold) or all of them (all-ones windows).
    #[test]
    fn fused_aggregation_matches_the_scalar_oracle(
        rows in 0usize..2_400,
        tiny in any::<bool>(),
        in_list in any::<bool>(),
        shape in 0u8..3,
        few_values in any::<bool>(),
        wrapping in any::<bool>(),
        seed in any::<u64>(),
        placement_pick in 0u8..3,
        shared in any::<bool>(),
        rle in any::<bool>(),
        chunk_rows in 64usize..1_024,
        group_cardinality in 1i64..6,
        func_mask in 1u8..32,
        lo in -50i64..150,
        width in -10i64..120,
        value_magnitude in 1i64..1_000_000,
    ) {
        use numascan::core::{
            oracle_aggregate, AggFunc, AggSpec, EngineError, NativeEngine, NativeEngineConfig,
            PlacementStrategy, ScanRequest, SessionManager, SharedScanConfig, SharedScanMode,
        };
        use numascan::storage::{ColumnId, TableBuilder};

        // Half the cases shrink to 0..5 rows: empty tables and tables with
        // fewer rows than the placement has parts.
        let rows = if tiny { rows % 5 } else { rows };

        // Seeded table: a filter column over a small domain (so random
        // ranges hit every selectivity including none/all), a value column
        // with negatives, and a low-cardinality group column.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let filter: Vec<i64> = (0..rows).map(|_| next().rem_euclid(140)).collect();
        let value: Vec<i64> = (0..rows)
            .map(|_| match (few_values, wrapping) {
                (true, true) => i64::MAX - next().rem_euclid(4) * value_magnitude,
                (true, false) => next().rem_euclid(6) * value_magnitude - 2 * value_magnitude,
                _ => next().rem_euclid(2 * value_magnitude) - value_magnitude,
            })
            .collect();
        let group: Vec<i64> = (0..rows).map(|_| next().rem_euclid(group_cardinality)).collect();
        let table = TableBuilder::new("t")
            .add_values("filter", &filter, false)
            .add_values("value", &value, false)
            .add_values("group", &group, false)
            .build();

        let all_funcs =
            [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg];
        let funcs: Vec<AggFunc> = all_funcs
            .iter()
            .enumerate()
            .filter(|(i, _)| func_mask & (1 << i) != 0)
            .map(|(_, f)| *f)
            .collect();
        let mut spec = AggSpec::new("value", funcs);
        if group_cardinality > 1 {
            spec = spec.with_group_by("group");
        }
        // The filter domain is 0..140: an IN-list mixes values inside it
        // with values the dictionary never saw.
        // A range of 35 of the 140 filter values selects about a quarter of
        // the rows, so window densities straddle the dense threshold.
        let quarter = lo.rem_euclid(106);
        let scan = match (in_list, shape) {
            (true, _) => {
                ScanRequest::in_list("filter", vec![lo, lo + width, 140, -7, lo.rem_euclid(140)])
            }
            (false, 0) => ScanRequest::between("filter", lo, lo + width),
            (false, 1) => ScanRequest::between("filter", quarter, quarter + 34),
            (false, _) => ScanRequest::between("filter", -1, 140),
        };
        let request = scan.clone().with_aggregate(spec.clone());

        let placement = match placement_pick {
            0 => PlacementStrategy::RoundRobin,
            1 => PlacementStrategy::IndexVectorPartitioned { parts: 3 },
            _ => PlacementStrategy::PhysicallyPartitioned { parts: 4 },
        };
        let mode = if shared { SharedScanMode::Always } else { SharedScanMode::Off };
        let session = SessionManager::new(NativeEngine::with_config(
            table.clone(),
            &Topology::four_socket_ivybridge_ex(),
            NativeEngineConfig {
                placement,
                shared_scans: SharedScanConfig { mode, chunk_rows },
                ..Default::default()
            },
        ));
        if rle {
            for column in 0..3 {
                for part in 0..8 {
                    session.engine().relayout_part(ColumnId(column), part, IvLayoutKind::Rle);
                }
            }
        }

        let got = session.execute(&request).expect("known columns").into_aggregate();
        let expected = oracle_aggregate(&table, "filter", &request.predicate(), &spec);
        prop_assert_eq!(
            &got,
            &expected,
            "fused aggregation diverged under placement {:?} shared {} rle {} chunk {} shape {}",
            placement,
            shared,
            rle,
            chunk_rows,
            shape
        );

        // The same predicate as a plain scan answers exactly a plain filter.
        let keep = |v: &i64| match &scan.spec {
            numascan::core::ScanSpec::Between { lo, hi } => (*lo..=*hi).contains(v),
            numascan::core::ScanSpec::InList { values } => values.contains(v),
        };
        let filtered: Vec<i64> = filter.iter().copied().filter(keep).collect();
        let rows_got = session.execute(&scan).expect("known columns").into_rows();
        prop_assert_eq!(&rows_got, &filtered, "plain scan diverged for {:?}", scan.spec);

        // A zero deadline answers the oracle or a typed expiry, and the
        // session keeps serving correct results afterwards.
        let expiring = request.clone().with_deadline(std::time::Duration::ZERO);
        match session.execute(&expiring) {
            Ok(result) => prop_assert_eq!(result.into_aggregate(), expected.clone()),
            Err(err) => prop_assert_eq!(err, EngineError::DeadlineExceeded),
        }
        let again = session.execute(&request).expect("known columns").into_aggregate();
        prop_assert_eq!(again, expected, "statement after an expired one diverged");
        session.shutdown();
    }
}

/// The pinned overflow semantics: `AggFunc::Sum` wraps (two's-complement)
/// rather than saturating or panicking, identically in the fused pipeline,
/// in partial-table merges, and in the scalar oracle.
#[test]
fn fused_sum_overflow_wraps_identically_to_the_oracle() {
    use numascan::core::{
        oracle_aggregate, AggFunc, AggSpec, AggValue, NativeEngine, ScanRequest, SessionManager,
    };
    use numascan::storage::TableBuilder;

    let value = vec![i64::MAX, i64::MAX, 7, i64::MIN, -1];
    let filter = vec![1i64, 1, 1, 1, 99];
    let table = TableBuilder::new("t")
        .add_values("filter", &filter, false)
        .add_values("value", &value, false)
        .build();
    let spec = AggSpec::new("value", vec![AggFunc::Sum]);
    let request = ScanRequest::between("filter", 0, 10).with_aggregate(spec.clone());

    let session = SessionManager::new(NativeEngine::new(
        table.clone(),
        &Topology::four_socket_ivybridge_ex(),
        numascan::scheduler::SchedulingStrategy::Bound,
    ));
    let got = session.execute(&request).expect("known columns").into_aggregate();
    session.shutdown();

    let expected = oracle_aggregate(&table, "filter", &request.predicate(), &spec);
    assert_eq!(got, expected, "fused and oracle sums must wrap identically");
    let wrapped = i64::MAX.wrapping_add(i64::MAX).wrapping_add(7).wrapping_add(i64::MIN);
    assert_eq!(got.global_row(), vec![AggValue::Int(wrapped)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both entry points of the window fold — the mask stream
    /// (`accumulate_filtered`, the private path) and ascending position lists
    /// cut into sweep chunks (`accumulate_positions`, the shared path) —
    /// answer what the scalar oracle answers, called directly so that every
    /// path of the fold is reached on purpose: value domains on both sides of
    /// the (group, value) cell rule, windows around the dense threshold and
    /// all-ones windows, run-length value and group columns, a filter part
    /// rebuilt physically (part-local positions shifted by a row offset), and
    /// count × value products that wrap.
    #[test]
    fn window_fold_entry_points_match_the_oracle(
        rows in 0usize..3_000,
        seed in any::<u64>(),
        few_values in any::<bool>(),
        wrapping in any::<bool>(),
        run_length in 1usize..40,
        group_cardinality in 1i64..6,
        selected in 0i64..=100,
        rle_value in any::<bool>(),
        rle_group in any::<bool>(),
        split_at in 0usize..3_000,
        positions_path in any::<bool>(),
        chunk_rows in 1usize..700,
    ) {
        use numascan::core::aggregate::{
            accumulate_filtered, accumulate_positions, dense_group_capacity, GroupAccumulator,
            RowReader,
        };
        use numascan::core::{oracle_aggregate, AggFunc, AggSpec};
        use numascan::storage::TableBuilder;

        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        // The filter selects `selected` of every 100 rows on average (100
        // makes every window all-ones); the value and group columns hold runs
        // of `run_length` equal values.
        let filter: Vec<i64> = (0..rows).map(|_| next().rem_euclid(100)).collect();
        let mut value = Vec::with_capacity(rows);
        let mut group = Vec::with_capacity(rows);
        while value.len() < rows {
            let v = match (few_values, wrapping) {
                (true, true) => i64::MAX - next().rem_euclid(3),
                (true, false) => next().rem_euclid(7) - 3,
                (false, true) => i64::MIN + next().rem_euclid(1 << 40),
                (false, false) => next() - (1 << 30),
            };
            let g = next().rem_euclid(group_cardinality);
            for _ in 0..run_length.min(rows - value.len()) {
                value.push(v);
                group.push(g);
            }
        }
        let table = TableBuilder::new("t")
            .add_values("filter", &filter, false)
            .add_values("value", &value, false)
            .add_values("group", &group, false)
            .build();
        let column = |name: &str| table.column_by_name(name).expect("known column").1.clone();
        let (filter_col, mut value_col, mut group_col) =
            (column("filter"), column("value"), column("group"));
        if rle_value {
            value_col.relayout(IvLayoutKind::Rle);
        }
        if rle_group {
            group_col.relayout(IvLayoutKind::Rle);
        }

        let funcs = vec![AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg];
        let mut spec = AggSpec::new("value", funcs);
        let group_col = (group_cardinality > 1).then_some(&group_col);
        if group_col.is_some() {
            spec = spec.with_group_by("group");
        }
        let predicate = Predicate::Between { lo: 0, hi: selected - 1 };
        let capacity = group_col.map_or(1, |g| dense_group_capacity(g.dictionary().len()));
        let mut acc = GroupAccumulator::new(capacity);

        // Rows before `split` are scanned in the base column, the rest in a
        // part rebuilt from them (its own dictionary, part-local positions).
        let split = split_at.min(rows);
        let part = filter_col.rebuild_range("filter#part", split..rows, false);
        for (filter, offset) in [(&filter_col, 0), (&part, split)] {
            let rows = if offset == 0 { 0..split } else { 0..part.row_count() };
            let encoded = predicate.encode(filter.dictionary());
            let reader = RowReader::new(&value_col, group_col, offset);
            if positions_path {
                // Sweep chunks of `chunk_rows` rows, each folded on its own.
                for start in rows.clone().step_by(chunk_rows) {
                    let chunk = start..(start + chunk_rows).min(rows.end);
                    let positions = scan_positions(filter, chunk, &encoded);
                    accumulate_positions(&positions, &reader, &mut acc);
                }
            } else {
                accumulate_filtered(filter, rows, &encoded, &reader, &mut acc);
            }
        }
        let got = acc.into_table(&spec, group_col);
        prop_assert_eq!(got, oracle_aggregate(&table, "filter", &predicate, &spec));
    }
}
