//! NUMA-aware scheduling of scans (Section 5.2).
//!
//! A query selecting data from a single column executes in two phases
//! (Figure 7 of the paper):
//!
//! 1. **Finding the qualifying matches.** Depending on the estimated
//!    selectivity the optimizer either scans the IV (parallelized by splitting
//!    it into ranges, one task per range, task count governed by the
//!    concurrency hint and rounded up to a multiple of the partitions) or
//!    performs index lookups (a single task whose affinity is the location of
//!    the IX).
//! 2. **Output materialization.** The output vector is divided into regions,
//!    contiguous regions on the same socket are coalesced, and a
//!    correspondingly weighted number of tasks is issued per partition with
//!    the affinity of that partition's socket.
//!
//! The planner produces [`PlannedTask`]s whose *desired* affinity is derived
//! from the sockets the column's placement segments record — the role the
//! paper gives the PSM; the scheduling strategy (OS, Target, Bound) later
//! decides whether that affinity is kept, and whether it is hard.

use numascan_numasim::{SocketId, Topology};
use numascan_scheduler::{ConcurrencyHint, WorkClass};

use crate::cost::{CostModel, MemTarget, TaskWork};
use crate::placement::{ComponentLocation, ComponentSegment, PlacedColumn};
use crate::query::QueryKind;

/// One task produced by the planner, before the scheduling strategy is
/// applied.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedTask {
    /// Socket the task's data lives on (`None` when the data is interleaved
    /// and no socket is preferable).
    pub affinity: Option<SocketId>,
    /// Resource profile of the task.
    pub work_class: WorkClass,
    /// The work the task performs.
    pub work: TaskWork,
}

/// The two phases of a planned query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Phase 1: find the qualifying matches (scan or index lookups).
    pub phase1: Vec<PlannedTask>,
    /// Phase 2: output materialization (empty for aggregations and for
    /// predicates that select nothing).
    pub phase2: Vec<PlannedTask>,
}

/// The planner: turns a query over a placed column into tasks with affinities.
#[derive(Debug, Clone)]
pub struct ScanPlanner {
    cost: CostModel,
    hint: ConcurrencyHint,
}

impl ScanPlanner {
    /// Creates a planner for a machine described by `topology`.
    pub fn new(topology: &Topology, cost: CostModel) -> Self {
        ScanPlanner { cost, hint: ConcurrencyHint::new(topology.total_contexts()) }
    }

    /// Plans one query.
    ///
    /// `active_statements` is the number of concurrently active statements
    /// (the concurrency hint input); `parallelism` disables intra-query
    /// parallelism when `false` (every phase becomes a single task).
    pub fn plan(
        &self,
        column: &PlacedColumn,
        kind: &QueryKind,
        active_statements: usize,
        parallelism: bool,
    ) -> QueryPlan {
        match kind {
            QueryKind::Scan { selectivity, allow_index } => {
                let selectivity = selectivity.clamp(0.0, 1.0);
                let matches = selectivity * column.spec.rows as f64;
                let phase1 =
                    if self.cost.prefers_index(selectivity, *allow_index && column.spec.with_index)
                    {
                        self.plan_index_lookup(column, selectivity, matches)
                    } else {
                        self.plan_scan(column, active_statements, parallelism)
                    };
                let phase2 =
                    self.plan_materialization(column, matches, active_statements, parallelism);
                QueryPlan { phase1, phase2 }
            }
            QueryKind::Aggregate { ops_per_row } => QueryPlan {
                phase1: self.plan_aggregate(column, *ops_per_row, active_statements, parallelism),
                phase2: Vec::new(),
            },
        }
    }

    /// Phase 1 via the inverted index: a single, unparallelized task whose
    /// affinity is the location of the IX (none when interleaved).
    fn plan_index_lookup(
        &self,
        column: &PlacedColumn,
        selectivity: f64,
        matches: f64,
    ) -> Vec<PlannedTask> {
        let ix: Option<&ComponentSegment> = column.ix_segments.first();
        let (affinity, target, distinct) = match ix {
            Some(seg) => match &seg.location {
                ComponentLocation::Socket(s) => (Some(*s), MemTarget::Socket(*s), seg.distinct),
                ComponentLocation::Interleaved(v) => {
                    (None, MemTarget::Interleaved(v.clone()), seg.distinct)
                }
            },
            // Fall back to the dictionary location if the planner is asked for
            // an index plan on an index-less column.
            None => {
                let seg = &column.dict_segments[0];
                match &seg.location {
                    ComponentLocation::Socket(s) => (Some(*s), MemTarget::Socket(*s), seg.distinct),
                    ComponentLocation::Interleaved(v) => {
                        (None, MemTarget::Interleaved(v.clone()), seg.distinct)
                    }
                }
            }
        };
        let qualifying_vids = (selectivity * distinct as f64).max(1.0);
        let mut work = TaskWork::empty();
        // Walking the position lists streams 4 bytes per match from the IX.
        work.add_stream(target.clone(), matches * 4.0);
        // One offset lookup per qualifying vid plus pointer chasing per match.
        work.add_random(target, qualifying_vids + matches * 0.1);
        work.cpu_ops = matches * self.cost.index_ops_per_match;
        vec![PlannedTask { affinity, work_class: WorkClass::CpuIntensive, work }]
    }

    /// Phase 1 via a scan of the IV, split into tasks whose ranges fall wholly
    /// inside one IV partition.
    fn plan_scan(
        &self,
        column: &PlacedColumn,
        active_statements: usize,
        parallelism: bool,
    ) -> Vec<PlannedTask> {
        let segments = &column.iv_segments;
        let rows = column.spec.rows as f64;
        let bytes_per_row = column.spec.bitcase() as f64 / 8.0;

        if !parallelism {
            // A single task scans every partition; remote partitions are read
            // across the interconnect.
            let affinity = Some(segments[0].socket);
            let mut work = TaskWork::empty();
            for seg in segments {
                let seg_rows = (seg.rows.end - seg.rows.start) as f64;
                work.add_stream(MemTarget::Socket(seg.socket), seg_rows * bytes_per_row);
            }
            work.cpu_ops = rows * self.cost.scan_ops_per_row;
            return vec![PlannedTask { affinity, work_class: WorkClass::MemoryIntensive, work }];
        }

        let total_tasks = self
            .hint
            .suggested_tasks_for_partitions(active_statements, segments.len())
            .max(segments.len());
        let tasks_per_segment = (total_tasks / segments.len()).max(1);

        let mut out = Vec::with_capacity(segments.len() * tasks_per_segment);
        for seg in segments {
            let seg_rows = (seg.rows.end - seg.rows.start) as f64;
            let rows_per_task = seg_rows / tasks_per_segment as f64;
            for _ in 0..tasks_per_segment {
                let mut work = TaskWork::empty();
                work.add_stream(MemTarget::Socket(seg.socket), rows_per_task * bytes_per_row);
                work.cpu_ops = rows_per_task * self.cost.scan_ops_per_row;
                out.push(PlannedTask {
                    affinity: Some(seg.socket),
                    work_class: WorkClass::MemoryIntensive,
                    work,
                });
            }
        }
        out
    }

    /// Phase 2: materialization tasks, one group per IV partition, with the
    /// partition's socket as affinity and the dictionary of that partition as
    /// the random-access target.
    fn plan_materialization(
        &self,
        column: &PlacedColumn,
        matches: f64,
        active_statements: usize,
        parallelism: bool,
    ) -> Vec<PlannedTask> {
        if matches < 1.0 {
            return Vec::new();
        }
        let rows = column.spec.rows as f64;
        let segments = &column.iv_segments;

        let dict_target_for = |row: u64| -> MemTarget {
            match &column.dict_segment_of_row(row).location {
                ComponentLocation::Socket(s) => MemTarget::Socket(*s),
                ComponentLocation::Interleaved(v) => MemTarget::Interleaved(v.clone()),
            }
        };

        if !parallelism {
            let affinity = Some(segments[0].socket);
            let mut work = TaskWork::empty();
            for seg in segments {
                let seg_rows = (seg.rows.end - seg.rows.start) as f64;
                let seg_matches = matches * seg_rows / rows;
                work.add_random(
                    dict_target_for(seg.rows.start),
                    seg_matches * self.cost.materialize_dict_miss_fraction,
                );
                work.add_stream(
                    MemTarget::Socket(segments[0].socket),
                    seg_matches * column.spec.value_bytes as f64,
                );
            }
            work.cpu_ops = matches * self.cost.materialize_ops_per_match;
            return vec![PlannedTask { affinity, work_class: WorkClass::CpuIntensive, work }];
        }

        let total_tasks = self
            .hint
            .suggested_tasks_for_partitions(active_statements, segments.len())
            .max(segments.len());
        let tasks_per_segment = (total_tasks / segments.len()).max(1);

        let mut out = Vec::with_capacity(segments.len() * tasks_per_segment);
        for seg in segments {
            let seg_rows = (seg.rows.end - seg.rows.start) as f64;
            let seg_matches = matches * seg_rows / rows;
            let matches_per_task = seg_matches / tasks_per_segment as f64;
            if matches_per_task <= 0.0 {
                continue;
            }
            let dict_target = dict_target_for(seg.rows.start);
            for _ in 0..tasks_per_segment {
                let mut work = TaskWork::empty();
                // Dictionary lookups that miss the cache hierarchy.
                work.add_random(
                    dict_target.clone(),
                    matches_per_task * self.cost.materialize_dict_miss_fraction,
                );
                // Writing the decoded values to the output vector.
                work.add_stream(
                    MemTarget::Socket(seg.socket),
                    matches_per_task * column.spec.value_bytes as f64,
                );
                work.cpu_ops = matches_per_task * self.cost.materialize_ops_per_match;
                out.push(PlannedTask {
                    affinity: Some(seg.socket),
                    work_class: WorkClass::CpuIntensive,
                    work,
                });
            }
        }
        out
    }

    /// Aggregation: stream the IV of every partition and spend `ops_per_row`
    /// per row; no materialization phase.
    fn plan_aggregate(
        &self,
        column: &PlacedColumn,
        ops_per_row: f64,
        active_statements: usize,
        parallelism: bool,
    ) -> Vec<PlannedTask> {
        let class = self.cost.aggregate_work_class(ops_per_row);
        let segments = &column.iv_segments;
        let bytes_per_row = column.spec.bitcase() as f64 / 8.0;

        if !parallelism {
            let mut work = TaskWork::empty();
            for seg in segments {
                let seg_rows = (seg.rows.end - seg.rows.start) as f64;
                work.add_stream(MemTarget::Socket(seg.socket), seg_rows * bytes_per_row);
            }
            work.cpu_ops = column.spec.rows as f64 * ops_per_row;
            return vec![PlannedTask {
                affinity: Some(segments[0].socket),
                work_class: class,
                work,
            }];
        }

        let total_tasks = self
            .hint
            .suggested_tasks_for_partitions(active_statements, segments.len())
            .max(segments.len());
        let tasks_per_segment = (total_tasks / segments.len()).max(1);
        let mut out = Vec::with_capacity(segments.len() * tasks_per_segment);
        for seg in segments {
            let seg_rows = (seg.rows.end - seg.rows.start) as f64;
            let rows_per_task = seg_rows / tasks_per_segment as f64;
            for _ in 0..tasks_per_segment {
                let mut work = TaskWork::empty();
                work.add_stream(MemTarget::Socket(seg.socket), rows_per_task * bytes_per_row);
                work.cpu_ops = rows_per_task * ops_per_row;
                out.push(PlannedTask { affinity: Some(seg.socket), work_class: class, work });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{place_column_ivp, place_column_pp, place_column_rr};
    use crate::spec::ColumnSpec;

    fn topology() -> Topology {
        Topology::four_socket_ivybridge_ex()
    }

    fn planner(t: &Topology) -> ScanPlanner {
        ScanPlanner::new(t, CostModel::default())
    }

    fn spec(with_index: bool) -> ColumnSpec {
        ColumnSpec::integer_with_bitcase("c", 10_000_000, 20, with_index)
    }

    fn all_sockets(t: &Topology) -> Vec<SocketId> {
        t.socket_ids().collect()
    }

    #[test]
    fn rr_scan_tasks_target_the_column_socket() {
        let t = topology();
        let col = place_column_rr(&spec(false), SocketId(2));
        let p = planner(&t);
        let plan =
            p.plan(&col, &QueryKind::Scan { selectivity: 0.001, allow_index: false }, 1024, true);
        assert_eq!(plan.phase1.len(), 1, "high concurrency collapses to one scan task");
        assert_eq!(plan.phase1[0].affinity, Some(SocketId(2)));
        assert_eq!(plan.phase1[0].work_class, WorkClass::MemoryIntensive);
        // The scan streams the whole IV: 10M rows x 20 bits.
        let bytes = plan.phase1[0].work.total_stream_bytes();
        assert!((bytes - 10_000_000.0 * 2.5).abs() / bytes < 0.01);
        // Materialization tasks exist and are CPU-intensive.
        assert!(!plan.phase2.is_empty());
        assert!(plan.phase2.iter().all(|t| t.work_class == WorkClass::CpuIntensive));
    }

    #[test]
    fn low_concurrency_splits_into_many_tasks() {
        let t = topology();
        let col = place_column_rr(&spec(false), SocketId(0));
        let p = planner(&t);
        let plan =
            p.plan(&col, &QueryKind::Scan { selectivity: 0.001, allow_index: false }, 1, true);
        assert_eq!(plan.phase1.len(), t.total_contexts());
    }

    #[test]
    fn ivp_scan_tasks_cover_every_partition_socket() {
        let t = topology();
        let sockets = all_sockets(&t);
        let col = place_column_ivp(&spec(false), 0, 4, &sockets);
        let p = planner(&t);
        let plan =
            p.plan(&col, &QueryKind::Scan { selectivity: 0.001, allow_index: false }, 1024, true);
        // Rounded up to a multiple of the partitions: 4 tasks.
        assert_eq!(plan.phase1.len(), 4);
        let mut affinities: Vec<usize> =
            plan.phase1.iter().map(|t| t.affinity.unwrap().index()).collect();
        affinities.sort_unstable();
        assert_eq!(affinities, vec![0, 1, 2, 3]);
        // Materialization of an IVP column random-accesses the interleaved
        // dictionary.
        let mat = &plan.phase2[0];
        assert!(matches!(mat.work.random[0].0, MemTarget::Interleaved(_)));
    }

    #[test]
    fn pp_materialization_uses_the_local_part_dictionary() {
        let t = topology();
        let sockets = all_sockets(&t);
        let col = place_column_pp(&spec(false), 4, &sockets, 0);
        let p = planner(&t);
        let plan =
            p.plan(&col, &QueryKind::Scan { selectivity: 0.1, allow_index: false }, 1024, true);
        for task in &plan.phase2 {
            let aff = task.affinity.unwrap();
            match &task.work.random[0].0 {
                MemTarget::Socket(s) => {
                    assert_eq!(*s, aff, "dictionary accesses stay local under PP")
                }
                other => panic!("expected a socket target, got {other:?}"),
            }
        }
    }

    #[test]
    fn index_lookup_is_chosen_for_low_selectivity_and_is_single_task() {
        let t = topology();
        let col = place_column_rr(&spec(true), SocketId(1));
        let p = planner(&t);
        let plan =
            p.plan(&col, &QueryKind::Scan { selectivity: 0.00001, allow_index: true }, 1024, true);
        assert_eq!(plan.phase1.len(), 1);
        assert_eq!(plan.phase1[0].work_class, WorkClass::CpuIntensive);
        assert_eq!(plan.phase1[0].affinity, Some(SocketId(1)));
        // The IX stream is tiny compared to a full scan.
        assert!(plan.phase1[0].work.total_stream_bytes() < 1_000_000.0);
    }

    #[test]
    fn index_lookup_on_interleaved_index_has_no_affinity() {
        let t = topology();
        let sockets = all_sockets(&t);
        let col = place_column_ivp(&spec(true), 0, 4, &sockets);
        let p = planner(&t);
        let plan =
            p.plan(&col, &QueryKind::Scan { selectivity: 0.00001, allow_index: true }, 1024, true);
        assert_eq!(plan.phase1[0].affinity, None);
    }

    #[test]
    fn high_selectivity_scans_instead_of_index() {
        let t = topology();
        let col = place_column_rr(&spec(true), SocketId(0));
        let p = planner(&t);
        let plan =
            p.plan(&col, &QueryKind::Scan { selectivity: 0.01, allow_index: true }, 1024, true);
        assert_eq!(plan.phase1[0].work_class, WorkClass::MemoryIntensive);
        assert!(plan.phase1[0].work.total_stream_bytes() > 10_000_000.0);
    }

    #[test]
    fn zero_selectivity_has_no_materialization_phase() {
        let t = topology();
        let col = place_column_rr(&spec(false), SocketId(0));
        let p = planner(&t);
        let plan =
            p.plan(&col, &QueryKind::Scan { selectivity: 0.0, allow_index: false }, 16, true);
        assert!(plan.phase2.is_empty());
    }

    #[test]
    fn disabling_parallelism_yields_single_tasks_reading_remote_partitions() {
        let t = topology();
        let sockets = all_sockets(&t);
        let col = place_column_ivp(&spec(false), 0, 4, &sockets);
        let p = planner(&t);
        let plan =
            p.plan(&col, &QueryKind::Scan { selectivity: 0.001, allow_index: false }, 1, false);
        assert_eq!(plan.phase1.len(), 1);
        // The single task streams from all four sockets.
        assert_eq!(plan.phase1[0].work.streams.len(), 4);
    }

    #[test]
    fn aggregation_classification_follows_ops_per_row() {
        let t = topology();
        let col = place_column_rr(&spec(false), SocketId(0));
        let p = planner(&t);
        let q1 = p.plan(&col, &QueryKind::Aggregate { ops_per_row: 25.0 }, 32, true);
        assert!(q1.phase1.iter().all(|t| t.work_class == WorkClass::CpuIntensive));
        assert!(q1.phase2.is_empty());
        let bw = p.plan(&col, &QueryKind::Aggregate { ops_per_row: 2.0 }, 32, true);
        assert!(bw.phase1.iter().all(|t| t.work_class == WorkClass::MemoryIntensive));
    }

    #[test]
    fn task_counts_respect_the_concurrency_hint() {
        let t = topology();
        let sockets = all_sockets(&t);
        let col = place_column_ivp(&spec(false), 0, 4, &sockets);
        let p = planner(&t);
        // 4 active statements on 120 contexts: ~30 tasks rounded up to 32.
        let plan =
            p.plan(&col, &QueryKind::Scan { selectivity: 0.001, allow_index: false }, 4, true);
        assert_eq!(plan.phase1.len(), 32);
    }
}
