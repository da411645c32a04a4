//! The adaptive data placer (Section 7, Figure 20).
//!
//! The paper's sensitivity analysis motivates a design that *adapts* data
//! placement to the workload instead of fixing it statically: hot data should
//! be partitioned only until CPU and memory-bandwidth utilization is balanced
//! across sockets, cold data should be consolidated again, and the kind of
//! partitioning (quick IVP vs. thorough PP) should follow the workload's
//! access pattern.
//!
//! [`AdaptiveDataPlacer::decide`] implements the flowchart of Figure 20:
//!
//! 1. If socket utilization is unbalanced, find the hottest socket and the
//!    hottest data item on it.
//!    * If that item does not dominate the socket's utilization, move it to
//!      the coldest socket.
//!    * If it does dominate, increase its number of partitions — with IVP if
//!      its tasks mostly scan the index vector, with PP otherwise — and place
//!      the new partition on the coldest socket.
//! 2. If utilization is balanced, look for partitioned data that has gone
//!    cold and decrease its number of partitions.
//! 3. Still balanced and nothing to consolidate: advise per-part storage
//!    *layouts*. Parts whose vid stream is long-run (sorted or clustered
//!    data) and cold are re-encoded run-length (RLE) to shrink their memory
//!    and scan footprint; hot short-run parts stuck on RLE go back to the
//!    bit-packed layout the SWAR kernels scan fastest.

use numascan_numasim::{SocketId, Topology};
use numascan_storage::IvLayoutKind;

use crate::catalog::Catalog;
use crate::placement::{move_column_to, place_column_pp, repartition_ivp, PlacementStrategy};
use crate::query::ColumnRef;
use crate::sim::SimReport;

/// Storage-layout statistics of one placement part, as observed by the
/// engine: which physical index-vector layout the part currently uses and
/// how run-length-friendly its vid stream is.
#[derive(Debug, Clone, PartialEq)]
pub struct PartLayoutStat {
    /// The part's current index-vector layout.
    pub layout: IvLayoutKind,
    /// Runs per row of the part's vid stream (1.0 = every row starts a new
    /// run, i.e. RLE-hostile; near 0.0 = long sorted runs, RLE-friendly).
    pub run_fraction: f64,
    /// Rows in the part.
    pub rows: usize,
}

/// Per-column workload statistics the placer bases its decisions on.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnHeat {
    /// Which column.
    pub column: ColumnRef,
    /// The socket serving most of the column's traffic.
    pub primary_socket: SocketId,
    /// The column's share of the machine-wide traffic (0.0 ..= 1.0). For
    /// engines that run aggregation pipelines, the share counts the fused
    /// paths' gather traffic as well as scan traffic.
    pub heat: f64,
    /// Gather bytes fused aggregation pipelines read from the column this
    /// epoch (value/group columns of Q1-class statements). Already folded
    /// into `heat`; carried separately so placers can tell aggregation load
    /// from scan load.
    pub agg_bytes: u64,
    /// Whether the column's tasks mostly scan the index vector (IVP is then
    /// the appropriate partitioning) rather than doing index lookups or
    /// heavy materialization (PP).
    pub iv_intensive: bool,
    /// Current number of partitions of the column.
    pub partitions: usize,
    /// Whether any active tasks touched the column recently.
    pub active: bool,
    /// Per-part layout statistics, in part order. Engines that do not track
    /// physical layouts (the simulator) leave this empty, which disables the
    /// layout advisor for the column.
    pub part_layouts: Vec<PartLayoutStat>,
}

/// Tunables of the adaptive data placer.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerConfig {
    /// Utilization spread (max - min, as a fraction of capacity) above which
    /// the sockets are considered unbalanced.
    pub imbalance_threshold: f64,
    /// Fraction of the hottest socket's utilization above which the hottest
    /// item is considered to *dominate* the socket (and is partitioned rather
    /// than moved).
    pub domination_threshold: f64,
    /// Upper bound on the number of partitions (usually the socket count).
    pub max_partitions: usize,
    /// Run fraction (runs per row) at or below which a part's vid stream is
    /// considered RLE-friendly: a cold bit-packed part below the threshold is
    /// re-encoded run-length, and a hot RLE part above it is unpacked back to
    /// the bit-packed layout. 1/8 means runs average at least eight rows, so
    /// the two u32 vectors of the RLE form undercut even a 32-bit bitcase.
    pub rle_run_fraction: f64,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            imbalance_threshold: 0.25,
            domination_threshold: 0.5,
            max_partitions: 64,
            rle_run_fraction: 0.125,
        }
    }
}

/// The action the placer decided to take.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacerAction {
    /// Utilization is balanced and nothing is cold: leave everything alone.
    None,
    /// Move a whole column to a (colder) socket.
    MoveColumn {
        /// The column to move.
        column: ColumnRef,
        /// The destination socket.
        to: SocketId,
    },
    /// Increase the column's IV partitioning.
    RepartitionIvp {
        /// The column to repartition.
        column: ColumnRef,
        /// The new number of partitions.
        parts: usize,
    },
    /// Physically repartition the column.
    RepartitionPp {
        /// The column to repartition.
        column: ColumnRef,
        /// The new number of partitions.
        parts: usize,
    },
    /// Decrease the partitioning of a column that went cold.
    DecreasePartitions {
        /// The column to consolidate.
        column: ColumnRef,
        /// The new (smaller) number of partitions.
        parts: usize,
    },
    /// Re-encode one placement part of a column into a different physical
    /// index-vector layout (hybrid per-partition storage): cold long-run
    /// parts compress to RLE, hot short-run parts unpack to bit-packed.
    Relayout {
        /// The column whose part is re-encoded.
        column: ColumnRef,
        /// Part index within the column's placement.
        part: usize,
        /// The layout the part switches to.
        layout: IvLayoutKind,
    },
}

/// The adaptive data placer.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveDataPlacer {
    config: PlacerConfig,
}

impl AdaptiveDataPlacer {
    /// Creates a placer with the given tunables.
    pub fn new(config: PlacerConfig) -> Self {
        AdaptiveDataPlacer { config }
    }

    /// The placer's configuration.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Derives per-socket utilization (0.0 ..= 1.0) from a simulation report:
    /// the measured memory throughput of each socket relative to its local
    /// bandwidth.
    pub fn utilization_from_report(report: &SimReport, topology: &Topology) -> Vec<f64> {
        report
            .memory_throughput_gibs()
            .iter()
            .map(|tp| (tp / topology.socket.local_bandwidth_gibs).min(1.0))
            .collect()
    }

    /// Derives per-column heat statistics from a simulation report's
    /// per-column traffic accounting, so the placer can be driven directly by
    /// measured workload behaviour (the "performance metrics assigned to
    /// tasks" of Figure 20).
    pub fn heats_from_report(report: &SimReport, catalog: &Catalog) -> Vec<ColumnHeat> {
        let total: f64 = report.column_traffic.iter().map(|t| t.total_bytes()).sum();
        report
            .column_traffic
            .iter()
            .map(|traffic| {
                let column = catalog.column(traffic.column);
                ColumnHeat {
                    column: traffic.column,
                    primary_socket: column.primary_socket(),
                    heat: if total > 0.0 { traffic.total_bytes() / total } else { 0.0 },
                    // The simulator's traffic model has no fused aggregation
                    // pipelines; only the native engine reports gather bytes.
                    agg_bytes: 0,
                    iv_intensive: traffic.is_iv_intensive(),
                    partitions: column.iv_segments.len(),
                    active: traffic.queries > 0,
                    // The simulator models placement, not physical layouts.
                    part_layouts: Vec::new(),
                }
            })
            .collect()
    }

    /// One full step of the adaptive loop: derive utilization and heats from a
    /// measurement, decide, and apply the decision. Returns the action taken.
    pub fn rebalance_step(
        &self,
        topology: &Topology,
        catalog: &mut Catalog,
        report: &SimReport,
    ) -> PlacerAction {
        let utilization = Self::utilization_from_report(report, topology);
        let heats = Self::heats_from_report(report, catalog);
        let action = self.decide(&utilization, &heats);
        self.apply(topology, catalog, &action);
        action
    }

    /// Runs one step of the Figure 20 flowchart and returns the decision.
    pub fn decide(&self, utilization: &[f64], heats: &[ColumnHeat]) -> PlacerAction {
        if utilization.is_empty() {
            return PlacerAction::None;
        }
        // `total_cmp`, not `partial_cmp().expect(...)`: a NaN smuggled in by
        // a degenerate telemetry epoch must yield a (possibly suboptimal)
        // decision, never a panic that unwinds through a cluster worker.
        let (hot_socket, &hot_util) = utilization
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty utilization");
        let (cold_socket, &cold_util) = utilization
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty utilization");

        if hot_util - cold_util > self.config.imbalance_threshold {
            // Unbalanced: act on the hottest item of the hottest socket.
            let hottest = heats
                .iter()
                .filter(|h| h.primary_socket.index() == hot_socket && h.active)
                .max_by(|a, b| a.heat.total_cmp(&b.heat));
            let Some(item) = hottest else { return PlacerAction::None };

            let socket_share = if hot_util > 0.0 {
                // The item's share of the hot socket's utilization: its heat is
                // machine-wide, so scale by the number of sockets.
                (item.heat * utilization.len() as f64 / hot_util).min(1.0)
            } else {
                0.0
            };
            if socket_share < self.config.domination_threshold {
                PlacerAction::MoveColumn { column: item.column, to: SocketId(cold_socket as u16) }
            } else {
                let parts = (item.partitions * 2).max(2).min(self.config.max_partitions.max(2));
                if item.iv_intensive {
                    PlacerAction::RepartitionIvp { column: item.column, parts }
                } else {
                    PlacerAction::RepartitionPp { column: item.column, parts }
                }
            }
        } else {
            // Balanced: consolidate partitioned data that went cold.
            for h in heats {
                if !h.active && h.partitions > 1 {
                    return PlacerAction::DecreasePartitions {
                        column: h.column,
                        parts: (h.partitions / 2).max(1),
                    };
                }
            }
            self.advise_layout(heats)
        }
    }

    /// The layout advisor (step 3 of the flowchart): with utilization
    /// balanced and nothing left to consolidate, pick the most valuable
    /// single-part layout change. Hot parts are fixed first — an RLE part
    /// whose runs are short scans slower than bit-packed, so unpacking it
    /// buys latency — then cold long-run bit-packed parts are compressed.
    fn advise_layout(&self, heats: &[ColumnHeat]) -> PlacerAction {
        let threshold = self.config.rle_run_fraction;
        // A hot part stuck on an RLE-hostile layout costs every scan; undo
        // it before spending effort compressing cold data.
        for h in heats.iter().filter(|h| h.active) {
            for (part, stat) in h.part_layouts.iter().enumerate() {
                if stat.layout == IvLayoutKind::Rle
                    && stat.run_fraction > threshold
                    && stat.rows > 0
                {
                    return PlacerAction::Relayout {
                        column: h.column,
                        part,
                        layout: IvLayoutKind::BitPacked,
                    };
                }
            }
        }
        for h in heats.iter().filter(|h| !h.active) {
            for (part, stat) in h.part_layouts.iter().enumerate() {
                if stat.layout == IvLayoutKind::BitPacked
                    && stat.run_fraction <= threshold
                    && stat.rows > 0
                {
                    return PlacerAction::Relayout {
                        column: h.column,
                        part,
                        layout: IvLayoutKind::Rle,
                    };
                }
            }
        }
        PlacerAction::None
    }

    /// Applies a decision to the catalog on a machine of the given topology.
    pub fn apply(&self, topology: &Topology, catalog: &mut Catalog, action: &PlacerAction) {
        match action {
            PlacerAction::None => {}
            PlacerAction::MoveColumn { column, to } => {
                move_column_to(catalog.column_mut(*column), *to);
            }
            PlacerAction::RepartitionIvp { column, parts }
            | PlacerAction::DecreasePartitions { column, parts } => {
                repartition_ivp(topology, catalog.column_mut(*column), column.column, *parts);
            }
            PlacerAction::RepartitionPp { column, parts } => {
                // Physical repartitioning rebuilds the column's components; we
                // re-place the column from its spec and swap it in.
                let all_sockets: Vec<SocketId> = topology.socket_ids().collect();
                let spec = catalog.column(*column).spec.clone();
                *catalog.column_mut(*column) =
                    place_column_pp(&spec, *parts, &all_sockets, column.column);
                catalog.table_mut(column.table).strategy =
                    PlacementStrategy::PhysicallyPartitioned { parts: *parts };
            }
            // The simulated catalog tracks component sizes and placement,
            // not physical encodings — layout changes are a native-engine
            // concern ([`crate::native::NativeEngine::relayout_part`]).
            PlacerAction::Relayout { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{PlacedTable, PlacementStrategy};
    use crate::spec::{ColumnSpec, TableSpec};

    fn heats(
        primary: &[u16],
        heat: &[f64],
        parts: &[usize],
        active: &[bool],
        iv: bool,
    ) -> Vec<ColumnHeat> {
        primary
            .iter()
            .enumerate()
            .map(|(i, s)| ColumnHeat {
                column: ColumnRef { table: 0, column: i },
                primary_socket: SocketId(*s),
                heat: heat[i],
                agg_bytes: 0,
                iv_intensive: iv,
                partitions: parts[i],
                active: active[i],
                part_layouts: Vec::new(),
            })
            .collect()
    }

    fn layout_stat(layout: IvLayoutKind, run_fraction: f64) -> PartLayoutStat {
        PartLayoutStat { layout, run_fraction, rows: 10_000 }
    }

    #[test]
    fn balanced_utilization_with_hot_data_does_nothing() {
        let placer = AdaptiveDataPlacer::default();
        let action = placer.decide(
            &[0.8, 0.8, 0.79, 0.81],
            &heats(&[0, 1, 2, 3], &[0.25, 0.25, 0.25, 0.25], &[1, 1, 1, 1], &[true; 4], true),
        );
        assert_eq!(action, PlacerAction::None);
    }

    #[test]
    fn non_dominating_hot_item_is_moved_to_the_coldest_socket() {
        let placer = AdaptiveDataPlacer::default();
        // Socket 0 is hot because of many moderately warm columns.
        let action = placer.decide(
            &[0.9, 0.2, 0.1, 0.1],
            &heats(
                &[0, 0, 0, 0, 1],
                &[0.06, 0.05, 0.05, 0.05, 0.05],
                &[1, 1, 1, 1, 1],
                &[true; 5],
                true,
            ),
        );
        match action {
            PlacerAction::MoveColumn { to, .. } => assert_eq!(to, SocketId(2).min(SocketId(3))),
            other => panic!("expected a move, got {other:?}"),
        }
    }

    #[test]
    fn dominating_iv_intensive_item_is_partitioned_with_ivp() {
        let placer = AdaptiveDataPlacer::default();
        let action = placer.decide(
            &[0.9, 0.2, 0.1, 0.1],
            &heats(&[0, 1], &[0.2, 0.05], &[1, 1], &[true, true], true),
        );
        match action {
            PlacerAction::RepartitionIvp { parts, .. } => assert_eq!(parts, 2),
            other => panic!("expected IVP repartitioning, got {other:?}"),
        }
    }

    #[test]
    fn dominating_materialization_heavy_item_is_partitioned_with_pp() {
        let placer = AdaptiveDataPlacer::default();
        let action = placer.decide(
            &[0.9, 0.2, 0.1, 0.1],
            &heats(&[0, 1], &[0.2, 0.05], &[1, 1], &[true, true], false),
        );
        assert!(matches!(action, PlacerAction::RepartitionPp { parts: 2, .. }));
    }

    #[test]
    fn cold_partitioned_data_is_consolidated_when_balanced() {
        let placer = AdaptiveDataPlacer::default();
        let action = placer.decide(
            &[0.3, 0.3, 0.3, 0.3],
            &heats(&[0, 1], &[0.0, 0.2], &[4, 1], &[false, true], true),
        );
        assert_eq!(
            action,
            PlacerAction::DecreasePartitions {
                column: ColumnRef { table: 0, column: 0 },
                parts: 2
            }
        );
    }

    #[test]
    fn cold_long_run_parts_are_advised_onto_rle() {
        let placer = AdaptiveDataPlacer::default();
        let mut heats = heats(&[0, 1], &[0.0, 0.2], &[1, 1], &[false, true], true);
        // The cold column's second part is sorted (one run per ~100 rows);
        // partitions stay at 1 so consolidation does not preempt the advice.
        heats[0].part_layouts = vec![
            layout_stat(IvLayoutKind::BitPacked, 0.9),
            layout_stat(IvLayoutKind::BitPacked, 0.01),
        ];
        let action = placer.decide(&[0.3, 0.3, 0.3, 0.3], &heats);
        assert_eq!(
            action,
            PlacerAction::Relayout {
                column: ColumnRef { table: 0, column: 0 },
                part: 1,
                layout: IvLayoutKind::Rle,
            }
        );
    }

    #[test]
    fn hot_short_run_rle_parts_are_unpacked_first() {
        let placer = AdaptiveDataPlacer::default();
        let mut heats = heats(&[0, 1], &[0.0, 0.2], &[1, 1], &[false, true], true);
        // A cold RLE candidate exists, but the hot column is misencoded:
        // fixing the hot part takes priority.
        heats[0].part_layouts = vec![layout_stat(IvLayoutKind::BitPacked, 0.01)];
        heats[1].part_layouts = vec![layout_stat(IvLayoutKind::Rle, 0.95)];
        let action = placer.decide(&[0.3, 0.3, 0.3, 0.3], &heats);
        assert_eq!(
            action,
            PlacerAction::Relayout {
                column: ColumnRef { table: 0, column: 1 },
                part: 0,
                layout: IvLayoutKind::BitPacked,
            }
        );
    }

    #[test]
    fn short_run_cold_parts_keep_the_bitpacked_layout() {
        // Random (run-hostile) cold data must not be compressed, and columns
        // without layout telemetry never trigger the advisor.
        let placer = AdaptiveDataPlacer::default();
        let mut heats = heats(&[0, 1], &[0.0, 0.2], &[1, 1], &[false, true], true);
        heats[0].part_layouts = vec![layout_stat(IvLayoutKind::BitPacked, 0.9)];
        assert_eq!(placer.decide(&[0.3, 0.3, 0.3, 0.3], &heats), PlacerAction::None);
        heats[0].part_layouts = Vec::new();
        assert_eq!(placer.decide(&[0.3, 0.3, 0.3, 0.3], &heats), PlacerAction::None);
    }

    #[test]
    fn consolidation_outranks_layout_advice() {
        // A cold partitioned column is consolidated before any relayout.
        let placer = AdaptiveDataPlacer::default();
        let mut heats = heats(&[0, 1], &[0.0, 0.2], &[4, 1], &[false, true], true);
        heats[0].part_layouts = vec![layout_stat(IvLayoutKind::BitPacked, 0.01)];
        assert!(matches!(
            placer.decide(&[0.3, 0.3, 0.3, 0.3], &heats),
            PlacerAction::DecreasePartitions { .. }
        ));
    }

    #[test]
    fn partition_count_is_capped() {
        let placer =
            AdaptiveDataPlacer::new(PlacerConfig { max_partitions: 4, ..Default::default() });
        let action =
            placer.decide(&[0.9, 0.1, 0.1, 0.1], &heats(&[0], &[0.3], &[4], &[true], true));
        assert!(matches!(action, PlacerAction::RepartitionIvp { parts: 4, .. }));
    }

    #[test]
    fn apply_move_and_ivp_actions_update_the_catalog() {
        let topology = Topology::four_socket_ivybridge_ex();
        let spec = TableSpec::new(
            "t",
            4_000_000,
            vec![ColumnSpec::integer_with_bitcase("hot", 4_000_000, 20, false)],
        );
        let table = PlacedTable::place(&topology, &spec, PlacementStrategy::RoundRobin);
        let mut catalog = Catalog::new();
        catalog.add_table(table);
        let placer = AdaptiveDataPlacer::default();
        let column = ColumnRef { table: 0, column: 0 };

        placer.apply(
            &topology,
            &mut catalog,
            &PlacerAction::MoveColumn { column, to: SocketId(2) },
        );
        assert_eq!(catalog.column(column).primary_socket(), SocketId(2));

        placer.apply(&topology, &mut catalog, &PlacerAction::RepartitionIvp { column, parts: 4 });
        assert_eq!(catalog.column(column).iv_segments.len(), 4);

        placer.apply(&topology, &mut catalog, &PlacerAction::RepartitionPp { column, parts: 2 });
        assert_eq!(catalog.column(column).dict_segments.len(), 2);
    }

    #[test]
    fn utilization_derivation_uses_local_bandwidth() {
        use numascan_numasim::HwCounters;
        let topology = Topology::four_socket_ivybridge_ex();
        let mut counters = HwCounters::new(&topology);
        counters.elapsed_seconds = 1.0;
        counters.record_access(SocketId(0), SocketId(0), 32.5 * (1u64 << 30) as f64, 0.0, 0.0);
        let report = SimReport {
            completed_queries: 0,
            elapsed_seconds: 1.0,
            throughput_qpm: 0.0,
            latency: crate::sim::LatencyStats::from_latencies_seconds(&[]),
            latencies_seconds: vec![],
            counters,
            scheduler: numascan_scheduler::SchedulerStats::new(4),
            column_traffic: vec![],
        };
        let util = AdaptiveDataPlacer::utilization_from_report(&report, &topology);
        assert!((util[0] - 0.5).abs() < 1e-9);
        assert_eq!(util[1], 0.0);
    }

    #[test]
    fn closed_loop_rebalance_partitions_a_measured_hotspot() {
        use crate::query::{FixedQueryGenerator, QuerySpec};
        use crate::sim::{SimConfig, SimEngine};
        use numascan_numasim::Machine;
        use numascan_scheduler::SchedulingStrategy;

        let topology = Topology::four_socket_ivybridge_ex();
        let mut machine = Machine::new(topology.clone());
        let spec = TableSpec::new(
            "t",
            2_000_000,
            (0..4)
                .map(|i| ColumnSpec::integer_with_bitcase(format!("c{i}"), 2_000_000, 20, false))
                .collect(),
        );
        let table = PlacedTable::place(&topology, &spec, PlacementStrategy::RoundRobin);
        let mut catalog = Catalog::new();
        catalog.add_table(table);

        // Every client hammers column 1: a measured hotspot on one socket.
        let hot = ColumnRef { table: 0, column: 1 };
        let mut workload = FixedQueryGenerator::new(QuerySpec::scan(hot, 0.0001));
        let config = SimConfig {
            strategy: SchedulingStrategy::Bound,
            clients: 64,
            target_queries: 200,
            ..SimConfig::default()
        };
        let report = SimEngine::new(&mut machine, &catalog, config.clone()).run(&mut workload);

        // The report's traffic accounting identifies the hot column.
        assert_eq!(report.column_traffic[0].column, hot);
        assert!(report.column_traffic[0].is_iv_intensive());

        // One closed-loop rebalance step partitions it with IVP.
        let placer = AdaptiveDataPlacer::default();
        let action = placer.rebalance_step(&topology, &mut catalog, &report);
        assert!(
            matches!(action, PlacerAction::RepartitionIvp { column, .. } if column == hot),
            "expected the hot column to be IVP-partitioned, got {action:?}"
        );
        assert!(catalog.column(hot).iv_segments.len() > 1);

        // After rebalancing, the same workload achieves higher throughput.
        let mut workload = FixedQueryGenerator::new(QuerySpec::scan(hot, 0.0001));
        let after = SimEngine::new(&mut machine, &catalog, config).run(&mut workload);
        assert!(
            after.throughput_qpm > report.throughput_qpm,
            "rebalancing should improve throughput: {} -> {}",
            report.throughput_qpm,
            after.throughput_qpm
        );
    }
}
