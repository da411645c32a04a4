//! Data placement strategies (Section 4.2).
//!
//! Three placements of a dictionary-encoded column over the sockets of the
//! machine are implemented, mirroring Figure 4 of the paper:
//!
//! * **Round-robin (RR)** — the whole column (IV, dictionary, index) is
//!   allocated on a single socket; consecutive columns rotate over the
//!   sockets.
//! * **Index-vector partitioning (IVP)** — the IV is split into equal row
//!   ranges whose pages are placed on different sockets; the dictionary and
//!   the index are interleaved across all sockets because their vid order does
//!   not follow the IV order.
//! * **Physical partitioning (PP)** — the table is split into row ranges and
//!   every part gets its own self-contained IV, dictionary and index on one
//!   socket. The per-part dictionaries duplicate recurring values, which costs
//!   memory (Section 6.2.3).
//!
//! The segments are the simulator's one record of where a component lives:
//! they play the role the paper gives the Page Socket Mapping (PSM, Section
//! 4.3), so the planner derives task affinities from them.

use std::collections::BTreeMap;

use numascan_numasim::{SocketId, Topology};

use crate::spec::{ColumnSpec, TableSpec};

/// The data placement strategy of a table or column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementStrategy {
    /// Whole columns on single sockets, rotating per column.
    RoundRobin,
    /// The index vector of every column split into `parts` socket-local
    /// ranges; dictionary and index interleaved.
    IndexVectorPartitioned {
        /// Number of IV parts.
        parts: usize,
    },
    /// The table physically split into `parts` self-contained parts, each on
    /// one socket.
    PhysicallyPartitioned {
        /// Number of table parts.
        parts: usize,
    },
}

impl PlacementStrategy {
    /// Number of parts the strategy splits a column into (1 for RR).
    pub fn parts(&self) -> usize {
        match self {
            PlacementStrategy::RoundRobin => 1,
            PlacementStrategy::IndexVectorPartitioned { parts }
            | PlacementStrategy::PhysicallyPartitioned { parts } => (*parts).max(1),
        }
    }

    /// Label used by the benchmark harness ("RR", "IVP8", "PP4", ...).
    pub fn label(&self) -> String {
        match self {
            PlacementStrategy::RoundRobin => "RR".to_string(),
            PlacementStrategy::IndexVectorPartitioned { parts } => format!("IVP{parts}"),
            PlacementStrategy::PhysicallyPartitioned { parts } => format!("PP{parts}"),
        }
    }
}

/// Location of a dictionary or index component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentLocation {
    /// Wholly on one socket.
    Socket(SocketId),
    /// Interleaved page-wise over several sockets.
    Interleaved(Vec<SocketId>),
}

/// One socket-local range of a column's index vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IvSegment {
    /// Rows covered by the segment.
    pub rows: std::ops::Range<u64>,
    /// Size of the segment in bytes.
    pub bytes: u64,
    /// Socket holding the segment.
    pub socket: SocketId,
}

/// A dictionary or inverted-index component (or one physical part of it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSegment {
    /// Rows whose materialization / lookups hit this component.
    pub rows: std::ops::Range<u64>,
    /// Where the component lives.
    pub location: ComponentLocation,
    /// Size of the component in bytes.
    pub bytes: u64,
    /// Distinct values covered (dictionary entries of this part).
    pub distinct: u64,
}

/// A column placed on the machine.
#[derive(Debug, Clone)]
pub struct PlacedColumn {
    /// The column's metadata.
    pub spec: ColumnSpec,
    /// Strategy the column was placed with.
    pub strategy: PlacementStrategy,
    /// Socket-local ranges of the index vector, in row order.
    pub iv_segments: Vec<IvSegment>,
    /// Dictionary components (one for RR/IVP, one per part for PP).
    pub dict_segments: Vec<ComponentSegment>,
    /// Inverted-index components (empty when the column has no index).
    pub ix_segments: Vec<ComponentSegment>,
}

impl PlacedColumn {
    /// The socket holding the IV pages of a given row.
    pub fn iv_socket_of_row(&self, row: u64) -> SocketId {
        self.iv_segments
            .iter()
            .find(|s| s.rows.contains(&row))
            .map(|s| s.socket)
            .unwrap_or_else(|| self.iv_segments[0].socket)
    }

    /// The dictionary component responsible for a given row.
    pub fn dict_segment_of_row(&self, row: u64) -> &ComponentSegment {
        self.dict_segments.iter().find(|s| s.rows.contains(&row)).unwrap_or(&self.dict_segments[0])
    }

    /// The socket holding the most IV bytes; ties go to the highest socket
    /// index.
    pub fn primary_socket(&self) -> SocketId {
        let mut per_socket: BTreeMap<SocketId, u64> = BTreeMap::new();
        for seg in &self.iv_segments {
            *per_socket.entry(seg.socket).or_default() += seg.bytes;
        }
        per_socket
            .into_iter()
            .max_by_key(|&(socket, bytes)| (bytes, socket))
            .map_or(SocketId(0), |(socket, _)| socket)
    }

    /// Total placed bytes of the column, including dictionary duplication
    /// introduced by physical partitioning.
    pub fn placed_bytes(&self) -> u64 {
        let iv: u64 = self.iv_segments.iter().map(|s| s.bytes).sum();
        let dict: u64 = self.dict_segments.iter().map(|s| s.bytes).sum();
        let ix: u64 = self.ix_segments.iter().map(|s| s.bytes).sum();
        iv + dict + ix
    }

    /// Memory overhead relative to the unpartitioned column.
    pub fn memory_overhead_fraction(&self) -> f64 {
        let base = self.spec.total_bytes() as f64;
        if base == 0.0 {
            0.0
        } else {
            self.placed_bytes() as f64 / base - 1.0
        }
    }
}

/// A table placed on the machine.
#[derive(Debug, Clone)]
pub struct PlacedTable {
    /// The table's metadata.
    pub spec: TableSpec,
    /// Strategy the table was placed with.
    pub strategy: PlacementStrategy,
    /// The placed columns, in the order of `spec.columns`.
    pub columns: Vec<PlacedColumn>,
}

impl PlacedTable {
    /// Places a table on the machine according to the strategy.
    pub fn place(topology: &Topology, spec: &TableSpec, strategy: PlacementStrategy) -> Self {
        Self::place_with_offset(topology, spec, strategy, 0)
    }

    /// Places a table, rotating every socket assignment by `socket_offset`.
    ///
    /// When several tables are placed with the same (small) number of physical
    /// partitions, an offset per table keeps the tables from piling up on the
    /// first sockets — e.g. the three BW-EML InfoCubes of Section 6.3 are
    /// distributed round-robin around the machine.
    pub fn place_with_offset(
        topology: &Topology,
        spec: &TableSpec,
        strategy: PlacementStrategy,
        socket_offset: usize,
    ) -> Self {
        let sockets = topology.socket_count();
        let all_sockets: Vec<SocketId> = topology.socket_ids().collect();
        let columns = spec
            .columns
            .iter()
            .enumerate()
            .map(|(c, col)| match strategy {
                PlacementStrategy::RoundRobin => {
                    place_column_rr(col, SocketId(((socket_offset + c) % sockets) as u16))
                }
                PlacementStrategy::IndexVectorPartitioned { parts } => place_column_ivp(
                    col,
                    socket_offset + c,
                    parts.max(1).min(sockets),
                    &all_sockets,
                ),
                PlacementStrategy::PhysicallyPartitioned { parts } => {
                    place_column_pp(col, parts.max(1), &all_sockets, socket_offset)
                }
            })
            .collect();
        PlacedTable { spec: spec.clone(), strategy, columns }
    }

    /// Total placed bytes of the table.
    pub fn placed_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.placed_bytes()).sum()
    }
}

/// Places a whole column on one socket (the RR building block).
pub fn place_column_rr(spec: &ColumnSpec, socket: SocketId) -> PlacedColumn {
    let component = |bytes| ComponentSegment {
        rows: 0..spec.rows,
        location: ComponentLocation::Socket(socket),
        bytes,
        distinct: spec.distinct,
    };
    PlacedColumn {
        spec: spec.clone(),
        strategy: PlacementStrategy::RoundRobin,
        iv_segments: vec![IvSegment { rows: 0..spec.rows, bytes: spec.iv_bytes().max(1), socket }],
        dict_segments: vec![component(spec.dict_bytes())],
        ix_segments: if spec.with_index { vec![component(spec.ix_bytes())] } else { Vec::new() },
    }
}

/// Splits `0..rows` into `parts` equal ranges.
fn row_ranges(rows: u64, parts: usize) -> Vec<std::ops::Range<u64>> {
    let parts = parts.max(1) as u64;
    let base = rows / parts;
    let remainder = rows % parts;
    let mut out = Vec::with_capacity(parts as usize);
    let mut cursor = 0;
    for i in 0..parts {
        let len = base + u64::from(i < remainder);
        out.push(cursor..cursor + len);
        cursor += len;
    }
    out
}

/// Bytes of the IV part holding `rows` rows of `spec`.
fn iv_part_bytes(spec: &ColumnSpec, rows: &std::ops::Range<u64>) -> u64 {
    ((rows.end - rows.start) * spec.bitcase() as u64).div_ceil(8).max(1)
}

/// Places a column with index-vector partitioning across `parts` sockets.
pub fn place_column_ivp(
    spec: &ColumnSpec,
    column_index: usize,
    parts: usize,
    all_sockets: &[SocketId],
) -> PlacedColumn {
    // Distribute partitions round-robin around the sockets, offset by the
    // column index so that the first parts of all columns do not pile up on
    // socket 0.
    let iv_segments = row_ranges(spec.rows, parts)
        .into_iter()
        .enumerate()
        .map(|(i, rows)| IvSegment {
            bytes: iv_part_bytes(spec, &rows),
            rows,
            socket: all_sockets[(column_index + i) % all_sockets.len()],
        })
        .collect();

    // Dictionary and index are interleaved across all sockets: their vid order
    // does not follow the IV order, so no socket is preferable.
    let interleaved = |bytes| ComponentSegment {
        rows: 0..spec.rows,
        location: ComponentLocation::Interleaved(all_sockets.to_vec()),
        bytes,
        distinct: spec.distinct,
    };
    PlacedColumn {
        spec: spec.clone(),
        strategy: PlacementStrategy::IndexVectorPartitioned { parts },
        iv_segments,
        dict_segments: vec![interleaved(spec.dict_bytes())],
        ix_segments: if spec.with_index { vec![interleaved(spec.ix_bytes())] } else { Vec::new() },
    }
}

/// Places a column with physical partitioning: every part is self-contained
/// (own IV, dictionary and index) on one socket. Part `i` is placed on socket
/// `(socket_offset + i) % sockets`.
pub fn place_column_pp(
    spec: &ColumnSpec,
    parts: usize,
    all_sockets: &[SocketId],
    socket_offset: usize,
) -> PlacedColumn {
    let mut iv_segments = Vec::with_capacity(parts);
    let mut dict_segments = Vec::with_capacity(parts);
    let mut ix_segments = Vec::new();
    for (i, rows) in row_ranges(spec.rows, parts).into_iter().enumerate() {
        let socket = all_sockets[(socket_offset + i) % all_sockets.len()];
        let part_rows = rows.end - rows.start;
        let part_distinct = spec.expected_distinct_in(part_rows);
        iv_segments.push(IvSegment {
            rows: rows.clone(),
            bytes: iv_part_bytes(spec, &rows),
            socket,
        });
        let component = |bytes| ComponentSegment {
            rows: rows.clone(),
            location: ComponentLocation::Socket(socket),
            bytes,
            distinct: part_distinct,
        };
        dict_segments.push(component((part_distinct * spec.value_bytes).max(1)));
        if spec.with_index {
            ix_segments.push(component((part_rows * 4 + part_distinct * 8).max(1)));
        }
    }
    PlacedColumn {
        spec: spec.clone(),
        strategy: PlacementStrategy::PhysicallyPartitioned { parts },
        iv_segments,
        dict_segments,
        ix_segments,
    }
}

/// Moves a whole (RR-placed) column to another socket.
pub fn move_column_to(column: &mut PlacedColumn, target: SocketId) {
    for seg in &mut column.iv_segments {
        seg.socket = target;
    }
    for seg in column.dict_segments.iter_mut().chain(&mut column.ix_segments) {
        seg.location = ComponentLocation::Socket(target);
    }
}

/// Repartitions a column's IV across `parts` sockets in place, using
/// `move_pages` semantics (this is the quick IVP repartitioning the adaptive
/// data placer uses for hot, IV-intensive columns): the IV keeps its bytes,
/// split in proportion to the rows of each new part. The dictionary and index
/// are interleaved across all sockets.
pub fn repartition_ivp(
    topology: &Topology,
    column: &mut PlacedColumn,
    column_index: usize,
    parts: usize,
) {
    let all_sockets: Vec<SocketId> = topology.socket_ids().collect();
    let sockets = all_sockets.len();
    let parts = parts.max(1).min(sockets);
    let total_iv_bytes: u64 = column.iv_segments.iter().map(|s| s.bytes).sum();
    let rows = column.spec.rows;

    let mut byte_cursor = 0u64;
    column.iv_segments = row_ranges(rows, parts)
        .into_iter()
        .enumerate()
        .map(|(i, row_range)| {
            let part_rows = row_range.end - row_range.start;
            let bytes = if i == parts - 1 {
                total_iv_bytes - byte_cursor
            } else {
                (total_iv_bytes as f64 * part_rows as f64 / rows.max(1) as f64) as u64
            };
            byte_cursor += bytes;
            IvSegment { rows: row_range, bytes, socket: all_sockets[(column_index + i) % sockets] }
        })
        .collect();
    column.strategy = PlacementStrategy::IndexVectorPartitioned { parts };

    // Interleave the dictionary and index so no socket becomes a hotspot for
    // materialization.
    for seg in column.dict_segments.iter_mut().chain(&mut column.ix_segments) {
        seg.location = ComponentLocation::Interleaved(all_sockets.clone());
    }
}

/// Cost estimates for performing or changing a placement (Section 6.2.3: PP on
/// the paper's dataset takes around 18 minutes, IVP around 4 minutes).
#[derive(Debug, Clone, Copy)]
pub struct RepartitionCost;

impl RepartitionCost {
    /// Rate at which IVP moves pages (GiB of IV per second), calibrated so the
    /// paper's dataset takes around 4 minutes.
    pub const IVP_GIBS_PER_SECOND: f64 = 0.18;
    /// Rate at which PP rebuilds columns (GiB of encoded table per second),
    /// calibrated so the paper's dataset takes around 18 minutes.
    pub const PP_GIBS_PER_SECOND: f64 = 0.05;

    /// Seconds needed to (re)partition a table's index vectors with IVP.
    pub fn ivp_seconds(table: &TableSpec) -> f64 {
        let iv_bytes: u64 = table.columns.iter().map(|c| c.iv_bytes()).sum();
        iv_bytes as f64 / (1u64 << 30) as f64 / Self::IVP_GIBS_PER_SECOND
    }

    /// Seconds needed to physically repartition a table.
    pub fn pp_seconds(table: &TableSpec) -> f64 {
        table.total_bytes() as f64 / (1u64 << 30) as f64 / Self::PP_GIBS_PER_SECOND
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topology() -> Topology {
        Topology::four_socket_ivybridge_ex()
    }

    fn table_spec(columns: usize, rows: u64) -> TableSpec {
        let cols = (0..columns)
            .map(|i| {
                ColumnSpec::integer_with_bitcase(
                    format!("col{i}"),
                    rows,
                    17 + (i % 10) as u8,
                    false,
                )
            })
            .collect();
        TableSpec::new("tbl", rows, cols)
    }

    #[test]
    fn strategy_labels_and_parts() {
        assert_eq!(PlacementStrategy::RoundRobin.label(), "RR");
        assert_eq!(PlacementStrategy::IndexVectorPartitioned { parts: 8 }.label(), "IVP8");
        assert_eq!(PlacementStrategy::PhysicallyPartitioned { parts: 4 }.label(), "PP4");
        assert_eq!(PlacementStrategy::RoundRobin.parts(), 1);
        assert_eq!(PlacementStrategy::IndexVectorPartitioned { parts: 8 }.parts(), 8);
    }

    #[test]
    fn rr_rotates_columns_over_sockets() {
        let spec = table_spec(8, 1_000_000);
        let placed = PlacedTable::place(&topology(), &spec, PlacementStrategy::RoundRobin);
        let sockets: Vec<usize> =
            placed.columns.iter().map(|c| c.iv_segments[0].socket.index()).collect();
        assert_eq!(sockets, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Every component of a column is on the column's socket.
        for col in &placed.columns {
            assert_eq!(col.iv_segments.len(), 1);
            assert_eq!(col.primary_socket(), col.iv_segments[0].socket);
            assert_eq!(
                col.dict_segments[0].location,
                ComponentLocation::Socket(col.primary_socket())
            );
        }
    }

    #[test]
    fn ivp_partitions_the_iv_and_interleaves_the_dictionary() {
        let t = topology();
        let spec = table_spec(2, 4_000_000);
        let placed =
            PlacedTable::place(&t, &spec, PlacementStrategy::IndexVectorPartitioned { parts: 4 });
        let col = &placed.columns[0];
        assert_eq!(col.iv_segments.len(), 4);
        // Every socket holds exactly one IV part.
        let mut sockets: Vec<SocketId> = col.iv_segments.iter().map(|s| s.socket).collect();
        sockets.sort();
        sockets.dedup();
        assert_eq!(sockets.len(), 4);
        // Rows are split evenly.
        let rows: Vec<u64> = col.iv_segments.iter().map(|s| s.rows.end - s.rows.start).collect();
        assert!(rows.iter().all(|r| *r == 1_000_000));
        // The dictionary is spread over all sockets.
        let all_sockets: Vec<SocketId> = t.socket_ids().collect();
        assert_eq!(col.dict_segments[0].location, ComponentLocation::Interleaved(all_sockets));
        // Row -> socket lookup agrees with the segments.
        assert_eq!(col.iv_socket_of_row(0), col.iv_segments[0].socket);
        assert_eq!(col.iv_socket_of_row(3_999_999), col.iv_segments[3].socket);
    }

    #[test]
    fn pp_builds_self_contained_parts_with_duplicated_dictionaries() {
        // Low-cardinality column so that every part sees every value.
        let spec = TableSpec::new(
            "t",
            4_000_000,
            vec![ColumnSpec {
                name: "c".into(),
                rows: 4_000_000,
                distinct: 1 << 10,
                value_bytes: 8,
                with_index: true,
            }],
        );
        let placed = PlacedTable::place(
            &topology(),
            &spec,
            PlacementStrategy::PhysicallyPartitioned { parts: 4 },
        );
        let col = &placed.columns[0];
        assert_eq!(col.iv_segments.len(), 4);
        assert_eq!(col.dict_segments.len(), 4);
        assert_eq!(col.ix_segments.len(), 4);
        // Each part's components live on the part's socket.
        for (iv, dict) in col.iv_segments.iter().zip(&col.dict_segments) {
            assert_eq!(dict.location, ComponentLocation::Socket(iv.socket));
        }
        // Dictionary duplication: the summed part dictionaries exceed the
        // original dictionary several times over (every part sees every value),
        // and the column as a whole consumes more memory than unpartitioned.
        let part_dict_bytes: u64 = col.dict_segments.iter().map(|s| s.bytes).sum();
        assert!(part_dict_bytes >= 3 * col.spec.dict_bytes());
        assert!(col.memory_overhead_fraction() > 0.001, "{}", col.memory_overhead_fraction());
    }

    #[test]
    fn pp_memory_overhead_is_modest_for_the_paper_dataset_shape() {
        // bitcase-17 column with 100M rows split 4 ways: each part still sees
        // nearly every value, so dictionaries duplicate, but the dictionary is
        // small relative to the IV, giving a single-digit percentage overhead
        // (the paper reports ~8% for the whole dataset).
        let spec = table_spec(1, 100_000_000);
        let placed = PlacedTable::place(
            &topology(),
            &spec,
            PlacementStrategy::PhysicallyPartitioned { parts: 4 },
        );
        let overhead = placed.columns[0].memory_overhead_fraction();
        assert!(overhead > 0.0 && overhead < 0.25, "overhead {overhead}");
    }

    #[test]
    fn move_column_relocates_every_component() {
        let spec = ColumnSpec::integer_with_bitcase("c", 1_000_000, 18, true);
        let mut col = place_column_rr(&spec, SocketId(0));
        move_column_to(&mut col, SocketId(3));
        assert_eq!(col.primary_socket(), SocketId(3));
        assert_eq!(col.iv_segments[0].socket, SocketId(3));
        assert_eq!(col.dict_segments[0].location, ComponentLocation::Socket(SocketId(3)));
        assert_eq!(col.ix_segments[0].location, ComponentLocation::Socket(SocketId(3)));
    }

    #[test]
    fn repartition_ivp_spreads_an_rr_column() {
        let t = topology();
        let spec = ColumnSpec::integer_with_bitcase("c", 8_000_000, 20, false);
        let mut col = place_column_rr(&spec, SocketId(1));
        let bytes = col.placed_bytes();
        repartition_ivp(&t, &mut col, 0, 4);
        assert_eq!(col.iv_segments.len(), 4);
        let sockets: Vec<usize> = col.iv_segments.iter().map(|s| s.socket.index()).collect();
        assert_eq!(sockets, vec![0, 1, 2, 3]);
        // The IV bytes are spread evenly.
        let iv_bytes: Vec<u64> = col.iv_segments.iter().map(|s| s.bytes).collect();
        assert!(iv_bytes.iter().all(|b| *b == 5_000_000), "uneven IVP split: {iv_bytes:?}");
        assert_eq!(col.placed_bytes(), bytes);
        assert_eq!(col.strategy, PlacementStrategy::IndexVectorPartitioned { parts: 4 });
        // The dictionary is now interleaved.
        let all_sockets: Vec<SocketId> = t.socket_ids().collect();
        assert_eq!(col.dict_segments[0].location, ComponentLocation::Interleaved(all_sockets));
    }

    #[test]
    fn repartitioning_an_ivp_column_keeps_its_bytes() {
        let t = topology();
        let sockets: Vec<SocketId> = t.socket_ids().collect();
        let spec = ColumnSpec::integer_with_bitcase("c", 4_000_000, 20, false);
        let mut col = place_column_ivp(&spec, 0, 4, &sockets);
        let bytes = col.placed_bytes();
        repartition_ivp(&t, &mut col, 0, 3);
        assert_eq!(col.iv_segments.len(), 3);
        assert_eq!(col.placed_bytes(), bytes);
    }

    #[test]
    fn primary_socket_holds_the_most_iv_bytes_and_ties_go_high() {
        let spec = ColumnSpec::integer_with_bitcase("c", 4_000_000, 20, false);
        let mut col = place_column_rr(&spec, SocketId(0));
        let segment = |rows: std::ops::Range<u64>, bytes, socket| IvSegment {
            rows,
            bytes,
            socket: SocketId(socket),
        };
        col.iv_segments = vec![segment(0..1, 10, 1), segment(1..2, 30, 2), segment(2..3, 25, 1)];
        assert_eq!(col.primary_socket(), SocketId(1));
        col.iv_segments = vec![segment(0..1, 10, 3), segment(1..2, 10, 0)];
        assert_eq!(col.primary_socket(), SocketId(3));
    }

    #[test]
    fn repartition_costs_match_the_reported_magnitudes() {
        // The paper's dataset (100M rows, 160 columns): PP takes ~18 minutes,
        // IVP ~4 minutes.
        let spec = table_spec(160, 100_000_000);
        let ivp_minutes = RepartitionCost::ivp_seconds(&spec) / 60.0;
        let pp_minutes = RepartitionCost::pp_seconds(&spec) / 60.0;
        assert!(ivp_minutes > 1.0 && ivp_minutes < 10.0, "IVP minutes {ivp_minutes}");
        assert!(pp_minutes > 10.0 && pp_minutes < 40.0, "PP minutes {pp_minutes}");
        assert!(pp_minutes > 3.0 * ivp_minutes);
    }

    #[test]
    fn placement_respects_strategy_parts_cap() {
        let spec = table_spec(1, 1_000_000);
        // Asking for more IVP parts than sockets clamps to the socket count.
        let placed = PlacedTable::place(
            &topology(),
            &spec,
            PlacementStrategy::IndexVectorPartitioned { parts: 16 },
        );
        assert_eq!(placed.columns[0].iv_segments.len(), 4);
    }
}
