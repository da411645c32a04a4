//! # numascan-core
//!
//! The NUMA-aware column-store engine: the primary contribution of
//! *"Scaling Up Concurrent Main-Memory Column-Store Scans: Towards Adaptive
//! NUMA-aware Data and Task Placement"* (Psaroudakis et al., VLDB 2015),
//! implemented on top of the substrates of this workspace:
//!
//! * [`spec`] — metadata descriptions of tables and dictionary-encoded
//!   columns (row counts, distinct values, bitcases, component sizes).
//! * [`placement`] — the three data placement strategies of Section 4.2
//!   (round-robin **RR**, index-vector partitioning **IVP**, physical
//!   partitioning **PP**), realised against the virtual NUMA machine and
//!   tracked with PSMs.
//! * [`catalog`] — the catalog of placed tables (Section 7, Figure 20).
//! * [`query`] — query specifications and the generator interface used by the
//!   workload crate.
//! * [`cost`] — the calibrated cost model converting storage metadata and
//!   predicates into per-task work (streamed bytes, random accesses, CPU
//!   operations).
//! * [`planner`] — NUMA-aware scheduling of scans (Section 5.2): splitting
//!   the two execution phases (finding qualifying matches, output
//!   materialization) into tasks whose affinities are derived from the PSMs.
//! * [`sim`] — the virtual-time execution engine that runs concurrent clients
//!   against the contention model and produces throughput, latency and
//!   hardware-counter reports.
//! * [`adaptive`] — the adaptive data placer of Section 7 (Figure 20) that
//!   balances socket utilization by moving or repartitioning hot data.
//! * [`native`] — native execution of real scans (from `numascan-storage`) on
//!   real threads (from `numascan-scheduler`), for functional use of the
//!   library outside the simulator: placement-aligned task splitting, live
//!   move/repartition actions, and the scan telemetry (per-socket and
//!   per-column bytes) that closes the adaptive loop without the simulator.
//! * [`error`] — typed statement errors ([`EngineError`]): unknown columns,
//!   deadline expiry and panicked tasks, so callers above the engine (the
//!   cluster tier in particular) can tell a permanent failure from a
//!   timed-out attempt.
//! * [`session`] — the multi-client admission layer: concurrent statements
//!   register themselves so the measured active-statement count drives the
//!   concurrency hint, and epoch rebalance steps are coordinated in one
//!   place.
//! * [`shared`] — cooperative shared scans: under high concurrency
//!   statements attach to one in-flight circular sweep per column part
//!   (mid-column joins wrap around), and every chunk is evaluated once for
//!   the whole waiting set through the batched SWAR kernel, so aggregate
//!   throughput scales with bandwidth instead of client count.
//! * [`aggregate`] — NUMA-aware aggregation pipelines fused with the scan
//!   kernels: per-socket partial tables fed straight from the SWAR mask
//!   stream, merged in a deterministic part-order reduce (and, one tier up,
//!   per-shard partials merged by the cluster coordinator).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod aggregate;
pub mod catalog;
pub mod cost;
pub mod error;
pub mod native;
pub mod placement;
pub mod planner;
pub mod query;
pub mod session;
pub mod shared;
pub mod sim;
pub mod spec;

pub use adaptive::{AdaptiveDataPlacer, ColumnHeat, PartLayoutStat, PlacerAction, PlacerConfig};
pub use aggregate::{oracle_aggregate, AggError, AggFunc, AggSpec, AggState, AggTable, AggValue};
pub use catalog::Catalog;
pub use cost::{CostModel, MemTarget, TaskWork};
pub use error::EngineError;
pub use native::{NativeEngine, NativeEngineConfig, NativeEpoch};
pub use placement::{PlacedColumn, PlacedTable, PlacementStrategy, RepartitionCost};

/// The native engine's former placement enum, now [`PlacementStrategy`].
/// Kept only because the benchmark's engine adapter (`perfbench`) still
/// names it; the next change to the benchmark drops both.
pub type NativePlacement = PlacementStrategy;
pub use planner::{PlannedTask, QueryPlan, ScanPlanner};
pub use query::{ColumnRef, QueryGenerator, QueryKind, QuerySpec};
pub use session::{QueryResult, ScanRequest, ScanSpec, SessionManager};
pub use shared::{SharedScanConfig, SharedScanMode, SharedScanStats};
pub use sim::{SimConfig, SimEngine, SimReport};
pub use spec::{ColumnSpec, TableSpec};
