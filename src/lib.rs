//! # numascan
//!
//! A Rust implementation of the system described in *"Scaling Up Concurrent
//! Main-Memory Column-Store Scans: Towards Adaptive NUMA-aware Data and Task
//! Placement"* (Psaroudakis, Scheuer, May, Sellami, Ailamaki — VLDB 2015),
//! together with the substrates needed to reproduce its evaluation on any
//! development machine.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`numasim`] — a deterministic virtual NUMA machine (topologies, page
//!   placement, bandwidth/latency contention, hardware counters).
//! * [`storage`] — the column-store storage layer (dictionary encoding,
//!   bit-packed and run-length index vectors, zone maps, scans,
//!   materialization, partitioning).
//! * [`psm`] — the Page Socket Mapping metadata structure.
//! * [`scheduler`] — the NUMA-aware task scheduler (thread groups, hard/soft
//!   affinities, stealing policies, concurrency hint), with a real-thread
//!   backend.
//! * [`core`] — the engine: data placement strategies (RR / IVP / PP), scan
//!   scheduling, the adaptive data placer, and the simulation and native
//!   execution engines.
//! * [`workload`] — dataset and workload generators (uniform and skewed scan
//!   workloads, TPC-H Q1-style and BW-EML-style aggregation workloads),
//!   plus seeded fault schedules for the cluster tier.
//! * [`cluster`] — the fault-tolerant sharded scan tier: a coordinator
//!   routing per-shard requests over a swappable transport with retries,
//!   backoff, hedging, replica failover, and typed partial degradation —
//!   all replayable from a seed via the simulated transport.
//! * [`bench`](mod@bench) — the experiment harness regenerating every table and figure
//!   of the paper.
//!
//! ## Quick start
//!
//! ```
//! use numascan::core::{PlacedTable, PlacementStrategy, Catalog, SimConfig, SimEngine};
//! use numascan::numasim::{Machine, Topology};
//! use numascan::scheduler::SchedulingStrategy;
//! use numascan::workload::{paper_table_spec, ColumnSelection, ScanWorkload};
//!
//! // A 4-socket machine with a small scan table placed round-robin.
//! let mut machine = Machine::new(Topology::four_socket_ivybridge_ex());
//! let spec = paper_table_spec(1_000_000, 8, false);
//! let table = PlacedTable::place(&mut machine, &spec, PlacementStrategy::RoundRobin).unwrap();
//! let mut catalog = Catalog::new();
//! catalog.add_table(table);
//!
//! // 64 concurrent clients scanning uniformly, NUMA-aware (Bound) scheduling.
//! let mut workload = ScanWorkload::new(0, 8, ColumnSelection::Uniform, 0.0001, 42);
//! let config = SimConfig {
//!     strategy: SchedulingStrategy::Bound,
//!     clients: 64,
//!     target_queries: 200,
//!     ..SimConfig::default()
//! };
//! let report = SimEngine::new(&mut machine, &catalog, config).run(&mut workload);
//! assert!(report.throughput_qpm > 0.0);
//! ```

pub use numascan_bench as bench;
pub use numascan_cluster as cluster;
pub use numascan_core as core;
pub use numascan_numasim as numasim;
pub use numascan_psm as psm;
pub use numascan_scheduler as scheduler;
pub use numascan_storage as storage;
pub use numascan_workload as workload;
