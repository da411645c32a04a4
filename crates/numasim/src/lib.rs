//! # numascan-numasim
//!
//! A deterministic, software-only model of a NUMA (non-uniform memory access)
//! machine, used as the execution substrate for reproducing the experiments of
//! *"Scaling Up Concurrent Main-Memory Column-Store Scans: Towards Adaptive
//! NUMA-aware Data and Task Placement"* (Psaroudakis et al., VLDB 2015).
//!
//! The paper evaluates data-placement and task-scheduling strategies on three
//! physical servers (4-socket Ivybridge-EX, 8-socket Westmere-EX and a
//! 32-socket SGI UV 300). The effects it studies are *hardware contention*
//! effects: saturation of per-socket memory controllers, saturation of
//! inter-socket (QPI) links, higher latency of remote accesses and the cost of
//! the cache-coherence protocol. This crate models exactly those mechanisms:
//!
//! * [`topology`] — socket/core/interconnect descriptions, with presets
//!   parameterised by the latencies and bandwidths the paper reports in
//!   Table 1.
//! * [`bandwidth`] — a generalized max-min fair bandwidth allocator that
//!   shares memory-controller and interconnect capacity between concurrent
//!   traffic streams, including cache-coherence amplification.
//! * [`latency`] — latency-bound (pointer-chasing / random access) cost model.
//! * [`counters`] — per-socket and per-link "hardware" counters equivalent to
//!   what the paper gathers with the Intel PCM tool.
//! * [`machine`] — a convenience bundle of the above.
//!
//! The machine keeps no record of where data lives: the engine's placement
//! segments are that record (`numascan-core`'s `placement` module), as the
//! paper's Page Socket Mapping is for a real OS.
//!
//! Higher layers (the task scheduler and the column-store engine) decide *what*
//! runs *where*; this crate answers *how long it takes* and *what the counters
//! show*.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bandwidth;
pub mod counters;
pub mod latency;
pub mod machine;
pub mod topology;

pub use bandwidth::{BandwidthSolver, MemoryDemand, RateAllocation};
pub use counters::{HwCounters, LinkCounters, SocketCounters};
pub use latency::LatencyModel;
pub use machine::Machine;
pub use topology::{CoherenceProtocol, HwContext, SocketId, Topology, TopologyKind};
