//! Virtual-time execution engine.
//!
//! The experiments of the paper are driven by up to 1024 concurrent clients
//! against servers with up to 32 sockets. [`SimEngine`] reproduces those
//! experiments deterministically: closed-loop clients issue queries with no
//! think time, the planner turns each query into tasks whose affinities
//! follow the placement segments, the scheduling strategy (OS / Target / Bound) and the shared
//! per-thread-group queues decide which virtual worker executes which task,
//! and the bandwidth/latency contention model of `numascan-numasim` decides
//! how long every task takes. Hardware counters, scheduler statistics,
//! throughput and per-query latencies are collected along the way.

mod engine;
mod report;

pub use engine::{SimConfig, SimEngine};
pub use report::{ColumnTraffic, LatencyStats, SimReport};
