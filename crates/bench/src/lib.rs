//! # numascan-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section 6), plus the native adaptivity, layout-advisor
//! and fault-matrix experiments, whose results are counters, placer actions
//! and virtual time. Timing the real machine is the separate `perfbench/`
//! package's job, not this crate's.
//!
//! Each experiment lives in [`experiments`] and produces one or more
//! [`harness::ResultTable`]s — the same rows/series the paper reports. The
//! `repro` binary runs any subset of them and writes a combined report.
//!
//! Absolute numbers are produced by the virtual NUMA machine of
//! `numascan-numasim`, not by the authors' hardware, so they are not expected
//! to match the paper exactly; the *shape* of every result (who wins, by
//! roughly what factor, where the crossovers are) is what the harness — and
//! the assertions in `tests/` — verify.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod harness;
pub mod runner;
pub mod scale;

pub use harness::ResultTable;
pub use runner::{run_scan, ScanRunConfig};
pub use scale::ExperimentScale;
