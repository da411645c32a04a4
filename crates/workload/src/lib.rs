//! # numascan-workload
//!
//! Dataset and workload generators reproducing the experimental setup of the
//! paper's evaluation (Section 6):
//!
//! * [`dataset`] — the synthetic table used by the sensitivity analysis
//!   (100 million rows, an ID column and 160 random integer columns whose
//!   bitcases cycle through 17–26), both as a metadata-only [`TableSpec`] for
//!   the simulator and as a real, materialised table for native execution.
//! * [`selection`] — uniform and skewed column selection (the skewed workload
//!   picks one of the first 80 columns with 20 % probability and one of the
//!   remaining 80 columns with 80 % probability).
//! * [`scans`] — the closed-loop scan workload: every client repeatedly
//!   executes `SELECT COLx FROM TBL WHERE COLx BETWEEN ? AND ?` with a
//!   configurable selectivity.
//! * [`tpch`] — a TPC-H Q1-style workload: expression-heavy aggregation over
//!   a single large table (CPU-intensive).
//! * [`bweml`] — a SAP BW-EML-style reporting workload: simple aggregations
//!   over three InfoCubes (memory-intensive). The real benchmark kit is
//!   proprietary; this models its published shape.
//! * [`shift`] — BW-EML-style *workload shifts* replayed against the native
//!   engine's session layer: seeded phases of hot-column traffic from
//!   concurrent clients, with the adaptive placer's closed loop optionally
//!   running between epochs.
//! * [`faults`] — seeded fault schedules (crashes, drops, delays,
//!   stragglers) consumed by the cluster tier's simulated transport, so
//!   every fault interleaving is replayable from a `(kind, seed)` pair.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bweml;
pub mod dataset;
pub mod faults;
pub mod scans;
pub mod selection;
pub mod shift;
pub mod tpch;

pub use bweml::BwEmlWorkload;
pub use dataset::{paper_table_spec, small_real_table, PAPER_COLUMNS, PAPER_ROWS};
pub use faults::{CrashWindow, FaultKind, FaultSchedule};
pub use scans::ScanWorkload;
pub use selection::ColumnSelection;
pub use shift::{replay_shift, EpochStats, ShiftConfig, ShiftPhase, ShiftReport};
pub use tpch::{
    lineitem_table, q1_request, q6_request, TpchQ1Workload, Q1_OPS_PER_ROW, Q6_OPS_PER_ROW,
};

use numascan_core::{Catalog, PlacedTable, PlacementStrategy, TableSpec};
use numascan_numasim::Topology;

/// Places `spec` on a machine of `topology` with `strategy` and returns a
/// catalog containing it (the common setup step of every experiment).
pub fn build_catalog(
    topology: &Topology,
    spec: &TableSpec,
    strategy: PlacementStrategy,
) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_table(PlacedTable::place(topology, spec, strategy));
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_catalog_places_the_paper_dataset() {
        let spec = paper_table_spec(1_000_000, 16, false);
        let catalog = build_catalog(
            &Topology::four_socket_ivybridge_ex(),
            &spec,
            PlacementStrategy::RoundRobin,
        );
        assert_eq!(catalog.table_count(), 1);
        assert_eq!(catalog.table(0).columns.len(), 17); // ID + 16 payload columns
    }
}
