//! A complete virtual NUMA machine.
//!
//! [`Machine`] bundles the pieces higher layers need to execute a workload on
//! a modelled server: the [`Topology`], a [`BandwidthSolver`] and
//! [`LatencyModel`] for costing work, and [`HwCounters`] for the observable
//! metrics. Where data lives is recorded by the placement that put it there,
//! not by the machine.

use crate::bandwidth::BandwidthSolver;
use crate::counters::HwCounters;
use crate::latency::LatencyModel;
use crate::topology::Topology;

/// A virtual NUMA machine: topology, cost models and counters.
#[derive(Debug, Clone)]
pub struct Machine {
    topology: Topology,
    bandwidth: BandwidthSolver,
    latency: LatencyModel,
    counters: HwCounters,
}

impl Machine {
    /// Builds a machine for the given topology.
    pub fn new(topology: Topology) -> Self {
        let bandwidth = BandwidthSolver::new(&topology);
        let latency = LatencyModel::new(&topology);
        let counters = HwCounters::new(&topology);
        Machine { topology, bandwidth, latency, counters }
    }

    /// The machine's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The bandwidth contention model.
    pub fn bandwidth(&self) -> &BandwidthSolver {
        &self.bandwidth
    }

    /// The latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// The accumulated hardware counters.
    pub fn counters(&self) -> &HwCounters {
        &self.counters
    }

    /// Mutable access to the hardware counters.
    pub fn counters_mut(&mut self) -> &mut HwCounters {
        &mut self.counters
    }

    /// Resets the counters.
    pub fn reset_measurement(&mut self) {
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::SocketId;

    #[test]
    fn machine_bundles_consistent_components() {
        let m = Machine::new(Topology::four_socket_ivybridge_ex());
        assert_eq!(m.topology().socket_count(), 4);
        assert_eq!(m.bandwidth().socket_count(), 4);
    }

    #[test]
    fn reset_measurement_clears_counters() {
        let mut m = Machine::new(Topology::four_socket_ivybridge_ex());
        m.counters_mut().record_busy(SocketId(0), 1.0);
        m.reset_measurement();
        assert_eq!(m.counters().cpu_load_percent(), 0.0);
    }
}
