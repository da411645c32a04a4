//! Latency-bound (random access) cost model.
//!
//! Streaming scans are bandwidth-bound, but two of the paper's execution
//! phases are dominated by *random* accesses instead: index lookups (the IX is
//! walked value by value) and output materialization (each qualifying position
//! triggers a dependent load into the dictionary). Such work is governed by
//! access latency and the amount of memory-level parallelism a core sustains,
//! not by peak bandwidth.

use crate::topology::{SocketId, Topology};

/// Where the target of a random access lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessTarget {
    /// All accesses hit memory of a single socket.
    Socket(SocketId),
    /// Accesses are spread uniformly over the memory of several sockets
    /// (an interleaved allocation, as used by IVP for the dictionary and IX).
    Interleaved(Vec<SocketId>),
}

impl AccessTarget {
    /// The sockets the accesses may hit.
    pub fn sockets(&self) -> &[SocketId] {
        match self {
            AccessTarget::Socket(s) => std::slice::from_ref(s),
            AccessTarget::Interleaved(v) => v.as_slice(),
        }
    }
}

/// Latency model derived from a [`Topology`].
#[derive(Debug, Clone)]
pub struct LatencyModel {
    latencies_ns: Vec<Vec<f64>>,
    mlp: f64,
}

impl LatencyModel {
    /// Builds the model for a topology.
    pub fn new(topology: &Topology) -> Self {
        let n = topology.socket_count();
        let mut latencies_ns = vec![vec![0.0; n]; n];
        for (i, row) in latencies_ns.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = topology.access_latency_ns(SocketId(i as u16), SocketId(j as u16));
            }
        }
        LatencyModel { latencies_ns, mlp: topology.socket.memory_level_parallelism }
    }

    /// Idle latency (ns) of an access from a core on `cpu` to memory on `mem`.
    pub fn latency_ns(&self, cpu: SocketId, mem: SocketId) -> f64 {
        self.latencies_ns[cpu.index()][mem.index()]
    }

    /// Average latency (ns) of an access from `cpu` to the given target.
    pub fn average_latency_ns(&self, cpu: SocketId, target: &AccessTarget) -> f64 {
        let sockets = target.sockets();
        if sockets.is_empty() {
            return 0.0;
        }
        sockets.iter().map(|m| self.latency_ns(cpu, *m)).sum::<f64>() / sockets.len() as f64
    }

    /// Time in seconds for one hardware context on `cpu` to perform `count`
    /// independent random accesses against `target`, assuming the context
    /// sustains `mlp` outstanding misses.
    pub fn random_access_seconds(&self, cpu: SocketId, target: &AccessTarget, count: f64) -> f64 {
        if count <= 0.0 {
            return 0.0;
        }
        let avg_ns = self.average_latency_ns(cpu, target);
        count * avg_ns * 1e-9 / self.mlp
    }

    /// The modelled memory-level parallelism.
    pub fn memory_level_parallelism(&self) -> f64 {
        self.mlp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_accesses_are_faster_than_remote() {
        let t = Topology::four_socket_ivybridge_ex();
        let m = LatencyModel::new(&t);
        let local = m.random_access_seconds(SocketId(0), &AccessTarget::Socket(SocketId(0)), 1e6);
        let remote = m.random_access_seconds(SocketId(0), &AccessTarget::Socket(SocketId(1)), 1e6);
        assert!(remote > local);
        assert!((remote / local - 240.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn interleaved_target_averages_latency() {
        let t = Topology::four_socket_ivybridge_ex();
        let m = LatencyModel::new(&t);
        let all: Vec<SocketId> = (0..4).map(SocketId).collect();
        let avg = m.average_latency_ns(SocketId(0), &AccessTarget::Interleaved(all));
        // 1 local (150 ns) + 3 remote (240 ns) averaged.
        let expected = (150.0 + 3.0 * 240.0) / 4.0;
        assert!((avg - expected).abs() < 1e-9);
    }

    #[test]
    fn access_rate_scales_with_mlp() {
        let t = Topology::four_socket_ivybridge_ex();
        let m = LatencyModel::new(&t);
        let seconds = m.random_access_seconds(SocketId(0), &AccessTarget::Socket(SocketId(0)), 1e6);
        let expected = 1e6 * 150e-9 / t.socket.memory_level_parallelism;
        assert!((seconds - expected).abs() / seconds < 1e-9);
        assert_eq!(m.memory_level_parallelism(), t.socket.memory_level_parallelism);
    }

    #[test]
    fn zero_count_costs_nothing() {
        let t = Topology::four_socket_ivybridge_ex();
        let m = LatencyModel::new(&t);
        assert_eq!(
            m.random_access_seconds(SocketId(0), &AccessTarget::Socket(SocketId(0)), 0.0),
            0.0
        );
    }
}
