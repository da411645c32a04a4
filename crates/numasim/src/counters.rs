//! "Hardware" performance counters.
//!
//! The paper reports, for several experiments, metrics gathered from Linux and
//! the Intel Performance Counter Monitor tool: per-socket memory throughput,
//! local vs. remote last-level-cache (LLC) load misses, instructions per cycle
//! (IPC), CPU load, and the total and data-only traffic crossing the QPI
//! interconnect. The simulation engine accumulates the same quantities here so
//! the benchmark harness can print the companion metrics of every figure.

use crate::topology::{SocketId, Topology};

/// Size of a cache line in bytes; every LLC miss transfers one line.
pub const CACHE_LINE_BYTES: f64 = 64.0;

/// Counters attributed to one socket.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SocketCounters {
    /// Bytes served by this socket's memory controllers (to any core).
    pub mc_bytes: f64,
    /// Bytes that cores *of this socket* loaded from local memory.
    pub local_access_bytes: f64,
    /// Bytes that cores *of this socket* loaded from remote memory.
    pub remote_access_bytes: f64,
    /// Scalar operations retired by cores of this socket.
    pub instructions: f64,
    /// Seconds of hardware-context busy time accumulated on this socket.
    pub busy_context_seconds: f64,
}

/// Counters attributed to the interconnect as a whole.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkCounters {
    /// Bytes of payload data moved between sockets.
    pub qpi_data_bytes: f64,
    /// Bytes of total traffic (data + cache coherence) moved between sockets.
    pub qpi_total_bytes: f64,
}

/// The full set of machine counters for one measurement interval.
#[derive(Debug, Clone, PartialEq)]
pub struct HwCounters {
    /// Per-socket counters.
    pub sockets: Vec<SocketCounters>,
    /// Interconnect counters.
    pub links: LinkCounters,
    /// Virtual seconds covered by the measurement.
    pub elapsed_seconds: f64,
    /// Number of hardware contexts of the machine (for CPU-load computation).
    pub total_contexts: usize,
    /// Nominal core frequency in GHz (for the IPC proxy).
    pub frequency_ghz: f64,
}

impl HwCounters {
    /// Creates zeroed counters for a topology.
    pub fn new(topology: &Topology) -> Self {
        HwCounters {
            sockets: vec![SocketCounters::default(); topology.socket_count()],
            links: LinkCounters::default(),
            elapsed_seconds: 0.0,
            total_contexts: topology.total_contexts(),
            frequency_ghz: topology.socket.frequency_ghz,
        }
    }

    /// Resets every counter to zero (keeps the machine shape).
    pub fn reset(&mut self) {
        for s in &mut self.sockets {
            *s = SocketCounters::default();
        }
        self.links = LinkCounters::default();
        self.elapsed_seconds = 0.0;
    }

    /// Records `bytes` streamed by a core on `cpu` from memory on `mem`,
    /// together with the interconnect traffic `(data, total)` it generated.
    pub fn record_access(
        &mut self,
        cpu: SocketId,
        mem: SocketId,
        bytes: f64,
        qpi_data_bytes: f64,
        qpi_total_bytes: f64,
    ) {
        self.sockets[mem.index()].mc_bytes += bytes;
        if cpu == mem {
            self.sockets[cpu.index()].local_access_bytes += bytes;
        } else {
            self.sockets[cpu.index()].remote_access_bytes += bytes;
        }
        self.links.qpi_data_bytes += qpi_data_bytes;
        self.links.qpi_total_bytes += qpi_total_bytes;
    }

    /// Records `ops` scalar operations retired on `cpu`.
    pub fn record_instructions(&mut self, cpu: SocketId, ops: f64) {
        self.sockets[cpu.index()].instructions += ops;
    }

    /// Records `seconds` of busy time on a hardware context of `cpu`.
    pub fn record_busy(&mut self, cpu: SocketId, seconds: f64) {
        self.sockets[cpu.index()].busy_context_seconds += seconds;
    }

    /// Adds another counter snapshot into this one.
    pub fn merge(&mut self, other: &HwCounters) {
        for (a, b) in self.sockets.iter_mut().zip(&other.sockets) {
            a.mc_bytes += b.mc_bytes;
            a.local_access_bytes += b.local_access_bytes;
            a.remote_access_bytes += b.remote_access_bytes;
            a.instructions += b.instructions;
            a.busy_context_seconds += b.busy_context_seconds;
        }
        self.links.qpi_data_bytes += other.links.qpi_data_bytes;
        self.links.qpi_total_bytes += other.links.qpi_total_bytes;
        self.elapsed_seconds += other.elapsed_seconds;
    }

    /// Memory throughput of each socket in GiB/s over the measurement window.
    pub fn memory_throughput_gibs(&self) -> Vec<f64> {
        let gib = (1u64 << 30) as f64;
        self.sockets
            .iter()
            .map(|s| {
                if self.elapsed_seconds > 0.0 {
                    s.mc_bytes / gib / self.elapsed_seconds
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Aggregate memory throughput of the machine in GiB/s.
    pub fn total_memory_throughput_gibs(&self) -> f64 {
        self.memory_throughput_gibs().iter().sum()
    }

    /// Local and remote LLC load misses (counted as one miss per cache line).
    pub fn llc_misses(&self) -> (f64, f64) {
        let local: f64 =
            self.sockets.iter().map(|s| s.local_access_bytes).sum::<f64>() / CACHE_LINE_BYTES;
        let remote: f64 =
            self.sockets.iter().map(|s| s.remote_access_bytes).sum::<f64>() / CACHE_LINE_BYTES;
        (local, remote)
    }

    /// CPU load of the machine in percent: busy context time over available
    /// context time.
    pub fn cpu_load_percent(&self) -> f64 {
        if self.elapsed_seconds <= 0.0 || self.total_contexts == 0 {
            return 0.0;
        }
        let available = self.elapsed_seconds * self.total_contexts as f64;
        let busy: f64 = self.sockets.iter().map(|s| s.busy_context_seconds).sum();
        100.0 * (busy / available).min(1.0)
    }

    /// Instructions-per-cycle proxy: retired operations over busy cycles.
    pub fn ipc(&self) -> f64 {
        let busy: f64 = self.sockets.iter().map(|s| s.busy_context_seconds).sum();
        if busy <= 0.0 {
            return 0.0;
        }
        let cycles = busy * self.frequency_ghz * 1e9;
        let instructions: f64 = self.sockets.iter().map(|s| s.instructions).sum();
        instructions / cycles
    }

    /// Total QPI traffic in bytes (data plus coherence).
    pub fn qpi_total_bytes(&self) -> f64 {
        self.links.qpi_total_bytes
    }

    /// Data-only QPI traffic in bytes.
    pub fn qpi_data_bytes(&self) -> f64 {
        self.links.qpi_data_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> HwCounters {
        HwCounters::new(&Topology::four_socket_ivybridge_ex())
    }

    #[test]
    fn record_access_attributes_to_the_serving_socket() {
        let mut c = counters();
        c.record_access(SocketId(1), SocketId(0), 1000.0, 1000.0, 1100.0);
        assert_eq!(c.sockets[0].mc_bytes, 1000.0);
        assert_eq!(c.sockets[1].remote_access_bytes, 1000.0);
        assert_eq!(c.sockets[1].local_access_bytes, 0.0);
        assert_eq!(c.links.qpi_data_bytes, 1000.0);
        assert_eq!(c.links.qpi_total_bytes, 1100.0);
    }

    #[test]
    fn local_access_counts_as_local_miss() {
        let mut c = counters();
        c.record_access(SocketId(2), SocketId(2), 6400.0, 0.0, 10.0);
        let (local, remote) = c.llc_misses();
        assert_eq!(local, 100.0);
        assert_eq!(remote, 0.0);
    }

    #[test]
    fn memory_throughput_divides_by_elapsed_time() {
        let mut c = counters();
        c.record_access(SocketId(0), SocketId(0), (1u64 << 30) as f64, 0.0, 0.0);
        c.elapsed_seconds = 2.0;
        let tp = c.memory_throughput_gibs();
        assert!((tp[0] - 0.5).abs() < 1e-12);
        assert!((c.total_memory_throughput_gibs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cpu_load_is_busy_over_available() {
        let mut c = counters();
        c.elapsed_seconds = 1.0;
        // 60 of 120 contexts busy for the whole second.
        for _ in 0..60 {
            c.record_busy(SocketId(0), 1.0);
        }
        assert!((c.cpu_load_percent() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn ipc_uses_busy_cycles_only() {
        let mut c = counters();
        c.record_busy(SocketId(0), 1.0);
        c.record_instructions(SocketId(0), 2.5e9);
        c.elapsed_seconds = 10.0;
        assert!((c.ipc() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = counters();
        let mut b = counters();
        a.record_access(SocketId(0), SocketId(0), 100.0, 0.0, 0.0);
        b.record_access(SocketId(0), SocketId(0), 200.0, 0.0, 0.0);
        b.elapsed_seconds = 1.0;
        a.merge(&b);
        assert_eq!(a.sockets[0].mc_bytes, 300.0);
        assert_eq!(a.elapsed_seconds, 1.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut c = counters();
        c.record_access(SocketId(0), SocketId(1), 100.0, 100.0, 120.0);
        c.record_busy(SocketId(0), 1.0);
        c.elapsed_seconds = 5.0;
        c.reset();
        assert_eq!(c.sockets[0].mc_bytes, 0.0);
        assert_eq!(c.qpi_total_bytes(), 0.0);
        assert_eq!(c.elapsed_seconds, 0.0);
    }
}
