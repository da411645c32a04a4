//! NUMA topology descriptions.
//!
//! A [`Topology`] describes the hardware a workload runs on: how many sockets
//! there are, how many cores and hardware contexts each socket has, the local
//! memory bandwidth of each socket's memory controllers, the latency and
//! bandwidth of the interconnect between each pair of sockets, and the cache
//! coherence protocol.
//!
//! Three presets reproduce the machines of Table 1 of the paper:
//!
//! | preset | sockets | local lat | 1-hop lat | max-hop lat | local B/W | 1-hop B/W | max-hop B/W |
//! |--------|---------|-----------|-----------|-------------|-----------|-----------|-------------|
//! | [`Topology::four_socket_ivybridge_ex`]   | 4  | 150 ns | 240 ns | 240 ns | 65 GiB/s   | 8.8 GiB/s  | 8.8 GiB/s |
//! | [`Topology::thirty_two_socket_ivybridge_ex`] | 32 | 112 ns | 193 ns | 500 ns | 47.5 GiB/s | 11.8 GiB/s | 9.8 GiB/s |
//! | [`Topology::eight_socket_westmere_ex`]   | 8  | 163 ns | 195 ns | 245 ns | 19.3 GiB/s | 10.3 GiB/s | 4.6 GiB/s |

/// Identifier of a NUMA socket (a processor package with its own memory
/// controllers and local DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub u16);

impl SocketId {
    /// The socket index as a `usize`, for indexing per-socket vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SocketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0 + 1)
    }
}

/// A hardware context (a hyperthread slot) on which exactly one task can run
/// at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HwContext {
    /// Socket the context belongs to.
    pub socket: SocketId,
    /// Index of the context within its socket (0-based).
    pub local_index: u32,
    /// Global index of the context across the whole machine (0-based).
    pub global_index: u32,
}

/// Cache coherence protocol of the machine.
///
/// The paper observes (Section 6.1.2) that the broadcast-based snooping
/// protocol of the Westmere-EX machine generates coherence traffic on the
/// interconnect even for purely local accesses, which prevents the aggregate
/// local bandwidth from being the sum of per-socket bandwidths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoherenceProtocol {
    /// Directory-based coherence (Ivybridge-EX): coherence traffic is a small
    /// fraction of data traffic and stays mostly off the critical path.
    Directory {
        /// Interconnect load added per byte of data traffic (dimensionless).
        overhead_factor: f64,
    },
    /// Broadcast snooping (Westmere-EX): every memory access broadcasts snoop
    /// traffic over the interconnect of every socket, so local accesses on one
    /// socket consume interconnect capacity everywhere.
    BroadcastSnoop {
        /// Interconnect load added on *every* socket per byte of data traffic.
        snoop_factor: f64,
    },
}

/// A well-known machine shape. Used by the benchmark harness to label results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// The fully interconnected 4-socket Ivybridge-EX server of Figure 2.
    FourSocketIvybridgeEx,
    /// The 8-socket Westmere-EX server (2 × IBM x3950 X5).
    EightSocketWestmereEx,
    /// The 32-socket SGI UV 300 rack-scale server.
    ThirtyTwoSocketIvybridgeEx,
    /// A user-defined topology.
    Custom,
}

/// Description of the per-socket hardware resources.
#[derive(Debug, Clone, PartialEq)]
pub struct SocketSpec {
    /// Physical cores per socket.
    pub cores: u32,
    /// Hardware threads per core (2 for hyperthreaded Xeons).
    pub threads_per_core: u32,
    /// Aggregate local DRAM bandwidth of the socket's memory controllers, GiB/s.
    pub local_bandwidth_gibs: f64,
    /// Modelled DRAM capacity of the socket in GiB.
    pub memory_gib: f64,
    /// Maximum streaming bandwidth a single hardware context can consume, GiB/s.
    ///
    /// A single core cannot saturate the socket's memory controllers by
    /// itself; several concurrent streams are needed. This caps a task's
    /// individual share.
    pub per_context_stream_gibs: f64,
    /// Scalar "operations" per second one hardware context retires when
    /// CPU-bound (used for compute-dominated work such as aggregation
    /// arithmetic or dictionary binary search).
    pub context_ops_per_sec: f64,
    /// Memory-level parallelism: number of outstanding cache misses a single
    /// context sustains for latency-bound (random access) work.
    pub memory_level_parallelism: f64,
    /// Nominal clock frequency in GHz (used only for the IPC counter proxy).
    pub frequency_ghz: f64,
}

impl SocketSpec {
    /// Hardware contexts per socket.
    pub fn contexts(&self) -> u32 {
        self.cores * self.threads_per_core
    }
}

/// Latency and per-pair interconnect bandwidth as a function of hop distance.
#[derive(Debug, Clone, PartialEq)]
pub struct HopProfile {
    /// Idle latency of a local access, nanoseconds.
    pub local_latency_ns: f64,
    /// Idle latency of a one-hop remote access, nanoseconds.
    pub one_hop_latency_ns: f64,
    /// Idle latency of a maximum-distance remote access, nanoseconds.
    pub max_hop_latency_ns: f64,
    /// Peak bandwidth between adjacent sockets, GiB/s.
    pub one_hop_bandwidth_gibs: f64,
    /// Peak bandwidth between maximally distant sockets, GiB/s.
    pub max_hop_bandwidth_gibs: f64,
}

/// A complete machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Human-readable name of the machine.
    pub name: String,
    /// Which preset (if any) this topology corresponds to.
    pub kind: TopologyKind,
    /// Per-socket hardware resources (homogeneous across sockets).
    pub socket: SocketSpec,
    /// Number of sockets.
    pub sockets: usize,
    /// Hop-distance matrix between sockets (0 on the diagonal).
    pub hops: Vec<Vec<u8>>,
    /// Latency/bandwidth profile by hop distance.
    pub profile: HopProfile,
    /// Total interconnect (QPI) capacity of one socket, GiB/s, shared by all
    /// remote traffic entering or leaving that socket plus coherence traffic.
    pub socket_interconnect_gibs: f64,
    /// Cache coherence protocol.
    pub coherence: CoherenceProtocol,
    /// Fixed scheduling/dispatch overhead per task, in microseconds of CPU
    /// time on the worker that picks the task up. This models the cost the
    /// paper attributes to "splitting an operation into all partitions".
    pub task_overhead_us: f64,
    /// Additional memory-controller load caused by serving a *remote* request
    /// instead of a local one (dimensionless, e.g. 0.5 = a remote byte costs
    /// 1.5 bytes of controller capacity). This models the paper's observation
    /// that "remote accesses to these sockets prevent some local accesses from
    /// queuing in the memory controllers fast" (Section 6.2.1).
    pub remote_mc_penalty: f64,
}

impl Topology {
    /// The 4-socket Intel Xeon E7-4880 v2 (Ivybridge-EX) server of Figure 2 /
    /// Table 1, fully interconnected with 3 QPI links per socket.
    pub fn four_socket_ivybridge_ex() -> Self {
        let sockets = 4;
        Topology {
            name: "4-socket Ivybridge-EX (Intel Xeon E7-4880 v2)".to_string(),
            kind: TopologyKind::FourSocketIvybridgeEx,
            socket: SocketSpec {
                cores: 15,
                threads_per_core: 2,
                local_bandwidth_gibs: 65.0,
                memory_gib: 256.0,
                per_context_stream_gibs: 6.0,
                context_ops_per_sec: 2.5e9,
                memory_level_parallelism: 2.0,
                frequency_ghz: 2.5,
            },
            sockets,
            hops: fully_connected_hops(sockets),
            profile: HopProfile {
                local_latency_ns: 150.0,
                one_hop_latency_ns: 240.0,
                max_hop_latency_ns: 240.0,
                one_hop_bandwidth_gibs: 8.8,
                max_hop_bandwidth_gibs: 8.8,
            },
            // 3 QPI links per socket; each link carries ~8.8 GiB/s of data
            // requests once coherence overhead is accounted for.
            socket_interconnect_gibs: 3.0 * 8.8,
            coherence: CoherenceProtocol::Directory { overhead_factor: 0.10 },
            task_overhead_us: 150.0,
            remote_mc_penalty: 0.5,
        }
    }

    /// The 8-socket Westmere-EX server (2 × IBM x3950 X5, Intel Xeon E7-8870)
    /// of Table 1, with a broadcast-based snooping coherence protocol.
    pub fn eight_socket_westmere_ex() -> Self {
        let sockets = 8;
        Topology {
            name: "8-socket Westmere-EX (Intel Xeon E7-8870, 2x IBM x3950 X5)".to_string(),
            kind: TopologyKind::EightSocketWestmereEx,
            socket: SocketSpec {
                cores: 10,
                threads_per_core: 2,
                local_bandwidth_gibs: 19.3,
                memory_gib: 128.0,
                per_context_stream_gibs: 4.0,
                context_ops_per_sec: 2.4e9,
                memory_level_parallelism: 2.0,
                frequency_ghz: 2.4,
            },
            sockets,
            // Two glued 4-socket boxes: sockets 0-3 and 4-7 are each fully
            // connected; crossing the box boundary costs an extra hop.
            hops: two_box_hops(sockets, 4),
            profile: HopProfile {
                local_latency_ns: 163.0,
                one_hop_latency_ns: 195.0,
                max_hop_latency_ns: 245.0,
                one_hop_bandwidth_gibs: 10.3,
                max_hop_bandwidth_gibs: 4.6,
            },
            socket_interconnect_gibs: 2.0 * 10.3,
            // Calibrated so that the aggregate local bandwidth of the machine
            // saturates around 96 GiB/s (Table 1) instead of 8 x 19.3 GiB/s:
            // with 160 streaming contexts, snoop traffic saturates the
            // per-socket interconnect at ~0.6 GiB/s per stream.
            coherence: CoherenceProtocol::BroadcastSnoop { snoop_factor: 0.215 },
            task_overhead_us: 150.0,
            remote_mc_penalty: 0.5,
        }
    }

    /// The 32-socket SGI UV 300 rack-scale server (Intel Xeon E7-8890 v2,
    /// Ivybridge-EX) of Table 1, with a multi-hop NUMAlink-style topology.
    pub fn thirty_two_socket_ivybridge_ex() -> Self {
        let sockets = 32;
        Topology {
            name: "32-socket Ivybridge-EX (SGI UV 300, Intel Xeon E7-8890 v2)".to_string(),
            kind: TopologyKind::ThirtyTwoSocketIvybridgeEx,
            socket: SocketSpec {
                cores: 15,
                threads_per_core: 2,
                local_bandwidth_gibs: 47.5,
                memory_gib: 768.0,
                per_context_stream_gibs: 5.0,
                context_ops_per_sec: 2.8e9,
                memory_level_parallelism: 2.0,
                frequency_ghz: 2.8,
            },
            sockets,
            // Groups of 4 sockets form fully connected blades; blades are
            // connected through a NUMAlink fabric that adds hops with
            // distance between blades (1 extra hop per 8-blade "quadrant").
            hops: blade_hops(sockets, 4),
            profile: HopProfile {
                local_latency_ns: 112.0,
                one_hop_latency_ns: 193.0,
                max_hop_latency_ns: 500.0,
                one_hop_bandwidth_gibs: 11.8,
                max_hop_bandwidth_gibs: 9.8,
            },
            socket_interconnect_gibs: 3.0 * 11.8,
            coherence: CoherenceProtocol::Directory { overhead_factor: 0.10 },
            task_overhead_us: 150.0,
            remote_mc_penalty: 0.5,
        }
    }

    /// Splits the 32-socket machine in half, as the paper does for the BW-EML
    /// experiment (16 sockets host the database server).
    pub fn sixteen_socket_ivybridge_ex() -> Self {
        let mut t = Self::thirty_two_socket_ivybridge_ex();
        t.sockets = 16;
        t.hops = blade_hops(16, 4);
        t.name = "16-socket Ivybridge-EX (half SGI UV 300)".to_string();
        t.kind = TopologyKind::Custom;
        t
    }

    /// A custom topology with `sockets` identical sockets, fully
    /// interconnected, useful for tests.
    pub fn custom_uniform(sockets: usize, socket: SocketSpec, profile: HopProfile) -> Self {
        let interconnect = profile.one_hop_bandwidth_gibs * 3.0;
        Topology {
            name: format!("custom {sockets}-socket machine"),
            kind: TopologyKind::Custom,
            socket,
            sockets,
            hops: fully_connected_hops(sockets),
            profile,
            socket_interconnect_gibs: interconnect,
            coherence: CoherenceProtocol::Directory { overhead_factor: 0.10 },
            task_overhead_us: 150.0,
            remote_mc_penalty: 0.5,
        }
    }

    /// Number of sockets.
    pub fn socket_count(&self) -> usize {
        self.sockets
    }

    /// All socket ids of the machine.
    pub fn socket_ids(&self) -> impl Iterator<Item = SocketId> + '_ {
        (0..self.sockets as u16).map(SocketId)
    }

    /// Total number of hardware contexts in the machine.
    pub fn total_contexts(&self) -> usize {
        self.sockets * self.socket.contexts() as usize
    }

    /// Hardware contexts of one socket.
    pub fn contexts_per_socket(&self) -> usize {
        self.socket.contexts() as usize
    }

    /// Enumerates every hardware context of the machine.
    pub fn hw_contexts(&self) -> Vec<HwContext> {
        let per_socket = self.socket.contexts();
        let mut out = Vec::with_capacity(self.total_contexts());
        let mut global = 0;
        for s in 0..self.sockets as u16 {
            for local in 0..per_socket {
                out.push(HwContext {
                    socket: SocketId(s),
                    local_index: local,
                    global_index: global,
                });
                global += 1;
            }
        }
        out
    }

    /// Hop distance between two sockets (0 when they are the same socket).
    pub fn hop_distance(&self, from: SocketId, to: SocketId) -> u8 {
        self.hops[from.index()][to.index()]
    }

    /// Maximum hop distance in the machine.
    pub fn max_hops(&self) -> u8 {
        self.hops.iter().flat_map(|row| row.iter().copied()).max().unwrap_or(0)
    }

    /// Idle access latency in nanoseconds from a core on `from` to memory on
    /// `to`, interpolated by hop distance as in Table 1.
    pub fn access_latency_ns(&self, from: SocketId, to: SocketId) -> f64 {
        let hops = self.hop_distance(from, to);
        self.latency_for_hops(hops)
    }

    /// Idle access latency in nanoseconds for a given hop distance.
    pub fn latency_for_hops(&self, hops: u8) -> f64 {
        let max = self.max_hops().max(1);
        match hops {
            0 => self.profile.local_latency_ns,
            1 => self.profile.one_hop_latency_ns,
            h => {
                // Linear interpolation between the 1-hop and max-hop latency.
                let frac = (h as f64 - 1.0) / (max as f64 - 1.0).max(1.0);
                self.profile.one_hop_latency_ns
                    + frac * (self.profile.max_hop_latency_ns - self.profile.one_hop_latency_ns)
            }
        }
    }

    /// Peak point-to-point bandwidth in GiB/s between two distinct sockets.
    pub fn pair_bandwidth_gibs(&self, from: SocketId, to: SocketId) -> f64 {
        let hops = self.hop_distance(from, to);
        self.pair_bandwidth_for_hops(hops)
    }

    /// Peak point-to-point bandwidth in GiB/s for a given hop distance.
    pub fn pair_bandwidth_for_hops(&self, hops: u8) -> f64 {
        let max = self.max_hops().max(1);
        match hops {
            0 => self.socket.local_bandwidth_gibs,
            1 => self.profile.one_hop_bandwidth_gibs,
            h => {
                let frac = (h as f64 - 1.0) / (max as f64 - 1.0).max(1.0);
                self.profile.one_hop_bandwidth_gibs
                    + frac
                        * (self.profile.max_hop_bandwidth_gibs
                            - self.profile.one_hop_bandwidth_gibs)
            }
        }
    }

    /// Aggregate local memory bandwidth of the whole machine, GiB/s
    /// (the "Total local B/W" row of Table 1, before coherence effects).
    pub fn total_local_bandwidth_gibs(&self) -> f64 {
        self.socket.local_bandwidth_gibs * self.sockets as f64
    }

    /// Summary row as reported in Table 1 of the paper:
    /// `(local latency, 1-hop latency, max-hop latency, local B/W, 1-hop B/W,
    /// max-hop B/W, total local B/W)`.
    pub fn table1_row(&self) -> (f64, f64, f64, f64, f64, f64, f64) {
        (
            self.profile.local_latency_ns,
            self.profile.one_hop_latency_ns,
            self.profile.max_hop_latency_ns,
            self.socket.local_bandwidth_gibs,
            self.profile.one_hop_bandwidth_gibs,
            self.profile.max_hop_bandwidth_gibs,
            self.total_local_bandwidth_gibs(),
        )
    }
}

/// Hop matrix for a fully interconnected machine: 1 hop between any two
/// distinct sockets.
fn fully_connected_hops(sockets: usize) -> Vec<Vec<u8>> {
    (0..sockets).map(|i| (0..sockets).map(|j| u8::from(i != j)).collect()).collect()
}

/// Hop matrix for two glued boxes of `box_size` sockets each: 1 hop within a
/// box, 2 hops across boxes.
fn two_box_hops(sockets: usize, box_size: usize) -> Vec<Vec<u8>> {
    (0..sockets)
        .map(|i| {
            (0..sockets)
                .map(|j| {
                    if i == j {
                        0
                    } else if i / box_size == j / box_size {
                        1
                    } else {
                        2
                    }
                })
                .collect()
        })
        .collect()
}

/// Hop matrix for a blade-based rack-scale machine: sockets within a blade of
/// `blade_size` are 1 hop apart; blades within the same group of 8 sockets are
/// 2 hops apart; further blades add one hop per doubling of the distance.
fn blade_hops(sockets: usize, blade_size: usize) -> Vec<Vec<u8>> {
    (0..sockets)
        .map(|i| {
            (0..sockets)
                .map(|j| {
                    if i == j {
                        return 0;
                    }
                    let bi = i / blade_size;
                    let bj = j / blade_size;
                    if bi == bj {
                        1
                    } else {
                        // Distance in the fabric grows with the blade index
                        // difference: neighbouring blades 2 hops, then 3, 4 ...
                        let d = bi.abs_diff(bj);
                        (2 + d.ilog2()) as u8
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_socket_matches_table1() {
        let t = Topology::four_socket_ivybridge_ex();
        let (l0, l1, lmax, b0, b1, bmax, total) = t.table1_row();
        assert_eq!(l0, 150.0);
        assert_eq!(l1, 240.0);
        assert_eq!(lmax, 240.0);
        assert_eq!(b0, 65.0);
        assert_eq!(b1, 8.8);
        assert_eq!(bmax, 8.8);
        assert_eq!(total, 260.0);
        assert_eq!(t.socket_count(), 4);
        assert_eq!(t.total_contexts(), 4 * 30);
        assert_eq!(t.max_hops(), 1);
    }

    #[test]
    fn eight_socket_matches_table1() {
        let t = Topology::eight_socket_westmere_ex();
        let (l0, l1, lmax, b0, b1, bmax, total) = t.table1_row();
        assert_eq!(l0, 163.0);
        assert_eq!(l1, 195.0);
        assert_eq!(lmax, 245.0);
        assert_eq!(b0, 19.3);
        assert_eq!(b1, 10.3);
        assert_eq!(bmax, 4.6);
        assert!((total - 154.4).abs() < 1e-9);
        assert!(matches!(t.coherence, CoherenceProtocol::BroadcastSnoop { .. }));
        assert_eq!(t.max_hops(), 2);
    }

    #[test]
    fn thirty_two_socket_matches_table1() {
        let t = Topology::thirty_two_socket_ivybridge_ex();
        let (l0, l1, lmax, b0, b1, bmax, total) = t.table1_row();
        assert_eq!(l0, 112.0);
        assert_eq!(l1, 193.0);
        assert_eq!(lmax, 500.0);
        assert_eq!(b0, 47.5);
        assert_eq!(b1, 11.8);
        assert_eq!(bmax, 9.8);
        assert_eq!(total, 1520.0);
        assert_eq!(t.socket_count(), 32);
        assert!(t.max_hops() >= 3, "rack-scale machine must have multiple hops");
    }

    #[test]
    fn hop_matrix_is_symmetric_with_zero_diagonal() {
        for t in [
            Topology::four_socket_ivybridge_ex(),
            Topology::eight_socket_westmere_ex(),
            Topology::thirty_two_socket_ivybridge_ex(),
        ] {
            for i in 0..t.sockets {
                assert_eq!(t.hops[i][i], 0);
                for j in 0..t.sockets {
                    assert_eq!(t.hops[i][j], t.hops[j][i], "{} {} {}", t.name, i, j);
                }
            }
        }
    }

    #[test]
    fn latency_monotonically_increases_with_hops() {
        let t = Topology::thirty_two_socket_ivybridge_ex();
        let mut prev = 0.0;
        for h in 0..=t.max_hops() {
            let lat = t.latency_for_hops(h);
            assert!(lat >= prev, "latency must not decrease with hops");
            prev = lat;
        }
        assert_eq!(t.latency_for_hops(0), 112.0);
        assert_eq!(t.latency_for_hops(t.max_hops()), 500.0);
    }

    #[test]
    fn remote_bandwidth_is_an_order_of_magnitude_below_local() {
        // Section 2: "The inter-socket bandwidth decreases by an order of
        // magnitude with multiple hops."
        let t = Topology::four_socket_ivybridge_ex();
        let local = t.pair_bandwidth_for_hops(0);
        let remote = t.pair_bandwidth_for_hops(1);
        assert!(local / remote > 5.0);
    }

    #[test]
    fn remote_access_latency_is_at_least_30_percent_slower() {
        // Section 2: max hop latency is >30% slower than local on the 4- and
        // 8-socket machines, and around 5x slower on the 32-socket one.
        let t4 = Topology::four_socket_ivybridge_ex();
        assert!(t4.latency_for_hops(t4.max_hops()) / t4.latency_for_hops(0) > 1.3);
        let t8 = Topology::eight_socket_westmere_ex();
        assert!(t8.latency_for_hops(t8.max_hops()) / t8.latency_for_hops(0) > 1.3);
        let t32 = Topology::thirty_two_socket_ivybridge_ex();
        assert!(t32.latency_for_hops(t32.max_hops()) / t32.latency_for_hops(0) > 4.0);
    }

    #[test]
    fn hw_contexts_enumeration_is_dense_and_ordered() {
        let t = Topology::four_socket_ivybridge_ex();
        let ctxs = t.hw_contexts();
        assert_eq!(ctxs.len(), t.total_contexts());
        for (i, c) in ctxs.iter().enumerate() {
            assert_eq!(c.global_index as usize, i);
            assert_eq!(c.socket.index(), i / t.contexts_per_socket());
        }
    }

    #[test]
    fn sixteen_socket_half_machine() {
        let t = Topology::sixteen_socket_ivybridge_ex();
        assert_eq!(t.socket_count(), 16);
        assert_eq!(t.hops.len(), 16);
    }

    #[test]
    fn blade_hops_grow_with_distance() {
        let hops = blade_hops(32, 4);
        assert_eq!(hops[0][1], 1); // same blade
        assert_eq!(hops[0][4], 2); // neighbouring blade
        assert!(hops[0][31] > hops[0][4]); // far blade
    }
}
