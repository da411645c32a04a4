//! The four workloads: which table, which engine, which seeded statements.
//!
//! Every workload runs the same three statement classes — plain scans, the
//! Q6 shape (one global `SUM` under a selective filter) and the Q1 shape
//! (five functions grouped by a small dictionary under a wide filter) — so
//! every end-to-end latency metric exists on every workload; what differs is
//! the route the statements take through the layers.

use std::time::Instant;

use crate::adapter::{shift_requests, Data, Request};

/// A statement's class; latency percentiles are reported per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A plain scan returning the matching values.
    Scan,
    /// One global `SUM` under a selective filter.
    Q6,
    /// Five functions grouped by a small dictionary under a wide filter.
    Q1,
    /// A row count through `Cluster::count`.
    Count,
}

/// One generated statement.
#[derive(Debug, Clone)]
pub struct Statement {
    /// Its class.
    pub class: Class,
    /// What is sent.
    pub request: Request,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client; every statement takes the private task-splitting path.
    SoloMix,
    /// Two clients on one hot column; statements share sweeps.
    HotMix,
    /// One coordinator over a lossy simulated network.
    ClusterDrop,
    /// One client while the hot columns shift and the placer reorganizes.
    ShiftReorg,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::SoloMix, Workload::HotMix, Workload::ClusterDrop, Workload::ShiftReorg];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloMix => "solo_mix",
            Workload::HotMix => "hot_mix",
            Workload::ClusterDrop => "cluster_drop",
            Workload::ShiftReorg => "shift_reorg",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Load-generating threads (never more than the box's two cores).
    pub fn clients(self) -> usize {
        match self {
            Workload::SoloMix | Workload::ClusterDrop | Workload::ShiftReorg => 1,
            Workload::HotMix => 2,
        }
    }

    /// Rows of the workload's table at `sizes`.
    pub fn rows(self, sizes: &Sizes) -> usize {
        match self {
            Workload::SoloMix | Workload::HotMix => sizes.lineitem_rows,
            Workload::ClusterDrop => sizes.cluster_rows,
            Workload::ShiftReorg => sizes.shift_rows,
        }
    }

    /// The columns the ladder's probes run on.
    pub fn roles(self) -> Roles {
        match self {
            Workload::ShiftReorg => Roles { wide: "u17", hot: "u12", sorted: "runs" },
            _ => Roles { wide: "l_extendedprice", hot: "l_shipdate", sorted: "l_orderkey" },
        }
    }

    /// Generates the workload's table from `seed`.
    pub fn generate(self, sizes: &Sizes, seed: u64) -> Data {
        match self {
            Workload::ShiftReorg => shift_table(sizes.shift_rows, seed),
            _ => Data::lineitem(self.rows(sizes), seed),
        }
    }
}

/// Which of a table's columns each ladder probe runs on.
#[derive(Debug, Clone, Copy)]
pub struct Roles {
    /// The widest bit-packed column (single-predicate scan probes).
    pub wide: &'static str,
    /// The column concurrent statements crowd on (batched scan probes).
    pub hot: &'static str,
    /// A sorted or long-run column (run-length and relayout probes).
    pub sorted: &'static str,
}

/// Everything that scales a run. [`Sizes::full`] is what `BENCHMARK.json`
/// measures; [`Sizes::smoke`] is the 100 k-row shape the unit tests run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Rows of the `solo_mix` / `hot_mix` table.
    pub lineitem_rows: usize,
    /// Rows of the `cluster_drop` table (split over three shards).
    pub cluster_rows: usize,
    /// Rows of the `shift_reorg` table.
    pub shift_rows: usize,
    /// Statements per `ShiftConfig` stream per epoch of a shift cycle.
    pub shift_per_client: usize,
    /// Distinct statements in a lineitem workload's script (clients wrap).
    pub script_len: usize,
    /// Statements of the script a traced run replays.
    pub trace_prefix: usize,
    /// Rows of the table slice the cluster rung of the ladder shards.
    pub cluster_probe_rows: usize,
    /// Seconds of closed-loop warm-up before measuring starts.
    pub warmup_s: f64,
    /// Times the table and engine are set up; `setup_s` is their median.
    pub setups: usize,
    /// Bytes the roofline sum reads.
    pub roofline_bytes: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` is measured at.
    pub fn full() -> Sizes {
        Sizes {
            lineitem_rows: 2_000_000,
            cluster_rows: 600_000,
            shift_rows: 1_000_000,
            shift_per_client: 50,
            script_len: 120,
            trace_prefix: 400,
            cluster_probe_rows: 200_000,
            warmup_s: 1.5,
            setups: 3,
            roofline_bytes: 64 << 20,
        }
    }

    /// A 100 k-row shape that runs every code path in about a second.
    #[cfg(test)]
    pub fn smoke() -> Sizes {
        Sizes {
            lineitem_rows: 100_000,
            cluster_rows: 100_000,
            shift_rows: 100_000,
            shift_per_client: 25,
            script_len: 60,
            trace_prefix: 60,
            cluster_probe_rows: 30_000,
            warmup_s: 0.1,
            setups: 1,
            roofline_bytes: 4 << 20,
        }
    }
}

/// SplitMix64: the benchmark's own statement generator, so the script of a
/// seed does not change when the repository's `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi` (modulo bias is irrelevant at these spans).
    pub fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The `shift_reorg` table: a sorted `id`, uniform `u08` / `u12` / `u17`
/// (8, 12 and 17 bits wide), and the long-run `runs` (= row / 512 mod 1000),
/// the one column a run-length layout suits.
fn shift_table(rows: usize, seed: u64) -> Data {
    let mut rng = SplitMix64::new(seed ^ 0x5817_F7AB);
    let mut uniform = |bits: u32| -> Vec<i64> {
        (0..rows).map(|_| (rng.next_u64() >> (64 - bits)) as i64).collect()
    };
    let columns = vec![
        ("id".to_string(), (0..rows as i64).collect()),
        ("u08".to_string(), uniform(8)),
        ("u12".to_string(), uniform(12)),
        ("u17".to_string(), uniform(17)),
        ("runs".to_string(), (0..rows as i64).map(|row| row / 512 % 1000).collect()),
    ];
    Data::from_columns("shift_tbl", &columns)
}

/// The hot column sets of a shift cycle's four phases, in order. Each phase
/// lasts [`SHIFT_EPOCHS_PER_PHASE`] epochs.
pub const SHIFT_PHASES: [&[&str]; 4] = [&["u08"], &["u12"], &["runs"], &["u17", "u08"]];

/// Epochs per shift phase; the placer steps once after every epoch.
pub const SHIFT_EPOCHS_PER_PHASE: usize = 3;

/// A closed-loop script: the statements clients walk through, wrapping.
#[derive(Debug, Clone)]
pub struct Script {
    /// The statements, in script order. Client `c` of `n` sends statements
    /// `c`, `c + n`, `c + 2n`, … and wraps around at the end.
    pub statements: Vec<Statement>,
    /// Seconds generating them took (the generator timed alone).
    pub generation_s: f64,
}

/// The fixed work of one shift cycle; every cycle replays the same
/// statements, so cycles are equal blocks of work.
#[derive(Debug, Clone)]
pub struct ShiftScript {
    /// Every statement of a cycle.
    pub statements: Vec<Statement>,
    /// The cycle's epochs, in order: the range of `statements` the client
    /// sends before the placer steps.
    pub epochs: Vec<std::ops::Range<usize>>,
    /// Seconds generating them took.
    pub generation_s: f64,
}

/// Shares of a lineitem script in twentieths: scans, Q6, Q1, counts.
fn class_mix(workload: Workload) -> [(Class, usize); 4] {
    match workload {
        Workload::ClusterDrop => {
            [(Class::Scan, 11), (Class::Q6, 5), (Class::Q1, 2), (Class::Count, 2)]
        }
        _ => [(Class::Scan, 16), (Class::Q6, 3), (Class::Q1, 1), (Class::Count, 0)],
    }
}

/// Generates the closed-loop script of a lineitem workload.
///
/// The class mix is exact over the script (it is dealt, then shuffled, not
/// drawn per statement), so every seed sends the same number of Q1s.
pub fn lineitem_script(workload: Workload, data: &Data, sizes: &Sizes, seed: u64) -> Script {
    let started = Instant::now();
    let mut rng = SplitMix64::new(seed ^ 0x11E1_7E3D);
    let rows = data.rows() as i64;
    let (price_lo, price_hi) = data.value_bounds("l_extendedprice");
    let price_width = (price_hi - price_lo) / 100;
    let (ship_lo, ship_hi) = data.value_bounds("l_shipdate");
    let order_width = (rows / 4 / 100).max(1);

    let mut classes: Vec<Class> = Vec::with_capacity(sizes.script_len);
    for slot in 0..sizes.script_len {
        let mut twentieth = slot % 20;
        for (class, share) in class_mix(workload) {
            if twentieth < share {
                classes.push(class);
                break;
            }
            twentieth -= share;
        }
    }
    rng.shuffle(&mut classes);

    let mut scans = 0usize;
    let statements = classes
        .into_iter()
        .map(|class| {
            let request = match class {
                Class::Q6 => Request::tpch_q6(),
                Class::Q1 => Request::tpch_q1(),
                // One year of ship dates.
                Class::Count => {
                    let lo = rng.in_range(ship_lo, ship_hi - 364);
                    Request::between("l_shipdate", lo, lo + 364).counting()
                }
                Class::Scan if workload == Workload::HotMix => {
                    // Seven days of the one hot column.
                    let lo = rng.in_range(ship_lo, ship_hi - 6);
                    Request::between("l_shipdate", lo, lo + 6)
                }
                Class::Scan => {
                    scans += 1;
                    match scans % 5 {
                        // One-fifth: eight ship dates.
                        0 => Request::in_list(
                            "l_shipdate",
                            (0..8).map(|_| rng.in_range(ship_lo, ship_hi)).collect(),
                        ),
                        // One-fifth: 1 % of the sorted order keys, which the
                        // zone map (and the cluster's shard zones) prune.
                        1 => {
                            let lo = rng.in_range(0, rows / 4 - order_width);
                            Request::between("l_orderkey", lo, lo + order_width - 1)
                        }
                        // Three-fifths: 1 % of the price domain.
                        _ => {
                            let lo = rng.in_range(price_lo, price_hi - price_width);
                            Request::between("l_extendedprice", lo, lo + price_width)
                        }
                    }
                }
            };
            Statement { class, request }
        })
        .collect();
    Script { statements, generation_s: started.elapsed().as_secs_f64() }
}

/// Request streams of `ShiftConfig` (its "clients") an epoch sends, one after
/// the other.
const SHIFT_STREAMS: usize = 2;

/// Generates the fixed work of one shift cycle: four phases × three epochs ×
/// two streams of `sizes.shift_per_client` statements from
/// `ShiftConfig::client_requests`, where in every block of 25 statements one
/// becomes the Q1 shape and two the Q6 shape over the same hot column.
pub fn shift_script(sizes: &Sizes, seed: u64) -> ShiftScript {
    let started = Instant::now();
    let mut statements = Vec::new();
    let mut epochs = Vec::new();
    for (phase, hot) in SHIFT_PHASES.iter().enumerate() {
        for e in 0..SHIFT_EPOCHS_PER_PHASE {
            let epoch = phase * SHIFT_EPOCHS_PER_PHASE + e;
            let first = statements.len();
            for stream in 0..SHIFT_STREAMS {
                let requests =
                    shift_requests(seed, hot, phase, epoch, stream, sizes.shift_per_client);
                for (q, request) in requests.into_iter().enumerate() {
                    let column = request.column().to_string();
                    let statement = match q % 25 {
                        // The Q1 shape: a wide filter (nine tenths of the
                        // generated predicate domain), grouped by `u08`.
                        12 => Statement {
                            class: Class::Q1,
                            request: Request::between(&column, 0, 224).grouping(&column, "u08"),
                        },
                        // The Q6 shape over the statement's own filter.
                        3 | 16 => Statement { class: Class::Q6, request: request.summing(&column) },
                        _ => Statement { class: Class::Scan, request },
                    };
                    statements.push(statement);
                }
            }
            epochs.push(first..statements.len());
        }
    }
    ShiftScript { statements, epochs, generation_s: started.elapsed().as_secs_f64() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_script_and_another_seed_another() {
        let sizes = Sizes::smoke();
        let data = Workload::SoloMix.generate(&sizes, 7);
        let a = lineitem_script(Workload::SoloMix, &data, &sizes, 7);
        let b = lineitem_script(Workload::SoloMix, &data, &sizes, 7);
        let c = lineitem_script(Workload::SoloMix, &data, &sizes, 8);
        let requests = |s: &Script| -> Vec<Request> {
            s.statements.iter().map(|st| st.request.clone()).collect()
        };
        assert_eq!(requests(&a), requests(&b));
        assert_ne!(requests(&a), requests(&c));
    }

    #[test]
    fn the_class_mix_is_exact_for_every_seed() {
        let sizes = Sizes::smoke();
        let data = Workload::SoloMix.generate(&sizes, 1);
        for (workload, expect) in [
            (Workload::SoloMix, [48, 9, 3, 0]),
            (Workload::HotMix, [48, 9, 3, 0]),
            (Workload::ClusterDrop, [33, 15, 6, 6]),
        ] {
            for seed in [1, 99] {
                let script = lineitem_script(workload, &data, &sizes, seed);
                let count = |class| script.statements.iter().filter(|s| s.class == class).count();
                let got =
                    [count(Class::Scan), count(Class::Q6), count(Class::Q1), count(Class::Count)];
                assert_eq!(got, expect, "{} seed {seed}", workload.name());
            }
        }
    }

    #[test]
    fn hot_mix_filters_only_the_hot_column() {
        let sizes = Sizes::smoke();
        let data = Workload::HotMix.generate(&sizes, 3);
        let script = lineitem_script(Workload::HotMix, &data, &sizes, 3);
        assert!(script.statements.iter().all(|s| s.request.column() == "l_shipdate"));
    }

    #[test]
    fn a_shift_cycle_has_every_class_in_every_epoch() {
        let sizes = Sizes::smoke();
        let script = shift_script(&sizes, 5);
        assert_eq!(script.epochs.len(), 12);
        assert_eq!(script.statements.len(), 12 * 2 * sizes.shift_per_client);
        for (e, epoch) in script.epochs.iter().enumerate() {
            for class in [Class::Scan, Class::Q6, Class::Q1] {
                let n =
                    script.statements[epoch.clone()].iter().filter(|s| s.class == class).count();
                assert!(n > 0, "epoch {e} lacks {class:?}");
            }
        }
    }
}
