//! The one file that calls into the engine crates.
//!
//! Everything else in the benchmark — workloads, the run loops, the ladder,
//! the report — speaks the small vocabulary defined here ([`Request`],
//! [`Answer`], [`Target`], the counter structs and the probe functions), so
//! when the engine's public surface is collapsed (ROADMAP: one `execute`,
//! one stats struct) the benchmark is corrected in this file alone.
//!
//! Only public items of `numascan-storage`, `-scheduler`, `-core`,
//! `-cluster` and the generators of `numascan-workload` are used. `numasim`
//! contributes the topology description the engine constructors take;
//! nothing of the simulator runs.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use numascan_cluster::{
    AggOutcome, Cluster, ClusterConfig, ClusterStats, CountOutcome, ScanOutcome, Transport,
};
use numascan_core::aggregate::{
    accumulate_filtered, accumulate_positions, dense_group_capacity, GroupAccumulator, RowReader,
};
use numascan_core::{
    oracle_aggregate, AdaptiveDataPlacer, AggFunc, AggSpec, AggTable, AggValue, NativeEngine,
    NativeEngineConfig, NativePlacement, PlacerAction, QueryResult, ScanRequest, ScanSpec,
    SessionManager, SharedScanConfig,
};
use numascan_numasim::topology::{HopProfile, SocketSpec};
use numascan_numasim::{SocketId, Topology};
use numascan_scheduler::{PoolConfig, SchedulingStrategy, TaskMeta, TaskPriority, ThreadPool};
use numascan_storage::{
    ivp_ranges, materialize_positions, scan_bitvector, scan_positions, scan_positions_batch,
    DictColumn, EncodedPredicate, IndexVector, IvLayoutKind, Predicate, Table, TableBuilder,
    VidRange,
};
use numascan_workload::{
    lineitem_table, q1_request, q6_request, FaultSchedule, ShiftConfig, ShiftPhase,
};

use crate::trace::SpanLog;

/// Pool workers of every engine the benchmark builds: the box has two cores.
pub const POOL_WORKERS: usize = 2;

/// The machine every engine is told it runs on: 2 sockets × 2 cores × 1
/// thread, one pool worker per socket. Four contexts make the concurrency
/// hint split a lone statement into four private tasks and send two
/// concurrent statements to the shared sweep.
fn topology() -> Topology {
    Topology::custom_uniform(
        2,
        SocketSpec {
            cores: 2,
            threads_per_core: 1,
            local_bandwidth_gibs: 50.0,
            memory_gib: 64.0,
            per_context_stream_gibs: 8.0,
            context_ops_per_sec: 2.0e9,
            memory_level_parallelism: 8.0,
            frequency_ghz: 2.2,
        },
        HopProfile {
            local_latency_ns: 90.0,
            one_hop_latency_ns: 150.0,
            max_hop_latency_ns: 150.0,
            one_hop_bandwidth_gibs: 25.0,
            max_hop_bandwidth_gibs: 25.0,
        },
    )
}

fn engine_config(ivp_parts: Option<usize>) -> NativeEngineConfig {
    NativeEngineConfig {
        strategy: SchedulingStrategy::Bound,
        placement: match ivp_parts {
            Some(parts) => NativePlacement::IndexVectorPartitioned { parts },
            None => NativePlacement::RoundRobin,
        },
        steal_throttle: None,
        workers_per_group: Some(1),
        shared_scans: SharedScanConfig::default(),
    }
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

/// A generated table, opaque outside this file.
#[derive(Debug, Clone)]
pub struct Data(Table);

impl Data {
    /// `lineitem_table(rows, seed)` plus a sorted `l_orderkey` (= row / 4).
    pub fn lineitem(rows: usize, seed: u64) -> Data {
        let base = lineitem_table(rows, seed);
        let orderkey: Vec<i64> = (0..rows as i64).map(|row| row / 4).collect();
        let mut builder = TableBuilder::new("lineitem");
        for (_, column) in base.columns() {
            builder = builder.add_column(column.clone());
        }
        Data(builder.add_values("l_orderkey", &orderkey, false).build())
    }

    /// Dictionary-encodes `columns` into a table (`TableBuilder::build`).
    pub fn from_columns(name: &str, columns: &[(String, Vec<i64>)]) -> Data {
        let mut builder = TableBuilder::new(name);
        for (column, values) in columns {
            builder = builder.add_values(column.as_str(), values, false);
        }
        Data(builder.build())
    }

    /// The first `rows` rows as a table of their own.
    pub fn head(&self, rows: usize) -> Data {
        let mut builder = TableBuilder::new(self.0.name());
        for (_, column) in self.0.columns() {
            builder = builder.add_column(column.rebuild_range(column.name(), 0..rows, false));
        }
        Data(builder.build())
    }

    /// Rows in the table.
    pub fn rows(&self) -> usize {
        self.0.row_count()
    }

    /// Column names, in table order.
    pub fn column_names(&self) -> Vec<String> {
        self.0.columns().map(|(_, c)| c.name().to_string()).collect()
    }

    /// `Table::total_bytes()` ÷ (rows × columns × 8).
    pub fn stored_bytes_per_user_byte(&self) -> f64 {
        self.0.total_bytes() as f64 / (self.0.row_count() * self.0.column_count() * 8) as f64
    }

    /// The decoded values of one column.
    pub fn decode(&self, column: &str) -> Vec<i64> {
        decode(column_of(&self.0, column))
    }

    /// Smallest and largest value of a column (its dictionary's ends).
    pub fn value_bounds(&self, column: &str) -> (i64, i64) {
        let dict = column_of(&self.0, column).dictionary();
        (*dict.value(0), *dict.value(dict.len() as u32 - 1))
    }
}

fn column_of<'a>(table: &'a Table, name: &str) -> &'a DictColumn<i64> {
    table.column_by_name(name).unwrap_or_else(|| panic!("benchmark names column '{name}'")).1
}

fn decode(column: &DictColumn<i64>) -> Vec<i64> {
    let dict = column.dictionary();
    column.index_vector().iter().map(|vid| *dict.value(vid)).collect()
}

// ---------------------------------------------------------------------------
// Statements and answers
// ---------------------------------------------------------------------------

/// One generated statement, ready to send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    inner: ScanRequest,
    count_only: bool,
}

impl Request {
    /// `SELECT col FROM t WHERE col BETWEEN lo AND hi`.
    pub fn between(column: &str, lo: i64, hi: i64) -> Request {
        Request { inner: ScanRequest::between(column, lo, hi), count_only: false }
    }

    /// `SELECT col FROM t WHERE col IN (values)`.
    pub fn in_list(column: &str, values: Vec<i64>) -> Request {
        Request { inner: ScanRequest::in_list(column, values), count_only: false }
    }

    /// The workload crate's TPC-H Q6 statement.
    pub fn tpch_q6() -> Request {
        Request { inner: q6_request(), count_only: false }
    }

    /// The workload crate's TPC-H Q1 statement.
    pub fn tpch_q1() -> Request {
        Request { inner: q1_request(), count_only: false }
    }

    /// Q6's shape over this request's filter: one global `SUM(value)`.
    pub fn summing(self, value: &str) -> Request {
        let inner = self.inner.with_aggregate(AggSpec::new(value, vec![AggFunc::Sum]));
        Request { inner, count_only: false }
    }

    /// Q1's shape over this request's filter: count, sum, min, max and avg
    /// of `value` grouped by `group`.
    pub fn grouping(self, value: &str, group: &str) -> Request {
        let funcs = vec![AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg];
        let inner = self.inner.with_aggregate(AggSpec::new(value, funcs).with_group_by(group));
        Request { inner, count_only: false }
    }

    /// The same filter answered as a row count (`Cluster::count`; only the
    /// cluster tier has a count entry point).
    pub fn counting(self) -> Request {
        Request { inner: self.inner, count_only: true }
    }

    /// The filter column.
    pub fn column(&self) -> &str {
        self.inner.column()
    }

    /// Whether the statement answers with an aggregate table.
    pub fn is_aggregate(&self) -> bool {
        self.inner.agg.is_some()
    }

    fn matches(&self, value: i64) -> bool {
        match &self.inner.spec {
            ScanSpec::Between { lo, hi } => (*lo..=*hi).contains(&value),
            ScanSpec::InList { values } => values.contains(&value),
        }
    }
}

/// The seeded statements of one client in one epoch of a workload shift
/// (`ShiftConfig::client_requests`).
pub fn shift_requests(
    seed: u64,
    hot_columns: &[&str],
    phase: usize,
    epoch: usize,
    client: usize,
    per_client: usize,
) -> Vec<Request> {
    let config = ShiftConfig {
        clients: 2,
        queries_per_client: per_client,
        range_width: 3,
        value_domain: 250,
        in_list_every: 5,
        seed,
    };
    let phase_spec = ShiftPhase::new(hot_columns.iter().map(|c| c.to_string()).collect(), 1);
    config
        .client_requests(&phase_spec, phase, epoch, client)
        .into_iter()
        .map(|inner| Request { inner, count_only: false })
        .collect()
}

/// What an answer hashes down to: its cardinality (rows, groups or the
/// count itself) and an order-sensitive hash of its content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Rows returned, groups returned, or the count.
    pub rows: u64,
    /// Order-sensitive content hash (0 for a bare count).
    pub hash: u64,
}

fn mix(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
}

impl Fingerprint {
    fn of_rows(rows: &[i64]) -> Fingerprint {
        let hash = rows.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| mix(h, *v as u64));
        Fingerprint { rows: rows.len() as u64, hash }
    }

    fn of_count(count: usize) -> Fingerprint {
        Fingerprint { rows: count as u64, hash: 0 }
    }

    /// Hashes the finalized table, so an engine's mergeable partial and the
    /// cluster's finalized merge of the same statement agree.
    fn of_table(table: AggTable) -> Fingerprint {
        let rows = table.finalize().rows();
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for (key, cells) in &rows {
            hash = mix(hash, key.map_or(u64::MAX, |k| k as u64));
            for cell in cells {
                hash = match cell {
                    AggValue::Int(v) => mix(mix(hash, 1), *v as u64),
                    AggValue::Float(v) => mix(mix(hash, 2), v.to_bits()),
                    AggValue::Null => mix(hash, 3),
                };
            }
        }
        Fingerprint { rows: rows.len() as u64, hash }
    }
}

#[derive(Debug)]
enum Payload {
    Rows(Vec<i64>),
    Count(usize),
    Table(AggTable),
    /// Per-shard partial tables of a degraded cluster aggregation.
    Tables(Vec<AggTable>),
    Error(String),
}

/// What a [`Target`] returned, still unhashed so that hashing stays outside
/// the statement's timed interval.
#[derive(Debug)]
pub struct Answer {
    payload: Payload,
    missing_shards: Vec<usize>,
    virtual_us: u64,
}

/// A checked-size summary of an [`Answer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// The answer's fingerprint (`None` for a typed error).
    pub fingerprint: Option<Fingerprint>,
    /// Shards a degraded cluster answer is missing (empty = complete).
    pub missing_shards: Vec<usize>,
    /// The typed error's text, if the statement failed.
    pub error: Option<String>,
    /// Virtual microseconds the cluster's clock advanced (0 for an engine).
    pub virtual_us: u64,
}

impl Answer {
    fn complete(payload: Payload) -> Answer {
        Answer { payload, missing_shards: Vec::new(), virtual_us: 0 }
    }

    /// Hashes the answer and drops its payload.
    pub fn digest(self) -> Digest {
        let (fingerprint, error) = match self.payload {
            Payload::Rows(rows) => (Some(Fingerprint::of_rows(&rows)), None),
            Payload::Count(count) => (Some(Fingerprint::of_count(count)), None),
            Payload::Table(table) => (Some(Fingerprint::of_table(table)), None),
            Payload::Tables(partials) => match merge_partials(partials) {
                Ok(table) => (Some(Fingerprint::of_table(table)), None),
                Err(why) => (None, Some(why)),
            },
            Payload::Error(why) => (None, Some(why)),
        };
        Digest {
            fingerprint,
            missing_shards: self.missing_shards,
            error,
            virtual_us: self.virtual_us,
        }
    }
}

fn merge_partials(partials: Vec<AggTable>) -> Result<AggTable, String> {
    let mut iter = partials.into_iter();
    let mut merged = iter.next().ok_or("a partial answer with no shard")?;
    for partial in iter {
        merged.merge(&partial).map_err(|e| e.to_string())?;
    }
    Ok(merged)
}

/// Something statements can be sent to: an engine session or a cluster.
pub trait Target: Sync {
    /// Sends one statement and blocks until its answer (the single engine
    /// call a statement's span wraps).
    fn execute(&self, request: &Request) -> Answer;

    /// The span name of the call [`Target::execute`] makes for `request`.
    fn call_name(&self, request: &Request) -> &'static str;
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Scheduler and shared-scan counters of one engine, as plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Tasks the pool executed.
    pub tasks: u64,
    /// Tasks executed by a worker that stole them.
    pub stolen: u64,
    /// Wakeups delivered to workers.
    pub wakeups: u64,
    /// Wakeups that found nothing to run.
    pub false_wakeups: u64,
    /// Wakeups the watchdog had to deliver (must stay 0).
    pub watchdog_wakeups: u64,
    /// Hard-affinity tasks run off their socket (must stay 0).
    pub affinity_violations: u64,
    /// Per-part attachments to shared sweeps.
    pub attaches: u64,
    /// Attachments that joined a sweep already in flight.
    pub late_attaches: u64,
    /// Chunks the shared sweeps evaluated.
    pub chunks_swept: u64,
    /// Rows the shared sweeps covered.
    pub rows_swept: u64,
}

impl std::ops::Sub for EngineCounters {
    type Output = EngineCounters;

    fn sub(self, earlier: EngineCounters) -> EngineCounters {
        EngineCounters {
            tasks: self.tasks - earlier.tasks,
            stolen: self.stolen - earlier.stolen,
            wakeups: self.wakeups - earlier.wakeups,
            false_wakeups: self.false_wakeups - earlier.false_wakeups,
            watchdog_wakeups: self.watchdog_wakeups - earlier.watchdog_wakeups,
            affinity_violations: self.affinity_violations - earlier.affinity_violations,
            attaches: self.attaches - earlier.attaches,
            late_attaches: self.late_attaches - earlier.late_attaches,
            chunks_swept: self.chunks_swept - earlier.chunks_swept,
            rows_swept: self.rows_swept - earlier.rows_swept,
        }
    }
}

/// What kind of placement change the placer made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// Nothing to do.
    None,
    /// A whole column moved to another socket.
    Move,
    /// A column was split into more parts.
    Repartition,
    /// A cold column was consolidated into fewer parts.
    Decrease,
    /// One part was re-encoded into another layout.
    Relayout,
}

/// One placer decision, applied to the live engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    /// The decision's kind.
    pub kind: ActionKind,
    /// The decision in full (column, parts, layout), for exact comparison.
    pub text: String,
}

/// What one adaptive epoch observed and did.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// The placer's decision.
    pub action: Action,
    /// Index-vector bytes the epoch's statements demanded, over all sockets.
    pub bytes: u64,
    /// Spread between the most and least utilized socket.
    pub spread: f64,
}

/// A `SessionManager` over a `NativeEngine` on the benchmark's topology.
pub struct EngineWorld {
    session: SessionManager,
    placer: AdaptiveDataPlacer,
}

impl EngineWorld {
    /// Builds the engine: `Bound` strategy, no steal throttle, one worker
    /// per socket; index vectors split into `ivp_parts` or, with `None`,
    /// whole columns round-robin; shared scans at their default (`Auto`).
    pub fn build(data: Data, ivp_parts: Option<usize>) -> EngineWorld {
        let config = engine_config(ivp_parts);
        let engine = NativeEngine::with_config(data.0, &topology(), config);
        EngineWorld { session: SessionManager::new(engine), placer: AdaptiveDataPlacer::default() }
    }

    fn table(&self) -> &Table {
        self.session.engine().table()
    }

    /// The table the engine serves (shares nothing mutable with it).
    pub fn data(&self) -> Data {
        Data(self.table().clone())
    }

    /// Scheduler and shared-scan counters so far.
    pub fn counters(&self) -> EngineCounters {
        let sched = self.session.engine().scheduler_stats();
        let shared = self.session.shared_scan_stats();
        EngineCounters {
            tasks: sched.executed,
            stolen: sched.stolen_same_socket + sched.stolen_cross_socket,
            wakeups: sched.total_wakeups(),
            false_wakeups: sched.false_wakeups,
            watchdog_wakeups: sched.watchdog_wakeups,
            affinity_violations: sched.affinity_violations,
            attaches: shared.queries_attached,
            late_attaches: shared.late_attaches,
            chunks_swept: shared.chunks_swept,
            rows_swept: shared.rows_swept,
        }
    }

    /// Placement parts `column` currently has.
    pub fn partitions(&self, column: &str) -> usize {
        let (id, _) = self.table().column_by_name(column).expect("benchmark names the column");
        self.session.engine().column_partitions(id)
    }

    /// The index-vector layout of every part of `column`, in part order.
    pub fn part_layouts(&self, column: &str) -> Vec<&'static str> {
        let (id, _) = self.table().column_by_name(column).expect("benchmark names the column");
        (0..self.session.engine().column_partitions(id))
            .filter_map(|part| self.session.engine().column_part_layout(id, part))
            .map(|layout| match layout {
                IvLayoutKind::BitPacked => "bitpacked",
                IvLayoutKind::Rle => "rle",
            })
            .collect()
    }

    /// Snapshots and resets the epoch telemetry without acting on it.
    pub fn take_epoch(&self) -> (u64, f64) {
        let epoch = self.session.take_epoch();
        (epoch.socket_bytes.iter().sum(), epoch.utilization_spread())
    }

    /// One closed-loop step of the default placer (`rebalance_epoch`).
    pub fn rebalance(&self, elapsed: Duration) -> EpochOutcome {
        let (epoch, action) = self.session.rebalance_epoch(&self.placer, elapsed);
        let kind = match action {
            PlacerAction::None => ActionKind::None,
            PlacerAction::MoveColumn { .. } => ActionKind::Move,
            PlacerAction::RepartitionIvp { .. } | PlacerAction::RepartitionPp { .. } => {
                ActionKind::Repartition
            }
            PlacerAction::DecreasePartitions { .. } => ActionKind::Decrease,
            PlacerAction::Relayout { .. } => ActionKind::Relayout,
        };
        EpochOutcome {
            action: Action { kind, text: format!("{action:?}") },
            bytes: epoch.socket_bytes.iter().sum(),
            spread: epoch.utilization_spread(),
        }
    }

    /// Re-splits `column` into `parts` index-vector parts (`repartition_ivp`).
    pub fn repartition(&self, column: &str, parts: usize) {
        let (id, _) = self.table().column_by_name(column).expect("benchmark names the column");
        self.session.engine().repartition_ivp(id, parts);
    }

    /// Re-encodes part 0 of `column` run-length (`true`) or bit-packed;
    /// returns whether the part changed (`relayout_part`).
    pub fn relayout_first_part(&self, column: &str, rle: bool) -> bool {
        let (id, _) = self.table().column_by_name(column).expect("benchmark names the column");
        let layout = if rle { IvLayoutKind::Rle } else { IvLayoutKind::BitPacked };
        self.session.engine().relayout_part(id, 0, layout)
    }

    /// Joins the engine's worker threads.
    pub fn shutdown(self) {
        self.session.shutdown();
    }
}

impl Target for EngineWorld {
    fn execute(&self, request: &Request) -> Answer {
        Answer::complete(match self.session.execute(&request.inner) {
            Ok(QueryResult::Rows(rows)) if request.count_only => Payload::Count(rows.len()),
            Ok(QueryResult::Rows(rows)) => Payload::Rows(rows),
            Ok(QueryResult::Aggregate(table)) => Payload::Table(table),
            Err(error) => Payload::Error(error.to_string()),
        })
    }

    fn call_name(&self, _: &Request) -> &'static str {
        "core.session.execute"
    }
}

// ---------------------------------------------------------------------------
// The cluster
// ---------------------------------------------------------------------------

/// Coordinator and transport counters of one cluster, as plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Statements executed.
    pub queries: u64,
    /// Shard attempts sent.
    pub requests: u64,
    /// Retries after an attempt timeout.
    pub retries: u64,
    /// Retries that switched replica.
    pub failovers: u64,
    /// Late or duplicated responses discarded.
    pub duplicates_dropped: u64,
    /// Statements degraded to a partial answer.
    pub partials: u64,
    /// Messages the transport dropped.
    pub dropped: u64,
}

impl std::ops::Sub for ClusterCounters {
    type Output = ClusterCounters;

    fn sub(self, earlier: ClusterCounters) -> ClusterCounters {
        ClusterCounters {
            queries: self.queries - earlier.queries,
            requests: self.requests - earlier.requests,
            retries: self.retries - earlier.retries,
            failovers: self.failovers - earlier.failovers,
            duplicates_dropped: self.duplicates_dropped - earlier.duplicates_dropped,
            partials: self.partials - earlier.partials,
            dropped: self.dropped - earlier.dropped,
        }
    }
}

/// A `Cluster` over `SimTransport` with the default sizing (3 workers, 3
/// shards, replication 2), each replica engine on two single-core sockets.
pub struct ClusterWorld {
    cluster: Mutex<Cluster>,
}

impl ClusterWorld {
    /// Shards `data` across the cluster. `faults` is the probability that a
    /// message is dropped and that a delivered one is duplicated; `None`
    /// builds the zero-fault cluster.
    pub fn build(data: &Data, faults: Option<(f64, f64)>, seed: u64) -> ClusterWorld {
        let mut schedule = FaultSchedule::none(seed);
        if let Some((drop, duplicate)) = faults {
            schedule.drop_probability = drop;
            schedule.duplicate_probability = duplicate;
        }
        let cluster = Cluster::build(&data.0, ClusterConfig::default(), schedule);
        ClusterWorld { cluster: Mutex::new(cluster) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Cluster> {
        self.cluster.lock().expect("no client panics while holding the cluster")
    }

    /// Coordinator and transport counters so far.
    pub fn counters(&self) -> ClusterCounters {
        let cluster = self.lock();
        let stats: ClusterStats = cluster.stats();
        ClusterCounters {
            queries: stats.queries,
            requests: stats.requests_sent,
            retries: stats.retries,
            failovers: stats.failovers,
            duplicates_dropped: stats.duplicates_dropped,
            partials: stats.partials,
            dropped: cluster.transport().counters().dropped,
        }
    }

    /// The global row range of every shard, in shard order.
    pub fn shard_rows(&self) -> Vec<Range<usize>> {
        self.lock().shards().iter().map(|shard| shard.rows.clone()).collect()
    }

    /// Joins every replica engine's worker threads.
    pub fn shutdown(self) {
        self.cluster.into_inner().expect("no client panicked").shutdown();
    }
}

impl Target for ClusterWorld {
    fn execute(&self, request: &Request) -> Answer {
        let mut cluster = self.lock();
        let (payload, missing_shards) = if request.count_only {
            match cluster.count(&request.inner) {
                Ok(CountOutcome::Complete(count)) => (Payload::Count(count), Vec::new()),
                Ok(CountOutcome::Partial { count, missing_shards }) => {
                    (Payload::Count(count), missing_shards)
                }
                Err(error) => (Payload::Error(error.to_string()), Vec::new()),
            }
        } else if request.is_aggregate() {
            match cluster.aggregate(&request.inner) {
                Ok(AggOutcome::Complete(table)) => (Payload::Table(table), Vec::new()),
                Ok(AggOutcome::Partial { partials, missing_shards }) => (
                    Payload::Tables(partials.into_iter().map(|(_, table)| table).collect()),
                    missing_shards,
                ),
                Err(error) => (Payload::Error(error.to_string()), Vec::new()),
            }
        } else {
            match cluster.scan(&request.inner) {
                Ok(ScanOutcome::Complete(rows)) => (Payload::Rows(rows), Vec::new()),
                Ok(ScanOutcome::Partial { rows, missing_shards }) => {
                    (Payload::Rows(rows), missing_shards)
                }
                Err(error) => (Payload::Error(error.to_string()), Vec::new()),
            }
        };
        Answer { payload, missing_shards, virtual_us: cluster.transport().now_us() }
    }

    fn call_name(&self, request: &Request) -> &'static str {
        if request.count_only {
            "cluster.count"
        } else if request.is_aggregate() {
            "cluster.aggregate"
        } else {
            "cluster.scan"
        }
    }
}

// ---------------------------------------------------------------------------
// The scalar oracle
// ---------------------------------------------------------------------------

/// The scalar reference every answer is checked against: a plain filter
/// over the generated values for scans and counts, `oracle_aggregate` for
/// aggregations.
pub struct Oracle<'a> {
    table: &'a Table,
    raw: BTreeMap<String, Vec<i64>>,
}

impl<'a> Oracle<'a> {
    /// An oracle over `data`, with the values of `scan_columns` decoded up
    /// front (the columns plain scans and counts filter).
    pub fn new<'c>(data: &'a Data, scan_columns: impl IntoIterator<Item = &'c str>) -> Self {
        let mut raw = BTreeMap::new();
        for name in scan_columns {
            raw.entry(name.to_string()).or_insert_with(|| data.decode(name));
        }
        Oracle { table: &data.0, raw }
    }

    /// The fingerprint a correct answer to `request` has. With `served`,
    /// the answer of a degraded cluster statement that only covers those
    /// row ranges.
    pub fn answer(&self, request: &Request, served: Option<&[Range<usize>]>) -> Fingerprint {
        let whole = 0..self.table.row_count();
        let ranges = served.unwrap_or(std::slice::from_ref(&whole));
        if let Some(spec) = &request.inner.agg {
            let predicate = request.inner.predicate();
            let table = match served {
                None => oracle_aggregate(self.table, request.column(), &predicate, spec),
                Some(_) => {
                    let sub = self.restricted(request, spec, ranges);
                    oracle_aggregate(&sub, request.column(), &predicate, spec)
                }
            };
            return Fingerprint::of_table(table);
        }
        let values = self
            .raw
            .get(request.column())
            .unwrap_or_else(|| panic!("oracle column '{}' was not decoded", request.column()));
        let matching =
            ranges.iter().flat_map(|r| &values[r.clone()]).copied().filter(|v| request.matches(*v));
        if request.count_only {
            Fingerprint::of_count(matching.count())
        } else {
            Fingerprint::of_rows(&matching.collect::<Vec<i64>>())
        }
    }

    /// The served rows of the columns an aggregation reads, as a table.
    fn restricted(&self, request: &Request, spec: &AggSpec, ranges: &[Range<usize>]) -> Table {
        let mut names = vec![request.column(), spec.value_column.as_str()];
        names.extend(spec.group_by.as_deref());
        names.sort_unstable();
        names.dedup();
        let mut builder = TableBuilder::new("served");
        for name in names {
            let column = column_of(self.table, name);
            let values: Vec<i64> =
                ranges.iter().flat_map(|r| r.clone()).map(|row| *column.value_at(row)).collect();
            builder = builder.add_values(name, &values, false);
        }
        builder.build()
    }
}

// ---------------------------------------------------------------------------
// Shadow replay: a statement's storage / aggregate work, serial
// ---------------------------------------------------------------------------

/// What a statement's serial replay touched.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShadowCounts {
    /// Placement-sized parts the statement's column has.
    pub parts: u64,
    /// Parts the zone map ruled out before any byte was read.
    pub pruned: u64,
    /// Rows scanned in the parts that were not pruned.
    pub rows_examined: u64,
    /// Rows the statement returned (or folded, for an aggregation).
    pub rows_matched: u64,
    /// Values materialized (0 for an aggregation).
    pub values: u64,
}

/// Replays `request`'s storage and aggregation work directly and serially
/// over `parts` equal row ranges of the base column, one shadow span per
/// layer call under `parent`: `storage.encode`, `storage.prune`, then
/// `storage.scan_positions` + `storage.materialize` for a scan or
/// `core.aggregate.fused` for an aggregation.
pub fn shadow(
    data: &Data,
    request: &Request,
    parts: usize,
    log: &mut SpanLog,
    parent: u64,
    stmt: u64,
) -> ShadowCounts {
    let table = &data.0;
    let column = column_of(table, request.column());
    let predicate = request.inner.predicate();
    let encoded =
        log.child(parent, stmt, "storage.encode", true, || predicate.encode(column.dictionary()));
    let ranges = ivp_ranges(table.row_count(), parts.max(1));
    let mut counts = ShadowCounts { parts: ranges.len() as u64, ..ShadowCounts::default() };
    let live: Vec<Range<usize>> = log.child(parent, stmt, "storage.prune", true, || {
        ranges.into_iter().filter(|r| !column.prunes(r.clone(), &encoded)).collect()
    });
    counts.pruned = counts.parts - live.len() as u64;
    counts.rows_examined = live.iter().map(|r| r.len() as u64).sum();
    match &request.inner.agg {
        None => {
            let positions: Vec<Vec<u32>> =
                log.child(parent, stmt, "storage.scan_positions", true, || {
                    live.iter().map(|r| scan_positions(column, r.clone(), &encoded)).collect()
                });
            let values = log.child(parent, stmt, "storage.materialize", true, || {
                positions.iter().map(|p| materialize_positions(column, p).len()).sum::<usize>()
            });
            counts.rows_matched = values as u64;
            counts.values = if request.count_only { 0 } else { values as u64 };
        }
        Some(spec) => {
            let reader = AggReader::new(table, spec);
            counts.rows_matched = log.child(parent, stmt, "core.aggregate.fused", true, || {
                let mut acc = reader.accumulator();
                for range in &live {
                    accumulate_filtered(column, range.clone(), &encoded, &reader.rows(), &mut acc);
                }
                acc.matched_rows()
            });
        }
    }
    counts
}

/// The value and group columns of an aggregation, resolved once.
struct AggReader<'a> {
    value: &'a DictColumn<i64>,
    group: Option<&'a DictColumn<i64>>,
}

impl<'a> AggReader<'a> {
    fn new(table: &'a Table, spec: &AggSpec) -> Self {
        AggReader {
            value: column_of(table, &spec.value_column),
            group: spec.group_by.as_deref().map(|g| column_of(table, g)),
        }
    }

    fn rows(&self) -> RowReader<'a> {
        RowReader::new(self.value, self.group, 0)
    }

    fn accumulator(&self) -> GroupAccumulator {
        GroupAccumulator::new(self.group.map_or(1, |g| dense_group_capacity(g.dictionary().len())))
    }
}

// ---------------------------------------------------------------------------
// Ladder probes: one timed call into one public function each
// ---------------------------------------------------------------------------

fn seconds(work: impl FnOnce()) -> f64 {
    let start = Instant::now();
    work();
    start.elapsed().as_secs_f64()
}

fn encoded_range(column: &DictColumn<i64>, lo: i64, hi: i64) -> EncodedPredicate {
    Predicate::Between { lo, hi }.encode(column.dictionary())
}

/// Seconds `IndexVector::scan_range_masks` takes over the whole vector,
/// counting the matches of `range`.
fn masks_scan_seconds(iv: &IndexVector, range: VidRange) -> f64 {
    let mut matches = 0u64;
    let elapsed = seconds(|| {
        iv.scan_range_masks(0..iv.len(), range.first, range.last, |_, _, mask| {
            matches += u64::from(mask.count_ones());
        });
    });
    std::hint::black_box(matches);
    elapsed
}

/// `IndexVector::scan_range_masks` over the whole column, one thread:
/// `(seconds, packed bytes streamed)`.
pub fn probe_scan_masks(data: &Data, column: &str, lo: i64, hi: i64) -> (f64, u64) {
    let column = column_of(&data.0, column);
    let EncodedPredicate::Range(range) = encoded_range(column, lo, hi) else {
        panic!("the probe range [{lo}, {hi}] matches no dictionary value");
    };
    let iv = column.index_vector();
    (masks_scan_seconds(iv, range), iv.scan_bytes(iv.len()))
}

/// `scan_positions` over the whole column: seconds.
pub fn probe_scan_positions(data: &Data, column: &str, lo: i64, hi: i64) -> f64 {
    let column = column_of(&data.0, column);
    let encoded = encoded_range(column, lo, hi);
    seconds(|| {
        std::hint::black_box(scan_positions(column, 0..column.row_count(), &encoded));
    })
}

/// `scan_bitvector` over the whole column: seconds.
pub fn probe_scan_bitvector(data: &Data, column: &str, lo: i64, hi: i64) -> f64 {
    let column = column_of(&data.0, column);
    let encoded = encoded_range(column, lo, hi);
    seconds(|| {
        std::hint::black_box(scan_bitvector(column, 0..column.row_count(), &encoded));
    })
}

/// `scan_positions_batch` with one range predicate per entry of `ranges`:
/// `(seconds, packed bytes of one pass)`.
pub fn probe_batch(data: &Data, column: &str, ranges: &[(i64, i64)]) -> (f64, u64) {
    let column = column_of(&data.0, column);
    let encoded: Vec<EncodedPredicate> =
        ranges.iter().map(|(lo, hi)| encoded_range(column, *lo, *hi)).collect();
    let refs: Vec<&EncodedPredicate> = encoded.iter().collect();
    let elapsed = seconds(|| {
        std::hint::black_box(scan_positions_batch(column, 0..column.row_count(), &refs));
    });
    (elapsed, column.index_vector().scan_bytes(column.row_count()))
}

/// `materialize_positions` of the rows matching `[lo, hi]`:
/// `(seconds, values materialized)`.
pub fn probe_materialize(data: &Data, column: &str, lo: i64, hi: i64) -> (f64, u64) {
    let column = column_of(&data.0, column);
    let positions = scan_positions(column, 0..column.row_count(), &encoded_range(column, lo, hi));
    let elapsed = seconds(|| {
        std::hint::black_box(materialize_positions(column, &positions));
    });
    (elapsed, positions.len() as u64)
}

/// Seconds of a run-length layout probe over a copy of one column.
#[derive(Debug, Clone, Copy)]
pub struct RleProbe {
    /// `DictColumn::relayout` bit-packed → run-length.
    pub to_rle_s: f64,
    /// `scan_range_masks` over the whole run-length column.
    pub scan_s: f64,
    /// `DictColumn::relayout` run-length → bit-packed.
    pub to_bitpacked_s: f64,
}

/// Re-encodes a copy of `column` run-length, scans it for `[lo, hi]`, and
/// unpacks it again.
pub fn probe_rle(data: &Data, column: &str, lo: i64, hi: i64) -> RleProbe {
    let mut copy = column_of(&data.0, column).clone();
    let EncodedPredicate::Range(range) = encoded_range(&copy, lo, hi) else {
        panic!("the probe range [{lo}, {hi}] matches no dictionary value");
    };
    let to_rle_s = seconds(|| {
        copy.relayout(IvLayoutKind::Rle);
    });
    let scan_s = masks_scan_seconds(copy.index_vector(), range);
    let to_bitpacked_s = seconds(|| {
        copy.relayout(IvLayoutKind::BitPacked);
    });
    RleProbe { to_rle_s, scan_s, to_bitpacked_s }
}

/// `accumulate_filtered` over the whole filter column of an aggregation:
/// `(seconds, rows scanned)`.
pub fn probe_fused(data: &Data, request: &Request) -> (f64, u64) {
    let table = &data.0;
    let spec = request.inner.agg.as_ref().expect("the fused probe takes an aggregation");
    let column = column_of(table, request.column());
    let encoded = request.inner.predicate().encode(column.dictionary());
    let reader = AggReader::new(table, spec);
    let mut acc = reader.accumulator();
    let elapsed = seconds(|| {
        accumulate_filtered(column, 0..column.row_count(), &encoded, &reader.rows(), &mut acc);
    });
    std::hint::black_box(acc.matched_rows());
    (elapsed, column.row_count() as u64)
}

/// `accumulate_positions` over the (untimed) position list of an
/// aggregation's filter: `(seconds, rows folded)`.
pub fn probe_positions_fold(data: &Data, request: &Request) -> (f64, u64) {
    let table = &data.0;
    let spec = request.inner.agg.as_ref().expect("the fold probe takes an aggregation");
    let column = column_of(table, request.column());
    let encoded = request.inner.predicate().encode(column.dictionary());
    let positions = scan_positions(column, 0..column.row_count(), &encoded);
    let reader = AggReader::new(table, spec);
    let mut acc = reader.accumulator();
    let elapsed = seconds(|| accumulate_positions(&positions, &reader.rows(), &mut acc));
    std::hint::black_box(acc.matched_rows());
    (elapsed, positions.len() as u64)
}

/// `AggTable::merge` of the partial tables of the table's two halves:
/// seconds for one merge.
pub fn probe_merge(data: &Data, request: &Request) -> f64 {
    let table = &data.0;
    let spec = request.inner.agg.as_ref().expect("the merge probe takes an aggregation");
    let column = column_of(table, request.column());
    let encoded = request.inner.predicate().encode(column.dictionary());
    let reader = AggReader::new(table, spec);
    let halves: Vec<AggTable> = ivp_ranges(table.row_count(), 2)
        .into_iter()
        .map(|range| {
            let mut acc = reader.accumulator();
            accumulate_filtered(column, range, &encoded, &reader.rows(), &mut acc);
            acc.into_table(spec, reader.group)
        })
        .collect();
    let mut merged = halves[0].clone();
    let elapsed = seconds(|| {
        merged.merge(&halves[1]).expect("two partials of one statement merge");
    });
    std::hint::black_box(merged);
    elapsed
}

/// What the scheduler probe measured on an idle pool of the benchmark's
/// topology.
#[derive(Debug, Clone)]
pub struct SchedulerProbe {
    /// Microseconds from `ThreadPool::submit` to the task's first
    /// instruction, one sample per task submitted to a sleeping pool.
    pub submit_to_start_us: Vec<f64>,
    /// No-op tasks per second when `burst` are submitted back to back.
    pub tasks_per_s: f64,
}

/// Submits no-op hard-affinity tasks to a fresh `ThreadPool`: `singles` one
/// at a time (each finds the pool asleep, as a statement on an idle engine
/// does), then `burst` at once.
pub fn probe_scheduler(singles: usize, burst: usize) -> SchedulerProbe {
    let pool = ThreadPool::new(
        &topology(),
        PoolConfig {
            strategy: SchedulingStrategy::Bound,
            workers_per_group: Some(1),
            ..PoolConfig::default()
        },
    );
    let origin = Instant::now();
    let meta = |seq: usize| {
        TaskMeta::bound(TaskPriority::new(0, seq as u64), SocketId((seq % 2) as u16), true)
    };
    let mut submit_to_start_us = Vec::with_capacity(singles);
    for seq in 0..singles {
        let started_ns = Arc::new(AtomicU64::new(0));
        let slot = Arc::clone(&started_ns);
        let submitted_ns = origin.elapsed().as_nanos() as u64;
        pool.submit(meta(seq), move || {
            slot.store(origin.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
        pool.wait_idle();
        let started = started_ns.load(Ordering::Relaxed);
        submit_to_start_us.push(started.saturating_sub(submitted_ns) as f64 / 1e3);
    }
    let burst_s = seconds(|| {
        for seq in 0..burst {
            pool.submit(meta(seq), || {});
        }
        pool.wait_idle();
    });
    pool.shutdown();
    SchedulerProbe { submit_to_start_us, tasks_per_s: burst as f64 / burst_s }
}
