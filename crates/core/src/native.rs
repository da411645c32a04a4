//! Native execution of real scans on real threads.
//!
//! The simulation engine answers "what would this workload do on a 32-socket
//! server"; [`NativeEngine`] answers "run this query for real". It combines
//! the storage layer (`numascan-storage`) with the NUMA-aware thread pool
//! (`numascan-scheduler`): every column carries a *placement* — a list of
//! row-range parts, each assigned to a (virtual) socket.
//!
//! Every statement, scan or fused aggregate, goes through one pipeline
//! behind [`NativeEngine::execute`]:
//!
//! 1. **plan** — resolve the columns, snapshot the placement, encode the
//!    predicate once per part, drop the parts whose zone maps rule out a
//!    match, and record the demand-side telemetry;
//! 2. **execute** — either split the surviving parts into
//!    concurrency-hint-many private tasks *aligned to the placement* (each
//!    task's range falls wholly inside one part and carries the affinity of
//!    its part's socket, Section 5.2), or, once the hint stops granting
//!    intra-statement parallelism, attach the same parts to their
//!    cooperative shared sweeps ([`crate::shared`]); either way the
//!    statement waits on one collector, which returns the outputs sorted by
//!    key, or fails typed when the deadline expires or a task panics;
//! 3. **sink** — materialize the qualifying values in row order, or fold
//!    them into dense partial aggregation tables; private outputs reduce in
//!    chunk order, shared chunks fold in global row order.
//!
//! The configured scheduling strategy plus the bandwidth-aware steal
//! throttle decide whether task affinities are soft or hard.
//!
//! The engine closes the adaptive loop of Section 7 on real threads:
//!
//! * every statement's plan records the index-vector bytes of the parts it
//!   will stream, attributed to the socket the data lives on; the counters
//!   aggregate per socket (the utilization signal) and per column (the heat
//!   signal);
//! * [`NativeEngine::take_epoch`] snapshots and resets those counters into
//!   the exact inputs [`AdaptiveDataPlacer::decide`] consumes;
//! * [`NativeEngine::apply_action`] executes the decision *on the live
//!   engine* — moving a column to another socket, growing or shrinking its
//!   IVP partitioning, or physically repartitioning it — between statements,
//!   without stopping the worker pool.
//!
//! Placements are guarded by a reader-writer lock: concurrent statements
//! snapshot the placement under a read lock (parts are cheap to clone;
//! physically rebuilt parts are shared through `Arc`), while rebalance
//! actions take the write lock. Statements already in flight keep scanning
//! the snapshot they took — exactly the "queries keep running while data
//! moves" behaviour the paper's adaptive design requires. Each column's
//! placement carries its own generation, bumped under the write lock by
//! every action that changes that column and cloned with the snapshot, so
//! shared sweeps key on (column, generation, part): statements planned
//! before and after a change never join one sweep, while a change to one
//! column leaves every other column's sweeps joinable.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use numascan_numasim::{SocketId, Topology};
use numascan_scheduler::{
    CancellationToken, ConcurrencyHint, PoolConfig, SchedulerStats, SchedulingStrategy,
    StealThrottleConfig, TaskMeta, TaskPriority, ThreadPool, WorkClass,
};
use numascan_storage::{
    materialize_positions, scan_positions, ColumnId, DictColumn, EncodedPredicate, IvLayoutKind,
    PhysicalPartitioning, Table,
};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::adaptive::{AdaptiveDataPlacer, ColumnHeat, PartLayoutStat, PlacerAction};
use crate::aggregate::{
    accumulate_filtered, accumulate_positions, dense_group_capacity, GroupAccumulator, RowReader,
};
use crate::error::EngineError;
use crate::placement::PlacementStrategy;
use crate::query::ColumnRef;
use crate::session::{QueryResult, ScanRequest};
use crate::shared::{
    ChunkRef, SharedScanConfig, SharedScanMode, SharedScanRegistry, SharedScanStats, SweepKey,
};

/// Configuration of a [`NativeEngine`].
#[derive(Debug, Clone)]
pub struct NativeEngineConfig {
    /// Task scheduling strategy (OS / Target / Bound).
    pub strategy: SchedulingStrategy,
    /// Initial data placement of every column (RR, IVP or PP).
    pub placement: PlacementStrategy,
    /// Bandwidth-aware steal throttle for the worker pool (`None` = off,
    /// keeping the static strategy semantics).
    pub steal_throttle: Option<StealThrottleConfig>,
    /// Worker threads per thread group (`None` = size from the topology).
    pub workers_per_group: Option<usize>,
    /// Cooperative shared scans: when statements attach to an in-flight
    /// sweep instead of sweeping privately ([`SharedScanMode::Auto`] by
    /// default — sharing engages exactly when the concurrency hint stops
    /// granting intra-statement parallelism).
    pub shared_scans: SharedScanConfig,
}

impl Default for NativeEngineConfig {
    fn default() -> Self {
        NativeEngineConfig {
            strategy: SchedulingStrategy::Bound,
            placement: PlacementStrategy::RoundRobin,
            steal_throttle: None,
            workers_per_group: None,
            shared_scans: SharedScanConfig::default(),
        }
    }
}

/// One part of a column's placement: a contiguous row range on one socket.
#[derive(Debug, Clone)]
struct ColumnPart {
    /// Global row range of the original column covered by this part.
    rows: Range<usize>,
    /// The socket whose memory holds this part.
    socket: SocketId,
    /// For physically partitioned columns: the rebuilt, self-contained
    /// column for this part. `None` means the part reads the base column.
    data: Option<Arc<DictColumn<i64>>>,
}

/// The placement of one column: its parts in row order.
#[derive(Debug, Clone)]
struct ColumnPlacement {
    parts: Vec<ColumnPart>,
    /// Bumped (under the placement write lock) on every change to this
    /// column's placement, so shared sweeps key on one placement snapshot.
    generation: u64,
}

impl ColumnPlacement {
    /// The socket holding the majority of the column's rows.
    fn primary_socket(&self, sockets: usize) -> SocketId {
        let mut rows_per_socket = vec![0usize; sockets];
        for part in &self.parts {
            rows_per_socket[part.socket.index()] += part.rows.len();
        }
        let best = rows_per_socket
            .iter()
            .enumerate()
            .max_by_key(|(_, rows)| **rows)
            .map_or(0, |(socket, _)| socket);
        SocketId(best as u16)
    }
}

/// One placement part that survived planning: the only description of a part
/// either execution path uses — private tasks scan it, and a shared sweep
/// takes its geometry from the first statement's copy — computed once per
/// statement.
pub(crate) struct PlannedPart {
    /// The part's shared sweep: (column, placement generation, index of the
    /// part in the column's placement).
    pub(crate) key: SweepKey,
    /// The socket whose memory holds the part.
    pub(crate) socket: SocketId,
    /// Global row range of the base table the part covers (never empty).
    pub(crate) rows: Range<usize>,
    /// The filter column.
    pub(crate) column_id: ColumnId,
    /// The physically rebuilt part column, if any (`None` = base column).
    pub(crate) data: Option<Arc<DictColumn<i64>>>,
    /// `rows.start` in the scanned column's coordinates: the global start for
    /// base-column parts, 0 for rebuilt parts.
    pub(crate) local_base: usize,
    /// Encoded once per part (PP parts carry their own dictionaries) and
    /// shared, with the part, by every task and attachment — an IN-list's
    /// vid payload is never deep-cloned per task.
    pub(crate) encoded: EncodedPredicate,
    /// Index-vector bytes of one full pass over the part.
    pub(crate) bytes: u64,
}

impl PlannedPart {
    /// The column the part scans.
    pub(crate) fn column<'a>(&'a self, table: &'a Table) -> &'a DictColumn<i64> {
        self.data.as_deref().unwrap_or_else(|| table.column(self.column_id))
    }

    /// What to add to a scanned position to reach the global base-table row.
    pub(crate) fn row_offset(&self) -> usize {
        self.rows.start - self.local_base
    }
}

/// One statement's plan, consumed by either execution path.
struct PartPlan {
    /// The statement's scheduling epoch (task priorities order by it).
    epoch: u64,
    /// Parts in the placement snapshot, pruned or not: routing and task
    /// splitting count these.
    placement_parts: usize,
    /// Surviving parts, in row order.
    parts: Vec<Arc<PlannedPart>>,
    /// The gather side of an aggregate statement.
    target: Option<AggTarget>,
}

/// The gather side of one aggregate statement, resolved once and shared by
/// both execution paths.
#[derive(Clone, Copy)]
struct AggTarget {
    /// Column whose values feed the aggregate functions.
    value: ColumnId,
    /// Group-by column, if any.
    group: Option<ColumnId>,
    /// Dense partial-table slots: the group dictionary's cardinality.
    capacity: usize,
}

impl AggTarget {
    /// The gathered columns: value, then group.
    fn columns(&self) -> impl Iterator<Item = ColumnId> {
        std::iter::once(self.value).chain(self.group)
    }
}

/// What a statement does with the rows its predicate qualifies — the only
/// thing a plain scan and a fused aggregate do differently.
trait Sink: Send + Sync + 'static {
    type Out: Send + 'static;

    /// One private task: scan `rows` (in the part column's coordinates).
    fn scan(&self, table: &Table, part: &PlannedPart, rows: Range<usize>) -> Self::Out;

    /// Folds a shared statement's served chunks, sorted by global row.
    fn fold(&self, table: &Table, chunks: &[ChunkRef]) -> Self::Out;

    /// Reduces private task outputs, given in chunk order.
    fn reduce(&self, outs: Vec<Self::Out>) -> Self::Out;
}

/// Plain scans: the qualifying values, materialized in row order.
struct RowSink;

impl Sink for RowSink {
    type Out = Vec<i64>;

    fn scan(&self, table: &Table, part: &PlannedPart, rows: Range<usize>) -> Vec<i64> {
        let column = part.column(table);
        let positions = scan_positions(column, rows, &part.encoded);
        materialize_positions(column, &positions)
    }

    fn fold(&self, table: &Table, chunks: &[ChunkRef]) -> Vec<i64> {
        // Ascending positions make each chunk's share a prefix cut.
        let mut rows = Vec::with_capacity(chunks.iter().map(|c| c.served_positions().len()).sum());
        for chunk in chunks {
            rows.extend(materialize_positions(chunk.part.column(table), chunk.served_positions()));
        }
        rows
    }

    fn reduce(&self, outs: Vec<Vec<i64>>) -> Vec<i64> {
        outs.concat()
    }
}

/// Fused aggregates: qualifying rows flow from the mask stream straight into
/// dense partial tables on the part's socket — no position list is ever
/// materialized on the private path.
impl Sink for AggTarget {
    type Out = GroupAccumulator;

    fn scan(&self, table: &Table, part: &PlannedPart, rows: Range<usize>) -> GroupAccumulator {
        let group = self.group.map(|g| table.column(g));
        let reader = RowReader::new(table.column(self.value), group, part.row_offset());
        let mut acc = GroupAccumulator::new(self.capacity);
        accumulate_filtered(part.column(table), rows, &part.encoded, &reader, &mut acc);
        acc
    }

    fn fold(&self, table: &Table, chunks: &[ChunkRef]) -> GroupAccumulator {
        let (value, group) = (table.column(self.value), self.group.map(|g| table.column(g)));
        let mut acc = GroupAccumulator::new(self.capacity);
        for chunk in chunks {
            let reader = RowReader::new(value, group, chunk.part.row_offset());
            accumulate_positions(chunk.served_positions(), &reader, &mut acc);
        }
        acc
    }

    fn reduce(&self, outs: Vec<GroupAccumulator>) -> GroupAccumulator {
        // The deterministic part-order reduce: partials merge in chunk order
        // no matter which worker finished first. (Wrapping sums make the
        // result order-insensitive anyway; the fixed order keeps it
        // byte-identical even if a checked mode is ever pinned instead.)
        let mut reduced = GroupAccumulator::new(self.capacity);
        for partial in &outs {
            reduced.merge(partial);
        }
        reduced
    }
}

/// Per-epoch telemetry counters (reset by [`NativeEngine::take_epoch`]).
#[derive(Debug)]
struct Telemetry {
    /// IV bytes streamed from each socket's local memory.
    socket_bytes: Vec<AtomicU64>,
    /// IV bytes streamed per column.
    column_bytes: Vec<AtomicU64>,
    /// Statements executed per column.
    column_queries: Vec<AtomicU64>,
    /// Per-column gather bytes of fused aggregation pipelines (value and
    /// group columns read per qualifying row) — the heat signal that lets
    /// the placer see Q1-class load on columns no scan predicate touches.
    column_agg_bytes: Vec<AtomicU64>,
}

impl Telemetry {
    fn new(sockets: usize, columns: usize) -> Self {
        Telemetry {
            socket_bytes: (0..sockets).map(|_| AtomicU64::new(0)).collect(),
            column_bytes: (0..columns).map(|_| AtomicU64::new(0)).collect(),
            column_queries: (0..columns).map(|_| AtomicU64::new(0)).collect(),
            column_agg_bytes: (0..columns).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// One measurement epoch of the native engine: the utilization and heat
/// signals the adaptive data placer consumes, derived from real scan
/// telemetry instead of the simulator's hardware counters.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeEpoch {
    /// IV bytes streamed from each socket's local memory during the epoch.
    pub socket_bytes: Vec<u64>,
    /// Relative per-socket utilization: each socket's share of the epoch's
    /// memory traffic, scaled so the busiest socket reads 1.0 (all zero in an
    /// idle epoch). Byte-exact, so placer decisions driven by it are
    /// deterministic for a deterministic workload.
    pub utilization: Vec<f64>,
    /// Per-column heat statistics in [`AdaptiveDataPlacer::decide`]'s format.
    pub heats: Vec<ColumnHeat>,
}

impl NativeEpoch {
    /// Spread between the most and least utilized socket (0.0 when idle or
    /// perfectly balanced) — the imbalance measure of Figure 20.
    pub fn utilization_spread(&self) -> f64 {
        let max = self.utilization.iter().copied().fold(0.0f64, f64::max);
        let min = self.utilization.iter().copied().fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            max - min
        } else {
            0.0
        }
    }
}

/// How a statement waits, on either execution path: a count of outstanding
/// work items, the `(key, item)` outputs they deliver, and the statement's
/// cancellation token. Private tasks deliver one output each, keyed by
/// chunk index; shared sweeps deliver [`ChunkRef`]s keyed by global chunk
/// start and finish one item per attached part. The issuing thread blocks
/// on this statement alone, never on unrelated statements the pool runs
/// concurrently (unlike `ThreadPool::wait_idle`).
pub(crate) struct Collector<T> {
    state: Mutex<CollectorState<T>>,
    done: Condvar,
    /// Cancelled once the waiter is gone (deadline expiry or a failed item):
    /// queued private tasks are dropped at pickup, and sweeps purge the
    /// statement's attachments at their next chunk boundary.
    pub(crate) token: CancellationToken,
}

struct CollectorState<T> {
    /// Work items not yet finished.
    remaining: usize,
    /// Set when an item finished without delivering: its task unwound.
    failed: bool,
    items: Vec<(usize, T)>,
}

impl<T> Collector<T> {
    /// A collector waiting on `items` work items.
    pub(crate) fn new(items: usize) -> Self {
        Collector {
            state: Mutex::new(CollectorState {
                remaining: items,
                failed: false,
                items: Vec::new(),
            }),
            done: Condvar::new(),
            token: CancellationToken::new(),
        }
    }

    /// Delivers one output. Keys are unique per statement.
    pub(crate) fn push(&self, key: usize, item: T) {
        self.state.lock().items.push((key, item));
    }

    /// Marks one work item finished; `delivered` is false when it ended
    /// without its output, which fails the statement.
    pub(crate) fn finish(&self, delivered: bool) {
        let wake = {
            let mut state = self.state.lock();
            state.remaining -= 1;
            state.failed |= !delivered;
            state.remaining == 0 || !delivered
        };
        // Notified after the lock is released: a waiter woken while it was
        // still held would only block on it again, costing a second switch.
        if wake {
            self.done.notify_all();
        }
    }

    /// Blocks until every item finished, an item failed, or the optional
    /// absolute deadline expired, and returns the outputs sorted by key.
    /// A failed item answers [`EngineError::TaskPanicked`], an expired
    /// deadline [`EngineError::DeadlineExceeded`]; either way the token is
    /// cancelled, so the statement's outstanding work stops at its next
    /// chunk boundary. An expired deadline wins even if the items finished
    /// (or were dropped for it) before the waiter looked, so the answer does
    /// not depend on which thread got there first.
    pub(crate) fn wait(&self, deadline: Option<Instant>) -> Result<Vec<T>, EngineError> {
        let mut state = self.state.lock();
        let error = loop {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                break EngineError::DeadlineExceeded;
            }
            if state.failed {
                break EngineError::TaskPanicked;
            }
            if state.remaining == 0 {
                let mut items = std::mem::take(&mut state.items);
                items.sort_unstable_by_key(|(key, _)| *key);
                return Ok(items.into_iter().map(|(_, item)| item).collect());
            }
            match left {
                None => self.done.wait(&mut state),
                Some(left) => {
                    self.done.wait_for(&mut state, left);
                }
            }
        };
        self.token.cancel();
        Err(error)
    }
}

/// One work item's claim on its statement's collector — a private task, or
/// a statement's attachment to one part's sweep. Dropping it finishes the
/// item, delivered only if its owner set `delivered` first: a task cancelled
/// unrun, a task that unwound (the pool catches task panics to stay usable)
/// and an attachment dropped with a panicked sweep all still count the
/// statement down, so the waiter neither blocks forever nor reduces a short
/// answer.
pub(crate) struct Item<T> {
    pub(crate) collector: Arc<Collector<T>>,
    pub(crate) delivered: bool,
}

impl<T> Item<T> {
    /// Delivers a private task's one output under `key` and finishes it.
    fn deliver(mut self, key: usize, output: T) {
        self.collector.push(key, output);
        self.delivered = true;
    }
}

impl<T> Drop for Item<T> {
    fn drop(&mut self) {
        self.collector.finish(self.delivered);
    }
}

/// A column-store engine executing real scans on real worker threads.
pub struct NativeEngine {
    table: Arc<Table>,
    pool: ThreadPool,
    hint: ConcurrencyHint,
    sockets: usize,
    placements: RwLock<Vec<ColumnPlacement>>,
    telemetry: Telemetry,
    statement_epoch: AtomicU64,
    shared: Arc<SharedScanRegistry>,
    shared_mode: SharedScanMode,
}

impl NativeEngine {
    /// Creates an engine for `table` on a machine shaped like `topology`,
    /// scheduling with `strategy`, with round-robin placement and no steal
    /// throttle (the pre-adaptive defaults).
    pub fn new(table: Table, topology: &Topology, strategy: SchedulingStrategy) -> Self {
        Self::with_config(table, topology, NativeEngineConfig { strategy, ..Default::default() })
    }

    /// Creates an engine with full control over placement, scheduling and the
    /// steal throttle.
    pub fn with_config(table: Table, topology: &Topology, config: NativeEngineConfig) -> Self {
        let sockets = topology.socket_count();
        let placements = (0..table.column_count())
            .map(|c| Self::initial_placement(&table, c, sockets, config.placement))
            .collect();
        let pool = ThreadPool::new(
            topology,
            PoolConfig {
                strategy: config.strategy,
                workers_per_group: config.workers_per_group,
                steal_throttle: config.steal_throttle,
                ..PoolConfig::default()
            },
        );
        let table = Arc::new(table);
        NativeEngine {
            telemetry: Telemetry::new(sockets, table.column_count()),
            pool,
            hint: ConcurrencyHint::new(topology.total_contexts()),
            sockets,
            placements: RwLock::new(placements),
            statement_epoch: AtomicU64::new(0),
            shared: Arc::new(SharedScanRegistry::new(&table, config.shared_scans.chunk_rows)),
            shared_mode: config.shared_scans.mode,
            table,
        }
    }

    fn initial_placement(
        table: &Table,
        column: usize,
        sockets: usize,
        placement: PlacementStrategy,
    ) -> ColumnPlacement {
        let rows = table.row_count();
        match placement {
            PlacementStrategy::RoundRobin => ColumnPlacement {
                parts: vec![ColumnPart {
                    rows: 0..rows,
                    socket: SocketId((column % sockets) as u16),
                    data: None,
                }],
                generation: 0,
            },
            PlacementStrategy::IndexVectorPartitioned { parts } => {
                Self::ivp_placement(rows, parts, column, sockets)
            }
            PlacementStrategy::PhysicallyPartitioned { parts } => {
                Self::pp_placement(table.column(ColumnId(column)), parts, column, sockets)
            }
        }
    }

    /// IVP parts over the base column, spread round-robin over the sockets
    /// (offset by the column index so columns do not all start on socket 0).
    fn ivp_placement(rows: usize, parts: usize, column: usize, sockets: usize) -> ColumnPlacement {
        let parts = numascan_storage::ivp_ranges(rows, parts.max(1))
            .into_iter()
            .enumerate()
            .map(|(i, range)| ColumnPart {
                rows: range,
                socket: SocketId(((column + i) % sockets) as u16),
                data: None,
            })
            .collect();
        ColumnPlacement { parts, generation: 0 }
    }

    /// Physically rebuilt parts, spread like IVP parts.
    fn pp_placement(
        column_data: &DictColumn<i64>,
        parts: usize,
        column: usize,
        sockets: usize,
    ) -> ColumnPlacement {
        let pp = PhysicalPartitioning::create(column_data, parts.max(1));
        let parts = pp
            .into_parts()
            .into_iter()
            .enumerate()
            .map(|(i, part)| ColumnPart {
                rows: part.rows,
                socket: SocketId(((column + i) % sockets) as u16),
                data: Some(Arc::new(part.column)),
            })
            .collect();
        ColumnPlacement { parts, generation: 0 }
    }

    /// The table the engine serves.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The (virtual) socket holding the majority of a column's rows.
    pub fn column_socket(&self, column: ColumnId) -> SocketId {
        self.placements.read()[column.index()].primary_socket(self.sockets)
    }

    /// Number of placement parts a column currently has.
    pub fn column_partitions(&self, column: ColumnId) -> usize {
        self.placements.read()[column.index()].parts.len()
    }

    /// Executes one statement and blocks until it — and only it — completes.
    ///
    /// `active_statements` feeds the concurrency hint (the session layer
    /// passes its measured count). The statement is planned once — resolved
    /// columns, a placement snapshot, the zone-pruned parts — and then either
    /// split into concurrency-hint-many placement-aligned private tasks or,
    /// once the hint stops granting intra-statement parallelism (or under
    /// [`SharedScanMode::Always`]), attached to the cooperative shared sweep
    /// of each surviving part, so one SWAR sweep serves the whole waiting
    /// set. The request's shape picks the sink: a plain scan answers
    /// [`QueryResult::Rows`] in row order; a request carrying an
    /// [`AggSpec`](crate::AggSpec) folds qualifying rows straight from the
    /// mask stream into dense partial tables and answers
    /// [`QueryResult::Aggregate`] with *mergeable* states (call
    /// [`AggTable::finalize`](crate::AggTable::finalize) for final floats),
    /// so the cluster tier can forward it verbatim as a per-shard partial.
    /// Results are byte-identical on either path.
    ///
    /// The optional deadline is measured from this call and honoured at chunk
    /// boundaries: the statement stops waiting and answers
    /// [`EngineError::DeadlineExceeded`]. On the private path its
    /// not-yet-started tasks are cancelled (running chunks finish and are
    /// discarded); on the shared path its attachment is purged from the sweep
    /// at the next chunk boundary, leaving the sweep's refcounts — and every
    /// other attached statement — untouched. A task that panics — a private
    /// scan task, or the sweeper of an attached part — fails the statement
    /// with [`EngineError::TaskPanicked`] instead of a short answer or an
    /// endless wait; the rest of its work is cancelled the same way, a
    /// panicked sweep leaves the registry, and the engine serves the next
    /// statement normally.
    pub fn execute(
        &self,
        request: &ScanRequest,
        active_statements: usize,
    ) -> Result<QueryResult, EngineError> {
        let deadline = request.deadline.map(|d| Instant::now() + d);
        let plan = self.plan(request)?;
        let (Some(agg), Some(target)) = (&request.agg, plan.target) else {
            return self.run(&plan, RowSink, active_statements, deadline).map(QueryResult::Rows);
        };
        let reduced = self.run(&plan, target, active_statements, deadline)?;
        // Gather telemetry, recorded on completion: one 8-byte value read
        // per qualifying row per gathered column. Qualifying-row counts are
        // workload-deterministic, so the placer's aggregation-heat signal
        // replays byte-identically like the scan-side counters.
        let gathered = reduced.matched_rows() * 8;
        for column in target.columns() {
            self.telemetry.column_agg_bytes[column.index()].fetch_add(gathered, Ordering::Relaxed);
        }
        let group_column = target.group.map(|g| self.table.column(g));
        Ok(QueryResult::Aggregate(reduced.into_table(agg, group_column)))
    }

    /// Looks a column up by name.
    fn resolve(&self, name: &str) -> Result<(ColumnId, &DictColumn<i64>), EngineError> {
        self.table.column_by_name(name).ok_or_else(|| EngineError::UnknownColumn(name.to_string()))
    }

    /// Plans one statement: resolves its columns, snapshots the placement,
    /// registers the statement on every column it reads, and keeps the parts
    /// that can produce rows. This is the statement's only zone-map check and
    /// the only place demand-side scan telemetry is recorded.
    fn plan(&self, request: &ScanRequest) -> Result<PartPlan, EngineError> {
        let (column_id, base) = self.resolve(request.column())?;
        let target = match &request.agg {
            None => None,
            Some(agg) => {
                let value = self.resolve(&agg.value_column)?.0;
                let group = match agg.group_by.as_deref() {
                    None => None,
                    Some(name) => Some(self.resolve(name)?.0),
                };
                // The dense partial tables are sized by the group
                // *dictionary's* cardinality — never by a row-count or
                // selectivity estimate, whose empty-domain and bitcase-32
                // edges must not size allocations.
                let capacity = group
                    .map_or(1, |g| dense_group_capacity(self.table.column(g).dictionary().len()));
                Some(AggTarget { value, group, capacity })
            }
        };
        let ColumnPlacement { parts: placed, generation } =
            self.placements.read()[column_id.index()].clone();
        let epoch = self.statement_epoch.fetch_add(1, Ordering::SeqCst);
        // The statement registers on its columns before any byte is
        // recorded, so an epoch snapshot taken mid-statement can never show a
        // socket made hot by a column it reports as inactive. An
        // aggregation's gather targets register too: it heats columns no scan
        // predicate ever names.
        let gathers = target.iter().flat_map(AggTarget::columns);
        for column in std::iter::once(column_id).chain(gathers) {
            self.telemetry.column_queries[column.index()].fetch_add(1, Ordering::Relaxed);
        }

        let predicate = request.predicate();
        let placement_parts = placed.len();
        let mut parts = Vec::with_capacity(placement_parts);
        for (index, part) in placed.into_iter().enumerate() {
            if part.rows.is_empty() {
                continue;
            }
            let column: &DictColumn<i64> = part.data.as_deref().unwrap_or(base);
            let encoded = predicate.encode(column.dictionary());
            // PP parts scan their own rebuilt column with part-local
            // positions; base-column parts scan the shared IV with global
            // positions. Values come back in global row order either way
            // because parts (and chunks within them) are numbered in order.
            let local_base = if part.data.is_some() { 0 } else { part.rows.start };
            // Zone-map pruning: when the part's vid bounds prove no row can
            // match, skip it before any byte is counted — pruned parts cost
            // neither tasks, sweeps nor telemetry, exactly like rows never
            // stored, and a shared statement never waits on them.
            if column.prunes(local_base..local_base + part.rows.len(), &encoded) {
                continue;
            }
            // Telemetry is recorded at plan time and at *part* granularity,
            // one full pass per statement on either path: the byte count
            // depends only on the placement snapshot, never on how many tasks
            // the hint splits the part into or how many statements a sweep
            // amortized, so replays with identical seeds produce
            // byte-identical per-socket and per-column signals regardless of
            // thread interleavings. Attribution follows the data's socket —
            // whose memory controllers serve the traffic — not the executing
            // thread.
            let bytes = column.iv_scan_bytes(part.rows.len());
            self.telemetry.socket_bytes[part.socket.index()].fetch_add(bytes, Ordering::Relaxed);
            self.telemetry.column_bytes[column_id.index()].fetch_add(bytes, Ordering::Relaxed);
            parts.push(Arc::new(PlannedPart {
                key: SweepKey { column: column_id.index(), generation, part: index },
                socket: part.socket,
                rows: part.rows,
                column_id,
                data: part.data,
                local_base,
                encoded,
                bytes,
            }));
        }
        Ok(PartPlan { epoch, placement_parts, parts, target })
    }

    /// Whether a statement at this concurrency level shares sweeps.
    ///
    /// Auto mode engages exactly where the concurrency hint (Section 5.2)
    /// stops granting a statement more than one task per part anyway (one
    /// per socket at minimum) — below that point private scans still win
    /// intra-statement parallelism from splitting; above it they only
    /// multiply memory traffic.
    fn should_share(&self, active_statements: usize, parts: usize) -> bool {
        match self.shared_mode {
            SharedScanMode::Off => false,
            SharedScanMode::Always => true,
            SharedScanMode::Auto => {
                self.hint.suggested_tasks(active_statements) <= parts.max(self.sockets)
            }
        }
    }

    /// Routes a planned statement to the private or the shared path, waits
    /// for it on the path's [`Collector`], and reduces what the sink
    /// produced there into one output.
    fn run<S: Sink>(
        &self,
        plan: &PartPlan,
        sink: S,
        active_statements: usize,
        deadline: Option<Instant>,
    ) -> Result<S::Out, EngineError> {
        if self.should_share(active_statements, plan.placement_parts) {
            let chunks = self.attach_shared(plan).wait(deadline)?;
            Ok(sink.fold(&self.table, &chunks))
        } else {
            let sink = Arc::new(sink);
            let outs = self.run_private(plan, &sink, active_statements, deadline).wait(deadline)?;
            Ok(sink.reduce(outs))
        }
    }

    /// The private (per-statement) execution path: splits the plan into
    /// concurrency-hint-many tasks aligned to its parts and submits each
    /// with its part's socket affinity. The returned collector yields the
    /// sink's per-task outputs in chunk order — which is global row order.
    /// A deadline that passed before submission cancels the statement first,
    /// so every task is dropped at pickup rather than racing the waiter.
    fn run_private<S: Sink>(
        &self,
        plan: &PartPlan,
        sink: &Arc<S>,
        active_statements: usize,
        deadline: Option<Instant>,
    ) -> Arc<Collector<S::Out>> {
        // Round the suggested task count up to a multiple of the parts so
        // every task's range falls wholly inside one part (Section 5.2).
        let parts = plan.placement_parts;
        let total_tasks = self.hint.suggested_tasks_for_partitions(active_statements, parts);
        let tasks_per_part = (total_tasks / parts.max(1)).max(1);

        // Describe every task up front so the collector knows the exact
        // count before the first task can finish.
        let mut tasks = Vec::new();
        for part in &plan.parts {
            // The steal throttle's bandwidth estimate sees the pass a private
            // statement really streams (the shared path feeds it only when a
            // sweep starts).
            self.pool.record_scanned_bytes(part.socket, part.bytes);
            for range in numascan_storage::ivp_ranges(part.rows.len(), tasks_per_part) {
                if !range.is_empty() {
                    let rows = part.local_base + range.start..part.local_base + range.end;
                    tasks.push((Arc::clone(part), rows));
                }
            }
        }

        let collector = Arc::new(Collector::new(tasks.len()));
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            collector.token.cancel();
        }
        for (chunk, (part, rows)) in tasks.into_iter().enumerate() {
            let meta = TaskMeta {
                affinity: Some(part.socket),
                hard_affinity: false,
                priority: TaskPriority::new(plan.epoch, chunk as u64),
                work_class: WorkClass::MemoryIntensive,
                estimated_bytes: part.column(&self.table).iv_scan_bytes(rows.len()) as f64,
            };
            let (table, sink) = (Arc::clone(&self.table), Arc::clone(sink));
            // Moved *into* the closure (not created inside it): a cancelled
            // task's closure is dropped unrun and a panicking one unwinds,
            // and either way the item's drop still finishes it.
            let item = Item { collector: Arc::clone(&collector), delivered: false };
            self.pool.submit_cancellable(meta, collector.token.clone(), move || {
                item.deliver(chunk, sink.scan(&table, &part, rows));
            });
        }
        collector
    }

    /// The cooperative execution path: attaches the statement's planned
    /// parts to their shared sweeps — registering a sweep, and submitting
    /// the one pool task that runs it, only where none is in flight — and
    /// returns the collector the statement waits on, one item per part. The
    /// sweep is oblivious to what its waiters do with the served chunk
    /// streams, so scans and aggregates share it alike.
    ///
    /// The plan already recorded demand-side telemetry (one pass per
    /// statement per part); the *actual* streamed bytes are tracked in
    /// [`SharedScanStats::bytes_swept`], and the steal throttle's bandwidth
    /// estimate is fed one pass per started sweep (the attached statements
    /// add no traffic).
    fn attach_shared(&self, plan: &PartPlan) -> Arc<Collector<ChunkRef>> {
        let collector = Arc::new(Collector::new(plan.parts.len()));
        for part in &plan.parts {
            if let Some(ticket) = self.shared.attach(part, &collector) {
                self.pool.record_scanned_bytes(part.socket, part.bytes);
                let registry = Arc::clone(&self.shared);
                let meta = TaskMeta {
                    affinity: Some(part.socket),
                    hard_affinity: false,
                    priority: TaskPriority::new(plan.epoch, part.key.part as u64),
                    work_class: WorkClass::MemoryIntensive,
                    estimated_bytes: part.bytes as f64,
                };
                self.pool.submit(meta, move || registry.dispatch(ticket));
            }
        }
        collector
    }

    /// Counters of the cooperative shared-scan executor: sweeps started,
    /// queries attached (and how many joined mid-column), and the bytes a
    /// sweep actually streamed — compare with the demand-side epoch
    /// telemetry to read off the amortization factor.
    pub fn shared_scan_stats(&self) -> SharedScanStats {
        self.shared.stats()
    }

    // ------------------------------------------------------------------
    // Adaptive loop: telemetry out, placement actions in.
    // ------------------------------------------------------------------

    /// Snapshots and resets the epoch telemetry: per-socket bytes, the
    /// relative utilization estimate, and per-column heats — the native
    /// equivalents of the simulator-derived signals
    /// [`AdaptiveDataPlacer::decide`] was previously fed.
    pub fn take_epoch(&self) -> NativeEpoch {
        let socket_bytes: Vec<u64> =
            self.telemetry.socket_bytes.iter().map(|b| b.swap(0, Ordering::Relaxed)).collect();
        let column_bytes: Vec<u64> =
            self.telemetry.column_bytes.iter().map(|b| b.swap(0, Ordering::Relaxed)).collect();
        let column_queries: Vec<u64> =
            self.telemetry.column_queries.iter().map(|q| q.swap(0, Ordering::Relaxed)).collect();
        let column_agg_bytes: Vec<u64> =
            self.telemetry.column_agg_bytes.iter().map(|b| b.swap(0, Ordering::Relaxed)).collect();

        let max_bytes = socket_bytes.iter().copied().max().unwrap_or(0);
        let utilization: Vec<f64> = socket_bytes
            .iter()
            .map(|b| if max_bytes == 0 { 0.0 } else { *b as f64 / max_bytes as f64 })
            .collect();

        // Heat counts scan *and* aggregation traffic: a Q1-class pipeline
        // hammers its value/group columns with gathers even though no scan
        // predicate names them, and heat-driven moves must see that load.
        let total_bytes: u64 =
            column_bytes.iter().sum::<u64>() + column_agg_bytes.iter().sum::<u64>();
        let placements = self.placements.read();
        let heats = placements
            .iter()
            .enumerate()
            .map(|(c, placement)| ColumnHeat {
                column: ColumnRef { table: 0, column: c },
                primary_socket: placement.primary_socket(self.sockets),
                heat: if total_bytes == 0 {
                    0.0
                } else {
                    (column_bytes[c] + column_agg_bytes[c]) as f64 / total_bytes as f64
                },
                agg_bytes: column_agg_bytes[c],
                // Native scans stream the index vector; materialization is
                // position-driven gathers over the same rows.
                iv_intensive: true,
                partitions: placement.parts.len(),
                active: column_queries[c] > 0,
                part_layouts: placement
                    .parts
                    .iter()
                    .map(|part| {
                        let col: &DictColumn<i64> =
                            part.data.as_deref().unwrap_or_else(|| self.table.column(ColumnId(c)));
                        let rows = if part.data.is_some() {
                            0..col.row_count()
                        } else {
                            part.rows.clone()
                        };
                        PartLayoutStat {
                            layout: col.layout(),
                            run_fraction: col.run_fraction(rows),
                            rows: part.rows.len(),
                        }
                    })
                    .collect(),
            })
            .collect();
        NativeEpoch { socket_bytes, utilization, heats }
    }

    /// One step of the closed loop: feed `epoch`'s signals to the placer,
    /// apply the decision to the live engine, and return it.
    pub fn rebalance(&self, placer: &AdaptiveDataPlacer, epoch: &NativeEpoch) -> PlacerAction {
        let action = placer.decide(&epoch.utilization, &epoch.heats);
        self.apply_action(&action);
        action
    }

    /// Applies a placer decision to the live engine. Statements already in
    /// flight finish on the placement snapshot they took; new statements see
    /// the updated placement.
    pub fn apply_action(&self, action: &PlacerAction) {
        match action {
            PlacerAction::None => {}
            PlacerAction::MoveColumn { column, to } => {
                self.move_column_to(ColumnId(column.column), *to);
            }
            PlacerAction::RepartitionIvp { column, parts }
            | PlacerAction::DecreasePartitions { column, parts } => {
                self.repartition_ivp(ColumnId(column.column), *parts);
            }
            PlacerAction::RepartitionPp { column, parts } => {
                self.repartition_pp(ColumnId(column.column), *parts);
            }
            PlacerAction::Relayout { column, part, layout } => {
                self.relayout_part(ColumnId(column.column), *part, *layout);
            }
        }
    }

    /// Moves every part of a column to `to` (consolidation onto one socket).
    pub fn move_column_to(&self, column: ColumnId, to: SocketId) {
        let placement = &mut self.placements.write()[column.index()];
        // Bumped under the write lock (as below): in-flight shared sweeps
        // keyed on the old generation finish on their snapshot, while new
        // statements start sweeps keyed on the new one — the two never mix.
        placement.generation += 1;
        for part in &mut placement.parts {
            part.socket = to;
        }
    }

    /// Re-splits a column's index vector into `parts` row ranges spread over
    /// the sockets (IVP — cheap, keeps the base column's components intact).
    /// Also implements partition decreases.
    pub fn repartition_ivp(&self, column: ColumnId, parts: usize) {
        let placement =
            Self::ivp_placement(self.table.row_count(), parts, column.index(), self.sockets);
        let slot = &mut self.placements.write()[column.index()];
        *slot = ColumnPlacement { generation: slot.generation + 1, ..placement };
    }

    /// Physically rebuilds a column into `parts` self-contained columns
    /// spread over the sockets (PP — expensive, but every part then scans a
    /// dictionary and index vector of its own).
    pub fn repartition_pp(&self, column: ColumnId, parts: usize) {
        // Rebuild outside the write lock: statements keep executing on the
        // old placement while the parts are constructed.
        let placement =
            Self::pp_placement(self.table.column(column), parts, column.index(), self.sockets);
        let slot = &mut self.placements.write()[column.index()];
        *slot = ColumnPlacement { generation: slot.generation + 1, ..placement };
    }

    /// Re-encodes one placement part of a column into a different physical
    /// index-vector layout (hybrid per-partition storage, the live form of
    /// [`PlacerAction::Relayout`]). A part reading the base column is first
    /// rebuilt into a self-contained part column (the base column stays
    /// untouched for every other part), a physically rebuilt part converts a
    /// copy; either way the rebuild runs outside the placement lock and the
    /// swap bumps the column's placement generation, so in-flight statements
    /// and shared sweeps finish on the snapshot they took, new statements on
    /// the column start fresh sweeps, and other columns' sweeps are
    /// untouched. Returns whether the part changed (`false` when it is
    /// already in the requested layout, the part index is stale, or a
    /// concurrent repartition replaced the part).
    pub fn relayout_part(&self, column: ColumnId, part: usize, layout: IvLayoutKind) -> bool {
        let (rows, data) = {
            let placements = self.placements.read();
            let Some(p) = placements[column.index()].parts.get(part) else { return false };
            if p.rows.is_empty() {
                return false;
            }
            (p.rows.clone(), p.data.clone())
        };
        let rebuilt = match data {
            Some(col) => {
                if col.layout() == layout {
                    return false;
                }
                let mut col = (*col).clone();
                col.relayout(layout);
                Arc::new(col)
            }
            None => {
                let base = self.table.column(column);
                if base.layout() == layout {
                    return false;
                }
                let mut col = base.rebuild_range(
                    format!("{}#{}-{}", base.name(), rows.start, rows.end),
                    rows.clone(),
                    false,
                );
                col.relayout(layout);
                Arc::new(col)
            }
        };
        let placement = &mut self.placements.write()[column.index()];
        let Some(p) = placement.parts.get_mut(part) else { return false };
        if p.rows != rows {
            // The placement changed while we rebuilt; the advisor will see
            // the new placement's stats next epoch.
            return false;
        }
        p.data = Some(rebuilt);
        placement.generation += 1;
        true
    }

    /// The physical index-vector layout of one placement part (`None` for an
    /// out-of-range part index).
    pub fn column_part_layout(&self, column: ColumnId, part: usize) -> Option<IvLayoutKind> {
        let placements = self.placements.read();
        placements[column.index()]
            .parts
            .get(part)
            .map(|p| p.data.as_deref().unwrap_or_else(|| self.table.column(column)).layout())
    }

    /// Closes the worker pool's bandwidth epoch (steal-throttle telemetry)
    /// and returns the utilization estimate when a throttle is configured.
    pub fn advance_bandwidth_epoch(&self, elapsed: Duration) -> Option<Vec<f64>> {
        self.pool.advance_bandwidth_epoch(elapsed)
    }

    /// Scheduler statistics accumulated so far, including the wakeup-routing
    /// counters (`targeted_wakeups`/`chained_wakeups`, with
    /// `watchdog_wakeups` at zero as long as no wakeup had to be rescued) and
    /// the steal-throttle counters (`steal_throttle_bound`/
    /// `steal_throttle_released`, with `affinity_violations` always zero).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.pool.stats()
    }

    /// Shuts the engine down, joining its worker threads.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numascan_storage::TableBuilder;

    fn table(rows: usize) -> Table {
        let values: Vec<i64> = (0..rows as i64).map(|i| (i * 7919) % 1000).collect();
        let ids: Vec<i64> = (0..rows as i64).collect();
        TableBuilder::new("tbl")
            .add_values("id", &ids, false)
            .add_values("payload", &values, false)
            .build()
    }

    fn small_topology() -> Topology {
        Topology::four_socket_ivybridge_ex()
    }

    fn reference_between(rows: usize, lo: i64, hi: i64) -> Vec<i64> {
        (0..rows as i64).map(|i| (i * 7919) % 1000).filter(|v| (lo..=hi).contains(v)).collect()
    }

    #[test]
    fn native_scan_returns_exactly_the_matching_values() {
        let rows = 100_000;
        let engine = NativeEngine::new(table(rows), &small_topology(), SchedulingStrategy::Bound);
        let values =
            engine.execute(&ScanRequest::between("payload", 100, 199), 1).unwrap().into_rows();
        assert_eq!(values, reference_between(rows, 100, 199));
        engine.shutdown();
    }

    #[test]
    fn every_placement_returns_values_in_row_order() {
        let rows = 40_000;
        let expected = reference_between(rows, 200, 449);
        for placement in [
            PlacementStrategy::RoundRobin,
            PlacementStrategy::IndexVectorPartitioned { parts: 4 },
            PlacementStrategy::PhysicallyPartitioned { parts: 4 },
        ] {
            let engine = NativeEngine::with_config(
                table(rows),
                &small_topology(),
                NativeEngineConfig { placement, ..Default::default() },
            );
            let values =
                engine.execute(&ScanRequest::between("payload", 200, 449), 3).unwrap().into_rows();
            assert_eq!(values, expected, "placement {placement:?}");
            engine.shutdown();
        }
    }

    #[test]
    fn in_list_scans_match_a_reference_filter() {
        let rows = 30_000;
        let engine = NativeEngine::new(table(rows), &small_topology(), SchedulingStrategy::Target);
        let picks = [7i64, 101, 555, 999];
        let values = engine
            .execute(&ScanRequest::in_list("payload", picks.to_vec()), 2)
            .unwrap()
            .into_rows();
        let expected: Vec<i64> =
            (0..rows as i64).map(|i| (i * 7919) % 1000).filter(|v| picks.contains(v)).collect();
        assert_eq!(values, expected);
        engine.shutdown();
    }

    #[test]
    fn concurrency_hint_controls_task_granularity() {
        let engine = NativeEngine::new(table(50_000), &small_topology(), SchedulingStrategy::Bound);
        // Low concurrency: many tasks per query.
        engine.execute(&ScanRequest::between("payload", 0, 999), 1).unwrap().into_rows().len();
        let low_tasks = engine.scheduler_stats().executed;
        // High concurrency: a single task.
        engine.execute(&ScanRequest::between("payload", 0, 999), 10_000).unwrap().into_rows().len();
        let delta = engine.scheduler_stats().executed - low_tasks;
        assert!(
            low_tasks > delta,
            "low concurrency should produce more tasks ({low_tasks} vs {delta})"
        );
        assert_eq!(delta, 1);
        engine.shutdown();
    }

    #[test]
    fn scans_are_dispatched_by_targeted_wakeups() {
        let engine = NativeEngine::new(table(50_000), &small_topology(), SchedulingStrategy::Bound);
        for _ in 0..5 {
            engine.execute(&ScanRequest::between("payload", 0, 499), 1).unwrap().into_rows().len();
        }
        let stats = engine.scheduler_stats();
        assert!(stats.executed > 0);
        // Workers sleep between queries, so the submit path must have routed
        // wakeups; the watchdog backstop must not have been needed.
        assert!(stats.targeted_wakeups > 0, "no targeted wakeups recorded: {stats:?}");
        assert_eq!(stats.watchdog_wakeups, 0, "watchdog had to rescue a task: {stats:?}");
        assert_eq!(stats.affinity_violations, 0, "a hard task ran off-socket: {stats:?}");
        engine.shutdown();
    }

    #[test]
    fn unknown_columns_return_none() {
        let engine = NativeEngine::new(table(1_000), &small_topology(), SchedulingStrategy::Target);
        assert!(engine.execute(&ScanRequest::between("nope", 0, 1), 1).is_err());
        engine.shutdown();
    }

    #[test]
    fn full_range_scan_returns_every_row() {
        let rows = 20_000;
        let engine = NativeEngine::new(table(rows), &small_topology(), SchedulingStrategy::Os);
        let count = engine
            .execute(&ScanRequest::between("id", 0, rows as i64), 4)
            .unwrap()
            .into_rows()
            .len();
        assert_eq!(count, rows);
        engine.shutdown();
    }

    #[test]
    fn telemetry_attributes_bytes_to_the_data_socket() {
        let engine = NativeEngine::new(table(64_000), &small_topology(), SchedulingStrategy::Bound);
        // "payload" is column 1 -> socket 1 under round-robin placement.
        engine.execute(&ScanRequest::between("payload", 0, 999), 1).unwrap().into_rows().len();
        let epoch = engine.take_epoch();
        assert!(epoch.socket_bytes[1] > 0, "{epoch:?}");
        assert_eq!(epoch.socket_bytes[0], 0);
        assert_eq!(epoch.utilization[1], 1.0);
        assert!((epoch.utilization_spread() - 1.0).abs() < 1e-12);
        let heats = &epoch.heats;
        assert!((heats[1].heat - 1.0).abs() < 1e-12, "all traffic hit the payload column");
        assert!(heats[1].active && !heats[0].active);
        // The snapshot reset the counters.
        let idle = engine.take_epoch();
        assert_eq!(idle.socket_bytes, vec![0; 4]);
        assert_eq!(idle.utilization_spread(), 0.0);
        engine.shutdown();
    }

    #[test]
    fn live_repartitioning_spreads_traffic_and_preserves_results() {
        let rows = 48_000;
        let engine = NativeEngine::new(table(rows), &small_topology(), SchedulingStrategy::Bound);
        let before =
            engine.execute(&ScanRequest::between("payload", 100, 299), 1).unwrap().into_rows();
        let (payload, _) = engine.table().column_by_name("payload").unwrap();
        assert_eq!(engine.column_partitions(payload), 1);
        engine.take_epoch();

        engine.repartition_ivp(payload, 4);
        assert_eq!(engine.column_partitions(payload), 4);
        let after =
            engine.execute(&ScanRequest::between("payload", 100, 299), 1).unwrap().into_rows();
        assert_eq!(after, before, "IVP repartitioning must not change results");
        let epoch = engine.take_epoch();
        assert!(
            epoch.socket_bytes.iter().all(|b| *b > 0),
            "IVP spread traffic over every socket: {epoch:?}"
        );

        engine.repartition_pp(payload, 2);
        let after_pp =
            engine.execute(&ScanRequest::between("payload", 100, 299), 1).unwrap().into_rows();
        assert_eq!(after_pp, before, "PP repartitioning must not change results");

        engine.move_column_to(payload, SocketId(3));
        assert_eq!(engine.column_socket(payload), SocketId(3));
        let moved =
            engine.execute(&ScanRequest::between("payload", 100, 299), 1).unwrap().into_rows();
        assert_eq!(moved, before, "moving a column must not change results");
        engine.shutdown();
    }

    #[test]
    fn zone_maps_prune_parts_the_predicate_cannot_match() {
        // A sorted column under IVP: parts cover disjoint vid ranges, so a
        // narrow Between prunes three of four parts before any byte is
        // counted — their sockets must record zero traffic.
        let rows = 64_000usize;
        let ids: Vec<i64> = (0..rows as i64).collect();
        let table = TableBuilder::new("tbl").add_values("id", &ids, false).build();
        let engine = NativeEngine::with_config(
            table,
            &small_topology(),
            NativeEngineConfig {
                placement: PlacementStrategy::IndexVectorPartitioned { parts: 4 },
                ..Default::default()
            },
        );
        let values = engine.execute(&ScanRequest::between("id", 100, 199), 1).unwrap().into_rows();
        assert_eq!(values, (100..=199).collect::<Vec<i64>>());
        let epoch = engine.take_epoch();
        let touched = epoch.socket_bytes.iter().filter(|b| **b > 0).count();
        assert_eq!(touched, 1, "only the overlapping part may be scanned: {epoch:?}");
        // A range outside every zone scans nothing at all.
        assert_eq!(
            engine
                .execute(&ScanRequest::between("id", rows as i64 + 10, rows as i64 + 20), 1)
                .unwrap()
                .into_rows(),
            []
        );
        assert_eq!(engine.take_epoch().socket_bytes, vec![0; 4]);
        engine.shutdown();
    }

    #[test]
    fn shared_sweeps_are_never_registered_for_pruned_parts() {
        let rows = 64_000usize;
        let ids: Vec<i64> = (0..rows as i64).collect();
        let table = TableBuilder::new("tbl").add_values("id", &ids, false).build();
        let engine = NativeEngine::with_config(
            table,
            &small_topology(),
            NativeEngineConfig {
                placement: PlacementStrategy::IndexVectorPartitioned { parts: 4 },
                shared_scans: SharedScanConfig {
                    mode: SharedScanMode::Always,
                    ..SharedScanConfig::default()
                },
                ..Default::default()
            },
        );
        let values = engine.execute(&ScanRequest::between("id", 100, 199), 8).unwrap().into_rows();
        assert_eq!(values, (100..=199).collect::<Vec<i64>>());
        let stats = engine.shared_scan_stats();
        assert_eq!(stats.sweeps_started, 1, "pruned parts must not register sweeps: {stats:?}");
        assert_eq!(stats.rows_swept, rows as u64 / 4, "one part's pass, not the column's");
        // All parts pruned: the statement completes immediately, empty.
        assert_eq!(
            engine.execute(&ScanRequest::between("id", -50, -10), 8).unwrap().into_rows(),
            []
        );
        assert_eq!(engine.shared_scan_stats().sweeps_started, 1);
        engine.shutdown();
    }

    #[test]
    fn live_relayout_converts_parts_and_preserves_results() {
        // Sorted low-cardinality data: 480 distinct values in runs of 100
        // rows — the layout RLE is built for.
        let rows = 48_000usize;
        let ids: Vec<i64> = (0..rows as i64).map(|i| i / 100).collect();
        let table = TableBuilder::new("tbl").add_values("id", &ids, false).build();
        let engine = NativeEngine::new(table, &small_topology(), SchedulingStrategy::Bound);
        let (id, _) = engine.table().column_by_name("id").unwrap();
        let before = engine.execute(&ScanRequest::between("id", 100, 200), 1).unwrap().into_rows();
        assert_eq!(before.len(), 101 * 100);
        assert_eq!(engine.column_part_layout(id, 0), Some(IvLayoutKind::BitPacked));

        assert!(engine.relayout_part(id, 0, IvLayoutKind::Rle));
        assert_eq!(engine.column_part_layout(id, 0), Some(IvLayoutKind::Rle));
        let rle = engine.execute(&ScanRequest::between("id", 100, 200), 1).unwrap().into_rows();
        assert_eq!(rle, before, "relayout must not change results");

        // Converting back and converting to the current layout are handled.
        assert!(engine.relayout_part(id, 0, IvLayoutKind::BitPacked));
        assert!(!engine.relayout_part(id, 0, IvLayoutKind::BitPacked), "no-op relayout");
        assert!(!engine.relayout_part(id, 99, IvLayoutKind::Rle), "stale part index");
        assert_eq!(
            engine.execute(&ScanRequest::between("id", 100, 200), 1).unwrap().into_rows(),
            before
        );

        // The epoch telemetry reports the live layout and run fraction.
        engine.relayout_part(id, 0, IvLayoutKind::Rle);
        engine.execute(&ScanRequest::between("id", 0, 10), 1).unwrap().into_rows().len();
        let epoch = engine.take_epoch();
        let stats = &epoch.heats[id.index()].part_layouts;
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].layout, IvLayoutKind::Rle);
        assert!(stats[0].run_fraction < 0.02, "runs of 100 rows: {stats:?}");
        engine.shutdown();
    }

    #[test]
    fn fused_aggregation_matches_the_oracle_across_placements_and_paths() {
        use crate::aggregate::{oracle_aggregate, AggFunc, AggSpec};
        let rows = 40_000usize;
        let payload: Vec<i64> = (0..rows as i64).map(|i| (i * 7919) % 1000).collect();
        let flag: Vec<i64> = (0..rows as i64).map(|i| i % 3).collect();
        let build = || {
            TableBuilder::new("tbl")
                .add_values("payload", &payload, false)
                .add_values("flag", &flag, false)
                .build()
        };
        let agg = AggSpec::new(
            "payload",
            vec![AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg],
        )
        .with_group_by("flag");
        let request = ScanRequest::between("payload", 100, 649).with_aggregate(agg.clone());
        let expected = oracle_aggregate(&build(), "payload", &request.predicate(), &agg);
        for placement in [
            PlacementStrategy::RoundRobin,
            PlacementStrategy::IndexVectorPartitioned { parts: 4 },
            PlacementStrategy::PhysicallyPartitioned { parts: 4 },
        ] {
            for mode in [SharedScanMode::Off, SharedScanMode::Always] {
                let engine = NativeEngine::with_config(
                    build(),
                    &small_topology(),
                    NativeEngineConfig {
                        placement,
                        shared_scans: SharedScanConfig { mode, ..SharedScanConfig::default() },
                        ..Default::default()
                    },
                );
                let got = engine.execute(&request, 3).unwrap().into_aggregate();
                assert_eq!(got, expected, "placement {placement:?}, mode {mode:?}");
                engine.shutdown();
            }
        }
    }

    #[test]
    fn aggregation_gathers_register_as_heat_on_value_and_group_columns() {
        use crate::aggregate::{AggFunc, AggSpec};
        let rows = 32_000usize;
        let payload: Vec<i64> = (0..rows as i64).map(|i| (i * 13) % 100).collect();
        let price: Vec<i64> = (0..rows as i64).map(|i| i % 500).collect();
        let flag: Vec<i64> = (0..rows as i64).map(|i| i % 4).collect();
        let table = TableBuilder::new("tbl")
            .add_values("payload", &payload, false)
            .add_values("price", &price, false)
            .add_values("flag", &flag, false)
            .build();
        let engine = NativeEngine::new(table, &small_topology(), SchedulingStrategy::Bound);
        let agg = AggSpec::new("price", vec![AggFunc::Sum]).with_group_by("flag");
        engine.execute(&ScanRequest::between("payload", 0, 49).with_aggregate(agg), 1).unwrap();
        let epoch = engine.take_epoch();
        let by_name = |name: &str| {
            let (id, _) = engine.table().column_by_name(name).unwrap();
            &epoch.heats[id.index()]
        };
        // The filter column streams its IV; value and group columns are only
        // gathered, and must still light up through agg_bytes.
        assert!(by_name("price").agg_bytes > 0, "{epoch:?}");
        assert!(by_name("flag").agg_bytes > 0, "{epoch:?}");
        assert_eq!(by_name("payload").agg_bytes, 0);
        assert!(by_name("price").heat > 0.0, "gather traffic must count as heat");
        assert!(by_name("price").active && by_name("flag").active);
        engine.shutdown();
    }

    #[test]
    fn rebalance_step_repartitions_a_measured_native_hotspot() {
        let engine = NativeEngine::new(table(64_000), &small_topology(), SchedulingStrategy::Bound);
        for _ in 0..4 {
            engine.execute(&ScanRequest::between("payload", 0, 499), 2).unwrap().into_rows().len();
        }
        let epoch = engine.take_epoch();
        let placer = AdaptiveDataPlacer::default();
        let action = engine.rebalance(&placer, &epoch);
        let (payload, _) = engine.table().column_by_name("payload").unwrap();
        assert!(
            matches!(action, PlacerAction::RepartitionIvp { column, .. }
                if column.column == payload.index()),
            "the dominating hot column should be IVP-partitioned, got {action:?}"
        );
        assert!(engine.column_partitions(payload) > 1);
        engine.shutdown();
    }

    #[test]
    fn a_placement_change_rekeys_only_the_changed_columns_sweeps() {
        let engine = NativeEngine::with_config(
            table(8_000),
            &small_topology(),
            NativeEngineConfig {
                placement: PlacementStrategy::IndexVectorPartitioned { parts: 2 },
                ..Default::default()
            },
        );
        let (id, payload) = (ColumnId(0), ColumnId(1));
        let request = ScanRequest::between("payload", 0, 999);
        let keys =
            || engine.plan(&request).unwrap().parts.iter().map(|p| p.key).collect::<Vec<_>>();
        let before = keys();
        assert_eq!(before.len(), 2);
        engine.move_column_to(id, SocketId(2));
        assert_eq!(keys(), before, "moving another column must leave these sweeps joinable");
        engine.move_column_to(payload, SocketId(2));
        assert_ne!(keys(), before, "moving this column must start fresh sweeps");
        engine.shutdown();
    }

    /// A row sink whose first task of every part panics.
    struct PanickingSink;

    impl Sink for PanickingSink {
        type Out = Vec<i64>;

        fn scan(&self, table: &Table, part: &PlannedPart, rows: Range<usize>) -> Vec<i64> {
            if rows.start == part.local_base {
                panic!("injected task panic");
            }
            RowSink.scan(table, part, rows)
        }

        fn fold(&self, table: &Table, chunks: &[ChunkRef]) -> Vec<i64> {
            RowSink.fold(table, chunks)
        }

        fn reduce(&self, outs: Vec<Vec<i64>>) -> Vec<i64> {
            RowSink.reduce(outs)
        }
    }

    #[test]
    fn a_panicking_private_task_fails_its_statement_typed() {
        let rows = 40_000;
        let engine = NativeEngine::new(table(rows), &small_topology(), SchedulingStrategy::Bound);
        let (payload, _) = engine.table().column_by_name("payload").unwrap();
        // The deadline bounds a wedged waiter; the failure must come first.
        let request =
            ScanRequest::between("payload", 100, 199).with_deadline(Duration::from_secs(20));
        for layout in [IvLayoutKind::BitPacked, IvLayoutKind::Rle] {
            engine.relayout_part(payload, 0, layout);
            let plan = engine.plan(&request).unwrap();
            let deadline = Some(Instant::now() + Duration::from_secs(20));
            let got = engine.run(&plan, PanickingSink, 1, deadline).map(|rows| rows.len());
            assert_eq!(got, Err(EngineError::TaskPanicked), "{layout:?}: a short answer passed");
            // The same engine and part serve the next statement in full.
            let values = engine.execute(&request, 1).unwrap().into_rows();
            assert_eq!(values, reference_between(rows, 100, 199), "{layout:?}");
        }
        engine.shutdown();
    }

    #[test]
    fn a_panicking_sweeper_fails_its_statement_and_frees_the_part() {
        let rows = 40_000;
        let engine = NativeEngine::with_config(
            table(rows),
            &small_topology(),
            NativeEngineConfig {
                shared_scans: SharedScanConfig { mode: SharedScanMode::Always, chunk_rows: 4_096 },
                ..Default::default()
            },
        );
        let (payload, _) = engine.table().column_by_name("payload").unwrap();
        let request =
            ScanRequest::between("payload", 100, 199).with_deadline(Duration::from_secs(20));
        for layout in [IvLayoutKind::BitPacked, IvLayoutKind::Rle] {
            engine.relayout_part(payload, 0, layout);
            let started = engine.shared_scan_stats().sweeps_started;
            engine.shared.panic_next_chunk();
            assert_eq!(engine.execute(&request, 8), Err(EngineError::TaskPanicked), "{layout:?}");
            // The panicked sweep left the registry: the next statement on
            // the part starts a fresh sweep and is served in full instead of
            // joining the dead one.
            let values = engine.execute(&request, 8).unwrap().into_rows();
            assert_eq!(values, reference_between(rows, 100, 199), "{layout:?}");
            assert_eq!(engine.shared_scan_stats().sweeps_started, started + 2, "{layout:?}");
        }
        engine.shutdown();
    }
}
