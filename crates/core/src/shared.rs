//! Cooperative shared scans: one sweep serves the whole waiting set.
//!
//! Under high concurrency every admitted statement sweeping its column
//! privately costs client-count× the memory traffic of one scan — exactly
//! what the paper's premise (scans should scale with *bandwidth*, not client
//! count) forbids. The fix, following the cooperative-scan line of work
//! referenced in PAPERS.md ("From Cooperative Scans to Predictive Buffer
//! Management"): keep one circular **sweep** per (column, placement
//! generation, part) in flight and let every new statement *attach* to it
//! instead of starting its own.
//!
//! The protocol, per part:
//!
//! * the first statement to arrive registers a sweep and receives a dispatch
//!   ticket; the engine submits one pool task (with the part's socket
//!   affinity) that will run the sweep;
//! * later statements attach to the registered sweep — mid-column joins are
//!   the point: a late query is activated at the next chunk boundary, covers
//!   the tail of the current pass, and the sweep keeps circling so the
//!   wrap-around pass serves the prefix the query missed; every query is
//!   served exactly the part's row count from its join point;
//! * each chunk is evaluated once for the *whole* waiting set through the
//!   batched SWAR kernel ([`numascan_storage::scan_positions_batch`]): the
//!   packed words are read from memory once regardless of how many queries
//!   are attached;
//! * a query detaches when it has been served the full part; when the last
//!   query detaches and no new one is pending at the chunk boundary, the
//!   sweep closes and removes itself from the registry.
//!
//! Because activation happens only at chunk boundaries, an active query's
//! next unserved row always equals the sweep cursor, so per-query trimming
//! is a prefix cut of the chunk's match list — results concatenate (sorted
//! by global chunk start) into exactly the ascending row order a private
//! scan produces, byte for byte.
//!
//! When a pool worker picks up a dispatch ticket it does not blindly run the
//! sweep that created the ticket: a **relevance policy** re-decides which of
//! the not-yet-claimed sweeps homed on the worker's socket serves the most
//! demand (waiting queries × remaining bytes), so freed tasks always sweep
//! where the waiting set is thickest while placement alignment is preserved.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use numascan_numasim::SocketId;
use numascan_storage::{scan_positions_batch, ColumnId, DictColumn, EncodedPredicate, Table};
use parking_lot::Mutex;

use crate::native::StatementLatch;

/// When the engine routes a statement through the shared-scan executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedScanMode {
    /// Never share: every statement sweeps privately (the pre-cooperative
    /// behaviour, and the baseline the release perf gate measures against).
    Off,
    /// Share exactly when the concurrency hint stops granting a statement
    /// intra-statement parallelism beyond one task per part — the regime
    /// where private sweeps only multiply memory traffic. Low-concurrency
    /// statements keep the private parallel path (and its deterministic
    /// telemetry replay) untouched.
    Auto,
    /// Always share, regardless of concurrency (used by tests and the
    /// `scan_sharing` experiment to measure the sharing machinery itself).
    Always,
}

/// Configuration of the shared-scan executor.
#[derive(Debug, Clone)]
pub struct SharedScanConfig {
    /// Sharing policy; [`SharedScanMode::Auto`] by default.
    pub mode: SharedScanMode,
    /// Rows per sweep chunk: the granularity of mid-column joins and of
    /// detach checks. Large enough that the per-chunk bookkeeping (two brief
    /// lock acquisitions) is noise, small enough that late arrivals start
    /// being served promptly.
    pub chunk_rows: usize,
}

impl Default for SharedScanConfig {
    fn default() -> Self {
        SharedScanConfig { mode: SharedScanMode::Auto, chunk_rows: 64 * 1024 }
    }
}

/// Counters describing the shared-scan executor's work so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedScanStats {
    /// Sweeps registered (one per (column, generation, part) that had no
    /// sweep in flight when a shared statement arrived).
    pub sweeps_started: u64,
    /// Per-part query attachments admitted by the executor.
    pub queries_attached: u64,
    /// Attachments that joined a sweep already registered by an earlier
    /// statement instead of starting their own.
    pub late_attaches: u64,
    /// Queries activated mid-column (their pass wraps around to cover the
    /// prefix the sweep had already passed).
    pub wraparound_joins: u64,
    /// Chunks evaluated (each one batched over the whole waiting set).
    pub chunks_swept: u64,
    /// Rows covered by evaluated chunks.
    pub rows_swept: u64,
    /// Index-vector bytes actually streamed by sweeps — compare with the
    /// demand-side telemetry (which counts one pass per statement) to see
    /// the amortization factor.
    pub bytes_swept: u64,
    /// Dispatch tickets that the relevance policy redirected to a more
    /// relevant sweep than the one whose registration created the ticket.
    pub relevance_redirects: u64,
    /// Attachments purged at a chunk boundary because their statement's
    /// deadline expired while it waited. The purged statement's rows stop
    /// being swept; every other attachment — and the sweep's completion
    /// accounting — is untouched.
    pub deadline_detaches: u64,
}

/// Identity of one sweep: a column part under one placement snapshot. The
/// generation is bumped on every placement change, so a sweep can never mix
/// rows from two different placements of the same column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SweepKey {
    /// Column index in the table.
    pub column: usize,
    /// Placement generation the part belongs to.
    pub generation: u64,
    /// Part index within the column's placement.
    pub part: usize,
}

/// One chunk's share of a statement's result, deferred: the sweeper hands
/// out the chunk's match list (shared across every query that asked for it)
/// and the *client* trims and materializes (or folds) on its own thread
/// after [`SharedCollector::wait_raw_until`]. The sweeper's per-query cost
/// per chunk is one `Arc` clone — decode work never serializes behind the
/// sweep.
pub(crate) struct ChunkRef {
    /// First global row of the chunk (keys the result ordering).
    global_start: usize,
    /// First column-coordinate row of the chunk (the trim origin).
    scan_lo: usize,
    /// Rows of the chunk this query asked for (a prefix; shorter than the
    /// chunk only on the query's final chunk of a pass).
    take: usize,
    /// Ascending match positions of the whole chunk, shared by every query
    /// whose predicate collapsed to this kernel lane.
    positions: Arc<Vec<u32>>,
    /// Keeps the scanned column alive until the client materializes.
    sweep: Arc<PartSweep>,
}

impl ChunkRef {
    /// This query's share of the chunk's match positions: ascending
    /// column-coordinate positions, prefix-cut to the rows the query asked
    /// for (the cut matters only on the query's final chunk of a pass).
    pub(crate) fn served_positions(&self) -> &[u32] {
        let cut = (self.scan_lo + self.take) as u32;
        let keep = self.positions.partition_point(|&p| p < cut);
        &self.positions[..keep]
    }

    /// The scanned column the positions index into (the physically rebuilt
    /// part column when there is one, the base column otherwise).
    pub(crate) fn column(&self) -> &DictColumn<i64> {
        self.sweep.column()
    }

    /// What to add to a [`ChunkRef::served_positions`] position to reach the
    /// global base-table row: zero for base-column sweeps (their coordinates
    /// *are* global rows), the part's global base for physically rebuilt
    /// parts (whose coordinates are part-local).
    pub(crate) fn global_row_offset(&self) -> usize {
        self.sweep.global_base - self.sweep.local_base
    }
}

/// Where one statement's shared results accumulate: chunk references are
/// pushed tagged with their global row start, and the issuing client blocks
/// until every attached part has fully served the statement.
pub(crate) struct SharedCollector {
    /// Counts the attached parts that have not yet served the statement.
    latch: StatementLatch,
    chunks: Mutex<Vec<ChunkRef>>,
    /// Set when the waiting statement's deadline expired: the waiter is gone,
    /// so sweeps purge this collector's attachments at their next chunk
    /// boundary instead of serving (and completing) them.
    cancelled: AtomicBool,
}

impl SharedCollector {
    /// A collector waiting on `parts` per-part completions.
    pub(crate) fn new(parts: usize) -> Self {
        SharedCollector {
            latch: StatementLatch::new(parts),
            chunks: Mutex::new(Vec::new()),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Whether the waiting statement gave up (deadline expiry).
    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Marks the collector abandoned, as deadline expiry does.
    #[cfg(test)]
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Appends one chunk reference (no-op for chunks with no matches).
    fn push(&self, chunk: ChunkRef) {
        if !chunk.positions.is_empty() {
            self.chunks.lock().push(chunk);
        }
    }

    /// Marks one attached part as fully served.
    fn complete_part(&self) {
        self.latch.count_down();
    }

    /// Blocks until every part completed, then materializes the statement's
    /// values in global row order.
    #[cfg(test)]
    pub(crate) fn wait(&self) -> Vec<i64> {
        let chunks = self.wait_raw_until(None).expect("waits without a deadline cannot expire");
        chunks
            .iter()
            .flat_map(|c| numascan_storage::materialize_positions(c.column(), c.served_positions()))
            .collect()
    }

    /// Blocks until every part completed (or the optional absolute deadline
    /// expired) and returns the served chunk references sorted by global row
    /// start; the waiter trims, materializes or folds them on its own thread,
    /// so one sweep serves scan and aggregate statements alike. Returns
    /// `None` exactly when the deadline expired first; the collector is then
    /// marked cancelled so every sweep it is attached to purges the
    /// attachment at its next chunk boundary.
    pub(crate) fn wait_raw_until(&self, deadline: Option<Instant>) -> Option<Vec<ChunkRef>> {
        if !self.latch.wait_until(deadline) {
            self.cancelled.store(true, Ordering::SeqCst);
            return None;
        }
        let mut chunks = std::mem::take(&mut *self.chunks.lock());
        // Chunk starts are unique per statement (parts partition the row
        // space and chunks partition each pass), so sorting by start and
        // concatenating reproduces the sequential scan order exactly.
        chunks.sort_unstable_by_key(|chunk| chunk.global_start);
        Some(chunks)
    }
}

/// One query attached to a sweep.
struct Attached {
    predicate: Arc<EncodedPredicate>,
    /// Rows served so far (the query detaches at `len`).
    served: usize,
    collector: Arc<SharedCollector>,
}

/// Mutable state of a sweep, guarded by the sweep's own lock (acquired
/// strictly *after* the registry lock where both are held).
struct SweepState {
    /// Next part-local row the sweep will serve; wraps at `len`.
    cursor: usize,
    /// Queries being served. Only the owning sweeper task mutates this.
    active: Vec<Attached>,
    /// Queries waiting for the next chunk boundary to activate.
    pending: Vec<Attached>,
    /// Set (under both locks) when the sweep removed itself from the
    /// registry; attachers can never observe it, it documents the protocol.
    closed: bool,
}

/// One circular sweep over one column part.
struct PartSweep {
    key: SweepKey,
    socket: SocketId,
    /// First global row of the part (keys the result ordering).
    global_base: usize,
    /// Base row in the scanned column's coordinate space: equals
    /// `global_base` for parts reading the base column, 0 for physically
    /// rebuilt parts.
    local_base: usize,
    /// Rows in the part (always > 0; empty parts are never registered).
    len: usize,
    /// Index-vector bytes one full pass streams (relevance scoring).
    pass_bytes: u64,
    table: Arc<Table>,
    column_id: ColumnId,
    /// Physically rebuilt part column, if any.
    data: Option<Arc<DictColumn<i64>>>,
    state: Mutex<SweepState>,
}

impl PartSweep {
    fn column(&self) -> &DictColumn<i64> {
        self.data.as_deref().unwrap_or_else(|| self.table.column(self.column_id))
    }
}

/// Everything the registry needs to attach a statement to one column part.
pub(crate) struct PartAttachSpec {
    /// Sweep identity: (column, placement generation, part index).
    pub key: SweepKey,
    /// Home socket of the part (dispatch tickets carry it).
    pub socket: SocketId,
    /// First global row of the part.
    pub global_base: usize,
    /// Base row in the scanned column's coordinates (0 for PP parts).
    pub local_base: usize,
    /// Rows in the part (must be > 0).
    pub len: usize,
    /// IV bytes of one full pass over the part.
    pub pass_bytes: u64,
    /// The table the part belongs to.
    pub table: Arc<Table>,
    /// The scanned column.
    pub column_id: ColumnId,
    /// Physically rebuilt part column, if any.
    pub data: Option<Arc<DictColumn<i64>>>,
}

/// A claim on one pool task: the engine submits a task with this socket's
/// affinity, and the task lets the relevance policy pick which unclaimed
/// same-socket sweep it runs. Tickets and unclaimed sweeps are created 1:1
/// under the registry lock, so every dispatched task finds work.
pub(crate) struct DispatchTicket {
    socket: SocketId,
}

/// Registered sweeps plus the unclaimed queue the relevance policy picks
/// from, guarded by one lock (acquired strictly *before* any sweep's state
/// lock where both are held).
struct RegistryInner {
    sweeps: HashMap<SweepKey, Arc<PartSweep>>,
    /// Keys of sweeps registered but not yet claimed by a dispatcher task,
    /// in registration order.
    unclaimed: Vec<SweepKey>,
}

/// The shared-scan registry: at most one sweep in flight per
/// (column, placement generation, part), with attach-or-start admission and
/// relevance-driven dispatch.
pub(crate) struct SharedScanRegistry {
    chunk_rows: usize,
    inner: Mutex<RegistryInner>,
    sweeps_started: AtomicU64,
    queries_attached: AtomicU64,
    late_attaches: AtomicU64,
    wraparound_joins: AtomicU64,
    chunks_swept: AtomicU64,
    rows_swept: AtomicU64,
    bytes_swept: AtomicU64,
    relevance_redirects: AtomicU64,
    deadline_detaches: AtomicU64,
}

impl SharedScanRegistry {
    /// An empty registry sweeping `chunk_rows` rows per chunk.
    pub(crate) fn new(chunk_rows: usize) -> Self {
        SharedScanRegistry {
            chunk_rows: chunk_rows.max(1),
            inner: Mutex::new(RegistryInner { sweeps: HashMap::new(), unclaimed: Vec::new() }),
            sweeps_started: AtomicU64::new(0),
            queries_attached: AtomicU64::new(0),
            late_attaches: AtomicU64::new(0),
            wraparound_joins: AtomicU64::new(0),
            chunks_swept: AtomicU64::new(0),
            rows_swept: AtomicU64::new(0),
            bytes_swept: AtomicU64::new(0),
            relevance_redirects: AtomicU64::new(0),
            deadline_detaches: AtomicU64::new(0),
        }
    }

    /// Snapshot of the executor's counters.
    pub(crate) fn stats(&self) -> SharedScanStats {
        SharedScanStats {
            sweeps_started: self.sweeps_started.load(Ordering::Relaxed),
            queries_attached: self.queries_attached.load(Ordering::Relaxed),
            late_attaches: self.late_attaches.load(Ordering::Relaxed),
            wraparound_joins: self.wraparound_joins.load(Ordering::Relaxed),
            chunks_swept: self.chunks_swept.load(Ordering::Relaxed),
            rows_swept: self.rows_swept.load(Ordering::Relaxed),
            bytes_swept: self.bytes_swept.load(Ordering::Relaxed),
            relevance_redirects: self.relevance_redirects.load(Ordering::Relaxed),
            deadline_detaches: self.deadline_detaches.load(Ordering::Relaxed),
        }
    }

    /// Attaches one statement's query to the part's sweep, registering a new
    /// sweep if none is in flight. Returns a dispatch ticket exactly when a
    /// sweep was registered — the caller must then submit one pool task (with
    /// the ticket's socket affinity) that calls
    /// [`SharedScanRegistry::dispatch`].
    pub(crate) fn attach(
        &self,
        spec: PartAttachSpec,
        predicate: Arc<EncodedPredicate>,
        collector: Arc<SharedCollector>,
    ) -> Option<DispatchTicket> {
        debug_assert!(spec.len > 0, "empty parts must not be attached");
        let attached = Attached { predicate, served: 0, collector };
        self.queries_attached.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if let Some(sweep) = inner.sweeps.get(&spec.key) {
            // A sweep found under the registry lock cannot be closed: the
            // sweeper sets `closed` and removes the map entry in one critical
            // section of this same lock.
            let mut state = sweep.state.lock();
            debug_assert!(!state.closed);
            state.pending.push(attached);
            self.late_attaches.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let sweep = Arc::new(PartSweep {
            key: spec.key,
            socket: spec.socket,
            global_base: spec.global_base,
            local_base: spec.local_base,
            len: spec.len,
            pass_bytes: spec.pass_bytes,
            table: spec.table,
            column_id: spec.column_id,
            data: spec.data,
            state: Mutex::new(SweepState {
                cursor: 0,
                active: Vec::new(),
                pending: vec![attached],
                closed: false,
            }),
        });
        inner.sweeps.insert(spec.key, sweep);
        inner.unclaimed.push(spec.key);
        self.sweeps_started.fetch_add(1, Ordering::Relaxed);
        Some(DispatchTicket { socket: spec.socket })
    }

    /// Entry point of the pool task a ticket caused: the relevance policy
    /// claims the unclaimed sweep homed on the ticket's socket that serves
    /// the most demand (waiting queries × remaining pass bytes) and runs it
    /// to completion. Tickets map 1:1 to unclaimed sweeps per socket, so the
    /// claim always succeeds; ties keep registration order.
    pub(crate) fn dispatch(&self, ticket: DispatchTicket) {
        let sweep = {
            let mut inner = self.inner.lock();
            let mut best: Option<(usize, u128)> = None;
            for (position, key) in inner.unclaimed.iter().enumerate() {
                let sweep = &inner.sweeps[key];
                if sweep.socket != ticket.socket {
                    continue;
                }
                let waiting = {
                    let state = sweep.state.lock();
                    state.pending.len() + state.active.len()
                };
                let score = waiting as u128 * u128::from(sweep.pass_bytes);
                let better = match best {
                    None => true,
                    Some((_, best_score)) => score > best_score,
                };
                if better {
                    let redirected = best.is_some();
                    if redirected {
                        // A younger sweep outranked the queue head; note the
                        // redirect once per overtake decision.
                        self.relevance_redirects.fetch_add(1, Ordering::Relaxed);
                    }
                    best = Some((position, score));
                }
            }
            let Some((position, _)) = best else {
                // Unreachable under the 1:1 ticket invariant; tolerate it
                // rather than deadlock.
                debug_assert!(false, "dispatch ticket found no unclaimed sweep");
                return;
            };
            let key = inner.unclaimed.remove(position);
            Arc::clone(&inner.sweeps[&key])
        };
        self.run_sweep(&sweep);
    }

    /// The circular sweep loop: per chunk boundary, activate pending joiners
    /// (counting mid-column joins as wraparounds), close if nobody is
    /// waiting, otherwise evaluate the next chunk once for the whole active
    /// set and credit every query its prefix.
    fn run_sweep(&self, sweep: &Arc<PartSweep>) {
        let column = sweep.column();
        loop {
            // -------- chunk boundary: joins, detaches, close --------
            let (chunk, takes): (Range<usize>, Vec<usize>) = {
                let mut state = sweep.state.lock();
                if state.cursor == sweep.len {
                    state.cursor = 0;
                }
                // Deadline-expired statements detach here, at the chunk
                // boundary: their waiter is gone, so their attachments are
                // dropped without a `complete_part` — the per-collector
                // remaining count was never decremented for these parts, so
                // nothing underflows, and the remaining active set keeps its
                // served counts untouched.
                let waiting = state.active.len() + state.pending.len();
                state.active.retain(|attached| !attached.collector.is_cancelled());
                state.pending.retain(|attached| !attached.collector.is_cancelled());
                let detached = waiting - state.active.len() - state.pending.len();
                if detached > 0 {
                    self.deadline_detaches.fetch_add(detached as u64, Ordering::Relaxed);
                }
                if !state.pending.is_empty() {
                    if state.cursor != 0 {
                        self.wraparound_joins
                            .fetch_add(state.pending.len() as u64, Ordering::Relaxed);
                    }
                    let mut joiners = std::mem::take(&mut state.pending);
                    state.active.append(&mut joiners);
                }
                if state.active.is_empty() {
                    // Nobody waiting: close under registry-then-state order
                    // so attachers either find the sweep or a clean slot.
                    drop(state);
                    let mut inner = self.inner.lock();
                    let mut state = sweep.state.lock();
                    if state.active.is_empty() && state.pending.is_empty() {
                        state.closed = true;
                        inner.sweeps.remove(&sweep.key);
                        return;
                    }
                    continue;
                }
                let start = state.cursor;
                // Clamp the chunk to the longest remaining need so the final
                // chunk of a pass ends exactly at the last row any attached
                // query still wants — no row is swept that nobody asked for.
                let needed = state.active.iter().map(|a| sweep.len - a.served).max().unwrap_or(0);
                let end = (start + self.chunk_rows.min(needed)).min(sweep.len);
                state.cursor = end;
                let chunk_len = end - start;
                // Chunk-boundary activation means every active query's next
                // unserved row is exactly `start`; its share of this chunk is
                // a prefix (shorter than the chunk only on its final chunk).
                let takes =
                    state.active.iter().map(|a| (sweep.len - a.served).min(chunk_len)).collect();
                (start..end, takes)
            };

            // -------- evaluate the chunk once for the whole set --------
            let chunk_len = chunk.len();
            self.chunks_swept.fetch_add(1, Ordering::Relaxed);
            self.rows_swept.fetch_add(chunk_len as u64, Ordering::Relaxed);
            self.bytes_swept.fetch_add(column.iv_scan_bytes(chunk_len), Ordering::Relaxed);
            let scan_lo = sweep.local_base + chunk.start;
            let scan_hi = sweep.local_base + chunk.end;
            let (predicates, collectors): (Vec<Arc<EncodedPredicate>>, Vec<Arc<SharedCollector>>) = {
                // `active` is only mutated by this sweeper, so the snapshot
                // taken at the boundary stays index-aligned; re-locking here
                // only synchronizes with attachers touching `pending`.
                let state = sweep.state.lock();
                (
                    state.active.iter().map(|a| Arc::clone(&a.predicate)).collect(),
                    state.active.iter().map(|a| Arc::clone(&a.collector)).collect(),
                )
            };
            // A hot waiting set re-issues the same few statements over and
            // over; identical predicates collapse to one kernel lane and the
            // result fans out to every query that asked for it.
            let mut unique: Vec<&EncodedPredicate> = Vec::new();
            let mut slot_of: Vec<usize> = Vec::with_capacity(predicates.len());
            for predicate in &predicates {
                let p: &EncodedPredicate = predicate;
                let slot = unique.iter().position(|u| *u == p).unwrap_or_else(|| {
                    unique.push(p);
                    unique.len() - 1
                });
                slot_of.push(slot);
            }
            let matches: Vec<Arc<Vec<u32>>> =
                scan_positions_batch(column, scan_lo..scan_hi, &unique)
                    .into_iter()
                    .map(Arc::new)
                    .collect();
            // Hand every query a reference to its lane's match list; the
            // client trims and folds after the wait, so fan-out here costs one
            // Arc clone per query no matter how wide the waiting set is.
            let global_start = sweep.global_base + chunk.start;
            for ((slot, take), collector) in slot_of.iter().zip(&takes).zip(&collectors) {
                collector.push(ChunkRef {
                    global_start,
                    scan_lo,
                    take: *take,
                    positions: Arc::clone(&matches[*slot]),
                    sweep: Arc::clone(sweep),
                });
            }

            // -------- credit served rows, detach completed queries --------
            let mut state = sweep.state.lock();
            for (attached, take) in state.active.iter_mut().zip(&takes) {
                attached.served += take;
            }
            state.active.retain(|attached| {
                debug_assert!(attached.served <= sweep.len);
                let done = attached.served >= sweep.len;
                if done {
                    attached.collector.complete_part();
                }
                !done
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numascan_storage::{Predicate, TableBuilder};

    fn test_table(rows: usize) -> Arc<Table> {
        let values: Vec<i64> = (0..rows as i64).map(|i| (i * 37) % 500).collect();
        Arc::new(TableBuilder::new("t").add_values("v", &values, false).build())
    }

    fn oracle(table: &Table, lo: i64, hi: i64) -> Vec<i64> {
        let (_, column) = table.column_by_name("v").unwrap();
        (0..column.row_count())
            .map(|p| *column.value_at(p))
            .filter(|v| (lo..=hi).contains(v))
            .collect()
    }

    fn spec_for(table: &Arc<Table>, key: SweepKey) -> PartAttachSpec {
        let (column_id, column) = table.column_by_name("v").unwrap();
        PartAttachSpec {
            key,
            socket: SocketId(0),
            global_base: 0,
            local_base: 0,
            len: column.row_count(),
            pass_bytes: column.iv_scan_bytes(column.row_count()),
            table: Arc::clone(table),
            column_id,
            data: None,
        }
    }

    fn attach_query(
        registry: &SharedScanRegistry,
        table: &Arc<Table>,
        key: SweepKey,
        lo: i64,
        hi: i64,
    ) -> (Arc<SharedCollector>, Option<DispatchTicket>) {
        let (_, column) = table.column_by_name("v").unwrap();
        let predicate = Arc::new(Predicate::Between { lo, hi }.encode(column.dictionary()));
        let collector = Arc::new(SharedCollector::new(1));
        let ticket = registry.attach(spec_for(table, key), predicate, Arc::clone(&collector));
        (collector, ticket)
    }

    #[test]
    fn a_single_sweep_serves_every_attached_query_exactly() {
        let table = test_table(10_000);
        let registry = SharedScanRegistry::new(512);
        let key = SweepKey { column: 0, generation: 0, part: 0 };
        let (first, ticket) = attach_query(&registry, &table, key, 100, 199);
        let ticket = ticket.expect("first attach registers the sweep");
        let (second, none) = attach_query(&registry, &table, key, 0, 499);
        assert!(none.is_none(), "later attaches join the registered sweep");
        registry.dispatch(ticket);
        assert_eq!(first.wait(), oracle(&table, 100, 199));
        assert_eq!(second.wait(), oracle(&table, 0, 499));
        let stats = registry.stats();
        assert_eq!(stats.sweeps_started, 1);
        assert_eq!(stats.queries_attached, 2);
        assert_eq!(stats.late_attaches, 1);
        assert_eq!(stats.wraparound_joins, 0, "both queries joined at row 0");
        // One pass of 10_000 rows in 512-row chunks, read once for both.
        assert_eq!(stats.rows_swept, 10_000);
        assert!(registry.inner.lock().sweeps.is_empty(), "the sweep must close after serving");
    }

    #[test]
    fn mid_column_joins_cover_the_tail_then_wrap_around() {
        let table = test_table(8_000);
        let registry = SharedScanRegistry::new(256);
        let key = SweepKey { column: 0, generation: 0, part: 0 };
        let (early, ticket) = attach_query(&registry, &table, key, 50, 120);
        let ticket = ticket.expect("first attach registers the sweep");
        // Simulate an in-flight sweep: advance the cursor to mid-column
        // before the joiners activate, as if earlier chunks had been served.
        {
            let inner = registry.inner.lock();
            inner.sweeps[&key].state.lock().cursor = 3_000;
        }
        let (late, none) = attach_query(&registry, &table, key, 200, 260);
        assert!(none.is_none());
        registry.dispatch(ticket);
        // Both queries activated at cursor 3_000, so both must have wrapped —
        // and their results must still come back in ascending row order.
        assert_eq!(early.wait(), oracle(&table, 50, 120));
        assert_eq!(late.wait(), oracle(&table, 200, 260));
        let stats = registry.stats();
        assert_eq!(stats.wraparound_joins, 2);
        // The circular pass covers tail + prefix exactly once per row.
        assert_eq!(stats.rows_swept, 8_000);
    }

    #[test]
    fn a_cancelled_attachment_is_purged_without_starving_the_rest() {
        let table = test_table(6_000);
        let registry = SharedScanRegistry::new(512);
        let key = SweepKey { column: 0, generation: 0, part: 0 };
        let (expired, ticket) = attach_query(&registry, &table, key, 100, 199);
        let ticket = ticket.expect("first attach registers the sweep");
        let (live, none) = attach_query(&registry, &table, key, 0, 499);
        assert!(none.is_none());
        // Simulate a deadline expiry before the sweep runs: the waiter gave
        // up, so the sweep must drop the attachment at its first boundary.
        expired.cancel();
        registry.dispatch(ticket);
        assert_eq!(live.wait(), oracle(&table, 0, 499));
        let stats = registry.stats();
        assert_eq!(stats.deadline_detaches, 1);
        assert_eq!(stats.rows_swept, 6_000, "the live query is still served a full pass");
        assert!(registry.inner.lock().sweeps.is_empty(), "the sweep must still close cleanly");
    }

    #[test]
    fn a_sweep_whose_every_waiter_expired_closes_without_work() {
        let table = test_table(4_000);
        let registry = SharedScanRegistry::new(256);
        let key = SweepKey { column: 0, generation: 0, part: 0 };
        let (gone, ticket) = attach_query(&registry, &table, key, 0, 99);
        gone.cancel();
        registry.dispatch(ticket.unwrap());
        let stats = registry.stats();
        assert_eq!(stats.deadline_detaches, 1);
        assert_eq!(stats.rows_swept, 0, "no chunk may be swept for an abandoned statement");
        assert!(registry.inner.lock().sweeps.is_empty());
    }

    #[test]
    fn relevance_policy_picks_the_thickest_waiting_set() {
        let table = test_table(4_000);
        let registry = SharedScanRegistry::new(1 << 20);
        let thin = SweepKey { column: 0, generation: 0, part: 0 };
        let thick = SweepKey { column: 0, generation: 0, part: 1 };
        let (thin_out, thin_ticket) = attach_query(&registry, &table, thin, 0, 10);
        let (thick_a, thick_ticket) = attach_query(&registry, &table, thick, 20, 30);
        let (thick_b, _) = attach_query(&registry, &table, thick, 40, 60);
        let (thick_c, _) = attach_query(&registry, &table, thick, 0, 499);
        // The first freed task redirects to the three-query sweep even though
        // the thin sweep registered first; the second serves the remainder.
        registry.dispatch(thin_ticket.unwrap());
        assert_eq!(thick_a.wait(), oracle(&table, 20, 30));
        assert_eq!(thick_b.wait(), oracle(&table, 40, 60));
        assert_eq!(thick_c.wait(), oracle(&table, 0, 499));
        assert!(registry.stats().relevance_redirects > 0);
        registry.dispatch(thick_ticket.unwrap());
        assert_eq!(thin_out.wait(), oracle(&table, 0, 10));
        assert!(registry.inner.lock().sweeps.is_empty());
    }
}
