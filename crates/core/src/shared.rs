//! Cooperative shared scans: one sweep serves the whole waiting set.
//!
//! Under high concurrency every admitted statement sweeping its column
//! privately costs client-count× the memory traffic of one scan — exactly
//! what the paper's premise (scans should scale with *bandwidth*, not client
//! count) forbids. The fix, following the cooperative-scan line of work
//! referenced in PAPERS.md ("From Cooperative Scans to Predictive Buffer
//! Management"): keep one circular **sweep** per (column, placement
//! generation, part) in flight and let every new statement *attach* to it
//! instead of starting its own. Sharing is a policy of the engine's one scan
//! operator, not a second code path: a statement attaches the same planned
//! parts (`PlannedPart`) its private tasks would scan, and waits on the
//! same `Collector` — one item per attached part, chunk outputs keyed by
//! global chunk start.
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
//! * a query detaches when it has been served the full part (finishing its
//!   collector item), or at a chunk boundary once its collector's token is
//!   cancelled (its waiter gave up); when the last query detaches and no new
//!   one is pending at the chunk boundary, the sweep closes and removes
//!   itself from the registry;
//! * a sweeper that panics removes its sweep from the registry and fails
//!   every attached collector on the way out, so its statements answer
//!   [`EngineError::TaskPanicked`](crate::EngineError::TaskPanicked) and the
//!   next statement on the part starts a fresh sweep.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use numascan_numasim::SocketId;
use numascan_storage::{scan_positions_batch, EncodedPredicate, Table};
use parking_lot::Mutex;

use crate::native::{Collector, Item, PlannedPart};

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
    /// Always share, regardless of concurrency (used by tests to exercise
    /// the sharing machinery itself).
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
    /// Attachments purged at a chunk boundary because their statement
    /// stopped waiting — its deadline expired, or another of its parts
    /// failed. The purged statement's rows stop being swept; every other
    /// attachment — and the sweep's completion accounting — is untouched.
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
/// after [`Collector::wait`], reading the scanned column and the global row
/// offset off its own [`PlannedPart`]. The sweeper's per-query cost per
/// chunk is two `Arc` clones — decode work never serializes behind the
/// sweep.
pub(crate) struct ChunkRef {
    /// First column-coordinate row of the chunk (the trim origin).
    scan_lo: usize,
    /// Rows of the chunk this query asked for (a prefix; shorter than the
    /// chunk only on the query's final chunk of a pass).
    take: usize,
    /// Ascending match positions of the whole chunk, shared by every query
    /// whose predicate collapsed to this kernel lane.
    positions: Arc<Vec<u32>>,
    /// The statement's planned part: the positions index into its column.
    pub(crate) part: Arc<PlannedPart>,
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
}

/// One query attached to a sweep.
struct Attached {
    /// The statement's planned part, carrying its encoded predicate.
    part: Arc<PlannedPart>,
    /// Rows served so far (the query detaches at the part's length).
    served: usize,
    /// The statement's collector item for this part, delivered once the
    /// whole part was served; an attachment dropped any other way (purged
    /// after its waiter gave up, or with a panicked sweep) finishes it
    /// undelivered.
    item: Item<ChunkRef>,
}

/// Mutable state of a sweep, guarded by the sweep's own lock (acquired
/// strictly *after* the registry lock where both are held).
struct SweepState {
    /// Next part-local row the sweep will serve; wraps at the part's length.
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
    table: Arc<Table>,
    /// The registering statement's part: the sweep's key and geometry
    /// (socket, rows, scanned column, pass bytes), identical for every
    /// statement whose part has the same key.
    part: Arc<PlannedPart>,
    state: Mutex<SweepState>,
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
    /// Test hook: when set, the next chunk a sweeper evaluates panics.
    #[cfg(test)]
    pub(crate) panic_next_chunk: Mutex<bool>,
}

/// Armed for the length of one sweep loop: if the sweeper unwinds, the
/// sweep leaves the registry, so later statements on the part start a fresh
/// one instead of joining a sweep nobody runs. The unwind then drops the
/// sweep's last reference, and with it every attachment, failing each
/// attached statement instead of leaving it waiting forever.
struct SweepAbort<'a> {
    registry: &'a SharedScanRegistry,
    sweep: &'a PartSweep,
}

impl Drop for SweepAbort<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut inner = self.registry.inner.lock();
            self.sweep.state.lock().closed = true;
            inner.sweeps.remove(&self.sweep.part.key);
        }
    }
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
            #[cfg(test)]
            panic_next_chunk: Mutex::new(false),
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

    /// Attaches one statement's planned part to its sweep, registering a new
    /// sweep if none is in flight; the part's collector item finishes once
    /// the sweep has served it the whole part. Returns a dispatch ticket
    /// exactly when a sweep was registered — the caller must then submit one
    /// pool task (with the ticket's socket affinity) that calls
    /// [`SharedScanRegistry::dispatch`].
    pub(crate) fn attach(
        &self,
        table: &Arc<Table>,
        part: &Arc<PlannedPart>,
        collector: &Arc<Collector<ChunkRef>>,
    ) -> Option<DispatchTicket> {
        debug_assert!(!part.rows.is_empty(), "empty parts must not be attached");
        let item = Item { collector: Arc::clone(collector), delivered: false };
        let attached = Attached { part: Arc::clone(part), served: 0, item };
        self.queries_attached.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        let key = part.key;
        if let Some(sweep) = inner.sweeps.get(&key) {
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
            table: Arc::clone(table),
            part: Arc::clone(part),
            state: Mutex::new(SweepState {
                cursor: 0,
                active: Vec::new(),
                pending: vec![attached],
                closed: false,
            }),
        });
        inner.sweeps.insert(key, sweep);
        inner.unclaimed.push(key);
        self.sweeps_started.fetch_add(1, Ordering::Relaxed);
        Some(DispatchTicket { socket: part.socket })
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
                if sweep.part.socket != ticket.socket {
                    continue;
                }
                let waiting = {
                    let state = sweep.state.lock();
                    state.pending.len() + state.active.len()
                };
                let score = waiting as u128 * u128::from(sweep.part.bytes);
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
    fn run_sweep(&self, sweep: &PartSweep) {
        let _abort = SweepAbort { registry: self, sweep };
        let geometry = &sweep.part;
        let column = geometry.column(&sweep.table);
        let len = geometry.rows.len();
        loop {
            // -------- chunk boundary: joins, detaches, close --------
            let (chunk, takes): (Range<usize>, Vec<usize>) = {
                let mut state = sweep.state.lock();
                if state.cursor == len {
                    state.cursor = 0;
                }
                // Statements whose waiter is gone detach here, at the chunk
                // boundary: nobody reads their collector any more, and the
                // remaining active set keeps its served counts untouched.
                let waiting = state.active.len() + state.pending.len();
                state.active.retain(|attached| !attached.item.collector.token.is_cancelled());
                state.pending.retain(|attached| !attached.item.collector.token.is_cancelled());
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
                        inner.sweeps.remove(&geometry.key);
                        return;
                    }
                    continue;
                }
                let start = state.cursor;
                // Clamp the chunk to the longest remaining need so the final
                // chunk of a pass ends exactly at the last row any attached
                // query still wants — no row is swept that nobody asked for.
                let needed = state.active.iter().map(|a| len - a.served).max().unwrap_or(0);
                let end = (start + self.chunk_rows.min(needed)).min(len);
                state.cursor = end;
                let chunk_len = end - start;
                // Chunk-boundary activation means every active query's next
                // unserved row is exactly `start`; its share of this chunk is
                // a prefix (shorter than the chunk only on its final chunk).
                let takes = state.active.iter().map(|a| (len - a.served).min(chunk_len)).collect();
                (start..end, takes)
            };

            // -------- evaluate the chunk once for the whole set --------
            #[cfg(test)]
            if std::mem::take(&mut *self.panic_next_chunk.lock()) {
                panic!("injected sweep panic");
            }
            let chunk_len = chunk.len();
            self.chunks_swept.fetch_add(1, Ordering::Relaxed);
            self.rows_swept.fetch_add(chunk_len as u64, Ordering::Relaxed);
            self.bytes_swept.fetch_add(column.iv_scan_bytes(chunk_len), Ordering::Relaxed);
            let scan_lo = geometry.local_base + chunk.start;
            let scan_hi = geometry.local_base + chunk.end;
            let waiters: Vec<(Arc<PlannedPart>, Arc<Collector<ChunkRef>>)> = {
                // `active` is only mutated by this sweeper, so the snapshot
                // taken at the boundary stays index-aligned; re-locking here
                // only synchronizes with attachers touching `pending`.
                let state = sweep.state.lock();
                state
                    .active
                    .iter()
                    .map(|a| (Arc::clone(&a.part), Arc::clone(&a.item.collector)))
                    .collect()
            };
            // A hot waiting set re-issues the same few statements over and
            // over; identical predicates collapse to one kernel lane and the
            // result fans out to every query that asked for it.
            let mut unique: Vec<&EncodedPredicate> = Vec::new();
            let mut slot_of: Vec<usize> = Vec::with_capacity(waiters.len());
            for (part, _) in &waiters {
                let p = &part.encoded;
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
            // client trims and folds after the wait, so fan-out here costs
            // two Arc clones per query no matter how wide the waiting set is.
            let global_start = geometry.rows.start + chunk.start;
            for ((slot, take), (part, collector)) in slot_of.iter().zip(&takes).zip(&waiters) {
                let positions = &matches[*slot];
                if !positions.is_empty() {
                    let chunk = ChunkRef {
                        scan_lo,
                        take: *take,
                        positions: Arc::clone(positions),
                        part: Arc::clone(part),
                    };
                    collector.push(global_start, chunk);
                }
            }

            // -------- credit served rows, detach completed queries --------
            let mut state = sweep.state.lock();
            for (attached, take) in state.active.iter_mut().zip(&takes) {
                attached.served += take;
            }
            state.active.retain_mut(|attached| {
                attached.item.delivered = attached.served == len;
                !attached.item.delivered
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numascan_storage::{materialize_positions, Predicate, TableBuilder};

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

    /// The whole base column as one planned part on socket 0.
    fn part_for(table: &Table, key: SweepKey, lo: i64, hi: i64) -> Arc<PlannedPart> {
        let (column_id, column) = table.column_by_name("v").unwrap();
        Arc::new(PlannedPart {
            key,
            socket: SocketId(0),
            rows: 0..column.row_count(),
            column_id,
            data: None,
            local_base: 0,
            encoded: Predicate::Between { lo, hi }.encode(column.dictionary()),
            bytes: column.iv_scan_bytes(column.row_count()),
        })
    }

    fn attach_query(
        registry: &SharedScanRegistry,
        table: &Arc<Table>,
        key: SweepKey,
        lo: i64,
        hi: i64,
    ) -> (Arc<Collector<ChunkRef>>, Option<DispatchTicket>) {
        let collector = Arc::new(Collector::new(1));
        let ticket = registry.attach(table, &part_for(table, key, lo, hi), &collector);
        (collector, ticket)
    }

    /// Waits for a collector without a deadline and materializes its
    /// statement's values in global row order.
    fn wait(table: &Table, collector: &Collector<ChunkRef>) -> Vec<i64> {
        let chunks = collector.wait(None).expect("an undisturbed sweep serves every part");
        chunks
            .iter()
            .flat_map(|c| materialize_positions(c.part.column(table), c.served_positions()))
            .collect()
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
        assert_eq!(wait(&table, &first), oracle(&table, 100, 199));
        assert_eq!(wait(&table, &second), oracle(&table, 0, 499));
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
        assert_eq!(wait(&table, &early), oracle(&table, 50, 120));
        assert_eq!(wait(&table, &late), oracle(&table, 200, 260));
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
        expired.token.cancel();
        registry.dispatch(ticket);
        assert_eq!(wait(&table, &live), oracle(&table, 0, 499));
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
        gone.token.cancel();
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
        assert_eq!(wait(&table, &thick_a), oracle(&table, 20, 30));
        assert_eq!(wait(&table, &thick_b), oracle(&table, 40, 60));
        assert_eq!(wait(&table, &thick_c), oracle(&table, 0, 499));
        assert!(registry.stats().relevance_redirects > 0);
        registry.dispatch(thick_ticket.unwrap());
        assert_eq!(wait(&table, &thin_out), oracle(&table, 0, 10));
        assert!(registry.inner.lock().sweeps.is_empty());
    }
}
