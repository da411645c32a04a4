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
//!   are attached. A predicate the chunk's zone map rules out gets no
//!   kernel slot, and a stretch of chunks that no waiting predicate can
//!   match is swept in one step without reading it;
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
//!
//! The registry's one lock guards what attachers and sweepers share: every
//! sweep's cursor and pending attachments, the queue of unclaimed sweeps,
//! and the counters. An attach, a dispatch claim, a chunk boundary and a
//! chunk's credit are one critical section each, none longer than O(1) in
//! the waiting set, so an attacher either joins a sweep before its closing
//! boundary or registers a fresh one after it. A sweep's *active* set
//! belongs to its sweeper alone, which takes the pending joiners into it at
//! each boundary; the batched kernel, the fan-out of match lists and the
//! crediting of served rows run outside the lock, and so does each client's
//! trim and fold after `Collector::wait`. No collector is finished under the
//! registry lock: a waiter woken while it is held would only queue on it
//! behind the sweeper, so the two locks never nest.

use std::collections::HashMap;
use std::ops::Range;
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
    /// Chunks evaluated (each one batched over the whole waiting set). A
    /// stretch of chunks whose zone map rules out every waiting predicate is
    /// swept in one step and counts once.
    pub chunks_swept: u64,
    /// Rows covered by evaluated chunks.
    pub rows_swept: u64,
    /// Index-vector bytes actually streamed by sweeps (zone-pruned stretches
    /// stream none) — compare with the demand-side telemetry (which counts
    /// one pass per statement) to see the amortization factor.
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

/// Identity of one sweep: a column part under one placement snapshot. Every
/// change to a column's placement bumps that column's generation, so a sweep
/// can never mix rows from two different placements of the same column, and
/// a change to one column leaves every other column's sweeps joinable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SweepKey {
    /// Column index in the table.
    pub column: usize,
    /// Generation of the column's placement the part belongs to.
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
    /// Index of the query's kernel lane in the current chunk (see
    /// [`assign_lanes`]).
    lane: usize,
}

impl Attached {
    /// Whether the query's waiter gave up (deadline expiry or a failed part).
    fn abandoned(&self) -> bool {
        self.item.collector.token.is_cancelled()
    }

    /// Detaches a query that was served the whole part, finishing its
    /// collector item as delivered.
    fn complete(self) {
        let Attached { mut item, .. } = self;
        item.delivered = true;
    }
}

/// One circular sweep over one column part, held by value in
/// [`Inner::sweeps`] under its key. Only the sweeper that claimed it moves the
/// cursor or removes it; attachers only push to `pending`.
struct Sweep {
    /// The registering statement's part: the sweep's key and geometry
    /// (socket, rows, scanned column, pass bytes), identical for every
    /// statement whose part has the same key.
    part: Arc<PlannedPart>,
    /// Next part-local row the sweep will serve, as of its last chunk
    /// boundary (the sweeper keeps the live position and starts from this
    /// one when it claims the sweep); wraps at the part's length.
    cursor: usize,
    /// Queries waiting for the next chunk boundary to activate.
    pending: Vec<Attached>,
}

/// Collapses the active set's predicates into kernel lanes: a hot waiting
/// set re-issues the same few statements, so identical predicates share one
/// lane whose match list fans out to every query that asked for it. Sets
/// each query's `lane` and returns each lane's first query.
fn assign_lanes(active: &mut [Attached]) -> Vec<usize> {
    let mut heads: Vec<usize> = Vec::new();
    for index in 0..active.len() {
        let encoded = &active[index].part.encoded;
        active[index].lane =
            heads.iter().position(|&h| active[h].part.encoded == *encoded).unwrap_or_else(|| {
                heads.push(index);
                heads.len() - 1
            });
    }
    heads
}

/// A claim on one pool task: the engine submits a task with this socket's
/// affinity, and the task lets the relevance policy pick which unclaimed
/// same-socket sweep it runs. Tickets and unclaimed sweeps are created 1:1
/// under the registry lock, so every dispatched task finds work.
pub(crate) struct DispatchTicket {
    socket: SocketId,
}

/// All shared-sweep protocol state, touched only under the registry's one
/// lock and only in short critical sections — an attach, a dispatch claim, a
/// chunk boundary, a chunk's credit. The kernel never runs under it.
struct Inner {
    /// At most one sweep in flight per key.
    sweeps: HashMap<SweepKey, Sweep>,
    /// Keys of sweeps registered but not yet claimed by a dispatcher task,
    /// in registration order.
    unclaimed: Vec<SweepKey>,
    /// Counters, each bumped in the critical section of the event it counts.
    stats: SharedScanStats,
    /// Test hook: when set, the next chunk a sweeper evaluates panics.
    #[cfg(test)]
    panic_next_chunk: bool,
}

/// The shared-scan registry: at most one sweep in flight per
/// (column, placement generation, part), with attach-or-start admission and
/// relevance-driven dispatch.
pub(crate) struct SharedScanRegistry {
    /// The engine's table, which every sweep's part scans.
    table: Arc<Table>,
    chunk_rows: usize,
    inner: Mutex<Inner>,
}

/// Armed for the length of one sweep loop: if the sweeper unwinds, it
/// removes its sweep from the registry, so later statements on the part start
/// a fresh one instead of joining a sweep nobody runs. The removed sweep is
/// dropped after the registry lock is released, and with it every
/// attachment, failing each attached statement instead of leaving it waiting
/// forever.
struct SweepAbort<'a> {
    registry: &'a SharedScanRegistry,
    key: SweepKey,
}

impl Drop for SweepAbort<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let removed = self.registry.inner.lock().sweeps.remove(&self.key);
            drop(removed);
        }
    }
}

impl SharedScanRegistry {
    /// An empty registry over `table`, sweeping `chunk_rows` rows per chunk.
    pub(crate) fn new(table: &Arc<Table>, chunk_rows: usize) -> Self {
        SharedScanRegistry {
            table: Arc::clone(table),
            chunk_rows: chunk_rows.max(1),
            inner: Mutex::new(Inner {
                sweeps: HashMap::new(),
                unclaimed: Vec::new(),
                stats: SharedScanStats::default(),
                #[cfg(test)]
                panic_next_chunk: false,
            }),
        }
    }

    /// Test hook: makes the next chunk a sweeper evaluates panic.
    #[cfg(test)]
    pub(crate) fn panic_next_chunk(&self) {
        self.inner.lock().panic_next_chunk = true;
    }

    /// Snapshot of the executor's counters.
    pub(crate) fn stats(&self) -> SharedScanStats {
        self.inner.lock().stats.clone()
    }

    /// Attaches one statement's planned part to its sweep, registering a new
    /// sweep if none is in flight; the part's collector item finishes once
    /// the sweep has served it the whole part. Returns a dispatch ticket
    /// exactly when a sweep was registered — the caller must then submit one
    /// pool task (with the ticket's socket affinity) that calls
    /// [`SharedScanRegistry::dispatch`].
    pub(crate) fn attach(
        &self,
        part: &Arc<PlannedPart>,
        collector: &Arc<Collector<ChunkRef>>,
    ) -> Option<DispatchTicket> {
        debug_assert!(!part.rows.is_empty(), "empty parts must not be attached");
        let item = Item { collector: Arc::clone(collector), delivered: false };
        let attached = Attached { part: Arc::clone(part), served: 0, item, lane: 0 };
        let inner = &mut *self.inner.lock();
        inner.stats.queries_attached += 1;
        if let Some(sweep) = inner.sweeps.get_mut(&part.key) {
            sweep.pending.push(attached);
            inner.stats.late_attaches += 1;
            return None;
        }
        let sweep = Sweep { part: Arc::clone(part), cursor: 0, pending: vec![attached] };
        inner.sweeps.insert(part.key, sweep);
        inner.unclaimed.push(part.key);
        inner.stats.sweeps_started += 1;
        Some(DispatchTicket { socket: part.socket })
    }

    /// Entry point of the pool task a ticket caused: the relevance policy
    /// claims the unclaimed sweep homed on the ticket's socket that serves
    /// the most demand (waiting queries × remaining pass bytes) and runs it
    /// to completion. Tickets map 1:1 to unclaimed sweeps per socket, so the
    /// claim always succeeds; ties keep registration order.
    pub(crate) fn dispatch(&self, ticket: DispatchTicket) {
        let part = {
            let inner = &mut *self.inner.lock();
            let mut best: Option<(usize, u128)> = None;
            for (position, key) in inner.unclaimed.iter().enumerate() {
                let sweep = &inner.sweeps[key];
                if sweep.part.socket != ticket.socket {
                    continue;
                }
                // An unclaimed sweep has not run, so its whole waiting set
                // is still pending.
                let score = sweep.pending.len() as u128 * u128::from(sweep.part.bytes);
                let better = match best {
                    None => true,
                    Some((_, best_score)) => score > best_score,
                };
                if better {
                    if best.is_some() {
                        // A younger sweep outranked the queue head; note the
                        // redirect once per overtake decision.
                        inner.stats.relevance_redirects += 1;
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
            Arc::clone(&inner.sweeps[&key].part)
        };
        self.run_sweep(&part);
    }

    /// The circular sweep loop: per chunk boundary, activate pending joiners
    /// (counting mid-column joins as wraparounds), close if nobody is
    /// waiting, otherwise evaluate the next chunk once for the whole active
    /// set and credit every query its prefix.
    fn run_sweep(&self, geometry: &PlannedPart) {
        // The sweeper's own: queries in activation order. Everyone activates
        // at a chunk boundary and is credited every chunk after, so served
        // counts fall from front to back — the front finishes first, the
        // back needs the most rows. Dropped with the sweeper if it unwinds
        // (after the abort guard below removed the sweep), which fails each
        // statement instead of leaving it waiting.
        let mut active: Vec<Attached> = Vec::new();
        let key = geometry.key;
        let _abort = SweepAbort { registry: self, key };
        let column = geometry.column(&self.table);
        let (len, base) = (geometry.rows.len(), geometry.local_base);
        let mut cursor = self.inner.lock().sweeps[&key].cursor;
        // Joins and detaches counted outside the lock, booked at the next
        // critical section.
        let (mut joins, mut detaches) = (0u64, 0u64);
        loop {
            // -------- chunk boundary: detaches, joins, close --------
            // Statements whose waiter is gone detach here, at the chunk
            // boundary: nobody reads their collector any more, and the
            // remaining active set keeps its served counts untouched.
            let mut detached: Vec<Attached> = Vec::new();
            if active.iter().any(Attached::abandoned) {
                (detached, active) =
                    std::mem::take(&mut active).into_iter().partition(Attached::abandoned);
            }
            detaches += detached.len() as u64;
            if cursor == len {
                cursor = 0;
            }
            let joined = {
                let inner = &mut *self.inner.lock();
                inner.stats.wraparound_joins += std::mem::take(&mut joins);
                inner.stats.deadline_detaches += std::mem::take(&mut detaches);
                let sweep = inner.sweeps.get_mut(&key).expect("only its sweeper removes a sweep");
                sweep.cursor = cursor;
                let joined = std::mem::take(&mut sweep.pending);
                if active.is_empty() && joined.is_empty() {
                    // Nobody waiting: an attacher either joined before this
                    // critical section or registers a fresh sweep after it.
                    inner.sweeps.remove(&key);
                    return;
                }
                joined
            };
            for attached in joined {
                if attached.abandoned() {
                    detached.push(attached);
                    detaches += 1;
                } else {
                    joins += u64::from(cursor != 0);
                    active.push(attached);
                }
            }
            drop(detached);
            if active.is_empty() {
                // Every joiner had given up: the next boundary books them
                // and closes the sweep unless someone new is pending.
                continue;
            }

            // -------- evaluate the chunk once for the whole set --------
            #[cfg(test)]
            if std::mem::take(&mut self.inner.lock().panic_next_chunk) {
                panic!("injected sweep panic");
            }
            let heads = assign_lanes(&mut active);
            let predicates: Vec<&EncodedPredicate> =
                heads.iter().map(|&head| &active[head].part.encoded).collect();
            // The lanes whose predicate the zone map does not rule out in
            // `rows`: only they get a kernel slot.
            let live_in = |rows: Range<usize>| -> Vec<usize> {
                (0..predicates.len())
                    .filter(|&lane| {
                        !column.prunes(base + rows.start..base + rows.end, predicates[lane])
                    })
                    .collect()
            };
            // Clamp the chunk to the longest remaining need so the final
            // chunk of a pass ends exactly at the last row any attached query
            // still wants — no row is swept that nobody asked for.
            let newest = active.last().expect("an open sweep has a waiter");
            let limit = (cursor + (len - newest.served)).min(len);
            let start = cursor;
            let mut end = (start + self.chunk_rows).min(limit);
            let live = live_in(start..end);
            if live.is_empty() {
                // Nothing here can match for anyone: sweep the whole stretch
                // of such chunks in one step, reading none of it.
                while end < limit {
                    let next = (end + self.chunk_rows).min(limit);
                    if !live_in(end..next).is_empty() {
                        break;
                    }
                    end = next;
                }
            }
            cursor = end;
            let chunk = start..end;
            let kernel: Vec<&EncodedPredicate> =
                live.iter().map(|&lane| predicates[lane]).collect();
            let mut matches: Vec<Option<Arc<Vec<u32>>>> = vec![None; predicates.len()];
            if !kernel.is_empty() {
                let found = scan_positions_batch(column, base + start..base + end, &kernel);
                for (&lane, positions) in live.iter().zip(found) {
                    matches[lane] = (!positions.is_empty()).then(|| Arc::new(positions));
                }
            }
            // Hand every query a reference to its lane's match list; the
            // client trims and folds after the wait, so fan-out here costs
            // two Arc clones per query no matter how wide the waiting set is.
            if matches.iter().any(Option::is_some) {
                let global_start = geometry.rows.start + start;
                for attached in &active {
                    if let Some(positions) = &matches[attached.lane] {
                        let chunk = ChunkRef {
                            scan_lo: base + start,
                            take: (len - attached.served).min(chunk.len()),
                            positions: Arc::clone(positions),
                            part: Arc::clone(&attached.part),
                        };
                        attached.item.collector.push(global_start, chunk);
                    }
                }
            }

            // -------- count the chunk, credit rows, detach completed queries --------
            {
                let inner = &mut *self.inner.lock();
                inner.stats.wraparound_joins += std::mem::take(&mut joins);
                inner.stats.deadline_detaches += std::mem::take(&mut detaches);
                inner.stats.chunks_swept += 1;
                inner.stats.rows_swept += chunk.len() as u64;
                if !kernel.is_empty() {
                    inner.stats.bytes_swept += column.iv_scan_bytes(chunk.len());
                }
            }
            // Activation at chunk boundaries means every active query's next
            // unserved row is exactly `start`, and its share of the chunk is
            // a prefix (shorter than the chunk only on its final chunk). The
            // counters above are booked before any statement completes, so a
            // caller sees its own chunks counted.
            for attached in &mut active {
                attached.served += (len - attached.served).min(chunk.len());
            }
            let finished = active.iter().take_while(|a| a.served == len).count();
            active.drain(..finished).for_each(Attached::complete);
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
        let ticket = registry.attach(&part_for(table, key, lo, hi), &collector);
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
        let registry = SharedScanRegistry::new(&table, 512);
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
        // One pass of 10_000 rows in 512-row chunks, read once for both: 19
        // full chunks and a short last one.
        assert_eq!(stats.rows_swept, 10_000);
        assert_eq!(stats.chunks_swept, 20);
        let column = table.column_by_name("v").unwrap().1;
        let pass_bytes: u64 = (0..10_000)
            .step_by(512)
            .map(|start| column.iv_scan_bytes((10_000 - start).min(512)))
            .sum();
        assert_eq!(stats.bytes_swept, pass_bytes);
        assert!(registry.inner.lock().sweeps.is_empty(), "the sweep must close after serving");
    }

    #[test]
    fn mid_column_joins_cover_the_tail_then_wrap_around() {
        let table = test_table(8_000);
        let registry = SharedScanRegistry::new(&table, 256);
        let key = SweepKey { column: 0, generation: 0, part: 0 };
        let (early, ticket) = attach_query(&registry, &table, key, 50, 120);
        let ticket = ticket.expect("first attach registers the sweep");
        // Simulate an in-flight sweep: advance the cursor to mid-column
        // before the joiners activate, as if earlier chunks had been served.
        registry.inner.lock().sweeps.get_mut(&key).unwrap().cursor = 3_000;
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
    fn zone_pruned_stretches_are_swept_unread_and_still_serve_every_row() {
        // A sorted column: each 4096-row zone holds its own vids, so a
        // narrow range rules out all but one or two zones.
        let values: Vec<i64> = (0..40_000).collect();
        let table = Arc::new(TableBuilder::new("t").add_values("v", &values, false).build());
        let registry = SharedScanRegistry::new(&table, 1024);
        let key = SweepKey { column: 0, generation: 0, part: 0 };
        let (low, ticket) = attach_query(&registry, &table, key, 9_000, 9_100);
        registry.inner.lock().sweeps.get_mut(&key).unwrap().cursor = 20_000;
        let (high, _) = attach_query(&registry, &table, key, 30_000, 30_500);
        registry.dispatch(ticket.expect("first attach registers the sweep"));
        assert_eq!(wait(&table, &low), oracle(&table, 9_000, 9_100));
        assert_eq!(wait(&table, &high), oracle(&table, 30_000, 30_500));
        let stats = registry.stats();
        assert_eq!(stats.rows_swept, 40_000, "one full circle from row 20 000");
        assert_eq!(stats.wraparound_joins, 2);
        // Forty 1024-row chunks without pruning; the dead stretches
        // between the two ranges' zones are one step each and read nothing.
        assert!(stats.chunks_swept < 20, "{stats:?}");
        let column = table.column_by_name("v").unwrap().1;
        assert!(stats.bytes_swept <= column.iv_scan_bytes(12 * 1024), "{stats:?}");
    }

    #[test]
    fn a_cancelled_attachment_is_purged_without_starving_the_rest() {
        let table = test_table(6_000);
        let registry = SharedScanRegistry::new(&table, 512);
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
        let registry = SharedScanRegistry::new(&table, 256);
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
        let registry = SharedScanRegistry::new(&table, 1 << 20);
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

    #[test]
    fn concurrent_attaches_racing_sweep_closes_are_all_served() {
        // Four clients re-attach to one part as soon as each answer returns,
        // so attaches keep landing next to the boundary where the sweep
        // finds nobody waiting and closes.
        let table = test_table(4_000);
        let registry = SharedScanRegistry::new(&table, 64);
        let key = SweepKey { column: 0, generation: 0, part: 0 };
        std::thread::scope(|scope| {
            for client in 0..4i64 {
                let (registry, table) = (&registry, &table);
                scope.spawn(move || {
                    for round in 0..25 {
                        let lo = (client * 25 + round) * 37 % 450;
                        let (collector, ticket) = attach_query(registry, table, key, lo, lo + 40);
                        if let Some(ticket) = ticket {
                            scope.spawn(move || registry.dispatch(ticket));
                        }
                        assert_eq!(wait(table, &collector), oracle(table, lo, lo + 40));
                    }
                });
            }
        });
        let inner = registry.inner.lock();
        assert!(inner.sweeps.is_empty(), "every sweep must close");
        assert!(inner.unclaimed.is_empty(), "every ticket must be dispatched");
        let stats = &inner.stats;
        assert_eq!(stats.queries_attached, 100);
        assert_eq!(stats.queries_attached, stats.sweeps_started + stats.late_attaches);
    }
}
