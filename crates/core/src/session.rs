//! Multi-client admission: sessions, statements and the concurrency hint.
//!
//! The paper's engine serves many concurrent clients; the number of
//! *currently active statements* is what drives the concurrency hint's task
//! granularity (Section 5.2 / reference \[28\]): one active statement is split
//! across the whole machine, many concurrent statements each become a handful
//! of tasks (down to one) to avoid scheduling overhead.
//!
//! [`SessionManager`] is that admission layer for the native engine: client
//! threads call [`SessionManager::execute`] concurrently; each call registers
//! an active statement for its duration (panic-safe, via a drop guard), and
//! the measured count — not a caller-supplied guess — feeds the hint of every
//! scan it admits. It also keeps the adaptive loop's bookkeeping in one
//! place: epoch snapshots, placer rebalance steps and the pool's bandwidth
//! epochs are all driven through the session manager between statement
//! batches.
//!
//! Requests optionally carry a **per-statement deadline**
//! ([`ScanRequest::with_deadline`]): the engine honours it at chunk
//! boundaries on both execution paths and returns
//! [`EngineError::DeadlineExceeded`] instead of blocking past it — the
//! primitive the cluster tier's retry/failover layer is built on.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use numascan_storage::Predicate;

use crate::adaptive::{AdaptiveDataPlacer, PlacerAction};
use crate::aggregate::{AggSpec, AggTable};
use crate::error::EngineError;
use crate::native::{NativeEngine, NativeEpoch};

/// The predicate shape of a [`ScanRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanSpec {
    /// `col BETWEEN lo AND hi`.
    Between {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// `col IN (values)`.
    InList {
        /// The IN-list values.
        values: Vec<i64>,
    },
}

/// A client request the session layer can admit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRequest {
    /// The scanned (and materialized) column.
    pub column: String,
    /// The predicate.
    pub spec: ScanSpec,
    /// Optional statement deadline, measured from admission. `None` (the
    /// default) blocks until the statement completes.
    pub deadline: Option<Duration>,
    /// Optional aggregation: instead of materializing qualifying values, the
    /// statement folds them into an [`AggTable`] fused with the scan (the
    /// qualifying rows never exist as a position list).
    pub agg: Option<AggSpec>,
}

impl ScanRequest {
    /// `SELECT col FROM t WHERE col BETWEEN lo AND hi`.
    pub fn between(column: impl Into<String>, lo: i64, hi: i64) -> Self {
        ScanRequest {
            column: column.into(),
            spec: ScanSpec::Between { lo, hi },
            deadline: None,
            agg: None,
        }
    }

    /// `SELECT col FROM t WHERE col IN (values)`.
    pub fn in_list(column: impl Into<String>, values: Vec<i64>) -> Self {
        ScanRequest {
            column: column.into(),
            spec: ScanSpec::InList { values },
            deadline: None,
            agg: None,
        }
    }

    /// Attaches a deadline: the statement returns
    /// [`EngineError::DeadlineExceeded`] if its results are not complete
    /// within `deadline` of admission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Turns the scan into a fused aggregation: the request answers with
    /// [`QueryResult::Aggregate`] instead of the qualifying values.
    pub fn with_aggregate(mut self, agg: AggSpec) -> Self {
        self.agg = Some(agg);
        self
    }

    /// The column the request scans.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The request's predicate.
    pub fn predicate(&self) -> Predicate<i64> {
        match &self.spec {
            ScanSpec::Between { lo, hi } => Predicate::Between { lo: *lo, hi: *hi },
            ScanSpec::InList { values } => Predicate::InList(values.clone()),
        }
    }
}

/// The typed answer of one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// A plain scan's qualifying values, in row order.
    Rows(Vec<i64>),
    /// A fused aggregation's merged partial table (mergeable states; callers
    /// that want final floats call [`AggTable::finalize`]). Kept in partial
    /// form so the cluster tier can forward it as a per-shard partial.
    Aggregate(AggTable),
}

impl QueryResult {
    /// The row payload of a scan result.
    ///
    /// # Panics
    /// Panics on an aggregate result — only call this for requests without
    /// an [`AggSpec`].
    pub fn into_rows(self) -> Vec<i64> {
        match self {
            QueryResult::Rows(rows) => rows,
            QueryResult::Aggregate(_) => panic!("aggregate statement answered with a table"),
        }
    }

    /// The aggregate payload of an aggregation result.
    ///
    /// # Panics
    /// Panics on a rows result — only call this for requests with an
    /// [`AggSpec`].
    pub fn into_aggregate(self) -> AggTable {
        match self {
            QueryResult::Aggregate(table) => table,
            QueryResult::Rows(_) => panic!("scan statement answered with rows"),
        }
    }
}

/// Decrements the active-statement count when a statement finishes (or
/// unwinds), so a panicking client cannot permanently inflate the count.
struct StatementGuard<'a> {
    active: &'a AtomicUsize,
}

impl Drop for StatementGuard<'_> {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The multi-client admission layer over a [`NativeEngine`].
///
/// Shared by reference across client threads (`&SessionManager` is `Sync`);
/// every concurrently executing statement raises the active count the
/// concurrency hint sees.
pub struct SessionManager {
    engine: NativeEngine,
    active: AtomicUsize,
    admitted: AtomicU64,
}

impl SessionManager {
    /// Wraps `engine` in an admission layer.
    pub fn new(engine: NativeEngine) -> Self {
        SessionManager { engine, active: AtomicUsize::new(0), admitted: AtomicU64::new(0) }
    }

    /// The engine behind the sessions.
    pub fn engine(&self) -> &NativeEngine {
        &self.engine
    }

    /// Statements currently executing.
    pub fn active_statements(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Statements admitted since the session manager was created.
    pub fn admitted_statements(&self) -> u64 {
        self.admitted.load(Ordering::SeqCst)
    }

    /// Admits and executes one statement: registers it as active and blocks
    /// the calling client until its results are complete, its deadline
    /// expires ([`EngineError::DeadlineExceeded`]), a task working for it
    /// panics ([`EngineError::TaskPanicked`]), or the column turns out not to
    /// exist ([`EngineError::UnknownColumn`]).
    ///
    /// The statement runs through the engine's one pipeline
    /// ([`NativeEngine::execute`]): plan → private tasks or shared attach →
    /// sink. The measured active count picks the middle step: under low
    /// concurrency the statement is split into concurrency-hint-many
    /// placement-aligned private tasks; under high concurrency (where the
    /// hint grants no intra-statement parallelism anyway) it attaches to the
    /// cooperative shared sweep of each of its column's parts, so one SWAR
    /// pass serves every waiting statement. The request's shape picks the
    /// sink — materialized rows, or a fused aggregate — and results are
    /// byte-identical on either path.
    pub fn execute(&self, request: &ScanRequest) -> Result<QueryResult, EngineError> {
        let active = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.admitted.fetch_add(1, Ordering::SeqCst);
        let _guard = StatementGuard { active: &self.active };
        self.engine.execute(request, active)
    }

    /// Counters of the engine's cooperative shared-scan executor.
    pub fn shared_scan_stats(&self) -> crate::shared::SharedScanStats {
        self.engine.shared_scan_stats()
    }

    /// Snapshots and resets the engine's epoch telemetry (utilization and
    /// heat signals for the placer).
    pub fn take_epoch(&self) -> NativeEpoch {
        self.engine.take_epoch()
    }

    /// One closed-loop step: snapshot the epoch, let `placer` decide, apply
    /// the action to the live engine, and close the pool's bandwidth epoch
    /// over `elapsed` (feeding the steal throttle). Returns the epoch and the
    /// action taken.
    pub fn rebalance_epoch(
        &self,
        placer: &AdaptiveDataPlacer,
        elapsed: Duration,
    ) -> (NativeEpoch, PlacerAction) {
        let epoch = self.engine.take_epoch();
        let action = self.engine.rebalance(placer, &epoch);
        self.engine.advance_bandwidth_epoch(elapsed);
        (epoch, action)
    }

    /// Shuts the underlying engine down, joining its worker threads.
    pub fn shutdown(self) {
        self.engine.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::{SharedScanConfig, SharedScanMode};
    use crate::NativeEngineConfig;
    use numascan_numasim::Topology;
    use numascan_scheduler::SchedulingStrategy;
    use numascan_storage::{Table, TableBuilder};
    use std::sync::atomic::AtomicBool;

    fn table(rows: usize) -> Table {
        let values: Vec<i64> = (0..rows as i64).map(|i| (i * 31) % 500).collect();
        TableBuilder::new("t").add_values("v", &values, false).build()
    }

    fn session(rows: usize) -> SessionManager {
        SessionManager::new(NativeEngine::new(
            table(rows),
            &Topology::four_socket_ivybridge_ex(),
            SchedulingStrategy::Bound,
        ))
    }

    #[test]
    fn sequential_statements_match_a_reference_filter() {
        let s = session(20_000);
        let got = s.execute(&ScanRequest::between("v", 10, 49)).unwrap().into_rows();
        let expected: Vec<i64> =
            (0..20_000i64).map(|i| (i * 31) % 500).filter(|v| (10..=49).contains(v)).collect();
        assert_eq!(got, expected);
        assert_eq!(s.active_statements(), 0, "the statement must deregister itself");
        assert_eq!(s.admitted_statements(), 1);
        s.shutdown();
    }

    #[test]
    fn unknown_columns_fail_typed_and_do_not_leak_active_statements() {
        let s = session(1_000);
        assert_eq!(
            s.execute(&ScanRequest::between("nope", 0, 1)),
            Err(EngineError::UnknownColumn("nope".into()))
        );
        assert_eq!(s.active_statements(), 0);
        s.shutdown();
    }

    #[test]
    fn concurrent_clients_raise_the_active_count_the_hint_sees() {
        let s = session(60_000);
        let saw_concurrency = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for c in 0..4 {
                let s = &s;
                let saw = &saw_concurrency;
                scope.spawn(move || {
                    for i in 0..5i64 {
                        let lo = (c as i64 * 20 + i) % 400;
                        s.execute(&ScanRequest::between("v", lo, lo + 60)).unwrap().into_rows();
                        if s.active_statements() > 1 {
                            saw.store(true, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(s.active_statements(), 0);
        assert_eq!(s.admitted_statements(), 20);
        s.shutdown();
    }

    #[test]
    fn in_list_requests_expose_column_and_predicate() {
        let r = ScanRequest::in_list("v", vec![1, 2, 3]);
        assert_eq!(r.column(), "v");
        assert_eq!(r.predicate(), Predicate::InList(vec![1, 2, 3]));
        let s = session(10_000);
        let got = s.execute(&r).unwrap().into_rows();
        let expected: Vec<i64> =
            (0..10_000i64).map(|i| (i * 31) % 500).filter(|v| [1, 2, 3].contains(v)).collect();
        assert_eq!(got, expected);
        s.shutdown();
    }

    #[test]
    fn an_expired_deadline_fails_typed_on_the_private_path() {
        let s = session(200_000);
        // A zero deadline has expired by the collector's first check; the
        // private path must cancel its outstanding tasks and return
        // immediately.
        let r = ScanRequest::between("v", 0, 499).with_deadline(Duration::ZERO);
        assert_eq!(s.execute(&r), Err(EngineError::DeadlineExceeded));
        assert_eq!(s.active_statements(), 0);
        // The engine stays fully usable afterwards; the dropped tasks
        // finished their collector items undelivered.
        let got = s.execute(&ScanRequest::between("v", 10, 49)).unwrap().into_rows();
        let expected: Vec<i64> =
            (0..200_000i64).map(|i| (i * 31) % 500).filter(|v| (10..=49).contains(v)).collect();
        assert_eq!(got, expected);
        assert!(s.engine().scheduler_stats().cancelled > 0, "tasks should have been dropped");
        s.shutdown();
    }

    #[test]
    fn an_expired_deadline_fails_typed_on_the_shared_path() {
        let s = SessionManager::new(NativeEngine::with_config(
            table(300_000),
            &Topology::four_socket_ivybridge_ex(),
            NativeEngineConfig {
                shared_scans: SharedScanConfig {
                    mode: SharedScanMode::Always,
                    ..SharedScanConfig::default()
                },
                ..Default::default()
            },
        ));
        let r = ScanRequest::between("v", 0, 499).with_deadline(Duration::ZERO);
        assert_eq!(s.execute(&r), Err(EngineError::DeadlineExceeded));
        // A later statement over the same column must still be served in
        // full: the expired attachment is purged at a chunk boundary without
        // corrupting the sweep's refcounts.
        let got = s.execute(&ScanRequest::between("v", 10, 49)).unwrap().into_rows();
        let expected: Vec<i64> =
            (0..300_000i64).map(|i| (i * 31) % 500).filter(|v| (10..=49).contains(v)).collect();
        assert_eq!(got, expected);
        s.shutdown();
    }

    #[test]
    fn generous_deadlines_do_not_change_results() {
        let s = session(20_000);
        let plain = s.execute(&ScanRequest::between("v", 10, 49)).unwrap().into_rows();
        let with_deadline = s
            .execute(&ScanRequest::between("v", 10, 49).with_deadline(Duration::from_secs(60)))
            .unwrap()
            .into_rows();
        assert_eq!(plain, with_deadline);
        s.shutdown();
    }
}
