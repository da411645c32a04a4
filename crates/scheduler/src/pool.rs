//! Real-thread worker pool: the threaded driver of [`SchedulerCore`].
//!
//! This is the native execution backend of the scheduler: a pool of worker
//! threads organised into per-socket thread groups, running ordinary Rust
//! closures. All scheduling *logic* — queue placement, the pop/steal order of
//! the worker main loop (Section 5.1), targeted/chained wakeup routing, the
//! steal throttle and the watchdog predicate — lives in
//! [`crate::core::SchedulerCore`]; this module only translates OS-thread
//! activity into core events and executes the returned effects:
//!
//! * it holds the core behind the single pool mutex (the core's transitions
//!   must be atomic, which is exactly what that lock provides),
//! * one condvar per thread group delivers [`Effect::Signal`]s
//!   (`notify_one` for targeted/chained signals, broadcast for a watchdog
//!   rescue), and
//! * the worker threads run the popped closures and feed completions back as
//!   `TaskFinished` events.
//!
//! ## Targeted wakeups
//!
//! Every thread group owns its own condition variable and sleeper count, so
//! a wakeup can be routed to a group whose workers are actually allowed to
//! take a new task: `submit` signals the group the task landed on when it
//! has an unsignalled sleeper, otherwise another group of the same socket,
//! otherwise — for stealable tasks only — the least-loaded group anywhere; a
//! worker that takes a task while more work remains visible to some sleeping
//! group re-publishes availability (the chained wakeup); and the watchdog
//! stays a pure backstop that only rescues a socket whose queues hold tasks
//! while every one of its workers sleeps unsignalled — a state correct
//! routing provably never produces (the model checker in [`crate::mc`]
//! verifies exactly this over all small-schedule interleavings), and every
//! rescue is counted in [`SchedulerStats::watchdog_wakeups`].
//!
//! Lost wakeups cannot occur because a worker's failed pop and its park
//! happen in one core transition sequence under the same continuous lock
//! hold `submit` routes under — and even a driver that dropped the lock in
//! between would be safe, because [`SchedulerCore::sleep`] re-checks
//! visibility and refuses to park a worker that has work.
//!
//! One deliberate simplification: worker threads are *not* pinned to physical
//! CPUs of the host. The machine the experiments model (up to 32 sockets) is
//! virtual, so binding to host CPUs would be meaningless; what matters for the
//! library's correctness — and what is implemented faithfully — is the queue
//! placement, priority and stealing discipline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use numascan_numasim::{SocketId, Topology};
use parking_lot::{Condvar, Mutex};

use crate::bandwidth::{BandwidthTracker, StealThrottleConfig};
use crate::cancel::CancellationToken;
use crate::core::{BackstopPolicy, CoreConfig, PopOutcome, SchedulerCore, SleepOutcome, WorkerId};
use crate::policy::SchedulingStrategy;
use crate::stats::SchedulerStats;
use crate::task::TaskMeta;

#[cfg(doc)]
use crate::core::Effect;

/// A unit of work for the thread pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Watchdog configuration: how often it checks, and what it does when it
/// finds a starving socket. Part of [`PoolConfig`] so tests and experiments
/// can exercise tight intervals — or no backstop at all — without touching
/// the pool's internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Interval at which the watchdog wakes up to check for starving sockets.
    pub interval: Duration,
    /// What a check does when it finds one.
    pub backstop: BackstopPolicy,
}

impl WatchdogConfig {
    /// Rescue starving sockets, checking every `interval`.
    pub fn every(interval: Duration) -> Self {
        WatchdogConfig { interval, backstop: BackstopPolicy::RescueStarvedSockets }
    }

    /// No watchdog thread at all: the routing invariants carry the pool with
    /// no safety net (what the model checker proves safe).
    pub fn disabled() -> Self {
        WatchdogConfig { interval: Duration::from_secs(3600), backstop: BackstopPolicy::Disabled }
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig::every(Duration::from_millis(10))
    }
}

/// Configuration of the thread pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Scheduling strategy applied to every submitted task's metadata.
    pub strategy: SchedulingStrategy,
    /// Worker threads per thread group. `None` sizes each group to the number
    /// of hardware contexts it represents (capped at 8 per group so that
    /// large virtual topologies do not oversubscribe the host).
    pub workers_per_group: Option<usize>,
    /// Watchdog interval and backstop policy.
    pub watchdog: WatchdogConfig,
    /// When set, enables the bandwidth-aware steal throttle: stealable
    /// (soft-affinity) tasks are flipped to socket-bound while their home
    /// socket's measured utilization stays below the saturation threshold,
    /// and stay stealable once it saturates. `None` keeps the static
    /// always-stealable behaviour of the `Target` strategy.
    pub steal_throttle: Option<StealThrottleConfig>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            strategy: SchedulingStrategy::Bound,
            workers_per_group: None,
            watchdog: WatchdogConfig::default(),
            steal_throttle: None,
        }
    }
}

struct Shared {
    /// The entire scheduler state, behind the single pool lock.
    core: Mutex<SchedulerCore<Job>>,
    /// One condvar per thread group, all paired with `core`.
    group_cvs: Vec<Condvar>,
    /// Wakes the watchdog out of its interval sleep at shutdown.
    watchdog_cv: Condvar,
    idle: Condvar,
    /// Bandwidth telemetry backing the steal throttle (`None` = throttle
    /// off). Byte recording stays lock-free; only epoch closes enter the
    /// core (as `ThrottleEpoch` events).
    throttle: Option<Arc<BandwidthTracker>>,
    /// Tasks dropped unrun because their cancellation token was set. Kept
    /// outside the model-checked [`SchedulerCore`] on purpose: cancellation
    /// is a property of the *payload*, not of the scheduling state machine,
    /// so the core's verified transitions stay untouched.
    cancelled: AtomicU64,
}

/// A NUMA-aware pool of worker threads.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    strategy: SchedulingStrategy,
}

impl ThreadPool {
    /// Creates a pool whose thread groups mirror `topology`.
    pub fn new(topology: &Topology, config: PoolConfig) -> Self {
        let core_config = CoreConfig::for_topology(topology)
            .with_throttle(config.steal_throttle.is_some())
            .with_backstop(config.watchdog.backstop);
        let group_count = core_config.sockets * core_config.groups_per_socket;
        let contexts_per_group =
            (topology.contexts_per_socket() / core_config.groups_per_socket).max(1);
        let workers_per_group =
            config.workers_per_group.unwrap_or_else(|| contexts_per_group.min(8)).max(1);
        let core: SchedulerCore<Job> =
            SchedulerCore::new(core_config.with_uniform_workers(workers_per_group));

        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            group_cvs: (0..group_count).map(|_| Condvar::new()).collect(),
            watchdog_cv: Condvar::new(),
            idle: Condvar::new(),
            throttle: config
                .steal_throttle
                .map(|cfg| Arc::new(BandwidthTracker::new(topology.socket_count(), cfg))),
            cancelled: AtomicU64::new(0),
        });

        let mut workers = Vec::with_capacity(group_count * workers_per_group);
        for w in 0..group_count * workers_per_group {
            let shared = Arc::clone(&shared);
            let group = w / workers_per_group;
            let handle = std::thread::Builder::new()
                .name(format!("numascan-tg{group}-w{}", w % workers_per_group))
                .spawn(move || worker_loop(shared, WorkerId(w)))
                .expect("failed to spawn worker thread");
            workers.push(handle);
        }

        let watchdog = (config.watchdog.backstop != BackstopPolicy::Disabled).then(|| {
            let shared = Arc::clone(&shared);
            let interval = config.watchdog.interval;
            std::thread::Builder::new()
                .name("numascan-watchdog".to_string())
                .spawn(move || watchdog_loop(shared, interval))
                .expect("failed to spawn watchdog thread")
        });

        ThreadPool { shared, workers, watchdog, strategy: config.strategy }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The scheduling strategy in effect.
    pub fn strategy(&self) -> SchedulingStrategy {
        self.strategy
    }

    /// Submits a task. Its metadata is first rewritten according to the pool's
    /// scheduling strategy (e.g. the `OS` strategy strips affinities); the
    /// core then applies the bandwidth-aware steal throttle (when configured)
    /// and routes the targeted wakeup, which this driver delivers.
    pub fn submit<F>(&self, meta: TaskMeta, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let meta = self.strategy.apply_to_meta(meta);
        let wake = self.shared.core.lock().submit(meta, Box::new(job));
        // The notification stays off the critical section: the signal is
        // already booked, so the sleeper cannot be double-routed.
        if let Some(group) = wake {
            self.shared.group_cvs[group.index()].notify_one();
        }
    }

    /// Blocks until every submitted task has finished executing.
    pub fn wait_idle(&self) {
        let mut core = self.shared.core.lock();
        while core.pending() > 0 {
            self.shared.idle.wait(&mut core);
        }
    }

    /// Submits a task that may be dropped unrun: when `token` is cancelled by
    /// the time a worker picks the task up, the wrapped closure is *dropped*
    /// instead of called (destructors of captured values — completion-latch
    /// guards in particular — still run) and the drop is counted in
    /// [`SchedulerStats::cancelled`]. Cancellation is cooperative and
    /// chunk-granular: a task already running is never interrupted.
    pub fn submit_cancellable<F>(&self, meta: TaskMeta, token: CancellationToken, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        self.submit(meta, move || {
            if token.is_cancelled() {
                shared.cancelled.fetch_add(1, Ordering::Relaxed);
            } else {
                job();
            }
        });
    }

    /// A snapshot of the scheduler statistics.
    pub fn stats(&self) -> SchedulerStats {
        let mut stats = self.shared.core.lock().stats().clone();
        stats.cancelled = self.shared.cancelled.load(Ordering::Relaxed);
        stats
    }

    /// Records `bytes` streamed from `socket`'s local memory for the steal
    /// throttle's utilization estimate. A no-op when no throttle is
    /// configured.
    pub fn record_scanned_bytes(&self, socket: SocketId, bytes: u64) {
        if let Some(tracker) = &self.shared.throttle {
            tracker.record_bytes(socket, bytes);
        }
    }

    /// Closes the current bandwidth epoch: converts the bytes recorded since
    /// the previous call over `elapsed` into the per-socket utilization the
    /// throttle consults, feeds the saturation flags into the core as a
    /// `ThrottleEpoch` event, and returns the estimate (`None` when no
    /// throttle is configured).
    pub fn advance_bandwidth_epoch(&self, elapsed: Duration) -> Option<Vec<f64>> {
        let tracker = self.shared.throttle.as_ref()?;
        let utilization = tracker.advance_epoch(elapsed);
        let threshold = tracker.config().saturation_threshold;
        let saturated: Vec<bool> = utilization.iter().map(|u| *u >= threshold).collect();
        self.shared.core.lock().throttle_epoch(&saturated);
        Some(utilization)
    }

    /// Number of tasks queued or currently running.
    pub fn pending(&self) -> usize {
        self.shared.core.lock().pending()
    }

    /// Stops the pool, waiting for running tasks to finish. Queued tasks that
    /// have not started yet are still executed before shutdown completes.
    pub fn shutdown(mut self) {
        self.wait_idle();
        self.join_all();
    }

    /// Signals shutdown, wakes every per-group condvar exactly once, joins
    /// all threads, and (in debug builds) asserts that no sleeper survived —
    /// the per-group discipline makes the shutdown wakeup provably complete.
    fn join_all(&mut self) {
        // Setting the flag under the core lock orders it against every
        // worker's check-then-wait (which happens atomically under the same
        // lock): any worker not yet waiting sees the flag before it sleeps,
        // and any worker already waiting receives the notification below.
        self.shared.core.lock().initiate_shutdown();
        for cv in &self.shared.group_cvs {
            cv.notify_all();
        }
        self.shared.watchdog_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        if cfg!(debug_assertions) {
            let core = self.shared.core.lock();
            debug_assert_eq!(
                core.total_sleepers(),
                0,
                "a worker was left sleeping through shutdown"
            );
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.join_all();
    }
}

fn worker_loop(shared: Arc<Shared>, worker: WorkerId) {
    let gi = shared.core.lock().worker_group(worker).index();
    loop {
        // Drive the core until it hands this worker a task or tells it to
        // exit, parking in between. The failed-pop → park sequence runs under
        // one continuous lock hold, so `sleep` can never return `Retry` here
        // (the core re-checks visibility anyway, keeping even a lock-dropping
        // driver sound).
        let next = {
            let mut core = shared.core.lock();
            loop {
                match core.pop_request(worker) {
                    PopOutcome::Run { payload, chain, .. } => break Some((payload, chain)),
                    PopOutcome::Exit => break None,
                    PopOutcome::Empty => match core.sleep(worker) {
                        SleepOutcome::Parked => {
                            shared.group_cvs[gi].wait(&mut core);
                            core.wake(worker);
                        }
                        SleepOutcome::Retry => {}
                        SleepOutcome::Exit => break None,
                    },
                }
            }
        };
        match next {
            Some((job, chain)) => {
                // The chained signal is already booked (and counted) by the
                // core; deliver the notification outside the lock.
                if let Some(group) = chain {
                    shared.group_cvs[group.index()].notify_one();
                }
                // A panicking job must still count as finished: `wait_idle`
                // blocks on the pending count, so losing the decrement to an
                // unwind would deadlock every waiter (and `shutdown`, which
                // waits first). The payload is dropped; the panic is recorded.
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err();
                let all_idle = shared.core.lock().task_finished(worker, panicked);
                if all_idle {
                    shared.idle.notify_all();
                }
            }
            None => return,
        }
    }
}

/// The backstop driver: every `interval`, step a `WatchdogTick` through the
/// core and broadcast to whatever groups it rescued. The predicate (queued
/// tasks while every worker of the socket sleeps unsignalled) and the rescue
/// bookkeeping live in [`SchedulerCore::watchdog_tick`]; correct routing
/// makes a rescue unreachable, so every one it reports flags a lost wakeup.
/// The interval wait is interruptible so that shutdown does not block for up
/// to one (possibly very long) interval.
fn watchdog_loop(shared: Arc<Shared>, interval: Duration) {
    loop {
        let rescued = {
            let mut core = shared.core.lock();
            // Check-then-wait must happen under the lock (shutdown sets the
            // flag under it before notifying): otherwise a shutdown racing
            // the watchdog's startup loses its notification and the join
            // blocks for a full interval.
            if core.is_shutdown() {
                return;
            }
            shared.watchdog_cv.wait_for(&mut core, interval);
            if core.is_shutdown() {
                return;
            }
            core.watchdog_tick()
        };
        for group in rescued {
            shared.group_cvs[group.index()].notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskPriority, WorkClass};
    use numascan_numasim::SocketId;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn small_topology() -> Topology {
        Topology::four_socket_ivybridge_ex()
    }

    fn pool(strategy: SchedulingStrategy) -> ThreadPool {
        ThreadPool::new(
            &small_topology(),
            PoolConfig { strategy, workers_per_group: Some(2), ..PoolConfig::default() },
        )
    }

    fn meta_for(socket: u16, epoch: u64) -> TaskMeta {
        TaskMeta {
            affinity: Some(SocketId(socket)),
            hard_affinity: true,
            priority: TaskPriority::new(epoch, 0),
            work_class: WorkClass::MemoryIntensive,
            estimated_bytes: 0.0,
        }
    }

    #[test]
    fn executes_every_submitted_task() {
        let p = pool(SchedulingStrategy::Bound);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..200u64 {
            let counter = Arc::clone(&counter);
            p.submit(meta_for((i % 4) as u16, i), move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        p.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        let stats = p.stats();
        assert_eq!(stats.executed, 200);
        p.shutdown();
    }

    #[test]
    fn bound_strategy_prevents_cross_socket_stealing() {
        let p = pool(SchedulingStrategy::Bound);
        // All tasks target socket 0; with Bound they may not run elsewhere.
        for i in 0..100u64 {
            p.submit(meta_for(0, i), move || {
                std::thread::sleep(Duration::from_micros(100));
            });
        }
        p.wait_idle();
        let stats = p.stats();
        assert_eq!(stats.stolen_cross_socket, 0);
        assert_eq!(stats.executed_per_socket[0], 100);
        p.shutdown();
    }

    #[test]
    fn target_strategy_allows_cross_socket_stealing() {
        let p = pool(SchedulingStrategy::Target);
        for i in 0..400u64 {
            p.submit(meta_for(0, i), move || {
                std::thread::sleep(Duration::from_micros(200));
            });
        }
        p.wait_idle();
        let stats = p.stats();
        assert_eq!(stats.executed, 400);
        assert!(
            stats.stolen_cross_socket > 0,
            "workers of other sockets should have helped: {stats:?}"
        );
        p.shutdown();
    }

    #[test]
    fn os_strategy_spreads_unaffine_tasks() {
        let p = pool(SchedulingStrategy::Os);
        // The tasks must take long enough that workers beyond the first-woken
        // socket join in; instant no-op tasks can legitimately be drained by
        // one socket before anyone else wakes up.
        for i in 0..200u64 {
            p.submit(meta_for(0, i), || {
                std::thread::sleep(Duration::from_micros(200));
            });
        }
        p.wait_idle();
        let stats = p.stats();
        assert_eq!(stats.executed, 200);
        // Without affinities, tasks round-robin over the groups, so more than
        // one socket must have executed something.
        let busy_sockets = stats.executed_per_socket.iter().filter(|c| **c > 0).count();
        assert!(busy_sockets > 1, "OS strategy should not concentrate on one socket: {stats:?}");
        p.shutdown();
    }

    #[test]
    fn burst_of_hard_tasks_to_every_socket_completes() {
        // Regression test for the submit wake-up path: before per-group
        // condvars, a global `notify_one` could wake a worker of a different
        // socket than the one a hard-affinity task was queued on, and a burst
        // like this one relied on the watchdog to unstrand the task.
        let p = pool(SchedulingStrategy::Bound);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..400u64 {
            let counter = Arc::clone(&counter);
            p.submit(meta_for((i % 4) as u16, i), move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        p.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 400);
        let stats = p.stats();
        assert_eq!(stats.executed, 400);
        // Hard affinity must still be respected: every task ran on its socket.
        assert_eq!(stats.stolen_cross_socket, 0);
        assert_eq!(stats.executed_per_socket, vec![100, 100, 100, 100]);
        p.shutdown();
    }

    #[test]
    fn targeted_wakeups_carry_the_load_not_the_watchdog() {
        // Trickle tasks so workers actually go to sleep between submissions;
        // every sleep/wake cycle must then be served by a targeted wakeup.
        let p = ThreadPool::new(
            &small_topology(),
            PoolConfig {
                strategy: SchedulingStrategy::Bound,
                workers_per_group: Some(1),
                watchdog: WatchdogConfig::every(Duration::from_secs(120)),
                steal_throttle: None,
            },
        );
        for i in 0..40u64 {
            p.submit(meta_for((i % 4) as u16, i), || {});
            p.wait_idle();
        }
        let stats = p.stats();
        assert_eq!(stats.executed, 40);
        assert_eq!(stats.watchdog_wakeups, 0, "watchdog had to rescue: {stats:?}");
        assert!(
            stats.targeted_wakeups > 0,
            "trickled tasks must be served by targeted wakeups: {stats:?}"
        );
        p.shutdown();
    }

    #[test]
    fn pool_survives_with_the_backstop_disabled() {
        // With `BackstopPolicy::Disabled` there is no watchdog thread at all:
        // the targeted/chained routing alone must keep the pool alive. This
        // is the real-thread twin of the model checker's no-lost-wakeup
        // proof.
        let p = ThreadPool::new(
            &small_topology(),
            PoolConfig {
                strategy: SchedulingStrategy::Bound,
                workers_per_group: Some(1),
                watchdog: WatchdogConfig::disabled(),
                steal_throttle: None,
            },
        );
        for i in 0..40u64 {
            p.submit(meta_for((i % 4) as u16, i), || {});
            p.wait_idle();
        }
        let stats = p.stats();
        assert_eq!(stats.executed, 40);
        assert_eq!(stats.watchdog_wakeups, 0);
        p.shutdown();
    }

    #[test]
    fn panicking_task_does_not_deadlock_wait_idle() {
        // Regression test: a job that panics used to unwind past the
        // `pending` decrement, leaving `wait_idle` (and `shutdown`, which
        // waits first) blocked forever on a count that could never reach
        // zero.
        let p = pool(SchedulingStrategy::Bound);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..40u64 {
            if i % 10 == 0 {
                p.submit(meta_for((i % 4) as u16, i), || panic!("task blew up"));
            } else {
                let counter = Arc::clone(&counter);
                p.submit(meta_for((i % 4) as u16, i), move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        p.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 36);
        let stats = p.stats();
        assert_eq!(stats.executed, 40);
        assert_eq!(stats.panicked, 4);
        p.shutdown();
    }

    #[test]
    fn cancelled_tasks_are_dropped_not_run_and_still_release_captures() {
        let p = pool(SchedulingStrategy::Bound);
        let ran = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        /// Counts its drop whether or not the closure that captured it ran.
        struct DropProbe(Arc<AtomicU64>);
        impl Drop for DropProbe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let token = CancellationToken::new();
        token.cancel();
        for i in 0..20u64 {
            let ran = Arc::clone(&ran);
            let probe = DropProbe(Arc::clone(&dropped));
            p.submit_cancellable(meta_for((i % 4) as u16, i), token.clone(), move || {
                let _probe = probe;
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        p.wait_idle();
        assert_eq!(ran.load(Ordering::SeqCst), 0, "cancelled closures must not run");
        assert_eq!(dropped.load(Ordering::SeqCst), 20, "captured values must still be dropped");
        let stats = p.stats();
        assert_eq!(stats.cancelled, 20);
        assert_eq!(stats.executed, 20, "the worker still owned each dropped task");

        // An uncancelled token leaves the fast path untouched.
        let live = CancellationToken::new();
        let ran2 = Arc::clone(&ran);
        p.submit_cancellable(meta_for(0, 21), live, move || {
            ran2.fetch_add(1, Ordering::SeqCst);
        });
        p.wait_idle();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(p.stats().cancelled, 20);
        p.shutdown();
    }

    #[test]
    fn wait_idle_returns_immediately_when_nothing_is_pending() {
        let p = pool(SchedulingStrategy::Bound);
        p.wait_idle();
        assert_eq!(p.pending(), 0);
        p.shutdown();
    }

    #[test]
    fn dropping_the_pool_joins_workers() {
        let p = pool(SchedulingStrategy::Bound);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..50u64 {
            let counter = Arc::clone(&counter);
            p.submit(meta_for((i % 4) as u16, i), move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        p.wait_idle();
        drop(p);
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn shutdown_with_long_watchdog_interval_returns_promptly() {
        // The watchdog's interval sleep must be interruptible: with the old
        // `thread::sleep` loop, shutting down a pool configured with a long
        // interval blocked until the sleep expired.
        let p = ThreadPool::new(
            &small_topology(),
            PoolConfig {
                strategy: SchedulingStrategy::Bound,
                workers_per_group: Some(1),
                watchdog: WatchdogConfig::every(Duration::from_secs(3600)),
                steal_throttle: None,
            },
        );
        p.submit(meta_for(0, 0), || {});
        p.wait_idle();
        let start = std::time::Instant::now();
        p.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "shutdown blocked on the watchdog interval: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn tight_watchdog_interval_still_never_rescues() {
        // An aggressively ticking watchdog (1ms) under a trickled load must
        // observe zero rescue-eligible states: the invariant the model
        // checker proves exhaustively on small schedules, exercised here on
        // real threads at full interleaving freedom.
        let p = ThreadPool::new(
            &small_topology(),
            PoolConfig {
                strategy: SchedulingStrategy::Bound,
                workers_per_group: Some(1),
                watchdog: WatchdogConfig::every(Duration::from_millis(1)),
                steal_throttle: None,
            },
        );
        for i in 0..200u64 {
            p.submit(meta_for((i % 4) as u16, i), || {
                std::thread::sleep(Duration::from_micros(50));
            });
            if i % 8 == 0 {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
        p.wait_idle();
        let stats = p.stats();
        assert_eq!(stats.executed, 200);
        assert_eq!(stats.watchdog_wakeups, 0, "a 1ms watchdog found a lost wakeup: {stats:?}");
        p.shutdown();
    }
}
