//! The scheduler as a pure, single-threaded state machine.
//!
//! Every scheduling decision of the crate — queue placement, the worker main
//! loop's pop/steal order, targeted and chained wakeup routing, the
//! bandwidth-aware steal throttle, the watchdog backstop and all statistics —
//! lives in [`SchedulerCore`]. The core owns all state (queues per thread
//! group, sleeper/outstanding-signal counts per group, per-worker run states,
//! throttle mode, pending-task count, counters) and exposes a transition
//! function: it consumes explicit [`Event`]s and returns [`Effect`]s, without
//! touching threads, locks, condvars or clocks.
//!
//! Three drivers consume it:
//!
//! * the real-thread pool in [`crate::pool`] holds the core behind the single
//!   pool mutex, translates OS-thread activity (a worker asking for work, a
//!   condvar wakeup, a finished job) into events, and executes effects by
//!   notifying condvars and running closures;
//! * the virtual-time simulation engine in `numascan-core` steps the same
//!   core deterministically, so its wakeup counters are produced by the same
//!   transitions instead of a hand-maintained copy;
//! * the model checker in [`crate::mc`] explores every interleaving of the
//!   events on small schedules and checks the wakeup/affinity invariants on
//!   each reachable state.
//!
//! The split event alphabet is deliberately *weaker* than what the threaded
//! driver does: the pool fails a pop and parks atomically under one lock,
//! while the core separates [`Event::PopRequest`] (returning
//! [`PopOutcome::Empty`]) from [`Event::Sleep`]. [`SchedulerCore::sleep`]
//! re-checks visible work before parking, so a driver that releases the lock
//! between the two events is still sound — and the model checker therefore
//! explores a superset of the interleavings the real pool can produce.

use std::hash::{Hash, Hasher};

use numascan_numasim::{SocketId, Topology};

use crate::policy::StealScope;
use crate::queue::{QueueSet, ThreadGroupId};
use crate::stats::SchedulerStats;
use crate::task::TaskMeta;

/// Identifier of one worker (an OS thread in the pool, a hardware context in
/// the simulation, an abstract process in the model checker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub usize);

impl WorkerId {
    /// The worker index as `usize`.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Lifecycle state of one worker, tracked by the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkerState {
    /// Awake and about to ask for work ([`Event::PopRequest`]).
    Searching,
    /// Asked for work and found none; must park next ([`Event::Sleep`]) —
    /// unless new work appears first, in which case `sleep` refuses.
    MustSleep,
    /// Executing a task; will report [`Event::TaskFinished`].
    Running,
    /// Parked on its group's condvar, counted in the group's sleeper count.
    Sleeping,
    /// Left the worker loop after shutdown.
    Exited,
}

/// What the watchdog does when it finds a starving socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackstopPolicy {
    /// Rescue a socket whose queues hold tasks while every one of its workers
    /// sleeps with no signal outstanding, counting every rescue (the
    /// default). Correct routing provably never produces that state, so a
    /// non-zero [`SchedulerStats::watchdog_wakeups`] flags a lost wakeup.
    #[default]
    RescueStarvedSockets,
    /// Never intervene. Useful for tests that must prove the routing alone
    /// keeps the pool alive, with no safety net at all.
    Disabled,
}

/// A deliberately seeded scheduler bug, used by the model checker's
/// regression canary to prove the checker actually catches lost wakeups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// Drop the `nth` (0-based) targeted submit signal: routing picks a group
    /// but the signal is neither booked nor counted, exactly as if the
    /// notification was lost. The classic symptom is a task stranded on a
    /// fully sleeping socket — the state the watchdog predicate detects.
    DropNthTargetedSignal(u64),
}

/// Construction-time description of the machine the core schedules for.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Number of sockets.
    pub sockets: usize,
    /// Thread groups per socket.
    pub groups_per_socket: usize,
    /// The thread group of every worker, indexed by [`WorkerId`].
    pub worker_groups: Vec<ThreadGroupId>,
    /// Whether the bandwidth-aware steal throttle is active. When `true`,
    /// soft-affinity submissions are flipped to hard while their home socket
    /// is unsaturated (all sockets start unsaturated; [`Event::ThrottleEpoch`]
    /// updates the flags).
    pub throttle_enabled: bool,
    /// What the watchdog does on a starving socket.
    pub backstop: BackstopPolicy,
    /// Seeded bug for the model checker's canary; `None` in production.
    pub fault: Option<FaultInjection>,
}

impl CoreConfig {
    /// A config for `sockets` sockets with `groups_per_socket` groups each
    /// and no workers (add them with [`CoreConfig::with_uniform_workers`] or
    /// [`CoreConfig::with_worker_groups`]).
    pub fn new(sockets: usize, groups_per_socket: usize) -> Self {
        CoreConfig {
            sockets,
            groups_per_socket,
            worker_groups: Vec::new(),
            throttle_enabled: false,
            backstop: BackstopPolicy::default(),
            fault: None,
        }
    }

    /// Mirrors `topology` the same way the pool and the simulation do: one
    /// thread group per socket, two for sockets with more than 16 contexts.
    pub fn for_topology(topology: &Topology) -> Self {
        let groups = if topology.contexts_per_socket() > 16 { 2 } else { 1 };
        Self::new(topology.socket_count(), groups)
    }

    /// Assigns `per_group` workers to every thread group, in group order.
    pub fn with_uniform_workers(mut self, per_group: usize) -> Self {
        let groups = self.sockets * self.groups_per_socket;
        self.worker_groups =
            (0..groups * per_group).map(|w| ThreadGroupId(w / per_group)).collect();
        self
    }

    /// Assigns workers by an explicit worker → group mapping.
    pub fn with_worker_groups(mut self, groups: Vec<ThreadGroupId>) -> Self {
        self.worker_groups = groups;
        self
    }

    /// Enables or disables the steal throttle.
    pub fn with_throttle(mut self, enabled: bool) -> Self {
        self.throttle_enabled = enabled;
        self
    }

    /// Sets the watchdog backstop policy.
    pub fn with_backstop(mut self, backstop: BackstopPolicy) -> Self {
        self.backstop = backstop;
        self
    }

    /// Seeds a fault for the model checker's canary.
    pub fn with_fault(mut self, fault: FaultInjection) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// An input to the transition function. The typed methods
/// ([`SchedulerCore::submit`], [`SchedulerCore::pop_request`], …) are the
/// allocation-free form the drivers use on their hot paths; [`Event`] and
/// [`SchedulerCore::apply`] are the uniform form the model checker and the
/// replay property tests enumerate.
#[derive(Debug, Clone)]
pub enum Event<T> {
    /// A producer submits a task (affinity travels inside the metadata).
    Submit {
        /// Placement metadata (the strategy has already been applied).
        meta: TaskMeta,
        /// Opaque payload handed back in [`Effect::Run`].
        payload: T,
    },
    /// An awake worker asks for a task.
    PopRequest {
        /// The asking worker.
        worker: WorkerId,
    },
    /// An awake worker tries to take a task from one specific victim group
    /// instead of following the pop search order (the stealing rules still
    /// apply: hard tasks never leave their socket).
    StealAttempt {
        /// The stealing worker.
        worker: WorkerId,
        /// The group to steal from.
        victim: ThreadGroupId,
    },
    /// A worker that found nothing parks on its group's condvar.
    Sleep {
        /// The parking worker.
        worker: WorkerId,
    },
    /// A parked worker wakes up (a signal arrived, shutdown broadcast, or a
    /// spurious OS wakeup).
    Wake {
        /// The waking worker.
        worker: WorkerId,
    },
    /// A running worker finished its task.
    TaskFinished {
        /// The finishing worker.
        worker: WorkerId,
        /// Whether the task's payload panicked.
        panicked: bool,
    },
    /// A bandwidth epoch closed; carries the new per-socket saturation flags.
    ThrottleEpoch {
        /// `saturated[s]` = socket `s` exceeded the saturation threshold.
        saturated: Vec<bool>,
    },
    /// The watchdog interval elapsed.
    WatchdogTick,
    /// The pool is shutting down.
    Shutdown,
}

/// How a signal effect was routed, mirroring the wakeup counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeKind {
    /// `submit` routed the signal to a group eligible for the new task.
    Targeted,
    /// A worker that took a task re-published remaining work to a sleeper.
    Chained,
    /// The watchdog rescued a starving socket.
    Watchdog,
}

/// An output of the transition function, to be executed by the driver.
#[derive(Debug)]
pub enum Effect<T> {
    /// Wake one sleeper of `group` (`notify_one` for targeted/chained
    /// signals; the watchdog books one signal per sleeper and the driver
    /// broadcasts).
    Signal {
        /// Group whose condvar to notify.
        group: ThreadGroupId,
        /// Which routing path issued the signal.
        kind: WakeKind,
    },
    /// Run `payload` on `worker` (the core already recorded the execution).
    Run {
        /// The worker the task was handed to.
        worker: WorkerId,
        /// The task payload.
        payload: T,
        /// Socket the worker belongs to.
        socket: SocketId,
        /// Where the task was found.
        scope: StealScope,
    },
    /// Park `worker` on its group's condvar.
    Park {
        /// The parking worker.
        worker: WorkerId,
    },
    /// The worker asked to park but work became visible in between; it must
    /// re-run its pop loop instead (only possible for drivers that release
    /// the lock between a failed pop and the park).
    Retry {
        /// The worker that must re-scan.
        worker: WorkerId,
    },
    /// The worker leaves its loop (shutdown with drained queues).
    Exit {
        /// The exiting worker.
        worker: WorkerId,
    },
    /// The last pending task finished; drivers unblock `wait_idle` here.
    AllIdle,
}

/// Result of a [`SchedulerCore::pop_request`] / [`SchedulerCore::steal_attempt`].
#[derive(Debug)]
pub enum PopOutcome<T> {
    /// A task was found; the worker is now `Running`. `chain` is the group a
    /// chained signal was booked for (already counted; the driver notifies).
    Run {
        /// The task payload.
        payload: T,
        /// Socket the worker executes on.
        socket: SocketId,
        /// Where the task was found.
        scope: StealScope,
        /// Group to deliver the booked chained signal to, if any.
        chain: Option<ThreadGroupId>,
    },
    /// No visible task; the worker should park next (`MustSleep`).
    Empty,
    /// Shutdown is in progress and the queues are drained; the worker exits.
    Exit,
}

/// Result of a [`SchedulerCore::sleep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleepOutcome {
    /// The worker is parked and counted in its group's sleeper count.
    Parked,
    /// Work became visible between the failed pop and the park; the worker
    /// must re-run its pop loop (never happens when both steps execute under
    /// one continuous lock hold).
    Retry,
    /// Shutdown happened in between; the worker exits.
    Exit,
}

/// Per-group sleep bookkeeping.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct WaitState {
    /// Workers of this group currently parked on the group's condvar.
    sleepers: usize,
    /// Signals issued to this group whose receiver has not woken up yet.
    /// Routing only considers a group available when `sleepers > signals`.
    signals: usize,
}

impl WaitState {
    fn has_unsignalled_sleeper(&self) -> bool {
        self.sleepers > self.signals
    }
}

/// Per-worker bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WorkerSlot {
    group: ThreadGroupId,
    state: WorkerState,
    /// Set when this worker's wakeup consumed an outstanding signal; a failed
    /// pop then counts as a false wakeup.
    signalled: bool,
}

/// A queued task: the placement metadata plus the driver's payload.
#[derive(Debug, Clone)]
struct Queued<T> {
    meta: TaskMeta,
    payload: T,
}

/// The scheduler state machine. See the module docs for the contract.
#[derive(Debug, Clone)]
pub struct SchedulerCore<T> {
    queues: QueueSet<Queued<T>>,
    waits: Vec<WaitState>,
    workers: Vec<WorkerSlot>,
    /// Workers of each socket (precomputed from `worker_groups`).
    socket_workers: Vec<Vec<usize>>,
    /// Tasks queued or running.
    pending: usize,
    shutdown: bool,
    /// Per-socket saturation flags (`None` = throttle off).
    saturated: Option<Vec<bool>>,
    backstop: BackstopPolicy,
    fault: Option<FaultInjection>,
    /// Targeted signals routed so far (indexes the fault injection).
    targeted_routed: u64,
    stats: SchedulerStats,
}

impl<T> SchedulerCore<T> {
    /// Creates a core for `config`'s machine with every worker `Searching`.
    pub fn new(config: CoreConfig) -> Self {
        let queues: QueueSet<Queued<T>> = QueueSet::new(config.sockets, config.groups_per_socket);
        let group_count = queues.group_count();
        let mut socket_workers = vec![Vec::new(); config.sockets];
        for (w, group) in config.worker_groups.iter().enumerate() {
            assert!(group.index() < group_count, "worker {w} assigned to unknown group {group:?}");
            socket_workers[queues.socket_of_group(*group).index()].push(w);
        }
        let workers = config
            .worker_groups
            .iter()
            .map(|group| WorkerSlot {
                group: *group,
                state: WorkerState::Searching,
                signalled: false,
            })
            .collect();
        SchedulerCore {
            queues,
            waits: vec![WaitState::default(); group_count],
            workers,
            socket_workers,
            pending: 0,
            shutdown: false,
            saturated: config.throttle_enabled.then(|| vec![false; config.sockets]),
            backstop: config.backstop,
            fault: config.fault,
            targeted_routed: 0,
            stats: SchedulerStats::new(config.sockets),
        }
    }

    // ------------------------------------------------------------------
    // Transitions (the typed hot-path form).
    // ------------------------------------------------------------------

    /// Submits a task: applies the steal throttle to its metadata, enqueues
    /// it, and routes a targeted wakeup. Returns the group a signal was
    /// booked for (already counted); the driver delivers the notification.
    pub fn submit(&mut self, mut meta: TaskMeta, payload: T) -> Option<ThreadGroupId> {
        if let Some(saturated) = &self.saturated {
            if let (Some(home), false) = (meta.affinity, meta.hard_affinity) {
                if saturated.get(home.index()).copied().unwrap_or(false) {
                    self.stats.steal_throttle_released += 1;
                } else {
                    meta.hard_affinity = true;
                    self.stats.steal_throttle_bound += 1;
                }
            }
        }
        let hard = meta.hard_affinity;
        self.pending += 1;
        let landed = self.queues.push(&meta.clone(), None, Queued { meta, payload });
        let target = self.route_submit_wakeup(landed, hard)?;
        // The fault injection models a lost notification: routing decided to
        // signal `target`, but the signal is neither booked nor counted.
        self.targeted_routed += 1;
        if let Some(FaultInjection::DropNthTargetedSignal(n)) = self.fault {
            if self.targeted_routed == n + 1 {
                return None;
            }
        }
        self.waits[target].signals += 1;
        self.stats.targeted_wakeups += 1;
        Some(ThreadGroupId(target))
    }

    /// An awake worker asks for a task, following the pop search order (own
    /// group → same socket including hard tasks → remote normal queues).
    pub fn pop_request(&mut self, worker: WorkerId) -> PopOutcome<T> {
        let w = worker.index();
        debug_assert!(
            matches!(self.workers[w].state, WorkerState::Searching | WorkerState::MustSleep),
            "pop from a {:?} worker",
            self.workers[w].state
        );
        let group = self.workers[w].group;
        match self.queues.pop_for_worker(group) {
            Some((queued, scope)) => {
                let chain = self.route_chained_wakeup();
                self.pop_succeeded(w, queued, scope, chain)
            }
            None => self.pop_failed(w),
        }
    }

    /// An awake worker tries one specific victim group, still subject to the
    /// stealing rules (hard tasks never cross sockets). Used by the model
    /// checker and the property suite to explore schedules the priority
    /// search would not produce; the pool driver only uses `pop_request`.
    pub fn steal_attempt(&mut self, worker: WorkerId, victim: ThreadGroupId) -> PopOutcome<T> {
        let w = worker.index();
        debug_assert!(
            matches!(self.workers[w].state, WorkerState::Searching | WorkerState::MustSleep),
            "steal from a {:?} worker",
            self.workers[w].state
        );
        let own_group = self.workers[w].group;
        let own_socket = self.queues.socket_of_group(own_group);
        let scope = if victim == own_group {
            StealScope::OwnGroup
        } else if self.queues.socket_of_group(victim) == own_socket {
            StealScope::SameSocket
        } else {
            StealScope::RemoteSocket
        };
        match self.queues.pop_from_group(victim, scope.may_take_hard_tasks()) {
            Some(queued) => {
                let chain = self.route_chained_wakeup();
                self.pop_succeeded(w, queued, scope, chain)
            }
            None => self.pop_failed(w),
        }
    }

    fn pop_succeeded(
        &mut self,
        w: usize,
        queued: Queued<T>,
        scope: StealScope,
        chain: Option<usize>,
    ) -> PopOutcome<T> {
        self.workers[w].signalled = false;
        if let Some(g) = chain {
            self.waits[g].signals += 1;
            self.stats.chained_wakeups += 1;
        }
        let socket = self.queues.socket_of_group(self.workers[w].group);
        self.stats.record(socket, scope);
        // Audit the stealing discipline at the point of execution: a hard
        // task must be running on its affinity socket.
        if queued.meta.hard_affinity && queued.meta.affinity.is_some_and(|home| home != socket) {
            self.stats.affinity_violations += 1;
        }
        self.workers[w].state = WorkerState::Running;
        PopOutcome::Run { payload: queued.payload, socket, scope, chain: chain.map(ThreadGroupId) }
    }

    fn pop_failed<U>(&mut self, w: usize) -> PopOutcome<U> {
        // A signalled worker that finds nothing is a false wakeup (routing
        // signalled it but someone else took the work). Counted before the
        // shutdown check, exactly like the threaded loop always did.
        if std::mem::take(&mut self.workers[w].signalled) {
            self.stats.false_wakeups += 1;
        }
        if self.shutdown {
            self.workers[w].state = WorkerState::Exited;
            PopOutcome::Exit
        } else {
            self.workers[w].state = WorkerState::MustSleep;
            PopOutcome::Empty
        }
    }

    /// A worker that found nothing asks to park. Re-checks visibility so a
    /// driver that dropped the lock between the failed pop and this call
    /// cannot lose a wakeup: if work became visible, the worker must retry.
    pub fn sleep(&mut self, worker: WorkerId) -> SleepOutcome {
        let w = worker.index();
        debug_assert!(
            matches!(self.workers[w].state, WorkerState::Searching | WorkerState::MustSleep),
            "park of a {:?} worker",
            self.workers[w].state
        );
        if self.queues.has_work_for(self.workers[w].group) {
            self.workers[w].state = WorkerState::Searching;
            return SleepOutcome::Retry;
        }
        if self.shutdown {
            self.workers[w].state = WorkerState::Exited;
            return SleepOutcome::Exit;
        }
        self.waits[self.workers[w].group.index()].sleepers += 1;
        self.workers[w].state = WorkerState::Sleeping;
        SleepOutcome::Parked
    }

    /// A parked worker wakes up (signal, shutdown broadcast, or spurious). It
    /// consumes one outstanding signal of its group if any — this wakeup
    /// fulfils it, whether it was meant for this worker or a spurious wake
    /// beat the notification to the lock.
    pub fn wake(&mut self, worker: WorkerId) {
        let w = worker.index();
        debug_assert_eq!(self.workers[w].state, WorkerState::Sleeping, "wake of an awake worker");
        let wait = &mut self.waits[self.workers[w].group.index()];
        wait.sleepers -= 1;
        if wait.signals > 0 {
            wait.signals -= 1;
            self.workers[w].signalled = true;
        }
        self.workers[w].state = WorkerState::Searching;
    }

    /// A running worker finished its task. Returns `true` when this was the
    /// last pending task (drivers unblock `wait_idle` then).
    pub fn task_finished(&mut self, worker: WorkerId, panicked: bool) -> bool {
        let w = worker.index();
        debug_assert_eq!(self.workers[w].state, WorkerState::Running, "finish without a task");
        self.workers[w].state = WorkerState::Searching;
        if panicked {
            self.stats.panicked += 1;
        }
        self.pending -= 1;
        self.pending == 0
    }

    /// Closes a bandwidth epoch: installs the new per-socket saturation
    /// flags the throttle consults on every submit. A no-op when the core
    /// was built without a throttle.
    pub fn throttle_epoch(&mut self, saturated: &[bool]) {
        if let Some(flags) = &mut self.saturated {
            for (slot, s) in flags.iter_mut().zip(saturated) {
                *slot = *s;
            }
        }
    }

    /// The watchdog interval elapsed: rescue every socket whose queues hold
    /// tasks while all of its workers sleep with no signal outstanding, by
    /// booking one signal per sleeper (each counted as a watchdog wakeup).
    /// Returns the groups whose condvars the driver must broadcast to.
    /// Correct routing makes the rescue state unreachable — the model
    /// checker proves exactly that — so this stays a pure backstop.
    pub fn watchdog_tick(&mut self) -> Vec<ThreadGroupId> {
        if self.backstop == BackstopPolicy::Disabled || self.shutdown {
            return Vec::new();
        }
        let mut rescued = Vec::new();
        for socket in 0..self.queues.socket_count() {
            if !self.socket_starving(socket) {
                continue;
            }
            for group in self.queues.groups_of_socket(SocketId(socket as u16)) {
                let wait = &mut self.waits[group.index()];
                if wait.sleepers > 0 {
                    self.stats.watchdog_wakeups += wait.sleepers as u64;
                    wait.signals = wait.sleepers;
                    rescued.push(group);
                }
            }
        }
        rescued
    }

    /// Initiates shutdown. The driver must wake every parked worker (the
    /// shutdown broadcast); workers drain the queues and then exit.
    pub fn initiate_shutdown(&mut self) {
        self.shutdown = true;
    }

    // ------------------------------------------------------------------
    // The uniform event form.
    // ------------------------------------------------------------------

    /// Applies one event and returns the resulting effects. This is the
    /// single-stepped form the model checker and the replay property tests
    /// drive; the effects carry everything a driver would have to execute.
    pub fn apply(&mut self, event: Event<T>) -> Vec<Effect<T>> {
        match event {
            Event::Submit { meta, payload } => self
                .submit(meta, payload)
                .map(|group| Effect::Signal { group, kind: WakeKind::Targeted })
                .into_iter()
                .collect(),
            Event::PopRequest { worker } => self.pop_effects(worker, None),
            Event::StealAttempt { worker, victim } => self.pop_effects(worker, Some(victim)),
            Event::Sleep { worker } => vec![match self.sleep(worker) {
                SleepOutcome::Parked => Effect::Park { worker },
                SleepOutcome::Retry => Effect::Retry { worker },
                SleepOutcome::Exit => Effect::Exit { worker },
            }],
            Event::Wake { worker } => {
                self.wake(worker);
                Vec::new()
            }
            Event::TaskFinished { worker, panicked } => {
                if self.task_finished(worker, panicked) {
                    vec![Effect::AllIdle]
                } else {
                    Vec::new()
                }
            }
            Event::ThrottleEpoch { saturated } => {
                self.throttle_epoch(&saturated);
                Vec::new()
            }
            Event::WatchdogTick => self
                .watchdog_tick()
                .into_iter()
                .map(|group| Effect::Signal { group, kind: WakeKind::Watchdog })
                .collect(),
            Event::Shutdown => {
                self.initiate_shutdown();
                Vec::new()
            }
        }
    }

    fn pop_effects(&mut self, worker: WorkerId, victim: Option<ThreadGroupId>) -> Vec<Effect<T>> {
        let outcome = match victim {
            Some(victim) => self.steal_attempt(worker, victim),
            None => self.pop_request(worker),
        };
        match outcome {
            PopOutcome::Run { payload, socket, scope, chain } => {
                let mut effects = Vec::with_capacity(2);
                if let Some(group) = chain {
                    effects.push(Effect::Signal { group, kind: WakeKind::Chained });
                }
                effects.push(Effect::Run { worker, payload, socket, scope });
                effects
            }
            PopOutcome::Empty => Vec::new(),
            PopOutcome::Exit => vec![Effect::Exit { worker }],
        }
    }

    // ------------------------------------------------------------------
    // Wakeup routing (the scheduling policy itself).
    // ------------------------------------------------------------------

    /// Picks the group `submit` should signal for a task that landed on
    /// `landed`: the landing group itself, then the least-loaded other group
    /// of the same socket, then — unless the task is hard-bound — the
    /// least-loaded group anywhere. Only groups with an unsignalled sleeper
    /// qualify; returns `None` when every eligible worker is already awake
    /// (they re-scan the queues before sleeping, so no signal is needed).
    fn route_submit_wakeup(&self, landed: ThreadGroupId, hard: bool) -> Option<usize> {
        if self.waits[landed.index()].has_unsignalled_sleeper() {
            return Some(landed.index());
        }
        let socket = self.queues.socket_of_group(landed);
        let same_socket = self
            .queues
            .groups_of_socket(socket)
            .map(ThreadGroupId::index)
            .filter(|g| *g != landed.index() && self.waits[*g].has_unsignalled_sleeper())
            .min_by_key(|g| self.queues.group(ThreadGroupId(*g)).len());
        if same_socket.is_some() {
            return same_socket;
        }
        if hard {
            return None;
        }
        (0..self.queues.group_count())
            .filter(|g| self.waits[*g].has_unsignalled_sleeper())
            .min_by_key(|g| self.queues.group(ThreadGroupId(*g)).len())
    }

    /// Picks a group to re-publish availability to after a worker took a
    /// task: any group with an unsignalled sleeper that still has visible
    /// work (own-socket queues or a stealable foreign task), least-loaded
    /// first. This is how a burst of submissions fans out over sleepers
    /// without the producer broadcasting to every group. Runs on every pop,
    /// so visibility is precomputed per socket in O(groups) rather than
    /// asking `has_work_for` (O(groups)) per group.
    fn route_chained_wakeup(&self) -> Option<usize> {
        // Hot-path early-out: a saturated pool has no sleepers at all, and
        // then there is nothing to route and nothing worth precomputing.
        if !self.waits.iter().any(WaitState::has_unsignalled_sleeper) {
            return None;
        }
        let sockets = self.queues.socket_count();
        let mut total_per_socket = vec![0usize; sockets];
        let mut normal_per_socket = vec![0usize; sockets];
        let mut normal_total = 0usize;
        for g in 0..self.queues.group_count() {
            let queues = self.queues.group(ThreadGroupId(g));
            let socket = queues.socket().index();
            total_per_socket[socket] += queues.len();
            normal_per_socket[socket] += queues.normal_len();
            normal_total += queues.normal_len();
        }
        (0..self.queues.group_count())
            .filter(|g| {
                if !self.waits[*g].has_unsignalled_sleeper() {
                    return false;
                }
                let socket = self.queues.socket_of_group(ThreadGroupId(*g)).index();
                // Same visibility rule as `QueueSet::has_work_for`.
                total_per_socket[socket] > 0 || normal_total > normal_per_socket[socket]
            })
            .min_by_key(|g| self.queues.group(ThreadGroupId(*g)).len())
    }

    // ------------------------------------------------------------------
    // Inspection (drivers, invariant checks, fingerprints).
    // ------------------------------------------------------------------

    /// Whether `socket` is starving: its queues hold tasks while every one of
    /// its workers sleeps with no signal outstanding. This predicate *is* the
    /// no-lost-wakeup invariant — it is what the watchdog rescues, what the
    /// model checker asserts unreachable, and what correct routing prevents:
    /// a worker only parks after seeing no visible work, and any later push
    /// books a signal for a sleeper of the socket in the same transition.
    /// (A weaker condition, e.g. "any unsignalled sleeper with visible
    /// work", would fire on healthy states: one queued task signalled to
    /// worker A while worker B of the same group still sleeps.)
    pub fn socket_starving(&self, socket: usize) -> bool {
        let queued: usize = self
            .queues
            .groups_of_socket(SocketId(socket as u16))
            .map(|g| self.queues.group(g).len())
            .sum();
        if queued == 0 {
            return false;
        }
        let workers = &self.socket_workers[socket];
        let all_asleep = !workers.is_empty()
            && workers.iter().all(|w| self.workers[*w].state == WorkerState::Sleeping);
        let signals: usize = self
            .queues
            .groups_of_socket(SocketId(socket as u16))
            .map(|g| self.waits[g.index()].signals)
            .sum();
        all_asleep && signals == 0
    }

    /// The socket a rescue-eligible state exists on, if any (`None` under
    /// correct routing; suspended during shutdown, whose broadcast wakes
    /// every sleeper without booking signals).
    pub fn starving_socket(&self) -> Option<usize> {
        if self.shutdown {
            return None;
        }
        (0..self.queues.socket_count()).find(|s| self.socket_starving(*s))
    }

    /// Counters accumulated by every transition so far.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// Tasks queued or currently running.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Tasks queued (not yet handed to a worker).
    pub fn queued_total(&self) -> usize {
        self.queues.total_len()
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Number of thread groups.
    pub fn group_count(&self) -> usize {
        self.queues.group_count()
    }

    /// Number of sockets.
    pub fn socket_count(&self) -> usize {
        self.queues.socket_count()
    }

    /// The thread group `worker` belongs to.
    pub fn worker_group(&self, worker: WorkerId) -> ThreadGroupId {
        self.workers[worker.index()].group
    }

    /// The lifecycle state of `worker`.
    pub fn worker_state(&self, worker: WorkerId) -> WorkerState {
        self.workers[worker.index()].state
    }

    /// Tasks queued on `group` (both queues).
    pub fn group_queued(&self, group: ThreadGroupId) -> usize {
        self.queues.group(group).len()
    }

    /// Outstanding signals of `group`.
    pub fn group_signals(&self, group: ThreadGroupId) -> usize {
        self.waits[group.index()].signals
    }

    /// Parked workers of `group`.
    pub fn group_sleepers(&self, group: ThreadGroupId) -> usize {
        self.waits[group.index()].sleepers
    }

    /// Parked workers across all groups.
    pub fn total_sleepers(&self) -> usize {
        self.waits.iter().map(|w| w.sleepers).sum()
    }

    /// Whether shutdown was initiated.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }
}

impl<T: Hash> SchedulerCore<T> {
    /// Appends an order-preserving canonical encoding of every
    /// behavior-relevant part of the state to `out` (for the model checker's
    /// state-hash deduplication).
    ///
    /// Queue entries are emitted per group in pop order — sorted by
    /// (priority, insertion sequence) — *without* the absolute sequence
    /// values, so two states that hold the same tasks in the same relative
    /// order collapse to one fingerprint even when they were reached through
    /// different numbers of intermediate pushes. Statistics are excluded:
    /// they are write-only outputs and never influence a transition. The
    /// fault-injection counter is included only while a fault is armed
    /// (then it *does* influence future transitions).
    pub fn encode_canonical(&self, out: &mut Vec<u64>) {
        out.push(self.shutdown as u64);
        out.push(self.pending as u64);
        out.push(self.queues.rr_position() as u64);
        match &self.saturated {
            None => out.push(u64::MAX),
            Some(flags) => {
                out.push(flags.iter().fold(0u64, |acc, f| (acc << 1) | *f as u64));
            }
        }
        if self.fault.is_some() {
            out.push(self.targeted_routed);
        }
        for g in 0..self.queues.group_count() {
            let group = self.queues.group(ThreadGroupId(g));
            let entries = group.entries_in_pop_order();
            out.push(entries.len() as u64);
            for (priority, hard, queued) in entries {
                out.push(priority.statement_epoch);
                out.push(priority.sequence);
                out.push(hard as u64);
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                queued.meta.affinity.map(SocketId::index).hash(&mut hasher);
                queued.meta.hard_affinity.hash(&mut hasher);
                queued.payload.hash(&mut hasher);
                out.push(hasher.finish());
            }
            let wait = &self.waits[g];
            out.push(wait.sleepers as u64);
            out.push(wait.signals as u64);
        }
        for worker in &self.workers {
            let state = match worker.state {
                WorkerState::Searching => 0u64,
                WorkerState::MustSleep => 1,
                WorkerState::Running => 2,
                WorkerState::Sleeping => 3,
                WorkerState::Exited => 4,
            };
            out.push((state << 1) | worker.signalled as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskPriority, WorkClass};

    fn meta(epoch: u64, socket: Option<u16>, hard: bool) -> TaskMeta {
        TaskMeta {
            affinity: socket.map(SocketId),
            hard_affinity: hard,
            priority: TaskPriority::new(epoch, 0),
            work_class: WorkClass::MemoryIntensive,
            estimated_bytes: 0.0,
        }
    }

    /// 2 sockets x 1 group, 1 worker per group.
    fn small_core() -> SchedulerCore<u32> {
        SchedulerCore::new(CoreConfig::new(2, 1).with_uniform_workers(1))
    }

    fn park(core: &mut SchedulerCore<u32>, w: usize) {
        assert!(matches!(core.pop_request(WorkerId(w)), PopOutcome::Empty));
        assert_eq!(core.sleep(WorkerId(w)), SleepOutcome::Parked);
    }

    #[test]
    fn submit_to_sleeping_group_books_a_targeted_signal() {
        let mut core = small_core();
        park(&mut core, 0);
        park(&mut core, 1);
        let target = core.submit(meta(0, Some(0), true), 7);
        assert_eq!(target, Some(ThreadGroupId(0)));
        assert_eq!(core.group_signals(ThreadGroupId(0)), 1);
        assert_eq!(core.stats().targeted_wakeups, 1);
        core.wake(WorkerId(0));
        match core.pop_request(WorkerId(0)) {
            PopOutcome::Run { payload, socket, scope, chain } => {
                assert_eq!(payload, 7);
                assert_eq!(socket, SocketId(0));
                assert_eq!(scope, StealScope::OwnGroup);
                assert_eq!(chain, None);
            }
            other => panic!("expected a task, got {other:?}"),
        }
        assert!(core.task_finished(WorkerId(0), false));
        assert_eq!(core.stats().executed, 1);
        assert_eq!(core.stats().false_wakeups, 0);
    }

    #[test]
    fn hard_task_with_awake_socket_needs_no_signal() {
        let mut core = small_core();
        // Socket 0's worker is awake (Searching); socket 1's worker asleep.
        park(&mut core, 1);
        let target = core.submit(meta(0, Some(0), true), 1);
        assert_eq!(target, None, "hard task with its socket awake must not signal anyone");
        assert_eq!(core.stats().targeted_wakeups, 0);
    }

    #[test]
    fn soft_task_falls_back_to_a_foreign_sleeper() {
        let mut core = small_core();
        park(&mut core, 1);
        // Socket 0's worker is awake; the soft task still signals socket 1's
        // sleeper so the burst can be absorbed anywhere.
        let target = core.submit(meta(0, Some(0), false), 1);
        assert_eq!(target, Some(ThreadGroupId(1)));
    }

    #[test]
    fn chained_wakeup_republishes_remaining_work() {
        let mut core = small_core();
        park(&mut core, 0);
        park(&mut core, 1);
        // Two soft tasks for socket 0: the first signals group 0, the second
        // (group 0 already fully signalled) signals group 1's sleeper.
        assert_eq!(core.submit(meta(0, Some(0), false), 1), Some(ThreadGroupId(0)));
        assert_eq!(core.submit(meta(1, Some(0), false), 2), Some(ThreadGroupId(1)));
        core.wake(WorkerId(0));
        // Worker 0 pops task 1; task 2 remains but group 1 is already
        // signalled, so no chained signal is needed.
        match core.pop_request(WorkerId(0)) {
            PopOutcome::Run { payload, chain, .. } => {
                assert_eq!(payload, 1);
                assert_eq!(chain, None);
            }
            other => panic!("expected a task, got {other:?}"),
        }
        core.wake(WorkerId(1));
        match core.pop_request(WorkerId(1)) {
            PopOutcome::Run { payload, scope, .. } => {
                assert_eq!(payload, 2);
                assert_eq!(scope, StealScope::RemoteSocket);
            }
            other => panic!("expected a task, got {other:?}"),
        }
        assert_eq!(core.stats().false_wakeups, 0);
        assert_eq!(core.stats().stolen_cross_socket, 1);
    }

    #[test]
    fn chained_wakeup_fires_when_no_signal_is_outstanding() {
        // Two workers on socket 0's group, one on socket 1's; all parked. A
        // burst of two soft tasks routes *both* targeted signals to the
        // landing group (it has two sleepers), leaving socket 1's sleeper
        // unsignalled while stealable work stays visible to it. The first
        // pop must then re-publish availability: the chained wakeup.
        let mut core: SchedulerCore<u32> =
            SchedulerCore::new(CoreConfig::new(2, 1).with_worker_groups(vec![
                ThreadGroupId(0),
                ThreadGroupId(0),
                ThreadGroupId(1),
            ]));
        park(&mut core, 0);
        park(&mut core, 1);
        park(&mut core, 2);
        assert_eq!(core.submit(meta(0, Some(0), false), 1), Some(ThreadGroupId(0)));
        assert_eq!(core.submit(meta(1, Some(0), false), 2), Some(ThreadGroupId(0)));
        assert_eq!(core.group_signals(ThreadGroupId(1)), 0);
        core.wake(WorkerId(0));
        match core.pop_request(WorkerId(0)) {
            PopOutcome::Run { payload, chain, .. } => {
                assert_eq!(payload, 1);
                assert_eq!(
                    chain,
                    Some(ThreadGroupId(1)),
                    "remaining stealable work must chain to the unsignalled foreign sleeper"
                );
            }
            other => panic!("expected a task, got {other:?}"),
        }
        assert_eq!(core.stats().chained_wakeups, 1);
        // The chained sleeper wakes and steals the remaining task.
        core.wake(WorkerId(2));
        match core.pop_request(WorkerId(2)) {
            PopOutcome::Run { payload, scope, .. } => {
                assert_eq!(payload, 2);
                assert_eq!(scope, StealScope::RemoteSocket);
            }
            other => panic!("expected the chained steal, got {other:?}"),
        }
        assert_eq!(core.stats().false_wakeups, 0);
    }

    #[test]
    fn sleep_retries_when_work_appears_between_pop_and_park() {
        let mut core = small_core();
        assert!(matches!(core.pop_request(WorkerId(0)), PopOutcome::Empty));
        // Work arrives after the failed pop but before the park (a split
        // driver released the lock in between). No signal is booked (the
        // worker is not asleep), so the park must refuse.
        assert_eq!(core.submit(meta(0, Some(0), true), 9), None);
        assert_eq!(core.sleep(WorkerId(0)), SleepOutcome::Retry);
        assert!(matches!(core.pop_request(WorkerId(0)), PopOutcome::Run { .. }));
    }

    #[test]
    fn watchdog_rescues_a_starving_socket_and_counts_it() {
        let mut core = SchedulerCore::new(
            CoreConfig::new(2, 1)
                .with_uniform_workers(1)
                .with_fault(FaultInjection::DropNthTargetedSignal(0)),
        );
        park(&mut core, 0);
        park(&mut core, 1);
        // The fault drops the targeted signal: socket 0 now starves.
        assert_eq!(core.submit(meta(0, Some(0), true), 5), None);
        assert_eq!(core.group_signals(ThreadGroupId(0)), 0);
        assert_eq!(core.starving_socket(), Some(0));
        let rescued = core.watchdog_tick();
        assert_eq!(rescued, vec![ThreadGroupId(0)]);
        assert_eq!(core.stats().watchdog_wakeups, 1);
        assert_eq!(core.starving_socket(), None, "rescue books the missing signal");
        core.wake(WorkerId(0));
        assert!(matches!(core.pop_request(WorkerId(0)), PopOutcome::Run { .. }));
    }

    #[test]
    fn disabled_backstop_never_rescues() {
        let mut core = SchedulerCore::new(
            CoreConfig::new(2, 1)
                .with_uniform_workers(1)
                .with_backstop(BackstopPolicy::Disabled)
                .with_fault(FaultInjection::DropNthTargetedSignal(0)),
        );
        park(&mut core, 0);
        core.submit(meta(0, Some(0), true), 5);
        assert!(core.socket_starving(0));
        assert!(core.watchdog_tick().is_empty());
        assert_eq!(core.stats().watchdog_wakeups, 0);
    }

    #[test]
    fn watchdog_ignores_sockets_with_awake_or_signalled_workers() {
        let mut core = small_core();
        // Queued task, but socket 0's worker is awake: not starving.
        core.submit(meta(0, Some(0), true), 1);
        assert!(core.watchdog_tick().is_empty());
        // Park it; the submit above did not signal (worker was awake), but
        // park refuses while work is visible, so drain first.
        match core.pop_request(WorkerId(0)) {
            PopOutcome::Run { .. } => {}
            other => panic!("expected a task, got {other:?}"),
        }
        core.task_finished(WorkerId(0), false);
        park(&mut core, 0);
        // A properly signalled submit leaves nothing to rescue either.
        assert_eq!(core.submit(meta(1, Some(0), true), 2), Some(ThreadGroupId(0)));
        assert!(core.watchdog_tick().is_empty());
        assert_eq!(core.stats().watchdog_wakeups, 0);
    }

    #[test]
    fn throttle_flips_soft_tasks_until_the_home_socket_saturates() {
        let mut core: SchedulerCore<u32> =
            SchedulerCore::new(CoreConfig::new(2, 1).with_uniform_workers(1).with_throttle(true));
        core.submit(meta(0, Some(0), false), 1);
        assert_eq!(core.stats().steal_throttle_bound, 1);
        // The bound task cannot be stolen by socket 1's worker.
        assert!(matches!(core.pop_request(WorkerId(1)), PopOutcome::Empty));
        core.throttle_epoch(&[true, false]);
        core.submit(meta(1, Some(0), false), 2);
        assert_eq!(core.stats().steal_throttle_released, 1);
        // The released task is stealable cross-socket.
        core.workers[1].state = WorkerState::Searching;
        match core.pop_request(WorkerId(1)) {
            PopOutcome::Run { payload, scope, .. } => {
                assert_eq!(payload, 2);
                assert_eq!(scope, StealScope::RemoteSocket);
            }
            other => panic!("expected the released task, got {other:?}"),
        }
        assert_eq!(core.stats().affinity_violations, 0);
    }

    #[test]
    fn shutdown_drains_queues_before_workers_exit() {
        let mut core = small_core();
        core.submit(meta(0, Some(0), true), 1);
        core.initiate_shutdown();
        // The worker still takes the queued task...
        match core.pop_request(WorkerId(0)) {
            PopOutcome::Run { payload, .. } => assert_eq!(payload, 1),
            other => panic!("expected the queued task, got {other:?}"),
        }
        core.task_finished(WorkerId(0), false);
        // ...and only then exits.
        assert!(matches!(core.pop_request(WorkerId(0)), PopOutcome::Exit));
        assert_eq!(core.worker_state(WorkerId(0)), WorkerState::Exited);
        assert!(matches!(core.pop_request(WorkerId(1)), PopOutcome::Exit));
        assert_eq!(core.pending(), 0);
    }

    #[test]
    fn steal_attempt_respects_hard_affinity() {
        let mut core = small_core();
        core.submit(meta(0, Some(0), true), 1);
        // A remote worker stealing from group 0 must not see the hard task.
        assert!(matches!(core.steal_attempt(WorkerId(1), ThreadGroupId(0)), PopOutcome::Empty));
        core.workers[0].state = WorkerState::Searching;
        match core.steal_attempt(WorkerId(0), ThreadGroupId(0)) {
            PopOutcome::Run { scope, .. } => assert_eq!(scope, StealScope::OwnGroup),
            other => panic!("expected the hard task, got {other:?}"),
        }
        assert_eq!(core.stats().affinity_violations, 0);
    }

    #[test]
    fn canonical_encoding_ignores_absolute_sequence_numbers() {
        let mut a = small_core();
        let mut b = small_core();
        // b churns through an extra task first, advancing its internal
        // sequence counter; afterwards both hold the same logical state.
        b.submit(meta(0, Some(1), true), 99);
        match b.pop_request(WorkerId(1)) {
            PopOutcome::Run { .. } => {}
            other => panic!("expected the churn task, got {other:?}"),
        }
        b.task_finished(WorkerId(1), false);
        a.submit(meta(5, Some(0), true), 7);
        b.submit(meta(5, Some(0), true), 7);
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode_canonical(&mut ea);
        b.encode_canonical(&mut eb);
        assert_eq!(ea, eb, "stats and absolute seqs must not leak into the fingerprint");
        // But a different payload does change it.
        let mut c = small_core();
        c.submit(meta(5, Some(0), true), 8);
        let mut ec = Vec::new();
        c.encode_canonical(&mut ec);
        assert_ne!(ea, ec);
    }

    #[test]
    fn apply_produces_the_same_effects_as_the_typed_methods() {
        let mut core = small_core();
        park(&mut core, 0);
        let effects = core.apply(Event::Submit { meta: meta(0, Some(0), true), payload: 3 });
        assert!(matches!(
            effects.as_slice(),
            [Effect::Signal { group: ThreadGroupId(0), kind: WakeKind::Targeted }]
        ));
        core.apply(Event::Wake { worker: WorkerId(0) });
        let effects = core.apply(Event::PopRequest { worker: WorkerId(0) });
        assert!(matches!(effects.as_slice(), [Effect::Run { payload: 3, .. }]));
        let effects = core.apply(Event::TaskFinished { worker: WorkerId(0), panicked: false });
        assert!(matches!(effects.as_slice(), [Effect::AllIdle]));
        core.apply(Event::Shutdown);
        let effects = core.apply(Event::PopRequest { worker: WorkerId(0) });
        assert!(matches!(effects.as_slice(), [Effect::Exit { worker: WorkerId(0) }]));
    }
}
