//! The run loops: set-up, closed-loop clients, oracle checks, and the timed
//! and traced shapes of each workload.

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, Action, ActionKind, ClusterCounters, ClusterWorld, Data, Digest, EngineCounters,
    EngineWorld, Fingerprint, Oracle, Request, ShadowCounts, Target,
};
use crate::json::Json;
use crate::ladder::{self, AggregateProbes, Metric};
use crate::stats::{median, percentile, percentile_supported, sorted, window_counts};
use crate::trace::{self, Span, SpanLog};
use crate::workloads::{
    lineitem_script, shift_script, Class, ShiftScript, Sizes, Statement, Workload,
};

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the table and the statements.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: the traced replay
    /// and the per-layer ladder.
    pub traced: bool,
    /// Table and script sizes.
    pub sizes: Sizes,
}

/// A condition a run must meet to count as having run what its name says.
#[derive(Debug, Clone)]
pub struct Guard {
    /// What is guarded.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Report {
    /// The metrics of the run's mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// A timed run's latency percentiles, in [`OBSERVED`] order: measured and
    /// reported like the metrics, but too unsteady on this host for a bound
    /// in `BENCHMARK.json`.
    pub observed: Vec<Metric>,
    /// Statements attempted while measuring.
    pub attempted: u64,
    /// Of those: typed errors, degraded answers and oracle mismatches.
    pub failed: u64,
    /// Whether every answer (warm-up and probes included) matched the oracle.
    pub correct: bool,
    /// The first few mismatches, for the log.
    pub mismatches: Vec<String>,
    /// Routing and self-measurement guards.
    pub guards: Vec<Guard>,
    /// Warnings that do not fail the run (a thin tail percentile).
    pub notes: Vec<String>,
    /// Roofline GB/s at the start and the end of the run.
    pub roofline: (f64, f64),
    /// Workload-specific facts worth keeping in the result file (the placer's
    /// action list, part layouts, counters that must repeat exactly).
    pub facts: Vec<(String, Json)>,
    /// The spans of a traced run.
    pub spans: Vec<Span>,
}

impl Report {
    /// Whether the process should exit 0.
    pub fn passed(&self) -> bool {
        self.correct && self.guards.iter().all(|g| g.ok)
    }
}

/// Probability that the lossy network of `cluster_drop` drops a message,
/// and that it duplicates a delivered one.
pub const CLUSTER_FAULTS: (f64, f64) = (0.05, 0.05);

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

enum World {
    Engine(Box<EngineWorld>),
    Cluster(Box<ClusterWorld>, Data),
}

impl World {
    fn target(&self) -> &dyn Target {
        match self {
            World::Engine(engine) => engine.as_ref(),
            World::Cluster(cluster, _) => cluster.as_ref(),
        }
    }

    fn shutdown(self) {
        match self {
            World::Engine(engine) => engine.shutdown(),
            World::Cluster(cluster, _) => cluster.shutdown(),
        }
    }
}

/// Generates the table and builds the engine or cluster: everything before
/// the first statement can be sent.
fn set_up(config: &Config) -> World {
    let data = config.workload.generate(&config.sizes, config.seed);
    match config.workload {
        Workload::SoloMix | Workload::HotMix => {
            World::Engine(Box::new(EngineWorld::build(data, Some(2))))
        }
        Workload::ShiftReorg => World::Engine(Box::new(EngineWorld::build(data, None))),
        Workload::ClusterDrop => {
            let cluster = ClusterWorld::build(&data, Some(CLUSTER_FAULTS), config.seed);
            World::Cluster(Box::new(cluster), data)
        }
    }
}

/// A run's clock: every sample time is seconds since `origin`.
struct Clock {
    origin: Instant,
}

impl Clock {
    fn start() -> Clock {
        Clock { origin: Instant::now() }
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// Sets up `config.sizes.setups` times, keeps the last world, and returns
/// every set-up's wall seconds.
fn set_up_repeatedly(config: &Config) -> (World, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut world = None;
    for _ in 0..config.sizes.setups.max(1) {
        if let Some(previous) = world.take() {
            World::shutdown(previous);
        }
        let start = Instant::now();
        world = Some(set_up(config));
        seconds.push(start.elapsed().as_secs_f64());
    }
    (world.expect("at least one set-up"), seconds)
}

// ---------------------------------------------------------------------------
// Closed-loop clients
// ---------------------------------------------------------------------------

/// One statement a client sent.
#[derive(Debug)]
struct Sample {
    /// Index into the statement list.
    index: usize,
    /// Seconds since the loop's origin when the statement was sent.
    start_s: f64,
    /// Seconds since the origin when its answer was complete.
    end_s: f64,
    digest: Digest,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }

    fn call_ns(&self) -> u64 {
        ((self.end_s - self.start_s) * 1e9) as u64
    }
}

/// When a client stops sending.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// No statement is sent after this many seconds since the origin.
    AtSeconds(f64),
    /// Positions `0..n` of the (wrapping) statement list are sent once.
    AfterStatements(usize),
}

/// Span recording for a closed loop: one log per client, and the statement
/// id of each position.
type Tracing<'a> = (&'a mut [SpanLog], &'a (dyn Fn(usize) -> u64 + Sync));

/// Runs `clients` closed-loop clients against `target`: client `c` sends
/// positions `c`, `c + clients`, … of `statements` (wrapping), each as soon
/// as its previous answer is complete. With `tracing`, every statement
/// records a root `stmt` span, a child around the engine call and a child
/// around the answer check.
fn closed_loop(
    target: &dyn Target,
    statements: &[Statement],
    clients: usize,
    origin: Instant,
    stop: Stop,
    tracing: Option<Tracing<'_>>,
) -> Vec<Sample> {
    let (mut logs, stmt_id) = match tracing {
        Some((logs, stmt_id)) => {
            assert_eq!(logs.len(), clients, "one span log per client");
            (logs.iter_mut().map(Some).collect::<Vec<_>>(), Some(stmt_id))
        }
        None => ((0..clients).map(|_| None).collect(), None),
    };
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .drain(..)
            .enumerate()
            .map(|(client, mut log)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut position = client;
                    loop {
                        match stop {
                            Stop::AtSeconds(s) if origin.elapsed().as_secs_f64() >= s => break,
                            Stop::AfterStatements(n) if position >= n => break,
                            _ => {}
                        }
                        let index = position % statements.len();
                        let request = &statements[index].request;
                        let sample = match (log.as_deref_mut(), stmt_id) {
                            (Some(log), Some(stmt_id)) => {
                                send_traced(target, request, index, origin, log, stmt_id(position))
                            }
                            _ => send(target, request, index, origin),
                        };
                        samples.push(sample);
                        position += clients;
                    }
                    samples
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("a client thread panicked")).collect()
    });
    samples.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    samples
}

fn send(target: &dyn Target, request: &Request, index: usize, origin: Instant) -> Sample {
    let start_s = origin.elapsed().as_secs_f64();
    let answer = target.execute(request);
    let end_s = origin.elapsed().as_secs_f64();
    // Hashing the answer stays outside the statement's interval.
    let digest = answer.digest();
    Sample { index, start_s, end_s, digest }
}

fn send_traced(
    target: &dyn Target,
    request: &Request,
    index: usize,
    origin: Instant,
    log: &mut SpanLog,
    stmt: u64,
) -> Sample {
    let root = log.reserve_id();
    let start_ns = log.now_ns();
    let start_s = origin.elapsed().as_secs_f64();
    let answer =
        log.child(root, stmt, target.call_name(request), false, || target.execute(request));
    let end_s = origin.elapsed().as_secs_f64();
    let digest = log.child(root, stmt, "bench.check", false, || answer.digest());
    let end_ns = log.now_ns();
    log.push(Span { id: root, parent: None, stmt, name: "stmt", start_ns, end_ns, shadow: false });
    Sample { index, start_s, end_s, digest }
}

// ---------------------------------------------------------------------------
// The oracle check
// ---------------------------------------------------------------------------

/// The verdict over a set of samples.
#[derive(Debug, Default)]
struct Verdict {
    /// Answers that differ from the oracle's, anywhere in the run.
    mismatches: Vec<String>,
    /// Among the samples sent while measuring: typed errors, degraded
    /// (partial) answers and mismatches.
    failed: u64,
}

impl Verdict {
    fn absorb(&mut self, other: Verdict) {
        self.mismatches.extend(other.mismatches);
        self.failed += other.failed;
    }
}

/// The oracle's answer to each distinct statement of `part`, per index.
fn oracle_answers(
    oracle: &Oracle<'_>,
    part: &[(&Request, Vec<usize>)],
) -> Vec<(usize, Fingerprint)> {
    part.iter()
        .flat_map(|(request, indices)| {
            let fingerprint = oracle.answer(request, None);
            indices.iter().map(move |&i| (i, fingerprint))
        })
        .collect()
}

/// Compares every sample's fingerprint with the scalar oracle's answer to
/// its statement. The oracle answers each distinct statement once (on two
/// threads); a degraded cluster answer is compared with the oracle
/// restricted to the shards that were served. Samples sent at or after
/// `measured_from_s` count towards [`Verdict::failed`].
fn verify(
    data: &Data,
    statements: &[Statement],
    samples: &[&Sample],
    shard_rows: Option<&[Range<usize>]>,
    measured_from_s: f64,
) -> Verdict {
    let mut used: Vec<usize> = samples.iter().map(|s| s.index).collect();
    used.sort_unstable();
    used.dedup();
    let scan_columns = used
        .iter()
        .map(|&i| &statements[i].request)
        .filter(|r| !r.is_aggregate())
        .map(|r| r.column());
    let oracle = Oracle::new(data, scan_columns);

    // Aggregations repeat (Q1 and Q6 are constants on lineitem): answer each
    // distinct one once.
    let mut distinct: Vec<(&Request, Vec<usize>)> = Vec::new();
    for &index in &used {
        let request = &statements[index].request;
        match distinct.iter_mut().find(|(r, _)| request.is_aggregate() && *r == request) {
            Some((_, indices)) => indices.push(index),
            None => distinct.push((request, vec![index])),
        }
    }
    let mut expected: Vec<Option<Fingerprint>> = vec![None; statements.len()];
    let (first, second) = distinct.split_at(distinct.len() / 2);
    let answered = std::thread::scope(|scope| {
        let oracle = &oracle;
        let helper = scope.spawn(move || oracle_answers(oracle, first));
        let mut all = oracle_answers(oracle, second);
        all.extend(helper.join().expect("the oracle thread panicked"));
        all
    });
    for (index, fingerprint) in answered {
        expected[index] = Some(fingerprint);
    }

    let mut verdict = Verdict::default();
    for sample in samples {
        let request = &statements[sample.index].request;
        let degraded = sample.digest.error.is_some() || !sample.digest.missing_shards.is_empty();
        let want = if sample.digest.missing_shards.is_empty() {
            expected[sample.index]
        } else {
            let shards = shard_rows.expect("only a cluster answers partially");
            let served: Vec<Range<usize>> = shards
                .iter()
                .enumerate()
                .filter(|(shard, _)| !sample.digest.missing_shards.contains(shard))
                .map(|(_, rows)| rows.clone())
                .collect();
            Some(oracle.answer(request, Some(&served)))
        };
        let mismatch = sample.digest.error.is_none() && sample.digest.fingerprint != want;
        if mismatch {
            verdict
                .mismatches
                .push(format!("{request:?}: got {:?}, oracle {want:?}", sample.digest.fingerprint));
        }
        if (degraded || mismatch) && sample.start_s >= measured_from_s {
            verdict.failed += 1;
        }
    }
    verdict
}

// ---------------------------------------------------------------------------
// Metric helpers
// ---------------------------------------------------------------------------

/// The latency metrics, per class: `(class, median's name, tail percentile,
/// tail's name)`. The tails are the highest percentiles a run's sample counts
/// support: scans are the most numerous class, Q1 the rarest.
const LATENCIES: [(Class, &str, f64, &str); 3] = [
    (Class::Scan, "scan_p50_ms", 0.99, "scan_p99_ms"),
    (Class::Q6, "q6_p50_ms", 0.95, "q6_p95_ms"),
    (Class::Q1, "q1_p50_ms", 0.90, "q1_p90_ms"),
];

/// The median and the tail latency of each class over `measured`, every
/// execution counted as the client saw it, named `<prefix><name>`. A class
/// without a sample is left out (and noted); a tail with fewer than ten
/// samples beyond it is noted.
fn latency_metrics(
    prefix: &str,
    statements: &[Statement],
    measured: &[&Sample],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut metrics = Vec::new();
    for (class, p50_name, tail, tail_name) in LATENCIES {
        let (p50_name, tail_name) = (format!("{prefix}{p50_name}"), format!("{prefix}{tail_name}"));
        let ms: Vec<f64> = sorted(
            &measured
                .iter()
                .filter(|s| statements[s.index].class == class)
                .map(|s| s.latency_ms())
                .collect::<Vec<_>>(),
        );
        if ms.is_empty() {
            notes.push(format!("{p50_name}: no statement of the class completed while measuring"));
            continue;
        }
        if !percentile_supported(ms.len(), tail) {
            notes
                .push(format!("{tail_name}: fewer than ten of {} samples lie beyond it", ms.len()));
        }
        metrics.push(Metric::new(&p50_name, percentile(&ms, 0.5), "ms", ms.len()));
        metrics.push(Metric::new(&tail_name, percentile(&ms, tail), "ms", ms.len()));
    }
    metrics
}

/// Seconds per throughput window of a duration-bound run.
const WINDOW_S: f64 = 1.0;

/// `stmts_per_s` of a duration-bound run: the median, over the whole
/// [`WINDOW_S`] windows of `[from_s, from_s + seconds)`, of the statements
/// completed in the window per second.
fn window_median_rate(samples: &[Sample], from_s: f64, seconds: f64) -> Metric {
    // A run shorter than one window is one window.
    let (width, windows) =
        if seconds < WINDOW_S { (seconds, 1) } else { (WINDOW_S, (seconds / WINDOW_S) as usize) };
    let counts = window_counts(samples.iter().map(|s| s.end_s), from_s, width, windows);
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    Metric::new("stmts_per_s", median(&rates), "1/s", windows)
}

/// `ok_share`: the statements answered completely and correctly ÷ the
/// statements attempted (1 − the issue's `failed_share`, which a healthy run
/// would report as 0, and a metric may not be 0).
fn ok_share(attempted: usize, failed: u64) -> Metric {
    Metric::new("ok_share", 1.0 - share(failed, attempted as u64), "ratio", attempted)
}

/// `VmHWM` of this process in MiB (0 where `/proc` is not readable).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn zero_guards(counters: &EngineCounters, guards: &mut Vec<Guard>) {
    guards.push(Guard {
        name: "no watchdog wakeups and no affinity violations",
        ok: counters.watchdog_wakeups == 0 && counters.affinity_violations == 0,
        detail: format!(
            "watchdog_wakeups {}, affinity_violations {}",
            counters.watchdog_wakeups, counters.affinity_violations
        ),
    });
}

/// The guard that the generator costs under 1 % of the median statement.
fn generator_guard(gen_us_per_stmt: f64, median_stmt_ms: f64, guards: &mut Vec<Guard>) {
    guards.push(Guard {
        name: "generating a statement costs under 1 % of the median statement",
        ok: gen_us_per_stmt < median_stmt_ms * 1e3 * 0.01,
        detail: format!("{gen_us_per_stmt:.3} us against a median of {median_stmt_ms:.3} ms"),
    });
}

/// The routing guard of the two lineitem engine workloads: `solo_mix` never
/// attaches to a shared sweep, `hot_mix` nearly always does.
fn routing_guard(workload: Workload, attach_share: f64, guards: &mut Vec<Guard>) {
    let (name, ok) = match workload {
        Workload::SoloMix => ("no statement shares a sweep", attach_share == 0.0),
        Workload::HotMix => ("nearly every statement shares a sweep", attach_share >= 0.8),
        _ => return,
    };
    guards.push(Guard { name, ok, detail: format!("core.shared.attach_share {attach_share:.4}") });
}

// ---------------------------------------------------------------------------
// Timed runs
// ---------------------------------------------------------------------------

/// Runs `config` and returns its report.
pub fn run(config: &Config) -> Report {
    let roofline_start = ladder::roofline_gbps(config.sizes.roofline_bytes);
    let clock = Clock::start();
    let mut report = match (config.workload, config.traced) {
        (Workload::ShiftReorg, false) => timed_shift(config, &clock),
        (Workload::ShiftReorg, true) => traced_shift(config, &clock),
        (_, false) => timed_mix(config, &clock),
        (_, true) => traced_mix(config, &clock),
    };
    let roofline_end = ladder::roofline_gbps(config.sizes.roofline_bytes);
    report.roofline = (roofline_start, roofline_end);
    if config.traced {
        let drift = (roofline_end - roofline_start).abs() / roofline_start;
        report.metrics.push(Metric::new("roofline.sum_gbps", roofline_start, "GB/s", 3));
        report.metrics.push(Metric::new("roofline.drift_share", drift, "ratio", 2));
        report.metrics = ordered(std::mem::take(&mut report.metrics), &PER_LAYER);
    } else {
        report.metrics = ordered(std::mem::take(&mut report.metrics), &END_TO_END);
    }
    report
}

/// The metrics every timed run ends with.
fn footprint_metrics(data: &Data, setups: &[f64]) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", median(setups), "s", setups.len()),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB", 1),
        Metric::new("stored_bytes_per_user_byte", data.stored_bytes_per_user_byte(), "ratio", 1),
    ]
}

/// `solo_mix`, `hot_mix` and `cluster_drop`, tracing off: closed-loop clients
/// for the warm-up plus `config.seconds`.
fn timed_mix(config: &Config, clock: &Clock) -> Report {
    let (world, setups) = set_up_repeatedly(config);
    let data = match &world {
        World::Engine(engine) => engine.data(),
        World::Cluster(_, data) => data.clone(),
    };
    let script = lineitem_script(config.workload, &data, &config.sizes, config.seed);
    let clients = config.workload.clients();

    let engine_before =
        if let World::Engine(e) = &world { e.counters() } else { Default::default() };
    let cluster_before =
        if let World::Cluster(c, _) = &world { c.counters() } else { Default::default() };
    let measured_from = clock.now_s() + config.sizes.warmup_s;
    let measured_to = measured_from + config.seconds;
    let stop = Stop::AtSeconds(measured_to);
    let samples =
        closed_loop(world.target(), &script.statements, clients, clock.origin, stop, None);
    let mut guards = Vec::new();
    let mut facts = Vec::new();
    match &world {
        World::Engine(engine) => {
            let counters = engine.counters() - engine_before;
            zero_guards(&counters, &mut guards);
            // Both lineitem engines hold two parts per column.
            let attach_share = share(counters.attaches, samples.len() as u64 * 2);
            routing_guard(config.workload, attach_share, &mut guards);
        }
        World::Cluster(cluster, _) => {
            let counters = cluster.counters() - cluster_before;
            guards.push(Guard {
                name: "the lossy network forces retries",
                ok: counters.retries > 0,
                detail: format!(
                    "{} retries over {} statements",
                    counters.retries, counters.queries
                ),
            });
            facts.push(("cluster_counters".to_string(), cluster_facts(&counters)));
        }
    }

    let all: Vec<&Sample> = samples.iter().collect();
    let shard_rows = if let World::Cluster(c, _) = &world { Some(c.shard_rows()) } else { None };
    let verdict = verify(&data, &script.statements, &all, shard_rows.as_deref(), measured_from);

    let mut notes = Vec::new();
    let measured: Vec<&Sample> = samples.iter().filter(|s| s.start_s >= measured_from).collect();
    let mut metrics = vec![window_median_rate(&samples, measured_from, config.seconds)];
    metrics.push(ok_share(measured.len(), verdict.failed));
    metrics.extend(footprint_metrics(&data, &setups));
    let observed = latency_metrics("", &script.statements, &measured, &mut notes);
    let median_ms = median(&measured.iter().map(|s| s.latency_ms()).collect::<Vec<_>>());
    generator_guard(
        script.generation_s * 1e6 / script.statements.len() as f64,
        median_ms,
        &mut guards,
    );
    world.shutdown();

    Report {
        metrics,
        observed,
        attempted: measured.len() as u64,
        failed: verdict.failed,
        correct: verdict.mismatches.is_empty(),
        mismatches: verdict.mismatches,
        guards,
        notes,
        roofline: (0.0, 0.0),
        facts,
        spans: Vec::new(),
    }
}

fn cluster_facts(counters: &ClusterCounters) -> Json {
    Json::obj([
        ("queries", Json::Num(counters.queries as f64)),
        ("requests", Json::Num(counters.requests as f64)),
        ("retries", Json::Num(counters.retries as f64)),
        ("failovers", Json::Num(counters.failovers as f64)),
        ("duplicates_dropped", Json::Num(counters.duplicates_dropped as f64)),
        ("partials", Json::Num(counters.partials as f64)),
        ("dropped", Json::Num(counters.dropped as f64)),
    ])
}

// ---------------------------------------------------------------------------
// The shift cycle
// ---------------------------------------------------------------------------

/// What one pass over a shift cycle's fixed work produced.
struct Cycle {
    samples: Vec<Sample>,
    /// When the cycle started and ended (seconds on the run's clock);
    /// rebalance pauses lie inside.
    start_s: f64,
    end_s: f64,
    actions: Vec<Action>,
    rebalance_ms: Vec<f64>,
    /// Index-vector bytes the cycle's statements demanded.
    bytes: u64,
    /// Utilization spread of the cycle's last epoch.
    last_spread: f64,
    /// Σ over statements of the parts their column had when they were sent.
    part_scans: u64,
}

impl Cycle {
    /// Statements per wall second of the cycle, rebalance pauses included.
    fn rate(&self) -> f64 {
        self.samples.len() as f64 / (self.end_s - self.start_s)
    }

    fn count(&self, kind: ActionKind) -> usize {
        self.actions.iter().filter(|a| a.kind == kind).count()
    }

    fn action_texts(&self) -> Vec<String> {
        self.actions.iter().map(|a| a.text.clone()).collect()
    }
}

/// Runs one cycle: per epoch the client sends its fixed statements, then the
/// default placer steps once on the live engine.
fn run_cycle(
    engine: &EngineWorld,
    script: &ShiftScript,
    clock: &Clock,
    mut logs: Option<&mut [SpanLog]>,
) -> Cycle {
    let origin = clock.origin;
    let mut cycle = Cycle {
        samples: Vec::new(),
        start_s: clock.now_s(),
        end_s: 0.0,
        actions: Vec::new(),
        rebalance_ms: Vec::new(),
        bytes: 0,
        last_spread: 0.0,
        part_scans: 0,
    };
    for (e, range) in script.epochs.iter().enumerate() {
        let epoch_started = Instant::now();
        let list = &script.statements[range.clone()];
        cycle.part_scans +=
            list.iter().map(|s| engine.partitions(s.request.column()) as u64).sum::<u64>();
        let stmt_id = |position: usize| (range.start + position + 1) as u64;
        let tracing: Option<Tracing<'_>> =
            logs.as_deref_mut().map(|logs| (&mut logs[..1], &stmt_id as _));
        let stop = Stop::AfterStatements(list.len());
        let mut samples = closed_loop(engine, list, 1, origin, stop, tracing);
        for sample in &mut samples {
            sample.index += range.start;
        }
        cycle.samples.extend(samples);

        let elapsed = epoch_started.elapsed().max(Duration::from_micros(1));
        let rebalance_started = Instant::now();
        let outcome = match logs.as_deref_mut() {
            None => engine.rebalance(elapsed),
            Some(logs) => {
                // The placer's step is a statement-less root of its own.
                let log = logs.last_mut().expect("a lane for the main thread");
                let stmt = (script.statements.len() + e + 1) as u64;
                let root = log.reserve_id();
                let start_ns = log.now_ns();
                let outcome = log.child(root, stmt, "core.adaptive.rebalance", false, || {
                    engine.rebalance(elapsed)
                });
                let end_ns = log.now_ns();
                let name = "rebalance";
                log.push(Span {
                    id: root,
                    parent: None,
                    stmt,
                    name,
                    start_ns,
                    end_ns,
                    shadow: false,
                });
                outcome
            }
        };
        cycle.rebalance_ms.push(rebalance_started.elapsed().as_secs_f64() * 1e3);
        cycle.bytes += outcome.bytes;
        cycle.last_spread = outcome.spread;
        cycle.actions.push(outcome.action);
    }
    cycle.end_s = clock.now_s();
    cycle
}

fn shift_engine(world: World) -> EngineWorld {
    match world {
        World::Engine(engine) => *engine,
        World::Cluster(..) => unreachable!("shift_reorg runs on one engine"),
    }
}

fn shift_facts(engine: &EngineWorld, cycles: &[&Cycle]) -> Vec<(String, Json)> {
    let layouts = engine.part_layouts("runs").into_iter().map(Json::str).collect();
    let actions = cycles
        .iter()
        .map(|c| Json::Arr(c.action_texts().into_iter().map(Json::Str).collect()))
        .collect();
    vec![
        ("runs_part_layouts".to_string(), Json::Arr(layouts)),
        ("actions_per_cycle".to_string(), Json::Arr(actions)),
    ]
}

/// `shift_reorg`, tracing off: one warm-up cycle, then whole cycles until
/// `config.seconds` have been measured.
fn timed_shift(config: &Config, clock: &Clock) -> Report {
    let (world, setups) = set_up_repeatedly(config);
    let engine = shift_engine(world);
    let data = engine.data();
    let script = shift_script(&config.sizes, config.seed);
    let before = engine.counters();

    let warmup = run_cycle(&engine, &script, clock, None);
    let mut cycles: Vec<Cycle> = Vec::new();
    let measured_from_s = clock.now_s();
    while cycles.is_empty() || clock.now_s() - measured_from_s < config.seconds {
        cycles.push(run_cycle(&engine, &script, clock, None));
    }

    let mut guards = Vec::new();
    zero_guards(&(engine.counters() - before), &mut guards);
    let repartitions: Vec<usize> =
        cycles.iter().map(|c| c.count(ActionKind::Repartition)).collect();
    guards.push(Guard {
        name: "every measured cycle repartitions at least once",
        ok: repartitions.iter().all(|&n| n >= 1),
        detail: format!("repartitions per measured cycle {repartitions:?}"),
    });
    let relayouts: usize = warmup.count(ActionKind::Relayout)
        + cycles.iter().map(|c| c.count(ActionKind::Relayout)).sum::<usize>();
    guards.push(Guard {
        name: "the run relayouts at least once",
        ok: relayouts >= 1,
        detail: format!("{relayouts} relayouts; runs parts {:?}", engine.part_layouts("runs")),
    });

    let all: Vec<&Sample> =
        warmup.samples.iter().chain(cycles.iter().flat_map(|c| &c.samples)).collect();
    let verdict = verify(&data, &script.statements, &all, None, measured_from_s);
    let measured: Vec<&Sample> = cycles.iter().flat_map(|c| &c.samples).collect();

    // Cycles are equal blocks of work: the median over cycles of the cycle's
    // statements per wall second, rebalance pauses included.
    let mut notes = Vec::new();
    let rates: Vec<f64> = cycles.iter().map(Cycle::rate).collect();
    let mut metrics = vec![Metric::new("stmts_per_s", median(&rates), "1/s", rates.len())];
    metrics.push(ok_share(measured.len(), verdict.failed));
    metrics.extend(footprint_metrics(&data, &setups));
    let observed = latency_metrics("", &script.statements, &measured, &mut notes);
    let median_ms = median(&measured.iter().map(|s| s.latency_ms()).collect::<Vec<_>>());
    generator_guard(
        script.generation_s * 1e6 / script.statements.len() as f64,
        median_ms,
        &mut guards,
    );

    let mut every_cycle = vec![&warmup];
    every_cycle.extend(&cycles);
    let facts = shift_facts(&engine, &every_cycle);
    engine.shutdown();
    Report {
        metrics,
        observed,
        attempted: measured.len() as u64,
        failed: verdict.failed,
        correct: verdict.mismatches.is_empty(),
        mismatches: verdict.mismatches,
        guards,
        notes,
        roofline: (0.0, 0.0),
        facts,
        spans: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// Statements sent straight to one engine, with what the engine counted
/// meanwhile: the input of every `scheduler.*`, `core.native.*` and
/// `core.shared.*` per-statement metric.
struct EnginePass {
    statements: u64,
    /// Σ over statements of the parts their column had.
    part_scans: u64,
    /// Table rows, for the amortization estimate.
    rows: u64,
    counters: EngineCounters,
    /// Index-vector bytes the statements demanded.
    bytes: u64,
    /// Utilization spread over the pass.
    spread: f64,
    /// Σ of the engine calls' wall nanoseconds.
    call_ns: u64,
    /// Σ of the same statements' serial shadow nanoseconds.
    shadow_ns: u64,
}

fn engine_metrics(pass: &EnginePass) -> Vec<Metric> {
    let n = pass.statements as usize;
    let c = &pass.counters;
    let attach_share = share(c.attaches, pass.part_scans);
    // Rows the attached statements demanded ÷ rows the sweeps read for them.
    let demanded = attach_share * (pass.statements * pass.rows) as f64;
    let amortization = if c.rows_swept == 0 { 0.0 } else { demanded / c.rows_swept as f64 };
    let efficiency = if pass.call_ns == 0 {
        0.0
    } else {
        pass.shadow_ns as f64 / (pass.call_ns as f64 * adapter::POOL_WORKERS as f64)
    };
    vec![
        Metric::new("scheduler.tasks_per_stmt", share(c.tasks, pass.statements), "count", n),
        Metric::new("scheduler.stolen_share", share(c.stolen, c.tasks), "ratio", n),
        Metric::new("scheduler.false_wakeup_share", share(c.false_wakeups, c.wakeups), "ratio", n),
        Metric::new("scheduler.watchdog_wakeups", c.watchdog_wakeups as f64, "count", n),
        Metric::new("scheduler.affinity_violations", c.affinity_violations as f64, "count", n),
        Metric::new("core.native.parallel_efficiency", efficiency, "ratio", n),
        Metric::new("core.native.bytes_per_stmt", share(pass.bytes, pass.statements), "B", n),
        Metric::new("core.native.socket_spread", pass.spread, "ratio", n),
        Metric::new("core.shared.attach_share", attach_share, "ratio", n),
        Metric::new("core.shared.amortization", amortization, "ratio", n),
        Metric::new(
            "core.shared.late_attach_share",
            share(c.late_attaches, c.attaches),
            "ratio",
            n,
        ),
        Metric::new(
            "core.shared.chunks_per_stmt",
            share(c.chunks_swept, pass.statements),
            "count",
            n,
        ),
    ]
}

/// Statements sent through a lossy cluster, with what the coordinator
/// counted meanwhile.
struct ClusterPass {
    counters: ClusterCounters,
    /// Virtual milliseconds each statement's clock advanced.
    virtual_ms: Vec<f64>,
    /// Wall milliseconds of the `Cluster::count` statements.
    count_ms: Vec<f64>,
}

fn cluster_metrics(pass: &ClusterPass, overhead_ratio: f64, build_s: f64) -> Vec<Metric> {
    let c = &pass.counters;
    let n = c.queries as usize;
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    vec![
        Metric::new("cluster.overhead_ratio", overhead_ratio, "ratio", n),
        Metric::new("cluster.build_s", build_s, "s", 1),
        Metric::new("cluster.requests_per_stmt", share(c.requests, c.queries), "count", n),
        Metric::new("cluster.retry_share", share(c.retries, c.requests), "ratio", n),
        Metric::new("cluster.failover_share", share(c.failovers, c.requests), "ratio", n),
        Metric::new(
            "cluster.dup_dropped_share",
            share(c.duplicates_dropped, c.requests),
            "ratio",
            n,
        ),
        Metric::new("cluster.partial_share", share(c.partials, c.queries), "ratio", n),
        Metric::new("cluster.virtual_ms_mean", mean(&pass.virtual_ms), "ms", pass.virtual_ms.len()),
        Metric::new("cluster.count_p50_ms", p50(&pass.count_ms), "ms", pass.count_ms.len()),
    ]
}

/// What the serial replay of a list of statements measured.
struct Shadows {
    counts: ShadowCounts,
    scan_statements: u64,
    /// Serial nanoseconds per statement position.
    serial_ns: Vec<u64>,
}

/// Replays every statement's storage / aggregate work serially on the main
/// thread, as shadow spans under the statement's id (its position plus one).
fn replay_shadows(
    data: &Data,
    statements: &[Statement],
    parts_of: impl Fn(&Request) -> usize,
    log: &mut SpanLog,
) -> Shadows {
    let mut total = ShadowCounts::default();
    let mut scan_statements = 0;
    let mut serial_ns = Vec::with_capacity(statements.len());
    for (position, statement) in statements.iter().enumerate() {
        let stmt = position as u64 + 1;
        // Shadows hang off a root of their own carrying the statement's id:
        // they happen after the statement, outside its interval.
        let root = log.reserve_id();
        let start_ns = log.now_ns();
        let request = &statement.request;
        let counts = adapter::shadow(data, request, parts_of(request), log, root, stmt);
        let end_ns = log.now_ns();
        log.push(Span {
            id: root,
            parent: None,
            stmt,
            name: "shadow",
            start_ns,
            end_ns,
            shadow: true,
        });
        serial_ns.push(end_ns - start_ns);
        if statement.class == Class::Scan {
            scan_statements += 1;
            total.parts += counts.parts;
            total.pruned += counts.pruned;
            total.rows_examined += counts.rows_examined;
            total.rows_matched += counts.rows_matched;
        }
        total.values += counts.values;
    }
    Shadows { counts: total, scan_statements, serial_ns }
}

/// The metrics read off the shadow spans and the statement roots.
fn span_metrics(spans: &[Span], shadows: &Shadows) -> Vec<Metric> {
    let (encode_ns, encodes) = trace::total_ns(spans, "storage.encode");
    let (check_ns, checks) = trace::total_ns(spans, "bench.check");
    let roots = trace::root_self_times(spans, "stmt");
    let self_ns: u64 = roots.iter().map(|(own, _)| own).sum();
    let root_ns: u64 = roots.iter().map(|(_, all)| all).sum();
    let scans = shadows.scan_statements as usize;
    vec![
        Metric::new(
            "storage.encode_us",
            encode_ns as f64 / 1e3 / encodes.max(1) as f64,
            "us",
            encodes,
        ),
        Metric::new(
            "storage.prune_share",
            share(shadows.counts.pruned, shadows.counts.parts),
            "ratio",
            scans,
        ),
        Metric::new(
            "storage.rows_examined_per_result",
            shadows.counts.rows_examined as f64 / shadows.counts.rows_matched.max(1) as f64,
            "count",
            scans,
        ),
        Metric::new(
            "workload.check_us_per_stmt",
            check_ns as f64 / 1e3 / checks.max(1) as f64,
            "us",
            checks,
        ),
        Metric::new("trace.stmt_self_share", share(self_ns, root_ns), "ratio", roots.len()),
    ]
}

/// Sends `statements` once, one at a time; returns the samples and the sum
/// of the calls' wall nanoseconds.
fn serial_pass(target: &dyn Target, statements: &[Statement]) -> (Vec<Sample>, u64) {
    let stop = Stop::AfterStatements(statements.len());
    let samples = closed_loop(target, statements, 1, Instant::now(), stop, None);
    let wall_ns = samples.iter().map(Sample::call_ns).sum();
    (samples, wall_ns)
}

/// Checks a probe pass against the oracle; probe statements are not part of
/// the run's `attempted`, so none counts as a measured failure.
fn verify_probe(
    data: &Data,
    statements: &[Statement],
    samples: &[Sample],
    shard_rows: Option<&[Range<usize>]>,
) -> Verdict {
    let samples: Vec<&Sample> = samples.iter().collect();
    verify(data, statements, &samples, shard_rows, f64::INFINITY)
}

/// The cluster rung of the ladder.
struct ClusterRung {
    /// Seconds `Cluster::build` took.
    build_s: f64,
    /// Zero-fault cluster wall ÷ direct engine wall over the same statements.
    overhead_ratio: f64,
    /// Wall milliseconds of the rung's scans answered as `Cluster::count`.
    count_ms: Vec<f64>,
    /// With `lossy`: the same statements through the `cluster_drop` network.
    lossy: Option<ClusterPass>,
    /// The direct engine, still alive, and what it did for the statements.
    engine: EngineWorld,
    direct: EnginePass,
    /// Positions (into the rung's statements) the direct engine answered.
    direct_positions: Vec<usize>,
    verdict: Verdict,
}

/// A zero-fault cluster and one engine over the same table answer the same
/// statements (`cluster.overhead_ratio`); the cluster also answers the scans
/// as counts. With `lossy`, a second cluster with the `cluster_drop` fault
/// rates answers the statements too and is counted.
fn cluster_rung(data: &Data, statements: &[Statement], seed: u64, lossy: bool) -> ClusterRung {
    let start = Instant::now();
    let clean = ClusterWorld::build(data, None, seed);
    let build_s = start.elapsed().as_secs_f64();
    let shard_rows = clean.shard_rows();
    let engine = EngineWorld::build(data.clone(), None);

    // The engine has no count entry point: counts go to the cluster only.
    let direct_positions: Vec<usize> =
        (0..statements.len()).filter(|&i| statements[i].class != Class::Count).collect();
    let direct_statements: Vec<Statement> =
        direct_positions.iter().map(|&i| statements[i].clone()).collect();
    let part_scans =
        direct_statements.iter().map(|s| engine.partitions(s.request.column()) as u64).sum();
    let before = engine.counters();
    engine.take_epoch();
    let (direct_samples, direct_ns) = serial_pass(&engine, &direct_statements);
    let (bytes, spread) = engine.take_epoch();
    let direct = EnginePass {
        statements: direct_statements.len() as u64,
        part_scans,
        rows: data.rows() as u64,
        counters: engine.counters() - before,
        bytes,
        spread,
        call_ns: direct_ns,
        shadow_ns: 0,
    };
    let mut verdict = verify_probe(data, &direct_statements, &direct_samples, None);

    let (clean_samples, clean_ns) = serial_pass(&clean, &direct_statements);
    verdict.absorb(verify_probe(data, &direct_statements, &clean_samples, Some(&shard_rows)));
    let counts: Vec<Statement> = statements
        .iter()
        .filter(|s| matches!(s.class, Class::Scan | Class::Count))
        .map(|s| Statement { class: Class::Count, request: s.request.clone().counting() })
        .collect();
    let (count_samples, _) = serial_pass(&clean, &counts);
    verdict.absorb(verify_probe(data, &counts, &count_samples, Some(&shard_rows)));
    clean.shutdown();

    let lossy = lossy.then(|| {
        let cluster = ClusterWorld::build(data, Some(CLUSTER_FAULTS), seed);
        let (samples, _) = serial_pass(&cluster, statements);
        verdict.absorb(verify_probe(data, statements, &samples, Some(&shard_rows)));
        let pass = ClusterPass {
            counters: cluster.counters(),
            virtual_ms: samples.iter().map(|s| s.digest.virtual_us as f64 / 1e3).collect(),
            count_ms: Vec::new(),
        };
        cluster.shutdown();
        pass
    });

    ClusterRung {
        build_s,
        overhead_ratio: clean_ns as f64 / direct_ns.max(1) as f64,
        count_ms: count_samples.iter().map(Sample::latency_ms).collect(),
        lossy,
        engine,
        direct,
        direct_positions,
        verdict,
    }
}

/// Times the placement changes the adaptive layer makes, on a live engine:
/// a repartition of the hot column and back, a relayout of the sorted
/// column's first part and back, and five placer steps (added to
/// `rebalance_ms`, which a shift cycle has already filled).
fn adaptive_rung(
    engine: &EngineWorld,
    workload: Workload,
    mut rebalance_ms: Vec<f64>,
) -> Vec<Metric> {
    let roles = workload.roles();
    let parts = engine.partitions(roles.hot);
    let start = Instant::now();
    engine.repartition(roles.hot, parts * 2);
    let repartition_ms = start.elapsed().as_secs_f64() * 1e3;
    engine.repartition(roles.hot, parts);

    let start = Instant::now();
    let changed = engine.relayout_first_part(roles.sorted, true);
    let relayout_ms = start.elapsed().as_secs_f64() * 1e3;
    if changed {
        engine.relayout_first_part(roles.sorted, false);
    }
    for _ in 0..5 {
        let start = Instant::now();
        engine.rebalance(Duration::from_millis(100));
        rebalance_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let worst = rebalance_ms.iter().copied().fold(0.0, f64::max);
    let n = rebalance_ms.len();
    vec![
        Metric::new("core.adaptive.rebalance_ms_p50", median(&rebalance_ms), "ms", n),
        Metric::new("core.adaptive.rebalance_ms_max", worst, "ms", n),
        Metric::new("core.adaptive.repartition_ms", repartition_ms, "ms", 1),
        Metric::new("core.adaptive.relayout_ms", relayout_ms, "ms", 1),
    ]
}

/// The workload's Q1- and Q6-shaped probe statements: the first of each
/// class in its script.
fn aggregate_probes(statements: &[Statement]) -> AggregateProbes {
    let first = |class| {
        statements
            .iter()
            .find(|s| s.class == class)
            .unwrap_or_else(|| panic!("the script has no {class:?} statement"))
            .request
            .clone()
    };
    AggregateProbes { q1: first(Class::Q1), q6: first(Class::Q6) }
}

/// Every per-layer metric, in reporting order.
pub const PER_LAYER: [&str; 61] = [
    "roofline.sum_gbps",
    "roofline.drift_share",
    "storage.scan_masks_gbps",
    "storage.scan_positions_ms",
    "storage.scan_bitvector_ms",
    "storage.batch2_gbps",
    "storage.batch8_gbps",
    "storage.batch64_gbps",
    "storage.materialize_ns_per_value",
    "storage.encode_us",
    "storage.prune_share",
    "storage.rows_examined_per_result",
    "storage.rle_scan_mrows_per_s",
    "storage.relayout_ms",
    "storage.table_build_s",
    "scheduler.submit_to_start_us",
    "scheduler.tasks_per_s",
    "scheduler.tasks_per_stmt",
    "scheduler.stolen_share",
    "scheduler.false_wakeup_share",
    "scheduler.watchdog_wakeups",
    "scheduler.affinity_violations",
    "core.native.parallel_efficiency",
    "core.native.bytes_per_stmt",
    "core.native.socket_spread",
    "core.shared.attach_share",
    "core.shared.amortization",
    "core.shared.late_attach_share",
    "core.shared.chunks_per_stmt",
    "core.aggregate.fused_q1_ns_per_row",
    "core.aggregate.fused_q6_ns_per_row",
    "core.aggregate.positions_q6_ns_per_row",
    "core.aggregate.merge_us",
    "core.adaptive.rebalance_ms_p50",
    "core.adaptive.rebalance_ms_max",
    "core.adaptive.repartition_ms",
    "core.adaptive.relayout_ms",
    "core.adaptive.actions_per_cycle",
    "core.adaptive.post_shift_spread",
    "cluster.overhead_ratio",
    "cluster.build_s",
    "cluster.requests_per_stmt",
    "cluster.retry_share",
    "cluster.failover_share",
    "cluster.dup_dropped_share",
    "cluster.partial_share",
    "cluster.virtual_ms_mean",
    "cluster.count_p50_ms",
    "workload.gen_us_per_stmt",
    "workload.check_us_per_stmt",
    "trace.overhead_share",
    "trace.stmt_self_share",
    "trace.statements",
    "trace.spans",
    "replay.stmts_per_s",
    "replay.scan_p50_ms",
    "replay.scan_p99_ms",
    "replay.q6_p50_ms",
    "replay.q6_p95_ms",
    "replay.q1_p50_ms",
    "replay.q1_p90_ms",
];

/// Every end-to-end metric, in reporting order.
pub const END_TO_END: [&str; 5] =
    ["stmts_per_s", "ok_share", "setup_s", "peak_rss_mib", "stored_bytes_per_user_byte"];

/// What a timed run observes besides: every class's median and tail latency.
pub const OBSERVED: [&str; 6] =
    ["scan_p50_ms", "scan_p99_ms", "q6_p50_ms", "q6_p95_ms", "q1_p50_ms", "q1_p90_ms"];

/// Orders `metrics` as `names` lists them; a name that was not measured is
/// left out (and reported by the caller's check against `BENCHMARK.json`).
fn ordered(mut metrics: Vec<Metric>, names: &[&str]) -> Vec<Metric> {
    names
        .iter()
        .filter_map(|name| {
            let at = metrics.iter().position(|m| m.name == *name)?;
            Some(metrics.swap_remove(at))
        })
        .collect()
}

/// What the traced replay of a workload hands to the shared tail of a
/// traced run.
struct Replay {
    data: Data,
    /// Statements the ladder's cluster rung and aggregate probes draw from.
    statements: Vec<Statement>,
    generation_s: f64,
    /// Samples of the plain and the spans pass.
    samples: Vec<Sample>,
    /// When the spans pass started.
    spans_from: f64,
    /// Seconds the two passes took (they need not be back to back).
    replay_s: f64,
    logs: Vec<SpanLog>,
    shadows: Shadows,
    /// The engine pass, unless it comes from the cluster rung's direct engine.
    engine_pass: Option<EnginePass>,
    /// The cluster pass, unless it comes from the cluster rung's lossy cluster.
    cluster_pass: Option<ClusterPass>,
    /// The engine the adaptive rung changes, unless it is the rung's.
    engine: Option<EngineWorld>,
    rebalance_ms: Vec<f64>,
    /// Placer actions and post-shift spread of a shift cycle (zero without).
    actions_per_cycle: f64,
    post_shift_spread: f64,
    verdict: Verdict,
    guards: Vec<Guard>,
    facts: Vec<(String, Json)>,
}

/// The tail every traced run shares: the cluster rung, the adaptive rung,
/// the span-derived metrics and the ladder over the rest of the budget.
fn finish_traced(config: &Config, deadline: Instant, replay: Replay) -> Report {
    let Replay {
        data,
        statements,
        generation_s,
        samples,
        spans_from,
        replay_s,
        logs,
        shadows,
        engine_pass,
        cluster_pass,
        engine,
        rebalance_ms,
        actions_per_cycle,
        post_shift_spread,
        mut verdict,
        mut guards,
        facts,
    } = replay;

    // The cluster rung runs on the workload's own table when the workload is
    // a cluster (its lossy numbers then come from the workload itself), else
    // on a slice of it.
    let own_cluster = cluster_pass.is_some();
    let rung_data =
        if own_cluster { data.clone() } else { data.head(config.sizes.cluster_probe_rows) };
    let rung_statements = &statements[..statements.len().min(100)];
    let rung = cluster_rung(&rung_data, rung_statements, config.seed, !own_cluster);
    verdict.absorb(rung.verdict);
    let cluster_pass = match (cluster_pass, rung.lossy) {
        (Some(own), _) => own,
        (None, Some(lossy)) => ClusterPass { count_ms: rung.count_ms, ..lossy },
        (None, None) => unreachable!("without a cluster of its own the rung runs a lossy one"),
    };
    // Without an engine of its own, a workload's engine-level numbers are
    // those of its statements sent straight to one engine over its table.
    let engine_pass = engine_pass.unwrap_or_else(|| {
        let shadow_ns = rung.direct_positions.iter().map(|&p| shadows.serial_ns[p]).sum();
        EnginePass { shadow_ns, ..rung.direct }
    });
    zero_guards(&engine_pass.counters, &mut guards);

    let mut metrics = engine_metrics(&engine_pass);
    let attach_share = metrics
        .iter()
        .find(|m| m.name == "core.shared.attach_share")
        .expect("engine_metrics reports it")
        .value;
    routing_guard(config.workload, attach_share, &mut guards);
    metrics.extend(cluster_metrics(&cluster_pass, rung.overhead_ratio, rung.build_s));
    metrics.push(Metric::new("storage.table_build_s", ladder::table_build_s(&data), "s", 1));
    metrics.extend(adaptive_rung(
        engine.as_ref().unwrap_or(&rung.engine),
        config.workload,
        rebalance_ms,
    ));
    metrics.push(Metric::new("core.adaptive.actions_per_cycle", actions_per_cycle, "count", 1));
    metrics.push(Metric::new("core.adaptive.post_shift_spread", post_shift_spread, "ratio", 1));

    let spans: Vec<Span> = logs.into_iter().flat_map(SpanLog::into_spans).collect();
    metrics.extend(span_metrics(&spans, &shadows));
    let gen_us = generation_s * 1e6 / statements.len() as f64;
    metrics.push(Metric::new("workload.gen_us_per_stmt", gen_us, "us", statements.len()));
    let traced = samples.len() / 2;
    // Each statement was sent once plain and once with spans: the median of
    // the paired slow-downs (the host's moods hit both sides alike).
    let mut plain_ms: Vec<Option<f64>> = vec![None; statements.len()];
    let mut slowdowns = Vec::new();
    for sample in &samples {
        match plain_ms[sample.index] {
            Some(plain) if sample.start_s >= spans_from => {
                slowdowns.push(sample.latency_ms() / plain - 1.0);
            }
            _ => plain_ms[sample.index] = Some(sample.latency_ms()),
        }
    }
    let overhead = if slowdowns.is_empty() { 0.0 } else { median(&slowdowns) };
    metrics.push(Metric::new("trace.overhead_share", overhead, "ratio", traced));
    metrics.push(Metric::new("trace.statements", traced as f64, "count", 1));
    metrics.push(Metric::new("trace.spans", spans.len() as f64, "count", 1));
    // How fast the replay itself went, to set its layer numbers beside the
    // timed run's `stmts_per_s`.
    let replayed = samples.len() as f64 / replay_s;
    metrics.push(Metric::new("replay.stmts_per_s", replayed, "1/s", samples.len()));
    let both: Vec<&Sample> = samples.iter().collect();
    let mut notes = Vec::new();
    metrics.extend(latency_metrics("replay.", &statements, &both, &mut notes));
    let latencies: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    generator_guard(gen_us, median(&latencies), &mut guards);
    metrics.extend(ladder::probe_layers(
        &data,
        &config.workload.roles(),
        &aggregate_probes(&statements),
        deadline,
    ));

    rung.engine.shutdown();
    if let Some(engine) = engine {
        engine.shutdown();
    }
    Report {
        metrics,
        observed: Vec::new(),
        attempted: samples.len() as u64,
        failed: verdict.failed,
        correct: verdict.mismatches.is_empty(),
        mismatches: verdict.mismatches,
        guards,
        notes,
        roofline: (0.0, 0.0),
        facts,
        spans,
    }
}

/// `solo_mix`, `hot_mix` and `cluster_drop`, traced: the fixed prefix of the
/// script is replayed plain, then with spans, then serially as shadows; the
/// ladder uses the rest of `config.seconds`.
fn traced_mix(config: &Config, clock: &Clock) -> Report {
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let world = set_up(config);
    let data = match &world {
        World::Engine(engine) => engine.data(),
        World::Cluster(_, data) => data.clone(),
    };
    let script = lineitem_script(config.workload, &data, &config.sizes, config.seed);
    let prefix: Vec<Statement> = (0..config.sizes.trace_prefix)
        .map(|i| script.statements[i % script.statements.len()].clone())
        .collect();
    let clients = config.workload.clients();
    let stop = Stop::AfterStatements(prefix.len());
    let origin = clock.origin;
    let mut logs: Vec<SpanLog> =
        (0..=clients).map(|lane| SpanLog::new(origin, lane as u64, clients as u64 + 1)).collect();

    let engine_before =
        if let World::Engine(e) = &world { e.counters() } else { Default::default() };
    let cluster_before =
        if let World::Cluster(c, _) = &world { c.counters() } else { Default::default() };
    if let World::Engine(engine) = &world {
        engine.take_epoch();
    }
    let plain_from = clock.now_s();
    let mut samples = closed_loop(world.target(), &prefix, clients, origin, stop, None);
    let spans_from = clock.now_s();
    let stmt_id = |position: usize| position as u64 + 1;
    let tracing: Tracing<'_> = (&mut logs[..clients], &stmt_id);
    samples.extend(closed_loop(world.target(), &prefix, clients, origin, stop, Some(tracing)));
    let replay_s = clock.now_s() - plain_from;

    let both: Vec<&Sample> = samples.iter().collect();
    let shard_rows = if let World::Cluster(c, _) = &world { Some(c.shard_rows()) } else { None };
    let verdict = verify(&data, &prefix, &both, shard_rows.as_deref(), 0.0);

    // Shadows: three shard-sized parts stand in for a cluster statement's
    // three shard scans.
    let parts_of = |request: &Request| match &world {
        World::Engine(engine) => engine.partitions(request.column()),
        World::Cluster(..) => 3,
    };
    let main_log = logs.last_mut().expect("a lane for the main thread");
    let shadows = replay_shadows(&data, &prefix, parts_of, main_log);

    let mut guards = Vec::new();
    let mut facts = Vec::new();
    let (engine_pass, cluster_pass, engine) = match world {
        World::Engine(engine) => {
            let (bytes, spread) = engine.take_epoch();
            let pass = EnginePass {
                statements: samples.len() as u64,
                part_scans: samples
                    .iter()
                    .map(|s| engine.partitions(prefix[s.index].request.column()) as u64)
                    .sum(),
                rows: data.rows() as u64,
                counters: engine.counters() - engine_before,
                bytes,
                spread,
                call_ns: samples.iter().map(Sample::call_ns).sum(),
                // Both passes sent every statement once.
                shadow_ns: 2 * shadows.serial_ns.iter().sum::<u64>(),
            };
            (Some(pass), None, Some(*engine))
        }
        World::Cluster(cluster, _) => {
            let counters = cluster.counters() - cluster_before;
            guards.push(Guard {
                name: "the lossy network forces retries",
                ok: counters.retries > 0,
                detail: format!(
                    "{} retries over {} statements",
                    counters.retries, counters.queries
                ),
            });
            facts.push(("cluster_counters".to_string(), cluster_facts(&counters)));
            let pass = ClusterPass {
                counters,
                virtual_ms: samples.iter().map(|s| s.digest.virtual_us as f64 / 1e3).collect(),
                count_ms: samples
                    .iter()
                    .filter(|s| prefix[s.index].class == Class::Count)
                    .map(Sample::latency_ms)
                    .collect(),
            };
            cluster.shutdown();
            (None, Some(pass), None)
        }
    };

    let replay = Replay {
        data,
        statements: prefix,
        generation_s: script.generation_s * config.sizes.trace_prefix as f64
            / script.statements.len() as f64,
        samples,
        spans_from,
        replay_s,
        logs,
        shadows,
        engine_pass,
        cluster_pass,
        engine,
        rebalance_ms: Vec::new(),
        actions_per_cycle: 0.0,
        post_shift_spread: 0.0,
        verdict,
        guards,
        facts,
    };
    finish_traced(config, deadline, replay)
}

/// `shift_reorg`, traced: the first cycle is run plain on one fresh engine
/// and with spans on another (the same work from the same state, so their
/// action lists must match), then replayed serially as shadows.
fn traced_shift(config: &Config, clock: &Clock) -> Report {
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let script = shift_script(&config.sizes, config.seed);
    let clients = config.workload.clients();

    let plain_engine = shift_engine(set_up(config));
    let plain = run_cycle(&plain_engine, &script, clock, None);
    plain_engine.shutdown();

    let engine = shift_engine(set_up(config));
    let data = engine.data();
    let origin = clock.origin;
    let mut logs: Vec<SpanLog> =
        (0..=clients).map(|lane| SpanLog::new(origin, lane as u64, clients as u64 + 1)).collect();
    let before = engine.counters();
    let cycle = run_cycle(&engine, &script, clock, Some(&mut logs));
    let counters = engine.counters() - before;

    let guards = vec![
        Guard {
            name: "two runs of one seed take the same placer actions",
            ok: plain.action_texts() == cycle.action_texts(),
            detail: format!("{} placer steps each", cycle.actions.len()),
        },
        Guard {
            name: "the cycle repartitions at least once",
            ok: cycle.count(ActionKind::Repartition) >= 1,
            detail: format!("{} repartitions", cycle.count(ActionKind::Repartition)),
        },
        Guard {
            name: "the cycle relayouts at least once",
            ok: cycle.count(ActionKind::Relayout) >= 1,
            detail: format!(
                "{} relayouts; runs parts {:?}",
                cycle.count(ActionKind::Relayout),
                engine.part_layouts("runs")
            ),
        },
    ];
    let facts = shift_facts(&engine, &[&cycle]);

    let main_log = logs.last_mut().expect("a lane for the main thread");
    let shadows = replay_shadows(&data, &script.statements, |_| 1, main_log);
    let engine_pass = EnginePass {
        statements: cycle.samples.len() as u64,
        part_scans: cycle.part_scans,
        rows: data.rows() as u64,
        counters,
        bytes: cycle.bytes,
        spread: cycle.last_spread,
        call_ns: cycle.samples.iter().map(Sample::call_ns).sum(),
        shadow_ns: shadows.serial_ns.iter().sum(),
    };
    let acted = cycle.actions.iter().filter(|a| a.kind != ActionKind::None).count();
    // The second set-up lies between the passes; it is not part of either.
    let spans_from = cycle.start_s;
    let replay_s = (plain.end_s - plain.start_s) + (cycle.end_s - cycle.start_s);
    let post_shift_spread = cycle.last_spread;
    let rebalance_ms = cycle.rebalance_ms.clone();
    let mut samples = plain.samples;
    samples.extend(cycle.samples);
    let both: Vec<&Sample> = samples.iter().collect();
    let verdict = verify(&data, &script.statements, &both, None, 0.0);

    let replay = Replay {
        data,
        statements: script.statements,
        generation_s: script.generation_s,
        samples,
        spans_from,
        replay_s,
        logs,
        shadows,
        engine_pass: Some(engine_pass),
        cluster_pass: None,
        engine: Some(engine),
        rebalance_ms,
        actions_per_cycle: acted as f64,
        post_shift_spread,
        verdict,
        guards,
        facts,
    };
    finish_traced(config, deadline, replay)
}
