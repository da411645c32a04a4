//! `compare <dirA> <dirB>`: applies the bounds of `BENCHMARK.json` to two
//! sets of result files.
//!
//! One row per end-to-end metric × workload: the medians, quartiles and run
//! counts of both sets and a verdict —
//!
//! * `unresolved`: a set's spread (third minus first quartile, as a share of
//!   its median) is wider than the metric's bound, unless every run of B
//!   reads better than every run of A (`better`) or worse (`worse`);
//! * `worse` / `better`: B's median is worse / better than A's by more than
//!   the bound;
//! * `same`: within the bound.
//!
//! A timed run's observed latency percentiles get rows of their own under
//! the issue's bounds ([`MEDIAN_BOUND`], [`TAIL_BOUND`]); they have no bound in `BENCHMARK.json`
//! because they do not repeat within one on this host, so here they mostly
//! read `unresolved` unless the runs were paired.
//!
//! Each workload also gets a `failed_share` row — Σ failed ÷ Σ attempted
//! over the set's timed runs, `worse` as soon as B fails a larger share — and
//! traced results of the same seed in both sets are checked on the counts
//! that must repeat exactly. The tool exits 1 on any `worse`, any count that
//! differs, any run that answered wrongly, and any workload or metric of
//! `BENCHMARK.json` that a directory lacks, which makes it the gate for "two
//! sets of runs of the same code agree".

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats::quartiles;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Which direction is better.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` fixes.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, without bounds.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Reads `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let names = |key: &str| -> Result<Vec<String>, String> {
            doc.get(key)
                .ok_or_else(|| format!("BENCHMARK.json lacks '{key}'"))?
                .items()
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .map(String::from)
                        .ok_or_else(|| format!("an entry of '{key}' lacks a name"))
                })
                .collect()
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let entries = doc.get(key).ok_or_else(|| format!("BENCHMARK.json lacks '{key}'"))?;
            entries
                .items()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("a metric of '{key}' lacks '{f}'"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        better: match field("better")? {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("better is '{other}'")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: names("workloads")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The bounds the issue fixed for the latency percentiles a timed run
/// observes ([`crate::run::OBSERVED`]): 10 % for a median, 20 % for a tail.
const MEDIAN_BOUND: f64 = 0.10;
const TAIL_BOUND: f64 = 0.20;

/// Per-layer counts that repeat exactly between two traced runs of one seed
/// (on every workload: a count that a workload never touches repeats as 0).
const EXACT_COUNTS: [&str; 9] = [
    "core.native.bytes_per_stmt",
    "core.adaptive.actions_per_cycle",
    "cluster.requests_per_stmt",
    "cluster.retry_share",
    "cluster.failover_share",
    "cluster.dup_dropped_share",
    "cluster.partial_share",
    "cluster.virtual_ms_mean",
    "storage.prune_share",
];

/// One result file.
#[derive(Debug, Clone, Default)]
struct RunResult {
    seed: u64,
    /// Whether every answer matched the oracle.
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

/// The results of one directory: `(workload, mode)` → runs.
type ResultSet = BTreeMap<(String, String), Vec<RunResult>>;

fn load_results(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !(name.starts_with("result-") && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("{}: no '{key}'", path.display()))
        };
        let number = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let metrics = ["metrics", "observed"]
            .iter()
            .flat_map(|key| doc.get(key).map(Json::members).unwrap_or_default())
            .filter_map(|(name, cell)| Some((name.clone(), cell.get("value")?.as_f64()?)))
            .collect();
        let run = RunResult {
            seed: number("seed") as u64,
            correct: doc.get("correct") == Some(&Json::Bool(true)),
            attempted: number("attempted"),
            failed: number("failed"),
            metrics,
        };
        set.entry((field("workload")?, field("mode")?)).or_default().push(run);
    }
    Ok(set)
}

/// A verdict on one metric × workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound (or in every run).
    Better,
    /// B is worse than A by more than the bound (or in every run).
    Worse,
    /// The medians differ by no more than the bound.
    Same,
    /// A spread is wider than the bound, so the sets cannot be told apart.
    Unresolved,
}

/// Judges B's runs against A's under `bound`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (a_q1, a_med, a_q3) = quartiles(a);
    let (b_q1, b_med, b_q3) = quartiles(b);
    let spread = |q1: f64, med: f64, q3: f64| if med == 0.0 { 0.0 } else { (q3 - q1) / med.abs() };
    // Positive: B is worse.
    let worse_by = match better {
        Better::Lower => (b_med - a_med) / a_med.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (a_med - b_med) / a_med.abs().max(f64::MIN_POSITIVE),
    };
    if spread(a_q1, a_med, a_q3) > bound || spread(b_q1, b_med, b_q3) > bound {
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (b_all_lower, b_all_higher) = (max(b) < min(a), min(b) > max(a));
        return match better {
            Better::Lower if b_all_lower => Verdict::Better,
            Better::Lower if b_all_higher => Verdict::Worse,
            Better::Higher if b_all_higher => Verdict::Better,
            Better::Higher if b_all_lower => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Σ failed ÷ Σ attempted over `runs`, and how many runs answered wrongly.
fn failures(runs: &[RunResult]) -> (f64, usize) {
    let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
    let failed: f64 = runs.iter().map(|r| r.failed).sum();
    let share = if attempted == 0.0 { 1.0 } else { failed / attempted };
    (share, runs.iter().filter(|r| !r.correct).count())
}

/// Prints the workload's `failed_share` row; `false` when B fails a larger
/// share of its statements than A or either set holds a wrong answer.
fn failures_agree(workload: &str, runs_a: &[RunResult], runs_b: &[RunResult]) -> bool {
    let ((share_a, wrong_a), (share_b, wrong_b)) = (failures(runs_a), failures(runs_b));
    let verdict = match share_b.total_cmp(&share_a) {
        std::cmp::Ordering::Greater => Verdict::Worse,
        std::cmp::Ordering::Less => Verdict::Better,
        std::cmp::Ordering::Equal => Verdict::Same,
    };
    println!(
        "{workload:<14} {:<28} {:<10} exact: A {share_a:.6} of {} runs ({wrong_a} incorrect), B {share_b:.6} of {} runs ({wrong_b} incorrect)",
        "failed_share",
        format!("{verdict:?}").to_lowercase(),
        runs_a.len(),
        runs_b.len()
    );
    verdict != Verdict::Worse && wrong_a + wrong_b == 0
}

/// Runs the comparison; `Ok(true)` when both directories hold every workload
/// and metric, nothing is worse, no answer was wrong and every exact count
/// agrees.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--spec" {
            spec_path = iter.next().ok_or("--spec needs a path")?.clone();
        } else {
            dirs.push(arg.clone());
        }
    }
    let [dir_a, dir_b] = dirs.as_slice() else {
        return Err("compare takes two result directories".to_string());
    };
    let spec = Spec::load(Path::new(&spec_path))?;
    let a = load_results(Path::new(dir_a))?;
    let b = load_results(Path::new(dir_b))?;
    let mut agree = true;

    println!(
        "{:<14} {:<28} {:<10} {:>6} | {:>3} {:>12} {:>12} {:>12} | {:>3} {:>12} {:>12} {:>12} | {:>8}",
        "workload", "metric", "verdict", "bound", "nA", "A q1", "A median", "A q3", "nB", "B q1",
        "B median", "B q3", "worse by"
    );
    for workload in &spec.workloads {
        let key = (workload.clone(), "timed".to_string());
        let (Some(runs_a), Some(runs_b)) = (a.get(&key), b.get(&key)) else {
            println!("{workload:<14} MISSING: a directory has no timed result of it");
            agree = false;
            continue;
        };
        agree &= failures_agree(workload, runs_a, runs_b);
        let observed = crate::run::OBSERVED.iter().map(|name| MetricSpec {
            name: name.to_string(),
            unit: "ms".to_string(),
            better: Better::Lower,
            bound: Some(if name.ends_with("_p50_ms") { MEDIAN_BOUND } else { TAIL_BOUND }),
        });
        for metric in spec.end_to_end.iter().cloned().chain(observed) {
            let values = |runs: &[RunResult]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metrics.get(&metric.name).copied()).collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<14} {:<28} missing", metric.name);
                agree = false;
                continue;
            }
            let bound = metric.bound.unwrap_or(0.0);
            let verdict = judge(&va, &vb, metric.better, bound);
            agree &= verdict != Verdict::Worse;
            let (a1, a2, a3) = quartiles(&va);
            let (b1, b2, b3) = quartiles(&vb);
            let worse_by = match metric.better {
                Better::Lower => (b2 - a2) / a2,
                Better::Higher => (a2 - b2) / a2,
            };
            println!(
                "{workload:<14} {:<28} {:<10} {bound:>6.3} | {:>3} {a1:>12.5} {a2:>12.5} {a3:>12.5} | {:>3} {b1:>12.5} {b2:>12.5} {b3:>12.5} | {:>+8.4}",
                metric.name,
                format!("{verdict:?}").to_lowercase(),
                va.len(),
                vb.len(),
                worse_by
            );
        }
    }

    for workload in &spec.workloads {
        let key = (workload.clone(), "traced".to_string());
        let (Some(runs_a), Some(runs_b)) = (a.get(&key), b.get(&key)) else { continue };
        for run_a in runs_a {
            let seed = run_a.seed;
            let Some(run_b) = runs_b.iter().find(|r| r.seed == seed) else { continue };
            for metric in spec.per_layer.iter().filter(|m| EXACT_COUNTS.contains(&m.name.as_str()))
            {
                let (va, vb) = (run_a.metrics.get(&metric.name), run_b.metrics.get(&metric.name));
                let same = va == vb;
                agree &= same;
                println!(
                    "{workload:<14} {:<28} {:<10} seed {seed}: {va:?} vs {vb:?} {}",
                    metric.name,
                    if same { "exact" } else { "DIFFERS" },
                    metric.unit
                );
            }
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_directory_without_a_workload_disagrees() {
        let dir = std::env::temp_dir().join(format!("perfbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir_arg = dir.to_string_lossy().into_owned();
        let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").to_string();
        let args = [dir_arg.clone(), dir_arg, "--spec".to_string(), spec];
        assert_eq!(main(&args), Ok(false), "two empty directories agree on nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn more_failures_or_a_wrong_answer_disagree() {
        let run = |attempted: f64, failed: f64, correct: bool| RunResult {
            attempted,
            failed,
            correct,
            ..RunResult::default()
        };
        let clean = [run(1000.0, 0.0, true), run(900.0, 0.0, true)];
        let one_failure = [run(1000.0, 1.0, true), run(950.0, 0.0, true)];
        let wrong = [run(1000.0, 0.0, false)];
        assert!(failures_agree("w", &clean, &clean));
        assert!(!failures_agree("w", &clean, &one_failure));
        assert!(failures_agree("w", &one_failure, &clean));
        assert!(!failures_agree("w", &clean, &wrong));
        assert!(!failures_agree("w", &clean, &[]), "no attempts read as all failed");
    }

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 20 % slower latency against a 10 % bound.
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&a, &slower, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &slower, Better::Higher, 0.10), Verdict::Better);
        assert_eq!(judge(&a, &a, Better::Lower, 0.10), Verdict::Same);
        let slightly = [104.0, 105.0, 103.0, 104.5, 103.5];
        assert_eq!(judge(&a, &slightly, Better::Lower, 0.10), Verdict::Same);
        // A spread wider than the bound hides a shift that overlaps …
        let noisy = [80.0, 130.0, 95.0, 125.0, 100.0];
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.10), Verdict::Unresolved);
        // … but not one where every run of B reads worse than every run of A.
        let noisy_and_slower = [150.0, 230.0, 195.0, 225.0, 200.0];
        assert_eq!(judge(&a, &noisy_and_slower, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &noisy_and_slower, Better::Higher, 0.10), Verdict::Better);
    }
}
