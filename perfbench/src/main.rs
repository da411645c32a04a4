//! The repository's benchmark.
//!
//! ```text
//! numascan-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! numascan-perfbench compare <dirA> <dirB> [--spec <BENCHMARK.json>]
//! ```
//!
//! One run drives one workload in one process: `--trace 0` measures the
//! end-to-end metrics with tracing off, `--trace 1` replays a fixed prefix
//! of the workload with spans and climbs the per-layer ladder. Every answer
//! is checked against a scalar oracle; the process exits non-zero on a
//! mismatch or when the workload did not take the route its name promises.
//! The last line of standard output is the result as one JSON object. See
//! `README.md` next to this package for the workloads, the metrics and what
//! each layer metric is expected to move.

mod adapter;
mod compare;
mod json;
mod ladder;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use run::{Config, Report};
use workloads::{Sizes, Workload};

const USAGE: &str = "usage:
  numascan-perfbench --workload <solo_mix|hot_mix|cluster_drop|shift_reorg> --seed <n> \\
                     --seconds <s> --trace <0|1> [--out <dir>]
  numascan-perfbench compare <dirA> <dirB> [--spec <BENCHMARK.json>]";

/// Where result files go unless `--out` says otherwise.
const DEFAULT_OUT: &str = ".bench_out";

struct Args {
    config: Config,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(DEFAULT_OUT);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value).ok_or_else(|| format!("no workload '{value}'"))?,
                );
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed '{value}'"))?);
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got '{value}'"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                });
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let config = Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: trace.ok_or("--trace is required")?,
        sizes: Sizes::full(),
    };
    Ok(Args { config, out })
}

/// The commit of the enclosing git checkout, if the working directory is one.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit
    }
}

/// What `rustc --version` prints, if there is a `rustc` to ask.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine fingerprint every result carries.
fn header(config: &Config, report: &Report) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("seed", Json::Num(config.seed as f64)),
        ("git_commit", Json::Str(git_commit())),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("rustc", Json::Str(rustc_version())),
        ("client_threads", Json::Num(config.workload.clients() as f64)),
        ("pool_workers_per_engine", Json::Num(adapter::POOL_WORKERS as f64)),
        ("rows", Json::Num(config.workload.rows(&config.sizes) as f64)),
        ("roofline_sum_gbps_start", Json::Num(report.roofline.0)),
        ("roofline_sum_gbps_end", Json::Num(report.roofline.1)),
    ])
}

fn mode_name(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "timed"
    }
}

/// The full result document written to `--out`.
fn result_document(config: &Config, report: &Report) -> Json {
    let cells = |metrics: &[ladder::Metric]| {
        Json::obj(metrics.iter().map(|m| {
            let cell = Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit)),
                ("samples", Json::Num(m.samples as f64)),
            ]);
            (m.name.clone(), cell)
        }))
    };
    let guards = report.guards.iter().map(|g| {
        Json::obj([
            ("name", Json::str(g.name)),
            ("ok", Json::Bool(g.ok)),
            ("detail", Json::Str(g.detail.clone())),
        ])
    });
    Json::obj([
        ("schema", Json::str("numascan-perfbench-result/v1")),
        ("workload", Json::str(config.workload.name())),
        ("mode", Json::str(mode_name(config.traced))),
        ("seed", Json::Num(config.seed as f64)),
        ("seconds", Json::Num(config.seconds)),
        ("header", header(config, report)),
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", cells(&report.metrics)),
        ("observed", cells(&report.observed)),
        ("guards", Json::Arr(guards.collect())),
        ("notes", Json::Arr(report.notes.iter().cloned().map(Json::Str).collect())),
        ("facts", Json::obj(report.facts.iter().cloned())),
    ])
}

/// The one-line result the driver reads.
fn result_line(report: &Report) -> Json {
    let metrics = report.metrics.iter().map(|m| {
        (m.name.clone(), Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn print_report(config: &Config, report: &Report) {
    println!(
        "# {} · {} · seed {} · {} s",
        config.workload.name(),
        mode_name(config.traced),
        config.seed,
        config.seconds
    );
    for (key, value) in header(config, report).members() {
        println!("# {key}: {}", value.to_line());
    }
    println!("{:<40} {:>16} {:<8} {:>8}", "metric", "value", "unit", "samples");
    for m in report.metrics.iter().chain(&report.observed) {
        println!("{:<40} {:>16.6} {:<8} {:>8}", m.name, m.value, m.unit, m.samples);
    }
    for g in &report.guards {
        println!("guard {}: {} ({})", if g.ok { "ok  " } else { "FAIL" }, g.name, g.detail);
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for (key, value) in &report.facts {
        println!("fact {key}: {}", value.to_line());
    }
    for mismatch in report.mismatches.iter().take(5) {
        println!("MISMATCH {mismatch}");
    }
    println!(
        "attempted {} failed {} correct {} mismatches {}",
        report.attempted,
        report.failed,
        report.correct,
        report.mismatches.len()
    );
}

fn write_outputs(config: &Config, report: &Report, out: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let stem =
        format!("{}-{}-seed{}", config.workload.name(), mode_name(config.traced), config.seed);
    let mut document = result_document(config, report).to_line();
    document.push('\n');
    std::fs::write(out.join(format!("result-{stem}.json")), document)?;
    if config.traced {
        let path = out.join(format!("trace-{}.jsonl", config.workload.name()));
        std::fs::write(path, trace::to_jsonl(&report.spans))?;
    }
    Ok(())
}

/// The names a run of this mode must report, in order.
fn expected_names(traced: bool) -> &'static [&'static str] {
    if traced {
        &run::PER_LAYER
    } else {
        &run::END_TO_END
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(why) => {
                eprintln!("{why}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let Args { config, out } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let report = run::run(&config);
    print_report(&config, &report);
    let names = |metrics: &[ladder::Metric]| -> Vec<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    };
    let (reported, observed) = (names(&report.metrics), names(&report.observed));
    let complete =
        reported == expected_names(config.traced) && (config.traced || observed == run::OBSERVED);
    if !complete {
        println!(
            "FAIL the run did not measure every metric of its mode: got {reported:?} and {observed:?}"
        );
    }
    if let Err(error) = write_outputs(&config, &report, &out) {
        println!("FAIL writing results to {}: {error}", out.display());
        return ExitCode::from(1);
    }
    println!("{}", result_line(&report).to_line());
    if report.passed() && complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> compare::Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        compare::Spec::load(Path::new(path)).expect("BENCHMARK.json parses")
    }

    /// Letters, digits, `_`, `.` and `-`, starting with a letter or digit,
    /// at most 64 characters: the grammar `BENCHMARK.json` names obey.
    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn the_name_grammar_accepts_and_rejects() {
        assert!(well_formed("core.shared.attach_share"));
        assert!(well_formed("q1_p90_ms") && well_formed("9lives") && well_formed("a-b"));
        for bad in ["", ".hidden", "_x", "has space", "slash/ed", "percent%", &"x".repeat(65)] {
            assert!(!well_formed(bad), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn every_name_is_well_formed_unique_and_matches_benchmark_json() {
        let spec = spec();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, workloads);
        let end_to_end: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(end_to_end, run::END_TO_END);
        let per_layer: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(per_layer, run::PER_LAYER);
        let mut all: Vec<&str> = workloads.into_iter().chain(end_to_end).chain(per_layer).collect();
        assert!(all.iter().all(|name| well_formed(name)));
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used once");
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse =
            |line: &str| parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = parse("--workload hot_mix --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(ok.config.workload, Workload::HotMix);
        assert!(ok.config.traced && ok.config.seed == 7 && ok.config.seconds == 2.5);
        assert_eq!(ok.out, PathBuf::from(DEFAULT_OUT));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload hot_mix --seed -1 --seconds 1 --trace 0",
            "--workload hot_mix --seed 1 --seconds 0 --trace 0",
            "--workload hot_mix --seed 1 --seconds 1 --trace 2",
            "--workload hot_mix --seed 1 --seconds 1",
            "--workload hot_mix --seed 1 --seconds 1 --trace",
            "--mode timed",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// One second, 100 k rows: every workload in both modes reports exactly
    /// the names `BENCHMARK.json` lists, answers correctly, and writes its
    /// files. Guards are not asserted: a run this short need not attach,
    /// retry or relayout as the full-size run must.
    #[test]
    fn smoke_every_workload_in_both_modes() {
        let spec = spec();
        let out = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
        for workload in Workload::ALL {
            for traced in [false, true] {
                let config =
                    Config { workload, seed: 11, seconds: 1.0, traced, sizes: Sizes::smoke() };
                let report = run::run(&config);
                let label = format!("{} {}", workload.name(), mode_name(traced));
                assert!(report.correct, "{label}: {:?}", report.mismatches);
                assert!(report.attempted >= 1, "{label}");
                let listed = if traced { &spec.per_layer } else { &spec.end_to_end };
                let listed: Vec<(&str, &str)> =
                    listed.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
                let reported: Vec<(&str, &str)> =
                    report.metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
                assert_eq!(reported, listed, "{label}");
                assert!(report.metrics.iter().all(|m| m.value.is_finite()), "{label}");
                if !traced {
                    assert!(report.metrics.iter().all(|m| m.value > 0.0), "{label}");
                    let observed: Vec<&str> =
                        report.observed.iter().map(|m| m.name.as_str()).collect();
                    assert_eq!(observed, run::OBSERVED, "{label}");
                }

                write_outputs(&config, &report, &out).unwrap();
                let line = Json::parse(&result_line(&report).to_line()).unwrap();
                let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{label}");
                if traced {
                    let path = out.join(format!("trace-{}.jsonl", workload.name()));
                    let text = std::fs::read_to_string(path).unwrap();
                    assert!(text.lines().count() > 0, "{label}");
                    for line in text.lines() {
                        let span = Json::parse(line).unwrap();
                        assert!(span.get("parent").is_some() && span.get("stmt").is_some());
                    }
                    let own =
                        report.metrics.iter().find(|m| m.name == "trace.stmt_self_share").unwrap();
                    assert!(own.value < 0.5, "{label}: stmt self share {}", own.value);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
