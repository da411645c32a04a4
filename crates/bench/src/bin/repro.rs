//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--paper] [--out FILE] [EXPERIMENT ...]
//! ```
//!
//! * With no experiment ids, every experiment runs (`all`).
//! * `--paper` switches from the quick, laptop-friendly scale to the paper's
//!   own dataset and client counts (much slower).
//! * `--out FILE` additionally writes the markdown report to `FILE`.
//! * `--help` lists every experiment id.
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p numascan-bench --bin repro -- fig8 fig12
//! cargo run --release -p numascan-bench --bin repro -- --out results.md all
//! ```

use std::io::Write as _;
use std::time::Instant;

use numascan_bench::experiments::{all_experiments, select_experiments};
use numascan_bench::ExperimentScale;

fn main() {
    let mut paper_scale = false;
    let mut out_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => paper_scale = true,
            "--out" => out_path = args.next(),
            "--help" | "-h" => {
                eprintln!("usage: repro [--paper] [--out FILE] [EXPERIMENT ...]");
                eprintln!("experiments (default: all):");
                for experiment in all_experiments() {
                    eprintln!("  {:<15} {}", experiment.id, experiment.description);
                }
                return;
            }
            other => ids.push(other.to_string()),
        }
    }

    let scale = if paper_scale { ExperimentScale::paper() } else { ExperimentScale::quick() };
    let experiments = select_experiments(&ids);
    if experiments.is_empty() {
        eprintln!("no experiment matches {ids:?}; try --help");
        std::process::exit(1);
    }

    let mut report = String::new();
    report.push_str("# numascan — reproduced tables and figures\n\n");
    report.push_str(&format!(
        "Scale: {} rows, {} payload columns, client sweep {:?}.\n\n",
        scale.rows, scale.payload_columns, scale.client_sweep
    ));

    for experiment in experiments {
        eprintln!("running {} — {}", experiment.id, experiment.description);
        let started = Instant::now();
        let tables = (experiment.run)(&scale);
        eprintln!("  done in {:.1}s", started.elapsed().as_secs_f64());
        for table in tables {
            let md = table.to_markdown();
            println!("{md}");
            report.push_str(&md);
            report.push('\n');
        }
    }

    if let Some(path) = out_path {
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(report.as_bytes())) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}
