//! One module per table / figure of the paper's evaluation.
//!
//! Every experiment exposes `run(scale) -> Vec<ResultTable>`; the registry in
//! [`all_experiments`] maps experiment ids (as used by the `repro` binary) to
//! those functions.

pub mod adaptivity;
pub mod cluster_faults;
pub mod fig01;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod hybrid_layouts;
pub mod partcost;
pub mod table01;
pub mod table02;

use crate::harness::ResultTable;
use crate::scale::ExperimentScale;

/// An experiment: id, description, and the function that regenerates it.
pub struct Experiment {
    /// Identifier used on the command line (e.g. `fig8`).
    pub id: &'static str,
    /// What the experiment reproduces.
    pub description: &'static str,
    /// Runs the experiment.
    pub run: fn(&ExperimentScale) -> Vec<ResultTable>,
}

/// The registry of every reproducible table and figure.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            description: "Latencies and bandwidths of the three servers",
            run: table01::run,
        },
        Experiment {
            id: "table2",
            description: "Workload properties fitted by each data placement",
            run: table02::run,
        },
        Experiment {
            id: "fig1",
            description: "NUMA-agnostic vs NUMA-aware throughput and per-socket memory throughput",
            run: fig01::run,
        },
        Experiment {
            id: "fig8",
            description: "OS/Target/Bound with RR placement on the 4-socket server",
            run: fig08::run,
        },
        Experiment {
            id: "fig9",
            description: "OS/Target/Bound on the 8-socket broadcast-coherence server",
            run: fig09::run,
        },
        Experiment {
            id: "fig10",
            description: "Impact of intra-query parallelism on RR/IVP/PP",
            run: fig10::run,
        },
        Experiment {
            id: "fig11",
            description: "Latency distributions of RR/IVP/PP",
            run: fig11::run,
        },
        Experiment {
            id: "fig12",
            description: "Scheduling strategies x IVP granularity on the 32-socket server",
            run: fig12::run,
        },
        Experiment {
            id: "fig13",
            description: "Client sweep for RR/IVP8/IVP32 under Target and Bound",
            run: fig13::run,
        },
        Experiment {
            id: "fig14",
            description: "Selectivity sweep with indexes enabled",
            run: fig14::run,
        },
        Experiment {
            id: "fig15",
            description: "Skewed workload: OS/Target/Bound with RR placement",
            run: fig15::run,
        },
        Experiment {
            id: "fig16",
            description: "Skewed workload: RR/IVP/PP under Bound",
            run: fig16::run,
        },
        Experiment {
            id: "fig17",
            description: "Skewed workload at 10% selectivity: RR/IVP/PP under Bound",
            run: fig17::run,
        },
        Experiment {
            id: "fig18",
            description: "Skewed workload at 10% selectivity: RR/IVP/PP under Target",
            run: fig18::run,
        },
        Experiment {
            id: "fig19",
            description: "TPC-H Q1 and BW-EML with PP granularities under Target and Bound",
            run: fig19::run,
        },
        Experiment {
            id: "partcost",
            description: "IVP vs PP repartitioning cost and memory overhead (Section 6.2.3)",
            run: partcost::run,
        },
        Experiment {
            id: "adaptivity",
            description: "Online adaptivity on native threads: closed placement loop and \
                          bandwidth-aware steal throttle under a workload shift (Section 7)",
            run: adaptivity::run,
        },
        Experiment {
            id: "hybrid_layouts",
            description: "Hybrid per-partition storage: the layout advisor's relayout loop under \
                          a workload shift",
            run: hybrid_layouts::run,
        },
        Experiment {
            id: "cluster_faults",
            description: "Fault-tolerant sharded scan tier: typed outcome counts and retry / \
                          failover / hedge machinery per fault kind x replication factor",
            run: cluster_faults::run,
        },
    ]
}

/// Looks up experiments by id (`"all"` returns everything).
pub fn select_experiments(ids: &[String]) -> Vec<Experiment> {
    let all = all_experiments();
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        return all;
    }
    all.into_iter().filter(|e| ids.iter().any(|id| id == e.id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_every_figure_and_table() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            [
                "table1",
                "table2",
                "fig1",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "fig13",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "fig18",
                "fig19",
                "partcost",
                "adaptivity",
                "hybrid_layouts",
                "cluster_faults",
            ],
            "wall-clock timings are perfbench rungs, not repro experiments"
        );
    }

    #[test]
    fn selection_filters_by_id() {
        let sel = select_experiments(&["fig8".to_string(), "fig19".to_string()]);
        assert_eq!(sel.len(), 2);
        let all = select_experiments(&[]);
        assert_eq!(all.len(), all_experiments().len());
        let all2 = select_experiments(&["all".to_string()]);
        assert_eq!(all2.len(), all_experiments().len());
    }
}
