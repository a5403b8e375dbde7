//! Experiment implementations behind the `experiments` binary.
//!
//! Each paper artifact is a function `fn(&mut Recorder) -> Vec<Table>`;
//! [`registry()`] wraps all of them as [`icoe::Experiment`]s so the
//! binary (and any test) can drive them uniformly: every run happens
//! under a root span `exp:<id>`, phases appear as child spans, and the
//! recorder's counters/gauges ride along into the structured JSON
//! document and `BENCH_<id>.json` summaries. See DESIGN.md §3 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured records.

pub mod exps_apps;
pub mod exps_cluster;
pub mod exps_compute;
pub mod exps_core;
pub mod exps_des;
pub mod exps_matrix;
pub mod exps_mem;
pub mod exps_net;
pub mod exps_opt;
pub mod exps_pipeline;
pub mod exps_tune;

use hetsim::obs::Recorder;
use icoe::{FnExperiment, MachineSensitiveExperiment, Registry, Report};

pub use icoe::report::{fmt_time, Table};

/// Every experiment id, in paper order (mirrors [`registry()`]).
pub const ALL: &[&str] = &[
    "table1",
    "fig2",
    "table2",
    "fig3",
    "table3",
    "fig6",
    "fig8",
    "table4",
    "table5",
    "cretin",
    "md",
    "sw4",
    "vbl",
    "cardioid",
    "opt",
    "kavg",
    "pipeline-overlap",
    "um-oversubscription",
    "collective-overlap",
    "cluster-spike",
    "cluster-policies",
    "auto-tune",
    "lessons",
    "machines",
    "rank-throughput",
    "portability-matrix",
    "cluster-throughput",
];

/// Build the full experiment registry, in paper order.
pub fn registry() -> Registry {
    // Legacy experiments take no parameters: the `_params` wrapper keeps
    // them byte-identical under any `--param` (the golden contract).
    macro_rules! reg {
        ($r:ident, $( ($id:literal, $artifact:literal, $path:path) ),+ $(,)?) => {
            $( $r.register(FnExperiment {
                id: $id,
                paper_artifact: $artifact,
                f: |rec, _params| Report::new($path(rec)),
            }); )+
        };
    }
    // Parameterised experiments (the cluster pair) thread params through.
    macro_rules! reg_p {
        ($r:ident, $( ($id:literal, $artifact:literal, $path:path) ),+ $(,)?) => {
            $( $r.register(FnExperiment {
                id: $id,
                paper_artifact: $artifact,
                f: |rec, params| Report::new($path(rec, params)),
            }); )+
        };
    }
    // Machine-sensitive experiments additionally re-run per column of the
    // portability matrix (`icoe::matrix`); everything else reuses its
    // sierra baseline cell byte-for-byte.
    macro_rules! reg_m {
        ($r:ident, $( ($id:literal, $artifact:literal, $path:path) ),+ $(,)?) => {
            $( $r.register(MachineSensitiveExperiment(FnExperiment {
                id: $id,
                paper_artifact: $artifact,
                f: |rec, params| Report::new($path(rec, params)),
            })); )+
        };
    }
    let mut r = Registry::new();
    reg!(
        r,
        (
            "table1",
            "Table 1 (completed activities)",
            exps_core::table1
        ),
        ("fig2", "Fig. 2 (SparkPlug LDA stacks)", exps_core::fig2),
        ("table2", "Table 2 (graph scale / GTEPS)", exps_core::table2),
        ("fig3", "Fig. 3 (LBANN scaling)", exps_core::fig3),
        ("table3", "Table 3 (video accuracies)", exps_core::table3),
        ("fig6", "Fig. 6 (ParaDyn SLNSP)", exps_compute::fig6),
        (
            "fig8",
            "Fig. 8 (nonlinear diffusion breakdown)",
            exps_compute::fig8
        ),
        (
            "table4",
            "Table 4 (GPU speedup by size/order)",
            exps_compute::table4
        ),
        (
            "table5",
            "Table 5 (CleverLeaf / SAMRAI)",
            exps_compute::table5
        ),
        (
            "cretin",
            "§4.3 (Cretin throughput + solvers)",
            exps_apps::cretin
        ),
        (
            "md",
            "§4.6 (ddcMD vs GROMACS-like)",
            exps_apps::md_experiment
        ),
        ("sw4", "§4.9 (SW4 kernel paths + scaling)", exps_apps::sw4),
        ("vbl", "§4.11 (VBL transpose + GPUDirect)", exps_apps::vbl),
        (
            "cardioid",
            "§4.1 (Cardioid DSL + placement)",
            exps_apps::cardioid_experiment
        ),
        ("opt", "§4.7 (scheduler + texture + SIMP)", exps_opt::opt),
        ("kavg", "§4.5 (KAVG time-to-quality)", exps_opt::kavg),
    );
    reg_m!(
        r,
        (
            "pipeline-overlap",
            "§4 (streams: serial vs pipelined crossover)",
            exps_pipeline::pipeline_overlap
        ),
        (
            "um-oversubscription",
            "§4.10.1 (UM oversubscription thrash cliff)",
            exps_mem::um_oversubscription
        ),
        (
            "collective-overlap",
            "§4.5/Fig 3 (collectives: flat vs hierarchical vs overlapped)",
            exps_net::collective_overlap
        ),
    );
    reg_p!(
        r,
        (
            "cluster-spike",
            "§4.7 at fleet scale (spike survival by policy)",
            exps_cluster::cluster_spike
        ),
        (
            "cluster-policies",
            "§4.7 at fleet scale (policy shoot-out: SLA vs joules)",
            exps_cluster::cluster_policies
        ),
        (
            "auto-tune",
            "§5 (hand-tuned crossovers rediscovered by search)",
            exps_tune::auto_tune
        ),
    );
    reg!(
        r,
        (
            "lessons",
            "§1–5 (lessons learned, validated)",
            exps_opt::lessons
        ),
        (
            "machines",
            "§2.1 (hardware inventory)",
            exps_core::machines_table
        ),
        (
            "rank-throughput",
            "§4.10.6 (des kernel: simulated ranks per host-second)",
            exps_des::rank_throughput
        ),
    );
    reg_p!(
        r,
        (
            "portability-matrix",
            "§4–5 (which conclusions survive off Sierra, by machine preset)",
            exps_matrix::portability_matrix
        ),
        (
            "cluster-throughput",
            "§4.7 at fleet scale (serving throughput: placed jobs per host-second)",
            exps_cluster::cluster_throughput
        ),
    );
    debug_assert_eq!(r.ids(), ALL, "ALL must mirror the registry order");
    r
}

/// Dispatch an experiment by id with a throwaway no-op recorder.
pub fn run(id: &str) -> Option<Vec<Table>> {
    run_with_recorder(id, &mut Recorder::noop()).map(|rep| rep.tables)
}

/// Dispatch an experiment by id under a root span, recording into `rec`.
pub fn run_with_recorder(id: &str, rec: &mut Recorder) -> Option<Report> {
    registry().run(id, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_mirrors_all_in_order() {
        let r = registry();
        assert_eq!(r.ids(), ALL);
        assert_eq!(r.len(), ALL.len());
    }

    #[test]
    fn exactly_the_machine_shaped_experiments_are_matrix_sensitive() {
        let sensitive: Vec<&str> = registry()
            .iter()
            .filter(|e| e.machine_sensitive())
            .map(|e| e.id())
            .collect();
        assert_eq!(
            sensitive,
            [
                "pipeline-overlap",
                "um-oversubscription",
                "collective-overlap"
            ],
            "matrix columns re-run only these; everything else reuses sierra cells"
        );
    }

    #[test]
    fn every_experiment_names_a_paper_artifact() {
        for e in registry().iter() {
            assert!(!e.paper_artifact().is_empty(), "{} has no artifact", e.id());
            assert!(
                !e.paper_artifact().contains("ISSUE"),
                "{} names a change request, not a paper artifact: {}",
                e.id(),
                e.paper_artifact()
            );
        }
    }

    #[test]
    fn run_with_recorder_opens_a_root_span_with_phases() {
        let mut rec = Recorder::enabled();
        let rep = run_with_recorder("table1", &mut rec).expect("registered");
        assert!(!rep.tables.is_empty());
        let spans = rec.spans();
        assert_eq!(spans[0].name, "exp:table1");
        assert!(
            spans.iter().any(|s| s.parent == Some(spans[0].id)),
            "phases nest under the root span"
        );
        assert!(rec.gauge_value("exp.activities").is_some());
    }
}
