//! The registry workloads: every registered experiment with its default
//! parameters, in paper order, either one at a time through
//! `Registry::run_with_params` (`registry-serial`) or on `icoe::par`'s
//! work-stealing workers through `Registry::run_ids_parallel_with`
//! (`registry-jobs2`). Each document is byte-compared against its golden
//! under `tests/golden/`, with `elapsed_s` zeroed as the golden suite does.
//!
//! `registry_s` is the host CPU time of a pass, not its wall time: a run
//! has room for one or two passes, and on a shared host their wall time
//! doubles with the load of other jobs while their CPU time holds within
//! a few percent. The wall time is reported per layer as `registry.wall_s`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use icoe::exp::document_json;
use icoe::hetsim::Recorder;
use icoe::{ExpParams, Registry};

use crate::trace::{TimedExperiment, Tracer};
use crate::{cpu_s, median, Outcome, ROOT};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;

/// The layer an experiment's host time mostly belongs to.
fn layer_of(id: &str) -> &'static str {
    match id {
        "pipeline-overlap" => "portal::exec",
        "auto-tune" => "icoe::tune",
        "fig2" => "lda",
        "table3" | "kavg" => "mlsim",
        "fig6" => "paradyn",
        "md" => "md",
        "table2" => "graphx",
        "cluster-spike" | "cluster-policies" | "cluster-throughput" => "icoe::cluster",
        "portability-matrix" => "icoe::matrix",
        _ => "bench",
    }
}

/// The committed golden document of every id, `None` where it is missing.
fn load_goldens(ids: &[&str]) -> Vec<Option<String>> {
    ids.iter()
        .map(|id| {
            std::fs::read_to_string(format!("{ROOT}/tests/golden/{id}.json"))
                .ok()
                .map(|s| s.trim_end_matches('\n').to_string())
        })
        .collect()
}

/// Re-register every experiment of `reg` under a [`TimedExperiment`], so
/// the registry's own run paths run each one inside a span.
fn timed_registry(reg: Registry, tracer: &Arc<Tracer>) -> Registry {
    let inner: &'static Registry = Box::leak(Box::new(reg));
    let mut timed = Registry::new();
    for e in inner.iter() {
        timed.register(TimedExperiment {
            inner: e,
            tracer: Arc::clone(tracer),
            layer: layer_of(e.id()),
        });
    }
    timed
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One experiment's result: its report and recorder, or its panic.
type ExpResult = Result<(icoe::Report, Recorder), String>;

/// Run the whole registry once; the results come back in `ids` order.
fn pass(reg: &Registry, ids: &[&'static str], jobs: usize, params: &ExpParams) -> Vec<ExpResult> {
    if jobs == 1 {
        ids.iter()
            .map(|id| {
                catch_unwind(AssertUnwindSafe(|| {
                    let mut rec = Recorder::enabled();
                    let report = reg
                        .run_with_params(id, &mut rec, params)
                        .expect("id comes from the registry");
                    (report, rec)
                }))
                .map_err(panic_message)
            })
            .collect()
    } else {
        // `icoe::par` catches each experiment's panic; this catches one
        // from the pool itself (a worker that cannot be spawned).
        match catch_unwind(AssertUnwindSafe(|| {
            reg.run_ids_parallel_with(ids, jobs, params)
        })) {
            Ok(runs) => runs
                .into_iter()
                .map(|r| r.outcome.map(|o| (o.report, o.recorder)))
                .collect(),
            Err(payload) => {
                let msg = panic_message(payload);
                ids.iter().map(|_| Err(msg.clone())).collect()
            }
        }
    }
}

/// Run a registry workload on `jobs` workers for at least `seconds`.
pub fn run(jobs: usize, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let reg = bench::registry();
        let goldens = load_goldens(&reg.ids());
        setups.push(t.elapsed().as_secs_f64());
        built = Some((reg, goldens));
    }
    let (reg, goldens) = built.expect("at least one set-up");
    let ids = reg.ids();
    let reg = match tracer {
        Some(t) => timed_registry(reg, t),
        None => reg,
    };
    let params = ExpParams::default();

    let mut out = Outcome::default();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut per_exp: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    let (mut busy, mut longest) = (Vec::new(), Vec::new());
    let mut spans = 0usize;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let span = tracer.map(|t| {
            let layer = if jobs == 1 {
                "icoe::registry"
            } else {
                "icoe::par"
            };
            let id = t.begin(format!("registry.pass.jobs{jobs}"), layer, None);
            t.set_parent(id);
            id
        });
        let (c0, t0) = (cpu_s(), Instant::now());
        let results = pass(&reg, &ids, jobs, &params);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_s() - c0;
        eprintln!(
            "registry pass {}: {wall:.3} s wall, {cpu:.3} s CPU",
            walls.len() + 1
        );
        cpus.push(cpu);
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end(id);
        }
        walls.push(wall);

        spans = 0;
        for (i, (id, result)) in ids.iter().zip(results).enumerate() {
            out.attempted += 1;
            match result {
                Ok((report, rec)) => {
                    spans += rec.span_count();
                    let doc = document_json(id, &report, &rec, 0.0);
                    match &goldens[i] {
                        Some(g) if *g == doc => {}
                        Some(g) => {
                            out.failed += 1;
                            let at = g.bytes().zip(doc.bytes()).position(|(a, b)| a != b);
                            eprintln!("{id}: document differs from its golden at byte {at:?}");
                        }
                        None => {
                            out.failed += 1;
                            eprintln!("{id}: no golden document under tests/golden");
                        }
                    }
                }
                Err(msg) => {
                    out.failed += 1;
                    eprintln!("{id}: panicked: {msg}");
                }
            }
        }

        if let Some(t) = tracer {
            let times: Vec<f64> = ids
                .iter()
                .map(|id| t.last_duration(&format!("exp:{id}")).unwrap_or(0.0))
                .collect();
            for (acc, &s) in per_exp.iter_mut().zip(&times) {
                acc.push(s);
            }
            if jobs > 1 {
                busy.push(times.iter().sum::<f64>() / (jobs as f64 * wall));
                longest.push(times.iter().cloned().fold(0.0, f64::max));
            }
        }
    }

    let m = &mut out.metrics;
    m.insert("setup_s".into(), median(&mut setups));
    let mut rates: Vec<f64> = cpus.iter().map(|c| ids.len() as f64 / c).collect();
    m.insert("jobs_per_s".into(), median(&mut rates));
    m.insert("registry_s".into(), median(&mut cpus));
    m.insert("registry.wall_s".into(), median(&mut walls));
    if tracer.is_some() {
        for (id, times) in ids.iter().zip(&mut per_exp) {
            m.insert(format!("exp.{id}.host_s"), median(times));
        }
        m.insert("obs.spans".into(), spans as f64);
        if jobs > 1 {
            m.insert("par.busy_frac".into(), median(&mut busy));
            m.insert("par.longest_exp_s".into(), median(&mut longest));
        }
    }
    out
}
