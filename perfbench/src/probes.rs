//! Fixed-input layer probes for the traced pass: the cost of one call
//! into a layer's public function, in ns per operation, with each probe
//! repeated over several batches and its median batch reported. The
//! inputs never depend on the seed, so a probe moves only when its layer
//! does.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use icoe::hetsim::machines::sierra_node;
use icoe::hetsim::{
    CollectiveKind, EventQueue, KernelProfile, Loc, MemTracker, Network, OomPolicy, Recorder, Sim,
    SpanKind, Target, GIB,
};
use icoe::portal::{Backend, Executor, PerItem, Staging};
use icoe::tune::knobs::PipelineChunks;
use icoe::tune::{Tunable, Value};
use icoe::ExpParams;

use crate::trace::{allocs, count_allocs, Tracer};
use crate::{median, Metrics};

const BATCHES: usize = 5;

/// Median over [`BATCHES`] of the ns per op of `ops` calls of `op`,
/// with `prep` run untimed before each batch.
fn ns_per_op<S>(ops: u64, mut prep: impl FnMut() -> S, mut op: impl FnMut(&mut S, u64)) -> f64 {
    let mut per = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut state = prep();
        let t = Instant::now();
        for i in 0..ops {
            op(&mut state, i);
        }
        per.push(t.elapsed().as_nanos() as f64 / ops as f64);
        black_box(state);
    }
    median(&mut per)
}

/// A fixed pseudo-random sequence (xorshift64) for probe inputs.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `hetsim::des`: one pop of the earliest event plus one push, on a queue
/// holding 1024 pending events (the hold model of a busy calendar).
fn des_push_pop() -> f64 {
    ns_per_op(
        200_000,
        || {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..1024u32 {
                q.push((next(&mut x) % 10_000) as f64 * 0.01, i);
            }
            (q, x)
        },
        |(q, x), _| {
            let (k, e) = q.pop().expect("queue holds 1024 events");
            q.push(k.time + (next(x) % 10_000) as f64 * 0.01, e);
        },
    )
}

/// `hetsim::obs`: one `record_span` on `rec`.
fn span(rec: &Recorder) -> f64 {
    ns_per_op(
        100_000,
        || rec.reset(),
        |_, i| {
            let t = i as f64;
            rec.record_span(black_box("probe"), SpanKind::Kernel, "gpu0.s0", t, t + 1.0);
        },
    )
}

/// `hetsim::obs`: one `incr` of a named counter on an enabled recorder.
fn counter_enabled() -> f64 {
    let rec = Recorder::enabled();
    ns_per_op(
        100_000,
        || (),
        |_, _| rec.incr(black_box("sim.flops"), 1.0e9),
    )
}

/// `hetsim::sim`: one `Sim::launch` cost charge on a sierra GPU.
fn sim_launch() -> f64 {
    let k = KernelProfile::new("probe")
        .flops(1.0e9)
        .bytes_read(4.0e8)
        .bytes_written(4.0e8);
    ns_per_op(
        100_000,
        || Sim::new(sierra_node()),
        |sim, _| {
            black_box(sim.launch(Target::Gpu { id: 0 }, &k));
        },
    )
}

/// `hetsim::network`: one `collective_cost` query over 1024 sierra ranks,
/// cycling through every collective kind and message sizes 1 B .. 1 GiB.
fn net_collective_cost() -> f64 {
    const KINDS: [CollectiveKind; 6] = [
        CollectiveKind::AllReduce,
        CollectiveKind::AllToAll,
        CollectiveKind::Reduce,
        CollectiveKind::TreeReduce,
        CollectiveKind::Broadcast,
        CollectiveKind::Gather,
    ];
    let net = Network::for_machine(&ExpParams::default().machine(), 1024);
    ns_per_op(
        200_000,
        || (),
        |_, i| {
            let bytes = (1u64 << (i % 31)) as f64;
            black_box(net.collective_cost(KINDS[(i % 6) as usize], black_box(bytes)));
        },
    )
}

/// `hetsim::mem`: one `MemTracker::touch` under unified-memory spill,
/// alternating two 10 GiB regions on a 16 GiB GPU so every touch evicts.
fn mem_touch() -> f64 {
    ns_per_op(
        20_000,
        || {
            let mut t = MemTracker::for_machine(&sierra_node(), OomPolicy::UnifiedSpill);
            let (a, _) = t.alloc(Loc::Gpu(0), 10.0 * GIB).expect("managed alloc");
            let (b, _) = t.alloc(Loc::Gpu(0), 10.0 * GIB).expect("managed alloc");
            (t, [a, b])
        },
        |(t, ids), i| {
            black_box(t.touch(ids[(i % 2) as usize]).expect("spill touch"));
        },
    )
}

/// `icoe::tune`: one objective evaluation of auto-tune's pipeline-chunks
/// knob, cycling twice through its 13 power-of-two candidates (each
/// evaluation costs the whole chunk schedule, ~1 ms).
fn tune_objective() -> f64 {
    let knob = PipelineChunks::balanced_sierra();
    ns_per_op(
        26,
        || (),
        |_, i| {
            black_box(knob.objective(&[Value::Int(1 << (i % 13))]));
        },
    )
}

/// `portal::exec`: `forall_pipelined` on sierra over pipeline-overlap's
/// 4M items at each of its chunk counts; host ns and allocations per
/// chunk, pooled over the sweep.
fn portal_pipelined() -> (f64, f64) {
    const N: usize = 1 << 22;
    const CHUNKS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 256, 4096];
    let item = PerItem::new()
        .flops(550.0)
        .bytes_read(8.0)
        .bytes_written(8.0);
    let stage = Staging::new(8.0, 8.0);
    let machine = ExpParams::default().machine();
    let mut v = vec![0u8; N];
    let (mut ns, mut allocated) = (0.0, 0u64);
    for chunks in CHUNKS {
        let mut e = Executor::new(Sim::new(machine.clone()));
        count_allocs(true);
        let a0 = allocs();
        let t = Instant::now();
        black_box(e.forall_pipelined(0, Backend::Native, &item, stage, &mut v, chunks, |_, _| {}));
        ns += t.elapsed().as_nanos() as f64;
        allocated += allocs() - a0;
        count_allocs(false);
    }
    let total: usize = CHUNKS.iter().sum();
    (ns / total as f64, allocated as f64 / total as f64)
}

/// Run every probe, each under a span, into `m`.
pub fn run(tracer: &Arc<Tracer>, m: &mut Metrics) {
    let root = tracer.begin("probes", "perfbench", None);
    let mut probe = |name: &str, layer: &'static str, f: &mut dyn FnMut() -> f64| {
        let (v, _) = tracer.span(name, layer, Some(root), f);
        m.insert(name.to_string(), v);
    };
    probe("des.push_pop_ns", "hetsim::des", &mut des_push_pop);
    probe("obs.span_noop_ns", "hetsim::obs", &mut || {
        span(&Recorder::noop())
    });
    probe("obs.span_enabled_ns", "hetsim::obs", &mut || {
        span(&Recorder::enabled())
    });
    probe(
        "obs.counter_enabled_ns",
        "hetsim::obs",
        &mut counter_enabled,
    );
    probe("sim.launch_ns", "hetsim::sim", &mut sim_launch);
    probe(
        "net.collective_cost_ns",
        "hetsim::network",
        &mut net_collective_cost,
    );
    probe("mem.touch_ns", "hetsim::mem", &mut mem_touch);
    probe("tune.objective_ns", "icoe::tune", &mut tune_objective);
    let ((ns, per_chunk), _) = tracer.span(
        "portal.pipelined",
        "portal::exec",
        Some(root),
        portal_pipelined,
    );
    m.insert("portal.pipelined_chunk_ns".into(), ns);
    m.insert("portal.allocs_per_chunk".into(), per_chunk);
    tracer.end(root);
}
