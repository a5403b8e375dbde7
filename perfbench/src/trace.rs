//! Instrumentation for the traced pass (`--trace 1`), all of it on the
//! benchmark's side of the public API:
//!
//! * [`Tracer`] keeps host-clock spans in memory, one around each call
//!   into a layer's public function, and writes them out as JSON lines
//!   when the run ends;
//! * [`CountingAlloc`] is the global allocator of this binary; it counts
//!   allocations only while [`count_allocs`] is switched on;
//! * [`TimedPolicy`] wraps any [`SchedPolicy`] and records its `select`
//!   calls, their time, their `Some` outcomes and the queue length seen;
//! * [`TimedExperiment`] wraps a registered experiment so the registry's
//!   own run paths (serial and `icoe::par`) run it under a span.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use icoe::hetsim::obs::json;
use icoe::hetsim::Recorder;
use icoe::sched::{ClusterView, Decision, QueuedJob, SchedPolicy};
use icoe::{ExpParams, Experiment, Report};

/// The system allocator, counting allocations (fresh, zeroed and
/// reallocated blocks, as the repository's allocation audits do) while
/// counting is on. Off, it costs one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note_alloc() {
    // Relaxed: a statistic that publishes no other data. Worker threads
    // are joined before the count is read, and the join orders them.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no memory handed
// out by the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switch allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One host-clock span around a call into a layer.
struct Span {
    name: String,
    layer: &'static str,
    parent: Option<usize>,
    thread: String,
    start_s: f64,
    end_s: f64,
}

/// In-memory span store, shared across worker threads.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    /// Span that new experiment spans hang under (the current pass).
    parent: AtomicUsize,
}

const NO_PARENT: usize = usize::MAX;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            parent: AtomicUsize::new(NO_PARENT),
        }
    }

    /// Open a span; returns its id.
    pub fn begin(
        &self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let start_s = self.t0.elapsed().as_secs_f64();
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        spans.push(Span {
            name: name.into(),
            layer,
            parent,
            thread: format!("{:?}", std::thread::current().id()),
            start_s,
            end_s: f64::NAN,
        });
        spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    pub fn end(&self, id: usize) -> f64 {
        let end_s = self.t0.elapsed().as_secs_f64();
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        let s = &mut spans[id];
        s.end_s = end_s;
        end_s - s.start_s
    }

    /// Time `f` under a span.
    pub fn span<T>(
        &self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, layer, parent);
        let out = f();
        (out, self.end(id))
    }

    /// Make `id` the parent of the experiment spans that follow.
    pub fn set_parent(&self, id: usize) {
        self.parent.store(id, Ordering::SeqCst);
    }

    fn parent(&self) -> Option<usize> {
        match self.parent.load(Ordering::SeqCst) {
            NO_PARENT => None,
            p => Some(p),
        }
    }

    /// Duration of the most recent closed span named `name`.
    pub fn last_duration(&self, name: &str) -> Option<f64> {
        let spans = self.spans.lock().expect("span store poisoned by a panic");
        spans
            .iter()
            .rev()
            .find(|s| s.name == name && s.end_s.is_finite())
            .map(|s| s.end_s - s.start_s)
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned by a panic");
        let mut out = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"name\":{},\"layer\":{},\"thread\":{},\"start_s\":{},\"end_s\":{}}}\n",
                json::escape(&s.name),
                json::escape(s.layer),
                json::escape(&s.thread),
                json::num(s.start_s),
                json::num(s.end_s),
            ));
        }
        out
    }
}

/// What one serve's `select` calls did.
#[derive(Clone, Copy, Default)]
pub struct SelectStats {
    pub calls: u64,
    /// Calls that returned `Some` (a job was launched).
    pub hits: u64,
    /// Sum of the queue lengths the calls saw.
    pub queue_sum: u64,
    pub ns: u64,
}

/// A [`SchedPolicy`] that delegates to `inner` and records every
/// `select` call.
pub struct TimedPolicy<'a> {
    inner: &'a dyn SchedPolicy,
    stats: Cell<SelectStats>,
}

impl<'a> TimedPolicy<'a> {
    pub fn new(inner: &'a dyn SchedPolicy) -> TimedPolicy<'a> {
        TimedPolicy {
            inner,
            stats: Cell::new(SelectStats::default()),
        }
    }

    /// The statistics gathered since the last call, which resets them.
    pub fn take(&self) -> SelectStats {
        self.stats.take()
    }
}

impl SchedPolicy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&self, view: &ClusterView) -> Option<Decision> {
        let t = Instant::now();
        let d = self.inner.select(view);
        let ns = t.elapsed().as_nanos() as u64;
        let mut s = self.stats.get();
        s.calls += 1;
        s.hits += u64::from(d.is_some());
        s.queue_sum += view.queue.len() as u64;
        s.ns += ns;
        self.stats.set(s);
        d
    }

    fn on_select(&self, queue: &mut [QueuedJob], chosen: usize) {
        self.inner.on_select(queue, chosen)
    }
}

/// A registered experiment run under a span of the shared [`Tracer`].
pub struct TimedExperiment {
    pub inner: &'static dyn Experiment,
    pub tracer: Arc<Tracer>,
    pub layer: &'static str,
}

impl Experiment for TimedExperiment {
    fn id(&self) -> &'static str {
        self.inner.id()
    }

    fn paper_artifact(&self) -> &'static str {
        self.inner.paper_artifact()
    }

    fn run_with(&self, rec: &mut Recorder, params: &ExpParams) -> Report {
        let parent = self.tracer.parent();
        let (report, _) =
            self.tracer
                .span(format!("exp:{}", self.id()), self.layer, parent, || {
                    self.inner.run_with(rec, params)
                });
        report
    }

    fn machine_sensitive(&self) -> bool {
        self.inner.machine_sensitive()
    }
}
