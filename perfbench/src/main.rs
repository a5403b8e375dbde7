//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from outside the program through public APIs only,
//! checks every output, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the `end_to_end` list of `BENCHMARK.json`; with `--trace 1`
//! the `per_layer` list, measured by a separate traced pass whose spans
//! are written to `.bench_trace/`. The line before it is the run stamp.
//! See `perfbench/README.md` for the workloads and the metric map.

mod fleet;
mod probes;
mod registry;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::sync::Arc;

use icoe::hetsim::obs::json;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// The repository root (the benchmark lives one level below it).
pub const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

pub type Metrics = BTreeMap<String, f64>;

/// What one run did: operations attempted and failed, and its metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Median of `v` (mean of the middle two for even lengths); 0 if empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host CPU seconds, user plus system, of every thread this process ran,
/// exited threads included: the process CPU-time clock, in nanoseconds.
pub fn cpu_s() -> f64 {
    /// `struct timespec` of the 64-bit Linux ABI.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` laid out as the
    // 64-bit Linux ABI defines it, and the kernel writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is always available");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

const WORKLOADS: [&str; 4] = [
    "registry-serial",
    "registry-jobs2",
    "fleet-steady",
    "fleet-spike",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload '{value}' (one of {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(fleet::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Result<Vec<(String, String)>, String> {
    let path = format!("{ROOT}/BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get(key)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{path}: no '{key}' list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("{path}: a '{key}' entry lacks name or unit"))
        })
        .collect()
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Peak resident set (VmHWM) in MiB.
pub fn max_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's stdout, or `unknown`.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(args: &Args, load_before: &str, load_after: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line(Command::new("rustc").arg("-V"));
    // The ceiling keeps git from reporting an enclosing repository when
    // the benchmark runs from a plain source tree.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository");
    let mut git = Command::new("git");
    git.arg("-C").arg(root).args(["rev-parse", "HEAD"]);
    if let Some(up) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", up);
    }
    let rev = command_line(&mut git);
    format!(
        "{{\"stamp\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"rustc\":{},\"git_rev\":{},\"loadavg_before\":{},\"loadavg_after\":{}}}}}",
        json::escape(&args.workload),
        args.seed,
        json::num(args.seconds),
        u8::from(args.trace),
        json::escape(&rustc),
        json::escape(&rev),
        json::escape(load_before),
        json::escape(load_after),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (end_to_end, per_layer) =
        match declared("end_to_end").and_then(|e| Ok((e, declared("per_layer")?))) {
            Ok(lists) => lists,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        };

    let load_before = loadavg();
    let tracer = args.trace.then(|| Arc::new(trace::Tracer::new()));
    let t = tracer.as_ref();
    let mut out = match args.workload.as_str() {
        "registry-serial" => registry::run(1, args.seconds, t),
        "registry-jobs2" => registry::run(2, args.seconds, t),
        "fleet-steady" => fleet::run(&args.workload, false, args.seed, args.seconds, t),
        "fleet-spike" => fleet::run(&args.workload, true, args.seed, args.seconds, t),
        _ => unreachable!("workload validated by parse_args"),
    };
    if let Some(t) = &tracer {
        probes::run(t, &mut out.metrics);
    }
    // The fleet workloads read their peak after fixed work (see `fleet`).
    out.metrics
        .entry("max_rss_mb".into())
        .or_insert_with(max_rss_mb);
    out.metrics.insert(
        "fail_frac".into(),
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let load_after = loadavg();
    let stamp = stamp(&args, &load_before, &load_after);

    if let Some(t) = &tracer {
        let dir = format!("{ROOT}/.bench_trace");
        let path = format!("{dir}/{}-seed{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, format!("{stamp}\n{}", t.to_jsonl())));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }

    for name in out.metrics.keys() {
        if !end_to_end.iter().chain(&per_layer).any(|(n, _)| n == name) {
            eprintln!("perfbench: metric {name} is not declared in BENCHMARK.json");
        }
    }
    // Every listed metric is printed. A per-layer metric this workload
    // never reaches reads 0: no work was done in that layer.
    let listed = if args.trace { &per_layer } else { &end_to_end };
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut fields = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let v = match out.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if !v.is_finite() {
            correct = false;
            eprintln!("perfbench: {name} is not finite");
        }
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::escape(name),
            if v.is_finite() {
                json::num(v)
            } else {
                "0.0".into()
            },
            json::escape(unit)
        ));
    }
    println!("{stamp}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}
