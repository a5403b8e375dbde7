//! Kernel cost descriptions.
//!
//! A [`KernelProfile`] is the contract between a *real* computation (run on
//! the host so its answer can be checked) and the *modelled* device it is
//! charged to. Cost is a roofline: `launch + max(compute, memory)` with
//! per-kernel efficiency knobs for the effects the paper calls out
//! (shared-memory staging, texture fetches, divergence, low occupancy from
//! merged-vs-tiny kernels).

use crate::spec::{CpuSpec, GpuSpec};

/// How a kernel is launched; determines the fixed overhead charged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LaunchClass {
    /// A plain device kernel launch.
    #[default]
    Device,
    /// A kernel produced by run-time compilation (NVRTC); first launch pays
    /// the JIT cost, subsequent launches are plain (§4.1 Melodee, §4.10.3).
    Jit {
        /// One-time compile cost in microseconds.
        compile_us: f64,
        /// Whether this launch is the first (pays the compile).
        first: bool,
    },
    /// Host-side parallel region (no device launch overhead, but a fork-join
    /// barrier cost proportional to thread count).
    HostParallel,
    /// Host-side serial loop: no overhead at all.
    HostSerial,
}

/// Floating-point precision of the kernel's arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Precision {
    #[default]
    Fp64,
    Fp32,
}

/// The shared cost-builder core: the five roofline terms that both
/// [`KernelProfile`] (absolute, whole-kernel) and `portal::PerItem`
/// (per-iteration, scaled by trip count) are built from. Keeping one
/// builder here means the two APIs cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostTerms {
    pub flops: f64,
    pub bytes_read: f64,
    pub bytes_written: f64,
    /// Multiplier (0, 1] on achievable compute throughput.
    pub compute_eff: f64,
    /// Multiplier (0, 1] on achievable memory bandwidth.
    pub bandwidth_eff: f64,
}

impl Default for CostTerms {
    fn default() -> CostTerms {
        CostTerms::new()
    }
}

impl CostTerms {
    pub fn new() -> CostTerms {
        CostTerms {
            flops: 0.0,
            bytes_read: 0.0,
            bytes_written: 0.0,
            compute_eff: 1.0,
            bandwidth_eff: 1.0,
        }
    }

    pub fn flops(mut self, f: f64) -> Self {
        self.flops = f;
        self
    }

    pub fn bytes_read(mut self, b: f64) -> Self {
        self.bytes_read = b;
        self
    }

    pub fn bytes_written(mut self, b: f64) -> Self {
        self.bytes_written = b;
        self
    }

    pub fn compute_eff(mut self, e: f64) -> Self {
        self.compute_eff = e;
        self
    }

    pub fn bandwidth_eff(mut self, e: f64) -> Self {
        self.bandwidth_eff = e;
        self
    }

    /// Scale the extensive terms (flops, bytes) by `n` work items; the
    /// efficiency knobs are intensive and stay put.
    pub fn scaled(&self, n: f64) -> CostTerms {
        CostTerms {
            flops: self.flops * n,
            bytes_read: self.bytes_read * n,
            bytes_written: self.bytes_written * n,
            ..*self
        }
    }

    pub fn bytes(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }
}

/// A roofline description of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Diagnostic name (shows up in counters).
    pub name: String,
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes read from the device's main memory.
    pub bytes_read: f64,
    /// Bytes written to the device's main memory.
    pub bytes_written: f64,
    /// Degree of available parallelism (work items). A kernel with fewer
    /// items than the device has lanes cannot saturate it.
    pub parallelism: f64,
    /// Multiplier (0, 1] on achievable compute throughput, for divergence
    /// and instruction-mix effects.
    pub compute_eff: f64,
    /// Multiplier on achievable bandwidth, for stride/coalescing effects
    /// (< 1 for scattered access; the paper's AoS->SoA conversions in §4.6
    /// move this toward 1).
    pub bandwidth_eff: f64,
    /// Whether the kernel stages tiles through shared memory (§4.9).
    pub uses_shared_mem: bool,
    /// Whether the kernel reads through the texture path (§4.7).
    pub uses_texture: bool,
    pub launch: LaunchClass,
    pub precision: Precision,
}

impl KernelProfile {
    pub fn new(name: impl Into<String>) -> Self {
        KernelProfile {
            name: name.into(),
            flops: 0.0,
            bytes_read: 0.0,
            bytes_written: 0.0,
            parallelism: f64::INFINITY,
            compute_eff: 1.0,
            bandwidth_eff: 1.0,
            uses_shared_mem: false,
            uses_texture: false,
            launch: LaunchClass::Device,
            precision: Precision::Fp64,
        }
    }

    /// Build from the shared cost core (see [`CostTerms`]).
    pub fn from_terms(name: impl Into<String>, t: CostTerms) -> KernelProfile {
        KernelProfile::new(name)
            .flops(t.flops)
            .bytes_read(t.bytes_read)
            .bytes_written(t.bytes_written)
            .compute_eff(t.compute_eff)
            .bandwidth_eff(t.bandwidth_eff)
    }

    /// Extract the shared cost core (inverse of [`KernelProfile::from_terms`]).
    pub fn terms(&self) -> CostTerms {
        CostTerms {
            flops: self.flops,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            compute_eff: self.compute_eff,
            bandwidth_eff: self.bandwidth_eff,
        }
    }

    pub fn flops(mut self, f: f64) -> Self {
        self.flops = f;
        self
    }

    pub fn bytes_read(mut self, b: f64) -> Self {
        self.bytes_read = b;
        self
    }

    pub fn bytes_written(mut self, b: f64) -> Self {
        self.bytes_written = b;
        self
    }

    pub fn parallelism(mut self, p: f64) -> Self {
        self.parallelism = p;
        self
    }

    pub fn compute_eff(mut self, e: f64) -> Self {
        self.compute_eff = e;
        self
    }

    pub fn bandwidth_eff(mut self, e: f64) -> Self {
        self.bandwidth_eff = e;
        self
    }

    pub fn shared_mem(mut self, on: bool) -> Self {
        self.uses_shared_mem = on;
        self
    }

    pub fn texture(mut self, on: bool) -> Self {
        self.uses_texture = on;
        self
    }

    pub fn launch_class(mut self, l: LaunchClass) -> Self {
        self.launch = l;
        self
    }

    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    /// Total bytes touched.
    pub fn bytes(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity in flop/byte.
    pub fn intensity(&self) -> f64 {
        if self.bytes() == 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.bytes()
        }
    }

    /// Execution time in seconds on `gpu`.
    pub fn time_on_gpu(&self, gpu: &GpuSpec) -> f64 {
        let peak = match self.precision {
            Precision::Fp64 => gpu.fp64_gflops,
            Precision::Fp32 => gpu.fp32_gflops,
        } * 1e9;
        // A V100 needs roughly 160k resident threads to saturate its ALUs;
        // fewer work items scale compute throughput down linearly. Memory
        // bandwidth saturates much earlier (~20k outstanding threads).
        let occupancy = (self.parallelism / 160_000.0).min(1.0);
        let mem_occupancy = (self.parallelism / 20_000.0).clamp(0.05, 1.0);
        let compute = self.flops / (peak * gpu.compute_efficiency * self.compute_eff * occupancy);
        let mut bw = gpu.mem_bw_gbs * 1e9 * self.bandwidth_eff;
        if self.uses_shared_mem {
            bw *= gpu.shared_mem_gain;
        }
        if self.uses_texture {
            bw *= gpu.texture_gain;
        }
        let memory = self.bytes() / (bw * mem_occupancy);
        self.launch_overhead_us(gpu.launch_overhead_us) * 1e-6 + compute.max(memory)
    }

    /// Execution time in seconds on `threads` cores of `cpu`.
    pub fn time_on_cpu(&self, cpu: &CpuSpec, threads: usize) -> f64 {
        let threads = threads.max(1).min(cpu.cores());
        let peak = cpu.peak_gflops(threads) * 1e9;
        let compute = self.flops / (peak * cpu.compute_efficiency * self.compute_eff);
        // A single core cannot saturate node DDR bandwidth (~6 streaming
        // cores can saturate a socket), and threads pinned to one socket
        // only reach that socket's NUMA-local share.
        let sockets_used = (threads as f64 / cpu.cores_per_socket as f64)
            .ceil()
            .min(cpu.sockets as f64);
        let socket_share = sockets_used / cpu.sockets as f64;
        let bw_frac = (threads as f64 / 6.0).min(1.0) * socket_share;
        let memory = self.bytes() / (cpu.mem_bw_gbs * 1e9 * bw_frac * self.bandwidth_eff);
        let overhead = match self.launch {
            LaunchClass::HostParallel => 1e-6 + 0.05e-6 * threads as f64,
            LaunchClass::HostSerial => 0.0,
            // Charged like a parallel region: the host has no launch queue.
            _ => 1e-6,
        };
        overhead + compute.max(memory)
    }

    fn launch_overhead_us(&self, base_us: f64) -> f64 {
        match self.launch {
            LaunchClass::Device => base_us,
            LaunchClass::Jit { compile_us, first } => {
                if first {
                    base_us + compile_us
                } else {
                    base_us
                }
            }
            LaunchClass::HostParallel | LaunchClass::HostSerial => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    fn v100() -> GpuSpec {
        machines::sierra_node().node.gpus[0].clone()
    }

    fn p9() -> CpuSpec {
        machines::sierra_node().node.cpu.clone()
    }

    #[test]
    fn cost_terms_round_trip_and_scale() {
        let t = CostTerms::new()
            .flops(3.0)
            .bytes_read(16.0)
            .bytes_written(8.0)
            .bandwidth_eff(0.5);
        let k = KernelProfile::from_terms("k", t);
        assert_eq!(k.terms(), t);
        let s = t.scaled(10.0);
        assert_eq!(s.flops, 30.0);
        assert_eq!(s.bytes(), 240.0);
        assert_eq!(s.bandwidth_eff, 0.5, "intensive knobs must not scale");
        // Cost equivalence: a profile built from scaled terms matches the
        // hand-built equivalent.
        let g = machines::sierra_node().node.gpus[0].clone();
        let a = KernelProfile::from_terms("a", s).time_on_gpu(&g);
        let b = KernelProfile::new("b")
            .flops(30.0)
            .bytes_read(160.0)
            .bytes_written(80.0)
            .bandwidth_eff(0.5)
            .time_on_gpu(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_kernel_costs_only_launch() {
        let k = KernelProfile::new("noop");
        let t = k.time_on_gpu(&v100());
        assert!((t - 5e-6).abs() < 1e-9, "{t}");
    }

    #[test]
    fn memory_bound_kernel_scales_with_bytes() {
        let k1 = KernelProfile::new("a").bytes_read(1e9);
        let k2 = KernelProfile::new("b").bytes_read(2e9);
        let g = v100();
        let t1 = k1.time_on_gpu(&g) - 5e-6;
        let t2 = k2.time_on_gpu(&g) - 5e-6;
        assert!((t2 / t1 - 2.0).abs() < 0.01);
    }

    #[test]
    fn shared_memory_speeds_up_bandwidth_bound_stencil() {
        let base = KernelProfile::new("stencil").bytes_read(1e9).flops(1e8);
        let opt = base.clone().shared_mem(true);
        let g = v100();
        let speedup = base.time_on_gpu(&g) / opt.time_on_gpu(&g);
        // §4.9: shared-memory staging bought the sw4lite stencils ~2x.
        assert!(speedup > 1.5 && speedup < 2.0, "{speedup}");
    }

    #[test]
    fn fp32_compute_bound_twice_fp64() {
        let k = KernelProfile::new("flop").flops(1e12);
        let g = v100();
        let t64 = k.clone().time_on_gpu(&g);
        let t32 = k.precision(Precision::Fp32).time_on_gpu(&g);
        assert!((t64 / t32 - 2.0).abs() < 0.05);
    }

    #[test]
    fn low_parallelism_hurts_gpu() {
        let full = KernelProfile::new("big").flops(1e10).parallelism(1e6);
        let tiny = KernelProfile::new("small").flops(1e10).parallelism(1_000.0);
        let g = v100();
        assert!(tiny.time_on_gpu(&g) > 50.0 * full.time_on_gpu(&g));
    }

    #[test]
    fn jit_pays_compile_once() {
        let g = v100();
        let first = KernelProfile::new("jit").launch_class(LaunchClass::Jit {
            compile_us: 50_000.0,
            first: true,
        });
        let later = KernelProfile::new("jit").launch_class(LaunchClass::Jit {
            compile_us: 50_000.0,
            first: false,
        });
        assert!(first.time_on_gpu(&g) > 0.05);
        assert!(later.time_on_gpu(&g) < 1e-4);
    }

    #[test]
    fn cpu_single_thread_slower_than_full_socket() {
        let k = KernelProfile::new("work").flops(1e10).bytes_read(1e9);
        let c = p9();
        assert!(k.time_on_cpu(&c, 1) > 5.0 * k.time_on_cpu(&c, 44));
    }

    #[test]
    fn gpu_beats_cpu_on_streaming_kernel() {
        let k = KernelProfile::new("stream")
            .bytes_read(8e9)
            .bytes_written(8e9);
        let m = machines::sierra_node();
        let tg = k.time_on_gpu(&m.node.gpus[0]);
        let tc = k.time_on_cpu(&m.node.cpu, m.node.cpu.cores());
        // 900 GB/s HBM vs 340 GB/s DDR.
        assert!(tc / tg > 2.0 && tc / tg < 3.5, "{}", tc / tg);
    }
}
