//! Hardware descriptions: CPUs, GPUs, links, nodes, machines.
//!
//! All numbers are double-precision peaks and per-direction bandwidths, the
//! same figures vendors publish and the paper reasons with.

/// A CPU socket complex (all sockets of a node aggregated).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name, e.g. "2x POWER9".
    pub name: &'static str,
    /// Number of sockets on the node.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Peak double-precision Gflop/s per core.
    pub gflops_per_core: f64,
    /// Aggregate DDR (or MCDRAM) stream bandwidth for the node, GB/s.
    pub mem_bw_gbs: f64,
    /// DDR capacity in GiB.
    pub mem_capacity_gib: f64,
    /// Fraction of peak a well-tuned compute-bound kernel reaches.
    pub compute_efficiency: f64,
}

impl CpuSpec {
    /// Total core count across sockets.
    pub fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Peak double-precision Gflop/s for `threads` cores.
    pub fn peak_gflops(&self, threads: usize) -> f64 {
        self.gflops_per_core * threads.min(self.cores()) as f64
    }
}

/// A single GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. "V100".
    pub name: &'static str,
    /// Peak double-precision Gflop/s.
    pub fp64_gflops: f64,
    /// Peak single-precision Gflop/s.
    pub fp32_gflops: f64,
    /// Device-memory (HBM/GDDR) bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Device-memory capacity in GiB.
    pub mem_capacity_gib: f64,
    /// Kernel-launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Fraction of peak a well-tuned compute-bound kernel reaches.
    pub compute_efficiency: f64,
    /// Effectiveness of the texture/L1 path: extra bandwidth factor a
    /// texture-fetch kernel sees (§4.7: ~1.6 on Pascal EA hardware, ~1.0 on
    /// Volta whose unified L1 made texture staging unnecessary).
    pub texture_gain: f64,
    /// Extra bandwidth factor available to kernels that stage through
    /// software-managed shared memory (§4.9: the sw4lite stencils gained
    /// almost 2x from shared-memory tiling).
    pub shared_mem_gain: f64,
}

/// Interconnect family between a host and a device, or between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// A copy within one memory system (host DDR -> host DDR, or a
    /// device-local `cudaMemcpyDeviceToDevice`): no interconnect at all,
    /// just the local memory bus paying a read and a write.
    Local,
    /// PCIe gen3 x16.
    Pcie3,
    /// First-generation NVLink (Minsky EA systems).
    NvLink1,
    /// Second-generation NVLink (Witherspoon / final system).
    NvLink2,
    /// Cache-coherent host<->device or die<->die link (NVLink-C2C,
    /// Infinity Fabric): same costing as NVLink, but names the class the
    /// post-Sierra presets actually ship.
    Coherent,
    /// GPUDirect RDMA path (NIC -> GPU without host staging).
    GpuDirect,
    /// Node-to-node fabric (InfiniBand EDR, Aries, BG/Q torus, ...).
    Fabric,
}

/// A point-to-point link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    pub kind: LinkKind,
    /// Achievable per-direction bandwidth, GB/s.
    pub bw_gbs: f64,
    /// One-way latency in microseconds (page-lock, doorbell, DMA setup).
    pub latency_us: f64,
}

impl LinkSpec {
    /// Time in seconds to move `bytes` over this link.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency_us * 1e-6 + bytes / (self.bw_gbs * 1e9)
    }

    /// Effective bandwidth (bytes/s) for a transfer of `bytes`, including
    /// latency. Small transfers see far less than peak — the §4.11
    /// GPUDirect-vs-cudaMemcpy crossover falls out of this.
    pub fn effective_bw(&self, bytes: f64) -> f64 {
        bytes / self.transfer_time(bytes)
    }
}

/// Everything on one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    pub cpu: CpuSpec,
    /// GPUs on the node (empty for CPU-only machines).
    pub gpus: Vec<GpuSpec>,
    /// Host <-> GPU link (one per GPU, all identical).
    pub host_gpu_link: Option<LinkSpec>,
    /// GPU <-> GPU peer link if present.
    pub peer_link: Option<LinkSpec>,
    /// Node-local NVMe: (capacity GiB, bandwidth GB/s) if present.
    pub nvme: Option<(f64, f64)>,
}

impl NodeConfig {
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// Aggregate fp64 peak of the node in Gflop/s (CPU + all GPUs).
    pub fn node_peak_gflops(&self) -> f64 {
        self.cpu.peak_gflops(self.cpu.cores())
            + self.gpus.iter().map(|g| g.fp64_gflops).sum::<f64>()
    }
}

/// Node-to-node network description.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Injection bandwidth per node, GB/s.
    pub injection_bw_gbs: f64,
    /// Small-message one-way latency, microseconds.
    pub latency_us: f64,
    /// Whether adapters can DMA straight into GPU memory.
    pub gpudirect: bool,
}

/// Intra-node topology as the network layer sees it: how many ranks share a
/// node, and what link they reach each other over.
///
/// The hierarchical collectives in [`crate::Network`] use this to split an
/// operation into an intra-node phase (NVLink ring among the ranks of one
/// node) and an inter-node phase (fabric tree among node leaders). Flat
/// collectives ignore it entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Ranks (GPUs/processes) per node; 1 means "every rank is its own
    /// node" and the hierarchy degenerates to the flat algorithm's shape.
    pub ranks_per_node: usize,
    /// Link connecting ranks inside one node (NVLink peer link, or the
    /// host memory bus on CPU-only machines).
    pub intra_link: LinkSpec,
}

impl TopologySpec {
    /// A degenerate topology: one rank per node, intra-node traffic rides
    /// the fabric-equivalent link handed in.
    pub fn flat(intra_link: LinkSpec) -> TopologySpec {
        TopologySpec {
            ranks_per_node: 1,
            intra_link,
        }
    }
}

/// Per-node power-state model (the S/P/C-state shape of datacenter
/// simulators, collapsed to the three states the cluster layer bills):
/// a node is **off** (S5-ish residual draw), **idle** (powered, no work),
/// or **active** (cores busy), and each busy GPU adds its own draw on
/// top. All figures are watts.
///
/// Derived from a [`Machine`]'s published specs by [`Machine::power`]
/// rather than stored on the node config, so every existing preset gains
/// energy accounting without a constructor change.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSpec {
    /// Residual draw when the node is powered off (PSU + BMC), W.
    pub off_w: f64,
    /// Draw when powered on but fully idle (deep C-state cores, idle
    /// GPUs, fans, DIMM refresh), W.
    pub idle_w: f64,
    /// Draw with every CPU core busy and GPUs still idle, W.
    pub active_w: f64,
    /// Additional draw per *busy* GPU over its idle floor, W.
    pub gpu_active_w: f64,
}

impl PowerSpec {
    /// Instantaneous node draw: `active_frac` is the busy fraction of
    /// CPU cores (0.0 = idle, 1.0 = all busy), `busy_gpus` the number of
    /// GPUs currently running kernels. An off node draws only `off_w`.
    pub fn node_watts(&self, on: bool, active_frac: f64, busy_gpus: usize) -> f64 {
        if !on {
            return self.off_w;
        }
        let frac = active_frac.clamp(0.0, 1.0);
        self.idle_w + (self.active_w - self.idle_w) * frac + self.gpu_active_w * busy_gpus as f64
    }
}

/// Per-machine native-vs-portal overhead factors: what a portable
/// abstraction layer (RAJA-style lambdas over tuned native kernels)
/// costs on this machine's toolchain. Factors multiply kernel time, so
/// 1.3 means "the portal path runs 30 % slower than native".
///
/// Derived from a [`Machine`]'s published specs by [`Machine::backend`]
/// (the [`Machine::power`] / [`Machine::topology`] pattern), so every
/// existing preset gains the model without a constructor change.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSpec {
    /// Portal-over-native factor for device kernels (>= 1.0).
    pub device_factor: f64,
    /// Portal-over-native factor for host loops (>= 1.0).
    pub host_factor: f64,
}

/// A full machine: many identical nodes plus a fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    pub name: &'static str,
    /// Deployment year (Table 2 reports machines by year).
    pub year: u32,
    pub node: NodeConfig,
    pub nodes: usize,
    pub network: NetworkSpec,
}

impl Machine {
    /// Aggregate fp64 peak of the whole machine in Gflop/s.
    pub fn peak_gflops(&self) -> f64 {
        self.node.node_peak_gflops() * self.nodes as f64
    }

    /// The host->device link, falling back to a PCIe3 default for machines
    /// predating NVLink.
    pub fn host_gpu_link(&self) -> LinkSpec {
        self.node.host_gpu_link.clone().unwrap_or(LinkSpec {
            kind: LinkKind::Pcie3,
            bw_gbs: 12.0,
            latency_us: 10.0,
        })
    }

    /// Per-node power-state figures derived from the published specs.
    ///
    /// Heuristics (all documented so the numbers are auditable):
    /// CPU active draw ≈ 2.75 W per core per socket-complex plus a 60 W
    /// platform floor (2×22-core POWER9 → ~181 W, the right order for a
    /// 190 W-TDP pair); idle = platform floor + 25 % of the core draw
    /// (deep C-states); off = 8 W residual. GPU active draw ≈ 38 mW per
    /// fp64 Gflop/s (V100: 7.8 Tflop/s → ~296 W, its 300 W board power);
    /// each *idle* GPU is folded into `idle_w` at 10 % of its active
    /// draw.
    pub fn power(&self) -> PowerSpec {
        let cpu_cores_w = 2.75 * self.node.cpu.cores() as f64;
        let platform_w = 60.0;
        let gpu_active_w = self
            .node
            .gpus
            .first()
            .map(|g| 0.038 * g.fp64_gflops)
            .unwrap_or(0.0);
        let gpu_idle_w = 0.10 * gpu_active_w * self.node.gpu_count() as f64;
        PowerSpec {
            off_w: 8.0,
            idle_w: platform_w + 0.25 * cpu_cores_w + gpu_idle_w,
            active_w: platform_w + cpu_cores_w + gpu_idle_w,
            gpu_active_w,
        }
    }

    /// Native-vs-portal overhead factors for this machine's toolchain,
    /// generalizing the paper's single-machine "RAJA costs ~30 %" figure
    /// (§4.9) into a per-architecture calibration table:
    ///
    /// * CUDA-class GPUs through Volta (K40/K80/P100/V100): device 1.30 —
    ///   the paper's own sw4lite measurement on Sierra; host loops 1.05.
    /// * MI250X-class (early ROCm/HIP): device 1.45 — "Experiences
    ///   Readying Applications for Exascale" reports the portability
    ///   layers cost noticeably more through the younger toolchain.
    /// * Hopper-class (H100, matured RAJA/CUDA stack): device 1.18.
    /// * Edge-class integrated GPUs (Orin): device 1.35.
    /// * Host factor rises to 1.12 on A64FX (SVE vectorization is
    ///   compiler-sensitive — "Performance Assessment of OpenMP
    ///   Compilers" shows backend overhead is a toolchain property, not a
    ///   constant), 1.08 on edge-class ARM, 1.06 on Grace.
    ///
    /// Every preset the paper measured keeps exactly the legacy 1.30 /
    /// 1.05 figures, so single-machine documents are unchanged.
    pub fn backend(&self) -> BackendSpec {
        let device_factor = match self.node.gpus.first() {
            None => 1.0,
            Some(g) if g.name.contains("MI250X") => 1.45,
            Some(g) if g.name.contains("H100") => 1.18,
            Some(g) if g.name.contains("Orin") => 1.35,
            Some(_) => 1.30,
        };
        let cpu = self.node.cpu.name;
        let host_factor = if cpu.contains("A64FX") {
            1.12
        } else if cpu.contains("Orin") {
            1.08
        } else if cpu.contains("Grace") {
            1.06
        } else {
            1.05
        };
        BackendSpec {
            device_factor,
            host_factor,
        }
    }

    /// Intra-node topology derived from the node description: one rank per
    /// GPU (one per node on CPU-only machines), connected by the peer link
    /// if present, else the host<->GPU link, else host memory.
    pub fn topology(&self) -> TopologySpec {
        let intra = self
            .node
            .peer_link
            .clone()
            .or_else(|| self.node.host_gpu_link.clone())
            .unwrap_or(LinkSpec {
                kind: LinkKind::Local,
                bw_gbs: self.node.cpu.mem_bw_gbs,
                latency_us: 1.0,
            });
        TopologySpec {
            ranks_per_node: self.node.gpu_count().max(1),
            intra_link: intra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(bw: f64, lat: f64) -> LinkSpec {
        LinkSpec {
            kind: LinkKind::Pcie3,
            bw_gbs: bw,
            latency_us: lat,
        }
    }

    #[test]
    fn transfer_time_has_latency_floor() {
        let l = link(10.0, 5.0);
        assert!(l.transfer_time(0.0) >= 5e-6 - 1e-12);
        // 1 GB at 10 GB/s is 0.1 s; latency is negligible there.
        let t = l.transfer_time(1e9);
        assert!((t - 0.1).abs() / 0.1 < 1e-3);
    }

    #[test]
    fn effective_bw_grows_with_message_size() {
        let l = link(50.0, 8.0);
        let small = l.effective_bw(1024.0);
        let big = l.effective_bw(64.0 * 1024.0 * 1024.0);
        assert!(small < big);
        assert!(big <= 50.0 * 1e9);
    }

    #[test]
    fn machine_topology_prefers_peer_link_and_counts_gpus() {
        let m = crate::machines::sierra_node();
        let topo = m.topology();
        assert_eq!(topo.ranks_per_node, m.node.gpu_count());
        assert_eq!(
            topo.intra_link,
            m.node.peer_link.clone().expect("sierra has NVLink")
        );
        // CPU-only machines degenerate to one rank per node over host memory.
        let cpu_only = crate::machines::cori2();
        let t2 = cpu_only.topology();
        assert_eq!(t2.ranks_per_node, 1);
        assert!(t2.intra_link.bw_gbs > 0.0);
    }

    #[test]
    fn power_states_are_ordered_and_gpu_draw_dominates_sierra() {
        let m = crate::machines::sierra_node();
        let p = m.power();
        assert!(p.off_w < p.idle_w && p.idle_w < p.active_w);
        // V100 board power lands near its 300 W spec.
        assert!((p.gpu_active_w - 296.0).abs() < 10.0, "{}", p.gpu_active_w);
        // All four GPUs busy dwarf the CPU-active draw.
        let all_busy = p.node_watts(true, 1.0, 4);
        assert!(all_busy > 3.0 * p.node_watts(true, 1.0, 0));
        // Off draws only the residual.
        assert_eq!(p.node_watts(false, 1.0, 4), p.off_w);
        // CPU-only machines have no per-GPU draw.
        assert_eq!(crate::machines::cori2().power().gpu_active_w, 0.0);
    }

    #[test]
    fn backend_factors_keep_the_paper_calibration_on_measured_machines() {
        // Every machine the paper ran on keeps the §4.9 figures exactly:
        // the portability matrix varies only on the post-Sierra presets.
        for m in [
            crate::machines::sierra_node(),
            crate::machines::ea_minsky(),
            crate::machines::dev_k80(),
            crate::machines::viz_k40(),
        ] {
            let b = m.backend();
            assert_eq!(b.device_factor, 1.30, "{}", m.name);
            assert_eq!(b.host_factor, 1.05, "{}", m.name);
        }
        // CPU-only machines have no device path to slow down.
        assert_eq!(crate::machines::cori2().backend().device_factor, 1.0);
    }

    #[test]
    fn cpu_peak_saturates_at_core_count() {
        let cpu = CpuSpec {
            name: "test",
            sockets: 2,
            cores_per_socket: 4,
            gflops_per_core: 10.0,
            mem_bw_gbs: 100.0,
            mem_capacity_gib: 256.0,
            compute_efficiency: 0.8,
        };
        assert_eq!(cpu.cores(), 8);
        assert_eq!(cpu.peak_gflops(4), 40.0);
        assert_eq!(cpu.peak_gflops(100), 80.0);
    }
}
