//! `sched` — the Opt activity's job-scheduler simulator (§4.7).
//!
//! "The team decided to develop a job scheduler simulator to study job
//! scheduling policies with job requests that represent the behavior of
//! the topological optimization application." Its two conclusions, both
//! reproduced by tests here:
//!
//! * with Poisson arrivals, "job arrival rate should be throttled to less
//!   than the aggregated processing capacity of the GPUs";
//! * with batch arrivals, "Shortest Job First with Quota should be used to
//!   increase GPU utilization (assuming availability of job duration
//!   information)".
//!
//! Scheduling policies are pluggable: implement [`SchedPolicy`] (see
//! [`policy`]) and hand it to [`simulate`] — or to the cluster-scale
//! simulator in `icoe::cluster`, which schedules the same trait over a
//! heterogeneous fleet with power states and SLAs.

//! ```
//! use sched::{batch_arrivals, simulate, Fcfs, SjfQuota};
//!
//! let jobs = batch_arrivals(100, 7);
//! let fcfs = simulate(&jobs, 8, Fcfs);
//! let sjf = simulate(&jobs, 8, SjfQuota { quota: 12 });
//! assert_eq!(fcfs.completed, 100);
//! assert!(sjf.mean_wait < fcfs.mean_wait);
//! ```

pub mod des;
pub mod policy;
pub mod workload;

pub use des::{simulate, Metrics};
pub use policy::{
    ClusterView, Decision, EasyBackfill, Fcfs, GpuBinPack, JobInfo, NodeView, QueuedJob,
    RunningJob, SchedPolicy, Sjf, SjfQuota, SlaUrgency,
};
pub use workload::{batch_arrivals, poisson_arrivals, Job};
