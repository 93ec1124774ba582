//! GPU power capping and power-aware scheduling.
//!
//! Six modules:
//!
//! * [`nvidia_smi`] — the `nvidia-smi -pl` analogue the paper uses to set
//!   GPU power limits (§V): validated limits, per-GPU or node-wide, with
//!   query support.
//! * [`controller`] — the closed-loop system power controller of §VI:
//!   each cycle it compares the jobs' measured power with the budget and
//!   redistributes cap headroom within a per-job loss floor.
//! * [`scheduler`] — the power-aware batch scheduler the paper proposes in
//!   §VI: classify jobs by workload type, cap VASP-like jobs at 50 % TDP
//!   (which costs <10 % performance), and reallocate the spared power to
//!   admit more jobs under a fixed system power budget, deciding within
//!   30-second scheduling cycles. Event-driven on the calendar queue.
//! * [`policy`] — the [`CapPolicy`] trait every engine schedules through:
//!   the baseline, fixed-cap, class-aware and sweet-spot policies plus the
//!   TCO-priced [`TcoAware`], all able to observe the shared site ledger
//!   at decision time.
//! * [`site`] — the site-coupled engine: a [`SiteBudget`] ledger of
//!   committed watts across partitions and a single global-backfill DES
//!   ([`site::run_site`]) for campaigns under one site-wide envelope.
//! * [`campaign`] — datacenter-scale what-if campaigns: thousands of
//!   seeded heterogeneous jobs over partitioned machines, shard-parallel
//!   DES with deterministic merging, compared across cap policies.

pub mod campaign;
pub mod controller;
pub mod nvidia_smi;
pub mod policy;
pub mod scheduler;
pub mod site;

pub use campaign::{CampaignOutcome, CampaignSpec, Distribution};
pub use controller::{ControlledJob, Controller};
pub use nvidia_smi::{GpuPowerInfo, NvidiaSmi, SmiError};
pub use policy::{CapPolicy, SiteView, TcoAware, TcoPrices};
pub use scheduler::{BatchJob, CapResponse, ScheduleOutcome, Scheduler, WorkloadClass};
pub use site::{SiteBudget, SiteRun};
