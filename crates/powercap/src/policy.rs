//! The policy surface of the campaign scheduler.
//!
//! A policy is any [`CapPolicy`] object that, given a job and a
//! [`SiteView`] of the site ledger the scheduler starts from (its cap),
//! decides the GPU cap the job runs under. Every
//! entry point — [`crate::scheduler::Scheduler::run_with`],
//! [`crate::site::run_site`] and the campaign runner — schedules through
//! this one trait and the one event loop in [`crate::site`].
//!
//! [`Uncapped`], [`FixedCap`], [`ClassAware`] and [`SweetSpot`] are the
//! paper's baseline, fixed-cap and §VI policies plus Afzal et al.'s
//! energy sweet spot; the `policy_golden` suite freezes their campaign
//! outcomes. [`TcoAware`] prices each candidate cap in dollars (energy at
//! a $/kWh tariff plus node occupancy at a $/node-hour rate, the
//! Wattlytics objective) and picks the cheapest.

use crate::scheduler::BatchJob;

/// A read-only snapshot of a site ledger: its cap.
///
/// The scheduler shows policies the view of its
/// [`crate::site::SiteBudget`] before any job starts, so nothing is
/// committed yet and the cap is all there is to see; policies never see
/// the mutable ledger itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteView {
    /// Site-wide power cap, watts (`f64::INFINITY` = unbounded).
    pub budget_w: f64,
}

impl SiteView {
    /// The slack view: no site cap. This is what per-partition
    /// scheduling (no `--site-budget`) presents.
    #[must_use]
    pub fn slack() -> Self {
        Self {
            budget_w: f64::INFINITY,
        }
    }
}

/// A capping policy: decides, per job, the GPU power cap it runs under.
///
/// ## Contract
///
/// * `cap_for` returns `Some(cap_w)` to run the job capped, `None` to run
///   it at the top of its own measured support
///   ([`crate::scheduler::CapResponse::uncapped`]).
/// * The scheduler asks *once per job, against the empty ledger*: before
///   its event loop starts, with the ledger's initial [`SiteView`] (the
///   site cap; [`SiteView::slack`] when unbounded).
///   The answer holds for the job's whole stay in the queue. Given equal
///   inputs the answer must be equal — policies are pure functions of
///   `(job, site)`, which is what keeps campaigns byte-deterministic
///   across shard counts and repeated runs.
/// * Implementations must be `Sync`: partitions fan out over the
///   substrate pool and share one policy object.
pub trait CapPolicy: Sync {
    /// Stable policy name (table rows, trace fields).
    fn name(&self) -> &str;

    /// The cap for `job`, or `None` for the job's own default limit.
    fn cap_for(&self, job: &BatchJob, site: &SiteView) -> Option<f64>;
}

/// Default limits everywhere — the baseline the paper measures against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Uncapped;

impl CapPolicy for Uncapped {
    fn name(&self) -> &str {
        "uncapped"
    }

    fn cap_for(&self, _job: &BatchJob, _site: &SiteView) -> Option<f64> {
        None
    }
}

/// One fixed GPU cap for every job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedCap(pub f64);

impl CapPolicy for FixedCap {
    fn name(&self) -> &str {
        "fixed_cap"
    }

    fn cap_for(&self, _job: &BatchJob, _site: &SiteView) -> Option<f64> {
        Some(self.0)
    }
}

/// The paper's §VI proposal: per-class caps chosen so the loss stays
/// within [`ClassAware::MAX_LOSS`]; unclassifiable jobs stay uncapped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassAware;

impl ClassAware {
    /// Acceptable slowdown for loss-bounded capping: the paper's <10 %
    /// rule.
    pub const MAX_LOSS: f64 = 0.10;
}

impl CapPolicy for ClassAware {
    fn name(&self) -> &str {
        "class_aware"
    }

    fn cap_for(&self, job: &BatchJob, _site: &SiteView) -> Option<f64> {
        match job.class {
            crate::scheduler::WorkloadClass::Unknown => None,
            _ => Some(job.response.recommended_cap(Self::MAX_LOSS)),
        }
    }
}

/// Energy-chasing: every job runs at its measured energy-per-work minimum
/// ([`crate::scheduler::CapResponse::sweet_spot_cap`]), whatever the
/// slowdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweetSpot;

impl CapPolicy for SweetSpot {
    fn name(&self) -> &str {
        "sweet_spot"
    }

    fn cap_for(&self, job: &BatchJob, _site: &SiteView) -> Option<f64> {
        Some(job.response.sweet_spot_cap())
    }
}

/// The site tariff the TCO objective prices jobs against: energy at a
/// $/kWh rate plus node occupancy at a $/node-hour rate (Wattlytics'
/// performance/energy/TCO co-optimisation, reduced to two knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcoPrices {
    /// Electricity tariff, dollars per kilowatt-hour.
    pub energy_usd_per_kwh: f64,
    /// Amortised machine cost, dollars per node-hour of occupancy.
    pub node_hour_usd: f64,
}

impl Default for TcoPrices {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl TcoPrices {
    /// Representative HPC-site numbers: industrial power at 12 ¢/kWh and
    /// a $2/node-hour amortisation. At these rates a deep cap's energy
    /// saving competes with — rather than dominates — the node-hours the
    /// slowdown costs, so the optimum genuinely moves per workload class.
    pub const DEFAULT: TcoPrices = TcoPrices {
        energy_usd_per_kwh: 0.12,
        node_hour_usd: 2.0,
    };

    /// Dollar cost of one job: `nodes` occupied for `runtime_s` seconds
    /// while drawing `energy_j` joules in total.
    #[must_use]
    pub fn job_cost_usd(&self, nodes: usize, runtime_s: f64, energy_j: f64) -> f64 {
        energy_j / 3.6e6 * self.energy_usd_per_kwh
            + nodes as f64 * runtime_s / 3600.0 * self.node_hour_usd
    }
}

/// TCO-aware capping: for each job, evaluate the dollar cost of running
/// at every measured cap point and pick the cheapest (ties towards the
/// higher cap, like the sweet-spot rule). Since the job's own default
/// limit is one of the candidates, `TcoAware` can never cost more than
/// [`Uncapped`] on the objective it minimises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcoAware {
    pub prices: TcoPrices,
}

impl TcoAware {
    /// The default-tariff instance — usable as a `&'static dyn CapPolicy`
    /// in policy tables.
    pub const DEFAULT: TcoAware = TcoAware {
        prices: TcoPrices::DEFAULT,
    };
}

impl Default for TcoAware {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl CapPolicy for TcoAware {
    fn name(&self) -> &str {
        "tco_aware"
    }

    fn cap_for(&self, job: &BatchJob, _site: &SiteView) -> Option<f64> {
        let mut best = (f64::INFINITY, job.response.max_cap());
        for &(cap, perf, node_w) in job.response.points() {
            let runtime = job.base_runtime_s / perf;
            let energy = runtime * node_w * job.nodes as f64;
            let cost = self.prices.job_cost_usd(job.nodes, runtime, energy);
            if cost <= best.0 {
                best = (cost, cap);
            }
        }
        Some(best.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{BatchJob, CapResponse, WorkloadClass};

    fn hungry_job(nodes: usize) -> BatchJob {
        BatchJob {
            id: 1,
            name: "hse-test".into(),
            class: WorkloadClass::PowerHungry,
            nodes,
            base_runtime_s: 3600.0,
            response: CapResponse::new(vec![
                (100.0, 0.40, 900.0),
                (200.0, 0.91, 1300.0),
                (300.0, 1.00, 1750.0),
                (400.0, 1.00, 1810.0),
            ]),
            arrival_s: 0.0,
        }
    }

    #[test]
    fn named_policies_pick_their_documented_caps() {
        let job = hungry_job(2);
        let site = SiteView::slack();
        assert_eq!(Uncapped.cap_for(&job, &site), None);
        assert_eq!(FixedCap(250.0).cap_for(&job, &site), Some(250.0));
        assert_eq!(
            ClassAware.cap_for(&job, &site),
            Some(job.response.recommended_cap(0.10))
        );
        assert_eq!(
            SweetSpot.cap_for(&job, &site),
            Some(job.response.sweet_spot_cap())
        );
        let mut unknown = job;
        unknown.class = WorkloadClass::Unknown;
        assert_eq!(ClassAware.cap_for(&unknown, &site), None, "unknown stays uncapped");
    }

    #[test]
    fn tco_aware_never_beats_itself_with_uncapped() {
        let job = hungry_job(2);
        let tco = TcoAware::default();
        let cap = tco.cap_for(&job, &SiteView::slack()).unwrap();
        let cost_at = |cap: f64| {
            let (perf, node_w) = (job.response.perf_at(cap), job.response.power_at(cap));
            let rt = job.base_runtime_s / perf;
            tco.prices.job_cost_usd(job.nodes, rt, rt * node_w * job.nodes as f64)
        };
        // The chosen cap is at least as cheap as the default limit, and
        // for this curve strictly cheaper: 300 W matches 400 W perf at
        // 60 W/node less.
        assert!(cost_at(cap) < cost_at(job.response.max_cap()));
        assert_eq!(cap, 300.0);
    }

    #[test]
    fn tco_extremes_recover_the_named_policies() {
        let job = hungry_job(1);
        // Free electricity: only node-hours matter, so the cheapest cap
        // maximises performance — the uncapped choice.
        let hours_only = TcoAware {
            prices: TcoPrices {
                energy_usd_per_kwh: 0.0,
                node_hour_usd: 2.0,
            },
        };
        let cap = hours_only.cap_for(&job, &SiteView::slack()).unwrap();
        assert_eq!(job.response.perf_at(cap), 1.0);
        // Free machines: only energy matters — the sweet spot.
        let energy_only = TcoAware {
            prices: TcoPrices {
                energy_usd_per_kwh: 0.12,
                node_hour_usd: 0.0,
            },
        };
        assert_eq!(
            energy_only.cap_for(&job, &SiteView::slack()),
            Some(job.response.sweet_spot_cap())
        );
    }
}
