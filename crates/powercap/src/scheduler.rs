//! The power-aware batch scheduler of §VI.
//!
//! The paper's proposal: the batch system knows each queued job's workload
//! class (cheap to determine from its input), applies a 50 %-TDP GPU power
//! cap to the classes that tolerate it with <10 % slowdown, and reallocates
//! the spared power to admit more jobs under the site's power budget —
//! deciding once per ~30-second scheduling cycle.
//!
//! ## Simulation engine
//!
//! This module holds the job model ([`BatchJob`], [`CapResponse`],
//! [`WorkloadClass`]) and a partition's shape and demand rule
//! ([`Scheduler::job_demand_with`]). It has no event loop of its own:
//! [`Scheduler::run_with`] is the one-partition case of the site engine
//! in [`crate::site`], under an unbounded [`SiteBudget`]. The
//! `scheduler_equivalence` property suite diffs it against the superseded
//! fixed-cycle polling engine, kept as a test-side oracle, and demands
//! `ScheduleOutcome` equality (spans, peak, integral) on random queues.

use crate::policy::{CapPolicy, SiteView};
use crate::site::SiteBudget;

/// Workload classes the scheduler can recognise from job inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Higher-order methods (HSE, RPA): power-hungry, cap-sensitive.
    PowerHungry,
    /// Basic DFT: moderate power, tolerates deep caps.
    Moderate,
    /// Small / k-point-bound jobs: low power, cap-insensitive.
    Light,
    /// Not classifiable — leave at the default limit.
    Unknown,
}

/// A job's measured response to GPU power caps: `(cap, perf, node power)`
/// points sorted by cap, linearly interpolated between points.
#[derive(Debug, Clone, PartialEq)]
pub struct CapResponse {
    points: Vec<(f64, f64, f64)>,
}

impl CapResponse {
    /// Build from `(cap_w, perf_fraction, node_power_w)` points.
    ///
    /// # Panics
    /// If fewer than one point, caps are not strictly increasing, or any
    /// value is non-finite/non-positive.
    #[must_use]
    pub fn new(points: Vec<(f64, f64, f64)>) -> Self {
        assert!(!points.is_empty(), "need at least one response point");
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "caps must be strictly increasing"
        );
        for &(c, p, w) in &points {
            assert!(c > 0.0 && p > 0.0 && w > 0.0, "bad point ({c}, {p}, {w})");
            assert!(c.is_finite() && p.is_finite() && w.is_finite());
        }
        Self { points }
    }

    fn interp(&self, cap_w: f64, f: impl Fn(&(f64, f64, f64)) -> f64) -> f64 {
        let pts = &self.points;
        if cap_w <= pts[0].0 {
            return f(&pts[0]);
        }
        if cap_w >= pts[pts.len() - 1].0 {
            return f(&pts[pts.len() - 1]);
        }
        let i = pts.partition_point(|p| p.0 <= cap_w);
        let (a, b) = (&pts[i - 1], &pts[i]);
        let t = (cap_w - a.0) / (b.0 - a.0);
        f(a) * (1.0 - t) + f(b) * t
    }

    /// Performance fraction (1 = uncapped speed) at a cap.
    #[must_use]
    pub fn perf_at(&self, cap_w: f64) -> f64 {
        self.interp(cap_w, |p| p.1)
    }

    /// Node power draw at a cap, watts.
    #[must_use]
    pub fn power_at(&self, cap_w: f64) -> f64 {
        self.interp(cap_w, |p| p.2)
    }

    /// Deepest cap whose performance loss stays within `loss_budget`
    /// (the paper's rule: 50 % TDP costs <10 % for most VASP workloads).
    /// Scans the measured caps from deepest to shallowest.
    #[must_use]
    pub fn recommended_cap(&self, loss_budget: f64) -> f64 {
        for &(c, p, _) in &self.points {
            if p >= 1.0 - loss_budget {
                return c;
            }
        }
        self.points[self.points.len() - 1].0
    }

    /// The highest measured cap — the job's default power limit (TDP of
    /// its support). "Uncapped" operation means running here, not at any
    /// hardwired site-wide constant.
    #[must_use]
    pub fn max_cap(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }

    /// Performance fraction and node power at the default (uncapped)
    /// limit, i.e. at [`Self::max_cap`].
    #[must_use]
    pub fn uncapped(&self) -> (f64, f64) {
        let p = &self.points[self.points.len() - 1];
        (p.1, p.2)
    }

    /// The measured `(cap_w, perf_fraction, node_power_w)` points, caps
    /// strictly increasing. Policies that optimise over the support (e.g.
    /// the TCO objective) scan these rather than re-sampling the
    /// interpolant.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64, f64)] {
        &self.points
    }

    /// The energy-optimal cap (Afzal et al.'s sweet spot): the measured
    /// cap minimising node energy per unit of work, `power / perf`.
    /// Ties break towards the higher cap (less throttling risk).
    #[must_use]
    pub fn sweet_spot_cap(&self) -> f64 {
        let mut best = (f64::INFINITY, 0.0);
        for &(c, p, w) in &self.points {
            let joules_per_work = w / p;
            if joules_per_work <= best.0 {
                best = (joules_per_work, c);
            }
        }
        best.1
    }
}

/// One queued batch job.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    pub id: u64,
    pub name: String,
    pub class: WorkloadClass,
    pub nodes: usize,
    /// Runtime at the default power limit, seconds.
    pub base_runtime_s: f64,
    pub response: CapResponse,
    /// Submission time, seconds (0 = queued from the start).
    pub arrival_s: f64,
}

/// Result of a schedule simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// Time until the last job finishes, seconds.
    pub makespan_s: f64,
    /// `(job id, start, finish)` in start order.
    pub job_spans: Vec<(u64, f64, f64)>,
    /// Peak simultaneous system power, watts.
    pub peak_power_w: f64,
    /// Mean system power while any job ran, watts.
    pub mean_power_w: f64,
}

impl ScheduleOutcome {
    /// Jobs completed per hour of makespan.
    #[must_use]
    pub fn throughput_per_hour(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.job_spans.len() as f64 * 3600.0 / self.makespan_s
    }
}

/// The power-aware scheduler: fixed node count, fixed system power budget,
/// FIFO with power/node backfill, decisions each cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduler {
    pub total_nodes: usize,
    /// System power budget for these nodes, watts.
    pub power_budget_w: f64,
    /// Scheduling cycle, seconds (paper: ~30 s).
    pub cycle_s: f64,
}

impl Scheduler {
    /// A scheduler over `total_nodes` nodes with the given budget.
    #[must_use]
    pub fn new(total_nodes: usize, power_budget_w: f64) -> Self {
        assert!(total_nodes > 0 && power_budget_w > 0.0);
        Self {
            total_nodes,
            power_budget_w,
            cycle_s: 30.0,
        }
    }

    /// Effective runtime (seconds) and whole-job power draw (watts) for
    /// `job` under `policy`, which decides the cap while observing `site`.
    /// Uncapped jobs run at the top of their own measured support
    /// ([`CapResponse::uncapped`]), not at a hardwired site constant.
    ///
    /// # Panics
    /// If the job needs more nodes than the system has, or its power
    /// demand alone exceeds the budget (it could never start).
    #[must_use]
    pub fn job_demand_with(
        &self,
        job: &BatchJob,
        policy: &dyn CapPolicy,
        site: &SiteView,
    ) -> (f64, f64) {
        assert!(
            job.nodes <= self.total_nodes,
            "job {} wants {} of {} nodes",
            job.id,
            job.nodes,
            self.total_nodes
        );
        let (perf, node_power) = match policy.cap_for(job, site) {
            Some(c) => (job.response.perf_at(c), job.response.power_at(c)),
            None => job.response.uncapped(),
        };
        let power = node_power * job.nodes as f64;
        assert!(
            power <= self.power_budget_w,
            "job {} alone exceeds the power budget",
            job.id
        );
        (job.base_runtime_s / perf, power)
    }

    /// Simulate the queue under `policy`: the crate's one event loop
    /// ([`crate::site`]) over a single partition with an unbounded ledger,
    /// so every job runs here and only this partition's budget binds.
    ///
    /// # Panics
    /// As [`Scheduler::job_demand_with`], for any job in the queue.
    #[must_use]
    pub fn run_with(&self, queue: &[BatchJob], policy: &dyn CapPolicy) -> ScheduleOutcome {
        crate::site::simulate(self, 1, SiteBudget::unbounded(), queue, policy).outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ClassAware, FixedCap, SweetSpot, Uncapped};

    /// A VASP-like cap response: 300 W free, 200 W ≈ 9 % loss, 100 W dire.
    fn hungry_response() -> CapResponse {
        CapResponse::new(vec![
            (100.0, 0.40, 900.0),
            (200.0, 0.91, 1300.0),
            (300.0, 1.00, 1750.0),
            (400.0, 1.00, 1810.0),
        ])
    }

    /// A light job: caps barely matter.
    fn light_response() -> CapResponse {
        CapResponse::new(vec![
            (100.0, 0.96, 720.0),
            (200.0, 1.00, 760.0),
            (400.0, 1.00, 766.0),
        ])
    }

    fn job(id: u64, class: WorkloadClass, nodes: usize, rt: f64) -> BatchJob {
        BatchJob {
            id,
            name: format!("job{id}"),
            class,
            nodes,
            base_runtime_s: rt,
            response: match class {
                WorkloadClass::PowerHungry => hungry_response(),
                _ => light_response(),
            },
            arrival_s: 0.0,
        }
    }

    #[test]
    fn cap_response_interpolates() {
        let r = hungry_response();
        assert!((r.perf_at(250.0) - 0.955).abs() < 1e-9);
        assert!((r.power_at(150.0) - 1100.0).abs() < 1e-9);
        assert_eq!(r.perf_at(50.0), 0.40, "clamps below");
        assert_eq!(r.power_at(500.0), 1810.0, "clamps above");
    }

    #[test]
    fn recommended_cap_respects_loss_budget() {
        assert_eq!(hungry_response().recommended_cap(0.10), 200.0);
        assert_eq!(hungry_response().recommended_cap(0.005), 300.0);
        assert_eq!(light_response().recommended_cap(0.10), 100.0);
    }

    #[test]
    fn uncapped_demand_comes_from_the_response_support() {
        // A response whose support tops out at 350 W, not the old
        // hardwired 400 W: uncapped jobs must run at *their* TDP.
        let r = CapResponse::new(vec![(100.0, 0.5, 800.0), (350.0, 1.0, 1500.0)]);
        assert_eq!(r.max_cap(), 350.0);
        assert_eq!(r.uncapped(), (1.0, 1500.0));
        let s = Scheduler::new(4, 10_000.0);
        let mut j = job(1, WorkloadClass::Unknown, 2, 100.0);
        j.response = r;
        let (runtime, power) = s.job_demand_with(&j, &Uncapped, &SiteView::slack());
        assert!((runtime - 100.0).abs() < 1e-12);
        assert!((power - 3000.0).abs() < 1e-12);
    }

    #[test]
    fn sweet_spot_picks_the_energy_minimum() {
        // hungry: J-per-work 2250 / 1428.6 / 1750 / 1810 -> 200 W.
        assert_eq!(hungry_response().sweet_spot_cap(), 200.0);
        // light: 750 / 760 / 766 -> deepest cap already optimal.
        assert_eq!(light_response().sweet_spot_cap(), 100.0);
    }

    #[test]
    fn sweet_spot_policy_trades_time_for_energy() {
        let s = Scheduler::new(16, 1.0e6);
        let queue: Vec<BatchJob> = (0..4)
            .map(|i| job(i, WorkloadClass::PowerHungry, 1, 600.0))
            .collect();
        let base = s.run_with(&queue, &Uncapped);
        let sweet = s.run_with(&queue, &SweetSpot);
        // 200 W sweet spot: 9 % slower but far below uncapped power.
        assert!(sweet.makespan_s > base.makespan_s);
        assert!(sweet.peak_power_w < base.peak_power_w);
        let base_energy = base.mean_power_w * base.makespan_s;
        let sweet_energy = sweet.mean_power_w * sweet.makespan_s;
        assert!(sweet_energy < base_energy, "{sweet_energy} !< {base_energy}");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_response_panics() {
        let _ = CapResponse::new(vec![(200.0, 1.0, 1.0), (100.0, 1.0, 1.0)]);
    }

    #[test]
    fn single_job_runs_to_completion() {
        let s = Scheduler::new(4, 10_000.0);
        let out = s.run_with(&[job(1, WorkloadClass::PowerHungry, 2, 600.0)], &Uncapped);
        assert_eq!(out.job_spans.len(), 1);
        assert!((out.makespan_s - 600.0).abs() < 1e-6);
        assert!((out.peak_power_w - 2.0 * 1810.0).abs() < 1e-6);
    }

    #[test]
    fn power_budget_is_never_exceeded() {
        let s = Scheduler::new(8, 4000.0);
        let queue: Vec<BatchJob> = (0..6)
            .map(|i| job(i, WorkloadClass::PowerHungry, 1, 300.0))
            .collect();
        let policies: [&dyn CapPolicy; 3] = [&Uncapped, &FixedCap(200.0), &ClassAware];
        for policy in policies {
            let out = s.run_with(&queue, policy);
            assert!(
                out.peak_power_w <= 4000.0 + 1e-6,
                "{}: peak {}",
                policy.name(),
                out.peak_power_w
            );
            assert_eq!(out.job_spans.len(), 6, "{}: all jobs must finish", policy.name());
        }
    }

    #[test]
    fn class_aware_capping_improves_throughput_under_tight_budget() {
        // Budget fits 2 uncapped hungry jobs (2×1810) but 3 capped ones
        // (3×1300): the paper's motivating scenario.
        let s = Scheduler::new(8, 4000.0);
        let queue: Vec<BatchJob> = (0..6)
            .map(|i| job(i, WorkloadClass::PowerHungry, 1, 600.0))
            .collect();
        let base = s.run_with(&queue, &Uncapped);
        let capped = s.run_with(&queue, &ClassAware);
        assert!(
            capped.makespan_s < base.makespan_s,
            "capped {} vs uncapped {}",
            capped.makespan_s,
            base.makespan_s
        );
    }

    #[test]
    fn capping_does_not_help_when_power_is_plentiful() {
        let s = Scheduler::new(16, 1.0e6);
        let queue: Vec<BatchJob> = (0..4)
            .map(|i| job(i, WorkloadClass::PowerHungry, 1, 600.0))
            .collect();
        let base = s.run_with(&queue, &Uncapped);
        let capped = s.run_with(&queue, &ClassAware);
        // With unlimited power, capping only adds the ~9 % slowdown.
        assert!(capped.makespan_s >= base.makespan_s);
        assert!(capped.makespan_s <= base.makespan_s * 1.15);
    }

    #[test]
    fn unknown_jobs_stay_uncapped_under_class_aware() {
        let s = Scheduler::new(4, 10_000.0);
        let queue = vec![job(1, WorkloadClass::Unknown, 1, 100.0)];
        let out = s.run_with(&queue, &ClassAware);
        assert!((out.peak_power_w - 766.0).abs() < 1e-6, "{}", out.peak_power_w);
    }

    #[test]
    fn node_limits_serialise_jobs() {
        let s = Scheduler::new(2, 1.0e9);
        let queue: Vec<BatchJob> = (0..3)
            .map(|i| job(i, WorkloadClass::Light, 2, 100.0))
            .collect();
        let out = s.run_with(&queue, &Uncapped);
        // Three 2-node jobs on 2 nodes: strictly sequential.
        assert!(out.makespan_s >= 300.0 - 1e-6);
    }

    #[test]
    fn outcome_is_deterministic() {
        let s = Scheduler::new(8, 5000.0);
        let queue: Vec<BatchJob> = (0..5)
            .map(|i| job(i, WorkloadClass::PowerHungry, 1, 400.0))
            .collect();
        assert_eq!(s.run_with(&queue, &ClassAware), s.run_with(&queue, &ClassAware));
    }

    #[test]
    #[should_panic(expected = "exceeds the power budget")]
    fn impossible_job_panics() {
        let s = Scheduler::new(4, 1000.0);
        let _ = s.run_with(&[job(1, WorkloadClass::PowerHungry, 4, 100.0)], &Uncapped);
    }

    #[test]
    fn arrivals_delay_admission() {
        let s = Scheduler::new(8, 1.0e6);
        let mut late = job(2, WorkloadClass::Light, 1, 100.0);
        late.arrival_s = 500.0;
        let queue = vec![job(1, WorkloadClass::Light, 1, 100.0), late];
        let out = s.run_with(&queue, &Uncapped);
        let span_of = |id: u64| {
            out.job_spans
                .iter()
                .find(|(j, _, _)| *j == id)
                .copied()
                .unwrap()
        };
        assert!(span_of(1).1 < 1.0, "job 1 starts immediately");
        assert!(span_of(2).1 >= 500.0, "job 2 waits for its arrival");
        // The idle gap between them is skipped, not busy-waited.
        assert!((out.makespan_s - 600.0).abs() < 31.0, "{}", out.makespan_s);
    }

    #[test]
    fn staggered_arrivals_respect_budget() {
        let s = Scheduler::new(8, 4000.0);
        let queue: Vec<BatchJob> = (0..6)
            .map(|i| {
                let mut j = job(i, WorkloadClass::PowerHungry, 1, 400.0);
                j.arrival_s = i as f64 * 120.0;
                j
            })
            .collect();
        let out = s.run_with(&queue, &ClassAware);
        assert_eq!(out.job_spans.len(), 6);
        assert!(out.peak_power_w <= 4000.0 + 1e-6);
    }

    #[test]
    fn throughput_metric() {
        let s = Scheduler::new(4, 1.0e6);
        let out = s.run_with(&[job(1, WorkloadClass::Light, 1, 1800.0)], &Uncapped);
        assert!((out.throughput_per_hour() - 2.0).abs() < 1e-9);
    }
}
