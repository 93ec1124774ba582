//! The scheduling event loop: every partition, one shared watts ledger.
//!
//! This module holds the crate's only admission engine, `simulate`: the
//! §VI loop (retire due finishes, re-derive occupancy, offer every arrived
//! pending job admission, step to the next cycle boundary, finish or
//! arrival) over any number of partitions drawing on one [`SiteBudget`].
//! The full admission pass runs only at wakes where a finish is due or an
//! arrival has passed; cycle boundaries in between cost O(1). Two entry
//! points share it:
//!
//! * [`run_site`] — every partition of a campaign under the spec's
//!   ledger (`--site-budget`), with *global backfill*: pending jobs are
//!   scanned in submission order, and a job whose round-robin home
//!   partition is full may start on any partition with free nodes, free
//!   partition watts and free *site* watts (home first, then increasing
//!   partition index, wrapping).
//! * [`Scheduler::run_with`] — one partition under
//!   [`SiteBudget::unbounded`]: every job's home is that partition and the
//!   ledger never refuses, so only the partition's nodes and watts bind.
//!   Sharded campaigns run one such loop per partition on the pool, which
//!   keeps shard-parallel simulation trivially deterministic.
//!
//! Each job's `(runtime, power)` is decided once, before the loop, by
//! asking the policy against the empty ledger's [`SiteBudget::view`].
//! At every admission wake the loop re-derives per-partition nodes and
//! watts and the ledger's committed watts as left-to-right sums over the
//! running jobs, then commits each admission; peak and power-time
//! integral come from the ledger. With one partition that is exactly the
//! arithmetic of the polling oracle the `scheduler_equivalence` suite
//! compares against.
//!
//! Within the loop every tie falls to the `(start, id)` order: finishes
//! retire before any admission, pending jobs are offered admission in id
//! order, and spans finalise sorted by `(start, id)`. [`run_site`] is one
//! serial loop the shard count cannot split, so [`crate::campaign::run`]
//! keeps the N-shard == 1-shard guarantee by construction.

use crate::campaign::CampaignSpec;
use crate::policy::{CapPolicy, SiteView};
use crate::scheduler::{BatchJob, ScheduleOutcome, Scheduler};
use vpp_substrate::trace;

/// The shared ledger of watts committed to running jobs site-wide.
///
/// The engine rebuilds it at every admission wake from the running jobs
/// and commits each admission; the high-water mark is the engine's peak,
/// and the commit-side assertion is what makes "peak never exceeds the
/// site budget" a structural guarantee rather than a measured one.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteBudget {
    budget_w: f64,
    committed_w: f64,
    peak_w: f64,
}

impl SiteBudget {
    /// A ledger capped at `budget_w` watts.
    ///
    /// # Panics
    /// If `budget_w` is NaN or not positive (`f64::INFINITY` is a valid
    /// budget: the unbounded ledger).
    #[must_use]
    pub fn new(budget_w: f64) -> Self {
        assert!(budget_w > 0.0 && !budget_w.is_nan(), "bad site budget {budget_w}");
        Self {
            budget_w,
            committed_w: 0.0,
            peak_w: 0.0,
        }
    }

    /// A ledger with no site cap — what slack-budget campaigns run under.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::new(f64::INFINITY)
    }

    /// Would committing `w` more watts stay within the budget?
    #[must_use]
    pub fn fits(&self, w: f64) -> bool {
        self.committed_w + w <= self.budget_w + 1e-9
    }

    /// Commit `w` watts to a starting job.
    ///
    /// # Panics
    /// If the commitment would exceed the budget — callers must check
    /// [`SiteBudget::fits`] first; the ledger never overdrafts silently.
    pub fn commit(&mut self, w: f64) {
        assert!(self.fits(w), "site ledger overdraft: {} + {w} > {}", self.committed_w, self.budget_w);
        self.committed_w += w;
        self.peak_w = self.peak_w.max(self.committed_w);
    }

    /// Release `w` watts; the committed total clamps at zero, so float
    /// dust never goes negative.
    pub fn release(&mut self, w: f64) {
        self.committed_w = (self.committed_w - w).max(0.0);
    }

    /// Watts currently committed.
    #[must_use]
    pub fn committed_w(&self) -> f64 {
        self.committed_w
    }

    /// High-water mark of committed watts — the exact site peak.
    #[must_use]
    pub fn peak_w(&self) -> f64 {
        self.peak_w
    }

    /// The read-only snapshot policies observe.
    #[must_use]
    pub fn view(&self) -> SiteView {
        SiteView {
            budget_w: self.budget_w,
        }
    }
}

/// What the scheduling engine hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRun {
    /// Spans, peak and power-time integral over the whole site.
    pub outcome: ScheduleOutcome,
    /// Per-job `(runtime_s, power_w)` as decided before the loop, indexed
    /// like the `jobs` slice (by job id for a generated campaign).
    pub demand: Vec<(f64, f64)>,
    /// Partition each job ran on, indexed like `demand`.
    pub placement: Vec<usize>,
    /// Jobs that started away from their round-robin home partition.
    pub backfilled: usize,
}

/// One job's admission facts, gathered before the loop: the pending scan
/// is the hot path, and one compact record per job keeps it off the
/// `BatchJob`s.
struct Ask {
    arrival_s: f64,
    power_w: f64,
    runtime_s: f64,
    nodes: usize,
    home: usize,
}

struct Running {
    id: u64,
    start: f64,
    finish: f64,
    nodes: usize,
    power_w: f64,
    partition: usize,
}

/// Simulate `jobs` over every partition of `spec` under one site ledger.
///
/// Jobs keep their round-robin home (`id % partitions`) as the preferred
/// host but may backfill onto any partition with free nodes, free
/// partition watts and free site watts. Emits the `site.backfilled`
/// counter.
///
/// # Panics
/// If a job could never start (needs more nodes than a partition has,
/// or more watts than the partition/site budget allows) — the engine
/// detects the stall rather than spinning.
#[must_use]
pub fn run_site(spec: &CampaignSpec, jobs: &[BatchJob], policy: &dyn CapPolicy) -> SiteRun {
    let ledger = match spec.site_budget_w {
        Some(b) => SiteBudget::new(b),
        None => SiteBudget::unbounded(),
    };
    let run = simulate(&spec.scheduler(), spec.partitions, ledger, jobs, policy);
    trace::counter("site.backfilled", run.backfilled as u64);
    run
}

/// The scheduling event loop: `jobs` over `parts` partitions shaped like
/// `sched` (nodes, watts and cycle per partition), all drawing on
/// `ledger`. Admission stays quantised to the cycle, and the full pass
/// runs only at wakes where a finish is due or an arrival has passed.
///
/// # Panics
/// As [`Scheduler::job_demand_with`] for any job, if `parts == 0`, or if
/// the pending jobs can never start.
pub(crate) fn simulate(
    sched: &Scheduler,
    parts: usize,
    mut ledger: SiteBudget,
    jobs: &[BatchJob],
    policy: &dyn CapPolicy,
) -> SiteRun {
    assert!(parts > 0, "need at least one partition");
    let view = ledger.view();
    let asks: Vec<Ask> = jobs
        .iter()
        .map(|j| {
            let (runtime_s, power_w) = sched.job_demand_with(j, policy, &view);
            Ask {
                arrival_s: j.arrival_s,
                power_w,
                runtime_s,
                nodes: j.nodes,
                home: (j.id % parts as u64) as usize,
            }
        })
        .collect();
    let mut placement = vec![usize::MAX; jobs.len()];
    let mut backfilled = 0usize;
    let mut used_nodes = vec![0usize; parts];
    let mut used_w = vec![0.0f64; parts];

    // Arrival order: indices by (arrival, submission order). A cursor
    // walks it forward as arrivals pass, giving O(1) access to the next
    // arrival that could change the admission state.
    let mut arrival_order: Vec<usize> = (0..jobs.len()).collect();
    arrival_order.sort_by(|&a, &b| jobs[a].arrival_s.total_cmp(&jobs[b].arrival_s));
    let mut cursor = 0usize;

    let mut pending: Vec<usize> = (0..jobs.len()).collect();
    let mut running: Vec<Running> = Vec::new();
    let mut finishes: vpp_sim::EventQueue<u64> = vpp_sim::EventQueue::new();
    let mut spans: Vec<(u64, f64, f64)> = Vec::new();
    let mut t = 0.0;
    let mut power_time_integral = 0.0;
    let mut last_t = 0.0;
    let mut admit = true; // t = 0 is always an admission wake

    loop {
        if admit {
            // Retire due finishes (the queue delivers them in time
            // order; the running list keeps span bookkeeping).
            while finishes.next_before(t + 1e-9).is_some() {}
            running.retain(|r| {
                if r.finish <= t + 1e-9 {
                    spans.push((r.id, r.start, r.finish));
                    false
                } else {
                    true
                }
            });

            // Re-derive occupancy and the ledger as left-to-right sums
            // over `running`, never by releasing at finishes: with one
            // partition this is the polling oracle's arithmetic, so every
            // boundary-case admission decision stays bit-identical.
            used_nodes.fill(0);
            used_w.fill(0.0);
            ledger.release(ledger.committed_w());
            for r in &running {
                used_nodes[r.partition] += r.nodes;
                used_w[r.partition] += r.power_w;
                ledger.commit(r.power_w);
            }

            // Global backfill in submission (id) order: each arrived job
            // is offered its home partition first, then the others in
            // increasing index, wrapping — the only deterministic order
            // consistent with `(start, id)` tie-breaking.
            let mut kept = 0;
            for i in 0..pending.len() {
                let qi = pending[i];
                let ask = &asks[qi];
                let mut placed = false;
                if ask.arrival_s <= t + 1e-9 && ledger.fits(ask.power_w) {
                    let mut p = ask.home;
                    for _ in 0..parts {
                        if used_nodes[p] + ask.nodes <= sched.total_nodes
                            && used_w[p] + ask.power_w <= sched.power_budget_w + 1e-9
                        {
                            used_nodes[p] += ask.nodes;
                            used_w[p] += ask.power_w;
                            ledger.commit(ask.power_w);
                            placement[qi] = p;
                            backfilled += usize::from(p != ask.home);
                            let id = jobs[qi].id;
                            finishes.schedule(t + ask.runtime_s, id);
                            running.push(Running {
                                id,
                                start: t,
                                finish: t + ask.runtime_s,
                                nodes: ask.nodes,
                                power_w: ask.power_w,
                                partition: p,
                            });
                            placed = true;
                            break;
                        }
                        p = if p + 1 == parts { 0 } else { p + 1 };
                    }
                }
                if !placed {
                    pending[kept] = qi;
                    kept += 1;
                }
            }
            pending.truncate(kept);

            // Arrivals at or before this wake have been offered
            // admission; only later ones can change the state.
            while cursor < arrival_order.len() && jobs[arrival_order[cursor]].arrival_s <= t + 1e-9
            {
                cursor += 1;
            }
        }

        power_time_integral += ledger.committed_w() * (t - last_t).max(0.0);
        last_t = t;

        if pending.is_empty() && running.is_empty() {
            break;
        }

        // Advance: next cycle boundary, next finish, or — when idle —
        // the next arrival, whichever comes first.
        let next_finish = finishes.earliest_time().unwrap_or(f64::INFINITY);
        let next_arrival = if cursor < arrival_order.len() {
            jobs[arrival_order[cursor]].arrival_s
        } else {
            f64::INFINITY
        };
        assert!(
            !(running.is_empty() && next_arrival.is_infinite()),
            "scheduler stalled: {} job(s) can never start under the \
             partition/site budgets",
            pending.len()
        );
        let mut next = t + sched.cycle_s;
        if next_finish < next {
            next = next_finish;
        }
        if running.is_empty() && next_arrival > next {
            next = next_arrival;
        }
        t = next;
        assert!(t.is_finite(), "scheduler stalled: no running jobs advance");
        admit = next_finish <= t + 1e-9 || next_arrival <= t + 1e-9;
    }

    SiteRun {
        outcome: finalise(spans, ledger.peak_w(), power_time_integral),
        demand: asks.iter().map(|a| (a.runtime_s, a.power_w)).collect(),
        placement,
        backfilled,
    }
}

/// Sort spans by `(start, id)`, derive the makespan and assemble the
/// outcome.
fn finalise(
    mut spans: Vec<(u64, f64, f64)>,
    peak: f64,
    power_time_integral: f64,
) -> ScheduleOutcome {
    spans.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let makespan = spans.iter().map(|s| s.2).fold(0.0, f64::max);
    ScheduleOutcome {
        makespan_s: makespan,
        mean_power_w: if makespan > 0.0 {
            power_time_integral / makespan
        } else {
            0.0
        },
        peak_power_w: peak,
        job_spans: spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ClassAware, Uncapped};
    use crate::scheduler::{CapResponse, WorkloadClass};

    fn ledger_job(id: u64, nodes: usize, rt: f64, arrival: f64) -> BatchJob {
        BatchJob {
            id,
            name: format!("j{id}"),
            class: WorkloadClass::PowerHungry,
            nodes,
            base_runtime_s: rt,
            response: CapResponse::new(vec![
                (100.0, 0.40, 900.0),
                (200.0, 0.91, 1300.0),
                (300.0, 1.00, 1750.0),
                (400.0, 1.00, 1810.0),
            ]),
            arrival_s: arrival,
        }
    }

    fn two_partition_spec(site_budget_w: Option<f64>) -> CampaignSpec {
        CampaignSpec {
            partitions: 2,
            nodes_per_partition: 4,
            partition_budget_w: 20_000.0,
            site_budget_w,
            ..CampaignSpec::new(0, 1)
        }
    }

    #[test]
    fn ledger_tracks_commit_release_and_peak() {
        let mut b = SiteBudget::new(5000.0);
        assert!(b.fits(5000.0));
        b.commit(3000.0);
        b.commit(1500.0);
        assert!(!b.fits(1000.0));
        assert!((b.committed_w() - 4500.0).abs() < 1e-9);
        b.release(3000.0);
        b.commit(2000.0);
        assert!((b.peak_w() - 4500.0).abs() < 1e-9, "peak is the high-water mark");
        assert!((b.view().budget_w - b.committed_w() - 1500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "overdraft")]
    fn ledger_refuses_overdraft() {
        let mut b = SiteBudget::new(1000.0);
        b.commit(1500.0);
    }

    #[test]
    fn backfill_moves_a_blocked_job_across_partitions() {
        // Home routing sends both jobs to partition 1 (odd ids); its 4
        // nodes only hold one of them, so the second must backfill onto
        // the empty partition 0 instead of queueing.
        let spec = two_partition_spec(None);
        let jobs = vec![ledger_job(1, 3, 600.0, 0.0), ledger_job(3, 3, 600.0, 0.0)];
        let run = run_site(&spec, &jobs, &Uncapped);
        assert_eq!(run.backfilled, 1);
        assert_eq!(run.placement, vec![1, 0]);
        // Both start at t = 0: backfill admits what round-robin could not.
        assert!(run.outcome.job_spans.iter().all(|s| s.1 == 0.0));
    }

    #[test]
    fn site_budget_serialises_what_nodes_would_admit() {
        // Two 1810 W/node jobs fit the nodes and partition budgets
        // simultaneously, but a 6 kW site budget holds only one at a
        // time: the second waits for the first's release.
        let spec = two_partition_spec(Some(6000.0));
        let jobs = vec![ledger_job(0, 3, 600.0, 0.0), ledger_job(1, 3, 600.0, 0.0)];
        let run = run_site(&spec, &jobs, &Uncapped);
        assert!(run.outcome.peak_power_w <= 6000.0 + 1e-6);
        let spans = &run.outcome.job_spans;
        assert_eq!(spans.len(), 2);
        assert!(spans[1].1 >= spans[0].2 - 1e-9, "second starts after first finishes");
    }

    #[test]
    fn capping_relieves_site_pressure() {
        // Same tight site budget: ClassAware's 200 W caps (1300 W/node)
        // let both jobs run at once where Uncapped serialised.
        let spec = two_partition_spec(Some(8000.0));
        let jobs = vec![ledger_job(0, 3, 600.0, 0.0), ledger_job(1, 3, 600.0, 0.0)];
        let capped = run_site(&spec, &jobs, &ClassAware);
        let base = run_site(&spec, &jobs, &Uncapped);
        assert!(capped.outcome.makespan_s < base.outcome.makespan_s);
        assert!(capped.outcome.peak_power_w <= 8000.0 + 1e-6);
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn impossible_site_budget_panics_instead_of_spinning() {
        let spec = two_partition_spec(Some(2000.0));
        let jobs = vec![ledger_job(0, 3, 600.0, 0.0)];
        let _ = run_site(&spec, &jobs, &Uncapped);
    }
}
