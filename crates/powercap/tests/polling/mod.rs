//! The superseded fixed-cycle polling engine, kept as the semantic
//! reference for [`Scheduler::run_with`]: the `scheduler_equivalence`
//! suite runs both on random queues and demands identical
//! [`ScheduleOutcome`]s — admission order, spans, peak and integral.
//!
//! Shared test support: include it with `mod polling;`.

use vpp_powercap::policy::SiteView;
use vpp_powercap::{BatchJob, CapPolicy, ScheduleOutcome, Scheduler};

struct Running {
    id: u64,
    start: f64,
    finish: f64,
    nodes: usize,
    power_w: f64,
}

/// Simulate the queue under `policy` with the original polling loop:
/// every wake rescans `running` and `pending` in full.
///
/// # Panics
/// As [`Scheduler::job_demand_with`], for any job in the queue.
#[must_use]
pub fn run_polling(
    sched: &Scheduler,
    queue: &[BatchJob],
    policy: &dyn CapPolicy,
) -> ScheduleOutcome {
    let site = SiteView::slack();
    let demands: Vec<(f64, f64)> = queue
        .iter()
        .map(|j| sched.job_demand_with(j, policy, &site))
        .collect();

    let mut pending: Vec<usize> = (0..queue.len()).collect();
    let mut running: Vec<Running> = Vec::new();
    let mut spans: Vec<(u64, f64, f64)> = Vec::new();
    let mut t = 0.0;
    let mut peak = 0.0f64;
    let mut power_time_integral = 0.0;
    let mut last_t = 0.0;

    while !pending.is_empty() || !running.is_empty() {
        // Retire finished jobs.
        running.retain(|r| {
            if r.finish <= t + 1e-9 {
                spans.push((r.id, r.start, r.finish));
                false
            } else {
                true
            }
        });

        // FIFO admission with backfill: start every *arrived* queued
        // job that fits in free nodes and free power this cycle.
        let mut used_nodes: usize = running.iter().map(|r| r.nodes).sum();
        let mut used_power: f64 = running.iter().map(|r| r.power_w).sum();
        pending.retain(|&qi| {
            let job = &queue[qi];
            let (runtime, power) = demands[qi];
            if job.arrival_s <= t + 1e-9
                && used_nodes + job.nodes <= sched.total_nodes
                && used_power + power <= sched.power_budget_w + 1e-9
            {
                used_nodes += job.nodes;
                used_power += power;
                running.push(Running {
                    id: job.id,
                    start: t,
                    finish: t + runtime,
                    nodes: job.nodes,
                    power_w: power,
                });
                false
            } else {
                true
            }
        });

        peak = peak.max(used_power);
        power_time_integral += used_power * (t - last_t).max(0.0);
        last_t = t;

        if pending.is_empty() && running.is_empty() {
            break;
        }

        // Advance: next cycle boundary, next finish, or — when idle —
        // the next arrival, whichever comes first.
        let next_finish = running
            .iter()
            .map(|r| r.finish)
            .fold(f64::INFINITY, f64::min);
        let next_arrival = pending
            .iter()
            .map(|&qi| queue[qi].arrival_s)
            .fold(f64::INFINITY, f64::min);
        let mut next = t + sched.cycle_s;
        if next_finish < next {
            next = next_finish;
        }
        if running.is_empty() && next_arrival > next {
            next = next_arrival;
        }
        t = next;
        assert!(t.is_finite(), "scheduler stalled: no running jobs advance");
    }

    // Account for the last stretch.
    power_time_integral += running.iter().map(|r| r.power_w).sum::<f64>() * (t - last_t).max(0.0);

    // Sort spans by (start, id) and derive the makespan.
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
