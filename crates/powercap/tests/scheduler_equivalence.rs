//! Differential equivalence: the event-driven scheduler versus the
//! retained polling reference (`polling/mod.rs`) on random queues.
//!
//! The event-driven rewrite claims *observational identity*, not mere
//! approximation: admission stays quantised to cycle boundaries and the
//! power sums reuse the polling loop's left-to-right arithmetic, so the
//! whole `ScheduleOutcome` — admission order, spans, peak power and the
//! power-time integral — must compare equal with `==`. Every shipped
//! policy is drawn, `TcoAware` with random tariffs.

mod polling;

use polling::run_polling;
use vpp_powercap::policy::{ClassAware, FixedCap, SweetSpot, Uncapped};
use vpp_powercap::{BatchJob, CapPolicy, CapResponse, Scheduler, TcoAware, TcoPrices, WorkloadClass};
use vpp_substrate::prop::usize_in;
use vpp_substrate::properties;
use vpp_substrate::Rng;

/// A random but well-formed cap response: strictly increasing caps,
/// monotone-ish perf, rising node power.
fn random_response(rng: &mut Rng) -> CapResponse {
    let n = usize_in(rng, 1, 6);
    let mut cap = rng.uniform(80.0, 150.0);
    let mut perf = rng.uniform(0.3, 0.7);
    let mut power = rng.uniform(400.0, 900.0);
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        points.push((cap, perf.min(1.0), power));
        cap += rng.uniform(20.0, 120.0);
        perf += rng.uniform(0.0, 0.4);
        power += rng.uniform(10.0, 400.0);
    }
    CapResponse::new(points)
}

fn random_policy(rng: &mut Rng) -> Box<dyn CapPolicy> {
    match rng.index(5) {
        0 => Box::new(Uncapped),
        1 => Box::new(FixedCap(rng.uniform(90.0, 400.0))),
        2 => Box::new(ClassAware),
        3 => Box::new(SweetSpot),
        _ => Box::new(TcoAware {
            prices: TcoPrices {
                energy_usd_per_kwh: rng.uniform(0.0, 0.5),
                node_hour_usd: rng.uniform(0.0, 5.0),
            },
        }),
    }
}

fn random_queue(rng: &mut Rng, total_nodes: usize) -> Vec<BatchJob> {
    let n = usize_in(rng, 0, 25);
    let classes = [
        WorkloadClass::PowerHungry,
        WorkloadClass::Moderate,
        WorkloadClass::Light,
        WorkloadClass::Unknown,
    ];
    (0..n as u64)
        .map(|id| {
            // A burst of identical arrivals every few jobs exercises the
            // FIFO tie-break inside one admission pass.
            let arrival = if rng.bool(0.3) {
                (id / 3) as f64 * rng.uniform(0.0, 200.0)
            } else {
                rng.uniform(0.0, 600.0)
            };
            BatchJob {
                id,
                name: format!("j{id}"),
                class: classes[rng.index(classes.len())],
                nodes: usize_in(rng, 1, total_nodes + 1),
                base_runtime_s: rng.uniform(5.0, 900.0),
                response: random_response(rng),
                arrival_s: arrival,
            }
        })
        .collect()
}

properties! {
    fn event_driven_run_equals_polling_reference(rng) {
        let total_nodes = usize_in(rng, 1, 13);
        let queue = random_queue(rng, total_nodes);
        // Budget at least the hungriest single job, so every job can run.
        let max_single = queue
            .iter()
            .map(|j| j.response.uncapped().1 * j.nodes as f64)
            .fold(0.0f64, f64::max)
            .max(1.0);
        let mut sched = Scheduler::new(total_nodes, max_single * rng.uniform(1.0, 3.0));
        sched.cycle_s = rng.uniform(5.0, 60.0);
        let policy = random_policy(rng);
        let fast = sched.run_with(&queue, policy.as_ref());
        let slow = run_polling(&sched, &queue, policy.as_ref());
        assert_eq!(fast, slow, "{} diverged on {} jobs", policy.name(), queue.len());
        assert_eq!(fast.job_spans.len(), queue.len(), "every job must finish");
    }
}

/// A VASP-like cap response: 300 W free, 200 W ≈ 9 % loss, 100 W dire.
fn hungry_response() -> CapResponse {
    CapResponse::new(vec![
        (100.0, 0.40, 900.0),
        (200.0, 0.91, 1300.0),
        (300.0, 1.00, 1750.0),
        (400.0, 1.00, 1810.0),
    ])
}

#[test]
fn event_driven_run_matches_polling_reference() {
    let s = Scheduler::new(8, 4000.0);
    let queue: Vec<BatchJob> = (0..6)
        .map(|i| BatchJob {
            id: i,
            name: format!("job{i}"),
            class: WorkloadClass::PowerHungry,
            nodes: 1 + (i as usize % 2),
            base_runtime_s: 400.0,
            response: hungry_response(),
            arrival_s: i as f64 * 90.0,
        })
        .collect();
    let policies: [&dyn CapPolicy; 4] = [&Uncapped, &FixedCap(200.0), &ClassAware, &SweetSpot];
    for policy in policies {
        assert_eq!(
            s.run_with(&queue, policy),
            run_polling(&s, &queue, policy),
            "{}",
            policy.name()
        );
    }
}
