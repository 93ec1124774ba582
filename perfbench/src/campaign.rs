//! `campaign_site` and `campaign_sharded`: the power-aware campaign
//! scheduler through `campaign::run`, with and without a site budget.

use crate::measure::{
    end_to_end, median, run_passes, stage_sum_check, timed, Digest, Metrics, Outcome, Pass, SetupTimer,
};
use crate::Scale;
use std::time::Instant;
use vasp_power_profiles::powercap::campaign::{
    self, baseline_policies, contention_policies, CampaignOutcome, CampaignSpec,
    CONTENTION_BUDGET_FRACTION,
};
use vasp_power_profiles::powercap::site::{self, SiteBudget};
use vasp_power_profiles::powercap::{BatchJob, CapPolicy, SiteView};
use vasp_power_profiles::substrate::par_map;

type Policies = Vec<(&'static str, &'static dyn CapPolicy)>;

/// Which of the two campaign workloads runs.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// Site budget at 60 % of the summed envelope, all four policies:
    /// one global-backfill event loop per policy.
    Site,
    /// No site budget, the default three policies: per-partition
    /// schedulers on the pool, one shard per partition.
    Sharded,
}

impl Mode {
    fn jobs(self, scale: Scale) -> usize {
        match (self, scale) {
            (Mode::Site, Scale::Full) => 8_000,
            (Mode::Site, Scale::Small) => 800,
            (Mode::Sharded, Scale::Full) => 50_000,
            (Mode::Sharded, Scale::Small) => 5_000,
        }
    }

    fn spec(self, jobs: usize, seed: u64) -> CampaignSpec {
        let base = CampaignSpec::new(jobs, seed);
        match self {
            Mode::Site => CampaignSpec {
                site_budget_w: Some(CONTENTION_BUDGET_FRACTION * base.summed_budget_w()),
                ..base
            },
            Mode::Sharded => base,
        }
    }

    fn policies(self) -> Policies {
        match self {
            Mode::Site => contention_policies().to_vec(),
            Mode::Sharded => baseline_policies().to_vec(),
        }
    }

    /// Per-policy run-time metric prefix.
    fn run_metric(self) -> &'static str {
        match self {
            Mode::Site => "powercap.site_run_s",
            Mode::Sharded => "powercap.campaign_run_s",
        }
    }
}

/// The watts a campaign's merged peak must stay under.
fn budget_w(spec: &CampaignSpec) -> f64 {
    spec.site_budget_w.unwrap_or_else(|| spec.summed_budget_w())
}

/// Every generated job completes exactly once, and the peak stays
/// within the budget.
fn check(spec: &CampaignSpec, out: &CampaignOutcome, name: &str) -> Result<(), String> {
    let mut ids: Vec<u64> = out.merged.job_spans.iter().map(|s| s.0).collect();
    ids.sort_unstable();
    if ids.len() != spec.jobs || ids.iter().enumerate().any(|(i, &id)| id != i as u64) {
        return Err(format!(
            "{name}: {} spans for {} jobs, not each job exactly once",
            ids.len(),
            spec.jobs
        ));
    }
    let over = out.merged.peak_power_w / budget_w(spec);
    if over > 1.0 + 1e-9 {
        return Err(format!("{name}: peak is {over:.4} of the budget"));
    }
    Ok(())
}

/// Per-policy results of one pass, kept for the traced run's counts.
struct PolicyRun {
    name: &'static str,
    run_s: f64,
    outcome: CampaignOutcome,
}

/// One pass: one `campaign::run` per policy, in sequence. Each run
/// generates the job mix from the spec itself.
fn pass(spec: &CampaignSpec, policies: &Policies) -> (Pass, Vec<PolicyRun>) {
    let start = Instant::now();
    let mut p = Pass::default();
    let mut runs = Vec::with_capacity(policies.len());
    for &(name, policy) in policies {
        let (run_s, outcome) = timed(|| campaign::run(spec, policy, spec.partitions));
        p.attempted += 1;
        if let Err(e) = check(spec, &outcome, name) {
            eprintln!("[campaign check failed: {e}]");
            p.failed += 1;
        }
        p.latency_s.push(run_s);
        p.rtt_s.push(start.elapsed().as_secs_f64());
        runs.push(PolicyRun {
            name,
            run_s,
            outcome,
        });
    }
    p.wall_s = start.elapsed().as_secs_f64();
    (p, runs)
}

/// How the decomposed stages compared with `campaign::run`.
struct StageSum {
    /// One generation, to check against the set-up's job mix.
    generated: Vec<BatchJob>,
    /// Each policy's replica reproduced its `campaign::run` outcome.
    matches_run: bool,
    /// The stage timers add up to the `campaign::run` calls.
    sum_ok: bool,
}

/// The stages `campaign::run` is made of, each under its own timer:
/// generation, then scheduling the generated jobs (site: `run_site`;
/// sharded: per-partition `Scheduler::run_with` on the pool, one shard per
/// partition, and every job's demand). Per policy, `campaign::run` is
/// timed again right before its stages, so host drift hits both alike;
/// the stages must add up to those calls (the untimed rest is the summary
/// and merge), and each replica must reproduce the call's outcome.
fn stage_sum(
    mode: Mode,
    spec: &CampaignSpec,
    policies: &Policies,
    traced: &[PolicyRun],
    m: &mut Metrics,
) -> StageSum {
    let sched = spec.scheduler();
    let (mut calls_s, mut stages_s, mut generate_s) = (0.0, 0.0, Vec::new());
    let mut matches_run = true;
    let mut generated = Vec::new();
    for &(name, policy) in policies {
        let (run_s, outcome) = timed(|| campaign::run(spec, policy, spec.partitions));
        let (gen_s, jobs) = timed(|| spec.generate());
        let (sched_s, (makespan_s, backfilled)) = timed(|| match mode {
            Mode::Site => {
                let sr = site::run_site(spec, &jobs, policy);
                (sr.outcome.makespan_s, sr.backfilled)
            }
            Mode::Sharded => {
                let mut queues: Vec<Vec<BatchJob>> = vec![Vec::new(); spec.partitions];
                for j in &jobs {
                    queues[(j.id % spec.partitions as u64) as usize].push(j.clone());
                }
                let outs = par_map(queues, |q| sched.run_with(&q, policy));
                let slack = SiteView::slack();
                let demand: Vec<(f64, f64)> = jobs
                    .iter()
                    .map(|j| sched.job_demand_with(j, policy, &slack))
                    .collect();
                std::hint::black_box(demand);
                (outs.iter().map(|o| o.makespan_s).fold(0.0, f64::max), 0)
            }
        });
        calls_s += run_s;
        stages_s += gen_s + sched_s;
        generate_s.push(gen_s);
        let same = makespan_s.to_bits() == outcome.merged.makespan_s.to_bits()
            && backfilled == outcome.backfilled
            && traced
                .iter()
                .find(|r| r.name == name)
                .is_some_and(|r| r.outcome.merged.makespan_s == makespan_s);
        if !same {
            eprintln!("[campaign {name}: the stage replica's outcome differs from campaign::run]");
            matches_run = false;
        }
        generated = jobs;
    }
    m.insert("powercap.generate_s".into(), median(&generate_s));
    let sum_ok = stage_sum_check(m, "campaign stages vs campaign::run", stages_s, calls_s);
    StageSum {
        generated,
        matches_run,
        sum_ok,
    }
}

pub fn run(mode: Mode, seed: u64, seconds: f64, traced: bool, scale: Scale) -> Outcome {
    let n_jobs = mode.jobs(scale);
    // The inputs: the spec, the policies and the seeded job mix the spec
    // generates (`campaign::run` regenerates it inside each timed run).
    let (mut setup, (spec, policies, jobs)) = SetupTimer::start(|| {
        let spec = mode.spec(n_jobs, seed);
        let jobs = spec.generate();
        (spec, mode.policies(), jobs)
    });
    let mut input = Digest::default();
    for job in &jobs {
        input.add(job.name.as_bytes());
        input.add(&job.arrival_s.to_le_bytes());
    }

    if !traced {
        let passes = run_passes(
            seconds,
            || pass(&spec, &policies).0,
            || setup.after_pass(),
        );
        let (attempted, failed, metrics) = end_to_end(setup.median_s(), &passes);
        return Outcome {
            attempted,
            failed,
            metrics,
            input_digest: input.0,
        };
    }

    let mut m = Metrics::new();
    let (untraced, _) = pass(&spec, &policies);
    let (traced_pass, runs) = pass(&spec, &policies);
    m.insert(
        "bench.trace_overhead".into(),
        traced_pass.wall_s / untraced.wall_s,
    );
    let mut peak_over: f64 = 0.0;
    for r in &runs {
        m.insert(format!("{}.{}", mode.run_metric(), r.name), r.run_s);
        m.insert(
            format!("powercap.backfilled.{}", r.name),
            r.outcome.backfilled as f64,
        );
        m.insert(
            format!("powercap.sim_makespan_h.{}", r.name),
            r.outcome.merged.makespan_s / 3600.0,
        );
        peak_over = peak_over.max(r.outcome.merged.peak_power_w / budget_w(&spec));
    }
    m.insert("powercap.peak_over_budget".into(), peak_over);
    let runs_s: f64 = runs.iter().map(|r| r.run_s).sum();
    let stages = stage_sum(mode, &spec, &policies, &runs, &mut m);

    // Cost growth with campaign size: the same policies at a quarter of
    // the jobs.
    let quarter = mode.spec(n_jobs / 4, seed);
    let (quarter_s, ()) = timed(|| {
        for &(_, policy) in &policies {
            std::hint::black_box(campaign::run(&quarter, policy, quarter.partitions));
        }
    });
    m.insert(
        "powercap.scaling_exponent".into(),
        (runs_s / quarter_s).ln() / 4f64.ln(),
    );

    match mode {
        Mode::Site => {
            // Policy cost alone: every job's demand under an empty ledger.
            let sched = spec.scheduler();
            let view = SiteBudget::new(budget_w(&spec)).view();
            for &(name, policy) in &policies {
                let (s, total) = timed(|| {
                    jobs.iter()
                        .map(|j| sched.job_demand_with(j, policy, &view).1)
                        .sum::<f64>()
                });
                std::hint::black_box(total);
                m.insert(format!("powercap.policy_demand_s.{name}"), s);
            }
        }
        Mode::Sharded => {
            let (name, policy) = policies[0];
            let (one_shard_s, out) = timed(|| campaign::run(&spec, policy, 1));
            std::hint::black_box(out);
            let pooled_s = runs
                .iter()
                .find(|r| r.name == name)
                .map_or(f64::NAN, |r| r.run_s);
            m.insert("powercap.shard_speedup".into(), one_shard_s / pooled_s);
        }
    }

    let regenerated_same = stages.generated.len() == jobs.len()
        && stages.generated.iter().zip(&jobs).all(|(a, b)| a.name == b.name);
    let attempted = untraced.attempted + traced_pass.attempted + 3;
    let failed = untraced.failed
        + traced_pass.failed
        + u64::from(!stages.matches_run)
        + u64::from(!stages.sum_ok)
        + u64::from(!regenerated_same);
    m.insert("error_share".into(), failed as f64 / attempted as f64);
    Outcome {
        attempted,
        failed,
        metrics: m,
        input_digest: input.0,
    }
}
