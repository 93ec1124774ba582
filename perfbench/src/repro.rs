//! `repro_full`: every `repro` section at the paper's study context,
//! fanned out on the substrate pool the way `src/bin/repro.rs` does.

use crate::measure::{
    end_to_end, run_passes, stage_sum_check, timed, Digest, Metrics, Outcome, Pass, SetupTimer,
};
use crate::Scale;
use std::time::Instant;
use vasp_power_profiles::cluster::{execute, JobResult, JobSpec};
use vasp_power_profiles::core::benchmarks::{suite, Benchmark};
use vasp_power_profiles::core::experiments::{
    capping, fig01, fig02, fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig12,
    fig13, predict_eval, scaling, table1,
};
use vasp_power_profiles::core::flight;
use vasp_power_profiles::core::protocol::{self, RunConfig, StudyContext};
use vasp_power_profiles::dft::{build_plan, ParallelLayout};
use vasp_power_profiles::powercap::campaign;
use vasp_power_profiles::stats::PowerSummary;
use vasp_power_profiles::substrate::{par_map, pool};
use vasp_power_profiles::telemetry::{quarantine, QualityConfig, RawSeries, Sampler};

/// Rendered text and CSV of each figure one section produces.
type Rendered = Vec<(String, String)>;
type Section = (&'static str, Box<dyn Fn() -> Rendered + Send + Sync>);

/// The sections of a full `repro` run, in its canonical output order.
fn sections(ctx: StudyContext) -> Vec<Section> {
    fn one<R: std::fmt::Display>(r: &R, csv: String) -> Rendered {
        vec![(r.to_string(), csv)]
    }
    vec![
        (
            "table1",
            Box::new(|| {
                let r = table1::run();
                one(&r, r.csv())
            }),
        ),
        (
            "fig1",
            Box::new(move || {
                let r = fig01::run(&ctx);
                one(&r, r.csv())
            }),
        ),
        (
            "fig2",
            Box::new(move || {
                let r = fig02::run(&ctx);
                one(&r, r.csv())
            }),
        ),
        (
            "fig3",
            Box::new(move || {
                let r = fig03::run(&ctx);
                one(&r, r.csv())
            }),
        ),
        (
            "fig4_fig5",
            Box::new(move || {
                let data = scaling::measure_suite(&suite(), &scaling::NODE_COUNTS, &ctx);
                let f4 = fig04::from_scaling(&data, &scaling::NODE_COUNTS);
                let f5 = fig05::from_scaling(&data, &scaling::NODE_COUNTS);
                vec![(f4.to_string(), f4.csv()), (f5.to_string(), f5.csv())]
            }),
        ),
        (
            "fig6",
            Box::new(move || {
                let r = fig06::run(&ctx);
                one(&r, r.csv())
            }),
        ),
        (
            "fig7",
            Box::new(move || {
                let r = fig07::run(&ctx);
                one(&r, r.csv())
            }),
        ),
        (
            "fig8",
            Box::new(move || {
                let r = fig08::run(&ctx);
                one(&r, r.csv())
            }),
        ),
        (
            "fig9",
            Box::new(move || {
                let r = fig09::run(&ctx);
                one(&r, r.csv())
            }),
        ),
        (
            "fig10_fig12",
            Box::new(move || {
                let data = capping::measure_caps(&suite(), &ctx);
                let f10 = fig10::from_caps(&data);
                let f12 = fig12::from_caps(&data);
                vec![(f10.to_string(), f10.csv()), (f12.to_string(), f12.csv())]
            }),
        ),
        (
            "fig11",
            Box::new(move || {
                let r = fig11::run(&ctx);
                one(&r, r.csv())
            }),
        ),
        (
            "predict",
            Box::new(move || {
                let r = predict_eval::run(&ctx);
                one(&r, r.csv())
            }),
        ),
        (
            "fig13",
            Box::new(move || {
                let r = fig13::run(&ctx);
                one(&r, r.csv())
            }),
        ),
        (
            "phase_energy",
            Box::new(move || {
                let r = flight::phase_energy(&ctx);
                one(&r, r.csv())
            }),
        ),
        (
            "campaign_contention",
            Box::new(|| {
                let r = campaign::contention_report();
                one(&r, r.csv())
            }),
        ),
    ]
}

/// Names of the `repro_full` sections, in output order.
#[must_use]
pub fn section_names() -> Vec<&'static str> {
    sections(StudyContext::paper())
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

/// The study context a seed selects: the paper's, with its base seed
/// drawn from the benchmark seed. The reduced scale keeps one repeat.
fn context(seed: u64, scale: Scale) -> StudyContext {
    let base = match scale {
        Scale::Full => StudyContext::paper(),
        Scale::Small => StudyContext::single(),
    };
    StudyContext {
        base_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ base.base_seed,
        ..base
    }
}

/// Fold one section's output into `digest`, returning false when the
/// section rendered nothing.
fn absorb(digest: &mut Digest, out: &Rendered) -> bool {
    let mut rendered = !out.is_empty();
    for (body, csv) in out {
        rendered &= !body.trim().is_empty() && csv.lines().count() > 1;
        digest.add(body.as_bytes());
        digest.add(csv.as_bytes());
    }
    rendered
}

/// One pooled pass: every section on the substrate pool. Latency is each
/// section's own run time on its worker. `repro` prints its sections in
/// canonical order once the last one finishes, so every section's round
/// trip is the pass wall.
fn pooled_pass(sections: &[Section]) -> (Pass, u64) {
    let start = Instant::now();
    let results = par_map((0..sections.len()).collect(), |i| {
        let (latency, out) = timed(|| (sections[i].1)());
        (out, latency)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut pass = Pass {
        wall_s,
        ..Pass::default()
    };
    let mut digest = Digest::default();
    for ((out, latency), (name, _)) in results.iter().zip(sections) {
        pass.attempted += 1;
        if !absorb(&mut digest, out) {
            eprintln!("[repro_full: section {name} rendered nothing]");
            pass.failed += 1;
        }
        pass.latency_s.push(*latency);
        pass.rtt_s.push(wall_s);
    }
    (pass, digest.0)
}

/// Mark passes whose output differs from the first pass's as failed.
fn check_digests(passes: &mut [Pass], digests: &[u64]) {
    for (pass, d) in passes.iter_mut().zip(digests) {
        pass.attempted += 1;
        if *d != digests[0] {
            eprintln!(
                "[repro_full: output digest {d:016x} != {:016x}]",
                digests[0]
            );
            pass.failed += 1;
        }
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool, scale: Scale) -> Outcome {
    let (mut setup, (ctx, secs)) = SetupTimer::start(|| {
        let ctx = context(seed, scale);
        (ctx, sections(ctx))
    });
    let mut input = Digest::default();
    input.add(&ctx.base_seed.to_le_bytes());

    if !traced {
        let mut digests = Vec::new();
        let mut passes = run_passes(
            seconds,
            || {
                let (pass, d) = pooled_pass(&secs);
                digests.push(d);
                pass
            },
            || setup.after_pass(),
        );
        check_digests(&mut passes, &digests);
        eprintln!("[repro_full output digest {:016x}]", digests[0]);
        let (attempted, failed, metrics) = end_to_end(setup.median_s(), &passes);
        return Outcome {
            attempted,
            failed,
            metrics,
            input_digest: input.0,
        };
    }

    let mut m = Metrics::new();
    let (untraced, d0) = pooled_pass(&secs);
    let (pooled, d1) = pooled_pass(&secs);
    m.insert(
        "bench.trace_overhead".into(),
        pooled.wall_s / untraced.wall_s,
    );

    // Serial pass: each section alone, its inner sweeps kept on this
    // thread exactly as on a pool worker.
    // The sections are the only work in it, so their times sum to its
    // wall by construction; the stage-sum check is the protocol one below.
    let mut serial_digest = Digest::default();
    let mut serial_sum = 0.0;
    let mut critical: f64 = 0.0;
    let mut rendered = 0;
    for (name, section) in &secs {
        let (s, out) = timed(|| pool::serial(section));
        rendered += u64::from(absorb(&mut serial_digest, &out));
        m.insert(format!("core.section_s.{name}"), s);
        serial_sum += s;
        critical = critical.max(s);
    }
    m.insert("core.critical_section_s".into(), critical);
    m.insert("substrate.pool.speedup".into(), serial_sum / pooled.wall_s);

    let stages = protocol_stages(&ctx, &mut m);

    let attempted = untraced.attempted + pooled.attempted + secs.len() as u64 + 3;
    let mut failed = untraced.failed + pooled.failed + (secs.len() as u64 - rendered);
    failed += u64::from(!(d0 == d1 && d1 == serial_digest.0));
    failed += u64::from(!stages.matches_measure);
    failed += u64::from(!stages.sum_ok);
    m.insert("error_share".into(), failed as f64 / attempted as f64);
    Outcome {
        attempted,
        failed,
        metrics: m,
        input_digest: input.0,
    }
}

/// How the protocol stages compared with `protocol::measure` itself.
struct StageCheck {
    /// Each replica picked the same best repeat as `protocol::measure`.
    matches_measure: bool,
    /// The stage timers add up to the timed `protocol::measure` calls.
    sum_ok: bool,
}

/// One pass over the suite at the scaling node counts through the stages
/// `protocol::measure` calls, each wrapped in its own timer: plan, the
/// repeats' executions, sampling, the quarantine screen, the summaries.
/// After each configuration's stages, `protocol::measure` runs on the same
/// configuration under one timer of its own (serially, as the stages do);
/// the stage timers must add up to those calls, which catches work the
/// stages miss, and each replica must pick the same best repeat.
fn protocol_stages(ctx: &StudyContext, m: &mut Metrics) -> StageCheck {
    let (mut plan_s, mut exec_s, mut sample_s, mut quarantine_s, mut summary_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut executions, mut sim_s, mut samples) = (0u64, 0.0, 0usize);
    let (mut measure_s, mut matches_measure) = (0.0, true);
    let benches: Vec<Benchmark> = suite();
    for bench in &benches {
        for &nodes in &scaling::NODE_COUNTS {
            let mut cfg = RunConfig::nodes(nodes);
            cfg.seed_salt = 0x5CA1_0000 + nodes as u64;
            let (s, plan) =
                timed(|| build_plan(&bench.params(), &ParallelLayout::nodes(nodes), &ctx.cost));
            plan_s += s;
            let mut best = None;
            for rep in 0..ctx.repeats.max(1) {
                let spec = JobSpec {
                    nodes,
                    gpu_power_cap_w: None,
                    seed: ctx
                        .base_seed
                        .wrapping_add(cfg.seed_salt.wrapping_mul(0x9E37_79B9))
                        .wrapping_add(rep as u64 * 0x1000_0001),
                    start_s: 0.0,
                    init_host_s: 6.0,
                    straggler: None,
                    os_jitter: 0.0,
                    phase_slowdown: None,
                    collective_slowdown: None,
                };
                let (s, result) = timed(|| execute(&plan, &spec, &ctx.network));
                exec_s += s;
                executions += 1;
                sim_s += result.runtime_s;
                if best
                    .as_ref()
                    .is_none_or(|b: &JobResult| result.runtime_s < b.runtime_s)
                {
                    best = Some(result);
                }
            }
            let best = best.expect("at least one repeat");
            let sampler = if best.runtime_s < 64.0 * ctx.sampler.interval_s {
                Sampler::ideal((best.runtime_s / 64.0).max(0.1))
            } else {
                ctx.sampler
            };
            let (s, (node, gpu)) = timed(|| {
                (
                    sampler.sample(&best.node_traces[0].node),
                    sampler.sample(&best.node_traces[0].gpus[0]),
                )
            });
            sample_s += s;
            samples += node.len() + gpu.len();
            let qcfg = QualityConfig::new(sampler.interval_s).without_stuck_detection();
            let (s, clean) = timed(|| quarantine(&RawSeries::from_series(&node), &qcfg));
            quarantine_s += s;
            std::hint::black_box(clean);
            let (s, sums) = timed(|| {
                (
                    PowerSummary::from_samples(node.values()),
                    PowerSummary::from_samples(gpu.values()),
                )
            });
            summary_s += s;
            std::hint::black_box(sums);

            let (s, measured) = timed(|| pool::serial(|| protocol::measure(bench, &cfg, ctx)));
            measure_s += s;
            if measured.runtime_s.to_bits() != best.runtime_s.to_bits() {
                eprintln!(
                    "[repro_full: {} at {nodes} nodes: stages picked {} s, measure {} s]",
                    bench.name(),
                    best.runtime_s,
                    measured.runtime_s
                );
                matches_measure = false;
            }
        }
    }
    m.insert("dft.build_plan_s".into(), plan_s);
    m.insert("cluster.execute_s".into(), exec_s);
    m.insert("telemetry.sample_s".into(), sample_s);
    m.insert("telemetry.quarantine_s".into(), quarantine_s);
    m.insert("stats.power_summary_s".into(), summary_s);
    m.insert("cluster.executions".into(), executions as f64);
    m.insert("cluster.host_us_per_sim_s".into(), 1e6 * exec_s / sim_s);
    m.insert("telemetry.samples".into(), samples as f64);
    let stages_s = plan_s + exec_s + sample_s + quarantine_s + summary_s;
    let sum_ok = stage_sum_check(m, "protocol stages vs protocol::measure", stages_s, measure_s);
    StageCheck {
        matches_measure,
        sum_ok,
    }
}
