//! End-to-end and per-layer benchmark of the reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro_full|campaign_site|campaign_sharded|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. Either way the last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Per-layer timers wrap
//! the benchmark's own calls into each crate's public functions; nothing
//! inside the program is instrumented. A per-layer metric a workload does
//! not exercise reads 0 (see `layer_map.json` for which workload owns
//! which metric, and which end-to-end metric it should move).

mod campaign;
mod measure;
mod repro;
mod serve;

use measure::Outcome;

/// Full size for measurement; the small size is for the self-test.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Scale {
    Full,
    Small,
}

pub const WORKLOADS: [&str; 4] = [
    "repro_full",
    "campaign_site",
    "campaign_sharded",
    "serve_mixed",
];

/// The end-to-end metrics, with units, every workload reports untraced.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("clean_pass_share", "share"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("job_rtt_p50_ms", "ms"),
    ("job_rtt_p90_ms", "ms"),
];

const SITE_POLICIES: [&str; 4] = ["uncapped", "class_aware", "sweet_spot", "tco_aware"];
const SHARDED_POLICIES: [&str; 3] = ["uncapped", "class_aware", "sweet_spot"];
const SERVE_ROUTES: [&str; 7] = [
    "healthz",
    "metrics",
    "jobs",
    "logs",
    "job",
    "job_submit",
    "job_trace",
];

/// The per-layer metrics, with units, the traced run reports.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| v.push((name, unit));
    for s in repro::section_names() {
        add(format!("core.section_s.{s}"), "s");
    }
    add("core.critical_section_s".into(), "s");
    add("substrate.pool.speedup".into(), "x");
    for n in [
        "dft.build_plan_s",
        "cluster.execute_s",
        "telemetry.sample_s",
        "telemetry.quarantine_s",
        "stats.power_summary_s",
    ] {
        add(n.into(), "s");
    }
    add("cluster.executions".into(), "count");
    add("cluster.host_us_per_sim_s".into(), "us/s");
    add("telemetry.samples".into(), "count");
    add("powercap.generate_s".into(), "s");
    for p in SITE_POLICIES {
        add(format!("powercap.site_run_s.{p}"), "s");
    }
    for p in SITE_POLICIES {
        add(format!("powercap.policy_demand_s.{p}"), "s");
    }
    add("powercap.scaling_exponent".into(), "1");
    for p in SHARDED_POLICIES {
        add(format!("powercap.campaign_run_s.{p}"), "s");
    }
    add("powercap.shard_speedup".into(), "x");
    for p in SITE_POLICIES {
        add(format!("powercap.backfilled.{p}"), "count");
    }
    for p in SITE_POLICIES {
        add(format!("powercap.sim_makespan_h.{p}"), "h");
    }
    add("powercap.peak_over_budget".into(), "share");
    for r in SERVE_ROUTES {
        add(format!("serve.ttfb_ms.{r}"), "ms");
    }
    add("serve.body_wait_ms".into(), "ms");
    add("serve.first_request_ms".into(), "ms");
    add("serve.self_report_ratio".into(), "1");
    add("core.jobs.queue_wait_ms".into(), "ms");
    add("core.jobs.run_ms".into(), "ms");
    add("serve.polls_per_job".into(), "count");
    add("serve.trace_pages_per_job".into(), "count");
    add("serve.trace_bytes_per_job".into(), "B");
    for c in ["2xx", "4xx", "5xx"] {
        add(format!("serve.status.{c}"), "count");
    }
    add("bench.trace_overhead".into(), "x");
    add("bench.stage_sum_ratio".into(), "1");
    add("error_share".into(), "share");
    v
}

/// Run one workload.
///
/// # Panics
/// On an unknown workload name (the caller validates it).
#[must_use]
pub fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool, scale: Scale) -> Outcome {
    match name {
        "repro_full" => repro::run(seed, seconds, traced, scale),
        "campaign_site" => campaign::run(campaign::Mode::Site, seed, seconds, traced, scale),
        "campaign_sharded" => campaign::run(campaign::Mode::Sharded, seed, seconds, traced, scale),
        "serve_mixed" => serve::run(seed, seconds, traced, scale),
        other => panic!("unknown workload {other}"),
    }
}

/// The result line: every metric of the mode's catalogue, in catalogue
/// order, 0 where this workload does not exercise the layer.
///
/// # Panics
/// If the workload measured a metric the catalogue does not name.
#[must_use]
pub fn result_line(out: &Outcome, traced: bool) -> String {
    let catalogue: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for name in out.metrics.keys() {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "measured metric {name} is not in the catalogue"
        );
    }
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(&format!("bad argument {flag} {value}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        usage("--workload, --seed, --seconds and --trace are all required");
    };
    let out = run_workload(&workload, seed, seconds, traced, Scale::Full);
    eprintln!(
        "[{workload} seed {seed}: {} attempted, {} failed, inputs {:016x}, {} cpus]",
        out.attempted,
        out.failed,
        out.input_digest,
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
    println!("{}", result_line(&out, traced));
}

#[cfg(test)]
mod selftest;
