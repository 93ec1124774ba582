//! Timing, order statistics and the pass loop shared by every workload.

use std::collections::BTreeMap;
use std::time::Instant;

/// Metric name → value, as one workload measured it.
pub type Metrics = BTreeMap<String, f64>;

/// What one workload run produced: operation accounting, the metrics it
/// measured, and a digest of the generated inputs (the self-test checks
/// that another seed changes it).
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub input_digest: u64,
}

/// One pass of a workload's fixed work, timed from the caller's side.
#[derive(Default)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Per-operation service times, seconds.
    pub latency_s: Vec<f64>,
    /// Per-job submit-to-result times, seconds.
    pub rtt_s: Vec<f64>,
    /// Operations attempted and failed (a failed check counts as one).
    pub attempted: u64,
    pub failed: u64,
    /// Peak resident set of the process by the end of the pass, MiB.
    pub peak_rss_mb: f64,
}

/// Linear-interpolation quantile (`q` in 0..=1) of unsorted samples;
/// NaN for an empty set (every timed operation failed), which the result
/// line reports as 0.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds spent in `f`, plus its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Set-up samples taken before the first pass, and after each pass.
const SETUP_SAMPLES_FIRST: usize = 5;
const SETUP_SAMPLES_PER_PASS: usize = 5;
/// Each set-up sample times a batch of calls at least this long, so the
/// clock's resolution and one-off stalls do not dominate a cheap set-up.
const SETUP_MIN_SAMPLE_S: f64 = 5e-4;

/// Times a workload's set-up: batches of calls sized (after a warm-up
/// call) to last [`SETUP_MIN_SAMPLE_S`], some before the first pass and
/// more between passes, so the reported median spans the run the way the
/// pass medians do instead of one burst at process start. Each value a
/// batch builds is dropped untimed.
pub struct SetupTimer<S> {
    setup: S,
    batch: usize,
    samples: Vec<f64>,
}

impl<T, S: FnMut() -> T> SetupTimer<S> {
    /// Size the batch, take the first samples, and return one set-up
    /// result for the workload to use.
    pub fn start(mut setup: S) -> (Self, T) {
        let keep = setup();
        let mut timer = SetupTimer {
            setup,
            batch: 1,
            samples: Vec::new(),
        };
        while timer.batch < 1 << 20 && timer.batch_s() < SETUP_MIN_SAMPLE_S {
            timer.batch *= 2;
        }
        timer.sample(SETUP_SAMPLES_FIRST);
        (timer, keep)
    }

    fn batch_s(&mut self) -> f64 {
        let mut busy = 0.0;
        for _ in 0..self.batch {
            let (s, value) = timed(&mut self.setup);
            busy += s;
            drop(value);
        }
        busy
    }

    /// Take `n` more samples.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let per_call = self.batch_s() / self.batch as f64;
            self.samples.push(per_call);
        }
    }

    /// Take the samples due after one pass.
    pub fn after_pass(&mut self) {
        self.sample(SETUP_SAMPLES_PER_PASS);
    }

    /// Median seconds of one set-up call.
    #[must_use]
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }
}

/// Repeat `pass` while another one is expected to finish within
/// `seconds` (judged from the median pass so far), at least once. Each
/// pass records the process's peak resident set so far; `after_pass`
/// runs untimed after each.
pub fn run_passes(
    seconds: f64,
    mut pass: impl FnMut() -> Pass,
    mut after_pass: impl FnMut(),
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let mut p = pass();
        p.peak_rss_mb = peak_rss_mb();
        eprintln!(
            "[pass {}: {:.4} s, peak {:.1} MiB]",
            passes.len() + 1,
            p.wall_s,
            p.peak_rss_mb
        );
        passes.push(p);
        after_pass();
        let typical = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        if start.elapsed().as_secs_f64() + typical > seconds {
            return passes;
        }
    }
}

/// The end-to-end metrics every workload reports from its passes: each
/// is the median over passes of a per-pass figure, so sample counts per
/// figure stay fixed however many passes fit.
pub fn end_to_end(setup_s: f64, passes: &[Pass]) -> (u64, u64, Metrics) {
    let per = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut m = Metrics::new();
    m.insert("setup_s".into(), setup_s);
    m.insert("wall_s".into(), per(&|p| p.wall_s));
    // Memory freed by one pass stays with the allocator for the next, so
    // only the first pass shows the peak of a fresh process.
    m.insert("peak_rss_mb".into(), passes[0].peak_rss_mb);
    // A pass is the unit of fixed work: one failed operation or check
    // spoils its pass, so a single failure moves this share by at least
    // 1/passes, far past its bound, on every workload.
    let clean = passes.iter().filter(|p| p.failed == 0).count();
    m.insert(
        "clean_pass_share".into(),
        clean as f64 / passes.len() as f64,
    );
    m.insert(
        "req_per_s".into(),
        per(&|p| p.latency_s.len() as f64 / p.wall_s),
    );
    m.insert(
        "latency_p50_ms".into(),
        per(&|p| 1e3 * quantile(&p.latency_s, 0.5)),
    );
    m.insert(
        "latency_p99_ms".into(),
        per(&|p| 1e3 * quantile(&p.latency_s, 0.99)),
    );
    m.insert(
        "job_rtt_p50_ms".into(),
        per(&|p| 1e3 * quantile(&p.rtt_s, 0.5)),
    );
    m.insert(
        "job_rtt_p90_ms".into(),
        per(&|p| 1e3 * quantile(&p.rtt_s, 0.9)),
    );
    (attempted, failed, m)
}

/// Peak resident set of this process, MiB (`VmHWM`).
///
/// # Panics
/// Where `/proc/self/status` has no `VmHWM` line (not Linux): the
/// benchmark cannot report its memory metric there.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// FNV-1a over byte chunks: output and input digests.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Relative tolerance of the stage-sum check. Stage timers around the
/// public functions a call is made of must add up to an independently
/// timed run of that call within this share. Below 1, the call does work
/// no stage reaches; above 1, the stages do work the call does not. The
/// two sides are timed alternately, so slow host drift moves both alike,
/// but the share must still cover the host's noise from one run of the
/// same work to the next (up to ±18 % between passes on the reference
/// host).
pub const STAGE_SUM_TOLERANCE: f64 = 0.25;

/// Record the stage-sum ratio and whether it holds.
pub fn stage_sum_check(m: &mut Metrics, what: &str, stages_s: f64, wall_s: f64) -> bool {
    let ratio = stages_s / wall_s;
    m.insert("bench.stage_sum_ratio".into(), ratio);
    let ok = (ratio - 1.0).abs() <= STAGE_SUM_TOLERANCE;
    eprintln!(
        "[stage sum {what}: {stages_s:.4} s of stages over {wall_s:.4} s wall = {ratio:.4} \
         (tolerance ±{STAGE_SUM_TOLERANCE}) {}]",
        if ok { "ok" } else { "FAILED" }
    );
    ok
}
