//! `serve_mixed`: the in-process job service (`serve_with` with the
//! reproduction's `ProtocolJobHandler`) driven closed-loop by two client
//! threads, each timing its own requests from the outside.
//!
//! * Connection A repeats a round modelled on the service's own clients
//!   on one keep-alive connection: `/metrics`, `/healthz` and `/jobs` as
//!   `examples/scrape_metrics` fetches them, then one `vpp logs` poll,
//!   `/logs?after=<cursor>&level=<level>[&limit=<n>]`, continuing from the
//!   previous poll's `X-Vpp-Next-Cursor`.
//! * Connection B runs job round trips, each on a fresh connection:
//!   `POST /jobs`, poll `/jobs/<id>` until it is done, then page
//!   `/jobs/<id>/trace?after=` to the end.
//!
//! Closed loop, because every real client of the service waits for its
//! reply (`vpp logs`, `scrape_metrics`, curl pollers). The work per pass
//! is fixed, so memory and sample counts do not scale with speed.

use crate::measure::{end_to_end, median, run_passes, Digest, Metrics, Outcome, Pass, SetupTimer};
use crate::Scale;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vasp_power_profiles::core::ProtocolJobHandler;
use vasp_power_profiles::substrate::json::{self, Value};
use vasp_power_profiles::substrate::serve::{serve_with, ServeConfig, ServeHandle};
use vasp_power_profiles::substrate::Rng;

/// Pause between two status polls of one job: a poller's own pacing.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Client read timeout: a reply slower than this is a failed request.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);
/// A job not done this long after its submission is a failed round trip.
const JOB_DEADLINE: Duration = Duration::from_secs(60);
/// The cheapest Table I entries (a few ms and ~150–180 trace events per
/// 1-node repeat), which job specs draw from.
const CHEAP_WORKLOADS: [&str; 2] = ["Si128_acfdtr", "B.hR105_hse"];

/// Levels `vpp logs --level` accepts.
const LOG_LEVELS: [&str; 4] = ["debug", "info", "warn", "error"];

/// One GET of connection A.
enum Get {
    /// A fixed path, as `scrape_metrics` fetches it.
    Path(&'static str),
    /// A `vpp logs` poll: always a level, a limit only when given, and
    /// the cursor the previous poll's reply handed out.
    Logs {
        level: &'static str,
        limit: Option<usize>,
    },
}

impl Get {
    fn route(&self) -> &'static str {
        match self {
            Get::Path("/metrics") => "metrics",
            Get::Path("/healthz") => "healthz",
            Get::Path(_) => "jobs",
            Get::Logs { .. } => "logs",
        }
    }

    fn target(&self, cursor: u64) -> String {
        match self {
            Get::Path(p) => (*p).to_string(),
            Get::Logs { level, limit } => match limit {
                Some(n) => format!("/logs?after={cursor}&level={level}&limit={n}"),
                None => format!("/logs?after={cursor}&level={level}"),
            },
        }
    }
}

/// The seeded traffic of one pass.
struct Mix {
    /// Connection A's GETs, in order.
    gets: Vec<Get>,
    /// Connection B's job specs and trace page sizes, in order.
    jobs: Vec<(String, usize)>,
}

impl Mix {
    /// A fixed composition: rounds of one scrape (`/metrics`, `/healthz`,
    /// `/jobs`) and one `vpp logs` poll, and a fixed count of each
    /// (workload, repeats, page size) job kind, so the per-request cost
    /// distribution does not depend on the seed. The seed picks each
    /// poll's level and limit, the job order and the job salts.
    ///
    /// Round trips cluster by page size and repeats: 256-event pages
    /// (fastest), then 64-event pages at 1 repeat, then at 2. The counts
    /// (40, 32, 32 of 104) put p50 and p90 inside a cluster; on the gap
    /// between two clusters a quantile jumps from run to run.
    fn new(seed: u64, scale: Scale) -> Mix {
        let rounds = match scale {
            Scale::Full => 140,
            Scale::Small => 10,
        };
        let jobs_of_kind = |limit: usize| match (scale, limit) {
            (Scale::Full, 256) => 10,
            (Scale::Full, _) => 16,
            (Scale::Small, _) => 1,
        };
        let mut rng = Rng::new(seed ^ 0x5E5E_0000);
        let mut gets = Vec::with_capacity(4 * rounds);
        for _ in 0..rounds {
            gets.extend(["/metrics", "/healthz", "/jobs"].map(Get::Path));
            gets.push(Get::Logs {
                level: LOG_LEVELS[rng.index(LOG_LEVELS.len())],
                limit: (rng.index(2) == 1).then(|| 1 + rng.index(64)),
            });
        }
        let mut jobs = Vec::new();
        for workload in CHEAP_WORKLOADS {
            for repeats in [1, 2] {
                for limit in [64, 256] {
                    for _ in 0..jobs_of_kind(limit) {
                        let spec = format!(
                            "{{\"workload\":\"{workload}\",\"nodes\":1,\"repeats\":{repeats},\
                             \"seed_salt\":{}}}",
                            rng.index(1 << 20),
                        );
                        jobs.push((spec, limit));
                    }
                }
            }
        }
        shuffle(&mut jobs, &mut rng);
        Mix { gets, jobs }
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for g in &self.gets {
            d.add(g.target(0).as_bytes());
        }
        for (spec, limit) in &self.jobs {
            d.add(spec.as_bytes());
            d.add(&limit.to_le_bytes());
        }
        d.0
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

fn start_server() -> ServeHandle {
    serve_with(ServeConfig::new(0).handler(Arc::new(ProtocolJobHandler)))
        .expect("bind the job service on an ephemeral port")
}

/// One timed HTTP exchange as the client saw it.
struct Exchange {
    route: &'static str,
    status: u16,
    /// Request write start to the first response byte.
    ttfb_s: f64,
    /// First response byte to the last body byte.
    body_wait_s: f64,
    /// Request write start to the last body byte.
    latency_s: f64,
    /// Connect start to the last body byte, for a connection's first
    /// request.
    first_request_s: Option<f64>,
}

struct Reply {
    head: String,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        header(&self.head, name)
    }
}

/// The value of header `name` in a response head.
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines()
        .filter_map(|l| l.split_once(": "))
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v)
}

/// A client connection that frames responses by `Content-Length`.
struct Conn {
    stream: TcpStream,
    /// When the connection was opened, until its first request is done.
    opened: Option<Instant>,
    /// The server answered `Connection: close` (it caps requests per
    /// connection); the next request needs a new connection.
    closed: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let opened = Instant::now();
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        Ok(Conn {
            stream,
            opened: Some(opened),
            closed: false,
        })
    }

    /// This connection, or a new one if the server closed it.
    fn reuse(self, addr: SocketAddr) -> std::io::Result<Conn> {
        if self.closed {
            Conn::open(addr)
        } else {
            Ok(self)
        }
    }

    fn send(
        &mut self,
        route: &'static str,
        method: &str,
        target: &str,
        body: &str,
        log: &mut Vec<Exchange>,
    ) -> std::io::Result<Reply> {
        let t0 = Instant::now();
        let req = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(req.as_bytes())?;
        let mut buf = Vec::with_capacity(4096);
        let mut chunk = [0u8; 16 * 1024];
        let mut first_byte = None;
        let head_len = loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(Instant::now);
            buf.extend_from_slice(&chunk[..n]);
            if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break end;
            }
        };
        let head = String::from_utf8_lossy(&buf[..head_len]).to_string();
        let head_end = head_len + 4;
        let content_length: usize = header(&head, "Content-Length")
            .and_then(|v| v.trim().parse().ok())
            .ok_or(std::io::ErrorKind::InvalidData)?;
        while buf.len() < head_end + content_length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        let done = Instant::now();
        let first_byte = first_byte.expect("a response byte arrived");
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(std::io::ErrorKind::InvalidData)?;
        log.push(Exchange {
            route,
            status,
            ttfb_s: (first_byte - t0).as_secs_f64(),
            body_wait_s: (done - first_byte).as_secs_f64(),
            latency_s: (done - t0).as_secs_f64(),
            first_request_s: self.opened.take().map(|o| (done - o).as_secs_f64()),
        });
        let body = String::from_utf8_lossy(&buf[head_end..head_end + content_length]).to_string();
        let reply = Reply { head, body };
        self.closed = reply.header("Connection") == Some("close");
        Ok(reply)
    }
}

/// One job round trip as connection B saw it.
#[derive(Default)]
struct JobTrip {
    rtt_s: f64,
    polls: u64,
    pages: u64,
    bytes: u64,
    queue_wait_s: f64,
    run_s: f64,
}

fn num(doc: &Value, key: &str) -> Option<f64> {
    doc.get(key).and_then(Value::as_f64)
}

/// Submit, poll to `done`, page the trace to its end, and check that the
/// pages deliver seqs `0..admitted` exactly once, in order.
fn job_trip(
    addr: SocketAddr,
    spec: &str,
    limit: usize,
    log: &mut Vec<Exchange>,
) -> Result<JobTrip, String> {
    let io = |e: std::io::Error| e.to_string();
    let t0 = Instant::now();
    let mut conn = Conn::open(addr).map_err(io)?;
    let reply = conn
        .send("job_submit", "POST", "/jobs", spec, log)
        .map_err(io)?;
    let id = json::parse(&reply.body)
        .ok()
        .and_then(|d| num(&d, "id"))
        .ok_or_else(|| format!("submit answered without an id: {}", reply.body))?
        as u64;
    let mut trip = JobTrip::default();
    let doc = loop {
        std::thread::sleep(POLL_INTERVAL);
        trip.polls += 1;
        conn = conn.reuse(addr).map_err(io)?;
        let reply = conn
            .send("job", "GET", &format!("/jobs/{id}"), "", log)
            .map_err(io)?;
        let doc = json::parse(&reply.body).map_err(|e| format!("job {id} status: {e:?}"))?;
        match doc.get("state").and_then(Value::as_str) {
            Some("done") => break doc,
            Some("queued" | "running") if t0.elapsed() < JOB_DEADLINE => {}
            other => return Err(format!("job {id} ended {other:?}: {}", reply.body)),
        }
    };
    let admitted = doc
        .get("trace")
        .and_then(|t| num(t, "admitted"))
        .ok_or("job document lacks trace.admitted")? as u64;
    let submitted = num(&doc, "submitted_s").ok_or("no submitted_s")?;
    let started = num(&doc, "started_s").ok_or("no started_s")?;
    let finished = num(&doc, "finished_s").ok_or("no finished_s")?;
    trip.queue_wait_s = started - submitted;
    trip.run_s = finished - started;

    let mut next = 0u64;
    loop {
        let target = format!("/jobs/{id}/trace?after={next}&limit={limit}");
        conn = conn.reuse(addr).map_err(io)?;
        let reply = conn
            .send("job_trace", "GET", &target, "", log)
            .map_err(io)?;
        trip.pages += 1;
        trip.bytes += reply.body.len() as u64;
        for line in reply.body.lines() {
            let seq = json::parse(line)
                .ok()
                .and_then(|ev| num(&ev, "seq"))
                .ok_or_else(|| format!("job {id}: trace line without a seq"))?
                as u64;
            if seq != next {
                return Err(format!("job {id}: seq {seq} where {next} was due"));
            }
            next += 1;
        }
        let cursor: u64 = reply
            .header("X-Vpp-Next-Cursor")
            .and_then(|v| v.parse().ok())
            .ok_or("trace page lacks X-Vpp-Next-Cursor")?;
        if cursor != next {
            return Err(format!("job {id}: cursor {cursor} after {next} events"));
        }
        if reply.header("X-Vpp-More") != Some("true") {
            break;
        }
    }
    if next != admitted {
        return Err(format!(
            "job {id}: {next} trace events paged, {admitted} admitted"
        ));
    }
    trip.rtt_s = t0.elapsed().as_secs_f64();
    Ok(trip)
}

/// Everything one pass observed.
struct Observed {
    pass: Pass,
    log: Vec<Exchange>,
    trips: Vec<JobTrip>,
    /// Server-side mean of `vpp_serve_request_seconds`, read after the
    /// pass (traced passes only).
    server_mean_s: Option<f64>,
}

/// Connection A: every GET in order; a `/logs` poll continues from the
/// cursor the previous poll's reply handed out, as a `vpp logs` follower
/// does, and a reply without one is a failed request. Returns the GETs
/// that got no reply (and so are not in `log`) and the replies that failed.
fn run_gets(addr: SocketAddr, gets: &[Get], log: &mut Vec<Exchange>) -> (u64, u64) {
    let (mut unanswered, mut failed) = (0, 0);
    let mut conn: Option<Conn> = None;
    let mut cursor = 0u64;
    for get in gets {
        let reused = conn.take().map(|c| c.reuse(addr));
        let Ok(mut c) = reused.unwrap_or_else(|| Conn::open(addr)) else {
            unanswered += 1;
            continue;
        };
        let Ok(reply) = c.send(get.route(), "GET", &get.target(cursor), "", log) else {
            unanswered += 1;
            continue;
        };
        conn = Some(c);
        if let Get::Logs { .. } = get {
            match reply.header("X-Vpp-Next-Cursor").and_then(|v| v.parse().ok()) {
                Some(next) => cursor = next,
                None => failed += 1,
            }
        }
    }
    (unanswered, failed)
}

fn pass(mix: &Mix, read_server_metrics: bool) -> Observed {
    let server = start_server();
    let addr = server.addr();
    let start = Instant::now();
    let ((a_log, (a_unanswered, a_failed)), (b_log, trips, b_failed)) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let mut log = Vec::new();
            let failed = run_gets(addr, &mix.gets, &mut log);
            (log, failed)
        });
        let b = s.spawn(|| {
            let mut log = Vec::new();
            let mut trips = Vec::new();
            let mut failed = 0u64;
            for (spec, limit) in &mix.jobs {
                match job_trip(addr, spec, *limit, &mut log) {
                    Ok(t) => trips.push(t),
                    Err(e) => {
                        eprintln!("[serve_mixed job round trip failed: {e}]");
                        failed += 1;
                    }
                }
            }
            (log, trips, failed)
        });
        (
            a.join().expect("connection A thread"),
            b.join().expect("connection B thread"),
        )
    });
    let wall_s = start.elapsed().as_secs_f64();
    let server_mean_s = read_server_metrics
        .then(|| server_request_mean_s(addr))
        .flatten();
    server.shutdown();

    let mut log = a_log;
    log.extend(b_log);
    let non_2xx = log
        .iter()
        .filter(|x| !(200..300).contains(&x.status))
        .count() as u64;
    let pass = Pass {
        wall_s,
        latency_s: log.iter().map(|x| x.latency_s).collect(),
        rtt_s: trips.iter().map(|t| t.rtt_s).collect(),
        attempted: log.len() as u64 + a_unanswered + mix.jobs.len() as u64,
        failed: a_unanswered + a_failed + b_failed + non_2xx,
        ..Pass::default()
    };
    Observed {
        pass,
        log,
        trips,
        server_mean_s,
    }
}

/// Mean of the service's own `vpp_serve_request_seconds`, all routes.
fn server_request_mean_s(addr: SocketAddr) -> Option<f64> {
    let mut sink = Vec::new();
    let reply = Conn::open(addr)
        .and_then(|mut c| c.send("metrics", "GET", "/metrics", "", &mut sink))
        .ok()?;
    let total = |suffix: &str| -> f64 {
        reply
            .body
            .lines()
            .filter(|l| l.starts_with(&format!("vpp_serve_request_seconds_{suffix}")))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    let count = total("count");
    (count > 0.0).then(|| total("sum") / count)
}

pub fn run(seed: u64, seconds: f64, traced: bool, scale: Scale) -> Outcome {
    // A set-up's server shuts down when its handle drops, untimed.
    let (mut setup, (mix, server)) = SetupTimer::start(|| (Mix::new(seed, scale), start_server()));
    server.shutdown();
    let input_digest = mix.digest();

    if !traced {
        let passes = run_passes(seconds, || pass(&mix, false).pass, || setup.after_pass());
        let (attempted, failed, metrics) = end_to_end(setup.median_s(), &passes);
        return Outcome {
            attempted,
            failed,
            metrics,
            input_digest,
        };
    }

    let untraced = pass(&mix, false);
    let obs = pass(&mix, true);
    let mut m = Metrics::new();
    m.insert(
        "bench.trace_overhead".into(),
        obs.pass.wall_s / untraced.pass.wall_s,
    );
    let mut by_route: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for x in &obs.log {
        by_route.entry(x.route).or_default().push(x.ttfb_s);
    }
    for (route, ttfb) in &by_route {
        m.insert(format!("serve.ttfb_ms.{route}"), 1e3 * median(ttfb));
    }
    let ms = |f: &dyn Fn(&Exchange) -> Option<f64>| {
        1e3 * median(&obs.log.iter().filter_map(f).collect::<Vec<_>>())
    };
    m.insert("serve.body_wait_ms".into(), ms(&|x| Some(x.body_wait_s)));
    m.insert("serve.first_request_ms".into(), ms(&|x| x.first_request_s));
    let client_mean_s = obs.pass.latency_s.iter().sum::<f64>() / obs.pass.latency_s.len() as f64;
    let mut failed = untraced.pass.failed + obs.pass.failed;
    match obs.server_mean_s {
        Some(server) => {
            m.insert("serve.self_report_ratio".into(), server / client_mean_s);
        }
        None => {
            eprintln!("[serve_mixed: /metrics carried no vpp_serve_request_seconds]");
            failed += 1;
        }
    }
    if !obs.trips.is_empty() {
        let per_job = |f: &dyn Fn(&JobTrip) -> f64| {
            obs.trips.iter().map(f).sum::<f64>() / obs.trips.len() as f64
        };
        let trip_ms = |f: &dyn Fn(&JobTrip) -> f64| {
            1e3 * median(&obs.trips.iter().map(f).collect::<Vec<_>>())
        };
        m.insert(
            "core.jobs.queue_wait_ms".into(),
            trip_ms(&|t| t.queue_wait_s),
        );
        m.insert("core.jobs.run_ms".into(), trip_ms(&|t| t.run_s));
        m.insert("serve.polls_per_job".into(), per_job(&|t| t.polls as f64));
        m.insert(
            "serve.trace_pages_per_job".into(),
            per_job(&|t| t.pages as f64),
        );
        m.insert(
            "serve.trace_bytes_per_job".into(),
            per_job(&|t| t.bytes as f64),
        );
    }
    for class in [2u16, 4, 5] {
        let n = obs.log.iter().filter(|x| x.status / 100 == class).count();
        m.insert(format!("serve.status.{class}xx"), n as f64);
    }
    let attempted = untraced.pass.attempted + obs.pass.attempted + 1;
    m.insert("error_share".into(), failed as f64 / attempted as f64);
    Outcome {
        attempted,
        failed,
        metrics: m,
        input_digest,
    }
}
