//! The serve workloads: an [`ifls_serve::Server`] answering over loopback
//! HTTP from a warm-tier snapshot, driven by an open-loop generator.
//!
//! Arrivals follow a seeded Poisson process conditioned on its count: a
//! window of `T` seconds at rate `r` holds exactly `round(r·T)` requests
//! at sorted uniform offsets. Two generator threads, each owning one
//! keep-alive connection, claim requests in arrival order, sleep until the
//! request is due and send it; a request's latency runs from its due time
//! to its response, so time spent waiting for a free connection counts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ifls_core::api::{self, Algorithm, Objective, SolveSpec};
use ifls_core::Budget;
use ifls_indoor::Venue;
use ifls_obs::{Counter, ObsSink, Phase};
use ifls_rng::StdRng;
use ifls_serve::{ServeOptions, Server};
use ifls_venues::NamedVenue;
use ifls_viptree::{VipTree, VipTreeConfig, DEFAULT_WARM_BUDGET_BYTES};
use ifls_workloads::{Workload, WorkloadBuilder, SIGMAS};

use crate::common::{self, median, ms, pct, sorted, timed, Outcome, THREADS};

/// One serve workload: venue, traffic shape, and the fixed rate ladder.
pub struct ServeWorkload {
    pub name: &'static str,
    pub venue: NamedVenue,
    /// Full set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Nominal arrival rate of the timed window; also the ladder's first
    /// step.
    pub rate_qps: f64,
    /// Higher ladder steps, ascending. The ladder stops at the first step
    /// that misses the limit; the step below it should pass and the step
    /// itself should saturate the daemon.
    pub ladder_qps: &'static [f64],
    /// Length of each higher ladder step.
    pub step_s: f64,
    /// The p99 latency limit a ladder step must meet.
    pub p99_limit_ms: f64,
    /// Inclusive ranges of the per-request Table 2 parameters.
    pub clients: (usize, usize),
    pub fe: (usize, usize),
    pub fn_: (usize, usize),
    /// Shares of MinMax and MinDist requests; the rest are MaxSum.
    pub minmax_share: f64,
    pub mindist_share: f64,
    /// Share of requests with normally distributed clients (σ from the
    /// Table 2 grid); the rest are uniform.
    pub normal_share: f64,
}

/// MC from a warm snapshot under Table 2 traffic: solver inner loops and
/// warm-tier probes are nearly all of each request's time.
pub const MC_MIXED: ServeWorkload = ServeWorkload {
    name: "serve-mc-mixed",
    venue: NamedVenue::MC,
    setups: 3,
    rate_qps: 14.0,
    // 28 passes and 70 saturates a daemon of the measured capacity
    // (40-55 req/s); short steps near capacity pass or fail by chance.
    // 105 keeps a 1.6x faster daemon measurable.
    ladder_qps: &[28.0, 70.0, 105.0],
    // A saturated step's answer rate is the capacity estimate: 6 s
    // averages over more of the request mix and of the host's slow phases
    // than 3 s did.
    step_s: 6.0,
    p99_limit_ms: 2000.0,
    clients: (1000, 5000),
    fe: (25, 75),
    fn_: (100, 150),
    minmax_share: 0.7,
    mindist_share: 0.2,
    normal_share: 0.5,
};

/// CPH from a warm snapshot under tiny requests: fixed per-request cost
/// (HTTP, queueing, workload generation, JSON, solver set-up) dominates.
pub const CPH_SMALL: ServeWorkload = ServeWorkload {
    name: "serve-cph-small",
    venue: NamedVenue::CPH,
    setups: 15,
    rate_qps: 400.0,
    ladder_qps: &[800.0, 1600.0, 3200.0],
    step_s: 2.0,
    p99_limit_ms: 50.0,
    clients: (10, 50),
    fe: (2, 3),
    fn_: (3, 6),
    minmax_share: 0.4,
    mindist_share: 0.3,
    normal_share: 0.5,
};

/// Share of a window's requests that must be answered by
/// [`DRAIN_ALLOWANCE`] after its last arrival for the window to count as
/// sustained.
const SUSTAINED_SHARE: f64 = 0.9;

/// Time after a window's last arrival for the requests in flight then to
/// finish. Below capacity they do within it (the p99 there is 0.3-0.45 s
/// on MC); above it the backlog left at the last arrival takes longer.
const DRAIN_ALLOWANCE: Duration = Duration::from_millis(500);

/// Fewest requests in a nominal window; a window at a low rate is
/// lengthened past `--seconds` until it holds this many.
const MIN_SAMPLES: f64 = 840.0;

/// One in this many ladder answers is re-solved by the answer check.
const LADDER_CHECK_EVERY: usize = 8;

/// One `/query` request as the generator sends it; the daemon derives the
/// workload from these parameters alone.
#[derive(Clone)]
struct Req {
    objective: Objective,
    clients: usize,
    fe: usize,
    fn_: usize,
    seed: u64,
    sigma: Option<f64>,
}

impl Req {
    /// `n` requests whose objective shares, client-count spread and
    /// uniform/normal split are stratified: each holds exactly in every
    /// window (in seeded order), so two seeds differ in which requests
    /// arrive when, not in how much work the window holds.
    fn draw_window(w: &ServeWorkload, rng: &mut StdRng, n: usize) -> Vec<Req> {
        let slot = |k: usize| (k as f64 + 0.5) / n as f64;
        let mut objectives: Vec<Objective> = (0..n)
            .map(|k| match slot(k) {
                u if u < w.minmax_share => Objective::MinMax,
                u if u < w.minmax_share + w.mindist_share => Objective::MinDist,
                _ => Objective::MaxSum,
            })
            .collect();
        let span = (w.clients.1 - w.clients.0 + 1) as f64;
        let mut clients: Vec<usize> = (0..n)
            .map(|k| w.clients.0 + (span * (k as f64 + rng.next_f64()) / n as f64) as usize)
            .collect();
        let mut normal: Vec<bool> = (0..n).map(|k| slot(k) < w.normal_share).collect();
        shuffle(&mut objectives, rng);
        shuffle(&mut clients, rng);
        shuffle(&mut normal, rng);
        (0..n)
            .map(|k| Req {
                objective: objectives[k],
                clients: clients[k],
                fe: rng.random_range(w.fe.0..=w.fe.1),
                fn_: rng.random_range(w.fn_.0..=w.fn_.1),
                // The wire carries numbers as doubles: keep seeds exact.
                seed: rng.next_u64() >> 11,
                sigma: normal[k].then(|| SIGMAS[rng.random_range(0..SIGMAS.len())]),
            })
            .collect()
    }

    fn body(&self) -> String {
        let sigma = self
            .sigma
            .map_or(String::new(), |s| format!(",\"sigma\":{s}"));
        format!(
            "{{\"objective\":\"{}\",\"clients\":{},\"fe\":{},\"fn\":{},\"seed\":{}{sigma}}}",
            self.objective.name(),
            self.clients,
            self.fe,
            self.fn_,
            self.seed
        )
    }

    /// The workload the daemon generates for this request.
    fn workload(&self, venue: &Venue) -> Workload {
        let b = WorkloadBuilder::new(venue)
            .existing_uniform(self.fe)
            .candidates_uniform(self.fn_)
            .seed(self.seed);
        match self.sigma {
            Some(s) => b.clients_normal(self.clients, s),
            None => b.clients_uniform(self.clients),
        }
        .build()
    }

    fn spec(&self, algorithm: Algorithm) -> SolveSpec {
        SolveSpec {
            objective: self.objective,
            algorithm,
            ..SolveSpec::default()
        }
    }
}

/// What one response carried: the answer fields the check compares and
/// the solver statistics the traced run reports.
#[derive(Clone, Copy, Default)]
struct Answer {
    answer: Option<u64>,
    value_bits: u64,
    elapsed_ns: u64,
    dist: u64,
    pruned: u64,
    retrieved: u64,
    hits: u64,
    misses: u64,
}

impl Answer {
    fn parse(body: &str, objective: Objective) -> Option<Answer> {
        let answer = match raw_field(body, "answer")? {
            "null" => None,
            v => Some(v.parse().ok()?),
        };
        let value: f64 = raw_field(body, objective.value_key())?.parse().ok()?;
        let num = |key| raw_field(body, key).and_then(|v| v.parse().ok());
        Some(Answer {
            answer,
            value_bits: value.to_bits(),
            elapsed_ns: num("elapsed_ns")?,
            dist: num("dist_computations")?,
            pruned: num("clients_pruned")?,
            retrieved: num("facilities_retrieved")?,
            hits: num("cache_hits")?,
            misses: num("cache_misses")?,
        })
    }
}

/// The raw token after `"key":` in a flat `ifls-stats/v1` line.
fn raw_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// One request's fate in a window.
#[derive(Clone, Copy, Default)]
struct Sample {
    /// HTTP status; `0` for a transport error or a request the generator
    /// never sent because its window had closed.
    status: u16,
    sent: bool,
    due_ns: u64,
    dispatch_ns: u64,
    done_ns: u64,
    answer: Option<Answer>,
}

/// A minimal HTTP/1.1 keep-alive client.
struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let result = self.try_exchange(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn try_exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            self.stream = Some(BufReader::new(s));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        reader
            .get_mut()
            .write_all(req.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line `{}`", line.trim()))?;
        let mut len = 0usize;
        let mut close = false;
        loop {
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            let lower = l.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                len = v
                    .trim()
                    .parse()
                    .map_err(|_| "bad content-length".to_string())?;
            } else if lower == "connection: close" {
                close = true;
            }
        }
        let mut buf = vec![0; len];
        reader
            .read_exact(&mut buf)
            .map_err(|e| format!("read body: {e}"))?;
        if close {
            self.stream = None;
        }
        Ok((status, String::from_utf8_lossy(&buf).into_owned()))
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for a in 0..v.len() {
        let b = rng.random_range(a..v.len());
        v.swap(a, b);
    }
}

/// `round(rate·seconds)` requests at sorted uniform offsets (ns) in
/// `[0, seconds)`: a Poisson process conditioned on its count.
fn schedule(w: &ServeWorkload, rng: &mut StdRng, rate: f64, seconds: f64) -> (Vec<Req>, Vec<u64>) {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut arrivals: Vec<u64> = (0..n)
        .map(|_| (rng.next_f64() * seconds * 1e9) as u64)
        .collect();
    arrivals.sort_unstable();
    let reqs = Req::draw_window(w, rng, n);
    (reqs, arrivals)
}

/// One open-loop window's raw results.
struct Window {
    samples: Vec<Sample>,
    backlog_max: u64,
}

impl Window {
    /// Nearest-rank percentile `q` of latency from due time over the
    /// whole window, in ms; a failed request counts as missing every limit
    /// (infinite).
    fn latency_pct_ms(&self, q: f64) -> f64 {
        let lat: Vec<f64> = self
            .samples
            .iter()
            .map(|s| match s.status {
                200 => (s.done_ns - s.due_ns) as f64 / 1e6,
                _ => f64::INFINITY,
            })
            .collect();
        pct(&sorted(lat), q)
    }

    fn lateness_ms(&self) -> Vec<f64> {
        sorted(
            self.samples
                .iter()
                .filter(|s| s.sent)
                .map(|s| (s.dispatch_ns - s.due_ns) as f64 / 1e6)
                .collect(),
        )
    }

    /// Requests not answered with a 200, sent or not.
    fn failures(&self) -> u64 {
        self.samples.iter().filter(|s| s.status != 200).count() as u64
    }

    /// Sent requests that got no 200: non-200 statuses, transport errors
    /// and unparsable answers.
    fn sent_failures(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.sent && s.status != 200)
            .count() as u64
    }

    fn sent(&self) -> u64 {
        self.samples.iter().filter(|s| s.sent).count() as u64
    }

    /// The window was sustained: every request was sent before the window
    /// closed, and by [`DRAIN_ALLOWANCE`] after the last arrival at least
    /// [`SUSTAINED_SHARE`] of the requests were answered. Below capacity
    /// the backlog stays small; above it the backlog grows for the whole
    /// window and the share falls with the overload.
    fn sustained(&self) -> bool {
        let n = self.samples.len() as f64;
        let (_, last) = self.due_span_ns();
        let deadline = last + DRAIN_ALLOWANCE.as_nanos() as u64;
        self.samples.iter().all(|s| s.sent)
            && self.answered_by(deadline) as f64 >= SUSTAINED_SHARE * n
    }

    fn due_span_ns(&self) -> (u64, u64) {
        let first = self.samples.iter().map(|s| s.due_ns).min().unwrap_or(0);
        let last = self.samples.iter().map(|s| s.due_ns).max().unwrap_or(0);
        (first, last)
    }

    fn answered_by(&self, deadline_ns: u64) -> usize {
        self.samples
            .iter()
            .filter(|s| s.status == 200 && s.done_ns <= deadline_ns)
            .count()
    }

    /// Answers per second while requests were arriving (first to last
    /// due time): the rate a ladder step actually sustained.
    fn sustained_rate(&self) -> f64 {
        let (first, last) = self.due_span_ns();
        self.answered_by(last) as f64 / ((last - first) as f64 / 1e9).max(1e-9)
    }

    /// Answered requests per second, from the first due time to the last
    /// response.
    fn answer_rate(&self) -> f64 {
        let (first, _) = self.due_span_ns();
        let last = self.samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
        let ok = self.samples.iter().filter(|s| s.status == 200).count();
        ok as f64 / ((last.saturating_sub(first)) as f64 / 1e9).max(1e-9)
    }
}

/// Replays `reqs` at `arrivals` over two keep-alive connections. A request
/// still unsent `grace` after the last arrival is abandoned.
fn run_window(
    addr: SocketAddr,
    reqs: &[Req],
    arrivals: &[u64],
    grace: Duration,
    id_base: u64,
) -> Window {
    let n = reqs.len();
    let next = AtomicUsize::new(0);
    let backlog_max = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let close_ns = arrivals.last().copied().unwrap_or(0) + grace.as_nanos() as u64;
    let bodies: Vec<String> = reqs.iter().map(Req::body).collect();
    let parent = common::current_span();
    let per_thread: Vec<Vec<(usize, Sample)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    common::adopt(parent);
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let due = start + Duration::from_nanos(arrivals[i]);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let dispatch_ns = start.elapsed().as_nanos() as u64;
                        let mut sample = Sample {
                            due_ns: arrivals[i],
                            dispatch_ns,
                            ..Sample::default()
                        };
                        if dispatch_ns > close_ns {
                            out.push((i, sample));
                            continue;
                        }
                        let due_now = arrivals.partition_point(|&a| a <= dispatch_ns);
                        backlog_max
                            .fetch_max(due_now.saturating_sub(i + 1) as u64, Ordering::Relaxed);
                        let (res, _) = timed("serve.query", Some(id_base + i as u64), || {
                            conn.exchange("POST", "/query", &bodies[i])
                        });
                        sample.done_ns = start.elapsed().as_nanos() as u64;
                        sample.sent = true;
                        if let Ok((status, body)) = res {
                            sample.answer = Answer::parse(&body, reqs[i].objective);
                            // A 200 whose body does not parse is a failure.
                            sample.status = if status == 200 && sample.answer.is_none() {
                                0
                            } else {
                                status
                            };
                        }
                        out.push((i, sample));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut samples = vec![Sample::default(); n];
    for (i, s) in per_thread.into_iter().flatten() {
        samples[i] = s;
    }
    Window {
        samples,
        backlog_max: backlog_max.into_inner(),
    }
}

/// Wall times of one set-up, plus what it produced.
struct SetupTimes {
    total: Duration,
    venue: Duration,
    build: Duration,
    warm: Duration,
    save: Duration,
    load_ns: u64,
    ready: Duration,
    snapshot_bytes: u64,
    warm_bytes: u64,
}

/// A ready daemon plus the in-process index the answer check solves on.
struct Deployment<'v> {
    venue: &'v Venue,
    tree: VipTree<'v>,
    server: Server,
}

fn serve_options(index: PathBuf) -> ServeOptions {
    ServeOptions {
        workers: THREADS,
        index: Some(index),
        strict: true,
        sighup_reload: false,
        sigterm_drain: false,
        trace_dump: None,
        ..ServeOptions::default()
    }
}

/// Polls `/readyz` (one connection per poll, so no worker stays pinned to
/// an idle keep-alive connection) until it answers 200.
fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok((200, _)) = Conn::new(addr).exchange("GET", "/readyz", "") {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("daemon never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One set-up: the offline index build (venue, tree, warm tier, snapshot),
/// then the daemon start from that snapshot until `/readyz` answers 200.
/// Runs `f` on the ready deployment, then stops the daemon and drops the
/// index, so set-ups that are only timed leave nothing behind but the
/// venue copy `Server::start` keeps for the life of the process.
fn with_deployment<R>(
    w: &ServeWorkload,
    work: &Path,
    f: impl FnOnce(&Deployment<'_>, SetupTimes) -> R,
) -> Result<R, String> {
    let started = Instant::now();
    let (venue, t_venue) = timed("venues.build", None, || w.venue.build());
    let (mut tree, t_build) = timed("viptree.build_with_threads", None, || {
        VipTree::build_with_threads(&venue, VipTreeConfig::default(), THREADS)
    });
    let (tier, t_warm) = timed("viptree.build_warm_tier", None, || {
        tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, THREADS)
    });
    let warm_bytes = tier.approx_bytes() as u64;
    tree.set_warm_tier(Some(tier));
    let snapshot = work.join(format!("{}.ifls", w.name));
    let (saved, t_save) = timed("viptree.save_snapshot", None, || {
        tree.save_snapshot(&snapshot)
    });
    saved.map_err(|e| format!("save snapshot: {e}"))?;
    let snapshot_bytes = std::fs::metadata(&snapshot)
        .map_err(|e| e.to_string())?
        .len();
    // Only the daemon's own records belong in its sink.
    let _ = ifls_obs::take_local();
    let (server, t_ready) = timed("serve.start_until_ready", None, || {
        let server = timed("serve.start", None, || {
            Server::start(venue.clone(), serve_options(snapshot.clone()))
        })
        .0;
        let server = server.map_err(|e| format!("server start: {e}"))?;
        timed("serve.readyz", None, || wait_ready(server.addr())).0?;
        Ok::<_, String>(server)
    });
    let server = server?;
    let load_ns = server.metrics_sink().span(Phase::SnapshotIo).total_ns;
    let times = SetupTimes {
        total: started.elapsed(),
        venue: t_venue,
        build: t_build,
        warm: t_warm,
        save: t_save,
        load_ns,
        ready: t_ready,
        snapshot_bytes,
        warm_bytes,
    };
    let dep = Deployment {
        venue: &venue,
        tree,
        server,
    };
    let out = f(&dep, times);
    dep.server.shutdown();
    let _ = std::fs::remove_file(&snapshot);
    Ok(out)
}

/// Re-solves every answered request in-process on the same index and
/// inputs (answer and objective bits must be identical), and a seeded
/// sample against the brute-force oracle. Returns the mismatch count and
/// the `WorkloadBuilder::build` times (µs) of the replays.
fn check(
    dep: &Deployment<'_>,
    reqs: &[&Req],
    answers: &[Answer],
    rng: &mut StdRng,
) -> (u64, Vec<f64>) {
    const BRUTE_SAMPLE: usize = 2;
    let next = AtomicUsize::new(0);
    let mismatches = AtomicU64::new(0);
    let parent = common::current_span();
    let build_us: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    common::adopt(parent);
                    let mut build_us = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= reqs.len() {
                            break;
                        }
                        let (wl, took) = timed("workloads.build", Some(i as u64), || {
                            reqs[i].workload(dep.venue)
                        });
                        build_us.push(took.as_secs_f64() * 1e6);
                        let spec = reqs[i].spec(Algorithm::Efficient);
                        let (got, _) = timed("core.solve", Some(i as u64), || {
                            api::solve(
                                &dep.tree,
                                &wl.clients,
                                &wl.existing,
                                &wl.candidates,
                                &spec,
                                &Budget::unlimited(),
                            )
                        });
                        let same = got.is_ok_and(|g| {
                            g.answer.map(|p| p.index() as u64) == answers[i].answer
                                && g.value.to_bits() == answers[i].value_bits
                        });
                        if !same {
                            eprintln!(
                                "MISMATCH: request {} `{}` differs from in-process api::solve",
                                i,
                                reqs[i].body()
                            );
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    build_us
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    for _ in 0..BRUTE_SAMPLE.min(reqs.len()) {
        let i = rng.random_range(0..reqs.len());
        let wl = reqs[i].workload(dep.venue);
        let spec = reqs[i].spec(Algorithm::Brute);
        let (oracle, _) = timed("core.solve_brute", Some(i as u64), || {
            api::solve(
                &dep.tree,
                &wl.clients,
                &wl.existing,
                &wl.candidates,
                &spec,
                &Budget::unlimited(),
            )
        });
        let served = f64::from_bits(answers[i].value_bits);
        let agrees =
            oracle.is_ok_and(|o| (o.value - served).abs() <= 1e-6 * o.value.abs().max(1.0));
        if !agrees {
            eprintln!(
                "MISMATCH: request {} `{}` differs from the brute-force oracle",
                i,
                reqs[i].body()
            );
            mismatches.fetch_add(1, Ordering::Relaxed);
        }
    }
    (mismatches.into_inner(), build_us)
}

/// Indices (across the concatenated windows) and answers of every 200.
fn answered(windows: &[&Window]) -> (Vec<usize>, Vec<Answer>) {
    let mut idx = Vec::new();
    let mut out = Vec::new();
    let mut base = 0;
    for w in windows {
        for (i, s) in w.samples.iter().enumerate() {
            if let (200, Some(a)) = (s.status, s.answer) {
                idx.push(base + i);
                out.push(a);
            }
        }
        base += w.samples.len();
    }
    (idx, out)
}

fn sink_delta(before: &ObsSink, after: &ObsSink, p: Phase) -> u64 {
    after.span(p).self_ns.saturating_sub(before.span(p).self_ns)
}

/// Runs one serve workload: set-up, the timed window and ladder (or, when
/// traced, an untraced and a traced replay of one window), the answer
/// check, and the metrics.
pub fn run(
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ ifls_indoor::fnv1a(w.name.as_bytes()));
    // Every set-up but the last is only timed.
    let mut times = Vec::new();
    for _ in 1..w.setups {
        times.push(with_deployment(w, work, |_, t| t)?);
    }
    let grace = Duration::from_secs_f64(w.p99_limit_ms / 1e3);
    let mut out = Outcome::default();
    let mut door_dist_ns = 0.0;
    with_deployment(w, work, |dep, t| {
        times.push(t);
        if trace {
            run_traced(w, dep, grace, seconds, &mut rng, &mut out)?;
            door_dist_ns = common::door_dist_ns(&dep.tree, seed);
            Ok(())
        } else {
            run_timed(w, dep, grace, seconds, &mut rng, &mut out)
        }
    })??;
    if trace {
        let med = |f: &dyn Fn(&SetupTimes) -> f64| median(times.iter().map(f).collect());
        out.push("venues.build_ms", med(&|t| ms(t.venue)), "ms");
        out.push("viptree.build_ms", med(&|t| ms(t.build)), "ms");
        out.push("viptree.warm_build_ms", med(&|t| ms(t.warm)), "ms");
        out.push("viptree.snapshot_save_ms", med(&|t| ms(t.save)), "ms");
        out.push(
            "viptree.snapshot_load_ms",
            med(&|t| t.load_ns as f64 / 1e6),
            "ms",
        );
        out.push(
            "viptree.snapshot_bytes",
            med(&|t| t.snapshot_bytes as f64),
            "bytes",
        );
        out.push("viptree.warm_bytes", med(&|t| t.warm_bytes as f64), "bytes");
        out.push("serve.ready_ms", med(&|t| ms(t.ready)), "ms");
        out.push("viptree.door_dist_ns", door_dist_ns, "ns");
    } else {
        let setup_s = median(times.iter().map(|t| t.total.as_secs_f64()).collect());
        out.push("setup_s", setup_s, "s");
    }
    Ok(out)
}

fn run_timed(
    w: &ServeWorkload,
    dep: &Deployment<'_>,
    grace: Duration,
    seconds: f64,
    rng: &mut StdRng,
    out: &mut Outcome,
) -> Result<(), String> {
    let addr = dep.server.addr();
    let seconds = seconds.max(MIN_SAMPLES / w.rate_qps);
    let (reqs, arrivals) = schedule(w, rng, w.rate_qps, seconds);
    let (nominal, _) = timed("window.nominal", None, || {
        run_window(addr, &reqs, &arrivals, grace, 0)
    });
    if !nominal.sustained() {
        return Err(format!(
            "invalid run: the generator fell behind at the nominal {} req/s (lateness p99 {:.1} ms, backlog max {})",
            w.rate_qps,
            pct(&nominal.lateness_ms(), 0.99),
            nominal.backlog_max
        ));
    }
    let p99 = nominal.latency_pct_ms(0.99);
    // The ladder: the nominal window is its first step. A step that passes
    // sustained its offered rate. The first step that fails saturates the
    // daemon, so its answer rate is the daemon's capacity: the highest
    // arrival rate it can serve without a growing backlog. `max_rate_qps`
    // is the highest answer rate over the steps run.
    let mut max_rate = nominal.sustained_rate();
    let mut all_reqs = reqs.clone();
    let mut windows = vec![nominal];
    if p99 <= w.p99_limit_ms && windows[0].failures() == 0 {
        for &rate in w.ladder_qps {
            let (step_reqs, step_arrivals) = schedule(w, rng, rate, w.step_s);
            let (step, _) = timed("window.ladder", None, || {
                run_window(
                    addr,
                    &step_reqs,
                    &step_arrivals,
                    grace,
                    all_reqs.len() as u64,
                )
            });
            all_reqs.extend(step_reqs);
            let pass = step.failures() == 0
                && step.latency_pct_ms(0.99) <= w.p99_limit_ms
                && step.sustained();
            let step_rate = step.sustained_rate();
            eprintln!(
                "{}: ladder step {rate} req/s: p99 {:.1} ms, {} failed, sustained {step_rate:.1} req/s => {}",
                w.name,
                step.latency_pct_ms(0.99),
                step.failures(),
                if pass { "pass" } else { "fail" }
            );
            windows.push(step);
            max_rate = f64::max(max_rate, step_rate);
            if !pass {
                break;
            }
        }
    }
    let nominal = &windows[0];
    // Every nominal answer is re-solved; ladder answers are sampled (one
    // in LADDER_CHECK_EVERY from a seeded offset) to bound the run time.
    let refs: Vec<&Window> = windows.iter().collect();
    let (idx, answers) = answered(&refs);
    let offset = rng.random_range(0..LADDER_CHECK_EVERY);
    let (idx, answers): (Vec<usize>, Vec<Answer>) = idx
        .into_iter()
        .zip(answers)
        .filter(|&(i, _)| i < reqs.len() || i % LADDER_CHECK_EVERY == offset)
        .unzip();
    let checked: Vec<&Req> = idx.iter().map(|&i| &all_reqs[i]).collect();
    let ((mismatches, _), _) = timed("check", None, || check(dep, &checked, &answers, rng));
    // Ladder steps may fail above capacity; the nominal window may not.
    let nominal_failed = nominal.failures();
    if nominal_failed > 0 {
        eprintln!("FAILED: {nominal_failed} requests of the nominal window got no 200 answer");
    }
    out.attempted = windows.iter().map(Window::sent).sum();
    out.failed = windows.iter().map(Window::sent_failures).sum::<u64>() + mismatches;
    out.correct = mismatches == 0 && nominal_failed == 0;
    eprintln!(
        "{}: nominal {} req/s x {:.0} s: {} samples, lateness p99 {:.3} ms, backlog max {}; ladder reached {:.1} req/s; {} answers checked",
        w.name,
        w.rate_qps,
        seconds,
        nominal.samples.len(),
        pct(&nominal.lateness_ms(), 0.99),
        nominal.backlog_max,
        max_rate,
        answers.len()
    );
    out.push("latency_p50_ms", nominal.latency_pct_ms(0.5), "ms");
    out.push("latency_p99_ms", p99, "ms");
    out.push("max_rate_qps", max_rate, "1/s");
    out.push("throughput_qps", nominal.answer_rate(), "1/s");
    out.push("peak_rss_mb", common::peak_rss_mb(), "MB");
    Ok(())
}

fn run_traced(
    w: &ServeWorkload,
    dep: &Deployment<'_>,
    grace: Duration,
    seconds: f64,
    rng: &mut StdRng,
    out: &mut Outcome,
) -> Result<(), String> {
    // The same schedule twice: untraced, then traced, so the difference
    // between the two is the tracing overhead.
    let addr = dep.server.addr();
    let (reqs, arrivals) = schedule(w, rng, w.rate_qps, seconds / 2.0);
    common::set_tracing(false);
    let plain = run_window(addr, &reqs, &arrivals, grace, 0);
    common::set_tracing(true);
    let before = dep.server.metrics_sink();
    let (traced, _) = timed("window.nominal", None, || {
        run_window(addr, &reqs, &arrivals, grace, 0)
    });
    let after = dep.server.metrics_sink();
    if !plain.sustained() || !traced.sustained() {
        return Err(format!(
            "invalid run: the generator fell behind at the nominal {} req/s",
            w.rate_qps
        ));
    }
    let (idx, answers) = answered(&[&traced]);
    let checked: Vec<&Req> = idx.iter().map(|&i| &reqs[i]).collect();
    let ((mismatches, build_us), _) = timed("check", None, || check(dep, &checked, &answers, rng));
    let nominal_failed = plain.failures() + traced.failures();
    if nominal_failed > 0 {
        eprintln!("FAILED: {nominal_failed} requests got no 200 answer");
    }
    out.attempted = plain.sent() + traced.sent();
    out.failed = plain.sent_failures() + traced.sent_failures() + mismatches;
    out.correct = mismatches == 0 && nominal_failed == 0;

    let q = answers.len().max(1) as f64;
    let sum = |f: fn(&Answer) -> u64| answers.iter().map(f).sum::<u64>() as f64;
    let solve_ms = |o: Option<Objective>| {
        let v: Vec<f64> = idx
            .iter()
            .zip(&answers)
            .filter(|(&i, _)| o.is_none_or(|o| reqs[i].objective == o))
            .map(|(_, a)| a.elapsed_ns as f64 / 1e6)
            .collect();
        sorted(v)
    };
    let all = solve_ms(None);
    out.push("core.solve_p50_ms", pct(&all, 0.5), "ms");
    out.push("core.solve_p99_ms", pct(&all, 0.99), "ms");
    out.push(
        "core.solve_ms.minmax",
        pct(&solve_ms(Some(Objective::MinMax)), 0.5),
        "ms",
    );
    out.push(
        "core.solve_ms.mindist",
        pct(&solve_ms(Some(Objective::MinDist)), 0.5),
        "ms",
    );
    out.push(
        "core.solve_ms.maxsum",
        pct(&solve_ms(Some(Objective::MaxSum)), 0.5),
        "ms",
    );
    out.push(
        "core.dist_computations_per_query",
        sum(|a| a.dist) / q,
        "count",
    );
    let clients: usize = idx.iter().map(|&i| reqs[i].clients).sum();
    out.push(
        "core.clients_pruned_frac",
        sum(|a| a.pruned) / clients.max(1) as f64,
        "1",
    );
    out.push(
        "core.facilities_retrieved_per_query",
        sum(|a| a.retrieved) / q,
        "count",
    );
    let lookups = sum(|a| a.hits) + sum(|a| a.misses);
    out.push(
        "viptree.cache_hit_rate",
        sum(|a| a.hits) / lookups.max(1.0),
        "1",
    );
    out.push(
        "viptree.cache_misses_per_query",
        sum(|a| a.misses) / q,
        "count",
    );
    for p in Phase::QUERY {
        let name = format!("core.phase.{}_self_ms", p.name());
        out.push(&name, sink_delta(&before, &after, p) as f64 / 1e6 / q, "ms");
    }
    out.push("core.parallel.batch_wall_ms", 0.0, "ms");
    out.push("core.parallel.busy_frac", 0.0, "1");
    out.push("core.parallel.steals", 0.0, "1/batch");
    let overhead_us = sorted(
        traced
            .samples
            .iter()
            .filter_map(|s| {
                s.answer
                    .map(|a| (s.done_ns - s.dispatch_ns) as f64 / 1e3 - a.elapsed_ns as f64 / 1e3)
            })
            .collect(),
    );
    out.push("serve.overhead_p50_us", pct(&overhead_us, 0.5), "us");
    out.push("serve.overhead_p99_us", pct(&overhead_us, 0.99), "us");
    let queue_wait = after
        .histogram("serve_queue_wait_ns")
        .map_or(0, |h| h.p50_ns());
    out.push("serve.queue_wait_p50_us", queue_wait as f64 / 1e3, "us");
    let shed = after.counter(Counter::RequestsShed) - before.counter(Counter::RequestsShed);
    out.push("serve.shed", shed as f64, "count");
    out.push("serve.non_200", traced.sent_failures() as f64, "count");
    out.push("workloads.build_p50_us", median(build_us), "us");
    out.push(
        "bench.lateness_p99_ms",
        pct(&traced.lateness_ms(), 0.99),
        "ms",
    );
    out.push("bench.backlog_max", traced.backlog_max as f64, "count");
    out.push(
        "bench.failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "1",
    );
    let p50 = |w: &Window| w.latency_pct_ms(0.5);
    out.push(
        "obs.trace_overhead_frac",
        p50(&traced) / p50(&plain) - 1.0,
        "1",
    );
    Ok(())
}
