//! Pieces every workload shares: the benchmark's own span recorder,
//! percentiles, the result line, the layer probes that need no workload,
//! and the process memory probe.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use ifls_indoor::{DoorId, PartitionId};
use ifls_rng::StdRng;
use ifls_viptree::{NodeId, VipTree};

/// Worker threads everywhere: the daemon pool, the batch runner, the
/// index build and the answer check. The reference machine has 2 cores.
pub const THREADS: usize = 2;

/// One closed span of the benchmark's own trace.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    req: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Turns the benchmark's span recording on (the `--trace 1` run).
pub fn set_tracing(on: bool) {
    epoch();
    TRACING.store(on, Ordering::SeqCst);
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// The innermost open span on this thread, for handing to a spawned
/// thread through [`adopt`].
pub fn current_span() -> Option<u64> {
    OPEN.with(|s| s.borrow().last().copied())
}

/// Makes `parent` the enclosing span of everything this (freshly spawned)
/// thread records.
pub fn adopt(parent: Option<u64>) {
    if let Some(p) = parent {
        OPEN.with(|s| s.borrow_mut().push(p));
    }
}

/// Runs `f`, returning its result and wall time. With tracing on, the call
/// is also recorded as a span named `name` under this thread's innermost
/// open span, tagged with request id `req`.
pub fn timed<T>(name: &'static str, req: Option<u64>, f: impl FnOnce() -> T) -> (T, Duration) {
    if !tracing() {
        let start = Instant::now();
        let out = f();
        return (out, start.elapsed());
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = current_span();
    OPEN.with(|s| s.borrow_mut().push(id));
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    OPEN.with(|s| s.borrow_mut().pop());
    let start_ns = start.duration_since(epoch()).as_nanos() as u64;
    SPANS.lock().expect("span list poisoned").push(Span {
        id,
        parent,
        name,
        req,
        start_ns,
        end_ns: start_ns + elapsed.as_nanos() as u64,
    });
    (out, elapsed)
}

/// Self time per span name: `(name, spans, total ns, self ns)`, where a
/// span's self time is its duration minus the union of its children's
/// intervals (children on parallel threads may overlap).
pub fn span_self_times() -> Vec<(&'static str, u64, u64, u64)> {
    let spans = SPANS.lock().expect("span list poisoned");
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> = Default::default();
    for s in spans.iter() {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let e = by_name.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered.min(dur);
    }
    by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect()
}

/// Writes every recorded span as one JSON object per line.
pub fn write_span_file(path: &Path) -> std::io::Result<()> {
    let spans = SPANS.lock().expect("span list poisoned");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.req)
        )?;
    }
    out.flush()
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    pct(&sorted(v), 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean wall time of the two scalar distance kernels over a seeded sample
/// of `(door, partition)` and `(partition, node)` pairs, in ns per call.
pub fn door_dist_ns(tree: &VipTree<'_>, seed: u64) -> f64 {
    const CALLS: usize = 2_000;
    let venue = tree.venue();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd15);
    let doors = venue.num_doors() as u32;
    let parts = venue.num_partitions() as u32;
    let nodes = tree.num_nodes() as u32;
    let pairs: Vec<(u32, u32, u32)> = (0..CALLS)
        .map(|_| {
            (
                rng.random_range(0..doors),
                rng.random_range(0..parts),
                rng.random_range(0..nodes),
            )
        })
        .collect();
    let (sum, took) = timed("viptree.door_dist_sample", None, || {
        let mut sum = 0.0;
        for &(d, p, n) in &pairs {
            sum += tree.door_dist_from(DoorId::new(d), PartitionId::new(p));
            sum += tree.min_dist_partition_to_node(PartitionId::new(p), NodeId::new(n));
        }
        sum
    });
    std::hint::black_box(sum);
    took.as_nanos() as f64 / (2 * CALLS) as f64
}

/// One benchmark run's verdict: the last line of standard output.
#[derive(Default)]
pub struct Outcome {
    /// Every checked answer matched its oracle, and every request of the
    /// measured window (every batch, on the batch workload) was answered.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Reads back a result line printed by [`Outcome::json`].
    pub fn from_json(v: &crate::json::Value) -> Result<Outcome, String> {
        let bad = || "malformed result line".to_string();
        let count = |k| {
            v.get(k)
                .and_then(crate::json::Value::as_f64)
                .map(|n| n as u64)
                .ok_or_else(bad)
        };
        let mut out = Outcome {
            correct: v
                .get("correct")
                .and_then(crate::json::Value::as_bool)
                .ok_or_else(bad)?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: Vec::new(),
        };
        for (name, m) in v
            .get("metrics")
            .and_then(crate::json::Value::as_object)
            .ok_or_else(bad)?
        {
            let value = match m.get("value") {
                Some(crate::json::Value::Null) => f64::INFINITY,
                v => v.and_then(crate::json::Value::as_f64).ok_or_else(bad)?,
            };
            let unit = m
                .get("unit")
                .and_then(crate::json::Value::as_str)
                .ok_or_else(bad)?;
            out.push(name, value, unit);
        }
        Ok(out)
    }

    /// Writes the human table (one metric per line with its unit).
    pub fn print_table(&self, workload: &str) {
        println!(
            "workload {workload}: attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("  {:<40} {frac:>16.6} 1", "failed_frac");
        for (name, value, unit) in &self.metrics {
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }

    /// The result line. A value that is not finite (the latency of a
    /// window with a failed request) is written as `null`, never as a
    /// number; such a run is not `correct` and exits non-zero.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}
