//! The cold batch workload: [`BatchRunner`] over an MZB tree built without
//! a warm tier, so the live distance kernels, the per-worker `DistCache`,
//! shared `ClientLegs` and work stealing all run. A closed loop: the next
//! batch starts when the previous one returns.

use std::time::{Duration, Instant};

use ifls_core::api::{self, Algorithm, Objective, SolveSpec};
use ifls_core::parallel::{BatchRunner, IflsQuery, WorkerPanic};
use ifls_core::{Budget, EfficientConfig, QueryStats};
use ifls_indoor::Venue;
use ifls_obs::{Counter, ObsSink, Phase};
use ifls_rng::StdRng;
use ifls_venues::NamedVenue;
use ifls_viptree::{VipTree, VipTreeConfig};
use ifls_workloads::WorkloadBuilder;

use crate::common::{self, median, ms, pct, sorted, timed, Outcome, THREADS};

pub struct BatchWorkload {
    pub name: &'static str,
    pub venue: NamedVenue,
    /// Full set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Queries per `BatchRunner` call.
    pub batch: usize,
    /// Clients shared by every query of a batch.
    pub clients: usize,
    /// Facility sites per batch; each query draws its `fe` existing and
    /// `fn_` candidate facilities from a fresh shuffle of this pool.
    pub pool: usize,
    pub fe: usize,
    pub fn_: usize,
}

pub const MZB_COLD: BatchWorkload = BatchWorkload {
    name: "batch-mzb-cold",
    venue: NamedVenue::MZB,
    setups: 15,
    batch: 16,
    clients: 20,
    pool: 24,
    fe: 8,
    fn_: 12,
};

const OBJECTIVES: [Objective; 3] = [Objective::MinMax, Objective::MinDist, Objective::MaxSum];

/// One generated batch: every query shares the client set.
struct Batch {
    objective: Objective,
    queries: Vec<IflsQuery>,
}

impl Batch {
    fn draw(w: &BatchWorkload, venue: &Venue, index: usize, rng: &mut StdRng) -> (Batch, Duration) {
        let (base, took) = timed("workloads.build", Some(index as u64), || {
            WorkloadBuilder::new(venue)
                .clients_uniform(w.clients)
                .existing_uniform(w.fe)
                .candidates_uniform(w.pool - w.fe)
                .seed(rng.next_u64())
                .build()
        });
        let mut pool = [base.existing, base.candidates].concat();
        let queries = (0..w.batch)
            .map(|_| {
                for a in 0..pool.len() {
                    let b = rng.random_range(a..pool.len());
                    pool.swap(a, b);
                }
                IflsQuery {
                    clients: base.clients.clone(),
                    existing: pool[..w.fe].to_vec(),
                    candidates: pool[w.fe..w.fe + w.fn_].to_vec(),
                }
            })
            .collect();
        let objective = OBJECTIVES[index % OBJECTIVES.len()];
        (Batch { objective, queries }, took)
    }
}

/// A query's answer (partition index, objective bits) and its stats.
type Answered = (Option<usize>, u64, QueryStats);

fn run_batch(runner: &BatchRunner<'_, '_>, b: &Batch) -> Result<Vec<Answered>, WorkerPanic> {
    let budget = Budget::unlimited();
    let q = &b.queries;
    Ok(match b.objective {
        Objective::MinMax => runner
            .try_run_minmax(q, &budget)?
            .into_iter()
            .map(|o| (o.answer.map(|p| p.index()), o.objective.to_bits(), o.stats))
            .collect(),
        Objective::MinDist => runner
            .try_run_mindist(q, &budget)?
            .into_iter()
            .zip(q)
            .map(|(o, q)| {
                (
                    o.answer.map(|p| p.index()),
                    o.average(q.clients.len()).to_bits(),
                    o.stats,
                )
            })
            .collect(),
        Objective::MaxSum => runner
            .try_run_maxsum(q, &budget)?
            .into_iter()
            .map(|o| {
                (
                    o.answer.map(|p| p.index()),
                    (o.wins as f64).to_bits(),
                    o.stats,
                )
            })
            .collect(),
    })
}

/// One closed-loop pass: results per batch, `None` for a failed batch.
#[derive(Default)]
struct Pass {
    walls: Vec<Duration>,
    results: Vec<Option<Vec<Answered>>>,
    steals: u64,
    phases: ObsSink,
}

impl Pass {
    /// Runs batch `b` (the pass's `i`-th) and records its outcome and the
    /// solver's observability counters.
    fn run(&mut self, runner: &BatchRunner<'_, '_>, b: &Batch, i: usize) {
        let (res, wall) = timed("core.batch_run", Some(i as u64), || run_batch(runner, b));
        let local = ifls_obs::take_local();
        self.steals += local.counter(Counter::Steals);
        self.phases.merge(&local);
        self.walls.push(wall);
        self.results.push(res.ok());
    }
}

/// Re-solves batch `bi` one query at a time through `api::solve` (answer
/// and objective bits must match the batch outcome), and its first query
/// against the brute-force oracle.
fn check(tree: &VipTree<'_>, batches: &[Batch], pass: &Pass, bi: usize) -> u64 {
    let b = &batches[bi];
    let Some(got) = &pass.results[bi] else {
        return 0;
    };
    let spec = SolveSpec {
        objective: b.objective,
        ..SolveSpec::default()
    };
    let mut mismatches = 0;
    for (qi, (q, (answer, bits, _))) in b.queries.iter().zip(got).enumerate() {
        let (seq, _) = timed("core.solve", Some(bi as u64), || {
            api::solve(
                tree,
                &q.clients,
                &q.existing,
                &q.candidates,
                &spec,
                &Budget::unlimited(),
            )
        });
        if !seq.is_ok_and(|s| s.answer.map(|p| p.index()) == *answer && s.value.to_bits() == *bits)
        {
            eprintln!("MISMATCH: batch {bi} query {qi} differs from sequential api::solve");
            mismatches += 1;
        }
    }
    let q = &b.queries[0];
    let brute = SolveSpec {
        algorithm: Algorithm::Brute,
        ..spec
    };
    let (oracle, _) = timed("core.solve_brute", Some(bi as u64), || {
        api::solve(
            tree,
            &q.clients,
            &q.existing,
            &q.candidates,
            &brute,
            &Budget::unlimited(),
        )
    });
    let served = f64::from_bits(got[0].1);
    if !oracle.is_ok_and(|o| (o.value - served).abs() <= 1e-6 * o.value.abs().max(1.0)) {
        eprintln!("MISMATCH: batch {bi} query 0 differs from the brute-force oracle");
        mismatches += 1;
    }
    mismatches
}

/// Wall times of one set-up.
struct SetupTimes {
    total: Duration,
    venue: Duration,
    build: Duration,
}

/// One set-up: the venue and a tree without a warm tier. Runs `f` on the
/// tree; the tree and the venue are dropped when it returns.
fn with_tree<R>(w: &BatchWorkload, f: impl FnOnce(&VipTree<'_>, SetupTimes) -> R) -> R {
    let started = Instant::now();
    let (venue, venue_took) = timed("venues.build", None, || w.venue.build());
    let (tree, build_took) = timed("viptree.build_with_threads", None, || {
        VipTree::build_with_threads(&venue, VipTreeConfig::default(), THREADS)
    });
    let times = SetupTimes {
        total: started.elapsed(),
        venue: venue_took,
        build: build_took,
    };
    f(&tree, times)
}

/// Runs the batch workload: set-ups, closed-loop batches for `seconds`
/// (traced: an untraced and a traced replay of the same batches, half the
/// time each), a sampled answer check, and the metrics.
pub fn run(w: &BatchWorkload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    // Every set-up but the last is only timed.
    let mut setups: Vec<SetupTimes> = (1..w.setups).map(|_| with_tree(w, |_, t| t)).collect();
    with_tree(w, |tree, t| {
        setups.push(t);
        measure(w, tree, &setups, seed, seconds, trace)
    })
}

fn measure(
    w: &BatchWorkload,
    tree: &VipTree<'_>,
    setups: &[SetupTimes],
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ ifls_indoor::fnv1a(w.name.as_bytes()));
    let runner = BatchRunner::with_threads(tree, THREADS).config(EfficientConfig::default());

    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let started = Instant::now();
    let mut batches = Vec::new();
    let mut build_us = Vec::new();
    let mut pass = Pass::default();
    common::set_tracing(false);
    while started.elapsed() < budget {
        let (b, took) = Batch::draw(w, tree.venue(), batches.len(), &mut rng);
        build_us.push(took.as_secs_f64() * 1e6);
        pass.run(&runner, &b, batches.len());
        batches.push(b);
    }
    let untraced_wall: Duration = pass.walls.iter().sum();
    if trace {
        common::set_tracing(true);
        ifls_obs::set_enabled(true);
        let _ = ifls_obs::take_local();
        pass = Pass::default();
        timed("window.batches", None, || {
            for (i, b) in batches.iter().enumerate() {
                pass.run(&runner, b, i);
            }
        });
        ifls_obs::set_enabled(false);
    }
    // Sequential cold solves cost several times the batch, so one seeded
    // batch is checked in full.
    let which = rng.random_range(0..batches.len());
    let (mismatches, _) = timed("check", None, || check(tree, &batches, &pass, which));

    let queries = (batches.len() * w.batch) as u64;
    let failed_batches = pass.results.iter().filter(|r| r.is_none()).count() as u64;
    if failed_batches > 0 {
        eprintln!("FAILED: {failed_batches} batches returned no answers");
    }
    let mut out = Outcome {
        correct: mismatches == 0 && failed_batches == 0,
        attempted: queries,
        failed: failed_batches * w.batch as u64 + mismatches,
        metrics: Vec::new(),
    };
    let wall: Duration = pass.walls.iter().sum();
    let walls_ms = sorted(pass.walls.iter().map(|&d| ms(d)).collect());
    let stats: Vec<&QueryStats> = pass
        .results
        .iter()
        .flatten()
        .flatten()
        .map(|(_, _, s)| s)
        .collect();
    eprintln!(
        "{}: {} batches x {} queries in {:.2} s; batch {which} checked",
        w.name,
        batches.len(),
        w.batch,
        wall.as_secs_f64(),
    );
    if !trace {
        out.push(
            "setup_s",
            median(setups.iter().map(|s| s.total.as_secs_f64()).collect()),
            "s",
        );
        // A query's answer reaches the caller when its batch call returns:
        // its latency is the wall time of that call. Every batch holds the
        // same number of queries, so these are percentiles over batches.
        out.push("latency_p50_ms", pct(&walls_ms, 0.5), "ms");
        out.push("latency_p99_ms", pct(&walls_ms, 0.99), "ms");
        // A closed loop runs at its highest sustainable rate, so this is
        // the throughput again.
        let qps = (stats.len() as f64) / wall.as_secs_f64().max(1e-9);
        out.push("max_rate_qps", qps, "1/s");
        out.push("throughput_qps", qps, "1/s");
        out.push("peak_rss_mb", common::peak_rss_mb(), "MB");
        return Ok(out);
    }

    let q = stats.len().max(1) as f64;
    let sum = |f: fn(&QueryStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let solve = sorted(stats.iter().map(|s| ms(s.elapsed)).collect());
    let solve_of = |o: Objective| {
        let v: Vec<f64> = batches
            .iter()
            .zip(&pass.results)
            .filter(|(b, _)| b.objective == o)
            .flat_map(|(_, r)| r.iter().flatten().map(|(_, _, s)| ms(s.elapsed)))
            .collect();
        median(v)
    };
    let med = |f: fn(&SetupTimes) -> Duration| median(setups.iter().map(|s| ms(f(s))).collect());
    out.push("venues.build_ms", med(|s| s.venue), "ms");
    out.push("viptree.build_ms", med(|s| s.build), "ms");
    for name in [
        "viptree.warm_build_ms",
        "viptree.snapshot_save_ms",
        "viptree.snapshot_load_ms",
        "viptree.snapshot_bytes",
        "viptree.warm_bytes",
        "serve.ready_ms",
    ] {
        out.push(
            name,
            0.0,
            if name.ends_with("bytes") {
                "bytes"
            } else {
                "ms"
            },
        );
    }
    out.push(
        "viptree.door_dist_ns",
        common::door_dist_ns(tree, seed),
        "ns",
    );
    out.push("core.solve_p50_ms", pct(&solve, 0.5), "ms");
    out.push("core.solve_p99_ms", pct(&solve, 0.99), "ms");
    out.push("core.solve_ms.minmax", solve_of(Objective::MinMax), "ms");
    out.push("core.solve_ms.mindist", solve_of(Objective::MinDist), "ms");
    out.push("core.solve_ms.maxsum", solve_of(Objective::MaxSum), "ms");
    out.push(
        "core.dist_computations_per_query",
        sum(|s| s.dist_computations) / q,
        "count",
    );
    out.push(
        "core.clients_pruned_frac",
        sum(|s| s.clients_pruned) / (q * w.clients as f64),
        "1",
    );
    out.push(
        "core.facilities_retrieved_per_query",
        sum(|s| s.facilities_retrieved) / q,
        "count",
    );
    let lookups = sum(|s| s.cache_hits) + sum(|s| s.cache_misses);
    out.push(
        "viptree.cache_hit_rate",
        sum(|s| s.cache_hits) / lookups.max(1.0),
        "1",
    );
    out.push(
        "viptree.cache_misses_per_query",
        sum(|s| s.cache_misses) / q,
        "count",
    );
    for p in Phase::QUERY {
        let name = format!("core.phase.{}_self_ms", p.name());
        out.push(&name, pass.phases.span(p).self_ns as f64 / 1e6 / q, "ms");
    }
    out.push("core.parallel.batch_wall_ms", pct(&walls_ms, 0.5), "ms");
    let busy: Duration = stats.iter().map(|s| s.elapsed).sum();
    out.push(
        "core.parallel.busy_frac",
        busy.as_secs_f64() / (wall.as_secs_f64() * THREADS as f64).max(1e-9),
        "1",
    );
    out.push(
        "core.parallel.steals",
        pass.steals as f64 / batches.len().max(1) as f64,
        "1/batch",
    );
    for name in [
        "serve.overhead_p50_us",
        "serve.overhead_p99_us",
        "serve.queue_wait_p50_us",
    ] {
        out.push(name, 0.0, "us");
    }
    out.push("serve.shed", 0.0, "count");
    out.push("serve.non_200", 0.0, "count");
    out.push("workloads.build_p50_us", median(build_us), "us");
    out.push("bench.lateness_p99_ms", 0.0, "ms");
    out.push("bench.backlog_max", 0.0, "count");
    out.push(
        "bench.failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "1",
    );
    out.push(
        "obs.trace_overhead_frac",
        wall.as_secs_f64() / untraced_wall.as_secs_f64().max(1e-9) - 1.0,
        "1",
    );
    Ok(out)
}
