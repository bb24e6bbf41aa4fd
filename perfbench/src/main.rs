//! End-to-end benchmark of the IFLS workspace.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --steady <runs> [--seed <first>] [--seconds <s>]
//! ```
//!
//! Each workload runs in this process through the public API and prints a
//! metric table followed, as the last line of standard output, by one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` is the separate traced run
//! that reports the per-layer metrics and writes the benchmark's own spans
//! to `.perfbench_work/spans-<workload>-<seed>.jsonl`. A wrong answer makes
//! the exit code 1; a run whose generator fell behind at the nominal rate
//! is invalid and exits 3 without a result. `--steady N` runs one workload
//! N times on consecutive seeds, each in a child process, and prints each
//! end-to-end metric's median and quartile spread against its bound in
//! `BENCHMARK.json`. See `perfbench/README.md` for the workloads and
//! metrics.

mod batch;
mod common;
mod json;
mod serve;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use common::Outcome;

const WORKLOADS: [&str; 3] = [
    serve::MC_MIXED.name,
    serve::CPH_SMALL.name,
    batch::MZB_COLD.name,
];

/// Where runs write their snapshots and span files (inside the checkout).
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_one(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    common::set_tracing(trace);
    let out = match name {
        n if n == serve::MC_MIXED.name => serve::run(&serve::MC_MIXED, seed, seconds, trace, &work),
        n if n == serve::CPH_SMALL.name => {
            serve::run(&serve::CPH_SMALL, seed, seconds, trace, &work)
        }
        _ => batch::run(&batch::MZB_COLD, seed, seconds, trace),
    }?;
    if trace {
        let path = work.join(format!("spans-{name}-{seed}.jsonl"));
        common::write_span_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}; self time per span:", path.display());
        for (span, count, total, own) in common::span_self_times() {
            eprintln!(
                "  {span:<28} {count:>7} spans {:>12.3} ms total {:>12.3} ms self",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    Ok(out)
}

/// Runs one workload in a child process of this binary and returns its
/// parsed result line (printed, and exit code 1, even when an answer was
/// wrong).
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    json::parse(stdout.lines().last().unwrap_or("")).map_err(|_| {
        let stderr = String::from_utf8_lossy(&output.stderr);
        format!(
            "{workload} seed {seed} failed ({}): {}",
            output.status,
            stderr.lines().last().unwrap_or("")
        )
    })
}

/// Python's `statistics.quantiles(values, n=4)` (the default exclusive
/// method): the first and third quartiles.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let x = common::sorted(values.to_vec());
    let n = x.len();
    if n < 2 {
        return (x[0], x[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn steady(args: &Args, runs: usize) -> Result<(), String> {
    let spec =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = json::parse(&spec)?;
    let metrics = spec
        .get("end_to_end")
        .and_then(json::Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); metrics.len()];
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let v = child(&args.workload, seed, args.seconds, false)?;
        if v.get("correct").and_then(json::Value::as_bool) != Some(true) {
            return Err(format!("seed {seed}: an answer was wrong"));
        }
        for (m, vals) in metrics.iter().zip(values.iter_mut()) {
            let name = m.get("name").and_then(json::Value::as_str).unwrap_or("");
            let got = v
                .get("metrics")
                .and_then(|ms| ms.get(name))
                .and_then(|x| x.get("value"))
                .and_then(json::Value::as_f64);
            vals.push(got.ok_or_else(|| format!("seed {seed}: metric {name} missing"))?);
        }
        let line: Vec<String> = metrics
            .iter()
            .zip(&values)
            .map(|(m, vals)| {
                let name = m.get("name").and_then(json::Value::as_str).unwrap_or("");
                format!("{name}={}", vals[vals.len() - 1])
            })
            .collect();
        eprintln!("seed {seed}: {}", line.join(" "));
    }
    println!("{} over {runs} seeds from {}:", args.workload, args.seed);
    println!(
        "  {:<18} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (m, vals) in metrics.iter().zip(&values) {
        let name = m.get("name").and_then(json::Value::as_str).unwrap_or("");
        let bound = m.get("bound").and_then(json::Value::as_f64).unwrap_or(0.0);
        let med = common::median(vals.clone());
        let (q1, q3) = quartiles(vals);
        let spread = (q3 - q1) / med.abs().max(1e-12);
        let verdict = match spread {
            s if s <= bound / 3.0 => "steady",
            s if s <= bound => "within",
            _ => "WIDE",
        };
        println!(
            "  {name:<18} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6} {verdict}"
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return match steady(&args, runs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut combined = Outcome {
        correct: true,
        ..Outcome::default()
    };
    for name in &names {
        let out = if names.len() > 1 {
            // One process per workload, so each reports its own peak RSS.
            child(name, args.seed, args.seconds, args.trace).and_then(|v| Outcome::from_json(&v))
        } else {
            run_one(name, args.seed, args.seconds, args.trace)
        };
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(3);
            }
        };
        out.print_table(name);
        combined.correct &= out.correct;
        combined.attempted += out.attempted;
        combined.failed += out.failed;
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        for (m, v, u) in out.metrics {
            combined.metrics.push((format!("{prefix}{m}"), v, u));
        }
    }
    println!("{}", combined.json());
    if combined.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
