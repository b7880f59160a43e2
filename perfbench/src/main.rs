//! The repository's end-to-end benchmark. See `README.md` beside this
//! crate for the workloads, the metrics and how to run it.
//!
//! ```text
//! perfbench --workload read_hot|ingest_churn|cold_scan --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a report, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`. Exits non-zero on a wrong answer.

mod cold_scan;
mod data;
mod load;
mod report;
mod served;
mod speed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use load::Ladder;
use report::{Outcome, END_TO_END, PER_LAYER, UNGATED};
use served::Capacity;

/// What every workload gets from the command line.
pub struct Env {
    /// Where this run writes its files, under `.bench_work/`.
    pub work: PathBuf,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether spans are recorded.
    pub trace: bool,
    /// Generator threads: the machine's available parallelism.
    pub lanes: usize,
    /// Origin of span timestamps.
    pub epoch: Instant,
}

/// Peak resident set size of this process.
pub mod rss {
    /// Resets the peak (`VmHWM`) to the current RSS.
    pub fn reset_peak() {
        // Linux-only; where it is missing the peak covers the whole process.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    /// `VmHWM` in MB.
    pub fn peak_mb() -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

/// `read_hot`: reads only, mostly hits on a standing set.
const READ_HOT: served::Plan = served::Plan {
    history: data::HistoryShape {
        nodes: 300,
        seals: 23,
        events_per_seal: 3_000,
        checkpoint_every: 8,
    },
    read_rate: 300.0,
    fixed_share: 0.67,
    windows: 12,
    cold_per_mille: 100,
    capacity: Capacity::Bursts { reads: 600 },
    churn: false,
    seal_rate: 100.0,
    probe_seals: 600,
    batch: 2_000,
    checkpoint_every: 40,
};

/// `ingest_churn`: a writer sealing at a fixed rate with one subscriber,
/// and a query lane reading the standing set.
const INGEST_CHURN: served::Plan = served::Plan {
    history: data::HistoryShape {
        nodes: 120,
        seals: 23,
        events_per_seal: 6_000,
        checkpoint_every: 8,
    },
    read_rate: 400.0,
    fixed_share: 0.5,
    windows: 6,
    cold_per_mille: 0,
    capacity: Capacity::Ladder {
        ladder: Ladder {
            base: 50.0,
            ratio: 1.1,
            steps: 40,
            limit_ms: 100.0,
            late_tolerance_ms: 5.0,
        },
        share: 0.4,
    },
    churn: true,
    seal_rate: 21.0,
    probe_seals: 0,
    batch: 500,
    checkpoint_every: 100,
};

/// `cold_scan`: the Figure-5 graph at 20k nodes x 8 snapshots x 160k edges.
const COLD_SCAN: cold_scan::ScanPlan = cold_scan::ScanPlan {
    nodes: 20_000,
    snapshots: 8,
    edges: 160_000,
    shared_sources: 32,
    shared_pool: 96,
    ingest_seals: 150,
    batch: 2_000,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["read_hot", "ingest_churn", "cold_scan"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_pass(args: &Args, trace: bool) -> std::io::Result<Outcome> {
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        work: PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, args.seed)),
        seed: args.seed,
        seconds: args.seconds,
        trace,
        lanes: lanes.max(2),
        epoch: Instant::now(),
    };
    if env.work.exists() {
        std::fs::remove_dir_all(&env.work)?;
    }
    std::fs::create_dir_all(&env.work)?;
    let outcome = match args.workload.as_str() {
        "read_hot" => served::run(&READ_HOT, &env),
        "ingest_churn" => served::run(&INGEST_CHURN, &env),
        _ => cold_scan::run(&COLD_SCAN, &env),
    }?;
    if !trace {
        std::fs::remove_dir_all(&env.work)?;
    }
    Ok(outcome)
}

fn print_metrics(title: &str, outcome: &Outcome) {
    println!("{title}");
    for (name, unit) in END_TO_END {
        println!(
            "  {name:<16} {:>14.4} {unit}",
            outcome.e2e.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    for (name, unit) in UNGATED {
        println!(
            "  {name:<16} {:>14.4} {unit} (not gated)",
            outcome.e2e.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    println!(
        "  {:<16} {:>14.6} fraction ({} failed of {} attempted, {} wrong answers)",
        "error_rate",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted,
        outcome.wrong
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} pool.threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads()
    );
    let run = |trace| match run_pass(&args, trace) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!(
                "perfbench: the {} run could not complete: {err}",
                args.workload
            );
            std::process::exit(3);
        }
    };
    let plain = run(false);
    print_metrics("end-to-end (untraced):", &plain);
    let (correct, line) = if args.trace {
        let mut traced = run(true);
        print_metrics("end-to-end (traced):", &traced);
        let primary = if args.workload == "cold_scan" {
            "searches_per_s"
        } else {
            "query_p50_ms"
        };
        let (u, t) = (plain.e2e[primary], traced.e2e[primary]);
        let overhead = if primary == "searches_per_s" {
            u / t - 1.0
        } else {
            t / u - 1.0
        };
        traced.layer("trace.overhead_pct", overhead * 100.0);
        traced.layer("pool.threads", rayon::current_num_threads() as f64);
        println!(
            "tracing overhead on {primary}: {:+.2}% (traced {t:.4} vs untraced {u:.4})",
            overhead * 100.0
        );
        for (name, _) in END_TO_END.iter().chain(&UNGATED) {
            let (u, t) = (plain.e2e[name], traced.e2e[name]);
            println!("  overhead {name:<16} traced - untraced = {:+.4}", t - u);
        }
        println!("per-layer (traced):");
        for (name, unit) in PER_LAYER {
            println!(
                "  {name:<28} {:>14.4} {unit}",
                traced.layer.get(name).copied().unwrap_or(0.0)
            );
        }
        let correct = plain.wrong == 0 && traced.wrong == 0;
        let line = report::result_line(
            correct,
            traced.attempted,
            traced.failed,
            &PER_LAYER,
            &traced.layer,
        );
        (correct, line)
    } else {
        let correct = plain.wrong == 0;
        (
            correct,
            report::result_line(
                correct,
                plain.attempted,
                plain.failed,
                &END_TO_END,
                &plain.e2e,
            ),
        )
    };
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
