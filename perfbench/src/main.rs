//! Bellflower benchmark: one command, four workloads, end-to-end metrics from
//! an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload <serve-100k|fleet-tcp-100k|churn-100k|paper-sec5>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The human-readable account goes to standard error; the last line of
//! standard output is the JSON result object. `--smoke` runs the same code
//! at small sizes (seconds, not minutes) for the benchmark's own tests.

mod checks;
mod churn;
mod fleet;
mod inputs;
mod layers;
mod paper;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use std::time::Instant;

use report::Report;

/// Input sizes of a run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Elements of the serving repository (serve, fleet, churn).
    pub elements: usize,
    /// Elements of each Sec. 5 repository.
    pub paper_elements: usize,
    /// Sec. 5 repositories in the batch.
    pub paper_pool: usize,
    /// Sec. 5 repositories whose tree variant is cross-checked against the
    /// exhaustive generator.
    pub exhaustive_checks: usize,
    /// Queries served before measuring starts.
    pub warmup: usize,
    /// Queries replayed through the string-path matcher after the run.
    pub string_replays: usize,
    /// Milliseconds between two churn mutation batches.
    pub churn_interval_ms: u64,
    /// Probe queries compared against a rebuilt engine after churn.
    pub probes: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        elements: 100_000,
        paper_elements: 9_759,
        paper_pool: 12,
        exhaustive_checks: 2,
        warmup: 64,
        string_replays: 8,
        churn_interval_ms: 200,
        probes: 32,
        setups: 7,
    };

    pub const SMOKE: Scale = Scale {
        elements: 3_000,
        paper_elements: 1_500,
        paper_pool: 3,
        exhaustive_checks: 1,
        warmup: 8,
        string_replays: 4,
        churn_interval_ms: 20,
        probes: 8,
        setups: 2,
    };
}

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Worker threads and closed-loop clients: the host's cores.
    pub cores: usize,
}

impl Ctx {
    /// Where a traced run writes its spans (inside the checkout).
    pub fn trace_path(&self, workload: &str) -> std::path::PathBuf {
        std::path::Path::new("perfbench")
            .join("out")
            .join(format!("{workload}-seed{}.spans.tsv", self.seed))
    }
}

pub const WORKLOADS: [&str; 4] = ["serve-100k", "fleet-tcp-100k", "churn-100k", "paper-sec5"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
        cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    let start = Instant::now();
    let outcome: Result<Report, String> = match args.workload.as_str() {
        "serve-100k" => serve::run(&ctx),
        "fleet-tcp-100k" => fleet::run(&ctx),
        "churn-100k" => churn::run(&ctx),
        "paper-sec5" => paper::run(&ctx),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    let mut report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };
    if ctx.trace {
        layers::complete(&mut report);
    }
    report.note(format!(
        "cores {}, seed {}, {} s measured, trace {}, {:.1} s wall",
        ctx.cores,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        start.elapsed().as_secs_f64()
    ));
    eprint!("{}", report.render_text(&args.workload));
    println!("{}", report.render_json());
    if !report.correct() {
        for failure in report.failures() {
            eprintln!("check failed: {failure}");
        }
        std::process::exit(1);
    }
}

/// Build the system `n` times from fresh inputs and keep the last; returns
/// it with the median build time. Each earlier system is dropped before the
/// next is built, so set-up never measures two systems at once.
pub fn repeated_setup<T>(
    n: usize,
    mut build: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let mut kept: Option<T> = None;
    let mut times = Vec::with_capacity(n);
    for _ in 0..n.max(1) {
        drop(kept.take());
        let (system, seconds) = build()?;
        times.push(seconds);
        kept = Some(system);
    }
    eprintln!(
        "set-up times (s): {}",
        times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let median = stats::median(&times, "setup_s")?;
    Ok((kept.expect("at least one set-up ran"), median))
}
