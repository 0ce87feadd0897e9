//! `xsfq-perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-suites|serve-hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from the repository root, checks every output, prints
//! each metric with its unit and sample count, and ends with one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero on any output mismatch. `perfbench/README.md`
//! explains the workloads and which layer should move which metric.

mod batch;
mod check;
mod gen;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// One reported number.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric summarizing `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Requests (or designs) attempted in the timed phase.
    pub attempted: u64,
    /// Of those, how many failed (refused, lost, or wrong).
    pub failed: u64,
    /// Every wrong output, described.
    pub mismatches: Vec<String>,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
}

/// Command-line settings of one run.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Per-layer pass instead of end-to-end metrics.
    pub trace: bool,
}

/// Scratch space for daemon state and trace files, inside the checkout.
pub fn scratch_dir(what: &str) -> PathBuf {
    PathBuf::from(".perfbench_out").join(format!("{what}-{}", std::process::id()))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {value} ({e})");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = Duration::from_secs_f64(value.parse().map_err(|e| bad(&e))?)
            }
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xsfq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (total0, steal0) = stats::cpu_jiffies();
    let out = match args.workload.as_str() {
        "batch-suites" => batch::run(&args),
        "serve-hot" => serve::run(&args),
        other => {
            eprintln!("xsfq-perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir(".perfbench_out");
    let (total1, steal1) = stats::cpu_jiffies();
    // Host contention shows as steal; it explains runs that read slow.
    println!(
        "cpu steal during the run: {:.1}%",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    );

    for m in &out.metrics {
        println!(
            "metric {} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in out.mismatches.iter().take(20) {
        println!("MISMATCH {m}");
    }
    let correct = out.mismatches.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        eprintln!(
            "xsfq-perfbench: {} output mismatch(es)",
            out.mismatches.len()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
