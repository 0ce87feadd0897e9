//! The `xsfq-serve` daemon binary. See the crate docs for the protocol
//! and operational guide; `xsfq-serve --help` for flags.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use xsfq_serve::{signal, CheckLevel, ServeConfig, Server};

const USAGE: &str = "\
xsfq-serve — crash-tolerant xSFQ synthesis daemon

USAGE:
    xsfq-serve --state-dir DIR [OPTIONS]

OPTIONS:
    --state-dir DIR        journal + spool directory (required)
    --addr HOST:PORT       listen address (default 127.0.0.1:0; port 0 = ephemeral)
    --watch-dir DIR        poll DIR for dropped-in .blif/.aag/.aig jobs
    --out-dir DIR          result directory for watched jobs (default STATE/results)
    --shards N             worker shards, one job each (default XSFQ_THREADS or hardware)
    --queue-capacity N     admission queue depth before shedding (default 64)
    --max-connections N    concurrent TCP connections (default 64)
    --deadline-ms MS       per-job wall-clock deadline (default 60000; 0 = none)
    --retry-limit N        retries for transient failures (default 2)
    --retry-base-ms MS     first retry delay, doubles per attempt (default 20)
    --cache-budget BYTES   result-cache byte budget (default 67108864; 0 = off)
    --script SCRIPT        default pass script (default \"standard\")
    --check LEVEL          static checking: off | stage | paranoid (default stage)
    --drain-grace-ms MS    drain grace before cancelling in-flight jobs (default 5000)
    --help                 print this text
";

fn parse_args() -> Result<ServeConfig, String> {
    let mut args = std::env::args().skip(1);
    let mut state_dir: Option<PathBuf> = None;
    let mut cfg_overrides: Vec<(String, String)> = Vec::new();
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        if flag == "--state-dir" {
            state_dir = Some(PathBuf::from(value));
        } else {
            cfg_overrides.push((flag, value));
        }
    }
    let state_dir = state_dir.ok_or_else(|| "missing required --state-dir".to_string())?;
    let mut cfg = ServeConfig::new(state_dir);
    let num = |v: &str, flag: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} expects a number, got `{v}`"))
    };
    for (flag, v) in cfg_overrides {
        match flag.as_str() {
            "--addr" => cfg.addr = v,
            "--watch-dir" => cfg.watch_dir = Some(PathBuf::from(v)),
            "--out-dir" => cfg.out_dir = Some(PathBuf::from(v)),
            "--shards" => cfg.shards = num(&v, &flag)? as usize,
            "--queue-capacity" => cfg.queue_capacity = num(&v, &flag)? as usize,
            "--max-connections" => cfg.max_connections = num(&v, &flag)? as usize,
            "--deadline-ms" => {
                let ms = num(&v, &flag)?;
                cfg.job_deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--retry-limit" => cfg.retry_limit = num(&v, &flag)? as u32,
            "--retry-base-ms" => cfg.retry_base = Duration::from_millis(num(&v, &flag)?),
            "--cache-budget" => cfg.cache_budget = num(&v, &flag)? as usize,
            "--script" => cfg.default_script = v,
            "--check" => {
                cfg.check = match v.as_str() {
                    "off" => CheckLevel::Off,
                    "stage" => CheckLevel::Stage,
                    "paranoid" => CheckLevel::Paranoid,
                    other => {
                        return Err(format!("--check expects off|stage|paranoid, got `{other}`"))
                    }
                };
            }
            "--drain-grace-ms" => cfg.drain_grace = Duration::from_millis(num(&v, &flag)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    signal::install();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The test harness (and any supervisor) reads the bound address from
    // this line; keep its shape stable.
    println!("xsfq-serve listening on {}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    while !signal::triggered() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("xsfq-serve: termination signal, draining");
    server.shutdown();
    eprintln!("xsfq-serve: drained, bye");
    ExitCode::SUCCESS
}
