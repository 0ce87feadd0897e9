//! `xsfq-time` — static timing analysis and slack-matching constraint
//! generation from the command line.
//!
//! ```text
//! xsfq-time analyse   [options] FILE     # timing report, no insertion
//! xsfq-time constrain [options] FILE     # balance, then report + artifacts
//! ```
//!
//! `FILE` is BLIF, ASCII AIGER or binary AIGER (format-sniffed, like every
//! other tool here). The design is synthesized with the standard flow
//! first — script, interconnect style and pipeline depth are the usual
//! knobs — and the mapped physical netlist is what gets timed. `analyse`
//! reports arrival windows, skew and slack as-is; `constrain` runs the
//! slack-matching balancer (`--balance full|budget <ps>|off`) and reports
//! the balanced netlist, optionally writing it out as Verilog plus SDC /
//! CSV / JSON artifacts (formats documented in `xsfq_timing`).
//!
//! Exit status: 0 when the (post-balance) worst slack is non-negative, 1
//! when it is negative, 2 on usage, parse or flow errors.

use std::process::ExitCode;

use xsfq_aig::io::read_netlist_auto;
use xsfq_cells::InterconnectStyle;
use xsfq_core::{BalanceMode, SynthesisFlow, TimingOptions};
use xsfq_netlist::writers::write_verilog;
use xsfq_timing::{artifacts, balance_netlist};

const USAGE: &str = "\
usage: xsfq-time <analyse|constrain> [options] FILE

Synthesize FILE (BLIF/AIGER) with the standard flow, then run static
timing on the mapped physical netlist. `analyse` only reports;
`constrain` also inserts slack-matching JTL buffers.

options:
  --script S       optimization pass script (default: the flow's standard)
  --style STYLE    interconnect style: abutted | ptl (default abutted)
  --pipeline N     architectural pipeline stages (default 0)
  --tolerance PS   allowed arrival skew in ps (default: one JTL delay)
  --balance MODE   constrain only: full | budget PS | off (default full)
  --csv PATH       write the per-endpoint CSV
  --sdc PATH       write SDC constraints
  --json PATH      write the JSON report
  --out PATH       constrain only: write the (balanced) netlist as Verilog
  --quiet          suppress the text report on stdout

exit status: 0 ok, 1 negative worst slack, 2 usage/parse/flow error";

struct Cli {
    constrain: bool,
    file: String,
    script: Option<String>,
    style: InterconnectStyle,
    pipeline: usize,
    tolerance_ps: Option<f64>,
    balance: BalanceMode,
    csv: Option<String>,
    sdc: Option<String>,
    json: Option<String>,
    out: Option<String>,
    quiet: bool,
}

fn usage_err(msg: &str) -> String {
    format!("xsfq-time: {msg} (try --help)")
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut it = args.iter();
    let Some(sub) = it.next() else {
        return Err(usage_err("missing subcommand"));
    };
    let constrain = match sub.as_str() {
        "analyse" | "analyze" => false,
        "constrain" => true,
        "--help" | "-h" => return Ok(None),
        other => return Err(usage_err(&format!("unknown subcommand `{other}`"))),
    };
    let mut cli = Cli {
        constrain,
        file: String::new(),
        script: None,
        style: InterconnectStyle::Abutted,
        pipeline: 0,
        tolerance_ps: None,
        balance: BalanceMode::Full,
        csv: None,
        sdc: None,
        json: None,
        out: None,
        quiet: false,
    };
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| usage_err(&format!("`{flag}` needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--quiet" => cli.quiet = true,
            "--script" => cli.script = Some(value("--script", &mut it)?),
            "--style" => {
                cli.style = match value("--style", &mut it)?.as_str() {
                    "abutted" => InterconnectStyle::Abutted,
                    "ptl" => InterconnectStyle::Ptl,
                    other => return Err(usage_err(&format!("unknown style `{other}`"))),
                }
            }
            "--pipeline" => {
                let v = value("--pipeline", &mut it)?;
                cli.pipeline = v
                    .parse()
                    .map_err(|_| usage_err(&format!("bad pipeline depth `{v}`")))?;
            }
            "--tolerance" => {
                let v = value("--tolerance", &mut it)?;
                let ps: f64 = v
                    .parse()
                    .map_err(|_| usage_err(&format!("bad tolerance `{v}`")))?;
                if !ps.is_finite() || ps < 0.0 {
                    return Err(usage_err(&format!("bad tolerance `{v}`")));
                }
                cli.tolerance_ps = Some(ps);
            }
            "--balance" => {
                if !cli.constrain {
                    return Err(usage_err("`--balance` only applies to `constrain`"));
                }
                cli.balance = match value("--balance", &mut it)?.as_str() {
                    "full" => BalanceMode::Full,
                    "off" => BalanceMode::Off,
                    "budget" => {
                        let v = value("--balance budget", &mut it)?;
                        let ps: f64 = v
                            .parse()
                            .map_err(|_| usage_err(&format!("bad budget `{v}`")))?;
                        if !ps.is_finite() || ps < 0.0 {
                            return Err(usage_err(&format!("bad budget `{v}`")));
                        }
                        BalanceMode::Budget(ps)
                    }
                    other => return Err(usage_err(&format!("unknown balance mode `{other}`"))),
                };
            }
            "--csv" => cli.csv = Some(value("--csv", &mut it)?),
            "--sdc" => cli.sdc = Some(value("--sdc", &mut it)?),
            "--json" => cli.json = Some(value("--json", &mut it)?),
            "--out" => {
                if !cli.constrain {
                    return Err(usage_err("`--out` only applies to `constrain`"));
                }
                cli.out = Some(value("--out", &mut it)?);
            }
            _ if arg.starts_with('-') => {
                return Err(usage_err(&format!("unknown flag `{arg}`")));
            }
            _ if cli.file.is_empty() => cli.file = arg.clone(),
            _ => return Err(usage_err("more than one input file")),
        }
    }
    if cli.file.is_empty() {
        return Err(usage_err("missing input file"));
    }
    Ok(Some(cli))
}

fn run(cli: &Cli) -> Result<ExitCode, String> {
    let bytes = std::fs::read(&cli.file).map_err(|e| format!("xsfq-time: {}: {e}", cli.file))?;
    let aig = read_netlist_auto(&bytes)
        .map_err(|e| format!("xsfq-time: {}: parse error: {e}", cli.file))?;

    let mut flow = SynthesisFlow::new()
        .style(cli.style)
        .pipeline_stages(cli.pipeline);
    if let Some(script) = &cli.script {
        flow = flow
            .script_str(script)
            .map_err(|e| format!("xsfq-time: bad script: {e}"))?;
    }
    let result = flow
        .run(&aig)
        .map_err(|e| format!("xsfq-time: {}: flow error: {e}", cli.file))?;

    let opts = TimingOptions {
        balance: if cli.constrain {
            cli.balance
        } else {
            BalanceMode::Off
        },
        tolerance_ps: cli.tolerance_ps,
    };
    let outcome = balance_netlist(&result.mapped.physical, &opts);
    let netlist = outcome.netlist.as_ref().unwrap_or(&result.mapped.physical);
    let analysis = &outcome.analysis;
    let summary = &outcome.summary;

    if !cli.quiet {
        print!("{}", artifacts::render_report(netlist, analysis, summary));
    }
    let write_artifact = |path: &Option<String>, what: &str, text: String| match path {
        Some(path) => std::fs::write(path, text)
            .map_err(|e| format!("xsfq-time: writing {what} `{path}`: {e}")),
        None => Ok(()),
    };
    write_artifact(&cli.csv, "CSV", artifacts::render_endpoint_csv(analysis))?;
    write_artifact(
        &cli.sdc,
        "SDC",
        artifacts::render_sdc(netlist, analysis, summary),
    )?;
    write_artifact(
        &cli.json,
        "JSON report",
        artifacts::render_json_report(netlist, analysis, summary),
    )?;
    if let Some(path) = &cli.out {
        let mut buf = Vec::new();
        write_verilog(netlist, &mut buf)
            .map_err(|e| format!("xsfq-time: rendering Verilog: {e}"))?;
        std::fs::write(path, buf)
            .map_err(|e| format!("xsfq-time: writing netlist `{path}`: {e}"))?;
    }

    if summary.worst_slack_ps < 0.0 {
        eprintln!(
            "xsfq-time: {}: negative worst slack ({:.2} ps)",
            cli.file, summary.worst_slack_ps
        );
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Some(cli)) => run(&cli).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            ExitCode::from(2)
        }),
        Ok(None) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
