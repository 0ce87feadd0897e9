//! `xsfq-lint` — lint BLIF/AIGER designs from the command line.
//!
//! ```text
//! xsfq-lint [--json] FILE...
//! ```
//!
//! Each file is format-sniffed (BLIF, ASCII AIGER or binary AIGER — the
//! same `read_netlist_auto` the daemon uses), validated, and its
//! diagnostics printed one per line (or as one JSON object per file with
//! `--json`). Exit status: 0 when every file is clean or carries only
//! warnings, 1 when any file has an error-severity diagnostic, 2 on I/O or
//! parse failure.

use std::process::ExitCode;

use xsfq_aig::io::read_netlist_auto;
use xsfq_lint::{has_errors, lint_aig, render_text};
use xsfq_netlist::writers::Json;

fn main() -> ExitCode {
    let mut json = false;
    let mut files: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                println!("usage: xsfq-lint [--json] FILE...");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("xsfq-lint: unknown flag `{arg}` (try --help)");
                return ExitCode::from(2);
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("usage: xsfq-lint [--json] FILE...");
        return ExitCode::from(2);
    }

    let mut worst = ExitCode::SUCCESS;
    for file in &files {
        let bytes = match std::fs::read(file) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("xsfq-lint: {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let aig = match read_netlist_auto(&bytes) {
            Ok(aig) => aig,
            Err(e) => {
                eprintln!("xsfq-lint: {file}: parse error: {e}");
                return ExitCode::from(2);
            }
        };
        let diags = lint_aig(&aig);
        if json {
            let line = Json::object([
                ("schema", "xsfq-lint/1".into()),
                ("file", file.as_str().into()),
                ("diags", Json::Array(diags.iter().map(Json::from).collect())),
            ]);
            println!("{line}");
        } else if diags.is_empty() {
            println!("{file}: clean");
        } else {
            print!("{}", render_text(&diags));
        }
        if has_errors(&diags) {
            worst = ExitCode::from(1);
        }
    }
    worst
}
