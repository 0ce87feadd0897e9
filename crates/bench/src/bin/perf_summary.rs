//! Machine-readable performance summary: runs the criterion groups and
//! emits `BENCH_<n>.json`, one compact JSON object (schema
//! `xsfq-perf-summary/1`) mapping `group/name` → median ns per call.
//!
//! Usage (always build with `--release`; debug numbers are meaningless):
//!
//! ```text
//! cargo run --release -p xsfq-bench --bin perf_summary -- \
//!     [--out BENCH_1.json] [--baseline old.json] [--groups optimize,map,flow]
//! ```
//!
//! With `--baseline`, the old file's `current_ns` values are embedded as
//! `baseline_ns` and per-benchmark speedups are reported — that is how a PR
//! records before/after numbers measured on the same machine.
//!
//! The `flow` group additionally exports the pass manager's per-pass
//! telemetry: one `flowpass/<design>/<index>_<pass>` row per executed
//! script pass (wall time, node/depth deltas, commit count), so the perf
//! trajectory shows *which pass* moved when a flow regresses.

use std::collections::BTreeMap;

use criterion::Criterion;
use xsfq_bench::perf;
use xsfq_netlist::writers::Json;

fn parse_args() -> (String, Option<String>, Vec<String>) {
    let mut out = "BENCH_1.json".to_string();
    let mut baseline = None;
    let mut groups: Vec<String> = [
        "optimize", "map", "pulse", "verify", "spice", "flow", "serve", "lint", "timing",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = args.get(i + 1).expect("--out needs a path").clone();
                i += 2;
            }
            "--baseline" => {
                baseline = Some(args.get(i + 1).expect("--baseline needs a path").clone());
                i += 2;
            }
            "--groups" => {
                groups = args
                    .get(i + 1)
                    .expect("--groups needs a list")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    (out, baseline, groups)
}

/// Pull `"key":<number>` pairs out of a flat JSON object without a JSON
/// dependency (the files are produced by this binary, so the shape is known:
/// `"group/name": {"current_ns": X, ...}`).
fn read_baseline(path: &str) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let mut map = BTreeMap::new();
    let mut rest = text.as_str();
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let Some(end) = tail.find('"') else { break };
        let key = &tail[..end];
        let after = &tail[end + 1..];
        if key.contains('/') {
            if let Some(cur) = after.find("\"current_ns\":") {
                let num = after[cur + 13..]
                    .trim_start()
                    .split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                    .next()
                    .and_then(|s| s.parse::<f64>().ok());
                if let Some(v) = num {
                    map.insert(key.to_string(), v);
                }
            }
        }
        rest = after;
    }
    map
}

fn main() {
    let (out, baseline_path, groups) = parse_args();
    let baseline = baseline_path.as_deref().map(read_baseline);

    let mut criterion = Criterion::new();
    for group in &groups {
        match group.as_str() {
            "optimize" => perf::bench_optimize(&mut criterion),
            "map" => perf::bench_mapping(&mut criterion),
            "pulse" => perf::bench_pulse_sim(&mut criterion),
            "verify" => perf::bench_cec(&mut criterion),
            "spice" => perf::bench_spice(&mut criterion),
            "flow" => perf::bench_flow(&mut criterion),
            "serve" => perf::bench_serve(&mut criterion),
            "lint" => perf::bench_lint(&mut criterion),
            "timing" => perf::bench_timing(&mut criterion),
            other => {
                panic!(
                    "unknown group {other} \
                     (expected optimize|map|pulse|verify|spice|flow|serve|lint|timing)"
                )
            }
        }
    }
    // The flow group carries the pass manager's per-pass telemetry rows
    // alongside its criterion timings.
    let pass_rows = if groups.iter().any(|g| g == "flow") {
        perf::flow_pass_rows()
    } else {
        Vec::new()
    };

    // One row per criterion benchmark, then one per flow pass: the median
    // (or pass wall) time in ns, the pass telemetry, and the comparison
    // with the baseline. Times keep 0.1 ns, speedups two decimals.
    let tenth = |v: f64| Json::from((v * 10.0).round() / 10.0);
    let benches = criterion.results().iter().map(|r| {
        let key = format!("{}/{}", r.group, r.name);
        (key, r.median_ns, Vec::new())
    });
    let passes = pass_rows.into_iter().map(|(key, p)| {
        let telemetry = vec![
            ("nodes_in", p.nodes_before.into()),
            ("nodes_out", p.nodes_after.into()),
            ("depth_in", p.depth_before.into()),
            ("depth_out", p.depth_after.into()),
            ("commits", p.commits.into()),
        ];
        (key, p.wall_ns as f64, telemetry)
    });
    let mut doc = vec![
        ("schema".to_string(), "xsfq-perf-summary/1".into()),
        ("groups".to_string(), groups.join(",").as_str().into()),
    ];
    for (key, ns, telemetry) in benches.chain(passes) {
        let mut row = vec![("current_ns", tenth(ns))];
        row.extend(telemetry);
        if let Some(&base) = baseline.as_ref().and_then(|b| b.get(&key)) {
            row.push(("baseline_ns", tenth(base)));
            row.push(("speedup", Json::from((base / ns * 100.0).round() / 100.0)));
        }
        doc.push((key, Json::object(row)));
    }
    let body = format!("{}\n", Json::object(doc));
    std::fs::write(&out, &body).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
    print!("{body}");
}
