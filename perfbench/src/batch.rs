//! `batch-suites`: in-process `SynthesisFlow::run_many`, standard script,
//! over all 35 registered designs, repeated for the run length.

use std::time::Instant;

use xsfq_aig::Aig;
use xsfq_core::FlowResult;

use crate::check::{flow, scrub_timings};
use crate::gen::{suite, Design};
use crate::stats::{fastest_pooled, fastest_rate, median, peak_rss_mb, quantile};
use crate::trace::{self, Recorder};
use crate::{Args, Metric, Outcome};

/// Share of the samples the throughput and latency figures come from: the
/// fastest tenth of the timed batches, and of each design's in-batch
/// times. Batch walls on a shared 2-vCPU host spread ±15% within a run,
/// and the slow side moves with whatever else the host runs; the fast side
/// repeats from run to run.
const FAST_SHARE: f64 = 0.1;

/// A result as compared across runs: netlist plus timing-free report.
fn fingerprint(r: &FlowResult) -> (xsfq_netlist::Netlist, String) {
    (r.netlist().clone(), scrub_timings(&r.report.to_json()))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: generate the suite's bytes and parse them. It is repeated
    // before every timed batch (and the copy dropped), so its median samples
    // the whole run rather than one moment of it.
    let set_up = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let designs = suite(args.seed);
        setups.push(t.elapsed().as_secs_f64());
        designs
    };
    let mut setups = Vec::new();
    let mut designs: Vec<Design> = set_up(&mut setups);
    // Largest first (the LPT order): voter and sin start together on the
    // two workers every batch instead of meeting at a timing-dependent
    // point, which steadies both the makespan and their own times.
    designs.sort_by_key(|d| std::cmp::Reverse(d.aig.num_ands()));
    let aigs: Vec<Aig> = designs.iter().map(|d| d.aig.clone()).collect();
    let flow = flow();

    // One untimed batch lets lazy set-up finish; it is also what every
    // timed batch and the solo runs are compared against.
    let first = flow.run_many(&aigs).expect("first batch succeeds");
    let expected: Vec<_> = first.iter().map(fingerprint).collect();
    let jj_total: u64 = first.iter().map(|r| r.report.jj_total).sum();

    // Per timed batch its wall time and how many designs it completed; per
    // design its synthesis time in each batch.
    let mut batches: Vec<(f64, usize)> = Vec::new();
    let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); aigs.len()];
    let mut last = first;
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        drop(set_up(&mut setups));
        let t = Instant::now();
        let batch = flow.run_many(&aigs);
        let wall = t.elapsed().as_secs_f64();
        out.attempted += aigs.len() as u64;
        let mut completed = 0;
        match batch {
            Ok(results) => {
                completed = results.len();
                for ((r, want), times) in results.iter().zip(&expected).zip(&mut per_design) {
                    let ns: u64 = r.report.stages.iter().map(|s| s.wall_ns).sum();
                    times.push(ns as f64 / 1e6);
                    if fingerprint(r) != *want {
                        out.failed += 1;
                        out.mismatches.push(format!(
                            "{}: batch result changed between runs",
                            r.report.name
                        ));
                    }
                }
                last = results;
            }
            Err(e) => {
                out.failed += aigs.len() as u64;
                eprintln!("run_many failed: {e}");
            }
        }
        batches.push((wall, completed));
    }
    let rss = peak_rss_mb();

    // run_many must equal solo runs, design by design.
    for (aig, want) in aigs.iter().zip(&expected) {
        match flow.run(aig) {
            Ok(solo) if fingerprint(&solo) == *want => {}
            Ok(_) => out
                .mismatches
                .push(format!("{}: run_many differs from a solo run", aig.name())),
            Err(e) => out
                .mismatches
                .push(format!("{}: solo run failed: {e}", aig.name())),
        }
    }
    let solo_jj: u64 = last.iter().map(|r| r.report.jj_total).sum();
    if solo_jj != jj_total {
        out.mismatches.push(format!(
            "jj_total changed between batches: {jj_total} vs {solo_jj}"
        ));
    }

    if args.trace {
        out.metrics = layers(args, &designs, &last, &mut out.mismatches);
        return out;
    }
    let walls: Vec<f64> = batches.iter().map(|(w, _)| *w).collect();
    println!(
        "batch wall min {:.3} s, median {:.3} s, max {:.3} s over {} batches",
        quantile(&walls, 0.0),
        median(&walls),
        quantile(&walls, 1.0),
        walls.len()
    );
    // The fastest tenth of the batches, and of each design's in-batch times.
    let (designs_per_s, fast_designs, fast_batches) = fastest_rate(&batches, FAST_SHARE);
    println!("fastest {fast_batches} batches: {fast_designs} designs");
    let design_ms = fastest_pooled(&per_design, FAST_SHARE);
    let (tail_label, _) = crate::stats::tail(&design_ms);
    println!("latency tail rank with >=10 samples beyond it: {tail_label}");
    out.metrics = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new("designs_per_s", designs_per_s, "1/s", fast_designs),
        Metric::new("latency_p50_ms", median(&design_ms), "ms", design_ms.len()),
        Metric::new(
            "latency_p99_ms",
            quantile(&design_ms, 0.99),
            "ms",
            design_ms.len(),
        ),
        Metric::new(
            "ok_frac",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
            out.attempted as usize,
        ),
        Metric::new("jj_total", jj_total as f64, "JJ", aigs.len()),
        Metric::new("peak_rss_mb", rss, "MiB", 1),
    ];
    out
}

/// The traced pass over the suite: each design's parse, flow stages and
/// output writers under spans; pass telemetry from the batch's own
/// reports; executor and SAT layers; serve layers are untouched (0).
fn layers(
    args: &Args,
    designs: &[Design],
    batch: &[FlowResult],
    mismatches: &mut Vec<String>,
) -> Vec<Metric> {
    let seq = xsfq_exec::ThreadPool::new(1);
    let (rec, overhead) = trace::replay_twice(designs.len(), |rec: &mut Recorder, id| {
        let (d, r) = (&designs[id as usize], &batch[id as usize]);
        rec.begin("design", id);
        let aig = rec.time("aig.io.parse", id, || {
            xsfq_aig::io::read_netlist_auto(&d.blif).expect("suite BLIF parses")
        });
        let (_, mapped) = trace::replay_flow(rec, id, &aig, &seq);
        trace::replay_output(rec, id, &mapped, &r.report);
        rec.end();
    });
    rec.finish(&trace::trace_path("batch-suites", args.seed));

    let mut m = crate::serve::idle_serve_layers();
    m.extend(trace::layer_medians(
        &rec,
        &[
            ("aig.io.parse", "aig.io.parse_ms", "ms", 1.0),
            (
                "netlist.write_verilog",
                "netlist.write_verilog_ms",
                "ms",
                1.0,
            ),
            ("core.report_json", "core.report_json_ms", "ms", 1.0),
        ],
    ));
    m.extend(trace::stage_sums(&rec));
    let rows: Vec<trace::PassRow> = batch
        .iter()
        .flat_map(|r| &r.report.passes)
        .map(|p| trace::PassRow {
            name: p.name.clone(),
            wall_ns: p.wall_ns,
            commits: p.commits,
            idle: p.nodes_before == p.nodes_after && p.depth_before == p.depth_after,
        })
        .collect();
    m.extend(trace::pass_metrics(&rows));
    let aigs: Vec<Aig> = designs.iter().map(|d| d.aig.clone()).collect();
    let set = trace::flow_set_layers(&aigs);
    m.extend(set.metrics);
    mismatches.extend(set.mismatches);
    m.extend(overhead);
    m
}
