//! The traced pass: replays a workload's generated inputs one at a time
//! through the public functions of each layer, recording a span around
//! every call, and turns the spans into the per-layer metrics.
//!
//! Spans live in memory (name, start, end, parent, request id) and are
//! written out at the end as Chrome Trace Event JSON, which Perfetto and
//! `chrome://tracing` load. Nothing inside the program is instrumented: a
//! layer's time is the time of the public call that is that layer.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use xsfq_aig::opt::{optimize_with, Effort};
use xsfq_aig::Aig;
use xsfq_core::pipeline::choose_rank_levels;
use xsfq_core::verify::verify_mapping;
use xsfq_core::{
    assign_polarities_with_pool, map_with_assignment_pool, FlowReport, MapOptions, MappedDesign,
    PolarityMode,
};
use xsfq_exec::ThreadPool;
use xsfq_netlist::writers::write_verilog;

use crate::check::json_u64;
use crate::stats::median;
use crate::Metric;

/// Designs proved equivalent by `sat.cec_ms` stay under this many AND
/// nodes: the proofs of sin and voter take 80 s and 22 s, too long for a
/// run.
const CEC_MAX_ANDS: usize = 600;

/// Where the traced pass of `workload` writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new(".perfbench_out").join(format!("trace-{workload}-seed{seed}.json"))
}

/// One recorded call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u32,
}

/// In-memory span recorder. With recording off, `begin`/`end` only keep
/// the nesting, so the same replay runs untraced for the overhead figure.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<Option<usize>>,
}

impl Recorder {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span for `request`, nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u32) {
        if !self.on {
            self.open.push(None);
            return;
        }
        let parent = self.open.last().copied().flatten();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(Some(self.spans.len() - 1));
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if let Some(Some(i)) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// Self time of every span in ms (duration minus what its children
    /// cover), keyed by span index.
    fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Self time of every `name` span, in ms.
    pub fn per_call(&self, name: &str) -> Vec<f64> {
        let self_ms = self.self_ms();
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_ms[i])
            .collect()
    }

    /// Per request id, the summed self time of its `name` spans in ms and
    /// how many there were; only requests that made such a call.
    pub fn by_request(&self, name: &str) -> BTreeMap<u32, (f64, usize)> {
        let self_ms = self.self_ms();
        let mut out: BTreeMap<u32, (f64, usize)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                let e = out.entry(s.request).or_default();
                e.0 += self_ms[i];
                e.1 += 1;
            }
        }
        out
    }

    /// Per request, the summed self time of its `name` spans, in ms; only
    /// requests that made such a call.
    pub fn per_request(&self, name: &str) -> Vec<f64> {
        self.by_request(name)
            .into_values()
            .map(|(ms, _)| ms)
            .collect()
    }

    /// Total self time per span name, in ms, with call counts.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, ms) in self.spans.iter().zip(self.self_ms()) {
            let e = out.entry(s.name).or_default();
            e.0 += ms;
            e.1 += 1;
        }
        out
    }

    /// Duration in ms of each root span named `name`, in order.
    pub fn roots(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Print per-layer self time, then write the spans as Chrome Trace
    /// Event JSON to `path`.
    pub fn finish(&self, path: &Path) {
        println!("layer self time (ms total / calls):");
        for (name, (ms, calls)) in self.totals() {
            println!("  {name:<24} {ms:>12.3} / {calls}");
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.request,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            ));
        }
        out.push_str("\n]}\n");
        match std::fs::File::create(path).and_then(|mut f| f.write_all(out.as_bytes())) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

/// Replay `n` requests (or designs) twice each — once untraced, once
/// traced, alternating which goes first — timing every replay. Returns the
/// traced recording and the overhead metrics: traced vs untraced median
/// replay latency and replays per second, and the relative difference of
/// their totals.
pub fn replay_twice(
    n: usize,
    mut replay: impl FnMut(&mut Recorder, u32),
) -> (Recorder, Vec<Metric>) {
    let mut off = Recorder::new(false);
    let mut on = Recorder::new(true);
    let (mut t_off, mut t_on) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let id = i as u32;
        for pass in 0..2 {
            let traced = (pass + i) % 2 == 1;
            let t = Instant::now();
            replay(if traced { &mut on } else { &mut off }, id);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if traced { &mut t_on } else { &mut t_off }.push(ms);
        }
    }
    let (sum_off, sum_on): (f64, f64) = (t_off.iter().sum(), t_on.iter().sum());
    let metrics = vec![
        Metric::new("trace.traced_latency_p50_ms", median(&t_on), "ms", n),
        Metric::new("trace.untraced_latency_p50_ms", median(&t_off), "ms", n),
        Metric::new(
            "trace.traced_designs_per_s",
            n as f64 / (sum_on / 1e3),
            "1/s",
            n,
        ),
        Metric::new(
            "trace.untraced_designs_per_s",
            n as f64 / (sum_off / 1e3),
            "1/s",
            n,
        ),
        Metric::new("trace.overhead_frac", sum_on / sum_off - 1.0, "ratio", n),
    ];
    (on, metrics)
}

/// The mapper options the flow uses by default.
fn map_options(rank_levels: Vec<u32>) -> MapOptions {
    MapOptions {
        rank_levels,
        ..MapOptions::default()
    }
}

/// Replay the flow stages of one design inside the current span: the
/// standard script (`core.optimize`), rank selection, polarity and mapping,
/// each on `pool`. Returns the optimized graph and the mapping.
pub fn replay_flow(
    rec: &mut Recorder,
    request: u32,
    aig: &Aig,
    pool: &ThreadPool,
) -> (Aig, MappedDesign) {
    let opt = rec.time("core.optimize", request, || {
        optimize_with(aig, Effort::Standard, pool)
    });
    let ranks = rec.time("core.pipeline", request, || choose_rank_levels(&opt, 0, 3));
    let (assignment, _) = rec.time("core.polarity", request, || {
        assign_polarities_with_pool(&opt, PolarityMode::Heuristic, pool)
    });
    let mapped = rec.time("core.map", request, || {
        map_with_assignment_pool(&opt, &map_options(ranks), assignment, pool)
    });
    (opt, mapped)
}

/// Replay the output side of a finished job: `write_verilog` of the mapped
/// netlist and `FlowReport::to_json`. Returns both documents.
pub fn replay_output(
    rec: &mut Recorder,
    request: u32,
    mapped: &MappedDesign,
    report: &FlowReport,
) -> (Vec<u8>, String) {
    let netlist = rec.time("netlist.write_verilog", request, || {
        let mut buf = Vec::new();
        write_verilog(&mapped.physical, &mut buf).expect("Verilog to memory");
        buf
    });
    (
        netlist,
        rec.time("core.report_json", request, || report.to_json()),
    )
}

/// One optimization pass as the flow report records it.
pub struct PassRow {
    /// Script name (`b`, `rw`, `rf`, `rwz`, `c`).
    pub name: String,
    /// Wall time in ns.
    pub wall_ns: u64,
    /// Accepted replacements.
    pub commits: u64,
    /// Whether the pass changed neither node count nor depth.
    pub idle: bool,
}

/// The `passes` rows of an `xsfq-flow-report/1` JSON document.
pub fn passes_from_json(report: &str) -> Vec<PassRow> {
    let field = |obj: &str, key: &str| json_u64(obj.as_bytes(), key).unwrap_or(0);
    let Some(start) = report.find("\"passes\":[") else {
        return Vec::new();
    };
    let body = &report[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split("{\"name\":\"")
        .skip(1)
        .map(|obj| PassRow {
            name: obj[..obj.find('"').unwrap_or(0)].to_string(),
            wall_ns: field(obj, "wall_ns"),
            commits: field(obj, "commits"),
            idle: field(obj, "nodes_before") == field(obj, "nodes_after")
                && field(obj, "depth_before") == field(obj, "depth_after"),
        })
        .collect()
}

/// `aig.pass.*` metrics from pass rows: wall ms and commits per pass name,
/// summed, and the share of pass time spent in passes that changed
/// nothing.
pub fn pass_metrics(rows: &[PassRow]) -> Vec<Metric> {
    let mut out = Vec::new();
    let names: [(&str, &'static str, &'static str); 4] = [
        ("b", "aig.pass.b_ms", "aig.pass.b.commits"),
        ("rw", "aig.pass.rw_ms", "aig.pass.rw.commits"),
        ("rwz", "aig.pass.rwz_ms", "aig.pass.rwz.commits"),
        ("rf", "aig.pass.rf_ms", "aig.pass.rf.commits"),
    ];
    for (pass, ms_name, commits_name) in names {
        let hits: Vec<&PassRow> = rows.iter().filter(|r| r.name == pass).collect();
        let ms = hits.iter().map(|r| r.wall_ns as f64 / 1e6).sum();
        let commits = hits.iter().map(|r| r.commits as f64).sum();
        out.push(Metric::new(ms_name, ms, "ms", hits.len()));
        out.push(Metric::new(commits_name, commits, "count", hits.len()));
    }
    let total: u64 = rows.iter().map(|r| r.wall_ns).sum();
    let idle: u64 = rows.iter().filter(|r| r.idle).map(|r| r.wall_ns).sum();
    out.push(Metric::new(
        "aig.pass.idle_frac",
        if total > 0 {
            idle as f64 / total as f64
        } else {
            0.0
        },
        "ratio",
        rows.len(),
    ));
    out
}

/// What the flow-set pass measured.
pub struct FlowSetLayers {
    /// `exec.*` and `sat.cec_ms`.
    pub metrics: Vec<Metric>,
    /// Designs whose mapping failed the equivalence proof.
    pub mismatches: Vec<String>,
}

/// Executor and SAT layers over a set of designs (untraced: these are
/// whole-flow figures, not spans of a request).
///
/// * `exec.parallel_efficiency` — Σ single-thread flow time per design ÷
///   (`run_many` wall × workers);
/// * `exec.critical_design_ms` — the slowest single design, the floor of a
///   batch's makespan;
/// * `exec.map_speedup` — Σ mapping time on a 1-thread pool ÷ Σ on the
///   default pool;
/// * `sat.cec_ms` — Σ `verify_mapping` (netlist reconstruction + SAT
///   equivalence) over the combinational designs under [`CEC_MAX_ANDS`]
///   AND nodes; a failed proof is a mismatch.
pub fn flow_set_layers(designs: &[Aig]) -> FlowSetLayers {
    let seq = ThreadPool::new(1);
    let global = ThreadPool::global();
    let mut off = Recorder::new(false);
    let mut solo_ms = Vec::with_capacity(designs.len());
    let (mut map_1, mut map_n, mut cec_ms, mut proved) = (0.0, 0.0, 0.0, 0);
    let mut mismatches = Vec::new();
    for aig in designs {
        let t = Instant::now();
        let (opt, mapped) = replay_flow(&mut off, 0, aig, &seq);
        solo_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let ranks = choose_rank_levels(&opt, 0, 3);
        let (assignment, _) = assign_polarities_with_pool(&opt, PolarityMode::Heuristic, &seq);
        for (pool, acc) in [(&seq, &mut map_1), (global, &mut map_n)] {
            let t = Instant::now();
            let m = map_with_assignment_pool(
                &opt,
                &map_options(ranks.clone()),
                assignment.clone(),
                pool,
            );
            *acc += t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(m);
        }

        if aig.num_latches() == 0 && aig.num_ands() < CEC_MAX_ANDS {
            let t = Instant::now();
            let verdict = verify_mapping(aig, &mapped, PolarityMode::Heuristic);
            cec_ms += t.elapsed().as_secs_f64() * 1e3;
            proved += 1;
            if let Err(e) = verdict {
                mismatches.push(format!("{}: mapping not equivalent: {e}", aig.name()));
            }
        }
    }
    let t = Instant::now();
    let batch = crate::check::flow().run_many(designs);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = batch {
        mismatches.push(format!("run_many failed: {e}"));
    }
    let workers = global.num_threads() as f64;
    let n = designs.len();
    FlowSetLayers {
        metrics: vec![
            Metric::new(
                "exec.parallel_efficiency",
                solo_ms.iter().sum::<f64>() / (wall_ms * workers),
                "ratio",
                n,
            ),
            Metric::new(
                "exec.critical_design_ms",
                solo_ms.iter().copied().fold(0.0, f64::max),
                "ms",
                n,
            ),
            Metric::new("exec.map_speedup", map_1 / map_n.max(1e-9), "ratio", n),
            Metric::new("sat.cec_ms", cec_ms, "ms", proved),
        ],
        mismatches,
    }
}

/// Per-layer medians from a recording: per call for `aig.io.parse`, per
/// request (summed over its calls) for every other span. Each entry names
/// the span, the metric, its unit and the scale from ms.
pub fn layer_medians(
    rec: &Recorder,
    layers: &[(&'static str, &'static str, &'static str, f64)],
) -> Vec<Metric> {
    layers
        .iter()
        .map(|&(span, metric, unit, scale)| {
            let v = if span == "aig.io.parse" {
                rec.per_call(span)
            } else {
                rec.per_request(span)
            };
            Metric::new(metric, median(&v) * scale, unit, v.len())
        })
        .collect()
}

/// Σ self time of the flow-stage spans, as `core.*_ms` metrics.
pub fn stage_sums(rec: &Recorder) -> Vec<Metric> {
    let totals = rec.totals();
    [
        ("core.optimize", "core.optimize_ms"),
        ("core.pipeline", "core.pipeline_ms"),
        ("core.polarity", "core.polarity_ms"),
        ("core.map", "core.map_ms"),
    ]
    .into_iter()
    .map(|(span, metric)| {
        let (ms, calls) = totals.get(span).copied().unwrap_or((0.0, 0));
        Metric::new(metric, ms, "ms", calls)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.begin("request", 7);
        rec.time("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        rec.end();
        let root = rec.roots("request")[0];
        let inner = rec.per_call("inner")[0];
        assert!(inner >= 5.0 && root >= inner);
        let own = rec.per_call("request")[0];
        assert!((own + inner - root).abs() < 1e-6);
        assert_eq!(rec.per_request("inner").len(), 1);
        assert_eq!(rec.by_request("inner")[&7].1, 1);
        let mut off = Recorder::new(false);
        off.time("x", 0, || ());
        assert!(off.totals().is_empty());
    }

    #[test]
    fn pass_rows_parse_from_report_json() {
        let json = "{\"passes\":[{\"name\":\"b\",\"wall_ns\":100,\"nodes_before\":5,\
                    \"nodes_after\":5,\"depth_before\":3,\"depth_after\":3,\"commits\":0,\
                    \"tripped\":null},{\"name\":\"rw\",\"wall_ns\":300,\"nodes_before\":5,\
                    \"nodes_after\":4,\"depth_before\":3,\"depth_after\":3,\"commits\":2,\
                    \"tripped\":null}],\"stages\":[]}";
        let rows = passes_from_json(json);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].idle && !rows[1].idle);
        let m = pass_metrics(&rows);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("aig.pass.rw.commits"), 2.0);
        assert!((get("aig.pass.idle_frac") - 0.25).abs() < 1e-12);
    }
}
