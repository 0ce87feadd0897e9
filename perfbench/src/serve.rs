//! `serve-hot`: an in-process `xsfq_serve::Server` with the default
//! configuration (only `state_dir` set), driven over TCP by [`CLIENTS`]
//! `xsfq_serve::Client` connections in a closed loop: each client sends its
//! next request when the previous verdict is back. Requests are renamed
//! resubmissions of the 35 suite designs, drawn uniformly; the warm-up
//! filled the cache, so every request is a hit.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use xsfq_aig::digest::canonical_digest;
use xsfq_aig::io::read_netlist_auto;
use xsfq_aig::Aig;
use xsfq_core::FlowReport;
use xsfq_exec::ThreadPool;
use xsfq_lint::{has_errors, lint_aig};
use xsfq_serve::cache::{CacheKey, ResultCache};
use xsfq_serve::journal::Journal;
use xsfq_serve::protocol::{
    decode_response, encode_ok_body, encode_result_segments, Response, SubmitRequest, KIND_OK,
};
use xsfq_serve::{Client, ServeConfig, Server};

use crate::check::{self, json_u64, judge, par_map, Hit, SCRIPT};
use crate::gen::{self, Design, Rng, HOT_VARIANTS};
use crate::stats::{fastest_pooled, fastest_rate, median, peak_rss_mb, quantile};
use crate::trace::{self, Recorder};
use crate::{scratch_dir, Args, Metric, Outcome};

/// Client connections (and threads): one per core of the 2-core machine
/// the benchmark was sized on.
pub const CLIENTS: usize = 2;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;

/// Requests the traced pass replays (the first of the run's sequence).
const REPLAY_REQUESTS: usize = 300;

/// Pre-drawn request sequence; the closed loop cycles through it.
const HOT_SEQUENCE: usize = 1 << 17;

fn submit_request(data: Vec<u8>) -> SubmitRequest {
    SubmitRequest {
        script: SCRIPT.into(),
        name: String::new(),
        data,
        fault: None,
    }
}

/// The generated inputs of one run: per suite design [`HOT_VARIANTS`]
/// renamed copies, and which copy request `i` sends.
struct Inputs {
    suite: Vec<Design>,
    /// `(suite index, request)` per renamed copy.
    payloads: Vec<(usize, SubmitRequest)>,
    sequence: Vec<usize>,
}

impl Inputs {
    /// The suite index and request that request `i` sends.
    fn request(&self, i: usize) -> &(usize, SubmitRequest) {
        &self.payloads[self.sequence[i % self.sequence.len()]]
    }
}

fn generate(seed: u64) -> Inputs {
    let suite = gen::suite(seed);
    let mut rng = Rng::new(seed, 1);
    let mut payloads = Vec::with_capacity(suite.len() * HOT_VARIANTS);
    for (d, design) in suite.iter().enumerate() {
        for _ in 0..HOT_VARIANTS {
            payloads.push((d, submit_request(gen::renamed(design, rng.next_u64()))));
        }
    }
    // Suite designs in balanced shuffled order, each with a uniformly drawn
    // renamed copy.
    let sequence = rng
        .balanced(suite.len(), HOT_SEQUENCE)
        .into_iter()
        .map(|d| d * HOT_VARIANTS + rng.below(HOT_VARIANTS))
        .collect();
    Inputs {
        suite,
        payloads,
        sequence,
    }
}

/// A reply's netlist and report bytes.
type Segments = (Arc<[u8]>, Arc<[u8]>);

/// A started daemon with a filled cache.
struct Daemon {
    server: Server,
    state: PathBuf,
    /// Per suite design: the warm-up miss's netlist and report bytes.
    warm: Vec<Segments>,
}

impl Daemon {
    fn stop(self) {
        self.server.shutdown();
        let _ = fs::remove_dir_all(&self.state);
    }
}
/// Start a daemon and submit every suite design once over [`CLIENTS`]
/// connections, keeping the misses' bytes.
fn start(suite: &[Design], rep: usize) -> Daemon {
    let state = scratch_dir(&format!("state{rep}"));
    let _ = fs::remove_dir_all(&state);
    let server = Server::start(ServeConfig::new(&state)).expect("daemon starts");
    let addr = server.local_addr();
    let next = AtomicUsize::new(0);
    let mut got: Vec<(usize, Response)> = thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(addr).expect("connect to the daemon");
                    let mut out = Vec::new();
                    loop {
                        // Ordering: Relaxed — only the counter's atomicity
                        // matters; results travel through the join.
                        let d = next.fetch_add(1, Ordering::Relaxed);
                        let Some(design) = suite.get(d) else { break };
                        let r = client.submit(&submit_request(design.blif.clone()));
                        out.push((d, r.expect("warm-up submission answered")));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up client panicked"))
            .collect()
    });
    got.sort_by_key(|(d, _)| *d);
    let warm = got
        .into_iter()
        .map(|(d, r)| match r {
            Response::Ok {
                cache_hit: false,
                netlist,
                report,
            } => (netlist.into(), report.into()),
            other => panic!("warm-up of {} got {other:?}", suite[d].name),
        })
        .collect();
    Daemon {
        server,
        state,
        warm,
    }
}

/// Suite passes per throughput block: the closed loop's capacity is read
/// per block of this many back-to-back permutations of the suite (about a
/// third of a second), so every block holds the same mix of sizes.
const PASSES_PER_BLOCK: usize = 4;

/// Share of the samples the throughput and latency figures come from: the
/// faster half of the blocks, and of each design's latencies. All requests
/// move with bursts of host steal; the fastest tenth, as on the batch,
/// moves with steady contention as much as all requests do and adds
/// sampling noise. The faster half read steadiest under both.
const FAST_SHARE: f64 = 0.5;

/// One request of the timed phase.
struct Rec {
    /// When it was sent and when its verdict was back, in seconds from the
    /// start of the phase.
    sent_s: f64,
    done_s: f64,
    outcome: check::Outcome,
}

impl Rec {
    fn latency_ms(&self) -> f64 {
        (self.done_s - self.sent_s) * 1e3
    }
}

/// Drive the daemon in a closed loop for `seconds`. Returns the records
/// in request order and the phase's wall time.
fn drive(inputs: &Inputs, daemon: &Daemon, seconds: Duration) -> (Vec<Rec>, f64) {
    let addr = daemon.server.local_addr();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut recs: Vec<(usize, Rec)> = thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(addr).expect("connect to the daemon");
                    let mut out = Vec::new();
                    while start.elapsed() < seconds {
                        // Ordering: Relaxed — a ticket counter; results
                        // travel through the join.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (d, request) = inputs.request(i);
                        let sent_s = start.elapsed().as_secs_f64();
                        let got = client.submit(request);
                        let done_s = start.elapsed().as_secs_f64();
                        let (netlist, report) = &daemon.warm[*d];
                        let expect = Hit {
                            netlist: netlist.clone(),
                            report: report.clone(),
                        };
                        let outcome = judge(&expect, &got);
                        if matches!(&outcome, check::Outcome::Failed(_)) {
                            // A transport error leaves the stream unusable.
                            if let Ok(c) = Client::connect(addr) {
                                client = c;
                            }
                        }
                        out.push((
                            i,
                            Rec {
                                sent_s,
                                done_s,
                                outcome,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    recs.sort_by_key(|(i, _)| *i);
    (recs.into_iter().map(|(_, r)| r).collect(), wall)
}

/// Counters from a STATS frame.
fn stats(daemon: &Daemon) -> HashMap<&'static str, u64> {
    let mut client = Client::connect(daemon.server.local_addr()).expect("connect for STATS");
    let Ok(Response::Stats(json)) = client.stats() else {
        panic!("daemon did not answer STATS");
    };
    ["accepted", "shed", "hits", "misses"]
        .into_iter()
        .map(|k| (k, json_u64(&json, k).unwrap_or(0)))
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    // Set-up: generate the inputs, start the daemon (journal open), warm
    // the cache. Repeated; each daemon is stopped and its inputs dropped
    // before the next set-up, and the last one serves the timed phase.
    let mut setups = Vec::new();
    let mut prepared: Option<(Inputs, Daemon)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((inputs, daemon)) = prepared.take() {
            daemon.stop();
            drop(inputs);
        }
        let t = Instant::now();
        let inputs = generate(args.seed);
        let daemon = start(&inputs.suite, rep);
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some((inputs, daemon));
    }
    let (inputs, daemon) = prepared.expect("at least one set-up");

    let before = stats(&daemon);
    let (recs, wall) = drive(&inputs, &daemon, args.seconds);
    let after = stats(&daemon);
    let rss = peak_rss_mb();
    let delta = |k: &str| after[k].saturating_sub(before[k]) as f64;

    let mut out = Outcome {
        attempted: recs.len() as u64,
        ..Outcome::default()
    };
    // The warm-up misses must match in-process runs of the same bytes.
    let warm_refs = par_map(&inputs.suite, |d| check::reference(&d.blif));
    for ((d, r), (netlist, _)) in inputs.suite.iter().zip(&warm_refs).zip(&daemon.warm) {
        if check::verilog(r)[..] != netlist[..] {
            out.mismatches.push(format!(
                "{}: warm-up netlist differs from the in-process run",
                d.name
            ));
        }
    }
    for (i, r) in recs.iter().enumerate() {
        match &r.outcome {
            check::Outcome::Pass => {}
            check::Outcome::Failed(_) => out.failed += 1,
            check::Outcome::Mismatch(m) => {
                out.failed += 1;
                out.mismatches.push(format!("request {i}: {m}"));
            }
        }
    }

    // A failed request misses any latency limit: it counts with the whole
    // phase's wall time.
    let latencies: Vec<f64> = recs
        .iter()
        .map(|r| match r.outcome {
            check::Outcome::Pass => r.latency_ms(),
            _ => wall * 1e3,
        })
        .collect();
    let jj_total: u64 = daemon
        .warm
        .iter()
        .map(|(_, report)| json_u64(report, "jj_total").expect("report carries jj_total"))
        .sum();

    if args.trace {
        let mut m = vec![
            Metric::new(
                "serve.cache.hit_ratio",
                delta("hits") / (delta("hits") + delta("misses")).max(1.0),
                "ratio",
                (delta("hits") + delta("misses")) as usize,
            ),
            Metric::new(
                "serve.shed_frac",
                delta("shed") / delta("accepted").max(1.0),
                "ratio",
                delta("accepted") as usize,
            ),
        ];
        let warm_reports: Vec<FlowReport> = warm_refs.into_iter().map(|r| r.report).collect();
        m.extend(layers(
            args,
            &inputs,
            &daemon,
            &latencies,
            &warm_reports,
            &mut out.mismatches,
        ));
        daemon.stop();
        out.metrics = m;
        return out;
    }
    daemon.stop();

    // The faster half of the blocks (from the first send to the last
    // verdict of the block), and of each design's request latencies.
    let blocks: Vec<(f64, usize)> = recs
        .chunks_exact(PASSES_PER_BLOCK * inputs.suite.len())
        .map(|c| {
            let first = c.iter().map(|r| r.sent_s).fold(f64::INFINITY, f64::min);
            let last = c.iter().map(|r| r.done_s).fold(0.0, f64::max);
            let passed = c
                .iter()
                .filter(|r| matches!(r.outcome, check::Outcome::Pass))
                .count();
            (last - first, passed)
        })
        .collect();
    let (designs_per_s, fast_requests, fast_blocks) = fastest_rate(&blocks, FAST_SHARE);
    let mut per_design = vec![Vec::new(); inputs.suite.len()];
    for (i, ms) in latencies.iter().enumerate() {
        per_design[inputs.request(i).0].push(*ms);
    }
    let fast_ms = fastest_pooled(&per_design, FAST_SHARE);
    println!(
        "all {} requests: {:.1} per s, latency p50 {:.3} ms, p99 {:.3} ms",
        recs.len(),
        (out.attempted - out.failed) as f64 / wall,
        median(&latencies),
        quantile(&latencies, 0.99)
    );
    println!(
        "fastest {fast_blocks} of {} blocks: {fast_requests} requests",
        blocks.len()
    );
    let (tail_label, _) = crate::stats::tail(&fast_ms);
    println!("latency tail rank with >=10 samples beyond it: {tail_label}");
    out.metrics = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new("designs_per_s", designs_per_s, "1/s", fast_requests),
        Metric::new("latency_p50_ms", median(&fast_ms), "ms", fast_ms.len()),
        Metric::new(
            "latency_p99_ms",
            quantile(&fast_ms, 0.99),
            "ms",
            fast_ms.len(),
        ),
        Metric::new(
            "ok_frac",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
            out.attempted as usize,
        ),
        Metric::new("jj_total", jj_total as f64, "JJ", inputs.suite.len()),
        Metric::new("peak_rss_mb", rss, "MiB", 1),
    ];
    out
}

/// Serve-path layers a workload that never touches the daemon reports as
/// zero.
pub fn idle_serve_layers() -> Vec<Metric> {
    [
        ("serve.protocol.decode_us", "us"),
        ("aig.io.parse_equiv_per_request", "count"),
        ("lint.admit_ms", "ms"),
        ("serve.journal.submit_ms", "ms"),
        ("serve.journal.done_ms", "ms"),
        ("serve.journal.fsync_equiv_per_job", "count"),
        ("aig.digest_us", "us"),
        ("serve.cache.get_us", "us"),
        ("serve.cache.hit_ratio", "ratio"),
        ("serve.unattributed_ms", "ms"),
        ("serve.unattributed_frac", "ratio"),
        ("serve.shed_frac", "ratio"),
    ]
    .into_iter()
    .map(|(name, unit)| Metric::new(name, 0.0, unit, 0))
    .collect()
}

/// Cache-key guard component for the replay's private cache (any constant
/// works: the replay's cache only ever sees this one configuration).
const REPLAY_GUARDS: &str = "perfbench-replay";

/// The daemon's state for the replay: a scratch journal and a result cache
/// holding what the warm-up put in.
struct ReplayState {
    journal: Journal,
    cache: ResultCache,
    dir: PathBuf,
}

/// Replay one resubmission through the daemon's request path, layer by
/// layer: decode; admission parse and lint; journal submit; the shard's
/// second parse, digest and cache lookup; journal done; reply decode.
fn replay_request(rec: &mut Recorder, id: u32, request: &SubmitRequest, st: &ReplayState) {
    let wire = request.encode();
    rec.begin("request", id);
    let req = rec.time("serve.protocol.decode", id, || {
        SubmitRequest::decode(&wire).expect("generated submission decodes")
    });
    let aig = rec.time("aig.io.parse", id, || {
        read_netlist_auto(&req.data).expect("generated submission parses")
    });
    let diags = rec.time("lint.admit", id, || lint_aig(&aig));
    assert!(!has_errors(&diags), "a suite design failed admission lint");
    let job = st.journal.next_id();
    rec.time("serve.journal.submit", id, || {
        st.journal
            .record_submit(job, &req, None)
            .expect("journal write")
    });
    let aig = rec.time("aig.io.parse", id, || {
        read_netlist_auto(&req.data).expect("generated submission parses")
    });
    let key = CacheKey {
        digest: rec.time("aig.digest", id, || canonical_digest(&aig)),
        script: SCRIPT.into(),
        guards: REPLAY_GUARDS.into(),
    };
    let segments = rec
        .time("serve.cache.get", id, || st.cache.get(&key))
        .expect("the replay cache holds every suite design");
    let body = encode_ok_body(true, &segments);
    rec.time("serve.journal.done", id, || {
        st.journal.record_done(job, "ok").expect("journal write")
    });
    rec.time("serve.protocol.decode", id, || {
        decode_response(KIND_OK, &body).expect("replayed reply decodes")
    });
    rec.end();
}

/// Median time of one 64-byte append + `sync_all` in `dir`, in ms.
fn raw_fsync_ms(dir: &std::path::Path) -> f64 {
    use std::io::Write;
    let path = dir.join("fsync-probe");
    let mut f = fs::File::create(&path).expect("probe file");
    let samples: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            f.write_all(&[b'x'; 64]).expect("probe write");
            f.sync_all().expect("probe fsync");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let _ = fs::remove_file(path);
    median(&samples)
}

/// Least-squares slope of `y` on `x`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mx, my) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x / n, b + y / n));
    let (sxy, sxx) = points.iter().fold((0.0, 0.0), |(a, b), (x, y)| {
        (a + (x - mx) * (y - my), b + (x - mx) * (x - mx))
    });
    sxy / sxx
}

/// How many parses a request's latency holds: per suite design, the median
/// end-to-end latency minus the replayed layers other than parsing, against
/// the median time of one parse; the least-squares slope over the designs.
/// The rest of a request's cost hardly grows with design size, so the slope
/// reads the parses the daemon makes (2 today), scaled by how much the two
/// clients' requests slow each other.
fn parse_equiv_per_request(rec: &Recorder, inputs: &Inputs, latencies: &[f64], k: usize) -> f64 {
    let totals = rec.roots("request");
    let parses = rec.by_request("aig.io.parse");
    let mut by_design: HashMap<usize, (Vec<f64>, Vec<f64>)> = HashMap::new();
    for i in 0..k {
        let (parse_ms, calls) = parses[&(i as u32)];
        let other_ms = totals[i] - parse_ms;
        let e = by_design.entry(inputs.request(i).0).or_default();
        e.0.push(parse_ms / calls as f64);
        e.1.push(latencies[i] - other_ms);
    }
    let points: Vec<(f64, f64)> = by_design
        .values()
        .map(|(per_call, rest)| (median(per_call), median(rest)))
        .collect();
    slope(&points)
}

/// The traced pass of `serve-hot`.
fn layers(
    args: &Args,
    inputs: &Inputs,
    daemon: &Daemon,
    latencies: &[f64],
    warm_reports: &[FlowReport],
    mismatches: &mut Vec<String>,
) -> Vec<Metric> {
    let dir = scratch_dir("replay");
    let _ = fs::remove_dir_all(&dir);
    let (journal, _) = Journal::open(&dir).expect("scratch journal opens");
    let st = ReplayState {
        journal,
        cache: ResultCache::new(ServeConfig::new(&dir).cache_budget),
        dir,
    };
    for (d, (netlist, report)) in inputs.suite.iter().zip(&daemon.warm) {
        let key = CacheKey {
            digest: d.digest,
            script: SCRIPT.into(),
            guards: REPLAY_GUARDS.into(),
        };
        st.cache.put(key, encode_result_segments(netlist, report));
    }

    // Request path: the run's first requests, each replayed untraced and
    // traced.
    let k = latencies.len().min(REPLAY_REQUESTS);
    let (rec, overhead) = trace::replay_twice(k, |rec: &mut Recorder, id| {
        replay_request(rec, id, &inputs.request(id as usize).1, &st);
    });
    rec.finish(&trace::trace_path(&args.workload, args.seed));

    let mut m = trace::layer_medians(
        &rec,
        &[
            (
                "serve.protocol.decode",
                "serve.protocol.decode_us",
                "us",
                1e3,
            ),
            ("aig.io.parse", "aig.io.parse_ms", "ms", 1.0),
            ("lint.admit", "lint.admit_ms", "ms", 1.0),
            ("serve.journal.submit", "serve.journal.submit_ms", "ms", 1.0),
            ("serve.journal.done", "serve.journal.done_ms", "ms", 1.0),
            ("aig.digest", "aig.digest_us", "us", 1e3),
            ("serve.cache.get", "serve.cache.get_us", "us", 1e3),
        ],
    );
    m.push(Metric::new(
        "aig.io.parse_equiv_per_request",
        parse_equiv_per_request(&rec, inputs, latencies, k),
        "count",
        k,
    ));
    let journal_ms = median(&rec.per_request("serve.journal.submit"))
        + median(&rec.per_request("serve.journal.done"));
    m.push(Metric::new(
        "serve.journal.fsync_equiv_per_job",
        journal_ms / raw_fsync_ms(&st.dir),
        "count",
        k,
    ));
    // What the replayed layers do not explain: queue wait, thread hops,
    // sockets.
    let layer_sums: Vec<f64> = rec
        .roots("request")
        .iter()
        .zip(rec.per_call("request"))
        .map(|(total, own)| total - own)
        .collect();
    let e2e = median(&latencies[..k]);
    let unattributed = e2e - median(&layer_sums);
    m.push(Metric::new("serve.unattributed_ms", unattributed, "ms", k));
    m.push(Metric::new(
        "serve.unattributed_frac",
        unattributed / e2e,
        "ratio",
        k,
    ));
    m.extend(overhead);
    let _ = fs::remove_dir_all(&st.dir);

    // Flow set: the suite designs the warm-up synthesized.
    let designs: Vec<Aig> = inputs.suite.iter().map(|d| d.aig.clone()).collect();
    let pool = ThreadPool::new(1);
    let mut flow_rec = Recorder::new(true);
    for (i, (aig, report)) in designs.iter().zip(warm_reports).enumerate() {
        let id = i as u32;
        flow_rec.begin("design", id);
        let (_, mapped) = trace::replay_flow(&mut flow_rec, id, aig, &pool);
        trace::replay_output(&mut flow_rec, id, &mapped, report);
        flow_rec.end();
    }
    m.extend(trace::layer_medians(
        &flow_rec,
        &[
            (
                "netlist.write_verilog",
                "netlist.write_verilog_ms",
                "ms",
                1.0,
            ),
            ("core.report_json", "core.report_json_ms", "ms", 1.0),
        ],
    ));
    m.extend(trace::stage_sums(&flow_rec));
    let rows: Vec<trace::PassRow> = daemon
        .warm
        .iter()
        .flat_map(|(_, r)| trace::passes_from_json(&String::from_utf8_lossy(r)))
        .collect();
    m.extend(trace::pass_metrics(&rows));
    let set = trace::flow_set_layers(&designs);
    m.extend(set.metrics);
    mismatches.extend(set.mismatches);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_reads_a_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|x| (x as f64, 2.0 * x as f64 + 3.0)).collect();
        assert!((slope(&pts) - 2.0).abs() < 1e-12);
    }
}
