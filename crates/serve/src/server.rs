//! The daemon: admission, shard workers, TCP listener, directory watcher,
//! graceful drain. See the [crate docs](crate) for the operational guide.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use xsfq_aig::digest::canonical_digest;
use xsfq_aig::io::read_netlist_auto;
use xsfq_aig::pass::{PassCtx, Script};
use xsfq_core::SynthesisFlow;
use xsfq_exec::{panic_message, CancelToken};
use xsfq_lint::{has_errors, lint_aig, CheckLevel, Diag};
use xsfq_netlist::writers::{write_verilog, Json};
use xsfq_timing::TimingOptions;

use crate::cache::{CacheKey, ResultCache};
use crate::job::{Input, Job, JobSink};
use crate::journal::Journal;
use crate::protocol::{
    self, read_frame, write_frame, SubmitRequest, KIND_BUSY, KIND_ERR, KIND_OK, KIND_PING,
    KIND_PONG, KIND_STATS, KIND_STATS_OK, KIND_SUBMIT,
};
use crate::queue::JobQueue;

/// Daemon configuration. Construct with [`ServeConfig::new`] and override
/// fields as needed; every field has a production-sane default.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// TCP listen address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Journal + spool directory; created if missing. The daemon's crash
    /// recovery replays from here, so it must survive restarts.
    pub state_dir: PathBuf,
    /// Directory to poll for dropped-in `.blif` / `.aag` / `.aig` jobs.
    pub watch_dir: Option<PathBuf>,
    /// Where directory jobs' results land (`<design>.v` + `<design>.json`,
    /// or `<design>.err.json`, where `<design>` is the dropped file's name
    /// without its last extension: `s420.1.blif` gives `s420.1.v`).
    /// Defaults to `state_dir/results`.
    pub out_dir: Option<PathBuf>,
    /// Worker shards; each runs one job at a time on its own thread and
    /// keeps one warm pass context across jobs.
    pub shards: usize,
    /// Admission-queue capacity. Beyond it, submissions that miss the
    /// result cache shed with BUSY; hits need no slot.
    pub queue_capacity: usize,
    /// Concurrent TCP connections; excess connections get one BUSY frame.
    pub max_connections: usize,
    /// Per-job wall-clock deadline (counted from job start, not submit).
    pub job_deadline: Option<Duration>,
    /// Retries for transient failures (panics). 0 disables.
    pub retry_limit: u32,
    /// First retry delay; doubles per attempt.
    pub retry_base: Duration,
    /// Result-cache byte budget; 0 disables caching.
    pub cache_budget: usize,
    /// Script used when a submission leaves its script field empty.
    pub default_script: String,
    /// Static checking level for every job (see [`CheckLevel`]): the
    /// default `Stage` lints submissions at admission (ill-formed netlists
    /// are rejected with structured diagnostics instead of occupying a
    /// shard) and validates each job's intermediate structures between
    /// flow stages. `Off` restores the unchecked fast path.
    pub check: CheckLevel,
    /// Optional timing stage for every job (see `xsfq_core::FlowOptions::
    /// timing`): static arrival/slack analysis plus slack-matching JTL
    /// insertion on the mapped netlist; the verdict's report JSON then
    /// carries a `timing` summary. `None` (the default) keeps results
    /// byte-identical to earlier releases. The configuration joins the
    /// result-cache fingerprint, so flipping it can never replay a
    /// differently-timed cached netlist.
    pub timing: Option<TimingOptions>,
    /// How long a drain lets in-flight jobs finish before cancelling them.
    pub drain_grace: Duration,
}

impl ServeConfig {
    /// Defaults: ephemeral localhost port, one shard per core
    /// ([`xsfq_exec::default_threads`]: `XSFQ_THREADS`, or the hardware's
    /// parallelism), 64-deep queue, 60 s deadline, 2 retries, 64 MiB cache,
    /// `standard` script, 5 s drain grace.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: state_dir.into(),
            watch_dir: None,
            out_dir: None,
            shards: xsfq_exec::default_threads(),
            queue_capacity: 64,
            max_connections: 64,
            job_deadline: Some(Duration::from_secs(60)),
            retry_limit: 2,
            retry_base: Duration::from_millis(20),
            cache_budget: 64 << 20,
            default_script: "standard".into(),
            check: CheckLevel::Stage,
            timing: None,
            drain_grace: Duration::from_secs(5),
        }
    }
}

#[derive(Default)]
struct Stats {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    retries: AtomicU64,
    recovered: AtomicU64,
}

struct Shared {
    queue: JobQueue,
    journal: Journal,
    cache: ResultCache,
    stats: Stats,
    /// Drain cancellation: fired by the grace timer, observed by every
    /// in-flight job through its flow's cancel token.
    cancel: CancelToken,
    stop: AtomicBool,
    draining: AtomicBool,
    /// Live TCP connections, each holding a [`ConnectionSlot`].
    connections: Arc<AtomicUsize>,
    /// The daemon's settings, as started.
    cfg: ServeConfig,
    /// Cache-key component covering everything job-independent the result
    /// depends on (deadline, checking level, timing, flow defaults).
    config_fp: String,
}

/// The structured failure verdict (`xsfq-serve-verdict/1`); `diags` are
/// the lint findings behind an admission rejection, empty otherwise.
fn verdict_json(
    kind: &str,
    name: &str,
    pass: Option<&str>,
    attempts: u32,
    elapsed_ms: u64,
    detail: &str,
    diags: &[Diag],
) -> String {
    Json::object([
        ("schema", "xsfq-serve-verdict/1".into()),
        ("name", name.into()),
        ("kind", kind.into()),
        ("pass", pass.into()),
        ("attempts", attempts.into()),
        ("elapsed_ms", elapsed_ms.into()),
        ("detail", detail.into()),
        ("diags", Json::Array(diags.iter().map(Json::from).collect())),
    ])
    .to_string()
}

fn busy_hint_ms(queue_len: usize) -> u32 {
    (50 + 25 * queue_len as u32).min(2000)
}

/// How admission disposed of a submission.
enum Admit {
    /// Journaled and queued: the verdict reaches the job's sink once a
    /// shard settles it.
    Queued,
    /// Answered at admission: `(kind, body)` is the whole reply, a cache
    /// hit (`OK`) or a `rejected`, `parse` or `panicked` verdict (`ERR`).
    Answered(u8, Vec<u8>),
    /// Shed (queue full, or draining); carries the retry-after hint in ms.
    Busy(u32),
}

/// Why admission refused a submission: the verdict's kind, its detail,
/// and the lint findings behind it (empty for any other refusal).
struct Refusal {
    kind: &'static str,
    detail: String,
    diags: Vec<Diag>,
}

impl Refusal {
    fn new(kind: &'static str, detail: String) -> Refusal {
        Refusal {
            kind,
            detail,
            diags: Vec::new(),
        }
    }
}

/// Admission's checks, in order: the fault request, the script, the one
/// parse of the netlist, and at `Stage` the lint. Passing all of them
/// yields the AIG and its result-cache key.
fn vet(sh: &Shared, request: &SubmitRequest) -> Result<Input, Refusal> {
    if let Some(f) = request.fault {
        if !(1..=2).contains(&f.kind) {
            let detail = format!("unknown fault kind {}", f.kind);
            return Err(Refusal::new("rejected", detail));
        }
        if !cfg!(feature = "chaos") {
            let detail = "fault injection requires a chaos build".into();
            return Err(Refusal::new("rejected", detail));
        }
    }
    let script = if request.script.is_empty() {
        sh.cfg.default_script.clone()
    } else {
        request.script.clone()
    };
    if let Err(e) = Script::parse(&script) {
        return Err(Refusal::new("rejected", format!("bad script: {e}")));
    }
    let aig = read_netlist_auto(&request.data).map_err(|e| Refusal::new("parse", e.to_string()))?;
    // Admission-time lint: a submission that parses but is structurally
    // ill-formed (duplicate ports, output shadowing an input, …) would
    // fail deep inside the flow — or worse, synthesize a netlist with
    // colliding dual-rail port names. Reject it here with the findings
    // attached, before the cache could answer for it.
    if sh.cfg.check >= CheckLevel::Stage {
        let diags = lint_aig(&aig);
        if has_errors(&diags) {
            return Err(Refusal {
                kind: "rejected",
                detail: format!("submission failed lint with {} finding(s)", diags.len()),
                diags,
            });
        }
    }
    let key = CacheKey {
        digest: canonical_digest(&aig),
        script,
        guards: sh.config_fp.clone(),
    };
    Ok(Input { aig, key })
}

/// Count an answer given at admission and return it. A fresh submission
/// answered here leaves no journal record: the reply is its only effect,
/// and the reply is idempotent — a crash before it is sent looks to the
/// client like a dropped connection, and resubmitting gets the same
/// answer. A recovered job was accepted by an earlier incarnation, so its
/// answer appends the `D` record, counter first as in [`finish_ok`].
fn answered(sh: &Shared, recovered: Option<u64>, kind: u8, body: Vec<u8>) -> Admit {
    let ok = kind == KIND_OK;
    // Ordering: Relaxed — telemetry counters (see the queued path below);
    // the counter-before-journal order is finish_ok's.
    if ok {
        sh.stats.accepted.fetch_add(1, Ordering::Relaxed);
        sh.stats.completed.fetch_add(1, Ordering::Relaxed);
    } else if recovered.is_some() {
        sh.stats.failed.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(id) = recovered {
        let _ = sh.journal.record_done(id, if ok { "ok" } else { "err" });
    }
    Admit::Answered(kind, body)
}

/// The single admission path, shared by TCP submissions, directory drops
/// and journal recovery. It vets the submission, then looks it up in the
/// result cache: refusals and hits are answered here, on the admitting
/// thread; only a miss is made durable and queued. `recovered` jobs skip
/// re-journaling — their `S` record already exists.
fn admit(sh: &Arc<Shared>, request: SubmitRequest, sink: JobSink, recovered: Option<u64>) -> Admit {
    if sh.draining.load(Ordering::SeqCst) && recovered.is_none() {
        return Admit::Busy(busy_hint_ms(sh.queue.ready_len()));
    }
    let refuse = |r: Refusal| {
        let v = verdict_json(r.kind, &request.name, None, 0, 0, &r.detail, &r.diags);
        answered(
            sh,
            recovered,
            KIND_ERR,
            protocol::encode_err(r.kind, v.as_bytes()),
        )
    };
    // The parser, lint and digest read untrusted bytes on the admitting
    // thread. A bug there must cost one verdict, not the directory
    // watcher, nor a restart that panics on the same recovered spool.
    let vetted = panic::catch_unwind(AssertUnwindSafe(|| vet(sh, &request)));
    let input = match vetted {
        Ok(Ok(vetted)) => vetted,
        Ok(Err(r)) => return refuse(r),
        Err(payload) => {
            let detail = format!("admission panicked: {}", panic_message(payload.as_ref()));
            return refuse(Refusal::new("panicked", detail));
        }
    };
    // Fault-injected jobs bypass the cache in both directions: a hit would
    // skip synthesis — and the requested fault with it — and a faulted
    // run's output must never be served to healthy resubmissions.
    if request.fault.is_none() {
        if let Some(segments) = sh.cache.get(&input.key) {
            let body = protocol::encode_ok_body(true, &segments);
            return answered(sh, recovered, KIND_OK, body);
        }
    }
    let id = match recovered {
        Some(id) => id,
        None => {
            let id = sh.journal.next_id();
            let dir_base = match &sink {
                JobSink::Dir { base } => Some(base.as_path()),
                _ => None,
            };
            // Durability before acceptance: a job the client saw admitted
            // must be recoverable. A journal write failure refuses the job.
            if let Err(e) = sh.journal.record_submit(id, &request, dir_base) {
                return refuse(Refusal::new(
                    "rejected",
                    format!("journal write failed: {e}"),
                ));
            }
            id
        }
    };
    let name = if request.name.is_empty() {
        input.aig.name().to_string()
    } else {
        request.name
    };
    let job = Job {
        id,
        name,
        input: Box::new(input),
        fault: request.fault,
        sink,
        attempt: 0,
    };
    let pushed = if recovered.is_some() {
        // Recovered jobs were accepted by a previous incarnation; they
        // bypass the capacity check like retries do.
        sh.queue.push_retry(job, Duration::ZERO)
    } else {
        sh.queue.try_push(job)
    };
    match pushed {
        Ok(()) => {
            // Ordering: Relaxed — stats counters are monotonic telemetry;
            // any cross-thread invariant (e.g. "counter bumped before the
            // journal's D record is observable") rides on the journal's
            // lock, never on the counters' own ordering. Pinned by the
            // serve model_gate's PR-7 regression pair.
            sh.stats.accepted.fetch_add(1, Ordering::Relaxed);
            Admit::Queued
        }
        Err(job) => {
            // Ordering: Relaxed — telemetry, see above.
            sh.stats.shed.fetch_add(1, Ordering::Relaxed);
            let _ = sh.journal.record_done(job.id, "shed");
            Admit::Busy(busy_hint_ms(sh.queue.ready_len()))
        }
    }
}

/// Send a finished job's response to wherever it goes.
fn deliver(sink: &JobSink, kind: u8, body: Vec<u8>) {
    match sink {
        JobSink::Tcp(tx) => {
            // A send error means the client hung up; the work is still
            // journaled and cached, which is all at-least-once promises.
            let _ = tx.send((kind, body));
        }
        JobSink::Dir { base } => {
            // Append the suffix: `with_extension` would replace the last
            // dotted part of a name like `s420.1`.
            let write = |suffix: &str, bytes: &[u8]| {
                let mut path = base.clone().into_os_string();
                path.push(suffix);
                let path = PathBuf::from(path);
                if let Some(parent) = path.parent() {
                    let _ = fs::create_dir_all(parent);
                }
                let _ = fs::write(path, bytes);
            };
            match protocol::decode_response(kind, &body) {
                Ok(protocol::Response::Ok {
                    netlist, report, ..
                }) => {
                    write(".v", &netlist);
                    write(".json", &report);
                }
                Ok(protocol::Response::Err { verdict, .. }) => {
                    write(".err.json", &verdict);
                }
                _ => {}
            }
        }
        JobSink::Discard => {}
    }
}

/// Settle a successful job: counters, then journal, then response — so
/// anyone who observes the durable `D` record (or reacts to the response)
/// already sees the updated stats.
fn finish_ok(sh: &Shared, job: &Job, body: Vec<u8>) {
    // Ordering: Relaxed — the counter-before-journal *program* order is
    // what carries the invariant (observers of the durable D record see
    // the bump via the journal's lock); the counter itself publishes
    // nothing. The serve model_gate PR-7 regression pins this shape.
    sh.stats.completed.fetch_add(1, Ordering::Relaxed);
    let _ = sh.journal.record_done(job.id, "ok");
    deliver(&job.sink, KIND_OK, body);
}

/// Settle a failed job the same way.
fn finish_err(sh: &Shared, job: &Job, kind: &str, verdict: &str) {
    // Ordering: Relaxed — same counter-before-journal shape as finish_ok.
    sh.stats.failed.fetch_add(1, Ordering::Relaxed);
    let _ = sh.journal.record_done(job.id, "err");
    deliver(
        &job.sink,
        KIND_ERR,
        protocol::encode_err(kind, verdict.as_bytes()),
    );
}

/// Run one job to a terminal state (or requeue it for retry).
fn process(sh: &Arc<Shared>, ctx: &mut PassCtx, mut job: Job) {
    // Faulted jobs bypass the cache (see admit). Any other job missed at
    // admission, but a twin queued ahead of it may have filled the cache
    // since: replay that instead of synthesizing the design twice.
    let faulted = job.fault.is_some();
    if !faulted {
        if let Some(segments) = sh.cache.recheck(&job.input.key) {
            finish_ok(sh, &job, protocol::encode_ok_body(true, &segments));
            return;
        }
    }

    let mut flow = match SynthesisFlow::new()
        .check(sh.cfg.check)
        .cancel_token(sh.cancel.clone())
        .script_str(&job.input.key.script)
    {
        Ok(flow) => flow,
        // Admission validated the script, so this only fires when a
        // recovered spool carries a script a newer build rejects.
        Err(e) => {
            let detail = e.to_string();
            let v = verdict_json("script", &job.name, None, job.attempt, 0, &detail, &[]);
            finish_err(sh, &job, "script", &v);
            return;
        }
    };
    if let Some(d) = sh.cfg.job_deadline {
        flow = flow.job_deadline(d);
    }
    if let Some(t) = &sh.cfg.timing {
        flow = flow.timing(t.clone());
    }
    #[cfg(feature = "chaos")]
    if let Some(f) = job.fault {
        use xsfq_aig::chaos::{FaultKind, FaultPlan};
        // Admission accepts only kinds 1 and 2.
        let kind = match f.kind {
            1 => FaultKind::Panic,
            _ => FaultKind::Stall,
        };
        flow = flow.chaos_plan(FaultPlan::new().fault(0, f.pass as usize, kind));
    }

    match flow.run_job(&job.input.aig, ctx) {
        Ok(result) => {
            let mut netlist = Vec::new();
            write_verilog(result.netlist(), &mut netlist).expect("write netlist to memory");
            let report = result.report.to_json();
            let segments = protocol::encode_result_segments(&netlist, report.as_bytes());
            let body = protocol::encode_ok_body(false, &segments);
            if !faulted {
                sh.cache.put(job.input.key.clone(), segments);
            }
            finish_ok(sh, &job, body);
        }
        Err(e) => {
            if e.kind.is_transient() && job.attempt < sh.cfg.retry_limit {
                job.attempt += 1;
                let backoff = sh
                    .cfg
                    .retry_base
                    .saturating_mul(1u32 << (job.attempt - 1).min(16));
                // Ordering: Relaxed — telemetry counter (see admit).
                sh.stats.retries.fetch_add(1, Ordering::Relaxed);
                match sh.queue.push_retry(job, backoff) {
                    Ok(()) => return,
                    // Queue closed mid-drain: fail the job as cancelled.
                    Err(back) => job = back,
                }
            }
            let kind = e.kind.name();
            let v = verdict_json(
                kind,
                &job.name,
                e.pass.as_deref(),
                job.attempt,
                e.elapsed.as_millis() as u64,
                &e.to_string(),
                &[],
            );
            finish_err(sh, &job, kind, &v);
        }
    }
}

fn worker_loop(sh: Arc<Shared>) {
    // One pass context lives for the shard's lifetime: every job after the
    // first reuses its cut arena and synthesis plan memos, and a job that
    // panics inside the flow leaves it fresh (`run_job`).
    let mut ctx = PassCtx::new();
    while let Some(job) = sh.queue.pop() {
        // The shard thread must survive any single job: a panic that
        // escapes `process` (e.g. a mapper or writer bug on one design) would
        // otherwise kill the shard, and — because the job never reaches a
        // terminal journal state — replay and kill another one on every
        // restart. Catch it, settle the job as failed, and move on.
        let (id, name, attempt, sink) = (job.id, job.name.clone(), job.attempt, job.sink.clone());
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            process(&sh, &mut ctx, job);
        }));
        if let Err(payload) = outcome {
            let detail = format!(
                "job processing panicked: {}",
                panic_message(payload.as_ref())
            );
            let v = verdict_json("panicked", &name, None, attempt, 0, &detail, &[]);
            // Ordering: Relaxed — counter-before-journal, as finish_err.
            sh.stats.failed.fetch_add(1, Ordering::Relaxed);
            let _ = sh.journal.record_done(id, "err");
            deliver(
                &sink,
                KIND_ERR,
                protocol::encode_err("panicked", v.as_bytes()),
            );
        }
    }
}

fn stats_json(sh: &Shared) -> String {
    let (hits, misses, entries, bytes) = sh.cache.stats();
    let cache = Json::object([
        ("hits", hits.into()),
        ("misses", misses.into()),
        ("entries", entries.into()),
        ("bytes", bytes.into()),
    ]);
    // Ordering: Relaxed — stats snapshot; counts racing in from jobs
    // settling concurrently may land on either side of the frame, and
    // either answer is correct telemetry.
    let counter = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
    Json::object([
        ("schema", "xsfq-serve-stats/1".into()),
        ("accepted", counter(&sh.stats.accepted)),
        ("completed", counter(&sh.stats.completed)),
        ("failed", counter(&sh.stats.failed)),
        ("shed", counter(&sh.stats.shed)),
        ("retries", counter(&sh.stats.retries)),
        ("recovered", counter(&sh.stats.recovered)),
        ("queue_len", sh.queue.ready_len().into()),
        ("draining", sh.draining.load(Ordering::SeqCst).into()),
        ("cache", cache),
    ])
    .to_string()
}

fn connection(sh: &Arc<Shared>, mut stream: TcpStream) {
    loop {
        let (kind, payload) = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean EOF or framing error: either way the stream is done.
            _ => return,
        };
        match kind {
            KIND_PING => {
                if write_frame(&mut stream, KIND_PONG, &[]).is_err() {
                    return;
                }
            }
            KIND_STATS => {
                if write_frame(&mut stream, KIND_STATS_OK, stats_json(sh).as_bytes()).is_err() {
                    return;
                }
            }
            KIND_SUBMIT => {
                // The last word on a connection the daemon gives up on.
                let reject = |stream: &mut TcpStream, msg: &str| {
                    let v = verdict_json("rejected", "", None, 0, 0, msg, &[]);
                    let _ = write_frame(
                        stream,
                        KIND_ERR,
                        &protocol::encode_err("rejected", v.as_bytes()),
                    );
                };
                let request = match SubmitRequest::decode(&payload) {
                    Ok(r) => r,
                    Err(e) => return reject(&mut stream, &format!("bad submit payload: {e}")),
                };
                let (tx, rx) = mpsc::channel();
                let (kind, body) = match admit(sh, request, JobSink::Tcp(tx), None) {
                    Admit::Queued => match rx.recv() {
                        Ok(reply) => reply,
                        Err(_) => return reject(&mut stream, "server shut down mid-job"),
                    },
                    Admit::Answered(kind, body) => (kind, body),
                    Admit::Busy(ms) => (KIND_BUSY, ms.to_be_bytes().to_vec()),
                };
                if write_frame(&mut stream, kind, &body).is_err() {
                    return;
                }
            }
            _ => return, // unknown request kind: drop the connection
        }
    }
}

/// One of the `max_connections` slots. Dropping it gives the slot back,
/// so a connection thread that unwinds from a panic releases its slot too.
struct ConnectionSlot(Arc<AtomicUsize>);

impl ConnectionSlot {
    /// Take a slot, or `None` when all `max` are held.
    fn acquire(live: &Arc<AtomicUsize>, max: usize) -> Option<ConnectionSlot> {
        if live.fetch_add(1, Ordering::SeqCst) < max {
            Some(ConnectionSlot(Arc::clone(live)))
        } else {
            live.fetch_sub(1, Ordering::SeqCst);
            None
        }
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(sh: Arc<Shared>, listener: TcpListener) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    while !sh.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let Some(slot) = ConnectionSlot::acquire(&sh.connections, sh.cfg.max_connections)
                else {
                    let _ = stream.set_nonblocking(false);
                    let _ = write_frame(&mut stream, KIND_BUSY, &1000u32.to_be_bytes());
                    continue;
                };
                stream.set_nonblocking(false).expect("blocking stream");
                // Request-response frames; Nagle would only add
                // delayed-ACK latency per exchange.
                let _ = stream.set_nodelay(true);
                let sh = Arc::clone(&sh);
                // Connection threads are detached: they exit on client
                // EOF. Shutdown does not wait for idle keep-alives.
                thread::spawn(move || {
                    let _slot = slot;
                    connection(&sh, stream);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

const WATCH_EXTENSIONS: [&str; 3] = ["blif", "aag", "aig"];

fn watcher_loop(sh: Arc<Shared>, watch_dir: PathBuf, out_dir: PathBuf) {
    // A file is ingested only after its size is stable across two polls,
    // so a writer mid-copy is left alone.
    let mut sizes: HashMap<PathBuf, u64> = HashMap::new();
    while !sh.stop.load(Ordering::SeqCst) {
        let entries: Vec<PathBuf> = fs::read_dir(&watch_dir)
            .map(|rd| {
                rd.flatten()
                    .map(|e| e.path())
                    .filter(|p| {
                        p.extension()
                            .and_then(|e| e.to_str())
                            .is_some_and(|e| WATCH_EXTENSIONS.contains(&e))
                    })
                    .collect()
            })
            .unwrap_or_default();
        // Files that vanished between polls (consumed by another process,
        // deleted by the user) must not pin map entries forever.
        sizes.retain(|p, _| entries.contains(p));
        for path in entries {
            let Ok(meta) = fs::metadata(&path) else {
                continue;
            };
            if meta.len() == 0 {
                continue;
            }
            if sizes.get(&path) != Some(&meta.len()) {
                sizes.insert(path.clone(), meta.len());
                continue;
            }
            let Ok(data) = fs::read(&path) else { continue };
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("job")
                .to_string();
            let sink = JobSink::Dir {
                base: out_dir.join(&stem),
            };
            let request = SubmitRequest {
                script: String::new(),
                name: stem,
                data,
                fault: None,
            };
            match admit(&sh, request, sink.clone(), None) {
                Admit::Queued => {}
                Admit::Answered(kind, body) => deliver(&sink, kind, body),
                // Queue full: leave the file in place, retry next poll.
                Admit::Busy(_) => continue,
            }
            let _ = fs::remove_file(&path);
            sizes.remove(&path);
        }
        thread::sleep(Duration::from_millis(100));
    }
}

/// A running daemon. Dropping it without [`Server::shutdown`] leaks its
/// threads (they keep serving) — always shut down or let the process exit.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Start the daemon: open + replay the journal, requeue incomplete
    /// jobs, bind the listener, spawn shards and watchers.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        fs::create_dir_all(&cfg.state_dir)?;
        let out_dir = cfg
            .out_dir
            .clone()
            .unwrap_or_else(|| cfg.state_dir.join("results"));
        let (journal, recovered) = Journal::open(&cfg.state_dir)?;
        let config_fp = format!(
            "deadline={:?};check={:?};timing={:?};script-defaults=v1",
            cfg.job_deadline, cfg.check, cfg.timing
        );
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_capacity),
            journal,
            cache: ResultCache::new(cfg.cache_budget),
            stats: Stats::default(),
            cancel: CancelToken::new(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            connections: Arc::new(AtomicUsize::new(0)),
            cfg,
            config_fp,
        });
        let cfg = &shared.cfg;

        // Requeue everything the previous incarnation accepted but never
        // finished. TCP jobs' clients are gone: they re-run for the cache
        // and the journal's completion record. Directory jobs still write
        // their result files. A spool admission answers — one this build
        // refuses (a script a newer parser rejects, a fault spec on a
        // non-chaos build, netlist bytes that do not parse) or a cache
        // hit — reaches its terminal journal state inside admit, so it is
        // not replayed at the next startup. Recovered jobs bypass the
        // capacity check and drain never starts before recovery, so Busy
        // is unreachable; if it ever fires, admit journaled the job as
        // shed.
        for r in recovered {
            let sink = match r.dir_base {
                Some(base) => JobSink::Dir { base },
                None => JobSink::Discard,
            };
            // Ordering: Relaxed — telemetry counter (see admit).
            shared.stats.recovered.fetch_add(1, Ordering::Relaxed);
            if let Admit::Answered(kind, body) = admit(&shared, r.request, sink.clone(), Some(r.id))
            {
                deliver(&sink, kind, body);
            }
        }

        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;

        let workers = (0..cfg.shards.max(1))
            .map(|shard| {
                let sh = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("xsfq-serve-shard-{shard}"))
                    .spawn(move || worker_loop(sh))
                    .expect("spawn shard worker")
            })
            .collect();
        let accept = {
            let sh = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("xsfq-serve-accept".into())
                    .spawn(move || accept_loop(sh, listener))
                    .expect("spawn accept loop"),
            )
        };
        let watcher = cfg.watch_dir.clone().map(|dir| {
            fs::create_dir_all(&dir).ok();
            let sh = Arc::clone(&shared);
            thread::Builder::new()
                .name("xsfq-serve-watch".into())
                .spawn(move || watcher_loop(sh, dir, out_dir))
                .expect("spawn watcher")
        });

        Ok(Server {
            shared,
            local_addr,
            workers,
            accept,
            watcher,
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful drain: stop admitting (new submissions get BUSY), let
    /// queued + in-flight jobs finish, cancel whatever is still running
    /// after the grace period, flush the journal, join every thread.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        {
            let cancel = self.shared.cancel.clone();
            let grace = self.shared.cfg.drain_grace;
            // Detached on purpose: joining would stall shutdown for the
            // full grace even when the queue drains instantly.
            thread::spawn(move || {
                thread::sleep(grace);
                cancel.cancel();
            });
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.watcher.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_connection_thread_gives_its_slot_back() {
        let live = Arc::new(AtomicUsize::new(0));
        let slot = ConnectionSlot::acquire(&live, 1).expect("a free slot");
        assert!(ConnectionSlot::acquire(&live, 1).is_none(), "one slot only");
        let died = thread::spawn(move || {
            let _slot = slot;
            panic!("connection thread dies holding its slot");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "the unwind released the slot"
        );
        assert!(ConnectionSlot::acquire(&live, 1).is_some());
    }

    #[test]
    fn verdict_json_bytes_are_pinned() {
        use xsfq_lint::{Code, Diag, Site};
        let diags = [
            Diag::new(
                Code::X008,
                Site::Port("a".into()),
                "output `a` shadows an input",
            ),
            Diag::new(Code::W101, Site::Node(3), "dead node"),
        ];
        let v = verdict_json(
            "stalled",
            "ctrl\t2",
            Some("rf -K 10"),
            2,
            17,
            "pass \"rf\" at C:\\x\u{1}",
            &diags,
        );
        assert_eq!(
            v,
            r#"{"schema":"xsfq-serve-verdict/1","name":"ctrl\t2","kind":"stalled","pass":"rf -K 10","attempts":2,"elapsed_ms":17,"detail":"pass \"rf\" at C:\\x\u0001","diags":[{"code":"X008","severity":"error","message":"output `a` shadows an input","site":{"kind":"port","name":"a"}},{"code":"W101","severity":"warning","message":"dead node","site":{"kind":"node","index":3}}]}"#
        );
        assert_eq!(
            verdict_json("rejected", "", None, 0, 0, "bad", &[]),
            r#"{"schema":"xsfq-serve-verdict/1","name":"","kind":"rejected","pass":null,"attempts":0,"elapsed_ms":0,"detail":"bad","diags":[]}"#
        );
    }
}
