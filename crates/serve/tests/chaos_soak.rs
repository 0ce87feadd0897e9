//! Chaos soak (chaos feature only): injected panics and stalls, and an
//! unknown fault kind, interleaved with healthy traffic — healthy results
//! must be bit-identical to solo runs — plus a `kill -9` + restart of the
//! real daemon binary, recovering exactly the incomplete jobs from the
//! journal.
#![cfg(feature = "chaos")]

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use xsfq_aig::io::write_blif;
use xsfq_aig::Aig;
use xsfq_core::SynthesisFlow;
use xsfq_netlist::writers::write_verilog;
use xsfq_serve::protocol::{FaultSpec, Response, SubmitRequest};
use xsfq_serve::{Client, ServeConfig, Server};

const SCRIPT: &str = "fast";
const HEALTHY: [&str; 4] = ["int2float", "dec", "priority", "cavlc"];

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("xsfq-serve-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn blif_bytes(aig: &Aig) -> Vec<u8> {
    let mut buf = Vec::new();
    write_blif(aig, &mut buf).unwrap();
    buf
}

fn scrub_timings(json: &str) -> String {
    let mut out = String::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"wall_ns\":") {
        let after = pos + "\"wall_ns\":".len();
        out.push_str(&rest[..after]);
        let tail = &rest[after..];
        let digits = tail.bytes().take_while(|b| b.is_ascii_digit()).count();
        out.push('0');
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

fn submit_request(name: &str, data: Vec<u8>, fault: Option<FaultSpec>) -> SubmitRequest {
    SubmitRequest {
        script: SCRIPT.into(),
        name: name.into(),
        data,
        fault,
    }
}

/// Faults never leak across job boundaries, and every failure mode maps to
/// its structured verdict while healthy traffic stays bit-identical.
#[test]
fn fault_mix_leaves_healthy_jobs_bit_identical() {
    let state = tmpdir("mix");
    let mut cfg = ServeConfig::new(&state);
    cfg.shards = 2;
    cfg.retry_limit = 1;
    cfg.retry_base = Duration::from_millis(5);
    cfg.job_deadline = Some(Duration::from_millis(2000));
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    let solo: Vec<(String, Vec<u8>, String)> = HEALTHY
        .iter()
        .map(|name| {
            let aig = xsfq_benchmarks::by_name(name).unwrap();
            let result = SynthesisFlow::new()
                .script_str(SCRIPT)
                .unwrap()
                .run(&aig)
                .unwrap();
            let mut netlist = Vec::new();
            write_verilog(result.netlist(), &mut netlist).unwrap();
            (name.to_string(), netlist, result.report.to_json())
        })
        .collect();

    // Interleave: every healthy design races a panicker, a staller, and a
    // submission with an unknown fault kind, all on separate connections.
    let faulty: Vec<(&str, FaultSpec, &str)> = vec![
        // A panic is transient: retried once (the plan re-fires), then a
        // `panicked` verdict.
        ("dec", FaultSpec { kind: 1, pass: 0 }, "panicked"),
        // A stall burns until the job deadline: a `deadline` verdict.
        ("priority", FaultSpec { kind: 2, pass: 0 }, "deadline"),
        // Fault kind 3 is unknown: admission rejects it.
        ("cavlc", FaultSpec { kind: 3, pass: 1 }, "rejected"),
    ];

    let mut handles = Vec::new();
    for (name, fault, want_kind) in faulty {
        let aig = xsfq_benchmarks::by_name(name).unwrap();
        let data = blif_bytes(&aig);
        let want = want_kind.to_string();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            match client
                .submit(&submit_request(name, data, Some(fault)))
                .unwrap()
            {
                Response::Err { kind, verdict } => {
                    assert_eq!(kind, want, "fault {fault:?} on {name}");
                    let v = String::from_utf8(verdict).unwrap();
                    assert!(v.contains("\"schema\":\"xsfq-serve-verdict/1\""), "{v}");
                }
                other => panic!("{name}: expected Err({want}), got {other:?}"),
            }
        }));
    }
    for (name, solo_netlist, solo_report) in &solo {
        let aig = xsfq_benchmarks::by_name(name).unwrap();
        let data = blif_bytes(&aig);
        let (name, solo_netlist, solo_report) =
            (name.clone(), solo_netlist.clone(), solo_report.clone());
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            match client.submit(&submit_request(&name, data, None)).unwrap() {
                Response::Ok {
                    netlist, report, ..
                } => {
                    assert_eq!(
                        netlist, solo_netlist,
                        "{name}: healthy netlist must be bit-identical under chaos"
                    );
                    assert_eq!(
                        scrub_timings(&String::from_utf8(report).unwrap()),
                        scrub_timings(&solo_report),
                        "{name}: healthy report must match solo"
                    );
                }
                other => panic!("{name}: expected Ok, got {other:?}"),
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // The panic path exercised the retry lane; the rejection never ran.
    let mut client = Client::connect(addr).unwrap();
    let Response::Stats(json) = client.stats().unwrap() else {
        panic!("expected Stats");
    };
    let json = String::from_utf8(json).unwrap();
    assert!(json.contains("\"retries\":1"), "{json}");
    assert!(json.contains("\"completed\":4"), "{json}");
    assert!(json.contains("\"failed\":2"), "{json}");
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

struct Daemon {
    child: Child,
    addr: String,
}

fn spawn_daemon(state: &Path, extra: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xsfq-serve"))
        .arg("--state-dir")
        .arg(state)
        .args(["--script", SCRIPT])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn xsfq-serve");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let line = lines
        .next()
        .expect("daemon announces its address")
        .expect("read daemon stdout");
    let addr = line
        .rsplit(' ')
        .next()
        .expect("address on the listening line")
        .to_string();
    Daemon { child, addr }
}

fn count_journal(state: &Path, prefix: &str) -> usize {
    fs::read_to_string(state.join("journal.log"))
        .map(|t| t.lines().filter(|l| l.starts_with(prefix)).count())
        .unwrap_or(0)
}

fn wait_for(deadline: Instant, what: &str, mut cond: impl FnMut() -> bool) {
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn stats_of(addr: &str) -> String {
    let mut client = Client::connect(addr).unwrap();
    let Response::Stats(json) = client.stats().unwrap() else {
        panic!("expected Stats");
    };
    String::from_utf8(json).unwrap()
}

/// `kill -9` the daemon mid-batch; the restart replays the journal and
/// requeues exactly the accepted-but-incomplete jobs.
#[test]
fn killed_daemon_recovers_exactly_the_incomplete_jobs() {
    let state = tmpdir("kill");
    let deadline = Instant::now() + Duration::from_secs(300);

    // Incarnation 1: one shard, no job deadline. A stall job pins the
    // shard forever; three healthy jobs queue behind it.
    let daemon = spawn_daemon(&state, &["--shards", "1", "--deadline-ms", "0"]);
    let addr = daemon.addr.clone();
    let mut clients = Vec::new();
    let stall = xsfq_benchmarks::by_name("dec").unwrap();
    clients.push(std::thread::spawn({
        let data = blif_bytes(&stall);
        let addr = addr.clone();
        move || {
            let mut c = Client::connect(&*addr).unwrap();
            // The daemon dies under us: any outcome is fine.
            let _ = c.submit(&submit_request(
                "stall",
                data,
                Some(FaultSpec { kind: 2, pass: 0 }),
            ));
        }
    }));
    // Wait until the shard has dequeued the stall job (accepted and no
    // longer queued) before submitting healthy traffic: only then is it
    // guaranteed that none of the healthy jobs can start.
    wait_for(deadline, "stall job to occupy the shard", || {
        let stats = stats_of(&addr);
        stats.contains("\"accepted\":1") && stats.contains("\"queue_len\":0")
    });
    for name in ["int2float", "priority", "cavlc"] {
        let data = blif_bytes(&xsfq_benchmarks::by_name(name).unwrap());
        let addr = addr.clone();
        clients.push(std::thread::spawn(move || {
            let mut c = Client::connect(&*addr).unwrap();
            let _ = c.submit(&submit_request(name, data, None));
        }));
    }
    // All four jobs durable (journaled) — then SIGKILL, no warning.
    wait_for(deadline, "4 journaled submissions", || {
        count_journal(&state, "S ") == 4
    });
    let mut child = daemon.child;
    child.kill().unwrap();
    let _ = child.wait();
    for c in clients {
        let _ = c.join();
    }
    assert_eq!(
        count_journal(&state, "D "),
        0,
        "nothing completed before the kill"
    );

    // Incarnation 2: recovery. The stall job replays (its fault spec was
    // spooled) and dies by the new deadline; the healthy three complete.
    let daemon2 = spawn_daemon(&state, &["--shards", "2", "--deadline-ms", "2000"]);
    wait_for(
        deadline,
        "4 recovered jobs to reach a terminal state",
        || count_journal(&state, "D ") == 4,
    );
    let stats = stats_of(&daemon2.addr);
    assert!(stats.contains("\"recovered\":4"), "{stats}");
    assert!(stats.contains("\"completed\":3"), "{stats}");
    assert!(stats.contains("\"failed\":1"), "{stats}");

    // Graceful drain via SIGTERM; the journal ends fully settled.
    let pid = daemon2.child.id().to_string();
    let mut child2 = daemon2.child;
    Command::new("kill").arg(&pid).status().unwrap();
    let exited = child2.wait().unwrap();
    assert!(exited.success(), "graceful drain exits cleanly");

    // Incarnation 3: a settled journal recovers nothing.
    let daemon3 = spawn_daemon(&state, &[]);
    let stats = stats_of(&daemon3.addr);
    assert!(stats.contains("\"recovered\":0"), "{stats}");
    let mut child3 = daemon3.child;
    child3.kill().unwrap();
    let _ = child3.wait();
    let _ = fs::remove_dir_all(&state);
}
