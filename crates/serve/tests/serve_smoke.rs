//! End-to-end smoke: a real daemon on a real socket, EPFL designs in,
//! netlists + reports out, bit-identical to solo runs of the same flow.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xsfq_aig::io::write_blif;
use xsfq_aig::Aig;
use xsfq_core::SynthesisFlow;
use xsfq_netlist::writers::write_verilog;
use xsfq_serve::protocol::{Response, SubmitRequest};
use xsfq_serve::{Client, ServeConfig, Server};

const SCRIPT: &str = "fast";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "xsfq-serve-smoke-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Zero out the `wall_ns` timing fields: they are the one part of a
/// report that legitimately differs between two runs of the same job.
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

fn blif_bytes(aig: &Aig) -> Vec<u8> {
    let mut buf = Vec::new();
    write_blif(aig, &mut buf).unwrap();
    buf
}

/// The reference result: the same flow run directly, no daemon.
fn solo(aig: &Aig) -> (Vec<u8>, String) {
    let result = SynthesisFlow::new()
        .script_str(SCRIPT)
        .unwrap()
        .run(aig)
        .unwrap();
    let mut netlist = Vec::new();
    write_verilog(result.netlist(), &mut netlist).unwrap();
    (netlist, result.report.to_json())
}

/// The daemon's journal records, one per line.
fn journal_lines(state: &Path) -> Vec<String> {
    fs::read_to_string(state.join("journal.log"))
        .unwrap_or_default()
        .lines()
        .map(str::to_owned)
        .collect()
}

fn spool_files(state: &Path) -> usize {
    fs::read_dir(state.join("spool")).map_or(0, |d| d.count())
}

/// Poll until `cond` holds, failing the test after two minutes.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn stats_json(addr: std::net::SocketAddr) -> String {
    let Response::Stats(json) = Client::connect(addr).unwrap().stats().unwrap() else {
        panic!("expected Stats");
    };
    String::from_utf8(json).unwrap()
}

/// The value of the first `"key":<digits>` in `json`.
fn json_u64(json: &str, key: &str) -> u64 {
    let at = json.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

fn submit(client: &mut Client, name: &str, data: Vec<u8>) -> Response {
    client
        .submit(&SubmitRequest {
            script: SCRIPT.into(),
            name: name.into(),
            data,
            fault: None,
        })
        .unwrap()
}

#[test]
fn epfl_designs_over_the_socket_match_solo_runs() {
    let state = tmpdir("epfl");
    let server = Server::start(ServeConfig::new(&state)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    for name in ["int2float", "dec", "priority", "cavlc"] {
        let aig = xsfq_benchmarks::by_name(name).unwrap();
        let (solo_netlist, solo_report) = solo(&aig);
        match submit(&mut client, name, blif_bytes(&aig)) {
            Response::Ok {
                cache_hit,
                netlist,
                report,
            } => {
                assert!(!cache_hit, "{name}: first run cannot hit the cache");
                assert_eq!(netlist, solo_netlist, "{name}: netlist differs from solo");
                assert_eq!(
                    scrub_timings(&String::from_utf8(report).unwrap()),
                    scrub_timings(&solo_report),
                    "{name}: report differs from solo"
                );
            }
            other => panic!("{name}: expected Ok, got {other:?}"),
        }
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn resubmission_hits_the_cache_with_identical_bytes() {
    let state = tmpdir("cache");
    let server = Server::start(ServeConfig::new(&state)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();

    let first = submit(&mut client, "ctrl", blif_bytes(&aig));
    let Response::Ok {
        cache_hit: false,
        netlist,
        report,
    } = first
    else {
        panic!("expected a cache-miss Ok, got {first:?}");
    };

    // Same design again — and again through an AIGER writer's view of it:
    // the canonical digest sees through the format change.
    let second = submit(&mut client, "ctrl", blif_bytes(&aig));
    match second {
        Response::Ok {
            cache_hit,
            netlist: n2,
            report: r2,
        } => {
            assert!(cache_hit, "resubmission must hit the cache");
            assert_eq!(n2, netlist, "cache hit must replay identical bytes");
            assert_eq!(r2, report);
        }
        other => panic!("expected Ok, got {other:?}"),
    }
    // The hit was answered at admission: it left no journal record and no
    // spool file, so the journal holds only the miss's S and D records.
    let lines = journal_lines(&state);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(
        lines[0].starts_with("S ") && lines[1].starts_with("D "),
        "{lines:?}"
    );
    assert_eq!(spool_files(&state), 0);

    // A different script is a different result — no false sharing.
    let other_script = client
        .submit(&SubmitRequest {
            script: "b; rw".into(),
            name: "ctrl".into(),
            data: blif_bytes(&aig),
            fault: None,
        })
        .unwrap();
    match other_script {
        Response::Ok { cache_hit, .. } => assert!(!cache_hit),
        other => panic!("expected Ok, got {other:?}"),
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn full_queue_sheds_with_busy_and_retry_hint() {
    let state = tmpdir("busy");
    let mut cfg = ServeConfig::new(&state);
    cfg.queue_capacity = 0; // deterministic: every submission sheds
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();
    match submit(&mut client, "ctrl", blif_bytes(&aig)) {
        Response::Busy { retry_after_ms } => {
            assert!(retry_after_ms > 0, "hint must tell the client to back off");
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    // The daemon is still healthy after shedding.
    assert_eq!(client.ping().unwrap(), Response::Pong);
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn watched_directory_jobs_produce_result_files() {
    let state = tmpdir("watch");
    let watch = state.join("inbox");
    let out = state.join("outbox");
    fs::create_dir_all(&watch).unwrap();
    let mut cfg = ServeConfig::new(&state);
    cfg.watch_dir = Some(watch.clone());
    cfg.out_dir = Some(out.clone());
    let server = Server::start(cfg).unwrap();

    let aig = xsfq_benchmarks::by_name("int2float").unwrap();
    fs::write(watch.join("int2float.blif"), blif_bytes(&aig)).unwrap();
    // Garbage gets a structured rejection file, not a wedged daemon.
    fs::write(watch.join("garbage.blif"), b"not a netlist at all\n").unwrap();
    // A dotted name keeps every dotted part in its result files.
    let dotted = xsfq_benchmarks::by_name("s420.1").unwrap();
    fs::write(watch.join("s420.1.blif"), blif_bytes(&dotted)).unwrap();
    fs::write(watch.join("garbage.2.blif"), b"not a netlist either\n").unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    let ok_v = out.join("int2float.v");
    let ok_json = out.join("int2float.json");
    let err_json = out.join("garbage.err.json");
    let dotted_v = out.join("s420.1.v");
    let dotted_json = out.join("s420.1.json");
    let dotted_err = out.join("garbage.2.err.json");
    let expected = [
        &ok_v,
        &ok_json,
        &err_json,
        &dotted_v,
        &dotted_json,
        &dotted_err,
    ];
    while !expected.iter().all(|p| p.exists()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    for path in expected {
        assert!(path.exists(), "missing result file {}", path.display());
    }
    for truncated in ["s420.v", "s420.json", "s420.err.json", "garbage.2.json"] {
        assert!(
            !out.join(truncated).exists(),
            "a dotted name must not be truncated to {truncated}"
        );
    }
    let netlist = fs::read(&ok_v).expect("netlist result file");
    let (solo_netlist, solo_report) = {
        let result = SynthesisFlow::new()
            .script_str("standard")
            .unwrap()
            .run(&aig)
            .unwrap();
        let mut n = Vec::new();
        write_verilog(result.netlist(), &mut n).unwrap();
        (n, result.report.to_json())
    };
    assert_eq!(netlist, solo_netlist, "dir job netlist differs from solo");
    assert_eq!(
        scrub_timings(&fs::read_to_string(&ok_json).unwrap()),
        scrub_timings(&solo_report)
    );
    let verdict = fs::read_to_string(&err_json).unwrap();
    assert!(verdict.contains("\"kind\":\"parse\""), "got: {verdict}");
    let verdict = fs::read_to_string(&dotted_err).unwrap();
    assert!(verdict.contains("\"kind\":\"parse\""), "got: {verdict}");
    // Watched jobs run the daemon's default script, `standard`.
    let result = SynthesisFlow::new()
        .script_str("standard")
        .unwrap()
        .run(&dotted)
        .unwrap();
    let mut solo_dotted = Vec::new();
    write_verilog(result.netlist(), &mut solo_dotted).unwrap();
    assert_eq!(
        fs::read(&dotted_v).unwrap(),
        solo_dotted,
        "dotted job netlist differs from solo"
    );
    assert!(
        !watch.join("int2float.blif").exists(),
        "ingested job files are consumed"
    );

    // The same design dropped again is a cache hit answered at admission:
    // the result files come back byte-identical and the input is consumed.
    let report = fs::read(&ok_json).unwrap();
    fs::remove_file(&ok_v).unwrap();
    fs::remove_file(&ok_json).unwrap();
    fs::write(watch.join("int2float.blif"), blif_bytes(&aig)).unwrap();
    wait_for("the resubmitted design's result files", || {
        !watch.join("int2float.blif").exists() && ok_v.exists() && ok_json.exists()
    });
    assert_eq!(
        fs::read(&ok_v).unwrap(),
        netlist,
        "replayed netlist differs"
    );
    assert_eq!(
        fs::read(&ok_json).unwrap(),
        report,
        "replayed report differs"
    );
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn malformed_input_gets_a_structured_verdict_not_a_dead_server() {
    let state = tmpdir("garbage");
    let server = Server::start(ServeConfig::new(&state)).unwrap();

    // Garbage netlist bytes: a parse verdict.
    let mut client = Client::connect(server.local_addr()).unwrap();
    match submit(&mut client, "junk", b"\x00\x01\x02 not a netlist".to_vec()) {
        Response::Err { kind, verdict } => {
            assert_eq!(kind, "parse");
            let v = String::from_utf8(verdict).unwrap();
            assert!(v.contains("\"schema\":\"xsfq-serve-verdict/1\""), "{v}");
            assert!(v.contains("\"kind\":\"parse\""), "{v}");
        }
        other => panic!("expected Err, got {other:?}"),
    }
    // A `.names` block redefining a latch output: a line-numbered parse
    // verdict, not `panicked`.
    let redefined =
        b".model t\n.inputs a\n.outputs q\n.latch d q 0\n.names a q\n1 1\n.names a d\n1 1\n.end\n";
    match submit(&mut client, "latch-redefined", redefined.to_vec()) {
        Response::Err { kind, verdict } => {
            assert_eq!(kind, "parse");
            let v = String::from_utf8(verdict).unwrap();
            assert!(
                v.contains("line 5: signal 'q' is driven more than once"),
                "{v}"
            );
        }
        other => panic!("expected Err, got {other:?}"),
    }
    // A script nested 6500 `repeat` blocks deep: a `rejected` verdict from
    // the parser's nesting bound, not a stack overflow on the connection
    // thread.
    let deep = format!("{}b{}", "repeat 1{".repeat(6500), "}".repeat(6500));
    match client
        .submit(&SubmitRequest {
            script: deep,
            name: "deep".into(),
            data: b".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".to_vec(),
            fault: None,
        })
        .unwrap()
    {
        Response::Err { kind, verdict } => {
            assert_eq!(kind, "rejected");
            let v = String::from_utf8(verdict).unwrap();
            assert!(v.contains("nest deeper than"), "{v}");
        }
        other => panic!("expected Err, got {other:?}"),
    }
    assert_eq!(client.ping().unwrap(), Response::Pong);
    // Answered at admission: nothing was journaled or spooled for any.
    assert!(
        journal_lines(&state).is_empty(),
        "{:?}",
        journal_lines(&state)
    );
    assert_eq!(spool_files(&state), 0);

    // An unknown pass name parses as a script but fails script
    // compilation inside the flow: a structured `flow` verdict.
    match client
        .submit(&SubmitRequest {
            script: "no-such-pass".into(),
            name: "x".into(),
            data: b".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".to_vec(),
            fault: None,
        })
        .unwrap()
    {
        Response::Err { kind, .. } => assert_eq!(kind, "flow"),
        other => panic!("expected Err, got {other:?}"),
    }

    // Raw garbage on the wire kills that connection, nothing else.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&[0xff; 64]).unwrap();
    }
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert_eq!(fresh.ping().unwrap(), Response::Pong);

    // Fault injection is refused on non-chaos builds.
    if !cfg!(feature = "chaos") {
        match fresh
            .submit(&SubmitRequest {
                script: String::new(),
                name: "x".into(),
                data: b".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".to_vec(),
                fault: Some(xsfq_serve::protocol::FaultSpec { kind: 1, pass: 0 }),
            })
            .unwrap()
        {
            Response::Err { kind, .. } => assert_eq!(kind, "rejected"),
            other => panic!("expected Err, got {other:?}"),
        }
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn ill_formed_submission_is_rejected_at_admission_with_lint_diags() {
    let state = tmpdir("lint");
    let server = Server::start(ServeConfig::new(&state)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Parses fine, but the output port shadows an input — downstream the
    // dual-rail mapper would emit colliding `a_p`/`a_n` ports. Admission
    // lint must refuse it with the stable code, before any shard work.
    match submit(
        &mut client,
        "shadow",
        b".model t\n.inputs a\n.outputs a\n.end\n".to_vec(),
    ) {
        Response::Err { kind, verdict } => {
            assert_eq!(kind, "rejected");
            let v = String::from_utf8(verdict).unwrap();
            assert!(v.contains("\"schema\":\"xsfq-serve-verdict/1\""), "{v}");
            assert!(v.contains("\"code\":\"X008\""), "{v}");
            assert!(v.contains("shadows"), "{v}");
        }
        other => panic!("expected Err, got {other:?}"),
    }

    // The shard never saw the job and stays fully alive: a healthy
    // submission on the same connection synthesizes normally.
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();
    match submit(&mut client, "ctrl", blif_bytes(&aig)) {
        Response::Ok { .. } => {}
        other => panic!("expected Ok after rejection, got {other:?}"),
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn stats_frame_reports_progress() {
    let state = tmpdir("stats");
    let server = Server::start(ServeConfig::new(&state)).unwrap();
    // A fresh daemon's counters are all zero, so its frame is fixed bytes.
    assert_eq!(
        stats_json(server.local_addr()),
        r#"{"schema":"xsfq-serve-stats/1","accepted":0,"completed":0,"failed":0,"shed":0,"retries":0,"recovered":0,"queue_len":0,"draining":false,"cache":{"hits":0,"misses":0,"entries":0,"bytes":0}}"#
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();
    submit(&mut client, "ctrl", blif_bytes(&aig));
    submit(&mut client, "ctrl", blif_bytes(&aig)); // cache hit
    let Response::Stats(json) = client.stats().unwrap() else {
        panic!("expected Stats");
    };
    let json = String::from_utf8(json).unwrap();
    assert!(json.contains("\"schema\":\"xsfq-serve-stats/1\""), "{json}");
    assert!(json.contains("\"completed\":2"), "{json}");
    assert!(json.contains("\"hits\":1"), "{json}");
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn recovered_job_rejected_by_admission_reaches_a_terminal_state() {
    let state = tmpdir("recover-reject");
    // Simulate a previous incarnation that accepted a job this build's
    // admission rejects (unparsable script), then crashed before a D
    // record: journal the S record directly and drop the journal.
    {
        let (j, recovered) = xsfq_serve::journal::Journal::open(&state).unwrap();
        assert!(recovered.is_empty());
        let id = j.next_id();
        j.record_submit(
            id,
            &SubmitRequest {
                script: "repeat { b }".into(), // missing count: parse error
                name: "stale".into(),
                data: b"junk".to_vec(),
                fault: None,
            },
            None,
        )
        .unwrap();
        // A valid script over netlist bytes that do not parse: admission
        // answers it with a `parse` verdict.
        let id = j.next_id();
        j.record_submit(
            id,
            &SubmitRequest {
                script: String::new(),
                name: "unparseable".into(),
                data: b"\x00\x01 not a netlist".to_vec(),
                fault: None,
            },
            None,
        )
        .unwrap();
        // A healthy design under a script nested 4500 `repeat` blocks
        // deep, spooled by a build whose parser had no nesting bound.
        let id = j.next_id();
        j.record_submit(
            id,
            &SubmitRequest {
                script: format!("{}b{}", "repeat 1{".repeat(4500), "}".repeat(4500)),
                name: "deep".into(),
                data: b".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".to_vec(),
                fault: None,
            },
            None,
        )
        .unwrap();
    }
    // First restart recovers every job; admission answers them, which must
    // still journal a terminal state — not leave them to replay forever.
    let server = Server::start(ServeConfig::new(&state)).unwrap();
    server.shutdown();
    let done = journal_lines(&state)
        .iter()
        .filter(|l| l.starts_with("D ") && l.ends_with(" err"))
        .count();
    assert_eq!(done, 3, "{:?}", journal_lines(&state));
    let (_, recovered) = xsfq_serve::journal::Journal::open(&state).unwrap();
    assert!(
        recovered.is_empty(),
        "rejected recovered job must not replay: {recovered:?}"
    );
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn drain_refuses_new_work_and_finishes_queued_work() {
    let state = tmpdir("drain");
    let server = Server::start(ServeConfig::new(&state)).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();
    let ok = submit(&mut client, "ctrl", blif_bytes(&aig));
    assert!(matches!(ok, Response::Ok { .. }));
    server.shutdown();
    // After shutdown the listener is gone entirely.
    assert!(
        Client::connect(addr).is_err() || {
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        }
    );
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn timed_daemon_carries_timing_summary_and_matches_timed_solo() {
    use xsfq_timing::TimingOptions;
    let state = tmpdir("timed");
    let mut cfg = ServeConfig::new(&state);
    cfg.timing = Some(TimingOptions::default());
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let aig = xsfq_benchmarks::by_name("int2float").unwrap();
    // The reference: the same flow with the same timing knob, no daemon.
    let timed_solo = SynthesisFlow::new()
        .script_str(SCRIPT)
        .unwrap()
        .timing(TimingOptions::default())
        .run(&aig)
        .unwrap();
    let mut solo_netlist = Vec::new();
    write_verilog(timed_solo.netlist(), &mut solo_netlist).unwrap();

    match submit(&mut client, "int2float", blif_bytes(&aig)) {
        Response::Ok {
            netlist, report, ..
        } => {
            assert_eq!(netlist, solo_netlist, "netlist differs from timed solo");
            let report = String::from_utf8(report).unwrap();
            assert!(
                report.contains("\"timing\":{") && report.contains("\"balance\":\"full\""),
                "timed verdict must carry the timing summary: {report}"
            );
            assert_eq!(
                scrub_timings(&report),
                scrub_timings(&timed_solo.report.to_json()),
                "report differs from timed solo"
            );
        }
        other => panic!("expected Ok, got {other:?}"),
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn queued_twin_replays_its_twins_result() {
    let state = tmpdir("twin");
    let mut cfg = ServeConfig::new(&state);
    cfg.shards = 1;
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();

    // A large design holds the only shard for seconds; the twins below are
    // admitted in milliseconds...
    let big = blif_bytes(&xsfq_benchmarks::by_name("sin").unwrap());
    let holder =
        std::thread::spawn(move || submit(&mut Client::connect(addr).unwrap(), "sin", big));
    wait_for("the large design to occupy the shard", || {
        let stats = stats_json(addr);
        json_u64(&stats, "accepted") == 1 && json_u64(&stats, "queue_len") == 0
    });
    // ...while one small design arrives on two connections. Both miss the
    // cache at admission and queue; the one the shard takes second must
    // replay the first one's result instead of synthesizing it again.
    let small = blif_bytes(&xsfq_benchmarks::by_name("ctrl").unwrap());
    let twins: Vec<_> = (0..2)
        .map(|_| {
            let data = small.clone();
            std::thread::spawn(move || submit(&mut Client::connect(addr).unwrap(), "ctrl", data))
        })
        .collect();
    let replies: Vec<(bool, Vec<u8>, Vec<u8>)> = twins
        .into_iter()
        .map(|t| match t.join().unwrap() {
            Response::Ok {
                cache_hit,
                netlist,
                report,
            } => (cache_hit, netlist, report),
            other => panic!("expected Ok, got {other:?}"),
        })
        .collect();
    assert!(matches!(holder.join().unwrap(), Response::Ok { .. }));
    assert_ne!(
        replies[0].0, replies[1].0,
        "one twin synthesizes, one replays"
    );
    assert_eq!(
        replies[0].1, replies[1].1,
        "the replay carries identical bytes"
    );
    assert_eq!(replies[0].2, replies[1].2);
    // Both twins were queued (journaled), so the replay happened on the
    // shard, not at admission.
    let submits = journal_lines(&state)
        .iter()
        .filter(|l| l.starts_with("S "))
        .count();
    assert_eq!(submits, 3, "{:?}", journal_lines(&state));
    // Each cacheable request is counted once, and the replay as a hit.
    let stats = stats_json(addr);
    assert_eq!(json_u64(&stats, "hits"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "misses"), 2, "{stats}");
    assert_eq!(json_u64(&stats, "completed"), 3, "{stats}");
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn cache_hit_is_answered_while_the_queue_sheds() {
    let state = tmpdir("hit-busy");
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();
    let request = SubmitRequest {
        script: SCRIPT.into(),
        name: "ctrl".into(),
        data: blif_bytes(&aig),
        fault: None,
    };
    // A job an earlier incarnation accepted: recovery queues it past the
    // capacity check, which is the only way a capacity-0 daemon runs one.
    {
        let (j, _) = xsfq_serve::journal::Journal::open(&state).unwrap();
        j.record_submit(j.next_id(), &request, None).unwrap();
    }
    let mut cfg = ServeConfig::new(&state);
    cfg.queue_capacity = 0;
    let server = Server::start(cfg).unwrap();
    wait_for("the recovered job to finish", || {
        journal_lines(&state).iter().any(|l| l.starts_with("D "))
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.submit(&request).unwrap() {
        Response::Ok { cache_hit, .. } => assert!(cache_hit, "a hit needs no queue slot"),
        other => panic!("expected a cache hit, got {other:?}"),
    }
    // A miss still sheds.
    match submit(
        &mut client,
        "dec",
        blif_bytes(&xsfq_benchmarks::by_name("dec").unwrap()),
    ) {
        Response::Busy { .. } => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}
