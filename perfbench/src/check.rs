//! The output check: what each request must get back, and the in-process
//! reference results the daemon's and the batch's outputs are held to.

use std::sync::Arc;

use xsfq_aig::io::read_netlist_auto;
use xsfq_core::{FlowResult, SynthesisFlow};
use xsfq_netlist::writers::write_verilog;
use xsfq_serve::protocol::Response;
use xsfq_serve::ClientError;

/// The script every request names, and the batch runs.
pub const SCRIPT: &str = "standard";

/// What a resubmission must get back: a cache hit replaying exactly the
/// netlist and report bytes of the miss that filled the cache.
#[derive(Clone, Debug)]
pub struct Hit {
    /// Netlist bytes of the miss.
    pub netlist: Arc<[u8]>,
    /// Report bytes of the miss.
    pub report: Arc<[u8]>,
}

/// How one request went.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The expected answer.
    Pass,
    /// Refused or lost (BUSY, transport error): counts as failed.
    Failed(String),
    /// A wrong answer: counts as failed and fails the whole run.
    Mismatch(String),
}

/// Judge one reply against the hit it should be.
pub fn judge(expect: &Hit, got: &Result<Response, ClientError>) -> Outcome {
    match got {
        Err(e) => Outcome::Failed(format!("transport: {e}")),
        Ok(Response::Busy { .. }) => Outcome::Failed("busy".into()),
        Ok(Response::Ok {
            cache_hit,
            netlist,
            report,
        }) => {
            if !cache_hit {
                Outcome::Mismatch("expected a cache hit, got a miss".into())
            } else if netlist[..] != expect.netlist[..] || report[..] != expect.report[..] {
                Outcome::Mismatch("cache hit did not replay the miss's bytes".into())
            } else {
                Outcome::Pass
            }
        }
        Ok(Response::Err { kind, .. }) => {
            Outcome::Mismatch(format!("expected a cache hit, got ERR `{kind}`"))
        }
        Ok(Response::Pong | Response::Stats(_)) => {
            Outcome::Mismatch("expected a cache hit, got a control reply".into())
        }
    }
}

/// The reference flow: the script every request names, default options.
pub fn flow() -> SynthesisFlow {
    SynthesisFlow::new()
        .script_str(SCRIPT)
        .expect("the standard preset parses")
}

/// `write_verilog` of a flow result.
pub fn verilog(result: &FlowResult) -> Vec<u8> {
    let mut buf = Vec::new();
    write_verilog(result.netlist(), &mut buf).expect("Verilog to memory");
    buf
}

/// The reference result for submitted bytes: parse them and run the flow
/// in process, on one thread (results are identical for every thread
/// count), so callers can run references side by side.
pub fn reference(bytes: &[u8]) -> FlowResult {
    let aig = read_netlist_auto(bytes).expect("reference input parses");
    flow()
        .threads(1)
        .run(&aig)
        .expect("reference flow succeeds")
}

/// `f` over `items` on two threads, results in input order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    const THREADS: usize = 2;
    let mut parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let f = &f;
                s.spawn(move || {
                    (t..items.len())
                        .step_by(THREADS)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference worker panicked"))
            .collect()
    });
    let mut out: Vec<(usize, R)> = parts.drain(..).flatten().collect();
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// A report's JSON with every `wall_ns` value zeroed: timings are the one
/// part of a report that differs between two runs of the same design.
pub fn scrub_timings(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(pos) = rest.find("\"wall_ns\":") {
        let after = pos + "\"wall_ns\":".len();
        out.push_str(&rest[..after]);
        let tail = &rest[after..];
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        out.push('0');
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// The first unsigned integer field `key` of a flat JSON document (a
/// report's `jj_total`, a STATS frame's counters).
pub fn json_u64(json: &[u8], key: &str) -> Option<u64> {
    let text = std::str::from_utf8(json).ok()?;
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(cache_hit: bool, netlist: &[u8], report: &[u8]) -> Result<Response, ClientError> {
        Ok(Response::Ok {
            cache_hit,
            netlist: netlist.to_vec(),
            report: report.to_vec(),
        })
    }

    fn err(kind: &str, verdict: &str) -> Result<Response, ClientError> {
        Ok(Response::Err {
            kind: kind.into(),
            verdict: verdict.as_bytes().to_vec(),
        })
    }

    fn hit() -> Hit {
        Hit {
            netlist: b"module m(a_p, a_n);".to_vec().into(),
            report: b"{}".to_vec().into(),
        }
    }

    #[test]
    fn a_flipped_netlist_byte_is_a_mismatch() {
        let netlist = hit().netlist.to_vec();
        let mut flipped = netlist.clone();
        flipped[3] ^= 1;
        assert_eq!(judge(&hit(), &ok(true, &netlist, b"{}")), Outcome::Pass);
        assert!(matches!(
            judge(&hit(), &ok(true, &flipped, b"{}")),
            Outcome::Mismatch(_)
        ));
        assert!(matches!(
            judge(&hit(), &ok(true, &netlist, b"{ }")),
            Outcome::Mismatch(_)
        ));
    }

    #[test]
    fn a_wrong_verdict_kind_is_a_mismatch_and_busy_a_failure() {
        let netlist = hit().netlist.to_vec();
        // A miss where a hit was due, and an error verdict, are wrong answers.
        assert!(matches!(
            judge(&hit(), &ok(false, &netlist, b"{}")),
            Outcome::Mismatch(_)
        ));
        assert!(matches!(
            judge(&hit(), &err("parse", "{}")),
            Outcome::Mismatch(_)
        ));
        assert!(matches!(
            judge(
                &hit(),
                &err("rejected", "{\"diags\":[{\"code\":\"X008\"}]}")
            ),
            Outcome::Mismatch(_)
        ));
        // A refusal is a failure, not a wrong answer.
        assert!(matches!(
            judge(&hit(), &Ok(Response::Busy { retry_after_ms: 5 })),
            Outcome::Failed(_)
        ));
    }

    #[test]
    fn scrub_and_jj_read_reports() {
        let r = "{\"jj_total\":58,\"passes\":[{\"wall_ns\":1234,\"x\":1}]}";
        assert_eq!(
            scrub_timings(r),
            "{\"jj_total\":58,\"passes\":[{\"wall_ns\":0,\"x\":1}]}"
        );
        assert_eq!(json_u64(r.as_bytes(), "jj_total"), Some(58));
        assert_eq!(json_u64(r.as_bytes(), "absent"), None);
    }
}
