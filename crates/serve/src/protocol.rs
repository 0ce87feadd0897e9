//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every message is one *frame*: a 4-byte big-endian length `n`, then `n`
//! bytes of body, of which the first is the frame *kind* and the rest the
//! kind-specific payload. `n` is capped at [`MAX_FRAME`]; a peer announcing
//! a larger frame is cut off before any allocation. The same encoding is
//! reused verbatim as the on-disk spool format of the job journal, so a
//! recovered job replays through exactly the code path a fresh one takes.
//!
//! See the [crate docs](crate) for the full request/response catalogue.

use std::io::{self, Read, Write};

/// Hard cap on a frame body (kind byte + payload): 64 MiB.
pub const MAX_FRAME: usize = 64 << 20;

/// Protocol version carried in every SUBMIT payload.
pub const VERSION: u8 = 1;

/// Request: submit one netlist for synthesis.
pub const KIND_SUBMIT: u8 = 0x01;
/// Request: liveness probe.
pub const KIND_PING: u8 = 0x02;
/// Request: server statistics snapshot.
pub const KIND_STATS: u8 = 0x03;
/// Response: job finished; payload carries netlist + report.
pub const KIND_OK: u8 = 0x81;
/// Response: job failed; payload carries a structured verdict.
pub const KIND_ERR: u8 = 0x82;
/// Response: admission queue full; payload carries a retry-after hint.
pub const KIND_BUSY: u8 = 0x83;
/// Response to [`KIND_PING`].
pub const KIND_PONG: u8 = 0x84;
/// Response to [`KIND_STATS`]: JSON payload.
pub const KIND_STATS_OK: u8 = 0x85;

/// A malformed or oversized frame. The connection is dropped on sight —
/// framing errors are not recoverable mid-stream.
#[derive(Debug)]
pub enum ProtocolError {
    /// Frame length field exceeds [`MAX_FRAME`] or is zero.
    BadLength(usize),
    /// Payload ended before its declared length.
    Truncated,
    /// A length-prefixed string was not UTF-8.
    BadUtf8,
    /// SUBMIT payload version is not [`VERSION`].
    BadVersion(u8),
    /// Underlying transport error.
    Io(io::Error),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadLength(n) => write!(f, "bad frame length {n}"),
            ProtocolError::Truncated => write!(f, "truncated payload"),
            ProtocolError::BadUtf8 => write!(f, "non-UTF-8 string field"),
            ProtocolError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> ProtocolError {
        ProtocolError::Io(e)
    }
}

/// Read one frame; returns `(kind, payload)`, or `None` on clean EOF at a
/// frame boundary. The kind byte is read on its own, so the payload lands
/// in its own buffer without being shifted or copied.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, ProtocolError> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let n = u32::from_be_bytes(len) as usize;
    if n == 0 || n > MAX_FRAME {
        return Err(ProtocolError::BadLength(n));
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    let mut payload = vec![0u8; n - 1];
    r.read_exact(&mut payload)?;
    Ok(Some((kind[0], payload)))
}

/// Write one frame. The header and payload are coalesced into a single
/// `write_all` — on an unbuffered `TcpStream`, separate small writes would
/// hand Nagle's algorithm a partial segment to sit on and cost a
/// delayed-ACK round trip per frame.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> io::Result<()> {
    let n = payload.len() + 1;
    assert!(n <= MAX_FRAME, "frame body exceeds MAX_FRAME");
    let mut buf = Vec::with_capacity(4 + n);
    buf.extend_from_slice(&(n as u32).to_be_bytes());
    buf.push(kind);
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// A deterministic fault a SUBMIT may request (chaos builds only): which
/// kind (1 panic, 2 stall) at which 0-based pass index. Admission rejects
/// any other kind.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// 1 = panic, 2 = stall.
    pub kind: u8,
    /// 0-based pass index the fault fires at.
    pub pass: u16,
}

/// A decoded SUBMIT request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Pass script (`"b; rw; rf"` grammar or a preset name); empty means
    /// the server default.
    pub script: String,
    /// Design name override; empty means take the name from the netlist.
    pub name: String,
    /// Raw netlist bytes — BLIF or AIGER, sniffed by content server-side.
    pub data: Vec<u8>,
    /// Requested fault injection; rejected by non-chaos servers.
    pub fault: Option<FaultSpec>,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    out.extend_from_slice(&(b.len() as u16).to_be_bytes());
    out.extend_from_slice(b);
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.at.checked_add(n).ok_or(ProtocolError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtocolError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, ProtocolError> {
        let n = self.u16()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_owned)
            .map_err(|_| ProtocolError::BadUtf8)
    }
}

impl SubmitRequest {
    /// Encode as a SUBMIT frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() + 64);
        out.push(VERSION);
        let (fk, fp) = self.fault.map_or((0, 0), |f| (f.kind, f.pass));
        out.push(fk);
        out.extend_from_slice(&fp.to_be_bytes());
        put_str(&mut out, &self.script);
        put_str(&mut out, &self.name);
        out.extend_from_slice(&(self.data.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.data);
        out
    }

    /// Decode a SUBMIT frame payload.
    pub fn decode(payload: &[u8]) -> Result<SubmitRequest, ProtocolError> {
        let mut c = Cursor {
            buf: payload,
            at: 0,
        };
        let version = c.u8()?;
        if version != VERSION {
            return Err(ProtocolError::BadVersion(version));
        }
        let fk = c.u8()?;
        let fp = c.u16()?;
        let script = c.str()?;
        let name = c.str()?;
        let n = c.u32()? as usize;
        let data = c.take(n)?.to_vec();
        Ok(SubmitRequest {
            script,
            name,
            data,
            fault: (fk != 0).then_some(FaultSpec { kind: fk, pass: fp }),
        })
    }
}

/// A decoded response frame, as seen by a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Synthesis succeeded. `cache_hit` is true when the bytes came from
    /// the result cache; the payload bytes are identical either way.
    Ok {
        /// Whether the result was served from the canonical-AIG cache.
        cache_hit: bool,
        /// The mapped netlist, Verilog text.
        netlist: Vec<u8>,
        /// The per-pass telemetry report, JSON (`xsfq-flow-report/2`).
        report: Vec<u8>,
    },
    /// Synthesis failed. The verdict is JSON (`xsfq-serve-verdict/1`).
    Err {
        /// Stable failure kind (`"panicked"`, `"deadline"`, `"flow"`, …).
        kind: String,
        /// Structured verdict JSON.
        verdict: Vec<u8>,
    },
    /// Admission queue full — resubmit after the hinted delay.
    Busy {
        /// Backoff hint in milliseconds.
        retry_after_ms: u32,
    },
    /// Reply to a PING.
    Pong,
    /// Server statistics, JSON.
    Stats(Vec<u8>),
}

/// Encode the netlist + report segments of an OK response. This is what
/// the result cache stores, so a cache hit replays the exact bytes a miss
/// produced — only the leading `cache_hit` flag differs.
pub fn encode_result_segments(netlist: &[u8], report: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(netlist.len() + report.len() + 8);
    out.extend_from_slice(&(netlist.len() as u32).to_be_bytes());
    out.extend_from_slice(netlist);
    out.extend_from_slice(&(report.len() as u32).to_be_bytes());
    out.extend_from_slice(report);
    out
}

/// Encode the body bytes of an OK response (without the frame header) from
/// a cache-hit flag and the segments of [`encode_result_segments`].
pub fn encode_ok_body(cache_hit: bool, segments: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(segments.len() + 1);
    out.push(cache_hit as u8);
    out.extend_from_slice(segments);
    out
}

/// Encode the body bytes of an ERR response.
pub fn encode_err(kind: &str, verdict: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(verdict.len() + kind.len() + 8);
    put_str(&mut out, kind);
    out.extend_from_slice(&(verdict.len() as u32).to_be_bytes());
    out.extend_from_slice(verdict);
    out
}

/// Decode any response frame.
pub fn decode_response(kind: u8, payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = Cursor {
        buf: payload,
        at: 0,
    };
    match kind {
        KIND_OK => {
            let cache_hit = c.u8()? != 0;
            let n = c.u32()? as usize;
            let netlist = c.take(n)?.to_vec();
            let n = c.u32()? as usize;
            let report = c.take(n)?.to_vec();
            Ok(Response::Ok {
                cache_hit,
                netlist,
                report,
            })
        }
        KIND_ERR => {
            let kind = c.str()?;
            let n = c.u32()? as usize;
            let verdict = c.take(n)?.to_vec();
            Ok(Response::Err { kind, verdict })
        }
        KIND_BUSY => Ok(Response::Busy {
            retry_after_ms: c.u32()?,
        }),
        KIND_PONG => Ok(Response::Pong),
        KIND_STATS_OK => Ok(Response::Stats(payload.to_vec())),
        other => Err(ProtocolError::BadLength(other as usize)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips() {
        let req = SubmitRequest {
            script: "b; rw; rf".into(),
            name: "adder".into(),
            data: b".model t\n.end\n".to_vec(),
            fault: Some(FaultSpec { kind: 2, pass: 3 }),
        };
        assert_eq!(SubmitRequest::decode(&req.encode()).unwrap(), req);
        let plain = SubmitRequest {
            fault: None,
            ..req.clone()
        };
        assert_eq!(SubmitRequest::decode(&plain.encode()).unwrap(), plain);
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_PING, &[]).unwrap();
        write_frame(&mut buf, KIND_SUBMIT, b"payload").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some((KIND_PING, vec![])));
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((KIND_SUBMIT, b"payload".to_vec()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), None);

        // A length field past MAX_FRAME fails before allocating.
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(ProtocolError::BadLength(_))
        ));
        // A zero-length frame (no kind byte) is malformed.
        let zero = 0u32.to_be_bytes();
        assert!(matches!(
            read_frame(&mut zero.as_slice()),
            Err(ProtocolError::BadLength(0))
        ));
    }

    #[test]
    fn truncated_submit_is_an_error_not_a_panic() {
        let req = SubmitRequest {
            script: String::new(),
            name: "x".into(),
            data: vec![1, 2, 3, 4],
            fault: None,
        };
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            assert!(SubmitRequest::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn responses_round_trip() {
        let ok = encode_ok_body(true, &encode_result_segments(b"module m;", b"{}"));
        assert_eq!(
            decode_response(KIND_OK, &ok).unwrap(),
            Response::Ok {
                cache_hit: true,
                netlist: b"module m;".to_vec(),
                report: b"{}".to_vec(),
            }
        );
        let err = encode_err("deadline", b"{\"kind\":\"deadline\"}");
        assert_eq!(
            decode_response(KIND_ERR, &err).unwrap(),
            Response::Err {
                kind: "deadline".into(),
                verdict: b"{\"kind\":\"deadline\"}".to_vec(),
            }
        );
    }
}
