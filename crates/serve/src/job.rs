//! The unit of work flowing through the daemon.

use std::path::PathBuf;
use std::sync::mpsc;

use xsfq_aig::Aig;

use crate::cache::CacheKey;
use crate::protocol::FaultSpec;

/// Where a finished job's response goes.
#[derive(Debug, Clone)]
pub enum JobSink {
    /// A connection thread is blocked on this channel; send the encoded
    /// response frame `(kind, payload)`. A send error means the client
    /// hung up — the result is still journaled and cached.
    Tcp(mpsc::Sender<(u8, Vec<u8>)>),
    /// A job-directory submission: write `<base>.v` + `<base>.json` on
    /// success, `<base>.err.json` on failure.
    Dir {
        /// Output path without extension; the suffixes are appended, so a
        /// dotted base such as `s420.1` keeps its whole name.
        base: PathBuf,
    },
    /// A journal-recovered job whose requester is gone: run it for its
    /// side effects (cache warm + journal completion), drop the response.
    Discard,
}

/// A job's input as admission left it: the netlist parsed once, and the
/// key its result is cached under.
#[derive(Debug)]
pub struct Input {
    /// The parsed input netlist.
    pub aig: Aig,
    /// The result-cache key: the AIG's canonical digest, the pass script
    /// (post-defaulting, so it is never empty) and the server fingerprint.
    pub key: CacheKey,
}

/// One queued synthesis job: a submission that missed the result cache at
/// admission and was journaled. Admission parsed the netlist once, so the
/// job carries the AIG and its cache key; the raw bytes live on only in
/// the journal's spool file, for crash recovery.
#[derive(Debug)]
pub struct Job {
    /// Journal id — unique across daemon restarts.
    pub id: u64,
    /// Design name (client override or netlist-derived); display only.
    pub name: String,
    /// The parsed netlist and its cache key, boxed: a job moves by value
    /// through the queue, and the AIG is most of its size.
    pub input: Box<Input>,
    /// Chaos fault request (chaos builds only).
    pub fault: Option<FaultSpec>,
    /// Response destination.
    pub sink: JobSink,
    /// Retry generation, 0 for the first run.
    pub attempt: u32,
}
