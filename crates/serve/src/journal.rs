//! Append-only job journal: crash recovery as a replay problem.
//!
//! Every job that reaches the queue is made durable *before* it is
//! queued: its full submit payload is spooled to
//! `state_dir/spool/<id>.job` (the wire encoding, reused verbatim) and an
//! `S <id> <spool-file>` line is appended — and flushed — to
//! `state_dir/journal.log`. Completion (in any terminal state) appends
//! `D <id> <status>`. A daemon killed at any point therefore restarts into
//! one of three cases per job, all safe:
//!
//! * no `S` line — the client never got an acceptance, or the submission
//!   was answered at admission (a cache hit, a `parse` or `rejected`
//!   verdict) and its reply was its only effect; nothing to do;
//! * `S` without `D` — accepted but not finished: the spool file replays
//!   the job through the normal path (at-least-once semantics);
//! * `S` and `D` — finished; the spool file is deleted at compaction.
//!
//! The journal is plain text, one record per line, and replay tolerates a
//! torn final line (the crash may have landed mid-append). On open, the
//! journal is compacted: completed jobs' records and spool files are
//! dropped, pending jobs are re-spooled into a fresh log, and the id
//! counter resumes past the highest id ever handed out. Once there is one,
//! the compacted log starts with an `H <id>` high-water record:
//! without it, a restart that finds nothing pending would forget every id
//! and hand out 1 again. A log without an `H` record still opens.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::protocol::SubmitRequest;

/// A pending job reconstructed from the journal at startup.
#[derive(Debug)]
pub struct RecoveredJob {
    /// The id the job had in the previous incarnation (kept stable so the
    /// journal's `S` record still matches).
    pub id: u64,
    /// The replayed submission.
    pub request: SubmitRequest,
    /// Result base path for job-directory submissions (`dir:` source tag),
    /// `None` for TCP jobs whose client is gone.
    pub dir_base: Option<PathBuf>,
}

/// The append-only journal. All appends are flushed before returning, so
/// an acceptance acknowledged to a client is always recoverable.
pub struct Journal {
    log: Mutex<BufWriter<File>>,
    dir: PathBuf,
    next_id: AtomicU64,
}

fn spool_dir(dir: &Path) -> PathBuf {
    dir.join("spool")
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join("journal.log")
}

/// Spool file body: a one-line source tag (`tcp` or `dir:<base>`), a
/// newline, then the wire-encoded submit payload.
fn encode_spool(request: &SubmitRequest, dir_base: Option<&Path>) -> Vec<u8> {
    let tag = match dir_base {
        Some(base) => format!("dir:{}", base.display()),
        None => "tcp".to_string(),
    };
    let mut out = Vec::new();
    out.extend_from_slice(tag.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(&request.encode());
    out
}

fn decode_spool(bytes: &[u8]) -> Option<(SubmitRequest, Option<PathBuf>)> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    let tag = std::str::from_utf8(&bytes[..nl]).ok()?;
    let dir_base = match tag {
        "tcp" => None,
        t => Some(PathBuf::from(t.strip_prefix("dir:")?)),
    };
    let request = SubmitRequest::decode(&bytes[nl + 1..]).ok()?;
    Some((request, dir_base))
}

impl Journal {
    /// Open (or create) the journal under `state_dir`, replay it, compact
    /// it, and return the jobs that were accepted but never finished.
    pub fn open(state_dir: &Path) -> io::Result<(Journal, Vec<RecoveredJob>)> {
        fs::create_dir_all(spool_dir(state_dir))?;
        let mut max_id = 0u64;
        let mut pending: Vec<(u64, String)> = Vec::new();
        if let Ok(text) = fs::read_to_string(log_path(state_dir)) {
            let complete_lines = match text.rfind('\n') {
                Some(n) => &text[..n],
                // No terminator at all: the only line may be torn.
                None => "",
            };
            for line in complete_lines.lines() {
                let mut parts = line.split_whitespace();
                match (parts.next(), parts.next(), parts.next()) {
                    (Some("S"), Some(id), Some(spool)) => {
                        if let Ok(id) = id.parse::<u64>() {
                            max_id = max_id.max(id);
                            pending.push((id, spool.to_string()));
                        }
                    }
                    (Some("D"), Some(id), _) => {
                        if let Ok(id) = id.parse::<u64>() {
                            max_id = max_id.max(id);
                            pending.retain(|(p, _)| *p != id);
                        }
                    }
                    (Some("H"), Some(id), _) => {
                        if let Ok(id) = id.parse::<u64>() {
                            max_id = max_id.max(id);
                        }
                    }
                    // Torn or foreign line: skip, never fail recovery.
                    _ => {}
                }
            }
        }

        // Reconstruct pending jobs from their spool files; a spool file
        // lost with the crash loses that job (it was never run).
        let mut recovered = Vec::new();
        let mut live_spools = Vec::new();
        for (id, spool) in pending {
            let path = spool_dir(state_dir).join(&spool);
            if let Ok(bytes) = fs::read(&path) {
                if let Some((request, dir_base)) = decode_spool(&bytes) {
                    recovered.push(RecoveredJob {
                        id,
                        request,
                        dir_base,
                    });
                    live_spools.push((id, spool));
                }
            }
        }

        // Compact: fresh log holding the high-water id and the
        // still-pending S records, then drop every spool file the new log
        // does not reference.
        let tmp = state_dir.join("journal.log.tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            if max_id > 0 {
                writeln!(w, "H {max_id}")?;
            }
            for (id, spool) in &live_spools {
                writeln!(w, "S {id} {spool}")?;
            }
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        fs::rename(&tmp, log_path(state_dir))?;
        if let Ok(entries) = fs::read_dir(spool_dir(state_dir)) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if !live_spools.iter().any(|(_, s)| *s == name) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }

        let log = OpenOptions::new().append(true).open(log_path(state_dir))?;
        Ok((
            Journal {
                log: Mutex::new(BufWriter::new(log)),
                dir: state_dir.to_path_buf(),
                next_id: AtomicU64::new(max_id + 1),
            },
            recovered,
        ))
    }

    /// Allocate the next job id.
    pub fn next_id(&self) -> u64 {
        // Ordering: Relaxed — the RMW's atomicity alone guarantees unique
        // ids; an id only becomes meaningful through the journal append
        // that follows, whose lock orders it against every observer.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Make an accepted job durable: spool its payload, append + flush the
    /// `S` record. Must complete before the job is queued.
    pub fn record_submit(
        &self,
        id: u64,
        request: &SubmitRequest,
        dir_base: Option<&Path>,
    ) -> io::Result<()> {
        let spool_name = format!("{id}.job");
        let spool_path = spool_dir(&self.dir).join(&spool_name);
        // The spool payload must be durable *before* the fsynced `S` record
        // is: otherwise a crash can surface an `S` line whose spool bytes
        // were lost, and recovery would silently drop the job (fatal for
        // watched-dir jobs, whose source file is already deleted).
        {
            let mut f = File::create(&spool_path)?;
            f.write_all(&encode_spool(request, dir_base))?;
            f.sync_all()?;
        }
        // Directory entry too — a synced file can still vanish if its
        // directory was never flushed. Best-effort: not every platform
        // lets a directory be opened and fsynced.
        if let Ok(d) = File::open(spool_dir(&self.dir)) {
            let _ = d.sync_all();
        }
        let mut log = self.log.lock().unwrap();
        writeln!(log, "S {id} {spool_name}")?;
        log.flush()?;
        log.get_ref().sync_all()
    }

    /// Record a terminal state (`ok`, `err`, `shed`, `cancelled`) and drop
    /// the spool file.
    pub fn record_done(&self, id: u64, status: &str) -> io::Result<()> {
        {
            let mut log = self.log.lock().unwrap();
            writeln!(log, "D {id} {status}")?;
            log.flush()?;
            log.get_ref().sync_all()?;
        }
        let _ = fs::remove_file(spool_dir(&self.dir).join(format!("{id}.job")));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(name: &str) -> SubmitRequest {
        SubmitRequest {
            script: "fast".into(),
            name: name.into(),
            data: format!("netlist of {name}").into_bytes(),
            fault: None,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xsfq-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn recovers_exactly_the_incomplete_jobs() {
        let dir = tmpdir("basic");
        {
            let (j, recovered) = Journal::open(&dir).unwrap();
            assert!(recovered.is_empty());
            let a = j.next_id();
            let b = j.next_id();
            let c = j.next_id();
            j.record_submit(a, &req("done"), None).unwrap();
            j.record_submit(b, &req("pending-tcp"), None).unwrap();
            j.record_submit(c, &req("pending-dir"), Some(Path::new("/tmp/out/x")))
                .unwrap();
            j.record_done(a, "ok").unwrap();
            // Journal dropped here as if the daemon was killed.
        }
        let (j2, recovered) = Journal::open(&dir).unwrap();
        let mut names: Vec<&str> = recovered.iter().map(|r| r.request.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["pending-dir", "pending-tcp"]);
        let dir_job = recovered
            .iter()
            .find(|r| r.request.name == "pending-dir")
            .unwrap();
        assert_eq!(dir_job.dir_base.as_deref(), Some(Path::new("/tmp/out/x")));
        // Ids never repeat across incarnations.
        let max_recovered = recovered.iter().map(|r| r.id).max().unwrap();
        assert!(j2.next_id() > max_recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Compaction drops finished records, so the id counter must survive
    /// restarts that find nothing pending. The first restart reads a log
    /// without a high-water record.
    #[test]
    fn ids_never_repeat_across_idle_restarts() {
        let dir = tmpdir("idle");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            for expected in 1..=3 {
                let id = j.next_id();
                assert_eq!(id, expected);
                j.record_submit(id, &req("job"), None).unwrap();
                j.record_done(id, "ok").unwrap();
            }
        }
        drop(Journal::open(&dir).unwrap()); // restart, no traffic
        let (j, recovered) = Journal::open(&dir).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(j.next_id(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tolerates_a_torn_tail_line() {
        let dir = tmpdir("torn");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            let a = j.next_id();
            j.record_submit(a, &req("kept"), None).unwrap();
        }
        // Simulate a crash mid-append: garbage with no newline.
        let mut f = OpenOptions::new()
            .append(true)
            .open(log_path(&dir))
            .unwrap();
        f.write_all(b"D 99").unwrap(); // torn — no trailing newline
        drop(f);
        let (_, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].request.name, "kept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spools_round_trip_and_torn_spools_never_decode() {
        let request = req("spooled");
        let base = Path::new("/tmp/out/spooled");
        assert_eq!(
            decode_spool(&encode_spool(&request, None)),
            Some((request.clone(), None))
        );
        let bytes = encode_spool(&request, Some(base));
        assert_eq!(
            decode_spool(&bytes),
            Some((request, Some(base.to_path_buf())))
        );
        for cut in 0..bytes.len() {
            assert!(decode_spool(&bytes[..cut]).is_none(), "torn at {cut}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Spool files are read back after a crash, so any bytes must
        /// decode or be refused; they must never panic recovery.
        #[test]
        fn decode_spool_is_total_on_bytes(
            data in proptest::prop::collection::vec(proptest::any::<u8>(), 0..256),
        ) {
            let _ = decode_spool(&data);
        }

        /// A well-formed tag line reaches the submit payload decoder.
        #[test]
        fn decode_spool_is_total_past_the_tag(
            dir: bool,
            body in proptest::prop::collection::vec(proptest::any::<u8>(), 0..256),
        ) {
            let mut data = if dir { b"dir:/tmp/x\n".to_vec() } else { b"tcp\n".to_vec() };
            data.push(crate::protocol::VERSION);
            data.extend_from_slice(&body);
            let _ = decode_spool(&data);
        }
    }

    #[test]
    fn compaction_removes_finished_spool_files() {
        let dir = tmpdir("compact");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            let a = j.next_id();
            j.record_submit(a, &req("done"), None).unwrap();
            j.record_done(a, "ok").unwrap();
            let b = j.next_id();
            j.record_submit(b, &req("live"), None).unwrap();
        }
        let (_, recovered) = Journal::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        let spools: Vec<_> = fs::read_dir(spool_dir(&dir)).unwrap().flatten().collect();
        assert_eq!(spools.len(), 1, "only the live job's spool survives");
        let _ = fs::remove_dir_all(&dir);
    }
}
