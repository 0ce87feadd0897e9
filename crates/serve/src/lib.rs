//! # xsfq-serve — a crash-tolerant synthesis daemon
//!
//! Long-running serving layer over the fault-isolated synthesis flow of
//! [`xsfq_core`]: accept BLIF/AIGER designs over TCP or a watched job
//! directory, synthesize them on a sharded executor, and return the mapped
//! netlist plus per-pass telemetry — or a structured error verdict — per
//! job. Std-only: no async runtime, no external crates.
//!
//! ## Wire protocol
//!
//! Byte stream of length-prefixed frames:
//!
//! ```text
//! frame   := u32_be length | u8 kind | payload           (length counts kind + payload)
//! ```
//!
//! Frame bodies are capped at [`protocol::MAX_FRAME`] (64 MiB); a peer
//! announcing more is disconnected before any allocation. Request kinds:
//!
//! | kind | name   | payload |
//! |------|--------|---------|
//! | 0x01 | SUBMIT | `u8 version(=1)`, `u8 fault_kind`, `u16_be fault_pass`, `str script`, `str name`, `u32_be n` + `n` netlist bytes |
//! | 0x02 | PING   | empty |
//! | 0x03 | STATS  | empty |
//!
//! where `str` is `u16_be length + UTF-8 bytes`. The netlist bytes may be
//! BLIF, ASCII AIGER, or binary AIGER — the server sniffs the format by
//! content ([`xsfq_aig::io::read_netlist_auto`]). An empty `script` means
//! the server's default; `fault_kind` is 0 except in chaos builds (1
//! panic, 2 stall at pass `fault_pass`; any other kind is rejected, and
//! non-chaos servers reject nonzero values). Response kinds:
//!
//! | kind | name  | payload |
//! |------|-------|---------|
//! | 0x81 | OK    | `u8 cache_hit`, `u32_be n` + netlist (Verilog), `u32_be m` + report JSON (`xsfq-flow-report/2`) |
//! | 0x82 | ERR   | `str kind`, `u32_be n` + verdict JSON (`xsfq-serve-verdict/1`) |
//! | 0x83 | BUSY  | `u32_be retry_after_ms` |
//! | 0x84 | PONG  | empty |
//! | 0x85 | STATS | stats JSON (`xsfq-serve-stats/1`) |
//!
//! A connection is strictly request-response: one in-flight request per
//! connection, pipelining is not supported. Submit a design, block, read
//! the verdict. The `examples/serve_client.rs` walkthrough exercises the
//! whole catalogue with [`client::Client`].
//!
//! ## Operational guide
//!
//! **Admission and backpressure.** Admission parses each submission once,
//! on the thread that received it (connection or directory watcher), lints
//! it, and looks it up in the result cache. A cache hit, a netlist that
//! does not parse (a `parse` verdict) and an ill-formed or refused
//! submission (a `rejected` verdict) are answered right there; only a miss
//! becomes a job. The daemon holds at most `queue_capacity` waiting jobs.
//! Beyond that, misses are *shed*: the client gets BUSY with a retry-after
//! hint (milliseconds, scaled by queue depth) and the daemon's memory
//! stays bounded no matter the offered load. A hit needs no queue slot, so
//! it is answered even while the queue is full. Watched-directory jobs are
//! never lost by shedding — the file stays in the directory and is retried
//! on the next poll. The admission parse takes time linear in the frame
//! size, up to one sort of its `.names` blocks, so no submission holds an
//! admitting thread much longer than its bytes take to read.
//!
//! **Durability.** Every job that reaches the queue is journaled
//! (`state_dir/journal.log` plus a spool file with the full submission)
//! *before* it is queued, and marked done when it reaches a terminal
//! state. A daemon killed at any point — including `kill -9`
//! mid-synthesis — restarts, replays the journal, and requeues exactly the
//! accepted-but-unfinished jobs (at-least-once semantics). Recovered TCP
//! jobs re-run for the result cache and the journal's completion record
//! (their clients are gone); recovered directory jobs still write their
//! result files. Submissions answered at admission — hits and `parse` or
//! `rejected` verdicts — leave no journal record and no spool file: the
//! reply is their only effect, and it is idempotent, so a crash before it
//! is sent looks to the client like a dropped connection, and a
//! resubmission gets the same answer.
//!
//! **Deadlines and retries.** Each job runs under `job_deadline`
//! (wall-clock, counted from job start), the one resource bound: the flow
//! polls it at every pass boundary and every few hundred nodes inside a
//! pass, so it also stops a runaway pass. A worker panic, the only transient failure, is
//! retried with exponential backoff (`retry_base × 2^attempt`) up to
//! `retry_limit` times before the client sees the final verdict;
//! deterministic failures (parse errors, verification failures,
//! deadlines) fail fast. Faults never cross job boundaries: a panicking
//! design returns a `panicked` verdict while the jobs around it are
//! unaffected (chaos-soak tested, bit-identical to solo runs).
//!
//! **Result cache.** Results are cached under the key *(canonical AIG
//! digest, script, configuration fingerprint)*; the fingerprint covers the
//! job deadline, the checking level and the timing options. The digest
//! ([`xsfq_aig::digest::canonical_digest`]) is renaming- and
//! node-order-independent, so the same circuit resubmitted from a
//! different tool's writer hits. A hit returns the exact bytes the
//! original run produced, flagged with `cache_hit = 1`, from the admitting
//! thread: no journal write, no queue, no shard. A duplicate that missed
//! at admission because its twin was still queued looks again when a
//! shard takes it, and replays the twin's bytes instead of synthesizing
//! the design a second time. Each cacheable submission counts once in the
//! STATS `hits`/`misses`; fault-injected ones bypass the cache. The cache
//! is LRU under `cache_budget` bytes; 0 disables it.
//!
//! **Static checking.** `check` sets the [`CheckLevel`] for admission and
//! every job. At the default `Stage`, a submission that parses but is
//! structurally ill-formed (duplicate ports, an output shadowing an input,
//! …) is *rejected at admission* — the client gets a `rejected` verdict
//! whose `diags` field carries the lint findings as an
//! `xsfq-lint-diags/1` array (stable codes like `X008`), and no shard
//! time is spent on it. Lint runs before the cache lookup, so an
//! ill-formed submission is rejected even when its digest is cached. The
//! same level is applied inside the flow, so a pass or mapper bug that
//! produces an ill-formed intermediate surfaces as a `flow` verdict
//! naming the lint codes instead of corrupt output.
//! `Paranoid` additionally validates the AIG after every optimization
//! pass and audits the cut arena — for debugging passes, not production
//! (expect measurable per-job overhead). `Off` restores the unchecked
//! fast path; the verdict `diags` field is then always `[]`. The checking
//! level is part of the result-cache fingerprint, so flipping it never
//! serves stale bytes. Recovered jobs are re-linted at replay: a spool
//! that a stricter level now rejects reaches a terminal journal state
//! instead of replaying forever.
//!
//! **Timing and constraints.** Setting `ServeConfig::timing` (a
//! [`xsfq_timing::TimingOptions`]) runs the flow's post-Map Timing stage
//! on every job: a static arrival/slack analysis of the mapped physical
//! netlist and — under `BalanceMode::Full` or `Budget` — slack-matching
//! JTL insertion that aligns pulse arrivals at join cells and dual-rail
//! output pairs. The report JSON inside the OK frame then carries a
//! `timing` object (critical path, worst slack/skew, buffers inserted, JJ
//! delta); with timing unset the key is absent and every byte matches an
//! untimed daemon. The timing configuration is part of the result-cache
//! fingerprint, so retuning the balance mode or tolerance never replays a
//! netlist balanced under the old settings. For one-off analysis or SDC /
//! CSV artifact export outside the daemon, use the `xsfq-time` CLI on the
//! emitted netlist instead of re-synthesizing.
//!
//! **Drain.** On SIGTERM/SIGINT (the `xsfq-serve` binary) or
//! [`Server::shutdown`] (embedded), the daemon stops admitting — every new
//! submission gets BUSY, cache hits included — finishes queued and
//! in-flight jobs, and after `drain_grace` cancels whatever is still
//! running (those jobs journal as failed with a `cancelled` verdict). The
//! journal is flushed at every step, so even a drain cut short by
//! `kill -9` recovers cleanly.
//!
//! **Sizing.** `shards` worker shards (default: one per core, as
//! `xsfq_exec::default_threads` counts them) each run one job at a time
//! on their own thread and keep one warm pass context across jobs. A
//! design is the unit of parallelism: its passes run on its shard's
//! thread, so throughput scales with `shards` and per-job latency is one
//! core's.
//! Throughput under concurrent load is measured by perfbench's `serve-hot`
//! workload (`designs_per_s`, p50/p99 latency).
//!
//! ```no_run
//! use xsfq_serve::{Server, ServeConfig};
//!
//! let server = Server::start(ServeConfig::new("/var/lib/xsfq-serve")).unwrap();
//! println!("listening on {}", server.local_addr());
//! // ... run until told otherwise ...
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod job;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod signal;

pub use client::{Client, ClientError};
pub use server::{ServeConfig, Server};
pub use xsfq_lint::CheckLevel;
