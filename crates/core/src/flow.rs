//! The end-to-end synthesis flow (the paper's §3 + §4 methodology) as a
//! staged pipeline over the composable pass manager: run a pass script on
//! the AIG, choose output polarities, map to clock-free dual-rail xSFQ
//! cells, insert pipeline ranks and splitters, and report the numbers the
//! evaluation tables are built from.
//!
//! The optimization recipe is a first-class [`Script`]. Every entry point —
//! [`SynthesisFlow::run`], [`SynthesisFlow::run_many`],
//! [`SynthesisFlow::run_many_isolated`] and [`SynthesisFlow::run_job`] —
//! runs each design as one fault-isolated job that records per-stage and
//! per-pass telemetry; the batch entry points schedule whole designs
//! across the executor.

use std::error::Error;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use xsfq_aig::opt::Effort;
use xsfq_aig::pass::{CompiledScript, PassCtx, PassStat, Script, ScriptError};
use xsfq_aig::Aig;
use xsfq_cells::{CellKind, InterconnectStyle};
use xsfq_exec::{panic_message, CancelCause, CancelToken, ThreadPool};
use xsfq_lint::{CheckLevel, Diag, NetlistProfile};
use xsfq_netlist::writers::Json;
use xsfq_netlist::Netlist;

use crate::map::{map_with_assignment, MapOptions, MappedDesign};
use crate::pipeline::choose_rank_levels;
use crate::polarity::{assign_polarities, PolarityMode};
use crate::verify::verify_mapping;
use xsfq_timing::{BalanceMode, TimingOptions, TimingSummary};

/// Window (in levels) for the min-width rank placement search.
const RANK_WINDOW: u32 = 3;

/// Flow configuration (builder-style).
#[derive(Clone, Debug)]
pub struct FlowOptions {
    /// AIG optimization pass script (see [`xsfq_aig::pass`] for the
    /// grammar). Defaults to the `standard` preset ([`Script::preset`]);
    /// a script ending in `f` adds SAT sweeping.
    pub script: Script,
    /// Output polarity strategy.
    pub polarity: PolarityMode,
    /// Interconnect style / library variant.
    pub style: InterconnectStyle,
    /// Architectural pipeline stages to insert (combinational designs only).
    pub pipeline_stages: usize,
    /// Prove the mapped netlist equivalent to the source (combinational
    /// designs; sequential designs are validated by the pulse simulator).
    pub verify: bool,
    /// Width of the batch entry points' design fan-out. `None` uses the
    /// process-wide width (`XSFQ_THREADS`, defaulting to
    /// `available_parallelism`); `Some(n)` fans designs out over at most
    /// `n` threads, the caller among them. Each design runs on one thread,
    /// so results are identical either way; single-design entry points
    /// ignore it.
    pub threads: Option<usize>,
    /// Cooperative cancellation token. Cancelling it aborts every job of a
    /// running batch at the next pass boundary, or within a few hundred
    /// nodes of a running pass; `None` means "never cancelled externally".
    pub cancel: Option<CancelToken>,
    /// Wall-clock deadline per job, measured from that job's start. A job
    /// exceeding it is cancelled (its [`JobError`] reports
    /// [`JobErrorKind::DeadlineExpired`]); other jobs are unaffected.
    pub job_deadline: Option<Duration>,
    /// Static checking level (see [`CheckLevel`]): `Off` is byte-for-byte
    /// the unchecked flow, `Stage` validates the AIG after the optimize
    /// stage and DRCs both mapped netlists after the map stage, `Paranoid`
    /// additionally validates after every optimization pass and audits the
    /// cut arena. Error-severity findings fail the job with
    /// [`FlowError::LintFailed`].
    pub check: CheckLevel,
    /// Optional post-Map timing stage (see [`xsfq_timing`]): static
    /// arrival/slack analysis of the physical netlist plus slack-matching
    /// JTL insertion per [`TimingOptions::balance`]. `None` (the default)
    /// skips the stage entirely — the flow's outputs are byte-identical
    /// to a build without the timing subsystem.
    pub timing: Option<TimingOptions>,
    /// Deterministic fault-injection plan, applied per batch design index
    /// by [`SynthesisFlow::run_many`] and
    /// [`SynthesisFlow::run_many_isolated`]; [`SynthesisFlow::run`] and
    /// [`SynthesisFlow::run_job`] are design 0. Test-only; see
    /// [`xsfq_aig::chaos`].
    #[cfg(feature = "chaos")]
    pub chaos: Option<xsfq_aig::chaos::FaultPlan>,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            script: Script::preset(Effort::Standard),
            polarity: PolarityMode::Heuristic,
            style: InterconnectStyle::Abutted,
            pipeline_stages: 0,
            verify: false,
            threads: None,
            cancel: None,
            job_deadline: None,
            check: CheckLevel::Off,
            timing: None,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }
}

/// Error raised by [`SynthesisFlow::run`] and [`SynthesisFlow::run_many`].
#[derive(Debug)]
pub enum FlowError {
    /// The optimization script failed to parse or compile.
    Script(ScriptError),
    /// Pipelining was requested for a sequential design.
    PipelineOnSequential,
    /// Post-mapping verification failed.
    Verification(crate::verify::VerifyMappingError),
    /// The job was cancelled (explicitly, or by a deadline — see the
    /// [`CancelCause`]) before the flow completed.
    Cancelled(CancelCause),
    /// A static check ([`FlowOptions::check`]) found error-severity
    /// diagnostics; the job stopped at the stage that produced the
    /// ill-formed structure.
    LintFailed(Vec<Diag>),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Script(e) => write!(f, "{e}"),
            FlowError::PipelineOnSequential => {
                write!(f, "pipeline stages require a combinational design")
            }
            FlowError::Verification(e) => write!(f, "{e}"),
            FlowError::Cancelled(CancelCause::Explicit) => write!(f, "job cancelled"),
            FlowError::Cancelled(CancelCause::Deadline) => write!(f, "job deadline expired"),
            FlowError::LintFailed(diags) => {
                write!(f, "lint failed with {} finding(s)", diags.len())?;
                for d in diags.iter().take(3) {
                    write!(f, "; {d}")?;
                }
                if diags.len() > 3 {
                    write!(f, "; …")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Script(e) => Some(e),
            FlowError::Verification(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScriptError> for FlowError {
    fn from(e: ScriptError) -> Self {
        FlowError::Script(e)
    }
}

/// Structured failure of one flow job ([`SynthesisFlow::run_job`], or one
/// design of a [`SynthesisFlow::run_many_isolated`] batch): which design,
/// what went wrong, which pass was in flight, how long the job ran, and the
/// per-pass telemetry accumulated before the fault.
#[derive(Debug)]
pub struct JobError {
    /// Index of the design in the batch slice.
    pub design: usize,
    /// Design name.
    pub name: String,
    /// What went wrong.
    pub kind: JobErrorKind,
    /// The pass in flight when the fault hit, if it hit inside the
    /// optimization script (`None` for config errors and faults in the
    /// later flow stages).
    pub pass: Option<String>,
    /// Wall-clock time the job ran before failing.
    pub elapsed: Duration,
    /// Per-pass telemetry of the passes that completed before the fault.
    pub passes: Vec<PassStat>,
}

/// The failure taxonomy of a [`JobError`].
#[derive(Debug)]
pub enum JobErrorKind {
    /// The job panicked; the panic payload's message.
    Panicked {
        /// The panic payload rendered as a string.
        message: String,
    },
    /// The batch's [`CancelToken`] was cancelled explicitly.
    Cancelled,
    /// The job overran [`FlowOptions::job_deadline`].
    DeadlineExpired,
    /// The flow failed with an ordinary error (script, pipelining,
    /// verification or lint).
    Flow(FlowError),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} (`{}`)", self.design, self.name)?;
        match &self.kind {
            JobErrorKind::Panicked { message } => write!(f, " panicked: {message}")?,
            JobErrorKind::Cancelled => write!(f, " cancelled")?,
            JobErrorKind::DeadlineExpired => write!(f, " exceeded its deadline")?,
            JobErrorKind::Flow(e) => write!(f, " failed: {e}")?,
        }
        if let Some(pass) = &self.pass {
            write!(f, " (in pass `{pass}`)")?;
        }
        write!(
            f,
            " after {:.2} ms, {} passes completed",
            self.elapsed.as_secs_f64() * 1e3,
            self.passes.len()
        )
    }
}

impl Error for JobError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            JobErrorKind::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl JobError {
    /// The verdict as a plain [`FlowError`] for the non-isolated entry
    /// points: a cancelled or deadline-expired job becomes
    /// [`FlowError::Cancelled`], and a panicked job re-raises its panic
    /// with this error's message.
    fn into_flow_error(self) -> FlowError {
        match self.kind {
            JobErrorKind::Panicked { .. } => panic::panic_any(self.to_string()),
            JobErrorKind::Cancelled => FlowError::Cancelled(CancelCause::Explicit),
            JobErrorKind::DeadlineExpired => FlowError::Cancelled(CancelCause::Deadline),
            JobErrorKind::Flow(e) => e,
        }
    }
}

impl JobErrorKind {
    /// Stable lowercase name of the failure class (wire protocols,
    /// telemetry keys).
    pub fn name(&self) -> &'static str {
        match self {
            JobErrorKind::Panicked { .. } => "panicked",
            JobErrorKind::Cancelled => "cancelled",
            JobErrorKind::DeadlineExpired => "deadline",
            JobErrorKind::Flow(_) => "flow",
        }
    }

    /// Whether a retry could plausibly succeed: only panics (a poisoned
    /// arena, a transient resource spike) are transient; cancellations,
    /// deadline overruns and deterministic flow errors are not.
    pub fn is_transient(&self) -> bool {
        matches!(self, JobErrorKind::Panicked { .. })
    }
}

/// The flow's pipeline segments, in execution order.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FlowStage {
    /// Pass-script optimization of the AIG.
    Optimize,
    /// Rank-level selection for architectural pipelining.
    Pipeline,
    /// Output polarity assignment (§3.1.4–3.1.5).
    Polarity,
    /// Dual-rail technology mapping + splitter insertion.
    Map,
    /// Static timing analysis + slack-matching buffer insertion
    /// (only present when [`FlowOptions::timing`] is set).
    Timing,
    /// SAT proof that mapping preserved the function.
    Verify,
}

impl FlowStage {
    /// Stable lowercase name (telemetry keys).
    pub fn name(self) -> &'static str {
        match self {
            FlowStage::Optimize => "optimize",
            FlowStage::Pipeline => "pipeline",
            FlowStage::Polarity => "polarity",
            FlowStage::Map => "map",
            FlowStage::Timing => "timing",
            FlowStage::Verify => "verify",
        }
    }
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-clock telemetry for one executed flow stage.
#[derive(Copy, Clone, Debug)]
pub struct StageStat {
    /// Which stage ran.
    pub stage: FlowStage,
    /// Wall-clock time in nanoseconds.
    pub wall_ns: u64,
}

/// Per-design report — the row format of the paper's Tables 3–6, plus the
/// stage/pass telemetry of the run that produced it.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Design name.
    pub name: String,
    /// AND nodes after optimization.
    pub aig_nodes: usize,
    /// AIG depth after optimization.
    pub aig_depth: usize,
    /// LA/FA cell count.
    pub la_fa: usize,
    /// Duplication penalty in percent.
    pub duplication_percent: f64,
    /// Splitter count.
    pub splitters: usize,
    /// DROC cells without preloading hardware.
    pub drocs_plain: usize,
    /// DROC cells with preloading hardware.
    pub drocs_preload: usize,
    /// Total JJ count (cells + trigger merger; no clock tree).
    pub jj_total: u64,
    /// JJ cost of the DROC clock tree (zero for combinational designs).
    pub jj_clock_tree: u64,
    /// Logic depth (LA/FA on the critical path).
    pub depth_logic: usize,
    /// Logic depth including splitters.
    pub depth_with_splitters: usize,
    /// Critical path delay in ps (storage-to-storage).
    pub critical_delay_ps: f64,
    /// Circuit clock frequency (GHz).
    pub circuit_ghz: f64,
    /// Architectural clock frequency (GHz) — half the circuit clock, since
    /// a logical cycle spans the excite and relax phases (§4.2.2).
    pub arch_ghz: f64,
    /// Per-pass telemetry of the optimization script, in execution order.
    pub passes: Vec<PassStat>,
    /// Wall-clock telemetry per flow stage, in execution order.
    pub stages: Vec<StageStat>,
    /// Result of the optional Timing stage: engine-measured critical path,
    /// worst slack/skew, and the buffer/JJ cost of balancing. `None` when
    /// [`FlowOptions::timing`] was unset (and then absent from the JSON,
    /// keeping untimed reports byte-identical to earlier releases).
    pub timing: Option<TimingSummary>,
}

impl FlowReport {
    /// Serialize the report as a single JSON object — the wire format of
    /// the serving daemon's result payload. Keys are stable, schema tagged
    /// `xsfq-flow-report/2`, rendered by the one JSON writer ([`Json`]).
    pub fn to_json(&self) -> String {
        let passes = self.passes.iter().map(|p| {
            Json::object([
                ("name", p.name.as_str().into()),
                ("wall_ns", p.wall_ns.into()),
                ("nodes_before", p.nodes_before.into()),
                ("nodes_after", p.nodes_after.into()),
                ("depth_before", p.depth_before.into()),
                ("depth_after", p.depth_after.into()),
                ("commits", p.commits.into()),
            ])
        });
        let stages = self.stages.iter().map(|s| {
            Json::object([
                ("stage", s.stage.name().into()),
                ("wall_ns", s.wall_ns.into()),
            ])
        });
        let mut members = vec![
            ("schema", "xsfq-flow-report/2".into()),
            ("name", self.name.as_str().into()),
            ("aig_nodes", self.aig_nodes.into()),
            ("aig_depth", self.aig_depth.into()),
            ("la_fa", self.la_fa.into()),
            ("duplication_percent", self.duplication_percent.into()),
            ("splitters", self.splitters.into()),
            ("drocs_plain", self.drocs_plain.into()),
            ("drocs_preload", self.drocs_preload.into()),
            ("jj_total", self.jj_total.into()),
            ("jj_clock_tree", self.jj_clock_tree.into()),
            ("depth_logic", self.depth_logic.into()),
            ("depth_with_splitters", self.depth_with_splitters.into()),
            ("critical_delay_ps", self.critical_delay_ps.into()),
            ("circuit_ghz", self.circuit_ghz.into()),
            ("arch_ghz", self.arch_ghz.into()),
            ("passes", Json::Array(passes.collect())),
            ("stages", Json::Array(stages.collect())),
        ];
        // The `timing` key only exists when the stage ran: untimed reports
        // stay byte-identical to the pre-timing schema.
        if let Some(t) = &self.timing {
            members.push(("timing", t.into()));
        }
        Json::object(members).to_string()
    }
}

impl fmt::Display for FlowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} LA/FA ({:.0}% dupl), {} splitters, {}/{} DROC, {} JJ, depth {}/{}, {:.1}/{:.1} GHz",
            self.name,
            self.la_fa,
            self.duplication_percent,
            self.splitters,
            self.drocs_plain,
            self.drocs_preload,
            self.jj_total,
            self.depth_logic,
            self.depth_with_splitters,
            self.circuit_ghz,
            self.arch_ghz,
        )
    }
}

/// Result of a flow run.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// The optimized AIG the mapping consumed.
    pub optimized: Aig,
    /// Full mapping artifacts (logical + physical netlists, polarity data).
    pub mapped: MappedDesign,
    /// The table-row report.
    pub report: FlowReport,
}

impl FlowResult {
    /// The physical (splitter-inserted) netlist — borrows
    /// `mapped.physical` instead of cloning it per run.
    pub fn netlist(&self) -> &Netlist {
        &self.mapped.physical
    }
}

/// The xSFQ synthesis flow.
///
/// The optimization recipe is a pass script: either a preset via
/// [`SynthesisFlow::script`] with [`Script::preset`] or any ABC-style
/// script via [`SynthesisFlow::script_str`] (grammar in
/// [`xsfq_aig::pass`]). Batches of designs run concurrently through
/// [`SynthesisFlow::run_many`].
///
/// ```
/// use xsfq_aig::{Aig, build};
/// use xsfq_core::SynthesisFlow;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut aig = Aig::new("fa");
/// let a = aig.input("a");
/// let b = aig.input("b");
/// let cin = aig.input("cin");
/// let (s, c) = build::full_adder(&mut aig, a, b, cin);
/// aig.output("sum", s);
/// aig.output("cout", c);
///
/// let result = SynthesisFlow::new().verify(true).run(&aig)?;
/// // Figure 5ii: the flow lands on 10 LA/FA cells and 58 JJs.
/// assert_eq!(result.report.la_fa, 10);
/// assert_eq!(result.report.jj_total, 58);
/// // Every optimization pass left a telemetry row.
/// assert!(!result.report.passes.is_empty());
///
/// // The same flow, scripted explicitly:
/// let scripted = SynthesisFlow::new().script_str("standard")?.run(&aig)?;
/// assert_eq!(scripted.report.jj_total, result.report.jj_total);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct SynthesisFlow {
    options: FlowOptions,
}

impl SynthesisFlow {
    /// Flow with default options (standard-preset script, heuristic
    /// polarity, abutted interconnect, no pipelining, no verification).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the optimization pass script.
    #[must_use]
    pub fn script(mut self, script: Script) -> Self {
        self.options.script = script;
        self
    }

    /// Parse and set the optimization pass script (ABC-style, e.g.
    /// `"b; rw; rf; b; rwz; rw"` or `"standard; f"`).
    ///
    /// # Errors
    ///
    /// [`ScriptError`] when the text does not match the script grammar.
    pub fn script_str(self, text: &str) -> Result<Self, ScriptError> {
        Ok(self.script(Script::parse(text)?))
    }

    /// Set the polarity mode.
    #[must_use]
    pub fn polarity(mut self, mode: PolarityMode) -> Self {
        self.options.polarity = mode;
        self
    }

    /// Set the interconnect style.
    #[must_use]
    pub fn style(mut self, style: InterconnectStyle) -> Self {
        self.options.style = style;
        self
    }

    /// Set the number of architectural pipeline stages.
    #[must_use]
    pub fn pipeline_stages(mut self, stages: usize) -> Self {
        self.options.pipeline_stages = stages;
        self
    }

    /// Enable or disable post-mapping verification.
    #[must_use]
    pub fn verify(mut self, verify: bool) -> Self {
        self.options.verify = verify;
        self
    }

    /// Fan [`SynthesisFlow::run_many`]'s designs out over at most `threads`
    /// threads (clamped to ≥ 1) instead of the process-wide width
    /// ([`xsfq_exec::default_threads`]). Results are identical for every
    /// thread count; [`SynthesisFlow::run`] and [`SynthesisFlow::run_job`]
    /// run one design on the calling thread and ignore it.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = Some(threads.max(1));
        self
    }

    /// Install a cancellation token. Cancelling it aborts the flow (every
    /// job of a batch) at the next pass boundary, or within a few hundred
    /// nodes of a running pass; the abort surfaces as
    /// [`FlowError::Cancelled`] / [`JobErrorKind::Cancelled`]. Completed
    /// jobs are unaffected and bit-identical to uncancelled runs.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.options.cancel = Some(token);
        self
    }

    /// Set a per-job wall-clock deadline, measured from each job's start.
    /// A job overrunning it is cancelled cooperatively and reports
    /// [`JobErrorKind::DeadlineExpired`]; other jobs keep running.
    #[must_use]
    pub fn job_deadline(mut self, deadline: Duration) -> Self {
        self.options.job_deadline = Some(deadline);
        self
    }

    /// Set the static checking level (see [`FlowOptions::check`]). The
    /// default `Off` adds exactly zero work to the flow.
    #[must_use]
    pub fn check(mut self, level: CheckLevel) -> Self {
        self.options.check = level;
        self
    }

    /// Enable the post-Map timing stage (see [`FlowOptions::timing`]):
    /// static arrival/slack analysis plus slack-matching JTL insertion
    /// per [`TimingOptions::balance`]. Not setting it skips the stage
    /// entirely, leaving every output byte-identical to an untimed flow.
    #[must_use]
    pub fn timing(mut self, options: TimingOptions) -> Self {
        self.options.timing = Some(options);
        self
    }

    /// Install a deterministic fault-injection plan (see
    /// [`xsfq_aig::chaos`]), addressed by batch design index;
    /// [`SynthesisFlow::run`] and [`SynthesisFlow::run_job`] are design 0.
    #[cfg(feature = "chaos")]
    #[must_use]
    pub fn chaos_plan(mut self, plan: xsfq_aig::chaos::FaultPlan) -> Self {
        self.options.chaos = Some(plan);
        self
    }

    /// Current options.
    pub fn options(&self) -> &FlowOptions {
        &self.options
    }

    /// The options script compiled with `f` / `fraig` resolving to
    /// [`xsfq_sat::fraig_pass`].
    fn compiled_script(&self) -> Result<CompiledScript, ScriptError> {
        self.options.script.compile(Some(xsfq_sat::fraig_pass))
    }

    /// Run the flow on a design: [`SynthesisFlow::run_job`] on the calling
    /// thread with a fresh [`PassCtx`].
    ///
    /// # Errors
    ///
    /// [`FlowError::Script`] when the configured script does not compile;
    /// [`FlowError::PipelineOnSequential`] when pipeline stages are
    /// requested for a design with latches; [`FlowError::Verification`]
    /// when the mapped netlist fails the equivalence proof;
    /// [`FlowError::Cancelled`] when the token fired or the job deadline
    /// expired. A panicking job re-raises its panic with the [`JobError`]
    /// message.
    pub fn run(&self, aig: &Aig) -> Result<FlowResult, FlowError> {
        self.run_job(aig, &mut PassCtx::new())
            .map_err(JobError::into_flow_error)
    }

    /// Run the flow over a batch of designs, scheduling **whole designs**
    /// across the executor's fan-out: designs are the unit of parallelism,
    /// and each one runs start to finish on the thread that claimed it.
    ///
    /// Results come back in input order and are identical to running
    /// [`SynthesisFlow::run`] per design, for every fan-out width
    /// ([`SynthesisFlow::threads`]). Each thread keeps one [`PassCtx`],
    /// whose arenas (cut arena, scratch, synthesis memos) stay warm across
    /// all the designs it handles — reuse cannot change results, everything
    /// the arenas cache is a pure function of its inputs.
    ///
    /// # Errors
    ///
    /// All-or-nothing wrapper over [`SynthesisFlow::run_many_isolated`]:
    /// the first error in design order, if any design fails. A job that
    /// panicked re-raises its panic (message preserved); a cancelled or
    /// deadline-expired job surfaces as [`FlowError::Cancelled`].
    pub fn run_many(&self, designs: &[Aig]) -> Result<Vec<FlowResult>, FlowError> {
        self.run_many_isolated(designs)
            .into_iter()
            .map(|verdict| verdict.map_err(JobError::into_flow_error))
            .collect()
    }

    /// Fault-isolated batch runner: like [`SynthesisFlow::run_many`], but
    /// every design gets an independent verdict. A design that panics,
    /// overruns its [deadline](SynthesisFlow::job_deadline), is
    /// [cancelled](SynthesisFlow::cancel_token), or fails any flow stage
    /// yields a structured [`JobError`] — which pass was in flight, how
    /// long the job ran, the telemetry of the passes that completed — while
    /// every healthy design completes normally, bit-identical to a solo
    /// [`SynthesisFlow::run`] (the CI-gated `chaos` suite pins exactly
    /// this).
    ///
    /// Results come back in input order. A panic is contained to its job:
    /// it becomes that design's verdict, and the thread that ran it goes on
    /// to the next design with a fresh [`PassCtx`] (its warm arenas are
    /// rebuilt from scratch — a performance detail, never a correctness
    /// one).
    // `JobError` carries the partial telemetry by value; the `Ok` side
    // (`FlowResult`) is larger still, so boxing the error buys nothing.
    #[allow(clippy::result_large_err)]
    pub fn run_many_isolated(&self, designs: &[Aig]) -> Vec<Result<FlowResult, JobError>> {
        let compiled = self.compiled_script();
        // The fan-out width `threads(n)` asks for, or the process-wide one.
        let private = self.options.threads.map(ThreadPool::new);
        private
            .as_ref()
            .unwrap_or_else(|| ThreadPool::global())
            .map_init(designs, PassCtx::new, |ctx, design, aig| {
                self.job(aig, design, compiled.as_ref(), ctx)
            })
    }

    /// One fault-isolated job on the calling thread: the serving daemon's
    /// entry point. Unlike [`SynthesisFlow::run_many_isolated`], which owns
    /// its scheduling, this runs a single design in the caller's
    /// [`PassCtx`], whose arenas stay warm across jobs; the daemon keeps one
    /// per worker shard, its unit of parallelism. The context records the
    /// job, and a job that panicked leaves it fresh. Every failure mode
    /// surfaces as a structured [`JobError`] with `design == 0`, which is
    /// also the index a chaos plan (test-only `chaos` feature) addresses it
    /// by.
    #[allow(clippy::result_large_err)]
    pub fn run_job(&self, aig: &Aig, ctx: &mut PassCtx) -> Result<FlowResult, JobError> {
        self.job(aig, 0, self.compiled_script().as_ref(), ctx)
    }

    /// The job core every entry point runs through. It starts the job in
    /// `ctx` — the token with its deadline, per-pass validation under
    /// [`CheckLevel::Paranoid`], the chaos injector for `design` — runs the
    /// stage body under `catch_unwind`, and maps every failure mode to a
    /// [`JobError`] built from the context's record.
    #[allow(clippy::result_large_err)]
    fn job(
        &self,
        aig: &Aig,
        design: usize,
        compiled: Result<&CompiledScript, &ScriptError>,
        ctx: &mut PassCtx,
    ) -> Result<FlowResult, JobError> {
        // The configured token (or a never-cancelled default), tightened by
        // the job deadline: it counts from job start, not batch start.
        let token = self.options.cancel.clone().unwrap_or_default();
        let token = match self.options.job_deadline {
            Some(deadline) => token.with_timeout(deadline),
            None => token,
        };
        ctx.start(token.clone());
        if self.options.check >= CheckLevel::Paranoid {
            ctx.validate_passes();
        }
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.options.chaos {
            ctx.set_chaos(plan.for_design(design));
        }
        let started = Instant::now();
        let outcome = match compiled {
            Ok(compiled) => panic::catch_unwind(AssertUnwindSafe(|| {
                self.run_stages(aig, compiled, ctx, &token)
            })),
            Err(e) => Ok(Err(FlowError::Script(e.clone()))),
        };
        let unwound = outcome.is_err();
        let kind = match outcome {
            Ok(Ok(result)) => return Ok(result),
            Ok(Err(FlowError::Cancelled(CancelCause::Explicit))) => JobErrorKind::Cancelled,
            Ok(Err(FlowError::Cancelled(CancelCause::Deadline))) => JobErrorKind::DeadlineExpired,
            Ok(Err(e)) => JobErrorKind::Flow(e),
            // A stalled-then-cancelled pass can also panic (safety caps);
            // cancellation verdicts take precedence when the token fired.
            Err(payload) => match token.cause() {
                Some(CancelCause::Deadline) => JobErrorKind::DeadlineExpired,
                Some(CancelCause::Explicit) => JobErrorKind::Cancelled,
                None => JobErrorKind::Panicked {
                    message: panic_message(payload.as_ref()).to_string(),
                },
            },
        };
        // The record survives an unwind, and the report takes its passes
        // only once built: a fault in any stage finds all completed passes.
        let error = JobError {
            design,
            name: aig.name().to_string(),
            kind,
            pass: ctx.in_flight().map(str::to_string),
            elapsed: started.elapsed(),
            passes: ctx.take_telemetry(),
        };
        if unwound {
            *ctx = PassCtx::new(); // its arenas were abandoned mid-write
        }
        Err(error)
    }

    /// The staged pipeline body: Optimize → Pipeline → Polarity → Map →
    /// [Timing] → Verify (Timing only when configured), with per-stage
    /// timing and cancellation checks at every stage boundary.
    fn run_stages(
        &self,
        aig: &Aig,
        compiled: &CompiledScript,
        ctx: &mut PassCtx,
        token: &CancelToken,
    ) -> Result<FlowResult, FlowError> {
        let o = &self.options;
        if o.pipeline_stages > 0 && aig.num_latches() > 0 {
            return Err(FlowError::PipelineOnSequential);
        }
        let cancelled = || FlowError::Cancelled(token.cause().unwrap_or(CancelCause::Explicit));
        let mut stages: Vec<StageStat> = Vec::new();
        let mut note = |stage: FlowStage, start: Instant| {
            stages.push(StageStat {
                stage,
                wall_ns: start.elapsed().as_nanos() as u64,
            });
        };

        // -- Optimize: the pass script, recorded in the job's context.
        let start = Instant::now();
        let optimized = compiled.run(aig, ctx);
        note(FlowStage::Optimize, start);
        if token.is_cancelled() {
            return Err(cancelled());
        }
        if o.check >= CheckLevel::Stage {
            // Paranoid adds every pass output's defects and an audit of the
            // cut arena. Port names (X008) are checked once, on the output:
            // every pass copies them verbatim.
            let mut diags = xsfq_lint::lint_aig_defects(ctx.defects());
            if o.check >= CheckLevel::Paranoid {
                diags.extend(xsfq_lint::lint_cut_arena(ctx.cut_arena()));
            }
            diags.extend(xsfq_lint::lint_aig(&optimized));
            if xsfq_lint::has_errors(&diags) {
                return Err(FlowError::LintFailed(diags));
            }
        }

        // -- Pipeline: rank-level selection (no-op for 0 stages).
        let start = Instant::now();
        let rank_levels = choose_rank_levels(&optimized, o.pipeline_stages, RANK_WINDOW);
        note(FlowStage::Pipeline, start);

        // -- Polarity: output phase assignment.
        let start = Instant::now();
        let (assignment, _requirements) = assign_polarities(&optimized, o.polarity);
        note(FlowStage::Polarity, start);
        if token.is_cancelled() {
            return Err(cancelled());
        }

        // -- Map: dual-rail mapping + splitter insertion.
        let start = Instant::now();
        let mut mapped = map_with_assignment(
            &optimized,
            &MapOptions {
                polarity: o.polarity,
                style: o.style,
                rank_levels,
            },
            assignment,
        );
        note(FlowStage::Map, start);
        if token.is_cancelled() {
            return Err(cancelled());
        }
        if o.check >= CheckLevel::Stage {
            let mut diags = xsfq_lint::lint_netlist(&mapped.logical, NetlistProfile::Logical);
            diags.extend(xsfq_lint::lint_netlist(
                &mapped.physical,
                NetlistProfile::Physical,
            ));
            if xsfq_lint::has_errors(&diags) {
                return Err(FlowError::LintFailed(diags));
            }
        }

        // -- Timing (optional): static arrival/slack analysis of the
        // physical netlist plus slack-matching JTL insertion. The balanced
        // netlist replaces `mapped.physical`, so the report's area numbers
        // include the buffers; reconstruction treats JTLs as wires, so the
        // Verify proof below covers the balanced netlist's function too.
        let mut timing_summary = None;
        if let Some(topts) = &o.timing {
            let start = Instant::now();
            let outcome = xsfq_timing::balance_netlist(&mapped.physical, topts);
            if let Some(balanced) = outcome.netlist {
                mapped.physical = balanced;
            }
            note(FlowStage::Timing, start);
            if token.is_cancelled() {
                return Err(cancelled());
            }
            // Full balancing promises sub-tolerance residual skew; hold it
            // to that promise at Stage level (Budget/Off residue is the
            // requested trade-off, not a defect).
            if o.check >= CheckLevel::Stage && topts.balance == BalanceMode::Full {
                let diags = xsfq_lint::lint_timing(
                    &mapped.physical,
                    topts.allowed_skew_for(&mapped.physical),
                );
                if xsfq_lint::has_errors(&diags) {
                    return Err(FlowError::LintFailed(diags));
                }
            }
            timing_summary = Some(outcome.summary);
        }

        // -- Verify: SAT proof the mapping preserved the function.
        if o.verify && aig.num_latches() == 0 {
            let start = Instant::now();
            let verdict = verify_mapping(&optimized, &mapped, o.polarity);
            note(FlowStage::Verify, start);
            verdict.map_err(FlowError::Verification)?;
        }

        let stats = mapped.physical.stats();
        let splitter_jj = u64::from(mapped.physical.library().jj(CellKind::Splitter));
        let circuit_ghz = stats.circuit_clock_ghz();
        let report = FlowReport {
            name: aig.name().to_string(),
            aig_nodes: optimized.num_ands(),
            aig_depth: optimized.depth(),
            la_fa: stats.la_fa,
            duplication_percent: mapped.duplication_percent(),
            splitters: stats.splitters,
            drocs_plain: stats.drocs_plain,
            drocs_preload: stats.drocs_preload,
            jj_total: stats.jj_total + mapped.trigger_merger_jj,
            jj_clock_tree: stats.clock_tree_jj(splitter_jj),
            depth_logic: stats.depth_logic,
            depth_with_splitters: stats.depth_with_splitters,
            critical_delay_ps: stats.critical_delay_ps,
            circuit_ghz,
            arch_ghz: circuit_ghz / 2.0,
            passes: ctx.take_telemetry(),
            stages,
            timing: timing_summary,
        };
        Ok(FlowResult {
            optimized,
            mapped,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsfq_aig::{build, Lit};

    #[test]
    fn flow_on_full_adder_hits_paper_numbers() {
        let mut g = Aig::new("fa");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("cin");
        let (s, co) = build::full_adder(&mut g, a, b, c);
        g.output("s", s);
        g.output("cout", co);
        let r = SynthesisFlow::new().verify(true).run(&g).unwrap();
        assert_eq!(r.report.la_fa, 10);
        assert_eq!(r.report.splitters, 6);
        assert_eq!(r.report.jj_total, 58);
        assert_eq!(r.report.jj_clock_tree, 0);
        assert_eq!(r.report.drocs_plain + r.report.drocs_preload, 0);
    }

    #[test]
    fn pipelined_flow_reduces_depth_and_adds_drocs() {
        let mut g = Aig::new("mul6");
        let a = g.input_word("a", 6);
        let b = g.input_word("b", 6);
        let p = build::array_multiplier(&mut g, &a, &b);
        g.output_word("p", &p);
        let base = SynthesisFlow::new().run(&g).unwrap();
        let piped = SynthesisFlow::new()
            .pipeline_stages(1)
            .verify(true)
            .run(&g)
            .unwrap();
        assert_eq!(base.report.drocs_plain + base.report.drocs_preload, 0);
        assert!(piped.report.drocs_preload > 0);
        assert!(
            piped.report.depth_logic < base.report.depth_logic,
            "pipelining must shorten stages: {} vs {}",
            piped.report.depth_logic,
            base.report.depth_logic
        );
        assert!(piped.report.circuit_ghz > base.report.circuit_ghz);
        assert!(piped.report.jj_clock_tree > 0, "DROCs need a clock tree");
    }

    #[test]
    fn fraig_flow_verifies_and_does_not_grow() {
        // Duplicated mux/xor cones the structural passes may miss; the
        // fraig-enabled flow must still verify and never end up larger.
        let mut g = Aig::new("dup");
        let a = g.input_word("a", 3);
        let b = g.input_word("b", 3);
        let mut outs = Vec::new();
        for i in 0..3 {
            let x = g.xor(a[i], b[i]);
            let m = g.mux(a[i], !b[i], b[i]);
            let both = g.and(x, m);
            outs.push(both);
        }
        g.output_word("o", &outs);
        let base = SynthesisFlow::new().verify(true).run(&g).unwrap();
        let swept = SynthesisFlow::new()
            .script_str("standard; f")
            .unwrap()
            .verify(true)
            .run(&g)
            .unwrap();
        assert!(swept.report.aig_nodes <= base.report.aig_nodes);
        // The sweep left its telemetry row.
        assert_eq!(swept.report.passes.last().unwrap().name, "f");
    }

    /// The mul3–mul6 array multipliers.
    fn multipliers() -> Vec<Aig> {
        let mut designs = Vec::new();
        for bits in [3usize, 4, 5, 6] {
            let mut g = Aig::new(format!("mul{bits}"));
            let a = g.input_word("a", bits);
            let b = g.input_word("b", bits);
            let p = build::array_multiplier(&mut g, &a, &b);
            g.output_word("p", &p);
            designs.push(g);
        }
        designs
    }

    #[test]
    fn threads_knob_gives_bit_identical_flows() {
        let designs = multipliers();
        let one = SynthesisFlow::new().threads(1).run_many(&designs).unwrap();
        let four = SynthesisFlow::new().threads(4).run_many(&designs).unwrap();
        assert_eq!(one.len(), designs.len());
        for (one, four) in one.iter().zip(&four) {
            assert_eq!(one.optimized.nodes(), four.optimized.nodes());
            assert_eq!(one.optimized.outputs(), four.optimized.outputs());
            assert_eq!(one.report.jj_total, four.report.jj_total);
        }
    }

    /// A cancellation token and a job deadline, installed but never firing,
    /// leave the graph, the netlist and the pass log of the default flow
    /// unchanged.
    #[test]
    fn unfired_guards_leave_outputs_unchanged() {
        let hour = Duration::from_secs(3600);
        let plain = SynthesisFlow::new();
        let guarded = SynthesisFlow::new()
            .cancel_token(CancelToken::default())
            .job_deadline(hour);
        let pass_log = |r: &FlowResult| -> Vec<(String, u64)> {
            let passes = r.report.passes.iter();
            passes.map(|p| (p.name.clone(), p.commits)).collect()
        };
        for name in ["int2float", "dec", "priority", "cavlc"] {
            let aig = xsfq_benchmarks::by_name(name).unwrap();
            let want = plain.run(&aig).unwrap();
            let got = guarded.run(&aig).unwrap();
            assert_eq!(got.optimized.nodes(), want.optimized.nodes(), "{name}");
            assert_eq!(got.optimized.outputs(), want.optimized.outputs(), "{name}");
            assert_eq!(got.netlist().cells(), want.netlist().cells(), "{name}");
            assert_eq!(got.netlist().inputs(), want.netlist().inputs(), "{name}");
            assert_eq!(got.netlist().outputs(), want.netlist().outputs(), "{name}");
            assert_eq!(pass_log(&got), pass_log(&want), "{name}");
        }
    }

    #[test]
    fn pipeline_on_sequential_is_rejected() {
        let mut g = Aig::new("seq");
        let q = g.latch("q", false);
        g.set_latch_next(q, !q);
        g.output("o", q);
        let err = SynthesisFlow::new().pipeline_stages(1).run(&g).unwrap_err();
        assert!(matches!(err, FlowError::PipelineOnSequential));
    }

    /// Every pass copies port names verbatim, so a Paranoid run checks them
    /// once, at the Stage check, and lists each collision once.
    #[test]
    fn paranoid_lists_each_port_collision_once() {
        let mut g = Aig::new("dup");
        let a = g.input("a");
        let b = g.input("b");
        let o = g.and(a, b);
        g.output("o", o);
        g.output("o", !o);
        let flow = SynthesisFlow::new().check(CheckLevel::Paranoid);
        let Err(FlowError::LintFailed(diags)) = flow.run(&g) else {
            panic!("colliding output names must fail the lint");
        };
        let collisions = diags.iter().filter(|d| d.code == xsfq_lint::Code::X008);
        assert_eq!(collisions.count(), 1, "{diags:?}");
    }

    #[test]
    fn bad_scripts_are_rejected() {
        assert!(SynthesisFlow::new().script_str("repeat {").is_err());
        // Unknown passes surface at run time, when the flow compiles the
        // script.
        let flow = SynthesisFlow::new().script_str("b; nosuch").unwrap();
        let mut g = Aig::new("t");
        let a = g.input("a");
        let b = g.input("b");
        let o = g.and(a, b);
        g.output("o", o);
        assert!(matches!(
            flow.run(&g),
            Err(FlowError::Script(ScriptError::UnknownPass(_)))
        ));
    }

    #[test]
    fn sequential_flow_reports_drocs_and_trigger() {
        let mut g = Aig::new("cnt2");
        let q0 = g.latch("q0", false);
        let q1 = g.latch("q1", false);
        g.set_latch_next(q0, !q0);
        let n1 = g.xor(q1, q0);
        g.set_latch_next(q1, n1);
        g.output("o0", q0);
        g.output("o1", q1);
        let r = SynthesisFlow::new().run(&g).unwrap();
        assert_eq!(r.report.drocs_plain + r.report.drocs_preload, 4);
        assert!(r.report.jj_total > 0);
        assert!(r.report.jj_clock_tree > 0);
        // Trigger merger is counted once (5 JJ).
        let stats = r.netlist().stats();
        assert_eq!(r.report.jj_total, stats.jj_total + 5);
    }

    #[test]
    fn verification_catches_nothing_on_good_flow() {
        let mut g = Aig::new("alu");
        let a = g.input_word("a", 4);
        let b = g.input_word("b", 4);
        let sel = g.input("sel");
        let (sum, _) = build::ripple_add(&mut g, &a, &b, Lit::FALSE);
        let ands: Vec<Lit> = a.iter().zip(&b).map(|(&x, &y)| g.and(x, y)).collect();
        let out = build::mux_word(&mut g, sel, &sum, &ands);
        g.output_word("o", &out);
        for mode in [
            PolarityMode::DualRail,
            PolarityMode::AllPositive,
            PolarityMode::Heuristic,
        ] {
            let r = SynthesisFlow::new()
                .polarity(mode)
                .verify(true)
                .run(&g)
                .unwrap();
            assert!(r.report.jj_total > 0);
        }
    }

    #[test]
    fn report_lists_stages_in_execution_order() {
        let mut g = Aig::new("fa");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("cin");
        let (s, co) = build::full_adder(&mut g, a, b, c);
        g.output("s", s);
        g.output("cout", co);
        let r = SynthesisFlow::new().verify(true).run(&g).unwrap();
        let stages: Vec<FlowStage> = r.report.stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![
                FlowStage::Optimize,
                FlowStage::Pipeline,
                FlowStage::Polarity,
                FlowStage::Map,
                FlowStage::Verify
            ]
        );
        assert!(!r.report.passes.is_empty());
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        let designs = multipliers();
        let flow = SynthesisFlow::new().script(Script::preset(Effort::Fast));
        let batch = flow.run_many(&designs).unwrap();
        assert_eq!(batch.len(), designs.len());
        for (g, r) in designs.iter().zip(&batch) {
            let single = flow.run(g).unwrap();
            assert_eq!(r.report.name, single.report.name);
            assert_eq!(r.optimized.nodes(), single.optimized.nodes());
            assert_eq!(r.report.jj_total, single.report.jj_total);
            assert_eq!(r.report.la_fa, single.report.la_fa);
            assert_eq!(r.report.passes.len(), single.report.passes.len());
        }
    }

    #[test]
    fn run_many_propagates_the_first_error() {
        let mut comb = Aig::new("comb");
        let a = comb.input("a");
        let b = comb.input("b");
        let o = comb.and(a, b);
        comb.output("o", o);
        let mut seq = Aig::new("seq");
        let q = seq.latch("q", false);
        seq.set_latch_next(q, !q);
        seq.output("o", q);
        let err = SynthesisFlow::new()
            .pipeline_stages(1)
            .run_many(&[comb, seq])
            .unwrap_err();
        assert!(matches!(err, FlowError::PipelineOnSequential));
    }

    /// Serve's retry lane retries a failed job only when its kind is
    /// transient: a panic may not recur, every other failure would.
    #[test]
    fn only_panics_are_transient() {
        let panicked = JobErrorKind::Panicked {
            message: "boom".into(),
        };
        assert!(panicked.is_transient());
        for kind in [
            JobErrorKind::Cancelled,
            JobErrorKind::DeadlineExpired,
            JobErrorKind::Flow(FlowError::PipelineOnSequential),
            JobErrorKind::Flow(FlowError::LintFailed(vec![])),
        ] {
            assert!(!kind.is_transient(), "{kind:?}");
        }
    }

    /// A literal report that exercises every token kind of
    /// `xsfq-flow-report/2`: an escaped name, integral and fractional
    /// floats, and a non-finite float.
    fn literal_report() -> FlowReport {
        let pass = |name: &str| PassStat {
            name: name.into(),
            wall_ns: 1200,
            nodes_before: 9,
            nodes_after: 7,
            depth_before: 4,
            depth_after: 3,
            commits: 2,
        };
        FlowReport {
            name: "fa\"\tv2".into(),
            aig_nodes: 7,
            aig_depth: 3,
            la_fa: 5,
            duplication_percent: 12.5,
            splitters: 4,
            drocs_plain: 1,
            drocs_preload: 2,
            jj_total: 58,
            jj_clock_tree: 0,
            depth_logic: 3,
            depth_with_splitters: 5,
            critical_delay_ps: 40.0,
            circuit_ghz: f64::INFINITY,
            arch_ghz: 12.5,
            passes: vec![pass("rf -K 10"), pass("b")],
            stages: vec![
                StageStat {
                    stage: FlowStage::Optimize,
                    wall_ns: 10,
                },
                StageStat {
                    stage: FlowStage::Map,
                    wall_ns: 20,
                },
            ],
            timing: None,
        }
    }

    #[test]
    fn report_json_bytes_are_pinned() {
        assert_eq!(
            literal_report().to_json(),
            r#"{"schema":"xsfq-flow-report/2","name":"fa\"\tv2","aig_nodes":7,"aig_depth":3,"la_fa":5,"duplication_percent":12.5,"splitters":4,"drocs_plain":1,"drocs_preload":2,"jj_total":58,"jj_clock_tree":0,"depth_logic":3,"depth_with_splitters":5,"critical_delay_ps":40,"circuit_ghz":null,"arch_ghz":12.5,"passes":[{"name":"rf -K 10","wall_ns":1200,"nodes_before":9,"nodes_after":7,"depth_before":4,"depth_after":3,"commits":2},{"name":"b","wall_ns":1200,"nodes_before":9,"nodes_after":7,"depth_before":4,"depth_after":3,"commits":2}],"stages":[{"stage":"optimize","wall_ns":10},{"stage":"map","wall_ns":20}]}"#
        );
    }

    #[test]
    fn timed_report_json_bytes_are_pinned() {
        let mut report = literal_report();
        report.timing = Some(TimingSummary {
            critical_path_ps: 40.0,
            worst_slack_ps: -2.6,
            worst_skew_ps: 0.0,
            buffers_inserted: 1,
            jj_delta: 2,
            tolerance_ps: 3.5,
            balance: "full",
        });
        let json = report.to_json();
        let (untimed, timing) = json.split_once(r#","timing":"#).expect("timing key");
        assert_eq!(format!("{untimed}}}"), literal_report().to_json());
        assert_eq!(
            timing,
            r#"{"critical_path_ps":40,"worst_slack_ps":-2.6,"worst_skew_ps":0,"buffers_inserted":1,"jj_delta":2,"tolerance_ps":3.5,"balance":"full"}}"#
        );
    }
}
