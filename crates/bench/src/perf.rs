//! Criterion benchmark bodies for the flow's building blocks: AIG
//! optimization, polarity assignment + mapping, the baseline mapper, pulse
//! simulation throughput, SAT-based equivalence checking and the analog
//! transient solver.
//!
//! These live in the library (rather than only under `benches/`) so both the
//! `cargo bench` harness and the `perf_summary` binary — which emits the
//! machine-readable `BENCH_*.json` perf trajectory — can run the same
//! measurements.

use criterion::Criterion;

use xsfq_aig::opt::{self, Effort};
use xsfq_aig::pass::{PassGuards, PassStat, Script};
use xsfq_core::{map_xsfq, map_xsfq_with_pool, MapOptions, OutputPolarity, SynthesisFlow};
use xsfq_pulse::Harness;
use xsfq_serve::protocol::SubmitRequest;
use xsfq_serve::{Client, ServeConfig, Server};

/// `optimize` group: the ABC-style resynthesis script on ISCAS85/EPFL
/// blocks. `voter` is the largest EPFL circuit in the suite (≈7.5k ANDs);
/// it runs twice — on the default executor pool and pinned to one worker
/// thread — so each `BENCH_<n>.json` records the work-stealing speedup of
/// the machine it was measured on (the results are bit-identical).
pub fn bench_optimize(c: &mut Criterion) {
    let aig = xsfq_benchmarks::by_name("c880").unwrap();
    let mut g = c.benchmark_group("optimize");
    g.sample_size(10);
    g.bench_function("c880_fast", |b| {
        b.iter(|| opt::optimize(std::hint::black_box(&aig), Effort::Fast))
    });
    let int2float = xsfq_benchmarks::by_name("int2float").unwrap();
    g.bench_function("int2float_standard", |b| {
        b.iter(|| opt::optimize(std::hint::black_box(&int2float), Effort::Standard))
    });
    let voter = xsfq_benchmarks::by_name("voter").unwrap();
    g.bench_function("voter_fast", |b| {
        b.iter(|| opt::optimize(std::hint::black_box(&voter), Effort::Fast))
    });
    let single = xsfq_exec::ThreadPool::new(1);
    g.bench_function("voter_fast_t1", |b| {
        b.iter(|| opt::optimize_with(std::hint::black_box(&voter), Effort::Fast, &single))
    });
    g.finish();
}

/// `map` group: dual-rail xSFQ mapping and the clocked-RSFQ baseline
/// mapper. `voter` (the largest EPFL circuit in the suite, with the
/// heaviest polarity search) runs twice — on the default executor pool and
/// pinned to one worker thread — so each `BENCH_<n>.json` records the
/// speedup of the parallel requirements sweep + polarity costing on the
/// machine it was measured on (the mapped netlists are bit-identical; the
/// `map_identity` gate pins that).
pub fn bench_mapping(c: &mut Criterion) {
    let aig = xsfq_benchmarks::by_name("c880").unwrap();
    let optimized = opt::optimize(&aig, Effort::Fast);
    let mut g = c.benchmark_group("map");
    g.sample_size(10);
    g.bench_function("xsfq_c880", |b| {
        b.iter(|| map_xsfq(std::hint::black_box(&optimized), &MapOptions::default()))
    });
    g.bench_function("rsfq_baseline_c880", |b| {
        b.iter(|| xsfq_baselines::map_rsfq(std::hint::black_box(&optimized)))
    });
    let voter = opt::optimize(&xsfq_benchmarks::by_name("voter").unwrap(), Effort::Fast);
    g.bench_function("voter", |b| {
        b.iter(|| map_xsfq(std::hint::black_box(&voter), &MapOptions::default()))
    });
    let single = xsfq_exec::ThreadPool::new(1);
    g.bench_function("voter_t1", |b| {
        b.iter(|| {
            map_xsfq_with_pool(
                std::hint::black_box(&voter),
                &MapOptions::default(),
                &single,
            )
        })
    });
    g.finish();
}

/// `pulse` group: full adder under the alternating protocol, 8 logical cycles.
pub fn bench_pulse_sim(c: &mut Criterion) {
    let mut aig = xsfq_aig::Aig::new("fa");
    let a = aig.input("a");
    let b = aig.input("b");
    let cin = aig.input("cin");
    let (s, co) = xsfq_aig::build::full_adder(&mut aig, a, b, cin);
    aig.output("s", s);
    aig.output("cout", co);
    let r = SynthesisFlow::new().run(&aig).unwrap();
    let negs: Vec<bool> = r
        .mapped
        .assignment
        .outputs
        .iter()
        .map(|p| *p == OutputPolarity::Negative)
        .collect();
    let vectors: Vec<Vec<bool>> = (0..8)
        .map(|p| (0..3).map(|i| p >> i & 1 == 1).collect())
        .collect();
    let mut g = c.benchmark_group("pulse");
    g.bench_function("full_adder_8_cycles", |b| {
        b.iter(|| Harness::new(r.netlist(), negs.clone()).run(std::hint::black_box(&vectors)))
    });
    g.finish();
}

/// `verify` group: SAT equivalence proof of an optimization — the default
/// (sweeping) engine and the classic monolithic-miter encoder it replaced.
pub fn bench_cec(c: &mut Criterion) {
    let aig = xsfq_benchmarks::by_name("int2float").unwrap();
    let optimized = opt::optimize(&aig, Effort::Fast);
    let mut g = c.benchmark_group("verify");
    g.sample_size(10);
    g.bench_function("cec_int2float", |b| {
        b.iter(|| {
            assert!(xsfq_core::verify::prove_equivalent(
                std::hint::black_box(&aig),
                std::hint::black_box(&optimized)
            ))
        })
    });
    g.bench_function("cec_int2float_monolithic", |b| {
        b.iter(|| {
            assert!(xsfq_sat::check_equivalence_monolithic(
                std::hint::black_box(&aig),
                std::hint::black_box(&optimized)
            )
            .is_equivalent())
        })
    });
    g.finish();
}

/// The EPFL designs the `flow` group batches (small enough for CI smoke,
/// heavy enough that each design dominates the dispatch cost).
const FLOW_BATCH: [&str; 4] = ["int2float", "dec", "priority", "cavlc"];

/// `flow` group: whole-design batching. `run_many_epfl4` schedules four
/// EPFL designs across the executor pool; `run_each_epfl4` runs the same
/// designs as sequential `run` calls. The reports are identical — the pair
/// exists so every `BENCH_<n>.json` records the flow-level speedup of its
/// machine (1.0× on a single-core container, like the `voter_fast` pair).
pub fn bench_flow(c: &mut Criterion) {
    let designs: Vec<xsfq_aig::Aig> = FLOW_BATCH
        .iter()
        .map(|n| xsfq_benchmarks::by_name(n).unwrap())
        .collect();
    let flow = SynthesisFlow::new().script(Script::named("fast").unwrap());
    let mut g = c.benchmark_group("flow");
    g.sample_size(10);
    g.bench_function("run_many_epfl4", |b| {
        b.iter(|| flow.run_many(std::hint::black_box(&designs)).unwrap())
    });
    g.bench_function("run_each_epfl4", |b| {
        b.iter(|| {
            std::hint::black_box(&designs)
                .iter()
                .map(|d| flow.run(d).unwrap())
                .collect::<Vec<_>>()
        })
    });
    // `guarded_run` / `unguarded_run` pair on `voter` (largest EPFL design
    // in the suite): the same flow with a cancellation token, a job
    // deadline and both pass guards installed but never firing. The pair
    // exists so every `BENCH_<n>.json` proves the robustness plumbing is
    // free when unused (token polls are relaxed atomic loads at pass and
    // evaluate-batch boundaries; guard checks are two compares per pass) —
    // the recorded ratio must stay within noise (<2%).
    let voter = xsfq_benchmarks::by_name("voter").unwrap();
    g.bench_function("unguarded_run", |b| {
        b.iter(|| flow.run(std::hint::black_box(&voter)).unwrap())
    });
    let guarded = flow
        .clone()
        .cancel_token(xsfq_exec::CancelToken::default())
        .job_deadline(std::time::Duration::from_secs(3600))
        .guards(PassGuards {
            max_growth: Some(8.0),
            wall_budget: Some(std::time::Duration::from_secs(3600)),
            degrade_to_fast: false,
        });
    g.bench_function("guarded_run", |b| {
        b.iter(|| guarded.run(std::hint::black_box(&voter)).unwrap())
    });
    g.finish();
}

/// Run the standard-preset flow on representative designs and return one
/// `(flowpass/<design>/<index>_<pass>, stat)` row per executed pass — the
/// per-pass telemetry `BENCH_<n>.json` carries alongside the criterion
/// groups. The index keeps repeated pass names unique and the order
/// sortable; pass sequences are deterministic per design (early exit
/// depends only on the graph), so keys are stable across machines and PRs.
pub fn flow_pass_rows() -> Vec<(String, PassStat)> {
    let mut rows = Vec::new();
    for name in ["c880", "int2float"] {
        let aig = xsfq_benchmarks::by_name(name).unwrap();
        let r = SynthesisFlow::new().run(&aig).expect("flow");
        for (i, p) in r.report.passes.into_iter().enumerate() {
            // Keys must stay single-token: "rf -K 10" → "rf-K10".
            let key = format!("flowpass/{name}/{i:02}_{}", p.name.replace(' ', ""));
            rows.push((key, p));
        }
    }
    rows
}

/// `serve` group: end-to-end daemon round-trips over a real loopback
/// socket. `throughput` runs with the result cache disabled, so every
/// round trip pays parse + full flow + netlist/report encoding — the
/// daemon's steady-state cost per job including journal fsyncs.
/// `cache_hit` warms the cache with one run and then resubmits the same
/// design, isolating the protocol + digest + cache-replay path; the gap
/// between the two rows is what the canonical-AIG cache buys a repeated
/// workload.
pub fn bench_serve(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("xsfq-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();
    let mut blif = Vec::new();
    xsfq_aig::io::write_blif(&aig, &mut blif).unwrap();
    let request = SubmitRequest {
        script: "fast".into(),
        name: "ctrl".into(),
        data: blif,
        fault: None,
    };

    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    {
        let mut cfg = ServeConfig::new(dir.join("nocache"));
        cfg.cache_budget = 0;
        let server = Server::start(cfg).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        g.bench_function("throughput", |b| {
            b.iter(|| client.submit(std::hint::black_box(&request)).unwrap())
        });
        server.shutdown();
    }
    {
        let server = Server::start(ServeConfig::new(dir.join("cache"))).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.submit(&request).unwrap();
        g.bench_function("cache_hit", |b| {
            b.iter(|| client.submit(std::hint::black_box(&request)).unwrap())
        });
        server.shutdown();
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `lint` group: the static checker's cost envelope. `epfl_suite` DRCs the
/// physical netlists of every EPFL design (the full CheckLevel::Stage
/// netlist bill per suite run); `stats_epfl_suite` runs the `NetlistStats`
/// analysis pass over the same netlists — the yardstick the DRC is specced
/// against (same order of magnitude: both are linear traversals of the
/// cell/net tables). `flow_checked` / `flow_unchecked` pair a full `ctrl`
/// flow at `CheckLevel::Stage` against `CheckLevel::Off`, so every
/// `BENCH_<n>.json` records that `Off` costs exactly nothing and `Stage`
/// stays in the noise of a real synthesis run.
pub fn bench_lint(c: &mut Criterion) {
    use xsfq_lint::{lint_netlist, CheckLevel, NetlistProfile};
    let physicals: Vec<xsfq_netlist::Netlist> = xsfq_benchmarks::all()
        .iter()
        .filter(|b| b.suite == xsfq_benchmarks::Suite::Epfl)
        .map(|b| {
            SynthesisFlow::new()
                .script(Script::named("fast").unwrap())
                .run(&(b.build)())
                .unwrap()
                .mapped
                .physical
        })
        .collect();
    let mut g = c.benchmark_group("lint");
    g.sample_size(10);
    g.bench_function("epfl_suite", |b| {
        b.iter(|| {
            for n in std::hint::black_box(&physicals) {
                assert!(!xsfq_lint::has_errors(&lint_netlist(
                    n,
                    NetlistProfile::Physical
                )));
            }
        })
    });
    g.bench_function("stats_epfl_suite", |b| {
        b.iter(|| {
            std::hint::black_box(&physicals)
                .iter()
                .map(|n| n.stats_uncached().jj_total)
                .sum::<u64>()
        })
    });
    let ctrl = xsfq_benchmarks::by_name("ctrl").unwrap();
    let flow = SynthesisFlow::new().script(Script::named("fast").unwrap());
    g.bench_function("flow_unchecked", |b| {
        b.iter(|| flow.run(std::hint::black_box(&ctrl)).unwrap())
    });
    let checked = flow.clone().check(CheckLevel::Stage);
    g.bench_function("flow_checked", |b| {
        b.iter(|| checked.run(std::hint::black_box(&ctrl)).unwrap())
    });
    g.finish();
}

/// `timing` group: the static timing backend on `voter`, the largest EPFL
/// circuit in the suite. `analyse_voter` is the pure engine sweep (balance
/// off), `constrain_voter` adds the slack-matching plan + netlist rebuild,
/// and `flow_timed` / `flow_untimed` pair a full `ctrl` flow with the
/// Timing stage enabled against the default — so every `BENCH_<n>.json`
/// records that an unset `FlowOptions::timing` costs exactly nothing.
pub fn bench_timing(c: &mut Criterion) {
    use xsfq_timing::{balance_netlist, BalanceMode, TimingAnalysis, TimingOptions};
    let voter = SynthesisFlow::new()
        .script(Script::named("fast").unwrap())
        .run(&xsfq_benchmarks::by_name("voter").unwrap())
        .unwrap()
        .mapped
        .physical;
    let analyse = TimingOptions {
        balance: BalanceMode::Off,
        tolerance_ps: None,
    };
    let constrain = TimingOptions::default();
    let mut g = c.benchmark_group("timing");
    g.sample_size(10);
    g.bench_function("analyse_voter", |b| {
        b.iter(|| TimingAnalysis::analyze(std::hint::black_box(&voter), &analyse))
    });
    g.bench_function("constrain_voter", |b| {
        b.iter(|| {
            let outcome = balance_netlist(std::hint::black_box(&voter), &constrain, None);
            assert!(outcome.summary.worst_slack_ps >= 0.0);
            outcome
        })
    });
    let ctrl = xsfq_benchmarks::by_name("ctrl").unwrap();
    let flow = SynthesisFlow::new().script(Script::named("fast").unwrap());
    g.bench_function("flow_untimed", |b| {
        b.iter(|| flow.run(std::hint::black_box(&ctrl)).unwrap())
    });
    let timed = flow.clone().timing(TimingOptions::default());
    g.bench_function("flow_timed", |b| {
        b.iter(|| timed.run(std::hint::black_box(&ctrl)).unwrap())
    });
    g.finish();
}

/// `spice` group: RCSJ transient of a 4-stage JTL.
pub fn bench_spice(c: &mut Criterion) {
    let mut g = c.benchmark_group("spice");
    g.sample_size(10);
    g.bench_function("jtl4_transient_100ps", |b| {
        b.iter(|| {
            let mut fx = xsfq_spice::cells::jtl_chain(4);
            fx.circuit.pulse(fx.inputs[0], 10.0, 500e-6, 2.0);
            xsfq_spice::transient(
                &fx.circuit,
                &xsfq_spice::TransientOptions {
                    t_end_ps: 100.0,
                    ..Default::default()
                },
            )
        })
    });
    g.finish();
}
