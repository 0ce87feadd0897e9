//! Batch synthesis: `SynthesisFlow::run_many` over EPFL and ISCAS89
//! benchmark designs must return exactly the results sequential `run`
//! calls produce (the acceptance criterion of the pass-manager redesign),
//! while scheduling whole designs across the executor pool — and so must
//! the other entry points, `run_many_isolated` and `run_job`.

use xsfq::aig::pass::{PassCtx, Script};
use xsfq::core::{FlowResult, SynthesisFlow};

const DESIGNS: [&str; 5] = ["int2float", "dec", "priority", "cavlc", "s27"];

/// `report.to_json()` with every `wall_ns` value zeroed: wall-clock time
/// is the one report field that differs between identical runs.
fn scrubbed_json(result: &FlowResult) -> String {
    const KEY: &str = "\"wall_ns\":";
    let json = result.report.to_json();
    let mut out = String::with_capacity(json.len());
    let mut rest = json.as_str();
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        out.push('0');
        rest = rest[at + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn run_many_over_epfl_matches_sequential_runs() {
    let designs: Vec<_> = DESIGNS
        .iter()
        .map(|n| xsfq::benchmarks::by_name(n).unwrap())
        .collect();
    let flow = SynthesisFlow::new().script(Script::named("fast").unwrap());
    let batch = flow.run_many(&designs).unwrap();
    assert_eq!(batch.len(), designs.len());
    let isolated: Vec<FlowResult> = flow
        .run_many_isolated(&designs)
        .into_iter()
        .map(|verdict| verdict.unwrap())
        .collect();
    // The daemon's shape: one warm pass context reused across every design.
    let mut ctx = PassCtx::new();
    let jobs: Vec<FlowResult> = designs
        .iter()
        .map(|g| flow.run_job(g, &mut ctx).unwrap())
        .collect();
    for (i, g) in designs.iter().enumerate() {
        let single = flow.run(g).unwrap();
        for (path, r) in [
            ("run_many", &batch[i]),
            ("run_many_isolated", &isolated[i]),
            ("run_job", &jobs[i]),
        ] {
            let name = g.name();
            // Bit-identical optimization result…
            assert_eq!(
                r.optimized.nodes(),
                single.optimized.nodes(),
                "{path}: {name}"
            );
            assert_eq!(
                r.optimized.outputs(),
                single.optimized.outputs(),
                "{path}: {name}"
            );
            // …the same physical netlist…
            assert_eq!(r.netlist(), single.netlist(), "{path}: {name}");
            // …and the same report, pass and stage sequence included.
            assert_eq!(scrubbed_json(r), scrubbed_json(&single), "{path}: {name}");
        }
    }
}

#[test]
fn run_many_respects_the_threads_knob() {
    let designs: Vec<_> = DESIGNS
        .iter()
        .take(2)
        .map(|n| xsfq::benchmarks::by_name(n).unwrap())
        .collect();
    let base = SynthesisFlow::new()
        .script(Script::named("fast").unwrap())
        .run_many(&designs)
        .unwrap();
    let pinned = SynthesisFlow::new()
        .script(Script::named("fast").unwrap())
        .threads(3)
        .run_many(&designs)
        .unwrap();
    for (a, b) in base.iter().zip(&pinned) {
        assert_eq!(a.optimized.nodes(), b.optimized.nodes());
        assert_eq!(a.report.jj_total, b.report.jj_total);
    }
}
