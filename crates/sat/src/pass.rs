//! SAT sweeping as a scripted optimization pass.
//!
//! The structural passes in `xsfq-aig` cannot see functionally equivalent
//! cones with different structure; [`fraig_with_stats`] can.
//! [`fraig_pass`] is the [`Sweep`](xsfq_aig::pass::Sweep) a script runs as
//! `f` / `fraig` (`"standard; f"`): the synthesis flow compiles its scripts
//! with `Script::compile(Some(fraig_pass))`.

use xsfq_aig::Aig;
use xsfq_exec::CancelToken;

use crate::sweep::fraig_with_stats;

/// The SAT-sweeping (`fraig`) pass: merge proven-equivalent nodes, keeping
/// the result only when it is strictly smaller than its input (sweeping
/// never helps when nothing merges). Returns the output graph and the
/// number of proven merges, which is zero when the input comes back.
/// `cancel` is threaded into the sweep, so a cancelled job escapes a long
/// proving round at a class boundary.
pub fn fraig_pass(aig: &Aig, cancel: &CancelToken) -> (Aig, u64) {
    let (swept, stats) = fraig_with_stats(aig, cancel);
    if swept.num_ands() < aig.num_ands() {
        (swept, stats.proved as u64)
    } else {
        (aig.clone(), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsfq_aig::pass::{PassCtx, Script, ScriptError};

    /// Duplicated xor/mux cones the structural passes cannot share.
    fn duplicated() -> Aig {
        let mut g = Aig::new("dup");
        let a = g.input("a");
        let b = g.input("b");
        let x1 = g.xor(a, b);
        let x2 = g.mux(a, !b, b);
        g.output("x1", x1);
        g.output("x2", x2);
        g
    }

    #[test]
    fn fraig_runs_as_scripted_pass() {
        let g = duplicated();
        let run = |text: &str| {
            let compiled = Script::parse(text)
                .unwrap()
                .compile(Some(fraig_pass))
                .unwrap();
            let mut ctx = PassCtx::new();
            let out = compiled.run(&g, &mut ctx);
            (out, ctx.take_telemetry())
        };
        let (out, stats) = run("c; f");
        assert!(out.num_ands() < g.num_ands(), "sweep must merge the cones");
        assert_eq!(stats[1].name, "f");
        assert!(stats[1].commits > 0, "proved merges are the commit count");
        assert!(
            crate::check_equivalence(&g, &out).is_equivalent(),
            "fraig pass broke the function"
        );
        // The long alias is the same pass.
        let (aliased, aliased_stats) = run("c; fraig");
        assert_eq!(aliased.nodes(), out.nodes());
        assert_eq!(aliased.outputs(), out.outputs());
        assert_eq!(aliased_stats[1].name, "f");
        assert_eq!(aliased_stats[1].commits, stats[1].commits);
    }

    #[test]
    fn fraig_rejects_arguments() {
        assert!(matches!(
            Script::parse("f -K 4").unwrap().compile(Some(fraig_pass)),
            Err(ScriptError::BadArgs { .. })
        ));
    }
}
