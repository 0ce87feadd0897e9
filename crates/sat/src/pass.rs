//! SAT sweeping as a first-class optimization pass.
//!
//! The structural passes in `xsfq-aig` cannot see functionally equivalent
//! cones with different structure; [`fraig`](crate::sweep::fraig) can. This
//! module wraps the sweep as an [`xsfq_aig::pass::Pass`] so scripts can
//! schedule it (`"standard; f"`), and [`register`] adds it to a
//! [`PassRegistry`] under `f` / `fraig` — `xsfq_core::flow_registry` calls
//! that for the synthesis flow.

use xsfq_aig::pass::{Pass, PassCtx, PassRegistry, ScriptError};
use xsfq_aig::Aig;

use crate::sweep::{fraig_with_stats, SweepOptions};

/// The SAT-sweeping (`fraig`) pass: merge proven-equivalent nodes, keeping
/// the result only when it is strictly smaller than its input (sweeping
/// never helps when nothing merges).
#[derive(Default, Debug, Clone)]
pub struct FraigPass {
    opts: SweepOptions,
}

impl FraigPass {
    /// Pass with default sweep options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pass with explicit sweep options.
    pub fn with_options(opts: SweepOptions) -> Self {
        FraigPass { opts }
    }
}

impl Pass for FraigPass {
    fn name(&self) -> &str {
        "f"
    }

    fn run(&self, aig: &Aig, ctx: &mut PassCtx) -> Aig {
        // Thread the job's cancellation token into the sweep so a cancelled
        // job escapes a long proving round at a class boundary.
        let mut opts = self.opts.clone();
        opts.cancel = ctx.token().clone();
        let (swept, stats) = fraig_with_stats(aig, &opts);
        ctx.add_commits(stats.proved as u64);
        if swept.num_ands() < aig.num_ands() {
            swept
        } else {
            aig.clone()
        }
    }
}

/// Register the `f` / `fraig` pass (no arguments) in `registry`.
pub fn register(registry: &mut PassRegistry) {
    registry.register(&["f", "fraig"], |args| {
        if !args.is_empty() {
            return Err(ScriptError::BadArgs {
                pass: "f".to_string(),
                msg: format!("takes no arguments, got {args:?}"),
            });
        }
        Ok(Box::new(FraigPass::new()))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsfq_aig::pass::Script;
    use xsfq_exec::ThreadPool;

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
        let mut reg = PassRegistry::structural();
        register(&mut reg);
        let compiled = Script::parse("c; f").unwrap().compile(&reg).unwrap();
        let mut ctx = PassCtx::new(ThreadPool::global());
        let out = compiled.run(&g, &mut ctx);
        assert!(out.num_ands() < g.num_ands(), "sweep must merge the cones");
        let stats = ctx.telemetry();
        assert_eq!(stats[1].name, "f");
        assert!(stats[1].commits > 0, "proved merges are the commit count");
        assert!(
            crate::check_equivalence(&g, &out).is_equivalent(),
            "fraig pass broke the function"
        );
    }

    #[test]
    fn fraig_rejects_arguments() {
        let mut reg = PassRegistry::structural();
        register(&mut reg);
        assert!(matches!(
            Script::parse("f -K 4").unwrap().compile(&reg),
            Err(ScriptError::BadArgs { .. })
        ));
    }
}
