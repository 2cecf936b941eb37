//! Set-up shared by every workload: build each kernel's profiling and
//! evaluation programs and compile the profiling build with the SPEAR
//! post-compiler, exactly as `runner::compile_workload` and the campaign
//! engine's prepare do.

use crate::span::{SpanId, Tracer};
use spear_compiler::{CompilerConfig, SpearCompiler};
use spear_isa::SpearBinary;
use spear_workloads::Input;

/// Which evaluation input a kernel is built with.
#[derive(Clone, Copy, Debug)]
pub enum EvalInput {
    /// The workload's own evaluation input, scaled `N`× (`name@xN`).
    Scaled(u32),
    /// The workload's profiling size with this data seed (which must
    /// differ from the profiling seed).
    Seeded(u64),
}

/// One compiled kernel, ready to simulate.
pub struct Kernel {
    /// Workload spec (`mcf`, `mcf@x20`).
    pub spec: String,
    /// Evaluation program without a p-thread table (the baseline).
    pub plain: SpearBinary,
    /// Evaluation program with the compiled p-thread table attached.
    pub spear: SpearBinary,
}

impl Kernel {
    pub fn binary(&self, spear: bool) -> &SpearBinary {
        if spear {
            &self.spear
        } else {
            &self.plain
        }
    }
}

/// Build and compile one kernel. Spans: `workloads.build` around each
/// `Workload.build` call and `compiler.compile` around the compile.
pub fn prepare(
    spec: &str,
    input: EvalInput,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Kernel, String> {
    let (w, _) = tracer.time(parent, "workloads.by_spec", |_| {
        spear_workloads::by_spec(spec).ok_or_else(|| format!("unknown workload `{spec}`"))
    })?;
    let eval_input = match input {
        EvalInput::Scaled(mult) => Input {
            seed: w.eval_input.seed,
            scale: w.eval_input.scale.saturating_mul(mult.max(1)),
        },
        EvalInput::Seeded(seed) => Input {
            seed,
            scale: w.profile_input.scale,
        },
    };
    if eval_input == w.profile_input {
        return Err(format!(
            "{spec}: the evaluation input equals the profiling input"
        ));
    }
    let profile = tracer.time(parent, "workloads.build", |_| (w.build)(w.profile_input));
    let eval = tracer.time(parent, "workloads.build", |_| (w.build)(eval_input));
    let (compiled, _) = tracer
        .span(parent, "compiler.compile", |_| {
            let r = SpearCompiler::new(CompilerConfig::default()).compile(&profile);
            let counts = match &r {
                Ok((_, rep)) => vec![
                    ("pthreads", rep.built.len() as f64),
                    ("slice_insts", rep.total_slice_len() as f64),
                ],
                Err(_) => Vec::new(),
            };
            (r, counts)
        })
        .map_err(|e| format!("{spec}: compile failed: {e}"))?;
    Ok(Kernel {
        spec: spec.to_string(),
        plain: SpearBinary::plain(eval.clone()),
        spear: SpearCompiler::attach(eval, compiled.table),
    })
}

/// [`prepare`] for several kernels, timed as one set-up (span
/// `bench.setup`).
pub fn prepare_all(
    specs: &[(String, EvalInput)],
    tracer: &Tracer,
) -> Result<(Vec<Kernel>, f64), String> {
    let t0 = std::time::Instant::now();
    let kernels = tracer.time(0, "bench.setup", |setup| {
        specs
            .iter()
            .map(|(spec, input)| prepare(spec, *input, tracer, setup))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((kernels, t0.elapsed().as_secs_f64()))
}
