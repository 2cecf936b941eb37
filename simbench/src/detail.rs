//! `detail`: full-detail runs (`Core::new` + `Core::run`, as
//! `runner::run_one` does) of all 15 kernels on the three Figure-6
//! machines, serially on one thread, as a closed loop.
//!
//! Each kernel's evaluation input is `(w.build)(Input { seed, scale })`
//! with a seed mixed from the benchmark seed and the workload's
//! profiling scale (about a third of its evaluation scale), so one pass
//! takes a few seconds and a run holds several passes. Compilation
//! profiles each workload's own profiling input, whose seed differs.

use crate::kernels::{self, EvalInput, Kernel};
use crate::span::{SpanId, Tracer};
use crate::summary::{self, median};
use crate::{EndToEnd, Outcome, Timed};
use spear_cpu::{Core, Machine, RunExit, RunResult};
use std::time::Instant;

/// The cycle ceiling `runner::run_one` uses.
const MAX_CYCLES: u64 = 200_000_000;

/// Span name of `Core::run` on each Figure-6 machine.
pub fn run_span(m: Machine) -> &'static str {
    match m {
        Machine::Baseline => "cpu.run.baseline",
        Machine::Spear128 => "cpu.run.spear-128",
        _ => "cpu.run.spear-256",
    }
}

/// The data seed of every kernel's evaluation input: a fixed mix of the
/// benchmark seed, so no benchmark seed reproduces a profiling input.
pub fn eval_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x005E_ED0F_BE4C
}

pub fn specs(seed: u64) -> Vec<(String, EvalInput)> {
    spear_workloads::all()
        .iter()
        .map(|w| (w.name.to_string(), EvalInput::Seeded(eval_seed(seed))))
        .collect()
}

/// The golden end state of each kernel's evaluation program.
fn goldens(kernels: &[Kernel]) -> Result<Vec<u64>, String> {
    kernels
        .iter()
        .map(|k| {
            let mut interp = spear_exec::Interp::new(&k.plain.program);
            interp
                .run(u64::MAX)
                .map_err(|e| format!("{}: golden run failed: {e}", k.spec))?;
            Ok(interp.state_checksum())
        })
        .collect()
}

/// The correctness gate of one run: it halted and its architectural end
/// state matches the golden interpreter's.
fn gate(r: &RunResult, checksum: u64, golden: u64) -> Result<(), String> {
    if r.exit != RunExit::Halted {
        return Err(format!("stopped with {:?} before halt", r.exit));
    }
    if checksum != golden {
        return Err(format!("state checksum {checksum:#x}, golden {golden:#x}"));
    }
    Ok(())
}

/// One full-detail run, as `runner::run_one` does it after the build.
/// Returns (committed, host seconds in `Core::new`, in `Core::run`, ok).
pub fn run_one(
    k: &Kernel,
    index: usize,
    m: Machine,
    golden: u64,
    tracer: &Tracer,
    parent: SpanId,
) -> (u64, f64, f64, bool) {
    let t0 = Instant::now();
    let mut core = tracer.time(parent, "cpu.new", |_| {
        Core::new(k.binary(m.is_spear()), m.config(None))
    });
    let t1 = Instant::now();
    let res = tracer.span(parent, run_span(m), |_| {
        let r = core.run(MAX_CYCLES, u64::MAX);
        let counts = match &r {
            Ok(r) => crate::layers::core_counts(&r.stats, index, true),
            Err(_) => Vec::new(),
        };
        (r, counts)
    });
    let t2 = Instant::now();
    let (committed, ok) = match res {
        Ok(r) => {
            let gate = gate(&r, core.state_checksum(), golden);
            if let Err(e) = &gate {
                eprintln!("detail: {} on {}: {e}", k.spec, m.name());
            }
            (r.stats.committed, gate.is_ok())
        }
        Err(e) => {
            eprintln!("detail: {} on {}: {e}", k.spec, m.name());
            (0, false)
        }
    };
    (
        committed,
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        ok,
    )
}

/// The host times of one (kernel, machine) run, one entry per pass.
#[derive(Clone, Default)]
struct OpTimes {
    latency_ms: Vec<f64>,
    new_s: Vec<f64>,
    run_s: Vec<f64>,
}

/// The end-to-end metrics of the passes, from each (kernel, machine)
/// run's median over them. A pass runs for seconds and the host's speed
/// swings within one, so each run's median time is steadier than a
/// whole pass's: `wall_s` is the sum of the runs' median latencies (a
/// median pass), `sim_kips` a pass's instructions over the sum of their
/// median `Core::run` times, and the latency metrics are taken over the
/// 45 median latencies.
fn median_pass(setups: &[f64], timed: &Timed, ops: &[OpTimes], committed: u64) -> EndToEnd {
    let med = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);
    let latencies: Vec<f64> = ops.iter().map(|o| med(&o.latency_ms)).collect();
    let wall_s = latencies.iter().sum::<f64>() / 1e3;
    let run_s: f64 = ops.iter().map(|o| med(&o.run_s)).sum();
    EndToEnd {
        wall_s,
        sim_kips: committed as f64 / run_s / 1e3,
        prepare_s: ops.iter().map(|o| med(&o.new_s)).sum(),
        simulate_s: run_s,
        job_latency_p50_ms: med(&latencies),
        job_latency_tail: summary::tail_or_max(&latencies, crate::TAIL_BEYOND),
        jobs_per_s: ops.len() as f64 / wall_s,
        ..EndToEnd::from_timed(setups, timed)
    }
}

/// Set up, then run whole passes over the 45 (kernel, machine) runs
/// until `seconds` have gone by.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut kernels = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        let (ks, s) = kernels::prepare_all(&specs(seed), tracer)?;
        setups.push(s);
        kernels = ks;
    }
    let golden = goldens(&kernels)?;
    let mut timed = Timed::default();
    let mut ops = vec![OpTimes::default(); kernels.len() * Machine::FIG6.len()];
    let mut pass_committed = 0u64;
    let mut notes = Vec::new();
    let start = Instant::now();
    while crate::another_region(&timed, start, seconds) {
        let t0 = Instant::now();
        let (mut committed, mut new_s, mut run_s) = (0u64, 0.0, 0.0);
        let mut op = ops.iter_mut();

        tracer.time(0, "bench.region", |region| {
            for (i, (k, &g)) in kernels.iter().zip(&golden).enumerate() {
                for m in Machine::FIG6 {
                    let op0 = Instant::now();
                    let (c, n, r, ok) = run_one(k, i, m, g, tracer, region);
                    let times = op.next().expect("one slot per (kernel, machine)");
                    times.latency_ms.push(op0.elapsed().as_secs_f64() * 1e3);
                    times.new_s.push(n);
                    times.run_s.push(r);
                    timed.attempted += 1;
                    if !ok {
                        timed.failed += 1;
                    }
                    committed += c;
                    new_s += n;
                    run_s += r;
                }
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        notes.push(format!(
            "pass {}: wall {wall:.3} s, {committed} instructions simulated",
            timed.regions.len() + 1
        ));
        if timed.regions.is_empty() {
            pass_committed = committed;
        } else if committed != pass_committed {
            eprintln!(
                "detail: pass simulated {committed} instructions, the first {pass_committed}"
            );
            timed.failed += 1;
        }
        let ops = (Machine::FIG6.len() * kernels.len()) as f64;
        timed.push_region(wall, ops, new_s, run_s, committed as f64 / run_s / 1e3);
    }
    Ok(Outcome {
        e2e: median_pass(&setups, &timed, &ops, pass_committed),
        attempted: timed.attempted,
        failed: timed.failed,
        notes,
        kernels,
        cells: Vec::new(),
        fingerprint: Vec::new(),
        untraced_wall_s: None,
    })
}
