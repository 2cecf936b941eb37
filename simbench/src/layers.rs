//! Per-layer metrics of a traced run.
//!
//! The traced region records spans around the calls it makes into each
//! crate. Layers the workload's region does not reach are then probed
//! on the workload's own kernels, with spans of the same names, so every
//! traced run reports every per-layer metric. `LAYERS.md` maps each
//! metric to the end-to-end metric and workload it should move.

use crate::kernels::Kernel;
use crate::simpoint::{self, MACHINES};
use crate::span::{Span, SpanId, Tracer};
use crate::summary::median;
use crate::{detail, served, Metric, Outcome};
use spear_bpred::Predictor;
use spear_cpu::{Core, CoreStats, Machine};
use spear_exec::{Interp, StepInfo};
use spear_isa::Program;
use spear_mem::{AccessKind, HierConfig, Hierarchy};

/// Steps of each kernel buffered for the `mem` and `bpred` replays.
const REPLAY_STEPS: u64 = 400_000;
/// SimPoint interval of the probe on base-scale kernels.
const PROBE_INTERVAL: u64 = 25_000;
/// Instruction budget of a `cpu` probe run (base-scale kernels halt
/// well within it, so their probe runs are full-detail runs).
const PROBE_CPU_INSTS: u64 = 1_500_000;
/// The instruction budget of a functional pass.
const MAX_INSTS: u64 = 1_000_000_000;

/// Counts attached to every `Core::run` span: the kernel's index in the
/// run's kernel list, whether the run went from the first instruction to
/// halt, and the modelled counts the `cpu`, `mem` and `bpred` metrics
/// are ratios of.
pub fn core_counts(s: &CoreStats, kernel: usize, full: bool) -> Vec<(&'static str, f64)> {
    let mispredicts = (s.bpred.cond_branches - s.bpred.cond_correct)
        + (s.bpred.indirect - s.bpred.indirect_correct);
    vec![
        ("kernel", kernel as f64),
        ("full", f64::from(u8::from(full))),
        ("committed", s.committed as f64),
        ("cycles", s.cycles as f64),
        ("fetched", s.fetched as f64),
        ("l1d_misses", s.l1d.misses() as f64),
        ("l2_misses", s.l2.misses() as f64),
        ("mispredicts", mispredicts as f64),
        ("useful_prefetches", s.useful_prefetches as f64),
        ("pthread_loads", s.pthread_loads as f64),
    ]
}

/// Up to `limit` committed steps of `program` from its first
/// instruction.
pub fn buffer_steps(program: &Program, limit: u64) -> Result<Vec<StepInfo>, String> {
    let mut interp = Interp::new(program);
    let mut steps = Vec::new();
    while !interp.halted && (steps.len() as u64) < limit {
        steps.push(
            interp
                .step()
                .map_err(|e| format!("functional run failed: {e}"))?,
        );
    }
    Ok(steps)
}

/// Feed a buffered stream's memory traffic into a fresh hierarchy the
/// way the warming pass does: one instruction access per fetch-block
/// transition, one data access per load or store. Returns the data and
/// instruction accesses made.
pub fn replay_mem(steps: &[StepInfo]) -> (u64, u64) {
    let mut hier = Hierarchy::new(HierConfig::paper());
    let block_bytes = hier.l1i.geometry().block_bytes as u64;
    let (mut data, mut inst) = (0, 0);
    let mut last_block = None;
    for (now, si) in steps.iter().enumerate() {
        let addr = Program::inst_addr(si.pc);
        if last_block != Some(addr / block_bytes) {
            hier.access_inst(addr);
            last_block = Some(addr / block_bytes);
            inst += 1;
        }
        if let Some(ea) = si.outcome.eff_addr {
            let kind = if si.inst.op.is_store() {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            hier.access_data(ea, kind, si.pc, false, now as u64);
            data += 1;
        }
    }
    (data, inst)
}

/// Predict, then resolve, every control instruction of a buffered
/// stream on a fresh paper predictor. Returns the branches fed.
pub fn replay_bpred(steps: &[StepInfo]) -> u64 {
    let mut pred = Predictor::new(Machine::Baseline.config(None).bpred);
    let mut branches = 0;
    for si in steps.iter().filter(|si| si.inst.op.is_ctrl()) {
        let p = pred.predict(si.pc, &si.inst);
        let taken = si.outcome.taken.unwrap_or(true);
        pred.update(si.pc, &si.inst, taken, si.outcome.next_pc, Some(p));
        branches += 1;
    }
    branches
}

/// Run every probe whose spans the traced region did not record, under
/// one `bench.probe` span.
fn probe(
    workload: &str,
    seed: u64,
    kernels: &[Kernel],
    tracer: &Tracer,
) -> Result<Vec<spear_campaign::CellResult>, String> {
    tracer.time(0, "bench.probe", |root| {
        probe_under(root, workload, seed, kernels, tracer)
    })
}

fn probe_under(
    root: SpanId,
    workload: &str,
    seed: u64,
    kernels: &[Kernel],
    tracer: &Tracer,
) -> Result<Vec<spear_campaign::CellResult>, String> {
    for k in kernels {
        let mut interp = Interp::new(&k.plain.program);
        tracer
            .span(root, "exec.interp", |_| {
                let r = interp.run(MAX_INSTS);
                (r, vec![("insts", interp.icount as f64)])
            })
            .map_err(|e| format!("{}: {e}", k.spec))?;
        let steps =
            buffer_steps(&k.plain.program, REPLAY_STEPS).map_err(|e| format!("{}: {e}", k.spec))?;
        tracer.span(root, "mem.replay", |_| {
            let (d, i) = replay_mem(&steps);
            ((), vec![("accesses", (d + i) as f64)])
        });
        tracer.span(root, "bpred.replay", |_| {
            ((), vec![("branches", replay_bpred(&steps) as f64)])
        });
        let (bytes, stats) = tracer.span(root, "trace.record", |_| {
            let r = spear_trace::record(&k.spear, MAX_INSTS);
            let (n, payload) = r
                .as_ref()
                .map_or((0, 0), |(_, s)| (s.insts, s.payload_bytes));
            (
                r,
                vec![("insts", n as f64), ("payload_bytes", payload as f64)],
            )
        })?;
        tracer
            .span(root, "trace.decode", |_| {
                let r = spear_trace::TraceFile::decode(&bytes);
                (r, vec![("bytes", stats.file_bytes as f64)])
            })
            .map_err(|e| format!("{}: trace decode: {e}", k.spec))?;
    }
    let mut cells = Vec::new();
    if !tracer.has("exec.bbv") {
        let dir = crate::work_dir().join(format!("probe-{}", std::process::id()));
        cells = simpoint::stepwise(kernels, &MACHINES, PROBE_INTERVAL, seed, &dir, tracer, root)?.0;
    }
    for m in Machine::FIG6 {
        // Full-detail runs on every machine, except where the region
        // already ran them (`detail`) or only the machine's speed is
        // missing (`simpoint-campaign`, which has a full-detail reference).
        let spans = tracer.named(detail::run_span(m));
        let have_full = spans.iter().any(|s| s.count("full") == 1.0);
        if have_full || (workload == "simpoint-campaign" && !spans.is_empty()) {
            continue;
        }
        for (i, k) in kernels.iter().enumerate() {
            let mut core = Core::new(k.binary(m.is_spear()), m.config(None));
            tracer
                .span(root, detail::run_span(m), |_| {
                    let r = core.run(u64::MAX, PROBE_CPU_INSTS);
                    let counts = match &r {
                        Ok(r) => core_counts(&r.stats, i, r.exit == spear_cpu::RunExit::Halted),
                        Err(_) => Vec::new(),
                    };
                    (r, counts)
                })
                .map_err(|e| format!("{} on {}: {e}", k.spec, m.name()))?;
        }
    }
    if !tracer.has("serve.submit") {
        served::probe(workload, seed, tracer)?;
    }
    Ok(cells)
}

fn sum(spans: &[Span], key: &str) -> f64 {
    spans.iter().map(|s| s.count(key)).sum()
}

fn total_ms(spans: &[Span]) -> f64 {
    spans.iter().map(Span::ms).sum()
}

fn median_ms(spans: &[Span]) -> f64 {
    median(&spans.iter().map(Span::ms).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Median over set-ups of `f` over their `name` children.
fn per_setup(tracer: &Tracer, name: &str, f: impl Fn(&[Span]) -> f64) -> f64 {
    let per: Vec<f64> = tracer
        .named("bench.setup")
        .iter()
        .map(|s| f(&tracer.children(s.id, name)))
        .collect();
    median(&per).unwrap_or(f64::NAN)
}

/// Largest |blended IPC − full-detail IPC| / full-detail IPC over the
/// probe's cells, against full runs recorded in `cpu.run.*` spans.
fn probe_ipc_err_pct(
    tracer: &Tracer,
    kernels: &[Kernel],
    cells: &[spear_campaign::CellResult],
) -> f64 {
    let mut worst: f64 = 0.0;
    for a in spear_campaign::aggregate(cells) {
        let Some(i) = kernels.iter().position(|k| k.spec == a.workload) else {
            continue;
        };
        let Some(m) = MACHINES.iter().find(|m| m.name() == a.machine) else {
            continue;
        };
        let full: Vec<Span> = tracer
            .named(detail::run_span(*m))
            .into_iter()
            .filter(|s| s.count("full") == 1.0 && s.count("kernel") == i as f64)
            .take(1)
            .collect();
        if full.is_empty() {
            continue;
        }
        let ipc = sum(&full, "committed") / sum(&full, "cycles");
        worst = worst.max((a.ipc() - ipc).abs() / ipc * 100.0);
    }
    worst
}

/// Each machine's `Core::run` spans from one region, or from the probe
/// where no region ran the machine, so no figure depends on how many
/// regions fitted in the run.
fn run_spans(tracer: &Tracer, m: Machine) -> Vec<Span> {
    tracer.first_group(detail::run_span(m))
}

/// The modelled counts of the traced `Core::run` spans: what the
/// simulated machines did, which no performance change may move.
fn modelled(tracer: &Tracer) -> Vec<Metric> {
    let ipc = |m: Machine| {
        let s = run_spans(tracer, m);
        sum(&s, "committed") / sum(&s, "cycles")
    };
    let all_runs: Vec<Span> = Machine::FIG6
        .iter()
        .flat_map(|&m| run_spans(tracer, m))
        .collect();
    let spear_runs: Vec<Span> = [Machine::Spear128, Machine::Spear256]
        .iter()
        .flat_map(|&m| run_spans(tracer, m))
        .collect();
    let per_kinst = |key: &str| sum(&all_runs, key) / sum(&all_runs, "committed") * 1e3;
    vec![
        ("mem.l1d_mpki", per_kinst("l1d_misses"), "1/kinst"),
        ("mem.l2_mpki", per_kinst("l2_misses"), "1/kinst"),
        ("bpred.mispredict_pki", per_kinst("mispredicts"), "1/kinst"),
        ("cpu.ipc.baseline", ipc(Machine::Baseline), "inst/cycle"),
        ("cpu.ipc.spear-128", ipc(Machine::Spear128), "inst/cycle"),
        ("cpu.ipc.spear-256", ipc(Machine::Spear256), "inst/cycle"),
        (
            "cpu.spear_speedup",
            ipc(Machine::Spear128) / ipc(Machine::Baseline),
            "ratio",
        ),
        (
            "cpu.fetch_useful_frac",
            sum(&all_runs, "committed") / sum(&all_runs, "fetched"),
            "fraction",
        ),
        (
            "cpu.prefetch_useful_frac",
            sum(&spear_runs, "useful_prefetches") / sum(&spear_runs, "pthread_loads").max(1.0),
            "fraction",
        ),
    ]
}

/// Every per-layer metric of a traced run. `plain` is the untraced half
/// of the run, `traced` the traced half whose spans `tracer` holds.
pub fn metrics(
    workload: &str,
    seed: u64,
    tracer: &Tracer,
    plain: &Outcome,
    traced: &Outcome,
) -> Result<Vec<Metric>, String> {
    let kernels = &traced.kernels;
    let probe_cells = probe(workload, seed, kernels, tracer)?;
    // The region's own cells where it ran any (the campaign's, the served
    // jobs'), else the probe's.
    let cells = if traced.cells.is_empty() {
        &probe_cells
    } else {
        &traced.cells
    };
    let rate = |name: &str, key: &str, scale: f64| {
        let s = tracer.named(name);
        sum(&s, key) / total_ms(&s) / scale
    };
    let kips = |m: Machine| {
        let s = run_spans(tracer, m);
        sum(&s, "committed") / total_ms(&s)
    };
    let all_runs: Vec<Span> = Machine::FIG6
        .iter()
        .flat_map(|&m| run_spans(tracer, m))
        .collect();
    let ms_per_inst = |m: Machine| {
        let s = run_spans(tracer, m);
        total_ms(&s) / sum(&s, "committed")
    };
    let clusters = tracer.first_group("simpoint.cluster");
    let cell_ms: Vec<f64> = cells.iter().map(|c| c.wall_ms as f64).collect();
    let caches = served::CacheCounts::from_spans(tracer);
    let records = tracer.named("trace.record");
    let decodes = tracer.named("trace.decode");
    let ipc_err = if workload == "simpoint-campaign" {
        let refs = crate::reference::load_checked(kernels)?;
        simpoint::ipc_err_pct(cells, &refs)?
    } else {
        probe_ipc_err_pct(tracer, kernels, &probe_cells)
    };
    let mut out = modelled(tracer);
    let waits: Vec<f64> = tracer
        .named("serve.job")
        .iter()
        .map(|s| s.count("queue_wait_ms"))
        .collect();
    out.extend([
        (
            "workloads.build_ms",
            per_setup(tracer, "workloads.build", total_ms),
            "ms",
        ),
        (
            "compiler.compile_ms",
            per_setup(tracer, "compiler.compile", total_ms),
            "ms",
        ),
        (
            "compiler.pthreads",
            per_setup(tracer, "compiler.compile", |s| sum(s, "pthreads")),
            "count",
        ),
        (
            "compiler.slice_insts",
            per_setup(tracer, "compiler.compile", |s| sum(s, "slice_insts")),
            "count",
        ),
        (
            "exec.interp_mips",
            rate("exec.interp", "insts", 1e3),
            "Minst/s",
        ),
        ("exec.bbv_mips", rate("exec.bbv", "insts", 1e3), "Minst/s"),
        ("simpoint.cluster_ms", total_ms(&clusters), "ms"),
        ("simpoint.k", sum(&clusters, "k"), "count"),
        (
            "campaign.warm_mips",
            rate("campaign.warm", "insts", 1e3),
            "Minst/s",
        ),
        (
            "campaign.restore_ms",
            median_ms(&tracer.named("campaign.restore")),
            "ms",
        ),
        (
            "campaign.cell_ms_p50",
            median(&cell_ms).unwrap_or(f64::NAN),
            "ms",
        ),
        (
            "campaign.aggregate_ms",
            median_ms(&tracer.named("campaign.aggregate")),
            "ms",
        ),
        ("campaign.shard_hit_ratio", caches.shard_share(), "fraction"),
        ("campaign.trace_hit_ratio", caches.trace_share(), "fraction"),
        (
            "mem.access_mops",
            rate("mem.replay", "accesses", 1e3),
            "Mop/s",
        ),
        (
            "bpred.update_mops",
            rate("bpred.replay", "branches", 1e3),
            "Mop/s",
        ),
        (
            "trace.record_mips",
            sum(&records, "insts") / total_ms(&records) / 1e3,
            "Minst/s",
        ),
        (
            "trace.decode_mbps",
            sum(&decodes, "bytes") / total_ms(&decodes) / 1e3,
            "MB/s",
        ),
        (
            "trace.bits_per_inst",
            sum(&records, "payload_bytes") * 8.0 / sum(&records, "insts"),
            "bit/inst",
        ),
        ("cpu.kips.baseline", kips(Machine::Baseline), "kinst/s"),
        ("cpu.kips.spear-128", kips(Machine::Spear128), "kinst/s"),
        ("cpu.kips.spear-256", kips(Machine::Spear256), "kinst/s"),
        (
            "cpu.host_ns_per_cycle",
            total_ms(&all_runs) * 1e6 / sum(&all_runs, "cycles"),
            "ns",
        ),
        (
            "cpu.spear_host_ratio",
            ms_per_inst(Machine::Spear128) / ms_per_inst(Machine::Baseline),
            "ratio",
        ),
        (
            "serve.submit_ms",
            median_ms(&tracer.named("serve.submit")),
            "ms",
        ),
        (
            "serve.queue_wait_ms",
            median(&waits).unwrap_or(f64::NAN),
            "ms",
        ),
        (
            "serve.http_rtt_ms",
            median_ms(&tracer.named("serve.healthz")),
            "ms",
        ),
        (
            "serve.fetch_aggregates_ms",
            median_ms(&tracer.named("serve.fetch_aggregates")),
            "ms",
        ),
        ("prepare_s", plain.e2e.prepare_s, "s"),
        ("simulate_s", plain.e2e.simulate_s, "s"),
        ("simpoint_ipc_err_pct", ipc_err, "%"),
    ]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loads, stores and control instructions retired by the golden
    /// interpreter over the same prefix.
    fn retired(program: &Program, limit: u64) -> (u64, u64) {
        let mut interp = Interp::new(program);
        let (mut mem, mut ctrl) = (0, 0);
        while !interp.halted && interp.icount < limit {
            let si = interp.step().expect("kernel executes");
            mem += u64::from(si.inst.op.is_load() || si.inst.op.is_store());
            ctrl += u64::from(si.inst.op.is_ctrl());
        }
        (mem, ctrl)
    }

    #[test]
    fn replays_feed_one_access_per_memory_op_and_one_update_per_branch() {
        for name in ["mcf", "field", "gzip", "fft"] {
            let w = spear_workloads::by_name(name).expect("workload");
            let program = w.eval_program();
            let steps = buffer_steps(&program, 50_000).expect("kernel executes");
            let (mem, ctrl) = retired(&program, 50_000);
            assert_eq!(replay_mem(&steps).0, mem, "{name}: data accesses");
            assert_eq!(replay_bpred(&steps), ctrl, "{name}: branches");
            assert!(mem > 0 && ctrl > 0, "{name}: the prefix exercises both");
        }
    }

    /// `Core::run` counts of a synthetic run: `scale` sets every count.
    fn run_counts(scale: f64) -> Vec<(&'static str, f64)> {
        let keys = [
            "committed",
            "cycles",
            "fetched",
            "l1d_misses",
            "l2_misses",
            "mispredicts",
            "useful_prefetches",
            "pthread_loads",
        ];
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (k, scale * (1000.0 - 90.0 * i as f64)))
            .collect()
    }

    /// A traced run holding `regions` identical regions (the baseline and
    /// SPEAR-128 runs), then a probe (SPEAR-256, and other baseline runs).
    fn traced_run(regions: usize) -> Tracer {
        let tracer = Tracer::new(true);
        for _ in 0..regions {
            tracer.time(0, "bench.region", |region| {
                for (m, scale) in [(Machine::Baseline, 1.0), (Machine::Spear128, 2.0)] {
                    tracer.span(region, detail::run_span(m), |_| ((), run_counts(scale)));
                    tracer.span(region, detail::run_span(m), |_| {
                        ((), run_counts(scale * 3.0))
                    });
                }
            });
        }
        tracer.time(0, "bench.probe", |probe| {
            for (m, scale) in [(Machine::Baseline, 7.0), (Machine::Spear256, 5.0)] {
                tracer.span(probe, detail::run_span(m), |_| ((), run_counts(scale)));
            }
        });
        tracer
    }

    #[test]
    fn modelled_counts_do_not_depend_on_the_number_of_regions() {
        let one = modelled(&traced_run(1));
        assert_eq!(one, modelled(&traced_run(2)));
        assert_eq!(one, modelled(&traced_run(3)));
        let ipc = |name| one.iter().find(|m| m.0 == name).expect("metric").1;
        // The baseline's IPC is the region's (1000 / 910), not a blend
        // with the probe's runs.
        assert_eq!(ipc("cpu.ipc.baseline"), 1000.0 / 910.0);
    }

    #[test]
    fn buffering_stops_at_halt() {
        let w = spear_workloads::by_name("field").expect("workload");
        let program = w.eval_program();
        let steps = buffer_steps(&program, u64::MAX).expect("kernel executes");
        let mut interp = Interp::new(&program);
        interp.run(u64::MAX).expect("kernel executes");
        assert_eq!(steps.len() as u64, interp.icount);
    }
}
