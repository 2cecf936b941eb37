//! `simpoint-campaign`: `Campaign::run_with` with SimPoint clustering
//! (`k` auto, seed = the benchmark seed) over scaled `mcf`, `art` and
//! `field` on the baseline and SPEAR-128, two worker threads, a fresh
//! directory per campaign and no shard cache.

use crate::kernels::{self, EvalInput, Kernel};
use crate::reference::{self, Reference};
use crate::span::{SpanId, Tracer};
use crate::{EndToEnd, Outcome, Timed};
use spear_campaign::{
    capture_checkpoints_at, write_aggregate_envelopes, Campaign, CampaignSpec, CellResult,
    Interval, MachinePoint, ProgressSnapshot, RunOptions, SampleSpec, SimpointSpec,
    CELL_SCHEMA_VERSION,
};
use spear_cpu::{Core, Machine, RunExit};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The engine's ceilings on a functional pass and on one cell.
const MAX_FUNCTIONAL_INSTS: u64 = 1_000_000_000;
const MAX_CELL_CYCLES: u64 = 200_000_000;

/// Evaluation-scale multiplier of every kernel (`name@xSCALE`).
pub const SCALE: u32 = 20;
/// Kernels of the campaign.
pub const KERNELS: [&str; 3] = ["mcf", "art", "field"];
/// Machines of the campaign.
pub const MACHINES: [Machine; 2] = [Machine::Baseline, Machine::Spear128];
/// SimPoint interval length, in instructions.
pub const INTERVAL: u64 = 100_000;
/// Worker threads of the campaign.
pub const THREADS: usize = 2;

pub fn spec_names() -> Vec<String> {
    KERNELS.iter().map(|k| format!("{k}@x{SCALE}")).collect()
}

pub fn points() -> Vec<MachinePoint> {
    MACHINES
        .iter()
        .map(|&m| MachinePoint {
            machine: m.name().to_string(),
            mem_latency: spear_mem::LatencyConfig::paper().memory,
            config: m.config(None),
        })
        .collect()
}

pub fn campaign_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        workloads: spec_names(),
        points: points(),
        frontends: Vec::new(),
        sample: SampleSpec {
            interval_len: INTERVAL,
            stride: 1,
        },
        threads: THREADS,
        max_cells: None,
        window: None,
        simpoint: Some(SimpointSpec { k: 0, seed }),
    }
}

/// One measured campaign.
pub struct CampaignRun {
    pub wall_s: f64,
    pub prepare_s: f64,
    pub simulate_s: f64,
    pub results: Vec<CellResult>,
}

/// Run one campaign in a fresh directory and write its aggregates.
pub fn run_campaign(seed: u64, dir: &std::path::Path) -> Result<CampaignRun, String> {
    let _ = std::fs::remove_dir_all(dir);
    let spec = campaign_spec(seed);
    let envelope = spec.simpoint.map(|s| (s, spec.sample.interval_len));
    let callbacks: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let on_progress = |_: &ProgressSnapshot| {
        let t = t0.elapsed().as_secs_f64();
        callbacks.lock().expect("progress lock").push(t);
    };
    let summary = Campaign::new(dir, spec).run_with(&RunOptions {
        on_progress: Some(&on_progress),
        ..RunOptions::default()
    })?;
    write_aggregate_envelopes(dir, &summary.results, envelope)?;
    let wall_s = t0.elapsed().as_secs_f64();
    if summary.interrupted || summary.results.len() as u64 != summary.total_cells {
        return Err(format!(
            "campaign ran {} of {} cells",
            summary.results.len(),
            summary.total_cells
        ));
    }
    // Callbacks and results land in the same completion order, so the
    // i-th callback closes the i-th cell.
    let cbs = callbacks.into_inner().expect("progress lock");
    let prepare_s = cbs
        .iter()
        .zip(&summary.results)
        .map(|(t, c)| t - c.wall_ms as f64 / 1e3)
        .fold(f64::INFINITY, f64::min)
        .max(0.0);
    let last = cbs.iter().copied().fold(0.0, f64::max);
    let _ = std::fs::remove_dir_all(dir);
    Ok(CampaignRun {
        wall_s,
        prepare_s,
        simulate_s: last - prepare_s,
        results: summary.results,
    })
}

/// The correctness gate of one campaign against the functional totals:
/// every cell holds the core's invariants and simulated exactly its
/// interval (its target, plus at most `commit_width - 1` instructions
/// retired in the same cycle, or up to the halt at the functional
/// total), and each (workload, machine) blend represents every interval
/// of the run exactly once.
pub fn gate(results: &[CellResult], refs: &Reference) -> Result<(), String> {
    let commit_width = MACHINES[0].config(None).commit_width as u64;
    for c in results {
        let at = || format!("{} on {} interval {}", c.workload, c.machine, c.interval);
        c.stats
            .check_invariants(commit_width as usize)
            .map_err(|e| format!("{}: {e}", at()))?;
        let committed = c.stats.committed;
        let exact = match c.exit {
            RunExit::InstBudget => {
                (c.target_insts..c.target_insts + commit_width).contains(&committed)
            }
            RunExit::Halted => committed == refs.total_insts(&c.workload)? - c.start_inst,
            RunExit::CycleBudget => false,
        };
        if !exact {
            return Err(format!(
                "{}: {:?} after {committed} instructions, target {}",
                at(),
                c.exit,
                c.target_insts
            ));
        }
    }
    for a in spear_campaign::aggregate(results) {
        let intervals = refs.total_insts(&a.workload)?.div_ceil(INTERVAL);
        if a.weight != intervals {
            return Err(format!(
                "{} on {}: phase weights sum to {}, the run has {intervals} intervals",
                a.workload, a.machine, a.weight
            ));
        }
    }
    Ok(())
}

/// Largest |blended IPC − full-detail IPC| / full-detail IPC, in %.
pub fn ipc_err_pct(results: &[CellResult], refs: &Reference) -> Result<f64, String> {
    let mut worst: f64 = 0.0;
    for a in spear_campaign::aggregate(results) {
        let full = refs.ipc(&a.workload, &a.machine)?;
        worst = worst.max((a.ipc() - full).abs() / full * 100.0);
    }
    Ok(worst)
}

/// The (workload, interval index, weight) representatives of a run.
pub fn representatives(results: &[CellResult]) -> Vec<(String, u64, u64)> {
    let mut reps: Vec<_> = results
        .iter()
        .filter(|c| c.machine == MACHINES[0].name())
        .map(|c| (c.workload.clone(), c.interval, c.weight))
        .collect();
    reps.sort();
    reps
}

/// `f` over `items` on `threads` workers, results in item order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.min(items.len()).max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                out.lock().expect("worker panicked")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("worker panicked")
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// A kernel's phase representatives, warmed: what the engine's
/// simpoint prepare hands to its cells.
pub struct Prepared<'k> {
    pub kernel: &'k Kernel,
    pub index: usize,
    pub set: spear_campaign::CheckpointSet,
    pub reps: Vec<(Interval, u64)>,
}

/// The engine's simpoint prepare, one public call at a time: BBVs,
/// clustering, then warm checkpoints at the representatives' starts.
pub fn prepare_phases<'k>(
    kernel: &'k Kernel,
    index: usize,
    interval: u64,
    seed: u64,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Prepared<'k>, String> {
    let program = &kernel.spear.program;
    let (bbvs, total) = tracer.span(parent, "exec.bbv", |_| {
        let r = spear_exec::collect_bbvs(program, interval, MAX_FUNCTIONAL_INSTS);
        let n = r.as_ref().map_or(0, |(_, t)| *t);
        (r, vec![("insts", n as f64)])
    })?;
    let matrix: Vec<Vec<(u64, u64)>> = bbvs.iter().map(|b| b.counts.clone()).collect();
    let cfg = spear_simpoint::SimpointConfig {
        k: 0,
        seed,
        ..Default::default()
    };
    let clustering = tracer.span(parent, "simpoint.cluster", |_| {
        let c = spear_simpoint::cluster(&matrix, &cfg);
        let k = c.k as f64;
        (c, vec![("k", k)])
    });
    let mut reps: Vec<(Interval, u64)> = clustering
        .representatives
        .iter()
        .zip(&clustering.counts)
        .map(|(&r, &count)| {
            let b = &bbvs[r];
            let iv = Interval {
                index: b.index,
                start_inst: b.start_inst,
                len: b.len,
            };
            (iv, count)
        })
        .collect();
    reps.sort_by_key(|(iv, _)| iv.start_inst);
    let boundaries: Vec<u64> = reps.iter().map(|(iv, _)| iv.start_inst).collect();
    let bpred = MACHINES[0].config(None).bpred;
    let set = tracer.span(parent, "campaign.warm", |_| {
        let r = capture_checkpoints_at(
            program,
            &kernel.spec,
            spear_mem::HierConfig::paper(),
            bpred,
            &boundaries,
            MAX_FUNCTIONAL_INSTS,
        );
        let n = r.as_ref().map_or(0, |s| s.total_insts);
        (r, vec![("insts", n as f64)])
    })?;
    if set.total_insts != total {
        return Err(format!(
            "{}: BBV pass ran {total} instructions, warming pass {}",
            kernel.spec, set.total_insts
        ));
    }
    Ok(Prepared {
        kernel,
        index,
        set,
        reps,
    })
}

/// One representative cell, as the engine's `run_cell` runs it.
pub fn run_cell(
    p: &Prepared<'_>,
    rep: usize,
    m: Machine,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<CellResult, String> {
    let (interval, weight) = p.reps[rep];
    let cp = p.set.at(interval.start_inst).ok_or_else(|| {
        format!(
            "{}: no checkpoint at {}",
            p.kernel.spec, interval.start_inst
        )
    })?;
    let t0 = Instant::now();
    let cfg = m.config(None);
    let mut core = Core::new(&p.kernel.spear, cfg.clone());
    tracer.time(parent, "campaign.restore", |_| cp.restore_into(&mut core))?;
    let res = tracer
        .span(parent, crate::detail::run_span(m), |_| {
            let r = core.run(MAX_CELL_CYCLES, interval.len);
            let counts = match &r {
                Ok(r) => crate::layers::core_counts(&r.stats, p.index, false),
                Err(_) => Vec::new(),
            };
            (r, counts)
        })
        .map_err(|e| format!("{} on {}: {e}", p.kernel.spec, m.name()))?;
    if res.exit == RunExit::CycleBudget {
        return Err(format!(
            "{} on {}: cycle ceiling hit",
            p.kernel.spec,
            m.name()
        ));
    }
    Ok(CellResult {
        schema_version: CELL_SCHEMA_VERSION,
        workload: p.kernel.spec.clone(),
        machine: m.name().to_string(),
        bpred: cfg.bpred.spec_label(),
        frontend: "program".into(),
        mem_latency: spear_mem::LatencyConfig::paper().memory,
        interval: interval.index,
        start_inst: interval.start_inst,
        target_insts: interval.len,
        weight,
        exit: res.exit,
        wall_ms: t0.elapsed().as_millis() as u64,
        stats: res.stats,
    })
}

/// The whole simpoint campaign, one public call at a time and in the
/// engine's order, over already compiled kernels: prepare every kernel
/// on `THREADS` workers, run every (representative, machine) cell on
/// `THREADS` workers, then aggregate and write the envelopes.
pub fn stepwise(
    kernels: &[Kernel],
    machines: &[Machine],
    interval: u64,
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<(Vec<CellResult>, Vec<u64>), String> {
    let indexed: Vec<(usize, &Kernel)> = kernels.iter().enumerate().collect();
    let prepared = par_map(&indexed, THREADS, |&(i, k)| {
        prepare_phases(k, i, interval, seed, tracer, parent)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let mut cells = Vec::new();
    for p in &prepared {
        for &m in machines {
            for rep in 0..p.reps.len() {
                cells.push((p, m, rep));
            }
        }
    }
    let results = par_map(&cells, THREADS, |&(p, m, rep)| {
        run_cell(p, rep, m, tracer, parent)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let _ = std::fs::remove_dir_all(dir);
    let envelope = (SimpointSpec { k: 0, seed }, interval);
    tracer.time(parent, "campaign.aggregate", |_| {
        spear_campaign::aggregate(&results);
        write_aggregate_envelopes(dir, &results, Some(envelope))
    })?;
    let _ = std::fs::remove_dir_all(dir);
    Ok((
        results,
        prepared.iter().map(|p| p.set.total_insts).collect(),
    ))
}

/// The traced region: the same campaign as [`run_campaign`], one public
/// call at a time (`by_spec`, compile, `collect_bbvs`, `cluster`,
/// `capture_checkpoints_at`, `Checkpoint::restore_into`, `Core::run`).
fn run_stepwise(seed: u64, dir: &Path, tracer: &Tracer) -> Result<(CampaignRun, Vec<u64>), String> {
    tracer.time(0, "bench.region", |region| {
        let t0 = Instant::now();
        let specs = spec_names();
        let kernels = par_map(&specs, THREADS, |spec| {
            kernels::prepare(spec, EvalInput::Scaled(SCALE), tracer, region)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        let (results, totals) = stepwise(&kernels, &MACHINES, INTERVAL, seed, dir, tracer, region)?;
        let run = CampaignRun {
            wall_s: t0.elapsed().as_secs_f64(),
            prepare_s: f64::NAN,
            simulate_s: f64::NAN,
            results,
        };
        Ok((run, totals))
    })
}

/// What the traced and untraced runs of one seed must agree on: each
/// workload's dynamic length and its representatives with their weights.
fn fingerprint(results: &[CellResult], totals: &[(String, u64)]) -> Vec<String> {
    let mut out: Vec<String> = totals
        .iter()
        .map(|(w, t)| format!("{w} total_insts {t}"))
        .collect();
    out.extend(
        representatives(results)
            .into_iter()
            .map(|(w, i, weight)| format!("{w} representative {i} weight {weight}")),
    );
    out
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let specs: Vec<(String, EvalInput)> = spec_names()
        .into_iter()
        .map(|s| (s, EvalInput::Scaled(SCALE)))
        .collect();
    let mut setups = Vec::new();
    let mut kernels = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        let (ks, s) = kernels::prepare_all(&specs, tracer)?;
        setups.push(s);
        kernels = ks;
    }
    let refs = reference::load_checked(&kernels)?;
    let ref_totals: Vec<(String, u64)> = spec_names()
        .into_iter()
        .map(|w| refs.total_insts(&w).map(|t| (w, t)))
        .collect::<Result<_, _>>()?;
    let dir = crate::work_dir().join(format!("simpoint-{}", std::process::id()));
    let mut timed = Timed::default();
    let mut notes = Vec::new();
    let mut first: Option<Vec<String>> = None;
    let mut cells = Vec::new();
    let mut untraced_walls = Vec::new();
    let start = Instant::now();
    while crate::another_region(&timed, start, seconds) {
        if tracer.on() {
            // The traced region once more with tracing off, so the tracing
            // overhead compares one code path with itself.
            timed.attempted += 1;
            let verdict = run_stepwise(seed, &dir, &Tracer::new(false)).and_then(|(run, _)| {
                untraced_walls.push(run.wall_s);
                gate(&run.results, &refs)
            });
            if let Err(e) = verdict {
                eprintln!("simpoint-campaign: {e}");
                timed.failed += 1;
            }
        }
        timed.attempted += 1;
        let attempt = if tracer.on() {
            run_stepwise(seed, &dir, tracer).map(|(run, totals)| {
                let totals = spec_names().into_iter().zip(totals).collect::<Vec<_>>();
                let fp = fingerprint(&run.results, &totals);
                (run, fp)
            })
        } else {
            run_campaign(seed, &dir).map(|run| {
                let fp = fingerprint(&run.results, &ref_totals);
                (run, fp)
            })
        };
        let (run, fp) = match attempt {
            Ok(r) => r,
            Err(e) => {
                eprintln!("simpoint-campaign: {e}");
                timed.failed += 1;
                break;
            }
        };
        let mut verdict = gate(&run.results, &refs);
        if verdict.is_ok() && first.as_ref().is_some_and(|f| *f != fp) {
            verdict = Err("representatives differ between campaigns of one seed".into());
        }
        if let Err(e) = verdict {
            eprintln!("simpoint-campaign: {e}");
            timed.failed += 1;
        }
        if first.is_none() {
            notes.push(format!(
                "simpoint_ipc_err_pct {} over {} representatives",
                ipc_err_pct(&run.results, &refs)?,
                representatives(&run.results).len()
            ));
            first = Some(fp);
        }
        // Weighted as the blend weights them: the simulation speed of the
        // phase mix the campaign stands for, which does not depend on
        // which interval the clustering seed picked for each phase.
        let weighted = |f: fn(&CellResult) -> f64| -> f64 {
            run.results.iter().map(|c| c.weight as f64 * f(c)).sum()
        };
        let committed = weighted(|c| c.stats.committed as f64);
        let cell_s = weighted(|c| c.wall_ms as f64 / 1e3);
        timed.latencies_ms.push(run.wall_s * 1e3);
        notes.push(format!(
            "campaign {}: wall {:.3} s, prepare {:.3} s, simulate {:.3} s",
            timed.attempted, run.wall_s, run.prepare_s, run.simulate_s
        ));
        timed.push_region(
            run.wall_s,
            1.0,
            run.prepare_s,
            run.simulate_s,
            committed / cell_s.max(1e-9) / 1e3,
        );
        cells = run.results;
    }
    Ok(Outcome {
        e2e: EndToEnd::from_timed(&setups, &timed),
        attempted: timed.attempted,
        failed: timed.failed,
        notes,
        kernels,
        cells,
        fingerprint: first.unwrap_or_default(),
        untraced_wall_s: crate::summary::median(&untraced_walls),
    })
}
