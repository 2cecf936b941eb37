//! The SPEAR simulator benchmark.
//!
//! ```text
//! simbench --workload <detail|simpoint-campaign|served-jobs> --seed N --seconds S --trace <0|1>
//! simbench --regen-reference
//! ```
//!
//! Builds its inputs from `--seed`, sets up (timed separately, several
//! times), then repeats the workload's timed region until `--seconds`
//! have passed, checks every operation against a golden result, and
//! prints one JSON object as the last line of standard output. With
//! `--trace 0` it carries the end-to-end metrics; with `--trace 1` the
//! per-layer metrics, taken from spans recorded around the calls into
//! each crate (see `LAYERS.md`).

mod detail;
mod kernels;
mod layers;
mod reference;
mod served;
mod simpoint;
mod span;
mod summary;

use span::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use summary::{median, Tail};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Samples a tail percentile must leave beyond it. A run with too few
/// samples for that percentile to reach the median reports its maximum
/// (percentile 100) instead.
pub const TAIL_BEYOND: usize = 10;

/// Where runs keep their scratch files, relative to the working
/// directory (the root of the checkout).
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// Whether to start another timed region: always the first; after that
/// only if a typical region still ends within `seconds` of `start`.
/// Starting one restarts the peak-RSS count, so each region's peak is
/// its own.
pub fn another_region(t: &Timed, start: Instant, seconds: f64) -> bool {
    let walls: Vec<f64> = t.regions.iter().map(|r| r.wall_s).collect();
    let another = match median(&walls) {
        None => t.attempted == 0,
        Some(typical) => start.elapsed().as_secs_f64() + typical <= seconds,
    };
    if another {
        summary::reset_peak_rss();
    }
    another
}

/// One repetition of a workload's timed region.
#[derive(Clone, Copy, Debug)]
pub struct Region {
    pub wall_s: f64,
    pub ops: f64,
    pub prepare_s: f64,
    pub simulate_s: f64,
    pub sim_kips: f64,
    pub peak_rss_mb: f64,
}

/// Everything measured over a run's timed regions.
#[derive(Default)]
pub struct Timed {
    pub regions: Vec<Region>,
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    pub fn push_region(
        &mut self,
        wall_s: f64,
        ops: f64,
        prepare_s: f64,
        simulate_s: f64,
        sim_kips: f64,
    ) {
        self.regions.push(Region {
            wall_s,
            ops,
            prepare_s,
            simulate_s,
            sim_kips,
            peak_rss_mb: summary::peak_rss_mib().unwrap_or(f64::NAN),
        });
    }
}

/// The end-to-end metrics of one run.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub wall_s: f64,
    pub sim_kips: f64,
    pub prepare_s: f64,
    pub simulate_s: f64,
    pub job_latency_p50_ms: f64,
    pub job_latency_tail: Option<Tail>,
    pub jobs_per_s: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn from_timed(setups: &[f64], t: &Timed) -> EndToEnd {
        let med = |f: fn(&Region) -> f64| {
            median(&t.regions.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        EndToEnd {
            setup_s: median(setups).unwrap_or(f64::NAN),
            wall_s: med(|r| r.wall_s),
            sim_kips: med(|r| r.sim_kips),
            prepare_s: med(|r| r.prepare_s),
            simulate_s: med(|r| r.simulate_s),
            job_latency_p50_ms: median(&t.latencies_ms).unwrap_or(f64::NAN),
            job_latency_tail: summary::tail_or_max(&t.latencies_ms, TAIL_BEYOND),
            jobs_per_s: med(|r| r.ops / r.wall_s),
            // The first region's: on served-jobs the peak climbs from
            // batch to batch within one process, so a median would depend
            // on how many regions fitted in the run.
            peak_rss_mb: t.regions.first().map_or(f64::NAN, |r| r.peak_rss_mb),
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let tail = self.job_latency_tail.map_or(f64::NAN, |t| t.value);
        vec![
            ("setup_s", self.setup_s, "s"),
            ("wall_s", self.wall_s, "s"),
            ("sim_kips", self.sim_kips, "kinst/s"),
            ("job_latency_p50_ms", self.job_latency_p50_ms, "ms"),
            ("job_latency_tail_ms", tail, "ms"),
            ("jobs_per_s", self.jobs_per_s, "1/s"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// A named value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload run hands back.
pub struct Outcome {
    pub e2e: EndToEnd,
    pub attempted: u64,
    pub failed: u64,
    /// Lines printed before the result (context, not metrics).
    pub notes: Vec<String>,
    /// The kernels the run set up, for the per-layer probes.
    pub kernels: Vec<kernels::Kernel>,
    /// Cells of the last timed region (`simpoint-campaign`,
    /// `served-jobs`).
    pub cells: Vec<spear_campaign::CellResult>,
    /// What traced and untraced runs of one seed must agree on.
    pub fingerprint: Vec<String>,
    /// Median wall time of the traced run's own region run untraced, where
    /// the untraced run's region takes another code path
    /// (`simpoint-campaign`).
    pub untraced_wall_s: Option<f64>,
}

const WORKLOADS: [&str; 3] = ["detail", "simpoint-campaign", "served-jobs"];

fn run_workload(name: &str, seed: u64, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    match name {
        "detail" => detail::run(seed, seconds, tracer),
        "simpoint-campaign" => simpoint::run(seed, seconds, tracer),
        "served-jobs" => served::run(seed, seconds, tracer),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--regen-reference" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    }))
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            return match reference::regenerate() {
                Ok(path) => {
                    println!("wrote {}", path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("simbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<String, String> {
    println!("workload {} seed {}", args.workload, args.seed);
    let (metrics, attempted, failed) = if args.trace {
        // Untraced then traced over the same region: the difference in
        // wall_s is the tracing overhead.
        let half = args.seconds / 2.0;
        let plain = run_workload(&args.workload, args.seed, half, &Tracer::new(false))?;
        let tracer = Tracer::new(true);
        let traced = run_workload(&args.workload, args.seed, half, &tracer)?;
        let mut failed = plain.failed + traced.failed;
        if plain.fingerprint != traced.fingerprint {
            eprintln!(
                "traced run disagrees with the untraced run:\n  untraced {:?}\n  traced   {:?}",
                plain.fingerprint, traced.fingerprint
            );
            failed += 1;
        }
        let mut metrics = layers::metrics(&args.workload, args.seed, &tracer, &plain, &traced)?;
        let untraced_wall_s = traced.untraced_wall_s.unwrap_or(plain.e2e.wall_s);
        metrics.push((
            "bench.tracing_overhead_frac",
            traced.e2e.wall_s / untraced_wall_s - 1.0,
            "fraction",
        ));
        let spans = work_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        println!("spans written to {}", spans.display());
        for n in plain.notes.iter().chain(&traced.notes) {
            println!("{n}");
        }
        (metrics, plain.attempted + traced.attempted, failed)
    } else {
        let out = run_workload(&args.workload, args.seed, args.seconds, &Tracer::new(false))?;
        for n in &out.notes {
            println!("{n}");
        }
        if let Some(t) = out.e2e.job_latency_tail {
            println!(
                "job_latency_tail_ms is p{:.1} over {} samples",
                t.percentile, t.samples
            );
        }
        if out.e2e.prepare_s.is_finite() {
            println!(
                "prepare_s {} simulate_s {} (medians over timed regions)",
                out.e2e.prepare_s, out.e2e.simulate_s
            );
        }
        println!(
            "error_rate {} ({} failed of {} attempted)",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        );
        (out.e2e.metrics(), out.attempted, out.failed)
    };
    for (name, value, unit) in &metrics {
        println!("{name:>34} {value:>16.4} {unit}");
        if !value.is_finite() {
            return Err(format!("metric {name} was not measured ({value})"));
        }
    }
    Ok(json_line(failed == 0, attempted, failed, &metrics))
}
