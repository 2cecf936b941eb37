//! `served-jobs`: an in-process `spear_serve::Server` on `127.0.0.1:0`
//! with one worker, driven by a closed loop of two clients. Each client
//! submits its share of a seeded job mix and polls its own job until it
//! is `done`; every timed region is one batch against a fresh server, so
//! every batch starts with cold shard and trace caches.

use crate::kernels::{self, EvalInput};
use crate::span::{SpanId, Tracer};
use crate::{EndToEnd, Outcome, Timed};
use spear_campaign::{write_aggregate_envelopes, Campaign, CellResult, RunOptions};
use spear_serve::{client, JobSpec, ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Clients of the closed loop.
pub const CLIENTS: usize = 2;
/// The benchmark's own poll interval (`spear-sim client wait` sleeps
/// 300 ms, which would quantise every latency).
pub const POLL: Duration = Duration::from_millis(5);
/// How long one job may take before the benchmark gives up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// One kind of job: a sampled campaign of one base-scale kernel on the
/// baseline and SPEAR-128.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Template {
    pub workload: &'static str,
    pub bpred: &'static str,
    /// Also replay a recorded trace (`frontends: ["program","trace"]`).
    pub trace: bool,
}

/// Every template of the mix. Each appears twice per batch, so each
/// (workload, bpred, supply) triple misses the shard cache once and hits
/// it once; `field` is traced under two predictors, so its second trace
/// job finds the trace already recorded.
pub const TEMPLATES: [Template; 7] = [
    Template {
        workload: "gzip",
        bpred: "bimodal",
        trace: false,
    },
    Template {
        workload: "mcf",
        bpred: "bimodal",
        trace: false,
    },
    Template {
        workload: "mcf",
        bpred: "tage",
        trace: false,
    },
    Template {
        workload: "art",
        bpred: "bimodal",
        trace: false,
    },
    Template {
        workload: "field",
        bpred: "bimodal",
        trace: true,
    },
    Template {
        workload: "field",
        bpred: "tage",
        trace: true,
    },
    Template {
        workload: "vpr",
        bpred: "tage",
        trace: true,
    },
];
/// Times each template appears in a batch.
pub const REPEATS: usize = 2;

impl Template {
    pub fn spec(&self) -> JobSpec {
        JobSpec {
            workloads: vec![self.workload.to_string()],
            machines: vec!["baseline".into(), "spear-128".into()],
            bpreds: vec![self.bpred.to_string()],
            frontends: if self.trace {
                vec!["program".into(), "trace".into()]
            } else {
                Vec::new()
            },
            interval: 20_000,
            stride: 4,
            ..JobSpec::default()
        }
    }
}

/// SplitMix64: a small, fixed generator so the mix depends on the seed
/// alone.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What each client submits in batch `batch` of a run, in order: every
/// template `REPEATS` times, shuffled by `seed` and `batch` and dealt
/// round-robin to the clients. The order sets which job of a pair waits
/// and which hits the cache, so every batch of a run gets its own order
/// and a run's latencies average over several orders.
pub fn job_mix(seed: u64, batch: u64) -> Vec<Vec<Template>> {
    let mut jobs: Vec<Template> = (0..REPEATS).flat_map(|_| TEMPLATES).collect();
    let mut state = seed ^ batch.wrapping_mul(0xD1B5_4A32_D192_ED03);
    for i in (1..jobs.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        jobs.swap(i, j);
    }
    let mut clients = vec![Vec::new(); CLIENTS];
    for (i, t) in jobs.into_iter().enumerate() {
        clients[i % CLIENTS].push(t);
    }
    clients
}

/// A job's expected aggregates, by file name: an in-process
/// `Campaign::run_with` + `write_aggregate_envelopes` of the same
/// resolved spec.
fn reference(t: &Template, dir: &Path) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let resolved = t.spec().resolve(1)?;
    let envelope = resolved.simpoint.map(|s| (s, resolved.sample.interval_len));
    let summary = Campaign::new(dir, resolved).run_with(&RunOptions::default())?;
    let files = write_aggregate_envelopes(dir, &summary.results, envelope)?;
    let mut out = BTreeMap::new();
    for f in files {
        let bytes = std::fs::read(&f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let name = f.file_name().map(|n| n.to_string_lossy().into_owned());
        out.insert(name.unwrap_or_default(), bytes);
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

fn field_str(v: &serde::Value, name: &str) -> Option<String> {
    match v.field(name).ok()? {
        serde::Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn field_num(v: &serde::Value, name: &str) -> Option<f64> {
    match v.field(name).ok()? {
        serde::Value::U64(n) => Some(*n as f64),
        serde::Value::I64(n) => Some(*n as f64),
        serde::Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// What one served job measured.
#[derive(Clone, Debug, Default)]
pub struct JobRun {
    /// From sending `POST /jobs` to seeing the job `done`.
    pub latency_ms: f64,
    /// From sending `POST /jobs` to seeing the job `running`.
    pub queue_wait_ms: f64,
    /// Campaign time at its last cell, from the job's progress.
    pub campaign_ms: f64,
    pub cells: Vec<CellResult>,
}

fn get(addr: &str, path: &str) -> Result<serde::Value, String> {
    let (status, body) = client::request(addr, "GET", path, None)?;
    if status != 200 {
        return Err(format!("GET {path}: HTTP {status}: {body}"));
    }
    serde::json::parse(&body).map_err(|e| format!("GET {path}: bad JSON: {e:?}"))
}

/// Submit one job and poll it until it is `done`, then check its
/// aggregates against the in-process reference.
fn drive_job(
    addr: &str,
    root: &Path,
    t: &Template,
    expect: &BTreeMap<String, Vec<u8>>,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<JobRun, String> {
    let body = serde::json::to_string(&t.spec());
    let mut run = JobRun::default();
    let t0 = Instant::now();
    let (status, reply) = tracer.time(parent, "serve.submit", |_| {
        client::request(addr, "POST", "/jobs", Some(&body))
    })?;
    if status != 201 {
        return Err(format!("POST /jobs: HTTP {status}: {reply}"));
    }
    let id = serde::json::parse(&reply)
        .ok()
        .and_then(|v| field_str(&v, "id"))
        .ok_or_else(|| format!("POST /jobs: no id in {reply}"))?;
    let path = format!("/jobs/{id}");
    let mut running_seen = false;
    let doc = loop {
        if t0.elapsed() > JOB_TIMEOUT {
            return Err(format!("{id}: not done after {JOB_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL);
        let doc = tracer.time(parent, "serve.poll", |_| get(addr, &path))?;
        match field_str(&doc, "state").as_deref() {
            Some("done") => break doc,
            Some("queued") => {}
            Some("running") => {
                if !running_seen {
                    running_seen = true;
                    run.queue_wait_ms = t0.elapsed().as_secs_f64() * 1e3;
                }
                tracer.time(parent, "serve.healthz", |_| get(addr, "/healthz"))?;
            }
            other => return Err(format!("{id}: state {other:?}: {doc:?}")),
        }
    };
    run.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    if !running_seen {
        // Started and finished between two polls.
        run.queue_wait_ms = run.latency_ms;
    }
    run.campaign_ms = doc
        .field("progress")
        .ok()
        .and_then(|p| field_num(p, "elapsed_ms"))
        .unwrap_or(0.0);
    let (status, aggs) = tracer.time(parent, "serve.fetch_aggregates", |_| {
        client::request(addr, "GET", &format!("/jobs/{id}/aggregates"), None)
    })?;
    if status != 200 {
        return Err(format!("{id}: aggregates HTTP {status}"));
    }
    // The served files must be byte-identical to the reference, on disk
    // and as spliced into the response.
    let cdir = spear_serve::jobs::campaign_dir(root, &id);
    for (name, bytes) in expect {
        let got = std::fs::read(cdir.join("aggregates").join(name))
            .map_err(|e| format!("{id}: aggregate {name}: {e}"))?;
        if got != *bytes {
            return Err(format!(
                "{id}: aggregate {name} differs from the in-process run"
            ));
        }
        let text = String::from_utf8_lossy(bytes);
        if !aggs.contains(text.trim_end()) {
            return Err(format!("{id}: GET aggregates lacks the bytes of {name}"));
        }
    }
    let cells = std::fs::read_to_string(cdir.join("cells.jsonl"))
        .map_err(|e| format!("{id}: cells.jsonl: {e}"))?;
    for line in cells.lines().filter(|l| !l.trim().is_empty()) {
        run.cells.push(
            serde::json::from_str::<CellResult>(line)
                .map_err(|e| format!("{id}: bad cell record: {e:?}"))?,
        );
    }
    Ok(run)
}

/// Cache counters read from `/metrics`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounts {
    pub shard_hits: f64,
    pub shard_misses: f64,
    pub trace_hits: f64,
    pub trace_misses: f64,
}

impl CacheCounts {
    /// The counters summed over a traced run's `serve.metrics` spans.
    pub fn from_spans(tracer: &Tracer) -> CacheCounts {
        let total = |key| tracer.total_count("serve.metrics", key);
        CacheCounts {
            shard_hits: total("shard_hits"),
            shard_misses: total("shard_misses"),
            trace_hits: total("trace_hits"),
            trace_misses: total("trace_misses"),
        }
    }

    pub fn shard_share(&self) -> f64 {
        self.shard_hits / (self.shard_hits + self.shard_misses).max(1.0)
    }
    pub fn trace_share(&self) -> f64 {
        self.trace_hits / (self.trace_hits + self.trace_misses).max(1.0)
    }
}

fn cache_counts(addr: &str) -> Result<CacheCounts, String> {
    let (status, text) = client::request(addr, "GET", "/metrics", None)?;
    if status != 200 {
        return Err(format!("GET /metrics: HTTP {status}"));
    }
    let gauge = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or(0.0)
    };
    Ok(CacheCounts {
        shard_hits: gauge("spear_serve_shard_cache_hits"),
        shard_misses: gauge("spear_serve_shard_cache_misses"),
        trace_hits: gauge("spear_serve_trace_cache_hits"),
        trace_misses: gauge("spear_serve_trace_cache_misses"),
    })
}

/// One timed batch: both clients' jobs against a server bound in set-up.
pub struct Batch {
    pub wall_s: f64,
    pub jobs: Vec<JobRun>,
    pub failed: u64,
    pub caches: CacheCounts,
}

fn run_batch(
    addr: &str,
    root: &Path,
    mix: &[Vec<Template>],
    refs: &BTreeMap<Template, BTreeMap<String, Vec<u8>>>,
    tracer: &Tracer,
) -> Result<Batch, String> {
    let t0 = Instant::now();
    let per_client: Vec<Vec<Result<JobRun, String>>> = tracer.time(0, "bench.region", |region| {
        std::thread::scope(|s| {
            let handles: Vec<_> = mix
                .iter()
                .map(|jobs| {
                    s.spawn(move || {
                        jobs.iter()
                            .map(|t| {
                                tracer.span(region, "serve.job", |job| {
                                    let r = drive_job(addr, root, t, &refs[t], tracer, job);
                                    let wait = r.as_ref().map_or(0.0, |j| j.queue_wait_ms);
                                    (r, vec![("queue_wait_ms", wait)])
                                })
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    let mut failed = 0;
    for r in per_client.into_iter().flatten() {
        match r {
            Ok(j) => jobs.push(j),
            Err(e) => {
                eprintln!("served-jobs: {e}");
                failed += 1;
            }
        }
    }
    let caches = tracer.span(0, "serve.metrics", |_| {
        let c = cache_counts(addr);
        let counts = match &c {
            Ok(c) => vec![
                ("shard_hits", c.shard_hits),
                ("shard_misses", c.shard_misses),
                ("trace_hits", c.trace_hits),
                ("trace_misses", c.trace_misses),
            ],
            Err(_) => Vec::new(),
        };
        (c, counts)
    })?;
    Ok(Batch {
        wall_s,
        jobs,
        failed,
        caches,
    })
}

/// A bound server running on its own thread.
struct Running {
    addr: String,
    root: PathBuf,
    thread: std::thread::JoinHandle<Result<(), String>>,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        client::request(&self.addr, "POST", "/shutdown", None)?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())??;
        let _ = std::fs::remove_dir_all(&self.root);
        Ok(())
    }
}

/// Set-up of one batch: build and compile the mix's kernels (the work a
/// cache miss repeats inside the server) and bind a fresh server.
fn setup(root: PathBuf, tracer: &Tracer) -> Result<(Running, Vec<kernels::Kernel>, f64), String> {
    let t0 = Instant::now();
    let mut names: Vec<&str> = TEMPLATES.iter().map(|t| t.workload).collect();
    names.sort_unstable();
    names.dedup();
    let specs: Vec<(String, EvalInput)> = names
        .iter()
        .map(|n| (n.to_string(), EvalInput::Scaled(1)))
        .collect();
    let (kernels, _) = kernels::prepare_all(&specs, tracer)?;
    let _ = std::fs::remove_dir_all(&root);
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::new(&root)
    };
    let server = tracer.time(0, "serve.bind", |_| Server::bind(&cfg))?;
    let addr = server.local_addr().to_string();
    let secs = t0.elapsed().as_secs_f64();
    let thread = std::thread::spawn(move || server.run());
    Ok((Running { addr, root, thread }, kernels, secs))
}

/// The in-process reference aggregates of every template.
fn references(base: &Path) -> Result<BTreeMap<Template, BTreeMap<String, Vec<u8>>>, String> {
    let mut refs = BTreeMap::new();
    for t in TEMPLATES {
        refs.insert(t, reference(&t, &base.join("reference"))?);
    }
    Ok(refs)
}

/// One batch of the mix against a fresh server, for the per-layer
/// `serve` and cache metrics of a workload that serves no jobs itself.
pub fn probe(workload: &str, seed: u64, tracer: &Tracer) -> Result<(), String> {
    let base = crate::work_dir().join(format!("probe-served-{workload}-{}", std::process::id()));
    let refs = references(&base)?;
    let (server, _, _) = setup(base.join("b0"), tracer)?;
    let batch = run_batch(&server.addr, &server.root, &job_mix(seed, 0), &refs, tracer);
    server.stop()?;
    let _ = std::fs::remove_dir_all(&base);
    match batch?.failed {
        0 => Ok(()),
        n => Err(format!("{n} probe jobs failed")),
    }
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let base = crate::work_dir().join(format!("served-{}", std::process::id()));
    let refs = references(&base)?;
    let mut timed = Timed::default();
    let mut setups = Vec::new();
    let mut notes = Vec::new();
    let mut kernels = Vec::new();
    let mut caches = CacheCounts::default();
    let mut cells = Vec::new();
    let start = Instant::now();
    while crate::another_region(&timed, start, seconds) {
        let mix = job_mix(seed, setups.len() as u64);
        let (server, ks, setup_s) = setup(base.join(format!("b{}", setups.len())), tracer)?;
        setups.push(setup_s);
        kernels = ks;
        let batch = run_batch(&server.addr, &server.root, &mix, &refs, tracer);
        server.stop()?;
        let batch = batch?;
        timed.attempted += (batch.jobs.len() as u64) + batch.failed;
        timed.failed += batch.failed;
        let mut committed = 0u64;
        let (mut cell_ms, mut campaign_ms) = (0.0, 0.0);
        for j in &batch.jobs {
            timed.latencies_ms.push(j.latency_ms);
            committed += j.cells.iter().map(|c| c.stats.committed).sum::<u64>();
            let ms: f64 = j.cells.iter().map(|c| c.wall_ms as f64).sum();
            cell_ms += ms;
            campaign_ms += j.campaign_ms;
        }
        caches.shard_hits += batch.caches.shard_hits;
        caches.shard_misses += batch.caches.shard_misses;
        caches.trace_hits += batch.caches.trace_hits;
        caches.trace_misses += batch.caches.trace_misses;
        timed.push_region(
            batch.wall_s,
            batch.jobs.len() as f64,
            ((campaign_ms - cell_ms) / 1e3).max(0.0),
            cell_ms / 1e3,
            committed as f64 / cell_ms.max(1e-9),
        );
        let r = timed.regions.last().expect("region just pushed");
        notes.push(format!(
            "batch {}: wall {:.3} s, peak RSS {:.1} MiB",
            timed.regions.len(),
            r.wall_s,
            r.peak_rss_mb
        ));
        cells = batch.jobs.into_iter().flat_map(|j| j.cells).collect();
        if batch.failed > 0 {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    notes.push(format!(
        "shard-cache hit share {:.4} ({} hits, {} misses); trace-cache hit share {:.4} ({} hits, {} misses)",
        caches.shard_share(),
        caches.shard_hits,
        caches.shard_misses,
        caches.trace_share(),
        caches.trace_hits,
        caches.trace_misses
    ));
    Ok(Outcome {
        e2e: EndToEnd::from_timed(&setups, &timed),
        attempted: timed.attempted,
        failed: timed.failed,
        notes,
        kernels,
        cells,
        fingerprint: Vec::new(),
        untraced_wall_s: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_job_mix_is_a_function_of_the_seed() {
        assert_eq!(job_mix(7, 3), job_mix(7, 3));
        assert_ne!(
            job_mix(7, 0),
            job_mix(8, 0),
            "another seed reorders the mix"
        );
        assert_ne!(
            job_mix(7, 0),
            job_mix(7, 1),
            "another batch reorders the mix"
        );
    }

    #[test]
    fn every_seed_submits_the_same_multiset_of_jobs() {
        let sorted = |seed| {
            let mut all: Vec<Template> = job_mix(seed, seed % 5).into_iter().flatten().collect();
            all.sort();
            all
        };
        let first = sorted(1);
        assert_eq!(first.len(), TEMPLATES.len() * REPEATS);
        for seed in [2, 3, 1000, u64::MAX] {
            assert_eq!(sorted(seed), first, "seed {seed}");
        }
    }

    #[test]
    fn clients_get_equal_shares() {
        for seed in 0..20 {
            let mix = job_mix(seed, 0);
            assert_eq!(mix.len(), CLIENTS);
            assert!(mix
                .iter()
                .all(|c| c.len() == TEMPLATES.len() * REPEATS / CLIENTS));
        }
    }

    #[test]
    fn every_template_resolves_to_a_sampled_campaign() {
        for t in TEMPLATES {
            let spec = t.spec().resolve(1).expect("valid spec");
            assert!(spec.sample.stride > 1);
            assert!(spec.simpoint.is_none());
        }
    }
}
