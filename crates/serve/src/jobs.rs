//! Job specs, job state, and the crash-safe on-disk job store.
//!
//! Every job lives in `root/jobs/<id>/`:
//!
//! ```text
//! jobs/job-0003/
//!   spec.json        # the submitted JobSpec (written before enqueue)
//!   campaign/        # a normal spear-campaign directory (cells.jsonl,
//!                    # manifest.json, progress.json, aggregates/)
//!   done.json        # terminal marker: finished, aggregates written
//!   error.json       # terminal marker: failed, with the error
//!   cancelled.json   # terminal marker: cancelled by the operator
//! ```
//!
//! State is *derived from the filesystem*, never from memory alone: a
//! job with no terminal marker is unfinished, whatever the process
//! thought before it died. That is the whole crash-safety story — a
//! restarted server rescans `jobs/`, re-enqueues everything unfinished,
//! and the campaign engine's own cells.jsonl resume logic guarantees a
//! `kill -9` costs at most the cells that were in flight.

use serde::{Deserialize, Serialize};
use spear_campaign::{CampaignSpec, MachinePoint, SampleSpec, SimpointSpec};
use spear_cpu::machine::Machine;
use spear_mem::LatencyConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A sweep request, as submitted to `POST /jobs`. Mirrors the
/// `spear-sim campaign` flags one-to-one so a spec and a CLI invocation
/// describe the same grid.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Workload names (`"all"` expands to the full benchmark set).
    pub workloads: Vec<String>,
    /// Machine model names (CLI spellings, e.g. `spear-128`).
    pub machines: Vec<String>,
    /// Branch-predictor specs (`--bpreds`), each a `--bpred` spelling
    /// like `bimodal`, `gshare` or `tage:tables=6,...`. Empty means the
    /// paper default (`bimodal`). The grid is machines × bpreds.
    pub bpreds: Vec<String>,
    /// Instruction-supply front ends (`--frontends`): `program` and/or
    /// `trace`. Empty means the historical program-driven grid. `trace`
    /// cells replay a committed path recorded once per workload and
    /// shared through the server's trace cache.
    pub frontends: Vec<String>,
    /// Main-memory latency override in cycles (`--mem-latency`).
    pub mem_latency: Option<u32>,
    /// Interval length in instructions (`--interval`).
    pub interval: u64,
    /// Simulate every `stride`-th interval (`--stride`).
    pub stride: u64,
    /// Windowed-telemetry length in cycles; `0` means the default
    /// window (`--window`).
    pub window: Option<u64>,
    /// Stop after this many cells per server run (`--max-cells`; the
    /// job resumes on the next server start).
    pub max_cells: Option<u64>,
    /// Run each workload as a SimPoint phase-clustered campaign
    /// (`--simpoint`): simulate one weighted representative interval
    /// per phase instead of every interval.
    pub simpoint: bool,
    /// Fixed phase count (`--simpoint-k`); providing it implies
    /// `simpoint`, and `0`/absent means BIC auto-selection.
    pub simpoint_k: Option<u64>,
    /// Clustering seed (`--simpoint-seed`); providing it implies
    /// `simpoint`. Absent means the default seed.
    pub simpoint_seed: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            workloads: Vec::new(),
            machines: Vec::new(),
            bpreds: Vec::new(),
            frontends: Vec::new(),
            mem_latency: None,
            interval: 100_000,
            stride: 1,
            window: None,
            max_cells: None,
            simpoint: false,
            simpoint_k: None,
            simpoint_seed: None,
        }
    }
}

// Hand-written (de)serialization so optional fields may simply be
// omitted from the submitted JSON — the derive requires every key.
impl Serialize for JobSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("workloads".into(), self.workloads.to_value()),
            ("machines".into(), self.machines.to_value()),
            ("bpreds".into(), self.bpreds.to_value()),
            ("frontends".into(), self.frontends.to_value()),
            ("mem_latency".into(), self.mem_latency.to_value()),
            ("interval".into(), self.interval.to_value()),
            ("stride".into(), self.stride.to_value()),
            ("window".into(), self.window.to_value()),
            ("max_cells".into(), self.max_cells.to_value()),
            ("simpoint".into(), self.simpoint.to_value()),
            ("simpoint_k".into(), self.simpoint_k.to_value()),
            ("simpoint_seed".into(), self.simpoint_seed.to_value()),
        ])
    }
}

impl Deserialize for JobSpec {
    fn from_value(v: &serde::Value) -> Result<JobSpec, serde::Error> {
        let d = JobSpec::default();
        fn opt<T: Deserialize>(
            v: &serde::Value,
            name: &str,
            default: T,
        ) -> Result<T, serde::Error> {
            match v.field(name) {
                Ok(field) => T::from_value(field),
                Err(_) => Ok(default),
            }
        }
        Ok(JobSpec {
            workloads: Vec::<String>::from_value(v.field("workloads")?)?,
            machines: Vec::<String>::from_value(v.field("machines")?)?,
            bpreds: opt(v, "bpreds", d.bpreds)?,
            frontends: opt(v, "frontends", d.frontends)?,
            mem_latency: opt(v, "mem_latency", d.mem_latency)?,
            interval: opt(v, "interval", d.interval)?,
            stride: opt(v, "stride", d.stride)?,
            window: opt(v, "window", d.window)?,
            max_cells: opt(v, "max_cells", d.max_cells)?,
            simpoint: opt(v, "simpoint", d.simpoint)?,
            simpoint_k: opt(v, "simpoint_k", d.simpoint_k)?,
            simpoint_seed: opt(v, "simpoint_seed", d.simpoint_seed)?,
        })
    }
}

impl JobSpec {
    /// Resolve the wire spec into a runnable [`CampaignSpec`]: `all`
    /// expansion, machine and predictor names, the machines × predictors
    /// grid at the requested (or the paper's) latency, and `window: 0` →
    /// the default window. The result is checked by
    /// [`CampaignSpec::validate`], so a spec that resolves is one the
    /// engine runs. `spear-sim campaign` resolves its flags through here
    /// too, so the CLI and the server accept exactly the same grids.
    pub fn resolve(&self, workers: usize) -> Result<CampaignSpec, String> {
        let workloads = if self.workloads.iter().any(|w| w == "all") {
            spear_workloads::all()
                .iter()
                .map(|w| w.name.to_string())
                .collect()
        } else {
            self.workloads.clone()
        };
        let mut machines = Vec::with_capacity(self.machines.len());
        for name in &self.machines {
            machines.push(
                Machine::from_cli_name(name).ok_or_else(|| format!("unknown machine `{name}`"))?,
            );
        }
        // `simpoint_k` / `simpoint_seed` imply simpoint, exactly like the
        // CLI's `--simpoint-k` / `--simpoint-seed` flags.
        let simpoint = (self.simpoint || self.simpoint_k.is_some() || self.simpoint_seed.is_some())
            .then(|| SimpointSpec {
                k: self.simpoint_k.unwrap_or(0),
                seed: self.simpoint_seed.unwrap_or(SimpointSpec::default().seed),
            });
        let mut bpreds = Vec::new();
        let default_bpreds = ["bimodal".to_string()];
        for spec in if self.bpreds.is_empty() {
            &default_bpreds[..]
        } else {
            &self.bpreds[..]
        } {
            bpreds.push(
                spear_bpred::PredictorConfig::paper()
                    .with_spec(spec)
                    .map_err(|e| format!("bad predictor spec `{spec}`: {e}"))?,
            );
        }
        let latency = self.mem_latency.map(LatencyConfig::sweep_point);
        let mem_latency = latency.unwrap_or_else(LatencyConfig::paper).memory;
        let mut points = Vec::with_capacity(machines.len() * bpreds.len());
        for &m in &machines {
            for &bp in &bpreds {
                let mut config = m.config(latency);
                config.bpred = bp;
                points.push(MachinePoint {
                    machine: m.name().to_string(),
                    mem_latency,
                    config,
                });
            }
        }
        let spec = CampaignSpec {
            workloads,
            points,
            frontends: self.frontends.clone(),
            sample: SampleSpec {
                interval_len: self.interval,
                stride: self.stride,
            },
            threads: workers,
            max_cells: self.max_cells,
            window: self.window.map(|n| {
                if n == 0 {
                    spear_cpu::DEFAULT_WINDOW_CYCLES
                } else {
                    n
                }
            }),
            simpoint,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Where a job is in its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue (also: unfinished after a restart).
    Queued,
    /// The runner is executing its campaign right now.
    Running,
    /// Finished; aggregates are on disk.
    Done,
    /// The campaign failed; `error.json` has the message.
    Failed,
    /// Cancelled by the operator; completed cells remain on disk.
    Cancelled,
}

impl JobState {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// No further work will happen on this job.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// The last progress callback of a running job, kept for `GET /jobs/<id>`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProgressLite {
    /// Cells finished (including previously completed ones).
    pub done: u64,
    /// Total cells in the campaign.
    pub total: u64,
    /// Cells executed by the current invocation.
    pub executed: u64,
    /// Wall-clock ms since the current invocation started.
    pub elapsed_ms: u64,
    /// Estimated remaining ms (None until the first cell finishes).
    pub eta_ms: Option<u64>,
}

/// A registry entry: everything the control plane knows about one job.
pub struct Job {
    /// Job id (`job-NNNN`).
    pub id: String,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current state (kept in sync with the disk markers).
    pub state: JobState,
    /// Failure message, for `state == Failed`.
    pub error: Option<String>,
    /// Cooperative cancellation flag handed to the campaign engine.
    pub cancel: Arc<AtomicBool>,
    /// True once the operator asked for cancellation — distinguishes a
    /// user cancel from a shutdown drain, which also sets `cancel` but
    /// must leave the job resumable.
    pub cancel_requested: bool,
    /// Latest progress snapshot while running.
    pub progress: Option<ProgressLite>,
}

impl Job {
    /// A fresh registry entry in `state`.
    pub fn new(id: String, spec: JobSpec, state: JobState) -> Job {
        Job {
            id,
            spec,
            state,
            error: None,
            cancel: Arc::new(AtomicBool::new(false)),
            cancel_requested: false,
            progress: None,
        }
    }
}

/// `root/jobs/<id>`.
pub fn job_dir(root: &Path, id: &str) -> PathBuf {
    root.join("jobs").join(id)
}

/// The job's campaign directory, `root/jobs/<id>/campaign`.
pub fn campaign_dir(root: &Path, id: &str) -> PathBuf {
    job_dir(root, id).join("campaign")
}

/// Persist a terminal marker file (`done.json` / `error.json` /
/// `cancelled.json`). Markers are tiny and written atomically via
/// temp-file + rename so a crash never leaves a torn marker.
pub fn write_marker(root: &Path, id: &str, name: &str, contents: &str) -> Result<(), String> {
    let dir = job_dir(root, id);
    let tmp = dir.join(format!("{name}.tmp"));
    let fin = dir.join(name);
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &fin)
        .map_err(|e| format!("cannot rename {} -> {}: {e}", tmp.display(), fin.display()))
}

/// Read a job's state from its markers alone.
pub fn state_on_disk(root: &Path, id: &str) -> JobState {
    let dir = job_dir(root, id);
    if dir.join("done.json").exists() {
        JobState::Done
    } else if dir.join("error.json").exists() {
        JobState::Failed
    } else if dir.join("cancelled.json").exists() {
        JobState::Cancelled
    } else {
        JobState::Queued
    }
}

/// Scan `root/jobs/` and rebuild the registry: every job directory with
/// a parseable `spec.json`, sorted by id so re-enqueue order matches
/// submission order. Unfinished jobs (no terminal marker) come back as
/// [`JobState::Queued`] — including ones that were mid-run when the
/// previous server process died.
pub fn scan_jobs(root: &Path) -> Result<Vec<Job>, String> {
    let jobs_root = root.join("jobs");
    if !jobs_root.exists() {
        return Ok(Vec::new());
    }
    let mut ids = Vec::new();
    let entries = std::fs::read_dir(&jobs_root)
        .map_err(|e| format!("cannot read {}: {e}", jobs_root.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", jobs_root.display()))?;
        if entry.path().is_dir() {
            ids.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    ids.sort();
    let mut jobs = Vec::with_capacity(ids.len());
    for id in ids {
        let spec_path = job_dir(root, &id).join("spec.json");
        let Ok(text) = std::fs::read_to_string(&spec_path) else {
            // A directory without a spec is a half-created job whose
            // submission never completed; ignore it.
            continue;
        };
        let spec: JobSpec = serde::json::from_str(&text)
            .map_err(|e| format!("corrupt {}: {e:?}", spec_path.display()))?;
        let state = state_on_disk(root, &id);
        let mut job = Job::new(id, spec, state);
        if state == JobState::Failed {
            job.error = std::fs::read_to_string(job_dir(root, &job.id).join("error.json"))
                .ok()
                .and_then(|t| {
                    serde::json::from_str::<serde::Value>(&t)
                        .ok()
                        .and_then(|v| match v.field("error") {
                            Ok(serde::Value::Str(s)) => Some(s.clone()),
                            _ => None,
                        })
                });
        }
        jobs.push(job);
    }
    Ok(jobs)
}

/// The next unused job id given the existing registry: `job-NNNN` with
/// a strictly increasing suffix, so ids stay unique across restarts.
pub fn next_id(existing: &[Job]) -> String {
    let max = existing
        .iter()
        .filter_map(|j| j.id.strip_prefix("job-"))
        .filter_map(|n| n.parse::<u64>().ok())
        .max()
        .unwrap_or(0);
    format!("job-{:04}", max + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = JobSpec {
            workloads: vec!["pointer".into()],
            machines: vec!["baseline".into(), "spear-128".into()],
            bpreds: vec!["bimodal".into(), "tage".into()],
            frontends: vec!["program".into(), "trace".into()],
            mem_latency: Some(200),
            interval: 50_000,
            stride: 2,
            window: Some(0),
            max_cells: None,
            simpoint: true,
            simpoint_k: Some(4),
            simpoint_seed: Some(7),
        };
        let text = serde::json::to_string(&spec);
        let back: JobSpec = serde::json::from_str(&text).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn optional_fields_may_be_omitted() {
        let spec: JobSpec =
            serde::json::from_str("{\"workloads\":[\"pointer\"],\"machines\":[\"baseline\"]}")
                .unwrap();
        assert_eq!(spec.interval, 100_000);
        assert_eq!(spec.stride, 1);
        assert_eq!(spec.mem_latency, None);
        assert_eq!(spec.max_cells, None);
        assert!(
            spec.bpreds.is_empty(),
            "bpreds defaults to the paper's bimodal"
        );
        assert!(
            spec.frontends.is_empty(),
            "frontends defaults to the historical program grid"
        );
        assert!(!spec.simpoint, "simpoint defaults off");
        assert_eq!(spec.simpoint_k, None);
        assert_eq!(spec.simpoint_seed, None);
    }

    #[test]
    fn resolve_maps_simpoint_and_rejects_bad_combinations() {
        let mut spec = JobSpec {
            workloads: vec!["pointer".into(), "pointer@x100".into()],
            machines: vec!["baseline".into()],
            simpoint: true,
            ..JobSpec::default()
        };
        let resolved = spec.resolve(2).unwrap();
        assert_eq!(
            resolved.simpoint,
            Some(spear_campaign::SimpointSpec { k: 0, seed: 42 }),
            "bare simpoint means auto-k with the default seed"
        );
        assert_eq!(
            resolved.workloads,
            vec!["pointer".to_string(), "pointer@x100".to_string()],
            "scaled workload specs survive resolution verbatim"
        );

        // k/seed imply simpoint even when the flag itself is omitted.
        spec.simpoint = false;
        spec.simpoint_k = Some(4);
        spec.simpoint_seed = Some(7);
        assert_eq!(
            spec.resolve(2).unwrap().simpoint,
            Some(spear_campaign::SimpointSpec { k: 4, seed: 7 })
        );

        spec.window = Some(0);
        assert!(spec
            .resolve(2)
            .unwrap_err()
            .contains("incompatible with --window"));
        spec.window = None;
        spec.stride = 2;
        assert!(spec.resolve(2).unwrap_err().contains("requires stride 1"));
        spec.stride = 1;
        spec.workloads = vec!["pointer@x0".into()];
        assert!(
            spec.resolve(2).unwrap_err().contains("unknown workload"),
            "a zero scale multiplier is rejected"
        );
    }

    #[test]
    fn resolve_validates_names_and_numbers() {
        let mut spec = JobSpec {
            workloads: vec!["pointer".into()],
            machines: vec!["baseline".into()],
            ..JobSpec::default()
        };
        assert!(spec.resolve(2).is_ok());
        spec.workloads = vec!["no-such-workload".into()];
        assert!(spec.resolve(2).unwrap_err().contains("unknown workload"));
        spec.workloads = vec!["pointer".into()];
        spec.machines = vec!["cray-1".into()];
        assert!(spec.resolve(2).unwrap_err().contains("unknown machine"));
        spec.machines = vec!["baseline".into()];
        spec.stride = 0;
        assert!(spec.resolve(2).unwrap_err().contains("nonzero"));
        spec.stride = 1;
        spec.bpreds = vec!["tage:tables=zero".into()];
        assert!(spec
            .resolve(2)
            .unwrap_err()
            .contains("bad predictor spec `tage:tables=zero`"));
        spec.bpreds = Vec::new();
        spec.frontends = vec!["oracle".into()];
        assert!(spec
            .resolve(2)
            .unwrap_err()
            .contains("unknown front end `oracle`"));
        spec.frontends = vec!["program".into(), "trace".into()];
        let resolved = spec.resolve(2).unwrap();
        assert_eq!(resolved.frontends, vec!["program", "trace"]);
    }

    #[test]
    fn resolve_rejects_duplicate_axis_values() {
        // Each duplicate would run the same cells twice and double the
        // aggregate's counts.
        let base = JobSpec {
            workloads: vec!["pointer".into()],
            machines: vec!["baseline".into()],
            ..JobSpec::default()
        };
        for (spec, want) in [
            (
                JobSpec {
                    workloads: vec!["pointer".into(), "pointer".into()],
                    ..base.clone()
                },
                "workload `pointer` listed more than once",
            ),
            (
                JobSpec {
                    machines: vec!["baseline".into(), "superscalar".into()],
                    ..base.clone()
                },
                "machine point `superscalar/bimodal/120` listed more than once",
            ),
            (
                JobSpec {
                    bpreds: vec!["tage".into(), "tage".into()],
                    ..base.clone()
                },
                "machine point `superscalar/tage/120` listed more than once",
            ),
            (
                JobSpec {
                    frontends: vec!["trace".into(), "trace".into()],
                    ..base.clone()
                },
                "front end `trace` listed more than once",
            ),
        ] {
            assert_eq!(spec.resolve(2).unwrap_err(), want);
        }
        assert!(base.resolve(2).is_ok());
    }

    #[test]
    fn resolve_expands_the_machine_by_predictor_grid() {
        let spec = JobSpec {
            workloads: vec!["pointer".into()],
            machines: vec!["baseline".into(), "spear-128".into()],
            bpreds: vec!["bimodal".into(), "tage".into()],
            ..JobSpec::default()
        };
        let resolved = spec.resolve(2).unwrap();
        assert_eq!(resolved.points.len(), 4, "machines x bpreds");
        let labels: Vec<(String, String)> = resolved
            .points
            .iter()
            .map(|p| (p.machine.clone(), p.config.bpred.spec_label()))
            .collect();
        assert_eq!(
            labels[0],
            ("superscalar".to_string(), "bimodal".to_string())
        );
        assert_eq!(labels[1], ("superscalar".to_string(), "tage".to_string()));
        assert_eq!(labels[3], ("SPEAR-128".to_string(), "tage".to_string()));
        // Omitted bpreds resolves to a pure-bimodal grid.
        let plain = JobSpec {
            workloads: vec!["pointer".into()],
            machines: vec!["baseline".into()],
            ..JobSpec::default()
        }
        .resolve(2)
        .unwrap();
        assert_eq!(plain.points.len(), 1);
        assert_eq!(plain.points[0].config.bpred.spec_label(), "bimodal");
    }

    #[test]
    fn resolve_expands_all_and_applies_latency() {
        let spec = JobSpec {
            workloads: vec!["all".into()],
            machines: vec!["spear-256".into()],
            mem_latency: Some(300),
            ..JobSpec::default()
        };
        let resolved = spec.resolve(4).unwrap();
        assert_eq!(resolved.workloads.len(), spear_workloads::all().len());
        assert_eq!(resolved.points.len(), 1);
        assert_eq!(resolved.points[0].machine, "SPEAR-256");
        assert_eq!(resolved.points[0].mem_latency, 300);
        assert_eq!(resolved.threads, 4);
    }

    #[test]
    fn ids_increase_and_scan_orders_by_id() {
        let jobs = vec![
            Job::new("job-0002".into(), JobSpec::default(), JobState::Done),
            Job::new("job-0010".into(), JobSpec::default(), JobState::Queued),
        ];
        assert_eq!(next_id(&jobs), "job-0011");
        assert_eq!(next_id(&[]), "job-0001");
    }

    #[test]
    fn disk_state_tracks_markers() {
        let root = std::env::temp_dir().join(format!("spear-serve-jobs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let id = "job-0001";
        std::fs::create_dir_all(job_dir(&root, id)).unwrap();
        std::fs::write(
            job_dir(&root, id).join("spec.json"),
            serde::json::to_string(&JobSpec {
                workloads: vec!["pointer".into()],
                machines: vec!["baseline".into()],
                ..JobSpec::default()
            }),
        )
        .unwrap();
        assert_eq!(state_on_disk(&root, id), JobState::Queued);
        let scanned = scan_jobs(&root).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].state, JobState::Queued);

        write_marker(&root, id, "done.json", "{}").unwrap();
        assert_eq!(state_on_disk(&root, id), JobState::Done);
        assert_eq!(scan_jobs(&root).unwrap()[0].state, JobState::Done);
        let _ = std::fs::remove_dir_all(&root);
    }
}
