//! The resumable campaign engine: a crash-safe work queue over
//! (workload, machine, predictor, frontend, latency, interval) cells.
//!
//! A campaign lives in a directory:
//!
//! ```text
//! campaign-dir/
//!   manifest.json    # the campaign spec fingerprint (guards resume)
//!   cells.jsonl      # one CellResult per line, appended as cells finish
//! ```
//!
//! Every finished cell is appended to `cells.jsonl` and flushed before
//! the worker takes more work, so killing the process at any moment loses
//! at most the cells still in flight. On restart the engine replays the
//! file, skips every completed cell (a truncated final line — the
//! signature of a mid-write crash — is tolerated and re-run), and
//! continues. Two phases:
//!
//! 1. **prepare** (one job per workload × predictor spec, parallel):
//!    compile the p-thread table, then one functional pass capturing a
//!    warm checkpoint at each sampled interval start (see
//!    [`crate::checkpoint`]);
//! 2. **simulate** (one job per cell, parallel): build a core, restore
//!    the interval's checkpoint, run for the interval's instruction
//!    budget, persist the statistics.
//!
//! Checkpoints are keyed by (workload, predictor spec): the cache
//! geometry is identical across the five machine models and the latency
//! sweep, but the warmer trains the *configured* predictor, so a
//! predictor sweep needs one functional pass per distinct spec. Each
//! pass still serves every (machine, latency) point that uses the same
//! predictor.

use crate::checkpoint::{capture_checkpoints, capture_checkpoints_at, CheckpointSet};
use crate::sample::{aggregate, plan_intervals, Aggregate, Interval, SampleSpec};
use crate::shard_cache::{ShardCache, ShardKey};
use crate::trace_cache::{record_trace, TraceCache};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use spear_compiler::{CompilerConfig, SpearCompiler};
use spear_cpu::{Core, CoreConfig, CoreStats, RunExit, SimpointBlock, StatsExport, TraceSource};
use spear_isa::SpearBinary;
use spear_trace::TraceFile;
use std::collections::HashSet;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Version of the per-cell JSONL record format. Bump on breaking change.
///
/// v1 keyed cells by (workload, machine, latency, interval); v2 adds the
/// branch-predictor spec label as a first-class axis of the cell key and
/// the manifest fingerprint; v3 adds the instruction-supply front end
/// (`program` or `trace`) to both.
pub const CELL_SCHEMA_VERSION: u32 = 3;

/// Cycle ceiling per cell, so one pathological cell cannot hang a
/// campaign (same ceiling the full-run experiment runner uses).
const MAX_CELL_CYCLES: u64 = 200_000_000;

/// Instruction ceiling for the functional pass.
const MAX_FUNCTIONAL_INSTS: u64 = 1_000_000_000;

/// Finished cells between heartbeat rewrites of `progress.json` /
/// `metrics.prom` (a final heartbeat is always written at the end).
const HEARTBEAT_EVERY_CELLS: u64 = 10;

/// One (machine, latency) point of the sweep, with its fully resolved
/// core configuration. The `machine` and `mem_latency` fields are the
/// cell key; `config` is what actually runs.
#[derive(Clone, Debug)]
pub struct MachinePoint {
    /// Machine model name (e.g. `SPEAR-128`).
    pub machine: String,
    /// Main-memory latency in cycles (the key of the Figure 9 sweep).
    pub mem_latency: u32,
    /// The resolved configuration (latency already applied).
    pub config: CoreConfig,
}

/// SimPoint phase-clustering parameters for a `--simpoint` campaign.
///
/// With this set, the prepare phase slices every workload's committed
/// stream into BBV intervals (one per `sample.interval_len`
/// instructions), clusters them into phases with a seeded k-means (see
/// `spear_simpoint`), and cycle-simulates only one *representative*
/// interval per phase. Each representative's cell carries its phase's
/// population count as a weight, and the aggregate reconstitutes
/// whole-program statistics as the weight-blended sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimpointSpec {
    /// Number of phases; 0 chooses k automatically by BIC.
    pub k: u64,
    /// Clusterer seed (projection axes + deterministic k-means).
    pub seed: u64,
}

impl Default for SimpointSpec {
    fn default() -> SimpointSpec {
        SimpointSpec { k: 0, seed: 42 }
    }
}

impl SimpointSpec {
    /// Canonical one-string form, used as the manifest fingerprint field
    /// (e.g. `k4:seed42`; `k0` = auto).
    pub fn label(&self) -> String {
        format!("k{}:seed{}", self.k, self.seed)
    }
}

/// What a campaign runs.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Workload specs: plain abbreviations (`mcf`) or scale-suffixed
    /// (`mcf@x100`), resolved via `spear_workloads::by_spec`.
    pub workloads: Vec<String>,
    /// The (machine, latency) sweep points.
    pub points: Vec<MachinePoint>,
    /// Instruction-supply front ends to sweep (`program`, `trace`).
    /// Empty normalizes to `["program"]`, the historical behavior.
    /// `trace` cells replay a recorded committed path instead of
    /// executing semantics; the trace is recorded once per workload
    /// during the prepare phase (or fetched from a [`TraceCache`]).
    pub frontends: Vec<String>,
    /// Interval sampling parameters.
    pub sample: SampleSpec,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Stop after executing this many cells in this invocation (used to
    /// exercise crash-resume in tests and CI; `None` = run to the end).
    pub max_cells: Option<u64>,
    /// Windowed-telemetry length in cycles for every cell (`None` =
    /// windows off). Part of the manifest fingerprint: window shape
    /// changes the persisted stats, so a resume must match.
    pub window: Option<u64>,
    /// SimPoint phase clustering (`None` = systematic sampling as
    /// before). Part of the manifest fingerprint. Requires `stride == 1`
    /// (clustering *is* the sampling policy) and is incompatible with
    /// `window` (windowed telemetry is a cycle partition of one run and
    /// cannot be weight-blended).
    pub simpoint: Option<SimpointSpec>,
}

impl CampaignSpec {
    /// Check the spec before any work runs: workload specs, front-end
    /// names, no axis value listed twice (a repeated workload, front end
    /// or (machine, predictor, latency) point would run the same cells
    /// twice and double-count them in the aggregate), nonzero interval
    /// and stride, and the SimPoint rules (stride 1, windows off).
    ///
    /// The one home of these rules: [`Campaign::run_with`] calls it, and
    /// so does `spear_serve::JobSpec::resolve`, which the `spear-sim
    /// campaign` CLI and the campaign server both resolve through.
    pub fn validate(&self) -> Result<(), String> {
        if self.workloads.is_empty() || self.points.is_empty() {
            return Err("campaign needs at least one workload and one machine point".into());
        }
        for name in &self.workloads {
            if spear_workloads::by_spec(name).is_none() {
                return Err(format!("unknown workload `{name}`"));
            }
        }
        unique("workload", &self.workloads)?;
        let frontends = self.frontends();
        for f in &frontends {
            if f != "program" && f != "trace" {
                return Err(format!(
                    "unknown front end `{f}` (expected `program` or `trace`)"
                ));
            }
        }
        unique("front end", &frontends)?;
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{}/{}/{}",
                    p.machine,
                    p.config.bpred.spec_label(),
                    p.mem_latency
                )
            })
            .collect();
        unique("machine point", &points)?;
        if self.sample.interval_len == 0 || self.sample.stride == 0 {
            return Err("--interval and --stride must be nonzero".into());
        }
        if self.simpoint.is_some() {
            if self.window.is_some() {
                return Err("--simpoint is incompatible with --window: windowed \
                            telemetry is a cycle partition of one run and cannot \
                            be weight-blended across phase representatives"
                    .into());
            }
            if self.sample.stride != 1 {
                return Err(format!(
                    "--simpoint requires stride 1 (phase clustering replaces \
                     systematic sampling), got stride {}",
                    self.sample.stride
                ));
            }
        }
        Ok(())
    }

    /// The front-end list, normalized: empty means the historical
    /// program-driven campaign.
    fn frontends(&self) -> Vec<String> {
        if self.frontends.is_empty() {
            vec!["program".to_string()]
        } else {
            self.frontends.clone()
        }
    }
}

/// Reject the first value of `items` that repeats an earlier one.
fn unique(what: &str, items: &[String]) -> Result<(), String> {
    for (i, item) in items.iter().enumerate() {
        if items[..i].contains(item) {
            return Err(format!("{what} `{item}` listed more than once"));
        }
    }
    Ok(())
}

/// One completed cell, as persisted to `cells.jsonl`.
///
/// Serialization is hand-written (not derived) so the SimPoint `weight`
/// field is *omitted* when 1: every record a non-simpoint campaign
/// writes keeps its exact historical bytes, and records from older
/// writers parse back with the implied unit weight.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Record format version ([`CELL_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Workload name.
    pub workload: String,
    /// Machine model name.
    pub machine: String,
    /// Canonical branch-predictor spec label (`bimodal` for the paper
    /// default; see `spear_bpred::PredictorConfig::spec_label`).
    pub bpred: String,
    /// Instruction-supply front end (`program` or `trace`).
    pub frontend: String,
    /// Main-memory latency in cycles.
    pub mem_latency: u32,
    /// Interval index within the workload.
    pub interval: u64,
    /// First instruction of the interval.
    pub start_inst: u64,
    /// Instructions the cell was budgeted to simulate.
    pub target_insts: u64,
    /// How many whole-program intervals this cell stands for: 1 for a
    /// plain campaign cell, the phase's population count for a SimPoint
    /// representative. Aggregation scale-sums the cell's statistics by
    /// this factor (see `spear_cpu::CoreStats::merge_scaled`).
    pub weight: u64,
    /// How the cell's simulation ended (`InstBudget` for interior
    /// intervals, `Halted` for the final one).
    pub exit: RunExit,
    /// Wall-clock simulation time for this cell, in milliseconds.
    pub wall_ms: u64,
    /// Full simulator statistics for the interval.
    pub stats: CoreStats,
}

impl Serialize for CellResult {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("workload".to_string(), self.workload.to_value()),
            ("machine".to_string(), self.machine.to_value()),
            ("bpred".to_string(), self.bpred.to_value()),
            ("frontend".to_string(), self.frontend.to_value()),
            ("mem_latency".to_string(), self.mem_latency.to_value()),
            ("interval".to_string(), self.interval.to_value()),
            ("start_inst".to_string(), self.start_inst.to_value()),
            ("target_insts".to_string(), self.target_insts.to_value()),
        ];
        if self.weight != 1 {
            fields.push(("weight".to_string(), self.weight.to_value()));
        }
        fields.push(("exit".to_string(), self.exit.to_value()));
        fields.push(("wall_ms".to_string(), self.wall_ms.to_value()));
        fields.push(("stats".to_string(), self.stats.to_value()));
        serde::Value::Object(fields)
    }
}

impl Deserialize for CellResult {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(CellResult {
            schema_version: u32::from_value(v.field("schema_version")?)?,
            workload: String::from_value(v.field("workload")?)?,
            machine: String::from_value(v.field("machine")?)?,
            bpred: String::from_value(v.field("bpred")?)?,
            frontend: String::from_value(v.field("frontend")?)?,
            mem_latency: u32::from_value(v.field("mem_latency")?)?,
            interval: u64::from_value(v.field("interval")?)?,
            start_inst: u64::from_value(v.field("start_inst")?)?,
            target_insts: u64::from_value(v.field("target_insts")?)?,
            // Absent in records from non-simpoint campaigns and older
            // writers: both mean the unit weight.
            weight: match v.field("weight") {
                Ok(val) => u64::from_value(val)?,
                Err(_) => 1,
            },
            exit: RunExit::from_value(v.field("exit")?)?,
            wall_ms: u64::from_value(v.field("wall_ms")?)?,
            stats: CoreStats::from_value(v.field("stats")?)?,
        })
    }
}

impl CellResult {
    /// The cell's identity within a campaign.
    pub fn key(&self) -> CellKey {
        CellKey {
            group: GroupKey {
                workload: self.workload.clone(),
                machine: self.machine.clone(),
                bpred: self.bpred.clone(),
                frontend: self.frontend.clone(),
                mem_latency: self.mem_latency,
            },
            interval: self.interval,
        }
    }
}

/// The aggregation group of a cell: every axis of its identity but the
/// interval. One group is one [`Aggregate`] and one envelope file.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupKey {
    /// Workload spec.
    pub workload: String,
    /// Machine model name.
    pub machine: String,
    /// Canonical branch-predictor spec label.
    pub bpred: String,
    /// Instruction-supply front end.
    pub frontend: String,
    /// Main-memory latency in cycles.
    pub mem_latency: u32,
}

impl GroupKey {
    /// The stem of the group's aggregate envelope file. Default-axis
    /// groups (bimodal predictor, program front end) keep the historical
    /// `<workload>-<machine>-<latency>`; other predictors insert their
    /// sanitized spec label and other front ends their name, so a
    /// sweep's groups never collide.
    pub fn file_stem(&self) -> String {
        let mut stem = format!("{}-{}", self.workload, self.machine.replace('.', "_"));
        if self.bpred != "bimodal" {
            stem.push('-');
            stem.push_str(&self.bpred.replace([':', ',', '='], "_"));
        }
        if self.frontend != "program" {
            stem.push('-');
            stem.push_str(&self.frontend);
        }
        format!("{stem}-{}", self.mem_latency)
    }
}

/// `workload/machine/bpred/frontend/mem_latency`.
impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}/{}",
            self.workload, self.machine, self.bpred, self.frontend, self.mem_latency
        )
    }
}

/// A cell's identity within a campaign: its group plus the interval
/// index. The derived `Ord` (group fields in declaration order, then the
/// interval) is the order [`aggregate`] merges cells in.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    /// The aggregation group.
    pub group: GroupKey,
    /// Interval index within the workload.
    pub interval: u64,
}

/// `workload/machine/bpred/frontend/mem_latency/interval`, the
/// heartbeat's `last_cell` label.
impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.group, self.interval)
    }
}

/// Live progress, handed to the `on_progress` callback after every cell.
#[derive(Clone, Copy, Debug)]
pub struct ProgressSnapshot {
    /// Cells finished (including ones skipped as already done).
    pub done: u64,
    /// Total cells in the campaign.
    pub total: u64,
    /// Cells executed by this invocation.
    pub executed: u64,
    /// Wall-clock time since this invocation started, in ms.
    pub elapsed_ms: u64,
    /// Estimated remaining time, from the mean per-cell wall time of the
    /// cells executed so far divided across the worker threads (`None`
    /// until the first cell finishes).
    pub eta_ms: Option<u64>,
}

/// Per-workload simulation time over the whole campaign directory.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadTiming {
    /// Workload name.
    pub workload: String,
    /// Cells recorded for this workload.
    pub cells: u64,
    /// Summed per-cell wall time, in ms.
    pub wall_ms: u64,
}

/// What one `Campaign::run` invocation did.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Total cells in the campaign.
    pub total_cells: u64,
    /// Cells executed by this invocation.
    pub executed: u64,
    /// Cells skipped because a prior invocation had completed them.
    pub skipped: u64,
    /// True if `max_cells` stopped this invocation before the campaign
    /// finished (pending cells remain for a future resume).
    pub interrupted: bool,
    /// Every cell result now on disk (prior + new).
    pub results: Vec<CellResult>,
    /// Per-workload timing over `results`, sorted by workload name.
    pub timings: Vec<WorkloadTiming>,
    /// Wall-clock time of this invocation, in ms.
    pub elapsed_ms: u64,
}

impl RunSummary {
    /// Weighted aggregates over all cells on disk (see
    /// [`crate::sample::aggregate`]).
    pub fn aggregates(&self) -> Vec<Aggregate> {
        aggregate(&self.results)
    }
}

/// One sweep point as pinned by the manifest: machine model, predictor
/// spec label, memory latency. (A named struct rather than a tuple —
/// the vendored serde derives only pair tuples.)
#[derive(PartialEq, Serialize, Deserialize)]
struct ManifestPoint {
    machine: String,
    bpred: String,
    mem_latency: u32,
}

/// The manifest pins the campaign's shape so a resume into the wrong
/// directory fails loudly instead of silently mixing results.
///
/// Hand-written serde: the `simpoint` fingerprint field is omitted when
/// the campaign does not cluster, so non-simpoint manifests keep their
/// exact historical bytes (and parse back under older readers).
#[derive(PartialEq)]
struct ManifestDoc {
    version: u32,
    workloads: Vec<String>,
    points: Vec<ManifestPoint>,
    frontends: Vec<String>,
    interval_len: u64,
    stride: u64,
    window: Option<u64>,
    simpoint: Option<String>,
}

impl Serialize for ManifestDoc {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("version".to_string(), self.version.to_value()),
            ("workloads".to_string(), self.workloads.to_value()),
            ("points".to_string(), self.points.to_value()),
            ("frontends".to_string(), self.frontends.to_value()),
            ("interval_len".to_string(), self.interval_len.to_value()),
            ("stride".to_string(), self.stride.to_value()),
            // `window` predates `simpoint` and has always been emitted
            // (as null when off), so it stays unconditional.
            ("window".to_string(), self.window.to_value()),
        ];
        if let Some(s) = &self.simpoint {
            fields.push(("simpoint".to_string(), s.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for ManifestDoc {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(ManifestDoc {
            version: u32::from_value(v.field("version")?)?,
            workloads: Vec::<String>::from_value(v.field("workloads")?)?,
            points: Vec::<ManifestPoint>::from_value(v.field("points")?)?,
            frontends: Vec::<String>::from_value(v.field("frontends")?)?,
            interval_len: u64::from_value(v.field("interval_len")?)?,
            stride: u64::from_value(v.field("stride")?)?,
            window: Option::<u64>::from_value(v.field("window")?)?,
            // Absent in manifests from non-simpoint campaigns and older
            // writers.
            simpoint: match v.field("simpoint") {
                Ok(val) => Option::<String>::from_value(val)?,
                Err(_) => None,
            },
        })
    }
}

/// A campaign bound to its directory.
pub struct Campaign {
    dir: PathBuf,
    spec: CampaignSpec,
}

/// Everything phase 1 prepares for one workload: the compiled binary
/// with its p-thread table, the warm checkpoint shards, and the sampled
/// interval plan. Shared read-only across every cell that needs it (and,
/// through a [`ShardCache`], across every *job* that needs it).
#[derive(Debug)]
pub struct WorkloadData {
    /// Workload name.
    pub name: String,
    /// Canonical spec label of the predictor the warmer trained (the
    /// checkpoints carry this predictor's state).
    pub bpred: String,
    /// Evaluation binary with the compiled p-thread table attached.
    pub binary: SpearBinary,
    /// Warm checkpoints at each planned interval start.
    pub set: CheckpointSet,
    /// The interval plan: each simulated interval with its aggregation
    /// weight, ascending by start instruction. Systematic sampling plans
    /// every `stride`-th interval at weight 1; SimPoint plans one
    /// representative per phase, weighted by the phase's population.
    pub plan: Vec<(Interval, u64)>,
    /// The recorded replay trace, present only when the campaign sweeps
    /// the `trace` front end (shards built without it cannot serve
    /// trace-backed cells, which is why [`ShardKey::trace`] keys them
    /// apart).
    pub trace: Option<Arc<TraceFile>>,
}

impl WorkloadData {
    /// Approximate resident size in bytes, for the [`ShardCache`] LRU
    /// budget. Dominated by the per-checkpoint memory images; the binary
    /// and plan are a flat base charge, and cache/predictor snapshots a
    /// flat overhead per checkpoint, rather than measured field by field.
    pub fn approx_bytes(&self) -> u64 {
        const BASE_OVERHEAD: u64 = 64 * 1024;
        const PER_CHECKPOINT_OVERHEAD: u64 = 256 * 1024;
        BASE_OVERHEAD
            + self
                .set
                .checkpoints
                .iter()
                .map(|c| c.mem.as_bytes().len() as u64 + PER_CHECKPOINT_OVERHEAD)
                .sum::<u64>()
    }
}

/// One unit of phase-2 work. `w` indexes the prepared shard list
/// (workload-major, predictor-minor), `p` the sweep points, `f` the
/// spec's front-end list.
struct Cell {
    w: usize,
    p: usize,
    f: usize,
    interval: Interval,
    weight: u64,
}

impl Campaign {
    /// Bind a spec to a directory (created on [`Campaign::run`]).
    pub fn new(dir: impl Into<PathBuf>, spec: CampaignSpec) -> Campaign {
        Campaign {
            dir: dir.into(),
            spec,
        }
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest(&self) -> ManifestDoc {
        ManifestDoc {
            version: CELL_SCHEMA_VERSION,
            workloads: self.spec.workloads.clone(),
            frontends: self.spec.frontends(),
            points: self
                .spec
                .points
                .iter()
                .map(|p| ManifestPoint {
                    machine: p.machine.clone(),
                    bpred: p.config.bpred.spec_label(),
                    mem_latency: p.mem_latency,
                })
                .collect(),
            interval_len: self.spec.sample.interval_len,
            stride: self.spec.sample.stride,
            window: self.spec.window,
            simpoint: self.spec.simpoint.map(|s| s.label()),
        }
    }

    fn check_or_write_manifest(&self) -> Result<(), String> {
        let path = self.dir.join("manifest.json");
        let mine = serde::json::to_string_pretty(&self.manifest());
        match std::fs::read_to_string(&path) {
            Ok(existing) => {
                let theirs: ManifestDoc = serde::json::from_str(&existing)
                    .map_err(|e| format!("corrupt manifest {}: {e:?}", path.display()))?;
                if theirs != self.manifest() {
                    return Err(format!(
                        "campaign directory {} was created for a different spec; \
                         use a fresh directory",
                        self.dir.display()
                    ));
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => std::fs::write(&path, mine)
                .map_err(|e| format!("cannot write {}: {e}", path.display())),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// Replay `cells.jsonl`: every parseable line is a completed cell. A
    /// final truncated line (mid-write crash) is tolerated and its cell
    /// re-run; a malformed line elsewhere is an error.
    pub fn load_results(&self) -> Result<Vec<CellResult>, String> {
        let path = self.dir.join("cells.jsonl");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut out = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match serde::json::from_str::<CellResult>(line) {
                Ok(cell) => out.push(cell),
                Err(_) if i + 1 == lines.len() => break, // truncated tail
                Err(e) => {
                    return Err(format!(
                        "{}: malformed record on line {}: {e:?}",
                        path.display(),
                        i + 1
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Weighted aggregates over every cell currently on disk.
    pub fn aggregates(&self) -> Result<Vec<Aggregate>, String> {
        Ok(aggregate(&self.load_results()?))
    }

    /// Physically truncate a torn trailing line off `cells.jsonl` (the
    /// signature of a kill mid-append). [`Campaign::load_results`] already
    /// *tolerates* a torn tail, but without truncation the next append
    /// would glue a fresh record onto the partial line, corrupting a
    /// record permanently — so a resume must repair the file first.
    /// Returns the number of bytes cut, if any.
    fn repair_torn_tail(&self) -> Result<Option<u64>, String> {
        let path = self.dir.join("cells.jsonl");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        // Find the last non-empty line and its byte offset.
        let mut last: Option<(usize, &str)> = None;
        let mut offset = 0;
        for line in text.split_inclusive('\n') {
            if !line.trim().is_empty() {
                last = Some((offset, line.trim_end_matches(['\n', '\r'])));
            }
            offset += line.len();
        }
        let Some((start, line)) = last else {
            return Ok(None);
        };
        if serde::json::from_str::<CellResult>(line).is_ok() {
            return Ok(None);
        }
        let cut = (text.len() - start) as u64;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| format!("cannot open {} for repair: {e}", path.display()))?;
        f.set_len(start as u64)
            .map_err(|e| format!("cannot truncate {}: {e}", path.display()))?;
        Ok(Some(cut))
    }

    /// Run (or resume) the campaign. `on_progress` is invoked after every
    /// executed cell.
    pub fn run(
        &self,
        on_progress: Option<&(dyn Fn(&ProgressSnapshot) + Sync)>,
    ) -> Result<RunSummary, String> {
        self.run_with(&RunOptions {
            on_progress,
            ..RunOptions::default()
        })
    }

    /// Run (or resume) the campaign with the full option set: progress
    /// callbacks, cooperative cancellation, and a cross-job checkpoint-
    /// shard cache.
    pub fn run_with(&self, opts: &RunOptions<'_>) -> Result<RunSummary, String> {
        let on_progress = opts.on_progress;
        let t0 = Instant::now();
        self.spec.validate()?;
        let frontends = self.spec.frontends();
        let needs_trace = frontends.iter().any(|f| f == "trace");
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        self.check_or_write_manifest()?;
        if let Some(cut) = self.repair_torn_tail()? {
            eprintln!(
                "campaign {}: truncated a torn {cut}-byte trailing record in \
                 cells.jsonl (crash mid-append); its cell will re-run",
                self.dir.display()
            );
        }
        let prior = self.load_results()?;
        let done: HashSet<CellKey> = prior.iter().map(|c| c.key()).collect();

        let threads = if self.spec.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        } else {
            self.spec.threads
        };

        // Phase 1: compile + functional checkpointing, one job per
        // (workload, distinct predictor spec) — the warmer trains the
        // configured predictor, so each spec needs its own warm shards.
        // With a shard cache, warm state built by an earlier job (or an
        // earlier workload of this one) is reused instead of rebuilt.
        let shard_key = |workload: &str, point: &MachinePoint| ShardKey {
            workload: workload.to_string(),
            bpred: point.config.bpred.spec_label(),
            trace: needs_trace,
            simpoint: self.spec.simpoint,
            sample: self.spec.sample,
        };
        let mut prep: Vec<(ShardKey, spear_bpred::PredictorConfig)> = Vec::new();
        for name in &self.spec.workloads {
            for point in &self.spec.points {
                let key = shard_key(name, point);
                if !prep.iter().any(|(k, _)| *k == key) {
                    prep.push((key, point.config.bpred));
                }
            }
        }
        let prepared: Vec<Result<Arc<WorkloadData>, String>> =
            parallel_map(&prep, threads, |(key, cfg)| {
                let build = || prepare_workload(key, *cfg, opts.traces);
                match opts.cache {
                    Some(cache) => cache.get_or_create(key, build),
                    None => build().map(Arc::new),
                }
            });
        let mut wds = Vec::with_capacity(prepared.len());
        for r in prepared {
            wds.push(r?);
        }

        // Enumerate cells in deterministic order and drop completed ones.
        let mut pending = Vec::new();
        let mut total: u64 = 0;
        for name in &self.spec.workloads {
            for (p, point) in self.spec.points.iter().enumerate() {
                let key = shard_key(name, point);
                let shard = prep.iter().position(|(k, _)| *k == key).expect("prepared");
                let wd = &wds[shard];
                for (f, frontend) in frontends.iter().enumerate() {
                    let group = GroupKey {
                        workload: wd.name.clone(),
                        machine: point.machine.clone(),
                        bpred: wd.bpred.clone(),
                        frontend: frontend.clone(),
                        mem_latency: point.mem_latency,
                    };
                    for &(interval, weight) in &wd.plan {
                        total += 1;
                        let key = CellKey {
                            group: group.clone(),
                            interval: interval.index,
                        };
                        if !done.contains(&key) {
                            pending.push(Cell {
                                w: shard,
                                p,
                                f,
                                interval,
                                weight,
                            });
                        }
                    }
                }
            }
        }
        let skipped = total - pending.len() as u64;

        // Phase 2: the cell work queue.
        let results_path = self.dir.join("cells.jsonl");
        let sink = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&results_path)
            .map_err(|e| format!("cannot open {}: {e}", results_path.display()))?;
        let sink = Mutex::new(sink);
        let new_results: Mutex<Vec<CellResult>> = Mutex::new(Vec::new());
        let first_error: Mutex<Option<String>> = Mutex::new(None);
        let next = AtomicUsize::new(0);
        let executed = AtomicU64::new(0);
        let done_count = AtomicU64::new(skipped);
        let wall_sum_ms = AtomicU64::new(0);
        let committed_sum = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let budget = self.spec.max_cells.unwrap_or(u64::MAX);
        let points = &self.spec.points;
        let wds_ref = &wds;
        let window = self.spec.window;
        // One writer at a time keeps the temp-file dance race-free;
        // heartbeats are advisory, so their IO errors never stop a run.
        let heartbeat = Mutex::new(String::new());
        let beat = |last_cell: &str| {
            let ex = executed.load(Ordering::SeqCst).min(budget);
            let d = done_count.load(Ordering::SeqCst);
            let elapsed_ms = t0.elapsed().as_millis() as u64;
            let committed = committed_sum.load(Ordering::SeqCst);
            let kips = if elapsed_ms > 0 {
                committed as f64 / elapsed_ms as f64
            } else {
                0.0
            };
            let _ = write_heartbeat(
                &self.dir,
                &HeartbeatDoc {
                    done: d,
                    total,
                    executed: ex,
                    threads: threads as u64,
                    elapsed_ms,
                    eta_ms: eta_ms(wall_sum_ms.load(Ordering::SeqCst), ex, total - d, threads),
                    committed_insts: committed,
                    kips,
                    kips_per_shard: kips / threads as f64,
                    last_cell: last_cell.to_string(),
                },
            );
        };

        let cancel = opts.cancel;
        crossbeam::scope(|scope| {
            for _ in 0..threads.min(pending.len().max(1)) {
                scope.spawn(|_| loop {
                    // A cancel drains like `max_cells`: in-flight cells
                    // finish and are persisted; nothing new is claimed.
                    if stop.load(Ordering::SeqCst)
                        || cancel.is_some_and(|c| c.load(Ordering::SeqCst))
                    {
                        break;
                    }
                    // Claim an execution slot against the cell budget
                    // before claiming a cell, so `max_cells` is exact.
                    if executed.fetch_add(1, Ordering::SeqCst) >= budget {
                        executed.fetch_sub(1, Ordering::SeqCst);
                        stop.store(true, Ordering::SeqCst);
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= pending.len() {
                        executed.fetch_sub(1, Ordering::SeqCst);
                        break;
                    }
                    let cell = &pending[i];
                    match run_cell(
                        &wds_ref[cell.w],
                        &points[cell.p],
                        &frontends[cell.f],
                        cell.interval,
                        cell.weight,
                        window,
                    ) {
                        Ok(res) => {
                            let line = serde::json::to_string(&res);
                            {
                                let mut f = sink.lock();
                                let io = writeln!(f, "{line}").and_then(|_| f.flush());
                                if let Err(e) = io {
                                    *first_error.lock() =
                                        Some(format!("cannot append cell result: {e}"));
                                    stop.store(true, Ordering::SeqCst);
                                    break;
                                }
                            }
                            let fingerprint = res.key().to_string();
                            wall_sum_ms.fetch_add(res.wall_ms, Ordering::SeqCst);
                            committed_sum.fetch_add(res.stats.committed, Ordering::SeqCst);
                            new_results.lock().push(res);
                            let d = done_count.fetch_add(1, Ordering::SeqCst) + 1;
                            if d.is_multiple_of(HEARTBEAT_EVERY_CELLS) {
                                let mut last = heartbeat.lock();
                                *last = fingerprint.clone();
                                beat(&last);
                            } else {
                                *heartbeat.lock() = fingerprint;
                            }
                            if let Some(cb) = on_progress {
                                let ex = executed.load(Ordering::SeqCst).min(budget);
                                cb(&ProgressSnapshot {
                                    done: d,
                                    total,
                                    executed: ex,
                                    elapsed_ms: t0.elapsed().as_millis() as u64,
                                    eta_ms: eta_ms(
                                        wall_sum_ms.load(Ordering::SeqCst),
                                        ex,
                                        total - d,
                                        threads,
                                    ),
                                });
                            }
                        }
                        Err(e) => {
                            let mut slot = first_error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            stop.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                });
            }
        })
        .expect("campaign worker panicked");

        // Final heartbeat so `progress.json` reflects the end state even
        // when the cell count never hit the heartbeat interval.
        beat(&heartbeat.lock().clone());

        if let Some(e) = first_error.into_inner() {
            return Err(e);
        }
        let new = new_results.into_inner();
        let executed = new.len() as u64;
        let interrupted = executed + skipped < total;
        let mut results = prior;
        results.extend(new);
        let timings = workload_timings(&results);
        Ok(RunSummary {
            total_cells: total,
            executed,
            skipped,
            interrupted,
            results,
            timings,
            elapsed_ms: t0.elapsed().as_millis() as u64,
        })
    }
}

/// Knobs for [`Campaign::run_with`], beyond what the spec pins.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Invoked after every executed cell with live progress.
    pub on_progress: Option<&'a (dyn Fn(&ProgressSnapshot) + Sync)>,
    /// Cooperative cancellation: once set, workers stop claiming cells;
    /// in-flight cells finish and are flushed, so the run ends in a
    /// cleanly resumable state (`interrupted` in the summary).
    pub cancel: Option<&'a AtomicBool>,
    /// Checkpoint-shard cache shared across runs: warm state is built
    /// once per [`ShardKey`] and reused read-only.
    pub cache: Option<&'a ShardCache>,
    /// Trace cache shared across runs: the replay stream of a workload
    /// is recorded once and reused by every trace-backed job.
    pub traces: Option<&'a TraceCache>,
}

/// Write one versioned stats-JSON envelope per (workload, machine,
/// latency) aggregate under `<dir>/aggregates/`, exactly as the
/// `spear-sim campaign` CLI does — the campaign server calls the same
/// function, which is what makes server and CLI aggregate files
/// byte-identical by construction. Returns the paths written, in
/// aggregate order.
///
/// `simpoint` is the campaign's clustering spec paired with its interval
/// length: when set, every envelope gains the additive `simpoint`
/// provenance block. `None` (every non-simpoint campaign) leaves the
/// envelopes byte-identical to the historical schema.
pub fn write_aggregate_envelopes(
    dir: &Path,
    results: &[CellResult],
    simpoint: Option<(SimpointSpec, u64)>,
) -> Result<Vec<PathBuf>, String> {
    let aggs = aggregate(results);
    let agg_dir = dir.join("aggregates");
    std::fs::create_dir_all(&agg_dir)
        .map_err(|e| format!("cannot create {}: {e}", agg_dir.display()))?;
    let mut written = Vec::with_capacity(aggs.len());
    // An aggregate reached the workload's halt only if its group
    // contains the final (halting) interval.
    let halted: HashSet<GroupKey> = results
        .iter()
        .filter(|c| c.exit == RunExit::Halted)
        .map(|c| c.key().group)
        .collect();
    for a in &aggs {
        let key = a.key();
        let mut doc = StatsExport::new(
            a.workload.clone(),
            &a.machine,
            a.mem_latency,
            if halted.contains(&key) {
                RunExit::Halted
            } else {
                RunExit::InstBudget
            },
            a.stats.clone(),
        )
        .with_bpred(&a.bpred)
        .with_frontend(&a.frontend);
        if let Some((sp, interval_len)) = simpoint {
            doc = doc.with_simpoint(SimpointBlock {
                k: sp.k,
                seed: sp.seed,
                interval_len,
                phases: a.cells,
                intervals: a.weight,
            });
        }
        let file = agg_dir.join(format!("{}.json", key.file_stem()));
        std::fs::write(&file, doc.to_json())
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        written.push(file);
    }
    Ok(written)
}

/// Estimated remaining campaign wall time: mean per-cell simulation time
/// of the cells executed so far, divided across the worker threads.
/// `None` until the first cell finishes (and under a degenerate zero
/// thread count), so a fresh campaign never reports a bogus 0ms ETA.
pub fn eta_ms(wall_sum_ms: u64, executed: u64, remaining: u64, threads: usize) -> Option<u64> {
    if executed == 0 || threads == 0 {
        return None;
    }
    let per_cell = wall_sum_ms as f64 / executed as f64;
    Some((per_cell * remaining as f64 / threads as f64) as u64)
}

/// The campaign heartbeat persisted as `progress.json` (see
/// [`write_heartbeat`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatDoc {
    /// Cells finished (including ones skipped as already done).
    pub done: u64,
    /// Total cells in the campaign.
    pub total: u64,
    /// Cells executed by this invocation.
    pub executed: u64,
    /// Worker threads in use.
    pub threads: u64,
    /// Wall-clock time since this invocation started, in ms.
    pub elapsed_ms: u64,
    /// Estimated remaining time ([`eta_ms`]); `null` until known.
    pub eta_ms: Option<u64>,
    /// Committed instructions simulated by this invocation.
    pub committed_insts: u64,
    /// Simulation throughput: committed kilo-instructions per
    /// wall-clock second, summed over all shards.
    pub kips: f64,
    /// [`HeartbeatDoc::kips`] divided by the worker count — the mean
    /// per-shard throughput.
    pub kips_per_shard: f64,
    /// Key of the most recently finished cell
    /// (`workload/machine/bpred/frontend/mem_latency/interval`); empty
    /// before the first one.
    pub last_cell: String,
}

/// Atomically (write-to-temp + rename) rewrite the campaign heartbeat:
/// `progress.json` for machines and `metrics.prom` (Prometheus text
/// exposition format) for scrapers. A reader never observes a torn
/// file. Heartbeats are advisory: callers may ignore the error.
pub fn write_heartbeat(dir: &Path, hb: &HeartbeatDoc) -> Result<(), String> {
    let atomic = |name: &str, contents: String| -> Result<(), String> {
        let tmp = dir.join(format!("{name}.tmp"));
        let fin = dir.join(name);
        std::fs::write(&tmp, contents)
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &fin)
            .map_err(|e| format!("cannot rename {} -> {}: {e}", tmp.display(), fin.display()))
    };
    atomic("progress.json", serde::json::to_string_pretty(hb))?;
    let mut prom = String::new();
    let mut gauge = |name: &str, help: &str, value: String| {
        prom.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
        ));
    };
    gauge(
        "spear_campaign_cells_done",
        "Cells finished, including previously completed ones.",
        hb.done.to_string(),
    );
    gauge(
        "spear_campaign_cells_total",
        "Total cells in the campaign.",
        hb.total.to_string(),
    );
    gauge(
        "spear_campaign_cells_executed",
        "Cells executed by this invocation.",
        hb.executed.to_string(),
    );
    gauge(
        "spear_campaign_threads",
        "Worker threads in use.",
        hb.threads.to_string(),
    );
    gauge(
        "spear_campaign_elapsed_ms",
        "Wall-clock ms since this invocation started.",
        hb.elapsed_ms.to_string(),
    );
    gauge(
        "spear_campaign_eta_ms",
        "Estimated remaining ms (absent until the first cell finishes).",
        match hb.eta_ms {
            Some(v) => v.to_string(),
            None => "NaN".to_string(),
        },
    );
    gauge(
        "spear_campaign_committed_insts",
        "Committed instructions simulated by this invocation.",
        hb.committed_insts.to_string(),
    );
    gauge(
        "spear_campaign_kips",
        "Committed kilo-instructions per wall-clock second, all shards.",
        format!("{:.3}", hb.kips),
    );
    gauge(
        "spear_campaign_kips_per_shard",
        "Mean per-shard simulation throughput in KIPS.",
        format!("{:.3}", hb.kips_per_shard),
    );
    atomic("metrics.prom", prom)
}

/// Per-workload wall-time table over a set of cell results, sorted by
/// workload name.
pub fn workload_timings(results: &[CellResult]) -> Vec<WorkloadTiming> {
    let mut out: Vec<WorkloadTiming> = Vec::new();
    for r in results {
        match out.binary_search_by(|t| t.workload.as_str().cmp(&r.workload)) {
            Ok(i) => {
                out[i].cells += 1;
                out[i].wall_ms += r.wall_ms;
            }
            Err(i) => out.insert(
                i,
                WorkloadTiming {
                    workload: r.workload.clone(),
                    cells: 1,
                    wall_ms: r.wall_ms,
                },
            ),
        }
    }
    out
}

/// Phase 1 for one shard: compile the p-thread table against the
/// profiling input, attach it to the evaluation image, plan the
/// simulated intervals and capture a warm checkpoint at each one's
/// start. The warmer trains `bpred_cfg`'s predictor (labelled
/// `key.bpred`), so the checkpoints restore only into cores configured
/// with the same spec. When the shard serves the `trace` front end, the
/// workload's committed path is also recorded (or fetched from
/// `traces`) so trace-backed cells can replay it.
fn prepare_workload(
    key: &ShardKey,
    bpred_cfg: spear_bpred::PredictorConfig,
    traces: Option<&TraceCache>,
) -> Result<WorkloadData, String> {
    let name = key.workload.as_str();
    let sample = &key.sample;
    let (w, scale) =
        spear_workloads::by_spec(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let profile = w.profile_program();
    let (compiled, _report) = SpearCompiler::new(CompilerConfig::default())
        .compile(&profile)
        .map_err(|e| format!("{name}: compile failed: {e}"))?;
    let binary = SpearCompiler::attach(w.eval_program_scaled(scale), compiled.table);
    // The cache substrate is machine-independent (Table 2 geometry is
    // shared by every evaluated model), so these checkpoints serve all
    // (machine, latency) points that share the predictor spec.
    let hier = spear_mem::HierConfig::paper();
    let (set, plan) = match key.simpoint {
        None => {
            // Systematic sampling: the boundaries are generated lazily
            // because the program length is known only at halt.
            let set = capture_checkpoints(
                &binary.program,
                name,
                hier,
                bpred_cfg,
                sample.boundaries(),
                MAX_FUNCTIONAL_INSTS,
            )?;
            let plan: Vec<(Interval, u64)> = plan_intervals(set.total_insts, sample)
                .into_iter()
                .map(|iv| (iv, 1))
                .collect();
            debug_assert_eq!(plan.len(), set.checkpoints.len());
            (set, plan)
        }
        Some(sp) => {
            // Pass A (functional only, no warming): slice the committed
            // stream into basic-block vectors and cluster them into
            // phases. The partial tail interval clusters with the rest —
            // projection is frequency-normalized, so a short interval
            // compares by profile, not length.
            let (bbvs, total_a) = spear_exec::collect_bbvs(
                &binary.program,
                sample.interval_len,
                MAX_FUNCTIONAL_INSTS,
            )
            .map_err(|e| format!("{name}: BBV pass failed: {e}"))?;
            let matrix: Vec<Vec<(u64, u64)>> = bbvs.iter().map(|b| b.counts.clone()).collect();
            let cfg = spear_simpoint::SimpointConfig {
                k: sp.k as usize,
                seed: sp.seed,
                ..Default::default()
            };
            let clustering = spear_simpoint::cluster(&matrix, &cfg);
            // One representative interval per phase, carrying the phase's
            // population count as its aggregation weight; ascending by
            // start instruction so pass B captures in stream order.
            let mut plan: Vec<(Interval, u64)> = clustering
                .representatives
                .iter()
                .zip(&clustering.counts)
                .map(|(&r, &count)| {
                    let b = &bbvs[r];
                    (
                        Interval {
                            index: b.index,
                            start_inst: b.start_inst,
                            len: b.len,
                        },
                        count,
                    )
                })
                .collect();
            plan.sort_by_key(|(iv, _)| iv.start_inst);
            let boundaries: Vec<u64> = plan.iter().map(|(iv, _)| iv.start_inst).collect();
            // Pass B: one warming pass over the whole stream, capturing a
            // checkpoint only at each representative's start boundary.
            let set = capture_checkpoints_at(
                &binary.program,
                name,
                hier,
                bpred_cfg,
                &boundaries,
                MAX_FUNCTIONAL_INSTS,
            )?;
            if set.total_insts != total_a {
                return Err(format!(
                    "{name}: BBV pass ran {total_a} instructions but the \
                     checkpoint pass ran {} — non-deterministic workload?",
                    set.total_insts
                ));
            }
            (set, plan)
        }
    };
    let trace = if key.trace {
        Some(match traces {
            Some(tc) => tc.get_or_record(name, &binary, MAX_FUNCTIONAL_INSTS)?,
            None => Arc::new(record_trace(name, &binary, MAX_FUNCTIONAL_INSTS)?),
        })
    } else {
        None
    };
    Ok(WorkloadData {
        name: name.to_string(),
        bpred: key.bpred.clone(),
        binary,
        set,
        plan,
        trace,
    })
}

/// Phase 2 for one cell: restore the interval's checkpoint into a fresh
/// core — program-driven or replaying the recorded trace from the
/// checkpoint's cursor — and simulate the interval's instruction budget.
fn run_cell(
    wd: &WorkloadData,
    point: &MachinePoint,
    frontend: &str,
    interval: Interval,
    weight: u64,
    window: Option<u64>,
) -> Result<CellResult, String> {
    debug_assert_eq!(
        wd.bpred,
        point.config.bpred.spec_label(),
        "cell paired with a shard warmed for a different predictor"
    );
    let cp = wd.set.at(interval.start_inst).ok_or_else(|| {
        format!(
            "{}: no checkpoint at instruction {}",
            wd.name, interval.start_inst
        )
    })?;
    let t0 = Instant::now();
    let mut core = match frontend {
        "trace" => {
            let tf = wd
                .trace
                .as_ref()
                .ok_or_else(|| format!("{}: shard carries no recorded trace", wd.name))?;
            let src = TraceSource::at_cursor(tf, cp.trace_cursor)
                .map_err(|e| format!("{} interval {}: {e}", wd.name, interval.index))?;
            Core::with_source(&wd.binary, point.config.clone(), Box::new(src))
        }
        _ => Core::new(&wd.binary, point.config.clone()),
    };
    cp.restore_into(&mut core)?;
    if let Some(len) = window {
        core.enable_windows(len);
    }
    let res = core
        .run(MAX_CELL_CYCLES, interval.len)
        .map_err(|e| format!("{} on {}: {e}", wd.name, point.machine))?;
    if res.exit == RunExit::CycleBudget {
        return Err(format!(
            "{} on {} interval {}: cycle ceiling hit before the instruction budget",
            wd.name, point.machine, interval.index
        ));
    }
    Ok(CellResult {
        schema_version: CELL_SCHEMA_VERSION,
        workload: wd.name.clone(),
        machine: point.machine.clone(),
        bpred: wd.bpred.clone(),
        frontend: frontend.to_string(),
        mem_latency: point.mem_latency,
        interval: interval.index,
        start_inst: interval.start_inst,
        target_insts: interval.len,
        weight,
        exit: res.exit,
        wall_ms: t0.elapsed().as_millis() as u64,
        stats: res.stats,
    })
}

/// Run `f` over `items` on `threads` workers, preserving order.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    crossbeam::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                results.lock()[i] = Some(r);
            });
        }
    })
    .expect("worker panicked");
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_is_unknown_before_the_first_cell_and_under_zero_threads() {
        assert_eq!(eta_ms(0, 0, 100, 4), None, "no data yet");
        assert_eq!(eta_ms(500, 0, 100, 4), None, "zero executed");
        assert_eq!(eta_ms(500, 5, 100, 0), None, "degenerate thread count");
    }

    #[test]
    fn eta_divides_mean_cell_time_across_threads() {
        // 10 cells took 1000ms -> 100ms/cell; 40 remain on 4 threads.
        assert_eq!(eta_ms(1000, 10, 40, 4), Some(1000));
        assert_eq!(eta_ms(1000, 10, 0, 4), Some(0), "nothing remaining");
    }

    #[test]
    fn cell_key_label_and_file_stems_keep_their_historical_spelling() {
        let key = |bpred: &str, frontend: &str| CellKey {
            group: GroupKey {
                workload: "pointer".into(),
                machine: "superscalar".into(),
                bpred: bpred.into(),
                frontend: frontend.into(),
                mem_latency: 120,
            },
            interval: 3,
        };
        let plain = key("bimodal", "program");
        assert_eq!(
            plain.to_string(),
            "pointer/superscalar/bimodal/program/120/3"
        );
        assert_eq!(plain.group.file_stem(), "pointer-superscalar-120");
        assert_eq!(
            key("bimodal", "trace").group.file_stem(),
            "pointer-superscalar-trace-120"
        );
        let label = spear_bpred::PredictorConfig::paper()
            .with_spec("tage:tables=6,bits=10")
            .unwrap()
            .spec_label();
        let tage = key(&label, "trace");
        assert_eq!(
            tage.to_string(),
            format!("pointer/superscalar/{label}/trace/120/3")
        );
        assert_eq!(
            tage.group.file_stem(),
            "pointer-superscalar-tage_tables_6_bits_10_tag_8_hmin_4_hmax_64_decay_262144-trace-120"
        );
        let mut spear = key("bimodal", "program").group;
        spear.machine = "SPEAR-128.x".into();
        assert_eq!(spear.file_stem(), "pointer-SPEAR-128_x-120");
        // The derived order is the historical tuple order: group fields
        // in declaration order, then the interval.
        let mut later = plain.clone();
        later.interval = 4;
        assert!(plain < later && later < key("bimodal", "trace"));
    }

    #[test]
    fn heartbeat_files_are_written_atomically_and_parse_back() {
        let dir = std::env::temp_dir().join(format!("spear-heartbeat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let hb = HeartbeatDoc {
            done: 12,
            total: 48,
            executed: 12,
            threads: 4,
            elapsed_ms: 6_000,
            eta_ms: eta_ms(6_000, 12, 36, 4),
            committed_insts: 1_200_000,
            kips: 200.0,
            kips_per_shard: 50.0,
            last_cell: "pointer/SPEAR-128/bimodal/program/120/3".into(),
        };
        write_heartbeat(&dir, &hb).unwrap();
        // The temp files were renamed away, not left behind.
        assert!(!dir.join("progress.json.tmp").exists());
        assert!(!dir.join("metrics.prom.tmp").exists());
        let back: HeartbeatDoc =
            serde::json::from_str(&std::fs::read_to_string(dir.join("progress.json")).unwrap())
                .unwrap();
        assert_eq!(back, hb);
        assert_eq!(back.eta_ms, Some(4_500));
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(
            prom.contains("# TYPE spear_campaign_cells_done gauge"),
            "{prom}"
        );
        assert!(prom.contains("spear_campaign_cells_done 12"), "{prom}");
        assert!(prom.contains("spear_campaign_kips 200.000"), "{prom}");
        assert!(prom.contains("spear_campaign_eta_ms 4500"), "{prom}");
        // An unknown ETA renders as NaN, the Prometheus idiom for
        // "no value", never as a parse-breaking empty sample.
        let cold = HeartbeatDoc { eta_ms: None, ..hb };
        write_heartbeat(&dir, &cold).unwrap();
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("spear_campaign_eta_ms NaN"), "{prom}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
