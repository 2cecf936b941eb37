//! The full-detail reference of the `simpoint-campaign` set: for each
//! (workload, machine), the committed instructions and cycles of one
//! `Core::run` from the first instruction to halt, every instruction
//! simulated in detail. `simpoint_ipc_err_pct` measures the SimPoint
//! blend against it.
//!
//! Regenerate (after a change to the modelled machine or the kernels):
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- --regen-reference
//! ```

use crate::kernels::{self, EvalInput, Kernel};
use crate::simpoint::{spec_names, MACHINES, SCALE};
use crate::span::Tracer;
use spear_cpu::{Core, RunExit};
use std::path::PathBuf;

const FILE: &str = "reference/simpoint-full-detail.txt";
const TEXT: &str = include_str!("../reference/simpoint-full-detail.txt");

/// One (workload, machine) row.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    workload: String,
    machine: String,
    committed: u64,
    cycles: u64,
}

pub struct Reference {
    rows: Vec<Row>,
}

impl Reference {
    fn parse(text: &str) -> Result<Reference, String> {
        let mut rows = Vec::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|e| format!("{FILE}: bad number `{s}`: {e}"))
            };
            if f.len() != 4 {
                return Err(format!("{FILE}: malformed row `{line}`"));
            }
            rows.push(Row {
                workload: f[0].to_string(),
                machine: f[1].to_string(),
                committed: num(f[2])?,
                cycles: num(f[3])?,
            });
        }
        Ok(Reference { rows })
    }

    fn row(&self, workload: &str, machine: &str) -> Result<&Row, String> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.machine == machine)
            .ok_or_else(|| format!("{FILE} has no row for {workload} on {machine}"))
    }

    /// The workload's dynamic instruction count.
    pub fn total_insts(&self, workload: &str) -> Result<u64, String> {
        Ok(self.row(workload, MACHINES[0].name())?.committed)
    }

    /// Full-detail IPC of `workload` on `machine` (display name).
    pub fn ipc(&self, workload: &str, machine: &str) -> Result<f64, String> {
        let r = self.row(workload, machine)?;
        Ok(r.committed as f64 / r.cycles as f64)
    }
}

/// The stored reference, checked before use: every row's committed
/// count must equal the functional total of the kernel as built now.
pub fn load_checked(kernels: &[Kernel]) -> Result<Reference, String> {
    let refs = Reference::parse(TEXT)?;
    for k in kernels {
        let mut interp = spear_exec::Interp::new(&k.plain.program);
        interp
            .run(u64::MAX)
            .map_err(|e| format!("{}: functional run failed: {e}", k.spec))?;
        for m in MACHINES {
            let row = refs.row(&k.spec, m.name())?;
            if row.committed != interp.icount {
                return Err(format!(
                    "{FILE}: {} on {} committed {}, but the kernel now runs {} \
                     instructions; regenerate the reference",
                    k.spec,
                    m.name(),
                    row.committed,
                    interp.icount
                ));
            }
        }
    }
    Ok(refs)
}

/// Simulate every (workload, machine) of the set in full detail and
/// rewrite the reference file.
pub fn regenerate() -> Result<PathBuf, String> {
    let tracer = Tracer::new(false);
    let mut out = format!(
        "# Full-detail reference of the simpoint-campaign set (@x{SCALE}): one\n\
         # Core::run per row from the first instruction to halt.\n\
         # Regenerate: cargo run --release --manifest-path simbench/Cargo.toml -- --regen-reference\n\
         # workload machine committed cycles\n"
    );
    for spec in spec_names() {
        let k = kernels::prepare(&spec, EvalInput::Scaled(SCALE), &tracer, 0)?;
        for m in MACHINES {
            let mut core = Core::new(k.binary(m.is_spear()), m.config(None));
            let r = core
                .run(u64::MAX, u64::MAX)
                .map_err(|e| format!("{spec} on {}: {e}", m.name()))?;
            if r.exit != RunExit::Halted {
                return Err(format!("{spec} on {} did not halt", m.name()));
            }
            eprintln!("{spec} on {}: IPC {:.4}", m.name(), r.stats.ipc());
            out.push_str(&format!(
                "{spec} {} {} {}\n",
                m.name(),
                r.stats.committed,
                r.stats.cycles
            ));
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FILE);
    std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}
