//! Run-wide prefetch counters must agree with the per-d-load profiles.
//!
//! On these seeded tr and fft inputs the main thread claims lines that a
//! p-thread *store* filled. Such a line is no prefetch of any d-load, so
//! neither the profiles nor the run-wide `useful_prefetches` /
//! `late_prefetches` may count its claim; `CoreStats::check_invariants`
//! compares the two.

use spear_repro::compiler::SpearCompiler;
use spear_repro::cpu::{Core, Machine, RunExit};
use spear_repro::spear::runner::compile_workload;
use spear_repro::workloads::{by_name, Input};

/// A data seed whose inputs exercise store-filled claims on tr and fft.
const SEED: u64 = 1u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x005E_ED0F_BE4C;

#[test]
fn store_filled_claims_keep_prefetch_counters_consistent() {
    for name in ["tr", "fft"] {
        let w = by_name(name).unwrap();
        let (table, _) = compile_workload(&w);
        let input = Input {
            seed: SEED,
            scale: w.profile_input.scale,
        };
        for machine in [Machine::Spear128, Machine::Spear256] {
            let binary = SpearCompiler::attach((w.build)(input), table.clone());
            let mut core = Core::new(&binary, machine.config(None));
            let res = core.run(200_000_000, u64::MAX).unwrap();
            assert_eq!(res.exit, RunExit::Halted, "{name} on {machine}");
            assert!(res.stats.pthread_loads > 0, "{name} on {machine}");
            res.stats
                .check_invariants(8)
                .unwrap_or_else(|e| panic!("{name} on {machine}: {e}"));
        }
    }
}
