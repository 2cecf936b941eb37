//! Basic-block-vector (BBV) collection for SimPoint-style phase
//! clustering.
//!
//! A *basic block* here is a maximal run of committed instructions
//! ending at a control-flow instruction, identified by the PC of its
//! first instruction. The committed stream is sliced into fixed-size
//! intervals (default 100k instructions, the classic SimPoint interval),
//! and each interval is summarized as a sparse vector of
//! `(block id, instructions executed in that block)` pairs — the
//! fingerprint that phase clustering (see the `spear-simpoint` crate)
//! groups into program phases.
//!
//! The collector is front-end agnostic: it observes only
//! `(pc, is_ctrl)` of each committed instruction, which the functional
//! interpreter, the cycle core's commit stream, and a decoded `.spt`
//! replay trace all agree on — so block ids are stable across record
//! and replay front ends. It is also `Clone`, and a clone taken
//! mid-interval continues to the exact same totals as the original,
//! which is what lets a checkpoint restore resume BBV collection
//! without re-running the prefix.

use crate::interp::{Interp, StepInfo, Stop};
use spear_isa::Program;
use std::collections::BTreeMap;

/// The classic SimPoint interval: 100k committed instructions.
pub const DEFAULT_BBV_INTERVAL: u64 = 100_000;

/// One interval's basic-block vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BbvInterval {
    /// Interval ordinal within the run (0-based).
    pub index: u64,
    /// First committed instruction of the interval.
    pub start_inst: u64,
    /// Committed instructions covered (the final interval of a run may
    /// be shorter than the configured length).
    pub len: u64,
    /// Sparse `(block id, instructions)` pairs, sorted by block id. The
    /// block id is the PC of the block's first instruction; the counts
    /// sum to `len`.
    pub counts: Vec<(u64, u64)>,
}

/// Streaming BBV collector over a committed-instruction stream.
///
/// Feed every committed instruction in order via
/// [`BbvCollector::observe`] (or [`BbvCollector::observe_committed`]
/// when only `(pc, is_ctrl)` is available, e.g. from a decoded trace),
/// then call [`BbvCollector::finish`] to flush the trailing partial
/// interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BbvCollector {
    interval_len: u64,
    /// Committed instructions observed so far.
    observed: u64,
    /// PC of the currently open basic block (valid when `block_len > 0`).
    block_start: u32,
    /// Instructions accumulated in the open block.
    block_len: u64,
    /// Instructions accumulated in the open interval.
    in_interval: u64,
    /// Block counts of the open interval.
    current: BTreeMap<u64, u64>,
    /// Closed intervals, in order.
    intervals: Vec<BbvInterval>,
}

impl BbvCollector {
    /// A collector slicing the stream into `interval_len`-instruction
    /// intervals.
    pub fn new(interval_len: u64) -> BbvCollector {
        assert!(interval_len > 0, "BBV interval length must be positive");
        BbvCollector {
            interval_len,
            observed: 0,
            block_start: 0,
            block_len: 0,
            in_interval: 0,
            current: BTreeMap::new(),
            intervals: Vec::new(),
        }
    }

    /// Committed instructions observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Observe one committed instruction from an interpreter step.
    #[inline]
    pub fn observe(&mut self, si: &StepInfo) {
        self.observe_committed(si.pc, si.inst.op.is_ctrl());
    }

    /// Observe one committed instruction given only its PC and whether
    /// it is a control-flow instruction — everything a replayed trace
    /// knows, and everything block identity depends on.
    #[inline]
    pub fn observe_committed(&mut self, pc: u32, is_ctrl: bool) {
        if self.block_len == 0 {
            self.block_start = pc;
        }
        self.block_len += 1;
        self.in_interval += 1;
        self.observed += 1;
        let boundary = self.in_interval == self.interval_len;
        if is_ctrl || boundary {
            // A block cut by an interval boundary is charged to each
            // side under the same id (its entry PC), so boundaries tile
            // the stream exactly without inventing instructions.
            *self.current.entry(self.block_start as u64).or_insert(0) += self.block_len;
            self.block_len = 0;
        }
        if boundary {
            self.close_interval();
        }
    }

    fn close_interval(&mut self) {
        let len = self.in_interval;
        let counts: Vec<(u64, u64)> = std::mem::take(&mut self.current).into_iter().collect();
        debug_assert_eq!(counts.iter().map(|&(_, n)| n).sum::<u64>(), len);
        self.intervals.push(BbvInterval {
            index: self.intervals.len() as u64,
            start_inst: self.observed - len,
            len,
            counts,
        });
        self.in_interval = 0;
    }

    /// Flush the open block and the trailing partial interval (if any)
    /// and return every interval in order. The interval lengths tile the
    /// observed stream exactly: they sum to [`BbvCollector::observed`].
    pub fn finish(mut self) -> Vec<BbvInterval> {
        if self.block_len > 0 {
            *self.current.entry(self.block_start as u64).or_insert(0) += self.block_len;
            self.block_len = 0;
        }
        if self.in_interval > 0 {
            self.close_interval();
        }
        self.intervals
    }
}

/// Run `program` through the functional interpreter collecting one BBV
/// per `interval_len` committed instructions. Returns the intervals and
/// the dynamic instruction count. Errors if the program faults or fails
/// to halt within `max_insts`.
pub fn collect_bbvs(
    program: &Program,
    interval_len: u64,
    max_insts: u64,
) -> Result<(Vec<BbvInterval>, u64), String> {
    let mut interp = Interp::new(program);
    let mut collector = BbvCollector::new(interval_len);
    let stop = interp
        .run_with(max_insts, |si, _| collector.observe(si))
        .map_err(|e| format!("BBV pass failed: {e}"))?;
    if stop != Stop::Halted {
        return Err(format!(
            "BBV pass hit the {max_insts}-instruction budget before halt"
        ));
    }
    let total = interp.icount;
    Ok((collector.finish(), total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_isa::asm::Asm;
    use spear_isa::reg::*;

    fn sum_loop(n: u64) -> Program {
        let mut a = Asm::new();
        let xs: Vec<u64> = (1..=n).collect();
        let base = a.alloc_u64("xs", &xs);
        a.li(R1, base as i64);
        a.li(R2, 0);
        a.li(R3, n as i64);
        a.label("loop");
        a.ld(R4, R1, 0);
        a.add(R2, R2, R4);
        a.addi(R1, R1, 8);
        a.addi(R3, R3, -1);
        a.bne(R3, R0, "loop");
        let out = a.reserve("out", 8);
        a.li(R5, out as i64);
        a.sd(R2, R5, 0);
        a.halt();
        a.finish().unwrap()
    }

    fn collect(p: &Program, interval: u64) -> (Vec<BbvInterval>, u64) {
        collect_bbvs(p, interval, 1_000_000).expect("program halts")
    }

    #[test]
    fn intervals_tile_the_committed_stream_exactly() {
        let p = sum_loop(37);
        for interval in [1, 7, 16, 64, 1_000_000] {
            let (ivs, total) = collect(&p, interval);
            let covered: u64 = ivs.iter().map(|iv| iv.len).sum();
            assert_eq!(covered, total, "interval {interval} must tile the stream");
            // And each interval's own counts sum to its length, with
            // contiguous start offsets.
            let mut at = 0;
            for (i, iv) in ivs.iter().enumerate() {
                assert_eq!(iv.index, i as u64);
                assert_eq!(iv.start_inst, at);
                assert_eq!(iv.counts.iter().map(|&(_, n)| n).sum::<u64>(), iv.len);
                assert!(iv.counts.windows(2).all(|w| w[0].0 < w[1].0), "sorted ids");
                at += iv.len;
            }
        }
    }

    #[test]
    fn blocks_are_cut_at_control_flow() {
        let p = sum_loop(5);
        let (ivs, total) = collect(&p, 1_000_000);
        assert_eq!(ivs.len(), 1, "whole run fits one interval");
        let loop_pc = *p.labels.get("loop").unwrap() as u64;
        let body = ivs[0]
            .counts
            .iter()
            .find(|&&(id, _)| id == loop_pc)
            .expect("loop body is its own block");
        // The first iteration falls through from the setup block (one
        // block spanning setup + body, ending at the backward branch);
        // the remaining 4 iterations re-enter at the loop head.
        assert_eq!(body.1, 20);
        assert_eq!(ivs[0].len, total);
    }

    #[test]
    fn collection_is_deterministic() {
        let p = sum_loop(23);
        assert_eq!(collect(&p, 10), collect(&p, 10));
    }

    #[test]
    fn a_clone_resumes_mid_interval_to_identical_totals() {
        let p = sum_loop(29);
        // Reference: one uninterrupted pass.
        let (want, total) = collect(&p, 16);

        // Interrupted pass: stop mid-interval, clone the collector (the
        // checkpoint payload), and resume on a second interpreter from
        // the captured architectural state.
        let cut = total / 2;
        assert!(cut % 16 != 0, "cut must land mid-interval");
        let mut interp = Interp::new(&p);
        let mut collector = BbvCollector::new(16);
        while interp.icount < cut {
            let si = interp.step().unwrap();
            collector.observe(&si);
        }
        let (regs, mem, pc, icount) = (
            interp.regs.clone(),
            interp.mem.clone(),
            interp.pc,
            interp.icount,
        );
        let mut resumed = Interp::from_state(&p, regs, mem, pc, icount);
        let mut resumed_collector = collector.clone();
        resumed
            .run_with(u64::MAX, |si, _| resumed_collector.observe(si))
            .unwrap();
        assert_eq!(resumed_collector.observed(), total);
        assert_eq!(resumed_collector.finish(), want);
    }

    #[test]
    fn partial_tail_interval_is_emitted() {
        let p = sum_loop(3);
        let (ivs, total) = collect(&p, total_minus_one(&p));
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[1].len, 1, "one trailing instruction");
        assert_eq!(ivs[0].len + ivs[1].len, total);
    }

    fn total_minus_one(p: &Program) -> u64 {
        let mut i = Interp::new(p);
        i.run(u64::MAX).unwrap();
        i.icount - 1
    }
}
