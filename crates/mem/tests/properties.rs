//! Property-based tests of the cache model against a reference
//! implementation and its structural invariants.

use proptest::prelude::*;
use spear_mem::{AccessKind, Cache, CacheGeometry, HierConfig, Hierarchy, ReplPolicy};
use std::collections::HashMap;

/// A trivially correct reference for an LRU set-associative cache.
struct RefCache {
    sets: usize,
    assoc: usize,
    block: u64,
    // set → ordered (MRU first) list of tags.
    lines: HashMap<usize, Vec<u64>>,
}

impl RefCache {
    fn new(g: CacheGeometry) -> RefCache {
        RefCache {
            sets: g.sets,
            assoc: g.assoc,
            block: g.block_bytes as u64,
            lines: HashMap::new(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let blk = addr / self.block;
        let set = (blk % self.sets as u64) as usize;
        let tag = blk / self.sets as u64;
        let list = self.lines.entry(set).or_default();
        if let Some(pos) = list.iter().position(|&t| t == tag) {
            list.remove(pos);
            list.insert(0, tag);
            true
        } else {
            list.insert(0, tag);
            list.truncate(self.assoc);
            false
        }
    }
}

fn small_geom() -> CacheGeometry {
    CacheGeometry {
        sets: 8,
        assoc: 2,
        block_bytes: 16,
    }
}

proptest! {
    /// Our LRU cache must agree hit-for-hit with the reference model on
    /// arbitrary read streams.
    #[test]
    fn lru_matches_reference(addrs in proptest::collection::vec(0u64..4096, 1..400)) {
        let mut ours = Cache::new(small_geom(), ReplPolicy::Lru);
        let mut reference = RefCache::new(small_geom());
        for (i, &a) in addrs.iter().enumerate() {
            let expect = reference.access(a);
            let got = ours.access(a, false).hit;
            prop_assert_eq!(got, expect, "access #{} to {:#x}", i, a);
        }
    }

    /// Hits + misses always equals accesses; misses never exceed accesses.
    #[test]
    fn stats_are_consistent(
        ops in proptest::collection::vec((0u64..65536, any::<bool>()), 1..300)
    ) {
        let mut c = Cache::new(small_geom(), ReplPolicy::Lru);
        for &(a, w) in &ops {
            c.access(a, w);
        }
        let s = c.stats;
        prop_assert_eq!(s.accesses(), ops.len() as u64);
        prop_assert!(s.misses() <= s.accesses());
        prop_assert!(s.writebacks <= s.write_misses + s.writes,
            "a writeback needs a prior dirtying write");
    }

    /// Immediately re-accessing any address is always a (possibly delayed)
    /// hit, under every replacement policy.
    #[test]
    fn immediate_reaccess_hits(
        addrs in proptest::collection::vec(0u64..100_000, 1..200),
        policy in prop_oneof![
            Just(ReplPolicy::Lru),
            Just(ReplPolicy::Fifo),
            Just(ReplPolicy::Random)
        ]
    ) {
        let mut c = Cache::new(small_geom(), policy);
        for &a in &addrs {
            c.access(a, false);
            prop_assert!(c.access(a, false).hit, "{:#x} must hit right after a fill", a);
        }
    }

    /// Hierarchy latency is always one of the three well-formed sums, and
    /// per-PC miss accounting matches the L1D read+write miss counters
    /// for main-thread traffic.
    #[test]
    fn hierarchy_latency_and_accounting(
        ops in proptest::collection::vec((0u64..(1 << 22), any::<bool>(), 0u32..8), 1..400)
    ) {
        let mut h = Hierarchy::new(HierConfig::paper());
        let mut now = 0u64;
        for &(a, w, pc) in &ops {
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            let acc = h.access_data(a, kind, pc, false, now);
            prop_assert!(
                acc.latency == 1 || acc.latency == 13 || acc.latency == 133
                    || (acc.latency > 1 && acc.latency <= 133),
                "latency {}", acc.latency
            );
            now += 200; // past every fill: no pending merges
        }
        prop_assert_eq!(h.pc_misses.total(), h.l1d.stats.misses());
    }

    /// The timing-free warming path leaves exactly the warm state (tags,
    /// dirty bits, replacement order) the main-thread timing path does.
    /// Addresses alias on purpose: 10 tags 64 KiB apart collide in one
    /// L2 set and, 8 KiB apart, in one L1D set, so both levels evict
    /// (dirty lines included) and the L2 sees write-backs.
    #[test]
    fn warm_data_matches_main_thread_access_data(
        ops in proptest::collection::vec(
            (0u64..10, 0u64..8, 0u64..4, any::<bool>(), 0u64..200, 0u32..8),
            1..600,
        ),
        policy in prop_oneof![
            Just(ReplPolicy::Lru),
            Just(ReplPolicy::Fifo),
            Just(ReplPolicy::Random)
        ]
    ) {
        let cfg = HierConfig { policy, ..HierConfig::paper() };
        let mut timed = Hierarchy::new(cfg);
        let mut warm = Hierarchy::new(cfg);
        let mut now = 0u64;
        for (i, &(tag, alias, set, w, dt, pc)) in ops.iter().enumerate() {
            let addr = (tag << 16) | (alias << 13) | (set << 5);
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            // Small time steps leave fills in flight (delayed hits).
            now += dt;
            timed.access_data(addr, kind, pc, false, now);
            warm.warm_data(addr, w);
            if i % 50 == 0 {
                prop_assert_eq!(warm.snapshot(), timed.snapshot(), "after op #{}", i);
            }
        }
        prop_assert_eq!(warm.snapshot(), timed.snapshot());
        prop_assert_eq!(warm.l1d.stats, timed.l1d.stats);
        prop_assert_eq!(warm.l2.stats, timed.l2.stats);
        prop_assert!(warm.l1d.stats.writebacks > 0 || ops.len() < 100,
            "long streams must exercise dirty evictions");
    }

    /// Pending-fill merges never report more than the full walk and never
    /// less than an L1 hit.
    #[test]
    fn merge_latency_bounded(offsets in proptest::collection::vec(0u64..32, 1..50)) {
        let mut h = Hierarchy::new(HierConfig::paper());
        let first = h.access_data(0x8000, AccessKind::Read, 0, false, 0);
        for (i, &off) in offsets.iter().enumerate() {
            let acc = h.access_data(0x8000 + off % 32, AccessKind::Read, 0, false, i as u64);
            prop_assert!(acc.latency >= 1 && acc.latency <= first.latency);
        }
    }
}
