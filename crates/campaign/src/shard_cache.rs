//! The checkpoint-shard cache: warm per-workload state (compiled binary,
//! functional-pass checkpoints, interval plan) built once and shared
//! read-only across every cell of every job that needs it.
//!
//! Phase 1 of a campaign — compile the p-thread table, run the functional
//! pass, capture warm checkpoints — is the expensive fixed cost of a
//! sweep, and it depends only on `(workload, predictor, interval_len,
//! stride)`, never on the (machine, latency) grid. (The predictor is part
//! of the key because the warmer trains the *configured* predictor, so
//! warm checkpoints differ per predictor spec.) A resident server running
//! many jobs over the same workloads would otherwise pay it once per job;
//! with the cache it pays once per shard, and a 10k–1M-cell grid runs in
//! O(shards) memory.
//!
//! Eviction is least-recently-used under a byte budget (sizes estimated
//! by [`WorkloadData::approx_bytes`]). An entry being *used* by a running
//! job is an `Arc` clone, so eviction never invalidates in-flight work —
//! it only drops the cache's own reference.

use crate::engine::{SimpointSpec, WorkloadData};
use crate::sample::SampleSpec;
use parking_lot::Mutex;
use std::sync::Arc;

/// Cache key: the parameters phase-1 state actually depends on. No two
/// values are interchangeable, so each keys its own shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardKey {
    /// Workload spec.
    pub workload: String,
    /// Canonical label of the predictor the warmer trains.
    pub bpred: String,
    /// Whether the shard carries a recorded replay trace. A traced shard
    /// could serve program cells too, but not vice versa.
    pub trace: bool,
    /// SimPoint clustering, if any: a simpoint shard holds checkpoints
    /// at representative boundaries and population-count weights.
    pub simpoint: Option<SimpointSpec>,
    /// Interval length and stride.
    pub sample: SampleSpec,
}

/// Cumulative cache counters, for `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build the shard.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Estimated bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

struct Entry {
    key: ShardKey,
    data: Arc<WorkloadData>,
    bytes: u64,
}

struct Inner {
    /// Most-recently-used last.
    entries: Vec<Entry>,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// An LRU cache of [`WorkloadData`] shards under a byte budget.
pub struct ShardCache {
    budget: u64,
    inner: Mutex<Inner>,
}

impl ShardCache {
    /// A cache that keeps at most ~`budget_bytes` of estimated shard
    /// state resident (a single shard larger than the whole budget is
    /// still cached — the budget bounds the *sum*, evicting down to one
    /// entry at minimum).
    pub fn new(budget_bytes: u64) -> ShardCache {
        ShardCache {
            budget: budget_bytes,
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Fetch the shard for `key`, building it with `build` on a miss.
    /// Building happens *outside* the cache lock so a slow
    /// functional pass never blocks hits on other shards; if two threads
    /// race to build the same key, the first insert wins and the loser's
    /// copy is dropped.
    pub fn get_or_create(
        &self,
        key: &ShardKey,
        build: impl FnOnce() -> Result<WorkloadData, String>,
    ) -> Result<Arc<WorkloadData>, String> {
        {
            let mut g = self.inner.lock();
            if let Some(i) = g.entries.iter().position(|e| e.key == *key) {
                g.hits += 1;
                // Touch: move to most-recently-used.
                let e = g.entries.remove(i);
                let data = e.data.clone();
                g.entries.push(e);
                return Ok(data);
            }
            g.misses += 1;
        }
        let built = Arc::new(build()?);
        let bytes = built.approx_bytes();
        let mut g = self.inner.lock();
        if let Some(i) = g.entries.iter().position(|e| e.key == *key) {
            // Lost a build race; keep the incumbent.
            let e = g.entries.remove(i);
            let data = e.data.clone();
            g.entries.push(e);
            return Ok(data);
        }
        g.entries.push(Entry {
            key: key.clone(),
            data: built.clone(),
            bytes,
        });
        g.bytes += bytes;
        while g.bytes > self.budget && g.entries.len() > 1 {
            let victim = g.entries.remove(0);
            g.bytes -= victim.bytes;
            g.evictions += 1;
        }
        Ok(built)
    }

    /// Current counters.
    pub fn stats(&self) -> ShardCacheStats {
        let g = self.inner.lock();
        ShardCacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            resident_bytes: g.bytes,
            entries: g.entries.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointSet;
    use spear_isa::{PThreadTable, Program, SpearBinary};

    /// A synthetic shard whose approx_bytes is the per-checkpoint flat
    /// overhead times `checkpoints` (no memory images).
    fn shard(name: &str) -> WorkloadData {
        WorkloadData {
            name: name.to_string(),
            bpred: "bimodal".to_string(),
            binary: SpearBinary {
                program: Program::default(),
                table: PThreadTable::default(),
            },
            set: CheckpointSet {
                checkpoints: Vec::new(),
                total_insts: 0,
            },
            plan: Vec::new(),
            trace: None,
        }
    }

    /// The key of a plain (bimodal, program-only, systematic) shard.
    fn key(workload: &str) -> ShardKey {
        ShardKey {
            workload: workload.to_string(),
            bpred: "bimodal".to_string(),
            trace: false,
            simpoint: None,
            sample: SampleSpec {
                interval_len: 1000,
                stride: 1,
            },
        }
    }

    #[test]
    fn hits_after_first_build_and_counts() {
        let cache = ShardCache::new(u64::MAX);
        let a1 = cache.get_or_create(&key("a"), || Ok(shard("a"))).unwrap();
        let a2 = cache
            .get_or_create(&key("a"), || panic!("must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a1, &a2), "same shared shard");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_sample_specs_are_distinct_shards() {
        let cache = ShardCache::new(u64::MAX);
        cache.get_or_create(&key("a"), || Ok(shard("a"))).unwrap();
        let other = SampleSpec {
            interval_len: 500,
            stride: 2,
        };
        cache
            .get_or_create(
                &ShardKey {
                    sample: other,
                    ..key("a")
                },
                || Ok(shard("a")),
            )
            .unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn distinct_predictor_specs_are_distinct_shards() {
        let cache = ShardCache::new(u64::MAX);
        cache.get_or_create(&key("a"), || Ok(shard("a"))).unwrap();
        cache
            .get_or_create(
                &ShardKey {
                    bpred: "tage".into(),
                    ..key("a")
                },
                || Ok(shard("a")),
            )
            .unwrap();
        assert_eq!(cache.stats().entries, 2, "warm state is per predictor");
        assert_eq!(cache.stats().misses, 2);
        cache
            .get_or_create(
                &ShardKey {
                    bpred: "tage".into(),
                    ..key("a")
                },
                || panic!("cached"),
            )
            .unwrap();
    }

    #[test]
    fn distinct_supplies_are_distinct_shards() {
        // A program-only shard cannot serve trace-backed cells (no
        // recorded replay stream attached), so the trace flag must key
        // them apart.
        let cache = ShardCache::new(u64::MAX);
        cache.get_or_create(&key("a"), || Ok(shard("a"))).unwrap();
        cache
            .get_or_create(
                &ShardKey {
                    trace: true,
                    ..key("a")
                },
                || Ok(shard("a")),
            )
            .unwrap();
        assert_eq!(cache.stats().entries, 2, "supply is part of the key");
        assert_eq!(cache.stats().misses, 2);
        cache
            .get_or_create(
                &ShardKey {
                    trace: true,
                    ..key("a")
                },
                || panic!("cached"),
            )
            .unwrap();
    }

    #[test]
    fn distinct_simpoint_labels_are_distinct_shards() {
        // A systematic shard checkpoints every sampled interval start; a
        // simpoint shard only representative boundaries, with weights.
        // Different clustering parameters also differ from each other.
        let cache = ShardCache::new(u64::MAX);
        cache.get_or_create(&key("a"), || Ok(shard("a"))).unwrap();
        cache
            .get_or_create(
                &ShardKey {
                    simpoint: Some(SimpointSpec { k: 4, seed: 42 }),
                    ..key("a")
                },
                || Ok(shard("a")),
            )
            .unwrap();
        cache
            .get_or_create(
                &ShardKey {
                    simpoint: Some(SimpointSpec { k: 4, seed: 7 }),
                    ..key("a")
                },
                || Ok(shard("a")),
            )
            .unwrap();
        assert_eq!(cache.stats().entries, 3, "simpoint is part of the key");
        assert_eq!(cache.stats().misses, 3);
        cache
            .get_or_create(
                &ShardKey {
                    simpoint: Some(SimpointSpec { k: 4, seed: 42 }),
                    ..key("a")
                },
                || panic!("cached"),
            )
            .unwrap();
    }

    #[test]
    fn build_errors_are_propagated_and_not_cached() {
        let cache = ShardCache::new(u64::MAX);
        let err = cache
            .get_or_create(&key("a"), || Err("compile failed".to_string()))
            .unwrap_err();
        assert!(err.contains("compile failed"));
        // A later attempt builds again (and can succeed).
        cache.get_or_create(&key("a"), || Ok(shard("a"))).unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget_and_keeps_hot_entries() {
        // Zero budget: every insert evicts down to a single entry.
        let cache = ShardCache::new(0);
        cache.get_or_create(&key("a"), || Ok(shard("a"))).unwrap();
        cache.get_or_create(&key("b"), || Ok(shard("b"))).unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 1, "budget forces eviction to one entry");
        assert_eq!(s.evictions, 1);
        // The survivor is the most recent one ("b"): "a" must rebuild.
        let rebuilt = std::cell::Cell::new(false);
        cache
            .get_or_create(&key("a"), || {
                rebuilt.set(true);
                Ok(shard("a"))
            })
            .unwrap();
        assert!(rebuilt.get(), "evicted entry rebuilds");
        cache
            .get_or_create(&key("a"), || panic!("now cached"))
            .unwrap();
    }

    #[test]
    fn in_flight_arcs_survive_eviction() {
        let cache = ShardCache::new(0);
        let held = cache.get_or_create(&key("a"), || Ok(shard("a"))).unwrap();
        cache.get_or_create(&key("b"), || Ok(shard("b"))).unwrap();
        // "a" was evicted from the cache, but our Arc still works.
        assert_eq!(held.name, "a");
    }
}
