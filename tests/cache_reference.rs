//! Differential test of the cache model against a timestamp reference.
//!
//! `Cache` keeps one recency order per set. The reference below keeps
//! what the model kept before that order existed: one `(line, kind,
//! owner, stamp)` slot per way, a clock that ticks once per probe and
//! once per fill, and a victim rule of "first way with the smallest
//! stamp among the ways that qualify". The two must make the same
//! choice on every call, including which calls draw from the
//! replacement RNG.

use flatwalk::mem::{Cache, CacheConfig, CacheStats, Eviction};
use flatwalk::types::rng::SplitMix64;
use flatwalk::types::{AccessKind, OwnerId};

#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    kind: AccessKind,
    owner: OwnerId,
    /// Clock value of the last probe hit or fill (larger = more recent).
    stamp: u64,
}

/// Stamp-based true LRU with the page-table-priority bias.
struct ReferenceCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Option<Slot>>>,
    clock: u64,
    rng: SplitMix64,
    stats: CacheStats,
}

impl ReferenceCache {
    fn new(cfg: CacheConfig) -> Self {
        ReferenceCache {
            sets: vec![vec![None; cfg.ways]; cfg.sets()],
            clock: 0,
            rng: SplitMix64::new(0xCAC4E ^ cfg.size_bytes ^ (cfg.ways as u64) << 32),
            stats: CacheStats::default(),
            cfg,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn way_of(&self, line: u64) -> Option<usize> {
        self.sets[self.set_of(line)]
            .iter()
            .position(|slot| slot.is_some_and(|s| s.line == line))
    }

    fn contains(&self, line: u64) -> bool {
        self.way_of(line).is_some()
    }

    fn probe(&mut self, line: u64, kind: AccessKind) -> bool {
        self.clock += 1;
        let set = self.set_of(line);
        let hit = match self.way_of(line) {
            Some(way) => {
                self.sets[set][way].as_mut().unwrap().stamp = self.clock;
                true
            }
            None => false,
        };
        match kind {
            AccessKind::Data => self.stats.data.record(hit),
            AccessKind::PageTable => self.stats.page_table.record(hit),
        }
        hit
    }

    /// First way holding the smallest stamp among occupied ways that
    /// satisfy `pred`.
    fn lru_where(&self, set: usize, pred: impl Fn(&Slot) -> bool) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        for (way, slot) in self.sets[set].iter().enumerate() {
            if let Some(s) = slot {
                if pred(s) && best.is_none_or(|(_, stamp)| s.stamp < stamp) {
                    best = Some((way, s.stamp));
                }
            }
        }
        best.map(|(way, _)| way)
    }

    fn fill(
        &mut self,
        line: u64,
        kind: AccessKind,
        owner: OwnerId,
        priority_active: bool,
    ) -> Option<Eviction> {
        if self.contains(line) {
            return None;
        }
        self.clock += 1;
        self.stats.fills += 1;
        let set = self.set_of(line);
        let slot = Slot {
            line,
            kind,
            owner,
            stamp: self.clock,
        };
        if let Some(way) = self.sets[set].iter().position(Option::is_none) {
            self.sets[set][way] = Some(slot);
            return None;
        }
        let biased =
            priority_active && self.cfg.pt_priority && self.rng.chance(self.cfg.priority_prob);
        let victim_way = if biased {
            self.lru_where(set, |s| s.kind == AccessKind::Data && s.owner == owner)
                .or_else(|| self.lru_where(set, |s| s.kind == AccessKind::Data))
                .or_else(|| self.lru_where(set, |_| true))
        } else {
            self.lru_where(set, |_| true)
        }
        .unwrap();
        let victim = self.sets[set][victim_way].replace(slot).unwrap();
        if priority_active && self.cfg.pt_priority && victim.kind == AccessKind::PageTable {
            self.stats.pt_evictions_during_priority += 1;
        }
        Some(Eviction {
            line: victim.line,
            kind: victim.kind,
            owner: victim.owner,
        })
    }

    fn resident_lines(&self, kind: AccessKind) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|slot| slot.is_some_and(|s| s.kind == kind))
            .count()
    }
}

/// Drives `Cache` and the reference through `ops` seeded random calls
/// and compares every result, then the final statistics and contents.
fn run_case(cfg: CacheConfig, owners: u8, ops: usize, seed: u64) {
    let context = format!("{cfg:?} owners={owners} seed={seed}");
    let mut cache = Cache::new(cfg.clone());
    let mut reference = ReferenceCache::new(cfg.clone());
    let mut rng = SplitMix64::new(seed);
    // About twice the capacity in distinct lines: hits, misses and
    // evictions all stay common.
    let span = (cfg.sets() * cfg.ways * 2) as u64 + 1;
    let mut touched = Vec::with_capacity(ops);
    for step in 0..ops {
        let line = rng.next_range(span);
        touched.push(line);
        let kind = if rng.chance(0.5) {
            AccessKind::PageTable
        } else {
            AccessKind::Data
        };
        let owner = OwnerId(rng.next_range(u64::from(owners)) as u8);
        let priority_active = rng.chance(0.7);
        match rng.next_range(4) {
            0 => assert_eq!(
                cache.probe(line, kind),
                reference.probe(line, kind),
                "probe({line}) at step {step}: {context}"
            ),
            1 => assert_eq!(
                cache.fill(line, kind, owner, priority_active),
                reference.fill(line, kind, owner, priority_active),
                "fill({line}) at step {step}: {context}"
            ),
            // The hierarchy's pattern: probe, and on a miss fill without
            // the residency re-scan.
            2 => {
                let hit = cache.probe(line, kind);
                assert_eq!(
                    hit,
                    reference.probe(line, kind),
                    "probe({line}) at step {step}: {context}"
                );
                if !hit {
                    assert_eq!(
                        cache.fill_after_miss(line, kind, owner, priority_active),
                        reference.fill(line, kind, owner, priority_active),
                        "fill_after_miss({line}) at step {step}: {context}"
                    );
                }
            }
            _ => assert_eq!(
                cache.contains(line),
                reference.contains(line),
                "contains({line}) at step {step}: {context}"
            ),
        }
    }
    assert_eq!(cache.stats(), &reference.stats, "stats: {context}");
    for kind in [AccessKind::Data, AccessKind::PageTable] {
        assert_eq!(
            cache.resident_lines(kind),
            reference.resident_lines(kind),
            "resident {kind:?} lines: {context}"
        );
    }
    for &line in &touched {
        assert_eq!(
            cache.contains(line),
            reference.contains(line),
            "final contains({line}): {context}"
        );
    }
}

#[test]
fn cache_matches_timestamp_reference() {
    let mut rng = SplitMix64::new(0x5EED_CAC4E);
    // Every associativity up to the 16 that fills the order word, both
    // priority settings, the bias at its edges and its default, and one
    // to four owners; the set count varies over 1–64 from case to case.
    for ways in 1..=Cache::MAX_WAYS {
        for pt_priority in [false, true] {
            for prob in [0.0, 0.5, 0.99, 1.0] {
                for owners in 1..=4u8 {
                    let sets = 1usize << rng.next_range(7);
                    let cfg = CacheConfig::new("ref", (sets * ways * 64) as u64, ways, 1)
                        .with_pt_priority(pt_priority)
                        .with_priority_prob(prob);
                    let ops = 6 * sets * ways + 64;
                    run_case(cfg, owners, ops, rng.next_u64());
                }
            }
        }
    }
}

#[test]
fn one_set_of_sixteen_ways_matches_reference_over_long_runs() {
    // A single 16-way set keeps every position of the order word busy,
    // including position 15, for thousands of replacements.
    for (pt_priority, prob) in [(false, 0.99), (true, 0.99), (true, 0.5)] {
        let cfg = CacheConfig::new("ref16", 16 * 64, 16, 1)
            .with_pt_priority(pt_priority)
            .with_priority_prob(prob);
        for seed in 0..4 {
            run_case(cfg.clone(), 3, 20_000, seed);
        }
    }
}
