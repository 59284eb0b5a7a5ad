//! A set-associative cache with LRU and page-table-prioritized replacement.

use flatwalk_types::rng::SplitMix64;
use flatwalk_types::stats::HitMiss;
use flatwalk_types::{AccessKind, OwnerId, CACHE_LINE_BYTES};

/// Configuration of one cache level.
///
/// # Examples
///
/// ```
/// use flatwalk_mem::CacheConfig;
///
/// let l3 = CacheConfig::new("L3", 16 << 20, 8, 42).with_pt_priority(true);
/// assert_eq!(l3.sets(), 16 * 1024 * 1024 / 64 / 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Human-readable name used in reports (e.g. `"L2"`).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Load-to-use latency in cycles for a hit at this level
    /// (interpreted as the *total* latency to this level, per Table 1).
    pub latency: u64,
    /// Whether this level applies the page-table-priority replacement
    /// bias when the prioritization phase is active (paper §6.1 enables
    /// this for the L2 and the LLC).
    pub pt_priority: bool,
    /// Probability with which a priority-phase fill evicts a data line
    /// in preference to a page-table line (§6.1: "99 % of the time";
    /// "we empirically found that this ratio works well" — sweep it
    /// with the `ablation_ptp` experiment).
    pub priority_prob: f64,
}

impl CacheConfig {
    /// Creates a config with `pt_priority` disabled.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, capacity not a
    /// multiple of `ways * 64`, or a non-power-of-two set count) or if
    /// `ways` exceeds [`Cache::MAX_WAYS`].
    pub fn new(name: &'static str, size_bytes: u64, ways: usize, latency: u64) -> Self {
        let cfg = CacheConfig {
            name,
            size_bytes,
            ways,
            latency,
            pt_priority: false,
            priority_prob: Cache::PT_PRIORITY_PROB,
        };
        assert!(ways > 0, "cache must have at least one way");
        assert_eq!(
            size_bytes % (ways as u64 * CACHE_LINE_BYTES),
            0,
            "capacity must divide evenly into ways of 64 B lines"
        );
        assert!(
            cfg.sets().is_power_of_two(),
            "set count must be a power of two (got {})",
            cfg.sets()
        );
        assert!(
            ways <= Cache::MAX_WAYS,
            "at most {} ways (the per-set recency order keeps 4 bits per way)",
            Cache::MAX_WAYS
        );
        cfg
    }

    /// Enables or disables the page-table-priority replacement bias.
    pub fn with_pt_priority(mut self, enabled: bool) -> Self {
        self.pt_priority = enabled;
        self
    }

    /// Overrides the data-over-page-table eviction bias (default 0.99).
    pub fn with_priority_prob(mut self, prob: f64) -> Self {
        self.priority_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.ways as u64 * CACHE_LINE_BYTES)) as usize
    }
}

/// One set's replacement state: 32 B for up to [`Cache::MAX_WAYS`] ways.
///
/// `order` lists the valid ways by recency, most recent first, one 4-bit
/// way index per position (position `i` is bits `4i..4i + 4`). Only the
/// first `valid.count_ones()` positions are meaningful; the rest hold
/// leftovers that nothing reads.
#[derive(Debug, Clone, Copy)]
struct SetState {
    order: u64,
    /// Bit `w` set ⇔ way `w` holds a line.
    valid: u16,
    /// Bit `w` set ⇔ way `w` holds a page-table line.
    pt: u16,
    /// Owner of each way's line (meaningful where `valid` is set).
    owners: [OwnerId; Cache::MAX_WAYS],
}

const _: () = assert!(std::mem::size_of::<SetState>() == 32);

impl SetState {
    const EMPTY: SetState = SetState {
        order: 0,
        valid: 0,
        pt: 0,
        owners: [OwnerId::SINGLE; Cache::MAX_WAYS],
    };

    /// Way at recency position `pos` (0 = most recent).
    #[inline]
    fn way_at(&self, pos: usize) -> usize {
        (self.order >> (4 * pos)) as usize & 0xF
    }

    /// Moves the valid `way` to the front of the recency order.
    #[inline]
    fn touch(&mut self, way: usize) {
        const ONES: u64 = 0x1111_1111_1111_1111;
        // Nibbles equal to `way` become zero. The lowest zero nibble is
        // exact (borrows only run upward), and `way` sits among the
        // valid positions, below any leftover that might also match.
        let x = self.order ^ (way as u64).wrapping_mul(ONES);
        let zeros = x.wrapping_sub(ONES) & !x & (ONES << 3);
        let pos = zeros.trailing_zeros() as usize / 4;
        // Positions 0..pos move back one; `way` takes position 0.
        let span = (2u64 << (4 * pos + 3)).wrapping_sub(1);
        self.order = (self.order & !span) | ((self.order << 4) & span) | way as u64;
    }

    /// Records the kind and owner of the line just placed in `way`.
    #[inline]
    fn install_meta(&mut self, way: usize, kind: AccessKind, owner: OwnerId) {
        let bit = 1u16 << way;
        match kind {
            AccessKind::PageTable => self.pt |= bit,
            AccessKind::Data => self.pt &= !bit,
        }
        self.owners[way] = owner;
    }

    /// Kind of the line in `way`.
    #[inline]
    fn kind(&self, way: usize) -> AccessKind {
        if self.pt & (1 << way) != 0 {
            AccessKind::PageTable
        } else {
            AccessKind::Data
        }
    }

    /// The priority-phase victim of a full set of `ways`: the LRU data
    /// line of `owner`, else the LRU data line, else the LRU line.
    #[inline]
    fn biased_victim(&self, ways: usize, owner: OwnerId) -> usize {
        let mut any_data = None;
        for pos in (0..ways).rev() {
            let way = self.way_at(pos);
            if self.pt & (1 << way) == 0 {
                if self.owners[way] == owner {
                    return way;
                }
                any_data.get_or_insert(way);
            }
        }
        any_data.unwrap_or_else(|| self.way_at(ways - 1))
    }
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line address (address / 64).
    pub line: u64,
    /// What the evicted line held.
    pub kind: AccessKind,
    /// Which owner the evicted line belonged to.
    pub owner: OwnerId,
}

/// Per-cache statistics, split by access kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hit/miss tally for data accesses.
    pub data: HitMiss,
    /// Hit/miss tally for page-table accesses.
    pub page_table: HitMiss,
    /// Number of lines written by fills.
    pub fills: u64,
    /// Page-table lines evicted while the priority phase was active
    /// (should stay near zero when prioritization works).
    pub pt_evictions_during_priority: u64,
}

impl CacheStats {
    /// Total probes (data + page-table).
    pub fn probes(&self) -> u64 {
        self.data.total() + self.page_table.total()
    }

    /// Total accesses that touch the array (probes + fills); the quantity
    /// dynamic energy scales with.
    pub fn array_accesses(&self) -> u64 {
        self.probes() + self.fills
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.data.merge(other.data);
        self.page_table.merge(other.page_table);
        self.fills += other.fills;
        self.pt_evictions_during_priority += other.pt_evictions_during_priority;
    }
}

/// A set-associative, write-allocate cache model.
///
/// The model tracks tags only (no data payloads) and uses true-LRU
/// replacement, optionally biased to retain page-table lines
/// (see [`Cache::fill`]).
///
/// Tags live in one dense `u64` slab so the probe scan — the simulator's
/// single hottest loop — walks a contiguous run (an 8-way set is one host
/// cache line). Everything else a set needs (validity, kinds, owners and
/// the recency order) is one 32 B record per set, so a hit rewrites one
/// word and a victim search reads one record instead of a stamp per way.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Line addresses, set-major: way `w` of set `s` lives at
    /// `s * ways + w`; meaningful where the set's validity bit is set.
    lines: Box<[u64]>,
    /// Replacement state, one record per set.
    sets: Box<[SetState]>,
    set_mask: u64,
    rng: SplitMix64,
    stats: CacheStats,
}

impl Cache {
    /// Probability with which a priority-phase fill evicts a data line in
    /// preference to a page-table line (paper §6.1: "99 % of the time we
    /// choose to evict data over page table entries").
    pub const PT_PRIORITY_PROB: f64 = 0.99;

    /// Highest associativity the model supports: each set's recency order
    /// keeps one 4-bit way index per position in a `u64`. Every preset
    /// uses 4, 8 or 16 ways.
    pub const MAX_WAYS: usize = 16;

    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ways` exceeds [`Cache::MAX_WAYS`] (possible only for
    /// a config not built by [`CacheConfig::new`]).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.ways <= Self::MAX_WAYS,
            "at most {} ways",
            Self::MAX_WAYS
        );
        let sets = cfg.sets();
        Cache {
            lines: vec![0u64; sets * cfg.ways].into_boxed_slice(),
            sets: vec![SetState::EMPTY; sets].into_boxed_slice(),
            set_mask: sets as u64 - 1,
            rng: SplitMix64::new(0xCAC4E ^ cfg.size_bytes ^ (cfg.ways as u64) << 32),
            cfg,
            stats: CacheStats::default(),
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears statistics (but not contents); used to discard warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Warms the host's caches with `line`'s set (set record and tag
    /// addresses) ahead of a probe. A pure hint: simulator state,
    /// statistics, and results are unchanged whether or not it runs.
    #[inline]
    pub fn prefetch(&self, line: u64) {
        let set = self.set_index(line);
        flatwalk_sync::prefetch_read(&self.sets, set);
        flatwalk_sync::prefetch_read(&self.lines, set * self.cfg.ways);
    }

    /// Finds `line`'s way within `set`, if resident.
    #[inline]
    fn find_way(&self, set: usize, line: u64) -> Option<usize> {
        let base = set * self.cfg.ways;
        let mut mask = self.sets[set].valid;
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.lines[base + way] == line {
                return Some(way);
            }
        }
        None
    }

    /// Looks up `line`; on a hit refreshes LRU state and returns `true`.
    ///
    /// Records a hit or miss in the statistics under `kind`.
    pub fn probe(&mut self, line: u64, kind: AccessKind) -> bool {
        let set = self.set_index(line);
        let hit = match self.find_way(set, line) {
            Some(way) => {
                self.sets[set].touch(way);
                true
            }
            None => false,
        };
        let stats = match kind {
            AccessKind::Data => &mut self.stats.data,
            AccessKind::PageTable => &mut self.stats.page_table,
        };
        stats.record(hit);
        hit
    }

    /// Returns whether `line` is resident, without touching LRU or stats.
    pub fn contains(&self, line: u64) -> bool {
        let set = self.set_index(line);
        self.find_way(set, line).is_some()
    }

    /// Inserts `line` after a miss, choosing a victim if the set is full.
    ///
    /// Victim selection:
    ///
    /// * If the set has a free way, no eviction happens.
    /// * If `priority_active` and this level has `pt_priority` enabled:
    ///   with probability 0.99 the victim is the LRU line among *data*
    ///   lines — preferring data belonging to `owner` so that one
    ///   process' fills cannot displace another process' page table
    ///   (§6.1 multicore note) — falling back to the overall LRU line
    ///   when the set holds no data lines or in the remaining 1 % of
    ///   fills.
    /// * Otherwise: plain LRU.
    ///
    /// Returns the eviction, if any. If the line is already resident the
    /// call is a no-op returning `None`.
    pub fn fill(
        &mut self,
        line: u64,
        kind: AccessKind,
        owner: OwnerId,
        priority_active: bool,
    ) -> Option<Eviction> {
        let set = self.set_index(line);
        if self.find_way(set, line).is_some() {
            return None;
        }
        self.fill_absent(set, line, kind, owner, priority_active)
    }

    /// [`Cache::fill`] for a line the caller just probed absent — skips
    /// the residency re-scan. Callers must not have mutated the cache
    /// between the missing probe and this call.
    pub fn fill_after_miss(
        &mut self,
        line: u64,
        kind: AccessKind,
        owner: OwnerId,
        priority_active: bool,
    ) -> Option<Eviction> {
        let set = self.set_index(line);
        debug_assert!(self.find_way(set, line).is_none(), "line already resident");
        self.fill_absent(set, line, kind, owner, priority_active)
    }

    fn fill_absent(
        &mut self,
        set: usize,
        line: u64,
        kind: AccessKind,
        owner: OwnerId,
        priority_active: bool,
    ) -> Option<Eviction> {
        self.stats.fills += 1;
        let ways = self.cfg.ways;
        let base = set * ways;

        // Free way? Take the lowest clear bit; it joins the order at the
        // front, ahead of every valid way.
        let state = &mut self.sets[set];
        let free = !u32::from(state.valid) & ((1u32 << ways) - 1);
        if free != 0 {
            let way = free.trailing_zeros() as usize;
            state.valid |= 1 << way;
            state.order = state.order << 4 | way as u64;
            state.install_meta(way, kind, owner);
            self.lines[base + way] = line;
            return None;
        }

        let biased =
            priority_active && self.cfg.pt_priority && self.rng.chance(self.cfg.priority_prob);
        let state = &mut self.sets[set];
        let victim_way = if biased {
            state.biased_victim(ways, owner)
        } else {
            state.way_at(ways - 1)
        };
        let victim_kind = state.kind(victim_way);
        let victim_owner = state.owners[victim_way];
        state.install_meta(victim_way, kind, owner);
        state.touch(victim_way);
        let victim_line = std::mem::replace(&mut self.lines[base + victim_way], line);

        if priority_active && self.cfg.pt_priority && victim_kind == AccessKind::PageTable {
            self.stats.pt_evictions_during_priority += 1;
        }
        if flatwalk_obs::trace::repl_enabled() {
            flatwalk_obs::trace::emit_repl(&flatwalk_obs::trace::ReplRecord {
                cache: self.cfg.name,
                victim_line,
                victim_kind: match victim_kind {
                    AccessKind::PageTable => "pt",
                    AccessKind::Data => "data",
                },
                biased,
            });
        }
        Some(Eviction {
            line: victim_line,
            kind: victim_kind,
            owner: victim_owner,
        })
    }

    /// Number of resident lines matching `kind` (O(sets); for tests and
    /// reports).
    pub fn resident_lines(&self, kind: AccessKind) -> usize {
        self.sets
            .iter()
            .map(|s| {
                let of_kind = match kind {
                    AccessKind::PageTable => s.valid & s.pt,
                    AccessKind::Data => s.valid & !s.pt,
                };
                of_kind.count_ones() as usize
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize) -> Cache {
        // 4 sets x `ways` ways.
        Cache::new(CacheConfig::new(
            "T",
            4 * ways as u64 * CACHE_LINE_BYTES,
            ways,
            1,
        ))
    }

    #[test]
    fn probe_miss_then_hit_after_fill() {
        let mut c = tiny(2);
        assert!(!c.probe(100, AccessKind::Data));
        c.fill(100, AccessKind::Data, OwnerId::SINGLE, false);
        assert!(c.probe(100, AccessKind::Data));
        assert_eq!(c.stats().data.hits, 1);
        assert_eq!(c.stats().data.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny(2);
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, AccessKind::Data, OwnerId::SINGLE, false);
        c.fill(4, AccessKind::Data, OwnerId::SINGLE, false);
        // Touch line 0 so line 4 becomes LRU.
        assert!(c.probe(0, AccessKind::Data));
        let ev = c.fill(8, AccessKind::Data, OwnerId::SINGLE, false).unwrap();
        assert_eq!(ev.line, 4);
        assert!(c.contains(0));
        assert!(c.contains(8));
    }

    #[test]
    fn duplicate_fill_is_noop() {
        let mut c = tiny(2);
        c.fill(0, AccessKind::Data, OwnerId::SINGLE, false);
        assert_eq!(c.fill(0, AccessKind::Data, OwnerId::SINGLE, false), None);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn pt_priority_spares_page_table_lines() {
        let cfg = CacheConfig::new("T", 4 * 4 * CACHE_LINE_BYTES, 4, 1).with_pt_priority(true);
        let mut c = Cache::new(cfg);
        // Fill set 0 with 3 PT lines and 1 data line.
        c.fill(0, AccessKind::PageTable, OwnerId::SINGLE, true);
        c.fill(4, AccessKind::PageTable, OwnerId::SINGLE, true);
        c.fill(8, AccessKind::PageTable, OwnerId::SINGLE, true);
        c.fill(12, AccessKind::Data, OwnerId::SINGLE, true);
        // Now repeatedly fill new data lines; the PT lines should survive
        // (the data way keeps being recycled ~99% of the time).
        let mut pt_evicted = 0;
        for i in 1..=200u64 {
            if let Some(ev) = c.fill(12 + 4 * i, AccessKind::Data, OwnerId::SINGLE, true) {
                if ev.kind == AccessKind::PageTable {
                    pt_evicted += 1;
                }
            }
        }
        // Only the ~1% LRU escapes can touch PT lines, and once the three
        // PT lines are gone no more PT evictions are possible.
        assert!(
            pt_evicted <= 3,
            "PT lines should rarely be evicted under priority (got {pt_evicted}/200)"
        );
        assert_eq!(
            c.stats().pt_evictions_during_priority,
            pt_evicted,
            "priority-phase PT evictions must be tallied"
        );
    }

    #[test]
    fn without_priority_pt_lines_get_evicted_normally() {
        let cfg = CacheConfig::new("T", 4 * 2 * CACHE_LINE_BYTES, 2, 1).with_pt_priority(true);
        let mut c = Cache::new(cfg);
        c.fill(0, AccessKind::PageTable, OwnerId::SINGLE, false);
        c.fill(4, AccessKind::PageTable, OwnerId::SINGLE, false);
        // LRU (line 0) is evicted even though it is a PT line.
        let ev = c.fill(8, AccessKind::Data, OwnerId::SINGLE, false).unwrap();
        assert_eq!(ev.kind, AccessKind::PageTable);
        assert_eq!(ev.line, 0);
    }

    #[test]
    fn priority_prefers_same_owner_data() {
        let cfg = CacheConfig::new("T", 4 * 3 * CACHE_LINE_BYTES, 3, 1).with_pt_priority(true);
        let mut c = Cache::new(cfg);
        let me = OwnerId(1);
        let other = OwnerId(2);
        c.fill(0, AccessKind::Data, other, true); // oldest overall
        c.fill(4, AccessKind::Data, me, true);
        c.fill(8, AccessKind::PageTable, other, true);
        // Almost always the victim should be *my* data (line 4), not the
        // other owner's older data, and never the PT line (modulo the 1%).
        let mut evicted_mine = 0;
        for i in 1..=100u64 {
            // Refill my data each round so a same-owner candidate exists.
            if let Some(ev) = c.fill(4 + 12 * i, AccessKind::Data, me, true) {
                if ev.owner == me {
                    evicted_mine += 1;
                }
            }
        }
        assert!(
            evicted_mine >= 90,
            "same-owner data should be the preferred victim ({evicted_mine}/100)"
        );
        assert!(c.contains(8), "foreign PT line must survive");
    }

    #[test]
    fn sets_power_of_two_enforced() {
        let r = std::panic::catch_unwind(|| CacheConfig::new("bad", 3 * 64, 1, 1));
        assert!(r.is_err());
    }

    #[test]
    fn stats_merge_and_reset() {
        let mut c = tiny(2);
        c.probe(0, AccessKind::PageTable);
        c.fill(0, AccessKind::PageTable, OwnerId::SINGLE, false);
        let mut agg = CacheStats::default();
        agg.merge(c.stats());
        assert_eq!(agg.page_table.misses, 1);
        assert_eq!(agg.fills, 1);
        assert_eq!(agg.array_accesses(), 2);
        c.reset_stats();
        assert_eq!(c.stats().probes(), 0);
        // Contents survive the stats reset.
        assert!(c.contains(0));
    }
}
