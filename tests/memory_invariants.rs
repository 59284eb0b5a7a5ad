//! Property tests on the memory substrates: the cache model and the
//! buddy allocator.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use flatwalk::faults::FaultyAllocator;
use flatwalk::mem::{Cache, CacheConfig};
use flatwalk::os::{BuddyAllocator, BuddyStats};
use flatwalk::pt::PhysAllocator;
use flatwalk::types::rng::SplitMix64;
use flatwalk::types::{AccessKind, OwnerId, PageSize, PhysAddr};

/// Reference model of the buddy allocator, written as plainly as
/// possible: a `BTreeSet` of free addresses per order and a `HashMap`
/// of live blocks. `BuddyAllocator` must make exactly this model's
/// choices.
struct ReferenceBuddy {
    base: u64,
    free: Vec<BTreeSet<u64>>,
    live: HashMap<u64, u32>,
    free_bytes: u64,
    stats: BuddyStats,
}

impl ReferenceBuddy {
    fn new(base: u64, total: u64) -> Self {
        let max_order = (total / 4096).trailing_zeros() as usize;
        let mut free = vec![BTreeSet::new(); max_order + 1];
        free[max_order].insert(base);
        ReferenceBuddy {
            base,
            free,
            live: HashMap::new(),
            free_bytes: total,
            stats: BuddyStats::default(),
        }
    }

    fn alloc_order(&mut self, order: usize) -> Option<u64> {
        let from = (order..self.free.len()).find(|&o| !self.free[o].is_empty())?;
        let addr = self.free[from].pop_first().expect("non-empty");
        for o in (order..from).rev() {
            self.free[o].insert(addr + (4096u64 << o));
        }
        self.live.insert(addr, order as u32);
        self.free_bytes -= 4096u64 << order;
        Some(addr)
    }

    fn alloc(&mut self, size: PageSize) -> Option<u64> {
        let order = match size {
            PageSize::Size4K => 0,
            PageSize::Size2M => 9,
            PageSize::Size1G => 18,
        };
        let result = self.alloc_order(order);
        let slot = match size {
            PageSize::Size4K => &mut self.stats.small,
            PageSize::Size2M => &mut self.stats.huge,
            PageSize::Size1G => &mut self.stats.giant,
        };
        slot.0 += 1;
        if result.is_none() {
            slot.1 += 1;
        }
        result
    }

    fn free(&mut self, mut addr: u64) {
        let mut order = self.live.remove(&addr).expect("live block") as usize;
        self.free_bytes += 4096u64 << order;
        while order + 1 < self.free.len() {
            let buddy = self.base + ((addr - self.base) ^ (4096u64 << order));
            if !self.free[order].remove(&buddy) {
                break;
            }
            addr = addr.min(buddy);
            order += 1;
        }
        self.free[order].insert(addr);
    }

    fn largest_free_order(&self) -> Option<u32> {
        (0..self.free.len())
            .rev()
            .find(|&o| !self.free[o].is_empty())
            .map(|o| o as u32)
    }

    fn fragment_region(&mut self, rng: &mut SplitMix64, hold: f64, max_bytes: u64) -> Vec<u64> {
        let budget = (max_bytes / 4096).max(1);
        let mut taken = Vec::new();
        while (taken.len() as u64) < budget {
            let Some(addr) = self.alloc_order(0) else {
                break;
            };
            taken.push(addr);
        }
        let mut held = Vec::new();
        for addr in taken {
            if rng.chance(hold) {
                held.push(addr);
            } else {
                self.free(addr);
            }
        }
        held
    }
}

/// Pools (base, bytes) for the differential test: zero and nonzero
/// bases, small enough for 1 GB requests to fail and large enough for
/// them to succeed.
const POOLS: [(u64, u64); 3] = [(0, 64 << 20), (48 << 20, 16 << 20), (1 << 30, 1 << 30)];

#[test]
#[should_panic(expected = "free of unallocated block")]
fn free_below_base_panics() {
    let mut b = BuddyAllocator::new(1 << 30, 1 << 30);
    b.alloc(PageSize::Size4K).unwrap();
    b.free(PhysAddr::new(0x1000));
}

#[test]
#[should_panic(expected = "free of unallocated block")]
fn free_past_pool_panics() {
    let mut b = BuddyAllocator::new(1 << 30, 1 << 30);
    b.alloc(PageSize::Size4K).unwrap();
    b.free(PhysAddr::new(2 << 30));
}

#[test]
#[should_panic(expected = "free of unallocated block")]
fn free_inside_live_block_panics() {
    let mut b = BuddyAllocator::new(0, 16 << 20);
    let block = b.alloc(PageSize::Size2M).unwrap();
    b.free(block.add(0x1000));
}

#[test]
#[should_panic(expected = "free of unallocated block")]
fn double_free_panics() {
    let mut b = BuddyAllocator::new(48 << 20, 16 << 20);
    let block = b.alloc(PageSize::Size4K).unwrap();
    b.free(block);
    b.free(block);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cache never over-fills, never loses the line it just filled,
    /// and probe/contains agree.
    #[test]
    fn cache_fill_and_probe_agree(lines in prop::collection::vec(0u64..4096, 1..400),
                                  ways in 1usize..17) {
        let sets = 16usize;
        let cfg = CacheConfig::new("t", (sets * ways) as u64 * 64, ways, 1);
        let mut cache = Cache::new(cfg);
        for &line in &lines {
            cache.fill(line, AccessKind::Data, OwnerId::SINGLE, false);
            prop_assert!(cache.contains(line), "line {line} lost right after fill");
            prop_assert!(cache.probe(line, AccessKind::Data));
        }
        let resident = cache.resident_lines(AccessKind::Data)
            + cache.resident_lines(AccessKind::PageTable);
        prop_assert!(resident <= sets * ways, "cache over-filled: {resident}");
    }

    /// Under the priority phase, filling data lines never evicts a
    /// page-table line while data candidates exist in the set.
    #[test]
    fn priority_never_picks_pt_over_available_data(seed in 0u64..1000) {
        let cfg = CacheConfig::new("t", 8 * 64, 8, 1).with_pt_priority(true);
        let mut cache = Cache::new(cfg);
        // One set (8 ways): 4 PT lines + 4 data lines, all set 0.
        for i in 0..4u64 {
            cache.fill(i, AccessKind::PageTable, OwnerId::SINGLE, true);
        }
        // All lines map to set 0 in a 1-set cache.
        for i in 4..8u64 {
            cache.fill(i, AccessKind::Data, OwnerId::SINGLE, true);
        }
        // Fill more data; evictions in the 99% path must pick data.
        let mut pt_evicted = 0;
        for i in 0..64u64 {
            if let Some(ev) = cache.fill(100 + seed + i, AccessKind::Data, OwnerId::SINGLE, true) {
                if ev.kind == AccessKind::PageTable {
                    pt_evicted += 1;
                }
            }
        }
        // Only the 1% LRU escape may ever touch PT lines, and once the
        // four PT lines are gone nothing more can be evicted from them.
        prop_assert!(pt_evicted <= 4, "PT evictions {pt_evicted} exceed the escape budget");
    }

    /// Buddy allocations never overlap and never exceed the region.
    #[test]
    fn buddy_blocks_are_disjoint(ops in prop::collection::vec((0u8..3, 0u8..2), 1..200)) {
        let total: u64 = 64 << 20;
        let mut buddy = BuddyAllocator::new(0, total);
        let mut live: Vec<(u64, u64)> = Vec::new(); // (addr, bytes)
        for (kind, action) in ops {
            let size = match kind {
                0 => PageSize::Size4K,
                1 => PageSize::Size2M,
                _ => PageSize::Size1G,
            };
            if action == 0 || live.is_empty() {
                if let Some(pa) = buddy.alloc(size) {
                    let bytes = size.bytes();
                    prop_assert_eq!(pa.raw() % bytes, 0, "natural alignment violated");
                    prop_assert!(pa.raw() + bytes <= total, "block exceeds region");
                    for &(a, b) in &live {
                        prop_assert!(
                            pa.raw() + bytes <= a || a + b <= pa.raw(),
                            "overlap: new [{:#x},+{:#x}) with [{:#x},+{:#x})",
                            pa.raw(), bytes, a, b
                        );
                    }
                    live.push((pa.raw(), bytes));
                }
            } else {
                let (a, _) = live.swap_remove(0);
                buddy.free(PhysAddr::new(a));
            }
        }
        // Free everything: the allocator must coalesce back to one block.
        for (a, _) in live {
            buddy.free(PhysAddr::new(a));
        }
        prop_assert_eq!(buddy.free_bytes(), total);
        prop_assert!(buddy.alloc(PageSize::Size1G).is_none() || total >= 1 << 30);
        let mut b2 = BuddyAllocator::new(0, total);
        prop_assert_eq!(buddy.largest_free_order(), b2.largest_free_order());
        let _ = b2.alloc(PageSize::Size4K);
    }

    /// Accounting: free_bytes always equals total minus live bytes.
    #[test]
    fn buddy_accounting_is_exact(ops in prop::collection::vec(0u8..4, 1..150)) {
        let total: u64 = 16 << 20;
        let mut buddy = BuddyAllocator::new(0, total);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match op {
                0 | 1 => {
                    if let Some(pa) = buddy.alloc(PageSize::Size4K) {
                        live.push((pa.raw(), 4096));
                    }
                }
                2 => {
                    if let Some(pa) = buddy.alloc(PageSize::Size2M) {
                        live.push((pa.raw(), 2 << 20));
                    }
                }
                _ => {
                    if let Some((a, _)) = live.pop() {
                        buddy.free(PhysAddr::new(a));
                    }
                }
            }
            let live_bytes: u64 = live.iter().map(|(_, b)| b).sum();
            prop_assert_eq!(buddy.free_bytes(), total - live_bytes);
        }
    }

    /// The fault-injecting decorator may refuse large requests but must
    /// never corrupt the buddy underneath: surviving allocations stay
    /// disjoint and aligned, a full free coalesces back to the single
    /// max-order block, and the stats never count more failures than
    /// attempts.
    #[test]
    fn faulty_allocator_preserves_buddy_invariants(
        seed in 0u64..5000,
        refusal_pct in 0u32..101,
        ops in prop::collection::vec(0u8..4, 1..150),
    ) {
        let refusal = refusal_pct as f64 / 100.0;
        let total: u64 = 64 << 20;
        let mut buddy = BuddyAllocator::new(0, total);
        let mut live: Vec<(u64, PageSize)> = Vec::new();
        let injected;
        {
            let mut faulty = FaultyAllocator::new(&mut buddy, seed, refusal);
            for op in ops {
                let size = match op {
                    0 => PageSize::Size4K,
                    1 => PageSize::Size2M,
                    2 => PageSize::Size1G,
                    _ => {
                        if let Some((a, s)) = live.pop() {
                            faulty.release(PhysAddr::new(a), s);
                        }
                        continue;
                    }
                };
                if let Some(pa) = faulty.alloc(size) {
                    let bytes = size.bytes();
                    prop_assert_eq!(pa.raw() % bytes, 0, "natural alignment violated");
                    prop_assert!(pa.raw() + bytes <= total, "block exceeds region");
                    for &(a, s) in &live {
                        let b = s.bytes();
                        prop_assert!(
                            pa.raw() + bytes <= a || a + b <= pa.raw(),
                            "overlap: new [{:#x},+{:#x}) with [{:#x},+{:#x})",
                            pa.raw(), bytes, a, b
                        );
                    }
                    live.push((pa.raw(), size));
                }
            }
            injected = faulty.injected();
        }
        if refusal_pct == 0 {
            prop_assert_eq!(injected, 0, "no refusals allowed at zero probability");
        }
        for (a, _) in live {
            buddy.free(PhysAddr::new(a));
        }
        prop_assert_eq!(buddy.free_bytes(), total);
        prop_assert_eq!(
            buddy.largest_free_order(),
            Some((total / 4096).trailing_zeros()),
            "full free must restore the single max-order block"
        );
        let s = buddy.stats();
        prop_assert!(s.small.0 >= s.small.1, "4K attempts < failures");
        prop_assert!(s.huge.0 >= s.huge.1, "2M attempts < failures");
        prop_assert!(s.giant.0 >= s.giant.1, "1G attempts < failures");
    }

    /// The allocator makes exactly the reference model's choices: the
    /// same address for every request, and the same free bytes, largest
    /// free order and statistics after every step, through random
    /// 4K/2M/1G requests, frees of live blocks and fragmentation
    /// campaigns.
    #[test]
    fn buddy_matches_reference_model(
        pool in 0usize..3,
        ops in prop::collection::vec((0u8..6, 0u64..1 << 20), 1..120),
    ) {
        let (base, total) = POOLS[pool];
        let mut buddy = BuddyAllocator::new(base, total);
        let mut model = ReferenceBuddy::new(base, total);
        let mut live: Vec<u64> = Vec::new();
        for (kind, x) in ops {
            match kind {
                0..=3 => {
                    let size = [PageSize::Size4K, PageSize::Size4K, PageSize::Size2M, PageSize::Size1G]
                        [kind as usize];
                    let got = buddy.alloc(size).map(PhysAddr::raw);
                    prop_assert_eq!(got, model.alloc(size), "alloc {:?}", size);
                    live.extend(got);
                }
                4 => {
                    if !live.is_empty() {
                        let addr = live.swap_remove(x as usize % live.len());
                        buddy.free(PhysAddr::new(addr));
                        model.free(addr);
                    }
                }
                _ => {
                    let hold = (x % 50) as f64 / 100.0;
                    let max_bytes = ((x >> 6) % 1024 + 1) * 4096;
                    let held: Vec<u64> = buddy
                        .fragment_region(&mut SplitMix64::new(x), hold, max_bytes)
                        .into_iter()
                        .map(PhysAddr::raw)
                        .collect();
                    let expect = model.fragment_region(&mut SplitMix64::new(x), hold, max_bytes);
                    prop_assert_eq!(&held, &expect, "fragment_region");
                    live.extend(held);
                }
            }
            prop_assert_eq!(buddy.free_bytes(), model.free_bytes);
            prop_assert_eq!(buddy.largest_free_order(), model.largest_free_order());
            prop_assert_eq!(buddy.stats(), model.stats);
        }
    }
}
