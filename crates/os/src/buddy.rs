//! A buddy allocator over simulated physical memory.
//!
//! The kernel's ability (or failure) to hand out naturally aligned 2 MB
//! blocks is the crux of the paper's practicality argument (§3.2, §6.2):
//! flattened page-table nodes need 2 MB pages, fragmented systems
//! sometimes cannot provide them, and the design must fall back
//! gracefully. This allocator reproduces that behaviour: power-of-two
//! blocks, buddy splitting/merging, and deliberate fragmentation
//! injection for experiments.

use flatwalk_pt::PhysAllocator;
use flatwalk_types::rng::SplitMix64;
use flatwalk_types::{PageSize, PhysAddr};

/// Order of a 4 KB block.
pub const ORDER_4K: u32 = 0;
/// Order of a 2 MB block.
pub const ORDER_2M: u32 = 9;
/// Order of a 1 GB block.
pub const ORDER_1G: u32 = 18;

fn order_of(size: PageSize) -> u32 {
    match size {
        PageSize::Size4K => ORDER_4K,
        PageSize::Size2M => ORDER_2M,
        PageSize::Size1G => ORDER_1G,
    }
}

/// Allocation statistics, per request size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuddyStats {
    /// 4 KB requests (attempts, failures).
    pub small: (u64, u64),
    /// 2 MB requests (attempts, failures).
    pub huge: (u64, u64),
    /// 1 GB requests (attempts, failures).
    pub giant: (u64, u64),
}

impl BuddyStats {
    /// Failure rate of 2 MB requests (0.0 when none were made).
    pub fn huge_failure_rate(&self) -> f64 {
        if self.huge.0 == 0 {
            0.0
        } else {
            self.huge.1 as f64 / self.huge.0 as f64
        }
    }
}

/// The free blocks of one order: a bitmap over that order's block
/// indices (block `i` starts `i` blocks above the pool base).
#[derive(Clone)]
struct FreeList {
    words: Vec<u64>,
    /// No word below this index has a bit set.
    first: usize,
    len: u64,
}

impl FreeList {
    fn new(blocks: u64) -> Self {
        FreeList {
            words: vec![0; blocks.div_ceil(64) as usize],
            first: 0,
            len: 0,
        }
    }

    fn insert(&mut self, idx: u64) {
        let w = (idx / 64) as usize;
        self.words[w] |= 1 << (idx % 64);
        self.first = self.first.min(w);
        self.len += 1;
    }

    /// Clears `idx`, returning whether it was set.
    fn remove(&mut self, idx: u64) -> bool {
        let (w, bit) = ((idx / 64) as usize, 1u64 << (idx % 64));
        if self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        self.len -= 1;
        true
    }

    /// Removes and returns the lowest free index.
    fn pop_first(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        while self.words[self.first] == 0 {
            self.first += 1;
        }
        let word = self.words[self.first];
        self.words[self.first] = word & (word - 1);
        self.len -= 1;
        Some(self.first as u64 * 64 + word.trailing_zeros() as u64)
    }
}

/// A power-of-two buddy allocator.
///
/// Each order's free blocks are a bitmap over block indices, scanned
/// from a lowest-non-empty-word hint, so an allocation always takes the
/// lowest free address of the smallest order that can serve it and the
/// choice of block is deterministic. Each live block's order sits in a
/// dense, zero-allocated table with one byte per 4 KB frame, so
/// recording and finding a live block is one indexed access. Freeing
/// anything but the start of a live block panics.
///
/// # Examples
///
/// ```
/// use flatwalk_os::BuddyAllocator;
/// use flatwalk_pt::PhysAllocator;
/// use flatwalk_types::PageSize;
///
/// // 16 MB of physical memory starting at zero.
/// let mut buddy = BuddyAllocator::new(0, 16 << 20);
/// let block = buddy.alloc(PageSize::Size2M).unwrap();
/// assert_eq!(block.raw() % (2 << 20), 0, "naturally aligned");
/// buddy.free(block);
/// assert_eq!(buddy.free_bytes(), 16 << 20);
/// ```
#[derive(Clone)]
pub struct BuddyAllocator {
    base: u64,
    total: u64,
    /// Free blocks, indexed by order.
    free: Vec<FreeList>,
    /// Per 4 KB frame: `order + 1` if a live block starts there, else 0.
    live: Vec<u8>,
    free_bytes: u64,
    stats: BuddyStats,
}

impl std::fmt::Debug for BuddyAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuddyAllocator")
            .field("base", &self.base)
            .field("total", &self.total)
            .field("free_bytes", &self.free_bytes)
            .field("largest_free_order", &self.largest_free_order())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BuddyAllocator {
    /// Creates an allocator over `[base, base + total)`.
    ///
    /// # Panics
    ///
    /// Panics unless `total` is a power-of-two multiple of 4 KB of at
    /// least one page and `base` is aligned to `total`'s largest block.
    pub fn new(base: u64, total: u64) -> Self {
        assert!(
            total >= 4096 && total.is_power_of_two(),
            "total must be a power of two ≥ 4 KB"
        );
        assert_eq!(base % total, 0, "base must be aligned to the region size");
        let frames = total / 4096;
        let max_order = frames.trailing_zeros();
        let mut free: Vec<FreeList> = (0..=max_order)
            .map(|o| FreeList::new(frames >> o))
            .collect();
        free[max_order as usize].insert(0);
        BuddyAllocator {
            base,
            total,
            free,
            live: vec![0; frames as usize],
            free_bytes: total,
            stats: BuddyStats::default(),
        }
    }

    /// Bytes currently free (not necessarily contiguous).
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Total managed bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// The largest order with a free block, if any.
    pub fn largest_free_order(&self) -> Option<u32> {
        (0..self.free.len())
            .rev()
            .find(|&o| self.free[o].len > 0)
            .map(|o| o as u32)
    }

    /// Request statistics.
    pub fn stats(&self) -> BuddyStats {
        self.stats
    }

    fn alloc_order(&mut self, order: u32) -> Option<u64> {
        let order = order as usize;
        let (from, idx) =
            (order..self.free.len()).find_map(|o| Some((o, self.free[o].pop_first()?)))?;
        let offset = idx << (12 + from);
        // Split down to the requested order, returning upper halves.
        for o in (order..from).rev() {
            self.free[o].insert((offset >> (12 + o)) + 1);
        }
        self.live[(offset >> 12) as usize] = order as u8 + 1;
        self.free_bytes -= 4096u64 << order;
        Some(self.base + offset)
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc`],
    /// merging buddies as far as possible.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not the start of a live allocation.
    pub fn free(&mut self, addr: PhysAddr) {
        let frame = addr
            .raw()
            .checked_sub(self.base)
            .filter(|&off| off < self.total && off % 4096 == 0)
            .map(|off| (off >> 12) as usize)
            .filter(|&frame| self.live[frame] != 0)
            .unwrap_or_else(|| panic!("free of unallocated block {:#x}", addr.raw()));
        let mut order = (self.live[frame] - 1) as usize;
        self.live[frame] = 0;
        self.free_bytes += 4096u64 << order;
        let mut idx = (frame >> order) as u64;
        while order + 1 < self.free.len() && self.free[order].remove(idx ^ 1) {
            idx >>= 1;
            order += 1;
        }
        self.free[order].insert(idx);
    }

    /// Fragments the free space: transiently allocates every free 4 KB
    /// frame, then frees all but a pseudo-random `hold_fraction` of
    /// them. The surviving scattered singletons destroy 2 MB contiguity.
    ///
    /// Returns the held frames so the caller can release them later.
    pub fn fragment(&mut self, rng: &mut SplitMix64, hold_fraction: f64) -> Vec<PhysAddr> {
        self.fragment_region(rng, hold_fraction, self.total)
    }

    /// Bounded variant of [`BuddyAllocator::fragment`] for fault
    /// campaigns on large pools: stops pinning once `max_bytes` of 4 KB
    /// frames have been touched, so fragmenting an 8 GB pool does not
    /// require walking all two million frames. The touched prefix is
    /// shredded exactly like [`BuddyAllocator::fragment`] would shred
    /// the whole pool; the rest of the pool keeps its contiguity.
    ///
    /// Returns the held frames so the caller can release them later.
    pub fn fragment_region(
        &mut self,
        rng: &mut SplitMix64,
        hold_fraction: f64,
        max_bytes: u64,
    ) -> Vec<PhysAddr> {
        let budget = (max_bytes / 4096).max(1);
        let mut taken = Vec::new();
        while (taken.len() as u64) < budget {
            let Some(addr) = self.alloc_order(ORDER_4K) else {
                break;
            };
            taken.push(addr);
        }
        let mut held = Vec::new();
        for addr in taken {
            if rng.chance(hold_fraction) {
                held.push(PhysAddr::new(addr));
            } else {
                self.free(PhysAddr::new(addr));
            }
        }
        held
    }
}

impl PhysAllocator for BuddyAllocator {
    fn alloc(&mut self, size: PageSize) -> Option<PhysAddr> {
        let result = self.alloc_order(order_of(size));
        let slot = match size {
            PageSize::Size4K => &mut self.stats.small,
            PageSize::Size2M => &mut self.stats.huge,
            PageSize::Size1G => &mut self.stats.giant,
        };
        slot.0 += 1;
        if result.is_none() {
            slot.1 += 1;
        }
        result.map(PhysAddr::new)
    }

    fn release(&mut self, addr: PhysAddr, _size: PageSize) {
        self.free(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_and_merge_roundtrip() {
        let mut b = BuddyAllocator::new(0, 4 << 20);
        let a1 = b.alloc(PageSize::Size4K).unwrap();
        let a2 = b.alloc(PageSize::Size4K).unwrap();
        assert_ne!(a1, a2);
        assert_eq!(b.free_bytes(), (4 << 20) - 2 * 4096);
        b.free(a1);
        b.free(a2);
        assert_eq!(b.free_bytes(), 4 << 20);
        assert_eq!(b.largest_free_order(), Some(10), "fully merged back");
    }

    #[test]
    fn alignment_is_natural() {
        let mut b = BuddyAllocator::new(0, 64 << 20);
        b.alloc(PageSize::Size4K).unwrap();
        let big = b.alloc(PageSize::Size2M).unwrap();
        assert_eq!(big.raw() % (2 << 20), 0);
    }

    #[test]
    fn exhaustion_fails_cleanly() {
        let mut b = BuddyAllocator::new(0, 2 << 20);
        assert!(b.alloc(PageSize::Size1G).is_none());
        assert!(b.alloc(PageSize::Size2M).is_some());
        assert!(b.alloc(PageSize::Size4K).is_none());
        assert_eq!(b.stats().giant, (1, 1));
        assert_eq!(b.stats().huge, (1, 0));
        assert_eq!(b.stats().small, (1, 1));
    }

    #[test]
    fn fragmentation_defeats_huge_allocations() {
        let mut b = BuddyAllocator::new(0, 32 << 20);
        let mut rng = SplitMix64::new(42);
        // Hold 5% of frames scattered across memory.
        let held = b.fragment(&mut rng, 0.05);
        assert!(!held.is_empty());
        assert!(
            b.alloc(PageSize::Size2M).is_none(),
            "scattered holds should break every 2 MB block"
        );
        assert!(b.alloc(PageSize::Size4K).is_some(), "4 KB still fine");
        assert!(b.stats().huge_failure_rate() > 0.99);
        // Releasing the holds restores contiguity.
        for h in held {
            b.free(h);
        }
        assert!(b.alloc(PageSize::Size2M).is_some());
    }

    #[test]
    fn buddies_merge_across_orders() {
        let mut b = BuddyAllocator::new(0, 16 << 20);
        let blocks: Vec<_> = (0..8).map(|_| b.alloc(PageSize::Size2M).unwrap()).collect();
        assert_eq!(b.free_bytes(), 0);
        for blk in blocks {
            b.free(blk);
        }
        assert_eq!(b.largest_free_order(), Some(12));
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn double_free_detected() {
        let mut b = BuddyAllocator::new(0, 1 << 20);
        let a = b.alloc(PageSize::Size4K).unwrap();
        b.free(a);
        b.free(a);
    }

    #[test]
    fn nonzero_base_respected() {
        let mut b = BuddyAllocator::new(1 << 30, 1 << 30);
        let a = b.alloc(PageSize::Size2M).unwrap();
        assert!(a.raw() >= 1 << 30);
        b.free(a);
        assert_eq!(b.free_bytes(), 1 << 30);
    }
}
