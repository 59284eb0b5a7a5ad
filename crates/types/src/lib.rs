//! Foundational types shared by every `flatwalk` crate.
//!
//! This crate defines the vocabulary of the simulator:
//!
//! * [`VirtAddr`] / [`PhysAddr`] — 64-bit address newtypes with radix
//!   page-table index extraction, including the 18-bit indices used by
//!   *flattened* page-table nodes (paper §3.2).
//! * [`Level`] — the page-table levels `L1` (leaf) through `L5`, labelled
//!   root-to-leaf as in the paper (footnote 1: "We label the page table L4,
//!   L3, L2 and L1 from root to leaf").
//! * [`PageSize`] — 4 KB / 2 MB / 1 GB translation granularities.
//! * [`AccessKind`] and [`OwnerId`] — classification of memory-system
//!   accesses (data vs. page-table; which core/process) used by the cache
//!   replacement policies of paper §5/§6.1.
//! * [`key`] — the canonical text encoding of content keys, which
//!   result caches key finished computations by.
//! * [`rng`] — small deterministic random-number generators so every
//!   experiment is exactly reproducible.
//! * [`stats`] — numeric summaries (geometric mean, weighted speedup)
//!   used when reporting experiment results.
//!
//! # Examples
//!
//! ```
//! use flatwalk_types::{VirtAddr, Level};
//!
//! // 0x7f12_3456_7000 decomposes into four 9-bit indices + 12-bit offset.
//! let va = VirtAddr::new(0x7f12_3456_7000);
//! assert_eq!(va.index(Level::L4), ((0x7f12_3456_7000u64 >> 39) & 0x1ff) as usize);
//! assert_eq!(va.offset_4k(), 0x0);
//!
//! // A flattened L4+L3 node consumes 18 bits at once.
//! assert_eq!(
//!     va.flat_index(Level::L4),
//!     ((0x7f12_3456_7000u64 >> 30) & 0x3ffff) as usize,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod key;
mod level;
mod page_size;
pub mod rng;
pub mod stats;

pub use addr::{PhysAddr, VirtAddr};
pub use level::Level;
pub use page_size::PageSize;

/// Number of entries in one conventional (4 KB) page-table node.
pub const ENTRIES_PER_NODE: usize = 512;

/// Number of entries in one flattened (2 MB) page-table node.
pub const ENTRIES_PER_FLAT_NODE: usize = ENTRIES_PER_NODE * ENTRIES_PER_NODE;

/// Size in bytes of one page-table entry.
pub const PTE_BYTES: u64 = 8;

/// Cache-line size used throughout the memory hierarchy (Table 1/3: 64 B).
pub const CACHE_LINE_BYTES: u64 = 64;

/// What a memory-system access is fetching.
///
/// The cache prioritization mechanism of paper §5 discriminates between
/// ordinary data lines and page-table lines using a per-line tag bit
/// (§6.1); this enum is that bit in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A regular program data (or instruction) access.
    Data,
    /// An access made by a hardware page-table walker to a page-table node.
    PageTable,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::PageTable`].
    #[inline]
    pub fn is_page_table(self) -> bool {
        matches!(self, AccessKind::PageTable)
    }
}

/// Identifies which core/process an access belongs to.
///
/// Mirrors the MPAM-style partition identifiers of paper §6.1, used in the
/// multicore evaluation to prevent one process' data from evicting
/// another's page-table entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct OwnerId(pub u8);

impl OwnerId {
    /// Owner used by single-core simulations.
    pub const SINGLE: OwnerId = OwnerId(0);
}

impl std::fmt::Display for OwnerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "owner{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(ENTRIES_PER_NODE as u64 * PTE_BYTES, 4096);
        assert_eq!(
            ENTRIES_PER_FLAT_NODE as u64 * PTE_BYTES,
            2 * 1024 * 1024,
            "a flattened node must fill exactly one 2 MB page"
        );
    }

    #[test]
    fn access_kind_page_table_flag() {
        assert!(AccessKind::PageTable.is_page_table());
        assert!(!AccessKind::Data.is_page_table());
    }

    #[test]
    fn owner_display() {
        assert_eq!(OwnerId(3).to_string(), "owner3");
        assert_eq!(OwnerId::SINGLE, OwnerId::default());
    }
}
