//! Construction of (optionally flattened) page tables.

use std::collections::HashSet;

use flatwalk_types::{Level, PageSize, PhysAddr, VirtAddr};

use crate::{FrameStore, Layout, NodeShape, PhysAllocator, Pte};

/// A realized page table: the root pointer plus the architectural shape
/// bits that live in CR3/TTBR (paper §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTable {
    /// Physical address of the root node.
    pub root: PhysAddr,
    /// Shape of the root node (the "one/two bits in the control
    /// register").
    pub root_shape: NodeShape,
    /// The level at which the walk starts (`L4` or `L5`).
    pub top_level: Level,
}

/// Why a mapping request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// `va` or `pa` is not aligned to the mapping size.
    Misaligned,
    /// Even the 4 KB fallback allocation failed (out of memory).
    AllocFailed,
    /// The range is already mapped (remapping is not modelled; the
    /// paper's evaluation holds mappings fixed during measurement).
    Conflict,
    /// The mapping size cannot be expressed in the current structure
    /// (e.g. a 1 GB page inside a node flattened past `L3`, which would
    /// need 512² replicated entries).
    Unrepresentable,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Misaligned => write!(f, "address not aligned to mapping size"),
            MapError::AllocFailed => write!(f, "physical allocation failed"),
            MapError::Conflict => write!(f, "range already mapped"),
            MapError::Unrepresentable => {
                write!(f, "mapping size not representable in this layout")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// Why a dynamic flattening (promotion) request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromoteError {
    /// No 2 MB block available for the flattened node — the table is
    /// left untouched.
    AllocFailed,
    /// The walk to the target node hit a non-present entry.
    NotPresent,
    /// The target node (or the path to it) is already flattened.
    AlreadyFlat,
    /// `top` cannot head a merged pair (it is `L1`, or above the root).
    BadLevel,
    /// The path to the target terminates early in a large mapping.
    LargeMapping,
}

impl std::fmt::Display for PromoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromoteError::AllocFailed => write!(f, "no 2 MB block for the flattened node"),
            PromoteError::NotPresent => write!(f, "path to the target node is not mapped"),
            PromoteError::AlreadyFlat => write!(f, "node is already flattened"),
            PromoteError::BadLevel => write!(f, "level cannot head a flattened pair"),
            PromoteError::LargeMapping => write!(f, "path ends in a large mapping"),
        }
    }
}

impl std::error::Error for PromoteError {}

/// Per-node flattening decisions.
///
/// The layout says which groups the OS *wants* flattened; the policy can
/// cap the depth for specific regions — this is how the paper's
/// "no-flatten" (NF) 1 GB regions for 2 MB-page-heavy address ranges are
/// expressed (§3.4).
pub trait FlattenPolicy {
    /// Maximum merge depth allowed for a node whose top level is `top`
    /// and which will map `va`. Return `1` to force conventional nodes,
    /// `3` (or more) to impose no cap.
    fn max_depth(&self, top: Level, va: VirtAddr) -> u8;
}

/// Flatten wherever the layout asks to (no extra cap).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlattenEverywhere;

impl FlattenPolicy for FlattenEverywhere {
    fn max_depth(&self, _top: Level, _va: VirtAddr) -> u8 {
        3
    }
}

/// The paper's §3.4 optimization: designated 1 GB virtual regions keep
/// their `L2`/`L1` levels conventional so 2 MB data pages terminate at a
/// real `L2` entry instead of 512 replicated `L1` entries.
#[derive(Debug, Clone, Default)]
pub struct NfRegions {
    regions: HashSet<u64>,
}

impl NfRegions {
    /// Creates an empty region set (equivalent to [`FlattenEverywhere`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the 1 GB-aligned region containing `va` as no-flatten.
    pub fn mark(&mut self, va: VirtAddr) {
        self.regions.insert(va.raw() >> 30);
    }

    /// Whether the region containing `va` is marked.
    pub fn is_marked(&self, va: VirtAddr) -> bool {
        self.regions.contains(&(va.raw() >> 30))
    }

    /// Number of marked regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no regions are marked.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

impl FlattenPolicy for NfRegions {
    fn max_depth(&self, top: Level, va: VirtAddr) -> u8 {
        if top <= Level::L2 && self.is_marked(va) {
            1
        } else {
            3
        }
    }
}

/// Census of the realized table: node counts by shape plus the mapping
/// pathologies the paper quantifies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCensus {
    /// 4 KB nodes allocated.
    pub conventional_nodes: u64,
    /// 2 MB flattened nodes allocated.
    pub flat2_nodes: u64,
    /// 1 GB flattened nodes allocated.
    pub flat3_nodes: u64,
    /// Entries written as replicas of a large mapping inside a flattened
    /// node (§3.4: 512 per 2 MB page mapped into a flattened `L2+L1`).
    pub replicated_entries: u64,
    /// Nodes that fell back to a smaller shape because the large
    /// allocation failed (§3.2 graceful fallback, §6.2).
    pub fallback_nodes: u64,
}

impl NodeCensus {
    /// Total bytes of page-table memory allocated.
    pub fn table_bytes(&self) -> u64 {
        self.conventional_nodes * (4 << 10)
            + self.flat2_nodes * (2 << 20)
            + self.flat3_nodes * (1 << 30)
    }

    /// Total node count.
    pub fn nodes(&self) -> u64 {
        self.conventional_nodes + self.flat2_nodes + self.flat3_nodes
    }

    /// Registers the census under `pt.*` metric names.
    pub fn record_metrics(&self, m: &mut flatwalk_obs::MetricsSnapshot) {
        m.add("pt.nodes.conventional", self.conventional_nodes)
            .add("pt.nodes.flat2", self.flat2_nodes)
            .add("pt.nodes.flat3", self.flat3_nodes)
            .add("pt.nodes.fallback", self.fallback_nodes)
            .add("pt.replicated_entries", self.replicated_entries)
            .add("pt.table_bytes", self.table_bytes());
    }
}

/// Builds and extends a page table according to a [`Layout`] and a
/// [`FlattenPolicy`], with the paper's graceful fallback to conventional
/// nodes when large allocations fail.
///
/// # Examples
///
/// ```
/// use flatwalk_pt::{BumpAllocator, FlattenEverywhere, FrameStore, Layout, Mapper, resolve};
/// use flatwalk_types::{PageSize, PhysAddr, VirtAddr};
///
/// let mut store = FrameStore::new();
/// let mut alloc = BumpAllocator::new(0x100_0000);
/// let mut mapper = Mapper::new(
///     &mut store,
///     &mut alloc,
///     Layout::flat_l4l3_l2l1(),
///     &FlattenEverywhere,
/// ).unwrap();
///
/// let va = VirtAddr::new(0x7000_2000);
/// let pa = PhysAddr::new(0x9000_1000);
/// mapper
///     .map(&mut store, &mut alloc, &FlattenEverywhere, va, pa, PageSize::Size4K)
///     .unwrap();
///
/// let walk = resolve(&store, mapper.table(), va).unwrap();
/// assert_eq!(walk.pa, pa);
/// assert_eq!(walk.steps.len(), 2); // two flattened levels
/// ```
///
/// # Mapping cursor
///
/// `map` remembers the terminal node its last descent reached. When the
/// next mapping has the same page size and falls under that node, it
/// writes the entry there directly, with the same `Conflict` check,
/// instead of re-walking from the root. This is sound because the
/// pointer entries on the cursor's path change only through this
/// `Mapper`: `map` never overwrites a present entry, and `promote`
/// clears the cursor. Writing pointer entries into the store behind
/// the mapper's back, or mapping into a different store, would leave
/// the cursor stale.
#[derive(Debug, Clone)]
pub struct Mapper {
    layout: Layout,
    table: PageTable,
    census: NodeCensus,
    cursor: Option<Cursor>,
}

/// The terminal node of the last descent in [`Mapper::map`].
#[derive(Debug, Clone, Copy)]
struct Cursor {
    /// Page size of the mapping that descended here.
    size: PageSize,
    /// `va >> (pos_top.index_shift() + 9)`, equal for every VA the node
    /// covers.
    prefix: u64,
    base: PhysAddr,
    pos_top: Level,
    depth: u8,
}

impl Cursor {
    fn new(size: PageSize, va: VirtAddr, base: PhysAddr, pos_top: Level, depth: u8) -> Self {
        Cursor {
            size,
            prefix: va.raw() >> (pos_top.index_shift() + 9),
            base,
            pos_top,
            depth,
        }
    }

    fn covers(&self, va: VirtAddr, size: PageSize) -> bool {
        self.size == size && va.raw() >> (self.pos_top.index_shift() + 9) == self.prefix
    }
}

impl Mapper {
    /// Allocates the root node and returns a mapper for it.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::AllocFailed`] if not even a conventional root
    /// node could be allocated.
    pub fn new(
        store: &mut FrameStore,
        alloc: &mut dyn PhysAllocator,
        layout: Layout,
        policy: &dyn FlattenPolicy,
    ) -> Result<Mapper, MapError> {
        let top = layout.root_level();
        let group = layout.group_of(top);
        let desired = group.depth.min(policy.max_depth(top, VirtAddr::new(0)));
        let mut census = NodeCensus::default();
        let (root, root_shape) = alloc_node_with_fallback(store, alloc, desired, &mut census)?;
        Ok(Mapper {
            layout,
            table: PageTable {
                root,
                root_shape,
                top_level: top,
            },
            census,
            cursor: None,
        })
    }

    /// The realized table (for walkers).
    pub fn table(&self) -> &PageTable {
        &self.table
    }

    /// The table's layout policy.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Node census of the realized table.
    pub fn census(&self) -> &NodeCensus {
        &self.census
    }

    /// Maps `size` bytes of virtual address space at `va` to `pa`.
    ///
    /// # Errors
    ///
    /// See [`MapError`].
    pub fn map(
        &mut self,
        store: &mut FrameStore,
        alloc: &mut dyn PhysAllocator,
        policy: &dyn FlattenPolicy,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
    ) -> Result<(), MapError> {
        if va.offset(size) != 0 || pa.offset(size) != 0 {
            return Err(MapError::Misaligned);
        }
        let node = match self.cursor {
            Some(c) if c.covers(va, size) => c,
            _ => {
                let c = self.descend(store, alloc, policy, va, size)?;
                self.cursor = Some(c);
                c
            }
        };

        let translating = size.translating_level();
        let pos_bottom = Level::from_rank(node.pos_top.rank() - (node.depth - 1))
            .expect("node cannot extend below L1");
        let idx = node_index(va, node.pos_top, node.depth);
        if translating == pos_bottom {
            // Terminal entry at this node's bottom position.
            let entry_pa = node.base.add(idx as u64 * 8);
            if store.read_pte(entry_pa).is_present() {
                return Err(MapError::Conflict);
            }
            let pte = match size {
                PageSize::Size4K => Pte::leaf(pa),
                _ => Pte::large(pa),
            };
            store.write_pte(entry_pa, pte);
            return Ok(());
        }

        // The natural terminal level was swallowed by this flattened
        // node: replicate entries (§3.4).
        if translating.rank() - pos_bottom.rank() != 1 {
            return Err(MapError::Unrepresentable);
        }
        let base_idx = idx & !0x1ff; // va is size-aligned, so the
                                     // bottom 9 index bits are 0.
        let chunk = pos_bottom.entry_coverage();
        for i in 0..512u64 {
            let slot = node.base.add((base_idx as u64 + i) * 8);
            if store.read_pte(slot).is_present() {
                return Err(MapError::Conflict);
            }
            let target = pa.add(i * chunk);
            let pte = if pos_bottom == Level::L1 {
                Pte::leaf(target)
            } else {
                Pte::large(target)
            };
            store.write_pte(slot, pte);
        }
        self.census.replicated_entries += 512;
        Ok(())
    }

    /// Walks from the root to the node holding `va`'s entry for a
    /// `size` mapping (the first node whose bottom position is at or
    /// above `size`'s translating level), allocating missing nodes.
    fn descend(
        &mut self,
        store: &mut FrameStore,
        alloc: &mut dyn PhysAllocator,
        policy: &dyn FlattenPolicy,
        va: VirtAddr,
        size: PageSize,
    ) -> Result<Cursor, MapError> {
        let translating = size.translating_level();
        let mut node_base = self.table.root;
        let mut node_shape = self.table.root_shape;
        let mut pos_top = self.table.top_level;

        loop {
            let depth = node_shape.depth();
            let pos_bottom = Level::from_rank(pos_top.rank() - (depth - 1))
                .expect("node cannot extend below L1");
            if translating >= pos_bottom {
                return Ok(Cursor::new(size, va, node_base, pos_top, depth));
            }

            let entry_pa = node_base.add(node_index(va, pos_top, depth) as u64 * 8);
            let existing = store.read_pte(entry_pa);
            if existing.is_present() {
                if existing.is_large() {
                    return Err(MapError::Conflict);
                }
                node_base = existing.addr();
                node_shape = existing.child_shape();
            } else {
                let child_top = pos_bottom.child().expect("descending above L1");
                let group = self.layout.group_of(child_top);
                let span = child_top.rank() - group.bottom().rank() + 1;
                let desired = span.min(policy.max_depth(child_top, va));
                let (base, shape) =
                    alloc_node_with_fallback(store, alloc, desired, &mut self.census)?;
                store.write_pte(entry_pa, Pte::pointer(base, shape));
                node_base = base;
                node_shape = shape;
            }
            // The child node's top is one level below this node's bottom.
            pos_top = pos_bottom.child().expect("descending above L1");
        }
    }

    /// Forgets the mapping cursor, so the next `map` descends from the
    /// root.
    #[cfg(test)]
    fn forget_cursor(&mut self) {
        self.cursor = None;
    }
}

impl Mapper {
    /// Dynamically flattens an *existing* pair of conventional levels —
    /// the §6.2 extension: "allocating a large page and copying the page
    /// table entries of the lower nodes … into the new flattened node.
    /// The upper node entry can then be updated to point to the
    /// flattened node."
    ///
    /// `top` names the upper level of the pair to merge (e.g.
    /// [`Level::L3`] merges the L3 node on `va`'s path with its L2
    /// children); `va` selects which node. Large mappings found in the
    /// merged node are replicated per §3.4. On success the replaced
    /// 4 KB nodes are returned to `alloc`.
    ///
    /// # Errors
    ///
    /// See [`PromoteError`]; on any error the table is unchanged.
    pub fn promote(
        &mut self,
        store: &mut FrameStore,
        alloc: &mut dyn PhysAllocator,
        va: VirtAddr,
        top: Level,
    ) -> Result<(), PromoteError> {
        // Promotion swings pointer entries, which may lie on the
        // cursor's path.
        self.cursor = None;
        if top == Level::L1 || top.rank() > self.table.top_level.rank() {
            return Err(PromoteError::BadLevel);
        }

        // Locate the *parent entry* that points at the level-`top` node
        // (or establish that `top` is the root).
        let mut parent_entry: Option<PhysAddr> = None;
        let mut target_base = self.table.root;
        if top != self.table.top_level {
            let mut node_base = self.table.root;
            let mut node_shape = self.table.root_shape;
            let mut pos_top = self.table.top_level;
            loop {
                let depth = node_shape.depth();
                let pos_bottom =
                    Level::from_rank(pos_top.rank() - (depth - 1)).ok_or(PromoteError::BadLevel)?;
                if pos_bottom.rank() <= top.rank() {
                    // The target level is inside this (already merged)
                    // node.
                    return Err(PromoteError::AlreadyFlat);
                }
                let idx = node_index(va, pos_top, depth);
                let entry_pa = node_base.add(idx as u64 * 8);
                let pte = store.read_pte(entry_pa);
                if !pte.is_present() {
                    return Err(PromoteError::NotPresent);
                }
                if pte.is_large() {
                    return Err(PromoteError::LargeMapping);
                }
                if pos_bottom.rank() == top.rank() + 1 {
                    if pte.child_shape() != NodeShape::Conventional {
                        return Err(PromoteError::AlreadyFlat);
                    }
                    parent_entry = Some(entry_pa);
                    target_base = pte.addr();
                    break;
                }
                node_base = pte.addr();
                node_shape = pte.child_shape();
                pos_top = pos_bottom.child().ok_or(PromoteError::BadLevel)?;
            }
        } else if self.table.root_shape != NodeShape::Conventional {
            return Err(PromoteError::AlreadyFlat);
        }

        // Scan the target node: every child pointer must itself be
        // conventional, and collect what to copy before mutating.
        let child_level = top.child().ok_or(PromoteError::BadLevel)?;
        let mut children: Vec<(usize, Pte)> = Vec::new();
        for i in 0..512usize {
            let pte = store.read_pte(target_base.add(i as u64 * 8));
            if !pte.is_present() {
                continue;
            }
            if !pte.is_large() && pte.child_shape() != NodeShape::Conventional {
                return Err(PromoteError::AlreadyFlat);
            }
            children.push((i, pte));
        }

        let flat_base = alloc
            .alloc(PageSize::Size2M)
            .ok_or(PromoteError::AllocFailed)?;

        // Populate the flattened node.
        let mut released_children = 0u64;
        for (i, pte) in &children {
            let base_idx = (*i as u64) << 9;
            if pte.is_large() {
                // §3.4 replication: the large mapping becomes 512
                // next-size-down entries.
                let chunk = child_level.entry_coverage();
                for j in 0..512u64 {
                    let target = pte.addr().add(j * chunk);
                    let entry = if child_level == Level::L1 {
                        Pte::leaf(target)
                    } else {
                        Pte::large(target)
                    };
                    store.write_pte(flat_base.add((base_idx + j) * 8), entry);
                }
                self.census.replicated_entries += 512;
            } else {
                for j in 0..512u64 {
                    let child_entry = store.read_pte(pte.addr().add(j * 8));
                    if child_entry.is_present() {
                        store.write_pte(flat_base.add((base_idx + j) * 8), child_entry);
                    }
                }
                alloc.release(pte.addr(), PageSize::Size4K);
                released_children += 1;
            }
        }

        // Swing the parent pointer (or the root).
        match parent_entry {
            Some(entry_pa) => store.write_pte(entry_pa, Pte::pointer(flat_base, NodeShape::Flat2)),
            None => {
                self.table.root = flat_base;
                self.table.root_shape = NodeShape::Flat2;
            }
        }
        alloc.release(target_base, PageSize::Size4K);

        self.census.flat2_nodes += 1;
        self.census.conventional_nodes = self
            .census
            .conventional_nodes
            .saturating_sub(1 + released_children);
        Ok(())
    }
}

/// Extracts a node-local index: `depth * 9` bits of `va` ending at
/// `pos_top - depth + 1`'s shift.
fn node_index(va: VirtAddr, pos_top: Level, depth: u8) -> usize {
    let bottom = Level::from_rank(pos_top.rank() - (depth - 1)).expect("valid span");
    let width = 9 * depth as u32;
    ((va.raw() >> bottom.index_shift()) & ((1u64 << width) - 1)) as usize
}

/// Tries to allocate a node of `desired` merge depth, degrading one step
/// at a time (1 GB → 2 MB → 4 KB) when the allocator refuses — the
/// paper's graceful fallback (§3.2).
fn alloc_node_with_fallback(
    _store: &mut FrameStore,
    alloc: &mut dyn PhysAllocator,
    desired: u8,
    census: &mut NodeCensus,
) -> Result<(PhysAddr, NodeShape), MapError> {
    let desired = desired.clamp(1, 3);
    let mut depth = desired;
    loop {
        let shape = NodeShape::from_depth(depth).expect("1..=3");
        let size = match shape {
            NodeShape::Conventional => PageSize::Size4K,
            NodeShape::Flat2 => PageSize::Size2M,
            NodeShape::Flat3 => PageSize::Size1G,
        };
        if let Some(base) = alloc.alloc(size) {
            match shape {
                NodeShape::Conventional => census.conventional_nodes += 1,
                NodeShape::Flat2 => census.flat2_nodes += 1,
                NodeShape::Flat3 => census.flat3_nodes += 1,
            }
            if depth < desired {
                census.fallback_nodes += 1;
            }
            return Ok((base, shape));
        }
        if depth == 1 {
            return Err(MapError::AllocFailed);
        }
        depth -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{resolve, BumpAllocator, No2MbAllocator};

    fn setup(layout: Layout) -> (FrameStore, BumpAllocator, Mapper) {
        let mut store = FrameStore::new();
        let mut alloc = BumpAllocator::new(0x4000_0000);
        let mapper = Mapper::new(&mut store, &mut alloc, layout, &FlattenEverywhere).unwrap();
        (store, alloc, mapper)
    }

    #[test]
    fn conventional_4k_mapping_resolves() {
        let (mut store, mut alloc, mut m) = setup(Layout::conventional4());
        let va = VirtAddr::new(0x7fff_1234_5000);
        let pa = PhysAddr::new(0x1_2345_6000);
        m.map(
            &mut store,
            &mut alloc,
            &FlattenEverywhere,
            va,
            pa,
            PageSize::Size4K,
        )
        .unwrap();
        let w = resolve(&store, m.table(), va).unwrap();
        assert_eq!(w.pa, pa);
        assert_eq!(w.size, PageSize::Size4K);
        assert_eq!(w.steps.len(), 4);
        // 4 nodes: root + L3 + L2 + L1.
        assert_eq!(m.census().nodes(), 4);
        assert_eq!(m.census().table_bytes(), 4 * 4096);
    }

    #[test]
    fn offset_preserved_through_translation() {
        let (mut store, mut alloc, mut m) = setup(Layout::conventional4());
        let va = VirtAddr::new(0x1000_0000);
        let pa = PhysAddr::new(0x2000_0000);
        m.map(
            &mut store,
            &mut alloc,
            &FlattenEverywhere,
            va,
            pa,
            PageSize::Size4K,
        )
        .unwrap();
        let w = resolve(&store, m.table(), VirtAddr::new(0x1000_0abc)).unwrap();
        assert_eq!(w.pa.raw(), 0x2000_0abc);
    }

    #[test]
    fn fully_flattened_walk_is_two_steps() {
        let (mut store, mut alloc, mut m) = setup(Layout::flat_l4l3_l2l1());
        let va = VirtAddr::new(0x55_5000_3000);
        let pa = PhysAddr::new(0x8000_4000);
        m.map(
            &mut store,
            &mut alloc,
            &FlattenEverywhere,
            va,
            pa,
            PageSize::Size4K,
        )
        .unwrap();
        let w = resolve(&store, m.table(), va).unwrap();
        assert_eq!(w.pa, pa);
        assert_eq!(w.steps.len(), 2);
        assert_eq!(m.census().flat2_nodes, 2);
        assert_eq!(m.census().conventional_nodes, 0);
    }

    #[test]
    fn large_2mb_mapping_in_conventional_table() {
        let (mut store, mut alloc, mut m) = setup(Layout::conventional4());
        let va = VirtAddr::new(0x4000_0000);
        let pa = PhysAddr::new(0x8000_0000);
        m.map(
            &mut store,
            &mut alloc,
            &FlattenEverywhere,
            va,
            pa,
            PageSize::Size2M,
        )
        .unwrap();
        let probe = VirtAddr::new(0x4000_0000 + 0x12_3456);
        let w = resolve(&store, m.table(), probe).unwrap();
        assert_eq!(w.size, PageSize::Size2M);
        assert_eq!(w.pa.raw(), 0x8000_0000 + 0x12_3456);
        assert_eq!(w.steps.len(), 3); // L4, L3, terminal at L2
    }

    #[test]
    fn large_2mb_in_flattened_l2l1_replicates_512_entries() {
        let (mut store, mut alloc, mut m) = setup(Layout::flat_l4l3_l2l1());
        let va = VirtAddr::new(0x4000_0000);
        let pa = PhysAddr::new(0x8000_0000);
        m.map(
            &mut store,
            &mut alloc,
            &FlattenEverywhere,
            va,
            pa,
            PageSize::Size2M,
        )
        .unwrap();
        assert_eq!(m.census().replicated_entries, 512);
        // Every 4 KB chunk resolves individually to the right place.
        for chunk in [0u64, 1, 255, 511] {
            let w = resolve(
                &store,
                m.table(),
                VirtAddr::new(0x4000_0000 + chunk * 4096 + 7),
            )
            .unwrap();
            assert_eq!(w.pa.raw(), 0x8000_0000 + chunk * 4096 + 7);
            assert_eq!(w.size, PageSize::Size4K, "replicas are 4 KB leaves");
            assert_eq!(w.steps.len(), 2);
        }
    }

    #[test]
    fn nf_region_keeps_l2_conventional_for_2mb_pages() {
        let (mut store, mut alloc, mut m) = setup(Layout::flat_l4l3_l2l1());
        let mut nf = NfRegions::new();
        let va = VirtAddr::new(0x8000_0000);
        nf.mark(va);
        assert!(nf.is_marked(VirtAddr::new(0x8000_0000 + 123)));
        assert!(!nf.is_marked(VirtAddr::new(0x4000_0000)));

        let pa = PhysAddr::new(0x10_0000_0000);
        m.map(&mut store, &mut alloc, &nf, va, pa, PageSize::Size2M)
            .unwrap();
        // No replication: the 2 MB page terminates at a real L2 entry.
        assert_eq!(m.census().replicated_entries, 0);
        let w = resolve(&store, m.table(), VirtAddr::new(0x8010_0000)).unwrap();
        assert_eq!(w.size, PageSize::Size2M);
        assert_eq!(w.pa.raw(), 0x10_0010_0000);
        // Walk: flat L4+L3 root, then conventional L2 → 2 steps.
        assert_eq!(w.steps.len(), 2);
    }

    #[test]
    fn graceful_fallback_to_conventional_nodes() {
        let mut store = FrameStore::new();
        let mut alloc = No2MbAllocator(BumpAllocator::new(0x4000_0000));
        let mut m = Mapper::new(
            &mut store,
            &mut alloc,
            Layout::flat_l4l3_l2l1(),
            &FlattenEverywhere,
        )
        .unwrap();
        let va = VirtAddr::new(0x1234_5000);
        let pa = PhysAddr::new(0x9_8765_4000);
        m.map(
            &mut store,
            &mut alloc,
            &FlattenEverywhere,
            va,
            pa,
            PageSize::Size4K,
        )
        .unwrap();
        // Everything fell back: 4 conventional nodes, 0 flat.
        assert_eq!(m.census().flat2_nodes, 0);
        assert_eq!(m.census().conventional_nodes, 4);
        // Exactly the two *group heads* (root L4+L3, and L2+L1) wanted to
        // be flat and fell back; the L3/L1 nodes are the conventional
        // remainders of the split groups.
        assert_eq!(m.census().fallback_nodes, 2);
        let w = resolve(&store, m.table(), va).unwrap();
        assert_eq!(w.pa, pa);
        assert_eq!(w.steps.len(), 4, "fallback produces a conventional walk");
    }

    #[test]
    fn mixed_fallback_mid_group() {
        // Allocator that allows exactly one 2MB allocation (the root),
        // forcing the L2+L1 group to fall back while L4+L3 stays flat.
        struct OneFlat {
            inner: BumpAllocator,
            large_left: u32,
        }
        impl PhysAllocator for OneFlat {
            fn alloc(&mut self, size: PageSize) -> Option<PhysAddr> {
                if size > PageSize::Size4K {
                    if self.large_left == 0 {
                        return None;
                    }
                    self.large_left -= 1;
                }
                self.inner.alloc(size)
            }
        }
        let mut store = FrameStore::new();
        let mut alloc = OneFlat {
            inner: BumpAllocator::new(0x4000_0000),
            large_left: 1,
        };
        let mut m = Mapper::new(
            &mut store,
            &mut alloc,
            Layout::flat_l4l3_l2l1(),
            &FlattenEverywhere,
        )
        .unwrap();
        let va = VirtAddr::new(0x7700_0000);
        let pa = PhysAddr::new(0x12_0000_1000);
        m.map(
            &mut store,
            &mut alloc,
            &FlattenEverywhere,
            va,
            pa,
            PageSize::Size4K,
        )
        .unwrap();
        assert_eq!(m.census().flat2_nodes, 1);
        assert_eq!(m.census().conventional_nodes, 2, "L2 and L1 fell back");
        let w = resolve(&store, m.table(), va).unwrap();
        assert_eq!(w.pa, pa);
        assert_eq!(w.steps.len(), 3, "flat root + L2 + L1");
    }

    #[test]
    fn conflict_and_misalignment_detected() {
        let (mut store, mut alloc, mut m) = setup(Layout::conventional4());
        let va = VirtAddr::new(0x1000_0000);
        let pa = PhysAddr::new(0x2000_0000);
        m.map(
            &mut store,
            &mut alloc,
            &FlattenEverywhere,
            va,
            pa,
            PageSize::Size4K,
        )
        .unwrap();
        assert_eq!(
            m.map(
                &mut store,
                &mut alloc,
                &FlattenEverywhere,
                va,
                pa,
                PageSize::Size4K
            ),
            Err(MapError::Conflict)
        );
        assert_eq!(
            m.map(
                &mut store,
                &mut alloc,
                &FlattenEverywhere,
                VirtAddr::new(0x123),
                pa,
                PageSize::Size4K
            ),
            Err(MapError::Misaligned)
        );
    }

    #[test]
    fn one_gig_page_terminates_at_l3() {
        let (mut store, mut alloc, mut m) = setup(Layout::conventional4());
        let va = VirtAddr::new(0x40_0000_0000);
        let pa = PhysAddr::new(0x80_0000_0000);
        m.map(
            &mut store,
            &mut alloc,
            &FlattenEverywhere,
            va,
            pa,
            PageSize::Size1G,
        )
        .unwrap();
        let w = resolve(&store, m.table(), VirtAddr::new(0x40_3FFF_FFFF)).unwrap();
        assert_eq!(w.size, PageSize::Size1G);
        assert_eq!(w.pa.raw(), 0x80_3FFF_FFFF);
        assert_eq!(w.steps.len(), 2);
    }

    #[test]
    fn one_gig_page_in_flat_l4l3_uses_large_entry_in_flat_node() {
        let (mut store, mut alloc, mut m) = setup(Layout::flat_l4l3());
        let va = VirtAddr::new(0x40_0000_0000);
        let pa = PhysAddr::new(0x80_0000_0000);
        m.map(
            &mut store,
            &mut alloc,
            &FlattenEverywhere,
            va,
            pa,
            PageSize::Size1G,
        )
        .unwrap();
        let w = resolve(&store, m.table(), va.add(0x1000)).unwrap();
        assert_eq!(w.size, PageSize::Size1G);
        assert_eq!(
            w.steps.len(),
            1,
            "single access: terminal inside the flat root"
        );
        assert_eq!(m.census().replicated_entries, 0);
    }

    #[test]
    fn dense_region_page_table_size_matches_paper_scale() {
        // Paper §1: an 8 GB application has ≈16 MB of leaf page table —
        // 4-level: ~4106 nodes of 4 KB; flattened: nine 2 MB nodes.
        // Scale down 64x (128 MB of 4 KB mappings) to keep the test fast.
        let footprint: u64 = 128 << 20;
        for (layout, expect_flat) in [
            (Layout::conventional4(), false),
            (Layout::flat_l4l3_l2l1(), true),
        ] {
            let (mut store, mut alloc, mut m) = setup(layout);
            let base = 0x10_0000_0000u64;
            let mut pa = 0x20_0000_0000u64;
            let mut off = 0;
            while off < footprint {
                m.map(
                    &mut store,
                    &mut alloc,
                    &FlattenEverywhere,
                    VirtAddr::new(base + off),
                    PhysAddr::new(pa),
                    PageSize::Size4K,
                )
                .unwrap();
                pa += 4096;
                off += 4096;
            }
            let c = m.census();
            if expect_flat {
                // One flat root (L4+L3) + one flat leaf node (covers 1 GB
                // of VA, so the 128 MB fits in one).
                assert_eq!(c.flat2_nodes, 2, "{c:?}");
                assert_eq!(c.conventional_nodes, 0);
            } else {
                // root + 1 L3 + 1 L2 + 64 L1 nodes
                assert_eq!(c.conventional_nodes, 3 + 64, "{c:?}");
            }
        }
    }

    /// The mapping cursor is an optimization only: replaying a map
    /// sequence with the cursor forgotten before every call (so every
    /// call descends from the root) must give the same results, the
    /// same walks and the same table shape.
    mod cursor_props {
        use super::*;
        use crate::PhysAllocator;
        use proptest::prelude::*;

        /// 1 GB regions the generated VAs fall in; the last sits under
        /// a different top-level entry.
        const REGIONS: [u64; 3] = [0x10_0000_0000, 0x10_4000_0000, 0x7fff_c000_0000];

        #[derive(Debug, Clone, Copy)]
        enum Op {
            /// `count` consecutive 4 KB pages from `va`.
            Map4K {
                va: u64,
                count: u64,
            },
            Map2M {
                va: u64,
            },
            Promote {
                va: u64,
                top: Level,
            },
        }

        #[derive(Debug, PartialEq)]
        enum Outcome {
            Map(Result<(), MapError>),
            Promote(Result<(), PromoteError>),
        }

        /// Decodes one generated step. A promotion is followed by a
        /// run of 4 KB mappings from the promoted VA, which is where a
        /// cursor left stale by the promotion would write.
        fn decode((kind, slot, extra): (u8, u64, u64)) -> Vec<Op> {
            let region = REGIONS[(slot % 3) as usize] + ((slot / 3) << 21);
            let page = region + (extra % 512) * 4096;
            let run = Op::Map4K {
                va: page,
                count: 1 + (extra / 512) % 64,
            };
            match kind {
                0..=2 => vec![Op::Map4K { va: page, count: 1 }],
                3..=5 => vec![run],
                6 | 7 => vec![Op::Map2M { va: region }],
                _ => {
                    let top = [Level::L2, Level::L3, Level::L4][(extra % 3) as usize];
                    vec![Op::Promote { va: page, top }, run]
                }
            }
        }

        struct Run {
            outcomes: Vec<Outcome>,
            mapped: Vec<VirtAddr>,
            store: FrameStore,
            mapper: Mapper,
        }

        fn replay(
            layout: &Layout,
            nf: &NfRegions,
            refuse_2m: bool,
            ops: &[Op],
            forget: bool,
        ) -> Run {
            let bump = BumpAllocator::new(0x4000_0000);
            let mut alloc: Box<dyn PhysAllocator> = if refuse_2m {
                Box::new(No2MbAllocator(bump))
            } else {
                Box::new(bump)
            };
            let mut store = FrameStore::new();
            let mapper = Mapper::new(&mut store, &mut *alloc, layout.clone(), nf).unwrap();
            let mut run = Run {
                outcomes: Vec::new(),
                mapped: Vec::new(),
                store,
                mapper,
            };
            // Data frames live far above the node allocator's range.
            let mut next_pa = 0x100_0000_0000u64;
            for &op in ops {
                let (first, count, size) = match op {
                    Op::Map4K { va, count } => (va, count, PageSize::Size4K),
                    Op::Map2M { va } => (va, 1, PageSize::Size2M),
                    Op::Promote { va, top } => {
                        let va = VirtAddr::new(va);
                        let result = run.mapper.promote(&mut run.store, &mut *alloc, va, top);
                        run.outcomes.push(Outcome::Promote(result));
                        continue;
                    }
                };
                for i in 0..count {
                    if forget {
                        run.mapper.forget_cursor();
                    }
                    let va = VirtAddr::new(first + i * 4096);
                    let pa = PhysAddr::new(next_pa);
                    next_pa += 2 << 20;
                    let result = run
                        .mapper
                        .map(&mut run.store, &mut *alloc, nf, va, pa, size);
                    if result.is_ok() {
                        run.mapped.push(va);
                        if size == PageSize::Size2M {
                            run.mapped.push(va.add(0x12_3000));
                        }
                    }
                    run.outcomes.push(Outcome::Map(result));
                }
            }
            run
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn cursor_matches_root_descent(
                setup in (0u8..3, 0u64..8, 0u8..2),
                ops in prop::collection::vec((0u8..9, 0u64..6, 0u64..32768), 1..40),
            ) {
                let (layout_pick, nf_mask, refuse) = setup;
                let layout = [
                    Layout::conventional4(),
                    Layout::flat_l4l3_l2l1(),
                    Layout::flat5_l5l4_l3l2(),
                ][layout_pick as usize]
                    .clone();
                let mut nf = NfRegions::new();
                for (i, &region) in REGIONS.iter().enumerate() {
                    if nf_mask & (1 << i) != 0 {
                        nf.mark(VirtAddr::new(region));
                    }
                }
                let ops: Vec<Op> = ops.into_iter().flat_map(decode).collect();
                let fast = replay(&layout, &nf, refuse == 1, &ops, false);
                let slow = replay(&layout, &nf, refuse == 1, &ops, true);

                prop_assert_eq!(fast.outcomes.len(), slow.outcomes.len());
                for (i, (a, b)) in fast.outcomes.iter().zip(&slow.outcomes).enumerate() {
                    prop_assert_eq!(a, b, "call {} of {:?}", i, ops);
                }
                prop_assert_eq!(fast.mapper.table(), slow.mapper.table());
                prop_assert_eq!(fast.mapper.census(), slow.mapper.census());
                prop_assert_eq!(
                    fast.store.materialized_frames(),
                    slow.store.materialized_frames()
                );
                for &va in &fast.mapped {
                    let a = resolve(&fast.store, fast.mapper.table(), va);
                    let b = resolve(&slow.store, slow.mapper.table(), va);
                    prop_assert!(a.is_ok(), "mapped {va:?} does not resolve: {a:?}");
                    prop_assert_eq!(a, b, "walks differ at {:?}", va);
                }
            }
        }
    }
}
