//! NUMA topology: home-node resolution and remote-access timing.
//!
//! Every modelled DRAM access resolves against a *home node* — a pure
//! function of the physical address — and pays an interconnect penalty
//! proportional to the hop distance between the requesting core's node
//! and that home node. A single-node topology is the exact identity:
//! every address is local, every access costs the hierarchy's plain
//! `dram_latency`, and no per-node statistics are surfaced, so all
//! pre-NUMA results stay byte-identical.
//!
//! Addresses are normally interleaved across nodes at a configurable
//! granularity (default 2 MB, matching first-touch page interleaving at
//! huge-page grain). A *pinned* address range overrides interleaving:
//! [`pin_to_node`] tags an address with an explicit home node in its
//! high bits, which is how per-node page-table replicas (Mitosis) place
//! each replica in its reader's local memory.

use flatwalk_types::key::KeyWriter;
use flatwalk_types::PhysAddr;

/// Upper bound on modelled nodes, sized so per-node counters stay a
/// `Copy` fixed array inside [`crate::HierarchyStats`].
pub const MAX_NODES: usize = 8;

/// Flag bit marking a pinned physical address (explicit home node).
/// Simulated physical memories top out well below 2^48, so bits 48..=56
/// are free to carry placement metadata.
const PIN_FLAG: u64 = 1 << 56;
/// Bit position of the pinned node id.
const PIN_NODE_SHIFT: u32 = 48;
/// Mask of the pinned node id field (8 bits).
const PIN_NODE_MASK: u64 = 0xff;

/// Pins `pa` to `node`: the returned address resolves to `node`
/// regardless of the interleaving. Distinct nodes yield distinct
/// addresses (and therefore distinct cache lines), which is exactly
/// right for replicated structures — each replica is its own memory.
pub fn pin_to_node(pa: PhysAddr, node: u32) -> PhysAddr {
    debug_assert!((node as usize) < MAX_NODES);
    PhysAddr::new(PIN_FLAG | ((node as u64 & PIN_NODE_MASK) << PIN_NODE_SHIFT) | pa.raw())
}

/// How nodes are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interconnect {
    /// Every node one hop from every other (small glueless systems,
    /// fully connected QPI/UPI meshes).
    FullMesh,
    /// Nodes on a bidirectional ring; hop count is the shorter ring
    /// distance (larger multi-socket and chiplet systems).
    Ring,
}

/// Node count, per-node DRAM timing, remote-hop penalty, and the
/// interconnect model — the placement half of the memory system.
///
/// Carried inside [`crate::HierarchyConfig`], so every driver that
/// builds a [`crate::MemoryHierarchy`] resolves accesses against it.
#[derive(Debug, Clone, PartialEq)]
pub struct NumaTopology {
    /// Per-node local DRAM latency override in cycles; `None` uses the
    /// hierarchy's `dram_latency` (homogeneous nodes). Length is the
    /// node count.
    node_latencies: Vec<Option<u64>>,
    /// Added cycles per interconnect hop on a remote access.
    hop_latency: u64,
    /// log2 of the interleave granularity in bytes (default 21 = 2 MB).
    interleave_shift: u32,
    /// Hop-distance model.
    interconnect: Interconnect,
}

impl Default for NumaTopology {
    fn default() -> Self {
        NumaTopology::single()
    }
}

impl NumaTopology {
    /// The identity topology: one node, zero hop penalty. Every access
    /// is local at the plain `dram_latency` — byte-identical to the
    /// pre-NUMA memory model.
    pub fn single() -> Self {
        NumaTopology {
            node_latencies: vec![None],
            hop_latency: 0,
            interleave_shift: 21,
            interconnect: Interconnect::FullMesh,
        }
    }

    /// A homogeneous `n`-node topology (full mesh, 2 MB interleave,
    /// a default one-hop penalty of 90 cycles — the common ~1.45x
    /// remote/local DRAM ratio at the server config's 200-cycle local
    /// latency).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`MAX_NODES`].
    pub fn nodes(n: usize) -> Self {
        assert!((1..=MAX_NODES).contains(&n), "node count {n} out of range");
        NumaTopology {
            node_latencies: vec![None; n],
            hop_latency: if n > 1 { 90 } else { 0 },
            interleave_shift: 21,
            interconnect: Interconnect::FullMesh,
        }
    }

    /// Sets the per-hop remote penalty in cycles.
    pub fn with_hop_latency(mut self, cycles: u64) -> Self {
        self.hop_latency = cycles;
        self
    }

    /// Sets the interleave granularity as log2 bytes (12 = per page,
    /// 21 = per 2 MB region).
    pub fn with_interleave_shift(mut self, shift: u32) -> Self {
        self.interleave_shift = shift.min(40);
        self
    }

    /// Sets the interconnect model.
    pub fn with_interconnect(mut self, interconnect: Interconnect) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Overrides node `i`'s local DRAM latency (heterogeneous memory,
    /// e.g. one die-stacked fast node).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid node index.
    pub fn with_node_latency(mut self, i: usize, cycles: u64) -> Self {
        self.node_latencies[i] = Some(cycles);
        self
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.node_latencies.len() as u32
    }

    /// Whether this is the 1-node identity (no NUMA effects possible).
    pub fn is_single(&self) -> bool {
        self.node_latencies.len() == 1
    }

    /// The home node of `pa`: its pinned node if pinned, else the
    /// interleaved node of its address block.
    pub fn home_node(&self, pa: PhysAddr) -> u32 {
        let n = self.node_latencies.len() as u64;
        if n == 1 {
            return 0;
        }
        let raw = pa.raw();
        if raw & PIN_FLAG != 0 {
            let node = (raw >> PIN_NODE_SHIFT) & PIN_NODE_MASK;
            return (node % n) as u32;
        }
        ((raw >> self.interleave_shift) % n) as u32
    }

    /// Interconnect hop count between two nodes (0 when equal).
    pub fn hops(&self, from: u32, to: u32) -> u64 {
        if from == to {
            return 0;
        }
        match self.interconnect {
            Interconnect::FullMesh => 1,
            Interconnect::Ring => {
                let n = self.node_latencies.len() as u64;
                let d = (from as u64).abs_diff(to as u64) % n;
                d.min(n - d)
            }
        }
    }

    /// Total DRAM latency of an access from `from` to memory homed at
    /// `home`: the home node's local latency (or `default_latency`)
    /// plus the hop penalty. Strictly monotonic in hop count whenever
    /// `hop_latency > 0`.
    pub fn access_latency(&self, default_latency: u64, from: u32, home: u32) -> u64 {
        let local = self
            .node_latencies
            .get(home as usize)
            .copied()
            .flatten()
            .unwrap_or(default_latency);
        local + self.hop_latency * self.hops(from, home)
    }

    /// Writes every field of the topology into a canonical content
    /// key. Unlike [`NumaTopology::signature`], a hash, the text is
    /// equal only for equal topologies.
    pub fn write_key(&self, key: &mut KeyWriter) {
        let NumaTopology {
            node_latencies,
            hop_latency,
            interleave_shift,
            interconnect,
        } = self;
        key.uint(node_latencies.len() as u64);
        for &latency in node_latencies {
            key.opt_uint(latency);
        }
        key.uint(*hop_latency)
            .uint(u64::from(*interleave_shift))
            .text(match interconnect {
                Interconnect::FullMesh => "mesh",
                Interconnect::Ring => "ring",
            });
    }

    /// Content signature for setup-cache keys: any change to the
    /// topology parameters changes the signature, and the signature of
    /// [`NumaTopology::single`] is stable across runs.
    pub fn signature(&self) -> u64 {
        use flatwalk_types::rng::splitmix_mix;
        let mut sig = splitmix_mix(self.node_latencies.len() as u64);
        for (i, lat) in self.node_latencies.iter().enumerate() {
            sig ^= splitmix_mix((i as u64) << 32 ^ lat.map_or(u64::MAX, |l| l));
        }
        sig ^= splitmix_mix(self.hop_latency.rotate_left(17));
        sig ^= splitmix_mix(self.interleave_shift as u64 ^ 0xa5a5);
        sig ^ splitmix_mix(match self.interconnect {
            Interconnect::FullMesh => 1,
            Interconnect::Ring => 2,
        })
    }
}

/// Per-node access tallies (counted at the home node's DRAM).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeNumaStats {
    /// Accesses whose requester and home node coincide.
    pub local: u64,
    /// Accesses served across the interconnect.
    pub remote: u64,
    /// Total interconnect hops paid by those remote accesses.
    pub hops: u64,
}

/// Per-node DRAM placement statistics. `nodes == 1` means the identity
/// topology: the counters still tick (node 0 is always local) but
/// reports omit them so single-node output is unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NumaStats {
    /// Modelled node count (0 until the first access records).
    pub nodes: u32,
    /// Tallies indexed by *home* node.
    pub per_node: [NodeNumaStats; MAX_NODES],
}

impl NumaStats {
    /// Whether multi-node statistics are worth reporting.
    pub fn multi_node(&self) -> bool {
        self.nodes > 1
    }

    /// Total local accesses across nodes.
    pub fn local(&self) -> u64 {
        self.per_node.iter().map(|n| n.local).sum()
    }

    /// Total remote accesses across nodes.
    pub fn remote(&self) -> u64 {
        self.per_node.iter().map(|n| n.remote).sum()
    }

    /// Total interconnect hops across nodes.
    pub fn hops(&self) -> u64 {
        self.per_node.iter().map(|n| n.hops).sum()
    }

    /// Records one access homed at `home`.
    pub fn record(&mut self, home: u32, hops: u64) {
        let slot = &mut self.per_node[home as usize % MAX_NODES];
        if hops == 0 {
            slot.local += 1;
        } else {
            slot.remote += 1;
            slot.hops += hops;
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &NumaStats) {
        self.nodes = self.nodes.max(other.nodes);
        for (a, b) in self.per_node.iter_mut().zip(other.per_node.iter()) {
            a.local += b.local;
            a.remote += b.remote;
            a.hops += b.hops;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_topology_is_identity() {
        let t = NumaTopology::single();
        assert!(t.is_single());
        assert_eq!(t.node_count(), 1);
        for raw in [0u64, 0x1234, 0x0dea_dbee_f000, u64::MAX >> 1] {
            assert_eq!(t.home_node(PhysAddr::new(raw)), 0);
            assert_eq!(t.access_latency(200, 0, 0), 200);
        }
    }

    #[test]
    fn interleaving_spreads_blocks_across_nodes() {
        let t = NumaTopology::nodes(2);
        assert_eq!(t.home_node(PhysAddr::new(0)), 0);
        assert_eq!(t.home_node(PhysAddr::new(2 << 20)), 1);
        assert_eq!(t.home_node(PhysAddr::new(4 << 20)), 0);
        // Addresses within one 2 MB block share a home.
        assert_eq!(
            t.home_node(PhysAddr::new(0x1000)),
            t.home_node(PhysAddr::new(0x2000))
        );
    }

    #[test]
    fn pinning_overrides_interleave() {
        let t = NumaTopology::nodes(4);
        let pa = PhysAddr::new(2 << 20); // interleaves to node 1
        assert_eq!(t.home_node(pa), 1);
        for node in 0..4 {
            assert_eq!(t.home_node(pin_to_node(pa, node)), node);
        }
        // Distinct pins are distinct addresses (distinct cache lines).
        assert_ne!(pin_to_node(pa, 0), pin_to_node(pa, 1));
    }

    #[test]
    fn latency_monotonic_in_ring_hops() {
        let t = NumaTopology::nodes(8)
            .with_interconnect(Interconnect::Ring)
            .with_hop_latency(50);
        let mut last = 0;
        for hops in 0..=4u64 {
            // On an 8-ring, node `hops` is exactly `hops` away from 0.
            assert_eq!(t.hops(0, hops as u32), hops);
            let lat = t.access_latency(200, 0, hops as u32);
            assert_eq!(lat, 200 + 50 * hops);
            assert!(lat > last || hops == 0);
            last = lat;
        }
        // Ring wraps: node 7 is one hop from node 0.
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(0, 4), 4);
    }

    #[test]
    fn mesh_is_one_hop_everywhere() {
        let t = NumaTopology::nodes(8);
        for to in 1..8 {
            assert_eq!(t.hops(0, to), 1);
        }
        assert_eq!(t.hops(3, 3), 0);
    }

    #[test]
    fn heterogeneous_node_latency() {
        let t = NumaTopology::nodes(2)
            .with_node_latency(1, 80)
            .with_hop_latency(10);
        assert_eq!(t.access_latency(200, 0, 0), 200);
        assert_eq!(t.access_latency(200, 1, 1), 80);
        assert_eq!(t.access_latency(200, 0, 1), 90);
    }

    #[test]
    fn signatures_distinguish_topologies() {
        let base = NumaTopology::nodes(2);
        assert_eq!(base.signature(), NumaTopology::nodes(2).signature());
        assert_ne!(base.signature(), NumaTopology::single().signature());
        assert_ne!(base.signature(), NumaTopology::nodes(4).signature());
        assert_ne!(
            base.signature(),
            base.clone().with_hop_latency(10).signature()
        );
        assert_ne!(
            base.signature(),
            base.clone().with_interleave_shift(12).signature()
        );
        assert_ne!(
            base.signature(),
            base.clone()
                .with_interconnect(Interconnect::Ring)
                .signature()
        );
        assert_ne!(
            base.signature(),
            base.clone().with_node_latency(0, 100).signature()
        );
    }

    #[test]
    fn stats_record_and_merge() {
        let mut s = NumaStats {
            nodes: 2,
            ..Default::default()
        };
        s.record(0, 0);
        s.record(1, 1);
        s.record(1, 2);
        assert_eq!(s.local(), 1);
        assert_eq!(s.remote(), 2);
        assert_eq!(s.hops(), 3);
        assert_eq!(s.per_node[1].remote, 2);
        let mut t = NumaStats::default();
        t.merge(&s);
        assert_eq!(t.nodes, 2);
        assert_eq!(t.remote(), 2);
        assert!(s.multi_node());
        assert!(!NumaStats::default().multi_node());
    }
}
