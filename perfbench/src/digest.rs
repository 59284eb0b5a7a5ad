//! Digests over a cell's modelled statistics: the correctness gate.
//!
//! A digest covers instructions, cycles and the walk, TLB, PSC, cache,
//! DRAM and NUMA counters of a [`SimReport`] — the numbers the model
//! computes — and not its JSON rendering, so a report-schema change
//! leaves digests alone while any change to modelled behaviour moves
//! them.

use flatwalk_sim::SimReport;
use flatwalk_types::stats::HitMiss;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn hit_miss(&mut self, hm: &HitMiss) {
        self.word(hm.hits);
        self.word(hm.misses);
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Folds one report's modelled statistics into `h`.
pub fn fold_report(h: &mut Fnv, r: &SimReport) {
    h.word(r.instructions);
    h.word(r.cycles);
    h.word(r.walk.walks);
    h.word(r.walk.accesses);
    h.word(r.walk.latency);
    let s = &r.walk.step_hits;
    for v in [s.l1, s.l2, s.l3, s.dram] {
        h.word(v);
    }
    for hm in [&r.tlb.l1_4k, &r.tlb.l1_2m, &r.tlb.l1_1g, &r.tlb.l2] {
        h.hit_miss(hm);
    }
    h.word(r.tlb.walks);
    h.word(r.tlb.translations);
    h.word(r.pwc.len() as u64);
    for (bits, hm) in &r.pwc {
        h.word(u64::from(*bits));
        h.hit_miss(hm);
    }
    for c in [&r.hier.l1, &r.hier.l2, &r.hier.l3] {
        h.hit_miss(&c.data);
        h.hit_miss(&c.page_table);
        h.word(c.fills);
    }
    h.word(r.hier.dram.data_accesses);
    h.word(r.hier.dram.page_table_accesses);
    h.word(u64::from(r.hier.numa.nodes));
    for n in &r.hier.numa.per_node {
        h.word(n.local);
        h.word(n.remote);
        h.word(n.hops);
    }
    h.word(r.phase_flips);
}

/// The digest of one report.
pub fn report_digest(r: &SimReport) -> u64 {
    let mut h = Fnv::default();
    fold_report(&mut h, r);
    h.finish()
}

/// The digest of a multicore run: its per-core reports in core order.
pub fn reports_digest(reports: &[SimReport]) -> u64 {
    let mut h = Fnv::default();
    for r in reports {
        fold_report(&mut h, r);
    }
    h.finish()
}
