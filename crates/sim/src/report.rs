//! Simulation result reporting.

use flatwalk_faults::FaultStats;
use flatwalk_mem::{CacheStats, EnergyBreakdown, HierarchyStats};
use flatwalk_mmu::WalkerStats;
use flatwalk_obs::{Json, MetricsSnapshot};
use flatwalk_pt::NodeCensus;
use flatwalk_tlb::TlbSystemStats;
use flatwalk_types::stats::HitMiss;

/// The measured outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Benchmark name.
    pub workload: String,
    /// Configuration label ("Base", "FPT+PTP", …).
    pub config: &'static str,
    /// Instructions retired during measurement (memory ops + work).
    pub instructions: u64,
    /// Cycles accumulated during measurement.
    pub cycles: u64,
    /// Page-walk statistics ("memory requests per page walk" and walk
    /// latency — Fig. 1/10).
    pub walk: WalkerStats,
    /// TLB statistics.
    pub tlb: TlbSystemStats,
    /// Cache and DRAM statistics.
    pub hier: HierarchyStats,
    /// Dynamic energy breakdown (Fig. 13).
    pub energy: EnergyBreakdown,
    /// Page-table node census (table size, replication, fallbacks).
    pub census: NodeCensus,
    /// PTP phase-detector transitions during measurement (0 when PTP is
    /// off or the scheme has no detector).
    pub phase_flips: u64,
    /// Per-depth PSC hit/miss statistics, widest prefix first (empty for
    /// schemes without a native PSC).
    pub pwc: Vec<(u32, HitMiss)>,
    /// Fault-injection counters for the whole run, warm-up included
    /// (all zero when no fault plan is installed).
    pub faults: FaultStats,
}

impl SimReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// This run's IPC relative to a baseline run (1.05 = +5 %).
    pub fn speedup_vs(&self, baseline: &SimReport) -> f64 {
        let b = baseline.ipc();
        if b == 0.0 {
            0.0
        } else {
            self.ipc() / b
        }
    }

    /// Cache dynamic energy relative to a baseline (Fig. 13).
    pub fn cache_energy_vs(&self, baseline: &SimReport) -> f64 {
        self.energy.cache_vs(&baseline.energy)
    }

    /// DRAM accesses relative to a baseline (Fig. 13).
    pub fn dram_energy_vs(&self, baseline: &SimReport) -> f64 {
        self.energy.dram_vs(&baseline.energy)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<14} {:<9} ipc={:.4} walks/1k={:.1} acc/walk={:.2} walk_lat={:.1}",
            self.workload,
            self.config,
            self.ipc(),
            1000.0 * self.tlb.walks as f64 / self.tlb.translations.max(1) as f64,
            self.walk.accesses_per_walk(),
            self.walk.latency_per_walk(),
        )
    }

    /// This run's statistics as named counters (`walker.*`, `tlb.*`,
    /// `pwc.p{bits}.*`, `cache.*`, `dram.*`, `energy.*`, `pt.*`,
    /// `ptp.phase_flips`), which the runner merges into the global
    /// registry. Energy is counted in whole picojoules
    /// (`energy.{l1,l2,l3,dram}_pj`), rounded per cell, so a merge of
    /// any cells in any order adds up to the same totals.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.shared_metrics();
        let picojoules = |nj: f64| (nj * 1e3).round() as u64;
        m.add("energy.l1_pj", picojoules(self.energy.l1_nj))
            .add("energy.l2_pj", picojoules(self.energy.l2_nj))
            .add("energy.l3_pj", picojoules(self.energy.l3_nj))
            .add("energy.dram_pj", picojoules(self.energy.dram_nj));
        m
    }

    /// The metrics of [`SimReport::metrics`] and of the report's own
    /// `metrics` object, which differ only in how energy is written.
    fn shared_metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        m.add("walker.walks", self.walk.walks)
            .add("walker.accesses", self.walk.accesses)
            .add("walker.latency", self.walk.latency)
            .add("walker.steps.l1", self.walk.step_hits.l1)
            .add("walker.steps.l2", self.walk.step_hits.l2)
            .add("walker.steps.l3", self.walk.step_hits.l3)
            .add("walker.steps.dram", self.walk.step_hits.dram)
            .add("ptp.phase_flips", self.phase_flips)
            .add("tlb.l1_4k.hit", self.tlb.l1_4k.hits)
            .add("tlb.l1_4k.miss", self.tlb.l1_4k.misses)
            .add("tlb.l1_2m.hit", self.tlb.l1_2m.hits)
            .add("tlb.l1_2m.miss", self.tlb.l1_2m.misses)
            .add("tlb.l1_1g.hit", self.tlb.l1_1g.hits)
            .add("tlb.l1_1g.miss", self.tlb.l1_1g.misses)
            .add("tlb.l2.hit", self.tlb.l2.hits)
            .add("tlb.l2.miss", self.tlb.l2.misses)
            .add("tlb.walks", self.tlb.walks)
            .add("tlb.translations", self.tlb.translations);
        for (bits, hm) in &self.pwc {
            m.add(&format!("pwc.p{bits}.hit"), hm.hits)
                .add(&format!("pwc.p{bits}.miss"), hm.misses);
        }
        for (name, c) in [
            ("l1", &self.hier.l1),
            ("l2", &self.hier.l2),
            ("l3", &self.hier.l3),
        ] {
            m.add(&format!("cache.{name}.data.hit"), c.data.hits)
                .add(&format!("cache.{name}.data.miss"), c.data.misses)
                .add(&format!("cache.{name}.pt.hit"), c.page_table.hits)
                .add(&format!("cache.{name}.pt.miss"), c.page_table.misses)
                .add(&format!("cache.{name}.fills"), c.fills)
                .add(
                    &format!("cache.{name}.pt_victims"),
                    c.pt_evictions_during_priority,
                );
        }
        m.add("dram.data", self.hier.dram.data_accesses)
            .add("dram.pt", self.hier.dram.page_table_accesses)
            .add("energy.dram_accesses", self.energy.dram_accesses);
        self.census.record_metrics(&mut m);
        if self.hier.numa.multi_node() {
            m.add("numa.local", self.hier.numa.local())
                .add("numa.remote", self.hier.numa.remote())
                .add("numa.hops", self.hier.numa.hops());
            for (i, n) in self.hier.numa.per_node[..self.hier.numa.nodes as usize]
                .iter()
                .enumerate()
            {
                m.add(&format!("numa.node{i}.local"), n.local)
                    .add(&format!("numa.node{i}.remote"), n.remote)
                    .add(&format!("numa.node{i}.hops"), n.hops);
            }
        }
        if self.faults.any() {
            m.add("faults.shootdowns", self.faults.shootdowns)
                .add("faults.mid_run_fallbacks", self.faults.mid_run_fallbacks)
                .add("faults.injected", self.faults.faults_injected);
        }
        m
    }

    /// The full report as a JSON object with a stable field order
    /// (schema `flatwalk-report-v2`).
    pub fn to_json(&self) -> Json {
        fn hitmiss(hm: HitMiss) -> Json {
            let mut o = Json::obj();
            o.push("hits", hm.hits).push("misses", hm.misses);
            o
        }
        fn cache(c: &CacheStats) -> Json {
            let mut o = Json::obj();
            o.push("data", hitmiss(c.data))
                .push("page_table", hitmiss(c.page_table))
                .push("fills", c.fills)
                .push("pt_victims", c.pt_evictions_during_priority);
            o
        }

        let mut walk = Json::obj();
        walk.push("walks", self.walk.walks)
            .push("accesses", self.walk.accesses)
            .push("latency", self.walk.latency)
            .push("accesses_per_walk", self.walk.accesses_per_walk())
            .push("latency_per_walk", self.walk.latency_per_walk())
            .push("latency_p50", self.walk.latency_p50())
            .push("latency_p90", self.walk.latency_p90())
            .push("latency_p99", self.walk.latency_p99())
            .push("latency_p999", self.walk.latency_p999())
            .push(
                // Sparse form: `[bound, count]` pairs for the non-empty
                // buckets only (the log-linear histogram has hundreds of
                // buckets, nearly all zero for any one scheme).
                "latency_histogram",
                Json::Array(
                    self.walk
                        .latency_histogram
                        .nonzero_buckets()
                        .map(|(bound, count)| {
                            Json::Array(vec![Json::from(bound), Json::from(count)])
                        })
                        .collect(),
                ),
            )
            .push("latency_overflow", self.walk.latency_histogram.overflow());
        let mut steps = Json::obj();
        steps
            .push("l1", self.walk.step_hits.l1)
            .push("l2", self.walk.step_hits.l2)
            .push("l3", self.walk.step_hits.l3)
            .push("dram", self.walk.step_hits.dram);
        walk.push("step_hits", steps);

        let mut tlb = Json::obj();
        tlb.push("l1_4k", hitmiss(self.tlb.l1_4k))
            .push("l1_2m", hitmiss(self.tlb.l1_2m))
            .push("l1_1g", hitmiss(self.tlb.l1_1g))
            .push("l2", hitmiss(self.tlb.l2))
            .push("walks", self.tlb.walks)
            .push("translations", self.tlb.translations);

        let pwc: Vec<Json> = self
            .pwc
            .iter()
            .map(|(bits, hm)| {
                let mut o = Json::obj();
                o.push("prefix_bits", u64::from(*bits))
                    .push("hits", hm.hits)
                    .push("misses", hm.misses);
                o
            })
            .collect();

        let mut hier = Json::obj();
        hier.push("l1", cache(&self.hier.l1))
            .push("l2", cache(&self.hier.l2))
            .push("l3", cache(&self.hier.l3));
        let mut dram = Json::obj();
        dram.push("data_accesses", self.hier.dram.data_accesses)
            .push("page_table_accesses", self.hier.dram.page_table_accesses);
        hier.push("dram", dram);
        // Only multi-node runs carry a `numa` object — single-node
        // reports stay byte-identical to the pre-NUMA schema.
        if self.hier.numa.multi_node() {
            let mut numa = Json::obj();
            numa.push("nodes", u64::from(self.hier.numa.nodes))
                .push("local", self.hier.numa.local())
                .push("remote", self.hier.numa.remote())
                .push("hops", self.hier.numa.hops());
            let per_node: Vec<Json> = self.hier.numa.per_node[..self.hier.numa.nodes as usize]
                .iter()
                .map(|n| {
                    let mut o = Json::obj();
                    o.push("local", n.local)
                        .push("remote", n.remote)
                        .push("hops", n.hops);
                    o
                })
                .collect();
            numa.push("per_node", Json::Array(per_node));
            hier.push("numa", numa);
        }

        let mut energy = Json::obj();
        energy
            .push("l1_nj", self.energy.l1_nj)
            .push("l2_nj", self.energy.l2_nj)
            .push("l3_nj", self.energy.l3_nj)
            .push("dram_nj", self.energy.dram_nj)
            .push("dram_accesses", self.energy.dram_accesses);

        let mut census = Json::obj();
        census
            .push("conventional_nodes", self.census.conventional_nodes)
            .push("flat2_nodes", self.census.flat2_nodes)
            .push("flat3_nodes", self.census.flat3_nodes)
            .push("replicated_entries", self.census.replicated_entries)
            .push("fallback_nodes", self.census.fallback_nodes)
            .push("table_bytes", self.census.table_bytes());

        // The report's own metrics keep energy as the `_nj` gauges of
        // its schema; merged registries count picojoules instead.
        let mut metrics = self.shared_metrics();
        metrics
            .gauge("energy.l1_nj", self.energy.l1_nj)
            .gauge("energy.l2_nj", self.energy.l2_nj)
            .gauge("energy.l3_nj", self.energy.l3_nj)
            .gauge("energy.dram_nj", self.energy.dram_nj);

        let mut faults = Json::obj();
        faults
            .push("shootdowns", self.faults.shootdowns)
            .push("mid_run_fallbacks", self.faults.mid_run_fallbacks)
            .push("faults_injected", self.faults.faults_injected);

        let mut o = Json::obj();
        o.push("workload", self.workload.as_str())
            .push("config", self.config)
            .push("instructions", self.instructions)
            .push("cycles", self.cycles)
            .push("ipc", self.ipc())
            .push("phase_flips", self.phase_flips)
            .push("walk", walk)
            .push("tlb", tlb)
            .push("pwc", Json::Array(pwc))
            .push("hier", hier)
            .push("energy", energy)
            .push("census", census)
            .push("faults", faults)
            .push("metrics", metrics.to_json());
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(instructions: u64, cycles: u64) -> SimReport {
        SimReport {
            workload: "t".into(),
            config: "Base",
            instructions,
            cycles,
            walk: WalkerStats::default(),
            tlb: TlbSystemStats::default(),
            hier: HierarchyStats::default(),
            energy: EnergyBreakdown::default(),
            census: NodeCensus::default(),
            phase_flips: 0,
            pwc: Vec::new(),
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn ipc_and_speedup() {
        let base = report(1000, 2000);
        let fast = report(1000, 1000);
        assert!((base.ipc() - 0.5).abs() < 1e-12);
        assert!((fast.speedup_vs(&base) - 2.0).abs() < 1e-12);
        assert_eq!(report(10, 0).ipc(), 0.0);
    }

    #[test]
    fn summary_contains_key_fields() {
        let s = report(10, 10).summary();
        assert!(s.contains("ipc="));
        assert!(s.contains("acc/walk="));
    }

    #[test]
    fn metrics_expose_named_counters() {
        let mut r = report(10, 20);
        r.tlb.walks = 7;
        r.walk.walks = 7;
        r.walk.step_hits.l1 = 5;
        r.pwc.push((27, HitMiss { hits: 3, misses: 1 }));
        let m = r.metrics();
        assert_eq!(m.counter_value("tlb.walks"), 7);
        assert_eq!(m.counter_value("walker.walks"), 7);
        assert_eq!(m.counter_value("walker.steps.l1"), 5);
        assert_eq!(m.counter_value("pwc.p27.hit"), 3);
        assert_eq!(m.counter_value("pwc.p27.miss"), 1);
    }

    #[test]
    fn energy_merges_as_picojoule_counters_in_any_order() {
        let cell = |l1_nj, dram_nj| {
            let mut r = report(10, 20);
            r.energy.l1_nj = l1_nj;
            r.energy.dram_nj = dram_nj;
            r
        };
        let cells = [cell(1.0004, 3_472_020.0), cell(0.0006, 2_197_920.25)];
        let merged = |order: [usize; 2]| {
            let mut m = MetricsSnapshot::new();
            for i in order {
                m.merge(&cells[i].metrics());
            }
            m
        };
        assert_eq!(merged([0, 1]), merged([1, 0]));
        let m = merged([0, 1]);
        assert_eq!(m.counter_value("energy.l1_pj"), 1_000 + 1);
        assert_eq!(m.counter_value("energy.dram_pj"), 5_669_940_250);
        assert!(m.iter().all(|(name, _)| !name.ends_with("_nj")));
        // Each report's own metrics keep the `_nj` gauges.
        let json = cells[0].to_json();
        let own = json.get("metrics").unwrap();
        assert_eq!(own.get("energy.dram_nj"), Some(&Json::Float(3_472_020.0)));
        assert!(own.get("energy.dram_pj").is_none());
    }

    #[test]
    fn json_round_trips_and_keeps_key_order() {
        let mut r = report(100, 200);
        r.pwc.push((27, HitMiss { hits: 3, misses: 1 }));
        r.walk.record(&flatwalk_mmu::WalkTiming {
            pa: flatwalk_types::PhysAddr::new(0x1000),
            size: flatwalk_types::PageSize::Size4K,
            accesses: 1,
            latency: 5,
        });
        let text = r.to_json().to_string();
        assert!(!text.contains("NaN") && !text.contains("Infinity"));
        let parsed = flatwalk_obs::json::parse(&text).unwrap();
        assert_eq!(parsed.to_string(), text, "parse→write is the identity");
        assert_eq!(parsed.get("instructions").unwrap().as_u64(), Some(100));
        let pwc = parsed.get("pwc").unwrap().as_array().unwrap();
        assert_eq!(pwc.len(), 1);
        assert_eq!(pwc[0].get("prefix_bits").unwrap().as_u64(), Some(27));
        let walk = parsed.get("walk").unwrap();
        let hist = walk.get("latency_histogram").unwrap().as_array().unwrap();
        assert_eq!(hist.len(), 1, "sparse export: only non-empty buckets");
        let pair = hist[0].as_array().unwrap();
        assert_eq!(pair[0].as_u64(), Some(5), "latency 5 is recorded exactly");
        assert_eq!(pair[1].as_u64(), Some(1), "one recorded walk");
        assert_eq!(walk.get("latency_overflow").unwrap().as_u64(), Some(0));
        assert_eq!(walk.get("latency_p50").unwrap().as_u64(), Some(5));
        assert_eq!(walk.get("latency_p999").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn single_node_reports_carry_no_numa_keys() {
        // The identity guarantee's report half: a 1-node run must emit
        // exactly the pre-NUMA schema — no numa metrics, no numa JSON.
        let r = report(100, 200);
        assert!(!r.hier.numa.multi_node());
        let m = r.metrics();
        assert!(m.iter().all(|(k, _)| !k.contains("numa")));
        assert!(!r.to_json().to_string().contains("numa"));
    }

    #[test]
    fn multi_node_reports_expose_numa_counters_and_json() {
        let mut r = report(100, 200);
        r.hier.numa.nodes = 2;
        r.hier.numa.record(0, 0); // local on node 0
        r.hier.numa.record(1, 1); // remote, 1 hop, homed on node 1
        let m = r.metrics();
        assert_eq!(m.counter_value("numa.local"), 1);
        assert_eq!(m.counter_value("numa.remote"), 1);
        assert_eq!(m.counter_value("numa.hops"), 1);
        assert_eq!(m.counter_value("numa.node0.local"), 1);
        assert_eq!(m.counter_value("numa.node1.remote"), 1);
        let parsed = flatwalk_obs::json::parse(&r.to_json().to_string()).unwrap();
        let numa = parsed.get("hier").unwrap().get("numa").unwrap();
        assert_eq!(numa.get("nodes").unwrap().as_u64(), Some(2));
        assert_eq!(numa.get("local").unwrap().as_u64(), Some(1));
        assert_eq!(numa.get("remote").unwrap().as_u64(), Some(1));
        assert_eq!(numa.get("hops").unwrap().as_u64(), Some(1));
        assert_eq!(
            numa.get("per_node").unwrap().as_array().unwrap().len(),
            2,
            "per-node array is sized to the topology"
        );
    }
}
