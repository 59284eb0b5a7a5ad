//! Process-lifetime, content-keyed result cache for finished grid
//! cells, layered **above** the `flatwalk_sim::setup` cache: setup
//! caching removes redundant address-space construction, this cache
//! removes redundant *simulation* — a repeat of an already-answered
//! cell is served in microseconds from memory, with the rendered
//! report JSON reused byte-for-byte (no re-simulation, no
//! re-serialization).
//!
//! Keys are pure content, written by [`cell_key`] in the canonical
//! encoding of [`flatwalk_types::key`]: [`MODEL_EPOCH`], then every
//! field of the cell's workload (its pattern recursively), translation
//! config, scenario, options (caches, TLBs, PSC and the NUMA topology
//! field by field) and rival kind, then the active fault-plan
//! signature. Each keyed type is destructured exhaustively, so a field
//! added to any of them does not compile until the key covers it. Two
//! cells with equal keys are the same deterministic computation, so a
//! hit is exact by construction. Poison profiles are the one
//! grid-*position*-dependent fault (they target `(index, total)`), so
//! any key formed under an active fault plan also carries the cell's
//! grid position.
//!
//! Concurrency: the whole cache sits behind one `Mutex`, held for one
//! hash probe per served cell (a lookup, or an insert after an
//! execution or a store hit), so a busy server takes it a few
//! thousand times a second, for under a microsecond each. Keys
//! are shared `Arc<str>`s, taken from the caller by lookups and
//! inserts alike, so neither copies a key.
//!
//! The cache is bounded by an approximate byte budget
//! (`FLATWALK_RESULT_CACHE_MB`, default 64 MB) with exact LRU
//! eviction: a `BTreeMap` from use tick to key orders the entries, so
//! an insert or an eviction costs O(log n) however full the cache is.
//! Failed cells are never cached: a cell can fail to a cancel or a
//! wall-clock deadline, and neither is part of its key.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

use flatwalk_os::FragmentationScenario;
use flatwalk_sim::runner::Cell;
use flatwalk_sim::{
    CacheConfig, HierarchyConfig, PwcConfig, PwcDepthConfig, RivalKind, SimOptions, TlbConfig,
    TlbSystemConfig, TranslationConfig,
};
use flatwalk_types::key::KeyWriter;
use flatwalk_types::PageSize;
use flatwalk_workloads::WorkloadSpec;

/// A finished, cacheable cell execution.
#[derive(Debug, Clone)]
pub struct CachedCell {
    /// Rendered `SimReport::to_json()` bytes (shared, never re-built).
    pub report_json: Arc<str>,
    /// Nanoseconds the original execution spent building.
    pub setup_nanos: u64,
    /// Nanoseconds the original execution spent simulating.
    pub run_nanos: u64,
    /// Always 0: cells are never re-run, and the store no longer
    /// records the field. Kept for callers that still build it.
    pub retries: u32,
}

impl CachedCell {
    fn cost_bytes(&self, key_len: usize) -> u64 {
        // Key + report text dominate; the fixed fields are noise but
        // keep zero-length entries from being free.
        (key_len + self.report_json.len() + 64) as u64
    }
}

/// The model epoch, the first field of every [`cell_key`]. Bump its
/// number with any change that moves modelled output: keys of the old
/// epoch then miss, and their cells re-run.
pub const MODEL_EPOCH: &str = "e1";

/// The content key of one cell under the active fault plan.
///
/// `index`/`total` are folded in only when a fault plan is active
/// (signature ≠ 0): poison faults select their victim by grid
/// position, so position becomes part of the computation's identity.
/// Fault-free cells stay position-independent — the same cell content
/// hits the same entry from any grid, any index.
pub fn cell_key(cell: &Cell, plan_signature: u64, index: usize, total: usize) -> String {
    // The rival runner is not keyed: the scheme crate supplies one
    // runner, which dispatches on the kind.
    let Cell {
        workload,
        config,
        scenario,
        opts,
        rival,
    } = cell;
    let mut key = KeyWriter::with_capacity(512);
    key.text(MODEL_EPOCH);
    write_workload(&mut key, workload);
    write_config(&mut key, config);
    write_scenario(&mut key, *scenario);
    write_options(&mut key, opts);
    match rival.map(|(kind, _runner)| kind) {
        None => key.text("-"),
        Some(RivalKind::Victima) => key.text("victima"),
        Some(RivalKind::Mitosis { replicate }) => key.text("mitosis").flag(replicate),
    };
    key.uint(plan_signature);
    if plan_signature != 0 {
        key.uint(index as u64).uint(total as u64);
    }
    key.finish()
}

fn write_workload(key: &mut KeyWriter, workload: &WorkloadSpec) {
    let WorkloadSpec {
        name,
        footprint,
        pattern,
        work_per_access,
        data_exposure,
        seed,
    } = workload;
    key.text(name).uint(*footprint);
    pattern.write_key(key);
    key.uint(*work_per_access).float(*data_exposure).uint(*seed);
}

fn write_config(key: &mut KeyWriter, config: &TranslationConfig) {
    let TranslationConfig {
        label,
        layout,
        ptp,
        nf_threshold,
    } = config;
    key.text(label);
    layout.write_key(key);
    key.flag(*ptp).opt_uint(nf_threshold.map(u64::from));
}

fn write_scenario(key: &mut KeyWriter, scenario: FragmentationScenario) {
    let FragmentationScenario {
        large_page_fraction,
    } = scenario;
    key.float(large_page_fraction);
}

fn write_options(key: &mut KeyWriter, opts: &SimOptions) {
    let SimOptions {
        warmup_ops,
        measure_ops,
        phys_mem_bytes,
        hierarchy,
        tlb,
        pwc,
        nested_tlb_entries,
        footprint_divisor,
        scenario,
        host_scenario,
        ptp_bias,
        phase_window,
        phase_threshold,
        context_switch_interval,
    } = opts;
    key.uint(*warmup_ops)
        .uint(*measure_ops)
        .uint(*phys_mem_bytes);
    let HierarchyConfig {
        l1,
        l2,
        l3,
        dram_latency,
        numa,
    } = hierarchy;
    for cache in [l1, l2, l3] {
        write_cache(key, cache);
    }
    key.uint(*dram_latency);
    numa.write_key(key);
    let TlbSystemConfig {
        l1_4k,
        l1_2m,
        l1_1g,
        l2_entries,
        l2_ways,
        l2_latency,
    } = tlb;
    for array in [l1_4k, l1_2m, l1_1g] {
        write_tlb(key, array);
    }
    key.uint(*l2_entries as u64)
        .uint(*l2_ways as u64)
        .uint(*l2_latency);
    let PwcConfig {
        depths,
        latency,
        top_bit,
    } = pwc;
    key.uint(depths.len() as u64);
    for &PwcDepthConfig {
        prefix_bits,
        entries,
    } in depths
    {
        key.uint(u64::from(prefix_bits)).uint(entries as u64);
    }
    key.uint(*latency)
        .uint(u64::from(*top_bit))
        .uint(*nested_tlb_entries as u64)
        .uint(*footprint_divisor);
    write_scenario(key, *scenario);
    match host_scenario {
        None => {
            key.text("-");
        }
        Some(host) => write_scenario(key, *host),
    }
    key.float(*ptp_bias)
        .uint(*phase_window)
        .float(*phase_threshold)
        .opt_uint(*context_switch_interval);
}

fn write_cache(key: &mut KeyWriter, cache: &CacheConfig) {
    let CacheConfig {
        name,
        size_bytes,
        ways,
        latency,
        pt_priority,
        priority_prob,
    } = cache;
    key.text(name)
        .uint(*size_bytes)
        .uint(*ways as u64)
        .uint(*latency)
        .flag(*pt_priority)
        .float(*priority_prob);
}

fn write_tlb(key: &mut KeyWriter, tlb: &TlbConfig) {
    let TlbConfig {
        name,
        entries,
        ways,
        latency,
        page_size,
    } = tlb;
    key.text(name)
        .uint(*entries as u64)
        .uint(*ways as u64)
        .uint(*latency)
        .text(match page_size {
            PageSize::Size4K => "4k",
            PageSize::Size2M => "2m",
            PageSize::Size1G => "1g",
        });
}

/// One resident entry.
#[derive(Debug)]
struct Entry {
    value: CachedCell,
    cost: u64,
    /// The entry's last use, its key in [`Lru::order`].
    tick: u64,
}

/// The cache's state, all behind one lock.
#[derive(Debug, Default)]
struct Lru {
    entries: HashMap<Arc<str>, Entry>,
    /// Keys by last use, oldest first.
    order: BTreeMap<u64, Arc<str>>,
    tick: u64,
    bytes: u64,
    evicted: u64,
}

/// An exact LRU-by-bytes map from [`cell_key`] to [`CachedCell`].
#[derive(Debug)]
pub struct ResultCache {
    lru: Mutex<Lru>,
    budget_bytes: u64,
}

impl ResultCache {
    /// A cache bounded to roughly `budget_bytes` of key + report text.
    pub fn new(budget_bytes: u64) -> ResultCache {
        ResultCache {
            lru: Mutex::new(Lru::default()),
            budget_bytes,
        }
    }

    fn lru(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(|e| e.into_inner()) // lock-ok: one probe per served cell
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &Arc<str>) -> Option<CachedCell> {
        let mut guard = self.lru();
        let lru = &mut *guard;
        let entry = lru.entries.get_mut(key)?;
        let key = lru.order.remove(&entry.tick).expect("entries are ordered");
        lru.tick += 1;
        entry.tick = lru.tick;
        lru.order.insert(lru.tick, key);
        Some(entry.value.clone())
    }

    /// Whether `key` is resident; leaves its recency as it is.
    pub fn contains(&self, key: &Arc<str>) -> bool {
        self.lru().entries.contains_key(key)
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-used
    /// entries until the budget holds again. A value larger than the
    /// whole budget is admitted alone — serving one oversized grid cell
    /// from cache still beats re-simulating it. The cache keeps the
    /// caller's key allocation.
    pub fn insert(&self, key: Arc<str>, value: CachedCell) {
        let cost = value.cost_bytes(key.len());
        let mut guard = self.lru();
        let lru = &mut *guard;
        lru.tick += 1;
        lru.order.insert(lru.tick, Arc::clone(&key));
        lru.bytes += cost;
        let entry = Entry {
            value,
            cost,
            tick: lru.tick,
        };
        if let Some(old) = lru.entries.insert(key, entry) {
            lru.order.remove(&old.tick);
            lru.bytes -= old.cost;
        }
        while lru.bytes > self.budget_bytes && lru.entries.len() > 1 {
            let (_, victim) = lru.order.pop_first().expect("entries are ordered");
            let old = lru
                .entries
                .remove(&victim)
                .expect("ordered keys are resident");
            lru.bytes -= old.cost;
            lru.evicted += 1;
        }
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.lru().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lru().entries.is_empty()
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> u64 {
        self.lru().bytes
    }

    /// Entries evicted so far.
    pub fn evicted(&self) -> u64 {
        self.lru().evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatwalk_workloads::Pattern;

    fn cell(report: &str) -> CachedCell {
        CachedCell {
            report_json: Arc::from(report),
            setup_nanos: 1,
            run_nanos: 2,
            retries: 0,
        }
    }

    #[test]
    fn hit_returns_the_stored_value() {
        let cache = ResultCache::new(1 << 20);
        assert!(cache.get(&"k".into()).is_none());
        cache.insert("k".into(), cell("{\"a\":1}"));
        let hit = cache.get(&"k".into()).unwrap();
        assert_eq!(&*hit.report_json, "{\"a\":1}");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // Budget fits two entries (~1/4 KB each with overhead), not
        // three.
        let payload = "x".repeat(200);
        let budget = 2 * (1 + payload.len() + 64) as u64;
        let cache = ResultCache::new(budget);
        cache.insert("a".into(), cell(&payload));
        cache.insert("b".into(), cell(&payload));
        assert!(
            cache.get(&"a".into()).is_some(),
            "refresh a; b is now coldest"
        );
        cache.insert("c".into(), cell(&payload));
        assert!(cache.get(&"b".into()).is_none(), "b evicted");
        assert!(cache.get(&"a".into()).is_some() && cache.get(&"c".into()).is_some());
        assert_eq!(cache.evicted(), 1);
    }

    #[test]
    fn oversized_value_is_admitted_alone() {
        let cache = ResultCache::new(16);
        cache.insert("big".into(), cell(&"y".repeat(500)));
        assert_eq!(cache.len(), 1, "a single entry may exceed the budget");
        cache.insert("big2".into(), cell(&"y".repeat(500)));
        assert_eq!(cache.len(), 1, "but two may not");
        assert!(cache.get(&"big2".into()).is_some(), "newest survives");
    }

    #[test]
    fn replacement_updates_byte_accounting() {
        let cache = ResultCache::new(1 << 20);
        cache.insert("k".into(), cell(&"z".repeat(100)));
        let before = cache.bytes();
        cache.insert("k".into(), cell(&"z".repeat(10)));
        assert!(cache.bytes() < before, "smaller replacement shrinks usage");
        assert_eq!(cache.len(), 1);
    }

    /// The cache's behaviour spelled out as plainly as possible: keys
    /// in a `Vec` from least to most recently used, each with its
    /// payload and cost.
    #[derive(Default)]
    struct ReferenceLru {
        order: Vec<(String, String, u64)>,
        evicted: u64,
    }

    impl ReferenceLru {
        fn get(&mut self, key: &str) -> Option<String> {
            let i = self.order.iter().position(|(k, _, _)| k == key)?;
            let entry = self.order.remove(i);
            let payload = entry.1.clone();
            self.order.push(entry);
            Some(payload)
        }

        fn insert(&mut self, key: &str, payload: &str, budget: u64) {
            self.order.retain(|(k, _, _)| k != key);
            let cost = (key.len() + payload.len() + 64) as u64;
            self.order.push((key.into(), payload.into(), cost));
            while self.bytes() > budget && self.order.len() > 1 {
                self.order.remove(0);
                self.evicted += 1;
            }
        }

        fn bytes(&self) -> u64 {
            self.order.iter().map(|(_, _, cost)| cost).sum()
        }
    }

    #[test]
    fn matches_a_plain_lru_by_bytes() {
        use flatwalk_types::rng::SplitMix64;
        const KEYS: u64 = 12;
        // Keys of 2 or 3 bytes; payloads of a 3-digit step number and
        // 0..200 more bytes.
        const MAX_COST: u64 = 3 + 3 + 199 + 64;
        for seed in 0..4 {
            // From one entry at a time to all of them.
            for budget in (0..=KEYS).map(|n| n * MAX_COST) {
                let mut rng = SplitMix64::new(seed);
                let cache = ResultCache::new(budget);
                let mut reference = ReferenceLru::default();
                for step in 0..400 {
                    let key = format!("k{}", rng.next_range(KEYS));
                    let at = format!("seed {seed}, budget {budget}, step {step}, {key}");
                    if rng.chance(0.5) {
                        let got = cache.get(&key.as_str().into());
                        let got = got.map(|c| c.report_json.to_string());
                        assert_eq!(got, reference.get(&key), "get at {at}");
                    } else {
                        let pad = "v".repeat(rng.next_range(200) as usize);
                        let payload = format!("{step:03}{pad}");
                        cache.insert(key.as_str().into(), cell(&payload));
                        reference.insert(&key, &payload, budget);
                    }
                    assert_eq!(cache.len(), reference.order.len(), "len at {at}");
                    assert_eq!(cache.bytes(), reference.bytes(), "bytes at {at}");
                    assert_eq!(cache.evicted(), reference.evicted, "evicted at {at}");
                }
            }
        }
    }

    #[test]
    fn keys_fold_in_position_only_under_faults() {
        use flatwalk_bench::Mode;
        let grid = flatwalk_bench::grids::sec71_pwc(Mode::Quick, &Mode::Quick.server_options());
        let c = &grid.cells[0];
        assert_eq!(cell_key(c, 0, 0, 9), cell_key(c, 0, 5, 9));
        assert_ne!(cell_key(c, 0xabc, 0, 9), cell_key(c, 0xabc, 5, 9));
        assert_ne!(cell_key(c, 0, 0, 9), cell_key(c, 0xabc, 0, 9));
        assert_ne!(
            cell_key(&grid.cells[1], 0, 0, 9),
            cell_key(c, 0, 0, 9),
            "different cell content, different key"
        );
    }

    #[test]
    fn rival_kind_folds_into_keys() {
        use flatwalk_bench::Mode;
        use flatwalk_sim::RivalKind;
        fn dummy(
            _cell: &Cell,
            _kind: RivalKind,
        ) -> Result<flatwalk_sim::SimReport, flatwalk_sim::SimError> {
            unreachable!("key test never runs the cell")
        }
        let grid = flatwalk_bench::grids::sec71_pwc(Mode::Quick, &Mode::Quick.server_options());
        let native = grid.cells[0].clone();
        let mut victima = native.clone();
        victima.rival = Some((RivalKind::Victima, dummy));
        let mut mitosis = native.clone();
        mitosis.rival = Some((RivalKind::Mitosis { replicate: true }, dummy));
        let mut numa_base = native.clone();
        numa_base.rival = Some((RivalKind::Mitosis { replicate: false }, dummy));
        let native_key = cell_key(&native, 0, 0, 9);
        let victima_key = cell_key(&victima, 0, 0, 9);
        let mitosis_key = cell_key(&mitosis, 0, 0, 9);
        assert_ne!(native_key, victima_key);
        assert_ne!(native_key, mitosis_key);
        assert_ne!(victima_key, mitosis_key);
        assert_ne!(mitosis_key, cell_key(&numa_base, 0, 0, 9));
    }

    /// One edit of one input of a cell.
    type Edit = Box<dyn Fn(&mut Cell)>;

    /// Edits of every field of every keyed type, each paired with its
    /// name. Each edit leaves the cell a different computation.
    fn edits() -> Vec<(String, Edit)> {
        use flatwalk_sim::{Interconnect, NumaTopology};

        fn opts(cell: &mut Cell) -> &mut SimOptions {
            Arc::make_mut(&mut cell.opts)
        }
        fn edit(name: &str, f: impl Fn(&mut Cell) + 'static) -> (String, Edit) {
            (name.to_string(), Box::new(f))
        }
        fn pattern(name: &str, p: Pattern) -> (String, Edit) {
            edit(&format!("pattern {name}"), move |c| {
                c.workload.pattern = p.clone()
            })
        }
        let hot = |hot_bytes, hot_prob| Pattern::Hot {
            hot_bytes,
            hot_prob,
        };
        let chase = |cluster_bytes, switch_prob| Pattern::Chase {
            cluster_bytes,
            switch_prob,
        };
        let zipf = |regions, exponent| Pattern::Zipf { regions, exponent };
        let mix = |parts: Vec<(f64, Pattern)>| Pattern::Mix(parts);
        let inner = |w| mix(vec![(w, Pattern::Uniform), (1.0, zipf(8, 1.0))]);
        let mut edits = vec![
            edit("workload name", |c| c.workload.name = "other"),
            edit("footprint", |c| c.workload.footprint += 4096),
            pattern("stream", Pattern::Stream { stride: 64 }),
            pattern("stream stride", Pattern::Stream { stride: 128 }),
            pattern("hot", hot(1 << 20, 0.9)),
            pattern("hot bytes", hot(2 << 20, 0.9)),
            pattern("hot prob", hot(1 << 20, 0.8)),
            pattern("chase", chase(1 << 16, 0.1)),
            pattern("chase bytes", chase(1 << 17, 0.1)),
            pattern("chase prob", chase(1 << 16, 0.2)),
            pattern("zipf", zipf(64, 0.9)),
            pattern("zipf regions", zipf(65, 0.9)),
            pattern("zipf exponent", zipf(64, 1.1)),
            pattern("mix", mix(vec![(1.0, Pattern::Uniform)])),
            pattern("mix weight", mix(vec![(2.0, Pattern::Uniform)])),
            pattern("mix part", mix(vec![(1.0, zipf(64, 0.9))])),
            pattern(
                "mix length",
                mix(vec![(1.0, Pattern::Uniform), (1.0, Pattern::Uniform)]),
            ),
            pattern("nested mix", mix(vec![(1.0, inner(1.0))])),
            pattern("nested mix weight", mix(vec![(1.0, inner(3.0))])),
            edit("work per access", |c| c.workload.work_per_access += 1),
            edit("data exposure", |c| c.workload.data_exposure += 0.125),
            edit("workload seed", |c| c.workload.seed ^= 1),
            edit("config label", |c| c.config.label = "Other"),
            edit("layout", |c| {
                c.config.layout = TranslationConfig::flattened_l3l2().layout
            }),
            edit("ptp", |c| c.config.ptp = !c.config.ptp),
            edit("nf threshold", |c| {
                c.config.nf_threshold = Some(c.config.nf_threshold.map_or(32, |t| t + 1))
            }),
            edit("cell scenario", |c| {
                c.scenario = FragmentationScenario::HALF;
            }),
            edit("options scenario", |c| {
                opts(c).scenario = FragmentationScenario::HALF;
            }),
            edit("host scenario", |c| {
                opts(c).host_scenario = Some(FragmentationScenario::NONE);
            }),
            edit("warmup ops", |c| opts(c).warmup_ops += 1),
            edit("measure ops", |c| opts(c).measure_ops += 1),
            edit("phys mem", |c| opts(c).phys_mem_bytes += 4096),
            edit("dram latency", |c| opts(c).hierarchy.dram_latency += 1),
            edit("numa nodes", |c| {
                opts(c).hierarchy.numa = NumaTopology::nodes(2).with_hop_latency(0)
            }),
            edit("numa node latency", |c| {
                let numa = &mut opts(c).hierarchy.numa;
                *numa = numa.clone().with_node_latency(0, 150);
            }),
            edit("numa hop latency", |c| {
                let numa = &mut opts(c).hierarchy.numa;
                *numa = numa.clone().with_hop_latency(7);
            }),
            edit("numa interleave", |c| {
                let numa = &mut opts(c).hierarchy.numa;
                *numa = numa.clone().with_interleave_shift(12);
            }),
            edit("numa interconnect", |c| {
                let numa = &mut opts(c).hierarchy.numa;
                *numa = numa.clone().with_interconnect(Interconnect::Ring);
            }),
            edit("tlb l2 entries", |c| opts(c).tlb.l2_entries += 12),
            edit("tlb l2 ways", |c| opts(c).tlb.l2_ways += 1),
            edit("tlb l2 latency", |c| opts(c).tlb.l2_latency += 1),
            edit("pwc depth added", |c| {
                opts(c).pwc.depths.push(PwcDepthConfig {
                    prefix_bits: 36,
                    entries: 2,
                })
            }),
            edit("pwc depth bits", |c| opts(c).pwc.depths[0].prefix_bits += 9),
            edit("pwc depth entries", |c| opts(c).pwc.depths[0].entries += 1),
            edit("pwc latency", |c| opts(c).pwc.latency += 1),
            edit("pwc top bit", |c| opts(c).pwc.top_bit += 9),
            edit("nested tlb", |c| opts(c).nested_tlb_entries += 1),
            edit("footprint divisor", |c| opts(c).footprint_divisor += 1),
            edit("ptp bias", |c| opts(c).ptp_bias = 0.5),
            edit("phase window", |c| opts(c).phase_window += 1),
            edit("phase threshold", |c| opts(c).phase_threshold *= 2.0),
            edit("context switches", |c| {
                opts(c).context_switch_interval = Some(1000);
            }),
        ];
        fn level(c: &mut Cell, i: usize) -> &mut CacheConfig {
            let h = &mut opts(c).hierarchy;
            [&mut h.l1, &mut h.l2, &mut h.l3]
                .into_iter()
                .nth(i)
                .unwrap()
        }
        for i in 0..3 {
            let name = |field: &str| format!("cache {i} {field}");
            edits.extend([
                edit(&name("name"), move |c| level(c, i).name = "LX"),
                edit(&name("size"), move |c| level(c, i).size_bytes *= 2),
                edit(&name("ways"), move |c| level(c, i).ways *= 2),
                edit(&name("latency"), move |c| level(c, i).latency += 1),
                edit(&name("priority"), move |c| {
                    level(c, i).pt_priority = !level(c, i).pt_priority
                }),
                edit(&name("priority prob"), move |c| {
                    level(c, i).priority_prob = 0.75
                }),
            ]);
        }
        fn array(c: &mut Cell, i: usize) -> &mut TlbConfig {
            let t = &mut opts(c).tlb;
            [&mut t.l1_4k, &mut t.l1_2m, &mut t.l1_1g]
                .into_iter()
                .nth(i)
                .unwrap()
        }
        for i in 0..3 {
            let name = |field: &str| format!("tlb {i} {field}");
            edits.extend([
                edit(&name("name"), move |c| array(c, i).name = "TX"),
                edit(&name("entries"), move |c| array(c, i).entries *= 2),
                edit(&name("ways"), move |c| array(c, i).ways *= 2),
                edit(&name("latency"), move |c| array(c, i).latency += 1),
                edit(&name("page size"), move |c| {
                    let size = &mut array(c, i).page_size;
                    *size = match size {
                        PageSize::Size4K => PageSize::Size2M,
                        PageSize::Size2M | PageSize::Size1G => PageSize::Size4K,
                    };
                }),
            ]);
        }
        fn dummy(
            _cell: &Cell,
            _kind: RivalKind,
        ) -> Result<flatwalk_sim::SimReport, flatwalk_sim::SimError> {
            unreachable!("key test never runs the cell")
        }
        for kind in [
            RivalKind::Victima,
            RivalKind::Mitosis { replicate: true },
            RivalKind::Mitosis { replicate: false },
        ] {
            edits.push(edit(&format!("rival {kind:?}"), move |c| {
                c.rival = Some((kind, dummy))
            }));
        }
        edits
    }

    #[test]
    fn every_input_changes_the_key() {
        use flatwalk_bench::Mode;
        let grid = flatwalk_bench::grids::sec71_pwc(Mode::Quick, &Mode::Quick.server_options());
        let base = &grid.cells[0];
        let base_key = cell_key(base, 0, 0, 9);
        assert!(base_key.starts_with("e1;"), "{base_key}");
        let mut seen = std::collections::HashMap::new();
        for (name, edit) in edits() {
            let mut cell = base.clone();
            edit(&mut cell);
            let key = cell_key(&cell, 0, 0, 9);
            assert_ne!(key, base_key, "{name} left the key unchanged");
            if let Some(other) = seen.insert(key, name.clone()) {
                panic!("{name} and {other} wrote the same key");
            }
        }
        assert_ne!(cell_key(base, 0xabc, 0, 9), base_key, "plan signature");
        // The host scenario's `None` and `Some` write different fields.
        let mut some = base.clone();
        Arc::make_mut(&mut some.opts).host_scenario = Some(FragmentationScenario::HALF);
        let mut other = some.clone();
        Arc::make_mut(&mut other.opts).host_scenario = Some(FragmentationScenario::FULL);
        assert_ne!(cell_key(&some, 0, 0, 9), cell_key(&other, 0, 0, 9));
    }

    #[test]
    fn equal_cells_from_different_grids_key_equal() {
        use flatwalk_bench::{grids, Mode};
        let opts = Mode::Quick.server_options();
        let base = grids::fig09_base(Mode::Quick, &opts);
        let native = grids::fig09_native(Mode::Quick, &opts);
        let mut matched = 0;
        for (label, cell) in base.labels.iter().zip(&base.cells) {
            let i = native
                .labels
                .iter()
                .position(|l| l == label)
                .unwrap_or_else(|| panic!("{label} is in fig09_native"));
            assert_eq!(
                cell_key(cell, 0, 0, base.cells.len()),
                cell_key(&native.cells[i], 0, i, native.cells.len()),
                "{label}"
            );
            matched += 1;
        }
        assert!(matched > 0);
    }

    #[test]
    fn every_registered_grid_keys_compactly() {
        use flatwalk_bench::{grids, Mode};
        let opts = Mode::Quick.server_options();
        for def in grids::GRIDS {
            let grid = (def.build)(Mode::Quick, &opts);
            let total = grid.cells.len();
            for (i, cell) in grid.cells.iter().enumerate() {
                let key = cell_key(cell, 0, i, total);
                assert!(key.len() < 512, "{}: {} bytes: {key}", def.name, key.len());
            }
        }
    }

    /// Stress loop: readers hammer `get` while inserts churn
    /// generations and evictions; every hit must return an intact
    /// payload for its key.
    #[test]
    fn concurrent_reads_survive_insert_and_eviction_churn() {
        let payload = "p".repeat(100);
        let budget = 8 * (2 + payload.len() + 64) as u64;
        let cache = std::sync::Arc::new(ResultCache::new(budget));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cache = std::sync::Arc::clone(&cache);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for k in 0..16u64 {
                            if let Some(hit) = cache.get(&format!("k{k}").into()) {
                                assert!(hit.report_json.starts_with(&format!("{k}:")));
                            }
                        }
                    }
                })
            })
            .collect();
        for round in 0..200u64 {
            let k = round % 16;
            cache.insert(format!("k{k}").into(), cell(&format!("{k}:{payload}")));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(cache.evicted() > 0, "budget forces evictions during churn");
    }
}
