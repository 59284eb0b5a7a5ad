//! Process-lifetime, content-keyed result cache for finished grid
//! cells, layered **above** the `flatwalk_sim::setup` cache: setup
//! caching removes redundant address-space construction, this cache
//! removes redundant *simulation* — a repeat of an already-answered
//! cell is served in microseconds from memory, with the rendered
//! report JSON reused byte-for-byte (no re-simulation, no
//! re-serialization).
//!
//! Keys are pure content: the cell's workload, translation config,
//! scenario and options (via their `Debug` forms, which round-trip
//! every field including the f64 knobs) plus the active fault-plan
//! signature. Two cells with equal keys are the same deterministic
//! computation, so a hit is exact by construction. Poison profiles are
//! the one grid-*position*-dependent fault (they target `(index,
//! total)`), so any key formed under an active fault plan also carries
//! the cell's grid position.
//!
//! The **read path is lock-free**: the key→entry index is a
//! [`flatwalk_sync::SwapMap`] (epoch-style snapshot swaps), and a hit
//! refreshes its LRU recency with one relaxed atomic store — no
//! `Mutex` anywhere between a request and its cached bytes. Writers
//! (insert + eviction) serialize on one mutex. Keys are shared
//! `Arc<str>`s, so the snapshot copy each insert makes costs a
//! reference count per entry rather than a copy of every key (about
//! 2 KB each), and an insert stays cheap next to the simulation it
//! follows however full the cache is.
//!
//! The cache is bounded by an approximate byte budget
//! (`FLATWALK_RESULT_CACHE_MB`, default 64 MB) with LRU eviction
//! (approximate under concurrency: a hit that races the eviction scan
//! may refresh a victim too late — it then simply re-enters on the
//! next miss). Failed cells are never cached: a failure under retries
//! is not content-deterministic the way a finished report is.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use flatwalk_sim::runner::Cell;
use flatwalk_sync::SwapMap;

/// A finished, cacheable cell execution.
#[derive(Debug, Clone)]
pub struct CachedCell {
    /// Rendered `SimReport::to_json()` bytes (shared, never re-built).
    pub report_json: Arc<str>,
    /// Nanoseconds the original execution spent building.
    pub setup_nanos: u64,
    /// Nanoseconds the original execution spent simulating.
    pub run_nanos: u64,
    /// Failed attempts before the original execution succeeded.
    pub retries: u32,
}

impl CachedCell {
    fn cost_bytes(&self, key_len: usize) -> u64 {
        // Key + report text dominate; the fixed fields are noise but
        // keep zero-length entries from being free.
        (key_len + self.report_json.len() + 64) as u64
    }
}

/// The content key of one cell under the active fault plan.
///
/// `index`/`total` are folded in only when a fault plan is active
/// (signature ≠ 0): poison faults select their victim by grid
/// position, so position becomes part of the computation's identity.
/// Fault-free cells stay position-independent — the same cell content
/// hits the same entry from any grid, any index.
pub fn cell_key(cell: &Cell, plan_signature: u64, index: usize, total: usize) -> String {
    let mut key = format!(
        "{:?}|{:?}|{:?}|{:?}|{:#018x}",
        cell.workload, cell.config, cell.scenario, cell.opts, plan_signature
    );
    // Rival cells run a different computation under the same
    // workload/config/options: fold the kind (pure data — the runner fn
    // is determined by it) into the key. Native cells keep their
    // pre-rival keys byte-identical.
    if let Some((kind, _)) = cell.rival {
        key.push_str(&format!("|rival:{kind:?}"));
    }
    if plan_signature != 0 {
        key.push_str(&format!("|{index}/{total}"));
    }
    key
}

/// One resident entry: immutable value, atomically refreshed recency.
#[derive(Debug)]
struct Entry {
    value: CachedCell,
    cost: u64,
    /// Monotone use tick for LRU ordering; a hit stores the current
    /// tick with a relaxed atomic — no lock on the read path.
    last_used: AtomicU64,
}

/// An LRU-by-bytes map from [`cell_key`] to [`CachedCell`] with
/// lock-free lookups.
#[derive(Debug)]
pub struct ResultCache {
    map: SwapMap<Arc<str>, Arc<Entry>>,
    tick: AtomicU64,
    bytes: AtomicU64,
    evicted: AtomicU64,
    /// Serializes insert + eviction (byte accounting); never taken by
    /// [`ResultCache::get`].
    write: Mutex<()>,
    budget_bytes: u64,
}

impl ResultCache {
    /// A cache bounded to roughly `budget_bytes` of key + report text.
    pub fn new(budget_bytes: u64) -> ResultCache {
        ResultCache {
            map: SwapMap::new(),
            tick: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            write: Mutex::new(()),
            budget_bytes,
        }
    }

    /// Looks `key` up, refreshing its recency on a hit. Lock-free: a
    /// snapshot probe plus one relaxed store.
    pub fn get(&self, key: &str) -> Option<CachedCell> {
        // `SwapMap::get` takes its own key type, so the probe key is
        // built as an `Arc<str>`.
        let entry = self.map.get(&Arc::from(key))?;
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(tick, Ordering::Relaxed);
        Some(entry.value.clone())
    }

    /// Whether `key` is resident; leaves its recency as it is.
    pub fn contains(&self, key: &Arc<str>) -> bool {
        self.map.get(key).is_some()
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-used
    /// entries until the budget holds again. A value larger than the
    /// whole budget is admitted alone — serving one oversized grid cell
    /// from cache still beats re-simulating it.
    pub fn insert(&self, key: String, value: CachedCell) {
        self.insert_shared(key.into(), value);
    }

    /// [`insert`](ResultCache::insert) for a key the caller already
    /// holds as a shared `Arc<str>`; the cache keeps that allocation.
    pub fn insert_shared(&self, key: Arc<str>, value: CachedCell) {
        let _write = self.write.lock().unwrap_or_else(|e| e.into_inner()); // lock-ok: write path
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let cost = value.cost_bytes(key.len());
        let entry = Arc::new(Entry {
            value,
            cost,
            last_used: AtomicU64::new(tick),
        });
        if let Some(old) = self.map.get(&key) {
            self.bytes.fetch_sub(old.cost, Ordering::Relaxed);
        }
        self.map.insert(key, entry);
        self.bytes.fetch_add(cost, Ordering::Relaxed);
        while self.bytes.load(Ordering::Relaxed) > self.budget_bytes && self.map.len() > 1 {
            // Coldest entry across the current snapshots (exact while
            // the write lock serializes mutation; concurrent hits can
            // only make a victim look *colder* than it just became).
            let victim = self.map.fold(None::<(Arc<str>, u64)>, |acc, snap| {
                snap.iter().fold(acc, |acc, (k, e)| {
                    let used = e.last_used.load(Ordering::Relaxed);
                    match &acc {
                        Some((_, best)) if *best <= used => acc,
                        _ => Some((Arc::clone(k), used)),
                    }
                })
            });
            let Some((victim, _)) = victim else { break };
            if let Some(old) = self.map.get(&victim) {
                self.map.remove(&victim);
                self.bytes.fetch_sub(old.cost, Ordering::Relaxed);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Entries evicted so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(cache.get("k").is_none());
        cache.insert("k".into(), cell("{\"a\":1}"));
        let hit = cache.get("k").unwrap();
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
        assert!(cache.get("a").is_some(), "refresh a; b is now coldest");
        cache.insert("c".into(), cell(&payload));
        assert!(cache.get("b").is_none(), "b evicted");
        assert!(cache.get("a").is_some() && cache.get("c").is_some());
        assert_eq!(cache.evicted(), 1);
    }

    #[test]
    fn oversized_value_is_admitted_alone() {
        let cache = ResultCache::new(16);
        cache.insert("big".into(), cell(&"y".repeat(500)));
        assert_eq!(cache.len(), 1, "a single entry may exceed the budget");
        cache.insert("big2".into(), cell(&"y".repeat(500)));
        assert_eq!(cache.len(), 1, "but two may not");
        assert!(cache.get("big2").is_some(), "newest survives");
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
        assert_ne!(victima_key, mitosis_key);
        assert_ne!(mitosis_key, cell_key(&numa_base, 0, 0, 9));
        assert!(
            !native_key.contains("rival"),
            "native keys stay byte-identical to pre-rival keys"
        );
    }

    /// Stress loop: readers hammer lock-free `get` while inserts churn
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
                    while !stop.load(Ordering::Relaxed) {
                        for k in 0..16u64 {
                            if let Some(hit) = cache.get(&format!("k{k}")) {
                                assert!(hit.report_json.starts_with(&format!("{k}:")));
                            }
                        }
                    }
                })
            })
            .collect();
        for round in 0..200u64 {
            let k = round % 16;
            cache.insert(format!("k{k}"), cell(&format!("{k}:{payload}")));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(cache.evicted() > 0, "budget forces evictions during churn");
    }
}
