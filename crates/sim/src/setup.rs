//! Build-once/run-many setup cache for experiment grids.
//!
//! Every grid cell used to pay the full *setup* phase — mapping the
//! whole footprint through [`flatwalk_os::AddressSpace::build`]
//! (millions of mapper calls at paper scale) and regenerating the
//! access stream — even though cells in one binary routinely share the
//! exact same space: Base and PTP both use `conventional4`, FPT and
//! FPT+PTP both use `flat_l4l3_l2l1`, and the PWC/ratio sweeps re-map
//! an identical space 8+ times while only varying cache parameters.
//!
//! Builds are deterministic functions of their specification (each one
//! starts from a fresh buddy allocator and seeded RNGs), so a snapshot
//! built once *is* the snapshot every equivalent cell would have built.
//! This module keys frozen spaces ([`flatwalk_os::FrozenSpace`] /
//! [`flatwalk_os::FrozenVirtSpace`], multicore bundles) and generated
//! access-stream prefixes by the full content of their specification
//! and shares them behind `Arc`s. Concurrent cells requesting the same
//! key block on a single build (a once-cell per key) and then share the
//! result, so output stays byte-identical to a cache-off run at any
//! thread count.
//!
//! Each of the four key→slot maps sits behind one `Mutex`, held only
//! to probe for a key and, on a miss, to publish a fresh once-cell. A
//! cell locks the maps it needs once each (its space, its stream).
//! The build runs outside the lock, so cells with different keys build
//! in parallel while cells sharing a key block inside the once-cell
//! until its one build completes.
//!
//! Disable with `FLATWALK_NO_SETUP_CACHE=1` (every cell then builds
//! privately, as before this cache existed); tests can force either
//! mode programmatically via [`set_cache_override`]. Hit/miss/eviction
//! counters and the aggregate setup-vs-run time split are exported
//! through [`setup_stats`] (and the `setup.cache.*` counters of the
//! obs registry) and shown on the runner's stderr progress line.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use flatwalk_faults::FaultyAllocator;
use flatwalk_os::{
    AddressSpace, AddressSpaceSpec, BuddyAllocator, FragmentationScenario, FrozenSpace,
    FrozenVirtSpace, VirtSpec, VirtualizedSpace,
};
use flatwalk_pt::{Layout, PhysAllocator};
use flatwalk_types::key::KeyWriter;
use flatwalk_types::rng::{splitmix_mix, SplitMix64};
use flatwalk_workloads::{AccessStream, WorkloadSpec};

/// Cache key for a native address space: every input that influences
/// the built table. `FragmentationScenario` holds an `f64`, so the
/// fraction is keyed by its bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct NativeKey {
    layout: Layout,
    base_va: u64,
    footprint: u64,
    scenario_bits: u64,
    nf_threshold: Option<u32>,
    phys_mem_bytes: u64,
    /// [`flatwalk_faults::signature_active`] at build time: snapshots
    /// built under different fault plans (or none) never alias.
    faults_sig: u64,
    /// [`flatwalk_mem::NumaTopology::signature`] of the requesting
    /// configuration: topologies with different node placement never
    /// share a snapshot (the single-node identity signature keys all
    /// pre-NUMA cells exactly as before).
    numa_sig: u64,
}

impl NativeKey {
    fn new(spec: &AddressSpaceSpec, phys_mem_bytes: u64, numa_sig: u64) -> Self {
        NativeKey {
            layout: spec.layout.clone(),
            base_va: spec.base_va,
            footprint: spec.footprint,
            scenario_bits: spec.scenario.large_page_fraction.to_bits(),
            nf_threshold: spec.nf_threshold,
            phys_mem_bytes,
            faults_sig: flatwalk_faults::signature_active(),
            numa_sig,
        }
    }
}

/// Cache key for a virtualized (guest + host) space: the guest key plus
/// the host layout and host large-page mix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct VirtKey {
    guest: NativeKey,
    host_layout: Layout,
    host_scenario_bits: u64,
}

/// Cache key for a four-core bundle. The cores share one buddy
/// allocator *sequentially* (core i's frames depend on what cores
/// 0..i allocated), so the bundle caches as a unit, never per core.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MulticoreKey {
    parts: [&'static str; 4],
    layout: Layout,
    nf_threshold: Option<u32>,
    scenario_bits: u64,
    footprint_divisor: u64,
    phys_mem_bytes: u64,
    faults_sig: u64,
    numa_sig: u64,
}

/// Cache key for a generated access-stream prefix. Offsets are
/// base-VA-relative (the base is added at replay), so the key carries
/// only the generator inputs. The pattern is keyed by its canonical
/// text ([`flatwalk_workloads::Pattern::write_key`]), which writes
/// every float by its bits and so identifies the pattern exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StreamKey {
    name: &'static str,
    footprint: u64,
    seed: u64,
    pattern: String,
    ops: u64,
}

/// One cache slot: concurrent requesters share the `OnceLock`, so the
/// first builds while the rest block, then everyone clones the `Arc`.
type Slot<T> = Arc<OnceLock<Arc<T>>>;

/// One key→slot map.
type Map<K, T> = Mutex<HashMap<K, Slot<T>>>;

#[derive(Default)]
struct Caches {
    native: Map<NativeKey, FrozenSpace>,
    virt: Map<VirtKey, FrozenVirtSpace>,
    multicore: Map<MulticoreKey, Vec<Arc<FrozenSpace>>>,
    streams: Map<StreamKey, Vec<u64>>,
}

fn caches() -> &'static Caches {
    static CACHES: OnceLock<Caches> = OnceLock::new();
    CACHES.get_or_init(Caches::default)
}

fn lock<K, T>(map: &Map<K, T>) -> MutexGuard<'_, HashMap<K, Slot<T>>> {
    map.lock().unwrap_or_else(|e| e.into_inner()) // lock-ok: one probe per cell, never a build
}

/// Empties `map`, returning how many entries it held. The entries
/// drop after the lock is released.
fn drain<K, T>(map: &Map<K, T>) -> u64 {
    let dropped = std::mem::take(&mut *lock(map));
    dropped.len() as u64
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static SETUP_NANOS: AtomicU64 = AtomicU64::new(0);
static RUN_NANOS: AtomicU64 = AtomicU64::new(0);

/// `0` = follow the environment, `1` = force on, `2` = force off.
/// The programmatic override exists for tests, which cannot mutate the
/// process environment safely while worker threads run.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Counters exported by the setup cache (process-wide totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetupStats {
    /// Requests served from an already-built snapshot (including
    /// requests that waited on a build another thread had in flight).
    pub hits: u64,
    /// Requests that performed the build.
    pub misses: u64,
    /// Entries dropped from the cache (see [`clear_setup_cache`]).
    pub evictions: u64,
    /// Total nanoseconds simulations spent in their build phase.
    pub setup_nanos: u64,
    /// Total nanoseconds simulations spent in their run phase.
    pub run_nanos: u64,
}

impl SetupStats {
    /// Stats accumulated since `earlier` (saturating).
    pub fn since(&self, earlier: &SetupStats) -> SetupStats {
        SetupStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            setup_nanos: self.setup_nanos.saturating_sub(earlier.setup_nanos),
            run_nanos: self.run_nanos.saturating_sub(earlier.run_nanos),
        }
    }
}

/// Snapshot of the process-wide setup-cache counters.
pub fn setup_stats() -> SetupStats {
    SetupStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        setup_nanos: SETUP_NANOS.load(Ordering::Relaxed),
        run_nanos: RUN_NANOS.load(Ordering::Relaxed),
    }
}

/// Drops every cached setup artifact, returning the number of entries
/// evicted (also counted into `setup.cache.evictions` in the obs
/// registry and [`SetupStats::evictions`]). Long-running hosts
/// (`flatwalk-serve`) can call this between job campaigns to release
/// snapshot memory; the next request for any key simply rebuilds.
pub fn clear_setup_cache() -> u64 {
    let c = caches();
    let evicted = drain(&c.native) + drain(&c.virt) + drain(&c.multicore) + drain(&c.streams);
    count_evictions(evicted);
    evicted
}

/// Drops every cached access-stream prefix of exactly `ops` operations,
/// returning how many were dropped (counted as evictions, like
/// [`clear_setup_cache`]); frozen spaces and other op counts stay.
/// Experiment grids keep their streams for the life of the process, as
/// their cells reuse them. A long-lived `flatwalk-serve` calls this
/// after a job with op-count overrides, whose streams nothing else is
/// likely to reuse, so that distinct overrides do not accumulate one
/// block each. A dropped stream requested again is regenerated,
/// identical to the first.
pub fn evict_streams(ops: u64) -> u64 {
    let evicted = {
        let mut streams = lock(&caches().streams);
        let before = streams.len();
        streams.retain(|key, _| key.ops != ops);
        (before - streams.len()) as u64
    };
    count_evictions(evicted);
    evicted
}

fn count_evictions(evicted: u64) {
    EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    flatwalk_obs::metrics::add_global("setup.cache.evictions", evicted);
}

thread_local! {
    /// Per-cell phase-time accumulators. Each experiment cell runs
    /// wholly on one worker thread, so zeroing these at cell start and
    /// reading them at cell end attributes the process-wide
    /// `record_*_time` calls to that cell.
    static CELL_SETUP_NANOS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static CELL_RUN_NANOS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Zeroes this thread's per-cell setup/run time accumulators (the
/// runner calls this immediately before a cell's closure).
pub fn begin_cell_timing() {
    CELL_SETUP_NANOS.with(|c| c.set(0));
    CELL_RUN_NANOS.with(|c| c.set(0));
}

/// This thread's accumulated `(setup_nanos, run_nanos)` since the last
/// [`begin_cell_timing`].
pub fn cell_timing() -> (u64, u64) {
    (
        CELL_SETUP_NANOS.with(|c| c.get()),
        CELL_RUN_NANOS.with(|c| c.get()),
    )
}

/// Adds one simulation's build-phase duration to the process totals
/// (called by the simulation builders; feeds the progress meter's
/// setup-vs-run split).
pub fn record_setup_time(elapsed: Duration) {
    let nanos = elapsed.as_nanos() as u64;
    SETUP_NANOS.fetch_add(nanos, Ordering::Relaxed);
    CELL_SETUP_NANOS.with(|c| c.set(c.get() + nanos));
}

/// Adds one simulation's run-phase duration to the process totals.
pub fn record_run_time(elapsed: Duration) {
    let nanos = elapsed.as_nanos() as u64;
    RUN_NANOS.fetch_add(nanos, Ordering::Relaxed);
    CELL_RUN_NANOS.with(|c| c.set(c.get() + nanos));
}

/// Forces the setup cache on (`Some(true)`), off (`Some(false)`), or
/// back to the `FLATWALK_NO_SETUP_CACHE` environment setting (`None`).
pub fn set_cache_override(force: Option<bool>) {
    let v = match force {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// Whether setup artifacts are being cached: the programmatic override
/// if set, else enabled unless `FLATWALK_NO_SETUP_CACHE` is set to a
/// non-empty value other than `0`.
pub fn cache_enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => match std::env::var("FLATWALK_NO_SETUP_CACHE") {
            Ok(v) => v.is_empty() || v == "0",
            Err(_) => true,
        },
    }
}

fn get_or_build<K, T, F>(map: &Map<K, T>, key: K, build: F) -> Arc<T>
where
    K: Eq + Hash,
    F: FnOnce() -> Arc<T>,
{
    // The map's lock covers only the probe and, on a miss, the
    // publication of a fresh once-cell; it is released before
    // building, so concurrent cells with *different* keys build in
    // parallel while cells sharing this key block inside `get_or_init`
    // until the one build completes.
    //
    // The probe span covers the lookup *and* any blocking wait on a
    // sibling's in-flight build; the build itself opens its own
    // `setup.build` / `setup.freeze` spans, nested under this one.
    let _probe = flatwalk_obs::span::enter("setup.probe");
    let slot = Arc::clone(lock(map).entry(key).or_default());
    let mut built = false;
    let value = slot.get_or_init(|| {
        built = true;
        build()
    });
    if built {
        MISSES.fetch_add(1, Ordering::Relaxed);
        flatwalk_obs::metrics::add_global("setup.cache.miss", 1);
    } else {
        HITS.fetch_add(1, Ordering::Relaxed);
        flatwalk_obs::metrics::add_global("setup.cache.hit", 1);
    }
    Arc::clone(value)
}

/// Runs `build` against `buddy`, decorated by the active fault plan's
/// allocation-fault injector (identity when no plan injects allocation
/// faults). The fault stream is derived only from the plan seed and
/// `salt` — which must come from cache-key inputs — so identical keys
/// always see identical fault sequences, regardless of cache state,
/// build order, or thread count. A `frag` plan additionally shreds part
/// of the pool first; the held frames stay live for the whole build,
/// keeping the fragmentation pressure on.
fn with_fault_alloc<T>(
    buddy: &mut BuddyAllocator,
    salt: u64,
    build: impl FnOnce(&mut dyn PhysAllocator) -> T,
) -> T {
    match flatwalk_faults::active().filter(|p| p.alloc_faults()) {
        Some(plan) => {
            if let Some((hold_fraction, max_bytes)) = plan.frag_campaign() {
                let mut rng = SplitMix64::new(splitmix_mix(plan.seed) ^ salt);
                let _held = buddy.fragment_region(&mut rng, hold_fraction, max_bytes);
            }
            let mut faulty =
                FaultyAllocator::new(buddy, plan.seed ^ salt, plan.refusal_probability());
            build(&mut faulty)
        }
        None => build(buddy),
    }
}

fn native_fault_salt(spec: &AddressSpaceSpec) -> u64 {
    splitmix_mix(spec.base_va)
        ^ splitmix_mix(spec.footprint)
        ^ spec.scenario.large_page_fraction.to_bits()
}

fn build_native(spec: &AddressSpaceSpec, phys_mem_bytes: u64) -> Arc<FrozenSpace> {
    let space = {
        let _build = flatwalk_obs::span::enter("setup.build");
        let mut buddy = BuddyAllocator::new(0, phys_mem_bytes);
        with_fault_alloc(&mut buddy, native_fault_salt(spec), |alloc| {
            AddressSpace::build(spec.clone(), alloc)
                .unwrap_or_else(|e| panic!("failed to build address space: {e}"))
        })
    };
    let _freeze = flatwalk_obs::span::enter("setup.freeze");
    Arc::new(space.freeze())
}

/// Returns the frozen snapshot for `spec`, building it on the first
/// request and sharing the `Arc` on every later one. Each build starts
/// from a fresh `BuddyAllocator::new(0, phys_mem_bytes)`, exactly as a
/// private per-cell build would, so the shared snapshot is
/// bit-identical to what any cell would construct for itself.
///
/// # Panics
///
/// Panics if the space cannot be built (physical memory too small for
/// the footprint).
pub fn frozen_native_space(
    spec: &AddressSpaceSpec,
    phys_mem_bytes: u64,
    numa_sig: u64,
) -> Arc<FrozenSpace> {
    if !cache_enabled() {
        return build_native(spec, phys_mem_bytes);
    }
    get_or_build(
        &caches().native,
        NativeKey::new(spec, phys_mem_bytes, numa_sig),
        || build_native(spec, phys_mem_bytes),
    )
}

fn build_virt(
    guest_spec: &AddressSpaceSpec,
    host_layout: &Layout,
    host_scenario: FragmentationScenario,
    phys_mem_bytes: u64,
) -> Arc<FrozenVirtSpace> {
    let vspec =
        VirtSpec::new(guest_spec.clone(), host_layout.clone()).with_host_scenario(host_scenario);
    // The host must back all of guest-physical memory plus its own
    // page-table nodes; size system memory accordingly (2x the guest,
    // power of two, placed above guest-physical addresses).
    let host_bytes = (vspec.guest_mem_bytes * 2).max(phys_mem_bytes.next_power_of_two());
    let vspace = {
        let _build = flatwalk_obs::span::enter("setup.build");
        let mut host_alloc = BuddyAllocator::new(host_bytes, host_bytes);
        let salt = native_fault_salt(guest_spec)
            ^ splitmix_mix(host_scenario.large_page_fraction.to_bits())
            ^ flatwalk_faults::mix_str("virt-host");
        with_fault_alloc(&mut host_alloc, salt, |alloc| {
            VirtualizedSpace::build(vspec, alloc)
                .unwrap_or_else(|e| panic!("failed to build virtualized space: {e}"))
        })
    };
    let _freeze = flatwalk_obs::span::enter("setup.freeze");
    Arc::new(vspace.freeze())
}

/// Returns the frozen guest + host snapshot for the given virtualized
/// configuration, building it on first request (see
/// [`frozen_native_space`] for the sharing contract).
///
/// # Panics
///
/// Panics if either table cannot be built.
pub fn frozen_virt_space(
    guest_spec: &AddressSpaceSpec,
    host_layout: &Layout,
    host_scenario: FragmentationScenario,
    phys_mem_bytes: u64,
    numa_sig: u64,
) -> Arc<FrozenVirtSpace> {
    if !cache_enabled() {
        return build_virt(guest_spec, host_layout, host_scenario, phys_mem_bytes);
    }
    let key = VirtKey {
        guest: NativeKey::new(guest_spec, phys_mem_bytes, numa_sig),
        host_layout: host_layout.clone(),
        host_scenario_bits: host_scenario.large_page_fraction.to_bits(),
    };
    get_or_build(&caches().virt, key, || {
        build_virt(guest_spec, host_layout, host_scenario, phys_mem_bytes)
    })
}

/// Per-core base VA used by the multicore simulation (core `i` gets a
/// 1 TB-spaced window).
pub fn multicore_base_va(core: usize) -> u64 {
    0x1000_0000_0000 + (core as u64) * 0x100_0000_0000
}

fn build_multicore(
    parts: [&'static str; 4],
    layout: &Layout,
    nf_threshold: Option<u32>,
    scenario: FragmentationScenario,
    footprint_divisor: u64,
    phys_mem_bytes: u64,
) -> Arc<Vec<Arc<FrozenSpace>>> {
    // The per-core builds freeze inline, so one span covers both here.
    let _build = flatwalk_obs::span::enter("setup.build");
    let mut buddy = BuddyAllocator::new(0, phys_mem_bytes);
    let salt = parts
        .iter()
        .fold(splitmix_mix(footprint_divisor), |acc, name| {
            acc ^ flatwalk_faults::mix_str(name)
        })
        ^ scenario.large_page_fraction.to_bits();
    let spaces = with_fault_alloc(&mut buddy, salt, |alloc| {
        parts
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let spec = WorkloadSpec::by_name(name)
                    .unwrap_or_else(|| panic!("unknown benchmark {name:?}"))
                    .scaled_down(footprint_divisor);
                let space_spec = AddressSpaceSpec::new(layout.clone(), spec.footprint)
                    .with_scenario(scenario)
                    .with_nf_threshold(nf_threshold)
                    .with_base_va(multicore_base_va(i));
                Arc::new(
                    AddressSpace::build(space_spec, &mut *alloc)
                        .unwrap_or_else(|e| panic!("core {i} address space: {e}"))
                        .freeze(),
                )
            })
            .collect()
    });
    Arc::new(spaces)
}

/// Returns the four frozen per-core spaces for a multicore mix,
/// building them on first request. The four spaces are carved from one
/// shared physical memory in core order (as the simulation always did),
/// so they are cached as one bundle.
///
/// # Panics
///
/// Panics on unknown benchmark names or if physical memory cannot hold
/// all four footprints.
pub fn frozen_multicore_spaces(
    parts: [&'static str; 4],
    layout: &Layout,
    nf_threshold: Option<u32>,
    scenario: FragmentationScenario,
    footprint_divisor: u64,
    phys_mem_bytes: u64,
    numa_sig: u64,
) -> Arc<Vec<Arc<FrozenSpace>>> {
    if !cache_enabled() {
        return build_multicore(
            parts,
            layout,
            nf_threshold,
            scenario,
            footprint_divisor,
            phys_mem_bytes,
        );
    }
    let key = MulticoreKey {
        parts,
        layout: layout.clone(),
        nf_threshold,
        scenario_bits: scenario.large_page_fraction.to_bits(),
        footprint_divisor,
        phys_mem_bytes,
        faults_sig: flatwalk_faults::signature_active(),
        numa_sig,
    };
    get_or_build(&caches().multicore, key, || {
        build_multicore(
            parts,
            layout,
            nf_threshold,
            scenario,
            footprint_divisor,
            phys_mem_bytes,
        )
    })
}

fn generate_offsets(spec: &WorkloadSpec, ops: u64) -> Arc<Vec<u64>> {
    let mut stream = AccessStream::new(spec.clone(), 0);
    Arc::new((0..ops.max(1)).map(|_| stream.next_va().raw()).collect())
}

/// Returns the first `ops` footprint-relative offsets of `spec`'s
/// deterministic access stream, cached per (workload content, length).
/// A simulation replays the block at its own base VA
/// ([`AccessStream::replay`] adds the base per access), producing the
/// identical VA sequence a freshly seeded generator would — each run
/// consumes exactly its warm-up + measured operations, so the block is
/// never looped.
pub fn stream_offsets(spec: &WorkloadSpec, ops: u64) -> Arc<Vec<u64>> {
    if !cache_enabled() {
        return generate_offsets(spec, ops);
    }
    let mut pattern = KeyWriter::default();
    spec.pattern.write_key(&mut pattern);
    let key = StreamKey {
        name: spec.name,
        footprint: spec.footprint,
        seed: spec.seed,
        pattern: pattern.finish(),
        ops,
    };
    get_or_build(&caches().streams, key, || generate_offsets(spec, ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatwalk_pt::resolve;
    use flatwalk_types::VirtAddr;

    /// Tests in this module (and the integration tests) flip the cache
    /// override, which is process-global — serialize them.
    pub(crate) fn override_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner()) // lock-ok: test-only override
    }

    fn test_spec(base_va: u64) -> AddressSpaceSpec {
        AddressSpaceSpec::new(Layout::flat_l4l3_l2l1(), 16 << 20).with_base_va(base_va)
    }

    #[test]
    fn same_key_shares_one_snapshot() {
        let _guard = override_lock();
        set_cache_override(Some(true));
        let spec = test_spec(0x7000_0000_0000);
        let a = frozen_native_space(&spec, 1 << 30, 0);
        let b = frozen_native_space(&spec, 1 << 30, 0);
        assert!(Arc::ptr_eq(&a, &b), "identical keys must share the Arc");
        set_cache_override(None);
    }

    #[test]
    fn concurrent_requests_for_one_fresh_key_build_once() {
        let _guard = override_lock();
        set_cache_override(Some(true));
        let spec = test_spec(0x7900_0000_0000);
        let start = std::sync::Barrier::new(8);
        let spaces: Vec<_> = std::thread::scope(|scope| {
            let requests: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        frozen_native_space(&spec, 1 << 30, 0)
                    })
                })
                .collect();
            requests.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(
            spaces.iter().all(|space| Arc::ptr_eq(space, &spaces[0])),
            "every requester shares the one build"
        );
        set_cache_override(None);
    }

    #[test]
    fn different_keys_build_distinct_snapshots() {
        let _guard = override_lock();
        set_cache_override(Some(true));
        let a = frozen_native_space(&test_spec(0x7100_0000_0000), 1 << 30, 0);
        let b = frozen_native_space(
            &test_spec(0x7100_0000_0000).with_scenario(FragmentationScenario::FULL),
            1 << 30,
            0,
        );
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(
            a.build_stats().huge_data_pages,
            b.build_stats().huge_data_pages
        );
        set_cache_override(None);
    }

    #[test]
    fn cached_snapshot_matches_fresh_build() {
        let _guard = override_lock();
        set_cache_override(Some(true));
        let spec = test_spec(0x7200_0000_0000);
        let cached = frozen_native_space(&spec, 1 << 30, 0);
        set_cache_override(Some(false));
        let fresh = frozen_native_space(&spec, 1 << 30, 0);
        assert!(!Arc::ptr_eq(&cached, &fresh));
        assert_eq!(
            cached.store().materialized_frames(),
            fresh.store().materialized_frames()
        );
        assert_eq!(cached.table().root, fresh.table().root);
        let va = VirtAddr::new(spec.base_va + 0x1234);
        let a = resolve(cached.store(), cached.table(), va).unwrap();
        let b = resolve(fresh.store(), fresh.table(), va).unwrap();
        assert_eq!(a.pa, b.pa);
        set_cache_override(None);
    }

    #[test]
    fn hit_and_miss_counters_advance() {
        let _guard = override_lock();
        set_cache_override(Some(true));
        let before = setup_stats();
        let spec = test_spec(0x7300_0000_0000);
        let _a = frozen_native_space(&spec, 1 << 30, 0);
        let _b = frozen_native_space(&spec, 1 << 30, 0);
        // Other tests may bump the global counters concurrently, so the
        // assertion is a lower bound contributed by the two calls above.
        let delta = setup_stats().since(&before);
        assert!(delta.misses >= 1, "first request must build ({delta:?})");
        assert!(delta.hits >= 1, "second request must hit ({delta:?})");
        set_cache_override(None);
    }

    #[test]
    fn clear_counts_evictions() {
        let _guard = override_lock();
        set_cache_override(Some(true));
        let before = setup_stats();
        let _a = frozen_native_space(&test_spec(0x7600_0000_0000), 1 << 30, 0);
        let _b = frozen_native_space(&test_spec(0x7700_0000_0000), 1 << 30, 0);
        let evicted = clear_setup_cache();
        assert!(evicted >= 2, "both fresh entries must be dropped");
        let delta = setup_stats().since(&before);
        assert!(
            delta.evictions >= 2,
            "evictions counter advances ({delta:?})"
        );
        // The cleared keys rebuild as misses, not hits.
        let miss_base = setup_stats();
        let _a2 = frozen_native_space(&test_spec(0x7600_0000_0000), 1 << 30, 0);
        assert!(setup_stats().since(&miss_base).misses >= 1);
        set_cache_override(None);
    }

    #[test]
    fn disabled_cache_builds_privately() {
        let _guard = override_lock();
        set_cache_override(Some(false));
        assert!(!cache_enabled());
        let spec = test_spec(0x7400_0000_0000);
        let a = frozen_native_space(&spec, 1 << 30, 0);
        let b = frozen_native_space(&spec, 1 << 30, 0);
        assert!(!Arc::ptr_eq(&a, &b), "disabled cache must not share");
        set_cache_override(None);
    }

    #[test]
    fn stream_block_replays_identically() {
        let _guard = override_lock();
        set_cache_override(Some(true));
        let spec = WorkloadSpec::mcf().scaled_mib(32);
        let base = 0x5000_0000_0000u64;
        let block = stream_offsets(&spec, 4_000);
        let again = stream_offsets(&spec, 4_000);
        assert!(Arc::ptr_eq(&block, &again));
        let mut replayed = AccessStream::replay(spec.clone(), base, block);
        let mut synthetic = AccessStream::new(spec, base);
        for _ in 0..4_000 {
            assert_eq!(replayed.next_va(), synthetic.next_va());
        }
        set_cache_override(None);
    }

    #[test]
    fn patterns_one_float_bit_apart_key_apart() {
        let _guard = override_lock();
        set_cache_override(Some(true));
        let hot = |hot_prob| WorkloadSpec {
            pattern: flatwalk_workloads::Pattern::Hot {
                hot_bytes: 1 << 20,
                hot_prob,
            },
            ..WorkloadSpec::gups().scaled_mib(16)
        };
        let prob = 0.9f64;
        let next = f64::from_bits(prob.to_bits() + 1);
        let a = stream_offsets(&hot(prob), 2_719);
        let b = stream_offsets(&hot(next), 2_719);
        assert!(!Arc::ptr_eq(&a, &b), "each pattern gets its own block");
        assert!(Arc::ptr_eq(&a, &stream_offsets(&hot(prob), 2_719)));
        set_cache_override(None);
    }

    #[test]
    fn evicted_streams_regenerate_identically() {
        let _guard = override_lock();
        set_cache_override(Some(true));
        let gups = WorkloadSpec::gups().scaled_mib(16);
        let mcf = WorkloadSpec::mcf().scaled_mib(16);
        let (one_off, kept) = (3_137, 3_138);
        let first = stream_offsets(&gups, one_off);
        stream_offsets(&mcf, one_off);
        let other = stream_offsets(&gups, kept);
        assert_eq!(evict_streams(one_off), 2, "both workloads at that op count");
        assert_eq!(evict_streams(one_off), 0);
        assert!(
            Arc::ptr_eq(&other, &stream_offsets(&gups, kept)),
            "other op counts stay cached"
        );
        let again = stream_offsets(&gups, one_off);
        assert!(!Arc::ptr_eq(&first, &again), "the evicted block is rebuilt");
        assert_eq!(first, again, "a regenerated block replays identically");
        set_cache_override(None);
    }

    #[test]
    fn numa_signature_separates_cache_keys() {
        let _guard = override_lock();
        set_cache_override(Some(true));
        let spec = test_spec(0x7800_0000_0000);
        let a = frozen_native_space(&spec, 1 << 30, 0);
        let b = frozen_native_space(&spec, 1 << 30, 0x1234);
        assert!(
            !Arc::ptr_eq(&a, &b),
            "different topology signatures must not share a snapshot"
        );
        set_cache_override(None);
    }

    #[test]
    fn multicore_bundle_is_shared_and_ordered() {
        let _guard = override_lock();
        set_cache_override(Some(true));
        let parts = ["gups", "dc", "mcf", "dc"];
        let a = frozen_multicore_spaces(
            parts,
            &Layout::conventional4(),
            None,
            FragmentationScenario::NONE,
            1024,
            2 << 30,
            0,
        );
        let b = frozen_multicore_spaces(
            parts,
            &Layout::conventional4(),
            None,
            FragmentationScenario::NONE,
            1024,
            2 << 30,
            0,
        );
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 4);
        for (i, space) in a.iter().enumerate() {
            assert_eq!(space.spec().base_va, multicore_base_va(i));
        }
        set_cache_override(None);
    }
}
