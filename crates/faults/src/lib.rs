//! Deterministic fault injection for the flatwalk simulator.
//!
//! The paper's practicality argument rests on graceful degradation: on
//! fragmented, oversubscribed systems 0.5 %–12 % of 2 MB node
//! allocations fail (§3.2, §6.2) and the design must absorb every
//! failure through the 4 KB fallback path. This crate makes that
//! adversity reproducible. A seeded [`FaultPlan`] — SplitMix64-driven,
//! bit-for-bit deterministic across thread counts and processes —
//! injects three kinds of trouble:
//!
//! 1. **Allocation faults** ([`FaultyAllocator`]): transient refusals of
//!    2 MB / 1 GB requests and bounded fragmentation campaigns against
//!    the buddy allocator, forcing the fallback path *during* table
//!    growth rather than only from a pre-fragmented start state.
//! 2. **Mid-run mutations** ([`FaultPlan::mutation_events`]): scheduled
//!    unmap/remap, THP splinter/collapse, and flattened-node demotion
//!    events whose TLB/PWC shootdown cost ([`shootdown_cost`]) the sim
//!    drivers charge against the running cell and count in
//!    [`FaultStats`].
//! 3. **Poison cells** ([`FaultPlan::poisons`]): one designated grid
//!    cell that fails outright, for exercising the runner's fault
//!    domains.
//!
//! A plan can be installed at two levels. The 16 batch binaries install
//! one plan **process-wide** ([`install`] / [`clear`]) — the whole grid
//! runs under it. Concurrent services (the `flatwalk-serve` daemon)
//! instead install a **scoped** plan per job on the worker thread that
//! executes it ([`scoped`]); the scope overrides the process default
//! for its dynamic extent, so jobs with different seeds (or none) can
//! run side by side in one process. [`active`] resolves scoped-first,
//! and the plan's [`signature`](FaultPlan::signature) participates in
//! the setup-cache keys so faulted and fault-free snapshots never
//! alias.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, RwLock};

use flatwalk_pt::PhysAllocator;
use flatwalk_types::rng::{splitmix_mix, SplitMix64};
use flatwalk_types::{PageSize, PhysAddr};

/// Which kinds of faults a [`FaultPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Transient 2 MB / 1 GB allocation refusals (~10 %) during table
    /// growth — the §3.2 fallback path under allocation pressure.
    Alloc,
    /// A bounded fragmentation campaign against the buddy allocator
    /// before building, plus a lighter (~5 %) refusal rate — the §6.2
    /// fragmented-system stress.
    Frag,
    /// Mid-run address-space mutation events (unmap/remap, THP
    /// splinter/collapse, node demotion) with modeled shootdown costs.
    Mutate,
    /// [`Alloc`](FaultProfile::Alloc) and
    /// [`Mutate`](FaultProfile::Mutate) combined.
    Chaos,
    /// Poisons exactly one grid cell so it fails; everything else runs
    /// clean. Exercises the runner's fault domains.
    Poison,
    /// Slows exactly one grid cell down by a deterministic wall-clock
    /// delay per engine batch span; everything else runs clean. The
    /// delay is pure wall time — no modeled quantity changes, so the
    /// slowed cell's report stays byte-identical. Exercises deadline
    /// cancellation, stall supervision, and load shedding.
    Slow,
}

impl FaultProfile {
    /// The profile's name as written in `--faults seed:profile` and in
    /// the report manifest.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::Alloc => "alloc",
            FaultProfile::Frag => "frag",
            FaultProfile::Mutate => "mutate",
            FaultProfile::Chaos => "chaos",
            FaultProfile::Poison => "poison",
            FaultProfile::Slow => "slow",
        }
    }

    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "alloc" => Ok(FaultProfile::Alloc),
            "frag" => Ok(FaultProfile::Frag),
            "mutate" => Ok(FaultProfile::Mutate),
            "chaos" => Ok(FaultProfile::Chaos),
            "poison" => Ok(FaultProfile::Poison),
            "slow" => Ok(FaultProfile::Slow),
            other => Err(format!(
                "unknown fault profile {other:?} (expected alloc|frag|mutate|chaos|poison|slow)"
            )),
        }
    }
}

/// One kind of mid-run address-space mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MidRunFault {
    /// A hot region is unmapped; every cached translation dies.
    Unmap,
    /// An unmapped region comes back at a new physical location.
    Remap,
    /// A transparent huge page is splintered into 4 KB pages.
    ThpSplinter,
    /// A flattened (2 MB) page-table node is demoted to 4 KB nodes.
    Demote,
}

impl MidRunFault {
    /// Short name used in trace records.
    pub fn name(self) -> &'static str {
        match self {
            MidRunFault::Unmap => "unmap",
            MidRunFault::Remap => "remap",
            MidRunFault::ThpSplinter => "thp_splinter",
            MidRunFault::Demote => "demote",
        }
    }

    /// Whether this mutation forces translations onto the 4 KB fallback
    /// path (splinter and demotion do; unmap/remap only invalidate).
    pub fn forces_fallback(self) -> bool {
        matches!(self, MidRunFault::ThpSplinter | MidRunFault::Demote)
    }

    fn from_index(i: u64) -> Self {
        match i % 4 {
            0 => MidRunFault::Unmap,
            1 => MidRunFault::Remap,
            2 => MidRunFault::ThpSplinter,
            _ => MidRunFault::Demote,
        }
    }
}

/// A seeded, fully deterministic fault-injection plan.
///
/// Everything a plan does is a pure function of `(seed, profile)` plus
/// stable inputs (address-space spec fields, workload names, operation
/// counts) — never of wall-clock time, thread interleaving, or process
/// randomness. Two runs with the same plan produce byte-identical
/// reports at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Root seed; every derived stream mixes this with a purpose salt.
    pub seed: u64,
    /// Which faults to inject.
    pub profile: FaultProfile,
}

impl FaultPlan {
    /// Creates a plan from a seed and profile.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        FaultPlan { seed, profile }
    }

    /// Parses the `--faults` argument format: `seed` or `seed:profile`
    /// (e.g. `7`, `7:alloc`, `42:poison`). A bare seed defaults to the
    /// `alloc` profile.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed_text, profile) = match spec.split_once(':') {
            Some((s, p)) => (s, FaultProfile::parse(p)?),
            None => (spec, FaultProfile::Alloc),
        };
        let seed = seed_text
            .parse::<u64>()
            .map_err(|_| format!("bad fault seed {seed_text:?} (expected a u64)"))?;
        Ok(FaultPlan { seed, profile })
    }

    /// A non-zero fingerprint of the plan, used in setup-cache keys so
    /// snapshots built under different plans (or none) never alias.
    /// An absent plan is represented by `0` ([`signature_active`]).
    pub fn signature(self) -> u64 {
        let disc = match self.profile {
            FaultProfile::Alloc => 1u64,
            FaultProfile::Frag => 2,
            FaultProfile::Mutate => 3,
            FaultProfile::Chaos => 4,
            FaultProfile::Poison => 5,
            FaultProfile::Slow => 6,
        };
        splitmix_mix(self.seed ^ (disc << 57)) | 1
    }

    /// Whether this plan injects allocation faults at build time.
    pub fn alloc_faults(self) -> bool {
        matches!(
            self.profile,
            FaultProfile::Alloc | FaultProfile::Frag | FaultProfile::Chaos
        )
    }

    /// Probability that one 2 MB / 1 GB allocation is transiently
    /// refused (paper §6.2 measures 0.5 %–12 % on stressed systems).
    pub fn refusal_probability(self) -> f64 {
        match self.profile {
            FaultProfile::Alloc | FaultProfile::Chaos => 0.10,
            FaultProfile::Frag => 0.05,
            FaultProfile::Mutate | FaultProfile::Poison | FaultProfile::Slow => 0.0,
        }
    }

    /// Fragmentation campaign parameters `(hold_fraction, max_bytes)`
    /// to run against the buddy allocator before building, or `None`.
    pub fn frag_campaign(self) -> Option<(f64, u64)> {
        match self.profile {
            FaultProfile::Frag => Some((0.30, 256 << 20)),
            _ => None,
        }
    }

    /// Whether this plan schedules mid-run mutation events.
    pub fn mutations(self) -> bool {
        matches!(self.profile, FaultProfile::Mutate | FaultProfile::Chaos)
    }

    /// The deterministic mid-run event schedule for one cell: a sorted
    /// list of `(operation index, fault kind)` pairs, unique by index.
    /// `salt` must identify the cell from stable inputs only (see
    /// [`mix_str`]); `total_ops` is the cell's full operation count
    /// (warm-up included).
    pub fn mutation_events(self, salt: u64, total_ops: u64) -> Vec<(u64, MidRunFault)> {
        if !self.mutations() || total_ops == 0 {
            return Vec::new();
        }
        let count = (total_ops / 4096).clamp(2, 64);
        let mut rng = SplitMix64::new(splitmix_mix(self.seed) ^ salt);
        let mut positions = std::collections::BTreeSet::new();
        for _ in 0..count {
            positions.insert(rng.next_range(total_ops));
        }
        positions
            .into_iter()
            .map(|op| (op, MidRunFault::from_index(rng.next_u64())))
            .collect()
    }

    /// Whether this plan poisons grid cell `index` out of `total`.
    /// Exactly one cell per grid is poisoned (under the `poison`
    /// profile); which one depends only on the seed and the grid size.
    pub fn poisons(self, index: usize, total: usize) -> bool {
        matches!(self.profile, FaultProfile::Poison)
            && total > 0
            && index == (self.seed % total as u64) as usize
    }

    /// The wall-clock delay injected before each engine batch span of
    /// grid cell `index` out of `total` under the `slow` profile, or
    /// `None`. Victim selection mirrors [`poisons`](FaultPlan::poisons)
    /// (one designated cell per grid); the per-span delay is 20–99 ms,
    /// derived from the seed alone. Pure wall time: the slowed cell's
    /// report stays byte-identical to an unslowed run.
    pub fn slow_span_delay(self, index: usize, total: usize) -> Option<std::time::Duration> {
        if !matches!(self.profile, FaultProfile::Slow)
            || total == 0
            || index != (self.seed % total as u64) as usize
        {
            return None;
        }
        let ms = 20 + splitmix_mix(self.seed ^ (0x510u64 << 48)) % 80;
        Some(std::time::Duration::from_millis(ms))
    }
}

/// Folds a string into a 64-bit salt with [`splitmix_mix`]. Stable
/// across processes (unlike `std`'s seeded hashers), so it is safe to
/// use in fault-stream derivation.
pub fn mix_str(text: &str) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = splitmix_mix(acc ^ u64::from_le_bytes(word));
    }
    acc
}

static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

thread_local! {
    /// Stack of scoped per-job plans for this thread. The top entry
    /// overrides the process-wide default — including `None`, which
    /// means "this job runs fault-free even if a global plan exists".
    static SCOPED: RefCell<Vec<Option<Arc<FaultPlan>>>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for a scoped per-job plan (see [`scoped`]). Restores the
/// previous resolution when dropped. Not `Send`: the scope must end on
/// the thread that opened it.
#[must_use = "the scope ends when this guard is dropped"]
#[derive(Debug)]
pub struct ScopedPlan {
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopedPlan {
    fn drop(&mut self) {
        SCOPED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Installs `plan` for the current thread until the returned guard is
/// dropped. `Some(plan)` makes [`active`] resolve to it; `None` forces
/// fault-free execution, shadowing any process-wide plan. Scopes nest —
/// the innermost wins.
///
/// Every experiment cell runs wholly on one worker thread, so wrapping
/// a cell's execution in a scope gives that cell (and everything it
/// builds through the setup cache) a private fault plan without
/// touching the rest of the process.
pub fn scoped(plan: Option<FaultPlan>) -> ScopedPlan {
    SCOPED.with(|s| s.borrow_mut().push(plan.map(Arc::new)));
    ScopedPlan {
        _not_send: PhantomData,
    }
}

/// Installs a plan process-wide (the batch-binary path: one plan for
/// the whole grid). Replaces any previous plan; threads inside a
/// [`scoped`] region keep their scoped resolution.
pub fn install(plan: FaultPlan) {
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(plan));
}

/// Removes the process-wide plan; subsequent unscoped runs are
/// fault-free.
pub fn clear() {
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// The plan in effect on this thread: the innermost [`scoped`] plan if
/// a scope is open (even when that plan is `None`), else the
/// process-wide plan.
pub fn active() -> Option<Arc<FaultPlan>> {
    if let Some(top) = SCOPED.with(|s| s.borrow().last().cloned()) {
        return top;
    }
    PLAN.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// [`FaultPlan::signature`] of the active plan, or `0` when none is
/// installed. Setup-cache keys embed this.
pub fn signature_active() -> u64 {
    active().map(|p| p.signature()).unwrap_or(0)
}

/// Per-run fault counters, reported in `SimReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// TLB shootdowns performed for mid-run mutations.
    pub shootdowns: u64,
    /// Mutations that forced translations onto the 4 KB fallback path
    /// (THP splinters and node demotions).
    pub mid_run_fallbacks: u64,
    /// Total faults injected into this run (all kinds).
    pub faults_injected: u64,
}

impl FaultStats {
    /// Whether any counter is non-zero.
    pub fn any(&self) -> bool {
        self.shootdowns != 0 || self.mid_run_fallbacks != 0 || self.faults_injected != 0
    }

    /// Records one mid-run mutation event.
    pub fn note(&mut self, kind: MidRunFault) {
        self.shootdowns += 1;
        self.faults_injected += 1;
        if kind.forces_fallback() {
            self.mid_run_fallbacks += 1;
        }
    }
}

/// The modeled cost in cycles of one TLB/PWC shootdown that invalidated
/// `flushed` cached translations: a fixed IPI/teardown latency plus a
/// per-entry refill tax (the flushed entries must be re-walked).
pub fn shootdown_cost(flushed: u64) -> u64 {
    500 + 10 * flushed
}

/// A [`PhysAllocator`] decorator that deterministically refuses a
/// fraction of 2 MB / 1 GB requests, forcing the mapper down the §3.2
/// fallback path mid-growth. 4 KB requests always pass through — the
/// paper's fallback must itself never fail.
///
/// The refusal stream depends only on the constructor seed, so two
/// builds with equal seeds see identical fault sequences regardless of
/// thread count or build order.
///
/// # Examples
///
/// ```
/// use flatwalk_faults::FaultyAllocator;
/// use flatwalk_pt::{BumpAllocator, PhysAllocator};
/// use flatwalk_types::PageSize;
///
/// let mut inner = BumpAllocator::new(0);
/// let mut faulty = FaultyAllocator::new(&mut inner, 7, 1.0);
/// assert!(faulty.alloc(PageSize::Size2M).is_none()); // always refused
/// assert!(faulty.alloc(PageSize::Size4K).is_some()); // never refused
/// assert_eq!(faulty.injected(), 1);
/// ```
pub struct FaultyAllocator<'a> {
    inner: &'a mut dyn PhysAllocator,
    rng: SplitMix64,
    refusal: f64,
    injected: u64,
}

impl<'a> FaultyAllocator<'a> {
    /// Wraps `inner`, refusing large allocations with probability
    /// `refusal` drawn from a stream seeded by `seed`.
    pub fn new(inner: &'a mut dyn PhysAllocator, seed: u64, refusal: f64) -> Self {
        FaultyAllocator {
            inner,
            rng: SplitMix64::new(splitmix_mix(seed)),
            refusal,
            injected: 0,
        }
    }

    /// How many allocation faults this wrapper has injected.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

impl PhysAllocator for FaultyAllocator<'_> {
    fn alloc(&mut self, size: PageSize) -> Option<PhysAddr> {
        if size != PageSize::Size4K && self.rng.chance(self.refusal) {
            self.injected += 1;
            return None;
        }
        self.inner.alloc(size)
    }

    fn release(&mut self, addr: PhysAddr, size: PageSize) {
        self.inner.release(addr, size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatwalk_pt::BumpAllocator;

    #[test]
    fn parse_accepts_seed_and_profile() {
        assert_eq!(
            FaultPlan::parse("7").unwrap(),
            FaultPlan::new(7, FaultProfile::Alloc)
        );
        assert_eq!(
            FaultPlan::parse("42:poison").unwrap(),
            FaultPlan::new(42, FaultProfile::Poison)
        );
        assert!(FaultPlan::parse("x").is_err());
        assert!(FaultPlan::parse("7:bogus").is_err());
    }

    #[test]
    fn signature_is_nonzero_and_profile_sensitive() {
        let a = FaultPlan::new(0, FaultProfile::Alloc).signature();
        let b = FaultPlan::new(0, FaultProfile::Frag).signature();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn mutation_schedule_is_deterministic_sorted_and_bounded() {
        let plan = FaultPlan::new(99, FaultProfile::Mutate);
        let a = plan.mutation_events(0xABCD, 100_000);
        let b = plan.mutation_events(0xABCD, 100_000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(a.len() >= 2 && a.len() <= 64);
        assert!(a.iter().all(|&(op, _)| op < 100_000));
        let other_salt = plan.mutation_events(0x1234, 100_000);
        assert_ne!(a, other_salt);
        assert!(plan.mutation_events(0xABCD, 0).is_empty());
        assert!(FaultPlan::new(99, FaultProfile::Alloc)
            .mutation_events(0xABCD, 100_000)
            .is_empty());
    }

    #[test]
    fn poison_marks_exactly_one_cell() {
        let plan = FaultPlan::new(11, FaultProfile::Poison);
        let hits: Vec<usize> = (0..9).filter(|&i| plan.poisons(i, 9)).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0], 11 % 9);
        let clean = FaultPlan::new(11, FaultProfile::Alloc);
        assert!((0..9).all(|i| !clean.poisons(i, 9)));
    }

    #[test]
    fn slow_delays_exactly_one_cell_deterministically() {
        let plan = FaultPlan::new(13, FaultProfile::Slow);
        let hits: Vec<usize> = (0..9)
            .filter(|&i| plan.slow_span_delay(i, 9).is_some())
            .collect();
        assert_eq!(hits, vec![13 % 9]);
        let d = plan.slow_span_delay(13 % 9, 9).unwrap();
        assert_eq!(d, plan.slow_span_delay(13 % 9, 9).unwrap());
        assert!((20..100).contains(&(d.as_millis() as u64)), "{d:?}");
        // Slow plans never poison, and non-slow plans never delay.
        assert!((0..9).all(|i| !plan.poisons(i, 9)));
        let clean = FaultPlan::new(13, FaultProfile::Poison);
        assert!((0..9).all(|i| clean.slow_span_delay(i, 9).is_none()));
        assert_eq!(FaultPlan::parse("13:slow").unwrap(), plan);
        assert_ne!(plan.signature(), 0);
    }

    #[test]
    fn faulty_allocator_is_deterministic_and_spares_4k() {
        let run = |seed| {
            let mut inner = BumpAllocator::new(0);
            let mut faulty = FaultyAllocator::new(&mut inner, seed, 0.5);
            let results: Vec<bool> = (0..64)
                .map(|_| faulty.alloc(PageSize::Size2M).is_some())
                .collect();
            (results, faulty.injected())
        };
        let (a, a_injected) = run(3);
        let (b, b_injected) = run(3);
        assert_eq!(a, b);
        assert_eq!(a_injected, b_injected);
        assert!(a_injected > 0, "p=0.5 over 64 draws must refuse some");
        assert!(a.iter().any(|&ok| ok), "and admit some");

        let mut inner = BumpAllocator::new(0);
        let mut faulty = FaultyAllocator::new(&mut inner, 3, 1.0);
        for _ in 0..32 {
            assert!(faulty.alloc(PageSize::Size4K).is_some());
        }
        assert_eq!(faulty.injected(), 0);
    }

    #[test]
    fn mix_str_is_stable_and_input_sensitive() {
        assert_eq!(mix_str("gups"), mix_str("gups"));
        assert_ne!(mix_str("gups"), mix_str("btree"));
        assert_ne!(mix_str(""), mix_str("\0"));
    }

    #[test]
    fn install_clear_roundtrip() {
        // Other tests in this binary do not touch the global plan.
        install(FaultPlan::new(5, FaultProfile::Chaos));
        let p = active().expect("plan installed");
        assert_eq!(p.seed, 5);
        assert_eq!(signature_active(), p.signature());
        clear();
        assert!(active().is_none());
        assert_eq!(signature_active(), 0);
    }

    #[test]
    fn scoped_plan_shadows_and_restores() {
        // This thread's scope stack is private, so no cross-test races.
        assert!(active().is_none() || active().is_some()); // baseline read
        let outer = scoped(Some(FaultPlan::new(1, FaultProfile::Alloc)));
        assert_eq!(active().unwrap().seed, 1);
        {
            let _inner = scoped(Some(FaultPlan::new(2, FaultProfile::Mutate)));
            assert_eq!(active().unwrap().seed, 2);
            assert_eq!(
                signature_active(),
                FaultPlan::new(2, FaultProfile::Mutate).signature()
            );
        }
        assert_eq!(active().unwrap().seed, 1, "inner scope restored");
        drop(outer);
    }

    #[test]
    fn scoped_none_forces_fault_free() {
        // A scoped `None` must shadow the thread's view even while other
        // tests may install/clear the global plan concurrently.
        let _scope = scoped(None);
        assert!(active().is_none());
        assert_eq!(signature_active(), 0);
        {
            let _nested = scoped(Some(FaultPlan::new(9, FaultProfile::Frag)));
            assert_eq!(active().unwrap().seed, 9);
        }
        assert!(active().is_none());
    }

    #[test]
    fn scopes_are_per_thread() {
        let _scope = scoped(Some(FaultPlan::new(77, FaultProfile::Chaos)));
        assert_eq!(active().unwrap().seed, 77);
        std::thread::scope(|s| {
            s.spawn(|| {
                // The other thread sees only the global resolution (which
                // concurrent tests may set, but never to seed 77).
                let theirs = active();
                assert!(theirs.is_none_or(|p| p.seed != 77));
            });
        });
        assert_eq!(active().unwrap().seed, 77);
    }
}
