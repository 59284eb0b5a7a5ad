//! The generic walk engine: one batched two-phase run loop shared by
//! every driver.
//!
//! Before this module existed, the native, virtualized, multicore, and
//! comparison-scheme drivers each carried their own copy of the
//! warm-up/measure loop — four slightly different interleavings of
//! context switches, fault events, TLB/walker dispatch, and the timing
//! proxy. The engine factors that loop out once and parameterizes it
//! over an [`EngineBackend`]: the only thing a driver supplies is how a
//! *span* of consecutive virtual addresses is translated and accessed.
//!
//! The backend is a statically-dispatched type parameter, so each
//! driver's loop monomorphizes into straight-line code with no per-op
//! (let alone per-walk-step) branching on the translation scheme:
//!
//! * [`MmuBackend`] — native and virtualized runs; spans feed
//!   [`Mmu::access_batch`], whose kernel hoists the TLB/PTP/trace
//!   dispatch to once per span and drives every miss through the
//!   monomorphized typed-level walkers (`flatwalk_pt::typed`).
//! * `flatwalk-baselines`' scheme backend — comparison schemes (ECH,
//!   ASAP, POM_TLB, CSALT) implement the same trait, so Fig. 9/13 runs
//!   share this exact loop.
//!
//! Two entry points cover the paper's topologies:
//!
//! * [`run_single`] — one core, spans up to [`BATCH`] ops, clamped so
//!   no span crosses a context-switch boundary or a scheduled fault
//!   event. Per-op state transitions are exactly those of a
//!   one-call-per-access loop, so every report byte is unchanged.
//! * [`run_multicore`] — round-robin over cores, one op per core per
//!   round (spans of one): the shared-LLC interleaving *is* the model,
//!   so batching across rounds would change results.
//!
//! Debug builds additionally cross-check early spans against an
//! unbatched per-op replay on cloned state ([`EngineBackend::
//! unbatched_reference`]), mirroring the page-table layer's
//! PSC-short-circuit `debug_assert!`s.

use flatwalk_faults::{FaultStats, MidRunFault};
use flatwalk_mem::MemoryHierarchy;
use flatwalk_mmu::{AccessTiming, AddressSpace, Mmu};
use flatwalk_pt::WalkError;
use flatwalk_types::{OwnerId, VirtAddr};
use flatwalk_workloads::AccessStream;

use crate::SimError;

/// Maximum ops per engine span (single-core runs). Spans are clamped
/// to context-switch boundaries and scheduled fault events, so this is
/// an upper bound, not a granularity guarantee.
pub const BATCH: u64 = 256;

/// How many leading spans of each run the debug build replays per-op
/// against the batched result.
#[cfg(debug_assertions)]
const CROSS_CHECK_SPANS: u32 = 4;

/// How one driver translates and accesses a span of virtual addresses.
///
/// The engine owns the loop (phases, context switches, fault events,
/// the timing proxy); a backend owns the translation machinery. The
/// contract of [`access_span`](EngineBackend::access_span) is strict:
/// it must behave exactly as if each VA were translated and accessed by
/// one call in order — the engine's spans are an optimization, never a
/// semantic boundary.
pub trait EngineBackend {
    /// Translates and performs a data access for each VA in order,
    /// replacing `out` with one timing per VA. On an untranslatable
    /// access, returns its index within `vas` and the walk error;
    /// accesses before the failing one have already taken effect.
    fn access_span(
        &mut self,
        hier: &mut MemoryHierarchy,
        vas: &[VirtAddr],
        owner: OwnerId,
        out: &mut Vec<AccessTiming>,
    ) -> Result<(), (usize, WalkError)>;

    /// Reacts to a context switch (flush per-process translation state).
    fn context_switch(&mut self);

    /// Models a TLB shootdown after a live page-table mutation; returns
    /// the number of TLB entries invalidated. Backends without mutation
    /// events (the comparison schemes) never receive this call.
    fn shootdown(&mut self) -> u64 {
        0
    }

    /// Clears the backend's statistics at the warm-up/measure boundary
    /// (contents stay warm).
    fn reset_stats(&mut self);

    /// Debug-only reference replay: translate and access `vas` one op
    /// at a time on *cloned* state, without perturbing the live
    /// structures, returning the per-op timings — or `None` if the
    /// backend has no per-op reference path (or the replay errors; the
    /// batched span will surface the same error itself). The engine
    /// `debug_assert!`s the batched span against this on early spans.
    fn unbatched_reference(
        &self,
        _hier: &MemoryHierarchy,
        _vas: &[VirtAddr],
        _owner: OwnerId,
    ) -> Option<Vec<AccessTiming>> {
        None
    }
}

/// The MMU-driven backend: native and virtualized (nested) address
/// spaces, dispatched statically by [`Mmu::access_batch`]'s span
/// kernel.
#[derive(Debug)]
pub struct MmuBackend<'a> {
    mmu: &'a mut Mmu,
    aspace: AddressSpace<'a>,
}

impl<'a> MmuBackend<'a> {
    /// Wraps an MMU and the address space it translates against.
    pub fn new(mmu: &'a mut Mmu, aspace: AddressSpace<'a>) -> Self {
        MmuBackend { mmu, aspace }
    }
}

impl EngineBackend for MmuBackend<'_> {
    fn access_span(
        &mut self,
        hier: &mut MemoryHierarchy,
        vas: &[VirtAddr],
        owner: OwnerId,
        out: &mut Vec<AccessTiming>,
    ) -> Result<(), (usize, WalkError)> {
        self.mmu.access_batch(&self.aspace, hier, vas, owner, out)
    }

    fn context_switch(&mut self) {
        self.mmu.context_switch();
    }

    fn shootdown(&mut self) -> u64 {
        self.mmu.shootdown()
    }

    fn reset_stats(&mut self) {
        self.mmu.reset_stats();
    }

    fn unbatched_reference(
        &self,
        hier: &MemoryHierarchy,
        vas: &[VirtAddr],
        owner: OwnerId,
    ) -> Option<Vec<AccessTiming>> {
        // The replay re-runs real walks on cloned state; silence trace
        // emission so per-walk record counts still match the live run.
        let _quiet = flatwalk_obs::trace::suppress();
        let mut mmu = self.mmu.clone();
        let mut hier = hier.deep_clone();
        let mut out = Vec::with_capacity(vas.len());
        for &va in vas {
            out.push(mmu.access(&self.aspace, &mut hier, va, owner).ok()?);
        }
        Some(out)
    }
}

/// Per-run parameters of the engine loop: identity for error reports,
/// the workload's timing-proxy constants, and the op schedule.
#[derive(Debug, Clone, Copy)]
pub struct EngineRun<'a> {
    /// Configuration/scheme label (for [`SimError`] and traces).
    pub scheme: &'static str,
    /// Workload name (for [`SimError`]).
    pub workload: &'a str,
    /// Core index for multicore error reports (`None` single-core).
    pub core: Option<usize>,
    /// Non-memory instructions retired per access (CPI 1).
    pub work_per_access: u64,
    /// Fraction of data-stall cycles exposed (the workload's MLP).
    pub data_exposure: f64,
    /// L1 data-cache latency (pipelined away in the proxy).
    pub l1_latency: u64,
    /// Warm-up operations (phase 0, statistics discarded).
    pub warmup_ops: u64,
    /// Measured operations (phase 1).
    pub measure_ops: u64,
    /// Context-switch every `n` ops within a phase, if set.
    pub context_switch_interval: Option<u64>,
    /// Scheduled mid-run mutation events, ascending by stream position.
    pub events: &'a [(u64, MidRunFault)],
}

/// What the engine loop accumulated: the drivers combine this with
/// their own structures (MMU stats, hierarchy stats, census) into a
/// [`SimReport`](crate::SimReport).
#[derive(Debug, Clone, Default)]
pub struct EngineTotals {
    /// Instructions retired during the measured phase.
    pub instructions: u64,
    /// Cycles of the measured phase (f64 accumulation order is part of
    /// the byte-identity contract; round at report time).
    pub cycles: f64,
    /// Mutation events observed across the whole run (warm-up
    /// included).
    pub faults: FaultStats,
}

impl EngineTotals {
    /// Accumulates one access: the timing proxy shared by every driver.
    /// Non-memory work runs at CPI 1; a TLB hit's latency is pipelined
    /// away; walk latency is fully exposed (serial pointer chase); data
    /// latency beyond an L1 hit is exposed according to the workload's
    /// MLP profile.
    #[inline]
    fn note_access(&mut self, t: &AccessTiming, work: u64, exposure: f64, l1_latency: u64) {
        self.instructions += work + 1;
        let translation_stall = t.translation_latency.saturating_sub(1);
        let data_stall = t.data_latency.saturating_sub(l1_latency) as f64 * exposure;
        self.cycles += work as f64 + translation_stall as f64 + data_stall;
    }

    /// Accumulates one shootdown-causing mutation event.
    fn note_event(&mut self, backend_flushed: u64, kind: MidRunFault, stream_pos: u64) {
        let cost = flatwalk_faults::shootdown_cost(backend_flushed);
        self.cycles += cost as f64;
        self.faults.note(kind);
        flatwalk_obs::trace::emit_fault(kind.name(), stream_pos, backend_flushed, cost);
    }
}

/// Builds the engine's [`SimError`] for a failed access.
fn sim_error(run: &EngineRun<'_>, va: VirtAddr, stream_pos: u64, source: WalkError) -> SimError {
    SimError {
        scheme: run.scheme,
        workload: run.workload.to_string(),
        core: run.core,
        va,
        stream_pos,
        source,
        detail: None,
    }
}

/// Runs the two-phase (warm-up, measure) single-core loop over batched
/// spans.
///
/// Context switches and fault mutations only ever fire at op
/// boundaries computed up front, so every inter-event span feeds the
/// backend's batched kernel in one call — per-op dispatch (backend
/// match, event probing, stream source match) is hoisted to once per
/// span. The per-op state transitions and the f64 accumulation order
/// are exactly those of the one-call-per-access loop, so every report
/// byte is unchanged.
pub fn run_single<B: EngineBackend>(
    backend: &mut B,
    hier: &mut MemoryHierarchy,
    stream: &mut AccessStream,
    owner: OwnerId,
    run: &EngineRun<'_>,
) -> Result<EngineTotals, SimError> {
    let mut totals = EngineTotals::default();
    let mut next_event = 0usize;
    let mut stream_pos = 0u64;
    let mut va_buf: Vec<VirtAddr> = Vec::with_capacity(BATCH as usize);
    let mut t_buf: Vec<AccessTiming> = Vec::with_capacity(BATCH as usize);
    #[cfg(debug_assertions)]
    let mut checked_spans = 0u32;

    for phase in 0..2u32 {
        let ops = if phase == 0 {
            run.warmup_ops
        } else {
            run.measure_ops
        };
        let _phase_span = flatwalk_obs::span::enter(if phase == 0 {
            "engine.warmup"
        } else {
            "engine.measure"
        });
        if phase == 1 {
            backend.reset_stats();
            hier.reset_stats();
            totals.instructions = 0;
            totals.cycles = 0.0;
        }
        let mut op = 0u64;
        while op < ops {
            // Between-spans interrupt poll: deadline/cancel trips land
            // here, never inside a span, so completed spans keep their
            // byte-identical effects.
            if let Err(reason) = crate::runner::span_checkpoint() {
                // Name the access the interrupt kept from running: the
                // stream's next VA, at position `stream_pos`.
                let va = stream.clone().next_va();
                let mut err = sim_error(run, va, stream_pos, WalkError::Cancelled);
                err.detail = Some(reason);
                return Err(err);
            }
            if let Some(n) = run.context_switch_interval {
                if op > 0 && op.is_multiple_of(n) {
                    backend.context_switch();
                }
            }
            while next_event < run.events.len() && run.events[next_event].0 == stream_pos {
                let kind = run.events[next_event].1;
                next_event += 1;
                totals.note_event(backend.shootdown(), kind, stream_pos);
            }
            // Longest span that cannot cross a context-switch boundary
            // or a scheduled mutation event.
            let mut span = (ops - op).min(BATCH);
            if let Some(n) = run.context_switch_interval {
                span = span.min(n - op % n);
            }
            if next_event < run.events.len() {
                span = span.min(run.events[next_event].0 - stream_pos);
            }
            // Covers stream generation, the batched kernel call, and
            // the timing-proxy accumulation for this span of ops.
            let _batch_span = flatwalk_obs::span::enter("engine.batch");
            stream.fill_vas(&mut va_buf, span as usize);
            #[cfg(debug_assertions)]
            let reference = (checked_spans < CROSS_CHECK_SPANS)
                .then(|| backend.unbatched_reference(hier, &va_buf, owner))
                .flatten();
            backend
                .access_span(hier, &va_buf, owner, &mut t_buf)
                .map_err(|(i, e)| sim_error(run, va_buf[i], stream_pos + i as u64, e))?;
            #[cfg(debug_assertions)]
            if let Some(reference) = reference {
                debug_assert_eq!(
                    reference, t_buf,
                    "batched span must match the per-op reference replay"
                );
                checked_spans += 1;
            }
            for t in &t_buf {
                totals.note_access(t, run.work_per_access, run.data_exposure, run.l1_latency);
            }
            stream_pos += span;
            op += span;
        }
    }
    Ok(totals)
}

/// One core of a [`run_multicore`] round-robin: its backend, private
/// cache levels (over the shared LLC), access stream, per-core run
/// parameters, and fault-event schedule.
pub struct EngineCore<'a, B: EngineBackend> {
    /// The core's translation backend.
    pub backend: B,
    /// The core's hierarchy view (private L1/L2, shared L3/DRAM).
    pub hier: &'a mut MemoryHierarchy,
    /// The core's access stream.
    pub stream: &'a mut AccessStream,
    /// Workload name (for [`SimError`]).
    pub workload: &'a str,
    /// Non-memory instructions retired per access.
    pub work_per_access: u64,
    /// Fraction of data-stall cycles exposed.
    pub data_exposure: f64,
    /// This core's scheduled mutation events, ascending by position.
    pub events: Vec<(u64, MidRunFault)>,
}

/// Runs the two-phase multicore loop: one access per core per round,
/// so the cores' interleaving through the shared LLC — the thing the
/// multicore experiments measure — is identical to the historical
/// per-op loop. Spans are single-op but still flow through the same
/// batched span kernel as [`run_single`] (per-span trace-gate hoisting
/// and static dispatch apply; there is simply one op per span).
///
/// Returns per-core totals in core order, or the first failing access
/// (with its core index).
pub fn run_multicore<B: EngineBackend>(
    cores: &mut [EngineCore<'_, B>],
    scheme: &'static str,
    l1_latency: u64,
    warmup_ops: u64,
    measure_ops: u64,
) -> Result<Vec<EngineTotals>, SimError> {
    let mut totals = vec![EngineTotals::default(); cores.len()];
    let mut next_event = vec![0usize; cores.len()];
    let mut stream_pos = 0u64;
    let mut va_buf: Vec<VirtAddr> = Vec::with_capacity(1);
    let mut t_buf: Vec<AccessTiming> = Vec::with_capacity(1);
    #[cfg(debug_assertions)]
    let mut checked_rounds = 0u32;

    for phase in 0..2u32 {
        let ops = if phase == 0 { warmup_ops } else { measure_ops };
        // Phase spans only: a per-round span at one op per core per
        // round would dominate the measurement it attributes.
        let _phase_span = flatwalk_obs::span::enter(if phase == 0 {
            "engine.warmup"
        } else {
            "engine.measure"
        });
        if phase == 1 {
            for (core, t) in cores.iter_mut().zip(&mut totals) {
                core.backend.reset_stats();
                core.hier.reset_stats();
                t.instructions = 0;
                t.cycles = 0.0;
            }
        }
        for _ in 0..ops {
            // One interrupt poll per round (never inside one): the
            // cores' shared-LLC interleaving is untouched on the
            // non-interrupted path.
            if let Err(reason) = crate::runner::span_checkpoint() {
                // Name the access the interrupt kept from running: core
                // 0's next VA, at position `stream_pos` of its stream.
                let first = cores.first();
                return Err(SimError {
                    scheme,
                    workload: first.map(|c| c.workload).unwrap_or("").to_string(),
                    core: first.map(|_| 0),
                    va: first.map_or(VirtAddr::new(0), |c| c.stream.clone().next_va()),
                    stream_pos,
                    source: WalkError::Cancelled,
                    detail: Some(reason),
                });
            }
            for (i, core) in cores.iter_mut().enumerate() {
                while next_event[i] < core.events.len()
                    && core.events[next_event[i]].0 == stream_pos
                {
                    let kind = core.events[next_event[i]].1;
                    next_event[i] += 1;
                    totals[i].note_event(core.backend.shootdown(), kind, stream_pos);
                }
                va_buf.clear();
                va_buf.push(core.stream.next_va());
                let owner = OwnerId(i as u8);
                #[cfg(debug_assertions)]
                let reference = (checked_rounds < CROSS_CHECK_SPANS)
                    .then(|| core.backend.unbatched_reference(core.hier, &va_buf, owner))
                    .flatten();
                core.backend
                    .access_span(core.hier, &va_buf, owner, &mut t_buf)
                    .map_err(|(_, e)| SimError {
                        scheme,
                        workload: core.workload.to_string(),
                        core: Some(i),
                        va: va_buf[0],
                        stream_pos,
                        source: e,
                        detail: None,
                    })?;
                #[cfg(debug_assertions)]
                if let Some(reference) = reference {
                    debug_assert_eq!(
                        reference, t_buf,
                        "multicore span must match the per-op reference replay"
                    );
                }
                totals[i].note_access(
                    &t_buf[0],
                    core.work_per_access,
                    core.data_exposure,
                    l1_latency,
                );
            }
            stream_pos += 1;
            #[cfg(debug_assertions)]
            {
                checked_rounds += 1;
            }
        }
    }
    Ok(totals)
}

/// The global metrics registry's walk-step counters as
/// `(steps served by a cache, total steps)` — engine-level accounting
/// every driver feeds identically through
/// [`SimReport::metrics`](crate::SimReport::metrics), regardless of
/// backend.
pub fn walk_step_counters() -> (u64, u64) {
    let m = flatwalk_obs::metrics::global_snapshot();
    let hits = m.counter_value("walker.steps.l1")
        + m.counter_value("walker.steps.l2")
        + m.counter_value("walker.steps.l3");
    (hits, hits + m.counter_value("walker.steps.dram"))
}
