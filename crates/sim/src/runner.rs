//! Deterministic parallel experiment runner.
//!
//! Every figure in the paper is a grid of independent simulations —
//! (workload × translation config × fragmentation scenario) cells —
//! and each cell owns all of its state (address space, hierarchy,
//! TLBs, seeded RNGs), so cells can run on any thread in any order
//! without perturbing results. This module fans a job list across a
//! bounded pool of scoped worker threads using a work-stealing
//! scheduler ([`flatwalk_sync::StealQueues`]) and reassembles the
//! results **in declaration order**, making the output of every
//! experiment byte-identical to the serial run regardless of thread
//! count.
//!
//! Thread count resolution (first match wins):
//!
//! 1. an explicit `--threads N` argument (parsed by the caller, passed
//!    in via [`resolve_threads`]),
//! 2. the `FLATWALK_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! The resolved count is then clamped to the host's available
//! parallelism when sizing the actual pool (override with
//! `FLATWALK_THREADS_EXACT=1`); see [`run_ordered`].
//!
//! Progress (cells done, simulated ops/s, ETA) is reported on stderr
//! only — stdout carries nothing but the experiment's own output — and
//! only when stderr is a terminal or `FLATWALK_PROGRESS=1` forces it.

use std::cell::RefCell;
use std::io::{IsTerminal, Write};
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flatwalk_os::FragmentationScenario;
use flatwalk_sync::{OnceSlot, StealQueues, TakeSlot};
use flatwalk_workloads::WorkloadSpec;

use crate::setup::{self, setup_stats, SetupStats};
use crate::{NativeSimulation, RivalKind, SimOptions, SimReport, TranslationConfig};

/// How one cell of a grid ended: its report, or a structured failure
/// record. Each cell runs once, inside its own fault domain
/// (`catch_unwind` + a soft wall-clock deadline), so one bad cell never
/// takes down the rest of the grid. A cell is a pure function of its
/// inputs (seeded RNGs, seeded fault plan), so it is never re-run: a
/// second run would fail the same way.
#[derive(Debug, Clone)]
// `Ok` is the overwhelmingly common variant; boxing its report to
// shrink the rare `Failed` would cost an allocation per cell.
#[allow(clippy::large_enum_variant)]
pub enum CellOutcome {
    /// The cell completed.
    Ok {
        /// The simulation's report.
        report: SimReport,
        /// Nanoseconds the cell spent building (0 for fully cached
        /// setups).
        setup_nanos: u64,
        /// Nanoseconds the cell spent simulating.
        run_nanos: u64,
        /// Always 0: cells are never re-run. Kept for callers that
        /// still destructure it.
        retries: u32,
    },
    /// The cell failed (structured `SimError` or caught panic).
    Failed {
        /// Human-readable description of the failure.
        error: String,
        /// Always 0: cells are never re-run. Kept for callers that
        /// still destructure it.
        retries: u32,
    },
}

impl CellOutcome {
    /// The report, if the cell completed.
    pub fn report(&self) -> Option<&SimReport> {
        match self {
            CellOutcome::Ok { report, .. } => Some(report),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Whether the cell exhausted its fault domain without completing.
    pub fn is_failed(&self) -> bool {
        matches!(self, CellOutcome::Failed { .. })
    }
}

/// A cooperative cancellation flag shared between a batch's owner and
/// its workers. Once [`cancel`](CancelFlag::cancel)led, every
/// not-yet-started cell completes immediately as
/// [`CellOutcome::Failed`] with a `"cancelled"` error, and a *running*
/// cell stops at its next engine batch boundary (the engine polls
/// [`span_checkpoint`] between spans — never inside one, so every
/// span's state transitions stay byte-identical to an uninterrupted
/// run; the interrupted cell simply reports `Failed` instead of a
/// partial result). Used by `flatwalk-serve` for forced shutdown, job
/// deadlines, and stall recovery.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, uncancelled flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Irrevocable; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-cell wall-clock deadline: `FLATWALK_CELL_DEADLINE_SECS`
/// (default 300). A running cell that crosses the deadline is
/// cancelled cooperatively at its next engine batch boundary (see
/// [`span_checkpoint`]), so a deadline-exceeded cell fails promptly
/// instead of only being reported late.
fn cell_deadline() -> Duration {
    let secs = std::env::var("FLATWALK_CELL_DEADLINE_SECS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(300);
    Duration::from_secs(secs)
}

/// The interrupt state one running cell is guarded by: everything
/// [`span_checkpoint`] consults between engine spans.
#[derive(Debug, Clone)]
struct CellGuard {
    /// Absolute wall-clock deadline (cell start + `cell_deadline()`).
    deadline: Instant,
    /// Cooperative cancellation from the cell's owner (a serve job's
    /// flag installed via [`scoped_cancel`]), if any.
    cancel: Option<CancelFlag>,
    /// Injected per-span wall delay (`slow` fault profile), if any.
    slow: Option<Duration>,
}

thread_local! {
    /// The guard armed by [`run_cell_guarded`] for the cell currently
    /// executing on this thread, if any. Cells run wholly on one worker
    /// thread, so a thread-local (not a task context) is the right
    /// scope — and costs one TLS read per engine span.
    static CELL_GUARD: RefCell<Option<CellGuard>> = const { RefCell::new(None) };

    /// Stack of scoped cancel flags (mirrors `flatwalk_faults`'
    /// scoped-plan stack): the innermost flag guards every cell started
    /// inside the scope.
    static SCOPED_CANCEL: RefCell<Vec<CancelFlag>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for a scoped per-job [`CancelFlag`] (see
/// [`scoped_cancel`]). Restores the previous resolution when dropped.
/// Not `Send`: the scope must end on the thread that opened it.
#[must_use = "the scope ends when this guard is dropped"]
#[derive(Debug)]
pub struct ScopedCancel {
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopedCancel {
    fn drop(&mut self) {
        SCOPED_CANCEL.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Installs `flag` as the ambient cancel source for every cell started
/// on this thread until the returned guard is dropped. Scopes nest;
/// the innermost wins. `flatwalk-serve` wraps each served cell's
/// execution in a scope carrying the owning job's flag, so cancelling
/// the job interrupts the running cell at its next batch boundary.
/// Cells inside a scope also yield their core at every batch
/// boundary (see [`span_checkpoint`]): a served simulation shares the
/// cores with the server's cached answers.
pub fn scoped_cancel(flag: CancelFlag) -> ScopedCancel {
    SCOPED_CANCEL.with(|s| s.borrow_mut().push(flag));
    ScopedCancel {
        _not_send: PhantomData,
    }
}

/// The innermost scoped cancel flag on this thread, if any.
fn ambient_cancel() -> Option<CancelFlag> {
    SCOPED_CANCEL.with(|s| s.borrow().last().cloned())
}

/// Arms [`CELL_GUARD`] for the dynamic extent of one cell run;
/// disarms on drop (including unwinds out of `catch_unwind`).
struct ArmedCell;

impl ArmedCell {
    fn arm(guard: CellGuard) -> Self {
        CELL_GUARD.with(|g| *g.borrow_mut() = Some(guard));
        ArmedCell
    }
}

impl Drop for ArmedCell {
    fn drop(&mut self) {
        CELL_GUARD.with(|g| *g.borrow_mut() = None);
    }
}

/// The engine's between-spans poll point. Called by
/// `engine::run_single` before each batched span and by
/// `engine::run_multicore` before each round; outside a guarded cell
/// it is a no-op returning `Ok(())`.
///
/// Applies the active fault plan's injected slow-cell delay (pure wall
/// time — no modeled quantity changes), then reports whether the
/// cell should stop: the owner's [`CancelFlag`] fired, or the cell's
/// wall-clock deadline passed. The engine converts an `Err` into a
/// structured `WalkError::Cancelled` failure for this cell only — spans
/// already completed keep their byte-identical effects.
///
/// A cell with an owner (see [`scoped_cancel`]) also gives up its
/// core here, so the owner's other work waits at most one span for it
/// rather than the rest of a scheduler time slice. With nothing else
/// runnable the yield returns at once; it changes no modeled quantity.
pub fn span_checkpoint() -> Result<(), &'static str> {
    CELL_GUARD.with(|g| {
        let guard = g.borrow();
        let Some(guard) = guard.as_ref() else {
            return Ok(());
        };
        if let Some(delay) = guard.slow {
            std::thread::sleep(delay);
        }
        if let Some(cancel) = &guard.cancel {
            if cancel.is_cancelled() {
                return Err("cancelled by owner");
            }
            std::thread::yield_now();
        }
        if Instant::now() >= guard.deadline {
            return Err("cell deadline exceeded");
        }
        Ok(())
    })
}

/// Entry point a rival-scheme crate supplies to run one cell under a
/// [`RivalKind`]. A plain `fn` pointer: `Copy`/`Debug` like the rest of
/// the cell, and `flatwalk_sim` stays free of a dependency on the
/// scheme implementations (they depend on *us*).
pub type RivalRunner = fn(&Cell, RivalKind) -> Result<SimReport, crate::SimError>;

/// One independent experiment cell: a single native simulation.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The workload to simulate.
    pub workload: WorkloadSpec,
    /// The translation mechanism under test.
    pub config: TranslationConfig,
    /// Memory fragmentation scenario (already applied to `opts`).
    pub scenario: FragmentationScenario,
    /// Remaining simulation options (scenario applied, shared by
    /// reference count — workers never clone the nested configs).
    pub opts: Arc<SimOptions>,
    /// Rival scheme to run instead of the native simulation, if any.
    /// The kind is data (result caches fold it into their keys); the
    /// runner function is supplied by the scheme crate at grid build.
    pub rival: Option<(RivalKind, RivalRunner)>,
}

impl Cell {
    /// Creates a cell; `scenario` overrides whatever `opts` carries.
    pub fn new(
        workload: WorkloadSpec,
        config: TranslationConfig,
        scenario: FragmentationScenario,
        opts: SimOptions,
    ) -> Self {
        Cell {
            workload,
            config,
            scenario,
            opts: Arc::new(opts.with_scenario(scenario)),
            rival: None,
        }
    }

    /// Creates a cell that runs a rival scheme through `runner` instead
    /// of the native simulation (same workload/options machinery, same
    /// result caching).
    pub fn rival(
        workload: WorkloadSpec,
        config: TranslationConfig,
        scenario: FragmentationScenario,
        opts: SimOptions,
        kind: RivalKind,
        runner: RivalRunner,
    ) -> Self {
        let mut cell = Cell::new(workload, config, scenario, opts);
        cell.rival = Some((kind, runner));
        cell
    }

    /// Simulated operations this cell executes (warm-up + measured).
    pub fn sim_ops(&self) -> u64 {
        self.opts.warmup_ops + self.opts.measure_ops
    }

    /// Emits this cell's per-node NUMA placement summary onto the
    /// `numa` trace channel (no-op when the channel is off or the cell
    /// ran on the single-node identity topology).
    fn emit_numa_trace(report: &SimReport) {
        if !flatwalk_obs::trace::numa_enabled() || !report.hier.numa.multi_node() {
            return;
        }
        let nodes = report.hier.numa.nodes as usize;
        for (i, n) in report.hier.numa.per_node[..nodes].iter().enumerate() {
            flatwalk_obs::trace::emit_numa(&flatwalk_obs::trace::NumaRecord {
                node: i as u32,
                local: n.local,
                remote: n.remote,
                hops: n.hops,
            });
        }
    }

    /// Builds and runs the simulation. The immutable setup artifacts
    /// (frozen address space, stream prefix) come from the process-wide
    /// setup cache, so cells sharing a space key build it once; all
    /// mutable state is constructed locally, so this is safe to call
    /// from any worker thread.
    pub fn run(&self) -> SimReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Cell::run`] but surfaces an untranslatable access as a
    /// structured [`SimError`](crate::SimError) instead of panicking.
    pub fn try_run(&self) -> Result<SimReport, crate::SimError> {
        let report = if let Some((kind, run)) = self.rival {
            run(self, kind)?
        } else {
            NativeSimulation::build_shared(
                self.workload.clone(),
                self.config.clone(),
                Arc::clone(&self.opts),
            )
            .try_run()?
        };
        Self::emit_numa_trace(&report);
        Ok(report)
    }
}

/// Resolves the worker-thread count: `explicit` (e.g. from `--threads`)
/// if given, else `FLATWALK_THREADS`, else the machine's available
/// parallelism. Always at least 1.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| {
            std::env::var("FLATWALK_THREADS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// Live progress/throughput meter for one job batch (stderr only).
#[derive(Debug)]
pub struct Progress {
    label: &'static str,
    total: usize,
    done: AtomicUsize,
    ops_done: AtomicU64,
    /// Milliseconds (since `start`) before which no further progress
    /// line is printed; claimed via compare-exchange so that exactly
    /// one thread prints per interval.
    next_print_ms: AtomicU64,
    start: Instant,
    /// Setup-cache counters at meter creation; the line shows the delta
    /// contributed by this batch.
    setup_base: SetupStats,
    /// Global walk-step counters `(cache_hits, total)` at meter
    /// creation; the line shows this batch's aggregate walk-hit ratio.
    walk_base: (u64, u64),
    enabled: bool,
}

impl Progress {
    const PRINT_EVERY_MS: u64 = 200;

    /// Creates a meter for `total` jobs under the given display label.
    ///
    /// Reporting is enabled when stderr is a terminal, forced on by
    /// `FLATWALK_PROGRESS=1` and off by `FLATWALK_PROGRESS=0`.
    pub fn new(label: &'static str, total: usize) -> Self {
        let enabled = match std::env::var("FLATWALK_PROGRESS") {
            Ok(v) if v == "0" => false,
            Ok(v) if !v.is_empty() => true,
            _ => std::io::stderr().is_terminal(),
        };
        Progress {
            label,
            total,
            done: AtomicUsize::new(0),
            ops_done: AtomicU64::new(0),
            next_print_ms: AtomicU64::new(0),
            start: Instant::now(),
            setup_base: setup_stats(),
            walk_base: crate::engine::walk_step_counters(),
            enabled,
        }
    }

    /// A meter that counts ticks but never prints, regardless of
    /// `FLATWALK_PROGRESS` — for embedders (the serve worker pool)
    /// that report progress through their own channel.
    pub fn quiet(total: usize) -> Self {
        Progress {
            label: "",
            total,
            done: AtomicUsize::new(0),
            ops_done: AtomicU64::new(0),
            next_print_ms: AtomicU64::new(0),
            start: Instant::now(),
            setup_base: SetupStats::default(),
            walk_base: (0, 0),
            enabled: false,
        }
    }

    /// Records one finished job that simulated `ops` operations.
    pub fn tick(&self, ops: u64) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let ops_done = self.ops_done.fetch_add(ops, Ordering::Relaxed) + ops;
        if !self.enabled {
            return;
        }
        let elapsed_ms = self.start.elapsed().as_millis() as u64;
        let due = self.next_print_ms.load(Ordering::Relaxed);
        let finished = done == self.total;
        if !finished
            && (elapsed_ms < due
                || self
                    .next_print_ms
                    .compare_exchange(
                        due,
                        elapsed_ms + Self::PRINT_EVERY_MS,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_err())
        {
            return;
        }
        let secs = (elapsed_ms as f64 / 1e3).max(1e-9);
        let rate = ops_done as f64 / secs;
        let eta = if done > 0 {
            secs * (self.total - done) as f64 / done as f64
        } else {
            0.0
        };
        let cache = setup_stats().since(&self.setup_base);
        // Aggregate walk-hit ratio of the batch's completed cells (from
        // the global metrics registry; empty until a cell finishes).
        let (hits, total_steps) = crate::engine::walk_step_counters();
        let walk_hit = {
            let h = hits.saturating_sub(self.walk_base.0);
            let t = total_steps.saturating_sub(self.walk_base.1);
            if t > 0 {
                format!("walk-hit {:.1}% · ", 100.0 * h as f64 / t as f64)
            } else {
                String::new()
            }
        };
        let mut err = std::io::stderr().lock(); // lock-ok: progress printer
        let _ = write!(
            err,
            "\r[{}] {}/{} cells · {:.1} M sim-ops/s · {}cache {} hit/{} miss · setup {:.1}s / run {:.1}s · ETA {:.0}s ",
            self.label,
            done,
            self.total,
            rate / 1e6,
            walk_hit,
            cache.hits,
            cache.misses,
            cache.setup_nanos as f64 / 1e9,
            cache.run_nanos as f64 / 1e9,
            eta
        );
        if finished {
            let _ = writeln!(err, "· done in {secs:.1}s");
        }
        let _ = err.flush();
    }
}

/// Number of worker threads actually spawned for a `threads`-way
/// request over `total` jobs.
///
/// By default the pool is sized to
/// `min(threads, available_parallelism, total)`: asking for more
/// workers than the host has cores only adds coordination overhead
/// (the old behavior made `runner_grid/8cells_t4_ms` *slower* than t1
/// on a 1-core CI box). Results are spliced by job index, so the
/// clamp cannot change any output byte. Set `FLATWALK_THREADS_EXACT=1`
/// to restore the old spawn-exactly-what-was-asked behavior (useful
/// for oversubscription experiments).
fn effective_workers(threads: usize, total: usize) -> usize {
    let exact = std::env::var("FLATWALK_THREADS_EXACT").is_ok_and(|v| v.trim() == "1");
    let cap = if exact {
        threads
    } else {
        threads.min(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(threads),
        )
    };
    cap.min(total).max(1)
}

/// Runs `jobs` across `threads` workers, returning results in job
/// order. `weight(job)` feeds the progress meter (simulated ops).
///
/// The pool is sized by [`effective_workers`] (clamped to the host's
/// available parallelism unless `FLATWALK_THREADS_EXACT=1`). With one
/// effective worker (or one job) this degenerates to a plain serial
/// loop on the calling thread — no pool, identical evaluation order.
pub fn run_ordered<J, R, F, W>(
    jobs: Vec<J>,
    threads: usize,
    progress: &Progress,
    weight: W,
    f: F,
) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
    W: Fn(&J) -> u64 + Sync,
{
    let workers = effective_workers(threads, jobs.len());
    run_ordered_workers(jobs, workers, progress, weight, f)
}

/// [`run_ordered`] with an exact worker count (no parallelism clamp):
/// the work-stealing scheduler itself.
///
/// Each worker owns a contiguous slice of the job index space as a
/// deque ([`StealQueues`]): it pops its own range front-to-back (the
/// serial visit order) and, once drained, steals from the *back* of
/// the other workers' ranges — so a skewed grid (one 10x-cost cell)
/// no longer strands the remaining workers behind a static partition.
/// Jobs hand off through take-once slots and results land in
/// write-once slots ([`TakeSlot`]/[`OnceSlot`] — one atomic
/// transition each, no per-slot `Mutex`), then are spliced back **in
/// job-index order**, making the output byte-identical to the serial
/// run at any thread count.
///
/// # Panics
///
/// A panicking job does not abort the batch mid-flight: every
/// remaining job still runs to completion inside its own fault domain,
/// then the panic of the lowest-indexed failed job is re-raised on the
/// caller. A failed batch therefore never yields a partial result
/// vector, but it also never wastes the work of its healthy jobs'
/// side effects (setup-cache fills, recorded metrics).
pub fn run_ordered_workers<J, R, F, W>(
    jobs: Vec<J>,
    workers: usize,
    progress: &Progress,
    weight: W,
    f: F,
) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
    W: Fn(&J) -> u64 + Sync,
{
    type Panic = Box<dyn std::any::Any + Send>;
    /// Keeps the panic of the lowest-indexed failed job (the one a
    /// serial run would have hit first).
    fn note_panic(first: &Mutex<Option<(usize, Panic)>>, index: usize, payload: Panic) {
        let mut slot = first.lock().unwrap_or_else(|e| e.into_inner()); // lock-ok: panic path
        if slot.as_ref().is_none_or(|(i, _)| index < *i) {
            *slot = Some((index, payload));
        }
    }

    let total = jobs.len();
    let first_panic: Mutex<Option<(usize, Panic)>> = Mutex::new(None);
    if workers <= 1 || total <= 1 {
        let results = jobs
            .into_iter()
            .enumerate()
            .filter_map(|(index, job)| {
                let ops = weight(&job);
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(job)));
                progress.tick(ops);
                match result {
                    Ok(r) => Some(r),
                    Err(payload) => {
                        note_panic(&first_panic, index, payload);
                        None
                    }
                }
            })
            .collect();
        if let Some((_, payload)) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
            std::panic::resume_unwind(payload);
        }
        return results;
    }

    let job_slots: Vec<TakeSlot<J>> = jobs.into_iter().map(TakeSlot::new).collect();
    let result_slots: Vec<OnceSlot<R>> = (0..total).map(|_| OnceSlot::new()).collect();
    let queues = StealQueues::new(total, workers.min(total));

    std::thread::scope(|scope| {
        for w in 0..queues.workers() {
            let queues = &queues;
            let job_slots = &job_slots;
            let result_slots = &result_slots;
            let first_panic = &first_panic;
            let weight = &weight;
            let f = &f;
            scope.spawn(move || {
                while let Some(index) = queues.next(w) {
                    let job = job_slots[index]
                        .take()
                        .expect("a claimed index is claimed exactly once");
                    let ops = weight(&job);
                    match std::panic::catch_unwind(AssertUnwindSafe(|| f(job))) {
                        Ok(result) => {
                            assert!(
                                result_slots[index].set(result).is_ok(),
                                "a result slot is written exactly once"
                            );
                        }
                        Err(payload) => note_panic(first_panic, index, payload),
                    }
                    progress.tick(ops);
                }
            });
        }
    });

    if let Some((_, payload)) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        std::panic::resume_unwind(payload);
    }
    result_slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled by the pool"))
        .collect()
}

/// Expands and runs a batch of [`Cell`]s on `threads` workers,
/// returning `SimReport`s in cell order (byte-identical to a serial
/// run — each cell owns its seeded RNGs and shares no state).
///
/// # Panics
///
/// Panics if any cell failed — but only after the whole grid has
/// completed, so every healthy cell's side effects (cache fills,
/// metrics) land first. Callers that want the structured failure
/// records use [`run_cells_timed`].
pub fn run_cells(label: &'static str, cells: Vec<Cell>, threads: usize) -> Vec<SimReport> {
    run_cells_timed(label, cells, threads)
        .into_iter()
        .map(|o| match o {
            CellOutcome::Ok { report, .. } => report,
            CellOutcome::Failed { error, .. } => panic!("cell failed: {error}"),
        })
        .collect()
}

/// Like [`run_cells`] but returns each cell's outcome — report plus
/// setup/run wall time, or a structured failure record — and merges
/// every completed cell's metrics into the global registry as it
/// finishes (feeding the progress line's walk-hit ratio and the
/// `--json` report's aggregate metrics).
///
/// Each cell runs once, in its own fault domain: panics and
/// [`SimError`](crate::SimError)s are caught, a cell that crosses the
/// soft `FLATWALK_CELL_DEADLINE_SECS` wall-clock deadline is stopped
/// at its next engine batch boundary, and a failed cell is reported as
/// [`CellOutcome::Failed`] while the rest of the grid runs to
/// completion. An installed poison fault plan
/// ([`flatwalk_faults::FaultPlan::poisons`]) fails its designated cell
/// here, before the simulation is even built.
pub fn run_cells_timed(label: &'static str, cells: Vec<Cell>, threads: usize) -> Vec<CellOutcome> {
    run_cells_timed_cancellable(label, cells, threads, None)
}

/// Like [`run_cells_timed`] but checks a [`CancelFlag`] between cells
/// *and* between engine batch spans: once cancelled, every
/// not-yet-started cell completes immediately as
/// [`CellOutcome::Failed`] with a `"cancelled"` error, and already
/// running cells stop at their next batch boundary (completed spans
/// keep their byte-identical effects; the interrupted cell reports
/// `Failed`, never a partial result).
pub fn run_cells_timed_cancellable(
    label: &'static str,
    cells: Vec<Cell>,
    threads: usize,
    cancel: Option<&CancelFlag>,
) -> Vec<CellOutcome> {
    let progress = Progress::new(label, cells.len());
    let total = cells.len();
    let indexed: Vec<(usize, Cell)> = cells.into_iter().enumerate().collect();
    run_ordered(
        indexed,
        threads,
        &progress,
        |(_, cell)| cell.sim_ops(),
        |(index, cell)| {
            if cancel.is_some_and(CancelFlag::is_cancelled) {
                return CellOutcome::Failed {
                    error: format!("cancelled before start: cell {index} of {total}"),
                    retries: 0,
                };
            }
            // Running cells also observe the flag — at the next
            // engine batch boundary, via the scoped ambient cancel.
            let _cancel_scope = cancel.map(|c| scoped_cancel(c.clone()));
            run_cell_guarded(index, total, &cell)
        },
    )
}

/// Runs a single grid cell inside the same fault domain as
/// [`run_cells_timed`] — poison check against `(index, total)`, panic
/// and [`SimError`](crate::SimError) capture, soft deadline, and
/// global metrics merge on success. `flatwalk-serve` executes cells one
/// at a time through this entry point so that a served cell's outcome
/// is byte-identical to the same cell's outcome inside a whole-grid
/// [`run_cells_timed`] run.
pub fn run_cell_outcome(index: usize, total: usize, cell: &Cell) -> CellOutcome {
    run_cell_guarded(index, total, cell)
}

/// Runs one cell inside its fault domain (see [`run_cells_timed`]).
fn run_cell_guarded(index: usize, total: usize, cell: &Cell) -> CellOutcome {
    let _cell_span = flatwalk_obs::span::enter("cell");
    let plan = flatwalk_faults::active();
    let cancel = ambient_cancel();
    setup::begin_cell_timing();
    // Armed for the whole run: the engine polls `span_checkpoint`
    // between spans, so a cancelled or deadline-exceeded cell stops at
    // the next batch boundary.
    let armed = ArmedCell::arm(CellGuard {
        deadline: Instant::now() + cell_deadline(),
        cancel: cancel.clone(),
        slow: plan
            .as_deref()
            .and_then(|p| p.slow_span_delay(index, total)),
    });
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = plan.as_deref() {
            if plan.poisons(index, total) {
                panic!(
                    "poison cell: fault plan seed {} poisons cell {index} of {total}",
                    plan.seed
                );
            }
        }
        cell.try_run()
    }));
    drop(armed);
    let error = match run {
        Ok(Ok(report)) => {
            let (setup_nanos, run_nanos) = setup::cell_timing();
            flatwalk_obs::metrics::merge_global(&report.metrics());
            return CellOutcome::Ok {
                report,
                setup_nanos,
                run_nanos,
                retries: 0,
            };
        }
        Ok(Err(e)) => e.to_string(),
        Err(payload) => panic_message(payload.as_ref()),
    };
    let error = if cancel.as_ref().is_some_and(CancelFlag::is_cancelled) {
        format!("cancelled mid-run: cell {index} of {total}: {error}")
    } else {
        error
    };
    CellOutcome::Failed { error, retries: 0 }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_results_regardless_of_threads() {
        let jobs: Vec<u64> = (0..67).collect();
        let progress = Progress::new("t", jobs.len());
        let serial = run_ordered_workers(jobs.clone(), 1, &progress, |_| 1, |j| j * j);
        // `run_ordered_workers` bypasses the parallelism clamp, so the
        // stealing pool genuinely runs 5 workers even on a 1-core host.
        let progress = Progress::new("t", jobs.len());
        let parallel = run_ordered_workers(jobs, 5, &progress, |_| 1, |j| j * j);
        assert_eq!(serial, parallel);
        assert_eq!(serial[10], 100);
    }

    #[test]
    fn pool_larger_than_job_list() {
        let progress = Progress::new("t", 2);
        let out = run_ordered_workers(vec![1u64, 2], 16, &progress, |_| 1, |j| j + 1);
        assert_eq!(out, vec![2, 3]);
    }

    /// An artificially skewed grid — one job 10x the cost of the rest —
    /// must still splice byte-identically to the serial golden at every
    /// worker count, and the expensive job must be stealable (other
    /// workers drain the rest of the grid meanwhile).
    #[test]
    fn skewed_grid_matches_serial_golden_at_t1_t2_t8() {
        let jobs: Vec<u64> = (0..33).collect();
        let skewed_cost = |j: &u64| if *j == 3 { 10_000u64 } else { 1_000 };
        let run_job = move |j: u64| {
            // Deterministic busywork proportional to the job's cost.
            let spins = skewed_cost(&j);
            let mut acc = j;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (j, acc)
        };
        let progress = Progress::new("t", jobs.len());
        let golden = run_ordered_workers(jobs.clone(), 1, &progress, skewed_cost, run_job);
        for workers in [2usize, 8] {
            let progress = Progress::new("t", jobs.len());
            let out = run_ordered_workers(jobs.clone(), workers, &progress, skewed_cost, run_job);
            assert_eq!(out, golden, "workers={workers}");
        }
    }

    #[test]
    fn effective_workers_clamps_to_parallelism_and_jobs() {
        // Independent of the host: never more workers than jobs, never
        // fewer than one.
        assert_eq!(effective_workers(4, 2).max(1), effective_workers(4, 2));
        assert!(effective_workers(4, 2) <= 2);
        assert_eq!(effective_workers(0, 10), 1);
        assert_eq!(effective_workers(8, 0), 1);
        // And never more than the host can run, unless the exact
        // override is set (not set under the test harness).
        if std::env::var("FLATWALK_THREADS_EXACT").is_err() {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            assert!(effective_workers(1024, 1024) <= cores);
        }
    }

    #[test]
    fn empty_batch() {
        let progress = Progress::new("t", 0);
        let out: Vec<u64> = run_ordered(Vec::new(), 4, &progress, |_| 1, |j: u64| j);
        assert!(out.is_empty());
    }

    #[test]
    fn explicit_thread_count_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "clamped to at least one");
    }

    #[test]
    fn panic_completes_batch_then_propagates() {
        for workers in [1usize, 2] {
            let completed = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(|| {
                let progress = Progress::new("t", 5);
                run_ordered_workers(
                    vec![1u64, 2, 3, 4, 5],
                    workers,
                    &progress,
                    |_| 1,
                    |j| {
                        assert!(j != 2, "boom");
                        completed.fetch_add(1, Ordering::Relaxed);
                        j
                    },
                )
            });
            assert!(result.is_err(), "the panic still reaches the caller");
            assert_eq!(
                completed.load(Ordering::Relaxed),
                4,
                "every non-panicking job ran to completion first (workers={workers})"
            );
        }
    }

    #[test]
    fn first_panic_in_job_order_wins() {
        let result = std::panic::catch_unwind(|| {
            let progress = Progress::new("t", 4);
            run_ordered(
                vec![1u64, 2, 3, 4],
                1,
                &progress,
                |_| 1,
                |j| {
                    assert!(j < 3, "boom {j}");
                    j
                },
            )
        });
        let payload = result.expect_err("batch with failures re-raises");
        let message = payload
            .downcast_ref::<String>()
            .expect("assert! payload is a String");
        assert!(message.contains("boom 3"), "lowest failed index: {message}");
    }

    #[test]
    fn cancel_flag_starts_clear_and_latches() {
        let flag = CancelFlag::new();
        assert!(!flag.is_cancelled());
        let clone = flag.clone();
        clone.cancel();
        assert!(flag.is_cancelled(), "clones share one underlying flag");
    }

    #[test]
    fn cancelled_batch_fails_remaining_cells_without_running() {
        // A pre-cancelled flag must fail every cell up front: nothing is
        // built or simulated, and the failure records carry the cell
        // indices.
        let opts = SimOptions::small_test();
        let cells: Vec<Cell> = (0..3)
            .map(|_| {
                Cell::new(
                    flatwalk_workloads::WorkloadSpec::by_name("gups")
                        .expect("gups workload exists")
                        .scaled_down(1 << 13),
                    TranslationConfig::baseline(),
                    FragmentationScenario::NONE,
                    opts.clone(),
                )
            })
            .collect();
        let flag = CancelFlag::new();
        flag.cancel();
        let outcomes = run_cells_timed_cancellable("cancel-test", cells, 1, Some(&flag));
        assert_eq!(outcomes.len(), 3);
        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome {
                CellOutcome::Failed { error, .. } => {
                    assert!(error.contains("cancelled"), "{error}");
                    assert!(error.contains(&format!("cell {i} of 3")), "{error}");
                }
                CellOutcome::Ok { .. } => panic!("cell {i} ran despite cancellation"),
            }
        }
    }

    #[test]
    fn cancel_interrupts_running_cell_at_batch_boundary() {
        // A `slow` fault plan stretches the victim cell to hundreds of
        // milliseconds of wall time (≥ 20 ms per engine span); a cancel
        // fired shortly after start must interrupt it mid-run at a span
        // boundary instead of letting it finish.
        let opts = SimOptions::small_test();
        let cell = Cell::new(
            flatwalk_workloads::WorkloadSpec::by_name("gups")
                .expect("gups workload exists")
                .scaled_down(1 << 13),
            TranslationConfig::baseline(),
            FragmentationScenario::NONE,
            opts,
        );
        let plan = flatwalk_faults::FaultPlan::new(0, flatwalk_faults::FaultProfile::Slow);
        assert!(plan.slow_span_delay(0, 1).is_some(), "cell 0 is the victim");
        let _plan_scope = flatwalk_faults::scoped(Some(plan));
        let flag = CancelFlag::new();
        let _cancel_scope = scoped_cancel(flag.clone());
        let canceller = {
            let flag = flag.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                flag.cancel();
            })
        };
        let outcome = run_cell_outcome(0, 1, &cell);
        canceller.join().expect("canceller thread");
        match outcome {
            CellOutcome::Failed { error, .. } => {
                assert!(error.contains("cancelled mid-run: cell 0 of 1"), "{error}");
                // "access #N to VA" names one access: the VA the cell's
                // stream produces at position N.
                let (pos, va) = error
                    .split_once("access #")
                    .and_then(|(_, rest)| rest.split_once(" failed"))
                    .and_then(|(access, _)| access.split_once(" to "))
                    .unwrap_or_else(|| panic!("no access named in {error:?}"));
                let pos: usize = pos.parse().expect("stream position");
                let spec = cell
                    .workload
                    .clone()
                    .scaled_down(cell.opts.footprint_divisor);
                let base_va =
                    flatwalk_os::AddressSpaceSpec::new(cell.config.layout.clone(), spec.footprint)
                        .base_va;
                let expected = flatwalk_workloads::AccessStream::new(spec, base_va)
                    .nth(pos)
                    .expect("streams are infinite");
                assert_eq!(va, expected.to_string(), "{error}");
            }
            CellOutcome::Ok { .. } => panic!("cell outran a 30 ms cancel despite slow faults"),
        }
    }

    /// A cell is a pure function of its inputs, so a failed cell is
    /// never re-run: whether its runner panics or returns a
    /// `SimError`, the runner is called exactly once.
    #[test]
    fn a_failing_cell_runs_exactly_once() {
        static PANIC_CALLS: AtomicUsize = AtomicUsize::new(0);
        static ERROR_CALLS: AtomicUsize = AtomicUsize::new(0);
        fn panics(_: &Cell, _: RivalKind) -> Result<SimReport, crate::SimError> {
            PANIC_CALLS.fetch_add(1, Ordering::Relaxed);
            panic!("rival under test panicked");
        }
        fn errs(cell: &Cell, _: RivalKind) -> Result<SimReport, crate::SimError> {
            ERROR_CALLS.fetch_add(1, Ordering::Relaxed);
            Err(crate::SimError {
                scheme: "rival under test",
                workload: cell.workload.name.to_string(),
                core: None,
                va: flatwalk_types::VirtAddr::new(0x1000),
                stream_pos: 0,
                source: flatwalk_pt::WalkError::Malformed,
                detail: None,
            })
        }
        let cases: [(RivalRunner, &AtomicUsize); 2] =
            [(panics, &PANIC_CALLS), (errs, &ERROR_CALLS)];
        for (runner, calls) in cases {
            let cell = Cell::rival(
                flatwalk_workloads::WorkloadSpec::by_name("gups")
                    .expect("gups workload exists")
                    .scaled_down(1 << 13),
                TranslationConfig::baseline(),
                FragmentationScenario::NONE,
                SimOptions::small_test(),
                RivalKind::Victima,
                runner,
            );
            match run_cell_outcome(0, 1, &cell) {
                CellOutcome::Failed { error, .. } => {
                    assert!(error.contains("rival under test"), "{error}");
                }
                CellOutcome::Ok { .. } => panic!("a failing runner produced a report"),
            }
            assert_eq!(calls.load(Ordering::Relaxed), 1, "the cell ran once");
        }
    }

    #[test]
    fn span_checkpoint_is_a_noop_outside_a_guarded_cell() {
        assert!(span_checkpoint().is_ok());
    }

    #[test]
    fn deadline_env_default() {
        // Not set by any test harness: documents the default the fault
        // domain runs with.
        if std::env::var("FLATWALK_CELL_DEADLINE_SECS").is_err() {
            assert_eq!(cell_deadline(), Duration::from_secs(300));
        }
    }
}
