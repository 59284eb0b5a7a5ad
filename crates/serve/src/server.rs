//! The resident experiment service: listeners, bounded job queue,
//! worker pool with supervision, and the per-cell
//! cache/store/coalesce execution path.
//!
//! Life of a `submit`:
//!
//! 1. A connection thread parses the request and calls
//!    [`ServerInner::submit`]. Draining servers reject with `draining`;
//!    a queue at `queue_depth` rejects with `overloaded` (backpressure
//!    is explicit, never a silent hang). A submit carrying a
//!    `submit_key` the server already knows attaches to the existing
//!    job instead of enqueueing a duplicate (idempotent resubmit:
//!    already-emitted cell events are replayed to the new subscriber).
//!    Admission control sheds the rest fast: when the predicted queue
//!    wait (queue length × EWMA job duration ÷ workers) exceeds the
//!    job's `deadline_ms` or the configured SLO, the reply is an
//!    immediate `overloaded` instead of a doomed enqueue. Each cell's
//!    result-cache key is computed here, once. A job whose every cell
//!    is in the result cache is not queued: the connection thread runs
//!    it at once (step 2 without the fan-out), so a cached answer never
//!    waits behind simulations or on a worker's wake-up.
//! 2. A worker pops the job. Cells the result cache holds are answered
//!    on the worker's thread in index order and go out in one flush;
//!    the rest fan out across the work-stealing scheduler
//!    (`FLATWALK_JOB_THREADS`, default: the worker count), each through
//!    [`ServerInner::execute_cell`]:
//!    result-cache re-check under the in-flight lock → in-flight
//!    coalescing → persistent-store lookup → `runner::run_cell_outcome`
//!    (the same fault-domain entry point the batch binaries use, with
//!    the job's fault plan re-installed as a thread-scoped plan on
//!    every pool thread, plus the job's cancel flag as the ambient
//!    scoped cancel so a deadline stops cells at the next batch
//!    boundary, where a simulating cell also yields its core to the
//!    server's cached answers). Completed cells are rendered once and
//!    streamed to subscribers **in index order** — an emit cursor
//!    holds back out-of-order finishes until their predecessors land.
//!    Executed cells are written through to the store by a writer
//!    thread beside the cell threads ([`StoreWrites`]), so a cell
//!    thread does not wait on `fsync`; the job's `done` goes out only
//!    after every one of its writes is durable.
//! 3. The finished job stays addressable (`status` / `result`, and its
//!    `submit_key`) until [`RETAINED_JOBS`] newer jobs have finished;
//!    after that its id answers `not_found`, and a resubmit is served
//!    from the result cache or the store.
//!
//! A supervisor thread watches the worker pool: a worker that panics
//! mid-job is detected, its job re-queued at the front under a
//! `FLATWALK_JOB_RETRIES` budget (already-finished cells keep their
//! records and are not re-executed), and a replacement worker spawned.
//! Jobs whose retry budget is exhausted finish as failed records —
//! never a hang. The same thread runs the stall watchdog
//! (`FLATWALK_JOB_STALL_SECS`) and cancels jobs whose deadline passes
//! mid-run.
//!
//! Metrics semantics: a cell executed here merges its simulation
//! metrics into the process-global registry (via the runner), exactly
//! like a batch run; cache hits and coalesced waits do **not** merge
//! again — the registry counts simulation actually performed, while
//! the `serve.*` counters account for traffic served.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use flatwalk_obs::{metrics, span, trace, Json};
use flatwalk_sim::runner::{self, CancelFlag, Cell, CellOutcome};
use flatwalk_types::stats::LatencyHistogram;

use crate::proto::{self, write_line, JobSpec, Request, PROTOCOL};
use crate::rcache::{cell_key, CachedCell, ResultCache};
use crate::store::ResultStore;

/// Finished jobs kept addressable by `status`, `result` and
/// `submit_key`; beyond this many, the oldest finished job is evicted
/// first. Queued and running jobs are always kept.
pub const RETAINED_JOBS: usize = 128;

/// Longest request line a connection reads, in bytes (real requests
/// are under 1 KB). A longer line is answered with one `bad_request`
/// and its connection is closed, so no client can make the server
/// buffer an unbounded line.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Pause after a failed `accept` (out of file descriptors, say), so
/// the accept loop does not spin on a persistent error.
const ACCEPT_RETRY: Duration = Duration::from_millis(25);

/// How often the supervisor sweeps the worker pool for dead workers,
/// passed deadlines, and stalled jobs.
const SUPERVISE_POLL: Duration = Duration::from_millis(50);

/// Server configuration. Environment knobs (read by [`from_env`]
/// (ServerConfig::from_env)): `FLATWALK_QUEUE_DEPTH` (default 32),
/// `FLATWALK_RESULT_CACHE_MB` (default 64), `FLATWALK_JOB_THREADS`
/// (per-job cell fan-out; default: follow `workers`),
/// `FLATWALK_STORE_DIR` (persistent store root; unset = memory only),
/// `FLATWALK_SLO_MS` (admission SLO; 0 = off), `FLATWALK_JOB_RETRIES`
/// (requeue budget after a worker loss, default 1),
/// `FLATWALK_JOB_STALL_SECS` (stall watchdog, default 600, 0 = off),
/// and `FLATWALK_CHAOS` (enable chaos test hooks).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind a TCP listener on `127.0.0.1:port` (port 0 = ephemeral).
    pub tcp: bool,
    /// TCP port (ignored unless `tcp`).
    pub port: u16,
    /// Optionally bind a Unix socket at this path (removed on exit).
    pub uds: Option<PathBuf>,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Threads fanning one job's cells through the work-stealing
    /// scheduler. `0` (the default) follows [`workers`]
    /// (ServerConfig::workers).
    pub job_threads: usize,
    /// Maximum queued (not yet running) jobs before `overloaded`.
    pub queue_depth: usize,
    /// Result-cache byte budget.
    pub cache_bytes: u64,
    /// Root of the persistent result store; `None` = memory only.
    pub store_dir: Option<PathBuf>,
    /// Admission-control SLO in milliseconds: submissions whose
    /// predicted queue wait exceeds it are shed. `0` disables the SLO
    /// (per-job `deadline_ms` still applies).
    pub slo_ms: u64,
    /// Times a job lost to a worker panic is re-queued before it is
    /// finalized as failed.
    pub job_retries: u32,
    /// Seconds without cell progress before the stall watchdog cancels
    /// a running job. `0` disables the watchdog.
    pub stall_secs: u64,
    /// Allow chaos hooks in submissions (test-only fault injection).
    pub chaos: bool,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

impl ServerConfig {
    /// Defaults plus the environment knobs: TCP on an ephemeral
    /// loopback port, no Unix socket, worker count from
    /// `FLATWALK_THREADS`/available parallelism.
    pub fn from_env() -> ServerConfig {
        ServerConfig {
            tcp: true,
            port: 0,
            uds: None,
            workers: runner::resolve_threads(None),
            job_threads: env_u64("FLATWALK_JOB_THREADS", 0) as usize,
            queue_depth: env_u64("FLATWALK_QUEUE_DEPTH", 32) as usize,
            cache_bytes: env_u64("FLATWALK_RESULT_CACHE_MB", 64) << 20,
            store_dir: std::env::var("FLATWALK_STORE_DIR")
                .ok()
                .filter(|v| !v.trim().is_empty())
                .map(PathBuf::from),
            slo_ms: env_u64("FLATWALK_SLO_MS", 0),
            job_retries: env_u64("FLATWALK_JOB_RETRIES", 1) as u32,
            stall_secs: env_u64("FLATWALK_JOB_STALL_SECS", 600),
            chaos: env_u64("FLATWALK_CHAOS", 0) != 0,
        }
    }
}

const QUEUED: u8 = 0;
const RUNNING: u8 = 1;
const DONE: u8 = 2;

fn state_name(state: u8) -> &'static str {
    match state {
        QUEUED => "queued",
        RUNNING => "running",
        _ => "done",
    }
}

/// One submitted job and everything needed to answer queries about it.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id (1-based, monotonic).
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    labels: Vec<String>,
    cells: Vec<Cell>,
    /// Each cell's result-cache key, computed once at submit.
    keys: Vec<Arc<str>>,
    state: AtomicU8,
    done_cells: AtomicUsize,
    failed_cells: AtomicUsize,
    cached_cells: AtomicUsize,
    coalesced_cells: AtomicUsize,
    executed_cells: AtomicUsize,
    /// Rendered cell records, index-aligned; filled in index order.
    records: Mutex<Vec<Option<String>>>,
    subscribers: Mutex<Vec<Sender<String>>>,
    /// When the job entered the queue (feeds the `serve.queue_wait`
    /// span and the `queue_wait` latency histogram).
    enqueued: Instant,
    /// Per-job cancel flag: fired by the deadline/stall watchdogs (and
    /// drain), observed by running cells at batch boundaries.
    cancel: CancelFlag,
    /// Absolute deadline derived from the submit's `deadline_ms`.
    deadline: Option<Instant>,
    /// Times this job was re-queued after losing its worker.
    requeues: AtomicU32,
    /// Index of the next record to stream, shared across the original
    /// run, any requeued re-run, and late-attaching subscribers.
    /// Lock order is emit_cursor → records → subscribers everywhere.
    emit_cursor: Mutex<usize>,
}

impl Job {
    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Cells served from the result cache (coalesced waits included).
    pub fn cached_cells(&self) -> usize {
        self.cached_cells.load(Ordering::Relaxed)
    }

    /// Cells this job actually simulated.
    pub fn executed_cells(&self) -> usize {
        self.executed_cells.load(Ordering::Relaxed)
    }

    /// Times this job was re-queued after a worker loss.
    pub fn requeues(&self) -> u32 {
        self.requeues.load(Ordering::Relaxed)
    }

    fn broadcast(&self, line: &str) {
        let mut subs = self.subscribers.lock().unwrap_or_else(|e| e.into_inner());
        subs.retain(|tx| tx.send(line.to_string()).is_ok());
    }
}

/// How one cell request was satisfied.
enum CellData {
    Done {
        value: CachedCell,
        cached: bool,
        coalesced: bool,
    },
    Failed {
        error: String,
    },
}

type ExecResult = Result<CachedCell, String>;

/// Rendezvous for concurrent requests of the same cell key: the first
/// requester executes, the rest block here and share the outcome.
#[derive(Debug, Default)]
struct InflightSlot {
    done: Mutex<Option<ExecResult>>,
    cv: Condvar,
}

/// Monotonic service counters (reported by `metrics`, mirrored into
/// the global metrics registry as `serve.*`).
#[derive(Debug, Default)]
pub struct Counters {
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_rejected: AtomicU64,
    cells_executed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cells_coalesced: AtomicU64,
    /// Resubmits that attached to an existing job via `submit_key`.
    jobs_deduped: AtomicU64,
    /// Submissions shed because predicted wait exceeded `deadline_ms`.
    shed_deadline: AtomicU64,
    /// Submissions shed because predicted wait exceeded the SLO.
    shed_slo: AtomicU64,
    /// Jobs cancelled because their deadline passed after acceptance.
    shed_late: AtomicU64,
    /// Jobs re-queued after their worker panicked.
    jobs_requeued: AtomicU64,
    /// Jobs finalized as failed after exhausting the requeue budget.
    jobs_lost: AtomicU64,
    /// Jobs cancelled by the stall watchdog.
    jobs_stalled: AtomicU64,
    /// Worker threads that died to a panic.
    worker_panics: AtomicU64,
    /// Replacement workers spawned by the supervisor.
    workers_respawned: AtomicU64,
}

/// Every addressable job, and the finished ones' ids in completion
/// order (oldest first), at most [`RETAINED_JOBS`] of them.
#[derive(Debug, Default)]
struct JobTable {
    by_id: HashMap<u64, Arc<Job>>,
    finished: VecDeque<u64>,
}

/// Shared state of a running server.
#[derive(Debug)]
pub struct ServerInner {
    config: ServerConfig,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    jobs: Mutex<JobTable>,
    next_job: AtomicU64,
    draining: AtomicBool,
    in_flight: AtomicUsize,
    cancel: CancelFlag,
    cache: ResultCache,
    /// Disk-backed store beneath the memory cache; `None` runs memory
    /// only (no `store_dir`, or the directory failed to open).
    store: Option<ResultStore>,
    inflight_cells: Mutex<HashMap<Arc<str>, Arc<InflightSlot>>>,
    /// `submit_key` → job id, for idempotent resubmits.
    submit_keys: Mutex<HashMap<String, u64>>,
    /// Exponentially weighted moving average of job wall time in
    /// nanoseconds (0 until the first job completes); feeds the
    /// predicted-queue-wait admission check.
    ewma_job_nanos: AtomicU64,
    counters: Counters,
    /// Wall-clock latency histograms, one per request op (plus
    /// `queue_wait` for submit→run delay), feeding the `metrics`
    /// reply's percentile table and the Prometheus summary.
    req_stats: Mutex<BTreeMap<&'static str, LatencyHistogram>>,
}

impl ServerInner {
    fn new(config: ServerConfig) -> ServerInner {
        let cache = ResultCache::new(config.cache_bytes);
        let store = config.store_dir.as_ref().and_then(|dir| {
            match ResultStore::open(dir) {
                Ok(store) => {
                    metrics::gauge_global("store.entries", store.len() as f64);
                    Some(store)
                }
                Err(e) => {
                    // A broken store directory must not take the
                    // service down; run memory-only and say so.
                    eprintln!(
                        "flatwalk-serve: store {}: {e}; running memory-only",
                        dir.display()
                    );
                    None
                }
            }
        });
        ServerInner {
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(JobTable::default()),
            next_job: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            cancel: CancelFlag::new(),
            cache,
            store,
            inflight_cells: Mutex::new(HashMap::new()),
            submit_keys: Mutex::new(HashMap::new()),
            ewma_job_nanos: AtomicU64::new(0),
            counters: Counters::default(),
            req_stats: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records one request's wall-clock handle time under its op name.
    fn note_request(&self, op: &'static str, nanos: u64) {
        self.req_stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(op)
            .or_default()
            .record(nanos);
    }

    /// The configuration this server was spawned with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Whether the server is draining (rejecting new submissions).
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Whether draining has finished: nothing queued, nothing running.
    pub fn drained(&self) -> bool {
        self.draining()
            && self.in_flight.load(Ordering::Relaxed) == 0
            && self
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty()
    }

    /// Starts draining: in-flight and queued jobs finish, new
    /// submissions are rejected with `draining`, workers and listeners
    /// exit once idle.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
        self.queue_cv.notify_all();
        trace::emit_serve("drain", 0, "");
    }

    /// Forces a fast drain: begins draining, cancels cells that have
    /// not started yet (they complete as failed `cancelled` records),
    /// and fires every unfinished job's cancel flag so running cells
    /// stop at their next batch boundary.
    pub fn cancel_remaining(&self) {
        self.cancel.cancel();
        for job in self
            .jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .by_id
            .values()
        {
            if job.state.load(Ordering::Relaxed) != DONE {
                job.cancel.cancel();
            }
        }
        self.begin_drain();
    }

    /// The disk-backed result store, when one is open.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Predicted queue wait for a newly submitted job, in nanoseconds:
    /// jobs already queued × EWMA job duration ÷ workers. Zero until
    /// the first job completes (no data — admit everything).
    fn predicted_wait_nanos(&self, queued: usize) -> u64 {
        let ewma = self.ewma_job_nanos.load(Ordering::Relaxed);
        (queued as u64).saturating_mul(ewma) / self.config.workers.max(1) as u64
    }

    /// Lifetime cache-hit count (coalesced waits not included).
    pub fn cache_hits(&self) -> u64 {
        self.counters.cache_hits.load(Ordering::Relaxed)
    }

    /// Lifetime count of cells actually simulated.
    pub fn cells_executed(&self) -> u64 {
        self.counters.cells_executed.load(Ordering::Relaxed)
    }

    /// Lifetime count of cells that waited on an identical in-flight
    /// execution instead of running their own.
    pub fn cells_coalesced(&self) -> u64 {
        self.counters.cells_coalesced.load(Ordering::Relaxed)
    }

    /// Submits a job, registering `subscriber` for its event stream.
    ///
    /// A job whose every cell is in the result cache runs to completion
    /// on the calling thread before this returns; any other job is
    /// queued for a worker.
    ///
    /// Returns the job plus `resumed`: `true` when the submit's
    /// `submit_key` matched an existing job and the caller was
    /// attached to it (already-emitted cell events replayed) instead
    /// of a new job being enqueued.
    ///
    /// # Errors
    ///
    /// `(kind, detail)` per the protocol: `draining`, `bad_request`
    /// (unknown grid, disallowed chaos hook), or `overloaded` (queue
    /// at depth, or predicted wait beyond the deadline/SLO).
    pub fn submit(
        self: &Arc<Self>,
        spec: JobSpec,
        subscriber: Option<Sender<String>>,
    ) -> Result<(Arc<Job>, bool), (&'static str, String)> {
        if self.draining() {
            self.counters.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            metrics::add_global("serve.jobs.rejected", 1);
            return Err(("draining", "server is draining".to_string()));
        }
        if let Some(hook) = &spec.chaos {
            if !self.config.chaos {
                return Err((
                    "bad_request",
                    format!("chaos hook {hook:?} requires the server to run with FLATWALK_CHAOS=1"),
                ));
            }
            if hook != "panic_worker" {
                return Err(("bad_request", format!("unknown chaos hook {hook:?}")));
            }
        }
        // Holding the submit-key map across the whole admission path
        // makes resubmit-vs-create atomic: two racing submits with the
        // same key cannot both enqueue. Lock order: submit_keys →
        // queue.
        let mut keymap = spec.submit_key.as_ref().map(|key| {
            (
                key.clone(),
                self.submit_keys.lock().unwrap_or_else(|e| e.into_inner()),
            )
        });
        if let Some((key, map)) = &keymap {
            if let Some(job) = map.get(key).and_then(|&id| self.job(id)) {
                self.counters.jobs_deduped.fetch_add(1, Ordering::Relaxed);
                metrics::add_global("serve.jobs.deduped", 1);
                trace::emit_serve("dedup", job.id, key);
                if let Some(tx) = subscriber {
                    attach_subscriber(&job, tx);
                }
                return Ok((job, true));
            }
        }
        let grid = spec.resolve().map_err(|e| ("bad_request", e))?;
        // The job's fault plan is the innermost scoped plan on every
        // thread that runs its cells, so this is the signature they see.
        let signature = spec.faults.map_or(0, |plan| plan.signature());
        let total = grid.cells.len();
        let keys: Vec<Arc<str>> = grid
            .cells
            .iter()
            .enumerate()
            .map(|(index, cell)| cell_key(cell, signature, index, total).into())
            .collect();
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if self.draining() {
            self.counters.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            metrics::add_global("serve.jobs.rejected", 1);
            return Err(("draining", "server is draining".to_string()));
        }
        if queue.len() >= self.config.queue_depth {
            self.counters.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            metrics::add_global("serve.jobs.rejected", 1);
            trace::emit_serve("reject", 0, "overloaded");
            return Err((
                "overloaded",
                format!("queue full (depth {})", self.config.queue_depth),
            ));
        }
        // Admission control: reject-fast jobs that would blow their
        // deadline (or the server SLO) just waiting in the queue. A
        // shed is cheaper for everyone than a doomed enqueue.
        let predicted = self.predicted_wait_nanos(queue.len());
        let over = |limit_ms: u64| limit_ms > 0 && predicted > limit_ms.saturating_mul(1_000_000);
        if spec.deadline_ms.is_some_and(over) {
            self.counters.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            self.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
            metrics::add_global("serve.jobs.rejected", 1);
            metrics::add_global("serve.shed.deadline", 1);
            trace::emit_serve("shed", 0, "deadline");
            return Err((
                "overloaded",
                format!(
                    "shed: predicted queue wait ~{}ms exceeds deadline {}ms",
                    predicted / 1_000_000,
                    spec.deadline_ms.unwrap_or(0)
                ),
            ));
        }
        if over(self.config.slo_ms) {
            self.counters.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            self.counters.shed_slo.fetch_add(1, Ordering::Relaxed);
            metrics::add_global("serve.jobs.rejected", 1);
            metrics::add_global("serve.shed.slo", 1);
            trace::emit_serve("shed", 0, "slo");
            return Err((
                "overloaded",
                format!(
                    "shed: predicted queue wait ~{}ms exceeds SLO {}ms",
                    predicted / 1_000_000,
                    self.config.slo_ms
                ),
            ));
        }
        let id = self.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        let deadline = spec
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        // A job the result cache answers in full waits on no simulation,
        // so the caller runs it now instead of queueing it behind jobs
        // that simulate. Chaos jobs always go through a worker: their
        // hook kills the worker that runs them.
        let answer_here = spec.chaos.is_none() && keys.iter().all(|k| self.cache.contains(k));
        let job = Arc::new(Job {
            id,
            spec,
            labels: grid.labels,
            cells: grid.cells,
            keys,
            state: AtomicU8::new(QUEUED),
            done_cells: AtomicUsize::new(0),
            failed_cells: AtomicUsize::new(0),
            cached_cells: AtomicUsize::new(0),
            coalesced_cells: AtomicUsize::new(0),
            executed_cells: AtomicUsize::new(0),
            records: Mutex::new(vec![None; total]),
            subscribers: Mutex::new(subscriber.into_iter().collect()),
            enqueued: Instant::now(),
            cancel: CancelFlag::new(),
            deadline,
            requeues: AtomicU32::new(0),
            emit_cursor: Mutex::new(0),
        });
        if let Some((key, map)) = keymap.as_mut() {
            map.insert(key.clone(), id);
        }
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .by_id
            .insert(id, Arc::clone(&job));
        if answer_here {
            // Counted in flight under the queue lock, as a worker's
            // dequeue is, so a drain never sees it neither queued nor
            // running.
            self.in_flight.fetch_add(1, Ordering::Relaxed);
        } else {
            queue.push_back(Arc::clone(&job));
        }
        drop(queue);
        drop(keymap);
        if !answer_here {
            self.queue_cv.notify_one();
        }
        self.counters.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        metrics::add_global("serve.jobs.submitted", 1);
        trace::emit_serve("submit", id, &job.spec.grid);
        if answer_here {
            self.run_job(&job);
            self.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
        Ok((job, false))
    }

    /// Looks a job up by id; `None` once it was evicted (see
    /// [`RETAINED_JOBS`]).
    pub fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .by_id
            .get(&id)
            .cloned()
    }

    /// `submit_key`s currently mapped to a job.
    pub fn submit_keys_held(&self) -> usize {
        self.submit_keys
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Records `job` as finished and evicts the oldest finished job
    /// beyond [`RETAINED_JOBS`], with its `submit_key`.
    fn retire(&self, job: &Job) {
        let evicted = {
            let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            jobs.finished.push_back(job.id);
            if jobs.finished.len() > RETAINED_JOBS {
                let oldest = jobs.finished.pop_front().expect("longer than the bound");
                jobs.by_id.remove(&oldest)
            } else {
                None
            }
        };
        // Lock order is submit_keys → jobs, so the key is dropped after
        // the jobs lock is released. A resubmit in between finds the key
        // but not the job and maps the key to a new job, which stays.
        let Some(old) = evicted else { return };
        if let Some(key) = &old.spec.submit_key {
            let mut keys = self.submit_keys.lock().unwrap_or_else(|e| e.into_inner());
            if keys.get(key) == Some(&old.id) {
                keys.remove(key);
            }
        }
    }

    /// Answers one cell from the result cache, counting the hit.
    fn cache_hit(&self, job_id: u64, key: &Arc<str>) -> Option<CellData> {
        let hit = self.cache.get(key)?;
        self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        metrics::add_global("serve.cache.hits", 1);
        trace::emit_serve("cache_hit", job_id, &key[..key.len().min(80)]);
        Some(CellData::Done {
            value: hit,
            cached: true,
            coalesced: false,
        })
    }

    /// Runs one cell that missed `run_job`'s cache pass through cache →
    /// coalesce → execute; an executed cell's durable write goes to
    /// `writes`.
    fn execute_cell(
        &self,
        job_id: u64,
        index: usize,
        total: usize,
        cell: &Cell,
        key: &Arc<str>,
        writes: &StoreWrites<'_, '_>,
    ) -> CellData {
        // Claim the key or join whoever already claimed it. The cache
        // is checked again under the map lock: another job's owner may
        // have inserted and released since `run_job`'s cache pass.
        let (slot, owner) = {
            let mut map = self
                .inflight_cells
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(hit) = self.cache_hit(job_id, key) {
                return hit;
            }
            match map.get(key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(InflightSlot::default());
                    map.insert(Arc::clone(key), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if !owner {
            self.counters
                .cells_coalesced
                .fetch_add(1, Ordering::Relaxed);
            metrics::add_global("serve.cells.coalesced", 1);
            trace::emit_serve("coalesced", job_id, &key[..key.len().min(80)]);
            let mut done = slot.done.lock().unwrap_or_else(|e| e.into_inner());
            while done.is_none() {
                done = slot.cv.wait(done).unwrap_or_else(|e| e.into_inner());
            }
            return match done.clone().expect("loop exits only when fulfilled") {
                Ok(value) => CellData::Done {
                    value,
                    cached: true,
                    coalesced: true,
                },
                Err(error) => CellData::Failed { error },
            };
        }
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        metrics::add_global("serve.cache.misses", 1);
        // Owner: before paying for simulation, check the persistent
        // store — a previous process lifetime may have computed this
        // cell. A hit is promoted into the memory cache and fulfils
        // any coalesced waiters, byte-identical to the original run.
        if let Some(hit) = self.store.as_ref().and_then(|s| s.get(key)) {
            self.cache.insert(Arc::clone(key), hit.clone());
            self.inflight_cells
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(key);
            *slot.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(Ok(hit.clone()));
            slot.cv.notify_all();
            trace::emit_serve("store_hit", job_id, &key[..key.len().min(80)]);
            return CellData::Done {
                value: hit,
                cached: true,
                coalesced: false,
            };
        }
        let outcome = runner::run_cell_outcome(index, total, cell);
        self.counters.cells_executed.fetch_add(1, Ordering::Relaxed);
        metrics::add_global("serve.cells.executed", 1);
        let result: ExecResult = match outcome {
            CellOutcome::Ok {
                report,
                setup_nanos,
                run_nanos,
                ..
            } => {
                let value = CachedCell {
                    report_json: Arc::from(report.to_json().to_string()),
                    setup_nanos,
                    run_nanos,
                    retries: 0,
                };
                // Insert before unpublishing the slot so a request
                // arriving in between hits the cache instead of
                // re-executing. Write-through to the persistent store
                // (best-effort: a full disk must not fail the cell).
                self.cache.insert(Arc::clone(key), value.clone());
                writes.put(key, &value);
                Ok(value)
            }
            CellOutcome::Failed { error, .. } => Err(error),
        };
        self.inflight_cells
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key);
        *slot.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(result.clone());
        slot.cv.notify_all();
        match result {
            Ok(value) => CellData::Done {
                value,
                cached: false,
                coalesced: false,
            },
            Err(error) => CellData::Failed { error },
        }
    }

    fn run_job(&self, job: &Arc<Job>) {
        // Queue wait crosses threads (enqueued on the connection
        // thread, dequeued here), so it is a recorded duration rather
        // than a scoped guard.
        let waited = job.enqueued.elapsed().as_nanos() as u64;
        span::record("serve.queue_wait", waited);
        self.note_request("queue_wait", waited);
        let _run_span = span::enter("serve.run");
        let run_started = Instant::now();
        job.state.store(RUNNING, Ordering::Relaxed);
        trace::emit_serve("job_start", job.id, &job.spec.grid);
        // Chaos hook: die exactly once, on the first attempt, so the
        // requeued re-run can prove the supervisor's recovery path.
        if job.spec.chaos.as_deref() == Some("panic_worker") && job.requeues() == 0 {
            trace::emit_serve("chaos_panic", job.id, "panic_worker");
            panic!("chaos: injected worker panic (job {})", job.id);
        }
        // A job whose deadline passed while it waited in the queue is
        // not worth starting: fire its cancel flag so every cell
        // completes as a fast failed record.
        if job.deadline.is_some_and(|d| Instant::now() >= d) && !job.cancel.is_cancelled() {
            job.cancel.cancel();
            self.counters.shed_late.fetch_add(1, Ordering::Relaxed);
            metrics::add_global("serve.shed.late", 1);
            trace::emit_serve("shed", job.id, "late");
        }
        let total = job.cells.len();
        let cancelled = || self.cancel.is_cancelled() || job.cancel.is_cancelled();
        // Cells the result cache holds are answered on this thread, in
        // index order, and go out in one flush; only the rest fan out. A
        // requeued job (worker lost mid-run) skips cells that already
        // have records — they were executed, streamed, and counted by
        // the first attempt.
        let mut pending = Vec::new();
        for index in 0..total {
            if job.records.lock().unwrap_or_else(|e| e.into_inner())[index].is_some() {
                continue;
            }
            let hit = if cancelled() {
                None
            } else {
                self.cache_hit(job.id, &job.keys[index])
            };
            match hit {
                Some(data) => record_cell(job, index, &data),
                None => pending.push(index),
            }
        }
        {
            let _splice_span = span::enter("serve.splice");
            flush_records(job);
        }
        // The remaining cells fan out through the work-stealing scheduler
        // (none, and no thread, when the cache answered every cell).
        // Fault plans are *thread*-scoped, so every per-cell closure
        // re-installs the job's plan on whichever pool thread runs it —
        // `scoped(None)` still pushes a scope, so a job without faults
        // is fault-free even if this process ever had a global plan
        // installed. The job's cancel flag rides along the same way,
        // as the ambient scoped cancel: a deadline or stall firing
        // mid-cell stops the simulation at the next batch boundary.
        // Subscribers still see cell events in index order: each
        // finished cell parks its record, then the emit cursor flushes
        // every consecutive completed record.
        let plan = job.spec.faults;
        let fan = match self.config.job_threads {
            0 => self.config.workers,
            n => n,
        };
        let progress = runner::Progress::quiet(pending.len());
        std::thread::scope(|scope| {
            let writes = StoreWrites::new(self.store.as_ref(), scope);
            runner::run_ordered(
                pending,
                fan,
                &progress,
                |_| 1,
                |index: usize| {
                    let _plan_scope = flatwalk_faults::scoped(plan);
                    let _cancel_scope = runner::scoped_cancel(job.cancel.clone());
                    let data = if cancelled() {
                        CellData::Failed {
                            error: format!("cancelled before start: cell {index} of {total}"),
                        }
                    } else {
                        let (cell, key) = (&job.cells[index], &job.keys[index]);
                        self.execute_cell(job.id, index, total, cell, key, &writes)
                    };
                    record_cell(job, index, &data);
                    // Flush the in-order prefix this completion unblocked.
                    // Lock order is emit_cursor → records everywhere;
                    // `record_cell` released `records` first, so a racing
                    // flusher either emits our record for us or leaves the
                    // cursor parked on it for this call.
                    let _splice_span = span::enter("serve.splice");
                    flush_records(job);
                },
            );
            // Dropping `writes` closes its queue; the scope then joins
            // the writer once every queued entry is durable.
        });
        // Op-count overrides give this job's cells access streams that
        // no default-length grid shares, and the result cache answers a
        // resubmit; drop them so distinct overrides do not accumulate.
        if job.spec.warmup_ops.is_some() || job.spec.measure_ops.is_some() {
            if let Some(cell) = job.cells.first() {
                flatwalk_sim::setup::evict_streams(cell.sim_ops());
            }
        }
        self.finish_job(job, Some(run_started.elapsed().as_nanos() as u64));
    }

    /// Marks `job` done, streams the final events, and (for measured
    /// runs) folds the duration into the EWMA feeding admission
    /// control. Shared by the normal completion path and supervisor
    /// finalization (which passes `None` — a lost job's wall time says
    /// nothing about healthy job duration).
    fn finish_job(&self, job: &Arc<Job>, run_nanos: Option<u64>) {
        // Flush any tail the per-cell closures did not (a requeued job
        // whose every remaining cell was skipped emits nothing), then
        // set DONE while holding the cursor: a late subscriber holds
        // the same lock while it checks the state, so it either sees
        // RUNNING and registers before our done broadcast, or sees
        // DONE and synthesizes its own done event.
        flush_records(job);
        {
            let _cursor = job.emit_cursor.lock().unwrap_or_else(|e| e.into_inner());
            job.state.store(DONE, Ordering::Relaxed);
        }
        // Evict before the done event goes out, so a client that has
        // read `done` already sees the eviction it caused.
        self.retire(job);
        job.broadcast(&done_event_line(job));
        // Closing the channels ends the subscribers' streams.
        job.subscribers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        if let Some(nanos) = run_nanos {
            let _ = self
                .ewma_job_nanos
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                    Some(if old == 0 {
                        nanos
                    } else {
                        (3 * old + nanos) / 4
                    })
                });
        }
        self.counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
        metrics::add_global("serve.jobs.completed", 1);
        trace::emit_serve("job_done", job.id, &job.spec.grid);
    }

    /// Supervisor recovery for a job whose worker died mid-run:
    /// re-queue it at the front (already-finished cells keep their
    /// records) while budget remains, otherwise finalize it as failed.
    /// Jobs already cancelled are finalized immediately — a cancelled
    /// re-run could only produce more `cancelled` records.
    fn requeue_or_fail(&self, job: &Arc<Job>) {
        let requeues = job.requeues.fetch_add(1, Ordering::Relaxed) + 1;
        if requeues <= self.config.job_retries && !job.cancel.is_cancelled() {
            job.state.store(QUEUED, Ordering::Relaxed);
            let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.push_front(Arc::clone(job));
            drop(queue);
            self.queue_cv.notify_one();
            self.counters.jobs_requeued.fetch_add(1, Ordering::Relaxed);
            metrics::add_global("supervisor.jobs.requeued", 1);
            trace::emit_serve("requeue", job.id, &job.spec.grid);
        } else {
            self.finalize_lost(job);
        }
    }

    /// Completes a worker-lost job as failed: every cell without a
    /// record gets a `worker lost` failure, then the job finishes
    /// normally (events stream, queries answer) — never a hang.
    fn finalize_lost(&self, job: &Arc<Job>) {
        {
            let mut records = job.records.lock().unwrap_or_else(|e| e.into_inner());
            for (index, record) in records.iter_mut().enumerate() {
                if record.is_none() {
                    let data = CellData::Failed {
                        error: format!(
                            "worker lost: requeue budget exhausted after {} attempt(s)",
                            job.requeues()
                        ),
                    };
                    *record = Some(render_record(job, index, &data));
                    job.failed_cells.fetch_add(1, Ordering::Relaxed);
                    job.done_cells.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.counters.jobs_lost.fetch_add(1, Ordering::Relaxed);
        metrics::add_global("supervisor.jobs.lost", 1);
        trace::emit_serve("job_lost", job.id, &job.spec.grid);
        self.finish_job(job, None);
    }

    fn status_line(&self, id: u64) -> String {
        let Some(job) = self.job(id) else {
            return proto::error_line("not_found", &format!("no job {id}"));
        };
        let mut o = Json::obj();
        o.push("ok", true)
            .push("job", id)
            .push("state", state_name(job.state.load(Ordering::Relaxed)))
            .push("grid", job.spec.grid.as_str())
            .push("cells", job.cells.len())
            .push("done_cells", job.done_cells.load(Ordering::Relaxed))
            .push("failed", job.failed_cells.load(Ordering::Relaxed))
            .push("cached", job.cached_cells.load(Ordering::Relaxed))
            .push("coalesced", job.coalesced_cells.load(Ordering::Relaxed))
            .push("executed", job.executed_cells.load(Ordering::Relaxed));
        o.to_string()
    }

    fn result_line(&self, id: u64) -> String {
        let Some(job) = self.job(id) else {
            return proto::error_line("not_found", &format!("no job {id}"));
        };
        let records = job.records.lock().unwrap_or_else(|e| e.into_inner());
        let rendered: Vec<&str> = records.iter().flatten().map(String::as_str).collect();
        let mut prefix = Json::obj();
        prefix
            .push("ok", true)
            .push("job", id)
            .push("state", state_name(job.state.load(Ordering::Relaxed)))
            .push("grid", job.spec.grid.as_str());
        let mut line = prefix.to_string();
        line.pop();
        line.push_str(",\"cells\":[");
        line.push_str(&rendered.join(","));
        line.push_str("]}");
        line
    }

    /// Publishes the live queue-depth / in-flight gauges into the
    /// global registry, so every exposition (JSON and Prometheus) shows
    /// values current as of the scrape.
    fn refresh_gauges(&self) {
        let queue_len = self.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
        metrics::gauge_global("serve.queue_len", queue_len as f64);
        metrics::gauge_global(
            "serve.jobs_in_flight",
            self.in_flight.load(Ordering::Relaxed) as f64,
        );
    }

    /// Per-op request-latency percentiles as an ordered JSON object:
    /// `{"ping":{"count":N,"p50":…,"p90":…,"p99":…,"p999":…},…}`,
    /// all latencies in nanoseconds.
    fn latency_json(&self) -> Json {
        let stats = self.req_stats.lock().unwrap_or_else(|e| e.into_inner());
        let mut o = Json::obj();
        for (op, h) in stats.iter() {
            let mut e = Json::obj();
            e.push("count", h.count())
                .push("p50", h.p50())
                .push("p90", h.p90())
                .push("p99", h.p99())
                .push("p999", h.p999());
            o.push(op, e);
        }
        o
    }

    /// Pushes the metrics payload fields (`protocol`, `server`,
    /// `latency`, `metrics`) shared by the `metrics` reply and each
    /// `watch` event.
    fn metrics_payload(&self, o: &mut Json) {
        self.refresh_gauges();
        let mut server = Json::obj();
        server
            .push("workers", self.config.workers)
            .push("queue_depth", self.config.queue_depth)
            .push(
                "queue_len",
                self.queue.lock().unwrap_or_else(|e| e.into_inner()).len(),
            )
            .push("jobs_in_flight", self.in_flight.load(Ordering::Relaxed))
            .push(
                "jobs_submitted",
                self.counters.jobs_submitted.load(Ordering::Relaxed),
            )
            .push(
                "jobs_completed",
                self.counters.jobs_completed.load(Ordering::Relaxed),
            )
            .push(
                "jobs_rejected",
                self.counters.jobs_rejected.load(Ordering::Relaxed),
            )
            .push("cells_executed", self.cells_executed())
            .push("cache_hits", self.cache_hits())
            .push(
                "cache_misses",
                self.counters.cache_misses.load(Ordering::Relaxed),
            )
            .push("cells_coalesced", self.cells_coalesced())
            .push("cache_entries", self.cache.len())
            .push("cache_bytes", self.cache.bytes())
            .push("cache_evicted", self.cache.evicted())
            .push(
                "jobs_deduped",
                self.counters.jobs_deduped.load(Ordering::Relaxed),
            )
            .push(
                "shed_deadline",
                self.counters.shed_deadline.load(Ordering::Relaxed),
            )
            .push("shed_slo", self.counters.shed_slo.load(Ordering::Relaxed))
            .push("shed_late", self.counters.shed_late.load(Ordering::Relaxed))
            .push(
                "jobs_requeued",
                self.counters.jobs_requeued.load(Ordering::Relaxed),
            )
            .push("jobs_lost", self.counters.jobs_lost.load(Ordering::Relaxed))
            .push(
                "jobs_stalled",
                self.counters.jobs_stalled.load(Ordering::Relaxed),
            )
            .push(
                "worker_panics",
                self.counters.worker_panics.load(Ordering::Relaxed),
            )
            .push(
                "workers_respawned",
                self.counters.workers_respawned.load(Ordering::Relaxed),
            )
            .push(
                "ewma_job_nanos",
                self.ewma_job_nanos.load(Ordering::Relaxed),
            )
            .push("slo_ms", self.config.slo_ms)
            .push("draining", self.draining());
        if let Some(store) = &self.store {
            let mut s = Json::obj();
            s.push("entries", store.len())
                .push("recovered", store.recovered())
                .push("quarantined", store.quarantined())
                .push("hits", store.hits())
                .push("misses", store.misses())
                .push("writes", store.writes())
                .push("write_errors", store.write_errors());
            server.push("store", s);
        }
        o.push("protocol", PROTOCOL)
            .push("server", server)
            .push("latency", self.latency_json())
            .push("metrics", metrics::global_snapshot().to_json());
    }

    fn metrics_line(&self) -> String {
        let mut o = Json::obj();
        o.push("ok", true);
        self.metrics_payload(&mut o);
        o.to_string()
    }

    /// One `watch` stream event: the metrics payload plus a sequence
    /// number.
    fn watch_event_line(&self, seq: u64) -> String {
        let mut o = Json::obj();
        o.push("ok", true).push("event", "metrics").push("seq", seq);
        self.metrics_payload(&mut o);
        o.to_string()
    }

    /// The full telemetry surface rendered in the Prometheus text
    /// exposition format: the global registry (prefixed `flatwalk_`)
    /// plus a `summary`-typed quantile family per request op.
    fn prometheus_text(&self) -> String {
        self.refresh_gauges();
        let mut text = metrics::global_snapshot().to_prometheus("flatwalk_");
        let stats = self.req_stats.lock().unwrap_or_else(|e| e.into_inner());
        if !stats.is_empty() {
            text.push_str("# TYPE flatwalk_serve_request_latency_nanos summary\n");
            for (op, h) in stats.iter() {
                let op = metrics::sanitize_metric_name(op);
                for (q, v) in [
                    ("0.5", h.p50()),
                    ("0.9", h.p90()),
                    ("0.99", h.p99()),
                    ("0.999", h.p999()),
                ] {
                    text.push_str(&format!(
                        "flatwalk_serve_request_latency_nanos{{op=\"{op}\",quantile=\"{q}\"}} {v}\n"
                    ));
                }
                text.push_str(&format!(
                    "flatwalk_serve_request_latency_nanos_count{{op=\"{op}\"}} {}\n",
                    h.count()
                ));
            }
        }
        text
    }

    fn prometheus_line(&self) -> String {
        let mut o = Json::obj();
        o.push("ok", true)
            .push("format", "prometheus")
            .push("text", self.prometheus_text());
        o.to_string()
    }
}

/// Renders one `cell` stream event around an already-rendered record.
fn cell_event_line(job_id: u64, record: &str) -> String {
    format!("{{\"ok\":true,\"event\":\"cell\",\"job\":{job_id},\"record\":{record}}}")
}

/// Renders the final `done` stream event for a job.
fn done_event_line(job: &Job) -> String {
    let mut done = Json::obj();
    done.push("ok", true)
        .push("event", "done")
        .push("job", job.id)
        .push("cells", job.cells.len())
        .push("failed", job.failed_cells.load(Ordering::Relaxed))
        .push("cached", job.cached_cells.load(Ordering::Relaxed))
        .push("coalesced", job.coalesced_cells.load(Ordering::Relaxed))
        .push("executed", job.executed_cells.load(Ordering::Relaxed))
        .push("requeues", job.requeues());
    done.to_string()
}

/// Broadcasts every consecutive completed record from the emit cursor
/// onward. Lock order: emit_cursor → records (→ subscribers inside
/// `broadcast`).
fn flush_records(job: &Job) {
    let mut cursor = job.emit_cursor.lock().unwrap_or_else(|e| e.into_inner());
    let records = job.records.lock().unwrap_or_else(|e| e.into_inner());
    while let Some(Some(record)) = records.get(*cursor) {
        job.broadcast(&cell_event_line(job.id, record));
        *cursor += 1;
    }
}

/// Attaches a late subscriber to `job` (idempotent resubmit): replays
/// every already-emitted cell event, then either registers for the
/// rest or — when the job is already done — synthesizes the final
/// `done` event. Holding the emit cursor across replay + registration
/// closes the gap a concurrent flusher could otherwise slip events
/// through.
fn attach_subscriber(job: &Arc<Job>, tx: Sender<String>) {
    let cursor = job.emit_cursor.lock().unwrap_or_else(|e| e.into_inner());
    {
        let records = job.records.lock().unwrap_or_else(|e| e.into_inner());
        for record in records.iter().take(*cursor).flatten() {
            let _ = tx.send(cell_event_line(job.id, record));
        }
    }
    if job.state.load(Ordering::Relaxed) == DONE {
        let _ = tx.send(done_event_line(job));
    } else {
        job.subscribers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(tx);
    }
}

/// Counts one finished cell against `job` and parks its rendered
/// record for the emit cursor.
fn record_cell(job: &Job, index: usize, data: &CellData) {
    match data {
        CellData::Done {
            cached, coalesced, ..
        } => {
            if *cached {
                job.cached_cells.fetch_add(1, Ordering::Relaxed);
            } else {
                job.executed_cells.fetch_add(1, Ordering::Relaxed);
            }
            if *coalesced {
                job.coalesced_cells.fetch_add(1, Ordering::Relaxed);
            }
        }
        CellData::Failed { .. } => {
            job.failed_cells.fetch_add(1, Ordering::Relaxed);
        }
    }
    let record = render_record(job, index, data);
    job.records.lock().unwrap_or_else(|e| e.into_inner())[index] = Some(record);
    job.done_cells.fetch_add(1, Ordering::Relaxed);
}

/// Renders one cell record. Report bytes come from the cache entry and
/// are spliced in verbatim — byte-identical to `SimReport::to_json()`
/// however many times the cell is served.
fn render_record(job: &Job, index: usize, data: &CellData) -> String {
    let mut o = Json::obj();
    o.push("label", job.spec.grid.as_str())
        .push("index", index)
        .push("cell", job.labels[index].as_str());
    match data {
        CellData::Done {
            value,
            cached,
            coalesced,
        } => {
            o.push("status", "ok")
                .push("cached", *cached)
                .push("coalesced", *coalesced)
                .push("setup_nanos", value.setup_nanos)
                .push("run_nanos", value.run_nanos);
            let mut s = o.to_string();
            s.pop();
            s.push_str(",\"report\":");
            s.push_str(&value.report_json);
            s.push('}');
            s
        }
        CellData::Failed { error } => {
            o.push("status", "failed")
                .push("error", error.as_str())
                .push("cached", false)
                .push("coalesced", false);
            o.to_string()
        }
    }
}

/// The store writes of one job's executed cells. The first write
/// starts a writer thread in the job's scope, so the cell threads go
/// on simulating while entries are synced to disk; the scope, and with
/// it every write, ends before the job's `done` event goes out.
struct StoreWrites<'scope, 'env> {
    store: Option<&'env ResultStore>,
    scope: &'scope std::thread::Scope<'scope, 'env>,
    queue: OnceLock<Sender<(Arc<str>, CachedCell)>>,
}

impl<'scope, 'env> StoreWrites<'scope, 'env> {
    fn new(
        store: Option<&'env ResultStore>,
        scope: &'scope std::thread::Scope<'scope, 'env>,
    ) -> Self {
        StoreWrites {
            store,
            scope,
            queue: OnceLock::new(),
        }
    }

    /// Queues `key`'s durable write; without a store, does nothing.
    fn put(&self, key: &Arc<str>, value: &CachedCell) {
        let Some(store) = self.store else { return };
        let queue = self.queue.get_or_init(|| {
            let (tx, rx) = channel::<(Arc<str>, CachedCell)>();
            self.scope.spawn(move || {
                for (key, value) in rx {
                    store.put(&key, &value);
                }
            });
            tx
        });
        // The writer only stops once every sender is gone, or by
        // panicking, which the scope re-raises on the worker anyway.
        queue
            .send((Arc::clone(key), value.clone()))
            .expect("the job's store writer outlives its cell threads");
    }
}

/// Handles one request line, or the rejection of one (`Err` carries a
/// `bad_request` detail); returns `false` when the connection should
/// close (write failure). Every request — including a streaming submit
/// or watch, end to end — is timed into the per-op latency histograms
/// and covered by a `serve.request` span.
fn handle_request(
    inner: &Arc<ServerInner>,
    line: Result<&str, String>,
    w: &mut impl Write,
) -> bool {
    let started = Instant::now();
    let _req_span = span::enter("serve.request");
    let parsed = line.and_then(proto::parse_request);
    let op = match &parsed {
        Ok(req) => req.op_name(),
        Err(_) => "bad_request",
    };
    let alive = dispatch_request(inner, parsed, w);
    inner.note_request(op, started.elapsed().as_nanos() as u64);
    alive
}

fn dispatch_request(
    inner: &Arc<ServerInner>,
    parsed: Result<Request, String>,
    w: &mut impl Write,
) -> bool {
    let reply = match parsed {
        Err(e) => proto::error_line("bad_request", &e),
        Ok(Request::Ping) => {
            let mut o = Json::obj();
            o.push("ok", true).push("protocol", PROTOCOL);
            o.to_string()
        }
        Ok(Request::Metrics { prometheus }) => {
            if prometheus {
                inner.prometheus_line()
            } else {
                inner.metrics_line()
            }
        }
        Ok(Request::Watch { interval_ms, count }) => {
            let mut seq = 0u64;
            while count == 0 || seq < count {
                if write_line(w, &inner.watch_event_line(seq)).is_err() {
                    return false;
                }
                seq += 1;
                if (count != 0 && seq >= count) || inner.drained() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(interval_ms));
            }
            let mut o = Json::obj();
            o.push("ok", true)
                .push("event", "done")
                .push("watched", seq);
            return write_line(w, &o.to_string()).is_ok();
        }
        Ok(Request::Status { job }) => inner.status_line(job),
        Ok(Request::Result { job }) => inner.result_line(job),
        Ok(Request::Shutdown) => {
            inner.begin_drain();
            let mut o = Json::obj();
            o.push("ok", true).push("draining", true);
            o.to_string()
        }
        Ok(Request::Submit { spec, stream }) => {
            let (tx, rx) = channel();
            let subscriber = stream.then_some(tx);
            match inner.submit(spec, subscriber) {
                Err((kind, detail)) => proto::error_line(kind, &detail),
                Ok((job, resumed)) => {
                    let mut o = Json::obj();
                    o.push("ok", true)
                        .push("event", "accepted")
                        .push("job", job.id)
                        .push("grid", job.spec.grid.as_str())
                        .push("mode", job.spec.mode_name())
                        .push("cells", job.cells.len())
                        .push("stream", stream);
                    if resumed {
                        o.push("resumed", true);
                    }
                    if write_line(w, &o.to_string()).is_err() {
                        return false;
                    }
                    if stream {
                        for event in rx {
                            if write_line(w, &event).is_err() {
                                return false;
                            }
                        }
                    }
                    return true;
                }
            }
        }
    };
    write_line(w, &reply).is_ok()
}

fn serve_connection(inner: Arc<ServerInner>, reader: impl Read, mut writer: impl Write) {
    let mut reader = BufReader::new(reader);
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.len() > MAX_REQUEST_LINE && !line.ends_with(b"\n") {
            let detail = format!("request line longer than {MAX_REQUEST_LINE} bytes");
            handle_request(&inner, Err(detail), &mut writer);
            // Read out the rest of the line: a socket closed with
            // unread input sends the client a reset instead of EOF.
            let _ = reader.skip_until(b'\n');
            break;
        }
        let Ok(line) = std::str::from_utf8(&line) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        if !handle_request(&inner, Ok(line), &mut writer) {
            break;
        }
    }
}

/// What a worker is running right now, observable by the supervisor.
/// `Some(job)` from dequeue to completion; a worker that dies by
/// panic leaves its job parked here for the supervisor to recover.
type RunningSlot = Arc<Mutex<Option<Arc<Job>>>>;

fn worker_loop(inner: Arc<ServerInner>, running: RunningSlot) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    inner.in_flight.fetch_add(1, Ordering::Relaxed);
                    break Some(job);
                }
                if inner.draining() {
                    break None;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { break };
        *running.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&job));
        inner.run_job(&job);
        *running.lock().unwrap_or_else(|e| e.into_inner()) = None;
        inner.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One supervised worker: its thread handle plus the job it is
/// currently running.
struct WorkerSlot {
    handle: Option<std::thread::JoinHandle<()>>,
    running: RunningSlot,
}

fn spawn_worker(inner: &Arc<ServerInner>) -> WorkerSlot {
    let running: RunningSlot = Arc::new(Mutex::new(None));
    let slot_running = Arc::clone(&running);
    let inner = Arc::clone(inner);
    let handle = std::thread::spawn(move || worker_loop(inner, slot_running));
    WorkerSlot {
        handle: Some(handle),
        running,
    }
}

/// Per-job progress snapshot the stall watchdog compares between
/// sweeps.
struct StallEntry {
    done_cells: usize,
    since: Instant,
}

/// The supervisor: spawns and owns the worker pool, recovers jobs
/// whose worker panicked (decrement in-flight, requeue-or-fail,
/// respawn a replacement), cancels jobs whose deadline passed mid-run,
/// and runs the stall watchdog. Once the server has drained it wakes
/// the accept loops, joins the pool, and exits.
fn supervisor_loop(inner: Arc<ServerInner>, tcp: Option<SocketAddr>, uds: Option<PathBuf>) {
    let workers = inner.config.workers.max(1);
    let mut slots: Vec<WorkerSlot> = (0..workers).map(|_| spawn_worker(&inner)).collect();
    let stall_limit = match inner.config.stall_secs {
        0 => None,
        secs => Some(Duration::from_secs(secs)),
    };
    let mut stall: HashMap<u64, StallEntry> = HashMap::new();
    loop {
        std::thread::sleep(SUPERVISE_POLL);
        for slot in &mut slots {
            if !slot.handle.as_ref().is_some_and(|h| h.is_finished()) {
                continue;
            }
            let panicked = slot.handle.take().expect("checked above").join().is_err();
            if !panicked {
                continue; // normal drain exit
            }
            inner.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
            metrics::add_global("supervisor.worker_panics", 1);
            let lost = slot
                .running
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take();
            if let Some(job) = lost {
                // The dead worker never ran its post-job decrement.
                inner.in_flight.fetch_sub(1, Ordering::Relaxed);
                trace::emit_serve("worker_panic", job.id, &job.spec.grid);
                inner.requeue_or_fail(&job);
            } else {
                trace::emit_serve("worker_panic", 0, "idle");
            }
            // Respawn unless the drain already completed: a draining
            // server may still hold the requeued job, and only a live
            // worker can retire it.
            if !inner.drained() {
                *slot = spawn_worker(&inner);
                inner
                    .counters
                    .workers_respawned
                    .fetch_add(1, Ordering::Relaxed);
                metrics::add_global("supervisor.workers_respawned", 1);
            }
        }
        // Deadline + stall watchdogs over whatever is running now.
        let mut live: Vec<u64> = Vec::new();
        for slot in &slots {
            let job = slot
                .running
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            let Some(job) = job else { continue };
            live.push(job.id);
            if job.cancel.is_cancelled() {
                continue;
            }
            if job.deadline.is_some_and(|d| Instant::now() >= d) {
                job.cancel.cancel();
                inner.counters.shed_late.fetch_add(1, Ordering::Relaxed);
                metrics::add_global("serve.shed.late", 1);
                trace::emit_serve("deadline_cancel", job.id, &job.spec.grid);
                continue;
            }
            if let Some(limit) = stall_limit {
                let done = job.done_cells.load(Ordering::Relaxed);
                let entry = stall.entry(job.id).or_insert(StallEntry {
                    done_cells: done,
                    since: Instant::now(),
                });
                if done != entry.done_cells {
                    entry.done_cells = done;
                    entry.since = Instant::now();
                } else if entry.since.elapsed() >= limit {
                    job.cancel.cancel();
                    inner.counters.jobs_stalled.fetch_add(1, Ordering::Relaxed);
                    metrics::add_global("supervisor.jobs_stalled", 1);
                    trace::emit_serve("stall_cancel", job.id, &job.spec.grid);
                }
            }
        }
        stall.retain(|id, _| live.contains(id));
        if inner.drained() {
            break;
        }
    }
    wake_listeners(tcp, uds.as_deref());
    for slot in &mut slots {
        if let Some(handle) = slot.handle.take() {
            let _ = handle.join();
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    /// Blocks until a peer connects, then spawns its handler thread.
    fn accept_one(&self, inner: &Arc<ServerInner>) -> std::io::Result<()> {
        let inner = Arc::clone(inner);
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                let reader = stream.try_clone()?;
                std::thread::spawn(move || serve_connection(inner, reader, stream));
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                let reader = stream.try_clone()?;
                std::thread::spawn(move || serve_connection(inner, reader, stream));
            }
        }
        Ok(())
    }
}

/// Accepts connections until the server has drained. `accept` blocks:
/// the supervisor, which sees the drain complete, connects once to
/// each listener ([`wake_listeners`]) so this loop can see it too.
fn accept_loop(inner: Arc<ServerInner>, listener: Listener) {
    while !inner.drained() {
        if let Err(e) = listener.accept_one(&inner) {
            eprintln!("flatwalk-serve: accept failed: {e}");
            std::thread::sleep(ACCEPT_RETRY);
        }
    }
}

/// Connects once to each listener so its accept loop, blocked in
/// `accept`, wakes and finds the drain complete. A connect that fails
/// means that loop already exited.
fn wake_listeners(tcp: Option<SocketAddr>, uds: Option<&Path>) {
    if let Some(addr) = tcp {
        let _ = std::net::TcpStream::connect(addr);
    }
    #[cfg(unix)]
    if let Some(path) = uds {
        let _ = std::os::unix::net::UnixStream::connect(path);
    }
}

/// A running server: listeners and workers are live background
/// threads until drain completes.
#[derive(Debug)]
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    addr: Option<SocketAddr>,
    uds: Option<PathBuf>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP address, when TCP is enabled.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// The bound Unix-socket path, when one is configured.
    pub fn uds(&self) -> Option<&PathBuf> {
        self.uds.as_ref()
    }

    /// Shared server state (counters, drain control).
    pub fn inner(&self) -> &Arc<ServerInner> {
        &self.inner
    }

    /// Starts draining (see [`ServerInner::begin_drain`]).
    pub fn begin_drain(&self) {
        self.inner.begin_drain();
    }

    /// Fast drain: cancel not-yet-started cells too.
    pub fn cancel_remaining(&self) {
        self.inner.cancel_remaining();
    }

    /// Blocks until drain completes and every service thread has
    /// exited, then removes the Unix socket file. Connection handler
    /// threads are not joined — they end when their peers disconnect.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(path) = &self.uds {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Binds the configured listeners and spawns the worker pool.
///
/// # Errors
///
/// Propagates listener-bind failures. Configuring neither TCP nor a
/// Unix socket is an invalid-input error.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let mut listeners: Vec<Listener> = Vec::new();
    let mut addr = None;
    if config.tcp {
        let l = TcpListener::bind(("127.0.0.1", config.port))?;
        addr = Some(l.local_addr()?);
        listeners.push(Listener::Tcp(l));
    }
    let mut uds = None;
    #[cfg(unix)]
    if let Some(path) = &config.uds {
        let _ = std::fs::remove_file(path);
        let l = std::os::unix::net::UnixListener::bind(path)?;
        uds = Some(path.clone());
        listeners.push(Listener::Unix(l));
    }
    #[cfg(not(unix))]
    if config.uds.is_some() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "unix sockets are not supported on this platform",
        ));
    }
    if listeners.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no listener configured (need tcp and/or uds)",
        ));
    }
    let inner = Arc::new(ServerInner::new(config));
    let mut threads = Vec::new();
    for listener in listeners {
        let inner = Arc::clone(&inner);
        threads.push(std::thread::spawn(move || accept_loop(inner, listener)));
    }
    // Workers are spawned (and respawned after panics) by the
    // supervisor, which joins them before exiting itself.
    {
        let inner = Arc::clone(&inner);
        let uds = uds.clone();
        threads.push(std::thread::spawn(move || {
            supervisor_loop(inner, addr, uds)
        }));
    }
    Ok(ServerHandle {
        inner,
        addr,
        uds,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> ServerConfig {
        ServerConfig {
            tcp: true,
            port: 0,
            uds: None,
            workers: 2,
            job_threads: 0,
            queue_depth: 4,
            cache_bytes: 1 << 20,
            store_dir: None,
            slo_ms: 0,
            job_retries: 1,
            stall_secs: 0,
            chaos: false,
        }
    }

    #[test]
    fn spawn_binds_ephemeral_port_and_drains_idle() {
        let handle = spawn(test_config()).expect("bind loopback");
        let addr = handle.addr().expect("tcp enabled");
        assert_eq!(addr.ip().to_string(), "127.0.0.1");
        assert_ne!(addr.port(), 0);
        handle.begin_drain();
        handle.wait();
    }

    #[test]
    fn drain_wakes_the_blocked_accept_loops_in_every_listener_setup() {
        let dir = std::env::temp_dir();
        let sock =
            |case: &str| dir.join(format!("flatwalk-wake-{}-{case}.sock", std::process::id()));
        for (case, tcp, uds) in [
            ("tcp", true, None),
            ("uds", false, Some(sock("uds"))),
            ("both", true, Some(sock("both"))),
        ] {
            let handle = spawn(ServerConfig {
                tcp,
                uds,
                ..test_config()
            })
            .expect("bind listeners");
            // One ping per listener: each accept loop has run and gone
            // back to block in `accept`.
            if let Some(addr) = handle.addr() {
                let mut conn =
                    crate::client::Connection::connect_tcp(&addr.to_string()).expect("tcp connect");
                assert!(conn
                    .request(r#"{"op":"ping"}"#)
                    .expect("ping")
                    .contains("\"ok\":true"));
            }
            if let Some(path) = handle.uds() {
                let mut conn = crate::client::Connection::connect_uds(path).expect("uds connect");
                assert!(conn
                    .request(r#"{"op":"ping"}"#)
                    .expect("ping")
                    .contains("\"ok\":true"));
            }
            let (done_tx, done_rx) = channel();
            let waiter = std::thread::spawn(move || {
                handle.begin_drain();
                handle.wait();
                let _ = done_tx.send(());
            });
            done_rx
                .recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("{case}: begin_drain + wait took over 1 s"));
            waiter.join().expect("waiter thread");
        }
    }

    #[test]
    fn a_too_deeply_nested_request_is_a_bad_request() {
        let handle = spawn(test_config()).expect("bind loopback");
        let addr = handle.addr().expect("tcp enabled").to_string();
        let mut conn = crate::client::Connection::connect_tcp(&addr).expect("tcp connect");
        let deep = format!("{{\"op\":{}", "[".repeat(20_000));
        let reply = conn.request(&deep).expect("a reply, not a crash");
        assert!(
            reply.contains(r#""error":"bad_request""#) && reply.contains("nesting too deep"),
            "{reply}"
        );
        let pong = conn.request(r#"{"op":"ping"}"#).expect("same connection");
        assert!(pong.contains(r#""ok":true"#), "{pong}");
        handle.begin_drain();
        handle.wait();
    }

    #[test]
    fn an_over_long_request_line_is_refused_and_its_connection_closed() {
        let handle = spawn(test_config()).expect("bind loopback");
        let addr = handle.addr().expect("tcp enabled").to_string();
        let mut stream = std::net::TcpStream::connect(&addr).expect("tcp connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        write_line(&mut stream, &"x".repeat(2 << 20)).expect("the server reads the whole line");
        // One error line, then EOF (a reset would fail the read).
        let mut replies = String::new();
        stream
            .read_to_string(&mut replies)
            .expect("reply, then EOF");
        assert_eq!(replies.lines().count(), 1, "{replies}");
        assert!(
            replies.contains(r#""error":"bad_request""#) && replies.contains("longer than"),
            "{replies}"
        );
        let mut conn = crate::client::Connection::connect_tcp(&addr).expect("tcp connect");
        let pong = conn.request(r#"{"op":"ping"}"#).expect("a new connection");
        assert!(pong.contains(r#""ok":true"#), "{pong}");
        handle.begin_drain();
        handle.wait();
    }

    #[test]
    fn every_reply_and_stream_event_is_one_write() {
        let handle = spawn(test_config()).expect("bind loopback");
        let mut tiny = JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick);
        tiny.warmup_ops = Some(100);
        tiny.measure_ops = Some(400);
        tiny.footprint_divisor = Some(4096);
        let script = [
            r#"{"op":"ping"}"#.to_string(),
            "not json".to_string(),
            r#"{"op":"status","job":99}"#.to_string(),
            r#"{"op":"metrics","format":"prometheus"}"#.to_string(),
            r#"{"op":"watch","interval_ms":1,"count":2}"#.to_string(),
            tiny.to_request_line(true),
            r#"{"op":"result","job":1}"#.to_string(),
        ]
        .join("\n");
        let mut w = crate::proto::tests::RecordingWriter::default();
        serve_connection(Arc::clone(handle.inner()), script.as_bytes(), &mut w);
        // Four single replies; two watch events and their done; the
        // accepted event, one event per cell and done; the result.
        let cells = tiny.resolve().expect("known grid").len();
        assert_eq!(w.writes.len(), 4 + 3 + (cells + 2) + 1);
        assert_eq!(w.flushes, w.writes.len());
        for write in &w.writes {
            let newlines = write.iter().filter(|&&b| b == b'\n').count();
            assert!(
                newlines == 1 && write.ends_with(b"\n"),
                "a write must carry exactly one whole line: {:?}",
                String::from_utf8_lossy(write)
            );
        }
        handle.begin_drain();
        handle.wait();
    }

    #[test]
    fn a_job_with_op_overrides_leaves_no_stream_cached() {
        let handle = spawn(test_config()).expect("bind loopback");
        let mut spec = JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick);
        spec.warmup_ops = Some(100);
        spec.measure_ops = Some(437);
        spec.footprint_divisor = Some(4096);
        let mut w = crate::proto::tests::RecordingWriter::default();
        serve_connection(
            Arc::clone(handle.inner()),
            spec.to_request_line(true).as_bytes(),
            &mut w,
        );
        let cells = spec.resolve().expect("known grid").len() as u64;
        assert_eq!(handle.inner().cells_executed(), cells);
        assert_eq!(flatwalk_sim::setup::evict_streams(537), 0);
        handle.begin_drain();
        handle.wait();
    }

    /// A `Write` that notes the store's write count each time a `done`
    /// event goes out.
    struct DoneProbe {
        inner: Arc<ServerInner>,
        writes_at_done: Vec<u64>,
    }

    impl Write for DoneProbe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if String::from_utf8_lossy(buf).contains(r#""event":"done""#) {
                let writes = self.inner.store().map_or(0, ResultStore::writes);
                self.writes_at_done.push(writes);
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn done_follows_the_durable_write_of_every_executed_cell() {
        let dir = std::env::temp_dir().join(format!("flatwalk-done-writes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = spawn(ServerConfig {
            store_dir: Some(dir.clone()),
            ..test_config()
        })
        .expect("bind loopback");
        let tiny = |measure_ops| {
            let mut spec = JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick);
            spec.warmup_ops = Some(100);
            spec.measure_ops = Some(measure_ops);
            spec.footprint_divisor = Some(4096);
            spec
        };
        let cells = tiny(400).resolve().expect("known grid").len() as u64;
        let script = [400, 400, 500].map(|ops| tiny(ops).to_request_line(true));
        let mut probe = DoneProbe {
            inner: Arc::clone(handle.inner()),
            writes_at_done: Vec::new(),
        };
        serve_connection(
            Arc::clone(handle.inner()),
            script.join("\n").as_bytes(),
            &mut probe,
        );
        // The repeat is served from memory and writes nothing.
        assert_eq!(probe.writes_at_done, [cells, cells, 2 * cells]);
        assert_eq!(
            ResultStore::open(&dir).expect("reopen").len() as u64,
            2 * cells
        );
        handle.begin_drain();
        handle.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_without_listeners() {
        let config = ServerConfig {
            tcp: false,
            uds: None,
            ..test_config()
        };
        assert!(spawn(config).is_err());
    }

    #[test]
    fn draining_rejects_submissions() {
        let inner = Arc::new(ServerInner::new(test_config()));
        inner.begin_drain();
        let err = inner
            .submit(JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick), None)
            .expect_err("draining server rejects");
        assert_eq!(err.0, "draining");
    }

    #[test]
    fn zero_depth_queue_reports_overloaded() {
        let config = ServerConfig {
            queue_depth: 0,
            ..test_config()
        };
        let inner = Arc::new(ServerInner::new(config));
        let err = inner
            .submit(JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick), None)
            .expect_err("zero-depth queue rejects everything");
        assert_eq!(err.0, "overloaded");
        assert_eq!(inner.counters.jobs_rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unknown_grid_is_bad_request() {
        let inner = Arc::new(ServerInner::new(test_config()));
        let err = inner
            .submit(
                JobSpec::new("no_such_grid", flatwalk_bench::Mode::Quick),
                None,
            )
            .expect_err("unknown grid");
        assert_eq!(err.0, "bad_request");
        assert!(err.1.contains("sec71_pwc"), "lists known grids: {}", err.1);
    }

    #[test]
    fn missing_job_queries_are_not_found() {
        let inner = Arc::new(ServerInner::new(test_config()));
        assert!(inner.status_line(42).contains("not_found"));
        assert!(inner.result_line(42).contains("not_found"));
    }

    #[test]
    fn chaos_hooks_are_rejected_unless_enabled() {
        let inner = Arc::new(ServerInner::new(test_config()));
        let mut spec = JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick);
        spec.chaos = Some("panic_worker".to_string());
        let err = inner.submit(spec, None).expect_err("chaos disabled");
        assert_eq!(err.0, "bad_request");
        assert!(err.1.contains("FLATWALK_CHAOS"), "{}", err.1);

        let chaotic = Arc::new(ServerInner::new(ServerConfig {
            chaos: true,
            ..test_config()
        }));
        let mut bogus = JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick);
        bogus.chaos = Some("unplug_everything".to_string());
        let err = chaotic.submit(bogus, None).expect_err("unknown hook");
        assert_eq!(err.0, "bad_request");
    }

    #[test]
    fn submit_key_resubmits_attach_to_the_existing_job() {
        let inner = Arc::new(ServerInner::new(test_config()));
        let mut spec = JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick);
        spec.submit_key = Some(spec.content_key());
        let (first, resumed) = inner.submit(spec.clone(), None).expect("accepted");
        assert!(!resumed);
        let (second, resumed) = inner.submit(spec, None).expect("deduped");
        assert!(resumed);
        assert_eq!(first.id, second.id);
        assert_eq!(inner.counters.jobs_deduped.load(Ordering::Relaxed), 1);
        assert_eq!(inner.counters.jobs_submitted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn predicted_overload_sheds_deadlined_submits() {
        let inner = Arc::new(ServerInner::new(test_config()));
        // Pretend completed jobs took 10s each; with 2 workers, one
        // queued job predicts a 5s wait.
        inner
            .ewma_job_nanos
            .store(10_000_000_000, Ordering::Relaxed);
        let (job, _) = inner
            .submit(JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick), None)
            .expect("no deadline, no shed");
        assert_eq!(job.id, 1);
        let mut tight = JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick);
        tight.deadline_ms = Some(100);
        let err = inner.submit(tight, None).expect_err("predicted wait 5s");
        assert_eq!(err.0, "overloaded");
        assert!(err.1.contains("deadline"), "{}", err.1);
        assert_eq!(inner.counters.shed_deadline.load(Ordering::Relaxed), 1);

        let slo = Arc::new(ServerInner::new(ServerConfig {
            slo_ms: 50,
            ..test_config()
        }));
        slo.ewma_job_nanos.store(10_000_000_000, Ordering::Relaxed);
        slo.submit(JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick), None)
            .expect("empty queue predicts zero wait");
        let err = slo
            .submit(JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick), None)
            .expect_err("one queued job predicts 5s > 50ms SLO");
        assert_eq!(err.0, "overloaded");
        assert!(err.1.contains("SLO"), "{}", err.1);
        assert_eq!(slo.counters.shed_slo.load(Ordering::Relaxed), 1);
    }

    fn tiny_spec() -> JobSpec {
        let mut spec = JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick);
        spec.warmup_ops = Some(100);
        spec.measure_ops = Some(400);
        spec.footprint_divisor = Some(4096);
        spec
    }

    /// The `record` object of every `cell` event in `writes`.
    fn cell_records(writes: &[Vec<u8>]) -> Vec<Json> {
        writes
            .iter()
            .map(|w| flatwalk_obs::json::parse(String::from_utf8_lossy(w).trim()).expect("json"))
            .filter(|v| v.get("event") == Some(&Json::from("cell")))
            .map(|v| v.get("record").expect("cell record").clone())
            .collect()
    }

    /// Puts a stand-in report for each cell of `tiny_spec()` that
    /// `pick` selects into `inner`'s result cache; returns the cell count.
    fn plant(inner: &ServerInner, pick: impl Fn(usize) -> bool) -> usize {
        let grid = tiny_spec().resolve().expect("known grid");
        let total = grid.cells.len();
        for (index, cell) in grid.cells.iter().enumerate().filter(|(i, _)| pick(*i)) {
            let value = CachedCell {
                report_json: format!("{{\"planted\":{index}}}").into(),
                setup_nanos: 0,
                run_nanos: 0,
                retries: 0,
            };
            inner
                .cache
                .insert(cell_key(cell, 0, index, total).into(), value);
        }
        total
    }

    /// Checks that `writes` stream every cell of the job in index order,
    /// one whole line per write, cached (with its planted report) where
    /// `planted` says so.
    fn check_stream(writes: &[Vec<u8>], total: usize, planted: impl Fn(usize) -> bool) {
        assert_eq!(writes.len(), total + 2, "accepted, the cells, done");
        for write in writes {
            assert!(write.ends_with(b"\n") && write.iter().filter(|&&b| b == b'\n').count() == 1);
        }
        let records = cell_records(writes);
        assert_eq!(records.len(), total);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.get("index").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(record.get("cached"), Some(&Json::Bool(planted(i))));
            let report = record.get("report").expect("report");
            assert_eq!(
                report.get("planted").and_then(Json::as_u64),
                planted(i).then_some(i as u64)
            );
        }
    }

    #[test]
    fn a_fully_cached_submit_is_answered_before_submit_returns() {
        // No workers: a job that went to the queue would never run.
        let inner = Arc::new(ServerInner::new(test_config()));
        let total = plant(&inner, |_| true);
        let (job, resumed) = inner.submit(tiny_spec(), None).expect("accepted");
        assert!(!resumed);
        assert_eq!(job.state.load(Ordering::Relaxed), DONE);
        assert_eq!(job.cached_cells(), total);
        assert_eq!(job.executed_cells(), 0);
        assert_eq!(inner.in_flight.load(Ordering::Relaxed), 0);
        assert!(inner.queue.lock().expect("queue").is_empty());
        assert_eq!(inner.counters.jobs_completed.load(Ordering::Relaxed), 1);
        let result = inner.result_line(job.id);
        assert!(result.contains(r#""state":"done""#), "{result}");

        // Streamed, the same answer goes out event by event.
        let mut w = crate::proto::tests::RecordingWriter::default();
        serve_connection(
            Arc::clone(&inner),
            tiny_spec().to_request_line(true).as_bytes(),
            &mut w,
        );
        check_stream(&w.writes, total, |_| true);
        assert_eq!(inner.cells_executed(), 0);
    }

    #[test]
    fn a_partly_cached_job_answers_hits_and_runs_the_rest_in_index_order() {
        let handle = spawn(test_config()).expect("bind loopback");
        let inner = Arc::clone(handle.inner());
        let total = plant(&inner, |i| i % 2 == 0);
        assert!(total >= 3, "the grid needs hits and misses");
        let mut w = crate::proto::tests::RecordingWriter::default();
        serve_connection(
            Arc::clone(&inner),
            tiny_spec().to_request_line(true).as_bytes(),
            &mut w,
        );
        check_stream(&w.writes, total, |i| i % 2 == 0);
        assert_eq!(inner.cells_executed(), (total / 2) as u64);
        assert_eq!(inner.cache_hits(), total.div_ceil(2) as u64);
        handle.begin_drain();
        handle.wait();
    }

    #[test]
    fn finalize_lost_fails_remaining_cells_and_completes() {
        let inner = Arc::new(ServerInner::new(test_config()));
        let (job, _) = inner
            .submit(JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick), None)
            .expect("accepted");
        // Exhaust the budget: first loss requeues, second finalizes.
        inner.requeue_or_fail(&job);
        assert_eq!(job.state.load(Ordering::Relaxed), QUEUED);
        assert_eq!(inner.counters.jobs_requeued.load(Ordering::Relaxed), 1);
        inner.requeue_or_fail(&job);
        assert_eq!(job.state.load(Ordering::Relaxed), DONE);
        assert_eq!(inner.counters.jobs_lost.load(Ordering::Relaxed), 1);
        assert_eq!(job.failed_cells.load(Ordering::Relaxed), job.cell_count());
        let result = inner.result_line(job.id);
        assert!(result.contains("worker lost"), "{result}");
    }
}
