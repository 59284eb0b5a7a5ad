//! flatwalk-serve: a persistent experiment service for the flatwalk
//! simulator.
//!
//! Batch binaries (`sec71_pwc_sweep` & friends) pay full setup and
//! simulation cost on every invocation. This crate keeps a simulator
//! process resident instead: a daemon (`flatwalk-serve`) accepts
//! experiment-grid jobs over a newline-delimited JSON protocol
//! ([`proto`], `flatwalk-serve-v1`), executes them on a worker pool
//! through the same fault-domain runner the batch path uses, and
//! answers repeats from a process-lifetime result cache ([`rcache`]) —
//! a re-submitted grid costs zero simulation and returns
//! byte-identical reports.
//!
//! The service is crash-safe and self-healing: results persist in a
//! disk-backed content-addressed store ([`store`]) that survives
//! `kill -9` and re-serves byte-identical replies after a restart; a
//! supervisor respawns panicked workers and re-queues their in-flight
//! jobs under a retry budget; and admission control sheds jobs (fast
//! `overloaded` reply) whose predicted queue wait exceeds the client's
//! deadline or the configured SLO.
//!
//! Modules:
//!
//! - [`proto`] — wire protocol: request parsing, [`proto::JobSpec`],
//!   error replies, and the one-write line framing both ends use.
//! - [`rcache`] — content-keyed, exact LRU result cache above the
//!   setup cache, behind one `Mutex` locked once per served cell.
//! - [`store`] — disk-backed content-addressed result store beneath
//!   the memory cache (tmp + fsync + rename writes, recovery scan,
//!   checksum verification with quarantine), with a `Mutex`-guarded
//!   address index.
//! - [`server`] — listeners, bounded job queue with backpressure,
//!   workers, worker supervision, in-flight coalescing, admission
//!   control, bounded retention of finished jobs, drain/shutdown.
//! - [`client`] — blocking client used by the `flatwalk-client`
//!   binary and the end-to-end tests, with jittered-backoff reconnect
//!   helpers.
//!
//! Environment knobs: `FLATWALK_QUEUE_DEPTH` (queued-job bound,
//! default 32), `FLATWALK_RESULT_CACHE_MB` (result-cache budget,
//! default 64), `FLATWALK_STORE_DIR` (persistent store root; unset =
//! memory only), `FLATWALK_SLO_MS` (admission-control SLO; 0 = off),
//! `FLATWALK_JOB_RETRIES` (requeue budget after a worker loss, default
//! 1), `FLATWALK_JOB_STALL_SECS` (stall watchdog, default 600, 0 =
//! off), `FLATWALK_CHAOS` (enable chaos test hooks), plus the
//! simulator-wide `FLATWALK_THREADS`, `FLATWALK_CELL_DEADLINE_SECS`,
//! `FLATWALK_TRACE`, and `FLATWALK_FAULTS`.
//!
//! The library holds no `unsafe` code: its shared maps and queues are
//! `std::sync::Mutex`es, each taken a bounded number of times per
//! request, served cell or job, never per simulated operation.

#![forbid(unsafe_code)]

pub mod client;
pub mod proto;
pub mod rcache;
pub mod server;
pub mod store;
