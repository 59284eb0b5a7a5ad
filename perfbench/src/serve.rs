//! `serve_mixed`: an in-process `flatwalk-serve` server over loopback
//! TCP, driven by a closed loop of two clients.
//!
//! The server's persistent store is pre-filled with the warm grids by a
//! throwaway server, so the measured server starts with an empty memory
//! cache and reads its first warm results from disk. One client keeps
//! its connection, as scripts and tests do; the other reconnects for
//! every request, as `flatwalk-client` does. About nine requests in ten
//! resubmit a warm grid (reads); the rest submit a grid with seed-drawn
//! `warmup_ops`/`measure_ops` overrides that no earlier request used,
//! so every cell executes and is written to the store (writes).

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use flatwalk_bench::Mode;
use flatwalk_obs::{json, Json};
use flatwalk_serve::client::Connection;
use flatwalk_serve::proto::JobSpec;
use flatwalk_serve::server::{self, ServerConfig, ServerHandle};
use flatwalk_sim::runner::{self, CellOutcome};
use flatwalk_sim::SimReport;
use flatwalk_types::rng::SplitMix64;

use crate::digest;
use crate::grid::{CellKind, CellResult};
use crate::report::{self, Metrics, Outcome};
use crate::{layers, stats};

/// Grids the warm requests resubmit.
pub const WARM_GRIDS: [&str; 3] = ["sec71_pwc", "fig01", "numa_rivals"];

/// The grid cold submits run: nine cells on one shared address space, so
/// a cold request's cost varies only with its op overrides, not with a
/// draw between grids of different size.
pub const COLD_GRID: &str = "sec71_pwc";

/// `(warmup_ops, measure_ops)` of the warm grids: small, so the
/// pre-fill takes about a second. Cold overrides never take this pair.
pub const WARM_OPS: (u64, u64) = (2_000, 8_000);

/// Share of requests that are cold submits.
const COLD_SHARE: f64 = 0.1;

/// Server start-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Cold jobs re-run in-process after the timed phase to check that the
/// served bytes equal `SimReport::to_json()`.
const COLD_VERIFY: usize = 4;

/// A job's spec with its op overrides.
pub fn spec_with_ops(grid: &str, ops: (u64, u64)) -> JobSpec {
    let mut spec = JobSpec::new(grid, Mode::Quick);
    spec.warmup_ops = Some(ops.0);
    spec.measure_ops = Some(ops.1);
    spec
}

/// Runs `spec`'s cells in-process: the reference for served bytes.
pub fn run_in_process(spec: &JobSpec, threads: usize) -> Result<Vec<CellResult>, String> {
    let grid = spec.resolve()?;
    let outcomes = runner::run_cells_timed("perfbench", grid.cells.clone(), threads);
    Ok(grid
        .labels
        .into_iter()
        .zip(&grid.cells)
        .zip(outcomes)
        .map(|((label, cell), outcome)| {
            let kind = if cell.rival.is_some() {
                CellKind::Rival
            } else {
                CellKind::Native
            };
            let label = format!("{}/{label}", spec.grid);
            match outcome {
                CellOutcome::Ok {
                    report,
                    setup_nanos,
                    run_nanos,
                    retries,
                } => CellResult {
                    label,
                    digest: Some(digest::report_digest(&report)),
                    error: None,
                    nanos: setup_nanos + run_nanos,
                    ops: cell.sim_ops(),
                    reports: vec![report],
                    attempts: 1 + u64::from(retries),
                    failed_attempts: u64::from(retries),
                    kind,
                },
                CellOutcome::Failed { error, retries } => CellResult {
                    label,
                    digest: None,
                    error: Some(error),
                    nanos: 0,
                    ops: 0,
                    reports: Vec::new(),
                    attempts: 1 + u64::from(retries),
                    failed_attempts: 1 + u64::from(retries),
                    kind,
                },
            }
        })
        .collect())
}

fn report_bytes(r: &SimReport) -> String {
    r.to_json().to_string()
}

/// One cell event of a reply.
#[derive(Debug, Clone)]
struct ServedCell {
    index: usize,
    cached: bool,
    ok: bool,
    /// The report bytes exactly as the server sent them.
    report: String,
}

/// One answered submit.
#[derive(Debug, Clone)]
struct Reply {
    cells: Vec<ServedCell>,
    failed: u64,
    bytes: usize,
    first_event: Duration,
    latency: Duration,
}

fn str_field<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

/// Submits `spec` with streaming and reads up to the `done` event.
fn submit(conn: &mut Connection, spec: &JobSpec, start: Instant) -> Result<Reply, String> {
    let io = |e: std::io::Error| e.to_string();
    conn.send(&spec.to_request_line(true)).map_err(io)?;
    let eof = || "connection closed mid-reply".to_string();
    let accepted = conn.recv_line().map_err(io)?.ok_or_else(eof)?;
    let first_event = start.elapsed();
    let mut bytes = accepted.len() + 1;
    let v = json::parse(&accepted).map_err(|e| e.to_string())?;
    if str_field(&v, "event") != Some("accepted") {
        return Err(format!("not accepted: {accepted}"));
    }
    let mut cells = Vec::new();
    loop {
        let line = conn.recv_line().map_err(io)?.ok_or_else(eof)?;
        bytes += line.len() + 1;
        let v = json::parse(&line).map_err(|e| e.to_string())?;
        match str_field(&v, "event") {
            Some("cell") => {
                let record = v.get("record").ok_or("cell event without record")?;
                let report = line
                    .split_once(",\"report\":")
                    .and_then(|(_, rest)| rest.strip_suffix("}}"))
                    .unwrap_or_default()
                    .to_string();
                cells.push(ServedCell {
                    index: record
                        .get("index")
                        .and_then(Json::as_u64)
                        .unwrap_or(u64::MAX) as usize,
                    cached: matches!(record.get("cached"), Some(Json::Bool(true))),
                    ok: str_field(record, "status") == Some("ok"),
                    report,
                });
            }
            Some("done") => {
                return Ok(Reply {
                    cells,
                    failed: v.get("failed").and_then(Json::as_u64).unwrap_or(u64::MAX),
                    bytes,
                    first_event,
                    latency: start.elapsed(),
                })
            }
            _ => return Err(format!("unexpected event: {line}")),
        }
    }
}

/// One timed request.
#[derive(Debug, Clone)]
struct Sample {
    warm: bool,
    /// Request written → `done` read.
    latency_ms: f64,
    /// Request written → `accepted` read.
    first_event_ms: f64,
    /// New connection opened → `accepted` read (reconnecting client).
    connect_ms: Option<f64>,
    reply_bytes: usize,
    sim_ops: u64,
    /// Whether the server answered up to `done`.
    answered: bool,
    /// Whether it answered and the reply passed every check.
    ok: bool,
}

/// Shared state of the load phase.
struct Load<'a> {
    addr: String,
    deadline: Instant,
    /// Reference report bytes of the warm grids, by grid then index.
    warm_refs: &'a BTreeMap<String, Vec<String>>,
    /// Every op-override pair used so far, so each cold submit is new.
    used_ops: Mutex<HashSet<(u64, u64)>>,
    /// Cold submits kept for in-process verification.
    cold_kept: Mutex<Vec<(JobSpec, Reply)>>,
}

impl Load<'_> {
    fn draw_request(&self, rng: &mut SplitMix64) -> (bool, JobSpec) {
        if !rng.chance(COLD_SHARE) {
            let grid = WARM_GRIDS[rng.next_range(WARM_GRIDS.len() as u64) as usize];
            return (true, spec_with_ops(grid, WARM_OPS));
        }
        let mut used = self.used_ops.lock().expect("override set poisoned");
        loop {
            let ops = (1_000 + rng.next_range(1_000), 6_000 + rng.next_range(4_000));
            if used.insert(ops) {
                return (false, spec_with_ops(COLD_GRID, ops));
            }
        }
    }

    /// Checks one reply; returns whether it is correct.
    fn check(&self, warm: bool, spec: &JobSpec, reply: &Reply, expected_cells: usize) -> bool {
        let mut ok = reply.failed == 0 && reply.cells.len() == expected_cells;
        for (i, cell) in reply.cells.iter().enumerate() {
            ok &= cell.ok && cell.index == i && cell.cached == warm;
            if warm {
                ok &= self.warm_refs[&spec.grid].get(i) == Some(&cell.report);
            }
        }
        if !ok {
            eprintln!(
                "perfbench: bad reply to {} ({}): {} cells, failed={}",
                spec.to_request_line(true),
                if warm { "warm" } else { "cold" },
                reply.cells.len(),
                reply.failed
            );
        }
        ok
    }

    /// One client's closed loop until the deadline.
    fn client(
        &self,
        id: u64,
        seed: u64,
        reconnect: bool,
        cells_of: &BTreeMap<String, usize>,
    ) -> Vec<Sample> {
        let mut rng = SplitMix64::new(seed ^ (0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(id + 1)));
        let mut conn: Option<Connection> = None;
        let mut samples = Vec::new();
        while Instant::now() < self.deadline {
            let (warm, spec) = self.draw_request(&mut rng);
            let start = Instant::now();
            if reconnect || conn.is_none() {
                conn = Connection::connect_tcp(&self.addr).ok();
            }
            let connect = reconnect.then_some(start);
            let reply = match conn.as_mut() {
                Some(c) => submit(c, &spec, Instant::now()),
                None => Err("connect failed".to_string()),
            };
            let sim_ops = (spec.warmup_ops.unwrap_or(0) + spec.measure_ops.unwrap_or(0))
                * cells_of[&spec.grid] as u64;
            match reply {
                Ok(reply) => {
                    let ok = self.check(warm, &spec, &reply, cells_of[&spec.grid]);
                    samples.push(Sample {
                        warm,
                        latency_ms: reply.latency.as_secs_f64() * 1e3,
                        first_event_ms: reply.first_event.as_secs_f64() * 1e3,
                        connect_ms: connect.map(|t| {
                            (t.elapsed() - (reply.latency - reply.first_event)).as_secs_f64() * 1e3
                        }),
                        reply_bytes: reply.bytes,
                        sim_ops,
                        answered: true,
                        ok,
                    });
                    if !warm {
                        let mut kept = self.cold_kept.lock().expect("cold list poisoned");
                        if kept.len() < COLD_VERIFY {
                            kept.push((spec, reply));
                        }
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: request failed: {e}");
                    conn = None;
                    samples.push(Sample {
                        warm,
                        latency_ms: 0.0,
                        first_event_ms: 0.0,
                        connect_ms: None,
                        reply_bytes: 0,
                        sim_ops: 0,
                        answered: false,
                        ok: false,
                    });
                }
            }
        }
        samples
    }
}

fn server_config(store: &Path, workers: usize) -> ServerConfig {
    ServerConfig {
        tcp: true,
        port: 0,
        uds: None,
        workers,
        job_threads: 0,
        queue_depth: 32,
        cache_bytes: 64 << 20,
        store_dir: Some(store.to_path_buf()),
        slo_ms: 0,
        job_retries: 1,
        stall_secs: 0,
        chaos: false,
    }
}

fn stop(handle: ServerHandle) {
    handle.begin_drain();
    handle.wait();
}

fn ping(handle: &ServerHandle) -> Result<Connection, String> {
    let addr = handle
        .addr()
        .ok_or("server has no TCP address")?
        .to_string();
    let mut conn = Connection::connect_tcp(&addr).map_err(|e| e.to_string())?;
    let pong = conn
        .request(r#"{"op":"ping"}"#)
        .map_err(|e| e.to_string())?;
    if !pong.contains("\"ok\":true") {
        return Err(format!("bad ping reply: {pong}"));
    }
    Ok(conn)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `.perfbench-work/<name>-<pid>` under the working directory.
    pub fn new(name: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench-work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only if no other run is using it.
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// Runs `serve_mixed` for `duration` and returns its outcome: the
/// end-to-end metrics, or with `trace` the per-layer metrics.
///
/// # Errors
///
/// Set-up failures (store directory, listener bind, pre-fill).
pub fn run(seed: u64, duration: Duration, threads: usize, trace: bool) -> Result<Outcome, String> {
    let work = WorkDir::new("serve")?;
    let store = work.0.join("store");

    // In-process references for the warm grids, then the pre-fill.
    let mut warm_refs: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut cells_of: BTreeMap<String, usize> = BTreeMap::new();
    let pinned = report::expected_digests("serve_mixed");
    let mut mismatches = 0;
    for grid in WARM_GRIDS {
        let spec = spec_with_ops(grid, WARM_OPS);
        let mut refs = Vec::new();
        for c in run_in_process(&spec, threads)? {
            let Some(d) = c.digest else {
                return Err(format!("reference cell {} failed: {:?}", c.label, c.error));
            };
            if pinned.get(&c.label) != Some(&d) {
                eprintln!(
                    "perfbench: digest mismatch; observed: serve_mixed {d:016x} {}",
                    c.label
                );
                mismatches += 1;
            }
            refs.push(report_bytes(&c.reports[0]));
        }
        cells_of.insert(grid.to_string(), refs.len());
        warm_refs.insert(grid.to_string(), refs);
    }
    {
        let prefill = server::spawn(server_config(&store, threads)).map_err(|e| e.to_string())?;
        let mut conn = ping(&prefill)?;
        for grid in WARM_GRIDS {
            let spec = spec_with_ops(grid, WARM_OPS);
            let reply = submit(&mut conn, &spec, Instant::now())?;
            let refs = &warm_refs[grid];
            // Cells equal to an earlier grid's cells come from the cache.
            let same = reply.cells.len() == refs.len()
                && reply
                    .cells
                    .iter()
                    .all(|c| c.ok && refs.get(c.index) == Some(&c.report));
            if !same || reply.failed != 0 {
                eprintln!(
                    "perfbench: pre-fill reply for {grid} differs from the in-process reference"
                );
                mismatches += 1;
            }
        }
        drop(conn);
        stop(prefill);
    }

    // Set-up: start the server on the pre-filled store several times;
    // the last one serves the load. `server::spawn` binds, opens the
    // store (the recovery scan) and starts the service threads. The
    // first ping's wait for the accept loop's 25 ms poll is left out:
    // whether the connect lands before or after the first poll is a
    // race, which would make the figure bimodal.
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let handle = server::spawn(server_config(&store, threads)).map_err(|e| e.to_string())?;
        setups.push(start.elapsed().as_secs_f64());
        drop(ping(&handle)?);
        if i + 1 < SETUPS {
            stop(handle);
        } else {
            live = Some(handle);
        }
    }
    let handle = live.expect("at least one start-up");
    let addr = handle
        .addr()
        .ok_or("server has no TCP address")?
        .to_string();

    // `cells_of` covers the cold grid too: it is one of the warm grids.
    let used = Mutex::new(HashSet::from([WARM_OPS]));
    let phase = |length: Duration, used: Mutex<HashSet<(u64, u64)>>| {
        let load = Load {
            addr: addr.clone(),
            deadline: Instant::now() + length,
            warm_refs: &warm_refs,
            used_ops: used,
            cold_kept: Mutex::new(Vec::new()),
        };
        let start = Instant::now();
        let samples: Vec<Sample> = std::thread::scope(|s| {
            let kept = s.spawn(|| load.client(0, seed, false, &cells_of));
            let fresh = s.spawn(|| load.client(1, seed, true, &cells_of));
            let mut all = kept.join().expect("client thread panicked");
            all.extend(fresh.join().expect("client thread panicked"));
            all
        });
        let wall = start.elapsed();
        (
            samples,
            wall,
            load.used_ops.into_inner().expect("override set poisoned"),
            load.cold_kept.into_inner().expect("cold list poisoned"),
        )
    };

    let (samples, wall, kept, overhead) = if trace {
        // First half untraced, second half with the program's spans on:
        // the wall time per request of each gives the tracing overhead.
        let (s1, w1, used, _) = phase(duration / 2, used);
        let (s2, w2, _, kept) =
            layers::with_program_spans(|| phase(duration / 2, Mutex::new(used)));
        let per_request = |w: Duration, n: usize| w.as_secs_f64() / n.max(1) as f64;
        let overhead = per_request(w2, s2.len()) / per_request(w1, s1.len()) - 1.0;
        let mut all = s1;
        all.extend(s2);
        (all, w1 + w2, kept, Some(overhead))
    } else {
        let (s, w, _, kept) = phase(duration, used);
        (s, w, kept, None)
    };
    let server_metrics = if trace {
        let mut conn = Connection::connect_tcp(&addr).map_err(|e| e.to_string())?;
        let line = conn
            .request(r#"{"op":"metrics"}"#)
            .map_err(|e| e.to_string())?;
        Some(json::parse(&line).map_err(|e| e.to_string())?)
    } else {
        None
    };
    stop(handle);

    // Served cold bytes must equal the same cells run in-process.
    let mut cold_cells = Vec::new();
    let setup_before = flatwalk_sim::setup::setup_stats();
    let verify_start = Instant::now();
    for (spec, reply) in &kept {
        let cells = run_in_process(spec, threads)?;
        let same = cells.len() == reply.cells.len()
            && cells.iter().zip(&reply.cells).all(|(c, served)| {
                c.reports.first().map(report_bytes).as_ref() == Some(&served.report)
            });
        if !same {
            eprintln!(
                "perfbench: served bytes of {} differ from the in-process run",
                spec.to_request_line(true)
            );
            mismatches += 1;
        }
        cold_cells.extend(cells);
    }
    let verify_wall = verify_start.elapsed();
    let verify_setup = flatwalk_sim::setup::setup_stats().since(&setup_before);

    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let bad_replies = samples.iter().filter(|s| s.answered && !s.ok).count();
    let mut outcome = Outcome {
        correct: mismatches == 0 && bad_replies == 0,
        attempted: samples.len() as u64,
        failed: (samples.len() - ok.len()) as u64 + mismatches,
        metrics: Metrics::default(),
    };
    let lat = |warm: bool| -> Vec<f64> {
        ok.iter()
            .filter(|s| s.warm == warm)
            .map(|s| s.latency_ms)
            .collect()
    };
    let (warm, cold) = (lat(true), lat(false));
    println!(
        "perfbench: {} requests in {:.3} s: {} warm (highest reportable percentile p{}), {} cold; server start-ups {:?} s",
        samples.len(),
        wall.as_secs_f64(),
        warm.len(),
        stats::highest_percentile(warm.len()).unwrap_or(0.0),
        cold.len(),
        setups
    );
    let mut m = Metrics::default();
    if let (Some(overhead), Some(server_metrics)) = (overhead, server_metrics) {
        let warm_replies: Vec<f64> = ok
            .iter()
            .filter(|s| s.warm)
            .map(|s| s.reply_bytes as f64)
            .collect();
        let first: Vec<f64> = ok.iter().map(|s| s.first_event_ms).collect();
        let connect: Vec<f64> = ok.iter().filter_map(|s| s.connect_ms).collect();
        // The engine-side layers run for the cold submits only; their
        // counts and costs come from re-running those cells in-process.
        layers::report_counts(&mut m, &cold_cells);
        m.put("setup.builds", verify_setup.misses as f64, "count");
        m.put("setup.hits", verify_setup.hits as f64, "count");
        let busy: u64 = cold_cells.iter().map(|c| c.nanos).sum();
        let capacity = verify_wall.as_nanos() as f64 * threads as f64;
        m.put("runner.busy_frac", busy as f64 / capacity, "ratio");
        m.put("obs.program_span_ms", layers::program_span_ms(), "ms");
        let cells: Vec<flatwalk_sim::runner::Cell> = kept
            .iter()
            .filter_map(|(spec, _)| spec.resolve().ok())
            .flat_map(|g| g.cells)
            .collect();
        layers::Samples::from_cells(&cells.iter().collect::<Vec<_>>()).replay(&mut m);
        serve_layers(&mut m, &server_metrics, &store, &work.0, &warm_refs)?;
        m.put(
            "serve.first_event_ms",
            stats::median(&first).unwrap_or(0.0),
            "ms",
        );
        m.put(
            "serve.connect_ms",
            stats::median(&connect).unwrap_or(0.0),
            "ms",
        );
        m.put(
            "serve.reply_kib",
            stats::median(&warm_replies).unwrap_or(0.0) / 1024.0,
            "KiB",
        );
        m.put("obs.trace_overhead_frac", overhead, "ratio");
        outcome.metrics = layers::complete(m, "serve_mixed");
        return Ok(outcome);
    }
    let secs = wall.as_secs_f64();
    m.put(
        "sim_mops",
        ok.iter().map(|s| s.sim_ops).sum::<u64>() as f64 / secs / 1e6,
        "Mops/s",
    );
    m.put("setup_s", stats::median(&setups).unwrap_or(0.0), "s");
    m.put(
        "warm_p50_ms",
        stats::percentile(&warm, 50.0).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "warm_p90_ms",
        stats::percentile(&warm, 90.0).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "cold_p50_ms",
        stats::percentile(&cold, 50.0).unwrap_or(0.0),
        "ms",
    );
    m.put("req_per_s", ok.len() as f64 / secs, "req/s");
    m.put("peak_rss_mib", report::peak_rss_mib().unwrap_or(0.0), "MiB");
    outcome.metrics = report::end_to_end(m);
    Ok(outcome)
}

/// Reads a number at `path` (object keys) in a parsed reply.
fn number_at(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    match cur {
        Json::UInt(n) => *n as f64,
        Json::Int(n) => *n as f64,
        Json::Float(f) => *f,
        _ => 0.0,
    }
}

/// The serve layer's metrics: the server's own counters and latency
/// percentiles from its `metrics` reply, then its store and keying
/// calls timed from outside on the warm grids' cells.
fn serve_layers(
    m: &mut Metrics,
    reply: &Json,
    store_dir: &Path,
    work: &Path,
    warm_refs: &BTreeMap<String, Vec<String>>,
) -> Result<(), String> {
    use flatwalk_serve::rcache::{cell_key, CachedCell};
    use flatwalk_serve::store::ResultStore;

    m.put(
        "serve.server_submit_p50_ms",
        number_at(reply, &["latency", "submit", "p50"]) / 1e6,
        "ms",
    );
    m.put(
        "serve.queue_wait_p50_ms",
        number_at(reply, &["latency", "queue_wait", "p50"]) / 1e6,
        "ms",
    );
    let hits = number_at(reply, &["server", "cache_hits"]);
    let misses = number_at(reply, &["server", "cache_misses"]);
    m.put(
        "serve.rcache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.put(
        "serve.store.hits",
        number_at(reply, &["server", "store", "hits"]),
        "count",
    );
    m.put(
        "serve.store.writes",
        number_at(reply, &["server", "store", "writes"]),
        "count",
    );

    let mut opens = Vec::new();
    let mut opened = None;
    for _ in 0..5 {
        let start = Instant::now();
        let store = ResultStore::open(store_dir).map_err(|e| e.to_string())?;
        opens.push(start.elapsed().as_secs_f64() * 1e3);
        opened = Some(store);
    }
    let store = opened.expect("opened at least once");
    m.put(
        "serve.store.open_ms",
        stats::median(&opens).unwrap_or(0.0),
        "ms",
    );

    let fresh = ResultStore::open(&work.join("put")).map_err(|e| e.to_string())?;
    let (mut key_ns, mut get_ns, mut put_ns, mut n, mut found) = (0u128, 0u128, 0u128, 0u32, 0u32);
    for (grid, refs) in warm_refs {
        let cells = spec_with_ops(grid, WARM_OPS).resolve()?.cells;
        let total = cells.len();
        for (i, cell) in cells.iter().enumerate() {
            let start = Instant::now();
            let key = cell_key(cell, 0, i, total);
            key_ns += start.elapsed().as_nanos();
            let start = Instant::now();
            found += u32::from(store.get(&key).is_some());
            get_ns += start.elapsed().as_nanos();
            let value = CachedCell {
                report_json: refs[i].as_str().into(),
                setup_nanos: 0,
                run_nanos: 0,
                retries: 0,
            };
            let start = Instant::now();
            fresh.put(&key, &value);
            put_ns += start.elapsed().as_nanos();
            n += 1;
        }
    }
    if found < n {
        eprintln!("perfbench: {found} of {n} warm cells found in the store by cell_key");
    }
    let per = |ns: u128, scale: f64| ns as f64 / f64::from(n.max(1)) / scale;
    m.put("serve.cell_key_us", per(key_ns, 1e3), "us");
    m.put("serve.store.get_us", per(get_ns, 1e3), "us");
    m.put("serve.store.put_ms", per(put_ns, 1e6), "ms");
    Ok(())
}
