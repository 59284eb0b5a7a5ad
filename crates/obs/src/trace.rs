//! Event tracing: per-walk, phase-transition, and replacement-victim
//! records behind a [`Tracer`] trait.
//!
//! The disabled path must cost nothing measurable: every emit site
//! guards on one relaxed atomic load ([`walks_enabled`] /
//! [`phase_enabled`] / [`repl_enabled`]) before it builds a record, so
//! with tracing off the hot loops pay a single predictable branch (see
//! the `obs` group in the `hot_paths` bench).
//!
//! Enable the JSONL sink with
//! `FLATWALK_TRACE=<channels>:<path>` where `<channels>` is a
//! comma-separated subset of `walks`, `phase`, `repl`, `faults`,
//! `serve`, `spans`, `numa` — e.g. `FLATWALK_TRACE=walks,phase:/tmp/trace.jsonl`. Each record is one
//! JSON object per line; see [`JsonlTracer`] for the schema. Tests
//! install collecting tracers programmatically via [`install`].
//!
//! The "cell" field of every record is a thread-local context string
//! (workload/config/scenario) set by the simulation at the start of its
//! run — each experiment cell runs wholly on one worker thread, so the
//! context is unambiguous.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::json::Json;

/// Which event channels a tracer subscribes to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Channels {
    /// Per-walk records (one per completed page walk).
    pub walks: bool,
    /// PTP phase-detector transitions.
    pub phase: bool,
    /// Cache replacement-victim choices.
    pub repl: bool,
    /// Injected-fault events (mid-run shootdowns and friends).
    pub faults: bool,
    /// `flatwalk-serve` request lifecycle events (submit, cell done,
    /// cache hit, reject, drain).
    pub serve: bool,
    /// Hierarchical profiling spans ([`crate::span`]): one record per
    /// closed span.
    pub spans: bool,
    /// Per-node NUMA placement summaries (one record per node per
    /// multi-node cell).
    pub numa: bool,
}

impl Channels {
    /// All channels on.
    pub fn all() -> Channels {
        Channels {
            walks: true,
            phase: true,
            repl: true,
            faults: true,
            serve: true,
            spans: true,
            numa: true,
        }
    }

    /// Parses a comma-separated channel list (`"walks,phase"`).
    /// Unknown names yield `None`.
    pub fn parse(list: &str) -> Option<Channels> {
        let mut ch = Channels::default();
        for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match name {
                "walks" => ch.walks = true,
                "phase" => ch.phase = true,
                "repl" => ch.repl = true,
                "faults" => ch.faults = true,
                "serve" => ch.serve = true,
                "spans" => ch.spans = true,
                "numa" => ch.numa = true,
                _ => return None,
            }
        }
        Some(ch)
    }

    fn bits(self) -> u8 {
        (self.walks as u8)
            | (self.phase as u8) << 1
            | (self.repl as u8) << 2
            | (self.faults as u8) << 3
            | (self.serve as u8) << 4
            | (self.spans as u8) << 5
            | (self.numa as u8) << 6
    }
}

/// Where one page-walk step was served, as a trace label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStepRecord {
    /// How many 9-bit index fields the node merged (1 = conventional,
    /// 2–3 = flattened).
    pub depth: u8,
    /// Hierarchy level that served the entry read (`"L1"`, `"L2"`,
    /// `"L3"`, `"DRAM"`).
    pub level: &'static str,
}

/// One completed page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkRecord<'a> {
    /// The translated virtual address.
    pub va: u64,
    /// Memory accesses the walk performed (after PSC skipping).
    pub accesses: u64,
    /// Total walk latency in cycles (PSC lookup + entry reads).
    pub latency: u64,
    /// Steps skipped via a paging-structure-cache hit.
    pub psc_skipped: u8,
    /// Whether any executed step read a flattened (depth > 1) node.
    /// `false` with multiple depth-1 steps under a flattened layout
    /// means the walk went through fallback (unflattened) nodes.
    pub flattened: bool,
    /// The executed steps in walk order.
    pub steps: &'a [WalkStepRecord],
}

/// One PTP phase-detector transition (evaluated per window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRecord {
    /// The new phase (true = high-TLB-miss, prioritization active).
    pub active: bool,
    /// Total transitions so far on this detector, this one included.
    pub flips: u64,
    /// The detector's window length (translations per evaluation).
    pub window: u64,
    /// The miss rate of the window that triggered the transition.
    pub miss_rate: f64,
}

/// One replacement-victim choice (emitted on every eviction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplRecord<'a> {
    /// Cache name (`"L2"`, `"L3"`, …).
    pub cache: &'a str,
    /// The evicted line address (address / 64).
    pub victim_line: u64,
    /// What the victim held: `"data"` or `"pt"`.
    pub victim_kind: &'static str,
    /// Whether the PTP priority bias steered this choice.
    pub biased: bool,
}

/// One injected mid-run fault (address-space mutation + shootdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Fault kind (`"unmap"`, `"remap"`, `"thp_splinter"`, `"demote"`).
    pub kind: &'static str,
    /// Stream position (op index) at which the fault fired.
    pub op: u64,
    /// Translation-structure entries flushed by the shootdown.
    pub flushed: u64,
    /// Modeled shootdown cost in cycles.
    pub cost: u64,
}

/// One `flatwalk-serve` request-lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeRecord<'a> {
    /// What happened (`"submit"`, `"cell"`, `"cache_hit"`,
    /// `"coalesced"`, `"reject"`, `"drain"`, `"shutdown"`, …).
    pub op: &'a str,
    /// Server-assigned job id (0 when the event precedes assignment).
    pub job: u64,
    /// Free-form detail (grid name, a cell's key content address,
    /// reject reason, …).
    pub detail: &'a str,
}

/// One closed profiling span (see [`crate::span`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord<'a> {
    /// The span's own name (the last `path` segment).
    pub name: &'a str,
    /// `;`-joined ancestry from the thread's outermost open span down
    /// to this one (folded-stack convention).
    pub path: &'a str,
    /// Nesting depth (`path.split(';').count()`; 1 = top level).
    pub depth: u64,
    /// Wall-clock duration in nanoseconds.
    pub nanos: u64,
}

/// One per-node NUMA placement summary (emitted once per node at the
/// end of a multi-node cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumaRecord {
    /// Home node these tallies belong to.
    pub node: u32,
    /// DRAM accesses served locally at this node.
    pub local: u64,
    /// DRAM accesses homed here but issued from another node.
    pub remote: u64,
    /// Interconnect hops those remote accesses paid in total.
    pub hops: u64,
}

/// A trace event consumer. All methods default to no-ops so sinks
/// subscribe to only the channels they care about.
pub trait Tracer: Send + Sync {
    /// One completed page walk.
    fn walk(&self, _cell: &str, _record: &WalkRecord<'_>) {}
    /// One phase-detector transition.
    fn phase(&self, _cell: &str, _record: &PhaseRecord) {}
    /// One replacement-victim choice.
    fn repl(&self, _cell: &str, _record: &ReplRecord<'_>) {}
    /// One injected fault event.
    fn fault(&self, _cell: &str, _record: &FaultRecord) {}
    /// One server request-lifecycle event.
    fn serve(&self, _cell: &str, _record: &ServeRecord<'_>) {}
    /// One closed profiling span.
    fn span(&self, _cell: &str, _record: &SpanRecord<'_>) {}
    /// One per-node NUMA placement summary.
    fn numa(&self, _cell: &str, _record: &NumaRecord) {}
    /// Flushes any buffered records; called by [`uninstall`] before the
    /// sink is dropped.
    fn flush(&self) {}
}

/// Enabled-channel bitmask; 0 when tracing is off. The only tracing
/// state hot paths ever touch.
static CHANNELS: AtomicU8 = AtomicU8::new(0);

/// Serializes unit tests (here and in [`crate::span`]) that touch the
/// process-global tracer, so the harness's parallel test threads cannot
/// observe each other's installs.
#[cfg(test)]
pub(crate) fn test_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn sink() -> &'static RwLock<Option<Arc<dyn Tracer>>> {
    static SINK: OnceLock<RwLock<Option<Arc<dyn Tracer>>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(None))
}

thread_local! {
    static CONTEXT: RefCell<String> = const { RefCell::new(String::new()) };
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard returned by [`suppress`]; trace emission on this thread
/// resumes when it drops.
#[derive(Debug)]
pub struct SuppressGuard(());

/// Silences all trace emission on the current thread until the returned
/// guard drops. Debug-build cross-checks replay work on cloned state to
/// compare against the live run; without this the replayed walks would
/// be traced a second time and per-walk record counts would no longer
/// match the walker's own statistics. Guards nest.
pub fn suppress() -> SuppressGuard {
    SUPPRESS.with(|s| s.set(s.get() + 1));
    SuppressGuard(())
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESS.with(|s| s.set(s.get().saturating_sub(1)));
    }
}

/// Whether per-walk records are being traced (one relaxed load).
#[inline]
pub fn walks_enabled() -> bool {
    CHANNELS.load(Ordering::Relaxed) & 1 != 0
}

/// Whether phase transitions are being traced (one relaxed load).
#[inline]
pub fn phase_enabled() -> bool {
    CHANNELS.load(Ordering::Relaxed) & 2 != 0
}

/// Whether replacement victims are being traced (one relaxed load).
#[inline]
pub fn repl_enabled() -> bool {
    CHANNELS.load(Ordering::Relaxed) & 4 != 0
}

/// Whether injected-fault events are being traced (one relaxed load).
#[inline]
pub fn faults_enabled() -> bool {
    CHANNELS.load(Ordering::Relaxed) & 8 != 0
}

/// Whether server lifecycle events are being traced (one relaxed load).
#[inline]
pub fn serve_enabled() -> bool {
    CHANNELS.load(Ordering::Relaxed) & 16 != 0
}

/// Whether profiling spans are being traced (one relaxed load).
#[inline]
pub fn spans_enabled() -> bool {
    CHANNELS.load(Ordering::Relaxed) & 32 != 0
}

/// Whether per-node NUMA summaries are being traced (one relaxed load).
#[inline]
pub fn numa_enabled() -> bool {
    CHANNELS.load(Ordering::Relaxed) & 64 != 0
}

/// Whether any channel is being traced.
#[inline]
pub fn any_enabled() -> bool {
    CHANNELS.load(Ordering::Relaxed) != 0
}

/// Sets this thread's cell-context string, attached to every record the
/// thread emits. Cheap no-op style guard: callers should skip it when
/// [`any_enabled`] is false.
pub fn set_context(cell: &str) {
    CONTEXT.with(|c| {
        let mut c = c.borrow_mut();
        c.clear();
        c.push_str(cell);
    });
}

/// Installs `tracer` on the given channels (replacing any previous
/// tracer). Emit guards observe the channel mask only after the sink is
/// in place.
pub fn install(tracer: Arc<dyn Tracer>, channels: Channels) {
    let mut guard = sink().write().unwrap_or_else(|e| e.into_inner());
    *guard = Some(tracer);
    CHANNELS.store(channels.bits(), Ordering::Release);
}

/// Records silently lost since process start: emits that raced an
/// [`uninstall`] (the channel mask said "on" but the sink was already
/// gone — late records during a serve drain land here) plus sink write
/// failures. Surfaced as the `trace.records_dropped` metric when the
/// tracer is uninstalled.
static DROPPED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Trace records lost so far (drain races and sink write errors).
pub fn records_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Removes the tracer and disables every channel. The outgoing tracer
/// is flushed first, and any records dropped on its watch are pushed
/// into the metrics registry as `trace.records_dropped`.
pub fn uninstall() {
    CHANNELS.store(0, Ordering::Release);
    let tracer = {
        let mut guard = sink().write().unwrap_or_else(|e| e.into_inner());
        guard.take()
    };
    if let Some(t) = tracer {
        t.flush();
    }
    let dropped = DROPPED.swap(0, Ordering::Relaxed);
    if dropped > 0 {
        crate::metrics::add_global("trace.records_dropped", dropped);
        eprintln!("trace: {dropped} record(s) dropped (late emits or sink errors)");
    }
}

/// Installs a [`JsonlTracer`] if `FLATWALK_TRACE=<channels>:<path>` is
/// set (e.g. `walks,phase:/tmp/trace.jsonl`). Malformed values are
/// reported on stderr and ignored — experiments must not die to a typo
/// in an observability variable.
pub fn init_from_env() {
    let Ok(spec) = std::env::var("FLATWALK_TRACE") else {
        return;
    };
    if spec.is_empty() {
        return;
    }
    match parse_trace_spec(&spec) {
        Some((channels, path)) => match JsonlTracer::create(path) {
            Ok(tracer) => install(Arc::new(tracer), channels),
            Err(e) => eprintln!("FLATWALK_TRACE: cannot open {path:?}: {e}"),
        },
        None => eprintln!(
            "FLATWALK_TRACE: expected <channels>:<path> with channels from walks,phase,repl,faults,serve,spans,numa; got {spec:?}"
        ),
    }
}

/// Splits a `FLATWALK_TRACE` value into channels and sink path.
pub fn parse_trace_spec(spec: &str) -> Option<(Channels, &str)> {
    let (list, path) = spec.split_once(':')?;
    if path.is_empty() {
        return None;
    }
    let channels = Channels::parse(list)?;
    if channels == Channels::default() {
        return None;
    }
    Some((channels, path))
}

fn with_sink(f: impl FnOnce(&dyn Tracer, &str)) {
    if SUPPRESS.with(Cell::get) != 0 {
        return;
    }
    let guard = sink().read().unwrap_or_else(|e| e.into_inner());
    match guard.as_deref() {
        Some(tracer) => CONTEXT.with(|c| f(tracer, &c.borrow())),
        // The caller saw the channel enabled but the sink is already
        // gone: an emit racing uninstall (e.g. a worker finishing while
        // the server drains). Count it instead of losing it silently.
        None => {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Emits one walk record (call only when [`walks_enabled`]).
pub fn emit_walk(record: &WalkRecord<'_>) {
    with_sink(|t, cell| t.walk(cell, record));
}

/// Emits one phase-transition record (call only when [`phase_enabled`]).
pub fn emit_phase(record: &PhaseRecord) {
    with_sink(|t, cell| t.phase(cell, record));
}

/// Emits one replacement record (call only when [`repl_enabled`]).
pub fn emit_repl(record: &ReplRecord<'_>) {
    with_sink(|t, cell| t.repl(cell, record));
}

/// Emits one injected-fault record. Guards internally on
/// [`faults_enabled`] so fault-injection sites can call it
/// unconditionally — faults are rare enough that the extra load is
/// irrelevant.
pub fn emit_fault(kind: &'static str, op: u64, flushed: u64, cost: u64) {
    if !faults_enabled() {
        return;
    }
    let record = FaultRecord {
        kind,
        op,
        flushed,
        cost,
    };
    with_sink(|t, cell| t.fault(cell, &record));
}

/// Emits one closed-span record (call only when [`spans_enabled`];
/// [`crate::span`] guards for you).
pub fn emit_span(record: &SpanRecord<'_>) {
    with_sink(|t, cell| t.span(cell, record));
}

/// Emits one server-lifecycle record. Guards internally on
/// [`serve_enabled`] — request handling is far off any simulation hot
/// path, so the extra load is irrelevant.
pub fn emit_serve(op: &str, job: u64, detail: &str) {
    if !serve_enabled() {
        return;
    }
    let record = ServeRecord { op, job, detail };
    with_sink(|t, cell| t.serve(cell, &record));
}

/// Emits one per-node NUMA summary record. Guards internally on
/// [`numa_enabled`] — the summaries are emitted once per cell, far off
/// any hot path.
pub fn emit_numa(record: &NumaRecord) {
    if !numa_enabled() {
        return;
    }
    with_sink(|t, cell| t.numa(cell, record));
}

/// A line-per-record JSON sink.
///
/// Record schemas (stable key order):
///
/// ```text
/// {"event":"walk","cell":…,"va":…,"accesses":…,"latency":…,
///  "psc_skipped":…,"flattened":…,"steps":[{"depth":…,"level":…},…]}
/// {"event":"phase","cell":…,"active":…,"flips":…,"window":…,"miss_rate":…}
/// {"event":"repl","cell":…,"cache":…,"victim_line":…,"victim_kind":…,"biased":…}
/// {"event":"span","cell":…,"name":…,"path":…,"depth":…,"nanos":…}
/// ```
///
/// Records are buffered through a `BufWriter` (a full run can emit
/// millions of lines) and each line lands as one `write_all`, so lines
/// from concurrent worker threads never interleave mid-record. The
/// buffer is flushed when the tracer drops or [`uninstall`] runs; a
/// failed write bumps the process-wide [`records_dropped`] counter
/// instead of failing the run.
#[derive(Debug)]
pub struct JsonlTracer {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonlTracer {
    /// Creates (truncates) the sink file.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be created.
    pub fn create(path: &str) -> std::io::Result<JsonlTracer> {
        Ok(JsonlTracer {
            out: Mutex::new(std::io::BufWriter::new(std::fs::File::create(path)?)),
        })
    }

    fn write_line(&self, json: &Json) {
        let mut line = json.to_string();
        line.push('\n');
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        if out.write_all(line.as_bytes()).is_err() {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for JsonlTracer {
    fn drop(&mut self) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = out.flush();
    }
}

impl Tracer for JsonlTracer {
    fn walk(&self, cell: &str, record: &WalkRecord<'_>) {
        let steps: Vec<Json> = record
            .steps
            .iter()
            .map(|s| {
                let mut o = Json::obj();
                o.push("depth", s.depth as u64).push("level", s.level);
                o
            })
            .collect();
        let mut o = Json::obj();
        o.push("event", "walk")
            .push("cell", cell)
            .push("va", record.va)
            .push("accesses", record.accesses)
            .push("latency", record.latency)
            .push("psc_skipped", record.psc_skipped as u64)
            .push("flattened", record.flattened)
            .push("steps", Json::Array(steps));
        self.write_line(&o);
    }

    fn phase(&self, cell: &str, record: &PhaseRecord) {
        let mut o = Json::obj();
        o.push("event", "phase")
            .push("cell", cell)
            .push("active", record.active)
            .push("flips", record.flips)
            .push("window", record.window)
            .push("miss_rate", record.miss_rate);
        self.write_line(&o);
    }

    fn repl(&self, cell: &str, record: &ReplRecord<'_>) {
        let mut o = Json::obj();
        o.push("event", "repl")
            .push("cell", cell)
            .push("cache", record.cache)
            .push("victim_line", record.victim_line)
            .push("victim_kind", record.victim_kind)
            .push("biased", record.biased);
        self.write_line(&o);
    }

    fn fault(&self, cell: &str, record: &FaultRecord) {
        let mut o = Json::obj();
        o.push("event", "fault")
            .push("cell", cell)
            .push("kind", record.kind)
            .push("op", record.op)
            .push("flushed", record.flushed)
            .push("cost", record.cost);
        self.write_line(&o);
    }

    fn serve(&self, cell: &str, record: &ServeRecord<'_>) {
        let mut o = Json::obj();
        o.push("event", "serve")
            .push("cell", cell)
            .push("op", record.op)
            .push("job", record.job)
            .push("detail", record.detail);
        self.write_line(&o);
    }

    fn span(&self, cell: &str, record: &SpanRecord<'_>) {
        let mut o = Json::obj();
        o.push("event", "span")
            .push("cell", cell)
            .push("name", record.name)
            .push("path", record.path)
            .push("depth", record.depth)
            .push("nanos", record.nanos);
        self.write_line(&o);
    }

    fn numa(&self, cell: &str, record: &NumaRecord) {
        let mut o = Json::obj();
        o.push("event", "numa")
            .push("cell", cell)
            .push("node", u64::from(record.node))
            .push("local", record.local)
            .push("remote", record.remote)
            .push("hops", record.hops);
        self.write_line(&o);
    }

    fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        if out.flush().is_err() {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_parsing() {
        assert_eq!(
            Channels::parse("walks"),
            Some(Channels {
                walks: true,
                ..Default::default()
            })
        );
        assert_eq!(
            Channels::parse("walks,phase,repl,faults,serve,spans,numa"),
            Some(Channels::all())
        );
        assert_eq!(
            Channels::parse("numa"),
            Some(Channels {
                numa: true,
                ..Default::default()
            })
        );
        assert_eq!(
            Channels::parse("spans"),
            Some(Channels {
                spans: true,
                ..Default::default()
            })
        );
        assert_eq!(
            Channels::parse("serve"),
            Some(Channels {
                serve: true,
                ..Default::default()
            })
        );
        assert_eq!(
            Channels::parse("walks, repl"),
            Some(Channels {
                walks: true,
                repl: true,
                ..Default::default()
            })
        );
        assert_eq!(Channels::parse("bogus"), None);
    }

    #[test]
    fn trace_spec_parsing() {
        let (ch, path) = parse_trace_spec("walks,phase:/tmp/t.jsonl").unwrap();
        assert!(ch.walks && ch.phase && !ch.repl);
        assert_eq!(path, "/tmp/t.jsonl");
        // Windows-style paths keep everything after the first colon.
        assert_eq!(
            parse_trace_spec("walks:C:/t.jsonl").unwrap().1,
            "C:/t.jsonl"
        );
        assert_eq!(parse_trace_spec("walks"), None, "no path");
        assert_eq!(parse_trace_spec("walks:"), None, "empty path");
        assert_eq!(parse_trace_spec(":p"), None, "no channels");
        assert_eq!(parse_trace_spec("nope:p"), None, "unknown channel");
    }

    #[test]
    fn disabled_by_default_and_flags_follow_install() {
        // Serialized against the span tests, which also install on the
        // global tracer.
        let _g = test_lock().lock().unwrap_or_else(|e| e.into_inner());
        struct Nop;
        impl Tracer for Nop {}
        uninstall();
        assert!(!any_enabled());
        install(
            Arc::new(Nop),
            Channels {
                phase: true,
                ..Default::default()
            },
        );
        assert!(phase_enabled() && !walks_enabled() && !repl_enabled());
        uninstall();
        assert!(!any_enabled());
    }

    #[test]
    fn jsonl_lines_parse_and_carry_context() {
        let path = std::env::temp_dir().join("flatwalk_obs_trace_test.jsonl");
        let path = path.to_str().unwrap();
        let tracer = JsonlTracer::create(path).unwrap();
        // Emit directly against the sink (not via the global), so this
        // test cannot race the install/uninstall test above.
        set_context("gups/FPT+PTP");
        tracer.walk(
            "gups/FPT+PTP",
            &WalkRecord {
                va: 0x5000_1000,
                accesses: 1,
                latency: 5,
                psc_skipped: 1,
                flattened: true,
                steps: &[WalkStepRecord {
                    depth: 2,
                    level: "L1",
                }],
            },
        );
        tracer.phase(
            "gups/FPT+PTP",
            &PhaseRecord {
                active: true,
                flips: 3,
                window: 4096,
                miss_rate: 0.125,
            },
        );
        tracer.repl(
            "gups/FPT+PTP",
            &ReplRecord {
                cache: "L2",
                victim_line: 42,
                victim_kind: "data",
                biased: true,
            },
        );
        tracer.fault(
            "gups/FPT+PTP",
            &FaultRecord {
                kind: "thp_splinter",
                op: 4096,
                flushed: 17,
                cost: 670,
            },
        );
        tracer.serve(
            "gups/FPT+PTP",
            &ServeRecord {
                op: "cache_hit",
                job: 3,
                detail: "sec71_pwc cell 2",
            },
        );
        drop(tracer);
        let text = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(
                v.get("cell").cloned(),
                Some(Json::Str("gups/FPT+PTP".into()))
            );
        }
        let serve = crate::json::parse(lines[4]).unwrap();
        assert_eq!(serve.get("event").cloned(), Some(Json::Str("serve".into())));
        assert_eq!(serve.get("job").unwrap().as_u64(), Some(3));
        let walk = crate::json::parse(lines[0]).unwrap();
        assert_eq!(walk.get("event").cloned(), Some(Json::Str("walk".into())));
        assert_eq!(walk.get("accesses").unwrap().as_u64(), Some(1));
        assert_eq!(walk.get("steps").unwrap().as_array().unwrap().len(), 1);
        let fault = crate::json::parse(lines[3]).unwrap();
        assert_eq!(fault.get("event").cloned(), Some(Json::Str("fault".into())));
        assert_eq!(
            fault.get("kind").cloned(),
            Some(Json::Str("thp_splinter".into()))
        );
        assert_eq!(fault.get("cost").unwrap().as_u64(), Some(670));
        let _ = std::fs::remove_file(path);
    }
}
