//! The `flatwalk-serve-v1` wire protocol.
//!
//! Newline-delimited JSON over a local stream (TCP on `127.0.0.1` or a
//! Unix socket). The client writes one request object per line; the
//! server answers with one or more reply lines. Both ends frame every
//! line with [`write_line`] (one write per line) and set `TCP_NODELAY`
//! on TCP streams, so no line waits on a timer. Every reply carries
//! `"ok"`: errors are `{"ok":false,"error":<kind>,"detail":…}` with
//! `kind` ∈ `bad_request` | `overloaded` | `draining` | `not_found`.
//! A request whose arrays and objects nest more than 128 levels deep
//! is a `bad_request`; a request line longer than 1 MiB is answered
//! with one `bad_request`, and the server then closes the connection.
//!
//! Requests:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"submit","grid":<name>,"mode":"quick"|"std"|"paper",
//!  "faults":<spec>?,"warmup_ops":N?,"measure_ops":N?,
//!  "footprint_divisor":N?,"stream":true?,"deadline_ms":N?,
//!  "submit_key":S?,"chaos":"panic_worker"?}
//! {"op":"status","job":N}
//! {"op":"result","job":N}
//! {"op":"metrics","format":"json"|"prometheus"?}
//! {"op":"watch","interval_ms":N?,"count":N?}
//! {"op":"shutdown"}
//! ```
//!
//! `metrics` defaults to the JSON snapshot (server counters, per-op
//! request-latency percentiles, and the merged global registry); with
//! `"format":"prometheus"` the reply instead carries the same data
//! rendered in the Prometheus text exposition format under `"text"`.
//! `watch` streams one `metrics` event every `interval_ms` (default
//! 1000) for `count` snapshots (default 0 = until the server drains or
//! the connection drops), then a final `done` event.
//!
//! `deadline_ms` bounds the job end-to-end: the server sheds the
//! submit (fast `overloaded` reply) when its predicted queue wait
//! already exceeds the deadline, and cancels the job at the next batch
//! boundary once the deadline passes mid-run. `submit_key` makes the
//! submit idempotent: a resubmit carrying the key of a job the server
//! already knows attaches to that job instead of re-executing it (the
//! `accepted` event then carries `"resumed":true`, and already-finished
//! cell events are replayed). [`JobSpec::content_key`] derives the
//! canonical key from the spec's execution-relevant fields. `chaos`
//! requests a fault-injection hook (`"panic_worker"` panics the worker
//! mid-job on the first attempt) and is rejected unless the server was
//! started with `FLATWALK_CHAOS=1`.
//!
//! A `submit` is answered with an `accepted` event; with
//! `"stream":true` the connection then receives one `cell` event per
//! finished cell (in completion order — cells of one job run in index
//! order) and a final `done` event. Cell events embed the same record
//! the `result` op returns: the per-cell report JSON is byte-identical
//! to `SimReport::to_json()` in the batch binaries' `--json` output,
//! plus service fields `"cached"`/`"coalesced"`.

use std::io::Write;

use flatwalk_bench::grids::{self, Grid};
use flatwalk_bench::Mode;
use flatwalk_faults::FaultPlan;
use flatwalk_obs::Json;

/// Protocol identifier, echoed by `ping` and `metrics`.
pub const PROTOCOL: &str = "flatwalk-serve-v1";

/// One experiment-grid job as submitted on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Registered grid name (see [`grids::GRIDS`]).
    pub grid: String,
    /// Scale mode the grid is built for.
    pub mode: Mode,
    /// Optional per-job fault plan (scoped to this job's worker; other
    /// jobs are unaffected).
    pub faults: Option<FaultPlan>,
    /// Override for `SimOptions::warmup_ops`.
    pub warmup_ops: Option<u64>,
    /// Override for `SimOptions::measure_ops`.
    pub measure_ops: Option<u64>,
    /// Override for `SimOptions::footprint_divisor`.
    pub footprint_divisor: Option<u64>,
    /// End-to-end deadline in milliseconds. The server sheds the
    /// submit when the predicted queue wait exceeds it, and cancels
    /// the job at the next batch boundary once it passes mid-run.
    pub deadline_ms: Option<u64>,
    /// Idempotency key: a resubmit carrying a known key attaches to
    /// the existing job instead of re-executing it.
    pub submit_key: Option<String>,
    /// Chaos hook (`"panic_worker"`); rejected unless the server was
    /// started with `FLATWALK_CHAOS=1`.
    pub chaos: Option<String>,
}

impl JobSpec {
    /// A spec for `grid` at quick scale with no overrides.
    pub fn new(grid: &str, mode: Mode) -> JobSpec {
        JobSpec {
            grid: grid.to_string(),
            mode,
            faults: None,
            warmup_ops: None,
            measure_ops: None,
            footprint_divisor: None,
            deadline_ms: None,
            submit_key: None,
            chaos: None,
        }
    }

    /// The canonical idempotency key for this spec: a content hash
    /// over every field that affects execution (grid, mode, faults,
    /// option overrides). Two specs that would run the same cells get
    /// the same key; `deadline_ms`/`submit_key`/`chaos` are excluded
    /// because they shape delivery, not results.
    pub fn content_key(&self) -> String {
        let basis = format!(
            "{}|{}|{:?}|{:?}|{:?}|{:?}",
            self.grid,
            self.mode_name(),
            self.faults,
            self.warmup_ops,
            self.measure_ops,
            self.footprint_divisor
        );
        crate::store::content_hash(&basis)
    }

    /// Builds the grid this spec describes: the registered builder run
    /// on the mode's server options with this spec's overrides applied.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown grid.
    pub fn resolve(&self) -> Result<Grid, String> {
        let def = grids::by_name(&self.grid).ok_or_else(|| {
            format!(
                "unknown grid {:?} (known: {})",
                self.grid,
                grids::names().join(", ")
            )
        })?;
        let mut opts = self.mode.server_options();
        if let Some(v) = self.warmup_ops {
            opts.warmup_ops = v;
        }
        if let Some(v) = self.measure_ops {
            opts.measure_ops = v;
        }
        if let Some(v) = self.footprint_divisor {
            opts.footprint_divisor = v.max(1);
        }
        Ok((def.build)(self.mode, &opts))
    }

    /// The spec's mode name as it appears on the wire.
    pub fn mode_name(&self) -> &'static str {
        match self.mode {
            Mode::Quick => "quick",
            Mode::Std => "std",
            Mode::Paper => "paper",
        }
    }

    /// Renders the submit request line for this spec.
    pub fn to_request_line(&self, stream: bool) -> String {
        let mut o = Json::obj();
        o.push("op", "submit")
            .push("grid", self.grid.as_str())
            .push("mode", self.mode_name());
        if let Some(plan) = self.faults {
            o.push("faults", format!("{}:{}", plan.seed, plan.profile.name()));
        }
        if let Some(v) = self.warmup_ops {
            o.push("warmup_ops", v);
        }
        if let Some(v) = self.measure_ops {
            o.push("measure_ops", v);
        }
        if let Some(v) = self.footprint_divisor {
            o.push("footprint_divisor", v);
        }
        if let Some(v) = self.deadline_ms {
            o.push("deadline_ms", v);
        }
        if let Some(key) = &self.submit_key {
            o.push("submit_key", key.as_str());
        }
        if let Some(hook) = &self.chaos {
            o.push("chaos", hook.as_str());
        }
        if stream {
            o.push("stream", true);
        }
        o.to_string()
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / protocol check.
    Ping,
    /// Submit a job; `stream` asks for per-cell events on this
    /// connection.
    Submit {
        /// The job to run.
        spec: JobSpec,
        /// Whether to stream per-cell events.
        stream: bool,
    },
    /// Progress of a job.
    Status {
        /// Server-assigned job id.
        job: u64,
    },
    /// Collected cell records of a job.
    Result {
        /// Server-assigned job id.
        job: u64,
    },
    /// Merged metrics snapshot + server counters.
    Metrics {
        /// Render as Prometheus text exposition instead of JSON.
        prometheus: bool,
    },
    /// Stream periodic metrics snapshots on this connection.
    Watch {
        /// Milliseconds between snapshots.
        interval_ms: u64,
        /// Snapshots to emit (0 = until drain or disconnect).
        count: u64,
    },
    /// Begin draining: finish queued/in-flight jobs, reject new ones,
    /// exit.
    Shutdown,
}

impl Request {
    /// The request's op name as it appears on the wire (the key the
    /// server's request-latency histograms are bucketed by).
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Submit { .. } => "submit",
            Request::Status { .. } => "status",
            Request::Result { .. } => "result",
            Request::Metrics { .. } => "metrics",
            Request::Watch { .. } => "watch",
            Request::Shutdown => "shutdown",
        }
    }
}

fn get_str<'a>(o: &'a Json, key: &str) -> Option<&'a str> {
    match o.get(key) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

fn get_u64(o: &Json, key: &str) -> Option<u64> {
    o.get(key).and_then(Json::as_u64)
}

fn get_bool(o: &Json, key: &str) -> bool {
    matches!(o.get(key), Some(Json::Bool(true)))
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, unknown ops,
/// or missing/invalid fields (the server wraps it in a `bad_request`
/// reply).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = flatwalk_obs::json::parse(line.trim()).map_err(|e| e.to_string())?;
    let op = get_str(&v, "op").ok_or("missing \"op\"")?;
    match op {
        "ping" => Ok(Request::Ping),
        "metrics" => match get_str(&v, "format") {
            None | Some("json") => Ok(Request::Metrics { prometheus: false }),
            Some("prometheus") => Ok(Request::Metrics { prometheus: true }),
            Some(other) => Err(format!("unknown metrics format {other:?}")),
        },
        "watch" => Ok(Request::Watch {
            interval_ms: get_u64(&v, "interval_ms").unwrap_or(1000).max(1),
            count: get_u64(&v, "count").unwrap_or(0),
        }),
        "shutdown" => Ok(Request::Shutdown),
        "status" | "result" => {
            let job = get_u64(&v, "job").ok_or("missing \"job\"")?;
            Ok(if op == "status" {
                Request::Status { job }
            } else {
                Request::Result { job }
            })
        }
        "submit" => {
            let grid = get_str(&v, "grid").ok_or("missing \"grid\"")?.to_string();
            let mode = match get_str(&v, "mode") {
                None => Mode::Quick,
                Some(name) => Mode::parse(name).ok_or_else(|| format!("unknown mode {name:?}"))?,
            };
            let faults = match get_str(&v, "faults") {
                None => None,
                Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| format!("faults: {e}"))?),
            };
            Ok(Request::Submit {
                spec: JobSpec {
                    grid,
                    mode,
                    faults,
                    warmup_ops: get_u64(&v, "warmup_ops"),
                    measure_ops: get_u64(&v, "measure_ops"),
                    footprint_divisor: get_u64(&v, "footprint_divisor"),
                    deadline_ms: get_u64(&v, "deadline_ms"),
                    submit_key: get_str(&v, "submit_key").map(str::to_string),
                    chaos: get_str(&v, "chaos").map(str::to_string),
                },
                stream: get_bool(&v, "stream"),
            })
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Renders an error reply line.
pub fn error_line(kind: &str, detail: &str) -> String {
    let mut o = Json::obj();
    o.push("ok", false)
        .push("error", kind)
        .push("detail", detail);
    o.to_string()
}

/// Writes one protocol line: `line` and its `\n` in a single
/// `write_all`, then a flush. Client requests and every server reply
/// and stream event go through here. Writing the terminator separately
/// would leave it as a second small segment that Nagle's algorithm
/// holds until the peer's delayed ACK (40 ms on Linux) arrives.
///
/// # Errors
///
/// Propagates write and flush failures.
pub fn write_line(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    w.write_all(&framed)?;
    w.flush()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A `Write` that keeps the bytes of every `write` call apart and
    /// counts flushes.
    #[derive(Debug, Default)]
    pub(crate) struct RecordingWriter {
        pub(crate) writes: Vec<Vec<u8>>,
        pub(crate) flushes: usize,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn write_line_issues_one_write_per_line() {
        let mut w = RecordingWriter::default();
        let lines = [r#"{"op":"ping"}"#, "", &"x".repeat(64 << 10)];
        for line in lines {
            write_line(&mut w, line).unwrap();
        }
        assert_eq!(w.writes.len(), lines.len());
        assert_eq!(w.flushes, lines.len());
        for (line, written) in lines.iter().zip(&w.writes) {
            assert_eq!(written, format!("{line}\n").as_bytes());
        }
    }

    #[test]
    fn write_line_is_the_only_writer_on_the_client_and_server_paths() {
        let sources = [
            ("client.rs", include_str!("client.rs")),
            ("server.rs", include_str!("server.rs")),
        ];
        for (file, source) in sources {
            for call in ["write_all(", ".write(", "write!(", "writeln!(", ".flush("] {
                assert!(
                    !source.contains(call),
                    "{file} calls `{call}`: protocol lines must go through proto::write_line"
                );
            }
        }
    }

    #[test]
    fn submit_round_trips_through_request_line() {
        let mut spec = JobSpec::new("sec71_pwc", Mode::Quick);
        spec.faults = Some(FaultPlan::parse("7:alloc").unwrap());
        spec.warmup_ops = Some(500);
        spec.measure_ops = Some(2500);
        spec.footprint_divisor = Some(512);
        spec.deadline_ms = Some(30_000);
        spec.submit_key = Some(spec.content_key());
        spec.chaos = Some("panic_worker".to_string());
        let line = spec.to_request_line(true);
        match parse_request(&line).unwrap() {
            Request::Submit { spec: back, stream } => {
                assert!(stream);
                assert_eq!(back, spec);
            }
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn content_key_tracks_execution_fields_only() {
        let spec = JobSpec::new("sec71_pwc", Mode::Quick);
        let mut same = spec.clone();
        same.deadline_ms = Some(5);
        same.submit_key = Some("x".to_string());
        same.chaos = Some("panic_worker".to_string());
        assert_eq!(spec.content_key(), same.content_key());

        let mut other_mode = spec.clone();
        other_mode.mode = Mode::Std;
        assert_ne!(spec.content_key(), other_mode.content_key());
        let mut other_ops = spec.clone();
        other_ops.measure_ops = Some(100);
        assert_ne!(spec.content_key(), other_ops.content_key());
        assert_eq!(spec.content_key().len(), 32);
    }

    #[test]
    fn simple_ops_parse() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#), Ok(Request::Ping));
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#),
            Ok(Request::Metrics { prometheus: false })
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics","format":"prometheus"}"#),
            Ok(Request::Metrics { prometheus: true })
        );
        assert_eq!(
            parse_request(r#"{"op":"watch"}"#),
            Ok(Request::Watch {
                interval_ms: 1000,
                count: 0
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"watch","interval_ms":0,"count":3}"#),
            Ok(Request::Watch {
                interval_ms: 1,
                count: 3
            }),
            "interval clamps to at least 1ms"
        );
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown));
        assert_eq!(
            parse_request(r#"{"op":"status","job":7}"#),
            Ok(Request::Status { job: 7 })
        );
        assert_eq!(
            parse_request(r#"{"op":"result","job":7}"#),
            Ok(Request::Result { job: 7 })
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"no":"op"}"#).is_err());
        assert!(parse_request(r#"{"op":"dance"}"#).is_err());
        assert!(parse_request(r#"{"op":"status"}"#).is_err(), "missing job");
        assert!(parse_request(r#"{"op":"submit"}"#).is_err(), "missing grid");
        assert!(
            parse_request(r#"{"op":"submit","grid":"g","mode":"warp"}"#).is_err(),
            "unknown mode"
        );
        assert!(
            parse_request(r#"{"op":"submit","grid":"g","faults":"x"}"#).is_err(),
            "bad fault spec"
        );
        assert!(
            parse_request(r#"{"op":"metrics","format":"xml"}"#).is_err(),
            "unknown metrics format"
        );
    }

    #[test]
    fn op_names_match_the_wire() {
        assert_eq!(Request::Ping.op_name(), "ping");
        assert_eq!(Request::Metrics { prometheus: true }.op_name(), "metrics");
        assert_eq!(
            Request::Watch {
                interval_ms: 1,
                count: 1
            }
            .op_name(),
            "watch"
        );
    }

    #[test]
    fn resolve_applies_overrides() {
        let mut spec = JobSpec::new("sec71_pwc", Mode::Quick);
        spec.warmup_ops = Some(500);
        spec.measure_ops = Some(2500);
        spec.footprint_divisor = Some(512);
        let grid = spec.resolve().unwrap();
        assert_eq!(grid.len(), 9);
        let opts = &grid.cells[0].opts;
        assert_eq!(opts.warmup_ops, 500);
        assert_eq!(opts.measure_ops, 2500);
        assert_eq!(opts.footprint_divisor, 512);
        assert!(JobSpec::new("no_such_grid", Mode::Quick).resolve().is_err());
    }

    #[test]
    fn error_lines_are_structured() {
        let line = error_line("overloaded", "queue full (depth 32)");
        let v = flatwalk_obs::json::parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(v.get("error"), Some(&Json::Str("overloaded".into())));
    }
}
