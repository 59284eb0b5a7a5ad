//! End-to-end tests for the `flatwalk-serve` service: a real server on
//! an ephemeral loopback port, driven through the wire protocol by the
//! real client library.
//!
//! The core claims under test:
//!
//! - served reports are **byte-identical** to running the same cells
//!   directly through the batch runner;
//! - a repeated identical submission is answered entirely from the
//!   result cache — zero cells re-simulated, verified via server
//!   counters — and its report bytes still match;
//! - concurrent duplicate submissions coalesce onto one execution per
//!   distinct cell;
//! - shutdown drains: in-flight work finishes, new submissions are
//!   rejected with `draining`;
//! - no request waits on a timer: a ping costs well under the 40 ms
//!   delayed ACK on a kept connection and the old 25 ms accept poll on
//!   a fresh one;
//! - finished jobs beyond `RETAINED_JOBS` are evicted, and their ids
//!   answer `not_found`.
//!
//! Grids are shrunk via `JobSpec` overrides so the whole file runs in
//! seconds; the direct-runner reference resolves its cells through the
//! *same* `JobSpec` so both sides simulate identical work.

use flatwalk_bench::Mode;
use flatwalk_obs::{json, Json};
use flatwalk_serve::client::Connection;
use flatwalk_serve::proto::JobSpec;
use std::time::{Duration, Instant};

use flatwalk_serve::server::{self, ServerConfig, RETAINED_JOBS};
use flatwalk_sim::runner;

fn test_server(workers: usize, queue_depth: usize) -> server::ServerHandle {
    let config = ServerConfig {
        tcp: true,
        port: 0,
        uds: None,
        workers,
        job_threads: 0,
        queue_depth,
        cache_bytes: 64 << 20,
        store_dir: None,
        slo_ms: 0,
        job_retries: 1,
        stall_secs: 0,
        chaos: true,
    };
    server::spawn(config).expect("bind an ephemeral loopback port")
}

fn connect(handle: &server::ServerHandle) -> Connection {
    let addr = handle.addr().expect("tcp listener");
    Connection::connect_tcp(&addr.to_string()).expect("connect to test server")
}

/// The shrunken §7.1 PWC grid used throughout: 9 cells, a few seconds
/// of simulation total.
fn small_spec() -> JobSpec {
    let mut spec = JobSpec::new("sec71_pwc", Mode::Quick);
    spec.warmup_ops = Some(500);
    spec.measure_ops = Some(2500);
    spec.footprint_divisor = Some(512);
    spec
}

/// Submits with streaming and collects `(record, done)` from the event
/// stream.
fn submit_streaming(conn: &mut Connection, spec: &JobSpec) -> (Vec<Json>, Json) {
    conn.send(&spec.to_request_line(true)).expect("send submit");
    let accepted = conn.recv_line().expect("read").expect("accepted line");
    let accepted = json::parse(&accepted).expect("accepted parses");
    assert_eq!(
        accepted.get("event"),
        Some(&Json::Str("accepted".into())),
        "expected accepted, got {accepted}"
    );
    let mut records = Vec::new();
    loop {
        let line = conn.recv_line().expect("read").expect("stream open");
        let v = json::parse(&line).expect("event parses");
        match v.get("event") {
            Some(Json::Str(e)) if e == "cell" => {
                records.push(v.get("record").expect("cell has record").clone());
            }
            Some(Json::Str(e)) if e == "done" => return (records, v),
            other => panic!("unexpected event {other:?} in {line}"),
        }
    }
}

/// Renders the report a record carries, for byte comparison.
fn record_report(record: &Json) -> String {
    record
        .get("report")
        .expect("ok record has report")
        .to_string()
}

#[test]
fn served_reports_match_direct_runner_and_repeat_is_all_cache_hits() {
    let handle = test_server(2, 8);
    let spec = small_spec();

    // Reference: the same cells through the batch runner, directly.
    let grid = spec.resolve().expect("known grid");
    let total = grid.cells.len();
    let direct: Vec<String> = grid
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| match runner::run_cell_outcome(i, total, cell) {
            runner::CellOutcome::Ok { report, .. } => report.to_json().to_string(),
            runner::CellOutcome::Failed { error, .. } => panic!("direct cell {i} failed: {error}"),
        })
        .collect();

    // Cold submission: everything executes.
    let mut conn = connect(&handle);
    let (cold, done) = submit_streaming(&mut conn, &spec);
    assert_eq!(cold.len(), total);
    assert_eq!(done.get("failed"), Some(&Json::UInt(0)), "done: {done}");
    let executed_after_cold = handle.inner().cells_executed();
    assert_eq!(executed_after_cold, total as u64, "cold run simulates all");
    for (i, record) in cold.iter().enumerate() {
        assert_eq!(
            record_report(record),
            direct[i],
            "cell {i} report differs from direct runner"
        );
        assert_eq!(record.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(
            record.get("index").and_then(Json::as_u64),
            Some(i as u64),
            "records arrive in index order"
        );
    }

    // Identical resubmission: served entirely from the result cache.
    let (warm, _) = submit_streaming(&mut conn, &spec);
    assert_eq!(
        handle.inner().cells_executed(),
        executed_after_cold,
        "0 cells re-simulated on the repeat"
    );
    assert!(handle.inner().cache_hits() >= total as u64);
    for (i, record) in warm.iter().enumerate() {
        assert_eq!(record.get("cached"), Some(&Json::Bool(true)), "cell {i}");
        assert_eq!(
            record_report(record),
            direct[i],
            "cached cell {i} bytes differ"
        );
    }

    // status/result agree with the stream.
    let status = conn.request(r#"{"op":"status","job":2}"#).expect("status");
    let status = json::parse(&status).expect("status parses");
    assert_eq!(status.get("state"), Some(&Json::Str("done".into())));
    assert_eq!(
        status.get("cached").and_then(Json::as_u64),
        Some(total as u64)
    );
    let result = conn.request(r#"{"op":"result","job":1}"#).expect("result");
    let result = json::parse(&result).expect("result parses");
    let cells = result.get("cells").and_then(Json::as_array).expect("cells");
    assert_eq!(cells.len(), total);
    for (i, record) in cells.iter().enumerate() {
        assert_eq!(record_report(record), direct[i], "result cell {i}");
    }

    handle.begin_drain();
    handle.wait();
}

#[test]
fn concurrent_duplicate_submissions_coalesce() {
    let handle = test_server(4, 8);
    let spec = {
        // Distinct overrides so this test's cells never share cache
        // entries with the other tests in this process.
        let mut s = small_spec();
        s.measure_ops = Some(2600);
        s
    };
    let total = spec.resolve().expect("known grid").len() as u64;

    let duplicates = 3;
    let results: Vec<(Vec<Json>, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..duplicates)
            .map(|_| {
                let spec = spec.clone();
                let mut conn = connect(&handle);
                scope.spawn(move || submit_streaming(&mut conn, &spec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    // One execution per distinct cell; every other request was a cache
    // hit or coalesced onto the in-flight execution.
    assert_eq!(
        handle.inner().cells_executed(),
        total,
        "duplicate cells must not re-execute"
    );
    let reference: Vec<String> = results[0].0.iter().map(record_report).collect();
    for (records, done) in &results {
        assert_eq!(done.get("failed"), Some(&Json::UInt(0)));
        let reports: Vec<String> = records.iter().map(record_report).collect();
        assert_eq!(reports, reference, "all duplicates see identical bytes");
    }

    handle.begin_drain();
    handle.wait();
}

#[test]
fn zero_depth_queue_rejects_with_overloaded() {
    let handle = test_server(1, 0);
    let mut conn = connect(&handle);
    let reply = conn
        .request(&small_spec().to_request_line(false))
        .expect("reply");
    let v = json::parse(&reply).expect("parses");
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(v.get("error"), Some(&Json::Str("overloaded".into())));
    handle.begin_drain();
    handle.wait();
}

#[test]
fn shutdown_drains_in_flight_work_and_rejects_new_jobs() {
    let handle = test_server(1, 8);
    let mut submitter = connect(&handle);
    let spec = {
        let mut s = small_spec();
        s.measure_ops = Some(2700);
        s
    };
    submitter.send(&spec.to_request_line(true)).expect("submit");
    let accepted = submitter.recv_line().expect("read").expect("line");
    assert!(accepted.contains("accepted"), "got {accepted}");

    // Shutdown while the job runs: it must still finish cleanly.
    let mut controller = connect(&handle);
    let reply = controller
        .request(r#"{"op":"shutdown"}"#)
        .expect("shutdown");
    assert!(reply.contains("draining"), "got {reply}");
    let rejected = controller
        .request(&small_spec().to_request_line(false))
        .expect("reply");
    let v = json::parse(&rejected).expect("parses");
    assert_eq!(v.get("error"), Some(&Json::Str("draining".into())));

    let total = spec.resolve().expect("known grid").len();
    let mut cells = 0;
    let mut done = None;
    while let Some(line) = submitter.recv_line().expect("read") {
        let v = json::parse(&line).expect("parses");
        match v.get("event") {
            Some(Json::Str(e)) if e == "cell" => cells += 1,
            Some(Json::Str(e)) if e == "done" => {
                done = Some(v);
                break;
            }
            _ => {}
        }
    }
    let done = done.expect("in-flight job completed despite drain");
    assert_eq!(cells, total);
    assert_eq!(done.get("failed"), Some(&Json::UInt(0)));
    handle.wait();
}

#[test]
fn metrics_exposition_reports_request_latency_percentiles() {
    let handle = test_server(2, 8);
    let mut conn = connect(&handle);

    // Generate traffic first so the per-op latency histograms have
    // observations: one streamed submit plus a ping.
    let mut spec = small_spec();
    spec.measure_ops = Some(3100);
    let (records, _) = submit_streaming(&mut conn, &spec);
    assert!(!records.is_empty());
    conn.request(r#"{"op":"ping"}"#).expect("ping");

    // JSON form: the submit was timed end to end, so its percentiles
    // are non-zero and ordered; queue_wait is tracked alongside.
    let reply = conn.request(r#"{"op":"metrics"}"#).expect("metrics");
    let v = json::parse(&reply).expect("metrics parses");
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    let latency = v.get("latency").expect("latency object");
    let submit = latency.get("submit").expect("submit op timed");
    let p50 = submit.get("p50").and_then(Json::as_u64).expect("p50");
    let p999 = submit.get("p999").and_then(Json::as_u64).expect("p999");
    assert!(submit.get("count").and_then(Json::as_u64) >= Some(1));
    assert!(p50 > 0, "a streamed submit takes real wall time");
    assert!(p999 >= p50, "percentiles must be ordered");
    assert!(latency.get("queue_wait").is_some(), "queue wait is timed");
    let registry = v.get("metrics").expect("registry snapshot");
    assert!(
        registry.get("serve.queue_len").is_some(),
        "queue gauge refreshed at scrape: {registry}"
    );

    // Prometheus form: every sample line is `name{labels} value` with
    // a finite value, and the summary family carries the submit op.
    let reply = conn
        .request(r#"{"op":"metrics","format":"prometheus"}"#)
        .expect("prometheus metrics");
    let v = json::parse(&reply).expect("prometheus reply parses");
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    let text = match v.get("text") {
        Some(Json::Str(t)) => t.clone(),
        other => panic!("expected text exposition, got {other:?}"),
    };
    assert!(text.contains("# TYPE flatwalk_serve_request_latency_nanos summary"));
    let mut submit_p50 = None;
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("`name value` sample");
        assert!(!name.is_empty(), "unnamed sample in {line:?}");
        let value: f64 = value.parse().expect("numeric sample value");
        assert!(value.is_finite(), "non-finite sample in {line:?}");
        if name == "flatwalk_serve_request_latency_nanos{op=\"submit\",quantile=\"0.5\"}" {
            submit_p50 = Some(value);
        }
    }
    assert!(
        submit_p50.expect("submit p50 exposed") > 0.0,
        "request-latency percentiles must be non-zero"
    );

    handle.begin_drain();
    handle.wait();
}

#[test]
fn watch_streams_count_limited_metrics_events() {
    let handle = test_server(1, 8);
    let mut conn = connect(&handle);
    conn.send(r#"{"op":"watch","interval_ms":1,"count":3}"#)
        .expect("send watch");
    for seq in 0..3u64 {
        let line = conn.recv_line().expect("read").expect("watch event");
        let v = json::parse(&line).expect("event parses");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "event: {line}");
        assert_eq!(v.get("event"), Some(&Json::Str("metrics".into())));
        assert_eq!(v.get("seq").and_then(Json::as_u64), Some(seq));
        assert!(v.get("server").is_some(), "payload matches metrics reply");
        assert!(v.get("latency").is_some());
    }
    let done = conn.recv_line().expect("read").expect("done event");
    let v = json::parse(&done).expect("done parses");
    assert_eq!(v.get("event"), Some(&Json::Str("done".into())));
    assert_eq!(v.get("watched").and_then(Json::as_u64), Some(3));

    // The connection stays usable after a finite watch.
    let pong = conn.request(r#"{"op":"ping"}"#).expect("ping after watch");
    assert!(pong.contains(r#""ok":true"#), "got {pong}");

    handle.begin_drain();
    handle.wait();
}

#[test]
fn per_job_fault_plans_stay_scoped_to_their_job() {
    let handle = test_server(2, 8);
    let mut conn = connect(&handle);

    // A faulted job: allocation faults are injected, and the *next*
    // (fault-free) job is untouched.
    let mut faulty = small_spec();
    faulty.measure_ops = Some(2800);
    faulty.faults = Some(flatwalk_faults::FaultPlan::parse("7:alloc").expect("plan"));
    let (faulty_records, _) = submit_streaming(&mut conn, &faulty);
    assert!(!faulty_records.is_empty());

    let mut clean = faulty.clone();
    clean.faults = None;
    let (clean_records, done) = submit_streaming(&mut conn, &clean);
    assert_eq!(done.get("failed"), Some(&Json::UInt(0)));
    for record in &clean_records {
        // The fault-free job must never be served a fault-plan result:
        // its cache key has signature 0.
        assert_eq!(
            record.get("status"),
            Some(&Json::Str("ok".into())),
            "clean job record: {record}"
        );
    }

    handle.begin_drain();
    handle.wait();
}

#[test]
fn pings_on_a_kept_connection_wait_on_no_timer() {
    let handle = test_server(1, 8);
    let mut conn = connect(&handle);
    let start = Instant::now();
    for _ in 0..50 {
        let pong = conn.request(r#"{"op":"ping"}"#).expect("ping");
        assert!(pong.contains(r#""ok":true"#), "got {pong}");
    }
    let took = start.elapsed();
    // A line split over two writes waits ~40 ms per direction for the
    // peer's delayed ACK.
    assert!(
        took < Duration::from_secs(1),
        "50 pings on one connection took {took:?}"
    );
    handle.begin_drain();
    handle.wait();
}

#[test]
fn connect_then_ping_cycles_wait_on_no_timer() {
    let handle = test_server(1, 8);
    let addr = handle.addr().expect("tcp listener").to_string();
    let start = Instant::now();
    for _ in 0..20 {
        let mut conn = Connection::connect_tcp(&addr).expect("connect");
        let pong = conn.request(r#"{"op":"ping"}"#).expect("ping");
        assert!(pong.contains(r#""ok":true"#), "got {pong}");
    }
    let took = start.elapsed();
    // An accept loop that polls a non-blocking listener adds its poll
    // interval to every fresh connection.
    assert!(
        took < Duration::from_millis(250),
        "20 connect-then-ping cycles took {took:?}"
    );
    handle.begin_drain();
    handle.wait();
}

#[test]
fn finished_jobs_beyond_the_retention_bound_answer_not_found() {
    let handle = test_server(2, 8);
    let mut conn = connect(&handle);
    let keyed = |i: usize| {
        let mut spec = small_spec();
        spec.measure_ops = Some(2900);
        spec.submit_key = Some(format!("retention-{i}"));
        spec
    };
    let submits = RETAINED_JOBS + 3;
    let mut ids = Vec::new();
    for i in 0..submits {
        let (_, done) = submit_streaming(&mut conn, &keyed(i));
        assert_eq!(done.get("failed"), Some(&Json::UInt(0)), "done: {done}");
        ids.push(done.get("job").and_then(Json::as_u64).expect("job id"));
    }

    let oldest = ids[0];
    for op in ["status", "result"] {
        let reply = conn
            .request(&format!(r#"{{"op":"{op}","job":{oldest}}}"#))
            .expect(op);
        let v = json::parse(&reply).expect("reply parses");
        assert_eq!(
            v.get("error"),
            Some(&Json::Str("not_found".into())),
            "{op} of evicted job {oldest}: {reply}"
        );
    }
    let newest = ids[submits - 1];
    let status = conn
        .request(&format!(r#"{{"op":"status","job":{newest}}}"#))
        .expect("status");
    let status = json::parse(&status).expect("status parses");
    assert_eq!(status.get("state"), Some(&Json::Str("done".into())));

    // The evicted job's key is forgotten: the resubmit is not resumed
    // onto the old job but runs as a new one, every cell served from
    // the result cache.
    let (records, done) = submit_streaming(&mut conn, &keyed(0));
    assert_eq!(done.get("job").and_then(Json::as_u64), Some(newest + 1));
    assert_eq!(done.get("executed"), Some(&Json::UInt(0)), "done: {done}");
    assert_eq!(
        done.get("cells").and_then(Json::as_u64),
        Some(records.len() as u64)
    );
    for record in &records {
        assert_eq!(record.get("cached"), Some(&Json::Bool(true)), "{record}");
    }

    assert_eq!(handle.inner().submit_keys_held(), RETAINED_JOBS);
    handle.begin_drain();
    handle.wait();
}
