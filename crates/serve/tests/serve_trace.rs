//! Serve trace events name the cell they refer to: a `cache_hit`
//! carries its cell key's content address, which is also the file stem
//! of the cell's store entry.
//!
//! The tracer is process-global, so this file holds one test and runs
//! as its own process.

use std::collections::BTreeSet;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};

use flatwalk_obs::trace::{self, Channels, ServeRecord, Tracer};
use flatwalk_serve::proto::JobSpec;
use flatwalk_serve::rcache::cell_key;
use flatwalk_serve::server::{self, ServerConfig, ServerInner};
use flatwalk_serve::store::content_hash;

/// Collects every serve event as `(op, job, detail)`.
#[derive(Default)]
struct Collect(Mutex<Vec<(String, u64, String)>>);

impl Tracer for Collect {
    fn serve(&self, _cell: &str, record: &ServeRecord<'_>) {
        self.0
            .lock()
            .unwrap()
            .push((record.op.to_string(), record.job, record.detail.to_string()));
    }
}

/// Submits `spec` and waits for its `done` event; returns the job id.
fn run(inner: &Arc<ServerInner>, spec: &JobSpec) -> u64 {
    let (tx, rx) = channel();
    let (job, _) = inner.submit(spec.clone(), Some(tx)).expect("accepted");
    for line in rx.iter() {
        if line.contains(r#""event":"done""#) {
            break;
        }
    }
    job.id
}

#[test]
fn cache_hit_events_name_each_cells_store_entry() {
    let dir = std::env::temp_dir().join(format!("flatwalk-serve-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = server::spawn(ServerConfig {
        tcp: true,
        port: 0,
        uds: None,
        workers: 2,
        job_threads: 0,
        queue_depth: 4,
        cache_bytes: 1 << 20,
        store_dir: Some(dir.clone()),
        slo_ms: 0,
        job_retries: 1,
        stall_secs: 0,
        chaos: false,
    })
    .expect("bind loopback");
    let inner = Arc::clone(handle.inner());
    let mut spec = JobSpec::new("sec71_pwc", flatwalk_bench::Mode::Quick);
    spec.warmup_ops = Some(100);
    spec.measure_ops = Some(400);
    spec.footprint_divisor = Some(4096);
    run(&inner, &spec);

    let tracer = Arc::new(Collect::default());
    trace::install(tracer.clone(), Channels::parse("serve").expect("channel"));
    let job = run(&inner, &spec);
    trace::uninstall();

    let grid = spec.resolve().expect("known grid");
    let total = grid.cells.len();
    let details: Vec<String> = tracer
        .0
        .lock()
        .unwrap()
        .iter()
        .filter(|(op, id, _)| op == "cache_hit" && *id == job)
        .map(|(_, _, detail)| detail.clone())
        .collect();
    let expected: Vec<String> = grid
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| content_hash(&cell_key(cell, 0, i, total)))
        .collect();
    assert_eq!(details, expected, "one hit per cell, in index order");
    assert_eq!(
        details.iter().collect::<BTreeSet<_>>().len(),
        total,
        "distinct cells, distinct details"
    );
    for stem in &details {
        let entry = dir
            .join("objects")
            .join(&stem[..2])
            .join(format!("{stem}.entry"));
        assert!(entry.is_file(), "{} is a store entry", entry.display());
    }
    handle.begin_drain();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
