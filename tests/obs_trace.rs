//! Observability must be a pure observer: installing a tracer cannot
//! change a single byte of any simulation report, and with tracing off
//! the reports stay byte-identical at every thread count. When tracing
//! *is* on, the per-walk records must agree exactly with the walker's
//! own statistics — same walk count, same access count, same per-level
//! step tally.
//!
//! The tracer sink and the setup-cache override are process-global, so
//! every test here holds [`override_guard`] for its whole body (shared
//! with the runner-determinism suite's convention).

use std::sync::{Arc, Mutex, MutexGuard};

use flatwalk_obs::trace::{self, Channels, PhaseRecord, SpanRecord, Tracer, WalkRecord};
use flatwalk_os::FragmentationScenario;
use flatwalk_sim::runner::{run_cells, Cell};
use flatwalk_sim::{NativeSimulation, SimOptions, SimReport, TranslationConfig};
use flatwalk_workloads::WorkloadSpec;

/// Serializes tests that install the process-global tracer.
fn override_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn grid() -> Vec<Cell> {
    let mut opts = SimOptions::small_test();
    opts.warmup_ops = 500;
    opts.measure_ops = 3_000;
    let configs = [
        TranslationConfig::baseline(),
        TranslationConfig::flattened_prioritized(),
    ];
    let mut cells = Vec::new();
    for cfg in &configs {
        for w in [
            WorkloadSpec::gups().scaled_mib(16),
            WorkloadSpec::dc().scaled_mib(16),
        ] {
            cells.push(Cell::new(
                w,
                cfg.clone(),
                FragmentationScenario::NONE,
                opts.clone(),
            ));
        }
    }
    cells
}

fn fingerprints(reports: &[SimReport]) -> Vec<String> {
    reports.iter().map(|r| format!("{r:?}")).collect()
}

/// Counts every event; never inspects payloads, so it is as close to a
/// pure observer as an installed tracer can be.
#[derive(Default)]
struct CountingTracer {
    walks: Mutex<u64>,
    phases: Mutex<u64>,
}

impl Tracer for CountingTracer {
    fn walk(&self, _cell: &str, _record: &WalkRecord<'_>) {
        *self.walks.lock().unwrap() += 1;
    }
    fn phase(&self, _cell: &str, _record: &PhaseRecord) {
        *self.phases.lock().unwrap() += 1;
    }
}

/// Collects per-walk aggregates for exact comparison with WalkerStats.
#[derive(Default)]
struct CollectingTracer {
    /// (walks, accesses, steps, [l1, l2, l3, dram]) under one lock.
    agg: Mutex<(u64, u64, u64, [u64; 4])>,
}

impl Tracer for CollectingTracer {
    fn walk(&self, _cell: &str, record: &WalkRecord<'_>) {
        let mut agg = self.agg.lock().unwrap();
        agg.0 += 1;
        agg.1 += record.accesses;
        agg.2 += record.steps.len() as u64;
        for step in record.steps {
            let i = match step.level {
                "L1" => 0,
                "L2" => 1,
                "L3" => 2,
                "DRAM" => 3,
                other => panic!("unknown level label {other:?}"),
            };
            agg.3[i] += 1;
        }
    }
}

/// Collects every span close as `(name, path, depth)`.
#[derive(Default)]
struct SpanCollector {
    spans: Mutex<Vec<(String, String, u64)>>,
}

impl Tracer for SpanCollector {
    fn span(&self, _cell: &str, record: &SpanRecord<'_>) {
        self.spans.lock().unwrap().push((
            record.name.to_string(),
            record.path.to_string(),
            record.depth,
        ));
    }
}

#[test]
fn tracing_off_is_byte_identical_across_thread_counts() {
    let _guard = override_guard();
    trace::uninstall();
    let serial = fingerprints(&run_cells("obs:t1", grid(), 1));
    let parallel = fingerprints(&run_cells("obs:t4", grid(), 4));
    assert_eq!(serial, parallel);
}

#[test]
fn installed_tracer_does_not_perturb_reports() {
    let _guard = override_guard();
    trace::uninstall();
    let golden = fingerprints(&run_cells("obs:off", grid(), 2));

    let tracer = Arc::new(CountingTracer::default());
    trace::install(tracer.clone(), Channels::all());
    let traced = fingerprints(&run_cells("obs:on", grid(), 2));
    trace::uninstall();

    assert_eq!(golden, traced, "tracing must be a pure observer");
    assert!(
        *tracer.walks.lock().unwrap() > 0,
        "the traced run must actually have emitted walk records"
    );
}

#[test]
fn spans_do_not_perturb_reports_and_nest_well_formed() {
    let _guard = override_guard();
    trace::uninstall();
    let golden = fingerprints(&run_cells("obs:spans-off", grid(), 1));

    let tracer = Arc::new(SpanCollector::default());
    let channels = Channels {
        spans: true,
        ..Channels::default()
    };
    trace::install(tracer.clone(), channels);
    let spanned_t1 = fingerprints(&run_cells("obs:spans-t1", grid(), 1));
    let spanned_t4 = fingerprints(&run_cells("obs:spans-t4", grid(), 4));
    trace::uninstall();

    assert_eq!(golden, spanned_t1, "spans must be pure observers");
    assert_eq!(golden, spanned_t4, "spans must not perturb parallel runs");

    let spans = tracer.spans.lock().unwrap();
    assert!(!spans.is_empty(), "the spanned runs must emit span records");
    for (name, path, depth) in spans.iter() {
        assert_eq!(
            *depth,
            path.split(';').count() as u64,
            "depth must count the path segments: {path:?}"
        );
        assert_eq!(
            Some(name.as_str()),
            path.split(';').next_back(),
            "name must be the last path segment: {path:?}"
        );
    }
    // The runner/engine taxonomy must actually nest: a measure-phase
    // span under its cell.
    assert!(
        spans
            .iter()
            .any(|(_, path, _)| path == "cell;engine.measure"),
        "expected the nested cell;engine.measure path"
    );
}

#[test]
fn walk_trace_matches_walker_statistics_exactly() {
    let _guard = override_guard();
    trace::uninstall();

    // No warm-up: the report's stats then cover *every* walk, so the
    // trace must match them without any windowing slack.
    let mut opts = SimOptions::small_test();
    opts.warmup_ops = 0;
    opts.measure_ops = 4_000;

    let tracer = Arc::new(CollectingTracer::default());
    trace::install(
        tracer.clone(),
        Channels {
            walks: true,
            ..Channels::default()
        },
    );
    let report = NativeSimulation::build(
        WorkloadSpec::gups().scaled_mib(16),
        TranslationConfig::flattened_prioritized(),
        &opts,
    )
    .run();
    trace::uninstall();

    let (walks, accesses, steps, levels) = *tracer.agg.lock().unwrap();
    assert_eq!(walks, report.walk.walks, "one record per page walk");
    assert_eq!(accesses, report.walk.accesses, "accesses must agree");
    assert_eq!(steps, accesses, "each access appears as one traced step");
    assert_eq!(
        levels,
        [
            report.walk.step_hits.l1,
            report.walk.step_hits.l2,
            report.walk.step_hits.l3,
            report.walk.step_hits.dram,
        ],
        "per-level step tally must agree with StepHits"
    );
}
