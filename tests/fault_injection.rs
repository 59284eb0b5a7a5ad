//! Deterministic fault injection end-to-end: a fault plan is part of
//! the experiment's identity, so the same seed must produce the same
//! faults — and therefore byte-identical reports — at any thread
//! count; injected allocation failures must actually exercise the
//! §3.2 fallback path; and a poisoned cell must fail structurally
//! without taking the rest of the grid with it.
//!
//! The installed fault plan is process-global, so every test holds
//! [`plan_guard`] for its whole body and clears the plan on drop.

use std::sync::{Mutex, MutexGuard};

use flatwalk::faults::{self, FaultPlan};
use flatwalk::os::FragmentationScenario;
use flatwalk::sim::runner::{run_cells_timed, Cell, CellOutcome};
use flatwalk::sim::{SimOptions, TranslationConfig};
use flatwalk::workloads::WorkloadSpec;

/// Serializes tests that install the process-global fault plan.
fn plan_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the installed plan even if the test body panics.
struct PlanScope;

impl PlanScope {
    fn install(spec: &str) -> PlanScope {
        faults::install(FaultPlan::parse(spec).expect("valid plan spec"));
        PlanScope
    }
}

impl Drop for PlanScope {
    fn drop(&mut self) {
        faults::clear();
    }
}

/// A small grid with flattened configs (so table growth wants 2 MB
/// allocations) across two scenarios.
fn grid() -> Vec<Cell> {
    let mut opts = SimOptions::small_test();
    opts.warmup_ops = 500;
    opts.measure_ops = 3_000;
    let workloads = [
        WorkloadSpec::gups().scaled_mib(16),
        WorkloadSpec::dc().scaled_mib(16),
        WorkloadSpec::gups().scaled_mib(32),
    ];
    let configs = [
        TranslationConfig::flattened(),
        TranslationConfig::flattened_prioritized(),
    ];
    let scenarios = [FragmentationScenario::NONE, FragmentationScenario::HALF];
    let mut cells = Vec::new();
    for scenario in scenarios {
        for cfg in &configs {
            for w in &workloads {
                cells.push(Cell::new(w.clone(), cfg.clone(), scenario, opts.clone()));
            }
        }
    }
    cells
}

/// Per-cell report JSON strings (the manifest-free part of the
/// `--json` output, which is what must be thread-invariant).
fn report_jsons(outcomes: &[CellOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| match o {
            CellOutcome::Ok { report, .. } => report.to_json().to_string(),
            CellOutcome::Failed { error, .. } => panic!("unexpected failed cell: {error}"),
        })
        .collect()
}

#[test]
fn same_plan_is_byte_identical_across_thread_counts() {
    let _guard = plan_guard();
    let _plan = PlanScope::install("11:chaos");
    let one = report_jsons(&run_cells_timed("faults-det-t1", grid(), 1));
    let four = report_jsons(&run_cells_timed("faults-det-t4", grid(), 4));
    assert_eq!(
        one, four,
        "a seeded fault plan must replay identically at 1 and 4 threads"
    );
    // The chaos plan must actually have injected something, or this
    // test is vacuous.
    let injected = one.iter().any(|j| !j.contains("\"faults_injected\":0"));
    assert!(injected, "chaos plan injected no faults into any cell");
}

#[test]
fn alloc_faults_force_fallback_nodes() {
    let _guard = plan_guard();
    faults::clear();
    let clean: u64 = run_cells_timed("faults-clean", grid(), 2)
        .iter()
        .map(|o| {
            o.report()
                .expect("clean run cannot fail")
                .census
                .fallback_nodes
        })
        .sum();

    let _plan = PlanScope::install("7:alloc");
    let faulted: u64 = run_cells_timed("faults-alloc", grid(), 2)
        .iter()
        .map(|o| {
            o.report()
                .expect("alloc faults are transient, not fatal")
                .census
                .fallback_nodes
        })
        .sum();
    assert!(
        faulted > clean,
        "injected 2 MB allocation failures must strictly increase fallback \
         nodes (clean {clean}, faulted {faulted})"
    );
}

#[test]
fn poison_fails_exactly_one_cell_and_completes_the_rest() {
    let _guard = plan_guard();
    let _plan = PlanScope::install("3:poison");
    let outcomes = run_cells_timed("faults-poison", grid(), 2);
    let total = outcomes.len();
    let failed: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_failed())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        failed.len(),
        1,
        "a poison plan must fail exactly one cell of {total}, got {failed:?}"
    );
    for (i, o) in outcomes.iter().enumerate() {
        match o {
            CellOutcome::Ok { report, .. } => {
                assert!(report.instructions > 0, "cell {i} produced an empty report");
            }
            CellOutcome::Failed { error, .. } => {
                assert!(
                    error.contains("poison"),
                    "cell {i} failed for the wrong reason: {error}"
                );
            }
        }
    }
}
