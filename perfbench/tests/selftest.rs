//! Self-tests of the benchmark: metric naming, the percentile rule,
//! failure counting under a poison fault, and digest seeding. Run with
//! `--release`; a debug build simulates far slower.

use std::sync::Arc;

use flatwalk_faults::FaultPlan;
use flatwalk_obs::{json, Json};
use flatwalk_perfbench::grid::{self, GridWorkload};
use flatwalk_perfbench::layers::PER_LAYER;
use flatwalk_perfbench::report::{self, END_TO_END};
use flatwalk_perfbench::{digest, stats};
use flatwalk_sim::runner::Cell;
use flatwalk_sim::{SimOptions, VirtualizedSimulation};

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn benchmark_names(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{key} entry without {k}: {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json() {
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
    all.sort_unstable();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "metric names are unique");
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(benchmark_names("end_to_end"), pairs(&END_TO_END));
    assert_eq!(benchmark_names("per_layer"), pairs(&PER_LAYER));
}

#[test]
fn percentile_rule_picks_highest_with_ten_beyond() {
    assert_eq!(stats::highest_percentile(19), None);
    assert_eq!(stats::highest_percentile(20), Some(50.0));
    assert_eq!(stats::highest_percentile(99), Some(50.0));
    assert_eq!(stats::highest_percentile(100), Some(90.0));
    assert_eq!(stats::highest_percentile(999), Some(90.0));
    assert_eq!(stats::highest_percentile(1000), Some(99.0));
    assert_eq!(stats::highest_percentile(10_000), Some(99.9));
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::percentile(&v, 90.0), Some(90.0));
    assert_eq!(stats::samples_beyond(100, 90.0), 10);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
}

/// Quick-scale options shrunk so a cell runs in milliseconds.
fn small(opts: &SimOptions) -> SimOptions {
    let mut o = opts.clone();
    o.warmup_ops = 500;
    o.measure_ops = 2_000;
    o.footprint_divisor = 512;
    o
}

fn shrink(cell: &Cell) -> Cell {
    let mut c = cell.clone();
    c.opts = Arc::new(small(&cell.opts));
    c
}

fn small_native_grid(seed: u64, cells: usize) -> GridWorkload {
    let mut w = grid::native_grid(seed);
    w.cells.truncate(cells);
    for (_, cell) in &mut w.cells {
        *cell = shrink(cell);
    }
    w
}

#[test]
fn poison_cell_counts_as_failed() {
    let workload = small_native_grid(1, 6);
    let clean = report::grid_outcome("native_grid", 1, &[workload.run_pass(1, true)]);
    assert_eq!(clean.failed, 0);
    assert!(clean.correct);
    let plan = FaultPlan::parse("7:poison").expect("poison plan parses");
    // One worker: the cells run on this thread, inside the scoped plan.
    let _scope = flatwalk_faults::scoped(Some(plan));
    let pass = workload.run_pass(1, true);
    let poisoned = report::grid_outcome("native_grid", 1, &[pass]);
    assert!(poisoned.failed >= 1, "a poisoned cell fails");
    assert!(poisoned.attempted >= workload.len() as u64);
}

fn native_digest(seed: u64) -> u64 {
    let w = grid::native_grid(seed);
    let cell = shrink(&w.cells[0].1);
    digest::report_digest(&cell.run())
}

fn virt_digest(seed: u64) -> u64 {
    let w = grid::virt_multicore_numa(seed);
    let (_, spec, cfg) = w.virt[0].clone();
    let report = VirtualizedSimulation::build(spec, cfg, &small(&w.virt_opts)).run();
    digest::report_digest(&report)
}

fn rival_digest(seed: u64) -> u64 {
    let w = grid::virt_multicore_numa(seed);
    let (_, cell) = w
        .cells
        .iter()
        .find(|(_, c)| c.rival.is_some())
        .expect("the numa grid has rival cells");
    digest::report_digest(&shrink(cell).run())
}

#[test]
fn same_seed_reproduces_digests_and_another_seed_changes_them() {
    for (name, f) in [
        ("native", native_digest as fn(u64) -> u64),
        ("virtualized", virt_digest),
        ("rival", rival_digest),
    ] {
        assert_eq!(f(3), f(3), "{name} digest repeats at one seed");
        assert_ne!(f(3), f(4), "{name} digest follows the seed");
    }
}
