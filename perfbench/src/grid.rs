//! The two grid workloads, `native_grid` and `virt_multicore_numa`:
//! quick-scale experiment grids run through the simulator's own
//! runner, pass after pass, alternating a cold set-up cache (what a
//! fresh grid process pays) with a warm one (what a long-lived process
//! such as the server pays).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use flatwalk_bench::{grids, Mode};
use flatwalk_sim::runner::{self, Cell, CellOutcome, Progress};
use flatwalk_sim::setup::{self, SetupStats};
use flatwalk_sim::{
    multicore_options, table2_mixes, Mix, MulticoreSimulation, SimOptions, SimReport,
    TranslationConfig, VirtConfig, VirtualizedSimulation,
};
use flatwalk_workloads::WorkloadSpec;

use crate::{calib, digest};

/// One grid workload: every cell of one pass, in declaration order.
#[derive(Debug, Clone)]
pub struct GridWorkload {
    /// Virtualized cells (Fig. 12 set × quick suite).
    pub virt: Vec<(String, WorkloadSpec, VirtConfig)>,
    /// Four-core cells (Table 2 mixes × Fig. 9 configs).
    pub multicore: Vec<(String, Mix, TranslationConfig)>,
    /// Native and rival cells, run through `runner::run_cells_timed`.
    pub cells: Vec<(String, Cell)>,
    /// Options of the virtualized cells.
    pub virt_opts: SimOptions,
    /// Options of the multicore cells (the `fig11 --quick` scaling).
    pub mc_opts: SimOptions,
}

/// How one cell of one pass ended.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Display label, unique within the workload.
    pub label: String,
    /// Digest of the modelled statistics; `None` when the cell failed.
    pub digest: Option<u64>,
    /// Failure text, when the cell failed.
    pub error: Option<String>,
    /// Host nanoseconds the cell spent in set-up and run.
    pub nanos: u64,
    /// Simulated memory accesses (warm-up + measured, × cores).
    pub ops: u64,
    /// The cell's reports (one per core), empty when it failed.
    pub reports: Vec<SimReport>,
    /// Attempts made: one, plus the runner's retries.
    pub attempts: u64,
    /// Attempts that failed, including a retried cell's first try.
    pub failed_attempts: u64,
    /// Which engine ran the cell.
    pub kind: CellKind,
}

/// The engine path a cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// Native single-core simulation.
    Native,
    /// A rival scheme (Victima, Mitosis, NUMA-Base).
    Rival,
    /// Virtualized (2-D) simulation.
    Virt,
    /// Four-core simulation over a shared LLC.
    Multicore,
}

/// One pass over every cell of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Whether the set-up cache was emptied before the pass.
    pub cold: bool,
    /// Per-cell results in declaration order.
    pub results: Vec<CellResult>,
    /// Host wall time of the pass.
    pub wall: Duration,
    /// Set-up cache activity during the pass.
    pub setup: SetupStats,
    /// Factor that expresses the pass's host times at the reference
    /// host speed (see [`crate::calib`]).
    pub scale: f64,
}

fn reseed(spec: &mut WorkloadSpec, seed: u64) {
    spec.seed ^= seed;
}

fn reseeded_cells(grid: grids::Grid, seed: u64) -> Vec<(String, Cell)> {
    grid.labels
        .into_iter()
        .zip(grid.cells)
        .map(|(label, mut cell)| {
            reseed(&mut cell.workload, seed);
            (label, cell)
        })
        .collect()
}

/// `native_grid`: the registered `fig09_base` + `fig09_native` grids at
/// quick scale, each cell's workload seed XORed with `seed`.
pub fn native_grid(seed: u64) -> GridWorkload {
    let opts = Mode::Quick.server_options();
    let mut cells = reseeded_cells(grids::fig09_base(Mode::Quick, &opts), seed);
    for (label, cell) in reseeded_cells(grids::fig09_native(Mode::Quick, &opts), seed) {
        cells.push((format!("native/{label}"), cell));
    }
    for (label, _) in cells.iter_mut().take(grids::fig09_suite(Mode::Quick).len()) {
        *label = format!("base/{label}");
    }
    GridWorkload {
        virt: Vec::new(),
        multicore: Vec::new(),
        cells,
        virt_opts: opts.clone(),
        mc_opts: opts,
    }
}

/// The `fig11 --quick` multicore options.
pub fn quick_multicore_options() -> SimOptions {
    let mut opts = multicore_options();
    opts.footprint_divisor = 16;
    opts.phys_mem_bytes = 8 << 30;
    opts.warmup_ops = 40_000;
    opts.measure_ops = 100_000;
    opts
}

/// The `fig12 --quick` workload suite.
pub fn fig12_quick_suite() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::bfs(),
        WorkloadSpec::dc(),
        WorkloadSpec::mcf(),
        WorkloadSpec::xsbench(),
        WorkloadSpec::gups(),
    ]
}

/// `virt_multicore_numa`: the Fig. 12 virtualized set, the Table 2
/// mixes under the Fig. 9 configs, and the `numa_rivals` grid, all at
/// quick scale. The seed reaches the virtualized and rival cells'
/// workload seeds; multicore cells name their benchmarks, so it cannot
/// reach them.
pub fn virt_multicore_numa(seed: u64) -> GridWorkload {
    let opts = Mode::Quick.server_options();
    let mut virt = Vec::new();
    for cfg in VirtConfig::fig12_set() {
        for mut w in fig12_quick_suite() {
            reseed(&mut w, seed);
            virt.push((format!("virt/{}/{}", cfg.label, w.name), w, cfg));
        }
    }
    let mut multicore = Vec::new();
    for cfg in TranslationConfig::fig9_set() {
        for mix in table2_mixes() {
            multicore.push((format!("mc/{}/mix{}", cfg.label, mix.id), mix, cfg.clone()));
        }
    }
    let cells = reseeded_cells(grids::numa_rivals(Mode::Quick, &opts), seed)
        .into_iter()
        .map(|(label, cell)| (format!("numa/{label}"), cell))
        .collect();
    GridWorkload {
        virt,
        multicore,
        cells,
        virt_opts: opts,
        mc_opts: quick_multicore_options(),
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

fn failed(label: String, kind: CellKind, error: String, nanos: u64) -> CellResult {
    CellResult {
        label,
        digest: None,
        error: Some(error),
        nanos,
        ops: 0,
        reports: Vec::new(),
        attempts: 1,
        failed_attempts: 1,
        kind,
    }
}

impl GridWorkload {
    /// Cells in one pass.
    pub fn len(&self) -> usize {
        self.virt.len() + self.multicore.len() + self.cells.len()
    }

    /// Whether a pass has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs every cell once on `threads` workers. A cold pass empties
    /// the process-wide set-up cache first.
    pub fn run_pass(&self, threads: usize, cold: bool) -> Pass {
        if cold {
            setup::clear_setup_cache();
        }
        let before = setup::setup_stats();
        let calibrator = calib::Calibrator::start();
        let start = Instant::now();
        let mut results = self.run_virt(threads);
        results.extend(self.run_multicore(threads));
        results.extend(self.run_cells(threads));
        let wall = start.elapsed();
        Pass {
            cold,
            results,
            wall,
            setup: setup::setup_stats().since(&before),
            scale: calibrator.finish(),
        }
    }

    fn run_virt(&self, threads: usize) -> Vec<CellResult> {
        let ops = self.virt_opts.warmup_ops + self.virt_opts.measure_ops;
        let progress = Progress::quiet(self.virt.len());
        runner::run_ordered(
            self.virt.clone(),
            threads,
            &progress,
            |_| ops,
            |(label, spec, cfg)| {
                let start = Instant::now();
                let run = catch_unwind(AssertUnwindSafe(|| {
                    VirtualizedSimulation::build(spec, cfg, &self.virt_opts).try_run()
                }));
                let nanos = start.elapsed().as_nanos() as u64;
                match run {
                    Ok(Ok(report)) => CellResult {
                        label,
                        digest: Some(digest::report_digest(&report)),
                        error: None,
                        nanos,
                        ops,
                        reports: vec![report],
                        attempts: 1,
                        failed_attempts: 0,
                        kind: CellKind::Virt,
                    },
                    Ok(Err(e)) => failed(label, CellKind::Virt, e.to_string(), nanos),
                    Err(p) => failed(label, CellKind::Virt, panic_text(p), nanos),
                }
            },
        )
    }

    fn run_multicore(&self, threads: usize) -> Vec<CellResult> {
        let ops = 4 * (self.mc_opts.warmup_ops + self.mc_opts.measure_ops);
        let progress = Progress::quiet(self.multicore.len());
        runner::run_ordered(
            self.multicore.clone(),
            threads,
            &progress,
            |_| ops,
            |(label, mix, cfg)| {
                let start = Instant::now();
                let run = catch_unwind(AssertUnwindSafe(|| {
                    MulticoreSimulation::build(&mix, cfg, &self.mc_opts).try_run()
                }));
                let nanos = start.elapsed().as_nanos() as u64;
                match run {
                    Ok(Ok(report)) => CellResult {
                        label,
                        digest: Some(digest::reports_digest(&report.cores)),
                        error: None,
                        nanos,
                        ops,
                        reports: report.cores,
                        attempts: 1,
                        failed_attempts: 0,
                        kind: CellKind::Multicore,
                    },
                    Ok(Err(e)) => failed(label, CellKind::Multicore, e.to_string(), nanos),
                    Err(p) => failed(label, CellKind::Multicore, panic_text(p), nanos),
                }
            },
        )
    }

    fn run_cells(&self, threads: usize) -> Vec<CellResult> {
        if self.cells.is_empty() {
            return Vec::new();
        }
        let cells: Vec<Cell> = self.cells.iter().map(|(_, c)| c.clone()).collect();
        let outcomes = runner::run_cells_timed("perfbench", cells, threads);
        self.cells
            .iter()
            .zip(outcomes)
            .map(|((label, cell), outcome)| {
                let kind = if cell.rival.is_some() {
                    CellKind::Rival
                } else {
                    CellKind::Native
                };
                match outcome {
                    CellOutcome::Ok {
                        report,
                        setup_nanos,
                        run_nanos,
                        retries,
                    } => CellResult {
                        label: label.clone(),
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
                        attempts: 1 + u64::from(retries),
                        failed_attempts: 1 + u64::from(retries),
                        ..failed(label.clone(), kind, error, 0)
                    },
                }
            })
            .collect()
    }
}
