//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds`, checks the modelled output,
//! and prints as its last stdout line one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Optional:
//! `--faults <seed>[:profile]` installs a fault plan, `--threads <n>`
//! overrides the worker count (default: available parallelism).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use flatwalk_faults::FaultPlan;
use flatwalk_os::FragmentationScenario;
use flatwalk_perfbench::grid::{self, CellKind, GridWorkload, Pass};
use flatwalk_perfbench::report::{self, Outcome};
use flatwalk_perfbench::{layers, serve, stats, DEFAULT_SEED, WORKLOADS};
use flatwalk_sim::SimReport;
use flatwalk_types::stats::geometric_mean;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    faults: Option<FaultPlan>,
    threads: usize,
}

const USAGE: &str = "usage: perfbench --workload <native_grid|virt_multicore_numa|serve_mixed> --seed <n> --seconds <s> --trace <0|1> [--faults <seed>[:profile]] [--threads <n>]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    let (mut faults, mut threads) = (None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--trace" => trace = number(value()?)? != 0,
            "--threads" => threads = Some(number(value()?)? as usize),
            "--faults" => {
                faults = Some(FaultPlan::parse(&value()?).map_err(|e| format!("--faults: {e}"))?)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let threads = flatwalk_sim::runner::resolve_threads(threads).min(nproc());
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        faults,
        threads,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints the run record: where and how this run was made, and which
/// inputs the seed reaches.
fn print_record(args: &Args) {
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} threads={} nproc={} rev={} rustc={:?} faults={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.threads,
        nproc(),
        report::git_rev(),
        report::rustc_version(),
        args.faults.map_or("none".to_string(), |p| format!("{}:{}", p.seed, p.profile.name())),
    );
    let reach = match args.workload.as_str() {
        "native_grid" => "seed reaches: WorkloadSpec.seed of every cell (XOR)",
        "virt_multicore_numa" => "seed reaches: WorkloadSpec.seed of the virtualized and rival cells (XOR); not reached: multicore cells (MulticoreSimulation::build takes its specs by name)",
        _ => "seed reaches: each client's request order and the cold submits' warmup_ops/measure_ops overrides; not reached: the served grids' cells (the server builds registered grids)",
    };
    println!("perfbench: {reach}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(plan) = args.faults {
        flatwalk_faults::install(plan);
    }
    print_record(&args);
    let outcome = match args.workload.as_str() {
        "native_grid" => run_grid(&args, grid::native_grid(args.seed)),
        "virt_multicore_numa" => run_grid(&args, grid::virt_multicore_numa(args.seed)),
        _ => match serve::run(
            args.seed,
            Duration::from_secs(args.seconds),
            args.threads,
            args.trace,
        ) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: serve_mixed: {e}");
                return ExitCode::from(1);
            }
        },
    };
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

/// Passes a grid run makes at least: cold, warm, cold, warm — two
/// set-ups to take the median of, and two warm passes so the warm p90
/// has ten samples beyond it.
const MIN_PASSES: usize = 4;

fn run_grid(args: &Args, workload: GridWorkload) -> Outcome {
    if args.trace {
        return run_grid_traced(args, &workload);
    }
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // Peak memory of the first, cold pass: what a fresh grid process
    // needs. Later cold passes rebuild into allocator arenas whose reuse
    // depends on which thread built what, which only adds noise.
    let mut first_pass_rss = None;
    loop {
        let pass = workload.run_pass(args.threads, passes.len().is_multiple_of(2));
        first_pass_rss = first_pass_rss.or_else(report::peak_rss_mib);
        println!(
            "perfbench: pass {} ({}) {:.3} s, set-up {:.3} s, {} set-up builds, host-speed scale {:.3}",
            passes.len(),
            if pass.cold { "cold" } else { "warm" },
            pass.wall.as_secs_f64(),
            pass.setup.setup_nanos as f64 / 1e9,
            pass.setup.misses,
            pass.scale,
        );
        passes.push(pass);
        // The next pass repeats the kind of the one before last.
        let next = passes[passes.len().saturating_sub(2)].wall;
        if passes.len() >= MIN_PASSES && start.elapsed() + next > budget {
            break;
        }
    }
    let mut outcome = report::grid_outcome(&args.workload, args.seed, &passes);
    orientation_rows(&passes[0]);
    // Host times below are at the reference host speed: each pass's
    // durations times its calibration scale.
    let cold: Vec<&Pass> = passes.iter().filter(|p| p.cold).collect();
    let cold_wall: f64 = cold.iter().map(|p| p.wall.as_secs_f64() * p.scale).sum();
    let raw_wall: f64 = cold.iter().map(|p| p.wall.as_secs_f64()).sum();
    let cold_ops: u64 = cold.iter().flat_map(|p| &p.results).map(|r| r.ops).sum();
    let cold_cells = cold.iter().map(|p| p.results.len()).sum::<usize>();
    let latencies = |want_cold: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.cold == want_cold)
            .flat_map(|p| {
                p.results
                    .iter()
                    .filter(|r| r.digest.is_some())
                    .map(|r| r.nanos as f64 / 1e6 * p.scale)
            })
            .collect()
    };
    let (warm, cold_lat) = (latencies(false), latencies(true));
    println!(
        "perfbench: {} warm cell samples (highest reportable percentile p{}), {} cold; unscaled sim_mops {:.4}",
        warm.len(),
        stats::highest_percentile(warm.len()).unwrap_or(0.0),
        cold_lat.len(),
        cold_ops as f64 / raw_wall / 1e6,
    );
    let setups: Vec<f64> = cold
        .iter()
        .map(|p| p.setup.setup_nanos as f64 / 1e9 * p.scale)
        .collect();
    let mut m = report::Metrics::default();
    m.put("sim_mops", cold_ops as f64 / cold_wall / 1e6, "Mops/s");
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
        stats::percentile(&cold_lat, 50.0).unwrap_or(0.0),
        "ms",
    );
    m.put("req_per_s", cold_cells as f64 / cold_wall, "req/s");
    m.put("peak_rss_mib", first_pass_rss.unwrap_or(0.0), "MiB");
    outcome.metrics = report::end_to_end(m);
    outcome
}

/// Prints the paper-orientation rows: modelled geomean speedup and mean
/// accesses per walk against the paper's headline figures. Quick scale
/// and unvalidated; they gate nothing.
fn orientation_rows(pass: &Pass) {
    let pick = |kind: CellKind, config: &str, prefix: &str, suffix: &str| -> Vec<SimReport> {
        pass.results
            .iter()
            .filter(|r| r.kind == kind && r.label.starts_with(prefix) && r.label.ends_with(suffix))
            .flat_map(|r| r.reports.iter().filter(|rep| rep.config == config).cloned())
            .collect()
    };
    let row = |name: &str, base: &[SimReport], new: &[SimReport], paper: &str| {
        if base.is_empty() || base.len() != new.len() {
            return;
        }
        let speedups: Vec<f64> = new.iter().zip(base).map(|(n, b)| n.speedup_vs(b)).collect();
        let acc = |rs: &[SimReport]| {
            rs.iter().map(|r| r.walk.accesses_per_walk()).sum::<f64>() / rs.len() as f64
        };
        println!(
            "perfbench: orientation (quick scale, unvalidated, gates nothing) {name}: geomean speedup {:+.1} %, accesses/walk {:.2} -> {:.2}; paper {paper}",
            (geometric_mean(&speedups).unwrap_or(1.0) - 1.0) * 100.0,
            acc(base),
            acc(new),
        );
    };
    let lp0 = FragmentationScenario::NONE.label();
    row(
        "native FPT+PTP vs Base (0 % LP)",
        &pick(CellKind::Native, "Base", "native/", &format!("/Base/{lp0}")),
        &pick(
            CellKind::Native,
            "FPT+PTP",
            "native/",
            &format!("/FPT+PTP/{lp0}"),
        ),
        "+9.2 %, 1.5 -> 1.0",
    );
    row(
        "virtualized GF+HF+PTP vs Base-2D",
        &pick(CellKind::Virt, "Base-2D", "virt/", ""),
        &pick(CellKind::Virt, "GF+HF+PTP", "virt/", ""),
        "+14.0 %, 4.4 -> 2.8",
    );
}

/// The traced grid run: one cold pass untraced, the same pass again
/// with the program's spans on, then the per-layer replays.
fn run_grid_traced(args: &Args, workload: &GridWorkload) -> Outcome {
    let untraced = workload.run_pass(args.threads, true);
    let traced = layers::with_program_spans(|| workload.run_pass(args.threads, true));
    let passes = [untraced, traced];
    let mut outcome = report::grid_outcome(&args.workload, args.seed, &passes);
    let [untraced, traced] = passes;
    let mut m = layers::grid_layers(workload, &traced, args.threads);
    m.put(
        "obs.trace_overhead_frac",
        (traced.wall.as_secs_f64() * traced.scale) / (untraced.wall.as_secs_f64() * untraced.scale)
            - 1.0,
        "ratio",
    );
    outcome.metrics = layers::complete(m, &args.workload);
    outcome
}
