//! Per-layer metrics of the traced run.
//!
//! Counts and ratios come from the `SimReport`s of the traced pass.
//! Host costs come from outside: the benchmark replays one sample
//! cell's access stream through each layer's public call in turn —
//! stream fill, table resolve, TLB lookup, page walk, data access,
//! cache probe, DRAM access — on fresh state, so no call is counted
//! twice, and times each loop. Each engine's cost per call times its
//! report counts, set against the measured engine run of that cell,
//! leaves the residual the calls do not explain.

use std::sync::Arc;
use std::time::Instant;

use flatwalk_mem::{Cache, DramModel, MemoryHierarchy};
use flatwalk_mmu::{AddressSpace as MmuSpace, Mmu, NestedTables, NestedWalker, PageWalker};
use flatwalk_obs::trace::{self, Channels, Tracer};
use flatwalk_os::{AddressSpaceSpec, FragmentationScenario};
use flatwalk_pt::Layout;
use flatwalk_sim::runner::Cell;
use flatwalk_sim::{
    setup, MulticoreSimulation, NativeSimulation, RivalKind, SimOptions, SimReport, VirtConfig,
    VirtualizedSimulation,
};
use flatwalk_tlb::{Pwc, TlbSystem};
use flatwalk_types::{AccessKind, OwnerId, PhysAddr, VirtAddr};
use flatwalk_workloads::{AccessStream, WorkloadSpec};

use crate::grid::{CellResult, GridWorkload, Pass};
use crate::report::Metrics;
use crate::stats;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("setup.builds", "count"),
    ("setup.hits", "count"),
    ("setup.build_ms", "ms"),
    ("setup.stream_ms", "ms"),
    ("runner.cells", "count"),
    ("runner.busy_frac", "ratio"),
    ("runner.cell_p50_ms", "ms"),
    ("runner.cell_max_ms", "ms"),
    ("engine.ops", "count"),
    ("engine.native.ns_per_op", "ns"),
    ("engine.native.residual_frac", "ratio"),
    ("engine.virt.ns_per_op", "ns"),
    ("engine.virt.residual_frac", "ratio"),
    ("engine.multicore.ns_per_op", "ns"),
    ("engine.multicore.residual_frac", "ratio"),
    ("workloads.fill_ns", "ns"),
    ("mmu.walks", "count"),
    ("mmu.batch_ns", "ns"),
    ("mmu.walk_ns", "ns"),
    ("mmu.nested.walk_ns", "ns"),
    ("tlb.lookups", "count"),
    ("tlb.lookup_ns", "ns"),
    ("tlb.walk_ratio", "ratio"),
    ("tlb.pwc.lookup_ns", "ns"),
    ("tlb.pwc.hit_ratio", "ratio"),
    ("pt.resolve_ns", "ns"),
    ("pt.steps_per_walk", "count"),
    ("mem.accesses", "count"),
    ("mem.access_ns", "ns"),
    ("mem.cache.probe_ns", "ns"),
    ("mem.l2.pt_hit_ratio", "ratio"),
    ("mem.l3.pt_hit_ratio", "ratio"),
    ("mem.dram.accesses", "count"),
    ("mem.dram.access_ns", "ns"),
    ("mem.numa.remote_frac", "ratio"),
    ("baselines.victima.ns_per_op", "ns"),
    ("baselines.mitosis.ns_per_op", "ns"),
    ("serve.server_submit_p50_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.first_event_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.rcache.hit_ratio", "ratio"),
    ("serve.store.hits", "count"),
    ("serve.store.writes", "count"),
    ("serve.store.open_ms", "ms"),
    ("serve.store.get_us", "us"),
    ("serve.store.put_ms", "ms"),
    ("serve.cell_key_us", "us"),
    ("serve.reply_kib", "KiB"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.program_span_ms", "ms"),
];

/// Discards every record: the program's spans are aggregated in memory
/// by `flatwalk_obs::span` whether or not a sink writes them out.
struct NullTracer;

impl Tracer for NullTracer {}

/// Runs `f` with the program's own spans switched on, then prints the
/// heaviest span paths.
pub fn with_program_spans<R>(f: impl FnOnce() -> R) -> R {
    flatwalk_obs::span::reset();
    let channels = Channels::parse("spans").expect("the spans channel exists");
    trace::install(Arc::new(NullTracer), channels);
    let out = f();
    trace::uninstall();
    let mut spans = flatwalk_obs::span::folded_snapshot();
    spans.sort_by_key(|(_, agg)| std::cmp::Reverse(agg.nanos));
    for (path, agg) in spans.iter().take(8) {
        println!(
            "perfbench: program span {path}: {} closed, {:.3} ms",
            agg.count,
            agg.nanos as f64 / 1e6
        );
    }
    out
}

/// Total time inside the program's top-level spans since the last
/// [`with_program_spans`], in ms.
pub fn program_span_ms() -> f64 {
    flatwalk_obs::span::folded_snapshot()
        .iter()
        .filter(|(path, _)| !path.contains(';'))
        .map(|(_, agg)| agg.nanos as f64 / 1e6)
        .sum()
}

/// Fills in every per-layer metric the run did not measure with 0 and
/// names it absent, then orders the metrics as [`PER_LAYER`] does.
pub fn complete(mut m: Metrics, workload: &str) -> Metrics {
    let mut absent = Vec::new();
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        let value = m.get(name).unwrap_or_else(|| {
            absent.push(name);
            0.0
        });
        out.put(name, value, unit);
    }
    m.0.retain(|(n, _, _)| !PER_LAYER.iter().any(|(p, _)| p == n));
    for (name, value, unit) in m.0 {
        eprintln!("perfbench: unlisted metric {name} = {value} {unit}");
    }
    if !absent.is_empty() {
        println!(
            "perfbench: absent in {workload} (layer idle in this workload, reported as 0): {}",
            absent.join(", ")
        );
    }
    out
}

fn sum(results: &[&CellResult], f: impl Fn(&SimReport) -> u64) -> u64 {
    results.iter().flat_map(|r| &r.reports).map(f).sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Counts and ratios over the cells' reports.
pub fn report_counts(m: &mut Metrics, results: &[CellResult]) {
    let ok: Vec<&CellResult> = results.iter().filter(|r| r.digest.is_some()).collect();
    m.put(
        "engine.ops",
        ok.iter().map(|r| r.ops).sum::<u64>() as f64,
        "count",
    );
    let walks = sum(&ok, |r| r.walk.walks);
    let lookups = sum(&ok, |r| r.tlb.translations);
    m.put("mmu.walks", walks as f64, "count");
    m.put("tlb.lookups", lookups as f64, "count");
    m.put(
        "tlb.walk_ratio",
        ratio(sum(&ok, |r| r.tlb.walks), lookups),
        "ratio",
    );
    let pwc_hits = sum(&ok, |r| r.pwc.iter().map(|(_, hm)| hm.hits).sum());
    let pwc_all = sum(&ok, |r| {
        r.pwc.iter().map(|(_, hm)| hm.hits + hm.misses).sum()
    });
    m.put("tlb.pwc.hit_ratio", ratio(pwc_hits, pwc_all), "ratio");
    m.put(
        "pt.steps_per_walk",
        ratio(sum(&ok, |r| r.walk.accesses), walks),
        "count",
    );
    m.put(
        "mem.accesses",
        sum(&ok, |r| r.hier.l1.probes()) as f64,
        "count",
    );
    let pt_ratio = |level: fn(&SimReport) -> flatwalk_types::stats::HitMiss| {
        let hits = sum(&ok, |r| level(r).hits);
        ratio(hits, hits + sum(&ok, |r| level(r).misses))
    };
    m.put(
        "mem.l2.pt_hit_ratio",
        pt_ratio(|r| r.hier.l2.page_table),
        "ratio",
    );
    m.put(
        "mem.l3.pt_hit_ratio",
        pt_ratio(|r| r.hier.l3.page_table),
        "ratio",
    );
    m.put(
        "mem.dram.accesses",
        sum(&ok, |r| r.hier.dram.total()) as f64,
        "count",
    );
    let remote = sum(&ok, |r| r.hier.numa.remote());
    m.put(
        "mem.numa.remote_frac",
        ratio(remote, remote + sum(&ok, |r| r.hier.numa.local())),
        "ratio",
    );
    let cell_ms: Vec<f64> = ok.iter().map(|r| r.nanos as f64 / 1e6).collect();
    m.put("runner.cells", results.len() as f64, "count");
    m.put(
        "runner.cell_p50_ms",
        stats::median(&cell_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "runner.cell_max_ms",
        cell_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
}

/// Per-layer metrics of a traced grid pass.
pub fn grid_layers(workload: &GridWorkload, pass: &Pass, threads: usize) -> Metrics {
    let mut m = Metrics::default();
    report_counts(&mut m, &pass.results);
    m.put("setup.builds", pass.setup.misses as f64, "count");
    m.put("setup.hits", pass.setup.hits as f64, "count");
    let busy: u64 = pass.results.iter().map(|r| r.nanos).sum();
    m.put(
        "runner.busy_frac",
        busy as f64 / (pass.wall.as_nanos() as f64 * threads as f64),
        "ratio",
    );
    m.put("obs.program_span_ms", program_span_ms(), "ms");
    let cells: Vec<&Cell> = workload.cells.iter().map(|(_, c)| c).collect();
    let mut samples = Samples::from_cells(&cells);
    samples.virt = workload
        .virt
        .first()
        .map(|(_, spec, cfg)| (spec.clone(), *cfg, workload.virt_opts.clone()));
    samples.multicore = workload
        .multicore
        .first()
        .map(|(_, mix, cfg)| (mix.clone(), cfg.clone(), workload.mc_opts.clone()));
    samples.replay(&mut m);
    m
}

/// The sample cells the per-call costs are measured on.
#[derive(Default)]
pub struct Samples {
    /// A native cell.
    pub native: Option<Cell>,
    /// A Victima cell.
    pub victima: Option<Cell>,
    /// A Mitosis cell.
    pub mitosis: Option<Cell>,
    /// A virtualized cell: spec, config, options.
    pub virt: Option<(WorkloadSpec, VirtConfig, SimOptions)>,
    /// A multicore cell: mix, config, options.
    pub multicore: Option<(
        flatwalk_sim::Mix,
        flatwalk_sim::TranslationConfig,
        SimOptions,
    )>,
}

impl Samples {
    /// The first native, Victima and Mitosis cells among `cells`.
    pub fn from_cells(cells: &[&Cell]) -> Samples {
        let first = |want: fn(&Cell) -> bool| cells.iter().find(|c| want(c)).map(|c| (*c).clone());
        Samples {
            native: first(|c| c.rival.is_none()),
            victima: first(|c| matches!(c.rival, Some((RivalKind::Victima, _)))),
            mitosis: first(|c| {
                matches!(c.rival, Some((RivalKind::Mitosis { replicate: true }, _)))
            }),
            virt: None,
            multicore: None,
        }
    }

    /// Measures every per-call cost the samples allow and the residual
    /// of each engine.
    pub fn replay(&self, m: &mut Metrics) {
        let mut builds = Vec::new();
        let mut native_costs = None;
        if let Some(cell) = &self.native {
            let c = replay_native(cell, m);
            builds.push(c.build_ms);
            let r = residual(
                &c,
                std::slice::from_ref(&c.report),
                c.run_ns,
                c.walk_ns,
                ops_scale(&cell.opts),
            );
            m.put("engine.native.residual_frac", r, "ratio");
            native_costs = Some(c);
        }
        for (kind, cell) in [("victima", &self.victima), ("mitosis", &self.mitosis)] {
            if let Some(cell) = cell {
                let (kind_id, run) = cell.rival.expect("rival sample");
                // The first run fills the set-up cache, so the timed one
                // measures the scheme rather than its address-space build.
                let _ = run(cell, kind_id);
                let start = Instant::now();
                let ok = run(cell, kind_id).is_ok();
                let ns = start.elapsed().as_nanos() as f64 / cell.sim_ops() as f64;
                if ok {
                    m.put(&format!("baselines.{kind}.ns_per_op"), ns, "ns");
                }
            }
        }
        if let Some((spec, cfg, opts)) = &self.virt {
            if let Some((build_ms, run_ns, report, walk_ns)) = replay_virt(spec, *cfg, opts, m) {
                builds.push(build_ms);
                if let Some(c) = &native_costs {
                    let r = residual(c, &[report], run_ns, walk_ns, ops_scale(opts));
                    m.put("engine.virt.residual_frac", r, "ratio");
                }
            }
        }
        if let Some((mix, cfg, opts)) = &self.multicore {
            setup::clear_setup_cache();
            let start = Instant::now();
            let sim = MulticoreSimulation::build(mix, cfg.clone(), opts);
            builds.push(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            if let Ok(report) = sim.try_run() {
                let run_ns = start.elapsed().as_nanos() as f64;
                let ops = 4.0 * (opts.warmup_ops + opts.measure_ops) as f64;
                m.put("engine.multicore.ns_per_op", run_ns / ops, "ns");
                // Per-call costs of the mix's first benchmark at the
                // multicore scale, replayed as a native cell.
                if let Some(spec) = WorkloadSpec::by_name(mix.parts[0]) {
                    let cell = Cell::new(spec, cfg.clone(), opts.scenario, opts.clone());
                    let c = replay_native(&cell, &mut Metrics::default());
                    let r = residual(&c, &report.cores, run_ns, c.walk_ns, ops_scale(opts));
                    m.put("engine.multicore.residual_frac", r, "ratio");
                }
            }
        }
        if !builds.is_empty() {
            m.put(
                "setup.build_ms",
                builds.iter().sum::<f64>() / builds.len() as f64,
                "ms",
            );
        }
    }
}

/// Host costs measured on one native cell.
struct NativeCosts {
    build_ms: f64,
    run_ns: f64,
    tlb_ns: f64,
    walk_ns: f64,
    access_ns: f64,
    report: SimReport,
}

/// The share of `run_ns` that per-call costs times the reports' counts
/// do not explain. Reports count the measured phase while the timed run
/// also covers the warm-up, so counts are scaled by `ops_scale`
/// (warm-up + measured ÷ measured).
fn residual(
    c: &NativeCosts,
    reports: &[SimReport],
    run_ns: f64,
    walk_ns: f64,
    ops_scale: f64,
) -> f64 {
    let explained: f64 = reports
        .iter()
        .map(|r| {
            let lookups = r.tlb.translations as f64;
            ops_scale * (lookups * (c.tlb_ns + c.access_ns) + r.walk.walks as f64 * walk_ns)
        })
        .sum();
    1.0 - explained / run_ns
}

fn ops_scale(opts: &SimOptions) -> f64 {
    (opts.warmup_ops + opts.measure_ops) as f64 / opts.measure_ops.max(1) as f64
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

/// Replays one native cell through each layer's public call.
fn replay_native(cell: &Cell, m: &mut Metrics) -> NativeCosts {
    let opts = &cell.opts;
    let spec = cell.workload.clone().scaled_down(opts.footprint_divisor);
    let ops = (opts.warmup_ops + opts.measure_ops) as usize;
    let space_spec = AddressSpaceSpec::new(cell.config.layout.clone(), spec.footprint)
        .with_scenario(opts.scenario)
        .with_nf_threshold(cell.config.nf_threshold);
    setup::clear_setup_cache();
    let (space, build_ns) = timed(|| {
        setup::frozen_native_space(
            &space_spec,
            opts.phys_mem_bytes,
            opts.hierarchy.numa.signature(),
        )
    });
    let (offsets, stream_ns) = timed(|| setup::stream_offsets(&spec, ops as u64));
    m.put("setup.stream_ms", stream_ns / 1e6, "ms");

    let sim = NativeSimulation::build_with_space(
        cell.workload.clone(),
        cell.config.clone(),
        Arc::clone(&cell.opts),
        Arc::clone(&space),
    );
    let (report, run_ns) = timed(|| sim.try_run());
    let report = report.expect("the sample cell ran in the traced pass");
    m.put("engine.native.ns_per_op", run_ns / ops as f64, "ns");

    let mut stream = AccessStream::replay(spec.clone(), space.spec().base_va, offsets);
    let mut vas: Vec<VirtAddr> = Vec::with_capacity(ops);
    let mut buf = Vec::new();
    let (_, fill_ns) = timed(|| {
        while vas.len() < ops {
            stream.fill_vas(&mut buf, (ops - vas.len()).min(256));
            vas.extend_from_slice(&buf);
        }
    });
    m.put("workloads.fill_ns", fill_ns / ops as f64, "ns");

    let (store, table) = (space.store(), space.table());
    let (walks, resolve_ns) = timed(|| {
        vas.iter()
            .map(|va| flatwalk_pt::resolve(store, table, *va).expect("the sample stream is mapped"))
            .collect::<Vec<_>>()
    });
    m.put("pt.resolve_ns", resolve_ns / ops as f64, "ns");

    let mut tlb = TlbSystem::new(opts.tlb.clone());
    let mut missed: Vec<usize> = Vec::new();
    let (_, tlb_ns) = timed(|| {
        for (i, va) in vas.iter().enumerate() {
            if tlb.lookup(*va).translation.is_none() {
                missed.push(i);
                tlb.fill(*va, walks[i].frame_base(), walks[i].size);
            }
        }
    });
    let tlb_ns = tlb_ns / ops as f64;
    m.put("tlb.lookup_ns", tlb_ns, "ns");

    let pwc_cfg = opts.pwc.for_layout(&cell.config.layout);
    let mut pwc = Pwc::new(pwc_cfg.clone());
    let (_, pwc_ns) = timed(|| {
        for &i in &missed {
            std::hint::black_box(pwc.lookup(vas[i]));
        }
    });
    m.put(
        "tlb.pwc.lookup_ns",
        pwc_ns / missed.len().max(1) as f64,
        "ns",
    );

    let hier_cfg = opts.hierarchy.clone().with_priority_prob(opts.ptp_bias);
    let mut walker = PageWalker::new(pwc_cfg.clone());
    let mut hier = MemoryHierarchy::new(hier_cfg.clone());
    let (_, walk_ns) = timed(|| {
        for &i in &missed {
            let _ =
                std::hint::black_box(walker.walk(store, table, vas[i], &mut hier, OwnerId::SINGLE));
        }
    });
    let walk_ns = walk_ns / missed.len().max(1) as f64;
    m.put("mmu.walk_ns", walk_ns, "ns");

    let pas: Vec<PhysAddr> = walks.iter().map(|w| w.pa).collect();
    let mut hier = MemoryHierarchy::new(hier_cfg.clone());
    let (_, access_ns) = timed(|| {
        for pa in &pas {
            std::hint::black_box(hier.access(*pa, AccessKind::Data, OwnerId::SINGLE));
        }
    });
    let access_ns = access_ns / ops as f64;
    m.put("mem.access_ns", access_ns, "ns");

    let mut cache = Cache::new(hier_cfg.l2.clone());
    let (_, probe_ns) = timed(|| {
        for pa in &pas {
            if !cache.probe(pa.line(), AccessKind::Data) {
                cache.fill_after_miss(pa.line(), AccessKind::Data, OwnerId::SINGLE, false);
            }
        }
    });
    m.put("mem.cache.probe_ns", probe_ns / ops as f64, "ns");

    let mut dram = DramModel::with_topology(hier_cfg.dram_latency, hier_cfg.numa.clone());
    let (_, dram_ns) = timed(|| {
        for pa in &pas {
            std::hint::black_box(dram.access(AccessKind::Data, *pa, 0));
        }
    });
    m.put("mem.dram.access_ns", dram_ns / ops as f64, "ns");

    let mut mmu = Mmu::native(opts.tlb.clone(), pwc_cfg, cell.config.ptp);
    let mut hier = MemoryHierarchy::new(hier_cfg);
    let aspace = MmuSpace::native(store, table);
    let mut out = Vec::new();
    let (_, batch_ns) = timed(|| {
        for chunk in vas.chunks(256) {
            mmu.access_batch(&aspace, &mut hier, chunk, OwnerId::SINGLE, &mut out)
                .expect("the sample stream is mapped");
        }
    });
    m.put("mmu.batch_ns", batch_ns / ops as f64, "ns");

    NativeCosts {
        build_ms: build_ns / 1e6,
        run_ns,
        tlb_ns,
        walk_ns,
        access_ns,
        report,
    }
}

/// Replays one virtualized cell: its build, its engine run, and its
/// TLB misses through the 2-D walker. Returns `(build_ms, run_ns,
/// report, nested walk ns)`.
fn replay_virt(
    spec: &WorkloadSpec,
    cfg: VirtConfig,
    opts: &SimOptions,
    m: &mut Metrics,
) -> Option<(f64, f64, SimReport, f64)> {
    setup::clear_setup_cache();
    let ops = (opts.warmup_ops + opts.measure_ops) as usize;
    let (sim, build_ns) = timed(|| VirtualizedSimulation::build(spec.clone(), cfg, opts));
    let (report, run_ns) = timed(|| sim.try_run());
    let report = report.ok()?;
    m.put("engine.virt.ns_per_op", run_ns / ops as f64, "ns");

    // The same frozen space the build used (now cached), as
    // `VirtualizedSimulation::build_custom` keys it.
    let scaled = spec.clone().scaled_down(opts.footprint_divisor);
    let guest_layout = cfg.guest_layout();
    let guest_flat = guest_layout != Layout::conventional4();
    let guest_spec = AddressSpaceSpec::new(guest_layout.clone(), scaled.footprint)
        .with_scenario(opts.scenario)
        .with_nf_threshold(if guest_flat { Some(32) } else { None });
    let host_scenario = opts
        .host_scenario
        .unwrap_or(if opts.scenario.large_page_fraction < 0.5 {
            FragmentationScenario::HALF
        } else {
            opts.scenario
        });
    let vspace = setup::frozen_virt_space(
        &guest_spec,
        &cfg.host_layout(),
        host_scenario,
        opts.phys_mem_bytes,
        opts.hierarchy.numa.signature(),
    );
    let offsets = setup::stream_offsets(&scaled, ops as u64);
    let mut stream = AccessStream::replay(scaled, vspace.guest().spec().base_va, offsets);
    let mut vas = Vec::with_capacity(ops);
    let mut buf = Vec::new();
    while vas.len() < ops {
        stream.fill_vas(&mut buf, (ops - vas.len()).min(256));
        vas.extend_from_slice(&buf);
    }
    let guest = vspace.guest();
    let tables = NestedTables {
        guest_store: guest.store(),
        guest_table: guest.table(),
        host_store: vspace.host_store(),
        host_table: vspace.host_table(),
    };
    let mut tlb = TlbSystem::new(opts.tlb.clone());
    let mut missed = Vec::new();
    for va in &vas {
        if tlb.lookup(*va).translation.is_none() {
            missed.push(*va);
            let w = flatwalk_pt::resolve(guest.store(), guest.table(), *va).ok()?;
            tlb.fill(*va, w.frame_base(), w.size);
        }
    }
    let mut walker = NestedWalker::new(
        opts.pwc.for_layout(&guest_layout),
        opts.pwc.for_layout(&cfg.host_layout()),
        opts.nested_tlb_entries,
    );
    let mut hier = MemoryHierarchy::new(opts.hierarchy.clone().with_priority_prob(opts.ptp_bias));
    let (_, walk_ns) = timed(|| {
        for va in &missed {
            let _ = std::hint::black_box(walker.walk(&tables, *va, &mut hier, OwnerId::SINGLE));
        }
    });
    let walk_ns = walk_ns / missed.len().max(1) as f64;
    m.put("mmu.nested.walk_ns", walk_ns, "ns");
    Some((build_ns / 1e6, run_ns, report, walk_ns))
}
