//! Reusable grid descriptions: the experiment binaries' cell-grid
//! construction, factored out so other executors — most importantly the
//! `flatwalk-serve` daemon — can build exactly the same grids by name.
//!
//! Each [`GridDef`] is a named, pure builder `fn(Mode, &SimOptions) ->
//! Grid`: given the mode and the (mode-resolved, possibly overridden)
//! base options it returns the cells **in the binary's declaration
//! order**, which is what makes a served cell's `(index, total)`
//! position — and therefore its poison-fault profile and its report —
//! byte-identical to the same cell inside the batch binary's run.
//!
//! Binaries keep their presentation logic (tables, normalization,
//! paper-reference footers) and call these builders for the cells.

use flatwalk_mem::{Interconnect, NumaTopology};
use flatwalk_os::FragmentationScenario;
use flatwalk_pt::Layout;
use flatwalk_sim::runner::Cell;
use flatwalk_sim::{RivalKind, SimOptions, TranslationConfig};
use flatwalk_tlb::PwcConfig;
use flatwalk_workloads::WorkloadSpec;

use crate::{scenarios, Mode};

/// A built experiment grid: cells in declaration order plus one
/// human-readable label per cell (used by tables and service replies).
#[derive(Debug, Clone, Default)]
pub struct Grid {
    /// One display label per cell, index-aligned with `cells`.
    pub labels: Vec<String>,
    /// The cells, in the order the batch binary declares them.
    pub cells: Vec<Cell>,
}

impl Grid {
    /// Appends one labelled cell.
    pub fn push(&mut self, label: String, cell: Cell) {
        self.labels.push(label);
        self.cells.push(cell);
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Keeps only the cells whose label contains `needle`
    /// (case-insensitive) — the `--scheme <name>` filter. Label/cell
    /// alignment is preserved; declaration order of the survivors is
    /// unchanged, so their reports stay byte-identical to the same
    /// cells inside the unfiltered run (poison-fault positions shift,
    /// which is why `--faults` and `--scheme` are rejected together by
    /// the binaries' shared parsing).
    pub fn retain_matching(&mut self, needle: &str) {
        let needle = needle.to_ascii_lowercase();
        let keep: Vec<bool> = self
            .labels
            .iter()
            .map(|l| l.to_ascii_lowercase().contains(&needle))
            .collect();
        let mut k = keep.iter();
        self.labels.retain(|_| *k.next().unwrap());
        let mut k = keep.iter();
        self.cells.retain(|_| *k.next().unwrap());
    }
}

/// A named grid builder the server (or any other executor) can run.
#[derive(Debug, Clone, Copy)]
pub struct GridDef {
    /// Registry name (matches the batch binary's grid label).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Builds the grid for a mode and base options. The options are
    /// expected to already carry the mode's scaling (e.g. from
    /// [`Mode::server_options`]), possibly with caller overrides.
    pub build: fn(Mode, &SimOptions) -> Grid,
}

/// Every registered grid.
pub const GRIDS: &[GridDef] = &[
    GridDef {
        name: "sec71_pwc",
        about: "§7.1 PWC sensitivity sweep on GUPS (9 cells)",
        build: sec71_pwc,
    },
    GridDef {
        name: "sec71_ratio",
        about: "§7.1 PT:LLC ratio sweep (shrinks × base/PTP × suite)",
        build: sec71_ratio,
    },
    GridDef {
        name: "fig01",
        about: "Figure 1 headline effects (gups+dc × 4 configs)",
        build: fig01,
    },
    GridDef {
        name: "fig04",
        about: "Figure 4 large pages vs NF regions",
        build: fig04,
    },
    GridDef {
        name: "fig09_base",
        about: "Figure 9 normalization baselines (suite at 0% LP)",
        build: fig09_base,
    },
    GridDef {
        name: "fig09_native",
        about: "Figure 9 native grid (scenarios × fig9 set × suite)",
        build: fig09_native,
    },
    GridDef {
        name: "fig10",
        about: "Figure 10 walk anatomy (fig9 set × full suite)",
        build: fig10,
    },
    GridDef {
        name: "sec75_native",
        about: "§7.5 flattening other levels, native part",
        build: sec75_native,
    },
    GridDef {
        name: "ablation_ptp",
        about: "PTP eviction-bias and phase-threshold ablation",
        build: ablation_ptp,
    },
    GridDef {
        name: "numa_rivals",
        about: "Rival schemes × NUMA topologies (FPT+PTP, NUMA-Base, Mitosis, Victima)",
        build: numa_rivals,
    },
];

/// Looks a grid up by registry name.
pub fn by_name(name: &str) -> Option<&'static GridDef> {
    GRIDS.iter().find(|g| g.name == name)
}

/// All registry names, in declaration order.
pub fn names() -> Vec<&'static str> {
    GRIDS.iter().map(|g| g.name).collect()
}

/// The conventional "workload/config/scenario" cell label.
fn cell_label(
    w: &WorkloadSpec,
    cfg: &TranslationConfig,
    scenario: FragmentationScenario,
) -> String {
    format!("{}/{}/{}", w.name, cfg.label, scenario.label())
}

/// §7.1 PWC sweep (see `sec71_pwc_sweep`): the L3-PSC 1→16 sweep, the
/// flattening reference on the stock budget, and the large-L2-PSC
/// equivalence points — all on GUPS at 0 % LP.
pub fn sec71_pwc(_mode: Mode, opts: &SimOptions) -> Grid {
    let spec = WorkloadSpec::gups();
    let scenario = FragmentationScenario::NONE;
    let mut grid = Grid::default();
    for entries in [1usize, 2, 4, 8, 16] {
        let mut o = opts.clone();
        o.pwc = PwcConfig::server_with_l3_entries(entries);
        grid.push(
            format!("base, L3-PSC={entries}"),
            Cell::new(spec.clone(), TranslationConfig::baseline(), scenario, o),
        );
    }
    grid.push(
        "FPT (stock PSC)".to_string(),
        Cell::new(
            spec.clone(),
            TranslationConfig::flattened(),
            scenario,
            opts.clone(),
        ),
    );
    for entries in [256usize, 1024, 4096] {
        let mut o = opts.clone();
        o.pwc = PwcConfig::server_with_l2_entries(entries);
        grid.push(
            format!("base, L2-PSC={entries}"),
            Cell::new(spec.clone(), TranslationConfig::baseline(), scenario, o),
        );
    }
    grid
}

/// The §7.1 ratio-sweep workload suite for a mode.
pub fn sec71_ratio_suite(mode: Mode) -> Vec<WorkloadSpec> {
    if mode == Mode::Quick {
        vec![
            WorkloadSpec::gups(),
            WorkloadSpec::xsbench(),
            WorkloadSpec::mcf(),
        ]
    } else {
        vec![
            WorkloadSpec::gups(),
            WorkloadSpec::random_access(),
            WorkloadSpec::xsbench(),
            WorkloadSpec::mcf(),
            WorkloadSpec::graph500(),
            WorkloadSpec::hashjoin(),
            WorkloadSpec::liblinear_higgs(),
        ]
    }
}

/// The LLC shrink factors of the §7.1 ratio sweep.
pub const SEC71_RATIO_SHRINKS: [u64; 5] = [1, 2, 4, 8, 16];

/// §7.1 PT:LLC ratio sweep (see `sec71_ratio_sweep`): per shrink
/// factor, the baseline suite then the PTP suite.
pub fn sec71_ratio(mode: Mode, opts: &SimOptions) -> Grid {
    let suite = sec71_ratio_suite(mode);
    let scenario = FragmentationScenario::NONE;
    let llc_full = opts.hierarchy.l3.size_bytes;
    let mut grid = Grid::default();
    for &shrink in &SEC71_RATIO_SHRINKS {
        let mut o = opts.clone();
        o.hierarchy = o.hierarchy.with_llc_bytes((llc_full / shrink).max(1 << 20));
        for cfg in [
            TranslationConfig::baseline(),
            TranslationConfig::prioritized(),
        ] {
            for w in &suite {
                grid.push(
                    format!("{shrink}x/{}/{}", cfg.label, w.name),
                    Cell::new(w.clone(), cfg.clone(), scenario, o.clone()),
                );
            }
        }
    }
    grid
}

/// The four translation configs of Figure 1.
pub fn fig01_configs() -> [TranslationConfig; 4] {
    [
        TranslationConfig::baseline(),
        TranslationConfig::flattened(),
        TranslationConfig::prioritized(),
        TranslationConfig::flattened_prioritized(),
    ]
}

/// Figure 1 headline grid (see `fig01_headline`): gups and dc under
/// the four configs at 0 % LP.
pub fn fig01(_mode: Mode, opts: &SimOptions) -> Grid {
    let mut grid = Grid::default();
    for spec in [WorkloadSpec::gups(), WorkloadSpec::dc()] {
        for cfg in fig01_configs() {
            grid.push(
                cell_label(&spec, &cfg, FragmentationScenario::NONE),
                Cell::new(spec.clone(), cfg, FragmentationScenario::NONE, opts.clone()),
            );
        }
    }
    grid
}

/// Figure 4's labelled config set.
pub fn fig04_configs() -> [(&'static str, TranslationConfig); 3] {
    [
        ("THP", TranslationConfig::baseline()),
        ("FPT (no NF)", TranslationConfig::flattened_no_nf()),
        ("FPT+NF", TranslationConfig::flattened()),
    ]
}

/// Figure 4's workload suite.
pub fn fig04_suite() -> [WorkloadSpec; 4] {
    [
        WorkloadSpec::gups(),
        WorkloadSpec::xsbench(),
        WorkloadSpec::graph500(),
        WorkloadSpec::hashjoin(),
    ]
}

/// Figure 4 grid (see `fig04_large_pages`): per workload, its 0 % LP
/// baseline then (50 %, 100 % LP) × (THP, FPT-no-NF, FPT+NF).
pub fn fig04(_mode: Mode, opts: &SimOptions) -> Grid {
    let lp_scenarios = [
        (FragmentationScenario::HALF, "50% LP"),
        (FragmentationScenario::FULL, "100% LP"),
    ];
    let mut grid = Grid::default();
    for spec in fig04_suite() {
        grid.push(
            format!("{}/THP/0% LP", spec.name),
            Cell::new(
                spec.clone(),
                TranslationConfig::baseline(),
                FragmentationScenario::NONE,
                opts.clone(),
            ),
        );
        for (scenario, slabel) in lp_scenarios {
            for (clabel, cfg) in fig04_configs() {
                grid.push(
                    format!("{}/{}/{}", spec.name, clabel, slabel),
                    Cell::new(spec.clone(), cfg, scenario, opts.clone()),
                );
            }
        }
    }
    grid
}

/// The Figure 9 workload suite for a mode (quick runs a representative
/// subset).
pub fn fig09_suite(mode: Mode) -> Vec<WorkloadSpec> {
    if mode == Mode::Quick {
        vec![
            WorkloadSpec::bfs(),
            WorkloadSpec::dc(),
            WorkloadSpec::hashjoin(),
            WorkloadSpec::mcf(),
            WorkloadSpec::xsbench(),
            WorkloadSpec::gups(),
            WorkloadSpec::random_access(),
        ]
    } else {
        WorkloadSpec::suite()
    }
}

/// Figure 9 normalization baselines: the suite under the conventional
/// table at 0 % LP.
pub fn fig09_base(mode: Mode, opts: &SimOptions) -> Grid {
    let mut grid = Grid::default();
    for w in fig09_suite(mode) {
        grid.push(
            cell_label(
                &w,
                &TranslationConfig::baseline(),
                FragmentationScenario::NONE,
            ),
            Cell::new(
                w,
                TranslationConfig::baseline(),
                FragmentationScenario::NONE,
                opts.clone(),
            ),
        );
    }
    grid
}

/// Figure 9 native grid: scenarios × fig9 config set × suite.
pub fn fig09_native(mode: Mode, opts: &SimOptions) -> Grid {
    let suite = fig09_suite(mode);
    let mut grid = Grid::default();
    for (scenario, _) in scenarios() {
        for cfg in TranslationConfig::fig9_set() {
            for w in &suite {
                grid.push(
                    cell_label(w, &cfg, scenario),
                    Cell::new(w.clone(), cfg.clone(), scenario, opts.clone()),
                );
            }
        }
    }
    grid
}

/// Figure 10 grid (see `fig10_walk_anatomy`): the fig9 config set over
/// the full suite at 0 % LP.
pub fn fig10(_mode: Mode, opts: &SimOptions) -> Grid {
    let suite = WorkloadSpec::suite();
    let mut grid = Grid::default();
    for cfg in TranslationConfig::fig9_set() {
        for w in &suite {
            grid.push(
                cell_label(w, &cfg, FragmentationScenario::NONE),
                Cell::new(
                    w.clone(),
                    cfg.clone(),
                    FragmentationScenario::NONE,
                    opts.clone(),
                ),
            );
        }
    }
    grid
}

/// The §7.5 workload suite for a mode.
pub fn sec75_suite(mode: Mode) -> Vec<WorkloadSpec> {
    if mode == Mode::Quick {
        vec![
            WorkloadSpec::gups(),
            WorkloadSpec::xsbench(),
            WorkloadSpec::bfs(),
            WorkloadSpec::hashjoin(),
        ]
    } else {
        vec![
            WorkloadSpec::gups(),
            WorkloadSpec::random_access(),
            WorkloadSpec::xsbench(),
            WorkloadSpec::bfs(),
            WorkloadSpec::mcf(),
            WorkloadSpec::hashjoin(),
            WorkloadSpec::graph500(),
            WorkloadSpec::liblinear(),
        ]
    }
}

/// The §7.5 native config set: baseline, then the three flattening
/// layout choices.
pub fn sec75_native_configs() -> [TranslationConfig; 4] {
    [
        TranslationConfig::baseline(),
        TranslationConfig::flattened_l3l2(),
        TranslationConfig {
            label: "FPT(1GB L4+L3+L2)",
            layout: Layout::flat_l4l3l2(),
            ptp: false,
            nf_threshold: None,
        },
        TranslationConfig::flattened(),
    ]
}

/// §7.5 native grid (see `sec75_flatten_levels`): per scenario, the
/// baseline suite then each flattening.
pub fn sec75_native(mode: Mode, opts: &SimOptions) -> Grid {
    let suite = sec75_suite(mode);
    let mut grid = Grid::default();
    for (scenario, _) in scenarios() {
        for cfg in sec75_native_configs() {
            for w in &suite {
                grid.push(
                    cell_label(w, &cfg, scenario),
                    Cell::new(w.clone(), cfg.clone(), scenario, opts.clone()),
                );
            }
        }
    }
    grid
}

/// The PTP ablation's workload suite for a mode.
pub fn ablation_ptp_suite(mode: Mode) -> Vec<WorkloadSpec> {
    if mode == Mode::Quick {
        vec![WorkloadSpec::gups(), WorkloadSpec::xsbench()]
    } else {
        vec![
            WorkloadSpec::gups(),
            WorkloadSpec::random_access(),
            WorkloadSpec::xsbench(),
            WorkloadSpec::graph500(),
            WorkloadSpec::mcf(),
            WorkloadSpec::dc(),
        ]
    }
}

/// Eviction-bias sweep points of the PTP ablation.
pub const ABLATION_PTP_BIASES: [f64; 5] = [0.0, 0.5, 0.9, 0.99, 1.0];
/// Phase-threshold sweep points of the PTP ablation.
pub const ABLATION_PTP_THRESHOLDS: [f64; 5] = [0.0, 0.005, 0.02, 0.1, 0.5];

/// PTP ablation grid (see `ablation_ptp`): the shared baseline suite,
/// then the eviction-bias sweep, then the phase-threshold sweep.
pub fn ablation_ptp(mode: Mode, opts: &SimOptions) -> Grid {
    let suite = ablation_ptp_suite(mode);
    let scenario = FragmentationScenario::NONE;
    let mut grid = Grid::default();
    for w in &suite {
        grid.push(
            format!("base/{}", w.name),
            Cell::new(
                w.clone(),
                TranslationConfig::baseline(),
                scenario,
                opts.clone(),
            ),
        );
    }
    for bias in ABLATION_PTP_BIASES {
        let mut o = opts.clone();
        o.ptp_bias = bias;
        for w in &suite {
            grid.push(
                format!("bias {bias:.2}/{}", w.name),
                Cell::new(
                    w.clone(),
                    TranslationConfig::prioritized(),
                    scenario,
                    o.clone(),
                ),
            );
        }
    }
    for threshold in ABLATION_PTP_THRESHOLDS {
        let mut o = opts.clone();
        o.phase_threshold = threshold;
        for w in &suite {
            grid.push(
                format!("threshold {threshold:.3}/{}", w.name),
                Cell::new(
                    w.clone(),
                    TranslationConfig::prioritized(),
                    scenario,
                    o.clone(),
                ),
            );
        }
    }
    grid
}

/// The NUMA topologies the rival grid sweeps, with display labels. The
/// 1-node entry is the identity topology — its cells must report
/// exactly what the pre-NUMA simulator reported.
pub fn numa_topologies() -> [(&'static str, NumaTopology); 3] {
    [
        ("1-node", NumaTopology::single()),
        ("2-node", NumaTopology::nodes(2)),
        (
            "4-node-ring",
            NumaTopology::nodes(4).with_interconnect(Interconnect::Ring),
        ),
    ]
}

/// The rival-scheme columns of the NUMA grid: display label plus the
/// [`RivalKind`] the runner dispatches on (`None` = the native
/// simulator's FPT+PTP column).
pub fn numa_rival_columns() -> [(&'static str, Option<RivalKind>); 4] {
    [
        ("FPT+PTP", None),
        ("NUMA-Base", Some(RivalKind::Mitosis { replicate: false })),
        ("Mitosis", Some(RivalKind::Mitosis { replicate: true })),
        ("Victima", Some(RivalKind::Victima)),
    ]
}

/// The NUMA-rival workload suite for a mode.
pub fn numa_rivals_suite(mode: Mode) -> Vec<WorkloadSpec> {
    if mode == Mode::Quick {
        vec![WorkloadSpec::gups(), WorkloadSpec::xsbench()]
    } else {
        vec![
            WorkloadSpec::gups(),
            WorkloadSpec::random_access(),
            WorkloadSpec::xsbench(),
            WorkloadSpec::graph500(),
            WorkloadSpec::hashjoin(),
        ]
    }
}

/// Cross-scheme × topology grid (see `numa_rivals` binary): per
/// topology, the native FPT+PTP column then the rival columns
/// (NUMA-Base, Mitosis, Victima), each over the suite at 0 % LP.
/// Rival cells run through [`flatwalk_baselines::run_rival`], so the
/// server serves them with the same cache and fault domain as native
/// cells.
pub fn numa_rivals(mode: Mode, opts: &SimOptions) -> Grid {
    let suite = numa_rivals_suite(mode);
    let scenario = FragmentationScenario::NONE;
    let mut grid = Grid::default();
    for (tlabel, topo) in numa_topologies() {
        let mut o = opts.clone();
        o.hierarchy = o.hierarchy.with_numa(topo.clone());
        for (slabel, kind) in numa_rival_columns() {
            for w in &suite {
                let label = format!("{tlabel}/{slabel}/{}", w.name);
                let cell = match kind {
                    None => Cell::new(
                        w.clone(),
                        TranslationConfig::flattened_prioritized(),
                        scenario,
                        o.clone(),
                    ),
                    Some(kind) => Cell::rival(
                        w.clone(),
                        TranslationConfig::baseline(),
                        scenario,
                        o.clone(),
                        kind,
                        flatwalk_baselines::run_rival,
                    ),
                };
                grid.push(label, cell);
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names = names();
        for name in &names {
            assert!(by_name(name).is_some(), "{name} resolves");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "no duplicate names");
        assert!(by_name("nonsense").is_none());
    }

    #[test]
    fn grids_build_with_aligned_labels() {
        let opts = Mode::Quick.server_options();
        for def in GRIDS {
            let grid = (def.build)(Mode::Quick, &opts);
            assert!(!grid.is_empty(), "{} builds cells", def.name);
            assert_eq!(
                grid.labels.len(),
                grid.cells.len(),
                "{} labels align",
                def.name
            );
        }
    }

    #[test]
    fn sec71_pwc_shape_is_stable() {
        // The e2e service test and the CI smoke both submit this grid;
        // pin its size and label layout.
        let opts = Mode::Quick.server_options();
        let grid = sec71_pwc(Mode::Quick, &opts);
        assert_eq!(grid.len(), 9);
        assert_eq!(grid.labels[0], "base, L3-PSC=1");
        assert_eq!(grid.labels[5], "FPT (stock PSC)");
        assert_eq!(grid.labels[8], "base, L2-PSC=4096");
    }

    #[test]
    fn numa_rivals_shape_and_topologies() {
        let opts = Mode::Quick.server_options();
        let grid = numa_rivals(Mode::Quick, &opts);
        // 3 topologies × 4 columns × 2 quick workloads.
        assert_eq!(grid.len(), 24);
        assert_eq!(grid.labels[0], "1-node/FPT+PTP/gups");
        assert!(grid.cells[0].rival.is_none(), "native column");
        assert!(grid.cells[2].rival.is_some(), "rival columns carry runners");
        // The 1-node block runs on the identity topology; the later
        // blocks carry distinct topology signatures into the cells.
        assert!(grid.cells[0].opts.hierarchy.numa.is_single());
        let sig2 = grid.cells[8].opts.hierarchy.numa.signature();
        let sig4 = grid.cells[16].opts.hierarchy.numa.signature();
        assert_ne!(sig2, sig4);
        assert_ne!(grid.cells[0].opts.hierarchy.numa.signature(), sig2);
    }

    #[test]
    fn retain_matching_filters_labels_and_cells_together() {
        let opts = Mode::Quick.server_options();
        let mut grid = numa_rivals(Mode::Quick, &opts);
        grid.retain_matching("victima");
        assert_eq!(grid.len(), 6, "3 topologies × 2 quick workloads");
        assert_eq!(grid.labels.len(), grid.cells.len());
        assert!(grid.labels.iter().all(|l| l.contains("Victima")));
        assert!(grid.cells.iter().all(|c| c.rival.is_some()));
        grid.retain_matching("no-such-scheme");
        assert!(grid.is_empty());
    }

    #[test]
    fn mode_scaling_reaches_cells() {
        let quick = sec71_pwc(Mode::Quick, &Mode::Quick.server_options());
        let std = sec71_pwc(Mode::Std, &Mode::Std.server_options());
        assert!(
            quick.cells[0].opts.measure_ops < std.cells[0].opts.measure_ops,
            "quick cells simulate fewer ops"
        );
    }
}
