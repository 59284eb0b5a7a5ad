//! The simulation engine: system configurations, single-core native and
//! virtualized runs, and the four-core multiprogrammed configuration.
//!
//! This crate composes the substrates — page tables (`flatwalk-pt`),
//! the kernel layer (`flatwalk-os`), TLBs/PWCs (`flatwalk-tlb`), the
//! walkers (`flatwalk-mmu`), the cache hierarchy (`flatwalk-mem`) and
//! the workload generators (`flatwalk-workloads`) — into the paper's
//! experimental setups:
//!
//! * [`NativeSimulation`] — Fig. 9/10 (native execution).
//! * [`VirtualizedSimulation`] — Fig. 12 (2-D walks; HF/GF/GF+HF).
//! * [`MulticoreSimulation`] — Fig. 11/Table 2 (shared-LLC mixes).
//!
//! Setup (address-space construction, stream generation) is split from
//! execution: builds freeze into immutable snapshots shared across the
//! experiment grid through the [`setup`] cache, so equivalent cells map
//! their footprint once instead of once per cell (disable with
//! `FLATWALK_NO_SETUP_CACHE=1`).
//!
//! Timing proxy: each access contributes its workload's non-memory
//! `work` (CPI 1), the translation stall (TLB latency beyond a 1-cycle
//! hit plus the full serial page-walk latency), and the data stall
//! beyond an L1 hit scaled by the workload's memory-level-parallelism
//! exposure factor. Absolute IPCs are therefore a proxy, but relative
//! changes track the translation/memory behaviour the paper measures —
//! see `DESIGN.md` for the argument and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod engine;
mod error;
mod multicore;
mod native;
mod report;
pub mod runner;
pub mod setup;
mod virt;

pub use config::{RivalKind, SimOptions, TranslationConfig};
pub use error::SimError;
pub use multicore::{
    all_mixes, alone_ipcs, mean_weighted_speedup, multicore_options, table2_mixes, Mix,
    MulticoreReport, MulticoreSimulation,
};
pub use native::NativeSimulation;
pub use report::SimReport;
pub use runner::{Cell, RivalRunner};
pub use virt::{VirtConfig, VirtualizedSimulation};

// The config types within `SimOptions`, for callers that name them
// without depending on each crate (the serve crate's cell keys).
pub use flatwalk_mem::{CacheConfig, HierarchyConfig, Interconnect, NumaTopology};
pub use flatwalk_tlb::{PwcConfig, PwcDepthConfig, TlbConfig, TlbSystemConfig};
