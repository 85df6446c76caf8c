#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! Experiment harness: regenerates every table and figure of the paper.
//!
//! * [`experiments::table1_jobs`] — spill-memory compaction (Table 1);
//! * [`experiments::speedup_rows_jobs`] — per-routine speedups (Tables 2/3);
//! * [`experiments::table4_from`] — weighted averages (Table 4);
//! * [`experiments::figure_jobs`] — whole-program results (Figures 3/4);
//! * [`experiments::ablation_jobs`] — §4.3 memory-hierarchy ablation;
//! * [`extensions::ccm_sweep_jobs`] / [`extensions::design_ablation`] —
//!   extension studies (CCM sizing curve, design-choice ablations);
//! * [`experiments::check_suite_jobs`] — the post-allocation static
//!   checker run across the whole suite (`repro --check`).
//!
//! The `repro` binary prints them: `cargo run --release -p harness -- --all`.
//! It and the `ccmc` and `probe` binaries read their flags through
//! [`cli`].
//!
//! Sweep-shaped experiments take their worker count as a `jobs`
//! argument, fan out over the parallel engine in the `exec` crate, and
//! share the memoized suite builds in [`cache`], so `repro --all` builds
//! each module once instead of once per table. Results are collected by
//! work item index, never by completion order: any `jobs` value produces
//! byte-identical output to `jobs = 1`.

pub mod cache;
pub mod cli;
pub mod csv;
pub mod error;
pub mod experiments;
pub mod extensions;
pub mod inject_sweep;
pub mod pipeline;
pub mod report;

pub use extensions::{
    ccm_sweep_jobs, design_ablation, multitask_study, render_design, render_multitask,
    render_sched, render_sweep, scheduling_study, DesignRow, MultitaskRow, SchedRow, SweepPoint,
};

pub use ccm::Variant;
pub use csv::export_all;
pub use error::{PipelineError, Stage};
pub use experiments::{
    ablation_jobs, check_suite_jobs, figure_jobs, improved_names, speedup_rows_jobs,
    speedup_rows_multi, table1_jobs, table3_jobs, table4_from, AblationRow, CheckRow,
    CompactionRow, ProgramRow, SpeedupRow, Table4Cell,
};
pub use pipeline::{check_allocated, measure, Measurement};
