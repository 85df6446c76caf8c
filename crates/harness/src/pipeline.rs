//! The compile-and-measure pipeline shared by all experiments.
//!
//! Failure is structured, not fatal: [`measure`] returns a
//! [`PipelineError`] with stage provenance (alloc / checker / sim)
//! instead of panicking, allocator panics are caught and converted, and
//! a function whose CCM slot coloring fails degrades to heavyweight
//! spills recorded as [`ccm::Degradation`] events on the
//! [`Measurement`] — the paper's §3.1 fallback, applied per function.

use std::sync::Arc;

use ccm::Variant;
use iloc::Module;
use regalloc::AllocConfig;
use sim::{MachineConfig, Metrics};

use crate::error::{self, PipelineError, Stage};

/// One measured configuration of one module.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Dynamic cycle count.
    pub cycles: u64,
    /// Cycles spent in memory operations (main memory + CCM).
    pub mem_cycles: u64,
    /// Full metric set.
    pub metrics: Metrics,
    /// The checksum the program returned (for equivalence checking).
    pub checksum: f64,
    /// Bytes of main-memory spill space across all functions.
    pub spill_bytes: u32,
    /// Live ranges spilled during allocation.
    pub spilled_ranges: usize,
    /// Functions that fell back from CCM allocation to heavyweight
    /// spills (graceful degradation events, not errors).
    pub degraded: Vec<ccm::Degradation>,
}

/// One allocated-and-checked configuration of one module.
#[derive(Clone)]
pub struct Allocated {
    /// The module after [`ccm::allocate`].
    pub module: Arc<Module>,
    /// Every diagnostic from [`check_allocated`].
    pub diags: Arc<Vec<checker::Diagnostic>>,
    /// Live ranges spilled during allocation.
    pub spilled_ranges: usize,
    /// Per-function CCM→heavyweight degradation events.
    pub degraded: Arc<Vec<ccm::Degradation>>,
}

impl Allocated {
    /// Runs the post-allocation checker on `module`, allocated for CCM
    /// capacity `ccm_size` with `outcome`, and keeps every diagnostic.
    pub(crate) fn checked(
        module: Arc<Module>,
        outcome: ccm::AllocOutcome,
        ccm_size: u32,
    ) -> Allocated {
        let diags = check_allocated(&module, ccm_size);
        Allocated {
            module,
            diags: Arc::new(diags),
            spilled_ranges: outcome.spilled_ranges,
            degraded: Arc::new(outcome.degraded),
        }
    }
}

/// Runs the post-allocation static checker on an allocated module,
/// returning every diagnostic (the structural verifier is one of its
/// passes, so this subsumes `m.verify()`).
pub fn check_allocated(m: &Module, ccm_size: u32) -> Vec<checker::Diagnostic> {
    checker::check_module(m, &checker::CheckerConfig::new(ccm_size))
}

/// Applies `variant` allocation (with CCM capacity `ccm_size`) to an
/// optimized module and runs the post-allocation checker. The input
/// should come from [`suite::build_optimized`] or
/// [`suite::build_program`].
///
/// Checker diagnostics are data here, not failure: `--check` reports
/// error rows rather than skipping them. [`measure_allocated`] applies
/// the error gate before simulating.
///
/// # Errors
///
/// A panic inside register allocation or CCM promotion becomes a
/// `stage=alloc` [`PipelineError`] instead of unwinding through the
/// campaign.
pub fn allocate_checked(
    unit: &str,
    m: Module,
    variant: Variant,
    ccm_size: u32,
) -> Result<Allocated, PipelineError> {
    let (m, outcome) = error::contain(Stage::Alloc, unit, move || {
        let mut m = m;
        let out = ccm::allocate(&mut m, variant, ccm_size, &AllocConfig::default());
        (m, out)
    })
    .map_err(|e| e.at(variant, ccm_size))?;
    Ok(Allocated::checked(Arc::new(m), outcome, ccm_size))
}

/// Measures an allocated configuration: rejects it if the checker found
/// errors, then simulates it on `machine`.
///
/// # Errors
///
/// A checker rejection becomes `stage=checker` and a simulator trap
/// `stage=sim`.
pub fn measure_allocated(
    unit: &str,
    a: &Allocated,
    variant: Variant,
    machine: &MachineConfig,
) -> Result<Measurement, PipelineError> {
    if let Some(summary) = checker::error_summary(&a.diags) {
        return Err(PipelineError::new(Stage::Checker, unit, summary).at(variant, machine.ccm_size));
    }
    let (vals, metrics) = sim::run_module(&a.module, machine.clone(), "main").map_err(|e| {
        PipelineError::new(Stage::Sim, unit, e.to_string()).at(variant, machine.ccm_size)
    })?;
    Ok(Measurement {
        cycles: metrics.cycles,
        mem_cycles: metrics.mem_op_cycles,
        metrics,
        checksum: vals.floats.first().copied().unwrap_or(f64::NAN),
        spill_bytes: a
            .module
            .functions
            .iter()
            .map(|f| f.frame.spill_bytes())
            .sum(),
        spilled_ranges: a.spilled_ranges,
        degraded: (*a.degraded).clone(),
    })
}

/// Allocates (per `variant`) and simulates an optimized module, returning
/// the measurement. `machine` controls CCM size and any cache model.
///
/// # Errors
///
/// Every stage failure is structured: an allocator panic becomes
/// `stage=alloc`, a checker rejection `stage=checker`, and a simulator
/// trap (unknown global, out-of-bounds access, exhausted `--sim-budget`)
/// `stage=sim`. CCM coloring failures are *not* errors — the affected
/// function degrades to heavyweight spills and the event is recorded in
/// [`Measurement::degraded`].
pub fn measure(
    m: Module,
    variant: Variant,
    machine: &MachineConfig,
) -> Result<Measurement, PipelineError> {
    measure_named("<module>", m, variant, machine)
}

/// [`measure`] with the suite unit's name attached to any failure.
///
/// # Errors
///
/// Same as [`measure`].
pub fn measure_named(
    unit: &str,
    m: Module,
    variant: Variant,
    machine: &MachineConfig,
) -> Result<Measurement, PipelineError> {
    let a = allocate_checked(unit, m, variant, machine.ccm_size)?;
    measure_allocated(unit, &a, variant, machine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn must(m: Result<Measurement, PipelineError>) -> Measurement {
        m.unwrap_or_else(|e| panic!("measurement failed: {e}"))
    }

    #[test]
    fn variants_agree_on_checksum_and_ccm_wins() {
        let k = suite::kernel("radf5").unwrap();
        let m = suite::build_optimized(&k);
        let machine = MachineConfig::with_ccm(512);
        let base = must(measure(m.clone(), Variant::Baseline, &machine));
        assert!(base.spilled_ranges > 0, "radf5 must spill");
        assert!(base.degraded.is_empty(), "nothing degrades unprovoked");
        for v in [
            Variant::PostPass,
            Variant::PostPassCallGraph,
            Variant::Integrated,
        ] {
            let r = must(measure(m.clone(), v, &machine));
            assert_eq!(
                r.checksum.to_bits(),
                base.checksum.to_bits(),
                "{v:?} changed the checksum"
            );
            assert!(
                r.cycles <= base.cycles,
                "{v:?} slower than baseline: {} vs {}",
                r.cycles,
                base.cycles
            );
        }
    }

    #[test]
    fn non_spilling_kernel_unaffected() {
        let k = suite::kernel("efill").unwrap();
        let m = suite::build_optimized(&k);
        let machine = MachineConfig::with_ccm(512);
        let base = must(measure(m.clone(), Variant::Baseline, &machine));
        assert_eq!(base.spilled_ranges, 0);
        let pp = must(measure(m.clone(), Variant::PostPassCallGraph, &machine));
        assert_eq!(pp.cycles, base.cycles);
        assert_eq!(pp.metrics.ccm_ops, 0);
    }

    #[test]
    fn step_limit_surfaces_as_sim_stage_error() {
        let k = suite::kernel("radf5").unwrap();
        let m = suite::build_optimized(&k);
        let machine = MachineConfig {
            max_steps: 10,
            ..MachineConfig::with_ccm(512)
        };
        let err = measure(m, Variant::Baseline, &machine).unwrap_err();
        assert_eq!(err.stage, Stage::Sim);
        assert!(err.detail.contains("step limit"), "{err}");
    }
}
