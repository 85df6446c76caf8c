//! The oracle allocates once per case: one Chaitin-Briggs allocation
//! shared by the baseline and post-pass variants at every CCM size. This
//! test keeps the per-variant form — a fresh `ccm::allocate` for every
//! (CCM size, variant) — as a reference, and checks that both give the
//! same statistics and the same verdicts, with and without a mutation.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fuzz::{
    apply_mutation, gen_module, run_oracle, CaseStats, Failure, FailureKind, Mutation,
    OracleConfig, Variant,
};
use iloc::Module;
use sim::MachineConfig;

struct Run {
    ints: Vec<i64>,
    float_bits: Vec<u64>,
    cycles: u64,
    ccm_ops: u64,
    spilled: usize,
}

/// Allocates `variant` from scratch, then checks and simulates it.
fn reference_run(
    m: &Module,
    variant: Variant,
    ccm: u32,
    cfg: &OracleConfig,
) -> Result<Run, Failure> {
    let fail = |kind, detail| Failure {
        kind,
        variant,
        ccm,
        detail,
    };
    let (mm, spilled) = catch_unwind(AssertUnwindSafe(|| {
        let mut mm = m.clone();
        let spilled = ccm::allocate(&mut mm, variant, ccm, &cfg.alloc).spilled_ranges;
        if let Some(mu) = cfg.mutation.filter(|_| variant != Variant::Baseline) {
            apply_mutation(&mut mm, mu);
        }
        (mm, spilled)
    }))
    .map_err(|p| fail(FailureKind::Panicked, exec::render_payload(p.as_ref())))?;
    let diags = checker::check_module(&mm, &checker::CheckerConfig::with_alloc(ccm, cfg.alloc));
    if let Some(summary) = checker::error_summary(&diags) {
        return Err(fail(FailureKind::CheckerRejected, summary));
    }
    let (vals, metrics) = sim::run_module(&mm, MachineConfig::with_ccm(ccm), "main")
        .map_err(|e| fail(FailureKind::Trap, e.to_string()))?;
    Ok(Run {
        ints: vals.ints,
        float_bits: vals.floats.iter().map(|f| f.to_bits()).collect(),
        cycles: metrics.cycles,
        ccm_ops: metrics.ccm_ops,
        spilled,
    })
}

/// The oracle with every (CCM size, variant) allocated on its own.
fn reference_oracle(m: &Module, cfg: &OracleConfig) -> Result<CaseStats, Failure> {
    let mut stats = CaseStats {
        instrs: m.instr_count(),
        ..CaseStats::default()
    };
    for (i, &ccm) in cfg.ccm_sizes.iter().enumerate() {
        let base = reference_run(m, Variant::Baseline, ccm, cfg)?;
        if i == 0 {
            stats.spilled_ranges = base.spilled;
            stats.base_cycles = base.cycles;
        }
        for &v in cfg.variants.iter().filter(|v| **v != Variant::Baseline) {
            let r = reference_run(m, v, ccm, cfg)?;
            stats.ccm_ops += r.ccm_ops;
            if r.ints != base.ints || r.float_bits != base.float_bits {
                return Err(Failure {
                    kind: FailureKind::ChecksumMismatch,
                    variant: v,
                    ccm,
                    detail: format!(
                        "baseline ints {:?} floats {:x?}, {} ints {:?} floats {:x?}",
                        base.ints,
                        base.float_bits,
                        v.short(),
                        r.ints,
                        r.float_bits
                    ),
                });
            }
            if r.cycles > base.cycles {
                return Err(Failure {
                    kind: FailureKind::Slower,
                    variant: v,
                    ccm,
                    detail: format!("{} cycles vs baseline {}", r.cycles, base.cycles),
                });
            }
        }
    }
    Ok(stats)
}

#[test]
fn staged_oracle_matches_per_variant_reference() {
    let mut configs = vec![OracleConfig::default()];
    for mu in [
        Mutation::SkipSpillStore,
        Mutation::BumpCcmOffset,
        Mutation::OverlapSlots,
    ] {
        configs.push(OracleConfig {
            mutation: Some(mu),
            ..OracleConfig::default()
        });
    }
    let (mut spilling, mut caught) = (0, 0);
    for seed in 0..32 {
        let m = gen_module(seed);
        for cfg in &configs {
            let staged = run_oracle(&m, cfg);
            assert_eq!(
                staged,
                reference_oracle(&m, cfg),
                "seed {seed}, mutation {:?}",
                cfg.mutation
            );
            spilling += usize::from(staged.as_ref().is_ok_and(|s| s.spilled_ranges > 0));
            caught += usize::from(cfg.mutation.is_some() && staged.is_err());
        }
    }
    // The comparison means something only if cases spill and mutations
    // produce failures.
    assert!(spilling > 0, "no seed spilled");
    assert!(caught > 0, "no mutation was caught");
}
