//! The four allocation configurations the paper measures, and the one
//! dispatch that applies them: a no-CCM Chaitin-Briggs baseline, the
//! post-pass allocator over that baseline with or without call-graph
//! information (§3.1), and CCM spilling integrated into the allocator
//! (§3.2).
//!
//! The three non-integrated variants share their expensive half: the
//! post-pass allocator runs *after* a conventional Chaitin-Briggs
//! allocation, which depends on neither the variant nor the CCM size.
//! So allocation is two stages, [`chaitin`] once per module and
//! [`promote`] per (variant, CCM size) on a copy of its output; a caller
//! that measures many configurations of one module (the harness cache,
//! the fuzz oracle) runs the first stage once. [`allocate`] chains the
//! two for one-shot callers, and is the only entry for
//! [`Variant::Integrated`], which is its own allocator.

use iloc::Module;
use regalloc::AllocConfig;

use crate::Degradation;

/// The allocation strategy under test — the three CCM methods of the
/// paper plus the no-CCM baseline.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Variant {
    /// Conventional Chaitin-Briggs; all spills to main memory.
    Baseline,
    /// Post-pass CCM allocator, no interprocedural information.
    PostPass,
    /// Post-pass CCM allocator with call-graph information.
    PostPassCallGraph,
    /// CCM spilling integrated into the Chaitin-Briggs allocator.
    Integrated,
}

impl Variant {
    /// All variants, baseline first.
    pub const ALL: [Variant; 4] = [
        Variant::Baseline,
        Variant::PostPass,
        Variant::PostPassCallGraph,
        Variant::Integrated,
    ];

    /// Column label used in the printed tables.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Baseline => "Without CCM",
            Variant::PostPass => "Post-Pass",
            Variant::PostPassCallGraph => "Post-Pass w/ Call Graph",
            Variant::Integrated => "Integrated",
        }
    }

    /// Short name used in error reports, fuzz reports and JSON.
    pub fn short(&self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::PostPass => "postpass",
            Variant::PostPassCallGraph => "postpass+cg",
            Variant::Integrated => "integrated",
        }
    }
}

/// The outcome of [`allocate`]: spill statistics plus any per-function
/// degradation events.
#[derive(Clone, Debug, Default)]
pub struct AllocOutcome {
    /// Live ranges spilled during allocation.
    pub spilled_ranges: usize,
    /// Functions that abandoned CCM allocation and kept conventional
    /// heavyweight spills.
    pub degraded: Vec<Degradation>,
}

/// Stage one of every variant but [`Variant::Integrated`]: the
/// conventional Chaitin-Briggs allocation under `cfg`, with every spill
/// to main memory. The result is the [`Variant::Baseline`] module.
/// Returns the number of live ranges spilled.
pub fn chaitin(m: &mut Module, cfg: &AllocConfig) -> usize {
    regalloc::allocate_module(m, cfg).total_spilled()
}

/// Stage two: applies `variant`'s post-pass to a module that [`chaitin`]
/// allocated, with CCM capacity `ccm_size`, and returns the functions
/// that degraded to heavyweight spills. [`Variant::Baseline`] leaves the
/// module as it is.
///
/// # Panics
///
/// On [`Variant::Integrated`], which allocates from scratch: use
/// [`allocate`].
pub fn promote(m: &mut Module, variant: Variant, ccm_size: u32) -> Vec<Degradation> {
    let interprocedural = match variant {
        Variant::Baseline => return Vec::new(),
        Variant::PostPass => false,
        Variant::PostPassCallGraph => true,
        Variant::Integrated => panic!("the integrated allocator has no post-pass stage"),
    };
    crate::postpass_promote(
        m,
        &crate::PostpassConfig {
            ccm_size,
            interprocedural,
        },
    )
    .into_iter()
    .filter_map(|p| {
        p.degraded.map(|reason| Degradation {
            function: p.name,
            reason,
        })
    })
    .collect()
}

/// Applies `variant` allocation under `cfg`, with CCM capacity
/// `ccm_size`, to an optimized module: [`chaitin`] then [`promote`], or
/// the integrated allocator.
pub fn allocate(
    m: &mut Module,
    variant: Variant,
    ccm_size: u32,
    cfg: &AllocConfig,
) -> AllocOutcome {
    if variant == Variant::Integrated {
        let (a, _, degraded) = crate::allocate_module_integrated(m, cfg, ccm_size);
        return AllocOutcome {
            spilled_ranges: a.total_spilled(),
            degraded,
        };
    }
    let spilled_ranges = chaitin(m, cfg);
    AllocOutcome {
        spilled_ranges,
        degraded: promote(m, variant, ccm_size),
    }
}
