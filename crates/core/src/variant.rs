//! The four allocation configurations the paper measures, and the one
//! dispatch that applies them: a no-CCM Chaitin-Briggs baseline, the
//! post-pass allocator over that baseline with or without call-graph
//! information (§3.1), and CCM spilling integrated into the allocator
//! (§3.2).

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

/// Applies `variant` allocation under `cfg`, with CCM capacity
/// `ccm_size`, to an optimized module.
pub fn allocate(
    m: &mut Module,
    variant: Variant,
    ccm_size: u32,
    cfg: &AllocConfig,
) -> AllocOutcome {
    let postpass = |m: &mut Module, interprocedural: bool| -> AllocOutcome {
        let n = regalloc::allocate_module(m, cfg).total_spilled();
        let promos = crate::postpass_promote(
            m,
            &crate::PostpassConfig {
                ccm_size,
                interprocedural,
            },
        );
        AllocOutcome {
            spilled_ranges: n,
            degraded: promos
                .into_iter()
                .filter_map(|p| {
                    p.degraded.map(|reason| Degradation {
                        function: p.name,
                        reason,
                    })
                })
                .collect(),
        }
    };
    match variant {
        Variant::Baseline => AllocOutcome {
            spilled_ranges: regalloc::allocate_module(m, cfg).total_spilled(),
            degraded: Vec::new(),
        },
        Variant::PostPass => postpass(m, false),
        Variant::PostPassCallGraph => postpass(m, true),
        Variant::Integrated => {
            let (a, _, degraded) = crate::allocate_module_integrated(m, cfg, ccm_size);
            AllocOutcome {
                spilled_ranges: a.total_spilled(),
                degraded,
            }
        }
    }
}
