//! CCM allocation during spill-code insertion (§3.2, Figure 2).
//!
//! The integrated scheme makes CCM locations visible *inside* the
//! Chaitin-Briggs allocator: CCM offsets appear as entities in the
//! interference graph (the `regalloc` crate builds those edges), the
//! coloring phase ignores them, and spill-code insertion consults them —
//! a value `v` may be spilled to CCM position `m` unless
//!
//! * an edge `(v, m)` is in the interference graph (a previous round's
//!   occupant of `m` is live where `v` is), or
//! * a value `p` with an edge `(v, p)` — or copy-related to `v` with
//!   overlapping live ranges, which the copy exemption hides from the
//!   edge set — was already spilled to `m` in the current round (the
//!   paper's footnote-5 side structure).
//!
//! Values live across calls keep the conservative intraprocedural
//! convention and go to main memory, so CCM contents can never be
//! clobbered by a callee. Offsets used by the *other* register class are
//! never shared (the per-class interference graphs cannot see each other).

use crate::slots::{first_free_offset, overlaps};
use crate::Degradation;
use iloc::{Function, Module, Reg, SpillSlot};
use regalloc::{
    allocate_function_with, AllocConfig, AllocStats, Entity, InterferenceGraph, Placement,
    SpillPlacer,
};

/// Statistics from integrated allocation of one function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegratedStats {
    /// Spilled live ranges redirected into the CCM.
    pub ccm_spills: usize,
    /// Spilled live ranges sent to main memory (heavyweight).
    pub heavyweight_spills: usize,
    /// Highest CCM byte used, across the whole run.
    pub high_water: u32,
}

/// A [`SpillPlacer`] that tries the CCM first, per the paper's integrated
/// algorithm.
#[derive(Debug)]
pub struct CcmPlacer {
    ccm_size: u32,
    /// (value, offset, size) placed in the current spill round.
    round: Vec<(Reg, u32, u32)>,
    /// Byte intervals ever handed out, per class — used to forbid
    /// cross-class sharing.
    intervals: [Vec<(u32, u32)>; 2],
    /// Accumulated statistics.
    pub stats: IntegratedStats,
}

impl CcmPlacer {
    /// Creates a placer for a CCM of `ccm_size` bytes.
    pub fn new(ccm_size: u32) -> CcmPlacer {
        CcmPlacer {
            ccm_size,
            round: Vec::new(),
            intervals: [Vec::new(), Vec::new()],
            stats: IntegratedStats::default(),
        }
    }
}

impl SpillPlacer for CcmPlacer {
    fn place(
        &mut self,
        f: &mut Function,
        v: Reg,
        v_id: usize,
        graph: &InterferenceGraph,
    ) -> Placement {
        // Conservative interprocedural convention: call-crossing values
        // stay in main memory.
        if graph.crosses_call(v_id) {
            self.stats.heavyweight_spills += 1;
            return Placement::Frame(f.frame.new_slot(v.class()));
        }
        let class = v.class();
        let size = class.value_size();

        // Forbidden byte intervals for v:
        let mut forbidden: Vec<(u32, u32)> = Vec::new();
        // 1. CCM locations v interferes with (previous rounds' spills,
        //    visible as Ccm entities in the graph).
        for off in graph.ccm_neighbors(v_id) {
            forbidden.push((off, size.max(graph.entities.class().value_size())));
        }
        // 2. Same-round placements of values conflicting with v. Note
        //    `slot_conflict`, not `interferes`: copy-related values can
        //    share a register but not a spill slot.
        for (p, off, psize) in &self.round {
            let p_id = graph.entities.get(Entity::Reg(*p));
            let conflict = match p_id {
                Some(pid) => graph.slot_conflict(v_id, pid),
                None => true, // unknown: be safe
            };
            if conflict {
                forbidden.push((*off, *psize));
            }
        }
        // 3. Anything the other register class ever used.
        let other = 1 - class.index();
        forbidden.extend(self.intervals[other].iter().copied());

        // Successive-location search from the bottom of the CCM.
        let placed = first_free_offset(0, size, Some(self.ccm_size), |candidate| {
            forbidden.iter().any(|&iv| overlaps(candidate, iv))
        });

        match placed {
            Some(off) => {
                self.round.push((v, off, size));
                self.intervals[class.index()].push((off, size));
                self.stats.ccm_spills += 1;
                self.stats.high_water = self.stats.high_water.max(off + size);
                let slot = f.frame.push_slot(SpillSlot {
                    offset: off,
                    class,
                    in_ccm: true,
                });
                Placement::Ccm(slot)
            }
            None => {
                self.stats.heavyweight_spills += 1;
                Placement::Frame(f.frame.new_slot(class))
            }
        }
    }

    fn end_round(&mut self) {
        self.round.clear();
    }
}

/// Runs the integrated allocator on one function: Chaitin-Briggs with CCM
/// spilling built into spill-code insertion. Returns the allocator stats,
/// the placer's CCM stats, and — when CCM placement had to be abandoned
/// for this function — a [`Degradation`] event describing the fallback.
///
/// Degradation reruns the allocation with a zero-sized CCM, so every
/// spill becomes a conventional heavyweight spill for this function only;
/// the rest of the module is unaffected.
pub fn allocate_function_integrated(
    f: &mut Function,
    cfg: &AllocConfig,
    ccm_size: u32,
) -> (AllocStats, IntegratedStats, Option<Degradation>) {
    if inject::faultpoint!("alloc.ccm_coloring") {
        // The fault fires before any mutation, so a clean zero-CCM rerun
        // models "coloring failed, fall back to heavyweight spills".
        let mut placer = CcmPlacer::new(0);
        let stats = allocate_function_with(f, cfg, &mut placer);
        let d = Degradation {
            function: f.name.clone(),
            reason: "injected CCM coloring failure".to_string(),
        };
        return (stats, placer.stats, Some(d));
    }
    let mut placer = CcmPlacer::new(ccm_size);
    let stats = allocate_function_with(f, cfg, &mut placer);
    (stats, placer.stats, None)
}

/// Runs the integrated allocator over every function. Each function gets
/// a fresh placer; the intraprocedural convention (no call-crossing values
/// in CCM) makes cross-function offset reuse safe. The returned vector
/// lists every function that degraded to heavyweight spilling.
pub fn allocate_module_integrated(
    m: &mut Module,
    cfg: &AllocConfig,
    ccm_size: u32,
) -> (AllocStats, IntegratedStats, Vec<Degradation>) {
    if inject::faultpoint!("alloc.panic") {
        panic!("injected allocator panic (integrated)");
    }
    let mut alloc_total = AllocStats::default();
    let mut ccm_total = IntegratedStats::default();
    let mut degradations = Vec::new();
    for f in &mut m.functions {
        let (a, c, d) = allocate_function_integrated(f, cfg, ccm_size);
        for i in 0..2 {
            alloc_total.spilled[i] += a.spilled[i];
            alloc_total.coalesced[i] += a.coalesced[i];
            alloc_total.rounds[i] += a.rounds[i];
        }
        ccm_total.ccm_spills += c.ccm_spills;
        ccm_total.heavyweight_spills += c.heavyweight_spills;
        ccm_total.high_water = ccm_total.high_water.max(c.high_water);
        degradations.extend(d);
    }
    (alloc_total, ccm_total, degradations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iloc::builder::FuncBuilder;
    use iloc::{Module, RegClass, SpillKind};

    fn wide_module(width: usize) -> Module {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        let vals: Vec<_> = (0..width).map(|i| fb.loadi(i as i64)).collect();
        let mut acc = vals[width - 1];
        for v in vals[..width - 1].iter().rev() {
            acc = fb.add(acc, *v);
        }
        fb.ret(&[acc]);
        let mut m = Module::new();
        m.push_function(fb.finish());
        m
    }

    #[test]
    fn integrated_spills_go_to_ccm() {
        let mut m = wide_module(14);
        let (alloc, ccm, _) = allocate_module_integrated(&mut m, &AllocConfig::tiny(4), 512);
        assert!(alloc.total_spilled() > 0);
        assert_eq!(ccm.ccm_spills, alloc.total_spilled());
        assert_eq!(ccm.heavyweight_spills, 0);
        m.verify().unwrap();
        // All spill instructions are CCM ops.
        for b in &m.functions[0].blocks {
            for i in &b.instrs {
                if i.spill != SpillKind::None {
                    assert!(i.op.is_ccm_op());
                }
            }
        }
        let (v, metrics) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![(0..14).sum::<i64>()]);
        assert!(metrics.ccm_ops > 0);
        assert_eq!(metrics.main_mem_ops, 0);
    }

    #[test]
    fn integrated_beats_baseline_cycles() {
        let mut base = wide_module(16);
        let mut ccm_m = base.clone();
        regalloc::allocate_module(&mut base, &AllocConfig::tiny(4));
        allocate_module_integrated(&mut ccm_m, &AllocConfig::tiny(4), 512);
        let (v0, m0) = sim::run_module(&base, sim::MachineConfig::default(), "main").unwrap();
        let (v1, m1) = sim::run_module(&ccm_m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v0, v1);
        assert!(m1.cycles < m0.cycles, "integrated CCM must be faster");
    }

    #[test]
    fn zero_sized_ccm_degenerates_to_baseline() {
        let mut a = wide_module(14);
        let mut b = a.clone();
        regalloc::allocate_module(&mut a, &AllocConfig::tiny(4));
        let (_, ccm, _) = allocate_module_integrated(&mut b, &AllocConfig::tiny(4), 0);
        assert_eq!(ccm.ccm_spills, 0);
        assert!(ccm.heavyweight_spills > 0);
        let (va, ma) = sim::run_module(&a, sim::MachineConfig::default(), "main").unwrap();
        let (vb, mb) = sim::run_module(&b, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(va, vb);
        assert_eq!(ma.cycles, mb.cycles);
    }

    #[test]
    fn call_crossing_values_stay_heavyweight() {
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Gpr]);
        // Values live across the call, forcing spills with k=3.
        let vals: Vec<_> = (0..8).map(|i| fb.loadi(i)).collect();
        let r = fb.call("leaf", &[], &[RegClass::Gpr]);
        let mut acc = r[0];
        for v in &vals {
            acc = fb.add(acc, *v);
        }
        fb.ret(&[acc]);

        let mut leaf = FuncBuilder::new("leaf");
        leaf.set_ret_classes(&[RegClass::Gpr]);
        let x = leaf.loadi(1000);
        leaf.ret(&[x]);

        let mut m = Module::new();
        m.push_function(fb.finish());
        m.push_function(leaf.finish());
        let (_, ccm, _) = allocate_module_integrated(&mut m, &AllocConfig::tiny(3), 512);
        assert!(
            ccm.heavyweight_spills > 0,
            "call-crossing spills must go to main memory"
        );
        let (v, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![1000 + (0..8).sum::<i64>()]);
    }

    #[test]
    fn tiny_ccm_mixes_ccm_and_heavyweight() {
        let mut m = wide_module(40);
        let (_, ccm, _) = allocate_module_integrated(&mut m, &AllocConfig::tiny(3), 8);
        assert!(ccm.ccm_spills > 0);
        assert!(ccm.heavyweight_spills > 0);
        assert!(ccm.high_water <= 8);
        let (v, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.ints, vec![(0..40).sum::<i64>()]);
    }

    #[test]
    fn classes_never_share_ccm_bytes() {
        // Force both integer and float spills into a small CCM.
        let mut fb = FuncBuilder::new("main");
        fb.set_ret_classes(&[RegClass::Fpr]);
        let ints: Vec<_> = (0..10).map(|i| fb.loadi(i)).collect();
        let floats: Vec<_> = (0..10).map(|i| fb.loadf(i as f64)).collect();
        let mut iacc = ints[9];
        for v in ints[..9].iter().rev() {
            iacc = fb.add(iacc, *v);
        }
        let mut facc = floats[9];
        for v in floats[..9].iter().rev() {
            facc = fb.fadd(facc, *v);
        }
        let conv = fb.i2f(iacc);
        let out = fb.fadd(conv, facc);
        fb.ret(&[out]);
        let mut m = Module::new();
        m.push_function(fb.finish());
        allocate_module_integrated(&mut m, &AllocConfig::tiny(4), 64);
        // Collect CCM intervals per class from the frame and check
        // pairwise disjointness across classes.
        let f = &m.functions[0];
        let mut by_class: [Vec<(u32, u32)>; 2] = [Vec::new(), Vec::new()];
        for s in &f.frame.slots {
            if s.in_ccm {
                by_class[s.class.index()].push((s.offset, s.size()));
            }
        }
        for a in &by_class[0] {
            for b in &by_class[1] {
                assert!(!overlaps(*a, *b), "cross-class CCM overlap: {a:?} vs {b:?}");
            }
        }
        let (v, _) = sim::run_module(&m, sim::MachineConfig::default(), "main").unwrap();
        assert_eq!(v.floats, vec![45.0 + 45.0]);
    }
}
