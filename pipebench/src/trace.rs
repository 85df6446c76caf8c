//! The traced run: per-layer time and work counts, measured from this
//! crate by timing its own calls into each layer crate's public functions.
//! Nothing inside the program is instrumented.
//!
//! Three passes run in one fresh process, each on `jobs` workers with
//! results merged in item order, so the counts do not depend on `jobs`:
//!
//! 1. **harness** — the workload's work at the granularity its entry point
//!    uses: `harness::cache::measure_unit` per configuration, or
//!    `fuzz::gen_module` + `fuzz::run_oracle` per fuzz case. Runs first,
//!    while the memo caches are cold.
//! 2. **layers** — the same configurations replayed through the layer
//!    crates: suite build or fuzz generation, `opt::optimize_module`,
//!    `regalloc::allocate_module`, `ccm::postpass_promote` or
//!    `ccm::allocate_module_integrated`, `checker::check_module` and
//!    `sim::run_module`. The replay mirrors today's pipeline (one
//!    allocation per configuration); work that the harness shares across
//!    configurations shows in pass 1 and end to end, not here.
//! 3. **regalloc first round** — `EntityIndex::build` +
//!    `InterferenceGraph::build`, `SpillCosts::compute_with_remat` and
//!    `regalloc::color` on each optimized function's first-round input,
//!    per register class, once per unit. The graph is the one before
//!    coalescing (the allocator's coalescing pass is private), and later
//!    rounds (after spilling) are not timed.
//!
//! Times are busy seconds summed over workers.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use harness::{cache, Variant};
use iloc::{Module, RegClass};
use regalloc::AllocConfig;
use sim::{MachineConfig, RetValues};

use crate::report::{percentile, Json};
use crate::workload::{
    fuzz_configs_per_case, Options, Workload, FUZZ_CASES, SWEEP_BASELINE_CCM, SWEEP_SIZES,
    TABLE2_CCM,
};

/// Per-layer busy time (seconds) and work counts of one work item, or of
/// a whole pass after merging.
#[derive(Default)]
struct Trace {
    build_s: f64,
    opt_s: f64,
    regalloc_s: f64,
    postpass_s: f64,
    integrated_s: f64,
    checker_s: f64,
    sim_s: f64,
    igraph_s: f64,
    costs_s: f64,
    color_s: f64,
    measure_unit_s: f64,
    fuzz_gen_s: f64,
    fuzz_oracle_s: f64,
    ir_instrs: u64,
    rounds: u64,
    spilled: u64,
    coalesced: u64,
    igraph_edges: u64,
    promoted: u64,
    heavyweight: u64,
    integrated_ccm_spills: u64,
    degraded: u64,
    checker_errors: u64,
    sim_instrs: u64,
    harness_configs: u64,
    configs: u64,
    failed: u64,
    allocate_ms: Vec<f64>,
    case_ms: Vec<f64>,
}

impl Trace {
    fn merge(mut self, o: Trace) -> Trace {
        self.build_s += o.build_s;
        self.opt_s += o.opt_s;
        self.regalloc_s += o.regalloc_s;
        self.postpass_s += o.postpass_s;
        self.integrated_s += o.integrated_s;
        self.checker_s += o.checker_s;
        self.sim_s += o.sim_s;
        self.igraph_s += o.igraph_s;
        self.costs_s += o.costs_s;
        self.color_s += o.color_s;
        self.measure_unit_s += o.measure_unit_s;
        self.fuzz_gen_s += o.fuzz_gen_s;
        self.fuzz_oracle_s += o.fuzz_oracle_s;
        self.ir_instrs += o.ir_instrs;
        self.rounds += o.rounds;
        self.spilled += o.spilled;
        self.coalesced += o.coalesced;
        self.igraph_edges += o.igraph_edges;
        self.promoted += o.promoted;
        self.heavyweight += o.heavyweight;
        self.integrated_ccm_spills += o.integrated_ccm_spills;
        self.degraded += o.degraded;
        self.checker_errors += o.checker_errors;
        self.sim_instrs += o.sim_instrs;
        self.harness_configs += o.harness_configs;
        self.configs += o.configs;
        self.failed += o.failed;
        self.allocate_ms.extend(o.allocate_ms);
        self.case_ms.extend(o.case_ms);
        self
    }
}

/// Adds the duration of `f` to `acc` and returns its result.
fn time<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let r = f();
    *acc += start.elapsed().as_secs_f64();
    r
}

/// Maps each item to a [`Trace`] on `jobs` workers and merges the traces
/// in item order; returns the merged trace and the pass's wall time.
fn pass<I: Sync>(jobs: usize, items: &[I], f: impl Fn(&I) -> Trace + Sync) -> (Trace, f64) {
    let start = Instant::now();
    let traces = exec::par_map(jobs, items, |_| "traced item".to_string(), f);
    let wall = start.elapsed().as_secs_f64();
    (
        traces.into_iter().fold(Trace::default(), Trace::merge),
        wall,
    )
}

/// The result of one replayed configuration.
struct Run {
    spilled: usize,
    vals: RetValues,
    cycles: u64,
}

/// Allocates, checks and simulates one configuration of `m` through the
/// layer crates, timing each call.
fn replay(t: &mut Trace, m: &Module, variant: Variant, ccm_size: u32) -> Option<Run> {
    let alloc = AllocConfig::default();
    let mut mm = m.clone();
    t.configs += 1;
    let spilled = match variant {
        Variant::Integrated => {
            let (a, c, d) = time(&mut t.integrated_s, || {
                ccm::allocate_module_integrated(&mut mm, &alloc, ccm_size)
            });
            t.integrated_ccm_spills += c.ccm_spills as u64;
            t.degraded += d.len() as u64;
            a.total_spilled()
        }
        _ => {
            let mut ms = 0.0;
            let s = time(&mut ms, || regalloc::allocate_module(&mut mm, &alloc));
            t.regalloc_s += ms;
            t.allocate_ms.push(ms * 1e3);
            t.rounds += s.rounds.iter().sum::<usize>() as u64;
            t.spilled += s.total_spilled() as u64;
            t.coalesced += s.coalesced.iter().sum::<usize>() as u64;
            if variant != Variant::Baseline {
                let cfg = ccm::PostpassConfig {
                    ccm_size,
                    interprocedural: variant == Variant::PostPassCallGraph,
                };
                let promos = time(&mut t.postpass_s, || ccm::postpass_promote(&mut mm, &cfg));
                for p in promos {
                    t.promoted += p.promoted as u64;
                    t.heavyweight += p.heavyweight as u64;
                    t.degraded += u64::from(p.degraded.is_some());
                }
            }
            s.total_spilled()
        }
    };
    let diags = time(&mut t.checker_s, || {
        checker::check_module(&mm, &checker::CheckerConfig::with_alloc(ccm_size, alloc))
    });
    let errors = checker::errors(&diags).len() as u64;
    t.checker_errors += errors;
    if errors > 0 {
        t.failed += 1;
        return None;
    }
    match time(&mut t.sim_s, || {
        sim::run_module(&mm, MachineConfig::with_ccm(ccm_size), "main")
    }) {
        Ok((vals, metrics)) => {
            t.sim_instrs += metrics.instrs;
            Some(Run {
                spilled,
                vals,
                cycles: metrics.cycles,
            })
        }
        Err(_) => {
            t.failed += 1;
            None
        }
    }
}

/// Whether two runs returned bit-identical values.
fn same_values(a: &RetValues, b: &RetValues) -> bool {
    let bits = |v: &RetValues| v.floats.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    a.ints == b.ints && bits(a) == bits(b)
}

/// Builds and optimizes a kernel through the suite and opt crates,
/// as `suite::build_optimized` does.
fn build_kernel(t: &mut Trace, k: &suite::Kernel) -> Module {
    let mut m = time(&mut t.build_s, || (k.build)());
    let opts = opt::OptOptions {
        unroll: k.unroll,
        ..opt::OptOptions::default()
    };
    time(&mut t.opt_s, || opt::optimize_module(&mut m, &opts));
    t.ir_instrs += m.instr_count() as u64;
    m
}

/// Replays one kernel: baseline, then `variants` if the baseline spills.
/// Returns the trace, the optimized module and whether the baseline
/// spills.
fn replay_kernel(
    k: &suite::Kernel,
    ccm_size: u32,
    variants: &[Variant],
) -> (Trace, Arc<Module>, bool) {
    let mut t = Trace::default();
    let m = build_kernel(&mut t, k);
    let base = replay(&mut t, &m, Variant::Baseline, ccm_size);
    let spills = base.as_ref().is_some_and(|b| b.spilled > 0);
    if let Some(base) = base.filter(|_| spills) {
        for &v in variants {
            if let Some(r) = replay(&mut t, &m, v, ccm_size) {
                if !same_values(&r.vals, &base.vals) {
                    t.failed += 1;
                }
            }
        }
    }
    (t, Arc::new(m), spills)
}

/// Replays every suite kernel; returns the merged trace, the optimized
/// modules, and the indices of the kernels whose baseline spills.
fn replay_kernels(
    jobs: usize,
    ccm_size: u32,
    variants: &[Variant],
) -> (Trace, Vec<Arc<Module>>, Vec<usize>) {
    let per = exec::par_map(
        jobs,
        &suite::kernels(),
        |k| format!("replay {}", k.name),
        |k| replay_kernel(k, ccm_size, variants),
    );
    let mut trace = Trace::default();
    let mut modules = Vec::new();
    let mut spilling = Vec::new();
    for (i, (t, m, spills)) in per.into_iter().enumerate() {
        trace = trace.merge(t);
        modules.push(m);
        if spills {
            spilling.push(i);
        }
    }
    (trace, modules, spilling)
}

/// Times the first round of Chaitin-Briggs on every function of `m`, per
/// register class: graph build, spill costs and coloring. The allocator
/// coalesces before it colors, but its coalescing pass is private, so the
/// graph built and colored here is the one before coalescing.
fn first_round(m: &Module) -> Trace {
    let mut t = Trace::default();
    let alloc = AllocConfig::default();
    // Without rematerialization the allocator's remat set is empty.
    assert!(
        !alloc.rematerialize,
        "first_round assumes no rematerialization"
    );
    let (unspillable, remat) = (HashSet::new(), HashSet::new());
    for f in &m.functions {
        for class in RegClass::ALL {
            let g = time(&mut t.igraph_s, || {
                regalloc::InterferenceGraph::build(f, regalloc::EntityIndex::build(f, class))
            });
            t.igraph_edges += ((0..g.len()).map(|i| g.degree(i)).sum::<usize>() / 2) as u64;
            let costs = time(&mut t.costs_s, || {
                regalloc::SpillCosts::compute_with_remat(f, &unspillable, &remat)
            });
            time(&mut t.color_s, || {
                regalloc::color(&g, alloc.k(class), alloc.caller_saved, &costs)
            });
        }
    }
    t
}

/// Times one `harness::cache::measure_unit` call.
fn measure(t: &mut Trace, k: &suite::Kernel, v: Variant, ccm: u32) -> Option<harness::Measurement> {
    t.configs += 1;
    t.harness_configs += 1;
    let r = cache::optimized(k).and_then(|m| {
        time(&mut t.measure_unit_s, || {
            cache::measure_unit(k.name, &m, v, &MachineConfig::with_ccm(ccm))
        })
    });
    t.failed += u64::from(r.is_err());
    r.ok()
}

/// The harness pass over suite kernels: `baseline_ccm` baselines, then
/// `variants` at each of `sizes` for every spilling kernel, in the order
/// the entry points use.
fn harness_pass(
    jobs: usize,
    baseline_ccm: u32,
    sizes: &[u32],
    variants: &[Variant],
) -> (Trace, f64) {
    let kernels = suite::kernels();
    let start = Instant::now();
    let baselines = exec::par_map(
        jobs,
        &kernels,
        |k| format!("measure {}", k.name),
        |k| {
            let mut t = Trace::default();
            let b = measure(&mut t, k, Variant::Baseline, baseline_ccm);
            (t, b.is_some_and(|b| b.spilled_ranges > 0))
        },
    );
    let mut t = Trace::default();
    let mut spilling = Vec::new();
    for (k, (bt, spills)) in kernels.iter().zip(baselines) {
        t = t.merge(bt);
        if spills {
            spilling.push(k);
        }
    }
    let items: Vec<(u32, &suite::Kernel)> = sizes
        .iter()
        .flat_map(|&s| spilling.iter().map(move |&k| (s, k)))
        .collect();
    let (rest, _) = pass(jobs, &items, |&(size, k)| {
        let mut t = Trace::default();
        for &v in variants {
            measure(&mut t, k, v, size);
        }
        t
    });
    (t.merge(rest), start.elapsed().as_secs_f64())
}

/// Runs the three traced passes for `w` and writes the per-layer numbers.
pub fn traced(w: Workload, o: &Options, out: &mut Json) {
    let ccm_variants = [
        Variant::PostPass,
        Variant::PostPassCallGraph,
        Variant::Integrated,
    ];
    let (mut harness, harness_wall, mut layers, layers_wall, modules) = match w {
        Workload::Table2 => {
            let (h, hw) = harness_pass(o.jobs, TABLE2_CCM, &[TABLE2_CCM], &ccm_variants);
            let start = Instant::now();
            let (l, mods, _) = replay_kernels(o.jobs, TABLE2_CCM, &ccm_variants);
            (h, hw, l, start.elapsed().as_secs_f64(), mods)
        }
        Workload::Sweep => {
            let (h, hw) = harness_pass(
                o.jobs,
                SWEEP_BASELINE_CCM,
                &SWEEP_SIZES,
                &[Variant::PostPassCallGraph],
            );
            let start = Instant::now();
            let (l, mods, spilling) = replay_kernels(o.jobs, SWEEP_BASELINE_CCM, &[]);
            let items: Vec<(u32, usize)> = SWEEP_SIZES
                .iter()
                .flat_map(|&s| spilling.iter().map(move |&i| (s, i)))
                .collect();
            let (cells, _) = pass(o.jobs, &items, |&(size, i)| {
                let mut t = Trace::default();
                replay(&mut t, &mods[i], Variant::PostPassCallGraph, size);
                t
            });
            let lw = start.elapsed().as_secs_f64();
            (h, hw, l.merge(cells), lw, mods)
        }
        Workload::Fuzz => {
            let cfg = fuzz::OracleConfig::default();
            let cases: Vec<u64> = (0..FUZZ_CASES)
                .map(|i| fuzz::case_seed(o.seed, i))
                .collect();
            let (mut h, hw) = pass(o.jobs, &cases, |&seed| {
                let mut t = Trace::default();
                let m = time(&mut t.fuzz_gen_s, || fuzz::gen_module(seed));
                let mut ms = 0.0;
                let verdict = time(&mut ms, || fuzz::run_oracle(&m, &cfg));
                t.fuzz_oracle_s += ms;
                t.case_ms.push((t.fuzz_gen_s + ms) * 1e3);
                t.failed += u64::from(verdict.is_err());
                t
            });
            h.configs = (FUZZ_CASES * fuzz_configs_per_case(&cfg)) as u64;
            let (l, lw) = pass(o.jobs, &cases, |&seed| {
                let mut t = Trace::default();
                let m = time(&mut t.build_s, || fuzz::gen_module(seed));
                t.ir_instrs += m.instr_count() as u64;
                for &ccm in &cfg.ccm_sizes {
                    let Some(base) = replay(&mut t, &m, Variant::Baseline, ccm) else {
                        continue;
                    };
                    for &v in &ccm_variants {
                        if let Some(r) = replay(&mut t, &m, v, ccm) {
                            if !same_values(&r.vals, &base.vals) || r.cycles > base.cycles {
                                t.failed += 1;
                            }
                        }
                    }
                }
                t
            });
            let mods = cases
                .iter()
                .map(|&s| Arc::new(fuzz::gen_module(s)))
                .collect::<Vec<_>>();
            (h, hw, l, lw, mods)
        }
    };
    let (sub, _) = pass(o.jobs, &modules, |m| first_round(m));

    out.num("harness_wall_s", harness_wall);
    out.num("layers_wall_s", layers_wall);
    out.int("attempted", harness.configs + layers.configs);
    out.int("failed", harness.failed + layers.failed);
    out.num("build.input_s", layers.build_s);
    out.num("opt.optimize_s", layers.opt_s);
    out.int("opt.ir_instrs", layers.ir_instrs);
    out.num("regalloc.allocate_s", layers.regalloc_s);
    out.num(
        "regalloc.allocate_p95_ms",
        percentile(&mut layers.allocate_ms, 95.0),
    );
    out.int("regalloc.allocate_calls", layers.allocate_ms.len() as u64);
    out.int("regalloc.rounds", layers.rounds);
    out.int("regalloc.spilled", layers.spilled);
    out.int("regalloc.coalesced", layers.coalesced);
    out.num("regalloc.igraph_build_s", sub.igraph_s);
    out.int("regalloc.igraph_edges", sub.igraph_edges);
    out.num("regalloc.costs_s", sub.costs_s);
    out.num("regalloc.color_s", sub.color_s);
    out.num("ccm.postpass_s", layers.postpass_s);
    out.int("ccm.promoted", layers.promoted);
    out.int("ccm.heavyweight", layers.heavyweight);
    out.num("ccm.integrated_s", layers.integrated_s);
    out.int("ccm.integrated_ccm_spills", layers.integrated_ccm_spills);
    out.int("ccm.degraded", layers.degraded);
    out.num("checker.check_s", layers.checker_s);
    out.int("checker.errors", layers.checker_errors);
    out.num("sim.run_s", layers.sim_s);
    out.int("sim.instrs", layers.sim_instrs);
    out.num("harness.measure_unit_s", harness.measure_unit_s);
    out.int("harness.configs", harness.harness_configs);
    out.num("fuzz.gen_s", harness.fuzz_gen_s);
    out.num("fuzz.oracle_s", harness.fuzz_oracle_s);
    out.num("fuzz.case_p95_ms", percentile(&mut harness.case_ms, 95.0));
}
