//! The three workloads, each timed through the stable experiment entry
//! point that its `repro` stage calls, and the output checks that feed
//! `failed`.

use std::collections::BTreeSet;
use std::time::Instant;

use harness::{cache, error, Variant};
use sim::MachineConfig;

use crate::report::{peak_rss_mib, Json};

/// Table 2's CCM size.
pub const TABLE2_CCM: u32 = 512;
/// `repro --sweep`'s CCM sizes.
pub const SWEEP_SIZES: [u32; 7] = [64, 128, 256, 512, 1024, 2048, 4096];
/// The CCM size `harness::ccm_sweep_jobs` measures its baselines at.
pub const SWEEP_BASELINE_CCM: u32 = 16;
/// Generated modules per `fuzz-oracle` measurement.
pub const FUZZ_CASES: usize = 256;

/// One benchmark workload.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// All suite kernels under the four variants at 512 B (Table 2).
    Table2,
    /// The spilling kernels, post-pass with call graph, at seven CCM
    /// sizes plus baselines (`repro --sweep`).
    Sweep,
    /// Seeded generated modules through the differential oracle
    /// (`repro --fuzz`).
    Fuzz,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        [Workload::Table2, Workload::Sweep, Workload::Fuzz]
            .into_iter()
            .find(|w| w.name() == s)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2 => "table2-kernels",
            Workload::Sweep => "ccm-sweep",
            Workload::Fuzz => "fuzz-oracle",
        }
    }
}

/// Worker options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Worker threads, passed to the entry points' `jobs` argument.
    pub jobs: usize,
    /// Base seed of the fuzz campaign (the suite workloads are fixed).
    pub seed: u64,
    /// Corrupt one kernel's reference checksum on `table2-kernels` and
    /// `ccm-sweep`, so a self-test can show that the checksum check
    /// counts failures.
    pub wrong_reference: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            jobs: exec::available(),
            seed: 1,
            wrong_reference: false,
        }
    }
}

/// The configurations the fuzz oracle runs per case: every variant at
/// every CCM size (baseline is the reference at each size).
pub fn fuzz_configs_per_case(cfg: &fuzz::OracleConfig) -> usize {
    let non_baseline = cfg
        .variants
        .iter()
        .filter(|v| **v != fuzz::Variant::Baseline)
        .count();
    cfg.ccm_sizes.len() * (1 + non_baseline)
}

/// Counts of one measurement: configurations attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Counts every failure `harness::error` recorded, and returns the
    /// units they name.
    fn drain_errors(&mut self) -> BTreeSet<String> {
        let errors = error::drain();
        for e in &errors {
            eprintln!("pipebench: failed: {e}");
        }
        self.failed += errors.len();
        errors.into_iter().map(|e| e.unit).collect()
    }

    fn fail(&mut self, why: String) {
        eprintln!("pipebench: failed: {why}");
        self.failed += 1;
    }
}

/// Whether a suite kernel's baseline spills at `ccm`. The entry points
/// measured every baseline already, so this is a memo hit.
fn baseline_spills(k: &suite::Kernel, ccm: u32) -> bool {
    cache::optimized(k)
        .and_then(|m| {
            cache::measure_unit(k.name, &m, Variant::Baseline, &MachineConfig::with_ccm(ccm))
        })
        .is_ok_and(|b| b.spilled_ranges > 0)
}

/// The checksum of a kernel's unoptimized module, simulated before any
/// allocation: a reference that opt, regalloc and ccm cannot affect.
fn reference_checksum(k: &suite::Kernel) -> Option<u64> {
    let raw = (k.build)();
    let (vals, _) = sim::run_module(&raw, MachineConfig::with_ccm(TABLE2_CCM), "main").ok()?;
    vals.floats.first().map(|f| f.to_bits())
}

/// Runs the workload's entry point once, untraced, and checks its output.
pub fn timed(w: Workload, o: &Options, out: &mut Json) {
    let mut t = Tally::default();
    let (wall, rss) = match w {
        Workload::Table2 => table2(o, &mut t, out),
        Workload::Sweep => sweep(o, &mut t, out),
        Workload::Fuzz => fuzz_campaign(o, &mut t, out),
    };
    out.num("wall_s", wall);
    out.num("peak_rss_mb", rss);
    out.int("attempted", t.attempted as u64);
    out.int("failed", t.failed as u64);
}

fn table2(o: &Options, t: &mut Tally, out: &mut Json) -> (f64, f64) {
    let start = Instant::now();
    let rows = harness::speedup_rows_jobs(TABLE2_CCM, o.jobs);
    let wall = start.elapsed().as_secs_f64();
    let rss = peak_rss_mib();

    let errored = t.drain_errors();
    let mut corrupt = o.wrong_reference;
    let mut spilled = 0;
    for k in suite::kernels() {
        let row = rows.iter().find(|r| r.name == k.name);
        if row.is_none() && !baseline_spills(&k, TABLE2_CCM) {
            // Table 2 lists only kernels that spill: one baseline config.
            t.attempted += 1;
            continue;
        }
        t.attempted += Variant::ALL.len();
        let Some(row) = row else {
            if !errored.contains(k.name) {
                t.fail(format!("{}: spilling kernel has no Table 2 row", k.name));
            }
            continue;
        };
        spilled += row.baseline.spilled_ranges;
        let Some(mut reference) = reference_checksum(&k) else {
            t.fail(format!("{}: unoptimized module did not run", k.name));
            continue;
        };
        if std::mem::take(&mut corrupt) {
            reference ^= 1;
        }
        for (v, m) in Variant::ALL.iter().zip([
            &row.baseline,
            &row.postpass,
            &row.postpass_cg,
            &row.integrated,
        ]) {
            if m.checksum.to_bits() != reference {
                t.fail(format!(
                    "{}/{}: checksum {} differs from the unoptimized module's {}",
                    k.name,
                    v.short(),
                    m.checksum,
                    f64::from_bits(reference)
                ));
            }
        }
    }
    let cells = harness::table4_from(&rows);
    for (name, c) in ["postpass", "postpass-cg", "integrated"].iter().zip(cells) {
        out.num(&format!("cycle_cut_pct.{name}"), c.total_pct);
        out.num(&format!("mem_cycle_cut_pct.{name}"), c.mem_pct);
    }
    out.int("rows", rows.len() as u64);
    out.int("baseline_spilled", spilled as u64);
    (wall, rss)
}

fn sweep(o: &Options, t: &mut Tally, out: &mut Json) -> (f64, f64) {
    let start = Instant::now();
    let points = harness::ccm_sweep_jobs(&SWEEP_SIZES, o.jobs);
    let wall = start.elapsed().as_secs_f64();
    let rss = peak_rss_mib();

    let errored = t.drain_errors();
    let kernels = suite::kernels();
    let spilling: Vec<&suite::Kernel> = kernels
        .iter()
        .filter(|k| baseline_spills(k, SWEEP_BASELINE_CCM))
        .collect();
    t.attempted += kernels.len() + SWEEP_SIZES.len() * spilling.len();
    let pc = Variant::PostPassCallGraph.short();
    let mut corrupt = o.wrong_reference;
    for k in spilling.iter().filter(|k| !errored.contains(k.name)) {
        let Some(mut reference) = reference_checksum(k) else {
            t.fail(format!("{}: unoptimized module did not run", k.name));
            continue;
        };
        if std::mem::take(&mut corrupt) {
            reference ^= 1;
        }
        for size in SWEEP_SIZES {
            // The entry point measured this configuration: a memo hit.
            let m = cache::optimized(k).and_then(|m| {
                let machine = MachineConfig::with_ccm(size);
                cache::measure_unit(k.name, &m, Variant::PostPassCallGraph, &machine)
            });
            match m {
                Err(e) => t.fail(format!("{}/{pc} @ {size} B: {e}", k.name)),
                Ok(m) if m.checksum.to_bits() != reference => t.fail(format!(
                    "{}/{pc} @ {size} B: checksum {} differs from the unoptimized module's {}",
                    k.name,
                    m.checksum,
                    f64::from_bits(reference)
                )),
                Ok(_) => {}
            }
        }
    }
    for size in SWEEP_SIZES {
        match points.iter().find(|p| p.ccm_size == size) {
            None => t.fail(format!("sweep point {size} B is missing")),
            Some(p)
                if ![p.total_pct, p.mem_pct, p.promoted_fraction]
                    .iter()
                    .all(|x| x.is_finite()) =>
            {
                t.fail(format!("sweep point {size} B is not finite: {p:?}"))
            }
            Some(p) if p.total_pct < 0.0 => {
                t.fail(format!("CCM of {size} B is slower than baseline: {p:?}"))
            }
            Some(_) => {}
        }
    }
    let n = points.len().max(1) as f64;
    out.num(
        "cycle_cut_pct.postpass-cg",
        points.iter().map(|p| p.total_pct).sum::<f64>() / n,
    );
    out.num(
        "mem_cycle_cut_pct.postpass-cg",
        points.iter().map(|p| p.mem_pct).sum::<f64>() / n,
    );
    out.num(
        "promoted_fraction",
        points.iter().map(|p| p.promoted_fraction).sum::<f64>() / n,
    );
    out.int("spilling_kernels", spilling.len() as u64);
    (wall, rss)
}

fn fuzz_campaign(o: &Options, t: &mut Tally, out: &mut Json) -> (f64, f64) {
    let cfg = fuzz::OracleConfig::default();
    let start = Instant::now();
    let results = fuzz::campaign(FUZZ_CASES, o.seed, o.jobs, &cfg);
    let wall = start.elapsed().as_secs_f64();
    let rss = peak_rss_mib();

    t.attempted += FUZZ_CASES * fuzz_configs_per_case(&cfg);
    let (mut instrs, mut spilled, mut ccm_ops, mut base_cycles) = (0, 0, 0, 0);
    for r in &results {
        match &r.outcome {
            Ok(s) => {
                instrs += s.instrs;
                spilled += s.spilled_ranges;
                ccm_ops += s.ccm_ops;
                base_cycles += s.base_cycles;
            }
            Err(f) => t.fail(format!(
                "fuzz case {} (seed {:#x}): {} in {} at ccm {}",
                r.index,
                r.seed,
                f.failure.kind.label(),
                f.failure.variant.label(),
                f.failure.ccm
            )),
        }
    }
    if results.len() != FUZZ_CASES {
        t.fail(format!(
            "campaign returned {} of {} cases",
            results.len(),
            FUZZ_CASES
        ));
    }
    out.int("fuzz_instrs", instrs as u64);
    out.int("baseline_spilled", spilled as u64);
    out.int("ccm_ops", ccm_ops);
    out.int("baseline_cycles", base_cycles);
    (wall, rss)
}
