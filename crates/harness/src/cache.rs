//! Memoized pipeline stages, shared by every experiment.
//!
//! `repro --all` would otherwise redo the same work once per table:
//! rebuild and re-optimize every kernel module, re-allocate it per
//! (variant, CCM size), re-check it, and re-simulate it. Every stage of
//! that pipeline is deterministic (the suite is seeded, allocation and
//! simulation take no entropy), so each is cached here at its natural
//! key, and every later experiment reads the cache instead of
//! recomputing. The stages form one chain:
//!
//! * **build** — [`optimized`]/[`program`] memoize
//!   [`suite::build_optimized`]/[`suite::build_program`] per unit name;
//! * **chaitin** — [`chaitin`] memoizes the conventional Chaitin-Briggs
//!   allocation ([`ccm::chaitin`]) of a build per unit name. It depends
//!   on neither the variant nor the CCM size, so the `--sweep` and
//!   `--table3` sizes, the three non-integrated variants and Table 1's
//!   compaction all share it;
//! * **promote / integrated, then check** — [`allocated`] memoizes one
//!   checked allocation per (unit, variant, CCM size). The post-pass
//!   variants promote a copy of the chaitin module ([`ccm::promote`]);
//!   `Baseline` *is* the chaitin module, shared without a copy; and the
//!   integrated allocator, its own allocator, starts from the build;
//! * **sim** — [`measure_unit`] memoizes the simulation result per
//!   (unit, variant, machine fingerprint); Table 2's rows are a subset
//!   of Table 3's, and the sweep/multitask studies revisit the same CCM
//!   sizes.
//!
//! **One computation per key.** Each key owns a cell with its own lock.
//! The map lock is held only to find or insert the cell; the first
//! worker to ask for a key computes it under the cell's lock, and other
//! workers asking for the same key wait for that result instead of
//! computing it again. Workers on other keys never wait. Locks are taken
//! only down the chain (sim → allocation → chaitin), so waiting cannot
//! deadlock. A cache hit returns exactly the value a recomputation
//! would, which is why caching cannot break the engine's byte-identical
//! guarantee at any `--jobs`.
//!
//! **Errors are never cached.** Failure is structured end to end: build
//! panics become `stage=opt` errors, allocation panics `stage=alloc`,
//! checker rejections `stage=checker`, simulator traps `stage=sim`. A
//! failed computation leaves its cell empty, so the next caller
//! recomputes rather than replaying a stale error. Every cached
//! measurement is also **sealed** with a digest at insert time: a
//! corrupted entry (bit rot, or the `cache.corrupt_measurement` fault
//! point) is detected on its next hit as a `stage=cache` error and
//! evicted instead of silently poisoning a table.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use ccm::{AllocOutcome, Variant};
use iloc::Module;
use regalloc::AllocConfig;
use sim::MachineConfig;
use suite::{Kernel, Program};

use crate::error::{self, PipelineError, Stage};
use crate::pipeline::{self, Allocated, Measurement};

/// Locks a cache map or cell, recovering from poisoning: a panic caught
/// by the containment layer must not wedge every later measurement.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A memo cell: empty until its key's computation first succeeds.
type Cell<V> = Arc<Mutex<Option<V>>>;

/// One memoized stage: a process-wide map from key to [`Cell`].
struct Memo<K, V>(OnceLock<Mutex<HashMap<K, Cell<V>>>>);

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    const fn new() -> Self {
        Memo(OnceLock::new())
    }

    /// The cell of `key`, inserted empty on first use. Holds the map lock
    /// only for the lookup.
    fn cell(&self, key: K) -> Cell<V> {
        let map = self.0.get_or_init(Mutex::default);
        Arc::clone(lock(map).entry(key).or_default())
    }

    /// The value of `key`, computed by `compute` under the cell's lock
    /// if no earlier call succeeded. An error leaves the cell empty.
    fn get_or_try(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, PipelineError>,
    ) -> Result<V, PipelineError> {
        let cell = self.cell(key);
        let mut slot = lock(&cell);
        if let Some(v) = &*slot {
            return Ok(v.clone());
        }
        let v = compute()?;
        *slot = Some(v.clone());
        Ok(v)
    }
}

static KERNELS: Memo<&'static str, Arc<Module>> = Memo::new();
static PROGRAMS: Memo<&'static str, Arc<Module>> = Memo::new();

fn memoized(
    memo: &Memo<&'static str, Arc<Module>>,
    name: &'static str,
    build: impl FnOnce() -> Module,
) -> Result<Arc<Module>, PipelineError> {
    // Build panics (a generator or optimizer bug) become structured
    // `stage=opt` failures.
    memo.get_or_try(name, || {
        error::contain(Stage::Opt, name, build).map(Arc::new)
    })
}

/// [`suite::build_optimized`], memoized per kernel name.
///
/// # Errors
///
/// A build/optimize panic is contained as a `stage=opt` error.
pub fn optimized(k: &Kernel) -> Result<Arc<Module>, PipelineError> {
    memoized(&KERNELS, k.name, || suite::build_optimized(k))
}

/// [`suite::build_program`], memoized per program name.
///
/// # Errors
///
/// A build/optimize panic is contained as a `stage=opt` error.
pub fn program(p: &Program) -> Result<Arc<Module>, PipelineError> {
    memoized(&PROGRAMS, p.name, || suite::build_program(p))
}

/// The chaitin stage's output: the `Baseline` module of a unit.
#[derive(Clone)]
pub struct Chaitin {
    /// The build after [`ccm::chaitin`], every spill in main memory.
    pub module: Arc<Module>,
    /// Live ranges spilled during allocation.
    pub spilled_ranges: usize,
}

static CHAITIN: Memo<String, Chaitin> = Memo::new();

/// [`ccm::chaitin`] on `base` under the default [`AllocConfig`],
/// memoized per unit name; `base` must be the cached build for `name`.
///
/// # Errors
///
/// An allocation panic is contained as a `stage=alloc` error with no
/// variant or CCM size.
pub fn chaitin(name: &str, base: &Module) -> Result<Chaitin, PipelineError> {
    CHAITIN.get_or_try(name.to_string(), || {
        error::contain(Stage::Alloc, name, || {
            let mut m = base.clone();
            let spilled_ranges = ccm::chaitin(&mut m, &AllocConfig::default());
            Chaitin {
                module: Arc::new(m),
                spilled_ranges,
            }
        })
    })
}

static ALLOCATIONS: Memo<(String, Variant, u32), Allocated> = Memo::new();

/// One allocated-and-checked configuration of `base`, memoized per (unit
/// name, variant, CCM size), with the same result as
/// [`pipeline::allocate_checked`]. The non-integrated variants start
/// from the unit's memoized Chaitin-Briggs allocation: `Baseline` shares
/// its module, and the post-pass variants promote a copy. Kernel and
/// program names are globally unique in the suite, so the flat name key
/// cannot collide; `base` must be the cached build for `name`.
///
/// # Errors
///
/// An allocation panic is contained as a `stage=alloc` error.
pub fn allocated(
    name: &str,
    base: &Arc<Module>,
    variant: Variant,
    ccm_size: u32,
) -> Result<Allocated, PipelineError> {
    ALLOCATIONS.get_or_try((name.to_string(), variant, ccm_size), || {
        if variant == Variant::Integrated {
            return pipeline::allocate_checked(name, (**base).clone(), variant, ccm_size);
        }
        let c = chaitin(name, base).map_err(|e| e.at(variant, ccm_size))?;
        let (module, degraded) = if variant == Variant::Baseline {
            (c.module, Vec::new())
        } else {
            error::contain(Stage::Alloc, name, || {
                let mut m = (*c.module).clone();
                let degraded = ccm::promote(&mut m, variant, ccm_size);
                (Arc::new(m), degraded)
            })
            .map_err(|e| e.at(variant, ccm_size))?
        };
        let outcome = AllocOutcome {
            spilled_ranges: c.spilled_ranges,
            degraded,
        };
        Ok(Allocated::checked(module, outcome, ccm_size))
    })
}

/// A cached measurement sealed with the digest computed at insert time.
#[derive(Clone)]
struct Sealed {
    m: Measurement,
    digest: u64,
}

/// FNV-1a over the measurement's observable fields. Detects any
/// corruption of the numbers the tables are built from.
fn digest(m: &Measurement) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    mix(m.cycles);
    mix(m.mem_cycles);
    mix(m.metrics.instrs);
    mix(m.metrics.ccm_ops);
    mix(m.checksum.to_bits());
    mix(u64::from(m.spill_bytes));
    mix(m.spilled_ranges as u64);
    mix(m.degraded.len() as u64);
    for d in &m.degraded {
        for b in d.function.bytes().chain(d.reason.bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

static MEASUREMENTS: Memo<(String, Variant, String), Sealed> = Memo::new();

/// [`pipeline::measure`] over the allocation cache, itself memoized per
/// (unit name, variant, machine). The machine key is the full
/// `MachineConfig` debug rendering, so distinct cache models, latencies,
/// or CCM sizes never share an entry.
///
/// # Errors
///
/// Structured per stage, like [`pipeline::measure`]; additionally a
/// cached entry whose seal no longer matches its contents is evicted and
/// reported as a `stage=cache` error (the next call recomputes it).
pub fn measure_unit(
    name: &str,
    base: &Arc<Module>,
    variant: Variant,
    machine: &MachineConfig,
) -> Result<Measurement, PipelineError> {
    let cell = MEASUREMENTS.cell((name.to_string(), variant, format!("{machine:?}")));
    let mut slot = lock(&cell);
    if let Some(sealed) = &*slot {
        if digest(&sealed.m) == sealed.digest {
            return Ok(sealed.m.clone());
        }
        // Corrupt entry: evict so the next call recomputes, and surface
        // the detection as a structured failure.
        *slot = None;
        return Err(PipelineError::new(
            Stage::Cache,
            name,
            "corrupt cache entry: measurement digest mismatch (entry evicted)",
        )
        .at(variant, machine.ccm_size));
    }
    let a = allocated(name, base, variant, machine.ccm_size)?;
    let built = pipeline::measure_allocated(name, &a, variant, machine)?;
    let mut sealed = Sealed {
        digest: digest(&built),
        m: built.clone(),
    };
    if inject::faultpoint!("cache.corrupt_measurement") {
        // Flip the stored copy *after* sealing: the caller's value is
        // clean, but the next hit must detect the mismatch.
        sealed.m.cycles ^= 0xdead_beef;
    }
    *slot = Some(sealed);
    Ok(built)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_returns_the_same_module_as_a_fresh_build() {
        let k = suite::kernel("radf5").unwrap();
        let cached = optimized(&k).unwrap();
        let again = optimized(&k).unwrap();
        assert!(Arc::ptr_eq(&cached, &again), "second lookup must hit");
        let fresh = suite::build_optimized(&k);
        assert_eq!(format!("{fresh}"), format!("{cached}"));
    }

    #[test]
    fn staged_allocation_matches_one_shot_allocate() {
        let kernel = |name| optimized(&suite::kernel(name).unwrap()).unwrap();
        let units = [
            ("radf5", kernel("radf5")),
            ("fpppp", kernel("fpppp")),
            (
                "fftpack",
                program(&suite::program("fftpack").unwrap()).unwrap(),
            ),
        ];
        for (name, base) in &units {
            for ccm_size in [512, 1024] {
                for v in Variant::ALL {
                    let staged = allocated(name, base, v, ccm_size).unwrap();
                    let mut fresh = (**base).clone();
                    let out = ccm::allocate(&mut fresh, v, ccm_size, &AllocConfig::default());
                    let at = format!("{name} {v:?} @ {ccm_size} B");
                    assert_eq!(format!("{}", staged.module), format!("{fresh}"), "{at}");
                    assert_eq!(staged.spilled_ranges, out.spilled_ranges, "{at}");
                    assert_eq!(*staged.degraded, out.degraded, "{at}");
                }
            }
            // The baseline allocation ran once: both sizes share its module.
            let small = allocated(name, base, Variant::Baseline, 512).unwrap();
            let large = allocated(name, base, Variant::Baseline, 1024).unwrap();
            assert!(Arc::ptr_eq(&small.module, &large.module), "{name}");
        }
    }

    #[test]
    fn measure_unit_matches_uncached_measure() {
        let k = suite::kernel("radf5").unwrap();
        let base = optimized(&k).unwrap();
        let machine = MachineConfig::with_ccm(512);
        let cached = measure_unit(k.name, &base, Variant::PostPassCallGraph, &machine).unwrap();
        let hit = measure_unit(k.name, &base, Variant::PostPassCallGraph, &machine).unwrap();
        let fresh =
            pipeline::measure((*base).clone(), Variant::PostPassCallGraph, &machine).unwrap();
        for m in [&cached, &hit] {
            assert_eq!(m.cycles, fresh.cycles);
            assert_eq!(m.mem_cycles, fresh.mem_cycles);
            assert_eq!(m.checksum.to_bits(), fresh.checksum.to_bits());
            assert_eq!(m.spill_bytes, fresh.spill_bytes);
            assert_eq!(m.spilled_ranges, fresh.spilled_ranges);
        }
        // Distinct machines must not share an entry: a different CCM size
        // changes the key even at the same variant.
        let wider = measure_unit(
            k.name,
            &base,
            Variant::PostPassCallGraph,
            &MachineConfig::with_ccm(1024),
        )
        .unwrap();
        assert!(wider.cycles <= cached.cycles, "bigger CCM can't be slower");
    }

    #[test]
    fn corrupted_entry_is_detected_evicted_and_recomputed() {
        let k = suite::kernel("radf5").unwrap();
        let base = optimized(&k).unwrap();
        // A machine nobody else measures, so this test owns the entry.
        let machine = MachineConfig {
            max_steps: 1_999_999_873,
            ..MachineConfig::with_ccm(512)
        };
        let clean = measure_unit(k.name, &base, Variant::PostPass, &machine).unwrap();
        // Corrupt the sealed entry behind the cache's back.
        let key = (
            k.name.to_string(),
            Variant::PostPass,
            format!("{machine:?}"),
        );
        lock(&MEASUREMENTS.cell(key))
            .as_mut()
            .expect("entry present")
            .m
            .cycles ^= 1;
        let err = measure_unit(k.name, &base, Variant::PostPass, &machine).unwrap_err();
        assert_eq!(err.stage, Stage::Cache);
        assert!(err.detail.contains("corrupt"), "{err}");
        // Eviction means the next call recomputes the clean value.
        let again = measure_unit(k.name, &base, Variant::PostPass, &machine).unwrap();
        assert_eq!(again.cycles, clean.cycles);
    }
}
