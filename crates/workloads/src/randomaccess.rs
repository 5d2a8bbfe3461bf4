//! HPCC RandomAccess (GUPS) — random 64-bit read-modify-writes over a
//! large table.
//!
//! Every update goes through the guest translation path individually, so
//! the per-access TLB probe is identical across configurations and the
//! *miss* path differs: a 1-level walk natively vs a nested walk under
//! Covirt memory protection. With the table spanning many 2 MiB pages the
//! random stream generates steady misses, and the walk-cost difference is
//! exactly the few-percent degradation the paper reports (Fig. 5b,
//! 1.8 % memory-only, 3.1 % worst case).

use crate::env::World;
use covirt::{CovirtResult, GuestCore};

/// The HPCC polynomial random-number generator (x -> x<<1 ^ (poly if msb)).
const POLY: u64 = 0x0000_0000_0000_0007;

/// Advance the HPCC LCG by one step.
#[inline]
pub fn hpcc_next(ran: u64) -> u64 {
    (ran << 1) ^ (if (ran as i64) < 0 { POLY } else { 0 })
}

/// GUPS result.
#[derive(Clone, Copy, Debug)]
pub struct RaResult {
    /// Giga-updates per second.
    pub gups: f64,
    /// Updates performed.
    pub updates: u64,
    /// TLB miss rate observed (instrumentation, drives the overhead).
    pub tlb_miss_rate: f64,
    /// Page walks taken during the run (TLB misses).
    pub walks: u64,
    /// Table-entry loads across those walks — the quantity nested paging
    /// multiplies and the walk cache claws back.
    pub walk_loads: u64,
    /// EPT walk-cache hits during the run (0 natively or with the cache
    /// disabled).
    pub walk_cache_hits: u64,
    /// EPT walk-cache misses during the run.
    pub walk_cache_misses: u64,
}

impl RaResult {
    /// Average table-entry loads paid per TLB miss — ~4 natively, up to
    /// ~24 nested, and between the two with the walk cache on.
    pub fn walk_loads_per_miss(&self) -> f64 {
        covirt::stats::ratio(self.walk_loads, self.walks)
    }

    /// Walk-cache hit rate over PT-entry EPT lookups.
    pub fn walk_cache_hit_rate(&self) -> f64 {
        covirt::stats::ratio(
            self.walk_cache_hits,
            self.walk_cache_hits + self.walk_cache_misses,
        )
    }
}

/// The RandomAccess table in guest memory.
pub struct RandomAccess {
    table: u64,
    log2_n: u32,
}

impl RandomAccess {
    /// Allocate a `2^log2_n`-entry table.
    pub fn setup(world: &World, log2_n: u32) -> RandomAccess {
        let bytes = 8u64 << log2_n;
        RandomAccess {
            table: world.alloc_array(bytes),
            log2_n,
        }
    }

    /// Table size in entries.
    pub fn entries(&self) -> u64 {
        1u64 << self.log2_n
    }

    /// Initialize `table[i] = i` (the HPCC convention).
    pub fn init(&self, g: &mut GuestCore) -> CovirtResult<()> {
        g.with_chunks_mut::<u64>(self.table, self.entries() as usize, |off, ch| {
            for (i, v) in ch.iter_mut().enumerate() {
                *v = (off + i) as u64;
            }
        })
    }

    /// Perform `updates` random updates, polling at the HPCC lookahead
    /// granularity (128).
    pub fn run(&self, g: &mut GuestCore, updates: u64) -> CovirtResult<RaResult> {
        let mask = self.entries() - 1;
        let mut ran: u64 = 0x1;
        let m0 = g.tlb_stats();
        let c0 = g.counters();
        let t = std::time::Instant::now();
        for i in 0..updates {
            ran = hpcc_next(ran);
            let idx = ran & mask;
            let addr = self.table + idx * 8;
            let v = g.read_u64(addr)?;
            g.write_u64(addr, v ^ ran)?;
            if i % 128 == 127 {
                g.poll()?;
            }
        }
        let secs = t.elapsed().as_secs_f64();
        let m1 = g.tlb_stats();
        let c1 = g.counters();
        let lookups = (m1.hits + m1.misses) - (m0.hits + m0.misses);
        let misses = m1.misses - m0.misses;
        Ok(RaResult {
            gups: updates as f64 / secs / 1e9,
            updates,
            tlb_miss_rate: if lookups == 0 {
                0.0
            } else {
                misses as f64 / lookups as f64
            },
            walks: c1.walks - c0.walks,
            walk_loads: c1.walk_loads - c0.walk_loads,
            walk_cache_hits: c1.walk_cache_hits - c0.walk_cache_hits,
            walk_cache_misses: c1.walk_cache_misses - c0.walk_cache_misses,
        })
    }

    /// HPCC-style verification: re-running the same update stream restores
    /// the initial table (xor is an involution). Returns the number of
    /// mismatching entries (0 = pass).
    pub fn verify(&self, g: &mut GuestCore, updates: u64) -> CovirtResult<u64> {
        self.run(g, updates)?;
        let mut errors = 0u64;
        let n = self.entries() as usize;
        g.with_chunks::<u64>(self.table, n, |off, ch| {
            for (i, &v) in ch.iter().enumerate() {
                if v != (off + i) as u64 {
                    errors += 1;
                }
            }
        })?;
        Ok(errors)
    }
}

/// Run GUPS in `world` (single core, per the paper's microbenchmark
/// setup): `updates` updates over a `2^log2_n` table.
pub fn run(world: &World, log2_n: u32, updates: u64) -> RaResult {
    let ra = RandomAccess::setup(world, log2_n);
    let results = world.run_on_cores(|rank, g| {
        if rank != 0 {
            return None;
        }
        ra.init(g).expect("init");
        Some(ra.run(g, updates).expect("updates"))
    });
    results.into_iter().flatten().next().expect("rank 0 result")
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt::config::CovirtConfig;
    use covirt::ExecMode;

    #[test]
    fn lcg_matches_reference_behaviour() {
        // Period sanity: the generator must not get stuck at 0 and must
        // cover high bits.
        let mut r = 1u64;
        let mut seen_high = false;
        for _ in 0..10_000 {
            r = hpcc_next(r);
            assert_ne!(r, 0);
            if r > u64::MAX / 2 {
                seen_high = true;
            }
        }
        assert!(seen_high);
    }

    #[test]
    fn double_run_restores_table() {
        let w = World::quick(ExecMode::Native);
        let ra = RandomAccess::setup(&w, 14);
        let mut g = w.guest_core(w.cores[0]).unwrap();
        ra.init(&mut g).unwrap();
        ra.run(&mut g, 50_000).unwrap();
        // XOR with the same stream undoes every update.
        let errors = ra.verify(&mut g, 50_000).unwrap();
        assert_eq!(errors, 0);
    }

    #[test]
    fn runs_under_covirt_with_more_walk_loads() {
        let wn = World::quick(ExecMode::Native);
        let wc = World::quick(ExecMode::Covirt(CovirtConfig::MEM));
        let updates = 100_000;
        let ran = {
            let ra = RandomAccess::setup(&wn, 16);
            let mut g = wn.guest_core(wn.cores[0]).unwrap();
            ra.init(&mut g).unwrap();
            ra.run(&mut g, updates).unwrap();
            g.counters
        };
        let cov = {
            let ra = RandomAccess::setup(&wc, 16);
            let mut g = wc.guest_core(wc.cores[0]).unwrap();
            ra.init(&mut g).unwrap();
            ra.run(&mut g, updates).unwrap();
            g.counters
        };
        assert!(
            cov.walk_loads > ran.walk_loads,
            "nested walks must cost more loads"
        );
    }

    #[test]
    fn walk_cache_ablation_cuts_loads_per_miss() {
        let updates = 100_000;
        let run_with_cache = |enabled: bool| {
            let mut w = World::quick(ExecMode::Covirt(CovirtConfig::MEM));
            // Shrink the TLB so the random stream misses steadily (an
            // 8 MiB table over 2 large-page slots), exercising the walk
            // path the cache accelerates.
            w.tlb = covirt_simhw::tlb::TlbParams {
                entries_4k: 16,
                entries_2m: 2,
                entries_1g: 1,
            };
            let ra = RandomAccess::setup(&w, 20);
            let mut g = w.guest_core(w.cores[0]).unwrap();
            g.set_walk_cache_enabled(enabled);
            ra.init(&mut g).unwrap();
            ra.run(&mut g, updates).unwrap()
        };
        let on = run_with_cache(true);
        let off = run_with_cache(false);
        assert!(
            on.walks > 0 && off.walks > 0,
            "test must generate TLB misses"
        );
        // The guest walk to a 2 MiB leaf loads 3 entries. With the cache
        // on every entry's EPT translation hits, so only those 3 remain;
        // with it off each one pays a 3-load EPT walk too (3 + 3 x 3).
        assert_eq!(
            (on.walk_loads_per_miss(), on.walk_cache_hit_rate()),
            (3.0, 1.0),
            "walk cache on"
        );
        assert_eq!(
            (off.walk_loads_per_miss(), off.walk_cache_hit_rate()),
            (12.0, 0.0),
            "walk cache off"
        );
    }

    #[test]
    fn gups_positive() {
        let w = World::quick(ExecMode::Native);
        let r = run(&w, 14, 20_000);
        assert!(r.gups > 0.0);
        assert_eq!(r.updates, 20_000);
    }
}
