//! Property tests for the NUMA-sharded resolve path: per-zone publishes
//! racing cross-zone resolves and per-enclave view invalidations.
//!
//! The invariants under test mirror the sharding contract in
//! `simhw::memory`:
//!
//! * a resolve racing remote- and local-zone publishes never returns a
//!   torn word or a region that does not contain the address — pinned
//!   regions read back exactly what was written, always;
//! * `resolve_many` answers a cross-zone batch with every range backed,
//!   even while every shard is being republished;
//! * a view-attached region cache under racing view bumps never serves a
//!   mapping for a region the publish history has replaced;
//! * reclamation stays bounded: per zone, every retired snapshot is either
//!   freed or in the (small) backlog — `freed + backlog == swaps` — and
//!   the backlog high water stays under the soft-cap regime even with
//!   sustained readers in flight.

use covirt_suite::simhw::addr::{PhysRange, PAGE_SIZE_4K};
use covirt_suite::simhw::memory::{PhysMemory, RegionCache, RegionView, RETIRE_BACKLOG_SOFT_CAP};
use covirt_suite::simhw::topology::ZoneId;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Recognizable marker pattern; the low bits carry the owning zone.
const MARKER: u64 = 0x5a5a_0000_0000_0000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn racing_publishes_resolves_and_view_bumps_stay_coherent(
        zones in 2usize..4,
        cycles in 10u32..60,
        readers in 1usize..3,
        bump_every in 1u32..16,
    ) {
        let mem = Arc::new(PhysMemory::new(&vec![32 * 1024 * 1024; zones][..]));
        // One pinned region per zone that outlives all churn; its marker
        // is what every racing resolve must read back intact.
        let pins: Vec<PhysRange> = (0..zones)
            .map(|z| {
                mem.alloc_backed(ZoneId(z), 16 * PAGE_SIZE_4K, PAGE_SIZE_4K)
                    .unwrap()
            })
            .collect();
        for (z, p) in pins.iter().enumerate() {
            mem.write_u64(p.start, MARKER | z as u64).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));

        crossbeam::thread::scope(|s| {
            // Per-zone publishers: grant/reclaim churn, two publishes per
            // cycle (populate + depopulate).
            let publishers: Vec<_> = (0..zones)
                .map(|z| {
                    let mem = Arc::clone(&mem);
                    s.spawn(move |_| {
                        for _ in 0..cycles {
                            let r = mem
                                .alloc_backed(ZoneId(z), 2 * PAGE_SIZE_4K, PAGE_SIZE_4K)
                                .unwrap();
                            mem.free(r).unwrap();
                        }
                    })
                })
                .collect();
            // Cross-zone resolvers: single resolves plus per-zone
            // consistent batches, sustained until every publisher exits.
            for _ in 0..readers {
                let mem = Arc::clone(&mem);
                let pins = pins.clone();
                let stop = Arc::clone(&stop);
                s.spawn(move |_| {
                    while !stop.load(Ordering::Acquire) {
                        for (z, p) in pins.iter().enumerate() {
                            let v = mem.read_u64(p.start).unwrap();
                            assert_eq!(v, MARKER | z as u64, "torn or stale single resolve");
                        }
                        let ranges: Vec<PhysRange> =
                            pins.iter().map(|p| PhysRange::new(p.start, 8)).collect();
                        let batch = mem.resolve_many(&ranges).unwrap();
                        for (z, (b, off)) in batch.iter().enumerate() {
                            assert_eq!(
                                b.read_u64(*off),
                                MARKER | z as u64,
                                "torn or stale batched resolve"
                            );
                        }
                    }
                });
            }
            // A view-attached cache racing its own invalidations: every
            // resolve (hit or fill) must still land inside the pinned
            // region and read the marker.
            {
                let mem = Arc::clone(&mem);
                let pin = pins[0];
                s.spawn(move |_| {
                    let cache = RegionCache::new();
                    let view = Arc::new(RegionView::new());
                    cache.set_view(Some(Arc::clone(&view)));
                    for i in 0..(cycles * 8) {
                        let (b, off) = cache.resolve(&mem, pin.start, 8).unwrap();
                        assert_eq!(b.read_u64(off), MARKER, "view-cached resolve went stale");
                        if i % bump_every == 0 {
                            view.bump();
                        }
                    }
                });
            }
            for p in publishers {
                p.join().unwrap();
            }
            stop.store(true, Ordering::Release);
        })
        .unwrap();

        for z in 0..zones {
            let st = mem.zone_stats(ZoneId(z)).unwrap();
            // Exact accounting: the pin populate plus two publishes per
            // churn cycle, and every retired snapshot either freed or
            // still parked in the backlog.
            prop_assert_eq!(st.snapshot_swaps, 1 + 2 * cycles as u64);
            prop_assert_eq!(st.retired_freed + st.retired_backlog, st.snapshot_swaps);
            prop_assert!(
                st.retired_backlog_high_water <= 4 * RETIRE_BACKLOG_SOFT_CAP,
                "zone {} backlog high water {} unbounded under sustained readers",
                z,
                st.retired_backlog_high_water
            );
        }
    }
}
