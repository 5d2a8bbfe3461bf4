//! The node's physical address space: per-zone allocators and the populated
//! region map.
//!
//! Each NUMA zone owns a disjoint span of host-physical addresses
//! (`zone i` starts at `i * ZONE_SPAN`). A [`PhysMemory`] hands out
//! page-aligned [`PhysRange`]s from a first-fit free list per zone, and
//! tracks which ranges are *populated* — i.e. have real host memory behind
//! them (see [`crate::backing::Backing`]). Page walks, boot structures and
//! workload data all resolve through [`PhysMemory::resolve`].
//!
//! # Sharded lock-free resolution
//!
//! Resolution is the guest data plane's only shared lookup: every TLB fill
//! and every table-entry load that misses the frame pool lands here, from
//! every core at once. The populated map is sharded by NUMA zone — zone
//! membership is recoverable from the address alone — and each shard is
//! published RCU-style: writers (grant/reclaim/XEMEM — all control-plane,
//! all rare) build a new sorted snapshot under a small per-zone writer
//! mutex and swap one pointer; readers take no lock at all — one atomic
//! pointer load plus a binary search. A publish in one zone never touches
//! another zone's snapshot or generation, so one enclave's grant/reclaim
//! churn cannot invalidate resolves (or region caches) in a sibling zone.
//!
//! # Bounded reclamation
//!
//! Retired snapshots are reclaimed with a two-epoch scheme instead of a
//! global reader-count quiesce. Each shard keeps an `epoch` counter, two
//! per-slot reader counts and two retired buckets (slot = `epoch & 1`).
//! Readers register in the current epoch's slot (re-checking the epoch
//! after the increment); a publish retires the old snapshot into the
//! current bucket and advances the epoch — freeing the *previous* epoch's
//! bucket — once the previous slot's reader count is zero. A reader only
//! ever blocks the advance *after next* (its registration epoch `e` stalls
//! `e+1 → e+2`), so sustained back-to-back reader sections cannot defer
//! freeing indefinitely: the backlog is bounded by the publishes issued
//! within roughly two reader-section lengths, not by how long readers keep
//! arriving. A reader descheduled mid-section can stretch that window, so
//! a publish that would leave `RETIRE_BACKLOG_HARD_CAP` snapshots parked
//! waits out the grace period instead: the cap holds by construction. See
//! DESIGN.md §12 for the ordering argument.
//!
//! Every publish bumps the owning zone's generation (and the global
//! [`PhysMemory::populate_generation`] publish count). A per-core
//! [`RegionCache`] pins recently-resolved regions tagged by zone
//! generation — or by a per-enclave [`RegionView`] generation when one is
//! attached — and skips even the snapshot search, with reclaim safety by
//! generation mismatch.

use crate::addr::{HostPhysAddr, PhysRange, PAGE_SIZE_4K};
use crate::backing::Backing;
use crate::error::{HwError, HwResult};
use crate::topology::ZoneId;
use covirt_trace::{Counter, EventKind, Tracer};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Host-physical span reserved for each NUMA zone (1 TiB), far larger than
/// any real zone so zone membership is recoverable from an address alone.
pub const ZONE_SPAN: u64 = 1 << 40;

/// First usable offset within a zone span; the low 16 MiB stand in for
/// firmware/legacy holes so that address 0 is never valid RAM.
pub const ZONE_RAM_BASE: u64 = 16 * 1024 * 1024;

/// Associativity of a fully-grown [`RegionCache`] (see `set_ways`).
pub const REGION_CACHE_WAYS: usize = 4;

/// Retired-snapshot backlog above which a publish donates its timeslice
/// (bounded, see `RETIRE_YIELD_BUDGET`) to let a preempted straggler
/// reader drain its epoch slot. Running readers never push the backlog
/// anywhere near this; only a reader descheduled *inside* a section can,
/// and it needs one timeslice to finish its nanosecond-scale section.
pub const RETIRE_BACKLOG_SOFT_CAP: u64 = 8;

/// Retired-snapshot backlog a publish never leaves behind: at this level
/// the writer waits out the grace period instead of deferring it, so the
/// backlog (and its high water) never exceeds this bound.
const RETIRE_BACKLOG_HARD_CAP: u64 = 4 * RETIRE_BACKLOG_SOFT_CAP;

/// `yield_now` donations per publish between the soft and the hard cap.
/// Below `RETIRE_BACKLOG_HARD_CAP` a straggler that outlasts the budget
/// only defers freeing to a later publish, which keeps publish latency
/// bounded in the common case. At the hard cap the budget no longer
/// applies: the publish keeps yielding until the stale slot drains.
/// Reader sections never block on a writer, so that wait always ends.
const RETIRE_YIELD_BUDGET: u32 = 64;

/// Free-list allocator for one NUMA zone.
struct ZoneAllocator {
    /// start -> len of free extents, keyed by start for coalescing.
    free: BTreeMap<u64, u64>,
    total: u64,
    in_use: u64,
}

impl ZoneAllocator {
    fn new(zone: usize, bytes: u64) -> Self {
        let base = zone as u64 * ZONE_SPAN + ZONE_RAM_BASE;
        let mut free = BTreeMap::new();
        free.insert(base, bytes);
        ZoneAllocator {
            free,
            total: bytes,
            in_use: 0,
        }
    }

    fn alloc(&mut self, len: u64, align: u64) -> Option<PhysRange> {
        debug_assert!(align.is_power_of_two());
        let (pick_start, pick_len, alloc_at) = self.free.iter().find_map(|(&start, &flen)| {
            let aligned = (start + align - 1) & !(align - 1);
            let head_waste = aligned - start;
            if flen >= head_waste + len {
                Some((start, flen, aligned))
            } else {
                None
            }
        })?;
        self.free.remove(&pick_start);
        // Re-insert the head fragment (below the aligned start), if any.
        if alloc_at > pick_start {
            self.free.insert(pick_start, alloc_at - pick_start);
        }
        // Re-insert the tail fragment, if any.
        let tail_start = alloc_at + len;
        let tail_len = pick_start + pick_len - tail_start;
        if tail_len > 0 {
            self.free.insert(tail_start, tail_len);
        }
        self.in_use += len;
        Some(PhysRange::new(HostPhysAddr::new(alloc_at), len))
    }

    fn free(&mut self, range: PhysRange) {
        let mut start = range.start.raw();
        let mut len = range.len;
        // Coalesce with the previous extent if adjacent.
        if let Some((&pstart, &plen)) = self.free.range(..start).next_back() {
            assert!(
                pstart + plen <= start,
                "double free overlapping previous extent"
            );
            if pstart + plen == start {
                self.free.remove(&pstart);
                start = pstart;
                len += plen;
            }
        }
        // Coalesce with the next extent if adjacent.
        if let Some((&nstart, &nlen)) = self.free.range(start + len..).next() {
            if start + len == nstart {
                self.free.remove(&nstart);
                len += nlen;
            }
        }
        self.free.insert(start, len);
        self.in_use -= range.len;
    }
}

/// A populated physical region and its host backing.
#[derive(Clone)]
struct Populated {
    range: PhysRange,
    backing: Arc<Backing>,
}

/// An immutable view of one zone's populated regions, sorted by start
/// address. Writers publish a fresh snapshot with a single pointer swap;
/// readers binary-search whichever snapshot they loaded. `generation`
/// identifies the snapshot uniquely within its zone (it increments on
/// every publish to that zone), so a cached `(generation, region)` pair is
/// current iff the generation still equals the zone's generation.
struct RegionSnapshot {
    generation: u64,
    regions: Vec<Populated>,
}

impl RegionSnapshot {
    /// The region with the greatest start `<= addr`, if any. The caller
    /// still has to bounds-check `addr` against the region's end.
    #[inline]
    fn find(&self, addr: u64) -> Option<&Populated> {
        let idx = self
            .regions
            .partition_point(|p| p.range.start.raw() <= addr);
        self.regions[..idx].last()
    }
}

/// A resolved populated region: its full geometry, backing, and the zone
/// generation of the snapshot it came from. The generation is the
/// snapshot's own — never re-sampled — so a [`RegionCache`] can never pair
/// a stale region with a fresh generation.
#[derive(Clone)]
pub struct ResolvedRegion {
    /// The populated region containing the requested address.
    pub range: PhysRange,
    /// Host memory behind the region.
    pub backing: Arc<Backing>,
    /// Zone generation the region was resolved under.
    pub generation: u64,
}

/// Retired snapshots parked per epoch slot until their grace period ends.
/// The boxes are the exact allocations readers' raw snapshot pointers
/// refer to — moving the snapshots out of them (clippy's suggestion) would
/// free those allocations while readers may still hold the pointers.
#[allow(clippy::vec_box)]
#[derive(Default)]
struct RetiredBuckets {
    buckets: [Vec<Box<RegionSnapshot>>; 2],
}

impl RetiredBuckets {
    fn backlog(&self) -> u64 {
        (self.buckets[0].len() + self.buckets[1].len()) as u64
    }
}

/// One NUMA zone's shard of the populated-region machinery: allocator,
/// current snapshot, epoch-based reclamation state and per-zone counters.
struct ZoneShard {
    alloc: Mutex<ZoneAllocator>,
    /// Current populated-region snapshot for this zone; never null.
    current: AtomicPtr<RegionSnapshot>,
    /// Mirror of the current snapshot's generation, so the region-cache
    /// validity check is one atomic load with no pointer chase.
    generation: AtomicU64,
    /// Reclamation epoch; `epoch & 1` selects the active reader slot and
    /// retired bucket. Advanced by publishes once the previous slot drains.
    epoch: AtomicU64,
    /// In-flight reader sections per epoch slot (Dekker-style SeqCst
    /// pairing with the writer's drain check).
    section_readers: [AtomicU64; 2],
    /// Writer side: serializes publishes to this zone and parks retired
    /// snapshots until their epoch's grace period ends.
    retired: Mutex<RetiredBuckets>,
    // Per-zone observability (all Relaxed; read via `zone_stats`).
    swaps: AtomicU64,
    retired_freed: AtomicU64,
    backlog_high_water: AtomicU64,
    hits: AtomicU64,
    searches: AtomicU64,
    search_depth: AtomicU64,
}

impl ZoneShard {
    fn new(zone: usize, bytes: u64) -> Self {
        let first = Box::new(RegionSnapshot {
            generation: 1,
            regions: Vec::new(),
        });
        ZoneShard {
            alloc: Mutex::new(ZoneAllocator::new(zone, bytes)),
            current: AtomicPtr::new(Box::into_raw(first)),
            generation: AtomicU64::new(1),
            epoch: AtomicU64::new(0),
            section_readers: [AtomicU64::new(0), AtomicU64::new(0)],
            retired: Mutex::new(RetiredBuckets::default()),
            swaps: AtomicU64::new(0),
            retired_freed: AtomicU64::new(0),
            backlog_high_water: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            searches: AtomicU64::new(0),
            search_depth: AtomicU64::new(0),
        }
    }

    /// Enter a reader section: register in the current epoch's slot, then
    /// re-check the epoch. If an advance raced us, our slot may already
    /// have been declared drained — back out and re-register. SeqCst on
    /// every step pairs with the writer's swap-then-drain-check so a
    /// registration the writer did not observe implies our subsequent
    /// snapshot load sees post-retirement pointers only.
    #[inline]
    fn begin_read(&self) -> usize {
        loop {
            let e = self.epoch.load(Ordering::SeqCst);
            let slot = (e & 1) as usize;
            self.section_readers[slot].fetch_add(1, Ordering::SeqCst);
            if self.epoch.load(Ordering::SeqCst) == e {
                return slot;
            }
            self.section_readers[slot].fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[inline]
    fn end_read(&self, slot: usize) {
        self.section_readers[slot].fetch_sub(1, Ordering::Release);
    }
}

/// Per-zone counters mirrored out of a shard (see
/// [`PhysMemory::zone_stats`]). `resolve_misses` counts snapshot searches
/// (every resolve that was not served by a [`RegionCache`] hit);
/// `search_depth_total / resolve_misses` approximates the average
/// binary-search probe depth.
#[derive(Clone, Copy, Debug, Default)]
pub struct ZoneStats {
    /// Snapshots published into this zone.
    pub snapshot_swaps: u64,
    /// Retired snapshots freed after their epoch grace period.
    pub retired_freed: u64,
    /// Retired snapshots currently awaiting a grace period.
    pub retired_backlog: u64,
    /// Highest retired backlog ever observed (the bounded-reclamation
    /// gauge: sustained readers must not let this grow).
    pub retired_backlog_high_water: u64,
    /// Region-cache hits attributed to this zone's addresses.
    pub resolve_hits: u64,
    /// Snapshot searches (resolves not served by a region cache).
    pub resolve_misses: u64,
    /// Cumulative binary-search probe depth across all searches.
    pub search_depth_total: u64,
}

impl ZoneStats {
    /// Average binary-search probe depth per snapshot search.
    pub fn avg_search_depth(&self) -> f64 {
        if self.resolve_misses == 0 {
            0.0
        } else {
            self.search_depth_total as f64 / self.resolve_misses as f64
        }
    }
}

/// A per-enclave region-view generation. The controller hands every
/// enclave's cores a view; reclaim-class changes to that enclave's
/// mappings (memory remove, XEMEM detach) bump it *after* the EPT unmap
/// and shootdown complete, invalidating the enclave's [`RegionCache`]s
/// without touching any other enclave's. Grant-class changes never bump —
/// adding a region cannot make a pinned one stale.
///
/// Contract: a cache with a view attached trades zone-generation
/// invalidation for view-scoped invalidation, so its owner must guarantee
/// that every unmap affecting the enclave's reachable ranges bumps the
/// view (the controller's remove/detach hooks do).
pub struct RegionView {
    generation: AtomicU64,
}

impl RegionView {
    /// A fresh view at generation 1.
    pub fn new() -> Self {
        RegionView {
            generation: AtomicU64::new(1),
        }
    }

    /// Current view generation.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Invalidate every cache holding entries tagged with the current
    /// generation; returns the new generation. Call only after the
    /// triggering unmap is globally visible.
    pub fn bump(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }
}

impl Default for RegionView {
    fn default() -> Self {
        Self::new()
    }
}

/// The node's physical memory: one [`ZoneShard`] per NUMA zone, plus the
/// global publish count legacy callers key off.
pub struct PhysMemory {
    shards: Vec<ZoneShard>,
    /// Total publishes across all zones (drives `populate_generation` /
    /// `snapshot_swaps`, the writer-side cost counters).
    publishes: AtomicU64,
    /// Flight-recorder handle, installed once by the owning node; snapshot
    /// publishes and retire sweeps emit trace events when set.
    tracer: OnceLock<Tracer>,
}

impl PhysMemory {
    /// Build the physical memory of a node with `zone_bytes[i]` bytes of RAM
    /// in zone `i`.
    pub fn new(zone_bytes: &[u64]) -> Self {
        let shards = zone_bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                assert!(
                    b <= ZONE_SPAN - ZONE_RAM_BASE,
                    "zone RAM exceeds the zone span"
                );
                ZoneShard::new(i, b)
            })
            .collect();
        PhysMemory {
            shards,
            publishes: AtomicU64::new(0),
            tracer: OnceLock::new(),
        }
    }

    /// Attach a flight-recorder handle (first call wins; standalone
    /// `PhysMemory` instances in tests simply stay untraced).
    pub fn set_tracer(&self, tracer: Tracer) {
        let _ = self.tracer.set(tracer);
    }

    /// Number of NUMA zones.
    pub fn zone_count(&self) -> usize {
        self.shards.len()
    }

    /// The NUMA zone an address belongs to (derivable from the span
    /// layout). Pure arithmetic: addresses beyond the last configured zone
    /// map to a `ZoneId` with no shard behind it — resolution and
    /// allocation paths bounds-check before indexing.
    pub fn zone_of(&self, addr: HostPhysAddr) -> ZoneId {
        ZoneId((addr.raw() / ZONE_SPAN) as usize)
    }

    /// The shard index for an address, or `UnbackedPhys` if the address
    /// lies beyond the configured zones.
    #[inline]
    fn shard_index(&self, addr: HostPhysAddr) -> HwResult<usize> {
        let z = (addr.raw() / ZONE_SPAN) as usize;
        if z < self.shards.len() {
            Ok(z)
        } else {
            Err(HwError::UnbackedPhys(addr))
        }
    }

    /// Validate that a range is non-empty and zone-local, returning its
    /// zone index. Populate/depopulate/free must be zone-local: a range
    /// straddling a zone-span boundary would have to live in two shards.
    fn range_zone(&self, range: &PhysRange) -> HwResult<usize> {
        if range.len == 0 {
            return Err(HwError::Invalid("zero-length range"));
        }
        let last = range
            .start
            .raw()
            .checked_add(range.len - 1)
            .ok_or(HwError::Invalid("range wraps the physical address space"))?;
        let first_zone = range.start.raw() / ZONE_SPAN;
        if first_zone != last / ZONE_SPAN {
            return Err(HwError::Invalid("range crosses a NUMA zone boundary"));
        }
        let z = first_zone as usize;
        if z >= self.shards.len() {
            return Err(HwError::NoSuchZone(z));
        }
        Ok(z)
    }

    /// (total, in-use) bytes for a zone.
    pub fn zone_usage(&self, zone: ZoneId) -> HwResult<(u64, u64)> {
        let z = self
            .shards
            .get(zone.0)
            .ok_or(HwError::NoSuchZone(zone.0))?
            .alloc
            .lock();
        Ok((z.total, z.in_use))
    }

    /// Per-zone resolution and reclamation counters.
    pub fn zone_stats(&self, zone: ZoneId) -> HwResult<ZoneStats> {
        let s = self.shards.get(zone.0).ok_or(HwError::NoSuchZone(zone.0))?;
        let retired = s.retired.lock();
        Ok(ZoneStats {
            snapshot_swaps: s.swaps.load(Ordering::Relaxed),
            retired_freed: s.retired_freed.load(Ordering::Relaxed),
            retired_backlog: retired.backlog(),
            retired_backlog_high_water: s.backlog_high_water.load(Ordering::Relaxed),
            resolve_hits: s.hits.load(Ordering::Relaxed),
            resolve_misses: s.searches.load(Ordering::Relaxed),
            search_depth_total: s.search_depth.load(Ordering::Relaxed),
        })
    }

    /// The current generation of one zone's snapshot (the tag region
    /// caches validate plain-mode entries against).
    pub fn zone_generation(&self, zone: ZoneId) -> HwResult<u64> {
        Ok(self
            .shards
            .get(zone.0)
            .ok_or(HwError::NoSuchZone(zone.0))?
            .generation
            .load(Ordering::SeqCst))
    }

    #[inline]
    fn zone_generation_of(&self, addr: HostPhysAddr) -> Option<u64> {
        let z = (addr.raw() / ZONE_SPAN) as usize;
        self.shards
            .get(z)
            .map(|s| s.generation.load(Ordering::SeqCst))
    }

    /// Credit a region-cache hit to the zone owning `addr`.
    #[inline]
    fn note_cache_hit(&self, addr: HostPhysAddr) {
        let z = (addr.raw() / ZONE_SPAN) as usize;
        if let Some(s) = self.shards.get(z) {
            s.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Account one snapshot search over `n` regions (probe depth is
    /// `floor(log2 n) + 1` for a non-empty list).
    #[inline]
    fn note_search(&self, shard: &ZoneShard, n: usize) {
        shard.searches.fetch_add(1, Ordering::Relaxed);
        if n > 0 {
            shard
                .search_depth
                .fetch_add((usize::BITS - n.leading_zeros()) as u64, Ordering::Relaxed);
        }
    }

    /// Allocate `len` bytes (rounded up to 4 KiB) from `zone` with at least
    /// `align` alignment. Bookkeeping only — the range is *not* populated.
    pub fn alloc(&self, zone: ZoneId, len: u64, align: u64) -> HwResult<PhysRange> {
        if len == 0 {
            return Err(HwError::Invalid("zero-length allocation"));
        }
        let len = len
            .checked_next_multiple_of(PAGE_SIZE_4K)
            .ok_or(HwError::Invalid(
                "allocation length overflows page rounding",
            ))?;
        let align = align.max(PAGE_SIZE_4K);
        let mut z = self
            .shards
            .get(zone.0)
            .ok_or(HwError::NoSuchZone(zone.0))?
            .alloc
            .lock();
        z.alloc(len, align).ok_or(HwError::OutOfMemory {
            zone: zone.0,
            requested: len,
        })
    }

    /// Allocate and immediately populate a range. If the populate fails
    /// (the host refused the mapping), the range goes back to the zone.
    pub fn alloc_backed(&self, zone: ZoneId, len: u64, align: u64) -> HwResult<PhysRange> {
        let range = self.alloc(zone, len, align)?;
        if let Err(e) = self.populate(range) {
            self.shards[zone.0].alloc.lock().free(range);
            return Err(e);
        }
        Ok(range)
    }

    /// Run `f` against one zone's current snapshot inside a reader section.
    #[inline]
    fn with_zone_snapshot<R>(&self, zone: usize, f: impl FnOnce(&RegionSnapshot) -> R) -> R {
        let shard = &self.shards[zone];
        let slot = shard.begin_read();
        // SAFETY: `current` always points at a live snapshot — writers only
        // free a retired bucket after observing its reader slot drained,
        // which our registration above forbids while this reference is
        // alive (see `ZoneShard::begin_read`).
        let r = f(unsafe { &*shard.current.load(Ordering::SeqCst) });
        shard.end_read(slot);
        r
    }

    /// Clone-edit-publish one zone's region list under that zone's writer
    /// mutex. The edit closure may fail, in which case nothing is published
    /// and no generation moves. Publishing also attempts one epoch advance,
    /// freeing the previous epoch's retired bucket if its readers drained,
    /// and waits for drains while the backlog is at the hard cap. Freed
    /// snapshots are dropped (unmapping backings nothing else pins) only
    /// after the mutex is released.
    fn mutate_zone<R>(
        &self,
        zone: usize,
        f: impl FnOnce(&mut Vec<Populated>) -> HwResult<R>,
    ) -> HwResult<R> {
        let shard = self.shards.get(zone).ok_or(HwError::NoSuchZone(zone))?;
        let mut retired = shard.retired.lock();
        // SAFETY: publishes to this zone are serialized by the mutex we
        // hold, and the *current* snapshot is never retired, so it stays
        // live here.
        let cur = unsafe { &*shard.current.load(Ordering::SeqCst) };
        let mut regions = cur.regions.clone();
        let out = f(&mut regions)?;
        let next_gen = cur.generation + 1;
        let region_count = regions.len() as u64;
        let next = Box::new(RegionSnapshot {
            generation: next_gen,
            regions,
        });
        // Publish the generation before the snapshot: a region cache racing
        // with this publish can only *miss* (generation mismatch while the
        // old snapshot is still current), never hit on just-reclaimed data.
        shard.generation.store(next_gen, Ordering::SeqCst);
        let old = shard.current.swap(Box::into_raw(next), Ordering::SeqCst);
        let e = shard.epoch.load(Ordering::SeqCst);
        // SAFETY: `old` came out of Box::into_raw at the previous publish
        // (or construction) and is retired exactly once — here.
        retired.buckets[(e & 1) as usize].push(unsafe { Box::from_raw(old) });
        let backlog = retired.backlog();
        let mut new_high = 0;
        if backlog > shard.backlog_high_water.load(Ordering::Relaxed) {
            shard.backlog_high_water.store(backlog, Ordering::Relaxed);
            new_high = backlog;
        }
        // Grace period: the previous slot drained means every reader that
        // could still hold a pointer retired in epoch `e - 1` has exited
        // (readers registered at epoch `e` observed the advance to `e` —
        // SeqCst — and therefore post-retirement pointers only). Free that
        // bucket and advance; a busy previous slot just defers to a later
        // publish, and the registration protocol guarantees it drains.
        //
        // A publish burst can outpace a reader preempted mid-section (its
        // slot never drains while it holds no CPU). Above the soft cap the
        // writer donates its timeslice, up to `RETIRE_YIELD_BUDGET` times,
        // so the straggler can finish its nanosecond-scale section. At the
        // hard cap it keeps advancing — at most twice, after which both
        // buckets are empty — until the backlog is back under the cap, so
        // the next push cannot exceed it.
        let budget = if backlog > RETIRE_BACKLOG_SOFT_CAP {
            RETIRE_YIELD_BUDGET
        } else {
            0
        };
        let mut yields = 0;
        let mut freed_snapshots = Vec::new();
        loop {
            let e = shard.epoch.load(Ordering::SeqCst);
            let stale = ((e + 1) & 1) as usize;
            if shard.section_readers[stale].load(Ordering::SeqCst) == 0 {
                freed_snapshots.append(&mut retired.buckets[stale]);
                shard.epoch.store(e + 1, Ordering::SeqCst);
                if retired.backlog() < RETIRE_BACKLOG_HARD_CAP {
                    break;
                }
            } else if retired.backlog() < RETIRE_BACKLOG_HARD_CAP && yields >= budget {
                break;
            } else {
                yields += 1;
                std::thread::yield_now();
            }
        }
        drop(retired);
        let freed = freed_snapshots.len() as u64;
        drop(freed_snapshots);
        shard.swaps.fetch_add(1, Ordering::Relaxed);
        if freed > 0 {
            shard.retired_freed.fetch_add(freed, Ordering::Relaxed);
        }
        self.publishes.fetch_add(1, Ordering::SeqCst);
        if let Some(t) = self.tracer.get() {
            t.emit(
                EventKind::SnapshotPublish,
                self.populate_generation(),
                region_count,
            );
            t.emit(EventKind::ZonePublish, zone as u64, next_gen);
            if freed > 0 {
                t.emit(EventKind::SnapshotRetire, freed, 0);
                t.emit(EventKind::ZoneRetire, zone as u64, freed);
                t.count(Counter::RetiredFreed, freed);
            }
            if new_high > 0 {
                t.emit(EventKind::RetireBacklog, zone as u64, new_high);
            }
        }
        Ok(out)
    }

    /// Attach real host memory to an allocated range so it can be accessed.
    /// The backing is mapped before the zone's writer mutex is taken, and
    /// a rejected populate unmaps it after the mutex is released. A host
    /// that refuses the mapping yields `OutOfMemory`.
    pub fn populate(&self, range: PhysRange) -> HwResult<()> {
        let zone = self.range_zone(&range)?;
        let backing = Backing::new(range.len as usize).map_err(|_| HwError::OutOfMemory {
            zone,
            requested: range.len,
        })?;
        let backing = Arc::new(backing);
        self.mutate_zone(zone, |regions| {
            let idx = regions.partition_point(|p| p.range.start.raw() < range.start.raw());
            // Regions are sorted and disjoint, so only the immediate
            // neighbours can overlap the newcomer.
            let clash = (idx > 0 && regions[idx - 1].range.overlaps(&range))
                || (idx < regions.len() && regions[idx].range.overlaps(&range));
            if clash {
                return Err(HwError::Invalid(
                    "populate overlaps an existing populated region",
                ));
            }
            regions.insert(
                idx,
                Populated {
                    range,
                    backing: Arc::clone(&backing),
                },
            );
            Ok(())
        })
    }

    /// Drop the backing of a populated range (exact match required).
    pub fn depopulate(&self, range: PhysRange) -> HwResult<()> {
        let zone = self.range_zone(&range)?;
        self.mutate_zone(zone, |regions| {
            match regions.binary_search_by_key(&range.start.raw(), |p| p.range.start.raw()) {
                Ok(i) if regions[i].range == range => {
                    regions.remove(i);
                    Ok(())
                }
                _ => Err(HwError::NotAllocated(range.start)),
            }
        })
    }

    /// Return the range to its zone's free list (and drop backing if any).
    pub fn free(&self, range: PhysRange) -> HwResult<()> {
        let zone = self.range_zone(&range)?;
        // Bookkeeping-only ranges fail the exact-match depopulate, which
        // then publishes nothing — no spurious generation bump.
        match self.depopulate(range) {
            Ok(()) | Err(HwError::NotAllocated(_)) => {}
            Err(e) => return Err(e),
        }
        self.shards[zone].alloc.lock().free(range);
        Ok(())
    }

    /// The global publish count plus one (its pre-sharding definition:
    /// the generation of the imagined fleet-wide snapshot). Bumped by
    /// every successful populate/depopulate/free-of-populated publish in
    /// any zone. Region caches no longer key off this — they validate
    /// against the owning zone's generation (or a [`RegionView`]) — but it
    /// remains the cheap "has anything anywhere changed" probe.
    #[inline]
    pub fn populate_generation(&self) -> u64 {
        self.publishes.load(Ordering::SeqCst) + 1
    }

    /// Snapshot swaps published so far across all zones (the writer-side
    /// cost counter the scaling harness reports).
    pub fn snapshot_swaps(&self) -> u64 {
        self.publishes.load(Ordering::SeqCst)
    }

    /// Number of populated regions right now, across all zones.
    pub fn populated_regions(&self) -> usize {
        (0..self.shards.len())
            .map(|z| self.with_zone_snapshot(z, |s| s.regions.len()))
            .sum()
    }

    #[inline]
    fn resolve_in(
        s: &RegionSnapshot,
        addr: HostPhysAddr,
        len: u64,
    ) -> HwResult<(Arc<Backing>, usize)> {
        let p = s.find(addr.raw()).ok_or(HwError::UnbackedPhys(addr))?;
        if !p.range.contains(addr) || addr.raw() + len > p.range.end().raw() {
            return Err(HwError::UnbackedPhys(addr));
        }
        Ok((
            Arc::clone(&p.backing),
            (addr.raw() - p.range.start.raw()) as usize,
        ))
    }

    /// Resolve a physical address to a host pointer valid for `len` bytes,
    /// plus the backing keep-alive. Fails if the range is not fully inside
    /// one populated region. Lock-free: one atomic load + binary search in
    /// the owning zone's shard only.
    pub fn resolve(&self, addr: HostPhysAddr, len: u64) -> HwResult<(Arc<Backing>, usize)> {
        let zone = self.shard_index(addr)?;
        self.with_zone_snapshot(zone, |s| {
            self.note_search(&self.shards[zone], s.regions.len());
            Self::resolve_in(s, addr, len)
        })
    }

    /// Resolve to the *whole* containing region (for [`RegionCache`]):
    /// geometry, backing, and the zone snapshot's generation.
    pub fn resolve_region(&self, addr: HostPhysAddr, len: u64) -> HwResult<ResolvedRegion> {
        let zone = self.shard_index(addr)?;
        self.with_zone_snapshot(zone, |s| {
            self.note_search(&self.shards[zone], s.regions.len());
            let p = s.find(addr.raw()).ok_or(HwError::UnbackedPhys(addr))?;
            if !p.range.contains(addr) || addr.raw() + len > p.range.end().raw() {
                return Err(HwError::UnbackedPhys(addr));
            }
            Ok(ResolvedRegion {
                range: p.range,
                backing: Arc::clone(&p.backing),
                generation: s.generation,
            })
        })
    }

    /// Resolve several ranges against one consistent snapshot *per zone*
    /// (every shard's snapshot is loaded once for the whole batch inside
    /// one reader section — no torn view within a zone). Fails on the
    /// first range that does not resolve.
    pub fn resolve_many(&self, ranges: &[PhysRange]) -> HwResult<Vec<(Arc<Backing>, usize)>> {
        let slots: Vec<usize> = self.shards.iter().map(|s| s.begin_read()).collect();
        // SAFETY: every shard's reader section is open (above) until the
        // matching `end_read` below, so the loaded snapshots stay live for
        // the whole batch.
        let snaps: Vec<&RegionSnapshot> = self
            .shards
            .iter()
            .map(|s| unsafe { &*s.current.load(Ordering::SeqCst) })
            .collect();
        let out = ranges
            .iter()
            .map(|r| {
                let z = self.shard_index(r.start)?;
                self.note_search(&self.shards[z], snaps[z].regions.len());
                Self::resolve_in(snaps[z], r.start, r.len)
            })
            .collect();
        for (shard, slot) in self.shards.iter().zip(slots) {
            shard.end_read(slot);
        }
        out
    }

    /// Aligned 64-bit physical load.
    #[inline]
    pub fn read_u64(&self, addr: HostPhysAddr) -> HwResult<u64> {
        let (b, off) = self.resolve(addr, 8)?;
        Ok(b.read_u64(off))
    }

    /// Aligned 64-bit physical store.
    #[inline]
    pub fn write_u64(&self, addr: HostPhysAddr, value: u64) -> HwResult<()> {
        let (b, off) = self.resolve(addr, 8)?;
        b.write_u64(off, value);
        Ok(())
    }

    /// Copy bytes out of physical memory.
    pub fn read_bytes(&self, addr: HostPhysAddr, buf: &mut [u8]) -> HwResult<()> {
        let (b, off) = self.resolve(addr, buf.len() as u64)?;
        b.read_bytes(off, buf);
        Ok(())
    }

    /// Copy bytes into physical memory.
    pub fn write_bytes(&self, addr: HostPhysAddr, buf: &[u8]) -> HwResult<()> {
        let (b, off) = self.resolve(addr, buf.len() as u64)?;
        b.write_bytes(off, buf);
        Ok(())
    }
}

impl Drop for PhysMemory {
    fn drop(&mut self) {
        // No readers can exist with &mut self; free each shard's current
        // snapshot (retired ones drop with the mutex-held buckets).
        for shard in &mut self.shards {
            let ptr = *shard.current.get_mut();
            if !ptr.is_null() {
                // SAFETY: `current` is only ever set from Box::into_raw and
                // is freed exactly once, here.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
    }
}

impl std::fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PhysMemory({} zones, {} populated regions)",
            self.shards.len(),
            self.populated_regions()
        )
    }
}

/// A cached way: a resolved region plus the tag it must match to hit —
/// the zone generation it was resolved under, or the owning enclave's
/// view generation when a [`RegionView`] is attached.
struct CachedWay {
    region: ResolvedRegion,
    tag: u64,
}

/// Core-local set-associative cache of recently-resolved populated
/// regions. Like the TLB and the EPT walk cache it is core-private
/// (interior mutability, one thread per core), so a hit costs one atomic
/// generation load and zero shared-state traffic — the common case for
/// streaming TLB fills and walk loads landing in a handful of grant
/// regions. Up to [`REGION_CACHE_WAYS`] ways (fully associative,
/// round-robin victim) keep fragmented enclaves — many small grants — from
/// thrashing the single pinned slot the cache used to be.
///
/// Reclaim safety, plain mode: a hit requires the pinned region's zone
/// generation to equal the owning zone's *current* generation. Any publish
/// to that zone — including the reclaim of an unrelated region — bumps it
/// and demotes the next lookup to a snapshot search; publishes to *other*
/// zones change nothing here, so remote-zone churn cannot dent the hit
/// rate.
///
/// Reclaim safety, view mode (`set_view`): ways are tagged with the
/// enclave's [`RegionView`] generation, sampled *before* the fill resolve,
/// and hit only while it is unchanged — so a bump racing a fill strands
/// the new way at the old tag (a conservative miss, never a stale hit).
/// Sibling enclaves' grant/reclaim churn leaves this cache hot; the view
/// owner must bump on every unmap affecting this enclave (see
/// [`RegionView`]).
pub struct RegionCache {
    ways: RefCell<Vec<Option<CachedWay>>>,
    /// Round-robin fill cursor.
    victim: Cell<usize>,
    /// Active associativity (1..=REGION_CACHE_WAYS; ablation knob).
    ways_limit: Cell<usize>,
    view: RefCell<Option<Arc<RegionView>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl RegionCache {
    /// An empty cache at full associativity.
    pub fn new() -> Self {
        RegionCache {
            ways: RefCell::new((0..REGION_CACHE_WAYS).map(|_| None).collect()),
            victim: Cell::new(0),
            ways_limit: Cell::new(REGION_CACHE_WAYS),
            view: RefCell::new(None),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Ablation knob: restrict the cache to `ways` ways (clamped to
    /// `1..=REGION_CACHE_WAYS`); drops every current entry.
    pub fn set_ways(&self, ways: usize) {
        self.ways_limit.set(ways.clamp(1, REGION_CACHE_WAYS));
        self.victim.set(0);
        self.invalidate();
    }

    /// Active associativity.
    pub fn ways(&self) -> usize {
        self.ways_limit.get()
    }

    /// Attach (or detach) a per-enclave region view; entries are then
    /// tagged and validated by the view's generation instead of zone
    /// generations. Drops every current entry.
    pub fn set_view(&self, view: Option<Arc<RegionView>>) {
        *self.view.borrow_mut() = view;
        self.invalidate();
    }

    /// Resolve `addr` for `len` bytes through the cache, falling back to
    /// (and re-pinning from) the snapshot on miss.
    #[inline]
    pub fn resolve(
        &self,
        mem: &PhysMemory,
        addr: HostPhysAddr,
        len: u64,
    ) -> HwResult<(Arc<Backing>, usize)> {
        // The validity tag, sampled before the lookup (and, for a view,
        // before the fill's resolve — see the view-mode race note on the
        // type).
        let view_tag = self.view.borrow().as_ref().map(|v| v.generation());
        let tag = view_tag.or_else(|| mem.zone_generation_of(addr));
        if let Some(tag) = tag {
            let ways = self.ways.borrow();
            for w in ways.iter().take(self.ways_limit.get()).flatten() {
                if w.tag == tag
                    && w.region.range.contains(addr)
                    && addr.raw() + len <= w.region.range.end().raw()
                {
                    self.hits.set(self.hits.get() + 1);
                    mem.note_cache_hit(addr);
                    return Ok((
                        Arc::clone(&w.region.backing),
                        (addr.raw() - w.region.range.start.raw()) as usize,
                    ));
                }
            }
        }
        self.misses.set(self.misses.get() + 1);
        let r = mem.resolve_region(addr, len)?;
        let off = (addr.raw() - r.range.start.raw()) as usize;
        if tag.is_some() {
            // Plain mode tags with the snapshot's own zone generation
            // (never re-sampled); view mode with the pre-resolve view
            // generation.
            let tag = view_tag.unwrap_or(r.generation);
            let backing = Arc::clone(&r.backing);
            let mut ways = self.ways.borrow_mut();
            let v = self.victim.get() % self.ways_limit.get();
            ways[v] = Some(CachedWay { region: r, tag });
            self.victim.set((v + 1) % self.ways_limit.get());
            return Ok((backing, off));
        }
        Ok((r.backing, off))
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Zero the hit/miss counters.
    pub fn reset_stats(&self) {
        self.hits.set(0);
        self.misses.set(0);
    }

    /// Drop every pinned region (the generation checks make this
    /// unnecessary for correctness; useful for ablations).
    pub fn invalidate(&self) {
        for w in self.ways.borrow_mut().iter_mut() {
            *w = None;
        }
    }
}

impl Default for RegionCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PhysMemory {
        PhysMemory::new(&[64 * 1024 * 1024, 64 * 1024 * 1024])
    }

    #[test]
    fn alloc_is_zone_local_and_aligned() {
        let m = mem();
        let r0 = m.alloc(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        let r1 = m.alloc(ZoneId(1), 8192, PAGE_SIZE_4K).unwrap();
        assert_eq!(m.zone_of(r0.start), ZoneId(0));
        assert_eq!(m.zone_of(r1.start), ZoneId(1));
        assert!(r0.start.is_aligned(PAGE_SIZE_4K));
    }

    #[test]
    fn alloc_respects_large_alignment() {
        let m = mem();
        let r = m.alloc(ZoneId(0), 4096, 2 * 1024 * 1024).unwrap();
        assert!(r.start.is_aligned(2 * 1024 * 1024));
    }

    #[test]
    fn alloc_rounds_to_page() {
        let m = mem();
        let r = m.alloc(ZoneId(0), 1, PAGE_SIZE_4K).unwrap();
        assert_eq!(r.len, PAGE_SIZE_4K);
    }

    #[test]
    fn out_of_memory_reported() {
        let m = PhysMemory::new(&[1024 * 1024]);
        let e = m
            .alloc(ZoneId(0), 2 * 1024 * 1024, PAGE_SIZE_4K)
            .unwrap_err();
        assert!(matches!(e, HwError::OutOfMemory { zone: 0, .. }));
    }

    #[test]
    fn alloc_len_overflow_rejected() {
        let m = mem();
        // Page-rounding u64::MAX would overflow; must error, not wrap.
        let e = m.alloc(ZoneId(0), u64::MAX, PAGE_SIZE_4K).unwrap_err();
        assert!(matches!(e, HwError::Invalid(_)));
        let e = m.alloc(ZoneId(0), u64::MAX - 7, PAGE_SIZE_4K).unwrap_err();
        assert!(matches!(e, HwError::Invalid(_)));
    }

    #[test]
    fn zone_boundary_first_and_last_byte() {
        let m = mem();
        // Last byte of zone 0 and first byte of zone 1.
        assert_eq!(m.zone_of(HostPhysAddr::new(ZONE_SPAN - 1)), ZoneId(0));
        assert_eq!(m.zone_of(HostPhysAddr::new(ZONE_SPAN)), ZoneId(1));
        assert_eq!(m.zone_of(HostPhysAddr::new(0)), ZoneId(0));
        // zone_of is pure arithmetic; shard-backed APIs bounds-check.
        assert_eq!(m.zone_of(HostPhysAddr::new(5 * ZONE_SPAN)), ZoneId(5));
        assert!(matches!(
            m.zone_usage(ZoneId(2)),
            Err(HwError::NoSuchZone(2))
        ));
        assert!(matches!(
            m.zone_stats(ZoneId(2)),
            Err(HwError::NoSuchZone(2))
        ));
        // Resolution beyond the last configured zone is unbacked, not a
        // panic or a wrong-shard search.
        assert!(matches!(
            m.resolve(HostPhysAddr::new(5 * ZONE_SPAN + ZONE_RAM_BASE), 8),
            Err(HwError::UnbackedPhys(_))
        ));
    }

    #[test]
    fn cross_zone_and_degenerate_ranges_rejected() {
        let m = mem();
        // A range straddling the zone 0 / zone 1 span boundary would have
        // to live in two shards; populate and free both reject it.
        let straddle = PhysRange::new(HostPhysAddr::new(ZONE_SPAN - 4096), 8192);
        assert!(matches!(m.populate(straddle), Err(HwError::Invalid(_))));
        assert!(matches!(m.free(straddle), Err(HwError::Invalid(_))));
        // Zero-length ranges are degenerate.
        let empty = PhysRange::new(HostPhysAddr::new(ZONE_RAM_BASE), 0);
        assert!(matches!(m.populate(empty), Err(HwError::Invalid(_))));
        assert!(matches!(m.free(empty), Err(HwError::Invalid(_))));
        // A range wrapping the address space is degenerate, not a panic.
        let wrap = PhysRange::new(HostPhysAddr::new(u64::MAX - 4095), 8192);
        assert!(matches!(m.populate(wrap), Err(HwError::Invalid(_))));
        // A range entirely beyond the configured zones has no shard.
        let beyond = PhysRange::new(HostPhysAddr::new(3 * ZONE_SPAN + ZONE_RAM_BASE), 4096);
        assert!(matches!(m.populate(beyond), Err(HwError::NoSuchZone(3))));
        assert!(matches!(m.free(beyond), Err(HwError::NoSuchZone(3))));
    }

    #[test]
    fn free_coalesces() {
        let m = mem();
        let a = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let b = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let c = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        m.free(b).unwrap();
        m.free(a).unwrap();
        m.free(c).unwrap();
        // After coalescing everything, a fresh max-size alloc succeeds.
        let (total, in_use) = m.zone_usage(ZoneId(0)).unwrap();
        assert_eq!(in_use, 0);
        let big = m.alloc(ZoneId(0), total, PAGE_SIZE_4K).unwrap();
        assert_eq!(big.len, total);
    }

    #[test]
    fn resolve_requires_population() {
        let m = mem();
        let r = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        assert!(matches!(m.read_u64(r.start), Err(HwError::UnbackedPhys(_))));
        m.populate(r).unwrap();
        assert_eq!(m.read_u64(r.start).unwrap(), 0);
    }

    #[test]
    fn rw_roundtrip_across_regions() {
        let m = mem();
        let r = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        m.write_u64(r.start.add(4096), 99).unwrap();
        assert_eq!(m.read_u64(r.start.add(4096)).unwrap(), 99);
        // A straddling read past the end fails.
        assert!(m.resolve(r.start.add(8192 - 4), 8).is_err());
    }

    #[test]
    fn depopulate_then_access_fails() {
        let m = mem();
        let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        m.write_u64(r.start, 1).unwrap();
        m.depopulate(r).unwrap();
        assert!(m.read_u64(r.start).is_err());
    }

    #[test]
    fn populate_overlap_rejected() {
        let m = mem();
        let r = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        let inner = PhysRange::new(r.start.add(4096), 4096);
        assert!(m.populate(inner).is_err());
    }

    #[test]
    fn bytes_roundtrip() {
        let m = mem();
        let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        m.write_bytes(r.start.add(100), b"covirt").unwrap();
        let mut buf = [0u8; 6];
        m.read_bytes(r.start.add(100), &mut buf).unwrap();
        assert_eq!(&buf, b"covirt");
    }

    #[test]
    fn zone_usage_tracks() {
        let m = mem();
        let r = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        assert_eq!(m.zone_usage(ZoneId(0)).unwrap().1, 4096);
        m.free(r).unwrap();
        assert_eq!(m.zone_usage(ZoneId(0)).unwrap().1, 0);
    }

    #[test]
    fn generation_bumps_on_publish_only() {
        let m = mem();
        let g0 = m.populate_generation();
        let r = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        // Bookkeeping-only alloc does not publish.
        assert_eq!(m.populate_generation(), g0);
        m.populate(r).unwrap();
        assert_eq!(m.populate_generation(), g0 + 1);
        // Failed publishes do not move the generation.
        assert!(m.populate(r).is_err());
        assert_eq!(m.populate_generation(), g0 + 1);
        m.free(r).unwrap();
        assert_eq!(m.populate_generation(), g0 + 2);
        // Freeing a bookkeeping-only range does not publish.
        let r2 = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        m.free(r2).unwrap();
        assert_eq!(m.populate_generation(), g0 + 2);
        assert_eq!(m.snapshot_swaps(), g0 + 1);
    }

    #[test]
    fn zone_generations_are_independent() {
        let m = mem();
        let z0 = m.zone_generation(ZoneId(0)).unwrap();
        let z1 = m.zone_generation(ZoneId(1)).unwrap();
        let g = m.populate_generation();
        let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        // A zone-0 publish moves zone 0's generation and the global count,
        // but never zone 1's.
        assert_eq!(m.zone_generation(ZoneId(0)).unwrap(), z0 + 1);
        assert_eq!(m.zone_generation(ZoneId(1)).unwrap(), z1);
        assert_eq!(m.populate_generation(), g + 1);
        assert_eq!(m.zone_stats(ZoneId(0)).unwrap().snapshot_swaps, 1);
        assert_eq!(m.zone_stats(ZoneId(1)).unwrap().snapshot_swaps, 0);
        let _ = r;
    }

    #[test]
    fn resolve_many_single_snapshot() {
        let m = mem();
        let a = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        let b = m.alloc_backed(ZoneId(1), 4096, PAGE_SIZE_4K).unwrap();
        let got = m
            .resolve_many(&[PhysRange::new(a.start.add(4096), 4096), b])
            .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1, 4096);
        assert_eq!(got[1].1, 0);
        // One unbacked range fails the whole batch.
        let hole = m.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        assert!(m.resolve_many(&[a, hole]).is_err());
    }

    #[test]
    fn region_cache_hits_and_generation_invalidation() {
        let m = mem();
        let cache = RegionCache::new();
        let r = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        // First lookup misses, the rest of the region hits.
        cache.resolve(&m, r.start, 8).unwrap();
        cache.resolve(&m, r.start.add(4096), 8).unwrap();
        assert_eq!(cache.stats(), (1, 1));
        // A publish in a *different* zone leaves the pinned way valid:
        // cross-zone churn no longer dents the hit rate.
        let other = m.alloc_backed(ZoneId(1), 4096, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r.start, 8).unwrap();
        assert_eq!(cache.stats(), (2, 1));
        // A publish in the *same* zone bumps its generation: next lookup
        // misses, then re-pins.
        let same = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r.start, 8).unwrap();
        assert_eq!(cache.stats(), (2, 2));
        cache.resolve(&m, r.start.add(8), 8).unwrap();
        assert_eq!(cache.stats(), (3, 2));
        let _ = (other, same);
    }

    #[test]
    fn region_cache_never_resolves_reclaimed_region() {
        let m = mem();
        let cache = RegionCache::new();
        let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r.start, 8).unwrap();
        m.free(r).unwrap();
        // The pinned region's zone generation is stale; resolution must
        // fail, not serve the reclaimed backing.
        assert!(matches!(
            cache.resolve(&m, r.start, 8),
            Err(HwError::UnbackedPhys(_))
        ));
    }

    #[test]
    fn region_cache_set_associativity_covers_working_set() {
        let m = mem();
        let cache = RegionCache::new();
        let regions: Vec<PhysRange> = (0..REGION_CACHE_WAYS)
            .map(|_| m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap())
            .collect();
        // Warm every way, then a second pass over the working set hits on
        // all four ways.
        for r in &regions {
            cache.resolve(&m, r.start, 8).unwrap();
        }
        cache.reset_stats();
        for _ in 0..3 {
            for r in &regions {
                cache.resolve(&m, r.start, 8).unwrap();
            }
        }
        assert_eq!(cache.stats(), (3 * REGION_CACHE_WAYS as u64, 0));
        // The same working set thrashes a single-way cache: round-robin
        // over N regions with 1 way never revisits the pinned one.
        cache.set_ways(1);
        assert_eq!(cache.ways(), 1);
        for r in &regions {
            cache.resolve(&m, r.start, 8).unwrap();
        }
        cache.reset_stats();
        for r in &regions {
            cache.resolve(&m, r.start, 8).unwrap();
        }
        assert_eq!(cache.stats(), (0, REGION_CACHE_WAYS as u64));
        // The knob clamps.
        cache.set_ways(0);
        assert_eq!(cache.ways(), 1);
        cache.set_ways(1000);
        assert_eq!(cache.ways(), REGION_CACHE_WAYS);
    }

    #[test]
    fn region_view_scopes_invalidation_to_the_enclave() {
        let m = mem();
        let view = Arc::new(RegionView::new());
        let cache = RegionCache::new();
        cache.set_view(Some(Arc::clone(&view)));
        let r = m.alloc_backed(ZoneId(0), 8192, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r.start, 8).unwrap();
        cache.resolve(&m, r.start.add(8), 8).unwrap();
        assert_eq!(cache.stats(), (1, 1));
        // A same-zone publish on behalf of *another* enclave does not bump
        // this enclave's view: the pinned way stays hot.
        let sibling = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r.start, 8).unwrap();
        assert_eq!(cache.stats(), (2, 1));
        // Bumping the view (what the controller does after an unmap
        // affecting this enclave) invalidates every way.
        view.bump();
        cache.resolve(&m, r.start, 8).unwrap();
        assert_eq!(cache.stats(), (2, 2));
        let _ = sibling;
    }

    #[test]
    fn region_view_bump_blocks_reclaimed_region() {
        let m = mem();
        let view = Arc::new(RegionView::new());
        let cache = RegionCache::new();
        cache.set_view(Some(Arc::clone(&view)));
        let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        cache.resolve(&m, r.start, 8).unwrap();
        // Reclaim + view bump (the controller's remove-acked sequence):
        // the cache must fall through to the snapshot and fail.
        m.free(r).unwrap();
        view.bump();
        assert!(matches!(
            cache.resolve(&m, r.start, 8),
            Err(HwError::UnbackedPhys(_))
        ));
    }

    #[test]
    fn epoch_reclamation_frees_without_quiescence() {
        // With no readers at all, every publish after the first two frees
        // the stale bucket: the backlog never exceeds the two in-flight
        // epochs.
        let m = mem();
        for _ in 0..10 {
            let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
            m.free(r).unwrap();
        }
        let s = m.zone_stats(ZoneId(0)).unwrap();
        assert_eq!(s.snapshot_swaps, 20);
        assert!(s.retired_backlog <= 2, "backlog {}", s.retired_backlog);
        assert!(
            s.retired_backlog_high_water <= 2,
            "high water {}",
            s.retired_backlog_high_water
        );
        assert!(s.retired_freed >= 18, "freed {}", s.retired_freed);
    }

    #[test]
    fn retired_backlog_bounded_under_sustained_reader() {
        // A reader that never stops issuing resolve sections must not
        // defer reclamation indefinitely: each section registers in the
        // *current* epoch, so the previous slot keeps draining and the
        // writer keeps advancing. (The old reader-count quiesce failed
        // exactly this test shape: overlapping readers held the count
        // above zero forever.)
        let m = Arc::new(mem());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let target = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let (b, off) = m.resolve(target.start, 8).unwrap();
                        let _ = b.read_u64(off);
                    }
                })
            })
            .collect();
        for _ in 0..300 {
            let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
            m.free(r).unwrap();
        }
        let s = m.zone_stats(ZoneId(0)).unwrap();
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
        assert!(
            s.retired_backlog_high_water <= 32,
            "backlog high water {} under sustained readers",
            s.retired_backlog_high_water
        );
        assert!(s.retired_freed >= 500, "freed {}", s.retired_freed);
    }

    #[test]
    fn publish_waits_at_hard_cap_for_a_stalled_reader() {
        // A reader parked inside its section (as if descheduled) blocks
        // its epoch slot. Publishes accumulate retired snapshots up to the
        // hard cap and then wait for the slot instead of overrunning it.
        let m = Arc::new(mem());
        let slot = m.shards[0].begin_read();
        let writer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for _ in 0..2 * RETIRE_BACKLOG_HARD_CAP {
                    let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
                    m.free(r).unwrap();
                }
            })
        };
        let high_water = || m.shards[0].backlog_high_water.load(Ordering::Relaxed);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while high_water() < RETIRE_BACKLOG_HARD_CAP && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(high_water(), RETIRE_BACKLOG_HARD_CAP);
        assert!(!writer.is_finished(), "publish ran past the hard cap");
        m.shards[0].end_read(slot);
        writer.join().unwrap();
        let s = m.zone_stats(ZoneId(0)).unwrap();
        assert_eq!(s.retired_backlog_high_water, RETIRE_BACKLOG_HARD_CAP);
        assert!(s.retired_backlog < RETIRE_BACKLOG_HARD_CAP);
    }

    #[test]
    fn regrant_reads_zero_after_previous_owner_wrote() {
        // Zero-on-grant isolation: a freed range handed out again (first
        // fit returns the same extent) never shows the old owner's data.
        let m = mem();
        let len = 2 * 1024 * 1024;
        let first = m.alloc_backed(ZoneId(0), len, PAGE_SIZE_4K).unwrap();
        for off in (0..len).step_by(8) {
            m.write_u64(first.start.add(off), 0x5a5a_5a5a_0000_0000 | off)
                .unwrap();
        }
        m.free(first).unwrap();
        let again = m.alloc_backed(ZoneId(0), len, PAGE_SIZE_4K).unwrap();
        assert_eq!(again, first, "first fit must hand back the same range");
        for off in (0..len).step_by(8) {
            assert_eq!(
                m.read_u64(again.start.add(off)).unwrap(),
                0,
                "word {off:#x}"
            );
        }
    }

    #[test]
    fn host_refused_backing_fails_cleanly() {
        // A zone-sized backing no ordinary host will map (800 GiB): the
        // refusal must surface as `OutOfMemory` with the range back on the
        // free list, not as a panic or a leaked allocation. A host that
        // overcommits without limit maps it, and `free` must then restore
        // the zone.
        const ZONE: u64 = 800 << 30;
        let m = PhysMemory::new(&[ZONE]);
        let free_bytes = |m: &PhysMemory| {
            let (total, used) = m.zone_usage(ZoneId(0)).unwrap();
            total - used
        };
        let before = free_bytes(&m);
        match m.alloc_backed(ZoneId(0), ZONE, crate::addr::PAGE_SIZE_2M) {
            Err(e) => {
                eprintln!("host refused the 800 GiB mapping: {e}");
                assert_eq!(
                    e,
                    HwError::OutOfMemory {
                        zone: 0,
                        requested: ZONE
                    }
                );
                assert_eq!(m.populated_regions(), 0);
            }
            Ok(r) => {
                eprintln!("host mapped the 800 GiB backing; freeing it");
                assert_eq!(free_bytes(&m), 0);
                m.free(r).unwrap();
            }
        }
        assert_eq!(free_bytes(&m), before, "zone free bytes restored");
    }

    #[test]
    fn snapshot_readers_quiesce() {
        // Churn publishes while hammering resolves from other threads; the
        // retired backlog must stay bounded and every resolve must see a
        // coherent snapshot. (The deeper coherence assertions live in
        // tests/resolve_coherence.rs.)
        let m = Arc::new(mem());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let target = m.alloc_backed(ZoneId(1), 4096, PAGE_SIZE_4K).unwrap();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let (b, off) = m.resolve(target.start, 8).unwrap();
                        let _ = b.read_u64(off);
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            let r = m.alloc_backed(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
            m.free(r).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
        assert!(m.snapshot_swaps() >= 400);
        // The zone-1 readers never touch zone 0's shard, so its epochs
        // advance freely: the churn zone's backlog stays tiny.
        let s = m.zone_stats(ZoneId(0)).unwrap();
        assert!(s.retired_backlog_high_water <= 2);
        assert_eq!(s.snapshot_swaps, 400);
    }
}
