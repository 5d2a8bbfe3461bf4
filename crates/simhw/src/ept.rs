//! Extended Page Tables (EPT) — Intel's nested paging, functionally modelled.
//!
//! The EPT translates *guest-physical* to *host-physical* addresses. Covirt
//! builds an identity map of exactly the regions an enclave owns, with full
//! RWX permissions, so a violation occurs if and only if the enclave touches
//! a guest-physical address outside its assignment — the paper's memory
//! protection feature. Contiguous runs are coalesced into 2 MiB and 1 GiB
//! leaves by the generic radix engine (see [`crate::paging`]).
//!
//! The structure also carries a monotonic *generation* counter. Shrinking
//! the map bumps the generation; per-core TLBs record the generation of the
//! entries they cache, and the Covirt hypervisor's `TlbFlush` command is
//! what re-synchronizes them (the paper's command-queue + NMI protocol). The
//! hardware model deliberately does **not** auto-invalidate TLBs on EPT
//! edits — that asynchrony is the behaviour Covirt exists to manage.

use crate::addr::{GuestPhysAddr, HostPhysAddr, PhysRange};
use crate::error::{HwError, HwResult};
use crate::paging::{Access, EntryFormat, FramePool, Perms, RadixTable, TableLoad, Translation};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// EPT entry encoding.
pub struct EptFormat;

/// EPT entry bits.
pub mod ept_bits {
    /// Read allowed.
    pub const R: u64 = 1 << 0;
    /// Write allowed.
    pub const W: u64 = 1 << 1;
    /// Execute allowed.
    pub const X: u64 = 1 << 2;
    /// Large/giant page (levels 2 and 3).
    pub const LARGE: u64 = 1 << 7;
    /// Address mask (bits 12..=51).
    pub const ADDR: u64 = 0x000f_ffff_ffff_f000;
}

impl EntryFormat for EptFormat {
    #[inline]
    fn present(entry: u64) -> bool {
        entry & (ept_bits::R | ept_bits::W | ept_bits::X) != 0
    }
    #[inline]
    fn leaf(entry: u64, level: u8) -> bool {
        level == 1 || entry & ept_bits::LARGE != 0
    }
    #[inline]
    fn frame(entry: u64) -> HostPhysAddr {
        HostPhysAddr::new(entry & ept_bits::ADDR)
    }
    #[inline]
    fn table_entry(child: HostPhysAddr) -> u64 {
        (child.raw() & ept_bits::ADDR) | ept_bits::R | ept_bits::W | ept_bits::X
    }
    #[inline]
    fn leaf_entry(pa: HostPhysAddr, level: u8, perms: Perms) -> u64 {
        let mut e = pa.raw() & ept_bits::ADDR;
        if perms.r {
            e |= ept_bits::R;
        }
        if perms.w {
            e |= ept_bits::W;
        }
        if perms.x {
            e |= ept_bits::X;
        }
        if level > 1 {
            e |= ept_bits::LARGE;
        }
        e
    }
    #[inline]
    fn entry_allows(entry: u64, access: Access) -> bool {
        match access {
            Access::Read => entry & ept_bits::R != 0,
            Access::Write => entry & ept_bits::W != 0,
            Access::Exec => entry & ept_bits::X != 0,
        }
    }
    #[inline]
    fn entry_perms(entry: u64) -> Perms {
        Perms {
            r: entry & ept_bits::R != 0,
            w: entry & ept_bits::W != 0,
            x: entry & ept_bits::X != 0,
        }
    }
}

/// Details of an EPT violation, mirroring the VMX exit qualification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EptViolationInfo {
    /// Faulting guest-physical address.
    pub gpa: GuestPhysAddr,
    /// The access that faulted.
    pub access: Access,
}

/// An enclave's extended page tables.
pub struct Ept {
    table: RadixTable<EptFormat>,
    /// Bumped whenever the mapping *shrinks* (an INVEPT-requiring change).
    generation: AtomicU64,
    /// Count of map operations (controller-side instrumentation).
    map_ops: AtomicU64,
    /// Count of unmap operations.
    unmap_ops: AtomicU64,
}

impl Ept {
    /// Create an empty EPT whose table frames come from `pool`.
    pub fn new(pool: Arc<FramePool>) -> HwResult<Self> {
        Ok(Ept {
            table: RadixTable::new(pool)?,
            generation: AtomicU64::new(1),
            map_ops: AtomicU64::new(0),
            unmap_ops: AtomicU64::new(0),
        })
    }

    /// The EPT pointer (root frame) that goes into the VMCS.
    pub fn eptp(&self) -> HostPhysAddr {
        self.table.root()
    }

    /// Identity-map a host-physical range into the guest-physical space
    /// with full permissions, coalescing into pages up to `max_level`
    /// (3 ⇒ allow 1 GiB, 2 ⇒ up to 2 MiB, 1 ⇒ 4 KiB only).
    pub fn map_identity(&self, range: PhysRange, max_level: u8) -> HwResult<()> {
        self.map_identity_perms(range, Perms::RWX, max_level)
    }

    /// Identity-map with explicit permissions (used by tests and by the
    /// read-only grant extension).
    pub fn map_identity_perms(
        &self,
        range: PhysRange,
        perms: Perms,
        max_level: u8,
    ) -> HwResult<()> {
        self.table
            .map(range.start.raw(), range.start, range.len, perms, max_level)?;
        self.map_ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Remove a guest-physical range from the map and bump the generation.
    pub fn unmap(&self, range: PhysRange) -> HwResult<()> {
        self.table.unmap(range.start.raw(), range.len)?;
        self.unmap_ops.fetch_add(1, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Translate a guest-physical address, checking `access` permission.
    /// Returns the translation or an [`HwError::EptViolation`].
    pub fn translate(
        &self,
        gpa: GuestPhysAddr,
        access: Access,
        loader: &impl TableLoad,
    ) -> HwResult<Translation> {
        let t = self.table.walk(gpa.raw(), loader).map_err(|e| match e {
            HwError::PageNotPresent { .. } => violation_err(gpa, access),
            other => other,
        })?;
        if !t.perms.allows(access) {
            return Err(violation_err(gpa, access));
        }
        Ok(t)
    }

    /// Current generation (TLB-coherence epoch).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Leaf counts `(4k, 2m, 1g)` — used by the coalescing ablation.
    pub fn leaf_counts(&self) -> HwResult<(u64, u64, u64)> {
        self.table.leaf_counts()
    }

    /// (map ops, unmap ops) performed so far.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.map_ops.load(Ordering::Relaxed),
            self.unmap_ops.load(Ordering::Relaxed),
        )
    }
}

/// A paging-structure cache for nested walks.
///
/// Under nested paging every *guest page-table entry* load must itself be
/// translated through the EPT, multiplying the miss-path cost (up to ~24
/// loads for a 4-level guest walk). Real hardware hides most of this with
/// paging-structure caches; this models one: it maps the 4 KiB
/// guest-physical page holding a PT entry to its host-physical page, so a
/// hit skips the EPT walk entirely.
///
/// Coherence contract: every entry is tagged with the EPT [`generation`]
/// current when it was filled, and a lookup only hits when the tag equals
/// the *current* generation. Because the generation is bumped exactly when
/// the mapping shrinks ([`Ept::unmap`]) — growth cannot change an existing
/// translation, since the radix engine rejects double-maps — a stale entry
/// can never outlive the mapping it was derived from. No explicit
/// invalidation call exists or is needed.
///
/// The cache is core-private (interior mutability via [`Cell`], not
/// thread-safe) exactly like the hardware structure it models.
///
/// [`generation`]: Ept::generation
pub struct WalkCache {
    entries: Vec<Cell<WalkCacheEntry>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

#[derive(Clone, Copy)]
struct WalkCacheEntry {
    /// Guest-physical 4 KiB page base; `u64::MAX` = invalid.
    tag: u64,
    /// Host-physical base of that page.
    host_page: u64,
    /// EPT generation when filled.
    generation: u64,
}

impl WalkCacheEntry {
    const INVALID: u64 = u64::MAX;
}

impl WalkCache {
    /// Default number of entries; sized like a hardware PML4/PDPT/PDE cache
    /// (a few dozen entries cover the paging structures of many gigabytes).
    pub const DEFAULT_ENTRIES: usize = 64;

    /// Build a direct-mapped cache with `entries` slots.
    pub fn new(entries: usize) -> Self {
        let n = entries.max(1);
        WalkCache {
            entries: (0..n)
                .map(|_| {
                    Cell::new(WalkCacheEntry {
                        tag: WalkCacheEntry::INVALID,
                        host_page: 0,
                        generation: 0,
                    })
                })
                .collect(),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    #[inline]
    fn slot(&self, page: u64) -> &Cell<WalkCacheEntry> {
        &self.entries[((page >> 12) as usize) % self.entries.len()]
    }

    /// Look up the host-physical address for `gpa` given the current EPT
    /// generation. Hits return the translated address with zero loads.
    #[inline]
    pub fn lookup(&self, gpa: u64, generation: u64) -> Option<u64> {
        let page = gpa & !0xfff;
        let e = self.slot(page).get();
        if e.tag == page && e.generation == generation {
            self.hits.set(self.hits.get() + 1);
            Some(e.host_page + (gpa & 0xfff))
        } else {
            self.misses.set(self.misses.get() + 1);
            None
        }
    }

    /// Install the translation `gpa → host_pa` (both arbitrary addresses in
    /// the same page-offset) under `generation`.
    #[inline]
    pub fn insert(&self, gpa: u64, host_pa: u64, generation: u64) {
        let page = gpa & !0xfff;
        self.slot(page).set(WalkCacheEntry {
            tag: page,
            host_page: host_pa & !0xfff,
            generation,
        });
    }

    /// (hits, misses) since construction or the last reset.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Reset the counters (benchmark harness hygiene).
    pub fn reset_stats(&self) {
        self.hits.set(0);
        self.misses.set(0);
    }
}

fn violation_err(gpa: GuestPhysAddr, access: Access) -> HwError {
    HwError::EptViolation {
        gpa,
        read: access == Access::Read,
        write: access == Access::Write,
        exec: access == Access::Exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PAGE_SIZE_2M, PAGE_SIZE_4K};
    use crate::memory::PhysMemory;
    use crate::paging::DirectLoad;
    use crate::topology::ZoneId;

    fn setup() -> (Arc<PhysMemory>, Ept) {
        let mem = Arc::new(PhysMemory::new(&[512 * 1024 * 1024]));
        let pool_region = mem
            .alloc_backed(ZoneId(0), 8 * 1024 * 1024, PAGE_SIZE_4K)
            .unwrap();
        let pool = Arc::new(FramePool::new(Arc::clone(&mem), pool_region));
        let ept = Ept::new(pool).unwrap();
        (mem, ept)
    }

    /// Table loads of one translation, checked to be the same at the
    /// first, middle and last 8 bytes of the identity-mapped `r`.
    fn translate_loads(mem: &PhysMemory, ept: &Ept, r: PhysRange) -> u32 {
        let loads: Vec<u32> = [0, r.len / 2, r.len - 8]
            .into_iter()
            .map(|off| {
                let gpa = GuestPhysAddr::new(r.start.raw() + off);
                ept.translate(gpa, Access::Read, &DirectLoad(mem))
                    .unwrap()
                    .loads
            })
            .collect();
        assert!(loads.iter().all(|&l| l == loads[0]), "{loads:?}");
        loads[0]
    }

    #[test]
    fn identity_translate() {
        let (mem, ept) = setup();
        let r = mem
            .alloc(ZoneId(0), 8 * PAGE_SIZE_4K, PAGE_SIZE_4K)
            .unwrap();
        ept.map_identity(r, 2).unwrap();
        let t = ept
            .translate(
                GuestPhysAddr::new(r.start.raw() + 100),
                Access::Read,
                &DirectLoad(&mem),
            )
            .unwrap();
        assert_eq!(t.pa.raw(), r.start.raw() + 100);
    }

    #[test]
    fn violation_outside_assignment() {
        let (mem, ept) = setup();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_4K, PAGE_SIZE_4K).unwrap();
        ept.map_identity(r, 1).unwrap();
        let bad = GuestPhysAddr::new(r.end().raw() + PAGE_SIZE_4K);
        let e = ept
            .translate(bad, Access::Write, &DirectLoad(&mem))
            .unwrap_err();
        assert!(matches!(e, HwError::EptViolation { write: true, .. }));
    }

    #[test]
    fn unmap_bumps_generation() {
        let (mem, ept) = setup();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        let g0 = ept.generation();
        ept.map_identity(r, 2).unwrap();
        assert_eq!(
            ept.generation(),
            g0,
            "growing the map must not require INVEPT"
        );
        ept.unmap(r).unwrap();
        assert_eq!(ept.generation(), g0 + 1);
        assert!(ept
            .translate(
                GuestPhysAddr::new(r.start.raw()),
                Access::Read,
                &DirectLoad(&mem)
            )
            .is_err());
    }

    #[test]
    fn coalescing_uses_large_pages() {
        let (mem, ept) = setup();
        let r = mem
            .alloc(ZoneId(0), 4 * PAGE_SIZE_2M, PAGE_SIZE_2M)
            .unwrap();
        ept.map_identity(r, 3).unwrap();
        let (c4k, c2m, _c1g) = ept.leaf_counts().unwrap();
        assert_eq!(c4k, 0);
        assert_eq!(c2m, 4);
        assert_eq!(translate_loads(&mem, &ept, r), 3, "2 MiB leaf: 3-load walk");
    }

    #[test]
    fn no_coalescing_when_limited() {
        let (mem, ept) = setup();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        ept.map_identity(r, 1).unwrap();
        let (c4k, c2m, _): (u64, u64, u64) = ept.leaf_counts().unwrap();
        assert_eq!(c4k, 512);
        assert_eq!(c2m, 0);
        assert_eq!(translate_loads(&mem, &ept, r), 4, "4 KiB leaf: 4-load walk");
    }

    #[test]
    fn readonly_grant_blocks_writes() {
        let (mem, ept) = setup();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_4K, PAGE_SIZE_4K).unwrap();
        ept.map_identity_perms(r, Perms::RO, 1).unwrap();
        let gpa = GuestPhysAddr::new(r.start.raw());
        assert!(ept.translate(gpa, Access::Read, &DirectLoad(&mem)).is_ok());
        assert!(ept
            .translate(gpa, Access::Write, &DirectLoad(&mem))
            .is_err());
    }

    #[test]
    fn walk_cache_hits_within_generation() {
        let c = WalkCache::new(16);
        c.insert(0x5000 + 8, 0x9000 + 8, 1);
        assert_eq!(c.lookup(0x5010, 1), Some(0x9010));
        assert_eq!(c.lookup(0x5ff8, 1), Some(0x9ff8));
        let (h, m) = c.stats();
        assert_eq!((h, m), (2, 0));
    }

    #[test]
    fn walk_cache_invalidated_by_generation_bump() {
        let c = WalkCache::new(16);
        c.insert(0x5000, 0x9000, 1);
        assert!(c.lookup(0x5000, 2).is_none(), "stale generation must miss");
        // Refill under the new generation works.
        c.insert(0x5000, 0xa000, 2);
        assert_eq!(c.lookup(0x5000, 2), Some(0xa000));
    }

    #[test]
    fn walk_cache_tracks_ept_generation_end_to_end() {
        let (mem, ept) = setup();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        ept.map_identity(r, 2).unwrap();
        let c = WalkCache::new(16);
        let gpa = r.start.raw() + 64;
        let t = ept
            .translate(GuestPhysAddr::new(gpa), Access::Read, &DirectLoad(&mem))
            .unwrap();
        c.insert(gpa, t.pa.raw(), ept.generation());
        assert_eq!(c.lookup(gpa, ept.generation()), Some(t.pa.raw()));
        // The reclaim's generation bump kills the cached translation
        // without any explicit invalidation.
        ept.unmap(r).unwrap();
        assert!(c.lookup(gpa, ept.generation()).is_none());
    }

    #[test]
    fn op_counters() {
        let (mem, ept) = setup();
        let r = mem.alloc(ZoneId(0), PAGE_SIZE_4K, PAGE_SIZE_4K).unwrap();
        ept.map_identity(r, 1).unwrap();
        ept.unmap(r).unwrap();
        assert_eq!(ept.op_counts(), (1, 1));
    }
}
