//! 4-level radix page tables stored *inside* simulated physical memory.
//!
//! Both the co-kernel's own x86-64 page tables and the hypervisor's EPT
//! (see [`crate::ept`]) are instances of one generic radix engine,
//! parameterized by an [`EntryFormat`]. Tables live in real [`crate::backing`]
//! memory reached through [`crate::memory::PhysMemory`], so every step of a
//! walk performs an actual dependent load — which is what makes translation
//! overheads *emerge* in the evaluation instead of being constants.
//!
//! Level numbering follows hardware: level 4 is the root (PML4 / EPT PML4),
//! level 1 is the final table (PT). Leaves may appear at level 3 (1 GiB),
//! level 2 (2 MiB) or level 1 (4 KiB).

use crate::addr::{HostPhysAddr, PhysRange, PAGE_SIZE_4K};
use crate::error::{HwError, HwResult};
use crate::memory::PhysMemory;
use parking_lot::Mutex;
use std::sync::Arc;

/// Access kind for permission checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// Permissions attached to a leaf mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Perms {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl Perms {
    /// Read+write+execute — what Covirt installs for every owned region
    /// ("All EPT entries are mapped with full access permissions").
    pub const RWX: Perms = Perms {
        r: true,
        w: true,
        x: true,
    };
    /// Read-only mapping.
    pub const RO: Perms = Perms {
        r: true,
        w: false,
        x: false,
    };
    /// Read+write, no execute.
    pub const RW: Perms = Perms {
        r: true,
        w: true,
        x: false,
    };

    /// Whether these permissions allow `access`.
    #[inline]
    pub fn allows(&self, access: Access) -> bool {
        match access {
            Access::Read => self.r,
            Access::Write => self.w,
            Access::Exec => self.x,
        }
    }
}

/// Encoding of one table-entry format (x86 PTE vs EPT entry).
pub trait EntryFormat {
    /// True if the entry is present/valid at all.
    fn present(entry: u64) -> bool;
    /// True if the entry is a leaf at `level` (large/giant page or level-1 PTE).
    fn leaf(entry: u64, level: u8) -> bool;
    /// Physical address contained in the entry.
    fn frame(entry: u64) -> HostPhysAddr;
    /// Build a non-leaf entry pointing at a child table.
    fn table_entry(child: HostPhysAddr) -> u64;
    /// Build a leaf entry mapping `pa` at `level` with `perms`.
    fn leaf_entry(pa: HostPhysAddr, level: u8, perms: Perms) -> u64;
    /// Whether a leaf entry allows `access`.
    fn entry_allows(entry: u64, access: Access) -> bool;
    /// Permissions recorded in a leaf entry.
    fn entry_perms(entry: u64) -> Perms;
}

/// x86-64 long-mode page-table entries.
pub struct X86Format;

/// x86 PTE bits.
pub mod x86_bits {
    /// Present.
    pub const P: u64 = 1 << 0;
    /// Writable.
    pub const RW: u64 = 1 << 1;
    /// User-accessible.
    pub const US: u64 = 1 << 2;
    /// Page size (large page) — valid at levels 2 and 3.
    pub const PS: u64 = 1 << 7;
    /// No-execute.
    pub const NX: u64 = 1 << 63;
    /// Address mask (bits 12..=51).
    pub const ADDR: u64 = 0x000f_ffff_ffff_f000;
}

impl EntryFormat for X86Format {
    #[inline]
    fn present(entry: u64) -> bool {
        entry & x86_bits::P != 0
    }
    #[inline]
    fn leaf(entry: u64, level: u8) -> bool {
        level == 1 || entry & x86_bits::PS != 0
    }
    #[inline]
    fn frame(entry: u64) -> HostPhysAddr {
        HostPhysAddr::new(entry & x86_bits::ADDR)
    }
    #[inline]
    fn table_entry(child: HostPhysAddr) -> u64 {
        (child.raw() & x86_bits::ADDR) | x86_bits::P | x86_bits::RW | x86_bits::US
    }
    #[inline]
    fn leaf_entry(pa: HostPhysAddr, level: u8, perms: Perms) -> u64 {
        let mut e = (pa.raw() & x86_bits::ADDR) | x86_bits::P | x86_bits::US;
        if perms.w {
            e |= x86_bits::RW;
        }
        if !perms.x {
            e |= x86_bits::NX;
        }
        if level > 1 {
            e |= x86_bits::PS;
        }
        e
    }
    #[inline]
    fn entry_allows(entry: u64, access: Access) -> bool {
        match access {
            Access::Read => true, // present implies readable on x86
            Access::Write => entry & x86_bits::RW != 0,
            Access::Exec => entry & x86_bits::NX == 0,
        }
    }
    #[inline]
    fn entry_perms(entry: u64) -> Perms {
        Perms {
            r: true,
            w: entry & x86_bits::RW != 0,
            x: entry & x86_bits::NX == 0,
        }
    }
}

/// Nested-translation hook for walks. Before the engine loads a table
/// entry it asks the loader to translate the entry's physical address; the
/// direct implementation is the identity, while Covirt's nested loader runs
/// a real EPT walk per entry — so nested walk costs compound exactly as
/// they do on hardware (up to ~24 loads for a 4-level guest walk).
pub trait TableLoad {
    /// Translate the address of a table entry. Returns the (host-)physical
    /// address to read and the number of additional table loads the
    /// translation itself performed.
    fn translate_entry_addr(&self, pa: HostPhysAddr) -> HwResult<(HostPhysAddr, u32)>;

    /// Load a table-entry word that missed the frame-pool fast path. The
    /// default goes straight to physical memory; core-local loaders route
    /// it through a [`crate::memory::RegionCache`] instead.
    #[inline]
    fn load_word(&self, mem: &PhysMemory, pa: HostPhysAddr) -> HwResult<u64> {
        mem.read_u64(pa)
    }
}

/// Plain physical loads (no nested translation).
pub struct DirectLoad<'a>(pub &'a PhysMemory);

impl TableLoad for DirectLoad<'_> {
    #[inline]
    fn translate_entry_addr(&self, pa: HostPhysAddr) -> HwResult<(HostPhysAddr, u32)> {
        Ok((pa, 0))
    }
}

/// [`DirectLoad`] with a per-core region cache: identity nested
/// translation, but entry loads that fall outside the table pool resolve
/// through the cache instead of searching the populate snapshot.
pub struct CachedLoad<'a> {
    /// The physical memory to resolve against.
    pub mem: &'a PhysMemory,
    /// The core-local region cache.
    pub cache: &'a crate::memory::RegionCache,
}

impl TableLoad for CachedLoad<'_> {
    #[inline]
    fn translate_entry_addr(&self, pa: HostPhysAddr) -> HwResult<(HostPhysAddr, u32)> {
        Ok((pa, 0))
    }

    #[inline]
    fn load_word(&self, mem: &PhysMemory, pa: HostPhysAddr) -> HwResult<u64> {
        let (b, off) = self.cache.resolve(mem, pa, 8)?;
        Ok(b.read_u64(off))
    }
}

/// Result of a successful walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Physical base of the containing page.
    pub page_base: HostPhysAddr,
    /// Page size in bytes (4 KiB / 2 MiB / 1 GiB).
    pub page_size: u64,
    /// Physical address of the requested byte.
    pub pa: HostPhysAddr,
    /// Leaf permissions.
    pub perms: Perms,
    /// Number of table loads the walk performed.
    pub loads: u32,
}

/// Page size covered by a leaf at `level`.
#[inline]
pub fn level_page_size(level: u8) -> u64 {
    match level {
        1 => PAGE_SIZE_4K,
        2 => crate::addr::PAGE_SIZE_2M,
        3 => crate::addr::PAGE_SIZE_1G,
        _ => panic!("no page size at level {level}"),
    }
}

/// 9-bit table index of `addr` at `level`.
#[inline]
pub fn level_index(addr: u64, level: u8) -> u64 {
    (addr >> (12 + 9 * (level as u64 - 1))) & 0x1ff
}

/// Bump allocator for table frames carved out of one backed region.
///
/// The pool resolves its region's backing once at construction, so table
/// entry loads during walks are a bounds check plus a word load — the
/// cached-page-table-entry cost regime of real hardware, on which the
/// evaluation's walk-cost ratios depend.
pub struct FramePool {
    mem: Arc<PhysMemory>,
    region: PhysRange,
    next: Mutex<u64>,
    backing: Arc<crate::backing::Backing>,
    backing_off: usize,
}

impl FramePool {
    /// Build a pool over `region`, which must already be populated.
    pub fn new(mem: Arc<PhysMemory>, region: PhysRange) -> Self {
        let (backing, backing_off) = mem
            .resolve(region.start, region.len)
            .expect("frame pool region must be populated");
        FramePool {
            mem,
            region,
            next: Mutex::new(0),
            backing,
            backing_off,
        }
    }

    /// Fast word load from a pool-resident table frame.
    #[inline]
    pub fn load(&self, pa: HostPhysAddr) -> Option<u64> {
        let off = pa.raw().wrapping_sub(self.region.start.raw());
        if off + 8 <= self.region.len {
            Some(self.backing.read_u64(self.backing_off + off as usize))
        } else {
            None
        }
    }

    /// Fast word store into a pool-resident table frame.
    #[inline]
    pub fn store(&self, pa: HostPhysAddr, value: u64) -> bool {
        let off = pa.raw().wrapping_sub(self.region.start.raw());
        if off + 8 <= self.region.len {
            self.backing
                .write_u64(self.backing_off + off as usize, value);
            true
        } else {
            false
        }
    }

    /// Allocate one zeroed 4 KiB table frame.
    pub fn alloc_frame(&self) -> HwResult<HostPhysAddr> {
        let mut next = self.next.lock();
        if *next + PAGE_SIZE_4K > self.region.len {
            return Err(HwError::OutOfMemory {
                zone: self.mem.zone_of(self.region.start).0,
                requested: PAGE_SIZE_4K,
            });
        }
        let frame_off = *next;
        let pa = self.region.start.add(frame_off);
        *next += PAGE_SIZE_4K;
        // Zero through the pool's own pinned backing: frame allocation is a
        // tight loop at boot, and the region was resolved once at
        // construction.
        self.backing
            .zero(self.backing_off + frame_off as usize, PAGE_SIZE_4K as usize);
        Ok(pa)
    }

    /// Bytes remaining in the pool.
    pub fn remaining(&self) -> u64 {
        self.region.len - *self.next.lock()
    }

    /// The physical memory the pool carves frames from.
    pub fn memory(&self) -> &Arc<PhysMemory> {
        &self.mem
    }
}

/// Generic 4-level radix table rooted at a physical frame.
pub struct RadixTable<F: EntryFormat> {
    mem: Arc<PhysMemory>,
    pool: Arc<FramePool>,
    root: HostPhysAddr,
    _fmt: std::marker::PhantomData<F>,
}

impl<F: EntryFormat> RadixTable<F> {
    /// Create an empty table, allocating the root frame from `pool`.
    pub fn new(pool: Arc<FramePool>) -> HwResult<Self> {
        let root = pool.alloc_frame()?;
        Ok(RadixTable {
            mem: Arc::clone(pool.memory()),
            pool,
            root,
            _fmt: std::marker::PhantomData,
        })
    }

    /// Physical address of the root table (CR3 / EPTP analogue).
    pub fn root(&self) -> HostPhysAddr {
        self.root
    }

    fn entry_addr(table: HostPhysAddr, idx: u64) -> HostPhysAddr {
        table.add(idx * 8)
    }

    #[inline]
    fn read_entry(&self, pa: HostPhysAddr) -> HwResult<u64> {
        match self.pool.load(pa) {
            Some(v) => Ok(v),
            None => self.mem.read_u64(pa),
        }
    }

    #[inline]
    fn write_entry(&self, pa: HostPhysAddr, value: u64) -> HwResult<()> {
        if self.pool.store(pa, value) {
            Ok(())
        } else {
            self.mem.write_u64(pa, value)
        }
    }

    /// Map `[va, va+len)` to `[pa, pa+len)` with `perms`, using the largest
    /// page size `<= max_level` that alignment and remaining length allow.
    /// `va`, `pa` and `len` must be 4 KiB aligned.
    pub fn map(
        &self,
        va: u64,
        pa: HostPhysAddr,
        len: u64,
        perms: Perms,
        max_level: u8,
    ) -> HwResult<()> {
        if !va.is_multiple_of(PAGE_SIZE_4K)
            || !pa.raw().is_multiple_of(PAGE_SIZE_4K)
            || !len.is_multiple_of(PAGE_SIZE_4K)
        {
            return Err(HwError::Invalid("map arguments must be 4 KiB aligned"));
        }
        if len == 0 {
            return Ok(());
        }
        let max_level = max_level.clamp(1, 3);
        let mut off = 0u64;
        while off < len {
            let cva = va + off;
            let cpa = pa.raw() + off;
            let remaining = len - off;
            let mut level = max_level;
            while level > 1 {
                let sz = level_page_size(level);
                if cva.is_multiple_of(sz) && cpa.is_multiple_of(sz) && remaining >= sz {
                    break;
                }
                level -= 1;
            }
            self.map_one(cva, HostPhysAddr::new(cpa), level, perms)?;
            off += level_page_size(level);
        }
        Ok(())
    }

    /// Install a single leaf at `level`.
    fn map_one(&self, va: u64, pa: HostPhysAddr, level: u8, perms: Perms) -> HwResult<()> {
        let mut table = self.root;
        let mut cur = 4u8;
        while cur > level {
            let eaddr = Self::entry_addr(table, level_index(va, cur));
            let e = self.read_entry(eaddr)?;
            let child = if F::present(e) {
                if F::leaf(e, cur) {
                    return Err(HwError::Invalid(
                        "mapping collides with an existing larger page",
                    ));
                }
                F::frame(e)
            } else {
                let child = self.pool.alloc_frame()?;
                self.write_entry(eaddr, F::table_entry(child))?;
                child
            };
            table = child;
            cur -= 1;
        }
        let eaddr = Self::entry_addr(table, level_index(va, level));
        self.write_entry(eaddr, F::leaf_entry(pa, level, perms))?;
        Ok(())
    }

    /// Remove the mapping of `[va, va+len)`. Large pages partially covered
    /// by the range are split first (allocating frames from the pool).
    /// Unmapped holes inside the range are permitted and skipped.
    pub fn unmap(&self, va: u64, len: u64) -> HwResult<()> {
        if !va.is_multiple_of(PAGE_SIZE_4K) || !len.is_multiple_of(PAGE_SIZE_4K) {
            return Err(HwError::Invalid("unmap arguments must be 4 KiB aligned"));
        }
        let end = va
            .checked_add(len)
            .ok_or(HwError::Invalid("unmap range wraps the address space"))?;
        self.clear_range(self.root, 4, va, end)
    }

    /// Clear `[lo, hi)` inside the level-`level` table at `table`, visiting
    /// each entry the range touches exactly once (the `zap_pte_range`
    /// shape): holes are skipped, table entries descended into, fully
    /// covered leaves cleared, and partially covered large leaves split
    /// into the next level down before the walk recurses into them. Every
    /// clear is a single entry store, so concurrent walkers see each entry
    /// either intact or gone.
    fn clear_range(&self, table: HostPhysAddr, level: u8, lo: u64, hi: u64) -> HwResult<()> {
        if level == 1 {
            // Zeroing a not-present entry is a no-op: store without loading.
            for i in level_index(lo, 1)..=level_index(hi - 1, 1) {
                self.write_entry(Self::entry_addr(table, i), 0)?;
            }
            return Ok(());
        }
        let span = 1u64 << (12 + 9 * (level as u64 - 1));
        let mut cur = lo;
        while cur < hi {
            let base = cur & !(span - 1);
            let end = base + span.min(hi - base);
            let eaddr = Self::entry_addr(table, level_index(cur, level));
            let e = self.read_entry(eaddr)?;
            if !F::present(e) {
                // Hole: nothing to clear under this entry.
            } else if !F::leaf(e, level) {
                self.clear_range(F::frame(e), level - 1, cur, end)?;
            } else if end - cur == span {
                self.write_entry(eaddr, 0)?;
            } else {
                // Partially covered large page: split into the next level.
                let child = self.pool.alloc_frame()?;
                let child_size = level_page_size(level - 1);
                let base_pa = F::frame(e).raw();
                let perms = F::entry_perms(e);
                for i in 0..512u64 {
                    let ce = F::leaf_entry(
                        HostPhysAddr::new(base_pa + i * child_size),
                        level - 1,
                        perms,
                    );
                    self.write_entry(Self::entry_addr(child, i), ce)?;
                }
                self.write_entry(eaddr, F::table_entry(child))?;
                self.clear_range(child, level - 1, cur, end)?;
            }
            cur = end;
        }
        Ok(())
    }

    /// Walk the table for `va`. Each entry address is first translated
    /// through `loader` (identity natively, a nested EPT walk under
    /// Covirt), then the entry is loaded via the pool fast path.
    pub fn walk<L: TableLoad>(&self, va: u64, loader: &L) -> HwResult<Translation> {
        let mut table = self.root;
        let mut level = 4u8;
        let mut loads = 0u32;
        loop {
            let eaddr = Self::entry_addr(table, level_index(va, level));
            let (taddr, extra) = loader.translate_entry_addr(eaddr)?;
            // Pool fast path first; off-pool entries go through the loader,
            // which may hold a core-local region cache.
            let e = match self.pool.load(taddr) {
                Some(v) => v,
                None => loader.load_word(&self.mem, taddr)?,
            };
            loads += extra + 1;
            if !F::present(e) {
                return Err(HwError::PageNotPresent {
                    gva: crate::addr::GuestVirtAddr::new(va),
                    level,
                });
            }
            if level > 1 && !F::leaf(e, level) {
                table = F::frame(e);
                level -= 1;
                continue;
            }
            let page_size = level_page_size(level);
            let page_base = F::frame(e);
            return Ok(Translation {
                page_base,
                page_size,
                pa: page_base.add(va % page_size),
                perms: F::entry_perms(e),
                loads,
            });
        }
    }

    /// Count leaves per level: `(count_4k, count_2m, count_1g)`.
    pub fn leaf_counts(&self) -> HwResult<(u64, u64, u64)> {
        let mut counts = (0u64, 0u64, 0u64);
        self.count_rec(self.root, 4, &mut counts)?;
        Ok(counts)
    }

    fn count_rec(
        &self,
        table: HostPhysAddr,
        level: u8,
        counts: &mut (u64, u64, u64),
    ) -> HwResult<()> {
        for i in 0..512u64 {
            let e = self.read_entry(Self::entry_addr(table, i))?;
            if !F::present(e) {
                continue;
            }
            if F::leaf(e, level) {
                match level {
                    1 => counts.0 += 1,
                    2 => counts.1 += 1,
                    3 => counts.2 += 1,
                    _ => return Err(HwError::Invalid("leaf at level 4")),
                }
            } else if level > 1 {
                self.count_rec(F::frame(e), level - 1, counts)?;
            }
        }
        Ok(())
    }
}

/// Guest (co-kernel) page tables in x86-64 format.
pub type GuestPageTables = RadixTable<X86Format>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PAGE_SIZE_1G, PAGE_SIZE_2M};
    use crate::topology::ZoneId;

    fn setup() -> (Arc<PhysMemory>, Arc<FramePool>) {
        let mem = Arc::new(PhysMemory::new(&[256 * 1024 * 1024]));
        let pool_region = mem
            .alloc_backed(ZoneId(0), 8 * 1024 * 1024, PAGE_SIZE_4K)
            .unwrap();
        let pool = Arc::new(FramePool::new(Arc::clone(&mem), pool_region));
        (mem, pool)
    }

    #[test]
    fn identity_map_walk_4k() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let data = mem
            .alloc_backed(ZoneId(0), 16 * 4096, PAGE_SIZE_4K)
            .unwrap();
        pt.map(data.start.raw(), data.start, data.len, Perms::RWX, 1)
            .unwrap();
        let t = pt.walk(data.start.raw() + 5000, &DirectLoad(&mem)).unwrap();
        assert_eq!(t.page_size, PAGE_SIZE_4K);
        assert_eq!(t.pa.raw(), data.start.raw() + 5000);
        assert_eq!(t.loads, 4);
    }

    #[test]
    fn large_pages_chosen_when_aligned() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let region = mem
            .alloc(ZoneId(0), 4 * PAGE_SIZE_2M, PAGE_SIZE_2M)
            .unwrap();
        pt.map(region.start.raw(), region.start, region.len, Perms::RWX, 3)
            .unwrap();
        let (c4k, c2m, c1g) = pt.leaf_counts().unwrap();
        assert_eq!((c4k, c2m, c1g), (0, 4, 0));
        let t = pt
            .walk(region.start.raw() + PAGE_SIZE_2M + 123, &DirectLoad(&mem))
            .unwrap();
        assert_eq!(t.page_size, PAGE_SIZE_2M);
        assert_eq!(t.loads, 3);
    }

    #[test]
    fn unaligned_tail_uses_smaller_pages() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let region = mem
            .alloc(ZoneId(0), PAGE_SIZE_2M + 3 * PAGE_SIZE_4K, PAGE_SIZE_2M)
            .unwrap();
        pt.map(region.start.raw(), region.start, region.len, Perms::RWX, 3)
            .unwrap();
        let (c4k, c2m, _) = pt.leaf_counts().unwrap();
        assert_eq!(c2m, 1);
        assert_eq!(c4k, 3);
    }

    #[test]
    fn walk_not_present_fails() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let err = pt.walk(0xdead_0000, &DirectLoad(&mem)).unwrap_err();
        assert!(matches!(err, HwError::PageNotPresent { .. }));
    }

    #[test]
    fn unmap_then_walk_fails() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let data = mem.alloc_backed(ZoneId(0), 4 * 4096, PAGE_SIZE_4K).unwrap();
        pt.map(data.start.raw(), data.start, data.len, Perms::RWX, 1)
            .unwrap();
        pt.unmap(data.start.raw(), data.len).unwrap();
        assert!(pt.walk(data.start.raw(), &DirectLoad(&mem)).is_err());
    }

    #[test]
    fn partial_unmap_splits_large_page() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let region = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        pt.map(region.start.raw(), region.start, region.len, Perms::RWX, 2)
            .unwrap();
        // Unmap one 4 KiB page in the middle.
        let hole = region.start.raw() + 17 * PAGE_SIZE_4K;
        pt.unmap(hole, PAGE_SIZE_4K).unwrap();
        let mem_loader = DirectLoad(&mem);
        assert!(pt.walk(hole, &mem_loader).is_err());
        // Neighbours still mapped, now via 4 KiB leaves.
        let t = pt.walk(hole - PAGE_SIZE_4K, &mem_loader).unwrap();
        assert_eq!(t.page_size, PAGE_SIZE_4K);
        assert_eq!(t.pa.raw(), hole - PAGE_SIZE_4K);
        let (c4k, c2m, _) = pt.leaf_counts().unwrap();
        assert_eq!(c2m, 0);
        assert_eq!(c4k, 511);
    }

    #[test]
    fn unmap_splits_both_ends_across_giant_boundary() {
        let mem = Arc::new(PhysMemory::new(&[4 * 1024 * 1024 * 1024]));
        let pool_region = mem
            .alloc_backed(ZoneId(0), 4 * 1024 * 1024, PAGE_SIZE_4K)
            .unwrap();
        let pool = Arc::new(FramePool::new(Arc::clone(&mem), pool_region));
        let pt = GuestPageTables::new(Arc::clone(&pool)).unwrap();
        // Two 2 MiB leaves on either side of the 1 GiB boundary `g`, with
        // an unmapped 4 MiB hole between them.
        let g = 2 * PAGE_SIZE_1G;
        let lo_leaf = g - 2 * PAGE_SIZE_2M;
        let hi_leaf = g + PAGE_SIZE_2M;
        for va in [lo_leaf, hi_leaf] {
            pt.map(va, HostPhysAddr::new(va), PAGE_SIZE_2M, Perms::RW, 2)
                .unwrap();
        }
        // Start inside the low leaf, cross the hole, end inside the high one.
        let (start, end) = (lo_leaf + PAGE_SIZE_2M / 2, hi_leaf + PAGE_SIZE_2M / 2);
        let before = pool.remaining();
        pt.unmap(start, end - start).unwrap();
        assert_eq!(
            before - pool.remaining(),
            2 * PAGE_SIZE_4K,
            "one split per end"
        );

        let loader = DirectLoad(&mem);
        for va in (lo_leaf..hi_leaf + PAGE_SIZE_2M).step_by(PAGE_SIZE_4K as usize) {
            match pt.walk(va, &loader) {
                Ok(t) => {
                    assert!(va < start || va >= end, "{va:#x} still mapped");
                    assert_eq!(t.page_size, PAGE_SIZE_4K);
                    assert_eq!(t.pa.raw(), va);
                    assert_eq!(t.perms, Perms::RW);
                }
                Err(_) => assert!((start..end).contains(&va), "{va:#x} lost"),
            }
        }
        assert_eq!(pt.leaf_counts().unwrap(), (512, 0, 0));
    }

    #[test]
    fn unmap_hole_is_tolerated() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let data = mem.alloc(ZoneId(0), 4 * 4096, PAGE_SIZE_4K).unwrap();
        pt.map(data.start.raw(), data.start, 4096, Perms::RWX, 1)
            .unwrap();
        // Range covers pages that were never mapped.
        pt.unmap(data.start.raw(), data.len).unwrap();
        assert!(pt.walk(data.start.raw(), &DirectLoad(&mem)).is_err());
    }

    #[test]
    fn perms_recorded() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let data = mem.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        pt.map(data.start.raw(), data.start, 4096, Perms::RO, 1)
            .unwrap();
        let t = pt.walk(data.start.raw(), &DirectLoad(&mem)).unwrap();
        assert!(t.perms.r && !t.perms.w && !t.perms.x);
    }

    #[test]
    fn giant_page_mapping() {
        let mem = Arc::new(PhysMemory::new(&[4 * 1024 * 1024 * 1024]));
        let pool_region = mem
            .alloc_backed(ZoneId(0), 4 * 1024 * 1024, PAGE_SIZE_4K)
            .unwrap();
        let pool = Arc::new(FramePool::new(Arc::clone(&mem), pool_region));
        let pt = GuestPageTables::new(pool).unwrap();
        let region = mem.alloc(ZoneId(0), PAGE_SIZE_1G, PAGE_SIZE_1G).unwrap();
        pt.map(region.start.raw(), region.start, region.len, Perms::RWX, 3)
            .unwrap();
        let (_, _, c1g) = pt.leaf_counts().unwrap();
        assert_eq!(c1g, 1);
        let t = pt
            .walk(region.start.raw() + 12345, &DirectLoad(&mem))
            .unwrap();
        assert_eq!(t.page_size, PAGE_SIZE_1G);
        assert_eq!(t.loads, 2);
    }

    #[test]
    fn map_collision_with_larger_page_rejected() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let region = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        pt.map(
            region.start.raw(),
            region.start,
            PAGE_SIZE_2M,
            Perms::RWX,
            2,
        )
        .unwrap();
        let err = pt
            .map(
                region.start.raw() + PAGE_SIZE_4K,
                region.start,
                PAGE_SIZE_4K,
                Perms::RWX,
                1,
            )
            .unwrap_err();
        assert!(matches!(err, HwError::Invalid(_)));
        let _ = mem;
    }
}
