//! Host-memory backing for populated physical regions.
//!
//! Simulated "physical memory" that is actually touched (kernel images, page
//! tables, boot parameter structures, workload arrays, shared segments) is
//! backed by real host memory. A [`Backing`] behaves like RAM: multiple
//! simulated cores may read and write it concurrently, and — exactly as on
//! real hardware — racing unsynchronized accesses yield unspecified *values*
//! but never corrupt the simulator itself (accesses are always whole aligned
//! machine words or byte copies into freshly owned buffers).
//!
//! Every backing is its own anonymous private host mapping. The host kernel
//! zero-fills each page on first touch (demand-zero, as Linux does for any
//! fresh anonymous memory), so a backing starts all-zero without the
//! simulator ever writing the zeros: populating a 2 MiB grant costs one
//! `mmap` call, not a 2 MiB memset, and untouched pages cost nothing.
//!
//! A backing longer than one 2 MiB page is mapped 2 MiB-aligned and advised
//! `MADV_HUGEPAGE`, so the host can back it with transparent huge pages the
//! way Kitten maps its partition with large pages: one first-touch fault
//! and one host TLB entry per 2 MiB instead of 512. Backings of one 2 MiB
//! page or less (single grants, rings, page-table pools) stay plain 4 KiB
//! mappings, which keeps their map and unmap cheap. A host that refuses the
//! advice (THP disabled, no THP support) still gets a working mapping, made
//! of 4 KiB pages.

use crate::addr::PAGE_SIZE_2M;
use std::ffi::{c_int, c_long, c_void};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

// `std` already links the platform C library; these are its POSIX calls.
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: c_long,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    #[cfg(target_os = "linux")]
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_PRIVATE: c_int = 0x02;
#[cfg(target_os = "linux")]
const MAP_ANONYMOUS: c_int = 0x20;
#[cfg(not(target_os = "linux"))]
const MAP_ANONYMOUS: c_int = 0x1000;
#[cfg(target_os = "linux")]
const MADV_HUGEPAGE: c_int = 14;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// Granule a plain mapping's length is rounded up to (the 4 KiB base page).
const MAP_GRANULE: usize = 4096;

/// The host huge page: alignment and length granule of huge-page backings.
const HUGE_PAGE: usize = PAGE_SIZE_2M as usize;

/// A contiguous, zero-initialized block of host memory standing in for a
/// populated physical region.
///
/// # Safety model
///
/// The block is raw shared memory. All access goes through the methods
/// below, which only ever perform aligned word loads/stores (via
/// [`AtomicU64`] with relaxed ordering, matching the coherence guarantees of
/// real DRAM) or `ptr::copy_nonoverlapping` into/out of caller-owned
/// buffers. No Rust references to the interior are ever created, so no
/// aliasing rules can be violated regardless of what the simulated software
/// does.
pub struct Backing {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: `Backing` is a bag of bytes accessed only through raw-pointer
// word/byte operations; it has the same thread-safety characteristics as
// `&[AtomicU64]`.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

impl Backing {
    /// Map `len` bytes of zeroed backing. `len` is rounded up to an 8-byte
    /// multiple so word access never straddles the end. The host mapping
    /// spans whole 4 KiB pages, or whole 2 MiB-aligned huge pages when `len`
    /// exceeds one huge page. Fails when the host refuses the mapping (for
    /// example a request beyond what the host will commit).
    pub fn new(len: usize) -> io::Result<Self> {
        let len = len.div_ceil(8) * 8;
        assert!(len > 0, "zero-length backing");
        let map_len = Self::map_len(len);
        let ptr = if Self::huge(len) {
            map_huge(map_len)?
        } else {
            map_anon(map_len)?
        };
        Ok(Backing { ptr, len })
    }

    /// Whether a backing of (word-rounded) `len` bytes takes the huge-page
    /// path: it must span more than one huge page.
    #[inline]
    fn huge(len: usize) -> bool {
        len > HUGE_PAGE
    }

    #[inline]
    fn map_len(len: usize) -> usize {
        if Self::huge(len) {
            len.next_multiple_of(HUGE_PAGE)
        } else {
            len.next_multiple_of(MAP_GRANULE)
        }
    }

    /// Length in bytes (rounded up to a word multiple).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the backing has no capacity (never the case after `new`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw pointer to the byte at `offset`.
    ///
    /// The pointer remains valid for the lifetime of the `Backing`. Callers
    /// must perform bounds checking before dereferencing past `offset`.
    #[inline]
    pub fn ptr_at(&self, offset: usize) -> *mut u8 {
        debug_assert!(
            offset < self.len,
            "offset {offset} out of backing of len {}",
            self.len
        );
        // SAFETY: offset is within the allocation (debug-asserted; release
        // callers bounds-check via `PhysMemory::resolve`).
        unsafe { self.ptr.add(offset) }
    }

    #[inline]
    fn word(&self, offset: usize) -> &AtomicU64 {
        assert!(
            offset + 8 <= self.len,
            "word access at {offset} out of bounds ({})",
            self.len
        );
        assert!(
            offset.is_multiple_of(8),
            "unaligned word access at {offset}"
        );
        // SAFETY: in-bounds, aligned; AtomicU64 has no validity invariants
        // beyond alignment and the memory is always initialized (kernel-
        // zeroed on first touch).
        unsafe { &*(self.ptr.add(offset) as *const AtomicU64) }
    }

    /// Aligned 64-bit load (relaxed — models coherent DRAM).
    #[inline]
    pub fn read_u64(&self, offset: usize) -> u64 {
        self.word(offset).load(Ordering::Relaxed)
    }

    /// Aligned 64-bit store (relaxed — models coherent DRAM).
    #[inline]
    pub fn write_u64(&self, offset: usize, value: u64) {
        self.word(offset).store(value, Ordering::Relaxed);
    }

    /// Aligned 64-bit load with acquire ordering — pairs with
    /// [`Backing::write_u64_release`] for message-passing protocols built in
    /// shared memory (rings, command queues).
    #[inline]
    pub fn read_u64_acquire(&self, offset: usize) -> u64 {
        self.word(offset).load(Ordering::Acquire)
    }

    /// Aligned 64-bit store with release ordering — publishes everything
    /// written to the backing before it.
    #[inline]
    pub fn write_u64_release(&self, offset: usize, value: u64) {
        self.word(offset).store(value, Ordering::Release);
    }

    /// Aligned 64-bit compare-exchange, for simulated software that needs
    /// atomic RMW on shared memory (e.g. command-queue producer/consumer
    /// indices).
    #[inline]
    pub fn cas_u64(&self, offset: usize, current: u64, new: u64) -> Result<u64, u64> {
        self.word(offset)
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Copy bytes out of the backing into `buf`.
    pub fn read_bytes(&self, offset: usize, buf: &mut [u8]) {
        assert!(offset + buf.len() <= self.len, "read_bytes out of bounds");
        // SAFETY: source range is in-bounds; destination is caller-owned and
        // non-overlapping with the backing.
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.add(offset), buf.as_mut_ptr(), buf.len()) }
    }

    /// Copy bytes from `buf` into the backing.
    pub fn write_bytes(&self, offset: usize, buf: &[u8]) {
        assert!(offset + buf.len() <= self.len, "write_bytes out of bounds");
        // SAFETY: destination range is in-bounds; source is caller-owned and
        // non-overlapping with the backing.
        unsafe { std::ptr::copy_nonoverlapping(buf.as_ptr(), self.ptr.add(offset), buf.len()) }
    }

    /// Zero a byte range.
    pub fn zero(&self, offset: usize, len: usize) {
        assert!(offset + len <= self.len, "zero out of bounds");
        // SAFETY: range is in-bounds.
        unsafe { std::ptr::write_bytes(self.ptr.add(offset), 0, len) }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        // SAFETY: `ptr` is the mapping `new` left in place, of exactly this
        // length (the huge path already unmapped its head and tail), and no
        // pointer into it outlives `self`. `munmap` fails only on arguments
        // no `Backing` can hold, so its result is not checked.
        unsafe { munmap(self.ptr.cast(), Self::map_len(self.len)) };
    }
}

/// One anonymous private read-write mapping of `len` bytes.
fn map_anon(len: usize) -> io::Result<*mut u8> {
    // SAFETY: a fresh anonymous private mapping aliases nothing; the
    // arguments request exactly that and the result is checked below.
    let ptr = unsafe {
        mmap(
            std::ptr::null_mut(),
            len,
            PROT_READ | PROT_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    if ptr == MAP_FAILED {
        Err(io::Error::last_os_error())
    } else {
        Ok(ptr.cast())
    }
}

/// A 2 MiB-aligned anonymous mapping of `len` bytes (a huge-page multiple),
/// advised `MADV_HUGEPAGE`. The alignment holds on any kernel: the span
/// mapped is `len` plus one huge page less one base page, which always
/// contains an aligned run of `len` bytes, and the unaligned head and tail
/// around that run are unmapped again.
fn map_huge(len: usize) -> io::Result<*mut u8> {
    let span = len + HUGE_PAGE - MAP_GRANULE;
    let raw = map_anon(span)?;
    let head = (raw as usize).next_multiple_of(HUGE_PAGE) - raw as usize;
    let tail = span - head - len;
    // SAFETY: head and tail are the parts of the fresh `span`-byte mapping
    // outside `[raw + head, raw + head + len)`; nothing points into them.
    unsafe {
        if head > 0 {
            munmap(raw.cast(), head);
        }
        if tail > 0 {
            munmap(raw.add(head + len).cast(), tail);
        }
    }
    // SAFETY: `raw + head` stays within the mapping just created.
    let ptr = unsafe { raw.add(head) };
    // Advice only: a refusal (THP disabled, no THP support) leaves a
    // working mapping of 4 KiB pages, so the result is ignored.
    #[cfg(target_os = "linux")]
    // SAFETY: the range is exactly the mapping kept above.
    unsafe {
        madvise(ptr.cast(), len, MADV_HUGEPAGE);
    }
    Ok(ptr)
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Backing({} bytes @ {:p})", self.len, self.ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The address span of a `/proc/self/{maps,smaps}` mapping header line
    /// (`None` for smaps field lines).
    #[cfg(target_os = "linux")]
    fn span(line: &str) -> Option<(usize, usize)> {
        let (lo, hi) = line.split_whitespace().next()?.split_once('-')?;
        Some((
            usize::from_str_radix(lo, 16).ok()?,
            usize::from_str_radix(hi, 16).ok()?,
        ))
    }

    /// Whether the host mapping holding `addr` carries the huge-page advice
    /// (`hg` among its `VmFlags` in `/proc/self/smaps`).
    #[cfg(target_os = "linux")]
    fn advised_huge(addr: usize) -> bool {
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let mut inside = false;
        for line in smaps.lines() {
            if let Some(flags) = line.strip_prefix("VmFlags:") {
                if inside {
                    return flags.split_whitespace().any(|f| f == "hg");
                }
            } else if let Some((lo, hi)) = span(line) {
                inside = (lo..hi).contains(&addr);
            }
        }
        panic!("no mapping holds {addr:#x}");
    }

    #[test]
    fn multi_huge_page_backing_is_aligned_and_zeroed() {
        let len = 3 * HUGE_PAGE + 8;
        let b = Backing::new(len).unwrap();
        assert!(Backing::huge(b.len()));
        let base = b.ptr_at(0) as usize;
        assert_eq!(base % HUGE_PAGE, 0, "huge backing base {base:#x}");
        for off in (0..len).step_by(8) {
            assert_eq!(b.read_u64(off), 0, "word {off:#x}");
        }
        b.write_u64(len - 8, 0x1234_5678_9abc_def0);
        assert_eq!(b.read_u64(len - 8), 0x1234_5678_9abc_def0);
        // Kernels built without THP reject the advice; the mapping works.
        #[cfg(target_os = "linux")]
        if std::path::Path::new("/sys/kernel/mm/transparent_hugepage").exists() {
            assert!(advised_huge(base) && advised_huge(b.ptr_at(len - 1) as usize));
        }
    }

    #[test]
    fn single_huge_page_and_smaller_backings_stay_plain() {
        for len in [HUGE_PAGE, MAP_GRANULE] {
            let b = Backing::new(len).unwrap();
            assert!(!Backing::huge(b.len()), "{len}-byte backing");
            assert_eq!(Backing::map_len(b.len()), len);
            #[cfg(target_os = "linux")]
            assert!(!advised_huge(b.ptr_at(0) as usize), "{len}-byte backing");
        }
    }

    /// Mapping and dropping many backings of both kinds leaves the process's
    /// host mappings as they were: a leaked head or tail, or an unmap of the
    /// wrong length, would leave mappings behind. The count is taken in a
    /// child test process, where no concurrently running test maps memory.
    #[cfg(target_os = "linux")]
    #[test]
    fn map_and_drop_leaves_host_mappings_unchanged() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "backing::tests::map_drop_churn",
                "--ignored",
                "--test-threads=1",
            ])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "child run failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    #[ignore = "run alone in a child process by map_and_drop_leaves_host_mappings_unchanged"]
    fn map_drop_churn() {
        use std::io::Read;
        // One buffer reused for every read, so reading the table does not
        // grow the heap between the two counts.
        let mut buf = String::with_capacity(1 << 20);
        let table = |buf: &mut String| {
            buf.clear();
            std::fs::File::open("/proc/self/maps")
                .unwrap()
                .read_to_string(buf)
                .unwrap();
            let bytes: usize = buf.lines().filter_map(span).map(|(lo, hi)| hi - lo).sum();
            (buf.lines().count(), bytes)
        };
        let churn = || {
            let huge = Backing::new(3 * HUGE_PAGE + 8).unwrap();
            let plain = Backing::new(HUGE_PAGE).unwrap();
            let small = Backing::new(MAP_GRANULE).unwrap();
            drop((huge, plain, small));
        };
        // The first read sizes the buffer; the count starts before the first
        // backing, since a leak can be a one-off that later mappings fill.
        table(&mut buf);
        let before = table(&mut buf);
        for _ in 0..1000 {
            churn();
        }
        assert_eq!(table(&mut buf), before, "(mapping lines, mapped bytes)");
    }

    #[test]
    fn zeroed_on_alloc() {
        let b = Backing::new(4096).unwrap();
        for off in (0..4096).step_by(8) {
            assert_eq!(b.read_u64(off), 0);
        }
    }

    #[test]
    fn word_roundtrip() {
        let b = Backing::new(64).unwrap();
        b.write_u64(8, 0xdead_beef_cafe_f00d);
        assert_eq!(b.read_u64(8), 0xdead_beef_cafe_f00d);
        assert_eq!(b.read_u64(0), 0);
        assert_eq!(b.read_u64(16), 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let b = Backing::new(128).unwrap();
        let src = [1u8, 2, 3, 4, 5];
        b.write_bytes(17, &src);
        let mut dst = [0u8; 5];
        b.read_bytes(17, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn zero_range() {
        let b = Backing::new(64).unwrap();
        b.write_u64(0, u64::MAX);
        b.write_u64(8, u64::MAX);
        b.zero(0, 8);
        assert_eq!(b.read_u64(0), 0);
        assert_eq!(b.read_u64(8), u64::MAX);
    }

    #[test]
    fn rounds_len_to_word() {
        let b = Backing::new(5).unwrap();
        assert_eq!(b.len(), 8);
        b.write_u64(0, 42);
        assert_eq!(b.read_u64(0), 42);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_word_panics() {
        let b = Backing::new(8).unwrap();
        b.read_u64(8);
    }

    #[test]
    fn cas_semantics() {
        let b = Backing::new(8).unwrap();
        assert_eq!(b.cas_u64(0, 0, 7), Ok(0));
        assert_eq!(b.cas_u64(0, 0, 9), Err(7));
        assert_eq!(b.read_u64(0), 7);
    }

    #[test]
    fn concurrent_counter() {
        let b = Arc::new(Backing::new(8).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        loop {
                            let cur = b.read_u64(0);
                            if b.cas_u64(0, cur, cur + 1).is_ok() {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(b.read_u64(0), 4000);
    }
}
