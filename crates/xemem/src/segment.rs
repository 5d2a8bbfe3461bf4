//! Segments: named, exported memory ranges.

use covirt_simhw::addr::{PhysRange, PAGE_SIZE_4K};
use std::fmt;

/// Globally unique segment identifier (XPMEM segid).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SegmentId(pub u64);

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{:#x}", self.0)
    }
}

/// Description of an exported segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The segment id.
    pub segid: SegmentId,
    /// Well-known name registered with the name service.
    pub name: String,
    /// Exporting enclave (`0` = the host OS/R).
    pub owner: u64,
    /// The physical range backing the segment.
    pub range: PhysRange,
}

impl SegmentInfo {
    /// The page-frame list transmitted to an attaching enclave — 4 KiB
    /// frame base addresses, exactly what Pisces/Hobbes sends across the
    /// control path.
    pub fn page_frame_list(&self) -> Vec<u64> {
        let start = self.range.start.align_down(PAGE_SIZE_4K).raw();
        match self.range.end().checked_align_up(PAGE_SIZE_4K) {
            Some(end) => (start..end.raw()).step_by(PAGE_SIZE_4K as usize).collect(),
            None => {
                // The range reaches into the top page of the address
                // space: the rounded-up end (2^64) is unrepresentable, so
                // count frames instead of iterating to a boundary.
                let pages = (self.range.end().raw() - start).div_ceil(PAGE_SIZE_4K);
                (0..pages).map(|i| start + i * PAGE_SIZE_4K).collect()
            }
        }
    }

    /// Number of 4 KiB pages in the segment.
    pub fn page_count(&self) -> u64 {
        self.page_frame_list().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::addr::HostPhysAddr;

    #[test]
    fn page_frame_list_covers_range() {
        let s = SegmentInfo {
            segid: SegmentId(1),
            name: "buf".into(),
            owner: 1,
            range: PhysRange::new(HostPhysAddr::new(0x10_0000), 3 * PAGE_SIZE_4K),
        };
        let frames = s.page_frame_list();
        assert_eq!(frames, vec![0x10_0000, 0x10_1000, 0x10_2000]);
        assert_eq!(s.page_count(), 3);
    }

    #[test]
    fn unaligned_range_rounds_out() {
        let s = SegmentInfo {
            segid: SegmentId(2),
            name: "odd".into(),
            owner: 1,
            range: PhysRange::new(HostPhysAddr::new(0x10_0800), 0x1000),
        };
        // Straddles two pages.
        assert_eq!(s.page_count(), 2);
    }

    /// Regression: a segment reaching into the top page of the address
    /// space used to lose that page — `align_up` saturated and rounded
    /// the end *down* past the segment's last byte.
    #[test]
    fn page_frame_list_at_top_of_address_space() {
        let top_page = !(PAGE_SIZE_4K - 1);
        let s = SegmentInfo {
            segid: SegmentId(3),
            name: "top".into(),
            owner: 1,
            // Ends at u64::MAX: covers the last full page and all of the
            // top partial page.
            range: PhysRange::new(
                HostPhysAddr::new(top_page - PAGE_SIZE_4K),
                2 * PAGE_SIZE_4K - 1,
            ),
        };
        assert_eq!(s.page_frame_list(), vec![top_page - PAGE_SIZE_4K, top_page]);
        assert_eq!(s.page_count(), 2);
    }
}
