//! Enclave resource partitions: cores, memory regions, IPI vectors.

use covirt_simhw::addr::PhysRange;
use covirt_simhw::topology::{CoreId, ZoneId};

/// What an enclave is *assigned* (requested at creation, then dynamically
/// grown/shrunk). This is the co-operative partition Pisces maintains; the
/// point of Covirt is that nothing in *hardware* enforces it until the
/// hypervisor is interposed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceSpec {
    /// Cores assigned to the enclave.
    pub cores: Vec<CoreId>,
    /// Memory regions assigned, identity-visible to the co-kernel.
    pub mem: Vec<PhysRange>,
    /// Per-core IPI vectors allocated to the enclave (Hobbes treats these
    /// as a globally allocatable resource).
    pub ipi_vectors: Vec<u8>,
}

impl ResourceSpec {
    /// Empty partition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total assigned memory in bytes.
    pub fn mem_bytes(&self) -> u64 {
        self.mem.iter().map(|r| r.len).sum()
    }

    /// True if `range` is fully covered by (a single one of) the assigned
    /// regions.
    pub fn covers(&self, range: &PhysRange) -> bool {
        self.mem.iter().any(|r| r.covers(range))
    }

    /// True if the core belongs to the partition.
    pub fn has_core(&self, core: CoreId) -> bool {
        self.cores.contains(&core)
    }

    /// True if the vector is allocated to the partition.
    pub fn has_vector(&self, vector: u8) -> bool {
        self.ipi_vectors.contains(&vector)
    }

    /// Add a memory region (must not overlap existing assignment).
    pub fn add_mem(&mut self, range: PhysRange) -> Result<(), &'static str> {
        if self.mem.iter().any(|r| r.overlaps(&range)) {
            return Err("region overlaps existing assignment");
        }
        self.mem.push(range);
        self.mem.sort_by_key(|r| r.start.raw());
        Ok(())
    }

    /// Remove a memory region (exact match).
    pub fn remove_mem(&mut self, range: PhysRange) -> Result<(), &'static str> {
        match self.mem.iter().position(|r| *r == range) {
            Some(i) => {
                self.mem.remove(i);
                Ok(())
            }
            None => Err("region not assigned"),
        }
    }
}

/// A request for enclave resources, resolved against the node by the host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourceRequest {
    /// Explicit cores to take.
    pub cores: Vec<CoreId>,
    /// Memory to allocate per zone: `(zone, bytes)`.
    pub mem_per_zone: Vec<(ZoneId, u64)>,
    /// Number of IPI vectors to allocate.
    pub num_ipi_vectors: usize,
}

impl ResourceRequest {
    /// Request `cores` plus `bytes_per_zone` in each of `zones`, and a
    /// default of 4 IPI vectors.
    pub fn new(cores: Vec<CoreId>, mem_per_zone: Vec<(ZoneId, u64)>) -> Self {
        ResourceRequest {
            cores,
            mem_per_zone,
            num_ipi_vectors: 4,
        }
    }

    /// The paper's enclave shape: `layout` cores and `total_mem` split
    /// evenly across the layout's zones.
    pub fn from_layout(
        layout: covirt_simhw::topology::HwLayout,
        topo: &covirt_simhw::topology::Topology,
        total_mem: u64,
    ) -> Self {
        let cores = layout.pick_cores(topo);
        let zones = layout.pick_zones();
        let per = total_mem / zones.len() as u64;
        let mem = zones.into_iter().map(|z| (z, per)).collect();
        ResourceRequest::new(cores, mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::addr::HostPhysAddr;
    use covirt_simhw::topology::{HwLayout, Topology};

    fn r(start: u64, len: u64) -> PhysRange {
        PhysRange::new(HostPhysAddr::new(start), len)
    }

    #[test]
    fn add_remove_mem() {
        let mut s = ResourceSpec::new();
        s.add_mem(r(0x1000, 0x1000)).unwrap();
        s.add_mem(r(0x4000, 0x2000)).unwrap();
        assert_eq!(s.mem_bytes(), 0x3000);
        assert!(
            s.add_mem(r(0x4800, 0x100)).is_err(),
            "overlap must be rejected"
        );
        s.remove_mem(r(0x1000, 0x1000)).unwrap();
        assert!(s.remove_mem(r(0x1000, 0x1000)).is_err());
        assert_eq!(s.mem_bytes(), 0x2000);
    }

    #[test]
    fn covers_checks_single_region() {
        let mut s = ResourceSpec::new();
        s.add_mem(r(0x1000, 0x1000)).unwrap();
        assert!(s.covers(&r(0x1800, 0x100)));
        assert!(
            !s.covers(&r(0x1800, 0x1000)),
            "straddling the end is not covered"
        );
    }

    #[test]
    fn vector_and_core_membership() {
        let s = ResourceSpec {
            cores: vec![CoreId(2), CoreId(3)],
            mem: vec![],
            ipi_vectors: vec![0x40, 0x41],
        };
        assert!(s.has_core(CoreId(2)));
        assert!(!s.has_core(CoreId(0)));
        assert!(s.has_vector(0x41));
        assert!(!s.has_vector(0x42));
    }

    #[test]
    fn request_from_layout_splits_memory() {
        let topo = Topology::paper_testbed();
        let req = ResourceRequest::from_layout(HwLayout { cores: 8, zones: 2 }, &topo, 14 << 30);
        assert_eq!(req.cores.len(), 8);
        assert_eq!(req.mem_per_zone.len(), 2);
        assert_eq!(req.mem_per_zone[0].1, 7 << 30);
        assert_eq!(req.mem_per_zone[1].1, 7 << 30);
    }
}
