//! Node topology: sockets, cores and NUMA zones.
//!
//! The default topology mirrors the paper's testbed: two Xeon E5-2603 v4
//! packages (6 cores each, no SMT) at 1.70 GHz with 64 GiB of DDR4 split
//! across two NUMA zones. The evaluation's hardware-layout axis
//! (1 core / 1 zone … 8 cores / 2 zones, Figures 6 and 7) is expressed with
//! [`HwLayout`].

use std::fmt;

/// Identifier of a logical CPU core, node-global (0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Identifier of a NUMA memory zone (0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ZoneId(pub usize);

impl fmt::Display for ZoneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "numa{}", self.0)
    }
}

/// Static description of a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of CPU sockets.
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// NUMA zones (one per socket on the paper's testbed).
    pub zones: usize,
    /// Bytes of physical memory per zone.
    pub mem_per_zone: u64,
    /// Nominal TSC frequency in Hz.
    pub tsc_hz: u64,
}

impl Topology {
    /// The paper's evaluation machine: 2 × Xeon E5-2603 v4 (6C, 1.70 GHz),
    /// 64 GiB DDR4, 2 NUMA zones.
    pub fn paper_testbed() -> Self {
        Topology {
            sockets: 2,
            cores_per_socket: 6,
            zones: 2,
            mem_per_zone: 32 * 1024 * 1024 * 1024,
            tsc_hz: 1_700_000_000,
        }
    }

    /// A small topology for fast unit tests.
    pub fn small() -> Self {
        Topology {
            sockets: 1,
            cores_per_socket: 4,
            zones: 1,
            mem_per_zone: 256 * 1024 * 1024,
            tsc_hz: 1_000_000_000,
        }
    }

    /// Total number of cores on the node.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// The NUMA zone local to a core (cores are striped socket-major, and
    /// zones map 1:1 onto sockets when counts match, else modulo).
    pub fn zone_of_core(&self, core: CoreId) -> ZoneId {
        let socket = core.0 / self.cores_per_socket;
        ZoneId(socket % self.zones)
    }

    /// All cores belonging to a socket.
    pub fn cores_of_socket(&self, socket: usize) -> Vec<CoreId> {
        let base = socket * self.cores_per_socket;
        (base..base + self.cores_per_socket).map(CoreId).collect()
    }
}

/// One of the paper's enclave hardware layouts (Figures 6–7): a core count
/// and the number of NUMA zones those cores (and the enclave's memory) are
/// spread across.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HwLayout {
    /// Cores assigned to the enclave.
    pub cores: usize,
    /// NUMA zones the cores and memory are split across.
    pub zones: usize,
}

impl HwLayout {
    /// The four layouts evaluated in the paper, in presentation order:
    /// 1 core / 1 zone, 4 cores / 2 zones, 4 cores / 1 zone,
    /// 8 cores / 2 zones.
    pub fn paper_layouts() -> [HwLayout; 4] {
        [
            HwLayout { cores: 1, zones: 1 },
            HwLayout { cores: 4, zones: 2 },
            HwLayout { cores: 4, zones: 1 },
            HwLayout { cores: 8, zones: 2 },
        ]
    }

    /// Pick the concrete core ids for this layout on `topo`, filling sockets
    /// round-robin across the requested zones.
    ///
    /// Cores are taken from the *end* of each socket so that core 0 (which
    /// hosts the management OS in a Pisces deployment) stays with the host.
    pub fn pick_cores(&self, topo: &Topology) -> Vec<CoreId> {
        assert!(
            self.zones >= 1 && self.zones <= topo.zones,
            "layout zones exceed node zones"
        );
        assert!(
            self.cores <= self.zones * topo.cores_per_socket,
            "layout cores exceed capacity of the selected zones"
        );
        let mut picked = Vec::with_capacity(self.cores);
        // Take cores from each selected socket, highest-numbered first.
        let mut per_socket_taken = vec![0usize; self.zones];
        let mut z = 0usize;
        while picked.len() < self.cores {
            let taken = per_socket_taken[z];
            if taken < topo.cores_per_socket {
                let core = CoreId((z + 1) * topo.cores_per_socket - 1 - taken);
                picked.push(core);
                per_socket_taken[z] += 1;
            }
            z = (z + 1) % self.zones;
        }
        picked.sort();
        picked
    }

    /// Zone ids this layout uses (always the first `zones` zones).
    pub fn pick_zones(&self) -> Vec<ZoneId> {
        (0..self.zones).map(ZoneId).collect()
    }
}

impl fmt::Display for HwLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}c/{}z", self.cores, self.zones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_counts() {
        let t = Topology::paper_testbed();
        assert_eq!(t.total_cores(), 12);
        assert_eq!(t.zone_of_core(CoreId(0)), ZoneId(0));
        assert_eq!(t.zone_of_core(CoreId(5)), ZoneId(0));
        assert_eq!(t.zone_of_core(CoreId(6)), ZoneId(1));
        assert_eq!(t.zone_of_core(CoreId(11)), ZoneId(1));
    }

    #[test]
    fn cores_of_socket() {
        let t = Topology::paper_testbed();
        assert_eq!(t.cores_of_socket(0), (0..6).map(CoreId).collect::<Vec<_>>());
        assert_eq!(
            t.cores_of_socket(1),
            (6..12).map(CoreId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn layout_pick_single_zone() {
        let t = Topology::paper_testbed();
        let l = HwLayout { cores: 4, zones: 1 };
        let cores = l.pick_cores(&t);
        assert_eq!(cores.len(), 4);
        // All from socket 0, not including core 0.
        assert!(cores.iter().all(|c| c.0 >= 2 && c.0 < 6));
    }

    #[test]
    fn layout_pick_split_zones() {
        let t = Topology::paper_testbed();
        let l = HwLayout { cores: 8, zones: 2 };
        let cores = l.pick_cores(&t);
        assert_eq!(cores.len(), 8);
        let in_s0 = cores.iter().filter(|c| c.0 < 6).count();
        let in_s1 = cores.iter().filter(|c| c.0 >= 6).count();
        assert_eq!(in_s0, 4);
        assert_eq!(in_s1, 4);
    }

    #[test]
    fn layout_pick_unique() {
        let t = Topology::paper_testbed();
        for l in HwLayout::paper_layouts() {
            let mut cores = l.pick_cores(&t);
            let before = cores.len();
            cores.dedup();
            assert_eq!(cores.len(), before, "layout {l} picked duplicate cores");
        }
    }

    #[test]
    #[should_panic(expected = "layout cores exceed capacity")]
    fn layout_overflow_panics() {
        let t = Topology::small();
        let l = HwLayout { cores: 9, zones: 1 };
        l.pick_cores(&t);
    }
}
