//! The master control process ("Leviathan"): node-wide coordination of
//! enclaves, shared memory and composite applications.

use crate::events::{FailureNotice, HobbesHooks, NoticeBoard};
use crate::{HobbesError, HobbesResult};
use covirt_simhw::addr::{PhysRange, PAGE_SIZE_4K};
use covirt_simhw::node::SimNode;
use kitten::KittenKernel;
use parking_lot::RwLock;
use pisces::enclave::EnclaveId;
use pisces::host::PiscesHost;
use pisces::resources::ResourceRequest;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xemem::{SegmentId, XememService};

/// The master control process.
pub struct MasterControl {
    host: Arc<PiscesHost>,
    xemem: Arc<XememService>,
    kernels: RwLock<HashMap<u64, Arc<KittenKernel>>>,
    hooks: RwLock<Vec<Arc<dyn HobbesHooks>>>,
    /// Which enclaves share state (segid → attached+owner set), used to
    /// notify dependents on failure.
    dependencies: RwLock<HashMap<SegmentId, HashSet<u64>>>,
    /// Failure notices awaiting delivery.
    pub notices: NoticeBoard,
}

impl MasterControl {
    /// Bring up the master control on a node (loads the Pisces framework).
    pub fn new(node: Arc<SimNode>) -> Arc<Self> {
        Arc::new(MasterControl {
            host: PiscesHost::new(node),
            xemem: Arc::new(XememService::new()),
            kernels: RwLock::new(HashMap::new()),
            hooks: RwLock::new(Vec::new()),
            dependencies: RwLock::new(HashMap::new()),
            notices: NoticeBoard::new(),
        })
    }

    /// The Pisces framework instance.
    pub fn pisces(&self) -> &Arc<PiscesHost> {
        &self.host
    }

    /// The shared-memory service.
    pub fn xemem(&self) -> &Arc<XememService> {
        &self.xemem
    }

    /// Register Hobbes-level hooks (the Covirt controller does this).
    pub fn register_hooks(&self, hooks: Arc<dyn HobbesHooks>) {
        self.hooks.write().push(hooks);
    }

    /// Create + launch an enclave and boot a Kitten kernel in it. Returns
    /// the enclave and the kernel handle. (With Covirt active, launch
    /// interposition happens inside `PiscesHost::launch` via its hooks; the
    /// returned boot plan's params pointer is what Kitten reads either
    /// way.)
    pub fn bring_up_enclave(
        &self,
        name: &str,
        req: &ResourceRequest,
    ) -> HobbesResult<(Arc<pisces::Enclave>, Arc<KittenKernel>)> {
        let enclave = self.host.create_enclave(name, req)?;
        let plan = self.host.launch(&enclave)?;
        let kernel = Arc::new(KittenKernel::boot(
            &self.host.node().mem,
            plan.pisces_params_addr,
        )?);
        self.kernels
            .write()
            .insert(enclave.id.0, Arc::clone(&kernel));
        Ok((enclave, kernel))
    }

    /// Register an externally booted kernel (used when the caller drives
    /// the boot path itself, e.g. through the Covirt hypervisor).
    pub fn register_kernel(&self, enclave: u64, kernel: Arc<KittenKernel>) {
        self.kernels.write().insert(enclave, kernel);
    }

    /// The kernel for an enclave.
    pub fn kernel(&self, enclave: u64) -> HobbesResult<Arc<KittenKernel>> {
        self.kernels
            .read()
            .get(&enclave)
            .cloned()
            .ok_or(HobbesError::NoKernel(enclave))
    }

    /// Export a segment from an enclave's memory under a well-known name.
    /// The range must lie inside the owner's assignment.
    pub fn export_segment(
        &self,
        owner: u64,
        name: &str,
        range: PhysRange,
    ) -> HobbesResult<SegmentId> {
        if owner != 0 {
            let enclave = self.host.enclave(EnclaveId(owner))?;
            if !enclave.resources().covers(&range) {
                return Err(HobbesError::Invalid(
                    "export range outside owner assignment",
                ));
            }
        }
        let segid = self.xemem.export(name, owner, range)?;
        self.dependencies
            .write()
            .entry(segid)
            .or_default()
            .insert(owner);
        Ok(segid)
    }

    /// Attach enclave `who` to the named segment.
    ///
    /// Ordering (the Covirt contract): XEMEM bookkeeping → **hook** (EPT
    /// map) → guest kernel maps the pages → caller gets the range. The
    /// guest can only reach the pages after the hypervisor mapping exists.
    pub fn attach_segment(&self, who: u64, name: &str) -> HobbesResult<PhysRange> {
        let segid = self.xemem.lookup(name)?;
        // Everything that can refuse the attach without side effects runs
        // before the hook maps the EPT: the kernel lookup, and a segment
        // overlapping memory the attacher already maps (the rollback below
        // would unmap that memory too).
        let kernel = self.kernel(who)?;
        let range = self.xemem.info(segid)?.range;
        if kernel
            .memmap()
            .regions()
            .iter()
            .any(|r| r.range.overlaps(&range))
        {
            return Err(HobbesError::Invalid(
                "segment overlaps the attacher's memory map",
            ));
        }
        let info = self.xemem.attach(segid, who)?;
        for h in self.hooks.read().iter() {
            if let Err(why) = h.on_xemem_attach_prepared(who, info.range) {
                // Roll back the attachment before propagating the veto.
                let _ = self.xemem.detach(segid, who);
                return Err(HobbesError::Vetoed(why));
            }
        }
        // The attach transmits a page-frame list (XPMEM semantics); the
        // guest kernel maps it page by page. The Covirt EPT mapping above
        // covered the whole extent in one coalesced operation — which is
        // why the EPT update is invisible next to this linear work.
        let pages = info.page_frame_list();
        if let Err(e) = kernel.map_shared_pagelist(info.range, &pages) {
            // Undo in detach order: guest unmap → XEMEM bookkeeping → hook.
            // Nothing in the range was mapped before (checked above), so
            // unmapping all of it removes exactly the partial map.
            let first = info.range.start.align_down(PAGE_SIZE_4K).raw();
            let _ = kernel
                .page_tables
                .unmap(first, pages.len() as u64 * PAGE_SIZE_4K);
            let _ = self.xemem.detach(segid, who);
            for h in self.hooks.read().iter() {
                let _ = h.on_xemem_detach_acked(who, info.range);
            }
            return Err(e.into());
        }
        self.dependencies
            .write()
            .entry(segid)
            .or_default()
            .insert(who);
        Ok(info.range)
    }

    /// Detach enclave `who` from the named segment.
    ///
    /// Ordering: guest kernel unmaps → XEMEM bookkeeping → **hook** (EPT
    /// unmap + TLB flush) → memory may be reused. Only an attached enclave
    /// gets that far: anyone else (the owner included, whose export lies
    /// in its own memory) is refused before its kernel unmaps anything.
    pub fn detach_segment(&self, who: u64, name: &str) -> HobbesResult<()> {
        let segid = self.xemem.lookup(name)?;
        if !self.xemem.attachments(segid)?.contains(&who) {
            return Err(xemem::XememError::NotAttached.into());
        }
        let info = self.xemem.info(segid)?;
        let kernel = self.kernel(who)?;
        kernel.unmap_shared(info.range)?;
        self.xemem.detach(segid, who)?;
        for h in self.hooks.read().iter() {
            h.on_xemem_detach_acked(who, info.range)
                .map_err(HobbesError::Vetoed)?;
        }
        if let Some(deps) = self.dependencies.write().get_mut(&segid) {
            deps.remove(&who);
        }
        Ok(())
    }

    /// Destroy a segment. Returns enclaves that were still attached (the
    /// stale-mapping hazard — their kernels keep the mapping until their
    /// own cleanup runs, which with Covirt enabled is survivable).
    pub fn destroy_segment(&self, name: &str) -> HobbesResult<Vec<u64>> {
        let segid = self.xemem.lookup(name)?;
        let leftover = self.xemem.destroy(segid)?;
        self.dependencies.write().remove(&segid);
        Ok(leftover)
    }

    /// Fault path: an enclave died (Covirt containment calls this via the
    /// Pisces fault report). Notifies every enclave that shared a segment
    /// with it, as the paper's master control process is responsible for.
    pub fn handle_enclave_failure(&self, failed: u64, reason: &str) -> HobbesResult<()> {
        let enclave = self.host.enclave(EnclaveId(failed))?;
        self.host.report_fault(&enclave, reason)?;
        self.kernels.write().remove(&failed);
        let mut dependents: HashSet<u64> = HashSet::new();
        for (_segid, members) in self.dependencies.read().iter() {
            if members.contains(&failed) {
                dependents.extend(members.iter().filter(|&&m| m != failed && m != 0));
            }
        }
        for d in dependents {
            for h in self.hooks.read().iter() {
                h.on_dependency_failed(d, failed);
            }
            self.notices.post(FailureNotice {
                dependent: d,
                failed,
                reason: reason.to_owned(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::addr::PAGE_SIZE_2M;
    use covirt_simhw::node::NodeConfig;
    use covirt_simhw::topology::{CoreId, ZoneId};
    use kitten::memmap::RegionKind;

    fn master() -> Arc<MasterControl> {
        MasterControl::new(SimNode::new(NodeConfig::small()))
    }

    fn req(core: usize) -> ResourceRequest {
        ResourceRequest::new(vec![CoreId(core)], vec![(ZoneId(0), 48 * 1024 * 1024)])
    }

    #[test]
    fn bring_up_registers_kernel() {
        let m = master();
        let (e, k) = m.bring_up_enclave("e0", &req(1)).unwrap();
        assert_eq!(e.state(), pisces::EnclaveState::Running);
        assert!(Arc::ptr_eq(&m.kernel(e.id.0).unwrap(), &k));
        assert!(m.kernel(99).is_err());
    }

    /// Carve an exportable range out of an enclave's assignment.
    fn carve(e: &pisces::Enclave) -> PhysRange {
        let r = e.resources().mem[0];
        PhysRange::new(r.start.add(r.len - 2 * PAGE_SIZE_2M), 2 * PAGE_SIZE_2M)
    }

    #[test]
    fn export_attach_detach_flow() {
        let m = master();
        let (e1, _k1) = m.bring_up_enclave("producer", &req(1)).unwrap();
        let (e2, k2) = m.bring_up_enclave("consumer", &req(2)).unwrap();
        let seg_range = carve(&e1);
        m.export_segment(e1.id.0, "exchange", seg_range).unwrap();

        let got = m.attach_segment(e2.id.0, "exchange").unwrap();
        assert_eq!(got, seg_range);
        // Consumer kernel can now translate the shared pages.
        assert!(k2.translate(seg_range.start.raw()).is_ok());
        assert_eq!(k2.memmap().by_kind(RegionKind::Shared).len(), 1);

        m.detach_segment(e2.id.0, "exchange").unwrap();
        assert!(k2.translate(seg_range.start.raw()).is_err());
    }

    #[test]
    fn detach_by_unattached_enclave_leaves_its_mappings() {
        let m = master();
        let (e1, k1) = m.bring_up_enclave("producer", &req(1)).unwrap();
        let (e2, k2) = m.bring_up_enclave("stranger", &req(2)).unwrap();
        let seg_range = carve(&e1);
        m.export_segment(e1.id.0, "exchange", seg_range).unwrap();
        let memmaps = (
            k1.memmap().regions().to_vec(),
            k2.memmap().regions().to_vec(),
        );

        // Neither the owner nor a never-attached enclave may detach.
        for who in [e1.id.0, e2.id.0] {
            assert!(matches!(
                m.detach_segment(who, "exchange"),
                Err(HobbesError::Xemem(xemem::XememError::NotAttached))
            ));
        }
        // The owner still maps its exported memory; nothing changed.
        assert_eq!(
            k1.translate(seg_range.start.raw()).unwrap(),
            seg_range.start
        );
        assert!(k2.translate(seg_range.start.raw()).is_err());
        assert_eq!(k1.memmap().regions(), &memmaps.0[..]);
        assert_eq!(k2.memmap().regions(), &memmaps.1[..]);
    }

    #[test]
    fn attach_overlapping_an_attached_segment_is_refused_cleanly() {
        let m = master();
        let (e1, _) = m.bring_up_enclave("producer", &req(1)).unwrap();
        let (e2, k2) = m.bring_up_enclave("consumer", &req(2)).unwrap();
        let seg_range = carve(&e1);
        m.export_segment(e1.id.0, "a", seg_range).unwrap();
        let b = m.export_segment(e1.id.0, "b", seg_range).unwrap();
        m.attach_segment(e2.id.0, "a").unwrap();
        assert!(matches!(
            m.attach_segment(e2.id.0, "b"),
            Err(HobbesError::Invalid(_))
        ));
        assert!(m.xemem().attachments(b).unwrap().is_empty());
        // The first attachment's mapping survives the refused one.
        assert!(k2.translate(seg_range.start.raw()).is_ok());
        assert_eq!(k2.memmap().by_kind(RegionKind::Shared).len(), 1);
    }

    #[test]
    fn export_outside_assignment_rejected() {
        let m = master();
        let (e1, _k1) = m.bring_up_enclave("e0", &req(1)).unwrap();
        let bogus = PhysRange::new(
            covirt_simhw::addr::HostPhysAddr::new(0x40_0000_0000),
            0x1000,
        );
        assert!(matches!(
            m.export_segment(e1.id.0, "bogus", bogus),
            Err(HobbesError::Invalid(_))
        ));
    }

    #[test]
    fn attach_veto_rolls_back() {
        struct Veto;
        impl HobbesHooks for Veto {
            fn on_xemem_attach_prepared(&self, _e: u64, _r: PhysRange) -> Result<(), String> {
                Err("no".into())
            }
        }
        let m = master();
        let (e1, _) = m.bring_up_enclave("p", &req(1)).unwrap();
        let (e2, _) = m.bring_up_enclave("c", &req(2)).unwrap();
        let segid = m.export_segment(e1.id.0, "x", carve(&e1)).unwrap();
        m.register_hooks(Arc::new(Veto));
        assert!(matches!(
            m.attach_segment(e2.id.0, "x"),
            Err(HobbesError::Vetoed(_))
        ));
        // Attachment rolled back in XEMEM.
        assert!(m.xemem().attachments(segid).unwrap().is_empty());
    }

    #[test]
    fn destroy_with_live_attachment_reports_hazard() {
        let m = master();
        let (e1, _) = m.bring_up_enclave("p", &req(1)).unwrap();
        let (e2, _) = m.bring_up_enclave("c", &req(2)).unwrap();
        m.export_segment(e1.id.0, "x", carve(&e1)).unwrap();
        m.attach_segment(e2.id.0, "x").unwrap();
        let leftover = m.destroy_segment("x").unwrap();
        assert_eq!(leftover, vec![e2.id.0]);
        assert_eq!(m.xemem().hazardous_destroy_count(), 1);
    }

    #[test]
    fn failure_notifies_dependents() {
        let m = master();
        let (e1, _) = m.bring_up_enclave("p", &req(1)).unwrap();
        let (e2, _) = m.bring_up_enclave("c", &req(2)).unwrap();
        m.export_segment(e1.id.0, "x", carve(&e1)).unwrap();
        m.attach_segment(e2.id.0, "x").unwrap();

        m.handle_enclave_failure(e1.id.0, "ept violation").unwrap();
        assert!(matches!(e1.state(), pisces::EnclaveState::Failed(_)));
        // The consumer is told its producer died.
        let notices = m.notices.drain();
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].dependent, e2.id.0);
        assert_eq!(notices[0].failed, e1.id.0);
        // The consumer itself keeps running.
        assert_eq!(e2.state(), pisces::EnclaveState::Running);
    }
}
