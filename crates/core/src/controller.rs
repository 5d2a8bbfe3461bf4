//! The Covirt controller module.
//!
//! The controller is the management half of Covirt's split architecture:
//! it is "integrated with the master control process" and "hooks into the
//! control paths that manage the system-wide hardware configuration". It
//! builds each enclave's virtualization context before boot (interposing
//! the hypervisor into the boot plan), and afterwards translates every
//! resource-management event into direct edits of that context:
//!
//! * memory grant   → EPT map, then return immediately (asynchronous —
//!   the enclave keeps running while the mapping is installed);
//! * memory reclaim → EPT unmap, then a `TlbFlush` command + doorbell
//!   (NMI under the legacy delivery mode, or on escalation) to every live
//!   enclave core, blocking until each completes;
//! * vector alloc/free → whitelist edit, **no** hypervisor coordination
//!   (the hypervisor reads the whitelist fresh on every trap — only state
//!   the CPU may cache needs the command queue);
//! * XEMEM attach/detach → same as grant/reclaim, via the Hobbes hooks.

use crate::boot::{cmdq_addr, CovirtBootParams, COVIRT_BOOT_MAGIC, COVIRT_PARAMS_OFFSET};
use crate::cmdqueue::{CmdQueue, Command, FlushTimeout};
use crate::config::CovirtConfig;
use crate::fault::{FaultLog, FaultReport};
use crate::vctx::{VirtContext, CMD_DOORBELL_VECTOR};
use crate::{CovirtError, CovirtResult};
use covirt_simhw::addr::{PhysRange, PAGE_SIZE_4K};
use covirt_simhw::ept::Ept;
use covirt_simhw::interconnect::{DeliveryMode, IpiDest};
use covirt_simhw::node::SimNode;
use covirt_simhw::paging::FramePool;
use covirt_simhw::topology::ZoneId;
use covirt_trace::{Counter, EventKind, Hist, Phase, Tracer};
use hobbes::events::HobbesHooks;
use hobbes::MasterControl;
use parking_lot::{Mutex, RwLock};
use pisces::boot::{BootPlan, BootTarget};
use pisces::enclave::Enclave;
use pisces::hooks::EnclaveHooks;
use pisces::host::PiscesHost;
use pisces::{PiscesError, PiscesResult};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Bytes of host memory reserved per enclave for EPT table frames.
const EPT_POOL_BYTES: u64 = 16 * 1024 * 1024;

/// Reclaims at or below this size are shot down with `TlbFlushRange`
/// commands; larger ones fall back to a full flush (invalidating the whole
/// TLB is cheaper than sweeping it per-range once the range dwarfs the TLB
/// reach).
const DEFAULT_RANGE_FLUSH_THRESHOLD: u64 = 16 * 1024 * 1024;

/// At most this many coalesced ranges ride in one shootdown before the
/// controller merges them into a single full flush (the command ring holds
/// 32 slots; leave headroom for unrelated commands).
const MAX_RANGE_FLUSH_CMDS: usize = 8;

/// Default time a core gets to acknowledge a doorbell-delivered command
/// before the controller escalates to an NMI kick. Generous relative to a
/// polling core's harvest latency (microseconds) so host-scheduler hiccups
/// never trigger spurious escalations, yet bounded so a core parked
/// outside any safe point is kicked promptly.
pub const DEFAULT_ESCALATION_BOUND_NS: u64 = 10_000_000;

/// How commands are signalled to enclave cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmdDelivery {
    /// Post the doorbell vector into the core's posted-interrupt
    /// descriptor; the guest harvests and drains in guest mode with no VM
    /// exit. NMI is sent only if the completion counter fails to advance
    /// within the escalation bound.
    DoorbellFirst,
    /// Legacy behaviour: unconditional NMI kick per post (every command
    /// costs the target core a VM exit). Kept as the ablation baseline.
    NmiOnly,
}

/// The controller module. One instance manages every Covirt-protected
/// enclave on the node.
pub struct CovirtController {
    node: Arc<SimNode>,
    config: CovirtConfig,
    contexts: RwLock<HashMap<u64, Arc<VirtContext>>>,
    master: RwLock<Option<Weak<MasterControl>>>,
    /// Record of every contained fault.
    pub faults: FaultLog,
    /// Spin budget when waiting for per-core flush completions.
    flush_spins: RwLock<u64>,
    /// Size threshold selecting range-flush vs full-flush shootdowns.
    range_flush_threshold: RwLock<u64>,
    /// Ranges unmapped inside an open reclaim epoch, awaiting the single
    /// coalesced shootdown at epoch close (keyed by enclave).
    pending_reclaims: Mutex<HashMap<u64, Vec<PhysRange>>>,
    /// Broadcast shootdowns issued (instrumentation).
    shootdowns: RwLock<u64>,
    /// How commands are signalled to cores (doorbell-first by default).
    delivery: RwLock<CmdDelivery>,
    /// Nanoseconds a core gets to acknowledge a doorbell before the
    /// controller escalates to an NMI kick.
    escalation_bound_ns: RwLock<u64>,
    /// Doorbell deliveries that timed out and escalated to an NMI.
    nmi_escalations: RwLock<u64>,
    /// Flight-recorder handle on the controller lane.
    tracer: Tracer,
}

impl CovirtController {
    /// Create a controller enforcing `config` on every enclave it manages.
    pub fn new(node: Arc<SimNode>, config: CovirtConfig) -> Arc<Self> {
        if config.trace {
            node.recorder().set_enabled(true);
        }
        let tracer = node.controller_tracer();
        Arc::new(CovirtController {
            node,
            config,
            contexts: RwLock::new(HashMap::new()),
            master: RwLock::new(None),
            faults: FaultLog::new(),
            flush_spins: RwLock::new(1_000_000),
            range_flush_threshold: RwLock::new(DEFAULT_RANGE_FLUSH_THRESHOLD),
            pending_reclaims: Mutex::new(HashMap::new()),
            shootdowns: RwLock::new(0),
            delivery: RwLock::new(CmdDelivery::DoorbellFirst),
            escalation_bound_ns: RwLock::new(DEFAULT_ESCALATION_BOUND_NS),
            nmi_escalations: RwLock::new(0),
            tracer,
        })
    }

    /// Register with the Pisces framework (boot + memory + vector hooks).
    pub fn attach_pisces(self: &Arc<Self>, host: &PiscesHost) {
        host.register_hooks(Arc::clone(self) as Arc<dyn EnclaveHooks>);
    }

    /// Register with the Hobbes master control (XEMEM hooks + fault
    /// notification path). Also attaches to its Pisces instance.
    pub fn attach_hobbes(self: &Arc<Self>, master: &Arc<MasterControl>) {
        *self.master.write() = Some(Arc::downgrade(master));
        master.register_hooks(Arc::clone(self) as Arc<dyn HobbesHooks>);
        self.attach_pisces(master.pisces());
    }

    /// The feature set this controller enforces.
    pub fn config(&self) -> CovirtConfig {
        self.config
    }

    /// The virtualization context for an enclave.
    pub fn context(&self, enclave: u64) -> CovirtResult<Arc<VirtContext>> {
        self.contexts
            .read()
            .get(&enclave)
            .cloned()
            .ok_or(CovirtError::NoContext(enclave))
    }

    /// Bound the flush-completion wait (tests use small values).
    pub fn set_flush_spins(&self, spins: u64) {
        *self.flush_spins.write() = spins;
    }

    /// Reclaims at or below `bytes` use `TlbFlushRange` shootdowns; larger
    /// ones fall back to `TlbFlushAll`. `0` disables range flushes entirely
    /// (ablation knob).
    pub fn set_range_flush_threshold(&self, bytes: u64) {
        *self.range_flush_threshold.write() = bytes;
    }

    /// How many broadcast shootdowns this controller has issued.
    pub fn shootdown_count(&self) -> u64 {
        *self.shootdowns.read()
    }

    /// Select the command-delivery mode (ablation knob; doorbell-first by
    /// default).
    pub fn set_delivery(&self, delivery: CmdDelivery) {
        *self.delivery.write() = delivery;
    }

    /// The current command-delivery mode.
    pub fn delivery(&self) -> CmdDelivery {
        *self.delivery.read()
    }

    /// Bound the doorbell-acknowledgement window: a core that has not
    /// advanced its completion counter within `ns` is escalated to an NMI
    /// kick.
    pub fn set_escalation_bound_ns(&self, ns: u64) {
        *self.escalation_bound_ns.write() = ns;
    }

    /// The configured doorbell-escalation bound in nanoseconds.
    pub fn escalation_bound_ns(&self) -> u64 {
        *self.escalation_bound_ns.read()
    }

    /// How many doorbell deliveries escalated to an NMI kick.
    pub fn nmi_escalation_count(&self) -> u64 {
        *self.nmi_escalations.read()
    }

    /// Signal `core` that its command queue has pending work for `seq`.
    ///
    /// Doorbell-first: post the doorbell vector into the core's descriptor
    /// and send the physical notification IPI only when `post()` reports
    /// none outstanding. NMI-only (or a missing descriptor): the legacy
    /// unconditional NMI kick.
    fn signal_core(&self, vctx: &VirtContext, core: usize, seq: u64) -> Result<(), String> {
        if self.delivery() == CmdDelivery::DoorbellFirst {
            if let Some(desc) = vctx.cmd_doorbell(core) {
                let notify = desc.post(CMD_DOORBELL_VECTOR);
                self.tracer
                    .emit_for(vctx.enclave_id, EventKind::CmdDoorbell, seq, core as u64);
                self.tracer.count(Counter::CmdDoorbells, 1);
                if notify {
                    self.node
                        .interconnect
                        .send(
                            0,
                            IpiDest::Core(core),
                            DeliveryMode::Fixed(CMD_DOORBELL_VECTOR),
                        )
                        .map_err(|e| e.to_string())?;
                }
                return Ok(());
            }
        }
        self.node
            .interconnect
            .send(0, IpiDest::Core(core), DeliveryMode::Nmi)
            .map_err(|e| e.to_string())
    }

    /// Post a single `Sync` command to `core` under the configured
    /// delivery protocol and return its sequence number — the caller owns
    /// the completion wait (poll `vctx.cmdq(core)`). Takes the prefetched
    /// context (see [`Self::context`]) so the per-command span contains no
    /// map lookup or queue clone. Benchmarks drive this to measure pure
    /// per-command delivery latency (post → signal → drain → complete)
    /// with the guest polled from the same thread, excluding scheduler
    /// noise the blocking barrier wait would add.
    pub fn post_sync(&self, vctx: &VirtContext, core: usize) -> Result<u64, String> {
        let q = vctx
            .cmdq(core)
            .ok_or_else(|| format!("core {core} has no command queue"))?;
        let stamp = if self.tracer.enabled() {
            self.node.clock.rdtsc()
        } else {
            0
        };
        let seq = q.post_at(Command::Sync, stamp).map_err(|e| e.to_string())?;
        self.signal_core(vctx, core, seq)?;
        Ok(seq)
    }

    /// Wait for `seq` to complete on `core`'s queue. Under doorbell-first
    /// delivery, a core that fails to acknowledge within the escalation
    /// bound is kicked with the legacy NMI (and the escalation counted)
    /// before the full-budget wait resumes — so a core parked outside any
    /// harvest safe point still converges.
    fn await_completion(
        &self,
        q: &CmdQueue,
        core: usize,
        seq: u64,
        spins: u64,
    ) -> Result<(), FlushTimeout> {
        if self.delivery() == CmdDelivery::DoorbellFirst {
            const SPIN_POLLS: u64 = 128;
            let bound = self.escalation_bound_ns();
            let t0 = self.node.clock.rdtsc();
            let mut i = 0u64;
            while q.completed() < seq {
                let waited = self
                    .node
                    .clock
                    .cycles_to_ns(self.node.clock.rdtsc().saturating_sub(t0));
                if waited >= bound {
                    // The doorbell went unanswered: demote to the legacy
                    // NMI kick (the interconnect emits NmiKick for the
                    // audit trail) and fall through to the normal wait.
                    *self.nmi_escalations.write() += 1;
                    self.tracer.count(Counter::NmiEscalations, 1);
                    let _ = self
                        .node
                        .interconnect
                        .send(0, IpiDest::Core(core), DeliveryMode::Nmi);
                    break;
                }
                if i < SPIN_POLLS {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                i += 1;
            }
        }
        q.wait(seq, spins)
    }

    /// Build the full virtualization context for an enclave about to boot.
    fn build_context(&self, enclave: &Enclave, plan: &BootPlan) -> PiscesResult<Arc<VirtContext>> {
        let res = enclave.resources();
        let cores: Vec<usize> = res.cores.iter().map(|c| c.0).collect();

        // EPT: identity map of everything the enclave owns, coalesced into
        // the largest possible pages, full permissions.
        let ept = if self.config.memory {
            let pool_region = self
                .node
                .mem
                .alloc_backed(ZoneId(0), EPT_POOL_BYTES, PAGE_SIZE_4K)
                .map_err(PiscesError::Hw)?;
            let ept = Ept::new(Arc::new(FramePool::new(
                Arc::clone(&self.node.mem),
                pool_region,
            )))
            .map_err(PiscesError::Hw)?;
            for r in &res.mem {
                ept.map_identity(*r, 3).map_err(PiscesError::Hw)?;
                self.tracer
                    .emit_for(enclave.id.0, EventKind::EptMap, r.start.raw(), r.len);
            }
            // The management region (boot structures, control channel,
            // command queues) must be guest-reachable too.
            ept.map_identity(enclave.mgmt_region, 1)
                .map_err(PiscesError::Hw)?;
            Some(Arc::new(ept))
        } else {
            None
        };

        let mut vctx = VirtContext::new(enclave.id.0, self.config, &cores, &res.ipi_vectors, ept);

        // Pre-boot VMCS guest state: every core launches "at the kernel
        // entry" with RDI = the unmodified Pisces boot parameters.
        for &core in &cores {
            if let Some(h) = vctx.vmcs(core) {
                let mut v = h.write();
                v.guest.rip = 0xffff_ffff_8000_0000; // canonical kernel text base
                v.guest.rdi = plan.pisces_params_addr.raw();
            }
        }

        // Per-core command queues inside the management region.
        let mut queues = Vec::with_capacity(cores.len());
        for (i, &core) in cores.iter().enumerate() {
            let base = cmdq_addr(enclave.mgmt_region.start, i);
            let range = PhysRange::new(base, crate::boot::CMDQ_STRIDE);
            let q = CmdQueue::create(&self.node.mem, range)
                .map_err(|_| PiscesError::Invalid("command queue creation failed"))?
                .with_core(core as u64)
                .with_tracer(self.tracer.clone().with_enclave(enclave.id.0));
            queues.push((core as u64, base.raw()));
            vctx.set_cmdq(core, q);
        }

        // The Covirt boot-parameter structure, with the pointer back to the
        // unmodified Pisces parameters.
        let cbp = CovirtBootParams {
            magic: COVIRT_BOOT_MAGIC,
            enclave_id: enclave.id.0,
            config: self.config,
            eptp: vctx.ept.as_ref().map(|e| e.eptp().raw()).unwrap_or(0),
            cmd_queues: queues,
            pisces_params_addr: plan.pisces_params_addr.raw(),
        };
        cbp.write_to(
            &self.node.mem,
            enclave.mgmt_region.start.add(COVIRT_PARAMS_OFFSET),
        )
        .map_err(PiscesError::Hw)?;

        let vctx = Arc::new(vctx);
        self.contexts
            .write()
            .insert(enclave.id.0, Arc::clone(&vctx));
        Ok(vctx)
    }

    /// Unmap a range and synchronize every live core's TLB.
    ///
    /// The EPT edit is always immediate — a stale *mapping* must never
    /// outlive the reclaim decision. Synchronization is either immediate
    /// (one broadcast shootdown covering just this range) or, when a
    /// reclaim epoch is open for the enclave, deferred: the range joins
    /// the epoch's pending set and a single coalesced shootdown covers
    /// every range when the epoch closes.
    fn unmap_and_flush(&self, enclave: u64, range: PhysRange) -> Result<(), String> {
        let Some(vctx) = self.contexts.read().get(&enclave).cloned() else {
            return Ok(()); // not a Covirt-managed enclave
        };
        let Some(ept) = vctx.ept.as_ref() else {
            return Ok(()); // memory protection off — nothing to unmap
        };
        ept.unmap(range).map_err(|e| e.to_string())?;
        self.tracer
            .emit_for(enclave, EventKind::Reclaim, range.start.raw(), range.len);

        {
            let mut pending = self.pending_reclaims.lock();
            if let Some(ranges) = pending.get_mut(&enclave) {
                ranges.push(range);
                return Ok(()); // epoch open — shootdown deferred to close
            }
        }
        self.broadcast_shootdown(&vctx, &[range])
    }

    /// Two-phase broadcast TLB shootdown.
    ///
    /// Phase 1 posts flush commands to *every* live core and signals them
    /// all (doorbell posts, or NMIs in the legacy mode) before waiting on
    /// anything, so the per-core flushes execute concurrently; phase 2
    /// collects the completions in a single pass. Total latency is
    /// therefore max(per-core flush) + one signal delivery, not the sum
    /// over cores the old post-wait-per-core loop paid.
    ///
    /// Command selection: if every range fits under the range-flush
    /// threshold (and there are few enough to leave ring headroom), each
    /// core gets per-range `TlbFlushRange` commands and keeps its
    /// unrelated TLB entries; otherwise a single `TlbFlushAll`.
    fn broadcast_shootdown(&self, vctx: &VirtContext, ranges: &[PhysRange]) -> Result<(), String> {
        if ranges.is_empty() {
            return Ok(());
        }
        let spins = *self.flush_spins.read();
        let threshold = *self.range_flush_threshold.read();
        let use_ranges = threshold > 0
            && ranges.len() <= MAX_RANGE_FLUSH_CMDS
            && ranges.iter().all(|r| r.len <= threshold);
        let traced = self.tracer.enabled();
        let t0 = if traced { self.node.clock.rdtsc() } else { 0 };
        if traced {
            self.tracer.emit_at_for(
                vctx.enclave_id,
                EventKind::ShootdownBegin,
                t0,
                ranges.len() as u64,
                use_ranges as u64,
            );
        }

        // Phase 1: post commands + fire NMIs to all live cores.
        let mut waits = Vec::new();
        for core in vctx.live_cores() {
            if let Some(q) = vctx.cmdq(core) {
                let stamp = if traced { self.node.clock.rdtsc() } else { 0 };
                let seq = if use_ranges {
                    let mut last = 0;
                    for r in ranges {
                        // The LWK identity-maps its assignment, so the
                        // guest-virtual address of a reclaimed frame is its
                        // guest-physical address.
                        last = q
                            .post_at(
                                Command::TlbFlushRange {
                                    gva: r.start.raw(),
                                    len: r.len,
                                },
                                stamp,
                            )
                            .map_err(|e| e.to_string())?;
                    }
                    last
                } else {
                    q.post_at(Command::TlbFlushAll, stamp)
                        .map_err(|e| e.to_string())?
                };
                self.signal_core(vctx, core, seq)?;
                waits.push((q.clone(), core, seq));
            }
        }

        // Phase 2: wait on all completions in one pass. The wait is
        // control-plane time forced by *this* enclave's reclaim, so
        // covirt-prof attributes it to the enclave on the overlay (the
        // calling thread has no per-core timeline to conserve against).
        let prof = self.node.recorder().profiler();
        let w0 = prof.enabled().then(|| self.node.clock.rdtsc());
        for (q, core, seq) in waits {
            self.await_completion(&q, core, seq, spins)
                .map_err(|e| format!("TLB shootdown failed: {e}"))?;
        }
        if let Some(w0) = w0 {
            prof.attribute(
                vctx.enclave_id,
                Phase::ShootdownWait,
                self.node.clock.rdtsc().saturating_sub(w0),
            );
        }
        *self.shootdowns.write() += 1;
        if traced {
            let rtt = self
                .node
                .clock
                .cycles_to_ns(self.node.clock.rdtsc().saturating_sub(t0));
            self.tracer
                .emit_for(vctx.enclave_id, EventKind::ShootdownEnd, rtt, 0);
            self.tracer.observe(Hist::ShootdownRttNs, rtt);
        }
        Ok(())
    }

    /// Open a reclaim epoch for an enclave: until [`end_reclaim_epoch`]
    /// runs, every reclaim unmaps its range immediately but defers TLB
    /// synchronization, and the close issues one coalesced shootdown for
    /// all of them.
    ///
    /// Safety contract: while the epoch is open, reclaimed ranges are
    /// unmapped but may still sit in live TLBs — the caller must not
    /// recycle the underlying frames until `end_reclaim_epoch` returns
    /// `Ok`.
    ///
    /// [`end_reclaim_epoch`]: Self::end_reclaim_epoch
    pub fn begin_reclaim_epoch(&self, enclave: u64) {
        self.pending_reclaims.lock().entry(enclave).or_default();
    }

    /// Close a reclaim epoch: one broadcast shootdown covering every range
    /// reclaimed since [`begin_reclaim_epoch`]. Blocks until all live
    /// cores acknowledge; only then may the frames be reused.
    ///
    /// [`begin_reclaim_epoch`]: Self::begin_reclaim_epoch
    pub fn end_reclaim_epoch(&self, enclave: u64) -> Result<(), String> {
        let Some(ranges) = self.pending_reclaims.lock().remove(&enclave) else {
            return Ok(()); // no epoch was open
        };
        let Some(vctx) = self.contexts.read().get(&enclave).cloned() else {
            return Ok(());
        };
        self.broadcast_shootdown(&vctx, &ranges)
    }

    /// Run one broadcast round-trip (post a `Sync` to every live core,
    /// signal it, wait for all acks) without touching any state. This is the
    /// pure synchronization cost of a shootdown — benchmarks use it to
    /// measure how latency scales with core count.
    pub fn shootdown_barrier(&self, enclave: u64) -> Result<(), String> {
        let Some(vctx) = self.contexts.read().get(&enclave).cloned() else {
            return Ok(());
        };
        let spins = *self.flush_spins.read();
        let mut waits = Vec::new();
        for core in vctx.live_cores() {
            if let Some(q) = vctx.cmdq(core) {
                let stamp = if self.tracer.enabled() {
                    self.node.clock.rdtsc()
                } else {
                    0
                };
                let seq = q.post_at(Command::Sync, stamp).map_err(|e| e.to_string())?;
                self.signal_core(&vctx, core, seq)?;
                waits.push((q.clone(), core, seq));
            }
        }
        let prof = self.node.recorder().profiler();
        let w0 = prof.enabled().then(|| self.node.clock.rdtsc());
        for (q, core, seq) in waits {
            self.await_completion(&q, core, seq, spins)
                .map_err(|e| format!("shootdown barrier failed: {e}"))?;
        }
        if let Some(w0) = w0 {
            prof.attribute(
                enclave,
                Phase::ShootdownWait,
                self.node.clock.rdtsc().saturating_sub(w0),
            );
        }
        Ok(())
    }

    /// Fault containment entry point, called by the execution environment
    /// when a hypervisor instance terminates its enclave: record the
    /// report and tell the master control process, which reclaims the
    /// enclave's resources and notifies dependants.
    pub fn report_fault(&self, enclave: u64, core: usize, reason: &str) {
        self.tracer
            .emit_for(enclave, EventKind::FaultReport, enclave, core as u64);
        self.faults.record(FaultReport {
            enclave,
            core,
            reason: reason.to_owned(),
            tsc: self.node.clock.rdtsc(),
        });
        if let Some(master) = self.master.read().as_ref().and_then(Weak::upgrade) {
            let _ = master.handle_enclave_failure(enclave, reason);
        }
    }
}

impl EnclaveHooks for CovirtController {
    fn on_boot_plan(&self, enclave: &Enclave, mut plan: BootPlan) -> PiscesResult<BootPlan> {
        self.build_context(enclave, &plan)?;
        plan.target = BootTarget::Interposed {
            layer: "covirt".to_owned(),
            layer_params_addr: enclave.mgmt_region.start.add(COVIRT_PARAMS_OFFSET),
        };
        Ok(plan)
    }

    fn on_mem_add_prepared(&self, enclave: &Enclave, range: PhysRange) -> PiscesResult<()> {
        if let Some(vctx) = self.contexts.read().get(&enclave.id.0) {
            if let Some(ept) = vctx.ept.as_ref() {
                // Map, then return immediately: Pisces may transmit the
                // page list while the guest keeps running.
                ept.map_identity(range, 3).map_err(PiscesError::Hw)?;
                self.tracer
                    .emit_for(enclave.id.0, EventKind::Grant, range.start.raw(), range.len);
            }
        }
        Ok(())
    }

    fn on_mem_remove_acked(&self, enclave: &Enclave, range: PhysRange) -> PiscesResult<()> {
        self.unmap_and_flush(enclave.id.0, range)
            .map_err(|_| PiscesError::ResourceBusy("TLB flush synchronization failed"))?;
        // Only now that the EPT unmap (and shootdown, unless deferred to
        // the reclaim epoch) is in place: invalidate the enclave's region
        // caches. Refills of the removed range fault on the EPT instead of
        // resolving, so the bump races nothing.
        if let Some(vctx) = self.contexts.read().get(&enclave.id.0) {
            vctx.region_view.bump();
        }
        Ok(())
    }

    fn on_vector_alloc(&self, enclave: &Enclave, vector: u8) -> PiscesResult<()> {
        if let Some(vctx) = self.contexts.read().get(&enclave.id.0) {
            vctx.whitelist.add_vector(vector);
            self.tracer
                .emit_for(enclave.id.0, EventKind::VectorAlloc, vector as u64, 0);
        }
        Ok(())
    }

    fn on_vector_free(&self, enclave: &Enclave, vector: u8) -> PiscesResult<()> {
        if let Some(vctx) = self.contexts.read().get(&enclave.id.0) {
            vctx.whitelist.remove_vector(vector);
            self.tracer
                .emit_for(enclave.id.0, EventKind::VectorFree, vector as u64, 0);
        }
        Ok(())
    }

    fn on_teardown(&self, enclave: &Enclave) {
        if let Some(vctx) = self.contexts.write().remove(&enclave.id.0) {
            vctx.terminate("enclave torn down");
            self.tracer
                .emit_for(enclave.id.0, EventKind::Teardown, enclave.id.0, 0);
        }
    }
}

impl HobbesHooks for CovirtController {
    fn on_xemem_attach_prepared(&self, enclave: u64, range: PhysRange) -> Result<(), String> {
        if let Some(vctx) = self.contexts.read().get(&enclave) {
            if let Some(ept) = vctx.ept.as_ref() {
                ept.map_identity(range, 3).map_err(|e| e.to_string())?;
                self.tracer.emit_for(
                    enclave,
                    EventKind::XememAttach,
                    range.start.raw(),
                    range.len,
                );
            }
        }
        Ok(())
    }

    fn on_xemem_detach_acked(&self, enclave: u64, range: PhysRange) -> Result<(), String> {
        self.tracer.emit_for(
            enclave,
            EventKind::XememDetach,
            range.start.raw(),
            range.len,
        );
        self.unmap_and_flush(enclave, range)?;
        // As in `on_mem_remove_acked`: the unmap is visible, so scoped
        // region-cache invalidation is safe now.
        if let Some(vctx) = self.contexts.read().get(&enclave) {
            vctx.region_view.bump();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::addr::HostPhysAddr;
    use covirt_simhw::node::NodeConfig;
    use covirt_simhw::paging::{Access, DirectLoad, Perms};
    use covirt_simhw::topology::CoreId;
    use pisces::resources::ResourceRequest;

    fn setup(config: CovirtConfig) -> (Arc<MasterControl>, Arc<CovirtController>) {
        let node = SimNode::new(NodeConfig::small());
        let master = MasterControl::new(Arc::clone(&node));
        let ctl = CovirtController::new(node, config);
        ctl.attach_hobbes(&master);
        (master, ctl)
    }

    fn req() -> ResourceRequest {
        ResourceRequest::new(
            vec![CoreId(1), CoreId(2)],
            vec![(ZoneId(0), 64 * 1024 * 1024)],
        )
    }

    #[test]
    fn boot_plan_is_interposed_and_context_built() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        assert_eq!(vctx.cores(), vec![1, 2]);
        let ept = vctx.ept.as_ref().unwrap();
        // The whole assignment translates identity.
        let r = enclave.resources().mem[0];
        let t = ept
            .translate(
                covirt_simhw::addr::GuestPhysAddr::new(r.start.raw() + 4096),
                Access::Read,
                &DirectLoad(&master.pisces().node().mem),
            )
            .unwrap();
        assert_eq!(t.pa.raw(), r.start.raw() + 4096);
        // Covirt boot params are in memory and point back at Pisces'.
        let cbp = CovirtBootParams::read_from(
            &master.pisces().node().mem,
            enclave.mgmt_region.start.add(COVIRT_PARAMS_OFFSET),
        )
        .unwrap();
        assert_eq!(cbp.enclave_id, enclave.id.0);
        assert_eq!(cbp.pisces_params_addr, enclave.mgmt_region.start.raw());
        assert_eq!(cbp.cmd_queues.len(), 2);
        assert_eq!(cbp.eptp, ept.eptp().raw());
    }

    #[test]
    fn outside_assignment_violates() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let bad = covirt_simhw::addr::GuestPhysAddr::new(0x3f_0000_0000);
        assert!(vctx
            .ept
            .as_ref()
            .unwrap()
            .translate(bad, Access::Write, &DirectLoad(&master.pisces().node().mem))
            .is_err());
    }

    #[test]
    fn grant_maps_ept_before_guest_sees_it() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let range = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 4 * 1024 * 1024)
            .unwrap();
        // EPT mapping exists even though the kernel has not polled yet.
        assert!(vctx
            .ept
            .as_ref()
            .unwrap()
            .translate(
                covirt_simhw::addr::GuestPhysAddr::new(range.start.raw()),
                Access::Write,
                &DirectLoad(&master.pisces().node().mem)
            )
            .is_ok());
        assert!(
            !kernel.memmap().contains(range.start, 8),
            "guest map updates only on poll"
        );
        kernel.poll_ctrl().unwrap();
        assert!(kernel.memmap().contains(range.start, 8));
    }

    #[test]
    fn reclaim_unmaps_after_ack() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let range = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        kernel.poll_ctrl().unwrap();
        master.pisces().process_acks(&enclave).unwrap();

        master
            .pisces()
            .request_remove_memory(&enclave, range)
            .unwrap();
        kernel.poll_ctrl().unwrap(); // guest acks
                                     // No live guest cores → flush completes immediately.
        master.pisces().process_acks(&enclave).unwrap();
        assert!(vctx
            .ept
            .as_ref()
            .unwrap()
            .translate(
                covirt_simhw::addr::GuestPhysAddr::new(range.start.raw()),
                Access::Read,
                &DirectLoad(&master.pisces().node().mem)
            )
            .is_err());
    }

    #[test]
    fn region_view_bumps_on_reclaim_only() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let g0 = vctx.region_view.generation();
        // A grant adds a region; nothing a core pinned can go stale, so
        // the enclave's view must not move (sibling caches stay hot).
        let range = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        kernel.poll_ctrl().unwrap();
        master.pisces().process_acks(&enclave).unwrap();
        assert_eq!(vctx.region_view.generation(), g0);
        // A reclaim unmaps; the view bumps exactly once, after the ack.
        master
            .pisces()
            .request_remove_memory(&enclave, range)
            .unwrap();
        kernel.poll_ctrl().unwrap();
        assert_eq!(vctx.region_view.generation(), g0);
        master.pisces().process_acks(&enclave).unwrap();
        assert_eq!(vctx.region_view.generation(), g0 + 1);
    }

    #[test]
    fn epoch_coalesces_reclaims_into_one_shootdown() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let r1 = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        let r2 = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        kernel.poll_ctrl().unwrap();
        master.pisces().process_acks(&enclave).unwrap();
        let before = ctl.shootdown_count();

        ctl.begin_reclaim_epoch(enclave.id.0);
        for r in [r1, r2] {
            master.pisces().request_remove_memory(&enclave, r).unwrap();
            kernel.poll_ctrl().unwrap();
            master.pisces().process_acks(&enclave).unwrap();
            // The unmap is immediate even though the shootdown is deferred.
            assert!(vctx
                .ept
                .as_ref()
                .unwrap()
                .translate(
                    covirt_simhw::addr::GuestPhysAddr::new(r.start.raw()),
                    Access::Read,
                    &DirectLoad(&master.pisces().node().mem)
                )
                .is_err());
        }
        assert_eq!(
            ctl.shootdown_count(),
            before,
            "shootdown deferred while epoch open"
        );
        ctl.end_reclaim_epoch(enclave.id.0).unwrap();
        assert_eq!(
            ctl.shootdown_count(),
            before + 1,
            "both reclaims rode one shootdown"
        );
    }

    #[test]
    fn reclaims_outside_epoch_each_shoot_down() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let r1 = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        let r2 = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        kernel.poll_ctrl().unwrap();
        master.pisces().process_acks(&enclave).unwrap();
        let before = ctl.shootdown_count();
        for r in [r1, r2] {
            master.pisces().request_remove_memory(&enclave, r).unwrap();
            kernel.poll_ctrl().unwrap();
            master.pisces().process_acks(&enclave).unwrap();
        }
        assert_eq!(ctl.shootdown_count(), before + 2);
    }

    #[test]
    fn vector_hooks_edit_whitelist() {
        let (master, ctl) = setup(CovirtConfig::MEM_IPI);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        let v = master.pisces().alloc_vector(&enclave).unwrap();
        assert!(vctx.whitelist.would_allow(1, v));
        master.pisces().free_vector(&enclave, v).unwrap();
        assert!(!vctx.whitelist.would_allow(1, v));
    }

    #[test]
    fn xemem_attach_maps_and_detach_unmaps() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (e1, _k1) = master.bring_up_enclave("p", &req()).unwrap();
        let (e2, _k2) = master
            .bring_up_enclave(
                "c",
                &ResourceRequest::new(vec![CoreId(3)], vec![(ZoneId(0), 32 * 1024 * 1024)]),
            )
            .unwrap();
        let r1 = e1.resources().mem[0];
        let seg = PhysRange::new(r1.start.add(r1.len - 2 * 1024 * 1024), 2 * 1024 * 1024);
        master.export_segment(e1.id.0, "x", seg).unwrap();
        master.attach_segment(e2.id.0, "x").unwrap();

        let vctx2 = ctl.context(e2.id.0).unwrap();
        let mem = &master.pisces().node().mem;
        assert!(vctx2
            .ept
            .as_ref()
            .unwrap()
            .translate(
                covirt_simhw::addr::GuestPhysAddr::new(seg.start.raw()),
                Access::Write,
                &DirectLoad(mem)
            )
            .is_ok());
        master.detach_segment(e2.id.0, "x").unwrap();
        assert!(vctx2
            .ept
            .as_ref()
            .unwrap()
            .translate(
                covirt_simhw::addr::GuestPhysAddr::new(seg.start.raw()),
                Access::Read,
                &DirectLoad(mem)
            )
            .is_err());
    }

    /// Whether `enclave`'s EPT translates the first byte of `range`.
    fn ept_maps(
        ctl: &CovirtController,
        master: &MasterControl,
        enclave: u64,
        range: PhysRange,
    ) -> bool {
        ctl.context(enclave)
            .unwrap()
            .ept
            .as_ref()
            .unwrap()
            .translate(
                covirt_simhw::addr::GuestPhysAddr::new(range.start.raw()),
                Access::Read,
                &DirectLoad(&master.pisces().node().mem),
            )
            .is_ok()
    }

    #[test]
    fn xemem_attach_without_kernel_leaves_no_attachment_or_ept_mapping() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (e1, _k1) = master.bring_up_enclave("p", &req()).unwrap();
        // Launched through Pisces (so Covirt built its context), but no
        // Kitten kernel was ever registered with the master.
        let e2 = master
            .pisces()
            .create_enclave(
                "c",
                &ResourceRequest::new(vec![CoreId(3)], vec![(ZoneId(0), 32 * 1024 * 1024)]),
            )
            .unwrap();
        master.pisces().launch(&e2).unwrap();
        let r1 = e1.resources().mem[0];
        let seg = PhysRange::new(r1.start.add(r1.len - 2 * 1024 * 1024), 2 * 1024 * 1024);
        let segid = master.export_segment(e1.id.0, "x", seg).unwrap();

        for _ in 0..2 {
            assert!(matches!(
                master.attach_segment(e2.id.0, "x"),
                Err(hobbes::HobbesError::NoKernel(_))
            ));
        }
        assert!(master.xemem().attachments(segid).unwrap().is_empty());
        assert!(!ept_maps(&ctl, &master, e2.id.0, seg));
    }

    #[test]
    fn xemem_attach_failing_mid_map_rolls_back_guest_xemem_and_ept() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (e1, _k1) = master.bring_up_enclave("p", &req()).unwrap();
        let (e2, k2) = master
            .bring_up_enclave(
                "c",
                &ResourceRequest::new(vec![CoreId(3)], vec![(ZoneId(0), 32 * 1024 * 1024)]),
            )
            .unwrap();
        let r1 = e1.resources().mem[0];
        let seg = PhysRange::new(r1.start.add(r1.len - 4 * 1024 * 1024), 4 * 1024 * 1024);
        let segid = master.export_segment(e1.id.0, "x", seg).unwrap();
        // Leave the consumer a leaf table for the segment's first 2 MiB and
        // no free table frame: the attach maps 512 pages, then fails.
        let pt = &k2.page_tables;
        pt.map(seg.start.raw(), seg.start, PAGE_SIZE_4K, Perms::RWX, 1)
            .unwrap();
        pt.unmap(seg.start.raw(), PAGE_SIZE_4K).unwrap();
        let far = 1u64 << 40;
        let filler = |k: u64| {
            let va = far + k * 2 * 1024 * 1024;
            pt.map(va, HostPhysAddr::new(va), PAGE_SIZE_4K, Perms::RWX, 1)
        };
        let k = (0..).find(|&k| filler(k).is_err()).unwrap();
        assert!(matches!(
            filler(k + 1),
            Err(covirt_simhw::error::HwError::OutOfMemory { .. })
        ));

        for _ in 0..2 {
            // A retry fails the same way, not with `AlreadyAttached`.
            assert!(matches!(
                master.attach_segment(e2.id.0, "x"),
                Err(hobbes::HobbesError::Kitten(_))
            ));
            assert!(master.xemem().attachments(segid).unwrap().is_empty());
            assert!(
                k2.translate(seg.start.raw()).is_err(),
                "partial map left behind"
            );
            assert!(k2
                .memmap()
                .by_kind(kitten::memmap::RegionKind::Shared)
                .is_empty());
            assert!(!ept_maps(&ctl, &master, e2.id.0, seg));
        }
    }

    #[test]
    fn fault_report_flows_to_master() {
        let (master, ctl) = setup(CovirtConfig::MEM);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        ctl.report_fault(enclave.id.0, 1, "EPT violation at 0xdead");
        assert_eq!(ctl.faults.count(), 1);
        assert!(matches!(enclave.state(), pisces::EnclaveState::Failed(_)));
    }

    #[test]
    fn teardown_drops_context() {
        let (master, ctl) = setup(CovirtConfig::NONE);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        assert!(ctl.context(enclave.id.0).is_ok());
        master.pisces().teardown(&enclave).unwrap();
        assert!(matches!(
            ctl.context(enclave.id.0),
            Err(CovirtError::NoContext(_))
        ));
    }

    #[test]
    fn no_memory_protection_means_no_ept() {
        let (master, ctl) = setup(CovirtConfig::NONE);
        let (enclave, _kernel) = master.bring_up_enclave("e0", &req()).unwrap();
        let vctx = ctl.context(enclave.id.0).unwrap();
        assert!(vctx.ept.is_none());
        // Reclaim with no EPT is a no-op and must not fail.
        let range = master
            .pisces()
            .add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        let k = master.kernel(enclave.id.0).unwrap();
        k.poll_ctrl().unwrap();
        master.pisces().process_acks(&enclave).unwrap();
        master
            .pisces()
            .request_remove_memory(&enclave, range)
            .unwrap();
        k.poll_ctrl().unwrap();
        master.pisces().process_acks(&enclave).unwrap();
    }
}
