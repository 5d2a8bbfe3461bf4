//! The guest execution environment.
//!
//! A [`GuestCore`] is "code running on one enclave CPU": it owns the core's
//! TLB and (when Covirt is interposed) the per-core hypervisor instance,
//! and provides the primitives simulated guest software uses —
//!
//! * **memory access** through the translation path: TLB probe on the hit
//!   path (identical in every configuration), a real page walk on the miss
//!   path — one-level natively, nested guest×EPT under Covirt memory
//!   protection. Overheads therefore *emerge* from executed walk code.
//! * **IPI transmission** through the ICR — direct natively, trapped and
//!   whitelisted under IPI protection.
//! * **safe points** ([`GuestCore::poll`]) where timers fire, NMIs drain
//!   the command queue, and pending interrupts are delivered (with VM
//!   exits where the configuration requires them).
//!
//! A thread drives at most one `GuestCore`, mirroring hardware ownership.

use crate::config::ExecMode;
use crate::controller::CovirtController;
use crate::hypervisor::{model_delay_ns, ExitAction, Hypervisor};
use crate::vctx::{VirtContext, CMD_DOORBELL_VECTOR, PIV_NOTIFICATION_VECTOR, TIMER_VECTOR};
use crate::{CovirtError, CovirtResult};
use covirt_simhw::addr::{GuestPhysAddr, HostPhysAddr};
use covirt_simhw::apic::{IcrCommand, ICR_MODE_FIXED, ICR_SH_NONE};
use covirt_simhw::cpu::Cpu;
use covirt_simhw::ept::{Ept, WalkCache};
use covirt_simhw::error::HwError;
use covirt_simhw::exit::ExitReason;
use covirt_simhw::memory::{PhysMemory, RegionCache};
use covirt_simhw::node::SimNode;
use covirt_simhw::paging::{Access, CachedLoad, TableLoad};
use covirt_simhw::tlb::{Tlb, TlbParams};
use covirt_trace::{Counter, EventKind, Hist, Phase, PhaseTracker, Tracer};
use kitten::faults::InjectedFault;
use kitten::KittenKernel;
use std::cell::Cell;
use std::sync::Arc;

/// Modelled cost of the guest's timer-interrupt handler (the detour the
/// Selfish benchmark sees even natively).
pub const TIMER_HANDLER_NS: u64 = 400;

/// Per-core instrumentation counters (non-atomic: one thread per core).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreCounters {
    /// Data-path reads.
    pub reads: u64,
    /// Data-path writes.
    pub writes: u64,
    /// Page walks performed (TLB misses).
    pub walks: u64,
    /// Total table-entry loads across all walks.
    pub walk_loads: u64,
    /// IPIs transmitted by guest code.
    pub ipis_sent: u64,
    /// Timer interrupts handled.
    pub timer_irqs: u64,
    /// Inter-processor interrupts handled (incl. harvested posted ones).
    pub ipi_irqs: u64,
    /// Vectors harvested from the posted-interrupt descriptor.
    pub posted_harvested: u64,
    /// Command doorbells harvested in guest mode (exitless delivery).
    pub cmd_doorbells: u64,
    /// Commands drained and executed in guest mode — no VM exit paid.
    pub cmd_harvested: u64,
    /// Safe-point polls executed.
    pub polls: u64,
    /// EPT walk-cache hits (guest PT-entry loads answered without an EPT
    /// walk).
    pub walk_cache_hits: u64,
    /// EPT walk-cache misses (PT-entry loads that paid the full EPT walk).
    pub walk_cache_misses: u64,
    /// Region-cache hits: physical resolves answered core-locally, without
    /// searching the populate snapshot.
    pub resolve_hits: u64,
    /// Region-cache misses: resolves that searched the populate snapshot.
    pub resolve_misses: u64,
}

impl CoreCounters {
    /// Region-cache hit rate over all resolves this core performed.
    pub fn resolve_hit_rate(&self) -> f64 {
        crate::stats::ratio(self.resolve_hits, self.resolve_hits + self.resolve_misses)
    }
}

/// Outcome of executing an injected fault (see [`GuestCore::execute_fault`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Covirt trapped the access and terminated the enclave; the node and
    /// other enclaves survive. The string is the abort reason.
    Contained(String),
    /// The wild access went through and silently corrupted memory that
    /// belongs to someone else (native co-kernel behaviour).
    CorruptedMemory {
        /// The victim address.
        addr: HostPhysAddr,
    },
    /// The wild access hit unbacked/reclaimed memory — on real hardware
    /// this is the machine-check / node-crash case.
    NodeCrash(String),
    /// The errant IPI was delivered to its victim (native behaviour).
    IpiDelivered {
        /// The victim core.
        victim: usize,
        /// The vector raised on it.
        vector: u8,
    },
    /// The errant IPI was dropped by the hypervisor whitelist.
    IpiBlocked,
}

/// Nested table-entry loader: every guest page-table entry load itself
/// goes through an EPT walk, which is how nested paging multiplies walk
/// cost on hardware (up to 24 loads for a 4-level guest walk).
///
/// When a [`WalkCache`] is attached it models the hardware paging-structure
/// cache: PT-entry pages whose EPT translation is cached (and whose fill
/// generation still matches) resolve in zero extra loads. The generation is
/// sampled once per guest walk — a concurrent controller unmap invalidates
/// every cached line for subsequent walks, never mid-line.
struct NestedLoad<'a> {
    ept: &'a Ept,
    mem: &'a PhysMemory,
    loads: Cell<u32>,
    cache: Option<&'a WalkCache>,
    generation: u64,
    /// Core-local region cache shared with the owning [`GuestCore`], so
    /// off-pool entry loads (both the EPT walk's and the guest walk's)
    /// skip the populate-snapshot search.
    region_cache: &'a RegionCache,
}

impl TableLoad for NestedLoad<'_> {
    fn translate_entry_addr(&self, pa: HostPhysAddr) -> Result<(HostPhysAddr, u32), HwError> {
        if let Some(cache) = self.cache {
            if let Some(host) = cache.lookup(pa.raw(), self.generation) {
                return Ok((HostPhysAddr::new(host), 0));
            }
        }
        let t = self.ept.translate(
            GuestPhysAddr::new(pa.raw()),
            Access::Read,
            &CachedLoad {
                mem: self.mem,
                cache: self.region_cache,
            },
        )?;
        self.loads.set(self.loads.get() + t.loads);
        if let Some(cache) = self.cache {
            cache.insert(pa.raw(), t.pa.raw(), self.generation);
        }
        Ok((t.pa, t.loads))
    }

    #[inline]
    fn load_word(&self, mem: &PhysMemory, pa: HostPhysAddr) -> Result<u64, HwError> {
        let (b, off) = self.region_cache.resolve(mem, pa, 8)?;
        Ok(b.read_u64(off))
    }
}

/// One enclave CPU executing guest software.
pub struct GuestCore {
    /// The core id.
    pub core: usize,
    node: Arc<SimNode>,
    kernel: Arc<KittenKernel>,
    cpu: Arc<Cpu>,
    vctx: Option<Arc<VirtContext>>,
    hv: Option<Hypervisor>,
    controller: Option<Arc<CovirtController>>,
    /// This core's command-doorbell descriptor, cached at launch so the
    /// per-poll harvest check is two atomic loads, not a map lookup.
    doorbell: Option<Arc<covirt_simhw::posted::PostedIntDescriptor>>,
    /// This core's command queue, cached for the same reason.
    cmdq: Option<crate::cmdqueue::CmdQueue>,
    tlb: Tlb,
    /// Paging-structure cache for nested walks (per-core, like the TLB).
    walk_cache: WalkCache,
    walk_cache_enabled: bool,
    /// Last-resolved-region cache for TLB fills and off-pool walk loads
    /// (per-core; invalidated by the populate generation).
    region_cache: RegionCache,
    /// Instrumentation.
    pub counters: CoreCounters,
    /// Flight-recorder handle for this core's lane.
    tracer: Tracer,
    /// covirt-prof phase state machine for this core's lane. Dormant (one
    /// cached-bool branch per transition) until a harness arms it with
    /// [`GuestCore::profile_begin`].
    phase: PhaseTracker,
    terminated: Option<String>,
}

impl GuestCore {
    /// Boot guest execution on `core` natively (no hypervisor).
    pub fn launch_native(
        node: Arc<SimNode>,
        kernel: Arc<KittenKernel>,
        core: usize,
        tlb: TlbParams,
    ) -> CovirtResult<Self> {
        let cpu = Arc::clone(node.cpu(covirt_simhw::topology::CoreId(core))?);
        let tracer = node.tracer(core as u32);
        let phase = PhaseTracker::new(Arc::clone(node.recorder().profiler()), core as u32);
        let mut tlb = Tlb::new(tlb);
        tlb.set_tracer(tracer.clone());
        let gc = GuestCore {
            core,
            node,
            kernel,
            cpu,
            vctx: None,
            hv: None,
            controller: None,
            doorbell: None,
            cmdq: None,
            tlb,
            walk_cache: WalkCache::new(WalkCache::DEFAULT_ENTRIES),
            walk_cache_enabled: true,
            region_cache: RegionCache::new(),
            counters: CoreCounters::default(),
            tracer,
            phase,
            terminated: None,
        };
        gc.arm_timer();
        Ok(gc)
    }

    /// Boot guest execution on `core` under the Covirt hypervisor. The
    /// enclave must have been launched through a `CovirtController`-hooked
    /// Pisces host so its virtualization context exists.
    pub fn launch_covirt(
        node: Arc<SimNode>,
        kernel: Arc<KittenKernel>,
        controller: Arc<CovirtController>,
        core: usize,
        tlb: TlbParams,
    ) -> CovirtResult<Self> {
        let vctx = controller.context(kernel.params.enclave_id)?;
        let cpu = Arc::clone(node.cpu(covirt_simhw::topology::CoreId(core))?);
        let hv = Hypervisor::launch(Arc::clone(&node), Arc::clone(&vctx), core)?;
        let tracer = node.tracer(core as u32).with_enclave(vctx.enclave_id);
        let mut phase = PhaseTracker::new(Arc::clone(node.recorder().profiler()), core as u32);
        phase.set_enclave(vctx.enclave_id);
        let mut tlb = Tlb::new(tlb);
        tlb.set_tracer(tracer.clone());
        let doorbell = vctx.cmd_doorbell(core).cloned();
        if let Some(d) = &doorbell {
            // A covirt guest loop checks the descriptor at every safe
            // point, so the physical notification IPI adds nothing while
            // the core runs — suppress it (the SN bit). Parked cores are
            // covered by the controller's bounded NMI fallback, which
            // watches the completion counter, not the interrupt.
            d.set_suppress(true);
        }
        let cmdq = vctx.cmdq(core).cloned();
        // Tag this core's region cache with the enclave's view: sibling
        // enclaves' grant/reclaim churn leaves it hot, and the controller
        // bumps the view after any unmap affecting this enclave.
        let region_cache = RegionCache::new();
        region_cache.set_view(Some(Arc::clone(&vctx.region_view)));
        let gc = GuestCore {
            core,
            node,
            kernel,
            cpu,
            vctx: Some(vctx),
            hv: Some(hv),
            controller: Some(controller),
            doorbell,
            cmdq,
            tlb,
            walk_cache: WalkCache::new(WalkCache::DEFAULT_ENTRIES),
            walk_cache_enabled: true,
            region_cache,
            counters: CoreCounters::default(),
            tracer,
            phase,
            terminated: None,
        };
        gc.arm_timer();
        Ok(gc)
    }

    fn arm_timer(&self) {
        if let Some(period) = self.kernel.timer_policy.period_ns() {
            self.cpu.apic.arm_timer(period, true, TIMER_VECTOR);
        }
    }

    /// The execution mode this core runs in.
    pub fn mode(&self) -> ExecMode {
        match &self.vctx {
            Some(v) => ExecMode::Covirt(v.config),
            None => ExecMode::Native,
        }
    }

    /// The kernel this core runs.
    pub fn kernel(&self) -> &Arc<KittenKernel> {
        &self.kernel
    }

    /// RDTSC.
    #[inline]
    pub fn rdtsc(&self) -> u64 {
        self.node.clock.rdtsc()
    }

    /// The node clock.
    pub fn clock(&self) -> &Arc<covirt_simhw::clock::TscClock> {
        &self.node.clock
    }

    /// Arm the covirt-prof phase state machine for this core, entering
    /// [`Phase::GuestExec`] now. Samples the profiler's enabled flag once:
    /// when the profiler is off, every subsequent transition is a single
    /// cached-bool branch.
    pub fn profile_begin(&mut self) {
        let t = self.node.clock.rdtsc();
        self.phase.begin(t);
    }

    /// Disarm the phase state machine, attributing the trailing cycles and
    /// closing the conservation interval (`wall == accounted` exactly for
    /// a bracketed session).
    pub fn profile_finish(&mut self) {
        let t = self.node.clock.rdtsc();
        self.phase.finish(t);
    }

    /// Dispatch one VM exit through the hypervisor with the phase state
    /// machine bracketing it: [`Phase::RootExit`] for the dispatch, then
    /// back to the interrupted phase (guest context or safe-point
    /// servicing) — or [`Phase::Idle`] when the exit terminated the
    /// enclave. Associated fn so call sites can borrow `hv`, `tlb` and
    /// the tracker disjointly.
    fn dispatch_exit(
        phase: &mut PhaseTracker,
        clock: &covirt_simhw::clock::TscClock,
        hv: &mut Hypervisor,
        tlb: &mut Tlb,
        reason: ExitReason,
    ) -> ExitAction {
        let prev = phase.phase();
        phase.transition_now(Phase::RootExit, || clock.rdtsc());
        let action = hv.handle_exit(reason, tlb);
        let next = match action {
            ExitAction::Resume => prev,
            ExitAction::Terminate(_) => Phase::Idle,
        };
        phase.transition_now(next, || clock.rdtsc());
        action
    }

    /// TLB statistics snapshot.
    pub fn tlb_stats(&self) -> covirt_simhw::tlb::TlbStats {
        self.tlb.stats()
    }

    /// Snapshot of the per-core counters with the cache-private hit/miss
    /// tallies folded in. The caches keep their own core-local tallies so
    /// the miss path never copies stats per walk; the merge happens here,
    /// on the (cold) reporting path, without mutating the core.
    pub fn counters(&self) -> CoreCounters {
        let mut c = self.counters;
        let (h, m) = self.walk_cache.stats();
        c.walk_cache_hits = h;
        c.walk_cache_misses = m;
        let (h, m) = self.region_cache.stats();
        c.resolve_hits = h;
        c.resolve_misses = m;
        c
    }

    /// Publish this core's counters and TLB statistics into the node's
    /// metrics registry (absolute stores, so republishing is idempotent).
    /// This is the single stat-copy path: harnesses read the registry
    /// instead of hand-copying individual counter fields.
    pub fn publish_metrics(&self) {
        let reg = self.node.recorder().metrics();
        let lane = self.core;
        let c = self.counters();
        let t = self.tlb.stats();
        for (k, v) in [
            (Counter::Reads, c.reads),
            (Counter::Writes, c.writes),
            (Counter::Walks, c.walks),
            (Counter::WalkLoads, c.walk_loads),
            (Counter::IpisSent, c.ipis_sent),
            (Counter::TimerIrqs, c.timer_irqs),
            (Counter::IpiIrqs, c.ipi_irqs),
            (Counter::PostedHarvested, c.posted_harvested),
            (Counter::CmdDoorbells, c.cmd_doorbells),
            (Counter::CmdHarvested, c.cmd_harvested),
            (Counter::Polls, c.polls),
            (Counter::WalkCacheHits, c.walk_cache_hits),
            (Counter::WalkCacheMisses, c.walk_cache_misses),
            (Counter::ResolveHits, c.resolve_hits),
            (Counter::ResolveMisses, c.resolve_misses),
            (Counter::TlbHits, t.hits),
            (Counter::TlbMisses, t.misses),
            (Counter::TlbFullFlushes, t.full_flushes),
            (Counter::TlbPageFlushes, t.page_flushes),
            (Counter::TlbRangeFlushes, t.range_flushes),
            (Counter::Exits, self.exit_count()),
        ] {
            reg.set(lane, k, v);
        }
    }

    /// Enable or disable the EPT walk cache (ablation knob; on by default).
    pub fn set_walk_cache_enabled(&mut self, enabled: bool) {
        self.walk_cache_enabled = enabled;
    }

    /// Restrict the region cache's associativity (ablation knob; full
    /// associativity by default).
    pub fn set_region_cache_ways(&mut self, ways: usize) {
        self.region_cache.set_ways(ways);
    }

    /// If the enclave was terminated on this core, why.
    pub fn terminated(&self) -> Option<&str> {
        self.terminated.as_deref()
    }

    /// Hypervisor exit count on this core (0 when native).
    pub fn exit_count(&self) -> u64 {
        self.hv.as_ref().map(|h| h.exits).unwrap_or(0)
    }

    fn die(&mut self, reason: String) -> CovirtError {
        self.phase
            .transition_now(Phase::Idle, || self.node.clock.rdtsc());
        self.terminated = Some(reason.clone());
        if let (Some(ctl), Some(vctx)) = (&self.controller, &self.vctx) {
            ctl.report_fault(vctx.enclave_id, self.core, &reason);
        }
        CovirtError::EnclaveTerminated(reason)
    }

    /// Translate `gva` for `access`, filling the TLB. Returns the host
    /// pointer for the exact byte and the bytes remaining in the page.
    #[inline]
    fn translate(&mut self, gva: u64, access: Access) -> CovirtResult<(*mut u8, u64)> {
        if let Some(reason) = &self.terminated {
            // The hypervisor parked this core; no further guest execution.
            return Err(CovirtError::EnclaveTerminated(reason.clone()));
        }
        if let Some(hit) = self.tlb.lookup(gva) {
            if access == Access::Write && !hit.writable {
                return self.protection_fault(gva, access);
            }
            return Ok((hit.host_ptr, hit.remaining));
        }
        self.translate_slow(gva, access)
    }

    #[cold]
    fn translate_slow(&mut self, gva: u64, access: Access) -> CovirtResult<(*mut u8, u64)> {
        self.counters.walks += 1;
        let prev = self.phase.phase();
        self.phase
            .transition_now(Phase::RegionResolve, || self.node.clock.rdtsc());
        let t0 = self.tracer.enabled().then(std::time::Instant::now);
        let mem = &self.node.mem;
        let ept = self.vctx.as_ref().and_then(|v| v.ept.clone());

        let (t, writable) = if let Some(ept) = ept.as_deref() {
            // Nested translation: guest walk with EPT-translated entry
            // loads, then the EPT translation of the final address. The
            // walk cache short-circuits PT-entry EPT walks; the *data*
            // page's EPT translation always runs (it carries the access
            // permission check).
            let loader = NestedLoad {
                ept,
                mem,
                loads: Cell::new(0),
                cache: self.walk_cache_enabled.then_some(&self.walk_cache),
                generation: ept.generation(),
                region_cache: &self.region_cache,
            };
            let gt = match self.kernel.page_tables.walk(gva, &loader) {
                Ok(t) => t,
                Err(HwError::EptViolation { gpa, .. }) => {
                    self.counters.walk_loads += loader.loads.get() as u64;
                    return self.ept_violation(gpa, Access::Read);
                }
                Err(HwError::PageNotPresent { .. }) => {
                    return Err(CovirtError::Invalid("guest page fault (not mapped)"));
                }
                Err(e) => return Err(e.into()),
            };
            self.counters.walk_loads += loader.loads.get() as u64;
            let et = match ept.translate(
                GuestPhysAddr::new(gt.pa.raw()),
                access,
                &CachedLoad {
                    mem,
                    cache: &self.region_cache,
                },
            ) {
                Ok(t) => t,
                Err(HwError::EptViolation { gpa, .. }) => {
                    return self.ept_violation(gpa, access);
                }
                Err(e) => return Err(e.into()),
            };
            self.counters.walk_loads += et.loads as u64;
            // Cache the *guest* page geometry; permissions are the
            // intersection of guest and EPT rights.
            (gt, gt.perms.w && et.perms.w)
        } else {
            let loader = CachedLoad {
                mem,
                cache: &self.region_cache,
            };
            let t = match self.kernel.page_tables.walk(gva, &loader) {
                Ok(t) => t,
                Err(HwError::PageNotPresent { .. }) => {
                    return Err(CovirtError::Invalid("guest page fault (not mapped)"));
                }
                Err(e) => return Err(e.into()),
            };
            self.counters.walk_loads += t.loads as u64;
            if access == Access::Write && !t.perms.w {
                return Err(CovirtError::Invalid("write to read-only mapping"));
            }
            (t, t.perms.w)
        };

        // Resolve host backing for the whole page and fill the TLB. The
        // region cache pins the last grant region, so consecutive fills in
        // the same region skip the snapshot search entirely.
        let page_gva = gva - gva % t.page_size;
        let (backing, off) = self.region_cache.resolve(mem, t.page_base, t.page_size)?;
        let base_ptr = backing.ptr_at(off);
        self.tlb
            .insert(page_gva, t.page_size, base_ptr, backing, writable);
        let in_page = gva - page_gva;
        if let Some(t0) = t0 {
            self.tracer
                .observe(Hist::ResolveMissNs, t0.elapsed().as_nanos() as u64);
        }
        self.phase.transition_now(prev, || self.node.clock.rdtsc());
        // SAFETY: in_page < page_size, and the resolve covered the page.
        Ok(unsafe { (base_ptr.add(in_page as usize), t.page_size - in_page) })
    }

    fn ept_violation(
        &mut self,
        gpa: GuestPhysAddr,
        access: Access,
    ) -> CovirtResult<(*mut u8, u64)> {
        let reason = ExitReason::EptViolation(covirt_simhw::ept::EptViolationInfo { gpa, access });
        let hv = self.hv.as_mut().expect("EPT violation without hypervisor");
        match Self::dispatch_exit(&mut self.phase, &self.node.clock, hv, &mut self.tlb, reason) {
            ExitAction::Terminate(r) => Err(self.die(r)),
            ExitAction::Resume => unreachable!("EPT violations are abort-class"),
        }
    }

    fn protection_fault(&mut self, gva: u64, access: Access) -> CovirtResult<(*mut u8, u64)> {
        if self.vctx.as_ref().is_some_and(|v| v.ept.is_some()) {
            self.ept_violation(GuestPhysAddr::new(gva), access)
        } else {
            Err(CovirtError::Invalid("write to read-only mapping"))
        }
    }

    /// Read a 64-bit word at `gva`.
    #[inline]
    pub fn read_u64(&mut self, gva: u64) -> CovirtResult<u64> {
        self.counters.reads += 1;
        let (p, _) = self.translate(gva, Access::Read)?;
        debug_assert_eq!(gva % 8, 0);
        // SAFETY: p points at 8 aligned mapped bytes inside a live Backing.
        // Relaxed atomic access models coherent DRAM and keeps racing
        // guest accesses (which real co-kernels do perform) defined.
        Ok(unsafe {
            (*(p as *const std::sync::atomic::AtomicU64)).load(std::sync::atomic::Ordering::Relaxed)
        })
    }

    /// Write a 64-bit word at `gva`.
    #[inline]
    pub fn write_u64(&mut self, gva: u64, value: u64) -> CovirtResult<()> {
        self.counters.writes += 1;
        let (p, _) = self.translate(gva, Access::Write)?;
        debug_assert_eq!(gva % 8, 0);
        // SAFETY: p points at 8 aligned mapped writable bytes inside a live
        // Backing; relaxed atomic store keeps racing guest writes defined.
        unsafe {
            (*(p as *const std::sync::atomic::AtomicU64))
                .store(value, std::sync::atomic::Ordering::Relaxed)
        };
        Ok(())
    }

    /// Read an `f64` at `gva`.
    #[inline]
    pub fn read_f64(&mut self, gva: u64) -> CovirtResult<f64> {
        Ok(f64::from_bits(self.read_u64(gva)?))
    }

    /// Write an `f64` at `gva`.
    #[inline]
    pub fn write_f64(&mut self, gva: u64, value: f64) -> CovirtResult<()> {
        self.write_u64(gva, value.to_bits())
    }

    /// Stream over `[gva, gva + count*size_of::<T>())` as mutable slices,
    /// one per contiguous translated span (at most one page each). `f`
    /// receives the element offset of the chunk and the chunk itself.
    ///
    /// # Safety contract (internal)
    ///
    /// The slices alias guest memory. The caller must logically own the
    /// range (no other core mutating it concurrently) — the same contract
    /// an OpenMP workload has for its partitioned arrays.
    pub fn with_chunks_mut<T: Copy>(
        &mut self,
        gva: u64,
        count: usize,
        mut f: impl FnMut(usize, &mut [T]),
    ) -> CovirtResult<()> {
        let esz = std::mem::size_of::<T>() as u64;
        debug_assert!(gva.is_multiple_of(esz));
        let mut done = 0usize;
        while done < count {
            let cur = gva + done as u64 * esz;
            let (p, remaining) = self.translate(cur, Access::Write)?;
            let n = ((remaining / esz) as usize).min(count - done).max(1);
            // SAFETY: p is valid for `n * esz` bytes within one mapped
            // page; T is Copy/POD by bound; exclusive logical ownership is
            // the caller's contract.
            let slice = unsafe { std::slice::from_raw_parts_mut(p as *mut T, n) };
            f(done, slice);
            done += n;
        }
        self.counters.writes += count as u64;
        Ok(())
    }

    /// Immutable variant of [`GuestCore::with_chunks_mut`].
    pub fn with_chunks<T: Copy>(
        &mut self,
        gva: u64,
        count: usize,
        mut f: impl FnMut(usize, &[T]),
    ) -> CovirtResult<()> {
        let esz = std::mem::size_of::<T>() as u64;
        debug_assert!(gva.is_multiple_of(esz));
        let mut done = 0usize;
        while done < count {
            let cur = gva + done as u64 * esz;
            let (p, remaining) = self.translate(cur, Access::Read)?;
            let n = ((remaining / esz) as usize).min(count - done).max(1);
            // SAFETY: as above, read-only.
            let slice = unsafe { std::slice::from_raw_parts(p as *const T, n) };
            f(done, slice);
            done += n;
        }
        self.counters.reads += count as u64;
        Ok(())
    }

    /// Transmit an IPI (fixed vector) to `dest`.
    pub fn send_ipi(&mut self, dest: usize, vector: u8) -> CovirtResult<()> {
        if let Some(reason) = &self.terminated {
            return Err(CovirtError::EnclaveTerminated(reason.clone()));
        }
        self.counters.ipis_sent += 1;
        let icr = IcrCommand {
            vector,
            mode: ICR_MODE_FIXED,
            dest: dest as u32,
            shorthand: ICR_SH_NONE,
        }
        .encode();
        let protected = self.vctx.as_ref().is_some_and(|v| v.config.ipi.is_some());
        if protected {
            let hv = self.hv.as_mut().expect("covirt mode without hypervisor");
            match Self::dispatch_exit(
                &mut self.phase,
                &self.node.clock,
                hv,
                &mut self.tlb,
                ExitReason::IcrWrite { value: icr },
            ) {
                ExitAction::Terminate(r) => return Err(self.die(r)),
                ExitAction::Resume => {}
            }
        } else {
            self.cpu.apic.icr_write(icr)?;
        }
        Ok(())
    }

    /// Execute CPUID (always exits under any hypervisor).
    pub fn cpuid(&mut self, leaf: u32) -> CovirtResult<()> {
        if let Some(hv) = self.hv.as_mut() {
            match Self::dispatch_exit(
                &mut self.phase,
                &self.node.clock,
                hv,
                &mut self.tlb,
                ExitReason::Cpuid { leaf },
            ) {
                ExitAction::Terminate(r) => return Err(self.die(r)),
                ExitAction::Resume => {}
            }
        }
        Ok(())
    }

    /// WRMSR from guest code.
    pub fn wrmsr(&mut self, index: u32, value: u64) -> CovirtResult<()> {
        let exits = match &self.vctx {
            Some(v) => v.msr_bitmap.read().write_exits(index),
            None => false,
        };
        if exits {
            let hv = self.hv.as_mut().expect("covirt mode without hypervisor");
            match Self::dispatch_exit(
                &mut self.phase,
                &self.node.clock,
                hv,
                &mut self.tlb,
                ExitReason::MsrWrite { index, value },
            ) {
                ExitAction::Terminate(r) => return Err(self.die(r)),
                ExitAction::Resume => {}
            }
        } else {
            self.cpu.msrs.write(index, value);
        }
        Ok(())
    }

    /// OUT instruction from guest code.
    pub fn io_write(&mut self, port: u16, value: u32) -> CovirtResult<()> {
        let exits = match &self.vctx {
            Some(v) => v.io_bitmap.read().exits(port),
            None => false,
        };
        if exits {
            let hv = self.hv.as_mut().expect("covirt mode without hypervisor");
            match Self::dispatch_exit(
                &mut self.phase,
                &self.node.clock,
                hv,
                &mut self.tlb,
                ExitReason::IoWrite { port, value },
            ) {
                ExitAction::Terminate(r) => return Err(self.die(r)),
                ExitAction::Resume => {}
            }
        } else {
            self.node.ioports.write(port, value);
        }
        Ok(())
    }

    /// Safe point: fire due timers, service NMIs (command queue), deliver
    /// pending interrupts — with VM exits where the configuration demands.
    pub fn poll(&mut self) -> CovirtResult<()> {
        if let Some(reason) = &self.terminated {
            return Err(CovirtError::EnclaveTerminated(reason.clone()));
        }
        self.counters.polls += 1;
        self.phase
            .transition_now(Phase::SafePoint, || self.node.clock.rdtsc());
        self.cpu.apic.poll_timer();
        let mailbox = self.node.interconnect.mailbox(self.core)?;

        // NMIs first (they are never maskable and always exit under VMX).
        while mailbox.take_nmi() {
            if let Some(hv) = self.hv.as_mut() {
                match Self::dispatch_exit(
                    &mut self.phase,
                    &self.node.clock,
                    hv,
                    &mut self.tlb,
                    ExitReason::Nmi,
                ) {
                    ExitAction::Terminate(r) => return Err(self.die(r)),
                    ExitAction::Resume => {}
                }
            }
        }

        // Opportunistic doorbell harvest: every safe point checks the
        // command-doorbell descriptor directly (cached Arc, two atomic
        // loads on the no-work path, no clone, no allocation), so pending
        // commands are drained exitlessly even before (or without) the
        // notification IPI landing in the IRR. With the descriptor's
        // suppress-notification bit set at launch, this check IS the
        // delivery path in steady state.
        if self
            .doorbell
            .as_ref()
            .is_some_and(|d| d.notification_outstanding() || d.has_pending())
        {
            if let Some(d) = &self.doorbell {
                d.acknowledge();
            }
            self.counters.cmd_doorbells += 1;
            self.harvest_commands()?;
        }

        // Fixed vectors.
        let ext_exits = self
            .vctx
            .as_ref()
            .is_some_and(|v| v.config.exits_on_external_interrupts());
        loop {
            let mailbox = self.node.interconnect.mailbox(self.core)?;
            let Some(vector) = mailbox.irr.pop_highest() else {
                break;
            };
            if self.doorbell.is_some() && vector == CMD_DOORBELL_VECTOR {
                // The physical doorbell notification. The descriptor was
                // (or will be) harvested by the safe-point check above;
                // consume the vector without a VM exit and without
                // delivering it to the guest — it is not a guest IRQ.
                if self
                    .doorbell
                    .as_ref()
                    .is_some_and(|d| d.notification_outstanding() || d.has_pending())
                {
                    if let Some(d) = &self.doorbell {
                        d.acknowledge();
                    }
                    self.counters.cmd_doorbells += 1;
                    self.harvest_commands()?;
                }
                continue;
            }
            if vector == PIV_NOTIFICATION_VECTOR {
                // Only cloned on the (rare) notification arrival, never on
                // the empty-IRR hot path.
                let piv = self
                    .vctx
                    .as_ref()
                    .and_then(|v| v.posted(self.core))
                    .cloned();
                if let Some(desc) = piv {
                    // Exit-less delivery: harvest the PIR directly.
                    let mut harvested = 0u64;
                    for v in desc.harvest() {
                        self.deliver(v);
                        self.counters.posted_harvested += 1;
                        harvested += 1;
                    }
                    if harvested > 0 {
                        self.tracer.emit(EventKind::PostedHarvest, harvested, 0);
                    }
                    continue;
                }
            }
            if ext_exits {
                let hv = self.hv.as_mut().expect("covirt mode without hypervisor");
                match Self::dispatch_exit(
                    &mut self.phase,
                    &self.node.clock,
                    hv,
                    &mut self.tlb,
                    ExitReason::ExternalInterrupt { vector },
                ) {
                    ExitAction::Terminate(r) => return Err(self.die(r)),
                    ExitAction::Resume => {}
                }
            }
            self.deliver(vector);
        }
        self.phase
            .transition_now(Phase::GuestExec, || self.node.clock.rdtsc());
        Ok(())
    }

    /// Drain and execute the command queue in guest mode — the exitless
    /// half of command delivery. Execution semantics are shared with the
    /// NMI path ([`Hypervisor::execute_commands`]): flushes hit this
    /// core's TLB and the completion counter advances only after each
    /// command's effect is applied, so the controller's completion wait
    /// still proves unmap-before-reclaim. No VM exit is taken and the
    /// hypervisor's exit counter does not move.
    fn harvest_commands(&mut self) -> CovirtResult<()> {
        let drained = match self.cmdq.as_ref() {
            Some(q) => q.drain(),
            None => return Ok(()),
        };
        if drained.is_empty() {
            return Ok(());
        }
        self.counters.cmd_harvested += drained.len() as u64;
        if self.tracer.enabled() {
            self.tracer
                .emit(EventKind::CmdHarvest, drained.len() as u64, 0);
        }
        // Phase accounting: the drain + [`Hypervisor::execute_commands`]
        // batch is command-harvest work; return to safe-point servicing
        // once the batch is applied (poll's tail flips back to guest).
        let prev = self.phase.phase();
        self.phase
            .transition_now(Phase::CmdHarvest, || self.node.clock.rdtsc());
        let action = {
            let q = self.cmdq.as_ref().expect("drained from this queue");
            let hv = self.hv.as_mut().expect("covirt mode without hypervisor");
            hv.execute_commands(q, drained, &mut self.tlb)
        };
        self.phase.transition_now(prev, || self.node.clock.rdtsc());
        match action {
            ExitAction::Terminate(r) => Err(self.die(r)),
            ExitAction::Resume => Ok(()),
        }
    }

    /// Run the guest's interrupt handler for `vector`.
    fn deliver(&mut self, vector: u8) {
        if vector == TIMER_VECTOR {
            self.counters.timer_irqs += 1;
            model_delay_ns(TIMER_HANDLER_NS);
        } else {
            self.counters.ipi_irqs += 1;
        }
    }

    /// Execute an injected fault and classify what happened — the
    /// fault-isolation demonstration of Section V.
    pub fn execute_fault(&mut self, fault: InjectedFault) -> FaultOutcome {
        match fault {
            InjectedFault::WildAccess { addr, write } => {
                let r = if write {
                    self.write_u64(addr.raw() & !7, 0xDEAD_BEEF_DEAD_BEEF)
                } else {
                    self.read_u64(addr.raw() & !7).map(|_| ())
                };
                match r {
                    Ok(()) => FaultOutcome::CorruptedMemory { addr },
                    Err(CovirtError::EnclaveTerminated(reason)) => FaultOutcome::Contained(reason),
                    Err(e) => FaultOutcome::NodeCrash(e.to_string()),
                }
            }
            InjectedFault::ErrantIpi { icr } => {
                let cmd = IcrCommand::decode(icr);
                let victim = cmd.dest as usize;
                let before = self
                    .node
                    .interconnect
                    .mailbox(victim)
                    .map(|m| m.received.load(std::sync::atomic::Ordering::Relaxed))
                    .unwrap_or(0);
                let _ = self.send_ipi(victim, cmd.vector);
                let after = self
                    .node
                    .interconnect
                    .mailbox(victim)
                    .map(|m| m.received.load(std::sync::atomic::Ordering::Relaxed))
                    .unwrap_or(0);
                if after > before {
                    FaultOutcome::IpiDelivered {
                        victim,
                        vector: cmd.vector,
                    }
                } else {
                    FaultOutcome::IpiBlocked
                }
            }
        }
    }

    /// Leave guest mode cleanly (enclave shutdown); returns (exits, ns in
    /// the hypervisor) for reporting.
    pub fn shutdown(mut self) -> (u64, u64) {
        match self.hv.take() {
            Some(hv) => hv.shutdown(),
            None => (0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CovirtConfig;
    use covirt_simhw::node::NodeConfig;
    use covirt_simhw::topology::{CoreId, ZoneId};
    use hobbes::MasterControl;
    use pisces::resources::ResourceRequest;

    struct World {
        master: Arc<MasterControl>,
        controller: Option<Arc<CovirtController>>,
        enclave: Arc<pisces::Enclave>,
        kernel: Arc<KittenKernel>,
    }

    fn world(mode: ExecMode) -> World {
        let node = covirt_simhw::node::SimNode::new(NodeConfig::small());
        let master = MasterControl::new(Arc::clone(&node));
        let controller = mode.config().map(|cfg| {
            let c = CovirtController::new(Arc::clone(&node), cfg);
            c.attach_hobbes(&master);
            c
        });
        let req = ResourceRequest::new(
            vec![CoreId(1), CoreId(2)],
            vec![(ZoneId(0), 64 * 1024 * 1024)],
        );
        let (enclave, kernel) = master.bring_up_enclave("e0", &req).unwrap();
        World {
            master,
            controller,
            enclave,
            kernel,
        }
    }

    fn core(w: &World, id: usize) -> GuestCore {
        let node = Arc::clone(w.master.pisces().node());
        match &w.controller {
            Some(c) => GuestCore::launch_covirt(
                node,
                Arc::clone(&w.kernel),
                Arc::clone(c),
                id,
                TlbParams::default(),
            )
            .unwrap(),
            None => GuestCore::launch_native(node, Arc::clone(&w.kernel), id, TlbParams::default())
                .unwrap(),
        }
    }

    fn data_gva(w: &World) -> u64 {
        let mut cursor = 0;
        w.kernel
            .alloc_contiguous(4 * 1024 * 1024, &mut cursor)
            .unwrap()
    }

    #[test]
    fn native_rw_roundtrip() {
        let w = world(ExecMode::Native);
        let mut gc = core(&w, 1);
        let a = data_gva(&w);
        gc.write_u64(a, 42).unwrap();
        gc.write_f64(a + 8, 1.5).unwrap();
        assert_eq!(gc.read_u64(a).unwrap(), 42);
        assert_eq!(gc.read_f64(a + 8).unwrap(), 1.5);
        assert!(gc.counters.walks >= 1);
        // Second access hits the TLB: walk count unchanged.
        let walks = gc.counters.walks;
        gc.read_u64(a).unwrap();
        assert_eq!(gc.counters.walks, walks);
    }

    #[test]
    fn covirt_rw_roundtrip_and_nested_walk_costs_more() {
        let wn = world(ExecMode::Native);
        let wc = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut n = core(&wn, 1);
        let mut c = core(&wc, 1);
        let an = data_gva(&wn);
        let ac = data_gva(&wc);
        n.write_u64(an, 7).unwrap();
        c.write_u64(ac, 7).unwrap();
        assert_eq!(n.read_u64(an).unwrap(), 7);
        assert_eq!(c.read_u64(ac).unwrap(), 7);
        // Same number of walks, many more loads per walk under EPT.
        assert!(
            c.counters.walk_loads > 3 * n.counters.walk_loads,
            "nested walk loads ({}) should dwarf native ({})",
            c.counters.walk_loads,
            n.counters.walk_loads
        );
    }

    #[test]
    fn walk_cache_cuts_nested_walk_loads() {
        let touch = |gc: &mut GuestCore, base: u64| {
            // Stride 2 MiB: every access is a fresh TLB miss → full walk.
            for i in 0..2 {
                gc.read_u64(base + i * 2 * 1024 * 1024).unwrap();
            }
            (gc.counters.walk_loads, gc.counters.walks)
        };
        let w_on = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut on = core(&w_on, 1);
        let a_on = data_gva(&w_on);
        on.write_u64(a_on, 1).unwrap(); // warm the cache with one walk
        let before = on.counters.walk_loads;
        let (after, _) = touch(&mut on, a_on + 8);
        let on_loads = after - before;

        let w_off = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut off = core(&w_off, 1);
        off.set_walk_cache_enabled(false);
        let a_off = data_gva(&w_off);
        off.write_u64(a_off, 1).unwrap();
        let before = off.counters.walk_loads;
        let (after, _) = touch(&mut off, a_off + 8);
        let off_loads = after - before;

        assert!(
            on_loads < off_loads,
            "walk cache must shed PT-entry EPT walks ({on_loads} vs {off_loads} loads)"
        );
        assert!(
            on.counters().walk_cache_hits > 0,
            "warm walks must hit the cache"
        );
        assert_eq!(
            off.counters().walk_cache_hits,
            0,
            "disabled cache never hits"
        );
    }

    #[test]
    fn walk_cache_invalidated_by_reclaim_generation_bump() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let ctl = w.controller.as_ref().unwrap();
        let mut gc = core(&w, 1);
        let a = data_gva(&w);
        gc.read_u64(a).unwrap();
        gc.read_u64(a + 2 * 1024 * 1024).unwrap(); // same PT pages → cache hit
        let hits_before = gc.counters().walk_cache_hits;
        assert!(hits_before > 0);

        // Unmapping an unrelated grant bumps the EPT generation, which
        // must invalidate every cached line (conservative model of the
        // paging-structure cache being flushed with the TLB).
        let range = w
            .master
            .pisces()
            .add_memory(&w.enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        w.kernel.poll_ctrl().unwrap();
        w.master.pisces().process_acks(&w.enclave).unwrap();
        let ept = ctl.context(w.enclave.id.0).unwrap().ept.clone().unwrap();
        let gen_before = ept.generation();
        ept.unmap(range).unwrap();
        assert!(ept.generation() > gen_before);

        let misses_before = gc.counters().walk_cache_misses;
        gc.read_u64(a + 4 * 1024 * 1024).unwrap(); // fresh page, same PT path
        assert!(
            gc.counters().walk_cache_misses > misses_before,
            "generation bump must force a cold re-walk"
        );
    }

    #[test]
    fn region_cache_accelerates_tlb_fills() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut gc = core(&w, 1);
        let a = data_gva(&w);
        // Stride 2 MiB: every access is a fresh TLB miss → fresh resolve.
        for i in 0..2 {
            gc.read_u64(a + i * 2 * 1024 * 1024).unwrap();
        }
        let c = gc.counters();
        assert!(
            c.resolve_hits > 0,
            "second fill in the same grant region must hit the region cache"
        );
        assert!(c.resolve_misses > 0, "cold fills must miss");
    }

    #[test]
    fn chunked_access_spans_pages() {
        let w = world(ExecMode::Native);
        let mut gc = core(&w, 1);
        let a = data_gva(&w);
        let count = 1_000_000usize; // ~8 MB? no — 1M f64 = 8MB > alloc; use 400k
        let count = count.min(400_000);
        let mut filled = 0usize;
        gc.with_chunks_mut::<f64>(a, count, |off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (off + i) as f64;
            }
            filled += chunk.len();
        })
        .unwrap();
        assert_eq!(filled, count);
        let mut sum = 0.0;
        gc.with_chunks::<f64>(a, count, |_, chunk| {
            sum += chunk.iter().sum::<f64>();
        })
        .unwrap();
        let nexp = (count as f64 - 1.0) * count as f64 / 2.0;
        assert_eq!(sum, nexp);
    }

    #[test]
    fn wild_access_contained_under_covirt() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let mut gc = core(&w, 1);
        let fault = kitten::faults::off_by_one_region(&w.kernel);
        match gc.execute_fault(fault) {
            FaultOutcome::Contained(reason) => assert!(reason.contains("EPT violation")),
            o => panic!("expected containment, got {o:?}"),
        }
        assert!(gc.terminated().is_some());
        // The master control recorded the failure.
        assert!(matches!(w.enclave.state(), pisces::EnclaveState::Failed(_)));
        // Further guest work on this core fails fast.
        let a = data_gva(&w);
        assert!(matches!(
            gc.write_u64(a, 1),
            Err(CovirtError::EnclaveTerminated(_)) | Ok(())
        ));
    }

    #[test]
    fn wild_access_corrupts_natively() {
        let w = world(ExecMode::Native);
        let mut gc = core(&w, 1);
        // Allocate a "victim" region right after the enclave (same zone) so
        // the off-by-one lands in backed memory.
        let victim = w
            .master
            .pisces()
            .node()
            .mem
            .alloc_backed(ZoneId(0), 4096, covirt_simhw::addr::PAGE_SIZE_4K)
            .unwrap();
        let fault = kitten::faults::off_by_one_region(&w.kernel);
        match gc.execute_fault(fault) {
            FaultOutcome::CorruptedMemory { .. } => {}
            // Depending on layout the rogue page may be unbacked → crash.
            FaultOutcome::NodeCrash(_) => {}
            o => panic!("native wild access must corrupt or crash, got {o:?}"),
        }
        let _ = victim;
    }

    #[test]
    fn errant_ipi_blocked_under_protection() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM_IPI));
        let mut gc = core(&w, 1);
        let fault = kitten::faults::errant_ipi(0, 0x2f);
        assert_eq!(gc.execute_fault(fault), FaultOutcome::IpiBlocked);
        let (_, dropped) = w
            .controller
            .as_ref()
            .unwrap()
            .context(w.enclave.id.0)
            .unwrap()
            .whitelist
            .counts();
        assert_eq!(dropped, 1);
    }

    #[test]
    fn errant_ipi_delivered_natively() {
        let w = world(ExecMode::Native);
        let mut gc = core(&w, 1);
        let fault = kitten::faults::errant_ipi(0, 0x2f);
        assert_eq!(
            gc.execute_fault(fault),
            FaultOutcome::IpiDelivered {
                victim: 0,
                vector: 0x2f
            }
        );
    }

    #[test]
    fn legitimate_ipi_allowed_under_protection() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM_IPI));
        let mut sender = core(&w, 1);
        let mut receiver = core(&w, 2);
        let vector = w.enclave.resources().ipi_vectors[0];
        sender.send_ipi(2, vector).unwrap();
        receiver.poll().unwrap();
        assert_eq!(receiver.counters.ipi_irqs, 1);
        // In TrapAll mode the receive cost an exit.
        assert!(receiver.exit_count() >= 1);
    }

    #[test]
    fn posted_mode_delivers_without_receive_exit() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM_IPI_PIV));
        let mut sender = core(&w, 1);
        let mut receiver = core(&w, 2);
        let vector = w.enclave.resources().ipi_vectors[0];
        let rx_exits_before = receiver.exit_count();
        sender.send_ipi(2, vector).unwrap();
        receiver.poll().unwrap();
        assert_eq!(receiver.counters.ipi_irqs, 1);
        assert_eq!(receiver.counters.posted_harvested, 1);
        assert_eq!(
            receiver.exit_count(),
            rx_exits_before,
            "PIV receive must not exit"
        );
    }

    #[test]
    fn timer_fires_and_exits_per_config() {
        // Tickful kernel: poll after the period elapses.
        for (mode, expect_exit) in [
            (ExecMode::Native, false),
            (ExecMode::Covirt(CovirtConfig::MEM), true),
            (ExecMode::Covirt(CovirtConfig::MEM_IPI_PIV), true), // timer is a hardware intr
        ] {
            let w = world(mode);
            let mut gc = core(&w, 1);
            gc.cpu.apic.arm_timer(100_000, true, TIMER_VECTOR); // 100 µs
            std::thread::sleep(std::time::Duration::from_millis(1));
            gc.poll().unwrap();
            assert!(gc.counters.timer_irqs >= 1, "{mode}: timer must fire");
            if expect_exit {
                assert!(gc.exit_count() >= 1, "{mode}: timer must cost an exit");
            } else {
                assert_eq!(gc.exit_count(), 0);
            }
        }
    }

    /// Steady-state command delivery is exitless: a doorbell-first
    /// shootdown barrier completes with zero VM exits, zero NMI
    /// escalations, and the commands harvested in guest mode.
    #[test]
    fn doorbell_commands_complete_without_vm_exits() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let ctl = Arc::clone(w.controller.as_ref().unwrap());
        let mut g1 = core(&w, 1);
        let mut g2 = core(&w, 2);
        let (e1, e2) = (g1.exit_count(), g2.exit_count());
        let enclave = w.kernel.params.enclave_id;

        let c = Arc::clone(&ctl);
        let h = std::thread::spawn(move || c.shootdown_barrier(enclave));
        while !h.is_finished() {
            g1.poll().unwrap();
            g2.poll().unwrap();
            std::hint::spin_loop();
        }
        h.join().unwrap().unwrap();

        assert_eq!(g1.exit_count(), e1, "command path must not exit");
        assert_eq!(g2.exit_count(), e2, "command path must not exit");
        assert!(
            g1.counters.cmd_harvested >= 1,
            "core 1 drained in guest mode"
        );
        assert!(
            g2.counters.cmd_harvested >= 1,
            "core 2 drained in guest mode"
        );
        assert_eq!(ctl.nmi_escalation_count(), 0, "no fallback NMI needed");
    }

    /// A parked core (not polling) forces the bounded fallback: the
    /// controller escalates to an NMI within the configured bound and the
    /// command still completes once the core resumes.
    #[test]
    fn parked_core_escalates_to_nmi_within_bound() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let ctl = Arc::clone(w.controller.as_ref().unwrap());
        let mut g1 = core(&w, 1);
        let mut g2 = core(&w, 2);
        let enclave = w.kernel.params.enclave_id;
        // Tiny bound: the parked cores blow it immediately.
        ctl.set_escalation_bound_ns(1_000);

        let c = Arc::clone(&ctl);
        let h = std::thread::spawn(move || c.shootdown_barrier(enclave));
        // Park until the controller has escalated, then resume polling so
        // the NMI-driven drain can run.
        while c_escalations(&ctl) < 1 && !h.is_finished() {
            std::thread::yield_now();
        }
        while !h.is_finished() {
            g1.poll().unwrap();
            g2.poll().unwrap();
            std::hint::spin_loop();
        }
        h.join().unwrap().unwrap();
        assert!(
            ctl.nmi_escalation_count() >= 1,
            "bound must trigger escalation"
        );
        // The drain happened on the NMI exit path, not in guest mode.
        assert!(g1.exit_count() >= 1 || g2.exit_count() >= 1);
    }

    fn c_escalations(ctl: &CovirtController) -> u64 {
        ctl.nmi_escalation_count()
    }

    #[test]
    fn nmi_only_delivery_still_works_and_costs_exits() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let ctl = Arc::clone(w.controller.as_ref().unwrap());
        ctl.set_delivery(crate::controller::CmdDelivery::NmiOnly);
        let mut g1 = core(&w, 1);
        let mut g2 = core(&w, 2);
        let enclave = w.kernel.params.enclave_id;

        let c = Arc::clone(&ctl);
        let h = std::thread::spawn(move || c.shootdown_barrier(enclave));
        while !h.is_finished() {
            g1.poll().unwrap();
            g2.poll().unwrap();
            std::hint::spin_loop();
        }
        h.join().unwrap().unwrap();
        assert!(g1.exit_count() >= 1, "NMI delivery costs a VM exit");
        assert!(g2.exit_count() >= 1, "NMI delivery costs a VM exit");
        assert_eq!(g1.counters.cmd_harvested, 0);
        assert_eq!(g2.counters.cmd_harvested, 0);
    }

    #[test]
    fn tlb_flush_protocol_closes_stale_window() {
        let w = world(ExecMode::Covirt(CovirtConfig::MEM));
        let ctl = w.controller.as_ref().unwrap();
        let mut gc = core(&w, 1);

        // Grant a region, touch it (fills TLB), then reclaim it.
        let range = w
            .master
            .pisces()
            .add_memory(&w.enclave, ZoneId(0), 2 * 1024 * 1024)
            .unwrap();
        w.kernel.poll_ctrl().unwrap();
        w.master.pisces().process_acks(&w.enclave).unwrap();
        gc.write_u64(range.start.raw(), 0x11).unwrap();
        assert_eq!(gc.read_u64(range.start.raw()).unwrap(), 0x11);

        // Reclaim from a host thread while the guest core polls — the
        // controller blocks until the flush completes on the live core.
        let host = Arc::clone(w.master.pisces());
        let enclave = Arc::clone(&w.enclave);
        let kernel = Arc::clone(&w.kernel);
        ctl.set_flush_spins(10_000_000);
        let h = std::thread::spawn(move || {
            host.request_remove_memory(&enclave, range).unwrap();
            // Wait for the guest to ack, then complete (hook runs inside).
            for _ in 0..1_000_000 {
                host.process_acks(&enclave).unwrap();
                if !enclave.resources().mem.contains(&range) {
                    return true;
                }
                std::thread::yield_now();
            }
            false
        });
        // Guest side: ack the removal, then keep polling so the NMI-driven
        // flush command gets serviced.
        for _ in 0..1_000_000 {
            kernel.poll_ctrl().unwrap();
            gc.poll().unwrap();
            if h.is_finished() {
                break;
            }
            std::thread::yield_now();
        }
        assert!(h.join().unwrap(), "reclaim must complete");
        // The TLB was flushed and the EPT no longer maps the region: the
        // stale access is now contained (kernel map was cleaned up too, so
        // rebuild the stale state first — the XEMEM-bug scenario).
        let fault = kitten::faults::stale_shared_mapping(&w.kernel, range);
        match gc.execute_fault(fault) {
            FaultOutcome::Contained(r) => assert!(r.contains("EPT violation")),
            o => panic!("stale access must be contained, got {o:?}"),
        }
    }
}
