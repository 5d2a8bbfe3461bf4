//! The per-CPU Covirt hypervisor.
//!
//! "Ideally the Covirt hypervisor would only initialize the local CPU
//! virtualization context, jump into the co-kernel initialization routines,
//! and never run again." The structure below is that minimal context: it
//! owns one core, launches the pre-configured VMCS, and afterwards runs
//! only to handle the small set of exits — emulated instructions, trapped
//! MSR/IO/ICR accesses, NMI-signalled command-queue work, and abort-class
//! faults, on which it terminates the enclave and parks the core.
//!
//! The hypervisor deliberately has no dynamic allocation; its only working
//! memory is the fixed 8 KiB stack pre-allocated by the control module
//! (modelled as an owned buffer so the constraint is visible in the type).

use crate::cmdqueue::Command;
use crate::vctx::VirtContext;
use crate::{CovirtError, CovirtResult};
use covirt_simhw::apic::IcrCommand;
use covirt_simhw::cpu::{Cpu, CpuMode};
use covirt_simhw::exit::{ExitInfo, ExitReason};
use covirt_simhw::node::SimNode;
use covirt_simhw::tlb::Tlb;
use covirt_simhw::vmcs::VmcsHandle;
use covirt_trace::{EventKind, Hist, Tracer};
use std::sync::Arc;

/// Measured VM-entry/exit round-trip on Broadwell-class hardware is on the
/// order of 1,200 guest cycles; the model charges this much wall time per
/// exit so that exit-rate differences between configurations produce the
/// same *shape* of overhead the paper measures.
pub const VM_TRANSITION_NS: u64 = 700;

/// The paper's preallocated hypervisor stack size.
pub const HV_STACK_BYTES: usize = 8 * 1024;

/// What the exec loop should do after an exit was handled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExitAction {
    /// Re-enter the guest.
    Resume,
    /// The enclave was terminated; the string is the abort reason.
    Terminate(String),
}

/// Burn wall-clock time to model a fixed hardware cost.
#[inline]
pub fn model_delay_ns(ns: u64) {
    let start = std::time::Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// One per-core hypervisor instance. Owned by the thread driving the core
/// (no sharing — "each hypervisor context only supports a single CPU core
/// and is unaware of other hypervisor instances").
pub struct Hypervisor {
    /// The core this instance manages.
    pub core: usize,
    cpu: Arc<Cpu>,
    node: Arc<SimNode>,
    vctx: Arc<VirtContext>,
    vmcs: VmcsHandle,
    /// The fixed 8 KiB stack pre-allocated by the control module.
    _stack: Box<[u8; HV_STACK_BYTES]>,
    /// Exits handled on this core.
    pub exits: u64,
    /// Wall-clock nanoseconds spent in exit handling (including modelled
    /// transition cost).
    pub exit_ns: u64,
    /// Commands executed from the queue.
    pub commands: u64,
    /// Flight-recorder handle for this core's lane.
    tracer: Tracer,
}

impl Hypervisor {
    /// CPU boot path: enable VMX, load the pre-configured VMCS, and
    /// "launch" the co-kernel — the simulated equivalent of the VMLAUNCH
    /// performed after the Pisces trampoline hand-off. Guest state (entry
    /// point, RDI = Pisces boot parameters) was already written by the
    /// controller.
    pub fn launch(node: Arc<SimNode>, vctx: Arc<VirtContext>, core: usize) -> CovirtResult<Self> {
        let cpu = Arc::clone(node.cpu(covirt_simhw::topology::CoreId(core))?);
        let vmcs = vctx
            .vmcs(core)
            .ok_or(CovirtError::Invalid("core has no VMCS"))?;
        cpu.vmxon()?;
        cpu.vmptrld(Arc::clone(&vmcs))?;
        {
            let mut v = vmcs.write();
            if v.launched {
                cpu.vmxoff()?;
                return Err(CovirtError::Invalid("VMCS already launched"));
            }
            v.launched = true;
        }
        cpu.set_mode(CpuMode::Guest);
        vctx.core_entered_guest(core);
        model_delay_ns(VM_TRANSITION_NS); // the VMLAUNCH itself
                                          // Tag this core's lane with the enclave it runs, so exits, drains
                                          // and completions attribute to it in the audit engine.
        let tracer = node.tracer(core as u32).with_enclave(vctx.enclave_id);
        vmcs.write().tracer = Some(tracer.clone());
        Ok(Hypervisor {
            core,
            cpu,
            node,
            vctx,
            vmcs,
            _stack: Box::new([0; HV_STACK_BYTES]),
            exits: 0,
            exit_ns: 0,
            commands: 0,
            tracer,
        })
    }

    /// The context this hypervisor enforces.
    pub fn vctx(&self) -> &Arc<VirtContext> {
        &self.vctx
    }

    /// Handle one VM exit. `tlb` is the core's translation cache (flushed
    /// on command). Returns what the exec loop should do next.
    pub fn handle_exit(&mut self, reason: ExitReason, tlb: &mut Tlb) -> ExitAction {
        let t0 = std::time::Instant::now();
        self.cpu.set_mode(CpuMode::HypervisorRoot);
        model_delay_ns(VM_TRANSITION_NS);
        self.exits += 1;
        self.vmcs.write().record_exit(ExitInfo {
            reason,
            tsc: self.node.clock.rdtsc(),
        });

        let action = match reason {
            // Always-exiting instructions, executed directly by the VMM
            // with no or minor modification.
            ExitReason::Cpuid { leaf: _ } => ExitAction::Resume,
            ExitReason::Xsetbv { xcr0 } => {
                self.vmcs.write().guest.xcr0 = xcr0;
                ExitAction::Resume
            }
            ExitReason::MsrRead { index } => {
                // Reads of intercepted MSRs are answered from the real MSR
                // file (Covirt hides nothing — zero abstraction).
                let _ = self.cpu.msrs.read(index);
                ExitAction::Resume
            }
            ExitReason::MsrWrite { index, value } => {
                let blocked =
                    self.vctx.config.msr && self.vctx.msr_bitmap.read().write_exits(index);
                if !blocked {
                    self.cpu.msrs.write(index, value);
                }
                ExitAction::Resume
            }
            ExitReason::IoRead { port } => {
                let _ = self.node.ioports.read(port);
                ExitAction::Resume
            }
            ExitReason::IoWrite { port, value } => {
                let blocked = self.vctx.config.io && self.vctx.io_bitmap.read().exits(port);
                if !blocked {
                    self.node.ioports.write(port, value);
                }
                ExitAction::Resume
            }
            // IPI protection: trapped ICR write → whitelist check.
            ExitReason::IcrWrite { value } => {
                let cmd = IcrCommand::decode(value);
                let dest = match cmd.resolve_dest(self.core) {
                    covirt_simhw::interconnect::IpiDest::Core(c) => {
                        if self.vctx.whitelist.check(c, cmd.vector) {
                            Some(c)
                        } else {
                            None
                        }
                    }
                    // Broadcast shorthands can reach other enclaves by
                    // construction; they are never permitted.
                    _ => {
                        self.vctx.whitelist.check(usize::MAX, cmd.vector);
                        None
                    }
                };
                if let Some(dest) = dest {
                    // In posted mode, intra-enclave IPIs are delivered via
                    // the destination's PIR so the receiver needs no exit;
                    // only the doorbell (notification vector) travels as a
                    // physical IPI, and only when none is outstanding.
                    if let Some(desc) = self.vctx.posted(dest) {
                        if desc.post(cmd.vector) {
                            let _ = self.node.interconnect.send(
                                self.core,
                                covirt_simhw::interconnect::IpiDest::Core(dest),
                                covirt_simhw::interconnect::DeliveryMode::Fixed(
                                    desc.notification_vector(),
                                ),
                            );
                        }
                    } else {
                        let _ = self.cpu.apic.icr_write(value);
                    }
                }
                ExitAction::Resume
            }
            // External interrupts only exit in TrapAll mode: the hypervisor
            // acknowledges and re-injects into the guest.
            ExitReason::ExternalInterrupt { vector: _ } => ExitAction::Resume,
            // NMI: command-queue synchronization work.
            ExitReason::Nmi => self.process_commands(tlb),
            ExitReason::Hlt => ExitAction::Resume,
            // Abort-class exits: terminate, notify, park.
            ExitReason::EptViolation(info) => {
                self.vctx
                    .violations
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.abort(format!(
                    "EPT violation at {} ({:?}) on {}",
                    info.gpa, info.access, self.cpu.id
                ))
            }
            ExitReason::DoubleFault => self.abort(format!("double fault on {}", self.cpu.id)),
            ExitReason::TripleFault => self.abort(format!("triple fault on {}", self.cpu.id)),
        };

        if matches!(action, ExitAction::Resume) {
            model_delay_ns(VM_TRANSITION_NS); // VM entry
            self.cpu.set_mode(CpuMode::Guest);
        }
        let handled_ns = t0.elapsed().as_nanos() as u64;
        self.exit_ns += handled_ns;
        if self.tracer.enabled() {
            self.tracer.emit(EventKind::ExitLeave, handled_ns, 0);
            self.tracer.observe(Hist::ExitHandleNs, handled_ns);
        }
        action
    }

    /// Drain and execute the command queue (invoked on NMI).
    fn process_commands(&mut self, tlb: &mut Tlb) -> ExitAction {
        let Some(q) = self.vctx.cmdq(self.core) else {
            return ExitAction::Resume;
        };
        let q = q.clone();
        let drained = q.drain();
        if self.tracer.enabled() && !drained.is_empty() {
            self.tracer
                .emit(EventKind::CmdDrain, drained.len() as u64, 0);
        }
        self.execute_commands(&q, drained, tlb)
    }

    /// Execute an already-drained command batch against this core. Shared
    /// by the NMI exit path and the guest-mode doorbell harvest (which
    /// pays no VM exit). On both paths the completion counter advances
    /// only *after* a command's effect has been applied — that ordering is
    /// what lets the controller's completion wait enforce
    /// unmap-before-reclaim.
    pub fn execute_commands(
        &mut self,
        q: &crate::cmdqueue::CmdQueue,
        drained: Vec<crate::cmdqueue::SeqCommand>,
        tlb: &mut Tlb,
    ) -> ExitAction {
        let mut action = ExitAction::Resume;
        for sc in drained {
            self.commands += 1;
            match sc.cmd {
                Command::TlbFlushAll => tlb.flush_all(),
                Command::TlbFlushPage { gva } => tlb.flush_page(gva),
                Command::TlbFlushRange { gva, len } => tlb.flush_range(gva, len),
                Command::ReloadVmcs => {
                    // Re-serialize the (controller-edited) VMCS onto the
                    // CPU: in the model, re-issue VMPTRLD.
                    let _ = self.cpu.vmptrld(Arc::clone(&self.vmcs));
                }
                Command::Terminate => {
                    action = self.abort("terminated by controller".to_owned());
                }
                Command::Sync => {}
            }
            q.complete(sc.seq);
            if self.tracer.enabled() {
                // A zero stamp means the poster's recorder was off.
                let ns = if sc.tsc != 0 {
                    self.node
                        .clock
                        .cycles_to_ns(self.node.clock.rdtsc().saturating_sub(sc.tsc))
                } else {
                    0
                };
                self.tracer.emit(EventKind::CmdComplete, sc.seq, ns);
                if ns != 0 {
                    self.tracer.observe(Hist::CmdLatencyNs, ns);
                }
            }
        }
        action
    }

    /// Terminate the enclave: record the reason, notify the management
    /// layer (done by the caller via the fault report), and park the core
    /// back in host mode.
    fn abort(&mut self, reason: String) -> ExitAction {
        self.vctx.terminate(&reason);
        self.vctx.core_left_guest(self.core);
        self.vmcs.write().launched = false; // VMCLEAR
        self.cpu.set_mode(CpuMode::Host);
        let _ = self.cpu.vmxoff();
        ExitAction::Terminate(reason)
    }

    /// Clean shutdown of the guest on this core (enclave teardown).
    pub fn shutdown(mut self) -> (u64, u64) {
        if self.cpu.mode() == CpuMode::Guest {
            self.vctx.core_left_guest(self.core);
            self.vmcs.write().launched = false; // VMCLEAR — relaunchable
            self.cpu.set_mode(CpuMode::Host);
            let _ = self.cpu.vmxoff();
        }
        (self.exits, std::mem::take(&mut self.exit_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmdqueue::CmdQueue;
    use crate::config::CovirtConfig;
    use covirt_simhw::addr::{GuestPhysAddr, PAGE_SIZE_4K};
    use covirt_simhw::apic::{ICR_MODE_FIXED, ICR_SH_ALL_EXC, ICR_SH_NONE};
    use covirt_simhw::ept::EptViolationInfo;
    use covirt_simhw::node::{NodeConfig, SimNode};
    use covirt_simhw::paging::Access;
    use covirt_simhw::tlb::TlbParams;
    use covirt_simhw::topology::ZoneId;

    fn setup(config: CovirtConfig) -> (Arc<SimNode>, Arc<VirtContext>, Hypervisor, Tlb) {
        let node = SimNode::new(NodeConfig::small());
        let ept = if config.memory {
            let pool_region = node
                .mem
                .alloc_backed(ZoneId(0), 4 * 1024 * 1024, PAGE_SIZE_4K)
                .unwrap();
            Some(Arc::new(
                covirt_simhw::ept::Ept::new(Arc::new(covirt_simhw::paging::FramePool::new(
                    Arc::clone(&node.mem),
                    pool_region,
                )))
                .unwrap(),
            ))
        } else {
            None
        };
        let mut vctx = VirtContext::new(7, config, &[1, 2], &[0x40], ept);
        let qrange = node
            .mem
            .alloc_backed(ZoneId(0), CmdQueue::required_bytes(), PAGE_SIZE_4K)
            .unwrap();
        vctx.set_cmdq(1, CmdQueue::create(&node.mem, qrange).unwrap());
        let vctx = Arc::new(vctx);
        let hv = Hypervisor::launch(Arc::clone(&node), Arc::clone(&vctx), 1).unwrap();
        let tlb = Tlb::new(TlbParams::default());
        (node, vctx, hv, tlb)
    }

    #[test]
    fn launch_enters_guest_mode() {
        let (node, vctx, _hv, _tlb) = setup(CovirtConfig::NONE);
        let cpu = node.cpu(covirt_simhw::topology::CoreId(1)).unwrap();
        assert_eq!(cpu.mode(), CpuMode::Guest);
        assert!(cpu.vmx_enabled());
        assert_eq!(vctx.live_cores(), vec![1]);
        assert!(vctx.vmcs(1).unwrap().read().launched);
    }

    #[test]
    fn double_launch_rejected() {
        let (node, vctx, _hv, _tlb) = setup(CovirtConfig::NONE);
        assert!(Hypervisor::launch(node, vctx, 1).is_err());
    }

    #[test]
    fn cpuid_and_xsetbv_emulated() {
        let (_n, vctx, mut hv, mut tlb) = setup(CovirtConfig::NONE);
        assert_eq!(
            hv.handle_exit(ExitReason::Cpuid { leaf: 1 }, &mut tlb),
            ExitAction::Resume
        );
        assert_eq!(
            hv.handle_exit(ExitReason::Xsetbv { xcr0: 7 }, &mut tlb),
            ExitAction::Resume
        );
        assert_eq!(vctx.vmcs(1).unwrap().read().guest.xcr0, 7);
        assert_eq!(hv.exits, 2);
        assert!(hv.exit_ns > 0);
    }

    #[test]
    fn ept_violation_terminates() {
        let (node, vctx, mut hv, mut tlb) = setup(CovirtConfig::MEM);
        let action = hv.handle_exit(
            ExitReason::EptViolation(EptViolationInfo {
                gpa: GuestPhysAddr::new(0xdead_0000),
                access: Access::Write,
            }),
            &mut tlb,
        );
        assert!(matches!(action, ExitAction::Terminate(_)));
        assert!(vctx.termination().unwrap().contains("EPT violation"));
        assert_eq!(vctx.live_cores(), Vec::<usize>::new());
        let cpu = node.cpu(covirt_simhw::topology::CoreId(1)).unwrap();
        assert_eq!(cpu.mode(), CpuMode::Host);
        assert!(!cpu.vmx_enabled());
        assert_eq!(
            vctx.violations.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn double_fault_terminates() {
        let (_n, vctx, mut hv, mut tlb) = setup(CovirtConfig::NONE);
        let action = hv.handle_exit(ExitReason::DoubleFault, &mut tlb);
        assert!(matches!(action, ExitAction::Terminate(_)));
        assert!(vctx.termination().unwrap().contains("double fault"));
    }

    #[test]
    fn icr_whitelist_enforced() {
        let (node, vctx, mut hv, mut tlb) = setup(CovirtConfig::MEM_IPI);
        // Allowed: own core 2 with allocated vector 0x40.
        let ok = IcrCommand {
            vector: 0x40,
            mode: ICR_MODE_FIXED,
            dest: 2,
            shorthand: ICR_SH_NONE,
        };
        hv.handle_exit(ExitReason::IcrWrite { value: ok.encode() }, &mut tlb);
        assert!(node.interconnect.mailbox(2).unwrap().irr.test(0x40));
        // Errant: host core 0.
        let bad = IcrCommand {
            vector: 0x40,
            mode: ICR_MODE_FIXED,
            dest: 0,
            shorthand: ICR_SH_NONE,
        };
        hv.handle_exit(
            ExitReason::IcrWrite {
                value: bad.encode(),
            },
            &mut tlb,
        );
        assert!(!node.interconnect.mailbox(0).unwrap().irr.test(0x40));
        // Broadcast shorthand is always dropped.
        let bc = IcrCommand {
            vector: 0x40,
            mode: ICR_MODE_FIXED,
            dest: 0,
            shorthand: ICR_SH_ALL_EXC,
        };
        hv.handle_exit(ExitReason::IcrWrite { value: bc.encode() }, &mut tlb);
        assert!(!node.interconnect.mailbox(3).unwrap().irr.test(0x40));
        let (permitted, dropped) = vctx.whitelist.counts();
        assert_eq!(permitted, 1);
        assert_eq!(dropped, 2);
    }

    #[test]
    fn msr_protection_blocks_writes() {
        let (node, _vctx, mut hv, mut tlb) = setup(CovirtConfig::FULL);
        let mc0 = covirt_simhw::msr::IA32_MC0_CTL;
        hv.handle_exit(
            ExitReason::MsrWrite {
                index: mc0,
                value: 0xbad,
            },
            &mut tlb,
        );
        let cpu = node.cpu(covirt_simhw::topology::CoreId(1)).unwrap();
        assert_eq!(
            cpu.msrs.read(mc0),
            0,
            "blocked write must not reach the MSR"
        );
        // A benign MSR write passes through.
        hv.handle_exit(
            ExitReason::MsrWrite {
                index: covirt_simhw::msr::IA32_FS_BASE,
                value: 0x1000,
            },
            &mut tlb,
        );
        assert_eq!(cpu.msrs.read(covirt_simhw::msr::IA32_FS_BASE), 0x1000);
    }

    #[test]
    fn io_protection_blocks_sensitive_ports() {
        let (node, _vctx, mut hv, mut tlb) = setup(CovirtConfig::FULL);
        hv.handle_exit(
            ExitReason::IoWrite {
                port: covirt_simhw::ioport::PORT_KBD_RESET,
                value: 0xfe,
            },
            &mut tlb,
        );
        assert_eq!(
            node.ioports
                .write_count(covirt_simhw::ioport::PORT_KBD_RESET),
            0
        );
        hv.handle_exit(
            ExitReason::IoWrite {
                port: covirt_simhw::ioport::PORT_COM1,
                value: b'x' as u32,
            },
            &mut tlb,
        );
        assert_eq!(node.ioports.write_count(covirt_simhw::ioport::PORT_COM1), 1);
    }

    #[test]
    fn nmi_drains_command_queue_and_flushes() {
        let (_n, vctx, mut hv, mut tlb) = setup(CovirtConfig::MEM);
        // Seed a TLB entry, then ask for a flush through the queue.
        let backing = Arc::new(covirt_simhw::backing::Backing::new(4096).unwrap());
        tlb.insert(
            0x1000,
            PAGE_SIZE_4K,
            backing.ptr_at(0),
            Arc::clone(&backing),
            true,
        );
        assert!(tlb.lookup(0x1000).is_some());
        let q = vctx.cmdq(1).unwrap().clone();
        let seq = q.post(Command::TlbFlushAll).unwrap();
        assert_eq!(
            hv.handle_exit(ExitReason::Nmi, &mut tlb),
            ExitAction::Resume
        );
        assert!(
            tlb.lookup(0x1000).is_none(),
            "TLB must be flushed by the command"
        );
        assert!(q.wait(seq, 1).is_ok(), "completion must be signalled");
        assert_eq!(hv.commands, 1);
    }

    #[test]
    fn nmi_executes_range_flush_selectively() {
        let (_n, vctx, mut hv, mut tlb) = setup(CovirtConfig::MEM);
        let backing = Arc::new(covirt_simhw::backing::Backing::new(2 * 4096).unwrap());
        tlb.insert(
            0x1000,
            PAGE_SIZE_4K,
            backing.ptr_at(0),
            Arc::clone(&backing),
            true,
        );
        tlb.insert(
            0x8000,
            PAGE_SIZE_4K,
            backing.ptr_at(4096),
            Arc::clone(&backing),
            true,
        );
        let q = vctx.cmdq(1).unwrap().clone();
        let seq = q
            .post(Command::TlbFlushRange {
                gva: 0x1000,
                len: 0x1000,
            })
            .unwrap();
        assert_eq!(
            hv.handle_exit(ExitReason::Nmi, &mut tlb),
            ExitAction::Resume
        );
        assert!(tlb.lookup(0x1000).is_none(), "range must be invalidated");
        assert!(tlb.lookup(0x8000).is_some(), "unrelated entry must survive");
        assert!(q.wait(seq, 1).is_ok());
        assert_eq!(tlb.stats().range_flushes, 1);
        assert_eq!(tlb.stats().full_flushes, 0);
    }

    #[test]
    fn terminate_command_kills_enclave() {
        let (_n, vctx, mut hv, mut tlb) = setup(CovirtConfig::MEM);
        let q = vctx.cmdq(1).unwrap().clone();
        q.post(Command::Terminate).unwrap();
        let action = hv.handle_exit(ExitReason::Nmi, &mut tlb);
        assert!(matches!(action, ExitAction::Terminate(_)));
        assert!(vctx.termination().unwrap().contains("controller"));
    }

    #[test]
    fn shutdown_returns_stats() {
        let (node, vctx, mut hv, mut tlb) = setup(CovirtConfig::NONE);
        hv.handle_exit(ExitReason::Cpuid { leaf: 0 }, &mut tlb);
        let (exits, ns) = hv.shutdown();
        assert_eq!(exits, 1);
        assert!(ns > 0);
        assert!(vctx.live_cores().is_empty());
        assert_eq!(
            node.cpu(covirt_simhw::topology::CoreId(1)).unwrap().mode(),
            CpuMode::Host
        );
    }
}
