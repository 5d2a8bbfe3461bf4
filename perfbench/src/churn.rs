//! The memchurn arm: a covirt-mem+ipi consumer enclave whose guest core
//! runs HPCC updates over a XEMEM segment attached from a producer
//! enclave, beside one control client that grants and reclaims memory
//! and exports, attaches, detaches and destroys a second segment.

use crate::datapath::{run_updates, Stream};
use crate::spans::{SpanLog, NO_PARENT};
use covirt::config::CovirtConfig;
use covirt::{CovirtController, CovirtError, CovirtResult, ExecMode, GuestCore};
use covirt_simhw::addr::{HostPhysAddr, PhysRange, PAGE_SIZE_2M};
use covirt_simhw::memory::ZoneStats;
use covirt_simhw::node::SimNode;
use covirt_simhw::tlb::TlbParams;
use covirt_simhw::topology::{CoreId, HwLayout, ZoneId};
use covirt_trace::audit::{AuditConfig, AuditEngine};
use kitten::KittenKernel;
use pisces::ctrlchan::CtrlMsg;
use pisces::resources::ResourceRequest;
use pisces::Enclave;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::World;

/// The reader polls every 16 updates: reclaim and detach latency is
/// bounded by this safe-point interval.
const POLL_EVERY: u64 = 16;

/// Reader updates between checks of the stop flag.
const READER_CHUNK: u64 = 1024;

/// Core the consumer enclave's reader runs on.
const CONSUMER_CORE: usize = 9;

/// An operation that does not complete within this long is a failure.
const OP_TIMEOUT: Duration = Duration::from_secs(2);

/// Sizes of one memchurn arm.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSize {
    /// The reader's segment holds `2^log2n` u64 entries.
    pub log2n: u32,
    /// Bytes of the segment exported/attached/detached each cycle.
    pub cycle_bytes: u64,
    /// Bytes granted and reclaimed each cycle.
    pub grant_bytes: u64,
}

/// Latencies and counts of one measuring pass.
#[derive(Clone, Debug, Default)]
pub struct ChurnPass {
    /// Control cycles completed.
    pub cycles: u64,
    /// `add_memory` → `AddMemAck` processed, µs.
    pub grant_us: Vec<f64>,
    /// `request_remove_memory` → range gone from the enclave, µs.
    pub reclaim_us: Vec<f64>,
    /// `attach_segment`, µs.
    pub attach_us: Vec<f64>,
    /// `detach_segment`, µs.
    pub detach_us: Vec<f64>,
    /// Seconds the reader ran.
    pub reader_secs: f64,
    /// Reader counter deltas.
    pub dp: crate::DpStats,
    /// Control-plane counter deltas.
    pub ctl: CtlStats,
    /// Operations that failed (errors, timeouts, failed range checks).
    pub failed: u64,
    /// Audit violations (traced pass only).
    pub violations: u64,
    /// Longest span from the start of one reader chunk to the end of the
    /// next, seconds: every gap between the reader's safe points fits
    /// inside such a pair, so a stall longer than this never happened.
    pub reader_stall_s: f64,
    /// Commands completed on the reader's queue that the reader did not
    /// harvest at a safe point: the NMI fallback delivered them.
    pub nmi_commands: u64,
    /// Commands the NMI fallback delivered although the reader never went
    /// the controller's escalation bound without a safe point (each is a
    /// missed doorbell, a delivery failure).
    pub missed_doorbells: u64,
}

/// Control-plane counters over a pass.
#[derive(Clone, Debug, Default)]
pub struct CtlStats {
    /// Broadcast shootdowns the controller issued.
    pub shootdowns: u64,
    /// NMI escalations of command delivery.
    pub nmi_escalations: u64,
    /// EPT map operations on the consumer's EPT.
    pub ept_maps: u64,
    /// EPT unmap operations on the consumer's EPT.
    pub ept_unmaps: u64,
    /// Region snapshots published in zone 0.
    pub snapshot_swaps: u64,
    /// Resolves not served by a region cache in zone 0.
    pub resolve_misses: u64,
    /// Highest retired-snapshot backlog seen in zone 0.
    pub retire_backlog_high_water: u64,
}

impl ChurnPass {
    /// Reader throughput over the pass, Mupdates/s.
    pub fn reader_mups(&self) -> f64 {
        crate::spans::ratio(self.dp.updates as f64 / 1e6, self.reader_secs)
    }

    /// Append another pass of the same arm.
    pub fn absorb(&mut self, o: ChurnPass) {
        self.cycles += o.cycles;
        self.grant_us.extend(o.grant_us);
        self.reclaim_us.extend(o.reclaim_us);
        self.attach_us.extend(o.attach_us);
        self.detach_us.extend(o.detach_us);
        self.reader_secs += o.reader_secs;
        self.dp.add(&o.dp);
        let (c, d) = (&mut self.ctl, &o.ctl);
        c.shootdowns += d.shootdowns;
        c.nmi_escalations += d.nmi_escalations;
        c.ept_maps += d.ept_maps;
        c.ept_unmaps += d.ept_unmaps;
        c.snapshot_swaps += d.snapshot_swaps;
        c.resolve_misses += d.resolve_misses;
        c.retire_backlog_high_water = c.retire_backlog_high_water.max(d.retire_backlog_high_water);
        self.failed += o.failed;
        self.violations += o.violations;
        self.reader_stall_s = self.reader_stall_s.max(o.reader_stall_s);
        self.nmi_commands += o.nmi_commands;
        self.missed_doorbells += o.missed_doorbells;
    }
}

struct CtlSnap {
    /// Highest completed sequence number on the reader's command queue.
    completed: u64,
    shootdowns: u64,
    nmi: u64,
    ept: (u64, u64),
    zone: ZoneStats,
}

/// The consumer's guest core and the segment it updates.
struct Reader {
    g: GuestCore,
    table: u64,
    stream: Stream,
}

/// What the control client works with.
struct Control {
    world: World,
    controller: Arc<CovirtController>,
    consumer: Arc<Enclave>,
    ckernel: Arc<KittenKernel>,
    cycle_seg: PhysRange,
    size: ChurnSize,
    cycle: u64,
}

/// The arm.
pub struct ChurnArm {
    reader: Reader,
    ctl: Control,
}

fn fail(what: impl std::fmt::Display) -> CovirtError {
    CovirtError::EnclaveTerminated(what.to_string())
}

impl ChurnArm {
    /// Build the producer and consumer enclaves, export and attach the
    /// reader's segment, initialize it, and warm up with one cycle.
    pub fn setup(size: ChurnSize, seed: u64) -> CovirtResult<ChurnArm> {
        let seg_bytes = 8u64 << size.log2n;
        let world = World::build(
            ExecMode::Covirt(CovirtConfig::MEM_IPI),
            HwLayout { cores: 1, zones: 1 },
            seg_bytes + size.cycle_bytes + 64 * 1024 * 1024,
        );
        let controller = Arc::clone(world.controller.as_ref().expect("covirt world"));
        let req = ResourceRequest::new(
            vec![CoreId(CONSUMER_CORE)],
            vec![(ZoneId(0), 64 * 1024 * 1024)],
        );
        let (consumer, ckernel) = world
            .master
            .bring_up_enclave("consumer", &req)
            .map_err(fail)?;
        // Both segments come from the tail of the producer's region,
        // clear of its page-table pool.
        let region = world.enclave.resources().mem[0];
        let reader_seg = PhysRange::new(
            region
                .start
                .add(region.len - seg_bytes)
                .align_down(PAGE_SIZE_2M),
            seg_bytes,
        );
        let cycle_seg = PhysRange::new(
            HostPhysAddr::new(reader_seg.start.raw() - size.cycle_bytes),
            size.cycle_bytes,
        );
        world
            .master
            .export_segment(world.enclave.id.0, "reader", reader_seg)
            .map_err(fail)?;
        let attached = world
            .master
            .attach_segment(consumer.id.0, "reader")
            .map_err(fail)?;
        let mut g = GuestCore::launch_covirt(
            Arc::clone(&world.node),
            Arc::clone(&ckernel),
            Arc::clone(&controller),
            CONSUMER_CORE,
            TlbParams::default(),
        )?;
        let table = attached.start.raw();
        let stream = Stream::new(seed, size.log2n);
        stream.init(&mut g, table)?;
        let mut arm = ChurnArm {
            reader: Reader { g, table, stream },
            ctl: Control {
                world,
                controller,
                consumer,
                ckernel,
                cycle_seg,
                size,
                cycle: 0,
            },
        };
        let pass = arm.measure(0.0, &mut SpanLog::new(Instant::now(), false), None)?;
        if pass.failed != 0 {
            return Err(fail("memchurn warm-up cycle failed"));
        }
        Ok(arm)
    }

    /// The arm's node.
    pub fn node(&self) -> &Arc<SimNode> {
        &self.ctl.world.node
    }

    /// Run control cycles for at least `secs` (at least one) while the
    /// reader updates its segment on a second thread. With `log` on,
    /// control calls and sampled reader updates become spans (the
    /// reader's spans land in `log` too) and `audit` tails the recorder
    /// after every cycle.
    pub fn measure(
        &mut self,
        secs: f64,
        log: &mut SpanLog,
        mut audit: Option<&mut Audit>,
    ) -> CovirtResult<ChurnPass> {
        let c0 = self.ctl.snap()?;
        let d0 = crate::DpSnap::take(&self.reader.g, self.reader.stream.updates);
        let (running, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let reader_failed = AtomicBool::new(false);
        let traced = log.on();
        let mut rlog = SpanLog::new(log.epoch(), traced);
        let mut pass = ChurnPass::default();
        let (ctl, r) = (&mut self.ctl, &mut self.reader);
        (pass.reader_secs, pass.reader_stall_s) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                if traced {
                    r.g.profile_begin();
                }
                // Chunk start times: every gap between two safe points lies
                // inside two consecutive chunks, boundaries included, so
                // the longest span over two chunks bounds the longest gap.
                let t = Instant::now();
                let (mut before, mut last) = (t, t);
                let mut stall = 0f64;
                running.store(true, Ordering::Release);
                while !done.load(Ordering::Acquire) {
                    let now = Instant::now();
                    stall = stall.max((now - before).as_secs_f64());
                    (before, last) = (last, now);
                    let res = run_updates(
                        &mut r.g,
                        r.table,
                        &mut r.stream,
                        READER_CHUNK,
                        POLL_EVERY,
                        &mut rlog,
                    );
                    if res.is_err() {
                        reader_failed.store(true, Ordering::Release);
                        break;
                    }
                }
                stall = stall.max(before.elapsed().as_secs_f64());
                let secs = t.elapsed().as_secs_f64();
                if traced {
                    r.g.profile_finish();
                }
                (secs, stall)
            });
            // Commands need the reader's safe points: start the control
            // client only once the reader is running.
            while !running.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let start = Instant::now();
            while pass.cycles == 0 || start.elapsed().as_secs_f64() < secs {
                if reader_failed.load(Ordering::Acquire) {
                    break;
                }
                if ctl.cycle(&mut pass, log).is_err() {
                    pass.failed += 1;
                    break;
                }
                pass.cycles += 1;
                if let Some(a) = audit.as_deref_mut() {
                    a.tail(&ctl.world.node);
                }
            }
            done.store(true, Ordering::Release);
            reader.join().expect("reader thread panicked")
        });
        if reader_failed.load(Ordering::Acquire) {
            pass.failed += 1;
        }
        log.absorb(rlog);
        let d1 = crate::DpSnap::take(&self.reader.g, self.reader.stream.updates);
        pass.dp = d1.since(&d0);
        let c1 = self.ctl.snap()?;
        pass.nmi_commands = (c1.completed - c0.completed)
            .saturating_sub(d1.c.cmd_harvested - d0.c.cmd_harvested);
        pass.ctl = CtlStats {
            shootdowns: c1.shootdowns - c0.shootdowns,
            nmi_escalations: c1.nmi - c0.nmi,
            ept_maps: c1.ept.0 - c0.ept.0,
            ept_unmaps: c1.ept.1 - c0.ept.1,
            snapshot_swaps: c1.zone.snapshot_swaps - c0.zone.snapshot_swaps,
            resolve_misses: c1.zone.resolve_misses - c0.zone.resolve_misses,
            retire_backlog_high_water: c1.zone.retired_backlog_high_water,
        };
        // The NMI fallback exists for cores that stop reaching safe
        // points. A command it delivered while the reader kept polling is
        // a missed doorbell. An escalation whose NMI found the command
        // already harvested is not: the controller's own thread was held
        // off the CPU past the bound before it saw the completion.
        let bound_s = self.ctl.controller.escalation_bound_ns() as f64 / 1e9;
        if pass.reader_stall_s < bound_s {
            pass.missed_doorbells = pass.nmi_commands;
        }
        Ok(pass)
    }

    /// Reader table checksum: mismatching folds (0 = pass) and updates.
    pub fn verify(&mut self) -> CovirtResult<(u64, u64)> {
        let r = &mut self.reader;
        let bad = r.stream.check(&mut r.g, r.table)?;
        Ok((bad, r.stream.updates))
    }
}

impl Control {
    fn snap(&self) -> CovirtResult<CtlSnap> {
        let vctx = self.controller.context(self.consumer.id.0)?;
        Ok(CtlSnap {
            completed: vctx.cmdq(CONSUMER_CORE).map_or(0, |q| q.completed()),
            shootdowns: self.controller.shootdown_count(),
            nmi: self.controller.nmi_escalation_count(),
            ept: vctx.ept.as_ref().map(|e| e.op_counts()).unwrap_or((0, 0)),
            zone: self.world.node.mem.zone_stats(ZoneId(0)).map_err(fail)?,
        })
    }

    /// One control cycle: grant, reclaim, export, attach, detach, destroy.
    fn cycle(&mut self, pass: &mut ChurnPass, log: &mut SpanLog) -> CovirtResult<()> {
        let host = Arc::clone(self.world.master.pisces());
        let master = Arc::clone(&self.world.master);
        let (consumer, ckernel) = (&*self.consumer, &*self.ckernel);
        let op = |log: &mut SpanLog, name| {
            if log.on() {
                log.open(name, NO_PARENT)
            } else {
                NO_PARENT
            }
        };
        let close = |log: &mut SpanLog, id| {
            if log.on() {
                log.close(id)
            }
        };

        // Grant: add_memory → the kernel maps it and acks → ack processed.
        let id = op(log, "op.grant");
        let t = Instant::now();
        let range = log
            .call("pisces.add_memory", id, || {
                host.add_memory(consumer, ZoneId(0), self.size.grant_bytes)
            })
            .map_err(fail)?;
        log.call("pisces.poll_ctrl", id, || ckernel.poll_ctrl())
            .map_err(fail)?;
        loop {
            let msgs = log
                .call("pisces.process_acks", id, || host.process_acks(consumer))
                .map_err(fail)?;
            if msgs.iter().any(|m| matches!(m, CtrlMsg::AddMemAck { .. })) {
                break;
            }
            if t.elapsed() > OP_TIMEOUT {
                return Err(fail("grant ack timed out"));
            }
        }
        pass.grant_us.push(t.elapsed().as_secs_f64() * 1e6);
        close(log, id);

        // Reclaim: request → the kernel unmaps and acks → the host's ack
        // processing unmaps the EPT and shoots down the reader's TLB.
        let id = op(log, "op.reclaim");
        let t = Instant::now();
        log.call("pisces.request_remove", id, || {
            host.request_remove_memory(consumer, range)
        })
        .map_err(fail)?;
        log.call("pisces.poll_ctrl", id, || ckernel.poll_ctrl())
            .map_err(fail)?;
        while consumer.resources().mem.contains(&range) {
            log.call("pisces.process_acks", id, || host.process_acks(consumer))
                .map_err(fail)?;
            if t.elapsed() > OP_TIMEOUT {
                return Err(fail("reclaim timed out"));
            }
        }
        pass.reclaim_us.push(t.elapsed().as_secs_f64() * 1e6);
        close(log, id);
        if ckernel.memmap().find(range.start).is_some() {
            pass.failed += 1;
        }

        // Segment round trip.
        let name = format!("churn-{}", self.cycle);
        self.cycle += 1;
        log.call("hobbes.export", NO_PARENT, || {
            master.export_segment(self.world.enclave.id.0, &name, self.cycle_seg)
        })
        .map_err(fail)?;
        let id = op(log, "op.attach");
        let t = Instant::now();
        let seg = log
            .call("hobbes.attach", id, || {
                master.attach_segment(consumer.id.0, &name)
            })
            .map_err(fail)?;
        pass.attach_us.push(t.elapsed().as_secs_f64() * 1e6);
        close(log, id);
        let id = op(log, "op.detach");
        let t = Instant::now();
        log.call("hobbes.detach", id, || {
            master.detach_segment(consumer.id.0, &name)
        })
        .map_err(fail)?;
        pass.detach_us.push(t.elapsed().as_secs_f64() * 1e6);
        close(log, id);
        if ckernel.memmap().find(seg.start).is_some() || ckernel.translate(seg.start.raw()).is_ok()
        {
            pass.failed += 1;
        }
        let leftover = log
            .call("hobbes.destroy", NO_PARENT, || {
                master.destroy_segment(&name)
            })
            .map_err(fail)?;
        if !leftover.is_empty() {
            pass.failed += 1;
        }
        Ok(())
    }
}

/// Live protection audit of a node's recorder, tailed between cycles.
pub struct Audit {
    engine: AuditEngine,
    cursors: Vec<u64>,
}

impl Audit {
    /// A fresh engine for a node clocked at `hz`.
    pub fn new(hz: u64) -> Audit {
        Audit {
            engine: AuditEngine::new(AuditConfig::default(), hz),
            cursors: Vec::new(),
        }
    }

    fn tail(&mut self, node: &SimNode) {
        let (events, dropped) = node.recorder().tail_all(&mut self.cursors);
        self.engine.ingest_tail(&events, dropped);
    }

    /// Drain what is left and return the violation count.
    pub fn finish(mut self, node: &SimNode) -> u64 {
        self.tail(node);
        let report = self.engine.finish();
        for v in &report.violations {
            eprintln!("audit violation: {v:?}");
        }
        report.violations.len() as u64
    }
}
