//! The IPI ping-pong arm: two guest cores of one enclave bounce a
//! whitelisted vector with one IPI outstanding, under VAPIC (every ICR
//! write and every receive exits) and under posted interrupts (receives
//! are harvested without an exit). The two worlds alternate in rounds.

use crate::spans::{SpanLog, NO_PARENT};
use covirt::config::CovirtConfig;
use covirt::{CovirtError, CovirtResult, ExecMode, GuestCore};
use covirt_simhw::node::SimNode;
use covirt_simhw::topology::HwLayout;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::World;

/// Arm index of the VAPIC world.
pub const VAPIC: usize = 0;
/// Arm index of the posted-interrupt world.
pub const PIV: usize = 1;
const STOP: usize = usize::MAX;

/// Exits one round trip must cost: ICR write on both sides, plus the
/// external-interrupt exit on both receives under VAPIC.
pub const EXITS_PER_RTT: [u64; 2] = [4, 2];

/// One round trip in this many becomes an op span (with its children).
const SAMPLE_EVERY: u64 = 32;

/// A round trip slower than this is a lost IPI.
const RTT_TIMEOUT: Duration = Duration::from_secs(1);

struct Pair {
    world: World,
    ping: GuestCore,
    pong: GuestCore,
    vector: u8,
}

/// Per-world results of one pass.
#[derive(Clone, Debug, Default)]
pub struct PingPass {
    /// Round-trip times per world (the first of each round, which waits
    /// for the ponger to switch worlds, is excluded), µs.
    pub rtt_us: [Vec<f64>; 2],
    /// Round trips per world, including the excluded ones.
    pub rtts: [u64; 2],
    /// IPI-path exits per world: all exits of both cores minus one per
    /// timer interrupt.
    pub ipi_exits: [u64; 2],
    /// Vectors harvested from posted-interrupt descriptors per world.
    pub harvested: [u64; 2],
    /// Pings that did not get exactly one pong.
    pub unmatched: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl PingPass {
    /// Append another pass of the same arm.
    pub fn absorb(&mut self, o: PingPass) {
        for w in [VAPIC, PIV] {
            self.rtt_us[w].extend_from_slice(&o.rtt_us[w]);
            self.rtts[w] += o.rtts[w];
            self.ipi_exits[w] += o.ipi_exits[w];
            self.harvested[w] += o.harvested[w];
        }
        self.unmatched += o.unmatched;
        self.failed += o.failed;
    }
}

#[derive(Clone, Copy)]
struct CoreSnap {
    exits: u64,
    timer: u64,
    harvested: u64,
    ipis: u64,
}

fn snap(g: &GuestCore) -> CoreSnap {
    CoreSnap {
        exits: g.exit_count(),
        timer: g.counters.timer_irqs,
        harvested: g.counters.posted_harvested,
        ipis: g.counters.ipi_irqs,
    }
}

/// The arm.
pub struct PingArm {
    pairs: [Pair; 2],
    round: u64,
}

impl Pair {
    fn setup(cfg: CovirtConfig) -> CovirtResult<Pair> {
        let world = World::build(
            ExecMode::Covirt(cfg),
            HwLayout { cores: 2, zones: 1 },
            64 * 1024 * 1024,
        );
        let ping = world.guest_core(world.cores[0])?;
        let pong = world.guest_core(world.cores[1])?;
        let vector = *world
            .ipi_vectors()
            .first()
            .ok_or_else(|| CovirtError::EnclaveTerminated("no IPI vector".into()))?;
        Ok(Pair {
            world,
            ping,
            pong,
            vector,
        })
    }
}

impl PingArm {
    /// Build both worlds and warm them with one round each.
    pub fn setup(round: u64) -> CovirtResult<PingArm> {
        let mut arm = PingArm {
            pairs: [
                Pair::setup(CovirtConfig::MEM_IPI)?,
                Pair::setup(CovirtConfig::MEM_IPI_PIV)?,
            ],
            round,
        };
        let pass = arm.measure(0.0, &mut SpanLog::new(Instant::now(), false))?;
        if pass.failed + pass.unmatched != 0 {
            return Err(CovirtError::EnclaveTerminated(
                "ping-pong warm-up failed".into(),
            ));
        }
        Ok(arm)
    }

    /// Nodes of both worlds.
    pub fn nodes(&self) -> Vec<Arc<SimNode>> {
        self.pairs
            .iter()
            .map(|p| Arc::clone(&p.world.node))
            .collect()
    }

    /// Alternate rounds between the worlds for at least `secs` (at least
    /// one round each, VAPIC first). The ponger runs on a second thread.
    pub fn measure(&mut self, secs: f64, log: &mut SpanLog) -> CovirtResult<PingPass> {
        let traced = log.on();
        let [a, b] = &mut self.pairs;
        let before = [
            [snap(&a.ping), snap(&a.pong)],
            [snap(&b.ping), snap(&b.pong)],
        ];
        let dest = [[a.pong.core, a.ping.core], [b.pong.core, b.ping.core]];
        let vectors = [a.vector, b.vector];
        let mut pings = [&mut a.ping, &mut b.ping];
        let mut pongs = [&mut a.pong, &mut b.pong];
        if traced {
            pings.iter_mut().for_each(|g| g.profile_begin());
            pongs.iter_mut().for_each(|g| g.profile_begin());
        }
        let sel = AtomicUsize::new(VAPIC);
        let mut pass = PingPass::default();
        let round = self.round;
        let pong_failed = std::thread::scope(|s| {
            let ponger = s.spawn(|| {
                let mut handled = [pongs[0].counters.ipi_irqs, pongs[1].counters.ipi_irqs];
                loop {
                    let w = sel.load(Ordering::Acquire);
                    if w == STOP {
                        return false;
                    }
                    let g = &mut *pongs[w];
                    if g.poll().is_err() {
                        return true;
                    }
                    if g.counters.ipi_irqs != handled[w] {
                        handled[w] = g.counters.ipi_irqs;
                        if g.send_ipi(dest[w][1], vectors[w]).is_err() {
                            return true;
                        }
                    }
                }
            });
            let start = Instant::now();
            let mut rounds = 0u64;
            'outer: while rounds < 2 || start.elapsed().as_secs_f64() < secs {
                let w = (rounds % 2) as usize;
                sel.store(w, Ordering::Release);
                for k in 0..round {
                    let g = &mut *pings[w];
                    match rtt(g, dest[w][0], vectors[w], log, w, pass.rtts[w]) {
                        Ok(us) => {
                            if k > 0 {
                                pass.rtt_us[w].push(us);
                            }
                            pass.rtts[w] += 1;
                        }
                        Err(_) => {
                            pass.failed += 1;
                            break 'outer;
                        }
                    }
                }
                rounds += 1;
            }
            sel.store(STOP, Ordering::Release);
            ponger.join().expect("ponger thread panicked")
        });
        if pong_failed {
            pass.failed += 1;
        }
        if traced {
            pings.iter_mut().for_each(|g| g.profile_finish());
            pongs.iter_mut().for_each(|g| g.profile_finish());
        }
        for w in [VAPIC, PIV] {
            let now = [snap(&*pings[w]), snap(&*pongs[w])];
            let d = |f: fn(&CoreSnap) -> u64| {
                (0..2).map(|i| f(&now[i]) - f(&before[w][i])).sum::<u64>()
            };
            pass.ipi_exits[w] = d(|c| c.exits) - d(|c| c.timer);
            pass.harvested[w] = d(|c| c.harvested);
            // Every ping got exactly one pong: both sides received one
            // IPI per round trip.
            let got_ping = now[1].ipis - before[w][1].ipis;
            let got_pong = now[0].ipis - before[w][0].ipis;
            pass.unmatched += got_ping.abs_diff(pass.rtts[w]) + got_pong.abs_diff(pass.rtts[w]);
        }
        Ok(pass)
    }
}

/// One round trip from the pinger: send, then poll until the pong lands.
fn rtt(
    g: &mut GuestCore,
    dest: usize,
    vector: u8,
    log: &mut SpanLog,
    world: usize,
    n: u64,
) -> CovirtResult<f64> {
    let sampled = log.on() && n.is_multiple_of(SAMPLE_EVERY);
    let op = if sampled {
        log.open(["op.rtt_vapic", "op.rtt_piv"][world], NO_PARENT)
    } else {
        NO_PARENT
    };
    let before = g.counters.ipi_irqs;
    let t = Instant::now();
    let t0 = if sampled { log.now() } else { 0 };
    g.send_ipi(dest, vector)?;
    let t1 = if sampled { log.now() } else { 0 };
    let mut spins = 0u64;
    while g.counters.ipi_irqs == before {
        g.poll()?;
        spins += 1;
        if spins.is_multiple_of(4096) && t.elapsed() > RTT_TIMEOUT {
            return Err(CovirtError::EnclaveTerminated("lost IPI".into()));
        }
    }
    let us = t.elapsed().as_secs_f64() * 1e6;
    if sampled {
        let t2 = log.now();
        log.push("exec.send_ipi", t0, t1, op);
        log.push("exec.poll_loop", t1, t2, op);
        log.close(op);
    }
    Ok(us)
}
