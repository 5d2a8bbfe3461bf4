//! End-to-end and per-layer benchmark of the covirt workspace, driven
//! only through the crates' public APIs.
//!
//! Three arms measure the costs a co-kernel user pays under Covirt:
//! [`gups`] (RandomAccess, covirt vs native, paper Fig. 5b), [`churn`]
//! (a guest reading an attached XEMEM segment beside memory grant/reclaim
//! and segment attach/detach, paper Fig. 4) and [`pingpong`] (protected
//! IPIs, VAPIC vs posted). Every workload runs all three arms so that it
//! reports every end-to-end metric; the workload picks the *primary* arm,
//! which gets most of the measured time, and the guest core whose
//! data-path layer metrics the traced run reports (the XEMEM reader on
//! `memchurn`, the RandomAccess covirt core otherwise).
//!
//! A run with tracing off reports the end-to-end metrics. A traced run
//! measures once untraced and once with the node flight recorders,
//! phase profilers and the benchmark's own spans on, and reports the
//! per-layer metrics plus the tracing overhead on every end-to-end
//! metric.

pub mod churn;
pub mod datapath;
pub mod gups;
pub mod pingpong;
pub mod report;
pub mod spans;

use churn::{Audit, ChurnArm, ChurnPass, ChurnSize};
use covirt::exec::CoreCounters;
use covirt::{CovirtResult, GuestCore};
use covirt_simhw::node::SimNode;
use covirt_simhw::tlb::TlbStats;
use covirt_trace::metrics::Hist;
use covirt_trace::profile::Phase;
use gups::{GupsArm, GupsPass};
use pingpong::{PingArm, PingPass, EXITS_PER_RTT, PIV, VAPIC};
use report::{Metrics, END_TO_END};
use spans::{median, percentile, ratio, reconcile, SpanLog};
use std::sync::Arc;
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// RandomAccess is the primary arm.
    Gups,
    /// Memory and segment churn beside a reader is the primary arm.
    Memchurn,
    /// IPI ping-pong is the primary arm.
    IpiPingpong,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Gups, Workload::Memchurn, Workload::IpiPingpong];

    /// Command-line name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Gups => "gups",
            Workload::Memchurn => "memchurn",
            Workload::IpiPingpong => "ipi_pingpong",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of the arms.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// RandomAccess table of `2^n` entries.
    pub gups_log2n: u32,
    /// RandomAccess updates per side per round.
    pub gups_round: u64,
    /// Memchurn sizes.
    pub churn: ChurnSize,
    /// Round trips per world per ping-pong round.
    pub ping_round: u64,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
}

impl Scale {
    /// The benchmark's scale: a 256 MiB RandomAccess table, a 32 MiB
    /// reader segment, 8 MiB attaches and 2 MiB grants.
    pub const FULL: Scale = Scale {
        gups_log2n: 25,
        gups_round: 1 << 18,
        churn: ChurnSize {
            log2n: 22,
            cycle_bytes: 8 << 20,
            grant_bytes: 2 << 20,
        },
        ping_round: 2000,
        setups: 5,
    };

    /// A seconds-long scale for tests.
    pub const TINY: Scale = Scale {
        gups_log2n: 16,
        gups_round: 1 << 12,
        churn: ChurnSize {
            log2n: 16,
            cycle_bytes: 2 << 20,
            grant_bytes: 2 << 20,
        },
        ping_round: 50,
        setups: 1,
    };
}

/// One benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Workload.
    pub workload: Workload,
    /// Seed of every HPCC stream.
    pub seed: u64,
    /// Measured seconds (split across the arms, and across the untraced
    /// and traced passes of a traced run).
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
}

/// What a run produced.
pub struct Outcome {
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted (updates, control ops, round trips).
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// The catalogue's metrics for this kind of run.
    pub metrics: Metrics,
    /// Spans of the traced pass (empty when untraced).
    pub spans: SpanLog,
    /// Human-readable notes (sample counts, check results).
    pub notes: Vec<String>,
}

/// Snapshot of a guest core's data-path counters.
#[derive(Clone, Copy)]
pub struct DpSnap {
    c: CoreCounters,
    t: TlbStats,
    exits: u64,
    updates: u64,
}

/// Data-path counter deltas of one guest core over a pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct DpStats {
    /// Updates (read+write pairs).
    pub updates: u64,
    /// Page walks.
    pub walks: u64,
    /// Table-entry loads across the walks.
    pub walk_loads: u64,
    /// EPT walk-cache hits / misses.
    pub walk_cache: (u64, u64),
    /// Region-cache hits / misses.
    pub resolve: (u64, u64),
    /// TLB hits / misses.
    pub tlb: (u64, u64),
    /// TLB range / full flushes.
    pub flushes: (u64, u64),
    /// VM exits.
    pub exits: u64,
    /// Command doorbells seen at safe points.
    pub doorbells: u64,
}

impl DpStats {
    /// Add another span of the same core's counters.
    pub fn add(&mut self, o: &DpStats) {
        let pair = |a: &mut (u64, u64), b: (u64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        self.updates += o.updates;
        self.walks += o.walks;
        self.walk_loads += o.walk_loads;
        pair(&mut self.walk_cache, o.walk_cache);
        pair(&mut self.resolve, o.resolve);
        pair(&mut self.tlb, o.tlb);
        pair(&mut self.flushes, o.flushes);
        self.exits += o.exits;
        self.doorbells += o.doorbells;
    }
}

impl DpSnap {
    /// Snapshot `g` after `updates` updates.
    pub fn take(g: &GuestCore, updates: u64) -> DpSnap {
        DpSnap {
            c: g.counters(),
            t: g.tlb_stats(),
            exits: g.exit_count(),
            updates,
        }
    }

    /// Deltas from `b` to `self`.
    pub fn since(&self, b: &DpSnap) -> DpStats {
        let (a, b) = (self, b);
        DpStats {
            updates: a.updates - b.updates,
            walks: a.c.walks - b.c.walks,
            walk_loads: a.c.walk_loads - b.c.walk_loads,
            walk_cache: (
                a.c.walk_cache_hits - b.c.walk_cache_hits,
                a.c.walk_cache_misses - b.c.walk_cache_misses,
            ),
            resolve: (
                a.c.resolve_hits - b.c.resolve_hits,
                a.c.resolve_misses - b.c.resolve_misses,
            ),
            tlb: (a.t.hits - b.t.hits, a.t.misses - b.t.misses),
            flushes: (
                a.t.range_flushes - b.t.range_flushes,
                a.t.full_flushes - b.t.full_flushes,
            ),
            exits: a.exits - b.exits,
            doorbells: a.c.cmd_doorbells - b.c.cmd_doorbells,
        }
    }
}

/// Share of measured time the primary arm gets; each companion gets
/// half the rest.
const PRIMARY_SHARE: f64 = 0.6;

struct Arms {
    gups: GupsArm,
    churn: ChurnArm,
    ping: PingArm,
}

impl Arms {
    fn setup(cfg: &Config) -> CovirtResult<Arms> {
        let s = cfg.scale;
        Ok(Arms {
            gups: GupsArm::setup(s.gups_log2n, s.gups_round, cfg.seed)?,
            churn: ChurnArm::setup(s.churn, cfg.seed)?,
            ping: PingArm::setup(s.ping_round)?,
        })
    }

    fn nodes(&self) -> Vec<Arc<SimNode>> {
        let mut n = self.gups.nodes();
        n.push(Arc::clone(self.churn.node()));
        n.extend(self.ping.nodes());
        n
    }
}

/// Windows a pass is cut into. The arms take turns inside every window,
/// so all three see the same host conditions, and each end-to-end metric
/// is the median over the windows of the window's statistic: on a shared
/// host, contention from other tenants comes and goes on a scale of
/// seconds, and a burst that spoils one window does not move the median.
const WINDOWS: usize = 12;

/// One window over the three arms (or, merged, a whole pass).
#[derive(Default)]
struct Pass {
    gups: GupsPass,
    churn: ChurnPass,
    ping: PingPass,
}

impl Pass {
    fn absorb(&mut self, o: Pass) {
        self.gups.absorb(o.gups);
        self.churn.absorb(o.churn);
        self.ping.absorb(o.ping);
    }
}

fn measure(arms: &mut Arms, cfg: &Config, secs: f64, log: &mut SpanLog) -> CovirtResult<Vec<Pass>> {
    let share = |w: Workload| {
        let s = if w == cfg.workload {
            PRIMARY_SHARE
        } else {
            (1.0 - PRIMARY_SHARE) / 2.0
        };
        s * secs / WINDOWS as f64
    };
    let hz = arms.churn.node().clock.hz();
    let mut audit = log.on().then(|| Audit::new(hz));
    let mut windows = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let gups = arms.gups.measure(share(Workload::Gups), log)?;
        let churn = arms
            .churn
            .measure(share(Workload::Memchurn), log, audit.as_mut())?;
        let ping = arms.ping.measure(share(Workload::IpiPingpong), log)?;
        windows.push(Pass { gups, churn, ping });
    }
    if let (Some(a), Some(last)) = (audit, windows.last_mut()) {
        last.churn.violations = a.finish(arms.churn.node());
    }
    Ok(windows)
}

/// End-to-end metrics of one window (everything but `setup_s`), plus the
/// [`report::UNRESOLVED`] statistics.
fn window_metrics(p: &Pass) -> Metrics {
    let mut m = Metrics::default();
    m.put("guest_mups", median(&p.gups.covirt_mups));
    m.put("reader_mups", p.churn.reader_mups());
    m.put("covirt_slowdown", median(&p.gups.slowdown));
    m.put("grant_us_p50", percentile(&p.churn.grant_us, 50.0));
    m.put("reclaim_us_p50", percentile(&p.churn.reclaim_us, 50.0));
    m.put("reclaim_us_p95", percentile(&p.churn.reclaim_us, 95.0));
    m.put("reclaim_us_p99", percentile(&p.churn.reclaim_us, 99.0));
    m.put("attach_us_p50", percentile(&p.churn.attach_us, 50.0));
    m.put("detach_us_p50", percentile(&p.churn.detach_us, 50.0));
    m.put("ipi_rtt_us_p50", percentile(&p.ping.rtt_us[VAPIC], 50.0));
    m.put("ipi_rtt_us_p99", percentile(&p.ping.rtt_us[VAPIC], 99.0));
    m.put("piv_rtt_us_p50", percentile(&p.ping.rtt_us[PIV], 50.0));
    m.put("piv_rtt_us_p99", percentile(&p.ping.rtt_us[PIV], 99.0));
    m
}

/// Each end-to-end metric's median over the windows, plus a note with
/// every window's value.
fn median_of_windows(windows: &[Pass], notes: &mut Vec<String>) -> Metrics {
    let per: Vec<Metrics> = windows.iter().map(window_metrics).collect();
    let mut m = Metrics::default();
    for &name in per[0].0.keys() {
        let vals: Vec<f64> = per.iter().map(|w| w.get(name).unwrap_or(0.0)).collect();
        notes.push(format!("  {name} windows: {vals:.3?}"));
        m.put(name, median(&vals));
    }
    m
}

/// Sum of a phase's cycles over every lane of `nodes` (overlay excluded).
fn phase_cycles(nodes: &[Arc<SimNode>]) -> ([u64; 8], u64) {
    let mut by = [0u64; 8];
    for n in nodes {
        for lane in n.recorder().profiler().snapshot().lanes {
            for e in lane.enclaves {
                for (i, c) in e.cycles.iter().enumerate() {
                    by[i] += c;
                }
            }
        }
    }
    (by, by.iter().sum())
}

fn hist(nodes: &[Arc<SimNode>], h: Hist) -> covirt_trace::metrics::HistSnapshot {
    let mut s = covirt_trace::metrics::HistSnapshot::default();
    for n in nodes {
        s.merge(&n.recorder().metrics().histogram(h));
    }
    s
}

/// Per-layer metrics of the traced pass.
fn per_layer(cfg: &Config, arms: &Arms, p: &Pass, log: &SpanLog, m: &mut Metrics) {
    let p50 = |name: &str| percentile(&log.durations(name), 50.0);
    m.put("exec.update_hit_ns_p50", p50("exec.update_hit"));
    m.put("exec.update_miss_ns_p50", p50("exec.update_miss"));
    m.put("exec.poll_ns_p50", p50("exec.poll"));
    m.put("exec.poll_harvest_ns_p50", p50("exec.poll_harvest"));
    m.put("exec.send_ipi_ns_p50", p50("exec.send_ipi"));

    let dp = match cfg.workload {
        Workload::Memchurn => p.churn.dp,
        _ => p.gups.dp,
    };
    m.put(
        "exec.walks_per_kupdate",
        ratio(dp.walks as f64 * 1e3, dp.updates as f64),
    );
    m.put(
        "ept.walk_loads_per_walk",
        ratio(dp.walk_loads as f64, dp.walks as f64),
    );
    let rate = |(h, x): (u64, u64)| ratio(h as f64, (h + x) as f64);
    m.put("ept.walk_cache_hit_rate", rate(dp.walk_cache));
    m.put("mem.resolve_hit_rate", rate(dp.resolve));
    m.put("tlb.hit_rate", rate(dp.tlb));

    let c = &p.churn;
    let cycles = c.cycles as f64;
    let per_cycle = |v: u64| ratio(v as f64, cycles);
    m.put("tlb.range_flushes_per_cycle", per_cycle(c.dp.flushes.0));
    m.put("tlb.full_flushes_per_cycle", per_cycle(c.dp.flushes.1));

    let pp = &p.ping;
    m.put(
        "hv.exits_per_rtt",
        ratio(pp.ipi_exits[VAPIC] as f64, pp.rtts[VAPIC] as f64),
    );
    m.put(
        "hv.piv_exits_per_rtt",
        ratio(pp.ipi_exits[PIV] as f64, pp.rtts[PIV] as f64),
    );
    m.put(
        "posted.harvested_per_rtt",
        ratio(pp.harvested[PIV] as f64, pp.rtts[PIV] as f64),
    );
    let ping_nodes = arms.ping.nodes();
    m.put(
        "hv.exit_handle_ns_p50",
        hist(&ping_nodes, Hist::ExitHandleNs).quantile(0.5) as f64,
    );
    let g = &p.gups.dp;
    m.put(
        "hv.exits_per_mupdate",
        ratio(g.exits as f64 * 1e6, g.updates as f64),
    );

    let churn_node = [Arc::clone(arms.churn.node())];
    m.put("ctl.shootdowns_per_cycle", per_cycle(c.ctl.shootdowns));
    m.put("ctl.doorbells_per_cycle", per_cycle(c.dp.doorbells));
    m.put("ctl.nmi_escalations", c.ctl.nmi_escalations as f64);
    let sd = hist(&churn_node, Hist::ShootdownRttNs);
    m.put("ctl.shootdown_rtt_ns_p50", sd.quantile(0.5) as f64);
    m.put("ctl.shootdown_rtt_ns_p99", sd.quantile(0.99) as f64);
    m.put(
        "ctl.cmd_latency_ns_p50",
        hist(&churn_node, Hist::CmdLatencyNs).quantile(0.5) as f64,
    );
    m.put("ept.map_ops_per_cycle", per_cycle(c.ctl.ept_maps));
    m.put("ept.unmap_ops_per_cycle", per_cycle(c.ctl.ept_unmaps));
    m.put(
        "mem.snapshot_swaps_per_cycle",
        per_cycle(c.ctl.snapshot_swaps),
    );
    m.put(
        "mem.resolve_misses_per_cycle",
        per_cycle(c.ctl.resolve_misses),
    );
    m.put(
        "mem.retire_backlog_high_water",
        c.ctl.retire_backlog_high_water as f64,
    );

    let us50 = |name: &str| p50(name) / 1e3;
    m.put("pisces.add_memory_us_p50", us50("pisces.add_memory"));
    m.put("pisces.poll_ctrl_us_p50", us50("pisces.poll_ctrl"));
    m.put("pisces.process_acks_us_p50", us50("pisces.process_acks"));
    m.put(
        "pisces.request_remove_us_p50",
        us50("pisces.request_remove"),
    );
    m.put("hobbes.export_us_p50", us50("hobbes.export"));
    m.put("hobbes.destroy_us_p50", us50("hobbes.destroy"));

    let (by, total) = phase_cycles(&arms.nodes());
    let share = |ph: Phase| ratio(by[ph as usize] as f64, total as f64);
    m.put("phase.guest_exec_share", share(Phase::GuestExec));
    m.put("phase.root_exit_share", share(Phase::RootExit));
    m.put("phase.cmd_harvest_share", share(Phase::CmdHarvest));
    m.put("phase.region_resolve_share", share(Phase::RegionResolve));
    m.put("phase.safe_point_share", share(Phase::SafePoint));
    let node = arms.churn.node();
    let wait: u64 = node
        .recorder()
        .profiler()
        .snapshot()
        .overlay
        .iter()
        .map(|e| e.cycles[Phase::ShootdownWait as usize])
        .sum();
    m.put(
        "phase.shootdown_wait_us_per_cycle",
        ratio(node.clock.cycles_to_ns(wait) as f64 / 1e3, cycles),
    );

    let r = reconcile(log.spans());
    m.put("span.exec_self_share", r.share("exec"));
    m.put("span.pisces_self_share", r.share("pisces"));
    m.put("span.hobbes_self_share", r.share("hobbes"));
    m.put("span.residual_share", r.share("op"));
    let resid = |op: &str| {
        r.residuals
            .get(op)
            .map(|v| percentile(v, 50.0))
            .unwrap_or(0.0)
    };
    m.put("span.grant_residual_us_p50", resid("op.grant") / 1e3);
    m.put("span.reclaim_residual_us_p50", resid("op.reclaim") / 1e3);
    m.put("span.attach_residual_us_p50", resid("op.attach") / 1e3);
    m.put("span.detach_residual_us_p50", resid("op.detach") / 1e3);
    m.put("span.ipi_rtt_residual_ns_p50", resid("op.rtt_vapic"));
    m.put("span.piv_rtt_residual_ns_p50", resid("op.rtt_piv"));
}

/// Tracing overhead on each end-to-end metric, in percent (positive =
/// the traced pass was worse).
fn overhead(untraced: &Metrics, traced: &Metrics, m: &mut Metrics) {
    for e in END_TO_END.iter().filter(|e| e.name != "setup_s") {
        let (u, t) = (
            untraced.get(e.name).unwrap_or(0.0),
            traced.get(e.name).unwrap_or(0.0),
        );
        let worse = match e.better {
            report::Better::Lower => t - u,
            report::Better::Higher => u - t,
        };
        let name = report::PER_LAYER
            .iter()
            .find(|l| l.name.strip_prefix("trace.overhead_pct.") == Some(e.name))
            .expect("catalogued")
            .name;
        m.put(name, ratio(worse * 100.0, u));
    }
}

/// Operations a pass attempted and how many failed.
fn tally(p: &Pass) -> (u64, u64) {
    let attempted = p.gups.dp.updates * 2
        + p.churn.dp.updates
        + p.churn.cycles * 6
        + p.ping.rtts.iter().sum::<u64>();
    let mut failed = p.churn.failed
        + p.churn.violations
        + p.churn.missed_doorbells
        + p.ping.failed
        + p.ping.unmatched;
    for w in [VAPIC, PIV] {
        if p.ping.ipi_exits[w] != EXITS_PER_RTT[w] * p.ping.rtts[w] {
            failed += 1;
        }
    }
    (attempted, failed)
}

/// Run one benchmark.
pub fn run(cfg: &Config) -> CovirtResult<Outcome> {
    let mut notes = Vec::new();
    let mut setup_s = Vec::new();
    let mut arms = None;
    for _ in 0..cfg.scale.setups.max(1) {
        // Free the previous set-up before building the next.
        drop(arms.take());
        let t = Instant::now();
        arms = Some(Arms::setup(cfg)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut arms = arms.expect("at least one set-up");
    notes.push(format!("setup_s samples: {setup_s:?}"));

    let epoch = Instant::now();
    let mut metrics = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut spans = SpanLog::new(epoch, false);
    let passes = if cfg.trace { 2 } else { 1 };
    let mut untraced = Metrics::default();
    for k in 0..passes {
        let traced = k == 1;
        let nodes = arms.nodes();
        for n in &nodes {
            n.recorder().set_enabled(traced);
            n.recorder().profiler().set_enabled(traced);
        }
        let mut log = SpanLog::new(epoch, traced);
        let windows = measure(&mut arms, cfg, cfg.seconds / passes as f64, &mut log)?;
        for n in &nodes {
            n.recorder().set_enabled(false);
            n.recorder().profiler().set_enabled(false);
        }
        let e2e = median_of_windows(&windows, &mut notes);
        let mut pass = Pass::default();
        for w in windows {
            pass.absorb(w);
        }
        let (a, f) = tally(&pass);
        attempted += a;
        failed += f;
        notes.push(format!(
            "pass {k} ({}): gups rounds {}, memchurn cycles {}, reader updates {}, round trips vapic {} piv {}, ipi exits vapic {} piv {}, escalations {} (commands delivered by NMI {}, missed doorbells {}, longest reader stall {:.1} ms), audit violations {}, failed ops: memchurn {} ping-pong {} unmatched {}",
            if traced { "traced" } else { "untraced" },
            pass.gups.slowdown.len(),
            pass.churn.cycles,
            pass.churn.dp.updates,
            pass.ping.rtts[VAPIC],
            pass.ping.rtts[PIV],
            pass.ping.ipi_exits[VAPIC],
            pass.ping.ipi_exits[PIV],
            pass.churn.ctl.nmi_escalations,
            pass.churn.nmi_commands,
            pass.churn.missed_doorbells,
            pass.churn.reader_stall_s * 1e3,
            pass.churn.violations,
            pass.churn.failed,
            pass.ping.failed,
            pass.ping.unmatched,
        ));
        if traced {
            per_layer(cfg, &arms, &pass, &log, &mut metrics);
            overhead(&untraced, &e2e, &mut metrics);
            // Unresolved end-to-end statistics come from the untraced pass.
            for (e2e_name, layer_name) in report::UNRESOLVED {
                metrics.put(layer_name, untraced.get(e2e_name).unwrap_or(0.0));
            }
            spans = log;
        } else {
            untraced = e2e;
        }
    }
    if !cfg.trace {
        metrics = untraced;
        metrics.put("setup_s", median(&setup_s));
    }

    let (bad_gups, gups_updates) = arms.gups.verify()?;
    let (bad_reader, reader_updates) = arms.churn.verify()?;
    notes.push(format!(
        "checksums: gups {bad_gups} bad folds over {gups_updates} updates, reader {bad_reader} bad folds over {reader_updates} updates"
    ));
    failed += bad_gups + bad_reader;
    Ok(Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        spans,
        notes,
    })
}
