//! Per-figure drivers: one function per table/figure in the paper's
//! evaluation, each sweeping the paper's configurations and returning the
//! same rows/series the paper plots. The `figures` binary (covirt-bench)
//! prints them.

use crate::env::World;
use crate::{hpcg, md, minife, randomaccess, selfish, stream, table1, xemem_bench};
use covirt::ExecMode;
use covirt_simhw::topology::HwLayout;

/// Scale selector: `Quick` finishes the full suite in minutes; `Paper`
/// uses Table I parameters (hours, and gigabytes of backing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down defaults.
    Quick,
    /// The paper's parameters.
    Paper,
}

/// Figure 3 — Selfish-Detour noise profile per configuration.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Configuration label.
    pub mode: String,
    /// Detected detours (time offset ns, duration ns).
    pub detours: Vec<(u64, u64)>,
    /// Noise fraction.
    pub noise_fraction: f64,
    /// Detour rate per second.
    pub rate_hz: f64,
    /// Minimum loop time (ns).
    pub min_loop_ns: u64,
}

/// Run Figure 3.
pub fn fig3(scale: Scale) -> Vec<Fig3Row> {
    let duration_ms = match scale {
        Scale::Quick => 150,
        Scale::Paper => 5_000,
    };
    ExecMode::paper_sweep()
        .iter()
        .map(|&mode| {
            let w = World::quick(mode);
            let r = selfish::run(&w, duration_ms);
            Fig3Row {
                mode: mode.label(),
                detours: r.detours.iter().map(|d| (d.at_ns, d.duration_ns)).collect(),
                noise_fraction: r.noise_fraction(),
                rate_hz: r.detour_rate_hz(),
                min_loop_ns: r.min_loop_ns,
            }
        })
        .collect()
}

/// Figure 4 — XEMEM attach delay vs region size, Covirt on/off.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// "native" or "covirt".
    pub mode: String,
    /// (size MiB, mean µs, stddev µs) per size.
    pub samples: Vec<(u64, f64, f64)>,
}

/// Run Figure 4.
pub fn fig4(scale: Scale) -> Vec<Fig4Row> {
    let sizes: &[u64] = match scale {
        Scale::Quick => &xemem_bench::DEFAULT_SIZES_MIB,
        Scale::Paper => &xemem_bench::PAPER_SIZES_MIB,
    };
    let reps = match scale {
        Scale::Quick => 5,
        Scale::Paper => 10,
    };
    [
        ExecMode::Native,
        ExecMode::Covirt(covirt::config::CovirtConfig::MEM),
    ]
    .iter()
    .map(|&mode| Fig4Row {
        mode: mode.label(),
        samples: xemem_bench::run(mode, sizes, reps)
            .into_iter()
            .map(|s| (s.size_mib, s.mean_us, s.stddev_us))
            .collect(),
    })
    .collect()
}

/// Figure 5a — STREAM bandwidths per configuration.
#[derive(Clone, Debug)]
pub struct Fig5aRow {
    /// Configuration label.
    pub mode: String,
    /// Bandwidths in MB/s.
    pub copy: f64,
    /// Scale kernel.
    pub scale: f64,
    /// Add kernel.
    pub add: f64,
    /// Triad kernel.
    pub triad: f64,
}

/// Run Figure 5a. Worlds are built up front and the timed trials are
/// interleaved round-robin across configurations (drift cancellation, as
/// for Figure 5b); STREAM convention keeps the best bandwidth per kernel.
pub fn fig5a(scale: Scale) -> Vec<Fig5aRow> {
    let (n, trials) = match scale {
        Scale::Quick => (1 << 22, 5),
        Scale::Paper => (1 << 24, 10),
    };
    let mem = (n as u64 * 8 * 3 + 96 * 1024 * 1024).max(crate::env::DEFAULT_ENCLAVE_MEM);
    let mut setups: Vec<(ExecMode, World)> = ExecMode::paper_sweep()
        .iter()
        .map(|&mode| {
            (
                mode,
                World::build(mode, HwLayout { cores: 1, zones: 1 }, mem),
            )
        })
        .collect();
    let mut runs: Vec<(ExecMode, stream::Stream, covirt::GuestCore)> = setups
        .iter_mut()
        .map(|(mode, w)| {
            let s = stream::Stream::setup(w, n);
            let mut g = w.guest_core(w.cores[0]).expect("guest core");
            s.init(&mut g).expect("init");
            s.run_once(&mut g).expect("warmup");
            (*mode, s, g)
        })
        .collect();
    let mut best = vec![
        Fig5aRow {
            mode: String::new(),
            copy: 0.0,
            scale: 0.0,
            add: 0.0,
            triad: 0.0
        };
        runs.len()
    ];
    for _ in 0..trials {
        for (i, (mode, s, g)) in runs.iter_mut().enumerate() {
            let r = s.run_once(g).expect("stream");
            best[i].mode = mode.label();
            best[i].copy = best[i].copy.max(r.copy_mbs);
            best[i].scale = best[i].scale.max(r.scale_mbs);
            best[i].add = best[i].add.max(r.add_mbs);
            best[i].triad = best[i].triad.max(r.triad_mbs);
        }
    }
    best
}

/// Figure 5b — RandomAccess GUPS per configuration.
#[derive(Clone, Debug)]
pub struct Fig5bRow {
    /// Configuration label.
    pub mode: String,
    /// Giga-updates per second.
    pub gups: f64,
    /// Observed TLB miss rate.
    pub tlb_miss_rate: f64,
    /// Table-entry loads per TLB miss (~4 native, up to ~24 nested).
    pub walk_loads_per_miss: f64,
    /// EPT walk-cache hit rate (0 natively).
    pub walk_cache_hit_rate: f64,
}

/// Run Figure 5b. All four configurations are built up front, warmed, and
/// then measured in interleaved round-robin batches so slow drift of the
/// shared host cancels; the per-configuration median GUPS is reported
/// (the paper averages ten runs per configuration).
pub fn fig5b(scale: Scale) -> Vec<Fig5bRow> {
    let (log2_n, updates, reps) = match scale {
        Scale::Quick => (table1::RA_LOG2_TABLE_DEFAULT, 2_000_000u64, 9),
        Scale::Paper => (table1::RA_LOG2_TABLE_PAPER, 16_000_000u64, 15),
    };
    let mem = ((8u64 << log2_n) + 96 * 1024 * 1024).max(crate::env::DEFAULT_ENCLAVE_MEM);
    let modes = ExecMode::paper_sweep();
    // Build every world and warm every table first.
    let mut setups: Vec<(ExecMode, World)> = modes
        .iter()
        .map(|&mode| {
            (
                mode,
                World::build(mode, HwLayout { cores: 1, zones: 1 }, mem),
            )
        })
        .collect();
    let mut runs: Vec<(ExecMode, randomaccess::RandomAccess, covirt::GuestCore)> = setups
        .iter_mut()
        .map(|(mode, w)| {
            let ra = randomaccess::RandomAccess::setup(w, log2_n);
            let mut g = w.guest_core(w.cores[0]).expect("guest core");
            ra.init(&mut g).expect("init");
            ra.run(&mut g, updates / 2).expect("warmup");
            (*mode, ra, g)
        })
        .collect();
    // Interleaved measurement.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); runs.len()];
    let mut miss: Vec<f64> = vec![0.0; runs.len()];
    let mut walk: Vec<(f64, f64)> = vec![(0.0, 0.0); runs.len()];
    for _ in 0..reps {
        for (i, (_, ra, g)) in runs.iter_mut().enumerate() {
            let r = ra.run(g, updates).expect("updates");
            samples[i].push(r.gups);
            miss[i] = r.tlb_miss_rate;
            walk[i] = (r.walk_loads_per_miss(), r.walk_cache_hit_rate());
        }
    }
    runs.iter()
        .enumerate()
        .map(|(i, (mode, _, _))| Fig5bRow {
            mode: mode.label(),
            gups: covirt::stats::median(&samples[i]),
            tlb_miss_rate: miss[i],
            walk_loads_per_miss: walk[i].0,
            walk_cache_hit_rate: walk[i].1,
        })
        .collect()
}

/// Figures 6/7 — scaling over CPU-core/NUMA-zone layouts.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Configuration label.
    pub mode: String,
    /// Layout label, e.g. "4c/2z".
    pub layout: String,
    /// Performance metric (MFLOP/s for MiniFE, GFLOP/s for HPCG).
    pub perf: f64,
    /// Solve seconds.
    pub seconds: f64,
}

/// Sweep a scaling figure: per layout, one discarded warm-up run per
/// configuration followed by `reps` measured runs round-robin across
/// configurations; the median is reported. (The paper runs everything ten
/// times; the interleaving additionally cancels host drift.)
fn scaling_sweep(
    reps: usize,
    run_one: impl Fn(ExecMode, HwLayout) -> (f64, f64),
) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for layout in HwLayout::paper_layouts() {
        let modes = ExecMode::paper_sweep();
        for &mode in &modes {
            let _ = run_one(mode, layout); // warm-up, discarded
        }
        let mut perf: Vec<Vec<f64>> = vec![Vec::new(); modes.len()];
        let mut secs: Vec<Vec<f64>> = vec![Vec::new(); modes.len()];
        for _ in 0..reps {
            for (i, &mode) in modes.iter().enumerate() {
                let (p, s) = run_one(mode, layout);
                perf[i].push(p);
                secs[i].push(s);
            }
        }
        for (i, &mode) in modes.iter().enumerate() {
            rows.push(ScalingRow {
                mode: mode.label(),
                layout: layout.to_string(),
                perf: covirt::stats::median(&perf[i]),
                seconds: covirt::stats::median(&secs[i]),
            });
        }
    }
    rows
}

/// Run Figure 6 (MiniFE).
pub fn fig6(scale: Scale) -> Vec<ScalingRow> {
    let (dim, iters, reps) = match scale {
        Scale::Quick => (table1::MINIFE_DIM_DEFAULT / 2, 100, 3),
        Scale::Paper => (table1::MINIFE_DIM_PAPER, 200, 5),
    };
    scaling_sweep(reps, |mode, layout| {
        let w = World::build(mode, layout, crate::env::DEFAULT_ENCLAVE_MEM);
        let r = minife::run(&w, dim, iters);
        (r.mflops, r.solve_seconds)
    })
}

/// Run Figure 7 (HPCG).
pub fn fig7(scale: Scale) -> Vec<ScalingRow> {
    let (dim, iters, reps) = match scale {
        Scale::Quick => (table1::HPCG_DIM_DEFAULT / 2, 40, 3),
        Scale::Paper => (table1::HPCG_DIM_PAPER, 50, 5),
    };
    scaling_sweep(reps, |mode, layout| {
        let w = World::build(mode, layout, crate::env::DEFAULT_ENCLAVE_MEM);
        let r = hpcg::run(&w, dim, iters);
        (r.gflops, r.seconds)
    })
}

/// Figure 8 — LAMMPS loop times per workload and configuration.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Configuration label.
    pub mode: String,
    /// Workload name (lj/chain/eam/chute).
    pub workload: String,
    /// Loop time in seconds (lower is better).
    pub loop_time_s: f64,
}

/// Run Figure 8 (8 cores / 2 NUMA zones, per the paper): per workload, a
/// warm-up run per configuration then `reps` interleaved measured runs,
/// reporting median loop time.
pub fn fig8(scale: Scale) -> Vec<Fig8Row> {
    let layout = HwLayout { cores: 8, zones: 2 };
    let reps = match scale {
        Scale::Quick => 3,
        Scale::Paper => 5,
    };
    let mut rows = Vec::new();
    for wl in md::MdWorkload::ALL {
        let mut params = md::MdParams::default_for(wl);
        if scale == Scale::Paper {
            params.n_atoms = 32_000;
            params.steps = 100;
        }
        let modes = ExecMode::paper_sweep();
        let run_one = |mode| {
            let w = World::build(mode, layout, crate::env::DEFAULT_ENCLAVE_MEM);
            md::run(&w, params).loop_time_s
        };
        for &mode in &modes {
            let _ = run_one(mode); // warm-up
        }
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); modes.len()];
        for _ in 0..reps {
            for (i, &mode) in modes.iter().enumerate() {
                times[i].push(run_one(mode));
            }
        }
        for (i, &mode) in modes.iter().enumerate() {
            rows.push(Fig8Row {
                mode: mode.label(),
                workload: wl.label().to_owned(),
                loop_time_s: covirt::stats::median(&times[i]),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    // The figure drivers are exercised end-to-end (at reduced scale) by
    // the integration suite; here only cheap structural checks run.

    #[test]
    fn sweep_labels_unique() {
        let labels: Vec<String> = ExecMode::paper_sweep().iter().map(|m| m.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }

    #[test]
    fn fig3_quick_runs() {
        let rows = fig3(Scale::Quick);
        assert_eq!(rows.len(), 4);
        for r in rows {
            assert!(r.min_loop_ns > 0);
            assert!(
                r.noise_fraction < 0.5,
                "{}: noise {}",
                r.mode,
                r.noise_fraction
            );
        }
    }
}
