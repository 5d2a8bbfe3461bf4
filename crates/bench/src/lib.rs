//! # covirt-bench — the evaluation harness
//!
//! One entry point, the **`figures` binary** (`cargo run -p covirt-bench
//! --release --bin figures -- <subcommand> [--full]`; no arguments prints
//! the usage text generated from its subcommand table):
//!
//! * `table1`, `fig3`, `fig4`, `fig5a`, `fig5b`, `fig6`, `fig7`, `fig8`
//!   re-run a paper experiment and print the same rows/series its table or
//!   figure reports, including the overhead percentages the text quotes;
//!   `all` runs these plus `scaling` and `shootdown`;
//! * `scaling`, `numa`, `shootdown`, `traceovh`, `audit`, `selfheal`,
//!   `exitless` and `profile` run the repo's extension harnesses; all but
//!   `scaling` and `shootdown` are gated (a failed check exits 1);
//! * `trace` and `report` export flight-recorder artifacts;
//! * `bench` runs the structured benchmark suite (gated) and, with
//!   `--compare`, the baseline regression gate.
//!
//! This library holds the shared formatting helpers, the shared
//! [`gate::GateResult`] pass/fail path every gated subcommand exits
//! through, and the [`suite`] module behind `figures bench`: the
//! structured benchmark runner, its declarative gate table, and the
//! baseline comparator plumbing (schema in `covirt_trace::bench`).

pub mod gate;
pub mod suite;

use covirt::stats::overhead_pct;
use workloads::figures::{Fig3Row, Fig4Row, Fig5aRow, Fig5bRow, Fig8Row, ScalingRow};
use workloads::scaling::{ChurnIsolation, FragPoint, NumaPoint, ScalingPoint};

/// Format an overhead percentage for a table cell: two decimals, or
/// `"n/a"` when the baseline was zero (`overhead_pct` yields NaN then).
pub fn fmt_pct(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else {
        format!("{v:.2}")
    }
}

/// Render Figure 3 output: per-configuration noise summaries plus the
/// first few detour samples (the scatter the paper plots).
pub fn render_fig3(rows: &[Fig3Row]) -> String {
    let mut out = String::from(
        "Fig. 3 — Selfish-Detour noise profile (single core)\n\
         config              detours/s   noise-%    min-loop-ns\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<19} {:>9.1} {:>9.4} {:>13}\n",
            r.mode,
            r.rate_hz,
            r.noise_fraction * 100.0,
            r.min_loop_ns
        ));
    }
    out.push_str("\nscatter samples (offset-ms, detour-us), per config:\n");
    for r in rows {
        let pts: Vec<String> = r
            .detours
            .iter()
            .take(8)
            .map(|&(at, d)| format!("({:.1},{:.1})", at as f64 / 1e6, d as f64 / 1e3))
            .collect();
        out.push_str(&format!("  {:<18} {}\n", r.mode, pts.join(" ")));
    }
    out
}

/// Render Figure 4: attach delay vs size for each mode.
pub fn render_fig4(rows: &[Fig4Row]) -> String {
    let mut out = String::from("Fig. 4 — XEMEM attach delay\nsize-MiB");
    for r in rows {
        out.push_str(&format!(" {:>16}", format!("{}-us", r.mode)));
    }
    out.push('\n');
    let sizes: Vec<u64> = rows[0].samples.iter().map(|s| s.0).collect();
    for (i, &size) in sizes.iter().enumerate() {
        out.push_str(&format!("{size:>8}"));
        for r in rows {
            out.push_str(&format!(" {:>16.2}", r.samples[i].1));
        }
        out.push('\n');
    }
    out
}

/// Render Figure 5a (STREAM) with overhead-vs-native percentages.
pub fn render_fig5a(rows: &[Fig5aRow]) -> String {
    let native = rows
        .iter()
        .find(|r| r.mode == "native")
        .expect("native row");
    let mut out = String::from(
        "Fig. 5a — STREAM bandwidth (MB/s)\n\
         config              copy        scale       add         triad     triad-ovh%\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>10.0} {:>11.0} {:>11.0} {:>11.0} {:>10}\n",
            r.mode,
            r.copy,
            r.scale,
            r.add,
            r.triad,
            fmt_pct(overhead_pct(r.triad, native.triad)) // slower ⇒ positive
        ));
    }
    out
}

/// Render Figure 5b (RandomAccess GUPS) with overheads and the nested-walk
/// instrumentation behind them.
pub fn render_fig5b(rows: &[Fig5bRow]) -> String {
    let native = rows
        .iter()
        .find(|r| r.mode == "native")
        .expect("native row");
    let mut out = String::from(
        "Fig. 5b — RandomAccess\n\
         config              GUPS        miss-rate   overhead-%  loads/miss  wcache-hit%\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>10.5} {:>11.4} {:>11} {:>11.2} {:>12.1}\n",
            r.mode,
            r.gups,
            r.tlb_miss_rate,
            fmt_pct(overhead_pct(r.gups, native.gups)),
            r.walk_loads_per_miss,
            r.walk_cache_hit_rate * 100.0
        ));
    }
    out
}

/// Render a scaling figure (6 or 7).
pub fn render_scaling(title: &str, unit: &str, rows: &[ScalingRow]) -> String {
    let mut out =
        format!("{title}\nlayout  config              {unit:>12}   seconds   ovh-vs-native-%\n");
    let mut layouts: Vec<String> = rows.iter().map(|r| r.layout.clone()).collect();
    layouts.dedup();
    for layout in &layouts {
        let native = rows
            .iter()
            .find(|r| &r.layout == layout && r.mode == "native")
            .expect("native row");
        for r in rows.iter().filter(|r| &r.layout == layout) {
            out.push_str(&format!(
                "{:<7} {:<18} {:>12.2} {:>9.3} {:>12}\n",
                r.layout,
                r.mode,
                r.perf,
                r.seconds,
                fmt_pct(overhead_pct(r.perf, native.perf))
            ));
        }
    }
    out
}

/// Render the data-plane scaling sweep (per-core STREAM + RandomAccess at
/// 1/2/4/8 cores) with the resolve-path instrumentation behind it.
pub fn render_scaling_points(rows: &[ScalingPoint]) -> String {
    let mut out = String::from(
        "Data-plane scaling — per-core throughput (weak scaling)\n\
         cores config              triad-MB/s/core  ovh-%  GUPS/core  ovh-%  resolve-hit%  snap-swaps\n",
    );
    let mut core_counts: Vec<usize> = rows.iter().map(|r| r.cores).collect();
    core_counts.dedup();
    for &cores in &core_counts {
        let native = rows
            .iter()
            .find(|r| r.cores == cores && r.mode == "native")
            .expect("native row");
        for r in rows.iter().filter(|r| r.cores == cores) {
            out.push_str(&format!(
                "{:<5} {:<18} {:>15.0} {:>6} {:>10.5} {:>6} {:>12.1} {:>11}\n",
                r.cores,
                r.mode,
                r.stream_mbs_per_core,
                fmt_pct(overhead_pct(
                    r.stream_mbs_per_core,
                    native.stream_mbs_per_core
                )),
                r.gups_per_core,
                fmt_pct(overhead_pct(r.gups_per_core, native.gups_per_core)),
                r.resolve_hit_rate * 100.0,
                r.snapshot_swaps,
            ));
        }
    }
    out
}

/// Render the multi-zone weak-scaling arm: per-core throughput with each
/// core's arrays pinned to its local zone, plus per-zone shard hit rates.
pub fn render_numa_points(rows: &[NumaPoint]) -> String {
    let mut out = String::from(
        "Multi-zone weak scaling — arrays pinned per local zone\n\
         cores zones config              triad-MB/s/core  ovh-%  resolve-hit%  zone-hit%          snap-swaps\n",
    );
    let mut core_counts: Vec<usize> = rows.iter().map(|r| r.cores).collect();
    core_counts.dedup();
    for &cores in &core_counts {
        let native = rows
            .iter()
            .find(|r| r.cores == cores && r.mode == "native")
            .expect("native row");
        for r in rows.iter().filter(|r| r.cores == cores) {
            let zone_hits: Vec<String> = r
                .per_zone_hit_rate
                .iter()
                .map(|h| format!("{:.1}", h * 100.0))
                .collect();
            out.push_str(&format!(
                "{:<5} {:<5} {:<18} {:>15.0} {:>6} {:>12.1}  {:<17} {:>10}\n",
                r.cores,
                r.zones,
                r.mode,
                r.stream_mbs_per_core,
                fmt_pct(overhead_pct(
                    r.stream_mbs_per_core,
                    native.stream_mbs_per_core
                )),
                r.resolve_hit_rate * 100.0,
                zone_hits.join("/"),
                r.snapshot_swaps,
            ));
        }
    }
    out
}

/// Render the cross-zone churn-isolation comparison.
pub fn render_churn_isolation(iso: &ChurnIsolation) -> String {
    format!(
        "Cross-zone publish isolation — zone-0 enclave vs zone-1 churn\n\
         arm                     resolve-hit%   remote-publishes   remote-backlog-hw\n\
         {:<23} {:>12.2} {:>18} {:>19}\n\
         {:<23} {:>12.2} {:>18} {:>19}\n",
        "zone-1 quiet",
        iso.baseline_hit_rate * 100.0,
        0,
        "-",
        "zone-1 churn+reader",
        iso.churn_hit_rate * 100.0,
        iso.remote_publishes,
        iso.remote_backlog_high_water,
    )
}

/// Render the many-grants fragmentation rung (region-cache associativity
/// vs snapshot binary-search depth).
pub fn render_frag_points(rows: &[FragPoint]) -> String {
    let mut out = String::from(
        "Many-grants fragmentation — region-cache associativity\n\
         ways  regions  hit-rate%  avg-search-depth\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<5} {:<8} {:>9.1} {:>17.2}\n",
            r.ways,
            r.regions,
            r.hit_rate * 100.0,
            r.avg_search_depth,
        ));
    }
    out
}

/// Render Figure 8 (LAMMPS loop times, lower is better).
pub fn render_fig8(rows: &[Fig8Row]) -> String {
    let mut out = String::from(
        "Fig. 8 — LAMMPS loop time (s, lower is better)\n\
         workload  config              loop-s     ovh-vs-native-%\n",
    );
    let mut workloads: Vec<String> = rows.iter().map(|r| r.workload.clone()).collect();
    workloads.dedup();
    for wl in &workloads {
        let native = rows
            .iter()
            .find(|r| &r.workload == wl && r.mode == "native")
            .expect("native row");
        for r in rows.iter().filter(|r| &r.workload == wl) {
            out.push_str(&format!(
                "{:<9} {:<18} {:>8.3} {:>14}\n",
                r.workload,
                r.mode,
                r.loop_time_s,
                fmt_pct(overhead_pct(native.loop_time_s, r.loop_time_s))
            ));
        }
    }
    out
}

/// Render the shootdown demo's result: the coalescing headline plus the
/// per-core TLB/walk-cache statistics table.
pub fn render_shootdown(r: &workloads::shootdown::ShootdownRun) -> String {
    let mut out = format!(
        "Coalesced reclaim epoch: 2 x 2 MiB reclaimed, {} broadcast shootdown(s)\n\
         core   tlb-hits  tlb-misses  full-flush  page-flush  range-flush  wcache h/m\n",
        r.shootdowns
    );
    for c in &r.cores {
        out.push_str(&format!(
            "cpu{:<4} {:>8} {:>11} {:>11} {:>11} {:>12} {:>6}/{}\n",
            c.core,
            c.tlb.hits,
            c.tlb.misses,
            c.tlb.full_flushes,
            c.tlb.page_flushes,
            c.tlb.range_flushes,
            c.counters.walk_cache_hits,
            c.counters.walk_cache_misses,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_pct_prints_na_for_nan() {
        assert_eq!(fmt_pct(f64::NAN), "n/a");
        assert_eq!(fmt_pct(4.25159), "4.25");
        assert_eq!(fmt_pct(overhead_pct(0.0, 5.0)), "n/a");
    }

    #[test]
    fn fig5b_render_includes_overheads() {
        let rows = vec![
            Fig5bRow {
                mode: "native".into(),
                gups: 0.010,
                tlb_miss_rate: 0.05,
                walk_loads_per_miss: 4.0,
                walk_cache_hit_rate: 0.0,
            },
            Fig5bRow {
                mode: "covirt-mem".into(),
                gups: 0.0098,
                tlb_miss_rate: 0.05,
                walk_loads_per_miss: 6.2,
                walk_cache_hit_rate: 0.74,
            },
        ];
        let s = render_fig5b(&rows);
        assert!(s.contains("native"));
        assert!(s.contains("covirt-mem"));
        // native is ~2% faster than covirt-mem.
        assert!(s.contains("2.0"));
    }

    #[test]
    fn scaling_render_groups_by_layout() {
        let rows = vec![
            ScalingRow {
                mode: "native".into(),
                layout: "1c/1z".into(),
                perf: 100.0,
                seconds: 1.0,
            },
            ScalingRow {
                mode: "covirt-mem".into(),
                layout: "1c/1z".into(),
                perf: 99.0,
                seconds: 1.01,
            },
            ScalingRow {
                mode: "native".into(),
                layout: "4c/2z".into(),
                perf: 300.0,
                seconds: 0.4,
            },
        ];
        let s = render_scaling("Fig. 7 — HPCG", "GFLOP/s", &rows);
        assert!(s.contains("1c/1z"));
        assert!(s.contains("4c/2z"));
    }

    #[test]
    fn numa_render_lists_zone_hit_rates() {
        let rows = vec![
            NumaPoint {
                mode: "native".into(),
                cores: 2,
                zones: 2,
                stream_mbs_per_core: 1000.0,
                resolve_hit_rate: 0.99,
                per_zone_hit_rate: vec![0.991, 0.987],
                snapshot_swaps: 0,
            },
            NumaPoint {
                mode: "covirt-mem".into(),
                cores: 2,
                zones: 2,
                stream_mbs_per_core: 990.0,
                resolve_hit_rate: 0.98,
                per_zone_hit_rate: vec![0.981, 0.979],
                snapshot_swaps: 2,
            },
        ];
        let s = render_numa_points(&rows);
        assert!(s.contains("covirt-mem"));
        assert!(s.contains("99.1/98.7"));
        assert!(s.contains("98.1/97.9"));
        // covirt is ~1% slower than native on this rung.
        assert!(s.contains("1.0"));
    }

    #[test]
    fn churn_render_shows_both_arms() {
        let iso = ChurnIsolation {
            baseline_hit_rate: 0.991,
            churn_hit_rate: 0.989,
            remote_publishes: 400,
            remote_backlog_high_water: 3,
        };
        let s = render_churn_isolation(&iso);
        assert!(s.contains("zone-1 quiet"));
        assert!(s.contains("zone-1 churn+reader"));
        assert!(s.contains("400"));
        assert!(s.contains("99.10"));
        assert!(s.contains("98.90"));
    }

    #[test]
    fn frag_render_lists_ways() {
        let rows = vec![
            FragPoint {
                ways: 1,
                regions: 256,
                hit_rate: 0.52,
                avg_search_depth: 8.1,
            },
            FragPoint {
                ways: 4,
                regions: 256,
                hit_rate: 0.97,
                avg_search_depth: 8.0,
            },
        ];
        let s = render_frag_points(&rows);
        assert!(s.contains("256"));
        assert!(s.contains("52.0"));
        assert!(s.contains("97.0"));
        assert!(s.contains("8.10"));
    }

    #[test]
    fn fig8_render_lower_is_better_sign() {
        let rows = vec![
            Fig8Row {
                mode: "native".into(),
                workload: "lj".into(),
                loop_time_s: 1.0,
            },
            Fig8Row {
                mode: "covirt-mem".into(),
                workload: "lj".into(),
                loop_time_s: 1.05,
            },
        ];
        let s = render_fig8(&rows);
        // covirt is 5% slower ⇒ positive overhead.
        assert!(s.contains("5.00"));
    }
}
