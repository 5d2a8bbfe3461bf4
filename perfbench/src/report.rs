//! Metric catalogue and output: every metric the benchmark reports, with
//! its unit and direction, and for each per-layer metric the end-to-end
//! metric it should move and the workload it moves it on.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric.
pub struct E2e {
    /// Name (also the `BENCHMARK.json` name).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// A per-layer metric and the end-to-end metric it explains.
pub struct Layer {
    /// Name, prefixed by the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metric(s) it should move.
    pub moves: &'static str,
    /// Workload(s) it moves them on.
    pub on: &'static str,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> E2e {
    E2e {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [E2e; 11] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("reader_mups", "Mupdates/s", Higher, 0.25),
    e2e("covirt_slowdown", "ratio", Lower, 0.25),
    e2e("grant_us_p50", "us", Lower, 0.25),
    e2e("reclaim_us_p50", "us", Lower, 0.25),
    e2e("reclaim_us_p95", "us", Lower, 0.25),
    e2e("detach_us_p50", "us", Lower, 0.25),
    e2e("ipi_rtt_us_p50", "us", Lower, 0.25),
    e2e("ipi_rtt_us_p99", "us", Lower, 0.25),
    e2e("piv_rtt_us_p50", "us", Lower, 0.25),
    e2e("piv_rtt_us_p99", "us", Lower, 0.25),
];

/// End-to-end statistics too unsteady on a shared host to carry a bound,
/// each with the per-layer name it is reported under. RandomAccess
/// throughput and XEMEM attach latency are instruction-bound loops of the
/// simulator whose speed halves or doubles with the host's contention
/// state, which holds for minutes (on a 2-vCPU shared cloud VM: 8.2
/// against 11.6 Mupdates/s, 60 against 31 µs); the reclaim p99 follows
/// host scheduling stalls of the reader. Every run prints them; traced runs report them, from their
/// untraced pass, with the per-layer metrics.
pub const UNRESOLVED: [(&str, &str); 3] = [
    ("guest_mups", "exec.guest_mups"),
    ("reclaim_us_p99", "pisces.reclaim_us_p99"),
    ("attach_us_p50", "hobbes.attach_us_p50"),
];

const MC: &str = "memchurn";
const PP: &str = "ipi_pingpong";
const ALL: &str = "gups, memchurn, ipi_pingpong";
const DATA_PATH: &str = "exec.guest_mups (gups), reader_mups (memchurn)";
const DP_ON: &str = "memchurn (walks on most updates), gups (rarely)";
const RECLAIM_DETACH: &str = "reclaim_us_p50, reclaim_us_p95, detach_us_p50";
const RTTS: &str = "ipi_rtt_us_p50, ipi_rtt_us_p99, piv_rtt_us_p50, piv_rtt_us_p99";
const TRACE: &str = "none: cost of the traced run";

/// Per-layer metrics, reported by every workload's traced run.
#[rustfmt::skip]
pub const PER_LAYER: [Layer; 63] = [
    layer("exec.update_hit_ns_p50", "ns", Lower, DATA_PATH, "gups (most of the work); little on memchurn"),
    layer("exec.update_miss_ns_p50", "ns", Lower, DATA_PATH, "memchurn; ~0.3% of gups updates"),
    layer("exec.poll_ns_p50", "ns", Lower, "exec.guest_mups, reader_mups, ipi_rtt_us_p50", ALL),
    layer("exec.poll_harvest_ns_p50", "ns", Lower, "reclaim_us_p50, detach_us_p50", MC),
    layer("exec.send_ipi_ns_p50", "ns", Lower, "ipi_rtt_us_p50, piv_rtt_us_p50", PP),
    layer("exec.walks_per_kupdate", "1/kupdate", Lower, DATA_PATH, DP_ON),
    layer("exec.guest_mups", "Mupdates/s", Higher, "unresolved end-to-end: RandomAccess covirt throughput (Fig. 5b)", "gups"),
    layer("ept.walk_loads_per_walk", "loads/walk", Lower, DATA_PATH, DP_ON),
    layer("ept.walk_cache_hit_rate", "ratio", Higher, DATA_PATH, DP_ON),
    layer("mem.resolve_hit_rate", "ratio", Higher, DATA_PATH, DP_ON),
    layer("tlb.hit_rate", "ratio", Higher, DATA_PATH, DP_ON),
    layer("tlb.range_flushes_per_cycle", "1/cycle", Lower, "reader_mups", MC),
    layer("tlb.full_flushes_per_cycle", "1/cycle", Lower, "reader_mups", MC),
    layer("hv.exits_per_rtt", "1/rtt", Lower, "ipi_rtt_us_p50, ipi_rtt_us_p99", PP),
    layer("hv.piv_exits_per_rtt", "1/rtt", Lower, "piv_rtt_us_p50, piv_rtt_us_p99", PP),
    layer("posted.harvested_per_rtt", "1/rtt", Lower, "piv_rtt_us_p50, piv_rtt_us_p99", PP),
    layer("hv.exit_handle_ns_p50", "ns", Lower, RTTS, PP),
    layer("hv.exits_per_mupdate", "1/Mupdate", Lower, "covirt_slowdown", "gups"),
    layer("ctl.shootdowns_per_cycle", "1/cycle", Lower, RECLAIM_DETACH, MC),
    layer("ctl.doorbells_per_cycle", "1/cycle", Lower, RECLAIM_DETACH, MC),
    layer("ctl.nmi_escalations", "count", Lower, RECLAIM_DETACH, MC),
    layer("ctl.shootdown_rtt_ns_p50", "ns", Lower, RECLAIM_DETACH, MC),
    layer("ctl.shootdown_rtt_ns_p99", "ns", Lower, RECLAIM_DETACH, MC),
    layer("ctl.cmd_latency_ns_p50", "ns", Lower, RECLAIM_DETACH, MC),
    layer("ept.map_ops_per_cycle", "1/cycle", Lower, "grant_us_p50, hobbes.attach_us_p50", MC),
    layer("ept.unmap_ops_per_cycle", "1/cycle", Lower, "reclaim_us_p50, detach_us_p50", MC),
    layer("mem.snapshot_swaps_per_cycle", "1/cycle", Lower, "reader_mups, grant_us_p50", MC),
    layer("mem.resolve_misses_per_cycle", "1/cycle", Lower, "reader_mups, grant_us_p50", MC),
    layer("mem.retire_backlog_high_water", "count", Lower, "reader_mups, grant_us_p50", MC),
    layer("pisces.add_memory_us_p50", "us", Lower, "grant_us_p50", MC),
    layer("pisces.poll_ctrl_us_p50", "us", Lower, "grant_us_p50, reclaim_us_p50, reclaim_us_p95", MC),
    layer("pisces.process_acks_us_p50", "us", Lower, "grant_us_p50, reclaim_us_p50, reclaim_us_p95", MC),
    layer("pisces.request_remove_us_p50", "us", Lower, "reclaim_us_p50, reclaim_us_p95", MC),
    layer("pisces.reclaim_us_p99", "us", Lower, "unresolved end-to-end: reclaim tail", MC),
    layer("hobbes.attach_us_p50", "us", Lower, "unresolved end-to-end: XEMEM attach (Fig. 4)", MC),
    layer("hobbes.export_us_p50", "us", Lower, "control-cycle time (no end-to-end metric)", MC),
    layer("hobbes.destroy_us_p50", "us", Lower, "control-cycle time (no end-to-end metric)", MC),
    layer("phase.guest_exec_share", "share", Higher, "the workload's headline metric", ALL),
    layer("phase.root_exit_share", "share", Lower, "the workload's headline metric", ALL),
    layer("phase.cmd_harvest_share", "share", Lower, "the workload's headline metric", ALL),
    layer("phase.region_resolve_share", "share", Lower, "the workload's headline metric", ALL),
    layer("phase.safe_point_share", "share", Lower, "the workload's headline metric", ALL),
    layer("phase.shootdown_wait_us_per_cycle", "us/cycle", Lower, RECLAIM_DETACH, MC),
    layer("span.exec_self_share", "share", Lower, RTTS, "ipi_pingpong (op spans)"),
    layer("span.pisces_self_share", "share", Lower, "grant_us_p50, reclaim_us_p50", "memchurn (op spans)"),
    layer("span.hobbes_self_share", "share", Lower, "detach_us_p50", "memchurn (op spans)"),
    layer("span.residual_share", "share", Lower, "none: op time no layer call covers", ALL),
    layer("span.grant_residual_us_p50", "us", Lower, "grant_us_p50", MC),
    layer("span.reclaim_residual_us_p50", "us", Lower, "reclaim_us_p50", MC),
    layer("span.attach_residual_us_p50", "us", Lower, "hobbes.attach_us_p50", MC),
    layer("span.detach_residual_us_p50", "us", Lower, "detach_us_p50", MC),
    layer("span.ipi_rtt_residual_ns_p50", "ns", Lower, "ipi_rtt_us_p50", PP),
    layer("span.piv_rtt_residual_ns_p50", "ns", Lower, "piv_rtt_us_p50", PP),
    layer("trace.overhead_pct.reader_mups", "pct", Lower, TRACE, ALL),
    layer("trace.overhead_pct.covirt_slowdown", "pct", Lower, TRACE, ALL),
    layer("trace.overhead_pct.grant_us_p50", "pct", Lower, TRACE, ALL),
    layer("trace.overhead_pct.reclaim_us_p50", "pct", Lower, TRACE, ALL),
    layer("trace.overhead_pct.reclaim_us_p95", "pct", Lower, TRACE, ALL),
    layer("trace.overhead_pct.detach_us_p50", "pct", Lower, TRACE, ALL),
    layer("trace.overhead_pct.ipi_rtt_us_p50", "pct", Lower, TRACE, ALL),
    layer("trace.overhead_pct.ipi_rtt_us_p99", "pct", Lower, TRACE, ALL),
    layer("trace.overhead_pct.piv_rtt_us_p50", "pct", Lower, TRACE, ALL),
    layer("trace.overhead_pct.piv_rtt_us_p99", "pct", Lower, TRACE, ALL),
];

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record a value; non-finite values are stored as 0 so the output
    /// stays valid JSON.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The metric names and units a run must report, in catalogue order.
pub fn catalogue(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The unit of an [`UNRESOLVED`] statistic (that of its per-layer name).
fn unresolved_unit(name: &str) -> Option<&'static str> {
    let (_, layer_name) = UNRESOLVED.iter().find(|(n, _)| *n == name)?;
    PER_LAYER
        .iter()
        .find(|m| m.name == *layer_name)
        .map(|m| m.unit)
}

/// Human-readable metric table (one line per metric): the catalogue's
/// metrics, then the unresolved statistics an untraced run recorded.
pub fn table(metrics: &Metrics, traced: bool) -> String {
    let mut out = String::new();
    let extra = metrics
        .0
        .keys()
        .filter_map(|&k| Some((k, unresolved_unit(k)?)))
        .filter(|_| !traced);
    for (name, unit) in catalogue(traced).into_iter().chain(extra) {
        let v = metrics.get(name).unwrap_or(f64::NAN);
        let _ = write!(out, "{name:<40} {v:>14.4} {unit:<10}");
        if let Some(m) = PER_LAYER.iter().find(|m| traced && m.name == name) {
            let _ = write!(out, " moves {} on {}", m.moves, m.on);
        } else if unresolved_unit(name).is_some() {
            out.push_str(" unresolved: no bound, not in the result line");
        }
        out.push('\n');
    }
    out
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// over exactly the catalogue's metrics.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    traced: bool,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in catalogue(traced).into_iter().enumerate() {
        let v = metrics.get(name).unwrap_or(0.0);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for (n, u) in catalogue(false).into_iter().chain(catalogue(true)) {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{u}");
            assert!(seen.insert(n), "duplicate {n}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_trace_overhead_names_an_end_to_end_metric() {
        for m in END_TO_END.iter().filter(|m| m.name != "setup_s") {
            let want = format!("trace.overhead_pct.{}", m.name);
            assert!(PER_LAYER.iter().any(|l| l.name == want), "{want}");
        }
    }

    #[test]
    fn unresolved_statistics_have_per_layer_names_only() {
        for (e2e_name, layer_name) in UNRESOLVED {
            assert!(END_TO_END.iter().all(|m| m.name != e2e_name));
            assert!(unresolved_unit(e2e_name).is_some(), "{layer_name}");
        }
    }

    #[test]
    fn json_line_is_exact_and_finite() {
        let mut m = Metrics::default();
        m.put("setup_s", 1.5);
        m.put("reader_mups", f64::NAN);
        m.put("guest_mups", 9.0);
        let line = json_line(true, 3, 0, &m, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"reader_mups\": {\"value\": 0.0, \"unit\": \"Mupdates/s\"}"));
        assert!(!line.contains("NaN"));
        assert!(!line.contains("guest_mups"), "unresolved stays out");
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
