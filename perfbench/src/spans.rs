//! The benchmark's own span recorder and the statistics helpers every
//! report uses.
//!
//! Spans are recorded around the benchmark's calls into a layer's public
//! API (never inside the program). Each span has a name, a start and end
//! in nanoseconds since a shared epoch, and the index of the span that
//! caused it. Spans stay in memory until the run ends; [`SpanLog::write_tsv`]
//! writes them out. A span's *self time* is its duration minus the time
//! its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marker for a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// `layer.call` (e.g. `pisces.add_memory`) or `op.<end-to-end op>`.
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start: u64,
    /// End, ns since the log's epoch.
    pub end: u64,
    /// Index of the causing span in the same log, or [`NO_PARENT`].
    pub parent: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span log for one thread. Disabled logs record nothing
/// and cost one branch per call site.
pub struct SpanLog {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log timing against `epoch` (share one epoch across threads so
    /// their logs can be merged).
    pub fn new(epoch: Instant, on: bool) -> SpanLog {
        SpanLog {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// The epoch span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index (for children).
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, parent: u32) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    /// Reserve a parent span whose end is filled in by [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let t = self.now();
        self.push(name, t, t, parent)
    }

    /// Close a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: u32) {
        let t = self.now();
        self.spans[id as usize].end = t;
    }

    /// Time `f` as a span named `name` under `parent` (when recording).
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        self.push(name, t0, t1, parent);
        r
    }

    /// Move every span of `other` into this log, re-basing its parent
    /// indices (both logs must share the epoch).
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as `id parent name start_ns end_ns self_ns`
    /// lines (parent `-` for roots).
    pub fn write_tsv(&self, w: &mut impl Write) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.start, s.end, selfs[i]
            )?;
        }
        Ok(())
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect()
    }
}

/// Self time of every span: its duration minus the summed durations of
/// its direct children (clamped at 0 for clock jitter).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.dur();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// The root `op.*` span each span descends from, if any.
fn op_roots(spans: &[Span]) -> Vec<Option<usize>> {
    let mut roots: Vec<Option<usize>> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        // Parents always precede children (a parent is pushed or opened
        // before any child), so one forward pass resolves every chain.
        let r = if s.parent != NO_PARENT {
            roots[s.parent as usize]
        } else if s.name.starts_with("op.") {
            Some(i)
        } else {
            None
        };
        roots.push(r);
    }
    roots
}

/// Reconciliation of end-to-end op spans with the layer spans under them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reconciliation {
    /// Summed duration of every `op.*` span, ns.
    pub op_total_ns: u64,
    /// Self time under op spans by layer, ns. The `op` entry is the
    /// residual: time inside an op not covered by any layer call.
    pub self_by_layer: BTreeMap<&'static str, u64>,
    /// Residual (op self time) per op span, by op name, ns.
    pub residuals: BTreeMap<&'static str, Vec<f64>>,
}

impl Reconciliation {
    /// Share of op time that a layer's self time accounts for.
    pub fn share(&self, layer: &str) -> f64 {
        let v = self.self_by_layer.get(layer).copied().unwrap_or(0);
        ratio(v as f64, self.op_total_ns as f64)
    }
}

/// Split every op span's duration into per-layer self time plus residual.
/// The shares sum to one by construction: each nanosecond of an op is
/// the self time of exactly one span in its tree.
pub fn reconcile(spans: &[Span]) -> Reconciliation {
    let selfs = self_times(spans);
    let roots = op_roots(spans);
    let mut out = Reconciliation::default();
    for (i, s) in spans.iter().enumerate() {
        let Some(root) = roots[i] else { continue };
        *out.self_by_layer.entry(s.layer()).or_insert(0) += selfs[i];
        if root == i {
            out.op_total_ns += s.dur();
            out.residuals
                .entry(s.name)
                .or_default()
                .push(selfs[i] as f64);
        }
    }
    out
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples (mean of the two middle values for an even
/// count); 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `n / d`, or 0 when `d` is 0 (empty denominators are reported as 0,
/// never as NaN, so every metric stays valid JSON).
pub fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ← a [10,40) ← a.inner [15,25); op ← b [50,90)
        let spans = [
            span("op.grant", 0, 100, NO_PARENT),
            span("pisces.add_memory", 10, 40, 0),
            span("simhw.inner", 15, 25, 1),
            span("pisces.process_acks", 50, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_clamps_overlapping_children() {
        let spans = [span("op.x", 0, 10, NO_PARENT), span("a.y", 0, 12, 0)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn reconcile_shares_sum_to_one_and_residuals_per_op() {
        let spans = [
            span("op.grant", 0, 100, NO_PARENT),
            span("pisces.add_memory", 10, 80, 0),
            span("pisces.process_acks", 80, 95, 0),
            span("op.rtt_vapic", 200, 210, NO_PARENT),
            span("exec.send_ipi", 200, 203, 3),
            span("exec.poll_loop", 203, 209, 3),
            // A root that is not an op stays out of the reconciliation.
            span("exec.update_hit", 300, 301, NO_PARENT),
        ];
        let r = reconcile(&spans);
        assert_eq!(r.op_total_ns, 110);
        assert_eq!(r.self_by_layer["pisces"], 85);
        assert_eq!(r.self_by_layer["exec"], 9);
        assert_eq!(r.self_by_layer["op"], 16);
        assert_eq!(r.residuals["op.grant"], vec![15.0]);
        assert_eq!(r.residuals["op.rtt_vapic"], vec![1.0]);
        let total: f64 = ["pisces", "exec", "op"].iter().map(|l| r.share(l)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, true);
        a.push("op.a", 0, 10, NO_PARENT);
        let mut b = SpanLog::new(epoch, true);
        let p = b.push("op.b", 0, 10, NO_PARENT);
        b.push("x.c", 1, 2, p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, NO_PARENT);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        let v = log.call("exec.poll", NO_PARENT, || 5);
        assert_eq!(v, 5);
        assert!(log.spans().is_empty());
        let mut log = SpanLog::new(Instant::now(), true);
        log.call("exec.poll", NO_PARENT, || ());
        assert_eq!(log.durations("exec.poll").len(), 1);
    }

    #[test]
    fn tsv_has_one_line_per_span() {
        let mut log = SpanLog::new(Instant::now(), true);
        let p = log.push("op.grant", 0, 10, NO_PARENT);
        log.push("pisces.add_memory", 2, 6, p);
        let mut out = Vec::new();
        log.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "0\t-\top.grant\t0\t10\t6");
        assert_eq!(lines[2], "1\t0\tpisces.add_memory\t2\t6\t4");
    }
}
