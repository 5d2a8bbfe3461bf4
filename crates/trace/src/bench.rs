//! covirt-bench result schema and noise-aware comparator.
//!
//! Every `figures` harness reduces to [`BenchRecord`]s — one per
//! (harness, metric) with the raw trial samples, their median, and their
//! median absolute deviation (MAD) — collected into a [`BenchSuite`]
//! stamped with the commit and a config fingerprint. The suite
//! serializes to JSON (`BENCH_covirt.json`, hand-rolled like the other
//! exporters so this crate stays dependency-free) and a committed
//! baseline copy (`bench/baseline.json`) feeds [`compare`]: a
//! direction-aware, MAD-scaled regression check with explicit verdicts
//! for new and missing metrics, replacing the per-harness threshold
//! constants that used to be scattered through the `figures` CLI and CI.
//!
//! ## Threshold model
//!
//! A metric regresses when its median moves in the *worse* direction
//! (per [`Direction`]) by more than
//!
//! ```text
//! max(rel_floor * |baseline.median|,          // declared noise floor
//!     sigmas * 1.4826 * max(base.mad, cur.mad), // measured run noise
//!     abs_floor)                               // absolute slack
//! ```
//!
//! `1.4826 * MAD` estimates the standard deviation of a normal sample,
//! so `sigmas` reads like a z-score. Zero-MAD metrics (deterministic
//! counts, single-trial records) fall back to the declared floors; a
//! count pinned at 0 with zero floors regresses on *any* increase.

use std::collections::BTreeMap;
use std::fmt;

/// Schema version stamped into every suite; bump on breaking changes.
pub const SCHEMA_VERSION: u32 = 1;

/// Which way "better" points for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (throughput, hit rates, speedups).
    Higher,
    /// Smaller is better (latency, error, exits, violations).
    Lower,
}

impl Direction {
    /// Serialized name.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Higher => "higher",
            Direction::Lower => "lower",
        }
    }

    /// Parse a serialized name.
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "higher" => Some(Direction::Higher),
            "lower" => Some(Direction::Lower),
            _ => None,
        }
    }
}

/// Median of a sample (of a copy; the input is not reordered).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in bench samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation: `median(|x - median(xs)|)`. Zero for
/// empty, single-element, or constant samples.
pub fn mad(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Consistency constant turning a MAD into a normal-σ estimate.
pub const MAD_SIGMA: f64 = 1.4826;

/// One measured metric: raw trials plus the robust summary the
/// comparator works from and the noise declaration it gates with.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Harness that produced the metric (e.g. "exitless").
    pub harness: String,
    /// Metric name within the harness (e.g. "doorbell_p99_ns").
    pub metric: String,
    /// Unit string ("ns", "MB/s", "pct", "count", "ratio").
    pub unit: String,
    /// Which way better points.
    pub direction: Direction,
    /// Raw per-trial samples, in run order.
    pub samples: Vec<f64>,
    /// `median(samples)`.
    pub median: f64,
    /// `mad(samples)`.
    pub mad: f64,
    /// Declared relative noise floor (fraction of |baseline median|).
    /// Wall-clock metrics carry generous floors because the sim TSC is
    /// scaled host time, which varies across machines.
    pub rel_floor: f64,
    /// Declared absolute slack in the metric's own unit.
    pub abs_floor: f64,
    /// Whether the baseline comparator gates this metric. Informational
    /// metrics (raw machine-dependent throughput) are recorded and
    /// tracked but never fail the compare.
    pub gated: bool,
}

impl BenchRecord {
    /// Build a record from raw samples, computing median/MAD.
    #[allow(clippy::too_many_arguments)]
    pub fn from_samples(
        harness: &str,
        metric: &str,
        unit: &str,
        direction: Direction,
        rel_floor: f64,
        abs_floor: f64,
        gated: bool,
        samples: Vec<f64>,
    ) -> BenchRecord {
        let (m, d) = (median(&samples), mad(&samples));
        BenchRecord {
            harness: harness.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            direction,
            samples,
            median: m,
            mad: d,
            rel_floor,
            abs_floor,
            gated,
        }
    }

    /// `harness.metric`, the key reports name metrics by.
    pub fn key(&self) -> String {
        format!("{}.{}", self.harness, self.metric)
    }

    /// Worst-case sample for absolute gating: the sample farthest in the
    /// *worse* direction (max for lower-is-better, min for higher).
    pub fn worst_sample(&self) -> f64 {
        let fold = match self.direction {
            Direction::Lower => f64::max,
            Direction::Higher => f64::min,
        };
        self.samples.iter().copied().fold(self.median, fold)
    }

    /// Best-case sample: the sample farthest in the *better* direction.
    /// Capability gates on wall-clock-noisy metrics ("the off-path CAN
    /// run within 2%") judge this, the STREAM best-of convention.
    pub fn best_sample(&self) -> f64 {
        let fold = match self.direction {
            Direction::Lower => f64::min,
            Direction::Higher => f64::max,
        };
        self.samples.iter().copied().fold(self.median, fold)
    }
}

/// A full run of the suite: provenance plus every record.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSuite {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema: u32,
    /// Git commit the suite ran at ("unknown" outside a checkout).
    pub commit: String,
    /// Human-readable configuration summary (trials, workload sizing).
    pub config: String,
    /// FNV-1a of `config`: baselines with a different fingerprint were
    /// measured under different parameters and must be re-blessed, not
    /// compared.
    pub fingerprint: u64,
    /// The records, in harness order.
    pub records: Vec<BenchRecord>,
}

/// FNV-1a, the fingerprint hash (stable, dependency-free).
pub fn fingerprint(config: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in config.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl BenchSuite {
    /// Assemble a suite, stamping schema + fingerprint.
    pub fn new(commit: String, config: String, records: Vec<BenchRecord>) -> BenchSuite {
        BenchSuite {
            schema: SCHEMA_VERSION,
            commit,
            fingerprint: fingerprint(&config),
            config,
            records,
        }
    }

    /// Look up a record by harness and metric.
    pub fn get(&self, harness: &str, metric: &str) -> Option<&BenchRecord> {
        self.records
            .iter()
            .find(|r| r.harness == harness && r.metric == metric)
    }

    /// Distinct harness names, in record order.
    pub fn harnesses(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for r in &self.records {
            if !out.contains(&r.harness.as_str()) {
                out.push(&r.harness);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// JSON serialization (hand-rolled, matching the exporters' style).

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Format an f64 so it round-trips: integral values print without a
/// fraction, everything else with enough digits to reparse exactly.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        // NaN is not valid JSON; record it as null and reparse as NaN.
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{:.1}", v)
    } else {
        let s = format!("{v}");
        debug_assert_eq!(s.parse::<f64>().ok(), Some(v));
        s
    }
}

impl BenchSuite {
    /// Serialize to the `BENCH_covirt.json` schema.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.records.len() * 256);
        out.push_str(&format!(
            "{{\n  \"schema\": {},\n  \"commit\": \"",
            self.schema
        ));
        escape_into(&self.commit, &mut out);
        out.push_str("\",\n  \"config\": \"");
        escape_into(&self.config, &mut out);
        // Hex string: u64 fingerprints exceed f64 integer precision,
        // so a bare JSON number would not round-trip.
        out.push_str(&format!(
            "\",\n  \"fingerprint\": \"{:016x}\",\n  \"records\": [\n",
            self.fingerprint
        ));
        for (i, r) in self.records.iter().enumerate() {
            out.push_str("    {\"harness\": \"");
            escape_into(&r.harness, &mut out);
            out.push_str("\", \"metric\": \"");
            escape_into(&r.metric, &mut out);
            out.push_str("\", \"unit\": \"");
            escape_into(&r.unit, &mut out);
            out.push_str(&format!(
                "\", \"direction\": \"{}\", \"rel_floor\": {}, \"abs_floor\": {}, \"gated\": {}, \"median\": {}, \"mad\": {}, \"samples\": [{}]}}{}\n",
                r.direction.name(),
                fmt_f64(r.rel_floor),
                fmt_f64(r.abs_floor),
                r.gated,
                fmt_f64(r.median),
                fmt_f64(r.mad),
                r.samples
                    .iter()
                    .map(|s| fmt_f64(*s))
                    .collect::<Vec<_>>()
                    .join(", "),
                if i + 1 == self.records.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a suite back from its JSON form.
    pub fn from_json(text: &str) -> Result<BenchSuite, ParseError> {
        let v = json::parse(text)?;
        let obj = v.as_object("top level")?;
        let schema = get(obj, "schema")?.as_u64("schema")? as u32;
        if schema > SCHEMA_VERSION {
            return Err(ParseError(format!(
                "schema {schema} is newer than supported {SCHEMA_VERSION}"
            )));
        }
        let commit = get(obj, "commit")?.as_str("commit")?.to_string();
        let config = get(obj, "config")?.as_str("config")?.to_string();
        let fp_str = get(obj, "fingerprint")?.as_str("fingerprint")?;
        let fp = u64::from_str_radix(fp_str, 16)
            .map_err(|_| ParseError(format!("bad fingerprint {fp_str:?}")))?;
        let mut records = Vec::new();
        for (i, rv) in get(obj, "records")?.as_array("records")?.iter().enumerate() {
            let r = rv.as_object(&format!("records[{i}]"))?;
            let dir_name = get(r, "direction")?.as_str("direction")?;
            let direction = Direction::parse(dir_name)
                .ok_or_else(|| ParseError(format!("bad direction {dir_name:?}")))?;
            let samples: Vec<f64> = get(r, "samples")?
                .as_array("samples")?
                .iter()
                .map(|s| s.as_f64("sample"))
                .collect::<Result<_, _>>()?;
            records.push(BenchRecord {
                harness: get(r, "harness")?.as_str("harness")?.to_string(),
                metric: get(r, "metric")?.as_str("metric")?.to_string(),
                unit: get(r, "unit")?.as_str("unit")?.to_string(),
                direction,
                median: get(r, "median")?.as_f64("median")?,
                mad: get(r, "mad")?.as_f64("mad")?,
                rel_floor: get(r, "rel_floor")?.as_f64("rel_floor")?,
                abs_floor: get(r, "abs_floor")?.as_f64("abs_floor")?,
                gated: get(r, "gated")?.as_bool("gated")?,
                samples,
            });
        }
        Ok(BenchSuite {
            schema,
            commit,
            config,
            fingerprint: fp,
            records,
        })
    }
}

fn get<'a>(
    obj: &'a BTreeMap<String, json::Value>,
    key: &str,
) -> Result<&'a json::Value, ParseError> {
    obj.get(key)
        .ok_or_else(|| ParseError(format!("missing field {key:?}")))
}

/// A schema or syntax error while reading a suite file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

/// Minimal recursive-descent JSON reader — just enough for the bench
/// schema (objects, arrays, strings, numbers, booleans, null).
mod json {
    use super::ParseError;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn as_object(&self, what: &str) -> Result<&BTreeMap<String, Value>, ParseError> {
            match self {
                Value::Obj(m) => Ok(m),
                v => Err(ParseError(format!("{what}: expected object, got {v:?}"))),
            }
        }
        pub fn as_array(&self, what: &str) -> Result<&Vec<Value>, ParseError> {
            match self {
                Value::Arr(a) => Ok(a),
                v => Err(ParseError(format!("{what}: expected array, got {v:?}"))),
            }
        }
        pub fn as_str(&self, what: &str) -> Result<&str, ParseError> {
            match self {
                Value::Str(s) => Ok(s),
                v => Err(ParseError(format!("{what}: expected string, got {v:?}"))),
            }
        }
        pub fn as_f64(&self, what: &str) -> Result<f64, ParseError> {
            match self {
                Value::Num(n) => Ok(*n),
                Value::Null => Ok(f64::NAN), // NaN serializes as null
                v => Err(ParseError(format!("{what}: expected number, got {v:?}"))),
            }
        }
        pub fn as_u64(&self, what: &str) -> Result<u64, ParseError> {
            let f = self.as_f64(what)?;
            if f >= 0.0 && f == f.trunc() && f <= u64::MAX as f64 {
                Ok(f as u64)
            } else {
                Err(ParseError(format!(
                    "{what}: expected unsigned int, got {f}"
                )))
            }
        }
        pub fn as_bool(&self, what: &str) -> Result<bool, ParseError> {
            match self {
                Value::Bool(b) => Ok(*b),
                v => Err(ParseError(format!("{what}: expected bool, got {v:?}"))),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(ParseError(format!(
                "trailing data at byte {} of {}",
                p.pos,
                p.bytes.len()
            )));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), ParseError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(ParseError(format!(
                    "expected {:?} at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                )))
            }
        }

        fn eat_literal(&mut self, lit: &str) -> bool {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self) -> Result<Value, ParseError> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
                Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(ParseError(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                ))),
            }
        }

        fn object(&mut self) -> Result<Value, ParseError> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let val = self.value()?;
                map.insert(key, val);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(ParseError(format!("bad object at byte {}", self.pos))),
                }
            }
        }

        fn array(&mut self) -> Result<Value, ParseError> {
            self.expect(b'[')?;
            let mut out = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(out));
            }
            loop {
                out.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(out));
                    }
                    _ => return Err(ParseError(format!("bad array at byte {}", self.pos))),
                }
            }
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(ParseError("unterminated string".into())),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or_else(|| ParseError("bad \\u escape".into()))?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex)
                                        .map_err(|_| ParseError("bad \\u escape".into()))?,
                                    16,
                                )
                                .map_err(|_| ParseError("bad \\u escape".into()))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| ParseError("bad \\u code point".into()))?,
                                );
                                self.pos += 4;
                            }
                            c => {
                                return Err(ParseError(format!(
                                    "bad escape {:?}",
                                    c.map(|c| c as char)
                                )))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar.
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest)
                            .map_err(|_| ParseError("invalid UTF-8".into()))?;
                        let c = s.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, ParseError> {
            let start = self.pos;
            while self.peek().is_some_and(|b| {
                b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
            }) {
                self.pos += 1;
            }
            let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            s.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| ParseError(format!("bad number {s:?}")))
        }
    }
}

// ---------------------------------------------------------------------------
// Comparator.

/// Knobs of the regression comparison.
#[derive(Clone, Copy, Debug)]
pub struct ComparePolicy {
    /// MAD multiplier (z-score-like) for the measured-noise component.
    pub sigmas: f64,
    /// Whether a gated baseline metric missing from the current run
    /// fails the comparison (it should: silently dropping a metric is
    /// how regressions hide).
    pub fail_on_missing: bool,
}

impl Default for ComparePolicy {
    fn default() -> Self {
        ComparePolicy {
            sigmas: 5.0,
            fail_on_missing: true,
        }
    }
}

/// Outcome for one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within threshold of the baseline.
    Pass,
    /// Moved past threshold in the *better* direction (worth re-blessing).
    Improved,
    /// Moved past threshold in the worse direction.
    Regressed,
    /// Present now, absent from the baseline (new metric; bless to track).
    New,
    /// Present in the baseline, absent now.
    Missing,
    /// Unit or direction changed between baseline and current.
    Incomparable,
    /// Recorded but not gated; informational trajectory only.
    Ungated,
}

impl Verdict {
    /// Display tag.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::New => "new",
            Verdict::Missing => "MISSING",
            Verdict::Incomparable => "INCOMPARABLE",
            Verdict::Ungated => "info",
        }
    }
}

/// One metric's comparison row.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// `harness.metric`.
    pub key: String,
    /// Unit (from whichever side has the record).
    pub unit: String,
    /// Baseline median, when the baseline has the metric.
    pub baseline: Option<f64>,
    /// Current median, when the current run has the metric.
    pub current: Option<f64>,
    /// Amount the current median is worse than baseline (direction-aware;
    /// negative = better). 0 when either side is missing.
    pub worse_by: f64,
    /// The threshold `worse_by` was judged against.
    pub threshold: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// A full suite-vs-baseline comparison.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Baselines measured under a different config fingerprint cannot be
    /// compared; the comparison fails wholesale and names both configs.
    pub config_mismatch: Option<(String, String)>,
    /// Per-metric rows, baseline order then new metrics.
    pub deltas: Vec<MetricDelta>,
    /// The policy used.
    pub policy: ComparePolicy,
}

impl Comparison {
    /// True when nothing regressed, nothing gated went missing or
    /// incomparable, and the configs matched.
    pub fn ok(&self) -> bool {
        self.config_mismatch.is_none() && self.failures().is_empty()
    }

    /// The failing rows.
    pub fn failures(&self) -> Vec<&MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| {
                matches!(
                    d.verdict,
                    Verdict::Regressed | Verdict::Incomparable | Verdict::Missing
                )
            })
            .collect()
    }

    /// Rows that moved enough that the baseline is stale (improvements +
    /// new metrics) — the re-bless hint.
    pub fn stale(&self) -> Vec<&MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| matches!(d.verdict, Verdict::Improved | Verdict::New))
            .collect()
    }

    /// Render the comparison table plus verdict summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some((base, cur)) = &self.config_mismatch {
            out.push_str(&format!(
                "CONFIG MISMATCH: baseline measured under a different configuration.\n  baseline: {base}\n  current:  {cur}\n  re-bless the baseline (figures bench --bless) after a deliberate config change.\n"
            ));
            return out;
        }
        out.push_str(&format!(
            "{:<40} {:>14} {:>14} {:>12} {:>12}  verdict\n",
            "metric", "baseline", "current", "worse-by", "threshold"
        ));
        let fmt_opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.4}"),
            None => "-".to_string(),
        };
        for d in &self.deltas {
            out.push_str(&format!(
                "{:<40} {:>14} {:>14} {:>12.4} {:>12.4}  {}\n",
                d.key,
                fmt_opt(d.baseline),
                fmt_opt(d.current),
                d.worse_by,
                d.threshold,
                d.verdict.name()
            ));
        }
        let fails = self.failures();
        if fails.is_empty() {
            out.push_str("comparison: OK — no gated metric regressed\n");
        } else {
            out.push_str(&format!(
                "comparison: FAIL — {} metric(s): {}\n",
                fails.len(),
                fails
                    .iter()
                    .map(|d| format!("{} ({})", d.key, d.verdict.name()))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let stale = self.stale();
        if !stale.is_empty() {
            out.push_str(&format!(
                "note: {} metric(s) improved or are new; consider re-blessing the baseline\n",
                stale.len()
            ));
        }
        out
    }
}

/// Direction-aware "how much worse is `cur` than `base`".
pub fn worse_by(direction: Direction, base: f64, cur: f64) -> f64 {
    match direction {
        Direction::Higher => base - cur,
        Direction::Lower => cur - base,
    }
}

/// Regression threshold for a (baseline, current) record pair: the max
/// of the declared relative floor, the MAD-scaled measured noise, and
/// the declared absolute floor (see module docs).
pub fn threshold(policy: &ComparePolicy, base: &BenchRecord, cur: &BenchRecord) -> f64 {
    let rel = base.rel_floor.max(cur.rel_floor) * base.median.abs();
    let noise = policy.sigmas * MAD_SIGMA * base.mad.max(cur.mad);
    let abs = base.abs_floor.max(cur.abs_floor);
    rel.max(noise).max(abs)
}

/// Compare a current suite against a committed baseline.
pub fn compare(baseline: &BenchSuite, current: &BenchSuite, policy: ComparePolicy) -> Comparison {
    if baseline.fingerprint != current.fingerprint {
        return Comparison {
            config_mismatch: Some((baseline.config.clone(), current.config.clone())),
            deltas: Vec::new(),
            policy,
        };
    }
    let mut deltas = Vec::new();
    for base in &baseline.records {
        let key = base.key();
        let cur = current.get(&base.harness, &base.metric);
        let delta = match cur {
            None => MetricDelta {
                key,
                unit: base.unit.clone(),
                baseline: Some(base.median),
                current: None,
                worse_by: 0.0,
                threshold: 0.0,
                verdict: if base.gated && policy.fail_on_missing {
                    Verdict::Missing
                } else {
                    Verdict::Ungated
                },
            },
            Some(cur) if cur.unit != base.unit || cur.direction != base.direction => MetricDelta {
                key,
                unit: base.unit.clone(),
                baseline: Some(base.median),
                current: Some(cur.median),
                worse_by: 0.0,
                threshold: 0.0,
                verdict: Verdict::Incomparable,
            },
            Some(cur) => {
                let w = worse_by(base.direction, base.median, cur.median);
                let t = threshold(&policy, base, cur);
                let verdict = if !(base.gated && cur.gated) {
                    Verdict::Ungated
                } else if w > t {
                    Verdict::Regressed
                } else if -w > t {
                    Verdict::Improved
                } else {
                    Verdict::Pass
                };
                MetricDelta {
                    key,
                    unit: base.unit.clone(),
                    baseline: Some(base.median),
                    current: Some(cur.median),
                    worse_by: w,
                    threshold: t,
                    verdict,
                }
            }
        };
        deltas.push(delta);
    }
    for cur in &current.records {
        if baseline.get(&cur.harness, &cur.metric).is_none() {
            deltas.push(MetricDelta {
                key: cur.key(),
                unit: cur.unit.clone(),
                baseline: None,
                current: Some(cur.median),
                worse_by: 0.0,
                threshold: 0.0,
                verdict: Verdict::New,
            });
        }
    }
    Comparison {
        config_mismatch: None,
        deltas,
        policy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(harness: &str, metric: &str, dir: Direction, samples: &[f64]) -> BenchRecord {
        BenchRecord::from_samples(harness, metric, "u", dir, 0.0, 0.0, true, samples.to_vec())
    }

    fn rec_floors(
        metric: &str,
        dir: Direction,
        rel: f64,
        abs: f64,
        samples: &[f64],
    ) -> BenchRecord {
        BenchRecord::from_samples("h", metric, "u", dir, rel, abs, true, samples.to_vec())
    }

    fn suite(records: Vec<BenchRecord>) -> BenchSuite {
        BenchSuite::new("deadbeef".into(), "cfg".into(), records)
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 9.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(mad(&[]), 0.0);
        assert_eq!(mad(&[5.0]), 0.0, "single trial has zero MAD");
        assert_eq!(mad(&[4.0, 4.0, 4.0]), 0.0, "constant sample has zero MAD");
        // median 3, deviations [2,1,0,1,2] -> mad 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
    }

    #[test]
    fn record_summary_and_worst_sample() {
        let r = rec("h", "m", Direction::Lower, &[3.0, 1.0, 7.0]);
        assert_eq!(r.median, 3.0);
        assert_eq!(r.mad, 2.0);
        assert_eq!(r.worst_sample(), 7.0, "lower-is-better: worst is max");
        assert_eq!(r.best_sample(), 1.0, "lower-is-better: best is min");
        let r = rec("h", "m", Direction::Higher, &[3.0, 1.0, 7.0]);
        assert_eq!(r.worst_sample(), 1.0, "higher-is-better: worst is min");
        assert_eq!(r.best_sample(), 7.0, "higher-is-better: best is max");
        assert_eq!(r.key(), "h.m");
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let s = suite(vec![
            rec(
                "exitless",
                "doorbell_p99_ns",
                Direction::Lower,
                &[512.0, 498.5, 520.25],
            ),
            BenchRecord::from_samples(
                "scaling",
                "resolve_hit_rate",
                "ratio",
                Direction::Higher,
                0.02,
                0.005,
                true,
                vec![0.9612345678901234, 0.97],
            ),
            BenchRecord::from_samples(
                "quote\"s\\and\nnewlines",
                "m",
                "count",
                Direction::Lower,
                0.0,
                0.0,
                false,
                vec![0.0],
            ),
        ]);
        let text = s.to_json();
        let back = BenchSuite::from_json(&text).expect("reparse");
        assert_eq!(back, s);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(BenchSuite::from_json("").is_err());
        assert!(BenchSuite::from_json("{}").is_err(), "missing fields");
        assert!(BenchSuite::from_json("{\"schema\": 1").is_err());
        assert!(BenchSuite::from_json("[1,2,3]").is_err(), "not an object");
        let newer = suite(vec![]).to_json().replace(
            &format!("\"schema\": {SCHEMA_VERSION}"),
            &format!("\"schema\": {}", SCHEMA_VERSION + 1),
        );
        assert!(
            BenchSuite::from_json(&newer).is_err(),
            "newer schema must be rejected"
        );
    }

    #[test]
    fn fingerprint_tracks_config() {
        let a = BenchSuite::new("c".into(), "trials=3".into(), vec![]);
        let b = BenchSuite::new("c".into(), "trials=5".into(), vec![]);
        assert_ne!(a.fingerprint, b.fingerprint);
        let cmp = compare(&a, &b, ComparePolicy::default());
        assert!(cmp.config_mismatch.is_some());
        assert!(!cmp.ok());
        assert!(cmp.render().contains("CONFIG MISMATCH"));
    }

    #[test]
    fn identical_suites_pass() {
        let s = suite(vec![
            rec("h", "lat", Direction::Lower, &[10.0, 11.0, 9.0]),
            rec("h", "bw", Direction::Higher, &[100.0, 101.0]),
        ]);
        let cmp = compare(&s, &s.clone(), ComparePolicy::default());
        assert!(cmp.ok(), "{}", cmp.render());
        assert!(cmp.deltas.iter().all(|d| d.verdict == Verdict::Pass));
    }

    #[test]
    fn zero_mad_zero_floor_count_regresses_on_any_increase() {
        // A deterministic count pinned at 0 (e.g. command-path VM exits):
        // MAD 0, floors 0 -> any increase must regress.
        let base = suite(vec![rec(
            "exitless",
            "cmd_exits",
            Direction::Lower,
            &[0.0, 0.0, 0.0],
        )]);
        let cur = suite(vec![rec(
            "exitless",
            "cmd_exits",
            Direction::Lower,
            &[1.0, 1.0, 1.0],
        )]);
        let cmp = compare(&base, &cur, ComparePolicy::default());
        assert!(!cmp.ok());
        assert_eq!(cmp.failures()[0].key, "exitless.cmd_exits");
        assert_eq!(cmp.failures()[0].verdict, Verdict::Regressed);
        assert!(
            cmp.render().contains("exitless.cmd_exits"),
            "failure is named"
        );
    }

    #[test]
    fn rel_floor_absorbs_small_drift_on_zero_mad_metrics() {
        let base = suite(vec![rec_floors(
            "rate",
            Direction::Higher,
            0.05,
            0.0,
            &[1000.0],
        )]);
        let within = suite(vec![rec_floors(
            "rate",
            Direction::Higher,
            0.05,
            0.0,
            &[960.0],
        )]);
        let beyond = suite(vec![rec_floors(
            "rate",
            Direction::Higher,
            0.05,
            0.0,
            &[940.0],
        )]);
        assert!(compare(&base, &within, ComparePolicy::default()).ok());
        let cmp = compare(&base, &beyond, ComparePolicy::default());
        assert!(!cmp.ok(), "6% drop must beat a 5% floor");
        assert_eq!(cmp.failures()[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn abs_floor_governs_zero_baseline_metrics() {
        // baseline median 0 -> rel component is 0 regardless of floor.
        let base = suite(vec![rec_floors(
            "err_pct",
            Direction::Lower,
            0.5,
            1.0,
            &[0.0],
        )]);
        let small = suite(vec![rec_floors(
            "err_pct",
            Direction::Lower,
            0.5,
            1.0,
            &[0.8],
        )]);
        let big = suite(vec![rec_floors(
            "err_pct",
            Direction::Lower,
            0.5,
            1.0,
            &[1.5],
        )]);
        assert!(compare(&base, &small, ComparePolicy::default()).ok());
        assert!(!compare(&base, &big, ComparePolicy::default()).ok());
    }

    #[test]
    fn mad_widens_threshold_for_noisy_metrics() {
        // Noisy baseline: samples spread, MAD > 0. A move that a zero-MAD
        // metric would fail is absorbed by the measured noise.
        let noisy = rec(
            "h",
            "lat",
            Direction::Lower,
            &[100.0, 80.0, 120.0, 90.0, 110.0],
        );
        assert!(noisy.mad > 0.0);
        let base = suite(vec![noisy]);
        let cur = suite(vec![rec("h", "lat", Direction::Lower, &[130.0])]);
        let cmp = compare(&base, &cur, ComparePolicy::default());
        assert!(
            cmp.ok(),
            "30% move within 5 sigma of MAD {} must pass: {}",
            mad(&[100.0, 80.0, 120.0, 90.0, 110.0]),
            cmp.render()
        );
        // But a quiet baseline with the same medians fails.
        let quiet = suite(vec![rec(
            "h",
            "lat",
            Direction::Lower,
            &[100.0, 100.0, 100.0],
        )]);
        assert!(!compare(&quiet, &cur, ComparePolicy::default()).ok());
    }

    #[test]
    fn single_trial_records_compare_via_floors_only() {
        let base = suite(vec![rec_floors("x", Direction::Lower, 0.1, 0.0, &[50.0])]);
        let cur_ok = suite(vec![rec_floors("x", Direction::Lower, 0.1, 0.0, &[54.0])]);
        let cur_bad = suite(vec![rec_floors("x", Direction::Lower, 0.1, 0.0, &[56.0])]);
        assert_eq!(mad(&[50.0]), 0.0);
        assert!(compare(&base, &cur_ok, ComparePolicy::default()).ok());
        assert!(!compare(&base, &cur_bad, ComparePolicy::default()).ok());
    }

    #[test]
    fn missing_in_current_fails_and_is_named() {
        let base = suite(vec![
            rec("h", "kept", Direction::Lower, &[1.0]),
            rec("h", "dropped", Direction::Lower, &[1.0]),
        ]);
        let cur = suite(vec![rec("h", "kept", Direction::Lower, &[1.0])]);
        let cmp = compare(&base, &cur, ComparePolicy::default());
        assert!(!cmp.ok());
        let fails = cmp.failures();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].key, "h.dropped");
        assert_eq!(fails[0].verdict, Verdict::Missing);
        // An ungated metric may come and go without failing.
        let mut ungated = rec("h", "info", Direction::Lower, &[1.0]);
        ungated.gated = false;
        let base2 = suite(vec![rec("h", "kept", Direction::Lower, &[1.0]), ungated]);
        assert!(compare(&base2, &cur, ComparePolicy::default()).ok());
    }

    #[test]
    fn new_metric_passes_but_is_flagged_stale() {
        let base = suite(vec![rec("h", "old", Direction::Lower, &[1.0])]);
        let cur = suite(vec![
            rec("h", "old", Direction::Lower, &[1.0]),
            rec("h", "brand_new", Direction::Higher, &[9.0]),
        ]);
        let cmp = compare(&base, &cur, ComparePolicy::default());
        assert!(cmp.ok(), "new metrics must not fail the gate");
        assert_eq!(cmp.stale().len(), 1);
        assert_eq!(cmp.stale()[0].verdict, Verdict::New);
        assert!(cmp.render().contains("re-blessing"));
    }

    #[test]
    fn direction_or_unit_change_is_incomparable() {
        let base = suite(vec![rec("h", "m", Direction::Lower, &[1.0])]);
        let mut flipped = rec("h", "m", Direction::Higher, &[1.0]);
        let cmp = compare(
            &base,
            &suite(vec![flipped.clone()]),
            ComparePolicy::default(),
        );
        assert!(!cmp.ok());
        assert_eq!(cmp.failures()[0].verdict, Verdict::Incomparable);
        flipped.direction = Direction::Lower;
        flipped.unit = "other".into();
        let cmp = compare(&base, &suite(vec![flipped]), ComparePolicy::default());
        assert_eq!(cmp.failures()[0].verdict, Verdict::Incomparable);
    }

    #[test]
    fn improvement_is_reported_not_failed() {
        let base = suite(vec![rec_floors(
            "lat",
            Direction::Lower,
            0.05,
            0.0,
            &[100.0],
        )]);
        let cur = suite(vec![rec_floors(
            "lat",
            Direction::Lower,
            0.05,
            0.0,
            &[50.0],
        )]);
        let cmp = compare(&base, &cur, ComparePolicy::default());
        assert!(cmp.ok());
        assert_eq!(cmp.deltas[0].verdict, Verdict::Improved);
        assert!(cmp.stale().len() == 1);
    }

    #[test]
    fn ungated_metrics_never_regress() {
        let mut b = rec("h", "wall_ms", Direction::Lower, &[10.0]);
        b.gated = false;
        let mut c = rec("h", "wall_ms", Direction::Lower, &[10_000.0]);
        c.gated = false;
        let cmp = compare(&suite(vec![b]), &suite(vec![c]), ComparePolicy::default());
        assert!(cmp.ok());
        assert_eq!(cmp.deltas[0].verdict, Verdict::Ungated);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Samples as small integers scaled, avoiding NaN/inf.
        fn samples_strategy() -> impl Strategy<Value = Vec<f64>> {
            proptest::collection::vec((0u64..2_000_000).prop_map(|v| v as f64 / 100.0), 1..12)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// MAD is non-negative and zero for constant samples.
            #[test]
            fn mad_nonnegative(xs in samples_strategy()) {
                prop_assert!(mad(&xs) >= 0.0);
                let c = vec![xs[0]; xs.len()];
                prop_assert_eq!(mad(&c), 0.0);
            }

            /// The median lies within the sample's range.
            #[test]
            fn median_within_range(xs in samples_strategy()) {
                let m = median(&xs);
                let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(m >= lo && m <= hi, "median {} outside [{}, {}]", m, lo, hi);
            }

            /// Shifting every sample by a constant shifts the median and
            /// leaves the MAD unchanged (robust-statistic invariants the
            /// threshold math relies on).
            #[test]
            fn mad_shift_invariant(xs in samples_strategy(), shift in 0u64..1000) {
                let shift = shift as f64;
                let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
                prop_assert!((mad(&shifted) - mad(&xs)).abs() < 1e-9);
                prop_assert!((median(&shifted) - (median(&xs) + shift)).abs() < 1e-9);
            }

            /// worse_by flips sign exactly under direction reversal.
            #[test]
            fn direction_flip_negates_worse_by(
                base in 0u64..1_000_000,
                cur in 0u64..1_000_000,
            ) {
                let (b, c) = (base as f64, cur as f64);
                prop_assert_eq!(
                    worse_by(Direction::Higher, b, c),
                    -worse_by(Direction::Lower, b, c)
                );
            }

            /// Threshold is monotone in the MAD: noisier measurements can
            /// only widen the acceptance band.
            #[test]
            fn threshold_monotone_in_mad(
                xs in samples_strategy(),
                extra in 1u64..1_000_000,
            ) {
                let policy = ComparePolicy::default();
                let quiet = BenchRecord::from_samples(
                    "h", "m", "u", Direction::Lower, 0.05, 0.0, true, xs.clone());
                // Widen the spread around the same median.
                let m = median(&xs);
                let mut wide = xs.clone();
                wide.push(m + extra as f64);
                wide.push(m - extra as f64);
                let noisy = BenchRecord::from_samples(
                    "h", "m", "u", Direction::Lower, 0.05, 0.0, true, wide);
                prop_assert!(noisy.mad >= quiet.mad);
                prop_assert!(
                    threshold(&policy, &noisy, &noisy) >= threshold(&policy, &quiet, &quiet)
                );
            }

            /// A suite always passes against itself (reflexivity), for any
            /// mix of directions and floors.
            #[test]
            fn self_compare_passes(
                xs in samples_strategy(),
                higher in any::<bool>(),
                rel in 0u64..100,
                abs in 0u64..100,
            ) {
                let dir = if higher { Direction::Higher } else { Direction::Lower };
                let r = BenchRecord::from_samples(
                    "h", "m", "u", dir, rel as f64 / 100.0, abs as f64, true, xs);
                let s = BenchSuite::new("c".into(), "cfg".into(), vec![r]);
                let cmp = compare(&s, &s.clone(), ComparePolicy::default());
                prop_assert!(cmp.ok(), "self-compare failed: {}", cmp.render());
            }

            /// Regression detection is symmetric under direction flip:
            /// if (base -> cur) regresses for higher-is-better, then
            /// (base -> cur) with the values' roles preserved but the
            /// direction flipped reports the mirrored verdict set.
            #[test]
            fn direction_flip_swaps_regressed_and_improved(
                base in 0u64..1_000_000,
                cur in 0u64..1_000_000,
            ) {
                let mk = |dir| {
                    let b = BenchRecord::from_samples(
                        "h", "m", "u", dir, 0.0, 0.0, true, vec![base as f64]);
                    let c = BenchRecord::from_samples(
                        "h", "m", "u", dir, 0.0, 0.0, true, vec![cur as f64]);
                    let cmp = compare(
                        &BenchSuite::new("x".into(), "cfg".into(), vec![b]),
                        &BenchSuite::new("x".into(), "cfg".into(), vec![c]),
                        ComparePolicy::default(),
                    );
                    cmp.deltas[0].verdict
                };
                let hi = mk(Direction::Higher);
                let lo = mk(Direction::Lower);
                match hi {
                    Verdict::Regressed => prop_assert_eq!(lo, Verdict::Improved),
                    Verdict::Improved => prop_assert_eq!(lo, Verdict::Regressed),
                    other => prop_assert_eq!(lo, other),
                }
            }

            /// JSON round-trips arbitrary records exactly.
            #[test]
            fn json_roundtrip(
                xs in samples_strategy(),
                name in "[a-z0-9_.-]{1,24}",
                gated in any::<bool>(),
            ) {
                let r = BenchRecord::from_samples(
                    "h", &name, "u", Direction::Lower, 0.125, 0.25, gated, xs);
                let s = BenchSuite::new("commit".into(), "cfg".into(), vec![r]);
                let back = BenchSuite::from_json(&s.to_json());
                prop_assert!(back.is_ok(), "{:?}", back.err());
                prop_assert_eq!(back.unwrap(), s);
            }
        }
    }
}
