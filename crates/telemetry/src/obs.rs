//! Sweep-campaign observability: a metrics registry of named counters,
//! gauges and log-bucketed latency histograms, `Span` timers, a Chrome
//! trace-event log, and a throttled progress model.
//!
//! The paper's premise is *online* management driven by continuous
//! telemetry; this module is the same idea applied to our own campaign
//! infrastructure — a dedicated observation plane beside the compute
//! plane. Everything here is dependency-free and allocation-light: a
//! [`LogHistogram`] allocates its fixed bucket array once, recording is
//! a handful of integer ops, and the instrumented layers (sweep pool,
//! physics step loop, journal) collect into **thread-local** structures
//! that are merged after the run, so no lock or atomic ever sits on a
//! hot path.
//!
//! Instrumentation is off-path by default: timing never enters sweep
//! fingerprints, trace digests or journal cell records, so an
//! instrumented run is bit-identical physics to an uninstrumented one —
//! a property the golden-digest tests pin.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::json;

// ---------------------------------------------------------------------
// Log-bucketed latency histogram
// ---------------------------------------------------------------------

/// Linear sub-buckets per power-of-two octave (as a bit count): 32
/// sub-buckets bound the quantile's relative error at 1/32 ≈ 3 %.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the exact linear region (values ≥ `SUB`).
const OCTAVES: usize = 64 - SUB_BITS as usize - 1;
/// Total bucket count: the exact region plus `OCTAVES + 1` log regions.
const BUCKETS: usize = SUB as usize * (OCTAVES + 2);

/// An HDR-style log-bucketed histogram of non-negative integer samples
/// (nanoseconds, lane occupancies, gap lengths — any `u64`).
///
/// Values below 32 are exact; above, each power-of-two range is split
/// into 32 linear sub-buckets, so any reported quantile is within
/// ~3 % of the true value. The bucket array is fixed-size (~15 KiB) and
/// allocated once, by the first [`LogHistogram::record`] or the first
/// merge of a non-empty histogram: an empty histogram, such as a gap-free
/// run's gap lengths, costs no allocation. Recording is two shifts and
/// an add, and two histograms with the same (compile-time) geometry
/// merge by bucket-wise addition — exactly associative, which lets
/// per-worker histograms fold into a campaign total in any order.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// Empty until the first sample; then `BUCKETS` long.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram. Allocates nothing.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index for `v`.
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BITS) as usize;
        let sub = ((v >> (msb - SUB_BITS)) - SUB) as usize;
        SUB as usize + octave * SUB as usize + sub
    }

    /// The inclusive upper bound of bucket `idx` — what quantiles
    /// report, so a quantile never understates the latency.
    fn upper_bound(idx: usize) -> u64 {
        if idx < SUB as usize {
            return idx as u64;
        }
        let octave = (idx - SUB as usize) / SUB as usize;
        let sub = ((idx - SUB as usize) % SUB as usize) as u64;
        let lower = (SUB + sub) << octave;
        lower + ((1u64 << octave) - 1)
    }

    /// The bucket array, allocated on first use.
    fn counts_mut(&mut self) -> &mut [u64] {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        &mut self.counts
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts_mut()[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration as nanoseconds (saturating).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`): the smallest bucket
    /// upper bound covering at least `⌈q·count⌉` samples, capped at the
    /// exact maximum. Monotone in `q` by construction. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::upper_bound(idx).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self` (bucket-wise addition — exactly
    /// associative and commutative).
    pub fn merge(&mut self, other: &LogHistogram) {
        if !other.counts.is_empty() {
            for (a, b) in self.counts_mut().iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The five-number summary a snapshot serialises.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// A histogram reduced to the numbers worth persisting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median (≤ 3 % over).
    pub p50: u64,
    /// 90th percentile (≤ 3 % over).
    pub p90: u64,
    /// 99th percentile (≤ 3 % over).
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// Handle to a registered counter (index into the registry — resolve
/// once, bump cheaply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A registry of named counters (`u64`), gauges (`f64`) and
/// [`LogHistogram`]s.
///
/// Registration is find-or-create by name (cold path); updates go
/// through the returned handles (hot path: one bounds-checked index).
/// The registry is single-threaded by design — instrumented workers
/// each own one (or a raw struct) and the results [`merge`]
/// (`MetricsRegistry::merge`) after the run, so the hot paths never
/// touch a lock.
///
/// [`merge`]: MetricsRegistry::merge
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, LogHistogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or finds) the counter `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Registers (or finds) the gauge `name`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Sets a gauge.
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].1 = v;
    }

    /// Registers (or finds) the histogram `name`.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms
            .push((name.to_string(), LogHistogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Records one sample into a histogram.
    pub fn record(&mut self, id: HistogramId, v: u64) {
        self.histograms[id.0].1.record(v);
    }

    /// One-shot conveniences for cold paths (registration + update).
    pub fn add_named(&mut self, name: &str, n: u64) {
        let id = self.counter(name);
        self.add(id, n);
    }

    /// Sets the gauge `name` (registering it if needed).
    pub fn set_named(&mut self, name: &str, v: f64) {
        let id = self.gauge(name);
        self.set(id, v);
    }

    /// Folds a pre-built histogram into the histogram `name`.
    pub fn merge_histogram(&mut self, name: &str, h: &LogHistogram) {
        let id = self.histogram(name);
        self.histograms[id.0].1.merge(h);
    }

    /// Folds `other` into `self` by metric name: counters add, gauges
    /// take the latest (other's value wins), histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            self.add_named(name, *v);
        }
        for (name, v) in &other.gauges {
            self.set_named(name, *v);
        }
        for (name, h) in &other.histograms {
            self.merge_histogram(name, h);
        }
    }

    /// The immutable, name-sorted snapshot of everything registered.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = self.counters.clone();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges = self.gauges.clone();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistogramSummary)> = self
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.summary()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A started wall-clock timer; stop it into a registry histogram, or
/// just read the elapsed nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Span(Instant);

impl Span {
    /// Starts the timer.
    pub fn start() -> Self {
        Span(Instant::now())
    }

    /// Nanoseconds elapsed since [`Span::start`] (saturating).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Stops the timer, recording the elapsed nanoseconds into
    /// histogram `id`; returns the sample.
    pub fn stop(self, registry: &mut MetricsRegistry, id: HistogramId) -> u64 {
        let ns = self.elapsed_ns();
        registry.record(id, ns);
        ns
    }
}

// ---------------------------------------------------------------------
// Metrics snapshot
// ---------------------------------------------------------------------

/// A point-in-time, name-sorted capture of a [`MetricsRegistry`],
/// serialisable with the journal's hand-rolled JSON and renderable as a
/// terminal table.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, name-sorted.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// One line of JSON (nested one level for the histogram summaries),
    /// written with the same hand-rolled writer as the journal and
    /// parseable by [`json::parse_object`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            out.push(':');
            json::write_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            let _ = write!(out, ":{{\"count\":{},\"mean\":", h.count);
            json::write_f64(&mut out, h.mean);
            let _ = write!(
                out,
                ",\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                h.p50, h.p90, h.p99, h.max
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a snapshot back from its [`MetricsSnapshot::to_json`]
    /// line — the worker side of a multi-process campaign writes the
    /// JSON next to its shard journal, the coordinator reads it back
    /// and [merges](MetricsSnapshot::merge).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let fields = json::parse_object(text)?;
        let section = |key: &str| -> Result<&[(String, json::Value)], String> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .ok_or_else(|| format!("missing section `{key}`"))?
                .1
                .as_object()
                .ok_or_else(|| format!("section `{key}` must be an object"))
        };
        let mut counters = Vec::new();
        for (name, v) in section("counters")? {
            let n = match v.as_f64() {
                Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) => n as u64,
                _ => return Err(format!("counter `{name}` must be a non-negative integer")),
            };
            counters.push((name.clone(), n));
        }
        let mut gauges = Vec::new();
        for (name, v) in section("gauges")? {
            let g = match v {
                json::Value::Num(x) => *x,
                json::Value::Null => f64::NAN, // non-finite serialises as null
                _ => return Err(format!("gauge `{name}` must be a number")),
            };
            gauges.push((name.clone(), g));
        }
        let mut histograms = Vec::new();
        for (name, v) in section("histograms")? {
            let h = v
                .as_object()
                .ok_or_else(|| format!("histogram `{name}` must be an object"))?;
            let num = |key: &str| -> Result<f64, String> {
                h.iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.as_f64())
                    .ok_or_else(|| format!("histogram `{name}` missing numeric `{key}`"))
            };
            let count = |key: &str| -> Result<u64, String> {
                let n = num(key)?;
                if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
                    Ok(n as u64)
                } else {
                    Err(format!("histogram `{name}` field `{key}` is not a count"))
                }
            };
            histograms.push((
                name.clone(),
                HistogramSummary {
                    count: count("count")?,
                    mean: num("mean")?,
                    p50: count("p50")?,
                    p90: count("p90")?,
                    p99: count("p99")?,
                    max: count("max")?,
                },
            ));
        }
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }

    /// Folds another snapshot into this one — the campaign coordinator
    /// assembling per-shard worker snapshots into one view. Counters
    /// **add**. Gauges take the elementwise **maximum** (they are
    /// point-in-time values; campaign-level rates should be recomputed
    /// from the merged counters, and for the ratios the sweep emits —
    /// utilization, occupancy — the max is the conservative bound).
    /// Histogram *summaries* add counts and count-weight the means;
    /// `p50`/`p90`/`p99`/`max` take the elementwise maximum, an upper
    /// bound — exact quantile merging needs the buckets, which a
    /// snapshot no longer has (merge at the
    /// [`MetricsRegistry`] level when exactness matters). Names present
    /// on only one side carry over; the result stays name-sorted.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        fn fold<T: Clone>(
            ours: &mut Vec<(String, T)>,
            theirs: &[(String, T)],
            combine: impl Fn(&mut T, &T),
        ) {
            for (name, v) in theirs {
                match ours.iter_mut().find(|(n, _)| n == name) {
                    Some((_, mine)) => combine(mine, v),
                    None => ours.push((name.clone(), v.clone())),
                }
            }
            ours.sort_by(|a, b| a.0.cmp(&b.0));
        }
        fold(&mut self.counters, &other.counters, |a, b| {
            *a = a.saturating_add(*b);
        });
        fold(&mut self.gauges, &other.gauges, |a, b| {
            // f64::max prefers the non-NaN operand, so a poisoned shard
            // gauge never wipes out a measured one.
            *a = a.max(*b);
        });
        fold(&mut self.histograms, &other.histograms, |a, b| {
            let total = a.count + b.count;
            if total > 0 {
                a.mean = (a.mean * a.count as f64 + b.mean * b.count as f64) / total as f64;
            }
            a.count = total;
            a.p50 = a.p50.max(b.p50);
            a.p90 = a.p90.max(b.p90);
            a.p99 = a.p99.max(b.p99);
            a.max = a.max.max(b.max);
        });
    }

    /// A human-readable table. Histograms whose name ends in `_ns`
    /// render as durations; anything else (lane occupancies, gap
    /// lengths) as plain numbers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<36} {v:>14}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<36} {v:>14.3}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "histograms: {:<26} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "", "count", "mean", "p50", "p90", "p99", "max"
            );
            for (name, h) in &self.histograms {
                let cell = |v: u64| -> String {
                    if name.ends_with("_ns") {
                        format_ns(v)
                    } else {
                        v.to_string()
                    }
                };
                let _ = writeln!(
                    out,
                    "  {name:<36} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                    h.count,
                    cell(h.mean as u64),
                    cell(h.p50),
                    cell(h.p90),
                    cell(h.p99),
                    cell(h.max),
                );
            }
        }
        out
    }
}

/// Formats a nanosecond quantity with a human unit (`17ns`, `4.2µs`,
/// `1.3ms`, `2.5s`).
pub fn format_ns(ns: u64) -> String {
    let v = ns as f64;
    if v < 1e3 {
        format!("{ns}ns")
    } else if v < 1e6 {
        format!("{:.1}µs", v / 1e3)
    } else if v < 1e9 {
        format!("{:.1}ms", v / 1e6)
    } else {
        format!("{:.2}s", v / 1e9)
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event log
// ---------------------------------------------------------------------

/// An argument value on a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// String argument.
    Str(String),
    /// Numeric argument.
    Num(f64),
}

/// One Chrome trace event. Only the phases the sweep emits are
/// modelled: `X` (complete, with a duration), `i` (instant) and `M`
/// (metadata — thread names).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (for `X` events, the cell name).
    pub name: String,
    /// Phase: `X`, `i` or `M`.
    pub ph: char,
    /// Track (thread) id — one per sweep worker.
    pub tid: u32,
    /// Start timestamp, microseconds since the log's epoch.
    pub ts_us: f64,
    /// Duration in microseconds (`X` events only).
    pub dur_us: f64,
    /// Optional arguments (shown in the trace viewer's detail pane).
    pub args: Vec<(&'static str, ArgValue)>,
}

/// An in-memory log of trace events exporting the Chrome trace-event
/// JSON object format (`{"traceEvents":[...]}`), one event per line —
/// loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev),
/// and line-parseable by the journal's JSON parser
/// ([`TraceEventLog::validate`] does exactly that).
#[derive(Debug, Clone, Default)]
pub struct TraceEventLog {
    events: Vec<TraceEvent>,
}

/// The process id stamped on every event (the trace is single-process).
const TRACE_PID: u32 = 1;

impl TraceEventLog {
    /// An empty log.
    pub fn new() -> Self {
        TraceEventLog::default()
    }

    /// Appends a complete (`X`) event: `name` ran on track `tid` from
    /// `ts_us` for `dur_us` microseconds.
    pub fn complete(
        &mut self,
        name: impl Into<String>,
        tid: u32,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            ph: 'X',
            tid,
            ts_us,
            dur_us,
            args,
        });
    }

    /// Appends an instant (`i`) event on track `tid`.
    pub fn instant(&mut self, name: impl Into<String>, tid: u32, ts_us: f64) {
        self.events.push(TraceEvent {
            name: name.into(),
            ph: 'i',
            tid,
            ts_us,
            dur_us: 0.0,
            args: Vec::new(),
        });
    }

    /// Names track `tid` in the viewer (a `thread_name` metadata
    /// event).
    pub fn thread_name(&mut self, tid: u32, name: &str) {
        self.events.push(TraceEvent {
            name: "thread_name".to_string(),
            ph: 'M',
            tid,
            ts_us: 0.0,
            dur_us: 0.0,
            args: vec![("name", ArgValue::Str(name.to_string()))],
        });
    }

    /// Appends every event of `other`.
    pub fn extend(&mut self, other: TraceEventLog) {
        self.events.extend(other.events);
    }

    /// Orders the events by timestamp, keeping the order of equal ones:
    /// a track whose events were logged as they ended (a worker holding
    /// several cells at once) then lists them as they began.
    pub fn sort_by_ts(&mut self) {
        self.events.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    }

    /// The events recorded so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The distinct tracks (tids) with at least one non-metadata event.
    pub fn tracks(&self) -> BTreeSet<u32> {
        self.events
            .iter()
            .filter(|e| e.ph != 'M')
            .map(|e| e.tid)
            .collect()
    }

    /// Serialises the log as Chrome trace-event JSON: the
    /// `{"traceEvents":[...]}` object format, one event object per
    /// line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str("{\"name\":");
            json::write_string(&mut out, &e.name);
            let _ = write!(
                out,
                ",\"cat\":\"sweep\",\"ph\":\"{}\",\"pid\":{TRACE_PID},\"tid\":{},\"ts\":",
                e.ph, e.tid
            );
            json::write_f64(&mut out, e.ts_us);
            if e.ph == 'X' {
                out.push_str(",\"dur\":");
                json::write_f64(&mut out, e.dur_us);
            }
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    json::write_string(&mut out, k);
                    out.push(':');
                    match v {
                        ArgValue::Str(s) => json::write_string(&mut out, s),
                        ArgValue::Num(n) => json::write_f64(&mut out, *n),
                    }
                }
                out.push('}');
            }
            out.push('}');
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Validates serialised trace-event JSON (the exact shape
    /// [`TraceEventLog::to_json`] writes): every event line must parse
    /// through the journal's JSON parser with the required fields, and
    /// complete-event timestamps must be monotonically non-decreasing
    /// per track — the invariant a per-worker track layout guarantees.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line or ordering violation.
    pub fn validate(json_text: &str) -> Result<TraceValidation, String> {
        let mut lines = json_text.lines();
        match lines.next() {
            Some("{\"traceEvents\":[") => {}
            other => return Err(format!("bad trace header line: {other:?}")),
        }
        let mut events = 0usize;
        let mut complete = 0usize;
        let mut tracks: BTreeSet<u32> = BTreeSet::new();
        let mut last_ts: Vec<(u32, f64)> = Vec::new();
        let mut closed = false;
        for (i, line) in lines.enumerate() {
            let line_no = i + 2;
            if closed {
                return Err(format!("content after the closing `]}}` at line {line_no}"));
            }
            if line == "]}" {
                closed = true;
                continue;
            }
            let body = line.strip_suffix(',').unwrap_or(line);
            let fields = json::parse_object(body)
                .map_err(|e| format!("line {line_no} is not a JSON object: {e}"))?;
            let get = |key: &str| -> Option<&json::Value> {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            };
            let ph = get("ph")
                .and_then(json::Value::as_str)
                .ok_or(format!("line {line_no}: missing `ph`"))?;
            let tid = get("tid")
                .and_then(json::Value::as_f64)
                .ok_or(format!("line {line_no}: missing `tid`"))? as u32;
            let ts = get("ts")
                .and_then(json::Value::as_f64)
                .ok_or(format!("line {line_no}: missing `ts`"))?;
            if get("name").and_then(json::Value::as_str).is_none() {
                return Err(format!("line {line_no}: missing `name`"));
            }
            events += 1;
            if ph == "X" {
                if get("dur").and_then(json::Value::as_f64).is_none() {
                    return Err(format!("line {line_no}: complete event without `dur`"));
                }
                complete += 1;
                tracks.insert(tid);
                match last_ts.iter_mut().find(|(t, _)| *t == tid) {
                    Some((_, prev)) => {
                        if ts < *prev {
                            return Err(format!(
                                "line {line_no}: track {tid} timestamp went backwards \
                                 ({ts} < {prev})"
                            ));
                        }
                        *prev = ts;
                    }
                    None => last_ts.push((tid, ts)),
                }
            } else if ph != "M" {
                tracks.insert(tid);
            }
        }
        if !closed {
            return Err("missing closing `]}`".to_string());
        }
        Ok(TraceValidation {
            events,
            complete_events: complete,
            tracks,
        })
    }
}

/// What [`TraceEventLog::validate`] found in a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceValidation {
    /// Total events (including metadata).
    pub events: usize,
    /// Complete (`X`) events.
    pub complete_events: usize,
    /// Distinct non-metadata tracks.
    pub tracks: BTreeSet<u32>,
}

// ---------------------------------------------------------------------
// Progress model
// ---------------------------------------------------------------------

/// The arithmetic behind a live sweep progress line: completion counts,
/// throughput, ETA, failure count, Pareto-front size and a
/// time-weighted worker-utilization estimate, with emission throttling.
///
/// This type is event-agnostic (the scenario crate's `ProgressReporter`
/// folds `SweepEvent`s into it); feed it
/// [`started`](ProgressModel::started) / [`finished`](ProgressModel::finished)
/// calls and poll for a throttled line.
#[derive(Debug, Clone)]
pub struct ProgressModel {
    total: usize,
    workers: usize,
    done: usize,
    failed: usize,
    in_flight: usize,
    pareto: usize,
    epoch: Instant,
    last_change: Instant,
    busy_worker_seconds: f64,
    last_emit: Option<Instant>,
    min_interval: Duration,
}

impl ProgressModel {
    /// A model for a sweep of `total` cells on `workers` workers,
    /// throttled to at most ten lines per second.
    pub fn new(total: usize, workers: usize) -> Self {
        let now = Instant::now();
        ProgressModel {
            total,
            workers: workers.max(1),
            done: 0,
            failed: 0,
            in_flight: 0,
            pareto: 0,
            epoch: now,
            last_change: now,
            busy_worker_seconds: 0.0,
            last_emit: None,
            min_interval: Duration::from_millis(100),
        }
    }

    /// Overrides the emission throttle (zero ⇒ every poll emits).
    pub fn with_min_interval(mut self, min_interval: Duration) -> Self {
        self.min_interval = min_interval;
        self
    }

    /// Advances the utilization integral to `now`.
    fn advance(&mut self, now: Instant) {
        let dt = now.duration_since(self.last_change).as_secs_f64();
        self.busy_worker_seconds += dt * self.in_flight.min(self.workers) as f64;
        self.last_change = now;
    }

    /// A cell started executing.
    pub fn started(&mut self) {
        self.advance(Instant::now());
        self.in_flight += 1;
    }

    /// A cell finished (`failed` says how).
    pub fn finished(&mut self, failed: bool) {
        self.advance(Instant::now());
        self.in_flight = self.in_flight.saturating_sub(1);
        if failed {
            self.failed += 1;
        } else {
            self.done += 1;
        }
    }

    /// Updates the Pareto-front size shown on the line.
    pub fn set_pareto(&mut self, size: usize) {
        self.pareto = size;
    }

    /// Cells completed so far (done + failed).
    pub fn completed(&self) -> usize {
        self.done + self.failed
    }

    /// Failures so far.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Mean busy workers since the sweep started (the utilization
    /// numerator of `util x.y/N`).
    pub fn mean_busy_workers(&self) -> f64 {
        let mut busy = self.busy_worker_seconds;
        let elapsed = self.epoch.elapsed().as_secs_f64();
        busy += self.last_change.elapsed().as_secs_f64() * self.in_flight.min(self.workers) as f64;
        if elapsed > 0.0 {
            busy / elapsed
        } else {
            0.0
        }
    }

    /// The current progress line, unthrottled.
    ///
    /// Until the model has both a non-zero elapsed time *and* at least
    /// one completed cell there is no defensible throughput estimate,
    /// so `cells/s` and `ETA` render as `--` — never `inf`, `NaN` or a
    /// fake `0 cells/s` on the first tick.
    pub fn line(&self) -> String {
        let completed = self.completed();
        let elapsed = self.epoch.elapsed().as_secs_f64();
        let pct = if self.total > 0 {
            100.0 * completed as f64 / self.total as f64
        } else {
            100.0
        };
        let (rate, eta) = if elapsed > 0.0 && completed > 0 {
            let rate = completed as f64 / elapsed;
            let eta = if completed < self.total {
                format!("{:.1}s", (self.total - completed) as f64 / rate)
            } else {
                "-".to_string()
            };
            (format!("{rate:.0}"), eta)
        } else {
            ("--".to_string(), "--".to_string())
        };
        format!(
            "sweep {completed}/{} ({pct:.0}%) | {rate} cells/s | ETA {eta} | \
             {} failed | pareto {} | util {:.1}/{}",
            self.total,
            self.failed,
            self.pareto,
            self.mean_busy_workers(),
            self.workers,
        )
    }

    /// The line, but only when the throttle interval has elapsed since
    /// the last emission (the first poll always emits).
    pub fn poll(&mut self) -> Option<String> {
        let now = Instant::now();
        let due = match self.last_emit {
            None => true,
            Some(prev) => now.duration_since(prev) >= self.min_interval,
        };
        if due {
            self.last_emit = Some(now);
            Some(self.line())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty histogram with its bucket array allocated up front, as
    /// every histogram was before allocation moved to the first sample.
    fn eager() -> LogHistogram {
        LogHistogram {
            counts: vec![0; BUCKETS],
            ..LogHistogram::new()
        }
    }

    /// Everything a histogram reports through its public surface.
    fn observed(h: &LogHistogram) -> (u64, u64, u64, u64, f64, Vec<u64>) {
        let qs = [0.0, 0.01, 0.5, 0.9, 0.99, 1.0];
        (
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.mean(),
            qs.iter().map(|&q| h.quantile(q)).collect(),
        )
    }

    #[test]
    fn empty_histogram_reports_zeros_without_allocating() {
        let h = LogHistogram::new();
        assert!(h.counts.is_empty(), "no bucket array before a sample");
        assert_eq!(observed(&h), observed(&eager()));
        assert_eq!(observed(&h), (0, 0, 0, 0, 0.0, vec![0; 6]));
        assert_eq!(
            h.summary(),
            HistogramSummary {
                count: 0,
                mean: 0.0,
                p50: 0,
                p90: 0,
                p99: 0,
                max: 0,
            }
        );
        assert_eq!(h.summary(), eager().summary());
    }

    #[test]
    fn merging_empty_histograms_matches_eager_allocation() {
        let mut populated = LogHistogram::new();
        for v in [3u64, 40, 900, 17_000, 5_000_000] {
            populated.record(v);
        }
        assert_eq!(populated.counts.len(), BUCKETS);

        // Empty into populated: nothing moves.
        let mut lazy = populated.clone();
        lazy.merge(&LogHistogram::new());
        let mut eager_into = populated.clone();
        eager_into.merge(&eager());
        assert_eq!(observed(&lazy), observed(&populated));
        assert_eq!(observed(&lazy), observed(&eager_into));
        assert_eq!(lazy.counts, eager_into.counts);

        // Populated into empty: the buckets are allocated and equal.
        let mut lazy = LogHistogram::new();
        lazy.merge(&populated);
        let mut eager_from = eager();
        eager_from.merge(&populated);
        assert_eq!(observed(&lazy), observed(&eager_from));
        assert_eq!(lazy.counts, eager_from.counts);
        assert_eq!(lazy.counts, populated.counts);

        // Empty into empty stays unallocated and empty.
        let mut both = LogHistogram::new();
        both.merge(&LogHistogram::new());
        assert!(both.counts.is_empty());
        assert_eq!(observed(&both), observed(&eager()));
    }

    #[test]
    fn registry_snapshot_of_an_empty_histogram() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("engine.gap_len_ms");
        reg.merge_histogram("pool.steal_size", &LogHistogram::new());
        let snap = reg.snapshot();
        for name in ["engine.gap_len_ms", "pool.steal_size"] {
            assert_eq!(
                snap.histogram(name),
                Some(&eager().summary()),
                "{name}: an empty histogram snapshots as zeros"
            );
        }
        let back = MetricsSnapshot::from_json(&snap.to_json()).expect("round-trips");
        assert_eq!(back, snap);
    }

    #[test]
    fn small_values_are_exact_buckets() {
        let mut h = LogHistogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        for v in 0..SUB {
            assert_eq!(h.quantile((v as f64 + 1.0) / SUB as f64), v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB - 1);
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_ordered() {
        // Every bucket's upper bound is exactly one below the next
        // bucket's lower bound — no gaps, no overlaps, full coverage.
        let mut prev_upper: Option<u64> = None;
        for idx in 0..BUCKETS {
            let lower = match prev_upper {
                None => 0,
                Some(u) => u + 1,
            };
            assert_eq!(
                LogHistogram::bucket(lower),
                idx,
                "lower bound of bucket {idx}"
            );
            let upper = LogHistogram::upper_bound(idx);
            assert!(upper >= lower);
            assert_eq!(
                LogHistogram::bucket(upper),
                idx,
                "upper bound of bucket {idx}"
            );
            if upper == u64::MAX {
                assert_eq!(idx, BUCKETS - 1);
                break;
            }
            prev_upper = Some(upper);
        }
        assert_eq!(LogHistogram::bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantile_error_is_bounded_by_sub_bucket_width() {
        let mut h = LogHistogram::new();
        for v in [1_000u64, 10_000, 100_000, 1_000_000, 10_000_000] {
            h.record(v);
        }
        // Each recorded value's bucket upper bound overshoots by at
        // most 1/SUB of the value.
        for (q, v) in [(0.2, 1_000u64), (0.6, 100_000), (1.0, 10_000_000)] {
            let got = h.quantile(q);
            assert!(got >= v, "quantile must not understate: {got} < {v}");
            assert!(
                (got - v) as f64 <= v as f64 / SUB as f64 + 1.0,
                "q={q}: {got} overshoots {v}"
            );
        }
    }

    #[test]
    fn merge_is_associative_and_matches_direct_recording() {
        let samples: Vec<u64> = (0..1000).map(|i| (i * i * 7919) % 1_000_003).collect();
        let mut direct = LogHistogram::new();
        let mut parts: Vec<LogHistogram> = (0..3).map(|_| LogHistogram::new()).collect();
        for (i, &v) in samples.iter().enumerate() {
            direct.record(v);
            parts[i % 3].record(v);
        }
        // (a + b) + c
        let mut left = LogHistogram::new();
        left.merge(&parts[0]);
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        // a + (b + c)
        let mut bc = LogHistogram::new();
        bc.merge(&parts[1]);
        bc.merge(&parts[2]);
        let mut right = LogHistogram::new();
        right.merge(&parts[0]);
        right.merge(&bc);
        for h in [&left, &right] {
            assert_eq!(h.count(), direct.count());
            assert_eq!(h.sum(), direct.sum());
            assert_eq!(h.max(), direct.max());
            assert_eq!(h.min(), direct.min());
            assert_eq!(h.counts, direct.counts);
        }
    }

    #[test]
    fn registry_round_trips_through_snapshot_json() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("sweep.cells");
        reg.add(c, 500);
        reg.set_named("worker.00.utilization", 0.875);
        let h = reg.histogram("cell.wall_ns");
        reg.record(h, 1_500_000);
        reg.record(h, 2_500_000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sweep.cells"), Some(500));
        assert_eq!(snap.gauge("worker.00.utilization"), Some(0.875));
        assert_eq!(snap.histogram("cell.wall_ns").unwrap().count, 2);

        let json_line = snap.to_json();
        let fields = json::parse_object(&json_line).expect("snapshot JSON parses");
        let counters = fields
            .iter()
            .find(|(k, _)| k == "counters")
            .and_then(|(_, v)| v.as_object())
            .expect("counters object");
        assert_eq!(counters[0].1.as_f64(), Some(500.0));
        let rendered = snap.render();
        assert!(rendered.contains("sweep.cells"), "{rendered}");
    }

    #[test]
    fn registry_merge_adds_counters_and_merges_histograms() {
        let mut a = MetricsRegistry::new();
        a.add_named("n", 2);
        let mut b = MetricsRegistry::new();
        b.add_named("n", 3);
        let h = b.histogram("lat");
        b.record(h, 10);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.counter("n"), Some(5));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
    }

    #[test]
    fn trace_log_serialises_and_validates() {
        let mut log = TraceEventLog::new();
        log.thread_name(0, "worker 0");
        log.thread_name(1, "worker 1");
        log.complete("cell-a", 0, 0.0, 100.0, vec![("index", ArgValue::Num(0.0))]);
        log.complete("cell \"quoted\"", 1, 50.0, 75.0, Vec::new());
        log.complete("cell-b", 0, 120.0, 30.0, Vec::new());
        let json_text = log.to_json();
        let v = TraceEventLog::validate(&json_text).expect("valid");
        assert_eq!(v.events, 5);
        assert_eq!(v.complete_events, 3);
        assert_eq!(v.tracks.len(), 2);
    }

    #[test]
    fn trace_validation_rejects_backwards_timestamps_per_track() {
        let mut log = TraceEventLog::new();
        log.complete("a", 0, 100.0, 10.0, Vec::new());
        log.complete("b", 0, 50.0, 10.0, Vec::new());
        let err = TraceEventLog::validate(&log.to_json()).expect_err("backwards");
        assert!(err.contains("backwards"), "{err}");
        // The same timestamps on *different* tracks are fine.
        let mut ok = TraceEventLog::new();
        ok.complete("a", 0, 100.0, 10.0, Vec::new());
        ok.complete("b", 1, 50.0, 10.0, Vec::new());
        TraceEventLog::validate(&ok.to_json()).expect("per-track only");
    }

    #[test]
    fn empty_trace_log_is_valid() {
        let v = TraceEventLog::validate(&TraceEventLog::new().to_json()).expect("valid");
        assert_eq!(v.events, 0);
        assert!(v.tracks.is_empty());
    }

    #[test]
    fn snapshot_json_round_trips_and_merge_folds_shards() {
        let shard_a = MetricsSnapshot {
            counters: vec![("sweep.cells".into(), 170), ("journal.records".into(), 170)],
            gauges: vec![
                ("sweep.wall_s".into(), 1.5),
                ("worker.00.utilization".into(), 0.9),
            ],
            histograms: vec![(
                "cell.wall_ns".into(),
                HistogramSummary {
                    count: 170,
                    mean: 1000.0,
                    p50: 900,
                    p90: 1800,
                    p99: 2200,
                    max: 2400,
                },
            )],
        };
        // to_json → from_json is the identity.
        let back = MetricsSnapshot::from_json(&shard_a.to_json()).expect("parses");
        assert_eq!(back, shard_a);

        // Merging a second shard: counters add, gauges take the max,
        // histogram counts add with a count-weighted mean.
        let mut merged = shard_a.clone();
        merged.merge(&MetricsSnapshot {
            counters: vec![("sweep.cells".into(), 330), ("extra".into(), 1)],
            gauges: vec![("sweep.wall_s".into(), 2.5)],
            histograms: vec![(
                "cell.wall_ns".into(),
                HistogramSummary {
                    count: 330,
                    mean: 2000.0,
                    p50: 1900,
                    p90: 2800,
                    p99: 3200,
                    max: 3400,
                },
            )],
        });
        assert_eq!(merged.counter("sweep.cells"), Some(500));
        assert_eq!(
            merged.counter("journal.records"),
            Some(170),
            "one-sided carries over"
        );
        assert_eq!(merged.counter("extra"), Some(1));
        assert_eq!(
            merged.gauge("sweep.wall_s"),
            Some(2.5),
            "gauges take the max"
        );
        let h = merged.histogram("cell.wall_ns").expect("merged");
        assert_eq!(h.count, 500);
        assert!((h.mean - (170.0 * 1000.0 + 330.0 * 2000.0) / 500.0).abs() < 1e-9);
        assert_eq!(h.max, 3400);
        let names: Vec<&str> = merged.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["extra", "journal.records", "sweep.cells"],
            "name-sorted"
        );

        // Malformed inputs are loud.
        assert!(MetricsSnapshot::from_json("{}").is_err());
        assert!(MetricsSnapshot::from_json(
            "{\"counters\":{\"c\":-1},\"gauges\":{},\"histograms\":{}}"
        )
        .is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_crash() {
        // A corrupt sidecar must fail the merge with an error, not
        // overflow the parser's stack and abort the coordinator.
        let deep = format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000));
        let err = MetricsSnapshot::from_json(&deep).expect_err("hostile depth");
        assert!(err.contains("nested deeper"), "{err}");
    }

    #[test]
    fn progress_line_carries_counts_failures_and_pareto() {
        let mut p = ProgressModel::new(10, 4).with_min_interval(Duration::ZERO);
        for _ in 0..3 {
            p.started();
        }
        p.finished(false);
        p.finished(true);
        p.set_pareto(2);
        let line = p.line();
        assert!(line.contains("2/10"), "{line}");
        assert!(line.contains("1 failed"), "{line}");
        assert!(line.contains("pareto 2"), "{line}");
        assert!(line.contains("/4"), "{line}");
        assert!(p.poll().is_some(), "zero interval always emits");
    }

    #[test]
    fn progress_first_tick_renders_dashes_never_inf_or_nan() {
        // A line polled before any cell completes (elapsed ≈ 0 and
        // done == 0) has no defensible rate: it must say `--`, not
        // `inf`, `NaN` or a fake `0 cells/s`.
        let p = ProgressModel::new(10, 2);
        let line = p.line();
        assert!(line.contains("0/10"), "{line}");
        assert!(line.contains("-- cells/s"), "{line}");
        assert!(line.contains("ETA --"), "{line}");
        assert!(!line.contains("inf"), "{line}");
        assert!(!line.contains("NaN"), "{line}");

        // Total 0 with nothing done: still dashes, and a sane percent.
        let empty = ProgressModel::new(0, 1);
        let line = empty.line();
        assert!(line.contains("-- cells/s"), "{line}");
        assert!(line.contains("(100%)"), "{line}");

        // Once a cell lands the real rate/ETA appear.
        let mut p = ProgressModel::new(10, 2);
        p.started();
        std::thread::sleep(Duration::from_millis(2));
        p.finished(false);
        let line = p.line();
        assert!(!line.contains("--"), "rate and ETA are live: {line}");
        assert!(line.contains("ETA"), "{line}");
    }

    #[test]
    fn progress_poll_is_throttled() {
        let mut p = ProgressModel::new(10, 1).with_min_interval(Duration::from_secs(3600));
        assert!(p.poll().is_some(), "first poll emits");
        p.finished(false);
        assert!(p.poll().is_none(), "second poll throttled");
    }
}
