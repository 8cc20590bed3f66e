//! The traced run's recorder: spans around every public call the
//! benchmark makes, kept in memory and written out at the end as a
//! validated Chrome trace, plus the per-layer counters the calls
//! return (the sweep's metrics registry, journal I/O counters).
//!
//! Nothing here reaches inside the program: spans bracket calls from
//! the outside, and the engine's own numbers come from
//! `SweepSpec::run_instrumented`.

use std::path::Path;
use std::time::Instant;

use teem_scenario::{JournalIoStats, SweepObsReport, SweepRunStats};
use teem_telemetry::{MetricsRegistry, TraceEventLog};

/// Spans and layer counters of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<(f64, f64, &'static str)>,
    /// Every instrumented sweep's registry, merged (counters add,
    /// histograms merge exactly).
    pub registry: MetricsRegistry,
    /// Σ worker busy nanoseconds over the instrumented sweeps.
    pub busy_ns: u64,
    /// Σ workers × sweep wall nanoseconds: the pool's capacity.
    pub capacity_ns: u64,
    /// Σ sweep wall nanoseconds (first claim to pool join).
    pub sweep_wall_ns: u64,
    /// Nanoseconds spent in the benchmark's own sink.
    pub sink_ns: u64,
    /// Each `SweepJournal::observe` call, µs.
    pub observe_us: Vec<f64>,
    /// `LoadedJournal::load` of every shard journal, ms.
    pub load_ms: f64,
    /// `SweepJournal::merge`, ms.
    pub merge_ms: f64,
    /// Summed journal I/O counters.
    pub journal: JournalIoStats,
    /// Each `evaluate::simulate` call, ms.
    pub simulate_ms: Vec<f64>,
    /// Each `runner::run` call, ms.
    pub run_ms: Vec<f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            registry: MetricsRegistry::new(),
            busy_ns: 0,
            capacity_ns: 0,
            sweep_wall_ns: 0,
            sink_ns: 0,
            observe_us: Vec::new(),
            load_ms: 0.0,
            merge_ms: 0.0,
            journal: JournalIoStats::default(),
            simulate_ms: Vec::new(),
            run_ms: Vec::new(),
        }
    }
}

impl Tracer {
    /// Closes the span `name` opened at `start`; returns its length in
    /// nanoseconds.
    pub fn span(&mut self, name: &'static str, start: Instant) -> u64 {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let ts_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push((ts_us, ns as f64 / 1e3, name));
        ns
    }

    /// Folds one instrumented sweep's report into the pass.
    pub fn absorb_sweep(&mut self, stats: &SweepRunStats, report: &SweepObsReport) {
        let wall_ns = u64::try_from(stats.wall.as_nanos()).unwrap_or(u64::MAX);
        self.registry.merge(&report.registry);
        self.busy_ns += report.busy_ns;
        self.capacity_ns += report.workers as u64 * wall_ns;
        self.sweep_wall_ns += wall_ns;
    }

    /// Adds one journal handle's lifetime counters.
    pub fn absorb_journal(&mut self, io: &JournalIoStats) {
        self.journal.records += io.records;
        self.journal.bytes += io.bytes;
        self.journal.fsyncs += io.fsyncs;
        self.journal.torn_tail_repairs += io.torn_tail_repairs;
    }

    /// Number of spans recorded.
    pub fn spans(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as Chrome trace-event JSON (one track, start
    /// order), validated before it is written.
    ///
    /// # Errors
    ///
    /// A validation or I/O failure, described.
    pub fn write_chrome(&self, path: &Path, track: &str) -> Result<(), String> {
        let mut order: Vec<&(f64, f64, &'static str)> = self.spans.iter().collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut log = TraceEventLog::new();
        log.thread_name(0, track);
        for &&(ts, dur, name) in &order {
            log.complete(name, 0, ts, dur, Vec::new());
        }
        let json = log.to_json();
        TraceEventLog::validate(&json).map_err(|e| format!("trace does not validate: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
    }
}
