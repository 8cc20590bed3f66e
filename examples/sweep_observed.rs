//! `sweep_observed` — an instrumented sweep campaign end to end: live
//! progress line, per-worker Chrome-trace export, and the metrics
//! snapshot.
//!
//! The sweep engine's observability layer answers the questions a
//! campaign operator actually asks mid-run ("how far along? how fast?
//! anything failing?") and afterwards ("where did the time go? did the
//! pool's workers share the cells evenly? how expensive was the thermal
//! solver?"):
//!
//! 1. a 200-cell scenario × threshold × ambient grid runs through
//!    [`SweepSpec::run_instrumented`], with a [`ProgressReporter`]
//!    folding the event stream into a throttled progress line;
//! 2. the run's [`SweepObsReport`] writes a Chrome trace-event file —
//!    one track per pool worker, one slice per cell — loadable in
//!    `chrome://tracing` or <https://ui.perfetto.dev>;
//! 3. the trace file is re-read and validated (well-formed JSON,
//!    monotone per-track timestamps) before being removed;
//! 4. the [`MetricsSnapshot`](teem_telemetry::MetricsSnapshot) and the
//!    kernel time split (power model vs thermal integration) print as
//!    the campaign's post-mortem.
//!
//! Instrumentation is strictly additive: the same grid through
//! `run_streaming` makes zero clock calls and produces bit-identical
//! physics (the `golden_digest` tests pin that).
//!
//! ```sh
//! cargo run --release --example sweep_observed
//! ```

use std::time::Duration;

use teem_scenario::{ConfigPatch, ProgressReporter, Scenario, SweepSpec};
use teem_telemetry::TraceEventLog;
use teem_workload::App;

fn spec_200() -> SweepSpec {
    let scenarios = vec![
        Scenario::new("w-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("w-gesummv").arrive(0.0, App::Gesummv, 0.9),
        Scenario::new("w-syrk").arrive(0.0, App::Syrk, 0.9),
        Scenario::new("w-covariance").arrive(0.0, App::Covariance, 0.9),
        Scenario::new("w-mvt-tight").arrive(0.0, App::Mvt, 0.7),
    ];
    let thresholds: Vec<f64> = (0..5).map(|i| 80.0 + 2.0 * f64::from(i)).collect();
    let ambients: Vec<f64> = (0..8).map(|i| 15.0 + 2.5 * f64::from(i)).collect();
    SweepSpec::over(scenarios)
        .thresholds_c(&thresholds)
        .ambients_c(&ambients)
        .patch_config(ConfigPatch {
            timeout_s: Some(2.0),
            ..ConfigPatch::default()
        })
        .threads(4)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec_200();
    let total = spec.cells();
    println!("instrumented sweep: {total} cells (5 scenarios x 5 thresholds x 8 ambients)\n");

    // Live progress: print every line the reporter emits. A terminal UI
    // would use `\r`; this example keeps plain lines so the output
    // reads as a log.
    let mut reporter =
        ProgressReporter::new(total, 4).with_min_interval(Duration::from_millis(200));
    let (stats, report) = spec.run_instrumented(|ev| {
        if let Some(line) = reporter.observe(&ev) {
            println!("{line}");
        }
    })?;
    assert_eq!(stats.completed, total, "every cell must complete");

    // Export the per-worker trace, validate the file, then clean up.
    let trace_path =
        std::env::temp_dir().join(format!("teem_sweep_trace_{}.json", std::process::id()));
    report.write_trace(&trace_path)?;
    let text = std::fs::read_to_string(&trace_path)?;
    let v = TraceEventLog::validate(&text).map_err(std::io::Error::other)?;
    println!(
        "\ntrace: {} ({} events, {} slices, {} worker tracks) — validated, \
         load in chrome://tracing",
        trace_path.display(),
        v.events,
        v.complete_events,
        v.tracks.len()
    );
    assert_eq!(v.complete_events, stats.cells, "one slice per cell");
    assert_eq!(v.tracks.len(), report.workers, "one track per worker");
    std::fs::remove_file(&trace_path)?;

    // The post-mortem: every named metric, then the kernel time split.
    println!("\n{}", report.snapshot().render());
    println!("{}", report.kernel_split());
    println!("{}", reporter.aggregator().report());
    Ok(())
}
