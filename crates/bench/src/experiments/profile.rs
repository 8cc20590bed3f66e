//! Instrumented sweep profile: the `repro profile` artefact.
//!
//! Runs the acceptance-scale 500-cell grid (the same 5 scenarios ×
//! 10 thresholds × 10 ambients shape the `sweep_grid` bench streams)
//! through [`SweepSpec::run_instrumented`] and prints the campaign
//! post-mortem: the full [`MetricsSnapshot`] table (per-worker cell
//! counts, busy seconds and utilization, per-cell wall-time
//! histogram) and the kernel time split between the power model, the
//! thermal integration, sensor sampling, trace recording, the
//! control/actuate phases and the rest of the step loop.
//!
//! [`SweepSpec::run_instrumented`]: teem_scenario::SweepSpec::run_instrumented
//! [`MetricsSnapshot`]: teem_telemetry::MetricsSnapshot

use std::fmt::Write as _;

use teem_core::runner::Approach;
use teem_scenario::{ConfigPatch, Scenario, SweepError, SweepObsReport, SweepRunStats, SweepSpec};
use teem_workload::App;

/// What the profile run measured.
#[derive(Debug)]
pub struct ProfileDemo {
    /// Run totals (cells, wall, throughput).
    pub stats: SweepRunStats,
    /// The assembled observability report.
    pub report: SweepObsReport,
}

/// The 500-cell profile grid — the `sweep_grid` bench's acceptance
/// shape, short cells so `repro profile` stays interactive.
fn grid_500() -> SweepSpec {
    let scenarios = vec![
        Scenario::new("p-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("p-gesummv").arrive(0.0, App::Gesummv, 0.9),
        Scenario::new("p-syrk").arrive(0.0, App::Syrk, 0.9),
        Scenario::new("p-covariance").arrive(0.0, App::Covariance, 0.9),
        Scenario::new("p-mvt-tight").arrive(0.0, App::Mvt, 0.7),
    ];
    let thresholds: Vec<f64> = (0..10).map(|i| 80.0 + f64::from(i)).collect();
    let ambients: Vec<f64> = (0..10).map(|i| 15.0 + 2.0 * f64::from(i)).collect();
    SweepSpec::over(scenarios)
        .approaches(&[Approach::Teem])
        .thresholds_c(&thresholds)
        .ambients_c(&ambients)
        .patch_config(ConfigPatch {
            timeout_s: Some(2.0),
            ..ConfigPatch::default()
        })
        .threads(4)
}

/// Runs the instrumented 500-cell grid.
///
/// # Errors
///
/// Propagates any [`SweepError`] from the engine (a failed cell, a
/// poisoned pool).
pub fn run() -> Result<ProfileDemo, SweepError> {
    let spec = grid_500();
    let (stats, report) = spec.run_instrumented(|_| {})?;
    Ok(ProfileDemo { stats, report })
}

/// Formats the demo as the `repro profile` report.
pub fn report(d: &ProfileDemo) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== sweep profile (instrumented 500-cell grid) ==");
    let _ = writeln!(
        out,
        "{} cells on {} workers in {:.2} s ({:.0} cells/s), {} failed\n",
        d.stats.cells,
        d.report.workers,
        d.stats.wall.as_secs_f64(),
        d.stats.cells_per_sec(),
        d.stats.failed,
    );
    let _ = write!(out, "{}", d.report.snapshot().render());
    let _ = writeln!(out);
    let _ = write!(out, "{}", d.report.kernel_split());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_demo_accounts_and_reports() {
        let d = run().expect("profile grid runs");
        assert_eq!(d.stats.cells, 500);
        assert_eq!(d.stats.failed, 0);
        let snap = d.report.snapshot();
        let worker_cells: u64 = (0..d.report.workers)
            .map(|w| snap.counter(&format!("worker.{w:02}.cells")).unwrap_or(0))
            .sum();
        assert_eq!(worker_cells, d.stats.cells as u64);
        let r = report(&d);
        assert!(r.contains("500 cells"), "{r}");
        assert!(r.contains("kernel time split"), "{r}");
        assert!(r.contains("power model"), "{r}");
        assert!(r.contains("sensor sampling"), "{r}");
        assert!(r.contains("trace recording"), "{r}");
        assert!(r.contains("control+actuate"), "{r}");
    }
}
