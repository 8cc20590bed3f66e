//! `sweep_ablation` — scenario-level ablation of TEEM's δ / floor /
//! threshold knobs on the streaming sweep engine.
//!
//! The paper fixes δ = 200 MHz, floor = 1400 MHz and threshold = 85 °C
//! from its own characterisation; here the full knob grid becomes one
//! cartesian axis of a scenario sweep. Two scenarios ride the grid:
//!
//! * the ablation case study (SYRK under a deadline tight enough to
//!   ride above the threshold), and
//! * a **manager-swap** timeline that switches the management approach
//!   mid-scenario (TEEM → ondemand → TEEM), the policy-switch
//!   comparison the scenario-ablation roadmap item asked for.
//!
//! Cells stream through the sweep pool into a
//! [`SweepAggregator`] — nothing is buffered, so the same loop scales
//! to thousands of cells — and the first few cells are echoed as CSV
//! to show the offline-analysis export.
//!
//! ```sh
//! cargo run --release --example sweep_ablation
//! ```

use teem_core::runner::Approach;
use teem_core::TeemTunables;
use teem_scenario::{Scenario, ScenarioEvent, SweepEvent, SweepSpec};
use teem_soc::MHz;
use teem_telemetry::{sweep_csv_header, sweep_csv_row, SweepAggregator};
use teem_workload::App;

const CSV_PREVIEW_ROWS: usize = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // SYRK at treq 0.55 × ET_GPU rides ≈ 87 °C under the paper knobs:
    // every knob in the grid has something to steer.
    let case = Scenario::new("syrk-tight").arrive(0.0, App::Syrk, 0.55);

    // Mid-timeline policy switch: the second arrival launches under
    // stock ondemand, the third back under TEEM — same board, same
    // thermal history.
    let swap = Scenario::new("manager-swap")
        .arrive(0.0, App::Syrk, 0.85)
        .at(
            45.0,
            ScenarioEvent::ApproachChange {
                approach: Approach::Ondemand,
            },
        )
        .arrive(45.0, App::Syrk, 0.85)
        .at(
            90.0,
            ScenarioEvent::ApproachChange {
                approach: Approach::Teem,
            },
        )
        .arrive(90.0, App::Syrk, 0.85);

    // The δ × floor × threshold knob grid, one TeemTunables per cell —
    // built inline here to show the idiom (the canonical definition the
    // bench and `repro ablation` share lives in
    // `teem_bench::experiments::ablation::knob_grid`; this example's
    // crate does not depend on the bench harness).
    let mut knobs = Vec::new();
    for &thr in &[80.0, 85.0, 90.0] {
        for &delta in &[100u32, 200, 400] {
            for &floor in &[1000u32, 1400, 1800] {
                knobs.push(
                    TeemTunables::paper()
                        .with_threshold(thr)
                        .with_delta(delta)
                        .with_floor(MHz(floor)),
                );
            }
        }
    }

    let spec = SweepSpec::over([case, swap])
        .approaches(&[Approach::Teem])
        .tunables(&knobs);
    let cells = spec.cells();
    println!(
        "sweeping {} cells (2 scenarios x {} knob sets), streaming...\n",
        cells,
        knobs.len()
    );
    println!("first {CSV_PREVIEW_ROWS} cells as CSV (sweep_csv_row):");
    println!("{}", sweep_csv_header());

    let mut agg = SweepAggregator::new();
    let mut echoed = 0usize;
    let stats = spec.run_streaming(|ev| {
        if let SweepEvent::CellDone { result, .. } = ev {
            if echoed < CSV_PREVIEW_ROWS {
                println!("{}", sweep_csv_row(&result.summary));
                echoed += 1;
            }
            agg.record(&result.summary);
            // `result` dropped here — O(workers) resident, any grid size.
        }
    })?;

    println!();
    println!("{}", agg.report());
    println!(
        "{} cells in {:.2} s ({:.0} cells/s), {} failed",
        stats.cells,
        stats.wall.as_secs_f64(),
        stats.cells_per_sec(),
        stats.failed,
    );

    assert_eq!(stats.completed, cells, "every cell must complete");
    // The paper's knob set keeps the case study trip-free; the grid's
    // winners surface that without buffering a single trace.
    Ok(())
}
