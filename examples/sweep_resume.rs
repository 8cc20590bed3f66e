//! `sweep_resume` — interrupt a 500-cell sweep mid-flight, resume it
//! from its journal, and prove the union is identical to an
//! uninterrupted run.
//!
//! Long DSE-style campaigns (TEEM knob ablations, MPC-style grids) die
//! to preemption, ^C and crashes; the persisted sweep journal makes
//! that cheap. This example plays the whole story end to end:
//!
//! 1. a 500-cell scenario × threshold × ambient grid streams through
//!    the sweep pool while a [`SweepJournal`] spills every
//!    finished cell to an append-only JSONL file;
//! 2. after ~200 cells the sink "crashes" (a panic cancels the pool —
//!    the same path a real kill takes through the engine);
//! 3. `SweepSpec::resume_from` reloads the journal, verifies the grid
//!    fingerprint, and re-runs **only** the remaining cells, appending
//!    to the same journal;
//! 4. the merged journal is replayed offline into the aggregate report
//!    and diffed cell-by-cell against a fresh uninterrupted run —
//!    digest-identical, empty diff.
//!
//! ```sh
//! cargo run --release --example sweep_resume
//! ```

use std::time::Instant;

use teem_scenario::{
    journal_digest, run_interrupted, ConfigPatch, LoadedJournal, Scenario, SweepEvent,
    SweepJournal, SweepSpec,
};
use teem_telemetry::{sweep_diff, CellRecord, SweepAggregator};
use teem_workload::App;

const INTERRUPT_AFTER: usize = 200;

fn spec_500() -> SweepSpec {
    let scenarios = vec![
        Scenario::new("s-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("s-gesummv").arrive(0.0, App::Gesummv, 0.9),
        Scenario::new("s-syrk").arrive(0.0, App::Syrk, 0.9),
        Scenario::new("s-atax").arrive(0.0, App::Mvt, 0.7),
        Scenario::new("s-pair")
            .arrive(0.0, App::Gesummv, 0.9)
            .arrive(0.5, App::Mvt, 0.9),
    ];
    let thresholds: Vec<f64> = (0..10).map(|i| 80.0 + i as f64).collect();
    let ambients: Vec<f64> = (0..10).map(|i| 15.0 + 2.0 * i as f64).collect();
    SweepSpec::over(scenarios)
        .thresholds_c(&thresholds)
        .ambients_c(&ambients)
        // Short cells keep the demo snappy; the journal machinery is
        // identical at any cell length.
        .patch_config(ConfigPatch {
            timeout_s: Some(2.0),
            ..ConfigPatch::default()
        })
        .threads(4)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::temp_dir().join(format!("teem_sweep_resume_{}.jsonl", std::process::id()));
    let spec = spec_500();
    let total = spec.cells();
    println!(
        "grid: {total} cells (5 scenarios x 10 thresholds x 10 ambients), \
         fingerprint {:016x}",
        spec.fingerprint()
    );
    println!("journal: {}\n", path.display());

    // --- 1 + 2: run with a journal, crash after INTERRUPT_AFTER cells.
    // `run_interrupted` cancels the pool by panicking in the sink; the
    // injected panic is silenced by payload, so a genuine worker panic
    // would still report.
    let t0 = Instant::now();
    let mut journal = SweepJournal::create(&path, &spec)?;
    run_interrupted(&spec, &mut journal, INTERRUPT_AFTER);
    drop(journal); // final fsync — what a dying process would owe the OS
    println!(
        "run 1: killed after {INTERRUPT_AFTER} cells ({:.0} ms)",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // --- 3: load, verify, resume. Only the remaining cells execute.
    let t1 = Instant::now();
    let loaded = LoadedJournal::load(&path)?;
    println!(
        "journal holds {} done cells of {} (complete: {})",
        loaded.records.len(),
        loaded.cells,
        loaded.is_complete()
    );
    let resumed = spec.clone().resume_from(&loaded)?;
    let mut journal = SweepJournal::append_to(&path, &spec)?;
    let stats = resumed.run_streaming(|ev| journal.observe(&ev).expect("journal write"))?;
    let appended = journal.written();
    drop(journal);
    println!(
        "run 2: resumed — skipped {} journalled cells, executed {} \
         (appended {} records, {:.0} ms)\n",
        stats.skipped,
        stats.cells,
        appended,
        t1.elapsed().as_secs_f64() * 1e3
    );
    assert_eq!(
        appended, stats.cells,
        "one journal record per executed cell"
    );

    // --- 4: the merged journal vs a fresh uninterrupted run.
    let merged = LoadedJournal::load(&path)?;
    assert!(merged.is_complete(), "all {total} cells journalled once");

    let mut reference: Vec<CellRecord> = Vec::with_capacity(total);
    spec.run_streaming(|ev| {
        if let SweepEvent::CellDone { cell, result } = ev {
            reference.push(CellRecord::from_summary(
                cell.index,
                &result.summary,
                result.trace.digest(),
            ));
        }
    })?;

    let merged_digest = journal_digest(&merged.records);
    let reference_digest = journal_digest(&reference);
    println!(
        "merged journal digest      {merged_digest:016x}\n\
         uninterrupted run digest   {reference_digest:016x}"
    );
    assert_eq!(
        merged_digest, reference_digest,
        "kill+resume must be digest-identical to an uninterrupted run"
    );
    let diff = sweep_diff(&reference, &merged.records);
    println!("cell-by-cell diff: {}", diff.report().trim_end());
    assert!(diff.is_empty());

    // The aggregate report, rebuilt offline from the journal alone.
    let agg = SweepAggregator::replay(merged.records.iter());
    println!("\nreplayed from journal:\n{}", agg.report());

    std::fs::remove_file(&path)?;
    Ok(())
}
