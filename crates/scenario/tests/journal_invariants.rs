//! Invariants of the persisted sweep journal and crash-safe resume.
//!
//! The journal's contract, pinned here:
//!
//! 1. **Kill + resume ≡ uninterrupted.** A sweep cancelled after K
//!    cells (via a poisoned sink that panics mid-stream — the same
//!    interruption path a ^C or crash takes through the engine) and
//!    then resumed from its journal produces, across the union of the
//!    two runs, exactly the cells of one uninterrupted run — same
//!    per-cell trace digests, same aggregate report, no cell executed
//!    twice (the journal's duplicate-index hard error plus line counts
//!    prove it). Pinned at acceptance scale (500 cells, interrupted
//!    around 200) and as a property over random grids, worker counts
//!    and interruption points.
//! 2. **The file format survives its failure modes.** Round-trip is
//!    identity; a torn final line (killed writer) is a warning and the
//!    cell re-runs; corrupt mid-file lines, duplicate indices and
//!    stale fingerprints are loud, line-numbered errors.
//! 3. **Replay ≡ live.** An aggregate report rebuilt offline from the
//!    journal alone matches the one computed from the live stream, and
//!    two journals of the same grid diff empty.

use proptest::prelude::*;
use std::path::PathBuf;

use teem_core::runner::Approach;
use teem_scenario::{
    journal_digest, run_interrupted, ConfigPatch, JournalError, LoadedJournal, Scenario,
    SweepEvent, SweepJournal, SweepSpec,
};
use teem_soc::TimeAdvance;
use teem_telemetry::{sweep_diff, CellRecord, SweepAggregator};
use teem_workload::App;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// A unique temp file per test, removed on drop (including panic).
struct TempJournal(PathBuf);

impl TempJournal {
    fn new(tag: &str) -> Self {
        TempJournal(
            std::env::temp_dir().join(format!("teem_journal_{tag}_{}.jsonl", std::process::id())),
        )
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Keeps cells cheap: at most 2 s of simulated time each.
fn short_cells() -> ConfigPatch {
    ConfigPatch {
        timeout_s: Some(2.0),
        ..ConfigPatch::default()
    }
}

fn small_spec() -> SweepSpec {
    SweepSpec::over([
        Scenario::new("mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("gesummv").arrive(0.0, App::Gesummv, 0.9),
    ])
    .approaches(&[Approach::Teem, Approach::Ondemand])
    .patch_config(short_cells())
}

/// The uninterrupted reference: every cell of `spec` as a
/// [`CellRecord`], plus the live-stream aggregate.
fn uninterrupted(spec: &SweepSpec) -> (Vec<CellRecord>, SweepAggregator) {
    let mut records = Vec::new();
    let mut agg = SweepAggregator::new();
    spec.run_streaming(|ev| {
        if let SweepEvent::CellDone { cell, result } = ev {
            agg.record(&result.summary);
            records.push(CellRecord::from_summary(
                cell.index,
                &result.summary,
                result.trace.digest(),
            ));
        }
    })
    .expect("reference sweep runs");
    records.sort_by_key(|r| r.index);
    (records, agg)
}

/// Kills a sweep after `k` cells, resumes it from the journal, and
/// checks the union equals the uninterrupted run. Returns the merged
/// journal for extra per-test assertions.
fn kill_resume_and_check(spec: &SweepSpec, tag: &str, k: usize) -> LoadedJournal {
    let tmp = TempJournal::new(tag);
    let total = spec.cells();
    assert!(k < total, "harness needs an interruptible grid");

    // Run 1: cancelled after exactly k journalled cells — the sink
    // panics, dropping the event receiver, which stops the workers
    // from claiming further cells (the engine's documented
    // cancellation path).
    let mut journal = SweepJournal::create(tmp.path(), spec).expect("create journal");
    run_interrupted(spec, &mut journal, k);
    drop(journal); // final fsync, as a real process exit would

    // The journal holds exactly the k cells the sink saw — cells that
    // were mid-flight when the pool cancelled were never journalled
    // and therefore re-run below.
    let loaded = LoadedJournal::load(tmp.path()).expect("interrupted journal loads");
    assert_eq!(loaded.records.len(), k, "exactly k cells journalled");
    assert!(!loaded.is_complete());

    // Run 2: resume — skip the journalled cells, execute the rest,
    // append to the same journal.
    let resumed = spec
        .clone()
        .resume_from(&loaded)
        .expect("same spec, same fingerprint");
    let mut journal = SweepJournal::append_to(tmp.path(), spec).expect("append");
    let stats = resumed
        .run_streaming(|ev| journal.observe(&ev).expect("journal write"))
        .expect("resumed sweep runs");
    drop(journal);
    assert_eq!(
        stats.skipped, k,
        "resume skips exactly the journalled cells"
    );
    assert_eq!(stats.cells, total - k, "resume runs only the remainder");
    assert_eq!(stats.completed, total - k);
    assert_eq!(stats.failed, 0);

    // The merged journal: loading proves no cell ran twice (duplicate
    // indices are a hard error), the line count proves full coverage.
    let merged = LoadedJournal::load(tmp.path()).expect("merged journal loads — no duplicates");
    assert_eq!(
        merged.records.len(),
        total,
        "union of the two runs covers the grid exactly once"
    );
    assert!(merged.is_complete());

    // Digest-identical to one uninterrupted run, cell for cell.
    let (reference, live_agg) = uninterrupted(spec);
    assert_eq!(
        journal_digest(&merged.records),
        journal_digest(&reference),
        "kill+resume must be digest-identical to an uninterrupted run"
    );
    let diff = sweep_diff(&reference, &merged.records);
    assert!(diff.is_empty(), "non-empty diff:\n{}", diff.report());

    // And the offline replay of the merged journal reports the same
    // aggregate as the live uninterrupted stream (discrete outputs
    // exactly, running means to rounding — orders differ).
    let replayed = SweepAggregator::replay(merged.records.iter());
    assert_eq!(replayed.cells(), live_agg.cells());
    assert_eq!(replayed.trips_total(), live_agg.trips_total());
    assert_eq!(replayed.misses_total(), live_agg.misses_total());
    assert_eq!(replayed.best_by_scenario(), live_agg.best_by_scenario());
    assert_eq!(replayed.pareto_front(), live_agg.pareto_front());
    assert!((replayed.energy_j().mean - live_agg.energy_j().mean).abs() < 1e-9);
    assert_eq!(replayed.energy_j().min, live_agg.energy_j().min);
    assert_eq!(replayed.energy_j().max, live_agg.energy_j().max);

    merged
}

// ---------------------------------------------------------------------
// 1. Kill + resume ≡ uninterrupted
// ---------------------------------------------------------------------

/// The acceptance-scale harness: a 500-cell three-axis grid cancelled
/// after ~200 cells resumes running **only** the remaining 300, and
/// the union is digest-identical to an uninterrupted run.
#[test]
fn kill_after_200_of_500_cells_then_resume_matches_uninterrupted_run() {
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
    let spec = SweepSpec::over(scenarios)
        .thresholds_c(&thresholds)
        .ambients_c(&ambients)
        .patch_config(short_cells())
        .threads(4);
    assert_eq!(spec.cells(), 500, "three axes, 500 cells");

    let merged = kill_resume_and_check(&spec, "accept500", 200);

    // The winners a cross-commit diff would key on are intact.
    let agg = SweepAggregator::replay(merged.records.iter());
    assert_eq!(agg.cells(), 500);
    assert_eq!(agg.best_by_scenario().len(), 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Whatever the grid shape, worker count, lockstep lane count
    /// (0 runs unbatched) and interruption point, run-to-K + resume is
    /// indistinguishable from one uninterrupted run — per-cell digests
    /// and aggregate report alike (order-invariant by construction of
    /// both checks). With lanes, the resumed run steps the cells left
    /// after its skips through lockstep lanes.
    #[test]
    fn kill_resume_union_is_digest_identical_for_random_grids(
        thresholds_len in 0usize..=2,
        threads in 1usize..=4,
        lanes in 0usize..=4,
        kill_seed in 0u64..1_000_000,
    ) {
        let mut spec = small_spec().threads(threads);
        if lanes > 0 {
            spec = spec.batch(lanes);
        }
        let thresholds = [80.0, 85.0];
        if thresholds_len > 0 {
            spec = spec.thresholds_c(&thresholds[..thresholds_len]);
        }
        let total = spec.cells();
        prop_assert!(total >= 4);
        // Any interruption point strictly inside the grid.
        let k = 1 + (kill_seed as usize) % (total - 1);
        kill_resume_and_check(&spec, &format!("prop{thresholds_len}_{threads}_{lanes}_{k}"), k);
    }
}

/// `skip_cells` is the primitive under resume: skipped indices are
/// never materialised, never streamed, and reported in the stats.
#[test]
fn skip_cells_runs_exactly_the_complement() {
    let spec = small_spec().threads(1).skip_cells([0, 2]);
    assert_eq!(spec.skipped_cells().collect::<Vec<_>>(), vec![0, 2]);
    let mut streamed = Vec::new();
    let stats = spec
        .run_streaming(|ev| {
            if let SweepEvent::CellDone { cell, .. } = ev {
                streamed.push(cell.index);
            }
        })
        .expect("runs");
    assert_eq!(streamed, vec![1, 3], "only the complement, in order");
    assert_eq!(stats.skipped, 2);
    assert_eq!(stats.cells, 2);

    // Duplicate skips — within one call and across calls — collapse to
    // one skip; shard lowering relies on the dedupe.
    let spec = small_spec()
        .threads(1)
        .skip_cells([0, 0, 2])
        .skip_cells([2]);
    assert_eq!(spec.skipped_cells().collect::<Vec<_>>(), vec![0, 2]);
    let stats = spec.run_streaming(|_| {}).expect("runs");
    assert_eq!(stats.skipped, 2, "duplicates dedupe, never double-count");
    assert_eq!(stats.cells, 2);

    // An out-of-range skip can only mean the indices belong to a
    // different grid — a hard error, not a silent ignore (which would
    // let a mis-paired journal resume into the wrong experiment).
    let panic = std::panic::catch_unwind(|| small_spec().skip_cells([99]));
    let payload = panic.expect_err("out-of-range skip panics");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(message.contains("out of range"), "{message}");
    assert!(message.contains("99"), "{message}");
}

/// Resuming a journal that is already complete runs zero cells and
/// finishes immediately — restart-idempotence.
#[test]
fn resuming_a_complete_journal_runs_nothing() {
    let tmp = TempJournal::new("complete");
    let spec = small_spec().threads(2);
    let mut journal = SweepJournal::create(tmp.path(), &spec).expect("create");
    spec.run_streaming(|ev| journal.observe(&ev).expect("write"))
        .expect("runs");
    assert_eq!(journal.written(), spec.cells(), "one record per cell");
    drop(journal);

    let loaded = LoadedJournal::load(tmp.path()).expect("loads");
    assert!(loaded.is_complete());
    let resumed = spec.clone().resume_from(&loaded).expect("resumes");
    let mut events = 0;
    let stats = resumed.run_streaming(|_| events += 1).expect("runs");
    assert_eq!(stats.cells, 0);
    assert_eq!(stats.skipped, 4);
    assert_eq!(events, 1, "just the Finished event");
}

// ---------------------------------------------------------------------
// 2. File-format robustness
// ---------------------------------------------------------------------

/// Write → parse is the identity on every journalled record, via the
/// real writer and loader, over RNG-driven record contents including
/// hostile strings.
#[test]
fn journal_round_trip_is_identity_over_random_records() {
    let spec = small_spec(); // 4-cell grid: indices 0..4 are valid
    let hostile = [
        "plain",
        "with \"quotes\" and \\backslashes\\",
        "newline\nand\ttab and °C δ→∞",
        "ctrl\u{0001}\u{001f}bytes",
    ];
    for seed in 0..20u64 {
        let tmp = TempJournal::new(&format!("roundtrip{seed}"));
        let mut rng = TestRng::new(seed);
        let records: Vec<CellRecord> = (0..spec.cells())
            .map(|index| CellRecord {
                index,
                scenario: format!("{}@{}", hostile[index % hostile.len()], index),
                approach: hostile[(index + 1) % hostile.len()].to_string(),
                apps_completed: (index % 3) as u32,
                makespan_s: rng.next_f64() * 1e3,
                busy_s: rng.next_f64(),
                overlap_s: rng.next_f64() * 1e-6,
                idle_s: rng.next_f64() * 1e6,
                energy_j: rng.next_f64() * 1e4 - 5e3,
                idle_energy_j: rng.next_f64() * 1e-300,
                peak_temp_c: rng.next_f64() * 100.0,
                avg_temp_c: rng.next_f64() * 100.0,
                temp_variance: rng.next_f64() * 10.0,
                zone_trips: (index % 7) as u32,
                deadline_misses: (index % 2) as u32,
                trace_digest: rng.next_u64(),
            })
            .collect();

        let mut journal = SweepJournal::create(tmp.path(), &spec)
            .expect("create")
            .with_fsync_every(2);
        for r in &records {
            journal.record_done(r).expect("write");
        }
        journal
            .record_failed(0, "poison \"cell\"", "panicked:\nboom")
            .expect("write");
        drop(journal);

        let loaded = LoadedJournal::load(tmp.path()).expect("loads");
        assert_eq!(loaded.records, records, "seed {seed}");
        assert_eq!(loaded.failed.len(), 1);
        assert_eq!(loaded.failed[0].scenario, "poison \"cell\"");
        assert_eq!(loaded.failed[0].message, "panicked:\nboom");
        assert!(loaded.torn_tail.is_none());
    }
}

/// A torn final line — the killed-mid-write case — is skipped with a
/// warning, the cell is *not* counted done, and appending (resume)
/// truncates the torn bytes so the merged journal parses end to end.
#[test]
fn torn_final_line_is_a_warning_and_resume_reruns_that_cell() {
    let tmp = TempJournal::new("torn");
    let spec = small_spec().threads(1);
    let mut journal = SweepJournal::create(tmp.path(), &spec).expect("create");
    spec.run_streaming(|ev| journal.observe(&ev).expect("write"))
        .expect("runs");
    drop(journal);

    // Tear the last record: chop bytes off the end, mid-line.
    let content = std::fs::read(tmp.path()).expect("read");
    std::fs::write(tmp.path(), &content[..content.len() - 7]).expect("truncate");

    let loaded = LoadedJournal::load(tmp.path()).expect("torn tail is not an error");
    assert_eq!(loaded.records.len(), 3, "the torn cell is not done");
    let warning = loaded.torn_tail.as_deref().expect("warned");
    assert!(warning.contains("line 5"), "{warning}");
    assert!(!loaded.is_complete());

    // Resume: the torn cell (and only it) re-runs; append_to truncated
    // the torn bytes so the merged file is clean.
    let resumed = spec.clone().resume_from(&loaded).expect("resumes");
    let mut journal = SweepJournal::append_to(tmp.path(), &spec).expect("append");
    let stats = resumed
        .run_streaming(|ev| journal.observe(&ev).expect("write"))
        .expect("runs");
    drop(journal);
    assert_eq!(stats.cells, 1);
    assert_eq!(stats.skipped, 3);
    let merged = LoadedJournal::load(tmp.path()).expect("clean after resume");
    assert!(merged.is_complete());
    assert!(merged.torn_tail.is_none());
}

/// Corruption *before* the final line is a line-numbered hard error —
/// resuming from a damaged journal must be loud, never silent.
#[test]
fn corrupt_mid_file_line_is_a_line_numbered_hard_error() {
    let tmp = TempJournal::new("corrupt");
    let spec = small_spec().threads(1);
    let mut journal = SweepJournal::create(tmp.path(), &spec).expect("create");
    spec.run_streaming(|ev| journal.observe(&ev).expect("write"))
        .expect("runs");
    drop(journal);

    // Smash line 3 (a mid-file done record) in place.
    let content = std::fs::read_to_string(tmp.path()).expect("read");
    let mut lines: Vec<&str> = content.lines().collect();
    assert!(lines.len() >= 4);
    lines[2] = "{\"kind\":\"done\",\"index\":GARBAGE";
    std::fs::write(tmp.path(), format!("{}\n", lines.join("\n"))).expect("write");

    match LoadedJournal::load(tmp.path()) {
        Err(JournalError::Corrupt { line, message }) => {
            assert_eq!(line, 3, "names the damaged line");
            let text = format!("corrupt at line 3: {message}");
            assert!(!text.is_empty());
        }
        other => panic!("expected Corrupt at line 3, got {other:?}"),
    }
}

/// A hostile mid-file line nested 100 000 objects deep is the same
/// line-numbered error as any other corruption — never a stack
/// overflow that aborts the load (and with it a campaign merge).
#[test]
fn deeply_nested_mid_file_line_is_a_line_numbered_error() {
    let tmp = TempJournal::new("deep");
    let spec = small_spec().threads(1);
    let mut journal = SweepJournal::create(tmp.path(), &spec).expect("create");
    spec.run_streaming(|ev| journal.observe(&ev).expect("write"))
        .expect("runs");
    drop(journal);

    let content = std::fs::read_to_string(tmp.path()).expect("read");
    let mut lines: Vec<String> = content.lines().map(str::to_string).collect();
    assert!(lines.len() >= 4);
    lines[2] = format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000));
    std::fs::write(tmp.path(), format!("{}\n", lines.join("\n"))).expect("write");

    match LoadedJournal::load(tmp.path()) {
        Err(JournalError::Corrupt { line, message }) => {
            assert_eq!(line, 3, "names the hostile line");
            assert!(message.contains("nested deeper"), "{message}");
        }
        other => panic!("expected Corrupt at line 3, got {other:?}"),
    }
}

/// A duplicate done index means two writers raced or someone appended
/// without resuming — a hard error, because "load succeeded" is the
/// proof behind no-re-execution.
#[test]
fn duplicate_done_index_is_a_hard_error() {
    let tmp = TempJournal::new("dup");
    let spec = small_spec().threads(1);
    let mut journal = SweepJournal::create(tmp.path(), &spec).expect("create");
    spec.run_streaming(|ev| journal.observe(&ev).expect("write"))
        .expect("runs");
    drop(journal);

    let content = std::fs::read_to_string(tmp.path()).expect("read");
    let second_line = content.lines().nth(1).expect("has records").to_string();
    std::fs::write(tmp.path(), format!("{content}{second_line}\n")).expect("write");

    match LoadedJournal::load(tmp.path()) {
        Err(JournalError::Corrupt { line, message }) => {
            assert_eq!(line, 6, "the duplicated line is named");
            assert!(message.contains("twice"), "{message}");
        }
        other => panic!("expected duplicate-index error, got {other:?}"),
    }
}

/// A journal recorded for a different grid (axes, scenarios or
/// configuration changed) is rejected at resume by the fingerprint —
/// both by `resume_from` and by the appending writer.
#[test]
fn stale_journal_from_a_different_grid_is_rejected() {
    let tmp = TempJournal::new("stale");
    let spec = small_spec();
    let mut journal = SweepJournal::create(tmp.path(), &spec).expect("create");
    spec.run_streaming(|ev| journal.observe(&ev).expect("write"))
        .expect("runs");
    drop(journal);
    let loaded = LoadedJournal::load(tmp.path()).expect("loads");

    // Same scenarios, one more threshold: a different grid.
    let other = small_spec().thresholds_c(&[80.0, 85.0]);
    assert_ne!(spec.fingerprint(), other.fingerprint());
    match other.clone().resume_from(&loaded) {
        Err(JournalError::FingerprintMismatch { journal, spec }) => {
            assert_ne!(journal, spec);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    assert!(matches!(
        SweepJournal::append_to(tmp.path(), &other),
        Err(JournalError::FingerprintMismatch { .. })
    ));

    // A config change alone (different timeout ⇒ different physics)
    // also changes the fingerprint.
    let retimed = small_spec().patch_config(ConfigPatch {
        timeout_s: Some(5.0),
        ..ConfigPatch::default()
    });
    assert_ne!(spec.fingerprint(), retimed.fingerprint());

    // While a pure scheduling change does not: resume may use more or
    // fewer workers than the original run.
    assert_eq!(spec.fingerprint(), small_spec().threads(1).fingerprint());
}

/// Fingerprint values pinned across refactors of the configuration the
/// hash reads: a journal written by an older build must still resume,
/// so moving where a value lives (a config field, a constant) must not
/// move the hash. Two shapes: the plain grid, and an event-driven grid
/// with a timeout patch.
#[test]
fn sweep_fingerprints_are_pinned() {
    let plain = SweepSpec::over([
        Scenario::new("mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("gesummv").arrive(0.0, App::Gesummv, 0.9),
    ])
    .approaches(&[Approach::Teem, Approach::Ondemand]);
    let event_driven = plain.clone().patch_config(ConfigPatch {
        timeout_s: Some(2.0),
        time_advance: Some(TimeAdvance::EventDriven),
    });
    let got = [plain.fingerprint(), event_driven.fingerprint()];
    assert_eq!(
        got.map(|f| format!("{f:016x}")),
        ["6971103abbe55aee", "efcd1b3096962aa4"],
        "plain, event-driven + timeout"
    );
}

/// A journal stamped with a future format version is refused on read
/// *and* on append — appending v1 records into a v2 file would produce
/// a mixed-format journal no build can parse.
#[test]
fn future_version_journal_is_rejected_on_load_and_append() {
    let tmp = TempJournal::new("version");
    let spec = small_spec().threads(1);
    let mut journal = SweepJournal::create(tmp.path(), &spec).expect("create");
    spec.run_streaming(|ev| journal.observe(&ev).expect("write"))
        .expect("runs");
    drop(journal);

    let content = std::fs::read_to_string(tmp.path()).expect("read");
    std::fs::write(
        tmp.path(),
        content.replace("\"version\":1", "\"version\":2"),
    )
    .expect("write");

    for result in [
        LoadedJournal::load(tmp.path()).map(|_| ()),
        SweepJournal::append_to(tmp.path(), &spec).map(|_| ()),
    ] {
        match result {
            Err(JournalError::Corrupt { line: 1, message }) => {
                assert!(
                    message.contains("unsupported journal version 2"),
                    "{message}"
                );
            }
            other => panic!("expected version error at line 1, got {other:?}"),
        }
    }
}

/// Failed cells are journalled for post-mortems but retried on resume.
#[test]
fn failed_cells_are_recorded_but_retried_on_resume() {
    use teem_scenario::{AppRequest, ScenarioEvent};

    let tmp = TempJournal::new("failed");
    // The poison cell panics in-cell (implausible per-app threshold);
    // the good cell completes.
    let poison = Scenario::new("poison").at(
        0.0,
        ScenarioEvent::Arrival(AppRequest::new(App::Mvt, 0.9).with_threshold(500.0)),
    );
    let good = Scenario::new("good").arrive(0.0, App::Mvt, 0.9);
    let spec = SweepSpec::over([poison, good])
        .patch_config(short_cells())
        .threads(1);
    let mut journal = SweepJournal::create(tmp.path(), &spec).expect("create");
    let stats = spec
        .run_streaming(|ev| journal.observe(&ev).expect("write"))
        .expect("profiling fine");
    drop(journal);
    assert_eq!(stats.failed, 1);

    let loaded = LoadedJournal::load(tmp.path()).expect("loads");
    assert_eq!(loaded.records.len(), 1, "only the good cell is done");
    assert_eq!(loaded.failed.len(), 1);
    assert_eq!(loaded.failed[0].scenario, "poison");
    assert!(loaded.failed[0].message.contains("panicked"));

    // Resume skips only the done cell: the failed one is retried (and
    // fails again here, appending a second failed line — legal).
    let resumed = spec.clone().resume_from(&loaded).expect("resumes");
    let mut journal = SweepJournal::append_to(tmp.path(), &spec).expect("append");
    let stats = resumed
        .run_streaming(|ev| journal.observe(&ev).expect("write"))
        .expect("runs");
    drop(journal);
    assert_eq!(stats.skipped, 1);
    assert_eq!(stats.cells, 1, "the failed cell retried");
    assert_eq!(stats.failed, 1);
    let merged = LoadedJournal::load(tmp.path()).expect("loads");
    assert_eq!(merged.failed.len(), 2, "both attempts on record");
}

// ---------------------------------------------------------------------
// 3. Replay and diff
// ---------------------------------------------------------------------

/// The offline replay of a journal equals the live-stream aggregate —
/// the report can be rebuilt from the file alone. Same completion
/// order here, so even the running means match exactly.
#[test]
fn aggregator_replay_from_journal_equals_live_stream() {
    let tmp = TempJournal::new("replay");
    let spec = small_spec().threads(2);
    let mut live = SweepAggregator::new();
    let mut journal = SweepJournal::create(tmp.path(), &spec).expect("create");
    spec.run_streaming(|ev| {
        journal.observe(&ev).expect("write");
        if let SweepEvent::CellDone { result, .. } = &ev {
            live.record(&result.summary);
        }
    })
    .expect("runs");
    drop(journal);

    let loaded = LoadedJournal::load(tmp.path()).expect("loads");
    let replayed = SweepAggregator::replay(loaded.records.iter());
    assert_eq!(replayed.cells(), live.cells());
    assert_eq!(replayed.trips_total(), live.trips_total());
    assert_eq!(replayed.misses_total(), live.misses_total());
    assert_eq!(replayed.best_by_scenario(), live.best_by_scenario());
    assert_eq!(replayed.pareto_front(), live.pareto_front());
    assert_eq!(replayed.energy_j().mean, live.energy_j().mean);
    assert_eq!(replayed.makespan_s().mean, live.makespan_s().mean);
    assert_eq!(replayed.peak_temp_c().max, live.peak_temp_c().max);
    assert_eq!(replayed.report(), live.report());
}

/// Two journals of the same grid at the same code diff empty — the
/// engine is deterministic — and a single perturbed cell is reported
/// as exactly that cell with the regressed metric.
#[test]
fn journals_of_identical_runs_diff_empty_and_perturbations_are_localised() {
    let tmp_a = TempJournal::new("diff_a");
    let tmp_b = TempJournal::new("diff_b");
    let spec = small_spec();
    for (tmp, threads) in [(&tmp_a, 1), (&tmp_b, 3)] {
        let mut journal = SweepJournal::create(tmp.path(), &spec).expect("create");
        spec.clone()
            .threads(threads)
            .run_streaming(|ev| journal.observe(&ev).expect("write"))
            .expect("runs");
    }
    let a = LoadedJournal::load(tmp_a.path()).expect("loads");
    let b = LoadedJournal::load(tmp_b.path()).expect("loads");
    assert_eq!(a.fingerprint, b.fingerprint);
    let diff = sweep_diff(&a.records, &b.records);
    assert!(
        diff.is_empty(),
        "same grid, same code, different schedules must diff empty:\n{}",
        diff.report()
    );

    // Perturb one cell as a cross-commit regression would show up.
    let mut perturbed = b.records.clone();
    perturbed[1].energy_j *= 1.05;
    perturbed[1].trace_digest ^= 1;
    let diff = sweep_diff(&a.records, &perturbed);
    assert_eq!(diff.changed.len(), 1, "exactly the perturbed cell");
    assert_eq!(diff.changed[0].index, perturbed[1].index);
    assert!(diff.changed[0].digest_changed);
    assert_eq!(diff.changed[0].changed.len(), 1, "exactly the one metric");
    assert_eq!(diff.changed[0].changed[0].metric, "energy_j");
    assert_eq!(diff.regressions().count(), 1);
}
