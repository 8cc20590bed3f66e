//! Online aggregation for streaming parameter sweeps.
//!
//! A thousands-of-cell scenario × knob grid cannot afford to buffer
//! every [`ScenarioSummary`] it produces; the [`SweepAggregator`]
//! consumes cells *as they finish* — in any order, from any number of
//! workers — and keeps only O(scenarios + Pareto front) state:
//!
//! * per-cell extremes and running means for energy, makespan and peak
//!   temperature (Welford, allocation-free per record);
//! * the **best cell per base scenario** (knob tags stripped from the
//!   grouping key), ranked by (reactive trips, deadline misses, energy,
//!   makespan) with a deterministic name tie break, so the winner is
//!   invariant under cell arrival order and a knob grid reports one
//!   winner per underlying scenario, not one row per cell;
//! * the **energy / makespan / trips Pareto front** across every cell —
//!   the non-dominated set is a property of the cell *multiset*, so it
//!   too is arrival-order invariant;
//! * CSV row export ([`sweep_csv_row`]) for offline analysis of the
//!   full per-cell stream.
//!
//! Everything discrete (counts, best table, front membership) is
//! exactly order-invariant; the floating-point running means are
//! order-invariant up to rounding, which the scenario crate's property
//! tests pin down.

use crate::scenario::ScenarioSummary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One finished sweep cell as a flat, self-contained record: every
/// scenario-level metric plus the trace digest, keyed by the cell's
/// linear grid index.
///
/// This is the unit of the persisted sweep journal (the scenario
/// crate's `SweepJournal` writes one of these per `CellDone` line) and
/// of cross-run comparison ([`sweep_diff`](crate::sweep_diff)): unlike
/// a [`ScenarioSummary`] it carries no per-app runs, so it can be
/// round-tripped through a JSONL line losslessly — the derived
/// quantities a summary computes (deadline misses, apps completed) are
/// stored as plain counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Linear cell index in the sweep grid.
    pub index: usize,
    /// Materialised (knob-tagged) cell scenario name.
    pub scenario: String,
    /// Management-approach display name.
    pub approach: String,
    /// Completed application runs.
    pub apps_completed: u32,
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Busy time, seconds.
    pub busy_s: f64,
    /// Co-running overlap time, seconds.
    pub overlap_s: f64,
    /// Idle time, seconds.
    pub idle_s: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Idle-gap energy, joules.
    pub idle_energy_j: f64,
    /// Peak temperature, °C.
    pub peak_temp_c: f64,
    /// Mean hottest-sensor temperature, °C.
    pub avg_temp_c: f64,
    /// Temporal thermal variance, °C².
    pub temp_variance: f64,
    /// Reactive thermal-zone trips.
    pub zone_trips: u32,
    /// Deadline misses.
    pub deadline_misses: u32,
    /// FNV-1a digest of the cell's full trace — bit-identity across
    /// runs and commits.
    pub trace_digest: u64,
}

impl CellRecord {
    /// Flattens a finished cell: the summary's metrics plus the grid
    /// index and the trace digest.
    pub fn from_summary(index: usize, summary: &ScenarioSummary, trace_digest: u64) -> Self {
        // The journal cannot express non-finite floats (JSON `null`,
        // read back as NaN) — canonicalise to NaN here so a live-built
        // record is bit-identical to its own journal round-trip under
        // exact digest/diff comparison.
        fn canon(v: f64) -> f64 {
            if v.is_finite() {
                v
            } else {
                f64::NAN
            }
        }
        CellRecord {
            index,
            scenario: summary.scenario.clone(),
            approach: summary.approach.clone(),
            apps_completed: summary.apps_completed() as u32,
            makespan_s: canon(summary.makespan_s),
            busy_s: canon(summary.busy_s),
            overlap_s: canon(summary.overlap_s),
            idle_s: canon(summary.idle_s),
            energy_j: canon(summary.energy_j),
            idle_energy_j: canon(summary.idle_energy_j),
            peak_temp_c: canon(summary.peak_temp_c),
            avg_temp_c: canon(summary.avg_temp_c),
            temp_variance: canon(summary.temp_variance),
            zone_trips: summary.zone_trips,
            deadline_misses: summary.deadline_misses(),
            trace_digest,
        }
    }
}

/// Running min / mean / max of one observable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extremes {
    /// Smallest recorded value (`+∞` when empty).
    pub min: f64,
    /// Running mean (0 when empty).
    pub mean: f64,
    /// Largest recorded value (`−∞` when empty).
    pub max: f64,
}

#[derive(Debug, Clone)]
struct Online {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Online {
    fn new() -> Self {
        Online {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn push(&mut self, v: f64) {
        self.n += 1;
        self.mean += (v - self.mean) / self.n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn extremes(&self) -> Extremes {
        Extremes {
            min: self.min,
            mean: self.mean,
            max: self.max,
        }
    }
}

/// The winning cell for one base scenario: which approach (and, in a
/// knob sweep, which knob-tagged cell) won, and the metrics it won
/// with.
#[derive(Debug, Clone, PartialEq)]
pub struct BestCell {
    /// The winning cell's full (knob-tagged) scenario name.
    pub cell: String,
    /// The winning approach's display name.
    pub approach: String,
    /// Reactive thermal-zone trips of the winning cell.
    pub zone_trips: u32,
    /// Deadline misses of the winning cell.
    pub misses: u32,
    /// Total energy of the winning cell, joules.
    pub energy_j: f64,
    /// Makespan of the winning cell, seconds.
    pub makespan_s: f64,
}

impl BestCell {
    /// The ranking key, borrowed: `(trips, misses, energy, makespan,
    /// approach, cell)`.
    fn rank(&self) -> Rank<'_> {
        (
            self.zone_trips,
            self.misses,
            self.energy_j,
            self.makespan_s,
            &self.approach,
            &self.cell,
        )
    }
}

/// A cell's ranking key, borrowed from it: `(trips, misses, energy,
/// makespan, approach, cell)`.
type Rank<'a> = (u32, u32, f64, f64, &'a str, &'a str);

/// Ranking order: fewer trips, then fewer misses, then less energy,
/// then shorter makespan, then the approach and cell names — a total
/// order, so the per-scenario winner cannot depend on cell arrival
/// order.
fn beats(a: Rank<'_>, b: Rank<'_>) -> bool {
    (a.0, a.1)
        .cmp(&(b.0, b.1))
        .then(a.2.total_cmp(&b.2))
        .then(a.3.total_cmp(&b.3))
        .then(a.4.cmp(b.4))
        .then(a.5.cmp(b.5))
        .is_lt()
}

/// One point of the energy / makespan / trips Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Scenario (cell) name.
    pub scenario: String,
    /// Approach display name.
    pub approach: String,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Reactive thermal-zone trips.
    pub zone_trips: u32,
}

impl ParetoPoint {
    /// The objectives, all minimised: `(energy, makespan, trips)`.
    fn objectives(&self) -> Objectives {
        (self.energy_j, self.makespan_s, self.zone_trips)
    }
}

/// A cell's objectives, all minimised: `(energy, makespan, trips)`.
type Objectives = (f64, f64, u32);

/// `true` when `a` is at least as good as `b` on every objective and
/// strictly better on at least one.
fn dominates(a: Objectives, b: Objectives) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 < b.0 || a.1 < b.1 || a.2 < b.2)
}

/// Order-insensitive online aggregator for a stream of sweep cells.
///
/// Feed it every [`ScenarioSummary`] a sweep produces (via
/// [`SweepAggregator::record`]) and read the winners, the Pareto front
/// and the aggregate statistics at the end — without ever holding more
/// than one cell's summary alive.
#[derive(Debug, Clone, Default)]
pub struct SweepAggregator {
    cells: usize,
    trips_total: u64,
    misses_total: u64,
    energy: Option<Online>,
    makespan: Option<Online>,
    peak_temp: Option<Online>,
    best: BTreeMap<String, BestCell>,
    pareto: Vec<ParetoPoint>,
}

impl SweepAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        SweepAggregator::default()
    }

    /// Folds one finished cell into the aggregate state.
    ///
    /// Winners are grouped by the cell's **base scenario name** — the
    /// part before the sweep engine's `@` knob-tag separator — so a
    /// knob grid of thousands of cells still reports one winner per
    /// underlying scenario (with the winning knob set readable off the
    /// winner's [`BestCell::cell`] name) instead of one row per cell.
    pub fn record(&mut self, summary: &ScenarioSummary) {
        self.fold(
            &summary.scenario,
            &summary.approach,
            summary.energy_j,
            summary.makespan_s,
            summary.peak_temp_c,
            summary.zone_trips,
            summary.deadline_misses(),
        );
    }

    /// Folds one journalled cell into the aggregate state — the same
    /// fold as [`SweepAggregator::record`], fed from a flat
    /// [`CellRecord`] instead of a live [`ScenarioSummary`], so a
    /// report can be rebuilt offline from a persisted journal alone.
    pub fn record_cell(&mut self, record: &CellRecord) {
        self.fold(
            &record.scenario,
            &record.approach,
            record.energy_j,
            record.makespan_s,
            record.peak_temp_c,
            record.zone_trips,
            record.deadline_misses,
        );
    }

    /// Rebuilds the aggregate state from a journal's records: an
    /// aggregator that replayed a sweep's journal reports the same
    /// winners, Pareto front and totals as one that consumed the live
    /// stream (discrete outputs exactly; running means to rounding when
    /// the orders differ — both pinned by the scenario crate's
    /// journal-invariants tests).
    pub fn replay<'a>(records: impl IntoIterator<Item = &'a CellRecord>) -> Self {
        let mut agg = SweepAggregator::new();
        for r in records {
            agg.record_cell(r);
        }
        agg
    }

    /// The shared per-cell fold behind [`SweepAggregator::record`] and
    /// [`SweepAggregator::record_cell`]. It compares the borrowed names
    /// and numbers, and copies the names only for a cell it keeps (a
    /// scenario's new best, or a point on the Pareto front).
    #[allow(clippy::too_many_arguments)]
    fn fold(
        &mut self,
        scenario: &str,
        approach: &str,
        energy_j: f64,
        makespan_s: f64,
        peak_temp_c: f64,
        zone_trips: u32,
        misses: u32,
    ) {
        self.cells += 1;
        self.trips_total += u64::from(zone_trips);
        self.misses_total += u64::from(misses);
        self.energy.get_or_insert_with(Online::new).push(energy_j);
        self.makespan
            .get_or_insert_with(Online::new)
            .push(makespan_s);
        self.peak_temp
            .get_or_insert_with(Online::new)
            .push(peak_temp_c);

        let rank = (zone_trips, misses, energy_j, makespan_s, approach, scenario);
        let kept = || BestCell {
            cell: scenario.to_string(),
            approach: approach.to_string(),
            zone_trips,
            misses,
            energy_j,
            makespan_s,
        };
        let base = base_scenario(scenario);
        match self.best.get_mut(base) {
            Some(incumbent) => {
                if beats(rank, incumbent.rank()) {
                    *incumbent = kept();
                }
            }
            None => {
                self.best.insert(base.to_string(), kept());
            }
        }

        let point = (energy_j, makespan_s, zone_trips);
        if !self.pareto.iter().any(|q| dominates(q.objectives(), point)) {
            self.pareto.retain(|q| !dominates(point, q.objectives()));
            self.pareto.push(ParetoPoint {
                scenario: scenario.to_string(),
                approach: approach.to_string(),
                energy_j,
                makespan_s,
                zone_trips,
            });
        }
    }

    /// Number of cells recorded.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Total reactive-zone trips across every cell.
    pub fn trips_total(&self) -> u64 {
        self.trips_total
    }

    /// Total deadline misses across every cell.
    pub fn misses_total(&self) -> u64 {
        self.misses_total
    }

    /// Energy min / mean / max across cells, joules.
    pub fn energy_j(&self) -> Extremes {
        self.energy.as_ref().map_or(EMPTY, Online::extremes)
    }

    /// Makespan min / mean / max across cells, seconds.
    pub fn makespan_s(&self) -> Extremes {
        self.makespan.as_ref().map_or(EMPTY, Online::extremes)
    }

    /// Peak-temperature min / mean / max across cells, °C.
    pub fn peak_temp_c(&self) -> Extremes {
        self.peak_temp.as_ref().map_or(EMPTY, Online::extremes)
    }

    /// The winning cell per **base** scenario (knob tags stripped from
    /// the key; the winner's full cell name is in
    /// [`BestCell::cell`]), keyed (and therefore ordered) by name.
    pub fn best_by_scenario(&self) -> &BTreeMap<String, BestCell> {
        &self.best
    }

    /// The energy / makespan / trips Pareto front across every recorded
    /// cell, sorted by (energy, makespan, trips, scenario, approach) so
    /// the returned order never depends on arrival order.
    pub fn pareto_front(&self) -> Vec<ParetoPoint> {
        let mut front = self.pareto.clone();
        front.sort_by(|a, b| {
            a.energy_j
                .total_cmp(&b.energy_j)
                .then(a.makespan_s.total_cmp(&b.makespan_s))
                .then(a.zone_trips.cmp(&b.zone_trips))
                .then(a.scenario.cmp(&b.scenario))
                .then(a.approach.cmp(&b.approach))
        });
        front
    }

    /// Formats the aggregate state as a report: the one-line summary,
    /// the per-scenario winners and the Pareto front.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let e = self.energy_j();
        let m = self.makespan_s();
        let _ = writeln!(
            out,
            "sweep: {} cells | E(J) min/mean/max {:.1}/{:.1}/{:.1} | span(s) {:.1}/{:.1}/{:.1} | trips {} | misses {}",
            self.cells, e.min, e.mean, e.max, m.min, m.mean, m.max, self.trips_total, self.misses_total
        );
        if !self.best.is_empty() {
            let _ = writeln!(out, "best cell per scenario:");
            for (scenario, b) in &self.best {
                let _ = writeln!(
                    out,
                    "  {:<22} -> {:<38} {:<10} E={:<8.1} span={:<7.1} trips={} misses={}",
                    scenario, b.cell, b.approach, b.energy_j, b.makespan_s, b.zone_trips, b.misses
                );
            }
        }
        let front = self.pareto_front();
        if !front.is_empty() {
            let _ = writeln!(out, "pareto front (energy, makespan, trips):");
            for p in &front {
                let _ = writeln!(
                    out,
                    "  {:<38} {:<10} E={:<8.1} span={:<7.1} trips={}",
                    p.scenario, p.approach, p.energy_j, p.makespan_s, p.zone_trips
                );
            }
        }
        out
    }
}

const EMPTY: Extremes = Extremes {
    min: f64::INFINITY,
    mean: 0.0,
    max: f64::NEG_INFINITY,
};

/// The base scenario name: everything before the sweep engine's `@`
/// knob-tag separator (the whole name when untagged).
///
/// `@` is reserved by convention: a *user-chosen* scenario name
/// containing `@` (say, a trace file named `day@home.csv`) is
/// indistinguishable from a knob tag here, so such scenarios share a
/// winner slot with their prefix. Rename the scenario if its winner
/// row must stay separate; per-cell statistics, the Pareto front and
/// CSV export always use the full name and are unaffected.
fn base_scenario(name: &str) -> &str {
    name.split('@').next().unwrap_or(name)
}

/// Header line matching [`sweep_csv_row`].
pub fn sweep_csv_header() -> &'static str {
    "scenario,approach,apps,makespan_s,busy_s,overlap_s,idle_s,energy_j,idle_energy_j,\
     peak_temp_c,avg_temp_c,temp_variance,zone_trips,deadline_misses"
}

/// One finished cell as a CSV row (scenario names are quoted; every
/// numeric column uses enough digits to round-trip for offline
/// analysis).
pub fn sweep_csv_row(s: &ScenarioSummary) -> String {
    format!(
        "\"{}\",\"{}\",{},{},{},{},{},{},{},{},{},{},{},{}",
        s.scenario.replace('"', "\"\""),
        s.approach.replace('"', "\"\""),
        s.apps_completed(),
        s.makespan_s,
        s.busy_s,
        s.overlap_s,
        s.idle_s,
        s.energy_j,
        s.idle_energy_j,
        s.peak_temp_c,
        s.avg_temp_c,
        s.temp_variance,
        s.zone_trips,
        s.deadline_misses()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scenario: &str, approach: &str, energy: f64, span: f64, trips: u32) -> ScenarioSummary {
        ScenarioSummary {
            scenario: scenario.into(),
            approach: approach.into(),
            makespan_s: span,
            busy_s: span,
            overlap_s: 0.0,
            idle_s: 0.0,
            energy_j: energy,
            idle_energy_j: 0.0,
            peak_temp_c: 88.0,
            avg_temp_c: 82.0,
            temp_variance: 3.0,
            zone_trips: trips,
            apps: Vec::new(),
        }
    }

    #[test]
    fn empty_aggregator_reports_no_cells() {
        let a = SweepAggregator::new();
        assert_eq!(a.cells(), 0);
        assert_eq!(a.energy_j().mean, 0.0);
        assert!(a.pareto_front().is_empty());
        assert!(a.report().starts_with("sweep: 0 cells"));
    }

    #[test]
    fn best_per_scenario_prefers_trips_then_misses_then_energy() {
        let mut a = SweepAggregator::new();
        a.record(&cell("s", "ondemand", 100.0, 50.0, 2)); // fast+cheap but trips
        a.record(&cell("s", "TEEM", 120.0, 60.0, 0));
        a.record(&cell("s", "EEMP", 110.0, 70.0, 0)); // fewer joules, 0 trips
        let best = &a.best_by_scenario()["s"];
        assert_eq!(best.approach, "EEMP");
        assert_eq!(best.cell, "s");
        assert_eq!(best.zone_trips, 0);
        assert_eq!(a.trips_total(), 2);
    }

    #[test]
    fn knob_tagged_cells_group_under_the_base_scenario() {
        // The sweep engine tags knob variants "base@thr82/d100/...";
        // winners must group by the base name, with the winning knob
        // set readable off the winner's cell name.
        let mut a = SweepAggregator::new();
        a.record(&cell("bursty@thr82/d100", "TEEM", 110.0, 50.0, 0));
        a.record(&cell("bursty@thr85/d200", "TEEM", 100.0, 50.0, 0));
        a.record(&cell("periodic@thr82/d100", "TEEM", 90.0, 40.0, 1));
        assert_eq!(a.best_by_scenario().len(), 2, "two base scenarios");
        let best = &a.best_by_scenario()["bursty"];
        assert_eq!(best.cell, "bursty@thr85/d200", "cheapest zero-trip knob");
        assert!(a.best_by_scenario().contains_key("periodic"));
        assert_eq!(a.cells(), 3, "per-cell stats still count every cell");
    }

    #[test]
    fn pareto_front_keeps_only_non_dominated_cells() {
        let mut a = SweepAggregator::new();
        a.record(&cell("a", "x", 100.0, 50.0, 0));
        a.record(&cell("b", "x", 90.0, 60.0, 0)); // trades energy for time
        a.record(&cell("c", "x", 120.0, 70.0, 1)); // dominated by both
        a.record(&cell("d", "x", 80.0, 40.0, 0)); // dominates a and b
        let front = a.pareto_front();
        assert_eq!(front.len(), 1, "{front:?}");
        assert_eq!(front[0].scenario, "d");
    }

    #[test]
    fn equal_metric_cells_share_the_front() {
        let mut a = SweepAggregator::new();
        a.record(&cell("a", "x", 100.0, 50.0, 0));
        a.record(&cell("b", "y", 100.0, 50.0, 0));
        assert_eq!(a.pareto_front().len(), 2, "neither dominates the other");
    }

    #[test]
    fn aggregate_state_is_arrival_order_invariant() {
        let cells = [
            cell("a", "TEEM", 100.0, 50.0, 0),
            cell("a", "ondemand", 90.0, 45.0, 3),
            cell("b", "TEEM", 200.0, 80.0, 0),
            cell("b", "EEMP", 210.0, 75.0, 0),
            cell("c", "RMP", 150.0, 60.0, 1),
        ];
        let mut forward = SweepAggregator::new();
        for c in &cells {
            forward.record(c);
        }
        let mut reverse = SweepAggregator::new();
        for c in cells.iter().rev() {
            reverse.record(c);
        }
        assert_eq!(forward.cells(), reverse.cells());
        assert_eq!(forward.trips_total(), reverse.trips_total());
        assert_eq!(forward.best_by_scenario(), reverse.best_by_scenario());
        assert_eq!(forward.pareto_front(), reverse.pareto_front());
        assert_eq!(forward.energy_j().min, reverse.energy_j().min);
        assert_eq!(forward.energy_j().max, reverse.energy_j().max);
        assert!((forward.energy_j().mean - reverse.energy_j().mean).abs() < 1e-9);
    }

    #[test]
    fn csv_row_matches_header_arity_and_quotes_names() {
        let header_cols = sweep_csv_header().split(',').count();
        let row = sweep_csv_row(&cell("name \"quoted\"", "TEEM", 100.0, 50.0, 0));
        assert!(row.starts_with("\"name \"\"quoted\"\"\""), "{row}");
        let plain = sweep_csv_row(&cell("plain", "TEEM", 100.0, 50.0, 0));
        assert_eq!(plain.split(',').count(), header_cols);
        assert!(plain.contains(",100,"));
    }

    #[test]
    fn record_cell_and_replay_match_live_record() {
        let summaries = [
            cell("a", "TEEM", 100.0, 50.0, 0),
            cell("a", "ondemand", 90.0, 45.0, 3),
            cell("b", "EEMP", 210.0, 75.0, 0),
        ];
        let mut live = SweepAggregator::new();
        for s in &summaries {
            live.record(s);
        }
        let records: Vec<CellRecord> = summaries
            .iter()
            .enumerate()
            .map(|(i, s)| CellRecord::from_summary(i, s, 0xfeed + i as u64))
            .collect();
        let replayed = SweepAggregator::replay(records.iter());
        assert_eq!(live.cells(), replayed.cells());
        assert_eq!(live.trips_total(), replayed.trips_total());
        assert_eq!(live.misses_total(), replayed.misses_total());
        assert_eq!(live.best_by_scenario(), replayed.best_by_scenario());
        assert_eq!(live.pareto_front(), replayed.pareto_front());
        assert_eq!(live.energy_j().mean, replayed.energy_j().mean);
        assert_eq!(live.peak_temp_c().max, replayed.peak_temp_c().max);
    }

    #[test]
    fn cell_record_flattens_summary_fields() {
        let s = cell("name", "TEEM", 123.0, 45.0, 2);
        let r = CellRecord::from_summary(7, &s, 0xabcd);
        assert_eq!(r.index, 7);
        assert_eq!(r.scenario, "name");
        assert_eq!(r.energy_j, 123.0);
        assert_eq!(r.zone_trips, 2);
        assert_eq!(r.deadline_misses, s.deadline_misses());
        assert_eq!(r.apps_completed, s.apps_completed() as u32);
        assert_eq!(r.trace_digest, 0xabcd);
    }

    #[test]
    fn from_summary_canonicalises_non_finite_to_nan() {
        // A journal round-trip turns non-finite into NaN (JSON null);
        // from_summary must agree bit-for-bit so live-vs-loaded digest
        // and diff comparisons never spuriously mismatch.
        let mut s = cell("name", "TEEM", 123.0, 45.0, 0);
        s.energy_j = f64::INFINITY;
        s.temp_variance = f64::NEG_INFINITY;
        let r = CellRecord::from_summary(0, &s, 1);
        assert_eq!(r.energy_j.to_bits(), f64::NAN.to_bits());
        assert_eq!(r.temp_variance.to_bits(), f64::NAN.to_bits());
        assert_eq!(r.makespan_s, 45.0, "finite values pass through");
    }

    #[test]
    fn report_lists_winners_and_front() {
        let mut a = SweepAggregator::new();
        a.record(&cell("alpha", "TEEM", 100.0, 50.0, 0));
        a.record(&cell("alpha", "ondemand", 90.0, 45.0, 2));
        let r = a.report();
        assert!(r.contains("2 cells"));
        assert!(r.contains("best cell per scenario"));
        assert!(r.contains("alpha"));
        assert!(r.contains("pareto front"));
    }
}
