//! The scenario executor: an event-driven layer over the same
//! time-stepped physics as [`teem_soc::Simulation`], executing a
//! [`Scenario`]'s timeline under one management approach.
//!
//! Differences from the single-run engine, all driven by the timeline:
//!
//! * **Multi-app co-running** — arrivals join a FIFO queue and a
//!   [`MappingArbiter`] decides how many execute concurrently and on
//!   which resources ([`ContentionPolicy`]: serial one-at-a-time as the
//!   paper measures, device-exclusive co-scheduling, or fully shared
//!   clusters). Co-running apps performance-couple through the
//!   shared-memory-bandwidth slowdown model
//!   ([`teem_workload::bandwidth_slowdown`]) and a time-shared GPU;
//!   queueing delay and contention delay are reported separately.
//! * **Idle-gap stepping** — between a completion and the next arrival
//!   the board races to its minimum OPPs, idles there and *cools*; the
//!   thermal state carries across runs instead of being re-warm-started.
//! * **Runtime environment changes** — ambient temperature, default
//!   threshold and management approach can change mid-scenario.
//!
//! Physics is shared with the single-run engine through
//! [`teem_soc::NodePowerModel`], [`teem_soc::ThermalModel::step_frozen`]
//! and [`teem_soc::read_sensors_for`]; with a
//! single active app the co-run power model is the single-app one, so a
//! serial-policy scenario step is bit-identical to the equivalent
//! single-run step — a property pinned by the golden-digest tests. The
//! step loop keeps its power model and each job's progress increments
//! frozen between changes of their inputs, and reuses one
//! [`teem_soc::StepScratch`] (plus pre-sized share/claim buffers), so
//! the steady-state path allocates nothing. It also steps in spans:
//! between timeline events, samples, control ticks and busy-flag flips
//! only the step's tail can act, so each call runs the other phases
//! once and then the tail alone up to the next such instant.
//!
//! The loop body is factored as [`CellSim`] state plus
//! [`ScenarioRunner::prepare_cell`] / [`ScenarioRunner::step_cell`] /
//! [`ScenarioRunner::finish_cell`], so the batched lockstep path
//! (`crate::lockstep`) can suspend a cell at a step boundary, run its
//! phase methods out of band, and hand the cell back to the scalar loop
//! on divergence — all through the *same* code the scalar path runs.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::arbiter::{Admission, ContentionPolicy, MappingArbiter, ResourceClaim};
use crate::event::{ScenarioEvent, TimedEvent};
use crate::scenario::{Scenario, DEFAULT_THRESHOLD_C};
use teem_core::offline::profile_app;
use teem_core::runner::{manager_for, plan_launch, Approach, LaunchPlan};
use teem_core::{AppProfile, ProfileStore, TeemTunables, UserRequirement};
use teem_soc::perf::{cpu_rate, gpu_rate};
use teem_soc::sensors::BIG_CORE_OFFSETS_C;
use teem_soc::{
    clamp_freqs, co_run_dynamic_weights, fast_forward_gap, read_sensors_for, Board, BoardSpec,
    BoardTemplate, ClusterFreqs, CoRunShare, CpuMapping, NodePowerModel, SensorBank,
    SensorReadings, SocControl, SocView, StepObs, StepScratch, ThermalZone, TimeAdvance,
    CONTROL_PERIOD_S, DT_S, SAMPLE_PERIOD_S, WARM_START_FRACTION,
};
use teem_telemetry::{
    ChannelId, LogHistogram, RunSummary, SampleStage, ScenarioAppRun, ScenarioSummary, Trace,
};
use teem_workload::{bandwidth_slowdown, App, KernelCharacteristics, Partition};

/// Everything one scenario execution produced.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario-level metrics plus the per-app runs.
    pub summary: ScenarioSummary,
    /// Recorded channels: the single-run set plus `ambient` and
    /// `queue.depth`.
    pub trace: Trace,
    /// `true` if the scenario hit the executor timeout before the
    /// timeline completed.
    pub timed_out: bool,
    /// Step-loop observability: step, sub-step and gap counts (always
    /// collected) and the per-phase wall-time split (zero unless the
    /// cell ran under [`SweepSpec::run_instrumented`](crate::SweepSpec::run_instrumented)).
    /// Never feeds the summary, trace or digests.
    pub kernel: StepObs,
    /// Lengths (milliseconds) of the idle gaps the event-driven mode
    /// fast-forwarded — empty under [`TimeAdvance::FixedDt`]. Like
    /// [`ScenarioResult::kernel`], pure observability: never feeds the
    /// summary, trace or digests.
    pub gap_len_ms: LogHistogram,
}

/// What scenario runs vary: the executor's options. The integration
/// step, sampling and control periods and warm-start fraction are the
/// same for every run ([`DT_S`], [`SAMPLE_PERIOD_S`],
/// [`CONTROL_PERIOD_S`], [`WARM_START_FRACTION`]), and so is the idle
/// regime: every idle gap races to the minimum OPPs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Abort the scenario after this much simulated time, seconds.
    pub timeout_s: f64,
    /// How the executor's clock advances across idle gaps.
    pub time_advance: TimeAdvance,
}

/// The longest executor timeout, seconds: 2⁵³ ticks of [`DT_S`]
/// (about 9.0e13 s), the last tick index a float clock holds exactly.
const MAX_TIMEOUT_S: f64 = (1u64 << 53) as f64 * DT_S;

/// Rejects a timeout the tick clock cannot reach: one that is not
/// finite and positive, or lies past 2⁵³ ticks ([`MAX_TIMEOUT_S`]).
pub(crate) fn check_timeout(timeout_s: f64) {
    assert!(
        timeout_s.is_finite() && timeout_s > 0.0 && timeout_s <= MAX_TIMEOUT_S,
        "timeout {timeout_s} s must be positive and at most {MAX_TIMEOUT_S} s"
    );
}

impl Default for SimConfig {
    /// A 10 000 s timeout, wide enough for multi-app timelines, and
    /// [`TimeAdvance::FixedDt`].
    fn default() -> Self {
        SimConfig {
            timeout_s: 10_000.0,
            time_advance: TimeAdvance::FixedDt,
        }
    }
}

/// Executes scenarios under one management approach.
///
/// Profiles are computed on demand (once per app, on the ideal board —
/// the same offline pipeline as [`teem_core::runner::run`]) and cached.
/// Pre-populated stores are held behind an [`Arc`] so a batch fan-out
/// shares one store across every worker by reference
/// ([`ScenarioRunner::with_shared_profiles`]) instead of cloning it per
/// matrix cell; on-demand profiles for apps missing from the shared
/// store land in a runner-local overflow cache.
///
/// Every run clones its board from a [`BoardTemplate`] and its empty
/// trace from one with every channel registered. The runner shares the
/// pair the way it shares profiles: a standalone runner builds its own,
/// and the sweep engine hands every cell on a board the pair it built
/// once for that board.
#[derive(Debug)]
pub struct ScenarioRunner {
    approach: Approach,
    config: SimConfig,
    arbiter: MappingArbiter,
    tunables: TeemTunables,
    shared_profiles: Arc<ProfileStore>,
    local_profiles: ProfileStore,
    step_timing: bool,
    template: Arc<CellTemplate>,
}

impl ScenarioRunner {
    /// A runner for `approach` with an empty profile cache.
    pub fn new(approach: Approach) -> Self {
        ScenarioRunner::with_shared_profiles(approach, Arc::new(ProfileStore::new()))
    }

    /// A runner borrowing a shared, read-only profile store — the batch
    /// runner hands every worker the same [`Arc`] so a thousand-cell
    /// matrix holds one store, not a thousand copies.
    pub fn with_shared_profiles(approach: Approach, profiles: Arc<ProfileStore>) -> Self {
        let template = Arc::new(CellTemplate::new(BoardSpec::OdroidXu4));
        ScenarioRunner::with_shared(approach, profiles, template)
    }

    /// A runner borrowing both a shared profile store and a shared cell
    /// template: what the sweep engine hands every cell.
    pub(crate) fn with_shared(
        approach: Approach,
        profiles: Arc<ProfileStore>,
        template: Arc<CellTemplate>,
    ) -> Self {
        ScenarioRunner {
            approach,
            config: SimConfig::default(),
            arbiter: MappingArbiter::new(ContentionPolicy::Serial),
            tunables: TeemTunables::paper(),
            shared_profiles: profiles,
            local_profiles: ProfileStore::new(),
            step_timing: false,
            template,
        }
    }

    /// Selects which board the scenario runs on (the sweep engine's
    /// board axis). The default [`BoardSpec::OdroidXu4`] is the paper's
    /// 4-lump network; [`BoardSpec::ManyNode`] boards carry the same
    /// active silicon in a 16–64-node thermal network.
    pub fn with_board(mut self, board: BoardSpec) -> Self {
        if board != self.board_spec() {
            self.template = Arc::new(CellTemplate::new(board));
        }
        self
    }

    /// The board spec this runner builds cells on.
    pub fn board_spec(&self) -> BoardSpec {
        self.template.board_spec()
    }

    /// Enables wall-clock timing of the step loop's phases (reported in
    /// [`ScenarioResult::kernel`]); [`SweepSpec::run_instrumented`](crate::SweepSpec::run_instrumented)
    /// turns it on for every cell. Off by default: the uninstrumented
    /// loop never reads the clock. This knob is runner state, not
    /// [`SimConfig`], so it can never perturb sweep fingerprints.
    pub(crate) fn with_step_timing(mut self, enabled: bool) -> Self {
        self.step_timing = enabled;
        self
    }

    /// Replaces the executor configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.timeout_s` is not finite and positive, or lies
    /// past 2⁵³ ticks of [`DT_S`] (about 9.0e13 s), where the tick
    /// clock stops being exact.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        check_timeout(config.timeout_s);
        self.config = config;
        self
    }

    /// Sets how co-arriving applications share the board. The default
    /// [`ContentionPolicy::Serial`] reproduces the paper's
    /// one-app-at-a-time usage model bit-for-bit.
    pub fn with_contention(mut self, policy: ContentionPolicy) -> Self {
        self.arbiter = MappingArbiter::new(policy);
        self
    }

    /// Sets TEEM's run-time knobs (δ step, floor, threshold override)
    /// for every launch this runner plans — the sweep engine's knob
    /// axis. The default [`TeemTunables::paper`] is bit-identical to the
    /// pre-knob executor; the other approaches ignore the tunables.
    pub fn with_tunables(mut self, tunables: TeemTunables) -> Self {
        self.tunables = tunables;
        self
    }

    /// The TEEM knob set this runner plans launches with.
    pub fn tunables(&self) -> TeemTunables {
        self.tunables
    }

    /// The approach this runner manages with.
    pub fn approach(&self) -> Approach {
        self.approach
    }

    /// The contention policy this runner co-schedules under.
    pub fn contention(&self) -> ContentionPolicy {
        self.arbiter.policy()
    }

    /// Pre-heats the board toward the first arrival's busy steady state
    /// by [`teem_soc::warm_start`]'s protocol, scaled by
    /// [`WARM_START_FRACTION`]. A timeline (`events`, time-sorted) with
    /// no arrivals warm-starts at the idle equilibrium.
    fn warm_start(
        &mut self,
        board: &mut Board,
        events: &[TimedEvent],
        idle_freqs: ClusterFreqs,
        scratch: &mut StepScratch,
    ) -> Result<(), teem_linreg::LinregError> {
        // Replay threshold/approach changes that precede the first
        // arrival, so the pre-heat plan matches the plan the arrival
        // event itself will derive.
        let mut threshold_c = DEFAULT_THRESHOLD_C;
        let mut approach = self.approach;
        let mut first = None;
        for e in events {
            match e.event {
                ScenarioEvent::Arrival(req) => {
                    first = Some(req);
                    break;
                }
                ScenarioEvent::ThresholdChange { threshold_c: thr } => {
                    threshold_c = thr;
                }
                ScenarioEvent::ApproachChange { approach: a } => {
                    approach = a;
                }
                ScenarioEvent::AmbientChange { .. } => {}
            }
        }
        let (load, fraction) = match first {
            Some(req) => {
                let profile = self.profile_for(req.app)?;
                let treq_s = req.treq_factor * profile.et_gpu_s;
                let thr = req.threshold_c.unwrap_or(threshold_c);
                let ureq = UserRequirement::new(treq_s, thr);
                // The plan is deterministic; the arrival event re-derives
                // the identical one when it fires.
                let plan = plan_launch(
                    req.app,
                    approach,
                    &ureq,
                    Some(&profile),
                    None,
                    None,
                    &self.tunables,
                );
                let load = NodePowerModel::single_app(
                    board,
                    plan.mapping,
                    clamp_freqs(board, plan.initial),
                    plan.partition.cpu_fraction() > 0.0,
                    true,
                    req.app.characteristics().activity,
                );
                (load, WARM_START_FRACTION)
            }
            None => (NodePowerModel::idle(board, idle_freqs), 1.0),
        };
        teem_soc::warm_start(board, &load, fraction, scratch);
        Ok(())
    }

    fn profile_for(&mut self, app: App) -> Result<teem_core::AppProfile, teem_linreg::LinregError> {
        if let Some(p) = self.shared_profiles.get(app) {
            return Ok(*p);
        }
        if let Some(p) = self.local_profiles.get(app) {
            return Ok(*p);
        }
        let p = profile_app(&Board::odroid_xu4_ideal(), app)?;
        self.local_profiles.insert(app, p);
        Ok(p)
    }

    /// Executes `scenario` to completion on a fresh board.
    ///
    /// # Errors
    ///
    /// Propagates a profiling (regression) failure for an arriving app.
    pub fn run(&mut self, scenario: &Scenario) -> Result<ScenarioResult, teem_linreg::LinregError> {
        let mut sim = self.prepare_cell(
            scenario,
            scenario.name(),
            None,
            None,
            CellBuffers::default(),
        )?;
        while self.step_cell(&mut sim, true)? {}
        Ok(self.finish_cell(sim).0)
    }

    /// Builds the suspended simulation state for `scenario` renamed to
    /// `name`, with `threshold_c` as its initial default threshold
    /// ([`Scenario::with_initial_threshold`]'s semantics) and
    /// `ambient_c` as its initial ambient when given: from the runner's
    /// [`CellTemplate`], a board at that ambient with a fresh sensor
    /// stream, warm-started, and an empty trace with every channel
    /// registered; the sorted timeline and the step buffers, taken from
    /// `buffers` — everything [`ScenarioRunner::run`] used to set up
    /// before its loop. The returned [`CellSim`] is positioned exactly
    /// at the first step boundary.
    ///
    /// Every buffer of `buffers` is cleared, or cleared and sized for
    /// this cell's board, before use, so a set a finished cell handed
    /// back ([`ScenarioRunner::finish_cell`]) carries only its
    /// allocations into this cell, never its contents.
    ///
    /// # Errors
    ///
    /// Propagates a profiling (regression) failure for the warm-start
    /// plan's app.
    pub(crate) fn prepare_cell(
        &mut self,
        scenario: &Scenario,
        name: &str,
        threshold_c: Option<f64>,
        ambient_c: Option<f64>,
        buffers: CellBuffers,
    ) -> Result<CellSim, teem_linreg::LinregError> {
        let CellBuffers {
            mut scratch,
            mut gap_energy,
            mut events,
            mut queue,
            mut active,
            mut shares,
            mut power_shares,
            mut claims,
            mut weights,
            mut stage,
        } = buffers;
        let mut board = self.template.board.instantiate(
            ambient_c.unwrap_or(scenario.initial_ambient_c()),
            SensorBank::tmu_like(42),
        );
        scenario.sorted_events_into(threshold_c, &mut events);
        scratch.reset_for(&board);
        scratch.obs.enabled = self.step_timing;

        // Warm start, matching the single-run engine's back-to-back
        // measurement protocol: the device was busy before the scenario
        // began, so it starts near the first workload's (thermally
        // managed) operating point rather than at a cold idle
        // equilibrium the paper's runs never see, scaled by
        // `WARM_START_FRACTION`.
        let idle_freqs = ClusterFreqs::min_of(&board);
        self.warm_start(&mut board, &events, idle_freqs, &mut scratch)?;

        // The scenario ends at the last completion: environment events
        // scheduled after the final arrival has completed are not
        // simulated (they could only dilate makespan with idle time).
        let arrivals_end = events
            .iter()
            .rposition(|e| matches!(e.event, ScenarioEvent::Arrival(_)))
            .map_or(0, |i| i + 1);
        let capacity = self.arbiter.capacity();
        // Reusable step buffers and pre-created trace channels: the step
        // loop is the batch sweep's hot path and must not allocate on
        // its steady-state path (the share/claim buffers are pre-sized
        // to the arbiter's capacity).
        gap_energy.clear();
        gap_energy.resize(board.thermal.len(), 0.0);
        queue.clear();
        for v in [&mut shares, &mut power_shares] {
            v.clear();
            v.reserve(capacity);
        }
        active.clear();
        active.reserve(capacity);
        claims.clear();
        claims.reserve(capacity);
        weights.clear();
        weights.reserve(capacity);
        stage.clone_from(&self.template.stage);
        // What the arbiter may hand out: this board's cluster sizes.
        let cluster_cores = CpuMapping::new(board.little_power.cores, board.big_power.cores);
        let effective = idle_freqs;
        let readings = read_sensors_for(&mut board, CpuMapping::new(0, 0), effective, false, 1.0);
        // The empty board's model: valid for its key until an input moves.
        let power = NodePowerModel::idle(&board, effective);

        Ok(CellSim {
            scenario_name: name.to_string(),
            board,
            idle_freqs,
            events,
            arrivals_end,
            next_ev: 0,
            queue,
            capacity,
            active,
            zone: ThermalZone::stock_xu4(),
            zone_trips: 0,
            timeout_s: self.config.timeout_s,
            event_driven: self.config.time_advance == TimeAdvance::EventDriven,
            step_idx: 0,
            t: 0.0,
            next_sample: 0.0,
            effective,
            gap_hist: LogHistogram::new(),
            gap_energy_scratch: gap_energy,
            scratch,
            power,
            power_key: effective,
            power_shares,
            shares,
            claims,
            weights,
            cluster_cores,
            trace: self.template.trace.clone(),
            ids: self.template.ids,
            stage,
            busy_s: 0.0,
            overlap_s: 0.0,
            idle_s: 0.0,
            energy_j: 0.0,
            idle_energy_j: 0.0,
            last_total_w: 0.0,
            completed: Vec::new(),
            threshold_c: DEFAULT_THRESHOLD_C,
            approach: self.approach,
            timed_out: false,
            readings,
        })
    }

    /// Executes one iteration of the scenario step loop — timeline
    /// events, launches, termination checks, sensing, gap fast-forward,
    /// control, actuation, then the step's tail (progress, power,
    /// thermal, energy, clock and completions), in that order. Returns
    /// `Ok(false)` when the loop is finished (timeline complete or timed
    /// out) and the cell should be handed to
    /// [`ScenarioRunner::finish_cell`].
    ///
    /// With `span` set, the tail then repeats through every following
    /// step at which none of the phases before it can act
    /// ([`CellSim::span_end_tick`]), and the span ends after the step
    /// whose progress flips a busy flag. Each skipped phase is a no-op
    /// at those steps by its own guard, so a span leaves exactly the
    /// bits single steps would. The lockstep warm-up passes `false`, so
    /// a cell reaches lane admission on the same step either way.
    ///
    /// # Errors
    ///
    /// Propagates a profiling (regression) failure for an arriving app.
    pub(crate) fn step_cell(
        &mut self,
        sim: &mut CellSim,
        span: bool,
    ) -> Result<bool, teem_linreg::LinregError> {
        // --- Timeline events due at this instant ---
        while sim.next_ev < sim.events.len() && sim.events[sim.next_ev].at_s <= sim.t + 1e-9 {
            let ev = sim.events[sim.next_ev];
            match ev.event {
                ScenarioEvent::Arrival(req) => {
                    let profile = self.profile_for(req.app)?;
                    let treq_s = req.treq_factor * profile.et_gpu_s;
                    let thr = req.threshold_c.unwrap_or(sim.threshold_c);
                    let ureq = UserRequirement::new(treq_s, thr);
                    let plan = plan_launch(
                        req.app,
                        sim.approach,
                        &ureq,
                        Some(&profile),
                        None,
                        None,
                        &self.tunables,
                    );
                    sim.queue.push_back(QueuedJob {
                        app: req.app,
                        arrived_s: ev.at_s,
                        treq_s,
                        approach: sim.approach,
                        ureq,
                        profile,
                        plan,
                    });
                }
                ScenarioEvent::AmbientChange { ambient_c } => {
                    sim.board.thermal.set_ambient_c(ambient_c);
                }
                ScenarioEvent::ThresholdChange { threshold_c: thr } => {
                    sim.threshold_c = thr;
                }
                ScenarioEvent::ApproachChange { approach: a } => {
                    sim.approach = a;
                }
            }
            sim.next_ev += 1;
        }

        // --- Launch queued apps onto free resources (arbiter) ---
        while sim.active.len() < sim.capacity {
            let Some(front) = sim.queue.front() else {
                break;
            };
            sim.claims.clear();
            sim.claims.extend(sim.active.iter().map(|j| ResourceClaim {
                mapping: j.mapping,
                cpu_fraction: j.partition.cpu_fraction(),
            }));
            let admission = self.arbiter.admit(
                &sim.claims,
                front.plan.mapping,
                front.plan.partition,
                sim.cluster_cores,
            );
            match admission {
                Admission::Defer => break,
                Admission::Launch { mapping } => {
                    let q = sim.queue.pop_front().expect("front exists");
                    let manager = manager_for(q.approach, &q.ureq, &q.plan, &self.tunables);
                    let initial = clamp_freqs(&sim.board, q.plan.initial);
                    let partition = q.plan.partition;
                    sim.active.push(ActiveJob::launch(
                        q,
                        mapping,
                        partition,
                        initial,
                        manager,
                        sim.t,
                        &sim.readings,
                    ));
                }
                Admission::Replan { mapping, partition } => {
                    let q = sim.queue.pop_front().expect("front exists");
                    let plan = plan_launch(
                        q.app,
                        q.approach,
                        &q.ureq,
                        Some(&q.profile),
                        Some(mapping),
                        Some(partition),
                        &self.tunables,
                    );
                    let manager = manager_for(q.approach, &q.ureq, &plan, &self.tunables);
                    let initial = clamp_freqs(&sim.board, plan.initial);
                    sim.active.push(ActiveJob::launch(
                        q,
                        plan.mapping,
                        plan.partition,
                        initial,
                        manager,
                        sim.t,
                        &sim.readings,
                    ));
                }
            }
        }

        // --- Termination: every arrival admitted and completed ---
        if sim.active.is_empty() && sim.queue.is_empty() && sim.next_ev >= sim.arrivals_end {
            return Ok(false);
        }
        if sim.t >= sim.timeout_s {
            sim.timed_out = true;
            return Ok(false);
        }

        // --- Sensing (trace cadence) ---
        if sim.t + 1e-12 >= sim.next_sample {
            sim.phase_sample();
        }

        // --- Gap fast-forward (event-driven mode only): the active
        //     set and queue are empty, so nothing can change before
        //     the next timeline event — advance the thermal network
        //     across the whole gap in closed form instead of
        //     stepping through it. `next_ev < events.len()` rather
        //     than `< arrivals_end`: a gap can end at an
        //     environment event as well as an arrival ---
        if sim.event_driven
            && sim.active.is_empty()
            && sim.queue.is_empty()
            && sim.next_ev < sim.events.len()
        {
            let event_tick = first_tick_at_or_after(sim.events[sim.next_ev].at_s, 1e-9);
            let timeout_tick = first_tick_at_or_after(sim.timeout_s, 0.0);
            let end_tick = event_tick.min(timeout_tick);
            if end_tick > sim.step_idx {
                // The fixed-dt loop races idle gaps to the idle
                // floor every tick; pin that before fast-forwarding
                // so the gap power and the post-gap samples see it.
                sim.effective = sim.idle_freqs;
                // Zone bookkeeping for the gap-start tick (a hot
                // board can trip the zone the instant it idles);
                // inside the gap temperatures only decay, so no
                // further trip is possible and the step-wise
                // release is caught up after the jump.
                if sim.zone.actuate(
                    sim.t,
                    gap_max_temp_estimate(&sim.board),
                    &sim.board.big_opps,
                    &mut sim.effective.big,
                ) {
                    sim.zone_trips += 1;
                }

                let span_s = (end_tick - sim.step_idx) as f64 * DT_S;
                let ambient = sim.board.thermal.ambient_c();
                let gap = fast_forward_gap(
                    &mut sim.board,
                    sim.effective,
                    span_s,
                    ambient,
                    &mut sim.scratch,
                    &mut sim.gap_energy_scratch,
                );
                sim.energy_j += gap.energy_j;
                sim.idle_energy_j += gap.energy_j;
                sim.idle_s += span_s;
                // The last segment's frozen power is what a sample
                // at the gap's end reports as the instantaneous draw.
                sim.last_total_w = sim.scratch.power.iter().sum();
                sim.scratch.obs.gaps_skipped += 1;
                sim.scratch.obs.gap_fastforward_s += span_s;
                sim.gap_hist.record((span_s * 1e3).round() as u64);

                // Jump the clock to the horizon tick.
                sim.step_idx = end_tick;
                sim.t = sim.step_idx as f64 * DT_S;
                // The gap is one trace span, not one point per
                // sample period: record it on its own pre-registered
                // channel (empty channels are digest-invisible, so
                // gap-free runs keep their digests) and realign the
                // sample grid past the horizon, skipping the sensor
                // reads the fixed-dt path would have taken at the
                // boundaries in between so the noise stream stays
                // aligned.
                sim.trace.record_id(sim.ids.gap_fastforward, sim.t, span_s);
                if sim.next_sample < sim.t - 1e-12 {
                    let n =
                        ((sim.t - 1e-12 - sim.next_sample) / SAMPLE_PERIOD_S).floor() as u64 + 1;
                    sim.board.sensors.skip_reads(n);
                    sim.next_sample += n as f64 * SAMPLE_PERIOD_S;
                }
                // Step-wise zone release across the gap, replayed at
                // the zone's own poll cadence from the gap start with
                // the cooled temperatures — O(release ladder), not
                // O(gap).
                sim.zone
                    .catch_up(sim.t - span_s, sim.t, gap_max_temp_estimate(&sim.board));
                return Ok(true);
            }
        }

        // --- Manager control (per app; idle gaps race to the
        //     minimum OPPs) ---
        let obs_t0 = sim.scratch.obs.clock();
        sim.phase_control();

        // --- Board-wide actuation: one frequency per cluster,
        //     arbitrated across the co-running apps' requests, with
        //     the reactive thermal zone (kernel layer) always armed
        //     on top ---
        sim.phase_actuate();
        sim.scratch.obs.lap_control(obs_t0);

        // --- The span: this step's tail, then every following step
        //     at which no phase above can act, up to the next due
        //     instant or the first busy-flag flip. The progress terms
        //     hold for the whole span ---
        let end_tick = if span {
            sim.span_end_tick()
        } else {
            sim.step_idx + 1
        };
        let co_running = sim.progress_terms();
        let mut first = true;
        loop {
            let flipped = sim.step_tail(co_running, first);
            if flipped || sim.step_idx >= end_tick {
                break;
            }
            first = false;
        }

        Ok(true)
    }

    /// Closes out a finished cell: final trace sample, summary
    /// statistics, result assembly — everything [`ScenarioRunner::run`]
    /// used to do after its loop. Returns the cell's buffers beside the
    /// result, for the next cell [`ScenarioRunner::prepare_cell`]
    /// builds.
    pub(crate) fn finish_cell(&self, mut sim: CellSim) -> (ScenarioResult, CellBuffers) {
        // Drain staged samples before the closing records touch the
        // same channels (per-channel time order must hold), then take
        // the final sample that closes the trace.
        sim.flush_samples();
        let final_readings = read_sensors_for(
            &mut sim.board,
            CpuMapping::new(0, 0),
            sim.effective,
            false,
            1.0,
        );
        sim.trace
            .record_id(sim.ids.temp_max, sim.t, final_readings.max_c());
        sim.trace
            .record_id(sim.ids.freq_big, sim.t, sim.effective.big.0 as f64);
        debug_assert_eq!(
            sim.trace.late_channel_creates(),
            0,
            "every scenario channel is pre-registered; the allocating \
             record fallback must never fire"
        );

        let temp_stats = sim
            .trace
            .stats("temp.max")
            .expect("temp.max always recorded");
        let summary = ScenarioSummary {
            scenario: sim.scenario_name,
            approach: self.approach.name().to_string(),
            makespan_s: sim.t,
            busy_s: sim.busy_s,
            overlap_s: sim.overlap_s,
            idle_s: sim.idle_s,
            energy_j: sim.energy_j,
            idle_energy_j: sim.idle_energy_j,
            peak_temp_c: temp_stats.max(),
            avg_temp_c: temp_stats.mean(),
            temp_variance: temp_stats.variance(),
            zone_trips: sim.zone_trips,
            apps: sim.completed,
        };
        let result = ScenarioResult {
            summary,
            trace: sim.trace,
            timed_out: sim.timed_out,
            kernel: sim.scratch.obs,
            gap_len_ms: sim.gap_hist,
        };
        let buffers = CellBuffers {
            scratch: sim.scratch,
            gap_energy: sim.gap_energy_scratch,
            events: sim.events,
            queue: sim.queue,
            active: sim.active,
            shares: sim.shares,
            power_shares: sim.power_shares,
            claims: sim.claims,
            weights: sim.weights,
            stage: sim.stage,
        };
        (result, buffers)
    }
}

/// One cell's scratch buffers: the step scratch and the gap-energy
/// vector, the sorted timeline and the queue, the active set with its
/// share, claim and weight vectors, and the sample stage.
///
/// [`ScenarioRunner::finish_cell`] hands them back beside the result,
/// and a sweep worker passes them to the next cell it starts, so a cell
/// reuses its predecessor's allocations instead of freeing and
/// requesting them again. A default set holds no allocation; that is
/// what [`ScenarioRunner::run`] passes.
#[derive(Default)]
pub(crate) struct CellBuffers {
    scratch: StepScratch,
    gap_energy: Vec<f64>,
    events: Vec<TimedEvent>,
    queue: VecDeque<QueuedJob>,
    active: Vec<ActiveJob>,
    shares: Vec<CoRunShare>,
    power_shares: Vec<CoRunShare>,
    claims: Vec<ResourceClaim>,
    weights: Vec<f64>,
    stage: SampleStage,
}

/// What every run on one board starts from, built once: the
/// [`BoardTemplate`], and the scenario trace with every channel
/// registered and its ids resolved. A sweep builds one per board on its
/// board axis and hands it to every cell on that board; a standalone
/// runner builds its own. A cell clones both, so its set-up rebuilds
/// neither the board nor the channel map.
#[derive(Debug)]
pub(crate) struct CellTemplate {
    board: BoardTemplate,
    trace: Trace,
    ids: TraceIds,
    stage: SampleStage,
}

impl CellTemplate {
    pub(crate) fn new(board: BoardSpec) -> Self {
        // Every channel a run can touch is pre-registered here —
        // including gap telemetry, which only gap-y runs record (empty
        // channels are digest-invisible, so gap-free digests hold) —
        // and finish_cell asserts the allocating record fallback never
        // fired. The sampled channels also get a sample-major stage:
        // one contiguous row per sample instead of nine scattered
        // per-channel appends.
        let trace = Trace::with_channels(ALL_SCENARIO_TRACE_CHANNELS);
        let ids = TraceIds::resolve(&trace);
        let stage = SampleStage::for_channels(&trace, SCENARIO_TRACE_CHANNELS);
        CellTemplate {
            board: BoardTemplate::new(board),
            trace,
            ids,
            stage,
        }
    }

    /// The board this template's runs simulate on.
    pub(crate) fn board_spec(&self) -> BoardSpec {
        self.board.spec()
    }
}

/// Pre-resolved [`ChannelId`]s for the scenario trace channels recorded
/// outside the sample stage — resolved once per [`CellTemplate`] and
/// recorded through thereafter, so no name lookup (and no allocating
/// late-channel fallback) ever runs in the hot loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceIds {
    temp_max: ChannelId,
    freq_big: ChannelId,
    gap_fastforward: ChannelId,
}

impl TraceIds {
    /// Resolves the scenario channel set against `trace`, which must
    /// have been created with [`Trace::with_channels`] over
    /// [`ALL_SCENARIO_TRACE_CHANNELS`] (as every [`CellSim`] trace's
    /// template is).
    pub(crate) fn resolve(trace: &Trace) -> TraceIds {
        let id = |name: &str| {
            trace
                .channel_id(name)
                .expect("scenario channel pre-created")
        };
        TraceIds {
            temp_max: id("temp.max"),
            freq_big: id("freq.big"),
            gap_fastforward: id("gap.fastforward_s"),
        }
    }
}

/// One scenario execution suspended at a step boundary: the board, the
/// timeline cursor, the active/queued jobs, the accumulators and the
/// reusable step buffers that used to live as locals of
/// [`ScenarioRunner::run`]'s loop.
///
/// Driven by [`ScenarioRunner::step_cell`] one full iteration at a time
/// (the scalar path), or phase-by-phase through the `phase_*` methods
/// (the batched lockstep path, which interleaves K cells between
/// phases). Either way the code executing each phase is the same, which
/// is what makes batched-vs-scalar bit-identity provable rather than
/// approximate.
pub(crate) struct CellSim {
    pub(crate) scenario_name: String,
    pub(crate) board: Board,
    pub(crate) idle_freqs: ClusterFreqs,
    pub(crate) events: Vec<TimedEvent>,
    pub(crate) arrivals_end: usize,
    pub(crate) next_ev: usize,
    pub(crate) queue: VecDeque<QueuedJob>,
    pub(crate) capacity: usize,
    pub(crate) active: Vec<ActiveJob>,
    pub(crate) zone: ThermalZone,
    pub(crate) zone_trips: u32,
    /// Copied out of [`SimConfig`] at prepare time so phase methods and
    /// the lockstep pool never need the runner.
    pub(crate) timeout_s: f64,
    pub(crate) event_driven: bool,
    /// The clock is derived from the step index (`t = step_idx · DT_S`),
    /// never accumulated (`t += dt`), so week-long timelines cannot
    /// smear event boundaries with float-accumulation drift. Gap
    /// fast-forwards jump the index, keeping both modes on the same
    /// tick grid.
    pub(crate) step_idx: u64,
    pub(crate) t: f64,
    pub(crate) next_sample: f64,
    pub(crate) effective: ClusterFreqs,
    pub(crate) gap_hist: LogHistogram,
    pub(crate) gap_energy_scratch: Vec<f64>,
    pub(crate) scratch: StepScratch,
    /// The step loop's power model, valid while `power_key` (the
    /// effective frequencies) and `power_shares` match the step's
    /// inputs; see [`CellSim::refresh_power`].
    pub(crate) power: NodePowerModel,
    pub(crate) power_key: ClusterFreqs,
    pub(crate) power_shares: Vec<CoRunShare>,
    pub(crate) shares: Vec<CoRunShare>,
    pub(crate) claims: Vec<ResourceClaim>,
    /// Co-run energy attribution weights, derived with `power`.
    pub(crate) weights: Vec<f64>,
    pub(crate) cluster_cores: CpuMapping,
    pub(crate) trace: Trace,
    /// Channel ids resolved once at prepare; all mid-run recording goes
    /// through these (no name lookups in the hot loop).
    pub(crate) ids: TraceIds,
    /// Sample-major staging buffer for the nine sampled channels; one
    /// contiguous row per sample, drained by [`CellSim::flush_samples`].
    pub(crate) stage: SampleStage,
    pub(crate) busy_s: f64,
    pub(crate) overlap_s: f64,
    pub(crate) idle_s: f64,
    pub(crate) energy_j: f64,
    pub(crate) idle_energy_j: f64,
    pub(crate) last_total_w: f64,
    pub(crate) completed: Vec<ScenarioAppRun>,
    pub(crate) threshold_c: f64,
    pub(crate) approach: Approach,
    pub(crate) timed_out: bool,
    pub(crate) readings: SensorReadings,
}

impl CellSim {
    /// Brings the power model up to date with this step's inputs: the
    /// effective frequencies and `shares`. Between control decisions
    /// neither moves, so the model — and, with two or more apps
    /// co-running, the dynamic-power attribution weights derived from
    /// the same inputs — is rebuilt only when one does, and the step
    /// pays only the leakage exponentials.
    fn refresh_power(&mut self) {
        if self.effective == self.power_key && self.shares == self.power_shares {
            return;
        }
        self.power = NodePowerModel::co_run(&self.board, &self.shares, self.effective);
        if self.shares.len() >= 2 {
            co_run_dynamic_weights(&self.board, &self.shares, self.effective, &mut self.weights);
        }
        self.power_key = self.effective;
        self.power_shares.clone_from(&self.shares);
    }

    /// The first tick after this one at which a phase before the step
    /// tail can act: the next timeline event, sample, control tick,
    /// step of a releasing zone's cap or the timeout, each found by its
    /// phase's own predicate.
    ///
    /// Until then every other phase is a no-op: the launch loop's
    /// inputs are unchanged ([`MappingArbiter::admit`] takes `&self`, so
    /// a deferred queue stays deferred), the termination check's too,
    /// `arbitrate_freqs` reads the same requests and busy flags, and
    /// the zone, polled with the same reading (it moves only at a
    /// sample), recomputes the same cap: idle below its trip, holding
    /// one, or releasing with its next step not yet due
    /// ([`ThermalZone::release_due`]). With no app active the gap
    /// fast-forward, where it is on, has already taken the step.
    fn span_end_tick(&self) -> u64 {
        let mut end = first_tick_at_or_after(self.next_sample, 1e-12)
            .min(first_tick_at_or_after(self.timeout_s, 0.0));
        if let Some(ev) = self.events.get(self.next_ev) {
            end = end.min(first_tick_at_or_after(ev.at_s, 1e-9));
        }
        for j in &self.active {
            end = end.min(first_tick_at_or_after(j.next_control, 1e-12));
        }
        if let Some(due_s) = self.zone.next_release_s() {
            end = end.min(first_tick_past((due_s / DT_S).ceil(), |t| {
                !self.zone.release_due(t)
            }));
        }
        end
    }

    /// Derives the progress phase's per-step terms from the active set
    /// and the effective frequencies: each job's bandwidth slowdown,
    /// progress increments and contention delay, with the GPU
    /// time-shared by the jobs still busy on it. They hold until a busy
    /// flag flips or an event phase acts. Returns whether two or more
    /// apps co-run.
    fn progress_terms(&mut self) -> bool {
        let total_pressure: f64 = self.active.iter().map(|j| j.chars.mem_sensitivity).sum();
        let gpu_sharers = self.active.iter().filter(|j| !j.gpu_done()).count().max(1) as f64;
        for j in self.active.iter_mut() {
            let s = bandwidth_slowdown(
                j.chars.mem_sensitivity,
                total_pressure - j.chars.mem_sensitivity,
            );
            j.increments(self.effective, s, gpu_sharers);
            j.delay_s = DT_S * (1.0 - 1.0 / s);
        }
        self.active.len() >= 2
    }

    /// One step's tail: workload progress (slowed by shared-bandwidth
    /// contention; the GPU is time-shared), the power model, the fused
    /// power and thermal step, energy accounting, the clock and
    /// completions. Returns `true` when progress flipped a busy flag.
    ///
    /// The shares, the power model with its attribution weights, and
    /// the completions are brought up to date only on a span's `first`
    /// step and on a flip. Their inputs are the active set, its busy
    /// flags and the effective frequencies, and within a span only a
    /// flip moves any of them, so every other step would rebuild the
    /// same shares, find the model current and retire no job.
    fn step_tail(&mut self, co_running: bool, first: bool) -> bool {
        let mut flipped = false;
        for j in self.active.iter_mut() {
            let (cpu_busy, gpu_busy) = (!j.cpu_done(), !j.gpu_done());
            if cpu_busy && !j.mapping.is_empty() {
                j.cpu_done_items += j.inc.0;
            }
            if gpu_busy {
                j.gpu_done_items += j.inc.1;
            }
            if co_running {
                j.co_run_s += DT_S;
                j.contention_delay_s += j.delay_s;
            }
            // Done counters only grow: a flag can only flip busy → done.
            flipped |= (cpu_busy && j.cpu_done()) || (gpu_busy && j.gpu_done());
        }

        // --- Power & thermal (shared model, N active apps superposed
        //     per domain; one fused step at the step-start
        //     temperatures, which also leaves the step's power vector
        //     in the reusable scratch for the accounting) ---
        let refresh = first || flipped;
        if refresh {
            let obs_t0 = self.scratch.obs.clock();
            self.shares.clear();
            self.shares.extend(self.active.iter().map(|j| CoRunShare {
                mapping: j.mapping,
                cpu_busy: !j.cpu_done(),
                gpu_busy: !j.gpu_done(),
                activity: j.chars.activity,
            }));
            self.refresh_power();
            self.scratch.obs.lap_power(obs_t0);
        }
        let obs_t0 = self.scratch.obs.clock();
        let substeps = self
            .board
            .thermal
            .step_frozen(DT_S, &self.power, &mut self.scratch.power);
        self.scratch.obs.lap_thermal(obs_t0);
        let total: f64 = self.scratch.power.iter().sum();
        self.energy_j += total * DT_S;
        if self.active.is_empty() {
            self.idle_energy_j += total * DT_S;
            self.idle_s += DT_S;
        } else if co_running {
            self.busy_s += DT_S;
            self.overlap_s += DT_S;
            // Attribute this step's energy by each app's dynamic-power
            // weight — the draw it causes — rather than an equal split
            // that would overcharge a stalled memory-bound app for its
            // compute-heavy co-runner. Shared overheads (leakage,
            // uncore, board) follow the weights proportionally. The
            // weights were derived with this step's power model.
            let wsum: f64 = self.weights.iter().sum();
            if wsum > 0.0 {
                let step_j = total * DT_S;
                for (j, w) in self.active.iter_mut().zip(self.weights.iter()) {
                    j.energy_j += step_j * w / wsum;
                }
            } else {
                // Every share idle on every device: nothing to key on.
                let share_j = total * DT_S / self.active.len() as f64;
                for j in self.active.iter_mut() {
                    j.energy_j += share_j;
                }
            }
        } else {
            self.busy_s += DT_S;
            self.active[0].energy_j += total * DT_S;
        }
        self.last_total_w = total;
        self.scratch.obs.steps += 1;
        self.scratch.obs.substeps += u64::from(substeps);
        self.step_idx += 1;
        self.t = self.step_idx as f64 * DT_S;

        // --- Completions: free the resources, in completion order ---
        if refresh {
            self.phase_completions();
        }
        flipped
    }

    /// The sensing phase: reads the sensor bank, then records the row
    /// and advances the sample grid through [`CellSim::record_sample`].
    pub(crate) fn phase_sample(&mut self) {
        let obs_t0 = self.scratch.obs.clock();
        self.readings = if self.active.is_empty() {
            read_sensors_for(
                &mut self.board,
                CpuMapping::new(0, 0),
                self.effective,
                false,
                1.0,
            )
        } else {
            read_sensors_for(
                &mut self.board,
                combined_mapping(&self.active, self.cluster_cores),
                self.effective,
                self.active.iter().any(|j| !j.cpu_done()),
                self.active
                    .iter()
                    .map(|j| j.chars.activity)
                    .fold(f64::MIN, f64::max),
            )
        };
        self.scratch.obs.lap_sample(obs_t0);
        self.record_sample();
    }

    /// Records one sample row for the current `readings`/`t`, feeds the
    /// per-job statistics and advances the sample grid — the back half
    /// of [`CellSim::phase_sample`], shared by the lockstep hot-sample
    /// path (which supplies lane-resident readings and skips the board
    /// round-trip). One contiguous row push into the sample-major
    /// stage, flushed to the per-channel trace whenever it fills.
    pub(crate) fn record_sample(&mut self) {
        let depth = (self.queue.len() + self.active.len()) as f64;
        let obs_t0 = self.scratch.obs.clock();
        self.stage.push(
            self.t,
            &[
                self.readings.max_c(),
                self.readings.big_max_c(),
                self.readings.gpu_c,
                self.effective.big.0 as f64,
                self.effective.little.0 as f64,
                self.effective.gpu.0 as f64,
                self.last_total_w,
                self.board.thermal.ambient_c(),
                depth,
            ],
        );
        if self.stage.is_full() {
            self.trace.flush_stage(&mut self.stage);
        }
        self.scratch.obs.lap_trace(obs_t0);
        for j in self.active.iter_mut() {
            j.observe(&self.readings, self.effective);
        }
        self.next_sample += SAMPLE_PERIOD_S;
    }

    /// Drains the staged sample rows into the trace (no-op when
    /// empty). Must run before any direct record into a sampled
    /// channel — finish, and any other boundary that closes the trace.
    pub(crate) fn flush_samples(&mut self) {
        if !self.stage.is_empty() {
            self.trace.flush_stage(&mut self.stage);
        }
    }

    /// The per-app manager control phase: builds each due job's
    /// [`SocView`], runs its manager and quantises the requests onto the
    /// board's OPP tables.
    pub(crate) fn phase_control(&mut self) {
        for j in self.active.iter_mut() {
            if self.t + 1e-12 >= j.next_control {
                let view = SocView {
                    time_s: self.t,
                    readings: self.readings,
                    freqs: self.effective,
                    cpu_progress: progress(j.cpu_done_items, j.cpu_items),
                    gpu_progress: progress(j.gpu_done_items, j.gpu_items),
                    big_util: if j.cpu_done() || j.mapping.big == 0 {
                        0.05
                    } else {
                        1.0
                    },
                    power_w: self.last_total_w,
                    mapping: j.mapping,
                    partition: j.partition,
                };
                let mut ctl = SocControl::default();
                j.manager.control(&view, &mut ctl);
                ctl.apply(&self.board, &mut j.desired);
                j.next_control += CONTROL_PERIOD_S;
            }
        }
    }

    /// The board-wide actuation phase: arbitrates one frequency per
    /// cluster across the active apps' requests, with the reactive
    /// thermal zone (kernel layer) armed on top.
    pub(crate) fn phase_actuate(&mut self) {
        self.effective = arbitrate_freqs(&self.active, self.idle_freqs);
        if self.zone.actuate(
            self.t,
            self.readings.max_c(),
            &self.board.big_opps,
            &mut self.effective.big,
        ) {
            self.zone_trips += 1;
        }
    }

    /// The completion phase: retires done jobs in completion order.
    pub(crate) fn phase_completions(&mut self) {
        if self.active.iter().any(ActiveJob::done) {
            let mut i = 0;
            while i < self.active.len() {
                if self.active[i].done() {
                    let job = self.active.remove(i);
                    self.completed.push(job.finish(self.t));
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// The trace channels a scenario run records — the single-run set plus
/// `ambient` and `queue.depth` — pre-created so the sampling path never
/// inserts (and so never allocates a key) mid-run.
const SCENARIO_TRACE_CHANNELS: &[&str] = &[
    "temp.max",
    "temp.big",
    "temp.gpu",
    "freq.big",
    "freq.little",
    "freq.gpu",
    "power.total",
    "ambient",
    "queue.depth",
];

/// Every channel a scenario run can touch: the nine sampled channels
/// plus the gap-telemetry channel the event-driven executor records one
/// span per fast-forwarded gap on. Pre-registering the full set means
/// no [`Trace::record`] call can ever hit the allocating late-creation
/// fallback mid-run (asserted at finish); empty channels are
/// digest-invisible, so gap-free runs keep their pinned digests.
const ALL_SCENARIO_TRACE_CHANNELS: &[&str] = &[
    "temp.max",
    "temp.big",
    "temp.gpu",
    "freq.big",
    "freq.little",
    "freq.gpu",
    "power.total",
    "ambient",
    "queue.depth",
    "gap.fastforward_s",
];

/// The union of the active apps' core grants (the arbiter keeps them
/// disjoint, so the sums cannot exceed the clusters), for board-global
/// sensing.
pub(crate) fn combined_mapping(active: &[ActiveJob], cluster_cores: CpuMapping) -> CpuMapping {
    CpuMapping::new(
        active
            .iter()
            .map(|j| j.mapping.little)
            .sum::<u32>()
            .min(cluster_cores.little),
        active
            .iter()
            .map(|j| j.mapping.big)
            .sum::<u32>()
            .min(cluster_cores.big),
    )
}

/// Board-wide frequency arbitration: each cluster runs at the highest
/// frequency requested by an app that has work on it (a stakeholder);
/// clusters nobody is using follow the highest request anyway (matching
/// the single-app engine, where the lone app's governor drives every
/// cluster); an empty active set races to the idle floor.
fn arbitrate_freqs(active: &[ActiveJob], idle: ClusterFreqs) -> ClusterFreqs {
    if active.is_empty() {
        return idle;
    }
    let max_or = |picked: Option<teem_soc::MHz>, all: fn(&ActiveJob) -> teem_soc::MHz| match picked
    {
        Some(f) => f,
        None => active.iter().map(all).max().expect("non-empty"),
    };
    let big = active
        .iter()
        .filter(|j| j.mapping.big > 0 && !j.cpu_done())
        .map(|j| j.desired.big)
        .max();
    let little = active
        .iter()
        .filter(|j| j.mapping.little > 0 && !j.cpu_done())
        .map(|j| j.desired.little)
        .max();
    let gpu = active
        .iter()
        .filter(|j| j.gpu_items > 0.0 && !j.gpu_done())
        .map(|j| j.desired.gpu)
        .max();
    ClusterFreqs {
        big: max_or(big, |j| j.desired.big),
        little: max_or(little, |j| j.desired.little),
        gpu: max_or(gpu, |j| j.desired.gpu),
    }
}

/// The first tick index `i` of the fixed-dt grid whose time `i·DT_S`
/// satisfies the fixed-dt loop's own firing predicate `i·DT_S + slack >=
/// target` — i.e. the step at which the fixed-dt loop would first act on
/// `target`, so the event-driven jump lands on precisely the tick the
/// stepped loop would have reached (bit-identical timing, no
/// off-by-one from rounding). Total: a target past the last tick,
/// infinity included, saturates at `u64::MAX`.
fn first_tick_at_or_after(target: f64, slack: f64) -> u64 {
    first_tick_past(((target - slack) / DT_S).ceil(), |t| t + slack < target)
}

/// The first tick index `i` whose time `i·DT_S` is no longer `before`
/// an instant, for a `before` monotone in time (true, then false from
/// some tick on): the float estimate `guess` corrected against the
/// exact predicate in either direction. An instant past the last tick
/// saturates at `u64::MAX`.
fn first_tick_past(guess: f64, before: impl Fn(f64) -> bool) -> u64 {
    let mut i = guess.max(0.0) as u64;
    while before((i as f64) * DT_S) {
        if i == u64::MAX {
            return i;
        }
        i += 1;
    }
    while i > 0 && !before(((i - 1) as f64) * DT_S) {
        i -= 1;
    }
    i
}

/// Noise-free estimate of the monitored maximum temperature (hottest big
/// core or GPU) for thermal-zone bookkeeping inside a fast-forwarded
/// gap. Deliberately does NOT go through the sensor bank: the gap skips
/// the sample grid entirely, so reading here would desynchronise the
/// noise stream from the fixed-dt path. All cores are idle in a gap
/// (no hotspot term), so the estimate is node + static offset.
fn gap_max_temp_estimate(board: &Board) -> f64 {
    let temps = board.thermal.temps();
    let offset = BIG_CORE_OFFSETS_C
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    (temps[board.nodes.big] + offset).max(temps[board.nodes.gpu])
}

/// An arrival that has been planned but not yet launched. The planning
/// inputs (approach, requirement, profile) ride along so the arbiter can
/// re-plan the app onto an arbitrated resource slice at launch.
pub(crate) struct QueuedJob {
    app: App,
    arrived_s: f64,
    treq_s: f64,
    approach: Approach,
    ureq: UserRequirement,
    profile: AppProfile,
    plan: LaunchPlan,
}

/// An application currently executing (a member of the active set).
pub(crate) struct ActiveJob {
    pub(crate) app: App,
    pub(crate) chars: KernelCharacteristics,
    pub(crate) mapping: CpuMapping,
    pub(crate) partition: Partition,
    pub(crate) manager: Box<dyn teem_soc::Manager + Send>,
    /// This app's latest frequency requests; the executor arbitrates one
    /// board-wide setting from the active set's requests each step.
    pub(crate) desired: ClusterFreqs,
    pub(crate) cpu_items: f64,
    pub(crate) gpu_items: f64,
    pub(crate) cpu_done_items: f64,
    pub(crate) gpu_done_items: f64,
    pub(crate) arrived_s: f64,
    pub(crate) started_s: f64,
    pub(crate) treq_s: f64,
    pub(crate) energy_j: f64,
    pub(crate) co_run_s: f64,
    pub(crate) contention_delay_s: f64,
    pub(crate) next_control: f64,
    pub(crate) temp: Welford,
    pub(crate) freq: Welford,
    /// The inputs `inc` was derived at: effective frequencies and the
    /// bits of the slowdown and GPU sharer count.
    inc_key: Option<(ClusterFreqs, u64, u64)>,
    /// Per-step progress increments `(cpu, gpu)`; see
    /// [`ActiveJob::increments`].
    inc: (f64, f64),
    /// Contention delay accrued per co-running step at the current
    /// slowdown; see [`CellSim::progress_terms`].
    delay_s: f64,
}

impl ActiveJob {
    fn launch(
        q: QueuedJob,
        mapping: CpuMapping,
        partition: Partition,
        initial: ClusterFreqs,
        manager: Box<dyn teem_soc::Manager + Send>,
        t: f64,
        readings: &SensorReadings,
    ) -> Self {
        let chars = q.app.characteristics();
        let items = chars.items as f64;
        let cpu_items = partition.cpu_fraction() * items;
        let mut job = ActiveJob {
            app: q.app,
            chars,
            mapping,
            partition,
            manager,
            desired: initial,
            cpu_items,
            gpu_items: items - cpu_items,
            cpu_done_items: 0.0,
            gpu_done_items: 0.0,
            arrived_s: q.arrived_s,
            started_s: t,
            treq_s: q.treq_s,
            energy_j: 0.0,
            co_run_s: 0.0,
            contention_delay_s: 0.0,
            next_control: t,
            temp: Welford::new(),
            freq: Welford::new(),
            inc_key: None,
            inc: (0.0, 0.0),
            delay_s: 0.0,
        };
        // Seed the per-run statistics with the launch instant so even a
        // sub-sample-period run reports sane temperatures.
        job.temp.push(readings.max_c());
        job.freq.push(initial.big.0 as f64);
        job
    }

    pub(crate) fn cpu_done(&self) -> bool {
        self.cpu_done_items >= self.cpu_items
    }

    pub(crate) fn gpu_done(&self) -> bool {
        self.gpu_done_items >= self.gpu_items
    }

    pub(crate) fn done(&self) -> bool {
        self.cpu_done() && self.gpu_done()
    }

    /// This job's per-step progress increments at `effective` under
    /// bandwidth slowdown `s`, with `gpu_sharers` apps time-sharing the
    /// GPU: `cpu_rate · DT_S / s` and `gpu_rate · DT_S / (s · sharers)`,
    /// the progress phase's exact expressions, re-derived only when an
    /// input changes. The scalar loop and the lockstep pool both read
    /// them here.
    pub(crate) fn increments(
        &mut self,
        effective: ClusterFreqs,
        s: f64,
        gpu_sharers: f64,
    ) -> (f64, f64) {
        let key = (effective, s.to_bits(), gpu_sharers.to_bits());
        if self.inc_key != Some(key) {
            self.inc = (
                cpu_rate(&self.chars, self.mapping, effective.big, effective.little) * DT_S / s,
                gpu_rate(&self.chars, effective.gpu) * DT_S / (s * gpu_sharers),
            );
            self.inc_key = Some(key);
        }
        self.inc
    }

    fn observe(&mut self, readings: &SensorReadings, freqs: ClusterFreqs) {
        self.temp.push(readings.max_c());
        self.freq.push(freqs.big.0 as f64);
    }

    fn finish(self, t: f64) -> ScenarioAppRun {
        ScenarioAppRun {
            summary: RunSummary {
                app: self.app.full_name().to_string(),
                approach: self.manager.name().to_string(),
                execution_time_s: t - self.started_s,
                energy_j: self.energy_j,
                avg_temp_c: self.temp.mean(),
                peak_temp_c: self.temp.max(),
                temp_variance: self.temp.variance(),
                avg_big_freq_mhz: self.freq.mean(),
            },
            arrived_s: self.arrived_s,
            started_s: self.started_s,
            completed_s: t,
            treq_s: self.treq_s,
            co_run_s: self.co_run_s,
            contention_delay_s: self.contention_delay_s,
        }
    }
}

/// Streaming mean/variance/extrema (Welford) for per-job statistics —
/// jobs cannot use [`teem_telemetry::Trace`] slices because the trace is
/// scenario-global.
pub(crate) struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    max: f64,
}

impl Welford {
    fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    fn push(&mut self, v: f64) {
        self.n += 1;
        let d = v - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (v - self.mean);
        self.max = self.max.max(v);
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance, matching [`teem_telemetry::stats::SeriesStats`].
    fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    fn max(&self) -> f64 {
        self.max
    }
}

fn progress(done: f64, total: f64) -> f64 {
    if total <= 0.0 {
        1.0
    } else {
        (done / total).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let mut w = Welford::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(v);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn empty_scenario_completes_immediately() {
        let mut runner = ScenarioRunner::new(Approach::Ondemand);
        let r = runner.run(&Scenario::new("empty")).expect("runs");
        assert_eq!(r.summary.apps_completed(), 0);
        assert_eq!(r.summary.makespan_s, 0.0);
        assert!(!r.timed_out);
    }

    #[test]
    fn single_arrival_matches_single_run_shape() {
        let mut runner = ScenarioRunner::new(Approach::Teem);
        let sc = Scenario::new("one").arrive(0.0, App::Covariance, 0.85);
        let r = runner.run(&sc).expect("runs");
        assert_eq!(r.summary.apps_completed(), 1);
        let app = &r.summary.apps[0];
        assert_eq!(app.summary.approach, "TEEM");
        assert!(app.summary.execution_time_s > 5.0);
        assert_eq!(app.wait_s(), 0.0);
        assert_eq!(r.summary.zone_trips, 0, "TEEM must not trip");
        // All busy time belongs to the single app; nothing overlapped.
        assert!((r.summary.busy_s - app.summary.execution_time_s).abs() < 0.02);
        assert_eq!(r.summary.overlap_s, 0.0);
        assert_eq!(app.co_run_s, 0.0);
        assert_eq!(app.slowdown_vs_solo(), 1.0);
    }

    #[test]
    fn simultaneous_arrivals_queue_fifo() {
        let mut runner = ScenarioRunner::new(Approach::Teem);
        let sc = Scenario::new("queue")
            .arrive(0.0, App::Mvt, 0.9)
            .arrive(0.0, App::Syrk, 0.9);
        let r = runner.run(&sc).expect("runs");
        assert_eq!(r.summary.apps_completed(), 2);
        assert_eq!(r.summary.apps[0].summary.app, "MVT");
        assert_eq!(r.summary.apps[1].summary.app, "SYRK");
        // The second app queued behind the first.
        assert!(r.summary.apps[1].wait_s() > 5.0);
        // Queue depth peaked at 2.
        let depth = r.trace.stats("queue.depth").expect("recorded");
        assert_eq!(depth.max(), 2.0);
    }

    #[test]
    fn shared_policy_overlaps_simultaneous_arrivals() {
        let sc = Scenario::new("co")
            .arrive(0.0, App::Mvt, 0.9)
            .arrive(0.0, App::Syrk, 0.9);
        let mut runner =
            ScenarioRunner::new(Approach::Teem).with_contention(ContentionPolicy::shared());
        let r = runner.run(&sc).expect("runs");
        assert!(!r.timed_out);
        assert_eq!(r.summary.apps_completed(), 2);
        assert!(
            r.summary.overlap_s > 0.0,
            "simultaneous arrivals must co-run under the shared policy"
        );
        // Neither waited: both launched at t = 0.
        for app in &r.summary.apps {
            assert_eq!(app.wait_s(), 0.0, "{}", app.summary.app);
            assert!(app.co_run_s > 0.0, "{}", app.summary.app);
            assert!(app.slowdown_vs_solo() >= 1.0);
        }
    }

    #[test]
    fn missing_profiles_fall_back_to_local_cache() {
        // A shared store without the arriving app: the runner computes
        // the profile on demand into its local overflow cache and still
        // produces the same physics as a fully pre-populated runner.
        let sc = Scenario::new("s").arrive(0.0, App::Syrk, 0.9);
        let mut empty_shared =
            ScenarioRunner::with_shared_profiles(Approach::Teem, ProfileStore::new().into_shared());
        let mut prepopulated = ScenarioRunner::new(Approach::Teem);
        let a = empty_shared.run(&sc).expect("runs");
        let b = prepopulated.run(&sc).expect("runs");
        assert_eq!(a.trace.digest(), b.trace.digest());
    }

    #[test]
    fn sim_config_default_is_scenario_scale() {
        assert_eq!(
            SimConfig::default(),
            SimConfig {
                timeout_s: 10_000.0,
                time_advance: TimeAdvance::FixedDt,
            }
        );
    }

    #[test]
    fn timeout_is_reported() {
        let mut runner = ScenarioRunner::new(Approach::Ondemand).with_config(SimConfig {
            timeout_s: 1.0,
            ..SimConfig::default()
        });
        let sc = Scenario::new("t").arrive(0.0, App::Covariance, 0.9);
        let r = runner.run(&sc).expect("runs");
        assert!(r.timed_out);
        assert_eq!(r.summary.apps_completed(), 0);
    }

    #[test]
    fn first_tick_meets_the_firing_predicate_exactly() {
        for target in [0.0, 0.005, 0.01, 0.1, 2.345, 5.123, 7.97, 1e6 + 0.003] {
            for slack in [0.0, 1e-12, 1e-9] {
                let i = first_tick_at_or_after(target, slack);
                assert!((i as f64) * DT_S + slack >= target, "{target} {slack}");
                assert!(
                    i == 0 || ((i - 1) as f64) * DT_S + slack < target,
                    "{target} {slack}: tick {i} is not the first"
                );
            }
        }
    }

    #[test]
    fn first_tick_saturates_past_the_last_tick() {
        // Past u64::MAX ticks (about 1.845e17 s) and at infinity the
        // estimate saturates; the helper must return, not wrap.
        assert_eq!(first_tick_at_or_after(1.9e17, 1e-9), u64::MAX);
        assert_eq!(first_tick_at_or_after(f64::MAX, 0.0), u64::MAX);
        assert_eq!(first_tick_at_or_after(f64::INFINITY, 0.0), u64::MAX);
        assert_eq!(first_tick_at_or_after(f64::INFINITY, 1e-12), u64::MAX);
        // Huge but inside the range: still the first tick at or after.
        let i = first_tick_at_or_after(1.0e17, 0.0);
        assert!(i < u64::MAX && (i as f64) * DT_S >= 1.0e17);
    }

    #[test]
    fn first_tick_of_each_release_step_ends_the_span() {
        // Nothing else is due in this cell (no events, no jobs, no
        // sample, the timeout far off), so a releasing zone alone ends
        // its spans.
        let mut runner = ScenarioRunner::new(Approach::Ondemand);
        let idle = Scenario::new("idle");
        let mut sim = runner
            .prepare_cell(&idle, "idle", None, None, CellBuffers::default())
            .expect("prepares");
        sim.next_sample = f64::INFINITY;
        // A span starting at `tick` (where the zone is polled first, as
        // in `step_cell`) must end at the first later tick at which
        // polling the zone tick by tick steps its cap.
        let mut check = |tick: u64, mut zone: ThermalZone| -> Option<u64> {
            let t = tick as f64 * DT_S;
            let cap = zone.update(t, 80.0);
            zone.next_release_s()?;
            sim.step_idx = tick;
            sim.t = t;
            sim.zone = zone;
            let end = sim.span_end_tick();
            let mut i = tick + 1;
            while zone.update(i as f64 * DT_S, 80.0) == cap {
                i += 1;
            }
            assert_eq!(
                end, i,
                "span from tick {tick} ends at {end}; the cap steps at {i}"
            );
            Some(end)
        };
        let entered_at = |t: f64| {
            let mut zone = ThermalZone::stock_xu4();
            zone.update(t, 96.0);
            zone.update(t, 80.0);
            zone
        };
        // Release entered on every tick of the grid.
        for tick in 0..200_000 {
            check(tick, entered_at(tick as f64 * DT_S));
        }
        // The float slack decides these two: without it the step lands a
        // tick later.
        assert_eq!(check(111, entered_at(111.0 * DT_S)), Some(361));
        assert_eq!(check(164, entered_at(164.0 * DT_S)), Some(414));
        // Catch-up instants: tripped as a gap starts, released across it
        // at gap start + k·2.5 s (off the grid), resumed at its end.
        for start in 0..5_000_u64 {
            for polls in 1..=12 {
                for extra in [0, 1, 125] {
                    let end = start + 250 * polls + extra;
                    let to_s = end as f64 * DT_S;
                    let from_s = to_s - (end - start) as f64 * DT_S;
                    let mut zone = ThermalZone::stock_xu4();
                    zone.update(from_s, 96.0);
                    zone.catch_up(from_s, to_s, 80.0);
                    check(end, zone);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "timeout inf s must be positive")]
    fn infinite_timeout_is_rejected() {
        let _ = ScenarioRunner::new(Approach::Teem).with_config(SimConfig {
            timeout_s: f64::INFINITY,
            ..SimConfig::default()
        });
    }

    #[test]
    fn timeouts_past_the_exact_tick_range_are_rejected() {
        let runner = |timeout_s| {
            std::panic::catch_unwind(|| {
                ScenarioRunner::new(Approach::Teem).with_config(SimConfig {
                    timeout_s,
                    ..SimConfig::default()
                })
            })
            .is_ok()
        };
        assert!(runner(MAX_TIMEOUT_S), "2⁵³ ticks is the last exact tick");
        for bad in [MAX_TIMEOUT_S * 1.001, f64::NAN, 0.0, -1.0] {
            assert!(!runner(bad), "timeout {bad} accepted");
        }
    }

    #[test]
    fn stepwise_run_matches_monolithic_shape() {
        // Drive prepare/step/finish by hand — the decomposition the
        // lockstep pool uses — and check it reproduces run() exactly.
        let sc = Scenario::new("one").arrive(0.0, App::Mvt, 0.9);
        let mut a = ScenarioRunner::new(Approach::Teem);
        let mut b = ScenarioRunner::new(Approach::Teem);
        let ra = a.run(&sc).expect("runs");
        let mut sim = b
            .prepare_cell(&sc, "one", None, None, CellBuffers::default())
            .expect("prepares");
        while b.step_cell(&mut sim, false).expect("steps") {}
        let (rb, _) = b.finish_cell(sim);
        assert_eq!(ra.summary, rb.summary);
        assert_eq!(ra.trace.digest(), rb.trace.digest());
        assert_eq!(ra.kernel.steps, rb.kernel.steps);
    }
}
