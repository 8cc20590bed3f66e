//! The time-stepped simulation engine: executes one application run under
//! a resource manager, integrating performance, power and temperature and
//! producing the trace/summary the paper's figures are built from.

use crate::board::Board;
use crate::freq::MHz;
use crate::perf::{cpu_rate, gpu_rate, CpuMapping};
use crate::power::NodePowerModel;
use crate::sensors::SensorReadings;
use crate::thermal_zone::ThermalZone;
use teem_telemetry::stats::SeriesStats;
use teem_telemetry::{RunSummary, Trace};
use teem_workload::{App, Partition};

/// Cluster frequencies at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterFreqs {
    /// Big (A15) cluster frequency.
    pub big: MHz,
    /// LITTLE (A7) cluster frequency.
    pub little: MHz,
    /// GPU frequency.
    pub gpu: MHz,
}

impl ClusterFreqs {
    /// Every cluster at its maximum OPP — how TEEM schedules an
    /// application initially ("execute at maximum frequency for all the
    /// clusters", §III-B).
    pub fn max_of(board: &Board) -> ClusterFreqs {
        ClusterFreqs {
            big: board.big_opps.max().freq,
            little: board.little_opps.max().freq,
            gpu: board.gpu_opps.max().freq,
        }
    }

    /// Every cluster at its minimum OPP — how an idle board sits between
    /// scenario arrivals (powersave-style race-to-idle floor).
    pub fn min_of(board: &Board) -> ClusterFreqs {
        ClusterFreqs {
            big: board.big_opps.min().freq,
            little: board.little_opps.min().freq,
            gpu: board.gpu_opps.min().freq,
        }
    }
}

/// What to run: an application, a core mapping and a work partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// The application (provides simulator characteristics and names).
    pub app: App,
    /// CPU cores used for the CPU share.
    pub mapping: CpuMapping,
    /// Work-item split between CPU and GPU.
    pub partition: Partition,
    /// Starting frequencies (managers may change them immediately).
    pub initial: ClusterFreqs,
}

/// The manager-visible state of the SoC at a control instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocView {
    /// Simulation time, seconds.
    pub time_s: f64,
    /// Latest sensor sample.
    pub readings: SensorReadings,
    /// Current (effective) cluster frequencies.
    pub freqs: ClusterFreqs,
    /// Fraction of the CPU share completed (1.0 when done or no share).
    pub cpu_progress: f64,
    /// Fraction of the GPU share completed (1.0 when done or no share).
    pub gpu_progress: f64,
    /// Big-cluster utilisation in `[0, 1]` (what ondemand samples).
    pub big_util: f64,
    /// Instantaneous wall power, watts.
    pub power_w: f64,
    /// The run's mapping.
    pub mapping: CpuMapping,
    /// The run's partition.
    pub partition: Partition,
}

/// Frequency requests a manager issues at a control instant. Unset fields
/// leave the current frequency unchanged; requests are clamped to the OPP
/// table (`at_or_below`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocControl {
    big: Option<MHz>,
    little: Option<MHz>,
    gpu: Option<MHz>,
}

impl SocControl {
    /// Requests a big-cluster frequency.
    pub fn set_big_freq(&mut self, f: MHz) {
        self.big = Some(f);
    }

    /// Requests a LITTLE-cluster frequency.
    pub fn set_little_freq(&mut self, f: MHz) {
        self.little = Some(f);
    }

    /// Requests a GPU frequency.
    pub fn set_gpu_freq(&mut self, f: MHz) {
        self.gpu = Some(f);
    }

    /// The pending big-cluster request, if any.
    pub fn big_request(&self) -> Option<MHz> {
        self.big
    }

    /// The pending LITTLE-cluster request, if any.
    pub fn little_request(&self) -> Option<MHz> {
        self.little
    }

    /// The pending GPU request, if any.
    pub fn gpu_request(&self) -> Option<MHz> {
        self.gpu
    }

    /// Quantises the pending requests onto `board`'s OPP tables
    /// (`at_or_below`) into `freqs`; a cluster with no request keeps its
    /// frequency.
    #[inline]
    pub fn apply(&self, board: &Board, freqs: &mut ClusterFreqs) {
        if let Some(f) = self.big {
            freqs.big = board.big_opps.at_or_below(f).freq;
        }
        if let Some(f) = self.little {
            freqs.little = board.little_opps.at_or_below(f).freq;
        }
        if let Some(f) = self.gpu {
            freqs.gpu = board.gpu_opps.at_or_below(f).freq;
        }
    }
}

/// A runtime resource manager: ondemand, EEMP's static policy, RMP, TEEM…
/// The engine calls [`Manager::control`] every [`CONTROL_PERIOD_S`]
/// seconds of simulated time.
pub trait Manager {
    /// Manager name used in reports (e.g. `"TEEM"`).
    fn name(&self) -> &str;

    /// Observes the SoC and issues frequency requests.
    fn control(&mut self, view: &SocView, ctl: &mut SocControl);
}

/// Everything a finished run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Headline metrics (the Fig. 1 / Fig. 5 numbers).
    pub summary: RunSummary,
    /// Recorded channels: `temp.max`, `temp.big`, `temp.gpu`, `freq.big`,
    /// `freq.little`, `freq.gpu`, `power.total`.
    pub trace: Trace,
    /// Number of reactive thermal-zone trips during the run.
    pub zone_trips: u32,
    /// `true` if the run hit the simulation timeout before completing.
    pub timed_out: bool,
    /// Per-domain energy, joules: (big, little, gpu, board).
    pub energy_breakdown_j: (f64, f64, f64, f64),
}

/// How the scenario executor advances simulated time across idle gaps
/// (single runs have none, so they are always dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeAdvance {
    /// One fixed-[`DT_S`] integration loop from start to finish — every
    /// idle second of a gappy timeline is stepped through. The default,
    /// and the bit-pinned reference semantics.
    #[default]
    FixedDt,
    /// Event-horizon loop: phases with applications running step at
    /// fixed [`DT_S`] **bit-identically** to [`TimeAdvance::FixedDt`],
    /// but whenever the active set and queue are empty the executor
    /// computes the next state-changing instant (arrival,
    /// ambient/threshold/approach change, simulation timeout) and
    /// fast-forwards the thermal network across the whole gap in closed
    /// form ([`fast_forward_gap`]) at the minimum OPPs the fixed-dt loop
    /// races to, with a small documented temperature / energy tolerance
    /// on the gap itself.
    ///
    /// A gap costs one closed-form segment per re-linearisation, not
    /// one step per [`DT_S`], but that is not `O(events)` yet: segments
    /// are sized from the fastest thermal mode's decay rate, so far
    /// from the idle steady state they are short (on the XU4 about
    /// 0.014–0.028 s each over a gap's first five minutes, which costs
    /// more than stepping), and only near equilibrium does the rest of
    /// a gap become one segment. See [`fast_forward_gap`].
    EventDriven,
}

/// Integration step of both step loops, seconds.
pub const DT_S: f64 = 0.01;

/// Trace and sensor sampling period of both step loops, seconds.
pub const SAMPLE_PERIOD_S: f64 = 0.1;

/// Manager control period, seconds: 100 ms, a typical governor sampling
/// rate.
pub const CONTROL_PERIOD_S: f64 = 0.1;

/// Fraction of a run's initial power that pre-heats the board before
/// its first step ([`warm_start`]): the paper's runs start warm from
/// back-to-back measurements, and Fig. 1 starts at about 80 °C.
pub const WARM_START_FRACTION: f64 = 0.93;

/// A single-run simulation of the board executing a [`RunSpec`] under a
/// [`Manager`], with the stock reactive [`ThermalZone`] armed underneath
/// (as on the real kernel).
#[derive(Debug)]
pub struct Simulation {
    board: Board,
    spec: RunSpec,
    timeout_s: f64,
    zone: ThermalZone,
}

impl Simulation {
    /// Creates a simulation with the stock 95 °C thermal zone armed and
    /// a 1 000 s timeout.
    pub fn new(board: Board, spec: RunSpec) -> Self {
        Simulation {
            board,
            spec,
            timeout_s: 1_000.0,
            zone: ThermalZone::stock_xu4(),
        }
    }

    /// Runs the spec to completion under `manager` and reports.
    pub fn run(&mut self, manager: &mut dyn Manager) -> RunResult {
        let chars = self.spec.app.characteristics();
        let items = chars.items as f64;
        let cpu_items = self.spec.partition.cpu_fraction() * items;
        let gpu_items = items - cpu_items;

        let dt = DT_S;
        let mut t = 0.0_f64;
        let mut cpu_done_items = 0.0;
        let mut gpu_done_items = 0.0;

        // Desired (manager-requested) frequencies; the zone caps big.
        let mut desired = clamp_freqs(&self.board, self.spec.initial);
        let mut effective = desired;

        // Reusable step buffers: the loop below runs millions of times per
        // batch sweep and must not allocate on its steady-state path.
        let mut scratch = StepScratch::for_board(&self.board);

        let initial_load = NodePowerModel::single_app(
            &self.board,
            self.spec.mapping,
            effective,
            cpu_items > 0.0,
            gpu_items > 0.0,
            chars.activity,
        );
        warm_start(&mut self.board, &initial_load, WARM_START_FRACTION);

        let mut meter = crate::meter::SmartPowerMeter::new();
        let mut trace = Trace::with_channels(TRACE_CHANNELS);
        // Sample-major staging: one contiguous row per sample tick
        // instead of 7 scattered per-channel appends; flushed at
        // capacity and at run end, bit-identical to direct recording.
        let mut stage = teem_telemetry::SampleStage::for_channels(&trace, TRACE_CHANNELS);
        let mut zone_trips = 0u32;
        let mut next_sample = 0.0_f64;
        let mut next_control = 0.0_f64;
        let chars_activity = chars.activity;
        let mut readings = self.read_sensors_at(effective, cpu_items > 0.0, chars_activity);
        let mut energy_breakdown = (0.0, 0.0, 0.0, 0.0);
        let mut timed_out = false;
        let mut last_total_w = 0.0_f64;
        // The operating point frozen between control decisions: the
        // power model and the per-step progress increments, rebuilt only
        // when the effective frequencies or a busy flag change.
        let mut op: Option<FrozenOp> = None;

        loop {
            let cpu_done = cpu_done_items >= cpu_items;
            let gpu_done = gpu_done_items >= gpu_items;
            if cpu_done && gpu_done {
                break;
            }
            if t >= self.timeout_s {
                timed_out = true;
                break;
            }

            // --- Sensing (trace cadence) ---
            if t + 1e-12 >= next_sample {
                readings =
                    self.read_sensors_at(effective, cpu_done_items < cpu_items, chars_activity);
                // One row in TRACE_CHANNELS column order.
                stage.push(
                    t,
                    &[
                        readings.max_c(),
                        readings.big_max_c(),
                        readings.gpu_c,
                        effective.big.0 as f64,
                        effective.little.0 as f64,
                        effective.gpu.0 as f64,
                        last_total_w,
                    ],
                );
                if stage.is_full() {
                    trace.flush_stage(&mut stage);
                }
                next_sample += SAMPLE_PERIOD_S;
            }

            // --- Manager control ---
            if t + 1e-12 >= next_control {
                let view = SocView {
                    time_s: t,
                    readings,
                    freqs: effective,
                    cpu_progress: progress(cpu_done_items, cpu_items),
                    gpu_progress: progress(gpu_done_items, gpu_items),
                    big_util: if cpu_done || self.spec.mapping.big == 0 {
                        0.05
                    } else {
                        1.0
                    },
                    power_w: meter.power_samples().last().map(|s| s.v).unwrap_or(0.0),
                    mapping: self.spec.mapping,
                    partition: self.spec.partition,
                };
                let mut ctl = SocControl::default();
                manager.control(&view, &mut ctl);
                ctl.apply(&self.board, &mut desired);
                next_control += CONTROL_PERIOD_S;
            }

            // --- Reactive thermal zone (kernel layer) ---
            effective = desired;
            if self.zone.actuate(
                t,
                readings.max_c(),
                &self.board.big_opps,
                &mut effective.big,
            ) {
                zone_trips += 1;
            }

            let key = (effective, cpu_done, gpu_done);
            let frozen = match &mut op {
                Some(f) if f.key == key => f,
                slot => slot.insert(FrozenOp {
                    key,
                    model: NodePowerModel::single_app(
                        &self.board,
                        self.spec.mapping,
                        effective,
                        !cpu_done,
                        !gpu_done,
                        chars.activity,
                    ),
                    cpu_inc: cpu_rate(&chars, self.spec.mapping, effective.big, effective.little)
                        * dt,
                    gpu_inc: gpu_rate(&chars, effective.gpu) * dt,
                }),
            };

            // --- Workload progress ---
            if !cpu_done && !self.spec.mapping.is_empty() {
                cpu_done_items += frozen.cpu_inc;
            }
            if !gpu_done {
                gpu_done_items += frozen.gpu_inc;
            }

            // --- Power & thermal: one fused step at the step-start
            //     temperatures, which also leaves the step's power
            //     vector in the reusable scratch for the accounting ---
            self.board
                .thermal
                .step_frozen(dt, &frozen.model, &mut scratch.power);
            let p = &scratch.power;
            energy_breakdown.0 += p[self.board.nodes.big] * dt;
            energy_breakdown.1 += p[self.board.nodes.little] * dt;
            energy_breakdown.2 += p[self.board.nodes.gpu] * dt;
            energy_breakdown.3 += p[self.board.nodes.board] * dt;
            let total: f64 = p.iter().sum();
            meter.observe(t, dt, total);
            last_total_w = total;

            t += dt;
        }

        // Final sensor sample closes the trace. The stage must drain
        // first: the closing records target staged channels, and a
        // direct push ahead of buffered rows would run time backwards.
        trace.flush_stage(&mut stage);
        let final_readings = self.read_sensors_at(effective, false, chars_activity);
        trace.record("temp.max", t, final_readings.max_c());
        trace.record("freq.big", t, effective.big.0 as f64);

        let temp_stats = trace
            .stats("temp.max")
            .unwrap_or_else(|| SeriesStats::of(&single(t)).expect("one"));
        let freq_stats = trace.stats("freq.big").expect("freq.big always recorded");

        let summary = RunSummary {
            app: self.spec.app.full_name().to_string(),
            approach: manager.name().to_string(),
            execution_time_s: t,
            energy_j: meter.energy_j(),
            avg_temp_c: temp_stats.mean(),
            peak_temp_c: temp_stats.max(),
            temp_variance: temp_stats.variance(),
            avg_big_freq_mhz: freq_stats.mean(),
        };
        RunResult {
            summary,
            trace,
            zone_trips,
            timed_out,
            energy_breakdown_j: energy_breakdown,
        }
    }

    /// Reads the sensor bank including per-core hotspot contributions for
    /// the currently-active big cores.
    fn read_sensors_at(
        &mut self,
        freqs: ClusterFreqs,
        cpu_busy: bool,
        activity: f64,
    ) -> SensorReadings {
        read_sensors_for(
            &mut self.board,
            self.spec.mapping,
            freqs,
            cpu_busy,
            activity,
        )
    }
}

/// The trace channels a single run records, pre-created so the sampling
/// path never inserts (and so never allocates a key) mid-run.
const TRACE_CHANNELS: &[&str] = &[
    "temp.max",
    "temp.big",
    "temp.gpu",
    "freq.big",
    "freq.little",
    "freq.gpu",
    "power.total",
];

/// [`Simulation::run`]'s operating point between control decisions:
/// the power model and the per-step progress increments (the exact
/// `rate · dt` expressions), valid while `key` — the effective
/// frequencies and the two done flags — holds.
struct FrozenOp {
    key: (ClusterFreqs, bool, bool),
    model: NodePowerModel,
    cpu_inc: f64,
    gpu_inc: f64,
}

/// Reusable per-step physics buffers: the node power vector that each
/// step writes from the engines' frozen [`NodePowerModel`]
/// ([`ThermalModel::step_frozen`](crate::ThermalModel::step_frozen))
/// and the energy accounting reads.
///
/// Both [`Simulation`] and the scenario executor drive their step loops
/// through one `StepScratch`, so the steady-state simulation path
/// allocates nothing per step. (Sensor readings need no buffer —
/// [`SensorReadings`] is a plain `Copy` value.)
#[derive(Debug, Clone, Default)]
pub struct StepScratch {
    /// Node power vector, watts, indexed as [`Board::nodes`].
    pub power: Vec<f64>,
    /// The steady-state solve's right-hand side in [`fast_forward_gap`].
    pub rhs: Vec<f64>,
    /// The steady-state temperatures [`fast_forward_gap`] sizes each
    /// segment against, °C.
    pub steady: Vec<f64>,
    /// Step-loop observability accumulator (counters always on, timing
    /// opt-in; see [`StepObs`]).
    pub obs: StepObs,
}

impl StepScratch {
    /// Scratch sized for `board`'s thermal network.
    pub fn for_board(board: &Board) -> Self {
        let n = board.thermal.len();
        StepScratch {
            power: vec![0.0; n],
            rhs: vec![0.0; n],
            steady: vec![0.0; n],
            obs: StepObs::default(),
        }
    }
}

/// Scratch-resident step-loop accumulator: per-run step/sub-step
/// counters and the wall-time split between the step phases (power
/// model, thermal step, sensing, trace, control).
///
/// Counters are unconditional (one integer add per step — cheaper than
/// the branch that would gate them). Wall-clock timing is gated on the
/// single `enabled` bool so the default, uninstrumented hot loop pays
/// exactly one predictable branch per phase and never calls
/// `Instant::now`. The accumulator lives in [`StepScratch`] so the step
/// loop touches memory it already owns — no extra cache line, no
/// shared state.
///
/// Timing never feeds back into the physics, fingerprints or digests:
/// an instrumented run is bit-identical to a disabled one (pinned by
/// the golden-digest tests in the scenario crate).
///
/// The scenario executor's scalar loop runs in *spans*: one step with
/// every phase, then the step tail alone (progress, power, thermal,
/// energy, completions) through each following step at which no other
/// phase can act — including a thermal zone releasing its cap, whose
/// next step ends the span. The counters and the thermal lap cover
/// every step alike. The power lap covers only a span's first step
/// and the step whose progress flips a busy flag, the only steps that
/// rebuild the power shares and refresh the model. The control lap
/// (control and the zone poll) covers only the steps that begin a
/// span, and the sample and trace laps only the steps a sample falls
/// on, which always begin one.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepObs {
    /// `true` ⇒ the step loop samples `Instant::now` around each phase.
    pub enabled: bool,
    /// Outer engine steps executed.
    pub steps: u64,
    /// Engine steps executed through the K-wide lockstep batch path
    /// (each is also counted in `steps`; 0 on the scalar path).
    pub batched_steps: u64,
    /// Euler sub-steps the thermal integrator actually took.
    pub substeps: u64,
    /// Nanoseconds keeping the power model current (0 unless
    /// `enabled`). On the scalar step loop that is the shares rebuild
    /// and the model refresh (the operating-point check and, when it
    /// moved, the rebuild), timed on the steps that run them: a span's
    /// first step and a busy-flag flip. On the batched path it is the
    /// SoA power evaluation.
    pub power_ns: u64,
    /// Nanoseconds in the thermal step (0 unless `enabled`). On the
    /// scalar step loop that is one fused
    /// [`step_frozen`](crate::ThermalModel::step_frozen) call, so it
    /// includes the node power evaluation. On the batched path it is
    /// the Euler integration alone.
    pub thermal_ns: u64,
    /// Nanoseconds reading sensors on sample ticks (0 unless `enabled`).
    pub sample_ns: u64,
    /// Nanoseconds staging/recording trace samples (0 unless `enabled`).
    pub trace_ns: u64,
    /// Nanoseconds in manager control + actuation (0 unless
    /// `enabled`). The scalar scenario loop runs them once per span, at
    /// its first step; the batched path on due ticks and after busy-flag
    /// flips.
    pub control_ns: u64,
    /// Idle gaps the event-driven executor fast-forwarded instead of
    /// stepping (0 under [`TimeAdvance::FixedDt`]).
    pub gaps_skipped: u64,
    /// Total simulated seconds covered by fast-forwarded gaps.
    pub gap_fastforward_s: f64,
    /// Closed-form re-linearisation segments taken across all
    /// fast-forwarded gaps (each is one
    /// [`cool_to`](crate::thermal::ThermalModel::cool_to) call;
    /// see [`fast_forward_gap`]).
    pub gap_segments: u64,
}

impl StepObs {
    /// An enabled (timing-on) accumulator.
    pub fn enabled() -> Self {
        StepObs {
            enabled: true,
            ..StepObs::default()
        }
    }

    /// Starts a phase clock — `None` (and no syscall) unless enabled.
    #[inline]
    pub fn clock(&self) -> Option<std::time::Instant> {
        if self.enabled {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// Banks a power-model phase started at `t0`.
    #[inline]
    pub fn lap_power(&mut self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            self.power_ns = self
                .power_ns
                .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Banks a thermal-integration phase started at `t0`.
    #[inline]
    pub fn lap_thermal(&mut self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            self.thermal_ns = self
                .thermal_ns
                .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Banks a sensor-sampling phase started at `t0`.
    #[inline]
    pub fn lap_sample(&mut self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            self.sample_ns = self
                .sample_ns
                .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Banks a trace-recording phase started at `t0`.
    #[inline]
    pub fn lap_trace(&mut self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            self.trace_ns = self
                .trace_ns
                .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Banks a control/actuation phase started at `t0`.
    #[inline]
    pub fn lap_control(&mut self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            self.control_ns = self
                .control_ns
                .saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Folds another accumulator's counts and times into this one
    /// (`enabled` ors, so a merged total remembers whether any part
    /// timed).
    pub fn merge(&mut self, other: &StepObs) {
        self.enabled |= other.enabled;
        self.steps += other.steps;
        self.batched_steps += other.batched_steps;
        self.substeps += other.substeps;
        self.power_ns = self.power_ns.saturating_add(other.power_ns);
        self.thermal_ns = self.thermal_ns.saturating_add(other.thermal_ns);
        self.sample_ns = self.sample_ns.saturating_add(other.sample_ns);
        self.trace_ns = self.trace_ns.saturating_add(other.trace_ns);
        self.control_ns = self.control_ns.saturating_add(other.control_ns);
        self.gaps_skipped += other.gaps_skipped;
        self.gap_fastforward_s += other.gap_fastforward_s;
        self.gap_segments += other.gap_segments;
    }
}

/// One co-running application's contribution to the board's power draw
/// at an instant — the per-app slice of what
/// [`NodePowerModel::single_app`] takes as scalars for a single app.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoRunShare {
    /// CPU cores the arbiter granted this app.
    pub mapping: CpuMapping,
    /// `true` while the app's CPU share is still executing.
    pub cpu_busy: bool,
    /// `true` while the app's GPU share is still executing.
    pub gpu_busy: bool,
    /// The app's switching-activity factor.
    pub activity: f64,
}

/// Writes each co-running share's attributable *dynamic* power draw,
/// watts, into `out` (cleared and refilled to `shares.len()`; reuse one
/// buffer with reserved capacity to keep the caller's step loop
/// allocation-free).
///
/// This is the attribution key for splitting a co-run step's total
/// energy between the active apps: dynamic power is the part of the
/// draw an individual app *causes* (its cores, its utilisation, its
/// switching activity — the GPU's dynamic draw divided evenly among the
/// apps time-sharing it), while leakage, uncore and board overhead are
/// domain properties no single app owns and follow the dynamic weights
/// proportionally. Weights can legitimately all be zero (every share
/// idle on every device); callers should fall back to an equal split.
pub fn co_run_dynamic_weights(
    board: &Board,
    shares: &[CoRunShare],
    freqs: ClusterFreqs,
    out: &mut Vec<f64>,
) {
    out.clear();
    let big_volts = board.big_opps.volts_at(freqs.big);
    let big_hz = freqs.big.as_hz();
    let little_volts = board.little_opps.volts_at(freqs.little);
    let little_hz = freqs.little.as_hz();
    let gpu_volts = board.gpu_opps.volts_at(freqs.gpu);
    let gpu_hz = freqs.gpu.as_hz();
    let gpu_users = shares.iter().filter(|s| s.gpu_busy).count();
    for s in shares {
        let big_util = if s.cpu_busy && s.mapping.big > 0 {
            1.0
        } else {
            0.03
        };
        let little_util = if s.cpu_busy && s.mapping.little > 0 {
            1.0
        } else {
            0.08
        };
        let mut w =
            board
                .big_power
                .dynamic_w(big_volts, big_hz, s.mapping.big, big_util, s.activity)
                + board.little_power.dynamic_w(
                    little_volts,
                    little_hz,
                    s.mapping.little,
                    little_util,
                    s.activity,
                );
        if s.gpu_busy {
            w += board
                .gpu_power
                .dynamic_w(gpu_volts, gpu_hz, board.gpu_shaders, 1.0, s.activity)
                / gpu_users as f64;
        }
        out.push(w);
    }
}

/// What one [`fast_forward_gap`] call covered.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GapAdvance {
    /// Total energy drawn across the span, joules.
    pub energy_j: f64,
    /// Closed-form segments taken (each one `cool_to` call).
    pub segments: u32,
}

/// Maximum temperature movement per re-linearisation segment of
/// [`fast_forward_gap`], °C. Leakage is the only temperature-dependent
/// term of the idle power model (≈ 4.5 %/°C), so freezing the power
/// vector across a ≤ 0.5 °C slide mis-estimates the leakage watts of
/// that segment by ≲ 2 % — the documented gap tolerance, pinned
/// empirically by the property tests against brute-force stepping.
pub const GAP_SEGMENT_DELTA_C: f64 = 0.5;

/// Advances the board across an all-idle gap in closed form, one
/// re-linearisation segment at a time, instead of stepping it at
/// `DT_S`.
///
/// During a gap the thermal network is a linear decay toward the
/// steady state of the (nearly constant) idle power — exactly the
/// regime where the spectral solution
/// ([`cool_to`](crate::thermal::ThermalModel::cool_to)) is exact. The
/// one nonlinearity left is leakage's exponential temperature
/// dependence, so the span is split into segments, with the power
/// vector re-evaluated at each segment start (frozen-power
/// re-linearisation). Each segment is the longest span over which the
/// fastest mode's decay rate (`λ_max`,
/// [`fastest_cooling_rate`](crate::thermal::ThermalModel::fastest_cooling_rate))
/// would move the whole distance to the segment's steady state by at
/// most [`GAP_SEGMENT_DELTA_C`]. Once the state is within one delta of
/// the idle steady state the remainder of the span — hours, days — is
/// a single segment.
///
/// The segment count is bounded by the cooling distance, not the span
/// length, but the bound is loose: most of the distance sits in the
/// slow board mode, which `λ_max` charges at the fast mode's rate. On
/// the XU4 the segments come out 0.014–0.028 s long over a gap's
/// first five minutes, so a gap that short costs more than stepping
/// it; the `trace_campaign` benchmark averages about 1 320 segments
/// per gap. Sizing each mode by its own rate would remove most of
/// them.
///
/// Energy is integrated exactly under the frozen-power approximation:
/// each segment contributes `ΣᵢPᵢ · L` joules, accumulated per node
/// into `energy_by_node_j` (same indexing as [`Board::nodes`]).
///
/// The board dissipates its idle floor throughout: every cluster at
/// `idle` with no application mapped ([`NodePowerModel::idle`]), which
/// is what the fixed-dt loop races to between applications. The caller
/// owns every other piece of gap semantics: choosing the horizon (next
/// event), sensor-noise stream catch-up, and trace sampling.
///
/// # Panics
///
/// Panics if `span_s < 0`, `ambient_c` is implausible, or
/// `energy_by_node_j.len() != board.thermal.len()`.
pub fn fast_forward_gap(
    board: &mut Board,
    idle: ClusterFreqs,
    span_s: f64,
    ambient_c: f64,
    scratch: &mut StepScratch,
    energy_by_node_j: &mut [f64],
) -> GapAdvance {
    assert!(span_s >= 0.0, "negative gap span");
    assert_eq!(
        energy_by_node_j.len(),
        board.thermal.len(),
        "energy vector length"
    );
    let mut adv = GapAdvance::default();
    if span_s == 0.0 {
        board.thermal.set_ambient_c(ambient_c);
        return adv;
    }
    // The gap's operating point is fixed for the whole call; only the
    // leakage follows the segment-start temperatures.
    let model = NodePowerModel::idle(board, idle);
    let lambda_max = board.thermal.fastest_cooling_rate();
    let mut remaining = span_s;
    // Relative epsilon, as ThermalModel::step: float residue from
    // repeated subtraction must not schedule a denormal extra segment.
    let eps = span_s * 1e-9;
    while remaining > eps {
        // Freeze the power vector at the segment-start temperatures.
        model.eval_into(board.thermal.temps(), &mut scratch.power);
        // Distance to the steady state this frozen power decays toward.
        let seg = if lambda_max > 0.0 {
            board
                .thermal
                .steady_state_into(&scratch.power, &mut scratch.rhs, &mut scratch.steady);
            let dist = board
                .thermal
                .temps()
                .iter()
                .zip(&scratch.steady)
                .map(|(&t, &s)| (t - s).abs())
                .fold(0.0_f64, f64::max);
            if dist <= GAP_SEGMENT_DELTA_C {
                // Within one delta of equilibrium: the rest of the gap
                // moves less than the per-segment budget — take it all.
                remaining
            } else {
                // Longest span over which the fastest mode's decay keeps
                // the predicted movement under the budget.
                let l = (dist / (dist - GAP_SEGMENT_DELTA_C)).ln() / lambda_max;
                l.min(remaining)
            }
        } else {
            // Degenerate ambient-isolated network (tests only): nothing
            // decays, one frozen-power segment is as good as many.
            remaining
        };
        board.thermal.cool_to(seg, ambient_c, &scratch.power);
        for (e, &p) in energy_by_node_j.iter_mut().zip(&scratch.power) {
            *e += p * seg;
        }
        adv.energy_j += scratch.power.iter().sum::<f64>() * seg;
        adv.segments += 1;
        remaining -= seg;
    }
    scratch.obs.gap_segments += u64::from(adv.segments);
    adv
}

/// The uniform node temperature a warm start evaluates its load at, °C.
const WARM_START_EVAL_C: f64 = 70.0;

/// The warm-start ceiling, °C: whatever ran before a measured run was
/// itself kept below the trip, so no silicon starts hotter than this.
const WARM_START_CEILING_C: f64 = 80.0;

/// Pre-heats `board` by the back-to-back measurement protocol the
/// paper's runs start from (Fig. 1 starts at about 80 °C): `load`
/// evaluated at a uniform 70 °C and scaled by `fraction`, every node
/// settled to that power's steady state, then clamped to the 80 °C
/// ceiling and floored at the ambient temperature.
///
/// [`Simulation::run`] passes its initial operating point and
/// [`WARM_START_FRACTION`]; the scenario executor passes its first
/// arrival's plan at the same fraction, or the idle board at 1.0.
pub fn warm_start(board: &mut Board, load: &NodePowerModel, fraction: f64) {
    let n = board.thermal.len();
    let mut power = vec![0.0; n];
    load.eval_into(&vec![WARM_START_EVAL_C; n], &mut power);
    for p in &mut power {
        *p *= fraction;
    }
    board.thermal.warm_start(&power);
    let ambient = board.thermal.ambient_c();
    for i in 0..n {
        let t = board.thermal.temp(i);
        board
            .thermal
            .set_temp(i, t.min(WARM_START_CEILING_C).max(ambient));
    }
}

/// Reads the sensor bank including per-core hotspot contributions for
/// the big cores active under `mapping` — the sensor read shared by
/// [`Simulation`] and the scenario engine (`&mut` because TMU-style banks
/// advance their deterministic noise stream). The hotspot powers are
/// [`HotspotSplit`]'s, at the big node's temperature.
pub fn read_sensors_for(
    board: &mut Board,
    mapping: CpuMapping,
    freqs: ClusterFreqs,
    cpu_busy: bool,
    activity: f64,
) -> SensorReadings {
    let big_c = board.thermal.temp(board.nodes.big);
    let gpu_c = board.thermal.temp(board.nodes.gpu);
    let core_power = HotspotSplit::fold(board, mapping, freqs, cpu_busy, activity).eval(big_c);
    board.sensors.read_with_hotspots(big_c, &core_power, gpu_c)
}

/// The big-core hotspot powers the per-core sensors see, with
/// everything but the node temperature folded: each of the
/// `mapping.big` active big cores draws one core's dynamic power plus an
/// even split of the cluster leakage at the node temperature.
///
/// The one derivation of hotspot power: [`read_sensors_for`] folds one
/// per read, the lockstep pool keeps one per lane and refolds it when
/// the frequencies or busy flags change (the only inputs the factors
/// depend on), and the offline evaluator folds one per phase. An
/// evaluation is one exponential in the node temperature, through
/// [`exp_exact`](crate::exp_exact), which returns `f64::exp`'s bits, so
/// it matches [`PowerParams`](crate::PowerParams)'s per-core dynamic and
/// leakage expressions bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct HotspotSplit {
    active: u32,
    dyn_core: f64,
    leak_vv: f64,
    gate: f64,
    alpha: f64,
    ref_c: f64,
}

impl HotspotSplit {
    /// Folds the temperature-independent factors for one operating
    /// point: `mapping.big` active cores at `freqs.big`, at full
    /// utilisation while `cpu_busy`, with switching `activity`.
    pub fn fold(
        board: &Board,
        mapping: CpuMapping,
        freqs: ClusterFreqs,
        cpu_busy: bool,
        activity: f64,
    ) -> Self {
        let active = mapping.big;
        if active == 0 {
            return HotspotSplit::default();
        }
        let volts = board.big_opps.volts_at(freqs.big);
        let util = if cpu_busy { 1.0 } else { 0.03 };
        HotspotSplit {
            active,
            dyn_core: board
                .big_power
                .dynamic_w(volts, freqs.big.as_hz(), 1, util, activity),
            // The scalar chain is (((scale·v)·v)·e)·gate — fold the
            // left prefix so the association (and the bits) survive.
            leak_vv: board.big_power.leak_scale_w * volts * volts,
            gate: 0.25 + 0.75 * f64::from(active) / f64::from(board.big_power.cores),
            alpha: board.big_power.leak_alpha,
            ref_c: board.big_power.leak_ref_c,
        }
    }

    /// Per-core hotspot powers, watts, with the big node at `big_c`;
    /// cores past `mapping.big` read zero.
    #[inline]
    pub fn eval(&self, big_c: f64) -> [f64; 4] {
        let mut core_power = [0.0_f64; 4];
        if self.active > 0 {
            let e = crate::fastexp::exp_exact(self.alpha * (big_c - self.ref_c));
            let leak_core = self.leak_vv * e * self.gate / f64::from(self.active);
            for slot in core_power.iter_mut().take(self.active as usize) {
                *slot = self.dyn_core + leak_core;
            }
        }
        core_power
    }
}

/// Clamps every requested frequency to its cluster's OPP table
/// (`at_or_below`, as the kernel's cpufreq layer does).
pub fn clamp_freqs(board: &Board, f: ClusterFreqs) -> ClusterFreqs {
    ClusterFreqs {
        big: board.big_opps.at_or_below(f.big).freq,
        little: board.little_opps.at_or_below(f.little).freq,
        gpu: board.gpu_opps.at_or_below(f.gpu).freq,
    }
}

fn progress(done: f64, total: f64) -> f64 {
    if total <= 0.0 {
        1.0
    } else {
        (done / total).min(1.0)
    }
}

fn single(t: f64) -> teem_telemetry::TimeSeries {
    teem_telemetry::TimeSeries::from_pairs(&[(t, 0.0)])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial manager that pins all clusters at maximum.
    struct PinMax;

    impl Manager for PinMax {
        fn name(&self) -> &str {
            "pin-max"
        }

        fn control(&mut self, view: &SocView, ctl: &mut SocControl) {
            let _ = view;
            ctl.set_big_freq(MHz(2000));
            ctl.set_little_freq(MHz(1400));
            ctl.set_gpu_freq(MHz(600));
        }
    }

    /// A manager that pins a fixed big frequency (userspace-like).
    struct PinBig(MHz);

    impl Manager for PinBig {
        fn name(&self) -> &str {
            "pin-big"
        }

        fn control(&mut self, _view: &SocView, ctl: &mut SocControl) {
            ctl.set_big_freq(self.0);
        }
    }

    /// `model`'s node power vector at `temps`.
    fn powers(model: &NodePowerModel, temps: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; temps.len()];
        model.eval_into(temps, &mut p);
        p
    }

    fn cv_spec() -> RunSpec {
        RunSpec {
            app: App::Covariance,
            mapping: CpuMapping::new(2, 3),
            partition: Partition::even(),
            initial: ClusterFreqs {
                big: MHz(2000),
                little: MHz(1400),
                gpu: MHz(600),
            },
        }
    }

    #[test]
    fn run_completes_and_reports() {
        let mut sim = Simulation::new(Board::odroid_xu4_ideal(), cv_spec());
        let mut mgr = PinMax;
        let r = sim.run(&mut mgr);
        assert!(!r.timed_out, "run timed out");
        assert!(
            r.summary.execution_time_s > 5.0,
            "{}",
            r.summary.execution_time_s
        );
        assert!(r.summary.execution_time_s < 200.0);
        assert!(r.summary.energy_j > 50.0);
        assert!(r.summary.peak_temp_c > 70.0);
        assert_eq!(r.summary.approach, "pin-max");
        assert_eq!(r.summary.app, "COVARIANCE");
        // Energy breakdown sums to the meter's total.
        let (b, l, g, bo) = r.energy_breakdown_j;
        assert!((b + l + g + bo - r.summary.energy_j).abs() < 1.0);
    }

    #[test]
    fn max_frequency_run_trips_the_stock_zone() {
        // The Fig. 1(a) phenomenon: pinned at 2 GHz, COVARIANCE must reach
        // the 95 C trip and throttle at least once.
        let mut sim = Simulation::new(Board::odroid_xu4_ideal(), cv_spec());
        let r = sim.run(&mut PinMax);
        assert!(r.zone_trips >= 1, "no thermal trip at max frequency");
        assert!(
            r.summary.peak_temp_c >= 95.0,
            "peak {}",
            r.summary.peak_temp_c
        );
        // Frequency trace must show the 900 MHz cap.
        let fmin = r.trace.stats("freq.big").unwrap().min();
        assert_eq!(fmin, 900.0);
    }

    #[test]
    fn mid_frequency_run_stays_below_trip() {
        let mut sim = Simulation::new(Board::odroid_xu4_ideal(), cv_spec());
        let r = sim.run(&mut PinBig(MHz(1400)));
        assert_eq!(r.zone_trips, 0, "unexpected trip at 1400 MHz");
        assert!(
            r.summary.peak_temp_c < 95.0,
            "peak {}",
            r.summary.peak_temp_c
        );
    }

    #[test]
    fn lower_frequency_is_slower() {
        // Both stay below the trip (see mid_frequency_run_stays_below_trip),
        // so the zone never caps either run.
        let run = |f| {
            let r = Simulation::new(Board::odroid_xu4_ideal(), cv_spec()).run(&mut PinBig(f));
            assert_eq!(r.zone_trips, 0, "trip at {f}");
            r.summary.execution_time_s
        };
        let (et_fast, et_slow) = (run(MHz(1400)), run(MHz(1000)));
        assert!(et_slow > et_fast, "{et_slow} <= {et_fast}");
    }

    #[test]
    fn gpu_only_spec_ignores_cpu() {
        let spec = RunSpec {
            mapping: CpuMapping::new(0, 0),
            partition: Partition::all_gpu(),
            ..cv_spec()
        };
        let mut sim = Simulation::new(Board::odroid_xu4_ideal(), spec);
        let r = sim.run(&mut PinBig(MHz(2000)));
        assert!(!r.timed_out);
        // Big cluster idles: far less energy in the big domain than a
        // CPU-involved run.
        let (big_j, _, gpu_j, _) = r.energy_breakdown_j;
        assert!(gpu_j > big_j, "gpu {gpu_j} J vs big {big_j} J");
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut sim = Simulation::new(Board::odroid_xu4(), cv_spec());
            sim.run(&mut PinMax).summary
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn soccontrol_reports_all_three_requests() {
        let mut ctl = SocControl::default();
        assert_eq!(ctl.big_request(), None);
        assert_eq!(ctl.little_request(), None);
        assert_eq!(ctl.gpu_request(), None);
        ctl.set_big_freq(MHz(1800));
        ctl.set_little_freq(MHz(1200));
        ctl.set_gpu_freq(MHz(480));
        assert_eq!(ctl.big_request(), Some(MHz(1800)));
        assert_eq!(ctl.little_request(), Some(MHz(1200)));
        assert_eq!(ctl.gpu_request(), Some(MHz(480)));
    }

    #[test]
    fn soccontrol_apply_quantises_requests_onto_the_opp_tables() {
        let board = Board::odroid_xu4_ideal();
        let mut freqs = ClusterFreqs {
            big: MHz(1000),
            little: MHz(1000),
            gpu: MHz(420),
        };
        let mut ctl = SocControl::default();
        // Between two A15 OPPs: rounds down.
        ctl.set_big_freq(MHz(1850));
        // Above the A7 maximum: clamps to it.
        ctl.set_little_freq(MHz(5000));
        ctl.apply(&board, &mut freqs);
        assert_eq!(freqs.big, MHz(1800));
        assert_eq!(freqs.little, MHz(1400));
        // No GPU request: the GPU keeps its frequency.
        assert_eq!(freqs.gpu, MHz(420));
        // A request between Mali OPPs rounds down too.
        ctl.set_gpu_freq(MHz(500));
        ctl.apply(&board, &mut freqs);
        assert_eq!(freqs.gpu, MHz(480));
        // An empty control changes nothing.
        let before = freqs;
        SocControl::default().apply(&board, &mut freqs);
        assert_eq!(freqs, before);
    }

    #[test]
    fn shared_power_model_matches_engine_path() {
        // The extracted helper must agree with what a busy run injects.
        let board = Board::odroid_xu4_ideal();
        let freqs = ClusterFreqs {
            big: MHz(1600),
            little: MHz(1400),
            gpu: MHz(600),
        };
        let temps = vec![70.0; board.thermal.len()];
        let chars = App::Covariance.characteristics();
        let busy = powers(
            &NodePowerModel::single_app(
                &board,
                CpuMapping::new(2, 3),
                freqs,
                true,
                true,
                chars.activity,
            ),
            &temps,
        );
        let idle = powers(
            &NodePowerModel::idle(&board, ClusterFreqs::min_of(&board)),
            &temps,
        );
        assert_eq!(busy.len(), board.thermal.len());
        // Busy dominates idle on every active silicon node.
        assert!(busy[board.nodes.big] > idle[board.nodes.big] * 3.0);
        assert!(busy[board.nodes.gpu] > idle[board.nodes.gpu] * 3.0);
        // Board overhead is load-independent.
        assert_eq!(busy[board.nodes.board], idle[board.nodes.board]);
    }

    #[test]
    fn co_run_with_one_share_is_bit_identical_to_single_app() {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let freqs = ClusterFreqs {
            big: MHz(1800),
            little: MHz(1400),
            gpu: MHz(543),
        };
        let temps = [81.5, 60.25, 72.125, 45.0];
        for &(cpu_busy, gpu_busy) in &[(true, true), (true, false), (false, true), (false, false)] {
            let a = powers(
                &NodePowerModel::single_app(
                    &board,
                    CpuMapping::new(2, 3),
                    freqs,
                    cpu_busy,
                    gpu_busy,
                    chars.activity,
                ),
                &temps,
            );
            let b = powers(
                &NodePowerModel::co_run(
                    &board,
                    &[CoRunShare {
                        mapping: CpuMapping::new(2, 3),
                        cpu_busy,
                        gpu_busy,
                        activity: chars.activity,
                    }],
                    freqs,
                ),
                &temps,
            );
            assert_eq!(a, b, "single-share delegation busy=({cpu_busy},{gpu_busy})");
        }
        // Zero shares: the idle model.
        let a = powers(&NodePowerModel::idle(&board, freqs), &temps);
        let b = powers(&NodePowerModel::co_run(&board, &[], freqs), &temps);
        assert_eq!(a, b, "empty-share delegation");
    }

    #[test]
    fn co_run_superposition_is_bounded_by_solo_runs() {
        // Two apps on disjoint big cores draw more than either alone but
        // less than the sum of their solo draws (leakage, uncore and the
        // GPU are shared, not duplicated).
        let board = Board::odroid_xu4_ideal();
        let freqs = ClusterFreqs {
            big: MHz(2000),
            little: MHz(1400),
            gpu: MHz(600),
        };
        let temps = vec![75.0; board.thermal.len()];
        let a = CoRunShare {
            mapping: CpuMapping::new(2, 2),
            cpu_busy: true,
            gpu_busy: true,
            activity: 1.0,
        };
        let b = CoRunShare {
            mapping: CpuMapping::new(2, 2),
            cpu_busy: true,
            gpu_busy: true,
            activity: 0.65,
        };
        let co_run =
            |shares: &[CoRunShare]| powers(&NodePowerModel::co_run(&board, shares, freqs), &temps);
        let (solo_a, solo_b, both) = (co_run(&[a]), co_run(&[b]), co_run(&[a, b]));
        let (sa, sb, sc): (f64, f64, f64) =
            (solo_a.iter().sum(), solo_b.iter().sum(), both.iter().sum());
        assert!(sc > sa && sc > sb, "co-run draws more than either solo");
        assert!(sc < sa + sb, "shared leakage/uncore/GPU not double-charged");
        // The big-domain dynamic power superposes: 4 busy cores' worth.
        let four = co_run(&[CoRunShare {
            mapping: CpuMapping::new(4, 4),
            cpu_busy: true,
            gpu_busy: true,
            activity: 1.0,
        }]);
        assert!(both[board.nodes.big] <= four[board.nodes.big] + 1e-9);
    }

    #[test]
    fn co_run_dynamic_weights_track_cause_not_headcount() {
        let board = Board::odroid_xu4_ideal();
        let freqs = ClusterFreqs {
            big: MHz(1800),
            little: MHz(1400),
            gpu: MHz(543),
        };
        let share = |big: u32, gpu_busy: bool, activity: f64| CoRunShare {
            mapping: CpuMapping::new(1, big),
            cpu_busy: true,
            gpu_busy,
            activity,
        };
        let mut w = Vec::new();

        // Same cores, higher activity: strictly heavier weight.
        co_run_dynamic_weights(
            &board,
            &[share(2, false, 1.0), share(2, false, 0.65)],
            freqs,
            &mut w,
        );
        assert_eq!(w.len(), 2);
        assert!(w[0] > w[1], "activity 1.0 must outweigh 0.65: {w:?}");

        // The GPU's dynamic draw splits evenly across its sharers.
        co_run_dynamic_weights(
            &board,
            &[share(0, true, 1.0), share(0, true, 1.0)],
            freqs,
            &mut w,
        );
        assert!((w[0] - w[1]).abs() < 1e-12, "equal sharers, equal weight");
        let both = w[0];
        co_run_dynamic_weights(
            &board,
            &[share(0, true, 1.0), share(0, false, 1.0)],
            freqs,
            &mut w,
        );
        assert!(
            w[0] > both,
            "a lone GPU user owns the whole device's dynamic draw"
        );

        // All-idle shares: weights collapse to (near) zero on the CPU
        // side only via the util floors — a fully coreless idle share is
        // exactly zero, the caller's equal-split fallback case.
        co_run_dynamic_weights(
            &board,
            &[
                CoRunShare {
                    mapping: CpuMapping::new(0, 0),
                    cpu_busy: false,
                    gpu_busy: false,
                    activity: 1.0,
                },
                CoRunShare {
                    mapping: CpuMapping::new(0, 0),
                    cpu_busy: false,
                    gpu_busy: false,
                    activity: 1.0,
                },
            ],
            freqs,
            &mut w,
        );
        assert_eq!(w, vec![0.0, 0.0]);
    }

    #[test]
    fn idle_board_cools_toward_ambient() {
        let mut board = Board::odroid_xu4_ideal();
        for i in 0..board.thermal.len() {
            board.thermal.set_temp(i, 85.0);
        }
        let idle = NodePowerModel::idle(&board, ClusterFreqs::min_of(&board));
        // The board lump's time constant is minutes; integrate well past
        // it (temperature-dependent leakage keeps this a fixed point
        // iteration rather than one steady-state solve).
        for _ in 0..50 {
            let p = powers(&idle, board.thermal.temps());
            board.thermal.step(60.0, &p);
        }
        // Idle dissipation is ~2.7 W: the die settles ~10 C over ambient.
        let big = board.thermal.temp(board.nodes.big);
        assert!(big < 38.0, "idle big node still at {big} C");
        assert!(big > board.thermal.ambient_c() - 1e-9);
    }

    #[test]
    fn timeout_is_reported() {
        let mut sim = Simulation::new(Board::odroid_xu4_ideal(), cv_spec());
        sim.timeout_s = 1.0;
        let r = sim.run(&mut PinMax);
        assert!(r.timed_out);
        assert!(r.summary.execution_time_s <= 1.0 + 0.011);
    }

    /// The per-core hotspot powers as the engines derived them before
    /// [`HotspotSplit`] folded them, kept as the reference: each of the
    /// `mapping.big` active big cores draws one core's dynamic power plus
    /// an even split of the cluster leakage at `big_c`, every term
    /// re-derived through [`PowerParams`](crate::PowerParams).
    fn reference_hotspot_powers(
        board: &Board,
        big_c: f64,
        mapping: CpuMapping,
        freqs: ClusterFreqs,
        cpu_busy: bool,
        activity: f64,
    ) -> [f64; 4] {
        let active = mapping.big;
        let mut core_power = [0.0_f64; 4];
        if active > 0 {
            let volts = board.big_opps.volts_at(freqs.big);
            let util = if cpu_busy { 1.0 } else { 0.03 };
            let dyn_core = board
                .big_power
                .dynamic_w(volts, freqs.big.as_hz(), 1, util, activity);
            let leak_core = board.big_power.leakage_w(volts, big_c, active) / f64::from(active);
            for slot in core_power.iter_mut().take(active as usize) {
                *slot = dyn_core + leak_core;
            }
        }
        core_power
    }

    /// [`HotspotSplit::eval`] must reproduce [`reference_hotspot_powers`]
    /// bit-for-bit at every operating point the engines can fold.
    #[test]
    fn hotspot_split_matches_scalar_bits() {
        let board = Board::odroid_xu4_ideal();
        for &big in &[MHz(200), MHz(900), MHz(1400), MHz(2000)] {
            for &active in &[0u32, 1, 2, 4] {
                for &cpu_busy in &[false, true] {
                    for &activity in &[0.0, 0.35, 1.0] {
                        let mapping = CpuMapping::new(4u32.saturating_sub(active), active);
                        let freqs = ClusterFreqs {
                            big,
                            little: MHz(1400),
                            gpu: MHz(600),
                        };
                        let split = HotspotSplit::fold(&board, mapping, freqs, cpu_busy, activity);
                        let mut t = 15.0;
                        while t <= 100.0 {
                            let want = reference_hotspot_powers(
                                &board, t, mapping, freqs, cpu_busy, activity,
                            );
                            let got = split.eval(t);
                            for core in 0..4 {
                                assert_eq!(
                                    got[core].to_bits(),
                                    want[core].to_bits(),
                                    "core {core} at {t} C, big {big:?}, active {active}, \
                                     busy {cpu_busy}, activity {activity}"
                                );
                            }
                            t += 0.7;
                        }
                    }
                }
            }
        }
    }
}
