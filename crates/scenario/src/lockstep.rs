//! The batched lockstep execution path: K sweep cells stepped in SIMD
//! lockstep through one shared [`ThermalBatch`].
//!
//! A sweep grid multiplies a handful of scenarios by knob axes, so at
//! any instant a worker holds many cells running the *same physics* at
//! different operating points. The scalar loop steps them one at a
//! time, one thermal network per kernel call. Even between events,
//! where it runs only the step tail and rebuilds its power shares only
//! on a span's first step or a busy-flag flip, that tail still walks
//! the cell's jobs and its energy accounts through the full simulation
//! state every 10 ms tick, although a solo cell's inputs only change
//! at control decisions. This module exploits both redundancies:
//!
//! * **SoA thermal lockstep** — each admitted cell owns one lane of a
//!   [`ThermalBatch`]; one [`ThermalBatch::step`] integrates all K RC
//!   networks through the autovectorized `F64xN` kernel.
//! * **Frozen operating points** — between control ticks a solo cell's
//!   effective frequencies, power coefficients and progress rates are
//!   provably constant, so the fast path loads them once (the
//!   [`NodePowerModel`] into the batch's power planes, the per-step
//!   progress increments into the hot planes), skips the phases that
//!   cannot change them, and re-derives them only at a control tick
//!   that moves the frequencies or at a busy-flag flip.
//!
//! # Exactness, not approximation
//!
//! The pool produces **bit-identical** results to the scalar loop; the
//! parity suite pins it. Three mechanisms make that provable:
//!
//! 1. Cells are admitted only while [`eligible_for_lockstep`]: a single
//!    active app, queue drained, timeline exhausted, thermal zone idle
//!    and below trip. In that regime every scalar phase the fast path
//!    skips (event dispatch, launches, gap fast-forward, per-step zone
//!    polling below trip) is a no-op by its own guard.
//! 2. The phases the fast path *does* run follow the scalar step's order
//!    (timeout, sample and trip check, control and actuation, progress)
//!    through the same [`CellSim`] methods as the scalar loop
//!    (`record_sample`, `phase_control`, `phase_actuate`,
//!    `phase_completions`), and each lane's one copy of its power model,
//!    hotspot split and progress increments comes from the derivations
//!    the scalar loop uses: [`NodePowerModel::single_app`] (its SoA
//!    transposition pinned bitwise by the `teem-soc` batch tests),
//!    [`HotspotSplit`] and the job's own progress-increment memo. A due
//!    sample reads the lane's
//!    own sensor bank with
//!    [`SensorBank::read_with_hotspots`](teem_soc::SensorBank::read_with_hotspots),
//!    at the lane's SoA temperatures.
//! 3. **Divergence is a handoff, not a special case.** The moment a
//!    lane leaves the fast regime — a sensor sample at or above the
//!    zone's trip point, or the executor timeout — its thermal state is
//!    stored back to its own board and the cell returns to the scalar
//!    [`ScenarioRunner::step_cell`] loop at a phase boundary the scalar
//!    loop itself would have reached. Sibling lanes are untouched.

use teem_soc::{
    BatchPowerModel, BatchScratch, HotspotSplit, NodePowerModel, StepObs, ThermalBatch,
    ThermalModel, DT_S,
};
use teem_workload::bandwidth_slowdown;

use crate::exec::{combined_mapping, CellSim, ScenarioRunner};

/// `true` when `sim` is in the regime the lockstep fast path models
/// exactly: one active app, nothing queued, no timeline events left,
/// the reactive thermal zone idle and not tripped by the latest sensor
/// reading ([`teem_soc::ThermalZone::trips_at`]), and the executor
/// timeout not yet reached.
///
/// Under these invariants the scalar phases the fast path skips are
/// all provably no-ops: the event loop's cursor is exhausted, the
/// launch loop breaks on the empty queue, the gap fast-forward needs an
/// empty active set, and an idle zone's `update` at a reading that
/// does not trip it returns `None` without mutating state.
pub(crate) fn eligible_for_lockstep(sim: &CellSim) -> bool {
    sim.active.len() == 1
        && sim.queue.is_empty()
        && sim.next_ev >= sim.events.len()
        && !sim.zone.is_capping()
        && !sim.zone.trips_at(sim.readings.max_c())
        && !sim.timed_out
        && sim.t < sim.timeout_s
}

/// Per-lane counter snapshots taken at (re)admission, from which the
/// step/sub-step counters are *derived* at every flush instead of being
/// incremented per lane per round: while resident, a lane gains exactly
/// one step, one batched step, and one fixed sub-step block per round,
/// so `counter = base + (step_idx − step_idx₀)` reproduces the scalar
/// loop's per-step `+= 1` bookkeeping with zero work in the inner loop.
#[derive(Clone, Copy, Default)]
struct LaneBases {
    step_idx0: u64,
    steps0: u64,
    batched0: u64,
    substeps0: u64,
}

/// The per-step-mutable slice of every lane's state, mirrored out of
/// the sprawling [`CellSim`]s into struct-of-arrays planes the lockstep
/// inner loop keeps cache-resident: a round's pre/post passes are
/// branch-free sweeps over these vectors (plus the SoA batch planes)
/// and never touch the K scattered multi-kilobyte simulations.
///
/// # Sync protocol
///
/// The planes **own** their slots while a lane is resident: the fast
/// path mutates only the hot copy. Before any call back into `CellSim`
/// code (a sensor sample, a control/actuate pass, completion handling,
/// retirement), [`HotPlanes::flush`] writes the owned fields back;
/// after the call, the mirrors the sim may have moved are re-read — all
/// of them via [`HotPlanes::reload`] at admission, or just
/// `next_control` and the progress increments after a control/actuate
/// pass (the only fields those phases can touch). Every mirrored
/// expression the fast path evaluates — progress increments, `done()`
/// comparisons, energy accounting, the `t = step_idx · DT_S` clock — is
/// the identical IEEE expression on identical values, so residency
/// moves without touching a single bit.
#[derive(Default)]
struct HotPlanes {
    // Owned while resident (flushed back to the sim at boundaries).
    t: Vec<f64>,
    /// The step index as an (exact) float — advanced by `+= 1.0` in the
    /// post-thermal vector pass so the `t = step_idx · DT_S` clock needs
    /// no int→float conversion. Bit-equal to the scalar counter's
    /// conversion while `step_idx < 2⁵³` (campaign cells run thousands
    /// of steps, nowhere near it).
    step_f: Vec<f64>,
    energy_j: Vec<f64>,
    busy_s: Vec<f64>,
    last_total_w: Vec<f64>,
    cpu_done: Vec<f64>,
    gpu_done: Vec<f64>,
    job_energy_j: Vec<f64>,
    // Read-only mirrors (refreshed from the sim after sync points).
    next_sample: Vec<f64>,
    next_control: Vec<f64>,
    timeout_s: Vec<f64>,
    cpu_items: Vec<f64>,
    gpu_items: Vec<f64>,
    inc_cpu: Vec<f64>,
    inc_gpu: Vec<f64>,
    cpu_has_mapping: Vec<bool>,
    // Fast-path-only state (no sim twin).
    /// The busy flags the lane's power model and hotspot split were
    /// derived with (the scalar loop's `!cpu_done()` / `!gpu_done()`
    /// share flags).
    cpu_busy: Vec<bool>,
    gpu_busy: Vec<bool>,
    /// Set when a busy flag flipped during the previous step's progress
    /// phase (or at admission): the next step must run the
    /// control/actuate phases because `arbitrate_freqs` may now pick
    /// different frequencies — exactly when the scalar loop's
    /// every-step actuation could first produce a different result.
    flags_dirty: Vec<bool>,
    live: Vec<bool>,
    /// Counter snapshots for the derived-at-flush step accounting.
    bases: Vec<LaneBases>,
}

impl HotPlanes {
    fn new(k: usize) -> Self {
        HotPlanes {
            t: vec![0.0; k],
            step_f: vec![0.0; k],
            energy_j: vec![0.0; k],
            busy_s: vec![0.0; k],
            last_total_w: vec![0.0; k],
            cpu_done: vec![0.0; k],
            gpu_done: vec![0.0; k],
            job_energy_j: vec![0.0; k],
            next_sample: vec![0.0; k],
            next_control: vec![0.0; k],
            timeout_s: vec![0.0; k],
            cpu_items: vec![0.0; k],
            gpu_items: vec![0.0; k],
            inc_cpu: vec![0.0; k],
            inc_gpu: vec![0.0; k],
            cpu_has_mapping: vec![false; k],
            cpu_busy: vec![false; k],
            gpu_busy: vec![false; k],
            flags_dirty: vec![false; k],
            live: vec![false; k],
            bases: vec![LaneBases::default(); k],
        }
    }

    /// Writes slot `slot`'s owned fields back into `sim` — the exact
    /// bits the scalar loop would hold at this boundary. The step and
    /// sub-step counters are derived from the admission bases plus the
    /// rounds lived since (`subs` sub-steps each — the count is a pure
    /// function of [`DT_S`] and the topology, so it is constant across a
    /// residency); when zero rounds have elapsed `subs` is never
    /// consulted.
    fn flush(&self, slot: usize, sim: &mut CellSim, subs: u64) {
        sim.t = self.t[slot];
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let step_idx = self.step_f[slot] as u64;
        sim.step_idx = step_idx;
        sim.energy_j = self.energy_j[slot];
        sim.busy_s = self.busy_s[slot];
        sim.last_total_w = self.last_total_w[slot];
        let b = self.bases[slot];
        let d = step_idx - b.step_idx0;
        sim.scratch.obs.steps = b.steps0 + d;
        sim.scratch.obs.batched_steps = b.batched0 + d;
        sim.scratch.obs.substeps = b.substeps0 + d * subs;
        let j = &mut sim.active[0];
        j.cpu_done_items = self.cpu_done[slot];
        j.gpu_done_items = self.gpu_done[slot];
        j.energy_j = self.job_energy_j[slot];
    }

    /// Re-reads every mirrored field of slot `slot` from `sim`, derives
    /// its progress increments and busy flags, and re-snapshots the
    /// counter bases (dirtiness and liveness are fast-path state and
    /// survive untouched).
    #[allow(clippy::cast_precision_loss)] // step_idx ≪ 2⁵³
    fn reload(&mut self, slot: usize, sim: &mut CellSim) {
        (self.inc_cpu[slot], self.inc_gpu[slot]) = solo_increments(sim);
        self.t[slot] = sim.t;
        self.step_f[slot] = sim.step_idx as f64;
        self.energy_j[slot] = sim.energy_j;
        self.busy_s[slot] = sim.busy_s;
        self.last_total_w[slot] = sim.last_total_w;
        self.bases[slot] = LaneBases {
            step_idx0: sim.step_idx,
            steps0: sim.scratch.obs.steps,
            batched0: sim.scratch.obs.batched_steps,
            substeps0: sim.scratch.obs.substeps,
        };
        let j = &sim.active[0];
        self.cpu_done[slot] = j.cpu_done_items;
        self.gpu_done[slot] = j.gpu_done_items;
        self.job_energy_j[slot] = j.energy_j;
        self.next_sample[slot] = sim.next_sample;
        self.next_control[slot] = j.next_control;
        self.timeout_s[slot] = sim.timeout_s;
        self.cpu_items[slot] = j.cpu_items;
        self.gpu_items[slot] = j.gpu_items;
        self.cpu_has_mapping[slot] = !j.mapping.is_empty();
        self.cpu_busy[slot] = !j.cpu_done();
        self.gpu_busy[slot] = !j.gpu_done();
    }

    /// Clears slot `slot` back to the vacant state.
    fn clear(&mut self, slot: usize) {
        self.live[slot] = false;
        self.flags_dirty[slot] = false;
    }
}

/// The solo job's per-step progress increments, read through the scalar
/// progress phase's own memo
/// ([`ActiveJob::increments`](crate::exec::ActiveJob::increments)) with
/// the scalar loop's inputs for a lone app: the total pressure is the
/// app's own sensitivity, and one GPU sharer.
fn solo_increments(sim: &mut CellSim) -> (f64, f64) {
    let effective = sim.effective;
    let j = &mut sim.active[0];
    let total_pressure = j.chars.mem_sensitivity;
    let s = bandwidth_slowdown(
        j.chars.mem_sensitivity,
        total_pressure - j.chars.mem_sensitivity,
    );
    j.increments(effective, s, 1.0)
}

/// Derives slot `slot`'s operating point from its cell: the frozen
/// power model, straight into the batch's power planes, and the
/// sample-time hotspot split, both at the cell's effective frequencies
/// and the hot planes' busy flags. Runs at admission, on a busy-flag
/// flip and when actuation moves the frequencies — the only times an
/// input moves (the mapping and activity are the job's own).
fn load_operating_point(
    p: &HotPlanes,
    lane: &mut PoolLane,
    power: &mut BatchPowerModel,
    slot: usize,
) {
    let sim = &lane.sim;
    let j = &sim.active[0];
    let (cpu_busy, gpu_busy) = (p.cpu_busy[slot], p.gpu_busy[slot]);
    power.set_lane(
        slot,
        &NodePowerModel::single_app(
            &sim.board,
            j.mapping,
            sim.effective,
            cpu_busy,
            gpu_busy,
            j.chars.activity,
        ),
    );
    // The scalar sensing phase's inputs for a lone app: its mapping
    // through `combined_mapping`, and the activity fold
    // `max(f64::MIN, activity)`, which is `activity` bit for bit.
    lane.hotspot = HotspotSplit::fold(
        &sim.board,
        combined_mapping(&sim.active, sim.cluster_cores),
        sim.effective,
        cpu_busy,
        j.chars.activity,
    );
}

/// One cell resident in the pool: its runner, its suspended simulation,
/// the hotspot split its sensor samples read, and the bookkeeping for
/// the occupancy metric.
struct PoolLane {
    runner: ScenarioRunner,
    sim: CellSim,
    /// The sensing phase's hotspot split at the lane's operating point
    /// ([`load_operating_point`]), so a due sample costs one `exp`.
    hotspot: HotspotSplit,
    /// Caller-supplied identifier (the sweep uses the cell index).
    token: usize,
    /// `sim.scratch.obs.steps` at admission — the denominator baseline
    /// for the lane-occupancy metric.
    steps_at_entry: u64,
}

/// A cell leaving the pool, back in the caller's hands.
pub(crate) struct RetiredLane {
    /// The cell's runner, unchanged.
    pub(crate) runner: ScenarioRunner,
    /// The suspended simulation, its board's thermal state synced back
    /// from the batch lane. Positioned at a boundary the scalar
    /// [`ScenarioRunner::step_cell`] loop resumes exactly.
    pub(crate) sim: CellSim,
    /// The identifier the caller admitted the cell with.
    pub(crate) token: usize,
    /// `steps` at admission, for the occupancy metric.
    pub(crate) steps_at_entry: u64,
}

/// A K-lane lockstep pool over one shared [`ThermalBatch`].
///
/// The caller admits eligible cells ([`LockstepPool::admit`]), calls
/// [`LockstepPool::step_round`] while any lane is occupied, and
/// finishes every [`RetiredLane`] through the scalar
/// `step_cell`/`finish_cell` path (a completed lane terminates on the
/// first `step_cell` call, so both exit kinds share one code path).
pub(crate) struct LockstepPool {
    batch: ThermalBatch,
    scratch: BatchScratch,
    /// Every resident lane's frozen power coefficients in node-major
    /// SoA planes, loaded by [`load_operating_point`].
    power: BatchPowerModel,
    /// Per-lane total draw from the last power sweep (node-order sums,
    /// the scalar loop's `power.iter().sum()` bits).
    totals: Vec<f64>,
    /// The per-step-mutable mirror of each lane's state in SoA planes —
    /// the only per-lane memory the round's pre/post passes touch.
    /// Parallel to `lanes`; `hot.live[i]` tracks `lanes[i].is_some()`.
    hot: HotPlanes,
    /// Sub-steps per round — refreshed after every batched thermal step
    /// (it is a pure function of [`DT_S`] and the topology, so any
    /// round's value serves the whole residency) and consumed by the
    /// derived sub-step accounting at flush.
    subs_per_round: u64,
    lanes: Vec<Option<PoolLane>>,
    /// Pool-level step observability: the batched power/thermal and
    /// the lanes' sensor-read wall-time split (the per-cell kernels keep
    /// their own step and sub-step counts). Zero unless constructed
    /// instrumented.
    pub(crate) obs: StepObs,
    /// Lockstep rounds executed (each is one batched thermal step).
    pub(crate) rounds: u64,
    /// Lane-steps executed (live lanes summed over rounds).
    pub(crate) lane_steps: u64,
    /// Lane-slots offered (K × rounds) — the utilization denominator.
    pub(crate) lane_slots: u64,
}

impl LockstepPool {
    /// A pool of `k` lanes over `reference`'s thermal topology.
    /// Admission re-checks each cell's board against the batch, so a
    /// mismatching cell degrades to the scalar path instead of
    /// corrupting the lockstep.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub(crate) fn new(k: usize, reference: &ThermalModel, instrument: bool) -> Self {
        assert!(k >= 1, "a lockstep pool needs at least one lane");
        // The round's event/flip sets travel as u64 bitmasks; 64 lanes
        // is already far past the throughput sweet spot (and the sweep
        // API enforces the same bound).
        assert!(k <= 64, "a lockstep pool caps at 64 lanes");
        let batch = ThermalBatch::like(reference, k);
        let scratch = BatchScratch::for_batch(&batch);
        let power = BatchPowerModel::for_batch(&batch);
        let totals = vec![0.0; batch.stride()];
        let obs = StepObs {
            enabled: instrument,
            ..StepObs::default()
        };
        LockstepPool {
            batch,
            scratch,
            power,
            totals,
            hot: HotPlanes::new(k),
            subs_per_round: 0,
            lanes: (0..k).map(|_| None).collect(),
            obs,
            rounds: 0,
            lane_steps: 0,
            lane_slots: 0,
        }
    }

    /// The lane count K.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// `true` when at least one lane is free.
    pub(crate) fn has_free_lane(&self) -> bool {
        self.lanes.iter().any(Option::is_none)
    }

    /// `true` when no lane is occupied.
    pub(crate) fn is_empty(&self) -> bool {
        self.lanes.iter().all(Option::is_none)
    }

    /// `true` when `model` has the batch's exact topology — the same
    /// check admission applies. Exposed so the sweep's worker loop can
    /// rebuild a drained pool at a board-axis boundary instead of
    /// degrading every cell of the new board to scalar.
    pub(crate) fn matches_topology(&self, model: &ThermalModel) -> bool {
        self.batch.matches(model)
    }

    /// Admits a cell into a free lane. Returns the cell unchanged when
    /// it is not [`eligible_for_lockstep`], its thermal topology does
    /// not match the pool, or no lane is free — the caller runs it
    /// scalar instead.
    // The Err variant intentionally hands the (large) cell back by
    // value — the caller owns it either way; no heap indirection needed.
    #[allow(clippy::result_large_err)]
    pub(crate) fn admit(
        &mut self,
        runner: ScenarioRunner,
        mut sim: CellSim,
        token: usize,
    ) -> Result<(), (ScenarioRunner, CellSim, usize)> {
        let slot = self.lanes.iter().position(Option::is_none);
        let Some(slot) = slot else {
            return Err((runner, sim, token));
        };
        if !eligible_for_lockstep(&sim) || !self.batch.matches(&sim.board.thermal) {
            return Err((runner, sim, token));
        }
        self.batch.load_lane(slot, &sim.board.thermal);
        self.hot.reload(slot, &mut sim);
        // Conservative: force one control/actuate pass on the first
        // batched step, matching the scalar loop's unconditional
        // per-step actuation without having to prove anything about
        // the admission instant.
        self.hot.flags_dirty[slot] = true;
        self.hot.live[slot] = true;
        let steps_at_entry = sim.scratch.obs.steps;
        let lane = self.lanes[slot].insert(PoolLane {
            runner,
            sim,
            hotspot: HotspotSplit::default(),
            token,
            steps_at_entry,
        });
        load_operating_point(&self.hot, lane, &mut self.power, slot);
        Ok(())
    }

    /// Evicts every resident lane *without* completing its round —
    /// the panic-recovery path. The partially-stepped simulations are
    /// dropped (mid-round state is not a valid scalar boundary); only
    /// the tokens come back, so the caller can re-run those cells from
    /// scratch.
    pub(crate) fn evict_all(&mut self) -> Vec<usize> {
        let tokens: Vec<usize> = self
            .lanes
            .iter_mut()
            .filter_map(|slot| slot.take().map(|lane| lane.token))
            .collect();
        for slot in 0..self.lanes.len() {
            self.power.clear_lane(slot);
            self.hot.clear(slot);
        }
        tokens
    }

    /// Retires slot `slot`'s lane onto `retired`: syncs the batch lane's
    /// thermal state back to the cell's own board, zeroes its power
    /// column and frees the slot.
    fn retire(&mut self, slot: usize, retired: &mut Vec<RetiredLane>) {
        let mut lane = self.lanes[slot].take().expect("lane occupied");
        self.batch.store_lane(slot, &mut lane.sim.board.thermal);
        self.power.clear_lane(slot);
        self.hot.clear(slot);
        let kp = self.batch.stride();
        for i in 0..self.batch.nodes() {
            self.scratch.power[i * kp + slot] = 0.0;
        }
        retired.push(RetiredLane {
            runner: lane.runner,
            sim: lane.sim,
            token: lane.token,
            steps_at_entry: lane.steps_at_entry,
        });
    }

    /// Executes one lockstep round: every live lane advances exactly
    /// one engine step (the step the scalar loop would have taken),
    /// sharing a single batched thermal integration. Lanes that leave
    /// the fast regime — trip-point proximity at a sample, timeout, or
    /// completion — are pushed onto `retired` and their slots freed for
    /// the caller to refill.
    pub(crate) fn step_round(&mut self, retired: &mut Vec<RetiredLane>) {
        let k = self.lanes.len();

        // --- Pre-pass vector scan: one branch-free sweep over the hot
        //     planes computes this round's event mask, runs the scalar
        //     progress phase for every fast-path lane (masked,
        //     branchless), and flags busy-flag flips. Scalar phase
        //     order within the step is preserved per lane; lanes are
        //     independent, so the lane processing order cannot affect
        //     any per-cell result. The common case (no sample due, no
        //     control due) is handled entirely here and never touches
        //     a cell's simulation. The event and flip sets come back as
        //     bitmasks, so the rare-case dispatch below walks set bits
        //     instead of re-scanning all K slots. ---
        let mut need_mask: u64 = 0;
        let mut flip_mask: u64 = 0;
        {
            let p = &mut self.hot;
            let t = &p.t[..k];
            let timeout_s = &p.timeout_s[..k];
            let next_sample = &p.next_sample[..k];
            let next_control = &p.next_control[..k];
            let flags_dirty = &p.flags_dirty[..k];
            let live = &p.live[..k];
            let cpu_items = &p.cpu_items[..k];
            let gpu_items = &p.gpu_items[..k];
            let inc_cpu = &p.inc_cpu[..k];
            let inc_gpu = &p.inc_gpu[..k];
            let cpu_has_mapping = &p.cpu_has_mapping[..k];
            let cpu_busy = &p.cpu_busy[..k];
            let gpu_busy = &p.gpu_busy[..k];
            let cpu_done = &mut p.cpu_done[..k];
            let gpu_done = &mut p.gpu_done[..k];
            // The `!(a >= b)` forms mirror the scalar loop's
            // `!j.cpu_done()` exactly, NaN edge included — do not
            // "simplify" to `<`. A masked-off slot adds +0.0, the
            // bit-identity on every value the done counters can hold
            // (they start at +0.0 and only ever grow).
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            for i in 0..k {
                let n = t[i] >= timeout_s[i]
                    || t[i] + 1e-12 >= next_sample[i]
                    || t[i] + 1e-12 >= next_control[i]
                    || flags_dirty[i];
                need_mask |= u64::from(n && live[i]) << i;
                let fast = live[i] && !n;
                let run_cpu = fast && cpu_has_mapping[i] && !(cpu_done[i] >= cpu_items[i]);
                cpu_done[i] += if run_cpu { inc_cpu[i] } else { 0.0 };
                let run_gpu = fast && !(gpu_done[i] >= gpu_items[i]);
                gpu_done[i] += if run_gpu { inc_gpu[i] } else { 0.0 };
                let busy_c = !(cpu_done[i] >= cpu_items[i]);
                let busy_g = !(gpu_done[i] >= gpu_items[i]);
                let flip = fast && (busy_c != cpu_busy[i] || busy_g != gpu_busy[i]);
                flip_mask |= u64::from(flip) << i;
            }
        }

        // --- Fast-path busy flips (a handful of steps per job):
        //     refresh the flipped lane's power model with the new share
        //     flags, exactly where the per-lane loop used to. ---
        while flip_mask != 0 {
            let slot = flip_mask.trailing_zeros() as usize;
            flip_mask &= flip_mask - 1;
            let lane = self.lanes[slot].as_mut().expect("live lane occupied");
            apply_flip(
                &mut self.hot,
                lane,
                &mut self.power,
                slot,
                self.subs_per_round,
            );
        }

        // --- Event lanes (a due sample, a due control tick, a timeout,
        //     or a deferred actuation): the rare per-lane slow path, one
        //     lane at a time. ---
        while need_mask != 0 {
            let slot = need_mask.trailing_zeros() as usize;
            need_mask &= need_mask - 1;
            let lane = self.lanes[slot].as_mut().expect("live lane occupied");
            let exit = event_step(
                &mut self.hot,
                lane,
                &mut self.power,
                &self.batch,
                &mut self.obs,
                slot,
                self.subs_per_round,
            );
            if exit == LaneExit::Handoff {
                self.retire(slot, retired);
            }
        }

        let live = self.hot.live[..k].iter().filter(|&&b| b).count() as u64;
        if live == 0 {
            return;
        }

        // --- Power: one vectorized node-major sweep over every lane's
        //     frozen coefficients (bit-identical per lane to the
        //     strided scalar evaluation; cleared lanes read as zero).
        //     The per-lane energy accounting rides the post-thermal
        //     pass — it depends only on the totals computed here. ---
        let obs_t0 = self.obs.clock();
        self.power
            .eval_into(&self.batch, &mut self.scratch.power, &mut self.totals);
        self.obs.lap_power(obs_t0);

        // --- Thermal: one batched integration for every lane. The
        //     sub-step count is a function of (DT_S, max_stable_dt)
        //     only, so it is identical across lanes and to the scalar
        //     loop, and any round's value serves every resident lane's
        //     derived sub-step accounting. ---
        let obs_t0 = self.obs.clock();
        let substeps = self.batch.step(DT_S, &self.scratch.power);
        self.obs.lap_thermal(obs_t0);
        self.subs_per_round = u64::from(substeps);

        // --- Post-thermal vector pass: the scalar power phase's energy
        //     bookkeeping (using this round's totals) and the clock
        //     advance for every slot, branch-free. A vacant slot's
        //     total reads zero and its planes are fully rewritten at
        //     the next admission, so updating it is harmless. ---
        {
            let p = &mut self.hot;
            let totals = &self.totals[..k];
            let energy_j = &mut p.energy_j[..k];
            let busy_s = &mut p.busy_s[..k];
            let job_energy_j = &mut p.job_energy_j[..k];
            let last_total_w = &mut p.last_total_w[..k];
            let step_f = &mut p.step_f[..k];
            let t = &mut p.t[..k];
            for i in 0..k {
                energy_j[i] += totals[i] * DT_S;
                busy_s[i] += DT_S;
                job_energy_j[i] += totals[i] * DT_S;
                last_total_w[i] = totals[i];
                step_f[i] += 1.0;
                t[i] = step_f[i] * DT_S;
            }
        }

        // --- Completions (the scalar loop's tail, in its order): only
        //     a completing lane touches its simulation again. ---
        for slot in 0..k {
            if !self.hot.live[slot] {
                continue;
            }
            if self.hot.cpu_done[slot] >= self.hot.cpu_items[slot]
                && self.hot.gpu_done[slot] >= self.hot.gpu_items[slot]
            {
                let sim = &mut self.lanes[slot].as_mut().expect("lane occupied").sim;
                self.hot.flush(slot, sim, self.subs_per_round);
                sim.phase_completions();
                self.retire(slot, retired);
            }
        }

        self.rounds += 1;
        self.lane_steps += live;
        self.lane_slots += k as u64;
    }
}

/// How an event lane leaves [`event_step`].
#[derive(PartialEq, Eq)]
enum LaneExit {
    /// Still in the fast regime: the lane joins the round's power and
    /// thermal sweeps.
    Continue,
    /// Timed out or at the trip point: the cell goes back to the scalar
    /// loop.
    Handoff,
}

/// The scalar progress phase specialised to one app, entirely on the
/// hot planes (bit-identical expressions) — the slow-path twin of the
/// pre-pass vector scan, for event lanes that progress after their
/// control pass. Returns `true` when a busy flag flipped — the caller
/// must then rebuild the lane's power model (the scalar power phase
/// sees post-progress flags in the same step).
// The `!(a >= b)` forms mirror the scalar loop's `!j.cpu_done()`
// exactly, NaN edge included — do not "simplify" to `<`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
fn progress_at(p: &mut HotPlanes, slot: usize) -> bool {
    if !(p.cpu_done[slot] >= p.cpu_items[slot]) && p.cpu_has_mapping[slot] {
        p.cpu_done[slot] += p.inc_cpu[slot];
    }
    if !(p.gpu_done[slot] >= p.gpu_items[slot]) {
        p.gpu_done[slot] += p.inc_gpu[slot];
    }
    let cpu_busy = !(p.cpu_done[slot] >= p.cpu_items[slot]);
    let gpu_busy = !(p.gpu_done[slot] >= p.gpu_items[slot]);
    cpu_busy != p.cpu_busy[slot] || gpu_busy != p.gpu_busy[slot]
}

/// Applies a busy-flag flip: refreshes the lane's power model with the
/// new share flags now, and marks actuation dirty so the next step runs
/// the control/actuate pass (the scalar loop ran actuation *before*
/// progress, so frequencies can first react one step later).
#[allow(clippy::neg_cmp_op_on_partial_ord)] // mirrors `!j.cpu_done()`
fn apply_flip(
    p: &mut HotPlanes,
    lane: &mut PoolLane,
    power: &mut BatchPowerModel,
    slot: usize,
    subs: u64,
) {
    p.cpu_busy[slot] = !(p.cpu_done[slot] >= p.cpu_items[slot]);
    p.gpu_busy[slot] = !(p.gpu_done[slot] >= p.gpu_items[slot]);
    p.flush(slot, &mut lane.sim, subs);
    load_operating_point(p, lane, power, slot);
    p.flags_dirty[slot] = true;
}

/// One event lane's engine step up to the power phase, in the scalar
/// step's order: the timeout check, the sensor sample and its trip
/// check, control and actuation (when they can matter), and progress —
/// through the shared [`CellSim`] phase methods (bracketed by hot-mirror
/// flushes) or the mirrored exact expressions. A [`LaneExit::Handoff`]
/// leaves the lane at a boundary the scalar loop resumes exactly.
// The `!(a >= b)` form mirrors the scalar loop's `!j.cpu_done()`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn event_step(
    p: &mut HotPlanes,
    lane: &mut PoolLane,
    power: &mut BatchPowerModel,
    batch: &ThermalBatch,
    obs: &mut StepObs,
    slot: usize,
    subs: u64,
) -> LaneExit {
    // Timeout first, as the scalar loop checks it (before sampling).
    // The scalar step_cell will re-detect it and terminate the cell.
    if p.t[slot] >= p.timeout_s[slot] {
        p.flush(slot, &mut lane.sim, subs);
        return LaneExit::Handoff;
    }

    // Sensing: the lane's own bank, read at its SoA temperatures (the
    // bits `store_lane` would copy back to the board) with the lane's
    // hotspot split — folded at its current operating point and busy
    // flags, which every refresh and flip keeps current. Then the
    // sensing phase's observable effects: store the reading, record the
    // row, advance the sample grid (mirrored back so the event mask
    // keeps tracking it).
    if p.t[slot] + 1e-12 >= p.next_sample[slot] {
        let sim = &mut lane.sim;
        debug_assert_eq!(!(p.cpu_done[slot] >= p.cpu_items[slot]), p.cpu_busy[slot]);
        let nodes = sim.board.nodes;
        let big_c = batch.lane_temp(nodes.big, slot);
        let gpu_c = batch.lane_temp(nodes.gpu, slot);
        let core_power = lane.hotspot.eval(big_c);
        let obs_t0 = obs.clock();
        sim.readings = sim
            .board
            .sensors
            .read_with_hotspots(big_c, &core_power, gpu_c);
        obs.lap_sample(obs_t0);
        sim.t = p.t[slot];
        sim.last_total_w = p.last_total_w[slot];
        sim.record_sample();
        p.next_sample[slot] = sim.next_sample;
        // At or above trip: hand off before the control phase — the
        // scalar loop resumes with control, then trips in actuation,
        // exactly as it would have.
        if sim.zone.trips_at(sim.readings.max_c()) {
            p.flush(slot, sim, subs);
            return LaneExit::Handoff;
        }
    }

    // Control and actuation, only when they can change anything: a due
    // control tick, or a busy-flag flip last step. Otherwise
    // `arbitrate_freqs` inputs are unchanged and the zone poll below
    // trip is a no-op — the scalar loop's every-step actuation provably
    // recomputes the same `effective`.
    let due = p.t[slot] + 1e-12 >= p.next_control[slot];
    if due || p.flags_dirty[slot] {
        let sim = &mut lane.sim;
        p.flush(slot, sim, subs);
        let before = sim.effective;
        let obs_t0 = sim.scratch.obs.clock();
        sim.phase_control();
        sim.phase_actuate();
        sim.scratch.obs.lap_control(obs_t0);
        // Control and actuation touch only `next_control` and, when they
        // move the frequencies, the operating point: every other
        // mirrored field was just flushed and left untouched, so the
        // full reload round-trip is elided.
        p.next_control[slot] = sim.active[0].next_control;
        p.flags_dirty[slot] = false;
        if sim.effective != before {
            (p.inc_cpu[slot], p.inc_gpu[slot]) = solo_increments(sim);
            load_operating_point(p, lane, power, slot);
        }
    }

    // Progress: the scalar phase specialised to one app, with the
    // job's memoised per-step increments mirrored into the hot planes.
    if progress_at(p, slot) {
        apply_flip(p, lane, power, slot, subs);
    }
    LaneExit::Continue
}

/// Runs one cell entirely through the pool: scalar warm-up until
/// eligible, lockstep rounds until the cell retires, scalar finish —
/// the single-cell harness the parity tests drive. The runner is
/// consumed because cells move through the pool by value. Panics are
/// not caught.
#[cfg(test)]
pub(crate) fn run_cell_lockstep(
    mut runner: ScenarioRunner,
    scenario: &crate::scenario::Scenario,
    k: usize,
) -> Result<crate::exec::ScenarioResult, teem_linreg::LinregError> {
    let mut sim = runner.prepare_cell(
        scenario,
        scenario.name(),
        None,
        None,
        crate::exec::CellBuffers::default(),
    )?;
    loop {
        if eligible_for_lockstep(&sim) {
            break;
        }
        if !runner.step_cell(&mut sim, false)? {
            return Ok(runner.finish_cell(sim).0);
        }
    }
    // Built from the warmed cell's own board, so the harness drives
    // whatever topology the runner was configured with (the many-node
    // parity tests lean on this).
    let mut pool = LockstepPool::new(k, &sim.board.thermal, false);
    assert!(
        pool.admit(runner, sim, 0).is_ok(),
        "eligible cell must admit"
    );
    let mut retired = Vec::new();
    while retired.is_empty() {
        pool.step_round(&mut retired);
    }
    let r = retired.pop().expect("one lane retires");
    let mut runner = r.runner;
    let mut sim = r.sim;
    while runner.step_cell(&mut sim, true)? {}
    Ok(runner.finish_cell(sim).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use teem_core::runner::Approach;
    use teem_workload::App;

    #[test]
    fn single_lane_lockstep_matches_scalar_bitwise() {
        let sc = Scenario::new("one").arrive(0.0, App::Mvt, 0.9);
        let mut scalar = ScenarioRunner::new(Approach::Teem);
        let a = scalar.run(&sc).expect("scalar runs");
        let batched = ScenarioRunner::new(Approach::Teem);
        let b = run_cell_lockstep(batched, &sc, 1).expect("lockstep runs");
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.trace.digest(), b.trace.digest(), "bit-identical trace");
        assert_eq!(a.kernel.steps, b.kernel.steps);
        assert!(b.kernel.batched_steps > 0, "fast path engaged");
        assert_eq!(a.kernel.batched_steps, 0, "scalar path never batches");
    }

    #[test]
    fn ineligible_cell_is_returned_at_admission() {
        let sc = Scenario::new("one").arrive(0.0, App::Mvt, 0.9);
        let mut runner = ScenarioRunner::new(Approach::Teem);
        let sim = runner
            .prepare_cell(&sc, "one", None, None, crate::exec::CellBuffers::default())
            .expect("prepares");
        // Fresh cell: nothing active yet, so not eligible.
        assert!(!eligible_for_lockstep(&sim));
        let reference = teem_soc::Board::odroid_xu4_ideal();
        let mut pool = LockstepPool::new(2, &reference.thermal, false);
        let r = pool.admit(runner, sim, 7);
        let (_, _, token) = r.expect_err("ineligible cell comes back");
        assert_eq!(token, 7);
        assert!(pool.is_empty());
    }
}
