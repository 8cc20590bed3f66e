//! Batched structure-of-arrays physics: step K independent board
//! instances in SIMD lockstep.
//!
//! Sweep campaigns run hundreds of cells that share one thermal topology
//! (same board, same RC network) and differ only in *state*: node
//! temperatures, ambient, injected power. [`ThermalBatch`] mirrors
//! [`ThermalModel`] as a structure of arrays — the topology
//! (capacitance/conductance/ambient-conductance) stored once, the state
//! laid out node-major with K contiguous lanes per node — so one
//! lane-blocked Euler kernel advances all K instances per pass using the
//! [`F64xN`] wrapper the autovectorizer lowers to packed SIMD.
//!
//! **Exactness contract.** Per lane, the kernel performs the *same IEEE
//! operations in the same order* as [`ThermalModel::step`]: packed
//! add/sub/mul/div round each lane exactly like the scalar instruction,
//! the sub-step schedule (`remaining.min(max_stable_dt)` loop) is shared
//! verbatim, and every node subtracts its `j = 0..n` terms in the same
//! order (the batch walks row `i`; the scalar kernel reads the same
//! bits as column `i` of the symmetric matrix). A lane is
//! therefore **bit-identical** to stepping its scalar twin — pinned by
//! the parity proptests — which is what lets the sweep executor hand a
//! diverging lane back to the scalar path mid-run without a seam.
//!
//! [`BatchPowerModel`] is the power-side companion: every resident
//! lane's [`NodePowerModel`] transposed into node-major planes, again
//! with scalar-identical operation order.

use crate::power::{DomainPower, NodePowerModel};
use crate::simd::{F64xN, LANES};
use crate::thermal::ThermalModel;

/// K board instances' thermal state in structure-of-arrays layout,
/// sharing one RC topology. See the module docs for layout and the
/// per-lane exactness contract.
#[derive(Debug, Clone)]
pub struct ThermalBatch {
    n: usize,
    k: usize,
    kp: usize,             // k rounded up to a multiple of LANES
    capacitance: Vec<f64>, // n
    conductance: Vec<f64>, // n*n row-major, shared across lanes
    to_ambient: Vec<f64>,  // n
    max_stable_dt: f64,
    temps: Vec<f64>,   // n*kp, node-major: temps[node*kp + lane]
    deriv: Vec<f64>,   // n*kp Euler scratch
    ambient: Vec<f64>, // kp, per-lane ambient °C
}

impl ThermalBatch {
    /// A batch of `k` lanes sharing `model`'s topology, every lane
    /// initialised to `model`'s current temperatures and ambient.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn like(model: &ThermalModel, k: usize) -> Self {
        assert!(k >= 1, "a batch needs at least one lane");
        let n = model.len();
        let kp = k.div_ceil(LANES) * LANES;
        let mut batch = ThermalBatch {
            n,
            k,
            kp,
            capacitance: model.capacitances_j_per_c().to_vec(),
            conductance: model.conductance_matrix().to_vec(),
            to_ambient: model.ambient_conductances_w_per_c().to_vec(),
            max_stable_dt: model.max_stable_dt(),
            temps: vec![0.0; n * kp],
            deriv: vec![0.0; n * kp],
            ambient: vec![model.ambient_c(); kp],
        };
        for lane in 0..kp {
            for (node, &t) in model.temps().iter().enumerate() {
                batch.temps[node * kp + lane] = t;
            }
        }
        batch
    }

    /// Number of usable lanes (K as requested).
    pub fn lanes(&self) -> usize {
        self.k
    }

    /// Number of physical lanes including SIMD padding (K rounded up to
    /// a multiple of [`LANES`]); the stride between consecutive nodes in
    /// the SoA state and power vectors.
    pub fn stride(&self) -> usize {
        self.kp
    }

    /// Number of thermal nodes (shared by every lane).
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// `true` when `model` has bit-identical topology (capacitances,
    /// conductance matrix, ambient conductances) — the precondition for
    /// loading it into a lane.
    pub fn matches(&self, model: &ThermalModel) -> bool {
        model.len() == self.n
            && model.capacitances_j_per_c() == self.capacitance.as_slice()
            && model.conductance_matrix() == self.conductance.as_slice()
            && model.ambient_conductances_w_per_c() == self.to_ambient.as_slice()
            && model.max_stable_dt() == self.max_stable_dt
    }

    /// Copies `model`'s temperatures and ambient into `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()` or the topology does not match.
    pub fn load_lane(&mut self, lane: usize, model: &ThermalModel) {
        assert!(lane < self.k, "lane {lane} out of range");
        assert!(self.matches(model), "topology mismatch loading a lane");
        for (node, &t) in model.temps().iter().enumerate() {
            self.temps[node * self.kp + lane] = t;
        }
        self.ambient[lane] = model.ambient_c();
    }

    /// Copies `lane`'s temperatures back into `model` (ambient is left
    /// untouched: the batch never changes it).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()` or `model.len() != self.nodes()`.
    pub fn store_lane(&self, lane: usize, model: &mut ThermalModel) {
        assert!(lane < self.k, "lane {lane} out of range");
        assert_eq!(model.len(), self.n, "node count mismatch storing a lane");
        for node in 0..self.n {
            model.set_temp(node, self.temps[node * self.kp + lane]);
        }
    }

    /// Current temperature of `node` in `lane`, °C.
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.nodes()` or `lane >= self.lanes()`.
    pub fn lane_temp(&self, node: usize, lane: usize) -> f64 {
        assert!(node < self.n && lane < self.k, "lane_temp out of range");
        self.temps[node * self.kp + lane]
    }

    /// Advances every lane by `dt` seconds with the node-major SoA power
    /// vector `power_w` (`power_w[node * stride + lane]` watts),
    /// sub-stepping exactly as [`ThermalModel::step`] does. Returns the
    /// number of Euler sub-steps taken (shared by all lanes: the
    /// schedule depends only on `dt` and the shared topology).
    ///
    /// # Panics
    ///
    /// Panics if `power_w.len() != self.nodes() * self.stride()` or
    /// `dt < 0`.
    pub fn step(&mut self, dt: f64, power_w: &[f64]) -> u32 {
        assert_eq!(
            power_w.len(),
            self.n * self.kp,
            "SoA power vector length mismatch"
        );
        assert!(dt >= 0.0, "negative dt");
        let eps = dt * 1e-9;
        let mut remaining = dt;
        let mut substeps = 0u32;
        while remaining > eps {
            let h = remaining.min(self.max_stable_dt);
            self.euler_step(h, power_w);
            remaining -= h;
            substeps += 1;
        }
        substeps
    }

    /// One lane-blocked Euler sub-step — the SoA twin of
    /// `ThermalModel::euler_step`, same per-lane operation order.
    ///
    /// The row sum `q -= g·(ti − tj)` is a serial dependency chain per
    /// lane (IEEE order is part of the bit-identity contract, so it
    /// cannot be re-associated), which on many-node boards makes a
    /// block-at-a-time traversal latency-bound: every `j` term waits on
    /// the previous one. Instead the kernel walks `j` in the outer loop
    /// and advances `GROUP` lane blocks together in the inner one —
    /// `GROUP` *independent* accumulator chains hide the add latency,
    /// and the `tj` loads for a group are one contiguous run of the
    /// node-`j` row. Each lane still sees exactly the scalar `j` order.
    fn euler_step(&mut self, h: f64, power_w: &[f64]) {
        /// Lanes advanced per group: four [`LANES`]-blocks as one flat
        /// fixed-width window, enough chains to cover the packed-add
        /// latency and wide enough to fill two 512-bit (or four
        /// 256-bit) vectors per operation.
        const GW: usize = 4 * LANES;
        let n = self.n;
        let kp = self.kp;
        let temps = &self.temps;
        let deriv = &mut self.deriv;
        for i in 0..n {
            let row = &self.conductance[i * n..(i + 1) * n];
            let mut b = 0;
            while b + GW <= kp {
                // Fixed-width windows (`[f64; GW]`): one slice-length
                // proof per row instead of a bounds check per element,
                // and the element loops fully unroll.
                let o = i * kp + b;
                let ti: &[f64; GW] = temps[o..o + GW].try_into().expect("window");
                let mut q: [f64; GW] = power_w[o..o + GW].try_into().expect("window");
                for (j, &g) in row.iter().enumerate() {
                    let tj: &[f64; GW] = temps[j * kp + b..j * kp + b + GW]
                        .try_into()
                        .expect("window");
                    for x in 0..GW {
                        q[x] -= g * (ti[x] - tj[x]);
                    }
                }
                let g_amb = self.to_ambient[i];
                let c = self.capacitance[i];
                let amb: &[f64; GW] = self.ambient[b..b + GW].try_into().expect("window");
                let d: &mut [f64; GW] = (&mut deriv[o..o + GW]).try_into().expect("window");
                for x in 0..GW {
                    q[x] -= g_amb * (ti[x] - amb[x]);
                    d[x] = q[x] / c;
                }
                b += GW;
            }
            let g_amb = F64xN::splat(self.to_ambient[i]);
            let c = F64xN::splat(self.capacitance[i]);
            while b < kp {
                let ti = F64xN::from_slice(&temps[i * kp + b..]);
                let mut q = F64xN::from_slice(&power_w[i * kp + b..]);
                for (j, &g) in row.iter().enumerate() {
                    let tj = F64xN::from_slice(&temps[j * kp + b..]);
                    q = q - F64xN::splat(g) * (ti - tj);
                }
                q = q - g_amb * (ti - F64xN::from_slice(&self.ambient[b..]));
                (q / c).write_to(&mut deriv[i * kp + b..]);
                b += LANES;
            }
        }
        for (t, d) in self.temps.iter_mut().zip(&*deriv) {
            *t += h * d;
        }
    }
}

/// Reusable SoA buffers for the batched step loop — the K-wide
/// counterpart of [`StepScratch`](crate::StepScratch): one node-major
/// power vector sized to the batch, so the lockstep inner loop
/// allocates nothing per round.
#[derive(Debug, Clone)]
pub struct BatchScratch {
    /// Node-major SoA power vector, watts:
    /// `power[node * batch.stride() + lane]`.
    pub power: Vec<f64>,
}

impl BatchScratch {
    /// Scratch sized for `batch`.
    pub fn for_batch(batch: &ThermalBatch) -> Self {
        BatchScratch {
            power: vec![0.0; batch.nodes() * batch.stride()],
        }
    }
}

/// Every resident lane's [`NodePowerModel`] transposed into node-major
/// coefficient planes, so the per-step power evaluation runs as one
/// vectorized sweep over the batch instead of K strided scalar passes.
///
/// The payoff is the leakage exponential: with coefficients laid out
/// lane-contiguous, each leaky node row evaluates
/// `exp(α·(T − T_ref))` for four lanes at once through
/// [`exp_exact4`](crate::fastexp::exp_exact4) — bit-identical to the
/// `f64::exp` the scalar path calls, at a fraction of the cost.
///
/// # Exactness
///
/// Per lane and node, [`BatchPowerModel::eval_into`] performs exactly
/// the operation sequence of [`NodePowerModel::eval_into`] — the node's
/// `(dyn + leak) + uncore`, where IEEE addition commutes with the scalar
/// `(leak + dyn) + uncore` — and per lane accumulates node powers in
/// index order exactly like the engines' `power.iter().sum()`, so both
/// the SoA power vector and the per-lane totals are bit-identical
/// (pinned by the tests below). A co-run model, whose shared domains
/// carry more than two terms, has no SoA form; the lockstep pool only
/// admits solo cells. Two structural simplifications are bit-safe by
/// construction:
///
/// * a collapsed domain has `dyn_w == 0.0` and `uncore_w == 0.0`, and
///   `0.0 + leak + 0.0` reproduces `leak`'s bits exactly (leakage is
///   never negative);
/// * rows where **no** lane has a leakage prefactor (the constant
///   board node, passive nodes, and any row of cleared lanes) skip the
///   exponential and read the folded constant instead.
///
/// Cleared (and SIMD-padding) lanes hold all-zero coefficients with a
/// benign `α = 1, T_ref = −1` so a leaky row's exponential argument
/// stays inside [`crate::fastexp::exp_exact4`]'s vector window instead
/// of forcing the near-zero fallback every round; their power is exactly
/// `0.0` either way.
#[derive(Debug, Clone)]
pub struct BatchPowerModel {
    n: usize,
    k: usize,
    kp: usize,
    dyn_w: Vec<f64>,    // n*kp node-major planes, lane-contiguous rows
    leak_vv: Vec<f64>,  // n*kp
    gate: Vec<f64>,     // n*kp
    uncore_w: Vec<f64>, // n*kp
    /// `dyn_w + 0.0 + uncore_w`, precomputed at load time — the exact
    /// temperature-independent sum a leakage-free node contributes, so
    /// non-leaky rows reduce to one load per lane in the hot sweep.
    const_w: Vec<f64>, // n*kp
    alpha: Vec<f64>,    // n*kp
    ref_c: Vec<f64>,    // n*kp
    /// Per node: does any lane carry a leakage prefactor? Rows that
    /// don't skip the exponential (see type docs for why that's exact).
    leaky: Vec<bool>, // n
}

impl BatchPowerModel {
    /// An all-cleared model shaped for `batch` (every lane evaluates to
    /// zero power until [`BatchPowerModel::set_lane`] loads it).
    pub fn for_batch(batch: &ThermalBatch) -> Self {
        let (n, k, kp) = (batch.nodes(), batch.lanes(), batch.stride());
        BatchPowerModel {
            n,
            k,
            kp,
            dyn_w: vec![0.0; n * kp],
            leak_vv: vec![0.0; n * kp],
            gate: vec![0.0; n * kp],
            uncore_w: vec![0.0; n * kp],
            const_w: vec![0.0; n * kp],
            alpha: vec![1.0; n * kp],
            ref_c: vec![-1.0; n * kp],
            leaky: vec![false; n],
        }
    }

    /// Loads `model`'s per-node coefficients into `lane`'s column.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range, `model` has the wrong node
    /// count, or `model` is a co-run model (see the type docs).
    pub fn set_lane(&mut self, lane: usize, model: &NodePowerModel) {
        assert!(lane < self.k, "lane {lane} out of range");
        assert_eq!(model.len, self.n, "node count mismatch");
        assert!(
            model.tail.is_empty(),
            "a co-run power model has no single-app SoA form"
        );
        self.reset_column(lane);
        // The power nodes are thermal ids 0-3: the three leaky domains
        // in order, then the board overhead (see `ThermalNodes`).
        for (node, d) in model.domains.iter().enumerate() {
            let DomainPower {
                leak_vv,
                gate,
                alpha,
                ref_c,
                terms: [dyn_w, uncore_w],
            } = *d;
            let idx = node * self.kp + lane;
            self.dyn_w[idx] = dyn_w;
            self.leak_vv[idx] = leak_vv;
            self.gate[idx] = gate;
            self.uncore_w[idx] = uncore_w;
            self.const_w[idx] = dyn_w + 0.0 + uncore_w;
            self.alpha[idx] = alpha;
            self.ref_c[idx] = ref_c;
        }
        let idx = 3 * self.kp + lane;
        self.dyn_w[idx] = model.board_w;
        self.const_w[idx] = model.board_w + 0.0 + 0.0;
        self.recompute_leaky();
    }

    /// Clears `lane` back to the all-zero (benign-argument) state; its
    /// evaluated power becomes exactly `0.0` in every node.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn clear_lane(&mut self, lane: usize) {
        assert!(lane < self.k, "lane {lane} out of range");
        self.reset_column(lane);
        self.recompute_leaky();
    }

    fn reset_column(&mut self, lane: usize) {
        for i in 0..self.n {
            let idx = i * self.kp + lane;
            self.dyn_w[idx] = 0.0;
            self.leak_vv[idx] = 0.0;
            self.gate[idx] = 0.0;
            self.uncore_w[idx] = 0.0;
            self.const_w[idx] = 0.0;
            self.alpha[idx] = 1.0;
            self.ref_c[idx] = -1.0;
        }
    }

    fn recompute_leaky(&mut self) {
        for i in 0..self.n {
            let row = &self.leak_vv[i * self.kp..(i + 1) * self.kp];
            self.leaky[i] = row.iter().any(|&v| v != 0.0);
        }
    }

    /// Evaluates every lane's power at its current batch temperatures
    /// in one node-major sweep: fills the SoA `power_w` vector and
    /// writes each lane's total draw (summed in node-index order) into
    /// `totals`. Bit-identical per lane to
    /// [`NodePowerModel::eval_into`]; see the type docs.
    ///
    /// # Panics
    ///
    /// Panics if the batch shape, `power_w` or `totals` do not match
    /// this model's dimensions.
    pub fn eval_into(&self, batch: &ThermalBatch, power_w: &mut [f64], totals: &mut [f64]) {
        assert_eq!(batch.nodes(), self.n, "node count mismatch");
        assert_eq!(batch.stride(), self.kp, "stride mismatch");
        assert_eq!(power_w.len(), self.n * self.kp, "power vector length");
        assert_eq!(totals.len(), self.kp, "totals length");
        totals.fill(0.0);
        let kp = self.kp;
        for i in 0..self.n {
            let base = i * kp;
            // Row subslices: one bounds check each here instead of one
            // per element in the hot loops below.
            let temps = &batch.temps[base..base + kp];
            let dyn_w = &self.dyn_w[base..base + kp];
            let leak_vv = &self.leak_vv[base..base + kp];
            let gate = &self.gate[base..base + kp];
            let uncore = &self.uncore_w[base..base + kp];
            let alpha = &self.alpha[base..base + kp];
            let ref_c = &self.ref_c[base..base + kp];
            let out = &mut power_w[base..base + kp];
            if self.leaky[i] {
                // Wide fixed-width windows (the thermal kernel's block
                // shape): the exponential's polynomial is one serial
                // FMA chain per lane, so a 16-lane block gives the core
                // four independent vector chains to overlap, and the
                // `try_into` window proofs hoist every bounds check out
                // of the arithmetic. Block width is schedule only —
                // per-lane bits are unchanged (see `exp_exact_block`).
                const GW: usize = 16;
                let mut o = 0;
                while o + GW <= kp {
                    let t: &[f64; GW] = temps[o..o + GW].try_into().expect("window");
                    let a: &[f64; GW] = alpha[o..o + GW].try_into().expect("window");
                    let rc: &[f64; GW] = ref_c[o..o + GW].try_into().expect("window");
                    let lv: &[f64; GW] = leak_vv[o..o + GW].try_into().expect("window");
                    let g: &[f64; GW] = gate[o..o + GW].try_into().expect("window");
                    let d: &[f64; GW] = dyn_w[o..o + GW].try_into().expect("window");
                    let u: &[f64; GW] = uncore[o..o + GW].try_into().expect("window");
                    let mut x = [0.0f64; GW];
                    for j in 0..GW {
                        x[j] = a[j] * (t[j] - rc[j]);
                    }
                    let e = crate::fastexp::exp_exact_block(x);
                    let ow: &mut [f64; GW] = (&mut out[o..o + GW]).try_into().expect("window");
                    let tw: &mut [f64; GW] = (&mut totals[o..o + GW]).try_into().expect("window");
                    for j in 0..GW {
                        let leak = (lv[j] * e[j]) * g[j];
                        let w = d[j] + leak + u[j];
                        ow[j] = w;
                        tw[j] += w;
                    }
                    o += GW;
                }
                while o < kp {
                    let mut x = [0.0f64; 4];
                    for j in 0..4 {
                        x[j] = alpha[o + j] * (temps[o + j] - ref_c[o + j]);
                    }
                    let e = crate::fastexp::exp_exact4(x);
                    for j in 0..4 {
                        let leak = (leak_vv[o + j] * e[j]) * gate[o + j];
                        let w = dyn_w[o + j] + leak + uncore[o + j];
                        out[o + j] = w;
                        totals[o + j] += w;
                    }
                    o += 4;
                }
            } else {
                // The row's temperature-independent sum was folded at
                // load time (`const_w = dyn_w + 0.0 + uncore_w`, the
                // exact expression this branch used to evaluate).
                let cw = &self.const_w[base..base + kp];
                for lane in 0..kp {
                    let w = cw[lane];
                    out[lane] = w;
                    totals[lane] += w;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::Board;
    use crate::engine::ClusterFreqs;
    use crate::perf::CpuMapping;
    use crate::sensors::SensorBank;
    use crate::thermal::ThermalModelBuilder;
    use crate::MHz;

    fn toy(ambient: f64, hot: f64) -> ThermalModel {
        let mut b = ThermalModelBuilder::new(ambient);
        let die = b.node("die", 0.5, 0.0, hot);
        let board = b.node("board", 50.0, 0.5, ambient + 5.0);
        b.connect(die, board, 0.2);
        b.build()
    }

    #[test]
    fn batched_euler_is_bit_identical_per_lane() {
        // k = 5 (kp = 8) runs entirely on the block tail path; k = 18
        // (kp = 20) covers one full 16-lane window *and* a trailing
        // block — both kernel paths must match scalar bit for bit.
        for k in [5usize, 18] {
            batched_euler_case(k);
        }
    }

    fn batched_euler_case(k: usize) {
        let mut scalars: Vec<ThermalModel> = (0..k)
            .map(|i| toy(20.0 + 3.0 * i as f64, 60.0 + 7.0 * i as f64))
            .collect();
        let mut batch = ThermalBatch::like(&scalars[0], k);
        assert_eq!(batch.stride(), k.div_ceil(LANES) * LANES);
        for (lane, m) in scalars.iter().enumerate() {
            batch.load_lane(lane, m);
        }
        let mut scratch = BatchScratch::for_batch(&batch);
        for step in 0..200 {
            for (lane, m) in scalars.iter_mut().enumerate() {
                let p = [1.5 + 0.25 * lane as f64 + 0.001 * step as f64, 0.125];
                for (node, &w) in p.iter().enumerate() {
                    scratch.power[node * batch.stride() + lane] = w;
                }
                let sub_scalar = m.step(0.01, &p);
                if lane == 0 {
                    assert!(sub_scalar >= 1);
                }
            }
            batch.step(0.01, &scratch.power);
            for (lane, m) in scalars.iter().enumerate() {
                for node in 0..m.len() {
                    assert_eq!(
                        batch.lane_temp(node, lane).to_bits(),
                        m.temp(node).to_bits(),
                        "step {step} lane {lane} node {node}"
                    );
                }
            }
        }
    }

    #[test]
    fn substep_count_matches_scalar() {
        let mut m = toy(25.0, 80.0);
        let mut batch = ThermalBatch::like(&m, 3);
        let scratch = BatchScratch::for_batch(&batch);
        let dt = m.max_stable_dt() * 2.5;
        assert_eq!(batch.step(dt, &scratch.power), m.step(dt, &[0.0, 0.0]));
    }

    #[test]
    fn store_lane_round_trips() {
        let src = toy(25.0, 77.25);
        let mut batch = ThermalBatch::like(&src, 2);
        batch.load_lane(1, &src);
        let mut dst = toy(25.0, 0.0);
        batch.store_lane(1, &mut dst);
        assert_eq!(dst.temps(), src.temps());
    }

    #[test]
    fn matches_rejects_different_topology() {
        let a = toy(25.0, 60.0);
        let batch = ThermalBatch::like(&a, 1);
        assert!(
            batch.matches(&toy(30.0, 90.0)),
            "same topology, other state"
        );
        let mut b = ThermalModelBuilder::new(25.0);
        let n0 = b.node("die", 0.5, 0.0, 60.0);
        let n1 = b.node("board", 50.0, 0.5, 30.0);
        b.connect(n0, n1, 0.3); // different edge conductance
        assert!(!batch.matches(&b.build()));
    }

    #[test]
    fn soa_power_model_matches_per_lane_eval_bitwise() {
        // 6 lanes (kp = 8: two padding lanes) with distinct operating
        // points and temperatures; the vectorized node-major sweep must
        // reproduce every lane's scalar `NodePowerModel::eval_into` bit
        // for bit, including totals and the all-zero cleared/padding
        // columns. Lane 5 sits exactly at the leakage reference
        // temperature, where the exponential's argument is zero.
        let board = Board::odroid_xu4_with(25.0, SensorBank::tmu_like(7));
        let k = 6;
        let mut batch = ThermalBatch::like(&board.thermal, k);
        let mut twin = board.thermal.clone();
        let mut models = Vec::new();
        let mut lane_temps = Vec::new();
        for lane in 0..k {
            for node in 0..board.thermal.len() {
                let t = if lane == 5 {
                    board.big_power.leak_ref_c
                } else {
                    30.0 + 9.5 * lane as f64 + 3.25 * node as f64
                };
                twin.set_temp(node, t);
            }
            batch.load_lane(lane, &twin);
            lane_temps.push(twin.temps().to_vec());
            let freqs = ClusterFreqs {
                big: MHz(600 + 200 * lane as u32),
                little: MHz(1400),
                gpu: MHz(if lane % 2 == 0 { 543 } else { 177 }),
            };
            let mapping = if lane % 3 == 0 {
                CpuMapping::new(0, 2)
            } else {
                CpuMapping::new(4, 0)
            };
            models.push(match lane {
                4 => NodePowerModel::collapsed(&board),
                5 => NodePowerModel::idle(&board, freqs),
                _ => NodePowerModel::single_app(
                    &board,
                    mapping,
                    freqs,
                    lane % 2 == 0,
                    lane % 3 != 1,
                    0.6 + 0.05 * lane as f64,
                ),
            });
        }
        let mut soa = BatchPowerModel::for_batch(&batch);
        for (lane, m) in models.iter().enumerate() {
            soa.set_lane(lane, m);
        }
        let mut got = BatchScratch::for_batch(&batch);
        let mut totals = vec![0.0; batch.stride()];
        soa.eval_into(&batch, &mut got.power, &mut totals);
        let mut want = vec![0.0; board.thermal.len()];
        let check = |got: &BatchScratch, totals: &[f64], want: &mut [f64], lane: usize| {
            models[lane].eval_into(&lane_temps[lane], want);
            let total: f64 = want.iter().sum();
            assert_eq!(totals[lane].to_bits(), total.to_bits(), "total lane {lane}");
            for (node, &w) in want.iter().enumerate() {
                let g = got.power[node * batch.stride() + lane];
                assert_eq!(g.to_bits(), w.to_bits(), "lane {lane} node {node}");
            }
        };
        for lane in 0..k {
            check(&got, &totals, &mut want, lane);
        }
        for (lane, &t) in totals.iter().enumerate().skip(k) {
            assert_eq!(t, 0.0, "padding lane {lane} draws power");
        }

        // Clearing a lane zeroes its column without perturbing others.
        soa.clear_lane(2);
        soa.eval_into(&batch, &mut got.power, &mut totals);
        assert_eq!(totals[2], 0.0);
        for lane in (0..k).filter(|&lane| lane != 2) {
            check(&got, &totals, &mut want, lane);
        }
        for node in 0..batch.nodes() {
            assert_eq!(got.power[node * batch.stride() + 2], 0.0, "node {node}");
        }
    }

    #[test]
    #[should_panic(expected = "co-run power model")]
    fn co_run_model_has_no_soa_form() {
        let board = Board::odroid_xu4_ideal();
        let share = crate::CoRunShare {
            mapping: CpuMapping::new(1, 1),
            cpu_busy: true,
            gpu_busy: true,
            activity: 0.8,
        };
        let model = NodePowerModel::co_run(&board, &[share, share], ClusterFreqs::max_of(&board));
        let batch = ThermalBatch::like(&board.thermal, 1);
        BatchPowerModel::for_batch(&batch).set_lane(0, &model);
    }
}
