//! Lumped RC thermal network.
//!
//! Each node (big cluster, LITTLE cluster, GPU, board) has a heat capacity
//! and is connected to other nodes and to ambient through thermal
//! conductances. Heat flows are integrated with forward Euler using
//! automatic sub-stepping for stability (each sub-step below
//! `min_i C_i / ΣG_i`).
//! Within one sub-step the nodes are independent, so the Euler kernel
//! runs SIMD across them, [`LANES`] nodes per block, and each node still
//! sees exactly the scalar operations in the scalar order.
//!
//! This is the standard HotSpot-style compact model; first-order accuracy
//! is all the reproduction needs because TEEM, the trip-based throttler
//! and the baselines all react to *sensor readings of node temperatures*,
//! not to intra-die gradients.

use crate::fastexp::{exp_exact, exp_exact_block};
use crate::power::NodePowerModel;
use crate::simd::{F64xN, LANES};
use std::sync::{Arc, OnceLock};
use teem_linreg::{
    eigen::sym_eigen,
    solve::{lu_factor, Lu},
    Matrix,
};

/// Index of a thermal node within a [`ThermalModel`].
pub type NodeId = usize;

/// Cached spectral decomposition of the thermal network, used by the
/// closed-form cooling advance ([`ThermalModel::cool_to`]).
///
/// With `L` the conductance Laplacian plus the ambient diagonal and `C`
/// the capacitance diagonal, the similarity transform
/// `S = C^{-1/2} L C^{-1/2}` is symmetric positive semi-definite, so
/// `S = Q Λ Qᵀ` with orthonormal `Q` — and the heat equation
/// `C dT/dt = P + G_amb·T_amb − L·T` decouples into `n` scalar modes
/// `dy_k/dt = b_k − λ_k y_k` with exact exponential solutions. The
/// decomposition depends only on the network topology (fixed at build
/// time), so it is computed once on first use and reused for every gap.
///
/// The plan keeps the board-invariant products the transforms multiply
/// by rather than `Q` and `C^{1/2}` themselves: `qᵢₖ·√Cᵢ` and
/// `qᵢₖ/√Cᵢ` (stored as `qᵢₖ·(1/√Cᵢ)`) in `Q`'s row-major layout, so
/// a block of [`LANES`] modes reads its row-`i` factors contiguously,
/// and `Qᵀ`, so a block of nodes reads its mode-`k` column the same
/// way. Rust evaluates `q * c * T` as `(q·c)·T`, so the precomputed
/// products leave every bit of the scalar transform unchanged.
#[derive(Debug, Clone)]
struct CoolingPlan {
    lambda: Vec<f64>,     // eigenvalues of S, ascending, 1/s
    qc_sqrt: Vec<f64>,    // q_ik·sqrt(C_i), row-major n×n, columns are modes
    qc_inv: Vec<f64>,     // q_ik·(1/sqrt(C_i)), same layout
    qt: Vec<f64>,         // Qᵀ, row-major n×n, rows are modes
    c_inv_sqrt: Vec<f64>, // 1/sqrt(C_i)
    forcing: Vec<f64>,    // per-node forcing scratch, P + G_amb·T_amb
    y: Vec<f64>,          // modal-state scratch
    b: Vec<f64>,          // modal-forcing scratch
}

/// What a thermal network never changes after
/// [`ThermalModelBuilder::build`]: its nodes' names, capacities and
/// conductances, and the LU factors derived from them on first use. A
/// model holds it behind one [`Arc`], so every clone shares it.
#[derive(Debug)]
struct Network {
    names: Vec<String>,
    capacitance: Vec<f64>, // J/°C per node
    conductance: Vec<f64>, // bitwise-symmetric node-to-node W/°C, n×n
    to_ambient: Vec<f64>,  // node-to-ambient W/°C
    steady: OnceLock<Lu>,  // lazy LU factors of G + G_amb for steady_state
}

/// A lumped RC thermal network.
///
/// The conductance matrix is stored in one flat `n × n` allocation
/// (`conductance[i * n + j]`) that is bitwise symmetric: the builder
/// adds every edge to both triangles in the same order.
/// [`ThermalModel::step`] and [`ThermalModel::step_frozen`] (the scalar
/// engines' hottest call) advance the nodes in blocks of [`LANES`]; for
/// each source node `j` they read the block's column `j` as a contiguous
/// slice of row `j`.
/// The Euler integrator keeps a persistent derivative scratch buffer and
/// allocates nothing.
///
/// The network itself (names, capacities, conductances, and the LU
/// factors computed from them on first use) is immutable and shared: a
/// clone copies only the per-run state — the node temperatures, the
/// derivative scratch, the ambient — and the model's own
/// [`ThermalModel::cool_to`] plan, once it has one.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    net: Arc<Network>,
    temps: Vec<f64>, // current temperature per node, °C
    deriv: Vec<f64>, // Euler scratch, reused across sub-steps
    ambient_c: f64,
    max_stable_dt: f64,
    plan: Option<CoolingPlan>, // lazy spectral cache for cool_to
}

/// Where an Euler sub-step reads each node's injected power, watts.
#[derive(Debug, Clone, Copy)]
enum NodePowers<'a> {
    /// One figure per node, indexed as the network
    /// ([`ThermalModel::step`]).
    Slice(&'a [f64]),
    /// Nodes `0..LANES` from a register block and `+0.0` on every other
    /// node: the layout of a power vector written by
    /// [`NodePowerModel::eval_into`] ([`ThermalModel::step_frozen`]).
    Block(F64xN),
}

impl NodePowers<'_> {
    /// The powers of the first `n` nodes: one bounds check for a whole
    /// sub-step instead of one per read.
    #[inline(always)]
    fn prefix(self, n: usize) -> Self {
        match self {
            NodePowers::Slice(p) => NodePowers::Slice(&p[..n]),
            block => block,
        }
    }

    /// The starting powers of the node block at `b`.
    #[inline(always)]
    fn block(self, b: usize) -> F64xN {
        match self {
            NodePowers::Slice(p) => F64xN::from_slice(&p[b..]),
            NodePowers::Block(p) if b == 0 => p,
            NodePowers::Block(_) => F64xN::ZERO,
        }
    }

    /// The starting power of scalar node `i`, past the last full block.
    /// A power block needs a network of at least one block (the power
    /// nodes are ids 0–3), so such a node is always passive.
    #[inline(always)]
    fn node(self, i: usize) -> f64 {
        match self {
            NodePowers::Slice(p) => p[i],
            NodePowers::Block(_) => 0.0,
        }
    }
}

/// Builder for [`ThermalModel`].
#[derive(Debug, Clone, Default)]
pub struct ThermalModelBuilder {
    names: Vec<String>,
    capacitance: Vec<f64>,
    edges: Vec<(usize, usize, f64)>,
    to_ambient: Vec<f64>,
    ambient_c: f64,
    initial_c: Vec<f64>,
}

impl ThermalModelBuilder {
    /// Starts a builder with the given ambient temperature.
    pub fn new(ambient_c: f64) -> Self {
        ThermalModelBuilder {
            ambient_c,
            ..Default::default()
        }
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance_j_per_c` is not positive.
    pub fn node(
        &mut self,
        name: impl Into<String>,
        capacitance_j_per_c: f64,
        ambient_conductance_w_per_c: f64,
        initial_c: f64,
    ) -> NodeId {
        assert!(
            capacitance_j_per_c > 0.0,
            "node capacitance must be positive"
        );
        assert!(ambient_conductance_w_per_c >= 0.0);
        self.names.push(name.into());
        self.capacitance.push(capacitance_j_per_c);
        self.to_ambient.push(ambient_conductance_w_per_c);
        self.initial_c.push(initial_c);
        self.names.len() - 1
    }

    /// Connects two nodes with a thermal conductance (W/°C).
    ///
    /// # Panics
    ///
    /// Panics on unknown ids, self-loops, or non-positive conductance.
    pub fn connect(&mut self, a: NodeId, b: NodeId, conductance_w_per_c: f64) -> &mut Self {
        assert!(a < self.names.len() && b < self.names.len(), "unknown node");
        assert_ne!(a, b, "self-loop");
        assert!(conductance_w_per_c > 0.0, "conductance must be positive");
        self.edges.push((a, b, conductance_w_per_c));
        self
    }

    /// Finalises the model.
    ///
    /// # Panics
    ///
    /// Panics if no nodes were added.
    pub fn build(&self) -> ThermalModel {
        let n = self.names.len();
        assert!(n > 0, "thermal model needs at least one node");
        let mut g = vec![0.0; n * n];
        for &(a, b, c) in &self.edges {
            g[a * n + b] += c;
            g[b * n + a] += c;
        }
        // Stability: forward Euler on dT/dt = (P - G_total (T - ...)) / C
        // requires dt < min C_i / (sum_j G_ij + G_amb,i).
        let mut max_dt = f64::INFINITY;
        for i in 0..n {
            let gsum: f64 = g[i * n..(i + 1) * n].iter().sum::<f64>() + self.to_ambient[i];
            if gsum > 0.0 {
                max_dt = max_dt.min(self.capacitance[i] / gsum);
            }
        }
        // Safety factor 0.5.
        let max_stable_dt = if max_dt.is_finite() {
            0.5 * max_dt
        } else {
            0.1
        };
        ThermalModel {
            net: Arc::new(Network {
                names: self.names.clone(),
                capacitance: self.capacitance.clone(),
                conductance: g,
                to_ambient: self.to_ambient.clone(),
                steady: OnceLock::new(),
            }),
            temps: self.initial_c.clone(),
            deriv: vec![0.0; n],
            ambient_c: self.ambient_c,
            max_stable_dt,
            plan: None,
        }
    }
}

impl ThermalModel {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.temps.len()
    }

    /// `true` when the model has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.temps.is_empty()
    }

    /// Node names in id order.
    pub fn names(&self) -> &[String] {
        &self.net.names
    }

    /// Current temperature of a node, °C.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn temp(&self, node: NodeId) -> f64 {
        self.temps[node]
    }

    /// All node temperatures in id order.
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// Overwrites a node temperature (used to start runs from a warm
    /// steady state).
    pub fn set_temp(&mut self, node: NodeId, temp_c: f64) {
        self.temps[node] = temp_c;
    }

    /// Ambient temperature, °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// Changes the ambient temperature at runtime (a scenario event:
    /// the phone moves from an air-conditioned room into sunlight).
    /// Node temperatures are untouched; subsequent steps integrate
    /// toward the new ambient.
    ///
    /// # Panics
    ///
    /// Panics if `ambient_c` is not a finite plausible temperature
    /// (−40 to 120 °C).
    pub fn set_ambient_c(&mut self, ambient_c: f64) {
        assert!(
            ambient_c.is_finite() && (-40.0..=120.0).contains(&ambient_c),
            "ambient {ambient_c} out of plausible range"
        );
        self.ambient_c = ambient_c;
    }

    /// Puts the whole network at `ambient_c`: the ambient and every node
    /// temperature. That is the state [`ThermalModelBuilder::build`]
    /// leaves when every node starts at the builder's ambient, as every
    /// board's nodes do. The topology and any cached factors are kept.
    ///
    /// # Panics
    ///
    /// As [`ThermalModel::set_ambient_c`].
    pub(crate) fn reset_to_ambient(&mut self, ambient_c: f64) {
        self.set_ambient_c(ambient_c);
        self.temps.fill(ambient_c);
    }

    /// Advances the network by `dt` seconds with `power_w[i]` watts
    /// injected into node `i`, sub-stepping as needed for stability.
    /// Returns the number of Euler sub-steps taken.
    ///
    /// Allocation-free: the derivative buffer is persistent model state.
    /// A relative epsilon (`dt × 1e-9`) terminates the sub-step loop so
    /// that float residue from repeated `remaining -= h` subtraction
    /// cannot schedule a physically-meaningless denormal extra sub-step
    /// when `dt` is a near-multiple of [`ThermalModel::max_stable_dt`].
    ///
    /// # Panics
    ///
    /// Panics if `power_w.len() != self.len()` or `dt < 0`.
    pub fn step(&mut self, dt: f64, power_w: &[f64]) -> u32 {
        assert_eq!(power_w.len(), self.len(), "power vector length mismatch");
        self.integrate(dt, NodePowers::Slice(power_w))
    }

    /// One scalar engine step: advances the network by `dt` seconds
    /// under the node powers `model` draws at the step-start
    /// temperatures, writes that power vector into `power_w` for the
    /// caller's energy bookkeeping, and returns the number of Euler
    /// sub-steps taken.
    ///
    /// Bit-identical to [`model.eval_into`](NodePowerModel::eval_into)
    /// into `power_w` followed by [`ThermalModel::step`] with it: the
    /// power is held across sub-steps, as there. The difference is
    /// where the Euler kernel reads it from. The power nodes are ids
    /// 0–3 ([`ThermalNodes`](crate::ThermalNodes)), so the non-zero
    /// powers form the first node block; the kernel starts that block
    /// from the evaluated powers still in registers, and every other
    /// node from `+0.0`, the value it would read from the vector.
    /// That keeps the step's temperature → leakage → power →
    /// temperature chain out of memory.
    ///
    /// # Panics
    ///
    /// Panics if `model` or `power_w` does not match `self.len()`, or
    /// if `dt < 0`.
    pub fn step_frozen(&mut self, dt: f64, model: &NodePowerModel, power_w: &mut [f64]) -> u32 {
        let block = model.eval_block(&self.temps);
        model.write_block(block, power_w);
        self.integrate(dt, NodePowers::Block(F64xN(block)))
    }

    /// The sub-step loop of [`ThermalModel::step`] and
    /// [`ThermalModel::step_frozen`].
    #[inline(always)]
    fn integrate(&mut self, dt: f64, powers: NodePowers<'_>) -> u32 {
        assert!(dt >= 0.0, "negative dt");
        let eps = dt * 1e-9;
        let mut remaining = dt;
        let mut substeps = 0u32;
        while remaining > eps {
            let h = remaining.min(self.max_stable_dt);
            self.euler_step(h, powers);
            remaining -= h;
            substeps += 1;
        }
        substeps
    }

    #[inline(always)]
    fn euler_step(&mut self, h: f64, powers: NodePowers<'_>) {
        // A one-block network (the XU4) gets its own instantiation with
        // the node count constant-folded: the `j` loop fully unrolls and
        // the temperatures never leave registers.
        match self.len() {
            LANES => self.node_blocked_euler(LANES, h, powers),
            n => self.node_blocked_euler(n, h, powers),
        }
    }

    /// One forward-Euler sub-step, SIMD across nodes.
    ///
    /// Node `i`'s derivative is `(Pᵢ − Σⱼ Gᵢⱼ(Tᵢ − Tⱼ) − G_amb,ᵢ(Tᵢ −
    /// T_amb)) / Cᵢ`, subtracted term by term for `j = 0..n` in order.
    /// Within one sub-step the nodes are independent, so the kernel runs
    /// that expression for [`LANES`] nodes at once: a block starts from
    /// its powers (read from `powers`, see [`NodePowers`]) and subtracts
    /// `G[j][block]·(T[block] − Tⱼ)` for each `j`, reading column `j`
    /// as the contiguous row `j`. That read is
    /// exact because the builder adds every edge to both triangles in
    /// the same order, so `Gᵢⱼ` and `Gⱼᵢ` are the same bits (pinned by
    /// `flattened_conductance_is_symmetric_and_queryable`). Nodes past
    /// the last full block run the same expression scalar. Each node's
    /// operations and their order are therefore exactly those of
    /// `ThermalBatch`'s per-lane row walk, so a batch lane stays
    /// bit-identical to its scalar twin. The diagonal is structurally
    /// zero (the builder rejects self-loops), so the `j == i` term
    /// subtracts exactly `0`.
    #[inline(always)]
    fn node_blocked_euler(&mut self, n: usize, h: f64, powers: NodePowers<'_>) {
        let ambient = self.ambient_c;
        let net = &*self.net;
        let g = &net.conductance[..n * n];
        let (cap, g_amb, powers) = (
            &net.capacitance[..n],
            &net.to_ambient[..n],
            powers.prefix(n),
        );
        let temps = &mut self.temps[..n];
        let deriv = &mut self.deriv[..n];
        let full = n - n % LANES;
        for b in (0..full).step_by(LANES) {
            let ti = F64xN::from_slice(&temps[b..]);
            let mut q = powers.block(b);
            for (col, &tj) in g.chunks_exact(n).zip(&*temps) {
                q = q - F64xN::from_slice(&col[b..]) * (ti - F64xN::splat(tj));
            }
            q = q - F64xN::from_slice(&g_amb[b..]) * (ti - F64xN::splat(ambient));
            let d = q / F64xN::from_slice(&cap[b..]);
            if n == LANES {
                // Every derivative is known: update in registers.
                (ti + F64xN::splat(h) * d).write_to(temps);
                return;
            }
            d.write_to(&mut deriv[b..]);
        }
        for i in full..n {
            let ti = temps[i];
            let mut q = powers.node(i);
            for (col, &tj) in g.chunks_exact(n).zip(&*temps) {
                q -= col[i] * (ti - tj);
            }
            q -= g_amb[i] * (ti - ambient);
            deriv[i] = q / cap[i];
        }
        for (t, &d) in temps.iter_mut().zip(&*deriv) {
            *t += h * d;
        }
    }

    /// Solves the steady-state temperatures for constant injected power:
    /// `(G + G_amb) T = P + G_amb T_amb`. Serves every warm start, the
    /// gap fast-forward's re-linearisation and each iteration of the
    /// offline design-point evaluation's leakage/temperature fixed point.
    ///
    /// The conductance matrix never changes after
    /// [`ThermalModelBuilder::build`], so the first call LU-factorises
    /// it once for the network and every clone of the model shares the
    /// factors; every call then costs one `O(n²)` solve. Ambient only
    /// enters the right-hand side, so [`ThermalModel::set_ambient_c`]
    /// leaves the factors valid.
    ///
    /// # Panics
    ///
    /// Panics if the conductance system is singular (a node with no path
    /// to ambient).
    pub fn steady_state(&self, power_w: &[f64]) -> Vec<f64> {
        assert_eq!(power_w.len(), self.len());
        let b: Vec<f64> = power_w
            .iter()
            .zip(&self.net.to_ambient)
            .map(|(&p, &g_amb)| p + g_amb * self.ambient_c)
            .collect();
        self.net
            .steady_lu()
            .solve(&b)
            .expect("dimensions match by construction")
    }

    /// [`ThermalModel::steady_state`] into caller-owned buffers,
    /// allocating nothing: the right-hand side is assembled in `rhs`
    /// and the temperatures land in `out`, with the same bits.
    ///
    /// # Panics
    ///
    /// Panics if any slice's length differs from the node count, or if
    /// the conductance system is singular.
    pub fn steady_state_into(&self, power_w: &[f64], rhs: &mut [f64], out: &mut [f64]) {
        self.net
            .steady_state_into(self.ambient_c, power_w, rhs, out);
    }

    /// Sets every node to its steady state for the given power — a "warm
    /// start" as if the board idled long enough to equilibrate. Solves
    /// in place, with the derivative scratch holding the right-hand
    /// side: the bits of [`ThermalModel::steady_state`], and no
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `power_w.len() != self.len()`, or if the conductance
    /// system is singular.
    pub fn warm_start(&mut self, power_w: &[f64]) {
        self.net
            .steady_state_into(self.ambient_c, power_w, &mut self.deriv, &mut self.temps);
    }

    /// Largest Euler step the network tolerates (informational).
    pub fn max_stable_dt(&self) -> f64 {
        self.max_stable_dt
    }

    /// Node-to-node conductance, W/°C (0 for unconnected pairs and the
    /// diagonal) — reads the flattened row-major matrix.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn conductance_w_per_c(&self, a: NodeId, b: NodeId) -> f64 {
        let n = self.len();
        assert!(a < n && b < n, "unknown node");
        self.net.conductance[a * n + b]
    }

    /// Per-node heat capacities (J/°C) in id order — the batched SoA
    /// mirror ([`crate::ThermalBatch`]) splats these across lanes.
    pub fn capacitances_j_per_c(&self) -> &[f64] {
        &self.net.capacitance
    }

    /// Per-node node-to-ambient conductances (W/°C) in id order.
    pub fn ambient_conductances_w_per_c(&self) -> &[f64] {
        &self.net.to_ambient
    }

    /// The full flattened row-major `n × n` conductance matrix (W/°C,
    /// symmetric, structurally-zero diagonal).
    pub fn conductance_matrix(&self) -> &[f64] {
        &self.net.conductance
    }

    /// Builds (once) the spectral decomposition behind
    /// [`ThermalModel::cool_to`]. The network topology is immutable
    /// after [`ThermalModelBuilder::build`], so the plan never needs
    /// invalidation.
    fn ensure_plan(&mut self) {
        if self.plan.is_some() {
            return;
        }
        let n = self.len();
        let mut s = Matrix::zeros(n, n);
        let net = &*self.net;
        let c_sqrt: Vec<f64> = net.capacitance.iter().map(|&c| c.sqrt()).collect();
        let c_inv_sqrt: Vec<f64> = c_sqrt.iter().map(|&c| 1.0 / c).collect();
        for i in 0..n {
            let mut diag = net.to_ambient[i];
            for j in 0..n {
                if i != j {
                    let g = net.conductance[i * n + j];
                    diag += g;
                    s[(i, j)] = -g * c_inv_sqrt[i] * c_inv_sqrt[j];
                }
            }
            s[(i, i)] = diag * c_inv_sqrt[i] * c_inv_sqrt[i];
        }
        let e = sym_eigen(&s);
        // S is PSD by construction; clamp rounding-level negative
        // eigenvalues so the modal solution never grows exponentially.
        let lambda: Vec<f64> = e.values.iter().map(|&l| l.max(0.0)).collect();
        let mut qc_sqrt = vec![0.0; n * n];
        let mut qc_inv = vec![0.0; n * n];
        let mut qt = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                let q = e.vectors[(i, k)];
                qc_sqrt[i * n + k] = q * c_sqrt[i];
                qc_inv[i * n + k] = q * c_inv_sqrt[i];
                qt[k * n + i] = q;
            }
        }
        self.plan = Some(CoolingPlan {
            lambda,
            qc_sqrt,
            qc_inv,
            qt,
            c_inv_sqrt,
            forcing: vec![0.0; n],
            y: vec![0.0; n],
            b: vec![0.0; n],
        });
    }

    /// Advances the network `horizon_s` seconds under **constant** power
    /// in closed form — the event-driven engines' gap fast-forward.
    ///
    /// Equivalent to `set_ambient_c(ambient_c)` followed by the exact
    /// solution of the linear heat equation over the span: the cost is
    /// `O(n²)` *independent of the horizon length*, versus
    /// `O(horizon/dt · n²)` for [`ThermalModel::step`]. Because the RC
    /// network is linear, the only approximation left to callers is
    /// holding `power_w` constant across the span; re-segmenting when
    /// power is temperature-dependent (leakage) bounds that error —
    /// see the engine-level fast-forward. Under truly constant power the
    /// result matches `step` with `dt → 0` exactly (it *is* the limit),
    /// the drawn energy over the gap is exactly `Σᵢ power_w[i] ·
    /// horizon_s`, and `cool_to(a); cool_to(b)` equals `cool_to(a + b)`
    /// (semigroup property, pinned by tests).
    ///
    /// The first call builds a cached spectral decomposition of the
    /// network (Jacobi eigensolve, `O(n³)`); subsequent calls reuse it
    /// and allocate nothing.
    ///
    /// The modal transform, the per-mode decay and the back-transform
    /// each run [`LANES`] modes or nodes per block, with a scalar tail,
    /// as the Euler kernel does: every lane evaluates the scalar
    /// expression in the scalar summation order (the decay through
    /// [`exp_exact_block`], which matches [`exp_exact`] per lane), so
    /// the result is the same bits as one mode or node at a time.
    ///
    /// # Panics
    ///
    /// Panics if `power_w.len() != self.len()`, `horizon_s < 0`, or
    /// `ambient_c` is outside the plausible range (as
    /// [`ThermalModel::set_ambient_c`]).
    pub fn cool_to(&mut self, horizon_s: f64, ambient_c: f64, power_w: &[f64]) {
        assert_eq!(power_w.len(), self.len(), "power vector length mismatch");
        assert!(horizon_s >= 0.0, "negative horizon");
        self.set_ambient_c(ambient_c);
        if horizon_s == 0.0 {
            return;
        }
        self.ensure_plan();
        let n = self.len();
        let ThermalModel {
            net,
            temps,
            ambient_c,
            plan,
            ..
        } = self;
        let CoolingPlan {
            lambda,
            qc_sqrt,
            qc_inv,
            qt,
            c_inv_sqrt,
            forcing,
            y,
            b,
        } = plan.as_mut().expect("plan ensured above");
        let full = n - n % LANES;
        for (f, (&p, &g_amb)) in forcing.iter_mut().zip(power_w.iter().zip(&net.to_ambient)) {
            *f = p + g_amb * *ambient_c;
        }
        // Modal transform: y = Qᵀ C^{1/2} T, b = Qᵀ C^{-1/2} (P + G_amb·T_amb),
        // summed over nodes i = 0..n in order for each mode.
        for k in (0..full).step_by(LANES) {
            let (mut yk, mut bk) = (F64xN::ZERO, F64xN::ZERO);
            for ((qc, qi), (&t, &f)) in qc_sqrt
                .chunks_exact(n)
                .zip(qc_inv.chunks_exact(n))
                .zip(temps.iter().zip(&*forcing))
            {
                yk = yk + F64xN::from_slice(&qc[k..]) * F64xN::splat(t);
                bk = bk + F64xN::from_slice(&qi[k..]) * F64xN::splat(f);
            }
            yk.write_to(&mut y[k..]);
            bk.write_to(&mut b[k..]);
        }
        for k in full..n {
            let (mut yk, mut bk) = (0.0, 0.0);
            for ((qc, qi), (&t, &f)) in qc_sqrt
                .chunks_exact(n)
                .zip(qc_inv.chunks_exact(n))
                .zip(temps.iter().zip(&*forcing))
            {
                yk += qc[k] * t;
                bk += qi[k] * f;
            }
            y[k] = yk;
            b[k] = bk;
        }
        // Per-mode exact solution. λ ≈ 0 modes (a network segment with
        // no path to ambient) integrate their forcing linearly.
        let tiny = lambda.last().copied().unwrap_or(0.0) * 1e-12;
        for k in (0..full).step_by(LANES) {
            let l = F64xN::from_slice(&lambda[k..]);
            let bk = F64xN::from_slice(&b[k..]);
            let yk = F64xN::from_slice(&y[k..]);
            let decay = F64xN(exp_exact_block(l.0.map(|lk| -lk * horizon_s)));
            let y_inf = bk / l;
            let relaxed = y_inf + (yk - y_inf) * decay;
            let drifted = yk + bk * F64xN::splat(horizon_s);
            for (lane, out) in y[k..k + LANES].iter_mut().enumerate() {
                *out = if l.0[lane] > tiny {
                    relaxed.0[lane]
                } else {
                    drifted.0[lane]
                };
            }
        }
        for k in full..n {
            let (l, bk) = (lambda[k], b[k]);
            if l > tiny {
                let y_inf = bk / l;
                y[k] = y_inf + (y[k] - y_inf) * exp_exact(-l * horizon_s);
            } else {
                y[k] += bk * horizon_s;
            }
        }
        // Back-transform: T = C^{-1/2} Q y, summed over modes k = 0..n
        // in order for each node.
        for i in (0..full).step_by(LANES) {
            let mut u = F64xN::ZERO;
            for (q, &yk) in qt.chunks_exact(n).zip(&*y) {
                u = u + F64xN::from_slice(&q[i..]) * F64xN::splat(yk);
            }
            (u * F64xN::from_slice(&c_inv_sqrt[i..])).write_to(&mut temps[i..]);
        }
        for i in full..n {
            let mut u = 0.0;
            for (q, &yk) in qt.chunks_exact(n).zip(&*y) {
                u += q[i] * yk;
            }
            temps[i] = u * c_inv_sqrt[i];
        }
    }

    /// Decay rate (1/s) of the fastest-relaxing thermal mode — the
    /// largest eigenvalue of the normalised conductance system. The
    /// engine-level gap fast-forward uses it to size re-linearisation
    /// segments: over a span `L`, no mode moves toward its equilibrium
    /// by more than the fraction `1 − e^{−λ_max·L}`. Builds the
    /// spectral cache on first use.
    pub fn fastest_cooling_rate(&mut self) -> f64 {
        self.ensure_plan();
        self.plan
            .as_ref()
            .expect("plan ensured above")
            .lambda
            .last()
            .copied()
            .unwrap_or(0.0)
    }
}

impl Network {
    /// The steady-state system's LU factors, factorised on first use.
    fn steady_lu(&self) -> &Lu {
        self.steady.get_or_init(|| self.factor_conductance())
    }

    /// The steady state at `ambient_c` under `power_w` into `out`, with
    /// the right-hand side assembled in `rhs`.
    fn steady_state_into(&self, ambient_c: f64, power_w: &[f64], rhs: &mut [f64], out: &mut [f64]) {
        for len in [power_w.len(), rhs.len(), out.len()] {
            assert_eq!(len, self.names.len());
        }
        for (b, (&p, &g_amb)) in rhs.iter_mut().zip(power_w.iter().zip(&self.to_ambient)) {
            *b = p + g_amb * ambient_c;
        }
        self.steady_lu()
            .solve_into(rhs, out)
            .expect("dimensions match by construction");
    }

    /// LU factors of the steady-state system matrix `G + G_amb`.
    fn factor_conductance(&self) -> Lu {
        let n = self.names.len();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            let mut diag = self.to_ambient[i];
            for j in 0..n {
                if i != j {
                    let g = self.conductance[i * n + j];
                    a[(i, j)] = -g;
                    diag += g;
                }
            }
            a[(i, i)] = diag;
        }
        lu_factor(&a).expect("thermal network must be connected to ambient")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoardSpec;

    /// A two-node toy network: die -> board -> ambient.
    fn toy() -> ThermalModel {
        let mut b = ThermalModelBuilder::new(25.0);
        let die = b.node("die", 0.5, 0.0, 25.0);
        let board = b.node("board", 50.0, 0.5, 25.0);
        b.connect(die, board, 0.2);
        b.build()
    }

    #[test]
    fn relaxes_to_ambient_without_power() {
        let mut m = toy();
        m.set_temp(0, 80.0);
        m.set_temp(1, 60.0);
        m.step(10_000.0, &[0.0, 0.0]);
        assert!((m.temp(0) - 25.0).abs() < 0.1, "die {}", m.temp(0));
        assert!((m.temp(1) - 25.0).abs() < 0.1, "board {}", m.temp(1));
    }

    #[test]
    fn steady_state_matches_hand_computation() {
        let m = toy();
        // P=4W into die: all flows die->board->ambient.
        // T_board = 25 + 4/0.5 = 33; T_die = 33 + 4/0.2 = 53.
        let ss = m.steady_state(&[4.0, 0.0]);
        assert!((ss[1] - 33.0).abs() < 1e-9, "board {}", ss[1]);
        assert!((ss[0] - 53.0).abs() < 1e-9, "die {}", ss[0]);
    }

    #[test]
    fn long_integration_converges_to_steady_state() {
        let mut m = toy();
        let p = [4.0, 0.0];
        let ss = m.steady_state(&p);
        m.step(5_000.0, &p);
        assert!((m.temp(0) - ss[0]).abs() < 0.05);
        assert!((m.temp(1) - ss[1]).abs() < 0.05);
    }

    #[test]
    fn warm_start_sets_steady_state() {
        let mut m = toy();
        m.warm_start(&[2.0, 0.0]);
        let ss = m.steady_state(&[2.0, 0.0]);
        assert_eq!(m.temps(), ss.as_slice());
    }

    #[test]
    fn clones_share_the_network_and_its_factors() {
        let mut a = toy();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.net, &b.net));
        assert!(b.net.steady.get().is_none());
        // Factors built through one clone serve the other.
        a.warm_start(&[1.0, 0.0]);
        assert!(b.net.steady.get().is_some());
        // The per-run state and the cooling plan are each clone's own.
        a.cool_to(1.0, 25.0, &[1.0, 0.0]);
        assert_eq!(b.temps(), [25.0, 25.0]);
        assert!(a.plan.is_some() && b.plan.is_none());
    }

    #[test]
    fn ambient_change_moves_the_equilibrium() {
        let mut m = toy();
        m.step(10_000.0, &[0.0, 0.0]);
        assert!((m.temp(0) - 25.0).abs() < 0.1);
        // Scenario event: ambient jumps 15 C; the network re-equilibrates
        // at the new ambient without touching node state directly.
        m.set_ambient_c(40.0);
        assert_eq!(m.ambient_c(), 40.0);
        m.step(10_000.0, &[0.0, 0.0]);
        assert!((m.temp(0) - 40.0).abs() < 0.1, "die {}", m.temp(0));
        // Steady state under power shifts by the same offset.
        let ss = m.steady_state(&[4.0, 0.0]);
        assert!((ss[0] - 68.0).abs() < 1e-9, "die {}", ss[0]);
    }

    #[test]
    #[should_panic(expected = "plausible")]
    fn rejects_absurd_ambient() {
        toy().set_ambient_c(500.0);
    }

    #[test]
    fn heating_is_monotone_under_constant_power() {
        let mut m = toy();
        let mut last = m.temp(0);
        for _ in 0..50 {
            m.step(1.0, &[4.0, 0.0]);
            let now = m.temp(0);
            assert!(now >= last - 1e-9, "temperature fell while heating");
            last = now;
        }
        assert!(last > 30.0);
    }

    #[test]
    fn faster_time_constant_for_smaller_capacitance() {
        // Die (C=0.5, G=0.2) has tau = 2.5 s; after 2.5 s of heating from
        // equilibrium the die should have covered ~63% of its step
        // response relative to the (slow) board.
        let mut m = toy();
        m.step(2.5, &[4.0, 0.0]);
        let die_rise = m.temp(0) - 25.0;
        let board_rise = m.temp(1) - 25.0;
        assert!(
            die_rise > 5.0 * board_rise,
            "die {die_rise} board {board_rise}"
        );
    }

    #[test]
    fn substepping_is_stable_for_large_dt() {
        let mut m = toy();
        // One giant step must not oscillate/diverge.
        m.step(1_000.0, &[4.0, 0.0]);
        let t = m.temp(0);
        assert!(t.is_finite() && (25.0..200.0).contains(&t), "t = {t}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_power_vector_length() {
        toy().step(1.0, &[1.0]);
    }

    #[test]
    fn substep_count_has_no_float_residue_extra_step() {
        let mut m = toy();
        let h = m.max_stable_dt();
        // dt an exact multiple of the stable step takes exactly that many
        // sub-steps — accumulated `remaining -= h` residue must not
        // schedule a denormal trailing step.
        for k in [1u32, 2, 3, 7, 10, 100, 1000] {
            let dt = h * f64::from(k);
            assert_eq!(m.step(dt, &[0.0, 0.0]), k, "dt = {k} stable steps");
        }
        // Near-multiples with sub-epsilon residue likewise.
        let dt = h * 5.0 * (1.0 + 1e-13);
        assert_eq!(m.step(dt, &[0.0, 0.0]), 5);
        // A genuine partial step still runs.
        assert_eq!(m.step(h * 2.5, &[0.0, 0.0]), 3);
        assert_eq!(m.step(h * 0.1, &[0.0, 0.0]), 1);
        // Zero dt is a no-op.
        assert_eq!(m.step(0.0, &[0.0, 0.0]), 0);
    }

    /// `(Pᵢ, [(Gᵢⱼ, j)], G_amb,ᵢ, Cᵢ)` for one node.
    type Node<'a> = (f64, &'a [(f64, usize)], f64, f64);

    /// The forward-Euler update of node `i`, written out from its
    /// neighbour list: `Tᵢ + h·(Pᵢ − Σⱼ Gᵢⱼ(Tᵢ − Tⱼ) − G_amb,ᵢ(Tᵢ − T_amb))/Cᵢ`.
    /// Also sums the terms in reverse and asserts the same bits: a guard
    /// that the chosen values keep every intermediate exactly
    /// representable, which makes the check independent of summation
    /// order.
    fn hand_euler(h: f64, t: &[f64], ambient: f64, i: usize, node: Node<'_>) -> f64 {
        let (p, neighbours, g_amb, c) = node;
        let terms: Vec<f64> = neighbours
            .iter()
            .map(|&(g, j)| g * (t[i] - t[j]))
            .chain([g_amb * (t[i] - ambient)])
            .collect();
        let forward = terms.iter().fold(p, |q, x| q - x);
        let reverse = p - terms.iter().rev().fold(0.0, |s, x| s + x);
        assert_eq!(forward, reverse, "node {i}: an intermediate rounded");
        t[i] + h * (forward / c)
    }

    #[test]
    fn one_substep_is_the_forward_euler_update_exactly() {
        // The toy's 0.2 W/°C coupling is not dyadic, so its two nodes
        // start level: the coupling term is exactly zero and the check
        // covers injection, the ambient path and the capacities.
        let mut m = toy();
        m.set_temp(0, 75.0);
        m.set_temp(1, 75.0);
        let h = 1.0;
        assert!(h <= m.max_stable_dt());
        let expect = [
            hand_euler(h, m.temps(), 25.0, 0, (4.0, &[(0.2, 1)], 0.0, 0.5)),
            hand_euler(h, m.temps(), 25.0, 1, (0.0, &[(0.2, 0)], 0.5, 50.0)),
        ];
        assert_eq!(expect, [83.0, 74.5]);
        assert_eq!(m.step(h, &[4.0, 0.0]), 1);
        assert_eq!(m.temps(), expect);

        // Five nodes, dyadic throughout: one full SIMD block plus one
        // scalar node, every coupling term non-zero, and a reversed
        // duplicate edge (board -> big) accumulating onto big -> board.
        let mut b = ThermalModelBuilder::new(25.0);
        let big = b.node("big", 0.5, 0.0, 80.0);
        let little = b.node("little", 0.25, 0.0, 61.5);
        let gpu = b.node("gpu", 2.0, 0.0, 72.0);
        let mem = b.node("mem", 1.0, 0.125, 45.25);
        let board = b.node("board", 64.0, 0.5, 40.0);
        b.connect(big, board, 0.25);
        b.connect(little, board, 0.125);
        b.connect(gpu, board, 0.125);
        b.connect(big, gpu, 0.125);
        b.connect(big, little, 0.0625);
        b.connect(mem, board, 0.25);
        b.connect(board, big, 0.125);
        let mut m = b.build();
        let h = 0.25;
        assert!(h <= m.max_stable_dt());
        let nodes: [Node<'_>; 5] = [
            (
                4.0,
                &[(0.0625, little), (0.125, gpu), (0.375, board)],
                0.0,
                0.5,
            ),
            (0.5, &[(0.0625, big), (0.125, board)], 0.0, 0.25),
            (2.0, &[(0.125, big), (0.125, board)], 0.0, 2.0),
            (1.5, &[(0.25, board)], 0.125, 1.0),
            (
                0.25,
                &[(0.375, big), (0.125, little), (0.125, gpu), (0.25, mem)],
                0.5,
                64.0,
            ),
        ];
        let t = m.temps().to_vec();
        let expect: Vec<f64> = nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| hand_euler(h, &t, 25.0, i, node))
            .collect();
        let p: Vec<f64> = nodes.iter().map(|node| node.0).collect();
        assert_eq!(m.step(h, &p), 1);
        assert_eq!(m.temps(), expect);
    }

    #[test]
    fn flattened_conductance_is_symmetric_and_queryable() {
        let mut b = ThermalModelBuilder::new(25.0);
        let n0 = b.node("a", 1.0, 0.1, 25.0);
        let n1 = b.node("b", 1.0, 0.1, 25.0);
        let n2 = b.node("c", 1.0, 0.1, 25.0);
        b.connect(n0, n1, 0.5);
        b.connect(n1, n2, 0.25);
        b.connect(n0, n1, 0.125); // parallel paths accumulate
        b.connect(n2, n1, 0.1); // a reversed duplicate, not dyadic
        b.connect(n1, n2, 0.7);
        let m = b.build();
        assert_eq!(m.conductance_w_per_c(n0, n1), 0.625);
        assert_eq!(m.conductance_w_per_c(n1, n0), 0.625);
        assert_eq!(m.conductance_w_per_c(n1, n2), 0.25 + 0.1 + 0.7);
        assert_eq!(m.conductance_w_per_c(n0, n2), 0.0);
        assert_eq!(m.conductance_w_per_c(n2, n2), 0.0);

        // The node-blocked Euler kernel reads column j as row j, which
        // is exact only while the matrix is symmetric bit for bit.
        let boards = std::iter::once(BoardSpec::OdroidXu4)
            .chain((16..=64).map(|nodes| BoardSpec::ManyNode { nodes }))
            .map(|spec| spec.build_ideal().thermal);
        for m in boards.chain([m]) {
            for i in 0..m.len() {
                for j in 0..m.len() {
                    assert_eq!(
                        m.conductance_w_per_c(i, j).to_bits(),
                        m.conductance_w_per_c(j, i).to_bits(),
                        "{} nodes: G[{i}][{j}] != G[{j}][{i}]",
                        m.len()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_capacitance() {
        ThermalModelBuilder::new(25.0).node("x", 0.0, 0.1, 25.0);
    }

    #[test]
    fn cool_to_reaches_steady_state_at_long_horizon() {
        let mut m = toy();
        m.set_temp(0, 90.0);
        m.set_temp(1, 70.0);
        let p = [1.5, 0.0];
        let ss = m.steady_state(&p);
        m.cool_to(1e6, 25.0, &p);
        assert!((m.temp(0) - ss[0]).abs() < 1e-9, "die {}", m.temp(0));
        assert!((m.temp(1) - ss[1]).abs() < 1e-9, "board {}", m.temp(1));
    }

    #[test]
    fn cool_to_matches_euler_stepping() {
        // The closed form is the dt→0 limit of the Euler path: against a
        // fine-dt reference the difference is the reference's own
        // first-order truncation error, far below 0.05 °C at dt = 10 ms.
        for horizon in [0.3f64, 2.0, 17.0, 400.0] {
            let mut a = toy();
            let mut b = toy();
            for m in [&mut a, &mut b] {
                m.set_temp(0, 85.0);
                m.set_temp(1, 55.0);
            }
            let p = [0.4, 0.1];
            let fine_steps = (horizon / 0.01).round() as u32;
            for _ in 0..fine_steps {
                a.step(0.01, &p);
            }
            b.cool_to(horizon, 25.0, &p);
            for i in 0..2 {
                assert!(
                    (a.temp(i) - b.temp(i)).abs() < 0.05,
                    "horizon {horizon} node {i}: euler {} vs closed {}",
                    a.temp(i),
                    b.temp(i)
                );
            }
        }
    }

    #[test]
    fn cool_to_is_a_semigroup() {
        // Advancing a+b in one call equals advancing a then b: the
        // closed form composes exactly (no per-call truncation error).
        let mut once = toy();
        let mut twice = toy();
        for m in [&mut once, &mut twice] {
            m.set_temp(0, 95.0);
            m.set_temp(1, 40.0);
        }
        let p = [0.2, 0.0];
        once.cool_to(13.25, 31.0, &p);
        twice.cool_to(4.0, 31.0, &p);
        twice.cool_to(9.25, 31.0, &p);
        for i in 0..2 {
            assert!(
                (once.temp(i) - twice.temp(i)).abs() < 1e-9,
                "node {i}: {} vs {}",
                once.temp(i),
                twice.temp(i)
            );
        }
    }

    #[test]
    fn cool_to_zero_horizon_only_sets_ambient() {
        let mut m = toy();
        m.set_temp(0, 77.0);
        m.cool_to(0.0, 30.0, &[0.0, 0.0]);
        assert_eq!(m.temp(0), 77.0);
        assert_eq!(m.ambient_c(), 30.0);
    }

    #[test]
    fn fastest_cooling_rate_bounds_every_nodes_time_constant() {
        let mut m = toy();
        let rate = m.fastest_cooling_rate();
        assert!(rate > 0.0);
        // The die's isolated time constant is C/G = 0.5/0.2 = 2.5 s, so
        // the fastest mode must relax at least that fast.
        assert!(rate >= 1.0 / 2.5 - 1e-9, "rate {rate}");
        // And no faster than the Euler stability analysis implies
        // (max_stable_dt = 0.5 · min C/ΣG ⇒ λ_max ≤ 2 / (2·max_stable_dt)).
        assert!(rate <= 1.0 / m.max_stable_dt() + 1e-9, "rate {rate}");
    }

    #[test]
    fn cool_to_handles_ambient_isolated_network() {
        // Two nodes coupled to each other but not to ambient: the zero
        // eigenvalue mode conserves total heat, and constant power
        // integrates linearly instead of diverging.
        let mut b = ThermalModelBuilder::new(25.0);
        let n0 = b.node("a", 1.0, 0.0, 80.0);
        let n1 = b.node("b", 1.0, 0.0, 20.0);
        b.connect(n0, n1, 0.5);
        let mut m = b.build();
        m.cool_to(1_000.0, 25.0, &[0.0, 0.0]);
        // Heat equalises, total is conserved.
        assert!((m.temp(n0) - 50.0).abs() < 1e-6, "a {}", m.temp(n0));
        assert!((m.temp(n1) - 50.0).abs() < 1e-6, "b {}", m.temp(n1));
        // 1 W into an isolated 2 J/°C system heats 0.5 °C/s.
        m.cool_to(10.0, 25.0, &[1.0, 0.0]);
        let mean = 0.5 * (m.temp(n0) + m.temp(n1));
        assert!((mean - 55.0).abs() < 1e-6, "mean {mean}");
    }

    #[test]
    fn builder_rejects_bad_edges() {
        let mut b = ThermalModelBuilder::new(25.0);
        let n0 = b.node("a", 1.0, 0.1, 25.0);
        let n1 = b.node("b", 1.0, 0.1, 25.0);
        b.connect(n0, n1, 0.5);
        let m = b.build();
        assert_eq!(m.len(), 2);
        assert_eq!(m.names(), &["a".to_string(), "b".to_string()]);
    }
}

/// Bitwise oracle for [`ThermalModel::cool_to`]: the blocked transforms
/// against the one-mode-at-a-time scalar body they replaced, kept here
/// as the reference.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::BoardSpec;

    /// The spectral plan and `cool_to` body as they were before the
    /// transforms ran in blocks: `Q`, `√C` and `1/√C` held apart, the
    /// forcing re-derived per mode, each mode and each node summed one
    /// at a time.
    struct Reference {
        lambda: Vec<f64>,
        q: Vec<f64>,
        c_sqrt: Vec<f64>,
        c_inv_sqrt: Vec<f64>,
    }

    impl Reference {
        fn of(m: &ThermalModel) -> Self {
            let n = m.len();
            let mut s = Matrix::zeros(n, n);
            let c_sqrt: Vec<f64> = m.net.capacitance.iter().map(|&c| c.sqrt()).collect();
            let c_inv_sqrt: Vec<f64> = c_sqrt.iter().map(|&c| 1.0 / c).collect();
            for i in 0..n {
                let mut diag = m.net.to_ambient[i];
                for j in 0..n {
                    if i != j {
                        let g = m.net.conductance[i * n + j];
                        diag += g;
                        s[(i, j)] = -g * c_inv_sqrt[i] * c_inv_sqrt[j];
                    }
                }
                s[(i, i)] = diag * c_inv_sqrt[i] * c_inv_sqrt[i];
            }
            let e = sym_eigen(&s);
            let lambda: Vec<f64> = e.values.iter().map(|&l| l.max(0.0)).collect();
            let mut q = vec![0.0; n * n];
            for i in 0..n {
                for k in 0..n {
                    q[i * n + k] = e.vectors[(i, k)];
                }
            }
            Reference {
                lambda,
                q,
                c_sqrt,
                c_inv_sqrt,
            }
        }

        // The loops keep the replaced body's index form.
        #[allow(clippy::needless_range_loop)]
        fn cool_to(&self, m: &mut ThermalModel, horizon_s: f64, ambient_c: f64, power_w: &[f64]) {
            m.set_ambient_c(ambient_c);
            if horizon_s == 0.0 {
                return;
            }
            let n = m.len();
            let (mut y, mut b) = (vec![0.0; n], vec![0.0; n]);
            for k in 0..n {
                let mut yk = 0.0;
                let mut bk = 0.0;
                for i in 0..n {
                    let qik = self.q[i * n + k];
                    yk += qik * self.c_sqrt[i] * m.temps[i];
                    bk +=
                        qik * self.c_inv_sqrt[i] * (power_w[i] + m.net.to_ambient[i] * m.ambient_c);
                }
                y[k] = yk;
                b[k] = bk;
            }
            let tiny = self.lambda.last().copied().unwrap_or(0.0) * 1e-12;
            for (yk, (&l, &bk)) in y.iter_mut().zip(self.lambda.iter().zip(&b)) {
                if l > tiny {
                    let y_inf = bk / l;
                    *yk = y_inf + (*yk - y_inf) * exp_exact(-l * horizon_s);
                } else {
                    *yk += bk * horizon_s;
                }
            }
            for (i, t) in m.temps.iter_mut().enumerate() {
                let mut u = 0.0;
                for k in 0..n {
                    u += self.q[i * n + k] * y[k];
                }
                *t = u * self.c_inv_sqrt[i];
            }
        }
    }

    /// Six nodes in a chain with no path to ambient: one block and a
    /// two-node tail, whose zero-eigenvalue mode sits in the block.
    fn ambient_isolated() -> ThermalModel {
        let mut b = ThermalModelBuilder::new(25.0);
        let ids: Vec<NodeId> = [0.8, 2.5, 1.1, 40.0, 0.3, 6.0]
            .iter()
            .enumerate()
            .map(|(i, &c)| b.node(format!("n{i}"), c, 0.0, 25.0))
            .collect();
        for (pair, g) in ids.windows(2).zip([0.4, 1.7, 0.05, 0.9, 0.2]) {
            b.connect(pair[0], pair[1], g);
        }
        b.build()
    }

    /// Fixed-seed LCG draws in `[lo, hi)`.
    struct Lcg(u64);

    impl Lcg {
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lo + (hi - lo) * ((self.0 >> 11) as f64 / (1u64 << 53) as f64)
        }
    }

    #[test]
    fn cool_to_matches_the_scalar_reference_bitwise() {
        let mut networks: Vec<(String, ThermalModel)> = [
            BoardSpec::OdroidXu4,
            BoardSpec::ManyNode { nodes: 16 },
            BoardSpec::ManyNode { nodes: 17 },
            BoardSpec::ManyNode { nodes: 64 },
        ]
        .into_iter()
        .map(|spec| (spec.label(), spec.build_ideal().thermal))
        .collect();
        networks.push(("isolated".to_string(), ambient_isolated()));
        let horizons = [1e-3, 0.01, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6];
        let mut rng = Lcg(0x7ee3);
        for (label, mut fast) in networks {
            let reference = Reference::of(&fast);
            let mut slow = fast.clone();
            let n = fast.len();
            for &horizon in &horizons {
                for _ in 0..3 {
                    for i in 0..n {
                        let t = rng.uniform(20.0, 95.0);
                        fast.set_temp(i, t);
                        slow.set_temp(i, t);
                    }
                    let power: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 6.0)).collect();
                    let ambient = rng.uniform(10.0, 45.0);
                    fast.cool_to(horizon, ambient, &power);
                    reference.cool_to(&mut slow, horizon, ambient, &power);
                    for i in 0..n {
                        assert_eq!(
                            fast.temp(i).to_bits(),
                            slow.temp(i).to_bits(),
                            "{label} horizon {horizon} node {i}: {} vs {}",
                            fast.temp(i),
                            slow.temp(i)
                        );
                    }
                    assert_eq!(fast.ambient_c().to_bits(), ambient.to_bits());
                }
            }
            if label == "isolated" {
                // The conserved mode must take the linear branch, or
                // this network checks nothing the boards do not.
                let lambda = &fast.plan.as_ref().expect("plan built").lambda;
                assert!(lambda[0] <= lambda[n - 1] * 1e-12, "{lambda:?}");
            }
        }
    }
}
