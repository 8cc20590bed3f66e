//! Cluster power model: switching (dynamic) power plus
//! temperature-dependent leakage.
//!
//! Dynamic power follows the standard CMOS model `P = Ceff · V² · f` per
//! active core, scaled by utilisation and the workload's switching
//! activity. Leakage grows exponentially with temperature — the positive
//! feedback that makes sustained operation at the 95 °C trip point
//! energy-expensive, and therefore the physical reason TEEM's proactive
//! 85 °C threshold *saves* energy relative to EEMP's thermally-blind
//! maximum-frequency policy (§V-A).
//!
//! [`NodePowerModel`] is the board-level model every engine steps with:
//! the per-domain terms that depend only on the operating point
//! (frequencies, mapping, busy flags) are folded once, so a step between
//! control decisions evaluates just the three leakage exponentials — the
//! split of Bhat, Gumussoy & Ogras (arXiv:2003.11081), where dynamic
//! power is set by the operating point and only leakage follows
//! temperature.

use crate::board::{Board, ThermalNodes};
use crate::engine::{ClusterFreqs, CoRunShare};
use crate::fastexp::exp_exact4;
use crate::perf::CpuMapping;
use crate::simd::LANES;

/// Static parameters of one power domain (cluster).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Effective switched capacitance per core, farads.
    pub ceff_f_per_core: f64,
    /// Frequency-independent domain overhead (interconnect, L2), watts,
    /// drawn whenever the domain is powered.
    pub uncore_w: f64,
    /// Leakage scale: watts at `V = 1 V`, `T = leak_ref_c`.
    pub leak_scale_w: f64,
    /// Exponential leakage temperature coefficient, 1/°C.
    pub leak_alpha: f64,
    /// Reference temperature for `leak_scale_w`, °C.
    pub leak_ref_c: f64,
    /// Total cores in the domain.
    pub cores: u32,
}

impl PowerParams {
    /// Dynamic switching power with `active` cores busy at `utilization`
    /// in `[0, 1]` and workload switching `activity`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `active > cores`.
    pub fn dynamic_w(
        &self,
        volts: f64,
        freq_hz: f64,
        active: u32,
        utilization: f64,
        activity: f64,
    ) -> f64 {
        debug_assert!(active <= self.cores, "more active cores than exist");
        let per_core = self.ceff_f_per_core * volts * volts * freq_hz;
        per_core * active as f64 * utilization.clamp(0.0, 1.0) * activity
    }

    /// Temperature- and voltage-dependent leakage for the whole domain.
    ///
    /// Scales with the fraction of un-gated cores (power-gated cores stop
    /// leaking, which is how EEMP's "turn off unused cores" saves static
    /// power) with a 25 % floor for the always-on domain logic.
    pub fn leakage_w(&self, volts: f64, temp_c: f64, active: u32) -> f64 {
        let gate_frac = 0.25 + 0.75 * active as f64 / self.cores as f64;
        self.leak_scale_w
            * volts
            * volts
            * (self.leak_alpha * (temp_c - self.leak_ref_c)).exp()
            * gate_frac
    }

    /// Uncore power: zero when the domain is fully collapsed (no active
    /// cores), otherwise the constant overhead.
    pub fn uncore_power_w(&self, active: u32) -> f64 {
        if active == 0 {
            0.0
        } else {
            self.uncore_w
        }
    }

    /// Total domain power.
    pub fn total_w(
        &self,
        volts: f64,
        freq_hz: f64,
        active: u32,
        utilization: f64,
        activity: f64,
        temp_c: f64,
    ) -> f64 {
        if active == 0 {
            // Fully power-collapsed domain: residual leakage only.
            return self.leakage_w(volts, temp_c, 0);
        }
        self.dynamic_w(volts, freq_hz, active, utilization, activity)
            + self.leakage_w(volts, temp_c, active)
            + self.uncore_power_w(active)
    }
}

/// Default power parameters for the Exynos 5422's three domains, chosen to
/// land in the board's published envelope (big cluster ~6–7 W at 2 GHz,
/// LITTLE ~1 W, Mali ~2.5 W, total wall power 10–13 W under full load).
pub mod exynos5422 {
    use super::PowerParams;

    /// Cortex-A15 (big) cluster. The leakage parameters are deliberately
    /// steep (`alpha = 0.045/°C`): at the 95 °C trip the cluster leaks
    /// ~6x its 55 °C value, which is what makes sustained hot operation
    /// energy-expensive and gives TEEM its energy win over
    /// thermally-blind policies.
    pub fn big() -> PowerParams {
        PowerParams {
            ceff_f_per_core: 0.40e-9,
            uncore_w: 0.35,
            leak_scale_w: 0.45,
            leak_alpha: 0.045,
            leak_ref_c: 55.0,
            cores: 4,
        }
    }

    /// Cortex-A7 (LITTLE) cluster.
    pub fn little() -> PowerParams {
        PowerParams {
            ceff_f_per_core: 0.10e-9,
            uncore_w: 0.10,
            leak_scale_w: 0.05,
            leak_alpha: 0.018,
            leak_ref_c: 55.0,
            cores: 4,
        }
    }

    /// Mali-T628 MP6 GPU (cores = shader cores).
    pub fn gpu() -> PowerParams {
        PowerParams {
            ceff_f_per_core: 0.50e-9,
            uncore_w: 0.25,
            leak_scale_w: 0.20,
            leak_alpha: 0.019,
            leak_ref_c: 55.0,
            cores: 6,
        }
    }

    /// Constant board overhead seen by the wall meter (DRAM, eMMC,
    /// regulators, fan), watts.
    pub const BOARD_BASE_W: f64 = 2.2;
}

/// One power domain's draw at a frozen operating point: everything but
/// the node temperature folded, so an evaluation is one leakage
/// exponential plus a fixed sequence of additions.
///
/// The evaluation is `((leak + terms[0]) + terms[1])`, followed by the
/// owning model's co-run tail. IEEE addition is commutative, so with
/// `terms = [dyn, uncore]` this is [`PowerParams::total_w`]'s
/// `(dyn + leak) + uncore` bit for bit; a collapsed domain keeps both
/// terms at zero, and `(leak + 0) + 0` is `leak`'s bits (leakage is
/// never negative).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct DomainPower {
    /// `leak_scale_w · V · V` — the left prefix of
    /// [`PowerParams::leakage_w`]'s product chain, so its association
    /// (and its bits) survive.
    pub(crate) leak_vv: f64,
    /// Un-gated fraction, `0.25 + 0.75 · active / cores`.
    pub(crate) gate: f64,
    /// Leakage temperature coefficient, 1/°C.
    pub(crate) alpha: f64,
    /// Leakage reference temperature, °C.
    pub(crate) ref_c: f64,
    /// The temperature-independent terms, added to the leakage in order.
    pub(crate) terms: [f64; 2],
}

impl DomainPower {
    /// Leakage alone: `p`'s domain at `volts` with `active` un-gated
    /// cores ([`PowerParams::leakage_w`]).
    fn leakage(p: &PowerParams, volts: f64, active: u32) -> Self {
        DomainPower {
            leak_vv: p.leak_scale_w * volts * volts,
            gate: 0.25 + 0.75 * active as f64 / p.cores as f64,
            alpha: p.leak_alpha,
            ref_c: p.leak_ref_c,
            terms: [0.0, 0.0],
        }
    }

    /// [`PowerParams::total_w`] at one operating point: dynamic plus
    /// leakage plus uncore, or the leakage alone when no core is active.
    fn total(
        p: &PowerParams,
        volts: f64,
        freq_hz: f64,
        active: u32,
        utilization: f64,
        activity: f64,
    ) -> Self {
        let mut d = DomainPower::leakage(p, volts, active);
        if active > 0 {
            d.terms = [
                p.dynamic_w(volts, freq_hz, active, utilization, activity),
                p.uncore_power_w(active),
            ];
        }
        d
    }

    /// A CPU cluster shared by co-running apps, each granted
    /// `cores(mapping)` of it: leakage and uncore once for the union of
    /// granted cores, then each app's dynamic power in share order —
    /// `((leak + uncore) + dyn₁) + dyn₂ …`, the first dynamic term in
    /// `terms` and the rest appended to `tail`. A share off the CPU, or
    /// without cores here, draws at the `idle` utilisation floor; a
    /// cluster no app maps draws as `idle = (active cores, utilisation)`
    /// at unit activity.
    fn co_run_cluster(
        p: &PowerParams,
        volts: f64,
        freq_hz: f64,
        shares: &[CoRunShare],
        cores: fn(CpuMapping) -> u32,
        (idle_active, idle_util): (u32, f64),
        tail: &mut Vec<f64>,
    ) -> Self {
        let total: u32 = shares.iter().map(|s| cores(s.mapping)).sum();
        debug_assert!(total <= p.cores, "cluster oversold");
        if total == 0 {
            return DomainPower::total(p, volts, freq_hz, idle_active, idle_util, 1.0);
        }
        let mut dyns = shares.iter().map(|s| {
            let n = cores(s.mapping);
            let util = if s.cpu_busy && n > 0 { 1.0 } else { idle_util };
            p.dynamic_w(volts, freq_hz, n, util, s.activity)
        });
        let first = dyns.next().expect("a co-run has at least two shares");
        tail.extend(dyns);
        DomainPower {
            terms: [p.uncore_power_w(total), first],
            ..DomainPower::leakage(p, volts, total)
        }
    }

    /// The leakage exponential's argument at `temp_c`.
    #[inline]
    fn exponent(&self, temp_c: f64) -> f64 {
        self.alpha * (temp_c - self.ref_c)
    }

    /// The domain's draw given `e`, its leakage exponential, and its
    /// co-run `tail`.
    #[inline]
    fn eval(&self, e: f64, tail: &[f64]) -> f64 {
        let mut w = self.leak_vv * e * self.gate + self.terms[0] + self.terms[1];
        for &t in tail {
            w += t;
        }
        w
    }
}

/// The board's node power vector at a frozen operating point — the one
/// derivation of node power every engine uses.
///
/// The constructors fold everything that changes only at a control
/// decision (OPP voltages, dynamic and uncore power, leakage gating);
/// an evaluation then computes the three leaky domains (big, LITTLE,
/// GPU) with one [`exp_exact4`] call, which returns [`f64::exp`]'s
/// bits, and adds the constant board overhead. The four power nodes are
/// thermal ids 0–3 (the layout [`ThermalNodes`] documents; construction
/// asserts it), so those four figures are one node block. The scalar
/// step loops keep a model, rebuild it only when one of its inputs
/// changes, and step with
/// [`ThermalModel::step_frozen`](crate::ThermalModel::step_frozen),
/// which keeps the block in registers through the Euler step; one-off
/// evaluations (a warm start, the gap fast-forward, the offline
/// evaluator's fixed point, tests) call
/// [`eval_into`](NodePowerModel::eval_into).
///
/// Each constructor reproduces its regime's summation order bit for
/// bit: one app `(dyn + leak) + uncore` per domain, co-running apps
/// `((leak + uncore) + dyn₁) + dyn₂ …` on the CPU clusters, a collapsed
/// domain its leakage only. The oracle tests pin every constructor
/// against the reference expressions on [`PowerParams`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodePowerModel {
    /// Thermal node count (`board.thermal.len()`).
    pub(crate) len: usize,
    /// The leaky domains' folded coefficients: big, LITTLE, GPU, at
    /// thermal ids 0, 1, 2.
    pub(crate) domains: [DomainPower; 3],
    /// The board overhead's constant draw at thermal id 3, watts.
    pub(crate) board_w: f64,
    /// Co-run models only: every domain's remaining per-app dynamic
    /// terms, added after its `terms` in share order. Domain `d` owns
    /// `tail[tail_ends[d - 1]..tail_ends[d]]`; empty for one app.
    pub(crate) tail: Vec<f64>,
    tail_ends: [usize; 3],
}

impl NodePowerModel {
    /// The model of `board` with the leaky domains folded to `domains`.
    ///
    /// # Panics
    ///
    /// Panics if the board's power nodes are not thermal ids 0–3 of its
    /// network, in the order [`ThermalNodes`] documents.
    fn from_domains(board: &Board, domains: [DomainPower; 3]) -> Self {
        let ThermalNodes {
            big,
            little,
            gpu,
            board: overhead,
        } = board.nodes;
        assert!(
            [big, little, gpu, overhead] == [0, 1, 2, 3] && board.thermal.len() >= LANES,
            "the power nodes must be thermal ids 0-3 in the order big, LITTLE, GPU, board; \
             got {:?} in a {}-node network",
            board.nodes,
            board.thermal.len()
        );
        NodePowerModel {
            len: board.thermal.len(),
            domains,
            board_w: board.board_base_w,
            tail: Vec::new(),
            tail_ends: [0; 3],
        }
    }

    /// The power model for one application mapped on `mapping` at
    /// `freqs`: busy cores at full utilisation while `cpu_busy`, near-idle
    /// floors otherwise; the OS keeps one LITTLE core online even when
    /// the app maps none; the GPU drives every shader the board has while
    /// `gpu_busy`. `activity` is the workload's switching-activity factor.
    ///
    /// # Panics
    ///
    /// Panics if `board.gpu_shaders` exceeds the GPU power domain's
    /// cores (leakage gating would silently exceed 1).
    pub fn single_app(
        board: &Board,
        mapping: CpuMapping,
        freqs: ClusterFreqs,
        cpu_busy: bool,
        gpu_busy: bool,
        activity: f64,
    ) -> Self {
        let util = |cores: u32, idle: f64| if cpu_busy && cores > 0 { 1.0 } else { idle };
        let big = DomainPower::total(
            &board.big_power,
            board.big_opps.volts_at(freqs.big),
            freqs.big.as_hz(),
            mapping.big,
            util(mapping.big, 0.03),
            activity,
        );
        let little = DomainPower::total(
            &board.little_power,
            board.little_opps.volts_at(freqs.little),
            freqs.little.as_hz(),
            mapping.little.max(1),
            util(mapping.little, 0.08),
            activity,
        );
        let gpu = gpu_domain(board, freqs, if gpu_busy { 1.0 } else { 0.02 }, activity);
        NodePowerModel::from_domains(board, [big, little, gpu])
    }

    /// The idle board between arrivals: no application mapped, every
    /// device at its near-idle utilisation floor at `freqs`.
    pub fn idle(board: &Board, freqs: ClusterFreqs) -> Self {
        NodePowerModel::single_app(board, CpuMapping::new(0, 0), freqs, false, false, 1.0)
    }

    /// N applications co-running at `freqs`. Superposition per domain:
    /// each app contributes the dynamic power of its own granted cores at
    /// its own utilisation and activity, while leakage and uncore — domain
    /// properties, not an app's — are charged once for the union of
    /// active cores. The GPU is one time-shared device: busy while *any*
    /// app's GPU share runs, at the sharers' mean activity.
    ///
    /// With zero shares this is [`NodePowerModel::idle`]; with one it is
    /// [`NodePowerModel::single_app`], which keeps single-app scenario
    /// physics bit-identical to the single-run engine.
    ///
    /// # Panics
    ///
    /// Panics as [`NodePowerModel::single_app`], or (debug) if the
    /// shares' mappings together exceed a cluster — the arbiter must hand
    /// out disjoint core sets.
    pub fn co_run(board: &Board, shares: &[CoRunShare], freqs: ClusterFreqs) -> Self {
        match shares {
            [] => return NodePowerModel::idle(board, freqs),
            [s] => {
                return NodePowerModel::single_app(
                    board, s.mapping, freqs, s.cpu_busy, s.gpu_busy, s.activity,
                )
            }
            _ => {}
        }
        // The CPU clusters superpose per-app dynamic power on each app's
        // granted cores; a cluster nobody maps idles as in `idle` (the OS
        // keeps one LITTLE core online).
        let mut tail = Vec::with_capacity(2 * (shares.len() - 1));
        let big = DomainPower::co_run_cluster(
            &board.big_power,
            board.big_opps.volts_at(freqs.big),
            freqs.big.as_hz(),
            shares,
            |m| m.big,
            (0, 0.03),
            &mut tail,
        );
        let big_end = tail.len();
        let little = DomainPower::co_run_cluster(
            &board.little_power,
            board.little_opps.volts_at(freqs.little),
            freqs.little.as_hz(),
            shares,
            |m| m.little,
            (1, 0.08),
            &mut tail,
        );
        let little_end = tail.len();

        // GPU: one time-shared device at the sharers' mean activity.
        let gpu_users = shares.iter().filter(|s| s.gpu_busy).count();
        let (gpu_util, gpu_activity) = if gpu_users > 0 {
            let mean = shares
                .iter()
                .filter(|s| s.gpu_busy)
                .map(|s| s.activity)
                .sum::<f64>()
                / gpu_users as f64;
            (1.0, mean)
        } else {
            let mean = shares.iter().map(|s| s.activity).sum::<f64>() / shares.len() as f64;
            (0.02, mean)
        };
        let gpu = gpu_domain(board, freqs, gpu_util, gpu_activity);

        NodePowerModel {
            tail_ends: [big_end, little_end, tail.len()],
            tail,
            ..NodePowerModel::from_domains(board, [big, little, gpu])
        }
    }

    /// The power-collapsed board: every cluster gated (no dynamic or
    /// uncore power, leakage at the fully-gated floor at the minimum-OPP
    /// voltage), only the board overhead still drawn — what
    /// [`IdlePolicy::TimeoutCollapse`](crate::IdlePolicy::TimeoutCollapse)
    /// dissipates once its timeout fires.
    pub fn collapsed(board: &Board) -> Self {
        let f = ClusterFreqs::min_of(board);
        NodePowerModel::from_domains(
            board,
            [
                DomainPower::leakage(&board.big_power, board.big_opps.volts_at(f.big), 0),
                DomainPower::leakage(&board.little_power, board.little_opps.volts_at(f.little), 0),
                DomainPower::leakage(&board.gpu_power, board.gpu_opps.volts_at(f.gpu), 0),
            ],
        )
    }

    /// Writes the node power vector, watts, at node temperatures `temps`
    /// (both indexed as [`Board::nodes`]) into `out`: the three leaky
    /// domains, the board overhead, and zero on every passive node.
    ///
    /// # Panics
    ///
    /// Panics if `temps.len()` or `out.len()` differ from the board's
    /// thermal node count.
    pub fn eval_into(&self, temps: &[f64], out: &mut [f64]) {
        self.write_block(self.eval_block(temps), out);
    }

    /// The power nodes' draw, watts, at node temperatures `temps`: big,
    /// LITTLE, GPU and board, which are thermal ids 0–3.
    ///
    /// # Panics
    ///
    /// Panics if `temps.len()` differs from the board's thermal node
    /// count.
    #[inline(always)]
    pub(crate) fn eval_block(&self, temps: &[f64]) -> [f64; LANES] {
        assert_eq!(temps.len(), self.len, "temperature vector length");
        let [big, little, gpu] = &self.domains;
        let x = big.exponent(temps[0]);
        // The pad lane repeats a real argument, so it never sends the
        // block down the libm fallback on its own.
        let e = exp_exact4([x, little.exponent(temps[1]), gpu.exponent(temps[2]), x]);
        let [eb, el, eg] = self.tail_ends;
        [
            big.eval(e[0], &self.tail[..eb]),
            little.eval(e[1], &self.tail[eb..el]),
            gpu.eval(e[2], &self.tail[el..eg]),
            self.board_w,
        ]
    }

    /// Writes `block` ([`NodePowerModel::eval_block`]'s output) as the
    /// node power vector: the block on ids 0–3, zero on every passive
    /// node.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the board's thermal node
    /// count.
    #[inline(always)]
    pub(crate) fn write_block(&self, block: [f64; LANES], out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "power vector length");
        let (head, passive) = out.split_at_mut(LANES);
        head.copy_from_slice(&block);
        passive.fill(0.0);
    }
}

/// The GPU domain at `freqs`: every shader the board has, at `util` and
/// `activity`.
fn gpu_domain(board: &Board, freqs: ClusterFreqs, util: f64, activity: f64) -> DomainPower {
    assert!(
        board.gpu_shaders <= board.gpu_power.cores,
        "board.gpu_shaders ({}) exceeds the GPU power domain's cores ({})",
        board.gpu_shaders,
        board.gpu_power.cores
    );
    DomainPower::total(
        &board.gpu_power,
        board.gpu_opps.volts_at(freqs.gpu),
        freqs.gpu.as_hz(),
        board.gpu_shaders,
        util,
        activity,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_power_scales_with_v2f() {
        let p = exynos5422::big();
        let base = p.dynamic_w(1.0, 1.0e9, 4, 1.0, 1.0);
        assert!((p.dynamic_w(2.0, 1.0e9, 4, 1.0, 1.0) / base - 4.0).abs() < 1e-9);
        assert!((p.dynamic_w(1.0, 2.0e9, 4, 1.0, 1.0) / base - 2.0).abs() < 1e-9);
        assert!((p.dynamic_w(1.0, 1.0e9, 2, 1.0, 1.0) / base - 0.5).abs() < 1e-9);
        assert!((p.dynamic_w(1.0, 1.0e9, 4, 0.5, 1.0) / base - 0.5).abs() < 1e-9);
    }

    #[test]
    fn big_cluster_peak_power_in_envelope() {
        // 4 A15 at 2 GHz / 1.362 V fully busy at 85 C: expect ~7-11 W
        // (the XU4 can pull >10 W through the big rail before throttling).
        let p = exynos5422::big();
        let total = p.total_w(1.362, 2.0e9, 4, 1.0, 1.0, 85.0);
        assert!((6.0..11.0).contains(&total), "big peak {total} W");
    }

    #[test]
    fn little_cluster_is_an_order_cheaper() {
        let big = exynos5422::big().total_w(1.362, 2.0e9, 4, 1.0, 1.0, 70.0);
        let little = exynos5422::little().total_w(1.212, 1.4e9, 4, 1.0, 1.0, 70.0);
        assert!(little < big / 4.0, "little {little} vs big {big}");
        assert!((0.4..2.0).contains(&little), "little {little} W");
    }

    #[test]
    fn gpu_power_in_envelope() {
        let gpu = exynos5422::gpu().total_w(1.037, 6.0e8, 6, 1.0, 1.0, 75.0);
        assert!((1.5..4.0).contains(&gpu), "gpu {gpu} W");
    }

    #[test]
    fn leakage_grows_exponentially_with_temperature() {
        let p = exynos5422::big();
        let cold = p.leakage_w(1.3, 55.0, 4);
        let hot = p.leakage_w(1.3, 95.0, 4);
        // exp(0.045 * 40) = 6.05x
        assert!((hot / cold - (0.045_f64 * 40.0).exp()).abs() < 1e-9);
        assert!(hot > 5.0 * cold);
    }

    #[test]
    fn gating_cores_cuts_leakage() {
        let p = exynos5422::big();
        let all = p.leakage_w(1.3, 80.0, 4);
        let half = p.leakage_w(1.3, 80.0, 2);
        let none = p.leakage_w(1.3, 80.0, 0);
        assert!(half < all);
        assert!(none < half);
        assert!(none > 0.0, "always-on logic still leaks");
    }

    #[test]
    fn collapsed_domain_draws_only_leakage() {
        let p = exynos5422::gpu();
        let off = p.total_w(0.812, 1.77e8, 0, 0.0, 1.0, 50.0);
        assert_eq!(off, p.leakage_w(0.812, 50.0, 0));
        assert!(off < 0.1);
    }

    #[test]
    #[should_panic(expected = "the power nodes must be thermal ids 0-3")]
    fn power_model_rejects_swapped_power_nodes() {
        let mut board = Board::odroid_xu4_ideal();
        let nodes = &mut board.nodes;
        std::mem::swap(&mut nodes.big, &mut nodes.gpu);
        NodePowerModel::idle(&board, ClusterFreqs::min_of(&board));
    }

    #[test]
    fn utilization_clamped() {
        let p = exynos5422::big();
        assert_eq!(
            p.dynamic_w(1.0, 1e9, 4, 2.0, 1.0),
            p.dynamic_w(1.0, 1e9, 4, 1.0, 1.0)
        );
    }
}

/// Bitwise oracle for [`NodePowerModel`]: every constructor's
/// [`NodePowerModel::eval_into`] against the per-step power expressions
/// the engines evaluated before the model froze them, kept here as the
/// reference.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::board::BoardSpec;
    use crate::freq::MHz;

    /// The per-step bodies of `node_powers_into`,
    /// `co_run_node_powers_into` and `collapsed_node_powers_into` as
    /// they were before [`NodePowerModel`] became the one derivation
    /// (the two co-run CPU clusters share one helper): every OPP lookup,
    /// dynamic term and `f64::exp` re-derived per call through
    /// [`PowerParams`].
    mod reference {
        use super::super::PowerParams;
        use crate::board::Board;
        use crate::engine::{ClusterFreqs, CoRunShare};
        use crate::perf::CpuMapping;

        #[allow(clippy::too_many_arguments)]
        pub(super) fn node_powers_into(
            board: &Board,
            mapping: CpuMapping,
            freqs: ClusterFreqs,
            cpu_busy: bool,
            gpu_busy: bool,
            activity: f64,
            temps: &[f64],
            out: &mut [f64],
        ) {
            out.fill(0.0);
            let big_active = mapping.big;
            let big_util = if cpu_busy && big_active > 0 {
                1.0
            } else {
                0.03
            };
            out[board.nodes.big] = board.big_power.total_w(
                board.big_opps.volts_at(freqs.big),
                freqs.big.as_hz(),
                big_active,
                big_util,
                activity,
                temps[board.nodes.big],
            );
            let little_active = mapping.little.max(1);
            let little_util = if cpu_busy && mapping.little > 0 {
                1.0
            } else {
                0.08
            };
            out[board.nodes.little] = board.little_power.total_w(
                board.little_opps.volts_at(freqs.little),
                freqs.little.as_hz(),
                little_active,
                little_util,
                activity,
                temps[board.nodes.little],
            );
            let gpu_util = if gpu_busy { 1.0 } else { 0.02 };
            out[board.nodes.gpu] = board.gpu_power.total_w(
                board.gpu_opps.volts_at(freqs.gpu),
                freqs.gpu.as_hz(),
                board.gpu_shaders,
                gpu_util,
                activity,
                temps[board.nodes.gpu],
            );
            out[board.nodes.board] = board.board_base_w;
        }

        pub(super) fn idle_node_powers_into(
            board: &Board,
            freqs: ClusterFreqs,
            temps: &[f64],
            out: &mut [f64],
        ) {
            node_powers_into(
                board,
                CpuMapping::new(0, 0),
                freqs,
                false,
                false,
                1.0,
                temps,
                out,
            );
        }

        /// One co-run CPU cluster: leakage + uncore once for the union,
        /// then each share's dynamic power; a cluster nobody maps draws
        /// `idle_active` cores at `idle_util`.
        fn co_run_cluster(
            p: &PowerParams,
            volts: f64,
            hz: f64,
            temp_c: f64,
            shares: &[CoRunShare],
            cores: impl Fn(&CoRunShare) -> u32,
            (idle_active, idle_util): (u32, f64),
        ) -> f64 {
            let total: u32 = shares.iter().map(&cores).sum();
            if total == 0 {
                return p.total_w(volts, hz, idle_active, idle_util, 1.0, temp_c);
            }
            let mut w = p.leakage_w(volts, temp_c, total) + p.uncore_power_w(total);
            for s in shares {
                let util = if s.cpu_busy && cores(s) > 0 {
                    1.0
                } else {
                    idle_util
                };
                w += p.dynamic_w(volts, hz, cores(s), util, s.activity);
            }
            w
        }

        pub(super) fn co_run_node_powers_into(
            board: &Board,
            shares: &[CoRunShare],
            freqs: ClusterFreqs,
            temps: &[f64],
            out: &mut [f64],
        ) {
            match shares {
                [] => return idle_node_powers_into(board, freqs, temps, out),
                [s] => {
                    return node_powers_into(
                        board, s.mapping, freqs, s.cpu_busy, s.gpu_busy, s.activity, temps, out,
                    )
                }
                _ => {}
            }
            out.fill(0.0);
            out[board.nodes.big] = co_run_cluster(
                &board.big_power,
                board.big_opps.volts_at(freqs.big),
                freqs.big.as_hz(),
                temps[board.nodes.big],
                shares,
                |s| s.mapping.big,
                (0, 0.03),
            );
            out[board.nodes.little] = co_run_cluster(
                &board.little_power,
                board.little_opps.volts_at(freqs.little),
                freqs.little.as_hz(),
                temps[board.nodes.little],
                shares,
                |s| s.mapping.little,
                (1, 0.08),
            );
            let gpu_users = shares.iter().filter(|s| s.gpu_busy).count();
            let (gpu_util, gpu_activity) = if gpu_users > 0 {
                let mean = shares
                    .iter()
                    .filter(|s| s.gpu_busy)
                    .map(|s| s.activity)
                    .sum::<f64>()
                    / gpu_users as f64;
                (1.0, mean)
            } else {
                let mean = shares.iter().map(|s| s.activity).sum::<f64>() / shares.len() as f64;
                (0.02, mean)
            };
            out[board.nodes.gpu] = board.gpu_power.total_w(
                board.gpu_opps.volts_at(freqs.gpu),
                freqs.gpu.as_hz(),
                board.gpu_shaders,
                gpu_util,
                gpu_activity,
                temps[board.nodes.gpu],
            );
            out[board.nodes.board] = board.board_base_w;
        }

        pub(super) fn collapsed_node_powers_into(board: &Board, temps: &[f64], out: &mut [f64]) {
            out.fill(0.0);
            let f = ClusterFreqs::min_of(board);
            out[board.nodes.big] = board.big_power.leakage_w(
                board.big_opps.volts_at(f.big),
                temps[board.nodes.big],
                0,
            );
            out[board.nodes.little] = board.little_power.leakage_w(
                board.little_opps.volts_at(f.little),
                temps[board.nodes.little],
                0,
            );
            out[board.nodes.gpu] = board.gpu_power.leakage_w(
                board.gpu_opps.volts_at(f.gpu),
                temps[board.nodes.gpu],
                0,
            );
            out[board.nodes.board] = board.board_base_w;
        }
    }

    /// The XU4 and the 16- and 64-node generated boards.
    fn boards() -> Vec<Board> {
        vec![
            Board::odroid_xu4_ideal(),
            BoardSpec::ManyNode { nodes: 16 }.build_ideal(),
            BoardSpec::ManyNode { nodes: 64 }.build_ideal(),
        ]
    }

    /// OPP-table corners: both table ends, requests below and above the
    /// tables (clamped), and frequencies between OPPs.
    fn freq_corners(board: &Board) -> Vec<ClusterFreqs> {
        vec![
            ClusterFreqs::min_of(board),
            ClusterFreqs::max_of(board),
            ClusterFreqs {
                big: MHz(1),
                little: MHz(1),
                gpu: MHz(1),
            },
            ClusterFreqs {
                big: MHz(99_999),
                little: MHz(99_999),
                gpu: MHz(99_999),
            },
            ClusterFreqs {
                big: MHz(1450),
                little: MHz(1050),
                gpu: MHz(500),
            },
        ]
    }

    /// Temperature vectors: uniform at exactly the leakage reference
    /// (55 °C, where the exponential's argument is zero and
    /// `exp_exact4` falls back to libm), one power node at 55 °C among
    /// others, and a deterministic spread from ambient to past trip.
    fn temp_cases(board: &Board) -> Vec<Vec<f64>> {
        let n = board.thermal.len();
        let ref_c = board.big_power.leak_ref_c;
        assert_eq!(ref_c, 55.0);
        let mut one_at_ref: Vec<f64> = (0..n).map(|i| 40.0 + 1.75 * i as f64).collect();
        one_at_ref[board.nodes.little] = ref_c;
        let spread: Vec<f64> = (0..n)
            .map(|i| 20.0 + ((i * 37 + 11) % 97) as f64 * 0.9531)
            .collect();
        vec![vec![ref_c; n], one_at_ref, spread, vec![96.125; n]]
    }

    /// Shares for 0–3 co-running apps with mixed busy flags, disjoint
    /// mappings inside the 4 + 4 clusters, GPU-only apps (no CPU
    /// cores) and coreless clusters.
    fn share_sets() -> Vec<Vec<CoRunShare>> {
        let share = |little, big, cpu_busy, gpu_busy, activity| CoRunShare {
            mapping: CpuMapping::new(little, big),
            cpu_busy,
            gpu_busy,
            activity,
        };
        vec![
            vec![],
            vec![share(2, 3, true, true, 0.85)],
            vec![share(0, 0, false, true, 1.0)],
            vec![share(2, 2, true, true, 1.0), share(2, 2, true, false, 0.65)],
            vec![share(0, 4, false, true, 0.7), share(4, 0, true, false, 0.9)],
            vec![share(0, 0, false, true, 0.8), share(1, 2, true, true, 0.55)],
            vec![
                share(0, 0, false, false, 1.0),
                share(0, 0, false, false, 0.4),
            ],
            vec![
                share(1, 1, true, true, 1.0),
                share(1, 2, false, true, 0.6),
                share(2, 1, true, false, 0.75),
            ],
            vec![
                share(0, 0, false, true, 0.5),
                share(0, 0, false, false, 0.9),
                share(2, 2, false, false, 0.3),
            ],
        ]
    }

    /// `model.eval_into` against `reference`'s output, bit for bit on
    /// every node (passive nodes included: `out` starts as NaN) and on
    /// the node-order total the engines account energy with.
    fn assert_bitwise(
        label: &str,
        model: &NodePowerModel,
        temps: &[f64],
        reference: impl Fn(&[f64], &mut [f64]),
    ) {
        let mut want = vec![f64::NAN; temps.len()];
        reference(temps, &mut want);
        let mut got = vec![f64::NAN; temps.len()];
        model.eval_into(temps, &mut got);
        for (node, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{label}: node {node} ({g} vs {w})"
            );
        }
        let (g, w): (f64, f64) = (got.iter().sum(), want.iter().sum());
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: total");
    }

    #[test]
    fn single_app_and_idle_match_reference_bitwise() {
        let mappings = [(0, 0), (0, 4), (4, 0), (2, 3), (4, 4), (1, 1)];
        let flags = [(true, true), (true, false), (false, true), (false, false)];
        for board in boards() {
            let n = board.thermal.len();
            for freqs in freq_corners(&board) {
                for temps in temp_cases(&board) {
                    for &(little, big) in &mappings {
                        let mapping = CpuMapping::new(little, big);
                        for &(cpu_busy, gpu_busy) in &flags {
                            for activity in [0.0, 0.65, 1.0] {
                                let model = NodePowerModel::single_app(
                                    &board, mapping, freqs, cpu_busy, gpu_busy, activity,
                                );
                                assert_bitwise(
                                    &format!(
                                        "n{n} single {mapping:?} {freqs:?} \
                                         busy ({cpu_busy},{gpu_busy}) act {activity}"
                                    ),
                                    &model,
                                    &temps,
                                    |t, out| {
                                        reference::node_powers_into(
                                            &board, mapping, freqs, cpu_busy, gpu_busy, activity,
                                            t, out,
                                        )
                                    },
                                );
                            }
                        }
                    }
                    assert_bitwise(
                        &format!("n{n} idle {freqs:?}"),
                        &NodePowerModel::idle(&board, freqs),
                        &temps,
                        |t, out| reference::idle_node_powers_into(&board, freqs, t, out),
                    );
                }
            }
        }
    }

    #[test]
    fn co_run_matches_reference_bitwise() {
        for board in boards() {
            let n = board.thermal.len();
            for freqs in freq_corners(&board) {
                for temps in temp_cases(&board) {
                    for shares in share_sets() {
                        assert_bitwise(
                            &format!("n{n} co-run {} shares {shares:?} {freqs:?}", shares.len()),
                            &NodePowerModel::co_run(&board, &shares, freqs),
                            &temps,
                            |t, out| {
                                reference::co_run_node_powers_into(&board, &shares, freqs, t, out)
                            },
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn collapsed_matches_reference_bitwise() {
        for board in boards() {
            for temps in temp_cases(&board) {
                assert_bitwise(
                    &format!("n{} collapsed", board.thermal.len()),
                    &NodePowerModel::collapsed(&board),
                    &temps,
                    |t, out| reference::collapsed_node_powers_into(&board, t, out),
                );
            }
        }
    }

    #[test]
    fn one_model_serves_many_temperatures() {
        // A model frozen once must keep matching the reference as the
        // temperatures move under it — the step loops' usage.
        let board = Board::odroid_xu4_ideal();
        let shares = &share_sets()[7];
        let freqs = ClusterFreqs::max_of(&board);
        let model = NodePowerModel::co_run(&board, shares, freqs);
        let mut temps = vec![0.0; board.thermal.len()];
        let mut t = 15.0;
        while t <= 110.0 {
            for (i, slot) in temps.iter_mut().enumerate() {
                *slot = t + 0.37 * i as f64;
            }
            assert_bitwise(&format!("sweep at {t}"), &model, &temps, |t, out| {
                reference::co_run_node_powers_into(&board, shares, freqs, t, out)
            });
            t += 0.0625;
        }
    }
}
