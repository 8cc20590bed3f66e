//! The Odroid-XU4 board model: Exynos 5422 clusters, OPP tables, power
//! parameters, thermal network and sensors assembled into one unit.

use crate::freq::{a15_opp_table, a7_opp_table, mali_opp_table, OppTable};
use crate::power::{exynos5422, PowerParams};
use crate::sensors::SensorBank;
use crate::thermal::{NodeId, ThermalModel, ThermalModelBuilder};

/// Thermal node ids of the board's RC network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThermalNodes {
    /// A15 (big) cluster silicon.
    pub big: NodeId,
    /// A7 (LITTLE) cluster silicon.
    pub little: NodeId,
    /// Mali GPU silicon.
    pub gpu: NodeId,
    /// Board / heatsink / package lump.
    pub board: NodeId,
}

/// A complete Odroid-XU4 model.
///
/// # Examples
///
/// ```
/// use teem_soc::Board;
///
/// let board = Board::odroid_xu4();
/// assert_eq!(board.big_opps.len(), 19);
/// assert_eq!(board.gpu_opps.len(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct Board {
    /// Big-cluster OPP table (19 entries).
    pub big_opps: OppTable,
    /// LITTLE-cluster OPP table (13 entries).
    pub little_opps: OppTable,
    /// GPU OPP table (7 entries).
    pub gpu_opps: OppTable,
    /// Big-cluster power parameters.
    pub big_power: PowerParams,
    /// LITTLE-cluster power parameters.
    pub little_power: PowerParams,
    /// GPU power parameters.
    pub gpu_power: PowerParams,
    /// Shader cores the GPU schedules work on (6 on the XU4's Mali-T628
    /// MP6). The power model drives this many cores when the GPU share
    /// runs — a board spec, not a hard-coded constant, so boards with a
    /// different shader count model correctly. Must not exceed
    /// [`Board::gpu_power`]'s `cores` (the power-domain size); the
    /// power model asserts this.
    pub gpu_shaders: u32,
    /// Constant board overhead, watts.
    pub board_base_w: f64,
    /// The RC thermal network.
    pub thermal: ThermalModel,
    /// Node ids into [`Board::thermal`].
    pub nodes: ThermalNodes,
    /// The TMU sensor bank.
    pub sensors: SensorBank,
}

/// Which physical board a run models — the sweep engine's board axis.
///
/// [`BoardSpec::OdroidXu4`] is the paper's 4-lump Exynos 5422 network.
/// [`BoardSpec::ManyNode`] scales the same silicon into a 16–64-node
/// network (XU4's four active lumps plus a chain of passive die tiles
/// coupled through the package) — the many-core regime where the
/// thermal kernel dominates a step and lane-blocked batching pays off
/// most. Passive tiles draw no power, so the power model and OPP tables
/// carry over unchanged; only the RC network grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoardSpec {
    /// The default 4-node Odroid-XU4 model.
    OdroidXu4,
    /// An XU4-derived network with `nodes` thermal nodes (16–64).
    ManyNode {
        /// Total thermal node count, 16..=64.
        nodes: u32,
    },
}

impl BoardSpec {
    /// Total thermal node count of the built board.
    pub fn nodes(self) -> u32 {
        match self {
            BoardSpec::OdroidXu4 => 4,
            BoardSpec::ManyNode { nodes } => nodes,
        }
    }

    /// Short tag for sweep-cell names and reports (`xu4`, `n32`).
    pub fn label(self) -> String {
        match self {
            BoardSpec::OdroidXu4 => "xu4".to_string(),
            BoardSpec::ManyNode { nodes } => format!("n{nodes}"),
        }
    }

    /// Builds the board with a custom ambient and sensor bank.
    ///
    /// # Panics
    ///
    /// Panics if a `ManyNode` count is outside 16..=64.
    pub fn build_with(self, ambient_c: f64, sensors: SensorBank) -> Board {
        match self {
            BoardSpec::OdroidXu4 => Board::odroid_xu4_with(ambient_c, sensors),
            BoardSpec::ManyNode { nodes } => {
                Board::many_node_with(nodes, u64::from(nodes), ambient_c, sensors)
            }
        }
    }

    /// Builds the board with ideal sensors at 25 °C — the lockstep
    /// pool's topology reference and the profiling board.
    pub fn build_ideal(self) -> Board {
        self.build_with(25.0, SensorBank::ideal())
    }
}

/// One [`BoardSpec`] built once, with its thermal network already
/// LU-factorised, for runs to clone their boards from.
///
/// Building a board assembles its RC network, OPP tables and power
/// parameters, and its first warm start factorises the network. None of
/// that depends on the ambient or the sensors, so a sweep builds one
/// template per board and every cell clones it
/// ([`BoardTemplate::instantiate`]). The clone is bit-identical to
/// [`BoardSpec::build_with`] at the same ambient and sensor bank, and it
/// already holds the factors. The template's own board is private and
/// never stepped, sampled or cooled, so no run's state can reach
/// another's.
#[derive(Debug)]
pub struct BoardTemplate {
    spec: BoardSpec,
    board: Board,
}

impl BoardTemplate {
    /// Builds `spec` and factorises its thermal network.
    ///
    /// # Panics
    ///
    /// As [`BoardSpec::build_with`].
    pub fn new(spec: BoardSpec) -> Self {
        let board = spec.build_ideal();
        // The first solve factorises the network; clones keep the
        // factors.
        board.thermal.steady_state(&vec![0.0; board.thermal.len()]);
        BoardTemplate { spec, board }
    }

    /// The spec this template was built from.
    pub fn spec(&self) -> BoardSpec {
        self.spec
    }

    /// A board for one run: the template's board with every node and
    /// the ambient at `ambient_c`, and `sensors` as its sensor bank.
    ///
    /// # Panics
    ///
    /// Panics if `ambient_c` is outside −40 to 120 °C
    /// ([`ThermalModel::set_ambient_c`](crate::ThermalModel::set_ambient_c)).
    pub fn instantiate(&self, ambient_c: f64, sensors: SensorBank) -> Board {
        let mut board = self.board.clone();
        board.thermal.reset_to_ambient(ambient_c);
        board.sensors = sensors;
        board
    }
}

/// SplitMix64 step for the deterministic tile-parameter lottery —
/// self-contained so board generation needs no RNG plumbing.
fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl Board {
    /// Builds the default XU4 model: 25 °C ambient, TMU-like sensors with
    /// a fixed seed (fully deterministic).
    pub fn odroid_xu4() -> Board {
        Board::odroid_xu4_with(25.0, SensorBank::tmu_like(42))
    }

    /// Builds the XU4 model with ideal (noiseless, unquantised) sensors —
    /// preferred in unit tests that assert exact temperatures.
    pub fn odroid_xu4_ideal() -> Board {
        Board::odroid_xu4_with(25.0, SensorBank::ideal())
    }

    /// Builds the XU4 model with a custom ambient and sensor bank.
    pub fn odroid_xu4_with(ambient_c: f64, sensors: SensorBank) -> Board {
        // Thermal constants calibrated (see tests) so that with the
        // COVARIANCE-style full load (3 big @ 2 GHz + 2 LITTLE + GPU):
        //   * big-node steady state exceeds the 95 C trip (reactive
        //     throttling engages, Fig. 1a),
        //   * at 1400-1600 MHz it settles in the mid-80s (TEEM's
        //     proactive band, Fig. 1b),
        //   * at the 900 MHz throttle it cools into the low 70s
        //     (release-and-reheat oscillation).
        let mut b = ThermalModelBuilder::new(ambient_c);
        let big = b.node("big", 0.45, 0.0, ambient_c);
        let little = b.node("little", 0.35, 0.0, ambient_c);
        // The GPU block (shaders + tiler + L2) is a larger, slower thermal
        // mass adjacent to the A15 cluster. It follows the big cluster's
        // temperature with a multi-second lag — which is why, on the real
        // board, the hottest-sensor reading stays high for seconds after
        // the big cluster throttles (delaying thermal-zone release) and
        // why Fig. 1(a)'s temperature never dips far between throttles.
        let gpu = b.node("gpu", 3.00, 0.0, ambient_c);
        // The board/package lump runs hot under sustained load (small
        // heatsink + fan): it keeps the die warm even when the big
        // cluster throttles to 900 MHz.
        let board = b.node("board", 90.0, 0.33, ambient_c);
        b.connect(big, board, 0.17);
        b.connect(gpu, board, 0.13);
        b.connect(little, board, 0.18);
        b.connect(big, gpu, 0.15);
        b.connect(big, little, 0.03);
        let thermal = b.build();

        Board {
            big_opps: a15_opp_table(),
            little_opps: a7_opp_table(),
            gpu_opps: mali_opp_table(),
            big_power: exynos5422::big(),
            little_power: exynos5422::little(),
            gpu_power: exynos5422::gpu(),
            gpu_shaders: exynos5422::gpu().cores,
            board_base_w: exynos5422::BOARD_BASE_W,
            thermal,
            nodes: ThermalNodes {
                big,
                little,
                gpu,
                board,
            },
            sensors,
        }
    }

    /// Builds an XU4-derived many-node board: the four active lumps
    /// (identical constants to [`Board::odroid_xu4_with`]) plus
    /// `nodes - 4` passive die tiles chained together and coupled to
    /// the package lump, with a deterministic per-tile parameter
    /// lottery drawn from `seed` (process variation in thermal mass and
    /// spreading conductance).
    ///
    /// Tiles draw no power, so the named-node steady state matches the
    /// XU4 exactly; transients differ (the package carries the tile
    /// mass), making each node count a genuine physics axis. Tile
    /// constants keep every node's stability bound well above the
    /// 10 ms step (`max_stable_dt` ≥ ~0.5 s), so the integrator's
    /// sub-step count is unchanged — the per-step cost growth is all
    /// kernel arithmetic, the part lane-blocked batching accelerates.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is outside 16..=64.
    pub fn many_node_with(nodes: u32, seed: u64, ambient_c: f64, sensors: SensorBank) -> Board {
        assert!(
            (16..=64).contains(&nodes),
            "many-node boards span 16..=64 nodes, got {nodes}"
        );
        let mut b = ThermalModelBuilder::new(ambient_c);
        let big = b.node("big", 0.45, 0.0, ambient_c);
        let little = b.node("little", 0.35, 0.0, ambient_c);
        let gpu = b.node("gpu", 3.00, 0.0, ambient_c);
        let board = b.node("board", 90.0, 0.33, ambient_c);
        b.connect(big, board, 0.17);
        b.connect(gpu, board, 0.13);
        b.connect(little, board, 0.18);
        b.connect(big, gpu, 0.15);
        b.connect(big, little, 0.03);

        let mut lottery = seed ^ 0x7EE3_0B0A_12D5_EEDF;
        let mut prev: Option<NodeId> = None;
        for i in 0..nodes - 4 {
            // C ∈ [0.4, 0.8) J/K, tile→package G ∈ [0.10, 0.14) W/K,
            // tile→tile G ∈ [0.06, 0.10) W/K: worst-case node bound
            // 0.5·0.4/(0.14 + 2·0.10) ≈ 0.59 s ≫ the 10 ms step.
            let c = 0.4 + 0.4 * splitmix(&mut lottery);
            let g_pkg = 0.10 + 0.04 * splitmix(&mut lottery);
            let g_chain = 0.06 + 0.04 * splitmix(&mut lottery);
            let tile = b.node(format!("tile{i}"), c, 0.0, ambient_c);
            b.connect(tile, board, g_pkg);
            if let Some(p) = prev {
                b.connect(tile, p, g_chain);
            }
            prev = Some(tile);
        }
        let thermal = b.build();

        Board {
            big_opps: a15_opp_table(),
            little_opps: a7_opp_table(),
            gpu_opps: mali_opp_table(),
            big_power: exynos5422::big(),
            little_power: exynos5422::little(),
            gpu_power: exynos5422::gpu(),
            gpu_shaders: exynos5422::gpu().cores,
            board_base_w: exynos5422::BOARD_BASE_W,
            thermal,
            nodes: ThermalNodes {
                big,
                little,
                gpu,
                board,
            },
            sensors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::MHz;

    /// Helper: cluster powers for the Fig. 1 scenario (CV on 2L+3B + GPU)
    /// with the big cluster at `big_mhz`, evaluated at representative hot
    /// temperatures.
    fn fig1_powers(board: &Board, big_mhz: u32) -> Vec<f64> {
        let vb = board.big_opps.volts_at(MHz(big_mhz));
        let vl = board.little_opps.volts_at(MHz(1400));
        let vg = board.gpu_opps.volts_at(MHz(600));
        let p_big = board
            .big_power
            .total_w(vb, big_mhz as f64 * 1e6, 3, 1.0, 1.0, 88.0);
        let p_little = board.little_power.total_w(vl, 1.4e9, 2, 1.0, 1.0, 65.0);
        let p_gpu = board.gpu_power.total_w(vg, 6.0e8, 6, 1.0, 1.0, 75.0);
        let mut p = vec![0.0; 4];
        p[board.nodes.big] = p_big;
        p[board.nodes.little] = p_little;
        p[board.nodes.gpu] = p_gpu;
        p[board.nodes.board] = board.board_base_w;
        p
    }

    #[test]
    fn full_load_steady_state_exceeds_trip() {
        let board = Board::odroid_xu4_ideal();
        let ss = board.thermal.steady_state(&fig1_powers(&board, 2000));
        let big = ss[board.nodes.big];
        // Sensor adds up to +2.2 C; node must reach ~93+ for the 95 C
        // trip to engage.
        assert!(big > 92.5, "big steady state {big} C too cool for Fig. 1a");
        assert!(big < 112.0, "big steady state {big} C implausibly hot");
    }

    #[test]
    fn teem_band_steady_state_in_mid_eighties() {
        let board = Board::odroid_xu4_ideal();
        let ss = board.thermal.steady_state(&fig1_powers(&board, 1500));
        let big = ss[board.nodes.big];
        assert!(
            (76.0..90.0).contains(&big),
            "big steady state at 1500 MHz = {big} C"
        );
    }

    #[test]
    fn throttled_steady_state_cools_well_below_release() {
        let board = Board::odroid_xu4_ideal();
        let ss = board.thermal.steady_state(&fig1_powers(&board, 900));
        let big = ss[board.nodes.big];
        assert!(big < 80.0, "big steady state at 900 MHz = {big} C");
    }

    #[test]
    fn board_node_heats_tens_of_degrees_at_full_load() {
        let board = Board::odroid_xu4_ideal();
        let ss = board.thermal.steady_state(&fig1_powers(&board, 2000));
        let b = ss[board.nodes.board];
        assert!((42.0..70.0).contains(&b), "board node {b} C");
    }

    #[test]
    fn gpu_runs_cooler_than_big() {
        let board = Board::odroid_xu4_ideal();
        let ss = board.thermal.steady_state(&fig1_powers(&board, 2000));
        assert!(
            ss[board.nodes.gpu] < ss[board.nodes.big],
            "gpu {} vs big {}",
            ss[board.nodes.gpu],
            ss[board.nodes.big]
        );
    }

    #[test]
    fn default_board_is_deterministic() {
        let mut a = Board::odroid_xu4();
        let mut b = Board::odroid_xu4();
        assert_eq!(a.sensors.read(80.0, 70.0), b.sensors.read(80.0, 70.0));
    }

    #[test]
    fn many_node_keeps_named_node_steady_state() {
        // Passive tiles carry no power, so the active lumps' steady
        // state must match the 4-node XU4 bit-for-bit physics-wise
        // (within solver tolerance).
        let xu4 = Board::odroid_xu4_ideal();
        let big_board = BoardSpec::ManyNode { nodes: 32 }.build_ideal();
        assert_eq!(big_board.thermal.len(), 32);
        let p4 = fig1_powers(&xu4, 2000);
        let mut p32 = vec![0.0; 32];
        p32[..4].copy_from_slice(&p4);
        let ss4 = xu4.thermal.steady_state(&p4);
        let ss32 = big_board.thermal.steady_state(&p32);
        for (name, id) in [
            ("big", xu4.nodes.big),
            ("little", xu4.nodes.little),
            ("gpu", xu4.nodes.gpu),
            ("board", xu4.nodes.board),
        ] {
            assert!(
                (ss4[id] - ss32[id]).abs() < 1e-6,
                "{name}: xu4 {} vs many-node {}",
                ss4[id],
                ss32[id]
            );
        }
        // Tiles settle at package temperature: no flux through them.
        for tile in 4..32 {
            assert!((ss32[tile] - ss32[xu4.nodes.board]).abs() < 1e-6);
        }
    }

    #[test]
    fn many_node_stability_bound_stays_above_step() {
        for nodes in [16u32, 32, 48, 64] {
            let board = BoardSpec::ManyNode { nodes }.build_ideal();
            assert_eq!(board.thermal.len(), nodes as usize);
            assert!(
                board.thermal.max_stable_dt() > 0.01,
                "{nodes}-node board must integrate 10 ms steps in one sub-step, \
                 max_stable_dt = {}",
                board.thermal.max_stable_dt()
            );
        }
    }

    #[test]
    fn many_node_generation_is_deterministic_in_seed() {
        let a = Board::many_node_with(24, 7, 25.0, SensorBank::ideal());
        let b = Board::many_node_with(24, 7, 25.0, SensorBank::ideal());
        let c = Board::many_node_with(24, 8, 25.0, SensorBank::ideal());
        assert_eq!(
            a.thermal.capacitances_j_per_c(),
            b.thermal.capacitances_j_per_c(),
            "same seed, same network"
        );
        assert_eq!(
            a.thermal.conductance_matrix(),
            b.thermal.conductance_matrix()
        );
        assert_ne!(
            a.thermal.capacitances_j_per_c(),
            c.thermal.capacitances_j_per_c(),
            "different seed must vary tile constants"
        );
    }

    #[test]
    fn template_clone_matches_fresh_build_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for spec in [
            BoardSpec::OdroidXu4,
            BoardSpec::ManyNode { nodes: 16 },
            BoardSpec::ManyNode { nodes: 64 },
        ] {
            let template = BoardTemplate::new(spec);
            assert_eq!(template.spec(), spec);
            // Every ambient clones the same template after the previous
            // clone was cooled, sampled and stepped: nothing leaks back.
            for ambient in [15.0, 25.0, 33.0, 17.35] {
                let mut fresh = spec.build_with(ambient, SensorBank::tmu_like(42));
                let mut cloned = template.instantiate(ambient, SensorBank::tmu_like(42));
                let (a, b) = (&fresh.thermal, &cloned.thermal);
                let n = a.len();
                assert_eq!(b.len(), n);
                // A template keeps one board per spec and resets the
                // ambient, which is only exact because a fresh build
                // starts every node at its ambient.
                assert!(a.temps().iter().all(|&t| t == ambient), "{spec:?}");
                assert_eq!(bits(b.temps()), bits(a.temps()), "{spec:?} @ {ambient}");
                assert_eq!(b.ambient_c().to_bits(), ambient.to_bits());
                assert_eq!(b.max_stable_dt().to_bits(), a.max_stable_dt().to_bits());
                assert_eq!(
                    bits(b.capacitances_j_per_c()),
                    bits(a.capacitances_j_per_c())
                );
                assert_eq!(
                    bits(b.ambient_conductances_w_per_c()),
                    bits(a.ambient_conductances_w_per_c())
                );
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(
                            b.conductance_w_per_c(i, j).to_bits(),
                            a.conductance_w_per_c(i, j).to_bits(),
                            "{spec:?}: G[{i}][{j}]"
                        );
                    }
                }
                let mut power = vec![0.0; n];
                power[fresh.nodes.big] = 4.2;
                power[fresh.nodes.little] = 0.7;
                power[fresh.nodes.gpu] = 2.3;
                power[fresh.nodes.board] = fresh.board_base_w;
                assert_eq!(
                    bits(&b.steady_state(&power)),
                    bits(&a.steady_state(&power)),
                    "{spec:?} @ {ambient}: steady state"
                );
                fresh.thermal.cool_to(7.3, ambient, &power);
                cloned.thermal.cool_to(7.3, ambient, &power);
                assert_eq!(
                    bits(cloned.thermal.temps()),
                    bits(fresh.thermal.temps()),
                    "{spec:?} @ {ambient}: cool_to"
                );
                for k in 0..20 {
                    let (big, gpu) = (61.3 + 0.37 * f64::from(k), 55.1 + 0.29 * f64::from(k));
                    assert_eq!(
                        cloned.sensors.read(big, gpu),
                        fresh.sensors.read(big, gpu),
                        "{spec:?} @ {ambient}: sensor read {k}"
                    );
                }
                cloned.thermal.step(0.01, &power);
            }
        }
    }

    #[test]
    #[should_panic(expected = "16..=64")]
    fn many_node_rejects_tiny_counts() {
        let _ = Board::many_node_with(8, 0, 25.0, SensorBank::ideal());
    }

    #[test]
    fn board_spec_labels_and_counts() {
        assert_eq!(BoardSpec::OdroidXu4.label(), "xu4");
        assert_eq!(BoardSpec::ManyNode { nodes: 48 }.label(), "n48");
        assert_eq!(BoardSpec::OdroidXu4.nodes(), 4);
        assert_eq!(BoardSpec::OdroidXu4.build_ideal().thermal.len(), 4);
    }
}
