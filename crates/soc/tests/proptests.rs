//! Property-based tests for the MPSoC substrate: physical invariants
//! that must hold across the whole parameter space, not just at the
//! calibrated operating points.

use proptest::prelude::*;
use teem_soc::power::exynos5422;
use teem_soc::thermal::ThermalModelBuilder;
use teem_soc::{Board, MHz, SensorBank, ThermalZone};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn opp_lookup_is_consistent(freq in 0u32..3000) {
        let board = Board::odroid_xu4_ideal();
        for table in [&board.big_opps, &board.little_opps, &board.gpu_opps] {
            let below = table.at_or_below(MHz(freq));
            let above = table.at_or_above(MHz(freq));
            // Bracketing (modulo clamping at the table ends).
            prop_assert!(below.freq <= above.freq || freq < table.min().freq.0
                || freq > table.max().freq.0);
            // Results are real OPPs.
            prop_assert!(table.exact(below.freq).is_some());
            prop_assert!(table.exact(above.freq).is_some());
        }
    }

    #[test]
    fn step_down_never_exceeds_current_or_violates_floor(
        start in 200u32..=2000,
        delta in 1u32..800,
        floor in 200u32..=2000,
    ) {
        let board = Board::odroid_xu4_ideal();
        let start = MHz(start / 100 * 100);
        let floor = MHz(floor / 100 * 100);
        let stepped = board.big_opps.step_down(start, delta, floor);
        // Never exceeds the current frequency unless pulling *up* to the
        // floor (when the current frequency is already below it).
        let floor_opp = board.big_opps.at_or_below(floor).freq;
        prop_assert!(stepped.freq <= start.max(floor_opp));
        // Result is never below both the floor and the table minimum.
        prop_assert!(stepped.freq >= floor_opp.min(board.big_opps.min().freq.max(floor_opp))
            || stepped.freq >= board.big_opps.min().freq);
    }

    #[test]
    fn power_is_monotone_in_frequency_and_temperature(
        f1 in 2e8..2e9f64,
        df in 1e7..5e8f64,
        t1 in 40.0..100.0f64,
        dt in 0.5..20.0f64,
    ) {
        let p = exynos5422::big();
        let v = 1.2;
        let a = p.total_w(v, f1, 4, 1.0, 1.0, t1);
        let b = p.total_w(v, f1 + df, 4, 1.0, 1.0, t1);
        prop_assert!(b > a, "power fell with frequency: {b} < {a}");
        let c = p.total_w(v, f1, 4, 1.0, 1.0, t1 + dt);
        prop_assert!(c > a, "power fell with temperature: {c} < {a}");
    }

    #[test]
    fn thermal_steady_state_is_monotone_in_power(
        p_big in 0.0..10.0f64,
        extra in 0.1..5.0f64,
    ) {
        let board = Board::odroid_xu4_ideal();
        let base = board.thermal.steady_state(&[p_big, 0.5, 2.0, 2.2]);
        let more = board.thermal.steady_state(&[p_big + extra, 0.5, 2.0, 2.2]);
        // Heating one node raises every node's steady state.
        for (a, b) in base.iter().zip(more.iter()) {
            prop_assert!(*b >= *a - 1e-9);
        }
        // And every node stays above ambient.
        for t in &base {
            prop_assert!(*t >= board.thermal.ambient_c() - 1e-9);
        }
    }

    #[test]
    fn thermal_integration_approaches_steady_state(
        p_big in 0.5..8.0f64,
        p_gpu in 0.5..4.0f64,
    ) {
        let board = Board::odroid_xu4_ideal();
        let powers = [p_big, 0.5, p_gpu, 2.2];
        let ss = board.thermal.steady_state(&powers);
        let mut model = board.thermal.clone();
        model.step(3_000.0, &powers);
        for (a, b) in model.temps().iter().zip(ss.iter()) {
            prop_assert!((a - b).abs() < 0.5, "integrated {a} vs steady {b}");
        }
    }

    #[test]
    fn sensors_never_read_below_node_offsets(big in 20.0..110.0f64, gpu in 20.0..110.0f64) {
        let mut bank = SensorBank::ideal();
        let r = bank.read(big, gpu);
        prop_assert!(r.big_max_c() >= big, "max offset is positive");
        prop_assert_eq!(r.gpu_c, gpu);
        prop_assert!(r.max_c() >= r.gpu_c);
        prop_assert!(r.hottest_big_core() < 4);
    }

    #[test]
    fn zone_state_machine_is_sound(temps in proptest::collection::vec(70.0..100.0f64, 1..80)) {
        let mut zone = ThermalZone::stock_xu4();
        let mut t = 0.0;
        for temp in temps {
            let cap = zone.update(t, temp);
            // Whenever hard-tripped, the cap is exactly the throttle freq.
            if zone.is_tripped() {
                prop_assert_eq!(cap, Some(MHz(900)));
            }
            // A cap is present iff the zone reports capping.
            prop_assert_eq!(cap.is_some(), zone.is_capping());
            if let Some(c) = cap {
                prop_assert!(c >= MHz(900) && c <= MHz(2000));
            }
            t += 0.1;
        }
    }

    /// The closed-form cooling advance must agree with brute-force
    /// fixed-dt integration over random gap lengths, ambients and
    /// start temperatures — this is the license for the event-driven
    /// executor to replace the Euler loop inside idle gaps.
    #[test]
    fn cool_to_matches_brute_force_euler(
        gap_s in 0.5..600.0f64,
        amb in 10.0..40.0f64,
        dt_big in 0.0..60.0f64,
        dt_gpu in 0.0..50.0f64,
        p_big in 0.0..0.4f64,
        p_gpu in 0.0..0.3f64,
    ) {
        let board = Board::odroid_xu4_ideal();
        let mut closed = board.thermal.clone();
        let mut euler = board.thermal.clone();
        closed.set_ambient_c(amb);
        euler.set_ambient_c(amb);
        // Perturb the start state away from the build-time temperatures.
        let start = {
            let mut t = closed.temps().to_vec();
            t[board.nodes.big] += dt_big;
            t[board.nodes.gpu] += dt_gpu;
            t
        };
        for (i, &v) in start.iter().enumerate() {
            closed.set_temp(i, v);
            euler.set_temp(i, v);
        }
        let powers = {
            let mut p = vec![0.0; board.thermal.len()];
            p[board.nodes.big] = p_big;
            p[board.nodes.gpu] = p_gpu;
            p[board.nodes.board] = 0.2;
            p
        };

        closed.cool_to(gap_s, amb, &powers);
        // Reference: fine fixed-dt sub-stepping (well under the
        // stability bound, so its own truncation error stays small).
        let fine = 0.01f64;
        let steps = (gap_s / fine).floor() as u64;
        for _ in 0..steps {
            euler.step(fine, &powers);
        }
        euler.step(gap_s - steps as f64 * fine, &powers);

        for (i, (a, b)) in closed.temps().iter().zip(euler.temps()).enumerate() {
            prop_assert!(
                (a - b).abs() < 0.1,
                "node {i}: closed {a} vs euler {b} over {gap_s} s"
            );
        }
    }

    /// The exact idle-energy integral: advancing a gap in closed form
    /// banks exactly `sum(P) * span` joules (power is frozen per
    /// segment by construction), split per node, regardless of how the
    /// segmenter slices the span.
    #[test]
    fn gap_energy_is_exactly_conserved(
        gap_s in 1.0..3_600.0f64,
        amb in 10.0..40.0f64,
        dt_big in 0.0..60.0f64,
    ) {
        use teem_soc::{fast_forward_gap, ClusterFreqs, StepScratch};

        let mut board = Board::odroid_xu4_ideal();
        let hot = board.thermal.temp(board.nodes.big) + dt_big;
        board.thermal.set_temp(board.nodes.big, hot);
        let mut scratch = StepScratch::for_board(&board);
        let mut by_node = vec![0.0f64; board.thermal.len()];
        let idle = ClusterFreqs {
            big: MHz(200),
            little: MHz(200),
            gpu: MHz(177),
        };
        let adv = fast_forward_gap(
            &mut board,
            idle,
            gap_s,
            amb,
            &mut scratch,
            &mut by_node,
        );
        prop_assert!(adv.segments >= 1);
        prop_assert!(adv.energy_j > 0.0, "idle leakage always burns energy");
        // Per-node split sums exactly to the total (same additions in
        // the same order, so this is bitwise-reproducible, and tight).
        let sum: f64 = by_node.iter().sum();
        prop_assert!(
            (sum - adv.energy_j).abs() <= 1e-9 * adv.energy_j.max(1.0),
            "per-node energy {sum} != total {}",
            adv.energy_j
        );
        // Sanity bound: average idle power on this board is O(1) W.
        prop_assert!(adv.energy_j < 20.0 * gap_s);
    }

    #[test]
    fn builder_networks_relax_to_ambient(
        c1 in 0.1..5.0f64,
        c2 in 1.0..100.0f64,
        g in 0.05..1.0f64,
        amb in 10.0..40.0f64,
    ) {
        let mut b = ThermalModelBuilder::new(amb);
        let die = b.node("die", c1, 0.0, amb + 30.0);
        let sink = b.node("sink", c2, g, amb + 10.0);
        b.connect(die, sink, g);
        let mut m = b.build();
        m.step(20_000.0, &[0.0, 0.0]);
        prop_assert!((m.temp(die) - amb).abs() < 0.5, "die {} vs ambient {amb}", m.temp(die));
    }

    /// The SoA lockstep kernel is bit-identical to the scalar Euler
    /// integrator on *arbitrary* topologies — any lane count (including
    /// tails that don't fill the last SIMD vector, and the 1-lane
    /// degenerate batch), any capacitances and conductances,
    /// sub-stepping dt or not, per-lane divergent states and per-step
    /// time-varying powers. The batch keeps the row-by-row order per
    /// node, so it is the reference for the scalar kernel's node
    /// blocks: 1–20 nodes cover one block, several blocks and every
    /// scalar remainder, and a chain plus up to 160 random extra edges,
    /// with parallel and reversed duplicates, reaches dense matrices.
    #[test]
    fn batched_lockstep_matches_scalar_on_random_topologies(
        nodes in 1usize..=20,
        lanes in 1usize..=9,
        step_scale in 0.5..4.0f64,
        caps in collection::vec(0.1..50.0f64, 20usize),
        ambg in collection::vec(0.0..1.0f64, 20usize),
        inits in collection::vec(20.0..90.0f64, 20usize),
        edges in collection::vec(0.01..0.5f64, 20usize),
        powers in collection::vec(0.0..5.0f64, 20usize),
        extra in collection::vec((0usize..20, 0usize..20, 0.01..0.5f64), 0usize..=160),
    ) {
        use teem_soc::{BatchScratch, ThermalBatch};

        let build = |lane: usize| {
            let mut b = ThermalModelBuilder::new(22.0 + 1.5 * lane as f64);
            let ids: Vec<_> = (0..nodes)
                .map(|i| {
                    b.node(
                        format!("n{i}"),
                        caps[i],
                        ambg[i],
                        inits[i] + 1.37 * lane as f64,
                    )
                })
                .collect();
            for w in ids.windows(2) {
                b.connect(w[0], w[1], edges[w[0]] + edges[w[1]] * 0.1);
            }
            for (k, &(x, y, g)) in extra.iter().enumerate() {
                let (x, y) = (ids[x % nodes], ids[y % nodes]);
                if x == y {
                    continue;
                }
                b.connect(x, y, g);
                if k % 4 == 0 {
                    b.connect(y, x, g * 0.3); // reversed duplicate
                } else if k % 4 == 1 {
                    b.connect(x, y, g * 0.7); // parallel duplicate
                }
            }
            b.build()
        };

        let mut scalars: Vec<_> = (0..lanes).map(build).collect();
        let mut batch = ThermalBatch::like(&scalars[0], lanes);
        for (lane, m) in scalars.iter().enumerate() {
            prop_assert!(batch.matches(m), "topology must match across lanes");
            batch.load_lane(lane, m);
        }
        let mut scratch = BatchScratch::for_batch(&batch);
        let dt = scalars[0].max_stable_dt() * step_scale;

        for step in 0..50 {
            let mut p = vec![0.0f64; nodes];
            for (lane, m) in scalars.iter_mut().enumerate() {
                for (node, w) in p.iter_mut().enumerate() {
                    *w = powers[node] + 0.01 * step as f64 + 0.1 * lane as f64;
                    scratch.power[node * batch.stride() + lane] = *w;
                }
                m.step(dt, &p);
            }
            let sub = batch.step(dt, &scratch.power);
            prop_assert!(sub >= 1);
            for (lane, m) in scalars.iter().enumerate() {
                for node in 0..nodes {
                    prop_assert_eq!(
                        batch.lane_temp(node, lane).to_bits(),
                        m.temp(node).to_bits(),
                        "step {} lane {} node {}", step, lane, node
                    );
                }
            }
        }

        // Round-trip: storing a lane back yields the scalar twin's bits.
        let mut out = build(0);
        batch.store_lane(lanes - 1, &mut out);
        for node in 0..nodes {
            prop_assert_eq!(out.temp(node).to_bits(), scalars[lanes - 1].temp(node).to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The scalar engines' fused step, `ThermalModel::step_frozen`, is
    /// bit-identical to `NodePowerModel::eval_into` followed by
    /// `ThermalModel::step` with the vector it wrote: temperatures,
    /// sub-step counts and the written power vector, every step of a
    /// run that chains each step's temperatures into the next step's
    /// leakage. Each case runs every board (the one-block XU4, 16 and 64
    /// nodes in whole blocks, 17 nodes with a scalar tail), every model
    /// constructor (co-runs of 2–3 apps carry per-app tails) and both an
    /// unsplit and a sub-stepped `dt`.
    #[test]
    fn frozen_step_matches_eval_into_then_step(
        opps in (0usize..19, 0usize..13, 0usize..7),
        app in (0u32..=4, 0u32..=4, 0u32..4, 0.0..1.0f64),
        shares in collection::vec((0u32..=1, 0u32..=1, 0u32..4, 0.2..1.0f64), 3usize),
        co_runners in 2usize..=3,
        ambient in 15.0..40.0f64,
        warmth in 0.0..1.0f64,
    ) {
        use teem_soc::{warm_start, BoardSpec, ClusterFreqs, CoRunShare, CpuMapping, NodePowerModel};

        let busy = |flags: u32| (flags & 1 == 1, flags & 2 == 2);
        let specs = [
            BoardSpec::OdroidXu4,
            BoardSpec::ManyNode { nodes: 16 },
            BoardSpec::ManyNode { nodes: 17 },
            BoardSpec::ManyNode { nodes: 64 },
        ];
        for spec in specs {
            let mut board = spec.build_with(ambient, SensorBank::ideal());
            let freqs = ClusterFreqs {
                big: board.big_opps.iter().nth(opps.0).expect("19 big OPPs").freq,
                little: board.little_opps.iter().nth(opps.1).expect("13 LITTLE OPPs").freq,
                gpu: board.gpu_opps.iter().nth(opps.2).expect("7 GPU OPPs").freq,
            };
            let (cpu_busy, gpu_busy) = busy(app.2);
            let co_run: Vec<CoRunShare> = shares[..co_runners]
                .iter()
                .map(|&(little, big, flags, activity)| {
                    let (cpu_busy, gpu_busy) = busy(flags);
                    CoRunShare {
                        mapping: CpuMapping::new(little, big),
                        cpu_busy,
                        gpu_busy,
                        activity,
                    }
                })
                .collect();
            let models = [
                NodePowerModel::single_app(
                    &board,
                    CpuMapping::new(app.0, app.1),
                    freqs,
                    cpu_busy,
                    gpu_busy,
                    app.3,
                ),
                NodePowerModel::co_run(&board, &co_run, freqs),
                NodePowerModel::idle(&board, freqs),
            ];
            warm_start(&mut board, &models[0], warmth);
            let n = board.thermal.len();
            for (m, model) in models.iter().enumerate() {
                for dt in [0.01, 1.0] {
                    let (mut split, mut fused) = (board.clone(), board.clone());
                    // NaN starts: every entry, passive ones included,
                    // must be written.
                    let mut split_w = vec![f64::NAN; n];
                    let mut fused_w = vec![f64::NAN; n];
                    for step in 0..60 {
                        model.eval_into(split.thermal.temps(), &mut split_w);
                        let want = split.thermal.step(dt, &split_w);
                        let got = fused.thermal.step_frozen(dt, model, &mut fused_w);
                        prop_assert_eq!(got, want, "n{} model {} dt {} step {}", n, m, dt, step);
                        for node in 0..n {
                            prop_assert_eq!(
                                fused.thermal.temp(node).to_bits(),
                                split.thermal.temp(node).to_bits(),
                                "temperature: n{} model {} dt {} step {} node {}",
                                n, m, dt, step, node
                            );
                            prop_assert_eq!(
                                fused_w[node].to_bits(),
                                split_w[node].to_bits(),
                                "power: n{} model {} dt {} step {} node {}",
                                n, m, dt, step, node
                            );
                        }
                    }
                }
            }
        }
    }
}
