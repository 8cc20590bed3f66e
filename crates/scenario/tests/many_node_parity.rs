//! Many-node board axis: [`SweepSpec::boards`] sweeps thermal-network
//! topology as a physics axis, and the lane-blocked batched kernels
//! stay bit-identical to scalar on every node count.
//!
//! Pinned here:
//!
//! * scalar vs `batch(4)` parity (summary + trace digest) on grids
//!   mixing the stock XU4 with 16/32/48/64-node generated boards;
//! * the lockstep fast path engages on many-node cells — the pool
//!   rebuild at a board boundary works, lanes don't silently degrade
//!   to scalar stepping: every cell of a two-board grid enters a lane,
//!   also when a board boundary falls while the pool is part full, at
//!   one and two workers;
//! * cell names carry the board tag (`n32`, `xu4`) so journal rows are
//!   attributable, and the tag leads the knob tags (boards is the
//!   outermost knob axis);
//! * the boards axis is part of the sweep fingerprint: adding it, or
//!   changing the node count, changes the campaign identity;
//! * property test: a random node count in 16..=64 stays batched ==
//!   scalar, digest for digest.

use proptest::prelude::*;
use std::collections::BTreeMap;
use teem_core::runner::Approach;
use teem_scenario::{ConfigPatch, Scenario, SweepEvent, SweepSpec};
use teem_soc::BoardSpec;
use teem_telemetry::ScenarioSummary;
use teem_workload::App;

struct CellOut {
    name: String,
    board: BoardSpec,
    summary: ScenarioSummary,
    digest: u64,
    batched_steps: u64,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("m-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("m-gesummv").arrive(0.0, App::Gesummv, 0.9),
    ]
}

fn board_grid(boards: &[BoardSpec]) -> SweepSpec {
    SweepSpec::over(scenarios())
        .approaches(&[Approach::Teem, Approach::Ondemand])
        .ambients_c(&[15.0, 25.0])
        .boards(boards)
        .patch_config(ConfigPatch {
            timeout_s: Some(2.0),
            ..ConfigPatch::default()
        })
        .threads(1)
}

fn run_grid(spec: &SweepSpec) -> BTreeMap<usize, CellOut> {
    let mut out = BTreeMap::new();
    let stats = spec
        .run_streaming(|ev| {
            if let SweepEvent::CellDone { cell, result } = ev {
                out.insert(
                    cell.index,
                    CellOut {
                        name: cell.name.clone(),
                        board: cell.board,
                        summary: result.summary.clone(),
                        digest: result.trace.digest(),
                        batched_steps: result.kernel.batched_steps,
                    },
                );
            }
        })
        .expect("sweep runs");
    assert_eq!(stats.failed, 0, "no cell may fail");
    out
}

fn assert_parity(scalar: &BTreeMap<usize, CellOut>, batched: &BTreeMap<usize, CellOut>, tag: &str) {
    assert_eq!(scalar.len(), batched.len(), "{tag}: cell count");
    for (index, s) in scalar {
        let b = &batched[index];
        assert_eq!(s.board, b.board, "{tag}: board axis order at cell {index}");
        assert_eq!(
            s.summary, b.summary,
            "{tag}: summary diverged at cell {index} ({})",
            s.name
        );
        assert_eq!(
            s.digest, b.digest,
            "{tag}: trace digest diverged at cell {index} ({})",
            s.name
        );
    }
}

#[test]
fn many_node_boards_stay_bit_identical_under_batching() {
    for nodes in [16u32, 32, 48, 64] {
        let boards = [BoardSpec::OdroidXu4, BoardSpec::ManyNode { nodes }];
        let scalar = run_grid(&board_grid(&boards));
        let batched = run_grid(&board_grid(&boards).batch(4));
        assert_parity(&scalar, &batched, &format!("n{nodes}"));

        // The pool rebuilds at the board boundary and keeps batching:
        // every cell of *both* topologies must see lockstep steps.
        for (index, c) in &batched {
            assert!(
                c.batched_steps > 0,
                "n{nodes}: cell {index} ({}) never stepped in a lane",
                c.name
            );
        }
    }
}

/// A board boundary that falls while the pool is part full: 10
/// thresholds per board and 4 lanes leave two cells of one board
/// resident when the first cell of the other is claimed. That cell
/// waits for the pool to drain instead of running scalar, so every
/// cell enters a lane, at one worker and at two.
#[test]
fn a_board_change_mid_pool_still_admits_every_cell() {
    let grid = || {
        SweepSpec::over(scenarios())
            .thresholds_c(&[80.0, 81.0, 82.0, 83.0, 84.0, 85.0, 86.0, 87.0, 88.0, 89.0])
            .boards(&[BoardSpec::OdroidXu4, BoardSpec::ManyNode { nodes: 16 }])
            .patch_config(ConfigPatch {
                timeout_s: Some(2.0),
                ..ConfigPatch::default()
            })
    };
    let scalar = run_grid(&grid().threads(1));
    assert_eq!(scalar.len(), 40);
    for threads in [1, 2] {
        let spec = grid().batch(4).threads(threads);
        let (stats, report) = spec.run_instrumented(|_| {}).expect("sweep runs");
        assert_eq!(stats.failed, 0);
        let entered = report.snapshot().counter("batch.lanes_entered");
        assert_eq!(
            entered,
            Some(stats.cells as u64),
            "threads({threads}): every cell must enter a lane"
        );
        assert_parity(&scalar, &run_grid(&spec), &format!("threads({threads})"));
    }
}

#[test]
fn board_tag_leads_the_cell_name() {
    let grid = board_grid(&[BoardSpec::OdroidXu4, BoardSpec::ManyNode { nodes: 32 }]);
    let cells = run_grid(&grid);
    for c in cells.values() {
        let tag = c.board.label();
        assert!(
            c.name.contains(&format!("@{tag}/")),
            "board tag {tag} must lead the knob tags in {:?}",
            c.name
        );
    }
    // Boards vary slower than every other knob axis (only the
    // scenario is outermost), so same-board cells form contiguous
    // blocks: 2 scenarios × 2 boards = 4 blocks = 3 boundaries. The
    // pool rebuild fires once per boundary, not once per cell.
    let labels: Vec<String> = cells.values().map(|c| c.board.label()).collect();
    let boundaries = labels.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(boundaries, 3, "expected 3 board boundaries in {labels:?}");
}

#[test]
fn boards_axis_is_campaign_identity() {
    let base = SweepSpec::over(scenarios());
    let with_axis = SweepSpec::over(scenarios()).boards(&[BoardSpec::OdroidXu4]);
    assert_ne!(
        base.fingerprint(),
        with_axis.fingerprint(),
        "adding the boards axis must change the fingerprint"
    );
    let n32 = SweepSpec::over(scenarios()).boards(&[BoardSpec::ManyNode { nodes: 32 }]);
    let n48 = SweepSpec::over(scenarios()).boards(&[BoardSpec::ManyNode { nodes: 48 }]);
    assert_ne!(
        n32.fingerprint(),
        n48.fingerprint(),
        "the node count is physics; it must change the fingerprint"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Any node count in the supported 16..=64 range keeps batched
    /// stepping bit-identical to scalar.
    #[test]
    fn random_topology_keeps_parity(nodes in 16u32..=64) {
        let boards = [BoardSpec::ManyNode { nodes }];
        let grid = || {
            SweepSpec::over(vec![Scenario::new("r-mvt").arrive(0.0, App::Mvt, 0.9)])
                .ambients_c(&[15.0, 25.0])
                .boards(&boards)
                .patch_config(ConfigPatch {
                    timeout_s: Some(2.0),
                    ..ConfigPatch::default()
                })
                .threads(1)
        };
        let scalar = run_grid(&grid());
        let batched = run_grid(&grid().batch(4));
        prop_assert_eq!(scalar.len(), batched.len());
        for (index, s) in &scalar {
            let b = &batched[index];
            prop_assert_eq!(&s.summary, &b.summary, "summary diverged at cell {}", index);
            prop_assert_eq!(s.digest, b.digest, "digest diverged at cell {}", index);
        }
        let steps: u64 = batched.values().map(|c| c.batched_steps).sum();
        prop_assert!(steps > 0, "n{}: fast path never engaged", nodes);
    }
}
