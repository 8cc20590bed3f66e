//! `plan_launch` plans EEMP and RMP launches from a per-app table that
//! is evaluated once per process. These checks pin that the memo never
//! changes a plan: against planners that evaluate a fresh table on the
//! ideal board, against plans recorded when every launch rebuilt its
//! table, and from four threads filling the cold memo at once.
//!
//! The memo is process-wide and this binary is its own process, so the
//! whole check is one test: a second test running beside it could warm
//! the memo before the threads start.

use std::collections::HashMap;
use std::sync::Barrier;
use teem_core::baselines::{Eemp, Rmp};
use teem_core::runner::{fig5_mapping, plan_launch, Approach, LaunchPlan};
use teem_core::{TeemTunables, UserRequirement};
use teem_soc::{perf, Board, CpuMapping, MHz};
use teem_workload::App;

/// Deadline factors on both sides of RMP's GPU-only shortcut (GPU-only
/// within 15 % of the deadline).
const FACTORS: [f64; 5] = [0.5, 0.62, 0.85, 0.9, 1.2];

/// FNV-1a digest of every plan in case order, recorded when each EEMP
/// and RMP launch rebuilt its table.
const PINNED: u64 = 0xecc9_cfba_80ba_be7d;

/// One planning case.
#[derive(Debug)]
struct Case {
    app: App,
    approach: Approach,
    req: UserRequirement,
    mapping: Option<CpuMapping>,
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for app in App::all() {
        let et_gpu = perf::et_gpu(&app.characteristics(), MHz(600));
        for factor in FACTORS {
            let req = UserRequirement::with_paper_threshold(factor * et_gpu);
            for mapping in [None, Some(fig5_mapping()), Some(CpuMapping::new(0, 0))] {
                for approach in [Approach::Eemp, Approach::Rmp] {
                    out.push(Case {
                        app,
                        approach,
                        req,
                        mapping,
                    });
                }
            }
        }
    }
    out
}

fn planned(case: &Case) -> LaunchPlan {
    plan_launch(
        case.app,
        case.approach,
        &case.req,
        None,
        case.mapping,
        None,
        &TeemTunables::paper(),
    )
}

/// The plan a planner built on a fresh ideal board gives: its design
/// point, with a fixed mapping winning over the point's own. EEMP's
/// table does not depend on the deadline, so `eemp` is built once per
/// app.
fn fresh(case: &Case, board: &Board, eemp: &Eemp) -> LaunchPlan {
    let dp = match (case.approach, case.mapping) {
        (Approach::Eemp, Some(m)) => eemp.plan_with_mapping(case.req.treq_s, m),
        (Approach::Eemp, None) => eemp.plan(case.req.treq_s),
        _ => Rmp::build_with_mapping(board, case.app, case.req.treq_s, case.mapping).plan(),
    };
    LaunchPlan {
        mapping: case.mapping.unwrap_or(dp.mapping),
        partition: dp.partition,
        initial: dp.freqs,
    }
}

fn digest(plans: &[LaunchPlan]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for p in plans {
        let words = [
            p.mapping.little,
            p.mapping.big,
            u32::from(p.partition.grains()),
            p.initial.big.0,
            p.initial.little.0,
            p.initial.gpu.0,
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn memoised_plans_equal_fresh_and_recorded_plans() {
    let cases = cases();
    let board = Board::odroid_xu4_ideal();
    let mut eemps = HashMap::new();
    let expected: Vec<LaunchPlan> = cases
        .iter()
        .map(|case| {
            let eemp = eemps
                .entry(case.app)
                .or_insert_with(|| Eemp::build(&board, case.app));
            fresh(case, &board, eemp)
        })
        .collect();
    assert_eq!(
        digest(&expected),
        PINNED,
        "fresh planners drifted from the recorded plans: {:#018x}",
        digest(&expected)
    );

    // Four threads released together onto the cold memo.
    let barrier = Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                barrier.wait();
                for (case, want) in cases.iter().zip(&expected) {
                    assert_eq!(planned(case), *want, "{case:?}");
                }
            });
        }
    });

    // And once more on the warm memo.
    let warm: Vec<LaunchPlan> = cases.iter().map(planned).collect();
    assert_eq!(warm, expected);
}
