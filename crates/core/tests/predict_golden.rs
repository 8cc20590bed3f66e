//! Bit-for-bit golden of the offline phase's analytic evaluator,
//! `evaluate::predict`, and of the per-app profiles fitted on it.
//!
//! Tables I/II and every EEMP/RMP plan rest on `predict`'s values, so a
//! change to how it derives node power or the big-core hotspot must not
//! move a bit. The constants were recorded from the evaluator that kept
//! its own copy of the node-power and hotspot formulas.

use teem_core::offline::build_profile_store;
use teem_dse::evaluate::{self, RUNAWAY_CAP_C};
use teem_dse::{enumerate, sample, DesignPoint, DesignPointEval};
use teem_soc::{Board, BoardSpec};
use teem_telemetry::Fnv;
use teem_workload::App;

/// Every 7th diverse-sample point, for each of the ten apps.
const SAMPLE_STRIDE: usize = 7;
/// Every 97th full-space point (a prime, so partitions, GPU OPPs and
/// mappings all vary along the subset), each under one app in turn.
const FULL_SPACE_STRIDE: usize = 97;

const GOLDEN_SAMPLE_XU4: u64 = 0x92c6_9636_f734_dc2b;
const GOLDEN_FULL_SPACE_XU4: u64 = 0x1dc5_bb61_ba36_a109;
const GOLDEN_FULL_SPACE_N16: u64 = 0x3ac9_2579_cfd8_f4bf;
const GOLDEN_PROFILES: u64 = 0xa176_4e30_dbb1_3211;

fn hash_eval(h: &mut Fnv, e: &DesignPointEval) {
    for v in [e.et_s, e.avg_temp_c, e.peak_temp_c, e.energy_j] {
        h.f64(v);
    }
}

fn check(label: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{label} changed bits (got {got:#018x})");
}

#[test]
fn predict_on_the_diverse_sample_is_pinned() {
    let board = Board::odroid_xu4_ideal();
    let points: Vec<DesignPoint> = sample::diverse_sample()
        .into_iter()
        .step_by(SAMPLE_STRIDE)
        .collect();
    let mut h = Fnv::new();
    for app in App::all() {
        let chars = app.characteristics();
        for dp in &points {
            hash_eval(&mut h, &evaluate::predict(&board, &chars, dp));
        }
    }
    check("diverse sample", h.finish(), GOLDEN_SAMPLE_XU4);
}

/// The strided full space on `board`: its digest, plus how many of the
/// points were GPU-only, CPU-only and past the runaway cap.
fn full_space_digest(board: &Board) -> (u64, [usize; 3]) {
    let apps = App::all();
    let mut h = Fnv::new();
    let mut seen = [0usize; 3];
    for (i, dp) in enumerate::full_space(board)
        .step_by(FULL_SPACE_STRIDE)
        .enumerate()
    {
        let chars = apps[i % apps.len()].characteristics();
        let e = evaluate::predict(board, &chars, &dp);
        hash_eval(&mut h, &e);
        seen[0] += usize::from(dp.partition.is_gpu_only());
        seen[1] += usize::from(dp.partition.cpu_fraction() == 1.0);
        seen[2] += usize::from(e.peak_temp_c > RUNAWAY_CAP_C);
    }
    (h.finish(), seen)
}

#[test]
fn predict_on_the_full_space_is_pinned() {
    for (label, board, want) in [
        (
            "full space/xu4",
            Board::odroid_xu4_ideal(),
            GOLDEN_FULL_SPACE_XU4,
        ),
        (
            "full space/n16",
            BoardSpec::ManyNode { nodes: 16 }.build_ideal(),
            GOLDEN_FULL_SPACE_N16,
        ),
    ] {
        let (digest, [gpu_only, cpu_only, runaway]) = full_space_digest(&board);
        assert!(gpu_only > 0, "{label}: no GPU-only point");
        assert!(cpu_only > 0, "{label}: no CPU-only point");
        assert!(runaway > 0, "{label}: no point past the runaway cap");
        check(label, digest, want);
    }
}

#[test]
fn fitted_profiles_are_pinned() {
    let store = build_profile_store(&Board::odroid_xu4_ideal(), App::all()).expect("profiles fit");
    assert_eq!(store.len(), 10);
    let mut h = Fnv::new();
    h.bytes(&store.to_bytes());
    check("profiles", h.finish(), GOLDEN_PROFILES);
}
