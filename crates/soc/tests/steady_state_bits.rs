//! Bit-exact pins for `ThermalModel::steady_state`.
//!
//! The network's LU factors are computed on the first call and reused
//! by every later one. The digests below were recorded when each call
//! assembled and eliminated the system afresh, so they pin that
//! reusing the factors changes no bit: on the first call, after an
//! ambient change, and on a clone that carries the factors over. The
//! allocation-free `steady_state_into` is pinned against the
//! allocating form on every board.

use teem_soc::{Board, BoardSpec};

/// FNV-1a over the bit patterns of a run of floats.
fn fnv(hash: &mut u64, values: &[f64]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64 power draws in `[0, 4)` W for every node.
fn powers(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            4.0 * ((z >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

/// Solves three seeded power vectors at the build ambient, again after
/// an ambient change, and again on a clone, digesting every output bit.
fn digest(board: &mut Board) -> u64 {
    let n = board.thermal.len();
    let vectors: Vec<Vec<f64>> = (1..=3).map(|seed| powers(n, seed)).collect();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for p in &vectors {
        fnv(&mut hash, &board.thermal.steady_state(p));
    }
    board.thermal.set_ambient_c(31.5);
    for p in &vectors {
        fnv(&mut hash, &board.thermal.steady_state(p));
    }
    let mut clone = board.thermal.clone();
    clone.set_ambient_c(18.25);
    for p in &vectors {
        fnv(&mut hash, &clone.steady_state(p));
    }
    hash
}

/// Each board's digest, recorded with the system eliminated per call.
const PINNED: [(BoardSpec, u64); 5] = [
    (BoardSpec::OdroidXu4, 0x021d_692d_6de7_37a3),
    (BoardSpec::ManyNode { nodes: 16 }, 0x3eb2_7ee2_1ecd_d7e5),
    (BoardSpec::ManyNode { nodes: 32 }, 0x2b92_babb_f6cb_9a83),
    (BoardSpec::ManyNode { nodes: 48 }, 0xdd41_3caa_57dd_0a43),
    (BoardSpec::ManyNode { nodes: 64 }, 0x528f_6478_4fa3_07db),
];

#[test]
fn steady_state_bits_are_pinned() {
    for (spec, want) in PINNED {
        let got = digest(&mut spec.build_ideal());
        assert_eq!(got, want, "{} digest {got:#018x}", spec.label());
    }
}

#[test]
fn a_clone_solves_like_its_original() {
    // One copy factorises before cloning, the other after: both must
    // give the original's bits.
    let mut board = BoardSpec::ManyNode { nodes: 32 }.build_ideal();
    let fresh = board.thermal.clone();
    let p = powers(board.thermal.len(), 7);
    let first = board.thermal.steady_state(&p);
    let warm = board.thermal.clone();
    assert_eq!(fresh.steady_state(&p), first);
    assert_eq!(warm.steady_state(&p), first);
    board.thermal.set_ambient_c(40.0);
    let hotter = board.thermal.steady_state(&p);
    assert!(hotter.iter().zip(&first).all(|(h, f)| h > f));
}

#[test]
fn steady_state_into_matches_the_allocating_form() {
    for (spec, _) in PINNED {
        let mut board = spec.build_ideal();
        let n = board.thermal.len();
        // Buffers reused across calls and pre-filled with junk, as the
        // gap fast-forward's scratch is.
        let (mut rhs, mut out) = (vec![f64::NAN; n], vec![f64::NAN; n]);
        for ambient in [None, Some(31.5), Some(18.25)] {
            if let Some(a) = ambient {
                board.thermal.set_ambient_c(a);
            }
            for seed in 1..=3 {
                let p = powers(n, seed);
                board.thermal.steady_state_into(&p, &mut rhs, &mut out);
                let want = board.thermal.steady_state(&p);
                assert!(
                    out.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{} ambient {ambient:?} seed {seed}",
                    spec.label()
                );
            }
        }
    }
}
