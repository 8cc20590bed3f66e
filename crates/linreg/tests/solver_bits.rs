//! Bit-exact pins for the LU solver.
//!
//! The expected bits were recorded from the one-shot elimination that
//! reduced the right-hand side alongside the matrix. Factor-then-solve
//! must reproduce them exactly: the same pivots, and the same
//! multiply-subtract sequence for every element. One matrix forces row
//! swaps at several elimination steps; the other is symmetric positive
//! definite and never pivots, like a thermal network's conductances.

use teem_linreg::solve::{lu_factor, lu_solve};
use teem_linreg::Matrix;

/// A matrix that pivots at four of its five elimination steps: its tiny
/// leading entry forces the first swap.
fn pivoting() -> Matrix {
    Matrix::from_rows(&[
        vec![0.001, 2.7, -1.3, 0.45, 1.1],
        vec![3.1, -0.7, 0.25, 2.2, -0.9],
        vec![-2.3, 4.9, 1.7, -3.3, 0.6],
        vec![0.55, 1.45, -2.65, 1.05, 3.8],
        vec![1.9, -0.35, 0.8, -1.6, 2.05],
    ])
    .expect("rectangular")
}

/// A diagonally dominant symmetric positive-definite matrix.
fn spd() -> Matrix {
    Matrix::from_rows(&[
        vec![4.1, 1.3, 0.7, -0.2, 0.15],
        vec![1.3, 3.7, 0.45, 0.9, -0.6],
        vec![0.7, 0.45, 2.9, -0.35, 0.25],
        vec![-0.2, 0.9, -0.35, 1.6, 0.1],
        vec![0.15, -0.6, 0.25, 0.1, 1.3],
    ])
    .expect("rectangular")
}

/// Two right-hand sides per matrix, so one factorisation serves both.
const RHS: [[f64; 5]; 2] = [[1.0, -2.3, 0.7, 3.3, -0.45], [0.1, 0.2, 0.3, -0.4, 5.5]];

/// `lu_solve(pivoting(), RHS[k])` bits at the one-shot elimination.
const PIVOTING_BITS: [[u64; 5]; 2] = [
    [
        0xbfeb2e3b0553b604,
        0xbfac07dc01ca4216,
        0x3fb26c569e6edb39,
        0x3fe01cf51114aad2,
        0x3fed8bb092536b34,
    ],
    [
        0x4002f8dd19d4b8e5,
        0xbfc0449cea295e5d,
        0xc004e999277ed31b,
        0xc00c0e9472f6d1fa,
        0xbff40ffdc6633fa2,
    ],
];

/// `lu_solve(spd(), RHS[k])` bits at the one-shot elimination.
const SPD_BITS: [[u64; 5]; 2] = [
    [
        0x3ff1bbf9fb7d350e,
        0xc00362ba46f88844,
        0x3ff0085866e8fe75,
        0x400f4f3ab354619c,
        0xc000b08a06f45d01,
    ],
    [
        0xbfe5684983a74c2a,
        0x3ffa8e167198c42c,
        0xbfe539b3d83e1912,
        0xbffbeeb900d547a8,
        0x401557e074386740,
    ],
];

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn check(a: &Matrix, pinned: &[[u64; 5]; 2]) {
    let lu = lu_factor(a).expect("non-singular");
    // One buffer across both right-hand sides: `solve_into` must
    // overwrite every element, whatever the last solve left there.
    let mut x = [f64::NAN; 5];
    for (b, want) in RHS.iter().zip(pinned) {
        assert_eq!(bits(&lu_solve(a, b).expect("solve")), want, "lu_solve");
        assert_eq!(bits(&lu.solve(b).expect("solve")), want, "reused factors");
        lu.solve_into(b, &mut x).expect("solve");
        assert_eq!(bits(&x), want, "solve_into");
    }
}

#[test]
fn pivoting_solve_bits_are_pinned() {
    let a = pivoting();
    assert!(
        (1..5).all(|r| a[(r, 0)].abs() > a[(0, 0)].abs()),
        "the leading entry must force a swap"
    );
    check(&a, &PIVOTING_BITS);
}

#[test]
fn spd_solve_bits_are_pinned() {
    check(&spd(), &SPD_BITS);
}

#[test]
fn factors_solve_the_system() {
    for a in [pivoting(), spd()] {
        let lu = lu_factor(&a).expect("non-singular");
        for b in RHS {
            let x = lu.solve(&b).expect("solve");
            for (ax, bi) in a.matvec(&x).expect("square").iter().zip(b) {
                assert!((ax - bi).abs() < 1e-12, "{ax} vs {bi}");
            }
        }
    }
}

#[test]
fn solve_into_rejects_mismatched_lengths() {
    let lu = lu_factor(&spd()).expect("non-singular");
    let mut short = [0.0; 4];
    assert!(lu.solve_into(&RHS[0], &mut short).is_err(), "short output");
    let mut x = [0.0; 5];
    assert!(lu.solve_into(&RHS[0][..4], &mut x).is_err(), "short rhs");
}
