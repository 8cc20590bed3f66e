//! Symmetric eigendecomposition via cyclic Jacobi rotations.
//!
//! The thermal fast-forward path diagonalises the (symmetrised)
//! conductance system once per network and then advances arbitrary time
//! spans in closed form, so the decomposition itself is cold code: a
//! dense `O(n³)`-per-sweep Jacobi iteration on a handful of nodes is
//! the right tool, exactly as [`crate::solve::lu_factor`] is for the
//! steady-state solves. Jacobi is chosen over QR/Householder because it
//! is short, unconditionally convergent for symmetric input, and
//! delivers orthogonal eigenvectors to machine precision — which the
//! closed-form cooling advance relies on to invert the modal transform
//! without a second solve.

use crate::matrix::Matrix;

/// Eigendecomposition `A = Q Λ Qᵀ` of a symmetric matrix.
///
/// `vectors` holds the orthonormal eigenvectors as **columns**
/// (`vectors[(i, k)]` is component `i` of eigenvector `k`), matching
/// `values[k]`. Eigenpairs are sorted by ascending eigenvalue.
///
/// # Examples
///
/// ```
/// use teem_linreg::{eigen::sym_eigen, Matrix};
///
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]])?;
/// let e = sym_eigen(&a);
/// assert!((e.values[0] - 1.0).abs() < 1e-12);
/// assert!((e.values[1] - 3.0).abs() < 1e-12);
/// # Ok::<(), teem_linreg::LinregError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as columns, aligned with `values`.
    pub vectors: Matrix,
}

impl SymEigen {
    /// Reconstructs `A` from the decomposition (`Q Λ Qᵀ`) — a test and
    /// diagnostics helper, not a hot path.
    pub fn reconstruct(&self) -> Matrix {
        let n = self.values.len();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += self.vectors[(i, k)] * self.values[k] * self.vectors[(j, k)];
                }
                a[(i, j)] = s;
            }
        }
        a
    }
}

/// Diagonalises a symmetric matrix with the cyclic Jacobi method.
///
/// Asymmetric input is symmetrised first (`(A + Aᵀ)/2`), so callers
/// holding a matrix that is symmetric up to float rounding need not
/// pre-clean it. Convergence is to off-diagonal Frobenius mass below
/// `1e-14 × ‖A‖`; for the ≤ tens-of-nodes networks this crate serves
/// that takes a handful of sweeps.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn sym_eigen(a: &Matrix) -> SymEigen {
    let n = a.rows();
    assert_eq!(n, a.cols(), "sym_eigen needs a square matrix");
    if n == 0 {
        return SymEigen {
            values: Vec::new(),
            vectors: Matrix::zeros(0, 0),
        };
    }
    // Working copy, symmetrised.
    let mut m = Matrix::zeros(n, n);
    let mut scale = 0.0_f64;
    for i in 0..n {
        for j in 0..n {
            let v = 0.5 * (a[(i, j)] + a[(j, i)]);
            m[(i, j)] = v;
            scale = scale.max(v.abs());
        }
    }
    let mut q = Matrix::identity(n);
    if scale == 0.0 {
        return SymEigen {
            values: vec![0.0; n],
            vectors: q,
        };
    }
    let tol = 1e-14 * scale;
    // Cyclic sweeps over the strict upper triangle; 50 sweeps is far
    // beyond what quadratic convergence needs at these sizes, and the
    // early-out below fires long before.
    for _ in 0..50 {
        let mut off = 0.0_f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(m[(i, j)].abs());
            }
        }
        if off <= tol {
            break;
        }
        for p in 0..n {
            for r in (p + 1)..n {
                let apr = m[(p, r)];
                if apr.abs() <= tol * 1e-2 {
                    continue;
                }
                // Rotation angle zeroing m[p][r]: tan(2θ) = 2a_pr/(a_pp-a_rr).
                let theta = 0.5 * (m[(r, r)] - m[(p, p)]) / apr;
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply the rotation to rows/columns p and r.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkr = m[(k, r)];
                    m[(k, p)] = c * mkp - s * mkr;
                    m[(k, r)] = s * mkp + c * mkr;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mrk = m[(r, k)];
                    m[(p, k)] = c * mpk - s * mrk;
                    m[(r, k)] = s * mpk + c * mrk;
                }
                for k in 0..n {
                    let qkp = q[(k, p)];
                    let qkr = q[(k, r)];
                    q[(k, p)] = c * qkp - s * qkr;
                    q[(k, r)] = s * qkp + c * qkr;
                }
            }
        }
    }
    // Sort eigenpairs ascending (stable order makes downstream caching
    // deterministic).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        m[(i, i)]
            .partial_cmp(&m[(j, j)])
            .expect("finite eigenvalue")
    });
    let values: Vec<f64> = order.iter().map(|&k| m[(k, k)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        for i in 0..n {
            vectors[(i, dst)] = q[(i, src)];
        }
    }
    SymEigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 1.0;
        a[(2, 2)] = 2.0;
        let e = sym_eigen(&a);
        assert_eq!(e.values, vec![1.0, 2.0, 3.0]);
        assert!(e.reconstruct().approx_eq(&a, 1e-12));
    }

    #[test]
    fn two_by_two_hand_computed() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = sym_eigen(&a);
        assert_close(e.values[0], 1.0, 1e-12);
        assert_close(e.values[1], 3.0, 1e-12);
    }

    #[test]
    fn reconstructs_random_symmetric_matrices() {
        // Deterministic pseudo-random symmetric matrices of several sizes.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in [1usize, 2, 4, 7] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in i..n {
                    let v = next() * 10.0;
                    a[(i, j)] = v;
                    a[(j, i)] = v;
                }
            }
            let e = sym_eigen(&a);
            assert!(
                e.reconstruct().approx_eq(&a, 1e-9),
                "n={n} reconstruction drifted"
            );
            // Eigenvectors are orthonormal: QᵀQ = I.
            let qtq = e.vectors.transpose().matmul(&e.vectors).unwrap();
            assert!(
                qtq.approx_eq(&Matrix::identity(n), 1e-10),
                "n={n} not orthonormal"
            );
            // Sorted ascending.
            for w in e.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn positive_semidefinite_laplacian_has_nonnegative_spectrum() {
        // Graph Laplacian of a path (the shape of C^{-1/2} G C^{-1/2}
        // for a thermal chain with no ambient link): PSD with one zero
        // eigenvalue.
        let a = Matrix::from_rows(&[
            vec![1.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 1.0],
        ])
        .unwrap();
        let e = sym_eigen(&a);
        assert_close(e.values[0], 0.0, 1e-12);
        assert!(e.values.iter().all(|&l| l > -1e-12));
    }

    #[test]
    fn symmetrises_lightly_asymmetric_input() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0 + 1e-13], vec![1.0, 2.0]]).unwrap();
        let e = sym_eigen(&a);
        assert_close(e.values[0], 1.0, 1e-9);
        assert_close(e.values[1], 3.0, 1e-9);
    }

    #[test]
    fn empty_matrix() {
        let e = sym_eigen(&Matrix::zeros(0, 0));
        assert!(e.values.is_empty());
    }
}
