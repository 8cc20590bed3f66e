//! Dense linear solvers: Cholesky for the SPD normal equations, and LU
//! with partial pivoting for general systems (the thermal network's
//! steady state, factorised once and solved many times) and as a
//! cross-check.

use crate::error::{LinregError, Result};
use crate::matrix::Matrix;

/// Cholesky factor of a symmetric positive-definite matrix.
///
/// Produced by [`cholesky`]; solves `A x = b` in `O(n^2)` per right-hand
/// side once the `O(n^3)` factorisation is done.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor `L` with `A = L L^T`.
    l: Matrix,
}

/// Computes the Cholesky factorisation of a symmetric positive-definite
/// matrix.
///
/// # Errors
///
/// Returns [`LinregError::Singular`] when the matrix is not positive
/// definite (within a small tolerance), which for OLS means the predictors
/// are perfectly collinear.
///
/// # Examples
///
/// ```
/// use teem_linreg::{Matrix, solve::cholesky};
///
/// let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]])?;
/// let ch = cholesky(&a)?;
/// let x = ch.solve(&[2.0, 1.0])?;
/// assert!((4.0 * x[0] + 2.0 * x[1] - 2.0).abs() < 1e-12);
/// # Ok::<(), teem_linreg::LinregError>(())
/// ```
pub fn cholesky(a: &Matrix) -> Result<Cholesky> {
    if a.rows() != a.cols() {
        return Err(LinregError::DimensionMismatch {
            op: "cholesky",
            lhs: (a.rows(), a.cols()),
            rhs: (a.rows(), a.rows()),
        });
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    // Tolerance scaled by the largest diagonal entry; catches numerically
    // semi-definite systems from collinear predictors.
    let scale = (0..n).fold(0.0_f64, |m, i| m.max(a[(i, i)].abs()));
    let tol = scale * 1e-12 + f64::MIN_POSITIVE;
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= tol {
            return Err(LinregError::Singular);
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dj;
        }
    }
    Ok(Cholesky { l })
}

impl Cholesky {
    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` using the stored factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`LinregError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinregError::DimensionMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward substitution: L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            #[allow(clippy::needless_range_loop)] // index form mirrors the maths
            for k in 0..i {
                s -= self.l[(i, k)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Back substitution: L^T x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            #[allow(clippy::needless_range_loop)] // index form mirrors the maths
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Computes `A^{-1}` column by column. Used for coefficient covariance
    /// `(X^T X)^{-1}` in OLS inference.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let x = self.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = x[i];
            }
            e[j] = 0.0;
        }
        Ok(inv)
    }
}

/// LU factorisation with partial pivoting, `P A = L U`.
///
/// Produced by [`lu_factor`]; solves `A x = b` in `O(n^2)` per
/// right-hand side once the `O(n^3)` elimination is done, so a system
/// whose matrix never changes (a thermal network's conductances) is
/// factorised once and solved many times.
#[derive(Debug, Clone)]
pub struct Lu {
    /// `U` on and above the diagonal, the multipliers of the unit
    /// lower-triangular `L` below it, rows in pivot order.
    lu: Matrix,
    /// `perm[i]` is the row of `A` that ended up as row `i`.
    perm: Vec<usize>,
}

/// Computes the LU factorisation of a square matrix by Gaussian
/// elimination with partial pivoting.
///
/// # Errors
///
/// Returns [`LinregError::Singular`] for (numerically) singular `A` and
/// [`LinregError::DimensionMismatch`] for a non-square one.
pub fn lu_factor(a: &Matrix) -> Result<Lu> {
    if a.rows() != a.cols() {
        return Err(LinregError::DimensionMismatch {
            op: "lu_solve",
            lhs: (a.rows(), a.cols()),
            rhs: (a.rows(), a.rows()),
        });
    }
    let n = a.rows();
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let scale = lu.max_abs();
    let tol = scale * 1e-13 + f64::MIN_POSITIVE;

    for k in 0..n {
        // Partial pivot
        let mut piv = k;
        let mut max = lu[(k, k)].abs();
        for i in (k + 1)..n {
            if lu[(i, k)].abs() > max {
                max = lu[(i, k)].abs();
                piv = i;
            }
        }
        if max <= tol {
            return Err(LinregError::Singular);
        }
        if piv != k {
            for c in 0..n {
                let tmp = lu[(k, c)];
                lu[(k, c)] = lu[(piv, c)];
                lu[(piv, c)] = tmp;
            }
            perm.swap(k, piv);
        }
        for i in (k + 1)..n {
            let f = lu[(i, k)] / lu[(k, k)];
            lu[(i, k)] = f;
            for c in (k + 1)..n {
                let v = lu[(k, c)];
                lu[(i, c)] -= f * v;
            }
        }
    }
    Ok(Lu { lu, perm })
}

impl Lu {
    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` using the stored factorisation.
    ///
    /// Each row multiplier travels with its row through the pivot
    /// swaps, so forward substitution on the permuted `b` applies the
    /// same multiply-subtract sequence to every element, in the same
    /// order, as eliminating `b` alongside `A` would: the result is
    /// bit-identical to a one-shot elimination.
    ///
    /// # Errors
    ///
    /// Returns [`LinregError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.check_len(b.len())?;
        // Forward substitution runs on the permuted `b`: L y = P b.
        let mut x: Vec<f64> = self.perm.iter().map(|&r| b[r]).collect();
        self.substitute(&mut x);
        Ok(x)
    }

    /// [`Lu::solve`] into a caller-owned `x`, allocating nothing: the
    /// same operations in the same order, so the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`LinregError::DimensionMismatch`] when `b.len()` or
    /// `x.len()` differs from `dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        self.check_len(b.len())?;
        self.check_len(x.len())?;
        for (xi, &r) in x.iter_mut().zip(&self.perm) {
            *xi = b[r];
        }
        self.substitute(x);
        Ok(())
    }

    fn check_len(&self, len: usize) -> Result<()> {
        let n = self.dim();
        if len == n {
            Ok(())
        } else {
            Err(LinregError::DimensionMismatch {
                op: "lu_solve rhs",
                lhs: (n, n),
                rhs: (len, 1),
            })
        }
    }

    /// Solves in place from `x = P b`: forward substitution on the
    /// unit-lower `L`, then back substitution on `U`.
    fn substitute(&self, x: &mut [f64]) {
        let n = self.dim();
        let lu = &self.lu;
        for i in 0..n {
            for k in 0..i {
                x[i] -= lu[(i, k)] * x[k];
            }
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for c in (i + 1)..n {
                s -= lu[(i, c)] * x[c];
            }
            x[i] = s / lu[(i, i)];
        }
    }
}

/// Solves `A x = b` by LU decomposition with partial pivoting:
/// [`lu_factor`] then [`Lu::solve`].
///
/// General-purpose fallback used in tests to cross-check [`cholesky`] and
/// available for non-symmetric systems.
///
/// # Errors
///
/// Returns [`LinregError::Singular`] for (numerically) singular `A` and
/// [`LinregError::DimensionMismatch`] for shape errors.
pub fn lu_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    lu_factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 2.0],
        ])
        .unwrap()
    }

    #[test]
    fn cholesky_reconstructs_input() {
        let a = spd3();
        let ch = cholesky(&a).unwrap();
        let l = ch.factor();
        let llt = l.matmul(&l.transpose()).unwrap();
        assert!(llt.approx_eq(&a, 1e-12));
    }

    #[test]
    fn cholesky_solve_agrees_with_lu() {
        let a = spd3();
        let b = [1.0, 2.0, 3.0];
        let x1 = cholesky(&a).unwrap().solve(&b).unwrap();
        let x2 = lu_solve(&a, &b).unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert_eq!(cholesky(&a).unwrap_err(), LinregError::Singular);
    }

    #[test]
    fn cholesky_rejects_collinear_gram() {
        // X with a duplicated column -> X'X singular.
        let x = Matrix::from_rows(&[
            vec![1.0, 1.0, 2.0],
            vec![1.0, 2.0, 4.0],
            vec![1.0, 3.0, 6.0],
            vec![1.0, 4.0, 8.0],
        ])
        .unwrap();
        assert_eq!(cholesky(&x.gram()).unwrap_err(), LinregError::Singular);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = spd3();
        let inv = cholesky(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn lu_handles_permutation() {
        // Zero pivot in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = lu_solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(
            lu_solve(&a, &[1.0, 2.0]).unwrap_err(),
            LinregError::Singular
        );
    }
}
