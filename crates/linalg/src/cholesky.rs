//! Cholesky decomposition of symmetric positive-definite matrices.
//!
//! The least-squares solvers in [`crate::lstsq`] form normal equations
//! `(UᵀU)·a = Uᵀx` whose left-hand side is SPD whenever the endmember
//! matrix `U` has full column rank; Cholesky is the cheapest stable way to
//! solve them.

use crate::error::shape_mismatch;
use crate::{LinAlgError, Matrix, Result};

/// A lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// The default value is an empty factor: storage that
/// [`factor`](Self::factor) fills and refills without reallocating, which
/// is how the NNLS core factors one passive subsystem after another.
#[derive(Debug, Clone, Default)]
pub struct CholeskyDecomposition {
    l: Matrix,
}

impl CholeskyDecomposition {
    /// Factorises a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is the caller's responsibility (use
    /// [`Matrix::is_symmetric`] to verify when in doubt). Returns
    /// [`LinAlgError::NotPositiveDefinite`] when a diagonal pivot is
    /// non-positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(shape_mismatch(
                "square matrix",
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        a.require_non_empty()?;
        let idx: Vec<usize> = (0..a.rows()).collect();
        let mut ch = CholeskyDecomposition::default();
        if !ch.factor(a, &idx) {
            return Err(LinAlgError::NotPositiveDefinite);
        }
        Ok(ch)
    }

    /// Factorises the principal submatrix `a[idx, idx]` into this
    /// factor's storage, replacing what it held. Only the lower triangle
    /// of the submatrix is read. Returns `false` on a non-positive pivot,
    /// after which the factor must not be used for solving.
    pub(crate) fn factor(&mut self, a: &Matrix, idx: &[usize]) -> bool {
        let k = idx.len();
        self.l.reset_zeros(k, k);
        let l = self.l.as_mut_slice();
        for i in 0..k {
            let a_row = a.row(idx[i]);
            for j in 0..=i {
                let mut sum = a_row[idx[j]];
                for (li, lj) in l[i * k..i * k + j].iter().zip(&l[j * k..j * k + j]) {
                    sum -= li * lj;
                }
                if i == j {
                    if sum <= 0.0 {
                        return false;
                    }
                    l[i * k + i] = sum.sqrt();
                } else {
                    l[i * k + j] = sum / l[j * k + j];
                }
            }
        }
        true
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow of the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` via `L·y = b` then `Lᵀ·x = y`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(shape_mismatch(
                format!("rhs of length {n}"),
                format!("length {}", b.len()),
            ));
        }
        let mut y = b.to_vec();
        self.solve_in_place(&mut y);
        Ok(y)
    }

    /// Overwrites `y` (of length [`dim`](Self::dim)) with the solution
    /// `x` of `A·x = y`.
    pub(crate) fn solve_in_place(&self, y: &mut [f64]) {
        let n = self.dim();
        let l = self.l.as_slice();
        for i in 0..n {
            let mut sum = y[i];
            for (lv, yv) in l[i * n..i * n + i].iter().zip(&y[..i]) {
                sum -= lv * yv;
            }
            y[i] = sum / l[i * n + i];
        }
        for i in (0..n).rev() {
            let mut sum = y[i];
            for m in (i + 1)..n {
                sum -= l[m * n + i] * y[m];
            }
            y[i] = sum / l[i * n + i];
        }
    }

    /// Determinant of `A` (= product of squared diagonal entries of `L`).
    pub fn det(&self) -> f64 {
        let mut d = 1.0;
        for i in 0..self.dim() {
            let v = self.l[(i, i)];
            d *= v * v;
        }
        d
    }
}

/// Convenience wrapper: solve an SPD system in one call.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    CholeskyDecomposition::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_known_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let ch = CholeskyDecomposition::new(&a).unwrap();
        let l = ch.l();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-12));
        assert!((ch.det() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn solve_matches_lu() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let b = [1.0, -2.0, 3.0];
        let x_ch = solve_spd(&a, &b).unwrap();
        let x_lu = crate::lu::solve(&a, &b).unwrap();
        for (p, q) in x_ch.iter().zip(&x_lu) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn refactoring_a_submatrix_matches_a_fresh_factor_bitwise() {
        let a = Matrix::from_rows(&[
            &[6.0, 2.0, 1.0, 0.5],
            &[2.0, 5.0, 2.0, 0.3],
            &[1.0, 2.0, 4.0, 0.7],
            &[0.5, 0.3, 0.7, 3.0],
        ]);
        let b = [1.0, -2.0, 3.0, 0.25];
        let mut reused = CholeskyDecomposition::default();
        // Shrinking, growing and failing in between leave no trace.
        for idx in [&[0, 1, 2, 3][..], &[1, 3], &[0, 2, 3], &[2]] {
            assert!(reused.factor(&a, idx));
            let mut sub = Matrix::zeros(idx.len(), idx.len());
            for (r, &i) in idx.iter().enumerate() {
                for (c, &j) in idx.iter().enumerate() {
                    sub[(r, c)] = a[(i, j)];
                }
            }
            let fresh = CholeskyDecomposition::new(&sub).unwrap();
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(reused.l()), bits(fresh.l()));
            let rhs: Vec<f64> = idx.iter().map(|&i| b[i]).collect();
            let mut y = rhs.clone();
            reused.solve_in_place(&mut y);
            let want = fresh.solve(&rhs).unwrap();
            assert_eq!(
                bits(&Matrix::row_vector(&y)),
                bits(&Matrix::row_vector(&want))
            );
            let indefinite = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
            assert!(!reused.factor(&indefinite, &[0, 1]));
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            CholeskyDecomposition::new(&a),
            Err(LinAlgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(CholeskyDecomposition::new(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(
            CholeskyDecomposition::new(&Matrix::zeros(0, 0)),
            Err(LinAlgError::Empty)
        ));
    }

    #[test]
    fn gram_matrix_of_full_rank_basis_is_spd() {
        let u = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 2.0]]);
        let g = u.gram();
        let ch = CholeskyDecomposition::new(&g).unwrap();
        assert!(ch.det() > 0.0);
    }
}
