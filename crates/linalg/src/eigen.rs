//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! The principal component transform (Algorithm 4, step 7 of the paper)
//! needs the eigenvectors of an `N × N` covariance matrix (`N = 224`
//! spectral bands), sorted by descending eigenvalue. Jacobi rotation is the
//! classic choice at this scale: simple, unconditionally stable for
//! symmetric input, and accurate to machine precision for the well-scaled
//! covariance matrices that arise here.

use crate::error::shape_mismatch;
use crate::{LinAlgError, Matrix, Result};

/// Maximum number of full sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 64;

/// Result of a symmetric eigendecomposition: `A = V · diag(λ) · Vᵀ`.
///
/// Eigenpairs are sorted by **descending** eigenvalue, matching the PCT's
/// convention that the first principal component carries the most variance.
///
/// ```
/// use hsi_linalg::{Matrix, eigen::SymmetricEigen};
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let e = SymmetricEigen::new(&a).unwrap();
/// assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
/// assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in descending order.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors as **rows** (row `i` pairs with `eigenvalues[i]`), so
    /// `eigenvectors.matvec(x)` projects `x` onto the principal axes.
    pub eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Decomposes a symmetric matrix with the cyclic Jacobi method.
    ///
    /// `a` must be square; symmetry is enforced by averaging `a` with its
    /// transpose first (cheap insurance against accumulation asymmetries in
    /// covariance sums). Returns [`LinAlgError::NonFinite`] if that average
    /// holds a NaN or an infinity, and [`LinAlgError::NoConvergence`] if the
    /// off-diagonal mass has not vanished after `MAX_SWEEPS` (64) sweeps —
    /// which for finite symmetric input effectively cannot happen.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (mut m, tol) = symmetrised(a)?;
        let mut v = Matrix::identity(m.rows());
        jacobi(&mut m, &mut v, tol)?;
        Ok(Self::from_rotated(&m, &v))
    }

    /// Extracts the eigenpairs of a converged Jacobi iteration (eigenvalues
    /// on the diagonal of `m`, eigenvectors in the rows of `v`) and sorts
    /// them by descending eigenvalue. Sorting is stable with an index
    /// tiebreak so results are fully deterministic.
    fn from_rotated(m: &Matrix, v: &Matrix) -> Self {
        let n = m.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let lambda: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        order.sort_by(|&i, &j| {
            lambda[j]
                .partial_cmp(&lambda[i])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(i.cmp(&j))
        });
        let mut eigenvalues = Vec::with_capacity(n);
        let mut eigenvectors = Matrix::zeros(n, n);
        for (row, &idx) in order.iter().enumerate() {
            eigenvalues.push(lambda[idx]);
            // Canonical sign: first nonzero component positive, so that the
            // decomposition is unique and reproducible across platforms.
            let vec_row = v.row(idx);
            let sign = vec_row
                .iter()
                .find(|x| x.abs() > 1e-12)
                .map(|x| x.signum())
                .unwrap_or(1.0);
            for (out, &val) in eigenvectors.row_mut(row).iter_mut().zip(vec_row) {
                *out = sign * val;
            }
        }
        SymmetricEigen {
            eigenvalues,
            eigenvectors,
        }
    }

    /// Number of eigenpairs.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// The `k × n` transformation matrix formed by the top-`k` eigenvectors
    /// (the PCT's `T`). Errors when `k > n`.
    pub fn principal_transform(&self, k: usize) -> Result<Matrix> {
        if k > self.dim() {
            return Err(shape_mismatch(
                format!("k <= {}", self.dim()),
                format!("k = {k}"),
            ));
        }
        let n = self.dim();
        let mut t = Matrix::zeros(k, n);
        for i in 0..k {
            t.row_mut(i).copy_from_slice(self.eigenvectors.row(i));
        }
        Ok(t)
    }

    /// Fraction of total variance captured by the top-`k` eigenvalues.
    /// Negative eigenvalues (numerical noise in covariance sums) are
    /// clamped to zero for the purpose of this ratio.
    pub fn explained_variance(&self, k: usize) -> f64 {
        let total: f64 = self.eigenvalues.iter().map(|l| l.max(0.0)).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let top: f64 = self.eigenvalues.iter().take(k).map(|l| l.max(0.0)).sum();
        top / total
    }
}

/// The symmetrised working copy `½(a + aᵀ)` of a square, non-empty,
/// finite matrix, with the Jacobi convergence tolerance.
fn symmetrised(a: &Matrix) -> Result<(Matrix, f64)> {
    if !a.is_square() {
        return Err(shape_mismatch(
            "square matrix",
            format!("{}x{}", a.rows(), a.cols()),
        ));
    }
    a.require_non_empty()?;
    let n = a.rows();
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
        }
    }
    // A NaN makes both `off <= tol` and `off > tol` false: the sweeps
    // would run to the budget and return garbage.
    if m.as_slice().iter().any(|x| !x.is_finite()) {
        return Err(LinAlgError::NonFinite);
    }
    let scale = m.max_abs().max(f64::MIN_POSITIVE);
    let tol = 1e-14 * scale * (n as f64);
    Ok((m, tol))
}

/// Classic Jacobi rotation parameters `(c, s)` annihilating `m[p][q]`
/// (Golub & Van Loan §8.5).
fn rotation(app: f64, aqq: f64, apq: f64) -> (f64, f64) {
    let theta = (aqq - app) / (2.0 * apq);
    let t = if theta >= 0.0 {
        1.0 / (theta + (1.0 + theta * theta).sqrt())
    } else {
        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    (c, t * c)
}

/// Cyclic Jacobi sweeps until the off-diagonal norm of `m` falls to
/// `tol`, accumulating the rotations into the rows of `v`.
///
/// Each rotation `(p, q)` is `M ← Jᵀ M J`: a column half (columns `p`
/// and `q` of every row) followed by a row half (rows `p` and `q`). The
/// row halves are paired-row zips over contiguous storage. The column
/// half of a rotation touches only entries `p` and `q` of each row, and
/// within one `p`-loop nothing reads a row other than `p` and the
/// current `q` except those column halves themselves. So rows `p` and
/// `q` take the column half at once, and every other row applies its
/// pending `(q, c, s)` list in order — before it is read as a `q`, and
/// otherwise at the end of the `p`-loop. Every entry thus sees the same
/// operations in the same order as the textbook loop that updates the
/// whole columns eagerly, and the result is bit-identical to it.
fn jacobi(m: &mut Matrix, v: &mut Matrix, tol: f64) -> Result<()> {
    let n = m.rows();
    let skip = tol / (n as f64).max(1.0);
    // This `p`-loop's rotations, and how many of them each row has taken.
    let mut pending: Vec<(usize, f64, f64)> = Vec::with_capacity(n);
    let mut taken = vec![0usize; n];
    for _sweep in 0..MAX_SWEEPS {
        if off_diagonal_norm(m) <= tol {
            return Ok(());
        }
        for p in 0..n {
            pending.clear();
            taken.fill(0);
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= skip {
                    continue;
                }
                let md = m.as_mut_slice();
                catch_up(&mut md[q * n..(q + 1) * n], p, &pending);
                let (c, s) = rotation(md[p * n + p], md[q * n + q], apq);
                pending.push((q, c, s));
                taken[q] = pending.len();
                let (rp, rq) = row_pair(md, n, p, q);
                catch_up(rp, p, &pending[pending.len() - 1..]);
                catch_up(rq, p, &pending[pending.len() - 1..]);
                rotate_rows(rp, rq, c, s);
                // Accumulate the rotation into V (rows are eigenvectors).
                let (vp, vq) = row_pair(v.as_mut_slice(), n, p, q);
                rotate_rows(vp, vq, c, s);
            }
            let md = m.as_mut_slice();
            for (k, row) in md.chunks_exact_mut(n).enumerate() {
                if k != p {
                    catch_up(row, p, &pending[taken[k]..]);
                }
            }
        }
    }
    if off_diagonal_norm(m) > tol {
        return Err(LinAlgError::NoConvergence {
            iterations: MAX_SWEEPS,
        });
    }
    Ok(())
}

/// Applies the column halves of the rotations `(q, c, s)` of one
/// `p`-loop, in order, to a single row: entries `p` and `q` of the row.
fn catch_up(row: &mut [f64], p: usize, rotations: &[(usize, f64, f64)]) {
    let mut xp = row[p];
    for &(q, c, s) in rotations {
        let xq = row[q];
        row[q] = s * xp + c * xq;
        xp = c * xp - s * xq;
    }
    row[p] = xp;
}

/// The row half of a rotation: `(rp, rq) ← (c·rp − s·rq, s·rp + c·rq)`.
fn rotate_rows(rp: &mut [f64], rq: &mut [f64], c: f64, s: f64) {
    for (x, y) in rp.iter_mut().zip(rq.iter_mut()) {
        let (xp, xq) = (*x, *y);
        *x = c * xp - s * xq;
        *y = s * xp + c * xq;
    }
}

/// Rows `p < q` of a row-major `n`-column buffer, borrowed together.
fn row_pair(data: &mut [f64], n: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(p < q);
    let (head, tail) = data.split_at_mut(q * n);
    (&mut head[p * n..(p + 1) * n], &mut tail[..n])
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut sum = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += 2.0 * m[(i, j)] * m[(i, j)];
        }
    }
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook cyclic Jacobi loop, with whole-column updates walked
    /// by stride: the reference [`jacobi`] must match bit for bit.
    fn textbook(a: &Matrix) -> Result<SymmetricEigen> {
        let (mut m, tol) = symmetrised(a)?;
        let n = m.rows();
        let mut v = Matrix::identity(n);
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            if off_diagonal_norm(&m) <= tol {
                converged = true;
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol / (n as f64).max(1.0) {
                        continue;
                    }
                    let (c, s) = rotation(m[(p, p)], m[(q, q)], apq);
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    for k in 0..n {
                        let vpk = v[(p, k)];
                        let vqk = v[(q, k)];
                        v[(p, k)] = c * vpk - s * vqk;
                        v[(q, k)] = s * vpk + c * vqk;
                    }
                }
            }
        }
        if !converged && off_diagonal_norm(&m) > tol {
            return Err(LinAlgError::NoConvergence {
                iterations: MAX_SWEEPS,
            });
        }
        Ok(SymmetricEigen::from_rotated(&m, &v))
    }

    fn bits(e: &SymmetricEigen) -> (Vec<u64>, Vec<u64>) {
        (
            e.eigenvalues.iter().map(|x| x.to_bits()).collect(),
            e.eigenvectors
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect(),
        )
    }

    fn assert_matches_textbook(a: &Matrix) {
        let fast = SymmetricEigen::new(a).unwrap();
        let reference = textbook(a).unwrap();
        assert_eq!(bits(&fast), bits(&reference));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The row-contiguous lazy-column sweep equals the textbook loop
        /// bit for bit on random symmetric matrices.
        #[test]
        fn jacobi_matches_textbook_bitwise(
            n in 1usize..41,
            vals in proptest::collection::vec(-1.0f64..1.0, 40 * 41 / 2),
        ) {
            let mut a = Matrix::zeros(n, n);
            let mut next = vals.iter();
            for i in 0..n {
                for j in 0..=i {
                    let x = *next.next().unwrap();
                    a[(i, j)] = x;
                    a[(j, i)] = x;
                }
            }
            let fast = SymmetricEigen::new(&a).unwrap();
            let reference = textbook(&a).unwrap();
            prop_assert_eq!(bits(&fast), bits(&reference));
        }
    }

    #[test]
    fn jacobi_matches_textbook_on_skipped_rotations() {
        // Diagonal and identity inputs skip every rotation; a block
        // diagonal one mixes skipped and applied rotations in a p-loop.
        for n in [1, 2, 5, 17] {
            assert_matches_textbook(&Matrix::identity(n));
            let mut d = Matrix::zeros(n, n);
            for i in 0..n {
                d[(i, i)] = (i as f64 - 3.5) * 0.75;
            }
            assert_matches_textbook(&d);
        }
        let mut block = Matrix::identity(6);
        for (i, j, x) in [(0, 2, 0.5), (1, 4, -0.25), (3, 5, 0.125)] {
            block[(i, j)] = x;
            block[(j, i)] = x;
        }
        assert_matches_textbook(&block);
    }

    #[test]
    fn rejects_non_finite_input() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 0.5], &[0.0, 0.5, 1.0]]);
            a[(1, 2)] = bad;
            a[(2, 1)] = bad;
            assert_eq!(SymmetricEigen::new(&a).unwrap_err(), LinAlgError::NonFinite);
        }
        // Finite entries whose average overflows are rejected too.
        let big = Matrix::from_rows(&[&[f64::MAX, f64::MAX], &[f64::MAX, 1.0]]);
        assert_eq!(
            SymmetricEigen::new(&big).unwrap_err(),
            LinAlgError::NonFinite
        );
    }

    #[test]
    fn diagonal_matrix_eigenpairs() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = e.eigenvectors.row(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((v0[0] - v0[1]).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_identity() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 1.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        // A ≈ Vᵀ diag(λ) V with V rows = eigenvectors.
        let v = &e.eigenvectors;
        let mut d = Matrix::zeros(3, 3);
        for i in 0..3 {
            d[(i, i)] = e.eigenvalues[i];
        }
        let recon = v.transpose().matmul(&d).unwrap().matmul(v).unwrap();
        assert!(recon.approx_eq(&a, 1e-10));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Matrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 4.0, 2.0], &[1.0, 2.0, 3.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        let vvt = e.eigenvectors.matmul(&e.eigenvectors.transpose()).unwrap();
        assert!(vvt.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((sum - a.trace().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn descending_order_and_variance_ratio() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 5.0, 0.0], &[0.0, 0.0, 3.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_eq!(e.eigenvalues.len(), 3);
        assert!(e.eigenvalues[0] >= e.eigenvalues[1]);
        assert!(e.eigenvalues[1] >= e.eigenvalues[2]);
        assert!((e.explained_variance(1) - 5.0 / 9.0).abs() < 1e-12);
        assert!((e.explained_variance(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn principal_transform_shape() {
        let a = Matrix::identity(4);
        let e = SymmetricEigen::new(&a).unwrap();
        let t = e.principal_transform(2).unwrap();
        assert_eq!(t.shape(), (2, 4));
        assert!(e.principal_transform(5).is_err());
    }

    #[test]
    fn moderate_size_random_symmetric() {
        // 40x40 symmetric matrix from a deterministic LCG.
        let n = 40;
        let mut state: u64 = 7;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let e = SymmetricEigen::new(&a).unwrap();
        // Check A v = λ v for the extreme pairs.
        for idx in [0, n - 1] {
            let v = e.eigenvectors.row(idx).to_vec();
            let av = a.matvec(&v).unwrap();
            for (p, q) in av.iter().zip(v.iter()) {
                assert!((p - e.eigenvalues[idx] * q).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(
            SymmetricEigen::new(&Matrix::zeros(0, 0)),
            Err(LinAlgError::Empty)
        ));
    }
}
