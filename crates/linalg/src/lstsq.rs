//! Least-squares abundance estimation (linear spectral unmixing).
//!
//! Given an endmember matrix `U` (`t × N`, one spectral signature per row)
//! and a pixel `x` (length `N`), linear unmixing estimates abundances `a`
//! (length `t`) with `x ≈ Uᵀ a`. Four estimators are provided, exactly the
//! ladder used in the hyperspectral literature (Heinz & Chang 2001) and by
//! the paper's UFCLS algorithm:
//!
//! * [`ls`] — unconstrained least squares,
//! * [`scls`] — sum-to-one constrained (`Σ aᵢ = 1`),
//! * [`nnls`] — non-negativity constrained (Lawson–Hanson active set),
//! * [`fcls`] — fully constrained (both), via the Heinz–Chang augmented
//!   system solved with NNLS.
//!
//! All solvers work on the *Gram side*: `UUᵀ` (`t × t`) and `U x`
//! (`t`-vector) are formed once, so per-pixel cost after the `O(tN)`
//! products is independent of `N` — crucial when unmixing a million pixels.

use crate::cholesky::CholeskyDecomposition;
use crate::error::shape_mismatch;
use crate::lu::LuDecomposition;
use crate::matrix::dot;
use crate::{LinAlgError, Matrix, Result};

/// Weight of the sum-to-one row in the Heinz–Chang FCLS augmentation.
/// Larger values enforce the constraint more strictly at some cost in
/// conditioning; `1e3` relative to unit-scaled reflectances is the
/// customary compromise.
pub const FCLS_DELTA: f64 = 1.0e3;

/// Iteration budget for the NNLS active-set loop (far above what `t ≤ 32`
/// endmembers can need; prevents pathological cycling).
const NNLS_MAX_ITER: usize = 512;

/// Result of an unmixing call: abundances plus the squared residual
/// `‖x − Uᵀa‖²`, which is the per-pixel "error image" score UFCLS ranks by.
#[derive(Debug, Clone, PartialEq)]
pub struct Unmixing {
    /// Estimated abundance of each endmember (row of `U`).
    pub abundances: Vec<f64>,
    /// Squared reconstruction error `‖x − Uᵀa‖²`.
    pub residual_sq: f64,
}

fn check_dims(u: &Matrix, x: &[f64]) -> Result<()> {
    u.require_non_empty()?;
    if x.len() != u.cols() {
        return Err(shape_mismatch(
            format!("pixel of length {}", u.cols()),
            format!("length {}", x.len()),
        ));
    }
    Ok(())
}

/// `‖x − Uᵀa‖²`, accumulated in `r` (reused scratch) without building Uᵀ.
fn residual_sq(u: &Matrix, x: &[f64], a: &[f64], r: &mut Vec<f64>) -> f64 {
    r.clear();
    r.extend_from_slice(x);
    for (i, &ai) in a.iter().enumerate() {
        if ai != 0.0 {
            crate::matrix::axpy(-ai, u.row(i), r);
        }
    }
    dot(r, r)
}

/// Unconstrained least squares: `a = (UUᵀ)⁻¹ U x`.
pub fn ls(u: &Matrix, x: &[f64]) -> Result<Unmixing> {
    check_dims(u, x)?;
    let gram = u.matmul(&u.transpose())?;
    let rhs = u.matvec(x)?;
    let a = match CholeskyDecomposition::new(&gram) {
        Ok(ch) => ch.solve(&rhs)?,
        // Rank-deficient Gram: fall back to LU (caller may have duplicated
        // endmembers); if that is singular too, propagate the error.
        Err(_) => LuDecomposition::new(&gram)?.solve(&rhs)?,
    };
    let r = residual_sq(u, x, &a, &mut Vec::new());
    Ok(Unmixing {
        abundances: a,
        residual_sq: r,
    })
}

/// Sum-to-one constrained least squares (SCLS) via the closed-form Lagrange
/// correction:
/// `a = a_ls − (UUᵀ)⁻¹ 1 · (1ᵀ a_ls − 1) / (1ᵀ (UUᵀ)⁻¹ 1)`.
pub fn scls(u: &Matrix, x: &[f64]) -> Result<Unmixing> {
    check_dims(u, x)?;
    let t = u.rows();
    let gram = u.matmul(&u.transpose())?;
    let rhs = u.matvec(x)?;
    let ch = CholeskyDecomposition::new(&gram).map_err(|_| LinAlgError::Singular)?;
    let a_ls = ch.solve(&rhs)?;
    let ones = vec![1.0; t];
    let g_inv_ones = ch.solve(&ones)?;
    let denom = dot(&ones, &g_inv_ones);
    if denom.abs() < 1e-300 {
        return Err(LinAlgError::Singular);
    }
    let excess = (a_ls.iter().sum::<f64>() - 1.0) / denom;
    let a: Vec<f64> = a_ls
        .iter()
        .zip(&g_inv_ones)
        .map(|(ai, gi)| ai - excess * gi)
        .collect();
    let r = residual_sq(u, x, &a, &mut Vec::new());
    Ok(Unmixing {
        abundances: a,
        residual_sq: r,
    })
}

/// Reusable scratch of the NNLS core: every per-pixel buffer of an
/// unmixing (widened pixel, correlation vector, abundances, gradient,
/// passive set, Cholesky factor, subsystem solution, residual).
/// Unmixing a stream of pixels through one workspace performs no heap
/// allocation after the first pixel, apart from the LU fallback for a
/// passive subsystem that is not positive definite.
///
/// A workspace is plain scratch: it carries no result from one pixel to
/// the next, so any workspace gives bit-identical results. Build one per
/// thread (or per chunk of a parallel scan) with
/// [`FclsProblem::workspace`] and pass it to [`FclsProblem::residual_f32`].
#[derive(Debug, Clone, Default)]
pub struct NnlsWorkspace {
    /// The pixel widened to `f64`.
    pixel: Vec<f64>,
    core: NnlsScratch,
}

/// The buffers [`nnls_gram`] and the residual work in.
#[derive(Debug, Clone, Default)]
struct NnlsScratch {
    /// Correlation vector `c` (input of [`nnls_gram`]).
    c: Vec<f64>,
    /// Abundances (output of [`nnls_gram`]).
    a: Vec<f64>,
    /// Gradient `w = c − G a`.
    w: Vec<f64>,
    /// Passive-set membership.
    passive: Vec<bool>,
    /// Passive indices in ascending order.
    idx: Vec<usize>,
    /// Cholesky factor of the passive subsystem.
    chol: CholeskyDecomposition,
    /// Solution of the passive subsystem.
    z: Vec<f64>,
    /// Residual vector `x − Uᵀa`.
    r: Vec<f64>,
}

/// Non-negative least squares by the Lawson–Hanson active-set method,
/// operating on the precomputed Gram matrix `G = UUᵀ` and the correlation
/// vector `s.c = Ux`; the abundances are left in `s.a`.
fn nnls_gram(g: &Matrix, s: &mut NnlsScratch) -> Result<()> {
    let NnlsScratch {
        c,
        a,
        w,
        passive,
        idx,
        chol,
        z,
        ..
    } = s;
    let t = c.len();
    a.clear();
    a.resize(t, 0.0);
    passive.clear();
    passive.resize(t, false);
    w.resize(t, 0.0);

    for _iter in 0..NNLS_MAX_ITER {
        // Gradient of ½‖x − Uᵀa‖² is w = c − G a (restricted to active set).
        for (j, wj) in w.iter_mut().enumerate() {
            *wj = c[j] - dot(g.row(j), a);
        }

        // Pick the most violated active constraint.
        let mut best: Option<(usize, f64)> = None;
        for j in 0..t {
            if !passive[j] && w[j] > 1e-12 {
                match best {
                    Some((_, val)) if w[j] <= val => {}
                    _ => best = Some((j, w[j])),
                }
            }
        }
        let Some((j_star, _)) = best else {
            // KKT satisfied: done.
            return Ok(());
        };
        passive[j_star] = true;

        // Inner loop: solve the unconstrained problem on the passive set;
        // if any passive coefficient goes non-positive, step back to the
        // boundary and shrink the passive set.
        loop {
            idx.clear();
            idx.extend((0..t).filter(|&j| passive[j]));
            solve_passive(g, c, idx, chol, z)?;
            if z.iter().all(|&v| v > 0.0) {
                for (r, &jr) in idx.iter().enumerate() {
                    a[jr] = z[r];
                }
                for j in 0..t {
                    if !passive[j] {
                        a[j] = 0.0;
                    }
                }
                break;
            }
            // Line search toward z, stopping at the first zero crossing.
            let mut alpha = f64::INFINITY;
            for (r, &jr) in idx.iter().enumerate() {
                if z[r] <= 0.0 {
                    let denom = a[jr] - z[r];
                    if denom > 0.0 {
                        alpha = alpha.min(a[jr] / denom);
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (r, &jr) in idx.iter().enumerate() {
                a[jr] += alpha * (z[r] - a[jr]);
            }
            for &jr in idx.iter() {
                if a[jr] <= 1e-14 {
                    a[jr] = 0.0;
                    passive[jr] = false;
                }
            }
        }
    }
    Err(LinAlgError::NoConvergence {
        iterations: NNLS_MAX_ITER,
    })
}

/// Solves the passive subsystem `G[idx, idx] · z = c[idx]` into `z`,
/// factoring it in `chol`'s reused storage. A subsystem that is not
/// positive definite (or empty) goes to LU, which allocates.
fn solve_passive(
    g: &Matrix,
    c: &[f64],
    idx: &[usize],
    chol: &mut CholeskyDecomposition,
    z: &mut Vec<f64>,
) -> Result<()> {
    let k = idx.len();
    if k == 0 || !chol.factor(g, idx) {
        let mut sub = Matrix::zeros(k, k);
        for (r, &jr) in idx.iter().enumerate() {
            for (s, &js) in idx.iter().enumerate() {
                sub[(r, s)] = g[(jr, js)];
            }
        }
        let sub_c: Vec<f64> = idx.iter().map(|&j| c[j]).collect();
        *z = LuDecomposition::new(&sub)?.solve(&sub_c)?;
        return Ok(());
    }
    z.clear();
    z.extend(idx.iter().map(|&j| c[j]));
    chol.solve_in_place(z);
    Ok(())
}

/// Non-negativity constrained least squares (`aᵢ ≥ 0`).
pub fn nnls(u: &Matrix, x: &[f64]) -> Result<Unmixing> {
    check_dims(u, x)?;
    let gram = u.matmul(&u.transpose())?;
    let mut s = NnlsScratch {
        c: u.matvec(x)?,
        ..Default::default()
    };
    nnls_gram(&gram, &mut s)?;
    let r = residual_sq(u, x, &s.a, &mut s.r);
    Ok(Unmixing {
        abundances: s.a,
        residual_sq: r,
    })
}

/// Fully constrained least squares (`aᵢ ≥ 0`, `Σ aᵢ = 1`) via the
/// Heinz–Chang augmentation: append a row of `δ`s to the design matrix and
/// a `δ` to the pixel, then solve with NNLS. The residual reported is with
/// respect to the **original** (unaugmented) system, as UFCLS requires.
///
/// ```
/// use hsi_linalg::{Matrix, lstsq::fcls};
/// let u = Matrix::from_rows(&[&[1.0, 0.0, 0.2], &[0.0, 1.0, 0.2]]);
/// // A 30/70 mixture of the two endmembers.
/// let x = [0.3, 0.7, 0.2];
/// let r = fcls(&u, &x).unwrap();
/// assert!((r.abundances[0] - 0.3).abs() < 1e-3);
/// assert!((r.abundances.iter().sum::<f64>() - 1.0).abs() < 1e-3);
/// ```
pub fn fcls(u: &Matrix, x: &[f64]) -> Result<Unmixing> {
    fcls_with_delta(u, x, FCLS_DELTA)
}

/// [`fcls`] with an explicit constraint weight `δ` (exposed for ablation).
pub fn fcls_with_delta(u: &Matrix, x: &[f64], delta: f64) -> Result<Unmixing> {
    FclsProblem::with_delta(u.clone(), delta)?.solve(x)
}

/// A prepared FCLS problem for unmixing **many** pixels against the same
/// endmember set: the augmented Gram matrix is computed once, so the
/// per-pixel cost drops to the correlation vector plus the NNLS solve.
/// This is how UFCLS processes a million-pixel image: one
/// [`NnlsWorkspace`] per scan, [`FclsProblem::residual_f32`] per pixel.
#[derive(Debug, Clone)]
pub struct FclsProblem {
    u: Matrix,
    gram_aug: Matrix,
    delta: f64,
}

impl FclsProblem {
    /// Prepares the problem for endmember matrix `u` (rows = signatures)
    /// with the default constraint weight.
    pub fn new(u: Matrix) -> Result<Self> {
        Self::with_delta(u, FCLS_DELTA)
    }

    /// Prepares the problem with an explicit constraint weight `δ`.
    pub fn with_delta(u: Matrix, delta: f64) -> Result<Self> {
        u.require_non_empty()?;
        let t = u.rows();
        // Augmented design: each endmember row gains a trailing δ; the
        // pixel gains a trailing δ. Gram/correlation are formed directly
        // to avoid materialising the augmented matrix.
        let mut gram_aug = u.matmul(&u.transpose())?;
        for i in 0..t {
            for j in 0..t {
                gram_aug[(i, j)] += delta * delta;
            }
        }
        Ok(FclsProblem { u, gram_aug, delta })
    }

    /// Number of endmembers.
    pub fn num_endmembers(&self) -> usize {
        self.u.rows()
    }

    /// Number of spectral bands.
    pub fn bands(&self) -> usize {
        self.u.cols()
    }

    /// A workspace with its buffers pre-sized for this problem (the
    /// Cholesky factor's storage grows to size over the first pixels).
    pub fn workspace(&self) -> NnlsWorkspace {
        let (t, n) = (self.num_endmembers(), self.bands());
        NnlsWorkspace {
            pixel: Vec::with_capacity(n),
            core: NnlsScratch {
                c: Vec::with_capacity(t),
                a: Vec::with_capacity(t),
                w: Vec::with_capacity(t),
                passive: Vec::with_capacity(t),
                idx: Vec::with_capacity(t),
                chol: CholeskyDecomposition::default(),
                z: Vec::with_capacity(t),
                r: Vec::with_capacity(n),
            },
        }
    }

    /// Unmixes `x` in `s`, leaving the abundances in `s.a` and returning
    /// the unaugmented squared residual.
    fn unmix(&self, x: &[f64], s: &mut NnlsScratch) -> Result<f64> {
        check_dims(&self.u, x)?;
        let shift = self.delta * self.delta;
        s.c.clear();
        s.c.extend((0..self.u.rows()).map(|i| dot(self.u.row(i), x) + shift));
        nnls_gram(&self.gram_aug, s)?;
        Ok(residual_sq(&self.u, x, &s.a, &mut s.r))
    }

    /// Unmixes one pixel, returning abundances and the unaugmented
    /// squared residual.
    pub fn solve(&self, x: &[f64]) -> Result<Unmixing> {
        let mut s = self.workspace().core;
        let r = self.unmix(x, &mut s)?;
        Ok(Unmixing {
            abundances: s.a,
            residual_sq: r,
        })
    }

    /// Unmixes an `f32` pixel (the native cube type), widening to `f64`.
    pub fn solve_f32(&self, x: &[f32]) -> Result<Unmixing> {
        let mut ws = self.workspace();
        let r = self.residual_f32(x, &mut ws)?;
        Ok(Unmixing {
            abundances: ws.core.a,
            residual_sq: r,
        })
    }

    /// The unaugmented squared residual of one `f32` pixel — the UFCLS
    /// error-image score — computed in `ws` without allocating. Equal
    /// bit for bit to `solve_f32(x)?.residual_sq`.
    pub fn residual_f32(&self, x: &[f32], ws: &mut NnlsWorkspace) -> Result<f64> {
        let NnlsWorkspace { pixel, core } = ws;
        pixel.clear();
        pixel.extend(x.iter().map(|&v| v as f64));
        self.unmix(pixel, core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated endmembers over 5 bands.
    fn endmembers() -> Matrix {
        Matrix::from_rows(&[&[1.0, 0.8, 0.6, 0.4, 0.2], &[0.1, 0.3, 0.5, 0.7, 0.9]])
    }

    fn mix(u: &Matrix, a: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; u.cols()];
        for (i, &ai) in a.iter().enumerate() {
            crate::matrix::axpy(ai, u.row(i), &mut x);
        }
        x
    }

    #[test]
    fn ls_recovers_exact_mixture() {
        let u = endmembers();
        let x = mix(&u, &[0.3, 0.7]);
        let r = ls(&u, &x).unwrap();
        assert!((r.abundances[0] - 0.3).abs() < 1e-10);
        assert!((r.abundances[1] - 0.7).abs() < 1e-10);
        assert!(r.residual_sq < 1e-18);
    }

    #[test]
    fn scls_enforces_sum_to_one() {
        let u = endmembers();
        // A pixel that is NOT a unit-sum mixture.
        let x = mix(&u, &[0.5, 0.9]);
        let r = scls(&u, &x).unwrap();
        let sum: f64 = r.abundances.iter().sum();
        assert!((sum - 1.0).abs() < 1e-10, "sum = {sum}");
    }

    #[test]
    fn nnls_clamps_negative_components() {
        let u = endmembers();
        // Pixel close to endmember 0 minus some of endmember 1: the
        // unconstrained solution has a negative abundance.
        let x: Vec<f64> = u
            .row(0)
            .iter()
            .zip(u.row(1))
            .map(|(a, b)| a - 0.2 * b)
            .collect();
        let unc = ls(&u, &x).unwrap();
        assert!(unc.abundances[1] < 0.0);
        let r = nnls(&u, &x).unwrap();
        assert!(r.abundances.iter().all(|&v| v >= 0.0));
        // NNLS residual can't beat the unconstrained one.
        assert!(r.residual_sq >= unc.residual_sq - 1e-12);
    }

    #[test]
    fn nnls_matches_ls_when_interior() {
        let u = endmembers();
        let x = mix(&u, &[0.4, 0.5]);
        let r_ls = ls(&u, &x).unwrap();
        let r_nn = nnls(&u, &x).unwrap();
        for (p, q) in r_ls.abundances.iter().zip(&r_nn.abundances) {
            assert!((p - q).abs() < 1e-8);
        }
    }

    #[test]
    fn fcls_satisfies_both_constraints() {
        let u = endmembers();
        let x = mix(&u, &[0.25, 0.75]);
        let r = fcls(&u, &x).unwrap();
        let sum: f64 = r.abundances.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum = {sum}");
        assert!(r.abundances.iter().all(|&v| v >= 0.0));
        assert!((r.abundances[0] - 0.25).abs() < 1e-3);
        assert!((r.abundances[1] - 0.75).abs() < 1e-3);
    }

    #[test]
    fn fcls_residual_grows_with_unmodelled_signal() {
        let u = endmembers();
        let pure = mix(&u, &[0.5, 0.5]);
        let r_pure = fcls(&u, &pure).unwrap();
        // Add a signature orthogonal-ish to both endmembers.
        let anomalous: Vec<f64> = pure
            .iter()
            .enumerate()
            .map(|(i, v)| v + if i == 2 { 1.5 } else { 0.0 })
            .collect();
        let r_anom = fcls(&u, &anomalous).unwrap();
        assert!(
            r_anom.residual_sq > r_pure.residual_sq + 0.1,
            "anomalous pixel must score higher: {} vs {}",
            r_anom.residual_sq,
            r_pure.residual_sq
        );
    }

    #[test]
    fn single_endmember_fcls() {
        let u = Matrix::from_rows(&[&[0.5, 0.5, 0.5]]);
        let x = [0.5, 0.5, 0.5];
        let r = fcls(&u, &x).unwrap();
        assert!((r.abundances[0] - 1.0).abs() < 1e-6);
        assert!(r.residual_sq < 1e-10);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let u = endmembers();
        assert!(ls(&u, &[1.0, 2.0]).is_err());
        assert!(fcls(&u, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn fcls_problem_matches_one_shot_fcls() {
        let u = endmembers();
        let prob = FclsProblem::new(u.clone()).unwrap();
        // (abundance bits, residual bits), pinned from the allocating
        // implementation this workspace core replaced: both entry points
        // must still produce exactly these.
        let pinned: [([u64; 2], u64); 3] = [
            ([0x3fc99999997a91d7, 0x3fe9999999a15b8a], 0x3bb8d302b7145800),
            ([0x3fecccccccbd48ec, 0x3fb999999a15b8a7], 0x3bd8d302ed61ca74),
            ([0x3fe0000000000001, 0x3fdffffffffffffe], 0x3960000000000000),
        ];
        for (a, want) in [[0.2, 0.8], [0.9, 0.1], [0.5, 0.5]].iter().zip(pinned) {
            let x = mix(&u, a);
            let bits = |r: &Unmixing| {
                let a: Vec<u64> = r.abundances.iter().map(|v| v.to_bits()).collect();
                (a, r.residual_sq.to_bits())
            };
            let want = (want.0.to_vec(), want.1);
            assert_eq!(bits(&fcls(&u, &x).unwrap()), want);
            assert_eq!(bits(&prob.solve(&x).unwrap()), want);
        }
    }

    #[test]
    fn workspace_residual_matches_solve_f32_bitwise() {
        let u = Matrix::from_rows(&[
            &[1.0, 0.8, 0.6, 0.4, 0.2],
            &[0.1, 0.3, 0.5, 0.7, 0.9],
            &[0.5, 0.1, 0.9, 0.2, 0.4],
        ]);
        let prob = FclsProblem::new(u.clone()).unwrap();
        // A default workspace is as good as a pre-sized one, and carrying
        // one across pixels (and across problems) changes no bit.
        let mut ws = NnlsWorkspace::default();
        let small = FclsProblem::new(endmembers()).unwrap();
        for a in [
            [0.2, 0.3, 0.5],
            [1.2, -0.4, 0.1],
            [0.0, 0.0, 1.0],
            [3.0, 2.0, 1.0],
        ] {
            let x: Vec<f32> = mix(&u, &a).iter().map(|&v| v as f32).collect();
            let want = prob.solve_f32(&x).unwrap().residual_sq;
            let got = prob.residual_f32(&x, &mut ws).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
            let want_small = small.solve_f32(&x).unwrap().residual_sq;
            let got_small = small.residual_f32(&x, &mut ws).unwrap();
            assert_eq!(got_small.to_bits(), want_small.to_bits());
        }
        assert!(prob.residual_f32(&[0.5; 4], &mut ws).is_err());
    }

    #[test]
    fn fcls_problem_f32_entry_point() {
        let u = endmembers();
        let prob = FclsProblem::new(u.clone()).unwrap();
        let x64 = mix(&u, &[0.3, 0.7]);
        let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
        let r = prob.solve_f32(&x32).unwrap();
        assert!((r.abundances[0] - 0.3).abs() < 1e-3);
    }

    #[test]
    fn three_endmember_fcls_on_vertex() {
        let u = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 0.2],
            &[0.0, 1.0, 0.0, 0.2],
            &[0.0, 0.0, 1.0, 0.2],
        ]);
        // Pixel exactly equal to endmember 2.
        let x = [0.0, 0.0, 1.0, 0.2];
        let r = fcls(&u, &x).unwrap();
        assert!(r.abundances[2] > 0.99);
        assert!(r.abundances[0] < 0.01 && r.abundances[1] < 0.01);
    }
}
