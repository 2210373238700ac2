//! Output-bit pins: the `hetero::digest` of every sequential reference
//! and of the parallel UFCLS/PCT drivers on two seeded WTC scenes.
//!
//! The solvers behind these outputs (FCLS, the Jacobi eigensolver, the
//! covariance and projection kernels) may be rewritten for speed only if
//! every floating-point operation keeps its value and order. These pins
//! turn any reordering into a failure: a changed digest means a changed
//! output bit somewhere in the pipeline, and a changed `total_time` bit
//! means virtual time moved. The last test pins how PCT treats a cube
//! holding a NaN pixel.

use heterospec::cube::synth::{wtc_scene, SyntheticScene, WtcConfig};
use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::digest::Fnv64;
use heterospec::hetero::{par, seq, OutputDigest};
use heterospec::linalg::lstsq::FclsProblem;
use heterospec::linalg::Matrix;
use heterospec::simnet::engine::Engine;
use heterospec::simnet::presets;

fn scene(lines: usize, samples: usize, bands: usize, seed: u64) -> SyntheticScene {
    wtc_scene(WtcConfig {
        lines,
        samples,
        bands,
        seed,
        ..Default::default()
    })
}

/// `[atdca, ufcls, pct, morph]` digests of the sequential references.
fn seq_digests(s: &SyntheticScene) -> [u64; 4] {
    let p = AlgoParams::default();
    [
        seq::atdca(&s.cube, &p).result.digest64(),
        seq::ufcls(&s.cube, &p).result.digest64(),
        seq::pct(&s.cube, &p).result.digest64(),
        seq::morph(&s.cube, &p).result.digest64(),
    ]
}

#[test]
fn seq_outputs_are_pinned_on_the_full_band_scene() {
    let got = seq_digests(&scene(48, 32, 224, 5));
    assert_eq!(
        got,
        [
            0x92fa_b7a2_67fe_92a8,
            0x408a_c11c_c707_8897,
            0xdcb9_8236_f867_6d4d,
            0x4f6b_49f2_ae02_29d2,
        ],
        "seq::{{atdca,ufcls,pct,morph}} digests moved: {got:#018x?}"
    );
}

#[test]
fn seq_outputs_are_pinned_on_the_small_scene() {
    let got = seq_digests(&scene(24, 16, 32, 1));
    assert_eq!(
        got,
        [
            0xf110_fd73_65cb_f40c,
            0x6041_e12a_ea29_fd00,
            0xce20_deaa_6731_e757,
            0x2554_e56c_1468_c042,
        ],
        "seq::{{atdca,ufcls,pct,morph}} digests moved: {got:#018x?}"
    );
}

/// `(output digest, total_time bits)` of `par::ufcls` and `par::pct` on
/// the fully heterogeneous network under WEA partitioning.
#[test]
fn par_ufcls_and_pct_are_pinned_on_the_heterogeneous_network() {
    let s = scene(48, 32, 224, 5);
    let p = AlgoParams::default();
    let engine = Engine::new(presets::fully_heterogeneous());
    let options = RunOptions::hetero();
    let ufcls = par::ufcls::run(&engine, &s.cube, &p, &options);
    let pct = par::pct::run(&engine, &s.cube, &p, &options);
    let got = [
        (ufcls.result.digest64(), ufcls.report.total_time.to_bits()),
        (pct.result.digest64(), pct.report.total_time.to_bits()),
    ];
    assert_eq!(
        got,
        [
            (0x408a_c11c_c707_8897, 0x3fd3_8176_f2d9_8684),
            (0xec88_52be_5aa8_ea90, 0x4016_e2ce_7824_253c),
        ],
        "par::{{ufcls,pct}} (digest, total_time bits) moved: {got:#018x?}"
    );
}

/// FCLS residual bits of every pixel of the full-band scene against its
/// first eight ATDCA targets. The argmax outputs above hide most
/// last-bit changes in the residual; this pin does not.
#[test]
fn fcls_residuals_are_pinned() {
    let s = scene(48, 32, 224, 5);
    let p = AlgoParams {
        num_targets: 8,
        ..AlgoParams::default()
    };
    let rows: Vec<Vec<f64>> = seq::atdca(&s.cube, &p)
        .result
        .iter()
        .map(|t| t.spectrum.iter().map(|&v| v as f64).collect())
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let problem = FclsProblem::new(Matrix::from_rows(&refs)).unwrap();
    let mut ws = problem.workspace();
    let mut h = Fnv64::default();
    for i in 0..s.cube.num_pixels() {
        let px = s.cube.pixel_flat(i);
        let one = problem.solve_f32(px).unwrap();
        let streamed = problem.residual_f32(px, &mut ws).unwrap();
        assert_eq!(streamed.to_bits(), one.residual_sq.to_bits());
        h.write_f64(one.residual_sq);
        for &a in &one.abundances {
            h.write_f64(a);
        }
    }
    assert_eq!(
        h.finish(),
        0x0be1_6fc7_e800_4304,
        "FCLS digest moved: {:#018x}",
        h.finish()
    );
}

/// A cube holding one NaN pixel makes the covariance non-finite, which
/// the eigensolver rejects with `LinAlgError::NonFinite` before its first
/// sweep; the sequential PCT does not return an error, so it stops with
/// that cause instead of producing NaN output.
#[test]
#[should_panic(expected = "pct: eigen failed: NonFinite")]
fn pct_stops_on_a_non_finite_pixel() {
    let mut s = scene(24, 16, 32, 1);
    s.cube.pixel_mut(3, 5)[7] = f32::NAN;
    seq::pct(&s.cube, &AlgoParams::default());
}
