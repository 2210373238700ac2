//! Layer probes of the traced run: each times one layer's public entry
//! point in isolation, on inputs derived from the workload scene or seed.

use crate::host::timed;
use crate::report::Metrics;
use crate::stats::{median, summarize};
use crate::trace::{Layer, Tracer};
use crate::workload::{run_par, single_thread, Algo, Fingerprint, Fixture, Scale, Tally};
use chaos::{Driver, Oracle, Scenario};
use hetero_hsi::config::RunOptions;
use hetero_hsi::ft::{self, FtError, FtOptions};
use hetero_hsi::sched::{AtdcaChunks, UfclsChunks};
use hetero_hsi::{kernels, seq, ChunkedAlgo, OutputDigest};
use hsi_linalg::lstsq::FclsProblem;
use hsi_linalg::ortho::OrthoBasis;
use hsi_linalg::Matrix;
use hsi_morpho::StructuringElement;
use simnet::{coll, presets, CollAlgorithm, CollOp, Ctx, Engine, RunReport};
use std::hint::black_box;
use std::time::Instant;

fn wide(spectrum: &[f32]) -> Vec<f64> {
    spectrum.iter().map(|&v| v as f64).collect()
}

/// Single-thread throughput of the six hot kernels on the workload
/// scene, with each call's analytic megaflops from `hetero::flops`.
pub fn kernels(fx: &Fixture, scale: &Scale, tracer: &Tracer, m: &mut Metrics) {
    let cube = &fx.scene.cube;
    let full = (0, cube.lines());
    let p = &fx.params;
    // Mid-run state: half the targets found, as in the average round.
    let half = (p.num_targets / 2).max(1);
    let mut basis = OrthoBasis::new(cube.bands());
    for t in fx.atdca.iter().take(half) {
        basis.push(&wide(&t.spectrum));
    }
    let rows: Vec<Vec<f64>> = fx
        .ufcls
        .iter()
        .take(half)
        .map(|t| wide(&t.spectrum))
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let problem =
        FclsProblem::new(Matrix::from_rows(&refs)).expect("UFCLS targets are independent");
    let se = StructuringElement::square(p.se_radius);
    let pct = &fx.pct;
    type Kernel<'k> = Box<dyn Fn() -> f64 + 'k>;
    let probes: [(&str, Kernel); 6] = [
        (
            "projection",
            Box::new(|| black_box(kernels::max_projection(cube, &basis, full)).1),
        ),
        (
            "fcls",
            Box::new(|| black_box(kernels::max_fcls_error(cube, &problem, full)).1),
        ),
        (
            "covariance",
            Box::new(|| black_box(kernels::covariance_partial(cube, full)).1),
        ),
        (
            "pct_label",
            Box::new(|| {
                black_box(kernels::pct_label(
                    cube,
                    full,
                    &pct.transform,
                    &pct.mean,
                    &pct.class_reps,
                ))
                .1
            }),
        ),
        (
            "sad_label",
            Box::new(|| black_box(kernels::sad_label(cube, full, &fx.morph)).1),
        ),
        (
            "mei",
            Box::new(|| {
                black_box(kernels::mei_top(
                    cube,
                    &se,
                    1,
                    full,
                    p.num_classes,
                    p.sad_threshold,
                ))
                .1
            }),
        ),
    ];
    let pool = single_thread();
    let mpix = cube.num_pixels() as f64 / 1e6;
    for (name, kernel) in probes {
        let mut secs = Vec::new();
        let mut mflop = 0.0;
        for _ in 0..scale.kernel_reps {
            let (mf, wall, _) = timed(|| {
                tracer.span(Layer::Kernels, format!("kernels.{name}"), || {
                    pool.install(&kernel)
                })
            });
            secs.push(wall);
            mflop = mf;
        }
        m.push(
            format!("kernels.{name}.mpix_s"),
            mpix / median(&secs),
            "Mpix/s",
        );
        m.push(format!("kernels.{name}.mflop"), mflop, "Mflop");
    }
}

/// Bare `Engine::run` (a no-op program) and `Ctx::send`/`recv`
/// ping-pong between rank 0 and rank P-1 on `thunderhead(P)`.
pub fn engine(scale: &Scale, tracer: &Tracer, m: &mut Metrics, tally: &mut Tally) {
    for (p, n) in scale.spawn {
        let engine = Engine::new(presets::thunderhead(p));
        let mut ms = Vec::new();
        for _ in 0..n {
            tally.attempted += 1;
            let (report, wall, _) = timed(|| {
                tracer.span(Layer::Engine, format!("spawn.p{p}"), || {
                    engine.run(|_ctx: &mut Ctx<u64>| ())
                })
            });
            if !report.failures.is_empty() {
                tally.fail(format!("bare engine p{p}: {:?}", report.failures));
            }
            ms.push(wall * 1e3);
        }
        m.dist(&format!("engine.spawn_ms.p{p}"), None, summarize(&ms), "ms");
    }
    let trips = scale.round_trips;
    let warm = trips / 10 + 1;
    for p in [2, 16, 256] {
        let engine = Engine::new(presets::thunderhead(p));
        let last = p - 1;
        tally.attempted += 1;
        let report = tracer.span(Layer::Engine, format!("msg.p{p}"), || {
            engine.run(move |ctx: &mut Ctx<u64>| {
                let mut half_rtt_us = Vec::new();
                let mut echoed = true;
                if ctx.rank() == 0 {
                    for i in 0..(warm + trips) as u64 {
                        let t0 = Instant::now();
                        ctx.send(last, i);
                        echoed &= ctx.recv(last) == i + 1;
                        if i >= warm as u64 {
                            half_rtt_us.push(t0.elapsed().as_secs_f64() * 1e6 / 2.0);
                        }
                    }
                } else if ctx.rank() == last {
                    for _ in 0..warm + trips {
                        let v = ctx.recv(0);
                        ctx.send(0, v + 1);
                    }
                }
                (half_rtt_us, echoed)
            })
        });
        match report.results.first().and_then(Option::as_ref) {
            Some((us, true)) if report.failures.is_empty() && us.len() == trips => {
                m.dist(&format!("engine.msg_us.p{p}"), None, summarize(us), "us");
            }
            _ => {
                tally.fail(format!("ping-pong p{p}: lost or wrong echo"));
                m.dist(
                    &format!("engine.msg_us.p{p}"),
                    None,
                    summarize(&[0.0]),
                    "us",
                );
            }
        }
    }
}

/// `coll::predict` of a one-spectrum binomial-tree allreduce.
pub fn coll_predict(
    fx: &Fixture,
    scale: &Scale,
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let bits = 32 * fx.scene.cube.bands() as u64;
    for p in [16, 256] {
        let platform = presets::thunderhead(p);
        let latency = platform.msg_latency_s();
        let mut us = Vec::new();
        for _ in 0..scale.predict_calls {
            tally.attempted += 1;
            let (predicted, wall, _) = timed(|| {
                tracer.span(Layer::Coll, format!("predict.p{p}"), || {
                    black_box(coll::predict(
                        &platform,
                        latency,
                        CollOp::Allreduce,
                        CollAlgorithm::BinomialTree,
                        0,
                        bits,
                        1,
                    ))
                })
            });
            if !(predicted.is_finite() && predicted > 0.0) {
                tally.fail(format!("predict p{p} = {predicted}"));
            }
            us.push(wall * 1e6);
        }
        m.dist(&format!("coll.predict_us.p{p}"), None, summarize(&us), "us");
    }
}

/// The same Hetero-ATDCA run with profiling on and off, alternated:
/// reports the ratio of medians and its base, and checks that profiling
/// is a pure observer.
pub fn prof(fx: &Fixture, scale: &Scale, tracer: &Tracer, m: &mut Metrics, tally: &mut Tally) {
    let plain = Engine::new(presets::fully_heterogeneous());
    let profiled = plain.clone().with_profiling(true);
    let options = RunOptions::hetero();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..scale.prof_pairs {
        tally.attempted += 1;
        let ((out_off, rep_off), w_off, _) = timed(|| {
            tracer.span(Layer::Par, "par.atdca", || {
                run_par(Algo::Atdca, &plain, fx, &options)
            })
        });
        let ((out_on, mut rep_on), w_on, _) = timed(|| {
            tracer.span(Layer::Prof, "par.atdca+profile", || {
                run_par(Algo::Atdca, &profiled, fx, &options)
            })
        });
        let had_profile = rep_on.profile.take().is_some();
        if !had_profile || rep_on != rep_off || out_on.digest() != out_off.digest() {
            tally.fail("profiled ATDCA run differs from the unprofiled run".into());
        }
        off.push(w_off);
        on.push(w_on);
    }
    let base = median(&off);
    m.push("prof.overhead_ratio", median(&on) / base, "ratio");
    m.push("prof.base_ms", base * 1e3, "ms");
}

fn drive<A>(
    engine: &Engine,
    algo: &A,
    opts: &FtOptions,
    driver: Driver,
) -> Result<(u64, RunReport<()>, usize), FtError>
where
    A: ChunkedAlgo + Sync,
    A::Output: OutputDigest + Send,
{
    let run = match driver {
        Driver::Replan => ft::try_run_replan(engine, algo, opts)?,
        Driver::SelfSched => ft::try_run_self_sched(engine, algo, opts)?,
    };
    Ok((run.output.digest64(), run.report, run.recoveries.len()))
}

/// Both fault-tolerant drivers on the first ATDCA/UFCLS chaos scenarios
/// from `seed` (their faults, devices and collectives included), two
/// passes. Outputs must equal `seq`; the second pass's simulated state
/// must equal the first's.
pub fn ft(
    seed: u64,
    scale: &Scale,
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Fingerprint {
    let scenarios: Vec<Scenario> = (0u64..)
        .map(|i| Scenario::generate(seed.wrapping_add(i)))
        .filter(|s| matches!(s.algo, chaos::Algo::Atdca | chaos::Algo::Ufcls))
        .take(scale.ft_scenarios)
        .collect();
    let inputs: Vec<_> = scenarios
        .iter()
        .map(|s| {
            let scene = s.scene();
            let params = s.params();
            let reference = match s.algo {
                chaos::Algo::Atdca => seq::atdca(&scene.cube, &params).result.digest64(),
                _ => seq::ufcls(&scene.cube, &params).result.digest64(),
            };
            let engine = Engine::new(s.platform()).with_faults(s.fault_plan());
            (s, scene, params, reference, engine)
        })
        .collect();
    let mut fps = Vec::new();
    let mut ms = [Vec::new(), Vec::new()];
    for _pass in 0..2 {
        let mut fp = Fingerprint::default();
        for (s, scene, params, reference, engine) in &inputs {
            let opts = s.ft_options();
            for (d, driver) in [Driver::Replan, Driver::SelfSched].into_iter().enumerate() {
                tally.attempted += 1;
                let name = if d == 0 { "ft.replan" } else { "ft.self_sched" };
                let (outcome, wall, _) = timed(|| {
                    tracer.span(Layer::Ft, name, || match s.algo {
                        chaos::Algo::Atdca => drive(
                            engine,
                            &AtdcaChunks::new(&scene.cube, params),
                            &opts,
                            driver,
                        ),
                        _ => drive(
                            engine,
                            &UfclsChunks::new(&scene.cube, params),
                            &opts,
                            driver,
                        ),
                    })
                });
                ms[d].push(wall * 1e3);
                match outcome {
                    Ok((digest, report, recoveries)) => {
                        fp.add_report(&report);
                        fp.recoveries += recoveries as u64;
                        if digest != *reference {
                            tally.fail(format!("{name} scenario {}: output != seq", s.seed));
                        }
                    }
                    Err(e) => tally.fail(format!("{name} scenario {}: {e:?}", s.seed)),
                }
            }
        }
        fps.push(fp);
    }
    if fps[0] != fps[1] {
        tally.fail(format!(
            "ft probe simulated state differs across passes: {:?} vs {:?}",
            fps[0], fps[1]
        ));
    }
    m.dist("ft.replan.run_ms", None, summarize(&ms[0]), "ms");
    m.dist("ft.self_sched.run_ms", None, summarize(&ms[1]), "ms");
    fps.swap_remove(0)
}

/// `Scenario::generate` + `Oracle::check` on the scenarios from `seed`.
pub fn chaos(
    seed: u64,
    scale: &Scale,
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Fingerprint {
    let mut fp = Fingerprint::default();
    let mut ms = Vec::new();
    for i in 0..scale.chaos_probe {
        tally.attempted += 1;
        let (verdict, wall, _) = timed(|| {
            tracer.span(Layer::Chaos, "chaos.check", || {
                Oracle::new().check(&Scenario::generate(seed.wrapping_add(i)))
            })
        });
        ms.push(wall * 1e3);
        for (slot, inv) in fp.checks.iter_mut().zip(chaos::Invariant::ALL) {
            *slot += verdict.counts.of(inv);
        }
        fp.skipped += verdict.skipped as u64;
        tally.skipped += verdict.skipped as u64;
        if let Some(v) = verdict.violation {
            tally.fail(format!(
                "chaos probe {}: {} {}",
                seed.wrapping_add(i),
                v.invariant.name(),
                v.detail
            ));
        }
    }
    m.dist("chaos.check_ms", Some("chaos.checks"), summarize(&ms), "ms");
    fp
}

/// Single-thread CPU seconds of `seq::<algo>` on each scenario's scene,
/// grouped by algorithm: the base of `cpu_over_seq` on `chaos`.
pub fn scenario_seq_cpu(seeds: &[u64], tracer: &Tracer) -> [Vec<f64>; 4] {
    let pool = single_thread();
    let mut cpu: [Vec<f64>; 4] = Default::default();
    for &seed in seeds {
        let s = Scenario::generate(seed);
        let scene = s.scene();
        let params = s.params();
        let cube = &scene.cube;
        let algo = Algo::of_scenario(s.algo);
        let ((), _, c) = timed(|| {
            tracer.span(Layer::Seq, format!("seq.{}", algo.key()), || {
                pool.install(|| match algo {
                    Algo::Atdca => drop(black_box(seq::atdca(cube, &params))),
                    Algo::Ufcls => drop(black_box(seq::ufcls(cube, &params))),
                    Algo::Pct => drop(black_box(seq::pct(cube, &params))),
                    Algo::Morph => drop(black_box(seq::morph(cube, &params))),
                })
            })
        });
        cpu[algo.index()].push(c);
    }
    cpu
}
