//! The three workloads: their inputs, the operations of one pass, and
//! the output checks.

use crate::host::timed;
use crate::trace::{Layer, Tracer};
use chaos::{Invariant, Oracle, Scenario};
use hetero_hsi::config::{AlgoParams, RunOptions};
use hetero_hsi::seq::{self, DetectedTarget, PctModel, SeqOutput};
use hetero_hsi::{par, OutputDigest};
use hsi_cube::synth::{wtc_scene, SyntheticScene, WtcConfig};
use hsi_cube::LabelImage;
use simnet::{presets, Engine, RunReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The four algorithms of the paper, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Hetero-ATDCA target detection.
    Atdca,
    /// Hetero-UFCLS target generation.
    Ufcls,
    /// Hetero-PCT classification.
    Pct,
    /// Hetero-MORPH classification.
    Morph,
}

/// All four, in table order.
pub const ALGOS: [Algo; 4] = [Algo::Atdca, Algo::Ufcls, Algo::Pct, Algo::Morph];

impl Algo {
    /// Lower-case metric key.
    pub fn key(self) -> &'static str {
        match self {
            Algo::Atdca => "atdca",
            Algo::Ufcls => "ufcls",
            Algo::Pct => "pct",
            Algo::Morph => "morph",
        }
    }

    /// Position in [`ALGOS`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The chaos scenario algorithm's counterpart.
    pub fn of_scenario(a: chaos::Algo) -> Algo {
        match a {
            chaos::Algo::Atdca => Algo::Atdca,
            chaos::Algo::Ufcls => Algo::Ufcls,
            chaos::Algo::Pct => Algo::Pct,
            chaos::Algo::Morph => Algo::Morph,
        }
    }
}

/// A named workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tables 5–7: 4 algorithms × {Hetero, Homo} × the four 16-node
    /// networks.
    Paper16,
    /// Table 8 / Fig. 2: 4 Hetero algorithms on `thunderhead(P)` for
    /// every P of the sweep, up to 256.
    Thunder256,
    /// The pinned-seed chaos campaign: generate + oracle check.
    Chaos,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Paper16, Workload::Thunder256, Workload::Chaos];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper16 => "paper16",
            Workload::Thunder256 => "thunder256",
            Workload::Chaos => "chaos",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem and sample sizes of one benchmark mode.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Scene lines.
    pub lines: usize,
    /// Scene samples per line.
    pub samples: usize,
    /// Scene bands.
    pub bands: usize,
    /// Algorithm parameters.
    pub params: AlgoParams,
    /// Scenarios in one chaos pass.
    pub chaos_pass: u64,
    /// Set-ups per untraced run (the reported `setup_s` is their median).
    pub setup_repeats: usize,
    /// Repetitions of each single-thread kernel.
    pub kernel_reps: usize,
    /// `(P, samples)` of the bare-engine spawn probe.
    pub spawn: [(usize, usize); 4],
    /// Timed round trips per message probe.
    pub round_trips: usize,
    /// Calls per `coll::predict` probe.
    pub predict_calls: usize,
    /// Profiled/unprofiled run pairs of the profiler probe.
    pub prof_pairs: usize,
    /// ATDCA/UFCLS chaos scenarios the ft probe drives.
    pub ft_scenarios: usize,
    /// Scenarios the chaos probe checks.
    pub chaos_probe: u64,
}

impl Scale {
    /// The benchmark proper: the `tiny` WTC scene (96 × 64 × 224 f32)
    /// with the paper's algorithm parameters.
    pub fn full() -> Scale {
        Scale {
            lines: 96,
            samples: 64,
            bands: WtcConfig::default().bands,
            params: AlgoParams::default(),
            chaos_pass: 1000,
            setup_repeats: 3,
            kernel_reps: 5,
            spawn: [(1, 200), (16, 200), (64, 100), (256, 40)],
            round_trips: 200,
            predict_calls: 200,
            prof_pairs: 5,
            ft_scenarios: 100,
            chaos_probe: 100,
        }
    }

    /// Smoke mode: every workload and probe once, on a small scene.
    pub fn smoke() -> Scale {
        Scale {
            lines: 24,
            samples: 16,
            bands: 32,
            params: AlgoParams {
                num_targets: 4,
                num_classes: 3,
                morph_iterations: 1,
                ..AlgoParams::default()
            },
            chaos_pass: 40,
            setup_repeats: 1,
            kernel_reps: 1,
            spawn: [(1, 2), (16, 2), (64, 2), (256, 2)],
            round_trips: 8,
            predict_calls: 4,
            prof_pairs: 1,
            ft_scenarios: 4,
            chaos_probe: 4,
        }
    }
}

/// Exact simulated state accumulated over a set of runs. Every field is
/// a deterministic function of the inputs, so a change that only speeds
/// the simulator up must leave it bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fingerprint {
    /// Sum of virtual makespans, seconds.
    pub makespan_s: f64,
    /// Sum of root communication time (`decomposition().com`).
    pub com_s: f64,
    /// Sum of parallel-phase time (`decomposition().par`).
    pub par_s: f64,
    /// Bytes deep-copied by collective fan-outs.
    pub bytes_deep_copied: u64,
    /// Collective choices logged.
    pub coll_choices: u64,
    /// Accelerator kernel launches.
    pub offload_launches: u64,
    /// Worker losses recovered by the ft drivers.
    pub recoveries: u64,
    /// Oracle comparisons per invariant, in [`Invariant::ALL`] order.
    pub checks: [u64; 7],
    /// Oracle verdicts that skipped the scenario.
    pub skipped: u64,
}

impl Fingerprint {
    /// Folds one run report in.
    pub fn add_report<R>(&mut self, report: &RunReport<R>) {
        let d = report.decomposition();
        self.makespan_s += report.total_time;
        self.com_s += d.com;
        self.par_s += d.par;
        self.bytes_deep_copied += report.copies.bytes_deep_copied;
        self.coll_choices += report.collectives.len() as u64;
        self.offload_launches += report.offloads.iter().map(|o| o.launches).sum::<u64>();
    }

    /// Folds another fingerprint in.
    pub fn merge(&mut self, other: &Fingerprint) {
        self.makespan_s += other.makespan_s;
        self.com_s += other.com_s;
        self.par_s += other.par_s;
        self.bytes_deep_copied += other.bytes_deep_copied;
        self.coll_choices += other.coll_choices;
        self.offload_launches += other.offload_launches;
        self.recoveries += other.recoveries;
        for (a, b) in self.checks.iter_mut().zip(other.checks) {
            *a += b;
        }
        self.skipped += other.skipped;
    }
}

/// A sequential reference: output digest, target positions for the
/// detectors, and its single-thread cost.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `hetero::digest` of the sequential output.
    pub digest: u64,
    /// Target `(line, sample)` positions (ATDCA and UFCLS only).
    pub positions: Option<Vec<(usize, usize)>>,
    /// Wall seconds of the sequential run.
    pub wall_s: f64,
    /// CPU seconds of the sequential run.
    pub cpu_s: f64,
}

/// Everything set-up builds: the scene, the sequential references and
/// the sequential outputs the kernel probe reuses.
pub struct Fixture {
    /// The seeded WTC scene.
    pub scene: SyntheticScene,
    /// Algorithm parameters.
    pub params: AlgoParams,
    /// Wall seconds of scene synthesis.
    pub scene_s: f64,
    /// One reference per algorithm, in [`ALGOS`] order.
    pub refs: Vec<Reference>,
    /// Sequential ATDCA targets.
    pub atdca: Vec<DetectedTarget>,
    /// Sequential UFCLS targets.
    pub ufcls: Vec<DetectedTarget>,
    /// Sequential PCT model.
    pub pct: PctModel,
    /// Sequential MORPH class spectra.
    pub morph: Vec<Vec<f32>>,
}

fn positions(targets: &[DetectedTarget]) -> Vec<(usize, usize)> {
    targets.iter().map(|t| (t.line, t.sample)).collect()
}

/// A one-thread kernel pool: `seq` and the kernel probe run inside it.
pub fn single_thread() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool")
}

/// Runs one sequential reference on `pool`, timed and traced, and
/// digests its output.
fn reference<T: OutputDigest>(
    tracer: &Tracer,
    pool: &rayon::ThreadPool,
    algo: Algo,
    run: impl FnOnce() -> SeqOutput<T>,
) -> (T, Reference) {
    let name = format!("seq.{}", algo.key());
    let (out, wall_s, cpu_s) = timed(|| tracer.span(Layer::Seq, name, || pool.install(run)));
    let reference = Reference {
        digest: out.result.digest64(),
        positions: None,
        wall_s,
        cpu_s,
    };
    (out.result, reference)
}

impl Fixture {
    /// Synthesises the scene of `seed` and runs the four sequential
    /// references on one thread.
    pub fn build(seed: u64, scale: &Scale, tracer: &Tracer) -> Fixture {
        let config = WtcConfig {
            lines: scale.lines,
            samples: scale.samples,
            bands: scale.bands,
            seed,
            ..WtcConfig::default()
        };
        let (scene, scene_s, _) =
            timed(|| tracer.span(Layer::Hypercube, "wtc_scene", || wtc_scene(config)));
        let cube = &scene.cube;
        let params = scale.params;
        let pool = single_thread();
        let (atdca, mut r_atdca) =
            reference(tracer, &pool, Algo::Atdca, || seq::atdca(cube, &params));
        r_atdca.positions = Some(positions(&atdca));
        let (ufcls, mut r_ufcls) =
            reference(tracer, &pool, Algo::Ufcls, || seq::ufcls(cube, &params));
        r_ufcls.positions = Some(positions(&ufcls));
        let (pct, r_pct) = reference(tracer, &pool, Algo::Pct, || seq::pct(cube, &params));
        let (morph, r_morph) = reference(tracer, &pool, Algo::Morph, || seq::morph(cube, &params));
        let refs = vec![r_atdca, r_ufcls, r_pct, r_morph];
        Fixture {
            scene,
            params,
            scene_s,
            refs,
            atdca,
            ufcls,
            pct: pct.1,
            morph: morph.1,
        }
    }
}

/// One operation of a pass.
pub enum Op {
    /// One `par::<algo>::run` on a prepared engine.
    Par {
        /// Algorithm.
        algo: Algo,
        /// Hetero or Homo partitioning.
        options: RunOptions,
        /// Engine over the operation's platform (default threads per
        /// rank, no faults, no profiling).
        engine: Engine,
        /// `Hetero-ATDCA@fully-heterogeneous` etc.
        label: String,
    },
    /// `Scenario::generate(seed)` followed by `Oracle::check`.
    Check {
        /// Scenario seed.
        seed: u64,
    },
}

/// The operations of one pass of `workload`, in execution order.
pub fn pass_ops(workload: Workload, scale: &Scale, seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    match workload {
        Workload::Paper16 => {
            for algo in ALGOS {
                for (variant, options) in [
                    ("Hetero", RunOptions::hetero()),
                    ("Homo", RunOptions::homo()),
                ] {
                    for net in presets::four_networks() {
                        let label = format!("{variant}-{}@{}", algo.key(), net.name());
                        ops.push(Op::Par {
                            algo,
                            options,
                            engine: Engine::new(net),
                            label,
                        });
                    }
                }
            }
        }
        Workload::Thunder256 => {
            for algo in ALGOS {
                for p in presets::THUNDERHEAD_SWEEP {
                    ops.push(Op::Par {
                        algo,
                        options: RunOptions::hetero(),
                        engine: Engine::new(presets::thunderhead(p)),
                        label: format!("Hetero-{}@thunderhead({p})", algo.key()),
                    });
                }
            }
        }
        Workload::Chaos => {
            for i in 0..scale.chaos_pass {
                ops.push(Op::Check {
                    seed: seed.wrapping_add(i),
                });
            }
        }
    }
    ops
}

/// The root's analysis result of one parallel run.
pub enum Output {
    /// ATDCA/UFCLS targets.
    Targets(Vec<DetectedTarget>),
    /// PCT labels and model.
    Pct((LabelImage, PctModel)),
    /// MORPH labels and class spectra.
    Morph((LabelImage, Vec<Vec<f32>>)),
}

impl Output {
    /// `hetero::digest` of the output.
    pub fn digest(&self) -> u64 {
        match self {
            Output::Targets(t) => t.digest64(),
            Output::Pct(o) => o.digest64(),
            Output::Morph(o) => o.digest64(),
        }
    }
}

/// Runs `par::<algo>::run` once.
pub fn run_par(
    algo: Algo,
    engine: &Engine,
    fx: &Fixture,
    options: &RunOptions,
) -> (Output, RunReport<()>) {
    let cube = &fx.scene.cube;
    let p = &fx.params;
    match algo {
        Algo::Atdca => {
            let run = par::atdca::run(engine, cube, p, options);
            (Output::Targets(run.result), run.report)
        }
        Algo::Ufcls => {
            let run = par::ufcls::run(engine, cube, p, options);
            (Output::Targets(run.result), run.report)
        }
        Algo::Pct => {
            let run = par::pct::run(engine, cube, p, options);
            (Output::Pct(run.result), run.report)
        }
        Algo::Morph => {
            let run = par::morph::run(engine, cube, p, options);
            (Output::Morph(run.result), run.report)
        }
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Algorithm the operation ran (the scenario's, for chaos).
    pub algo: Algo,
    /// Wall seconds.
    pub wall: f64,
    /// Process CPU seconds (the benchmark loop and every rank thread).
    pub cpu: f64,
}

/// Operation counts of a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output or simulated state was wrong.
    pub failed: u64,
    /// Oracle verdicts that skipped their scenario.
    pub skipped: u64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.skipped += other.skipped;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Runs passes of one workload and checks every output.
pub struct Runner<'a> {
    fx: &'a Fixture,
    ops: Vec<Op>,
    /// Digest each PCT/MORPH slot produced first; later passes must match.
    slot_digests: Vec<Option<u64>>,
    first_pass: Option<Fingerprint>,
    /// Per-slot samples, in pass order.
    pub samples: Vec<Vec<Sample>>,
    /// Complete passes run.
    pub passes: usize,
    /// Operations attempted and failed so far.
    pub tally: Tally,
}

impl<'a> Runner<'a> {
    /// A runner over `ops` checked against `fx`, counting into `tally`.
    pub fn new(fx: &'a Fixture, ops: Vec<Op>, tally: Tally) -> Runner<'a> {
        let n = ops.len();
        Runner {
            fx,
            ops,
            slot_digests: vec![None; n],
            first_pass: None,
            samples: vec![Vec::new(); n],
            passes: 0,
            tally,
        }
    }

    /// Gives back the operations and the counts.
    pub fn into_parts(self) -> (Vec<Op>, Tally) {
        (self.ops, self.tally)
    }

    /// Operations in one pass.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Runs slot `i` once, checks it and returns its simulated state.
    pub fn run_slot(&mut self, i: usize, tracer: &Tracer) -> Fingerprint {
        tracer.next_op();
        self.tally.attempted += 1;
        let mut fp = Fingerprint::default();
        match &self.ops[i] {
            Op::Par {
                algo,
                options,
                engine,
                label,
            } => {
                let (algo, fx) = (*algo, self.fx);
                let (outcome, wall, cpu, digest) =
                    tracer.span(Layer::Bench, label.as_str(), || {
                        let (outcome, wall, cpu) = timed(|| {
                            tracer.span(Layer::Par, format!("par.{}", algo.key()), || {
                                catch_unwind(AssertUnwindSafe(|| {
                                    run_par(algo, engine, fx, options)
                                }))
                            })
                        });
                        let digest = tracer.span(Layer::Digest, "digest", || {
                            outcome.as_ref().ok().map(|(out, _)| out.digest())
                        });
                        (outcome, wall, cpu, digest)
                    });
                let label = label.clone();
                self.samples[i].push(Sample { algo, wall, cpu });
                let Ok((output, report)) = outcome else {
                    self.tally.fail(format!("{label}: run panicked"));
                    return fp;
                };
                fp.add_report(&report);
                let digest = digest.expect("digest of a completed run");
                if !report.failures.is_empty() {
                    self.tally.fail(format!(
                        "{label}: fault-free run reported {:?}",
                        report.failures
                    ));
                }
                let reference = &self.fx.refs[algo.index()];
                match (&output, &reference.positions) {
                    (Output::Targets(targets), Some(expected)) => {
                        if positions(targets) != *expected || digest != reference.digest {
                            self.tally.fail(format!("{label}: targets differ from seq"));
                        }
                    }
                    _ => match self.slot_digests[i] {
                        None => self.slot_digests[i] = Some(digest),
                        Some(first) if first != digest => self.tally.fail(format!(
                            "{label}: digest {digest:#x} != first pass {first:#x}"
                        )),
                        Some(_) => {}
                    },
                }
            }
            Op::Check { seed } => {
                let seed = *seed;
                let ((algo, outcome), wall, cpu) =
                    tracer.span(Layer::Bench, format!("scenario {seed}"), || {
                        timed(|| {
                            tracer.span(Layer::Chaos, "chaos.check", || {
                                let scenario = Scenario::generate(seed);
                                let verdict = catch_unwind(|| Oracle::new().check(&scenario));
                                (scenario.algo, verdict)
                            })
                        })
                    });
                self.samples[i].push(Sample {
                    algo: Algo::of_scenario(algo),
                    wall,
                    cpu,
                });
                let Ok(verdict) = outcome else {
                    self.tally.fail(format!("scenario {seed}: oracle panicked"));
                    return fp;
                };
                for (slot, inv) in fp.checks.iter_mut().zip(Invariant::ALL) {
                    *slot = verdict.counts.of(inv);
                }
                if verdict.skipped {
                    fp.skipped = 1;
                    self.tally.skipped += 1;
                }
                if let Some(v) = verdict.violation {
                    self.tally.fail(format!(
                        "scenario {seed}: {} {}",
                        v.invariant.name(),
                        v.detail
                    ));
                }
            }
        }
        fp
    }

    /// Runs one pass. With a `deadline`, stops after the first operation
    /// that ends past it once a full pass exists, and returns `None` for
    /// the cut pass. A complete pass's fingerprint must equal the first's.
    pub fn run_pass(&mut self, tracer: &Tracer, deadline: Option<Instant>) -> Option<Fingerprint> {
        let mut fp = Fingerprint::default();
        for i in 0..self.ops.len() {
            fp.merge(&self.run_slot(i, tracer));
            let late = deadline.is_some_and(|d| Instant::now() >= d);
            if late && self.passes > 0 && i + 1 < self.ops.len() {
                return None;
            }
        }
        self.passes += 1;
        match &self.first_pass {
            None => self.first_pass = Some(fp.clone()),
            Some(first) if *first != fp => self.tally.fail(format!(
                "pass {} simulated state {fp:?} != first {first:?}",
                self.passes
            )),
            Some(_) => {}
        }
        Some(fp)
    }

    /// Seeds of the pass's chaos scenarios (empty for other workloads).
    pub fn scenario_seeds(&self) -> Vec<u64> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Check { seed } => Some(*seed),
                Op::Par { .. } => None,
            })
            .collect()
    }
}
