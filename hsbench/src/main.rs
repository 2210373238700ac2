//! `hsbench` — the host-time benchmark of heterospec.
//!
//! ```text
//! hsbench --workload <paper16|thunder256|chaos> --seed <n> --seconds <s> --trace <0|1>
//!         [--smoke] [--out <dir>]
//! ```
//!
//! A single-threaded closed loop runs one simulated run (or one chaos
//! scenario check) at a time, checks every output, and prints one JSON
//! line as the last line of standard output. With `--trace 0` it reports
//! the end-to-end metrics; with `--trace 1` it runs the layer probes and
//! alternates untraced and traced passes, reporting the per-layer
//! metrics and writing the spans to `<out>/trace-<workload>-<seed>.json`.
//! See `hsbench/README.md`.

mod host;
mod probes;
mod report;
mod stats;
mod trace;
mod workload;

use report::{Metrics, Outcome};
use stats::{median, summarize};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Layer, Tracer};
use workload::{pass_ops, Fixture, Op, Runner, Scale, Tally, Workload, ALGOS};

const USAGE: &str = "usage: hsbench --workload <paper16|thunder256|chaos> --seed <n> \
                     --seconds <s> --trace <0|1> [--smoke] [--out <dir>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut smoke = false;
    let mut out = PathBuf::from("hsbench/out");
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (0.0..=3600.0).contains(&s)) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        out,
    })
}

/// Set-up: scene, sequential references, the pass's operations, and one
/// warm-up operation (checked like any other).
fn setup(args: &Args, scale: &Scale, tracer: &Tracer) -> (Fixture, Vec<Op>, Tally) {
    let fx = Fixture::build(args.seed, scale, tracer);
    let ops = pass_ops(args.workload, scale, args.seed);
    let mut warm = Runner::new(&fx, ops, Tally::default());
    warm.run_slot(0, tracer);
    let (ops, tally) = warm.into_parts();
    (fx, ops, tally)
}

fn finish(tally: Tally, metrics: Metrics) -> Outcome {
    for e in &tally.errors {
        eprintln!("# FAILED: {e}");
    }
    eprintln!(
        "# attempted {} failed {} oracle-skipped {}",
        tally.attempted, tally.failed, tally.skipped
    );
    Outcome {
        correct: tally.failed == 0 && tally.attempted > 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// The end-to-end run: repeated set-ups, then whole passes until
/// `--seconds` have elapsed (at least one pass).
fn untraced(args: &Args, scale: &Scale) -> Outcome {
    let tracer = Tracer::new();
    let mut setup_s = Vec::new();
    let mut tally = Tally::default();
    let mut built = None;
    for _ in 0..scale.setup_repeats {
        drop(built.take());
        let t0 = Instant::now();
        let (fx, ops, warm) = setup(args, scale, &tracer);
        setup_s.push(t0.elapsed().as_secs_f64());
        tally.absorb(warm);
        built = Some((fx, ops));
    }
    let (fx, ops) = built.expect("at least one set-up");
    let mut runner = Runner::new(&fx, ops, tally);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut pass_s = Vec::new();
    // Peak memory after set-up and one pass: a fixed amount of work.
    // Later passes can still raise the peak as the allocator retains
    // freed memory, and how many passes fit in `--seconds` depends on
    // speed, so reading the peak at the end would tie it to speed.
    let mut peak_rss_mb = None;
    loop {
        let t0 = Instant::now();
        if runner.run_pass(&tracer, Some(deadline)).is_none() {
            break;
        }
        pass_s.push(t0.elapsed().as_secs_f64());
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
        if Instant::now() >= deadline {
            break;
        }
    }

    // One pass's cost from per-operation medians: robust to a stray slow
    // operation, and independent of where the deadline cut the last pass.
    let slot_median = |f: fn(&workload::Sample) -> f64| -> f64 {
        runner
            .samples
            .iter()
            .map(|s| median(&s.iter().map(f).collect::<Vec<_>>()))
            .sum()
    };
    let pass_wall = slot_median(|s| s.wall);
    let pass_cpu = slot_median(|s| s.cpu);
    let n = runner.len() as f64;
    let t = &runner.tally;
    let ok_share = 1.0 - t.failed as f64 / t.attempted.max(1) as f64;
    eprintln!(
        "# {} operations per pass; complete passes took {pass_s:?} s; set-ups took {setup_s:?} s",
        runner.len()
    );
    let mut m = Metrics::default();
    m.push("runs_per_s", n / pass_wall * ok_share.max(0.0), "1/s");
    m.push("cpu_s_per_run", pass_cpu / n, "s");
    m.push("peak_rss_mb", peak_rss_mb.expect("one complete pass"), "MB");
    m.push("setup_s", median(&setup_s), "s");
    let (_, tally) = runner.into_parts();
    finish(tally, m)
}

/// The traced run: set-up and layer probes, then pairs of one untraced
/// and one traced pass while the next pair should end within `--seconds`
/// (at least one pair).
fn traced(args: &Args, scale: &Scale) -> Outcome {
    let tracer = Tracer::new();
    tracer.set_enabled(true);
    let mut m = Metrics::default();
    let (fx, ops, mut tally) = tracer.span(Layer::Bench, "setup", || setup(args, scale, &tracer));

    m.push("host.cores", host::cores() as f64, "count");
    m.push("host.llc_mb", host::llc_mb(), "MB");
    m.push(
        "scene.mb",
        fx.scene.cube.size_bytes() as f64 / (1024.0 * 1024.0),
        "MB",
    );
    let threads = simnet::Engine::new(simnet::presets::fully_heterogeneous()).threads_per_rank();
    m.push("engine.threads_per_rank", threads as f64, "count");
    m.push("hypercube.scene_s", fx.scene_s, "s");
    for algo in ALGOS {
        let r = &fx.refs[algo.index()];
        m.push(format!("seq.{}.s", algo.key()), r.wall_s, "s");
        m.push(format!("seq.{}.cpu_s", algo.key()), r.cpu_s, "s");
    }

    probes::kernels(&fx, scale, &tracer, &mut m);
    probes::engine(scale, &tracer, &mut m, &mut tally);
    probes::coll_predict(&fx, scale, &tracer, &mut m, &mut tally);
    probes::prof(&fx, scale, &tracer, &mut m, &mut tally);
    let mut fp = probes::ft(args.seed, scale, &tracer, &mut m, &mut tally);
    fp.merge(&probes::chaos(
        args.seed, scale, &tracer, &mut m, &mut tally,
    ));

    // Untraced/traced pairs of passes, so drift in host speed hits both
    // sides alike; a pair starts only if it should end by the deadline.
    let mut runner = Runner::new(&fx, ops, tally);
    let start = Instant::now();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    while plain.is_empty()
        || start.elapsed().as_secs_f64() * (1.0 + 1.0 / plain.len() as f64) <= args.seconds
    {
        for on in [false, true] {
            tracer.set_enabled(on);
            let t0 = Instant::now();
            let pass = runner
                .run_pass(&tracer, None)
                .expect("a pass without deadline completes");
            let secs = t0.elapsed().as_secs_f64();
            if on {
                spanned.push(secs);
            } else {
                if plain.is_empty() {
                    fp.merge(&pass);
                }
                plain.push(secs);
            }
        }
    }
    tracer.set_enabled(true);
    let base = median(&plain);
    m.push("trace.overhead_ratio", median(&spanned) / base, "ratio");
    m.push("trace.base_s", base, "s");

    // par.<algo>: every operation of the passes, by algorithm. The CPU
    // base is the sequential run of the same algorithm on the same input:
    // the workload scene, or on `chaos` each scenario's own scene.
    let seq_cpu: [f64; 4] = match args.workload {
        Workload::Chaos => {
            probes::scenario_seq_cpu(&runner.scenario_seeds(), &tracer).map(|v| median(&v))
        }
        _ => ALGOS.map(|a| fx.refs[a.index()].cpu_s),
    };
    for algo in ALGOS {
        let samples: Vec<&workload::Sample> = runner
            .samples
            .iter()
            .flatten()
            .filter(|s| s.algo == algo)
            .collect();
        let ms: Vec<f64> = samples.iter().map(|s| s.wall * 1e3).collect();
        let cpu: Vec<f64> = samples.iter().map(|s| s.cpu).collect();
        let key = algo.key();
        m.dist(&format!("par.{key}.run_ms"), None, summarize(&ms), "ms");
        m.push(
            format!("par.{key}.cpu_over_seq"),
            median(&cpu) / seq_cpu[algo.index()],
            "ratio",
        );
    }

    let spans = tracer.spans();
    let self_ns = trace::self_ns(&spans);
    for layer in Layer::ALL {
        let ns = self_ns.get(&layer).copied().unwrap_or(0);
        m.push(format!("self_s.{}", layer.name()), ns as f64 * 1e-9, "s");
    }

    m.push("virtual.makespan_s", fp.makespan_s, "virtual_s");
    m.push("virtual.com_s", fp.com_s, "virtual_s");
    m.push("virtual.par_s", fp.par_s, "virtual_s");
    m.push("copies.bytes_deep_copied", fp.bytes_deep_copied as f64, "B");
    m.push("coll.choices", fp.coll_choices as f64, "count");
    m.push("offload.launches", fp.offload_launches as f64, "count");
    m.push("ft.recoveries", fp.recoveries as f64, "count");
    for (inv, n) in chaos::Invariant::ALL.iter().zip(fp.checks) {
        m.push(format!("chaos.checks.{}", inv.name()), n as f64, "count");
    }
    m.push("chaos.skipped", fp.skipped as f64, "count");
    eprintln!("# simulated-state fingerprint: {fp:?}");
    eprintln!(
        "# {} passes ({} untraced, {} traced), {} spans",
        runner.passes,
        plain.len(),
        spanned.len(),
        spans.len()
    );

    let path = args
        .out
        .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace(&spans)))
    {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", path.display()),
    }
    let (_, tally) = runner.into_parts();
    finish(tally, m)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hsbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let outcome = if args.trace {
        traced(&args, &scale)
    } else {
        untraced(&args, &scale)
    };
    println!("{}", outcome.to_json());
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload thunder256 --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.smoke),
            (Workload::Thunder256, 7, 20.0, true, false)
        );
        assert!(parse("--workload thunder256 --seed 7 --seconds 20").is_err());
        assert!(parse("--workload nope --seed 7 --seconds 20 --trace 0").is_err());
        assert!(parse("--workload chaos --seed 7 --seconds -1 --trace 0").is_err());
        assert!(parse("--workload chaos --seed 7 --seconds 1 --trace 2").is_err());
    }
}
