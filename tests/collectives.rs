//! Integration suite for `simnet::coll`: every collective algorithm
//! must be **payload-identical** to the linear baseline on any platform
//! and any rank count, deterministic across reruns (reports compare
//! bit-identically, the recorded algorithm choices included), and
//! well-behaved under link-fault plans. The `Auto` selector must never
//! pick a strictly-dominated algorithm on the mini-grid swept here
//! (the full grid is the `ablation_collectives` gate).

use heterospec::simnet::engine::{Engine, WireVec};
use heterospec::simnet::{
    coll, presets, CollAlgorithm, CollectiveConfig, FaultPlan, GatherEntry, Membership, Platform,
};
use testutil::{random_platform as platform, BACKENDS, RANK_COUNTS};

/// Broadcast + gather + reduce under `backend`, returning every rank's
/// received broadcast payload, the root's gathered entries, and the
/// root's reduce result. One wire type (`WireVec<u32>`) for all three,
/// since a `Ctx` is monomorphic per run.
type Exchange = (Vec<Vec<u32>>, Vec<u32>, u32);

fn exchange(platform: &Platform, backend: CollAlgorithm) -> Exchange {
    let cfg = CollectiveConfig::uniform(backend);
    let engine = Engine::new(platform.clone());
    let payload: Vec<u32> = (0..300).collect();
    let all = Membership::new(platform.num_procs());
    let report = engine.run(|ctx| {
        let msg = if ctx.is_root() {
            Some(WireVec(payload.clone()))
        } else {
            None
        };
        let bcast = coll::broadcast(ctx, &cfg, 0, &all, msg, (300 * 32) as u64)
            .expect("valid broadcast")
            .0;
        let tag = WireVec(vec![ctx.rank() as u32 + 10]);
        let entries = coll::gather(ctx, &cfg, 0, &all, tag, 32).expect("valid gather");
        let gathered = entries.map(|entries| {
            entries
                .into_iter()
                .map(|e| e.into_msg().expect("healthy run").0[0])
                .collect::<Vec<u32>>()
        });
        // Commutative + associative fold: hierarchical trees regroup
        // and (with interleaved segments) reorder the combination.
        let own = WireVec(vec![ctx.rank() as u32 + 1]);
        let reduced = coll::reduce(
            ctx,
            &cfg,
            0,
            &all,
            own,
            |a, b| WireVec(vec![a.0[0].wrapping_add(b.0[0])]),
            32,
        )
        .expect("valid reduce")
        .map(|v| v.0[0]);
        (bcast, gathered, reduced)
    });
    let p = platform.num_procs();
    let bcasts: Vec<Vec<u32>> = (0..p).map(|r| report.result(r).0.clone()).collect();
    let (_, gathered, reduced) = report.result(0);
    (
        bcasts,
        gathered.clone().expect("root gathers"),
        reduced.expect("root reduces"),
    )
}

#[test]
fn every_backend_is_payload_identical_to_linear_across_rank_counts() {
    for p in RANK_COUNTS {
        let platform = platform(p);
        let baseline = exchange(&platform, CollAlgorithm::Linear);
        assert_eq!(
            baseline.1,
            (0..p as u32).map(|r| r + 10).collect::<Vec<_>>()
        );
        for backend in BACKENDS {
            let out = exchange(&platform, backend);
            assert_eq!(out, baseline, "{backend} differs from linear at p={p}");
        }
    }
}

#[test]
fn every_backend_is_payload_identical_on_the_paper_networks() {
    for network in presets::four_networks() {
        let baseline = exchange(&network, CollAlgorithm::Linear);
        for backend in BACKENDS {
            let out = exchange(&network, backend);
            assert_eq!(
                out,
                baseline,
                "{backend} differs from linear on {}",
                network.name()
            );
        }
    }
}

#[test]
fn reruns_are_bit_identical_including_choice_log() {
    let run_once = |backend: CollAlgorithm| {
        let cfg = CollectiveConfig::uniform(backend);
        let engine = Engine::new(presets::fully_heterogeneous());
        let all = Membership::new(16);
        engine.run(|ctx| {
            let msg = if ctx.is_root() {
                Some(WireVec(vec![7u8; 16_128]))
            } else {
                None
            };
            let b = coll::broadcast(ctx, &cfg, 0, &all, msg, 129_024).expect("valid broadcast");
            let own = WireVec(vec![ctx.rank() as u8]);
            let g = coll::gather(ctx, &cfg, 0, &all, own, 8).expect("valid gather");
            (b.0.len(), g.map(|e| e.len()), ctx.elapsed())
        })
    };
    for backend in BACKENDS {
        let a = run_once(backend);
        let b = run_once(backend);
        assert_eq!(a, b, "rerun drift under {backend}");
        assert!(
            !a.collectives.is_empty(),
            "choices must be recorded under {backend}"
        );
        if backend == CollAlgorithm::Auto {
            // Auto resolved to something concrete, deterministically.
            for choice in &a.collectives {
                assert_eq!(choice.requested, CollAlgorithm::Auto);
                assert_ne!(choice.algorithm, CollAlgorithm::Auto);
            }
        }
    }
}

#[test]
fn link_outage_delays_but_never_corrupts_collectives() {
    let payload: Vec<u32> = (0..4032).collect();
    let run_once = |outage: bool, backend: CollAlgorithm| {
        let cfg = CollectiveConfig::uniform(backend);
        let mut engine = Engine::new(presets::fully_heterogeneous());
        if outage {
            // Segment 0 <-> 1 link down for the first 50 virtual ms —
            // squarely across the broadcast's cross-segment sends.
            engine = engine.with_faults(FaultPlan::new().link_outage(0, 1, 0.0, 0.05));
        }
        let engine = engine;
        let all = Membership::new(16);
        engine.run(|ctx| {
            let msg = if ctx.is_root() {
                Some(WireVec(payload.clone()))
            } else {
                None
            };
            let out = coll::broadcast(ctx, &cfg, 0, &all, msg, (4032 * 32) as u64)
                .expect("valid broadcast")
                .0;
            (out, ctx.elapsed())
        })
    };
    for backend in [CollAlgorithm::Linear, CollAlgorithm::SegmentHierarchical] {
        let healthy = run_once(false, backend);
        let degraded = run_once(true, backend);
        // Same payload everywhere, later (or equal) finish, no failures.
        assert!(degraded.ok(), "{backend}: outage must not fail ranks");
        for r in 0..16 {
            assert_eq!(
                degraded.result(r).0,
                healthy.result(r).0,
                "{backend}: rank {r} payload corrupted by outage"
            );
        }
        assert!(
            degraded.total_time >= healthy.total_time,
            "{backend}: outage cannot speed the run up ({} < {})",
            degraded.total_time,
            healthy.total_time
        );
        // Determinism under the identical fault plan.
        let again = run_once(true, backend);
        assert_eq!(degraded, again, "{backend}: fault-plan rerun drift");
    }
}

#[test]
fn gather_marks_crashed_rank_as_lost_hole() {
    let cfg = CollectiveConfig::linear();
    let engine =
        Engine::new(presets::fully_heterogeneous()).with_faults(FaultPlan::new().crash(3, 0.0));
    let all = Membership::new(16);
    let report = engine.run(|ctx| {
        // Rank 3's plan crashes it at t=0: the engine converts its send
        // into a failure marker and the root sees an explicit hole.
        let entries = coll::gather(ctx, &cfg, 0, &all, ctx.rank() as u64, 64);
        entries.expect("valid gather").map(|entries| {
            entries
                .iter()
                .map(GatherEntry::is_lost)
                .collect::<Vec<bool>>()
        })
    });
    let holes = report.result(0).as_ref().expect("root gathers");
    for (r, lost) in holes.iter().enumerate() {
        assert_eq!(*lost, r == 3, "rank {r} lost={lost}");
    }
}

#[test]
fn auto_is_never_dominated_on_the_mini_grid() {
    let concrete = [
        CollAlgorithm::Linear,
        CollAlgorithm::BinomialTree,
        CollAlgorithm::SegmentHierarchical,
        CollAlgorithm::PipelinedChunked,
    ];
    let bcast_time = |platform: &Platform, backend: CollAlgorithm, bits: u64| {
        let cfg = CollectiveConfig::uniform(backend);
        let engine = Engine::new(platform.clone());
        let all = Membership::new(platform.num_procs());
        engine
            .run(|ctx| {
                let msg = if ctx.is_root() {
                    Some(WireVec(vec![0u8; (bits / 8) as usize]))
                } else {
                    None
                };
                coll::broadcast(ctx, &cfg, 0, &all, msg, bits)
                    .expect("valid broadcast")
                    .0
                    .len()
            })
            .total_time
    };
    for platform in [
        presets::fully_heterogeneous(),
        presets::partially_homogeneous(),
    ] {
        for bits in [7_168u64, 129_024] {
            let auto = bcast_time(&platform, CollAlgorithm::Auto, bits);
            let best = concrete
                .iter()
                .map(|&a| bcast_time(&platform, a, bits))
                .fold(f64::INFINITY, f64::min);
            assert!(
                auto <= best + 1e-9,
                "auto {auto} dominated by best {best} on {} at {bits} bits",
                platform.name()
            );
        }
    }
}
