//! Topology-aware collective communication with cost-model-driven
//! algorithm selection.
//!
//! The paper's heterogeneous networks (§3.1, Tables 1–2) are switched
//! segments joined by *serial* inter-segment links, so a flat linear
//! collective rooted at rank 0 pays O(P) root-serialized latency and
//! queues every cross-segment transfer on the same FIFO links. This
//! module provides pluggable collective algorithms, all expressed
//! through the ordinary [`Ctx`] send/recv primitives — virtual-time
//! costs, FIFO contention and fault plans apply unchanged:
//!
//! * [`CollAlgorithm::Linear`] — the baseline star schedule: the root
//!   sends to / receives from every rank directly, in ascending rank order,
//! * [`CollAlgorithm::BinomialTree`] — `⌈log₂ P⌉`-depth recursive
//!   halving; wins in the latency-dominated small-message regime,
//! * [`CollAlgorithm::SegmentHierarchical`] — one *leader* per remote
//!   segment crosses the serial link exactly once, then fans out over
//!   the switched intra-segment network; wins for large payloads on
//!   multi-segment platforms,
//! * [`CollAlgorithm::PipelinedChunked`] — broadcast only: the payload
//!   streams down the hierarchical tree in [`CollectiveConfig::
//!   pipeline_chunks`] chunks so a leader forwards chunk `c` while
//!   chunk `c + 1` is still crossing the serial link,
//! * [`CollAlgorithm::Auto`] — evaluates the exact analytic cost of
//!   each candidate via [`predict`] and picks the cheapest; the choice
//!   is recorded in [`crate::RunReport::collectives`]. A `bits_hint` of
//!   zero carries no size information, so `Auto` falls back to the
//!   linear baseline instead of ranking schedules on a meaningless
//!   payload.
//!
//! Two fused entry points build on the same schedules:
//!
//! * [`allreduce`] — reduce + broadcast fused onto **one** tree: partials
//!   fold upward through the gather edges and the result fans out down
//!   the broadcast edges of the same schedule, so every rank learns the
//!   folded value in roughly twice the one-way tree depth instead of a
//!   full gather followed by a full broadcast;
//! * [`broadcast_overlap`] — a [`CollAlgorithm::PipelinedChunked`]
//!   broadcast that hands each delivered chunk to a per-chunk callback,
//!   letting leaf ranks start computing while later chunks are still in
//!   flight.
//!
//! **Selection must be rank-uniform.** The `bits_hint` argument of the
//! configurable collectives drives `Auto` selection (and nothing else);
//! every rank must pass the same value or ranks would disagree on the
//! schedule and deadlock. Transfers always charge actual payload sizes.
//!
//! **Failure semantics.** The root observes failed contributors as
//! explicit [`GatherEntry::Lost`] entries instead of aborting. Interior
//! tree relays use plain [`Ctx::recv`], so a crashed child cascades as a
//! structured `PeerLost` failure through its ancestors (recorded in the
//! report, never a process abort) and the root marks that whole subtree
//! lost. Link outages kill no ranks: every algorithm completes under
//! link-fault plans, just later.
//!
//! **Membership/epoch protocol.** Every rooted collective takes a
//! [`Membership`] view and builds its schedule over the view's survivor
//! set; callers without failures pass `Membership::new(ctx.num_ranks())`,
//! whose schedules span every rank. Subtree loss is the price of routing
//! through a rank that is *already* dead, and the view removes it for
//! known failures: the epoch bumps on every observed [`RankFailure`],
//! and known-dead interior relays are routed around instead of cascading
//! `PeerLost` down their subtrees. Only the view's survivors call; a
//! caller or root outside the survivor set gets
//! [`CollError::NotAMember`]. Messages stamped via the [`Stamped`] trait
//! are validated with [`recv_epoch`]: traffic from a superseded view is
//! rejected with a structured [`CollError::EpochMismatch`] instead of
//! corrupting the round. A rank that dies *mid*-collective — after the
//! view was agreed — still degrades with the subtree-loss semantics
//! above until a new view observes it. See `docs/COMMS.md`.

mod cost;
mod epoch;
mod schedule;

pub use cost::{predict, predict_over};
pub use epoch::{recv_epoch, Membership, Stamped};
pub use schedule::Tree;

use crate::engine::{Ctx, Wire};
use crate::faults::{FailureCause, RankFailure, RecvError};
use crate::platform::Platform;
use std::fmt;

/// A collective communication algorithm (schedule family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollAlgorithm {
    /// The baseline star: the root sends/receives every rank directly,
    /// in ascending rank order.
    #[default]
    Linear,
    /// Recursive-halving binomial tree over contiguous virtual-rank
    /// blocks: `⌈log₂ P⌉` depth, relays forward full payloads.
    BinomialTree,
    /// Two-level segment tree: one leader per remote segment crosses
    /// the serial inter-segment link once; leaders fan out locally.
    SegmentHierarchical,
    /// Broadcast only: the payload streams down the segment-hierarchical
    /// tree in fixed-count chunks so link occupancy overlaps. For
    /// gathers/reduces this resolves to [`Self::SegmentHierarchical`].
    PipelinedChunked,
    /// Evaluate every candidate's analytic cost ([`predict`]) for the
    /// given platform and `bits_hint`, pick the cheapest (ties favour
    /// the earlier variant, so `Linear` wins exact ties).
    Auto,
}

impl fmt::Display for CollAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollAlgorithm::Linear => "linear",
            CollAlgorithm::BinomialTree => "binomial_tree",
            CollAlgorithm::SegmentHierarchical => "segment_hierarchical",
            CollAlgorithm::PipelinedChunked => "pipelined_chunked",
            CollAlgorithm::Auto => "auto",
        };
        f.write_str(s)
    }
}

/// Which collective operation a [`CollectiveChoice`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollOp {
    /// Root-to-all broadcast.
    Broadcast,
    /// All-to-root gather.
    Gather,
    /// Root-to-all personalized scatter (always linear; see module docs).
    Scatter,
    /// All-to-root reduction.
    Reduce,
    /// Fused reduce + broadcast on one tree schedule.
    Allreduce,
}

impl fmt::Display for CollOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollOp::Broadcast => "broadcast",
            CollOp::Gather => "gather",
            CollOp::Scatter => "scatter",
            CollOp::Reduce => "reduce",
            CollOp::Allreduce => "allreduce",
        };
        f.write_str(s)
    }
}

/// One algorithm decision made by a collective call on the root,
/// recorded in [`crate::RunReport::collectives`].
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveChoice {
    /// The operation performed.
    pub op: CollOp,
    /// What the configuration asked for (possibly [`CollAlgorithm::Auto`]).
    pub requested: CollAlgorithm,
    /// The concrete algorithm that ran.
    pub algorithm: CollAlgorithm,
    /// The `bits_hint` the selection was made with.
    pub bits: u64,
    /// The cost model's predicted completion time for the chosen
    /// algorithm (exact for healthy runs rooted at rank 0 whose clocks
    /// are aligned when the collective starts; see [`predict`]).
    pub predicted_secs: f64,
}

/// Per-operation algorithm selection carried through the application
/// layer (see `hetero::RunOptions::collectives`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveConfig {
    /// Algorithm for broadcasts.
    pub broadcast: CollAlgorithm,
    /// Algorithm for gathers.
    pub gather: CollAlgorithm,
    /// Algorithm for reduces.
    pub reduce: CollAlgorithm,
    /// Algorithm for fused allreduces. [`CollAlgorithm::Linear`] runs
    /// the legacy split schedule (linear gather + linear broadcast) so
    /// callers that branch on it keep bit- and timing-identity with the
    /// historic path.
    pub allreduce: CollAlgorithm,
    /// Chunk count for [`CollAlgorithm::PipelinedChunked`] broadcasts
    /// (clamped to at least 1).
    pub pipeline_chunks: u32,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig::linear()
    }
}

impl CollectiveConfig {
    /// The baseline configuration: every collective linear.
    pub fn linear() -> Self {
        CollectiveConfig {
            broadcast: CollAlgorithm::Linear,
            gather: CollAlgorithm::Linear,
            reduce: CollAlgorithm::Linear,
            allreduce: CollAlgorithm::Linear,
            pipeline_chunks: 4,
        }
    }

    /// Cost-model-driven selection for every collective.
    pub fn auto() -> Self {
        CollectiveConfig::uniform(CollAlgorithm::Auto)
    }

    /// The same algorithm for every collective operation.
    pub fn uniform(algorithm: CollAlgorithm) -> Self {
        CollectiveConfig {
            broadcast: algorithm,
            gather: algorithm,
            reduce: algorithm,
            allreduce: algorithm,
            pipeline_chunks: 4,
        }
    }
}

/// How a scatter's data staging is charged. See DESIGN.md: the paper's
/// reported COM magnitudes imply bulk data staging is *not* part of the
/// measured communication, so experiments default to [`ScatterMode::Free`];
/// the `ablation_scatter` bench flips this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScatterMode {
    /// Partitions are assumed pre-staged: only per-message latency.
    #[default]
    Free,
    /// Partitions pay full transfer cost on the link matrix.
    Charged,
}

/// Structured misuse errors for the collectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollError {
    /// The root rank passed `None` where a payload was required.
    RootMissingPayload {
        /// The operation that was misused.
        op: CollOp,
    },
    /// A non-root rank passed `Some(..)` where `None` was required.
    NonRootPayload {
        /// The operation that was misused.
        op: CollOp,
    },
    /// A scatter's item vector length didn't match the rank count.
    WrongItemCount {
        /// The rank count (one item required per rank).
        expected: usize,
        /// The number of items actually supplied.
        got: usize,
    },
    /// An epoch-stamped message carried a different epoch than the
    /// receiver's [`Membership`] view expects. `got < expected` is a
    /// *stale* message — late traffic from a superseded view, rejected
    /// so it cannot corrupt the current round; `got > expected` means
    /// the receiving rank's view is behind the sender's, which is a
    /// protocol violation (views must advance through the master's
    /// headers before new-epoch traffic is read).
    EpochMismatch {
        /// The epoch of the receiver's current membership view.
        expected: u64,
        /// The epoch stamped on the rejected message.
        got: u64,
    },
    /// A rank outside the [`Membership`] view's survivor set (dead, or
    /// not a rank of the view at all) called, or was named root of, a
    /// collective.
    NotAMember {
        /// The offending rank.
        rank: usize,
    },
}

impl fmt::Display for CollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollError::RootMissingPayload { op } => {
                write!(f, "{op}: root must supply the payload")
            }
            CollError::NonRootPayload { op } => {
                write!(f, "{op}: non-root ranks must pass None")
            }
            CollError::WrongItemCount { expected, got } => {
                write!(f, "scatter: need one item per rank ({expected}), got {got}")
            }
            CollError::EpochMismatch { expected, got } => {
                let kind = if got < expected { "stale" } else { "future" };
                write!(
                    f,
                    "epoch mismatch: received {kind}-epoch message (epoch {got}, view at {expected})"
                )
            }
            CollError::NotAMember { rank } => {
                write!(
                    f,
                    "rank {rank} is not in the membership view's survivor set"
                )
            }
        }
    }
}

impl std::error::Error for CollError {}

/// One slot of a gather's rank-ordered result: the contribution, or an
/// explicit record of why it is missing. Crashed ranks become `Lost`
/// entries at the root instead of aborting the run.
#[derive(Debug, Clone, PartialEq)]
pub enum GatherEntry<M> {
    /// The rank's contribution arrived.
    Ok(M),
    /// The contribution is missing; the failure is the one the root
    /// observed on the relay path (for tree gathers a lost relay marks
    /// its whole subtree with the relay's failure record).
    Lost(RankFailure),
}

impl<M> GatherEntry<M> {
    /// The contribution, if it arrived.
    pub fn into_msg(self) -> Option<M> {
        match self {
            GatherEntry::Ok(m) => Some(m),
            GatherEntry::Lost(_) => None,
        }
    }

    /// A reference to the contribution, if it arrived.
    pub fn msg(&self) -> Option<&M> {
        match self {
            GatherEntry::Ok(m) => Some(m),
            GatherEntry::Lost(_) => None,
        }
    }

    /// `true` when the contribution is missing.
    pub fn is_lost(&self) -> bool {
        matches!(self, GatherEntry::Lost(_))
    }
}

/// Resolves a requested algorithm to the concrete one that will run for
/// `op` over `members` (ascending, containing `root`), plus its
/// predicted cost on that member set ([`predict_over`]): normalizes
/// broadcast-only algorithms, and ranks the candidates by predicted cost
/// for [`CollAlgorithm::Auto`]. Deterministic in its arguments, so every
/// member resolves identically.
#[allow(clippy::too_many_arguments)] // mirrors `predict_over`
pub fn select(
    platform: &Platform,
    latency_s: f64,
    op: CollOp,
    requested: CollAlgorithm,
    root: usize,
    bits: u64,
    pipeline_chunks: u32,
    members: &[usize],
) -> (CollAlgorithm, f64) {
    let normalize = |alg: CollAlgorithm| match (op, alg) {
        // Chunked streaming only exists for broadcast; elsewhere it
        // means "the same tree, unchunked".
        (CollOp::Broadcast, a) => a,
        (_, CollAlgorithm::PipelinedChunked) => CollAlgorithm::SegmentHierarchical,
        (_, a) => a,
    };
    let predict = |alg| {
        predict_over(
            platform,
            latency_s,
            op,
            alg,
            root,
            bits,
            pipeline_chunks,
            members,
        )
    };
    if requested != CollAlgorithm::Auto {
        let alg = normalize(requested);
        return (alg, predict(alg));
    }
    if bits == 0 {
        // A zero hint carries no size information: ranking schedules on
        // a zero-byte message would pick a tree on pure latency grounds
        // from a meaningless hint, so fall back to the baseline.
        return (CollAlgorithm::Linear, predict(CollAlgorithm::Linear));
    }
    let candidates: &[CollAlgorithm] = match op {
        CollOp::Broadcast => &[
            CollAlgorithm::Linear,
            CollAlgorithm::BinomialTree,
            CollAlgorithm::SegmentHierarchical,
            CollAlgorithm::PipelinedChunked,
        ],
        _ => &[
            CollAlgorithm::Linear,
            CollAlgorithm::BinomialTree,
            CollAlgorithm::SegmentHierarchical,
        ],
    };
    let mut best = CollAlgorithm::Linear;
    let mut best_cost = f64::INFINITY;
    for &alg in candidates {
        let cost = predict(alg);
        // Strict `<` keeps the earliest candidate on ties: Linear wins
        // exact ties (e.g. hierarchical on a single-segment platform).
        if cost < best_cost {
            best = alg;
            best_cost = cost;
        }
    }
    (best, best_cost)
}

/// Splits `bits` into `chunks` near-equal parts (earlier chunks take the
/// remainder). Always returns at least one chunk; the sizes sum to
/// `bits` so the total link charge of a pipelined broadcast equals the
/// unchunked one.
pub(crate) fn split_chunks(bits: u64, chunks: usize) -> Vec<u64> {
    let k = chunks.max(1) as u64;
    let base = bits / k;
    let rem = bits % k;
    (0..k).map(|i| base + u64::from(i < rem)).collect()
}

/// Resolves (and, on rank 0, logs) one collective decision over the
/// view's survivor set — the resolution every collective does
/// internally, exposed for protocols (like `hetero::ft`) that run their
/// own wire protocol over the survivor [`tree`] but want the same
/// cost-model-driven choice and [`CollectiveChoice`] observability.
/// Deterministic in its arguments, so every participant that calls it
/// with the same view resolves identically.
pub fn resolve<M: Wire>(
    ctx: &mut Ctx<M>,
    op: CollOp,
    requested: CollAlgorithm,
    root: usize,
    view: &Membership,
    bits_hint: u64,
    pipeline_chunks: u32,
) -> CollAlgorithm {
    let (algorithm, predicted_secs) = select(
        ctx.platform(),
        ctx.msg_latency_s(),
        op,
        requested,
        root,
        bits_hint,
        pipeline_chunks,
        &view.survivors(),
    );
    // Rank 0's log is the one the engine collects into the report, so
    // log there regardless of which rank roots the collective.
    if ctx.rank() == 0 {
        ctx.log_collective(CollectiveChoice {
            op,
            requested,
            algorithm,
            bits: bits_hint,
            predicted_secs,
        });
    }
    algorithm
}

/// Builds the concrete schedule [`Tree`] for `algorithm` over the view's
/// survivor set. [`CollAlgorithm::PipelinedChunked`] shares the
/// segment-hierarchical tree; [`CollAlgorithm::Auto`] must be resolved
/// to a concrete algorithm first (e.g. via [`resolve`]).
pub fn tree<M: Wire>(
    ctx: &Ctx<M>,
    algorithm: CollAlgorithm,
    root: usize,
    view: &Membership,
) -> Tree {
    schedule::build(algorithm, root, ctx.platform(), &view.survivors())
}

fn check_member(view: &Membership, rank: usize) -> Result<(), CollError> {
    if view.is_alive(rank) {
        Ok(())
    } else {
        Err(CollError::NotAMember { rank })
    }
}

/// The common prologue of every rooted collective: checks that `root`
/// and the calling rank are members of `view`, then resolves the
/// algorithm and builds its survivor schedule.
fn plan<M: Wire>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    op: CollOp,
    requested: CollAlgorithm,
    root: usize,
    view: &Membership,
    bits_hint: u64,
) -> Result<(CollAlgorithm, Tree), CollError> {
    check_member(view, root)?;
    check_member(view, ctx.rank())?;
    let chunks = cfg.pipeline_chunks;
    let algorithm = resolve(ctx, op, requested, root, view, bits_hint, chunks);
    Ok((algorithm, tree(ctx, algorithm, root, view)))
}

/// Fan-out of one payload to `children` when the local rank must also
/// **retain** the payload (tree broadcast, allreduce down-phase): the
/// retained copy is cloned first, every non-final child receives a
/// clone, and the final child takes the payload **by move** — so a rank
/// with `c` children performs exactly `c` clones, never `c + 1`.
///
/// Every clone goes through [`Ctx::clone_counted`], so the run's
/// [`crate::CopyStats`] record the deep bytes deterministically: for an
/// `Arc`-backed payload each clone is a refcount bump contributing 0
/// deep bytes, while the owned-payload baseline counter accrues one full
/// payload per send either way.
fn fanout_retain<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    children: &[usize],
    payload: M,
    chunk_bits: Option<u64>,
) -> M {
    let send = |ctx: &mut Ctx<M>, dst: usize, m: M| match chunk_bits {
        Some(bits) => ctx.send_bits(dst, m, bits),
        None => ctx.send(dst, m),
    };
    match children.split_last() {
        None => payload,
        Some((&last, rest)) => {
            let keep = ctx.clone_counted(&payload);
            for &child in rest {
                ctx.note_fanout_send(&payload);
                let copy = ctx.clone_counted(&payload);
                send(ctx, child, copy);
            }
            ctx.note_fanout_send(&payload);
            send(ctx, last, payload);
            keep
        }
    }
}

/// Fan-out of one payload the local rank does **not** need afterwards
/// (a relay's pipelined non-final chunks): non-final destinations
/// receive telemetry-counted clones, the final destination takes the
/// payload by move — one fewer deep copy than [`fanout_retain`].
fn fanout_consume<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    dsts: &[usize],
    payload: M,
    chunk_bits: Option<u64>,
) {
    let send = |ctx: &mut Ctx<M>, dst: usize, m: M| match chunk_bits {
        Some(bits) => ctx.send_bits(dst, m, bits),
        None => ctx.send(dst, m),
    };
    let Some((&last, rest)) = dsts.split_last() else {
        return;
    };
    for &child in rest {
        ctx.note_fanout_send(&payload);
        let copy = ctx.clone_counted(&payload);
        send(ctx, child, copy);
    }
    ctx.note_fanout_send(&payload);
    send(ctx, last, payload);
}

/// Broadcast from `root` under `cfg` over the survivors of `view`: the
/// root passes `Some(msg)`, every other survivor passes `None`; all
/// participants return the payload. Known-dead ranks neither call nor
/// relay.
///
/// `bits_hint` feeds `Auto` selection only (transfers charge the actual
/// payload size); it and `view` **must be identical on every
/// participant** — see the module docs.
pub fn broadcast<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    view: &Membership,
    msg: Option<M>,
    bits_hint: u64,
) -> Result<M, CollError> {
    let op = CollOp::Broadcast;
    let (algorithm, tree) = plan(ctx, cfg, op, cfg.broadcast, root, view, bits_hint)?;
    if algorithm == CollAlgorithm::PipelinedChunked {
        return broadcast_pipelined(ctx, &tree, msg, cfg.pipeline_chunks);
    }
    run_broadcast_tree(ctx, &tree, msg)
}

/// The unchunked tree broadcast body shared by [`broadcast`] and
/// [`broadcast_overlap`]: receive from the parent, forward to the
/// broadcast children in schedule order — clones for all but the last
/// child, which takes the payload by move (see [`fanout_retain`]).
fn run_broadcast_tree<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    tree: &Tree,
    msg: Option<M>,
) -> Result<M, CollError> {
    let op = CollOp::Broadcast;
    let rank = ctx.rank();
    let payload = match tree.parent(rank) {
        None => msg.ok_or(CollError::RootMissingPayload { op })?,
        Some(parent) => {
            if msg.is_some() {
                return Err(CollError::NonRootPayload { op });
            }
            ctx.recv(parent)
        }
    };
    Ok(fanout_retain(ctx, tree.children_bcast(rank), payload, None))
}

/// Broadcast with per-chunk compute overlap: identical wire schedule to
/// [`broadcast`] under the same `cfg`, but every delivered chunk is
/// handed to `on_chunk(ctx, chunk_index, chunk_count)` so receivers can
/// charge a slice of their post-broadcast compute while later chunks
/// are still in flight.
///
/// Overlap only changes *when* compute is charged, never what travels:
///
/// * when the resolved algorithm is [`CollAlgorithm::PipelinedChunked`],
///   **leaf** ranks interleave the callback with their chunk receives —
///   compute slices absorb the inter-chunk arrival gaps, which is the
///   overlap win on serial-link networks. The root and interior relays
///   keep forwarding untouched (delaying a relayed chunk would delay
///   every descendant) and run all callbacks after the protocol;
/// * any other resolved algorithm delivers the payload whole, so the
///   callback runs exactly once as `on_chunk(ctx, 0, 1)` on every rank
///   — bit- and timing-identical to calling [`broadcast`] and charging
///   the compute afterwards.
pub fn broadcast_overlap<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    view: &Membership,
    msg: Option<M>,
    bits_hint: u64,
    mut on_chunk: impl FnMut(&mut Ctx<M>, usize, usize),
) -> Result<M, CollError> {
    let op = CollOp::Broadcast;
    let (algorithm, tree) = plan(ctx, cfg, op, cfg.broadcast, root, view, bits_hint)?;
    if algorithm != CollAlgorithm::PipelinedChunked {
        let payload = run_broadcast_tree(ctx, &tree, msg)?;
        on_chunk(ctx, 0, 1);
        return Ok(payload);
    }
    let rank = ctx.rank();
    let k = cfg.pipeline_chunks.max(1) as usize;
    match tree.parent(rank) {
        Some(parent) if tree.is_leaf(rank) => {
            if msg.is_some() {
                return Err(CollError::NonRootPayload { op });
            }
            let mut payload = ctx.recv(parent);
            on_chunk(ctx, 0, k);
            for c in 1..k {
                payload = ctx.recv(parent);
                on_chunk(ctx, c, k);
            }
            Ok(payload)
        }
        _ => {
            let payload = broadcast_pipelined(ctx, &tree, msg, cfg.pipeline_chunks)?;
            for c in 0..k {
                on_chunk(ctx, c, k);
            }
            Ok(payload)
        }
    }
}

/// Chunk-streamed broadcast down the segment-hierarchical tree: every
/// edge carries `pipeline_chunks` messages whose charged sizes sum to
/// the payload size; a relay forwards chunk `c` before receiving chunk
/// `c + 1`, so its outbound transfers overlap the inbound ones.
fn broadcast_pipelined<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    tree: &Tree,
    msg: Option<M>,
    pipeline_chunks: u32,
) -> Result<M, CollError> {
    let op = CollOp::Broadcast;
    let rank = ctx.rank();
    let k = pipeline_chunks.max(1) as usize;
    match tree.parent(rank) {
        None => {
            let payload = msg.ok_or(CollError::RootMissingPayload { op })?;
            let sizes = split_chunks(payload.size_bits(), k);
            let (&last_bits, head) = sizes
                .split_last()
                .expect("split_chunks yields at least one chunk");
            // The root needs the payload for every chunk, so non-final
            // chunks clone per child; the final chunk moves to the last
            // child and the root keeps the retained copy.
            for &chunk_bits in head {
                for &child in tree.children_bcast(rank) {
                    ctx.note_fanout_send(&payload);
                    let copy = ctx.clone_counted(&payload);
                    ctx.send_bits(child, copy, chunk_bits);
                }
            }
            Ok(fanout_retain(
                ctx,
                tree.children_bcast(rank),
                payload,
                Some(last_bits),
            ))
        }
        Some(parent) => {
            if msg.is_some() {
                return Err(CollError::NonRootPayload { op });
            }
            // Every chunk carries a full payload; only the charged wire
            // size is chunked. A relay drops each non-final chunk after
            // forwarding, so the last child takes it by move; the final
            // chunk is retained as this rank's result.
            let mut payload = ctx.recv(parent);
            // The payload is identical on every rank, so the locally
            // computed chunk sizes agree with the root's.
            let sizes = split_chunks(payload.size_bits(), k);
            let (&last_bits, head) = sizes
                .split_last()
                .expect("split_chunks yields at least one chunk");
            for &chunk_bits in head {
                fanout_consume(ctx, tree.children_bcast(rank), payload, Some(chunk_bits));
                payload = ctx.recv(parent);
            }
            Ok(fanout_retain(
                ctx,
                tree.children_bcast(rank),
                payload,
                Some(last_bits),
            ))
        }
    }
}

/// Gather to `root` under `cfg` over the survivors of `view`: every
/// survivor contributes `msg`; the root returns `Some(entries)` indexed
/// by rank and every other survivor returns `None`. Missing
/// contributions are explicit [`GatherEntry::Lost`] records, never an
/// abort: a known-dead rank carries the view's recorded failure
/// ([`Membership::lost_entry`]) — zero subtree loss for known failures,
/// because no schedule edge touches it — and a rank lost mid-gather
/// carries the failure the root observed on its relay path.
///
/// `bits_hint` feeds `Auto` selection only; it and `view` **must be
/// identical on every participant** (see the module docs); transfers
/// charge actual sizes.
pub fn gather<M: Wire>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    view: &Membership,
    msg: M,
    bits_hint: u64,
) -> Result<Option<Vec<GatherEntry<M>>>, CollError> {
    let op = CollOp::Gather;
    let (_, tree) = plan(ctx, cfg, op, cfg.gather, root, view, bits_hint)?;
    Ok(run_gather(ctx, &tree, root, msg, view))
}

/// The gather body shared by [`gather`] and [`reduce`]'s linear path.
/// Ranks outside the survivor tree (the view's known-dead ranks) become
/// [`GatherEntry::Lost`] entries carrying the view's recorded failure.
fn run_gather<M: Wire>(
    ctx: &mut Ctx<M>,
    tree: &Tree,
    root: usize,
    msg: M,
    view: &Membership,
) -> Option<Vec<GatherEntry<M>>> {
    let rank = ctx.rank();
    if rank == root {
        let p = ctx.num_ranks();
        let mut out: Vec<Option<GatherEntry<M>>> = (0..p).map(|_| None).collect();
        out[root] = Some(GatherEntry::Ok(msg));
        for &child in tree.children_gather(root) {
            let origins = tree.subtree_order(child);
            let mut lost: Option<RankFailure> = None;
            for &origin in &origins {
                if let Some(f) = &lost {
                    out[origin] = Some(GatherEntry::Lost(f.clone()));
                    continue;
                }
                match ctx.recv_deadline(child, f64::INFINITY) {
                    Ok(m) => out[origin] = Some(GatherEntry::Ok(m)),
                    Err(RecvError::Failed(f)) => {
                        out[origin] = Some(GatherEntry::Lost(f.clone()));
                        lost = Some(f);
                    }
                    Err(RecvError::Timeout { .. }) => {
                        // The relay exited cleanly without sending —
                        // protocol misuse on the relay path; record it
                        // as a lost peer rather than aborting.
                        let f = RankFailure {
                            rank: child,
                            at: ctx.elapsed(),
                            cause: FailureCause::PeerLost { peer: child },
                        };
                        out[origin] = Some(GatherEntry::Lost(f.clone()));
                        lost = Some(f);
                    }
                }
            }
        }
        Some(
            out.into_iter()
                .enumerate()
                // Not in the survivor tree: the view already knows this
                // rank is dead — report its recorded failure.
                .map(|(r, e)| e.unwrap_or_else(|| GatherEntry::Lost(view.lost_entry(r))))
                .collect(),
        )
    } else {
        let parent = tree.parent(rank).expect("gather: non-root has a parent");
        // Collect this subtree's contributions in `subtree_order`, then
        // relay them upward; the parent knows the order from the shared
        // tree, so no metadata travels on the wire.
        let mut collected: Vec<M> = vec![msg];
        for &child in tree.children_gather(rank) {
            for _ in 0..tree.subtree_size(child) {
                collected.push(ctx.recv(child));
            }
        }
        for m in collected {
            ctx.send(parent, m);
        }
        None
    }
}

/// Scatter from `root`: the root supplies one message per rank (its own
/// element is returned to it directly); every rank returns its element.
/// `mode` selects whether transfers are charged (see [`ScatterMode`]).
///
/// Scatters are always linear: payloads are personalized and
/// non-splittable, so relaying a full item over a tree costs at least as
/// much as the direct send on every platform in this repository (the
/// triangle inequality holds for all preset link matrices) — see
/// `docs/COMMS.md`.
pub fn scatter<M: Wire>(
    ctx: &mut Ctx<M>,
    root: usize,
    items: Option<Vec<M>>,
    mode: ScatterMode,
) -> Result<M, CollError> {
    let op = CollOp::Scatter;
    let bits_hint = match (&items, mode) {
        (_, ScatterMode::Free) => 0,
        (Some(v), _) => v.first().map_or(0, |m| m.size_bits()),
        (None, _) => 0,
    };
    let everyone = Membership::new(ctx.num_ranks());
    let algorithm = resolve(
        ctx,
        op,
        CollAlgorithm::Linear,
        root,
        &everyone,
        bits_hint,
        1,
    );
    debug_assert_eq!(algorithm, CollAlgorithm::Linear);
    if ctx.rank() == root {
        let items = items.ok_or(CollError::RootMissingPayload { op })?;
        if items.len() != ctx.num_ranks() {
            return Err(CollError::WrongItemCount {
                expected: ctx.num_ranks(),
                got: items.len(),
            });
        }
        let mut own = None;
        for (dst, item) in items.into_iter().enumerate() {
            if dst == root {
                own = Some(item);
            } else {
                match mode {
                    ScatterMode::Free => ctx.send_free(dst, item),
                    ScatterMode::Charged => ctx.send(dst, item),
                }
            }
        }
        Ok(own.expect("scatter: the root's own element exists"))
    } else {
        if items.is_some() {
            return Err(CollError::NonRootPayload { op });
        }
        Ok(ctx.recv(root))
    }
}

/// Reduce to `root` with a binary fold under `cfg` over the survivors
/// of `view`: the root returns `Some(folded)` over the surviving
/// contributions, every other survivor `None`. Known-dead ranks
/// contribute nothing and relay nothing.
///
/// [`CollAlgorithm::Linear`] folds strictly in rank order. Tree
/// algorithms fold partial results inside relays:
/// binomial subtrees are contiguous rank blocks, so for a root at rank
/// 0 the tree *regroups* — never reorders — the linear fold, and any
/// **associative** fold is bit-identical to linear;
/// [`CollAlgorithm::SegmentHierarchical`] additionally requires
/// commutativity when segments interleave in rank space. See
/// `docs/COMMS.md`.
pub fn reduce<M: Wire>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    view: &Membership,
    msg: M,
    fold: impl Fn(M, M) -> M,
    bits_hint: u64,
) -> Result<Option<M>, CollError> {
    let op = CollOp::Reduce;
    let (algorithm, tree) = plan(ctx, cfg, op, cfg.reduce, root, view, bits_hint)?;
    if algorithm == CollAlgorithm::Linear {
        // A linear gather plus a free rank-order fold at the root,
        // skipping lost contributions.
        return Ok(run_gather(ctx, &tree, root, msg, view).map(|entries| {
            let mut it = entries.into_iter().filter_map(GatherEntry::into_msg);
            let first = it.next().expect("reduce: the root's own contribution");
            it.fold(first, fold)
        }));
    }
    Ok(run_reduce_tree(ctx, &tree, msg, fold))
}

/// The tree-reduce body: partials fold upward through the gather edges;
/// the root returns the folded value, relays send theirs onward.
fn run_reduce_tree<M: Wire>(
    ctx: &mut Ctx<M>,
    tree: &Tree,
    msg: M,
    fold: impl Fn(M, M) -> M,
) -> Option<M> {
    let rank = ctx.rank();
    let mut acc = msg;
    if rank == tree.root() {
        for &child in tree.children_gather(rank) {
            // A lost relay loses its subtree's partial; fold the
            // survivors (mirrors linear's hole-skipping).
            if let Ok(partial) = ctx.recv_deadline(child, f64::INFINITY) {
                acc = fold(acc, partial);
            }
        }
        Some(acc)
    } else {
        for &child in tree.children_gather(rank) {
            let partial = ctx.recv(child);
            acc = fold(acc, partial);
        }
        let parent = tree.parent(rank).expect("reduce: non-root has a parent");
        ctx.send(parent, acc);
        None
    }
}

/// Fused allreduce under `cfg` over the survivors of `view`: every
/// survivor contributes `msg`, partials fold upward through the tree's
/// gather edges, and the root's result fans back down the broadcast
/// edges of the **same** schedule. Every survivor returns the folded
/// value — one tree instead of a full gather followed by a full
/// broadcast.
///
/// The fold must be **associative** and **size-preserving** (every
/// contribution and every partial must share one wire size, which is
/// also what makes [`predict`]'s replay exact); like [`reduce`],
/// [`CollAlgorithm::SegmentHierarchical`] additionally requires
/// commutativity when segments interleave in rank space. On the
/// [`CollAlgorithm::Linear`] star this is message-for-message identical
/// to a linear gather, a free rank-order fold at the root, and a linear
/// broadcast of the result.
///
/// **Failure semantics.** A crashed contributor's partial is skipped at
/// the root exactly like [`reduce`]'s hole-skipping (a dead relay loses
/// its whole subtree); ranks below a dead relay unwind as structured
/// `PeerLost` failures and the root's sends to dead children are
/// dropped — the collective never hangs and never aborts the run.
///
/// `bits_hint` feeds `Auto` selection only and **must be identical on
/// every rank** (see the module docs); transfers charge actual sizes.
pub fn allreduce<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    cfg: &CollectiveConfig,
    root: usize,
    view: &Membership,
    msg: M,
    fold: impl Fn(M, M) -> M,
    bits_hint: u64,
) -> Result<M, CollError> {
    let op = CollOp::Allreduce;
    let (_, tree) = plan(ctx, cfg, op, cfg.allreduce, root, view, bits_hint)?;
    Ok(run_allreduce_tree(ctx, &tree, msg, fold))
}

/// The fused allreduce body: partials fold up the gather edges, the
/// result fans back down the broadcast edges of the same tree.
fn run_allreduce_tree<M: Wire + Clone>(
    ctx: &mut Ctx<M>,
    tree: &Tree,
    msg: M,
    fold: impl Fn(M, M) -> M,
) -> M {
    let rank = ctx.rank();
    let mut acc = msg;
    if rank == tree.root() {
        for &child in tree.children_gather(rank) {
            // A lost relay loses its subtree's partial; fold the
            // survivors (mirrors `reduce`'s hole-skipping).
            if let Ok(partial) = ctx.recv_deadline(child, f64::INFINITY) {
                acc = fold(acc, partial);
            }
        }
        fanout_retain(ctx, tree.children_bcast(rank), acc, None)
    } else {
        for &child in tree.children_gather(rank) {
            let partial = ctx.recv(child);
            acc = fold(acc, partial);
        }
        let parent = tree.parent(rank).expect("allreduce: non-root has a parent");
        ctx.send(parent, acc);
        let result = ctx.recv(parent);
        fanout_retain(ctx, tree.children_bcast(rank), result, None)
    }
}

/// Root-side fan-out of per-destination messages built by `make` —
/// the collective entry point for masters whose workers only ever
/// `recv(0)`: a tree schedule cannot relay through workers that never
/// forward, so the fan-out stays linear by construction. The
/// fault-tolerant drivers in `hetero::ft` use this as their default
/// state-distribution path; with a [`Membership`] view, [`resolve`] and
/// [`tree`] they can instead ship state down an epoch-stamped survivor
/// tree (`FtOptions::collectives`).
/// Destinations are sent in slice order.
pub fn fanout_with<M: Wire>(ctx: &mut Ctx<M>, dsts: &[usize], mut make: impl FnMut() -> M) {
    for &dst in dsts {
        let m = make();
        ctx.send(dst, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, WireVec};
    use crate::platform::Platform;
    use crate::presets;

    fn engine(p: usize) -> Engine {
        Engine::new(Platform::uniform("t", p, 0.01, 1024, 10.0))
    }

    const ALGOS: [CollAlgorithm; 5] = [
        CollAlgorithm::Linear,
        CollAlgorithm::BinomialTree,
        CollAlgorithm::SegmentHierarchical,
        CollAlgorithm::PipelinedChunked,
        CollAlgorithm::Auto,
    ];

    #[test]
    fn broadcast_delivers_under_every_algorithm() {
        for alg in ALGOS {
            let cfg = CollectiveConfig::uniform(alg);
            let report = engine(6).run(move |ctx| {
                let all = Membership::new(ctx.num_ranks());
                let msg = if ctx.is_root() {
                    Some(WireVec(vec![42u32, 7]))
                } else {
                    None
                };
                broadcast(ctx, &cfg, 0, &all, msg, 64).expect("broadcast").0
            });
            for r in 0..6 {
                assert_eq!(*report.result(r), vec![42, 7], "{alg}: rank {r}");
            }
        }
    }

    #[test]
    fn gather_rank_order_under_every_algorithm() {
        for alg in ALGOS {
            let cfg = CollectiveConfig::uniform(alg);
            for p in [2usize, 5, 6, 9] {
                let report = engine(p).run(move |ctx| {
                    let all = Membership::new(ctx.num_ranks());
                    let entries =
                        gather(ctx, &cfg, 0, &all, ctx.rank() as u64, 64).expect("member");
                    entries.map(|entries| {
                        entries
                            .into_iter()
                            .map(|e| e.into_msg().expect("healthy"))
                            .collect::<Vec<_>>()
                    })
                });
                let expect: Vec<u64> = (0..p as u64).collect();
                assert_eq!(
                    report.result(0).as_deref(),
                    Some(&expect[..]),
                    "{alg} p={p}"
                );
            }
        }
    }

    #[test]
    fn reduce_associative_fold_matches_linear() {
        // Wrapping add: associative and commutative, exact on u64.
        for alg in ALGOS {
            let cfg = CollectiveConfig::uniform(alg);
            let report = engine(9).run(move |ctx| {
                let all = Membership::new(ctx.num_ranks());
                let own = (ctx.rank() as u64 + 1) * 1_000_003;
                reduce(ctx, &cfg, 0, &all, own, |a, b| a.wrapping_add(b), 64).expect("member")
            });
            let expect: u64 = (1..=9u64).map(|r| r * 1_000_003).sum();
            assert_eq!(*report.result(0), Some(expect), "{alg}");
        }
    }

    #[test]
    fn binomial_reduce_regroups_associative_noncommutative_fold() {
        // String concatenation: associative, NOT commutative. Binomial
        // subtrees are contiguous rank blocks, so the result must equal
        // the linear left fold exactly.
        for alg in [CollAlgorithm::Linear, CollAlgorithm::BinomialTree] {
            let cfg = CollectiveConfig::uniform(alg);
            for p in [2usize, 5, 7, 8] {
                let report = engine(p).run(move |ctx| {
                    let all = Membership::new(ctx.num_ranks());
                    let own = WireVec(vec![ctx.rank() as u8]);
                    let concat = |mut a: WireVec<u8>, b: WireVec<u8>| {
                        a.0.extend_from_slice(&b.0);
                        a
                    };
                    reduce(ctx, &cfg, 0, &all, own, concat, 8)
                        .expect("member")
                        .map(|m| m.0)
                });
                let expect: Vec<u8> = (0..p as u8).collect();
                assert_eq!(
                    report.result(0).as_deref(),
                    Some(&expect[..]),
                    "{alg} p={p}"
                );
            }
        }
    }

    #[test]
    fn allreduce_delivers_folded_value_to_every_rank() {
        for alg in ALGOS {
            let cfg = CollectiveConfig::uniform(alg);
            let report = engine(9).run(move |ctx| {
                let all = Membership::new(ctx.num_ranks());
                let own = (ctx.rank() as u64 + 1) * 1_000_003;
                allreduce(ctx, &cfg, 0, &all, own, |a, b| a.wrapping_add(b), 64).expect("member")
            });
            let expect: u64 = (1..=9u64).map(|r| r * 1_000_003).sum();
            for r in 0..9 {
                assert_eq!(*report.result(r), expect, "{alg}: rank {r}");
            }
        }
    }

    #[test]
    fn allreduce_single_rank_returns_own_contribution() {
        let cfg = CollectiveConfig::uniform(CollAlgorithm::BinomialTree);
        let report = engine(1).run(move |ctx| {
            allreduce(ctx, &cfg, 0, &Membership::new(1), 7u64, |a, b| a + b, 64).expect("member")
        });
        assert_eq!(*report.result(0), 7);
    }

    #[test]
    fn allreduce_skips_crashed_contributor_and_completes() {
        let plan = crate::faults::FaultPlan::new().crash(2, 0.0);
        let cfg = CollectiveConfig::default();
        let report = engine(4).with_faults(plan).run(move |ctx| {
            let own = 1u64 << (ctx.rank() * 8);
            allreduce(ctx, &cfg, 0, &Membership::new(4), own, |a, b| a | b, 64).expect("member")
        });
        // Rank 2's bit is an explicit hole in the fold; the survivors
        // still learn the reduced value.
        let expect = 1 | (1 << 8) | (1 << 24);
        for r in [0usize, 1, 3] {
            assert_eq!(*report.result(r), expect, "rank {r}");
        }
        assert!(report.failure_of(2).is_some());
    }

    #[test]
    fn auto_with_zero_bits_hint_resolves_to_linear() {
        let platform = presets::fully_heterogeneous();
        let everyone: Vec<usize> = (0..platform.num_procs()).collect();
        for op in [
            CollOp::Broadcast,
            CollOp::Gather,
            CollOp::Reduce,
            CollOp::Allreduce,
        ] {
            let (alg, _) = select(
                &platform,
                platform.msg_latency_s(),
                op,
                CollAlgorithm::Auto,
                0,
                0,
                4,
                &everyone,
            );
            assert_eq!(alg, CollAlgorithm::Linear, "{op}: zero-bit hint");
        }
    }

    #[test]
    fn broadcast_overlap_delivers_and_calls_back_once_per_chunk() {
        for alg in ALGOS {
            let cfg = CollectiveConfig::uniform(alg);
            let report = engine(6).run(move |ctx| {
                let all = Membership::new(ctx.num_ranks());
                let msg = if ctx.is_root() {
                    Some(WireVec(vec![3u32; 64]))
                } else {
                    None
                };
                let mut calls = Vec::new();
                let payload = {
                    let calls = &mut calls;
                    let on_chunk = |_: &mut Ctx<_>, c, k| calls.push((c, k));
                    broadcast_overlap(ctx, &cfg, 0, &all, msg, 64 * 32, on_chunk)
                        .expect("broadcast")
                };
                (payload.0, calls)
            });
            for r in 0..6 {
                let (payload, calls) = report.result(r);
                assert_eq!(*payload, vec![3u32; 64], "{alg}: rank {r}");
                let k = calls.len();
                assert!(k >= 1, "{alg}: rank {r} callback never ran");
                let expect: Vec<(usize, usize)> = (0..k).map(|c| (c, k)).collect();
                assert_eq!(*calls, expect, "{alg}: rank {r} chunk indices");
            }
        }
    }

    #[test]
    fn overlapped_leaf_compute_never_finishes_later() {
        // Same wire schedule, compute sliced into the arrival gaps: the
        // overlapped run must end no later than broadcast-then-compute.
        let platform = presets::fully_heterogeneous();
        let mflops = 20.0;
        let cfg = CollectiveConfig {
            broadcast: CollAlgorithm::PipelinedChunked,
            ..CollectiveConfig::linear()
        };
        let bits: u64 = 16_128 * 8;
        let all = &Membership::new(platform.num_procs());
        let plain = Engine::new(platform.clone())
            .run(move |ctx| {
                let msg = if ctx.is_root() {
                    Some(WireVec(vec![0u8; (bits / 8) as usize]))
                } else {
                    None
                };
                let _ = broadcast(ctx, &cfg, 0, all, msg, bits).expect("broadcast");
                ctx.compute_par(mflops);
            })
            .total_time;
        let overlapped = Engine::new(platform)
            .run(move |ctx| {
                let msg = if ctx.is_root() {
                    Some(WireVec(vec![0u8; (bits / 8) as usize]))
                } else {
                    None
                };
                let _ = broadcast_overlap(ctx, &cfg, 0, all, msg, bits, |ctx, _, k| {
                    ctx.compute_par(mflops / k as f64)
                })
                .expect("broadcast");
            })
            .total_time;
        assert!(
            overlapped <= plain + 1e-12,
            "overlap slower: {overlapped} > {plain}"
        );
        assert!(
            overlapped < plain,
            "overlap should absorb serial-link gaps ({overlapped} vs {plain})"
        );
    }

    #[test]
    fn broadcast_misuse_is_an_error_not_a_panic() {
        let cfg = CollectiveConfig::default();
        let all = Membership::new(2);
        let report = engine(2).run(move |ctx| {
            if ctx.is_root() {
                // Root forgot the payload.
                broadcast::<u64>(ctx, &cfg, 0, &all, None, 64).err()
            } else {
                // Non-root supplied one.
                broadcast(ctx, &cfg, 0, &all, Some(9u64), 64).err()
            }
        });
        assert_eq!(
            *report.result(0),
            Some(CollError::RootMissingPayload {
                op: CollOp::Broadcast
            })
        );
        assert_eq!(
            *report.result(1),
            Some(CollError::NonRootPayload {
                op: CollOp::Broadcast
            })
        );
    }

    #[test]
    fn scatter_wrong_count_is_an_error() {
        let report = engine(3).run(|ctx| {
            let items = if ctx.is_root() {
                Some(vec![1u64, 2]) // 2 items for 3 ranks
            } else {
                None
            };
            if ctx.is_root() {
                scatter(ctx, 0, items, ScatterMode::Free).err()
            } else {
                // Workers would block on a recv that never comes; skip.
                None
            }
        });
        assert_eq!(
            *report.result(0),
            Some(CollError::WrongItemCount {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn scatter_delivers_one_item_per_rank_and_free_beats_charged() {
        let run = |mode: ScatterMode| {
            engine(3).run(move |ctx| {
                let items = if ctx.is_root() {
                    Some((0..3u8).map(|r| WireVec(vec![r; 2_000_000])).collect())
                } else {
                    None
                };
                let item = scatter(ctx, 0, items, mode).expect("valid scatter");
                (item.0[0], item.0.len())
            })
        };
        let (free, charged) = (run(ScatterMode::Free), run(ScatterMode::Charged));
        for r in 0..3 {
            assert_eq!(*free.result(r), (r as u8, 2_000_000), "rank {r}");
            assert_eq!(*charged.result(r), (r as u8, 2_000_000), "rank {r}");
        }
        assert!(free.total_time < charged.total_time);
    }

    #[test]
    fn out_of_range_rank_is_not_a_member() {
        // Root P on a P-rank platform: a structured error on every rank,
        // never an index panic.
        let cfg = CollectiveConfig::default();
        let report = engine(16).run(move |ctx| {
            let all = Membership::new(ctx.num_ranks());
            broadcast(ctx, &cfg, 16, &all, Some(1u64), 64).err()
        });
        for r in 0..16 {
            assert_eq!(
                *report.result(r),
                Some(CollError::NotAMember { rank: 16 }),
                "rank {r}"
            );
        }
        assert!(report.failures.is_empty(), "{:?}", report.failures);
    }

    #[test]
    fn crashed_rank_becomes_lost_entry_not_abort() {
        let plan = crate::faults::FaultPlan::new().crash(2, 0.0);
        let cfg = CollectiveConfig::default();
        let report = engine(4).with_faults(plan).run(move |ctx| {
            let entries = gather(ctx, &cfg, 0, &Membership::new(4), ctx.rank() as u64, 64);
            entries.expect("member").map(|entries| {
                entries
                    .into_iter()
                    .map(|e| match e {
                        GatherEntry::Ok(v) => (Some(v), None),
                        GatherEntry::Lost(f) => (None, Some(f.rank)),
                    })
                    .collect::<Vec<_>>()
            })
        });
        let root = report.results[0].clone().flatten().expect("root completes");
        assert_eq!(root[0], (Some(0), None));
        assert_eq!(root[1], (Some(1), None));
        assert_eq!(root[2], (None, Some(2)), "crashed rank is an explicit hole");
        assert_eq!(root[3], (Some(3), None));
    }

    #[test]
    fn auto_picks_hierarchical_for_large_broadcast_on_heterogeneous() {
        let platform = presets::fully_heterogeneous();
        let everyone: Vec<usize> = (0..platform.num_procs()).collect();
        let bits = 18 * 224 * 32; // endmember matrix U
        let (alg, _) = select(
            &platform,
            platform.msg_latency_s(),
            CollOp::Broadcast,
            CollAlgorithm::Auto,
            0,
            bits,
            4,
            &everyone,
        );
        assert!(
            alg == CollAlgorithm::SegmentHierarchical || alg == CollAlgorithm::PipelinedChunked,
            "expected a segment-aware pick, got {alg}"
        );
    }

    #[test]
    fn auto_resolves_to_linear_on_tie() {
        // Single segment: hierarchical == linear exactly; Linear must
        // win the tie so single-segment platforms keep the baseline.
        let platform = Platform::uniform("u4", 4, 0.01, 64, 10.0);
        let everyone: Vec<usize> = (0..platform.num_procs()).collect();
        let (alg, _) = select(
            &platform,
            platform.msg_latency_s(),
            CollOp::Gather,
            CollAlgorithm::Auto,
            0,
            1_000_000,
            4,
            &everyone,
        );
        assert_eq!(alg, CollAlgorithm::Linear);
    }

    #[test]
    fn choices_are_recorded_in_the_report() {
        let cfg = CollectiveConfig::auto();
        let all = Membership::new(4);
        let report = engine(4).run(move |ctx| {
            let msg = if ctx.is_root() { Some(5u64) } else { None };
            let v = broadcast(ctx, &cfg, 0, &all, msg, 64).expect("broadcast");
            let _ = gather(ctx, &cfg, 0, &all, v, 64);
        });
        assert_eq!(report.collectives.len(), 2);
        assert_eq!(report.collectives[0].op, CollOp::Broadcast);
        assert_eq!(report.collectives[0].requested, CollAlgorithm::Auto);
        assert_ne!(report.collectives[0].algorithm, CollAlgorithm::Auto);
        assert_eq!(report.collectives[1].op, CollOp::Gather);
    }

    #[test]
    fn predicted_cost_is_exact_for_rooted_broadcast() {
        // The Auto guarantee hinges on this: prediction == measurement
        // for a collective issued at t = 0 on aligned clocks.
        for platform in presets::four_networks() {
            for alg in [
                CollAlgorithm::Linear,
                CollAlgorithm::BinomialTree,
                CollAlgorithm::SegmentHierarchical,
                CollAlgorithm::PipelinedChunked,
            ] {
                let bits: u64 = 18 * 224 * 32;
                let latency = platform.msg_latency_s();
                let predicted = predict(&platform, latency, CollOp::Broadcast, alg, 0, bits, 4);
                let cfg = CollectiveConfig::uniform(alg);
                let name = platform.name().to_string();
                let all = Membership::new(platform.num_procs());
                let report = Engine::new(platform.clone()).run(move |ctx| {
                    let msg = if ctx.is_root() {
                        Some(WireVec(vec![0u8; (bits / 8) as usize]))
                    } else {
                        None
                    };
                    let _ = broadcast(ctx, &cfg, 0, &all, msg, bits).expect("broadcast");
                });
                assert!(
                    (report.total_time - predicted).abs() < 1e-9,
                    "{name}/{alg}: predicted {predicted} vs measured {}",
                    report.total_time
                );
            }
        }
    }

    #[test]
    fn predicted_cost_is_exact_for_gather_and_reduce() {
        for platform in presets::four_networks() {
            for alg in [
                CollAlgorithm::Linear,
                CollAlgorithm::BinomialTree,
                CollAlgorithm::SegmentHierarchical,
            ] {
                let bits: u64 = 224 * 32;
                let latency = platform.msg_latency_s();
                for op in [CollOp::Gather, CollOp::Reduce] {
                    let predicted = predict(&platform, latency, op, alg, 0, bits, 4);
                    let cfg = CollectiveConfig::uniform(alg);
                    let name = platform.name().to_string();
                    let all = Membership::new(platform.num_procs());
                    let report = Engine::new(platform.clone()).run(move |ctx| {
                        let payload = WireVec(vec![0u8; (bits / 8) as usize]);
                        match op {
                            CollOp::Gather => {
                                let _ = gather(ctx, &cfg, 0, &all, payload, bits);
                            }
                            CollOp::Reduce => {
                                let _ = reduce(ctx, &cfg, 0, &all, payload, |a, _| a, bits);
                            }
                            _ => unreachable!(),
                        }
                    });
                    assert!(
                        (report.total_time - predicted).abs() < 1e-9,
                        "{name}/{alg}/{op}: predicted {predicted} vs measured {}",
                        report.total_time
                    );
                }
            }
        }
    }

    #[test]
    fn split_chunks_sums_and_never_empties() {
        assert_eq!(split_chunks(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_chunks(0, 4), vec![0, 0, 0, 0]);
        assert_eq!(split_chunks(7, 0), vec![7]);
        assert_eq!(split_chunks(129_024, 4).iter().sum::<u64>(), 129_024);
    }
}
