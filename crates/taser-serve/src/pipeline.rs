//! The batched scoring pipeline: neighbor finding → feature gather (through
//! the serving cache) → frozen encoder → edge predictor → sigmoid.
//!
//! This is the inference twin of the trainer's per-iteration loop, with the
//! adaptive machinery stripped: supporting neighbors come straight from the
//! finder under a fixed policy (the backbone's default unless overridden),
//! and the encoder runs without gradients or dropout.
//!
//! **Two forward implementations** score the same assembly:
//!
//! * the **fast path** (default) — weights pre-packed at load
//!   ([`PackedModel`]), scratch from a per-worker [`ScoreScratch`] whose
//!   [`InferCtx`] arena and assembly buffers are reused batch to batch.
//!   Sampler output is written *directly* into the combined hop layout
//!   (hop 0 as the prefix), so steady-state scoring performs **zero heap
//!   allocations per batch** (asserted by `tests/zero_alloc.rs`);
//! * the **tape path** — the training-style autograd wiring
//!   ([`taser_models::infer::tape_forward`]), kept for differential testing
//!   (`tests/infer_equivalence.rs`), as the bench baseline, and selectable
//!   with `TASER_SCORE_PATH=tape`.
//!
//! **Determinism contract:** identical `(src, dst, t)` queries against the
//! same snapshot generation produce bit-identical scores, regardless of
//! which other queries share the micro-batch. Every per-row tensor op is
//! row-independent (including the register-tiled packed matmul — a row's
//! result never depends on its tile neighbors), so the only randomness risk
//! is the finder; the most-recent policy is RNG-free, while stochastic
//! policies (uniform / inverse-timespan) derive an independent seed per
//! target from `(node, t, generation, hop)` and launch per-target blocks —
//! batch composition never reaches the sample distribution.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;
use taser_graph::feats::FeatureMatrix;
use taser_graph::index::TemporalIndex;
use taser_models::artifact::{ArtifactPolicy, BuiltModel, ModelArtifact};
use taser_models::infer::{tape_forward, InferArgs, PackedModel, TapeArgs};
use taser_models::ModelSpec;
use taser_obs::{Stage, StageNanos};
use taser_sample::rng::mix;
use taser_sample::{FinderScratch, GpuFinder, SamplePolicy, SampledNeighbors, PAD};
use taser_tensor::{ops::sigmoid, Graph, InferCtx, ParamStore, Slot, Tensor};

use crate::admission::LinkQuery;
use crate::features::ServeFeatureCache;

/// Which forward implementation scores batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScorePath {
    /// Tape-free packed-weight forward on a reusable arena (default).
    Fast,
    /// Autograd-tape forward (training twin); `TASER_SCORE_PATH=tape`.
    Tape,
}

impl ScorePath {
    /// Display name (logged at engine boot, asserted by the CI smoke job).
    pub fn name(self) -> &'static str {
        match self {
            ScorePath::Fast => "fast",
            ScorePath::Tape => "tape",
        }
    }

    fn from_env() -> Self {
        match std::env::var("TASER_SCORE_PATH").as_deref() {
            Ok("tape") => ScorePath::Tape,
            Ok("fast") | Err(_) => ScorePath::Fast,
            // An operator forcing the oracle path must not silently get the
            // fast path because of a typo — fail loudly, like the bench
            // harnesses do for unparsable flags.
            Ok(other) => {
                panic!("unknown TASER_SCORE_PATH {other:?} (expected \"fast\" or \"tape\")")
            }
        }
    }
}

/// Per-worker reusable scoring state: the inference arena plus every
/// assembly buffer the pipeline writes a batch into. One per scoring thread;
/// all buffers retain capacity across batches, so after warmup a batch
/// performs no heap allocations.
pub struct ScoreScratch {
    /// Tape-free forward arena.
    pub ctx: InferCtx,
    // root dedup
    unique: Vec<(u32, f64)>,
    slot_of: HashMap<(u32, u64), usize>,
    root_slot: Vec<usize>,
    // support tree in the combined hop layout (hop 0 is the prefix)
    targets: Vec<(u32, f64)>,
    sel: SampledNeighbors,
    edge_buf: Vec<f32>,
    delta_t: Vec<f32>,
    mask: Vec<bool>,
    finder: FinderScratch,
    // per-batch stage attribution (fixed array: timing stays allocation-free)
    stages: StageNanos,
}

impl Default for ScoreScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoreScratch {
    /// Empty scratch; buffers grow to the workload's peak and stay there.
    pub fn new() -> Self {
        ScoreScratch {
            ctx: InferCtx::new(),
            unique: Vec::new(),
            slot_of: HashMap::new(),
            root_slot: Vec::new(),
            targets: Vec::new(),
            sel: SampledNeighbors::empty(0, 1),
            edge_buf: Vec::new(),
            delta_t: Vec::new(),
            mask: Vec::new(),
            finder: FinderScratch::new(),
            stages: StageNanos::default(),
        }
    }

    /// Stage attribution of the batch last scored through this scratch
    /// (assembly / sampling / feature gather / packed forward; the
    /// engine-side admission-wait and respond stages are accounted by the
    /// worker loop).
    pub fn stage_ns(&self) -> &StageNanos {
        &self.stages
    }
}

thread_local! {
    /// Fallback scratch for callers of the convenience [`ScorePipeline::score_batch`];
    /// engine workers own an explicit [`ScoreScratch`] instead.
    static TLS_SCRATCH: RefCell<ScoreScratch> = RefCell::new(ScoreScratch::new());
}

/// Immutable scoring state shared by every worker thread.
pub struct ScorePipeline {
    spec: ModelSpec,
    model: BuiltModel,
    packed: PackedModel,
    store: ParamStore,
    node_feats: Option<FeatureMatrix>,
    finder: GpuFinder,
    policy: SamplePolicy,
    path: ScorePath,
}

impl ScorePipeline {
    /// Builds the pipeline from a loaded artifact, returning the edge
    /// feature table for the caller to wrap in a [`ServeFeatureCache`].
    /// `policy_override` replaces the backbone's default finding policy.
    /// Weights are packed for the fast path here, once.
    pub fn new(
        artifact: ModelArtifact,
        policy_override: Option<SamplePolicy>,
    ) -> io::Result<(Self, Option<FeatureMatrix>)> {
        let model = artifact.build()?;
        let packed = PackedModel::new(&artifact.spec, &model, &artifact.store);
        let ModelArtifact {
            spec,
            store,
            node_feats,
            edge_feats,
        } = artifact;
        // Default to the policy the encoder was trained under (carried in
        // the spec) so serving draws support neighborhoods from the same
        // distribution as training.
        let policy = policy_override.unwrap_or(match spec.policy {
            ArtifactPolicy::Uniform => SamplePolicy::Uniform,
            ArtifactPolicy::MostRecent => SamplePolicy::MostRecent,
            ArtifactPolicy::InverseTimespan { delta } => SamplePolicy::InverseTimespan { delta },
        });
        Ok((
            ScorePipeline {
                spec,
                model,
                packed,
                store,
                node_feats,
                finder: GpuFinder::default(),
                policy,
                path: ScorePath::from_env(),
            },
            edge_feats,
        ))
    }

    /// The architecture being served.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The active neighbor-finding policy.
    pub fn policy(&self) -> SamplePolicy {
        self.policy
    }

    /// The forward implementation batches are scored with.
    pub fn score_path(&self) -> ScorePath {
        self.path
    }

    /// Scores a batch of link queries against one graph snapshot (any
    /// [`TemporalIndex`] backend), returning one probability in (0, 1) per
    /// query. Dispatches to the configured path; fast-path scratch comes
    /// from a thread-local (engine workers use
    /// [`ScorePipeline::score_batch_into`] with their own scratch).
    pub fn score_batch<I: TemporalIndex + ?Sized>(
        &self,
        csr: &I,
        generation: u64,
        queries: &[LinkQuery],
        feats: &ServeFeatureCache,
    ) -> Vec<f32> {
        match self.path {
            ScorePath::Tape => self.score_batch_tape(csr, generation, queries, feats),
            ScorePath::Fast => TLS_SCRATCH.with(|s| {
                let mut scratch = s.borrow_mut();
                let mut out = Vec::with_capacity(queries.len());
                self.score_batch_into(csr, generation, queries, feats, &mut scratch, &mut out);
                out
            }),
        }
    }

    /// Scores one query on its own: the unbatched oracle the batching
    /// tests compare against.
    #[cfg(test)]
    pub fn score_one<I: TemporalIndex + ?Sized>(
        &self,
        csr: &I,
        generation: u64,
        query: LinkQuery,
        feats: &ServeFeatureCache,
    ) -> f32 {
        self.score_batch(csr, generation, &[query], feats)[0]
    }

    /// The tape-free fast path: assembles the support tree into `scratch`'s
    /// reusable buffers, runs the packed forward on the arena, and writes
    /// one probability per query into `out` (cleared first). Zero heap
    /// allocations per call once `scratch` has warmed up.
    pub fn score_batch_into<I: TemporalIndex + ?Sized>(
        &self,
        csr: &I,
        generation: u64,
        queries: &[LinkQuery],
        feats: &ServeFeatureCache,
        scratch: &mut ScoreScratch,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        scratch.stages.clear();
        let b = queries.len();
        if b == 0 {
            return;
        }
        let t0 = Instant::now();
        // occupancy cell: one relaxed store per region start, so a sampler
        // thread can attribute worker wall time to stages without touching
        // the per-batch timing above
        taser_obs::profile::enter(Stage::BatchAssembly);
        feats.on_requests(b as u64);
        self.dedup_roots(queries, scratch);
        scratch.stages.close_region(Stage::BatchAssembly, t0);
        self.assemble(csr, generation, feats, scratch);

        let forward_start = Instant::now();
        taser_obs::profile::enter(Stage::PackedForward);
        let ScoreScratch {
            ctx,
            unique,
            root_slot,
            targets,
            sel,
            edge_buf,
            delta_t,
            mask,
            stages,
            ..
        } = scratch;
        ctx.reset();
        let root_feat = self.h0_slot(ctx, targets.len(), targets.iter().map(|&(v, _)| v));
        let neigh_feat = self.h0_slot(ctx, sel.nodes.len(), sel.nodes.iter().copied());
        let h = self.packed.forward(
            ctx,
            &InferArgs {
                r0: unique.len(),
                n: self.spec.n_neighbors,
                root_feat,
                neigh_feat,
                edge_feat: (self.spec.edge_dim > 0).then_some(edge_buf.as_slice()),
                delta_t,
                mask,
            },
        );
        let logits = self
            .packed
            .predict(ctx, h, &root_slot[..b], &root_slot[b..]);
        out.extend(ctx.data(logits).iter().map(|&x| sigmoid(x)));
        stages.close_region(Stage::PackedForward, forward_start);
    }

    /// The autograd-tape path over the same assembly — the training twin.
    /// Allocates freely (fresh scratch, tape nodes, leaf clones); kept as
    /// the differential oracle and bench baseline.
    pub fn score_batch_tape<I: TemporalIndex + ?Sized>(
        &self,
        csr: &I,
        generation: u64,
        queries: &[LinkQuery],
        feats: &ServeFeatureCache,
    ) -> Vec<f32> {
        let b = queries.len();
        if b == 0 {
            return Vec::new();
        }
        feats.on_requests(b as u64);
        let mut scratch = ScoreScratch::new();
        self.dedup_roots(queries, &mut scratch);
        self.assemble(csr, generation, feats, &mut scratch);

        let root_feat = self.h0(
            scratch.targets.len(),
            scratch.targets.iter().map(|&(v, _)| v),
        );
        let neigh_feat = self.h0(scratch.sel.nodes.len(), scratch.sel.nodes.iter().copied());
        let mut g = Graph::inference();
        let h = tape_forward(
            &mut g,
            &self.spec,
            &self.model,
            &self.store,
            &TapeArgs {
                r0: scratch.unique.len(),
                n: self.spec.n_neighbors,
                root_feat,
                neigh_feat,
                edge_feat: (self.spec.edge_dim > 0).then_some(scratch.edge_buf.as_slice()),
                delta_t: &scratch.delta_t,
                mask: &scratch.mask,
            },
        );
        let h_src = g.gather_rows(h, &scratch.root_slot[..b]);
        let h_dst = g.gather_rows(h, &scratch.root_slot[b..]);
        let logits = self
            .model
            .predictor
            .forward(&mut g, &self.store, h_src, h_dst);
        g.data(logits).data().iter().map(|&x| sigmoid(x)).collect()
    }

    /// Roots are [srcs | dsts] at their query times, deduplicated: an
    /// identical (node, t) root has an identical support subtree and
    /// embedding, so hot nodes repeated across a batch (the common serving
    /// pattern — ranking trending candidates for many users) are encoded
    /// once and gathered per query. Every per-row op is row-independent, so
    /// scores are bit-identical to the undeduped forward.
    fn dedup_roots(&self, queries: &[LinkQuery], scratch: &mut ScoreScratch) {
        let ScoreScratch {
            unique,
            slot_of,
            root_slot,
            ..
        } = scratch;
        unique.clear();
        slot_of.clear();
        root_slot.clear();
        let srcs = queries.iter().map(|q| (q.src, q.t));
        let dsts = queries.iter().map(|q| (q.dst, q.t));
        for (v, t) in srcs.chain(dsts) {
            let slot = match slot_of.entry((v, t.to_bits())) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    unique.push((v, t));
                    *e.insert(unique.len() - 1)
                }
            };
            root_slot.push(slot);
        }
    }

    /// Builds the L-hop support tree directly into `scratch`'s combined
    /// layout: hop-0 targets (the deduped roots) occupy the prefix, their
    /// hop-1 children the suffix. Sampler output lands in `scratch.sel`'s
    /// reusable slots via per-target block launches (no intermediate
    /// `SampledNeighbors` allocations, no clone chains), and edge features
    /// gather once into `scratch.edge_buf`.
    fn assemble<I: TemporalIndex + ?Sized>(
        &self,
        csr: &I,
        generation: u64,
        feats: &ServeFeatureCache,
        scratch: &mut ScoreScratch,
    ) {
        let n = self.spec.n_neighbors;
        let layers = self.spec.backbone.layers();
        let ScoreScratch {
            unique,
            targets,
            sel,
            edge_buf,
            delta_t,
            mask,
            finder,
            stages,
            ..
        } = scratch;
        // Stage attribution: buffer prep and the mask/target fill are
        // assembly; the finder loops are sampling; the feature pull is the
        // gather stage. Regions chain (each close starts the next), so the
        // three stages tile assemble() exactly.
        let mut region = Instant::now();
        taser_obs::profile::enter(Stage::BatchAssembly);
        let r0 = unique.len();
        let r_total = if layers == 2 { r0 + r0 * n } else { r0 };
        targets.clear();
        targets.extend_from_slice(unique);
        sel.reset(r_total, n);
        delta_t.clear();
        delta_t.resize(r_total * n, 0.0);
        mask.clear();
        mask.resize(r_total * n, false);
        region = stages.close_region(Stage::BatchAssembly, region);

        for hop in 0..layers {
            taser_obs::profile::enter(Stage::Sampling);
            let (start, end) = if hop == 0 { (0, r0) } else { (r0, r_total) };
            // Per-target block launches tolerant of PAD targets and node ids
            // the snapshot has not seen yet (their slots stay padded).
            // Stochastic policies seed each block from
            // (node, t, generation, hop) — see the determinism contract.
            for (off, &(v, t0)) in targets[start..end].iter().enumerate() {
                let ti = start + off;
                if v == PAD || (v as usize) >= csr.num_nodes() {
                    continue;
                }
                let seed = if matches!(self.policy, SamplePolicy::MostRecent) {
                    0 // RNG-free policy
                } else {
                    mix(v as u64)
                        ^ mix(t0.to_bits()).rotate_left(21)
                        ^ mix(generation ^ ((hop as u64) << 56))
                };
                let (ns, ts, es, count) = sel.target_mut(ti);
                self.finder.sample_one_into(
                    csr,
                    v,
                    t0,
                    n,
                    self.policy,
                    seed,
                    finder,
                    ns,
                    ts,
                    es,
                    count,
                );
            }
            region = stages.close_region(Stage::Sampling, region);
            taser_obs::profile::enter(Stage::BatchAssembly);
            for ti in start..end {
                let (_, t0) = targets[ti];
                for j in 0..sel.counts[ti] {
                    let s = ti * n + j;
                    if sel.nodes[s] != PAD {
                        mask[s] = true;
                        delta_t[s] = (t0 - sel.times[s]) as f32;
                    }
                }
                if hop == 0 && layers == 2 {
                    for j in 0..n {
                        let s = ti * n + j;
                        targets.push(if mask[s] {
                            (sel.nodes[s], sel.times[s])
                        } else {
                            (PAD, 0.0)
                        });
                    }
                }
            }
            region = stages.close_region(Stage::BatchAssembly, region);
        }

        taser_obs::profile::enter(Stage::FeatureGather);
        if self.spec.edge_dim > 0 {
            feats.gather_into(&sel.eids, edge_buf);
        } else {
            edge_buf.clear();
        }
        stages.close_region(Stage::FeatureGather, region);
    }

    /// Level-0 embeddings for a node list as a host tensor (tape path);
    /// PAD rows and nodes beyond the trained feature table are zero.
    fn h0(&self, count: usize, nodes: impl Iterator<Item = u32>) -> Tensor {
        let d0 = self.spec.in_dim;
        let mut t = Tensor::zeros(&[count, d0]);
        if let Some(nf) = &self.node_feats {
            for (i, v) in nodes.enumerate() {
                if v != PAD && (v as usize) < nf.rows() {
                    t.data_mut()[i * d0..(i + 1) * d0].copy_from_slice(nf.row(v as usize));
                }
            }
        }
        t
    }

    /// Level-0 embeddings straight into the inference arena (fast path).
    fn h0_slot(&self, ctx: &mut InferCtx, count: usize, nodes: impl Iterator<Item = u32>) -> Slot {
        let d0 = self.spec.in_dim;
        let s = ctx.alloc_zeroed(count * d0);
        if let Some(nf) = &self.node_feats {
            let data = ctx.data_mut(s);
            for (i, v) in nodes.enumerate() {
                if v != PAD && (v as usize) < nf.rows() {
                    data[i * d0..(i + 1) * d0].copy_from_slice(nf.row(v as usize));
                }
            }
        }
        s
    }
}

/// A pipeline is shared read-only across worker threads.
pub type SharedPipeline = Arc<ScorePipeline>;

#[cfg(test)]
mod tests {
    use super::*;
    use taser_graph::events::EventLog;
    use taser_graph::tcsr::TCsr;
    use taser_models::artifact::{ArtifactBackbone, ModelSpec};

    fn default_policy_for(backbone: ArtifactBackbone) -> ArtifactPolicy {
        match backbone {
            ArtifactBackbone::Tgat => ArtifactPolicy::Uniform,
            ArtifactBackbone::GraphMixer => ArtifactPolicy::MostRecent,
        }
    }

    fn artifact(backbone: ArtifactBackbone) -> ModelArtifact {
        let spec = ModelSpec {
            backbone,
            in_dim: 4,
            edge_dim: 3,
            hidden: 8,
            time_dim: 6,
            heads: 2,
            n_neighbors: 4,
            dropout: 0.1,
            policy: default_policy_for(backbone),
        };
        let node_feats = FeatureMatrix::from_vec((0..40).map(|x| x as f32 * 0.01).collect(), 4);
        let edge_feats = FeatureMatrix::from_vec((0..60).map(|x| x as f32 * 0.02).collect(), 3);
        ModelArtifact::init(spec, Some(node_feats), Some(edge_feats), 11)
    }

    fn csr() -> TCsr {
        let log = EventLog::from_unsorted(
            (0..20u32)
                .map(|i| (i % 5, 5 + (i % 5), 1.0 + i as f64))
                .collect(),
        );
        TCsr::build(&log, 10)
    }

    fn cache() -> ServeFeatureCache {
        ServeFeatureCache::new(
            Some(FeatureMatrix::from_vec(
                (0..60).map(|x| x as f32 * 0.02).collect(),
                3,
            )),
            0.5,
            0.7,
            0,
            1,
        )
    }

    #[test]
    fn scores_are_probabilities_for_both_backbones() {
        for backbone in [ArtifactBackbone::GraphMixer, ArtifactBackbone::Tgat] {
            let (p, _) = ScorePipeline::new(artifact(backbone), None).unwrap();
            let feats = cache();
            let queries: Vec<LinkQuery> = (0..6)
                .map(|i| LinkQuery {
                    src: i % 5,
                    dst: 5 + (i % 5),
                    t: 25.0,
                })
                .collect();
            let probs = p.score_batch(&csr(), 0, &queries, &feats);
            assert_eq!(probs.len(), 6);
            for &pr in &probs {
                assert!(pr > 0.0 && pr < 1.0, "{backbone:?}: {pr}");
            }
        }
    }

    #[test]
    fn batch_composition_does_not_change_scores() {
        for backbone in [ArtifactBackbone::GraphMixer, ArtifactBackbone::Tgat] {
            let (p, _) = ScorePipeline::new(artifact(backbone), None).unwrap();
            let feats = cache();
            let target = LinkQuery {
                src: 2,
                dst: 7,
                t: 30.0,
            };
            let solo = p.score_one(&csr(), 5, target, &feats);
            let mut crowd: Vec<LinkQuery> = (0..9)
                .map(|i| LinkQuery {
                    src: i % 5,
                    dst: 5 + ((i + 3) % 5),
                    t: 28.0 + i as f64 * 0.25,
                })
                .collect();
            crowd.insert(4, target);
            let batched = p.score_batch(&csr(), 5, &crowd, &feats);
            assert_eq!(
                solo.to_bits(),
                batched[4].to_bits(),
                "{backbone:?}: determinism across batch compositions"
            );
        }
    }

    #[test]
    fn fast_and_tape_paths_agree() {
        for backbone in [ArtifactBackbone::GraphMixer, ArtifactBackbone::Tgat] {
            let (p, _) = ScorePipeline::new(artifact(backbone), None).unwrap();
            let feats = cache();
            let queries: Vec<LinkQuery> = (0..8)
                .map(|i| LinkQuery {
                    src: i % 5,
                    dst: 5 + ((i + 2) % 5),
                    t: 26.0 + i as f64 * 0.5,
                })
                .collect();
            let mut scratch = ScoreScratch::new();
            let mut fast = Vec::new();
            p.score_batch_into(&csr(), 3, &queries, &feats, &mut scratch, &mut fast);
            let tape = p.score_batch_tape(&csr(), 3, &queries, &feats);
            assert_eq!(fast.len(), tape.len());
            for (i, (a, b)) in fast.iter().zip(tape.iter()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-5,
                    "{backbone:?} query {i}: fast {a} vs tape {b}"
                );
            }
        }
    }

    #[test]
    fn steady_state_scratch_stops_growing() {
        let (p, _) = ScorePipeline::new(artifact(ArtifactBackbone::Tgat), None).unwrap();
        let feats = cache();
        let queries: Vec<LinkQuery> = (0..10)
            .map(|i| LinkQuery {
                src: i % 5,
                dst: 5 + (i % 5),
                t: 30.0 + i as f64,
            })
            .collect();
        let mut scratch = ScoreScratch::new();
        let mut out = Vec::new();
        for _ in 0..3 {
            p.score_batch_into(&csr(), 0, &queries, &feats, &mut scratch, &mut out);
        }
        let grows = scratch.ctx.grow_count();
        let water = scratch.ctx.high_water();
        for _ in 0..10 {
            p.score_batch_into(&csr(), 0, &queries, &feats, &mut scratch, &mut out);
        }
        assert_eq!(
            scratch.ctx.grow_count(),
            grows,
            "arena grew in steady state"
        );
        assert_eq!(scratch.ctx.high_water(), water, "watermark moved");
    }

    #[test]
    fn unknown_nodes_score_without_panicking() {
        let (p, _) = ScorePipeline::new(artifact(ArtifactBackbone::GraphMixer), None).unwrap();
        let feats = cache();
        // node 999 is beyond the snapshot AND the feature table
        let pr = p.score_one(
            &csr(),
            0,
            LinkQuery {
                src: 999,
                dst: 7,
                t: 30.0,
            },
            &feats,
        );
        assert!(pr > 0.0 && pr < 1.0);
    }

    #[test]
    fn cold_graph_scores_without_panicking() {
        let (p, _) = ScorePipeline::new(artifact(ArtifactBackbone::Tgat), None).unwrap();
        let feats = cache();
        let empty = TCsr::build(&EventLog::default(), 4);
        let pr = p.score_one(
            &empty,
            0,
            LinkQuery {
                src: 0,
                dst: 1,
                t: 1.0,
            },
            &feats,
        );
        assert!(pr.is_finite() && pr > 0.0 && pr < 1.0);
    }

    #[test]
    fn generation_participates_in_stochastic_seeds() {
        // Uniform policy: same query, different generations → allowed to
        // differ (and usually does); same generation → identical.
        let (p, _) = ScorePipeline::new(artifact(ArtifactBackbone::Tgat), None).unwrap();
        let feats = cache();
        let q = LinkQuery {
            src: 1,
            dst: 6,
            t: 30.0,
        };
        let a = p.score_one(&csr(), 3, q, &feats);
        let b = p.score_one(&csr(), 3, q, &feats);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
