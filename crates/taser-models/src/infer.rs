//! The inference fast path: packed models and the shared forward wiring.
//!
//! [`PackedModel`] is the tape-free twin of [`BuiltModel`]: every weight
//! matrix is packed **once at artifact load** into the register-tiled panel
//! layout of `taser_tensor::ops::PackedMatrix`, and forward passes run on an
//! [`InferCtx`] bump arena — no autograd tape, no per-op allocation.
//!
//! Both paths consume the same **combined hop layout**. For GraphMixer that
//! is simply the single hop (`r0` roots, `r0·n` neighbor slots). For TGAT,
//! layer 1 runs on `T1 = L0 ++ L1` (the roots followed by their hop-1
//! children), so the caller assembles *one* flat buffer per input with the
//! hop-0 segment as the prefix — layer 2's inputs are then literally prefix
//! views (`delta_t[..r0*n]`, rows `[0, r0)` and `[r0, r0+r0·n)` of layer 1's
//! output), which the fast path takes with zero-copy [`Slot`] views where the
//! tape path gathers.
//!
//! [`tape_forward`] is the single tape wiring over that layout, used by the
//! serving pipeline's fallback path and the differential tests — so the two
//! paths can never drift apart silently.
//!
//! Numerically the fast path replicates the tape's evaluation order
//! (ascending-`k` matmuls, identical softmax/LayerNorm formulas, identical
//! attention accumulation order); `tests/infer_equivalence.rs` holds the two
//! paths to 1e-5 across random shapes.

use crate::artifact::{ArtifactBackbone, BuiltAggregator, BuiltModel, ModelSpec};
use crate::batch::LayerBatch;
use crate::graphmixer::{MixerAggregator, MixerConfig};
use crate::predictor::EdgePredictor;
use crate::tgat::{TgatConfig, TgatLayer};
use crate::time_encoding::{FixedTimeEncoding, LearnableTimeEncoding};
use crate::Aggregator;
use taser_tensor::infer::{PackedLinear, PackedMixerBlock, PackedMlp, INFER_PANEL};
use taser_tensor::ops::fast_cos;
use taser_tensor::{Graph, InferCtx, ParamStore, Slot, Tensor, VarId};

/// Time encoding with host-resident parameters: `Φ(Δt) = cos(Δt·w + b)`
/// (fixed encodings carry `b = 0`). Evaluated with the inference-grade
/// [`fast_cos`] (max error ≈ 3e-7 vs. libm — inside the 1e-5 fast-vs-tape
/// equivalence budget, several times cheaper on the hot assemble path).
pub struct PackedTimeEncoding {
    w: Vec<f32>,
    b: Vec<f32>,
}

impl PackedTimeEncoding {
    /// Copies a learnable encoding's parameters out of the store.
    pub fn learnable(enc: &LearnableTimeEncoding, store: &ParamStore) -> Self {
        PackedTimeEncoding {
            w: store.value(enc.w_id()).data().to_vec(),
            b: store.value(enc.b_id()).data().to_vec(),
        }
    }

    /// Wraps a fixed encoding (zero phase).
    pub fn fixed(enc: &FixedTimeEncoding) -> Self {
        PackedTimeEncoding {
            b: vec![0.0; enc.dim()],
            w: enc.frequencies().to_vec(),
        }
    }

    /// Output dimension.
    pub fn dim(&self) -> usize {
        self.w.len()
    }

    /// Encodes timespans into a `[dts.len(), dim]` slot.
    pub fn encode(&self, ctx: &mut InferCtx, dts: &[f32]) -> Slot {
        let d = self.w.len();
        let s = ctx.alloc(dts.len() * d);
        for (row, &dt) in ctx.data_mut(s).chunks_mut(d).zip(dts) {
            for ((o, &w), &b) in row.iter_mut().zip(&self.w).zip(&self.b) {
                *o = fast_cos(dt * w + b);
            }
        }
        s
    }

    /// Assembles the message matrix `M = [h_u || x_uvt || Φ(Δt)]` (Eq. 1) in
    /// one pass: neighbor embeddings from the arena, edge features from the
    /// caller's gather buffer, and the time encoding computed in place —
    /// replacing the tape path's leaf-clone + `concat_cols` chain.
    pub fn assemble_msg(
        &self,
        ctx: &mut InferCtx,
        rows: usize,
        neigh: Slot,
        d0: usize,
        edge: Option<(&[f32], usize)>,
        delta_t: &[f32],
    ) -> Slot {
        let td = self.w.len();
        let de = edge.map_or(0, |(_, de)| de);
        let w = d0 + de + td;
        debug_assert_eq!(neigh.len(), rows * d0, "assemble_msg neigh size");
        debug_assert_eq!(delta_t.len(), rows, "assemble_msg delta size");
        let (out, prefix, od) = ctx.alloc_out(rows * w);
        let nd = InferCtx::view(prefix, neigh);
        for i in 0..rows {
            let row = &mut od[i * w..(i + 1) * w];
            row[..d0].copy_from_slice(&nd[i * d0..(i + 1) * d0]);
            if let Some((ed, de)) = edge {
                row[d0..d0 + de].copy_from_slice(&ed[i * de..(i + 1) * de]);
            }
            let dt = delta_t[i];
            for j in 0..td {
                row[d0 + de + j] = fast_cos(dt * self.w[j] + self.b[j]);
            }
        }
        out
    }
}

/// Which rows of a combined-layout target batch carry real (non-padded)
/// targets. Padded targets exist only so the flat TGAT layer-1 layout stays
/// rectangular; their outputs are consumed exclusively through masked
/// attention slots whose weights underflow to exactly `0.0`, so the packed
/// forward skips their dense compute and writes zeros instead.
#[derive(Clone, Copy)]
enum TargetValidity<'a> {
    /// Every target is real.
    All,
    /// Targets `[0, prefix)` are real roots; target `prefix + s` is real
    /// iff `slot_mask[s]` — the TGAT layer-1 combined layout, where hop-1
    /// targets line up one-to-one with hop-0 neighbor slots.
    PrefixThenMask {
        prefix: usize,
        slot_mask: &'a [bool],
    },
}

impl TargetValidity<'_> {
    #[inline]
    fn get(&self, i: usize) -> bool {
        match *self {
            TargetValidity::All => true,
            TargetValidity::PrefixThenMask { prefix, slot_mask } => {
                i < prefix || slot_mask[i - prefix]
            }
        }
    }
}

/// Packed single TGAT attention layer.
pub struct PackedTgatLayer {
    te: PackedTimeEncoding,
    wq: PackedLinear,
    wk: PackedLinear,
    wv: PackedLinear,
    out_mlp: PackedMlp,
    cfg: TgatConfig,
}

impl PackedTgatLayer {
    /// Packs a tape layer's weights.
    pub fn new(layer: &TgatLayer, store: &ParamStore, nr: usize) -> Self {
        PackedTgatLayer {
            te: PackedTimeEncoding::learnable(layer.time_enc(), store),
            wq: layer.w_q().pack(store, nr),
            wk: layer.w_k().pack(store, nr),
            wv: layer.w_v().pack(store, nr),
            out_mlp: layer.out_mlp().pack(store, nr),
            cfg: *layer.config(),
        }
    }

    /// Tape-free forward over `r` roots with `n` neighbor slots each.
    /// `edge` is `(flat buffer, edge_dim)` when the model has edge features.
    // The argument list mirrors the LayerBatch fields one-to-one, flattened
    // to slices so the caller's buffers are borrowed, never cloned.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        ctx: &mut InferCtx,
        r: usize,
        n: usize,
        root_feat: Slot,
        neigh_feat: Slot,
        edge: Option<(&[f32], usize)>,
        delta_t: &[f32],
        mask: &[bool],
    ) -> Slot {
        self.forward_with_validity(
            ctx,
            r,
            n,
            root_feat,
            neigh_feat,
            edge,
            delta_t,
            mask,
            TargetValidity::All,
        )
    }

    /// [`PackedTgatLayer::forward`] with padded-row skipping: targets
    /// reported invalid by `tv` get exactly-zero output rows and skip their
    /// Q projection, attention, and output-MLP compute; neighbor slots with
    /// `mask[s] == false` skip their K/V projections (their attention
    /// weight is exactly `0.0` after the softmax's `-1e9` bias, so the
    /// skipped values are never consumed). Valid targets' outputs are
    /// numerically identical to the dense pass.
    #[allow(clippy::too_many_arguments)]
    fn forward_with_validity(
        &self,
        ctx: &mut InferCtx,
        r: usize,
        n: usize,
        root_feat: Slot,
        neigh_feat: Slot,
        edge: Option<(&[f32], usize)>,
        delta_t: &[f32],
        mask: &[bool],
        tv: TargetValidity<'_>,
    ) -> Slot {
        let cfg = &self.cfg;
        let (d, h) = (cfg.out_dim, cfg.heads);
        let dh = d / h;
        debug_assert_eq!(root_feat.len(), r * cfg.in_dim, "tgat root size");
        debug_assert_eq!(neigh_feat.len(), r * n * cfg.in_dim, "tgat neigh size");

        // Message matrix and projections (Eq. 1, 4)
        let msg = self
            .te
            .assemble_msg(ctx, r * n, neigh_feat, cfg.in_dim, edge, delta_t);
        let phi0 = self.te.encode(ctx, &[0.0]); // one row, broadcast below
        let q_in = {
            let td = cfg.time_dim;
            let w = cfg.in_dim + td;
            let (out, prefix, od) = ctx.alloc_out(r * w);
            let rd = InferCtx::view(prefix, root_feat);
            let p0 = InferCtx::view(prefix, phi0);
            for i in 0..r {
                let row = &mut od[i * w..(i + 1) * w];
                row[..cfg.in_dim].copy_from_slice(&rd[i * cfg.in_dim..(i + 1) * cfg.in_dim]);
                row[cfg.in_dim..].copy_from_slice(p0);
            }
            out
        };
        let q = self.wq.forward_valid(ctx, q_in, r, |i| tv.get(i)); // [r, d]
        let k = self.wk.forward_valid(ctx, msg, r * n, |s| mask[s]); // [r*n, d]
        let v = self.wv.forward_valid(ctx, msg, r * n, |s| mask[s]); // [r*n, d]

        // Head-wise attention (Eq. 5-7) without split/merge copies: scores
        // and context index straight into the head's column range.
        let inv = 1.0 / (n as f32).sqrt();
        let attn = {
            let (s, prefix, od) = ctx.alloc_out(r * h * n);
            let qd = InferCtx::view(prefix, q);
            let kd = InferCtx::view(prefix, k);
            for ri in 0..r {
                if !tv.get(ri) {
                    // Never consumed (this target's output row is zeroed);
                    // zero-fill so the softmax below stays finite on the
                    // stale scratch.
                    od[ri * h * n..(ri + 1) * h * n].fill(0.0);
                    continue;
                }
                for hi in 0..h {
                    let row = &mut od[(ri * h + hi) * n..(ri * h + hi + 1) * n];
                    let qrow = &qd[ri * d + hi * dh..ri * d + (hi + 1) * dh];
                    for (j, o) in row.iter_mut().enumerate() {
                        let base = (ri * n + j) * d + hi * dh;
                        let krow = &kd[base..base + dh];
                        let dot: f32 = qrow.iter().zip(krow).map(|(a, b)| a * b).sum();
                        let bias = if mask[ri * n + j] { 0.0 } else { -1e9 };
                        *o = dot * inv + bias;
                    }
                }
            }
            s
        };
        ctx.softmax_rows_inplace(attn, n);

        // Context, merged heads, and the empty-neighborhood zeroing.
        let merged = {
            let (s, prefix, od) = ctx.alloc_out(r * d);
            let ad = InferCtx::view(prefix, attn);
            let vd = InferCtx::view(prefix, v);
            for ri in 0..r {
                let orow = &mut od[ri * d..(ri + 1) * d];
                if !tv.get(ri) {
                    orow.fill(0.0);
                    continue;
                }
                for hi in 0..h {
                    let arow = &ad[(ri * h + hi) * n..(ri * h + hi + 1) * n];
                    let dst = &mut orow[hi * dh..(hi + 1) * dh];
                    dst.fill(0.0);
                    for (j, &av) in arow.iter().enumerate() {
                        let base = (ri * n + j) * d + hi * dh;
                        for (o, &vv) in dst.iter_mut().zip(&vd[base..base + dh]) {
                            *o += av * vv;
                        }
                    }
                }
            }
            s
        };
        {
            let md = ctx.data_mut(merged);
            for ri in 0..r {
                if !mask[ri * n..(ri + 1) * n].iter().any(|&m| m) {
                    for x in &mut md[ri * d..(ri + 1) * d] {
                        *x *= 0.0;
                    }
                }
            }
        }

        // Output head over [context || root]
        let cat = ctx.concat_cols(&[(merged, d), (root_feat, cfg.in_dim)], r);
        self.out_mlp.forward_valid(ctx, cat, r, |i| tv.get(i))
    }
}

/// Packed GraphMixer aggregator.
pub struct PackedMixerAgg {
    te: PackedTimeEncoding,
    input_proj: PackedLinear,
    mixer: PackedMixerBlock,
    root_proj: PackedLinear,
    cfg: MixerConfig,
}

impl PackedMixerAgg {
    /// Packs a tape aggregator's weights.
    pub fn new(agg: &MixerAggregator, store: &ParamStore, nr: usize) -> Self {
        PackedMixerAgg {
            te: PackedTimeEncoding::fixed(agg.time_enc()),
            input_proj: agg.input_proj().pack(store, nr),
            mixer: agg.mixer().pack(store, nr),
            root_proj: agg.root_proj().pack(store, nr),
            cfg: *agg.config(),
        }
    }

    /// Tape-free forward over `r` roots (`n` must equal the token count).
    // Same flattened-LayerBatch argument shape as the TGAT layer.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        ctx: &mut InferCtx,
        r: usize,
        n: usize,
        root_feat: Slot,
        neigh_feat: Slot,
        edge: Option<(&[f32], usize)>,
        delta_t: &[f32],
        mask: &[bool],
    ) -> Slot {
        let cfg = &self.cfg;
        debug_assert_eq!(n, cfg.tokens, "mixer token count");
        let d = cfg.out_dim;
        let msg = self
            .te
            .assemble_msg(ctx, r * n, neigh_feat, cfg.in_dim, edge, delta_t);
        // Padded-row skipping: masked token rows used to be projected
        // densely and then multiplied by zero; skipping the projection
        // writes the same exact zeros without paying the matmul.
        let proj = self.input_proj.forward_valid(ctx, msg, r * n, |s| mask[s]);
        let mixed = self.mixer.forward(ctx, proj, r); // [r, n, d]
        let pooled = ctx.mean_tokens(mixed, r, n, d);
        let skip = self.root_proj.forward(ctx, root_feat, r);
        ctx.add(pooled, skip)
    }
}

/// Packed edge predictor.
pub struct PackedPredictor {
    mlp: PackedMlp,
    /// Embedding dimension per side.
    pub dim: usize,
}

impl PackedPredictor {
    /// Packs a tape predictor's weights.
    pub fn new(p: &EdgePredictor, store: &ParamStore, nr: usize) -> Self {
        PackedPredictor {
            mlp: p.mlp().pack(store, nr),
            dim: p.dim(),
        }
    }

    /// Logits for `b` pairs of `[b, dim]` embeddings, shape `[b, 1]`.
    pub fn forward(&self, ctx: &mut InferCtx, h_src: Slot, h_dst: Slot, b: usize) -> Slot {
        let cat = ctx.concat_cols(&[(h_src, self.dim), (h_dst, self.dim)], b);
        self.mlp.forward(ctx, cat, b)
    }
}

/// The packed backbone. (Variant sizes differ by construction — one mixer
/// vs. two attention layers — and exactly one lives per model.)
#[allow(clippy::large_enum_variant)]
pub enum PackedAggregator {
    /// Two stacked TGAT layers.
    Tgat {
        /// First (innermost) layer.
        l1: PackedTgatLayer,
        /// Second layer.
        l2: PackedTgatLayer,
    },
    /// Single GraphMixer aggregator.
    Mixer {
        /// The aggregator.
        agg: PackedMixerAgg,
    },
}

/// Flat combined-layout inputs shared by [`PackedModel::forward`] and
/// [`tape_forward`]. For TGAT every array covers `r0 + r0·n` targets with
/// the hop-0 segment as the prefix; for GraphMixer just `r0`.
pub struct InferArgs<'a> {
    /// Root (query-level) target count.
    pub r0: usize,
    /// Neighbor slots per target.
    pub n: usize,
    /// Level-0 target embeddings `[total_roots, in_dim]`.
    pub root_feat: Slot,
    /// Level-0 neighbor embeddings `[total_roots*n, in_dim]`.
    pub neigh_feat: Slot,
    /// Gathered edge features `[total_roots*n * edge_dim]`, if any.
    pub edge_feat: Option<&'a [f32]>,
    /// Timespans per neighbor slot `[total_roots*n]`.
    pub delta_t: &'a [f32],
    /// Validity mask per neighbor slot `[total_roots*n]`.
    pub mask: &'a [bool],
}

/// A model with every weight pre-packed for the tape-free forward.
pub struct PackedModel {
    spec: ModelSpec,
    agg: PackedAggregator,
    predictor: PackedPredictor,
}

impl PackedModel {
    /// Packs a built model at the inference panel width [`INFER_PANEL`].
    pub fn new(spec: &ModelSpec, model: &BuiltModel, store: &ParamStore) -> Self {
        let nr = INFER_PANEL;
        let agg = match &model.agg {
            BuiltAggregator::Tgat { l1, l2 } => PackedAggregator::Tgat {
                l1: PackedTgatLayer::new(l1, store, nr),
                l2: PackedTgatLayer::new(l2, store, nr),
            },
            BuiltAggregator::Mixer { agg } => PackedAggregator::Mixer {
                agg: PackedMixerAgg::new(agg, store, nr),
            },
        };
        PackedModel {
            spec: *spec,
            agg,
            predictor: PackedPredictor::new(&model.predictor, store, nr),
        }
    }

    /// The architecture being served.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Total target count across the combined layout for `r0` roots.
    pub fn total_roots(&self, r0: usize) -> usize {
        match self.spec.backbone {
            ArtifactBackbone::Tgat => r0 + r0 * self.spec.n_neighbors,
            ArtifactBackbone::GraphMixer => r0,
        }
    }

    /// Tape-free backbone forward; returns the `[r0, hidden]` embeddings.
    pub fn forward(&self, ctx: &mut InferCtx, args: &InferArgs<'_>) -> Slot {
        let (r0, n) = (args.r0, args.n);
        let de = self.spec.edge_dim;
        match &self.agg {
            PackedAggregator::Mixer { agg } => agg.forward(
                ctx,
                r0,
                n,
                args.root_feat,
                args.neigh_feat,
                args.edge_feat.map(|e| (e, de)),
                args.delta_t,
                args.mask,
            ),
            PackedAggregator::Tgat { l1, l2 } => {
                let rt = r0 + r0 * n;
                let hidden = self.spec.hidden;
                // Hop-1 target `r0 + s` is padding whenever hop-0 slot `s`
                // is masked; layer 1 skips those targets' dense compute
                // entirely (their layer-1 outputs are only ever consumed
                // through exactly-zero attention weights in layer 2).
                let out1 = l1.forward_with_validity(
                    ctx,
                    rt,
                    n,
                    args.root_feat,
                    args.neigh_feat,
                    args.edge_feat.map(|e| (e, de)),
                    args.delta_t,
                    args.mask,
                    TargetValidity::PrefixThenMask {
                        prefix: r0,
                        slot_mask: &args.mask[..r0 * n],
                    },
                );
                // Layer 2 consumes the hop-0 prefix of layer 1's output:
                // roots are rows [0, r0), neighbors rows [r0, r0 + r0*n) —
                // zero-copy views where the tape path gathers.
                let root2 = out1.prefix_rows(r0, hidden);
                let neigh2 = out1.rows_view(r0, r0 + r0 * n, hidden);
                l2.forward(
                    ctx,
                    r0,
                    n,
                    root2,
                    neigh2,
                    args.edge_feat.map(|e| (&e[..r0 * n * de], de)),
                    &args.delta_t[..r0 * n],
                    &args.mask[..r0 * n],
                )
            }
        }
    }

    /// Link logits for query pairs: gathers `src_rows`/`dst_rows` out of the
    /// `[*, hidden]` embedding slot and runs the packed predictor. Returns a
    /// `[pairs, 1]` slot.
    pub fn predict(
        &self,
        ctx: &mut InferCtx,
        h: Slot,
        src_rows: &[usize],
        dst_rows: &[usize],
    ) -> Slot {
        debug_assert_eq!(src_rows.len(), dst_rows.len());
        let d = self.spec.hidden;
        let h_src = ctx.gather_rows(h, d, src_rows);
        let h_dst = ctx.gather_rows(h, d, dst_rows);
        self.predictor.forward(ctx, h_src, h_dst, src_rows.len())
    }
}

/// Host tensors for [`tape_forward`], in the same combined layout as
/// [`InferArgs`].
pub struct TapeArgs<'a> {
    /// Root target count.
    pub r0: usize,
    /// Neighbor slots per target.
    pub n: usize,
    /// Level-0 target embeddings `[total_roots, in_dim]`.
    pub root_feat: Tensor,
    /// Level-0 neighbor embeddings `[total_roots*n, in_dim]`.
    pub neigh_feat: Tensor,
    /// Gathered edge features `[total_roots*n * edge_dim]`, if any.
    pub edge_feat: Option<&'a [f32]>,
    /// Timespans per neighbor slot.
    pub delta_t: &'a [f32],
    /// Validity mask per neighbor slot.
    pub mask: &'a [bool],
}

/// The tape (autograd-capable) forward over the combined hop layout — the
/// single wiring shared by the serving pipeline's tape path and the
/// differential tests.
pub fn tape_forward(
    g: &mut Graph,
    spec: &ModelSpec,
    model: &BuiltModel,
    store: &ParamStore,
    args: &TapeArgs<'_>,
) -> VarId {
    let (r0, n, de) = (args.r0, args.n, spec.edge_dim);
    match &model.agg {
        BuiltAggregator::Mixer { agg } => {
            let root = g.leaf(args.root_feat.clone());
            let neigh = g.leaf(args.neigh_feat.clone());
            let ef = args
                .edge_feat
                .map(|e| g.leaf(Tensor::from_vec(e.to_vec(), &[r0 * n, de])));
            let batch = LayerBatch::new(
                g,
                r0,
                n,
                root,
                neigh,
                ef,
                args.delta_t.to_vec(),
                args.mask.to_vec(),
            );
            agg.forward(g, store, &batch, false, 0).h
        }
        BuiltAggregator::Tgat { l1, l2 } => {
            let rt = r0 + r0 * n;
            let root1 = g.leaf(args.root_feat.clone());
            let neigh1 = g.leaf(args.neigh_feat.clone());
            let ef1 = args
                .edge_feat
                .map(|e| g.leaf(Tensor::from_vec(e.to_vec(), &[rt * n, de])));
            let batch1 = LayerBatch::new(
                g,
                rt,
                n,
                root1,
                neigh1,
                ef1,
                args.delta_t.to_vec(),
                args.mask.to_vec(),
            );
            let out1 = l1.forward(g, store, &batch1, false, 0);

            // Layer 2: roots = hop-0 targets (their layer-1 embeddings),
            // neighbors = hop-0 slots with layer-1 embeddings of the
            // matching hop-1 targets.
            let root_idx: Vec<usize> = (0..r0).collect();
            let root2 = g.gather_rows(out1.h, &root_idx);
            let neigh_idx: Vec<usize> = (0..r0 * n).map(|s| r0 + s).collect();
            let neigh2 = g.gather_rows(out1.h, &neigh_idx);
            let ef2 = args
                .edge_feat
                .map(|e| g.leaf(Tensor::from_vec(e[..r0 * n * de].to_vec(), &[r0 * n, de])));
            let batch2 = LayerBatch::new(
                g,
                r0,
                n,
                root2,
                neigh2,
                ef2,
                args.delta_t[..r0 * n].to_vec(),
                args.mask[..r0 * n].to_vec(),
            );
            l2.forward(g, store, &batch2, false, 0).h
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ArtifactPolicy, ModelArtifact};

    fn spec(backbone: ArtifactBackbone, edge_dim: usize) -> ModelSpec {
        ModelSpec {
            backbone,
            in_dim: 5,
            edge_dim,
            hidden: 8,
            time_dim: 6,
            heads: 2,
            n_neighbors: 4,
            dropout: 0.0,
            policy: ArtifactPolicy::MostRecent,
        }
    }

    /// Deterministic pseudo-random args for a spec.
    fn args_for(
        spec: &ModelSpec,
        r0: usize,
        seed: u64,
    ) -> (Tensor, Tensor, Vec<f32>, Vec<f32>, Vec<bool>) {
        let n = spec.n_neighbors;
        let total = match spec.backbone {
            ArtifactBackbone::Tgat => r0 + r0 * n,
            ArtifactBackbone::GraphMixer => r0,
        };
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let root = Tensor::from_vec(
            (0..total * spec.in_dim).map(|_| next()).collect(),
            &[total, spec.in_dim],
        );
        let neigh = Tensor::from_vec(
            (0..total * n * spec.in_dim).map(|_| next()).collect(),
            &[total * n, spec.in_dim],
        );
        let edge: Vec<f32> = (0..total * n * spec.edge_dim).map(|_| next()).collect();
        let delta: Vec<f32> = (0..total * n).map(|_| next().abs() * 100.0).collect();
        let mask: Vec<bool> = (0..total * n).map(|i| i % 7 != 3).collect();
        (root, neigh, edge, delta, mask)
    }

    #[test]
    fn packed_forward_matches_tape_forward() {
        for backbone in [ArtifactBackbone::GraphMixer, ArtifactBackbone::Tgat] {
            for edge_dim in [0usize, 3] {
                let spec = spec(backbone, edge_dim);
                let artifact = ModelArtifact::init(spec, None, None, 17);
                let built = artifact.build().unwrap();
                let packed = PackedModel::new(&spec, &built, &artifact.store);
                let (root, neigh, edge, delta, mask) = args_for(&spec, 3, 99);
                let ef = (edge_dim > 0).then_some(edge.as_slice());

                let mut g = Graph::inference();
                let want = tape_forward(
                    &mut g,
                    &spec,
                    &built,
                    &artifact.store,
                    &TapeArgs {
                        r0: 3,
                        n: spec.n_neighbors,
                        root_feat: root.clone(),
                        neigh_feat: neigh.clone(),
                        edge_feat: ef,
                        delta_t: &delta,
                        mask: &mask,
                    },
                );

                let mut ctx = InferCtx::new();
                let rs = ctx.slot_from(root.data());
                let ns = ctx.slot_from(neigh.data());
                let got = packed.forward(
                    &mut ctx,
                    &InferArgs {
                        r0: 3,
                        n: spec.n_neighbors,
                        root_feat: rs,
                        neigh_feat: ns,
                        edge_feat: ef,
                        delta_t: &delta,
                        mask: &mask,
                    },
                );
                let wd = g.data(want).data();
                let gd = ctx.data(got);
                assert_eq!(wd.len(), gd.len(), "{backbone:?} de={edge_dim}");
                for (i, (a, b)) in wd.iter().zip(gd.iter()).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-5,
                        "{backbone:?} de={edge_dim} [{i}]: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_predict_matches_tape_predictor() {
        let spec = spec(ArtifactBackbone::GraphMixer, 3);
        let artifact = ModelArtifact::init(spec, None, None, 23);
        let built = artifact.build().unwrap();
        let packed = PackedModel::new(&spec, &built, &artifact.store);
        let h = Tensor::from_vec((0..40).map(|v| (v as f32).sin()).collect(), &[5, 8]);
        let (src, dst) = (vec![0usize, 3, 2], vec![1usize, 4, 2]);

        let mut g = Graph::inference();
        let hv = g.leaf(h.clone());
        let hs = g.gather_rows(hv, &src);
        let hd = g.gather_rows(hv, &dst);
        let want = built.predictor.forward(&mut g, &artifact.store, hs, hd);

        let mut ctx = InferCtx::new();
        let hslot = ctx.slot_from(h.data());
        let got = packed.predict(&mut ctx, hslot, &src, &dst);
        let (wd, gd) = (g.data(want).data(), ctx.data(got));
        assert_eq!(wd.len(), gd.len());
        for (a, b) in wd.iter().zip(gd.iter()) {
            // FMA inference kernel vs. portable tape kernel: ≤1e-5, not bit-exact
            assert!((a - b).abs() <= 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn steady_state_forward_does_not_grow_the_arena() {
        let spec = spec(ArtifactBackbone::Tgat, 3);
        let artifact = ModelArtifact::init(spec, None, None, 5);
        let built = artifact.build().unwrap();
        let packed = PackedModel::new(&spec, &built, &artifact.store);
        let (root, neigh, edge, delta, mask) = args_for(&spec, 4, 7);
        let mut ctx = InferCtx::new();
        for _ in 0..3 {
            ctx.reset();
            let rs = ctx.slot_from(root.data());
            let ns = ctx.slot_from(neigh.data());
            let h = packed.forward(
                &mut ctx,
                &InferArgs {
                    r0: 4,
                    n: spec.n_neighbors,
                    root_feat: rs,
                    neigh_feat: ns,
                    edge_feat: Some(&edge),
                    delta_t: &delta,
                    mask: &mask,
                },
            );
            let _ = packed.predict(&mut ctx, h, &[0, 1], &[2, 3]);
        }
        let grows = ctx.grow_count();
        let water = ctx.high_water();
        for _ in 0..20 {
            ctx.reset();
            let rs = ctx.slot_from(root.data());
            let ns = ctx.slot_from(neigh.data());
            let h = packed.forward(
                &mut ctx,
                &InferArgs {
                    r0: 4,
                    n: spec.n_neighbors,
                    root_feat: rs,
                    neigh_feat: ns,
                    edge_feat: Some(&edge),
                    delta_t: &delta,
                    mask: &mask,
                },
            );
            let _ = packed.predict(&mut ctx, h, &[0, 1], &[2, 3]);
        }
        assert_eq!(ctx.grow_count(), grows, "arena grew in steady state");
        assert_eq!(ctx.high_water(), water, "watermark moved in steady state");
    }
}
