//! Tape-free inference: a bump-allocated scratch arena plus packed-weight
//! layer kernels.
//!
//! The autograd tape in [`crate::graph`] allocates per op — a fresh `Vec`
//! for every output, boxed backward closures, clones for identity ops. That
//! is the right trade for training and the wrong one for serving, where the
//! same shapes run millions of times. This module provides the inference
//! twin:
//!
//! * [`InferCtx`] — a bump arena of `f32` scratch. `alloc` hands out
//!   [`Slot`] handles from one backing buffer; [`InferCtx::reset`] rewinds
//!   the bump pointer between batches. After warmup (once the high-water
//!   mark stabilizes) a forward pass performs **zero heap allocations**.
//! * [`PackedLinear`] / [`PackedMlp`] / [`PackedLayerNorm`] /
//!   [`PackedMixerBlock`] — layer kernels whose weights were packed once
//!   (via the `pack` methods on [`crate::nn`] layers) into the
//!   register-tiled panel layout of [`crate::ops::PackedMatrix`] and are
//!   reused across every batch.
//!
//! Every kernel replicates the tape path's floating-point evaluation order
//! (ascending-`k` matmul accumulation, identical LayerNorm/softmax
//! formulas), so fast-path outputs are bit-compatible with the tape forward
//! — the differential suite in `tests/infer_equivalence.rs` holds them to
//! 1e-5.
//!
//! Kernels here are deliberately **sequential**: in the serving engine each
//! worker thread owns one `InferCtx`, and parallelism comes from running
//! many workers (and many batches) concurrently, not from fanning a single
//! small batch out over rayon.

use crate::nn::{LayerNorm, Linear, MixerBlock, Mlp};
use crate::ops::{self, PackedMatrix};
use crate::optim::ParamStore;

/// Default packed-panel width for inference weights: 16 lanes = two 256-bit
/// registers per accumulator row on the AVX2+FMA kernel, the fastest width
/// in the 4/8/16 blocking sweep (EXPERIMENTS.md, "Inference fast path").
pub const INFER_PANEL: usize = 16;

/// Handle to a range of `f32` scratch inside an [`InferCtx`].
///
/// Slots are plain offsets — copyable, unaffected by arena growth, and
/// valid until the next [`InferCtx::reset`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    off: usize,
    len: usize,
}

impl Slot {
    /// Number of `f32` elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length slots (e.g. absent edge features).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A view of the leading `rows` rows of a `[.., d]` slot — no copy, the
    /// sub-slot aliases the same arena range. Used by the TGAT wiring where
    /// layer-2 inputs are exactly the hop-0 prefix of layer-1 outputs.
    #[inline]
    pub fn prefix_rows(&self, rows: usize, d: usize) -> Slot {
        debug_assert!(rows * d <= self.len);
        Slot {
            off: self.off,
            len: rows * d,
        }
    }

    /// A view of rows `[start, end)` of a `[.., d]` slot (no copy).
    #[inline]
    pub fn rows_view(&self, start: usize, end: usize, d: usize) -> Slot {
        debug_assert!(start <= end && end * d <= self.len);
        Slot {
            off: self.off + start * d,
            len: (end - start) * d,
        }
    }
}

/// Bump-allocated `f32` scratch arena for tape-free forward passes.
///
/// One `InferCtx` per worker thread; [`InferCtx::reset`] before each batch.
/// The backing buffer only grows (never shrinks), so once the workload's
/// peak footprint has been seen, steady-state batches are allocation-free —
/// asserted by `tests/zero_alloc.rs` with a counting allocator and
/// observable via [`InferCtx::grow_count`] / [`InferCtx::high_water`].
#[derive(Default)]
pub struct InferCtx {
    buf: Vec<f32>,
    off: usize,
    high_water: usize,
    grows: u64,
}

impl InferCtx {
    /// An empty arena (grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena pre-sized to `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        InferCtx {
            buf: vec![0.0; cap],
            ..Self::default()
        }
    }

    /// Rewinds the bump pointer; previously returned [`Slot`]s are dead.
    #[inline]
    pub fn reset(&mut self) {
        self.off = 0;
    }

    /// Current bump offset (elements in use).
    #[inline]
    pub fn used(&self) -> usize {
        self.off
    }

    /// Peak bump offset ever reached (the arena watermark).
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of times the backing buffer had to grow. Stable after warmup.
    #[inline]
    pub fn grow_count(&self) -> u64 {
        self.grows
    }

    /// Allocates `len` elements. Contents are unspecified (stale scratch) —
    /// callers must fully overwrite, or use [`InferCtx::alloc_zeroed`].
    pub fn alloc(&mut self, len: usize) -> Slot {
        let off = self.off;
        let end = off + len;
        if end > self.buf.len() {
            self.grows += 1;
            self.buf.resize(end.next_power_of_two().max(1024), 0.0);
        }
        self.off = end;
        self.high_water = self.high_water.max(end);
        Slot { off, len }
    }

    /// Allocates `len` zero-filled elements.
    pub fn alloc_zeroed(&mut self, len: usize) -> Slot {
        let s = self.alloc(len);
        self.data_mut(s).fill(0.0);
        s
    }

    /// Allocates a slot holding a copy of `src`.
    pub fn slot_from(&mut self, src: &[f32]) -> Slot {
        let s = self.alloc(src.len());
        self.data_mut(s).copy_from_slice(src);
        s
    }

    /// Immutable view of a slot.
    #[inline]
    pub fn data(&self, s: Slot) -> &[f32] {
        &self.buf[s.off..s.off + s.len]
    }

    /// Mutable view of a slot.
    #[inline]
    pub fn data_mut(&mut self, s: Slot) -> &mut [f32] {
        &mut self.buf[s.off..s.off + s.len]
    }

    /// Allocates an output slot and returns `(slot, prefix, out)` where
    /// `prefix` covers every previously allocated slot (index it with
    /// [`InferCtx::view`]) and `out` is the fresh range. This is the borrow
    /// splitter every multi-input kernel builds on: bump allocation
    /// guarantees inputs precede outputs.
    pub fn alloc_out(&mut self, len: usize) -> (Slot, &[f32], &mut [f32]) {
        let s = self.alloc(len);
        let (head, tail) = self.buf.split_at_mut(s.off);
        (s, head, &mut tail[..len])
    }

    /// Resolves a slot inside a `prefix` returned by [`InferCtx::alloc_out`].
    #[inline]
    pub fn view(prefix: &[f32], s: Slot) -> &[f32] {
        &prefix[s.off..s.off + s.len]
    }

    // ---- generic kernels ----

    /// Column-concatenates `parts` (each `(slot, width)` with `rows` rows)
    /// into a `[rows, Σwidth]` slot.
    pub fn concat_cols(&mut self, parts: &[(Slot, usize)], rows: usize) -> Slot {
        let total: usize = parts.iter().map(|&(_, w)| w).sum();
        let (out, prefix, od) = self.alloc_out(rows * total);
        let mut off = 0;
        for &(p, w) in parts {
            let pd = Self::view(prefix, p);
            debug_assert_eq!(pd.len(), rows * w, "concat_cols part size");
            for r in 0..rows {
                od[r * total + off..r * total + off + w].copy_from_slice(&pd[r * w..(r + 1) * w]);
            }
            off += w;
        }
        out
    }

    /// Gathers rows of a `[.., d]` slot: `out[i] = src[idx[i]]`.
    pub fn gather_rows(&mut self, src: Slot, d: usize, idx: &[usize]) -> Slot {
        let (out, prefix, od) = self.alloc_out(idx.len() * d);
        let sd = Self::view(prefix, src);
        for (i, &j) in idx.iter().enumerate() {
            od[i * d..(i + 1) * d].copy_from_slice(&sd[j * d..(j + 1) * d]);
        }
        out
    }

    /// Element-wise sum of two same-length slots into a new slot.
    pub fn add(&mut self, a: Slot, b: Slot) -> Slot {
        debug_assert_eq!(a.len, b.len, "add length mismatch");
        let (out, prefix, od) = self.alloc_out(a.len);
        let ad = Self::view(prefix, a);
        let bd = Self::view(prefix, b);
        for ((o, &x), &y) in od.iter_mut().zip(ad).zip(bd) {
            *o = x + y;
        }
        out
    }

    /// In-place GeLU (same [`ops::gelu`] the tape uses).
    pub fn gelu_inplace(&mut self, s: Slot) {
        for v in self.data_mut(s) {
            *v = ops::gelu(*v);
        }
    }

    /// Permutes `[b, n, d]` to `[b, d, n]` into a new slot.
    pub fn transpose12(&mut self, s: Slot, b: usize, n: usize, d: usize) -> Slot {
        let (out, prefix, od) = self.alloc_out(b * d * n);
        let sd = Self::view(prefix, s);
        for bi in 0..b {
            let xs = &sd[bi * n * d..(bi + 1) * n * d];
            let slab = &mut od[bi * d * n..(bi + 1) * d * n];
            for i in 0..n {
                for j in 0..d {
                    slab[j * n + i] = xs[i * d + j];
                }
            }
        }
        out
    }

    /// Mean over the token dimension: `[b, n, d] -> [b, d]` (same
    /// accumulate-then-scale order as [`ops::mean_tokens`]).
    pub fn mean_tokens(&mut self, s: Slot, b: usize, n: usize, d: usize) -> Slot {
        let (out, prefix, od) = self.alloc_out(b * d);
        let sd = Self::view(prefix, s);
        od.fill(0.0);
        let inv = 1.0 / n as f32;
        for bi in 0..b {
            let slab = &sd[bi * n * d..(bi + 1) * n * d];
            let orow = &mut od[bi * d..(bi + 1) * d];
            for i in 0..n {
                for (o, &v) in orow.iter_mut().zip(slab[i * d..(i + 1) * d].iter()) {
                    *o += v;
                }
            }
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
        out
    }

    /// Row-wise softmax over trailing dimension `d`, in place (same
    /// stabilized formula as [`ops::softmax_lastdim`]).
    pub fn softmax_rows_inplace(&mut self, s: Slot, d: usize) {
        for row in self.data_mut(s).chunks_mut(d) {
            let maxv = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - maxv).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
}

/// 4-way reassociated reduction: four independent accumulator lanes broken
/// out of the sequential sum so the adds pipeline instead of chaining.
#[inline]
fn lane_sum(xs: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    let mut acc = [0.0f32; 4];
    let mut chunks = xs.chunks_exact(4);
    for c in chunks.by_ref() {
        for j in 0..4 {
            acc[j] += f(c[j]);
        }
    }
    let tail: f32 = chunks.remainder().iter().map(|&v| f(v)).sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// A [`Linear`] layer with its weight pre-packed and bias copied out of the
/// [`ParamStore`] — built once at model load via [`Linear::pack`].
pub struct PackedLinear {
    w: PackedMatrix,
    bias: Option<Vec<f32>>,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Output feature dimension.
    pub out_dim: usize,
}

impl PackedLinear {
    /// Packs weight (and bias) tensors. `nr` is the *preferred* panel
    /// width; narrow layers clamp it to the smallest width covering
    /// `out_dim` so a 5-wide token MLP does not burn 11 of 16 FMA lanes
    /// per step on zero padding.
    pub fn new(
        weight: &crate::tensor::Tensor,
        bias: Option<&crate::tensor::Tensor>,
        nr: usize,
    ) -> Self {
        assert_eq!(weight.shape().len(), 2, "linear weight must be rank-2");
        let (in_dim, out_dim) = (weight.shape()[0], weight.shape()[1]);
        let fitted = [4usize, 8, 16]
            .into_iter()
            .find(|&w| w >= out_dim)
            .unwrap_or(nr)
            .min(nr);
        PackedLinear {
            w: PackedMatrix::from_tensor(weight, fitted),
            bias: bias.map(|b| b.data().to_vec()),
            in_dim,
            out_dim,
        }
    }

    /// `y = x·W (+ b)` for a `[rows, in_dim]` slot, bias fused into the
    /// matmul epilogue.
    pub fn forward(&self, ctx: &mut InferCtx, x: Slot, rows: usize) -> Slot {
        debug_assert_eq!(x.len(), rows * self.in_dim, "packed linear input");
        let (out, prefix, od) = ctx.alloc_out(rows * self.out_dim);
        ops::matmul_packed_infer_into(
            InferCtx::view(prefix, x),
            rows,
            self.in_dim,
            &self.w,
            self.bias.as_deref(),
            od,
        );
        out
    }

    /// Padded-row-skipping variant of [`PackedLinear::forward`]: rows with
    /// `valid(i) == false` are zero-filled without touching the weights,
    /// and the valid rows run through the packed kernel in maximal
    /// contiguous runs. The kernel computes every output row independently
    /// (its register tiles never mix rows' accumulators), so each valid
    /// row's result is **bit-identical** to the dense forward regardless of
    /// how the runs split. Callers are responsible for only skipping rows
    /// whose outputs are never consumed with nonzero weight — e.g. masked
    /// neighbor slots, whose attention weight underflows to exactly `0.0`.
    ///
    /// Allocation-free apart from the output slot (the serving zero-alloc
    /// contract): validity is a predicate, not a materialized mask.
    pub fn forward_valid(
        &self,
        ctx: &mut InferCtx,
        x: Slot,
        rows: usize,
        valid: impl Fn(usize) -> bool,
    ) -> Slot {
        debug_assert_eq!(x.len(), rows * self.in_dim, "packed linear input");
        let (out, prefix, od) = ctx.alloc_out(rows * self.out_dim);
        let xd = InferCtx::view(prefix, x);
        let (k, m) = (self.in_dim, self.out_dim);
        let mut i = 0;
        while i < rows {
            if !valid(i) {
                od[i * m..(i + 1) * m].fill(0.0);
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < rows && valid(j) {
                j += 1;
            }
            ops::matmul_packed_infer_into(
                &xd[i * k..j * k],
                j - i,
                k,
                &self.w,
                self.bias.as_deref(),
                &mut od[i * m..j * m],
            );
            i = j;
        }
        out
    }
}

/// Packed two-layer MLP with GeLU (twin of [`Mlp`]).
pub struct PackedMlp {
    /// First projection.
    pub fc1: PackedLinear,
    /// Second projection.
    pub fc2: PackedLinear,
}

impl PackedMlp {
    /// Applies `fc2(gelu(fc1(x)))` to a `[rows, in_dim]` slot.
    pub fn forward(&self, ctx: &mut InferCtx, x: Slot, rows: usize) -> Slot {
        let h = self.fc1.forward(ctx, x, rows);
        ctx.gelu_inplace(h);
        self.fc2.forward(ctx, h, rows)
    }

    /// Padded-row-skipping twin of [`PackedMlp::forward`]: invalid rows come
    /// out exactly zero, valid rows are bit-identical to the dense pass
    /// (see [`PackedLinear::forward_valid`]; `gelu(0) = 0`, so the
    /// activation keeps skipped rows zero between the two projections).
    pub fn forward_valid(
        &self,
        ctx: &mut InferCtx,
        x: Slot,
        rows: usize,
        valid: impl Fn(usize) -> bool,
    ) -> Slot {
        let h = self.fc1.forward_valid(ctx, x, rows, &valid);
        ctx.gelu_inplace(h);
        self.fc2.forward_valid(ctx, h, rows, &valid)
    }
}

/// LayerNorm with its affine parameters copied out of the store.
pub struct PackedLayerNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    eps: f32,
    /// Normalized (trailing) dimension.
    pub dim: usize,
}

impl PackedLayerNorm {
    /// Copies the affine parameters.
    pub fn new(gamma: &crate::tensor::Tensor, beta: &crate::tensor::Tensor, eps: f32) -> Self {
        let dim = gamma.numel();
        assert_eq!(beta.numel(), dim, "layer norm affine dims");
        PackedLayerNorm {
            gamma: gamma.data().to_vec(),
            beta: beta.data().to_vec(),
            eps,
            dim,
        }
    }

    /// Normalizes each trailing-`dim` row. Same formula as
    /// [`ops::layer_norm`], but the mean/variance reductions run as 4-way
    /// partial sums — reassociation the sequential tape sum cannot do —
    /// trading a ~1e-7 numeric difference (inside the 1e-5 fast-vs-tape
    /// budget) for breaking the add-latency chain.
    pub fn forward(&self, ctx: &mut InferCtx, x: Slot) -> Slot {
        let d = self.dim;
        let (out, prefix, od) = ctx.alloc_out(x.len());
        let xd = InferCtx::view(prefix, x);
        for (orow, xrow) in od.chunks_mut(d).zip(xd.chunks(d)) {
            let mean = lane_sum(xrow, |v| v) / d as f32;
            let var = lane_sum(xrow, |v| (v - mean) * (v - mean)) / d as f32;
            let r = 1.0 / (var + self.eps).sqrt();
            for j in 0..d {
                orow[j] = (xrow[j] - mean) * r * self.gamma[j] + self.beta[j];
            }
        }
        out
    }
}

/// Packed MLP-Mixer block (twin of [`MixerBlock`]).
pub struct PackedMixerBlock {
    ln_token: PackedLayerNorm,
    ln_chan: PackedLayerNorm,
    token_mlp: PackedMlp,
    chan_mlp: PackedMlp,
    /// Token (neighbor) count the block was built for.
    pub tokens: usize,
    /// Channel dimension.
    pub dim: usize,
}

impl PackedMixerBlock {
    /// Assembles a packed block from packed parts.
    pub fn from_parts(
        ln_token: PackedLayerNorm,
        ln_chan: PackedLayerNorm,
        token_mlp: PackedMlp,
        chan_mlp: PackedMlp,
        tokens: usize,
        dim: usize,
    ) -> Self {
        PackedMixerBlock {
            ln_token,
            ln_chan,
            token_mlp,
            chan_mlp,
            tokens,
            dim,
        }
    }

    /// Token mixing + channel mixing with residuals over a `[b, tokens, dim]`
    /// slot — step-for-step the tape [`MixerBlock::forward`].
    pub fn forward(&self, ctx: &mut InferCtx, x: Slot, b: usize) -> Slot {
        let (n, d) = (self.tokens, self.dim);
        debug_assert_eq!(x.len(), b * n * d, "mixer block input");
        // Token mixing: LN -> [b, d, n] -> MLP over tokens -> back -> +x
        let normed = self.ln_token.forward(ctx, x);
        let t = ctx.transpose12(normed, b, n, d);
        let mixed = self.token_mlp.forward(ctx, t, b * d);
        let back = ctx.transpose12(mixed, b, d, n);
        let x1 = ctx.add(x, back);
        // Channel mixing: LN -> MLP over channels -> +x1
        let normed2 = self.ln_chan.forward(ctx, x1);
        let cm = self.chan_mlp.forward(ctx, normed2, b * n);
        ctx.add(x1, cm)
    }
}

impl Linear {
    /// Packs this layer's parameters for the tape-free path.
    pub fn pack(&self, store: &ParamStore, nr: usize) -> PackedLinear {
        PackedLinear::new(
            store.value(self.weight()),
            self.bias().map(|b| store.value(b)),
            nr,
        )
    }
}

impl Mlp {
    /// Packs both projections.
    pub fn pack(&self, store: &ParamStore, nr: usize) -> PackedMlp {
        PackedMlp {
            fc1: self.fc1.pack(store, nr),
            fc2: self.fc2.pack(store, nr),
        }
    }
}

impl LayerNorm {
    /// Copies the affine parameters out of the store.
    pub fn pack(&self, store: &ParamStore) -> PackedLayerNorm {
        PackedLayerNorm::new(
            store.value(self.gamma_id()),
            store.value(self.beta_id()),
            self.eps(),
        )
    }
}

impl MixerBlock {
    /// Packs the whole block.
    pub fn pack(&self, store: &ParamStore, nr: usize) -> PackedMixerBlock {
        PackedMixerBlock::from_parts(
            self.ln_token().pack(store),
            self.ln_chan().pack(store),
            self.token_mlp.pack(store, nr),
            self.chan_mlp.pack(store, nr),
            self.tokens,
            self.dim,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::init;
    use crate::tensor::Tensor;

    #[test]
    fn arena_reuses_backing_storage() {
        let mut ctx = InferCtx::new();
        for round in 0..5 {
            ctx.reset();
            let a = ctx.alloc_zeroed(100);
            let b = ctx.slot_from(&[1.0; 50]);
            assert_eq!(ctx.data(a).len(), 100);
            assert_eq!(ctx.data(b)[0], 1.0);
            if round == 0 {
                assert!(ctx.grow_count() >= 1);
            }
        }
        let grows = ctx.grow_count();
        assert_eq!(ctx.high_water(), 150);
        for _ in 0..10 {
            ctx.reset();
            let _ = ctx.alloc(150);
        }
        assert_eq!(ctx.grow_count(), grows, "steady state must not grow");
    }

    #[test]
    fn slot_views_alias_without_copy() {
        let mut ctx = InferCtx::new();
        let s = ctx.slot_from(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]); // [3, 2]
        let head = s.prefix_rows(2, 2);
        assert_eq!(ctx.data(head), &[0.0, 1.0, 2.0, 3.0]);
        let tail = s.rows_view(1, 3, 2);
        assert_eq!(ctx.data(tail), &[2.0, 3.0, 4.0, 5.0]);
    }

    /// Element-wise tolerance check: the packed path may use the FMA kernel
    /// (one rounding per accumulation step) while the tape uses the
    /// portable, machine-independent kernel — agreement is ≤1e-5, not
    /// bit-exact.
    fn assert_close(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() <= 1e-5, "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn packed_linear_matches_tape_linear() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 7, 5, 3);
        let x = init::uniform(&[9, 7], -1.0, 1.0, 11);
        let mut g = Graph::inference();
        let xv = g.leaf(x.clone());
        let want = lin.forward(&mut g, &store, xv);
        for nr in [4usize, 8, 16] {
            let packed = lin.pack(&store, nr);
            let mut ctx = InferCtx::new();
            let xs = ctx.slot_from(x.data());
            let got = packed.forward(&mut ctx, xs, 9);
            assert_close(ctx.data(got), g.data(want).data(), "linear");
        }
    }

    #[test]
    fn forward_valid_skips_rows_bit_exactly() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 6, 9, 3);
        let mlp = Mlp::new(&mut store, "m", 6, 12, 9, 5);
        let x = init::uniform(&[11, 6], -1.0, 1.0, 17);
        // alternating and clustered invalid rows: exercises run splitting at
        // every boundary shape (head, middle, tail, singleton runs)
        for pattern in [
            [true; 11],
            [false; 11],
            [
                true, false, true, true, false, false, true, true, true, false, true,
            ],
        ] {
            let packed = lin.pack(&store, 8);
            let pmlp = mlp.pack(&store, 8);
            let mut ctx = InferCtx::new();
            let xs = ctx.slot_from(x.data());
            let dense = packed.forward(&mut ctx, xs, 11);
            let sparse = packed.forward_valid(&mut ctx, xs, 11, |i| pattern[i]);
            let mdense = pmlp.forward(&mut ctx, xs, 11);
            let msparse = pmlp.forward_valid(&mut ctx, xs, 11, |i| pattern[i]);
            for (i, &keep) in pattern.iter().enumerate() {
                let (d, s) = (
                    &ctx.data(dense)[i * 9..][..9],
                    &ctx.data(sparse)[i * 9..][..9],
                );
                let (md, ms) = (
                    &ctx.data(mdense)[i * 9..][..9],
                    &ctx.data(msparse)[i * 9..][..9],
                );
                if keep {
                    assert_eq!(d, s, "valid row {i} must be bit-identical");
                    assert_eq!(md, ms, "valid mlp row {i} must be bit-identical");
                } else {
                    assert!(s.iter().all(|&v| v == 0.0), "skipped row {i} must be zero");
                    assert!(
                        ms.iter().all(|&v| v == 0.0),
                        "skipped mlp row {i} must be zero"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_mlp_and_layernorm_match_tape() {
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", 6, 10, 4, 5);
        let ln = LayerNorm::new(&mut store, "ln", 6);
        let x = init::uniform(&[8, 6], -2.0, 2.0, 3);
        let mut g = Graph::inference();
        let xv = g.leaf(x.clone());
        let ln_want = ln.forward(&mut g, &store, xv);
        let mlp_want = mlp.forward(&mut g, &store, xv);
        let mut ctx = InferCtx::new();
        let xs = ctx.slot_from(x.data());
        let ln_got = ln.pack(&store).forward(&mut ctx, xs);
        let mlp_got = mlp.pack(&store, 8).forward(&mut ctx, xs, 8);
        // LayerNorm's packed reductions are 4-way reassociated: close, not
        // bit-exact
        assert_close(ctx.data(ln_got), g.data(ln_want).data(), "layer norm");
        assert_close(ctx.data(mlp_got), g.data(mlp_want).data(), "mlp");
    }

    #[test]
    fn packed_mixer_block_matches_tape() {
        let mut store = ParamStore::new();
        let block = MixerBlock::new(&mut store, "mix", 4, 6, 2, 12, 5);
        let x = init::uniform(&[3, 4, 6], -1.0, 1.0, 2);
        let mut g = Graph::inference();
        let xv = g.leaf(x.clone());
        let want = block.forward(&mut g, &store, xv);
        let mut ctx = InferCtx::new();
        let xs = ctx.slot_from(x.data());
        let got = block.pack(&store, 8).forward(&mut ctx, xs, 3);
        assert_close(g.data(want).data(), ctx.data(got), "mixer block");
    }

    #[test]
    fn generic_kernels_match_ops() {
        let mut ctx = InferCtx::new();
        // concat + gather + transpose + mean_tokens against the ops versions
        let a = init::uniform(&[4, 3], -1.0, 1.0, 1);
        let b = init::uniform(&[4, 2], -1.0, 1.0, 2);
        let sa = ctx.slot_from(a.data());
        let sb = ctx.slot_from(b.data());
        let cat = ctx.concat_cols(&[(sa, 3), (sb, 2)], 4);
        let mut g = Graph::inference();
        let (va, vb) = (g.leaf(a.clone()), g.leaf(b.clone()));
        let vcat = g.concat_cols(&[va, vb]);
        assert_eq!(ctx.data(cat), g.data(vcat).data());

        let gathered = ctx.gather_rows(cat, 5, &[3, 0, 3]);
        let vg = g.gather_rows(vcat, &[3, 0, 3]);
        assert_eq!(ctx.data(gathered), g.data(vg).data());

        let x3 = init::uniform(&[2, 3, 4], -1.0, 1.0, 7);
        let s3 = ctx.slot_from(x3.data());
        let t = ctx.transpose12(s3, 2, 3, 4);
        assert_eq!(ctx.data(t), ops::transpose12(&x3).data());
        let mt = ctx.mean_tokens(s3, 2, 3, 4);
        assert_eq!(ctx.data(mt), ops::mean_tokens(&x3).data());
    }

    #[test]
    fn softmax_matches_tape_semantics() {
        let mut ctx = InferCtx::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = ctx.slot_from(x.data());
        ctx.softmax_rows_inplace(s, 3);
        assert_eq!(ctx.data(s), ops::softmax_lastdim(&x).data());
    }
}
