//! Raw compute kernels over [`Tensor`]s.
//!
//! Everything here is a pure function with no autograd bookkeeping; the tape
//! in [`crate::graph`] composes these into differentiable ops. Matrix products
//! parallelize over output rows with rayon, which is where essentially all of
//! the training time goes.

use crate::tensor::Tensor;
use rayon::prelude::*;

/// Minimum number of output rows before a matmul fans out to rayon.
/// Below this the parallel dispatch overhead dominates. Retuned from 32
/// to 16 for the persistent pool (PR 5): dispatch is now a queue push
/// (~1µs) instead of a thread spawn (~tens of µs), so parallelism pays
/// off at half the old row count (see EXPERIMENTS.md, "Pool dispatch
/// overhead and retuned chunk floors").
const PAR_ROW_THRESHOLD: usize = 16;

/// Register-tile height of the packed matmul microkernel: rows of `A`
/// processed together so each loaded panel column is reused `MR` times.
pub const MR: usize = 4;

/// Default packed-panel width. 8 f32 lanes = one AVX2 register per
/// accumulator row; wider panels spill accumulators in this portable kernel
/// (EXPERIMENTS.md, "Inference fast path", the 4/8/16 blocking sweep).
pub const DEFAULT_PANEL: usize = 8;

/// A matrix packed into `NR`-wide column panels for the register-tiled
/// matmul kernels.
///
/// Panel `j` stores columns `[j*nr, j*nr+nr)` contiguously, `k`-major:
/// `panel[p*nr + jj] = B[p][j*nr + jj]` (zero-padded past column `m`). The
/// kernel streams one panel while keeping an `MR`×`nr` accumulator tile in
/// registers, so every `B` value loaded is used `MR` times and every `A`
/// value `nr` times. Weight matrices pack **once at model load** and are
/// reused across every inference batch; the training-path `matmul` packs
/// per call (an `O(k·m)` copy amortized over `n` output rows).
#[derive(Clone, Debug)]
pub struct PackedMatrix {
    k: usize,
    m: usize,
    nr: usize,
    data: Vec<f32>,
}

impl PackedMatrix {
    /// Packs a row-major `B (k×m)` into `nr`-wide panels.
    /// `nr` must be 4, 8, or 16 (the instantiated kernel widths).
    pub fn pack(b: &[f32], k: usize, m: usize, nr: usize) -> Self {
        assert!(matches!(nr, 4 | 8 | 16), "unsupported panel width {nr}");
        assert_eq!(b.len(), k * m, "pack: data/shape mismatch");
        let npanels = m.div_ceil(nr).max(1);
        let mut data = vec![0.0f32; npanels * k * nr];
        for pj in 0..npanels {
            let j0 = pj * nr;
            let w = m.saturating_sub(j0).min(nr);
            let panel = &mut data[pj * k * nr..(pj + 1) * k * nr];
            for p in 0..k {
                for jj in 0..w {
                    panel[p * nr + jj] = b[p * m + j0 + jj];
                }
            }
        }
        PackedMatrix { k, m, nr, data }
    }

    /// Packs `Bᵀ` where `B (m×k)` is row-major — i.e. the packed logical
    /// matrix is `(k×m)` with `B'[p][j] = B[j][p]`. Lets [`matmul_bt`] share
    /// the forward kernel (packing performs the transpose).
    pub fn pack_bt(b: &[f32], m: usize, k: usize, nr: usize) -> Self {
        assert!(matches!(nr, 4 | 8 | 16), "unsupported panel width {nr}");
        assert_eq!(b.len(), k * m, "pack_bt: data/shape mismatch");
        let npanels = m.div_ceil(nr).max(1);
        let mut data = vec![0.0f32; npanels * k * nr];
        for pj in 0..npanels {
            let j0 = pj * nr;
            let w = m.saturating_sub(j0).min(nr);
            let panel = &mut data[pj * k * nr..(pj + 1) * k * nr];
            for p in 0..k {
                for jj in 0..w {
                    panel[p * nr + jj] = b[(j0 + jj) * k + p];
                }
            }
        }
        PackedMatrix { k, m, nr, data }
    }

    /// Packs a rank-2 tensor.
    pub fn from_tensor(t: &Tensor, nr: usize) -> Self {
        assert_eq!(t.shape().len(), 2, "from_tensor needs rank-2");
        Self::pack(t.data(), t.shape()[0], t.shape()[1], nr)
    }

    /// Inner (contraction) dimension `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Panel width the matrix was packed with.
    pub fn nr(&self) -> usize {
        self.nr
    }
}

/// True when the running CPU supports the AVX2+FMA kernel variant.
fn kernel_uses_avx() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVX: OnceLock<bool> = OnceLock::new();
        *AVX.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `C (n×m) = A (n×k) · P` for a pre-packed `P`, with an optional fused bias
/// added to every output row. Writes (does not accumulate into) `c`.
///
/// This is the **portable** kernel used by the training-path [`matmul`] /
/// [`matmul_bt`]: per output element the accumulation runs ascending in `p`
/// exactly like the historical ikj kernel, so results are **bit-identical**
/// to the naive triple loop on every machine — packing changes memory
/// layout, never summation order. Training keeps this kernel because
/// checkpoints and the repo's determinism contracts rely on
/// machine-independent results; the serving path uses
/// [`matmul_packed_infer_into`] instead.
pub fn matmul_packed_into(
    a: &[f32],
    n: usize,
    k: usize,
    pb: &PackedMatrix,
    bias: Option<&[f32]>,
    c: &mut [f32],
) {
    check_packed_shapes(a, n, k, pb, bias, c);
    match pb.nr {
        4 => packed_kernel::<4>(a, n, k, pb, bias, c),
        8 => packed_kernel::<8>(a, n, k, pb, bias, c),
        16 => packed_kernel::<16>(a, n, k, pb, bias, c),
        w => unreachable!("unsupported panel width {w}"),
    }
}

/// The inference-grade variant of [`matmul_packed_into`]: on x86-64 with
/// AVX2+FMA (detected at runtime, cached) the accumulation uses 256-bit
/// fused multiply-adds — same ascending-`p` order, one rounding per step
/// instead of two, so results are at least as accurate as the portable
/// kernel and differ from it by ≤1 ulp per step. Deterministic on a given
/// machine (the serving contract); **not** machine-independent, which is why
/// the training tape does not use it. Falls back to the portable kernel
/// elsewhere.
pub fn matmul_packed_infer_into(
    a: &[f32],
    n: usize,
    k: usize,
    pb: &PackedMatrix,
    bias: Option<&[f32]>,
    c: &mut [f32],
) {
    check_packed_shapes(a, n, k, pb, bias, c);
    #[cfg(target_arch = "x86_64")]
    if kernel_uses_avx() {
        // SAFETY: feature presence checked by kernel_uses_avx().
        unsafe {
            match pb.nr {
                4 => packed_kernel_avx::<4>(a, n, k, pb, bias, c),
                8 => packed_kernel_avx::<8>(a, n, k, pb, bias, c),
                16 => packed_kernel_avx::<16>(a, n, k, pb, bias, c),
                w => unreachable!("unsupported panel width {w}"),
            }
        }
        return;
    }
    match pb.nr {
        4 => packed_kernel::<4>(a, n, k, pb, bias, c),
        8 => packed_kernel::<8>(a, n, k, pb, bias, c),
        16 => packed_kernel::<16>(a, n, k, pb, bias, c),
        w => unreachable!("unsupported panel width {w}"),
    }
}

#[inline]
fn check_packed_shapes(
    a: &[f32],
    n: usize,
    k: usize,
    pb: &PackedMatrix,
    bias: Option<&[f32]>,
    c: &mut [f32],
) {
    assert_eq!(pb.k, k, "packed inner dim: {} vs {k}", pb.k);
    assert_eq!(a.len(), n * k, "packed lhs size");
    assert_eq!(c.len(), n * pb.m, "packed out size");
    if let Some(bv) = bias {
        assert_eq!(bv.len(), pb.m, "packed bias size");
    }
}

#[inline]
fn store_tile<const NR: usize>(
    c: &mut [f32],
    m: usize,
    row: usize,
    j0: usize,
    w: usize,
    acc: &[f32; NR],
    bias: Option<&[f32]>,
) {
    let crow = &mut c[row * m + j0..row * m + j0 + w];
    match bias {
        Some(bv) => {
            for j in 0..w {
                crow[j] = acc[j] + bv[j0 + j];
            }
        }
        None => crow.copy_from_slice(&acc[..w]),
    }
}

/// Portable kernel: plain multiply-then-add accumulation.
fn packed_kernel<const NR: usize>(
    a: &[f32],
    n: usize,
    k: usize,
    pb: &PackedMatrix,
    bias: Option<&[f32]>,
    c: &mut [f32],
) {
    packed_kernel_body::<NR, false>(a, n, k, pb, bias, c)
}

/// AVX2+FMA instantiation of the same body: LLVM vectorizes the `NR`-lane
/// loops with 256-bit fused multiply-adds. Safe to *define* everywhere;
/// calling requires the runtime feature check in [`matmul_packed_into`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn packed_kernel_avx<const NR: usize>(
    a: &[f32],
    n: usize,
    k: usize,
    pb: &PackedMatrix,
    bias: Option<&[f32]>,
    c: &mut [f32],
) {
    packed_kernel_body::<NR, true>(a, n, k, pb, bias, c)
}

#[inline(always)]
fn fma_or_mul<const FMA: bool>(x: f32, y: f32, acc: f32) -> f32 {
    if FMA {
        x.mul_add(y, acc)
    } else {
        acc + x * y
    }
}

#[inline(always)]
fn packed_kernel_body<const NR: usize, const FMA: bool>(
    a: &[f32],
    n: usize,
    k: usize,
    pb: &PackedMatrix,
    bias: Option<&[f32]>,
    c: &mut [f32],
) {
    let m = pb.m;
    let npanels = m.div_ceil(NR).max(1);
    let mut i = 0;
    // MR-row register tiles: 4×NR accumulators live in registers for the
    // whole k loop, so C traffic is one store per element instead of one
    // load+store per (element, p) pair.
    while i + MR <= n {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        for pj in 0..npanels {
            let panel = &pb.data[pj * k * NR..(pj + 1) * k * NR];
            let mut acc0 = [0.0f32; NR];
            let mut acc1 = [0.0f32; NR];
            let mut acc2 = [0.0f32; NR];
            let mut acc3 = [0.0f32; NR];
            for p in 0..k {
                let bl: &[f32; NR] = panel[p * NR..p * NR + NR].try_into().expect("panel lane");
                let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
                for j in 0..NR {
                    acc0[j] = fma_or_mul::<FMA>(x0, bl[j], acc0[j]);
                    acc1[j] = fma_or_mul::<FMA>(x1, bl[j], acc1[j]);
                    acc2[j] = fma_or_mul::<FMA>(x2, bl[j], acc2[j]);
                    acc3[j] = fma_or_mul::<FMA>(x3, bl[j], acc3[j]);
                }
            }
            let j0 = pj * NR;
            let w = m.saturating_sub(j0).min(NR);
            store_tile(c, m, i, j0, w, &acc0, bias);
            store_tile(c, m, i + 1, j0, w, &acc1, bias);
            store_tile(c, m, i + 2, j0, w, &acc2, bias);
            store_tile(c, m, i + 3, j0, w, &acc3, bias);
        }
        i += MR;
    }
    // remainder rows: single-row tiles
    while i < n {
        let arow = &a[i * k..(i + 1) * k];
        for pj in 0..npanels {
            let panel = &pb.data[pj * k * NR..(pj + 1) * k * NR];
            let mut acc = [0.0f32; NR];
            for (p, &av) in arow.iter().enumerate() {
                let bl: &[f32; NR] = panel[p * NR..p * NR + NR].try_into().expect("panel lane");
                for j in 0..NR {
                    acc[j] = fma_or_mul::<FMA>(av, bl[j], acc[j]);
                }
            }
            let j0 = pj * NR;
            let w = m.saturating_sub(j0).min(NR);
            store_tile(c, m, i, j0, w, &acc, bias);
        }
        i += 1;
    }
}

/// Fans a packed matmul out over rayon in `MR`-aligned row blocks (or runs
/// it inline for small `n` / single-thread pools).
///
/// Chunk sizing: `ceil(n / 2·threads)` rounded up to `MR` — two blocks per
/// thread instead of the old one-per-thread split. The pool claims blocks
/// dynamically, so the extra granularity lets a thread that finishes early
/// (or a core the OS preempted) pick up the slack; with spawn-per-call this
/// overpartitioning would have doubled the spawn count, with the pool it
/// costs one more queue operation. Chunking never affects numerics — rows
/// are computed independently.
fn packed_parallel(a: &[f32], n: usize, k: usize, pb: &PackedMatrix, c: &mut [f32]) {
    let m = pb.m;
    let threads = rayon::current_num_threads().max(1);
    if n < PAR_ROW_THRESHOLD || threads == 1 {
        matmul_packed_into(a, n, k, pb, None, c);
        return;
    }
    let rows_per = n.div_ceil(threads * 2).max(1).next_multiple_of(MR);
    c.par_chunks_mut(rows_per * m)
        .enumerate()
        .for_each(|(bi, cc)| {
            let i0 = bi * rows_per;
            let rows = cc.len() / m;
            matmul_packed_into(&a[i0 * k..(i0 + rows) * k], rows, k, pb, None, cc);
        });
}

/// `C = A (n×k) · B (k×m)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, k) = (a.rows(), a.last_dim());
    assert_eq!(b.shape().len(), 2, "matmul rhs must be rank-2");
    let (k2, m) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
    let mut out = Tensor::zeros(&[n, m]);
    let pb = PackedMatrix::pack(b.data(), k, m, DEFAULT_PANEL);
    packed_parallel(a.data(), n, k, &pb, out.data_mut());
    out
}

/// `C = A (n×k) · Bᵀ` where `B` is `(m×k)`. Packing performs the transpose,
/// so this shares the register-tiled forward kernel (and its bit-exact
/// ascending-`k` accumulation order) with [`matmul`].
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, k) = (a.rows(), a.last_dim());
    let (m, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_bt inner dims: {k} vs {k2}");
    let mut out = Tensor::zeros(&[n, m]);
    let pb = PackedMatrix::pack_bt(b.data(), m, k, DEFAULT_PANEL);
    packed_parallel(a.data(), n, k, &pb, out.data_mut());
    out
}

/// Computes `C (k×m) = Aᵀ · B` where `A` is `(n×k)` and `B` is `(n×m)`.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, k) = (a.rows(), a.last_dim());
    let (n2, m) = (b.rows(), b.last_dim());
    assert_eq!(n, n2, "matmul_at outer dims: {n} vs {n2}");
    let ad = a.data();
    let bd = b.data();
    let mut out = Tensor::zeros(&[k, m]);
    let threads = rayon::current_num_threads().max(1);
    // Row-parallel over `k` would stride badly through `A`, so iterate
    // samples and accumulate per-thread `k×m` partials, then reduce.
    //
    // Chunk sizing: two contiguous runs per thread (`ceil(n/2·threads)`)
    // with an 8-row floor. The old one-run-per-thread `ceil(n/threads)`
    // split with a 16-row floor was calibrated for spawn-per-call dispatch;
    // on the persistent pool a chunk costs a queue push, so the finer split
    // buys dynamic rebalancing (a preempted or late-starting thread no
    // longer gates the whole reduction) for one extra `O(k·m)` partial
    // merge per thread. The floor still exists so a run amortizes its own
    // partial buffer + reduction. Small batches (`n <= 64`) and
    // single-thread pools skip the partials entirely and accumulate
    // straight into the output.
    if threads == 1 || n <= 64 {
        let od = out.data_mut();
        for i in 0..n {
            let arow = &ad[i * k..(i + 1) * k];
            let brow = &bd[i * m..(i + 1) * m];
            for (p, &av) in arow.iter().enumerate() {
                let dst = &mut od[p * m..(p + 1) * m];
                for (d, &bv) in dst.iter_mut().zip(brow.iter()) {
                    *d += av * bv;
                }
            }
        }
        return out;
    }
    let chunk = n.div_ceil(threads * 2).max(8);
    let partials: Vec<Vec<f32>> = (0..n)
        .into_par_iter()
        .chunks(chunk)
        .map(|rows| {
            let mut local = vec![0.0f32; k * m];
            for i in rows {
                let arow = &ad[i * k..(i + 1) * k];
                let brow = &bd[i * m..(i + 1) * m];
                for (p, &av) in arow.iter().enumerate() {
                    let dst = &mut local[p * m..(p + 1) * m];
                    for (d, &bv) in dst.iter_mut().zip(brow.iter()) {
                        *d += av * bv;
                    }
                }
            }
            local
        })
        .collect();
    let od = out.data_mut();
    for p in partials {
        for (o, v) in od.iter_mut().zip(p.iter()) {
            *o += v;
        }
    }
    out
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Batched matmul: `A [b,n,k] · B [b,k,m] -> [b,n,m]`.
/// With `tb = true`, `B` is `[b,m,k]` and used transposed.
pub fn bmm(a: &Tensor, b: &Tensor, tb: bool) -> Tensor {
    assert_eq!(a.shape().len(), 3, "bmm lhs must be rank-3");
    assert_eq!(b.shape().len(), 3, "bmm rhs must be rank-3");
    let (bs, n, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    assert_eq!(b.shape()[0], bs, "bmm batch dims");
    let m = if tb { b.shape()[1] } else { b.shape()[2] };
    if tb {
        assert_eq!(b.shape()[2], k, "bmm(tb) inner dims");
    } else {
        assert_eq!(b.shape()[1], k, "bmm inner dims");
    }
    let mut out = Tensor::zeros(&[bs, n, m]);
    let ad = a.data();
    let bd = b.data();
    out.data_mut()
        .par_chunks_mut(n * m)
        .enumerate()
        .for_each(|(bi, cslab)| {
            let aslab = &ad[bi * n * k..(bi + 1) * n * k];
            let bslab = &bd[bi * k * m..(bi + 1) * k * m];
            if tb {
                for i in 0..n {
                    let arow = &aslab[i * k..(i + 1) * k];
                    for j in 0..m {
                        cslab[i * m + j] = dot(arow, &bslab[j * k..(j + 1) * k]);
                    }
                }
            } else {
                for i in 0..n {
                    let arow = &aslab[i * k..(i + 1) * k];
                    let crow = &mut cslab[i * m..(i + 1) * m];
                    for (p, &av) in arow.iter().enumerate() {
                        let brow = &bslab[p * m..(p + 1) * m];
                        for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                            *cv += av * bv;
                        }
                    }
                }
            }
        });
    out
}

/// Batched `Aᵀ·B` per slab: `A [b,n,k]`, `B [b,n,m]` → `[b,k,m]`.
pub fn bmm_at(a: &Tensor, b: &Tensor) -> Tensor {
    let (bs, n, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let m = b.shape()[2];
    assert_eq!(b.shape()[0], bs);
    assert_eq!(b.shape()[1], n);
    let mut out = Tensor::zeros(&[bs, k, m]);
    let ad = a.data();
    let bd = b.data();
    out.data_mut()
        .par_chunks_mut(k * m)
        .enumerate()
        .for_each(|(bi, cslab)| {
            let aslab = &ad[bi * n * k..(bi + 1) * n * k];
            let bslab = &bd[bi * n * m..(bi + 1) * n * m];
            for i in 0..n {
                let arow = &aslab[i * k..(i + 1) * k];
                let brow = &bslab[i * m..(i + 1) * m];
                for (p, &av) in arow.iter().enumerate() {
                    let crow = &mut cslab[p * m..(p + 1) * m];
                    for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                        *cv += av * bv;
                    }
                }
            }
        });
    out
}

/// Softmax over the trailing dimension (numerically stabilized).
pub fn softmax_lastdim(x: &Tensor) -> Tensor {
    let d = x.last_dim();
    let mut out = x.clone();
    out.data_mut().par_chunks_mut(d).for_each(|row| {
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
    });
    out
}

/// Log-softmax over the trailing dimension.
pub fn log_softmax_lastdim(x: &Tensor) -> Tensor {
    let d = x.last_dim();
    let mut out = x.clone();
    out.data_mut().par_chunks_mut(d).for_each(|row| {
        let maxv = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let lse = row.iter().map(|&v| (v - maxv).exp()).sum::<f32>().ln() + maxv;
        for v in row.iter_mut() {
            *v -= lse;
        }
    });
    out
}

/// Branch-light polynomial cosine for the inference fast path's time
/// encodings.
///
/// Range-reduces in f64 (`r = x/2π − round(x/2π)`, magic-number rounding so
/// the whole body is straight-line math), then evaluates
/// `cos(2πr) = 1 − 2·sin²(πr)` with a degree-11 odd polynomial for `sin` on
/// `[-π/2, π/2]`. Max absolute error ≈ 7e-7 (1-2 f32 ulps near |cos| = 1)
/// versus libm `cosf` across the timespans serving sees — far inside the
/// fast-vs-tape 1e-5 equivalence budget — at a fraction of libm's cost, and
/// auto-vectorizable when evaluated over encoding rows.
#[inline]
pub fn fast_cos(x: f32) -> f32 {
    const INV_TAU: f64 = 1.0 / std::f64::consts::TAU;
    // Beyond |x| ≈ 1e8 the f64 fractional part of x/2π carries too few
    // bits for a ≤1e-7 reduction (and far beyond that the magic-constant
    // rounding itself stops working), so rare huge timespans — and NaN —
    // take the libm path instead of silently degrading.
    if x.abs() > 1e8 || x.is_nan() {
        return x.cos();
    }
    // round-to-nearest via the 2^52-magic constant
    const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52
    let t = x as f64 * INV_TAU;
    let r = t - ((t + MAGIC) - MAGIC); // [-0.5, 0.5]
    let h = (r * std::f64::consts::PI) as f32; // half-angle in [-π/2, π/2]
    let h2 = h * h;
    // sin(h), degree-11 Taylor (max err ~6e-8 on the reduced range)
    let s = h
        * (1.0
            + h2 * (-1.666_666_6e-1
                + h2 * (8.333_333e-3
                    + h2 * (-1.984_127e-4 + h2 * (2.755_732e-6 + h2 * -2.505_21e-8)))));
    1.0 - 2.0 * s * s
}

/// Branch-light rational tanh (7th-order continued fraction, clamped).
/// Max error ≈ 3e-4 over ℝ; fully auto-vectorizable, which matters on the
/// GeLU-heavy mixer path.
#[inline]
pub fn fast_tanh(x: f32) -> f32 {
    let x = x.clamp(-4.97, 4.97);
    let x2 = x * x;
    let p = x * (135_135.0 + x2 * (17_325.0 + x2 * (378.0 + x2)));
    let q = 135_135.0 + x2 * (62_370.0 + x2 * (3_150.0 + x2 * 28.0));
    p / q
}

/// GeLU with the tanh approximation (matches common framework defaults);
/// the tanh itself is [`fast_tanh`] so forward and gradient stay consistent.
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + fast_tanh(C * (x + 0.044715 * x * x * x)))
}

/// Derivative of [`gelu`] with respect to its input.
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044715 * x3);
    let t = fast_tanh(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Permutes `[b, n, d]` to `[b, d, n]` (explicit copy).
pub fn transpose12(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().len(), 3, "transpose12 needs rank-3");
    let (b, n, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let mut out = Tensor::zeros(&[b, d, n]);
    let xd = x.data();
    out.data_mut()
        .par_chunks_mut(d * n)
        .enumerate()
        .for_each(|(bi, slab)| {
            let xs = &xd[bi * n * d..(bi + 1) * n * d];
            for i in 0..n {
                for j in 0..d {
                    slab[j * n + i] = xs[i * d + j];
                }
            }
        });
    out
}

/// Reorders `[r*n, h*dh]` into `[r*h, n, dh]` — grouping attention heads so
/// per-head score matrices are contiguous slabs for [`bmm`].
pub fn split_heads(x: &Tensor, n: usize, h: usize) -> Tensor {
    let rows = x.rows();
    let dm = x.last_dim();
    assert_eq!(
        rows % n,
        0,
        "split_heads rows {rows} not divisible by n {n}"
    );
    assert_eq!(dm % h, 0, "split_heads dim {dm} not divisible by heads {h}");
    let r = rows / n;
    let dh = dm / h;
    let mut out = Tensor::zeros(&[r * h, n, dh]);
    let xd = x.data();
    let od = out.data_mut();
    for ri in 0..r {
        for hi in 0..h {
            for ni in 0..n {
                let src = (ri * n + ni) * dm + hi * dh;
                let dst = ((ri * h + hi) * n + ni) * dh;
                od[dst..dst + dh].copy_from_slice(&xd[src..src + dh]);
            }
        }
    }
    out
}

/// Inverse of [`split_heads`]: `[r*h, n, dh]` back to `[r*n, h*dh]`.
pub fn merge_heads(x: &Tensor, h: usize) -> Tensor {
    assert_eq!(x.shape().len(), 3);
    let (rh, n, dh) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    assert_eq!(rh % h, 0);
    let r = rh / h;
    let mut out = Tensor::zeros(&[r * n, h * dh]);
    let xd = x.data();
    let od = out.data_mut();
    for ri in 0..r {
        for hi in 0..h {
            for ni in 0..n {
                let src = ((ri * h + hi) * n + ni) * dh;
                let dst = (ri * n + ni) * (h * dh) + hi * dh;
                od[dst..dst + dh].copy_from_slice(&xd[src..src + dh]);
            }
        }
    }
    out
}

/// Mean over the middle (token) dimension: `[b, n, d] -> [b, d]`.
pub fn mean_tokens(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().len(), 3);
    let (b, n, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let mut out = Tensor::zeros(&[b, d]);
    let xd = x.data();
    out.data_mut()
        .par_chunks_mut(d)
        .enumerate()
        .for_each(|(bi, orow)| {
            let slab = &xd[bi * n * d..(bi + 1) * n * d];
            for i in 0..n {
                for (o, &v) in orow.iter_mut().zip(slab[i * d..(i + 1) * d].iter()) {
                    *o += v;
                }
            }
            let inv = 1.0 / n as f32;
            for o in orow.iter_mut() {
                *o *= inv;
            }
        });
    out
}

/// Gathers rows of a 2-D-viewed tensor: `out[i] = x[idx[i]]`.
pub fn gather_rows(x: &Tensor, idx: &[usize]) -> Tensor {
    let d = x.last_dim();
    let rows = x.rows();
    let mut out = Tensor::zeros(&[idx.len(), d]);
    let xd = x.data();
    let od = out.data_mut();
    for (i, &j) in idx.iter().enumerate() {
        assert!(j < rows, "gather index {j} out of range {rows}");
        od[i * d..(i + 1) * d].copy_from_slice(&xd[j * d..(j + 1) * d]);
    }
    out
}

/// LayerNorm forward over the trailing dimension.
/// Returns `(normalized_out, xhat, rstd)` where `out = xhat*gamma + beta`.
pub fn layer_norm(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> (Tensor, Tensor, Vec<f32>) {
    let d = x.last_dim();
    assert_eq!(gamma.numel(), d);
    assert_eq!(beta.numel(), d);
    let rows = x.rows();
    let mut out = x.clone();
    let mut xhat = x.clone();
    let mut rstd = vec![0.0f32; rows];
    let g = gamma.data();
    let b = beta.data();
    let xh = xhat.data_mut();
    let od = out.data_mut();
    od.par_chunks_mut(d)
        .zip(xh.par_chunks_mut(d))
        .zip(rstd.par_iter_mut())
        .for_each(|((orow, hrow), rs)| {
            let mean = orow.iter().sum::<f32>() / d as f32;
            let var = orow.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let r = 1.0 / (var + eps).sqrt();
            *rs = r;
            for j in 0..d {
                let h = (orow[j] - mean) * r;
                hrow[j] = h;
                orow[j] = h * g[j] + b[j];
            }
        });
    (out, xhat, rstd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape)
    }

    #[test]
    fn matmul_small() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, 0.0, 1.0, 2.0, 1.0, 2.0], &[2, 3]); // (2x3), use as Bᵀ (3x2)
        let c = matmul_bt(&a, &b);
        // C[i][j] = a_i . b_j
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[4.0, 10.0, 10.0, 25.0]);
    }

    #[test]
    fn matmul_at_matches_manual() {
        // A (3x2), B (3x2): C = Aᵀ B is (2x2)
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let b = t(&[1.0, 1.0, 2.0, 2.0, 3.0, 3.0], &[3, 2]);
        let c = matmul_at(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        // col0 of A = [1,3,5], col1 = [2,4,6]; col0 of B=[1,2,3], col1=[1,2,3]
        assert_eq!(c.data(), &[22.0, 22.0, 28.0, 28.0]);
    }

    #[test]
    fn packed_matmul_matches_reference_all_widths() {
        // odd shapes exercise remainder rows and partial tail panels
        for &(n, k, m) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (9, 13, 17),
            (64, 33, 40),
        ] {
            let a: Vec<f32> = (0..n * k).map(|i| ((i * 7) % 11) as f32 - 5.0).collect();
            let b: Vec<f32> = (0..k * m).map(|i| ((i * 5) % 9) as f32 - 4.0).collect();
            let mut want = vec![0.0f32; n * m];
            for i in 0..n {
                for j in 0..m {
                    want[i * m + j] = (0..k).map(|p| a[i * k + p] * b[p * m + j]).sum();
                }
            }
            for nr in [4usize, 8, 16] {
                let pb = PackedMatrix::pack(&b, k, m, nr);
                let mut c = vec![0.0f32; n * m];
                matmul_packed_into(&a, n, k, &pb, None, &mut c);
                for (x, y) in c.iter().zip(want.iter()) {
                    assert!((x - y).abs() < 1e-4, "nr={nr} n={n} k={k} m={m}");
                }
            }
        }
    }

    #[test]
    fn packed_fused_bias_matches_separate_add() {
        let (n, k, m) = (6, 5, 10);
        let a: Vec<f32> = (0..n * k).map(|i| i as f32 * 0.3 - 4.0).collect();
        let b: Vec<f32> = (0..k * m).map(|i| i as f32 * 0.1 - 2.0).collect();
        let bias: Vec<f32> = (0..m).map(|i| i as f32 - 5.0).collect();
        let pb = PackedMatrix::pack(&b, k, m, 8);
        let mut fused = vec![0.0f32; n * m];
        matmul_packed_into(&a, n, k, &pb, Some(&bias), &mut fused);
        let mut plain = vec![0.0f32; n * m];
        matmul_packed_into(&a, n, k, &pb, None, &mut plain);
        for i in 0..n {
            for j in 0..m {
                assert_eq!(fused[i * m + j], plain[i * m + j] + bias[j]);
            }
        }
    }

    #[test]
    fn pack_bt_shares_forward_kernel() {
        // matmul_bt(A, B) == matmul(A, Bᵀ) bit-for-bit
        let a = t(
            &(0..12).map(|v| v as f32 * 0.5 - 2.0).collect::<Vec<_>>(),
            &[4, 3],
        );
        let b = t(
            &(0..15).map(|v| v as f32 * 0.2 - 1.0).collect::<Vec<_>>(),
            &[5, 3],
        );
        let via_bt = matmul_bt(&a, &b);
        let mut btt = vec![0.0f32; 15];
        for j in 0..5 {
            for p in 0..3 {
                btt[p * 5 + j] = b.at2(j, p);
            }
        }
        let via_mm = matmul(&a, &t(&btt, &[3, 5]));
        assert_eq!(via_bt.data(), via_mm.data());
    }

    #[test]
    fn matmul_at_sequential_and_chunked_agree() {
        let (n, k, m) = (130usize, 6usize, 5usize);
        let a = Tensor::from_vec((0..n * k).map(|i| (i % 13) as f32 - 6.0).collect(), &[n, k]);
        let b = Tensor::from_vec((0..n * m).map(|i| (i % 7) as f32 - 3.0).collect(), &[n, m]);
        let c = matmul_at(&a, &b);
        for p in 0..k {
            for j in 0..m {
                let want: f32 = (0..n).map(|i| a.at2(i, p) * b.at2(i, j)).sum();
                assert!((c.at2(p, j) - want).abs() < 1e-2, "({p},{j})");
            }
        }
    }

    #[test]
    fn matmul_large_parallel_consistent() {
        // Exercise the rayon path (n >= threshold) against a serial reference.
        let n = 64;
        let k = 17;
        let m = 9;
        let a = Tensor::from_vec((0..n * k).map(|i| (i % 7) as f32 - 3.0).collect(), &[n, k]);
        let b = Tensor::from_vec((0..k * m).map(|i| (i % 5) as f32 - 2.0).collect(), &[k, m]);
        let c = matmul(&a, &b);
        for i in [0usize, 13, 63] {
            for j in 0..m {
                let want: f32 = (0..k).map(|p| a.at2(i, p) * b.at2(p, j)).sum();
                assert!((c.at2(i, j) - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn bmm_and_bmm_tb() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        let b = t(&[1.0, 0.0, 0.0, 1.0], &[1, 2, 2]);
        assert_eq!(bmm(&a, &b, false).data(), &[1.0, 2.0, 3.0, 4.0]);
        // tb: B interpreted [b, m, k] and transposed
        let bt = t(&[0.0, 1.0, 1.0, 0.0], &[1, 2, 2]);
        assert_eq!(bmm(&a, &bt, true).data(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn bmm_at_matches_manual() {
        // A [1, 2 (n), 3 (k)], B [1, 2 (n), 1 (m)] -> [1, 3, 1]
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 2, 3]);
        let b = t(&[1.0, 2.0], &[1, 2, 1]);
        let c = bmm_at(&a, &b);
        assert_eq!(c.shape(), &[1, 3, 1]);
        assert_eq!(c.data(), &[9.0, 12.0, 15.0]); // 1*1+4*2, 2+5*2, 3+6*2
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = t(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = softmax_lastdim(&x);
        for r in 0..2 {
            let sum: f32 = (0..3).map(|c| s.at2(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // softmax is shift invariant
        let y = x.map(|v| v + 100.0);
        assert!(softmax_lastdim(&y).allclose(&s, 1e-5));
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = t(&[0.5, -1.5, 2.0], &[1, 3]);
        let ls = log_softmax_lastdim(&x);
        let s = softmax_lastdim(&x);
        for i in 0..3 {
            assert!((ls.data()[i].exp() - s.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn fast_cos_tracks_libm() {
        // dense sweep of one period plus the large-timespan magnitudes the
        // time encodings produce
        let mut worst = 0.0f32;
        for i in 0..10_000 {
            let x = (i as f32 - 5_000.0) * 0.001_3;
            worst = worst.max((fast_cos(x) - x.cos()).abs());
        }
        for i in 0..10_000 {
            let x = (i as f32) * 173.7 - 860_000.0;
            worst = worst.max((fast_cos(x) - x.cos()).abs());
        }
        assert!(worst < 2e-6, "fast_cos max error {worst}");
        // beyond the polynomial's reduction range: exact libm fallback
        for x in [3.7e8f32, -9.1e12, 2.5e37, f32::NAN] {
            assert_eq!(fast_cos(x).to_bits(), x.cos().to_bits(), "fallback at {x}");
        }
    }

    #[test]
    fn gelu_reference_values() {
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // finite-difference check of the gradient
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let eps = 1e-3;
            let fd = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-3,
                "x={x}: {} vs {}",
                gelu_grad(x),
                fd
            );
        }
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-3);
    }

    #[test]
    fn transpose12_roundtrip() {
        let x = t(&(0..24).map(|v| v as f32).collect::<Vec<_>>(), &[2, 3, 4]);
        let y = transpose12(&x);
        assert_eq!(y.shape(), &[2, 4, 3]);
        let z = transpose12(&y);
        assert!(z.allclose(&x, 0.0));
    }

    #[test]
    fn head_split_merge_roundtrip() {
        let x = t(&(0..24).map(|v| v as f32).collect::<Vec<_>>(), &[6, 4]); // r=3,n=2,h=2,dh=2
        let s = split_heads(&x, 2, 2);
        assert_eq!(s.shape(), &[6, 2, 2]);
        let m = merge_heads(&s, 2);
        assert!(m.reshape(&[6, 4]).allclose(&x, 0.0));
    }

    #[test]
    fn split_heads_layout() {
        // r=1, n=2 neighbors, h=2 heads, dh=1
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let s = split_heads(&x, 2, 2);
        // head 0: rows [1,3]; head 1: rows [2,4]
        assert_eq!(s.data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn mean_tokens_simple() {
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        let m = mean_tokens(&x);
        assert_eq!(m.shape(), &[1, 2]);
        assert_eq!(m.data(), &[2.0, 3.0]);
    }

    #[test]
    fn gather_rows_copies() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = gather_rows(&x, &[2, 0, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let g = Tensor::ones(&[4]);
        let b = Tensor::zeros(&[4]);
        let (out, xhat, rstd) = layer_norm(&x, &g, &b, 1e-5);
        let mean: f32 = out.data().iter().sum::<f32>() / 4.0;
        let var: f32 = out
            .data()
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
        assert_eq!(out.data(), xhat.data());
        assert_eq!(rstd.len(), 1);
    }
}
