//! Packed, register-blocked GEMM kernels shared by every matmul layout.
//!
//! The three matmul layouts (`nn`: `A·B`, `nt`: `A·Bᵀ`, `tn`: `Aᵀ·B`) all
//! reduce over the shared dimension `k` with `p` strictly ascending per
//! output element. This module gives them one BLIS-style inner kernel:
//!
//! * **Packing.** For each `KC × NC` panel of the right operand, the driver
//!   copies the panel into a contiguous scratch buffer laid out in
//!   `NR`-wide column tiles (`panel[tile][p · NR + j]`). For `nt` this is
//!   the transposing copy that turns the layout's strided `Bᵀ` reads — the
//!   4.4× serial penalty the kernel bench used to show — into unit-stride
//!   streams. The left operand packs per `MC × KC` block into `MR`-row
//!   tiles (`apanel[p · MR + i]`; for `tn` this untransposes the
//!   column-major reads), packed **once per k-panel** and reused across
//!   every `NR` tile of the column panel — the old per-`MR`-tile repacking
//!   copied `A` `n/NC` times more than necessary. Both pack buffers draw
//!   from the buffer arena ([`crate::alloc`]), so steady-state GEMMs
//!   allocate nothing. A right operand that outlives many products (the
//!   output layer's vocabulary shard) can be packed once, whole, into a
//!   [`PackedB`], and so can a block weight ([`crate::optim::Param`] keeps
//!   one per value); [`gemm_chunk`] then reads its tiles where it would
//!   have packed them ([`Rhs`]), through the same loop nest.
//!   The left operand may also be *formed* while it is packed rather than
//!   read ([`Lhs::SoftmaxGrad`]: the output layer's `dy`, built from the
//!   stored row exponentials; [`Lhs::ScaledRows`]: its local softmax, the
//!   exponentials normalized on read), so the staged tensor is never
//!   written.
//! * **Microkernel.** The microkernel accumulates an arch-tuned `MR × NR`
//!   register tile over one `k` panel: the tile starts from the output
//!   (from zero on the first panel, which is what a fresh output holds),
//!   every `p` term is added directly to its running element total, and
//!   the tile is stored once per panel — `k/KC` output round-trips instead
//!   of `k`. The tile shape is chosen per target at compile time (the
//!   workspace builds with `target-cpu=native`), and so is the kernel:
//!   - AVX-512: 8×32, in [`crate::simd`]. 16 `zmm` accumulators stay
//!     resident across the whole `p` loop, plus the two `b` vectors of
//!     the current `p` and one broadcast of `a` — 19 of 32 registers.
//!   - AVX2: 6×16, in [`crate::simd`]. 12 `ymm` accumulators, two `b`
//!     vectors, one broadcast — 15 of 16 registers.
//!   - Otherwise the portable 4×8 loop ([`microkernel`] here), which the
//!     compiler vectorizes along the contiguous `j` axis one row at a time.
//!
//!   The intrinsic kernels exist because no safe formulation got the tile
//!   into registers. The portable row-outer loop keeps one row's
//!   accumulator live at a time, so each `p` step waits on that row's two
//!   dependent add chains; a `p`-outer loop over the whole
//!   `[[f32; NR]; MR]` tile is vectorized across rows with gathers and
//!   scatters instead. At the output layer's logits shape (`[32, 64]` ×
//!   `[64, 16384]`, one lane, a 2.1 GHz AVX-512 Xeon): the `p`-outer loop
//!   3.7 GFLOP/s, the row-outer loop 24, the register-resident intrinsics
//!   kernel 49–57.
//!
//!   No kernel uses a fused multiply-add. FMA rounds `acc + a·b` once where
//!   the reference rounds the product and then the sum, so it would change
//!   low bits; the intrinsic kernels emit `mul` then `add`, and rustc never
//!   contracts the portable loop's `*c += a * b` into one. An FMA tripwire
//!   test (`tests/gemm.rs`) pins this for every layout and the epilogue.
//! * **Accumulate epilogue.** With [`Gemm::accumulate`] and `k ≤ KC`, each
//!   tile is the whole fresh product and its write-back adds it into the
//!   output (the weight gradient): per element the one `grad + dW`
//!   addition of a separate `add_assign`, with no `dW` tensor.
//!
//! # Determinism contract
//!
//! Packing and register blocking are pure *data-movement* changes: each
//! output element still accumulates `a·b` terms one at a time in strictly
//! ascending `p` order starting from `0.0`, exactly the order of the plain
//! `i-k-j` triple loop. Results are therefore bitwise identical to the
//! unpacked kernels, for every layout, tile shape, tile remainder, thread
//! count and split direction (row chunks or column panels; see
//! [`crate::pool`]) — a column panel is just an independent subproblem over
//! the same `A`. Zero padding in edge tiles only ever feeds lanes whose
//! results are discarded, so `NaN`/`∞` propagation is untouched. As in the
//! unpacked kernels there is no `a == 0.0` fast path: `0·NaN` must stay
//! `NaN`. There is also no FMA (above), so wider SIMD lanes cannot change
//! a single bit of any output.
//!
//! The optional fused bias epilogue adds `bias[j]` to an output strip
//! immediately after the strip's final `k` panel — per element this is the
//! same `(Σₚ aₚ·bₚ) + bias` order as a separate full-output pass, so the
//! fused and unfused paths are bitwise identical too (while the strip is
//! still cache-hot, which is the point of fusing).

use crate::ops::SoftmaxGrad;
use crate::{alloc, pool};
use std::ops::Range;

/// Cache-block depth over the shared (`k`) dimension: one packed panel of
/// the right operand covers `KC` consecutive `p` values.
pub(crate) const KC: usize = 128;

/// Cache-block width over output columns: the packed right-operand panel
/// covers `NC` consecutive output columns (`NC` is a multiple of `NR`).
pub(crate) const NC: usize = 512;

/// Cache-block height over output rows: the packed left-operand block
/// covers `MC` consecutive rows and lives in L2 across the whole column
/// panel.
pub(crate) const MC: usize = 128;

/// Arch-tuned register tile: AVX-512 has 32 vector registers, so an 8×32
/// tile keeps 16 accumulators plus the two `b` vectors and the broadcast
/// resident.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod tile {
    /// Microkernel tile height (output rows held in registers).
    pub const MR: usize = 8;
    /// Microkernel tile width (a multiple of the f32 SIMD width).
    pub const NR: usize = 32;
}

/// Arch-tuned register tile: AVX2's 16 ymm registers fit a 6×16 tile (12
/// accumulators plus the two `b` vectors and the broadcast).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    not(target_feature = "avx512f")
))]
mod tile {
    /// Microkernel tile height (output rows held in registers).
    pub const MR: usize = 6;
    /// Microkernel tile width (a multiple of the f32 SIMD width).
    pub const NR: usize = 16;
}

/// Portable register tile for targets without wide x86 vectors (SSE2,
/// NEON, …).
#[cfg(not(any(
    all(target_arch = "x86_64", target_feature = "avx512f"),
    all(
        target_arch = "x86_64",
        target_feature = "avx2",
        not(target_feature = "avx512f")
    )
)))]
mod tile {
    /// Microkernel tile height (output rows held in registers).
    pub const MR: usize = 4;
    /// Microkernel tile width (a multiple of the f32 SIMD width).
    pub const NR: usize = 8;
}

pub(crate) use tile::{MR, NR};

/// How the operands of [`gemm_chunk`] are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `a: [m, k]` row-major, `b: [k, n]` row-major.
    Nn,
    /// `a: [m, k]` row-major, `b: [n, k]` row-major (used as `Bᵀ`).
    Nt,
    /// `a: [k, m]` row-major (used as `Aᵀ`, column reads), `b: [k, n]`.
    Tn,
}

/// Where a GEMM's right operand comes from.
#[derive(Clone, Copy)]
pub(crate) enum Rhs<'a> {
    /// Row-major `b` as the layout reads it: every run packs each panel
    /// into arena scratch first.
    Rows(&'a [f32]),
    /// The whole operand, already in panel layout ([`PackedB`]).
    Packed(&'a PackedB),
}

/// Where a GEMM's left operand comes from.
#[derive(Clone, Copy)]
pub(crate) enum Lhs<'a> {
    /// Row-major `a` as the layout reads it.
    Rows(&'a [f32]),
    /// `Nn`/`Tn`: the output layer's cross-entropy gradient, formed from
    /// the stored row exponentials while the block is packed.
    SoftmaxGrad(&'a SoftmaxGrad<'a>),
    /// Row-major `a` with row `r` multiplied by `scale[r]` as it is read:
    /// the output layer's local softmax `e · norm`, normalized on read.
    ScaledRows(&'a [f32], &'a [f32]),
}

impl Lhs<'_> {
    /// Elements `[col0, col0 + len)` of row `row` of the row-major `a`
    /// (whose rows are `stride` wide): borrowed where they lie, or formed
    /// into `buf` (at least `len` long).
    #[inline]
    fn fragment<'s>(
        &'s self,
        row: usize,
        col0: usize,
        len: usize,
        stride: usize,
        buf: &'s mut [f32],
    ) -> &'s [f32] {
        match self {
            Lhs::Rows(a) => &a[row * stride + col0..][..len],
            Lhs::SoftmaxGrad(dy) => {
                dy.fill(row, col0, &mut buf[..len]);
                &buf[..len]
            }
            Lhs::ScaledRows(a, scale) => {
                let src = &a[row * stride + col0..][..len];
                for (d, &v) in buf[..len].iter_mut().zip(src) {
                    *d = v * scale[row];
                }
                &buf[..len]
            }
        }
    }
}

/// One GEMM problem: `out[i, j] += Σₚ A'[i, p] · B'[p, j]` where `A'`/`B'`
/// are the layout-adjusted views of `a` and `b`.
pub(crate) struct Gemm<'a> {
    pub a: Lhs<'a>,
    pub b: Rhs<'a>,
    /// Shared dimension.
    pub k: usize,
    /// Output columns of the *full* problem (the stride of `b`'s rows for
    /// `Nn`/`Tn`; column-panel runs compute a sub-range of these).
    pub n: usize,
    /// Output rows of the *full* problem (`Tn` needs it to stride `a`).
    pub m: usize,
    pub layout: Layout,
    /// `out` holds running totals the product is added to, and `k ≤ KC`:
    /// each tile is computed fresh from zero over the one `k` panel and
    /// its write-back adds it in — per element one `out + Σₚ` addition,
    /// bitwise `out.add_assign(&product)`. Otherwise `out` holds zeros and
    /// the write-back stores.
    pub accumulate: bool,
}

/// Write access to the output rows of one GEMM run.
///
/// The row-chunk split hands the kernel a contiguous `rows × width`
/// buffer ([`ContigRows`]); the column-panel split hands it a strided
/// panel ([`crate::pool::ColPanelMut`]). Either way `row_mut(r)` is the
/// `width`-wide output slice of chunk-local row `r`.
trait OutRows {
    /// Mutable output slice of chunk-local row `r`.
    fn row_mut(&mut self, r: usize) -> &mut [f32];
}

/// Contiguous row-major output rows (the row-chunk and serial paths).
struct ContigRows<'a> {
    buf: &'a mut [f32],
    width: usize,
}

impl OutRows for ContigRows<'_> {
    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.buf[r * self.width..(r + 1) * self.width]
    }
}

impl OutRows for crate::pool::ColPanelMut<'_> {
    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f32] {
        crate::pool::ColPanelMut::row_mut(self, r)
    }
}

/// Accumulates one `MR × NR` register tile over a packed `k` panel: the
/// portable kernel, for targets without the wide x86 vectors
/// [`crate::simd`] programs directly.
///
/// `apanel` is `pc × MR` (`p`-major), `btile` is `pc × NR` (`p`-major).
/// Every `c[i][j]` element receives its `pc` terms one at a time in
/// ascending `p` order — the bitwise-identity invariant lives here.
///
/// The row loop is outermost on purpose: each row's `NR`-wide accumulator
/// is a local that stays live across the whole `p` loop, so the compiler
/// holds it in vector registers and vectorizes along the contiguous `j`
/// axis (unit-stride `b` loads, broadcast `a`). With the `p` loop outside,
/// LLVM instead vectorized across the *row* axis and emitted
/// gather/scatter for every column of `c` — a 5× slowdown. Looping rows
/// first re-reads `btile` `MR` times, but the tile lives in L1 by
/// construction.
#[cfg(not(all(
    target_arch = "x86_64",
    any(target_feature = "avx512f", target_feature = "avx2")
)))]
#[inline]
pub(crate) fn microkernel(apanel: &[f32], btile: &[f32], c: &mut [[f32; NR]; MR]) {
    for (ir, crow) in c.iter_mut().enumerate() {
        let mut acc = *crow;
        for (a, b) in apanel.chunks_exact(MR).zip(btile.chunks_exact(NR)) {
            // Fixed-size views: no bounds checks, full unroll of the width.
            let a: &[f32; MR] = a.try_into().unwrap();
            let b: &[f32; NR] = b.try_into().unwrap();
            let av = a[ir];
            for (cv, &bv) in acc.iter_mut().zip(b) {
                *cv += av * bv;
            }
        }
        *crow = acc;
    }
}

#[cfg(all(
    target_arch = "x86_64",
    any(target_feature = "avx512f", target_feature = "avx2")
))]
pub(crate) use crate::simd::microkernel;

/// The unpacked row kernel: `out[j] += Σₚ a[p] · b[p · ldb + j]` with `p`
/// ascending, one `NR`-wide column strip at a time, the strip's running
/// totals held in registers for the whole `p` loop.
///
/// `b` is read where it lies (row `p` starts at `b[p · ldb]`), so nothing
/// is packed, no scratch is taken and no pool task is enqueued. Per output
/// element this is the `i-k-j` loop the determinism contract is defined
/// by: `out` must hold the running totals (zeros for a fresh product), and
/// the result is bitwise what [`gemm_chunk`] computes.
///
/// Callers: `Nn` products with fewer rows than one register tile
/// (`m < MR`, where the packed path would pack all of `b` and compute an
/// `MR`-row padded tile), and both products of the paged decode attention
/// ([`crate::nn::KvCache`]), whose right operands are block-table slices.
pub(crate) fn row_kernel(a: &[f32], b: &[f32], ldb: usize, out: &mut [f32]) {
    let mut strips = out.chunks_exact_mut(NR);
    let mut j0 = 0;
    for strip in &mut strips {
        let strip: &mut [f32; NR] = strip.try_into().unwrap();
        let mut acc = *strip;
        for (p, &av) in a.iter().enumerate() {
            let brow: &[f32; NR] = b[p * ldb + j0..][..NR].try_into().unwrap();
            for (cv, &bv) in acc.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
        *strip = acc;
        j0 += NR;
    }
    // Ragged last strip: the same chains at the width that is left.
    let tail = strips.into_remainder();
    if tail.is_empty() {
        return;
    }
    for (p, &av) in a.iter().enumerate() {
        let brow = &b[p * ldb + j0..][..tail.len()];
        for (cv, &bv) in tail.iter_mut().zip(brow) {
            *cv += av * bv;
        }
    }
}

/// Packs the `pc × jc` panel of the layout-adjusted right operand `b`
/// starting at global column `j_abs`, `k` range `[p0, p0+pc)`, into
/// `NR`-wide column tiles. Ragged tile columns are zero-padded (their
/// microkernel lanes are discarded on write-back).
fn pack_b(
    g: &Gemm<'_>,
    b: &[f32],
    p0: usize,
    pc: usize,
    j_abs: usize,
    jc: usize,
    panel: &mut [f32],
) {
    let jtiles = jc.div_ceil(NR);
    for jt in 0..jtiles {
        let jbase = j_abs + jt * NR;
        let w = NR.min(j_abs + jc - jbase);
        let tile = &mut panel[jt * pc * NR..(jt + 1) * pc * NR];
        match g.layout {
            Layout::Nn | Layout::Tn => {
                // b is [k, n]: rows of the panel are contiguous slices.
                for (p, dst) in tile.chunks_exact_mut(NR).enumerate() {
                    let src = &b[(p0 + p) * g.n + jbase..(p0 + p) * g.n + jbase + w];
                    dst[..w].copy_from_slice(src);
                    dst[w..].fill(0.0);
                }
            }
            Layout::Nt => pack_nt_tile(&b[jbase * g.k..(jbase + w) * g.k], g.k, p0, pc, tile),
        }
    }
}

/// Packs one `NR`-wide column tile of an `Nt` right operand: `rows` holds
/// the tile's `w ≤ NR` rows of `b` (`[n, k]` used as `Bᵀ`), each `k` wide,
/// and the tile takes their `k` range `[p0, p0+pc)`, `p`-major, the
/// `NR − w` ragged columns zeroed. Each row is read contiguously and
/// scattered into the tile — the transposing copy that de-strides the nt
/// layout. The per-call packer ([`pack_b`]) and [`PackedB::pack_nt_rows`]
/// both pack `Nt` tiles through here.
fn pack_nt_tile(rows: &[f32], k: usize, p0: usize, pc: usize, tile: &mut [f32]) {
    let w = rows.len() / k.max(1);
    for (jr, row) in rows.chunks_exact(k.max(1)).enumerate() {
        for (p, &v) in row[p0..p0 + pc].iter().enumerate() {
            tile[p * NR + jr] = v;
        }
    }
    for jr in w..NR {
        for p in 0..pc {
            tile[p * NR + jr] = 0.0;
        }
    }
}

/// The right operand of a GEMM, packed once into the panel layout every
/// run would otherwise build per call: the `Bᵀ` of
/// [`crate::Tensor::matmul_nt`] ([`Self::pack_nt`]: the output layer's
/// vocabulary shard) or the `B` of [`crate::Tensor::matmul`]
/// ([`Self::pack_nn`]: a block weight). Either way the pack holds the
/// layout-adjusted `[k, n]` operand, so [`crate::Tensor::matmul_packed`]
/// serves both.
///
/// Layout: `k` panels of `KC` (the last may be shorter) one after another;
/// inside the panel starting at `p0`, every `NR`-wide column tile of the
/// whole operand in order, each `pc × NR` and `p`-major, the ragged last
/// tile zero-padded. The panel at `p0` therefore starts at
/// `p0 · tiles · NR`, and tiles `[t0, t0 + count)` of it are one contiguous
/// run — byte for byte what `pack_b` writes into scratch for those columns.
/// [`crate::Tensor::matmul_packed`] reads these bytes in the order the
/// per-call pack would have produced them, so its result is bitwise
/// `matmul_nt`'s (or `matmul`'s).
///
/// Costs `k · ⌈n/NR⌉ · NR` floats, drawn from the buffer arena ([`alloc`])
/// and released on drop.
pub struct PackedB {
    k: usize,
    n: usize,
    buf: Vec<f32>,
}

impl PackedB {
    /// Packs `rhs` (`[n, k]`) as the `Bᵀ` operand of `x.matmul_nt(rhs)`:
    /// [`Self::pack_nt_rows`] over the value's own rows, borrowed in place.
    pub fn pack_nt(rhs: &crate::Tensor) -> PackedB {
        let (n, k) = rhs.shape();
        PackedB::pack_nt_rows(n, k, |rows| &rhs.data()[rows.start * k..rows.end * k])
    }

    /// Packs the `[n, k]` operand `Bᵀ` of `x.matmul_nt(b)` from its rows,
    /// one column tile at a time, without `b` ever existing whole:
    /// `slab(rows)` returns rows `rows` of `b`, row-major, for consecutive
    /// `NR`-row ranges (the last may be shorter) covering `0..n`. Each slab
    /// is scattered into its tile of every `k` panel and dropped before the
    /// next is asked for, so a caller that builds slabs on demand holds one
    /// at a time beside the pack. The bytes are the per-call packer's, so
    /// [`crate::Tensor::matmul_packed`] against the result is bitwise
    /// `x.matmul_nt(b)`.
    ///
    /// # Panics
    ///
    /// Panics if a slab is not `rows.len() · k` floats.
    pub fn pack_nt_rows<S: AsRef<[f32]>>(
        n: usize,
        k: usize,
        mut slab: impl FnMut(Range<usize>) -> S,
    ) -> PackedB {
        let tiles = n.div_ceil(NR);
        let mut buf = alloc::take_zeroed(k * tiles * NR);
        for jt in 0..tiles {
            let rows = jt * NR..n.min((jt + 1) * NR);
            let held = slab(rows.clone());
            let held = held.as_ref();
            assert_eq!(held.len(), rows.len() * k, "slab of rows {rows:?}");
            for p0 in (0..k).step_by(KC) {
                let pc = KC.min(k - p0);
                let tile = &mut buf[p0 * tiles * NR + jt * pc * NR..][..pc * NR];
                pack_nt_tile(held, k, p0, pc, tile);
            }
        }
        PackedB { k, n, buf }
    }

    /// Packs `rhs` (`[k, n]`) as the `B` operand of `x.matmul(rhs)`, every
    /// `k` panel through the per-call packer.
    pub fn pack_nn(rhs: &crate::Tensor) -> PackedB {
        let (k, n) = rhs.shape();
        let g = Gemm {
            a: Lhs::Rows(&[]),
            b: Rhs::Rows(rhs.data()),
            k,
            n,
            m: 0,
            layout: Layout::Nn,
            accumulate: false,
        };
        let tiles = n.div_ceil(NR);
        let mut buf = alloc::take_zeroed(k * tiles * NR);
        for p0 in (0..k).step_by(KC) {
            let pc = KC.min(k - p0);
            let panel = &mut buf[p0 * tiles * NR..][..tiles * pc * NR];
            pack_b(&g, rhs.data(), p0, pc, 0, n, panel);
        }
        PackedB { k, n, buf }
    }

    /// Shared dimension (`rhs.cols()` of [`Self::pack_nt`], `rhs.rows()`
    /// of [`Self::pack_nn`]).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns (`rhs.rows()` of [`Self::pack_nt`], `rhs.cols()` of
    /// [`Self::pack_nn`]).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Address of the packed buffer (how tests tell a pack that was kept
    /// from one that was copied or rebuilt).
    pub fn as_ptr(&self) -> *const f32 {
        self.buf.as_ptr()
    }

    /// Tiles `[tile0, tile0 + count)` of the `pc`-deep panel at `p0`.
    fn panel(&self, p0: usize, pc: usize, tile0: usize, count: usize) -> &[f32] {
        let tiles = self.n.div_ceil(NR);
        &self.buf[p0 * tiles * NR + tile0 * pc * NR..][..count * pc * NR]
    }
}

impl Clone for PackedB {
    fn clone(&self) -> Self {
        PackedB {
            k: self.k,
            n: self.n,
            buf: alloc::take_copy(&self.buf),
        }
    }
}

impl Drop for PackedB {
    fn drop(&mut self) {
        alloc::release(std::mem::take(&mut self.buf));
    }
}

impl std::fmt::Debug for PackedB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedB {{ k: {}, n: {} }}", self.k, self.n)
    }
}

/// Packs the `mc`-row block of the layout-adjusted left operand starting at
/// global row `row0`, `k` range `[p0, p0+pc)`, into consecutive `p`-major
/// `MR`-row tiles (`block[tile][p · MR + i]`). Ragged tile rows are
/// zero-padded (results discarded on write-back).
fn pack_a_block(g: &Gemm<'_>, row0: usize, mc: usize, p0: usize, pc: usize, block: &mut [f32]) {
    // Where a formed (not borrowed) fragment lands: at most KC (Nn/Nt) or
    // MC (Tn) wide.
    let mut buf = [0.0f32; if KC > MC { KC } else { MC }];
    match g.layout {
        Layout::Nn | Layout::Nt => {
            // a is [m, k]: each tile row is a contiguous slice of a.
            for (mt, apanel) in block.chunks_exact_mut(pc * MR).enumerate() {
                let rbase = row0 + mt * MR;
                let mr = MR.min(row0 + mc - rbase);
                for ir in 0..mr {
                    let src = g.a.fragment(rbase + ir, p0, pc, g.k, &mut buf);
                    for (p, &v) in src.iter().enumerate() {
                        apanel[p * MR + ir] = v;
                    }
                }
                for ir in mr..MR {
                    for p in 0..pc {
                        apanel[p * MR + ir] = 0.0;
                    }
                }
            }
        }
        Layout::Tn => {
            // a is [k, m] used as Aᵀ: each p supplies one contiguous
            // fragment of the block's rows, split across its tiles —
            // packing untransposes the column-major reads.
            for p in 0..pc {
                let src = g.a.fragment(p0 + p, row0, mc, g.m, &mut buf);
                for (mt, part) in src.chunks(MR).enumerate() {
                    let dst = &mut block[(mt * pc + p) * MR..][..MR];
                    dst[..part.len()].copy_from_slice(part);
                    dst[part.len()..].fill(0.0);
                }
            }
        }
    }
}

/// `dst = src`, or `dst += src` with `add`: one tile row in or out. A
/// full-width row takes the fixed-size path, so it moves as whole vectors
/// rather than through a `memcpy` call.
#[inline(always)]
fn tile_io(dst: &mut [f32], src: &[f32], add: bool) {
    #[inline(always)]
    fn io(dst: &mut [f32], src: &[f32], add: bool) {
        if add {
            for (o, &v) in dst.iter_mut().zip(src) {
                *o += v;
            }
        } else {
            dst.copy_from_slice(src);
        }
    }
    match (
        <&mut [f32; NR]>::try_from(&mut *dst),
        <&[f32; NR]>::try_from(src),
    ) {
        (Ok(dst), Ok(src)) => io(dst, src, add),
        _ => io(dst, src, add),
    }
}

/// Runs one whole GEMM into `out` (`[g.m, g.n]` row-major), on the worker
/// pool when it pays. `out` holds zeros, or with [`Gemm::accumulate`] the
/// running totals the product is added to. Every layout accumulates each
/// element in ascending `k` order — bitwise identical to the plain `i-k-j`
/// triple loop for any tiling, thread count or split direction. There is
/// deliberately no `a == 0.0` fast path: skipping a term would turn
/// `0·NaN`/`0·∞` (which are `NaN` under IEEE 754) into `0`, silently
/// masking poisoned gradients.
///
/// An `Nn` product of a row-major `b` with fewer rows than one register
/// tile (`m < MR`) never reaches the packed path: its rows run
/// [`row_kernel`] in place — no pack scratch, no packing, no pool. The
/// rule follows from the tile, not from a tuned threshold: below `MR` rows
/// the packed path computes a padded tile whose extra rows are discarded.
///
/// Otherwise the split direction is shape-driven: outputs with enough rows
/// to give every worker at least one full register tile split into
/// contiguous row chunks; short-wide outputs (few rows against a large
/// vocabulary) split into column panels instead, which are independent
/// subproblems over the same `A` — either way each output element is
/// produced by exactly one task running the serial kernel.
pub(crate) fn run(g: &Gemm<'_>, out: &mut [f32], bias: Option<&[f32]>) {
    let (m, k, n) = (g.m, g.k, g.n);
    if let (Layout::Nn, Rhs::Rows(b), true) = (g.layout, g.b, m < MR) {
        // Fewer rows than one register tile: packing `b` and computing an
        // `MR`-row padded tile costs more than the product itself, so the
        // rows run the unpacked kernel — same per-element order, same bits.
        // (An operand packed beforehand costs no packing: it stays on the
        // tile path.)
        debug_assert!(!g.accumulate, "row-kernel products are fresh");
        let mut buf = match g.a {
            Lhs::Rows(_) => Vec::new(),
            Lhs::SoftmaxGrad(_) | Lhs::ScaledRows(..) => alloc::take_zeroed(k),
        };
        for (i, out_row) in out.chunks_exact_mut(n.max(1)).take(m).enumerate() {
            row_kernel(g.a.fragment(i, 0, k, k, &mut buf), b, n, out_row);
            if let Some(bias) = bias {
                for (o, &bv) in out_row.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
        }
        alloc::release(buf);
        return;
    }
    let work = m.saturating_mul(k).saturating_mul(n);
    let workers = pool::effective_parallelism();
    if m >= workers * MR && pool::would_parallelize(m, work) {
        pool::par_rows_mut(m, work, out, |i0, i1, chunk| {
            let mut rows = ContigRows {
                buf: chunk,
                width: n,
            };
            gemm_chunk(g, i0, i1 - i0, 0, n, &mut rows, bias);
        });
    } else {
        // Short-wide (or serial): the panel split hands the whole problem
        // to one task when parallelism isn't worth it.
        pool::par_col_panels_mut(m, n, NR, work, out, |mut panel| {
            let (j0, j1) = panel.col_range();
            gemm_chunk(g, 0, m, j0, j1 - j0, &mut panel, bias);
        });
    }
}

/// Runs the packed GEMM over output rows `[i0, i0 + rows)` and the global
/// column window `[j_off, j_off + jcols)`, writing through `out` (whose
/// chunk-local rows are `jcols` wide). `bias`, when present, is indexed by
/// *global* column and fused into each output strip after its final `k`
/// panel.
///
/// This is the per-task kernel both pool splits dispatch: the row split
/// passes `j_off = 0, jcols = g.n` with a contiguous chunk, the column
/// split passes its panel's window over all rows. With one thread it runs
/// the whole output. Both splits start every `NC` block on an `NR`
/// boundary, so a pre-packed operand's tile `(j_off + j0)/NR + jt` is the
/// tile the per-call pack would have built.
fn gemm_chunk<O: OutRows>(
    g: &Gemm<'_>,
    i0: usize,
    rows: usize,
    j_off: usize,
    jcols: usize,
    out: &mut O,
    bias: Option<&[f32]>,
) {
    if jcols == 0 || rows == 0 {
        return;
    }
    debug_assert!(
        !g.accumulate || g.k <= KC,
        "accumulating GEMMs are one k panel"
    );
    // Pack scratch comes from the arena, recycled across calls (and across
    // threads' independent chunks — each task takes its own buffers).
    let mut scratch = match g.b {
        Rhs::Rows(_) => alloc::take_zeroed(KC * NC.min(jcols.next_multiple_of(NR))),
        Rhs::Packed(_) => Vec::new(),
    };
    let mut ablock = alloc::take_zeroed(KC * MC.min(rows).next_multiple_of(MR));
    for j0 in (0..jcols).step_by(NC) {
        let jc = NC.min(jcols - j0);
        let jtiles = jc.div_ceil(NR);
        for p0 in (0..g.k).step_by(KC) {
            let pc = KC.min(g.k - p0);
            let bpanel: &[f32] = match g.b {
                Rhs::Rows(b) => {
                    let panel = &mut scratch[..jtiles * pc * NR];
                    pack_b(g, b, p0, pc, j_off + j0, jc, panel);
                    panel
                }
                Rhs::Packed(packed) => packed.panel(p0, pc, (j_off + j0) / NR, jtiles),
            };
            for ib in (0..rows).step_by(MC) {
                let mc = MC.min(rows - ib);
                let mtiles = mc.div_ceil(MR);
                // One A pack per (k-panel, row block), reused across every
                // NR tile of the column panel.
                pack_a_block(g, i0 + ib, mc, p0, pc, &mut ablock[..mtiles * pc * MR]);
                for mt in 0..mtiles {
                    let r0 = ib + mt * MR;
                    // Clamp to the packed block, not the whole chunk: when
                    // MC % MR != 0 (the 6-row AVX2 tile) the last tile of a
                    // non-final block would otherwise spill into the next
                    // block's rows, adding `0·b` terms from the zero padding
                    // (x + 0·∞ = NaN, -0.0 + 0.0 = +0.0) before those rows'
                    // own block runs.
                    let mr = MR.min(ib + mc - r0);
                    let apanel = &ablock[mt * pc * MR..(mt + 1) * pc * MR];
                    for jt in 0..jtiles {
                        let jbase = j0 + jt * NR;
                        let w = NR.min(j0 + jc - jbase);
                        // The first panel starts from zero: a fresh
                        // product's `out` holds exactly that, and an
                        // accumulating one adds the tile in below.
                        let mut c = [[0.0f32; NR]; MR];
                        if p0 > 0 {
                            for (ir, crow) in c.iter_mut().enumerate().take(mr) {
                                let src = &out.row_mut(r0 + ir)[jbase..jbase + w];
                                tile_io(&mut crow[..w], src, false);
                            }
                        }
                        microkernel(apanel, &bpanel[jt * pc * NR..][..pc * NR], &mut c);
                        for (ir, crow) in c.iter().enumerate().take(mr) {
                            let dst = &mut out.row_mut(r0 + ir)[jbase..jbase + w];
                            tile_io(dst, &crow[..w], g.accumulate);
                        }
                    }
                }
            }
        }
        if let Some(bias) = bias {
            // Fused epilogue: the strip's k-accumulation just finished, so
            // per element this is exactly `matmul-result + bias` — bitwise
            // equal to the unfused second pass, but while the strip is hot.
            let brow = &bias[j_off + j0..j_off + j0 + jc];
            for r in 0..rows {
                let dst = &mut out.row_mut(r)[j0..j0 + jc];
                for (o, &bv) in dst.iter_mut().zip(brow) {
                    *o += bv;
                }
            }
        }
    }
    alloc::release(scratch);
    alloc::release(ablock);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal, seeded_rng};
    use crate::Tensor;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`PackedB`]'s documented layout, element by element: the `KC`
    /// panel at `p0`, then tile `jt`, then `p · NR + jr`; ragged columns 0.
    fn layout_oracle(b: &Tensor) -> Vec<f32> {
        let (n, k) = b.shape();
        let tiles = n.div_ceil(NR);
        let mut out = vec![0.0; k * tiles * NR];
        for p0 in (0..k).step_by(KC) {
            let pc = KC.min(k - p0);
            for jt in 0..tiles {
                for p in 0..pc {
                    for jr in 0..NR.min(n - jt * NR) {
                        let at = p0 * tiles * NR + jt * pc * NR + p * NR + jr;
                        out[at] = b.at(jt * NR + jr, p0 + p);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn slab_packer_is_bitwise_pack_nt_and_the_layout() {
        // `k` past `KC` gives multi-panel packs; `n` around `NR` multiples
        // gives full, ragged and single-column tiles.
        for n in [1, 31, 32, 33, 97] {
            for k in [1, 127, 128, 129, 300] {
                let mut b = normal(&mut seeded_rng((n * 1000 + k) as u64), n, k, 1.0);
                let planted = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
                for (i, v) in planted.into_iter().enumerate() {
                    let at = (i * 7919) % (n * k);
                    b.data_mut()[at] = v;
                }
                let whole = PackedB::pack_nt(&b);
                let mut asked = Vec::new();
                let slabs = PackedB::pack_nt_rows(n, k, |rows| {
                    asked.push(rows.clone());
                    b.slice_rows(rows.start, rows.end).unwrap()
                });
                let want: Vec<_> = (0..n).step_by(NR).map(|r| r..n.min(r + NR)).collect();
                assert_eq!(asked, want, "n={n} k={k}: one slab per tile, in order");
                assert_eq!((slabs.k(), slabs.n()), (k, n));
                let oracle = bits(&layout_oracle(&b));
                assert_eq!(bits(&whole.buf), oracle, "pack_nt n={n} k={k}");
                assert_eq!(bits(&slabs.buf), oracle, "slabs n={n} k={k}");
                for m in [1, MR + 1] {
                    let x = normal(&mut seeded_rng(m as u64), m, k, 1.0);
                    let reference = bits(x.matmul_nt(&b).unwrap().data());
                    for pack in [&whole, &slabs] {
                        let y = x.matmul_packed(pack, None).unwrap();
                        assert_eq!(bits(y.data()), reference, "n={n} k={k} m={m}");
                    }
                }
            }
        }
    }
}
