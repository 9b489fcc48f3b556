//! Paged, arena-backed key/value cache for incremental (decode) attention.
//!
//! Training runs attention over whole sequences, so every forward sees all
//! positions at once. A decode step sees **one new token** per sequence and
//! must attend over everything generated so far; recomputing the full
//! prefix per step is quadratic in context length. The [`KvCache`] keeps
//! one layer's projected keys and values for one sequence, growing as
//! tokens arrive.
//!
//! Storage is *paged*: instead of one contiguous buffer per cache that
//! doubles on growth (2× jumps, copy-on-grow, fragmentation when long and
//! short requests share a pipeline), a [`KvBlockPool`] hands out
//! fixed-size blocks of `block_tokens` rows and each cache keeps a block
//! table — memory grows in O(tokens) pages and a retired request's blocks
//! are immediately reusable by the next admission at any length. Rows are
//! block-aligned (a row never straddles two blocks). A value block holds
//! its rows as they come, so consecutive positions inside a block are one
//! contiguous run of rows; a key block holds its rows *transposed*
//! (column `c` of every slot, then column `c + 1`), so consecutive
//! positions of one key column are one contiguous run. That is what the
//! attention kernel (`KvCache::attend`) reads, a block at a time: value
//! rows in place, and key tiles assembled with one vector copy per column
//! and block — the transposition is paid once, when a row is appended.
//!
//! Blocks come from the size-class buffer arena ([`crate::alloc`]) — the
//! same pool the training runtime recycles its activations through — and
//! go back to it on [`KvCache::release`], so the arena's free list *is*
//! the block free list: a serving engine that admits and retires many
//! request streams allocates (nearly) zero fresh memory at steady state,
//! and the arena's `outstanding` gauge returns to baseline whenever all
//! requests have retired. A pool may be bounded ([`KvBlockPool::bounded`]):
//! [`KvCache::append`] then reports exhaustion as an error instead of
//! panicking, which the serving engine converts into admission
//! backpressure.

use std::sync::{Arc, Mutex};

use std::ops::Range;

use crate::gemm::{microkernel, row_kernel, MR, NR};
use crate::ops::{exp_sum_rows, softmax_norm};
use crate::{alloc, Result, Tensor, TensorError};

/// Default block size (rows per page) used by [`KvCache::new`].
pub const DEFAULT_BLOCK_TOKENS: usize = 16;

#[derive(Debug)]
struct PoolShared {
    hidden: usize,
    block_tokens: usize,
    /// Hard cap on concurrently allocated blocks (`usize::MAX` = unbounded).
    capacity_blocks: usize,
    /// Blocks currently handed out to caches.
    allocated: Mutex<usize>,
}

/// A shared fixed-size block allocator over the buffer arena.
///
/// Cloning the handle shares the pool: all clones draw against the same
/// block capacity. One pool serves every (slot, layer) cache of a device,
/// so the device's total KV memory is capped in *blocks*, not in
/// per-request high-water marks.
#[derive(Debug, Clone)]
pub struct KvBlockPool {
    shared: Arc<PoolShared>,
}

impl KvBlockPool {
    /// Creates an unbounded pool handing out blocks of `block_tokens` rows
    /// of `hidden` floats each.
    ///
    /// # Panics
    ///
    /// Panics if `hidden == 0` or `block_tokens == 0` (configuration bug).
    pub fn new(hidden: usize, block_tokens: usize) -> Self {
        Self::build(hidden, block_tokens, usize::MAX)
    }

    /// Creates a pool with a hard cap of `capacity_blocks` concurrently
    /// allocated blocks. When the cap is reached, [`KvCache::append`]
    /// returns [`TensorError::Exhausted`] instead of allocating.
    ///
    /// # Panics
    ///
    /// Panics if `hidden == 0`, `block_tokens == 0` or
    /// `capacity_blocks == 0`.
    pub fn bounded(hidden: usize, block_tokens: usize, capacity_blocks: usize) -> Self {
        assert!(capacity_blocks > 0, "pool capacity must be positive");
        Self::build(hidden, block_tokens, capacity_blocks)
    }

    fn build(hidden: usize, block_tokens: usize, capacity_blocks: usize) -> Self {
        assert!(hidden > 0, "hidden must be positive");
        assert!(block_tokens > 0, "block size must be positive");
        KvBlockPool {
            shared: Arc::new(PoolShared {
                hidden,
                block_tokens,
                capacity_blocks,
                allocated: Mutex::new(0),
            }),
        }
    }

    /// Row width of every block.
    pub fn hidden(&self) -> usize {
        self.shared.hidden
    }

    /// Rows per block.
    pub fn block_tokens(&self) -> usize {
        self.shared.block_tokens
    }

    /// The block cap, if the pool is bounded.
    pub fn capacity_blocks(&self) -> Option<usize> {
        (self.shared.capacity_blocks != usize::MAX).then_some(self.shared.capacity_blocks)
    }

    /// Blocks currently handed out to caches.
    pub fn allocated_blocks(&self) -> usize {
        *self
            .shared
            .allocated
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Number of blocks needed to hold `tokens` rows — what an admission
    /// controller reserves per request and per layer.
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.shared.block_tokens)
    }

    /// Takes one K block and one V block from the arena, each sized (and
    /// zero-filled) to exactly `block_tokens * hidden` floats.
    fn take_pair(&self) -> Result<(Vec<f32>, Vec<f32>)> {
        {
            let mut allocated = self
                .shared
                .allocated
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if *allocated >= self.shared.capacity_blocks {
                return Err(TensorError::Exhausted {
                    resource: "kv block pool",
                    capacity: self.shared.capacity_blocks,
                });
            }
            *allocated += 1;
        }
        let floats = self.shared.block_tokens * self.shared.hidden;
        let mut k = alloc::take_raw(floats);
        let mut v = alloc::take_raw(floats);
        k.resize(floats, 0.0);
        v.resize(floats, 0.0);
        Ok((k, v))
    }

    /// Returns a K/V block pair to the arena and frees its capacity slot.
    fn give_back(&self, k: Vec<f32>, v: Vec<f32>) {
        alloc::release(k);
        alloc::release(v);
        let mut allocated = self
            .shared
            .allocated
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *allocated = allocated.saturating_sub(1);
    }
}

/// One layer's cached keys and values for one sequence, stored as a block
/// table over a [`KvBlockPool`].
///
/// Rows are positions; each row holds `hidden` floats (all heads
/// concatenated, exactly the layout of the projected `K`/`V` matrices in
/// [`crate::nn::MultiHeadAttention`]). Position `i` lives in slot
/// `i % block_tokens` of block `i / block_tokens`: its value row at offset
/// `slot · hidden` of the value block, its key column `c` at `c ·
/// block_tokens + slot` of the key block (keys are stored transposed).
#[derive(Debug)]
pub struct KvCache {
    pool: KvBlockPool,
    k_blocks: Vec<Vec<f32>>,
    v_blocks: Vec<Vec<f32>>,
    len: usize,
}

impl KvCache {
    /// Creates an empty cache for rows of `hidden` floats over a private
    /// unbounded pool with the default block size. No memory is taken from
    /// the arena until the first [`Self::append`].
    pub fn new(hidden: usize) -> Self {
        Self::with_pool(&KvBlockPool::new(hidden, DEFAULT_BLOCK_TOKENS))
    }

    /// Creates an empty cache drawing blocks from a shared pool.
    pub fn with_pool(pool: &KvBlockPool) -> Self {
        KvCache {
            pool: pool.clone(),
            k_blocks: Vec::new(),
            v_blocks: Vec::new(),
            len: 0,
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no positions are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row width (hidden size) of the cached keys/values.
    pub fn hidden(&self) -> usize {
        self.pool.hidden()
    }

    /// Blocks currently held by this cache (per side; K and V tables are
    /// always the same length).
    pub fn blocks(&self) -> usize {
        self.k_blocks.len()
    }

    /// Appends one position's key and value rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Exhausted`] if a new block is needed and the
    /// pool's block capacity is spent. The cache is unchanged in that
    /// case — the caller can retry after other requests retire.
    ///
    /// # Panics
    ///
    /// Panics if either row is not `hidden` floats long (caller bug).
    pub fn append(&mut self, k_row: &[f32], v_row: &[f32]) -> Result<()> {
        let hidden = self.pool.hidden();
        assert_eq!(k_row.len(), hidden, "key row width mismatch");
        assert_eq!(v_row.len(), hidden, "value row width mismatch");
        self.push_rows(k_row, v_row, 1)
    }

    /// Appends a chunk of consecutive positions: `k` and `v` hold one
    /// `hidden`-wide row per position, row-major. All or nothing — every
    /// block pair the chunk needs is acquired before any row is written.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Exhausted`] if the pool cannot supply every
    /// block the chunk needs. The cache (and the pool's count) is unchanged
    /// in that case — the caller can retry after other requests retire.
    ///
    /// # Panics
    ///
    /// Panics if `k` and `v` differ in length or are not whole rows
    /// (caller bug).
    pub fn append_rows(&mut self, k: &[f32], v: &[f32]) -> Result<()> {
        let n = k.len() / self.pool.hidden();
        assert_eq!(k.len(), v.len(), "key/value chunk length mismatch");
        assert_eq!(k.len(), n * self.pool.hidden(), "chunk row width mismatch");
        self.push_rows(k, v, n)
    }

    /// [`Self::append_rows`] behind its checks: `k` and `v` are `n` rows.
    fn push_rows(&mut self, k: &[f32], v: &[f32], n: usize) -> Result<()> {
        let (hidden, bt) = (self.pool.hidden(), self.pool.block_tokens());
        let held = self.k_blocks.len();
        while self.k_blocks.len() * bt < self.len + n {
            // The pool takes K and V blocks together, so the tables
            // cannot go out of step on exhaustion.
            match self.pool.take_pair() {
                Ok((kb, vb)) => {
                    self.k_blocks.push(kb);
                    self.v_blocks.push(vb);
                }
                Err(e) => {
                    let taken = self.k_blocks.drain(held..).zip(self.v_blocks.drain(held..));
                    for (kb, vb) in taken {
                        self.pool.give_back(kb, vb);
                    }
                    return Err(e);
                }
            }
        }
        // Rows that share a block are contiguous value rows, and
        // contiguous slots of every key column.
        let mut done = 0;
        for (block, slots) in spans(bt, self.len, self.len + n) {
            let take = slots.len();
            let (src, dst) = (done * hidden..(done + take) * hidden, slots.start * hidden);
            self.v_blocks[block][dst..dst + take * hidden].copy_from_slice(&v[src.clone()]);
            let rows = &k[src];
            for (c, dst) in self.k_blocks[block].chunks_exact_mut(bt).enumerate() {
                for (d, row) in dst[slots.clone()].iter_mut().zip(rows.chunks_exact(hidden)) {
                    *d = row[c];
                }
            }
            done += take;
        }
        self.len += n;
        Ok(())
    }

    /// Key row at position `i`, gathered out of its transposed block.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn k_row(&self, i: usize) -> Vec<f32> {
        assert!(i < self.len, "kv row {i} out of bounds (len {})", self.len);
        let (hidden, bt) = (self.pool.hidden(), self.pool.block_tokens());
        let block = &self.k_blocks[i / bt];
        (0..hidden).map(|c| block[c * bt + i % bt]).collect()
    }

    /// Value row at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn v_row(&self, i: usize) -> &[f32] {
        assert!(i < self.len, "kv row {i} out of bounds (len {})", self.len);
        let (hidden, bt) = (self.pool.hidden(), self.pool.block_tokens());
        let at = (i % bt) * hidden;
        &self.v_blocks[i / bt][at..at + hidden]
    }

    /// Causal attention of `q`'s `n` rows — the queries of the cache's
    /// last `n` positions — over the cached prefix and themselves, every
    /// head, returning the concatenated per-head context `[n, hidden]`.
    ///
    /// Reads the block table in place: nothing is gathered into tensors
    /// and no GEMM or pool entry is taken; one arena buffer holds the
    /// call's scratch (the score rows, one key tile, and for a chunk the
    /// packed queries, probabilities and values) and is reused across
    /// heads. Per output element the operations and their order are those
    /// of the gather + `matmul_nt` + `softmax_rows` + `matmul` formulation
    /// this replaces (kept as the test oracle): the score of (row `i`,
    /// position `j`) is `Σₚ q[i][p]·k[j][p]` with `p` ascending from
    /// `+0.0`, then `· scale`; the row softmax over positions `0..=base+i`
    /// is [`exp_sum_rows`] and [`softmax_norm`] (the one-row softmax, its
    /// sums run as interleaved chains); the context is `Σⱼ prob[j]·v[j][c]`
    /// with `j` ascending from `+0.0`.
    ///
    /// Keys are read one `NR`-position tile at a time ([`Self::key_tile`]).
    /// A chunk of at least `MR` rows runs both products on the `MR × NR`
    /// register tile (`microkernel`), `MR` rows at a time:
    ///
    /// * `QKᵀ`: every score is a whole dot product, so a row tile's key
    ///   tiles cover every position any of its rows can see; lanes past a
    ///   row's own horizon are computed and never read.
    /// * `P·V`: a sum over positions must stop at each row's horizon, so
    ///   the tile covers only the positions every row of it can see
    ///   (`0..base + i0 + 1` for first row `i0`), and each row adds its
    ///   causal tail (the diagonal) on [`row_kernel`], continuing the same
    ///   chains in the same ascending order.
    ///
    /// Fewer than `MR` rows (decode) run both products on [`row_kernel`]:
    /// a register tile would be mostly padding.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not `hidden` wide, has more rows than the cache
    /// holds positions, or `heads` does not divide `hidden` (caller bugs).
    pub(crate) fn attend(&self, q: &Tensor, heads: usize) -> Tensor {
        let (hidden, bt) = (self.pool.hidden(), self.pool.block_tokens());
        let n = q.rows();
        assert_eq!(q.cols(), hidden, "query row width mismatch");
        assert!(n <= self.len, "more query rows than cached positions");
        assert!(hidden.is_multiple_of(heads), "heads must divide hidden");
        let base = self.len - n;
        let hd = hidden / heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let mut context = Tensor::zeros(n, hidden);
        let stride = self.len.next_multiple_of(NR);
        // The chunk's register tiles: row tile `t` covers rows
        // `t·MR .. (t+1)·MR` and, in `P·V`, positions `0..horizon(t)`.
        let row_tiles = if n >= MR { n.div_ceil(MR) } else { 0 };
        let horizon = |t: usize| base + t * MR + 1;
        let (vpos, col_tiles) = match row_tiles {
            0 => (0, 0),
            t => (horizon(t - 1), hd.div_ceil(NR)),
        };
        let sizes = [
            n * stride,            // scores
            hd * NR,               // key tile
            2 * n,                 // row max, row sum
            row_tiles * MR * hd,   // packed queries
            vpos * MR,             // packed probabilities of one row tile
            col_tiles * vpos * NR, // packed values
        ];
        let mut scratch = alloc::take_zeroed(sizes.iter().sum());
        let [scores, ktile, stats, qpack, ppack, vpack] = split(&mut scratch, sizes);
        let (max, sum) = stats.split_at_mut(n);
        for c0 in (0..hidden).step_by(hd) {
            // Scores.
            if row_tiles == 0 {
                // `row_kernel` adds onto running totals, which start at zero.
                scores.fill(0.0);
            }
            // qtile[p · MR + i] = q[t·MR + i][c0 + p]; a last tile's
            // padding rows are never written (their lanes are discarded).
            for (t, qtile) in qpack.chunks_exact_mut(MR * hd).enumerate() {
                for i in 0..MR.min(n - t * MR) {
                    let row = &q.row(t * MR + i)[c0..c0 + hd];
                    for (p, &v) in row.iter().enumerate() {
                        qtile[p * MR + i] = v;
                    }
                }
            }
            for j0 in (0..self.len).step_by(NR) {
                self.key_tile(c0, hd, j0, ktile);
                for (t, qtile) in qpack.chunks_exact(MR * hd).enumerate() {
                    let rows = MR.min(n - t * MR);
                    if j0 >= base + t * MR + rows {
                        continue;
                    }
                    let mut c = [[0.0f32; NR]; MR];
                    microkernel(qtile, ktile, &mut c);
                    for (i, crow) in c.iter().enumerate().take(rows) {
                        scores[(t * MR + i) * stride + j0..][..NR].copy_from_slice(crow);
                    }
                }
                if row_tiles == 0 {
                    // Rows whose horizon `base + i + 1` reaches into the tile.
                    for i in j0.saturating_sub(base)..n {
                        let out = &mut scores[i * stride + j0..][..NR];
                        row_kernel(&q.row(i)[c0..c0 + hd], ktile, NR, out);
                    }
                }
            }
            // Probabilities: scale, then the grouped exp-sum and the norm.
            for i in 0..n {
                for s in &mut scores[i * stride..][..base + i + 1] {
                    *s *= scale;
                }
            }
            exp_sum_rows(scores, stride, |i| base + i + 1, max, sum);
            for (i, &s) in sum.iter().enumerate() {
                let norm = softmax_norm(s);
                for p in &mut scores[i * stride..][..base + i + 1] {
                    *p *= norm;
                }
            }
            // Context: the row tiles' shared positions on the register
            // tile, then every row's causal tail on the row kernel.
            if row_tiles > 0 {
                self.value_tiles(c0, hd, vpos, vpack);
            }
            for t in 0..row_tiles {
                let (i0, rows, h) = (t * MR, MR.min(n - t * MR), horizon(t));
                // ppack[j · MR + i] = prob[i0 + i][j] (padding rows repeat
                // the last row; their lanes are discarded).
                let ppack = &mut ppack[..h * MR];
                let probs: [&[f32]; MR] =
                    std::array::from_fn(|i| &scores[(i0 + i.min(rows - 1)) * stride..][..h]);
                for (j, dst) in ppack.chunks_exact_mut(MR).enumerate() {
                    for (d, row) in dst.iter_mut().zip(&probs) {
                        *d = row[j];
                    }
                }
                for (ct, vtile) in vpack.chunks_exact(vpos * NR).enumerate() {
                    let (col, w) = (c0 + ct * NR, NR.min(hd - ct * NR));
                    let mut c = [[0.0f32; NR]; MR];
                    microkernel(ppack, &vtile[..h * NR], &mut c);
                    for (i, crow) in c.iter().enumerate().take(rows) {
                        context.row_mut(i0 + i)[col..col + w].copy_from_slice(&crow[..w]);
                    }
                }
            }
            for i in 0..n {
                let from = if row_tiles > 0 { horizon(i / MR) } else { 0 };
                let probs = &scores[i * stride..][..base + i + 1];
                let ctx = &mut context.row_mut(i)[c0..c0 + hd];
                let mut j = from;
                for run in runs(&self.v_blocks, hidden, bt, from, probs.len()) {
                    let rows = run.len() / hidden;
                    row_kernel(&probs[j..j + rows], &run[c0..], hidden, ctx);
                    j += rows;
                }
            }
        }
        alloc::release(scratch);
        context
    }

    /// `ktile[p · NR + jj] = k[j0 + jj][c0 + p]` for the head's `hd`
    /// columns and the positions `j0..j0 + NR` the cache holds: one copy
    /// per column and block, out of the transposed key blocks. Lanes past
    /// the last position keep what they held; their scores are never read.
    fn key_tile(&self, c0: usize, hd: usize, j0: usize, ktile: &mut [f32]) {
        let bt = self.pool.block_tokens();
        let mut jj = 0;
        for (block, slots) in spans(bt, j0, self.len.min(j0 + NR)) {
            let kb = &self.k_blocks[block];
            for (p, dst) in ktile.chunks_exact_mut(NR).take(hd).enumerate() {
                let src = &kb[(c0 + p) * bt..][slots.clone()];
                copy_short(&mut dst[jj..jj + src.len()], src);
            }
            jj += slots.len();
        }
    }

    /// The head's value columns `c0..c0 + hd` at positions `0..positions`,
    /// packed as `NR`-wide column tiles (`vpack[tile][j · NR + cc]`, the
    /// ragged last tile zero-padded): the `P·V` right operand.
    fn value_tiles(&self, c0: usize, hd: usize, positions: usize, vpack: &mut [f32]) {
        let (hidden, bt) = (self.pool.hidden(), self.pool.block_tokens());
        let rows =
            runs(&self.v_blocks, hidden, bt, 0, positions).flat_map(|r| r.chunks_exact(hidden));
        for (j, row) in rows.enumerate() {
            for (ct, tile) in vpack.chunks_exact_mut(positions * NR).enumerate() {
                let (col, w) = (c0 + ct * NR, NR.min(hd - ct * NR));
                let dst = &mut tile[j * NR..][..NR];
                copy_short(&mut dst[..w], &row[col..col + w]);
                dst[w..].fill(0.0);
            }
        }
    }

    /// Forgets all cached positions but keeps the blocks, so the same slot
    /// can serve a new sequence without going back to the pool.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Returns every block to the pool (and through it to the arena). The
    /// cache is empty afterwards and usable again.
    ///
    /// This is what a serving engine calls on request retirement: the
    /// arena's `outstanding` gauge drops back, the pool's capacity slots
    /// free up for admission, and the freed blocks serve the next request.
    pub fn release(&mut self) {
        self.len = 0;
        for (k, v) in self.k_blocks.drain(..).zip(self.v_blocks.drain(..)) {
            self.pool.give_back(k, v);
        }
    }

    /// Approximate bytes currently reserved by the cache's block table.
    pub fn reserved_bytes(&self) -> usize {
        let per_block = self.pool.block_tokens() * self.pool.hidden();
        2 * self.k_blocks.len() * per_block * std::mem::size_of::<f32>()
    }
}

/// Positions `[j0, j1)` of a block table with `bt` slots per block, in
/// order: one `(block, slots)` pair per block touched (none for an empty
/// range).
fn spans(bt: usize, j0: usize, j1: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    (j0 / bt..j1.div_ceil(bt).max(j0 / bt))
        .map(move |block| {
            let start = block * bt;
            (block, j0.max(start) - start..j1.min(start + bt) - start)
        })
        .filter(|(_, slots)| !slots.is_empty())
}

/// Positions `[j0, j1)` of the value block table in order, as one slice
/// per block touched: each item is the contiguous run of whole
/// `hidden`-wide rows the range covers in that block.
fn runs(
    blocks: &[Vec<f32>],
    hidden: usize,
    bt: usize,
    j0: usize,
    j1: usize,
) -> impl Iterator<Item = &[f32]> {
    spans(bt, j0, j1)
        .map(move |(block, slots)| &blocks[block][slots.start * hidden..slots.end * hidden])
}

/// `dst.copy_from_slice(src)` for the short runs of a tile (a block's
/// slots of one key column, a value row's head columns), moved in 8-float
/// blocks: at a few vectors a `memcpy` call costs more than the copy.
#[inline(always)]
fn copy_short(dst: &mut [f32], src: &[f32]) {
    let (mut d8, mut s8) = (dst.chunks_exact_mut(8), src.chunks_exact(8));
    for (d, s) in (&mut d8).zip(&mut s8) {
        let d: &mut [f32; 8] = d.try_into().expect("8 wide");
        *d = s.try_into().expect("8 wide");
    }
    for (d, &s) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *d = s;
    }
}

/// `buf` cut into consecutive pieces of the given sizes.
fn split<const N: usize>(mut buf: &mut [f32], sizes: [usize; N]) -> [&mut [f32]; N] {
    sizes.map(|len| {
        let (head, tail) = std::mem::take(&mut buf).split_at_mut(len);
        buf = tail;
        head
    })
}

impl Drop for KvCache {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_back() {
        let mut kv = KvCache::new(3);
        assert!(kv.is_empty());
        kv.append(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap();
        kv.append(&[7.0, 8.0, 9.0], &[10.0, 11.0, 12.0]).unwrap();
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.k_row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(kv.v_row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn growth_preserves_contents_across_block_boundaries() {
        // 100 rows over 16-token pages: 7 blocks, the last partial.
        let mut kv = KvCache::new(4);
        for i in 0..100 {
            let row = [i as f32; 4];
            kv.append(&row, &row).unwrap();
        }
        assert_eq!(kv.blocks(), 100usize.div_ceil(DEFAULT_BLOCK_TOKENS));
        for i in 0..100 {
            assert_eq!(kv.k_row(i)[0], i as f32, "row {i} lost in growth");
            assert_eq!(kv.v_row(i)[3], i as f32, "row {i} lost in growth");
        }
    }

    #[test]
    fn clear_keeps_capacity_release_returns_it() {
        let mut kv = KvCache::new(8);
        for _ in 0..32 {
            kv.append(&[0.5; 8], &[0.5; 8]).unwrap();
        }
        let reserved = kv.reserved_bytes();
        assert!(reserved > 0);
        kv.clear();
        assert!(kv.is_empty());
        assert_eq!(kv.reserved_bytes(), reserved, "clear must keep blocks");
        kv.release();
        assert_eq!(kv.reserved_bytes(), 0, "release must drop blocks");
        // The cache stays usable after release.
        kv.append(&[1.0; 8], &[2.0; 8]).unwrap();
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn bounded_pool_exhaustion_is_an_error_not_a_panic() {
        let pool = KvBlockPool::bounded(4, 2, 2);
        let mut kv = KvCache::with_pool(&pool);
        for i in 0..4 {
            kv.append(&[i as f32; 4], &[i as f32; 4]).unwrap();
        }
        // Both blocks are spent; the fifth row needs a third block.
        let err = kv.append(&[9.0; 4], &[9.0; 4]).unwrap_err();
        assert!(matches!(
            err,
            TensorError::Exhausted {
                resource: "kv block pool",
                capacity: 2
            }
        ));
        // The failed append left the cache intact and readable.
        assert_eq!(kv.len(), 4);
        assert_eq!(kv.k_row(3), &[3.0; 4]);
    }

    #[test]
    fn released_blocks_free_pool_capacity_for_the_next_cache() {
        let pool = KvBlockPool::bounded(4, 2, 2);
        let mut a = KvCache::with_pool(&pool);
        for _ in 0..4 {
            a.append(&[1.0; 4], &[1.0; 4]).unwrap();
        }
        assert_eq!(pool.allocated_blocks(), 2);
        let mut b = KvCache::with_pool(&pool);
        assert!(b.append(&[2.0; 4], &[2.0; 4]).is_err(), "pool is full");
        a.release();
        assert_eq!(pool.allocated_blocks(), 0);
        // Retirement freed the slots: the blocked cache can proceed now.
        b.append(&[2.0; 4], &[2.0; 4]).unwrap();
        assert_eq!(b.k_row(0), &[2.0; 4]);
    }

    #[test]
    fn shared_pool_counts_blocks_across_clones_and_drops() {
        let pool = KvBlockPool::new(2, 4);
        let handle = pool.clone();
        let mut kv = KvCache::with_pool(&pool);
        for _ in 0..5 {
            kv.append(&[0.0; 2], &[0.0; 2]).unwrap();
        }
        assert_eq!(handle.allocated_blocks(), 2);
        assert_eq!(handle.blocks_for(5), 2);
        assert_eq!(handle.blocks_for(8), 2);
        assert_eq!(handle.blocks_for(9), 3);
        drop(kv); // Drop releases through the shared pool.
        assert_eq!(handle.allocated_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_row_width_is_rejected() {
        let mut kv = KvCache::new(4);
        let _ = kv.append(&[0.0; 3], &[0.0; 4]);
    }
}
