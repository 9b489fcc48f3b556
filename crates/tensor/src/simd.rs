//! Register-resident GEMM microkernels written with `std::arch` intrinsics.
//!
//! One kernel per wide x86 target, each selected at compile time by the
//! same `cfg` that picks [`crate::gemm`]'s register tile:
//!
//! * AVX-512: the 8×32 tile — 16 `zmm` accumulators, the two `b` vectors
//!   of the current `p` and one broadcast of `a`, 19 of 32 registers.
//! * AVX2: the 6×16 tile — 12 `ymm` accumulators, two `b` vectors and one
//!   broadcast, 15 of 16 registers.
//!
//! The whole tile stays in registers across the `p` loop, so each `p` step
//! runs every row's independent multiply and add at once instead of
//! waiting on one row's dependent chain. Each product is a `mul` followed by
//! a separate `add` — never a fused multiply-add, whose single rounding
//! would change the low bit of the sum — so each element still receives its
//! terms one at a time, in ascending `p`, starting from the value loaded
//! from the tile: bitwise the portable kernel's result.
//!
//! Every load and store goes through a fixed-size array reference, so the
//! `unsafe` here is only the pointer-taking load/store intrinsic on memory
//! the reference already proves readable or writable, and the one call
//! into the `#[target_feature]` kernel that the build's `cfg` vouches for.

/// One register-resident kernel: `$mr` rows of two `$lanes`-wide vectors.
#[cfg(all(
    target_arch = "x86_64",
    any(target_feature = "avx2", target_feature = "avx512f")
))]
macro_rules! tile_kernel {
    ($feature:literal, $vec:ident, $lanes:literal, $mr:literal,
     $load:ident, $store:ident, $set1:ident, $mul:ident, $add:ident) => {
        use std::arch::x86_64::{$add, $load, $mul, $set1, $store, $vec};

        const MR: usize = $mr;
        const LANES: usize = $lanes;
        const NR: usize = 2 * LANES;

        #[inline(always)]
        fn load(src: &[f32; LANES]) -> $vec {
            // SAFETY: `src` is a live, readable array of exactly `LANES`
            // floats and the unaligned load has no alignment requirement;
            // the build enables the instruction set (this module's `cfg`).
            unsafe { $load(src.as_ptr()) }
        }

        #[inline(always)]
        fn store(dst: &mut [f32; LANES], v: $vec) {
            // SAFETY: `dst` is a live, exclusively borrowed array of exactly
            // `LANES` floats and the unaligned store has no alignment
            // requirement; the build enables the instruction set.
            unsafe { $store(dst.as_mut_ptr(), v) }
        }

        /// The two vector-wide halves of one tile row.
        #[inline(always)]
        fn halves(row: &[f32; NR]) -> (&[f32; LANES], &[f32; LANES]) {
            let (lo, hi) = row.split_at(LANES);
            (lo.try_into().unwrap(), hi.try_into().unwrap())
        }

        /// `c[i][j] += Σₚ a[p][i] · b[p][j]`, `p` ascending, mul then add
        /// (`apanel` is `pc × MR`, `btile` is `pc × NR`, both `p`-major).
        #[inline]
        pub(crate) fn microkernel(apanel: &[f32], btile: &[f32], c: &mut [[f32; NR]; MR]) {
            // SAFETY: this module is compiled only when the build enables
            // the kernel's target feature (its `cfg`), so every CPU the
            // binary runs on has it.
            unsafe { kernel(apanel, btile, c) }
        }

        #[target_feature(enable = $feature)]
        fn kernel(apanel: &[f32], btile: &[f32], c: &mut [[f32; NR]; MR]) {
            let mut acc: [[$vec; 2]; MR] = c.each_ref().map(|row| {
                let (lo, hi) = halves(row);
                [load(lo), load(hi)]
            });
            for (a, b) in apanel.chunks_exact(MR).zip(btile.chunks_exact(NR)) {
                let a: &[f32; MR] = a.try_into().unwrap();
                let (b0, b1) = halves(b.try_into().unwrap());
                let (b0, b1) = (load(b0), load(b1));
                for (acc, &av) in acc.iter_mut().zip(a) {
                    let av = $set1(av);
                    acc[0] = $add(acc[0], $mul(av, b0));
                    acc[1] = $add(acc[1], $mul(av, b1));
                }
            }
            for (row, acc) in c.iter_mut().zip(acc) {
                let (lo, hi) = row.split_at_mut(LANES);
                store(lo.try_into().unwrap(), acc[0]);
                store(hi.try_into().unwrap(), acc[1]);
            }
        }
    };
}

/// The 8×32 tile in 16 `zmm` accumulators.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    tile_kernel!(
        "avx512f",
        __m512,
        16,
        8,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_mul_ps,
        _mm512_add_ps
    );
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub(crate) use avx512::microkernel;

/// The 6×16 tile in 12 `ymm` accumulators.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    not(target_feature = "avx512f")
))]
mod avx2 {
    tile_kernel!(
        "avx2",
        __m256,
        8,
        6,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_mul_ps,
        _mm256_add_ps
    );
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    not(target_feature = "avx512f")
))]
pub(crate) use avx2::microkernel;
