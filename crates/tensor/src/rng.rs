//! Self-contained deterministic pseudo-random number generation.
//!
//! All randomness in the workspace flows through explicit [`Rng`] instances
//! so that the pipeline-parallel runtime and the single-device reference
//! build *bit-identical* initial weights (a precondition for the paper's
//! convergence-equivalence evaluation, Appendix E). The generator is a
//! SplitMix64 stream: tiny, fast, statistically solid for test-sized draws,
//! and — crucially for an offline-reproducible artifact — implemented here
//! with no external dependencies.
//!
//! SplitMix64's state is a counter, so [`StdRng::advance`] jumps any number
//! of draws ahead in O(1). That makes a stream *addressable*: a device can
//! start at its own rows' positions in the single-device initialization
//! stream and draw exactly the values the single device would (the stream
//! layout is in [`crate::init`]).

/// Types that can be sampled uniformly from a half-open range by an [`Rng`].
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Samples uniformly from `[lo, hi)`.
    fn sample(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self;
}

/// Object-safe core of [`Rng`]: a stream of uniform 64-bit words.
pub trait RngCore {
    /// The next 64 uniformly-distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// The workspace-wide random-number interface, mirroring the subset of the
/// `rand` crate API the codebase was written against.
pub trait Rng: RngCore {
    /// Samples uniformly from the half-open range `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T
    where
        Self: Sized,
    {
        assert!(
            range.start < range.end,
            "gen_range called with an empty range"
        );
        T::sample(self, range.start, range.end)
    }

    /// A uniform `f64` in `[0, 1)`.
    fn gen_f64(&mut self) -> f64
    where
        Self: Sized,
    {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f32` in `[0, 1)`.
    fn gen_f32(&mut self) -> f32
    where
        Self: Sized,
    {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.gen_f64() < p
    }
}

impl<R: RngCore> Rng for R {}

impl SampleUniform for f32 {
    fn sample(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
        let u = (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        lo + u * (hi - lo)
    }
}

impl SampleUniform for f64 {
    fn sample(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + u * (hi - lo)
    }
}

impl SampleUniform for usize {
    fn sample(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
        // Modulo bias is < 2⁻⁴⁰ for every span in this workspace.
        lo + (rng.next_u64() % (hi - lo) as u64) as usize
    }
}

impl SampleUniform for u64 {
    fn sample(rng: &mut dyn RngCore, lo: Self, hi: Self) -> Self {
        lo + rng.next_u64() % (hi - lo)
    }
}

/// The workspace's standard deterministic generator (SplitMix64).
///
/// Named for drop-in compatibility with the `rand::rngs::StdRng` the code
/// was originally written against; the stream itself differs, which is fine
/// because every cross-implementation test asserts *relative* equivalence
/// from shared seeds, never absolute values.
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

/// SplitMix64's state increment (the golden-ratio gamma).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl StdRng {
    /// Skips `draws` calls of [`RngCore::next_u64`] in O(1): the stream
    /// continues exactly as if they had been made.
    pub fn advance(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(draws.wrapping_mul(GAMMA));
    }

    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // One warm-up step decorrelates small seeds.
        let mut rng = StdRng {
            state: seed.wrapping_add(GAMMA),
        };
        let _ = rng.next_u64();
        rng
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let f = rng.gen_f32();
            assert!((0.0..1.0).contains(&f));
            let d = rng.gen_f64();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn integer_ranges_cover_uniformly() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(13);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "{hits}");
    }

    #[test]
    fn advance_skips_exactly_that_many_draws() {
        for n in [0u64, 1, 2, 1000] {
            let mut stepped = StdRng::seed_from_u64(5);
            for _ in 0..n {
                stepped.next_u64();
            }
            let mut jumped = StdRng::seed_from_u64(5);
            jumped.advance(n);
            assert_eq!(jumped.next_u64(), stepped.next_u64(), "n = {n}");
        }
    }

    #[test]
    fn advances_compose_across_the_wrap() {
        // A state just below the wrap, and jump lengths whose product with
        // the increment overflows `u64` many times.
        for (a, b) in [(3, 4), (u64::MAX, 2), (1 << 63, (1 << 63) + 7)] {
            let mut start = StdRng {
                state: u64::MAX - 1,
            };
            start.next_u64();
            let (mut split, mut whole) = (start.clone(), start);
            split.advance(a);
            split.advance(b);
            whole.advance(a.wrapping_add(b));
            assert_eq!(split.next_u64(), whole.next_u64(), "{a} + {b}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.gen_range(5..5usize);
    }
}
