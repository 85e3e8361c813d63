//! Vendored pseudo-random number generation for the zeroconf reproduction.
//!
//! The growth environment builds fully offline, so the workspace cannot
//! depend on the external `rand` crate. This crate vendors a small,
//! well-understood generator — **xoshiro256++** (Blackman & Vigna), an
//! xorshift-family generator with 256 bits of state — behind the narrow
//! slice of the `rand` API the workspace actually uses:
//!
//! - [`RngCore`] — object-safe entropy source (`next_u64`),
//! - [`Rng`] — blanket extension trait with `gen::<f64>()`,
//!   `gen_range(lo..hi)` and `gen_bool(p)`,
//! - [`SeedableRng`] — `seed_from_u64` construction,
//! - [`rngs::StdRng`] — the workspace's default generator.
//!
//! It also carries [`for_each_seed`], the seeded-case loop the
//! workspace's property suites run on: one fresh generator per seed, and
//! the failing seed named on stderr.
//!
//! Import paths deliberately mirror `rand` (`zeroconf_rng::rngs::StdRng`,
//! `zeroconf_rng::SeedableRng`, …) so the simulation and test code reads
//! identically to its original form. Sequences differ from `rand`'s
//! ChaCha-based `StdRng`; every consumer in this workspace is either
//! statistical (tolerance-based) or compares two same-seed runs, so only
//! reproducibility *within* this crate matters, and that is guaranteed:
//! the generator is pure integer arithmetic with a fixed seeding scheme
//! (SplitMix64), stable across platforms and releases.
//!
//! # Examples
//!
//! ```
//! use zeroconf_rng::rngs::StdRng;
//! use zeroconf_rng::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let u: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&u));
//! let k = rng.gen_range(0..10u32);
//! assert!(k < 10);
//! ```

#![forbid(unsafe_code)]

use std::ops::Range;

/// An object-safe source of random 64-bit words.
///
/// The one required method is [`RngCore::next_u64`]; everything else is
/// derived. The trait is object safe so distributions can take
/// `&mut dyn RngCore`.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns 32 random bits (the upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        R::next_u64(self)
    }
    fn next_u32(&mut self) -> u32 {
        R::next_u32(self)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u64(&mut self) -> u64 {
        R::next_u64(self)
    }
    fn next_u32(&mut self) -> u32 {
        R::next_u32(self)
    }
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose state is expanded from `seed` with
    /// SplitMix64 (the expansion recommended by the xoshiro authors).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience extension methods over any [`RngCore`].
///
/// Blanket-implemented for every `R: RngCore + ?Sized`, mirroring
/// `zeroconf_rng::Rng`.
pub trait Rng: RngCore {
    /// Draws a value of type `T` from its standard distribution
    /// (`f64`: uniform on `[0, 1)` with 53 random bits).
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from the half-open range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types drawable by [`Rng::gen`].
pub trait SampleStandard: Sized {
    /// Draws one value from the type's standard distribution.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for f64 {
    /// Uniform on `[0, 1)`: the top 53 bits of one draw, scaled by 2⁻⁵³.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl SampleStandard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

/// Types drawable by [`Rng::gen_range`].
pub trait SampleRange: Sized {
    /// Draws uniformly from `range`; panics when it is empty.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// Unbiased integer in `[0, bound)` by widening multiply with rejection
/// (Lemire's method).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(bound);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range called with empty range");
                let span = (range.end - range.start) as u64;
                range.start + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u32, u64, usize);

impl SampleRange for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range called with empty range");
        let u: f64 = f64::sample_standard(rng);
        range.start + u * (range.end - range.start)
    }
}

/// SplitMix64: the seed-expansion generator (Steele, Lea & Flood).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ — the workspace's vendored generator.
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush; the `++` output
/// scrambler avoids the low-bit linearity of plain xorshift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Builds a generator from raw state words; at least one must be
    /// non-zero (an all-zero state is a fixed point). Prefer
    /// [`SeedableRng::seed_from_u64`].
    pub fn from_state(s: [u64; 4]) -> Option<Self> {
        if s == [0; 4] {
            None
        } else {
            Some(Xoshiro256PlusPlus { s })
        }
    }
}

impl SeedableRng for Xoshiro256PlusPlus {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        // SplitMix64 never maps distinct seeds to an all-zero state word
        // quadruple (it is a bijection per step), so the state is valid.
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256PlusPlus { s }
    }
}

impl RngCore for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Runs `property` once per seed in `seeds`, each time with a fresh
/// [`rngs::StdRng`] seeded from that seed — the workspace's property-test
/// loop, with no external crate.
///
/// When a case panics, `property failed at seed N` goes to stderr and the
/// panic carries on, so the test fails with its own message. A case that
/// draws all its inputs from the generator depends on nothing but its
/// seed: to replay it alone, pass `N..N + 1`.
///
/// ```
/// use zeroconf_rng::{for_each_seed, Rng};
///
/// for_each_seed(0..64, |rng| {
///     let x = rng.gen_range(0.0..1.0);
///     assert!((0.0..1.0).contains(&x));
/// });
/// ```
pub fn for_each_seed(seeds: Range<u64>, mut property: impl FnMut(&mut rngs::StdRng)) {
    for seed in seeds {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rngs::StdRng::seed_from_u64(seed));
        }));
        if let Err(cause) = outcome {
            eprintln!("property failed at seed {seed}");
            std::panic::resume_unwind(cause);
        }
    }
}

/// Named generators, mirroring `zeroconf_rng::rngs`.
pub mod rngs {
    /// The workspace's standard generator (xoshiro256++).
    ///
    /// A type alias rather than a wrapper so `StdRng` and
    /// [`super::Xoshiro256PlusPlus`] interoperate freely.
    pub type StdRng = super::Xoshiro256PlusPlus;
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn reference_vector_matches_xoshiro256plusplus() {
        // First outputs for state [1, 2, 3, 4], from the reference C
        // implementation at https://prng.di.unimi.it/xoshiro256plusplus.c.
        let mut rng = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]).unwrap();
        let expected: [u64; 4] = [41943041, 58720359, 3588806011781223, 3591011842654386];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let equal = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(equal < 2);
    }

    #[test]
    fn all_zero_state_is_rejected() {
        assert!(Xoshiro256PlusPlus::from_state([0; 4]).is_none());
    }

    #[test]
    fn f64_is_uniform_on_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        let mut below_half = 0u32;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
            if u < 0.5 {
                below_half += 1;
            }
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
        let frac = below_half as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn gen_range_covers_and_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let k = rng.gen_range(0..10usize);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let k = rng.gen_range(5..7u32);
            assert!((5..7).contains(&k));
        }
        let x = rng.gen_range(-2.0..3.0f64);
        assert!((-2.0..3.0).contains(&x));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.gen_range(5..5u32);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn works_through_dyn_and_fully_qualified_calls() {
        let mut rng = StdRng::seed_from_u64(3);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let u: f64 = Rng::gen(dyn_rng);
        assert!((0.0..1.0).contains(&u));
        let k = Rng::gen_range(dyn_rng, 0..4usize);
        assert!(k < 4);
    }

    #[test]
    fn for_each_seed_runs_each_seed_once_in_order_from_its_own_stream() {
        let mut seen = Vec::new();
        for_each_seed(3..6, |rng| {
            seen.push(rng.next_u64());
        });
        let want: Vec<u64> = (3..6)
            .map(|seed| StdRng::seed_from_u64(seed).next_u64())
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    #[should_panic(expected = "case 4 fails")]
    fn for_each_seed_carries_the_failing_case_panic_on() {
        let mut seed = 0;
        for_each_seed(0..8, |_| {
            assert!(seed != 4, "case {seed} fails");
            seed += 1;
        });
    }

    #[test]
    fn uniform_below_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[uniform_below(&mut rng, 3) as usize] += 1;
        }
        for c in counts {
            assert!((c as f64 / 10_000.0 - 1.0).abs() < 0.05, "{counts:?}");
        }
    }
}
