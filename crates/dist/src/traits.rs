//! The reply-time distribution trait.

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use zeroconf_rng::RngCore;
use zeroconf_simd::Backend;

/// A SipHash accumulator for building
/// [`ReplyTimeDistribution::fingerprint`] values, keyed once per process.
///
/// The fingerprint identifies a distribution *by value*: two instances with
/// the same type tag and the same parameters produce the same 64-bit hash
/// within one process, which is what lets caches key π-tables on
/// `(fingerprint, r)` and share them across scenarios that differ only in
/// `q`, `E` or `c`. A cache that keys on it compares no parameter on a
/// hit, so two *different* parameterizations with equal fingerprints
/// would share tables and get wrong answers. Under an unkeyed hash a
/// client could search offline for parameters that collide with another
/// client's distribution; the key is drawn from the OS's randomness at
/// the first fingerprint of the process and never leaves it, so a client
/// cannot compute fingerprints and a collision is left to the 2⁻⁶⁴ odds
/// of a 64-bit hash. Fingerprints are therefore not stable across
/// processes: no wire field, output or file may carry one.
#[derive(Clone)]
pub struct Fingerprint(DefaultHasher);

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The hasher's state would show the process's key.
        f.write_str("Fingerprint(..)")
    }
}

impl Fingerprint {
    /// Starts a fingerprint for the distribution family named `tag`.
    #[must_use]
    pub fn new(tag: &str) -> Self {
        static KEY: OnceLock<RandomState> = OnceLock::new();
        Self::keyed(KEY.get_or_init(RandomState::new), tag)
    }

    /// Starts a fingerprint under `key`. The tag is length-prefixed, so
    /// no tag and parameter words can read as another tag's.
    fn keyed(key: &RandomState, tag: &str) -> Self {
        let mut h = key.build_hasher();
        h.write_usize(tag.len());
        h.write(tag.as_bytes());
        Fingerprint(h)
    }

    /// Folds a parameter value in by its IEEE bit pattern (`-0.0` is
    /// canonicalized to `0.0` so equal parameters hash equally).
    #[must_use]
    pub fn with_f64(mut self, x: f64) -> Self {
        let canonical = if x == 0.0 { 0.0f64 } else { x };
        self.0.write_u64(canonical.to_bits());
        self
    }

    /// Folds an integer parameter (a count, a sub-fingerprint) in.
    #[must_use]
    pub fn with_u64(mut self, x: u64) -> Self {
        self.0.write_u64(x);
        self
    }

    /// The accumulated 64-bit fingerprint.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0.finish()
    }
}

/// A possibly *defective* distribution of the time between sending an ARP
/// probe and receiving its reply.
///
/// Defective means the total mass may be less than one:
/// [`ReplyTimeDistribution::mass`] returns
/// `l = lim_{t→∞} Pr{reply arrives and X ≤ t}` and `1 − l` is the
/// probability the reply never arrives (Section 3.2 of the paper).
///
/// # Contract
///
/// Implementations must guarantee, for all `0 ≤ s ≤ t`:
///
/// - `0 ≤ cdf(t) ≤ mass() ≤ 1` and `cdf(s) ≤ cdf(t)` (monotone),
/// - `survival(t) = 1 − cdf(t)` mathematically, but computed *directly* to
///   preserve relative accuracy when `cdf(t)` is close to one (see the
///   crate-level numerical note),
/// - `sample` returns `None` with probability `1 − mass()` and otherwise a
///   time distributed according to the normalized CDF `cdf(t)/mass()`.
///
/// The trait is object safe; models hold `Arc<dyn ReplyTimeDistribution>`.
pub trait ReplyTimeDistribution: fmt::Debug + Send + Sync {
    /// Total probability `l` that a reply ever arrives.
    fn mass(&self) -> f64;

    /// The defect `1 − l`: probability that the reply never arrives.
    ///
    /// The default computes `1 − mass()`, which is exact in IEEE arithmetic
    /// for `mass ≥ 0.5` (Sterbenz) but loses the *parameterized* defect
    /// when a caller conceptually supplies `1 − 1e−15`: the subtraction
    /// rounds before this method ever runs. Distributions parameterized by
    /// their loss probability (e.g.
    /// [`DefectiveExponential::from_loss`](crate::DefectiveExponential::from_loss))
    /// therefore store the defect and override this method to return it
    /// exactly.
    fn defect(&self) -> f64 {
        1.0 - self.mass()
    }

    /// Defective CDF: probability that a reply arrives *and* arrives within
    /// `t` seconds. Queries at negative `t` return zero.
    fn cdf(&self, t: f64) -> f64;

    /// Survival `1 − cdf(t)`, computed without cancellation.
    fn survival(&self, t: f64) -> f64;

    /// In-place batch survival on a SIMD [`Backend`]: replaces every time
    /// `ts[j]` with `survival(ts[j])` and reports the backend that
    /// *actually* ran.
    ///
    /// This is the batch entry point behind `noanswer::p_rounds_batch_with`
    /// — the engine's blocked π builder evaluates a chunk of probe rounds
    /// across a whole block of listening periods with a single virtual
    /// call. Each vendored family overrides it with one
    /// `zeroconf_simd::survival_*` kernel, whose scalar arm is the family's
    /// only batch program.
    ///
    /// The default loops [`survival`] and honestly returns
    /// [`Backend::Scalar`] — a distribution that does not override this
    /// method (such as [`Empirical`](crate::Empirical)) cannot silently
    /// masquerade as vectorized. The engine folds the returned values into
    /// its stats block (`dist_backend`), so a scalar straggler in a SIMD run
    /// is visible, and the parity suites assert that every vendored family
    /// reports the backend it was asked for.
    ///
    /// # Contract
    ///
    /// Results must be **bit-identical** to the per-element path on every
    /// backend: for every element, the batch must produce exactly
    /// `self.survival(t).to_bits()`. Hoisting is therefore restricted to
    /// factors the scalar form computes identically per call (e.g.
    /// `1 − mass`, `−rate`); reassociating or strength-reducing the
    /// arithmetic is not allowed, and vector bodies keep the scalar
    /// operation order (see `zeroconf_simd`'s lane kernels for the
    /// arrangement rules). `tests/backend_parity.rs` and the seeded
    /// `tests/properties.rs` assert this contract for every vendored
    /// distribution on every backend the host has.
    ///
    /// [`survival`]: ReplyTimeDistribution::survival
    /// [`Backend`]: zeroconf_simd::Backend
    /// [`Backend::Scalar`]: zeroconf_simd::Backend::Scalar
    fn survival_batch_with(&self, backend: Backend, ts: &mut [f64]) -> Backend {
        let _ = backend;
        for t in ts {
            *t = self.survival(*t);
        }
        Backend::Scalar
    }

    /// Draws a reply time; `None` means the reply is lost forever.
    fn sample(&self, rng: &mut dyn RngCore) -> Option<f64>;

    /// Mean reply time conditional on the reply arriving, when finite and
    /// cheaply available (used for reporting, never for the analysis).
    fn mean_given_reply(&self) -> Option<f64>;

    /// Probability that a reply arrives in `(s, t]`, for `s ≤ t`; computed
    /// from survivals for accuracy.
    fn interval_probability(&self, s: f64, t: f64) -> f64 {
        (self.survival(s) - self.survival(t)).max(0.0)
    }

    /// The `p`-quantile of the reply time *conditional on the reply
    /// arriving*: the smallest `t` with `cdf(t)/mass() ≥ p`. Returns
    /// `None` for `p ∉ [0, 1]`, for a zero-mass distribution, or when the
    /// implementation has no closed form (the default).
    ///
    /// Used for reporting ("95 % of replies arrive within …"), which is
    /// how a protocol designer would justify a listening period from
    /// measurements.
    fn quantile_given_reply(&self, p: f64) -> Option<f64> {
        let _ = p;
        None
    }

    /// A 64-bit value-identity hash: within one process, equal type and
    /// parameters give equal fingerprints. Build it with [`Fingerprint`],
    /// whose per-process key keeps clients from choosing parameters that
    /// collide with another distribution's. Used by caches that key
    /// derived quantities (π-tables) on the distribution alone, so it
    /// must cover every parameter that influences `cdf`/`survival`.
    fn fingerprint(&self) -> u64;

    /// Bytes of memory the distribution keeps, its heap data included.
    /// Whoever retains distributions budgets with it (a wire session's
    /// bases). The default, the value's own size, is exact for every
    /// distribution that owns no heap data.
    fn retained_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

impl<T: ReplyTimeDistribution + ?Sized> ReplyTimeDistribution for &T {
    fn mass(&self) -> f64 {
        (**self).mass()
    }
    fn defect(&self) -> f64 {
        (**self).defect()
    }
    fn cdf(&self, t: f64) -> f64 {
        (**self).cdf(t)
    }
    fn survival(&self, t: f64) -> f64 {
        (**self).survival(t)
    }
    fn survival_batch_with(&self, backend: Backend, ts: &mut [f64]) -> Backend {
        (**self).survival_batch_with(backend, ts)
    }
    fn sample(&self, rng: &mut dyn RngCore) -> Option<f64> {
        (**self).sample(rng)
    }
    fn mean_given_reply(&self) -> Option<f64> {
        (**self).mean_given_reply()
    }
    fn quantile_given_reply(&self, p: f64) -> Option<f64> {
        (**self).quantile_given_reply(p)
    }
    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }
    fn retained_bytes(&self) -> usize {
        (**self).retained_bytes()
    }
}

impl<T: ReplyTimeDistribution + ?Sized> ReplyTimeDistribution for std::sync::Arc<T> {
    fn mass(&self) -> f64 {
        (**self).mass()
    }
    fn defect(&self) -> f64 {
        (**self).defect()
    }
    fn cdf(&self, t: f64) -> f64 {
        (**self).cdf(t)
    }
    fn survival(&self, t: f64) -> f64 {
        (**self).survival(t)
    }
    fn survival_batch_with(&self, backend: Backend, ts: &mut [f64]) -> Backend {
        (**self).survival_batch_with(backend, ts)
    }
    fn sample(&self, rng: &mut dyn RngCore) -> Option<f64> {
        (**self).sample(rng)
    }
    fn mean_given_reply(&self) -> Option<f64> {
        (**self).mean_given_reply()
    }
    fn quantile_given_reply(&self, p: f64) -> Option<f64> {
        (**self).quantile_given_reply(p)
    }
    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }
    fn retained_bytes(&self) -> usize {
        (**self).retained_bytes()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::DefectiveDeterministic;

    use super::*;

    #[test]
    fn trait_is_object_safe() {
        let d = DefectiveDeterministic::new(0.9, 1.0).unwrap();
        let obj: &dyn ReplyTimeDistribution = &d;
        assert_eq!(obj.mass(), 0.9);
    }

    #[test]
    fn blanket_impls_delegate() {
        let d = DefectiveDeterministic::new(0.5, 2.0).unwrap();
        let by_ref: &DefectiveDeterministic = &d;
        assert_eq!(ReplyTimeDistribution::mass(&by_ref), 0.5);
        let arc: Arc<dyn ReplyTimeDistribution> = Arc::new(d);
        assert_eq!(arc.cdf(3.0), 0.5);
        assert_eq!(arc.survival(3.0), 0.5);
        assert_eq!(arc.mean_given_reply(), Some(2.0));
    }

    #[test]
    fn fingerprint_is_value_identity() {
        let a = DefectiveDeterministic::new(0.9, 1.0).unwrap();
        let b = DefectiveDeterministic::new(0.9, 1.0).unwrap();
        let c = DefectiveDeterministic::new(0.9, 2.0).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Forwarders fingerprint like the value they wrap.
        let arc: Arc<dyn ReplyTimeDistribution> = Arc::new(b);
        assert_eq!(arc.fingerprint(), a.fingerprint());
        assert_eq!(ReplyTimeDistribution::fingerprint(&&a), a.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_families_and_swapped_parameters() {
        use crate::{DefectiveExponential, DefectiveUniform};
        // Same leading parameters, different family tags.
        let det = DefectiveDeterministic::new(0.5, 1.0).unwrap();
        let uni = DefectiveUniform::new(0.5, 1.0, 2.0).unwrap();
        assert_ne!(det.fingerprint(), uni.fingerprint());
        // Swapping two parameter slots must change the hash (order matters).
        let e1 = DefectiveExponential::new(0.9, 10.0, 1.0).unwrap();
        let e2 = DefectiveExponential::new(0.9, 1.0, 10.0).unwrap();
        assert_ne!(e1.fingerprint(), e2.fingerprint());
    }

    #[test]
    fn fingerprint_canonicalizes_negative_zero() {
        let h1 = Fingerprint::new("t").with_f64(0.0).finish();
        let h2 = Fingerprint::new("t").with_f64(-0.0).finish();
        assert_eq!(h1, h2);
        assert_ne!(h1, Fingerprint::new("t").with_f64(1.0).finish());
    }

    #[test]
    fn fingerprint_depends_on_the_key() {
        let (a, b) = (RandomState::new(), RandomState::new());
        let words = |key: &RandomState| Fingerprint::keyed(key, "t").with_f64(1.0).finish();
        assert_eq!(words(&a), words(&a));
        assert_ne!(words(&a), words(&b));
    }

    #[test]
    fn interval_probability_from_survivals() {
        let d = DefectiveDeterministic::new(1.0, 1.5).unwrap();
        assert_eq!(d.interval_probability(1.0, 2.0), 1.0);
        assert_eq!(d.interval_probability(2.0, 3.0), 0.0);
        assert_eq!(d.interval_probability(0.0, 1.0), 0.0);
    }
}
