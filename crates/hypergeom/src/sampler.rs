//! Adaptive exact sampling of `h(t, w, b)`.
//!
//! Two exact backends are available:
//!
//! * **Inversion** (`crate::inverse`) — one uniform draw, cost proportional
//!   to the width of the distribution.  Ideal when the standard deviation is
//!   small (which in the matrix-sampling workload is the common case for the
//!   later, already-thinned splits).
//! * **HRUA rejection** (`crate::hrua`) — a small constant number of
//!   uniforms, constant expected cost, for wide distributions.
//!
//! The dispatcher chooses by the *expected chop-down walk length* of the
//! target, `E[X] − support_min`: below [`INVERSION_WALK_CUTOFF`] the walk is
//! short, so inversion is both cheaper *and* uses fewer random numbers; above
//! it HRUA wins.  The cutoff is an ablation knob measured by experiment E2.
//!
//! Earlier revisions dispatched on the standard deviation instead.  That is
//! the wrong cost model: the chop-down starts at the lower end of the support
//! and performs exactly `k − support_min` multiply-adds, so its expected cost
//! is the distance from `support_min` to the mean, not the width of the
//! distribution.  A narrow target far from its support minimum (small sd,
//! large mean — exactly the splits produced by the bucketed scatter-shuffle
//! of `cgp-core::cache_aware`) walked hundreds of states per draw under the
//! sd rule while HRUA would have sampled it at constant cost.

use crate::hrua::sample_hrua;
use crate::inverse::sample_inverse;
use crate::pmf::Hypergeometric;
use cgp_rng::RandomSource;

/// Expected-walk-length threshold below which inversion is used.
///
/// The chop-down walk performs `k − support_min` steps to return `k`, so its
/// expected cost is `mean − support_min` multiply-adds; up to a few dozen
/// steps that is cheaper than an HRUA iteration (two uniforms, four
/// `ln_factorial` evaluations and possibly a logarithm).
pub const INVERSION_WALK_CUTOFF: f64 = 24.0;

/// Explicit sampler selection, mostly for benchmarks and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Always use the one-uniform chop-down inversion.
    Inverse,
    /// Always use HRUA ratio-of-uniforms rejection.
    Hrua,
    /// Choose automatically from the distribution's standard deviation.
    Adaptive,
}

/// Draws one sample of `h(t, w, b)` with the adaptive backend.
///
/// ```
/// use cgp_hypergeom::sample;
/// use cgp_rng::Pcg64;
/// let mut rng = Pcg64::seed_from_u64(0);
/// let k = sample(&mut rng, 10, 100, 900);
/// assert!(k <= 10);
/// ```
#[inline]
pub fn sample<R: RandomSource + ?Sized>(rng: &mut R, t: u64, w: u64, b: u64) -> u64 {
    sample_with(rng, t, w, b, SamplerKind::Adaptive)
}

/// Draws one sample of `h(t, w, b)` with an explicitly selected backend.
pub fn sample_with<R: RandomSource + ?Sized>(
    rng: &mut R,
    t: u64,
    w: u64,
    b: u64,
    kind: SamplerKind,
) -> u64 {
    let h = Hypergeometric::new(t, w, b);
    // Degenerate distributions consume no randomness at all.
    if h.is_degenerate() {
        return h.support_min();
    }
    match kind {
        SamplerKind::Inverse => sample_inverse(rng, t, w, b),
        SamplerKind::Hrua => sample_hrua(rng, t, w, b),
        SamplerKind::Adaptive => {
            // Expected number of chop-down steps: distance from the support
            // minimum to the mean.
            if h.mean() - h.support_min() as f64 <= INVERSION_WALK_CUTOFF {
                sample_inverse(rng, t, w, b)
            } else {
                sample_hrua(rng, t, w, b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgp_rng::{CountingRng, Pcg64, RandomSource};

    #[test]
    fn degenerate_cases_cost_zero_randomness() {
        let mut rng = CountingRng::new(Pcg64::seed_from_u64(1));
        assert_eq!(sample(&mut rng, 0, 10, 10), 0);
        assert_eq!(sample(&mut rng, 20, 10, 10), 10);
        assert_eq!(sample(&mut rng, 5, 0, 10), 0);
        assert_eq!(sample(&mut rng, 5, 10, 0), 5);
        assert_eq!(rng.count(), 0);
    }

    #[test]
    fn adaptive_matches_support_for_mixed_sizes() {
        let mut rng = Pcg64::seed_from_u64(2);
        for (t, w, b) in [
            (1u64, 1u64, 1u64),
            (10, 5, 5),
            (100, 1_000, 1_000),
            (5_000, 100_000, 300_000),
            (1, 1_000_000, 1_000_000),
        ] {
            let h = Hypergeometric::new(t, w, b);
            for _ in 0..200 {
                let k = sample(&mut rng, t, w, b);
                assert!(k >= h.support_min() && k <= h.support_max());
            }
        }
    }

    #[test]
    fn explicit_backends_agree_on_moments() {
        let (t, w, b) = (80u64, 120u64, 200u64);
        let h = Hypergeometric::new(t, w, b);
        let n = 30_000usize;
        for kind in [
            SamplerKind::Inverse,
            SamplerKind::Hrua,
            SamplerKind::Adaptive,
        ] {
            let mut rng = Pcg64::seed_from_u64(42);
            let mean = (0..n)
                .map(|_| sample_with(&mut rng, t, w, b, kind) as f64)
                .sum::<f64>()
                / n as f64;
            let tol = 5.0 * (h.variance() / n as f64).sqrt();
            assert!(
                (mean - h.mean()).abs() < tol,
                "{kind:?}: mean {mean} vs {}",
                h.mean()
            );
        }
    }

    #[test]
    fn average_draw_count_is_small() {
        // The quantitative claim of Section 3 (E2): averaged over realistic
        // parameters the sampler needs only a couple of uniforms per variate.
        let mut rng = CountingRng::new(Pcg64::seed_from_u64(3));
        let mut samples = 0u64;
        for &(t, w, b) in &[
            (1_000u64, 4_000u64, 12_000u64),
            (50, 200, 600),
            (10, 100, 100),
            (200_000, 500_000, 500_000),
            (3, 17, 23),
        ] {
            for _ in 0..4_000 {
                let _ = sample(&mut rng, t, w, b);
                samples += 1;
            }
        }
        let per_sample = rng.count() as f64 / samples as f64;
        assert!(
            per_sample < 4.0,
            "adaptive sampler used {per_sample} draws/sample"
        );
    }

    #[test]
    fn adaptive_picks_inversion_for_narrow_targets() {
        // A narrow distribution must cost exactly one uniform through the
        // adaptive path (proving the dispatcher routed it to inversion).
        let mut rng = CountingRng::new(Pcg64::seed_from_u64(4));
        let _ = sample(&mut rng, 4, 1_000_000, 1_000_000);
        assert_eq!(rng.count(), 1);
    }

    #[test]
    fn deterministic_given_seed_and_kind() {
        for kind in [
            SamplerKind::Inverse,
            SamplerKind::Hrua,
            SamplerKind::Adaptive,
        ] {
            let mut a = Pcg64::seed_from_u64(9);
            let mut b = Pcg64::seed_from_u64(9);
            for _ in 0..50 {
                assert_eq!(
                    sample_with(&mut a, 500, 2_000, 3_000, kind),
                    sample_with(&mut b, 500, 2_000, 3_000, kind)
                );
            }
            // Both clones must also have consumed the same amount of state.
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
