//! Deterministic random-number streams.
//!
//! Every stochastic component of a simulation (per-node computation times,
//! communication pattern draws, fault schedule, …) gets its own named
//! stream, seeded by hashing the stream name into the root seed with
//! SplitMix64. Adding a new consumer therefore never perturbs the draws an
//! existing consumer sees — runs stay comparable across experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 step — the standard seed-sequencing mixer: advance `state`
/// and return the next draw.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a byte string into a 64-bit value (FNV-1a), for stream naming.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Factory for independent, reproducible RNG streams.
#[derive(Debug, Clone)]
pub struct RngStreams {
    root_seed: u64,
}

impl RngStreams {
    /// Create a factory from a root seed.
    pub fn new(root_seed: u64) -> Self {
        RngStreams { root_seed }
    }

    /// Derive a stream from a name and an index (e.g. `("compute", node)`).
    pub fn stream(&self, name: &str, index: u64) -> StdRng {
        let mut state = self
            .root_seed
            .wrapping_add(fnv1a(name.as_bytes()))
            .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        StdRng::from_seed(seed)
    }
}

/// Draw from an exponential distribution with the given mean, by inverse
/// transform. Returns 0 for a non-positive mean.
pub fn exponential(rng: &mut impl Rng, mean_secs: f64) -> f64 {
    if mean_secs <= 0.0 {
        return 0.0;
    }
    // Sample u in (0, 1]; -ln(u) is Exp(1).
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() * mean_secs
}

/// Draw from a Pareto (power-law) distribution with minimum `scale` and
/// tail exponent `alpha`, by inverse transform. Heavy-tailed for
/// `alpha <= 2`; the mean is `scale * alpha / (alpha - 1)` for
/// `alpha > 1`. Returns 0 for non-positive parameters.
pub fn pareto(rng: &mut impl Rng, scale: f64, alpha: f64) -> f64 {
    if scale <= 0.0 || alpha <= 0.0 {
        return 0.0;
    }
    // Sample u in (0, 1]; scale / u^(1/alpha) is Pareto(scale, alpha).
    let u: f64 = 1.0 - rng.gen::<f64>();
    scale / u.powf(1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let f = RngStreams::new(42);
        let a: Vec<u64> = {
            let mut r = f.stream("compute", 3);
            (0..10).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = f.stream("compute", 3);
            (0..10).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn streams_are_independent() {
        let f = RngStreams::new(42);
        let mut a = f.stream("compute", 0);
        let mut b = f.stream("compute", 1);
        let mut c = f.stream("comm", 0);
        let va: u64 = a.gen();
        let vb: u64 = b.gen();
        let vc: u64 = c.gen();
        assert_ne!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn different_root_seeds_differ() {
        let mut a = RngStreams::new(1).stream("x", 0);
        let mut b = RngStreams::new(2).stream("x", 0);
        let va: u64 = a.gen();
        let vb: u64 = b.gen();
        assert_ne!(va, vb);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = RngStreams::new(7).stream("exp", 0);
        let n = 200_000;
        let mean = 3.5;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, mean)).sum();
        let estimate = sum / n as f64;
        assert!(
            (estimate - mean).abs() < 0.05,
            "sample mean {estimate} too far from {mean}"
        );
    }

    #[test]
    fn exponential_degenerate_mean() {
        let mut rng = RngStreams::new(7).stream("exp", 0);
        assert_eq!(exponential(&mut rng, 0.0), 0.0);
        assert_eq!(exponential(&mut rng, -1.0), 0.0);
    }

    #[test]
    fn exponential_is_nonnegative_and_finite() {
        let mut rng = RngStreams::new(9).stream("exp", 1);
        for _ in 0..10_000 {
            let x = exponential(&mut rng, 1.0);
            assert!(x.is_finite() && x >= 0.0);
        }
    }

    #[test]
    fn pareto_respects_scale_floor() {
        let mut rng = RngStreams::new(13).stream("par", 0);
        for _ in 0..10_000 {
            let x = pareto(&mut rng, 2.0, 1.5);
            assert!(x >= 2.0 && x.is_finite());
        }
        assert_eq!(pareto(&mut rng, 0.0, 1.5), 0.0);
        assert_eq!(pareto(&mut rng, 2.0, 0.0), 0.0);
    }

    #[test]
    fn pareto_mean_converges_for_light_tail() {
        // alpha = 3 has a finite, well-behaved mean: scale * 3 / 2.
        let mut rng = RngStreams::new(17).stream("par", 1);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| pareto(&mut rng, 1.0, 3.0)).sum();
        let estimate = sum / n as f64;
        assert!(
            (estimate - 1.5).abs() < 0.05,
            "sample mean {estimate} too far from 1.5"
        );
    }
}
