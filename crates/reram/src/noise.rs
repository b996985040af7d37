//! Programming-noise models.
//!
//! Multi-level ReRAM programming is imprecise: \[7, 26\] demonstrate ~1%
//! accuracy tuning. The paper leans on the error tolerance of iterative
//! graph algorithms rather than modelling noise, but the tolerance claim is
//! testable — so we model it. [`NoiseModel::Gaussian`] perturbs each
//! programmed conductance level by a zero-mean Gaussian whose standard
//! deviation is a fraction of the full conductance range, deterministically
//! per seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How programmed cell levels deviate from their targets.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum NoiseModel {
    /// Ideal programming: cells hold exactly their target level.
    #[default]
    Ideal,
    /// Zero-mean Gaussian perturbation with standard deviation
    /// `sigma_rel × (levels − 1)` applied at program time.
    Gaussian {
        /// Relative standard deviation (1% programming accuracy ≈ 0.01).
        sigma_rel: f64,
        /// RNG seed; same seed, same noise sequence.
        seed: u64,
    },
    /// Hard stuck-at faults, the classic ReRAM yield defect: a written cell
    /// lands stuck at the lowest (`stuck_low`) or highest (`stuck_high`)
    /// conductance with the given probabilities, independent of its target.
    /// (Because the simulator reuses scratch arrays per tile, faults model
    /// a random tile-to-physical-crossbar assignment per programming pass.)
    StuckAt {
        /// Probability a written cell is stuck at level 0.
        stuck_low: f64,
        /// Probability a written cell is stuck at the maximum level.
        stuck_high: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl NoiseModel {
    /// A 1%-accuracy programming model, matching the tuning precision
    /// demonstrated in the papers GraphR cites (\[7, 26\]).
    #[must_use]
    pub fn one_percent(seed: u64) -> Self {
        NoiseModel::Gaussian {
            sigma_rel: 0.01,
            seed,
        }
    }

    /// Creates the stateful sampler for this model.
    ///
    /// # Panics
    ///
    /// Panics if stuck-at probabilities are negative or sum above 1.
    #[must_use]
    pub fn sampler(&self) -> NoiseSource {
        match *self {
            NoiseModel::Ideal => NoiseSource {
                inner: Inner::Ideal,
            },
            NoiseModel::Gaussian { sigma_rel, seed } => NoiseSource {
                inner: Inner::Gaussian(GaussianSource {
                    sigma_rel,
                    rng: SmallRng::seed_from_u64(seed),
                }),
            },
            NoiseModel::StuckAt {
                stuck_low,
                stuck_high,
                seed,
            } => {
                assert!(
                    stuck_low >= 0.0 && stuck_high >= 0.0 && stuck_low + stuck_high <= 1.0,
                    "stuck-at probabilities must form a sub-distribution"
                );
                NoiseSource {
                    inner: Inner::StuckAt(StuckAtSource {
                        stuck_low,
                        stuck_high,
                        rng: SmallRng::seed_from_u64(seed),
                    }),
                }
            }
        }
    }
}

/// Stateful noise sampler produced by [`NoiseModel::sampler`].
#[derive(Debug, Clone)]
pub struct NoiseSource {
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    Ideal,
    Gaussian(GaussianSource),
    StuckAt(StuckAtSource),
}

#[derive(Debug, Clone)]
struct GaussianSource {
    sigma_rel: f64,
    rng: SmallRng,
}

#[derive(Debug, Clone)]
struct StuckAtSource {
    stuck_low: f64,
    stuck_high: f64,
    rng: SmallRng,
}

impl NoiseSource {
    /// Perturbs a target `level` given the cell's full-scale `max_level`,
    /// clamping to the physical `[0, max_level]` range.
    ///
    /// Cells with a zero target are left untouched: programming noise is a
    /// property of the *write* operation, and unwritten cells sit at HRS,
    /// whose leakage the model folds into the ideal zero.
    pub fn perturb(&mut self, level: f64, max_level: f64) -> f64 {
        match &mut self.inner {
            Inner::Ideal => level,
            Inner::Gaussian(g) => {
                if level == 0.0 {
                    return 0.0;
                }
                let sigma = g.sigma_rel * max_level;
                let noisy = level + gaussian(&mut g.rng) * sigma;
                noisy.clamp(0.0, max_level)
            }
            Inner::StuckAt(f) => {
                if level == 0.0 {
                    return 0.0;
                }
                let u: f64 = f.rng.gen();
                if u < f.stuck_low {
                    0.0
                } else if u < f.stuck_low + f.stuck_high {
                    max_level
                } else {
                    level
                }
            }
        }
    }

    /// Whether this source actually perturbs values.
    #[must_use]
    pub fn is_ideal(&self) -> bool {
        matches!(self.inner, Inner::Ideal)
    }
}

/// Standard normal via Box–Muller (avoids a distribution dependency).
fn gaussian(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_identity() {
        let mut s = NoiseModel::Ideal.sampler();
        assert!(s.is_ideal());
        assert_eq!(s.perturb(7.0, 15.0), 7.0);
    }

    #[test]
    fn gaussian_is_deterministic_per_seed() {
        let mut a = NoiseModel::one_percent(9).sampler();
        let mut b = NoiseModel::one_percent(9).sampler();
        for _ in 0..32 {
            assert_eq!(a.perturb(8.0, 15.0), b.perturb(8.0, 15.0));
        }
    }

    #[test]
    fn gaussian_stays_in_physical_range() {
        let mut s = NoiseModel::Gaussian {
            sigma_rel: 0.5,
            seed: 3,
        }
        .sampler();
        for _ in 0..1000 {
            let v = s.perturb(1.0, 15.0);
            assert!((0.0..=15.0).contains(&v));
        }
    }

    #[test]
    fn stuck_at_faults_hit_declared_rates() {
        let mut s = NoiseModel::StuckAt {
            stuck_low: 0.1,
            stuck_high: 0.05,
            seed: 4,
        }
        .sampler();
        let n = 40_000;
        let mut low = 0;
        let mut high = 0;
        for _ in 0..n {
            let v = s.perturb(7.0, 15.0);
            if v == 0.0 {
                low += 1;
            } else if v == 15.0 {
                high += 1;
            } else {
                assert_eq!(v, 7.0, "non-faulty cells keep their target");
            }
        }
        let (fl, fh) = (low as f64 / n as f64, high as f64 / n as f64);
        assert!((fl - 0.1).abs() < 0.01, "stuck-low rate {fl}");
        assert!((fh - 0.05).abs() < 0.01, "stuck-high rate {fh}");
    }

    #[test]
    fn stuck_at_leaves_unwritten_cells_alone() {
        let mut s = NoiseModel::StuckAt {
            stuck_low: 0.5,
            stuck_high: 0.5,
            seed: 1,
        }
        .sampler();
        for _ in 0..100 {
            assert_eq!(s.perturb(0.0, 15.0), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "sub-distribution")]
    fn stuck_at_rejects_bad_probabilities() {
        let _ = NoiseModel::StuckAt {
            stuck_low: 0.7,
            stuck_high: 0.7,
            seed: 1,
        }
        .sampler();
    }

    #[test]
    fn gaussian_sample_statistics_are_plausible() {
        let mut s = NoiseModel::Gaussian {
            sigma_rel: 0.01,
            seed: 1,
        }
        .sampler();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| s.perturb(8.0, 15.0) - 8.0).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let sigma = 0.01 * 15.0;
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!(
            (var.sqrt() - sigma).abs() < 0.02,
            "std {} vs expected {sigma}",
            var.sqrt()
        );
    }
}
