//! Seeded random-number utilities and sampling distributions.
//!
//! All stochastic components of the reproduction draw from [`StdRng`]
//! instances created with [`seeded_rng`], so every experiment is reproducible
//! from its seed. The distributions here (exponential, normal, gamma, beta)
//! are implemented from scratch because only the base `rand` crate is
//! sanctioned for this workspace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a `u64` seed.
///
/// # Examples
///
/// ```
/// use diffserve_simkit::rng::seeded_rng;
/// use rand::Rng;
///
/// let mut a = seeded_rng(42);
/// let mut b = seeded_rng(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream label.
///
/// Used to give independent deterministic streams to different components
/// (arrival process, model noise, discriminator init, ...) from one
/// experiment seed. Based on SplitMix64 mixing.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A distribution over `f64` that can be sampled with any [`Rng`].
pub trait Sampler {
    /// Draws one sample.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draws `n` samples into a vector.
    fn draw_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.draw(rng)).collect()
    }
}

/// Exponential distribution with the given rate (events per unit time).
///
/// Used for Poisson-process inter-arrival times.
///
/// # Examples
///
/// ```
/// use diffserve_simkit::rng::{seeded_rng, Exponential, Sampler};
///
/// let exp = Exponential::new(10.0).unwrap();
/// let mut rng = seeded_rng(7);
/// let x = exp.draw(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution.
    ///
    /// # Errors
    ///
    /// Returns an error if `rate` is not finite and positive.
    pub fn new(rate: f64) -> Result<Self, DistributionError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(DistributionError::new(format!(
                "exponential rate must be finite and positive, got {rate}"
            )));
        }
        Ok(Exponential { rate })
    }

    /// The rate parameter.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Sampler for Exponential {
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF; guard against u == 0 so ln stays finite.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / self.rate
    }
}

/// Normal (Gaussian) distribution, sampled with the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns an error if `mean` is not finite or `std` is negative/NaN.
    pub fn new(mean: f64, std: f64) -> Result<Self, DistributionError> {
        if !(mean.is_finite() && std.is_finite() && std >= 0.0) {
            return Err(DistributionError::new(format!(
                "normal requires finite mean and non-negative std, got ({mean}, {std})"
            )));
        }
        Ok(Normal { mean, std })
    }

    /// The standard normal N(0, 1).
    pub fn standard() -> Self {
        Normal {
            mean: 0.0,
            std: 1.0,
        }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the distribution.
    pub fn std(&self) -> f64 {
        self.std
    }
}

impl Sampler for Normal {
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Marsaglia polar method; we discard the second variate to keep the
        // sampler stateless (and deterministic per call).
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.std * u * factor;
            }
        }
    }
}

/// Gamma distribution (shape/scale parameterization), sampled with the
/// Marsaglia–Tsang method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution with `shape` k and `scale` θ.
    ///
    /// # Errors
    ///
    /// Returns an error unless both parameters are finite and positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistributionError> {
        if !(shape.is_finite() && shape > 0.0 && scale.is_finite() && scale > 0.0) {
            return Err(DistributionError::new(format!(
                "gamma requires positive shape and scale, got ({shape}, {scale})"
            )));
        }
        Ok(Gamma { shape, scale })
    }

    fn draw_shape_ge_one<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        let normal = Normal::standard();
        loop {
            let x = normal.draw(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            if u.ln() < 0.5 * x * x + d - d * v3 + d * v3.ln() {
                return d * v3;
            }
        }
    }
}

impl Sampler for Gamma {
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.shape >= 1.0 {
            self.scale * Self::draw_shape_ge_one(self.shape, rng)
        } else {
            // Boost for shape < 1: Gamma(a) = Gamma(a + 1) * U^(1/a).
            let g = Self::draw_shape_ge_one(self.shape + 1.0, rng);
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            self.scale * g * u.powf(1.0 / self.shape)
        }
    }
}

/// Beta distribution on `[0, 1]`, sampled as a ratio of gammas.
///
/// The reproduction uses a beta to model prompt *difficulty*: most prompts
/// are easy, with a long tail of hard ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    a: Gamma,
    b: Gamma,
}

impl Beta {
    /// Creates a beta distribution with parameters `alpha`, `beta`.
    ///
    /// # Errors
    ///
    /// Returns an error unless both parameters are finite and positive.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, DistributionError> {
        Ok(Beta {
            a: Gamma::new(alpha, 1.0)?,
            b: Gamma::new(beta, 1.0)?,
        })
    }
}

impl Sampler for Beta {
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = self.a.draw(rng);
        let y = self.b.draw(rng);
        if x + y == 0.0 {
            0.5
        } else {
            x / (x + y)
        }
    }
}

/// Error returned when constructing a distribution with invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributionError {
    message: String,
}

impl DistributionError {
    fn new(message: String) -> Self {
        DistributionError { message }
    }
}

impl std::fmt::Display for DistributionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.message)
    }
}

impl std::error::Error for DistributionError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_and_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(123);
        let mut b = seeded_rng(123);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn derive_seed_varies_by_stream() {
        let s0 = derive_seed(1, 0);
        let s1 = derive_seed(1, 1);
        let s2 = derive_seed(2, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // Deterministic.
        assert_eq!(derive_seed(1, 0), s0);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let exp = Exponential::new(4.0).unwrap();
        let mut rng = seeded_rng(9);
        let samples = exp.draw_n(&mut rng, 50_000);
        let (mean, _) = mean_and_var(&samples);
        assert!((mean - 0.25).abs() < 0.01, "mean={mean}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn normal_moments() {
        let n = Normal::new(3.0, 2.0).unwrap();
        let mut rng = seeded_rng(10);
        let samples = n.draw_n(&mut rng, 50_000);
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn gamma_moments() {
        // Gamma(k, theta): mean k*theta, var k*theta^2.
        let g = Gamma::new(3.0, 2.0).unwrap();
        let mut rng = seeded_rng(11);
        let samples = g.draw_n(&mut rng, 50_000);
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 6.0).abs() < 0.15, "mean={mean}");
        assert!((var - 12.0).abs() < 0.8, "var={var}");
    }

    #[test]
    fn gamma_small_shape() {
        let g = Gamma::new(0.5, 1.0).unwrap();
        let mut rng = seeded_rng(12);
        let samples = g.draw_n(&mut rng, 50_000);
        let (mean, _) = mean_and_var(&samples);
        assert!((mean - 0.5).abs() < 0.03, "mean={mean}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn beta_moments_and_support() {
        let b = Beta::new(2.0, 5.0).unwrap();
        let mut rng = seeded_rng(13);
        let samples = b.draw_n(&mut rng, 50_000);
        let (mean, _) = mean_and_var(&samples);
        assert!((mean - 2.0 / 7.0).abs() < 0.01, "mean={mean}");
        assert!(samples.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Normal::new(f64::INFINITY, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Gamma::new(-1.0, 1.0).is_err());
        assert!(Beta::new(1.0, 0.0).is_err());
    }

    #[test]
    fn error_display_nonempty() {
        let err = Exponential::new(-1.0).unwrap_err();
        assert!(format!("{err}").contains("exponential"));
    }
}
