//! Weight initialisation schemes.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Xavier/Glorot uniform initialisation: values drawn uniformly from
/// `[-limit, limit]` with `limit = sqrt(6 / (fan_in + fan_out))`.
///
/// The `seed` makes initialisation deterministic, which keeps training runs
/// and tests reproducible.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let data = (0..fan_in * fan_out)
        .map(|_| rng.gen_range(-limit..=limit))
        .collect();
    Matrix::from_vec(fan_in, fan_out, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_respects_limit_and_seed() {
        let m = xavier_uniform(10, 20, 7);
        let limit = (6.0f32 / 30.0).sqrt();
        assert_eq!(m.shape(), (10, 20));
        assert!(m.data().iter().all(|v| v.abs() <= limit + 1e-6));
        assert_eq!(m, xavier_uniform(10, 20, 7));
        assert_ne!(m, xavier_uniform(10, 20, 8));
        // Not degenerate.
        assert!(m.norm() > 0.0);
    }
}
