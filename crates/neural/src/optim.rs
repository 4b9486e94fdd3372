//! Optimizers.

use crate::matrix::Matrix;
use crate::param::Param;

/// A malformed optimizer-state blob handed to `restore_state`.
///
/// The message names what was found and what was expected so a corrupt
/// checkpoint is diagnosable from the error alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimStateError(String);

impl std::fmt::Display for OptimStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "optimizer state: {}", self.0)
    }
}

impl std::error::Error for OptimStateError {}

/// Byte-cursor over an optimizer-state blob; every read is bounds-checked so
/// truncated input surfaces as an error, never a panic.
struct StateReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> StateReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], OptimStateError> {
        if self.bytes.len() - self.at < n {
            return Err(OptimStateError(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.bytes.len() - self.at
            )));
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, OptimStateError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, OptimStateError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, OptimStateError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn finish(self) -> Result<(), OptimStateError> {
        if self.at != self.bytes.len() {
            return Err(OptimStateError(format!(
                "{} trailing bytes after state",
                self.bytes.len() - self.at
            )));
        }
        Ok(())
    }
}

fn push_matrix(out: &mut Vec<u8>, m: &Matrix) {
    out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    for &x in m.data() {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

fn read_matrix(r: &mut StateReader<'_>) -> Result<Matrix, OptimStateError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    // The shape comes from the input: it must fit in the bytes left before
    // anything is allocated for it.
    let left = r.bytes.len() - r.at;
    if rows.checked_mul(cols).is_none_or(|len| len > left / 4) {
        return Err(OptimStateError(format!(
            "truncated: a {rows}x{cols} matrix at offset {} overruns the {left} bytes left",
            r.at
        )));
    }
    let mut m = Matrix::zeros(rows, cols);
    for x in m.data_mut() {
        *x = r.f32()?;
    }
    Ok(m)
}

/// The Adam optimizer (Kingma & Ba, 2015), used for all training in the paper
/// with an initial learning rate of 1e-4.
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    step_count: u64,
    first_moments: Vec<Matrix>,
    second_moments: Vec<Matrix>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and standard
    /// moment decay rates (0.9, 0.999).
    pub fn new(learning_rate: f32) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step_count: 0,
            first_moments: Vec::new(),
            second_moments: Vec::new(),
        }
    }

    /// The optimizer's learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Number of updates applied so far.
    pub fn steps(&self) -> u64 {
        self.step_count
    }

    /// Applies one Adam update to every parameter using its accumulated
    /// gradient. Parameters must be passed in the same order on every call:
    /// moment estimates are matched positionally.
    ///
    /// # Panics
    ///
    /// Panics if the number of parameters changes between calls.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.first_moments.is_empty() {
            self.first_moments = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
            self.second_moments = self.first_moments.clone();
        }
        assert_eq!(
            params.len(),
            self.first_moments.len(),
            "parameter count changed between Adam steps"
        );
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let inv_bias1 = 1.0 / bias1;
        let inv_bias2 = 1.0 / bias2;
        // Everything below runs element-wise over pre-allocated moment
        // buffers: the steady-state optimizer step performs no allocation.
        for (i, p) in params.iter_mut().enumerate() {
            let m = &mut self.first_moments[i];
            let v = &mut self.second_moments[i];
            for (((mv, vv), value), &g) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut())
                .zip(p.value.data_mut())
                .zip(p.grad.data())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * g;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * (g * g);
                let m_hat = *mv * inv_bias1;
                let v_hat = *vv * inv_bias2;
                *value -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
        }
    }

    /// Serializes the full optimizer state — hyperparameters, step count and
    /// both moment vectors — so a restored run continues bias correction and
    /// moment decay exactly where the saved run stopped.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.step_count.to_le_bytes());
        for h in [self.learning_rate, self.beta1, self.beta2, self.epsilon] {
            out.extend_from_slice(&h.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.first_moments.len() as u32).to_le_bytes());
        for m in self.first_moments.iter().chain(&self.second_moments) {
            push_matrix(&mut out, m);
        }
        out
    }

    /// Restores state previously produced by [`Adam::state_bytes`]. A
    /// truncated or malformed blob leaves the optimizer untouched and returns
    /// an error describing the first defect.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), OptimStateError> {
        let mut r = StateReader::new(bytes);
        let step_count = r.u64()?;
        let learning_rate = r.f32()?;
        let beta1 = r.f32()?;
        let beta2 = r.f32()?;
        let epsilon = r.f32()?;
        // Pushed as they decode: the count must not size an allocation.
        let count = r.u32()? as usize;
        let mut moments = Vec::new();
        for _ in 0..2 * count {
            moments.push(read_matrix(&mut r)?);
        }
        r.finish()?;
        let second_moments = moments.split_off(count);
        self.step_count = step_count;
        self.learning_rate = learning_rate;
        self.beta1 = beta1;
        self.beta2 = beta2;
        self.epsilon = epsilon;
        self.first_moments = moments;
        self.second_moments = second_moments;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sets `p`'s gradient to that of `(x - 3)^2`, `2(x - 3)`.
    fn quadratic_grad(p: &mut Param) {
        for (g, x) in p.grad.data_mut().iter_mut().zip(p.value.data()) {
            *g = 2.0 * (x - 3.0);
        }
    }

    #[test]
    fn adam_minimises_quadratic_faster_than_sgd_with_tiny_lr() {
        let mut p = Param::new(Matrix::row_vector(&[-5.0]));
        let mut opt = Adam::new(0.05);
        for _ in 0..2_000 {
            quadratic_grad(&mut p);
            opt.step(&mut [&mut p]);
        }
        assert!((p.value.get(0, 0) - 3.0).abs() < 1e-2);
        assert_eq!(opt.steps(), 2_000);
    }

    #[test]
    fn adam_learning_rate_accessors() {
        let opt = Adam::new(1e-4);
        assert_eq!(opt.learning_rate(), 1e-4);
        assert_eq!(opt.steps(), 0);
    }

    #[test]
    fn adam_state_round_trip_is_bit_identical() {
        // Train one optimizer partway, snapshot, keep training; a fresh
        // optimizer restored from the snapshot must produce bit-identical
        // parameters over the same remaining steps.
        let run = |snapshot_at: Option<u64>| -> (Vec<u8>, Vec<f32>) {
            let mut p = Param::new(Matrix::row_vector(&[-5.0, 4.0, 0.5]));
            let mut opt = Adam::new(0.05);
            let mut saved = Vec::new();
            for step in 0..50u64 {
                if snapshot_at == Some(step) {
                    saved = opt.state_bytes();
                    let mut restored = Adam::new(999.0);
                    restored.restore_state(&saved).unwrap();
                    opt = restored;
                }
                quadratic_grad(&mut p);
                opt.step(&mut [&mut p]);
            }
            (saved, p.value.data().to_vec())
        };
        let (_, uninterrupted) = run(None);
        let (saved, resumed) = run(Some(23));
        assert!(!saved.is_empty());
        assert_eq!(
            uninterrupted
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            resumed.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn adam_restore_rejects_truncated_state_and_leaves_optimizer_intact() {
        let mut p = Param::new(Matrix::row_vector(&[1.0, 2.0]));
        let mut opt = Adam::new(0.01);
        quadratic_grad(&mut p);
        opt.step(&mut [&mut p]);
        let good = opt.state_bytes();
        let before = opt.state_bytes();
        let err = opt.restore_state(&good[..good.len() - 3]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        assert_eq!(opt.state_bytes(), before, "failed restore must not mutate");
        let mut extended = good.clone();
        extended.push(0);
        let err = opt.restore_state(&extended).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        // Counts and shapes past the input are errors, not allocations:
        // the moment count sits after the step count and four
        // hyper-parameters, the first moment's shape right after it.
        for (at, value) in [(24, u32::MAX), (28, u32::MAX), (32, u32::MAX)] {
            let mut hostile = good.clone();
            hostile[at..at + 4].copy_from_slice(&value.to_le_bytes());
            assert!(opt.restore_state(&hostile).is_err(), "offset {at}");
        }
        assert_eq!(opt.state_bytes(), before, "failed restore must not mutate");
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn adam_rejects_changing_parameter_sets() {
        let mut p1 = Param::new(Matrix::row_vector(&[0.0]));
        let mut p2 = Param::new(Matrix::row_vector(&[0.0]));
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p1, &mut p2]);
        opt.step(&mut [&mut p1]);
    }
}
