//! The Adam optimizer.

/// Adam's standard moment decay rates and denominator guard.
const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-8;

/// Adam (Kingma & Ba) with bias-corrected moment estimates, updating flat
/// parameter slices.
///
/// Parameters are identified by a caller-assigned `slot` so that each one
/// keeps its own moment buffers. Slots are meant to be dense (`0..k`):
/// they index a vector.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    slots: Vec<AdamSlot>,
}

/// One parameter's moment estimates; `t == 0` until its first update.
#[derive(Debug, Clone, Default)]
struct AdamSlot {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates Adam with the standard defaults `beta1 = 0.9`,
    /// `beta2 = 0.999`, `eps = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Adam {
            lr,
            slots: Vec::new(),
        }
    }

    /// Applies one update to `param` given `grad`.
    ///
    /// # Panics
    ///
    /// Panics if `param` and `grad` lengths differ, or if a slot changes
    /// size between calls.
    // Inlined so that `Mlp::fit`'s AVX2 body runs it four lanes wide.
    #[inline(always)]
    pub fn update(&mut self, slot: usize, param: &mut [f64], grad: &[f64]) {
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, AdamSlot::default);
        }
        let s = &mut self.slots[slot];
        if s.t == 0 {
            s.m = vec![0.0; param.len()];
            s.v = vec![0.0; param.len()];
        }
        assert_eq!(s.m.len(), param.len(), "slot {slot} changed size");
        s.t += 1;
        let bc1 = 1.0 - BETA1.powi(s.t as i32);
        let bc2 = 1.0 - BETA2.powi(s.t as i32);
        for (((p, &g), m), v) in param.iter_mut().zip(grad).zip(&mut s.m).zip(&mut s.v) {
            *m = BETA1 * *m + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(x) = (x - 3)^2 should converge near 3.
    fn descend(opt: &mut Adam, steps: usize) -> f64 {
        let mut x = [0.0f64];
        for _ in 0..steps {
            let grad = [2.0 * (x[0] - 3.0)];
            opt.update(0, &mut x, &grad);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = descend(&mut Adam::new(0.1), 500);
        assert!((x - 3.0).abs() < 1e-3, "x={x}");
    }

    #[test]
    fn adam_converges_at_a_small_learning_rate() {
        let x = descend(&mut Adam::new(0.02), 2000);
        assert!((x - 3.0).abs() < 1e-3, "x={x}");
    }

    /// Bias correction: the first step is `lr` whatever the gradient's size.
    #[test]
    fn first_step_moves_each_entry_by_the_learning_rate() {
        let mut x = [0.0f64, 0.0];
        Adam::new(0.1).update(0, &mut x, &[5.0, -0.01]);
        assert!((x[0] + 0.1).abs() < 1e-8 && (x[1] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn slots_have_independent_state() {
        let mut opt = Adam::new(0.1);
        let mut a = [0.0f64];
        let mut b = [10.0f64];
        for _ in 0..300 {
            let ga = [2.0 * (a[0] - 1.0)];
            opt.update(0, &mut a, &ga);
            let gb = [2.0 * (b[0] - 5.0)];
            opt.update(1, &mut b, &gb);
        }
        assert!((a[0] - 1.0).abs() < 1e-2);
        assert!((b[0] - 5.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_bad_lr() {
        let _ = Adam::new(0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_grad() {
        let mut opt = Adam::new(0.1);
        let mut x = [0.0f64, 1.0];
        opt.update(0, &mut x, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "changed size")]
    fn rejects_a_slot_that_changes_size() {
        let mut opt = Adam::new(0.1);
        opt.update(0, &mut [0.0], &[1.0]);
        opt.update(0, &mut [0.0, 0.0], &[1.0, 1.0]);
    }
}
