//! Adam optimizer states for pose and Gaussian parameters.
//!
//! Both SLAM processes are first-order optimizations (paper Sec. II-B);
//! Adam is the de-facto choice of the reference implementations.

/// Scalar Adam state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdamScalar {
    m: f64,
    v: f64,
}

impl AdamScalar {
    /// Rebuilds scalar state from raw moments (snapshot deserialization).
    pub fn from_moments(m: f64, v: f64) -> Self {
        AdamScalar { m, v }
    }

    /// The raw `(m, v)` moment pair (snapshot serialization).
    pub fn moments(&self) -> (f64, f64) {
        (self.m, self.v)
    }
}

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamParams {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical epsilon.
    pub eps: f64,
}

impl AdamParams {
    /// Creates parameters with the standard betas and the given rate.
    pub fn with_lr(lr: f64) -> Self {
        AdamParams {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

impl Default for AdamParams {
    fn default() -> Self {
        AdamParams::with_lr(1e-3)
    }
}

impl AdamScalar {
    /// Applies one Adam step; returns the parameter *delta* (to subtract is
    /// already folded in: add the returned value to the parameter).
    ///
    /// `t` is the 1-based step count for bias correction.
    pub fn step(&mut self, grad: f64, t: u64, p: &AdamParams) -> f64 {
        self.update(grad, &BiasCorrection::at(t, p), p)
    }

    /// The Adam update itself, given the step's bias corrections.
    #[inline]
    fn update(&mut self, grad: f64, bc: &BiasCorrection, p: &AdamParams) -> f64 {
        self.m = p.beta1 * self.m + (1.0 - p.beta1) * grad;
        self.v = p.beta2 * self.v + (1.0 - p.beta2) * grad * grad;
        let m_hat = self.m / bc.first;
        let v_hat = self.v / bc.second;
        -p.lr * m_hat / (v_hat.sqrt() + p.eps)
    }
}

/// The bias corrections `1 − β₁ᵗ` and `1 − β₂ᵗ` of step `t`, shared by
/// every parameter of that step.
#[derive(Debug, Clone, Copy)]
struct BiasCorrection {
    first: f64,
    second: f64,
}

impl BiasCorrection {
    fn at(t: u64, p: &AdamParams) -> Self {
        BiasCorrection {
            first: 1.0 - p.beta1.powi(t as i32),
            second: 1.0 - p.beta2.powi(t as i32),
        }
    }
}

/// One step of an [`AdamVector`], from [`AdamVector::begin_step`]: the
/// step count is already advanced and the bias corrections computed, so
/// each [`AdamStep::delta`] call costs one parameter's update.
#[derive(Debug)]
pub struct AdamStep<'a> {
    state: &'a mut [AdamScalar],
    bc: BiasCorrection,
    params: AdamParams,
}

impl AdamStep<'_> {
    /// Updates parameter `idx` with gradient `grad` and returns its delta
    /// (add it to the parameter).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below the tracked parameter count.
    #[inline]
    pub fn delta(&mut self, idx: usize, grad: f64) -> f64 {
        assert!(idx < self.state.len(), "parameter index out of range");
        self.state[idx].update(grad, &self.bc, &self.params)
    }
}

/// Adam state over a fixed-size parameter vector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdamVector {
    state: Vec<AdamScalar>,
    t: u64,
}

impl AdamVector {
    /// Creates state for `n` parameters.
    pub fn new(n: usize) -> Self {
        AdamVector {
            state: vec![AdamScalar::default(); n],
            t: 0,
        }
    }

    /// Number of tracked parameters.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Returns `true` when tracking zero parameters.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Grows the state to `n` parameters (new entries start cold).
    pub fn grow(&mut self, n: usize) {
        if n > self.state.len() {
            self.state.resize(n, AdamScalar::default());
        }
    }

    /// Starts one optimizer step: advances the step count and computes
    /// its bias corrections once. Parameters not passed to
    /// [`AdamStep::delta`] keep their moments, as with a sparse gradient.
    pub fn begin_step(&mut self, p: &AdamParams) -> AdamStep<'_> {
        self.t += 1;
        AdamStep {
            state: &mut self.state,
            bc: BiasCorrection::at(self.t, p),
            params: *p,
        }
    }

    /// Resets moments to zero, keeping the size.
    pub fn reset(&mut self) {
        for s in &mut self.state {
            *s = AdamScalar::default();
        }
        self.t = 0;
    }

    /// Resets to exactly the state of `AdamVector::new(n)`: `n` cold
    /// scalars, step count zero. Lets a long-lived vector be recycled
    /// across optimizer invocations without reallocating growth headroom.
    pub fn reset_to(&mut self, n: usize) {
        self.state.clear();
        self.state.resize(n, AdamScalar::default());
        self.t = 0;
    }

    /// The 1-based step count (number of [`AdamVector::begin_step`] calls).
    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// Per-parameter scalar states, in parameter order (snapshot
    /// serialization).
    pub fn scalars(&self) -> &[AdamScalar] {
        &self.state
    }

    /// Rebuilds a vector from a step count and per-parameter states, the
    /// inverse of [`AdamVector::step_count`] + [`AdamVector::scalars`]
    /// (snapshot deserialization).
    pub fn from_parts(t: u64, state: Vec<AdamScalar>) -> Self {
        AdamVector { state, t }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_descends_quadratic() {
        // Minimize f(x) = (x-3)² from x = 0.
        let mut x = 0.0;
        let mut st = AdamScalar::default();
        let p = AdamParams::with_lr(0.1);
        for t in 1..=500 {
            let g = 2.0 * (x - 3.0);
            x += st.step(g, t, &p);
        }
        assert!((x - 3.0).abs() < 0.05, "converged to {x}");
    }

    #[test]
    fn first_step_is_lr_sized() {
        let mut st = AdamScalar::default();
        let p = AdamParams::with_lr(0.01);
        let d = st.step(5.0, 1, &p);
        // Bias-corrected first step ≈ −lr · sign(grad).
        assert!((d + 0.01).abs() < 1e-6);
    }

    #[test]
    fn vector_state_grows_cold() {
        let mut v = AdamVector::new(2);
        v.grow(4);
        assert_eq!(v.len(), 4);
        let d = v.begin_step(&AdamParams::default()).delta(3, 1.0);
        assert!(d < 0.0);
        assert_eq!(v.scalars()[0], AdamScalar::default());
    }

    #[test]
    fn reset_clears_momentum() {
        let mut v = AdamVector::new(1);
        let p = AdamParams::default();
        v.begin_step(&p).delta(0, 1.0);
        let before = v.clone();
        v.reset();
        assert_ne!(before, v);
        assert_eq!(v, AdamVector::new(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let mut v = AdamVector::new(1);
        v.begin_step(&AdamParams::default()).delta(5, 1.0);
    }

    #[test]
    fn from_parts_round_trips_bitwise() {
        let mut v = AdamVector::new(3);
        let p = AdamParams::default();
        let mut step = v.begin_step(&p);
        step.delta(0, 1.0);
        step.delta(2, -0.5);
        v.begin_step(&p).delta(1, 0.25);
        let rebuilt = AdamVector::from_parts(
            v.step_count(),
            v.scalars()
                .iter()
                .map(|s| {
                    let (m, mo) = s.moments();
                    AdamScalar::from_moments(m, mo)
                })
                .collect(),
        );
        assert_eq!(rebuilt, v);
        assert_eq!(rebuilt.step_count(), 2);
    }

    #[test]
    fn reset_to_matches_new() {
        let mut v = AdamVector::new(2);
        v.begin_step(&AdamParams::default()).delta(0, 1.0);
        v.grow(10);
        v.reset_to(5);
        assert_eq!(v, AdamVector::new(5));
        assert_eq!(v.step_count(), 0);
    }
}
