//! Weighted estimator accumulators for rare-event Monte Carlo.
//!
//! Importance sampling reweights each draw by a likelihood ratio that
//! can easily reach `e^{-300}` under a strong tilt — far below what a
//! linear-domain running sum can hold once terms are squared. The
//! accumulators here therefore carry every weight sum in the **log
//! domain** ([`LogSum`], a streaming log-sum-exp), and expose the
//! derived statistics an estimator needs: the weighted mean itself,
//! its standard error, the relative error, and the effective sample
//! size `(Σw)²/Σw²` ([`WeightedMean`]).
//!
//! Both accumulator types implement [`SweepReduce`] and [`WireForm`],
//! so the deterministic sweep engine, the lease journal and the
//! coordinator/worker fleet handle them exactly like any other cell
//! accumulator: per-cell partials merge associatively, fold in
//! canonical cell order, and cross process boundaries bit-exactly.
//!
//! Every rare-event estimator folds into [`WeightedMean`]: a naive draw
//! carries log weight 0, a tilted draw its likelihood ratio, and a
//! stratified draw the ratio of its stratum's exact probability to the
//! probability the proposal picked that stratum with.

use crate::error::NumericsError;
use crate::sweep::SweepReduce;
use crate::wire::{Wire, WireError, WireForm};

/// `log(exp(a) + exp(b))` without overflow or unnecessary underflow.
///
/// Negative infinity stands for `log 0` and behaves as the additive
/// identity, so accumulating an empty sum is well defined.
///
/// ```
/// use divrel_numerics::estimator::log_add_exp;
/// let s = log_add_exp((1e-300f64).ln(), (2e-300f64).ln());
/// assert!((s - (3e-300f64).ln()).abs() < 1e-12);
/// assert_eq!(log_add_exp(f64::NEG_INFINITY, -5.0), -5.0);
/// ```
#[must_use]
pub fn log_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// A streaming log-domain sum of non-negative terms: holds
/// `log Σᵢ exp(lᵢ)` as a `(max, Σ exp(lᵢ − max))` pair so that terms
/// spanning hundreds of orders of magnitude accumulate without
/// overflow or underflow.
///
/// The pair representation (rather than a single running log) keeps
/// `absorb` cheap and exactly associative enough for canonical-order
/// folding: merging rescales the smaller-max side once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogSum {
    /// Largest log-term seen (`−∞` while empty).
    max: f64,
    /// `Σ exp(lᵢ − max)` over the accumulated terms.
    rest: f64,
}

impl Default for LogSum {
    fn default() -> Self {
        LogSum {
            max: f64::NEG_INFINITY,
            rest: 0.0,
        }
    }
}

impl LogSum {
    /// Creates an empty sum (`value()` is `−∞`).
    #[must_use]
    pub fn new() -> Self {
        LogSum::default()
    }

    /// Adds one term given as its natural log. A `−∞` term (a zero
    /// contribution) is a no-op, so callers can push unconditionally.
    pub fn push_log(&mut self, l: f64) {
        if l == f64::NEG_INFINITY {
            return;
        }
        if l <= self.max {
            self.rest += (l - self.max).exp();
        } else {
            self.rest = self.rest * (self.max - l).exp() + 1.0;
            self.max = l;
        }
    }

    /// True if no (non-zero) term has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.max == f64::NEG_INFINITY
    }

    /// `log Σᵢ exp(lᵢ)`; `−∞` for an empty sum.
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.is_empty() {
            f64::NEG_INFINITY
        } else {
            self.max + self.rest.ln()
        }
    }

    /// Merges another log-sum into this one (rescaling the side with
    /// the smaller max).
    pub fn merge(&mut self, other: &LogSum) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = *other;
            return;
        }
        if other.max <= self.max {
            self.rest += other.rest * (other.max - self.max).exp();
        } else {
            self.rest = self.rest * (self.max - other.max).exp() + other.rest;
            self.max = other.max;
        }
    }
}

impl SweepReduce for LogSum {
    fn absorb(&mut self, other: Self) {
        self.merge(&other);
    }
}

impl WireForm for LogSum {
    fn to_wire(&self) -> Wire {
        Wire::record([("max", Wire::F64(self.max)), ("rest", Wire::F64(self.rest))])
    }

    fn from_wire(wire: &Wire) -> Result<Self, WireError> {
        Ok(LogSum {
            max: wire.field("max")?.as_f64()?,
            rest: wire.field("rest")?.as_f64()?,
        })
    }
}

/// The weighted-mean accumulator of an importance-sampled estimator
/// with a **known normalizer**: for draws `(wᵢ, yᵢ)` with `wᵢ > 0` the
/// likelihood ratio and `yᵢ ≥ 0` the observed payoff, the estimate is
/// `μ̂ = (Σ wᵢ yᵢ) / n` — unbiased by construction because `E[w·y]`
/// under the proposal equals `E[y]` under the target.
///
/// All four power sums (`Σw`, `Σw²`, `Σwy`, `Σ(wy)²`) live in the log
/// domain, so weights as small as `e^{-600}` still contribute to the
/// variance estimate instead of flushing to zero when squared.
///
/// The unweighted (naive) estimator is the special case `log w = 0`:
/// then `μ̂` is the plain sample mean and [`Self::ess`] equals `n`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeightedMean {
    n: u64,
    log_w: LogSum,
    log_w2: LogSum,
    log_wy: LogSum,
    log_wy2: LogSum,
}

impl WeightedMean {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        WeightedMean::default()
    }

    /// Adds one draw: `log_w` is the natural log of its likelihood
    /// ratio (0.0 for an unweighted draw), `y ≥ 0` its payoff. A zero
    /// payoff still counts toward `n` and the weight sums.
    pub fn push(&mut self, log_w: f64, y: f64) {
        debug_assert!(log_w.is_finite() || log_w == f64::NEG_INFINITY);
        debug_assert!(y >= 0.0);
        self.n += 1;
        self.log_w.push_log(log_w);
        self.log_w2.push_log(2.0 * log_w);
        if y > 0.0 {
            let log_wy = log_w + y.ln();
            self.log_wy.push_log(log_wy);
            self.log_wy2.push_log(2.0 * log_wy);
        }
    }

    /// Number of draws (including zero-payoff draws).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// `log μ̂ = log Σwy − log n`; `−∞` when no draw had positive
    /// payoff.
    #[must_use]
    pub fn log_estimate(&self) -> f64 {
        if self.n == 0 {
            return f64::NEG_INFINITY;
        }
        self.log_wy.value() - (self.n as f64).ln()
    }

    /// The known-normalizer estimate `μ̂ = Σwy / n` (0.0 when nothing
    /// positive was observed).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        self.log_estimate().exp()
    }

    /// Standard error of [`Self::estimate`]:
    /// `√((m₂ − μ̂²) / (n − 1))` with `m₂ = Σ(wy)²/n`, evaluated via
    /// `m₂·(1 − exp(log μ̂² − log m₂))` so the subtraction happens on a
    /// well-scaled mantissa rather than two denormals.
    ///
    /// # Errors
    ///
    /// [`NumericsError::EmptyData`] with fewer than two draws.
    pub fn std_error(&self) -> Result<f64, NumericsError> {
        if self.n < 2 {
            return Err(NumericsError::EmptyData("WeightedMean::std_error"));
        }
        if self.log_wy2.is_empty() {
            return Ok(0.0);
        }
        let n = self.n as f64;
        let log_m2 = self.log_wy2.value() - n.ln();
        let log_mu2 = 2.0 * self.log_estimate();
        // m2 ≥ μ̂² (power-mean inequality); the ratio is ≤ 1, so the
        // complement is computed with ln_1p-level accuracy.
        let ratio = (log_mu2 - log_m2).exp().min(1.0);
        let log_var = log_m2 + (1.0 - ratio).ln() - (n - 1.0).ln();
        Ok((0.5 * log_var).exp())
    }

    /// Relative error `se(μ̂)/μ̂`; `+∞` when the estimate is zero.
    ///
    /// # Errors
    ///
    /// [`NumericsError::EmptyData`] with fewer than two draws.
    pub fn relative_error(&self) -> Result<f64, NumericsError> {
        let se = self.std_error()?;
        let log_mu = self.log_estimate();
        if log_mu == f64::NEG_INFINITY {
            return Ok(f64::INFINITY);
        }
        Ok((se.ln() - log_mu).exp())
    }

    /// Kish effective sample size `(Σw)²/Σw²` — how many unweighted
    /// draws this weighted sample is worth. Equals `n` when every
    /// weight is 1.
    #[must_use]
    pub fn ess(&self) -> f64 {
        if self.log_w.is_empty() {
            return 0.0;
        }
        (2.0 * self.log_w.value() - self.log_w2.value()).exp()
    }
}

impl SweepReduce for WeightedMean {
    fn absorb(&mut self, other: Self) {
        self.n += other.n;
        self.log_w.merge(&other.log_w);
        self.log_w2.merge(&other.log_w2);
        self.log_wy.merge(&other.log_wy);
        self.log_wy2.merge(&other.log_wy2);
    }
}

impl WireForm for WeightedMean {
    fn to_wire(&self) -> Wire {
        Wire::record([
            ("n", Wire::U64(self.n)),
            ("w", self.log_w.to_wire()),
            ("w2", self.log_w2.to_wire()),
            ("wy", self.log_wy.to_wire()),
            ("wy2", self.log_wy2.to_wire()),
        ])
    }

    fn from_wire(wire: &Wire) -> Result<Self, WireError> {
        Ok(WeightedMean {
            n: wire.field("n")?.as_u64()?,
            log_w: LogSum::from_wire(wire.field("w")?)?,
            log_w2: LogSum::from_wire(wire.field("w2")?)?,
            log_wy: LogSum::from_wire(wire.field("wy")?)?,
            log_wy2: LogSum::from_wire(wire.field("wy2")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_matches_linear_sum_in_safe_range() {
        let terms = [0.5f64, 1.25, 3.0, 0.001, 42.0];
        let mut ls = LogSum::new();
        for t in terms {
            ls.push_log(t.ln());
        }
        let linear: f64 = terms.iter().sum();
        assert!((ls.value() - linear.ln()).abs() < 1e-12);
    }

    #[test]
    fn log_sum_survives_denormal_scale_terms() {
        // Terms around e^-800 would be exactly 0.0 in linear f64.
        let mut ls = LogSum::new();
        for k in 0..10 {
            ls.push_log(-800.0 - f64::from(k));
        }
        let expect = -800.0 + (0..10).map(|k| (-f64::from(k)).exp()).sum::<f64>().ln();
        assert!((ls.value() - expect).abs() < 1e-12);
        assert!(ls.value().is_finite());
    }

    #[test]
    fn log_sum_merge_equals_sequential_push() {
        let logs: Vec<f64> = (0..40).map(|i| -0.37 * f64::from(i) - 100.0).collect();
        let mut whole = LogSum::new();
        for &l in &logs {
            whole.push_log(l);
        }
        let mut left = LogSum::new();
        let mut right = LogSum::new();
        for &l in &logs[..17] {
            left.push_log(l);
        }
        for &l in &logs[17..] {
            right.push_log(l);
        }
        left.merge(&right);
        assert!((left.value() - whole.value()).abs() < 1e-12);
        // Empty merges are identities.
        let mut e = LogSum::new();
        e.merge(&LogSum::new());
        assert!(e.is_empty());
        e.merge(&whole);
        assert_eq!(e.value(), whole.value());
    }

    #[test]
    fn weighted_mean_reduces_to_plain_mean_with_unit_weights() {
        let ys = [0.0, 1.0, 0.0, 0.0, 2.5, 0.0, 1.0, 0.0];
        let mut wm = WeightedMean::new();
        for &y in &ys {
            wm.push(0.0, y);
        }
        let mean: f64 = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!((wm.estimate() - mean).abs() < 1e-12);
        assert!((wm.ess() - ys.len() as f64).abs() < 1e-9);
        let m2: f64 = ys.iter().map(|y| y * y).sum::<f64>() / ys.len() as f64;
        let se = ((m2 - mean * mean) / (ys.len() as f64 - 1.0)).sqrt();
        assert!((wm.std_error().unwrap() - se).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_handles_extreme_log_weights() {
        // Weights near e^-300: squares are e^-600, far beyond linear f64.
        let mut wm = WeightedMean::new();
        for i in 0..100 {
            let log_w = -300.0 - 0.01 * f64::from(i);
            wm.push(log_w, 1.0);
        }
        assert!(wm.estimate() > 0.0);
        assert!(wm.estimate().is_finite());
        assert!(wm.std_error().unwrap().is_finite());
        assert!(wm.ess() > 1.0 && wm.ess() <= 100.0);
    }

    #[test]
    fn weighted_mean_absorb_is_exact_for_cell_partials() {
        let draws: Vec<(f64, f64)> = (0..64)
            .map(|i| (-0.5 * f64::from(i), if i % 3 == 0 { 0.0 } else { 1.5 }))
            .collect();
        let mut whole = WeightedMean::new();
        for &(lw, y) in &draws {
            whole.push(lw, y);
        }
        let mut a = WeightedMean::new();
        let mut b = WeightedMean::new();
        for &(lw, y) in &draws[..20] {
            a.push(lw, y);
        }
        for &(lw, y) in &draws[20..] {
            b.push(lw, y);
        }
        a.absorb(b);
        assert_eq!(a.count(), whole.count());
        assert!((a.estimate() - whole.estimate()).abs() <= 1e-15 * whole.estimate());
    }

    #[test]
    fn weighted_mean_wire_round_trip_is_bit_identical() {
        let mut wm = WeightedMean::new();
        for i in 0..10 {
            wm.push(-250.0 - f64::from(i), 0.125 * f64::from(i));
        }
        let back = WeightedMean::from_wire(&wm.to_wire()).unwrap();
        assert_eq!(back, wm);
        assert_eq!(back.estimate().to_bits(), wm.estimate().to_bits());
        // Including through the serialised (JSON) wire text.
        let json = serde_json::to_string(&wm.to_wire()).unwrap();
        let wire: Wire = serde_json::from_str(&json).unwrap();
        assert_eq!(WeightedMean::from_wire(&wire).unwrap(), wm);
    }
}
