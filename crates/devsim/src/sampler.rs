//! The bitset sampling fast path: draws whole fault sets with a
//! handful of `u64` RNG draws instead of one `f64` draw per potential
//! fault.
//!
//! # Bit-sliced Bernoulli sampling
//!
//! `u < p` compares a uniform `u` against `p` one binary digit at a
//! time: at the first bit position where they differ, the comparison is
//! decided. Running that comparison for 64 faults *in parallel* takes
//! one random word per bit-plane: with `Pℓ` the word holding the ℓ-th
//! fraction bit of every fault's `p`, and `R` a fresh random word,
//!
//! * `undecided & !R & Pℓ` — uniform bit 0, p bit 1 → `u < p`: fault
//!   present, decided;
//! * `undecided & R & !Pℓ` — uniform bit 1, p bit 0 → `u > p`: fault
//!   absent, decided.
//!
//! Each plane decides every still-undecided fault with probability ½,
//! so a 64-fault word finishes after ~`log₂ 64 + 1.3 ≈ 7` draws in
//! expectation. The plane depth is capped at `DEPTH` (40); the
//! astronomically rare ties left after that are finished with exact
//! per-fault draws against the remaining fraction tail, so every
//! marginal is exactly `p` (to the same fp quantisation as the
//! reference `gen::<f64>() < p`).
//!
//! For 1-out-of-2 pair sampling with ≤ 32 faults per word, the two
//! versions' bits share each random word ([`BitSampler::sample_pair_into`]),
//! halving the draw count again.
//!
//! The §6.1 correlated mixtures of
//! [`FaultIntroduction`] keep their
//! exact marginal-preserving semantics:
//!
//! * **CommonCause** — the comonotone branch's fault set is a function
//!   of a single uniform `u`: `{i : p_i > u}`, always a prefix of the
//!   faults sorted by descending `p`. The prefixes are precomputed as
//!   bitmasks, so the branch costs one draw, one binary search and one
//!   word copy.
//! * **Antithetic** — pairwise antithetic uniforms, drawn exactly as
//!   the reference sampler does.
//!
//! Every path writes into a caller-supplied [`FaultSet`], so the hot
//! Monte-Carlo loops allocate nothing per sample.

use crate::error::DevSimError;
use crate::process::FaultIntroduction;
use divrel_demand::fault_set::{words_for, FaultSet, WORD_BITS};
use divrel_model::FaultModel;
use rand::Rng;

/// Bit-plane depth before the per-fault tail fallback. A tie survives
/// one plane with probability ½, so the fallback fires with probability
/// `≈ bits · 2⁻⁴⁰` per sampled word.
const DEPTH: usize = 40;

/// Bit-plane tables for one 64-bit lane of independent Bernoulli draws.
#[derive(Debug, Clone)]
struct WordPlan {
    /// Lane bits actually in use.
    mask: u64,
    /// Faults with `p = 1` (always present).
    always: u64,
    /// Faults with `p = 0` (never present; skipped entirely).
    never: u64,
    /// Bits whose comparison tail after [`DEPTH`] planes is exactly
    /// zero: a tie there resolves to "absent" with no extra draw.
    dead: u64,
    /// `planes[ℓ]` holds the ℓ-th binary fraction digit of each `p`.
    planes: Vec<u64>,
    /// Conditional tail probability per lane bit after [`DEPTH`] tied
    /// planes (exact continuation of the comparison).
    tail_p: Vec<f64>,
}

impl WordPlan {
    /// Builds the plan for the probabilities of one lane.
    fn new(ps: &[f64]) -> Self {
        assert!(ps.len() <= WORD_BITS);
        let mut mask = 0u64;
        let mut always = 0u64;
        let mut never = 0u64;
        let mut planes = vec![0u64; DEPTH];
        let mut tail_p = vec![0.0f64; ps.len()];
        for (bit, &p) in ps.iter().enumerate() {
            mask |= 1u64 << bit;
            if p >= 1.0 {
                always |= 1u64 << bit;
                continue;
            }
            if p <= 0.0 {
                never |= 1u64 << bit;
                continue;
            }
            // Exact binary expansion: scaling by 2^DEPTH is exact, the
            // integer part holds the first DEPTH fraction digits, most
            // significant first, and the fractional part left over is
            // exact too.
            let scaled = p * (1u64 << DEPTH) as f64;
            let mut digits = scaled as u64;
            tail_p[bit] = scaled - digits as f64;
            while digits != 0 {
                planes[DEPTH - 1 - digits.trailing_zeros() as usize] |= 1u64 << bit;
                digits &= digits - 1;
            }
        }
        // Drop all-zero trailing planes (p's with short expansions).
        while planes.last() == Some(&0) && planes.len() > 1 {
            let all_zero_tail = tail_p.iter().all(|&t| t == 0.0);
            if !all_zero_tail {
                break;
            }
            planes.pop();
        }
        let mut dead = 0u64;
        for (bit, &t) in tail_p.iter().enumerate() {
            if t == 0.0 && always >> bit & 1 == 0 {
                dead |= 1u64 << bit;
            }
        }
        WordPlan {
            mask,
            always,
            never,
            dead,
            planes,
            tail_p,
        }
    }

    /// Draws one word of Bernoulli bits.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut result = self.always;
        let mut undecided = self.mask & !self.always & !self.never;
        for plane in &self.planes {
            if undecided == 0 {
                return result;
            }
            let r = rng.next_u64();
            let lt = undecided & !r & plane;
            let gt = undecided & r & !plane;
            result |= lt;
            undecided &= !(lt | gt);
        }
        // A tie with a zero remainder can only resolve to u > p.
        undecided &= !self.dead;
        // Ties after DEPTH planes: finish exactly, per fault.
        while undecided != 0 {
            let b = undecided.trailing_zeros() as usize;
            if rng.gen::<f64>() < self.tail_p[b] {
                result |= 1u64 << b;
            }
            undecided &= undecided - 1;
        }
        result
    }
}

/// Precomputed tables for sampling fault sets of one model under one
/// introduction model.
#[derive(Debug, Clone)]
pub struct BitSampler {
    n: usize,
    intro: FaultIntroduction,
    /// One plan per 64-fault word of a version.
    word_plans: Vec<WordPlan>,
    /// When the final word holds ≤ 32 faults: a fused plan over both
    /// pair members' tail bits (A in the low half, B shifted up).
    fused_tail: Option<WordPlan>,
    /// Bits of the final (possibly partial) word.
    tail_bits: usize,
    /// Full probability vector (used by the antithetic branch).
    ps: Vec<f64>,
    /// CommonCause only: probabilities sorted descending…
    sorted_p: Vec<f64>,
    /// …and the matching prefix bitmasks, flattened `(n + 1) × wps`.
    prefix_masks: Vec<u64>,
    wps: usize,
}

impl BitSampler {
    /// Builds the tables for `model` under `intro`.
    pub fn new(model: &FaultModel, intro: FaultIntroduction) -> Self {
        let ps: Vec<f64> = model.p_values().collect();
        let n = ps.len();
        let wps = words_for(n);
        let mut word_plans = Vec::with_capacity(wps);
        for chunk in ps.chunks(WORD_BITS) {
            word_plans.push(WordPlan::new(chunk));
        }
        let tail_bits = if n.is_multiple_of(WORD_BITS) && n > 0 {
            WORD_BITS
        } else {
            n % WORD_BITS
        };
        let fused_tail = if tail_bits > 0 && tail_bits * 2 <= WORD_BITS {
            let tail_ps = &ps[n - tail_bits..];
            let mut both = tail_ps.to_vec();
            both.extend_from_slice(tail_ps);
            Some(WordPlan::new(&both))
        } else {
            None
        };
        let (sorted_p, prefix_masks) = if matches!(intro, FaultIntroduction::CommonCause { .. }) {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| ps[b].total_cmp(&ps[a]));
            let mut masks = vec![0u64; (n + 1) * wps];
            let mut acc = FaultSet::new(n);
            for (k, &f) in order.iter().enumerate() {
                acc.insert(f);
                masks[(k + 1) * wps..(k + 2) * wps].copy_from_slice(acc.words());
            }
            (order.into_iter().map(|f| ps[f]).collect(), masks)
        } else {
            (Vec::new(), Vec::new())
        };
        BitSampler {
            n,
            intro,
            word_plans,
            fused_tail,
            tail_bits,
            ps,
            sorted_p,
            prefix_masks,
            wps,
        }
    }

    /// The fault-universe size.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Draws one version's fault set into `out` (which must have the
    /// model's universe size). Distribution-identical to
    /// [`FaultIntroduction::sample_version`], but consumes far fewer
    /// RNG draws (≈ `log₂ 64` per 64-fault word).
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut FaultSet) {
        debug_assert_eq!(out.universe(), self.n, "scratch set universe mismatch");
        match self.intro {
            FaultIntroduction::Independent => self.sample_independent(rng, out),
            FaultIntroduction::CommonCause { lambda } => {
                if rng.gen::<f64>() < lambda {
                    self.sample_comonotone(rng, out);
                } else {
                    self.sample_independent(rng, out);
                }
            }
            FaultIntroduction::Antithetic { lambda } => {
                if rng.gen::<f64>() < lambda {
                    self.sample_antithetic(rng, out);
                } else {
                    self.sample_independent(rng, out);
                }
            }
        }
    }

    /// Draws a 1-out-of-2 pair (two independent versions) into `a` and
    /// `b`. Under the independent introduction model with a ≤ 32-fault
    /// tail word, both versions' tail bits share each random word.
    pub fn sample_pair_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        a: &mut FaultSet,
        b: &mut FaultSet,
    ) {
        if !matches!(self.intro, FaultIntroduction::Independent) {
            self.sample_into(rng, a);
            self.sample_into(rng, b);
            return;
        }
        debug_assert_eq!(a.universe(), self.n);
        debug_assert_eq!(b.universe(), self.n);
        match &self.fused_tail {
            Some(fused) => {
                let full = self.word_plans.len() - 1;
                {
                    let wa = a.words_mut();
                    for (w, plan) in self.word_plans[..full].iter().enumerate() {
                        wa[w] = plan.sample(rng);
                    }
                }
                {
                    let wb = b.words_mut();
                    for (w, plan) in self.word_plans[..full].iter().enumerate() {
                        wb[w] = plan.sample(rng);
                    }
                }
                let both = fused.sample(rng);
                let lo_mask = (1u64 << self.tail_bits) - 1;
                a.words_mut()[full] = both & lo_mask;
                b.words_mut()[full] = (both >> self.tail_bits) & lo_mask;
            }
            None => {
                self.sample_independent(rng, a);
                self.sample_independent(rng, b);
            }
        }
    }

    fn sample_independent<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut FaultSet) {
        let words = out.words_mut();
        for (w, plan) in self.word_plans.iter().enumerate() {
            words[w] = plan.sample(rng);
        }
    }

    fn sample_comonotone<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut FaultSet) {
        let u: f64 = rng.gen();
        // Present set = {i : p_i > u} = a prefix of the descending sort.
        let k = self.sorted_p.partition_point(|&p| p > u);
        out.words_mut()
            .copy_from_slice(&self.prefix_masks[k * self.wps..(k + 1) * self.wps]);
    }

    fn sample_antithetic<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut FaultSet) {
        out.clear();
        let ps = &self.ps;
        let mut i = 0;
        while i < ps.len() {
            let u: f64 = rng.gen();
            if u < ps[i] {
                out.insert(i);
            }
            if i + 1 < ps.len() && (1.0 - u) < ps[i + 1] {
                out.insert(i + 1);
            }
            i += 2;
        }
    }
}

/// The exponential tilt of each Bernoulli probability in `ps`:
/// `p' = p·eᶿ / (1 − p + p·eᶿ)`, the natural exponential family
/// through it, so `θ = 0` is the identity and growing `θ` pushes `p'`
/// up smoothly without ever leaving `(0, 1)`. `θ = 0` and degenerate
/// `p ∈ {0, 1}` keep `p` itself, with no rounding detour through the
/// formula, so their likelihood ratios are exactly 1.
pub(crate) fn exponential_tilt(ps: &[f64], theta: f64) -> Vec<f64> {
    let e = theta.exp();
    ps.iter()
        .map(|&p| {
            if theta == 0.0 || p <= 0.0 || p >= 1.0 {
                p
            } else {
                p * e / (1.0 - p + p * e)
            }
        })
        .collect()
}

/// Importance sampling over a universe of independent Bernoulli bits
/// of any size, packed densely into `u64` words (bit `i` is bit
/// `i % 64` of word `i / 64`): one bit-plane plan per word draws from
/// the **tilted** probabilities `p'ᵢ`, and one table of per-bit deltas
/// gives the **exact** log likelihood ratio of a sampled universe, in
/// the factorised form [`BiasedBitSampler`] documents. A bit with
/// `p' = p`, `p = 0` or `p = 1` has factor 1.
#[derive(Debug, Clone)]
pub(crate) struct BiasedUniverse {
    /// One plan per word; the last word may be partial.
    plans: Vec<WordPlan>,
    tilted: Vec<f64>,
    /// `δᵢ` per bit (0 for untilted and degenerate bits).
    delta: Vec<f64>,
    /// `Σᵢ log((1−pᵢ)/(1−p'ᵢ))`: the all-absent log ratio.
    total_absent: f64,
}

impl BiasedUniverse {
    /// The universe that draws bit `i` with probability `tilted[i]`
    /// and weighs it against `ps[i]`.
    ///
    /// # Errors
    ///
    /// [`DevSimError::InvalidConfig`] for probabilities outside
    /// `[0, 1]`.
    pub(crate) fn new(ps: &[f64], tilted: Vec<f64>) -> Result<Self, DevSimError> {
        assert_eq!(ps.len(), tilted.len(), "one tilted probability per bit");
        for &p in ps {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(DevSimError::InvalidConfig(format!(
                    "bit probability {p} outside [0, 1]"
                )));
            }
        }
        let mut delta = vec![0.0f64; ps.len()];
        let mut total_absent = 0.0f64;
        for (b, (&p, &t)) in ps.iter().zip(&tilted).enumerate() {
            if p <= 0.0 || p >= 1.0 || t == p {
                continue;
            }
            let absent = ((1.0 - p) / (1.0 - t)).ln();
            delta[b] = (p / t).ln() - absent;
            total_absent += absent;
        }
        Ok(BiasedUniverse {
            plans: tilted.chunks(WORD_BITS).map(WordPlan::new).collect(),
            tilted,
            delta,
            total_absent,
        })
    }

    /// Words a sampled universe fills.
    pub(crate) fn words(&self) -> usize {
        self.plans.len()
    }

    /// The tilted probabilities the plan draws from.
    pub(crate) fn tilted_ps(&self) -> &[f64] {
        &self.tilted
    }

    /// Draws one universe from the **tilted** probabilities into `out`
    /// (one entry per word).
    #[inline]
    pub(crate) fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.plans.len(), "universe word count mismatch");
        for (word, plan) in out.iter_mut().zip(&self.plans) {
            *word = plan.sample(rng);
        }
    }

    /// Exact log likelihood ratio `log(P_original/P_tilted)` of a
    /// sampled universe. Always finite for universes the tilted plan
    /// can produce.
    #[inline]
    pub(crate) fn log_weight(&self, words: &[u64]) -> f64 {
        let mut lw = self.total_absent;
        for ((&word, plan), delta) in words
            .iter()
            .zip(&self.plans)
            .zip(self.delta.chunks(WORD_BITS))
        {
            let mut set = word & plan.mask;
            while set != 0 {
                lw += delta[set.trailing_zeros() as usize];
                set &= set - 1;
            }
        }
        lw
    }
}

/// Importance sampling over one ≤ 64-bit lane of independent Bernoulli
/// draws under one exponential tilt: samples from **tilted**
/// inclusion probabilities `p'ᵢ ≥ pᵢ` through the same bit-plane
/// machinery as [`BitSampler`], and returns the **exact** log
/// likelihood ratio of any sampled word against the original
/// probabilities, so a rare-event estimator reweighting by
/// [`Self::log_weight`] is unbiased by construction.
///
/// The per-word ratio factorises over bits:
///
/// ```text
/// log w(word) = Σᵢ log( [pᵢ/p'ᵢ]^bᵢ · [(1−pᵢ)/(1−p'ᵢ)]^(1−bᵢ) )
///             = total_absent + Σ_{set bits} δᵢ
/// ```
///
/// with `total_absent = Σᵢ log((1−pᵢ)/(1−p'ᵢ))` precomputed and
/// `δᵢ = log(pᵢ/p'ᵢ) − log((1−pᵢ)/(1−p'ᵢ))`, so evaluating a weight is
/// one popcount-style loop over set bits — no per-sample logs. The
/// rare-event engine's concatenated universe, of any width, is drawn
/// by the same plan and weighed by the same deltas.
///
/// Degenerate bits never distort the ratio: `p = 0` stays untilted
/// (the bit cannot appear, so its factor is 1) and `p = 1` stays
/// always-present (factor 1 again).
#[derive(Debug, Clone)]
pub struct BiasedBitSampler(BiasedUniverse);

impl BiasedBitSampler {
    /// Exponential tilt: `p'ᵢ = pᵢ·eᶿ / (1 − pᵢ + pᵢ·eᶿ)` — the
    /// natural exponential family through each Bernoulli, so `θ = 0`
    /// is the identity (every weight exactly 1) and growing `θ` pushes
    /// fault counts up smoothly without ever leaving `(0, 1)`.
    ///
    /// # Errors
    ///
    /// [`DevSimError::InvalidConfig`] for more than 64 probabilities,
    /// probabilities outside `[0, 1]`, or a non-finite `theta`.
    pub fn exponential(ps: &[f64], theta: f64) -> Result<Self, DevSimError> {
        if !theta.is_finite() {
            return Err(DevSimError::InvalidConfig(format!(
                "tilt theta must be finite, got {theta}"
            )));
        }
        if ps.len() > WORD_BITS {
            return Err(DevSimError::InvalidConfig(format!(
                "biased lane holds at most {WORD_BITS} bits, got {}",
                ps.len()
            )));
        }
        BiasedUniverse::new(ps, exponential_tilt(ps, theta)).map(BiasedBitSampler)
    }

    /// The tilted probabilities the sampler actually draws from.
    pub fn tilted_ps(&self) -> &[f64] {
        self.0.tilted_ps()
    }

    /// Number of lane bits.
    pub fn len(&self) -> usize {
        self.0.tilted_ps().len()
    }

    /// True for an empty lane.
    pub fn is_empty(&self) -> bool {
        self.0.tilted_ps().is_empty()
    }

    /// Draws one word from the **tilted** probabilities.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut word = [0u64];
        self.0.sample_into(rng, &mut word[..self.0.words()]);
        word[0]
    }

    /// Exact log likelihood ratio `log(P_original(word)/P_tilted(word))`
    /// of a sampled word. Always finite for words the tilted sampler
    /// can produce.
    #[inline]
    pub fn log_weight(&self, word: u64) -> f64 {
        self.0.log_weight(&[word])
    }
}

/// Conditional sampling of one ≤ 64-bit lane of independent Bernoulli
/// bits **given the number of set bits** — the per-stratum draw of a
/// fault-count-stratified estimator.
///
/// Construction runs the Poisson-binomial suffix recursion
/// `R[i][j] = P(exactly j of bits i.. present)`, so `R[0]` is the
/// exact count PMF and the sequential conditional inclusion
/// probability of bit `i` given `j` remaining successes is
/// `pᵢ·R[i+1][j−1] / R[i][j]` — each conditional word costs `n`
/// uniforms and no rejection.
#[derive(Debug, Clone)]
pub struct CountConditionedSampler {
    ps: Vec<f64>,
    /// `suffix[i][j] = P(exactly j of bits i.. present)`,
    /// `i ∈ 0..=n`, `j ∈ 0..=n−i`.
    suffix: Vec<Vec<f64>>,
}

impl CountConditionedSampler {
    /// Builds the suffix tables for one lane of probabilities.
    ///
    /// # Errors
    ///
    /// [`DevSimError::InvalidConfig`] for more than 64 probabilities
    /// or probabilities outside `[0, 1]`.
    pub fn new(ps: &[f64]) -> Result<Self, DevSimError> {
        if ps.len() > WORD_BITS {
            return Err(DevSimError::InvalidConfig(format!(
                "count-conditioned lane holds at most {WORD_BITS} bits, got {}",
                ps.len()
            )));
        }
        for &p in ps {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(DevSimError::InvalidConfig(format!(
                    "bit probability {p} outside [0, 1]"
                )));
            }
        }
        let n = ps.len();
        let mut suffix = vec![Vec::new(); n + 1];
        suffix[n] = vec![1.0];
        for i in (0..n).rev() {
            let p = ps[i];
            let next = &suffix[i + 1];
            let mut row = vec![0.0f64; next.len() + 1];
            for (j, slot) in row.iter_mut().enumerate() {
                let stay = if j < next.len() {
                    (1.0 - p) * next[j]
                } else {
                    0.0
                };
                let take = if j > 0 { p * next[j - 1] } else { 0.0 };
                *slot = stay + take;
            }
            suffix[i] = row;
        }
        Ok(CountConditionedSampler {
            ps: ps.to_vec(),
            suffix,
        })
    }

    /// Number of lane bits.
    pub fn len(&self) -> usize {
        self.ps.len()
    }

    /// True for an empty lane.
    pub fn is_empty(&self) -> bool {
        self.ps.is_empty()
    }

    /// The exact count PMF: entry `j` is `P(N = j)` (the
    /// Poisson-binomial law of the lane).
    pub fn count_pmf(&self) -> &[f64] {
        &self.suffix[0]
    }

    /// Draws one word conditional on **exactly** `j` set bits.
    ///
    /// # Panics
    ///
    /// If `j` exceeds the lane size or `P(N = j) = 0` (callers select
    /// strata from [`Self::count_pmf`], so a zero-probability stratum
    /// is a logic error, not a data error).
    pub fn sample_exact<R: Rng + ?Sized>(&self, rng: &mut R, j: usize) -> u64 {
        let n = self.ps.len();
        assert!(
            j <= n && self.suffix[0][j] > 0.0,
            "stratum N = {j} has zero probability"
        );
        let mut word = 0u64;
        let mut remaining = j;
        for i in 0..n {
            if remaining == 0 {
                break;
            }
            // All of the rest must be present, or the absent branch has
            // zero conditional mass: include without burning a draw.
            let rest = n - i;
            let absent_mass = self.suffix[i + 1].get(remaining).copied().unwrap_or(0.0);
            if remaining == rest || absent_mass == 0.0 {
                word |= 1u64 << i;
                remaining -= 1;
                continue;
            }
            let cur = self.suffix[i][remaining];
            let take = self.ps[i] * self.suffix[i + 1][remaining - 1] / cur;
            if rng.gen::<f64>() < take {
                word |= 1u64 << i;
                remaining -= 1;
            }
        }
        word
    }

    /// Draws one word conditional on **at least** `j` set bits: the
    /// exact count is first drawn from the renormalised tail of the
    /// count PMF (inverse CDF), then the word conditional on that
    /// count. Returns the word.
    ///
    /// # Panics
    ///
    /// If the tail `P(N ≥ j)` has zero probability.
    pub fn sample_at_least<R: Rng + ?Sized>(&self, rng: &mut R, j: usize) -> u64 {
        let pmf = self.count_pmf();
        let tail: f64 = pmf[j.min(pmf.len())..].iter().sum();
        assert!(tail > 0.0, "tail stratum N >= {j} has zero probability");
        let mut u = rng.gen::<f64>() * tail;
        let mut count = j;
        for (t, &m) in pmf.iter().enumerate().skip(j) {
            count = t;
            if u < m && m > 0.0 {
                break;
            }
            u -= m;
        }
        // fp drift past the end lands on the largest positive-mass count.
        while pmf[count] == 0.0 && count > j {
            count -= 1;
        }
        self.sample_exact(rng, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model(ps: &[f64]) -> FaultModel {
        let qs = vec![0.01; ps.len()];
        FaultModel::from_params(ps, &qs).unwrap()
    }

    fn rates(ps: &[f64], intro: FaultIntroduction, n: usize, seed: u64) -> Vec<f64> {
        let m = model(ps);
        let s = BitSampler::new(&m, intro);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = FaultSet::new(m.len());
        let mut counts = vec![0usize; m.len()];
        for _ in 0..n {
            s.sample_into(&mut rng, &mut out);
            for i in out.iter_ones() {
                counts[i] += 1;
            }
        }
        counts.iter().map(|&c| c as f64 / n as f64).collect()
    }

    #[test]
    fn independent_marginals_match() {
        let ps = [0.0, 0.3, 0.05, 1.0, 0.6, 0.011, 0.3];
        let r = rates(&ps, FaultIntroduction::Independent, 60_000, 1);
        for (i, (&got, &want)) in r.iter().zip(&ps).enumerate() {
            assert!(
                (got - want).abs() < 0.01,
                "fault {i}: rate {got} vs p {want}"
            );
        }
    }

    #[test]
    fn independent_marginals_match_across_words() {
        // > 64 faults so multiple word plans are exercised.
        let ps: Vec<f64> = (0..150)
            .map(|i| 0.02 + 0.3 * ((i % 13) as f64 / 12.0))
            .collect();
        let r = rates(&ps, FaultIntroduction::Independent, 40_000, 2);
        for (i, (&got, &want)) in r.iter().zip(&ps).enumerate() {
            assert!(
                (got - want).abs() < 0.015,
                "fault {i}: rate {got} vs p {want}"
            );
        }
    }

    #[test]
    fn independent_joint_is_product() {
        // Pairwise independence within a word: P(i and j) ≈ p_i p_j.
        let ps = [0.4, 0.25, 0.1];
        let m = model(&ps);
        let s = BitSampler::new(&m, FaultIntroduction::Independent);
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = FaultSet::new(3);
        let n = 80_000;
        let mut both01 = 0usize;
        for _ in 0..n {
            s.sample_into(&mut rng, &mut out);
            if out.contains(0) && out.contains(1) {
                both01 += 1;
            }
        }
        assert!((both01 as f64 / n as f64 - 0.1).abs() < 0.006);
    }

    #[test]
    fn fused_pair_members_are_independent() {
        // The fused tail shares RNG words between A and B; the decided
        // bits must still be independent across members.
        let ps = [0.5, 0.3];
        let m = model(&ps);
        let s = BitSampler::new(&m, FaultIntroduction::Independent);
        let mut rng = StdRng::seed_from_u64(4);
        let mut a = FaultSet::new(2);
        let mut b = FaultSet::new(2);
        let n = 120_000;
        let (mut ca, mut cb, mut cab) = (0usize, 0usize, 0usize);
        for _ in 0..n {
            s.sample_pair_into(&mut rng, &mut a, &mut b);
            let pa = a.contains(0);
            let pb = b.contains(0);
            ca += pa as usize;
            cb += pb as usize;
            cab += (pa && pb) as usize;
        }
        let (ra, rb, rab) = (
            ca as f64 / n as f64,
            cb as f64 / n as f64,
            cab as f64 / n as f64,
        );
        assert!((ra - 0.5).abs() < 0.006, "A marginal {ra}");
        assert!((rb - 0.5).abs() < 0.006, "B marginal {rb}");
        assert!((rab - 0.25).abs() < 0.006, "joint {rab} vs 0.25");
    }

    #[test]
    fn pair_sampling_matches_single_sampling_distribution() {
        // sample_pair_into and two sample_into calls draw from the same
        // distribution (different stream consumption).
        let ps: Vec<f64> = (0..40)
            .map(|i| 0.05 + 0.2 * ((i % 7) as f64 / 6.0))
            .collect();
        let m = model(&ps);
        let s = BitSampler::new(&m, FaultIntroduction::Independent);
        let n = 40_000;
        let mut a = FaultSet::new(40);
        let mut b = FaultSet::new(40);
        let mut rng = StdRng::seed_from_u64(5);
        let mut common_paired = 0usize;
        for _ in 0..n {
            s.sample_pair_into(&mut rng, &mut a, &mut b);
            common_paired += a.intersect_count(&b);
        }
        let mut rng = StdRng::seed_from_u64(6);
        let mut common_single = 0usize;
        for _ in 0..n {
            s.sample_into(&mut rng, &mut a);
            s.sample_into(&mut rng, &mut b);
            common_single += a.intersect_count(&b);
        }
        let expect: f64 = ps.iter().map(|p| p * p).sum();
        let got_p = common_paired as f64 / n as f64;
        let got_s = common_single as f64 / n as f64;
        assert!((got_p - expect).abs() < 0.05, "paired {got_p} vs {expect}");
        assert!((got_s - expect).abs() < 0.05, "single {got_s} vs {expect}");
    }

    #[test]
    fn comonotone_prefix_structure() {
        let ps = [0.8, 0.2, 0.5];
        let m = model(&ps);
        let s = BitSampler::new(&m, FaultIntroduction::CommonCause { lambda: 1.0 });
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = FaultSet::new(3);
        for _ in 0..5_000 {
            s.sample_into(&mut rng, &mut out);
            // Smaller-p present implies larger-p present (nested sets).
            if out.contains(1) {
                assert!(out.contains(2) && out.contains(0));
            }
            if out.contains(2) {
                assert!(out.contains(0));
            }
        }
        let r = rates(
            &ps,
            FaultIntroduction::CommonCause { lambda: 1.0 },
            60_000,
            5,
        );
        for (got, want) in r.iter().zip(&ps) {
            assert!((got - want).abs() < 0.01);
        }
    }

    #[test]
    fn antithetic_matches_reference_stream() {
        // The antithetic branch consumes uniforms exactly like the
        // reference sampler, so λ = 1 must reproduce its fault sets
        // from the same seed.
        let ps = [0.3, 0.3, 0.1, 0.9, 0.5];
        let m = model(&ps);
        let intro = FaultIntroduction::Antithetic { lambda: 1.0 };
        let s = BitSampler::new(&m, intro);
        let mut r1 = StdRng::seed_from_u64(6);
        let mut r2 = StdRng::seed_from_u64(6);
        let mut out = FaultSet::new(5);
        for _ in 0..2_000 {
            let reference = intro.sample_version(&m, &mut r1);
            s.sample_into(&mut r2, &mut out);
            assert_eq!(out.to_bools(), reference);
        }
    }

    #[test]
    fn mixture_marginals_preserved() {
        let ps = [0.3, 0.3, 0.1, 0.1];
        for intro in [
            FaultIntroduction::CommonCause { lambda: 0.7 },
            FaultIntroduction::Antithetic { lambda: 0.7 },
        ] {
            let r = rates(&ps, intro, 60_000, 7);
            for (i, (&got, &want)) in r.iter().zip(&ps).enumerate() {
                assert!(
                    (got - want).abs() < 0.01,
                    "{intro:?} fault {i}: {got} vs {want}"
                );
            }
        }
    }

    /// The plan's digits and tails are the binary expansion the
    /// comparison `u < p` reads: the same as doubling `p` and taking
    /// off the integer part DEPTH times, exact in IEEE754 for `p` in
    /// `[0, 1)`.
    #[test]
    fn plan_planes_are_the_binary_expansion_of_each_probability() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut ps: Vec<f64> = (0..60).map(|_| rng.gen::<f64>().powi(9)).collect();
        ps.extend([0.5, 0.75, 1e-300, f64::MIN_POSITIVE, 1.0 - f64::EPSILON]);
        for lane in ps.chunks(WORD_BITS) {
            let plan = WordPlan::new(lane);
            for (bit, &p) in lane.iter().enumerate() {
                let mut frac = p;
                for (depth, plane) in plan.planes.iter().enumerate() {
                    frac *= 2.0;
                    let digit = frac >= 1.0;
                    frac -= if digit { 1.0 } else { 0.0 };
                    assert_eq!(plane >> bit & 1 == 1, digit, "p = {p}, digit {depth}");
                }
                for _ in plan.planes.len()..DEPTH {
                    frac *= 2.0;
                    assert!(frac < 1.0, "p = {p}: a dropped plane held a digit");
                }
                assert_eq!(plan.tail_p[bit].to_bits(), frac.to_bits(), "p = {p}");
            }
        }
    }

    #[test]
    fn dyadic_probabilities_are_exact() {
        // p = 0.5 and p = 0.25 have 1-2 plane expansions and zero tail;
        // the sampler must hit them exactly (modulo MC error) and the
        // plan must not confuse short expansions with p = 0.
        let ps = [0.5, 0.25, 0.0, 1.0];
        let r = rates(&ps, FaultIntroduction::Independent, 60_000, 8);
        assert!((r[0] - 0.5).abs() < 0.01);
        assert!((r[1] - 0.25).abs() < 0.01);
        assert_eq!(r[2], 0.0);
        assert_eq!(r[3], 1.0);
    }

    /// Direct evaluation of `log P_q(word) − log P_{q'}(word)` from the
    /// raw probabilities, for cross-checking the table form.
    fn reference_log_weight(ps: &[f64], tilted: &[f64], word: u64) -> f64 {
        let mut lw = 0.0;
        for (b, (&p, &t)) in ps.iter().zip(tilted).enumerate() {
            if p == t {
                continue;
            }
            if word >> b & 1 == 1 {
                lw += p.ln() - t.ln();
            } else {
                lw += (1.0 - p).ln() - (1.0 - t).ln();
            }
        }
        lw
    }

    #[test]
    fn biased_sampler_marginals_match_the_tilted_probabilities() {
        let ps = [1e-3, 0.02, 0.3, 0.0, 1.0];
        let s = BiasedBitSampler::exponential(&ps, 3.0).unwrap();
        let tilted = s.tilted_ps().to_vec();
        // Degenerate bits stay degenerate; interior bits move up.
        assert_eq!(tilted[3], 0.0);
        assert_eq!(tilted[4], 1.0);
        assert!(tilted[0] > ps[0] && tilted[1] > ps[1] && tilted[2] > ps[2]);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 60_000;
        let mut counts = [0u64; 5];
        for _ in 0..n {
            let w = s.sample(&mut rng);
            for (b, c) in counts.iter_mut().enumerate() {
                *c += w >> b & 1;
            }
        }
        for (b, &c) in counts.iter().enumerate() {
            let rate = c as f64 / n as f64;
            assert!(
                (rate - tilted[b]).abs() < 0.01,
                "bit {b}: rate {rate} vs tilted {}",
                tilted[b]
            );
        }
    }

    #[test]
    fn biased_sampler_log_weight_is_exact_per_word() {
        let ps = [1e-4, 0.03, 0.5, 0.0, 1.0, 0.2];
        let s = BiasedBitSampler::exponential(&ps, 5.0).unwrap();
        let tilted = s.tilted_ps().to_vec();
        // Enumerate every word the tilted sampler can produce: bit 3
        // (p = 0) always absent, bit 4 (p = 1) always present.
        for raw in 0u64..64 {
            let word = (raw & !(1 << 3)) | (1 << 4);
            let expect = reference_log_weight(&ps, &tilted, word);
            let got = s.log_weight(word);
            assert!(
                (got - expect).abs() < 1e-12,
                "word {word:#b}: {got} vs {expect}"
            );
            assert!(got.is_finite());
        }
    }

    #[test]
    fn zero_tilt_is_the_identity_with_unit_weights() {
        let ps = [0.01, 0.3, 0.9];
        let s = BiasedBitSampler::exponential(&ps, 0.0).unwrap();
        assert_eq!(s.tilted_ps(), &ps);
        for word in 0u64..8 {
            assert_eq!(s.log_weight(word), 0.0);
        }
    }

    #[test]
    fn biased_sampler_rejects_bad_parameters() {
        assert!(BiasedBitSampler::exponential(&[0.5], f64::NAN).is_err());
        assert!(BiasedBitSampler::exponential(&[1.5], 1.0).is_err());
        let too_many = vec![0.1; 65];
        assert!(BiasedBitSampler::exponential(&too_many, 1.0).is_err());
    }

    #[test]
    fn count_conditioned_pmf_matches_poisson_binomial() {
        let ps = [0.02, 0.4, 0.11, 0.0, 0.93, 0.25];
        let s = CountConditionedSampler::new(&ps).unwrap();
        let pb = divrel_numerics::PoissonBinomial::new(&ps).unwrap();
        assert_eq!(s.count_pmf().len(), ps.len() + 1);
        for (j, &m) in s.count_pmf().iter().enumerate() {
            assert!((m - pb.pmf(j)).abs() < 1e-14, "j = {j}");
        }
    }

    #[test]
    fn sample_exact_has_the_right_count_and_conditional_marginals() {
        let ps = [0.1, 0.5, 0.25, 0.8];
        let s = CountConditionedSampler::new(&ps).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let n = 60_000;
        for j in 0..=4usize {
            if s.count_pmf()[j] == 0.0 {
                continue;
            }
            let mut counts = [0u64; 4];
            for _ in 0..n {
                let w = s.sample_exact(&mut rng, j);
                assert_eq!(w.count_ones() as usize, j, "stratum {j}");
                for (b, c) in counts.iter_mut().enumerate() {
                    *c += w >> b & 1;
                }
            }
            // Exact conditional marginal: P(bit b | N = j) =
            // p_b · P(N_{-b} = j−1) / P(N = j).
            for (b, &c) in counts.iter().enumerate() {
                let mut rest: Vec<f64> = ps.to_vec();
                rest.remove(b);
                let pb_rest = divrel_numerics::PoissonBinomial::new(&rest).unwrap();
                let expect = if j == 0 {
                    0.0
                } else {
                    ps[b] * pb_rest.pmf(j - 1) / s.count_pmf()[j]
                };
                let rate = c as f64 / n as f64;
                assert!(
                    (rate - expect).abs() < 0.012,
                    "stratum {j} bit {b}: {rate} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn sample_at_least_draws_the_renormalised_tail() {
        let ps = [0.3, 0.3, 0.3, 0.3];
        let s = CountConditionedSampler::new(&ps).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let n = 80_000;
        let j = 2usize;
        let mut by_count = [0u64; 5];
        for _ in 0..n {
            let w = s.sample_at_least(&mut rng, j);
            let c = w.count_ones() as usize;
            assert!(c >= j);
            by_count[c] += 1;
        }
        let tail: f64 = s.count_pmf()[j..].iter().sum();
        for (c, &hits) in by_count.iter().enumerate().skip(j) {
            let expect = s.count_pmf()[c] / tail;
            let rate = hits as f64 / n as f64;
            assert!(
                (rate - expect).abs() < 0.01,
                "count {c}: {rate} vs {expect}"
            );
        }
    }

    #[test]
    fn degenerate_bits_are_respected_in_conditional_draws() {
        // p = 1 bits are in every word; p = 0 bits in none; the count
        // stratum includes the forced bit.
        let ps = [1.0, 0.0, 0.5];
        let s = CountConditionedSampler::new(&ps).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        assert_eq!(s.count_pmf()[0], 0.0);
        for _ in 0..2_000 {
            let w = s.sample_exact(&mut rng, 1);
            assert_eq!(w, 0b001);
            let w2 = s.sample_exact(&mut rng, 2);
            assert_eq!(w2, 0b101);
        }
    }
}
