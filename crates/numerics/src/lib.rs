//! # divrel-numerics
//!
//! Numerical substrate for the `divrel` workspace: special functions,
//! probability distributions and statistical tooling needed to reproduce
//! Popov & Strigini, *"The Reliability of Diverse Systems: a Contribution
//! using Modelling of the Fault Creation Process"* (DSN 2001).
//!
//! Everything here is implemented from scratch on top of `std`, because the
//! paper's analysis needs exact control over:
//!
//! * the **normal distribution** (CDF, quantile) used by the paper's §5
//!   confidence-bound reasoning (`µ + kσ` bounds),
//! * the **exact distribution of a weighted sum of independent Bernoulli
//!   variables** (the PFD of a version is `Σ qᵢ·Bernoulli(pᵢ)`),
//! * the **Poisson–binomial** distribution (the number of faults `N₁`, and
//!   of common faults `N₂`, in §4),
//! * goodness-of-fit tooling (**Kolmogorov–Smirnov**, **Berry–Esseen**) to
//!   answer the paper's own caveat that "we will not know in practice how
//!   good an approximation" the CLT is (§3, §5),
//! * root finding and minimisation used to locate the gain-reversal
//!   stationary points of Appendix A,
//! * the **geometric gap sampler** that runs of Bernoulli trials skip
//!   with (demand gaps, Markov dwells, operational failures).
//!
//! ## Quick example
//!
//! ```
//! use divrel_numerics::normal::Normal;
//!
//! let n = Normal::standard();
//! // The paper (§5.1): P(Θ ≤ µ+3σ) = 0.99865003
//! assert!((n.cdf(3.0) - 0.998_650_10).abs() < 1e-6);
//! // ... and the 99% one-sided bound corresponds to k ≈ 2.33
//! assert!((n.quantile(0.99).unwrap() - 2.326).abs() < 1e-3);
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod berry_esseen;
pub mod beta_dist;
pub mod bootstrap;
pub mod descriptive;
pub mod error;
pub mod estimator;
pub mod ks;
pub mod normal;
pub mod poisson_binomial;
pub mod roots;
pub mod sampling;
pub mod special;
pub mod sweep;
pub mod weighted_sum;
pub mod wire;

pub use error::NumericsError;
pub use estimator::{LogSum, StratumMoments, WeightedMean};
pub use normal::Normal;
pub use poisson_binomial::PoissonBinomial;
pub use weighted_sum::WeightedBernoulliSum;
