//! # bb-stats — from-scratch statistics substrate
//!
//! Every statistical primitive used by the study is implemented here, from
//! scratch, with no external numerical dependencies:
//!
//! * [`special`] — special functions: log-gamma, regularized incomplete
//!   beta and gamma, error function, inverse normal CDF;
//! * [`dist`] — probability distributions (normal, Student-t, binomial,
//!   log-normal, Pareto, exponential) with CDFs, tails, quantiles and
//!   deterministic sampling via any [`rand::Rng`];
//! * [`descriptive`] — means, variances, quantiles, five-number summaries;
//! * [`ecdf`] — empirical CDFs, the workhorse behind every CDF figure in
//!   the paper;
//! * [`corr`] — Pearson correlation;
//! * [`regression`] — ordinary least squares for the price~capacity fits of
//!   §6;
//! * [`hypothesis`] — the one-tailed binomial sign test used by every
//!   natural experiment, exact and normal-approximated;
//! * [`ks`] — the two-sample Kolmogorov–Smirnov test quantifying the
//!   CDF separations the paper's figures show;
//! * [`ci`] — Student-t confidence intervals for the mean (the error bars
//!   on every figure);
//! * [`binning`] — generic binned aggregation.
//!
//! Accuracy targets: CDF/tail values are good to ~1e-10 relative error in
//! the bulk and stay meaningful far into the tails (the paper reports
//! p-values down to `1.13e-36`; the exact binomial test reproduces that
//! range through the incomplete-beta continued fraction, which is stable
//! there).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod ci;
pub mod corr;
pub mod descriptive;
pub mod dist;
pub mod ecdf;
pub mod hypothesis;
pub mod ks;
pub mod regression;
pub mod special;

pub use binning::BinnedSeries;
pub use ci::{mean_ci, MeanCi};
pub use corr::pearson;
pub use descriptive::{mean, median, quantile, stddev, variance, Summary};
pub use dist::{Binomial, Exponential, LogNormal, Normal, Pareto, StudentT};
pub use ecdf::Ecdf;
pub use hypothesis::{binomial_test, BinomialTest, Tail};
pub use ks::{ks_two_sample, KsTest};
pub use regression::{ols, OlsFit};
