//! Hand-rolled numerics for the Opprentice reproduction.
//!
//! The original Opprentice prototype (§5) leaned on Python/R libraries for
//! its detectors — `scikit-learn`, R's `forecast::auto.arima`, wavelet and
//! SVD packages. The Rust ecosystem offers no canonical equivalents, so this
//! crate implements the required numerical machinery from scratch:
//!
//! * [`stats`] — means, medians, MAD, quantiles and Welford online moments,
//! * [`rolling`] — sliding-window order statistics (lazy sorted ring) for
//!   the allocation-free extraction hot path,
//! * [`matrix`] — a small dense matrix with linear solves,
//! * [`parallel`] — the process-wide `OPPRENTICE_THREADS` thread budget
//!   shared by every parallel site (batched extraction, forest training),
//! * [`svd`] — one-sided Jacobi singular value decomposition,
//! * [`wavelet`] — Haar multiresolution analysis with band reconstruction,
//! * [`acf`] — autocorrelation, Durbin–Levinson PACF and Yule–Walker AR fits,
//! * [`arima`] — differencing, Hannan–Rissanen ARMA estimation and AIC order
//!   selection (the paper's "estimate their best parameters from the data",
//!   §4.3.3),
//! * [`smoothing`] — EWMA and additive Holt–Winters triple exponential
//!   smoothing.
//!
//! Everything is deterministic, allocation-conscious and documented; no
//! `unsafe`, no external math dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Matrix/vector kernels read clearest with explicit index loops; the
// iterator rewrites clippy suggests obscure the row/column roles.
#![allow(clippy::needless_range_loop)]

pub mod acf;
pub mod arima;
pub mod matrix;
pub mod parallel;
pub mod rolling;
pub mod smoothing;
pub mod stats;
pub mod svd;
pub mod wavelet;
