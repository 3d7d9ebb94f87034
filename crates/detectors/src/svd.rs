//! The SVD detector [7] (Table 3: row ∈ {10..50} points, column ∈ {3,5,7}).
//!
//! Recent data is arranged into a `row × column` lag matrix whose columns
//! are consecutive segments, the newest segment last. Normal behaviour makes
//! the columns strongly correlated, so the matrix is approximately rank one;
//! the severity of the current point is its residual against the dominant
//! singular component (the "normal subspace" of [7]).
//!
//! Because a full SVD per point would be wasteful, the detector extracts
//! only the dominant component with a short power iteration on the small
//! `column × column` Gram matrix, warm-started from the previous point's
//! right singular vector. The Gram matrix itself is maintained
//! *incrementally*: sliding the window by one point shifts every lag-matrix
//! column down by one entry, which changes each Gram entry by exactly one
//! dropped product and one gained product (an O(c²) update instead of the
//! O(c²·r) rebuild), with a periodic full rebuild to re-anchor rounding
//! drift. The exact Jacobi SVD lives in `opprentice_numeric::svd` and
//! anchors this approximation in tests.
//!
//! The kernel is generic over the column count (2..=8): the Gram matrix and
//! every per-column vector are stack arrays of that width, so the O(c²)
//! loops unroll. [`SvdDetector`] picks the instance at construction.

use crate::Detector;

/// Power-iteration steps per point (warm-started, so few are needed).
const POWER_STEPS: usize = 4;

/// Slides between full Gram rebuilds from the window. The incremental
/// updates accumulate rounding drift of order `ε · |G|` per slide; the
/// amortized rebuild cost at this cadence is negligible.
const GRAM_REFRESH: usize = 64;

/// Largest supported column count.
const MAX_COLS: usize = 8;

/// The SVD reconstruction-residual detector.
#[derive(Debug, Clone)]
pub struct SvdDetector {
    rows: usize,
    cols: usize,
    kernel: Kernel,
}

/// One [`LagKernel`] instance per supported column count.
#[derive(Debug, Clone)]
enum Kernel {
    C2(LagKernel<2>),
    C3(LagKernel<3>),
    C4(LagKernel<4>),
    C5(LagKernel<5>),
    C6(LagKernel<6>),
    C7(LagKernel<7>),
    C8(LagKernel<8>),
}

impl SvdDetector {
    /// Creates the detector with a `rows × cols` lag matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows < 2`, `cols < 2` or `cols > 8`.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "lag matrix must be at least 2x2");
        assert!(
            cols <= MAX_COLS,
            "lag matrix has at most {MAX_COLS} columns, got {cols}"
        );
        let kernel = match cols {
            2 => Kernel::C2(LagKernel::new(rows)),
            3 => Kernel::C3(LagKernel::new(rows)),
            4 => Kernel::C4(LagKernel::new(rows)),
            5 => Kernel::C5(LagKernel::new(rows)),
            6 => Kernel::C6(LagKernel::new(rows)),
            7 => Kernel::C7(LagKernel::new(rows)),
            8 => Kernel::C8(LagKernel::new(rows)),
            _ => unreachable!("column count checked above"),
        };
        Self { rows, cols, kernel }
    }
}

/// The lag-matrix state and residual computation for `C` columns.
#[derive(Debug, Clone)]
struct LagKernel<const C: usize> {
    rows: usize,
    /// Ring buffer of window contents. Grows to `rows × C` during warm-up,
    /// then stays fixed: the logical window (column-major, oldest first)
    /// starts at `start` and wraps, so sliding is one overwrite instead of
    /// a memmove.
    flat: Vec<f64>,
    /// Ring offset: physical index of the logically oldest entry.
    start: usize,
    /// Warm-start for the dominant right singular vector.
    v: [f64; C],
    /// Gram matrix `AᵀA`, maintained incrementally across slides.
    gram: [[f64; C]; C],
    /// Slides since `gram` was last rebuilt from `flat`.
    gram_age: usize,
}

impl<const C: usize> LagKernel<C> {
    fn new(rows: usize) -> Self {
        Self {
            rows,
            flat: Vec::with_capacity(rows * C),
            start: 0,
            v: [1.0 / (C as f64).sqrt(); C],
            gram: [[0.0; C]; C],
            gram_age: 0,
        }
    }

    /// The window entry at logical index `k` (0 = oldest).
    #[inline]
    fn at(&self, k: usize) -> f64 {
        let cap = self.flat.len();
        let mut i = self.start + k;
        if i >= cap {
            i -= cap;
        }
        self.flat[i]
    }

    /// Feeds one present value; the residual once the window is full.
    fn observe(&mut self, v: f64) -> Option<f64> {
        if self.flat.len() < self.rows * C {
            self.flat.push(v);
            if self.flat.len() < self.rows * C {
                return None;
            }
            self.rebuild_gram();
        } else {
            self.slide(v);
        }
        Some(self.rank1_residual())
    }

    /// Rebuilds `G = AᵀA` from the window and resets the drift clock.
    fn rebuild_gram(&mut self) {
        let r = self.rows;
        for j1 in 0..C {
            for j2 in j1..C {
                let mut dot = 0.0;
                for i in 0..r {
                    dot += self.at(j1 * r + i) * self.at(j2 * r + i);
                }
                self.gram[j1][j2] = dot;
                self.gram[j2][j1] = dot;
            }
        }
        self.gram_age = 0;
    }

    /// Slides the full window by one point, updating the Gram matrix in
    /// O(c²). Dropping the oldest entry and appending `v` shifts every
    /// lag-matrix column down by one, so each Gram entry loses exactly one
    /// product and gains one:
    /// `G'[j1,j2] = G[j1,j2] − A₀(j1)·A₀(j2) + ext(j1·r+r)·ext(j2·r+r)`
    /// where `A₀(j)` is the entry leaving column `j` (logical index `j·r`)
    /// and `ext(k)` is `v` at the one-past-the-end index, the logical
    /// window entry otherwise.
    fn slide(&mut self, v: f64) {
        let r = self.rows;
        let cap = r * C;
        if self.gram_age < GRAM_REFRESH {
            // Per column j: the entry leaving (logical j·r) and the entry
            // arriving from the next column's head (logical (j+1)·r, which
            // for the last column is the incoming value itself).
            let leave: [f64; C] = std::array::from_fn(|j| self.at(j * r));
            let enter: [f64; C] =
                std::array::from_fn(|j| if j + 1 == C { v } else { self.at((j + 1) * r) });
            for j1 in 0..C {
                for j2 in j1..C {
                    let delta = enter[j1] * enter[j2] - leave[j1] * leave[j2];
                    self.gram[j1][j2] += delta;
                    if j1 != j2 {
                        self.gram[j2][j1] += delta;
                    }
                }
            }
        }
        // The oldest slot becomes the newest entry; the logical window
        // rotates by advancing `start`.
        self.flat[self.start] = v;
        self.start += 1;
        if self.start == cap {
            self.start = 0;
        }
        if self.gram_age >= GRAM_REFRESH {
            self.rebuild_gram();
        } else {
            self.gram_age += 1;
        }
    }

    /// Residual of the newest entry against the rank-1 approximation.
    /// Assumes `flat` and `gram` are current.
    fn rank1_residual(&mut self) -> f64 {
        let r = self.rows;

        // Power iteration on G, warm-started from the previous v. On a
        // stationary stretch the warm start is already the fixed point, so
        // bail out as soon as an iteration stops moving v — regime changes
        // still get the full step budget.
        for _ in 0..POWER_STEPS {
            let mut next: [f64; C] = std::array::from_fn(|j1| {
                let mut acc = 0.0;
                for j2 in 0..C {
                    acc += self.gram[j1][j2] * self.v[j2];
                }
                acc
            });
            let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-300 {
                // Degenerate (all-zero) window: fall back to uniform.
                next = [1.0 / (C as f64).sqrt(); C];
            } else {
                for x in &mut next {
                    *x /= norm;
                }
            }
            let moved = self
                .v
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            self.v = next;
            if moved < 1e-12 {
                break;
            }
        }

        // u σ = A v; the rank-1 approximation of entry (i, j) is (Av)_i v_j.
        let mut av_last = 0.0; // (A v) at the last row
        for j in 0..C {
            av_last += self.at(j * r + r - 1) * self.v[j];
        }
        let approx = av_last * self.v[C - 1];
        (self.at(C * r - 1) - approx).abs()
    }
}

impl Detector for SvdDetector {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        let v = value?;
        match &mut self.kernel {
            Kernel::C2(k) => k.observe(v),
            Kernel::C3(k) => k.observe(v),
            Kernel::C4(k) => k.observe(v),
            Kernel::C5(k) => k.observe(v),
            Kernel::C6(k) => k.observe(v),
            Kernel::C7(k) => k.observe(v),
            Kernel::C8(k) => k.observe(v),
        }
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "SVD"
    }

    fn config(&self) -> String {
        format!("row={},column={}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprentice_numeric::matrix::Matrix;
    use opprentice_numeric::svd::svd as jacobi_svd;

    fn feed(d: &mut SvdDetector, values: &[f64]) -> Vec<Option<f64>> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| d.observe(i as i64 * 60, Some(v)))
            .collect()
    }

    #[test]
    fn warm_up_is_rows_times_cols() {
        let mut d = SvdDetector::new(4, 3);
        let vals: Vec<f64> = (0..12).map(|i| (i % 4) as f64).collect();
        let out = feed(&mut d, &vals);
        assert!(out[..11].iter().all(Option::is_none));
        assert!(out[11].is_some());
    }

    #[test]
    fn periodic_signal_scores_low_spike_scores_high() {
        // Period equal to the row count: columns are identical => rank 1.
        let mut d = SvdDetector::new(8, 3);
        let periodic: Vec<f64> = (0..240).map(|i| 10.0 + ((i % 8) as f64) * 2.0).collect();
        let out = feed(&mut d, &periodic);
        let normal = out.last().unwrap().unwrap();
        assert!(normal < 1e-6, "normal residual {normal}");
        let spike_sev = d.observe(240 * 60, Some(100.0)).unwrap();
        assert!(spike_sev > 1.0, "spike residual {spike_sev}");
    }

    #[test]
    fn power_iteration_matches_jacobi_rank1_residual() {
        // Compare against the exact SVD on the same lag matrix, for every
        // supported column count.
        for cols in 2..=MAX_COLS {
            let rows = 6;
            let vals: Vec<f64> = (0..rows * cols)
                .map(|i| 10.0 + ((i % rows) as f64) + 0.1 * ((i * 7 % 13) as f64))
                .collect();
            let mut d = SvdDetector::new(rows, cols);
            let mut approx = None;
            for (i, &v) in vals.iter().enumerate() {
                approx = d.observe(i as i64, Some(v));
            }
            let approx = approx.unwrap();

            let mat = Matrix::from_rows(
                rows,
                cols,
                // Column-major window -> row-major matrix.
                (0..rows * cols)
                    .map(|k| vals[(k % cols) * rows + k / cols])
                    .collect(),
            );
            let dec = jacobi_svd(&mat);
            let rec = dec.reconstruct(1);
            let exact = (mat.get(rows - 1, cols - 1) - rec.get(rows - 1, cols - 1)).abs();
            assert!(
                (approx - exact).abs() < 0.05 * exact.max(0.1),
                "cols={cols}: power-iter {approx} vs jacobi {exact}"
            );
        }
    }

    #[test]
    fn missing_points_are_skipped_without_panic() {
        let mut d = SvdDetector::new(3, 2);
        for i in 0..20 {
            let v = if i % 5 == 0 { None } else { Some(i as f64) };
            let _ = d.observe(i * 60, v);
        }
    }

    #[test]
    fn all_zero_window_is_degenerate_but_finite() {
        let mut d = SvdDetector::new(3, 2);
        let out = feed(&mut d, &[0.0; 12]);
        let sev = out.last().unwrap().unwrap();
        assert!(sev.is_finite());
        assert!(sev.abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn tiny_matrix_rejected() {
        let _ = SvdDetector::new(1, 3);
    }

    #[test]
    #[should_panic(expected = "at most 8 columns, got 9")]
    fn wide_matrix_rejected() {
        let _ = SvdDetector::new(10, 9);
    }

    #[test]
    fn config_label_names_rows_and_columns() {
        assert_eq!(SvdDetector::new(10, 3).config(), "row=10,column=3");
        assert_eq!(SvdDetector::new(50, 8).config(), "row=50,column=8");
    }
}
