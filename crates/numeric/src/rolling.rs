//! Sliding-window order statistics for the extraction hot path.
//!
//! The MAD-family detectors (TSD MAD, historical MAD, wavelet) need the
//! median / MAD / max-|x| of a bounded trailing window on every point or
//! every spread refresh. Re-collecting and re-sorting the window each time
//! — what the first implementation did — costs `O(n log n)` per query and
//! one allocation per point. [`SortedWindow`] keeps the window *both* in
//! arrival order (a ring, for running-moment queries that must match the
//! arrival-order summation of [`crate::stats`]) and in sorted order (for
//! order statistics), maintained lazily: pushes go to pending lists and are
//! merged into the sorted array only when a query needs it, in
//! `O(n + k log k)` for `k` pending updates and no steady-state allocation.
//! Once the pending churn reaches the size of the sorted view, the pending
//! lists are dropped and the next order-statistic query rebuilds the view
//! from the ring, so a window that is only ever asked for moments (or
//! `max_abs`) holds `O(cap)` memory no matter how long it runs.
//!
//! Every query is **bit-identical** to the naive recompute it replaces:
//!
//! * [`SortedWindow::median`] returns exactly `stats::median(&collected)`
//!   (same middle elements, same two-middle average) — up to the sign of
//!   zero when the window mixes `-0.0` and `0.0` (they compare equal, so
//!   which representative lands on the middle index depends on merge
//!   history; the values are numerically identical and every detector use
//!   passes the median through a subtraction + `abs`, so severities are
//!   unaffected),
//! * [`SortedWindow::mad`] returns exactly `stats::mad(&collected)` — the
//!   deviations `|x − median|` over sorted data form two monotone runs
//!   (increasing leftwards from the median, and rightwards from it), so
//!   the middle deviations are found by an `O(log n)` selection over the
//!   two runs without materializing or sorting the deviation vector,
//! * [`SortedWindow::max_abs`] equals
//!   `collected.iter().map(|x| x.abs()).fold(0.0, f64::max)` — on a merged
//!   sorted view the maximum magnitude sits at one of the two ends; on a
//!   stale view the ring is scanned instead of forcing a merge,
//! * [`SortedWindow::mean`] / [`SortedWindow::std_dev`] iterate the ring in
//!   arrival order, reproducing `stats::mean` / `stats::std_dev` on the
//!   collected window term for term (float addition is order-sensitive, so
//!   sorted-order summation would *not* be bit-identical).
//!
//! `NaN` must not be pushed; the detector layer filters missing points.

use std::collections::VecDeque;

/// A bounded sliding window with O(1)/O(n) order-statistic queries.
///
/// Pushing beyond the capacity evicts the oldest value. All query methods
/// are bit-identical to collecting the window into a `Vec` (arrival order)
/// and calling the corresponding [`crate::stats`] function.
#[derive(Debug, Clone, Default)]
pub struct SortedWindow {
    cap: usize,
    /// Arrival-order view.
    ring: VecDeque<f64>,
    /// Sorted view, valid once pending updates are merged.
    sorted: Vec<f64>,
    /// Values pushed since the last merge.
    pending_add: Vec<f64>,
    /// Values evicted since the last merge.
    pending_remove: Vec<f64>,
    /// Set once the pending churn reaches the size of the sorted view: the
    /// pending lists are dropped, and the next query that needs the sorted
    /// view rebuilds it from the ring.
    rebuild: bool,
    /// Reused merge output buffer.
    merge_buf: Vec<f64>,
}

impl SortedWindow {
    /// An empty window holding at most `cap` values.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        Self {
            cap,
            ..Self::default()
        }
    }

    /// Number of values currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when the window holds no values.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The oldest value, if any.
    pub fn front(&self) -> Option<f64> {
        self.ring.front().copied()
    }

    /// Pushes a value, evicting the oldest if the window is full.
    ///
    /// `v` must not be `NaN` (order statistics are undefined on NaN; this
    /// mirrors the panic the `stats` sorts would raise).
    pub fn push(&mut self, v: f64) {
        debug_assert!(!v.is_nan(), "NaN pushed into SortedWindow");
        self.ring.push_back(v);
        let evicted = if self.ring.len() > self.cap {
            self.ring.pop_front()
        } else {
            None
        };
        if self.rebuild {
            return;
        }
        self.pending_add.push(v);
        self.pending_remove.extend(evicted);
        // As much churn as content: a rebuild from the ring beats the
        // merge, and dropping the lists keeps memory bounded for windows
        // that are never asked for an order statistic.
        if self.pending_add.len() + self.pending_remove.len() >= self.sorted.len() {
            self.pending_add.clear();
            self.pending_remove.clear();
            self.rebuild = true;
        }
    }

    /// The values in arrival order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.ring.iter().copied()
    }

    /// Arrival-order arithmetic mean; `None` when empty. Bit-identical to
    /// `stats::mean` over the collected window.
    pub fn mean(&self) -> Option<f64> {
        if self.ring.is_empty() {
            return None;
        }
        Some(self.ring.iter().sum::<f64>() / self.ring.len() as f64)
    }

    /// Arrival-order population standard deviation; `None` when empty.
    /// Bit-identical to `stats::std_dev` over the collected window.
    pub fn std_dev(&self) -> Option<f64> {
        let m = self.mean()?;
        let var = self.ring.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / self.ring.len() as f64;
        Some(var.sqrt())
    }

    /// Brings the sorted view up to date: rebuilds it from the ring, or
    /// merges the pending pushes/evictions into it.
    fn ensure_sorted(&mut self) {
        if self.rebuild {
            self.sorted.clear();
            self.sorted.extend(self.ring.iter().copied());
            self.sorted
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN in SortedWindow"));
            self.rebuild = false;
            return;
        }
        if self.is_merged() {
            return;
        }

        let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in SortedWindow");
        self.pending_add.sort_by(cmp);
        self.pending_remove.sort_by(cmp);

        // Cancel values that were pushed and evicted between queries; the
        // window is a multiset, so value-level cancellation is exact.
        {
            let (add, rem) = (&mut self.pending_add, &mut self.pending_remove);
            let (mut i, mut j, mut wi, mut wj) = (0, 0, 0, 0);
            while i < add.len() && j < rem.len() {
                if add[i] == rem[j] {
                    i += 1;
                    j += 1;
                } else if add[i] < rem[j] {
                    add[wi] = add[i];
                    wi += 1;
                    i += 1;
                } else {
                    rem[wj] = rem[j];
                    wj += 1;
                    j += 1;
                }
            }
            while i < add.len() {
                add[wi] = add[i];
                wi += 1;
                i += 1;
            }
            while j < rem.len() {
                rem[wj] = rem[j];
                wj += 1;
                j += 1;
            }
            add.truncate(wi);
            rem.truncate(wj);
        }

        // One pass: drop removed values, weave surviving additions in.
        self.merge_buf.clear();
        let (add, rem) = (&self.pending_add, &self.pending_remove);
        let (mut ai, mut ri) = (0, 0);
        for &x in &self.sorted {
            debug_assert!(ri == rem.len() || rem[ri] >= x, "unmatched eviction");
            if ri < rem.len() && rem[ri] == x {
                ri += 1;
                continue;
            }
            while ai < add.len() && add[ai] <= x {
                self.merge_buf.push(add[ai]);
                ai += 1;
            }
            self.merge_buf.push(x);
        }
        debug_assert_eq!(ri, rem.len(), "eviction of a value not in the window");
        self.merge_buf.extend_from_slice(&add[ai..]);
        std::mem::swap(&mut self.sorted, &mut self.merge_buf);
        self.pending_add.clear();
        self.pending_remove.clear();
    }

    /// `true` when the sorted view reflects every push.
    fn is_merged(&self) -> bool {
        !self.rebuild && self.pending_add.is_empty() && self.pending_remove.is_empty()
    }

    /// Median; `None` when empty. Bit-identical to `stats::median` over the
    /// collected window.
    pub fn median(&mut self) -> Option<f64> {
        if self.ring.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.sorted.len();
        Some(if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        })
    }

    /// Median absolute deviation × 1.4826 (the Gaussian-consistent scale);
    /// `None` when empty. Bit-identical to `stats::mad` over the collected
    /// window, computed allocation-free: over sorted values the deviations
    /// `|x − median|` form one run growing leftwards from the median and one
    /// growing rightwards, so the middle deviations are a selection over two
    /// sorted runs, found in `O(log n)`.
    pub fn mad(&mut self) -> Option<f64> {
        let med = self.median()?;
        let s = &self.sorted;
        let n = s.len();
        let split = s.partition_point(|&x| x < med);
        // `(x − med).abs()` on both sides, to stay bit-faithful to the
        // naive deviation vector.
        let left = |i: usize| (s[split - 1 - i] - med).abs();
        let right = |j: usize| (s[split + j] - med).abs();
        let (dev_lo, dev_hi) = select_pair(left, split, right, n - split, (n - 1) / 2);
        let raw = if n % 2 == 1 {
            dev_lo
        } else {
            (dev_lo + dev_hi.expect("even window has two middles")) / 2.0
        };
        Some(raw * 1.4826)
    }

    /// Maximum magnitude, 0.0 when empty. Bit-identical to
    /// `window.iter().map(|x| x.abs()).fold(0.0, f64::max)`. Reads the ends
    /// of a merged sorted view; scans the ring rather than merging a stale
    /// one.
    pub fn max_abs(&self) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        if !self.is_merged() {
            return self.ring.iter().map(|x| x.abs()).fold(0.0, f64::max);
        }
        let first = self.sorted[0].abs();
        let last = self.sorted[self.sorted.len() - 1].abs();
        first.max(last)
    }
}

/// The `k`-th smallest (0-based) element of the union of two
/// non-decreasing runs `a(0..m)` and `b(0..p)`, and the element after it
/// (`None` when `k` is the last). Binary search on how many of the `k + 1`
/// smallest come from `a`; `O(log min(m, p))` probes of each run.
fn select_pair(
    a: impl Fn(usize) -> f64,
    m: usize,
    b: impl Fn(usize) -> f64,
    p: usize,
    k: usize,
) -> (f64, Option<f64>) {
    debug_assert!(k < m + p, "selection past the end");
    let t = k + 1;
    // Take `i` from `a` and `t − i` from `b`; the split is right once no
    // taken `b` exceeds the first untaken `a` and vice versa.
    let (mut lo, mut hi) = (t.saturating_sub(p), t.min(m));
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        if b(t - i - 1) > a(i) {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    let (i, j) = (lo, t - lo);
    let kth = match (i > 0, j > 0) {
        (true, true) => a(i - 1).max(b(j - 1)),
        (true, false) => a(i - 1),
        (false, true) => b(j - 1),
        (false, false) => unreachable!("t >= 1 elements taken"),
    };
    let next = match (i < m, j < p) {
        (true, true) => Some(a(i).min(b(j))),
        (true, false) => Some(a(i)),
        (false, true) => Some(b(j)),
        (false, false) => None,
    };
    (kth, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    /// Deterministic xorshift values in a modest range, with duplicates.
    fn pseudo_stream(n: usize) -> Vec<f64> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Quantize so exact duplicates occur regularly.
                ((state % 2000) as f64 - 1000.0) / 8.0
            })
            .collect()
    }

    fn collected(w: &SortedWindow) -> Vec<f64> {
        w.iter().collect()
    }

    /// Checks every query against its `stats` counterpart on the collected
    /// window. `max_abs` runs first, on the view as the pushes left it
    /// (stale after any push), and again once the order-statistic queries
    /// have merged it. With `signed_zeros`, the median is compared after
    /// `+ 0.0`: the window may legitimately hold the other zero
    /// representative on its middle index (see the module docs).
    fn assert_matches_stats(w: &mut SortedWindow, signed_zeros: bool, ctx: &str) {
        let xs = collected(w);
        assert_eq!(w.len(), xs.len());
        let naive_max_abs = xs.iter().map(|x| x.abs()).fold(0.0, f64::max);
        assert_eq!(
            w.max_abs().to_bits(),
            naive_max_abs.to_bits(),
            "stale max_abs {ctx}"
        );
        let zero_norm = |m: Option<f64>| m.map(|m| if signed_zeros { m + 0.0 } else { m });
        assert_eq!(
            zero_norm(w.median()).map(f64::to_bits),
            zero_norm(stats::median(&xs)).map(f64::to_bits),
            "median {ctx}"
        );
        assert_eq!(
            w.mad().map(f64::to_bits),
            stats::mad(&xs).map(f64::to_bits),
            "mad {ctx}"
        );
        assert_eq!(
            w.mean().map(f64::to_bits),
            stats::mean(&xs).map(f64::to_bits),
            "mean {ctx}"
        );
        assert_eq!(
            w.std_dev().map(f64::to_bits),
            stats::std_dev(&xs).map(f64::to_bits),
            "std_dev {ctx}"
        );
        assert_eq!(
            w.max_abs().to_bits(),
            naive_max_abs.to_bits(),
            "merged max_abs {ctx}"
        );
    }

    #[test]
    fn matches_stats_functions_bit_for_bit_under_churn() {
        for cap in [1usize, 2, 3, 7, 64] {
            let mut w = SortedWindow::new(cap);
            for (i, v) in pseudo_stream(400).into_iter().enumerate() {
                w.push(v);
                // Query at irregular strides so pushes batch up between
                // merges (the lazy path) and also back-to-back (k = 1).
                if i % 5 == 0 || i % 7 == 0 {
                    assert_matches_stats(&mut w, false, &format!("cap={cap} i={i}"));
                }
            }
        }
        // The detectors' spread windows: 2016 values refreshed every 64
        // pushes, over odd and even window lengths (warm-up lengths
        // `off + 1 + 64k`, then the cap), with exact duplicates and both
        // zero representatives in the stream.
        let stream: Vec<f64> = pseudo_stream(6000)
            .into_iter()
            .enumerate()
            .map(|(i, v)| match i % 13 {
                0 => 0.0,
                6 => -0.0,
                _ => v,
            })
            .collect();
        for cap in [2015usize, 2016] {
            for off in [0usize, 1] {
                let mut w = SortedWindow::new(cap);
                for (i, &v) in stream.iter().enumerate() {
                    w.push(v);
                    if i % 64 == off {
                        assert_matches_stats(&mut w, true, &format!("cap={cap} off={off} i={i}"));
                    }
                }
            }
        }
    }

    #[test]
    fn moment_only_windows_stay_bounded() {
        // Windows asked only for moments never merge; their pending lists
        // must not grow with the number of pushes.
        let mut w = SortedWindow::new(5);
        let stream = pseudo_stream(100_000);
        for (i, &v) in stream.iter().enumerate() {
            w.push(v);
            let _ = (w.mean(), w.std_dev());
            if i == 50_000 {
                // One merge midway: the sorted view is now full-size.
                let _ = w.median();
            }
            assert!(w.ring.len() <= 5);
            assert!(w.sorted.len() <= 5);
            assert!(
                w.pending_add.len() + w.pending_remove.len() <= 5,
                "pending at i={i}"
            );
        }
        assert!(w.pending_add.capacity() <= 16 && w.pending_remove.capacity() <= 16);
        // The dropped churn is recovered from the ring on the next query.
        let xs = collected(&w);
        assert_eq!(w.median(), stats::median(&xs));
        assert_eq!(w.mad(), stats::mad(&xs));
    }

    #[test]
    fn eviction_keeps_only_the_newest_cap_values() {
        let mut w = SortedWindow::new(3);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(v);
        }
        assert_eq!(collected(&w), vec![3.0, 4.0, 5.0]);
        assert_eq!(w.front(), Some(3.0));
        assert_eq!(w.median(), Some(4.0));
    }

    #[test]
    fn duplicate_values_cancel_correctly() {
        // Push/evict the same value repeatedly between queries: the
        // pending-cancellation path must keep multiset counts right.
        let mut w = SortedWindow::new(4);
        for _ in 0..3 {
            w.push(7.0);
        }
        w.push(1.0);
        assert_eq!(w.median(), Some(7.0));
        for _ in 0..4 {
            w.push(7.0); // evicts the three 7.0s and the 1.0
        }
        assert_eq!(w.median(), Some(7.0));
        assert_eq!(w.mad(), Some(0.0));
        w.push(-9.0);
        w.push(-9.0);
        assert_eq!(collected(&w), vec![7.0, 7.0, -9.0, -9.0]);
        assert_eq!(w.median(), Some((-9.0 + 7.0) / 2.0));
        assert_eq!(w.max_abs(), 9.0);
    }

    #[test]
    fn empty_window_queries() {
        let mut w = SortedWindow::new(5);
        assert!(w.is_empty());
        assert_eq!(w.median(), None);
        assert_eq!(w.mad(), None);
        assert_eq!(w.mean(), None);
        assert_eq!(w.std_dev(), None);
        assert_eq!(w.max_abs(), 0.0);
        assert_eq!(w.front(), None);
    }

    #[test]
    fn capacity_one_window() {
        let mut w = SortedWindow::new(1);
        w.push(5.0);
        w.push(-3.0);
        assert_eq!(w.len(), 1);
        assert_eq!(w.median(), Some(-3.0));
        assert_eq!(w.mad(), Some(0.0));
        assert_eq!(w.max_abs(), 3.0);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = SortedWindow::new(8);
        for v in pseudo_stream(20) {
            a.push(v);
        }
        let _ = a.median(); // force a merge so clone copies a mixed state
        let mut b = a.clone();
        let before = a.median();
        b.push(1e6);
        assert_eq!(a.median(), before);
        assert_ne!(b.max_abs(), a.max_abs());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SortedWindow::new(0);
    }
}
