//! Config-fused family kernels: one structure-of-arrays kernel advances
//! *all* of a detector family's parameter configurations per point.
//!
//! The paper's registry (Table 3) is a grid of parameters per family —
//! 64 Holt–Winters configs share one warm-up buffer and seasonal position,
//! the 10 TSD/TSD MAD configs with the same window length share the exact
//! same per-slot history, the 15 MA/diff/EWMA lanes share one value ring.
//! Running each config as an independent [`Detector`] re-maintains all of
//! that shared state per config and leaves the per-point arithmetic as 133
//! scattered virtual calls. A [`FamilyKernel`] instead keeps the per-config
//! state in flat arrays (`level[n]`, `trend[n]`, `seasonal[pos * n + c]`)
//! and sweeps the parameter grid in a tight inner loop the compiler can
//! vectorize, while window-shaped state is stored once per *distinct*
//! window instead of once per config.
//!
//! # Bit-identity
//!
//! Fusion is a scheduling optimization, never a semantic one: every kernel
//! replays each configuration's own arithmetic in the same order as the
//! scalar detector it replaces, so severities are **bit-identical** to the
//! per-config path (`tests/fused_differential.rs` is the oracle). The two
//! ingredients:
//!
//! * *Per-config arithmetic is untouched.* Each lane evaluates the same
//!   expressions on the same values in the same order as its scalar
//!   counterpart; only the loop structure changed (config-major →
//!   point-major).
//! * *Shared state is read-only within a point.* A shared window or ring is
//!   only mutated after every lane has read it, which matches the scalar
//!   detectors exactly because every scalar detector also pushes into its
//!   (identical) private copy only after computing its severity.
//!
//! Kernels apply [`crate::clamp_severity`]'s clamp internally, mirroring
//! [`crate::registry::ConfiguredDetector::observe_clamped`] — the choke
//! point the unfused extraction paths go through.

use crate::registry::{ConfiguredDetector, DetectorSpec};
use crate::MAX_SEVERITY;
use opprentice_numeric::rolling::SortedWindow;
use opprentice_timeseries::{slot_of_day, slot_of_week};
use std::collections::VecDeque;

/// An online severity extractor for a *batch of configurations* — the
/// fused counterpart of [`Detector`](crate::Detector).
///
/// One call to [`FamilyKernel::observe`] advances every fused
/// configuration by one point and writes one clamped severity per config
/// (in fusion order) into `out`.
pub trait FamilyKernel: Send {
    /// Number of configurations this kernel advances per point.
    fn n_configs(&self) -> usize;

    /// Feeds the next point (in time order; `value` is `None` for a
    /// missing point), writing each configuration's clamped severity into
    /// `out[0..n_configs()]`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != n_configs()`.
    fn observe(&mut self, timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]);

    /// Feeds a run of consecutive points; `out` is row-major
    /// (`timestamps.len() × n_configs()`). The default is the per-point
    /// loop; overrides must stay bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree.
    fn observe_batch(
        &mut self,
        timestamps: &[i64],
        values: &[Option<f64>],
        out: &mut [Option<f64>],
    ) {
        assert_eq!(timestamps.len(), values.len(), "batch length mismatch");
        let k = self.n_configs();
        assert_eq!(out.len(), timestamps.len() * k, "batch output mismatch");
        for (i, (&ts, &v)) in timestamps.iter().zip(values).enumerate() {
            self.observe(ts, v, &mut out[i * k..(i + 1) * k]);
        }
    }

    /// A boxed deep copy; the clone's severity streams continue exactly
    /// where the original's were (the same clone-determinism contract as
    /// [`Detector::clone_box`](crate::Detector::clone_box)).
    fn clone_box(&self) -> Box<dyn FamilyKernel>;

    /// Family display name for attribution (e.g. `"Holt-Winters"`; a
    /// kernel fusing both plain and MAD variants reports the combined
    /// name, e.g. `"TSD/TSD MAD"`).
    fn family(&self) -> &'static str;
}

/// Clamp mirroring [`crate::clamp_severity`] for the fused hot loops.
#[inline]
fn clamp(s: f64) -> Option<f64> {
    Some(s.clamp(0.0, MAX_SEVERITY))
}

// --------------------------------------------------------------------------
// Scalar fallback
// --------------------------------------------------------------------------

/// Fallback kernel: runs a contiguous run of [`ConfiguredDetector`]s
/// through their boxed [`Detector`](crate::Detector)s. Used for families
/// without a fused kernel (SVD, wavelet, ARIMA, extensions) — a run is one
/// scheduling group, so state-sharing detectors (wavelet band views of one
/// filter bank) advance point-by-point in lockstep.
pub struct ScalarKernel {
    dets: Vec<ConfiguredDetector>,
}

impl ScalarKernel {
    /// Wraps a non-empty run of configurations.
    pub fn new(dets: Vec<ConfiguredDetector>) -> Self {
        assert!(!dets.is_empty(), "empty scalar run");
        Self { dets }
    }
}

impl FamilyKernel for ScalarKernel {
    fn n_configs(&self) -> usize {
        self.dets.len()
    }

    fn observe(&mut self, timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.dets.len(), "output width mismatch");
        for (det, slot) in self.dets.iter_mut().zip(out) {
            *slot = det.observe_clamped(timestamp, value);
        }
    }

    fn observe_batch(
        &mut self,
        timestamps: &[i64],
        values: &[Option<f64>],
        out: &mut [Option<f64>],
    ) {
        assert_eq!(timestamps.len(), values.len(), "batch length mismatch");
        let k = self.dets.len();
        assert_eq!(out.len(), timestamps.len() * k, "batch output mismatch");
        if k == 1 {
            // Single detector: its own (column-contiguous) batched path.
            self.dets[0].observe_batch_clamped(timestamps, values, out);
        } else {
            for (i, (&ts, &v)) in timestamps.iter().zip(values).enumerate() {
                self.observe(ts, v, &mut out[i * k..(i + 1) * k]);
            }
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(Self {
            dets: self.dets.clone(),
        })
    }

    fn family(&self) -> &'static str {
        self.dets[0].detector.name()
    }
}

// --------------------------------------------------------------------------
// Diff
// --------------------------------------------------------------------------

/// Fused diff lanes: one shared value ring (capacity = the largest lag)
/// serves every lag; lane `c`'s reference is the value `lags[c]` points
/// back.
#[derive(Debug, Clone)]
pub struct FusedDiff {
    lags: Vec<usize>,
    max_lag: usize,
    /// Raw values, missing kept as `None`, capped at `max_lag` — identical
    /// in content to the longest scalar [`crate::diff::Diff`] ring.
    ring: VecDeque<Option<f64>>,
}

impl FusedDiff {
    /// Creates lanes for the given lags (in points).
    ///
    /// # Panics
    ///
    /// Panics if `lags` is empty or contains 0.
    pub fn new(lags: Vec<usize>) -> Self {
        assert!(!lags.is_empty(), "no lags");
        assert!(lags.iter().all(|&l| l > 0), "zero lag");
        let max_lag = lags.iter().copied().max().expect("non-empty");
        Self {
            lags,
            max_lag,
            ring: VecDeque::with_capacity(max_lag),
        }
    }
}

impl FamilyKernel for FusedDiff {
    fn n_configs(&self) -> usize {
        self.lags.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.lags.len(), "output width mismatch");
        let len = self.ring.len();
        for (slot, &lag) in out.iter_mut().zip(&self.lags) {
            // Lane `c` is warm once `lag` values have been pushed; since
            // `len = min(pushes, max_lag)` and `lag <= max_lag`, that is
            // exactly `len >= lag`.
            *slot = match (value, len >= lag) {
                (Some(v), true) => match self.ring[len - lag] {
                    Some(ref_v) => clamp((v - ref_v).abs()),
                    None => None,
                },
                _ => None,
            };
        }
        self.ring.push_back(value);
        if self.ring.len() > self.max_lag {
            self.ring.pop_front();
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "diff"
    }
}

// --------------------------------------------------------------------------
// Simple MA
// --------------------------------------------------------------------------

/// Fused simple-MA lanes: one shared present-value ring (capacity = the
/// largest window) plus a running sum per lane, maintained with the exact
/// `+=` / `-=` sequence of the scalar detector so the float state matches
/// bit-for-bit.
#[derive(Debug, Clone)]
pub struct FusedSimpleMa {
    wins: Vec<usize>,
    sums: Vec<f64>,
    max_win: usize,
    ring: VecDeque<f64>,
    /// Present values seen so far (missing points don't count).
    count: usize,
}

impl FusedSimpleMa {
    /// Creates lanes for the given window lengths (in points).
    ///
    /// # Panics
    ///
    /// Panics if `wins` is empty or contains 0.
    pub fn new(wins: Vec<usize>) -> Self {
        assert!(!wins.is_empty(), "no windows");
        assert!(wins.iter().all(|&w| w > 0), "zero window");
        let max_win = wins.iter().copied().max().expect("non-empty");
        Self {
            sums: vec![0.0; wins.len()],
            wins,
            max_win,
            ring: VecDeque::with_capacity(max_win + 1),
            count: 0,
        }
    }
}

impl FamilyKernel for FusedSimpleMa {
    fn n_configs(&self) -> usize {
        self.wins.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.wins.len(), "output width mismatch");
        let Some(v) = value else {
            out.fill(None);
            return;
        };
        // Severities first: lane `c` is warm once `win` present values
        // have been seen (its scalar window is then exactly full).
        for ((slot, &win), &sum) in out.iter_mut().zip(&self.wins).zip(&self.sums) {
            *slot = if self.count >= win {
                let pred = sum / win as f64;
                clamp((v - pred).abs())
            } else {
                None
            };
        }
        // Then the push: `sum += v` and, once sliding, `sum -= evicted` —
        // the evicted value sits `win` slots behind the newest.
        self.ring.push_back(v);
        let newest = self.ring.len() - 1;
        for (c, &win) in self.wins.iter().enumerate() {
            self.sums[c] += v;
            if self.count >= win {
                self.sums[c] -= self.ring[newest - win];
            }
        }
        self.count += 1;
        if self.ring.len() > self.max_win {
            self.ring.pop_front();
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "simple MA"
    }
}

// --------------------------------------------------------------------------
// Weighted MA
// --------------------------------------------------------------------------

/// Fused weighted-MA lanes: one shared present-value ring; each lane
/// recomputes its linearly weighted prediction over the ring's last `win`
/// values, oldest→newest with weights `1..=win` — the scalar iteration
/// order, value-for-value.
#[derive(Debug, Clone)]
pub struct FusedWeightedMa {
    wins: Vec<usize>,
    max_win: usize,
    ring: VecDeque<f64>,
    count: usize,
}

impl FusedWeightedMa {
    /// Creates lanes for the given window lengths (in points).
    ///
    /// # Panics
    ///
    /// Panics if `wins` is empty or contains 0.
    pub fn new(wins: Vec<usize>) -> Self {
        assert!(!wins.is_empty(), "no windows");
        assert!(wins.iter().all(|&w| w > 0), "zero window");
        let max_win = wins.iter().copied().max().expect("non-empty");
        Self {
            wins,
            max_win,
            ring: VecDeque::with_capacity(max_win + 1),
            count: 0,
        }
    }
}

impl FamilyKernel for FusedWeightedMa {
    fn n_configs(&self) -> usize {
        self.wins.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.wins.len(), "output width mismatch");
        let Some(v) = value else {
            out.fill(None);
            return;
        };
        let len = self.ring.len();
        for (slot, &win) in out.iter_mut().zip(&self.wins) {
            *slot = if self.count >= win {
                let mut num = 0.0;
                let mut den = 0.0;
                for (i, &x) in self.ring.iter().skip(len - win).enumerate() {
                    let w = (i + 1) as f64; // oldest gets 1, newest gets win
                    num += w * x;
                    den += w;
                }
                clamp((v - num / den).abs())
            } else {
                None
            };
        }
        self.ring.push_back(v);
        self.count += 1;
        if self.ring.len() > self.max_win {
            self.ring.pop_front();
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "weighted MA"
    }
}

// --------------------------------------------------------------------------
// MA of diff
// --------------------------------------------------------------------------

/// Fused MA-of-diff lanes: one shared previous-value slot and diff ring
/// (both cleared on a gap, like every scalar lane clears at once) plus a
/// running sum per lane with the scalar `+=` / `-=` sequence.
#[derive(Debug, Clone)]
pub struct FusedMaOfDiff {
    wins: Vec<usize>,
    sums: Vec<f64>,
    max_win: usize,
    prev: Option<f64>,
    diffs: VecDeque<f64>,
    /// Diffs since the last gap.
    n_diffs: usize,
}

impl FusedMaOfDiff {
    /// Creates lanes for the given window lengths (in diffs).
    ///
    /// # Panics
    ///
    /// Panics if `wins` is empty or contains 0.
    pub fn new(wins: Vec<usize>) -> Self {
        assert!(!wins.is_empty(), "no windows");
        assert!(wins.iter().all(|&w| w > 0), "zero window");
        let max_win = wins.iter().copied().max().expect("non-empty");
        Self {
            sums: vec![0.0; wins.len()],
            wins,
            max_win,
            prev: None,
            diffs: VecDeque::with_capacity(max_win + 1),
            n_diffs: 0,
        }
    }
}

impl FamilyKernel for FusedMaOfDiff {
    fn n_configs(&self) -> usize {
        self.wins.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.wins.len(), "output width mismatch");
        let Some(v) = value else {
            // A gap breaks the "previous slot" chain in every lane at once.
            self.prev = None;
            self.diffs.clear();
            self.sums.fill(0.0);
            self.n_diffs = 0;
            out.fill(None);
            return;
        };
        if let Some(p) = self.prev {
            let d = (v - p).abs();
            self.diffs.push_back(d);
            let newest = self.diffs.len() - 1;
            for ((slot, &win), sum) in out.iter_mut().zip(&self.wins).zip(&mut self.sums) {
                // Scalar order per lane: push (sum += d), evict once the
                // lane's window overflows (sum -= oldest), then emit when
                // the window is exactly full.
                *sum += d;
                if self.n_diffs >= win {
                    *sum -= self.diffs[newest - win];
                }
                *slot = if self.n_diffs + 1 >= win {
                    clamp(*sum / win as f64)
                } else {
                    None
                };
            }
            self.n_diffs += 1;
            if self.diffs.len() > self.max_win {
                self.diffs.pop_front();
            }
        } else {
            out.fill(None);
        }
        self.prev = Some(v);
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "MA of diff"
    }
}

// --------------------------------------------------------------------------
// EWMA
// --------------------------------------------------------------------------

/// Fused EWMA lanes: flat `state[n]` swept in one vectorizable loop. All
/// lanes see the same first present value, so one shared `seen` flag
/// replaces the per-lane `Option`.
#[derive(Debug, Clone)]
pub struct FusedEwma {
    alphas: Vec<f64>,
    state: Vec<f64>,
    /// Severity scratch, kept flat so the update loop stays branch-free.
    sev: Vec<f64>,
    seen: bool,
}

impl FusedEwma {
    /// Creates lanes for the given smoothing constants.
    ///
    /// # Panics
    ///
    /// Panics if `alphas` is empty or a constant is outside `[0, 1]`.
    pub fn new(alphas: Vec<f64>) -> Self {
        assert!(!alphas.is_empty(), "no alphas");
        assert!(
            alphas.iter().all(|a| (0.0..=1.0).contains(a)),
            "alpha must be in [0, 1]"
        );
        Self {
            state: vec![0.0; alphas.len()],
            sev: vec![0.0; alphas.len()],
            alphas,
            seen: false,
        }
    }
}

impl FamilyKernel for FusedEwma {
    fn n_configs(&self) -> usize {
        self.alphas.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.alphas.len(), "output width mismatch");
        let Some(v) = value else {
            out.fill(None);
            return;
        };
        if self.seen {
            for c in 0..self.alphas.len() {
                let a = self.alphas[c];
                let prev = self.state[c];
                self.sev[c] = (v - prev).abs();
                self.state[c] = a * v + (1.0 - a) * prev;
            }
            for (slot, &s) in out.iter_mut().zip(&self.sev) {
                *slot = clamp(s);
            }
        } else {
            self.state.fill(v);
            self.seen = true;
            out.fill(None);
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "EWMA"
    }
}

// --------------------------------------------------------------------------
// TSD / TSD MAD
// --------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct TsdLane {
    /// Index of the shared per-slot window set for this lane's `weeks`.
    widx: usize,
    robust: bool,
    residuals: SortedWindow,
    spread: f64,
    since_refresh: usize,
}

/// Fused TSD/TSD MAD lanes. Lanes with the same window length (`weeks`)
/// read the *same* per-slot-of-week history — their scalar counterparts
/// keep identical private copies (the window never stores residuals, only
/// raw values) — so the plain and MAD variants of one window length share
/// one `SortedWindow` per slot. Residual windows and spread state differ
/// per lane (baselines differ) and stay private.
#[derive(Debug, Clone)]
pub struct FusedTsd {
    interval: u32,
    /// Points per week.
    ppw: usize,
    /// Number of distinct window lengths.
    n_windows: usize,
    /// `n_windows × ppw` shared histories, window-major.
    per_slot: Vec<SortedWindow>,
    lanes: Vec<TsdLane>,
}

impl FusedTsd {
    /// Creates lanes for the given `(weeks, robust)` configurations.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or a `weeks` is 0.
    pub fn new(configs: &[(usize, bool)], interval: u32) -> Self {
        assert!(!configs.is_empty(), "no configs");
        let ppw = (7 * 86_400 / i64::from(interval)) as usize;
        let mut distinct: Vec<usize> = Vec::new();
        let lanes = configs
            .iter()
            .map(|&(weeks, robust)| {
                assert!(weeks > 0, "weeks must be positive");
                let widx = match distinct.iter().position(|&w| w == weeks) {
                    Some(i) => i,
                    None => {
                        distinct.push(weeks);
                        distinct.len() - 1
                    }
                };
                TsdLane {
                    widx,
                    robust,
                    residuals: SortedWindow::new(crate::tsd::RESIDUAL_WINDOW),
                    spread: 0.0,
                    since_refresh: 0,
                }
            })
            .collect();
        let per_slot = distinct
            .iter()
            .flat_map(|&weeks| std::iter::repeat_with(move || SortedWindow::new(weeks)).take(ppw))
            .collect();
        Self {
            interval,
            ppw,
            n_windows: distinct.len(),
            per_slot,
            lanes,
        }
    }

    fn mixed_name(robusts: impl Iterator<Item = bool>) -> &'static str {
        let (mut any_plain, mut any_robust) = (false, false);
        for r in robusts {
            if r {
                any_robust = true;
            } else {
                any_plain = true;
            }
        }
        match (any_plain, any_robust) {
            (true, true) => "TSD/TSD MAD",
            (false, true) => "TSD MAD",
            _ => "TSD",
        }
    }
}

impl FamilyKernel for FusedTsd {
    fn n_configs(&self) -> usize {
        self.lanes.len()
    }

    fn observe(&mut self, timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.lanes.len(), "output width mismatch");
        let slot = slot_of_week(timestamp, self.interval);
        let Some(v) = value else {
            out.fill(None);
            return;
        };
        let ppw = self.ppw;
        for (lane, slot_out) in self.lanes.iter_mut().zip(out.iter_mut()) {
            let history = &mut self.per_slot[lane.widx * ppw + slot];
            *slot_out = if !history.is_empty() {
                let baseline = if lane.robust {
                    history.median().expect("non-empty history")
                } else {
                    history.mean().expect("non-empty history")
                };
                let residual = v - baseline;
                lane.residuals.push(residual);
                lane.since_refresh += 1;
                if lane.spread == 0.0 || lane.since_refresh >= crate::tsd::SPREAD_REFRESH {
                    let raw = if lane.robust {
                        lane.residuals.mad().unwrap_or(0.0)
                    } else {
                        lane.residuals.std_dev().unwrap_or(0.0)
                    };
                    let scale = lane.residuals.max_abs();
                    lane.spread = raw.max(1e-9 * (1.0 + scale));
                    lane.since_refresh = 0;
                }
                if lane.residuals.len() >= crate::tsd::MIN_RESIDUALS {
                    clamp(residual.abs() / lane.spread)
                } else {
                    None
                }
            } else {
                None
            };
        }
        // Push into each shared history only after every lane read it —
        // each scalar detector also pushes into its own (identical)
        // history after computing its severity.
        for w in 0..self.n_windows {
            self.per_slot[w * ppw + slot].push(v);
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        Self::mixed_name(self.lanes.iter().map(|l| l.robust))
    }
}

// --------------------------------------------------------------------------
// Historical average / historical MAD
// --------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct HistLane {
    widx: usize,
    robust: bool,
}

/// Fused historical average/MAD lanes: same sharing structure as
/// [`FusedTsd`], but slotted by time-of-day with `7 * weeks` samples per
/// slot, and entirely stateless outside the shared windows.
#[derive(Debug, Clone)]
pub struct FusedHistorical {
    interval: u32,
    /// Points per day.
    ppd: usize,
    n_windows: usize,
    /// `n_windows × ppd` shared histories, window-major.
    per_slot: Vec<SortedWindow>,
    lanes: Vec<HistLane>,
}

impl FusedHistorical {
    /// Creates lanes for the given `(weeks, robust)` configurations.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or a `weeks` is 0.
    pub fn new(configs: &[(usize, bool)], interval: u32) -> Self {
        assert!(!configs.is_empty(), "no configs");
        let ppd = (86_400 / i64::from(interval)) as usize;
        let mut distinct: Vec<usize> = Vec::new();
        let lanes = configs
            .iter()
            .map(|&(weeks, robust)| {
                assert!(weeks > 0, "weeks must be positive");
                let widx = match distinct.iter().position(|&w| w == weeks) {
                    Some(i) => i,
                    None => {
                        distinct.push(weeks);
                        distinct.len() - 1
                    }
                };
                HistLane { widx, robust }
            })
            .collect();
        let per_slot = distinct
            .iter()
            .flat_map(|&weeks| {
                std::iter::repeat_with(move || SortedWindow::new(7 * weeks)).take(ppd)
            })
            .collect();
        Self {
            interval,
            ppd,
            n_windows: distinct.len(),
            per_slot,
            lanes,
        }
    }
}

impl FamilyKernel for FusedHistorical {
    fn n_configs(&self) -> usize {
        self.lanes.len()
    }

    fn observe(&mut self, timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.lanes.len(), "output width mismatch");
        let slot = slot_of_day(timestamp, self.interval);
        let Some(v) = value else {
            out.fill(None);
            return;
        };
        let ppd = self.ppd;
        for (lane, slot_out) in self.lanes.iter().zip(out.iter_mut()) {
            let history = &mut self.per_slot[lane.widx * ppd + slot];
            *slot_out = if history.len() >= crate::historical::MIN_HISTORY {
                let (center, spread_raw) = if lane.robust {
                    (
                        history.median().expect("non-empty"),
                        history.mad().unwrap_or(0.0),
                    )
                } else {
                    (
                        history.mean().expect("non-empty"),
                        history.std_dev().unwrap_or(0.0),
                    )
                };
                let spread = spread_raw.max(1e-9 * (1.0 + center.abs()));
                clamp((v - center).abs() / spread)
            } else {
                None
            };
        }
        for w in 0..self.n_windows {
            self.per_slot[w * ppd + slot].push(v);
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        let (mut any_plain, mut any_robust) = (false, false);
        for l in &self.lanes {
            if l.robust {
                any_robust = true;
            } else {
                any_plain = true;
            }
        }
        match (any_plain, any_robust) {
            (true, true) => "historical average/MAD",
            (false, true) => "historical MAD",
            _ => "historical average",
        }
    }
}

// --------------------------------------------------------------------------
// Holt–Winters
// --------------------------------------------------------------------------

/// Fused Holt–Winters grid: the dominant kernel (64 of 133 registry
/// configs). Per-config state lives in flat `level[n]` / `trend[n]` arrays
/// and a `seasonal[pos * n + c]` layout so the per-point update sweeps the
/// whole α/β/γ grid over contiguous memory in one auto-vectorizable loop.
///
/// The warm-up buffer and seasonal position are *shared*: during warm-up
/// every scalar config buffers the same values (the missing-point fill is
/// `last_value` for all of them while no config has initialized), and
/// after initialization every config advances `pos` once per point — the
/// configs never desynchronize.
#[derive(Debug, Clone)]
pub struct FusedHoltWinters {
    season: usize,
    alphas: Vec<f64>,
    betas: Vec<f64>,
    gammas: Vec<f64>,
    /// Shared warm-up buffer (two seasons), drained at initialization.
    buffer: Vec<f64>,
    level: Vec<f64>,
    trend: Vec<f64>,
    /// `season × n` seasonal components, slot-major (`[pos * n + c]`).
    seasonal: Vec<f64>,
    pos: usize,
    warmed: bool,
    last_value: Option<f64>,
    /// Severity scratch keeping the update loop branch-free.
    sev: Vec<f64>,
}

impl FusedHoltWinters {
    /// Creates lanes for the given `(alpha, beta, gamma)` grid at the
    /// given sampling interval (the season is one day).
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty, a parameter is outside `[0, 1]`, or
    /// the interval admits fewer than 2 points per day.
    pub fn new(params: &[(f64, f64, f64)], interval: u32) -> Self {
        assert!(!params.is_empty(), "no parameters");
        let season = (86_400 / i64::from(interval)) as usize;
        assert!(season >= 2, "season_len must be at least 2");
        for &(a, b, g) in params {
            for v in [a, b, g] {
                assert!((0.0..=1.0).contains(&v), "parameter must be in [0, 1]");
            }
        }
        let n = params.len();
        Self {
            season,
            alphas: params.iter().map(|p| p.0).collect(),
            betas: params.iter().map(|p| p.1).collect(),
            gammas: params.iter().map(|p| p.2).collect(),
            buffer: Vec::new(),
            level: vec![0.0; n],
            trend: vec![0.0; n],
            seasonal: Vec::new(),
            pos: 0,
            warmed: false,
            last_value: None,
            sev: vec![0.0; n],
        }
    }

    /// Buffers one warm-up value; on the 2·season-th, initializes every
    /// lane from the shared buffer (the scalar `HoltWinters::initialize`
    /// arithmetic, broadcast).
    fn push_warmup(&mut self, x: f64) {
        self.buffer.push(x);
        if self.buffer.len() < 2 * self.season {
            return;
        }
        let m = self.season;
        let n = self.alphas.len();
        let s1 = &self.buffer[..m];
        let s2 = &self.buffer[m..2 * m];
        let mean1 = s1.iter().sum::<f64>() / m as f64;
        let mean2 = s2.iter().sum::<f64>() / m as f64;
        self.level.fill(mean2);
        self.trend.fill((mean2 - mean1) / m as f64);
        self.seasonal = vec![0.0; m * n];
        for i in 0..m {
            let s = ((s1[i] - mean1) + (s2[i] - mean2)) / 2.0;
            self.seasonal[i * n..(i + 1) * n].fill(s);
        }
        self.pos = 0;
        self.warmed = true;
        self.buffer.clear();
        self.buffer.shrink_to_fit();
    }

    /// One post-warm-up update sweep. When `x_is_fill`, each lane folds in
    /// its *own* forecast instead of `x` (the scalar missing-point
    /// self-heal) and no severities are produced.
    fn update_all(&mut self, x: f64, x_is_fill: bool) {
        let n = self.alphas.len();
        let base = self.pos * n;
        let seasonal = &mut self.seasonal[base..base + n];
        // Lockstep over six parallel lane arrays; an index keeps the
        // structure-of-arrays form the vectorizer recognizes.
        #[allow(clippy::needless_range_loop)]
        for c in 0..n {
            let a = self.alphas[c];
            let b = self.betas[c];
            let g = self.gammas[c];
            let s_old = seasonal[c];
            let level_old = self.level[c];
            let trend_old = self.trend[c];
            let forecast = level_old + trend_old + s_old;
            let x = if x_is_fill { forecast } else { x };
            let level = a * (x - s_old) + (1.0 - a) * (level_old + trend_old);
            let trend = b * (level - level_old) + (1.0 - b) * trend_old;
            seasonal[c] = g * (x - level) + (1.0 - g) * s_old;
            self.level[c] = level;
            self.trend[c] = trend;
            self.sev[c] = (x - forecast).abs();
        }
        self.pos = (self.pos + 1) % self.season;
    }
}

impl FamilyKernel for FusedHoltWinters {
    fn n_configs(&self) -> usize {
        self.alphas.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.alphas.len(), "output width mismatch");
        match value {
            Some(v) => {
                self.last_value = Some(v);
                if self.warmed {
                    self.update_all(v, false);
                    for (slot, &s) in out.iter_mut().zip(&self.sev) {
                        *slot = clamp(s);
                    }
                } else {
                    // Warm-up (including the initializing point, which the
                    // scalar smoother also answers with `None`).
                    self.push_warmup(v);
                    out.fill(None);
                }
            }
            None => {
                if self.warmed {
                    // Self-heal: every lane folds in its own forecast.
                    self.update_all(0.0, true);
                } else if let Some(f) = self.last_value {
                    // Scalar warm-up fill: `next_forecast().or(last_value)`
                    // — the same value for every lane, since no lane has
                    // initialized yet.
                    self.push_warmup(f);
                }
                out.fill(None);
            }
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "Holt-Winters"
    }
}

// --------------------------------------------------------------------------
// Planning
// --------------------------------------------------------------------------

/// A unit of extraction work: one kernel plus the feature columns it
/// produces, in kernel lane order. The extraction layer runs a unit on one
/// thread at a time; a batch's threads pull units from a shared queue.
pub struct FusedUnit {
    /// The kernel advancing this unit's configurations.
    pub kernel: Box<dyn FamilyKernel>,
    /// Output column (the configuration's `index`) of each lane.
    pub columns: Vec<usize>,
}

/// Which fused kernel (if any) a spec belongs to, plus the sampling
/// interval where state geometry depends on it. Adjacent configs with the
/// same key fuse into one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuseKey {
    Diff(u32),
    SimpleMa,
    WeightedMa,
    MaOfDiff,
    Ewma,
    Tsd(u32),
    Historical(u32),
    HoltWinters(u32),
}

fn fuse_key(spec: &DetectorSpec) -> Option<FuseKey> {
    match *spec {
        DetectorSpec::Diff { interval, .. } => Some(FuseKey::Diff(interval)),
        DetectorSpec::SimpleMa { .. } => Some(FuseKey::SimpleMa),
        DetectorSpec::WeightedMa { .. } => Some(FuseKey::WeightedMa),
        DetectorSpec::MaOfDiff { .. } => Some(FuseKey::MaOfDiff),
        DetectorSpec::Ewma { .. } => Some(FuseKey::Ewma),
        DetectorSpec::Tsd { interval, .. } => Some(FuseKey::Tsd(interval)),
        DetectorSpec::Historical { interval, .. } => Some(FuseKey::Historical(interval)),
        DetectorSpec::HoltWinters { interval, .. } => Some(FuseKey::HoltWinters(interval)),
        DetectorSpec::SimpleThreshold | DetectorSpec::Opaque => None,
    }
}

/// Builds one kernel from a run of same-key configurations.
fn build_unit(run: Vec<ConfiguredDetector>, key: Option<FuseKey>) -> FusedUnit {
    let columns: Vec<usize> = run.iter().map(|c| c.index).collect();
    let kernel: Box<dyn FamilyKernel> = match key {
        None => Box::new(ScalarKernel::new(run)),
        Some(FuseKey::Diff(interval)) => {
            let lags = run
                .iter()
                .map(|c| match c.spec {
                    DetectorSpec::Diff { lag, .. } => lag.points(interval),
                    _ => unreachable!("mixed run"),
                })
                .collect();
            Box::new(FusedDiff::new(lags))
        }
        Some(FuseKey::SimpleMa) => Box::new(FusedSimpleMa::new(spec_wins(&run))),
        Some(FuseKey::WeightedMa) => Box::new(FusedWeightedMa::new(spec_wins(&run))),
        Some(FuseKey::MaOfDiff) => Box::new(FusedMaOfDiff::new(spec_wins(&run))),
        Some(FuseKey::Ewma) => {
            let alphas = run
                .iter()
                .map(|c| match c.spec {
                    DetectorSpec::Ewma { alpha } => alpha,
                    _ => unreachable!("mixed run"),
                })
                .collect();
            Box::new(FusedEwma::new(alphas))
        }
        Some(FuseKey::Tsd(interval)) => {
            let cfgs: Vec<(usize, bool)> = run
                .iter()
                .map(|c| match c.spec {
                    DetectorSpec::Tsd { weeks, robust, .. } => (weeks, robust),
                    _ => unreachable!("mixed run"),
                })
                .collect();
            Box::new(FusedTsd::new(&cfgs, interval))
        }
        Some(FuseKey::Historical(interval)) => {
            let cfgs: Vec<(usize, bool)> = run
                .iter()
                .map(|c| match c.spec {
                    DetectorSpec::Historical { weeks, robust, .. } => (weeks, robust),
                    _ => unreachable!("mixed run"),
                })
                .collect();
            Box::new(FusedHistorical::new(&cfgs, interval))
        }
        Some(FuseKey::HoltWinters(interval)) => {
            let params: Vec<(f64, f64, f64)> = run
                .iter()
                .map(|c| match c.spec {
                    DetectorSpec::HoltWinters {
                        alpha, beta, gamma, ..
                    } => (alpha, beta, gamma),
                    _ => unreachable!("mixed run"),
                })
                .collect();
            Box::new(FusedHoltWinters::new(&params, interval))
        }
    };
    FusedUnit { kernel, columns }
}

fn spec_wins(run: &[ConfiguredDetector]) -> Vec<usize> {
    run.iter()
        .map(|c| match c.spec {
            DetectorSpec::SimpleMa { win }
            | DetectorSpec::WeightedMa { win }
            | DetectorSpec::MaOfDiff { win } => win,
            _ => unreachable!("mixed run"),
        })
        .collect()
}

/// Groups a configuration list into fused units.
///
/// Adjacent configurations with the same fusable family (and interval)
/// become one fused kernel; everything else falls back to
/// [`ScalarKernel`]s, one per scheduling group, so state-sharing
/// detectors stay in lockstep. Works on any subset/order the extraction
/// layer accepts (group members adjacent); pruned sets in registry order
/// fuse exactly like the full registry, just with fewer lanes.
///
/// The configurations must be *fresh* (unobserved): fused kernels rebuild
/// the family's state from [`DetectorSpec`], so pre-advanced detector
/// state would be discarded.
pub fn plan(configs: Vec<ConfiguredDetector>) -> Vec<FusedUnit> {
    let mut units = Vec::new();
    let mut iter = configs.into_iter().peekable();
    while let Some(first) = iter.next() {
        let key = fuse_key(&first.spec);
        let group = first.group;
        let mut run = vec![first];
        while let Some(next) = iter.peek() {
            let extend = match key {
                Some(k) => fuse_key(&next.spec) == Some(k),
                None => next.group == group,
            };
            if !extend {
                break;
            }
            run.push(iter.next().expect("peeked"));
        }
        units.push(build_unit(run, key));
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;

    /// An hourly test stream with pattern, drift, spikes and missing runs.
    fn stream(n: usize) -> Vec<(i64, Option<f64>)> {
        (0..n)
            .map(|i| {
                let ts = i as i64 * 3600;
                let v = if i % 37 == 11 || (i % 101 >= 53 && i % 101 < 56) {
                    None
                } else {
                    let base = 100.0
                        + 10.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin()
                        + 0.01 * i as f64;
                    let spike = if i % 71 == 0 { 40.0 } else { 0.0 };
                    Some(base + spike + ((i * 2_654_435_761) % 997) as f64 / 997.0)
                };
                (ts, v)
            })
            .collect()
    }

    /// Every registry unit's fused output must equal the scalar detectors'
    /// clamped severities bit-for-bit (the full-registry sweep with random
    /// chunking lives in `tests/fused_differential.rs`).
    #[test]
    fn fused_units_match_scalar_bit_for_bit() {
        let units = plan(registry(3600));
        let mut oracle = registry(3600);
        let points = stream(24 * 8);
        let mut row = vec![None; 64];
        for mut unit in units {
            let k = unit.kernel.n_configs();
            for &(ts, v) in &points {
                unit.kernel.observe(ts, v, &mut row[..k]);
                for (j, &c) in unit.columns.iter().enumerate() {
                    let expect = oracle[c].observe_clamped(ts, v);
                    assert_eq!(
                        row[j].map(f64::to_bits),
                        expect.map(f64::to_bits),
                        "{} col {c} ts {ts}",
                        oracle[c].label()
                    );
                }
            }
        }
    }

    #[test]
    fn registry_plan_fuses_the_expected_families() {
        let units = plan(registry(3600));
        let total: usize = units.iter().map(|u| u.columns.len()).sum();
        assert_eq!(total, 133);
        // Columns are a permutation of 0..133 in order.
        let cols: Vec<usize> = units.iter().flat_map(|u| u.columns.clone()).collect();
        assert_eq!(cols, (0..133).collect::<Vec<_>>());
        let sizes: Vec<(&str, usize)> = units
            .iter()
            .map(|u| (u.kernel.family(), u.columns.len()))
            .collect();
        // One fused kernel per family; TSD+MAD and historical+MAD merge.
        assert!(sizes.contains(&("diff", 3)));
        assert!(sizes.contains(&("simple MA", 5)));
        assert!(sizes.contains(&("weighted MA", 5)));
        assert!(sizes.contains(&("MA of diff", 5)));
        assert!(sizes.contains(&("EWMA", 5)));
        assert!(sizes.contains(&("TSD/TSD MAD", 10)));
        assert!(sizes.contains(&("historical average/MAD", 10)));
        assert!(sizes.contains(&("Holt-Winters", 64)));
        // SVD: 15 one-config scalar units; wavelet: 3 lockstep triples.
        assert_eq!(
            sizes.iter().filter(|s| *s == &("SVD", 1)).count(),
            15,
            "{sizes:?}"
        );
        assert_eq!(sizes.iter().filter(|s| *s == &("wavelet", 3)).count(), 3);
        assert!(sizes.contains(&("ARIMA", 1)));
        assert!(sizes.contains(&("simple threshold", 1)));
    }

    #[test]
    fn fused_kernels_clone_mid_stream() {
        let points = stream(24 * 6);
        let (head, tail) = points.split_at(points.len() / 2);
        for mut unit in plan(registry(3600)) {
            let k = unit.kernel.n_configs();
            let mut a = vec![None; k];
            let mut b = vec![None; k];
            for &(ts, v) in head {
                unit.kernel.observe(ts, v, &mut a);
            }
            let mut clone = unit.kernel.clone_box();
            for &(ts, v) in tail {
                unit.kernel.observe(ts, v, &mut a);
                clone.observe(ts, v, &mut b);
                assert_eq!(
                    a.iter().map(|s| s.map(f64::to_bits)).collect::<Vec<_>>(),
                    b.iter().map(|s| s.map(f64::to_bits)).collect::<Vec<_>>(),
                    "{} ts {ts}",
                    unit.kernel.family()
                );
            }
        }
    }

    #[test]
    fn batch_observe_matches_per_point() {
        let points = stream(24 * 5);
        let timestamps: Vec<i64> = points.iter().map(|p| p.0).collect();
        let values: Vec<Option<f64>> = points.iter().map(|p| p.1).collect();
        for unit in plan(registry(3600)) {
            let mut per_point = unit.kernel;
            let mut batched = per_point.clone_box();
            let k = per_point.n_configs();
            let mut a = vec![None; points.len() * k];
            for (i, &(ts, v)) in points.iter().enumerate() {
                per_point.observe(ts, v, &mut a[i * k..(i + 1) * k]);
            }
            let mut b = vec![None; points.len() * k];
            batched.observe_batch(&timestamps, &values, &mut b);
            assert_eq!(
                a.iter().map(|s| s.map(f64::to_bits)).collect::<Vec<_>>(),
                b.iter().map(|s| s.map(f64::to_bits)).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn pruned_subsets_still_fuse_and_match() {
        // Keep every third config (registry order): fused lanes shrink but
        // severities must not change.
        let keep: Vec<usize> = (0..133).filter(|i| i % 3 == 0).collect();
        let subset: Vec<ConfiguredDetector> = registry(3600)
            .into_iter()
            .filter(|c| keep.contains(&c.index))
            .collect();
        let mut oracle = registry(3600);
        let units = plan(subset);
        let points = stream(24 * 6);
        let mut row = vec![None; 64];
        for mut unit in units {
            let k = unit.kernel.n_configs();
            for &(ts, v) in &points {
                unit.kernel.observe(ts, v, &mut row[..k]);
                for (j, &c) in unit.columns.iter().enumerate() {
                    let expect = oracle[c].observe_clamped(ts, v);
                    assert_eq!(
                        row[j].map(f64::to_bits),
                        expect.map(f64::to_bits),
                        "col {c} ts {ts}"
                    );
                }
            }
        }
    }
}
