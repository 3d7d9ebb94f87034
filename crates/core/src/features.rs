//! Detectors as feature extractors (§4.3).
//!
//! Every detector configuration is run over the KPI in parallel; each emits
//! one severity per point, forming the feature matrix ("the anomaly
//! severities measured by different detectors can naturally serve as the
//! features", §1). Warm-up and missing-value slots hold 0 in the matrix —
//! "no anomaly evidence" — and points whose *value* is missing are flagged
//! unusable so training and evaluation skip them entirely (§4.3.2).
//!
//! # Execution model
//!
//! The configurations are grouped into *fused units*
//! ([`opprentice_detectors::fused::plan`]): one structure-of-arrays kernel
//! per detector family that advances all of the family's parameter
//! configurations per point (bit-identical to the per-config scalar path),
//! plus one scalar unit per SVD, wavelet or ARIMA scheduling group. A
//! batch is split across threads that live for that batch only: each
//! thread pulls the next unit from a shared queue and runs it over the
//! whole batch, so one slow unit (ARIMA, a TSD window set) occupies one
//! thread while the others drain the rest — no cost model. Every unit's
//! state advances sequentially wherever it runs, so the thread count and
//! which thread ran which unit never change a single output bit. The
//! thread count honours the process-wide `OPPRENTICE_THREADS` knob
//! ([`opprentice_numeric::parallel::configured_threads`]).

use opprentice_detectors::fused::{plan, FusedUnit};
use opprentice_detectors::registry;
use opprentice_detectors::registry::ConfiguredDetector;
use opprentice_learn::Dataset;
use opprentice_numeric::parallel::configured_threads;
use opprentice_timeseries::{Labels, TimeSeries};
use std::sync::Mutex;
use std::time::Instant;

/// The per-point severities of every detector configuration.
#[derive(Debug, Clone)]
pub struct FeatureMatrix {
    n_features: usize,
    /// Row-major severities; 0.0 where a detector had no verdict.
    data: Vec<f64>,
    /// Whether the point's value was present (usable for train/test).
    usable: Vec<bool>,
    /// Configuration labels, by column.
    feature_labels: Vec<String>,
}

impl FeatureMatrix {
    /// Creates an empty matrix for incremental (online) extraction.
    pub fn new(feature_labels: Vec<String>) -> Self {
        assert!(!feature_labels.is_empty(), "need at least one feature");
        Self {
            n_features: feature_labels.len(),
            data: Vec::new(),
            usable: Vec::new(),
            feature_labels,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.usable.len()
    }

    /// `true` when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.usable.is_empty()
    }

    /// Number of feature columns (133 for the full registry).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The severity row of point `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Whether point `i` is usable (its value was present).
    pub fn usable(&self, i: usize) -> bool {
        self.usable[i]
    }

    /// Configuration labels by column.
    pub fn feature_labels(&self) -> &[String] {
        &self.feature_labels
    }

    /// Appends one point's severities (`None` → 0.0).
    pub fn push_row(&mut self, severities: &[Option<f64>], usable: bool) {
        assert_eq!(severities.len(), self.n_features, "feature count mismatch");
        self.data
            .extend(severities.iter().map(|s| s.unwrap_or(0.0)));
        self.usable.push(usable);
    }

    /// Severity column `c` as optional values (`None` where the detector had
    /// no verdict *or* the point is unusable) — the per-configuration score
    /// stream used to evaluate basic detectors and static combiners.
    pub fn column_scores(&self, c: usize) -> Vec<Option<f64>> {
        (0..self.len())
            .map(|i| {
                if !self.usable[i] {
                    return None;
                }
                let v = self.row(i)[c];
                // 0.0 encodes "no verdict"; report it as a zero severity —
                // detectors emit genuine zeros too, and both mean "nothing
                // anomalous here" for scoring purposes.
                Some(v)
            })
            .collect()
    }

    /// Builds a training [`Dataset`] from the usable points of `range`,
    /// returning the dataset and the original point index of each row.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is shorter than `range.end`.
    pub fn dataset(&self, labels: &Labels, range: std::ops::Range<usize>) -> (Dataset, Vec<usize>) {
        assert!(labels.len() >= range.end, "labels do not cover the range");
        let mut ds = Dataset::new(self.n_features);
        let mut origin = Vec::new();
        for i in range {
            if self.usable[i] {
                ds.push(self.row(i), labels.is_anomaly(i));
                origin.push(i);
            }
        }
        (ds, origin)
    }
}

impl FeatureMatrix {
    /// Per-feature scale factors: a high quantile of each configuration's
    /// severities over this matrix's points. Dividing severities by these
    /// makes features comparable across KPIs of different magnitudes — the
    /// normalization §6 prescribes for "detection across the same types of
    /// KPIs" (see the `cross_kpi_transfer` example).
    pub fn feature_scales(&self, quantile: f64) -> Vec<f64> {
        assert!((0.0..=1.0).contains(&quantile), "quantile out of range");
        (0..self.n_features)
            .map(|c| {
                let mut xs: Vec<f64> = (0..self.len())
                    .filter(|&i| self.usable[i])
                    .map(|i| self.row(i)[c])
                    .collect();
                if xs.is_empty() {
                    return 1.0;
                }
                // Only the one order statistic is needed, so an O(n)
                // selection beats sorting the whole column.
                let idx = ((xs.len() - 1) as f64 * quantile) as usize;
                let (_, q, _) = xs.select_nth_unstable_by(idx, |a, b| {
                    a.partial_cmp(b).expect("finite severities")
                });
                let q = *q;
                if q > 0.0 {
                    q
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// A copy of this matrix with every column divided by the given scale —
    /// pair with [`FeatureMatrix::feature_scales`] from either the same or
    /// a sibling KPI.
    ///
    /// # Panics
    ///
    /// Panics if `scales.len() != n_features` or a scale is not positive.
    pub fn scaled_by(&self, scales: &[f64]) -> FeatureMatrix {
        assert_eq!(scales.len(), self.n_features, "scale count mismatch");
        assert!(scales.iter().all(|s| *s > 0.0), "scales must be positive");
        let mut out = self.clone();
        for (i, v) in out.data.iter_mut().enumerate() {
            *v /= scales[i % self.n_features];
        }
        out
    }
}

/// Runs every given configuration over the whole series and assembles the
/// feature matrix, using the fused kernels and per-batch threads (the
/// offline face of [`OnlineExtractor`]; outputs are bit-identical to
/// streaming extraction).
///
/// Columns are written at each configuration's `index`, so `configs` must
/// carry dense indices `0..configs.len()` (the registry's natural shape)
/// and must be freshly built (unobserved).
pub fn extract_with(configs: Vec<ConfiguredDetector>, series: &TimeSeries) -> FeatureMatrix {
    let mut extractor = OnlineExtractor::with_configs(configs);
    let mut matrix = FeatureMatrix::new(extractor.labels());
    let timestamps: Vec<i64> = series.iter().map(|(ts, _)| ts).collect();
    let values: Vec<Option<f64>> = series.iter().map(|(_, v)| v).collect();
    let m = extractor.n_features();
    let mut start = 0;
    while start < timestamps.len() {
        let end = (start + OFFLINE_CHUNK).min(timestamps.len());
        let rows = extractor.observe_batch(&timestamps[start..end], &values[start..end]);
        for (i, point) in (start..end).enumerate() {
            matrix.push_row(&rows[i * m..(i + 1) * m], !series.is_missing(point));
        }
        start = end;
    }
    matrix
}

/// Chunk size for offline extraction — large enough to amortize the
/// per-batch thread start, small enough to keep every unit's block in
/// cache.
const OFFLINE_CHUNK: usize = 512;

/// Runs the full Table 3 registry (133 configurations) over the series.
pub fn extract_features(series: &TimeSeries) -> FeatureMatrix {
    extract_with(registry(series.interval()), series)
}

/// Batches below this size are extracted inline — starting threads costs
/// more than it buys on a handful of points.
const MIN_PARALLEL_BATCH: usize = 4;

/// One fused kernel plus its per-batch output and its timing.
struct Unit {
    inner: FusedUnit,
    /// The current batch's output, row-major (`out[i * k + j]` for lane
    /// `j` of point `i`, `k` lanes).
    out: Vec<Option<f64>>,
    /// Kernel nanoseconds over `points` batched points.
    nanos: u64,
    points: u64,
}

impl Unit {
    /// Runs the kernel over one batch into `out`, already sized for it.
    /// The unit's state advances sequentially whichever thread runs it, so
    /// the output is bit-identical to streaming.
    fn run(&mut self, timestamps: &[i64], values: &[Option<f64>]) {
        let t0 = Instant::now();
        self.inner
            .kernel
            .observe_batch(timestamps, values, &mut self.out);
        self.nanos += t0.elapsed().as_nanos() as u64;
        self.points += timestamps.len() as u64;
    }
}

/// Measured extraction cost of one detector family, aggregated over all of
/// its fused units (see [`OnlineExtractor::family_stats`]).
#[derive(Debug, Clone)]
pub struct FamilyStat {
    /// Family display name (e.g. `"Holt-Winters"`, `"TSD/TSD MAD"`).
    pub family: &'static str,
    /// Configurations the family contributes.
    pub configs: usize,
    /// Points extracted through the batched path.
    pub points: u64,
    /// Total kernel nanoseconds across the family's units.
    pub nanos: u64,
}

/// An online, stateful feature extractor: feed one point (or one batch of
/// consecutive points), get severity rows. This is the deployment path
/// (the offline [`extract_features`] is the evaluation path; all paths
/// produce bit-identical severities).
///
/// Internally the configurations run as fused family kernels
/// ([`opprentice_detectors::fused`]). [`OnlineExtractor::observe_batch`]
/// spreads the units over threads that live for one batch; per-unit state
/// always advances sequentially, so batched, streaming and offline
/// extraction cannot diverge.
pub struct OnlineExtractor {
    units: Vec<Unit>,
    labels: Vec<String>,
    n_features: usize,
    /// Threads a batch is split across (the caller's included).
    threads: usize,
    /// Single-point output row, by feature index.
    row: Vec<Option<f64>>,
    /// Widest unit's lane count — single-point scatter scratch.
    scratch: Vec<Option<f64>>,
    /// Batched output, row-major (`batch_len × n_features`).
    batch: Vec<Option<f64>>,
}

impl OnlineExtractor {
    /// Creates the extractor with the full registry for `interval`.
    pub fn new(interval: u32) -> Self {
        Self::with_configs(registry(interval))
    }

    /// Creates the extractor over an explicit configuration set — e.g. a
    /// pruned feature set from `opprentice_learn::feature_select`, or a
    /// sibling KPI's registry for cross-KPI transfer.
    ///
    /// Column `c` of the output is `configs[c]`; each configuration's
    /// `index` is rewritten to its column so rows and labels always line
    /// up, whatever subset or order the caller picked. The configurations
    /// must be freshly built (unobserved): fused kernels reconstruct each
    /// family's state from its [`opprentice_detectors::registry::DetectorSpec`],
    /// so pre-advanced detector state would be discarded.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, or if members of a scheduling group
    /// are not adjacent (state-sharing detectors must stay in lockstep;
    /// keep registry order when pruning).
    pub fn with_configs(mut configs: Vec<ConfiguredDetector>) -> Self {
        assert!(!configs.is_empty(), "need at least one configuration");
        // Group members must be adjacent: a group id may not reappear
        // after a different one intervened.
        {
            let mut seen_after_switch: Vec<usize> = Vec::new();
            let mut current = None;
            for c in &configs {
                if current != Some(c.group) {
                    assert!(
                        !seen_after_switch.contains(&c.group),
                        "scheduling group {} split by reordering",
                        c.group
                    );
                    if let Some(prev) = current {
                        seen_after_switch.push(prev);
                    }
                    current = Some(c.group);
                }
            }
        }
        let labels: Vec<String> = configs.iter().map(ConfiguredDetector::label).collect();
        let m = configs.len();
        for (column, cfg) in configs.iter_mut().enumerate() {
            cfg.index = column;
        }

        let units: Vec<Unit> = plan(configs)
            .into_iter()
            .map(|inner| Unit {
                inner,
                out: Vec::new(),
                nanos: 0,
                points: 0,
            })
            .collect();
        let scratch_width = units
            .iter()
            .map(|u| u.inner.columns.len())
            .max()
            .expect("non-empty plan");
        let threads = configured_threads().min(units.len());

        Self {
            units,
            labels,
            n_features: m,
            threads,
            row: vec![None; m],
            scratch: vec![None; scratch_width],
            batch: Vec::new(),
        }
    }

    /// Configuration labels, by column.
    pub fn labels(&self) -> Vec<String> {
        self.labels.clone()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of threads a batch is split across (the caller's included).
    pub fn n_shards(&self) -> usize {
        self.threads
    }

    /// Measured per-family extraction cost (batched path only), aggregated
    /// across each family's fused units and sorted by family name. Powers
    /// the serving benchmark's attribution and the STATUS breakdown.
    pub fn family_stats(&self) -> Vec<FamilyStat> {
        let mut stats: Vec<FamilyStat> = Vec::new();
        for unit in &self.units {
            let family = unit.inner.kernel.family();
            match stats.iter_mut().find(|s| s.family == family) {
                // Every unit sees every batched point, so a family's
                // point count is any one unit's.
                Some(s) => {
                    s.configs += unit.inner.columns.len();
                    s.nanos += unit.nanos;
                }
                None => stats.push(FamilyStat {
                    family,
                    configs: unit.inner.columns.len(),
                    points: unit.points,
                    nanos: unit.nanos,
                }),
            }
        }
        stats.sort_by_key(|s| s.family);
        stats
    }

    /// Feeds the next point to every detector, returning the severity row.
    pub fn observe(&mut self, timestamp: i64, value: Option<f64>) -> &[Option<f64>] {
        for unit in &mut self.units {
            let k = unit.inner.columns.len();
            unit.inner
                .kernel
                .observe(timestamp, value, &mut self.scratch[..k]);
            for (j, &c) in unit.inner.columns.iter().enumerate() {
                self.row[c] = self.scratch[j];
            }
        }
        &self.row
    }

    /// Feeds a run of consecutive points to every detector, returning the
    /// severity rows row-major (`values.len() × n_features`). Severities
    /// are bit-identical to calling [`OnlineExtractor::observe`] per point.
    ///
    /// Batches of 4 points or more (`MIN_PARALLEL_BATCH`) are split across
    /// [`OnlineExtractor::n_shards`] threads: the caller plus scoped
    /// workers that live for this batch only. Each thread pulls the next
    /// unit from a shared queue and runs it over the whole batch, so the
    /// units balance themselves without a cost model.
    ///
    /// # Panics
    ///
    /// Panics if `timestamps` and `values` lengths differ, or if a
    /// detector panics (on whichever thread ran it); the extractor must
    /// then be discarded.
    pub fn observe_batch(&mut self, timestamps: &[i64], values: &[Option<f64>]) -> &[Option<f64>] {
        assert_eq!(timestamps.len(), values.len(), "batch length mismatch");
        let n = timestamps.len();
        let m = self.n_features;
        self.batch.clear();
        self.batch.resize(n * m, None);
        if n == 0 {
            return &self.batch;
        }

        // Output blocks are sized on the caller's thread, so they live in
        // the session thread's allocator arena rather than a short-lived
        // worker's. On `kpibench` backfill (2-vCPU VM) this held peak RSS
        // at ~83 MB in 11 of 12 runs; sized on the workers it read 83 or
        // 109 MB from run to run.
        for unit in &mut self.units {
            unit.out.clear();
            unit.out.resize(unit.inner.columns.len() * n, None);
        }
        if n < MIN_PARALLEL_BATCH || self.threads < 2 {
            for unit in &mut self.units {
                unit.run(timestamps, values);
            }
        } else {
            let queue = Mutex::new(self.units.iter_mut());
            let work = || loop {
                // The guard drops at the end of this statement, so a
                // panicking kernel never poisons the queue.
                let next = queue.lock().expect("unit queue poisoned").next();
                match next {
                    Some(unit) => unit.run(timestamps, values),
                    None => return,
                }
            };
            // A worker's panic is re-raised here once every thread is
            // joined.
            std::thread::scope(|s| {
                for _ in 1..self.threads {
                    s.spawn(work);
                }
                work();
            });
        }

        for unit in &self.units {
            let k = unit.inner.columns.len();
            for (i, row) in self.batch.chunks_exact_mut(m).enumerate() {
                for (j, &c) in unit.inner.columns.iter().enumerate() {
                    row[c] = unit.out[i * k + j];
                }
            }
        }
        &self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_series(n: usize) -> TimeSeries {
        let vals: Vec<f64> = (0..n)
            .map(|i| {
                if i == 170 {
                    f64::NAN
                } else {
                    100.0 + 10.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin()
                }
            })
            .collect();
        TimeSeries::from_values(0, 3600, vals)
    }

    #[test]
    fn matrix_shape_matches_series_and_registry() {
        let s = toy_series(24 * 9);
        let m = extract_features(&s);
        assert_eq!(m.len(), s.len());
        assert_eq!(m.n_features(), 133);
        assert_eq!(m.feature_labels().len(), 133);
    }

    #[test]
    fn missing_points_are_unusable() {
        let s = toy_series(200);
        let m = extract_features(&s);
        assert!(!m.usable(170));
        assert!(m.usable(0));
    }

    #[test]
    fn severities_are_finite_and_nonnegative() {
        let s = toy_series(24 * 9);
        let m = extract_features(&s);
        for i in 0..m.len() {
            for &v in m.row(i) {
                assert!(v.is_finite() && v >= 0.0);
            }
        }
    }

    #[test]
    fn dataset_skips_unusable_points() {
        let s = toy_series(200);
        let m = extract_features(&s);
        let labels = Labels::all_normal(s.len());
        let (ds, origin) = m.dataset(&labels, 150..200);
        assert_eq!(ds.len(), 49); // 50 minus the missing point at 170
        assert!(!origin.contains(&170));
        assert_eq!(origin.len(), ds.len());
    }

    #[test]
    fn online_extractor_matches_offline_extraction() {
        let s = toy_series(24 * 8);
        let offline = extract_features(&s);
        let mut online = OnlineExtractor::new(s.interval());
        for (i, (ts, v)) in s.iter().enumerate() {
            let row = online.observe(ts, v);
            let expected = offline.row(i);
            for (c, r) in row.iter().enumerate() {
                assert_eq!(r.unwrap_or(0.0), expected[c], "point {i} feature {c}");
            }
        }
    }

    #[test]
    fn batched_extraction_matches_streaming_across_uneven_chunks() {
        let s = toy_series(24 * 8);
        let timestamps: Vec<i64> = s.iter().map(|(ts, _)| ts).collect();
        let values: Vec<Option<f64>> = s.iter().map(|(_, v)| v).collect();
        let mut streaming = OnlineExtractor::new(s.interval());
        let mut batched = OnlineExtractor::new(s.interval());
        let m = batched.n_features();
        // Uneven chunks: one point (inline path), then 5 to 41 points
        // (split across threads).
        let mut start = 0;
        let mut chunk = 1;
        while start < timestamps.len() {
            let end = (start + chunk).min(timestamps.len());
            let rows = batched
                .observe_batch(&timestamps[start..end], &values[start..end])
                .to_vec();
            for (i, point) in (start..end).enumerate() {
                let row = streaming.observe(timestamps[point], values[point]);
                for c in 0..m {
                    assert_eq!(
                        row[c].map(f64::to_bits),
                        rows[i * m + c].map(f64::to_bits),
                        "point {point} feature {c}"
                    );
                }
            }
            start = end;
            chunk = chunk % 37 + 5;
        }
    }

    /// A detector that panics once it has seen `fuse` points.
    #[derive(Clone)]
    struct Tripwire {
        seen: usize,
        fuse: usize,
    }

    impl opprentice_detectors::Detector for Tripwire {
        fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
            self.seen += 1;
            assert!(self.seen < self.fuse, "tripwire detector fired");
            value
        }

        fn clone_box(&self) -> Box<dyn opprentice_detectors::Detector> {
            Box::new(self.clone())
        }

        fn name(&self) -> &'static str {
            "tripwire"
        }

        fn config(&self) -> String {
            format!("fuse={}", self.fuse)
        }
    }

    #[test]
    fn a_panicking_detector_panics_the_batch_caller_instead_of_hanging() {
        let mut configs = registry(3600);
        let group = configs.iter().map(|c| c.group).max().unwrap() + 1;
        configs.push(ConfiguredDetector {
            index: configs.len(),
            group,
            spec: opprentice_detectors::registry::DetectorSpec::Opaque,
            detector: Box::new(Tripwire { seen: 0, fuse: 40 }),
        });
        let mut ex = OnlineExtractor::with_configs(configs);
        let timestamps: Vec<i64> = (0..64).map(|i| i * 3600).collect();
        let values = vec![Some(1.0); 64];
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ex.observe_batch(&timestamps, &values).len()
        }));
        assert!(outcome.is_err(), "the batch must fail, not return");
    }

    #[test]
    fn family_stats_cover_all_configs() {
        let s = toy_series(24 * 4);
        let timestamps: Vec<i64> = s.iter().map(|(ts, _)| ts).collect();
        let values: Vec<Option<f64>> = s.iter().map(|(_, v)| v).collect();
        let mut ex = OnlineExtractor::new(s.interval());
        ex.observe_batch(&timestamps, &values);
        let stats = ex.family_stats();
        let configs: usize = stats.iter().map(|f| f.configs).sum();
        assert_eq!(configs, 133);
        assert!(stats.iter().all(|f| f.points == timestamps.len() as u64));
        // Families are aggregated: far fewer entries than units.
        assert!(stats.len() <= 14, "{stats:?}");
    }

    #[test]
    fn feature_scales_and_scaling() {
        let s = toy_series(200);
        let m = extract_features(&s);
        let scales = m.feature_scales(0.99);
        assert_eq!(scales.len(), 133);
        assert!(scales.iter().all(|&x| x > 0.0));
        let scaled = m.scaled_by(&scales);
        // After scaling by the q99, almost all severities sit in [0, ~1].
        let mut over = 0usize;
        let mut total = 0usize;
        for i in 0..scaled.len() {
            for &v in scaled.row(i) {
                total += 1;
                if v > 1.0 + 1e-9 {
                    over += 1;
                }
            }
        }
        assert!(
            (over as f64) < 0.03 * total as f64,
            "{over}/{total} above 1"
        );
    }

    #[test]
    #[should_panic(expected = "scale count mismatch")]
    fn scaled_by_checks_length() {
        let s = toy_series(50);
        let m = extract_features(&s);
        let _ = m.scaled_by(&[1.0]);
    }

    #[test]
    fn column_scores_align_with_rows() {
        let s = toy_series(100);
        let m = extract_features(&s);
        let col = m.column_scores(0); // simple threshold: severity = value
        assert_eq!(col.len(), 100);
        for (i, c) in col.iter().enumerate() {
            if m.usable(i) {
                assert_eq!(c.unwrap(), m.row(i)[0]);
            } else {
                assert!(c.is_none());
            }
        }
    }
}
