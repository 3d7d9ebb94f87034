//! The deployable Opprentice pipeline (Fig. 3): ingest labeled history,
//! retrain periodically, detect incoming points online.
//!
//! From the operators' view there are exactly two interactions (§4.1):
//! specify an accuracy preference once, and label anomalies periodically.
//! Everything else — feature extraction by the 133 detector configurations,
//! random-forest training, cThld selection and prediction — happens inside
//! this type.

use crate::cthld::{best_cthld, Preference};
use crate::error::PipelineError;
use crate::features::{FeatureMatrix, OnlineExtractor};
use crate::predictor::{five_fold_cthld, EwmaCthldPredictor};
use opprentice_learn::metrics::pr_curve;
use opprentice_learn::{Classifier, CompiledForest, RandomForest, RandomForestParams};
use opprentice_timeseries::{Labels, TimeSeries};
use std::thread::JoinHandle;
use std::time::Instant;

/// Points per chunk when replaying history through the batch extractor.
const HISTORY_CHUNK: usize = 256;

/// Configuration of an [`Opprentice`] instance.
#[derive(Debug, Clone)]
pub struct OpprenticeConfig {
    /// The operators' accuracy preference ("recall ≥ R and precision ≥ P").
    pub preference: Preference,
    /// Random-forest hyperparameters.
    pub forest: RandomForestParams,
    /// Smoothing constant of the EWMA cThld predictor (0.8 in the paper).
    pub cthld_alpha: f64,
    /// cThld used before any prediction exists (the forest default, 0.5).
    pub fallback_cthld: f64,
}

impl Default for OpprenticeConfig {
    fn default() -> Self {
        Self {
            preference: Preference::moderate(),
            forest: RandomForestParams::default(),
            cthld_alpha: 0.8,
            fallback_cthld: 0.5,
        }
    }
}

/// The verdict for one incoming point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Anomaly probability from the random forest (vote fraction).
    pub probability: f64,
    /// The cThld in effect when the point was classified.
    pub cthld: f64,
    /// `probability >= cthld`.
    pub is_anomaly: bool,
}

/// Why [`Opprentice::start_retrain`] refused to start a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainError {
    /// A background retrain is already in flight; poll or wait for it.
    AlreadyTraining,
    /// No labeled anomalous sample exists yet — nothing to learn from.
    NoLabeledAnomaly,
}

impl std::fmt::Display for RetrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetrainError::AlreadyTraining => write!(f, "retrain already in progress"),
            RetrainError::NoLabeledAnomaly => write!(f, "need at least one labeled anomaly"),
        }
    }
}

impl std::error::Error for RetrainError {}

/// What a completed retrain installed — returned by
/// [`Opprentice::poll_retrain`] / [`Opprentice::wait_retrain`] when the
/// model swap lands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingReport {
    /// The job id [`Opprentice::start_retrain`] handed out.
    pub job_id: u64,
    /// The model version now serving (increments by one per swap).
    pub model_version: u64,
    /// The cThld in effect after the swap.
    pub cthld: f64,
    /// Wall-clock microseconds the job spent training.
    pub train_us: u64,
}

/// An in-flight background training job.
struct TrainingJob {
    id: u64,
    handle: JoinHandle<TrainOutcome>,
}

/// Everything a training job computes off-thread; installed atomically
/// (from the observer's point of view) by the poll that lands it.
struct TrainOutcome {
    /// Best cThld of the latest labeled week under the *old* model.
    best: Option<f64>,
    /// 5-fold initialization value, computed only when the predictor would
    /// otherwise still be uninitialized after applying `best`.
    init: Option<f64>,
    forest: RandomForest,
    compiled: CompiledForest,
    train_ns: u64,
}

/// The operators' apprentice: the end-to-end anomaly detection pipeline.
pub struct Opprentice {
    config: OpprenticeConfig,
    interval: u32,
    extractor: OnlineExtractor,
    matrix: FeatureMatrix,
    truth: Labels,
    forest: Option<RandomForest>,
    /// The forest flattened for the serving hot path — rebuilt whenever
    /// `forest` changes, bit-identical to it in every prediction.
    compiled: Option<CompiledForest>,
    predictor: EwmaCthldPredictor,
    /// Scratch row for online prediction (severities with `None` → 0.0),
    /// reused across points so the hot path allocates nothing.
    feat_buf: Vec<f64>,
    /// Cumulative wall-clock nanoseconds spent in feature extraction.
    extract_ns: u64,
    /// Cumulative wall-clock nanoseconds spent scoring (matrix append +
    /// forest prediction).
    infer_ns: u64,
    /// Cumulative wall-clock nanoseconds spent training (sync and
    /// background jobs, measured inside the job thread).
    train_ns: u64,
    /// Counts installed models: 0 = untrained, +1 per completed retrain
    /// (or set directly when a snapshot is restored).
    model_version: u64,
    /// Monotonic job-id source for [`Opprentice::start_retrain`].
    next_job_id: u64,
    /// The in-flight background training job, if any. Dropping the
    /// pipeline abandons the job: its thread finishes detached and the
    /// result is discarded, which is exactly the crash semantics the
    /// serving layer wants (a swap only exists once it was polled in).
    job: Option<TrainingJob>,
}

impl Opprentice {
    /// Creates a fresh pipeline for a KPI sampled every `interval` seconds.
    pub fn new(interval: u32, config: OpprenticeConfig) -> Self {
        let extractor = OnlineExtractor::new(interval);
        let matrix = FeatureMatrix::new(extractor.labels());
        let predictor = EwmaCthldPredictor::new(config.cthld_alpha);
        Self {
            config,
            interval,
            extractor,
            matrix,
            truth: Labels::all_normal(0),
            forest: None,
            compiled: None,
            predictor,
            feat_buf: Vec::new(),
            extract_ns: 0,
            infer_ns: 0,
            train_ns: 0,
            model_version: 0,
            next_job_id: 0,
            job: None,
        }
    }

    /// Number of points observed so far.
    pub fn observed_len(&self) -> usize {
        self.matrix.len()
    }

    /// Number of points with operator labels so far.
    pub fn labeled_len(&self) -> usize {
        self.truth.len()
    }

    /// The cThld currently in effect.
    pub fn current_cthld(&self) -> f64 {
        self.predictor
            .predict()
            .unwrap_or(self.config.fallback_cthld)
    }

    /// `true` once a classifier has been trained.
    pub fn is_trained(&self) -> bool {
        self.forest.is_some()
    }

    /// The configuration the pipeline was created with.
    pub fn config(&self) -> &OpprenticeConfig {
        &self.config
    }

    /// The KPI sampling interval in seconds.
    pub fn interval(&self) -> u32 {
        self.interval
    }

    /// Cumulative wall-clock microseconds spent extracting features over
    /// the pipeline's lifetime ([`Opprentice::observe`] and
    /// [`Opprentice::observe_batch`]).
    ///
    /// This is the *caller-experienced* latency of extraction calls: under
    /// the fused batch path the family kernels run concurrently on the
    /// batch's threads, so this is less than the summed kernel time. Per-family
    /// CPU attribution lives in [`Opprentice::family_stats`].
    pub fn extract_us(&self) -> u64 {
        self.extract_ns / 1_000
    }

    /// Measured per-family extraction cost (kernel CPU time over the
    /// batched path), aggregated across each family's fused units — see
    /// [`crate::features::FamilyStat`].
    pub fn family_stats(&self) -> Vec<crate::features::FamilyStat> {
        self.extractor.family_stats()
    }

    /// Cumulative wall-clock microseconds spent scoring (matrix append +
    /// forest prediction) over the pipeline's lifetime.
    pub fn infer_us(&self) -> u64 {
        self.infer_ns / 1_000
    }

    /// Cumulative wall-clock microseconds spent training over the
    /// pipeline's lifetime (counted when a job lands, sync or background).
    pub fn train_us(&self) -> u64 {
        self.train_ns / 1_000
    }

    /// The serving model's version: 0 until the first training round, then
    /// incremented by one on every installed retrain. A restored snapshot
    /// carries its version, so a recovered session continues the count.
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// `true` while a background retrain job is in flight (submitted and
    /// not yet polled in — even if its thread has already finished).
    pub fn training_in_flight(&self) -> bool {
        self.job.is_some()
    }

    /// The operator labels accumulated so far.
    pub fn labels(&self) -> &Labels {
        &self.truth
    }

    /// The trained classifier, if any.
    pub fn forest(&self) -> Option<&RandomForest> {
        self.forest.as_ref()
    }

    /// The compiled (serving-path) forest, if trained — predictions from
    /// it are bit-identical to [`Opprentice::forest`]'s tree walk.
    pub fn compiled_forest(&self) -> Option<&CompiledForest> {
        self.compiled.as_ref()
    }

    /// The raw EWMA prediction state (`None` before initialization) —
    /// exposed for snapshotting; [`Opprentice::current_cthld`] is the
    /// operational view.
    pub fn predicted_cthld(&self) -> Option<f64> {
        self.predictor.predict()
    }

    /// Installs externally restored trained state (a decoded snapshot):
    /// the classifier, the EWMA prediction, and the model version the
    /// snapshot was taken at. Observation and label state are *not*
    /// touched — the caller rebuilds those by replaying the write-ahead
    /// log, which is what keeps restored sessions scoring identically to
    /// uninterrupted ones.
    pub fn restore_trained_state(
        &mut self,
        forest: Option<RandomForest>,
        prediction: Option<f64>,
        model_version: u64,
    ) {
        self.compiled = forest.as_ref().map(RandomForest::compile);
        self.forest = forest;
        self.model_version = model_version;
        match prediction {
            Some(c) => self.predictor.initialize(c),
            None => self.predictor = EwmaCthldPredictor::new(self.config.cthld_alpha),
        }
    }

    /// Replays an already-labeled historical series through the detectors —
    /// the initial setup step ("operators … label anomalies in the
    /// historical data at the beginning", §4.1).
    ///
    /// # Errors
    ///
    /// Fails without modifying the pipeline if called after points have
    /// been observed, if the series interval differs, or if labels and
    /// series lengths differ.
    pub fn ingest_history(
        &mut self,
        series: &TimeSeries,
        labels: &Labels,
    ) -> Result<(), PipelineError> {
        if !self.matrix.is_empty() {
            return Err(PipelineError::HistoryAfterObservations {
                observed: self.matrix.len(),
            });
        }
        if series.interval() != self.interval {
            return Err(PipelineError::IntervalMismatch {
                expected: self.interval,
                got: series.interval(),
            });
        }
        if series.len() != labels.len() {
            return Err(PipelineError::LengthMismatch {
                series: series.len(),
                labels: labels.len(),
            });
        }
        let m = self.extractor.n_features();
        let mut ts_buf = Vec::with_capacity(HISTORY_CHUNK);
        let mut val_buf = Vec::with_capacity(HISTORY_CHUNK);
        let mut i = 0;
        while i < series.len() {
            let end = (i + HISTORY_CHUNK).min(series.len());
            ts_buf.clear();
            val_buf.clear();
            for j in i..end {
                ts_buf.push(series.timestamp_at(j));
                val_buf.push(series.get(j));
            }
            let t0 = Instant::now();
            let rows = self.extractor.observe_batch(&ts_buf, &val_buf);
            self.extract_ns += t0.elapsed().as_nanos() as u64;
            for (k, v) in val_buf.iter().enumerate() {
                self.matrix.push_row(&rows[k * m..(k + 1) * m], v.is_some());
            }
            i = end;
        }
        self.truth = labels.clone();
        Ok(())
    }

    /// Feeds one incoming point; returns the verdict (or `None` when no
    /// classifier is trained yet or the point is missing).
    ///
    /// This is the serving hot path: the severity row goes straight into
    /// the matrix and a reused scratch buffer (no per-point allocation),
    /// and the prediction comes from the compiled forest.
    pub fn observe(&mut self, timestamp: i64, value: Option<f64>) -> Option<Detection> {
        let t0 = Instant::now();
        let row = self.extractor.observe(timestamp, value);
        self.extract_ns += t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        self.matrix.push_row(row, value.is_some());
        self.feat_buf.clear();
        self.feat_buf.extend(row.iter().map(|s| s.unwrap_or(0.0)));
        let verdict = (|| {
            value?;
            let compiled = self.compiled.as_ref()?;
            let probability = compiled.predict(&self.feat_buf);
            let cthld = self
                .predictor
                .predict()
                .unwrap_or(self.config.fallback_cthld);
            Some(Detection {
                probability,
                cthld,
                is_anomaly: probability >= cthld,
            })
        })();
        self.infer_ns += t1.elapsed().as_nanos() as u64;
        verdict
    }

    /// Feeds a run of consecutive points starting at `start` (each
    /// subsequent point one interval later); returns one verdict slot per
    /// point. Verdicts are bit-identical to calling [`Opprentice::observe`]
    /// once per point — the batch path only spreads the 133 detector
    /// configurations' fused units across threads.
    pub fn observe_batch(&mut self, start: i64, values: &[Option<f64>]) -> Vec<Option<Detection>> {
        let m = self.extractor.n_features();
        let step = i64::from(self.interval);
        let timestamps: Vec<i64> = (0..values.len() as i64).map(|i| start + i * step).collect();

        let t0 = Instant::now();
        let rows = self.extractor.observe_batch(&timestamps, values);
        self.extract_ns += t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        let cthld = self
            .predictor
            .predict()
            .unwrap_or(self.config.fallback_cthld);
        let compiled = self.compiled.as_ref();
        let mut out = Vec::with_capacity(values.len());
        for (i, v) in values.iter().enumerate() {
            let row = &rows[i * m..(i + 1) * m];
            self.matrix.push_row(row, v.is_some());
            self.feat_buf.clear();
            self.feat_buf.extend(row.iter().map(|s| s.unwrap_or(0.0)));
            out.push(match (v, compiled) {
                (Some(_), Some(c)) => {
                    let probability = c.predict(&self.feat_buf);
                    Some(Detection {
                        probability,
                        cthld,
                        is_anomaly: probability >= cthld,
                    })
                }
                _ => None,
            });
        }
        self.infer_ns += t1.elapsed().as_nanos() as u64;
        out
    }

    /// Appends operator labels for the oldest `labels.len()` unlabeled
    /// points — the periodic (e.g. weekly) labeling session. "All the data
    /// are labeled only once" (§4.1).
    ///
    /// # Errors
    ///
    /// Fails without modifying the pipeline if more labels arrive than
    /// there are unlabeled points.
    pub fn ingest_labels(&mut self, labels: &Labels) -> Result<(), PipelineError> {
        if self.truth.len() + labels.len() > self.matrix.len() {
            return Err(PipelineError::LabelsBeyondData {
                observed: self.matrix.len(),
                labeled: self.truth.len(),
                incoming: labels.len(),
            });
        }
        for i in 0..labels.len() {
            self.truth.push(labels.is_anomaly(i));
        }
        Ok(())
    }

    /// Incrementally retrains the classifier on all labeled data and
    /// refreshes the cThld prediction (§4.5.2):
    ///
    /// 1. the previous classifier (if any) is scored on the latest labeled
    ///    week to find that week's *best* cThld, which updates the EWMA
    ///    prediction;
    /// 2. a new forest is trained on every labeled, usable point;
    /// 3. on the very first training round, the prediction is initialized
    ///    by 5-fold cross-validation.
    ///
    /// This synchronous call is [`Opprentice::start_retrain`] +
    /// [`Opprentice::wait_retrain`] — the exact machinery the background
    /// path uses, so sync and async retraining are bit-identical by
    /// construction. An already in-flight background job is waited for (and
    /// installed) first.
    ///
    /// Returns `false` when there is not yet enough labeled data (no
    /// anomalous sample at all).
    pub fn retrain(&mut self) -> bool {
        self.wait_retrain();
        match self.start_retrain() {
            Ok(_) => self.wait_retrain().is_some(),
            Err(_) => false,
        }
    }

    /// Submits a background training job over a snapshot of the labeled
    /// data taken *now*; [`Opprentice::observe`] / [`Opprentice::observe_batch`]
    /// keep serving the current model (and cThld) until a later
    /// [`Opprentice::poll_retrain`] or [`Opprentice::wait_retrain`] installs
    /// the result. Returns the job id.
    ///
    /// Labels ingested after submission do not affect the job (it trains on
    /// the snapshot), and neither do new observations — which is what makes
    /// the swap well-defined: the trained model depends only on the labeled
    /// prefix at submission time.
    ///
    /// # Errors
    ///
    /// [`RetrainError::AlreadyTraining`] if a job is in flight;
    /// [`RetrainError::NoLabeledAnomaly`] if the labeled data holds no
    /// anomalous sample (the week's best-cThld harvest — step 1 — is still
    /// applied in that case, matching the synchronous semantics).
    pub fn start_retrain(&mut self) -> Result<u64, RetrainError> {
        if self.job.is_some() {
            return Err(RetrainError::AlreadyTraining);
        }
        let labeled = self.truth.len();
        let ppw = (7 * 86_400 / i64::from(self.interval)) as usize;
        let week_start = labeled.saturating_sub(ppw);
        let old = self.compiled.clone();

        let (ds, _) = self.matrix.dataset(&self.truth, 0..labeled);
        if ds.is_empty() || ds.positives() == 0 {
            // Nothing to train on; still harvest the week's best cThld so
            // the EWMA sees exactly what a synchronous round would apply.
            if let Some(best) = self.harvest_week(&old, week_start, labeled) {
                self.predictor.update(best);
            }
            return Err(RetrainError::NoLabeledAnomaly);
        }

        // Snapshot everything the job needs: the latest labeled week's
        // rows (for the step-1 harvest under the old model) and the full
        // labeled dataset. The old model is handed over as its compiled
        // form, whose predictions are bit-identical to the tree walk.
        let week_rows: Vec<Option<Vec<f64>>> = (week_start..labeled)
            .map(|i| self.matrix.usable(i).then(|| self.matrix.row(i).to_vec()))
            .collect();
        let week_flags: Vec<bool> = self.truth.flags()[week_start..labeled].to_vec();
        let preference = self.config.preference;
        let params = self.config.forest.clone();
        let has_prediction = self.predictor.predict().is_some();

        self.next_job_id += 1;
        let id = self.next_job_id;
        let handle = std::thread::Builder::new()
            .name(format!("retrain-{id}"))
            .spawn(move || {
                let t0 = Instant::now();
                let best = old.as_ref().and_then(|old| {
                    let scores: Vec<Option<f64>> = week_rows
                        .iter()
                        .map(|r| r.as_ref().map(|row| old.predict(row)))
                        .collect();
                    best_cthld(&pr_curve(&scores, &week_flags), &preference)
                });
                let mut forest = RandomForest::new(params.clone());
                forest.fit(&ds);
                // 5-fold initialization only when the predictor would still
                // be empty after applying `best` (the first-round case).
                let init = (!has_prediction && best.is_none())
                    .then(|| five_fold_cthld(&ds, &preference, &params));
                let compiled = forest.compile();
                TrainOutcome {
                    best,
                    init,
                    forest,
                    compiled,
                    train_ns: t0.elapsed().as_nanos() as u64,
                }
            })
            .expect("spawn retrain thread");
        self.job = Some(TrainingJob { id, handle });
        Ok(id)
    }

    /// Installs a finished background job if one is ready; non-blocking.
    /// Returns `None` while no job is in flight or the job is still
    /// training. The swap — forest, compiled forest, cThld prediction,
    /// model version — happens entirely inside this call, so observers
    /// before it see the old model and observers after it see the new one;
    /// there is no intermediate state.
    pub fn poll_retrain(&mut self) -> Option<TrainingReport> {
        if !self.job.as_ref()?.handle.is_finished() {
            return None;
        }
        self.land_job()
    }

    /// Blocks until the in-flight background job (if any) finishes, then
    /// installs it. Returns `None` when no job was in flight.
    pub fn wait_retrain(&mut self) -> Option<TrainingReport> {
        self.job.as_ref()?;
        self.land_job()
    }

    /// Joins the job thread and swaps its result in.
    fn land_job(&mut self) -> Option<TrainingReport> {
        let job = self.job.take()?;
        // A panicked trainer (out of memory, poisoned data) must not take
        // the serving model down with it: the old model keeps serving and
        // the job simply evaporates.
        let outcome = job.handle.join().ok()?;
        if let Some(best) = outcome.best {
            self.predictor.update(best);
        }
        if self.predictor.predict().is_none() {
            if let Some(init) = outcome.init {
                self.predictor.initialize(init);
            }
        }
        self.compiled = Some(outcome.compiled);
        self.forest = Some(outcome.forest);
        self.model_version += 1;
        self.train_ns += outcome.train_ns;
        Some(TrainingReport {
            job_id: job.id,
            model_version: self.model_version,
            cthld: self.current_cthld(),
            train_us: outcome.train_ns / 1_000,
        })
    }

    /// Step 1 of a retrain round, done synchronously: the best cThld of the
    /// latest labeled week under the (compiled) old model.
    fn harvest_week(
        &self,
        old: &Option<CompiledForest>,
        week_start: usize,
        labeled: usize,
    ) -> Option<f64> {
        let old = old.as_ref()?;
        let scores: Vec<Option<f64>> = (week_start..labeled)
            .map(|i| {
                self.matrix
                    .usable(i)
                    .then(|| old.predict(self.matrix.row(i)))
            })
            .collect();
        let flags = &self.truth.flags()[week_start..labeled];
        best_cthld(&pr_curve(&scores, flags), &self.config.preference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTERVAL: u32 = 3600;

    /// Builds an hourly KPI with a daily pattern and labeled spikes.
    fn labeled_history(days: usize) -> (TimeSeries, Labels) {
        let n = days * 24;
        let mut series = TimeSeries::new(0, INTERVAL);
        let mut labels = Labels::all_normal(0);
        for i in 0..n {
            let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
            // A 2-point spike every ~2.6 days.
            let anomalous = i % 63 == 50 || i % 63 == 51;
            series.push(if anomalous { base + 120.0 } else { base });
            labels.push(anomalous);
        }
        (series, labels)
    }

    fn small_config() -> OpprenticeConfig {
        OpprenticeConfig {
            forest: RandomForestParams {
                n_trees: 12,
                seed: 5,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn untrained_pipeline_returns_no_verdicts() {
        let mut opp = Opprentice::new(INTERVAL, small_config());
        assert_eq!(opp.observe(0, Some(100.0)), None);
        assert!(!opp.is_trained());
    }

    #[test]
    fn trains_on_history_and_flags_spikes() {
        let (series, labels) = labeled_history(28);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        assert!(opp.retrain());
        assert!(opp.is_trained());

        let t0 = series.timestamp_at(series.len() - 1) + i64::from(INTERVAL);
        // A normal point scores low…
        let normal = opp.observe(t0, Some(100.0)).unwrap();
        // …and a huge spike scores high.
        let spike = opp.observe(t0 + i64::from(INTERVAL), Some(400.0)).unwrap();
        assert!(
            spike.probability > normal.probability,
            "{spike:?} vs {normal:?}"
        );
        assert!(spike.is_anomaly);
    }

    #[test]
    fn missing_points_get_no_verdict_but_are_recorded() {
        let (series, labels) = labeled_history(28);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        opp.retrain();
        let before = opp.observed_len();
        assert_eq!(opp.observe(0, None), None);
        assert_eq!(opp.observed_len(), before + 1);
    }

    #[test]
    fn weekly_label_and_retrain_cycle() {
        let (series, labels) = labeled_history(21);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        assert!(opp.retrain());

        // A new week arrives unlabeled.
        let (new_week, new_labels) = labeled_history(28);
        let start = series.len();
        for i in start..new_week.len() {
            let _ = opp.observe(new_week.timestamp_at(i), new_week.get(i));
        }
        assert_eq!(opp.observed_len(), new_week.len());
        assert_eq!(opp.labeled_len(), start);

        // The operator labels it; retraining folds it in.
        opp.ingest_labels(&new_labels.slice(start..new_week.len()))
            .unwrap();
        assert_eq!(opp.labeled_len(), new_week.len());
        assert!(opp.retrain());
        // cThld prediction exists and is in range.
        let c = opp.current_cthld();
        assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn retrain_without_positive_labels_reports_failure() {
        let mut series = TimeSeries::new(0, INTERVAL);
        for i in 0..200 {
            series.push(100.0 + (i % 24) as f64);
        }
        let labels = Labels::all_normal(200);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        assert!(!opp.retrain());
        assert!(!opp.is_trained());
    }

    #[test]
    fn over_labeling_rejected() {
        let mut opp = Opprentice::new(INTERVAL, small_config());
        assert_eq!(
            opp.ingest_labels(&Labels::all_normal(5)),
            Err(PipelineError::LabelsBeyondData {
                observed: 0,
                labeled: 0,
                incoming: 5
            })
        );
        // The rejected batch left no trace.
        assert_eq!(opp.labeled_len(), 0);
    }

    #[test]
    fn interval_mismatch_rejected() {
        let series = TimeSeries::from_values(0, 60, vec![1.0; 10]);
        let labels = Labels::all_normal(10);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        assert_eq!(
            opp.ingest_history(&series, &labels),
            Err(PipelineError::IntervalMismatch {
                expected: INTERVAL,
                got: 60
            })
        );
        assert_eq!(opp.observed_len(), 0);
    }

    #[test]
    fn history_after_observations_rejected() {
        let mut opp = Opprentice::new(INTERVAL, small_config());
        assert_eq!(opp.observe(0, Some(1.0)), None);
        let series = TimeSeries::from_values(0, INTERVAL, vec![1.0; 10]);
        assert_eq!(
            opp.ingest_history(&series, &Labels::all_normal(10)),
            Err(PipelineError::HistoryAfterObservations { observed: 1 })
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let series = TimeSeries::from_values(0, INTERVAL, vec![1.0; 10]);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        assert_eq!(
            opp.ingest_history(&series, &Labels::all_normal(9)),
            Err(PipelineError::LengthMismatch {
                series: 10,
                labels: 9
            })
        );
    }

    #[test]
    fn observe_batch_matches_streaming_bit_for_bit() {
        let (series, labels) = labeled_history(28);
        let mut batched = Opprentice::new(INTERVAL, small_config());
        let mut streamed = Opprentice::new(INTERVAL, small_config());
        batched.ingest_history(&series, &labels).unwrap();
        streamed.ingest_history(&series, &labels).unwrap();
        assert!(batched.retrain());
        assert!(streamed.retrain());

        let t0 = series.timestamp_at(series.len() - 1) + i64::from(INTERVAL);
        let vals: Vec<Option<f64>> = (0..50)
            .map(|i| {
                if i % 9 == 4 {
                    None
                } else {
                    let spike = if i == 30 { 250.0 } else { 0.0 };
                    Some(100.0 + (i % 24) as f64 + spike)
                }
            })
            .collect();
        let out = batched.observe_batch(t0, &vals);
        assert_eq!(out.len(), vals.len());
        for (i, v) in vals.iter().enumerate() {
            let single = streamed.observe(t0 + i as i64 * i64::from(INTERVAL), *v);
            assert_eq!(out[i], single, "point {i}");
        }
        assert_eq!(batched.observed_len(), streamed.observed_len());
        assert!(batched.extract_us() > 0, "extraction timer never advanced");
        assert!(batched.infer_us() > 0, "inference timer never advanced");
    }

    #[test]
    fn background_retrain_is_bit_identical_to_sync() {
        let (series, labels) = labeled_history(28);
        let mut sync = Opprentice::new(INTERVAL, small_config());
        let mut bg = Opprentice::new(INTERVAL, small_config());
        sync.ingest_history(&series, &labels).unwrap();
        bg.ingest_history(&series, &labels).unwrap();

        assert!(sync.retrain());
        let job = bg.start_retrain().unwrap();
        let report = bg.wait_retrain().unwrap();
        assert_eq!(report.job_id, job);
        assert_eq!(report.model_version, 1);
        assert_eq!(bg.model_version(), sync.model_version());
        assert_eq!(bg.predicted_cthld(), sync.predicted_cthld());
        assert_eq!(
            bg.forest().unwrap().to_bytes(),
            sync.forest().unwrap().to_bytes()
        );
        assert_eq!(bg.compiled_forest(), sync.compiled_forest());

        let t0 = series.timestamp_at(series.len() - 1) + i64::from(INTERVAL);
        for (i, v) in [100.0, 400.0, 130.0, 85.0].into_iter().enumerate() {
            let ts = t0 + i as i64 * i64::from(INTERVAL);
            assert_eq!(sync.observe(ts, Some(v)), bg.observe(ts, Some(v)));
        }
    }

    #[test]
    fn observe_serves_the_old_model_until_the_swap_is_polled_in() {
        let (series, labels) = labeled_history(28);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        let mut control = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        control.ingest_history(&series, &labels).unwrap();
        assert!(opp.retrain());
        assert!(control.retrain());

        // Submit a second round in the background; until it is polled in,
        // verdicts must match a control that never retrained again — even
        // if the job's thread has long finished.
        opp.start_retrain().unwrap();
        assert!(opp.training_in_flight());
        let t0 = series.timestamp_at(series.len() - 1) + i64::from(INTERVAL);
        for (i, v) in [100.0, 400.0, 130.0].into_iter().enumerate() {
            let ts = t0 + i as i64 * i64::from(INTERVAL);
            assert_eq!(opp.observe(ts, Some(v)), control.observe(ts, Some(v)));
        }
        assert_eq!(opp.model_version(), 1);

        let report = opp.wait_retrain().unwrap();
        assert_eq!(report.model_version, 2);
        assert_eq!(opp.model_version(), 2);
        assert!(opp.train_us() > 0);
    }

    #[test]
    fn second_submission_while_in_flight_is_rejected() {
        let (series, labels) = labeled_history(28);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        opp.start_retrain().unwrap();
        assert_eq!(opp.start_retrain(), Err(RetrainError::AlreadyTraining));
        assert!(opp.training_in_flight());
        opp.wait_retrain().unwrap();
        assert!(!opp.training_in_flight());
    }

    #[test]
    fn start_retrain_without_positive_labels_errors() {
        let mut series = TimeSeries::new(0, INTERVAL);
        for i in 0..200 {
            series.push(100.0 + (i % 24) as f64);
        }
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &Labels::all_normal(200))
            .unwrap();
        assert_eq!(opp.start_retrain(), Err(RetrainError::NoLabeledAnomaly));
        assert!(!opp.training_in_flight());
        assert_eq!(opp.model_version(), 0);
    }

    #[test]
    fn dropping_a_pipeline_abandons_the_job() {
        let (series, labels) = labeled_history(28);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        opp.start_retrain().unwrap();
        drop(opp); // must not deadlock or panic; the job thread detaches
    }

    #[test]
    fn restore_trained_state_round_trips_through_accessors() {
        let (series, labels) = labeled_history(28);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        assert!(opp.retrain());
        let prediction = opp.predicted_cthld();
        assert!(prediction.is_some());

        // A fresh pipeline fed the same observations (but never retrained)
        // plus the restored trained state must score identically.
        let mut fresh = Opprentice::new(INTERVAL, small_config());
        fresh.ingest_history(&series, &labels).unwrap();
        let bytes = opp.forest().unwrap().to_bytes();
        let forest = RandomForest::from_bytes(&bytes).unwrap();
        fresh.restore_trained_state(Some(forest), prediction, opp.model_version());
        assert!(fresh.is_trained());
        assert_eq!(fresh.model_version(), opp.model_version());

        let t0 = series.timestamp_at(series.len() - 1) + i64::from(INTERVAL);
        for (i, v) in [100.0, 400.0, 130.0].into_iter().enumerate() {
            let ts = t0 + i as i64 * i64::from(INTERVAL);
            assert_eq!(opp.observe(ts, Some(v)), fresh.observe(ts, Some(v)));
        }
    }
}
