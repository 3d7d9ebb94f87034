//! The in-process reference every served reply is checked against.
//!
//! A [`RefSession`] feeds each request line the server received through
//! `parse_request` and an [`Opprentice`] built with the configuration the
//! server builds from `PREF` and 50 trees, and renders the reply the
//! server must have sent. A retrain starts at its `RETRAIN` and lands
//! where the server's `EVENT retrained` line shows the swap.
//!
//! Replies are compared byte for byte after masking the three wall-clock
//! counters (`extract_us=`, `infer_us=`, `train_us=`), which no two runs
//! share.
//!
//! With a [`Tracer`], the same replay records one span per layer call;
//! this is the traced run's in-process view of each request.

use crate::net::Exchange;
use crate::trace::{SpanId, Tracer};
use opprentice::cthld::Preference;
use opprentice::features::OnlineExtractor;
use opprentice::{Detection, Opprentice, OpprenticeConfig, TrainingReport};
use opprentice_learn::RandomForestParams;
use opprentice_server::{parse_request, Request};
use opprentice_timeseries::Labels;
use std::fmt::Write as _;

/// The server's default forest size.
pub const N_TREES: usize = 50;

/// Counter fields whose values are wall-clock measurements.
const TIMED_FIELDS: [&str; 3] = ["extract_us=", "infer_us=", "train_us="];

/// Replaces the value of every wall-clock counter with `*`.
pub fn mask(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    for (i, word) in line.split(' ').enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match TIMED_FIELDS.iter().find(|f| word.starts_with(*f)) {
            Some(field) => {
                out.push_str(field);
                out.push('*');
            }
            None => out.push_str(word),
        }
    }
    out
}

/// Renders one verdict exactly as the server does.
fn push_verdict(out: &mut String, d: Option<Detection>) {
    match d {
        Some(d) => write!(
            out,
            "p={:.4} cthld={:.3} anomaly={}",
            d.probability,
            d.cthld,
            u8::from(d.is_anomaly)
        )
        .expect("writing to a String"),
        None => out.push_str("pending"),
    }
}

/// What the reference expects for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// `EVENT` lines, masked.
    pub events: Vec<String>,
    /// The reply, masked.
    pub reply: String,
}

/// Spans and shadow layer calls recorded while replaying one request.
pub struct Traced<'a> {
    /// Where spans go.
    pub tracer: &'a mut Tracer,
    /// A second extractor fed the same points, timed on its own so the
    /// feature layer's share inside `pipeline` can be read from outside.
    pub shadow: &'a mut Option<OnlineExtractor>,
}

/// One session's reference state machine.
pub struct RefSession {
    preference: Preference,
    pipeline: Option<Opprentice>,
}

impl Default for RefSession {
    fn default() -> Self {
        Self::new()
    }
}

impl RefSession {
    /// A session before `PREF`/`HELLO`.
    pub fn new() -> RefSession {
        RefSession {
            preference: Preference::moderate(),
            pipeline: None,
        }
    }

    /// The `STATUS` payload the server renders for this state.
    fn status(&self) -> String {
        match &self.pipeline {
            None => "observed=0 labeled=0 trained=0 extract_us=0 infer_us=0 \
                     train_us=0 model_version=0 training=0"
                .to_string(),
            Some(p) => format!(
                "observed={} labeled={} trained={} cthld={:.3} extract_us={} infer_us={} \
                 train_us={} model_version={} training={}",
                p.observed_len(),
                p.labeled_len(),
                u8::from(p.is_trained()),
                p.current_cthld(),
                p.extract_us(),
                p.infer_us(),
                p.train_us(),
                p.model_version(),
                u8::from(p.training_in_flight())
            ),
        }
    }

    /// Applies request `line` (id `id`) and returns the masked reply and
    /// events the server must have sent. `landed` says the server pushed
    /// an `EVENT` ahead of this reply, i.e. a retrain swapped in here.
    pub fn expect(
        &mut self,
        id: u64,
        line: &str,
        landed: bool,
        mut traced: Option<Traced<'_>>,
    ) -> Expected {
        let root = traced
            .as_mut()
            .map(|t| t.tracer.begin("service.request", None, id));
        let mut events = Vec::new();
        if landed {
            let report = self.timed(&mut traced, root, id, "pipeline.wait_retrain", |p| {
                p.wait_retrain()
            });
            if let Some(Some(r)) = report {
                events.push(mask(&event_line(&r)));
            }
        }
        let request = match &mut traced {
            Some(t) => t
                .tracer
                .time("proto.parse_request", root, id, || parse_request(line)),
            None => parse_request(line),
        };
        let reply = match request {
            Ok(request) => self.apply(&request, &mut traced, root, id),
            Err(reason) => format!("ERR {reason}"),
        };
        if let (Some(t), Some(root)) = (traced, root) {
            t.tracer.end(root);
        }
        Expected {
            events,
            reply: mask(&reply),
        }
    }

    /// Runs `f` on the pipeline, as a span when tracing.
    fn timed<T>(
        &mut self,
        traced: &mut Option<Traced<'_>>,
        parent: Option<SpanId>,
        request: u64,
        name: &'static str,
        f: impl FnOnce(&mut Opprentice) -> T,
    ) -> Option<T> {
        let p = self.pipeline.as_mut()?;
        Some(match traced {
            Some(t) => t.tracer.time(name, parent, request, || f(p)),
            None => f(p),
        })
    }

    fn apply(
        &mut self,
        request: &Request,
        traced: &mut Option<Traced<'_>>,
        root: Option<SpanId>,
        id: u64,
    ) -> String {
        match request {
            Request::Pref { recall, precision } => {
                self.preference = Preference {
                    recall: *recall,
                    precision: *precision,
                };
                format!("OK pref recall={recall} precision={precision}")
            }
            Request::Hello { interval, .. } => {
                let config = OpprenticeConfig {
                    preference: self.preference,
                    forest: RandomForestParams {
                        n_trees: N_TREES,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                self.pipeline = Some(Opprentice::new(*interval, config));
                if let Some(t) = traced.as_mut() {
                    *t.shadow = Some(OnlineExtractor::new(*interval));
                }
                format!("OK opprentice interval={interval}")
            }
            Request::Resume { .. } => format!("OK resumed {}", self.status()),
            Request::Obs { timestamp, value } => {
                let (ts, v) = (*timestamp, *value);
                let d = self.timed(traced, root, id, "pipeline.observe", |p| p.observe(ts, v));
                shadow_observe(traced, self.pipeline.as_ref(), id, &[ts], &[v]);
                let mut out = "OK ".to_string();
                push_verdict(&mut out, d.flatten());
                out
            }
            Request::ObsBatch { start, values } => {
                let ds = self
                    .timed(traced, root, id, "pipeline.observe_batch", |p| {
                        p.observe_batch(*start, values)
                    })
                    .unwrap_or_default();
                if traced.is_some() {
                    let step = i64::from(self.pipeline.as_ref().map_or(1, |p| p.interval()));
                    let ts: Vec<i64> = (0..values.len() as i64).map(|i| start + i * step).collect();
                    shadow_observe(traced, self.pipeline.as_ref(), id, &ts, values);
                }
                let mut out = String::with_capacity(values.len() * 32);
                out.push_str("OK ");
                for (i, d) in ds.into_iter().enumerate() {
                    if i > 0 {
                        out.push('|');
                    }
                    push_verdict(&mut out, d);
                }
                out
            }
            Request::Label { flags } => {
                let labels = Labels::from_flags(flags.clone());
                match self.timed(traced, root, id, "pipeline.ingest_labels", |p| {
                    p.ingest_labels(&labels).map(|()| p.labeled_len())
                }) {
                    Some(Ok(n)) => format!("OK labeled={n}"),
                    Some(Err(e)) => format!("ERR {e}"),
                    None => "ERR HELLO first".into(),
                }
            }
            Request::Retrain => {
                match self.timed(traced, root, id, "pipeline.start_retrain", |p| {
                    p.start_retrain()
                }) {
                    Some(Ok(job)) => format!("OK retraining job={job}"),
                    Some(Err(e)) => format!("ERR {e}"),
                    None => "ERR HELLO first".into(),
                }
            }
            Request::Status => format!("OK {}", self.status()),
            Request::Quit => "BYE".into(),
        }
    }
}

/// Feeds the shadow extractor the request's points, timed as the feature
/// layer, then times the compiled forest on the last row it produced.
fn shadow_observe(
    traced: &mut Option<Traced<'_>>,
    pipeline: Option<&Opprentice>,
    id: u64,
    ts: &[i64],
    values: &[Option<f64>],
) {
    let Some(t) = traced.as_mut() else { return };
    let Some(ex) = t.shadow.as_mut() else { return };
    let row: Vec<f64> = if ts.len() == 1 {
        let row = t.tracer.time("features.observe", None, id, || {
            ex.observe(ts[0], values[0])
        });
        row.iter().map(|s| s.unwrap_or(0.0)).collect()
    } else {
        let m = ex.n_features();
        let rows = t.tracer.time("features.observe_batch", None, id, || {
            ex.observe_batch(ts, values)
        });
        rows[rows.len() - m..]
            .iter()
            .map(|s| s.unwrap_or(0.0))
            .collect()
    };
    if let Some(compiled) = pipeline.and_then(Opprentice::compiled_forest) {
        let p = t
            .tracer
            .time("compiled.predict", None, id, || compiled.predict(&row));
        std::hint::black_box(p);
    }
}

/// The `EVENT` line the server pushes when a retrain lands.
fn event_line(r: &TrainingReport) -> String {
    format!(
        "EVENT retrained job={} model_version={} cthld={:.3} train_us={}",
        r.job_id, r.model_version, r.cthld, r.train_us
    )
}

/// Outcome of checking one session's exchanges.
#[derive(Debug, Default, Clone)]
pub struct Check {
    /// Exchanges compared.
    pub checked: u64,
    /// Exchanges whose reply or events differed, or that got `ERR`.
    pub failed: u64,
    /// The first few differences, for the report.
    pub first: Vec<String>,
}

impl Check {
    /// Compares one served exchange with its expectation.
    pub fn compare(&mut self, ex: &Exchange, want: &Expected) {
        self.checked += 1;
        let got_events: Vec<String> = ex.events.iter().map(|e| mask(e)).collect();
        let got = mask(&ex.reply);
        if got != want.reply || got_events != want.events || ex.reply.starts_with("ERR") {
            self.failed += 1;
            if self.first.len() < 3 {
                self.first.push(format!(
                    "request {} `{}`: served {:?} {:?}, reference {:?} {:?}",
                    ex.id,
                    &ex.line[..ex.line.len().min(60)],
                    got_events,
                    &got[..got.len().min(120)],
                    want.events,
                    &want.reply[..want.reply.len().min(120)]
                ));
            }
        }
    }

    /// Folds another check into this one.
    pub fn merge(&mut self, other: Check) {
        self.checked += other.checked;
        self.failed += other.failed;
        for f in other.first {
            if self.first.len() < 3 {
                self.first.push(f);
            }
        }
    }
}

/// Replays a whole session transcript through a fresh reference.
#[cfg(test)]
fn check_session(exchanges: &[Exchange]) -> Check {
    let mut reference = RefSession::new();
    let mut check = Check::default();
    for ex in exchanges {
        let want = reference.expect(ex.id, &ex.line, !ex.events.is_empty(), None);
        check.compare(ex, &want);
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_hides_only_wall_clock_counters() {
        assert_eq!(
            mask("OK observed=5 cthld=0.500 extract_us=123 infer_us=9 train_us=0 training=0"),
            "OK observed=5 cthld=0.500 extract_us=* infer_us=* train_us=* training=0"
        );
        assert_eq!(
            mask("OK p=0.1200 cthld=0.400 anomaly=0"),
            "OK p=0.1200 cthld=0.400 anomaly=0"
        );
    }

    fn exchange(id: u64, line: &str, reply: &str) -> Exchange {
        Exchange {
            id,
            line: line.into(),
            reply: reply.into(),
            events: Vec::new(),
            rtt_ns: 0,
        }
    }

    #[test]
    fn untrained_session_replies_match_the_server_format() {
        let lines = [
            ("PREF 0.66 0.66", "OK pref recall=0.66 precision=0.66"),
            ("HELLO 3600", "OK opprentice interval=3600"),
            ("OBS 0 1.5", "OK pending"),
            ("OBSB 3600 1 nan 2", "OK pending|pending|pending"),
            ("LABEL 0000", "OK labeled=4"),
            ("RETRAIN", "ERR need at least one labeled anomaly"),
            ("QUIT", "BYE"),
        ];
        let exchanges: Vec<Exchange> = lines
            .iter()
            .enumerate()
            .map(|(i, (l, r))| exchange(i as u64, l, r))
            .collect();
        let check = check_session(&exchanges);
        // RETRAIN's ERR is the reference's own expectation, but an ERR
        // reply always counts as a failed operation.
        assert_eq!(check.checked, 7);
        assert_eq!(check.failed, 1, "{:?}", check.first);
    }

    #[test]
    fn a_wrong_verdict_is_a_failure() {
        let exchanges = vec![
            exchange(0, "HELLO 3600", "OK opprentice interval=3600"),
            exchange(1, "OBS 0 1.5", "OK p=1.0000 cthld=0.500 anomaly=1"),
        ];
        let check = check_session(&exchanges);
        assert_eq!(check.failed, 1);
        assert_eq!(check.first.len(), 1);
    }
}
