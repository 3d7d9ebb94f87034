//! Seeded workload inputs: KPIs from the `opprentice-datagen` presets and
//! the protocol lines that carry them.
//!
//! PV and #SR are rescaled with `presets::fast(…, 300)` to a 5-minute
//! interval; SRT stays at its native hourly interval. The benchmark seed is
//! mixed into each preset's own seed, so one seed gives one set of series
//! and the server sees nothing but the generated points.

use opprentice_datagen::presets;
use opprentice_timeseries::{Labels, TimeSeries};

/// The longest detector window, in weeks: the 5-week historical and TSD
/// configurations. A session is warm once it has seen more than this.
const LONGEST_WINDOW_WEEKS: usize = 5;

/// History every trained or onboarded session starts from: one week more
/// than the longest detector window.
pub const HISTORY_WEEKS: usize = LONGEST_WINDOW_WEEKS + 1;

/// The three studied KPIs of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Search page views, rescaled to 5 minutes.
    Pv,
    /// Number of slow responses, rescaled to 5 minutes.
    Sr,
    /// Search response time, native 60 minutes.
    Srt,
}

impl Preset {
    /// The preset's name as the datagen crate spells it.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Pv => "PV",
            Preset::Sr => "#SR",
            Preset::Srt => "SRT",
        }
    }
}

/// One generated KPI with exact ground truth.
pub struct Kpi {
    /// Which preset it came from.
    pub preset: Preset,
    /// Sampling interval in seconds.
    pub interval: u32,
    /// The series (`None` values are missing points).
    pub series: TimeSeries,
    /// Per-point ground truth from the generator.
    pub truth: Labels,
}

/// SplitMix64 finalizer: spreads a small benchmark seed over all 64 bits.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Kpi {
    /// Generates `weeks` whole weeks of `preset` for benchmark seed `seed`.
    pub fn generate(preset: Preset, seed: u64, weeks: usize) -> Kpi {
        let mut spec = match preset {
            Preset::Pv => presets::fast(&presets::pv(), 300),
            Preset::Sr => presets::fast(&presets::sr(), 300),
            Preset::Srt => presets::srt(),
        };
        spec.weeks = weeks;
        spec.seed ^= mix(seed);
        let kpi = spec.generate();
        Kpi {
            preset,
            interval: spec.interval,
            series: kpi.series,
            truth: kpi.truth,
        }
    }

    /// Points per day at this KPI's interval.
    pub fn points_per_day(&self) -> usize {
        self.series.points_per_day()
    }

    /// Points per week at this KPI's interval.
    pub fn points_per_week(&self) -> usize {
        self.series.points_per_week()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `OBSB` lines of one day each covering points `range`.
    pub fn obsb_days(&self, range: std::ops::Range<usize>) -> Vec<String> {
        let day = self.points_per_day();
        let mut lines = Vec::new();
        let mut i = range.start;
        while i < range.end {
            let end = (i + day).min(range.end);
            lines.push(obsb_line(
                self.series.timestamp_at(i),
                (i..end).map(|j| self.series.get(j)),
            ));
            i = end;
        }
        lines
    }

    /// The `OBS` line for point `i`.
    pub fn obs(&self, i: usize) -> String {
        obs_line(self.series.timestamp_at(i), self.series.get(i))
    }

    /// The `LABEL` line carrying the ground truth of points `range`.
    pub fn label(&self, range: std::ops::Range<usize>) -> String {
        let mut line = String::with_capacity(6 + range.len());
        line.push_str("LABEL ");
        for i in range {
            line.push(if self.truth.is_anomaly(i) { '1' } else { '0' });
        }
        line
    }
}

/// Renders a value token exactly as the server parses it back: Rust's
/// shortest round-trip form, or `nan` for a missing point.
fn value_token(out: &mut String, v: Option<f64>) {
    use std::fmt::Write as _;
    match v {
        Some(v) => write!(out, "{v}").expect("writing to a String"),
        None => out.push_str("nan"),
    }
}

/// `OBS <ts> <value|nan>`.
fn obs_line(ts: i64, v: Option<f64>) -> String {
    let mut line = format!("OBS {ts} ");
    value_token(&mut line, v);
    line
}

/// `OBSB <ts0> <v0> <v1> …`.
fn obsb_line(ts0: i64, values: impl Iterator<Item = Option<f64>>) -> String {
    let mut line = format!("OBSB {ts0}");
    for v in values {
        line.push(' ');
        value_token(&mut line, v);
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte the server would receive for one KPI.
    fn wire_bytes(preset: Preset, seed: u64) -> String {
        let kpi = Kpi::generate(preset, seed, 2);
        let mut all = kpi.obsb_days(0..kpi.len()).join("\n");
        all.push('\n');
        all.push_str(&kpi.label(0..kpi.len()));
        for i in 0..kpi.points_per_day() {
            all.push('\n');
            all.push_str(&kpi.obs(i));
        }
        all
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for preset in [Preset::Pv, Preset::Sr, Preset::Srt] {
            assert_eq!(wire_bytes(preset, 7), wire_bytes(preset, 7));
        }
    }

    #[test]
    fn another_seed_gives_different_inputs() {
        for preset in [Preset::Pv, Preset::Sr, Preset::Srt] {
            assert_ne!(wire_bytes(preset, 7), wire_bytes(preset, 8));
        }
    }

    #[test]
    fn value_tokens_round_trip_through_the_parser() {
        let kpi = Kpi::generate(Preset::Sr, 3, 1);
        for i in 0..kpi.len() {
            let line = kpi.obs(i);
            match opprentice_server::parse_request(&line) {
                Ok(opprentice_server::Request::Obs { timestamp, value }) => {
                    assert_eq!(timestamp, kpi.series.timestamp_at(i));
                    assert_eq!(value.map(f64::to_bits), kpi.series.get(i).map(f64::to_bits));
                }
                other => panic!("{line} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn day_lines_cover_the_range_once() {
        let kpi = Kpi::generate(Preset::Srt, 1, 1);
        let lines = kpi.obsb_days(0..kpi.len());
        assert_eq!(lines.len(), 7);
        let values: usize = lines.iter().map(|l| l.split_whitespace().count() - 2).sum();
        assert_eq!(values, kpi.len());
    }
}
