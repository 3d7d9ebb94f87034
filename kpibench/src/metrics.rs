//! What the benchmark declares and emits: workloads, end-to-end metrics,
//! per-layer metrics, `BENCHMARK.json`, and the result line.
//!
//! `BENCHMARK.json` is rendered from the tables here, and a test keeps the
//! file on disk equal to the rendering, so a metric can never be declared
//! without being emitted or emitted under another unit.

use std::fmt::Write as _;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 15;

/// The declared workloads, each with why it exists.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "live",
        "online detection: two trained durable 5-minute sessions stream one OBS per round trip \
         (WAL flush, streaming extraction, compiled inference per point)",
    ),
    (
        "backfill",
        "onboarding: fresh untrained sessions receive 6 weeks of history as one-day OBSB lines \
         (batched fused kernels and the worker pool, no inference, WAL or training)",
    ),
];

/// The 12 detector families as the extractor names them, in plan order.
pub const FAMILIES: [&str; 12] = [
    "simple threshold",
    "diff",
    "simple MA",
    "weighted MA",
    "MA of diff",
    "EWMA",
    "TSD/TSD MAD",
    "historical average/MAD",
    "Holt-Winters",
    "SVD",
    "wavelet",
    "ARIMA",
];

/// A family name as a metric-name segment: lower case, runs of anything
/// but letters and digits become one `_`.
pub fn family_key(family: &str) -> String {
    let mut out = String::new();
    for c in family.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

fn declared(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> Declared {
    Declared {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics every workload reports with tracing off.
/// Throughput and the round-trip p99 are printed in the report but not
/// declared: on a 2-core host their run-to-run spread is too wide to gate
/// a change (see README.md).
pub fn end_to_end() -> Vec<Declared> {
    vec![
        declared("setup_s", "s", "lower", Some(0.25)),
        declared("rtt_p50_us", "us", "lower", Some(0.25)),
        declared("server_cpu_us_per_pt", "us", "lower", Some(0.25)),
        declared("peak_rss_mb", "MB", "lower", Some(0.1)),
    ]
}

/// The per-layer metrics every workload reports in the traced run.
pub fn per_layer() -> Vec<Declared> {
    let mut out = vec![
        declared("proto.parse_ns.obs", "ns", "lower", None),
        declared("proto.parse_ns.obsb_per_value", "ns", "lower", None),
        declared("service.unattributed_us", "us", "lower", None),
        declared("store.wal_bytes_per_pt", "B", "lower", None),
        declared("store.wal_lines_per_pt", "count", "lower", None),
        declared("store.snapshot_bytes", "B", "lower", None),
        declared("store.resume_lines_per_s", "lines/s", "higher", None),
        declared("store.durable_overhead_us", "us", "lower", None),
        declared("pipeline.observe_ns", "ns", "lower", None),
        declared("pipeline.observe_batch_ns_per_pt", "ns", "lower", None),
        declared("pipeline.ingest_labels_us", "us", "lower", None),
        declared("pipeline.start_retrain_ms", "ms", "lower", None),
        declared("pipeline.retrain_wall_ms", "ms", "lower", None),
        declared("pipeline.extract_ns_per_pt", "ns", "lower", None),
        declared("pipeline.infer_ns_per_pt", "ns", "lower", None),
        declared("pipeline.train_ms", "ms", "lower", None),
        declared("pipeline.rss_growth_b_per_pt", "B", "lower", None),
        declared("features.observe_ns", "ns", "lower", None),
        declared("features.observe_batch_ns_per_pt", "ns", "lower", None),
        declared("features.n_shards", "count", "lower", None),
    ];
    for family in FAMILIES {
        let key = family_key(family);
        out.push(declared(
            &format!("features.family.{key}.stream_ns"),
            "ns",
            "lower",
            None,
        ));
        out.push(declared(
            &format!("features.family.{key}.batch_ns"),
            "ns",
            "lower",
            None,
        ));
    }
    out.extend([
        declared("compiled.predict_ns", "ns", "lower", None),
        declared("compiled.nodes", "count", "lower", None),
        declared("forest.fit_s", "s", "lower", None),
        declared("forest.fit_rows_per_s", "rows/s", "higher", None),
        declared("predictor.five_fold_s", "s", "lower", None),
    ]);
    out
}

/// `BENCHMARK.json`, exactly as it sits at the repository root.
pub fn benchmark_json() -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"command\": [\"bash\", \"kpibench/run.sh\"],\n");
    s.push_str("  \"paths\": [\"kpibench\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("writing to a String");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}")
            .expect("writing to a String");
    }
    s.push_str("  ],\n");
    for (key, list, last) in [
        ("end_to_end", end_to_end(), false),
        ("per_layer", per_layer(), true),
    ] {
        writeln!(s, "  \"{key}\": [").expect("writing to a String");
        for (i, m) in list.iter().enumerate() {
            let comma = if i + 1 < list.len() { "," } else { "" };
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            writeln!(
                s,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}{comma}",
                m.name, m.unit, m.better
            )
            .expect("writing to a String");
        }
        s.push_str(if last { "  ]\n" } else { "  ],\n" });
    }
    s.push_str("}\n");
    s
}

/// Renders the result line. Panics if `values` does not hold exactly the
/// `declared` metrics — a bug in the benchmark, never in the program.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[Declared],
    values: &[(String, f64)],
) -> String {
    let mut names: Vec<&str> = values.iter().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    let mut want: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    want.sort_unstable();
    assert_eq!(names, want, "emitted metrics differ from the declared ones");
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in declared.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .map(|(_, v)| *v)
            .expect("checked above");
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        )
        .expect("writing to a String");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn metric_and_workload_names_are_well_formed() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|d| d.name).collect();
        all.extend(per_layer().into_iter().map(|d| d.name));
        all.extend(WORKLOADS.iter().map(|(n, _)| n.to_string()));
        for name in &all {
            assert!(valid_name(name), "bad name {name}");
        }
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn benchmark_json_on_disk_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: kpibench --benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn family_keys_are_metric_segments() {
        assert_eq!(family_key("TSD/TSD MAD"), "tsd_tsd_mad");
        assert_eq!(
            family_key("historical average/MAD"),
            "historical_average_mad"
        );
        assert_eq!(family_key("Holt-Winters"), "holt_winters");
        assert_eq!(family_key("MA of diff"), "ma_of_diff");
    }

    #[test]
    fn families_match_the_extraction_plan() {
        let mut seen: Vec<&str> = Vec::new();
        for unit in opprentice_detectors::fused::plan(opprentice_detectors::registry(300)) {
            let f = unit.kernel.family();
            if !seen.contains(&f) {
                seen.push(f);
            }
        }
        assert_eq!(seen, FAMILIES);
    }

    #[test]
    fn result_line_carries_every_declared_unit() {
        let declared = end_to_end();
        let values: Vec<(String, f64)> = declared.iter().map(|d| (d.name.clone(), 1.5)).collect();
        let line = result_line(true, 3, 0, &declared, &values);
        for d in &declared {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                d.name, d.unit
            )));
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
    }

    #[test]
    #[should_panic(expected = "emitted metrics differ")]
    fn a_missing_metric_is_a_bug() {
        let declared = end_to_end();
        result_line(true, 1, 0, &declared, &[("setup_s".into(), 1.0)]);
    }
}
