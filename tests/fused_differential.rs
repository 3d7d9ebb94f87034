//! Differential proof obligations for the config-fused extraction engine:
//!
//! - every fused family kernel is **bit-identical** to the per-config
//!   scalar detectors it replaces, over all 133 registry configurations,
//!   for arbitrary batch boundaries, missing-value runs and non-finite
//!   inputs (normalized to missing at the serving boundary);
//! - a kernel cloned mid-stream continues bit-identically to the original
//!   (snapshot/restore path);
//! - which thread runs which unit never changes a single output bit:
//!   random chunking mixes the inline path (1–3 points) with the threaded
//!   path (4 or more), and self-scheduled units change threads between
//!   batches;
//! - the scalar fallback path (extension registry: Opaque specs) fuses
//!   correctly too.
//!
//! The oracle is always the raw scalar registry driven point-by-point
//! through `observe_clamped` — *not* the extraction engine, so the two
//! implementations stay independent.

use opprentice_repro::detectors::fused::plan;
use opprentice_repro::detectors::registry::registry;
use opprentice_repro::opprentice::features::OnlineExtractor;
use proptest::prelude::*;

const INTERVAL: u32 = 3600;

/// A KPI segment with seasonal shape, deterministic pseudo-noise, spikes,
/// *long missing runs* (the Holt–Winters self-heal path) and occasional
/// NaN values (treated as missing upstream; here fed as `None`).
fn series_strategy() -> impl Strategy<Value = Vec<Option<f64>>> {
    (
        50.0f64..5000.0,         // base level
        0.0f64..0.9,             // seasonal amplitude
        0.0f64..0.3,             // noise scale
        0.0f64..0.2,             // missing ratio
        0.0f64..0.04,            // missing-burst start probability
        any::<u64>(),            // seed
        (24usize * 3)..(24 * 6), // length: 3..6 days hourly
    )
        .prop_map(|(base, amp, noise, missing, burst, seed, len)| {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut burst_left = 0usize;
            (0..len)
                .map(|i| {
                    if burst_left > 0 {
                        burst_left -= 1;
                        return None;
                    }
                    if next() < burst {
                        burst_left = 3 + (next() * 20.0) as usize;
                        return None;
                    }
                    if next() < missing {
                        return None;
                    }
                    let season = 1.0 + amp * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
                    let spike = if next() < 0.02 { base } else { 0.0 };
                    Some((base * season + base * noise * (next() - 0.5) + spike).max(0.0))
                })
                .collect()
        })
}

/// The scalar oracle: every registry configuration driven per point.
fn scalar_rows(values: &[Option<f64>]) -> Vec<Vec<Option<u64>>> {
    let mut reg = registry(INTERVAL);
    values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let ts = i as i64 * i64::from(INTERVAL);
            reg.iter_mut()
                .map(|cfg| cfg.observe_clamped(ts, *v).map(f64::to_bits))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// THE fusion contract: the fused engine, fed in random chunks of 1–37
    /// points (inline and threaded batches, units moving between threads),
    /// reproduces the scalar registry's severities bit for bit over all
    /// 133 configurations.
    #[test]
    fn fused_extraction_is_bit_identical_to_scalar_registry(
        values in series_strategy(),
        chunk_seed in any::<u64>(),
    ) {
        let expected = scalar_rows(&values);
        let mut fused = OnlineExtractor::new(INTERVAL);
        let m = fused.n_features();
        prop_assert_eq!(m, 133);

        let mut state = chunk_seed | 1;
        let mut i = 0usize;
        while i < values.len() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let n = 1 + (state % 37) as usize;
            let end = (i + n).min(values.len());
            let timestamps: Vec<i64> =
                (i..end).map(|j| j as i64 * i64::from(INTERVAL)).collect();
            let rows = fused.observe_batch(&timestamps, &values[i..end]);
            for (k, j) in (i..end).enumerate() {
                let got: Vec<Option<u64>> =
                    rows[k * m..(k + 1) * m].iter().map(|s| s.map(f64::to_bits)).collect();
                prop_assert_eq!(
                    got,
                    expected[j].clone(),
                    "row {} diverged (chunk {}..{})", j, i, end
                );
            }
            i = end;
        }
    }

    /// Each fused kernel cloned mid-stream continues bit-identically, and
    /// both tracks keep matching the scalar oracle.
    #[test]
    fn fused_kernels_clone_mid_stream_bit_identically(
        values in series_strategy(),
        cut_frac in 0.1f64..0.9,
    ) {
        let cut = ((values.len() as f64 * cut_frac) as usize).clamp(1, values.len() - 1);
        let expected = scalar_rows(&values);
        for mut unit in plan(registry(INTERVAL)) {
            let k = unit.kernel.n_configs();
            let mut row = vec![None; k];
            for (i, v) in values[..cut].iter().enumerate() {
                unit.kernel.observe(i as i64 * i64::from(INTERVAL), *v, &mut row);
            }
            let mut dup = unit.kernel.clone_box();
            let mut dup_row = vec![None; k];
            for (off, v) in values[cut..].iter().enumerate() {
                let i = cut + off;
                let ts = i as i64 * i64::from(INTERVAL);
                unit.kernel.observe(ts, *v, &mut row);
                dup.observe(ts, *v, &mut dup_row);
                for (j, &col) in unit.columns.iter().enumerate() {
                    prop_assert_eq!(
                        row[j].map(f64::to_bits), expected[i][col],
                        "{} column {} diverged at point {}", unit.kernel.family(), col, i
                    );
                    prop_assert_eq!(
                        dup_row[j].map(f64::to_bits), expected[i][col],
                        "clone of {} column {} diverged at point {}",
                        unit.kernel.family(), col, i
                    );
                }
            }
        }
    }
}

/// The extension registry (143 configs: Table 3 plus CUSUM, sliding
/// percentile, seasonal ESD — all `Opaque` specs) runs through the fused
/// engine's scalar fallback and matches the per-config oracle.
#[test]
fn extension_registry_matches_scalar_oracle() {
    use opprentice_repro::detectors::extensions::extended_registry;

    let mut oracle = extended_registry(INTERVAL);
    let mut fused = OnlineExtractor::with_configs(extended_registry(INTERVAL));
    let m = fused.n_features();
    assert_eq!(m, oracle.len());

    let values: Vec<Option<f64>> = (0..24 * 5)
        .map(|i| {
            if i % 29 == 13 {
                None
            } else {
                Some(100.0 + 15.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            }
        })
        .collect();
    let timestamps: Vec<i64> = (0..values.len())
        .map(|i| i as i64 * i64::from(INTERVAL))
        .collect();

    // One big batch across threads, checked row by row.
    let rows = fused.observe_batch(&timestamps, &values).to_vec();
    for (i, v) in values.iter().enumerate() {
        for (c, cfg) in oracle.iter_mut().enumerate() {
            assert_eq!(
                rows[i * m + c].map(f64::to_bits),
                cfg.observe_clamped(timestamps[i], *v).map(f64::to_bits),
                "{} diverged at point {i}",
                cfg.label()
            );
        }
    }
}

/// NaN and infinite inputs are normalized to *missing* at the serving
/// boundary (`proto::parse_value` rejects/maps non-finite values) — the
/// detector contract forbids raw NaN inside the kernels (`SortedWindow`
/// asserts on it in debug builds). This test applies the same boundary
/// normalization and checks the fused engine stays lockstep with the
/// scalar oracle through the resulting dense missing pattern.
#[test]
fn non_finite_inputs_normalize_to_missing_and_stay_lockstep() {
    let values: Vec<Option<f64>> = (0..24 * 4)
        .map(|i| match i % 17 {
            5 => Some(f64::NAN),
            9 => Some(f64::INFINITY),
            11 => None,
            _ => Some(100.0 + (i % 24) as f64),
        })
        // The serving boundary: non-finite values never reach a detector.
        .map(|v| v.filter(|x| x.is_finite()))
        .collect();
    let expected = scalar_rows(&values);
    let mut fused = OnlineExtractor::new(INTERVAL);
    let m = fused.n_features();
    for (i, v) in values.iter().enumerate() {
        let ts = i as i64 * i64::from(INTERVAL);
        let row = fused.observe(ts, *v);
        for c in 0..m {
            assert_eq!(
                row[c].map(f64::to_bits),
                expected[i][c],
                "feature {c} diverged at point {i}"
            );
        }
    }
}
