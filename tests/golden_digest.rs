//! Golden severity digest: the full 133-column severity matrix that
//! `extract_features` produces for each of the three studied KPIs, hashed
//! bit for bit and pinned as a constant.
//!
//! The batch and fused differential suites compare two extraction paths
//! against each other, but both paths share the same inner kernels
//! (`SortedWindow`, the SVD detector, …), so an edit inside one of those
//! kernels moves both sides together and slips past them. This test pins
//! the absolute output instead: any change to a single severity bit of any
//! configuration on any preset fails it.
//!
//! The digest is 64-bit FNV-1a over the little-endian bytes of
//! `f64::to_bits` of every cell, row-major. PV and #SR are rescaled to a
//! 5-minute interval (`presets::fast(…, 300)`); SRT runs at its native
//! hourly interval. Each series runs its full preset length (25, 19 and 16
//! weeks), far past the longest (5-week) detector window.
//!
//! If a change is *meant* to alter severities, re-pin the constants in the
//! same change and say why in its description.

use opprentice_repro::datagen::presets;
use opprentice_repro::opprentice::extract_features;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn severity_digest(spec: &opprentice_repro::datagen::model::KpiSpec) -> u64 {
    let kpi = spec.generate();
    let matrix = extract_features(&kpi.series);
    assert_eq!(matrix.len(), kpi.series.len());
    assert_eq!(matrix.n_features(), 133);
    let mut h = FNV_OFFSET;
    for i in 0..matrix.len() {
        for &v in matrix.row(i) {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

#[test]
fn pv_severity_matrix_matches_golden_digest() {
    let d = severity_digest(&presets::fast(&presets::pv(), 300));
    assert_eq!(
        format!("{d:016x}"),
        "cf577180b128b41e",
        "PV severity digest moved"
    );
}

#[test]
fn sr_severity_matrix_matches_golden_digest() {
    let d = severity_digest(&presets::fast(&presets::sr(), 300));
    assert_eq!(
        format!("{d:016x}"),
        "00a272c14c7e7530",
        "#SR severity digest moved"
    );
}

#[test]
fn srt_severity_matrix_matches_golden_digest() {
    let d = severity_digest(&presets::srt());
    assert_eq!(
        format!("{d:016x}"),
        "da4cc23efe2edfbc",
        "SRT severity digest moved"
    );
}
