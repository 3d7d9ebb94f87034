//! Order statistics over measured samples.

/// A quantile read from a sample, with the sample's size.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    /// The value.
    pub value: f64,
    /// How many samples it was read from.
    pub n: usize,
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by nearest rank; `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(Quantile {
        value: sorted[rank - 1],
        n: sorted.len(),
    })
}

/// The median of `samples` (nearest rank), or 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).map_or(0.0, |q| q.value)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the benchmark's bounds are judged against.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let (Some(q1), Some(q2), Some(q3)) = (
        quantile(samples, 0.25),
        quantile(samples, 0.5),
        quantile(samples, 0.75),
    ) else {
        return 0.0;
    };
    if q2.value == 0.0 {
        0.0
    } else {
        (q3.value - q1.value) / q2.value.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5).unwrap().value, 50.0);
        assert_eq!(quantile(&xs, 0.99).unwrap().value, 99.0);
        assert_eq!(quantile(&xs, 1.0).unwrap().value, 100.0);
        assert_eq!(quantile(&xs, 0.0).unwrap().value, 1.0);
        assert_eq!(quantile(&xs, 0.5).unwrap().n, 100);
        assert!(quantile(&[], 0.5).is_none());
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let xs = [8.0, 9.0, 10.0, 11.0, 12.0];
        assert!((iqr_share(&xs) - 0.2).abs() < 1e-12);
    }
}
