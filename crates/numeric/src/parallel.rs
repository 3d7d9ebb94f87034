//! The single thread-count knob shared by every parallel site.
//!
//! Both batched feature extraction (`opprentice::features`) and the random
//! forest trainer resolve their parallelism through
//! [`configured_threads`], so one environment variable —
//! `OPPRENTICE_THREADS` — controls the whole process. Parallelism is a
//! scheduling choice only: every parallel path in this workspace is
//! bit-identical across thread counts, so the knob trades latency for CPU,
//! never results.

/// The environment variable naming the process-wide thread budget.
pub const THREADS_ENV: &str = "OPPRENTICE_THREADS";

/// The number of worker threads parallel sites should use.
///
/// Reads `OPPRENTICE_THREADS` (a positive integer); when unset or
/// unparsable, falls back to [`std::thread::available_parallelism`]. Always
/// returns at least 1.
pub fn configured_threads() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
}

fn parse_threads(raw: Option<&str>) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_value_wins() {
        assert_eq!(parse_threads(Some("3")), 3);
        assert_eq!(parse_threads(Some(" 12 ")), 12);
        assert_eq!(parse_threads(Some("1")), 1);
    }

    #[test]
    fn invalid_values_fall_back_to_hardware() {
        let hw = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        for bad in [None, Some(""), Some("0"), Some("-2"), Some("many")] {
            assert_eq!(parse_threads(bad), hw, "{bad:?}");
        }
    }

    #[test]
    fn always_at_least_one() {
        assert!(configured_threads() >= 1);
    }
}
