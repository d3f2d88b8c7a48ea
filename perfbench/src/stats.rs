//! The arithmetic behind every reported number: percentiles, throughput,
//! error rate and the traced run's residual.

/// Samples a percentile must leave beyond it before it is reported: a
/// p90 from fewer than 100 samples would rest on fewer than ten requests.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `pct`-th percentile of `samples` by nearest rank (the value at
/// 1-based rank `ceil(pct/100 · n)` in sorted order), or `None` when fewer
/// than [`MIN_TAIL_SAMPLES`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    let n = samples.len();
    let rank = (pct as usize * n).div_ceil(100);
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The middle value (upper middle for an even count) — for small sample
/// sets such as repeated set-ups, where [`percentile`]'s tail rule does
/// not apply.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Document nodes covered per second of busy time, in millions.
pub fn throughput_mnodes_s(nodes: u64, busy_ns: u64) -> f64 {
    assert!(busy_ns > 0, "throughput over zero busy time");
    nodes as f64 / busy_ns as f64 * 1e3
}

/// Failed or wrong answers as a share of attempted requests.
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "error rate of no requests");
    failed as f64 / attempted as f64
}

/// The part of the untraced median that no traced layer accounts for:
/// process start and exit, freeing the request's data, and whatever the
/// replay does not reproduce. Negative when the traced layers together
/// take longer than the untraced request.
pub fn residual_ms(untraced_p50_ms: f64, layer_ms: &[f64]) -> f64 {
    untraced_p50_ms - layer_ms.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_one_hundred_samples() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 90), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90), Some(90.0));
    }

    #[test]
    fn median_needs_twenty_samples() {
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&nineteen, 50), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50), Some(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 50), Some(100.0));
        assert_eq!(percentile(&xs, 90), Some(180.0));
        assert_eq!(percentile(&xs, 95), Some(190.0));
        assert_eq!(percentile(&xs, 99), None);
    }

    #[test]
    fn small_set_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn throughput_is_nodes_over_busy_time() {
        // 2 million nodes in half a second of busy time.
        assert_eq!(throughput_mnodes_s(2_000_000, 500_000_000), 4.0);
    }

    #[test]
    fn error_rate_counts_failures_per_attempt() {
        assert_eq!(error_rate(0, 150), 0.0);
        assert_eq!(error_rate(3, 150), 0.02);
    }

    #[test]
    fn residual_is_untraced_minus_layer_sum() {
        assert_eq!(residual_ms(10.0, &[2.0, 3.0, 1.5]), 3.5);
        assert_eq!(residual_ms(4.0, &[2.5, 2.5]), -1.0);
    }
}
