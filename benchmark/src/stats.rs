//! Order statistics the report is built from: p50 with the highest percentile
//! the sample count supports, the quiet quartile over the slices of a phase,
//! and the quartiles and spread `repeat` computes over runs.

/// Sort a sample vector in place (samples are finite by construction).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it, or `None` when even p90 does not.
pub fn supported_percentile(samples: usize) -> Option<f64> {
    // `(percentile, samples per one sample beyond it)`: integers, so that
    // 100 samples support p90 exactly.
    [
        (99.99, 10_000),
        (99.9, 1_000),
        (99.0, 100),
        (95.0, 20),
        (90.0, 10),
    ]
    .into_iter()
    .find(|(_, per)| samples / per >= 10)
    .map(|(p, _)| p)
}

/// Median of an unsorted slice; 0 for an empty one.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Quartile cut points as Python's `statistics.quantiles(v, n=4)` gives them
/// (the exclusive method), so `repeat` reports the spread the driver will
/// compute. Needs at least two values.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need two values");
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median (the driver's spread).
pub fn spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}

/// p50 plus the tail the sample count supports, for the report line.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub p50: f64,
    pub samples: usize,
    /// `(percentile, value)` of the highest supported percentile.
    pub tail: Option<(f64, f64)>,
}

pub fn latency(samples: &[f64]) -> Latency {
    let mut s = samples.to_vec();
    sort(&mut s);
    Latency {
        p50: percentile(&s, 50.0),
        samples: s.len(),
        tail: supported_percentile(s.len()).map(|p| (p, percentile(&s, p))),
    }
}

/// The quiet quartile of per-slice latencies: the 25th percentile.
///
/// Interference on a shared sandbox is one-sided — a busy neighbour only
/// ever slows a slice down — and comes in spells of several seconds. Every
/// timed phase is cut into slices spread over the whole run; each slice
/// yields its own p50 (or rate), and the run reports the quartile on the
/// quiet side, which stays put while up to three quarters of the run are
/// disturbed. The median over slices is printed beside it.
pub fn quiet_low(per_slice: &[f64]) -> f64 {
    let mut s = per_slice.to_vec();
    sort(&mut s);
    percentile(&s, 25.0)
}

/// The quiet quartile of per-slice rates: the 75th percentile.
pub fn quiet_high(per_slice: &[f64]) -> f64 {
    let mut s = per_slice.to_vec();
    sort(&mut s);
    percentile(&s, 75.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(50), None);
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn latency_reports_p50_and_supported_tail() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let l = latency(&v);
        assert_eq!(l.samples, 1000);
        assert_eq!(l.p50, 500.0);
        assert_eq!(l.tail, Some((99.0, 989.0)));
        assert!(latency(&[1.0, 2.0]).tail.is_none());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            [15.0, 40.0, 120.0]
        );
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_quartiles_ignore_the_disturbed_side() {
        // Eight slices, three of them slowed by a neighbour.
        let latency = [100.0, 101.0, 99.0, 100.5, 140.0, 155.0, 130.0, 100.2];
        assert!((quiet_low(&latency) - 100.0).abs() < 0.3);
        let rate = [10.0, 10.1, 9.9, 10.05, 7.0, 6.5, 7.7, 10.02];
        assert!((quiet_high(&rate) - 10.05).abs() <= 0.05);
        assert_eq!(quiet_low(&[]), 0.0);
        assert_eq!(quiet_high(&[3.0]), 3.0);
    }
}
