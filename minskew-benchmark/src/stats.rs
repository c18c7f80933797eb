//! Order statistics used by the benchmark and by `compare`.

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least a fraction `p` of the sample at or below it. A p99 over `n`
/// samples therefore has `n - ceil(0.99 n)` samples strictly beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median as Python's `statistics.median` defines it (the mean of the
/// two middle values of an even-sized sample).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// computes them, so spreads printed here match the ones the benchmark is
/// judged by.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative for tiny samples, exactly as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (`0` for a zero median).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Sorts a latency sample (nanoseconds) into microseconds.
pub fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_leave_the_stated_tail() {
        // 1000 samples: p99 is the 990th value, leaving 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 0.99)).count(), 10);
        // 200 samples: p95 leaves 10 beyond, p99 only 2.
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(w.iter().filter(|&&x| x > percentile(&w, 0.95)).count(), 10);
        assert_eq!(w.iter().filter(|&&x| x > percentile(&w, 0.99)).count(), 2);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
