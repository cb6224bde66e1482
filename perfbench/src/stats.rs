//! Order statistics used by the benchmark: medians, the quartiles the
//! steadiness check uses, interpolated percentiles, and the choice of the
//! tail percentile.

/// Sorted copy of `xs` (NaN-free input assumed; `total_cmp` keeps the
/// sort total either way).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three cut points dividing `xs` into quarters, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` does with its default
/// `"exclusive"` method. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, cut) in out.iter_mut().enumerate() {
        let i = i + 1;
        // j = floor(i*m/4), clamped to 1..=n-1 as Python does.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile range as a share of the median — the steadiness figure
/// a metric's bound is compared against. `None` below two samples or on a
/// zero median.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The `p`-th percentile (0..=100) by linear interpolation between closest
/// ranks (the common "type 7" definition); `None` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Candidate tail percentiles in tenths of a percent, highest first
/// (integers, so "exactly ten beyond" is not lost to rounding).
const TAIL_LADDER: [usize; 8] = [999, 995, 990, 980, 950, 900, 750, 500];

/// The highest percentile on the ladder that still has at least `beyond`
/// samples above it when `n` samples are taken. Falls back to the median
/// when even that is too few. The caller passes the *guaranteed* sample
/// count of a run, so the percentile is fixed per workload and does not
/// flip with how many repetitions happened to fit.
pub fn tail_percentile(n: usize, beyond: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| n * (1000 - p) >= beyond * 1000)
        .unwrap_or(500) as f64
        / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&xs).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]).unwrap();
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        let q = quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]).unwrap();
        assert!(
            close(q[0], 15.0) && close(q[1], 30.0) && close(q[2], 45.0),
            "{q:?}"
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(iqr_share(&xs).unwrap(), (8.25 - 2.75) / 5.5));
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 50.0), Some(3.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        assert!(close(percentile(&xs, 90.0).unwrap(), 4.6));
        assert!(close(percentile(&xs, 25.0).unwrap(), 2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000, 10), 99.9);
        assert_eq!(tail_percentile(1_000, 10), 99.0);
        assert_eq!(tail_percentile(999, 10), 98.0);
        assert_eq!(tail_percentile(200, 10), 95.0);
        assert_eq!(tail_percentile(100, 10), 90.0);
        assert_eq!(tail_percentile(99, 10), 75.0);
        assert_eq!(tail_percentile(40, 10), 75.0);
        assert_eq!(tail_percentile(5, 10), 50.0);
        // Whatever the count, at least `beyond` samples lie above the pick.
        for n in 20..3000 {
            let p = tail_percentile(n, 10);
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }
}
