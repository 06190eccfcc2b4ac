//! Light-weight timing and curve-fitting used by the runtime experiments
//! E2, E5 and E6 (the build is offline-only, so there is no external
//! benchmark harness; these helpers feed the printed scaling tables).

use std::time::{Duration, Instant};

/// Median wall-clock time of `runs` executions of `f`.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn median_time<F: FnMut()>(runs: usize, mut f: F) -> Duration {
    assert!(runs > 0, "need at least one run");
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Ordinary least squares `y ≈ slope·x + intercept`, returning
/// `(slope, intercept, r²)`.
///
/// # Panics
///
/// Panics if the series differ in length or have fewer than two points.
#[must_use]
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "series length mismatch");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    if sxx == 0.0 {
        // All x equal: the data is a vertical line, no finite slope exists
        // and x explains none of y's variance. Report a flat fit through
        // the mean rather than dividing by zero.
        return (0.0, my, if syy == 0.0 { 1.0 } else { 0.0 });
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    (slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let (slope, intercept, r2) = linear_fit(&xs, &ys);
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_r2_detects_noise() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, -1.0, 1.0, -1.0, 1.0];
        let (_, _, r2) = linear_fit(&xs, &ys);
        assert!(r2 < 0.5);
    }

    #[test]
    fn median_time_runs() {
        let d = median_time(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn median_time_single_run() {
        let mut calls = 0;
        let d = median_time(1, || {
            calls += 1;
        });
        assert_eq!(calls, 1);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn median_time_zero_runs_rejected() {
        median_time(0, || {});
    }

    #[test]
    fn fit_two_points_is_exact() {
        let (slope, intercept, r2) = linear_fit(&[0.0, 2.0], &[1.0, 5.0]);
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_degenerate_all_equal_x() {
        // Vertical data: no finite slope; the fit falls back to the mean
        // and every value stays finite (this used to divide by zero).
        let (slope, intercept, r2) = linear_fit(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]);
        assert_eq!(slope, 0.0);
        assert!((intercept - 2.0).abs() < 1e-12);
        assert_eq!(r2, 0.0);
        // Fully constant data is a perfect (flat) fit.
        let (slope, intercept, r2) = linear_fit(&[3.0, 3.0], &[4.0, 4.0]);
        assert_eq!(slope, 0.0);
        assert!((intercept - 4.0).abs() < 1e-12);
        assert_eq!(r2, 1.0);
    }

    #[test]
    fn fit_constant_y_is_flat_and_perfect() {
        let (slope, intercept, r2) = linear_fit(&[1.0, 2.0, 3.0], &[7.0, 7.0, 7.0]);
        assert!(slope.abs() < 1e-12);
        assert!((intercept - 7.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }
}
