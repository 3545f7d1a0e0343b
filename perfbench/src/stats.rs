//! Order statistics over latency samples.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; anything less is an error, never a printed number, because a
//! "p99" over a few hundred samples is the maximum under another name.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `0.0..=1.0`) of `samples`, or an error
/// naming the shortfall when fewer than [`MIN_BEYOND`] samples lie beyond
/// it. The median (`p = 0.5`) only needs one sample.
pub fn percentile(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("{what}: no samples"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if p > 0.5 && beyond < MIN_BEYOND {
        return Err(format!(
            "{what}: p{} needs at least {MIN_BEYOND} samples beyond it, \
             {n} samples leave {beyond}",
            (p * 100.0).round()
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of `samples` (nearest rank; errors on an empty set).
pub fn median(samples: &[f64], what: &str) -> Result<f64, String> {
    percentile(samples, 0.5, what)
}

/// Equal windows a measured run is split into for its windowed medians.
pub const WINDOWS: usize = 5;

/// Split `(completion time, value)` points of a run of `span_s` seconds into
/// [`WINDOWS`] equal windows by completion time; returns each window's values.
/// A burst of interference then disturbs one window, not the median over
/// them.
pub fn windows(points: &[(f64, f64)], span_s: f64) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); WINDOWS];
    for &(t, v) in points {
        let w = ((t / span_s * WINDOWS as f64) as usize).min(WINDOWS - 1);
        out[w].push(v);
    }
    out
}

/// Median over the windows of each window's median value.
pub fn windowed_median(points: &[(f64, f64)], span_s: f64, what: &str) -> Result<f64, String> {
    let medians = windows(points, span_s)
        .iter()
        .map(|w| median(w, what))
        .collect::<Result<Vec<f64>, String>>()?;
    median(&medians, what)
}

/// Median over the windows of each window's completions per second.
pub fn windowed_rate(points: &[(f64, f64)], span_s: f64, what: &str) -> Result<f64, String> {
    let width = span_s / WINDOWS as f64;
    let rates: Vec<f64> = windows(points, span_s)
        .iter()
        .map(|w| w.len() as f64 / width)
        .collect();
    median(&rates, what)
}

/// Percentile `p` of time-ordered samples as the median over up to
/// [`WINDOWS`] consecutive equal-count chunks, each large enough to support
/// `p` on its own; with too few samples for two chunks it is the plain
/// percentile, and with too few for one it is an error.
pub fn chunked_percentile(ordered: &[f64], p: f64, what: &str) -> Result<f64, String> {
    let needed = (MIN_BEYOND as f64 / (1.0 - p)).ceil() as usize;
    let chunks = (ordered.len() / needed).clamp(1, WINDOWS);
    let size = ordered.len() / chunks;
    let per_chunk = (0..chunks)
        .map(|c| {
            let end = if c + 1 == chunks {
                ordered.len()
            } else {
                (c + 1) * size
            };
            percentile(&ordered[c * size..end], p, what)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    median(&per_chunk, what)
}

/// Peak resident set size of this process in MiB (`VmHWM`), `None` where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_an_unsupported_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99, "x").unwrap(), 990.0);
        assert!(percentile(&samples[..999], 0.99, "x").is_err());
        assert_eq!(percentile(&samples[..100], 0.9, "x").unwrap(), 90.0);
        assert!(percentile(&samples[..99], 0.9, "x").is_err());
        assert_eq!(median(&[3.0, 1.0, 2.0], "x").unwrap(), 2.0);
        assert!(median(&[], "x").is_err());
    }

    #[test]
    fn chunked_percentile_drops_one_disturbed_chunk() {
        let mut ordered: Vec<f64> = (0..5_000).map(|i| f64::from(i % 1_000)).collect();
        for v in &mut ordered[1_000..2_000] {
            *v += 500.0;
        }
        assert_eq!(chunked_percentile(&ordered, 0.99, "x").unwrap(), 989.0);
        assert_eq!(
            chunked_percentile(&ordered[..1_500], 0.99, "x").unwrap(),
            992.0
        );
        assert!(chunked_percentile(&ordered[..999], 0.99, "x").is_err());
    }

    #[test]
    fn windowed_statistics_ignore_one_disturbed_window() {
        // 10 s, one completion every 10 ms of 2 ms; window 3 is twice as
        // slow and completes half as often.
        let mut points = Vec::new();
        let mut t = 0.0;
        while t < 10.0 {
            let slow = (6.0..8.0).contains(&t);
            points.push((t, if slow { 4.0 } else { 2.0 }));
            t += if slow { 0.02 } else { 0.01 };
        }
        assert_eq!(windowed_median(&points, 10.0, "x").unwrap(), 2.0);
        let rate = windowed_rate(&points, 10.0, "x").unwrap();
        assert!((rate - 100.0).abs() < 1.0, "{rate}");
        assert!(windowed_median(&points[..10], 10.0, "x").is_err());
    }
}
