//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Percentile of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Median (midpoint of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Latency samples grouped into windows (a round, a session, a slice of a
/// session). A percentile is reported as the median over windows of each
/// window's percentile. On a shared host a neighbour's burst stalls whole
/// windows at random, and the host switches round trips between a fast and
/// a slow mode (about 13 µs and 20 µs for a cached read) for seconds at a
/// time; the median over windows follows the mode most of the run was in
/// and leaves single bursts out, while a pause of the program's own, which
/// recurs in most windows, still moves the figure.
#[derive(Debug, Default)]
pub struct Windowed {
    windows: Vec<Vec<f64>>,
}

impl Windowed {
    pub fn push(&mut self, window: Vec<f64>) {
        if !window.is_empty() {
            self.windows.push(window);
        }
    }

    pub fn percentile(&self, p: f64) -> f64 {
        median(&self.per_window(p))
    }

    /// Each window's percentile, in window order.
    pub fn per_window(&self, p: f64) -> Vec<f64> {
        self.windows.iter().map(|w| percentile(w, p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
