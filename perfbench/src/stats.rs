//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! tail percentile a sample can support, and backlog-growth detection for
//! the serving rate ladder.

/// Nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `sorted`
/// (ascending). Returns `None` on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// 1-based nearest rank of the `p`-th percentile in a sample of `n`
/// (the tolerance absorbs the binary rounding of values like 99.9).
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-6).ceil().max(0.0) as usize
}

/// Sorts `values` ascending (NaN-free input) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    values
}

/// Median of `values` (mean of the middle pair on even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Mean of `values` (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The percentiles a latency report may quote, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it in a sample of `n` — the tail a sample of that size
/// can actually support. `None` when even the median cannot.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

/// Whether the backlog (`sent − completed`) grew over a ladder rung.
///
/// `sent` and `done` are event times (any unit, any order); the rung
/// spans `[start, end)`. The backlog is sampled at `probes` evenly
/// spaced instants and the mean of the last quarter of the probes is
/// compared with the mean of the first quarter: growth beyond
/// `max(min_growth, rel_growth × events in the rung)` means the system
/// fell behind the offered rate.
pub fn backlog_grows(
    sent: &[f64],
    done: &[f64],
    start: f64,
    end: f64,
    min_growth: f64,
    rel_growth: f64,
) -> bool {
    const PROBES: usize = 40;
    let sent = sorted(sent.to_vec());
    let done = sorted(done.to_vec());
    let count_le = |v: &[f64], t: f64| v.partition_point(|&x| x <= t) as f64;
    let backlog: Vec<f64> = (0..PROBES)
        .map(|i| {
            let t = start + (end - start) * (i as f64 + 0.5) / PROBES as f64;
            count_le(&sent, t) - count_le(&done, t)
        })
        .collect();
    let q = PROBES / 4;
    let head = mean(&backlog[..q]);
    let tail = mean(&backlog[PROBES - q..]);
    let in_rung = sent.iter().filter(|&&t| t >= start && t < end).count() as f64;
    tail - head > min_growth.max(rel_growth * in_rung)
}

/// The rung a ladder climb starts on: the bottom one for the first
/// climb, later `backoff` rungs below the median (the lower middle on
/// even counts) of the highest rungs the earlier climbs passed.
pub fn climb_start(passed: &[usize], backoff: usize) -> usize {
    let mut p = passed.to_vec();
    p.sort_unstable();
    p.get(p.len().saturating_sub(1) / 2).map_or(0, |m| m.saturating_sub(backoff))
}

/// The next rung of a staircase climb over `rungs` rungs after rung
/// `idx` passed or failed, or `None` when the climb ends. `prev` is the
/// previous rung's result in this climb (`None` on its first rung). A
/// climb goes up `stride` rungs (at most to the top one) while rungs
/// pass, ending at the first failure or at the top; if its first rung
/// fails it steps down one rung at a time instead, ending at the first
/// pass or the bottom.
pub fn staircase_next(
    idx: usize,
    pass: bool,
    prev: Option<bool>,
    rungs: usize,
    stride: usize,
) -> Option<usize> {
    match (pass, prev) {
        (true, Some(false)) | (false, Some(true)) => None,
        (true, _) => (idx + 1 < rungs).then(|| (idx + stride).min(rungs - 1)),
        (false, _) => idx.checked_sub(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Fewer than 20 samples cannot even support the median.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.99));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn steady_backlog_does_not_grow() {
        // 1000 events/s for one second, each answered 2 ms after it was
        // sent: the backlog hovers at 2 and never grows.
        let sent: Vec<f64> = (0..1000).map(|i| i as f64 * 1e-3).collect();
        let done: Vec<f64> = sent.iter().map(|t| t + 2e-3).collect();
        assert!(!backlog_grows(&sent, &done, 0.0, 1.0, 8.0, 0.05));
    }

    #[test]
    fn falling_behind_grows_the_backlog() {
        // Offered 1000/s but served at 800/s: completions drift later and
        // later, so the backlog climbs by ~200 over the rung.
        let sent: Vec<f64> = (0..1000).map(|i| i as f64 * 1e-3).collect();
        let done: Vec<f64> = (0..1000).map(|i| (i + 1) as f64 * 1.25e-3).collect();
        assert!(backlog_grows(&sent, &done, 0.0, 1.0, 8.0, 0.05));
    }

    #[test]
    fn a_burst_that_drains_is_not_growth() {
        // A stall in the first half (nothing completes for 100 ms) that is
        // caught up well before the end of the rung.
        let sent: Vec<f64> = (0..1000).map(|i| i as f64 * 1e-3).collect();
        let done: Vec<f64> =
            sent.iter().map(|&t| if (0.2..0.3).contains(&t) { 0.3 } else { t + 1e-3 }).collect();
        assert!(!backlog_grows(&sent, &done, 0.0, 1.0, 8.0, 0.05));
    }

    #[test]
    fn climbs_start_below_the_median_climb() {
        assert_eq!(climb_start(&[], 3), 0);
        assert_eq!(climb_start(&[9], 3), 6);
        // Median of [4, 9, 10] is 9; a lucky 10 or an unlucky 4 does not
        // move the start.
        assert_eq!(climb_start(&[10, 4, 9], 3), 6);
        assert_eq!(climb_start(&[2, 8], 3), 0);
    }

    #[test]
    fn staircase_goes_up_while_passing_and_down_until_a_pass() {
        // `cap`: the highest rung that passes (`None`: none does).
        let walk = |start: usize, cap: Option<usize>, stride: usize| {
            let (mut idx, mut prev, mut seen) = (Some(start), None, Vec::new());
            while let Some(i) = idx {
                seen.push(i);
                let pass = cap.is_some_and(|c| i <= c);
                idx = staircase_next(i, pass, prev, 10, stride);
                prev = Some(pass);
            }
            seen
        };
        // Up through the passing rungs, ending at the first failure.
        assert_eq!(walk(3, Some(5), 1), vec![3, 4, 5, 6]);
        // Starting above capacity it steps down to the first pass.
        assert_eq!(walk(8, Some(5), 1), vec![8, 7, 6, 5]);
        // Nothing passes: it ends at the bottom.
        assert_eq!(walk(2, None, 1), vec![2, 1, 0]);
        // Everything passes: it ends at the top.
        assert_eq!(walk(7, Some(9), 1), vec![7, 8, 9]);
        // A first rung that passes at the top ends the climb too.
        assert_eq!(walk(9, Some(9), 1), vec![9]);
        // A coarse climb skips rungs going up and stops at the top one.
        assert_eq!(walk(0, Some(5), 4), vec![0, 4, 8]);
        assert_eq!(walk(2, Some(9), 4), vec![2, 6, 9]);
    }
}
