//! The benchmark's own statistics: nearest-rank percentiles, self-time
//! subtraction and arrival-window bucketing.

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p / 100 × n)`, clamped to `1..=n`. This is the rule
/// `dysta::sim::percentile_ns` uses, so the benchmark's p50/p90 read
/// the same way as the simulator's own latency percentiles.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Nearest-rank median (the lower middle value for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Self time of a span: its duration minus the time its children
/// cover. Children are disjoint sub-spans, so their sum never exceeds
/// the span; a negative result means the caller mis-nested them.
pub fn self_time(span: f64, children: &[f64]) -> f64 {
    span - children.iter().sum::<f64>()
}

/// Per-unit medians across passes: `passes[k][u]` is unit `u`'s sample
/// in pass `k`; the result holds one median per unit. Every pass must
/// cover the same units.
pub fn per_unit_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let units = passes.first().map_or(0, Vec::len);
    assert!(passes.iter().all(|p| p.len() == units), "ragged passes");
    (0..units)
        .map(|u| median(&passes.iter().map(|p| p[u]).collect::<Vec<_>>()))
        .collect()
}

/// Marks every `every`-th call of a stream: `tick` returns true on
/// calls 0, `every`, `2 × every`, …, which is where the caller reads
/// the clock. The stamps plus one closing stamp bound the windows, so
/// `n` calls give `ceil(n / every)` windows.
#[derive(Debug, Clone)]
pub struct WindowMarks {
    every: u64,
    calls: u64,
}

impl WindowMarks {
    /// Marks every `every`-th call.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(every: u64) -> Self {
        assert!(every > 0, "window of zero calls");
        WindowMarks { every, calls: 0 }
    }

    /// Counts one call; true when it opens a new window.
    pub fn tick(&mut self) -> bool {
        let opens = self.calls.is_multiple_of(self.every);
        self.calls += 1;
        opens
    }
}

/// Durations between consecutive stamps (seconds).
pub fn windows(stamps: &[std::time::Instant]) -> Vec<f64> {
    stamps
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_agree_with_the_simulators_nearest_rank() {
        let sets: [&[u64]; 5] = [
            &[7],
            &[40, 10, 20, 30],
            &[5, 1, 4, 2, 3],
            &[9, 9, 1, 1, 5, 5, 7, 3, 2, 8, 6, 4],
            &[100, 3, 57, 12, 12, 88, 41, 9, 70, 23, 61, 5, 99],
        ];
        for set in sets {
            let as_f64: Vec<f64> = set.iter().map(|&v| v as f64).collect();
            for p in [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                assert_eq!(
                    percentile(&as_f64, p),
                    dysta::sim::percentile_ns(set, p) as f64,
                    "p{p} of {set:?}"
                );
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn self_time_subtracts_every_child() {
        assert_eq!(self_time(10.0, &[]), 10.0);
        assert_eq!(self_time(10.0, &[2.5, 4.0, 0.5]), 3.0);
    }

    #[test]
    fn per_unit_medians_take_each_unit_across_passes() {
        let passes = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![2.0, 20.0]];
        assert_eq!(per_unit_medians(&passes), vec![2.0, 20.0]);
    }

    #[test]
    fn window_marks_open_every_nth_call() {
        let mut marks = WindowMarks::new(500);
        let opened: Vec<u64> = (0..60_000u64).filter(|_| marks.tick()).collect();
        assert_eq!(opened.len(), 120);
        let mut marks = WindowMarks::new(500);
        let ticks: Vec<bool> = (0..1_001).map(|_| marks.tick()).collect();
        let opened: Vec<usize> = (0..ticks.len()).filter(|&i| ticks[i]).collect();
        assert_eq!(opened, vec![0, 500, 1_000]);
    }

    #[test]
    fn windows_are_gaps_between_stamps() {
        let t0 = std::time::Instant::now();
        let ms = std::time::Duration::from_millis;
        let stamps = [t0, t0 + ms(5), t0 + ms(7), t0 + ms(17)];
        let w = windows(&stamps);
        assert_eq!(w.len(), 3);
        assert!((w[0] - 0.005).abs() < 1e-12);
        assert!((w[1] - 0.002).abs() < 1e-12);
        assert!((w[2] - 0.010).abs() < 1e-12);
        assert!(windows(&stamps[..1]).is_empty());
    }
}
