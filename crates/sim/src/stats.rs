//! Summary statistics for experiment metrics.
//!
//! Every modelled duration (per-request latency, sojourn, per-stage and
//! per-algorithm time) is recorded in a [`TimeAccumulator`] and
//! summarised with [`Summary`]; benches print the summaries as table
//! rows.

use crate::SimTime;
use std::collections::BTreeMap;

/// A frozen statistical summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

/// Exact histogram of [`SimTime`] samples, summarised in nanoseconds.
///
/// Stores one picoseconds → count entry per distinct duration plus the
/// exact total. Modelled durations are fixed functions of cycle counts,
/// so memory follows the number of distinct durations, not the number
/// of samples, and every quantile is exact. Equality compares the value
/// distribution; push order does not matter.
///
/// # Examples
///
/// ```
/// use aaod_sim::{stats::TimeAccumulator, SimTime};
///
/// let mut acc = TimeAccumulator::new();
/// acc.push(SimTime::from_ns(100));
/// acc.push(SimTime::from_ns(300));
/// assert_eq!(acc.summary_ns().mean, 200.0);
/// assert_eq!(acc.quantile(1.0), SimTime::from_ns(300));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeAccumulator {
    counts: BTreeMap<u64, u64>,
    count: usize,
    total: SimTime,
}

impl TimeAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        TimeAccumulator::default()
    }

    /// Adds a duration sample.
    pub fn push(&mut self, t: SimTime) {
        *self.counts.entry(t.as_ps()).or_insert(0) += 1;
        self.count += 1;
        self.total += t;
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimTime {
        self.total
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Adds every sample of `other` — used when combining per-shard
    /// accumulators into an engine-wide one.
    pub fn merge(&mut self, other: &TimeAccumulator) {
        for (&ps, &n) in &other.counts {
            *self.counts.entry(ps).or_insert(0) += n;
        }
        self.count += other.count;
        self.total += other.total;
    }

    /// The `q`-quantile by nearest rank: the sample at sorted index
    /// `round((n - 1) * q)`; [`SimTime::ZERO`] when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimTime {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut seen = 0;
        let (&ps, _) = self
            .counts
            .iter()
            .find(|(_, &n)| {
                seen += n;
                seen > rank
            })
            .expect("rank is below the sample count");
        SimTime::from_ps(ps)
    }

    /// Summary with all fields in nanoseconds; the mean is the exact
    /// total over the count.
    pub fn summary_ns(&self) -> Summary {
        if self.count == 0 {
            return Summary::default();
        }
        let ns = |q| self.quantile(q).as_ns();
        Summary {
            count: self.count,
            mean: self.total.as_ns() / self.count as f64,
            min: ns(0.0),
            max: ns(1.0),
            p50: ns(0.5),
            p95: ns(0.95),
            p99: ns(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn acc_of(ns: &[u64]) -> TimeAccumulator {
        let mut acc = TimeAccumulator::new();
        for &x in ns {
            acc.push(SimTime::from_ns(x));
        }
        acc
    }

    /// Oracle: nearest rank over a sorted copy of every sample.
    fn sorted_nearest_rank(samples: &[u64], q: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }

    #[test]
    fn empty_accumulator_is_zeroed() {
        let acc = TimeAccumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.total(), SimTime::ZERO);
        assert_eq!(acc.quantile(0.0), SimTime::ZERO);
        assert_eq!(acc.quantile(0.5), SimTime::ZERO);
        assert_eq!(acc.quantile(1.0), SimTime::ZERO);
        assert_eq!(acc.summary_ns(), Summary::default());
    }

    #[test]
    fn summary_fields() {
        let acc = acc_of(&(1..=100).collect::<Vec<_>>());
        let s = acc.summary_ns();
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 51.0); // nearest-rank: round(99 * 0.5) = 50 -> value 51
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        // push order does not matter
        let acc = acc_of(&[30, 10, 20]);
        assert_eq!(acc.count(), 3);
        assert_eq!(acc.total(), SimTime::from_ns(60));
        assert_eq!(acc.quantile(0.0), SimTime::from_ns(10));
        assert_eq!(acc.quantile(0.5), SimTime::from_ns(20));
        assert_eq!(acc.quantile(1.0), SimTime::from_ns(30));
        assert_eq!(acc.summary_ns().mean, 20.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_out_of_range_panics() {
        TimeAccumulator::new().quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_below_range_panics() {
        TimeAccumulator::new().quantile(-0.1);
    }

    #[test]
    fn time_accumulator_totals() {
        let acc = acc_of(&[10, 30]);
        assert_eq!(acc.total(), SimTime::from_ns(40));
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.summary_ns().max, 30.0);
    }

    #[test]
    fn merge_appends_samples() {
        let mut a = acc_of(&[10]);
        a.merge(&acc_of(&[30, 50]));
        assert_eq!(a.count(), 3);
        assert_eq!(a.total(), SimTime::from_ns(90));
        assert_eq!(a.summary_ns().max, 50.0);
        a.merge(&acc_of(&[40]));
        assert_eq!(a.count(), 4);
        assert_eq!(a, acc_of(&[10, 30, 40, 50]));
    }

    #[test]
    fn quantile_single_sample() {
        let acc = acc_of(&[42]);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(acc.quantile(q), SimTime::from_ns(42));
        }
    }

    #[test]
    fn single_sample_summary_is_degenerate() {
        let mut acc = TimeAccumulator::new();
        acc.push(SimTime::from_ps(7_500));
        let s = acc.summary_ns();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.min, 7.5);
        assert_eq!(s.max, 7.5);
        assert_eq!(s.p50, 7.5);
        assert_eq!(s.p95, 7.5);
        assert_eq!(s.p99, 7.5);
    }

    #[test]
    fn all_equal_samples_collapse_every_quantile() {
        let acc = acc_of(&[3_000; 50]);
        let s = acc.summary_ns();
        assert_eq!(s.mean, 3_000.0);
        assert_eq!(s.min, 3_000.0);
        assert_eq!(s.max, 3_000.0);
        assert_eq!(s.p50, 3_000.0);
        assert_eq!(s.p95, 3_000.0);
        assert_eq!(s.p99, 3_000.0);
        assert_eq!(acc.total(), SimTime::from_us(3) * 50);
        assert_eq!(acc.counts.len(), 1);
    }

    #[test]
    fn merging_an_empty_accumulator_is_identity() {
        let mut a = acc_of(&[1, 9]);
        let before = a.clone();
        a.merge(&TimeAccumulator::new());
        assert_eq!(a, before);
        let mut empty = TimeAccumulator::new();
        empty.merge(&TimeAccumulator::new());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.total(), SimTime::ZERO);
        assert_eq!(empty.summary_ns(), Summary::default());
    }

    #[test]
    fn empty_summary_is_the_default() {
        assert_eq!(TimeAccumulator::new().summary_ns(), Summary::default());
    }

    /// Random sample sets against the sort-based oracle: count, total,
    /// quantiles, summary, merge of arbitrary splits and push order.
    #[test]
    fn matches_sorted_nearest_rank_oracle() {
        let mut rng = SplitMix64::new(0x57A7_5EED);
        for case in 0..200 {
            let n = 1 + rng.index(300);
            // few distinct values on even cases, wide spread on odd
            let spread = if case % 2 == 0 { 8 } else { 1 << 40 };
            let ps: Vec<u64> = (0..n).map(|_| rng.below(spread)).collect();
            let mut whole = TimeAccumulator::new();
            for &x in &ps {
                whole.push(SimTime::from_ps(x));
            }
            assert_eq!(whole.count(), n);
            assert_eq!(whole.total().as_ps(), ps.iter().sum::<u64>());
            for q in [0.0, 1.0, rng.next_f64(), rng.next_f64()] {
                assert_eq!(whole.quantile(q).as_ps(), sorted_nearest_rank(&ps, q));
            }
            let s = whole.summary_ns();
            let ns = |q| SimTime::from_ps(sorted_nearest_rank(&ps, q)).as_ns();
            assert_eq!(
                (s.count, s.min, s.max, s.p50, s.p95, s.p99),
                (n, ns(0.0), ns(1.0), ns(0.5), ns(0.95), ns(0.99))
            );
            let float_mean = ps.iter().map(|&x| x as f64 / 1e3).sum::<f64>() / n as f64;
            assert!((s.mean - float_mean).abs() <= 1e-9 * float_mean.max(1.0));

            let mut merged = TimeAccumulator::new();
            let mut rest = &ps[..];
            while !rest.is_empty() {
                let (part, tail) = rest.split_at(rng.index(rest.len() + 1));
                let mut acc = TimeAccumulator::new();
                for &x in part {
                    acc.push(SimTime::from_ps(x));
                }
                merged.merge(&acc);
                rest = tail;
            }
            assert_eq!(merged, whole);

            let mut shuffled = ps.clone();
            rng.shuffle(&mut shuffled);
            let mut reordered = TimeAccumulator::new();
            for &x in &shuffled {
                reordered.push(SimTime::from_ps(x));
            }
            assert_eq!(reordered, whole);
        }
        assert_eq!(acc_of(&[1, 2]), acc_of(&[2, 1]));
    }

    #[test]
    fn memory_follows_distinct_values() {
        let mut rng = SplitMix64::new(12);
        let values: Vec<SimTime> = (0..12).map(|i| SimTime::from_ns(100 + 37 * i)).collect();
        let mut acc = TimeAccumulator::new();
        for _ in 0..1_000_000 {
            acc.push(values[rng.index(values.len())]);
        }
        assert_eq!(acc.count(), 1_000_000);
        assert_eq!(acc.counts.len(), values.len());
    }
}
