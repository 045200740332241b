//! The benchmark's own arithmetic: percentiles, interval unions, self time,
//! metric-name validity and the decision digest.

/// The nearest-rank `p`-th percentile of `samples` (sorted or not): the
/// smallest sample with at least `p`% of all samples at or below it.
/// `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile's position — a percentile is only reported when this is at
/// least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Total length covered by the union of half-open intervals
/// `[start, end)` — overlapping intervals are counted once.
pub fn union_length(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(cs, ce)| ce - cs)
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// that its children's intervals cover (children may overlap each other
/// and may stick out of the parent; only the covered part counts).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .collect();
    end.saturating_sub(start) - union_length(&clipped)
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// 64-bit FNV-1a over a byte stream: the decision digest. Feeding the
/// `Debug` rendering of decisions is bit-exact, because `f64`'s `Debug`
/// output round-trips.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn feed_debug(&mut self, value: &impl std::fmt::Debug) {
        self.feed(format!("{value:?}").as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn samples_beyond_counts_the_tail_past_the_rank() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(1, 50.0), 0);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_length(&[]), 0);
        assert_eq!(union_length(&[(0, 10)]), 10);
        assert_eq!(union_length(&[(0, 10), (5, 15)]), 15);
        assert_eq!(union_length(&[(20, 30), (0, 10)]), 20);
        assert_eq!(union_length(&[(0, 10), (10, 20)]), 20);
        assert_eq!(union_length(&[(0, 30), (5, 10), (12, 14)]), 30);
        assert_eq!(
            union_length(&[(5, 5), (7, 3)]),
            0,
            "empty and inverted intervals"
        );
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // Children sticking out of the parent count only inside it.
        assert_eq!(self_time((10, 100), &[(0, 20), (90, 200)]), 70);
        assert_eq!(self_time((0, 100), &[(0, 100), (20, 30)]), 0);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "ops_per_s",
            "oracle.predict_batch.busy_s",
            "p90-ms",
            "9lives",
            "a",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "quote\"",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn digest_is_order_sensitive_and_repeatable() {
        let run = |parts: &[&str]| {
            let mut d = Digest::new();
            for p in parts {
                d.feed(p.as_bytes());
            }
            d.value()
        };
        assert_eq!(run(&["a", "b"]), run(&["a", "b"]));
        assert_ne!(run(&["a", "b"]), run(&["b", "a"]));
        let mut d = Digest::new();
        d.feed_debug(&0.1f64);
        let mut f = Digest::new();
        f.feed_debug(&f64::from_bits(0.1f64.to_bits() + 1));
        assert_ne!(d.value(), f.value(), "one ulp apart digests differently");
    }
}
